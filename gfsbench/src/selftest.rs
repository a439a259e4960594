//! The benchmark's own checks, proved able to fail.
//!
//! On small shapes of every workload this shows that an honest round
//! passes every check and repeats itself bit for bit, that another seed
//! gives a different result with the same shape, and that each planted
//! defect trips the check that guards against it: a flipped oracle
//! expectation or read byte raises the failed-op count, and a dropped op,
//! a corrupted block pointer or a stale replica read fails the liveness
//! and integrity gate.

use crate::bench::Corrupt;
use crate::{model_key, round, WORKLOADS};
use std::io::Write;

/// Run every check; report each line to `out`. True when all hold.
pub fn run_all(out: &mut impl Write) -> bool {
    let mut ok = true;
    let mut report = |name: String, pass: bool| {
        ok &= pass;
        let _ = writeln!(out, "{} {name}", if pass { "ok  " } else { "FAIL" });
    };
    let seed = 7;
    for wl in WORKLOADS {
        let honest = round(wl, seed, true, false, Corrupt::None);
        report(
            format!(
                "{wl}: honest round passes ({} ops, {} failed, gate {:?})",
                honest.rec.attempted, honest.rec.failed, honest.gate
            ),
            honest.rec.failed == 0 && honest.gate.is_empty() && honest.rec.attempted > 0,
        );
        let again = round(wl, seed, true, false, Corrupt::None);
        report(
            format!("{wl}: same seed repeats every model metric and fingerprint"),
            model_key(&again) == model_key(&honest),
        );
        let other = round(wl, seed + 1, true, false, Corrupt::None);
        report(
            format!("{wl}: another seed changes the fingerprint, not the shape"),
            other.fingerprint != honest.fingerprint && other.rec.attempted == honest.rec.attempted,
        );
        let traced = round(wl, seed, true, true, Corrupt::None);
        report(
            format!("{wl}: tracing leaves the model results unchanged"),
            model_key(&traced) == model_key(&honest),
        );
        for (corrupt, what) in [
            (Corrupt::Oracle, "oracle expectation"),
            (Corrupt::Bytes, "read byte"),
        ] {
            if wl == "data_grid" && corrupt == Corrupt::Oracle {
                continue; // data_grid's expectation is the byte check itself
            }
            let r = round(wl, seed, true, false, corrupt);
            report(
                format!(
                    "{wl}: a flipped {what} is counted as a failed op ({})",
                    r.rec.failed
                ),
                r.rec.failed > 0,
            );
        }
        for (corrupt, what) in [
            (Corrupt::Stall, "an op that never completes"),
            (Corrupt::Fsck, "a corrupted block pointer"),
            (Corrupt::Invariant, "a stale replica read"),
        ] {
            let r = round(wl, seed, true, false, corrupt);
            report(
                format!(
                    "{wl}: {what} fails the gate ({} violation(s))",
                    r.gate.len()
                ),
                !r.gate.is_empty(),
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_check_can_fail_and_honest_runs_pass() {
        let mut out = Vec::new();
        let ok = super::run_all(&mut out);
        let text = String::from_utf8(out).expect("utf8 report");
        assert!(ok, "self-test failed:\n{text}");
    }
}
