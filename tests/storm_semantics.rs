//! Semantic pins for the metadata storm: what must hold whichever way the
//! control path is built. Every storm here drains exactly (each chain runs
//! every op), leaves a clean fsck and no op that gave up, produces a report
//! that is bit-identical at 1 and 8 sweep threads, and — for the
//! manager-crash run — ends with the fault-free oracle's tree and op
//! results. The op-result and tree fingerprints are pinned on top, so any
//! change to what the storm observes shows up here and is re-pinned on
//! purpose.

use globalfs::scenarios::chaos::check_manager_recovery;
use globalfs::scenarios::metadata_storm::{
    run_storm_with_threads, StormConfig, StormMix, StormReport,
};
use globalfs::scenarios::trace::TraceCorpus;
use globalfs::simcore::SimDuration;

/// Run `cfg` at 1 and 8 sweep threads, demand bit identity, exact op
/// counts and a healthy end state, and return the report.
fn exact_clean_storm(cfg: &StormConfig) -> StormReport {
    let r = run_storm_with_threads(cfg, 1);
    assert_eq!(
        r,
        run_storm_with_threads(cfg, 8),
        "report differs across sweep threads"
    );
    let points = u64::from(cfg.points);
    assert_eq!(
        r.ops,
        points * (cfg.tree_ops() + cfg.race_ops()),
        "every chain must drain"
    );
    assert_eq!(r.sessions, cfg.total_sessions());
    assert!(r.fsck_clean, "storm left an inconsistent filesystem");
    assert_eq!(r.gave_up, 0, "fault-free storm must not give up");
    assert_eq!(r.invariant_violations, 0);
    assert_eq!(
        r.errors,
        r.err_not_found + r.err_exists + r.err_races,
        "every error must be an expected race outcome"
    );
    r
}

#[test]
fn small_uniform_storm_is_exact_clean_and_pinned() {
    let r = exact_clean_storm(&StormConfig::small());
    assert_eq!(r.ops, 1448);
    assert_eq!(r.errors, 36);
    assert_eq!(r.fingerprint, 18440317126014107998);
    assert_eq!(r.tree_fingerprint, 12469937407274218023);
}

#[test]
fn small_corpus_storm_is_exact_clean_and_pinned() {
    let r = exact_clean_storm(
        &StormConfig::small().with_mix(StormMix::Corpus(TraceCorpus::UntarBuild)),
    );
    assert_eq!(r.ops, 1448);
    assert_eq!(r.errors, 15);
    assert_eq!(r.fingerprint, 1085845825601355389);
    assert_eq!(r.tree_fingerprint, 4016635406266118264);
}

#[test]
fn thirty_two_client_storm_is_exact_clean_and_pinned() {
    let cfg = StormConfig {
        points: 1,
        clients_per_point: 32,
        ..StormConfig::small()
    };
    let r = exact_clean_storm(&cfg);
    assert_eq!(r.ops, 1300);
    assert_eq!(r.errors, 77);
    assert_eq!(r.fingerprint, 2515506939515091150);
    assert_eq!(r.tree_fingerprint, 15063891407670087431);
}

#[test]
fn manager_recovery_matches_fault_free_oracle_and_pin() {
    // Chaos run: manager crash at 50% with a 600 ms outage, against the
    // fault-free oracle run of the same one-chain workload.
    let v = check_manager_recovery(&StormConfig::small(), 0.5, SimDuration::from_millis(600));
    assert!(v.violations.is_empty(), "violations: {:?}", v.violations);
    assert_eq!(v.chaos.fingerprint, v.oracle.fingerprint);
    assert_eq!(v.chaos.tree_fingerprint, v.oracle.tree_fingerprint);
    assert_eq!(
        (v.chaos.ops, v.chaos.errors),
        (v.oracle.ops, v.oracle.errors)
    );
    assert!(v.chaos.fsck_clean);
    assert_eq!(v.chaos.gave_up, 0);
    assert_eq!(v.chaos.ops, 1112);
    assert_eq!(v.chaos.errors, 4);
    assert_eq!(v.chaos.fingerprint, 336730383921503352);
    assert_eq!(v.chaos.tree_fingerprint, 6762044656801413376);
}
