//! Trace replay + oracle differencing: the PR-10 call surface.
//!
//! Every captured trace becomes a correctness test: the line codec turns
//! text into [`scenarios::trace::TraceOp`]s, union-find splits them into
//! namespace-disjoint streams, and the replay driver runs each stream
//! through the full session stack — leases, sharded managers, replica
//! catalog — while an in-memory model filesystem executes the same ops
//! and every result (typed errors, attributes, listings, bytes) is
//! differenced op-by-op. The chaos entry then replays a corpus under
//! manager-kill / NSD-crash / partition schedules and demands zero
//! divergence anyway.
//!
//! ```text
//! cargo run --example trace_replay
//! ```

use gfs::faults::ProgressPlan;
use gfs::types::FsId;
use scenarios::metadata_storm::ChaosSpec;
use scenarios::trace::{
    check_trace_differential_sized, parse_trace, render_trace, replay_trace, split_streams,
    ReplayConfig, TraceCorpus,
};
use simcore::SimDuration;

fn main() {
    // ------------------------------------------------------------------
    // 1. The codec: a corpus renders to plain text and parses back
    //    losslessly — the on-disk form a real strace/darshan converter
    //    would emit.
    // ------------------------------------------------------------------
    let ops = TraceCorpus::EnzoCheckpoint.generate(2, 1, 2005);
    let text = render_trace(&ops);
    println!("enzo-checkpoint corpus, first 6 trace lines:");
    for line in text.lines().take(6) {
        println!("  {line}");
    }
    let parsed = parse_trace(&text).expect("rendered trace must parse");
    assert_eq!(parsed, ops, "codec round-trip");
    let streams = split_streams(&ops);
    println!(
        "  ... {} ops total, {} namespace-disjoint streams\n",
        ops.len(),
        streams.len()
    );

    // ------------------------------------------------------------------
    // 2. Healthy replay, every corpus: each op's result must equal the
    //    model filesystem's, and the final trees must fingerprint-equal.
    // ------------------------------------------------------------------
    println!("healthy replay vs oracle (M=1):");
    println!("  corpus           ops  errors  divergences  tree==oracle");
    for corpus in TraceCorpus::ALL {
        let ops = corpus.generate(4, 2, 2005);
        let r = replay_trace(&ops, &ReplayConfig::default(), &ChaosSpec::none());
        println!(
            "  {:<15} {:>4}  {:>6}  {:>11}  {}",
            corpus.name(),
            r.run.ops,
            r.run.errors,
            r.divergences,
            r.tree_matches_oracle
        );
        assert_eq!(r.divergences, 0);
        assert!(r.tree_matches_oracle);
    }

    // ------------------------------------------------------------------
    // 3. A manager kill mid-trace: recovery (epoch bump + WAL replay)
    //    must be semantically invisible — the differ still sees zero
    //    divergence and identical trees.
    // ------------------------------------------------------------------
    let ops = TraceCorpus::UntarBuild.generate(3, 2, 7);
    let spec = ChaosSpec {
        progress: ProgressPlan::new().server_crash_at_op(
            ops.len() as u64 * 2 / 5,
            FsId(0),
            "trace-srv0",
            Some(SimDuration::from_millis(600)),
        ),
        wan_clients: false,
    };
    let r = replay_trace(&ops, &ReplayConfig::default(), &spec);
    let n = |name| r.run.counters.get(name);
    println!(
        "\nuntar-build under a mid-trace manager kill: {} fault(s), {} epoch bump(s), \
         {} WAL record(s) replayed, {} divergences, tree==oracle: {}",
        n("faults.injected"),
        n("manager.epochs"),
        n("manager.wal_replayed"),
        r.divergences,
        r.tree_matches_oracle
    );
    assert!(n("manager.epochs") >= 1 && n("manager.wal_replayed") >= 1);
    assert_eq!(r.divergences, 0);
    assert!(r.tree_matches_oracle);

    // ------------------------------------------------------------------
    // 4. The full differential at example scale: M=1 and M=4 (leases +
    //    replica catalog on) under healthy, manager-kill, NSD-crash and
    //    partition schedules, plus a determinism witness.
    // ------------------------------------------------------------------
    let verdict = check_trace_differential_sized(TraceCorpus::EnzoCheckpoint, 3, 1);
    println!(
        "\nenzo-checkpoint differential: {} replays, {} ops, clean: {}",
        verdict.report.len(),
        verdict.total_ops(),
        verdict.is_clean()
    );
    for (label, r) in &verdict.report {
        let n = |name| r.run.counters.get(name);
        println!(
            "  {:<28} divergences {}  gave_up {}  faults {}  leases {}",
            label,
            r.divergences,
            r.run.gave_up,
            n("faults.injected"),
            n("manager.lease_grants")
        );
    }
    verdict.assert_clean();
    println!("\nevery trace replayed; zero divergence from the model filesystem");
}
