//! Tour of the performance-engineering surface added to the simulation hot
//! path: cancellable timers (`Sim::timer_after` / `Sim::cancel_timer`), the
//! per-scenario `events` counters that feed the wall-clock perf harness
//! (`cargo bench -p gfs-bench --bench perf`), the deterministic parallel
//! sweep runner, and the data-path counters (page pool, NSD coalescing).
//!
//! Run with `cargo run --release --offline --example perf_tour`.

use globalfs::scenarios::parallel::run_indexed;
use globalfs::scenarios::production::{
    run_fig11_with_threads, run_scaling_point, Direction, ProductionConfig,
};
use globalfs::scenarios::recovery::disk_failure_during_sweep;
use globalfs::simcore::{Sim, SimDuration};
use std::time::Instant;

fn main() {
    // ------------------------------------------------------------------
    // Cancellable timers: the watchdog pattern used by the gfs client.
    // A timeout is armed per request; the response cancels it, so the
    // event queue does not accumulate dead timers until expiry.
    // ------------------------------------------------------------------
    let mut sim: Sim<Vec<&'static str>> = Sim::new();
    let mut log: Vec<&'static str> = Vec::new();

    let watchdog = sim.timer_after(SimDuration::from_secs(30), |_s, log: &mut Vec<_>| {
        log.push("timeout fired (should not happen)");
    });
    // The "response" arrives long before the timeout and disarms it.
    sim.after(SimDuration::from_millis(5), move |sim, log: &mut Vec<_>| {
        if sim.cancel_timer(watchdog) {
            log.push("response in time, watchdog cancelled");
        }
    });
    // A second watchdog that genuinely expires: its response comes too
    // late, notices the lost race, and stands down.
    let watchdog = sim.timer_after(SimDuration::from_millis(1), |_s, log: &mut Vec<_>| {
        log.push("slow request timed out");
    });
    sim.after(SimDuration::from_millis(2), move |sim, log: &mut Vec<_>| {
        if !sim.cancel_timer(watchdog) {
            log.push("late response dropped (timer already fired)");
        }
    });

    sim.run(&mut log);
    println!("=== cancellable timers ===");
    for line in &log {
        println!("  {line}");
    }
    assert_eq!(sim.pending(), 0, "cancelled timers leave nothing behind");

    // ------------------------------------------------------------------
    // Scenario event counters: simulated work vs. wall-clock cost. The
    // perf harness reports events/sec for the heavy scenarios from the
    // same counter snapshot.
    // ------------------------------------------------------------------
    println!("\n=== events vs. wall clock (Fig. 11 read points) ===");
    for nodes in [8u32, 32, 128] {
        let t0 = Instant::now();
        let p = run_scaling_point(ProductionConfig::default(), nodes, Direction::Read);
        let wall = t0.elapsed().as_secs_f64();
        let events = p.counters.get("simcore.events");
        println!(
            "  {nodes:>3} nodes: {:>6.1} MB/s agg, {:>4} events, {:>5.1} ms wall ({:.0} events/s)",
            p.aggregate_mbyte_per_sec(),
            events,
            wall * 1e3,
            events as f64 / wall.max(1e-9),
        );
    }

    // ------------------------------------------------------------------
    // Deterministic parallel sweeps: every figure point is an isolated
    // seeded world, so `run_indexed` can fan points across threads and
    // the merged output is bit-identical at any worker count.
    // ------------------------------------------------------------------
    println!("\n=== parallel sweep determinism (Fig. 11, 1 vs 4 workers) ===");
    let cfg = ProductionConfig::default();
    let counts = [1u32, 8, 32];
    let serial = run_fig11_with_threads(&cfg, &counts, 1);
    let parallel = run_fig11_with_threads(&cfg, &counts, 4);
    let identical = serial.iter().zip(&parallel).all(|((rs, ws), (rp, wp))| {
        rs.seconds.to_bits() == rp.seconds.to_bits() && ws.seconds.to_bits() == wp.seconds.to_bits()
    });
    println!("  {} points, serial == parallel bitwise: {identical}", serial.len());
    assert!(identical, "parallel sweep diverged from serial");
    // The raw runner works for any per-index job that owns its state.
    let squares = run_indexed(8, 4, |i| i * i);
    println!("  run_indexed(8, 4, i*i) -> {squares:?}");

    // ------------------------------------------------------------------
    // Data-path counters: the disk-failure sweep writes and then reads a
    // 64 MB file through the real block path (page pool + coalesced NSD
    // scatter-gather over 4 NSDs, RAID-5 reconstruction once a spindle
    // dies), and its report carries the counter snapshot the perf harness
    // writes to BENCH_perf.json. (The crash scenario's snapshot ends with
    // its write, whose 64 NSDs give no two consecutive blocks one disk, so
    // it coalesces nothing.)
    // ------------------------------------------------------------------
    println!("\n=== data-path counters (disk-failure sweep) ===");
    let report = disk_failure_during_sweep(31);
    let n = |name| report.counters.get(name);
    let (hits, misses) = (n("cache.pool_hits"), n("cache.pool_misses"));
    println!(
        "  pool: {hits} hits / {misses} misses (hit rate {:.1}%), {} evictions",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
        n("cache.pool_evictions"),
    );
    println!(
        "  NSD wire: {} requests, {} coalesced (>1 block), {} blocks, mean request {:.0} KiB; \
         {} degraded reads",
        n("nsd.requests"),
        n("nsd.coalesced"),
        n("nsd.blocks"),
        n("nsd.bytes") as f64 / n("nsd.requests").max(1) as f64 / 1024.0,
        n("simsan.degraded_reads"),
    );
    assert!(n("nsd.coalesced") > 0, "a striped sweep must coalesce runs");
}
