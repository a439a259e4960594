//! Deterministic fault injection through the public API, end to end.
//!
//! ```text
//! cargo run --release --example fault_injection [seed]
//! cargo run --release --example fault_injection -- 4242 --crash-all
//! ```
//!
//! Builds a small NSD farm with [`ScenarioBuilder`], crashes one server in
//! the middle of a striped client write via a [`FaultPlan`], and prints the
//! recovery log plus the measured recovery metrics. Then runs the paper-
//! scale 1-of-64 crash experiment twice with the same seed to demonstrate
//! byte-identical replay. `--crash-all` instead kills every server and
//! shows the typed `FsError` surfacing (no panic).

use globalfs::gfs::FaultPlan;
use globalfs::scenarios::recovery::{crash_one_of_n, CrashConfig};
use globalfs::scenarios::{NsdFarm, ScenarioBuilder, Workload};
use globalfs::simcore::{Bandwidth, SimDuration, SimTime, MBYTE};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args
        .iter()
        .skip(1)
        .find_map(|a| a.parse().ok())
        .unwrap_or(4242);
    let crash_all = args.iter().any(|a| a == "--crash-all");

    // --- An ad-hoc scenario: 8-server farm, one client, crash mid-write.
    let mut sb = ScenarioBuilder::new(seed);
    let farm = NsdFarm::new("demo", 8).stored_data().block_size(256 * 1024);
    let crash_names: Vec<String> = if crash_all {
        (0..8).map(|i| farm.server_name(i)).collect()
    } else {
        vec![farm.server_name(2)]
    };
    let fs = sb.nsd_farm("sdsc", farm);
    let c = sb.clients(
        "sdsc",
        1,
        Bandwidth::gbit(1.0),
        SimDuration::from_micros(100),
        64,
    )[0];
    sb.workload(Workload::file_write(c, "demo", "/ckpt", 32 * MBYTE, MBYTE));
    let mut plan = FaultPlan::new();
    for name in crash_names {
        plan = plan.server_crash(SimTime::from_millis(150), fs, name);
    }
    sb.faults(plan);
    sb.sample_every(SimDuration::from_millis(50));
    let run = sb.run(SimTime::from_secs(120));

    println!("=== ad-hoc scenario (seed {seed}{}) ===", if crash_all { ", ALL servers crashed" } else { "" });
    println!("workloads completed: {}   errors: {:?}", run.completed, run.errors);
    println!("fsck clean: {}", globalfs::gfs::fsck(&run.world.fss[fs.0 as usize].core).is_clean());
    println!("recovery log ({} events):", run.world.recovery.events.len());
    for e in run.world.recovery.events.iter().take(12) {
        println!("  {:>9.3}s  {:?}", e.at.as_secs_f64(), e.what);
    }
    if run.world.recovery.events.len() > 12 {
        println!("  ... {} more", run.world.recovery.events.len() - 12);
    }
    if crash_all {
        return;
    }

    // --- The paper-scale experiment: crash 1 of 64 servers mid-write.
    let cfg = CrashConfig { seed, ..CrashConfig::default() };
    let a = crash_one_of_n(&cfg);
    println!("\n=== crash 1 of 64 NSD servers mid-write (seed {seed}) ===");
    println!("write completed: {}   errors: {:?}", a.completed == 1, a.errors);
    println!("fsck clean: {}   read-back intact: {}", a.fsck_clean, a.data_intact);
    println!(
        "time-to-detect: {:?}   time-to-failover: {:?}",
        a.time_to_detect.map(|d| d.as_secs_f64()),
        a.time_to_failover.map(|d| d.as_secs_f64())
    );
    match &a.dip {
        Some(d) => println!(
            "throughput dip: {:.3}s -> {:.3}s (duration {:.3}s, floor {:.1} MB/s)",
            d.start.as_secs_f64(),
            d.end.as_secs_f64(),
            d.duration.as_secs_f64(),
            d.floor / MBYTE as f64
        ),
        None => println!("throughput dip: none recorded"),
    }
    println!("write finished at {:.3}s", a.finish.as_secs_f64());

    // --- Determinism: same seed, byte-identical replay.
    let b = crash_one_of_n(&cfg);
    let identical = a.finish == b.finish
        && a.client_series.points == b.client_series.points
        && a.time_to_failover == b.time_to_failover;
    println!("\nsame-seed rerun byte-identical: {identical}");
    assert!(identical, "determinism violated");
}
