//! Reproducibility: identical seeds and configurations yield bit-identical
//! results across the whole stack — the property that makes every number
//! in EXPERIMENTS.md re-derivable.

use globalfs::scenarios::ablations::{blocksize_streams, gfs_vs_gridftp, A2Config};
use globalfs::scenarios::{deisa, production, recovery, replication, sc02, sc03, sc04};
use globalfs::simcore::SimDuration;

#[test]
fn sc02_series_bit_identical() {
    let a = sc02::run(sc02::Sc02Config::default());
    let b = sc02::run(sc02::Sc02Config::default());
    assert_eq!(a.series.points, b.series.points);
    assert_eq!(a.steady, b.steady);
}

#[test]
fn sc04_series_bit_identical() {
    let a = sc04::run(sc04::Sc04Config::default());
    let b = sc04::run(sc04::Sc04Config::default());
    assert_eq!(a.aggregate.points, b.aggregate.points);
    for (x, y) in a.link_series.iter().zip(&b.link_series) {
        assert_eq!(x.points, y.points);
    }
}

#[test]
fn production_points_bit_identical() {
    let a = production::run_scaling_point(
        production::ProductionConfig::default(),
        16,
        production::Direction::Read,
    );
    let b = production::run_scaling_point(
        production::ProductionConfig::default(),
        16,
        production::Direction::Read,
    );
    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
}

/// The full Fig. 11 sweep (the perf harness's headline workload): every
/// point's makespan, byte count and event count must reproduce exactly.
#[test]
fn fig11_sweep_bit_identical() {
    let cfg = production::ProductionConfig::default();
    let counts = [1u32, 4, 16, 64, 128];
    let a = production::run_fig11(&cfg, &counts);
    let b = production::run_fig11(&cfg, &counts);
    assert_eq!(a.len(), b.len());
    for ((ra, wa), (rb, wb)) in a.iter().zip(&b) {
        assert_eq!(ra.seconds.to_bits(), rb.seconds.to_bits());
        assert_eq!(wa.seconds.to_bits(), wb.seconds.to_bits());
        assert_eq!((ra.bytes, &ra.counters), (rb.bytes, &rb.counters));
        assert_eq!((wa.bytes, &wa.counters), (wb.bytes, &wb.counters));
    }
}

#[test]
fn sc04_event_count_bit_identical() {
    let a = sc04::run(sc04::Sc04Config::default());
    let b = sc04::run(sc04::Sc04Config::default());
    assert_eq!(a.counters.get("simcore.events"), b.counters.get("simcore.events"));
    assert_eq!(a.peak_gbs.to_bits(), b.peak_gbs.to_bits());
}

/// The recovery scenarios run fault injection, timeout/retry and failover —
/// the paths most entangled with the incremental solver and cancellable
/// timers — and must still replay bit-for-bit.
#[test]
fn recovery_scenarios_bit_identical() {
    let a = recovery::crash_one_of_n(&recovery::CrashConfig::default());
    let b = recovery::crash_one_of_n(&recovery::CrashConfig::default());
    assert_eq!(a.client_series.points, b.client_series.points);
    assert_eq!(a.finish, b.finish);
    assert_eq!(a.counters, b.counters);

    let outage = SimDuration::from_secs(5);
    let fa = recovery::link_flap_during_enzo(21, outage);
    let fb = recovery::link_flap_during_enzo(21, outage);
    assert_eq!(fa.wan_series.points, fb.wan_series.points);
    assert_eq!(fa.makespan, fb.makespan);
    assert_eq!(fa.counters, fb.counters);

    let da = recovery::disk_failure_during_sweep(31);
    let db = recovery::disk_failure_during_sweep(31);
    assert_eq!(da.seconds.to_bits(), db.seconds.to_bits());
    assert_eq!(da.baseline_seconds.to_bits(), db.baseline_seconds.to_bits());
    assert_eq!(da.counters, db.counters);
}

/// Exact values of the recovery trio at its defaults. Run-against-run
/// identity cannot see a change that moves both runs the same way; these
/// pins can, so a refactor of the data path must leave every event where
/// it was.
#[test]
fn recovery_scenarios_pinned() {
    let c = recovery::crash_one_of_n(&recovery::CrashConfig::default());
    let events = |c: &globalfs::gfs::Counters| c.get("simcore.events");
    assert_eq!(
        (c.completed, events(&c.counters), c.finish.as_nanos()),
        (1, 3001, 1_772_983_528)
    );

    let f = recovery::link_flap_during_enzo(21, SimDuration::from_secs(5));
    assert_eq!((f.makespan.as_nanos(), events(&f.counters)), (100_313_386_172, 465));

    let d = recovery::disk_failure_during_sweep(31);
    assert_eq!(
        (
            d.seconds.to_bits(),
            d.baseline_seconds.to_bits(),
            d.counters.get("simsan.degraded_reads"),
            events(&d.counters)
        ),
        (0x402d_e13b_419f_879a, 0x402d_94bd_dd70_b3f2, 55, 4169)
    );
}

/// Exact values of one small replication campaign point: the hot-set
/// reads, the write-invalidate probes and the bulk fan-out all run through
/// the workload driver.
#[test]
fn replication_campaign_pinned() {
    let cfg = replication::ReplicationConfig {
        points: 1,
        bulk_files: 6,
        bulk_wire_bytes: 512 << 30,
        tier_capacity: 1 << 40,
        ..replication::ReplicationConfig::default()
    };
    let r = replication::run_campaign_point(&cfg, 0);
    assert_eq!(r.io_errors, 0);
    let n = |name| r.counters.get(name);
    assert_eq!(
        (
            n("simcore.events"),
            r.home_elapsed_ns,
            r.replica_elapsed_ns,
            r.campaign_elapsed_ns,
            n("replica.installs"),
            n("replica.remote_picks"),
            n("replica.split_fanouts")
        ),
        (2537, 3_731_322_901, 1_216_466_782, 2_808_913_009_655, 34, 196, 48)
    );
}

/// Exact values of the figure paths that join parallel streams: Fig. 11
/// and the ANL mount (one stream per client, a join over the clients),
/// the stream path's striped shares (SC'02, SC'03, DEISA, A3's chunked
/// streams) and GridFTP's parallel streams (A2). A join never schedules
/// an event, so none of these may move when the join's code does.
#[test]
fn figure_paths_pinned() {
    use production::{run_anl, run_scaling_point, Direction, ProductionConfig};
    let point = |n, d| {
        let p = run_scaling_point(ProductionConfig::default(), n, d);
        (p.seconds.to_bits(), p.counters.get("simcore.events"))
    };
    assert_eq!(point(1, Direction::Read), (0x4041_0578_efc4_b845, 3));
    assert_eq!(point(1, Direction::Write), (0x4041_0578_efc4_b845, 3));
    assert_eq!(point(128, Direction::Read), (0x4055_46d2_416b_5a41, 131));
    assert_eq!(point(128, Direction::Write), (0x4060_830b_69d6_90f9, 131));
    let anl = run_anl(32);
    assert_eq!(
        (anl.seconds.to_bits(), anl.counters.get("simcore.events")),
        (0x404b_3f86_4538_0747, 35)
    );

    let d = deisa::run(deisa::DeisaConfig::default());
    let rates: Vec<u64> = d.io_rates.iter().map(|(_, _, r)| r.to_bits()).collect();
    assert_eq!(
        rates,
        [
            0x405d_5a37_84cf_a646,
            0x405d_5b19_662d_b126,
            0x405d_5a37_84cf_a646,
            0x405d_5955_b105_4c3b
        ]
    );

    let s = sc02::run(sc02::Sc02Config::default());
    assert_eq!(
        (s.steady.mean.to_bits(), s.steady.n),
        (0x4086_5f3d_ab5c_39bf, 56)
    );
    let s = sc03::run(sc03::Sc03Config::default());
    assert_eq!(
        (s.peak_gbs.to_bits(), s.dip_gbs.to_bits()),
        (0x4021_e449_b5cd_fa16, 0)
    );

    let a2: Vec<(u64, u64)> = gfs_vs_gridftp(&A2Config::default(), &[0.01, 1.0])
        .iter()
        .map(|p| (p.gfs_seconds.to_bits(), p.gridftp_seconds.to_bits()))
        .collect();
    assert_eq!(
        a2,
        [
            (0x4021_14ce_8b0a_5713, 0x408a_c207_f7d3_8bae),
            (0x408a_98c0_29d4_f6ce, 0x4095_1d03_fbe9_c5d7)
        ]
    );
    let a3 = |pipelined| {
        blocksize_streams(&[256 * 1024], &[8], pipelined)[0]
            .mbyte_per_sec
            .to_bits()
    };
    assert_eq!(
        (a3(false), a3(true)),
        (0x4031_6e92_3ee5_7f2a, 0x408d_43c2_b3e1_f2fa)
    );
}

/// The parallel sweep runner only decides *when* each isolated point runs,
/// never *what* it computes — so the merged output must be bit-identical at
/// 1 worker and at many workers, on any machine.
#[test]
fn parallel_sweep_matches_serial_bitwise() {
    let cfg = production::ProductionConfig::default();
    let counts = [1u32, 4, 16, 64];
    let serial = production::run_fig11_with_threads(&cfg, &counts, 1);
    let parallel = production::run_fig11_with_threads(&cfg, &counts, 4);
    assert_eq!(serial.len(), parallel.len());
    for ((rs, ws), (rp, wp)) in serial.iter().zip(&parallel) {
        assert_eq!(rs.seconds.to_bits(), rp.seconds.to_bits());
        assert_eq!(ws.seconds.to_bits(), wp.seconds.to_bits());
        assert_eq!((rs.bytes, &rs.counters), (rp.bytes, &rp.counters));
        assert_eq!((ws.bytes, &ws.counters), (wp.bytes, &wp.counters));
    }

    let ds = recovery::disk_failure_during_sweep_with_threads(31, 1);
    let dp = recovery::disk_failure_during_sweep_with_threads(31, 2);
    assert_eq!(ds.seconds.to_bits(), dp.seconds.to_bits());
    assert_eq!(ds.baseline_seconds.to_bits(), dp.baseline_seconds.to_bits());
    assert_eq!(ds.counters, dp.counters);
}

/// A chaos storm — progress-keyed fault injection, timeout/backoff retries,
/// failover and manager WAL recovery all at once — must replay bit-for-bit:
/// the same `ChaosSpec` + seed yields an identical `StormReport` (op
/// fingerprint, tree fingerprint and every recovery counter) across
/// repeated runs and across sweep-thread counts.
#[test]
fn chaos_storm_bit_identical_across_runs_and_threads() {
    use globalfs::scenarios::{chaos, metadata_storm};
    let cfg = metadata_storm::StormConfig::small();
    let spec = chaos::canonical_chaos(&cfg, SimDuration::from_millis(400));
    let serial = metadata_storm::run_chaos_storm_with_threads(&cfg, &spec, 1);
    let threaded = metadata_storm::run_chaos_storm_with_threads(&cfg, &spec, 8);
    assert_eq!(serial, threaded);
    assert_eq!(
        threaded,
        metadata_storm::run_chaos_storm_with_threads(&cfg, &spec, 8)
    );
    // Counters prove the replayed run really took faults and recovered.
    let faults = serial.counters.get("faults.injected");
    assert!(faults >= 2, "faults {faults}");
    assert!(serial.counters.get("faults.timeouts") > 0, "no RPC ever saw the outages");
    assert_eq!(serial.gave_up, 0);
}

#[test]
fn different_seeds_differ_where_jitter_applies() {
    let mut cfg = sc04::Sc04Config::default();
    let a = sc04::run(cfg.clone());
    cfg.seed += 1;
    let b = sc04::run(cfg);
    // Jittered link capacities depend on the seed; the series must differ
    // (while the steady-state mean stays in the same band).
    assert_ne!(a.aggregate.points, b.aggregate.points);
    assert!((a.aggregate_steady.mean - b.aggregate_steady.mean).abs() < 1.5);
}
