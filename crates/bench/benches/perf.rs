//! Wall-clock performance harness — runs the heaviest end-to-end scenarios
//! (the Fig. 11 production sweep, the SC'04 bandwidth challenge, and the
//! recovery trio) under `std::time::Instant`, reports runtime and
//! events/second for each, and re-checks the headline paper verdicts so a
//! performance change that silently alters simulated results fails loudly.
//!
//! Besides the console table, the harness writes a machine-readable
//! `BENCH_perf.json` at the repository root; `ci.sh` runs this bench as its
//! perf smoke stage and fails if any verdict regresses from `[OK ]`.

use gfs::cache::DentryCache;
use gfs::fscore::{DataMode, FsConfig, FsCore};
use gfs::types::{FsId, Owner};
use gfs_bench::{header, table, verdict};
use scenarios::builder::DataPathStats;
use scenarios::metadata_storm::{run_storm, run_storm_with_threads, StormConfig};
use scenarios::production::{run_fig11, ProductionConfig};
use scenarios::recovery::{
    crash_one_of_n, disk_failure_during_sweep, link_flap_during_enzo, CrashConfig,
};
use scenarios::sc04::{self, Sc04Config};
use simcore::SimDuration;
use std::time::Instant;

/// One timed scenario plus its pass/fail checks.
struct Entry {
    name: &'static str,
    wall_seconds: f64,
    events: u64,
    /// (metric, paper value, measured value, relative tolerance)
    checks: Vec<(&'static str, f64, f64, f64)>,
    /// Page-pool and NSD coalescing counters summed over the scenario's
    /// worlds.
    data_path: DataPathStats,
    /// Scenario-specific extra numbers, emitted as a `"metadata"` JSON
    /// object when non-empty.
    extra: Vec<(&'static str, f64)>,
}

impl Entry {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds.max(1e-9)
    }

    fn all_ok(&self) -> bool {
        self.checks
            .iter()
            .all(|(_, paper, measured, tol)| (measured - paper).abs() / paper.abs() <= *tol)
    }
}

fn time_scenario<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn run_fig11_entry() -> Entry {
    let cfg = ProductionConfig::default();
    let counts = [1u32, 2, 4, 8, 16, 32, 48, 64, 96, 128];
    let (points, wall) = time_scenario(|| run_fig11(&cfg, &counts));
    let events: u64 = points.iter().map(|(r, w)| r.events + w.events).sum();
    let data_path = points
        .iter()
        .fold(DataPathStats::default(), |acc, (r, w)| {
            acc.merged(&r.data_path).merged(&w.data_path)
        });
    let (r128, _) = &points[points.len() - 1];
    Entry {
        name: "fig11 production sweep (1..128 nodes, r+w)",
        wall_seconds: wall,
        events,
        checks: vec![(
            "read plateau (GB/s)",
            5.9,
            r128.aggregate_gbyte_per_sec(),
            0.08,
        )],
        data_path,
        extra: vec![],
    }
}

fn run_sc04_entry() -> Entry {
    let (r, wall) = time_scenario(|| sc04::run(Sc04Config::default()));
    Entry {
        name: "sc04 bandwidth challenge (600 s)",
        wall_seconds: wall,
        events: r.events,
        checks: vec![
            ("aggregate rate (Gb/s)", 24.0, r.aggregate_steady.mean, 0.08),
            ("momentary peak (Gb/s)", 27.0, r.peak_gbs, 0.08),
        ],
        data_path: r.data_path,
        extra: vec![],
    }
}

fn run_recovery_entry() -> Entry {
    // The three scenarios are independent seeded worlds, so they run as
    // parallel sweep points; the wall clock measures the whole fan-out.
    let (reports, wall) = time_scenario(|| {
        let mut slots = (None, None, None);
        std::thread::scope(|scope| {
            scope.spawn(|| slots.0 = Some(crash_one_of_n(&CrashConfig::default())));
            scope.spawn(|| slots.1 = Some(link_flap_during_enzo(21, SimDuration::from_secs(5))));
            scope.spawn(|| slots.2 = Some(disk_failure_during_sweep(31)));
        });
        (
            slots.0.expect("crash report"),
            slots.1.expect("flap report"),
            slots.2.expect("disk report"),
        )
    });
    let (crash, flap, disk) = &reports;
    // Booleans become 0/1 checks against 1.0 so they flow through the same
    // verdict machinery as the throughput numbers.
    let as_num = |b: bool| if b { 1.0 } else { 0.0 };
    Entry {
        name: "recovery trio (crash + flap + disk)",
        wall_seconds: wall,
        events: crash.events + flap.events + disk.events,
        checks: vec![
            ("crash write completed", 1.0, as_num(crash.completed == 1), 0.0),
            ("crash read-back intact", 1.0, as_num(crash.data_intact), 0.0),
            ("flap campaign completed", 1.0, as_num(flap.completed), 0.0),
            ("disk sweep completed", 1.0, as_num(disk.completed), 0.0),
            ("disk degraded reads served", 1.0, as_num(disk.degraded_reads > 0), 0.0),
        ],
        data_path: crash.data_path.merged(&flap.data_path).merged(&disk.data_path),
        extra: vec![],
    }
}

fn run_metadata_storm_entry() -> Entry {
    let cfg = StormConfig::default();
    let (r, wall) = time_scenario(|| run_storm(&cfg));
    let as_num = |b: bool| if b { 1.0 } else { 0.0 };
    Entry {
        name: "metadata storm (8 pts x 32 clients, ~1M ops)",
        wall_seconds: wall,
        events: r.events,
        checks: vec![
            ("storm ops >= 1e6", 1.0, as_num(r.ops >= 1_000_000), 0.0),
            ("storm fsck clean", 1.0, as_num(r.fsck_clean), 0.0),
            ("dentry hit rate > 5%", 1.0, as_num(r.dentry_hit_rate() > 0.05), 0.0),
        ],
        data_path: r.data_path,
        extra: vec![
            ("metadata_ops", r.ops as f64),
            ("metadata_ops_per_sec", r.ops as f64 / wall.max(1e-9)),
            ("metadata_errors", r.errors as f64),
            ("dentry_hit_rate", r.dentry_hit_rate()),
            ("interned_names", r.interned_names as f64),
            ("resolves", r.resolves as f64),
            ("resolve_alloc_bytes", r.resolve_alloc_bytes as f64),
        ],
    }
}

/// The flyweight-session storm: 100k+ sessions multiplexed over 256 mount
/// contexts (8 points x 32 contexts x 400 sessions) firing ~10M metadata
/// ops through the manager RPC fan-in path. The timed run uses the default
/// sweep-thread count; a second single-threaded run must produce a
/// bit-identical report, which is the determinism half of the headline
/// claim (the throughput half is the >1M ops/sec gate in `ci.sh`).
fn run_storm_100k_entry() -> Entry {
    let cfg = StormConfig::massive();
    let (parallel, parallel_wall) = time_scenario(|| run_storm(&cfg));
    let (serial, serial_wall) = time_scenario(|| run_storm_with_threads(&cfg, 1));
    let bit_identical = serial == parallel;
    if !bit_identical {
        eprintln!(
            "storm_100k: serial/parallel divergence: fp {} vs {}, events {} vs {}",
            serial.fingerprint, parallel.fingerprint, serial.events, parallel.events
        );
    }
    let as_num = |b: bool| if b { 1.0 } else { 0.0 };
    Entry {
        name: "storm 100k sessions (8 pts x 12.8k sess, ~10M ops)",
        wall_seconds: parallel_wall + serial_wall,
        events: parallel.events,
        checks: vec![
            ("sessions >= 100k", 1.0, as_num(parallel.sessions >= 100_000), 0.0),
            ("storm ops >= 1e7", 1.0, as_num(parallel.ops >= 10_000_000), 0.0),
            ("storm fsck clean", 1.0, as_num(parallel.fsck_clean), 0.0),
            (
                "fan-in batched (envelopes < ops)",
                1.0,
                as_num(parallel.envelopes > 0 && parallel.envelopes < parallel.envelope_ops),
                0.0,
            ),
            ("1-thread == n-thread", 1.0, as_num(bit_identical), 0.0),
        ],
        data_path: parallel.data_path,
        extra: vec![
            ("storm100k_sessions", parallel.sessions as f64),
            ("storm100k_ops", parallel.ops as f64),
            // The headline rate is *modeled* cluster throughput: storm ops
            // over the slowest point's simulated duration, with the manager
            // service charge (`manager_op_service`) as the bottleneck. It is
            // deterministic — identical on any host and thread count —
            // which is what lets ci.sh gate on it. Host wall rate rides
            // along as observability only.
            ("storm100k_ops_per_sec", parallel.sim_ops_per_sec()),
            ("storm100k_sim_seconds", parallel.sim_ns as f64 / 1e9),
            ("storm100k_wall_ops_per_sec", parallel.ops as f64 / parallel_wall.max(1e-9)),
            ("storm100k_envelopes", parallel.envelopes as f64),
            ("storm100k_envelope_ops", parallel.envelope_ops as f64),
            (
                "storm100k_ops_per_envelope",
                parallel.envelope_ops as f64 / (parallel.envelopes as f64).max(1.0),
            ),
            ("storm100k_errors", parallel.errors as f64),
            ("storm100k_gave_up", parallel.gave_up as f64),
            ("storm100k_serial_wall_seconds", serial_wall),
        ],
    }
}

/// The partitioned storm: the same massive flyweight workload served by
/// four cooperating namespace-manager shards (top-level subtrees spread
/// round-robin, cross-top renames running as two-phase envelope ops). The
/// headline claim is modeled throughput: with four manager queues draining
/// in parallel, storm ops/sec must reach at least 3x the single-manager
/// rate measured by `run_storm_100k_entry` — while staying fsck-clean,
/// exactly-once (`gave_up == 0`) and bit-identical across thread counts.
fn run_storm_partitioned_entry(single_ops_per_sec: f64) -> Entry {
    let cfg = StormConfig::massive().with_managers(4);
    let (parallel, parallel_wall) = time_scenario(|| run_storm(&cfg));
    let (serial, serial_wall) = time_scenario(|| run_storm_with_threads(&cfg, 1));
    let bit_identical = serial == parallel;
    if !bit_identical {
        eprintln!(
            "storm_partitioned: serial/parallel divergence: fp {} vs {}, events {} vs {}",
            serial.fingerprint, parallel.fingerprint, serial.events, parallel.events
        );
    }
    let speedup = parallel.sim_ops_per_sec() / single_ops_per_sec.max(1e-9);
    let as_num = |b: bool| if b { 1.0 } else { 0.0 };
    Entry {
        name: "storm partitioned (massive, M=4 manager shards)",
        wall_seconds: parallel_wall + serial_wall,
        events: parallel.events,
        checks: vec![
            ("storm fsck clean", 1.0, as_num(parallel.fsck_clean), 0.0),
            ("no op gave up", 1.0, as_num(parallel.gave_up == 0), 0.0),
            (
                "cross-shard ops exercised",
                1.0,
                as_num(parallel.cross_shard_ops > 0),
                0.0,
            ),
            ("1-thread == n-thread", 1.0, as_num(bit_identical), 0.0),
            (">= 3x single-manager rate", 1.0, as_num(speedup >= 3.0), 0.0),
        ],
        data_path: parallel.data_path,
        extra: vec![
            ("storm_part_ops", parallel.ops as f64),
            // Modeled cluster throughput, same definition as storm100k:
            // deterministic, host-independent, ci.sh's gating quantity.
            ("storm_part_ops_per_sec", parallel.sim_ops_per_sec()),
            ("storm_part_sim_seconds", parallel.sim_ns as f64 / 1e9),
            ("storm_part_speedup_vs_single", speedup),
            ("storm_part_cross_shard_ops", parallel.cross_shard_ops as f64),
            ("storm_part_delegated_ops", parallel.delegated_ops as f64),
            ("storm_part_envelopes", parallel.envelopes as f64),
            ("storm_part_envelope_ops", parallel.envelope_ops as f64),
            ("storm_part_ops_per_envelope", parallel.ops_per_envelope()),
            ("storm_part_lease_acquires", parallel.lease_acquires as f64),
            ("storm_part_lease_breaks", parallel.lease_breaks as f64),
            ("storm_part_reconcile_ops", parallel.reconcile_ops as f64),
            (
                "storm_part_rebalance_migrations",
                parallel.rebalance_migrations as f64,
            ),
            ("storm_part_errors", parallel.errors as f64),
            ("storm_part_err_not_found", parallel.err_not_found as f64),
            ("storm_part_err_exists", parallel.err_exists as f64),
            ("storm_part_err_races", parallel.err_races as f64),
            ("storm_part_gave_up", parallel.gave_up as f64),
            (
                "storm_part_wall_ops_per_sec",
                parallel.ops as f64 / parallel_wall.max(1e-9),
            ),
        ],
    }
}

/// The chaos smoke: the same storm workload run under each fault class —
/// an NSD crash mid-race, a WAN flap severing every client, and a
/// namespace-manager kill/restart checked against its fault-free oracle.
/// Verdicts pin the invariants (clean fsck, zero exhausted retry budgets,
/// zero world-invariant violations, oracle-identical recovery); the extra
/// metrics publish per-fault-class throughput into BENCH_perf.json.
fn run_chaos_entry() -> Entry {
    use scenarios::chaos::{check_chaos_storm, check_manager_recovery};
    use scenarios::metadata_storm::ChaosSpec;
    use gfs::faults::ProgressPlan;

    let cfg = StormConfig {
        points: 4,
        clients_per_point: 16,
        top_dirs: 8,
        sub_dirs: 8,
        files_per_sub: 128,
        ops_per_client: 96,
        ..StormConfig::default()
    };
    let outage = SimDuration::from_millis(400);
    let crash_spec = ChaosSpec {
        progress: ProgressPlan::new().server_crash_at_op(
            cfg.race_op_at(0.4),
            FsId(0),
            "meta-srv1",
            Some(outage),
        ),
        timed: Default::default(),
        wan_clients: false,
    };
    let flap_spec = ChaosSpec {
        progress: ProgressPlan::new().link_flap_at_op(cfg.race_op_at(0.7), "storm-wan", outage),
        timed: Default::default(),
        wan_clients: true,
    };

    let (healthy, healthy_wall) = time_scenario(|| run_storm(&cfg));
    let (crash, crash_wall) = time_scenario(|| check_chaos_storm(&cfg, &crash_spec));
    let (flap, flap_wall) = time_scenario(|| check_chaos_storm(&cfg, &flap_spec));
    let (mgr, mgr_wall) =
        time_scenario(|| check_manager_recovery(&cfg, 0.5, SimDuration::from_millis(600)));

    for v in crash.violations.iter().chain(&flap.violations).chain(&mgr.violations) {
        eprintln!("chaos smoke: invariant violated: {v}");
    }
    let as_num = |b: bool| if b { 1.0 } else { 0.0 };
    let ops_per_sec = |ops: u64, wall: f64| ops as f64 / wall.max(1e-9);
    Entry {
        name: "chaos storm smoke (crash / flap / manager kill)",
        wall_seconds: healthy_wall + crash_wall + flap_wall + mgr_wall,
        events: healthy.events + crash.report.events + flap.report.events + mgr.chaos.events,
        checks: vec![
            ("crash storm invariants clean", 1.0, as_num(crash.is_clean()), 0.0),
            ("flap storm invariants clean", 1.0, as_num(flap.is_clean()), 0.0),
            ("manager recovery == oracle", 1.0, as_num(mgr.is_clean()), 0.0),
            (
                "faults actually injected",
                1.0,
                as_num(crash.report.faults_injected > 0 && flap.report.faults_injected > 0),
                0.0,
            ),
        ],
        data_path: healthy
            .data_path
            .merged(&crash.report.data_path)
            .merged(&flap.report.data_path),
        extra: vec![
            ("chaos_healthy_ops_per_sec", ops_per_sec(healthy.ops, healthy_wall)),
            // check_chaos_storm runs the storm twice (1 + 8 threads).
            ("chaos_crash_ops_per_sec", ops_per_sec(2 * crash.report.ops, crash_wall)),
            ("chaos_flap_ops_per_sec", ops_per_sec(2 * flap.report.ops, flap_wall)),
            ("chaos_mgr_kill_ops_per_sec", ops_per_sec(2 * mgr.chaos.ops, mgr_wall)),
            ("chaos_timeouts", (crash.report.timeouts + flap.report.timeouts + mgr.chaos.timeouts) as f64),
            ("chaos_failovers", (crash.report.failovers + flap.report.failovers + mgr.chaos.failovers) as f64),
            ("chaos_wal_replayed", mgr.chaos.wal_replayed as f64),
            ("chaos_manager_epochs", mgr.chaos.manager_epochs as f64),
            (
                "chaos_gave_up",
                (crash.report.gave_up + flap.report.gave_up + mgr.chaos.gave_up) as f64,
            ),
        ],
    }
}

/// The pre-interning metadata core, frozen here as the microbench baseline:
/// directories own `String` keys in a `BTreeMap` and every resolution
/// allocates a component vector. This is a measurement fixture, not a
/// reference implementation (the equivalence oracle lives in
/// `gfs::fscore::tests`).
mod oldfs {
    use std::collections::BTreeMap;

    pub enum Kind {
        File,
        Dir { entries: BTreeMap<String, u64> },
    }

    pub struct OldFs {
        inodes: Vec<Kind>,
    }

    fn split_path(path: &str) -> Result<Vec<&str>, ()> {
        if !path.starts_with('/') {
            return Err(());
        }
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        if comps.iter().any(|c| *c == "." || *c == "..") {
            return Err(());
        }
        Ok(comps)
    }

    impl OldFs {
        pub fn new() -> Self {
            OldFs {
                inodes: vec![Kind::Dir {
                    entries: BTreeMap::new(),
                }],
            }
        }

        pub fn lookup(&self, path: &str) -> Result<u64, ()> {
            let comps = split_path(path)?;
            let mut cur = 0u64;
            for comp in comps {
                match &self.inodes[cur as usize] {
                    Kind::Dir { entries } => cur = *entries.get(comp).ok_or(())?,
                    Kind::File => return Err(()),
                }
            }
            Ok(cur)
        }

        fn insert(&mut self, path: &str, kind: Kind) -> u64 {
            let comps = split_path(path).expect("bench path");
            let (name, parents) = comps.split_last().expect("non-root");
            let mut cur = 0u64;
            for comp in parents {
                match &self.inodes[cur as usize] {
                    Kind::Dir { entries } => cur = entries[*comp],
                    Kind::File => panic!("file in the middle of a bench path"),
                }
            }
            let id = self.inodes.len() as u64;
            self.inodes.push(kind);
            match &mut self.inodes[cur as usize] {
                Kind::Dir { entries } => entries.insert(name.to_string(), id),
                Kind::File => unreachable!(),
            };
            id
        }

        pub fn mkdir(&mut self, path: &str) {
            self.insert(
                path,
                Kind::Dir {
                    entries: BTreeMap::new(),
                },
            );
        }

        pub fn create_file(&mut self, path: &str) {
            self.insert(path, Kind::File);
        }
    }
}

/// Resolve-heavy microbench: the same deep, wide namespace built in the
/// interned core and in the frozen string-walk baseline, then the same
/// lookup storm timed against both. The ISSUE's headline claim is a >= 10x
/// speedup on warm resolution.
fn run_resolve_microbench_entry() -> Entry {
    const DEPTH: usize = 6;
    const SIBLINGS: u32 = 512;
    const ROUNDS: usize = 400;

    let mut new_fs = FsCore::create(FsConfig {
        name: "micro".into(),
        block_size: 64 * 1024,
        nsd_blocks: 1 << 16,
        nsd_count: 4,
        data_mode: DataMode::Synthetic,
    });
    let mut old_fs = oldfs::OldFs::new();
    let owner = Owner::local(0, 0);

    // A chain of directories /d0/d0d1/... with SIBLINGS files at each level,
    // so every BTreeMap the baseline walks is genuinely populated.
    let mut dir = String::new();
    let mut leaf_paths: Vec<String> = Vec::new();
    for level in 0..DEPTH {
        dir.push_str(&format!("/level{level:02}"));
        new_fs.mkdir(&dir, owner.clone(), 0).expect("bench mkdir");
        old_fs.mkdir(&dir);
        for f in 0..SIBLINGS {
            let p = format!("{dir}/file{f:04}");
            new_fs.create_file(&p, owner.clone(), 0).expect("bench create");
            old_fs.create_file(&p);
            if level == DEPTH - 1 {
                leaf_paths.push(p);
            }
        }
    }

    let fs_id = FsId(0);
    let mut dentry = DentryCache::new();
    // Warm both sides once so the timed region measures steady state.
    for p in &leaf_paths {
        new_fs.lookup_via(fs_id, &mut dentry, p).expect("warm new");
        old_fs.lookup(p).expect("warm old");
    }

    // Best-of-3 per side: the warm interned walk finishes in milliseconds,
    // so a single sample is at the mercy of transient CI-box load; the
    // minimum is the standard stable estimator for a fixed-work region.
    let mut sink = 0u64;
    let mut best = |f: &mut dyn FnMut() -> u64| {
        (0..3)
            .map(|_| {
                let (s, wall) = time_scenario(&mut *f);
                sink = sink.wrapping_add(s);
                wall
            })
            .fold(f64::INFINITY, f64::min)
    };
    let old_wall = best(&mut || {
        let mut s = 0u64;
        for _ in 0..ROUNDS {
            for p in &leaf_paths {
                s = s.wrapping_add(old_fs.lookup(p).expect("old lookup"));
            }
        }
        s
    });
    let new_wall = best(&mut || {
        let mut s = 0u64;
        for _ in 0..ROUNDS {
            for p in &leaf_paths {
                s = s.wrapping_add(new_fs.lookup_via(fs_id, &mut dentry, p).expect("new lookup").0);
            }
        }
        s
    });
    std::hint::black_box(sink);

    let lookups = (ROUNDS * leaf_paths.len()) as u64;
    let speedup = old_wall / new_wall.max(1e-12);
    let as_num = |b: bool| if b { 1.0 } else { 0.0 };
    Entry {
        name: "resolve microbench (interned+dentry vs string walk)",
        wall_seconds: old_wall + new_wall,
        events: lookups * 2,
        checks: vec![("resolve speedup >= 10x", 1.0, as_num(speedup >= 10.0), 0.0)],
        data_path: DataPathStats::default(),
        extra: vec![
            ("lookups_per_side", lookups as f64),
            ("old_wall_seconds", old_wall),
            ("new_wall_seconds", new_wall),
            ("resolve_speedup", speedup),
            (
                "new_lookups_per_sec",
                lookups as f64 / new_wall.max(1e-12),
            ),
        ],
    }
}

/// The worldwide replication campaign: a multi-TB NVO catalog fans out to
/// three remote sites over GridFTP while two read cohorts measure the same
/// hot set single-homed and replicated, a write invalidates every copy
/// mid-campaign, and arriving bulk replicas migrate disk -> tape through
/// the cold tier. Gates: replicated reads >= 2x the single-home rate in
/// the same run, zero stale replica serves, migration exercised, clean
/// fsck + world invariants, and a bit-identical report at 1 vs N sweep
/// threads.
fn run_replication_entry() -> Entry {
    use scenarios::replication::{run_campaign, run_campaign_with_threads, ReplicationConfig};

    let cfg = ReplicationConfig::default();
    let (parallel, parallel_wall) = time_scenario(|| run_campaign(&cfg));
    let (serial, serial_wall) = time_scenario(|| run_campaign_with_threads(&cfg, 1));
    let bit_identical = serial == parallel;
    if !bit_identical {
        eprintln!("replication: serial/parallel campaign reports diverge");
    }

    let sum = |f: fn(&scenarios::replication::CampaignReport) -> u64| -> u64 {
        parallel.iter().map(f).sum()
    };
    let min_speedup = parallel
        .iter()
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    let mean_home_rate =
        parallel.iter().map(|r| r.home_rate()).sum::<f64>() / parallel.len().max(1) as f64;
    let mean_replica_rate =
        parallel.iter().map(|r| r.replica_rate()).sum::<f64>() / parallel.len().max(1) as f64;
    let mean_pick_ms =
        parallel.iter().map(|r| r.mean_pick_ms()).sum::<f64>() / parallel.len().max(1) as f64;
    let campaign_tb = sum(|r| r.campaign_bytes) as f64 / 1e12;
    let clean = parallel.iter().all(|r| r.is_clean());
    let data_path = parallel
        .iter()
        .fold(DataPathStats::default(), |acc, r| acc.merged(&r.data_path));

    let as_num = |b: bool| if b { 1.0 } else { 0.0 };
    Entry {
        name: "replication campaign (3 sites, hot set + bulk tier)",
        wall_seconds: parallel_wall + serial_wall,
        events: sum(|r| r.events),
        checks: vec![
            ("replica read speedup >= 2x", 1.0, as_num(min_speedup >= 2.0), 0.0),
            ("zero stale replica serves", 1.0, as_num(sum(|r| r.stale_reads) == 0), 0.0),
            ("tier migration exercised", 1.0, as_num(sum(|r| r.migrated_bytes) > 0), 0.0),
            ("fsck + invariants clean", 1.0, as_num(clean), 0.0),
            ("1-thread == n-thread", 1.0, as_num(bit_identical), 0.0),
        ],
        data_path,
        extra: vec![
            ("replica_read_speedup", min_speedup),
            ("replica_home_rate_mb_s", mean_home_rate / 1e6),
            ("replica_rate_mb_s", mean_replica_rate / 1e6),
            ("replica_campaign_tb", campaign_tb),
            ("replica_installs", sum(|r| r.installs) as f64),
            ("replica_invalidations", sum(|r| r.invalidations) as f64),
            ("replica_stale_reads", sum(|r| r.stale_reads) as f64),
            ("replica_stale_fallbacks", sum(|r| r.stale_fallbacks) as f64),
            ("replica_migrated_bytes", sum(|r| r.migrated_bytes) as f64),
            ("replica_replicated_bytes", sum(|r| r.replicated_bytes) as f64),
            ("replica_split_fanouts", sum(|r| r.split_fanouts) as f64),
            ("replica_remote_picks", sum(|r| r.remote_picks) as f64),
            ("replica_home_picks", sum(|r| r.home_picks) as f64),
            ("replica_catalog_hits", sum(|r| r.catalog_hits) as f64),
            ("replica_catalog_misses", sum(|r| r.catalog_misses) as f64),
            ("replica_current_copies", sum(|r| r.current_copies) as f64),
            ("replica_mean_pick_ms", mean_pick_ms),
        ],
    }
}

/// Trace replay + oracle differential: the three captured-trace corpora
/// (untar/build tree, NVO catalog scan, Enzo checkpoint cadence) replayed
/// through the full session stack at M=1 and M=4 manager shards — leases
/// and the replica catalog on — under healthy, manager-kill, NSD-crash and
/// partition schedules, every op differenced against the in-memory model
/// filesystem. Verdicts pin zero op-level divergence, zero exhausted retry
/// budgets and oracle-identical final trees across all 27 replays; the
/// extras publish corpus sizes and replay throughput into BENCH_perf.json.
fn run_trace_replay_entry() -> Entry {
    use scenarios::trace::{check_trace_differential, TraceCorpus};

    let (verdicts, wall) = time_scenario(|| {
        TraceCorpus::ALL.map(|c| (c, check_trace_differential(c)))
    });
    for (c, v) in &verdicts {
        for viol in &v.violations {
            eprintln!("trace replay [{}]: {viol}", c.name());
        }
    }
    let sum = |f: fn(&scenarios::trace::ReplayReport) -> u64| -> u64 {
        verdicts
            .iter()
            .flat_map(|(_, v)| v.reports.iter().map(|(_, r)| r))
            .map(f)
            .sum()
    };
    let total_ops: u64 = verdicts.iter().map(|(_, v)| v.total_ops()).sum();
    // Modeled replay rate: ops over simulated time, summed over every
    // schedule — deterministic on any host, like the storm gates.
    let sim_seconds: f64 = verdicts
        .iter()
        .flat_map(|(_, v)| v.reports.iter())
        .map(|(_, r)| r.sim_ns as f64 / 1e9)
        .sum();
    let replays: usize = verdicts.iter().map(|(_, v)| v.reports.len()).sum();
    let all_clean = verdicts.iter().all(|(_, v)| v.is_clean());

    let as_num = |b: bool| if b { 1.0 } else { 0.0 };
    let mut extra = vec![
        ("trace_replays", replays as f64),
        ("trace_ops", total_ops as f64),
        ("trace_ops_per_sec", total_ops as f64 / wall.max(1e-9)),
        ("trace_sim_ops_per_sec", total_ops as f64 / sim_seconds.max(1e-12)),
        ("trace_divergences", sum(|r| r.divergences) as f64),
        ("trace_gave_up", sum(|r| r.gave_up) as f64),
        ("trace_faults_injected", sum(|r| r.faults_injected) as f64),
        ("trace_lease_acquires", sum(|r| r.lease_acquires) as f64),
        ("trace_replica_remote_picks", sum(|r| r.replica_remote_picks) as f64),
    ];
    for (c, _) in &verdicts {
        // One size per corpus (the generated op count a single replay sees),
        // keyed by corpus name so EXPERIMENTS.md can quote them directly.
        let ops = c.generate(4, 2, 2005).len() as f64;
        extra.push(match c {
            TraceCorpus::UntarBuild => ("trace_corpus_untar_build_ops", ops),
            TraceCorpus::NvoScan => ("trace_corpus_nvo_scan_ops", ops),
            TraceCorpus::EnzoCheckpoint => ("trace_corpus_enzo_checkpoint_ops", ops),
        });
    }
    Entry {
        name: "trace replay differential (3 corpora, M=1/4, 4 schedules)",
        wall_seconds: wall,
        events: sum(|r| r.events),
        checks: vec![
            ("zero oracle divergence", 1.0, as_num(sum(|r| r.divergences) == 0), 0.0),
            ("zero exhausted retries", 1.0, as_num(sum(|r| r.gave_up) == 0), 0.0),
            ("all verdicts clean", 1.0, as_num(all_clean), 0.0),
            (
                "faults actually injected",
                1.0,
                as_num(sum(|r| r.faults_injected) > 0),
                0.0,
            ),
        ],
        data_path: DataPathStats::default(),
        extra,
    }
}

/// The flow engine alone, on a LAN star shaped like the metadata
/// workloads' NSD traffic: 32 client NICs at 1 Gb/s and 4 server NICs on
/// one switch, 16 MiB windows (far above the LAN's bandwidth-delay
/// product, so no flow is window-capped and every flow shares one
/// LAN-wide component), ~400 flows of 64 KiB in flight in both
/// directions, each restarted on drain, for a fixed number of starts.
/// Every start and every drain changes the flow set and costs a re-solve.
fn run_flow_engine_entry() -> Entry {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simcore::{Bandwidth, Sim};
    use simnet::{FlowSpec, NetWorld, Network, NodeId, TopologyBuilder};

    const CLIENTS: usize = 32;
    const SERVERS: usize = 4;
    const IN_FLIGHT: u64 = 400;
    const STARTS: u64 = 60_000;
    const BYTES: u64 = 64 * 1024;
    const WINDOW: u64 = 16 << 20;

    struct Lan {
        net: Network<Lan>,
        clients: Vec<NodeId>,
        servers: Vec<NodeId>,
        rng: StdRng,
        starts: u64,
        drains: u64,
    }
    impl NetWorld for Lan {
        fn net(&mut self) -> &mut Network<Lan> {
            &mut self.net
        }
    }
    /// Start one NSD-sized flow between a random client and server, in a
    /// random direction; its drain starts the next one.
    fn start(sim: &mut Sim<Lan>, w: &mut Lan) {
        if w.starts == STARTS {
            return;
        }
        w.starts += 1;
        let c = w.clients[w.rng.gen_range(0..=CLIENTS - 1)];
        let s = w.servers[w.rng.gen_range(0..=SERVERS - 1)];
        let (src, dst) = if w.rng.gen::<f64>() < 0.5 {
            (s, c)
        } else {
            (c, s)
        };
        let spec = FlowSpec::bulk(src, dst, BYTES).with_window(WINDOW);
        Network::start_flow(sim, w, spec, |sim, w| {
            w.drains += 1;
            start(sim, w);
        });
    }

    let mut b = TopologyBuilder::new();
    let sw = b.node("switch");
    let mut star = |name: String, delay_us: u64| {
        let n = b.node(name.clone());
        let delay = SimDuration::from_micros(delay_us);
        b.duplex_link(n, sw, Bandwidth::gbit(1.0), delay, format!("nic-{name}"));
        n
    };
    let clients = (0..CLIENTS)
        .map(|i| star(format!("client{i}"), 100))
        .collect();
    let servers = (0..SERVERS)
        .map(|i| star(format!("server{i}"), 50))
        .collect();
    let mut sim = Sim::new();
    let mut w = Lan {
        net: Network::new(b.build(), 7),
        clients,
        servers,
        rng: StdRng::seed_from_u64(0x10_57a4),
        starts: 0,
        drains: 0,
    };
    let ((), wall) = time_scenario(|| {
        for _ in 0..IN_FLIGHT {
            start(&mut sim, &mut w);
        }
        sim.run(&mut w);
    });

    let (solves, solved_flows) = w.net.solve_stats();
    let flow_events = w.starts + w.drains;
    let mean_flows_per_solve = solved_flows as f64 / solves.max(1) as f64;
    let as_num = |b: bool| if b { 1.0 } else { 0.0 };
    Entry {
        name: "flow engine (LAN star, 32+4 NICs, ~400 x 64 KiB flows)",
        wall_seconds: wall,
        events: sim.executed(),
        checks: vec![
            (
                "every flow drained, every byte delivered",
                1.0,
                as_num(w.drains == STARTS && w.net.total_delivered() == STARTS * BYTES),
                0.0,
            ),
            (
                "flows share one LAN-wide component (>= 100 per solve)",
                1.0,
                as_num(mean_flows_per_solve >= 100.0),
                0.0,
            ),
        ],
        data_path: DataPathStats::default(),
        extra: vec![
            ("flow_starts", w.starts as f64),
            ("flow_events", flow_events as f64),
            ("flow_events_per_sec", flow_events as f64 / wall.max(1e-9)),
            ("solves", solves as f64),
            ("mean_flows_per_solve", mean_flows_per_solve),
        ],
    }
}

/// Minimal JSON string escape — names here are ASCII identifiers, but stay
/// correct if one ever grows a quote.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_json(entries: &[Entry]) -> std::io::Result<()> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    let mut body = String::from("{\n  \"scenarios\": [\n");
    for (i, e) in entries.iter().enumerate() {
        body.push_str("    {\n");
        body.push_str(&format!("      \"name\": {},\n", json_str(e.name)));
        body.push_str(&format!("      \"wall_seconds\": {:.6},\n", e.wall_seconds));
        body.push_str(&format!("      \"events\": {},\n", e.events));
        body.push_str(&format!(
            "      \"events_per_sec\": {:.1},\n",
            e.events_per_sec()
        ));
        body.push_str(&format!("      \"ok\": {},\n", e.all_ok()));
        let d = &e.data_path;
        body.push_str(&format!(
            "      \"data_path\": {{\"pool_hits\": {}, \"pool_misses\": {}, \"pool_hit_rate\": {:.4}, \"pool_evictions\": {}, \"pool_bypass\": {}, \"pool_bypass_bytes\": {}, \"mean_bypass_bytes\": {:.1}, \"nsd_requests\": {}, \"nsd_coalesced\": {}, \"nsd_blocks\": {}, \"mean_request_bytes\": {:.1}}},\n",
            d.pool_hits,
            d.pool_misses,
            d.hit_rate(),
            d.pool_evictions,
            d.pool_bypass,
            d.pool_bypass_bytes,
            d.mean_bypass_bytes(),
            d.nsd_requests,
            d.nsd_coalesced,
            d.nsd_blocks,
            d.mean_request_bytes(),
        ));
        if !e.extra.is_empty() {
            let fields: Vec<String> = e
                .extra
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_str(k)))
                .collect();
            body.push_str(&format!(
                "      \"metadata\": {{{}}},\n",
                fields.join(", ")
            ));
        }
        body.push_str("      \"checks\": [\n");
        for (j, (metric, paper, measured, tol)) in e.checks.iter().enumerate() {
            body.push_str(&format!(
                "        {{\"metric\": {}, \"paper\": {paper}, \"measured\": {measured}, \"tol\": {tol}}}{}\n",
                json_str(metric),
                if j + 1 < e.checks.len() { "," } else { "" }
            ));
        }
        body.push_str("      ]\n");
        body.push_str(&format!(
            "    }}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    let total_wall: f64 = entries.iter().map(|e| e.wall_seconds).sum();
    let total_events: u64 = entries.iter().map(|e| e.events).sum();
    body.push_str("  ],\n");
    body.push_str(&format!("  \"total_wall_seconds\": {total_wall:.6},\n"));
    body.push_str(&format!("  \"total_events\": {total_events},\n"));
    body.push_str(&format!(
        "  \"all_ok\": {}\n}}\n",
        entries.iter().all(Entry::all_ok)
    ));
    std::fs::write(path, body)
}

fn main() {
    header("Wall-clock performance harness");
    let storm_100k = run_storm_100k_entry();
    // The partitioned storm's 3x gate compares modeled rates measured in
    // the same process: the M=1 massive storm just above is the baseline.
    let single_rate = storm_100k
        .extra
        .iter()
        .find(|(k, _)| *k == "storm100k_ops_per_sec")
        .map(|(_, v)| *v)
        .expect("storm100k entry must publish its modeled rate");
    let entries = [
        run_fig11_entry(),
        run_sc04_entry(),
        run_recovery_entry(),
        run_metadata_storm_entry(),
        storm_100k,
        run_storm_partitioned_entry(single_rate),
        run_chaos_entry(),
        run_replication_entry(),
        run_trace_replay_entry(),
        run_resolve_microbench_entry(),
        run_flow_engine_entry(),
    ];

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.name.to_string(),
                format!("{:.0} ms", e.wall_seconds * 1e3),
                format!("{}", e.events),
                format!("{:.0}", e.events_per_sec()),
            ]
        })
        .collect();
    table(&["scenario", "wall", "events", "events/s"], &rows);

    println!();
    for e in &entries {
        for (metric, paper, measured, tol) in &e.checks {
            verdict(metric, *paper, *measured, *tol);
        }
    }

    match write_json(&entries) {
        Ok(()) => println!("\n  wrote BENCH_perf.json"),
        Err(e) => {
            eprintln!("failed to write BENCH_perf.json: {e}");
            std::process::exit(1);
        }
    }
}
