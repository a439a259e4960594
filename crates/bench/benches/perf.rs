//! Wall-clock performance harness and the perf smoke's one gate table. It
//! runs the heaviest end-to-end scenarios (the Fig. 11 production sweep,
//! the SC'04 bandwidth challenge, the recovery trio, the metadata storms,
//! chaos, replication, the trace differential and two microbenches) under
//! `std::time::Instant`, reports runtime and events/second for each, and
//! checks every claim made of them as one [`Gate`] row: a paper value
//! within a relative tolerance, or a floor or a ceiling on a measured
//! number. A change that silently alters simulated results, or a claim
//! that stops holding, reads `[OFF]`.
//!
//! Besides the console table, the harness writes a machine-readable
//! `BENCH_perf.json` at the repository root; `ci.sh` runs this bench as its
//! perf smoke stage and fails if any row reads `[OFF]`.

use gfs::cache::DentryCache;
use gfs::fscore::{DataMode, FsConfig, FsCore};
use gfs::types::{FsId, Owner};
use gfs::world::Counters;
use gfs_bench::{header, table, Bound, Gate};
use scenarios::metadata_storm::{run_storm, run_storm_with_threads, StormConfig, StormReport};
use scenarios::production::{run_fig11, ProductionConfig};
use scenarios::recovery::{
    crash_one_of_n, disk_failure_during_sweep, link_flap_during_enzo, CrashConfig,
};
use scenarios::sc04::{self, Sc04Config};
use simcore::SimDuration;
use std::time::Instant;

/// One timed scenario plus its gate rows.
struct Entry {
    name: &'static str,
    wall_seconds: f64,
    /// What the events/sec floor divides: a world scenario's
    /// `simcore.events`, a microbench's own count of lookups or flow events.
    events: u64,
    /// The scenario's claims, each a measured number and its bound.
    claims: Vec<Gate>,
    /// Floor on events/sec: deliberately generous (warm steady state is
    /// 4-20x higher on a CI box), so it trips only on an order-of-magnitude
    /// regression, not on scheduler noise or cold caches.
    events_floor: f64,
    /// The counters of every world the scenario's event count covers,
    /// summed; written by name. Empty for the microbenches, which run no
    /// world.
    counters: Counters,
    /// Numbers derived from the run (rates, speed-ups, sizes), emitted as
    /// a `"metadata"` JSON object when non-empty. Counters go in
    /// `counters`, never here.
    extra: Vec<(&'static str, f64)>,
}

impl Entry {
    /// An entry over world runs: its event count is their `simcore.events`.
    fn of_worlds(
        name: &'static str,
        wall_seconds: f64,
        counters: Counters,
        claims: Vec<Gate>,
        events_floor: f64,
        extra: Vec<(&'static str, f64)>,
    ) -> Entry {
        Entry {
            name,
            wall_seconds,
            events: counters.get("simcore.events"),
            claims,
            events_floor,
            counters,
            extra,
        }
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds.max(1e-9)
    }

    /// Every row of the entry: its claims, then its events/sec floor.
    fn gates(&self) -> Vec<Gate> {
        let eps = Gate::floor("events/sec", self.events_floor, self.events_per_sec());
        self.claims.iter().cloned().chain([eps]).collect()
    }

    fn all_ok(&self) -> bool {
        self.gates().iter().all(Gate::ok)
    }
}

fn time_scenario<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn per_sec(n: u64, wall: f64) -> f64 {
    n as f64 / wall.max(1e-9)
}

/// A violation list (an audit's or a verdict's) as a row with a ceiling of
/// 0; each violation goes to stderr.
fn violations(metric: &'static str, found: &[String]) -> Gate {
    for v in found {
        eprintln!("{metric}: {v}");
    }
    Gate::ceiling(metric, 0.0, found.len() as f64)
}

/// The sum of snapshots (the empty snapshot for none).
fn merged<'a>(snapshots: impl IntoIterator<Item = &'a Counters>) -> Counters {
    snapshots.into_iter().fold(Counters::default(), Counters::merged)
}

/// A counter as a gate's measured number.
fn count(c: &Counters, name: &str) -> f64 {
    c.get(name) as f64
}

/// The reports of one run at 1 and at N sweep threads must be
/// bit-identical: the row counts those that differ.
fn thread_mismatches<T: PartialEq>(serial: &[T], parallel: &[T]) -> Gate {
    let differ = serial.iter().zip(parallel).filter(|(s, p)| s != p).count();
    let n = differ + serial.len().abs_diff(parallel.len());
    Gate::ceiling("reports differing, 1 vs N threads", 0.0, n as f64)
}

fn run_fig11_entry() -> Entry {
    let cfg = ProductionConfig::default();
    let counts = [1u32, 2, 4, 8, 16, 32, 48, 64, 96, 128];
    let (points, wall) = time_scenario(|| run_fig11(&cfg, &counts));
    let counters = merged(points.iter().flat_map(|(r, w)| [&r.counters, &w.counters]));
    let (r128, _) = &points[points.len() - 1];
    let plateau = r128.aggregate_gbyte_per_sec();
    Entry::of_worlds(
        "fig11 production sweep (1..128 nodes, r+w)",
        wall,
        counters,
        vec![Gate::paper("read plateau (GB/s)", 5.9, plateau, 0.08)],
        800.0,
        vec![],
    )
}

fn run_sc04_entry() -> Entry {
    let (r, wall) = time_scenario(|| sc04::run(Sc04Config::default()));
    Entry::of_worlds(
        "sc04 bandwidth challenge (600 s)",
        wall,
        r.counters,
        vec![
            Gate::paper("aggregate rate (Gb/s)", 24.0, r.aggregate_steady.mean, 0.08),
            Gate::paper("momentary peak (Gb/s)", 27.0, r.peak_gbs, 0.08),
        ],
        2000.0,
        vec![],
    )
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
    let completed = [crash.completed == 1, flap.completed, disk.completed];
    let corrupt = u8::from(!crash.data_intact);
    Entry::of_worlds(
        "recovery trio (crash + flap + disk)",
        wall,
        merged([&crash.counters, &flap.counters, &disk.counters]),
        vec![
            Gate::floor(
                "runs completed (crash, flap, disk)",
                3.0,
                completed.iter().filter(|&&c| c).count() as f64,
            ),
            Gate::ceiling("crash read-backs not intact", 0.0, f64::from(corrupt)),
            Gate::floor(
                "disk degraded reads served",
                1.0,
                count(&disk.counters, "simsan.degraded_reads"),
            ),
        ],
        1500.0,
        vec![],
    )
}

fn run_metadata_storm_entry() -> Entry {
    let cfg = StormConfig::default();
    let (r, wall) = time_scenario(|| run_storm(&cfg));
    Entry::of_worlds(
        "metadata storm (8 pts x 32 clients, ~1M ops)",
        wall,
        r.counters.clone(),
        vec![
            Gate::floor("storm ops", 1e6, r.ops as f64),
            violations("audit: fsck, gave-up, invariants", &r.audit(false)),
            // The tree-generation phase runs outside the simulator, so
            // events/sec alone would miss a resolution-speed collapse.
            Gate::floor("storm ops/sec (wall)", 50_000.0, per_sec(r.ops, wall)),
        ],
        8000.0,
        vec![
            ("metadata_ops", r.ops as f64),
            ("metadata_ops_per_sec", per_sec(r.ops, wall)),
            ("metadata_errors", r.errors as f64),
        ],
    )
}

/// The flyweight-session storm: 100k+ sessions multiplexed over 256 mount
/// contexts (8 points x 32 contexts x 400 sessions) firing ~10M metadata
/// ops through the manager RPC fan-in path. The timed run uses the default
/// sweep-thread count; a second single-threaded run must produce a
/// bit-identical report. Returns the entry and the timed run's report, the
/// partitioned storm's baseline.
fn run_storm_100k_entry() -> (Entry, StormReport) {
    let cfg = StormConfig::massive();
    let (parallel, parallel_wall) = time_scenario(|| run_storm(&cfg));
    let (serial, serial_wall) = time_scenario(|| run_storm_with_threads(&cfg, 1));
    let c = &parallel.counters;
    let claims = vec![
        Gate::floor("sessions", 100_000.0, count(c, "session.sessions")),
        Gate::floor("storm ops", 1e7, parallel.ops as f64),
        violations("audit: fsck, gave-up, invariants", &parallel.audit(false)),
        // Fan-in batching: fewer envelopes than the ops they carried
        // (and so at least one envelope), or batching has degraded to
        // one message per op.
        Gate::floor(
            "batched ops - envelopes",
            1.0,
            count(c, "session.envelope_ops") - count(c, "session.envelopes"),
        ),
        thread_mismatches(&[&serial], &[&parallel]),
        // The *modeled* cluster rate: storm ops over the slowest
        // point's simulated duration, bottlenecked by the manager's
        // per-op service charge, so the row reads the same on any host.
        Gate::floor("modeled ops/sec", 1e6, parallel.sim_ops_per_sec()),
    ];
    let extra = vec![
        ("storm100k_ops", parallel.ops as f64),
        // Modeled cluster throughput (the gated rate); the host wall
        // rate rides along as observability only.
        ("storm100k_ops_per_sec", parallel.sim_ops_per_sec()),
        ("storm100k_sim_seconds", parallel.sim_ns as f64 / 1e9),
        ("storm100k_wall_ops_per_sec", per_sec(parallel.ops, parallel_wall)),
        ("storm100k_ops_per_envelope", parallel.ops_per_envelope()),
        ("storm100k_errors", parallel.errors as f64),
        ("storm100k_gave_up", parallel.gave_up as f64),
        ("storm100k_serial_wall_seconds", serial_wall),
    ];
    let entry = Entry::of_worlds(
        "storm 100k sessions (8 pts x 12.8k sess, ~10M ops)",
        parallel_wall + serial_wall,
        c.clone(),
        claims,
        1000.0,
        extra,
    );
    (entry, parallel)
}

/// The partitioned storm: the same massive flyweight workload served by
/// four cooperating namespace-manager shards (top-level subtrees spread
/// round-robin, cross-top renames running as two-phase envelope ops), with
/// writeback leases and the live rebalance policy on. The headline claim is
/// modeled throughput: with four manager queues draining in parallel,
/// storm ops/sec must reach at least 3x the rate of `single`, the M=1
/// massive storm measured in the same process.
fn run_storm_partitioned_entry(single: &StormReport) -> Entry {
    let cfg = StormConfig::massive().with_managers(4);
    let (parallel, parallel_wall) = time_scenario(|| run_storm(&cfg));
    let (serial, serial_wall) = time_scenario(|| run_storm_with_threads(&cfg, 1));
    let speedup = parallel.sim_ops_per_sec() / single.sim_ops_per_sec().max(1e-9);
    let wall_rate = per_sec(parallel.ops, parallel_wall);
    let c = &parallel.counters;
    Entry::of_worlds(
        "storm partitioned (massive, M=4 manager shards)",
        parallel_wall + serial_wall,
        c.clone(),
        vec![
            violations("audit: fsck, gave-up, invariants", &parallel.audit(false)),
            // The rename mix must straddle shards, or the two-phase path
            // goes untested.
            Gate::floor("cross-shard ops", 1.0, count(c, "manager.cross_shard_ops")),
            thread_mismatches(&[&serial], &[&parallel]),
            Gate::floor("speedup over one manager (modeled)", 3.0, speedup),
            Gate::floor("modeled ops/sec", 4.8e6, parallel.sim_ops_per_sec()),
            // The per-shard fan-in keeps the partitioned path batched.
            Gate::floor("ops per envelope", 50.0, parallel.ops_per_envelope()),
            // Writeback delegation, its journal reconciliation and the
            // live rebalance policy all fire during the race.
            Gate::floor("delegated ops", 1.0, count(c, "session.delegated_ops")),
            Gate::floor("reconciled journal ops", 1.0, count(c, "manager.reconcile_ops")),
            Gate::floor("rebalance migrations", 1.0, count(c, "manager.migrations")),
            // Batching collapsed this storm's event count ~10x on purpose,
            // so this wall rate, not events/sec, is its regression fence.
            Gate::floor("storm ops/sec (wall)", 130_000.0, wall_rate),
        ],
        6000.0,
        vec![
            ("storm_part_ops", parallel.ops as f64),
            // Modeled cluster throughput, same definition as storm100k.
            ("storm_part_ops_per_sec", parallel.sim_ops_per_sec()),
            ("storm_part_sim_seconds", parallel.sim_ns as f64 / 1e9),
            ("storm_part_speedup_vs_single", speedup),
            ("storm_part_ops_per_envelope", parallel.ops_per_envelope()),
            ("storm_part_errors", parallel.errors as f64),
            ("storm_part_err_not_found", parallel.err_not_found as f64),
            ("storm_part_err_exists", parallel.err_exists as f64),
            ("storm_part_err_races", parallel.err_races as f64),
            ("storm_part_gave_up", parallel.gave_up as f64),
            ("storm_part_wall_ops_per_sec", wall_rate),
        ],
    )
}

/// The chaos smoke: the same storm workload run under each fault class —
/// an NSD crash mid-race, a WAN flap severing every client, and a
/// namespace-manager kill/restart checked against its fault-free oracle.
/// Rows pin each verdict (thread-count determinism, the audit, the
/// oracle), that faults were really taken and ridden out, and that
/// faulted throughput stays within sight of healthy.
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
        wan_clients: false,
    };
    let flap_spec = ChaosSpec {
        progress: ProgressPlan::new().link_flap_at_op(cfg.race_op_at(0.7), "storm-wan", outage),
        wan_clients: true,
    };

    let (healthy, healthy_wall) = time_scenario(|| run_storm(&cfg));
    let (crash, crash_wall) = time_scenario(|| check_chaos_storm(&cfg, &crash_spec));
    let (flap, flap_wall) = time_scenario(|| check_chaos_storm(&cfg, &flap_spec));
    let (mgr, mgr_wall) =
        time_scenario(|| check_manager_recovery(&cfg, 0.5, SimDuration::from_millis(600)));

    // check_chaos_storm runs the storm twice (1 + 8 threads).
    let crash_rate = per_sec(2 * crash.report.ops, crash_wall);
    let flap_rate = per_sec(2 * flap.report.ops, flap_wall);
    let runs = [&crash.report, &flap.report, &mgr.report.chaos];
    let c = merged([&healthy.counters].into_iter().chain(runs.map(|r| &r.counters)));
    let injected = |r: &StormReport| r.counters.get("faults.injected");
    let gave_up = runs.iter().map(|r| r.gave_up).sum::<u64>() as f64;
    Entry::of_worlds(
        "chaos storm smoke (crash / flap / manager kill)",
        healthy_wall + crash_wall + flap_wall + mgr_wall,
        c.clone(),
        vec![
            violations("crash storm violations", &crash.violations),
            violations("flap storm violations", &flap.violations),
            violations("manager recovery violations (vs oracle)", &mgr.violations),
            Gate::floor(
                "faults injected (fewer of crash, flap)",
                1.0,
                injected(&crash.report).min(injected(&flap.report)) as f64,
            ),
            Gate::ceiling("ops gave up", 0.0, gave_up),
            // Every outage lasts 400-600 ms, under the 2 s recall fuse
            // (lease_break_timeout), which burns only while no send of a
            // recall lands: an outage that short never expels a context.
            Gate::ceiling("mount contexts expelled", 0.0, count(&c, "manager.expulsions")),
            Gate::floor("timeouts", 1.0, count(&c, "faults.timeouts")),
            Gate::floor(
                "WAL records replayed",
                1.0,
                count(&mgr.report.chaos.counters, "manager.wal_replayed"),
            ),
            Gate::floor("crash storm ops/sec (wall)", 10_000.0, crash_rate),
            Gate::floor("flap storm ops/sec (wall)", 10_000.0, flap_rate),
        ],
        8000.0,
        vec![
            ("chaos_healthy_ops_per_sec", per_sec(healthy.ops, healthy_wall)),
            ("chaos_crash_ops_per_sec", crash_rate),
            ("chaos_flap_ops_per_sec", flap_rate),
            ("chaos_mgr_kill_ops_per_sec", per_sec(2 * mgr.report.chaos.ops, mgr_wall)),
            ("chaos_gave_up", gave_up),
        ],
    )
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
/// lookup storm timed against both. The headline claim is a >= 10x speedup
/// on warm resolution.
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
    Entry {
        name: "resolve microbench (interned+dentry vs string walk)",
        wall_seconds: old_wall + new_wall,
        events: lookups * 2,
        claims: vec![Gate::floor("resolve speedup", 10.0, speedup)],
        events_floor: 100_000.0,
        counters: Counters::default(),
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
/// fsck + world invariants, a bit-identical report at 1 vs N sweep
/// threads, and every replica mechanism (install, invalidation, remote
/// pick, split fan-out) fired.
fn run_replication_entry() -> Entry {
    use scenarios::replication::{run_campaign, run_campaign_with_threads, ReplicationConfig};

    let cfg = ReplicationConfig::default();
    let (parallel, parallel_wall) = time_scenario(|| run_campaign(&cfg));
    let (serial, serial_wall) = time_scenario(|| run_campaign_with_threads(&cfg, 1));
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
    let unclean = parallel.iter().filter(|r| !r.is_clean()).count();
    let c = merged(parallel.iter().map(|r| &r.counters));

    Entry::of_worlds(
        "replication campaign (3 sites, hot set + bulk tier)",
        parallel_wall + serial_wall,
        c.clone(),
        vec![
            Gate::floor("replica read speedup (slowest point)", 2.0, min_speedup),
            // The coherence tripwire: the catalog records any such serve.
            Gate::ceiling("stale replica serves", 0.0, count(&c, "replica.stale_reads")),
            Gate::floor("bytes migrated to tape", 1.0, sum(|r| r.migrated_bytes) as f64),
            Gate::ceiling("unclean points (fsck, invariants, I/O)", 0.0, unclean as f64),
            thread_mismatches(&serial, &parallel),
            Gate::floor("replica installs", 1.0, count(&c, "replica.installs")),
            Gate::floor("replica invalidations", 1.0, count(&c, "replica.invalidations")),
            Gate::floor("remote replica picks", 1.0, count(&c, "replica.remote_picks")),
            Gate::floor("split fan-outs", 1.0, count(&c, "replica.split_fanouts")),
        ],
        // One wall figure times a parallel and a serial sweep of few, long
        // flows, so events/sec sits near ~500: the floor only catches a
        // collapse.
        50.0,
        vec![
            ("replica_read_speedup", min_speedup),
            ("replica_home_rate_mb_s", mean_home_rate / 1e6),
            ("replica_rate_mb_s", mean_replica_rate / 1e6),
            ("replica_campaign_tb", campaign_tb),
            ("replica_migrated_bytes", sum(|r| r.migrated_bytes) as f64),
            ("replica_current_copies", sum(|r| r.current_copies) as f64),
            ("replica_mean_pick_ms", mean_pick_ms),
        ],
    )
}

/// Trace replay + oracle differential: the three captured-trace corpora
/// (untar/build tree, NVO catalog scan, Enzo checkpoint cadence) replayed
/// through the full session stack at M=1 and M=4 manager shards — leases
/// and the replica catalog on — under healthy, manager-kill, NSD-crash and
/// partition schedules, every op differenced against the in-memory model
/// filesystem. Rows pin zero op-level divergence, zero exhausted retry
/// budgets, clean verdicts (oracle-identical final trees, the audit of
/// every replay, determinism), faults that really fired and all 24
/// schedules; the extras publish corpus sizes and replay throughput into
/// BENCH_perf.json.
fn run_trace_replay_entry() -> Entry {
    use scenarios::trace::{check_trace_differential, TraceCorpus};

    let (verdicts, wall) = time_scenario(|| {
        TraceCorpus::ALL.map(|c| (c, check_trace_differential(c)))
    });
    let reports = || verdicts.iter().flat_map(|(_, v)| v.report.iter().map(|(_, r)| r));
    let sum = |f: fn(&scenarios::trace::ReplayReport) -> u64| -> u64 { reports().map(f).sum() };
    let total_ops: u64 = verdicts.iter().map(|(_, v)| v.total_ops()).sum();
    // Modeled replay rate: ops over simulated time, summed over every
    // schedule — deterministic on any host, like the storm gates.
    let sim_seconds: f64 = reports().map(|r| r.run.sim_ns as f64 / 1e9).sum();
    let replays: usize = verdicts.iter().map(|(_, v)| v.report.len()).sum();
    let found: Vec<String> = verdicts.iter().flat_map(|(_, v)| v.violations.clone()).collect();
    let c = merged(reports().map(|r| &r.run.counters));

    let mut extra = vec![
        ("trace_replays", replays as f64),
        ("trace_ops", total_ops as f64),
        ("trace_ops_per_sec", total_ops as f64 / wall.max(1e-9)),
        ("trace_sim_ops_per_sec", total_ops as f64 / sim_seconds.max(1e-12)),
        ("trace_divergences", sum(|r| r.divergences) as f64),
        ("trace_gave_up", sum(|r| r.run.gave_up) as f64),
    ];
    for (corpus, _) in &verdicts {
        // One size per corpus (the generated op count a single replay sees),
        // keyed by corpus name so EXPERIMENTS.md can quote them directly.
        let ops = corpus.generate(4, 2, 2005).len() as f64;
        extra.push(match corpus {
            TraceCorpus::UntarBuild => ("trace_corpus_untar_build_ops", ops),
            TraceCorpus::NvoScan => ("trace_corpus_nvo_scan_ops", ops),
            TraceCorpus::EnzoCheckpoint => ("trace_corpus_enzo_checkpoint_ops", ops),
        });
    }
    Entry::of_worlds(
        "trace replay differential (3 corpora, M=1/4, 4 schedules)",
        wall,
        c.clone(),
        vec![
            Gate::ceiling("oracle divergences", 0.0, sum(|r| r.divergences) as f64),
            Gate::ceiling("ops gave up", 0.0, sum(|r| r.run.gave_up) as f64),
            violations("verdict violations", &found),
            Gate::floor("faults injected", 1.0, count(&c, "faults.injected")),
            // 3 corpora x 2 manager counts x 4 schedules.
            Gate::floor("replays", 24.0, replays as f64),
        ],
        // Short replays with an oracle diff on every op; warm steady state
        // is ~450k events/sec.
        20_000.0,
        extra,
    )
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
    let undelivered = (STARTS * BYTES).abs_diff(w.net.total_delivered());
    Entry {
        name: "flow engine (LAN star, 32+4 NICs, ~400 x 64 KiB flows)",
        wall_seconds: wall,
        events: sim.executed(),
        claims: vec![
            Gate::ceiling("flows started but not drained", 0.0, STARTS.abs_diff(w.drains) as f64),
            Gate::ceiling("bytes sent but not delivered", 0.0, undelivered as f64),
            // The flows share one LAN-wide component.
            Gate::floor("flows per solve", 100.0, mean_flows_per_solve),
        ],
        // Every start and drain is a re-solve; warm steady state is ~100k
        // events/sec.
        events_floor: 20_000.0,
        counters: Counters::default(),
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

/// `{"name": value, ...}` on one line.
fn json_object<'a, V: std::fmt::Display>(fields: impl Iterator<Item = (&'a str, V)>) -> String {
    let fields: Vec<String> = fields.map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", fields.join(", "))
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
        if e.counters != Counters::default() {
            let counters = json_object(e.counters.iter());
            body.push_str(&format!("      \"counters\": {counters},\n"));
        }
        if !e.extra.is_empty() {
            let extra = json_object(e.extra.iter().copied());
            body.push_str(&format!("      \"metadata\": {extra},\n"));
        }
        body.push_str("      \"checks\": [\n");
        let gates = e.gates();
        for (j, g) in gates.iter().enumerate() {
            let bound = match g.bound {
                Bound::Paper { value, tol } => format!("\"paper\": {value}, \"tol\": {tol}"),
                Bound::Floor(f) => format!("\"floor\": {f}"),
                Bound::Ceiling(c) => format!("\"ceiling\": {c}"),
            };
            body.push_str(&format!(
                "        {{\"metric\": {}, \"measured\": {}, {bound}, \"ok\": {}}}{}\n",
                json_str(&g.metric),
                g.measured,
                g.ok(),
                if j + 1 < gates.len() { "," } else { "" }
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
    // The partitioned storm's 3x row compares modeled rates measured in the
    // same process: the M=1 massive storm is its baseline.
    let (storm_100k, single) = run_storm_100k_entry();
    let entries = [
        run_fig11_entry(),
        run_sc04_entry(),
        run_recovery_entry(),
        run_metadata_storm_entry(),
        storm_100k,
        run_storm_partitioned_entry(&single),
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

    for e in &entries {
        println!("\n  {}", e.name);
        for g in e.gates() {
            println!("    {}", g.line());
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
