//! Recovery-metric scenarios: deterministic fault injection against the
//! paper's infrastructure, with the three metrics EXPERIMENTS.md reports —
//! time-to-detect, time-to-failover, and throughput dip depth/duration.
//!
//! Three experiments:
//!
//! * [`crash_one_of_n`] — crash 1 of N (default 64) NSD servers in the
//!   middle of a per-block client write. The write must complete with no
//!   data loss (fsck clean + byte-exact read-back), a bounded throughput
//!   dip, and a measured time-to-failover. Same seed ⇒ byte-identical
//!   series.
//! * [`link_flap_during_enzo`] — the TeraGrid WAN path flaps during an
//!   Enzo checkpoint campaign; the stalled checkpoint stream resumes and
//!   the makespan stretches by about the outage.
//! * [`disk_failure_during_sweep`] — a SATA spindle dies under a Fig.11-
//!   style write run against a detailed DS4100 array; service runs
//!   degraded (reconstruction reads, rebuild-throttled foreground I/O)
//!   until the hot-spare rebuild completes, and the run still finishes.

use crate::builder::{pattern_bytes, NsdFarm, ScenarioBuilder, Workload};
use crate::common::series_named;
use gfs::session::Session;
use gfs::types::{FsError, OpenFlags, Owner};
use gfs::world::Counters;
use gfs::FaultPlan;
use simcore::{Bandwidth, Dip, SimDuration, SimTime, TimeSeries, MBYTE};
use simsan::ArraySpec;
use std::cell::RefCell;
use std::rc::Rc;
use workloads::enzo;

/// Configuration of the crash-mid-write experiment.
#[derive(Clone, Debug)]
pub struct CrashConfig {
    /// NSD server count (the paper's farm has 64).
    pub servers: u32,
    /// Which server crashes.
    pub crash_server: u32,
    /// When it crashes (mid-write for the defaults below).
    pub crash_at: SimTime,
    /// Bytes the client writes.
    pub bytes: u64,
    /// Bytes per `write` call.
    pub chunk: u64,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            servers: 64,
            crash_server: 3,
            crash_at: SimTime::from_millis(200),
            bytes: 64 * MBYTE,
            chunk: MBYTE,
            seed: 4242,
        }
    }
}

/// Everything the crash-mid-write experiment measures.
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Workloads completed (1 = the write finished).
    pub completed: usize,
    /// Errors surfaced by the write path.
    pub errors: Vec<(usize, FsError)>,
    /// Post-run filesystem consistency.
    pub fsck_clean: bool,
    /// Post-run read-back matched the written pattern byte-for-byte.
    pub data_intact: bool,
    /// First fault → first request timeout.
    pub time_to_detect: Option<SimDuration>,
    /// First fault → first successful failover to another server.
    pub time_to_failover: Option<SimDuration>,
    /// Longest below-threshold excursion of the client NIC rate during the
    /// run (the recovery stall).
    pub dip: Option<Dip>,
    /// The client NIC rate series (50 ms windows), truncated to `finish` —
    /// the determinism fingerprint.
    pub client_series: TimeSeries,
    /// When the write completed.
    pub finish: SimTime,
    /// The world's counters ([`gfs::GfsWorld::counters`]) when the write run
    /// ended, before the read-back that checks it.
    pub counters: Counters,
}

/// A copy of `s` truncated to points at or before `t` (monitoring pads
/// series with zeros to the horizon; the tail after completion is idle
/// time, not a throughput dip).
fn truncated(s: &TimeSeries, t: SimTime) -> TimeSeries {
    let mut out = TimeSeries::new(&s.name);
    for p in s.points.iter().filter(|p| p.t <= t) {
        out.push(p.t, p.value);
    }
    out
}

/// Crash 1 of `servers` NSD servers in the middle of a striped client
/// write; the client's timeout/retry layer fails the lost requests over to
/// ring successors and the write completes.
pub fn crash_one_of_n(cfg: &CrashConfig) -> CrashReport {
    assert!(cfg.crash_server < cfg.servers);
    let mut sb = ScenarioBuilder::new(cfg.seed);
    let farm = NsdFarm::new("gpfs-wan", cfg.servers)
        .stored_data()
        .block_size(256 * 1024);
    let crashed = farm.server_name(cfg.crash_server);
    let fs = sb.nsd_farm("sdsc", farm);
    let c = sb.clients(
        "sdsc",
        1,
        Bandwidth::gbit(1.0).scaled(crate::common::TCP_EFF),
        SimDuration::from_micros(100),
        64,
    )[0];
    sb.workload(Workload::file_write(c, "gpfs-wan", "/ckpt", cfg.bytes, cfg.chunk));
    sb.faults(FaultPlan::new().server_crash(cfg.crash_at, fs, crashed));
    sb.sample_every(SimDuration::from_millis(50));

    let mut run = sb.run(SimTime::from_secs(60));
    let counters = run.world.counters(&run.sim);
    let fsck_clean = gfs::fsck(&run.world.fss[fs.0 as usize].core).is_clean();
    let data_intact = run.completed == 1 && read_back_matches(&mut run, c, cfg.bytes);

    let client_series = truncated(&series_named(&run.series, "nic-sdsc-0>"), run.finish);
    // Healthy rate is ~the NIC goodput; anything under 10 MB/s is a stall.
    let dip = client_series.dip_below(10.0 * MBYTE as f64);
    CrashReport {
        completed: run.completed,
        errors: run.errors.clone(),
        fsck_clean,
        data_intact,
        time_to_detect: run.world.recovery.time_to_detect(),
        time_to_failover: run.world.recovery.time_to_failover(),
        dip,
        client_series,
        finish: run.finish,
        counters,
    }
}

/// Reopen `/ckpt` through the writing session on the (post-crash) world
/// and compare every byte against the deterministic write pattern.
fn read_back_matches(run: &mut crate::builder::ScenarioRun, c: Session, bytes: u64) -> bool {
    let outcome = Rc::new(RefCell::new(None::<bool>));
    let o = outcome.clone();
    let (sim, w) = (&mut run.sim, &mut run.world);
    // The scenario's horizon already elapsed; give the read-back headroom.
    sim.set_horizon(sim.now() + SimDuration::from_secs(600));
    c.open(
        sim,
        w,
        "/ckpt",
        OpenFlags::Read,
        Owner::local(0, 0),
        move |sim, w, r| match r {
            Ok(h) => c.read(sim, w, h, 0, bytes, move |_sim, _w, r| {
                *o.borrow_mut() = Some(match r {
                    Ok(data) => {
                        let expect = pattern_bytes(0, bytes);
                        if data.len() as u64 != bytes {
                            eprintln!("read-back length {} != {}", data.len(), bytes);
                            false
                        } else if data[..] == expect[..] {
                            // Slice equality is a memcmp — the per-byte scan
                            // below only runs to diagnose a mismatch.
                            true
                        } else if let Some(i) = (0..data.len()).find(|&i| data[i] != expect[i]) {
                            eprintln!(
                                "first mismatch at byte {} (block {}): got {:#x} want {:#x}",
                                i,
                                i / (256 * 1024),
                                data[i],
                                expect[i]
                            );
                            false
                        } else {
                            true
                        }
                    }
                    Err(e) => {
                        eprintln!("read-back error: {e:?}");
                        false
                    }
                });
            }),
            Err(_) => *o.borrow_mut() = Some(false),
        },
    );
    sim.run(w);
    let result = outcome.borrow().unwrap_or(false);
    result
}

/// Result of the link-flap-during-Enzo experiment.
#[derive(Clone, Debug)]
pub struct FlapReport {
    /// The checkpoint campaign finished.
    pub completed: bool,
    /// Campaign makespan.
    pub makespan: SimTime,
    /// WAN link forward-direction rate series.
    pub wan_series: TimeSeries,
    /// The world's counters ([`gfs::GfsWorld::counters`]) after the campaign,
    /// the flap's fault and restore among them.
    pub counters: Counters,
}

/// An Enzo checkpoint campaign streams from NCSA to the SDSC farm over a
/// 10 Gb/s TeraGrid path; the path flaps for `outage` in the middle of the
/// first checkpoint. The stalled stream freezes, resumes on restore, and
/// the campaign completes late by about the outage.
pub fn link_flap_during_enzo(seed: u64, outage: SimDuration) -> FlapReport {
    let mut sb = ScenarioBuilder::new(seed);
    let fs = sb.nsd_farm("sdsc", NsdFarm::new("gpfs-wan", 16));
    sb.wan(
        "ncsa",
        "sdsc",
        Bandwidth::gbit(10.0),
        SimDuration::from_millis(28),
        "teragrid",
    );
    let c = sb.clients(
        "ncsa",
        1,
        Bandwidth::gbit(10.0),
        SimDuration::from_micros(100),
        16,
    )[0];
    // 3 checkpoints of 2 GB with 30 s of compute between: I/O bursts at
    // t ≈ 30, 60+, 90+ s.
    let campaign = enzo(3, 2 * 1024 * MBYTE, SimDuration::from_secs(30));
    sb.workload(Workload::phased(c, fs, campaign, 7));
    // Flap mid-first-checkpoint (the burst starts at t = 30 s).
    sb.faults(FaultPlan::new().link_flap(SimTime::from_secs(31), "teragrid", outage));
    sb.sample_every(SimDuration::from_millis(500));
    let run = sb.run(SimTime::from_secs(200));
    FlapReport {
        completed: run.completed == 1,
        makespan: run.finish,
        wan_series: series_named(&run.series, "teragrid>"),
        counters: run.world.counters(&run.sim),
    }
}

/// Result of the disk-failure-during-sweep experiment.
#[derive(Clone, Debug)]
pub struct DiskFailReport {
    /// The write run finished.
    pub completed: bool,
    /// Errors surfaced (expected none: degraded ≠ failed).
    pub errors: Vec<(usize, FsError)>,
    /// Makespan of the faulted run.
    pub seconds: f64,
    /// Makespan of an identical run with no fault.
    pub baseline_seconds: f64,
    /// Whether the rebuild completed within the run (logged as Restored).
    pub rebuild_completed: bool,
    /// The counters ([`gfs::GfsWorld::counters`]) of both runs, baseline and
    /// faulted, summed. Only the faulted run serves degraded reads.
    pub counters: Counters,
}

/// A Fig.11-style write-then-read sweep against a detailed DS4100 array;
/// one SATA data spindle fails at the start of the read phase. Reads whose
/// stripe share lived on the lost spindle are reconstructed from the
/// survivors + parity, and all set I/O runs rebuild-throttled — the sweep
/// completes, slower than the no-fault baseline.
pub fn disk_failure_during_sweep(seed: u64) -> DiskFailReport {
    disk_failure_during_sweep_with_threads(seed, crate::parallel::sweep_threads())
}

/// [`disk_failure_during_sweep`] with an explicit worker count: the
/// no-fault baseline and the faulted run are fully independent seeded
/// worlds, so they execute as two parallel sweep points. The report is
/// bit-identical for any `threads` value.
pub fn disk_failure_during_sweep_with_threads(seed: u64, threads: usize) -> DiskFailReport {
    let read_start = SimTime::from_secs(10);
    /// Plain `Send` extract of one run (worlds themselves stay on the
    /// thread that built them).
    struct RunSummary {
        completed: usize,
        errors: Vec<(usize, FsError)>,
        finish_secs: f64,
        counters: Counters,
    }
    let run_once = |plan: Option<FaultPlan>| -> RunSummary {
        let mut sb = ScenarioBuilder::new(seed);
        sb.nsd_farm(
            "sdsc",
            NsdFarm::new("prod", 4)
                .block_size(MBYTE)
                .array_backed(ArraySpec::ds4100_sata()),
        );
        let c = sb.clients(
            "sdsc",
            1,
            Bandwidth::gbit(1.0),
            SimDuration::from_micros(100),
            8,
        )[0];
        sb.workload(Workload::file_write(c, "prod", "/sweep", 64 * MBYTE, MBYTE));
        sb.workload(
            Workload::file_read(c, "prod", "/sweep", 64 * MBYTE, MBYTE).starting_at(read_start),
        );
        if let Some(p) = plan {
            sb.faults(p);
        }
        let run = sb.run(SimTime::from_secs(600));
        RunSummary {
            completed: run.completed,
            errors: run.errors.clone(),
            finish_secs: run.finish.as_secs_f64(),
            counters: run.world.counters(&run.sim),
        }
    };
    // Fail data spindle 2 of set 0 just after the reads begin; hot-spare
    // rebuild at 50 MB/s (2005-era SATA sequential).
    let mut results = crate::parallel::run_indexed(2, threads, |i| {
        if i == 0 {
            run_once(None)
        } else {
            run_once(Some(FaultPlan::new().disk_fail(
                read_start + SimDuration::from_millis(100),
                0,
                0,
                2,
                50.0 * MBYTE as f64,
            )))
        }
    });
    let faulted = results.pop().expect("faulted run");
    let baseline = results.pop().expect("baseline run");
    DiskFailReport {
        completed: faulted.completed == 2,
        errors: faulted.errors,
        seconds: faulted.finish_secs,
        baseline_seconds: baseline.finish_secs,
        rebuild_completed: faulted.counters.get("faults.restores") > 0,
        counters: baseline.counters.merged(&faulted.counters),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_one_of_64_recovers_without_data_loss() {
        let report = crash_one_of_n(&CrashConfig::default());
        assert_eq!(report.completed, 1, "write failed: {:?}", report.errors);
        assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
        assert!(report.fsck_clean, "filesystem inconsistent after crash");
        assert!(report.data_intact, "read-back mismatch: data was lost");
        let ttf = report.time_to_failover.expect("no failover recorded");
        // Detection is one request timeout (1.5 s); failover follows within
        // the backoff envelope.
        assert!(
            (1.0..5.0).contains(&ttf.as_secs_f64()),
            "time-to-failover {ttf:?}"
        );
        let dip = report.dip.expect("no throughput dip recorded");
        assert!(
            dip.duration.as_secs_f64() < 4.0,
            "recovery stall unbounded: {:?}",
            dip.duration
        );
    }

    #[test]
    fn crash_experiment_is_deterministic() {
        let a = crash_one_of_n(&CrashConfig::default());
        let b = crash_one_of_n(&CrashConfig::default());
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.client_series.points, b.client_series.points);
        assert_eq!(a.time_to_failover, b.time_to_failover);
    }

    #[test]
    fn enzo_flap_stretches_makespan_by_the_outage() {
        let outage = SimDuration::from_secs(5);
        let flapped = link_flap_during_enzo(21, outage);
        assert!(flapped.completed, "campaign did not finish");
        let clean = link_flap_during_enzo_no_fault(21);
        let stretch = flapped.makespan.as_secs_f64() - clean.as_secs_f64();
        assert!(
            (0.8 * outage.as_secs_f64()..1.5 * outage.as_secs_f64() + 1.0).contains(&stretch),
            "makespan stretched {stretch:.1}s for a {:.1}s outage",
            outage.as_secs_f64()
        );
        assert!(flapped.counters.get("faults.restores") > 0, "restoration not logged");
    }

    /// Baseline helper: the same campaign with no fault.
    fn link_flap_during_enzo_no_fault(seed: u64) -> SimTime {
        let r = link_flap_during_enzo(seed, SimDuration::from_nanos(1));
        r.makespan
    }

    #[test]
    fn disk_failure_degrades_but_completes() {
        let report = disk_failure_during_sweep(31);
        assert!(report.completed, "sweep failed: {:?}", report.errors);
        assert!(report.errors.is_empty());
        assert!(
            report.counters.get("simsan.degraded_reads") > 0,
            "no reads were served by reconstruction"
        );
        assert!(
            report.seconds > report.baseline_seconds,
            "degraded run {:.2}s not slower than baseline {:.2}s",
            report.seconds,
            report.baseline_seconds
        );
        assert!(
            report.seconds < 3.0 * report.baseline_seconds,
            "degraded run {:.2}s unbounded vs baseline {:.2}s",
            report.seconds,
            report.baseline_seconds
        );
    }
}
