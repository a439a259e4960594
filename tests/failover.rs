//! Failure injection: NSD server failover. GPFS serves each NSD through a
//! primary server with backups; when the primary dies, clients reroute.
//! The paper's production design (§5) planned exactly this redundancy
//! (dual HBAs, dual controllers per DS4100, two NSD servers per LUN).

use bytes::Bytes;
use globalfs::gfs::client;
use globalfs::gfs::fscore::{DataMode, FsConfig};
use globalfs::gfs::session::Session;
use globalfs::gfs::types::{ClientId, FsError, FsId, Handle, NsdId, OpenFlags, Owner};
use globalfs::gfs::world::{FsParams, GfsWorld, NsdBacking, WorldBuilder};
use globalfs::scenarios::recovery::{
    crash_one_of_n, disk_failure_during_sweep, link_flap_during_enzo, CrashConfig,
};
use globalfs::simcore::{Bandwidth, Sim, SimDuration};
use globalfs::simnet::NodeId;
use std::cell::Cell;
use std::rc::Rc;

/// Two NSD servers behind one switch, one client.
fn bed() -> (Sim<GfsWorld>, GfsWorld, ClientId, FsId, NodeId, NodeId) {
    let mut b = WorldBuilder::new(55);
    b.key_bits(384);
    let sw = b.topo().node("sw");
    let s1 = b.topo().node("nsd-1");
    let s2 = b.topo().node("nsd-2");
    let cli = b.topo().node("client");
    for (n, name) in [(s1, "l1"), (s2, "l2"), (cli, "lc")] {
        b.topo()
            .duplex_link(n, sw, Bandwidth::gbit(1.0), SimDuration::from_micros(100), name);
    }
    let c = b.cluster("ha");
    let fs = b.filesystem(
        c,
        FsParams {
            config: FsConfig {
                name: "hafs".into(),
                block_size: 64 * 1024,
                nsd_blocks: 4096,
                nsd_count: 8,
                data_mode: DataMode::Stored,
            },
            manager: s1,
            managers: 1,
            nsd_servers: vec![s1, s2],
            storage_nodes: vec![],
            backing: vec![NsdBacking::Ideal {
                rate: Bandwidth::mbyte(400.0).bytes_per_sec(),
                latency: SimDuration::from_micros(200),
            }],
            exported: false,
        },
    );
    let client = b.client(c, cli, 256);
    let (sim, w) = b.build();
    (sim, w, client, fs, s1, s2)
}

#[test]
fn nsds_fail_over_to_surviving_server() {
    let (mut sim, mut w, client, fs, s1, s2) = bed();
    let sess = w.open_session(client);
    // Before failure: NSDs split across both servers.
    let inst = &w.fss[fs.0 as usize];
    assert_eq!(inst.try_server_of(NsdId(0)), Some(s1));
    assert_eq!(inst.try_server_of(NsdId(1)), Some(s2));

    let ok = Rc::new(Cell::new(false));
    let ok2 = ok.clone();
    let payload = Bytes::from(vec![0x77u8; 300_000]);
    let expect = payload.clone();
    sess.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
        r.unwrap();
        sess.open(sim, w, "/survive", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
            let h = r.unwrap();
            sess.write(sim, w, h, 0, payload, move |sim, w, r| {
                r.unwrap();
                client::fsync(sim, w, client, h, move |sim, w, r| {
                    r.unwrap();
                    // Kill server 1 (also the manager's *data* role; the
                    // manager RPC endpoint survives — GPFS would elect a
                    // new fs manager, which we model as instantaneous).
                    w.fss[fs.0 as usize].fail_server(s1);
                    // Drop the cache so reads must hit the surviving server.
                    let inode = w.clients[client.0 as usize].handles[&h].inode;
                    w.clients[client.0 as usize].pool.invalidate_file(fs, inode);
                    client::read(sim, w, client, h, 0, 300_000, move |_s, w, r| {
                        let got = r.unwrap();
                        assert_eq!(got, expect, "data served through backup differs");
                        // Every NSD now routes to s2.
                        let inst = &w.fss[fs.0 as usize];
                        for i in 0..8 {
                            assert_eq!(inst.try_server_of(NsdId(i)), Some(s2));
                        }
                        ok2.set(true);
                    });
                });
            });
        });
    });
    sim.run(&mut w);
    assert!(ok.get());
}

#[test]
fn restore_rebalances_service() {
    let (_sim, mut w, _client, fs, s1, s2) = bed();
    w.fss[fs.0 as usize].fail_server(s1);
    assert_eq!(w.fss[fs.0 as usize].try_server_of(NsdId(0)), Some(s2));
    w.fss[fs.0 as usize].restore_server(s1);
    assert_eq!(w.fss[fs.0 as usize].try_server_of(NsdId(0)), Some(s1));
}

#[test]
fn total_failure_is_unavailability() {
    // Losing every NSD server is typed unavailability, not a crash: the
    // routing query returns None, and the session surface reports the
    // filesystem as Degraded.
    let (mut sim, mut w, client, fs, s1, s2) = bed();
    let sess = w.open_session(client);
    let saw = Rc::new(std::cell::RefCell::new(None::<FsError>));
    let saw2 = saw.clone();
    sess.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
        r.unwrap();
        sess.open(sim, w, "/degraded", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
            let h = r.unwrap();
            sess.write(sim, w, h, 0, Bytes::from(vec![5u8; 200_000]), move |sim, w, r| {
                r.unwrap();
                w.fss[fs.0 as usize].fail_server(s1);
                w.fss[fs.0 as usize].fail_server(s2);
                assert!(w.fss[fs.0 as usize].try_server_of(NsdId(0)).is_none());
                sess.fsync(sim, w, h, move |_s, _w, r| {
                    *saw2.borrow_mut() = Some(r.unwrap_err());
                });
            });
        });
    });
    sim.run(&mut w);
    assert!(
        matches!(saw.borrow().as_ref(), Some(FsError::Degraded(_))),
        "session surface must report total server loss as Degraded, got {:?}",
        saw.borrow()
    );
}

#[test]
fn total_failure_surfaces_server_down_to_the_client() {
    // ...but the client data path reports it as a typed error instead of
    // tearing the process down.
    let (mut sim, mut w, client, fs, s1, s2) = bed();
    let sess = w.open_session(client);
    let seen = Rc::new(std::cell::RefCell::new(None::<FsError>));
    let seen2 = seen.clone();
    sess.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
        r.unwrap();
        sess.open(sim, w, "/doomed", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
            let h = r.unwrap();
            sess.write(sim, w, h, 0, Bytes::from(vec![9u8; 200_000]), move |sim, w, r| {
                r.unwrap();
                client::fsync(sim, w, client, h, move |sim, w, r| {
                    r.unwrap();
                    // Both servers die; the cache is dropped so the read
                    // must go to storage.
                    w.fss[fs.0 as usize].fail_server(s1);
                    w.fss[fs.0 as usize].fail_server(s2);
                    let inode = w.clients[client.0 as usize].handles[&h].inode;
                    w.clients[client.0 as usize].pool.invalidate_file(fs, inode);
                    client::read(sim, w, client, h, 0, 200_000, move |_s, _w, r| {
                        *seen2.borrow_mut() = Some(r.expect_err("read with no servers must fail"));
                    });
                });
            });
        });
    });
    sim.run(&mut w);
    assert_eq!(*seen.borrow(), Some(FsError::ServerDown));
}

#[test]
fn writes_after_failover_land_and_survive_restore() {
    let (mut sim, mut w, client, fs, s1, _s2) = bed();
    let sess = w.open_session(client);
    let ok = Rc::new(Cell::new(false));
    let ok2 = ok.clone();
    sess.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
        r.unwrap();
        // Fail the primary before any I/O.
        w.fss[fs.0 as usize].fail_server(s1);
        sess.open(sim, w, "/via-backup", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
            let h = r.unwrap();
            sess.write(sim, w, h, 0, Bytes::from(vec![5u8; 100_000]), move |sim, w, r| {
                r.unwrap();
                sess.close(sim, w, h, move |sim, w, r| {
                    r.unwrap();
                    // Primary comes back; data must read fine through it.
                    w.fss[fs.0 as usize].restore_server(s1);
                    sess.open(sim, w, "/via-backup", OpenFlags::Read, Owner::local(1, 1), move |sim, w, r| {
                        let h = r.unwrap();
                        client::read(sim, w, client, h, 0, 100_000, move |_s, _w, r| {
                            let got = r.unwrap();
                            assert!(got.iter().all(|b| *b == 5));
                            ok2.set(true);
                        });
                    });
                });
            });
        });
    });
    sim.run(&mut w);
    assert!(ok.get());
}

// ---------------------------------------------------------------------
// Scheduled fault injection: the acceptance scenarios from EXPERIMENTS.md,
// driven through the public ScenarioBuilder / FaultPlan API.
// ---------------------------------------------------------------------

/// Crash 1 of 64 NSD servers mid-write: the write completes, fsck is
/// clean, a byte-exact read-back proves no data loss, and the recovery
/// metrics (time-to-failover, throughput dip) are bounded.
#[test]
fn crashing_one_of_64_servers_loses_no_data() {
    let report = crash_one_of_n(&CrashConfig::default());
    assert_eq!(report.completed, 1, "write failed: {:?}", report.errors);
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    assert!(report.fsck_clean, "fsck found inconsistencies after the crash");
    assert!(report.data_intact, "read-back mismatch: data was lost");
    let ttf = report
        .time_to_failover
        .expect("no failover recorded in the recovery log");
    assert!(
        (1.0..5.0).contains(&ttf.as_secs_f64()),
        "time-to-failover out of band: {ttf:?}"
    );
    let dip = report.dip.expect("no throughput dip recorded");
    assert!(
        dip.duration.as_secs_f64() < 4.0,
        "recovery stall unbounded: {:?}",
        dip.duration
    );
}

/// Two same-seed runs of the crash experiment replay byte-identical
/// series and identical recovery timings.
#[test]
fn fault_injection_replays_are_byte_identical() {
    let a = crash_one_of_n(&CrashConfig::default());
    let b = crash_one_of_n(&CrashConfig::default());
    assert_eq!(a.finish, b.finish, "finish times diverged under same seed");
    assert_eq!(
        a.client_series.points, b.client_series.points,
        "client NIC series diverged under same seed"
    );
    assert_eq!(a.time_to_detect, b.time_to_detect);
    assert_eq!(a.time_to_failover, b.time_to_failover);
}

/// The TeraGrid path flaps during an Enzo checkpoint: the stalled stream
/// resumes on restore and the campaign's makespan stretches by roughly the
/// outage, no more.
#[test]
fn link_flap_during_enzo_checkpoint_stretches_not_breaks() {
    let outage = SimDuration::from_secs(5);
    let flapped = link_flap_during_enzo(21, outage);
    assert!(flapped.completed, "checkpoint campaign did not finish");
    let clean = link_flap_during_enzo(21, SimDuration::from_nanos(1));
    let stretch = flapped.makespan.as_secs_f64() - clean.makespan.as_secs_f64();
    assert!(
        (0.8 * outage.as_secs_f64()..1.5 * outage.as_secs_f64() + 1.0).contains(&stretch),
        "makespan stretched {stretch:.1}s for a {:.1}s outage",
        outage.as_secs_f64()
    );
}

/// A SATA spindle dies during a Fig.11-style sweep: reads reconstruct from
/// parity, the run completes slower than baseline but bounded.
#[test]
fn disk_failure_during_fig11_sweep_degrades_gracefully() {
    let report = disk_failure_during_sweep(31);
    assert!(report.completed, "sweep failed: {:?}", report.errors);
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    assert!(report.degraded_reads > 0, "no reconstruction reads served");
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

// ---------------------------------------------------------------------
// Coalescing across fault boundaries
// ---------------------------------------------------------------------

/// One full-file read issued either as a single coalesced call (the client
/// groups the blocks into multi-block scatter-gather runs) or as one read
/// per block, racing a server crash that lands while the requests are in
/// flight. Both shapes must produce the same recovery outcomes — timeouts
/// detected, failover to the survivor, byte-intact data, no errors — while
/// the coalesced shape does it with strictly fewer wire requests.
#[test]
fn coalesced_scatter_gather_fails_over_like_per_block() {
    const BLOCK: u64 = 64 * 1024;
    const BLOCKS: u64 = 16;

    struct Outcome {
        intact: bool,
        errors: usize,
        timeouts: usize,
        failovers: usize,
        requests: u64,
        coalesced: u64,
    }

    let run = |per_block: bool| -> Outcome {
        let (mut sim, mut w, client, fs, s1, _s2) = bed();
        let sess = w.open_session(client);
        let pattern = |i: usize| (i % 251) as u8;
        let payload = Bytes::from((0..(BLOCKS * BLOCK) as usize).map(pattern).collect::<Vec<_>>());
        let intact = Rc::new(Cell::new(0u64));
        let errors = Rc::new(Cell::new(0usize));
        {
            let (intact, errors) = (intact.clone(), errors.clone());
            sess.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
                r.unwrap();
                sess.open(sim, w, "/sg", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
                    let h = r.unwrap();
                    sess.write(sim, w, h, 0, payload, move |sim, w, r| {
                        r.unwrap();
                        client::fsync(sim, w, client, h, move |sim, w, r| {
                            r.unwrap();
                            let inode = w.clients[client.0 as usize].handles[&h].inode;
                            w.clients[client.0 as usize].pool.invalidate_file(fs, inode);
                            w.nsd_stats = Default::default();
                            // Issue the read(s), then crash s1 while the
                            // requests are still on the wire (the RPC
                            // round trip is a few hundred µs).
                            let check = move |off: u64, got: &[u8], intact: &Rc<Cell<u64>>| {
                                if got.iter().enumerate().all(|(i, b)| *b == pattern(off as usize + i)) {
                                    intact.set(intact.get() + got.len() as u64);
                                }
                            };
                            if per_block {
                                for blk in 0..BLOCKS {
                                    let (intact, errors) = (intact.clone(), errors.clone());
                                    client::read(sim, w, client, h, blk * BLOCK, BLOCK, move |_s, _w, r| match r {
                                        Ok(got) => check(blk * BLOCK, &got, &intact),
                                        Err(_) => errors.set(errors.get() + 1),
                                    });
                                }
                            } else {
                                let (intact, errors) = (intact.clone(), errors.clone());
                                client::read(sim, w, client, h, 0, BLOCKS * BLOCK, move |_s, _w, r| match r {
                                    Ok(got) => check(0, &got, &intact),
                                    Err(_) => errors.set(errors.get() + 1),
                                });
                            }
                            let at = sim.now() + SimDuration::from_micros(50);
                            sim.at(at, move |_sim, w| {
                                w.fss[fs.0 as usize].fail_server(s1);
                            });
                        });
                    });
                });
            });
        }
        sim.run(&mut w);
        use globalfs::gfs::RecoveryWhat;
        Outcome {
            intact: intact.get() == BLOCKS * BLOCK,
            errors: errors.get(),
            timeouts: w.recovery.count(|e| matches!(e, RecoveryWhat::TimeoutDetected { .. })),
            failovers: w.recovery.count(|e| matches!(e, RecoveryWhat::FailedOver { .. })),
            requests: w.nsd_stats.requests,
            coalesced: w.nsd_stats.coalesced,
        }
    };

    let coalesced = run(false);
    let per_block = run(true);

    for (name, o) in [("coalesced", &coalesced), ("per-block", &per_block)] {
        assert!(o.intact, "{name}: read-back not byte-intact");
        assert_eq!(o.errors, 0, "{name}: reads errored");
        assert!(o.timeouts > 0, "{name}: crash produced no timeout detections");
        assert!(o.failovers > 0, "{name}: no failover recorded");
    }
    // The same recovery semantics, achieved with strictly fewer wire
    // requests: scatter-gather runs carry >1 block each.
    assert!(coalesced.coalesced > 0, "full-file read produced no multi-block runs");
    assert!(
        coalesced.requests < per_block.requests,
        "coalesced path sent {} requests, per-block sent {}",
        coalesced.requests,
        per_block.requests
    );
}

// ---------------------------------------------------------------------
// Request watchdogs: cancellable timers on the retry path
// ---------------------------------------------------------------------

/// Every data-path request arms a timeout watchdog; a successful response
/// must cancel it outright rather than leave a dead timer in the event
/// queue until it expires. A run of sequential reads (each far faster than
/// the 1.5 s timeout) must therefore hold `Sim::pending()` flat instead of
/// growing by one stale watchdog per request.
#[test]
fn completed_request_watchdogs_are_cancelled_not_leaked() {
    const BLOCKS: u64 = 32;
    const BLOCK: u64 = 64 * 1024;
    let (mut sim, mut w, client, fs, _s1, _s2) = bed();
    let sess = w.open_session(client);
    let pending_log: Rc<std::cell::RefCell<Vec<usize>>> = Rc::new(std::cell::RefCell::new(Vec::new()));

    fn read_chain(
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        client: ClientId,
        h: globalfs::gfs::types::Handle,
        block: u64,
        log: Rc<std::cell::RefCell<Vec<usize>>>,
    ) {
        if block == BLOCKS {
            return;
        }
        client::read(sim, w, client, h, block * BLOCK, BLOCK, move |sim, w, r| {
            r.unwrap();
            log.borrow_mut().push(sim.pending());
            read_chain(sim, w, client, h, block + 1, log);
        });
    }

    {
        let log = pending_log.clone();
        sess.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            sess.open(sim, w, "/flat", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
                let h = r.unwrap();
                sess.write(sim, w, h, 0, Bytes::from(vec![3u8; (BLOCKS * BLOCK) as usize]), move |sim, w, r| {
                    r.unwrap();
                    client::fsync(sim, w, client, h, move |sim, w, r| {
                        r.unwrap();
                        let inode = w.clients[client.0 as usize].handles[&h].inode;
                        w.clients[client.0 as usize].pool.invalidate_file(fs, inode);
                        read_chain(sim, w, client, h, 0, log);
                    });
                });
            });
        });
    }
    sim.run(&mut w);
    let log = pending_log.borrow();
    assert_eq!(log.len() as u64, BLOCKS, "not every read completed");
    // Stale watchdogs would make the queue depth climb by ~1 per read;
    // with cancellation it stays at the steady-state handful.
    let (first, last) = (log[0], log[log.len() - 1]);
    assert!(
        last <= first + 4,
        "pending events grew across {BLOCKS} reads: first {first}, last {last} (log {log:?})"
    );
    assert_eq!(sim.pending(), 0, "events left after the run drained");
}

/// A request whose every attempt times out (the timeout is set below the
/// network round trip) must surface `FsError::Timeout` exactly once, even
/// though each attempt's response eventually arrives after its watchdog
/// fired; the late responses hit the dead one-shot slot and are dropped.
/// The client must remain fully usable afterwards.
#[test]
fn request_timeout_surfaces_exactly_once_despite_late_responses() {
    let (mut sim, mut w, client, fs, _s1, _s2) = bed();
    let sess = w.open_session(client);
    let outcomes: Rc<std::cell::RefCell<Vec<Result<usize, FsError>>>> =
        Rc::new(std::cell::RefCell::new(Vec::new()));
    let recovered = Rc::new(Cell::new(false));

    {
        let outcomes = outcomes.clone();
        let recovered = recovered.clone();
        sess.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            sess.open(sim, w, "/flaky", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
                let h = r.unwrap();
                sess.write(sim, w, h, 0, Bytes::from(vec![8u8; 65_536]), move |sim, w, r| {
                    r.unwrap();
                    client::fsync(sim, w, client, h, move |sim, w, r| {
                        r.unwrap();
                        let inode = w.clients[client.0 as usize].handles[&h].inode;
                        w.clients[client.0 as usize].pool.invalidate_file(fs, inode);
                        // Shorter than the ~600 µs round trip: every fetch
                        // attempt times out before its response lands.
                        w.costs.request_timeout = SimDuration::from_micros(300);
                        client::read(sim, w, client, h, 0, 65_536, move |sim, w, r| {
                            outcomes.borrow_mut().push(r.map(|b| b.len()));
                            // Sane timeout again: the same handle must work.
                            w.costs.request_timeout = SimDuration::from_millis(1500);
                            client::read(sim, w, client, h, 0, 65_536, move |_s, _w, r| {
                                assert_eq!(r.unwrap().len(), 65_536);
                                recovered.set(true);
                            });
                        });
                    });
                });
            });
        });
    }
    sim.run(&mut w);
    assert_eq!(
        *outcomes.borrow(),
        vec![Err(FsError::Timeout)],
        "the timed-out read must fail exactly once"
    );
    assert!(recovered.get(), "client unusable after a timed-out request");
    assert_eq!(sim.pending(), 0);
}

// ---------------------------------------------------------------------
// Manager crash/recovery and progress-keyed fault boundaries
// ---------------------------------------------------------------------

/// The namespace manager dies through the fault plan — so recovery is the
/// timed WAL replay on a surviving server, not the instant election that a
/// bare `fail_server` models. A metadata op issued into the outage is
/// dropped, times out, retries with backoff, and lands exactly once on the
/// recovered manager: the client just experiences a slow mkdir.
#[test]
fn metadata_op_rides_out_manager_crash_and_wal_recovery() {
    use globalfs::gfs::{apply_fault, FaultKind, RecoveryWhat};
    let (mut sim, mut w, client, fs, _s1, s2) = bed();
    let sess = w.open_session(client);
    let ok = Rc::new(Cell::new(false));
    let ok2 = ok.clone();
    sess.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
        r.unwrap();
        // An acknowledged mutation, so the WAL has something to replay.
        sess.mkdir(sim, w, "/pre", Owner::local(1, 1), move |sim, w, r| {
            r.unwrap();
            apply_fault(sim, w, FaultKind::ServerCrash { fs, server: "nsd-1".into() });
            assert!(
                w.fss[fs.0 as usize].mgrs[0].recovering,
                "fault-plan manager crash must enter the WAL-recovery window"
            );
            // Issued straight into the outage: dropped at the dead manager,
            // retried until the replacement finishes replay.
            sess.mkdir(sim, w, "/during", Owner::local(1, 1), move |sim, w, r| {
                r.unwrap();
                sess.stat(sim, w, "/during", move |_s, w, r| {
                    r.unwrap();
                    let mgr = &w.fss[fs.0 as usize].mgrs[0];
                    assert_eq!(mgr.acting, s2, "takeover did not move the manager role");
                    assert_eq!(mgr.epoch, 1, "recovery must bump the manager epoch");
                    assert!(mgr.replayed >= 1, "WAL replay rebuilt no dedup state");
                    assert!(!mgr.recovering);
                    ok2.set(true);
                });
            });
        });
    });
    sim.run(&mut w);
    assert!(ok.get(), "metadata op never completed across the crash");
    assert!(
        w.recovery.count(|e| matches!(e, RecoveryWhat::TimeoutDetected { .. })) >= 1,
        "the outage was invisible: no watchdog ever fired"
    );
    assert!(
        w.recovery.count(|e| matches!(e, RecoveryWhat::FailedOver { .. })) >= 1,
        "no retry was recorded as landing on the new manager"
    );
    assert_eq!(sim.pending(), 0, "events left after the run drained");
}

/// A transient crash shorter than the detection window: the server is
/// restored *before* the read's watchdog fires, so the retry lands on the
/// same (now healthy) server — byte-intact data, a timeout detection, and
/// no failover, because there was never anywhere else to go.
#[test]
fn coalesced_read_retries_to_restored_server_after_transient_crash() {
    use globalfs::gfs::RecoveryWhat;
    const BLOCK: u64 = 64 * 1024;
    const BLOCKS: u64 = 16;
    let (mut sim, mut w, client, fs, s1, _s2) = bed();
    let sess = w.open_session(client);
    let pattern = |i: usize| (i % 241) as u8;
    let payload = Bytes::from((0..(BLOCKS * BLOCK) as usize).map(pattern).collect::<Vec<_>>());
    let intact = Rc::new(Cell::new(false));
    {
        let intact = intact.clone();
        sess.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            sess.open(sim, w, "/transient", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
                let h = r.unwrap();
                sess.write(sim, w, h, 0, payload, move |sim, w, r| {
                    r.unwrap();
                    client::fsync(sim, w, client, h, move |sim, w, r| {
                        r.unwrap();
                        let inode = w.clients[client.0 as usize].handles[&h].inode;
                        w.clients[client.0 as usize].pool.invalidate_file(fs, inode);
                        // One coalesced full-file read; the server dies while
                        // the scatter-gather runs are on the wire and comes
                        // back 1.2 s later — inside the 1.5 s timeout.
                        client::read(sim, w, client, h, 0, BLOCKS * BLOCK, move |_s, _w, r| {
                            let got = r.unwrap();
                            intact.set(got.iter().enumerate().all(|(i, b)| *b == pattern(i)));
                        });
                        let crash_at = sim.now() + SimDuration::from_micros(50);
                        sim.at(crash_at, move |sim, w| {
                            w.fss[fs.0 as usize].fail_server(s1);
                            sim.after(SimDuration::from_millis(1200), move |_s, w| {
                                w.fss[fs.0 as usize].restore_server(s1);
                            });
                        });
                    });
                });
            });
        });
    }
    sim.run(&mut w);
    assert!(intact.get(), "read-back not byte-intact across the transient crash");
    assert!(
        w.recovery.count(|e| matches!(e, RecoveryWhat::TimeoutDetected { .. })) > 0,
        "the crash produced no timeout detections"
    );
    assert_eq!(
        w.recovery.count(|e| matches!(e, RecoveryWhat::FailedOver { .. })),
        0,
        "retries should have landed on the restored primary, not failed over"
    );
    assert_eq!(sim.pending(), 0, "events left after the run drained");
}

// ---------------------------------------------------------------------
// Per-site subtree leases: delegate fast path, break, expulsion,
// re-admission
// ---------------------------------------------------------------------

/// The subtree-lease bed: two NSD servers and `clients` client nodes
/// (`client-a`, `client-b`, ...) behind one switch, `managers` namespace
/// shards, and `/proj` created up front. With `wan` every client sits in a
/// second cluster behind a 30 ms link and reaches the filesystem as a
/// granted `mmremotefs` device of the same name, mounted through the §6
/// handshake.
fn lease_bed(
    seed: u64,
    managers: u32,
    clients: usize,
    wan: bool,
) -> (Sim<GfsWorld>, GfsWorld, FsId, Vec<ClientId>) {
    use globalfs::gfs::world::{RemoteClusterDef, RemoteFsDef};
    let mut b = WorldBuilder::new(seed);
    b.key_bits(384);
    let sw = b.topo().node("sw");
    let s1 = b.topo().node("nsd-1");
    let s2 = b.topo().node("nsd-2");
    for (n, name) in [(s1, "l1"), (s2, "l2")] {
        b.topo().duplex_link(
            n,
            sw,
            Bandwidth::gbit(1.0),
            SimDuration::from_micros(100),
            name,
        );
    }
    let delay = SimDuration::from_micros(if wan { 30_000 } else { 100 });
    let nodes: Vec<NodeId> = (0..clients)
        .map(|i| {
            let x = char::from(b'a' + i as u8);
            let n = b.topo().node(format!("client-{x}"));
            b.topo()
                .duplex_link(n, sw, Bandwidth::gbit(1.0), delay, format!("l{x}"));
            n
        })
        .collect();
    let home = b.cluster("ha");
    let site = if wan { b.cluster("far") } else { home };
    let fs = b.filesystem(
        home,
        FsParams {
            config: FsConfig {
                name: "hafs".into(),
                block_size: 64 * 1024,
                nsd_blocks: 4096,
                nsd_count: 8,
                data_mode: DataMode::Stored,
            },
            manager: s1,
            managers,
            nsd_servers: vec![s1, s2],
            storage_nodes: vec![],
            backing: vec![NsdBacking::Ideal {
                rate: Bandwidth::mbyte(400.0).bytes_per_sec(),
                latency: SimDuration::from_micros(200),
            }],
            exported: wan,
        },
    );
    let ctxs = nodes.into_iter().map(|n| b.client(site, n, 256)).collect();
    let (sim, mut w) = b.build();
    if wan {
        let key = w.clusters[site.0 as usize].auth.public_key();
        let auth = &mut w.clusters[home.0 as usize].auth;
        auth.mmauth_add("far", key);
        auth.mmauth_grant("far", "hafs", gfs_auth::handshake::AccessMode::ReadWrite);
        let far = &mut w.clusters[site.0 as usize];
        far.remote_clusters
            .insert("ha".into(), RemoteClusterDef { contact: s1 });
        far.remote_fs.insert(
            "hafs".into(),
            RemoteFsDef {
                cluster: "ha".into(),
                remote_device: "hafs".into(),
            },
        );
    }
    w.fss[fs.0 as usize]
        .core
        .mkdir("/proj", Owner::local(1, 1), 0)
        .unwrap();
    (sim, w, fs, ctxs)
}

/// The full subtree-lease lifecycle, staged over one world: a context
/// acquires a lease and serves ops at its local delegate; a conflicting
/// remote op breaks the lease like a token revocation (the responsive
/// holder acks and the remote op proceeds); an *unresponsive* holder —
/// partitioned off the network with the lease re-acquired — is expelled
/// when the break fuse burns down, its leases and tokens force-released;
/// and its next word to the manager after the heal re-admits it.
#[test]
fn subtree_lease_lifecycle_break_expel_readmit() {
    use globalfs::gfs::{apply_fault, FaultKind, RecoveryWhat};
    let (mut sim, mut w, fs, ctxs) = lease_bed(56, 2, 2, false);
    let a = ctxs[0];
    let sa = w.open_session(a);
    let sb = w.open_session(ctxs[1]);

    // Phase 1 — both contexts mount; A leases /proj and serves a mkdir at
    // its delegate without a manager round trip.
    let leased = Rc::new(Cell::new(false));
    {
        let leased = leased.clone();
        sa.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            sa.acquire_lease(sim, w, "/proj", move |sim, w, r| {
                r.unwrap();
                sa.mkdir(sim, w, "/proj/d0", Owner::local(1, 1), move |_s, _w, r| {
                    r.unwrap();
                    leased.set(true);
                });
            });
        });
    }
    sb.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, |_s, _w, r| {
        r.unwrap();
    });
    sim.run(&mut w);
    assert!(leased.get(), "lease + delegated mkdir never completed");
    {
        let inst = &w.fss[fs.0 as usize];
        assert_eq!(inst.lease_grants, 1);
        assert_eq!(inst.leases.get("proj"), Some(&a), "manager must record the holder");
        assert!(
            inst.delegated_ops >= 1,
            "the leased mkdir should have run at the delegate"
        );
        assert!(w.clients[a.0 as usize].leases.contains(&(fs, "proj".into())));
    }

    // Phase 2 — a conflicting remote op from B breaks the lease like a
    // token revocation: A (responsive) acks, B's deferred op then lands.
    let saw_b = Rc::new(Cell::new(false));
    {
        let saw_b = saw_b.clone();
        sb.stat(&mut sim, &mut w, "/proj/d0", move |_s, _w, r| {
            r.unwrap();
            saw_b.set(true);
        });
    }
    sim.run(&mut w);
    assert!(saw_b.get(), "remote op never completed after the lease break");
    {
        let inst = &w.fss[fs.0 as usize];
        assert_eq!(inst.lease_breaks, 1);
        assert!(inst.leases.is_empty(), "break must clear the grant");
        assert!(inst.recalls.is_empty(), "the recall must finish");
        assert!(w.clients[a.0 as usize].leases.is_empty(), "ack must clear the mirror");
        assert_eq!(inst.expulsions, 0, "a responsive holder is never expelled");
    }

    // Phase 3 — A re-acquires, then drops off the network. B's next
    // conflicting op starts a break nobody can ack; the fuse burns down
    // and the manager expels A, force-releasing its leases and tokens.
    let reacquired = Rc::new(Cell::new(false));
    {
        let reacquired = reacquired.clone();
        sa.acquire_lease(&mut sim, &mut w, "/proj", move |_s, _w, r| {
            r.unwrap();
            reacquired.set(true);
        });
    }
    sim.run(&mut w);
    assert!(reacquired.get());
    apply_fault(&mut sim, &mut w, FaultKind::Partition { node: "client-a".into() });
    let saw_b2 = Rc::new(Cell::new(false));
    {
        let saw_b2 = saw_b2.clone();
        sb.stat(&mut sim, &mut w, "/proj/d0", move |_s, _w, r| {
            r.unwrap();
            saw_b2.set(true);
        });
    }
    sim.run(&mut w);
    assert!(saw_b2.get(), "remote op must land once the holder is expelled");
    {
        let inst = &w.fss[fs.0 as usize];
        assert_eq!(inst.expulsions, 1, "unresponsive holder must be expelled");
        assert!(inst.expelled.contains(&a));
        assert!(inst.leases.is_empty() && inst.recalls.is_empty());
        let ac = &w.clients[a.0 as usize];
        assert!(ac.leases.is_empty(), "expulsion lapses the holder's lease term");
        assert!(
            ac.held_tokens.iter().all(|((f, _), _)| *f != fs),
            "expulsion must force-release the holder's tokens"
        );
        assert_eq!(
            w.recovery.count(|e| matches!(e, RecoveryWhat::Expelled { .. })),
            1
        );
    }

    // Phase 4 — heal the partition; A's first op re-admits it.
    apply_fault(&mut sim, &mut w, FaultKind::Heal { node: "client-a".into() });
    let back = Rc::new(Cell::new(false));
    {
        let back = back.clone();
        sa.stat(&mut sim, &mut w, "/proj/d0", move |_s, _w, r| {
            r.unwrap();
            back.set(true);
        });
    }
    sim.run(&mut w);
    assert!(back.get(), "re-admitted client's op never completed");
    {
        let inst = &w.fss[fs.0 as usize];
        assert_eq!(inst.readmissions, 1);
        assert!(inst.expelled.is_empty(), "first contact must lift the expulsion");
        assert_eq!(
            w.recovery.count(|e| matches!(e, RecoveryWhat::Readmitted { .. })),
            1
        );
        assert_eq!(inst.lease_breaks, 2, "both conflicts must have started breaks");
    }
    assert_eq!(sim.pending(), 0, "events left after the run drained");
}

/// A lease acquire that meets another context's lease: the manager breaks
/// the holder's lease (its journaled mkdir reconciles on the way out) and
/// grants the subtree to the asker once the break is done.
#[test]
fn conflicting_lease_acquire_breaks_the_holder_then_grants() {
    let (mut sim, mut w, fs, ctxs) = lease_bed(59, 1, 2, false);
    let (a, b) = (ctxs[0], ctxs[1]);
    let (sa, sb) = (w.open_session(a), w.open_session(b));
    let rw = gfs_auth::handshake::AccessMode::ReadWrite;
    for s in [sa, sb] {
        settle(&mut sim, &mut w, |sim, w, cb| {
            s.mount(sim, w, "hafs", rw, cb)
        })
        .unwrap();
    }
    settle(&mut sim, &mut w, |sim, w, cb| {
        sa.acquire_lease(sim, w, "/proj", cb)
    })
    .unwrap();
    settle(&mut sim, &mut w, |sim, w, cb| {
        sa.mkdir(sim, w, "/proj/d0", Owner::local(1, 1), cb)
    })
    .unwrap();
    assert_eq!(
        w.clients[a.0 as usize].journal.len(),
        1,
        "the mkdir must run at A's delegate"
    );
    settle(&mut sim, &mut w, |sim, w, cb| {
        sb.acquire_lease(sim, w, "/proj", cb)
    })
    .unwrap();
    assert_eq!(sim.pending(), 0, "events left after the run drained");
    let inst = &w.fss[fs.0 as usize];
    assert_eq!(
        inst.leases.get("proj"),
        Some(&b),
        "the manager must list B as the holder"
    );
    assert_eq!(inst.lease_breaks, 1);
    assert_eq!(inst.lease_grants, 2);
    assert_eq!(inst.reconcile_ops, 1);
    assert!(
        w.clients[a.0 as usize].leases.is_empty(),
        "A's lease mirror must be empty"
    );
}

/// Writeback reconciliation is exactly-once across a manager crash. The
/// surrender's bulk replay envelope is applied and WAL-logged at the
/// manager, but the reply starves (the watchdog fires first); before the
/// retry lands, the manager crashes — wiping the volatile dedup table.
/// The retry must replay every journaled op from the WAL-rebuilt table
/// rather than re-running it, and the final tree must match a fault-free
/// twin bit for bit.
#[test]
fn reconcile_replay_is_exactly_once_across_manager_crash() {
    use globalfs::gfs::{apply_fault, FaultKind};

    // Returns (tree_fingerprint, reconcile_ops, envelope retries, WAL
    // entries replayed by recovery).
    fn run(faulty: bool) -> (u64, u64, u64, u64) {
        let mut b = WorldBuilder::new(57);
        b.key_bits(384);
        let sw = b.topo().node("sw");
        let s1 = b.topo().node("nsd-1");
        let s2 = b.topo().node("nsd-2");
        let ca = b.topo().node("client-a");
        for (n, name) in [(s1, "l1"), (s2, "l2"), (ca, "la")] {
            b.topo()
                .duplex_link(n, sw, Bandwidth::gbit(1.0), SimDuration::from_micros(100), name);
        }
        let c = b.cluster("ha");
        let fs = b.filesystem(
            c,
            FsParams {
                config: FsConfig {
                    name: "hafs".into(),
                    block_size: 64 * 1024,
                    nsd_blocks: 4096,
                    nsd_count: 8,
                    data_mode: DataMode::Stored,
                },
                manager: s1,
                managers: 2,
                nsd_servers: vec![s1, s2],
                storage_nodes: vec![],
                backing: vec![NsdBacking::Ideal {
                    rate: Bandwidth::mbyte(400.0).bytes_per_sec(),
                    latency: SimDuration::from_micros(200),
                }],
                exported: false,
            },
        );
        let a = b.client(c, ca, 256);
        let (mut sim, mut w) = b.build();
        let sa = w.open_session(a);
        w.fss[fs.0 as usize]
            .core
            .mkdir("/proj", Owner::local(1, 1), 0)
            .unwrap();

        let done = Rc::new(Cell::new(false));
        {
            let done = done.clone();
            sa.mount(
                &mut sim,
                &mut w,
                "hafs",
                gfs_auth::handshake::AccessMode::ReadWrite,
                move |sim, w, r| {
                    r.unwrap();
                    sa.acquire_lease(sim, w, "/proj", move |sim, w, r| {
                        r.unwrap();
                        // Six mutations journal at the delegate with zero
                        // manager events.
                        let left = Rc::new(Cell::new(6u32));
                        for i in 0..6 {
                            let left = left.clone();
                            let done = done.clone();
                            sa.mkdir(
                                sim,
                                w,
                                &format!("/proj/d{i}"),
                                Owner::local(1, 1),
                                move |sim, w, r| {
                                    r.unwrap();
                                    left.set(left.get() - 1);
                                    if left.get() > 0 {
                                        return;
                                    }
                                    assert_eq!(
                                        w.clients[0].journal.len(),
                                        6,
                                        "all six mutations must be journaled before surrender"
                                    );
                                    // Starve the reconcile envelope's first
                                    // attempt: its watchdog fires before the
                                    // ~400µs round trip completes.
                                    if faulty {
                                        w.costs.request_timeout = SimDuration::from_micros(1);
                                    }
                                    let done = done.clone();
                                    sa.surrender_lease(sim, w, "/proj", move |_s, _w, r| {
                                        r.expect("surrender must survive the crash");
                                        done.set(true);
                                    });
                                    if faulty {
                                        // Heal the timeout before the ≥50ms
                                        // retry backoff expires...
                                        sim.after(SimDuration::from_millis(10), |_s, w| {
                                            w.costs.request_timeout =
                                                SimDuration::from_millis(1500);
                                        });
                                        // ...then crash the manager that
                                        // owns /proj, wiping its volatile
                                        // dedup table. The WAL survives;
                                        // recovery replays it.
                                        sim.after(SimDuration::from_millis(20), move |sim, w| {
                                            let inst = &w.fss[fs.0 as usize];
                                            let shard = inst.core.shards.shard_of("/proj");
                                            let node = inst.mgrs[shard as usize].acting;
                                            let server =
                                                if node == s1 { "nsd-1" } else { "nsd-2" };
                                            apply_fault(
                                                sim,
                                                w,
                                                FaultKind::ServerCrash {
                                                    fs,
                                                    server: server.into(),
                                                },
                                            );
                                        });
                                    }
                                },
                            );
                        }
                    });
                },
            );
        }
        sim.run(&mut w);
        assert!(done.get(), "surrender never completed (faulty={faulty})");
        assert_eq!(sim.pending(), 0, "events left after the run drained");
        let inst = &w.fss[fs.0 as usize];
        assert!(
            w.clients[a.0 as usize].journal.is_empty(),
            "reconcile must drain the delegate journal"
        );
        assert!(
            w.clients[a.0 as usize].leases.is_empty(),
            "surrender must clear the lease mirror"
        );
        let replayed = inst.mgrs.iter().map(|m| m.replayed).sum();
        (
            inst.core.tree_fingerprint(),
            inst.reconcile_ops,
            w.fanin.retries,
            replayed,
        )
    }

    let (oracle_fp, oracle_rec, _, _) = run(false);
    let (fp, rec, retries, replayed) = run(true);
    assert_eq!(oracle_rec, 6, "fault-free twin replays each journaled op once");
    assert_eq!(
        rec, 6,
        "each journaled op must execute exactly once across the crash-retry"
    );
    assert!(retries >= 1, "the starved reply must force an envelope retry");
    assert!(
        replayed >= 6,
        "recovery must rebuild the dedup table from the WAL ({replayed} replayed)"
    );
    assert_eq!(
        fp, oracle_fp,
        "crash-retry tree must match the fault-free twin"
    );
}

/// Write allocation is exactly-once across a lost reply and a manager
/// crash. A second write inside the range the first one holds a token for
/// needs no token exchange, so its allocation envelope is its first
/// exchange. That envelope's first attempt lands — the manager stamps the
/// file's mtime and records the result — but its reply starves. Before the
/// retry the manager crashes, so recovery must rebuild the dedup table
/// from the WAL, and the retry must replay the recorded result: running
/// the allocation again would stamp the retry's later instant.
#[test]
fn write_allocation_is_exactly_once_across_lost_reply_and_manager_crash() {
    use globalfs::gfs::{apply_fault, fsck_instance, FaultKind};
    let (mut sim, mut w, client, fs, _s1, _s2) = bed();
    let sess = w.open_session(client);
    let outcomes = Rc::new(std::cell::RefCell::new(Vec::new()));
    let crashed_at = Rc::new(Cell::new(0u64));
    {
        let (outcomes, crashed_at) = (outcomes.clone(), crashed_at.clone());
        sess.mount(&mut sim, &mut w, "hafs", gfs_auth::handshake::AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            sess.open(sim, w, "/alloc", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
                let h = r.unwrap();
                // The first write takes the write token over [0, 200000).
                sess.write(sim, w, h, 0, Bytes::from(vec![1u8; 200_000]), move |sim, w, r| {
                    r.unwrap();
                    // Starve the second write's allocation: its watchdog
                    // fires before the ~400 µs round trip completes.
                    w.costs.request_timeout = SimDuration::from_micros(1);
                    sess.write(sim, w, h, 1000, Bytes::from(vec![2u8; 50_000]), move |_s, _w, r| {
                        outcomes.borrow_mut().push(r);
                    });
                    // Heal the timeout before the ≥50ms retry backoff
                    // expires...
                    sim.after(SimDuration::from_millis(10), |_s, w| {
                        w.costs.request_timeout = SimDuration::from_millis(1500);
                    });
                    // ...then crash shard 0's manager, wiping its dedup
                    // table. The WAL survives; recovery replays it.
                    sim.after(SimDuration::from_millis(20), move |sim, w| {
                        crashed_at.set(sim.now().as_nanos());
                        apply_fault(sim, w, FaultKind::ServerCrash { fs, server: "nsd-1".into() });
                    });
                });
            });
        });
    }
    sim.run(&mut w);
    assert_eq!(*outcomes.borrow(), vec![Ok(())], "the write must complete exactly once");
    assert!(w.fanin.retries >= 1, "the starved reply must force an envelope retry");
    let inst = &w.fss[fs.0 as usize];
    assert!(inst.mgrs[0].replayed >= 1, "recovery must rebuild the dedup table from the WAL");
    let st = inst.core.stat("/alloc").unwrap();
    assert!(
        st.mtime_ns < crashed_at.get(),
        "the allocation ran again after the crash (mtime {} >= crash at {})",
        st.mtime_ns,
        crashed_at.get()
    );
    assert_eq!(st.size, 200_000);
    assert!(fsck_instance(inst).is_clean(), "fsck found inconsistencies");
    assert_eq!(sim.pending(), 0, "events left after the run drained");
}

/// Progress-keyed fault boundaries: an event at op 0 fires before the race
/// begins (during the pre-mount advance), an event at the very last op
/// fires from the final chain step — each applied exactly once per point,
/// with the storm still draining fsck-clean.
#[test]
fn progress_plan_fires_at_op_zero_and_final_op() {
    use globalfs::gfs::faults::ProgressPlan;
    use globalfs::scenarios::metadata_storm::{run_chaos_storm, ChaosSpec, StormConfig};
    let cfg = StormConfig::small();
    let total = cfg.tree_ops() + cfg.race_ops();
    let spec = ChaosSpec {
        progress: ProgressPlan::new()
            .server_crash_at_op(0, FsId(0), "meta-srv1", Some(SimDuration::from_millis(300)))
            .link_flap_at_op(total, "storm-wan", SimDuration::from_millis(100)),
        timed: Default::default(),
        wan_clients: true,
    };
    let r = run_chaos_storm(&cfg, &spec);
    let points = u64::from(cfg.points);
    assert_eq!(
        r.faults_injected,
        2 * points,
        "both boundary events must fire exactly once per point"
    );
    assert_eq!(
        r.restores,
        2 * points,
        "both heals must fire exactly once per point"
    );
    assert!(r.fsck_clean, "boundary faults left an inconsistent filesystem");
    assert_eq!(r.gave_up, 0, "every RPC must eventually succeed");
    assert_eq!(r.invariant_violations, 0);
}

/// The manager-crash scenario above, replayed as an oracle differential:
/// the untar/build trace corpus runs through the full session stack while a
/// progress-keyed fault kills the server hosting manager shard 0 mid-trace.
/// Recovery must be *semantically* invisible — every op returns the same
/// typed result the in-memory model filesystem computes, and the final
/// trees fingerprint-identical — while the counters prove the crash, the
/// epoch bump and the WAL replay actually happened.
#[test]
fn manager_crash_replay_is_oracle_equivalent() {
    use globalfs::gfs::faults::ProgressPlan;
    use globalfs::scenarios::metadata_storm::ChaosSpec;
    use globalfs::scenarios::trace::{replay_trace, ReplayConfig, TraceCorpus};

    let ops = TraceCorpus::UntarBuild.generate(3, 2, 4242);
    let total = ops.len() as u64;
    let cfg = ReplayConfig {
        managers: 1,
        leases: false,
        replicate: false,
        per_mount: 2,
        seed: 4242,
    };
    // Shard 0 — the only manager at M=1 — lives on trace-srv0.
    let spec = ChaosSpec {
        progress: ProgressPlan::new().server_crash_at_op(
            total * 2 / 5,
            FsId(0),
            "trace-srv0",
            Some(SimDuration::from_millis(600)),
        ),
        timed: Default::default(),
        wan_clients: false,
    };
    let r = replay_trace(&ops, &cfg, &spec);
    // A crash on a manager-hosting server logs both the crash and the
    // manager-loss marker, so >= rather than == here.
    assert!(r.faults_injected >= 1, "the mid-trace manager kill never fired");
    assert!(r.restores >= 1, "the crashed server was never restored");
    assert!(r.manager_epochs >= 1, "recovery must bump the manager epoch");
    assert!(r.wal_replayed >= 1, "takeover replayed nothing from the WAL");
    assert_eq!(
        r.divergences, 0,
        "op results diverged from the oracle across the crash:\n{}",
        r.divergence_samples.join("\n")
    );
    assert!(
        r.tree_matches_oracle,
        "faulted final tree {:#x} != oracle {:#x}",
        r.tree_fingerprint, r.oracle_fingerprint
    );
    assert_eq!(r.gave_up, 0, "an op exhausted its retry budget");
    assert!(r.fsck_clean, "post-replay fsck found inconsistencies");
    assert_eq!(r.invariant_violations, 0);
}

// ---------------------------------------------------------------------
// Partition sweep: every client exchange completes, times out or fails
// with a typed error
// ---------------------------------------------------------------------

/// Run one op on a fault-free world until the simulation drains, and hand
/// back its result.
fn settle<T: 'static>(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    op: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, client::Cb<T>),
) -> T {
    let out = Rc::new(std::cell::RefCell::new(None));
    let slot = out.clone();
    op(
        sim,
        w,
        Box::new(move |_, _, r| *slot.borrow_mut() = Some(r)),
    );
    sim.run(w);
    let r = out.borrow_mut().take();
    r.expect("op never completed")
}

/// Every `Session` verb, each driven by the partition sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Verb {
    MountLocal,
    MountRemote,
    Mkdir,
    Stat,
    Readdir,
    Open,
    Close,
    Read,
    Write,
    Fsync,
    Truncate,
    Unlink,
    Rename,
    AcquireLease,
    SurrenderLease,
}

/// Bytes of the file the data verbs work on: four 64 KiB blocks.
const SWEEP_BYTES: usize = 200_000;

/// A drained world with one mount context, ready for `verb`: mounted
/// (except for the mount verbs) and holding what the verb works on — an
/// open handle, a dirty or cold file, a lease with a journaled mkdir.
fn sweep_world(verb: Verb) -> (Sim<GfsWorld>, GfsWorld, Session, Option<Handle>) {
    use Verb::*;
    let (mut sim, mut w, fs, ctxs) = lease_bed(58, 1, 1, verb == MountRemote);
    let s = w.open_session(ctxs[0]);
    let (sim_, w_) = (&mut sim, &mut w);
    let owner = || Owner::local(1, 1);
    let rw = gfs_auth::handshake::AccessMode::ReadWrite;
    if !matches!(verb, MountLocal | MountRemote) {
        settle(sim_, w_, |sim, w, cb| s.mount(sim, w, "hafs", rw, cb)).unwrap();
    }
    if matches!(verb, Unlink | Rename) {
        let h = settle(sim_, w_, |sim, w, cb| {
            s.open(sim, w, "/proj/f", OpenFlags::Write, owner(), cb)
        });
        settle(sim_, w_, |sim, w, cb| s.close(sim, w, h.unwrap(), cb)).unwrap();
    }
    if verb == SurrenderLease {
        settle(sim_, w_, |sim, w, cb| s.acquire_lease(sim, w, "/proj", cb)).unwrap();
        settle(sim_, w_, |sim, w, cb| {
            s.mkdir(sim, w, "/proj/d0", owner(), cb)
        })
        .unwrap();
    }
    let mut handle = None;
    if matches!(verb, Close | Read | Write | Fsync | Truncate) {
        let open = |flags| {
            move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, cb| {
                s.open(sim, w, "/proj/f", flags, owner(), cb)
            }
        };
        let mut h = settle(sim_, w_, open(OpenFlags::ReadWrite)).unwrap();
        if verb != Write {
            let data = Bytes::from(vec![5u8; SWEEP_BYTES]);
            settle(sim_, w_, |sim, w, cb| s.write(sim, w, h, 0, data, cb)).unwrap();
        }
        if verb == Read {
            // Cold cache: the read needs its token and every block.
            settle(sim_, w_, |sim, w, cb| s.close(sim, w, h, cb)).unwrap();
            h = settle(sim_, w_, open(OpenFlags::Read)).unwrap();
            let inode = w_.clients[0].handles[&h].inode;
            w_.clients[0].pool.invalidate_file(fs, inode);
        }
        handle = Some(h);
    }
    (sim, w, s, handle)
}

/// Submit `verb`; `cb` gets its outcome with the value dropped.
fn submit(
    verb: Verb,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    s: Session,
    h: Option<Handle>,
    cb: client::Cb<Result<(), FsError>>,
) {
    use Verb::*;
    let h = || h.expect("the verb works on an open handle");
    let owner = Owner::local(1, 1);
    match verb {
        MountLocal | MountRemote => s.mount(
            sim,
            w,
            "hafs",
            gfs_auth::handshake::AccessMode::ReadWrite,
            cb,
        ),
        Mkdir => s.mkdir(sim, w, "/proj/new", owner, move |sim, w, r| {
            cb(sim, w, r.map(|_| ()))
        }),
        Stat => s.stat(sim, w, "/proj", move |sim, w, r| cb(sim, w, r.map(|_| ()))),
        Readdir => s.readdir(sim, w, "/proj", move |sim, w, r| cb(sim, w, r.map(|_| ()))),
        Open => s.open(
            sim,
            w,
            "/proj/new",
            OpenFlags::Write,
            owner,
            move |sim, w, r| cb(sim, w, r.map(|_| ())),
        ),
        Close => s.close(sim, w, h(), cb),
        Read => s.read(sim, w, h(), 0, SWEEP_BYTES as u64, move |sim, w, r| {
            cb(sim, w, r.map(|_| ()))
        }),
        Write => s.write(sim, w, h(), 1000, Bytes::from(vec![6u8; SWEEP_BYTES]), cb),
        Fsync => s.fsync(sim, w, h(), cb),
        Truncate => s.truncate(sim, w, h(), 50_000, cb),
        Unlink => s.unlink(sim, w, "/proj/f", cb),
        Rename => s.rename(sim, w, "/proj/f", "/proj/g", cb),
        AcquireLease => s.acquire_lease(sim, w, "/proj", cb),
        SurrenderLease => s.surrender_lease(sim, w, "/proj", cb),
    }
}

/// Partition the only client at each of 8 evenly spaced instants of every
/// verb's fault-free run, from its submission up to its completion. Healed
/// a second later, the verb completes exactly once with `Ok` and leaves a
/// world every invariant holds in — after a lease verb, the manager's lease
/// table agrees with the client's mirror. Never healed, it still completes
/// exactly once, with `Ok` or a typed error, and the simulation drains.
#[test]
fn every_session_verb_rides_out_a_client_partition() {
    use globalfs::gfs::{apply_fault, FaultKind};
    use Verb::*;
    let verbs = [
        MountLocal,
        MountRemote,
        Mkdir,
        Stat,
        Readdir,
        Open,
        Close,
        Read,
        Write,
        Fsync,
        Truncate,
        Unlink,
        Rename,
        AcquireLease,
        SurrenderLease,
    ];
    let partition = || FaultKind::Partition {
        node: "client-a".into(),
    };
    let mut failures = Vec::new();
    for verb in verbs {
        let (mut sim, mut w, s, h) = sweep_world(verb);
        let t0 = sim.now();
        let span = settle(&mut sim, &mut w, |sim, w, cb| {
            submit(verb, sim, w, s, h, cb)
        })
        .map(|()| sim.now().since(t0))
        .unwrap_or_else(|e| panic!("{verb:?} fails fault-free: {e:?}"));
        for heal in [true, false] {
            for k in 0..8 {
                let (mut sim, mut w, s, h) = sweep_world(verb);
                let at = sim.now() + span * k / 8;
                if k == 0 {
                    apply_fault(&mut sim, &mut w, partition());
                } else {
                    sim.at(at, move |sim, w| apply_fault(sim, w, partition()));
                }
                if heal {
                    sim.at(at + SimDuration::from_secs(1), |sim, w| {
                        apply_fault(
                            sim,
                            w,
                            FaultKind::Heal {
                                node: "client-a".into(),
                            },
                        )
                    });
                }
                let calls = Rc::new(std::cell::RefCell::new(Vec::new()));
                let log = calls.clone();
                submit(
                    verb,
                    &mut sim,
                    &mut w,
                    s,
                    h,
                    Box::new(move |_, _, r| log.borrow_mut().push(r)),
                );
                sim.run(&mut w);
                let calls = calls.borrow();
                let mut fail = |what: String| {
                    failures.push(format!(
                        "{verb:?} partitioned {k}/8 into {span}, healed {heal}: {what}"
                    ))
                };
                if calls.len() != 1 {
                    fail(format!("the callback fired {} times", calls.len()));
                    continue;
                }
                if sim.pending() != 0 {
                    fail(format!(
                        "{} events left after the run drained",
                        sim.pending()
                    ));
                }
                if !heal {
                    continue;
                }
                if calls[0] != Ok(()) {
                    fail(format!("{:?}", calls[0]));
                }
                let violations = globalfs::scenarios::chaos::world_invariants(&sim, &w);
                if !violations.is_empty() {
                    fail(format!("{violations:?}"));
                }
                let held = w.fss[0].leases.get("proj") == Some(&ClientId(0));
                let mirrored = w.clients[0].leases.contains(&(FsId(0), "proj".into()));
                let agreed = match verb {
                    AcquireLease => held && mirrored,
                    SurrenderLease => !held && !mirrored,
                    _ => true,
                };
                if !agreed {
                    fail(format!(
                        "lease table holds: {held}, client mirrors: {mirrored}"
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} case(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

// ---------------------------------------------------------------------
// Holder partitions: a recall rides out a flap of the context it recalls
// from, and expels only a holder no send reaches for the whole fuse
// ---------------------------------------------------------------------

/// What the partitioned holder A caches when another context's op needs
/// it back.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Holding {
    /// A dirty page of `/data/f` under A's write token; B's read of the
    /// file recalls the token.
    DirtyPage,
    /// The lease on `/proj` with a journaled mkdir, and a dirty page of
    /// `/data/f` outside the leased subtree; B's stat under `/proj`
    /// recalls the lease.
    Lease,
}

/// The bytes A writes to `/data/f`.
const HOLDER_BYTES: usize = 1000;

/// A drained world of three mounted contexts on one LAN: A holds per
/// `holding`, B makes the conflicting op (with `/data/f` open for reading),
/// C reads back afterwards. Returns A's and B's handles on `/data/f`.
fn holder_world(holding: Holding) -> (Sim<GfsWorld>, GfsWorld, FsId, [Session; 3], Handle, Handle) {
    let (mut sim, mut w, fs, ctxs) = lease_bed(60, 1, 3, false);
    w.fss[fs.0 as usize]
        .core
        .mkdir("/data", Owner::local(1, 1), 0)
        .unwrap();
    let ss = [0, 1, 2].map(|i| w.open_session(ctxs[i]));
    let [a, b, _] = ss;
    let rw = gfs_auth::handshake::AccessMode::ReadWrite;
    let (sim_, w_) = (&mut sim, &mut w);
    for s in ss {
        settle(sim_, w_, |sim, w, cb| s.mount(sim, w, "hafs", rw, cb)).unwrap();
    }
    let owner = || Owner::local(1, 1);
    let ha = settle(sim_, w_, |sim, w, cb| {
        a.open(sim, w, "/data/f", OpenFlags::ReadWrite, owner(), cb)
    })
    .unwrap();
    let data = Bytes::from(vec![0xa5; HOLDER_BYTES]);
    settle(sim_, w_, |sim, w, cb| a.write(sim, w, ha, 0, data, cb)).unwrap();
    if holding == Holding::Lease {
        settle(sim_, w_, |sim, w, cb| a.acquire_lease(sim, w, "/proj", cb)).unwrap();
        settle(sim_, w_, |sim, w, cb| {
            a.mkdir(sim, w, "/proj/d0", owner(), cb)
        })
        .unwrap();
        assert_eq!(
            w_.clients[0].journal.len(),
            1,
            "the mkdir must run at A's delegate"
        );
    }
    let hb = settle(sim_, w_, |sim, w, cb| {
        b.open(sim, w, "/data/f", OpenFlags::Read, owner(), cb)
    })
    .unwrap();
    (sim, w, fs, ss, ha, hb)
}

/// Submit B's conflicting op; `cb` gets the bytes B read (none for the
/// stat).
fn conflicting_op(
    holding: Holding,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    b: Session,
    hb: Handle,
    cb: client::Cb<Result<Option<Bytes>, FsError>>,
) {
    match holding {
        Holding::DirtyPage => b.read(sim, w, hb, 0, HOLDER_BYTES as u64, move |sim, w, r| {
            cb(sim, w, r.map(Some))
        }),
        Holding::Lease => b.stat(sim, w, "/proj/d0", move |sim, w, r| {
            cb(sim, w, r.map(|_| None))
        }),
    }
}

/// Has A given back what B's op recalls? Both happen in the event the
/// recall lands in, since A has nothing in flight.
fn recall_landed(holding: Holding, w: &GfsWorld, fs: FsId) -> bool {
    use globalfs::gfs::tokens::{ByteRange, TokenMode};
    let a = &w.clients[0];
    match holding {
        Holding::DirtyPage => {
            let f = w.fss[fs.0 as usize].core.lookup("/data/f").unwrap();
            !a.held_tokens
                .holds(fs, f, ByteRange::new(0, 1), TokenMode::Write)
        }
        Holding::Lease => !a.leases.contains(&(fs, "proj".into())),
    }
}

/// One holder-partition case: B's conflicting op starts at once, and A is
/// partitioned either right away (before the recall is sent) or the
/// instant the recall lands, then healed `heal` later or never. Returns
/// B's outcomes, the partition instant and B's completion instant.
struct HolderCase {
    sim: Sim<GfsWorld>,
    w: GfsWorld,
    fs: FsId,
    ss: [Session; 3],
    ha: Handle,
    outcomes: Vec<Result<Option<Bytes>, FsError>>,
    parted_at: globalfs::simcore::SimTime,
    done_at: Option<globalfs::simcore::SimTime>,
}

fn holder_case(holding: Holding, after_landing: bool, heal: Option<SimDuration>) -> HolderCase {
    use globalfs::gfs::{apply_fault, FaultKind};
    let (mut sim, mut w, fs, ss, ha, hb) = holder_world(holding);
    let log = Rc::new(std::cell::RefCell::new(Vec::new()));
    let done_at = Rc::new(Cell::new(None));
    {
        let (log, done_at) = (log.clone(), done_at.clone());
        conflicting_op(
            holding,
            &mut sim,
            &mut w,
            ss[1],
            hb,
            Box::new(move |sim, _, r| {
                log.borrow_mut().push(r);
                done_at.set(Some(sim.now()));
            }),
        );
    }
    if after_landing {
        assert!(
            sim.run_until(&mut w, |w| recall_landed(holding, w, fs)),
            "{holding:?}: the recall never landed"
        );
    }
    let parted_at = sim.now();
    let node = || "client-a".to_string();
    apply_fault(&mut sim, &mut w, FaultKind::Partition { node: node() });
    if let Some(d) = heal {
        sim.at(parted_at + d, move |sim, w| {
            apply_fault(sim, w, FaultKind::Heal { node: node() })
        });
    }
    sim.run(&mut w);
    let outcomes = log.borrow_mut().drain(..).collect();
    HolderCase {
        sim,
        w,
        fs,
        ss,
        ha,
        outcomes,
        parted_at,
        done_at: done_at.get(),
    }
}

/// The holder-partition sweep. A token holder with a dirty page and a lease
/// holder with a journaled mkdir (and a dirty page outside the subtree) are
/// each partitioned before the recall is sent or the instant it lands, and
/// healed after 20 ms, after 1 s, or never.
///
/// Healed, nobody is expelled and nothing is discarded: B's op completes
/// and a fresh context reads A's bytes. Healed after 20 ms, B's op
/// completes within 0.2 s of the partition: a request A sent into the
/// partition (its journal reconcile) goes out again every `retry_base`
/// instead of waiting out the 1.5 s watchdog. Never healed, A is expelled exactly
/// once, no earlier than `lease_break_timeout` after the first send that
/// failed to land (the partition instant, or one `retry_base` after the
/// landing), B's op still completes, and A's next fsync reports the loss.
#[test]
fn a_partitioned_holder_is_recalled_or_expelled_once() {
    use globalfs::gfs::RecoveryWhat;
    let mut failures = Vec::new();
    for holding in [Holding::DirtyPage, Holding::Lease] {
        for after_landing in [false, true] {
            for heal in [
                Some(SimDuration::from_millis(20)),
                Some(SimDuration::from_secs(1)),
                None,
            ] {
                let mut t = holder_case(holding, after_landing, heal);
                let mut fail = |what: String| {
                    failures.push(format!(
                        "{holding:?}, partitioned {} the landing, healed after {heal:?}: {what}",
                        if after_landing { "at" } else { "before" }
                    ))
                };
                if t.outcomes.len() != 1 || t.outcomes[0].is_err() {
                    fail(format!("B's op ended {:?}", t.outcomes));
                    continue;
                }
                if t.sim.pending() != 0 {
                    fail(format!(
                        "{} events left after the run drained",
                        t.sim.pending()
                    ));
                }
                let expelled_at: Vec<_> =
                    t.w.recovery
                        .events
                        .iter()
                        .filter(|e| matches!(e.what, RecoveryWhat::Expelled { .. }))
                        .map(|e| e.at)
                        .collect();
                let discarded =
                    t.w.recovery
                        .count(|e| matches!(e, RecoveryWhat::DirtyPagesDiscarded { .. }));
                let (a, c) = (t.ss[0], t.ss[2]);
                let ha = t.ha;
                let fsync = settle(&mut t.sim, &mut t.w, |sim, w, cb| a.fsync(sim, w, ha, cb));
                if heal.is_none() {
                    let fuse = t.w.costs.lease_break_timeout;
                    if expelled_at.len() != 1 || discarded != 1 {
                        fail(format!(
                            "{} expulsion(s), {discarded} discard(s)",
                            expelled_at.len()
                        ));
                    } else if expelled_at[0] < t.parted_at + fuse {
                        fail(format!(
                            "expelled {} after the partition, inside the {fuse} fuse",
                            expelled_at[0].since(t.parted_at)
                        ));
                    }
                    if fsync != Err(FsError::Timeout) {
                        fail(format!("A's fsync after the expulsion returned {fsync:?}"));
                    }
                    continue;
                }
                let took = t.done_at.map(|d| d.since(t.parted_at));
                let prompt = SimDuration::from_millis(200);
                if heal == Some(SimDuration::from_millis(20)) && took.is_none_or(|d| d > prompt) {
                    fail(format!("B done after {took:?}, past {prompt}"));
                }
                if !expelled_at.is_empty() || discarded != 0 {
                    fail(format!(
                        "{} expulsion(s), {discarded} discard(s), B done after {:?}",
                        expelled_at.len(),
                        t.done_at.map(|d| d.since(t.parted_at))
                    ));
                }
                if fsync != Ok(()) {
                    fail(format!("A's fsync returned {fsync:?}"));
                }
                let hc = settle(&mut t.sim, &mut t.w, |sim, w, cb| {
                    c.open(sim, w, "/data/f", OpenFlags::Read, Owner::local(1, 1), cb)
                })
                .unwrap();
                let got = settle(&mut t.sim, &mut t.w, |sim, w, cb| {
                    c.read(sim, w, hc, 0, HOLDER_BYTES as u64, cb)
                });
                if !got.as_ref().is_ok_and(|b| b.iter().all(|&x| x == 0xa5)) {
                    fail("a fresh context does not read A's bytes".into());
                }
                let violations = globalfs::scenarios::chaos::world_invariants(&t.sim, &t.w);
                if !violations.is_empty() {
                    fail(format!("{violations:?}"));
                }
                let _ = t.fs;
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} case(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A lease holder partitioned for 20, 50 or 500 ms as B's conflicting stat
/// starts: the recall's sends fail while the flap lasts and the first one
/// after the heal lands, so the stat completes within one `retry_base` of
/// the heal, as a token recall's reader does. Nobody is expelled, and the
/// holder's unrelated write outside the leased subtree reaches the disk.
#[test]
fn a_lease_holder_flap_shorter_than_the_fuse_expels_nobody() {
    for ms in [20, 50, 500] {
        let flap = SimDuration::from_millis(ms);
        let mut t = holder_case(Holding::Lease, false, Some(flap));
        assert!(
            matches!(t.outcomes[..], [Ok(None)]),
            "{ms} ms: B's stat ended {:?}",
            t.outcomes
        );
        let healed = t.parted_at + flap;
        let done = t.done_at.expect("B's stat completed");
        assert!(
            done <= healed + t.w.costs.retry_base,
            "{ms} ms: B's stat completed {} after the heal",
            done.since(healed)
        );
        let inst = &t.w.fss[t.fs.0 as usize];
        assert_eq!(
            inst.expulsions, 0,
            "{ms} ms: a flap under the fuse expelled the holder"
        );
        assert_eq!(inst.lease_breaks, 1);
        assert!(inst.leases.is_empty() && inst.recalls.is_empty());
        let (a, c, ha) = (t.ss[0], t.ss[2], t.ha);
        settle(&mut t.sim, &mut t.w, |sim, w, cb| a.fsync(sim, w, ha, cb)).unwrap();
        let hc = settle(&mut t.sim, &mut t.w, |sim, w, cb| {
            c.open(sim, w, "/data/f", OpenFlags::Read, Owner::local(1, 1), cb)
        })
        .unwrap();
        let got = settle(&mut t.sim, &mut t.w, |sim, w, cb| {
            c.read(sim, w, hc, 0, HOLDER_BYTES as u64, cb)
        })
        .unwrap();
        assert!(
            got.iter().all(|&x| x == 0xa5),
            "{ms} ms: the holder's write was lost"
        );
        let violations = globalfs::scenarios::chaos::world_invariants(&t.sim, &t.w);
        assert!(violations.is_empty(), "{ms} ms: {violations:?}");
    }
}

/// A holder re-acquires its own lease while B's conflicting stat recalls
/// it: A's acquire goes 0–790 µs after B's stat, in 10 µs steps. An
/// acquire waits while a recall of the subtree is under way, so the
/// recall's ack cannot clear a grant made after it started: at every
/// offset both ops complete and the manager's lease table agrees with the
/// mirrors.
#[test]
fn a_re_acquire_during_a_recall_leaves_no_one_sided_lease() {
    let mut failures = Vec::new();
    for k in 0..80u64 {
        let (mut sim, mut w, _fs, ss, _ha, hb) = holder_world(Holding::Lease);
        let [a, b, _] = ss;
        let calls = Rc::new(Cell::new(0));
        let ok = calls.clone();
        conflicting_op(
            Holding::Lease,
            &mut sim,
            &mut w,
            b,
            hb,
            Box::new(move |_, _, r| {
                r.unwrap();
                ok.set(ok.get() + 1);
            }),
        );
        let ok = calls.clone();
        sim.after(SimDuration::from_micros(10 * k), move |sim, w| {
            a.acquire_lease(sim, w, "/proj", move |_, _, r| {
                r.unwrap();
                ok.set(ok.get() + 1);
            })
        });
        sim.run(&mut w);
        if calls.get() != 2 {
            failures.push(format!("{} µs: {} of 2 ops completed", 10 * k, calls.get()));
            continue;
        }
        let violations = globalfs::scenarios::chaos::world_invariants(&sim, &w);
        if !violations.is_empty() {
            failures.push(format!("{} µs: {violations:?}", 10 * k));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of 80 offsets failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
