//! Workload driver: the one interpreter of a [`workloads::Workload`] phase
//! list; every scenario that runs one runs it here. A run has one of two
//! targets ([`Target`]):
//!
//! * a mount context's streaming path (figure-scale runs): each read or
//!   write phase is one flow-level stream across every live NSD
//!   connection ([`gfs_stream`]);
//! * an open [`Session`] handle (correctness-scale runs): each phase is
//!   one `Session` call through tokens, the page pool and the NSD path.
//!
//! [`run_files`] wraps the handle target in open → run → close for each
//! of a list of paths. On a handle the first error ends the run.
//! [`collective`] runs one phase list per rank on a shared file, MPI-IO
//! style, with a barrier behind the slowest rank.

use crate::builder::pattern_bytes;
use gfs::session::Session;
use gfs::stream::{gfs_stream, StreamDir};
use gfs::types::{ClientId, FsError, FsId, Handle, OpenFlags, Owner};
use gfs::world::GfsWorld;
use simcore::{Join, Sim, SimTime};
use workloads::{Phase, Workload};

/// Statistics from a completed workload run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkloadStats {
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub written_bytes: u64,
    /// When the workload finished.
    pub finished_at: SimTime,
}

/// Where a run's phases go.
#[derive(Clone, Copy, Debug)]
pub enum Target {
    /// Flow-level streams of mount context `ctx` against `fs`, tagged
    /// `tag` for monitoring. A phase at an offset streams the same bytes
    /// as its sequential twin.
    Stream {
        /// The streaming mount context.
        ctx: ClientId,
        /// Target filesystem.
        fs: FsId,
        /// Monitoring tag.
        tag: u32,
    },
    /// Calls on a handle `sess` holds open. `Read` and `Write` proceed
    /// sequentially from offset 0, `ReadAt` and `WriteAt` move their bytes
    /// where they say, and a write carries the file's [`pattern_bytes`] at
    /// its offset.
    Handle {
        /// The session owning the handle.
        sess: Session,
        /// The open handle.
        handle: Handle,
    },
}

/// A run's completion: its totals, or the first error on a handle.
type Done = Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<WorkloadStats, FsError>)>;

/// One run in progress: what is left of its phases and what it moved.
struct Run {
    target: Target,
    phases: std::vec::IntoIter<Phase>,
    /// Offset of the next sequential `Read` or `Write` on a handle.
    cursor: u64,
    stats: WorkloadStats,
    done: Done,
}

/// Run `workload` against `target`; `on_done` receives the totals, or the
/// first error when the target is a handle.
pub fn run(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    target: Target,
    workload: Workload,
    on_done: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<WorkloadStats, FsError>) + 'static,
) {
    let run = Box::new(Run {
        target,
        phases: workload.phases.into_iter(),
        cursor: 0,
        stats: WorkloadStats::default(),
        done: Box::new(on_done),
    });
    step(sim, w, run);
}

fn step(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, mut run: Box<Run>) {
    let Some(phase) = run.phases.next() else {
        run.stats.finished_at = sim.now();
        (run.done)(sim, w, Ok(run.stats));
        return;
    };
    match (run.target, phase) {
        (_, Phase::Compute(d)) => sim.after(d, move |sim, w| step(sim, w, run)),
        (Target::Stream { ctx, fs, tag }, phase) => {
            let bytes = phase.bytes();
            let dir = match phase {
                Phase::Write { .. } | Phase::WriteAt { .. } => StreamDir::Write,
                _ => StreamDir::Read,
            };
            gfs_stream(sim, w, ctx, fs, bytes, dir, tag, move |sim, w| {
                match dir {
                    StreamDir::Write => run.stats.written_bytes += bytes,
                    StreamDir::Read => run.stats.read_bytes += bytes,
                }
                step(sim, w, run)
            });
        }
        (
            Target::Handle { sess, handle },
            phase @ (Phase::Write { .. } | Phase::WriteAt { .. }),
        ) => {
            let (offset, bytes) = (phase.offset().unwrap_or(run.cursor), phase.bytes());
            let sequential = phase.offset().is_none();
            let data = pattern_bytes(offset, bytes);
            sess.write(sim, w, handle, offset, data, move |sim, w, r| match r {
                Ok(()) => {
                    if sequential {
                        run.cursor += bytes;
                    }
                    run.stats.written_bytes += bytes;
                    step(sim, w, run)
                }
                Err(e) => (run.done)(sim, w, Err(e)),
            });
        }
        (Target::Handle { sess, handle }, phase) => {
            let offset = phase.offset().unwrap_or(run.cursor);
            let sequential = phase.offset().is_none();
            sess.read(sim, w, handle, offset, phase.bytes(), move |sim, w, r| match r {
                Ok(data) => {
                    if sequential {
                        run.cursor += data.len() as u64;
                    }
                    run.stats.read_bytes += data.len() as u64;
                    step(sim, w, run)
                }
                Err(e) => (run.done)(sim, w, Err(e)),
            });
        }
    }
}

/// `bytes` as `chunk`-sized sequential phases: writes for
/// [`StreamDir::Write`], reads for [`StreamDir::Read`].
pub fn chunked(dir: StreamDir, bytes: u64, chunk: u64) -> Workload {
    let phases = workloads::chunks(bytes, chunk)
        .map(|bytes| match dir {
            StreamDir::Write => Phase::Write { bytes },
            StreamDir::Read => Phase::Read { bytes },
        })
        .collect();
    Workload {
        name: "chunked".into(),
        phases,
    }
}

/// For each of `paths` in turn: open it through `sess` with `flags` as
/// `Owner::local(0, 0)`, run `workload` on the handle, close it. `on_done`
/// receives the summed totals, or the first error, which ends the run.
pub fn run_files(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    paths: Vec<String>,
    flags: OpenFlags,
    workload: Workload,
    on_done: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<WorkloadStats, FsError>) + 'static,
) {
    let files = Files {
        sess,
        paths: paths.into_iter(),
        flags,
        workload,
        total: WorkloadStats::default(),
        done: Box::new(on_done),
    };
    next_file(sim, w, files);
}

/// An MPI-IO-style collective on the shared file `path`: every rank runs
/// its phase list through [`run_files`] on its own session, all at once.
/// `on_done` fires at the barrier, when the slowest rank is back, with the
/// first error if a rank failed.
pub fn collective(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    path: &str,
    flags: OpenFlags,
    ranks: Vec<(Session, Workload)>,
    on_done: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let barrier = Join::new(ranks.len(), on_done);
    for (sess, workload) in ranks {
        let barrier = barrier.clone();
        let paths = vec![path.to_string()];
        run_files(sim, w, sess, paths, flags, workload, move |sim, w, r| {
            barrier.arrive(sim, w, r.map(drop))
        });
    }
    barrier.seal(sim, w);
}

/// A [`run_files`] in progress.
struct Files {
    sess: Session,
    paths: std::vec::IntoIter<String>,
    flags: OpenFlags,
    workload: Workload,
    total: WorkloadStats,
    done: Done,
}

fn next_file(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, mut files: Files) {
    let Some(path) = files.paths.next() else {
        files.total.finished_at = sim.now();
        (files.done)(sim, w, Ok(files.total));
        return;
    };
    let (sess, flags) = (files.sess, files.flags);
    sess.open(sim, w, &path, flags, Owner::local(0, 0), move |sim, w, r| {
        let handle = match r {
            Ok(h) => h,
            Err(e) => return (files.done)(sim, w, Err(e)),
        };
        let target = Target::Handle { sess, handle };
        run(sim, w, target, files.workload.clone(), move |sim, w, r| {
            let stats = match r {
                Ok(s) => s,
                Err(e) => return (files.done)(sim, w, Err(e)),
            };
            sess.close(sim, w, handle, move |sim, w, r| match r {
                Ok(()) => {
                    files.total.read_bytes += stats.read_bytes;
                    files.total.written_bytes += stats.written_bytes;
                    next_file(sim, w, files)
                }
                Err(e) => (files.done)(sim, w, Err(e)),
            });
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs::fscore::FsConfig;
    use gfs::world::{FsParams, WorldBuilder};
    use gfs_auth::handshake::AccessMode;
    use simcore::{Bandwidth, SimDuration, GBYTE, MBYTE};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use workloads::{scec, sort, visualization};

    fn world() -> (Sim<GfsWorld>, GfsWorld, ClientId, FsId) {
        let mut b = WorldBuilder::new(31);
        b.key_bits(384);
        let srv = b.topo().node("srv");
        let cli = b.topo().node("cli");
        b.topo().duplex_link(cli, srv, Bandwidth::gbit(10.0), SimDuration::from_millis(5), "l");
        let c = b.cluster("drv");
        let fs = b.filesystem(
            c,
            FsParams::ideal(
                FsConfig::small_test("wl"),
                srv,
                vec![srv],
                Bandwidth::gbyte(2.0),
                SimDuration::from_micros(100),
            ),
        );
        let client = b.client(c, cli, 512);
        let (sim, w) = b.build();
        (sim, w, client, fs)
    }

    /// Stream `wl` from the world's client and return its totals.
    fn streamed(wl: Workload) -> WorkloadStats {
        let (mut sim, mut w, ctx, fs) = world();
        let out = Rc::new(Cell::new(WorkloadStats::default()));
        let o = out.clone();
        let target = Target::Stream { ctx, fs, tag: 1 };
        run(&mut sim, &mut w, target, wl, move |_s, _w, st| o.set(st.unwrap()));
        sim.run(&mut w);
        out.get()
    }

    #[test]
    fn scec_stream_moves_all_bytes() {
        let st = streamed(scec(10 * GBYTE, GBYTE));
        assert_eq!(st.written_bytes, 10 * GBYTE);
        assert!(st.finished_at > SimTime::ZERO);
    }

    #[test]
    fn sort_reads_then_writes() {
        let st = streamed(sort(4 * GBYTE));
        assert_eq!(st.read_bytes, 4 * GBYTE);
        assert_eq!(st.written_bytes, 4 * GBYTE);
    }

    #[test]
    fn visualization_pacing_adds_compute_time() {
        // 10 frames x 100 MB at >= 1 GB/s: I/O ~1s; compute 10 x 1 s.
        let st = streamed(visualization(10, 100 * MBYTE, SimDuration::from_secs(1)));
        let t = st.finished_at.as_secs_f64();
        assert!(t >= 10.0, "frame pacing ignored: {t}s");
        assert!(t < 13.0, "too slow: {t}s");
    }

    #[test]
    fn chunked_splits_the_tail() {
        let wl = chunked(StreamDir::Write, 10, 4);
        let sizes: Vec<u64> = wl.phases.iter().map(Phase::bytes).collect();
        assert_eq!(sizes, [4, 4, 2]);
        assert!(chunked(StreamDir::Read, 0, 4).phases.is_empty());
    }

    #[test]
    fn handle_target_runs_mixed_workload_with_real_files() {
        let (mut sim, mut w, client, _fs) = world();
        let done: Rc<RefCell<Option<WorkloadStats>>> = Rc::new(RefCell::new(None));
        let d = done.clone();
        let sess = w.open_session(client);
        sess.mount(&mut sim, &mut w, "wl", AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            sess.open(sim, w, "/mixed", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
                let handle = r.unwrap();
                let wl = Workload {
                    name: "mixed".into(),
                    phases: vec![
                        Phase::Write { bytes: 200_000 },
                        Phase::Compute(SimDuration::from_millis(10)),
                        Phase::ReadAt { offset: 50_000, bytes: 10_000 },
                        Phase::Write { bytes: 100_000 },
                    ],
                };
                run(sim, w, Target::Handle { sess, handle }, wl, move |_s, _w, r| {
                    *d.borrow_mut() = Some(r.unwrap());
                });
            });
        });
        sim.run(&mut w);
        let st = done.borrow_mut().take().expect("workload completed");
        assert_eq!(st.written_bytes, 300_000);
        assert_eq!(st.read_bytes, 10_000);
        // The file reflects the sequential writes: 200k at 0, 100k at 200k.
        assert_eq!(w.fss[0].core.stat("/mixed").unwrap().size, 300_000);
    }

    /// `n` ranks on their own nodes behind one switch, each a session of
    /// its own mount context, mounted on the one filesystem.
    fn ranks(n: usize) -> (Sim<GfsWorld>, GfsWorld, Vec<Session>) {
        let mut b = WorldBuilder::new(9);
        b.key_bits(384);
        let sw = b.topo().node("switch");
        let mgr = b.topo().node("mgr");
        let (bw, lat) = (Bandwidth::gbit(10.0), SimDuration::from_micros(50));
        b.topo().duplex_link(mgr, sw, bw, lat, "mgr");
        let c = b.cluster("c");
        let params = FsParams::ideal(
            FsConfig::small_test("pfs"),
            mgr,
            vec![mgr],
            Bandwidth::gbyte(1.0),
            SimDuration::from_micros(200),
        );
        b.filesystem(c, params);
        let ctxs: Vec<ClientId> = (0..n)
            .map(|i| {
                let node = b.topo().node(format!("rank{i}"));
                let (bw, lat) = (Bandwidth::gbit(1.0), SimDuration::from_micros(50));
                b.topo().duplex_link(node, sw, bw, lat, format!("r{i}"));
                b.client(c, node, 256)
            })
            .collect();
        let (mut sim, mut w) = b.build();
        let ranks: Vec<Session> = ctxs.into_iter().map(|c| w.open_session(c)).collect();
        for &r in &ranks {
            r.mount(&mut sim, &mut w, "pfs", AccessMode::ReadWrite, |_, _, r| {
                r.unwrap()
            });
        }
        sim.run(&mut w);
        (sim, w, ranks)
    }

    /// Run a collective in which rank `r` moves its `block` of "/mpi.dat"
    /// in `transfer`-sized ops; its result and the instant of the barrier.
    fn blocked(
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        ranks: &[Session],
        (block, transfer): (u64, u64),
        write: bool,
    ) -> (Result<(), FsError>, SimTime) {
        let ranks = ranks
            .iter()
            .enumerate()
            .map(|(r, &s)| (s, workloads::mpi_blocked(r as u64, block, transfer, write)))
            .collect();
        let flags = match write {
            true => OpenFlags::ReadWrite,
            false => OpenFlags::Read,
        };
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        collective(sim, w, "/mpi.dat", flags, ranks, move |sim, _, r| {
            *o.borrow_mut() = Some((r, sim.now()))
        });
        sim.run(w);
        let r = out.borrow_mut().take();
        r.expect("the barrier fired")
    }

    #[test]
    fn every_rank_opens_the_shared_file() {
        let (mut sim, mut w, ranks) = ranks(4);
        let pattern = (256 * 1024, 64 * 1024);
        let (r, _) = blocked(&mut sim, &mut w, &ranks, pattern, true);
        r.unwrap();
        // Every rank opened the file and wrote its own block there.
        assert_eq!(w.fss[0].core.stat("/mpi.dat").unwrap().size, 4 * pattern.0);
    }

    #[test]
    fn disjoint_ranks_write_then_read_without_revocations() {
        let (mut sim, mut w, ranks) = ranks(4);
        let pattern = (256 * 1024, 64 * 1024); // 4 blocks of 64 KiB per rank
        blocked(&mut sim, &mut w, &ranks, pattern, true).0.unwrap();
        blocked(&mut sim, &mut w, &ranks, pattern, false).0.unwrap();
        // Disjoint regions: the token manager never revoked anything.
        assert_eq!(w.fss[0].tokens.revocations, 0);
        assert_eq!(w.fss[0].core.stat("/mpi.dat").unwrap().size, 4 * pattern.0);
    }

    #[test]
    fn more_ranks_more_aggregate_throughput() {
        // The collective's time for fixed per-rank work stays nearly flat
        // as ranks grow, until a shared bottleneck: aggregate throughput
        // scales (the Fig. 11 premise).
        let times: Vec<f64> = [1, 4]
            .into_iter()
            .map(|n| {
                let (mut sim, mut w, ranks) = ranks(n);
                let start = sim.now();
                let (r, end) = blocked(&mut sim, &mut w, &ranks, (512 * 1024, 64 * 1024), true);
                r.unwrap();
                end.since(start).as_secs_f64()
            })
            .collect();
        // 4 ranks move 4x the data; perfect scaling would keep the times
        // equal. Allow 2x, not worse.
        let (one, four) = (times[0], times[1]);
        assert!(four < one * 2.0, "4 ranks {four}s vs 1 rank {one}s");
    }

    #[test]
    fn run_files_writes_the_pattern_and_stops_at_the_first_error() {
        let (mut sim, mut w, client, _fs) = world();
        let sess = w.open_session(client);
        let out: Rc<RefCell<Vec<Result<WorkloadStats, FsError>>>> = Rc::default();
        let (o1, o2) = (out.clone(), out.clone());
        sess.mount(&mut sim, &mut w, "wl", AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            let paths = vec!["/a".to_string(), "/b".to_string()];
            let wl = chunked(StreamDir::Write, 100_000, 30_000);
            run_files(sim, w, sess, paths, OpenFlags::Write, wl, move |sim, w, r| {
                o1.borrow_mut().push(r);
                // Reading a missing file fails at its open; the run ends there.
                let paths = vec!["/a".to_string(), "/missing".to_string(), "/b".to_string()];
                let wl = chunked(StreamDir::Read, 100_000, 30_000);
                run_files(sim, w, sess, paths, OpenFlags::Read, wl, move |_, _, r| {
                    o2.borrow_mut().push(r)
                });
            });
        });
        sim.run(&mut w);
        let out = out.borrow();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].as_ref().unwrap().written_bytes, 200_000);
        assert!(matches!(out[1], Err(FsError::NotFound(_))), "{:?}", out[1]);
        let core = &w.fss[0].core;
        for path in ["/a", "/b"] {
            let ino = core.lookup(path).unwrap();
            assert_eq!(core.stat(path).unwrap().size, 100_000);
            let addr = core.block_map(ino, 0, 1).unwrap()[0].1.unwrap();
            let block = core.get_block_data(addr);
            assert_eq!(&block[..1000], &pattern_bytes(0, 1000)[..], "{path}");
        }
    }
}
