//! Workload driver: executes a [`workloads::Workload`] phase list against
//! a mounted filesystem, through either the streaming path (figure-scale
//! runs) or the per-operation session path (correctness-scale runs).

use gfs::session::Session;
use gfs::stream::{gfs_stream, StreamDir};
use gfs::types::{ClientId, FsError, FsId, Handle};
use gfs::world::GfsWorld;
use simcore::{Sim, SimTime};
use std::cell::Cell;
use std::rc::Rc;
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

/// Run a workload through the streaming path; `on_done` receives totals.
pub fn run_streamed(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    workload: Workload,
    tag: u32,
    on_done: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, WorkloadStats) + 'static,
) {
    let stats = Rc::new(Cell::new(WorkloadStats::default()));
    step_streamed(
        sim,
        w,
        client,
        fs,
        workload.phases,
        tag,
        stats,
        Box::new(on_done),
    );
}

#[allow(clippy::too_many_arguments)]
fn step_streamed(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    mut phases: Vec<Phase>,
    tag: u32,
    stats: Rc<Cell<WorkloadStats>>,
    on_done: Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, WorkloadStats)>,
) {
    if phases.is_empty() {
        let mut s = stats.get();
        s.finished_at = sim.now();
        on_done(sim, w, s);
        return;
    }
    let phase = phases.remove(0);
    match phase {
        Phase::Compute(d) => {
            sim.after(d, move |sim, w| {
                step_streamed(sim, w, client, fs, phases, tag, stats, on_done)
            });
        }
        Phase::Write { bytes } => {
            gfs_stream(sim, w, client, fs, bytes, StreamDir::Write, tag, move |sim, w| {
                let mut s = stats.get();
                s.written_bytes += bytes;
                stats.set(s);
                step_streamed(sim, w, client, fs, phases, tag, stats, on_done);
            });
        }
        Phase::Read { bytes } | Phase::ReadAt { bytes, .. } => {
            gfs_stream(sim, w, client, fs, bytes, StreamDir::Read, tag, move |sim, w| {
                let mut s = stats.get();
                s.read_bytes += bytes;
                stats.set(s);
                step_streamed(sim, w, client, fs, phases, tag, stats, on_done);
            });
        }
    }
}

/// Run a workload through the real operation path against a handle `sess`
/// holds open (`ReadAt` honours offsets; `Read`/`Write` proceed
/// sequentially).
pub fn run_ops(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    handle: Handle,
    workload: Workload,
    on_done: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<WorkloadStats, FsError>) + 'static,
) {
    let stats = Rc::new(Cell::new(WorkloadStats::default()));
    step_ops(
        sim,
        w,
        sess,
        handle,
        workload.phases,
        0,
        stats,
        Box::new(on_done),
    );
}

#[allow(clippy::too_many_arguments)]
fn step_ops(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    handle: Handle,
    mut phases: Vec<Phase>,
    cursor: u64,
    stats: Rc<Cell<WorkloadStats>>,
    on_done: Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<WorkloadStats, FsError>)>,
) {
    if phases.is_empty() {
        let mut s = stats.get();
        s.finished_at = sim.now();
        on_done(sim, w, Ok(s));
        return;
    }
    let phase = phases.remove(0);
    match phase {
        Phase::Compute(d) => {
            sim.after(d, move |sim, w| {
                step_ops(sim, w, sess, handle, phases, cursor, stats, on_done)
            });
        }
        Phase::Write { bytes } => {
            let data = bytes::Bytes::from(vec![0x42u8; bytes as usize]);
            sess.write(sim, w, handle, cursor, data, move |sim, w, r| match r {
                Ok(()) => {
                    let mut s = stats.get();
                    s.written_bytes += bytes;
                    stats.set(s);
                    step_ops(sim, w, sess, handle, phases, cursor + bytes, stats, on_done)
                }
                Err(e) => on_done(sim, w, Err(e)),
            });
        }
        Phase::Read { bytes } => {
            sess.read(sim, w, handle, cursor, bytes, move |sim, w, r| match r {
                Ok(data) => {
                    let mut s = stats.get();
                    s.read_bytes += data.len() as u64;
                    stats.set(s);
                    step_ops(
                        sim,
                        w,
                        sess,
                        handle,
                        phases,
                        cursor + data.len() as u64,
                        stats,
                        on_done,
                    )
                }
                Err(e) => on_done(sim, w, Err(e)),
            });
        }
        Phase::ReadAt { offset, bytes } => {
            sess.read(sim, w, handle, offset, bytes, move |sim, w, r| match r {
                Ok(data) => {
                    let mut s = stats.get();
                    s.read_bytes += data.len() as u64;
                    stats.set(s);
                    step_ops(sim, w, sess, handle, phases, cursor, stats, on_done)
                }
                Err(e) => on_done(sim, w, Err(e)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs::fscore::FsConfig;
    use gfs::types::{OpenFlags, Owner};
    use gfs::world::{FsParams, WorldBuilder};
    use gfs_auth::handshake::AccessMode;
    use simcore::{Bandwidth, SimDuration, GBYTE, MBYTE};
    use std::cell::RefCell;
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

    #[test]
    fn scec_stream_moves_all_bytes() {
        let (mut sim, mut w, client, fs) = world();
        let wl = scec(10 * GBYTE, GBYTE);
        let out = Rc::new(Cell::new(WorkloadStats::default()));
        let o = out.clone();
        run_streamed(&mut sim, &mut w, client, fs, wl, 1, move |_s, _w, st| {
            o.set(st)
        });
        sim.run(&mut w);
        assert_eq!(out.get().written_bytes, 10 * GBYTE);
        assert!(out.get().finished_at > SimTime::ZERO);
    }

    #[test]
    fn sort_reads_then_writes() {
        let (mut sim, mut w, client, fs) = world();
        let wl = sort(4 * GBYTE);
        let out = Rc::new(Cell::new(WorkloadStats::default()));
        let o = out.clone();
        run_streamed(&mut sim, &mut w, client, fs, wl, 1, move |_s, _w, st| {
            o.set(st)
        });
        sim.run(&mut w);
        assert_eq!(out.get().read_bytes, 4 * GBYTE);
        assert_eq!(out.get().written_bytes, 4 * GBYTE);
    }

    #[test]
    fn visualization_pacing_adds_compute_time() {
        let (mut sim, mut w, client, fs) = world();
        // 10 frames x 100 MB at >= 1 GB/s: I/O ~1s; compute 10 x 1 s.
        let wl = visualization(10, 100 * MBYTE, SimDuration::from_secs(1));
        let out = Rc::new(Cell::new(WorkloadStats::default()));
        let o = out.clone();
        run_streamed(&mut sim, &mut w, client, fs, wl, 1, move |_s, _w, st| {
            o.set(st)
        });
        sim.run(&mut w);
        let t = out.get().finished_at.as_secs_f64();
        assert!(t >= 10.0, "frame pacing ignored: {t}s");
        assert!(t < 13.0, "too slow: {t}s");
    }

    #[test]
    fn ops_path_runs_mixed_workload_with_real_files() {
        let (mut sim, mut w, client, fs) = world();
        let _ = fs;
        let done: Rc<RefCell<Option<WorkloadStats>>> = Rc::new(RefCell::new(None));
        let d = done.clone();
        let sess = w.open_session(client);
        sess.mount(&mut sim, &mut w, "wl", AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            sess.open(sim, w, "/mixed", OpenFlags::ReadWrite, Owner::local(1, 1), move |sim, w, r| {
                let h = r.unwrap();
                let wl = Workload {
                    name: "mixed".into(),
                    phases: vec![
                        Phase::Write { bytes: 200_000 },
                        Phase::Compute(SimDuration::from_millis(10)),
                        Phase::ReadAt { offset: 50_000, bytes: 10_000 },
                        Phase::Write { bytes: 100_000 },
                    ],
                };
                run_ops(sim, w, sess, h, wl, move |_s, _w, r| {
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
}
