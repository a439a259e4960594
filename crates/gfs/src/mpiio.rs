//! MPI-IO layer: collective file operations across a set of ranks.
//!
//! Reproduces the access pattern of the paper's Fig. 11 benchmark — "MPI
//! IO, 128 MB Block Size, 1 MB Transfer Size": each rank owns a contiguous
//! block of the file and moves it in transfer-sized operations; the
//! collective completes when the slowest rank finishes (a barrier).
//!
//! Because each rank's region is disjoint, the token manager grants every
//! rank an independent byte-range token and steady state has **zero token
//! traffic** — the property that lets GPFS scale MPI-IO nearly linearly
//! until the network or disks saturate.

use crate::client::Cb;
use crate::session::Session;
use crate::types::{FsError, Handle, OpenFlags, Owner};
use crate::world::GfsWorld;
use bytes::Bytes;
use simcore::Sim;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A file opened collectively by a set of ranks.
#[derive(Clone, Debug)]
pub struct MpiFile {
    /// Participating sessions (one per rank's mount context), rank order.
    pub ranks: Vec<Session>,
    /// Per-rank open handle, rank order.
    pub handles: Vec<Handle>,
}

/// Collectively open `path` at every rank. Every rank's session must
/// already be bound to a mounted device.
pub fn open_all(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    ranks: Vec<Session>,
    path: &str,
    flags: OpenFlags,
    owner: Owner,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<MpiFile, FsError>) + 'static,
) {
    assert!(!ranks.is_empty(), "collective open needs ranks");
    let n = ranks.len();
    let handles: Rc<RefCell<Vec<Option<Handle>>>> = Rc::new(RefCell::new(vec![None; n]));
    let failed: Rc<RefCell<Option<FsError>>> = Rc::new(RefCell::new(None));
    let remaining = Rc::new(Cell::new(n));
    let cb: Rc<RefCell<Option<Cb<Result<MpiFile, FsError>>>>> =
        Rc::new(RefCell::new(Some(Box::new(cb))));
    // Rank 0 opens first (it may create the file); the rest follow to
    // avoid create races — the standard MPI-IO implementation ordering.
    let rest: Vec<(usize, Session)> = ranks.iter().copied().enumerate().skip(1).collect();
    let path = path.to_string();
    let ranks2 = ranks.clone();
    let arrive = move |sim: &mut Sim<GfsWorld>,
                       w: &mut GfsWorld,
                       handles: &Rc<RefCell<Vec<Option<Handle>>>>,
                       failed: &Rc<RefCell<Option<FsError>>>,
                       remaining: &Rc<Cell<usize>>,
                       cb: &Rc<RefCell<Option<Cb<Result<MpiFile, FsError>>>>>,
                       ranks: &[Session]| {
        let left = remaining.get();
        remaining.set(left - 1);
        if left == 1 {
            if let Some(cb) = cb.borrow_mut().take() {
                if let Some(e) = failed.borrow_mut().take() {
                    cb(sim, w, Err(e));
                } else {
                    let hs = handles
                        .borrow()
                        .iter()
                        .map(|h| h.expect("no failure recorded"))
                        .collect();
                    cb(
                        sim,
                        w,
                        Ok(MpiFile {
                            ranks: ranks.to_vec(),
                            handles: hs,
                        }),
                    );
                }
            }
        }
    };

    let h0 = handles.clone();
    let f0 = failed.clone();
    let r0 = remaining.clone();
    let c0 = cb.clone();
    let p0 = path.clone();
    ranks[0].open(sim, w, &path, flags, owner.clone(), move |sim, w, r| {
        match r {
            Ok(h) => h0.borrow_mut()[0] = Some(h),
            Err(e) => *f0.borrow_mut() = Some(e),
        }
        // Now the remaining ranks open concurrently.
        for (i, rank) in rest {
            let handles = h0.clone();
            let failed = f0.clone();
            let remaining = r0.clone();
            let cb = c0.clone();
            let ranks = ranks2.clone();
            let arrive = arrive;
            rank.open(sim, w, &p0, flags, owner.clone(), move |sim, w, r| {
                match r {
                    Ok(h) => handles.borrow_mut()[i] = Some(h),
                    Err(e) => *failed.borrow_mut() = Some(e),
                }
                arrive(sim, w, &handles, &failed, &remaining, &cb, &ranks);
            });
        }
        arrive(sim, w, &h0, &f0, &r0, &c0, &ranks2);
    });
}

/// Direction of a collective transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MpiDir {
    /// `MPI_File_read_at_all`-style.
    Read,
    /// `MPI_File_write_at_all`-style.
    Write,
}

/// Parameters of a blocked collective transfer (the Fig. 11 pattern).
#[derive(Clone, Copy, Debug)]
pub struct BlockedPattern {
    /// Contiguous bytes owned by each rank ("block size", 128 MB in the
    /// paper).
    pub block_size: u64,
    /// Bytes per individual operation ("transfer size", 1 MB in the paper).
    pub transfer_size: u64,
}

impl BlockedPattern {
    /// The paper's exact Fig. 11 parameters.
    pub fn fig11() -> Self {
        BlockedPattern {
            block_size: 128 * 1024 * 1024,
            transfer_size: 1024 * 1024,
        }
    }
}

/// Run a blocked collective transfer: rank `r` moves
/// `[r*block, (r+1)*block)` in transfer-sized sequential operations.
/// `cb` fires at the barrier (all ranks complete).
pub fn transfer_at_all(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    file: &MpiFile,
    pattern: BlockedPattern,
    dir: MpiDir,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    assert!(pattern.transfer_size > 0 && pattern.block_size > 0);
    assert!(
        pattern.block_size.is_multiple_of(pattern.transfer_size),
        "block size must be a multiple of transfer size"
    );
    let n = file.ranks.len();
    let failed: Rc<RefCell<Option<FsError>>> = Rc::new(RefCell::new(None));
    let remaining = Rc::new(Cell::new(n));
    let cb: Rc<RefCell<Option<Cb<Result<(), FsError>>>>> =
        Rc::new(RefCell::new(Some(Box::new(cb))));

    for (i, (&rank, &handle)) in file.ranks.iter().zip(&file.handles).enumerate() {
        let base = i as u64 * pattern.block_size;
        let failed = failed.clone();
        let remaining = remaining.clone();
        let cb = cb.clone();
        rank_loop(
            sim,
            w,
            rank,
            handle,
            base,
            base + pattern.block_size,
            pattern.transfer_size,
            dir,
            Box::new(move |sim, w, r| {
                if let Err(e) = r {
                    failed.borrow_mut().get_or_insert(e);
                }
                let left = remaining.get();
                remaining.set(left - 1);
                if left == 1 {
                    if let Some(cb) = cb.borrow_mut().take() {
                        let out = match failed.borrow_mut().take() {
                            Some(e) => Err(e),
                            None => Ok(()),
                        };
                        cb(sim, w, out);
                    }
                }
            }),
        );
    }
}

/// One rank's sequential transfer loop.
#[allow(clippy::too_many_arguments)]
fn rank_loop(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    rank: Session,
    handle: Handle,
    offset: u64,
    end: u64,
    step: u64,
    dir: MpiDir,
    cb: Cb<Result<(), FsError>>,
) {
    if offset >= end {
        cb(sim, w, Ok(()));
        return;
    }
    let len = step.min(end - offset);
    let next = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, r: Result<(), FsError>| match r {
        Ok(()) => rank_loop(sim, w, rank, handle, offset + len, end, step, dir, cb),
        Err(e) => cb(sim, w, Err(e)),
    };
    match dir {
        MpiDir::Write => {
            let data = Bytes::from(vec![0xa5u8; len as usize]);
            rank.write(sim, w, handle, offset, data, move |sim, w, r| {
                next(sim, w, r)
            });
        }
        MpiDir::Read => {
            rank.read(sim, w, handle, offset, len, move |sim, w, r| {
                next(sim, w, r.map(|_| ()))
            });
        }
    }
}

/// Collectively close all ranks' handles.
pub fn close_all(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    file: MpiFile,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let n = file.ranks.len();
    let remaining = Rc::new(Cell::new(n));
    let failed: Rc<RefCell<Option<FsError>>> = Rc::new(RefCell::new(None));
    let cb: Rc<RefCell<Option<Cb<Result<(), FsError>>>>> =
        Rc::new(RefCell::new(Some(Box::new(cb))));
    for (&rank, &handle) in file.ranks.iter().zip(&file.handles) {
        let remaining = remaining.clone();
        let failed = failed.clone();
        let cb = cb.clone();
        rank.close(sim, w, handle, move |sim, w, r| {
            if let Err(e) = r {
                failed.borrow_mut().get_or_insert(e);
            }
            let left = remaining.get();
            remaining.set(left - 1);
            if left == 1 {
                if let Some(cb) = cb.borrow_mut().take() {
                    let out = match failed.borrow_mut().take() {
                        Some(e) => Err(e),
                        None => Ok(()),
                    };
                    cb(sim, w, out);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fscore::FsConfig;
    use crate::world::{FsParams, WorldBuilder};
    use simcore::{Bandwidth, SimDuration};

    /// Four ranks on distinct nodes behind a common switch, one fs.
    fn bed(nranks: usize) -> (Sim<GfsWorld>, GfsWorld, Vec<Session>) {
        let mut b = WorldBuilder::new(9);
        b.key_bits(384);
        let sw = b.topo().node("switch");
        let mgr = b.topo().node("mgr");
        b.topo().duplex_link(mgr, sw, Bandwidth::gbit(10.0), SimDuration::from_micros(50), "mgr");
        let cl = b.cluster("c");
        let fs = b.filesystem(
            cl,
            FsParams::ideal(
                FsConfig::small_test("pfs"),
                mgr,
                vec![mgr],
                Bandwidth::gbyte(1.0),
                SimDuration::from_micros(200),
            ),
        );
        let mut ranks = Vec::new();
        for i in 0..nranks {
            let n = b.topo().node(format!("rank{i}"));
            b.topo().duplex_link(n, sw, Bandwidth::gbit(1.0), SimDuration::from_micros(50), format!("r{i}"));
            ranks.push(b.client(cl, n, 256));
        }
        let (mut sim, mut w) = b.build();
        let ranks: Vec<Session> = ranks.into_iter().map(|c| w.open_session(c)).collect();
        // Mount everywhere.
        let done = Rc::new(Cell::new(0));
        for &r in &ranks {
            let done = done.clone();
            r.mount(&mut sim, &mut w, "pfs", gfs_auth::handshake::AccessMode::ReadWrite, move |_s, _w, res| {
                res.unwrap();
                done.set(done.get() + 1);
            });
        }
        sim.run(&mut w);
        assert_eq!(done.get(), nranks);
        let _ = fs; // ids are positional; the bed returns sessions only
        (sim, w, ranks)
    }

    #[test]
    fn collective_open_returns_handles_for_all_ranks() {
        let (mut sim, mut w, ranks) = bed(4);
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        open_all(
            &mut sim,
            &mut w,
            ranks.clone(),
            "/mpi.dat",
            OpenFlags::ReadWrite,
            Owner::local(1, 1),
            move |_s, _w, r| {
                *g.borrow_mut() = Some(r.unwrap());
            },
        );
        sim.run(&mut w);
        let f = got.borrow_mut().take().unwrap();
        assert_eq!(f.handles.len(), 4);
        assert_eq!(f.ranks, ranks);
    }

    #[test]
    fn blocked_write_then_read_no_revocations() {
        let (mut sim, mut w, ranks) = bed(4);
        let pattern = BlockedPattern {
            block_size: 256 * 1024, // 4 blocks of 64 KiB per rank
            transfer_size: 64 * 1024,
        };
        let phase = Rc::new(Cell::new(0u32));
        let p2 = phase.clone();
        open_all(
            &mut sim,
            &mut w,
            ranks,
            "/mpi.dat",
            OpenFlags::ReadWrite,
            Owner::local(1, 1),
            move |sim, w, r| {
                let f = r.unwrap();
                let f2 = f.clone();
                let p3 = p2.clone();
                transfer_at_all(sim, w, &f, pattern, MpiDir::Write, move |sim, w, r| {
                    r.unwrap();
                    p3.set(1);
                    let p4 = p3.clone();
                    let f3 = f2.clone();
                    transfer_at_all(sim, w, &f2, pattern, MpiDir::Read, move |sim, w, r| {
                        r.unwrap();
                        p4.set(2);
                        close_all(sim, w, f3, |_s, _w, r| r.unwrap());
                    });
                });
            },
        );
        sim.run(&mut w);
        assert_eq!(phase.get(), 2, "collective phases did not complete");
        // Disjoint regions ⇒ the token manager never revoked anything.
        assert_eq!(w.fss[0].tokens.revocations, 0);
        // The file is rank-count × block-size long.
        assert_eq!(
            w.fss[0].core.stat("/mpi.dat").unwrap().size,
            4 * pattern.block_size
        );
    }

    #[test]
    fn more_ranks_more_aggregate_throughput() {
        // Collective wall-clock for fixed per-rank work should stay nearly
        // flat as ranks grow (until a shared bottleneck), i.e. aggregate
        // throughput scales — the Fig. 11 premise.
        let times: Vec<f64> = [1usize, 4]
            .into_iter()
            .map(|n| {
                let (mut sim, mut w, ranks) = bed(n);
                let pattern = BlockedPattern {
                    block_size: 512 * 1024,
                    transfer_size: 64 * 1024,
                };
                let t_done = Rc::new(Cell::new(0u64));
                let td = t_done.clone();
                let start = sim.now();
                open_all(
                    &mut sim,
                    &mut w,
                    ranks,
                    "/scale.dat",
                    OpenFlags::ReadWrite,
                    Owner::local(1, 1),
                    move |sim, w, r| {
                        let f = r.unwrap();
                        transfer_at_all(sim, w, &f, pattern, MpiDir::Write, move |sim, _w, r| {
                            r.unwrap();
                            td.set(sim.now().as_nanos());
                        });
                    },
                );
                sim.run(&mut w);
                (t_done.get() as f64 - start.as_nanos() as f64) / 1e9
            })
            .collect();
        // 4 ranks move 4x the data; if throughput scaled perfectly the
        // times would be equal. Allow 2x degradation but not worse.
        assert!(
            times[1] < times[0] * 2.0,
            "4-rank collective {}s vs 1-rank {}s — no scaling",
            times[1],
            times[0]
        );
    }
}
