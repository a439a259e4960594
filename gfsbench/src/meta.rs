//! The two metadata workloads: `meta_sharded` and `meta_untar`.
//!
//! Both put many flyweight sessions on fan-in mount contexts (the per-user
//! session model of XUFS) and run each session as a closed loop: its next
//! op is issued from the previous op's completion callback.
//!
//! * `meta_sharded` races the storm's uniform op mix over a generated
//!   `/tNN/sNN/fNNNN` tree split across four manager shards. Some contexts
//!   hold writeback leases on private `/wNN` subtrees, and a rebalance tick
//!   runs through `gfs::client::maybe_rebalance`. Ops race, so each result
//!   is checked against the outcomes its race may produce.
//! * `meta_untar` gives every session its own untar → build → `ls -R`
//!   stream from `TraceCorpus::UntarBuild` at one manager, with no leases.
//!   The manager's home server is killed halfway through and restored
//!   600 ms later. The streams touch disjoint parts of the namespace, so
//!   each session's results are checked against its own `ModelFs` after
//!   the measured window.
//!
//! Both also read a shared `/ro` tree nobody writes, byte-checked inline;
//! the comparison's host time is excluded from the measured window.

use crate::bench::{err_code, mix, Bench, Class, Corrupt, NsOp, Rng, RoundOut, Span, Tracer};
use crate::layers;
use bytes::Bytes;
use globalfs::gfs::cache::PageKey;
use globalfs::gfs::faults::{ProgressInjector, ProgressPlan};
use globalfs::gfs::oracle::ModelFs;
use globalfs::gfs::world::GfsWorld;
use globalfs::gfs::{
    fsck_instance, ByteRange, ClientId, FsCore, FsError, FsId, Handle, InodeId, OpenFlags, Owner,
    Session, TokenMode,
};
use globalfs::gfs_auth::handshake::AccessMode;
use globalfs::scenarios::builder::pattern_bytes;
use globalfs::scenarios::chaos::world_invariants;
use globalfs::scenarios::trace::{TraceCorpus, TraceOp, TraceOpKind};
use globalfs::scenarios::{NsdFarm, ScenarioBuilder};
use globalfs::simcore::{Sim, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

const BLOCK: u64 = 64 * 1024;
/// Bytes a data-carrying uniform small-write writes.
const SMALL_WRITE: u64 = 4096;
/// Points (of 100) of the uniform mix that write `SMALL_WRITE` bytes: 2 of
/// the storm's 20 small-write points, so the data path stays nearly idle.
const WRITE_SHARE: u64 = 2;
/// Points (of 100) of the uniform mix, taken from stat's 30, that read a
/// `/ro` file.
const RO_SHARE: u64 = 5;
/// Untar streams read one `/ro` file after every this many corpus ops.
const RO_EVERY: u32 = 8;

/// Which op stream the sessions run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// The storm's uniform mix over the generated tree.
    Uniform,
    /// Per-session untar/build corpus streams.
    Untar,
}

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct MetaShape {
    /// Op stream.
    pub mix: Mix,
    /// Fan-in mount contexts.
    pub contexts: u32,
    /// Sessions per context.
    pub sessions_per_ctx: u32,
    /// Uniform ops per session.
    pub ops_per_session: u32,
    /// Manager shards.
    pub managers: u32,
    /// Contexts holding a writeback lease on a private `/wNN`.
    pub lease_contexts: u32,
    /// Rebalance tick, ms (0 = off).
    pub rebalance_ms: u64,
    /// Generated tree: top dirs, subdirs per top, files per subdir.
    pub tree: (u32, u32, u32),
    /// Files in the read-only `/ro` tree.
    pub ro_files: u32,
    /// Untar corpus scale (directories per stream / 2).
    pub untar_scale: u32,
}

impl MetaShape {
    /// `meta_sharded` at benchmark size.
    pub fn sharded() -> Self {
        MetaShape {
            mix: Mix::Uniform,
            contexts: 32,
            sessions_per_ctx: 30,
            ops_per_session: 100,
            managers: 4,
            lease_contexts: 16,
            rebalance_ms: 100,
            tree: (8, 8, 64),
            ro_files: 64,
            untar_scale: 0,
        }
    }

    /// `meta_untar` at benchmark size.
    pub fn untar() -> Self {
        MetaShape {
            mix: Mix::Untar,
            contexts: 32,
            sessions_per_ctx: 3,
            ops_per_session: 0,
            managers: 1,
            lease_contexts: 0,
            rebalance_ms: 0,
            tree: (0, 0, 0),
            ro_files: 64,
            untar_scale: 8,
        }
    }

    /// A small `meta_sharded` for tests and the self-test.
    pub fn small_sharded() -> Self {
        MetaShape {
            contexts: 4,
            sessions_per_ctx: 10,
            ops_per_session: 40,
            lease_contexts: 2,
            rebalance_ms: 5,
            tree: (4, 4, 16),
            ro_files: 8,
            ..Self::sharded()
        }
    }

    /// A small `meta_untar` for tests and the self-test.
    pub fn small_untar() -> Self {
        MetaShape {
            contexts: 4,
            sessions_per_ctx: 10,
            untar_scale: 1,
            ro_files: 8,
            ..Self::untar()
        }
    }

    fn sessions(&self) -> u32 {
        self.contexts * self.sessions_per_ctx
    }
}

/// One op a session issues.
#[derive(Clone, Debug)]
enum Op {
    Stat(String),
    Readdir(String),
    Mkdir(String),
    /// Open for write (creating) and close.
    Create(String),
    /// Open for write, write `len` pattern bytes at 0, close.
    Write(String, u64),
    /// Open for read, read up to `len` bytes from 0, close.
    Read(String, u64),
    /// Read `/ro` file `k` end to end.
    ReadRo(usize),
    Unlink(String),
    Rename(String, String),
}

impl Op {
    fn class(&self) -> Class {
        match self {
            Op::Stat(_) | Op::Readdir(_) | Op::Read(..) | Op::ReadRo(_) => Class::Rd,
            _ => Class::Wr,
        }
    }

    fn code(&self) -> u64 {
        match self {
            Op::Stat(_) => 30,
            Op::Readdir(_) => 31,
            Op::Mkdir(_) => 32,
            Op::Create(_) => 33,
            Op::Write(..) => 34,
            Op::Unlink(_) => 35,
            Op::Rename(..) => 36,
            Op::Read(..) => 37,
            Op::ReadRo(_) => 38,
        }
    }

    /// Primary path (for shard routing and the dentry replay).
    fn path<'a>(&'a self, m: &'a Meta) -> &'a str {
        match self {
            Op::Stat(p) | Op::Readdir(p) | Op::Mkdir(p) | Op::Create(p) | Op::Unlink(p) => p,
            Op::Write(p, _) | Op::Read(p, _) | Op::Rename(p, _) => p,
            Op::ReadRo(k) => &m.ro[*k].0,
        }
    }

    /// Race outcomes the uniform mix may legitimately see (error codes).
    fn allowed(&self) -> &'static [u64] {
        match self {
            Op::Stat(_) | Op::Unlink(_) => &[1],
            Op::Mkdir(_) => &[2],
            // The file may be unlinked or renamed away between open and
            // write/close by a racing session.
            Op::Write(..) | Op::Create(_) => &[1],
            Op::Rename(..) => &[1, 2],
            _ => &[],
        }
    }
}

/// An op's result as recorded for the fingerprint and the oracle check:
/// error code (0 = Ok) and a digest of the returned value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    code: u64,
    digest: u64,
}

fn outcome_of<T>(r: &Result<T, FsError>, digest: impl FnOnce(&T) -> u64) -> Outcome {
    match r {
        Ok(v) => Outcome {
            code: 0,
            digest: digest(v),
        },
        Err(e) => Outcome {
            code: err_code(e),
            digest: 0,
        },
    }
}

fn names_digest(names: &[String]) -> u64 {
    names.iter().fold(names.len() as u64, |h, n| {
        n.bytes().fold(h, |h, b| mix(h, u64::from(b)))
    })
}

/// Round-wide state.
struct Meta {
    b: Rc<Bench>,
    fs: FsId,
    shape: MetaShape,
    /// `/ro` files: path, size, offset of their content in `pat`.
    ro: Vec<(String, u64, usize)>,
    /// Random content the `/ro` files are windows of.
    pat: Vec<u8>,
    /// The deterministic pattern every corpus write carries.
    pattern: Bytes,
    /// What corpus reads are compared with (`pattern`, unless the
    /// self-test flipped a byte).
    expect: Vec<u8>,
    /// Untar: each session's corpus stream.
    templates: Vec<Vec<TraceOp>>,
    /// Per-session op scripts, generated during set-up.
    scripts: RefCell<Vec<Vec<(Op, u64)>>>,
    /// Per-session outcome log for the oracle check (untar only).
    outcomes: RefCell<Vec<Vec<Outcome>>>,
    injector: Option<RefCell<ProgressInjector>>,
    chains_left: Cell<u32>,
    /// Surrender completions extend the measured span.
    span_end: Cell<SimTime>,
    /// Self-test: the flipped oracle expectation has been planted.
    planted: Cell<bool>,
}

/// A session's chain state, moved from op to op.
struct Chain {
    sess: Session,
    idx: u32,
    /// The session's ops, generated during set-up.
    script: std::vec::IntoIter<(Op, u64)>,
    /// Leased subtree (`wNN` index) and the group's outstanding chains.
    lease: Option<(u32, Rc<Cell<u32>>, Session)>,
}

/// Input-generation state of one session's script.
struct Gen {
    idx: u32,
    rng: Rng,
    /// Uniform ops generated so far.
    step: u32,
    /// Next corpus op (untar).
    pos: usize,
    /// Corpus ops since the last `/ro` read (untar).
    since_ro: u32,
    /// Leased subtree index.
    lease: Option<u32>,
}

impl Meta {
    /// The next op of a chain, or `None` when the chain is done.
    fn next_op(&self, c: &mut Gen) -> Option<(Op, u64)> {
        match self.shape.mix {
            Mix::Uniform => {
                if c.step >= self.shape.ops_per_session {
                    return None;
                }
                c.step += 1;
                let (tops, subs, files) = self.shape.tree;
                let t = c.rng.below(u64::from(tops));
                let s = c.rng.below(u64::from(subs));
                let f = c.rng.below(u64::from(files + files / 4 + 1));
                let sel = c.rng.below(100);
                let top = match &c.lease {
                    Some(wi) if c.rng.below(4) != 0 => format!("w{wi:02}"),
                    _ => format!("t{t:02}"),
                };
                let file = format!("/{top}/s{s:02}/f{f:04}");
                let dir = format!("/{top}/s{s:02}");
                let ro = RO_SHARE;
                let op = match sel {
                    s if s < 30 - ro => Op::Stat(file),
                    0..=29 => Op::ReadRo(c.rng.below(self.ro.len() as u64) as usize),
                    30..=39 => Op::Readdir(dir),
                    40..=44 => Op::Mkdir(format!("{dir}/d{}", c.rng.below(8))),
                    45..=64 => Op::Create(file),
                    // Of the storm's 20 small-write points, `WRITE_SHARE`
                    // carry `SMALL_WRITE` bytes; the rest open for write
                    // and close.
                    65..=84 if sel < 65 + WRITE_SHARE => Op::Write(file, SMALL_WRITE),
                    65..=84 => Op::Create(file),
                    85..=89 if tops > 1 => {
                        let t2 = (t + 1 + c.rng.below(u64::from(tops - 1))) % u64::from(tops);
                        Op::Rename(file, format!("/t{t2:02}/s{s:02}/f{f:04}"))
                    }
                    _ => Op::Unlink(file),
                };
                Some((op, 0))
            }
            Mix::Untar => {
                let tpl = &self.templates[c.idx as usize];
                // After every `RO_EVERY` corpus ops, one shared read-only read.
                if c.since_ro == RO_EVERY {
                    c.since_ro = 0;
                    return Some((Op::ReadRo(c.rng.below(self.ro.len() as u64) as usize), 0));
                }
                let t = tpl.get(c.pos)?;
                c.pos += 1;
                c.since_ro += 1;
                let p = t.path.clone();
                let op = match t.kind {
                    TraceOpKind::Mkdir => Op::Mkdir(p),
                    TraceOpKind::Create => Op::Create(p),
                    TraceOpKind::Stat => Op::Stat(p),
                    TraceOpKind::Readdir => Op::Readdir(p),
                    TraceOpKind::Unlink => Op::Unlink(p),
                    TraceOpKind::Rename => Op::Rename(p, t.path2.clone().expect("rename target")),
                    TraceOpKind::Write => Op::Write(p, t.size),
                    TraceOpKind::Read => Op::Read(p, t.size),
                };
                Some((op, t.think_ns))
            }
        }
    }

    /// Untar ops of session `idx` (corpus ops plus interleaved `/ro` reads).
    fn untar_ops(&self, idx: u32) -> u64 {
        let n = self.templates[idx as usize].len() as u64;
        n + n / u64::from(RO_EVERY)
    }

    fn ro_matches(&self, k: usize, got: &[u8]) -> bool {
        let (_, size, off) = &self.ro[k];
        got.len() as u64 == *size && &self.pat[*off..*off + got.len()] == got
    }
}

/// Traced-round samples at submit: shard backlog, path log, rtt key.
fn sample_submit(m: &Meta, w: &GfsWorld, now: SimTime, ctx: ClientId, path: &str) -> u64 {
    let mut backlog = 0;
    m.b.with_tr(|t| {
        let inst = &w.fss[m.fs.0 as usize];
        let shard = inst.core.shards.shard_of(path) as usize;
        backlog = inst.mgrs[shard]
            .busy_until
            .as_nanos()
            .saturating_sub(now.as_nanos());
        t.mgr_backlog.record(backlog);
        t.paths.push((ctx.0, path.to_string()));
    });
    backlog
}

/// Latency not explained by the round trip to the owning shard, its
/// backlog at submit, and one op's manager service (single-envelope ops).
fn sample_unexplained(
    m: &Meta,
    w: &GfsWorld,
    t: &mut Tracer,
    ctx: ClientId,
    path: &str,
    lat: u64,
    backlog: u64,
) {
    let inst = &w.fss[m.fs.0 as usize];
    let shard = inst.core.shards.shard_of(path);
    let mgr = inst.mgrs[shard as usize].acting;
    let node = w.clients[ctx.0 as usize].node;
    let rtt = *t
        .rtt_ns
        .entry((node.0, mgr.0))
        .or_insert_with(|| w.net.rtt(node, mgr).as_nanos());
    let svc = w.costs.manager_op_service.as_nanos();
    t.unexplained
        .record(lat.saturating_sub(rtt + backlog + svc));
}

type Cont = Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Outcome, Result<(), String>)>;

/// Issue `op` on `sess`; `done` gets the outcome and the inline verdict.
fn issue(
    m: &Rc<Meta>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    op: &Op,
    done: Cont,
) {
    let owner = Owner::local(0, 0);
    let b = m.b.clone();
    let _s = b.span(Span::Submit);
    match op {
        Op::Stat(p) => sess.stat(sim, w, p, move |sim, w, r| {
            let o = outcome_of(&r, |a| a.size << 1 | u64::from(a.is_dir));
            done(sim, w, o, Ok(()));
        }),
        Op::Readdir(p) => sess.readdir(sim, w, p, move |sim, w, r| {
            let o = outcome_of(&r, |n| names_digest(n));
            done(sim, w, o, Ok(()));
        }),
        Op::Mkdir(p) => sess.mkdir(sim, w, p, owner, move |sim, w, r| {
            done(sim, w, outcome_of(&r, |_| 0), Ok(()));
        }),
        Op::Unlink(p) => sess.unlink(sim, w, p, move |sim, w, r| {
            done(sim, w, outcome_of(&r, |_| 0), Ok(()));
        }),
        Op::Rename(a, z) => sess.rename(sim, w, a, z, move |sim, w, r| {
            done(sim, w, outcome_of(&r, |_| 0), Ok(()));
        }),
        Op::Create(p) => {
            let m2 = m.clone();
            sess.open(
                sim,
                w,
                p,
                OpenFlags::Write,
                owner,
                move |sim, w, r| match r {
                    Ok(h) => {
                        let _s = m2.b.span(Span::Submit);
                        sess.close(sim, w, h, move |sim, w, r| {
                            done(sim, w, outcome_of(&r, |_| 0), Ok(()))
                        });
                    }
                    Err(e) => done(sim, w, outcome_of::<()>(&Err(e), |_| 0), Ok(())),
                },
            );
        }
        Op::Write(p, len) => {
            let m2 = m.clone();
            let len = *len;
            sess.open(
                sim,
                w,
                p,
                OpenFlags::Write,
                owner,
                move |sim, w, r| match r {
                    Ok(h) => {
                        let ctx = sess.ctx(w);
                        note_data(&m2, w, ctx, h, 0, len, TokenMode::Write);
                        let data = m2.pattern.slice(0..len as usize);
                        let m3 = m2.clone();
                        let _s = m2.b.span(Span::Submit);
                        sess.write(sim, w, h, 0, data, move |sim, w, wr| {
                            let _c = m3.b.span(Span::Callback);
                            if wr.is_ok() {
                                m3.b.rec.borrow_mut().write_bytes += len;
                            }
                            close_then(&m3, sim, w, sess, h, move |sim, w, cr| {
                                // The write's failure wins; the close flushes
                                // write-behind and is the op's durable outcome.
                                let r = wr.and(cr);
                                done(sim, w, outcome_of(&r, |_| 0), Ok(()));
                            });
                        });
                    }
                    Err(e) => done(sim, w, outcome_of::<()>(&Err(e), |_| 0), Ok(())),
                },
            );
        }
        Op::Read(p, len) => {
            let m2 = m.clone();
            let len = *len;
            sess.open(
                sim,
                w,
                p,
                OpenFlags::Read,
                owner,
                move |sim, w, r| match r {
                    Ok(h) => {
                        let ctx = sess.ctx(w);
                        note_data(&m2, w, ctx, h, 0, len, TokenMode::Read);
                        let m3 = m2.clone();
                        let _s = m2.b.span(Span::Submit);
                        sess.read(sim, w, h, 0, len, move |sim, w, rr| {
                            let _c = m3.b.span(Span::Callback);
                            let verdict = match &rr {
                                Ok(got) => {
                                    let t = Instant::now();
                                    let _v = m3.b.span(Span::Verify);
                                    let ok = m3.expect.get(..got.len()) == Some(got.as_ref());
                                    m3.b.add_verify(t);
                                    m3.b.rec.borrow_mut().read_bytes += got.len() as u64;
                                    if ok {
                                        Ok(())
                                    } else {
                                        Err(format!(
                                            "read: {} bytes differ from what was written",
                                            got.len()
                                        ))
                                    }
                                }
                                Err(_) => Ok(()),
                            };
                            let o = outcome_of(&rr, |got| got.len() as u64);
                            close_then(&m3, sim, w, sess, h, move |sim, w, _| {
                                done(sim, w, o, verdict)
                            });
                        });
                    }
                    Err(e) => done(sim, w, outcome_of::<()>(&Err(e), |_| 0), Ok(())),
                },
            );
        }
        Op::ReadRo(k) => {
            let k = *k;
            let (path, size, _) = m.ro[k].clone();
            let m2 = m.clone();
            sess.open(
                sim,
                w,
                &path,
                OpenFlags::Read,
                owner,
                move |sim, w, r| match r {
                    Ok(h) => {
                        let ctx = sess.ctx(w);
                        note_data(&m2, w, ctx, h, 0, size, TokenMode::Read);
                        let m3 = m2.clone();
                        let _s = m2.b.span(Span::Submit);
                        sess.read(sim, w, h, 0, size, move |sim, w, rr| {
                            let _c = m3.b.span(Span::Callback);
                            let verdict = match &rr {
                                Ok(got) => {
                                    let t = Instant::now();
                                    let _v = m3.b.span(Span::Verify);
                                    let ok = m3.ro_matches(k, got);
                                    m3.b.add_verify(t);
                                    m3.b.rec.borrow_mut().read_bytes += got.len() as u64;
                                    if ok {
                                        Ok(())
                                    } else {
                                        Err(format!(
                                            "read /ro file {k}: bytes differ from its content"
                                        ))
                                    }
                                }
                                Err(e) => Err(format!("read /ro file {k}: {e:?}")),
                            };
                            let o = outcome_of(&rr, |got| got.len() as u64);
                            close_then(&m3, sim, w, sess, h, move |sim, w, _| {
                                done(sim, w, o, verdict)
                            });
                        });
                    }
                    Err(e) => done(
                        sim,
                        w,
                        outcome_of::<()>(&Err(e.clone()), |_| 0),
                        Err(format!("open /ro: {e:?}")),
                    ),
                },
            );
        }
    }
}

/// Close `h` (logging the token release in traced rounds), then `k`.
fn close_then(
    m: &Rc<Meta>,
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    h: Handle,
    k: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let ctx = sess.ctx(w);
    if let Some(of) = w.clients[ctx.0 as usize].handles.get(&h) {
        let ino = of.inode;
        m.b.with_tr(|t| t.tokens.push((ino, ctx, None)));
    }
    let _s = m.b.span(Span::Submit);
    sess.close(sim, w, h, k);
}

/// Traced rounds: log a data call's pages and token range.
fn note_data(
    m: &Meta,
    w: &GfsWorld,
    ctx: ClientId,
    h: Handle,
    off: u64,
    len: u64,
    mode: TokenMode,
) {
    m.b.with_tr(|t| {
        let Some(of) = w.clients[ctx.0 as usize].handles.get(&h) else {
            return;
        };
        let ino: InodeId = of.inode;
        for blk in off / BLOCK..(off + len.max(1)).div_ceil(BLOCK) {
            t.blocks.push((
                ctx.0,
                PageKey {
                    fs: m.fs,
                    inode: ino,
                    block: blk,
                },
            ));
        }
        t.tokens.push((
            ino,
            ctx,
            Some((ByteRange::new(off, off + len.max(1)), mode)),
        ));
    });
}

/// Run the chain's next op, or retire the chain.
fn next(m: Rc<Meta>, sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, mut c: Chain) {
    if let Some(inj) = &m.injector {
        let done = m.b.rec.borrow().completed;
        inj.borrow_mut().advance(sim, w, done);
    }
    let Some((op, think)) = c.script.next() else {
        m.chains_left.set(m.chains_left.get() - 1);
        if let Some((wi, left, holder)) = c.lease.take() {
            left.set(left.get() - 1);
            if left.get() == 0 {
                // The group's last chain drained: surrender the lease,
                // reconciling the writeback journal with the manager.
                let m2 = m.clone();
                holder.surrender_lease(sim, w, &format!("/w{wi:02}"), move |sim, _w, r| {
                    if let Err(e) = r {
                        m2.b.rec
                            .borrow_mut()
                            .fail(format!("lease surrender: {e:?}"));
                    }
                    m2.span_end.set(m2.span_end.get().max(sim.now()));
                });
            }
        }
        return;
    };
    if think > 0 {
        let m2 = m.clone();
        sim.after(SimDuration::from_nanos(think), move |sim, w| {
            launch(m2, sim, w, c, op)
        });
    } else {
        launch(m, sim, w, c, op);
    }
}

fn launch(m: Rc<Meta>, sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, c: Chain, op: Op) {
    m.b.issue();
    let t0 = sim.now();
    let ctx = c.sess.ctx(w);
    let backlog = sample_submit(&m, w, t0, ctx, op.path(&m));
    let sess = c.sess;
    let m2 = m.clone();
    let op2 = op.clone();
    issue(
        &m,
        sim,
        w,
        sess,
        &op,
        Box::new(move |sim, w, o, verdict| {
            let _c = m2.b.span(Span::Callback);
            let now = sim.now();
            let lat = now.as_nanos() - t0.as_nanos();
            let verdict = verdict.and_then(|()| check(&m2, &op2, o, c.idx));
            {
                let mut rec = m2.b.rec.borrow_mut();
                if o.code == 12 || o.code == 13 || o.code == 14 {
                    rec.gave_up += 1;
                }
                rec.done(
                    op2.class(),
                    op2.code() << 16 ^ o.code << 8 ^ o.digest,
                    t0,
                    now,
                    verdict,
                );
            }
            if m2.b.tracing() {
                let path = op2.path(&m2).to_string();
                m2.b.with_tr(|t| {
                    if matches!(
                        op2,
                        Op::Stat(_)
                            | Op::Readdir(_)
                            | Op::Mkdir(_)
                            | Op::Unlink(_)
                            | Op::Rename(..)
                    ) {
                        sample_unexplained(&m2, w, t, ctx, &path, lat, backlog);
                    }
                    t.ns_log.push(match &op2 {
                        Op::Stat(p) | Op::Read(p, _) => NsOp::Stat(p.clone()),
                        Op::ReadRo(_) => NsOp::Stat(path.clone()),
                        Op::Readdir(p) => NsOp::Readdir(p.clone()),
                        Op::Mkdir(p) => NsOp::Mkdir(p.clone()),
                        Op::Create(p) | Op::Write(p, _) => NsOp::Create(p.clone()),
                        Op::Unlink(p) => NsOp::Unlink(p.clone()),
                        Op::Rename(a, z) => NsOp::Rename(a.clone(), z.clone()),
                    });
                });
            }
            next(m2, sim, w, c);
        }),
    );
}

/// Inline verdict: uniform ops against their allowed race outcomes; untar
/// ops are logged for the per-session oracle check after the run.
fn check(m: &Meta, op: &Op, o: Outcome, idx: u32) -> Result<(), String> {
    if o.code != 0 && (o.code == 12 || o.code == 13 || o.code == 14) {
        return Err(format!("{op:?}: gave up (error code {})", o.code));
    }
    match m.shape.mix {
        Mix::Uniform => {
            let mut ok = o.code == 0 || op.allowed().contains(&o.code);
            if m.b.corrupt == Corrupt::Oracle && idx == 0 && !m.planted.replace(true) {
                // Self-test: expect the opposite of session 0's first outcome.
                ok = !ok;
            }
            if ok {
                Ok(())
            } else {
                Err(format!(
                    "{op:?}: outcome {} is not one its race allows",
                    o.code
                ))
            }
        }
        Mix::Untar => {
            if !matches!(op, Op::ReadRo(_)) {
                m.outcomes.borrow_mut()[idx as usize].push(o);
            }
            Ok(())
        }
    }
}

/// Replay every session's corpus stream through its own `ModelFs` and
/// compare each recorded outcome. Returns the divergences.
fn oracle_check(m: &Meta) -> Vec<String> {
    let mut bad = Vec::new();
    let outcomes = m.outcomes.borrow();
    for (idx, got) in outcomes.iter().enumerate() {
        let idx = idx as u32;
        let tpl = &m.templates[idx as usize];
        let mut model = ModelFs::new();
        for (i, t) in tpl.iter().enumerate() {
            let p = &t.path;
            let mut want = match t.kind {
                TraceOpKind::Mkdir => outcome_of(&model.mkdir(p), |_| 0),
                TraceOpKind::Stat => {
                    outcome_of(&model.stat(p), |a| a.size << 1 | u64::from(a.is_dir))
                }
                TraceOpKind::Readdir => outcome_of(&model.readdir(p), |n| names_digest(n)),
                TraceOpKind::Unlink => outcome_of(&model.unlink(p), |_| 0),
                TraceOpKind::Rename => {
                    let z = t.path2.as_deref().expect("rename target");
                    outcome_of(&model.rename(p, z), |_| 0)
                }
                TraceOpKind::Create => outcome_of(&model.open(p, OpenFlags::Write), |_| 0),
                TraceOpKind::Write => {
                    let r = model
                        .open(p, OpenFlags::Write)
                        .and_then(|id| model.write(id, 0, &m.pattern[..t.size as usize]));
                    outcome_of(&r, |_| 0)
                }
                TraceOpKind::Read => {
                    let r = model
                        .open(p, OpenFlags::Read)
                        .and_then(|id| model.read(id, 0, t.size));
                    if let Ok(bytes) = &r {
                        if bytes.as_slice() != &m.pattern[..bytes.len()] {
                            bad.push(format!(
                                "session {idx} op {i}: oracle content is not the written pattern"
                            ));
                        }
                    }
                    outcome_of(&r, |b| b.len() as u64)
                }
            };
            if m.b.corrupt == Corrupt::Oracle && idx == 0 && i == 0 {
                want.code ^= 1; // self-test: one flipped expectation
            }
            match got.get(i) {
                Some(g) if *g == want => {}
                Some(g) => bad.push(format!(
                    "session {idx} op {i} {} {p}: real {g:?} vs oracle {want:?}",
                    t.kind.kw()
                )),
                None => bad.push(format!("session {idx}: op {i} has no recorded outcome")),
            }
        }
        if got.len() > tpl.len() {
            bad.push(format!(
                "session {idx}: {} outcomes for {} ops",
                got.len(),
                tpl.len()
            ));
        }
    }
    bad
}

/// Build the generated tree (uniform mix) and the `/ro` tree on `core`;
/// returns the op count. Used for set-up and again by the `FsCore` replay.
fn build_tree(core: &mut FsCore, shape: &MetaShape, ro: &[(String, u64, usize)]) -> u64 {
    let owner = Owner::local(0, 0);
    let mut n = 0;
    let (tops, subs, files) = shape.tree;
    let mut gen_top = |core: &mut FsCore, top: String| {
        core.mkdir(&top, owner.clone(), 0).expect("mkdir top");
        n += 1;
        for s in 0..subs {
            let sub = format!("{top}/s{s:02}");
            core.mkdir(&sub, owner.clone(), 0).expect("mkdir sub");
            n += 1;
            for f in 0..files {
                core.create_file(&format!("{sub}/f{f:04}"), owner.clone(), 0)
                    .expect("create file");
                n += 1;
            }
        }
    };
    for t in 0..tops {
        gen_top(core, format!("/t{t:02}"));
    }
    if shape.managers > 1 {
        for i in 0..shape.lease_contexts {
            gen_top(core, format!("/w{i:02}"));
        }
    }
    core.mkdir("/ro", owner.clone(), 0).expect("mkdir /ro");
    for (p, _, _) in ro {
        core.create_file(p, owner.clone(), 0)
            .expect("create /ro file");
    }
    n + 1 + ro.len() as u64
}

/// Periodic rebalance tick while chains run; samples WAL length when traced.
fn rebalance_tick(m: Rc<Meta>, sim: &mut Sim<GfsWorld>) {
    let every = SimDuration::from_millis(m.shape.rebalance_ms);
    sim.after(every, move |sim, w| {
        if m.chains_left.get() == 0 {
            return;
        }
        globalfs::gfs::client::maybe_rebalance(sim, w, m.fs);
        rebalance_tick(m, sim);
    });
}

/// Run one metadata round.
pub fn run(
    seed: u64,
    shape: MetaShape,
    trace: bool,
    corrupt: Corrupt,
    setup_only: bool,
) -> RoundOut {
    let t_setup = Instant::now();
    let mut sb = ScenarioBuilder::new(seed);
    let fs = sb.nsd_farm(
        "site",
        NsdFarm::new("meta", 4)
            .block_size(BLOCK)
            .managers(shape.managers)
            .stored_data(),
    );
    let sessions = sb.sessions("site", shape.sessions(), shape.sessions_per_ctx);
    let run = sb.run(SimTime::ZERO);
    let (mut sim, mut w) = (run.sim, run.world);
    sim.set_horizon(SimTime::from_secs(100_000));

    // Inputs. `/ro` files are windows of a seeded random buffer.
    let mut rng = Rng::new(seed, 0x2f0);
    let ro_n = shape.ro_files as usize;
    let mut ro = Vec::with_capacity(ro_n);
    let mut off = 0usize;
    for k in 0..ro_n {
        // Sizes spread evenly over 1..8 KiB; the seed picks the content.
        let size = 1024 + (k as u64 * 7 * 1024) / ro_n as u64;
        ro.push((format!("/ro/r{k:03}"), size, off));
        off += size as usize;
    }
    let mut pat = Vec::with_capacity(off + 8);
    while pat.len() < off {
        pat.extend_from_slice(&rng.next().to_le_bytes());
    }
    let pattern = pattern_bytes(0, BLOCK);
    let mut expect = pattern.to_vec();
    let mut ro_expect = pat.clone();
    match corrupt {
        Corrupt::Bytes if shape.mix == Mix::Untar => expect[1000] ^= 0x5a,
        Corrupt::Bytes => {
            for (_, size, off) in &ro {
                ro_expect[off + (*size as usize) / 2] ^= 0x5a;
            }
        }
        _ => {}
    }
    // One untar/build stream per session: stream `i` lives under its own
    // `/ub{i}s` and `/ub{i}o` tops.
    let templates = if shape.mix == Mix::Untar {
        let n = shape.sessions() as usize;
        let mut t: Vec<Vec<TraceOp>> = vec![Vec::new(); n];
        for op in TraceCorpus::UntarBuild.generate(n as u32, shape.untar_scale, seed) {
            let digits: String = op.path[3..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            t[digits.parse::<usize>().expect("stream index in top name")].push(op);
        }
        t
    } else {
        Vec::new()
    };

    {
        let inst = &mut w.fss[fs.0 as usize];
        let core = &mut inst.core;
        if shape.managers > 1 {
            for t in 0..shape.tree.0 {
                core.shards.assign(format!("t{t:02}"), t % shape.managers);
            }
            for i in 0..shape.lease_contexts {
                core.shards.assign(format!("w{i:02}"), 0);
            }
        }
        build_tree(core, &shape, &ro);
        // `/ro` content, straight into the stored blocks.
        for (p, size, off) in &ro {
            let ino = core.lookup(p).expect("ro file");
            let addr = core.ensure_block(ino, 0).expect("ro block");
            let mut blk = pat[*off..*off + *size as usize].to_vec();
            blk.resize(BLOCK as usize, 0);
            core.put_block_data(addr, Bytes::from(blk));
            core.note_write(ino, 0, *size, 0).expect("ro size");
        }
    }
    let n_sessions = shape.sessions();
    let b = Bench::new(trace, corrupt);
    let mut m = Meta {
        b: b.clone(),
        fs,
        shape,
        ro: ro.clone(),
        pat: ro_expect,
        pattern,
        expect,
        templates,
        outcomes: RefCell::new(vec![Vec::new(); n_sessions as usize]),
        scripts: RefCell::new(Vec::new()),
        injector: None,
        chains_left: Cell::new(n_sessions),
        span_end: Cell::new(SimTime::ZERO),
        planted: Cell::new(false),
    };
    // The manager's home server dies at half the run's ops.
    let crash_at =
        (shape.mix == Mix::Untar).then(|| (0..n_sessions).map(|i| m.untar_ops(i)).sum::<u64>() / 2);
    m.injector = crash_at.map(|at| {
        let plan = ProgressPlan::new().server_crash_at_op(
            at,
            fs,
            "meta-srv0",
            Some(SimDuration::from_millis(600)),
        );
        RefCell::new(ProgressInjector::new(&plan))
    });
    // Every session's ops, generated up front so the measured phase runs
    // only the program and the checks.
    let lease_n = if shape.managers > 1 {
        shape.lease_contexts as usize
    } else {
        0
    };
    let spc = shape.sessions_per_ctx as usize;
    let scripts: Vec<Vec<(Op, u64)>> = (0..n_sessions)
        .map(|idx| {
            let gi = idx as usize / spc;
            let mut g = Gen {
                idx,
                rng: Rng::new(seed, 0x5e55_0000 + u64::from(idx)),
                step: 0,
                pos: 0,
                since_ro: 0,
                lease: (gi < lease_n).then_some(gi as u32),
            };
            std::iter::from_fn(|| m.next_op(&mut g)).collect()
        })
        .collect();
    b.expect_ops(scripts.iter().map(|s| s.len() as u64).sum());
    m.scripts = RefCell::new(scripts);
    let m = Rc::new(m);

    // Mounts, and leases for the leased groups: set-up, not measured.
    let leased: Rc<RefCell<Vec<bool>>> =
        Rc::new(RefCell::new(vec![false; shape.contexts as usize]));
    for (gi, group) in sessions.chunks(spc).enumerate() {
        let group = group.to_vec();
        let leased = leased.clone();
        group[0].mount(
            &mut sim,
            &mut w,
            "meta",
            AccessMode::ReadWrite,
            move |sim, w, r| {
                r.expect("meta mount");
                for s in &group[1..] {
                    s.bind_device(w, "meta");
                }
                if gi < lease_n {
                    group[0].acquire_lease(sim, w, &format!("/w{gi:02}"), move |_, _, r| {
                        r.expect("lease acquire");
                        leased.borrow_mut()[gi] = true;
                    });
                }
            },
        );
    }
    sim.run(&mut w);
    assert!(
        leased.borrow().iter().take(lease_n).all(|&l| l),
        "every leased group holds its lease"
    );
    let setup_s = t_setup.elapsed().as_secs_f64();
    if setup_only {
        return RoundOut::setup_only(setup_s);
    }

    // Measured phase.
    let t0 = sim.now();
    let svc0: Vec<u64> = w.fss[fs.0 as usize]
        .mgrs
        .iter()
        .map(|m| m.service_ns)
        .collect();
    let snap0 = w.fss[fs.0 as usize].core.meta_snapshot();
    let events0 = sim.executed();
    let t_run = Instant::now();
    let cpu0 = crate::bench::cpu_ticks();
    {
        let m = m.clone();
        let sessions = sessions.clone();
        sim.at(t0, move |sim, w| {
            for (gi, group) in sessions.chunks(spc).enumerate() {
                let left = Rc::new(Cell::new(group.len() as u32));
                for (j, &sess) in group.iter().enumerate() {
                    let idx = (gi * spc + j) as u32;
                    let lease = (gi < lease_n).then(|| (gi as u32, left.clone(), group[0]));
                    let script =
                        std::mem::take(&mut m.scripts.borrow_mut()[idx as usize]).into_iter();
                    let c = Chain {
                        sess,
                        idx,
                        script,
                        lease,
                    };
                    if corrupt == Corrupt::Stall && idx == 0 {
                        // Self-test: one op is issued and its chain dropped.
                        m.b.issue();
                        continue;
                    }
                    next(m.clone(), sim, w, c);
                }
            }
            if m.shape.managers > 1 && m.shape.rebalance_ms > 0 {
                rebalance_tick(m.clone(), sim);
            }
        });
    }
    let mut tick = 0u64;
    crate::bench::drive(&b, &mut sim, &mut w, |_sim, w, t: &mut Tracer| {
        tick += 1;
        if tick.is_multiple_of(256) {
            let wal = w.fss[fs.0 as usize]
                .mgrs
                .iter()
                .map(|m| m.wal_len())
                .max()
                .unwrap_or(0);
            t.wal_len_max = t.wal_len_max.max(wal);
        }
    });
    let wall = t_run.elapsed().as_secs_f64();
    let kfrac = crate::bench::kernel_frac(cpu0, crate::bench::cpu_ticks());
    let verify_s = b.verify_ns.get() as f64 / 1e9;
    let measured_s = (wall - verify_s).max(1e-9);

    // Oracle check of the untar streams (outside the measured window).
    if shape.mix == Mix::Untar {
        for why in oracle_check(&m) {
            b.rec.borrow_mut().fail(why);
        }
    }
    if corrupt == Corrupt::Fsck {
        let core = &mut w.fss[fs.0 as usize].core;
        let a = core.lookup(&ro[0].0).expect("ro file");
        let other = core
            .block_map(core.lookup(&ro[1].0).expect("ro file"), 0, 1)
            .expect("map")[0]
            .1
            .expect("block");
        core.corrupt_block_pointer_for_test(a, 0, other);
    }
    if corrupt == Corrupt::Invariant {
        w.fss[fs.0 as usize].replicas.counters.stale_reads += 1;
    }
    let mut gate = Vec::new();
    if m.chains_left.get() != 0 {
        gate.push(format!(
            "{} session chain(s) did not drain",
            m.chains_left.get()
        ));
    }
    let mut rec = std::mem::take(&mut *b.rec.borrow_mut());
    if rec.completed != rec.attempted {
        gate.push(format!(
            "{} of {} ops never completed",
            rec.attempted - rec.completed,
            rec.attempted
        ));
    }
    gate.extend(world_invariants(&sim, &w));
    for (i, inst) in w.fss.iter().enumerate() {
        let r = fsck_instance(inst);
        if !r.is_clean() {
            gate.push(format!("fs {i}: fsck found {} error(s)", r.errors.len()));
        }
    }
    rec.last_done = rec.last_done.max(m.span_end.get());
    let span_ns = rec.last_done.as_nanos().saturating_sub(t0.as_nanos());
    let inst = &w.fss[fs.0 as usize];
    let fingerprint = mix(mix(rec.fingerprint, span_ns), inst.core.tree_fingerprint());

    let mut out = BTreeMap::new();
    if trace {
        let tr = b.tr.as_ref().expect("traced").borrow();
        layers::common(
            &mut out,
            &tr,
            &rec,
            &w,
            sim.executed() - events0,
            wall,
            kfrac,
        );
        layers::meta_layers(
            &mut out,
            &w,
            fs,
            &tr,
            &rec,
            span_ns,
            &svc0,
            (snap0.resolves, snap0.resolve_alloc_bytes),
        );
        layers::data_layers(&mut out, &w, fs, &tr);
        let shape2 = shape;
        let ro2 = ro.clone();
        let init = move |core: &mut FsCore| build_tree(core, &shape2, &ro2);
        layers::replays(&mut out, &w, fs, &tr, &init, 64, wall);
    }
    let line = match shape.mix {
        Mix::Uniform => format!(
            "meta_sharded: {} contexts x {} sessions x {} ops, M={} shards, {} leased contexts, rebalance every {} ms, tree {}x{}x{}, {} /ro files",
            shape.contexts,
            shape.sessions_per_ctx,
            shape.ops_per_session,
            shape.managers,
            lease_n,
            shape.rebalance_ms,
            shape.tree.0,
            shape.tree.1,
            shape.tree.2,
            shape.ro_files
        ),
        Mix::Untar => format!(
            "meta_untar: {} contexts x {} sessions, untar-build scale {} (+1 /ro read per {} ops), M=1, manager home killed at op {} for 600 ms",
            shape.contexts,
            shape.sessions_per_ctx,
            shape.untar_scale,
            RO_EVERY,
            crash_at.unwrap_or(0)
        ),
    };
    RoundOut {
        setup_s,
        measured_s,
        span_ns,
        rec,
        gate,
        fingerprint,
        layers: out,
        shape: line,
    }
}
