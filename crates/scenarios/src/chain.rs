//! # chain — the one session driver behind the storm and the trace replay
//!
//! Every session runs a chain of [`TraceOp`]s: the trace replay takes them
//! from a stream of the corpus, the metadata storm from a generator that
//! draws its uniform mix. Each op goes through one dispatcher that makes
//! the `Session` calls of its verb, then through one per-op hook: the
//! tally (op and error counts and the order-sensitive result fingerprint)
//! and, when the run carries a [`ModelFs`], the oracle diff of the op's
//! typed outcome and value. A chain advances the run's progress-keyed
//! faults between ops, and chains under a subtree lease start once it is
//! granted and surrender it when the last of them drains.

use crate::builder::pattern_bytes;
use crate::trace::{TraceOp, TraceOpKind};
use bytes::Bytes;
use gfs::faults::ProgressInjector;
use gfs::oracle::ModelFs;
use gfs::session::Session;
use gfs::types::{FsError, FsId, InodeId, OpenFlags, Owner};
use gfs::world::GfsWorld;
use gfs_auth::handshake::AccessMode;
use simcore::{Join, Sim, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// FxHash-style mixing for the result fingerprints: order-sensitive, cheap,
/// and with no dependence on anything but the value sequence.
#[inline]
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Small stable code per error variant, for fingerprinting and for
/// comparing typed outcomes.
pub(crate) fn err_code(e: &FsError) -> u64 {
    match e {
        FsError::NotFound(_) => 1,
        FsError::AlreadyExists(_) => 2,
        FsError::NotADirectory(_) => 3,
        FsError::IsADirectory(_) => 4,
        FsError::NotEmpty(_) => 5,
        FsError::NoSpace => 6,
        FsError::BadHandle => 7,
        FsError::ReadOnly => 8,
        FsError::NotMounted(_) => 9,
        FsError::AuthFailed(_) => 10,
        FsError::InvalidArgument(_) => 11,
        FsError::Timeout => 12,
        FsError::ServerDown => 13,
        FsError::Degraded(_) => 14,
    }
}

/// What a successful op answered: the values the oracle compares.
#[derive(Debug, PartialEq)]
enum Answer {
    /// Mkdir, create, write, unlink and rename.
    Done,
    /// A `stat`.
    Attr { size: u64, dir: bool },
    /// A directory listing.
    Names(Vec<String>),
    /// The bytes a read returned.
    Data(Bytes),
}

impl Answer {
    fn describe(&self) -> String {
        match self {
            Answer::Done => "Ok".to_string(),
            Answer::Attr { size, dir } => format!("attr (size {size}, dir {dir})"),
            Answer::Names(n) => format!("listing {n:?}"),
            Answer::Data(b) => format!("{} bytes", b.len()),
        }
    }
}

fn outcome_str(r: &Result<Answer, FsError>) -> String {
    match r {
        Ok(a) => a.describe(),
        Err(e) => format!("{e:?}"),
    }
}

/// The code an op result folds into the fingerprint: one per verb, with a
/// listing's or a read's length above bit 16.
fn op_code(kind: TraceOpKind, r: &Result<Answer, FsError>) -> u64 {
    let len = match r {
        Ok(Answer::Names(n)) => n.len() as u64,
        Ok(Answer::Data(b)) => b.len() as u64,
        _ => 0,
    };
    let verb = match kind {
        TraceOpKind::Stat => 30,
        TraceOpKind::Readdir => 31,
        TraceOpKind::Mkdir => 32,
        TraceOpKind::Create => 33,
        TraceOpKind::Write => 34,
        TraceOpKind::Unlink => 35,
        TraceOpKind::Rename => 36,
        TraceOpKind::Read => 37,
    };
    verb ^ (len << 16)
}

/// Per-world accounting every chain of a run updates.
#[derive(Default)]
pub(crate) struct Tally {
    /// Ops counted so far; progress-keyed faults fire against it.
    pub(crate) ops: Cell<u64>,
    pub(crate) errors: Cell<u64>,
    pub(crate) fingerprint: Cell<u64>,
    /// Errors that were `Timeout`, `ServerDown` or `Degraded`: the retry
    /// budget ran out.
    pub(crate) gave_up: Cell<u64>,
    pub(crate) err_not_found: Cell<u64>,
    pub(crate) err_exists: Cell<u64>,
    /// Every other error kind.
    pub(crate) err_races: Cell<u64>,
    /// Chains that ran out of ops.
    pub(crate) finished: Cell<u32>,
    /// Instant the last piece of chain work completed (a chain draining or
    /// a lease surrender): the honest end of the run, excluding bookkeeping
    /// such as a rebalance tick that fires after every chain is done.
    pub(crate) end: Cell<SimTime>,
}

impl Tally {
    /// Count one op result: fingerprint it (the code, shifted over the
    /// error variant on failure) and put an error in exactly one bucket,
    /// so `errors == not_found + exists + races + gave_up`.
    pub(crate) fn record(&self, code: u64, err: Option<&FsError>) {
        self.ops.set(self.ops.get() + 1);
        let v = match err {
            None => code,
            Some(e) => {
                self.errors.set(self.errors.get() + 1);
                let bucket = match e {
                    FsError::NotFound(_) => &self.err_not_found,
                    FsError::AlreadyExists(_) => &self.err_exists,
                    FsError::Timeout | FsError::ServerDown | FsError::Degraded(_) => &self.gave_up,
                    _ => &self.err_races,
                };
                bucket.set(bucket.get() + 1);
                code << 8 | err_code(e)
            }
        };
        self.fingerprint.set(mix(self.fingerprint.get(), v));
    }
}

/// The oracle hook: every op also runs on a [`ModelFs`] with none of the
/// caching, sharding, token or lease machinery, and its typed outcome and
/// value must match. Sound when the chains touch disjoint namespaces, each
/// chain being sequential.
pub(crate) struct Oracle {
    pub(crate) model: RefCell<ModelFs>,
    pub(crate) divergences: Cell<u64>,
    /// The first divergences, rendered for humans.
    pub(crate) samples: RefCell<Vec<String>>,
}

impl Oracle {
    pub(crate) fn new(model: ModelFs) -> Self {
        Oracle {
            model: RefCell::new(model),
            divergences: Cell::new(0),
            samples: RefCell::new(Vec::new()),
        }
    }

    pub(crate) fn diverge(&self, msg: String) {
        self.divergences.set(self.divergences.get() + 1);
        let mut s = self.samples.borrow_mut();
        if s.len() < 16 {
            s.push(msg);
        }
    }

    fn check(&self, op: &TraceOp, real: &Result<Answer, FsError>) {
        let model = self.apply(op);
        let same = match (real, &model) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => err_code(a) == err_code(b),
            _ => false,
        };
        if !same {
            self.diverge(format!(
                "{} {}: real {} vs oracle {}",
                op.kind.kw(),
                op.path,
                outcome_str(real),
                outcome_str(&model)
            ));
        }
    }

    /// Compare the final trees by structural fingerprint (`real` is the
    /// core's); on a mismatch count it, and sample the differing paths, as
    /// divergences. Returns whether the trees match.
    pub(crate) fn diff_tree(&self, core: &gfs::FsCore, real: u64) -> bool {
        let model = self.model.borrow();
        let oracle = model.tree_fingerprint();
        if real == oracle {
            return true;
        }
        self.diverge(format!("final tree: real {real:#x} vs oracle {oracle:#x}"));
        let mut seen: Vec<(String, u64, bool)> = Vec::new();
        let mut stack = vec!["/".to_string()];
        while let Some(dir) = stack.pop() {
            let Ok(names) = core.readdir(&dir) else {
                continue;
            };
            for name in names {
                let path = if dir == "/" {
                    format!("/{name}")
                } else {
                    format!("{dir}/{name}")
                };
                if let Ok(attr) = core.stat(&path) {
                    if attr.is_dir {
                        stack.push(path.clone());
                    }
                    seen.push((path, attr.size, attr.is_dir));
                }
            }
        }
        let flat = model.flatten();
        for (path, size, is_dir) in &seen {
            match flat.iter().find(|(p, _, _)| p == path) {
                None => self.diverge(format!("tree: {path} exists only in the real fs")),
                Some((_, msize, mdir)) if (msize, mdir) != (size, is_dir) => self.diverge(format!(
                    "tree: {path} real (size {size}, dir {is_dir}) vs oracle (size {msize}, dir {mdir})"
                )),
                _ => {}
            }
        }
        for (path, _, _) in &flat {
            if !seen.iter().any(|(p, _, _)| p == path) {
                self.diverge(format!("tree: {path} exists only in the oracle"));
            }
        }
        false
    }

    /// Run `op` on the model: a write opens and writes the same pattern
    /// the session wrote, a read opens and reads.
    fn apply(&self, op: &TraceOp) -> Result<Answer, FsError> {
        let mut m = self.model.borrow_mut();
        let p = op.path.as_str();
        let done = |_| Answer::Done;
        match op.kind {
            TraceOpKind::Mkdir => m.mkdir(p).map(done),
            TraceOpKind::Create => m.open(p, OpenFlags::Write).map(done),
            TraceOpKind::Stat => m.stat(p).map(|a| Answer::Attr {
                size: a.size,
                dir: a.is_dir,
            }),
            TraceOpKind::Readdir => m.readdir(p).map(Answer::Names),
            TraceOpKind::Unlink => m.unlink(p).map(|()| Answer::Done),
            TraceOpKind::Rename => {
                let to = op.path2.as_deref().expect("rename has a target");
                m.rename(p, to).map(|()| Answer::Done)
            }
            TraceOpKind::Write => {
                let id = m.open(p, OpenFlags::Write)?;
                m.write(id, 0, &pattern_bytes(0, op.size))
                    .map(|()| Answer::Done)
            }
            TraceOpKind::Read => {
                let id = m.open(p, OpenFlags::Read)?;
                m.read(id, 0, op.size).map(|v| Answer::Data(Bytes::from(v)))
            }
        }
    }
}

/// The replay's mid-run replica install: once the run has counted `at`
/// ops, every non-empty file gets a copy on the mirror `site`.
pub(crate) struct Mirror {
    pub(crate) fs: FsId,
    pub(crate) site: u32,
    pub(crate) at: u64,
    /// The install fired.
    pub(crate) installed: Cell<bool>,
}

impl Mirror {
    /// Walk the live tree and register a copy of every non-empty file at
    /// the current generation. Fires once, between ops, so it is a
    /// deterministic simulation event.
    fn install(&self, w: &mut GfsWorld) {
        let mut files: Vec<(InodeId, u64)> = Vec::new();
        let core = &w.fss[self.fs.0 as usize].core;
        let mut stack = vec!["/".to_string()];
        while let Some(dir) = stack.pop() {
            let Ok(names) = core.readdir(&dir) else {
                continue;
            };
            for name in names {
                let path = if dir == "/" {
                    format!("/{name}")
                } else {
                    format!("{dir}/{name}")
                };
                let Ok(attr) = core.stat(&path) else { continue };
                if attr.is_dir {
                    stack.push(path);
                } else if attr.size > 0 {
                    files.push((attr.inode, attr.size));
                }
            }
        }
        let cat = &mut w.fss[self.fs.0 as usize].replicas;
        for &(ino, size) in &files {
            cat.register(ino);
            cat.install_copy(ino, self.site, size);
        }
        self.installed.set(true);
    }
}

/// What every chain of one run shares.
#[derive(Default)]
pub(crate) struct Run {
    pub(crate) tally: Tally,
    /// Progress-keyed faults, advanced against `tally.ops` between ops.
    pub(crate) faults: Option<RefCell<ProgressInjector>>,
    pub(crate) oracle: Option<Oracle>,
    pub(crate) mirror: Option<Mirror>,
}

impl Run {
    /// The per-op hook: tally the result, and diff it when the run carries
    /// an oracle.
    fn record(&self, op: &TraceOp, r: &Result<Answer, FsError>) {
        self.tally.record(op_code(op.kind, r), r.as_ref().err());
        if let Some(o) = &self.oracle {
            o.check(op, r);
        }
    }
}

/// A subtree lease that some chains run under: the first chain carrying it
/// acquires it before any of them starts; the last to drain surrenders it,
/// reconciling the delegate journal.
pub(crate) struct Lease {
    /// Absolute path of the leased top directory.
    top: String,
    /// The session that acquires and surrenders the lease.
    holder: Session,
    /// Joins the chains running under the lease; the last one to drain
    /// surrenders it.
    drained: Join<GfsWorld>,
}

impl Lease {
    /// A lease on `top` that `holder` acquires for `chains` chains of `run`.
    pub(crate) fn new(top: String, holder: Session, chains: usize, run: Rc<Run>) -> Rc<Lease> {
        let at = top.clone();
        let drained = Join::<GfsWorld>::new(chains, move |sim, w, _| {
            holder.surrender_lease(sim, w, &at, move |sim, _w, r| {
                r.expect("lease surrender");
                run.tally.end.set(sim.now());
            });
        });
        Rc::new(Lease {
            top,
            holder,
            drained,
        })
    }
}

/// One session's op chain.
pub(crate) struct Chain {
    pub(crate) sess: Session,
    /// The next op, or `None` once the chain is done.
    pub(crate) ops: Box<dyn FnMut() -> Option<TraceOp>>,
    pub(crate) lease: Option<Rc<Lease>>,
    pub(crate) run: Rc<Run>,
}

/// Mount each group's context on `device` through its first session, bind
/// the others, and start every chain; a run of consecutive chains under one
/// lease starts once it is granted. The caller runs the simulation to
/// drain them.
pub(crate) fn launch(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    device: &'static str,
    groups: Vec<Vec<Chain>>,
) {
    for group in groups {
        group[0]
            .sess
            .mount(sim, w, device, AccessMode::ReadWrite, move |sim, w, r| {
                r.expect("mount");
                for c in &group[1..] {
                    c.sess.bind_device(w, device);
                }
                let mut chains = group.into_iter().peekable();
                while let Some(c) = chains.next() {
                    let Some(lease) = c.lease.clone() else {
                        step(sim, w, c);
                        continue;
                    };
                    let mut under = vec![c];
                    while let Some(c) =
                        chains.next_if(|n| n.lease.as_ref().is_some_and(|l| Rc::ptr_eq(l, &lease)))
                    {
                        under.push(c);
                    }
                    lease
                        .holder
                        .acquire_lease(sim, w, &lease.top, move |sim, w, r| {
                            r.expect("lease acquire");
                            for c in under {
                                step(sim, w, c);
                            }
                        });
                }
            });
    }
}

/// One step of a chain: advance progress-keyed faults and the mirror
/// install against the run's op count, then issue the next op after its
/// think time, or finish the chain.
fn step(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, mut c: Chain) {
    let ops = c.run.tally.ops.get();
    if let Some(faults) = &c.run.faults {
        faults.borrow_mut().advance(sim, w, ops);
    }
    if let Some(m) = &c.run.mirror {
        if !m.installed.get() && ops >= m.at {
            m.install(w);
        }
    }
    match (c.ops)() {
        Some(op) if op.think_ns > 0 => {
            let think = SimDuration::from_nanos(op.think_ns);
            sim.after(think, move |sim, w| dispatch(sim, w, c, op));
        }
        Some(op) => dispatch(sim, w, c, op),
        None => finish(sim, w, c),
    }
}

fn finish(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, c: Chain) {
    let t = &c.run.tally;
    t.finished.set(t.finished.get() + 1);
    t.end.set(sim.now());
    if let Some(lease) = c.lease {
        lease.drained.arrive(sim, w, Ok(()));
    }
}

impl Chain {
    /// Record `op`'s result, then take the chain's next step.
    fn next(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        op: &TraceOp,
        r: Result<Answer, FsError>,
    ) {
        self.run.record(op, &r);
        step(sim, w, self);
    }
}

/// Issue `op` through the chain's session: one metadata call, or open, the
/// data call and close. A create is open-for-write and close; a write of 0
/// bytes is the same. A write's result is the close's (which flushes it),
/// or the write's own error, after which the handle is still closed; a
/// read's result is the read's, recorded before the close.
fn dispatch(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, c: Chain, op: TraceOp) {
    let sess = c.sess;
    let path = op.path.clone();
    let owner = Owner::local(0, 0);
    match op.kind {
        TraceOpKind::Mkdir => sess.mkdir(sim, w, &path, owner, move |sim, w, r| {
            c.next(sim, w, &op, r.map(|_| Answer::Done))
        }),
        TraceOpKind::Stat => sess.stat(sim, w, &path, move |sim, w, r| {
            let r = r.map(|a| Answer::Attr {
                size: a.size,
                dir: a.is_dir,
            });
            c.next(sim, w, &op, r)
        }),
        TraceOpKind::Readdir => sess.readdir(sim, w, &path, move |sim, w, r| {
            c.next(sim, w, &op, r.map(Answer::Names))
        }),
        TraceOpKind::Unlink => sess.unlink(sim, w, &path, move |sim, w, r| {
            c.next(sim, w, &op, r.map(|()| Answer::Done))
        }),
        TraceOpKind::Rename => {
            let to = op.path2.clone().expect("rename has a target");
            sess.rename(sim, w, &path, &to, move |sim, w, r| {
                c.next(sim, w, &op, r.map(|()| Answer::Done))
            })
        }
        TraceOpKind::Create | TraceOpKind::Write => sess.open(
            sim,
            w,
            &path,
            OpenFlags::Write,
            owner,
            move |sim, w, r| match r {
                Err(e) => c.next(sim, w, &op, Err(e)),
                Ok(h) if op.kind == TraceOpKind::Create || op.size == 0 => {
                    sess.close(sim, w, h, move |sim, w, r| {
                        c.next(sim, w, &op, r.map(|()| Answer::Done))
                    })
                }
                Ok(h) => {
                    let data = pattern_bytes(0, op.size);
                    sess.write(sim, w, h, 0, data, move |sim, w, r| {
                        let failed = r.is_err();
                        if let Err(e) = r {
                            c.run.record(&op, &Err(e));
                        }
                        sess.close(sim, w, h, move |sim, w, r| {
                            if failed {
                                step(sim, w, c)
                            } else {
                                c.next(sim, w, &op, r.map(|()| Answer::Done))
                            }
                        })
                    })
                }
            },
        ),
        TraceOpKind::Read => {
            sess.open(
                sim,
                w,
                &path,
                OpenFlags::Read,
                owner,
                move |sim, w, r| match r {
                    Err(e) => c.next(sim, w, &op, Err(e)),
                    Ok(h) => sess.read(sim, w, h, 0, op.size, move |sim, w, r| {
                        c.run.record(&op, &r.map(Answer::Data));
                        sess.close(sim, w, h, move |sim, w, _| step(sim, w, c))
                    }),
                },
            )
        }
    }
}
