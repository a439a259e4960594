//! Flyweight sessions and manager-RPC fan-in: the one metadata call
//! surface.
//!
//! Every [`crate::world::Client`] is a heavyweight mount context — its own
//! page pool, token mirror and mount table. Real wide-area deployments
//! (XUFS-style per-user sessions over shared per-site state, Grid
//! Datafarm's worldwide user counts) need thousands of *users* per
//! mounting node.
//!
//! A [`Session`] is a flyweight over one mount context: thousands of
//! sessions share a `Client`'s pool and tokens, while per-session state is
//! just a slab-allocated handle table, a cwd, a bound device and an
//! in-flight counter ([`SessionState`]). The facade methods
//! (`sess.mkdir(sim, w, path, cb)` …) are the only way to run a metadata
//! op; the data-path methods wrap [`client::read`] and [`client::fsync`],
//! and hand the session itself to `client::write` and `client::truncate`,
//! whose block allocation and size change ride the session's envelopes.
//!
//! Every manager request is a value, a [`MetaOp`], answered by a
//! [`Reply`]; [`MetaOp::apply`] runs it at the owning shard or at a lease
//! delegate. The manager's WAL and dedup table and a delegate's journal
//! hold the recorded [`Outcome`]s, so they can be printed, compared and
//! replayed.
//!
//! **Fan-in**: sessions batch same-instant manager requests — metadata
//! ops, write allocation, truncate, lease acquire and surrender — into
//! one *envelope* per `(context, fs, shard)`: one request
//! message, one watchdog, one response for the whole batch, with per-op
//! results demuxed in submission order. A context with one session simply
//! sends one-op envelopes. Exactly-once semantics are preserved per
//! session op id: a retried envelope replays recorded outcomes from the
//! manager's dedup table instead of re-running mutations. This is what
//! makes a 100k-session, 10M-op storm affordable: the simulator pays a
//! handful of events per *envelope* instead of four per op.

use crate::cache::PrefetchState;
use crate::client::{self, Cb};
use crate::fscore::FileAttr;
use crate::rpc::{self, Attempt};
use crate::types::{ClientId, FsError, FsId, Handle, InodeId, OpenFlags, Owner, SessionId};
use crate::world::{GfsWorld, JournalEntry, Mount, OpenFile};
use bytes::Bytes;
use gfs_auth::handshake::AccessMode;
use simcore::fxhash::{FxHashMap, FxHashSet};
use simcore::{Sim, SimDuration};
use simnet::Network;
use std::cell::{Cell, RefCell};
use std::ops::ControlFlow::Continue;
use std::rc::Rc;

/// Per-session state: everything a simulated user owns that is *not*
/// shared with the other users of the mount context. Deliberately tiny —
/// the design target is 100k+ live sessions per world.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// The shared mount context this session rides on.
    pub ctx: ClientId,
    /// Open handles, slab-allocated (session-local fd → shared [`Handle`]).
    pub handles: crate::slab::Slab<Handle>,
    /// Current working directory for relative-path resolution.
    pub cwd: String,
    /// Device name ops resolve against (bound by `mount`/`bind_device`).
    pub device: Option<String>,
    /// Facade operations currently in flight (invariant: drains to 0).
    pub inflight_ops: u32,
    /// Sequence for session op ids: bit 63 set, session id in bits 62..32,
    /// bit 31 set for a delegated op, sequence below. Every manager request
    /// a session sends — metadata, write allocation, truncate, lease verbs
    /// — and every delegated op takes its id here; the only other ids in a
    /// manager's dedup table are bit-62 migration records, so the two never
    /// collide.
    pub next_op_seq: u64,
    /// Highest sequence this session has acked: every op at or below it
    /// was answered, and its range went onto the context's retirement list
    /// (`Session::exit`), so the manager may drop the recorded
    /// copies (see [`crate::world::ManagerState::retire`]).
    pub acked_seq: u64,
}

impl SessionState {
    /// Fresh session state on mount context `ctx`.
    pub fn new(ctx: ClientId) -> Self {
        SessionState {
            ctx,
            handles: crate::slab::Slab::new(),
            cwd: "/".to_string(),
            device: None,
            inflight_ops: 0,
            next_op_seq: 0,
            acked_seq: 0,
        }
    }
}

/// One manager request. A session builds it, an envelope carries it to
/// the owning shard (or a leased subtree's delegate runs it locally), and
/// [`MetaOp::apply`] executes it there.
#[derive(Clone, Debug, PartialEq)]
pub enum MetaOp {
    /// Create a directory.
    Mkdir { path: String, owner: Owner },
    /// A path's attributes.
    Stat { path: String },
    /// List a directory.
    Readdir { path: String },
    /// Remove a file or empty directory.
    Unlink { path: String },
    /// Rename within the filesystem.
    Rename { from: String, to: String },
    /// Resolve a file, creating it for a writing open.
    Open { path: String, flags: OpenFlags, owner: Owner },
    /// A write's block allocation and size update, for bytes `offset..end`.
    Allocate { inode: InodeId, offset: u64, end: u64 },
    /// Set a file's size.
    Truncate { inode: InodeId, size: u64 },
    /// Lease subtree `top` to `holder`'s delegate.
    LeaseGrant { top: Box<str>, holder: ClientId },
    /// Drop `holder`'s own lease on `top`, if it still has it.
    LeaseRelease { top: Box<str>, holder: ClientId },
    /// A delegate-journal entry under subtree `top`: the mutation already
    /// ran under the lease, so the manager only records its outcome.
    Replay { top: Box<str>, result: Outcome },
}

/// What a manager op answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Unlink, rename, write allocation, truncate and the lease verbs.
    Done,
    /// The new directory.
    Created(InodeId),
    /// A path's attributes.
    Attr(FileAttr),
    /// A directory's entries.
    Names(Vec<String>),
    /// The opened file.
    Opened(FsId, InodeId),
    /// Not an op's answer but a WAL record: subtree `subtree` moved from
    /// shard `from` to shard `to` (see [`client::maybe_rebalance`]).
    Migrated { subtree: Box<str>, from: u32, to: u32 },
}

/// A manager op's recorded outcome: what the WAL, the dedup table and a
/// delegate journal keep, and what an envelope carries back per op.
pub type Outcome = Result<Reply, FsError>;

impl MetaOp {
    /// Does the op change the namespace or a file? The manager records
    /// the outcome of such an op, and a read-only mount refuses it.
    fn mutating(&self) -> bool {
        match self {
            MetaOp::Stat { .. } | MetaOp::Readdir { .. } => false,
            MetaOp::LeaseGrant { .. } | MetaOp::LeaseRelease { .. } => false,
            MetaOp::Open { flags, .. } => flags.writes(),
            _ => true,
        }
    }

    /// A namespace op's path, which picks its owning shard, and the other
    /// path of an op that may span two shards: a rename's destination, a
    /// mkdir's parent. Empty for the other ops.
    fn route(&self) -> (&str, Option<&str>) {
        match self {
            MetaOp::Mkdir { path, .. } => {
                let parent = match path.rfind('/') {
                    Some(0) | None => "/",
                    Some(i) => &path[..i],
                };
                (path, Some(parent))
            }
            MetaOp::Rename { from, to } => (from, Some(to)),
            MetaOp::Stat { path } | MetaOp::Readdir { path } => (path, None),
            MetaOp::Unlink { path } | MetaOp::Open { path, .. } => (path, None),
            _ => ("", None),
        }
    }

    /// The top-level subtree the op touches, for the lease rule. Empty for
    /// ops outside the namespace, and for a release: a surrender must never
    /// trip the rule against a newer holder.
    fn top(&self) -> &str {
        match self {
            MetaOp::LeaseGrant { top, .. } | MetaOp::Replay { top, .. } => top,
            _ => crate::fscore::top_component(self.route().0),
        }
    }

    /// Run the op on filesystem `fs` at time `now` (ns), through `shard`'s
    /// precisely invalidated path cache (see
    /// [`crate::world::ManagerState::cached_path`]): at the owning shard,
    /// or at the lease delegate of a context leasing the op's subtree.
    pub fn apply(&self, w: &mut GfsWorld, fs: FsId, shard: u32, now: u64) -> Outcome {
        let inst = &mut w.fss[fs.0 as usize];
        match self {
            MetaOp::Mkdir { path, owner } => {
                let ch = inst.core.mkdir_entry(path, owner.clone(), now)?;
                // Seed the owning manager's cache — the creator (or a
                // sibling session) will almost always resolve it next.
                inst.mgrs[shard as usize].cache_path(path, ch.id);
                Ok(Reply::Created(ch.id))
            }
            MetaOp::Stat { path } => {
                let id = inst.mgrs[shard as usize].lookup(&inst.core, path)?;
                inst.core.stat_id(id).map(Reply::Attr)
            }
            MetaOp::Readdir { path } => {
                let id = inst.mgrs[shard as usize].lookup(&inst.core, path)?;
                match inst.core.readdir_id(id) {
                    Ok(names) => Ok(Reply::Names(names)),
                    Err(FsError::NotADirectory(_)) => Err(FsError::NotADirectory(path.clone())),
                    Err(e) => Err(e),
                }
            }
            MetaOp::Unlink { path } => {
                let ch = inst.core.unlink_entry(path)?;
                // Every shard drops the path, not just the one that ran the
                // op: a shard that owned the subtree before a migration may
                // still cache it.
                for mgr in &mut inst.mgrs {
                    mgr.uncache_path(path);
                }
                // Every context drops the dead file's cached pages (the
                // manager broadcasts in GPFS; the effect is applied
                // directly and charged nothing extra).
                for c in &mut w.clients {
                    c.pool.invalidate_file(fs, ch.id);
                }
                Ok(Reply::Done)
            }
            MetaOp::Rename { from, to } => {
                let ch = inst.core.rename_entry(from, to)?;
                // A rename moves a whole subtree; every cached path under
                // it is suspect, so every manager drops its cache wholesale
                // (a cross-shard rename invalidates on both owners).
                for mgr in &mut inst.mgrs {
                    mgr.uncache_all_paths();
                }
                // A rename that replaced an existing target drops the old
                // target's cached pages everywhere.
                if let Some(rid) = ch.replaced {
                    for c in &mut w.clients {
                        c.pool.invalidate_file(fs, rid);
                    }
                }
                Ok(Reply::Done)
            }
            MetaOp::Open { path, flags, owner } => {
                let mgr = &mut inst.mgrs[shard as usize];
                let inode = match mgr.lookup(&inst.core, path) {
                    Ok(id) if inst.core.inode(id)?.is_dir() => {
                        return Err(FsError::IsADirectory(path.clone()))
                    }
                    Ok(id) => id,
                    Err(FsError::NotFound(_)) if flags.writes() => {
                        let ch = inst.core.create_file_entry(path, owner.clone(), now)?;
                        mgr.cache_path(path, ch.id);
                        ch.id
                    }
                    Err(e) => return Err(e),
                };
                Ok(Reply::Opened(fs, inode))
            }
            MetaOp::Allocate { inode, offset, end } => {
                let block = inst.core.config.block_size;
                for b in offset / block..end.div_ceil(block) {
                    inst.core.ensure_block(*inode, b)?;
                }
                inst.core.note_write(*inode, *offset, end - offset, now)?;
                // Write-consistency hook: bump the file generation and
                // invalidate replica copies. Rides the byte-range token
                // revocation that already serialized this write against
                // readers.
                inst.replicas.on_write(*inode);
                Ok(Reply::Done)
            }
            MetaOp::Truncate { inode, size } => {
                inst.core.truncate(*inode, *size, now).map(|()| Reply::Done)
            }
            MetaOp::LeaseGrant { top, holder } => {
                if inst.leases.insert(top.clone(), *holder).is_none() {
                    inst.lease_grants += 1;
                }
                Ok(Reply::Done)
            }
            MetaOp::LeaseRelease { top, holder } => {
                if inst.leases.get(top) == Some(holder) {
                    inst.leases.remove(top);
                }
                Ok(Reply::Done)
            }
            MetaOp::Replay { result, .. } => {
                // Runs only when the dedup table has no record yet — the
                // counter is the proof each entry applied exactly once.
                inst.reconcile_ops += 1;
                result.clone()
            }
        }
    }
}

// Each op's typed answer, for the `Session` callbacks. An op only ever
// answers with its own kind of reply; an op's own error and the envelope's
// alike reach the callback as `Err`.

impl From<Reply> for () {
    fn from(_: Reply) {}
}

impl From<Reply> for InodeId {
    fn from(r: Reply) -> Self {
        match r {
            Reply::Created(id) => id,
            r => unreachable!("{r:?} answers another op"),
        }
    }
}

impl From<Reply> for FileAttr {
    fn from(r: Reply) -> Self {
        match r {
            Reply::Attr(a) => a,
            r => unreachable!("{r:?} answers another op"),
        }
    }
}

impl From<Reply> for Vec<String> {
    fn from(r: Reply) -> Self {
        match r {
            Reply::Names(names) => names,
            r => unreachable!("{r:?} answers another op"),
        }
    }
}

impl From<Reply> for (FsId, InodeId) {
    fn from(r: Reply) -> Self {
        match r {
            Reply::Opened(fs, id) => (fs, id),
            r => unreachable!("{r:?} answers another op"),
        }
    }
}

/// A session callback as a batch op's.
fn typed<T: From<Reply> + 'static>(
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<T, FsError>) + 'static,
) -> Cb<Result<Outcome, FsError>> {
    Box::new(move |sim, w, r| cb(sim, w, r.and_then(|o| o.map(T::from))))
}

/// One op inside a fan-in envelope or a delegate batch: the request, the
/// session op id it runs under, its routing, and its callback. The
/// callback gets the op's outcome, or the error that ended the envelope's
/// exchange.
pub struct BatchOp {
    op_id: u64,
    op: MetaOp,
    /// The shard the op was routed to: its envelope's destination, and the
    /// path cache a delegate serves it through.
    shard: u32,
    /// Owning shard of the *other* path of a cross-shard op (rename whose
    /// destination lives elsewhere, mkdir at a shard boundary). `None` for
    /// single-shard ops.
    peer: Option<u32>,
    /// Times this op was deferred and re-queued (lease recall under way,
    /// peer shard recovering); bounded so a wedged peer surfaces as
    /// `Timeout` instead of an endless re-poll.
    defers: u32,
    deliver: Cb<Result<Outcome, FsError>>,
}

impl BatchOp {
    fn new(op_id: u64, op: MetaOp, shard: u32, peer: Option<u32>, deliver: Cb<Result<Outcome, FsError>>) -> Self {
        BatchOp {
            op_id,
            op,
            shard,
            peer,
            defers: 0,
            deliver,
        }
    }
}

/// Manager-RPC fan-in state on the world: per-`(mount ctx, fs, shard)`
/// batches open in the current instant, plus envelope accounting.
#[derive(Default)]
pub struct FanIn {
    /// Batches still collecting ops this instant (flushed by a scheduled
    /// same-instant event), keyed by `(ctx, fs, manager shard)` — each
    /// envelope travels to the one manager that owns every op inside it.
    pending: FxHashMap<(u32, u32, u32), Vec<BatchOp>>,
    /// Per-shard envelope gate (multi-shard worlds only): envelopes in
    /// flight per `(ctx, fs, shard)`. While nonzero, newly-submitted ops
    /// for that shard park in `pending` instead of flushing — they re-form
    /// as the next envelope the instant the in-flight one returns. Gating
    /// per shard (rather than one barrier across the whole context) keeps
    /// batching without a convoy: a slow envelope — say one carrying a
    /// multi-hop two-phase rename — stalls only its own shard's stream
    /// while the other shards keep pipelining. Without any gate, per-shard
    /// routing fragments the PR-6 batching: each shard's queue completes
    /// at a different instant, the session cohort splinters ~M-ways per
    /// round, and envelopes degenerate to one op each.
    outstanding: FxHashMap<(u32, u32, u32), u32>,
    /// `(ctx, fs, shard)` keys with a same-instant flush already scheduled
    /// (dedups the flush event across many same-instant submits).
    armed: FxHashSet<(u32, u32, u32)>,
    /// Op-id ranges whose outcomes reached their sessions, keyed by
    /// `(ctx, fs)`: the next envelope of that context to the filesystem
    /// tells the manager to retire them on every shard. A session adds the
    /// ids it took since its last ack once its last op in flight completes
    /// (`Session::exit`); a reconcile adds each journal entry it answered,
    /// recorded under an original session op id the session acked before
    /// the reconcile recorded it.
    retire: FxHashMap<(u32, u32), Vec<(u64, u64)>>,
    /// Delegate batches collecting this instant, keyed by `(ctx, fs)` —
    /// writeback-delegated ops batch exactly like envelopes do, paying a
    /// couple of simulator events per *batch* on the local delegate queue.
    dpending: FxHashMap<(u32, u32), Vec<BatchOp>>,
    /// Envelopes sent (first attempts; retries counted separately).
    pub envelopes: u64,
    /// Total ops carried by those envelopes.
    pub envelope_ops: u64,
    /// Whole-envelope retries after a watchdog timeout.
    pub retries: u64,
    /// Largest single envelope seen.
    pub max_batch: u64,
    /// Ops served by a site-local subtree-lease delegate instead of a
    /// manager envelope.
    pub delegated: u64,
}

impl FanIn {
    /// Ops sitting in not-yet-flushed batches. Unlike the single-shard
    /// world this is *not* zero between events in wave mode (parked ops
    /// wait out the in-flight wave), but it still drains to 0 with the
    /// sim — every park either has a flush armed or a wave outstanding
    /// whose return arms one.
    pub fn pending_ops(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Delegate ops sitting in not-yet-flushed batches (invariant: 0 once
    /// the sim drains — every submit schedules a same-instant flush).
    pub fn delegate_pending_ops(&self) -> usize {
        self.dpending.values().map(Vec::len).sum()
    }
}

impl GfsWorld {
    /// Open a new flyweight session on mount context `ctx`.
    pub fn open_session(&mut self, ctx: ClientId) -> Session {
        assert!(
            (ctx.0 as usize) < self.clients.len(),
            "open_session on unknown client {ctx:?}"
        );
        Session(SessionId(self.sessions.insert(SessionState::new(ctx))))
    }

    /// Close a session. Panics if it still has open handles or in-flight
    /// operations — sessions must quiesce before ending.
    pub fn end_session(&mut self, s: SessionId) {
        let st = self.sessions.remove(s.0).expect("end_session on unknown session");
        assert!(st.handles.is_empty(), "session {s:?} ended with open handles");
        assert_eq!(st.inflight_ops, 0, "session {s:?} ended with in-flight ops");
    }
}

/// A copyable handle to one flyweight session. All filesystem operations
/// hang off this — it is the redesigned client call surface.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Session(pub SessionId);

impl Session {
    /// The session's id.
    pub fn id(self) -> SessionId {
        self.0
    }

    /// The shared mount context this session rides on.
    pub fn ctx(self, w: &GfsWorld) -> ClientId {
        self.state(w).ctx
    }

    fn state(self, w: &GfsWorld) -> &SessionState {
        w.sessions.get(self.0 .0).expect("session no longer exists")
    }

    fn state_mut(self, w: &mut GfsWorld) -> &mut SessionState {
        w.sessions.get_mut(self.0 .0).expect("session no longer exists")
    }

    /// The high bits of the session's op ids (see
    /// [`SessionState::next_op_seq`]).
    fn op_base(self) -> u64 {
        (1u64 << 63) | (u64::from(self.0 .0) << 32)
    }

    /// A fresh op id in the session space. A delegated op's id has bit 31
    /// set, outside every ack range of the session (see [`Session::exit`]):
    /// the manager records it only once a reconcile lands it, and that
    /// reconcile retires it.
    fn next_op_id(self, w: &mut GfsWorld, delegated: bool) -> u64 {
        let st = self.state_mut(w);
        st.next_op_seq += 1;
        self.op_base() | u64::from(delegated) << 31 | (st.next_op_seq & 0x7fff_ffff)
    }

    fn enter(self, w: &mut GfsWorld) {
        self.state_mut(w).inflight_ops += 1;
    }

    /// A facade op completed. Once none is left in flight, every op id the
    /// session took has been answered, so the envelope op ids since its
    /// last ack join its context's retirement list (`FanIn::retire`), which
    /// the next envelope of any session of the context carries.
    fn exit(self, w: &mut GfsWorld) {
        let base = self.op_base();
        let st = self.state_mut(w);
        debug_assert!(st.inflight_ops > 0, "session inflight underflow");
        st.inflight_ops -= 1;
        let seq = st.next_op_seq & 0x7fff_ffff;
        if st.inflight_ops > 0 || st.acked_seq >= seq {
            return;
        }
        let range = (base | (st.acked_seq + 1), base | seq);
        st.acked_seq = seq;
        let st = self.state(w);
        let mount = st.device.as_deref().and_then(|d| w.clients[st.ctx.0 as usize].mounts.get(d));
        if let Some(key) = mount.map(|m| (st.ctx.0, m.fs.0)) {
            w.fanin.retire.entry(key).or_default().push(range);
        }
    }

    /// Start a facade op: count it in flight and wrap its callback so the
    /// count drops just before `cb` runs.
    fn begin<T: 'static>(
        self,
        w: &mut GfsWorld,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, T) + 'static,
    ) -> impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, T) + 'static {
        self.enter(w);
        move |sim, w, r| {
            self.exit(w);
            cb(sim, w, r)
        }
    }

    /// Bind `device` as the session's target without mounting — the
    /// flyweight path when another session already mounted it on the
    /// shared context.
    pub fn bind_device(self, w: &mut GfsWorld, device: &str) {
        self.state_mut(w).device = Some(device.to_string());
    }

    /// Change the working directory (no resolution round-trip is charged;
    /// the next op pays for any lookup as usual).
    pub fn chdir(self, w: &mut GfsWorld, path: &str) {
        let abs = self.resolve(w, path);
        self.state_mut(w).cwd = abs;
    }

    /// Resolve a possibly-relative path against the session cwd, in the
    /// canonical spelling the manager path caches key on (see
    /// [`canonical`]).
    fn resolve(self, w: &GfsWorld, path: &str) -> String {
        if path.starts_with('/') {
            return canonical(path.to_string());
        }
        let cwd = &self.state(w).cwd;
        canonical(if cwd == "/" {
            format!("/{path}")
        } else {
            format!("{cwd}/{path}")
        })
    }

    /// The mount the session's bound device names on its context,
    /// borrowing the device name in place (no per-op `String` clone).
    fn bound_mount(self, w: &GfsWorld) -> Result<Mount, FsError> {
        match self.state(w).device.as_deref() {
            Some(dev) => client::mount_of(w, self.ctx(w), dev),
            None => Err(FsError::NotMounted("no device bound to session".to_string())),
        }
    }

    /// Mount `device` on the shared context ([`client::mount`] dispatches
    /// local vs remote) and bind it as the session's target.
    pub fn mount(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        device: &str,
        mode: AccessMode,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let cb = self.begin(w, cb);
        let ctx = self.ctx(w);
        let dev = device.to_string();
        client::mount(sim, w, ctx, device, mode, move |sim, w, r| {
            if r.is_ok() {
                self.state_mut(w).device = Some(dev);
            }
            cb(sim, w, r);
        });
    }

    /// Create a directory.
    pub fn mkdir(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        owner: Owner,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<InodeId, FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        self.submit_meta(sim, w, MetaOp::Mkdir { path, owner }, cb);
    }

    /// `stat` a path.
    pub fn stat(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<FileAttr, FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        self.submit_meta(sim, w, MetaOp::Stat { path }, cb);
    }

    /// List a directory.
    pub fn readdir(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<Vec<String>, FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        self.submit_meta(sim, w, MetaOp::Readdir { path }, cb);
    }

    /// Remove a file or empty directory.
    pub fn unlink(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        self.submit_meta(sim, w, MetaOp::Unlink { path }, cb);
    }

    /// Rename within the bound filesystem. A rename coordinates at the
    /// source's owning shard; when the destination hashes elsewhere the
    /// envelope runs it as a two-phase op, charging and journaling on both
    /// managers.
    pub fn rename(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        from: &str,
        to: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let from = self.resolve(w, from);
        let to = self.resolve(w, to);
        self.submit_meta(sim, w, MetaOp::Rename { from, to }, cb);
    }

    /// Open (and possibly create) a file. The handle is shared-context
    /// scoped (usable by `read`/`write`) and tracked in the session's slab
    /// handle table until `close`.
    pub fn open(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        flags: OpenFlags,
        owner: Owner,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<Handle, FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        let ctx = self.ctx(w);
        let op = MetaOp::Open {
            path: path.clone(),
            flags,
            owner,
        };
        self.submit_meta(
            sim,
            w,
            op,
            move |sim, w, r: Result<(FsId, InodeId), FsError>| match r {
                Ok((fs, inode)) => {
                    let h = w.alloc_handle();
                    let c = &mut w.clients[ctx.0 as usize];
                    c.handles.insert(
                        h,
                        OpenFile {
                            fs,
                            inode,
                            flags,
                            path,
                        },
                    );
                    c.prefetch.insert(h, PrefetchState::new(16));
                    self.state_mut(w).handles.insert(h);
                    cb(sim, w, Ok(h));
                }
                Err(e) => cb(sim, w, Err(e)),
            },
        );
    }

    /// Close: flush the file's dirty pages, then drop the handle from
    /// both the shared context and the session table. No message goes to
    /// a manager: the context keeps its tokens on the file as cached
    /// grants (see [`crate::tokens`]) until a conflicting acquire revokes
    /// them, and that revocation is also what invalidates its cached pages
    /// when another context writes the file.
    pub fn close(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        handle: Handle,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let ctx = self.ctx(w);
        if !w.clients[ctx.0 as usize].handles.contains_key(&handle) {
            cb(sim, w, Err(FsError::BadHandle));
            return;
        }
        let cb = self.begin(w, cb);
        client::fsync(sim, w, ctx, handle, move |sim, w, r| {
            if let Err(e) = r {
                cb(sim, w, Err(degrade_err(e)));
                return;
            }
            let c = &mut w.clients[ctx.0 as usize];
            c.handles.remove(&handle);
            c.prefetch.remove(&handle);
            self.forget_handle(w, handle);
            cb(sim, w, Ok(()));
        });
    }

    /// Read through the shared page pool. Total NSD-server loss surfaces
    /// as [`FsError::Degraded`] at the session surface.
    pub fn read(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        handle: Handle,
        offset: u64,
        len: u64,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<Bytes, FsError>) + 'static,
    ) {
        let cb = self.begin(w, cb);
        let ctx = self.ctx(w);
        client::read(sim, w, ctx, handle, offset, len, move |sim, w, r| {
            cb(sim, w, degrade(r))
        });
    }

    /// Write-behind through the shared page pool; the block allocation
    /// rides this session's envelope to shard 0. Total NSD-server loss
    /// surfaces as [`FsError::Degraded`] at the session surface.
    pub fn write(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        handle: Handle,
        offset: u64,
        data: Bytes,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let cb = self.begin(w, cb);
        client::write(sim, w, self, handle, offset, data, move |sim, w, r| {
            cb(sim, w, degrade(r))
        });
    }

    /// Flush the handle's dirty pages.
    pub fn fsync(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        handle: Handle,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let cb = self.begin(w, cb);
        let ctx = self.ctx(w);
        client::fsync(sim, w, ctx, handle, move |sim, w, r| cb(sim, w, degrade(r)));
    }

    /// Truncate an open file; the size change rides this session's
    /// envelope to shard 0.
    pub fn truncate(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        handle: Handle,
        new_size: u64,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let cb = self.begin(w, cb);
        client::truncate(sim, w, self, handle, new_size, move |sim, w, r| {
            cb(sim, w, degrade(r))
        });
    }

    fn forget_handle(self, w: &mut GfsWorld, handle: Handle) {
        let st = self.state_mut(w);
        let key = st
            .handles
            .iter()
            .find(|(_, h)| **h == handle)
            .map(|(k, _)| k);
        if let Some(k) = key {
            st.handles.remove(k);
        }
    }

    /// Fan-in metadata submit against the session's bound device: mount +
    /// access-mode preflight, then shard routing by the op's path (see
    /// [`MetaOp::route`]); a second path on another shard makes it a
    /// two-phase op. When the mount context holds a subtree lease covering
    /// the op and the op stays within one shard, the op runs at the
    /// site-local delegate instead of crossing to the manager at all.
    fn submit_meta<T: From<Reply> + 'static>(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        op: MetaOp,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<T, FsError>) + 'static,
    ) {
        let cb = self.begin(w, cb);
        let ctx = self.ctx(w);
        let m = match self.bound_mount(w) {
            Ok(m) => m,
            Err(e) => {
                cb(sim, w, Err(e));
                return;
            }
        };
        if op.mutating() && m.mode == AccessMode::ReadOnly {
            cb(sim, w, Err(FsError::ReadOnly));
            return;
        }
        let (route, other) = op.route();
        let top = op.top();
        let sm = &w.fss[m.fs.0 as usize].core.shards;
        let shard = sm.shard_of(route);
        let peer = other.map(|p| sm.shard_of(p)).filter(|&b| b != shard);
        // Writeback-delegate fast path: the context leases this subtree
        // and the op stays entirely inside it — serve it at the site-local
        // delegate with zero manager events. Mutations additionally journal
        // their recorded outcome; the journal reconciles with the owning
        // shard (as bulk envelopes through the dedup table) when the lease
        // is surrendered or broken. Expulsion needs no check here: losing
        // the lease term clears the mirror. Ops whose other path leaves
        // the subtree (cross-top renames, even same-shard ones) never
        // delegate — the lease does not cover the other end.
        let delegate = peer.is_none()
            && other.is_none_or(|p| crate::fscore::top_component(p) == top)
            && {
                let c = &w.clients[ctx.0 as usize];
                !c.leases.is_empty() && c.leases.contains(&(m.fs, top.into()))
            };
        // Heat votes feed the rebalance policy, so they track *manager*
        // load: only ops that actually travel to a shard vote here.
        // Delegated ops cost the manager nothing until reconciliation —
        // their journal replay votes in `reconcile_journal` instead;
        // letting them vote at full weight here would make the policy
        // strip the delegates' home shard of far more authority than the
        // cheap replays ever put on it.
        let sm = &mut w.fss[m.fs.0 as usize].core.shards;
        if !delegate && sm.shards() > 1 {
            sm.note_heat(route);
        }
        let op = BatchOp::new(self.next_op_id(w, delegate), op, shard, peer, typed(cb));
        if delegate {
            w.fss[m.fs.0 as usize].delegated_ops += 1;
            w.fanin.delegated += 1;
            submit_delegate(sim, w, ctx, m.fs, op);
        } else {
            submit_batch(sim, w, ctx, m.fs, op);
        }
    }

    /// Enqueue one manager op, under a fresh session op id, into the
    /// `(ctx, fs, shard)` envelope forming this instant (the caller has
    /// already done any preflight). Every request a session sends to a
    /// manager comes through here or [`Session::submit_meta`] — metadata
    /// ops, lease verbs, and the block allocation or size change of
    /// `client::write` and `client::truncate`, each as part of its facade
    /// op.
    pub(crate) fn submit_mgr<T: From<Reply> + 'static>(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        fs: FsId,
        shard: u32,
        op: MetaOp,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<T, FsError>) + 'static,
    ) {
        let ctx = self.ctx(w);
        let op = BatchOp::new(self.next_op_id(w, false), op, shard, None, typed(cb));
        submit_batch(sim, w, ctx, fs, op);
    }

    /// Acquire a subtree lease (on the top-level component of `path`) for
    /// this session's mount context, enabling the delegate fast path for
    /// every session sharing the context. The grant rides an envelope to
    /// the subtree's owning shard. When another context's delegate holds
    /// the subtree, or a recall of its lease is under way (this context's
    /// own included), the envelope's lease rule applies as to any op
    /// there: the manager recalls that lease and the acquire re-polls
    /// every 10 ms until the recall is over (see `max_defers`). The grant
    /// is idempotent, so it is not recorded: a retry after a lost reply
    /// asks afresh rather than replaying a grant a recall may have taken
    /// back.
    pub fn acquire_lease(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        let cb = self.begin(w, cb);
        let (fs, top) = match self.lease_target(w, &path, true) {
            Ok(target) => target,
            Err(e) => {
                cb(sim, w, Err(e));
                return;
            }
        };
        let ctx = self.ctx(w);
        let shard = w.fss[fs.0 as usize].core.shards.shard_of(&top);
        let grant = MetaOp::LeaseGrant {
            top: top.clone(),
            holder: ctx,
        };
        self.submit_mgr(
            sim,
            w,
            fs,
            shard,
            grant,
            move |sim, w, r: Result<(), FsError>| {
                if r.is_ok() {
                    w.clients[ctx.0 as usize].leases.insert((fs, top));
                }
                cb(sim, w, r);
            },
        );
    }

    /// Surrender a subtree lease voluntarily: drain in-flight delegate
    /// ops, reconcile the writeback journal with the owning manager shard
    /// (one bulk envelope through the dedup table), then release the lease
    /// in an envelope of this session. A context that no longer holds the
    /// lease (broken or expelled meanwhile) completes immediately with
    /// `Ok`.
    pub fn surrender_lease(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        let cb = self.begin(w, cb);
        match self.lease_target(w, &path, false) {
            Ok((fs, top)) => self.surrender_drain(sim, w, fs, top, Box::new(cb)),
            Err(e) => cb(sim, w, Err(e)),
        }
    }

    /// The bound filesystem and the leasable top-level subtree of `path`.
    /// The root itself is never leased — that would privatize the entire
    /// namespace to one site.
    fn lease_target(
        self,
        w: &GfsWorld,
        path: &str,
        needs_write: bool,
    ) -> Result<(FsId, Box<str>), FsError> {
        let m = self.bound_mount(w)?;
        if needs_write && m.mode == AccessMode::ReadOnly {
            return Err(FsError::ReadOnly);
        }
        match crate::fscore::top_component(path) {
            "" => Err(FsError::InvalidArgument(path.to_string())),
            top => Ok((m.fs, top.into())),
        }
    }

    /// Wait out in-flight delegate ops as a lease recall does
    /// ([`client::when_drained`]); then drop the mirror entry, reconcile
    /// the journal and release the lease at the manager.
    fn surrender_drain(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        fs: FsId,
        top: Box<str>,
        cb: client::Cb<Result<(), FsError>>,
    ) {
        let ctx = self.ctx(w);
        let surrender = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld| {
            // Mirror entry goes first: from here no new op delegates, so
            // the journal taken by the reconcile below is complete. A
            // recall or an expulsion may have taken the lease meanwhile.
            if !w.clients[ctx.0 as usize].leases.remove(&(fs, top.clone())) {
                cb(sim, w, Ok(()));
                return;
            }
            let reconciled = top.clone();
            // The release drops only this context's own grant and is
            // idempotent, so it is not recorded. It goes to the grant's
            // shard (see `MetaOp::top` for the lease rule).
            let release = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld| {
                let shard = w.fss[fs.0 as usize].core.shards.shard_of(&top);
                let op = MetaOp::LeaseRelease { top, holder: ctx };
                self.submit_mgr(sim, w, fs, shard, op, cb);
            };
            reconcile_journal(sim, w, ctx, fs, reconciled, Box::new(release));
        };
        client::when_drained(sim, w, ctx, None, Box::new(surrender));
    }
}

/// `path` with repeated `/` collapsed and a trailing `/` dropped (the root
/// stays `/`). A manager path cache invalidates one spelling per entry, so
/// `/d//f` or `/d/f/` would outlive an unlink of `/d/f`. `.` and `..`
/// pass through for `FsCore` to reject. Canonical input comes back as is.
fn canonical(path: String) -> String {
    if !path.contains("//") && (path.len() == 1 || !path.ends_with('/')) {
        return path;
    }
    let mut out = String::with_capacity(path.len());
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        out.push('/');
        out.push_str(comp);
    }
    if out.is_empty() {
        out.push('/');
    }
    out
}

/// Map total-server-loss to the session surface's degraded-service error.
fn degrade<T>(r: Result<T, FsError>) -> Result<T, FsError> {
    r.map_err(degrade_err)
}

fn degrade_err(e: FsError) -> FsError {
    match e {
        FsError::ServerDown => {
            FsError::Degraded("all NSD servers for the filesystem are down".to_string())
        }
        other => other,
    }
}

/// Push one op into the `(ctx, fs, shard)` batch.
///
/// Single-shard worlds flush same-instant: the first op of an instant
/// schedules the flush (`sim.immediately` runs *after* every event already
/// queued at the current instant, so all same-instant submits land in the
/// same envelope), and a context's envelopes never wait on each other.
/// Gating one manager like several cost the M=1 `meta_untar` benchmark
/// workload ~6% of its modeled op rate and ~8x its p50 read latency
/// (DESIGN.md, "Flyweight sessions & RPC fan-in"), so the shard count
/// picks the rule here, in `flush_shard_batch` and in `envelope_done`.
///
/// Multi-shard worlds run the **per-shard gate** instead: ops park while
/// an envelope of this `(ctx, fs, shard)` is in flight and flush the
/// instant it returns. Each shard stream pipelines back-to-back envelopes
/// independently — a slow envelope holds only its own shard. Without the
/// gate, staggered per-shard completions splinter the session cohort into
/// ever-smaller batches until every envelope carries one op.
fn submit_batch(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ctx: ClientId, fs: FsId, op: BatchOp) {
    let shard = op.shard;
    let key = (ctx.0, fs.0, shard);
    let wave = w.fss[fs.0 as usize].core.shards.shards() > 1;
    let q = w.fanin.pending.entry(key).or_default();
    q.push(op);
    if !wave {
        if q.len() == 1 {
            sim.immediately(move |sim, w| flush_shard_batch(sim, w, ctx, fs, shard));
        }
        return;
    }
    if w.fanin.outstanding.get(&key).copied().unwrap_or(0) == 0 {
        arm_shard_flush(sim, w, ctx, fs, shard);
    }
}

/// Schedule (once) the same-instant event that flushes the parked batch of
/// `(ctx, fs, shard)`. No-op if a flush is already armed for this instant;
/// the flush itself is a no-op if a racing event emptied the batch or
/// launched an envelope first.
fn arm_shard_flush(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ctx: ClientId, fs: FsId, shard: u32) {
    let key = (ctx.0, fs.0, shard);
    if !w.fanin.armed.insert(key) {
        return;
    }
    // Nagle-style gather window: hold the launch for `ENVELOPE_GATHER` so
    // ops submitted just after the gate freed (staggered envelope returns,
    // delegate batch deliveries) ride this envelope instead of the next
    // one. The window trades per-op latency for batch mass — a lone op on
    // an idle stream still pays it — which is the right trade for the
    // saturated storms this path exists for (single-shard namespaces
    // never take this path at all).
    sim.after(ENVELOPE_GATHER, move |sim, w| {
        w.fanin.armed.remove(&key);
        if w.fanin.outstanding.get(&key).copied().unwrap_or(0) > 0 {
            return; // a racing flush already launched an envelope
        }
        flush_shard_batch(sim, w, ctx, fs, shard);
    });
}

/// Flush one `(ctx, fs, shard)` batch as an envelope (shared by both the
/// single-shard immediate flush and the wave flush). The envelope travels
/// to the shard's acting manager as one exchange ([`crate::rpc`]): one
/// message out, one watchdog, one message back — per *batch*. A retried
/// envelope runs every op again through the manager's dedup table, so each
/// mutation still applies exactly once. The envelope also carries the
/// context's retirement list for the filesystem (`FanIn::retire`).
fn flush_shard_batch(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ctx: ClientId, fs: FsId, shard: u32) {
    let ops = w.fanin.pending.remove(&(ctx.0, fs.0, shard)).unwrap_or_default();
    if ops.is_empty() {
        return;
    }
    w.fanin.envelopes += 1;
    w.fanin.envelope_ops += ops.len() as u64;
    w.fanin.max_batch = w.fanin.max_batch.max(ops.len() as u64);
    if w.fss[fs.0 as usize].core.shards.shards() > 1 {
        *w.fanin.outstanding.entry((ctx.0, fs.0, shard)).or_insert(0) += 1;
    }
    let env = Rc::new(RefCell::new(ops));
    let done_env = env.clone();
    let retire: Rc<[(u64, u64)]> = w.fanin.retire.remove(&(ctx.0, fs.0)).unwrap_or_default().into();
    let unretired = retire.clone();
    rpc::exchange(
        sim,
        w,
        ctx,
        move |w, n| {
            if n > 0 {
                w.fanin.retries += 1;
            }
            Continue(w.fss[fs.0 as usize].manager_endpoint(shard))
        },
        move |sim, w, a| envelope_attempt(sim, w, ctx, fs, shard, env.clone(), retire.clone(), a),
        Box::new(move |sim, w, r| {
            if r.is_err() && !unretired.is_empty() {
                // The list may never have arrived; the next envelope
                // carries it again (retiring twice is a no-op).
                let key = (ctx.0, fs.0);
                w.fanin.retire.entry(key).or_default().extend_from_slice(&unretired);
            }
            envelope_finish(sim, w, ctx, fs, shard, done_env.take(), r)
        }),
    );
}

/// One envelope of `(ctx, fs, shard)` reached a terminal state (response
/// accepted or retry budget exhausted). In gated mode this re-arms the
/// shard's flush — the deliveries running in this same event re-submit
/// their follow-up ops first, so the armed flush sweeps them all into the
/// next envelope.
fn envelope_done(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ctx: ClientId, fs: FsId, shard: u32) {
    if w.fss[fs.0 as usize].core.shards.shards() <= 1 {
        return;
    }
    let o = w
        .fanin
        .outstanding
        .get_mut(&(ctx.0, fs.0, shard))
        .expect("envelope_done without an outstanding envelope");
    *o -= 1;
    if *o == 0 {
        w.fanin.outstanding.remove(&(ctx.0, fs.0, shard));
        arm_shard_flush(sim, w, ctx, fs, shard);
    }
}

/// Park one writeback-delegated op into the `(ctx, fs)` delegate batch;
/// the first op of an instant schedules the same-instant flush. The whole
/// batch charges the delegate's FIFO service queue in one slot
/// (`manager_op_service` per op, like an envelope at the manager) and
/// applies at the slot's end: each mutation runs against the shared-disk
/// core (the lease guarantees exclusivity) through its routed shard's path
/// cache and journals its recorded outcome for later reconciliation. Two simulator events per batch —
/// that is the entire cost; no message, no watchdog, no manager.
fn submit_delegate(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ctx: ClientId, fs: FsId, op: BatchOp) {
    // Counted at park time so a lease recall arriving between park and
    // apply defers (`delegate_inflight > 0`) instead of slipping past a
    // batch whose journal entries it would strand.
    w.clients[ctx.0 as usize].delegate_inflight += 1;
    let key = (ctx.0, fs.0);
    let q = w.fanin.dpending.entry(key).or_default();
    q.push(op);
    if q.len() == 1 {
        sim.immediately(move |sim, w| {
            let ops = w.fanin.dpending.remove(&key).unwrap_or_default();
            if ops.is_empty() {
                return;
            }
            let n = ops.len() as u64;
            let c = &mut w.clients[ctx.0 as usize];
            let start = c.delegate_busy_until.max(sim.now());
            let done = start + w.costs.manager_op_service * n;
            c.delegate_busy_until = done;
            sim.at(done, move |sim, w| {
                let now = sim.now().as_nanos();
                for op in ops {
                    let r = op.op.apply(w, fs, op.shard, now);
                    let c = &mut w.clients[ctx.0 as usize];
                    c.delegate_inflight -= 1;
                    // Journal mutations only while the lease still stands —
                    // an expulsion mid-batch already discarded the journal,
                    // and a record with no lease would never reconcile.
                    if op.op.mutating() {
                        let top: Box<str> = op.op.top().into();
                        if c.leases.contains(&(fs, top.clone())) {
                            let (op_id, result) = (op.op_id, r.clone());
                            c.journal.push(JournalEntry { fs, top, op_id, result });
                        }
                    }
                    (op.deliver)(sim, w, Ok(r));
                }
                // Watermark writeback: once the journal grows past the
                // high-water mark, replay it now (the entries are already
                // applied; reconciling early just trickles the bulk
                // envelopes through the race instead of dumping one giant
                // replay on the owning shard at surrender time).
                if w.clients[ctx.0 as usize].journal.len() >= DELEGATE_JOURNAL_WATERMARK {
                    let mut tops: Vec<Box<str>> = w.clients[ctx.0 as usize]
                        .journal
                        .iter()
                        .filter(|e| e.fs == fs)
                        .map(|e| e.top.clone())
                        .collect();
                    tops.sort_unstable();
                    tops.dedup();
                    for top in tops {
                        reconcile_journal(sim, w, ctx, fs, top, Box::new(|_, _| {}));
                    }
                }
            });
        });
    }
}

/// Replay the context's delegate journal for `(fs, top)` to the subtree's
/// owning manager shard as one bulk envelope, then run `done`. Each
/// journal entry becomes a [`MetaOp::Replay`] under its original session
/// op id: the manager records it through the ordinary dedup table, so a
/// crash mid-reconcile retries the whole envelope and replays — never
/// re-records — entries the first attempt already landed. Exactly-once
/// costs nothing new here; it is the same machinery every envelope
/// mutation already rides. Once an entry's answer is back, no retry can
/// ask for it again: its id joins the context's retirement list (see
/// `FanIn::retire`).
pub(crate) fn reconcile_journal(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    ctx: ClientId,
    fs: FsId,
    top: Box<str>,
    done: Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld)>,
) {
    let journal = std::mem::take(&mut w.clients[ctx.0 as usize].journal);
    let (entries, rest): (Vec<JournalEntry>, Vec<JournalEntry>) =
        journal.into_iter().partition(|e| e.fs == fs && e.top == top);
    w.clients[ctx.0 as usize].journal = rest;
    if entries.is_empty() {
        done(sim, w);
        return;
    }
    // Route by the subtree's *current* owner — a migration between journal
    // time and reconcile time just redirects the whole envelope.
    let shard = w.fss[fs.0 as usize].core.shards.shard_of(&top);
    // Replays are the moment delegated work actually lands on a manager,
    // so this is where it votes heat (cheap appends — one vote per two
    // entries keeps the weight roughly proportional to service cost).
    for _ in 0..entries.len().div_ceil(2) {
        w.fss[fs.0 as usize].core.shards.note_heat(&top);
    }
    let left = Rc::new(Cell::new(entries.len()));
    let done = Rc::new(RefCell::new(Some(done)));
    for e in entries {
        let (left, done, id) = (left.clone(), done.clone(), e.op_id);
        let deliver: Cb<Result<Outcome, FsError>> = Box::new(move |sim, w, r| {
            if r.is_ok() {
                w.fanin.retire.entry((ctx.0, fs.0)).or_default().push((id, id));
            }
            left.set(left.get() - 1);
            if left.get() == 0 {
                if let Some(d) = done.borrow_mut().take() {
                    d(sim, w);
                }
            }
        });
        let op = MetaOp::Replay {
            top: top.clone(),
            result: e.result,
        };
        submit_batch(sim, w, ctx, fs, BatchOp::new(id, op, shard, None, deliver));
    }
}

/// How many times an op may be deferred (a lease recall under way, a peer
/// shard recovering) before it fails with `Timeout`: enough re-polls to
/// outlast the longest recall. Its fuse burns only while no send lands, so
/// a holder that goes silent right after the first send lands is expelled
/// `retry_base + lease_break_timeout` after the recall starts; the re-polls
/// come at least `requeue_delay` apart, and one more sees the subtree free
/// (211 at the defaults, 2.11 s or more).
fn max_defers(costs: &crate::world::ProtocolCosts) -> u32 {
    let longest = costs.retry_base + costs.lease_break_timeout;
    (longest.as_nanos().div_ceil(requeue_delay().as_nanos()) + 1) as u32
}

/// Gather window for gated (multi-shard) envelope flushes: when a shard's
/// gate frees, the next envelope waits this long collecting ops before it
/// launches. It trades latency for batch mass without changing per-op
/// service cost; single-shard fan-in keeps its same-instant flush and
/// never waits for it.
const ENVELOPE_GATHER: SimDuration = SimDuration::from_micros(4000);

/// Delegate journal high-water mark: a delegate batch whose client journal
/// reaches this many entries kicks an early reconcile of every journaled
/// subtree on that filesystem. Keeps surrender/recall replay envelopes
/// bounded and spreads the replay load across the run.
const DELEGATE_JOURNAL_WATERMARK: usize = 4096;

/// Deferred-op re-poll cadence.
fn requeue_delay() -> simcore::SimDuration {
    simcore::SimDuration::from_millis(10)
}

/// An envelope's outcome per op, in submission order: `None` marks an op
/// the manager deferred (a lease conflict or an unavailable peer shard).
type EnvelopeResults = Vec<Option<Outcome>>;

/// One wire attempt of a whole envelope; returns whether the request
/// left. A crashed, recovering or superseded manager drops it on arrival,
/// and so does any manager once the envelope has been answered.
///
/// The envelope travels to `shard`'s acting manager. At the service slot's
/// end the manager first retires the `retire` ranges on every shard, then
/// each op may additionally:
/// - hit a subtree lease held by another context, or one being recalled
///   ([`client::lease_blocks`]) — the manager recalls the lease like a
///   token and the op is re-queued after a re-poll delay rather than
///   executed over the delegate's head;
/// - reach across to a peer shard (two-phase op): if the peer is healthy
///   the op runs now, charges the peer's service queue, and journals on
///   *both* managers under the same op id (the commit record); if the
///   peer is down the op is re-queued until the peer recovers.
fn envelope_attempt(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    ctx: ClientId,
    fs: FsId,
    shard: u32,
    env: Rc<RefCell<Vec<BatchOp>>>,
    retire: Rc<[(u64, u64)]>,
    a: Attempt<EnvelopeResults>,
) -> bool {
    let mgr = a.to;
    let from = client::client_node(w, ctx);
    let rpcb = w.costs.rpc_bytes;
    Network::send_msg(sim, w, from, mgr, rpcb, move |sim, w| {
        if !w.fss[fs.0 as usize].manager_answers(shard, mgr) || env.borrow().is_empty() {
            return;
        }
        // First word from an expelled context re-admits it before anything
        // else happens at the manager.
        client::readmit_if_expelled(sim, w, fs, ctx);
        // Manager CPU: envelopes serialize FIFO through this shard's
        // acting manager, `manager_op_service` per op (a journal replay
        // costs `manager_replay_per_op`). Execution happens at the slot's
        // *end*, so cross-envelope op ordering is exactly arrival order.
        let (n_live, n_replay) = {
            let ops = env.borrow();
            let nr = ops.iter().filter(|o| matches!(o.op, MetaOp::Replay { .. })).count() as u64;
            (ops.len() as u64 - nr, nr)
        };
        let svc = w.costs.manager_op_service * n_live + w.costs.manager_replay_per_op * n_replay;
        let start = w.fss[fs.0 as usize].mgrs[shard as usize].busy_until.max(sim.now());
        let done = start + svc;
        let ms = &mut w.fss[fs.0 as usize].mgrs[shard as usize];
        ms.busy_until = done;
        ms.service_ns += svc.as_nanos();
        sim.at(done, move |sim, w| {
            // Re-check: the manager may have died while this envelope sat
            // in its queue. The crash wiped the queue; whatever was in it
            // dies with the node and the watchdogs drive the retries.
            if !w.fss[fs.0 as usize].manager_answers(shard, mgr) {
                return;
            }
            // Delivered history first: the ids a session has proven
            // answered are retired on every shard, since its ops (and the
            // peer halves of its two-phase ops) may have been recorded
            // anywhere. Re-runs on an envelope retry are no-ops.
            for m in &mut w.fss[fs.0 as usize].mgrs {
                for &(lo, hi) in retire.iter() {
                    m.retire(lo, hi);
                }
            }
            // Apply (or replay) every op in submission order. Outcomes
            // travel to the response event as the same values the dedup
            // table records, so a retried envelope demuxes identically.
            let ops = env.borrow();
            let mut results: EnvelopeResults = Vec::with_capacity(ops.len());
            let now = sim.now().as_nanos();
            // Two-phase ops wait for their peer's service slot; the
            // envelope's response leaves when the last peer commit is in.
            let mut response_at = sim.now();
            for op in ops.iter() {
                // A subtree leased to someone else's delegate, or whose
                // lease is being recalled: re-poll.
                let replay = matches!(op.op, MetaOp::Replay { .. });
                if client::lease_blocks(sim, w, fs, ctx, op.op.top(), replay) {
                    results.push(None);
                    continue;
                }
                // A cross-shard op needs its peer manager up to take the
                // commit record; during the peer's WAL replay the op waits.
                if op.peer.is_some_and(|b| !w.fss[fs.0 as usize].manager_available(b)) {
                    results.push(None);
                    continue;
                }
                let recorded = w.fss[fs.0 as usize].mgrs[shard as usize].applied_result(op.op_id);
                if let Some(r) = recorded {
                    results.push(Some(r.clone()));
                    continue;
                }
                let r = op.op.apply(w, fs, shard, now);
                let mutating = op.op.mutating();
                if mutating {
                    w.fss[fs.0 as usize].mgrs[shard as usize].record(op.op_id, r.clone());
                }
                if let Some(b) = op.peer {
                    // Two-phase commit record: the peer journals the
                    // already-validated outcome under the same op id, so
                    // either manager can replay the op after a crash. The
                    // append is *priority* work — it holds the
                    // coordinator's locks, so it cuts ahead of the peer's
                    // ordinary envelope backlog (which is pushed back by
                    // the same amount) rather than waiting out the whole
                    // queue; the response waits only for the append itself.
                    let pdone = sim.now() + w.costs.manager_replay_per_op;
                    let inst = &mut w.fss[fs.0 as usize];
                    let pm = &mut inst.mgrs[b as usize];
                    pm.busy_until = pm.busy_until.max(sim.now()) + w.costs.manager_replay_per_op;
                    if mutating {
                        pm.record(op.op_id, r.clone());
                    }
                    inst.cross_shard_ops += 1;
                    response_at = response_at.max(pdone);
                }
                results.push(Some(r));
            }
            drop(ops);
            let respond = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld| {
                let rpcb = w.costs.rpc_bytes;
                Network::send_msg(sim, w, mgr, from, rpcb, move |sim, w| {
                    a.reply(sim, w, Ok(results))
                });
            };
            if response_at > sim.now() {
                sim.at(response_at, respond);
            } else {
                respond(sim, w);
            }
        });
    })
}

/// An envelope's terminal state: the response arrived, or the retry
/// budget ran out. The shard's gate slot frees first, so ops the
/// deliveries below re-submit park into the next envelope (armed as this
/// one completes) instead of deadlocking on this one. Then every op gets
/// its outcome — or the exchange's error — and each op the manager
/// deferred is re-submitted, by value, under the same op id (exactly-once
/// holds).
fn envelope_finish(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    ctx: ClientId,
    fs: FsId,
    shard: u32,
    ops: Vec<BatchOp>,
    r: Result<EnvelopeResults, FsError>,
) {
    envelope_done(sim, w, ctx, fs, shard);
    let results = match r {
        Ok(results) => results,
        Err(e) => {
            for op in ops {
                (op.deliver)(sim, w, Err(e.clone()));
            }
            return;
        }
    };
    for (mut op, r) in ops.into_iter().zip(results) {
        if let Some(r) = r {
            (op.deliver)(sim, w, Ok(r));
            continue;
        }
        op.defers += 1;
        if op.defers > max_defers(&w.costs) {
            (op.deliver)(sim, w, Err(FsError::Timeout));
            continue;
        }
        sim.after(requeue_delay(), move |sim, w| submit_batch(sim, w, ctx, fs, op));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fscore::FsConfig;
    use crate::types::NsdId;
    use crate::world::{FsParams, WorldBuilder};
    use bytes::Bytes;
    use simcore::{Bandwidth, SimDuration};
    use std::collections::BTreeMap;

    struct Bed {
        sim: Sim<GfsWorld>,
        w: GfsWorld,
        sessions: Vec<Session>,
    }

    /// One cluster, one manager/NSD node, one mount context carrying
    /// `n_sessions` flyweight sessions.
    fn bed(n_sessions: usize) -> Bed {
        bed_sharded(1, n_sessions)
    }

    /// [`bed`] with `managers` namespace shards, all on the one node.
    fn bed_sharded(managers: u32, n_sessions: usize) -> Bed {
        let mut b = WorldBuilder::new(7);
        b.key_bits(384);
        let mgr = b.topo().node("mgr");
        let cn = b.topo().node("ctx");
        b.topo().duplex_link(
            cn,
            mgr,
            Bandwidth::gbit(1.0),
            SimDuration::from_micros(50),
            "lan",
        );
        let site = b.cluster("site.teragrid");
        let mut p = FsParams::ideal(
            FsConfig::small_test("gpfs0"),
            mgr,
            vec![mgr],
            Bandwidth::mbyte(400.0),
            SimDuration::from_micros(300),
        );
        p.managers = managers;
        b.filesystem(site, p);
        let ctx = b.client(site, cn, 256);
        let ids: Vec<_> = (0..n_sessions).map(|_| b.session(ctx)).collect();
        let (sim, w) = b.build();
        Bed {
            sim,
            w,
            sessions: ids.into_iter().map(Session).collect(),
        }
    }

    fn owner() -> Owner {
        Owner::local(500, 100)
    }

    /// Mount via the first session, bind the rest, then hand control to
    /// `body` in a single event (so everything it submits shares one
    /// instant).
    fn mounted(bed: &mut Bed, body: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld) + 'static) {
        let sessions = bed.sessions.clone();
        let s0 = sessions[0];
        s0.mount(
            &mut bed.sim,
            &mut bed.w,
            "gpfs0",
            AccessMode::ReadWrite,
            move |sim, w, r| {
                r.unwrap();
                for s in &sessions[1..] {
                    s.bind_device(w, "gpfs0");
                }
                body(sim, w);
            },
        );
        bed.sim.run(&mut bed.w);
    }

    #[test]
    fn same_instant_ops_share_one_envelope() {
        let mut t = bed(4);
        let sessions = t.sessions.clone();
        let oks = Rc::new(Cell::new(0u32));
        let oks2 = oks.clone();
        mounted(&mut t, move |sim, w| {
            for (i, s) in sessions.iter().enumerate() {
                let oks = oks2.clone();
                s.mkdir(sim, w, &format!("/d{i}"), owner(), move |_s, _w, r| {
                    r.unwrap();
                    oks.set(oks.get() + 1);
                });
            }
        });
        assert_eq!(oks.get(), 4, "every batched op must demux its result");
        assert_eq!(t.w.fanin.envelopes, 1, "same-instant ops must share one envelope");
        assert_eq!(t.w.fanin.envelope_ops, 4);
        assert_eq!(t.w.fanin.max_batch, 4);
        assert_eq!(t.w.fanin.pending_ops(), 0);
        for s in &t.sessions {
            assert_eq!(s.state(&t.w).inflight_ops, 0);
        }
    }

    #[test]
    fn retried_envelope_replays_from_dedup_table() {
        let mut t = bed(1);
        let s = t.sessions[0];
        let got = Rc::new(RefCell::new(None));
        let got2 = got.clone();
        mounted(&mut t, move |sim, w| {
            // Starve attempt 0: the watchdog fires before the ~100µs RTT
            // completes, so the response is dropped and the envelope
            // retries — but the manager has already applied + recorded the
            // mkdir, so the retry must replay it; running it again would
            // answer `AlreadyExists`.
            w.costs.request_timeout = SimDuration::from_micros(1);
            s.mkdir(sim, w, "/d", owner(), move |_sim, _w, r| {
                *got2.borrow_mut() = Some(r);
            });
            // Restore a sane timeout before the backoff (>= 50ms) fires,
            // so attempt 1 can actually complete.
            sim.after(SimDuration::from_millis(10), |_sim, w| {
                w.costs.request_timeout = SimDuration::from_millis(1500);
            });
        });
        let d = t.w.fss[0].core.lookup("/d").unwrap();
        assert_eq!(*got.borrow(), Some(Ok(d)), "retried op must still deliver its result");
        let wal = t.w.fss[0].mgrs[0].wal_len();
        assert_eq!(wal, 1, "mutating op must run exactly once across retries");
        assert!(t.w.fanin.retries >= 1, "the starved attempt must have retried");
        assert_eq!(t.sessions[0].state(&t.w).inflight_ops, 0);
    }

    /// The WAL bound these tests hold: compaction runs once 1,024 retired
    /// records make up half the log, so a log that retires stays within
    /// 1,024 plus its live records.
    const WAL_BOUND: usize = 1100;

    /// `n` mkdirs from one session, strictly one after another, alternating
    /// between `/a` and `/b`; then `then`.
    fn mkdir_chain(
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        s: Session,
        i: u32,
        n: u32,
        then: Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld)>,
    ) {
        if i == n {
            then(sim, w);
            return;
        }
        let top = if i.is_multiple_of(2) { "a" } else { "b" };
        s.mkdir(sim, w, &format!("/{top}/d{i}"), owner(), move |sim, w, r| {
            r.unwrap();
            mkdir_chain(sim, w, s, i + 1, n, then);
        });
    }

    #[test]
    fn acks_retire_on_every_shard() {
        // Consecutive ops of the session land on different shards, so the
        // ack each op carries covers a result recorded on the other shard.
        let mut t = bed_sharded(2, 1);
        t.w.fss[0].core.shards.assign("a", 0);
        t.w.fss[0].core.shards.assign("b", 1);
        let s = t.sessions[0];
        mounted(&mut t, move |sim, w| {
            s.mkdir(sim, w, "/a", owner(), move |sim, w, r| {
                r.unwrap();
                s.mkdir(sim, w, "/b", owner(), move |sim, w, r| {
                    r.unwrap();
                    mkdir_chain(sim, w, s, 0, 6000, Box::new(|_, _| {}));
                });
            });
        });
        assert_eq!(t.w.fss[0].core.readdir("/b").unwrap().len(), 3000);
        for (shard, m) in t.w.fss[0].mgrs.iter().enumerate() {
            assert!(
                m.wal_len() <= WAL_BOUND,
                "shard {shard} kept {} WAL records for one session",
                m.wal_len()
            );
        }
    }

    #[test]
    fn reconciled_journal_entries_retire() {
        // One leased session alternates mkdirs between its leased subtree
        // (run by the local delegate and journaled) and another subtree
        // (envelopes), then surrenders: the reconcile records the 3,000
        // journaled results under ids the session acked long ago, so only
        // the reconcile's own retirement keeps the log bounded.
        let mut t = bed(1);
        let s = t.sessions[0];
        let surrendered = Rc::new(Cell::new(false));
        let done = surrendered.clone();
        mounted(&mut t, move |sim, w| {
            s.mkdir(sim, w, "/a", owner(), move |sim, w, r| {
                r.unwrap();
                s.mkdir(sim, w, "/b", owner(), move |sim, w, r| {
                    r.unwrap();
                    s.acquire_lease(sim, w, "/a", move |sim, w, r| {
                        r.unwrap();
                        let then = Box::new(move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld| {
                            s.surrender_lease(sim, w, "/a", move |_sim, _w, r| {
                                r.unwrap();
                                done.set(true);
                            });
                        });
                        mkdir_chain(sim, w, s, 0, 6000, then);
                    });
                });
            });
        });
        assert!(surrendered.get());
        let inst = &t.w.fss[0];
        assert_eq!(inst.core.readdir("/a").unwrap().len(), 3000);
        assert_eq!(inst.reconcile_ops, 3000, "every journal entry reconciles once");
        let wal = inst.mgrs[0].wal_len();
        assert!(wal <= WAL_BOUND, "a reconciled journal kept {wal} WAL records");
    }

    #[test]
    fn recovery_rebuilds_the_dedup_table_it_lost() {
        // 600 sequential mkdirs: each envelope retires the one before, so
        // the table ends with one live record while 599 retired ones wait
        // in the WAL for compaction. A crash wipes the table; recovery
        // must rebuild it record for record, not bring the 599 back.
        let mut t = bed(1);
        let s = t.sessions[0];
        mounted(&mut t, move |sim, w| {
            s.mkdir(sim, w, "/a", owner(), move |sim, w, r| {
                r.unwrap();
                s.mkdir(sim, w, "/b", owner(), move |sim, w, r| {
                    r.unwrap();
                    mkdir_chain(sim, w, s, 0, 598, Box::new(|_, _| {}));
                });
            });
        });
        let mgr = &mut t.w.fss[0].mgrs[0];
        assert_eq!(mgr.wal_len(), 600);
        let before: BTreeMap<u64, Outcome> =
            mgr.dedup_records().into_iter().map(|(id, r)| (id, r.clone())).collect();
        assert_eq!(before.len(), 1, "one live record after the chain");
        let node = mgr.acting;
        mgr.crash();
        assert!(mgr.dedup_records().is_empty());
        assert_eq!(mgr.recover(node), 600, "replay reads the whole log");
        let after: BTreeMap<u64, Outcome> =
            mgr.dedup_records().into_iter().map(|(id, r)| (id, r.clone())).collect();
        assert_eq!(after, before, "recovery must rebuild exactly the table the crash wiped");
    }

    #[test]
    fn idle_sessions_ack_through_their_context() {
        // 2,000 sessions of one context each make one mkdir and go idle;
        // none sends another op, so only the context's next envelope —
        // here a stat of another session — can carry their acks.
        let mut t = bed(2001);
        let sessions = t.sessions.clone();
        mounted(&mut t, move |sim, w| {
            let left = Rc::new(Cell::new(2000));
            for (i, &s) in sessions[..2000].iter().enumerate() {
                let (left, last) = (left.clone(), sessions[2000]);
                s.mkdir(sim, w, &format!("/d{i}"), owner(), move |sim, w, r| {
                    r.unwrap();
                    left.set(left.get() - 1);
                    if left.get() == 0 {
                        last.stat(sim, w, "/d0", |_, _, r| {
                            r.unwrap();
                        });
                    }
                });
            }
        });
        let wal = t.w.fss[0].mgrs[0].wal_len();
        assert!(wal <= WAL_BOUND, "2,000 idle sessions kept {wal} WAL records");
    }

    /// `n` sequential 4 KiB writes from one session on one handle.
    fn write_chain(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, s: Session, h: Handle, i: u64, n: u64) {
        if i == n {
            return;
        }
        s.write(sim, w, h, i * 4096, Bytes::from(vec![1u8; 4096]), move |sim, w, r| {
            r.unwrap();
            write_chain(sim, w, s, h, i + 1, n);
        });
    }

    #[test]
    fn write_allocations_retire_like_every_session_op() {
        let mut t = bed(1);
        let s = t.sessions[0];
        mounted(&mut t, move |sim, w| {
            s.open(sim, w, "/f", OpenFlags::Write, owner(), move |sim, w, r| {
                write_chain(sim, w, s, r.unwrap(), 0, 3000);
            });
        });
        assert_eq!(t.w.fss[0].core.stat("/f").unwrap().size, 3000 * 4096);
        let wal = t.w.fss[0].mgrs[0].wal_len();
        assert!(wal <= WAL_BOUND, "3,000 writes of one session kept {wal} WAL records");
    }

    #[test]
    fn total_server_loss_surfaces_as_degraded() {
        let mut t = bed(1);
        let s = t.sessions[0];
        let saw = Rc::new(Cell::new(false));
        let saw2 = saw.clone();
        mounted(&mut t, move |sim, w| {
            let saw = saw2;
            s.open(sim, w, "/f", OpenFlags::Write, owner(), move |sim, w, r| {
                let h = r.unwrap();
                s.write(sim, w, h, 0, Bytes::from(vec![7u8; 4096]), move |sim, w, r| {
                    r.unwrap();
                    let servers = w.fss[0].nsd_servers.clone();
                    for n in servers {
                        w.fss[0].fail_server(n);
                    }
                    assert!(w.fss[0].try_server_of(NsdId(0)).is_none());
                    s.fsync(sim, w, h, move |_sim, _w, r| {
                        assert!(
                            matches!(r, Err(FsError::Degraded(_))),
                            "total server loss must surface as Degraded, got {r:?}"
                        );
                        saw.set(true);
                    });
                });
            });
        });
        assert!(saw.get());
    }

    #[test]
    fn open_write_read_close_roundtrip_with_relative_paths() {
        let mut t = bed(2);
        let s = t.sessions[1];
        let data = Rc::new(Cell::new(0usize));
        let data2 = data.clone();
        mounted(&mut t, move |sim, w| {
            let data = data2;
            s.mkdir(sim, w, "/home", owner(), move |sim, w, r| {
                r.unwrap();
                s.chdir(w, "/home");
                s.open(sim, w, "out.dat", OpenFlags::Write, owner(), move |sim, w, r| {
                    let h = r.unwrap();
                    assert_eq!(s.state(w).handles.len(), 1);
                    s.write(sim, w, h, 0, Bytes::from(vec![3u8; 8192]), move |sim, w, r| {
                        r.unwrap();
                        s.read(sim, w, h, 0, 8192, move |sim, w, r| {
                            let bytes = r.unwrap();
                            data.set(bytes.len());
                            s.close(sim, w, h, move |_sim, w, r| {
                                r.unwrap();
                                assert!(s.state(w).handles.is_empty());
                            });
                        });
                    });
                });
            });
        });
        assert_eq!(data.get(), 8192);
        // The cwd-relative open must have landed under /home.
        let ids = t.w.fss[0].core.lookup("/home/out.dat");
        assert!(ids.is_ok(), "relative open should create /home/out.dat");
        assert_eq!(t.sessions[1].state(&t.w).inflight_ops, 0);
        let sid = t.sessions[1].id();
        t.w.end_session(sid);
        assert_eq!(t.w.sessions.len(), 1);
    }

    #[test]
    fn unlink_after_migration_leaves_no_stale_path_on_the_old_owner() {
        // Two shards on one node; `/p` starts on shard 0, where a stat
        // caches `/p/f`, then migrates to shard 1, which runs the unlink.
        let mut b = WorldBuilder::new(7);
        b.key_bits(384);
        let mgr = b.topo().node("mgr");
        let cn = b.topo().node("ctx");
        b.topo()
            .duplex_link(cn, mgr, Bandwidth::gbit(1.0), SimDuration::from_micros(50), "lan");
        let site = b.cluster("site.teragrid");
        let mut p = FsParams::ideal(
            FsConfig::small_test("gpfs0"),
            mgr,
            vec![mgr],
            Bandwidth::mbyte(400.0),
            SimDuration::from_micros(300),
        );
        p.managers = 2;
        b.filesystem(site, p);
        let ctx = b.client(site, cn, 256);
        let (mut sim, mut w) = b.build();
        w.fss[0].core.shards.assign("p", 0);
        let s = w.open_session(ctx);
        let done = Rc::new(Cell::new(false));
        let done2 = done.clone();
        s.mount(&mut sim, &mut w, "gpfs0", AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            s.mkdir(sim, w, "/p", owner(), move |sim, w, r| {
                r.unwrap();
                s.open(sim, w, "/p/f", OpenFlags::Write, owner(), move |sim, w, r| {
                    let h = r.unwrap();
                    s.close(sim, w, h, move |sim, w, r| {
                        r.unwrap();
                        s.stat(sim, w, "/p/f", move |sim, w, r| {
                            r.unwrap();
                            assert!(w.fss[0].mgrs[0].cached_path("/p/f").is_some());
                            w.fss[0].core.shards.commit_move("p", 1);
                            s.unlink(sim, w, "/p/f", move |_sim, _w, r| {
                                r.unwrap();
                                done2.set(true);
                            });
                        });
                    });
                });
            });
        });
        sim.run(&mut w);
        assert!(done.get());
        for m in &w.fss[0].mgrs {
            assert_eq!(m.cached_path("/p/f"), None, "a shard still caches the unlinked path");
        }
    }

    #[test]
    fn canonical_collapses_repeated_and_trailing_slashes() {
        assert_eq!(canonical("/d//f/".into()), "/d/f");
        assert_eq!(canonical("//".into()), "/");
        assert_eq!(canonical("/".into()), "/");
        assert_eq!(canonical("/d/f".into()), "/d/f");
        // `.` and `..` are left for `FsCore` to reject.
        assert_eq!(canonical("/d/../f".into()), "/d/../f");
    }

    #[test]
    fn unbound_session_errors_with_not_mounted() {
        let mut t = bed(1);
        let s = t.sessions[0];
        let saw = Rc::new(Cell::new(false));
        let saw2 = saw.clone();
        s.stat(&mut t.sim, &mut t.w, "/x", move |_sim, _w, r| {
            assert!(matches!(r, Err(FsError::NotMounted(_))));
            saw2.set(true);
        });
        t.sim.run(&mut t.w);
        assert!(saw.get());
    }
}
