//! Client-side filesystem operations: mount (local and multi-cluster) and
//! the data path (read/write/fsync/truncate), each one sequenced through
//! simulated RPCs, token negotiation, NSD service and bulk data flows. The
//! manager requests among them ride session envelopes
//! ([`crate::session::MetaOp`]).
//!
//! The concurrency protocol is the GPFS one:
//!
//! * Every read/write first secures a **byte-range token** from the token
//!   manager. Conflicting holders are revoked — each revocation is a real
//!   message exchange, and a revoked writer must *flush its dirty pages*
//!   before the new grant proceeds (so readers always observe flushed
//!   data).
//! * Reads fill the client **page pool**; sequential patterns ramp
//!   prefetch. Writes are **write-behind**: they dirty pages and return;
//!   data reaches the NSDs on fsync/close/eviction/revocation.
//! * Remote-cluster mounts run the full §6 RSA handshake over the WAN
//!   before any data moves.

use crate::cache::{DirtyPage, PageKey};
use crate::faults::RecoveryWhat;
use crate::replica;
use crate::rpc::{self, Attempt};
use crate::session::{MetaOp, Reply, Session};
use crate::tokens::{ByteRange, Held, TokenMode};
use crate::types::{check_file_size, BlockAddr, ClientId, FsError, FsId, Handle, InodeId, NsdId};
use crate::world::{GfsWorld, Mount};
use bytes::Bytes;
use gfs_auth::handshake::AccessMode;
use simcore::fxhash::FxHashMap;
use simcore::{Sim, SimDuration, SimTime};
use simnet::{FlowSpec, Network, NodeId};
use simsan::IoKind;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow::{Break, Continue};
use std::rc::Rc;

/// Callback type for operations yielding `T`.
pub type Cb<T> = Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, T)>;

/// Flow accounting tags used by the client layer.
pub mod tags {
    /// NSD read traffic (server → client).
    pub const NSD_READ: u32 = 1;
    /// NSD write traffic (client → server).
    pub const NSD_WRITE: u32 = 2;
}

pub(crate) fn client_node(w: &GfsWorld, c: ClientId) -> NodeId {
    w.clients[c.0 as usize].node
}

fn inflight_enter(w: &mut GfsWorld, c: ClientId, fs: FsId, inode: InodeId) {
    *w.clients[c.0 as usize]
        .inflight
        .entry((fs, inode))
        .or_insert(0) += 1;
}

fn inflight_exit(w: &mut GfsWorld, c: ClientId, fs: FsId, inode: InodeId) {
    let cnt = w.clients[c.0 as usize]
        .inflight
        .get_mut(&(fs, inode))
        .expect("inflight_exit without enter");
    *cnt -= 1;
    if *cnt == 0 {
        w.clients[c.0 as usize].inflight.remove(&(fs, inode));
    }
}

/// Join helper: run `cb` once `n` completions have been counted.
struct Join {
    remaining: Cell<usize>,
    cb: RefCell<Option<Cb<()>>>,
}

impl Join {
    fn new(n: usize, cb: Cb<()>) -> Rc<Self> {
        Rc::new(Join {
            remaining: Cell::new(n),
            cb: RefCell::new(Some(cb)),
        })
    }

    fn arrive(self: &Rc<Self>, sim: &mut Sim<GfsWorld>, w: &mut GfsWorld) {
        let left = self.remaining.get();
        debug_assert!(left > 0, "join over-arrived");
        self.remaining.set(left - 1);
        if left == 1 {
            if let Some(cb) = self.cb.borrow_mut().take() {
                cb(sim, w, ());
            }
        }
    }

    /// Fire immediately when n == 0.
    fn maybe_done(self: &Rc<Self>, sim: &mut Sim<GfsWorld>, w: &mut GfsWorld) {
        if self.remaining.get() == 0 {
            if let Some(cb) = self.cb.borrow_mut().take() {
                cb(sim, w, ());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Mounting
// ---------------------------------------------------------------------

/// Mount a device, dispatching on what the name means for the client's
/// cluster ([`GfsWorld::resolve_device`]): a locally-owned filesystem costs
/// one RPC to the configuration manager; an `mmremotefs` device runs the
/// full §6.2 RSA challenge–response over the WAN before installing the
/// mount. Either is one exchange under the client's attempt loop (the
/// `rpc` module): a lost leg times out and the whole exchange retries.
/// Unknown devices surface [`FsError::NotMounted`]; export/grant problems
/// surface [`FsError::AuthFailed`] — no variant-mismatch panics.
pub fn mount(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    device: &str,
    mode: AccessMode,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let cl = w.clients[client.0 as usize].cluster;
    let Some((fs, remote)) = w.resolve_device(cl, device) else {
        cb(sim, w, Err(FsError::NotMounted(device.to_string())));
        return;
    };
    let installed: Cb<Result<Mount, FsError>> = {
        let device = device.to_string();
        Box::new(move |sim, w, r| match r {
            Ok(m) => {
                w.clients[client.0 as usize].mounts.insert(device, m);
                cb(sim, w, Ok(()));
            }
            Err(e) => cb(sim, w, Err(e)),
        })
    };
    if !remote {
        let mgr = w.fss[fs.0 as usize].manager_node;
        rpc::exchange(
            sim,
            w,
            client,
            move |_, _| Continue(mgr),
            move |sim, w, a| {
                let from = client_node(w, client);
                let rpcb = w.costs.rpc_bytes;
                Network::send_msg(sim, w, from, a.to, rpcb, move |sim, w| {
                    let rpcb = w.costs.rpc_bytes;
                    Network::send_msg(sim, w, a.to, from, rpcb, move |sim, w| {
                        let mount = Mount {
                            fs,
                            mode,
                            session_key: None,
                        };
                        a.reply(sim, w, Ok(mount));
                    });
                })
            },
            installed,
        );
        return;
    }
    let inst = &w.fss[fs.0 as usize];
    if !inst.exported {
        let e = FsError::AuthFailed(format!("{device}: not exported"));
        installed(sim, w, Err(e));
        return;
    }
    let serving = inst.owning_cluster;
    let rfs = w.clusters[cl.0 as usize]
        .remote_fs
        .get(device)
        .expect("resolve_device found it");
    let remote_name = rfs.cluster.clone();
    let contact = w.clusters[cl.0 as usize]
        .remote_clusters
        .get(&remote_name)
        .expect("mmremotecluster entry required before mount")
        .contact;
    let fs_name = w.fss[fs.0 as usize].core.config.name.clone();
    let client_cluster_name = w.clusters[cl.0 as usize].name.clone();
    rpc::exchange(
        sim,
        w,
        client,
        move |_, _| Continue(contact),
        move |sim, w, a| {
            let (client_cluster_name, fs_name) = (client_cluster_name.clone(), fs_name.clone());
            let from = client_node(w, client);
            // HELLO: client -> contact node of the serving cluster.
            let rpcb = w.costs.rpc_bytes;
            Network::send_msg(sim, w, from, a.to, rpcb, move |sim, w| {
                // Serving cluster issues a challenge.
                let challenge = {
                    let (clusters, rng) = (&mut w.clusters, &mut w.rng);
                    clusters[serving.0 as usize]
                        .auth
                        .issue_challenge(&client_cluster_name, rng)
                };
                let rpcb = w.costs.rpc_bytes;
                Network::send_msg(sim, w, a.to, from, rpcb, move |sim, w| {
                    // Client signs the challenge (charge RSA sign time).
                    let sign_time = w.costs.sign_time;
                    sim.after(sign_time, move |sim, w| {
                        let cl = w.clients[client.0 as usize].cluster;
                        let response = w.clusters[cl.0 as usize]
                            .auth
                            .respond(&challenge, &fs_name, mode);
                        let challenge_id = challenge.id;
                        let rpcb = w.costs.rpc_bytes;
                        Network::send_msg(sim, w, from, a.to, rpcb, move |sim, w| {
                            // Server verifies (charge RSA verify time).
                            let verify_time = w.costs.verify_time;
                            sim.after(verify_time, move |sim, w| {
                                let outcome = {
                                    let (clusters, rng) = (&mut w.clusters, &mut w.rng);
                                    clusters[serving.0 as usize].auth.verify_response(
                                        challenge_id,
                                        &response,
                                        rng,
                                    )
                                };
                                let rpcb = w.costs.rpc_bytes;
                                Network::send_msg(sim, w, a.to, from, rpcb, move |sim, w| {
                                    let r = match outcome {
                                        Ok(grant) => {
                                            let cl = w.clients[client.0 as usize].cluster;
                                            let session_key = w.clusters[cl.0 as usize]
                                                .auth
                                                .open_session_key(&grant);
                                            Ok(Mount {
                                                fs,
                                                mode: grant.mode,
                                                session_key,
                                            })
                                        }
                                        Err(e) => Err(FsError::AuthFailed(format!("{e:?}"))),
                                    };
                                    a.reply(sim, w, r);
                                });
                            });
                        });
                    });
                });
            })
        },
        installed,
    );
}

// ---------------------------------------------------------------------
// Metadata operations
// ---------------------------------------------------------------------

pub(crate) fn mount_of(w: &GfsWorld, client: ClientId, device: &str) -> Result<Mount, FsError> {
    w.clients[client.0 as usize]
        .mounts
        .get(device)
        .cloned()
        .ok_or_else(|| FsError::NotMounted(device.to_string()))
}

/// Truncate an open file to `new_size` (shrinking frees blocks; extending
/// creates a hole). Requires a write-capable handle; takes a whole-file
/// write token, as GPFS does for size changes. The size change itself is
/// part of `sess`'s truncate op (reached through `Session::truncate`): it
/// rides the session's envelope to shard 0 under a session op id.
pub(crate) fn truncate(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    handle: Handle,
    new_size: u64,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let client = sess.ctx(w);
    let Some(of) = w.clients[client.0 as usize].handles.get(&handle).cloned() else {
        cb(sim, w, Err(FsError::BadHandle));
        return;
    };
    if !of.flags.writes() {
        cb(sim, w, Err(FsError::ReadOnly));
        return;
    }
    if let Err(e) = check_file_size(new_size) {
        cb(sim, w, Err(e));
        return;
    }
    let (fs, inode) = (of.fs, of.inode);
    let cb: Cb<Result<(), FsError>> = Box::new(cb);
    acquire_token(
        sim,
        w,
        client,
        fs,
        inode,
        ByteRange::whole(),
        TokenMode::Write,
        Box::new(move |sim, w, r| {
            if let Err(e) = r {
                cb(sim, w, Err(e));
                return;
            }
            // Flush this client's dirty pages first: data written below
            // the new size must survive the truncate (POSIX), and the
            // cache is invalidated afterwards.
            let dirty = w.clients[client.0 as usize].pool.dirty_pages_of(fs, inode);
            let after_flush: Cb<Result<(), FsError>> =
                Box::new(move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, r| {
                    // If any write-back failed the on-disk state below the
                    // new size is not durable; surface the error instead of
                    // truncating over it.
                    if let Err(e) = r {
                        cb(sim, w, Err(e));
                        return;
                    }
                    // Size changes go where tokens live: shard 0, which
                    // doubles as the filesystem's block/token manager.
                    let op = MetaOp::Truncate {
                        inode,
                        size: new_size,
                    };
                    sess.submit_mgr(
                        sim,
                        w,
                        fs,
                        0,
                        op,
                        move |sim, w, r: Result<(), FsError>| {
                            // Cached pages past the new EOF are stale; drop
                            // the whole file conservatively.
                            if r.is_ok() {
                                w.clients[client.0 as usize].pool.invalidate_file(fs, inode);
                            }
                            cb(sim, w, r);
                        },
                    );
                });
            flush_dirty_pages(sim, w, client, dirty, after_flush);
        }),
    );
}

// ---------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------

/// Secure a byte-range token covering `range`, paying for revocations
/// (including the revoked holders' dirty-page flushes).
///
/// Tokens are cached grants ([`crate::tokens`]): a context keeps each
/// grant until a conflicting acquire revokes it or the context's cap
/// gives it back, so a request its mirror already covers costs nothing.
/// The required range rounds out to whole blocks, because a cached page is
/// a whole block: two contexts writing disjoint bytes of one block must
/// still revoke each other. A call that starts where one of the context's
/// grants on the inode ends continues a stream and asks for the desired
/// range `[start, ∞)`, which the manager grants up to the first
/// conflicting grant.
///
/// Otherwise one exchange ([`crate::rpc`]) with shard 0's acting manager
/// under a two-stage watchdog. Stage one covers the request leg: if the
/// manager never acknowledges (crashed, recovering, or the message was
/// lost to a link flap), the attempt is retried with backoff against the
/// re-resolved acting manager. The ack swaps in stage two, a much longer
/// fuse over the revocation phase — revoking holders legitimately takes as
/// long as their dirty-page flushes, so only a manager that died
/// *mid-grant* trips it. A retry after the grant was installed but the
/// reply lost hits the token manager's `already_held` fast path, which
/// makes re-acquisition idempotent.
fn acquire_token(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    inode: InodeId,
    range: ByteRange,
    mode: TokenMode,
    cb: Cb<Result<(), FsError>>,
) {
    let required = range.to_blocks(w.fss[fs.0 as usize].core.config.block_size);
    let c = &mut w.clients[client.0 as usize];
    if c.held_tokens.covers(fs, inode, required, mode) {
        cb(sim, w, Ok(()));
        return;
    }
    let desired = if c.held_tokens.ends_at(fs, inode, required.start) {
        ByteRange::from(required.start)
    } else {
        required
    };
    rpc::exchange(
        sim,
        w,
        client,
        move |w, _| {
            // Checked per attempt: another op on this context may have
            // secured a covering token meanwhile.
            if w.clients[client.0 as usize].held_tokens.covers(fs, inode, required, mode) {
                return Break(Ok(()));
            }
            // Tokens are a whole-filesystem concern; shard 0's manager
            // serves them regardless of how the namespace is partitioned.
            Continue(w.fss[fs.0 as usize].manager_endpoint(0))
        },
        move |sim, w, a| {
            let from = client_node(w, client);
            let rpcb = w.costs.rpc_bytes;
            Network::send_msg(sim, w, from, a.to, rpcb, move |sim, w| {
                token_grant(sim, w, client, fs, inode, required, desired, mode, from, a)
            })
        },
        cb,
    );
}

/// Runs at the token manager when an acquire attempt arrives: acknowledge
/// at once, revoke every conflicting holder and wait for the revocations
/// already under way that conflict too, then send the grant, which names
/// its sequence number. Revocations of the new grant follow its reply.
#[allow(clippy::too_many_arguments)]
fn token_grant(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    inode: InodeId,
    required: ByteRange,
    desired: ByteRange,
    mode: TokenMode,
    from: NodeId,
    a: Attempt<()>,
) {
    let mgr = a.to;
    if !w.fss[fs.0 as usize].manager_answers(0, mgr) {
        return; // dropped; stage-one watchdog will retry
    }
    let inst = &mut w.fss[fs.0 as usize];
    let outcome = inst
        .tokens
        .acquire_desired(inode, client, required, desired, mode);
    let granted = Held {
        range: outcome.granted.range,
        mode: outcome.granted.mode,
        seq: outcome.granted.seq,
    };
    // One recall per holder for the grants this acquire revoked, plus the
    // ones already under way that it conflicts with.
    let mut by_holder: BTreeMap<ClientId, Vec<u64>> = BTreeMap::new();
    for g in &outcome.revoked {
        by_holder.entry(g.client).or_default().push(g.seq);
    }
    let mut fresh = Vec::with_capacity(by_holder.len());
    for (holder, seqs) in by_holder {
        let what = Recalled::Tokens {
            inode,
            seqs: seqs.into(),
        };
        fresh.push(inst.recalls.add(holder, fs, what, mgr));
    }
    let mut waits = fresh.clone();
    for g in &outcome.awaited {
        if let Some(rec) = inst.recalls.grants.get(&g.seq) {
            if !waits.iter().any(|r| Rc::ptr_eq(r, rec)) {
                waits.push(rec.clone());
            }
        }
    }

    // Immediate acknowledgment so the requester swaps the short fuse for
    // the long one; the grant itself arrives only after every revocation
    // completes (the ack always travels first on the same path).
    let a = Rc::new(a);
    let ack = a.clone();
    let rpcb = w.costs.rpc_bytes;
    Network::send_msg(sim, w, mgr, from, rpcb, move |sim, w| {
        // Stage two: revocations can legitimately take flush time, so the
        // fuse is generous; it only trips if the manager (or the grant
        // reply's path) died mid-exchange.
        let fuse = SimDuration::from_secs_f64(
            w.costs.request_timeout.as_secs_f64() * (2 + w.costs.max_retries) as f64,
        );
        ack.rearm(sim, fuse);
    });

    let finish: Cb<()> = Box::new(move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ()| {
        let inst = &mut w.fss[fs.0 as usize];
        // An expulsion of the requester meanwhile took the grant back; its
        // retry asks afresh.
        let live = inst.tokens.is_granted(inode, client, granted.seq);
        inst.tokens.replied(granted.seq);
        if live {
            let rpcb = w.costs.rpc_bytes;
            Network::send_msg(sim, w, mgr, from, rpcb, move |sim, w| {
                let Some(cb) = a.claim(sim) else {
                    return; // a watchdog fired; the retry owns this acquire
                };
                w.clients[client.0 as usize]
                    .held_tokens
                    .install(fs, inode, granted);
                give_back_over_cap(sim, w, client);
                cb(sim, w, Ok(()));
            });
        }
        // Recalls of this grant go out behind its reply, on the same path,
        // so none can reach the holder before the grant does.
        let parked = w.fss[fs.0 as usize].recalls.parked.remove(&granted.seq);
        for rec in parked.unwrap_or_default() {
            start_recall(sim, w, rec);
        }
    });
    let join = Join::new(waits.len(), finish);
    for rec in &waits {
        let join = join.clone();
        rec.wait(Box::new(move |sim, w, ()| join.arrive(sim, w)));
    }
    join.maybe_done(sim, w);
    for rec in fresh {
        start_recall(sim, w, rec);
    }
}

/// Past [`crate::tokens::CACHED_INODES`], give back the grants on the
/// context's least recently used inode together with its pages. An inode
/// with I/O in flight or a dirty page is passed over, so nothing written
/// is lost and no op loses its token. The release is one message to the
/// token manager; if a link flap drops it, the manager keeps grants nobody
/// uses until a conflicting acquire revokes them, which then finds nothing
/// to drop.
fn give_back_over_cap(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, client: ClientId) {
    let c = &mut w.clients[client.0 as usize];
    if c.held_tokens.len() <= crate::tokens::CACHED_INODES {
        return;
    }
    let dirty: BTreeSet<(FsId, InodeId)> = c
        .pool
        .pages()
        .filter(|&(_, dirty)| dirty)
        .map(|(k, _)| (k.fs, k.inode))
        .collect();
    let victim = c.held_tokens.over_cap(|fs, inode| {
        !c.inflight.contains_key(&(fs, inode)) && !dirty.contains(&(fs, inode))
    });
    let Some((fs, inode)) = victim else {
        return;
    };
    let seqs = c.held_tokens.take(fs, inode);
    c.pool.invalidate_file(fs, inode);
    let (from, mgr) = (c.node, w.fss[fs.0 as usize].mgrs[0].acting);
    let rpcb = w.costs.rpc_bytes;
    Network::send_msg(sim, w, from, mgr, rpcb, move |_sim, w| {
        w.fss[fs.0 as usize].tokens.release(inode, client, &seqs);
    });
}

// ---------------------------------------------------------------------
// Recalls: token revocation and lease break
// ---------------------------------------------------------------------
//
// The manager takes authority back from a mount context by message, the
// GPFS way (Schmuck & Haskin, FAST'02), and expels it only once it stops
// answering: the context's grants on an inode when another context's
// acquire conflicts with them, or its lease on a top-level subtree
// (XUFS-style delegation) when another context's op lands there.

/// What a recall takes back from its holder.
pub(crate) enum Recalled {
    /// The holder's grants `seqs` on `inode`.
    Tokens { inode: InodeId, seqs: Rc<[u64]> },
    /// The holder's lease on one top-level subtree.
    Lease(Box<str>),
}

/// One recall under way. Acquires that conflict with a token recall's
/// grants wait for it; envelope ops that meet a lease recall re-poll.
///
/// The manager sends it once the grants it revokes have had their replies
/// sent and repeats it every `retry_base` until the holder's ack arrives:
/// a repeat that finds the holder still at work is ignored, one that finds
/// it done draws the ack again, so neither a recall nor an ack lost to a
/// link flap can wedge it. A holder that no send reaches for
/// `costs.lease_break_timeout` is expelled, and the recall finishes then.
pub(crate) struct Recall {
    /// Unique on its filesystem; the holder marks its work in progress by it.
    id: u64,
    holder: ClientId,
    fs: FsId,
    what: Recalled,
    /// The manager node that sends it.
    mgr: NodeId,
    /// Some send has reached the holder; later ones are repeats.
    landed: Cell<bool>,
    /// Expulsion fuse, armed while no send gets through.
    fuse: Cell<Option<simcore::TimerId>>,
    /// Who waits for the ack; `None` once the recall finished.
    waiters: RefCell<Option<Vec<Cb<()>>>>,
}

impl Recall {
    fn wait(&self, cb: Cb<()>) {
        let mut waiters = self.waiters.borrow_mut();
        waiters
            .as_mut()
            .expect("waiting on a finished recall")
            .push(cb);
    }

    fn pending(&self) -> bool {
        self.waiters.borrow().is_some()
    }
}

/// Every recall under way on one filesystem: token recalls under each
/// grant they revoke, lease recalls under their subtree, and the token
/// recalls held back until the reply of a grant they revoke is sent.
#[derive(Default)]
pub struct Recalls {
    next_id: u64,
    grants: FxHashMap<u64, Rc<Recall>>,
    leases: BTreeMap<Box<str>, Rc<Recall>>,
    parked: FxHashMap<u64, Vec<Rc<Recall>>>,
}

impl Recalls {
    /// No recall is under way.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty() && self.leases.is_empty()
    }

    fn add(&mut self, holder: ClientId, fs: FsId, what: Recalled, mgr: NodeId) -> Rc<Recall> {
        let (id, landed, fuse) = (self.next_id, Cell::new(false), Cell::new(None));
        let waiters = RefCell::new(Some(Vec::new()));
        let rec = Rc::new(Recall {
            id,
            holder,
            fs,
            what,
            mgr,
            landed,
            fuse,
            waiters,
        });
        self.next_id += 1;
        match &rec.what {
            Recalled::Tokens { seqs, .. } => {
                self.grants.extend(seqs.iter().map(|&s| (s, rec.clone())));
            }
            Recalled::Lease(top) => {
                self.leases.insert(top.clone(), rec.clone());
            }
        }
        rec
    }

    fn remove(&mut self, rec: &Recall) {
        match &rec.what {
            Recalled::Tokens { seqs, .. } => {
                for s in seqs.iter() {
                    self.grants.remove(s);
                }
            }
            Recalled::Lease(top) => {
                self.leases.remove(top);
            }
        }
    }
}

/// Must an envelope op of `ctx` on subtree `top` wait for a lease? It must
/// while another context leases the subtree — the op may not run behind
/// that delegate's back, so the lease is recalled — and while a recall of
/// the subtree's lease is under way, unless it is the holder's own journal
/// replay: the recall's ack clears the grant, so a grant made meanwhile
/// (the holder re-acquiring) would leave a lease only its mirror lists.
/// `FsInstance::lease_breaks` counts the recalls started here.
pub(crate) fn lease_blocks(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    fs: FsId,
    ctx: ClientId,
    top: &str,
    replay: bool,
) -> bool {
    let inst = &mut w.fss[fs.0 as usize];
    if inst.leases.is_empty() && inst.recalls.leases.is_empty() {
        return false;
    }
    if let Some(rec) = inst.recalls.leases.get(top) {
        return !replay || rec.holder != ctx;
    }
    let Some(holder) = inst.leases.get(top).copied().filter(|&h| h != ctx) else {
        return false;
    };
    inst.lease_breaks += 1;
    let mgr = inst.mgrs[inst.core.shards.shard_of(top) as usize].acting;
    let rec = inst
        .recalls
        .add(holder, fs, Recalled::Lease(top.into()), mgr);
    start_recall(sim, w, rec);
    true
}

/// Send `rec` once every grant it revokes has had its reply sent;
/// otherwise hold it back behind the first reply still pending.
fn start_recall(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, rec: Rc<Recall>) {
    let inst = &mut w.fss[rec.fs.0 as usize];
    let unreplied = match &rec.what {
        Recalled::Tokens { seqs, .. } => seqs.iter().copied().find(|&s| !inst.tokens.is_replied(s)),
        Recalled::Lease(_) => None,
    };
    match unreplied {
        Some(s) => inst.recalls.parked.entry(s).or_default().push(rec),
        None => send_recall(sim, w, rec),
    }
}

/// One send of a recall, then the next one `retry_base` later while the
/// recall is pending (see [`Recall`]).
fn send_recall(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, rec: Rc<Recall>) {
    if !rec.pending() {
        return;
    }
    let repeat = rec.landed.get();
    let holder_node = client_node(w, rec.holder);
    let rpcb = w.costs.rpc_bytes;
    let r = rec.clone();
    let landed = Network::send_msg(sim, w, rec.mgr, holder_node, rpcb, move |sim, w| {
        recall_arrives(sim, w, r, repeat);
    });
    if landed {
        rec.landed.set(true);
        if let Some(fuse) = rec.fuse.take() {
            sim.cancel_timer(fuse);
        }
    } else if rec.fuse.get().is_none() {
        let r = rec.clone();
        let fuse = sim.timer_after(w.costs.lease_break_timeout, move |sim, w| {
            r.fuse.set(None);
            if r.pending() {
                expel(sim, w, r.fs, r.holder);
            }
        });
        rec.fuse.set(Some(fuse));
    }
    sim.after(w.costs.retry_base, move |sim, w| send_recall(sim, w, rec));
}

/// A recall reached its holder.
fn recall_arrives(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, rec: Rc<Recall>, repeat: bool) {
    let key = (rec.fs, rec.id);
    let c = &mut w.clients[rec.holder.0 as usize];
    if repeat {
        if !c.recalling.contains(&key) {
            recall_ack(sim, w, rec); // the work is done; its ack was lost
        }
        return;
    }
    c.recalling.insert(key);
    if let Recalled::Tokens { inode, seqs } = &rec.what {
        // No new op may start under the revoked grants, so a busy holder
        // cannot starve the recall.
        c.held_tokens.begin_revoke(rec.fs, *inode, seqs);
    }
    let drain = match &rec.what {
        Recalled::Tokens { inode, .. } => Some((rec.fs, *inode)),
        Recalled::Lease(_) => None,
    };
    let holder = rec.holder;
    let then = Box::new(move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld| give_back(sim, w, rec));
    when_drained(sim, w, holder, drain, then);
}

/// Run `then` once `holder` is drained: no data op in flight on `inode`
/// or, for `None`, no delegate op in flight (parked batches count). GPFS
/// completes in-flight operations before it gives authority back, which
/// keeps reads and writes atomic and a delegate journal complete.
pub(crate) fn when_drained(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    holder: ClientId,
    inode: Option<(FsId, InodeId)>,
    then: Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld)>,
) {
    let c = &w.clients[holder.0 as usize];
    let busy = match inode {
        Some(key) => c.inflight.contains_key(&key),
        None => c.delegate_inflight > 0,
    };
    if !busy {
        return then(sim, w);
    }
    sim.after(SimDuration::from_micros(500), move |sim, w| {
        when_drained(sim, w, holder, inode, then);
    });
}

/// The drained holder gives back what is recalled, then acks. Tokens: the
/// revoked grants leave the mirror, the dirty pages no remaining write
/// grant covers are flushed (a failed write-back does not block the
/// recall), and the pages no remaining grant covers are dropped. A lease:
/// the mirror entry goes first, so no new op delegates and the journal is
/// complete, then the journal reconciles with the owning shard.
fn give_back(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, rec: Rc<Recall>) {
    let (holder, fs, r) = (rec.holder, rec.fs, rec.clone());
    let done: Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld)> = Box::new(move |sim, w| {
        w.clients[holder.0 as usize].recalling.remove(&(fs, r.id));
        recall_ack(sim, w, r);
    });
    let c = &mut w.clients[holder.0 as usize];
    match &rec.what {
        Recalled::Tokens { inode, seqs } => {
            let (inode, block) = (*inode, w.fss[fs.0 as usize].core.config.block_size);
            c.held_tokens.revoke(fs, inode, seqs);
            let tokens = &c.held_tokens;
            let mut dirty = c.pool.dirty_pages_of(fs, inode);
            dirty.retain(|p| !tokens.holds_page(p.key, true, block));
            let after_flush: Cb<Result<(), FsError>> = Box::new(move |sim, w, _| {
                let c = &mut w.clients[holder.0 as usize];
                let tokens = &c.held_tokens;
                c.pool.retain(|key, dirty| {
                    key.fs != fs || key.inode != inode || tokens.holds_page(key, dirty, block)
                });
                done(sim, w);
            });
            flush_dirty_pages(sim, w, holder, dirty, after_flush);
        }
        Recalled::Lease(top) => {
            c.leases.remove(&(fs, top.clone()));
            crate::session::reconcile_journal(sim, w, holder, fs, top.clone(), done);
        }
    }
}

/// The holder's ack. If a link flap drops it, the manager's next repeat of
/// the recall draws it again.
fn recall_ack(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, rec: Rc<Recall>) {
    let (holder_node, rpcb) = (client_node(w, rec.holder), w.costs.rpc_bytes);
    Network::send_msg(sim, w, holder_node, rec.mgr, rpcb, move |sim, w| {
        finish_recall(sim, w, &rec);
    });
}

/// The recall is over — acknowledged, or its holder expelled: a token
/// recall's grants stop blocking and its waiters move on; a lease recall
/// clears the holder's grant.
fn finish_recall(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, rec: &Recall) {
    let Some(waiters) = rec.waiters.borrow_mut().take() else {
        return; // a repeated ack, or the expulsion finished it first
    };
    if let Some(fuse) = rec.fuse.take() {
        sim.cancel_timer(fuse);
    }
    let inst = &mut w.fss[rec.fs.0 as usize];
    inst.recalls.remove(rec);
    match &rec.what {
        Recalled::Tokens { inode, seqs } => inst.tokens.revoke_done(*inode, rec.holder, seqs),
        Recalled::Lease(top) => {
            if inst.leases.get(top) == Some(&rec.holder) {
                inst.leases.remove(top);
            }
        }
    }
    for cb in waiters {
        cb(sim, w, ());
    }
}

/// Expel `holder` from `fs`: no send of a recall reached it for
/// `costs.lease_break_timeout`. The manager takes back its leases and
/// releases every token it held, so nobody else blocks on a dead or
/// cut-off node. The node side needs no message: its own term clock tells
/// it its membership lapsed, so it stops trusting its lease and token
/// mirrors and discards every cached page of the filesystem — a page is
/// only valid under a token. Dirty pages dropped this way never reach the
/// disk: the recovery log counts them, and the next fsync or close of each
/// file they belonged to fails once (`Client::lost_writes`).
fn expel(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, fs: FsId, holder: ClientId) {
    {
        let inst = &mut w.fss[fs.0 as usize];
        inst.leases.retain(|_, h| *h != holder);
        inst.expelled.insert(holder);
        inst.expulsions += 1;
        inst.tokens.release_client(holder);
    }
    let c = &mut w.clients[holder.0 as usize];
    c.leases.retain(|(f, _)| *f != fs);
    c.held_tokens.forget_fs(fs);
    let lost = &mut c.lost_writes;
    let lost_pages = c.pool.retain(|key, dirty| {
        if key.fs == fs && dirty {
            lost.insert((fs, key.inode));
        }
        key.fs != fs
    }) as u64;
    // The writeback journal dies with the membership: an expelled node's
    // locally-applied mutations will never reconcile (the shared-disk
    // state already holds them; only the manager-side records are lost) —
    // journaled so operators can see what the expulsion cost.
    let dropped = c.journal.iter().filter(|e| e.fs == fs).count() as u64;
    c.journal.retain(|e| e.fs != fs);
    w.recovery
        .log(sim.now(), RecoveryWhat::Expelled { client: holder });
    if dropped > 0 {
        w.recovery.log(
            sim.now(),
            RecoveryWhat::JournalDiscarded { client: holder, ops: dropped },
        );
    }
    if lost_pages > 0 {
        w.recovery.log(
            sim.now(),
            RecoveryWhat::DirtyPagesDiscarded { client: holder, pages: lost_pages },
        );
    }
    // Nobody waits on the node any more: its recalls are over.
    let recalls = &w.fss[fs.0 as usize].recalls;
    let mut mine: Vec<Rc<Recall>> = recalls
        .grants
        .values()
        .chain(recalls.leases.values())
        .filter(|r| r.holder == holder)
        .cloned()
        .collect();
    mine.sort_by_key(|r| r.id);
    mine.dedup_by_key(|r| r.id);
    for rec in mine {
        finish_recall(sim, w, &rec);
    }
}

/// First contact from an expelled client lifts the expulsion — GPFS
/// re-admits a node the moment it rejoins quorum, and its caches were
/// already discarded at expulsion time.
pub(crate) fn readmit_if_expelled(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    fs: FsId,
    client: ClientId,
) {
    if w.fss[fs.0 as usize].expelled.remove(&client) {
        w.fss[fs.0 as usize].readmissions += 1;
        w.recovery
            .log(sim.now(), RecoveryWhat::Readmitted { client });
    }
}

/// How many subtree moves one rebalance drain cycle may batch. A single
/// move cannot close a gap wider than twice the hottest movable subtree;
/// batching the top-K drains a pile-up in one cycle instead of K.
const REBALANCE_MOVES_PER_STEP: usize = 3;

/// One step of the live rebalance policy: plan the next authority
/// migration batch from accumulated heat (up to three subtrees when a
/// single move cannot close the load gap), drain every involved manager's queued envelopes, then
/// commit — flipping each subtree's owner and journaling a migration
/// record in *both* shards' WALs (either manager can prove the handoff
/// after a crash). Ops already routed keep their captured shard: the
/// shared-disk core and per-shard dedup tables make the straggler window
/// correct, exactly like a cross-shard op. Returns whether a migration
/// was planned (commit lands once the involved queues drain).
pub fn maybe_rebalance(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, fs: FsId) -> bool {
    if w.fss[fs.0 as usize].migrating {
        return false; // previous migration still draining
    }
    let moves = w.fss[fs.0 as usize]
        .core
        .shards
        .plan_rebalance_moves(REBALANCE_MOVES_PER_STEP);
    if moves.is_empty() {
        return false;
    }
    let inst = &mut w.fss[fs.0 as usize];
    inst.migrating = true;
    let drain = moves
        .iter()
        .flat_map(|&(_, from, to)| [from, to])
        .map(|s| inst.mgrs[s as usize].busy_until)
        .fold(sim.now(), SimTime::max);
    sim.at(drain, move |_sim, w| {
        let inst = &mut w.fss[fs.0 as usize];
        for (top, from, to) in &moves {
            // Migration records live in the bit-62 op-id namespace —
            // disjoint from the bit-63 session ids, so they can never
            // collide with (or be retired by) ordinary op acks.
            let op_id = (1u64 << 62) | inst.migration_seq;
            inst.migration_seq += 1;
            let (subtree, from, to) = (top.clone(), *from, *to);
            let rec = Ok(Reply::Migrated { subtree, from, to });
            inst.mgrs[from as usize].record(op_id, rec.clone());
            inst.mgrs[to as usize].record(op_id, rec);
        }
        inst.core.shards.commit_moves(&moves);
        inst.migrating = false;
    });
    true
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------
//
// Every NSD request — a fetch or a flush of one scatter-gather run — is one
// exchange ([`crate::rpc`]): it re-resolves its server on every attempt, so
// a retry fails over to the next healthy NSD server in the ring, and no
// reachable server at all ends it with `FsError::ServerDown`. A replica
// read asks a current replica site on its first attempt only; every retry
// goes to the home farm.

/// The home farm's server for NSD `nsd`: its primary, or the next healthy
/// server in the ring. `ServerDown` ends the exchange when none is left.
fn home_server<T>(w: &GfsWorld, fs: FsId, nsd: u32) -> rpc::Target<T> {
    match w.fss[fs.0 as usize].try_server_of(NsdId(nsd)) {
        Some(server) => Continue(server),
        None => Break(Err(FsError::ServerDown)),
    }
}

/// Group per-block requests into maximal scatter-gather runs: same file,
/// same NSD, consecutive *disk* blocks. Runs are issued in file order (by
/// each run's lowest file-block index), so a fully striped access — where
/// consecutive file blocks land on different NSDs — degenerates to the
/// exact one-request-per-block sequence of the uncoalesced path.
fn coalesce<T>(mut items: Vec<(PageKey, BlockAddr, T)>) -> Vec<(BlockAddr, Vec<(PageKey, T)>)> {
    items.sort_by_key(|(k, a, _)| (k.fs.0, k.inode.0, a.nsd, a.block));
    let mut runs: Vec<(BlockAddr, Vec<(PageKey, T)>)> = Vec::new();
    for (key, addr, payload) in items {
        if let Some((base, members)) = runs.last_mut() {
            let head = &members[0].0;
            if head.fs == key.fs
                && head.inode == key.inode
                && base.nsd == addr.nsd
                && base.block + members.len() as u64 == addr.block
            {
                members.push((key, payload));
                continue;
            }
        }
        runs.push((addr, vec![(key, payload)]));
    }
    runs.sort_by_key(|(_, members)| {
        let head = &members[0].0;
        let first_file_block = members.iter().map(|(k, _)| k.block).min().unwrap_or(0);
        (head.fs.0, head.inode.0, first_file_block)
    });
    runs
}

/// Append bytes `s..e` of a page to `out`. A page may end before the
/// block does (a small file's page holds only its bytes); everything past
/// its end reads as zeros.
fn extend_from_page(out: &mut Vec<u8>, page: &[u8], s: usize, e: usize) {
    let held = page.len().clamp(s, e);
    out.extend_from_slice(page.get(s..held).unwrap_or_default());
    out.resize(out.len() + (e - held), 0);
}

/// Where block `key` lives on disk; `None` for a hole or past EOF.
fn block_addr(w: &GfsWorld, key: PageKey) -> Option<BlockAddr> {
    let core = &w.fss[key.fs.0 as usize].core;
    let block_size = core.config.block_size;
    core.block_map(key.inode, key.block * block_size, 1)
        .ok()?
        .first()?
        .1
}

/// Completion of one fetched segment: its keys and the fetch's result.
type SegmentDone =
    Rc<dyn Fn(&mut Sim<GfsWorld>, &mut GfsWorld, &[PageKey], Result<Vec<Bytes>, FsError>)>;

/// Fetch missed blocks of one file: coalesce them into scatter-gather
/// runs, plan each run across the home farm and any current replica copies
/// by modeled RTT plus queue depth ([`replica::plan_run`]), and fetch each
/// planned segment. With an inert catalog the planner returns one
/// untracked Home segment per run, the plain one-fetch-per-run path. A
/// segment releases its replica pressure when its fetch settles, then
/// `done` gets its keys and result.
fn fetch_misses(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    misses: Vec<(PageKey, BlockAddr, ())>,
    done: SegmentDone,
) {
    let plan_now = sim.now();
    let from_node = client_node(w, client);
    for (addr, members) in coalesce(misses) {
        let keys: Vec<PageKey> = members.into_iter().map(|(k, ())| k).collect();
        let (fs, inode) = (keys[0].fs, keys[0].inode);
        let block_size = w.fss[fs.0 as usize].core.config.block_size;
        let segs = {
            let topo = w.net.topo();
            let inst = &mut w.fss[fs.0 as usize];
            replica::plan_run(topo, inst, from_node, inode, addr, keys.len(), plan_now)
        };
        for seg in segs {
            let seg_keys: Vec<PageKey> = keys[seg.first..seg.first + seg.len].to_vec();
            let seg_addr = BlockAddr {
                nsd: addr.nsd,
                block: addr.block + seg.first as u64,
            };
            let done = done.clone();
            let done_keys = seg_keys.clone();
            let settled: Cb<Result<Vec<Bytes>, FsError>> = Box::new(move |sim, w, r| {
                if seg.tracked {
                    w.fss[fs.0 as usize]
                        .replicas
                        .release_pending(seg.source, done_keys.len() as u64);
                }
                done(sim, w, &done_keys, r);
            });
            fetch_run(
                sim, w, client, seg_keys, seg_addr, block_size, seg.source, settled,
            );
        }
    }
}

/// Fetch one block into the page pool (cache-aware). `cb` receives the
/// block's page (bytes past its end are zeros), or the error after the
/// retry budget is spent. Single-block convenience over [`fetch_run`],
/// used by read-modify-write.
fn fetch_block(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    inode: InodeId,
    block_idx: u64,
    cb: Cb<Result<Bytes, FsError>>,
) {
    let key = PageKey {
        fs,
        inode,
        block: block_idx,
    };
    if let Some(data) = w.clients[client.0 as usize].pool.get(key) {
        cb(sim, w, Ok(data));
        return;
    }
    let block_size = w.fss[fs.0 as usize].core.config.block_size;
    let Some(addr) = block_addr(w, key) else {
        // Hole or past-EOF: zeros, no I/O. An empty page stands for them,
        // since every byte past a page's end reads as zero.
        cb(sim, w, Ok(Bytes::new()));
        return;
    };
    fetch_run(
        sim,
        w,
        client,
        vec![key],
        addr,
        block_size,
        replica::Source::Home,
        Box::new(move |sim, w, r| {
            cb(sim, w, r.map(|mut parts| parts.pop().expect("one block requested")))
        }),
    );
}

/// Fetch a scatter-gather run of disk-contiguous blocks from `source`
/// (one request message, one NSD service, one bulk flow, one watchdog for
/// the whole run). `keys[i]` is the file block stored at disk block
/// `addr.block + i`. `cb` receives the per-block payloads in run order.
///
/// A replica `source` is the nearest-replica read path: the request targets
/// the replica site's server and service queue instead of the home farm's,
/// with two guarantees on top:
///
/// * **Never serve stale.** The copy's currency
///   ([`crate::replica::ReplicaCatalog::copy_current`]) is checked at
///   issue and again at completion; a write that invalidated the copy in
///   between makes the fetch fall back to the home farm (counted as a
///   `stale_fallback`), so `stale_reads` stays zero by construction.
/// * **No availability regression.** Only the first attempt asks the site,
///   and only while its server is up; a timeout retries at the *home* farm
///   with the shared retry budget, so a dead or partitioned replica site
///   degrades to the single-home path instead of failing the read.
fn fetch_run(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    keys: Vec<PageKey>,
    addr: BlockAddr,
    block_size: u64,
    source: replica::Source,
    cb: Cb<Result<Vec<Bytes>, FsError>>,
) {
    let fs = keys[0].fs;
    let inode = keys[0].inode;
    let nblocks = keys.len() as u64;
    // The token generation the fetch starts under: a revocation (or an
    // expulsion) while it is on the wire means the data may be stale by
    // the time it lands, so it reaches the caller but not the pool.
    let gen = w.clients[client.0 as usize].held_tokens.gen(fs, inode);
    // The replica site the first attempt asks, with its server.
    let site = match source {
        replica::Source::Home => None,
        replica::Source::Site(s) => {
            let inst = &mut w.fss[fs.0 as usize];
            let site = &inst.replicas.sites[s as usize];
            let server = site.servers[addr.nsd as usize % site.servers.len()];
            if !inst.replicas.copy_current(inode, s) {
                // The plan raced a write: never serve a non-current copy.
                inst.replicas.counters.stale_fallbacks += 1;
                None
            } else if inst.down_servers.contains(&server) {
                None
            } else {
                Some((s, server))
            }
        }
    };
    rpc::exchange(
        sim,
        w,
        client,
        move |w, n| match site {
            Some((_, server)) if n == 0 => Continue(server),
            _ => home_server(w, fs, addr.nsd),
        },
        move |sim, w, a| {
            let at_site = site.filter(|_| a.n == 0).map(|(s, _)| s);
            let keys = keys.clone();
            let from = client_node(w, client);
            let rpcb = w.costs.rpc_bytes;
            let window = w.costs.flow_window;
            let sent = Network::send_msg(sim, w, from, a.to, rpcb, move |sim, w| {
                let server = a.to;
                // A crashed server silently drops the request: the
                // watchdog is the only way the client learns about it.
                if w.fss[fs.0 as usize].down_servers.contains(&server) {
                    return;
                }
                // NSD service at the server: one seek, `nblocks` contiguous
                // blocks, on the replica site's own queue for this stripe
                // slot when the site serves.
                let inst = &mut w.fss[fs.0 as usize];
                let nsd = match at_site {
                    Some(s) => {
                        let nsds = &mut inst.replicas.sites[s as usize].nsds;
                        let nq = nsds.len();
                        &mut nsds[addr.nsd as usize % nq]
                    }
                    None => &mut inst.nsds[addr.nsd as usize],
                };
                let done = nsd.serve(
                    &mut w.arrays,
                    sim.now(),
                    IoKind::Read,
                    addr.block * block_size,
                    nblocks * block_size,
                );
                sim.at(done, move |sim, w| {
                    // Bulk data back to the client.
                    let spec = FlowSpec {
                        src: server,
                        dst: from,
                        bytes: nblocks * block_size,
                        window: Some(window),
                        tag: tags::NSD_READ,
                    };
                    Network::start_flow(sim, w, spec, move |sim, w| {
                        let Some(cb) = a.claim(sim) else {
                            return; // watchdog fired first; a retry owns this fetch
                        };
                        if let Some(s) = at_site {
                            // Completion-side currency check: a write that
                            // landed while the data was in flight
                            // invalidated this copy. Serving it now would be
                            // exactly the stale-after-invalidate read the
                            // invariants forbid — go home.
                            let replicas = &mut w.fss[fs.0 as usize].replicas;
                            if !replicas.copy_current(inode, s) {
                                replicas.counters.stale_fallbacks += 1;
                                let home = replica::Source::Home;
                                fetch_run(sim, w, client, keys, addr, block_size, home, cb);
                                return;
                            }
                            let site = &mut replicas.sites[s as usize];
                            site.reads += 1;
                            site.bytes_served += nblocks * block_size;
                        }
                        let parts = w.fss[fs.0 as usize].core.get_block_run(addr, nblocks);
                        let current = w.clients[client.0 as usize].held_tokens.gen(fs, inode);
                        if gen.is_some() && current == gen {
                            for (key, data) in keys.iter().zip(parts.iter()) {
                                let c = &mut w.clients[client.0 as usize];
                                if !c.held_tokens.holds_page(*key, false, block_size) {
                                    continue;
                                }
                                let evicted = c.pool.insert_clean(*key, data.clone());
                                flush_evicted(sim, w, client, evicted);
                            }
                        }
                        cb(sim, w, Ok(parts));
                    });
                });
            });
            if sent {
                w.nsd_stats.record(nblocks, nblocks * block_size);
            }
            sent
        },
        cb,
    );
}

/// Flush a batch of dirty pages, coalescing disk-contiguous blocks into
/// scatter-gather write runs. `done` fires once every page has settled,
/// carrying the first flush error (if any). Pages whose blocks were freed
/// underneath (truncate/unlink raced the flush) settle immediately.
fn flush_dirty_pages(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    dirty: Vec<DirtyPage>,
    done: Cb<Result<(), FsError>>,
) {
    let first_err: Rc<RefCell<Option<FsError>>> = Rc::new(RefCell::new(None));
    let first_err_f = first_err.clone();
    let finish: Cb<()> = Box::new(move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ()| {
        match first_err_f.borrow_mut().take() {
            Some(e) => done(sim, w, Err(e)),
            None => done(sim, w, Ok(())),
        }
    });
    let join = Join::new(dirty.len(), finish);
    let mut items = Vec::with_capacity(dirty.len());
    for page in dirty {
        match block_addr(w, page.key) {
            Some(addr) => items.push((page.key, addr, page.data)),
            None => join.arrive(sim, w),
        }
    }
    for (addr, members) in coalesce(items) {
        let (keys, data): (Vec<PageKey>, Vec<Bytes>) = members.into_iter().unzip();
        let block_size = w.fss[keys[0].fs.0 as usize].core.config.block_size;
        let run_len = keys.len();
        let join = join.clone();
        let first_err = first_err.clone();
        flush_run(
            sim,
            w,
            client,
            keys,
            data,
            addr,
            block_size,
            Box::new(move |sim, w, r| {
                if let Err(e) = r {
                    first_err.borrow_mut().get_or_insert(e);
                }
                for _ in 0..run_len {
                    join.arrive(sim, w);
                }
            }),
        );
    }
    join.maybe_done(sim, w);
}

/// Flush a scatter-gather run of dirty pages to disk-contiguous blocks on
/// one NSD as one exchange ([`crate::rpc`]): one bulk flow, one NSD
/// service, one ack, one watchdog for the whole run.
fn flush_run(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    keys: Vec<PageKey>,
    data: Vec<Bytes>,
    addr: BlockAddr,
    block_size: u64,
    cb: Cb<Result<(), FsError>>,
) {
    let fs = keys[0].fs;
    let nblocks = keys.len() as u64;
    rpc::exchange(
        sim,
        w,
        client,
        move |w, _| home_server(w, fs, addr.nsd),
        move |sim, w, a| {
            let (keys, data) = (keys.clone(), data.clone());
            w.nsd_stats.record(nblocks, nblocks * block_size);
            let from = client_node(w, client);
            let spec = FlowSpec {
                src: from,
                dst: a.to,
                bytes: nblocks * block_size,
                window: Some(w.costs.flow_window),
                tag: tags::NSD_WRITE,
            };
            Network::start_flow(sim, w, spec, move |sim, w| {
                let server = a.to;
                // Crashed mid-transfer: the data never lands, no ack comes back.
                if w.fss[fs.0 as usize].down_servers.contains(&server) {
                    return;
                }
                let inst = &mut w.fss[fs.0 as usize];
                let done = inst.nsds[addr.nsd as usize].serve(
                    &mut w.arrays,
                    sim.now(),
                    IoKind::Write,
                    addr.block * block_size,
                    nblocks * block_size,
                );
                sim.at(done, move |sim, w| {
                    w.fss[fs.0 as usize].core.put_block_run(addr, data.clone());
                    // Ack back to the client.
                    let rpcb = w.costs.rpc_bytes;
                    Network::send_msg(sim, w, server, from, rpcb, move |sim, w| {
                        let Some(cb) = a.claim(sim) else {
                            return; // a retry owns this flush now
                        };
                        let pool = &mut w.clients[client.0 as usize].pool;
                        for (key, data) in keys.iter().zip(&data) {
                            pool.mark_clean(*key, data);
                        }
                        cb(sim, w, Ok(()));
                    });
                });
            });
            // A flow whose path is down stalls and resumes on its own.
            true
        },
        cb,
    );
}

/// Write back pages the pool evicted dirty, per file, as I/O in flight on
/// the file: a recall of the file's token waits for it ([`when_drained`])
/// and the cap passes the file over. The pool no longer holds the pages,
/// so a write-back that fails loses them: it is logged as
/// `DirtyPagesDiscarded`, and the next fsync or close of the file fails
/// once (`Client::lost_writes`), as after an expulsion.
fn flush_evicted(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    evicted: Vec<DirtyPage>,
) {
    let mut by_file: BTreeMap<(FsId, InodeId), Vec<DirtyPage>> = BTreeMap::new();
    for page in evicted {
        by_file.entry((page.key.fs, page.key.inode)).or_default().push(page);
    }
    for ((fs, inode), pages) in by_file {
        inflight_enter(w, client, fs, inode);
        let n = pages.len() as u64;
        let settled: Cb<Result<(), FsError>> = Box::new(move |sim, w, r| {
            inflight_exit(w, client, fs, inode);
            if r.is_err() {
                w.clients[client.0 as usize].lost_writes.insert((fs, inode));
                let what = RecoveryWhat::DirtyPagesDiscarded { client, pages: n };
                w.recovery.log(sim.now(), what);
            }
        });
        flush_dirty_pages(sim, w, client, pages, settled);
    }
}

/// Read `len` bytes at `offset`. Returns short data at EOF (like POSIX).
pub fn read(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    handle: Handle,
    offset: u64,
    len: u64,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<Bytes, FsError>) + 'static,
) {
    let Some(of) = w.clients[client.0 as usize].handles.get(&handle).cloned() else {
        cb(sim, w, Err(FsError::BadHandle));
        return;
    };
    let (fs, inode) = (of.fs, of.inode);
    let size = match w.fss[fs.0 as usize].core.inode(inode) {
        Ok(ino) => ino.size(),
        Err(e) => {
            cb(sim, w, Err(e));
            return;
        }
    };
    // A length past `u64::MAX` reads to EOF, as `oracle::ModelFs::read` does.
    let end = offset.saturating_add(len).min(size);
    if offset >= end {
        cb(sim, w, Ok(Bytes::new()));
        return;
    }
    let len = end - offset;
    let block_size = w.fss[fs.0 as usize].core.config.block_size;
    let cb: Cb<Result<Bytes, FsError>> = Box::new(cb);

    acquire_token(
        sim,
        w,
        client,
        fs,
        inode,
        ByteRange::new(offset, end),
        TokenMode::Read,
        Box::new(move |sim, w, r| {
            if let Err(e) = r {
                cb(sim, w, Err(e));
                return;
            }
            // Read atomicity: defer revocations while assembling.
            inflight_enter(w, client, fs, inode);
            let first = offset / block_size;
            let last = end.div_ceil(block_size);
            let nblocks = (last - first) as usize;
            let parts: Rc<RefCell<Vec<Option<Bytes>>>> =
                Rc::new(RefCell::new(vec![None; nblocks]));
            let first_err: Rc<RefCell<Option<FsError>>> = Rc::new(RefCell::new(None));
            let finish: Cb<()> = {
                let parts = parts.clone();
                let first_err = first_err.clone();
                Box::new(move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ()| {
                    if let Some(e) = first_err.borrow_mut().take() {
                        inflight_exit(w, client, fs, inode);
                        cb(sim, w, Err(e));
                        return;
                    }
                    // Assemble the byte range from the block parts. A read
                    // inside one block is a zero-copy slice of the page; a
                    // multi-block read copies once, into a buffer of its
                    // final length that `Bytes::from` adopts.
                    let out = if nblocks == 1 {
                        let parts = parts.borrow();
                        let data = parts[0].as_ref().expect("all parts fetched");
                        let bstart = first * block_size;
                        let (s, e) = ((offset - bstart) as usize, (end - bstart) as usize);
                        if e <= data.len() {
                            data.slice(s..e)
                        } else {
                            let mut out = Vec::with_capacity(e - s);
                            extend_from_page(&mut out, data, s, e);
                            Bytes::from(out)
                        }
                    } else {
                        let mut out = Vec::with_capacity(len as usize);
                        for (i, part) in parts.borrow().iter().enumerate() {
                            let block = first + i as u64;
                            let data = part.as_ref().expect("all parts fetched");
                            let bstart = block * block_size;
                            let s = offset.max(bstart) - bstart;
                            let e = (end.min(bstart + block_size)) - bstart;
                            extend_from_page(&mut out, data, s as usize, e as usize);
                        }
                        Bytes::from(out)
                    };
                    // Prefetch ramp: observe the last block touched.
                    let depth = w.clients[client.0 as usize]
                        .prefetch
                        .get_mut(&handle)
                        .map(|p| p.observe(last - 1))
                        .unwrap_or(0);
                    let total_blocks = w.fss[fs.0 as usize]
                        .core
                        .inode(inode)
                        .map(|i| i.size().div_ceil(block_size))
                        .unwrap_or(0);
                    let mut ahead_misses = Vec::new();
                    for ahead in 0..u64::from(depth) {
                        let b = last + ahead;
                        if b >= total_blocks {
                            break;
                        }
                        let key = PageKey {
                            fs,
                            inode,
                            block: b,
                        };
                        // Prefetch stays under the token: a block no held
                        // read token covers could be written by another
                        // context without any revocation reaching this one.
                        let c = &w.clients[client.0 as usize];
                        if !c.held_tokens.holds_page(key, false, block_size) {
                            break;
                        }
                        if w.clients[client.0 as usize].pool.contains(key) {
                            continue;
                        }
                        // Count the miss (the uncoalesced path probed the
                        // pool per fetch), then resolve the block address.
                        let _ = w.clients[client.0 as usize].pool.get(key);
                        if let Some(addr) = block_addr(w, key) {
                            ahead_misses.push((key, addr, ()));
                        }
                    }
                    fetch_misses(sim, w, client, ahead_misses, Rc::new(|_, _, _, _| {}));
                    inflight_exit(w, client, fs, inode);
                    cb(sim, w, Ok(out));
                })
            };
            let join = Join::new(nblocks, finish);
            // One block-map resolution for the whole range; cache hits and
            // holes settle inline, misses coalesce into scatter-gather runs.
            let map = w.fss[fs.0 as usize]
                .core
                .block_map(inode, offset, len)
                .unwrap_or_default();
            let mut misses = Vec::new();
            for i in 0..nblocks {
                let key = PageKey {
                    fs,
                    inode,
                    block: first + i as u64,
                };
                if let Some(data) = w.clients[client.0 as usize].pool.get(key) {
                    parts.borrow_mut()[i] = Some(data);
                    join.arrive(sim, w);
                    continue;
                }
                match map.get(i).and_then(|(_, a)| *a) {
                    None => {
                        // Hole or past-EOF: zeros, no I/O.
                        parts.borrow_mut()[i] = Some(w.fss[fs.0 as usize].core.zero_block());
                        join.arrive(sim, w);
                    }
                    Some(addr) => misses.push((key, addr, ())),
                }
            }
            let join_all = join.clone();
            let segment_done: SegmentDone = Rc::new(move |sim, w, keys, r| {
                match r {
                    Ok(data) => {
                        for (key, part) in keys.iter().zip(data) {
                            parts.borrow_mut()[(key.block - first) as usize] = Some(part);
                        }
                    }
                    Err(e) => {
                        first_err.borrow_mut().get_or_insert(e);
                    }
                }
                for _ in 0..keys.len() {
                    join.arrive(sim, w);
                }
            });
            fetch_misses(sim, w, client, misses, segment_done);
            join_all.maybe_done(sim, w);
        }),
    );
}

/// Write `data` at `offset` (write-behind: completes once the pages are
/// dirty in the pool and space/size are recorded at the manager).
///
/// The block allocation and size update are part of `sess`'s write op
/// (reached through `Session::write`): they ride the session's envelope to
/// shard 0 under a session op id, so a retry whose first attempt did
/// execute — the reply was lost, not the request — replays the recorded
/// result from the manager's dedup table instead of running a second size
/// update.
pub(crate) fn write(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    handle: Handle,
    offset: u64,
    data: Bytes,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let client = sess.ctx(w);
    let Some(of) = w.clients[client.0 as usize].handles.get(&handle).cloned() else {
        cb(sim, w, Err(FsError::BadHandle));
        return;
    };
    if !of.flags.writes() {
        cb(sim, w, Err(FsError::ReadOnly));
        return;
    }
    if data.is_empty() {
        cb(sim, w, Ok(()));
        return;
    }
    let Some(end) = offset.checked_add(data.len() as u64) else {
        cb(
            sim,
            w,
            Err(FsError::InvalidArgument(format!(
                "write of {} bytes at offset {offset} ends past u64::MAX",
                data.len()
            ))),
        );
        return;
    };
    if let Err(e) = check_file_size(end) {
        cb(sim, w, Err(e));
        return;
    }
    let (fs, inode) = (of.fs, of.inode);
    let block_size = w.fss[fs.0 as usize].core.config.block_size;
    let cb: Cb<Result<(), FsError>> = Box::new(cb);

    acquire_token(
        sim,
        w,
        client,
        fs,
        inode,
        ByteRange::new(offset, end),
        TokenMode::Write,
        Box::new(move |sim, w, r| {
            if let Err(e) = r {
                cb(sim, w, Err(e));
                return;
            }
            // The token is held: mark the operation in flight so a
            // concurrent revocation waits for us (write atomicity).
            inflight_enter(w, client, fs, inode);
            // Allocation + size update at the manager — block allocation
            // is shard 0's job regardless of namespace partitioning.
            sess.submit_mgr(
                sim,
                w,
                fs,
                0,
                MetaOp::Allocate { inode, offset, end },
                move |sim, w, alloc_result: Result<(), FsError>| {
                    if let Err(e) = alloc_result {
                        inflight_exit(w, client, fs, inode);
                        cb(sim, w, Err(e));
                        return;
                    }
                    // Merge data into pages; partial blocks may need the
                    // old contents first.
                    let first = offset / block_size;
                    let last = end.div_ceil(block_size);
                    let first_err: Rc<RefCell<Option<FsError>>> = Rc::new(RefCell::new(None));
                    let first_err_f = first_err.clone();
                    let finish: Cb<()> = Box::new(move |sim: &mut Sim<GfsWorld>, w, ()| {
                        inflight_exit(w, client, fs, inode);
                        match first_err_f.borrow_mut().take() {
                            Some(e) => cb(sim, w, Err(e)),
                            None => cb(sim, w, Ok(())),
                        }
                    });
                    let join = Join::new((last - first) as usize, finish);
                    join.maybe_done(sim, w);
                    for b in first..last {
                        let bstart = b * block_size;
                        let bend = bstart + block_size;
                        let s = offset.max(bstart);
                        let e = end.min(bend);
                        let slice =
                            data.slice((s - offset) as usize..(e - offset) as usize);
                        let full_cover = s == bstart && e == bend;
                        let key = PageKey {
                            fs,
                            inode,
                            block: b,
                        };
                        let join = join.clone();
                        let join_err = join.clone();
                        let first_err = first_err.clone();
                        let merge_err = first_err.clone();
                        let merge = move |sim: &mut Sim<GfsWorld>,
                                          w: &mut GfsWorld,
                                          old: Option<Bytes>| {
                            // Revocations wait for the write, so only an
                            // expulsion can take its token away; a page
                            // no write token covers must not be cached
                            // dirty, so the write fails instead.
                            let c = &w.clients[client.0 as usize];
                            if !c.held_tokens.holds_page(key, true, block_size) {
                                merge_err.borrow_mut().get_or_insert(FsError::Timeout);
                                join.arrive(sim, w);
                                return;
                            }
                            // A fully covered block dirties the caller's
                            // slice as-is (zero-copy); a partial write
                            // merges into one copy of the old contents
                            // that ends where the old page or the write
                            // ends, whichever is later. Bytes past a
                            // page's end read as zeros, so a small file's
                            // page holds its own bytes, not a whole block.
                            let page = match old {
                                None => slice.clone(),
                                Some(old) => {
                                    let keep = old.len().min(block_size as usize);
                                    let len = keep.max((e - bstart) as usize);
                                    let mut buf = Vec::with_capacity(len);
                                    buf.extend_from_slice(&old[..keep]);
                                    buf.resize(len, 0);
                                    buf[(s - bstart) as usize..(e - bstart) as usize]
                                        .copy_from_slice(&slice);
                                    Bytes::from(buf)
                                }
                            };
                            let evicted = w.clients[client.0 as usize]
                                .pool
                                .insert_dirty(key, page);
                            flush_evicted(sim, w, client, evicted);
                            join.arrive(sim, w);
                        };
                        if full_cover {
                            merge(sim, w, None);
                        } else if let Some(old) = w.clients[client.0 as usize].pool.get(key) {
                            merge(sim, w, Some(old));
                        } else {
                            // Read-modify-write: a failed fetch fails the
                            // write for this block rather than merging into
                            // stale or zeroed contents.
                            fetch_block(
                                sim,
                                w,
                                client,
                                fs,
                                inode,
                                b,
                                Box::new(move |sim, w, r| match r {
                                    Ok(old) => merge(sim, w, Some(old)),
                                    Err(e) => {
                                        first_err.borrow_mut().get_or_insert(e);
                                        join_err.arrive(sim, w);
                                    }
                                }),
                            );
                        }
                    }
                },
            );
        }),
    );
}

/// Flush all dirty pages of the file behind `handle`. The first call
/// after an expulsion discarded dirty pages of the file fails with
/// `FsError::Timeout` (see `Client::lost_writes`), once.
pub fn fsync(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    handle: Handle,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let c = &mut w.clients[client.0 as usize];
    let Some(of) = c.handles.get(&handle).cloned() else {
        cb(sim, w, Err(FsError::BadHandle));
        return;
    };
    let dirty = c.pool.dirty_pages_of(of.fs, of.inode);
    let done: Cb<Result<(), FsError>> = if c.lost_writes.remove(&(of.fs, of.inode)) {
        Box::new(move |sim, w, r| cb(sim, w, r.and(Err(FsError::Timeout))))
    } else {
        Box::new(cb)
    };
    flush_dirty_pages(sim, w, client, dirty, done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fscore::FsConfig;
    use crate::types::{OpenFlags, Owner};
    use crate::world::{FsParams, WorldBuilder};
    use simcore::{Bandwidth, SimDuration};

    /// Two sites over a WAN: SDSC owns the fs; a remote client at "far"
    /// reaches it over a 30 ms link. A local client sits next to the
    /// manager.
    struct TestBed {
        sim: Sim<GfsWorld>,
        w: GfsWorld,
        local: ClientId,
        remote: ClientId,
        /// One session on each context, for the metadata ops.
        ls: Session,
        rs: Session,
    }

    fn bed() -> TestBed {
        let mut b = WorldBuilder::new(42);
        b.key_bits(384);
        let mgr = b.topo().node("sdsc-mgr");
        let loc = b.topo().node("sdsc-client");
        let far = b.topo().node("ncsa-client");
        b.topo().duplex_link(
            loc,
            mgr,
            Bandwidth::gbit(1.0),
            SimDuration::from_micros(50),
            "lan",
        );
        b.topo().duplex_link(
            far,
            mgr,
            Bandwidth::gbit(1.0),
            SimDuration::from_millis(30),
            "wan",
        );
        let sdsc = b.cluster("sdsc.teragrid");
        let ncsa = b.cluster("ncsa.teragrid");
        let _fs = b.filesystem(
            sdsc,
            FsParams::ideal(
                FsConfig::small_test("gpfs-wan"),
                mgr,
                vec![mgr],
                Bandwidth::mbyte(400.0),
                SimDuration::from_micros(300),
            ),
        );
        let local = b.client(sdsc, loc, 256);
        let remote = b.client(ncsa, far, 256);
        let (sim, mut w) = b.build();
        // Wire multi-cluster trust: SDSC grants NCSA; NCSA defines remote.
        let ncsa_key = w.clusters[ncsa.0 as usize].auth.public_key();
        let sdsc_auth = &mut w.clusters[sdsc.0 as usize].auth;
        sdsc_auth.mmauth_add("ncsa.teragrid", ncsa_key);
        sdsc_auth.mmauth_grant("ncsa.teragrid", "gpfs-wan", AccessMode::ReadWrite);
        w.clusters[ncsa.0 as usize].remote_clusters.insert(
            "sdsc.teragrid".into(),
            crate::world::RemoteClusterDef { contact: mgr },
        );
        w.clusters[ncsa.0 as usize].remote_fs.insert(
            "gpfs-wan".into(),
            crate::world::RemoteFsDef {
                cluster: "sdsc.teragrid".into(),
                remote_device: "gpfs-wan".into(),
            },
        );
        let ls = w.open_session(local);
        let rs = w.open_session(remote);
        TestBed {
            sim,
            w,
            local,
            remote,
            ls,
            rs,
        }
    }

    /// Drive the sim to completion and panic on hangs.
    fn run(bed: &mut TestBed) {
        bed.sim.run(&mut bed.w);
    }

    fn owner() -> Owner {
        Owner::local(500, 100)
    }

    /// Shared result capture for callbacks.
    type Slot<T> = Rc<RefCell<Option<T>>>;
    fn slot<T>() -> Slot<T> {
        Rc::new(RefCell::new(None))
    }

    #[test]
    fn meta_ops_vote_shard_heat() {
        // Metadata ops that travel to a manager shard vote subtree heat —
        // otherwise the rebalance policy is blind to the hotspot they
        // create.
        let mut t = bed();
        let ls = t.ls;
        t.w.fss[0].core.shards.set_shards(2);
        // Pin the test top to shard 0 so the one-manager bed still serves
        // it; the vote, not the placement, is under test.
        t.w.fss[0].core.shards.assign("d", 0);
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        ls.mount(&mut t.sim, &mut t.w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            ls.mkdir(sim, w, "/d", owner(), move |sim, w, r| {
                r.unwrap();
                ls.stat(sim, w, "/d", move |_sim, _w, r| {
                    r.unwrap();
                    ok2.set(true);
                });
            });
        });
        run(&mut t);
        assert!(ok.get(), "op chain did not complete");
        assert!(
            t.w.fss[0].core.shards.heat_of("d") >= 2,
            "mkdir + stat must each vote heat, got {}",
            t.w.fss[0].core.shards.heat_of("d")
        );
    }

    #[test]
    fn local_mount_write_read_roundtrip() {
        let mut t = bed();
        let ls = t.ls;
        let done: Slot<Bytes> = slot();
        let d2 = done.clone();
        let local = t.local;
        ls.mount(&mut t.sim, &mut t.w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            ls.open(sim, w, "/hello.txt",
                OpenFlags::ReadWrite,
                owner(),
                move |sim, w, r| {
                    let h = r.unwrap();
                    let payload = Bytes::from_static(b"global file systems for grid computing");
                    let expect = payload.clone();
                    ls.write(sim, w, h, 0, payload, move |sim, w, r| {
                        r.unwrap();
                        read(sim, w, local, h, 0, expect.len() as u64, move |sim, w, r| {
                            let got = r.unwrap();
                            assert_eq!(got, expect);
                            ls.close(sim, w, h, move |_sim, _w, r| r.unwrap());
                            *d2.borrow_mut() = Some(got);
                        });
                    });
                },
            );
        });
        run(&mut t);
        assert!(done.borrow().is_some(), "operation chain did not complete");
    }

    #[test]
    fn cross_block_write_and_readback() {
        let mut t = bed();
        let ls = t.ls;
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        // 200 KB spanning four 64 KiB blocks, written at an unaligned offset.
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let payload = Bytes::from(payload);
        ls.mount(&mut t.sim, &mut t.w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            ls.open(sim, w, "/span.bin",
                OpenFlags::ReadWrite,
                owner(),
                move |sim, w, r| {
                    let h = r.unwrap();
                    let expect = payload.clone();
                    ls.write(sim, w, h, 1000, payload, move |sim, w, r| {
                        r.unwrap();
                        read(sim, w, local, h, 1000, expect.len() as u64, move |sim, w, r| {
                            assert_eq!(r.unwrap(), expect);
                            // Unwritten prefix reads as zeros.
                            read(sim, w, local, h, 0, 1000, move |_s, _w, r| {
                                let z = r.unwrap();
                                assert_eq!(z.len(), 1000);
                                assert!(z.iter().all(|b| *b == 0));
                                ok2.set(true);
                            });
                        });
                    });
                },
            );
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn remote_mount_handshake_and_io() {
        let mut t = bed();
        let (ls, rs) = (t.ls, t.rs);
        let remote = t.remote;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        // Local writes; remote mounts over the WAN and reads the data back.
        ls.mount(&mut t.sim, &mut t.w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            ls.open(sim, w, "/shared.dat",
                OpenFlags::ReadWrite,
                owner(),
                move |sim, w, r| {
                    let h = r.unwrap();
                    let payload = Bytes::from(vec![0x5au8; 100_000]);
                    ls.write(sim, w, h, 0, payload, move |sim, w, r| {
                        r.unwrap();
                        ls.close(sim, w, h, move |sim, w, r| {
                            r.unwrap();
                            rs.mount(
                                sim,
                                w,
                                "gpfs-wan",
                                AccessMode::ReadWrite,
                                move |sim, w, r| {
                                    r.unwrap();
                                    rs.open(sim, w, "/shared.dat",
                                        OpenFlags::Read,
                                        owner(),
                                        move |sim, w, r| {
                                            let h = r.unwrap();
                                            read(sim, w, remote, h, 0, 100_000, move |_s, _w, r| {
                                                let got = r.unwrap();
                                                assert_eq!(got.len(), 100_000);
                                                assert!(got.iter().all(|b| *b == 0x5a));
                                                ok2.set(true);
                                            });
                                        },
                                    );
                                },
                            );
                        });
                    });
                },
            );
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn readonly_grant_rejects_writes_at_mount_and_op() {
        let mut t = bed();
        let rs = t.rs;
        // Downgrade the grant to read-only (PTF 2 behaviour).
        let sdsc = t.w.cluster_by_name("sdsc.teragrid").unwrap();
        t.w.clusters[sdsc.0 as usize].auth.mmauth_grant(
            "ncsa.teragrid",
            "gpfs-wan",
            AccessMode::ReadOnly,
        );
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        // RW mount must fail; RO mount succeeds but write-opens fail.
        rs.mount(
            &mut t.sim,
            &mut t.w,
            "gpfs-wan",
            AccessMode::ReadWrite,
            move |sim, w, r| {
                assert!(matches!(r, Err(FsError::AuthFailed(_))));
                rs.mount(sim, w, "gpfs-wan", AccessMode::ReadOnly, move |sim, w, r| {
                    r.unwrap();
                    rs.open(sim, w, "/new.dat",
                        OpenFlags::Write,
                        owner(),
                        move |_s, _w, r| {
                            assert_eq!(r.unwrap_err(), FsError::ReadOnly);
                            ok2.set(true);
                        },
                    );
                });
            },
        );
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn token_revocation_flushes_writer() {
        let mut t = bed();
        let (ls, rs) = (t.ls, t.rs);
        let (a, b_) = (t.local, t.remote);
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        ls.mount(&mut t.sim, &mut t.w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            rs.mount(sim, w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
                r.unwrap();
                ls.open(sim, w, "/contested", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
                    let ha = r.unwrap();
                    let payload = Bytes::from(vec![7u8; 65536]);
                    // A writes but does NOT fsync: data is dirty in A's pool.
                    ls.write(sim, w, ha, 0, payload, move |sim, w, r| {
                        r.unwrap();
                        // B reads: the manager must revoke A's write token,
                        // forcing A's flush, before B's read proceeds.
                        rs.open(sim, w, "/contested", OpenFlags::Read, owner(), move |sim, w, r| {
                            let hb = r.unwrap();
                            read(sim, w, b_, hb, 0, 65536, move |_s, w, r| {
                                let got = r.unwrap();
                                assert!(got.iter().all(|x| *x == 7), "B saw unflushed data");
                                // A's token is gone.
                                let fs = FsId(0);
                                let c = &w.clients[a.0 as usize];
                                assert!(!c.held_tokens.contains_key(&(fs, InodeId(1))));
                                ok2.set(true);
                            });
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn cache_hits_on_reread() {
        let mut t = bed();
        let ls = t.ls;
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        ls.mount(&mut t.sim, &mut t.w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            ls.open(sim, w, "/c", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
                let h = r.unwrap();
                ls.write(sim, w, h, 0, Bytes::from(vec![1u8; 65536]), move |sim, w, r| {
                    r.unwrap();
                    read(sim, w, local, h, 0, 65536, move |sim, w, r| {
                        r.unwrap();
                        let hits_before = w.clients[local.0 as usize].pool.hits;
                        read(sim, w, local, h, 0, 65536, move |_s, w, r| {
                            r.unwrap();
                            assert!(w.clients[local.0 as usize].pool.hits > hits_before);
                            ok2.set(true);
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn sequential_reads_trigger_prefetch() {
        let mut t = bed();
        let ls = t.ls;
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        ls.mount(&mut t.sim, &mut t.w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            ls.open(sim, w, "/seq", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
                let h = r.unwrap();
                // 1 MB file = 16 blocks of 64 KiB.
                ls.write(sim, w, h, 0, Bytes::from(vec![9u8; 1 << 20]), move |sim, w, r| {
                    r.unwrap();
                    fsync(sim, w, local, h, move |sim, w, r| {
                        r.unwrap();
                        // Drop cache to force fresh fetches.
                        w.clients[local.0 as usize].pool.invalidate_file(FsId(0), InodeId(1));
                        let bs = 65536u64;
                        read(sim, w, local, h, 0, bs, move |sim, w, r| {
                            r.unwrap();
                            read(sim, w, local, h, bs, bs, move |sim, w, r| {
                                r.unwrap();
                                read(sim, w, local, h, 2 * bs, bs, move |sim, _w, r| {
                                    r.unwrap();
                                    // After three sequential block reads the
                                    // prefetcher must be fetching ahead.
                                    sim.after(SimDuration::from_secs(1), move |_s, w: &mut GfsWorld| {
                                        let key = PageKey { fs: FsId(0), inode: InodeId(1), block: 4 };
                                        assert!(
                                            w.clients[local.0 as usize].pool.contains(key),
                                            "block 4 was not prefetched"
                                        );
                                        ok2.set(true);
                                    });
                                });
                            });
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn metadata_ops_over_rpc() {
        let mut t = bed();
        let ls = t.ls;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        ls.mount(&mut t.sim, &mut t.w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            ls.mkdir(sim, w, "/data", owner(), move |sim, w, r| {
                r.unwrap();
                ls.open(sim, w, "/data/f1", OpenFlags::Write, owner(), move |sim, w, r| {
                    let h = r.unwrap();
                    ls.write(sim, w, h, 0, Bytes::from(vec![1u8; 100]), move |sim, w, r| {
                        r.unwrap();
                        ls.close(sim, w, h, move |sim, w, r| {
                            r.unwrap();
                            ls.stat(sim, w, "/data/f1", move |sim, w, r| {
                                let st = r.unwrap();
                                assert_eq!(st.size, 100);
                                ls.readdir(sim, w, "/data", move |sim, w, r| {
                                    assert_eq!(r.unwrap(), vec!["f1".to_string()]);
                                    ls.unlink(sim, w, "/data/f1", move |sim, w, r| {
                                        r.unwrap();
                                        ls.stat(sim, w, "/data/f1", move |_s, _w, r| {
                                            assert!(matches!(r, Err(FsError::NotFound(_))));
                                            ok2.set(true);
                                        });
                                    });
                                });
                            });
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn unlink_and_rename_are_visible_across_contexts_and_spellings() {
        // The remote context's stats warm the manager's path cache; entries
        // the local context removes or renames must stop resolving there.
        // An alias spelling — `x` under cwd `/d/`, or `/d//x` — must not
        // keep serving a dead inode once `/d/x` is unlinked and re-created.
        let mut t = bed();
        let (ls, rs) = (t.ls, t.rs);
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        let create = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, path: &str, then: Cb<()>| {
            ls.open(sim, w, path, OpenFlags::Write, owner(), move |sim, w, r| {
                let h = r.unwrap();
                ls.close(sim, w, h, move |sim, w, r| {
                    r.unwrap();
                    then(sim, w, ());
                });
            });
        };
        ls.mount(&mut t.sim, &mut t.w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            ls.mkdir(sim, w, "/d", owner(), move |sim, w, r| {
                r.unwrap();
                create(sim, w, "/d/x", Box::new(move |sim, w, ()| {
                    rs.mount(sim, w, "gpfs-wan", AccessMode::ReadOnly, move |sim, w, r| {
                        r.unwrap();
                        rs.chdir(w, "/d/");
                        // Warm the cache through both spellings.
                        rs.stat(sim, w, "x", move |sim, w, r| {
                            let old = r.unwrap().inode;
                            rs.stat(sim, w, "/d//x", move |sim, w, r| {
                                assert_eq!(r.unwrap().inode, old);
                                ls.unlink(sim, w, "/d/x", move |sim, w, r| {
                                    r.unwrap();
                                    rs.stat(sim, w, "/d/x", move |sim, w, r| {
                                        assert!(
                                            matches!(r, Err(FsError::NotFound(_))),
                                            "remote resolved an unlinked entry: {r:?}"
                                        );
                                        create(sim, w, "/d/x", Box::new(move |sim, w, ()| {
                                            rs.stat(sim, w, "x", move |sim, w, r| {
                                                let new = r.expect("re-created file must resolve through the alias");
                                                assert_ne!(new.inode, old);
                                                rs.stat(sim, w, "/d//x", move |sim, w, r| {
                                                    assert_eq!(r.unwrap().inode, new.inode);
                                                    create(sim, w, "/d/y", Box::new(move |sim, w, ()| {
                                                        rs.stat(sim, w, "/d/y", move |sim, w, r| {
                                                            let before = r.unwrap();
                                                            ls.rename(sim, w, "/d/y", "/d/z", move |sim, w, r| {
                                                                r.unwrap();
                                                                rs.stat(sim, w, "y", move |sim, w, r| {
                                                                    assert!(
                                                                        matches!(r, Err(FsError::NotFound(_))),
                                                                        "remote resolved a renamed-away entry: {r:?}"
                                                                    );
                                                                    rs.stat(sim, w, "/d/z/", move |_s, _w, r| {
                                                                        assert_eq!(r.unwrap().inode, before.inode);
                                                                        ok2.set(true);
                                                                    });
                                                                });
                                                            });
                                                        });
                                                    }));
                                                });
                                            });
                                        }));
                                    });
                                });
                            });
                        });
                    });
                }));
            });
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn read_past_eof_is_short() {
        let mut t = bed();
        let ls = t.ls;
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        ls.mount(&mut t.sim, &mut t.w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            ls.open(sim, w, "/short", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
                let h = r.unwrap();
                ls.write(sim, w, h, 0, Bytes::from(vec![3u8; 100]), move |sim, w, r| {
                    r.unwrap();
                    read(sim, w, local, h, 50, 1000, move |sim, w, r| {
                        assert_eq!(r.unwrap().len(), 50);
                        read(sim, w, local, h, 200, 10, move |_s, _w, r| {
                            assert_eq!(r.unwrap().len(), 0);
                            ok2.set(true);
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn wan_latency_slows_remote_ops() {
        // The same op sequence takes longer from the 30 ms-away client than
        // from the local one — the paper's latency question, in miniature.
        let mut t = bed();
        let (ls, rs) = (t.ls, t.rs);
        let remote = t.remote;
        let t_local = Rc::new(Cell::new(0u64));
        let t_remote = Rc::new(Cell::new(0u64));
        let (tl, tr) = (t_local.clone(), t_remote.clone());
        ls.mount(&mut t.sim, &mut t.w, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            let start = sim.now();
            ls.open(sim, w, "/lat", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
                let h = r.unwrap();
                ls.write(sim, w, h, 0, Bytes::from(vec![1u8; 65536]), move |sim, w, r| {
                    r.unwrap();
                    ls.close(sim, w, h, move |sim, w, r| {
                        r.unwrap();
                        tl.set(sim.now().since(start).as_nanos());
                        // Now remote does a read of the same file.
                        rs.mount(sim, w, "gpfs-wan", AccessMode::ReadOnly, move |sim, w, r| {
                            r.unwrap();
                            let start_r = sim.now();
                            rs.open(sim, w, "/lat", OpenFlags::Read, owner(), move |sim, w, r| {
                                let h = r.unwrap();
                                read(sim, w, remote, h, 0, 65536, move |sim, _w, r| {
                                    r.unwrap();
                                    tr.set(sim.now().since(start_r).as_nanos());
                                });
                            });
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(t_local.get() > 0 && t_remote.get() > 0);
        assert!(
            t_remote.get() > t_local.get(),
            "remote ops ({}) should be slower than local ({})",
            t_remote.get(),
            t_local.get()
        );
        // But the WAN read still completes in well under a second — the
        // paper's core claim that latency is survivable.
        assert!(t_remote.get() < 1_000_000_000);
    }

    #[test]
    fn bad_handle_errors() {
        let mut t = bed();
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        read(&mut t.sim, &mut t.w, local, Handle(999), 0, 10, move |_s, _w, r| {
            assert_eq!(r.unwrap_err(), FsError::BadHandle);
            ok2.set(true);
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn unmounted_device_errors() {
        let mut t = bed();
        let ls = t.ls;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        // Bound to a device the context never mounted.
        ls.bind_device(&mut t.w, "gpfs-wan");
        ls.stat(&mut t.sim, &mut t.w, "/x", move |_s, _w, r| {
            assert!(matches!(r, Err(FsError::NotMounted(_))));
            ok2.set(true);
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn unified_mount_dispatches_and_errors_typed() {
        // Unknown device: typed NotMounted, no panic.
        let mut t = bed();
        let local = t.local;
        let remote = t.remote;
        let ok = Rc::new(Cell::new(0u32));
        let ok2 = ok.clone();
        mount(&mut t.sim, &mut t.w, local, "no-such-dev", AccessMode::ReadWrite, move |_s, _w, r| {
            assert!(matches!(r, Err(FsError::NotMounted(_))));
            ok2.set(ok2.get() + 1);
        });
        // One call surface dispatches both ways: local device on the SDSC
        // client, mmremotefs device on the NCSA client.
        let ok3 = ok.clone();
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |_s, w, r| {
            r.unwrap();
            assert!(w.clients[local.0 as usize].mounts["gpfs-wan"].session_key.is_none());
            ok3.set(ok3.get() + 1);
        });
        let ok4 = ok.clone();
        mount(&mut t.sim, &mut t.w, remote, "gpfs-wan", AccessMode::ReadWrite, move |_s, w, r| {
            r.unwrap();
            assert_eq!(w.clients[remote.0 as usize].mounts["gpfs-wan"].mode, AccessMode::ReadWrite);
            ok4.set(ok4.get() + 1);
        });
        run(&mut t);
        assert_eq!(ok.get(), 3);
    }

    #[test]
    fn unexported_device_fails_auth_not_panics() {
        let mut t = bed();
        let remote = t.remote;
        t.w.fss[0].exported = false;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        mount(&mut t.sim, &mut t.w, remote, "gpfs-wan", AccessMode::ReadWrite, move |_s, _w, r| {
            assert!(matches!(r, Err(FsError::AuthFailed(_))));
            ok2.set(true);
        });
        run(&mut t);
        assert!(ok.get());
    }

}
