//! The simulation world: network + storage + clusters + filesystems +
//! clients, composed into one type driven by `simcore::Sim`.
//!
//! A [`GfsWorld`] is built once per scenario via [`WorldBuilder`] and then
//! mutated only through simulation events. Scenario- or benchmark-specific
//! state rides in the `ext` slot so callbacks can reach it.

use crate::cache::{PagePool, PrefetchState};
use crate::fscore::{FsConfig, FsCore};
use crate::session::Outcome;
use crate::tokens::{TokenCache, TokenManager};
use crate::types::{ClientId, ClusterId, FsError, FsId, Handle, InodeId, NsdId, OpenFlags};
use gfs_auth::handshake::{AccessMode, ClusterAuth};
use rand::rngs::StdRng;
use simcore::{det_rng, Bandwidth, Sim, SimDuration, SimTime};
use simnet::{NetWorld, Network, NodeId, Topology, TopologyBuilder};
use simcore::fxhash::{FxFinalBuildHasher, FxFinalHashMap, FxHashMap};
use simsan::{Array, ArraySpec};
use std::any::Any;
use std::collections::{BTreeMap, HashSet};

/// How an NSD's physical service time is modeled.
#[derive(Clone, Debug)]
pub enum NsdBacking {
    /// Detailed: requests go through an [`Array`] queue model.
    Array {
        /// Index into `GfsWorld::arrays`.
        array: usize,
        /// RAID set within the array.
        set: u32,
    },
    /// Idealized: a serialization queue at `rate` with fixed `latency` —
    /// used by tests and by scenarios whose storage is already represented
    /// as flow-graph links.
    Ideal {
        /// Service rate, bytes/sec.
        rate: f64,
        /// Fixed per-request latency.
        latency: SimDuration,
    },
}

/// Runtime queue state per NSD.
#[derive(Clone, Debug)]
pub struct NsdState {
    /// Service model.
    pub backing: NsdBacking,
    /// Busy-until for the Ideal model's serialization queue.
    pub busy_until: SimTime,
}

impl NsdState {
    /// Compute the service completion time of one request at `now`.
    pub fn serve(&mut self, arrays: &mut [Array], now: SimTime, kind: simsan::IoKind, offset: u64, bytes: u64) -> SimTime {
        match self.backing {
            NsdBacking::Array { array, set } => arrays[array].submit(now, set, kind, offset, bytes),
            NsdBacking::Ideal { rate, latency } => {
                let start = self.busy_until.max(now);
                let done = start + latency + SimDuration::from_secs_f64(bytes as f64 / rate);
                self.busy_until = done;
                done
            }
        }
    }
}

/// The namespace manager's failover state: which node is currently acting
/// as manager, plus the write-ahead op log that makes manager crashes
/// survivable.
///
/// The namespace itself ([`FsCore`]) models GPFS shared-disk metadata — it
/// is not lost when the manager node dies. What *is* lost is the manager's
/// volatile duplicate-suppression table: the record of which client op ids
/// have already been applied, which is what lets a client safely retry a
/// mutation whose reply was lost in the crash. Every acknowledged mutation
/// is therefore appended to a WAL at application time; recovery re-reads
/// the log (charged per entry, see
/// [`ProtocolCosts::manager_replay_per_op`]) to rebuild the table before
/// the new manager starts answering. Token state survives for the same
/// reason real GPFS recovers it: the surviving clients' token mirrors are
/// replayed to the new manager during the same window.
pub struct ManagerState {
    /// Node currently acting as namespace manager. Starts as the
    /// configured [`FsInstance::manager_node`]; changes on failover.
    pub acting: NodeId,
    /// Manager incarnation, bumped each time recovery completes.
    pub epoch: u64,
    /// True between a manager crash and the end of WAL replay; requests
    /// arriving in this window are dropped (clients retry).
    pub recovering: bool,
    /// Write-ahead log: `(op id, recorded outcome)` per acknowledged
    /// mutation, in application order. Survives crashes.
    wal: Vec<(u64, Outcome)>,
    /// Volatile dedup table: op id → recorded outcome. Wiped by a crash,
    /// rebuilt from the WAL by recovery. Keyed by composed op ids (actor
    /// in the high bits, sequence low), so it needs the finalizing hasher
    /// — plain multiplicative Fx collapses this population onto a few
    /// buckets once sessions number in the thousands.
    applied: FxFinalHashMap<u64, Outcome>,
    /// Ids retired (see [`Self::retire`]) whose WAL records compaction has
    /// not reclaimed yet. Kept beside the WAL and, like it, survives a
    /// crash: recovery skips them, so the rebuilt table holds exactly what
    /// a retry could still ask for.
    retired: HashSet<u64, FxFinalBuildHasher>,
    /// Total WAL entries replayed across all recoveries (observability).
    pub replayed: u64,
    /// The acting manager's own path → inode cache, used when applying
    /// envelope ops (`crate::session`). The manager applies every
    /// namespace mutation itself and can therefore invalidate *exactly*:
    /// unlink removes the one dead path from every shard's cache (a shard
    /// that owned the subtree before a migration may still hold it; an
    /// unlinked directory is empty, so no cached descendant can exist —
    /// each was removed at its own unlink), rename moves a whole subtree
    /// and clears wholesale, and create/mkdir can never make a cached
    /// positive mapping wrong. Exact invalidation needs one spelling per
    /// entry, so keys are canonical absolute paths (no repeated or
    /// trailing `/`; see `Session::resolve`). Volatile: wiped on crash.
    paths: FxHashMap<Box<str>, crate::types::InodeId>,
    /// Service queue head for fan-in envelopes: the instant the manager's
    /// CPU frees up. Arriving envelopes start at
    /// `max(now, busy_until)` and run for
    /// `ops × ProtocolCosts::manager_op_service`, FIFO in arrival order.
    /// Volatile — a crash empties the queue (the in-flight envelopes die
    /// with the node and their watchdogs retry against the successor).
    pub busy_until: SimTime,
    /// Total envelope service time charged to this manager (sum of the
    /// `busy_until` advances) — utilization telemetry for the storm
    /// debug output; no behavior reads it.
    pub service_ns: u64,
}

impl ManagerState {
    /// Fresh state with `acting` as the configured manager.
    pub fn new(acting: NodeId) -> Self {
        ManagerState {
            acting,
            epoch: 0,
            recovering: false,
            wal: Vec::new(),
            applied: FxFinalHashMap::default(),
            retired: HashSet::default(),
            replayed: 0,
            paths: FxHashMap::default(),
            busy_until: SimTime::from_nanos(0),
            service_ns: 0,
        }
    }

    /// Probe the manager's path cache (see the `paths` field).
    pub fn cached_path(&self, path: &str) -> Option<crate::types::InodeId> {
        self.paths.get(path).copied()
    }

    /// Resolve `path` through the path cache, filling it on a miss.
    pub(crate) fn lookup(&mut self, core: &FsCore, path: &str) -> Result<InodeId, FsError> {
        if let Some(id) = self.cached_path(path) {
            core.meta_bump_resolve();
            return Ok(id);
        }
        let id = core.lookup(path)?;
        self.cache_path(path, id);
        Ok(id)
    }

    /// Remember a successful resolution.
    pub fn cache_path(&mut self, path: &str, id: crate::types::InodeId) {
        self.paths.insert(path.into(), id);
    }

    /// Exact invalidation: the entry at `path` is gone (unlink).
    pub fn uncache_path(&mut self, path: &str) {
        if !self.paths.is_empty() {
            self.paths.remove(path);
        }
    }

    /// Wholesale invalidation: a subtree moved (rename).
    pub fn uncache_all_paths(&mut self) {
        self.paths.clear();
    }

    /// Every cached `(path, inode)` pair, in no particular order — for
    /// coherence audits against the live tree.
    pub fn cached_paths(&self) -> impl Iterator<Item = (&str, crate::types::InodeId)> + '_ {
        self.paths.iter().map(|(p, id)| (p.as_ref(), *id))
    }

    /// The recorded outcome of an already-applied op, if any.
    pub fn applied_result(&self, op_id: u64) -> Option<&Outcome> {
        self.applied.get(&op_id)
    }

    /// The dedup table, in op-id order: every outcome a retry could still
    /// ask for.
    pub fn dedup_records(&self) -> BTreeMap<u64, &Outcome> {
        self.applied.iter().map(|(&id, r)| (id, r)).collect()
    }

    /// Record a mutation's outcome: WAL append + dedup-table insert.
    pub fn record(&mut self, op_id: u64, outcome: Outcome) {
        self.wal.push((op_id, outcome.clone()));
        self.applied.insert(op_id, outcome);
    }

    /// Number of ops in the WAL (drives the replay-time charge).
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// Retire the recorded outcomes in the op-id range `lo..=hi`: each
    /// reached its session (see `session::FanIn::retire`), so no retry can
    /// ever ask for it again. Dropping acked
    /// history keeps the dedup table O(live sessions) instead of O(total
    /// ops) — the retirement-floor scheme real fan-in managers use. Every
    /// client request a manager records carries a session op id (bit 63),
    /// so every one of them is retired this way; only the bit-62
    /// migration records are never passed here.
    pub fn retire(&mut self, lo: u64, hi: u64) {
        for id in lo..=hi {
            if self.applied.remove(&id).is_some() {
                self.retired.insert(id);
            }
        }
        // Compact once dead entries dominate the log — the checkpoint+
        // truncate a real manager performs when its acked floor advances.
        // The WAL stays within 2x its live size, bounding both memory and
        // the modeled replay charge for session-heavy workloads.
        let dead = self.retired.len();
        if dead >= 1024 && dead * 2 >= self.wal.len() {
            let applied = &self.applied;
            self.wal.retain(|(id, _)| applied.contains_key(id));
            self.retired.clear();
        }
    }

    /// The manager node died: volatile state is gone.
    pub fn crash(&mut self) {
        self.applied.clear();
        self.paths.clear();
        self.busy_until = SimTime::from_nanos(0);
        self.recovering = true;
    }

    /// Recovery completed on `new_acting`: rebuild the dedup table from
    /// the WAL (the observable replay), skipping retired records, and start
    /// answering again. Returns the number of records replayed — the whole
    /// log is read.
    pub fn recover(&mut self, new_acting: NodeId) -> u64 {
        for (op, r) in &self.wal {
            if !self.retired.contains(op) {
                self.applied.insert(*op, r.clone());
            }
        }
        let n = self.wal.len() as u64;
        self.acting = new_acting;
        self.recovering = false;
        self.epoch += 1;
        self.replayed += n;
        n
    }
}

/// One filesystem instance: core state plus its serving infrastructure.
pub struct FsInstance {
    /// On-disk state.
    pub core: FsCore,
    /// Byte-range token manager (runs on the manager node).
    pub tokens: TokenManager,
    /// Recalls under way: token revocations (every acquire that conflicts
    /// with one waits for it, see
    /// [`crate::tokens::AcquireOutcome::awaited`]) and subtree-lease
    /// breaks.
    pub recalls: crate::client::Recalls,
    /// Configured (home) filesystem/token/configuration manager node.
    /// Shard 0's home; also the token/configuration manager and the target
    /// of mount handshakes and data-path control RPCs.
    pub manager_node: NodeId,
    /// Namespace-manager shards (acting node, WAL, dedup table — one
    /// [`ManagerState`] per cooperating manager instance). The namespace is
    /// partitioned by top-level subtree ([`crate::fscore::ShardMap`]);
    /// shard 0 additionally owns the root and every non-namespace manager
    /// role. Length 1 reproduces the single-manager world exactly.
    pub mgrs: Vec<ManagerState>,
    /// Per-site subtree leases: top-level subtree → the mount context
    /// currently delegated to run its metadata ops locally. Granted by the
    /// owning shard; recalled, like a token, when any other context
    /// touches the subtree.
    pub leases: BTreeMap<Box<str>, ClientId>,
    /// Mount contexts expelled because no send of a recall (token or
    /// lease) reached them for [`ProtocolCosts::lease_break_timeout`].
    /// Their leases and tokens are force-released; their next manager
    /// contact re-admits them.
    pub expelled: std::collections::BTreeSet<ClientId>,
    /// Subtree leases granted (observability).
    pub lease_grants: u64,
    /// Recalls of subtree leases started (observability).
    pub lease_breaks: u64,
    /// Holders expelled after a recall no send of which reached them for
    /// [`ProtocolCosts::lease_break_timeout`].
    pub expulsions: u64,
    /// Expelled contexts re-admitted on their next manager contact.
    pub readmissions: u64,
    /// Namespace ops that spanned two manager shards (two-phase commit:
    /// coordinator + participant each charged and journaled).
    pub cross_shard_ops: u64,
    /// Metadata ops served by a site-local lease delegate instead of a
    /// manager envelope.
    pub delegated_ops: u64,
    /// Journaled delegate mutations replayed to a manager shard as bulk
    /// reconcile envelopes on lease surrender/break (counted once per
    /// journal entry applied at the manager; dedup replays don't recount).
    pub reconcile_ops: u64,
    /// A subtree-authority migration is mid-drain (planned, not yet
    /// committed). Guards the live rebalance policy against double-planning
    /// while queued envelopes flush.
    pub migrating: bool,
    /// Sequence for migration WAL record ids (bit 62 namespace — disjoint
    /// from the bit-63 session op ids, the only other ids a manager
    /// records).
    pub migration_seq: u64,
    /// The owning (serving) cluster.
    pub owning_cluster: ClusterId,
    /// NSD server nodes; NSD `i` is served by `nsd_servers[i % len]`.
    pub nsd_servers: Vec<NodeId>,
    /// Optional storage pseudo-nodes behind each server (farm-attached
    /// links); when present, streaming flows terminate there so media
    /// capacity participates in the bottleneck analysis. Parallel to
    /// `nsd_servers`; empty means "use the server node itself".
    pub storage_nodes: Vec<NodeId>,
    /// Per-NSD service state (same length as `core.config.nsd_count`).
    pub nsds: Vec<NsdState>,
    /// Whether remote clusters may mount it (any grant required too).
    pub exported: bool,
    /// NSD server nodes currently marked failed; requests route to the
    /// next healthy server in the ring (GPFS primary/backup NSD serving).
    pub down_servers: std::collections::BTreeSet<NodeId>,
    /// Cross-site replica catalog ([`crate::replica`]). Empty (inert) in
    /// every world that does not attach replica sites — the read path
    /// takes a single early-return and stays byte-identical to the
    /// single-home data path.
    pub replicas: crate::replica::ReplicaCatalog,
}

impl FsInstance {
    /// The server node responsible for an NSD: its home server, or —
    /// when that server is failed — the next healthy one in the ring.
    /// `None` when every server is down (the filesystem is unavailable,
    /// as it would be in GPFS once quorum of NSD servers is lost).
    pub fn try_server_of(&self, nsd: NsdId) -> Option<NodeId> {
        let n = self.nsd_servers.len();
        let start = nsd.0 as usize % n;
        (0..n)
            .map(|k| self.nsd_servers[(start + k) % n])
            .find(|cand| !self.down_servers.contains(cand))
    }

    /// Mark an NSD server failed (its NSDs fail over to the ring).
    pub fn fail_server(&mut self, node: NodeId) {
        self.down_servers.insert(node);
    }

    /// Bring a failed server back.
    pub fn restore_server(&mut self, node: NodeId) {
        self.down_servers.remove(&node);
    }

    /// Number of cooperating namespace-manager shards.
    pub fn shard_count(&self) -> u32 {
        self.mgrs.len() as u32
    }

    /// The configured home node of a manager shard: shard 0 lives on the
    /// filesystem's manager node; higher shards spread round-robin over the
    /// NSD servers (so four shards on a four-server farm each get their own
    /// node).
    pub fn manager_home(&self, shard: u32) -> NodeId {
        if shard == 0 || self.nsd_servers.is_empty() {
            self.manager_node
        } else {
            self.nsd_servers[shard as usize % self.nsd_servers.len()]
        }
    }

    /// Is `shard`'s acting namespace manager able to answer right now?
    /// False while the acting node is down or WAL replay is in progress —
    /// requests in that window are dropped and clients ride their retry
    /// timers through it.
    pub fn manager_available(&self, shard: u32) -> bool {
        let mgr = &self.mgrs[shard as usize];
        !mgr.recovering && !self.down_servers.contains(&mgr.acting)
    }

    /// Does `node` answer as `shard`'s namespace manager right now? A
    /// request that reaches a crashed, recovering or superseded manager is
    /// dropped on arrival; the client's watchdog is how it learns.
    pub fn manager_answers(&self, shard: u32, node: NodeId) -> bool {
        self.mgrs[shard as usize].acting == node && self.manager_available(shard)
    }

    /// The next healthy server in the ring to take over as namespace
    /// manager for `shard`, preferring the shard's configured home node.
    pub fn manager_candidate(&self, shard: u32) -> Option<NodeId> {
        std::iter::once(self.manager_home(shard))
            .chain(self.nsd_servers.iter().copied())
            .find(|n| !self.down_servers.contains(n))
    }

    /// Resolve the manager endpoint of `shard` for a client request.
    ///
    /// When the acting manager is dead but no timed recovery is underway —
    /// a direct [`FsInstance::fail_server`] with no fault-plan bookkeeping
    /// — a new acting manager is elected on the spot, modeling GPFS's
    /// configuration manager reassigning the fs-manager role
    /// instantaneously. Fault-plan crashes instead go through
    /// [`ManagerState::crash`] + WAL replay, and requests during that
    /// window keep targeting the dead node (and time out) until recovery
    /// finishes.
    pub fn manager_endpoint(&mut self, shard: u32) -> NodeId {
        let down = self
            .down_servers
            .contains(&self.mgrs[shard as usize].acting);
        if !self.mgrs[shard as usize].recovering && down {
            if let Some(c) = self.manager_candidate(shard) {
                let mgr = &mut self.mgrs[shard as usize];
                mgr.crash();
                mgr.recover(c);
            }
        }
        self.mgrs[shard as usize].acting
    }

    /// The streaming endpoint behind server slot `i`: the storage
    /// pseudo-node when one was attached, otherwise the server itself.
    pub fn stream_endpoint(&self, i: usize) -> NodeId {
        self.storage_nodes
            .get(i)
            .copied()
            .unwrap_or(self.nsd_servers[i % self.nsd_servers.len()])
    }
}

/// An `mmremotecluster` entry on the importing side.
#[derive(Clone, Debug)]
pub struct RemoteClusterDef {
    /// Contact nodes used for authentication (we keep one).
    pub contact: NodeId,
}

/// An `mmremotefs` entry: local device name → remote (cluster, device).
#[derive(Clone, Debug)]
pub struct RemoteFsDef {
    /// Remote cluster name.
    pub cluster: String,
    /// Device name in the remote cluster.
    pub remote_device: String,
}

/// One GPFS cluster (administrative domain).
pub struct Cluster {
    /// Its id.
    pub id: ClusterId,
    /// Its name, e.g. `"sdsc.teragrid"`.
    pub name: String,
    /// `mmauth` state: keypair, grants, cipher policy.
    pub auth: ClusterAuth,
    /// `mmremotecluster` entries.
    pub remote_clusters: BTreeMap<String, RemoteClusterDef>,
    /// `mmremotefs` entries.
    pub remote_fs: BTreeMap<String, RemoteFsDef>,
}

/// A mounted filesystem at a client.
#[derive(Clone, Debug)]
pub struct Mount {
    /// Which filesystem.
    pub fs: FsId,
    /// Effective access.
    pub mode: AccessMode,
    /// Session key when `cipherList` encryption is active.
    pub session_key: Option<Vec<u8>>,
}

/// An open file at a client.
#[derive(Clone, Debug)]
pub struct OpenFile {
    /// Filesystem.
    pub fs: FsId,
    /// Inode.
    pub inode: InodeId,
    /// Open mode.
    pub flags: OpenFlags,
    /// Path (for diagnostics).
    pub path: String,
}

/// One mounting node.
pub struct Client {
    /// Its id.
    pub id: ClientId,
    /// Where it sits in the topology.
    pub node: NodeId,
    /// Its administrative domain.
    pub cluster: ClusterId,
    /// Block cache.
    pub pool: PagePool,
    /// Mounted devices by local device name.
    pub mounts: BTreeMap<String, Mount>,
    /// Open handles.
    pub handles: BTreeMap<Handle, OpenFile>,
    /// Prefetch detector per handle.
    pub prefetch: BTreeMap<Handle, PrefetchState>,
    /// Client-side mirror of held tokens: every grant the manager gave
    /// this context and has not revoked, kept past close.
    pub held_tokens: TokenCache,
    /// Recalls (token or lease) this context is working on, by `(fs,
    /// recall id)`: a repeated send of one of them is ignored, one of a
    /// recall already finished here is answered with its ack again.
    pub recalling: std::collections::BTreeSet<(FsId, u64)>,
    /// Files whose dirty pages an expulsion discarded: the next `fsync`
    /// or close of each fails once with [`crate::types::FsError::Timeout`],
    /// so the writer learns its bytes never reached the disk.
    pub lost_writes: std::collections::BTreeSet<(FsId, InodeId)>,
    /// Operations currently applying data under a held token, per inode.
    /// Token recalls wait while this is nonzero — GPFS's daemon likewise
    /// completes in-flight operations before honouring a revoke, which is
    /// what makes individual writes atomic.
    pub inflight: BTreeMap<(FsId, InodeId), u32>,
    /// Client-side mirror of held subtree leases: `(fs, top-level
    /// subtree)`. While an entry is present, this context's metadata ops
    /// under the subtree run against the local delegate (no manager
    /// round-trip). Cleared when a recall of the lease lands — or
    /// wholesale when the lease term lapses during an expulsion.
    pub leases: std::collections::BTreeSet<(FsId, Box<str>)>,
    /// Service queue head of the local lease delegate (the site-local
    /// metadata server a leased subtree's ops run through). Same FIFO
    /// model as [`ManagerState::busy_until`].
    pub delegate_busy_until: SimTime,
    /// Delegate ops currently applying. Lease recalls and surrenders wait
    /// while this is nonzero, exactly like token recalls waiting out
    /// [`Client::inflight`].
    pub delegate_inflight: u32,
    /// Writeback delegate journal: every mutation a leased subtree applied
    /// locally, in application order, awaiting reconciliation with the
    /// owning manager shard. Replayed as bulk envelopes (through the
    /// manager dedup table, so retries stay exactly-once) on lease
    /// surrender or recall; discarded with a journaled
    /// [`crate::faults::RecoveryWhat::JournalDiscarded`] on expulsion.
    pub journal: Vec<JournalEntry>,
}

/// One delegate-journal entry: a mutation applied under a subtree lease,
/// pending reconciliation with the subtree's manager shard.
pub struct JournalEntry {
    /// Filesystem the lease belongs to.
    pub fs: FsId,
    /// Leased top-level subtree the mutation ran under.
    pub top: Box<str>,
    /// The session-space op id the mutation was applied with — reused by
    /// the reconcile envelope so the manager dedup table sees retries.
    pub op_id: u64,
    /// The recorded outcome, exactly what an envelope execution would have
    /// journaled at the manager.
    pub result: Outcome,
}

/// Tunable protocol constants.
#[derive(Clone, Debug)]
pub struct ProtocolCosts {
    /// Size of a metadata/token RPC request or reply on the wire.
    pub rpc_bytes: u64,
    /// Time to compute one RSA signature (2005-era hardware).
    pub sign_time: SimDuration,
    /// Time to verify one RSA signature.
    pub verify_time: SimDuration,
    /// TCP window for block-fetch flows (bytes); models the per-connection
    /// socket buffer GPFS configures.
    pub flow_window: u64,
    /// How long a client waits for the answer to one attempt of any
    /// exchange (NSD request, token acquire, envelope, mount) before
    /// declaring it lost and retrying (GPFS lease/ping timeout, compressed
    /// to simulation scale).
    pub request_timeout: SimDuration,
    /// Base delay of the exponential retry backoff; attempt `k` waits
    /// `retry_base * 2^k`, scaled by a seeded jitter in `[0.5, 1.5)`.
    pub retry_base: SimDuration,
    /// Retry budget per request; exhausting it surfaces
    /// [`crate::types::FsError::Timeout`].
    pub max_retries: u32,
    /// Fixed cost of a namespace-manager takeover (leader election + log
    /// open) before WAL replay starts.
    pub manager_recovery_base: SimDuration,
    /// Per-WAL-entry replay cost during manager recovery; total recovery
    /// time is `manager_recovery_base + manager_replay_per_op × wal_len`.
    pub manager_replay_per_op: SimDuration,
    /// Manager CPU per metadata op inside a fan-in envelope. Envelopes
    /// serialize through the acting manager's service queue
    /// ([`ManagerState::busy_until`]): an envelope of `n` ops occupies the
    /// manager for `n × manager_op_service`, so one site manager sustains
    /// at most `1/manager_op_service` metadata ops per simulated second
    /// (200k/s at the 5µs default — a directory op on 2004-era SMP
    /// hardware). Every manager request rides an envelope and pays this:
    /// metadata ops, write allocation, truncate, lease acquire and lease
    /// surrender.
    pub manager_op_service: SimDuration,
    /// The one recall fuse: a holder that no send of a recall (token
    /// revocation or lease break) reaches for this long is expelled — its
    /// leases and tokens are force-released and the blocked op proceeds.
    /// The fuse burns only while sends fail to land, so a holder that is
    /// reachable but slow (flushing, reconciling) is never expelled, and
    /// a holder that goes silent right after a send lands is expelled
    /// about `retry_base` plus this after the recall starts.
    pub lease_break_timeout: SimDuration,
}

impl Default for ProtocolCosts {
    fn default() -> Self {
        ProtocolCosts {
            rpc_bytes: 256,
            sign_time: SimDuration::from_millis(3),
            verify_time: SimDuration::from_millis(1),
            flow_window: 16 * 1024 * 1024,
            request_timeout: SimDuration::from_millis(1500),
            retry_base: SimDuration::from_millis(100),
            max_retries: 6,
            manager_recovery_base: SimDuration::from_millis(250),
            manager_replay_per_op: SimDuration::from_micros(2),
            manager_op_service: SimDuration::from_micros(5),
            lease_break_timeout: SimDuration::from_secs(2),
        }
    }
}

/// The world.
pub struct GfsWorld {
    /// The network (flows + messages).
    pub net: Network<GfsWorld>,
    /// Detailed storage arrays (referenced by `NsdBacking::Array`).
    pub arrays: Vec<Array>,
    /// Filesystems by [`FsId`].
    pub fss: Vec<FsInstance>,
    /// Clusters by [`ClusterId`].
    pub clusters: Vec<Cluster>,
    /// Clients by [`ClientId`].
    pub clients: Vec<Client>,
    /// Deterministic randomness for protocol nonces etc.
    pub rng: StdRng,
    /// Protocol cost knobs.
    pub costs: ProtocolCosts,
    /// Fault/recovery event log (see [`crate::faults`]).
    pub recovery: crate::faults::RecoveryLog,
    /// Client↔NSD request accounting (coalescing effectiveness).
    pub nsd_stats: NsdStats,
    /// Flyweight sessions (see [`crate::session`]), slab-keyed by
    /// [`crate::types::SessionId`].
    pub sessions: crate::slab::Slab<crate::session::SessionState>,
    /// Manager-RPC fan-in state: open per-`(mount ctx, fs)` batches plus
    /// envelope counters.
    pub fanin: crate::session::FanIn,
    /// Scenario/benchmark extension state.
    pub ext: Box<dyn Any>,
    pub(crate) next_handle: u64,
}

/// Counters for the client↔NSD data path: how many wire requests were
/// issued (each coalesced scatter-gather run counts once, retries
/// included), how many blocks and payload bytes they carried, and how many
/// of them coalesced more than one block.
///
/// Streaming transfers that bypass the page pool entirely (the GridFTP-style
/// bulk flows in `stream.rs`) are counted separately in the `bypass_*`
/// fields: folding a whole multi-GB striped share into one "request" made
/// `mean_request_bytes` report nonsense (4 GB/request on fig11) and left
/// `pool_hit_rate` a meaningless 0/0.
#[derive(Default, Debug, Clone, Copy)]
pub struct NsdStats {
    /// Wire requests issued through the block data path.
    pub requests: u64,
    /// File blocks carried by those requests.
    pub blocks: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Requests carrying more than one block.
    pub coalesced: u64,
    /// Streaming transfers that skipped the page pool (one per endpoint
    /// share of a bulk flow).
    pub bypass_transfers: u64,
    /// Bytes moved by pool-bypassing streams.
    pub bypass_bytes: u64,
}

impl NsdStats {
    /// Mean payload bytes per NSD request (0 when no requests were made —
    /// streaming-only runs issue none).
    pub fn mean_request_bytes(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.bytes as f64 / self.requests as f64
        }
    }

    /// Record one wire request carrying `blocks` blocks of `bytes` payload.
    pub fn record(&mut self, blocks: u64, bytes: u64) {
        self.requests += 1;
        self.blocks += blocks;
        self.bytes += bytes;
        if blocks > 1 {
            self.coalesced += 1;
        }
    }

    /// Record one pool-bypassing streaming transfer of `bytes`.
    pub fn record_bypass(&mut self, bytes: u64) {
        self.bypass_transfers += 1;
        self.bypass_bytes += bytes;
    }
}

impl NetWorld for GfsWorld {
    fn net(&mut self) -> &mut Network<GfsWorld> {
        &mut self.net
    }
}

impl GfsWorld {
    /// Fresh handle id.
    pub fn alloc_handle(&mut self) -> Handle {
        self.next_handle += 1;
        Handle(self.next_handle)
    }

    /// Cluster by name.
    pub fn cluster_by_name(&self, name: &str) -> Option<ClusterId> {
        self.clusters
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClusterId(i as u32))
    }

    /// Filesystem owned by `cluster` with device name `device`.
    pub fn fs_by_device(&self, cluster: ClusterId, device: &str) -> Option<FsId> {
        self.fss
            .iter()
            .position(|f| f.owning_cluster == cluster && f.core.config.name == device)
            .map(|i| FsId(i as u32))
    }

    /// Resolve what a device name means for a client's cluster: either a
    /// local filesystem or an `mmremotefs` mapping.
    pub fn resolve_device(&self, cluster: ClusterId, device: &str) -> Option<(FsId, bool)> {
        if let Some(fs) = self.fs_by_device(cluster, device) {
            return Some((fs, false));
        }
        let c = &self.clusters[cluster.0 as usize];
        let rfs = c.remote_fs.get(device)?;
        let remote = self.cluster_by_name(&rfs.cluster)?;
        let fs = self.fs_by_device(remote, &rfs.remote_device)?;
        Some((fs, true))
    }

    /// Typed access to the extension slot.
    pub fn ext_mut<T: 'static>(&mut self) -> &mut T {
        self.ext
            .downcast_mut::<T>()
            .expect("world extension has unexpected type")
    }

    /// Typed read access to the extension slot.
    pub fn ext_ref<T: 'static>(&self) -> &T {
        self.ext
            .downcast_ref::<T>()
            .expect("world extension has unexpected type")
    }
}

/// Filesystem construction parameters for the builder.
pub struct FsParams {
    /// Core geometry.
    pub config: FsConfig,
    /// Manager node.
    pub manager: NodeId,
    /// NSD server nodes.
    pub nsd_servers: Vec<NodeId>,
    /// Storage pseudo-nodes behind the servers (see
    /// [`FsInstance::storage_nodes`]); empty for none.
    pub storage_nodes: Vec<NodeId>,
    /// Per-NSD backing; if shorter than `nsd_count`, the last entry repeats.
    pub backing: Vec<NsdBacking>,
    /// Export to remote clusters?
    pub exported: bool,
    /// Cooperating namespace-manager shards (≥ 1). Shard 0 lives on
    /// `manager`; higher shards home round-robin on the NSD servers.
    pub managers: u32,
}

impl FsParams {
    /// Idealized backing with one template for all NSDs.
    pub fn ideal(
        config: FsConfig,
        manager: NodeId,
        nsd_servers: Vec<NodeId>,
        rate: Bandwidth,
        latency: SimDuration,
    ) -> Self {
        FsParams {
            config,
            manager,
            nsd_servers,
            storage_nodes: Vec::new(),
            backing: vec![NsdBacking::Ideal {
                rate: rate.bytes_per_sec(),
                latency,
            }],
            exported: true,
            managers: 1,
        }
    }
}

/// Assembles a [`GfsWorld`]. Topology edits happen through
/// [`WorldBuilder::topo`]; everything else through dedicated methods.
pub struct WorldBuilder {
    seed: u64,
    topo: TopologyBuilder,
    key_bits: u32,
    clusters: Vec<(String, Vec<NodeId>)>,
    fss: Vec<(usize, FsParams)>,
    clients: Vec<(usize, NodeId, usize)>,
    sessions: Vec<u32>,
    arrays: Vec<ArraySpec>,
}

impl WorldBuilder {
    /// Start building with a global seed.
    pub fn new(seed: u64) -> Self {
        WorldBuilder {
            seed,
            topo: TopologyBuilder::new(),
            key_bits: 512,
            clusters: Vec::new(),
            fss: Vec::new(),
            clients: Vec::new(),
            sessions: Vec::new(),
            arrays: Vec::new(),
        }
    }

    /// RSA modulus size for cluster keys (smaller = faster tests).
    pub fn key_bits(&mut self, bits: u32) -> &mut Self {
        self.key_bits = bits;
        self
    }

    /// Access the topology builder.
    pub fn topo(&mut self) -> &mut TopologyBuilder {
        &mut self.topo
    }

    /// Declare a cluster; returns its id.
    pub fn cluster(&mut self, name: impl Into<String>) -> ClusterId {
        let id = ClusterId(self.clusters.len() as u32);
        self.clusters.push((name.into(), Vec::new()));
        id
    }

    /// Declare a detailed storage array; returns its index for
    /// [`NsdBacking::Array`].
    pub fn array(&mut self, spec: ArraySpec) -> usize {
        self.arrays.push(spec);
        self.arrays.len() - 1
    }

    /// Declare a filesystem owned by `cluster`.
    pub fn filesystem(&mut self, cluster: ClusterId, params: FsParams) -> FsId {
        assert!(
            !params.nsd_servers.is_empty(),
            "filesystem needs at least one NSD server"
        );
        assert!(!params.backing.is_empty(), "filesystem needs backing");
        let id = FsId(self.fss.len() as u32);
        self.fss.push((cluster.0 as usize, params));
        id
    }

    /// Declare a mount context (a client node) in `cluster` at `node` with
    /// a page pool of `pool_pages` blocks. Sessions riding on it batch
    /// same-instant manager RPCs into shared envelopes (see
    /// [`crate::session`]).
    pub fn client(&mut self, cluster: ClusterId, node: NodeId, pool_pages: usize) -> ClientId {
        let id = ClientId(self.clients.len() as u32);
        self.clients.push((cluster.0 as usize, node, pool_pages));
        id
    }

    /// Declare a flyweight session on mount context `ctx`. Sessions may
    /// also be opened after build via [`GfsWorld::open_session`]; builder
    /// declarations exist so scenario code can hand out session handles
    /// before the world is materialized.
    pub fn session(&mut self, ctx: ClientId) -> crate::types::SessionId {
        assert!(
            (ctx.0 as usize) < self.clients.len(),
            "session declared on unknown client {ctx:?}"
        );
        let id = crate::types::SessionId(self.sessions.len() as u32);
        self.sessions.push(ctx.0);
        id
    }

    /// Build the world and a fresh simulation.
    pub fn build(self) -> (Sim<GfsWorld>, GfsWorld) {
        let topo: Topology = self.topo.build();
        let mut rng = det_rng(self.seed, "gfs-world");
        let clusters: Vec<Cluster> = self
            .clusters
            .into_iter()
            .enumerate()
            .map(|(i, (name, _nodes))| Cluster {
                id: ClusterId(i as u32),
                auth: ClusterAuth::new(name.clone(), self.key_bits, &mut rng),
                name,
                remote_clusters: BTreeMap::new(),
                remote_fs: BTreeMap::new(),
            })
            .collect();
        let arrays: Vec<Array> = self.arrays.into_iter().map(Array::new).collect();
        let fss: Vec<FsInstance> = self
            .fss
            .into_iter()
            .map(|(cl, p)| {
                let nsd_count = p.config.nsd_count;
                let nsds = (0..nsd_count)
                    .map(|i| NsdState {
                        backing: p.backing[(i as usize).min(p.backing.len() - 1)].clone(),
                        busy_until: SimTime::ZERO,
                    })
                    .collect();
                assert!(
                    p.storage_nodes.is_empty() || p.storage_nodes.len() == p.nsd_servers.len(),
                    "storage_nodes must be empty or match nsd_servers"
                );
                let managers = p.managers.max(1);
                let mut core = FsCore::create(p.config);
                core.shards.set_shards(managers);
                // Shard homes mirror FsInstance::manager_home: shard 0 on
                // the manager node, higher shards round-robin on servers.
                let mgrs = (0..managers)
                    .map(|s| {
                        ManagerState::new(if s == 0 || p.nsd_servers.is_empty() {
                            p.manager
                        } else {
                            p.nsd_servers[s as usize % p.nsd_servers.len()]
                        })
                    })
                    .collect();
                FsInstance {
                    core,
                    tokens: TokenManager::new(),
                    recalls: Default::default(),
                    manager_node: p.manager,
                    mgrs,
                    leases: BTreeMap::new(),
                    expelled: std::collections::BTreeSet::new(),
                    lease_grants: 0,
                    lease_breaks: 0,
                    expulsions: 0,
                    readmissions: 0,
                    cross_shard_ops: 0,
                    delegated_ops: 0,
                    reconcile_ops: 0,
                    migrating: false,
                    migration_seq: 0,
                    owning_cluster: ClusterId(cl as u32),
                    nsd_servers: p.nsd_servers,
                    storage_nodes: p.storage_nodes,
                    nsds,
                    exported: p.exported,
                    down_servers: std::collections::BTreeSet::new(),
                    replicas: crate::replica::ReplicaCatalog::default(),
                }
            })
            .collect();
        let clients: Vec<Client> = self
            .clients
            .into_iter()
            .enumerate()
            .map(|(i, (cl, node, pool))| Client {
                id: ClientId(i as u32),
                node,
                cluster: ClusterId(cl as u32),
                pool: PagePool::new(pool),
                mounts: BTreeMap::new(),
                handles: BTreeMap::new(),
                prefetch: BTreeMap::new(),
                held_tokens: TokenCache::default(),
                recalling: std::collections::BTreeSet::new(),
                lost_writes: std::collections::BTreeSet::new(),
                inflight: BTreeMap::new(),
                leases: std::collections::BTreeSet::new(),
                delegate_busy_until: SimTime::from_nanos(0),
                delegate_inflight: 0,
                journal: Vec::new(),
            })
            .collect();
        let mut sessions = crate::slab::Slab::with_capacity(self.sessions.len());
        for ctx in self.sessions {
            sessions.insert(crate::session::SessionState::new(ClientId(ctx)));
        }
        let world = GfsWorld {
            net: Network::new(topo, self.seed),
            arrays,
            fss,
            clusters,
            clients,
            rng,
            costs: ProtocolCosts::default(),
            recovery: crate::faults::RecoveryLog::default(),
            nsd_stats: NsdStats::default(),
            sessions,
            fanin: crate::session::FanIn::default(),
            ext: Box::new(()),
            next_handle: 0,
        };
        (Sim::new(), world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::MBYTE;

    fn tiny() -> (Sim<GfsWorld>, GfsWorld, ClientId, FsId) {
        let mut b = WorldBuilder::new(1);
        b.key_bits(384);
        let mgr = b.topo().node("mgr");
        let cli = b.topo().node("cli");
        b.topo().duplex_link(
            cli,
            mgr,
            Bandwidth::gbit(1.0),
            SimDuration::from_micros(100),
            "lan",
        );
        let cl = b.cluster("test.cluster");
        let fs = b.filesystem(
            cl,
            FsParams::ideal(
                FsConfig::small_test("gpfs0"),
                mgr,
                vec![mgr],
                Bandwidth::mbyte(400.0),
                SimDuration::from_micros(500),
            ),
        );
        let c = b.client(cl, cli, 64);
        let (sim, w) = b.build();
        (sim, w, c, fs)
    }

    #[test]
    fn build_produces_consistent_world() {
        let (_sim, w, c, fs) = tiny();
        assert_eq!(w.clients[c.0 as usize].node, w.net.topo().find_node("cli").unwrap());
        assert_eq!(w.fss[fs.0 as usize].core.config.name, "gpfs0");
        assert_eq!(w.fss[fs.0 as usize].nsds.len(), 8);
        assert_eq!(w.cluster_by_name("test.cluster"), Some(ClusterId(0)));
        assert_eq!(w.cluster_by_name("nope"), None);
    }

    #[test]
    fn resolve_local_device() {
        let (_sim, w, _c, fs) = tiny();
        assert_eq!(w.resolve_device(ClusterId(0), "gpfs0"), Some((fs, false)));
        assert_eq!(w.resolve_device(ClusterId(0), "missing"), None);
    }

    #[test]
    fn nsd_server_round_robin() {
        let (_sim, w, _c, fs) = tiny();
        let inst = &w.fss[fs.0 as usize];
        // One server serves all NSDs here.
        assert_eq!(inst.try_server_of(NsdId(0)), inst.try_server_of(NsdId(7)));
        assert!(inst.try_server_of(NsdId(0)).is_some());
    }

    #[test]
    fn ideal_backing_serializes() {
        let (_sim, mut w, _c, fs) = tiny();
        let inst = &mut w.fss[fs.0 as usize];
        let t1 = inst.nsds[0].serve(&mut w.arrays, SimTime::ZERO, simsan::IoKind::Read, 0, MBYTE);
        let t2 = inst.nsds[0].serve(&mut w.arrays, SimTime::ZERO, simsan::IoKind::Read, 0, MBYTE);
        assert!(t2 > t1, "second request must queue");
        // Distinct NSD has its own queue.
        let t3 = inst.nsds[1].serve(&mut w.arrays, SimTime::ZERO, simsan::IoKind::Read, 0, MBYTE);
        assert_eq!(t3, t1);
    }

    #[test]
    fn partitioned_managers_spread_homes_and_elect_on_loss() {
        let mut b = WorldBuilder::new(3);
        b.key_bits(384);
        let m0 = b.topo().node("m0");
        let m1 = b.topo().node("m1");
        let m2 = b.topo().node("m2");
        let sw = b.topo().node("sw");
        for (n, l) in [(m0, "l0"), (m1, "l1"), (m2, "l2")] {
            b.topo()
                .duplex_link(n, sw, Bandwidth::gbit(1.0), SimDuration::from_micros(100), l);
        }
        let cl = b.cluster("part");
        let mut p = FsParams::ideal(
            FsConfig::small_test("pfs"),
            m0,
            vec![m0, m1, m2],
            Bandwidth::mbyte(400.0),
            SimDuration::from_micros(500),
        );
        p.managers = 3;
        let fs = b.filesystem(cl, p);
        let (_sim, mut w) = b.build();
        let inst = &mut w.fss[fs.0 as usize];
        // The core's routing map and the manager vector agree on the count.
        assert_eq!(inst.shard_count(), 3);
        assert_eq!(inst.core.shards.shards(), 3);
        // Shard 0 lives on the fs manager node; higher shards round-robin
        // over the NSD servers, each starting on its home.
        assert_eq!(inst.manager_home(0), m0);
        assert_eq!(inst.manager_home(1), m1);
        assert_eq!(inst.manager_home(2), m2);
        for s in 0..3 {
            assert_eq!(inst.mgrs[s as usize].acting, inst.manager_home(s));
            assert!(inst.manager_available(s));
        }
        // Losing one shard's node leaves the others serving; resolving the
        // dead shard's endpoint elects the next healthy server on the spot
        // (the bare fail_server models an instant GPFS election).
        inst.fail_server(m1);
        assert!(!inst.manager_available(1));
        assert!(inst.manager_available(0) && inst.manager_available(2));
        let elected = inst.manager_endpoint(1);
        assert_eq!(elected, m0, "ring order prefers the first healthy server");
        assert_eq!(inst.mgrs[1].acting, m0);
        assert_eq!(inst.mgrs[1].epoch, 1, "takeover must bump the shard epoch");
        assert!(inst.manager_available(1));
        // Restoring the home does not fail back: the elected manager keeps
        // the role until the next takeover.
        inst.restore_server(m1);
        assert_eq!(inst.manager_endpoint(1), m0);
    }

    #[test]
    fn ext_slot_roundtrip() {
        let (_sim, mut w, ..) = tiny();
        w.ext = Box::new(42u32);
        assert_eq!(*w.ext_ref::<u32>(), 42);
        *w.ext_mut::<u32>() += 1;
        assert_eq!(*w.ext_ref::<u32>(), 43);
    }
}
