//! The shared-disk filesystem core: superblock, inodes, directories, and
//! striped block allocation over Network Shared Disks.
//!
//! This is the state that, in real GPFS, lives on the shared disks and is
//! manipulated under token protection by whichever node needs to. The
//! simulation keeps one authoritative copy (the disks *are* shared — every
//! cluster ultimately reads the same LUNs) and charges network/disk time in
//! the client layer.
//!
//! The namespace is built for metadata at scale (the paper's production
//! system served a half-petabyte namespace to every TeraGrid site):
//!
//! * Path components are **interned** once into a global [`NameTable`];
//!   directory entries are `FxHashMap<NameId, InodeId>` keyed by the 4-byte
//!   interned id, hashed with the deterministic `simcore::fxhash` hasher.
//! * Path resolution is **allocation-free**: it iterates `split('/')`
//!   components in place, never building intermediate `String`s or `Vec`s;
//!   only the error path renders the offending path into a message.
//! * Clients layer a `(parent, NameId) -> InodeId` dentry cache
//!   ([`crate::cache::DentryCache`]) over [`FsCore::lookup_via`], with
//!   explicit invalidation on remove/rename.
//! * The NSD block store is sharded **per disk** (`Vec<FxHashMap<block,
//!   Bytes>>`) so million-block data sets don't funnel through one ordered
//!   map.
//!
//! Deliberate simplifications, documented for the record:
//! * Block pointers are a flat per-file vector rather than GPFS's
//!   direct/indirect tree — identical semantics, simpler bookkeeping.
//! * Allocation is round-robin striping with a per-NSD free list; GPFS's
//!   allocation-region maps matter for multi-node allocator contention,
//!   which we summarize in the client layer's message costs.

use crate::cache::DentryCache;
use crate::types::{BlockAddr, FsError, FsId, InodeId, NameId, Owner};
use bytes::Bytes;
use simcore::fxhash::FxHashMap;
use std::cell::Cell;

/// Whether file contents are materialized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataMode {
    /// Block payloads are stored — end-to-end byte fidelity (tests,
    /// examples).
    Stored,
    /// Only sizes/placement are tracked — TB-scale throughput runs.
    Synthetic,
}

/// One NSD's allocation bookkeeping.
#[derive(Clone, Debug)]
struct NsdAlloc {
    total_blocks: u64,
    next: u64,
    freed: Vec<u64>,
}

impl NsdAlloc {
    fn free_count(&self) -> u64 {
        self.total_blocks - self.next + self.freed.len() as u64
    }

    fn alloc(&mut self) -> Option<u64> {
        if let Some(b) = self.freed.pop() {
            return Some(b);
        }
        if self.next < self.total_blocks {
            let b = self.next;
            self.next += 1;
            Some(b)
        } else {
            None
        }
    }

    fn free(&mut self, block: u64) {
        debug_assert!(block < self.next, "freeing never-allocated block");
        self.freed.push(block);
    }
}

/// Filesystem geometry, fixed at `mmcrfs` time.
#[derive(Clone, Debug)]
pub struct FsConfig {
    /// Device name, e.g. `"gpfs-wan"`.
    pub name: String,
    /// Filesystem block size (GPFS favours large blocks; the paper's
    /// Fig. 11 runs used 1 MiB transfers over such blocks).
    pub block_size: u64,
    /// Blocks per NSD.
    pub nsd_blocks: u64,
    /// Number of NSDs in the stripe group.
    pub nsd_count: u32,
    /// Whether payloads are stored.
    pub data_mode: DataMode,
}

impl FsConfig {
    /// Small stored-data filesystem for tests and examples.
    pub fn small_test(name: impl Into<String>) -> Self {
        FsConfig {
            name: name.into(),
            block_size: 64 * 1024,
            nsd_blocks: 4096,
            nsd_count: 8,
            data_mode: DataMode::Stored,
        }
    }
}

/// The global name intern table: every distinct path component ever created
/// is stored exactly once; directories and dentry caches key on the 4-byte
/// [`NameId`] instead of owning `String`s.
#[derive(Debug, Default)]
pub struct NameTable {
    ids: FxHashMap<Box<str>, NameId>,
    names: Vec<Box<str>>,
}

impl NameTable {
    /// Id of an already-interned name; `None` means no entry anywhere in the
    /// filesystem has ever had this name (so a lookup can fail immediately
    /// without touching the directory).
    #[inline]
    pub fn get(&self, name: &str) -> Option<NameId> {
        self.ids.get(name).copied()
    }

    /// Intern a name (no-op if already present). Only namespace *mutations*
    /// intern; resolution never does.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.ids.insert(boxed, id);
        id
    }

    /// The string for an interned id.
    #[inline]
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Resolution counters, updated from `&self` paths (hence `Cell`).
#[derive(Debug, Default)]
pub struct MetaStats {
    /// Full path resolutions performed (lookup / parent walks).
    pub resolves: Cell<u64>,
    /// Bytes allocated *by* resolution — with the interned walk this is only
    /// error-message rendering; the old string-walk implementation paid a
    /// `Vec` + comparisons per call.
    pub resolve_alloc_bytes: Cell<u64>,
}

impl MetaStats {
    #[inline]
    fn bump_resolves(&self) {
        self.resolves.set(self.resolves.get() + 1);
    }

    #[inline]
    fn bump_alloc(&self, bytes: usize) {
        self.resolve_alloc_bytes
            .set(self.resolve_alloc_bytes.get() + bytes as u64);
    }
}

/// Plain-data copy of the metadata counters for reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetaSnapshot {
    /// Full path resolutions performed.
    pub resolves: u64,
    /// Bytes allocated during resolution (error rendering only).
    pub resolve_alloc_bytes: u64,
    /// Distinct interned names.
    pub interned_names: u64,
}

/// What an inode is.
#[derive(Clone, Debug)]
pub enum InodeKind {
    /// Regular file: size plus block pointers (None = hole).
    File {
        /// Size in bytes.
        size: u64,
        /// Block pointer per block index.
        blocks: Vec<Option<BlockAddr>>,
    },
    /// Directory: interned name → inode.
    Dir {
        /// Entries, keyed by interned name id (deterministic hasher; order
        /// is arbitrary — consumers that emit names sort explicitly).
        entries: FxHashMap<NameId, InodeId>,
    },
}

/// One inode.
#[derive(Clone, Debug)]
pub struct Inode {
    /// Its id.
    pub id: InodeId,
    /// File or directory payload.
    pub kind: InodeKind,
    /// Ownership (with optional grid DN — the §6 extension).
    pub owner: Owner,
    /// Creation time, ns.
    pub ctime_ns: u64,
    /// Last modification, ns.
    pub mtime_ns: u64,
}

impl Inode {
    /// File size (0 for directories).
    pub fn size(&self) -> u64 {
        match &self.kind {
            InodeKind::File { size, .. } => *size,
            InodeKind::Dir { .. } => 0,
        }
    }

    /// Is this a directory?
    pub fn is_dir(&self) -> bool {
        matches!(self.kind, InodeKind::Dir { .. })
    }
}

/// `stat`-style record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileAttr {
    /// Inode number.
    pub inode: InodeId,
    /// Size in bytes.
    pub size: u64,
    /// Directory?
    pub is_dir: bool,
    /// Owning UID.
    pub uid: u32,
    /// Owning GID.
    pub gid: u32,
    /// Grid DN, if recorded.
    pub dn: Option<String>,
    /// Modification time, ns.
    pub mtime_ns: u64,
}

/// What a namespace mutation changed — the parent/name pair dentry caches
/// need for targeted invalidation (or seeding, on create).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryChange {
    /// The inode created or removed.
    pub id: InodeId,
    /// Directory holding the entry.
    pub parent: InodeId,
    /// The entry's interned name.
    pub name: NameId,
}

/// Both sides of a rename, for dentry invalidation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RenameChange {
    /// The moved inode.
    pub id: InodeId,
    /// Source directory.
    pub from_parent: InodeId,
    /// Source entry name.
    pub from_name: NameId,
    /// Destination directory.
    pub to_parent: InodeId,
    /// Destination entry name.
    pub to_name: NameId,
    /// Inode atomically replaced at the destination (POSIX rename over an
    /// existing target), if any — callers must drop its cached pages.
    pub replaced: Option<InodeId>,
}

/// The leading path component — the subtree granularity at which the
/// namespace is sharded across managers and leased to sites. Root and
/// relative fragments map to `""` (owned by shard 0).
#[inline]
pub fn top_component(path: &str) -> &str {
    path.trim_start_matches('/')
        .split('/')
        .next()
        .unwrap_or("")
}

/// Deterministic subtree → manager-shard placement map.
///
/// The namespace is partitioned at top-level-directory granularity: every
/// path under `/proj` belongs to `shard_of("/proj/...")`. Placement is a
/// seeded byte-fold hash of the top component modulo the shard count, with
/// an explicit override table layered on top for deliberate placement and
/// hotspot rebalancing. Shard 0 always owns the root (and, by convention,
/// every non-namespace manager role: tokens, mounts, data-path control).
///
/// Per-subtree heat counters accumulate at envelope execution;
/// [`ShardMap::rebalance`] deterministically moves the hottest subtree of
/// the hottest shard onto the coolest shard.
#[derive(Debug, Default)]
pub struct ShardMap {
    shards: u32,
    overrides: FxHashMap<Box<str>, u32>,
    heat: FxHashMap<Box<str>, u64>,
    /// Where each moved subtree last lived: a planned move is refused when
    /// its destination is the subtree's previous source, so an adversarial
    /// alternating-heat workload cannot ping-pong a subtree between two
    /// shards — it needs a fresh destination every time.
    last_from: FxHashMap<Box<str>, u32>,
    /// Authority migrations committed (observability; fed to reports).
    migrations: u64,
}

impl ShardMap {
    /// Splitmix64-style fold of the top component's bytes — deterministic
    /// across runs, platforms, and thread counts.
    fn hash_top(top: &str) -> u64 {
        let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
        for &b in top.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 27;
        }
        h ^ (h >> 31)
    }

    /// Set the cooperating shard count (clamped to ≥ 1). Called once at
    /// world build; with 1 shard every path maps to shard 0 and the map is
    /// inert.
    pub fn set_shards(&mut self, shards: u32) {
        self.shards = shards.max(1);
    }

    /// Cooperating shard count.
    pub fn shards(&self) -> u32 {
        self.shards.max(1)
    }

    /// The manager shard owning `path`'s subtree.
    pub fn shard_of(&self, path: &str) -> u32 {
        if self.shards <= 1 {
            return 0;
        }
        let top = top_component(path);
        if top.is_empty() {
            return 0;
        }
        if let Some(&s) = self.overrides.get(top) {
            return s;
        }
        (Self::hash_top(top) % u64::from(self.shards)) as u32
    }

    /// Pin `top` to `shard` explicitly (deliberate placement; also how
    /// [`ShardMap::rebalance`] records its moves).
    pub fn assign(&mut self, top: impl Into<Box<str>>, shard: u32) {
        let shard = shard % self.shards.max(1);
        self.overrides.insert(top.into(), shard);
    }

    /// Bump the hotspot counter for the subtree owning `path`.
    pub fn note_heat(&mut self, path: &str) {
        let top = top_component(path);
        if top.is_empty() {
            return;
        }
        match self.heat.get_mut(top) {
            Some(h) => *h += 1,
            None => {
                self.heat.insert(top.into(), 1);
            }
        }
    }

    /// Accumulated heat of one subtree.
    pub fn heat_of(&self, top: &str) -> u64 {
        self.heat.get(top).copied().unwrap_or(0)
    }

    /// Plan one rebalance step without committing it: the hottest
    /// *movable* subtree of the hottest shard goes to the coolest shard.
    /// Fully deterministic — ties break on subtree name. A candidate is
    /// movable when its heat is strictly below the load gap (so the move
    /// narrows the imbalance rather than inverting it) and the coolest
    /// shard is not the shard the subtree last moved *from* (the
    /// one-step-memory ping-pong guard). Pure: call
    /// [`ShardMap::commit_move`] to take the move, after draining whatever
    /// the caller has in flight against the subtree.
    pub fn plan_rebalance(&self) -> Option<(Box<str>, u32, u32)> {
        self.plan_rebalance_moves(1).pop()
    }

    /// Plan up to `max_moves` authority migrations in one drain cycle.
    ///
    /// The single-move planner stops after the hottest movable subtree
    /// even when one move cannot close a large gap; here the plan
    /// continues greedily against *simulated* post-move loads: after each
    /// pick the hot/cool pair is recomputed, the hysteresis re-checked,
    /// and the next pick made as if the previous moves had committed. The
    /// per-move rules are unchanged — a candidate must narrow the
    /// remaining gap (`h < gap`) and must not return to the shard it last
    /// moved *from* — so every planned move individually satisfies the
    /// no-ping-pong property, and the whole batch commits under a single
    /// drain. Fully deterministic; ties break on subtree name.
    pub fn plan_rebalance_moves(&self, max_moves: usize) -> Vec<(Box<str>, u32, u32)> {
        let mut moves = Vec::new();
        if self.shards <= 1 || self.heat.is_empty() || max_moves == 0 {
            return moves;
        }
        // Deterministic iteration: sort the heat table by name, then by
        // descending heat for candidate scans.
        let mut by_name: Vec<(&str, u64)> =
            self.heat.iter().map(|(k, &v)| (k.as_ref(), v)).collect();
        by_name.sort();
        let mut load = vec![0u64; self.shards as usize];
        // Simulated placement: planned moves overlay the committed map.
        let mut placed: std::collections::BTreeMap<&str, u32> = std::collections::BTreeMap::new();
        for (top, h) in &by_name {
            load[self.shard_of(top) as usize] += h;
        }
        let mut by_heat = by_name.clone();
        by_heat.sort_by_key(|(t, h)| (std::cmp::Reverse(*h), *t));
        while moves.len() < max_moves {
            let Some(hot_shard) = (0..self.shards).max_by_key(|&s| (load[s as usize], s)) else {
                break;
            };
            let Some(cool_shard) = (0..self.shards).min_by_key(|&s| (load[s as usize], s)) else {
                break;
            };
            if hot_shard == cool_shard || load[hot_shard as usize] == load[cool_shard as usize] {
                break;
            }
            // Hysteresis: act only on a real hotspot (hot > 1.5× cool).
            // Near balance, uniform traffic always shows *some* gap;
            // migrating on noise would shuffle evenly-placed subtrees
            // forever.
            if load[hot_shard as usize] * 2 <= load[cool_shard as usize] * 3 {
                break;
            }
            let gap = load[hot_shard as usize] - load[cool_shard as usize];
            // Hottest movable subtree currently (in simulation) living on
            // the hot shard; heat-ordered scan keeps ties deterministic.
            let pick = by_heat.iter().find(|(t, h)| {
                placed.get(t).copied().unwrap_or_else(|| self.shard_of(t)) == hot_shard
                    && *h < gap
                    && *h > 0
                    && self.last_from.get(*t).copied() != Some(cool_shard)
                    && !placed.contains_key(t)
            });
            let Some(&(top, h)) = pick else {
                break;
            };
            load[hot_shard as usize] -= h;
            load[cool_shard as usize] += h;
            placed.insert(top, cool_shard);
            moves.push((top.to_string().into_boxed_str(), hot_shard, cool_shard));
        }
        moves
    }

    /// Age every heat counter geometrically (`h → h/8`, zeros dropped).
    /// Runs once per commit cycle: fresh post-move traffic dominates the
    /// next planning round quickly, but a sustained-hot subtree keeps a
    /// visible (decayed) share instead of restarting from a cleared
    /// epoch — the planner no longer goes blind after every commit.
    fn decay_heat(&mut self) {
        self.heat.retain(|_, h| {
            *h >>= 3;
            *h > 0
        });
    }

    /// Commit a planned move: flip the subtree's authority to `to` and
    /// remember where it came from (the ping-pong guard's one-step
    /// memory), then age the heat epoch geometrically.
    pub fn commit_move(&mut self, top: &str, to: u32) {
        let mv = (Box::<str>::from(top), self.shard_of(top), to);
        self.commit_moves(std::slice::from_ref(&mv));
    }

    /// Commit a batch of planned moves from one drain cycle. Heat is
    /// decayed once for the whole batch (not once per move), so a
    /// multi-subtree commit ages the epoch exactly like a single-subtree
    /// one.
    pub fn commit_moves(&mut self, moves: &[(Box<str>, u32, u32)]) {
        for (top, _, to) in moves {
            let from = self.shard_of(top);
            self.overrides
                .insert(top.clone(), to % self.shards.max(1));
            self.last_from.insert(top.clone(), from);
            self.migrations += 1;
        }
        if !moves.is_empty() {
            self.decay_heat();
        }
    }

    /// Authority migrations committed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Plan and immediately commit one rebalance step (no drain — callers
    /// with in-flight traffic should plan, drain, then commit). Returns
    /// the `(subtree, from, to)` move when one was made.
    pub fn rebalance(&mut self) -> Option<(Box<str>, u32, u32)> {
        let (top, from, to) = self.plan_rebalance()?;
        self.commit_move(&top, to);
        Some((top, from, to))
    }
}

/// The filesystem core.
#[derive(Debug)]
pub struct FsCore {
    /// Geometry.
    pub config: FsConfig,
    /// The global name intern table.
    pub names: NameTable,
    /// Subtree → manager-shard placement (see [`ShardMap`]). Lives with
    /// the core because, like the namespace itself, it is shared-disk
    /// configuration every manager instance reads.
    pub shards: ShardMap,
    /// Resolution counters.
    pub meta: MetaStats,
    inodes: Vec<Option<Inode>>,
    /// Namespace generation: bumped by every unlink/rename (the mutations
    /// that can make a previously-resolved path wrong). Whole-path caches
    /// tag entries with this and treat a mismatch as a miss; create/mkdir
    /// never bump it because positive path→inode mappings stay correct when
    /// entries are only added.
    ns_gen: u64,
    alloc: Vec<NsdAlloc>,
    /// Block payloads, sharded per NSD: `data[nsd][block]`.
    data: Vec<FxHashMap<u64, Bytes>>,
    /// Shared all-zeros block payload: absent/synthetic blocks hand out
    /// refcounted slices of this one allocation instead of zeroing a fresh
    /// buffer per read.
    zero_block: Bytes,
}

/// The root directory's inode id.
pub const ROOT: InodeId = InodeId(0);

impl FsCore {
    /// `mmcrfs`: create an empty filesystem.
    pub fn create(config: FsConfig) -> Self {
        assert!(config.block_size > 0 && config.nsd_count > 0 && config.nsd_blocks > 0);
        let root = Inode {
            id: ROOT,
            kind: InodeKind::Dir {
                entries: FxHashMap::default(),
            },
            owner: Owner::local(0, 0),
            ctime_ns: 0,
            mtime_ns: 0,
        };
        let alloc = (0..config.nsd_count)
            .map(|_| NsdAlloc {
                total_blocks: config.nsd_blocks,
                next: 0,
                freed: Vec::new(),
            })
            .collect();
        let data = (0..config.nsd_count).map(|_| FxHashMap::default()).collect();
        let zero_block = Bytes::from(vec![0u8; config.block_size as usize]);
        FsCore {
            config,
            names: NameTable::default(),
            shards: ShardMap::default(),
            meta: MetaStats::default(),
            inodes: vec![Some(root)],
            ns_gen: 0,
            alloc,
            data,
            zero_block,
        }
    }

    /// Count a resolution served by an external cache tier (the manager's
    /// envelope path cache) so `resolves` keeps meaning "paths resolved",
    /// not "paths walked".
    pub fn meta_bump_resolve(&self) {
        self.meta.bump_resolves();
    }

    /// Current namespace generation (see the `ns_gen` field).
    #[inline]
    pub fn ns_gen(&self) -> u64 {
        self.ns_gen
    }

    /// Total free blocks across all NSDs.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.iter().map(NsdAlloc::free_count).sum()
    }

    /// Access an inode.
    pub fn inode(&self, id: InodeId) -> Result<&Inode, FsError> {
        self.inodes
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| FsError::NotFound(format!("inode {}", id.0)))
    }

    fn inode_mut(&mut self, id: InodeId) -> Result<&mut Inode, FsError> {
        self.inodes
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or_else(|| FsError::NotFound(format!("inode {}", id.0)))
    }

    // ------------------------------------------------------------------
    // Path resolution (allocation-free)
    // ------------------------------------------------------------------

    /// Lazily-rendered resolution errors: the happy path never touches
    /// these, so the allocation cost lands only on failures (and is
    /// counted in [`MetaStats::resolve_alloc_bytes`]).
    #[cold]
    fn err_not_found(&self, path: &str) -> FsError {
        self.meta.bump_alloc(path.len());
        FsError::NotFound(path.to_string())
    }

    #[cold]
    fn err_not_a_directory(&self, path: &str) -> FsError {
        self.meta.bump_alloc(path.len());
        FsError::NotADirectory(path.to_string())
    }

    #[cold]
    fn err_already_exists(&self, path: &str) -> FsError {
        self.meta.bump_alloc(path.len());
        FsError::AlreadyExists(path.to_string())
    }

    /// Validate shape without allocating: absolute, no `.`/`..` components.
    /// (Same semantics as `types::split_path`, which remains as the
    /// reference implementation.)
    fn validate_path(&self, path: &str) -> Result<(), FsError> {
        if !path.starts_with('/') {
            self.meta.bump_alloc(path.len());
            return Err(FsError::InvalidArgument(format!(
                "path must be absolute: {path}"
            )));
        }
        for c in path.split('/') {
            if c == "." || c == ".." {
                self.meta.bump_alloc(path.len());
                return Err(FsError::InvalidArgument(format!(
                    "path may not contain . or ..: {path}"
                )));
            }
        }
        Ok(())
    }

    /// One resolution step: descend from `cur` through component `comp`.
    #[inline]
    fn step(&self, cur: InodeId, comp: &str, path: &str) -> Result<InodeId, FsError> {
        match &self.inode(cur)?.kind {
            InodeKind::Dir { entries } => {
                let nid = self
                    .names
                    .get(comp)
                    .ok_or_else(|| self.err_not_found(path))?;
                entries
                    .get(&nid)
                    .copied()
                    .ok_or_else(|| self.err_not_found(path))
            }
            InodeKind::File { .. } => Err(self.err_not_a_directory(path)),
        }
    }

    /// Resolve an absolute path to an inode. Allocation-free on success:
    /// components are iterated in place and matched through the intern
    /// table.
    pub fn lookup(&self, path: &str) -> Result<InodeId, FsError> {
        self.validate_path(path)?;
        self.meta.bump_resolves();
        let mut cur = ROOT;
        for c in path.split('/') {
            if c.is_empty() {
                continue;
            }
            cur = self.step(cur, c, path)?;
        }
        Ok(cur)
    }

    /// Resolve through a client dentry cache: each `(dir, name)` step probes
    /// the cache first and fills it on miss. Correctness relies on explicit
    /// invalidation at remove/rename (negative results are never cached, so
    /// create needs no invalidation).
    pub fn lookup_via(
        &self,
        fs: FsId,
        dentry: &mut DentryCache,
        path: &str,
    ) -> Result<InodeId, FsError> {
        // Whole-path fast tier: a single hash probe resolves a path this
        // client has seen since the last namespace-shrinking mutation
        // (unlink/rename bump [`FsCore::ns_gen`]; create/mkdir cannot make a
        // cached positive mapping wrong, so they don't). The path was fully
        // validated when the entry was filled, so a hit skips validation.
        if let Some(id) = dentry.get_path(fs, path, self.ns_gen) {
            self.meta.bump_resolves();
            return Ok(id);
        }
        self.validate_path(path)?;
        self.meta.bump_resolves();
        let mut cur = ROOT;
        for c in path.split('/') {
            if c.is_empty() {
                continue;
            }
            match &self.inode(cur)?.kind {
                InodeKind::Dir { entries } => {
                    let nid = self.names.get(c).ok_or_else(|| self.err_not_found(path))?;
                    cur = match dentry.get(fs, cur, nid) {
                        Some(hit) => hit,
                        None => {
                            let next = entries
                                .get(&nid)
                                .copied()
                                .ok_or_else(|| self.err_not_found(path))?;
                            dentry.insert(fs, cur, nid, next);
                            next
                        }
                    };
                }
                InodeKind::File { .. } => return Err(self.err_not_a_directory(path)),
            }
        }
        dentry.insert_path(fs, path, cur, self.ns_gen);
        Ok(cur)
    }

    /// Resolve the parent directory of `path` and the final component.
    fn parent_of<'p>(&self, path: &'p str) -> Result<(InodeId, &'p str), FsError> {
        self.validate_path(path)?;
        self.meta.bump_resolves();
        let trimmed = path.trim_end_matches('/');
        if trimmed.is_empty() {
            self.meta.bump_alloc("path is root".len());
            return Err(FsError::InvalidArgument("path is root".into()));
        }
        let cut = trimmed.rfind('/').expect("absolute path contains '/'");
        let (dirs, last) = (&trimmed[..cut], &trimmed[cut + 1..]);
        let mut cur = ROOT;
        for c in dirs.split('/') {
            if c.is_empty() {
                continue;
            }
            cur = self.step(cur, c, path)?;
        }
        Ok((cur, last))
    }

    /// Plain-data copy of the metadata counters.
    pub fn meta_snapshot(&self) -> MetaSnapshot {
        MetaSnapshot {
            resolves: self.meta.resolves.get(),
            resolve_alloc_bytes: self.meta.resolve_alloc_bytes.get(),
            interned_names: self.names.len() as u64,
        }
    }

    // ------------------------------------------------------------------
    // Namespace mutation
    // ------------------------------------------------------------------

    fn new_inode(&mut self, kind: InodeKind, owner: Owner, now_ns: u64) -> InodeId {
        let id = InodeId(self.inodes.len() as u64);
        self.inodes.push(Some(Inode {
            id,
            kind,
            owner,
            ctime_ns: now_ns,
            mtime_ns: now_ns,
        }));
        id
    }

    /// Create a directory.
    pub fn mkdir(&mut self, path: &str, owner: Owner, now_ns: u64) -> Result<InodeId, FsError> {
        self.mkdir_entry(path, owner, now_ns).map(|e| e.id)
    }

    /// Create a directory, reporting the `(parent, name)` entry for dentry
    /// caches.
    pub fn mkdir_entry(
        &mut self,
        path: &str,
        owner: Owner,
        now_ns: u64,
    ) -> Result<EntryChange, FsError> {
        let (parent, name) = self.parent_of(path)?;
        if !self.inode(parent)?.is_dir() {
            return Err(self.err_not_a_directory(path));
        }
        let nid = self.names.intern(name);
        if let InodeKind::Dir { entries } = &self.inode(parent)?.kind {
            if entries.contains_key(&nid) {
                return Err(self.err_already_exists(path));
            }
        }
        let id = self.new_inode(
            InodeKind::Dir {
                entries: FxHashMap::default(),
            },
            owner,
            now_ns,
        );
        if let InodeKind::Dir { entries } = &mut self.inode_mut(parent)?.kind {
            entries.insert(nid, id);
        }
        Ok(EntryChange {
            id,
            parent,
            name: nid,
        })
    }

    /// Create an empty regular file.
    pub fn create_file(
        &mut self,
        path: &str,
        owner: Owner,
        now_ns: u64,
    ) -> Result<InodeId, FsError> {
        self.create_file_entry(path, owner, now_ns).map(|e| e.id)
    }

    /// Create an empty regular file, reporting the entry for dentry caches.
    pub fn create_file_entry(
        &mut self,
        path: &str,
        owner: Owner,
        now_ns: u64,
    ) -> Result<EntryChange, FsError> {
        let (parent, name) = self.parent_of(path)?;
        if !self.inode(parent)?.is_dir() {
            return Err(self.err_not_a_directory(path));
        }
        let nid = self.names.intern(name);
        if let InodeKind::Dir { entries } = &self.inode(parent)?.kind {
            if entries.contains_key(&nid) {
                return Err(self.err_already_exists(path));
            }
        }
        let id = self.new_inode(
            InodeKind::File {
                size: 0,
                blocks: Vec::new(),
            },
            owner,
            now_ns,
        );
        if let InodeKind::Dir { entries } = &mut self.inode_mut(parent)?.kind {
            entries.insert(nid, id);
        }
        Ok(EntryChange {
            id,
            parent,
            name: nid,
        })
    }

    /// `stat` by id (no resolution).
    pub fn stat_id(&self, id: InodeId) -> Result<FileAttr, FsError> {
        let ino = self.inode(id)?;
        Ok(FileAttr {
            inode: id,
            size: ino.size(),
            is_dir: ino.is_dir(),
            uid: ino.owner.uid,
            gid: ino.owner.gid,
            dn: ino.owner.dn.as_ref().map(|d| d.0.clone()),
            mtime_ns: ino.mtime_ns,
        })
    }

    /// `stat`.
    pub fn stat(&self, path: &str) -> Result<FileAttr, FsError> {
        let id = self.lookup(path)?;
        self.stat_id(id)
    }

    /// List a directory's entry names by id, sorted (hash-map entry order is
    /// arbitrary; readdir output is part of the observable results).
    pub fn readdir_id(&self, id: InodeId) -> Result<Vec<String>, FsError> {
        match &self.inode(id)?.kind {
            InodeKind::Dir { entries } => {
                let mut names: Vec<String> = entries
                    .keys()
                    .map(|&n| self.names.resolve(n).to_string())
                    .collect();
                names.sort_unstable();
                Ok(names)
            }
            InodeKind::File { .. } => Err(FsError::NotADirectory(format!("inode {}", id.0))),
        }
    }

    /// List a directory's entry names, sorted.
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, FsError> {
        let id = self.lookup(path)?;
        match &self.inode(id)?.kind {
            InodeKind::Dir { .. } => self.readdir_id(id),
            InodeKind::File { .. } => Err(self.err_not_a_directory(path)),
        }
    }

    /// Remove a file (frees its blocks) or an empty directory.
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        self.unlink_entry(path).map(|_| ())
    }

    /// Remove a file or empty directory, reporting the removed entry so
    /// callers can invalidate dentry caches.
    pub fn unlink_entry(&mut self, path: &str) -> Result<EntryChange, FsError> {
        let (parent, name) = self.parent_of(path)?;
        let id = match &self.inode(parent)?.kind {
            InodeKind::Dir { entries } => {
                let nid = self
                    .names
                    .get(name)
                    .ok_or_else(|| self.err_not_found(path))?;
                entries
                    .get(&nid)
                    .copied()
                    .ok_or_else(|| self.err_not_found(path))?
            }
            InodeKind::File { .. } => return Err(self.err_not_a_directory(path)),
        };
        let nid = self.names.get(name).expect("entry found above");
        match &self.inode(id)?.kind {
            InodeKind::Dir { entries } if !entries.is_empty() => {
                self.meta.bump_alloc(path.len());
                return Err(FsError::NotEmpty(path.to_string()));
            }
            _ => {}
        }
        // Free data blocks.
        if let InodeKind::File { blocks, .. } = &self.inode(id)?.kind {
            for addr in blocks.iter().flatten().copied().collect::<Vec<_>>() {
                self.alloc[addr.nsd as usize].free(addr.block);
                self.data[addr.nsd as usize].remove(&addr.block);
            }
        }
        if let InodeKind::Dir { entries } = &mut self.inode_mut(parent)?.kind {
            entries.remove(&nid);
        }
        self.inodes[id.0 as usize] = None;
        self.ns_gen += 1;
        Ok(EntryChange {
            id,
            parent,
            name: nid,
        })
    }

    /// Rename a file or directory (same-filesystem move).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        self.rename_entry(from, to).map(|_| ())
    }

    /// Rename, reporting both entries for dentry invalidation.
    ///
    /// POSIX semantics: an existing target is atomically replaced (file over
    /// file; directory over *empty* directory), renaming a path onto itself
    /// is a no-op success, and moving a directory into its own subtree is
    /// rejected (`InvalidArgument`) — the cycle check walks the destination's
    /// parent chain, which is exactly the to-path's directory prefix since
    /// paths here have no `..` components.
    pub fn rename_entry(&mut self, from: &str, to: &str) -> Result<RenameChange, FsError> {
        let id = self.lookup(from)?;
        let (from_parent, from_name) = self.parent_of(from)?;
        let from_nid = self.names.get(from_name).expect("resolved above");
        let (to_parent, to_name) = self.parent_of(to)?;
        if !self.inode(to_parent)?.is_dir() {
            return Err(self.err_not_a_directory(to));
        }
        let src_is_dir = self.inode(id)?.is_dir();
        if src_is_dir {
            // Walk the destination's directory prefix; hitting `id` means
            // `to` lives inside the tree being moved.
            let trimmed = to.trim_end_matches('/');
            let cut = trimmed.rfind('/').expect("validated absolute above");
            let mut cur = ROOT;
            let mut cycle = cur == id;
            for comp in trimmed[..cut].split('/') {
                if comp.is_empty() {
                    continue;
                }
                cur = self.step(cur, comp, to)?;
                cycle |= cur == id;
            }
            if cycle {
                self.meta.bump_alloc(from.len() + to.len());
                return Err(FsError::InvalidArgument(format!(
                    "rename would create a cycle: {from} -> {to}"
                )));
            }
        }
        let to_nid = self.names.intern(to_name);
        let existing = match &self.inode(to_parent)?.kind {
            InodeKind::Dir { entries } => entries.get(&to_nid).copied(),
            InodeKind::File { .. } => unreachable!("checked is_dir above"),
        };
        let mut replaced = None;
        if let Some(tid) = existing {
            if tid == id {
                // Renaming a path onto itself: POSIX says do nothing.
                return Ok(RenameChange {
                    id,
                    from_parent,
                    from_name: from_nid,
                    to_parent,
                    to_name: to_nid,
                    replaced: None,
                });
            }
            match &self.inode(tid)?.kind {
                InodeKind::Dir { entries } => {
                    if !src_is_dir {
                        self.meta.bump_alloc(to.len());
                        return Err(FsError::IsADirectory(to.to_string()));
                    }
                    if !entries.is_empty() {
                        self.meta.bump_alloc(to.len());
                        return Err(FsError::NotEmpty(to.to_string()));
                    }
                }
                InodeKind::File { .. } => {
                    if src_is_dir {
                        return Err(self.err_not_a_directory(to));
                    }
                }
            }
            // Atomic replace: the target inode dies; free its blocks.
            if let InodeKind::File { blocks, .. } = &self.inode(tid)?.kind {
                for addr in blocks.iter().flatten().copied().collect::<Vec<_>>() {
                    self.alloc[addr.nsd as usize].free(addr.block);
                    self.data[addr.nsd as usize].remove(&addr.block);
                }
            }
            self.inodes[tid.0 as usize] = None;
            replaced = Some(tid);
        }
        if let InodeKind::Dir { entries } = &mut self.inode_mut(from_parent)?.kind {
            entries.remove(&from_nid);
        }
        if let InodeKind::Dir { entries } = &mut self.inode_mut(to_parent)?.kind {
            entries.insert(to_nid, id);
        }
        self.ns_gen += 1;
        Ok(RenameChange {
            id,
            from_parent,
            from_name: from_nid,
            to_parent,
            to_name: to_nid,
            replaced,
        })
    }

    // ------------------------------------------------------------------
    // Block mapping and data
    // ------------------------------------------------------------------

    /// The block addresses covering byte range `[offset, offset+len)`, one
    /// entry per block index (None for holes or past EOF).
    pub fn block_map(
        &self,
        inode: InodeId,
        offset: u64,
        len: u64,
    ) -> Result<Vec<(u64, Option<BlockAddr>)>, FsError> {
        let bs = self.config.block_size;
        let ino = self.inode(inode)?;
        let InodeKind::File { blocks, .. } = &ino.kind else {
            return Err(FsError::IsADirectory(format!("inode {}", inode.0)));
        };
        let first = offset / bs;
        let last = (offset + len).div_ceil(bs);
        Ok((first..last)
            .map(|b| (b, blocks.get(b as usize).copied().flatten()))
            .collect())
    }

    /// Ensure a block exists for writing at `block_idx`, allocating with
    /// round-robin striping (`(inode + block) % nsd_count` picks the NSD, as
    /// GPFS round-robins a file's blocks across the stripe group).
    pub fn ensure_block(&mut self, inode: InodeId, block_idx: u64) -> Result<BlockAddr, FsError> {
        let nsd_count = self.config.nsd_count;
        let start_nsd = ((inode.0 + block_idx) % nsd_count as u64) as u32;
        {
            let ino = self.inode(inode)?;
            let InodeKind::File { blocks, .. } = &ino.kind else {
                return Err(FsError::IsADirectory(format!("inode {}", inode.0)));
            };
            if let Some(Some(addr)) = blocks.get(block_idx as usize) {
                return Ok(*addr);
            }
        }
        // Try the home NSD first, then spill round-robin (GPFS does the
        // same when a disk fills).
        let mut chosen = None;
        for i in 0..nsd_count {
            let nsd = (start_nsd + i) % nsd_count;
            if let Some(b) = self.alloc[nsd as usize].alloc() {
                chosen = Some(BlockAddr { nsd, block: b });
                break;
            }
        }
        let addr = chosen.ok_or(FsError::NoSpace)?;
        let ino = self.inode_mut(inode)?;
        let InodeKind::File { blocks, .. } = &mut ino.kind else {
            unreachable!("checked above");
        };
        if blocks.len() <= block_idx as usize {
            blocks.resize(block_idx as usize + 1, None);
        }
        blocks[block_idx as usize] = Some(addr);
        Ok(addr)
    }

    /// Record a write's effect on file size and mtime.
    pub fn note_write(
        &mut self,
        inode: InodeId,
        offset: u64,
        len: u64,
        now_ns: u64,
    ) -> Result<(), FsError> {
        let ino = self.inode_mut(inode)?;
        let InodeKind::File { size, .. } = &mut ino.kind else {
            return Err(FsError::IsADirectory(format!("inode {}", inode.0)));
        };
        *size = (*size).max(offset + len);
        ino.mtime_ns = now_ns;
        Ok(())
    }

    /// Truncate to `new_size`, freeing whole blocks beyond it.
    pub fn truncate(&mut self, inode: InodeId, new_size: u64, now_ns: u64) -> Result<(), FsError> {
        let bs = self.config.block_size;
        let keep_blocks = new_size.div_ceil(bs) as usize;
        let freed: Vec<BlockAddr> = {
            let ino = self.inode_mut(inode)?;
            let InodeKind::File { size, blocks } = &mut ino.kind else {
                return Err(FsError::IsADirectory(format!("inode {}", inode.0)));
            };
            *size = new_size;
            ino.mtime_ns = now_ns;
            if blocks.len() > keep_blocks {
                blocks.drain(keep_blocks..).flatten().collect()
            } else {
                // Truncate-up: extend coverage with holes so the size
                // invariant (`size <= blocks.len() * block_size`) holds.
                blocks.resize(keep_blocks, None);
                Vec::new()
            }
        };
        for addr in freed {
            self.alloc[addr.nsd as usize].free(addr.block);
            self.data[addr.nsd as usize].remove(&addr.block);
        }
        // Zero the tail of a partial final block: bytes past the new EOF
        // must read as zeros if the file is later extended (POSIX
        // truncate semantics). Only stored data needs the scrub.
        if self.config.data_mode == DataMode::Stored && !new_size.is_multiple_of(bs) {
            let last_idx = (new_size / bs) as usize;
            let addr = {
                let ino = self.inode(inode)?;
                let InodeKind::File { blocks, .. } = &ino.kind else {
                    unreachable!("checked above");
                };
                blocks.get(last_idx).copied().flatten()
            };
            if let Some(addr) = addr {
                let data = self.get_block_data(addr);
                let keep = (new_size % bs) as usize;
                if data.len() > keep {
                    let mut scrubbed = Vec::with_capacity(data.len());
                    scrubbed.extend_from_slice(&data[..keep]);
                    scrubbed.resize(data.len(), 0);
                    self.put_block_data(addr, Bytes::from(scrubbed));
                }
            }
        }
        Ok(())
    }

    /// `mmadddisk`: grow the stripe group by `count` new NSDs of the
    /// configured size. New allocations immediately use them; existing
    /// data stays where it is until [`FsCore::restripe`].
    pub fn add_nsds(&mut self, count: u32) {
        assert!(count > 0);
        for _ in 0..count {
            self.alloc.push(NsdAlloc {
                total_blocks: self.config.nsd_blocks,
                next: 0,
                freed: Vec::new(),
            });
            self.data.push(FxHashMap::default());
        }
        self.config.nsd_count += count;
    }

    /// `mmrestripefs -b`: rebalance every file's blocks across the
    /// (possibly grown) stripe group, moving data so that consecutive
    /// blocks round-robin over all NSDs again. Returns the number of
    /// blocks that physically moved (the I/O a real restripe would do).
    pub fn restripe(&mut self) -> u64 {
        let nsd_count = self.config.nsd_count;
        let ids: Vec<InodeId> = self.live_inodes().collect();
        let mut moved = 0u64;
        for id in ids {
            let block_count = {
                let Ok(ino) = self.inode(id) else { continue };
                match &ino.kind {
                    InodeKind::File { blocks, .. } => blocks.len() as u64,
                    InodeKind::Dir { .. } => continue,
                }
            };
            for b in 0..block_count {
                let home = ((id.0 + b) % u64::from(nsd_count)) as u32;
                let cur = {
                    let InodeKind::File { blocks, .. } = &self.inode(id).expect("live").kind
                    else {
                        unreachable!()
                    };
                    blocks[b as usize]
                };
                let Some(cur) = cur else { continue };
                if cur.nsd == home {
                    continue;
                }
                // Move the block home if the home NSD has space.
                let Some(new_block) = self.alloc[home as usize].alloc() else {
                    continue;
                };
                let new_addr = BlockAddr {
                    nsd: home,
                    block: new_block,
                };
                // Relocate stored data, free the old block.
                if let Some(data) = self.data[cur.nsd as usize].remove(&cur.block) {
                    self.data[new_addr.nsd as usize].insert(new_addr.block, data);
                }
                self.alloc[cur.nsd as usize].free(cur.block);
                let ino = self.inode_mut(id).expect("live");
                let InodeKind::File { blocks, .. } = &mut ino.kind else {
                    unreachable!()
                };
                blocks[b as usize] = Some(new_addr);
                moved += 1;
            }
        }
        moved
    }

    /// Per-NSD used-block counts (for balance reporting).
    pub fn nsd_usage(&self) -> Vec<u64> {
        self.alloc
            .iter()
            .map(|a| a.total_blocks - a.free_count())
            .collect()
    }

    /// Ids of all live inodes (for `fsck` and statistics).
    pub fn live_inodes(&self) -> impl Iterator<Item = InodeId> + '_ {
        self.inodes
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_some())
            .map(|(idx, _)| InodeId(idx as u64))
    }

    /// Structural fingerprint of the whole namespace: a name-sorted
    /// recursive walk from the root mixing every entry's name, kind, and
    /// file size. Two cores fingerprint equal iff their visible trees agree
    /// — the chaos harness compares a crash-recovered namespace against a
    /// fault-free oracle run with this. Timestamps are deliberately
    /// excluded: a retried op lands at a later sim-time than in the oracle
    /// run, but must produce the same tree.
    pub fn tree_fingerprint(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        }
        fn walk(fs: &FsCore, id: InodeId, mut h: u64) -> u64 {
            let ino = fs.inode(id).expect("walk only visits live inodes");
            match &ino.kind {
                InodeKind::File { size, .. } => {
                    h = mix(h, 1);
                    h = mix(h, *size);
                }
                InodeKind::Dir { entries } => {
                    h = mix(h, 2);
                    let mut named: Vec<(&str, InodeId)> = entries
                        .iter()
                        .map(|(&n, &c)| (fs.names.resolve(n), c))
                        .collect();
                    named.sort_unstable_by_key(|&(n, _)| n);
                    for (name, child) in named {
                        h = mix(h, name.len() as u64);
                        for b in name.bytes() {
                            h = mix(h, u64::from(b));
                        }
                        h = walk(fs, child, h);
                    }
                }
            }
            h
        }
        walk(self, ROOT, 0xcbf2_9ce4_8422_2325)
    }

    /// Child of directory `parent` named `name`, if both exist — the oracle
    /// the chaos harness audits client dentry caches against.
    pub fn dir_child(&self, parent: InodeId, name: NameId) -> Option<InodeId> {
        match &self.inode(parent).ok()?.kind {
            InodeKind::Dir { entries } => entries.get(&name).copied(),
            InodeKind::File { .. } => None,
        }
    }

    /// Test hook: overwrite a block pointer without freeing the old block,
    /// simulating metadata corruption for `fsck` validation.
    #[doc(hidden)]
    pub fn corrupt_block_pointer_for_test(
        &mut self,
        inode: InodeId,
        block_idx: u64,
        addr: BlockAddr,
    ) {
        let ino = self.inode_mut(inode).expect("inode exists");
        let InodeKind::File { blocks, .. } = &mut ino.kind else {
            panic!("not a file");
        };
        blocks[block_idx as usize] = Some(addr);
    }

    /// Store a block payload (Stored mode only; Synthetic is a no-op).
    pub fn put_block_data(&mut self, addr: BlockAddr, data: Bytes) {
        if self.config.data_mode == DataMode::Stored {
            if let Some(shard) = self.data.get_mut(addr.nsd as usize) {
                shard.insert(addr.block, data);
            }
        }
    }

    /// A refcounted all-zeros block payload (holes and past-EOF reads hand
    /// out slices of this instead of allocating).
    pub fn zero_block(&self) -> Bytes {
        self.zero_block.clone()
    }

    /// Fetch a block payload; absent blocks read as zeros in Stored mode.
    pub fn get_block_data(&self, addr: BlockAddr) -> Bytes {
        match self.config.data_mode {
            DataMode::Stored => self
                .data
                .get(addr.nsd as usize)
                .and_then(|shard| shard.get(&addr.block))
                .cloned()
                .unwrap_or_else(|| self.zero_block.clone()),
            DataMode::Synthetic => self.zero_block.clone(),
        }
    }

    /// Payloads of `n` disk-contiguous blocks starting at `addr`, one
    /// `Bytes` handle per block — the scatter-gather list an NSD server
    /// returns for a coalesced multi-block read. No payload is copied.
    pub fn get_block_run(&self, addr: BlockAddr, n: u64) -> Vec<Bytes> {
        (0..n)
            .map(|i| {
                self.get_block_data(BlockAddr {
                    nsd: addr.nsd,
                    block: addr.block + i,
                })
            })
            .collect()
    }

    /// Store the payloads of `n` disk-contiguous blocks starting at `addr`
    /// (the write half of a scatter-gather request). Payload handles are
    /// moved, not copied.
    pub fn put_block_run(&mut self, addr: BlockAddr, payloads: Vec<Bytes>) {
        for (i, data) in payloads.into_iter().enumerate() {
            self.put_block_data(
                BlockAddr {
                    nsd: addr.nsd,
                    block: addr.block + i as u64,
                },
                data,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> FsCore {
        FsCore::create(FsConfig::small_test("t"))
    }

    fn owner() -> Owner {
        Owner::local(500, 100)
    }

    #[test]
    fn shard_map_routes_by_top_component() {
        let mut sm = ShardMap::default();
        // Unsharded: everything is shard 0, whatever the path.
        assert_eq!(sm.shard_of("/a/b/c"), 0);
        sm.set_shards(4);
        // Same top component → same shard, at any depth.
        let s = sm.shard_of("/proj");
        assert_eq!(sm.shard_of("/proj/sub/file"), s);
        assert_eq!(sm.shard_of("proj"), s);
        // Root itself stays on shard 0.
        assert_eq!(sm.shard_of("/"), 0);
        // Overrides beat the hash, and wrap modulo the shard count.
        sm.assign("proj", 7);
        assert_eq!(sm.shard_of("/proj/x"), 3);
        // Placement must spread a small alphabet over all shards.
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..16 {
            seen.insert(sm.shard_of(&format!("/t{t:02}")));
        }
        assert_eq!(seen.len(), 4, "16 tops should land on all 4 shards");
    }

    #[test]
    fn shard_map_rebalances_hotspots_deterministically() {
        let mut sm = ShardMap::default();
        sm.set_shards(2);
        // Shard 0 carries two subtrees (350 + 250), shard 1 one (100).
        sm.assign("a", 0);
        sm.assign("b", 0);
        sm.assign("c", 1);
        for _ in 0..350 {
            sm.note_heat("/a/f");
        }
        for _ in 0..250 {
            sm.note_heat("/b/f");
        }
        for _ in 0..100 {
            sm.note_heat("/c/f");
        }
        assert_eq!(sm.heat_of("a"), 350);
        // Gap is 500; moving the hottest subtree "a" (350) narrows it, so
        // that is the deterministic move: a → shard 1 (250 vs 450 after).
        let mv = sm.rebalance().expect("imbalance must produce a move");
        assert_eq!(mv, ("a".into(), 0, 1));
        assert_eq!(sm.shard_of("/a/f"), 1);
        // Commit aged the epoch geometrically (÷8): a=43, b=31, c=12.
        // Shard 1 (a+c = 55) is still hot over shard 0 (b = 31); "a"
        // overshoots the gap of 24 and is also blocked by the ping-pong
        // guard, so the cooler "c" narrows it instead.
        assert_eq!(sm.rebalance(), Some(("c".into(), 1, 0)));
        // Another decay (a=5, b=3, c=1) drops the gap under the 1.5×
        // hysteresis: no further move.
        assert_eq!(sm.rebalance(), None);
    }

    #[test]
    fn heat_decay_keeps_sustained_hot_subtree_visible() {
        let mut sm = ShardMap::default();
        sm.set_shards(2);
        sm.assign("hot", 0);
        sm.assign("warm", 0);
        sm.assign("cold", 1);
        for _ in 0..4000 {
            sm.note_heat("/hot/f");
        }
        for _ in 0..900 {
            sm.note_heat("/warm/f");
        }
        for _ in 0..100 {
            sm.note_heat("/cold/f");
        }
        // gap = 4800; "hot" (4000 < 4800) narrows it and is the hottest
        // movable subtree, so it is the deterministic move.
        let (top, _, _) = sm.rebalance().expect("hotspot must move");
        assert_eq!(&*top, "hot");
        // The wholesale-clear policy would leave heat_of("hot") == 0 here
        // and the planner blind until new traffic votes. Geometric aging
        // keeps the sustained-hot subtree visibly hot across the commit.
        assert_eq!(sm.heat_of("hot"), 500);
        assert_eq!(sm.heat_of("warm"), 112);
        assert!(
            sm.heat_of("hot") > sm.heat_of("warm") + sm.heat_of("cold"),
            "sustained-hot subtree must stay the dominant signal after a commit"
        );
        // And fresh traffic accumulates on top of the aged base, not a
        // cleared epoch.
        for _ in 0..10 {
            sm.note_heat("/hot/f");
        }
        assert_eq!(sm.heat_of("hot"), 510);
    }

    #[test]
    fn multi_move_plan_closes_gap_one_move_cannot() {
        let mut sm = ShardMap::default();
        sm.set_shards(2);
        for t in ["a", "b", "c", "d"] {
            sm.assign(t, 0);
        }
        sm.assign("e", 1);
        // Shard 0: 4 × 300 = 1200; shard 1: 100. Gap 1100. A single move
        // narrows it to 500 — still over the 1.5× hysteresis, so one move
        // per drain cycle leaves the imbalance standing.
        for t in ["a", "b", "c", "d"] {
            for _ in 0..300 {
                sm.note_heat(&format!("/{t}/f"));
            }
        }
        for _ in 0..100 {
            sm.note_heat("/e/f");
        }
        let single = sm.plan_rebalance_moves(1);
        assert_eq!(single.len(), 1);
        // Top-K planning drains the gap in one cycle: a (gap 1100),
        // b (gap 500) — after which 600 vs 700 is inside hysteresis.
        let moves = sm.plan_rebalance_moves(4);
        assert_eq!(
            moves,
            vec![("a".into(), 0, 1), ("b".into(), 0, 1)],
            "plan must move exactly the top-2 hottest subtrees"
        );
        // Every planned move individually narrows the simulated gap
        // (the no-ping-pong movability rule, applied per pick).
        sm.commit_moves(&moves);
        assert_eq!(sm.migrations(), 2);
        assert_eq!(sm.shard_of("/a/x"), 1);
        assert_eq!(sm.shard_of("/b/x"), 1);
        // Post-commit loads (aged ÷8): shard 0 = c+d = 74, shard 1 =
        // a+b+e = 86 — balanced inside hysteresis, no further move.
        assert_eq!(sm.plan_rebalance_moves(4), Vec::new());
    }

    #[test]
    fn shard_map_adversarial_alternation_cannot_ping_pong() {
        // Property: an adversary that alternates the hot side every round
        // cannot make the policy thrash. Three sub-properties, checked
        // over 200 rounds of LCG-jittered adversarial heat:
        //   1. every committed move strictly narrows the pre-move load gap
        //      (the `h < gap` movability rule guarantees |gap − 2h| < gap);
        //   2. no subtree ever bounces straight back where it came from on
        //      the next migration (the one-step-memory guard);
        //   3. total migrations stay bounded well below the round count
        //      (the 1.5× hysteresis refuses noise-level gaps).
        let mut sm = ShardMap::default();
        sm.set_shards(2);
        let tops = ["a", "b", "c", "d", "e", "f"];
        for (i, t) in tops.iter().enumerate() {
            sm.assign(*t, (i % 2) as u32);
        }
        let loads = |sm: &ShardMap| {
            let mut l = [0u64; 2];
            for t in tops {
                l[sm.shard_of(t) as usize] += sm.heat_of(t);
            }
            l
        };
        let mut lcg: u64 = 0x243F_6A88_85A3_08D3;
        let mut step = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut last: Option<(Box<str>, u32, u32)> = None;
        let mut committed = 0u64;
        for round in 0..200u32 {
            // The adversary pours heat on an alternating side, jittering
            // which subtrees and how much; the cool side gets a trickle.
            let hot_side = round % 2;
            for _ in 0..3 {
                let pick = tops[step() as usize % tops.len()];
                let n = 50 + step() % 200;
                let votes = if sm.shard_of(pick) == hot_side { n } else { n / 4 };
                for _ in 0..votes {
                    sm.note_heat(&format!("/{pick}/f"));
                }
            }
            if let Some((top, from, to)) = sm.plan_rebalance() {
                let before = loads(&sm);
                let gap = before[from as usize].abs_diff(before[to as usize]);
                let h = sm.heat_of(&top);
                let after = (before[from as usize] - h).abs_diff(before[to as usize] + h);
                assert!(
                    after < gap,
                    "round {round}: moving {top} widens the gap ({gap} -> {after})"
                );
                if let Some((pt, pf, pto)) = &last {
                    assert!(
                        !(*pt == top && *pto == from && *pf == to),
                        "round {round}: {top} bounced straight back {from} -> {to}"
                    );
                }
                last = Some((top.clone(), from, to));
                sm.commit_move(&top, to);
                committed += 1;
            }
        }
        assert_eq!(committed, sm.migrations());
        assert!(
            committed <= 100,
            "adversarial alternation forced {committed} migrations in 200 rounds"
        );
        assert!(committed >= 1, "the adversary's hotspots must draw some response");
    }

    #[test]
    fn top_component_trims_slashes() {
        assert_eq!(top_component("/a/b"), "a");
        assert_eq!(top_component("a/b"), "a");
        assert_eq!(top_component("/"), "");
        assert_eq!(top_component(""), "");
        assert_eq!(top_component("solo"), "solo");
    }

    #[test]
    fn mkdir_create_lookup() {
        let mut f = fs();
        f.mkdir("/data", owner(), 1).unwrap();
        f.mkdir("/data/nvo", owner(), 2).unwrap();
        let id = f.create_file("/data/nvo/catalog.fits", owner(), 3).unwrap();
        assert_eq!(f.lookup("/data/nvo/catalog.fits").unwrap(), id);
        assert_eq!(f.readdir("/data").unwrap(), vec!["nvo".to_string()]);
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut f = fs();
        f.create_file("/a", owner(), 1).unwrap();
        assert_eq!(
            f.create_file("/a", owner(), 2),
            Err(FsError::AlreadyExists("/a".into()))
        );
        assert_eq!(
            f.mkdir("/a", owner(), 2),
            Err(FsError::AlreadyExists("/a".into()))
        );
    }

    #[test]
    fn lookup_through_file_fails() {
        let mut f = fs();
        f.create_file("/a", owner(), 1).unwrap();
        assert!(matches!(
            f.lookup("/a/b"),
            Err(FsError::NotADirectory(_))
        ));
    }

    #[test]
    fn missing_parent_fails() {
        let mut f = fs();
        assert!(matches!(
            f.create_file("/no/such/file", owner(), 1),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn readdir_is_sorted() {
        // Hash-map entry order is arbitrary; readdir must sort.
        let mut f = fs();
        f.mkdir("/d", owner(), 1).unwrap();
        for name in ["zeta", "alpha", "mu", "beta", "omega"] {
            f.create_file(&format!("/d/{name}"), owner(), 2).unwrap();
        }
        assert_eq!(
            f.readdir("/d").unwrap(),
            vec!["alpha", "beta", "mu", "omega", "zeta"]
        );
    }

    #[test]
    fn names_interned_once() {
        let mut f = fs();
        f.mkdir("/a", owner(), 1).unwrap();
        f.mkdir("/a/a", owner(), 2).unwrap();
        f.create_file("/a/a/a", owner(), 3).unwrap();
        // One distinct component name → one interned entry.
        assert_eq!(f.names.len(), 1);
        let snap = f.meta_snapshot();
        assert_eq!(snap.interned_names, 1);
        assert!(snap.resolves >= 3);
    }

    #[test]
    fn successful_lookup_allocates_nothing() {
        let mut f = fs();
        f.mkdir("/deep", owner(), 1).unwrap();
        f.create_file("/deep/file", owner(), 2).unwrap();
        let before = f.meta.resolve_alloc_bytes.get();
        for _ in 0..100 {
            f.lookup("/deep/file").unwrap();
        }
        assert_eq!(
            f.meta.resolve_alloc_bytes.get(),
            before,
            "hot-path lookups must not allocate"
        );
        // Error paths do render (and count) the path.
        assert!(f.lookup("/deep/missing").is_err());
        assert!(f.meta.resolve_alloc_bytes.get() > before);
    }

    #[test]
    fn lookup_never_interns() {
        let mut f = fs();
        f.mkdir("/a", owner(), 1).unwrap();
        let n = f.names.len();
        assert!(f.lookup("/never-created").is_err());
        assert!(f.stat("/also/not/here").is_err());
        assert_eq!(f.names.len(), n, "resolution must not grow the intern table");
    }

    #[test]
    fn striping_round_robins_across_nsds() {
        let mut f = fs();
        let id = f.create_file("/big", owner(), 1).unwrap();
        let addrs: Vec<BlockAddr> = (0..8).map(|b| f.ensure_block(id, b).unwrap()).collect();
        let nsds: std::collections::BTreeSet<u32> = addrs.iter().map(|a| a.nsd).collect();
        assert_eq!(nsds.len(), 8, "8 consecutive blocks hit 8 distinct NSDs");
    }

    #[test]
    fn ensure_block_is_idempotent() {
        let mut f = fs();
        let id = f.create_file("/x", owner(), 1).unwrap();
        let a1 = f.ensure_block(id, 0).unwrap();
        let a2 = f.ensure_block(id, 0).unwrap();
        assert_eq!(a1, a2);
    }

    #[test]
    fn size_and_mtime_track_writes() {
        let mut f = fs();
        let id = f.create_file("/x", owner(), 1).unwrap();
        f.note_write(id, 100, 50, 7).unwrap();
        let st = f.stat("/x").unwrap();
        assert_eq!(st.size, 150);
        assert_eq!(st.mtime_ns, 7);
        // Overlapping earlier write doesn't shrink.
        f.note_write(id, 0, 10, 9).unwrap();
        assert_eq!(f.stat("/x").unwrap().size, 150);
    }

    #[test]
    fn block_map_reports_holes() {
        let mut f = fs();
        let id = f.create_file("/sparse", owner(), 1).unwrap();
        let bs = f.config.block_size;
        f.ensure_block(id, 2).unwrap();
        f.note_write(id, 2 * bs, bs, 2).unwrap();
        let map = f.block_map(id, 0, 3 * bs).unwrap();
        assert_eq!(map.len(), 3);
        assert!(map[0].1.is_none());
        assert!(map[1].1.is_none());
        assert!(map[2].1.is_some());
    }

    #[test]
    fn unlink_frees_blocks() {
        let mut f = fs();
        let before = f.free_blocks();
        let id = f.create_file("/x", owner(), 1).unwrap();
        for b in 0..10 {
            f.ensure_block(id, b).unwrap();
        }
        assert_eq!(f.free_blocks(), before - 10);
        f.unlink("/x").unwrap();
        assert_eq!(f.free_blocks(), before);
        assert!(f.lookup("/x").is_err());
    }

    #[test]
    fn unlink_nonempty_dir_rejected() {
        let mut f = fs();
        f.mkdir("/d", owner(), 1).unwrap();
        f.create_file("/d/x", owner(), 2).unwrap();
        assert!(matches!(f.unlink("/d"), Err(FsError::NotEmpty(_))));
        f.unlink("/d/x").unwrap();
        f.unlink("/d").unwrap();
    }

    #[test]
    fn truncate_frees_tail() {
        let mut f = fs();
        let id = f.create_file("/x", owner(), 1).unwrap();
        let bs = f.config.block_size;
        for b in 0..4 {
            f.ensure_block(id, b).unwrap();
        }
        f.note_write(id, 0, 4 * bs, 2).unwrap();
        let before = f.free_blocks();
        f.truncate(id, bs + 1, 3).unwrap();
        assert_eq!(f.free_blocks(), before + 2); // blocks 2,3 freed
        assert_eq!(f.stat("/x").unwrap().size, bs + 1);
    }

    #[test]
    fn rename_moves_entry() {
        let mut f = fs();
        f.mkdir("/a", owner(), 1).unwrap();
        f.mkdir("/b", owner(), 1).unwrap();
        let id = f.create_file("/a/x", owner(), 2).unwrap();
        f.rename("/a/x", "/b/y").unwrap();
        assert!(f.lookup("/a/x").is_err());
        assert_eq!(f.lookup("/b/y").unwrap(), id);
    }

    #[test]
    fn rename_replaces_file_and_frees_its_blocks() {
        let mut f = fs();
        let before = f.free_blocks();
        let src = f.create_file("/src", owner(), 1).unwrap();
        let dst = f.create_file("/dst", owner(), 1).unwrap();
        for b in 0..6 {
            f.ensure_block(dst, b).unwrap();
        }
        f.note_write(dst, 0, 6 * f.config.block_size, 2).unwrap();
        assert_eq!(f.free_blocks(), before - 6);
        let ch = f.rename_entry("/src", "/dst").unwrap();
        assert_eq!(ch.replaced, Some(dst));
        // The replaced file's blocks are back on the free list, its inode
        // slot is dead, and the source now answers at the destination.
        assert_eq!(f.free_blocks(), before);
        assert!(f.stat_id(dst).is_err());
        assert!(f.lookup("/src").is_err());
        assert_eq!(f.lookup("/dst").unwrap(), src);
        assert!(crate::fsck::fsck(&f).is_clean());
    }

    #[test]
    fn rename_replaces_empty_dir_but_not_nonempty() {
        let mut f = fs();
        f.mkdir("/a", owner(), 1).unwrap();
        f.mkdir("/empty", owner(), 1).unwrap();
        f.mkdir("/full", owner(), 1).unwrap();
        f.create_file("/full/x", owner(), 2).unwrap();
        assert!(matches!(
            f.rename("/a", "/full"),
            Err(FsError::NotEmpty(_))
        ));
        let a = f.lookup("/a").unwrap();
        let ch = f.rename_entry("/a", "/empty").unwrap();
        assert!(ch.replaced.is_some());
        assert_eq!(f.lookup("/empty").unwrap(), a);
        assert!(f.lookup("/a").is_err());
        assert!(crate::fsck::fsck(&f).is_clean());
    }

    #[test]
    fn rename_kind_mismatch_rejected() {
        let mut f = fs();
        f.mkdir("/d", owner(), 1).unwrap();
        f.create_file("/f", owner(), 1).unwrap();
        // File over directory: EISDIR. Directory over file: ENOTDIR.
        assert!(matches!(
            f.rename("/f", "/d"),
            Err(FsError::IsADirectory(_))
        ));
        assert!(matches!(
            f.rename("/d", "/f"),
            Err(FsError::NotADirectory(_))
        ));
        // Both survive untouched.
        assert!(f.lookup("/d").is_ok());
        assert!(f.lookup("/f").is_ok());
    }

    #[test]
    fn rename_into_own_subtree_rejected() {
        let mut f = fs();
        f.mkdir("/a", owner(), 1).unwrap();
        f.mkdir("/a/b", owner(), 1).unwrap();
        f.mkdir("/a/b/c", owner(), 1).unwrap();
        for to in ["/a/d", "/a/b/d", "/a/b/c/d"] {
            assert!(
                matches!(f.rename("/a", to), Err(FsError::InvalidArgument(_))),
                "rename /a -> {to} must be a cycle error"
            );
        }
        // A *file* inside the moved dir's old location is fine, as is
        // moving a dir sideways.
        f.mkdir("/e", owner(), 1).unwrap();
        f.rename("/a/b", "/e/b").unwrap();
        assert!(f.lookup("/e/b/c").is_ok());
        assert!(crate::fsck::fsck(&f).is_clean());
    }

    #[test]
    fn rename_onto_itself_is_noop() {
        let mut f = fs();
        f.mkdir("/d", owner(), 1).unwrap();
        let id = f.create_file("/d/x", owner(), 2).unwrap();
        let gen_before = f.ns_gen();
        let ch = f.rename_entry("/d/x", "/d/x").unwrap();
        assert_eq!(ch.id, id);
        assert_eq!(ch.replaced, None);
        assert_eq!(f.lookup("/d/x").unwrap(), id);
        assert_eq!(
            f.ns_gen(),
            gen_before,
            "a no-op rename must not invalidate path caches"
        );
    }

    #[test]
    fn tree_fingerprint_tracks_visible_tree() {
        let mut a = fs();
        let mut b = fs();
        for f in [&mut a, &mut b] {
            f.mkdir("/d", owner(), 1).unwrap();
            f.create_file("/d/x", owner(), 2).unwrap();
        }
        assert_eq!(a.tree_fingerprint(), b.tree_fingerprint());
        // Same shape built in a different op order converges.
        let mut c = fs();
        c.mkdir("/d", owner(), 9).unwrap();
        c.create_file("/d/y", owner(), 9).unwrap();
        c.create_file("/d/x", owner(), 9).unwrap();
        c.unlink("/d/y").unwrap();
        assert_eq!(a.tree_fingerprint(), c.tree_fingerprint());
        // Any visible difference moves it: extra entry, different name,
        // different size.
        b.create_file("/d/z", owner(), 3).unwrap();
        assert_ne!(a.tree_fingerprint(), b.tree_fingerprint());
        let id = a.lookup("/d/x").unwrap();
        a.note_write(id, 0, 100, 4).unwrap();
        assert_ne!(a.tree_fingerprint(), c.tree_fingerprint());
    }

    #[test]
    fn stored_data_roundtrip() {
        let mut f = fs();
        let id = f.create_file("/x", owner(), 1).unwrap();
        let addr = f.ensure_block(id, 0).unwrap();
        let payload = Bytes::from(vec![0xabu8; f.config.block_size as usize]);
        f.put_block_data(addr, payload.clone());
        assert_eq!(f.get_block_data(addr), payload);
    }

    #[test]
    fn unwritten_block_reads_zeros() {
        let mut f = fs();
        let id = f.create_file("/x", owner(), 1).unwrap();
        let addr = f.ensure_block(id, 0).unwrap();
        let z = f.get_block_data(addr);
        assert!(z.iter().all(|b| *b == 0));
        assert_eq!(z.len(), f.config.block_size as usize);
    }

    #[test]
    fn allocation_exhaustion_is_enospc() {
        let mut f = FsCore::create(FsConfig {
            name: "tiny".into(),
            block_size: 1024,
            nsd_blocks: 2,
            nsd_count: 2,
            data_mode: DataMode::Stored,
        });
        let id = f.create_file("/x", owner(), 1).unwrap();
        for b in 0..4 {
            f.ensure_block(id, b).unwrap();
        }
        assert_eq!(f.ensure_block(id, 4), Err(FsError::NoSpace));
        // Freeing makes space again.
        f.truncate(id, 0, 2).unwrap();
        assert!(f.ensure_block(id, 0).is_ok());
    }

    #[test]
    fn add_nsds_then_restripe_rebalances() {
        // The §8 expansion: start with 4 NSDs, fill a file, double the
        // stripe group, restripe, and verify the spread and the data.
        let mut f = FsCore::create(FsConfig {
            name: "grow".into(),
            block_size: 4096,
            nsd_blocks: 1024,
            nsd_count: 4,
            data_mode: DataMode::Stored,
        });
        let id = f.create_file("/big", owner(), 1).unwrap();
        for b in 0..64 {
            let addr = f.ensure_block(id, b).unwrap();
            f.put_block_data(addr, Bytes::from(vec![b as u8; 4096]));
        }
        f.note_write(id, 0, 64 * 4096, 2).unwrap();
        // All on the first 4 NSDs.
        let usage = f.nsd_usage();
        assert_eq!(usage.len(), 4);
        assert!(usage.iter().all(|u| *u == 16));

        f.add_nsds(4);
        assert_eq!(f.config.nsd_count, 8);
        let moved = f.restripe();
        assert!(moved > 0, "restripe moved nothing");
        // Balanced: every NSD now holds 8 blocks.
        let usage = f.nsd_usage();
        assert_eq!(usage.len(), 8);
        assert!(
            usage.iter().all(|u| *u == 8),
            "unbalanced after restripe: {usage:?}"
        );
        // Data survived the moves.
        for b in 0..64u64 {
            let addr = f.block_map(id, b * 4096, 1).unwrap()[0].1.unwrap();
            let data = f.get_block_data(addr);
            assert!(data.iter().all(|x| *x == b as u8), "block {b} corrupted");
        }
        // And the filesystem is still consistent.
        assert!(crate::fsck::fsck(&f).is_clean());
    }

    #[test]
    fn restripe_is_idempotent() {
        let mut f = fs();
        let id = f.create_file("/x", owner(), 1).unwrap();
        for b in 0..32 {
            f.ensure_block(id, b).unwrap();
        }
        assert_eq!(f.restripe(), 0, "balanced fs must not move blocks");
    }

    #[test]
    fn dn_ownership_recorded() {
        let mut f = fs();
        let dn = gfs_auth::identity::Dn::new("/C=US/O=SDSC/CN=Alice");
        f.create_file("/owned", Owner::grid(5012, 100, dn.clone()), 1)
            .unwrap();
        let st = f.stat("/owned").unwrap();
        assert_eq!(st.dn.as_deref(), Some("/C=US/O=SDSC/CN=Alice"));
        assert_eq!(st.uid, 5012);
    }

    #[test]
    fn dentry_cache_resolves_and_invalidates() {
        // lookup_via fills the cache; unlink/rename report the entries to
        // invalidate; after invalidation a resolution must miss, not serve
        // the stale inode.
        let fsid = FsId(0);
        let mut f = fs();
        let mut dc = DentryCache::new();
        f.mkdir("/d", owner(), 1).unwrap();
        let id = f.create_file("/d/x", owner(), 2).unwrap();

        assert_eq!(f.lookup_via(fsid, &mut dc, "/d/x").unwrap(), id);
        let (h0, m0) = (dc.hits, dc.misses);
        assert!(m0 >= 2, "cold walk misses every component");
        assert_eq!(f.lookup_via(fsid, &mut dc, "/d/x").unwrap(), id);
        assert_eq!(dc.hits, h0 + 1, "warm walk is one whole-path hit");
        assert_eq!(dc.misses, m0);

        // Remove: the reported entry invalidates the cached dentry.
        let change = f.unlink_entry("/d/x").unwrap();
        assert_eq!(change.id, id);
        dc.invalidate(fsid, change.parent, change.name);
        assert!(matches!(
            f.lookup_via(fsid, &mut dc, "/d/x"),
            Err(FsError::NotFound(_))
        ));

        // Rename: old path must stop resolving once invalidated; new path
        // resolves to the moved inode.
        let id2 = f.create_file("/d/y", owner(), 3).unwrap();
        assert_eq!(f.lookup_via(fsid, &mut dc, "/d/y").unwrap(), id2);
        let mv = f.rename_entry("/d/y", "/d/z").unwrap();
        dc.invalidate(fsid, mv.from_parent, mv.from_name);
        assert!(f.lookup_via(fsid, &mut dc, "/d/y").is_err());
        assert_eq!(f.lookup_via(fsid, &mut dc, "/d/z").unwrap(), id2);
    }

    #[test]
    fn path_cache_generation_invalidates_on_unlink_and_rename() {
        // The whole-path tier never receives per-entry invalidations; its
        // coherence is entirely the ns_gen tag. A cached path must read as a
        // miss after any unlink or rename, even one touching an unrelated
        // entry, and must never serve a stale inode for an affected one.
        let fsid = FsId(0);
        let mut f = fs();
        let mut dc = DentryCache::new();
        f.mkdir("/d", owner(), 1).unwrap();
        let x = f.create_file("/d/x", owner(), 2).unwrap();
        let y = f.create_file("/d/y", owner(), 3).unwrap();
        let g0 = f.ns_gen();

        // Warm both paths at generation g0.
        assert_eq!(f.lookup_via(fsid, &mut dc, "/d/x").unwrap(), x);
        assert_eq!(f.lookup_via(fsid, &mut dc, "/d/y").unwrap(), y);
        assert_eq!(dc.get_path(fsid, "/d/x", g0), Some(x));

        // Unlink /d/y: generation moves, so BOTH cached paths go stale —
        // including /d/x, which is still perfectly valid on disk.
        let ch = f.unlink_entry("/d/y").unwrap();
        dc.invalidate(fsid, ch.parent, ch.name);
        let g1 = f.ns_gen();
        assert!(g1 > g0);
        assert_eq!(dc.get_path(fsid, "/d/x", g1), None, "stale generation");
        // The walk re-resolves /d/x correctly and re-tags it at g1.
        assert_eq!(f.lookup_via(fsid, &mut dc, "/d/x").unwrap(), x);
        assert_eq!(dc.get_path(fsid, "/d/x", g1), Some(x));

        // mkdir/create do NOT bump the generation (positive mappings stay
        // correct when entries are only added).
        f.create_file("/d/w", owner(), 4).unwrap();
        assert_eq!(f.ns_gen(), g1);
        assert_eq!(dc.get_path(fsid, "/d/x", f.ns_gen()), Some(x));

        // Rename bumps it again; the old path must not resolve from cache.
        f.mkdir("/e", owner(), 5).unwrap();
        let mv = f.rename_entry("/d/x", "/e/x").unwrap();
        dc.invalidate(fsid, mv.from_parent, mv.from_name);
        assert_eq!(dc.get_path(fsid, "/d/x", f.ns_gen()), None);
        assert!(matches!(
            f.lookup_via(fsid, &mut dc, "/d/x"),
            Err(FsError::NotFound(_))
        ));
        assert_eq!(f.lookup_via(fsid, &mut dc, "/e/x").unwrap(), x);
    }

    #[test]
    fn stale_dentry_without_invalidation_would_lie() {
        // The negative control for the invalidation protocol: skip the
        // invalidate and the cache serves the removed inode — proving the
        // explicit invalidation in the client layer is load-bearing.
        let fsid = FsId(0);
        let mut f = fs();
        let mut dc = DentryCache::new();
        f.mkdir("/d", owner(), 1).unwrap();
        let id = f.create_file("/d/x", owner(), 2).unwrap();
        f.lookup_via(fsid, &mut dc, "/d/x").unwrap();
        f.unlink_entry("/d/x").unwrap(); // no invalidate on purpose
        assert_eq!(
            f.lookup_via(fsid, &mut dc, "/d/x").unwrap(),
            id,
            "stale hit expected without invalidation"
        );
    }

    /// Reference string-path namespace with `BTreeMap<String, _>` directory
    /// entries and `split_path` resolution — the pre-interning
    /// implementation, kept for the randomized equivalence test (the perf
    /// harness's resolve microbench carries its own copy as the "before"
    /// side).
    pub mod reference {
        use crate::types::{split_path, FsError, InodeId, Owner};
        use std::collections::BTreeMap;

        pub enum RefKind {
            File { size: u64 },
            Dir { entries: BTreeMap<String, InodeId> },
        }

        pub struct RefInode {
            pub kind: RefKind,
            pub mtime_ns: u64,
        }

        /// String-walk namespace: every resolution re-splits the path into a
        /// `Vec` and walks `BTreeMap` entries by string key.
        pub struct RefFs {
            inodes: Vec<Option<RefInode>>,
        }

        impl Default for RefFs {
            fn default() -> Self {
                Self::new()
            }
        }

        impl RefFs {
            pub fn new() -> Self {
                RefFs {
                    inodes: vec![Some(RefInode {
                        kind: RefKind::Dir {
                            entries: BTreeMap::new(),
                        },
                        mtime_ns: 0,
                    })],
                }
            }

            fn inode(&self, id: InodeId) -> Result<&RefInode, FsError> {
                self.inodes
                    .get(id.0 as usize)
                    .and_then(Option::as_ref)
                    .ok_or_else(|| FsError::NotFound(format!("inode {}", id.0)))
            }

            pub fn lookup(&self, path: &str) -> Result<InodeId, FsError> {
                let comps = split_path(path)?;
                let mut cur = InodeId(0);
                for c in comps {
                    match &self.inode(cur)?.kind {
                        RefKind::Dir { entries } => {
                            cur = *entries
                                .get(c)
                                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
                        }
                        RefKind::File { .. } => {
                            return Err(FsError::NotADirectory(path.to_string()));
                        }
                    }
                }
                Ok(cur)
            }

            fn parent_of<'p>(&self, path: &'p str) -> Result<(InodeId, &'p str), FsError> {
                let comps = split_path(path)?;
                let Some((last, dirs)) = comps.split_last() else {
                    return Err(FsError::InvalidArgument("path is root".into()));
                };
                let mut cur = InodeId(0);
                for c in dirs {
                    match &self.inode(cur)?.kind {
                        RefKind::Dir { entries } => {
                            cur = *entries
                                .get(*c)
                                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
                        }
                        RefKind::File { .. } => {
                            return Err(FsError::NotADirectory(path.to_string()));
                        }
                    }
                }
                Ok((cur, last))
            }

            fn create(
                &mut self,
                path: &str,
                _owner: Owner,
                now_ns: u64,
                dir: bool,
            ) -> Result<InodeId, FsError> {
                let (parent, name) = self.parent_of(path)?;
                let name = name.to_string();
                match &self.inode(parent)?.kind {
                    RefKind::Dir { entries } => {
                        if entries.contains_key(&name) {
                            return Err(FsError::AlreadyExists(path.to_string()));
                        }
                    }
                    RefKind::File { .. } => {
                        return Err(FsError::NotADirectory(path.to_string()));
                    }
                }
                let id = InodeId(self.inodes.len() as u64);
                self.inodes.push(Some(RefInode {
                    kind: if dir {
                        RefKind::Dir {
                            entries: BTreeMap::new(),
                        }
                    } else {
                        RefKind::File { size: 0 }
                    },
                    mtime_ns: now_ns,
                }));
                let Some(Some(p)) = self.inodes.get_mut(parent.0 as usize) else {
                    unreachable!()
                };
                if let RefKind::Dir { entries } = &mut p.kind {
                    entries.insert(name, id);
                }
                Ok(id)
            }

            pub fn mkdir(
                &mut self,
                path: &str,
                owner: Owner,
                now_ns: u64,
            ) -> Result<InodeId, FsError> {
                self.create(path, owner, now_ns, true)
            }

            pub fn create_file(
                &mut self,
                path: &str,
                owner: Owner,
                now_ns: u64,
            ) -> Result<InodeId, FsError> {
                self.create(path, owner, now_ns, false)
            }

            /// `(inode, size, is_dir, mtime)` — enough to compare with
            /// `FileAttr`.
            pub fn stat(&self, path: &str) -> Result<(InodeId, u64, bool, u64), FsError> {
                let id = self.lookup(path)?;
                let ino = self.inode(id)?;
                Ok(match &ino.kind {
                    RefKind::File { size } => (id, *size, false, ino.mtime_ns),
                    RefKind::Dir { .. } => (id, 0, true, ino.mtime_ns),
                })
            }

            pub fn readdir(&self, path: &str) -> Result<Vec<String>, FsError> {
                let id = self.lookup(path)?;
                match &self.inode(id)?.kind {
                    RefKind::Dir { entries } => Ok(entries.keys().cloned().collect()),
                    RefKind::File { .. } => Err(FsError::NotADirectory(path.to_string())),
                }
            }

            pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
                let (parent, name) = self.parent_of(path)?;
                let name = name.to_string();
                let id = self.lookup(path)?;
                if let RefKind::Dir { entries } = &self.inode(id)?.kind {
                    if !entries.is_empty() {
                        return Err(FsError::NotEmpty(path.to_string()));
                    }
                }
                let Some(Some(p)) = self.inodes.get_mut(parent.0 as usize) else {
                    unreachable!()
                };
                if let RefKind::Dir { entries } = &mut p.kind {
                    entries.remove(&name);
                }
                self.inodes[id.0 as usize] = None;
                Ok(())
            }

            /// Mirrors [`FsCore::rename_entry`]'s POSIX semantics and check
            /// order exactly (the equivalence test compares error payloads).
            pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
                let id = self.lookup(from)?;
                let (from_parent, from_name) = self.parent_of(from)?;
                let from_name = from_name.to_string();
                let (to_parent, to_name) = self.parent_of(to)?;
                let to_name = to_name.to_string();
                if !matches!(self.inode(to_parent)?.kind, RefKind::Dir { .. }) {
                    return Err(FsError::NotADirectory(to.to_string()));
                }
                let src_is_dir = matches!(self.inode(id)?.kind, RefKind::Dir { .. });
                if src_is_dir {
                    let comps = split_path(to)?;
                    let (_, dirs) = comps.split_last().expect("parent_of succeeded above");
                    let mut cur = InodeId(0);
                    let mut cycle = cur == id;
                    for c in dirs {
                        let RefKind::Dir { entries } = &self.inode(cur)?.kind else {
                            unreachable!("prefix resolved by parent_of above")
                        };
                        cur = *entries.get(*c).expect("prefix resolved by parent_of above");
                        cycle |= cur == id;
                    }
                    if cycle {
                        return Err(FsError::InvalidArgument(format!(
                            "rename would create a cycle: {from} -> {to}"
                        )));
                    }
                }
                let existing = match &self.inode(to_parent)?.kind {
                    RefKind::Dir { entries } => entries.get(&to_name).copied(),
                    RefKind::File { .. } => unreachable!("checked is_dir above"),
                };
                if let Some(tid) = existing {
                    if tid == id {
                        return Ok(());
                    }
                    match &self.inode(tid)?.kind {
                        RefKind::Dir { entries } => {
                            if !src_is_dir {
                                return Err(FsError::IsADirectory(to.to_string()));
                            }
                            if !entries.is_empty() {
                                return Err(FsError::NotEmpty(to.to_string()));
                            }
                        }
                        RefKind::File { .. } => {
                            if src_is_dir {
                                return Err(FsError::NotADirectory(to.to_string()));
                            }
                        }
                    }
                    self.inodes[tid.0 as usize] = None;
                }
                let Some(Some(p)) = self.inodes.get_mut(from_parent.0 as usize) else {
                    unreachable!()
                };
                if let RefKind::Dir { entries } = &mut p.kind {
                    entries.remove(&from_name);
                }
                let Some(Some(p)) = self.inodes.get_mut(to_parent.0 as usize) else {
                    unreachable!()
                };
                if let RefKind::Dir { entries } = &mut p.kind {
                    entries.insert(to_name, id);
                }
                Ok(())
            }
        }
    }

    #[test]
    fn randomized_equivalence_with_string_walk_reference() {
        // Replay random mkdir/create/lookup/stat/readdir/remove/rename
        // sequences against the old string-path implementation; results and
        // error payloads must agree exactly at every step. Inode-id
        // agreement falls out of both sides allocating ids in creation
        // order, so it also pins the *sequence* of successful mutations.
        use rand::{rngs::StdRng, Rng, SeedableRng};

        fn random_path(rng: &mut StdRng) -> String {
            // A small component alphabet over depth 1..=4 so paths collide
            // often enough to exercise every error arm.
            const NAMES: [&str; 5] = ["a", "b", "c", "dd", "e"];
            let depth = 1 + (rng.gen::<u64>() % 4) as usize;
            let mut p = String::new();
            for _ in 0..depth {
                p.push('/');
                p.push_str(NAMES[(rng.gen::<u64>() % NAMES.len() as u64) as usize]);
            }
            // Occasionally stress the path normalizer.
            match rng.gen::<u64>() % 12 {
                0 => p.push('/'),
                1 => p.insert(0, '/'),
                2 => return "/".to_string(),
                3 => return p.trim_start_matches('/').to_string(), // relative
                4 => return format!("/{}/./x", &p[1..]),           // dot comp
                _ => {}
            }
            p
        }

        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(0x9a3e_0000 + seed);
            let mut new_fs = FsCore::create(FsConfig::small_test("eq"));
            let mut old_fs = reference::RefFs::new();
            for step in 0..600u64 {
                let p = random_path(&mut rng);
                let ctx = |what: &str| format!("seed {seed} step {step}: {what}({p})");
                match rng.gen::<u64>() % 10 {
                    0 | 1 => {
                        let a = new_fs.mkdir(&p, Owner::local(1, 1), step);
                        let b = old_fs.mkdir(&p, Owner::local(1, 1), step);
                        assert_eq!(a, b, "{}", ctx("mkdir"));
                    }
                    2 | 3 => {
                        let a = new_fs.create_file(&p, Owner::local(1, 1), step);
                        let b = old_fs.create_file(&p, Owner::local(1, 1), step);
                        assert_eq!(a, b, "{}", ctx("create"));
                    }
                    4 | 5 => {
                        let a = new_fs.lookup(&p);
                        let b = old_fs.lookup(&p);
                        assert_eq!(a, b, "{}", ctx("lookup"));
                    }
                    6 => {
                        let a = new_fs.stat(&p).map(|s| (s.inode, s.size, s.is_dir, s.mtime_ns));
                        let b = old_fs.stat(&p);
                        assert_eq!(a, b, "{}", ctx("stat"));
                    }
                    7 => {
                        let a = new_fs.readdir(&p);
                        let b = old_fs.readdir(&p);
                        assert_eq!(a, b, "{}", ctx("readdir"));
                    }
                    8 => {
                        let a = new_fs.unlink(&p);
                        let b = old_fs.unlink(&p);
                        assert_eq!(a, b, "{}", ctx("unlink"));
                    }
                    _ => {
                        let q = random_path(&mut rng);
                        let a = new_fs.rename(&p, &q);
                        let b = old_fs.rename(&p, &q);
                        assert_eq!(a, b, "seed {seed} step {step}: rename({p} -> {q})");
                    }
                }
            }
        }
    }
}

