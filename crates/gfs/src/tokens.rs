//! Distributed byte-range token management.
//!
//! GPFS serializes concurrent file access with *tokens*: a client must hold
//! a read or write token covering a byte range before caching data from it.
//! The token manager grants tokens and, on conflict, tells the requester
//! which existing holders must be revoked first (each revocation is a
//! round-trip the client pays — the paper's §6.2 notes that "nodes in
//! various clusters may need to communicate with each other to negotiate
//! file and byte-range locks", which is why RSA keys are shared among all
//! mounting clusters).
//!
//! Tokens are **cached grants**, as in GPFS (Schmuck & Haskin, FAST'02):
//! a mount context keeps a token after the file is closed, until a
//! conflicting acquire revokes it or the context's cap
//! ([`CACHED_INODES`]) gives it back. Keeping the negotiation off the data
//! path needs two rules here:
//!
//! * **Desired ranges.** An acquire names the range it *requires* and the
//!   range it would *like* ([`TokenManager::acquire_desired`]). The
//!   manager revokes only grants that overlap the required range and
//!   grants the desired range up to the first conflicting grant, so a
//!   sequential stream asks once for `[start, ∞)` while disjoint MPI-IO
//!   ranks still never revoke each other.
//! * **Adjacent merges.** A client's same-mode grants that overlap *or
//!   touch* merge into one, at the manager and in the client's mirror
//!   ([`TokenCache`]), so a stream of small appends leaves one grant.
//!
//! Every grant carries a manager-assigned sequence number. The grant reply
//! and every revocation name it, so a holder drops exactly the grants
//! revoked. Two more rules keep a revocation from ever letting a stale
//! page through:
//!
//! * **A revocation lasts until the holder acknowledges it.** A revoked
//!   grant leaves the live set at once but stays *revoking*: the holder
//!   may still be finishing a write under it, so a later acquire that
//!   conflicts with it waits for the same revocation
//!   ([`AcquireOutcome::awaited`]) instead of being granted over it.
//! * **A revocation never overtakes its grant.** A grant whose reply has
//!   not been sent yet (it waits on revocations of its own) is
//!   *unreplied*: the caller sends its revocation only after the reply,
//!   on the same path, and until then the grant neither answers a repeated
//!   acquire nor merges into a newer one.
//!
//! This module is pure logic; the client layer charges message costs for
//! the revocations this module reports.

use crate::cache::PageKey;
use crate::types::{ClientId, FsId, InodeId};
use simcore::fxhash::{FxHashMap, FxHashSet};

/// Token strength.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenMode {
    /// Shared: many readers may overlap.
    Read,
    /// Exclusive: conflicts with every other holder.
    Write,
}

impl TokenMode {
    /// Does a grant of this mode satisfy a request for `want`? A write
    /// token covers reads too.
    pub fn satisfies(self, want: TokenMode) -> bool {
        self == TokenMode::Write || want == TokenMode::Read
    }
}

/// A half-open byte range `[start, end)`; `end == u64::MAX` stands for
/// "to the end of any file".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ByteRange {
    /// Inclusive start.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
}

impl ByteRange {
    /// Construct; panics on empty/inverted ranges.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start < end, "empty byte range {start}..{end}");
        ByteRange { start, end }
    }

    /// The whole-file range.
    pub fn whole() -> Self {
        ByteRange {
            start: 0,
            end: u64::MAX,
        }
    }

    /// `[start, ∞)`: everything from `start` on.
    pub fn from(start: u64) -> Self {
        ByteRange::new(start, u64::MAX)
    }

    /// Do two ranges overlap?
    pub fn overlaps(&self, other: &ByteRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Do two ranges overlap or abut (`a.end == b.start`)?
    pub fn touches(&self, other: &ByteRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Does `self` fully contain `other`?
    pub fn contains(&self, other: &ByteRange) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// The range rounded out to whole blocks of `block` bytes. A cached
    /// page is a whole block, so the token that lets a client cache it
    /// must cover the whole block; an unbounded end stays unbounded.
    pub fn to_blocks(self, block: u64) -> ByteRange {
        let end = if self.end > u64::MAX - block {
            u64::MAX
        } else {
            self.end.div_ceil(block) * block
        };
        ByteRange::new(self.start / block * block, end)
    }
}

/// One granted token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grant {
    /// Holder.
    pub client: ClientId,
    /// Covered range.
    pub range: ByteRange,
    /// Strength.
    pub mode: TokenMode,
    /// Sequence number, unique within one token manager. A grant that
    /// absorbs others by merging gets a fresh one.
    pub seq: u64,
}

/// Outcome of an acquire: the grant that covers the request plus the
/// revocations that must complete first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AcquireOutcome {
    /// True when the request was already covered by an existing grant to
    /// the same client (no messages needed at all).
    pub already_held: bool,
    /// Conflicting grants that were revoked; the caller charges one
    /// revocation round-trip per distinct client listed.
    pub revoked: Vec<Grant>,
    /// Conflicting grants whose revocation an earlier acquire started and
    /// their holders have not acknowledged yet: the grant waits for those
    /// revocations too.
    pub awaited: Vec<Grant>,
    /// The grant that now covers the request: the covering grant when
    /// `already_held`, else the newly installed (possibly merged) one.
    pub granted: Grant,
}

/// Does a grant of `g` conflict with a request by `client` in `mode`?
fn conflicts(g: &Grant, client: ClientId, mode: TokenMode) -> bool {
    g.client != client && (mode == TokenMode::Write || g.mode == TokenMode::Write)
}

/// Sort rank for grants within an inode's interval index. The sequence
/// number breaks the tie between two of a client's same-mode grants over
/// one range (the newer one waits for its reply).
fn grant_key(g: &Grant) -> (u64, u64, u64, u8, u64) {
    (
        g.range.start,
        g.range.end,
        g.client.0 as u64,
        match g.mode {
            TokenMode::Read => 0,
            TokenMode::Write => 1,
        },
        g.seq,
    )
}

/// `desired` trimmed to the part around `required` that no grant in
/// `others` touches: the new grant extends up to the first conflicting
/// grant on either side. `others` must not overlap `required`.
fn trim_desired<'a>(
    required: ByteRange,
    desired: ByteRange,
    others: impl Iterator<Item = &'a Grant>,
) -> ByteRange {
    let (mut lo, mut hi) = (desired.start, desired.end);
    for g in others {
        if g.range.end <= required.start {
            lo = lo.max(g.range.end);
        } else {
            debug_assert!(g.range.start >= required.end, "unrevoked conflict");
            hi = hi.min(g.range.start);
        }
    }
    ByteRange::new(lo, hi)
}

/// Per-inode interval index: grants kept sorted by range start, with a
/// prefix maximum of range ends so overlap queries binary-search to the
/// candidate window instead of scanning every grant.
///
/// For a query range `[s, e)`: grants at or past the `partition_point`
/// where `start >= e` cannot overlap, and walking backward from there stops
/// at the first index whose prefix-max end is `<= s` — everything earlier
/// ends at or before `s` too. Disjoint grant sets (the MPI-IO pattern of
/// one range per rank) answer in O(log n + matches).
#[derive(Default, Debug)]
struct GrantSet {
    /// Sorted by `(start, end, client, mode, seq)`.
    sorted: Vec<Grant>,
    /// `prefix_max[i]` = max end over `sorted[..=i]`; rebuilt on mutation.
    prefix_max: Vec<u64>,
    /// Revoked grants whose holders have not acknowledged yet (a handful
    /// at most, so a plain list).
    revoking: Vec<Grant>,
}

impl GrantSet {
    fn reindex(&mut self) {
        self.prefix_max.clear();
        self.prefix_max.reserve(self.sorted.len());
        let mut max = 0u64;
        for g in &self.sorted {
            max = max.max(g.range.end);
            self.prefix_max.push(max);
        }
    }

    /// Indices of grants overlapping `range`, ascending.
    fn overlapping(&self, range: &ByteRange) -> Vec<usize> {
        let hi = self
            .sorted
            .partition_point(|g| g.range.start < range.end);
        let mut out = Vec::new();
        for i in (0..hi).rev() {
            if self.prefix_max[i] <= range.start {
                break;
            }
            if self.sorted[i].range.end > range.start {
                out.push(i);
            }
        }
        out.reverse();
        out
    }

    /// The first grant (in index order) overlapping `range` that
    /// satisfies `pred`.
    fn find_overlapping(&self, range: &ByteRange, pred: impl Fn(&Grant) -> bool) -> Option<Grant> {
        let hi = self
            .sorted
            .partition_point(|g| g.range.start < range.end);
        let mut found = None;
        for i in (0..hi).rev() {
            if self.prefix_max[i] <= range.start {
                break;
            }
            let g = &self.sorted[i];
            if g.range.end > range.start && pred(g) {
                found = Some(*g);
            }
        }
        found
    }

    /// Remove grants overlapping `range` that satisfy `pred`; returns them
    /// in ascending index order.
    fn remove_overlapping(
        &mut self,
        range: &ByteRange,
        pred: impl Fn(&Grant) -> bool,
    ) -> Vec<Grant> {
        let idx = self.overlapping(range);
        let mut out = Vec::with_capacity(idx.len());
        for &i in idx.iter().rev() {
            if pred(&self.sorted[i]) {
                out.push(self.sorted.remove(i));
            }
        }
        if !out.is_empty() {
            out.reverse();
            self.reindex();
        }
        out
    }

    fn insert(&mut self, g: Grant) {
        let pos = self
            .sorted
            .partition_point(|x| grant_key(x) < grant_key(&g));
        self.sorted.insert(pos, g);
        self.reindex();
    }

    fn retain(&mut self, keep: impl Fn(&Grant) -> bool) {
        let before = self.sorted.len();
        self.sorted.retain(keep);
        if self.sorted.len() != before {
            self.reindex();
        }
    }

    fn is_empty(&self) -> bool {
        self.sorted.is_empty() && self.revoking.is_empty()
    }
}

/// The token manager for one filesystem: a grant set per inode that has
/// grants, live or being revoked.
#[derive(Debug)]
pub struct TokenManager {
    inodes: FxHashMap<InodeId, GrantSet>,
    /// Sequence number the next installed grant takes.
    next_seq: u64,
    /// Grants whose reply has not been sent yet (see [`Self::replied`]).
    unreplied: FxHashSet<u64>,
    /// Counters for reports.
    pub acquires: u64,
    /// Total revocations performed.
    pub revocations: u64,
}

impl Default for TokenManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TokenManager {
    /// Empty manager.
    pub fn new() -> Self {
        TokenManager {
            inodes: FxHashMap::default(),
            next_seq: 1,
            unreplied: FxHashSet::default(),
            acquires: 0,
            revocations: 0,
        }
    }

    /// Acquire a token for `client` on `inode` over exactly `range` in
    /// `mode`, revoking conflicting grants held by other clients. The
    /// synchronous form, for callers that model no messages: the
    /// revocations and the reply count as done at once.
    pub fn acquire(
        &mut self,
        inode: InodeId,
        client: ClientId,
        range: ByteRange,
        mode: TokenMode,
    ) -> AcquireOutcome {
        let out = self.acquire_desired(inode, client, range, range, mode);
        for g in &out.revoked {
            self.revoke_done(inode, g.client, &[g.seq]);
        }
        self.replied(out.granted.seq);
        out
    }

    /// Acquire a token for `client` on `inode` in `mode` that covers
    /// `required` and, as far as no other client's grant conflicts, the
    /// `desired` range around it (`required` must lie inside `desired`).
    ///
    /// Only grants of other clients that conflict with `required` are
    /// revoked; a conflicting grant that overlaps just the desired part
    /// stays and bounds the new grant instead, and so does one still being
    /// revoked. The client's own replied same-mode grants that overlap or
    /// touch the result merge into it, and a write grant absorbs the
    /// client's replied read grants it contains. The new grant is
    /// unreplied until the caller says otherwise.
    pub fn acquire_desired(
        &mut self,
        inode: InodeId,
        client: ClientId,
        required: ByteRange,
        desired: ByteRange,
        mode: TokenMode,
    ) -> AcquireOutcome {
        debug_assert!(desired.contains(&required), "{desired:?} lacks {required:?}");
        self.acquires += 1;
        let unreplied = &self.unreplied;
        let set = self.inodes.entry(inode).or_default();
        let own = |g: &Grant| g.client == client && !unreplied.contains(&g.seq);

        // Fast path: an existing replied grant to this client already
        // covers the request at sufficient strength. A covering grant
        // necessarily overlaps the (non-empty) request, so the interval
        // index finds it.
        if let Some(g) = set.find_overlapping(&required, |g| {
            own(g) && g.range.contains(&required) && g.mode.satisfies(mode)
        }) {
            return AcquireOutcome {
                already_held: true,
                revoked: Vec::new(),
                awaited: Vec::new(),
                granted: g,
            };
        }

        // Wait for what is already being revoked over the required range,
        // revoke what else conflicts with it ...
        let awaited: Vec<Grant> = set
            .revoking
            .iter()
            .filter(|g| conflicts(g, client, mode) && g.range.overlaps(&required))
            .copied()
            .collect();
        let revoked = set.remove_overlapping(&required, |g| conflicts(g, client, mode));
        self.revocations += revoked.len() as u64;
        // ... and stop the desired range short of what remains.
        let live: Vec<usize> = set.overlapping(&desired);
        let mut new_range = trim_desired(
            required,
            desired,
            live.iter()
                .map(|&i| &set.sorted[i])
                .chain(set.revoking.iter().filter(|g| {
                    g.range.overlaps(&desired) && !g.range.overlaps(&required)
                }))
                .filter(|g| conflicts(g, client, mode)),
        );
        set.revoking.extend_from_slice(&revoked);

        // Subsume this client's same-mode grants that overlap or touch the
        // new one, to fixpoint (each widening can reach further own
        // grants). Different-mode grants are left alone: merging a Read
        // grant into a Write acquire would silently extend write authority
        // over bytes whose conflicts were never revoked.
        loop {
            let reach = ByteRange {
                start: new_range.start.saturating_sub(1),
                end: new_range.end.saturating_add(1),
            };
            let merged = set.remove_overlapping(&reach, |g| {
                own(g) && g.mode == mode && g.range.touches(&new_range)
            });
            if merged.is_empty() {
                break;
            }
            for g in merged {
                new_range = ByteRange {
                    start: new_range.start.min(g.range.start),
                    end: new_range.end.max(g.range.end),
                };
            }
        }
        // Drop own weaker grants fully contained in a new write grant
        // (containment implies overlap, so the index query sees them all).
        if mode == TokenMode::Write {
            set.remove_overlapping(&new_range, |g| {
                own(g) && g.mode == TokenMode::Read && new_range.contains(&g.range)
            });
        }
        let granted = Grant {
            client,
            range: new_range,
            mode,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        set.insert(granted);
        self.unreplied.insert(granted.seq);

        AcquireOutcome {
            already_held: false,
            revoked,
            awaited,
            granted,
        }
    }

    /// The reply for grant `seq` has been sent: from now on it answers a
    /// repeated acquire, merges into newer grants, and its revocation may
    /// follow it to the holder.
    pub fn replied(&mut self, seq: u64) {
        self.unreplied.remove(&seq);
    }

    /// Has the reply for grant `seq` been sent?
    pub fn is_replied(&self, seq: u64) -> bool {
        !self.unreplied.contains(&seq)
    }

    /// `client` acknowledged the revocation of its grants `seqs` on
    /// `inode`: they stop blocking conflicting acquires.
    pub fn revoke_done(&mut self, inode: InodeId, client: ClientId, seqs: &[u64]) {
        if let Some(set) = self.inodes.get_mut(&inode) {
            set.revoking
                .retain(|g| !(g.client == client && seqs.contains(&g.seq)));
            if set.is_empty() {
                self.inodes.remove(&inode);
            }
        }
    }

    /// Is grant `seq` of `client` on `inode` still granted, live or being
    /// revoked? An expulsion releases grants whose replies are still
    /// pending; such a reply must not go out.
    pub fn is_granted(&self, inode: InodeId, client: ClientId, seq: u64) -> bool {
        self.inodes.get(&inode).is_some_and(|set| {
            set.sorted
                .iter()
                .chain(&set.revoking)
                .any(|g| g.client == client && g.seq == seq)
        })
    }

    /// Revocations not yet acknowledged and grants not yet replied to.
    /// Both drain to zero once every exchange has finished.
    pub fn pending(&self) -> (usize, usize) {
        let revoking = self.inodes.values().map(|set| set.revoking.len()).sum();
        (revoking, self.unreplied.len())
    }

    /// Release every token `client` holds on `inode`.
    pub fn release_all(&mut self, inode: InodeId, client: ClientId) {
        self.release_where(inode, |g| g.client == client);
    }

    /// Release `client`'s grants on `inode` whose sequence numbers are
    /// listed (a context giving back cached grants). Grants installed
    /// since — under newer numbers — stay.
    pub fn release(&mut self, inode: InodeId, client: ClientId, seqs: &[u64]) {
        self.release_where(inode, |g| g.client == client && seqs.contains(&g.seq));
    }

    fn release_where(&mut self, inode: InodeId, doomed: impl Fn(&Grant) -> bool) {
        if let Some(set) = self.inodes.get_mut(&inode) {
            set.retain(|g| !doomed(g));
            if set.is_empty() {
                self.inodes.remove(&inode);
            }
        }
    }

    /// Release every token `client` holds anywhere, live or being revoked
    /// (expulsion).
    pub fn release_client(&mut self, client: ClientId) {
        self.inodes.retain(|_, set| {
            set.retain(|g| g.client != client);
            set.revoking.retain(|g| g.client != client);
            !set.is_empty()
        });
    }

    /// Current live grants on an inode, sorted by range start (for tests
    /// and introspection).
    pub fn grants(&self, inode: InodeId) -> &[Grant] {
        self.inodes
            .get(&inode)
            .map_or(&[], |set| set.sorted.as_slice())
    }

    /// Grant pairs that conflict: same inode, overlapping ranges, distinct
    /// clients, at least one side Write. Revocation exists to make this
    /// impossible, so the chaos harness asserts it stays 0 — even while
    /// servers crash and links flap mid-acquire. O(n²) per inode over sets
    /// that are nearly always a handful of grants.
    pub fn conflicting_grants(&self) -> usize {
        let mut n = 0;
        for set in self.inodes.values() {
            let gs = set.sorted.as_slice();
            for (i, a) in gs.iter().enumerate() {
                for b in &gs[i + 1..] {
                    if b.range.start >= a.range.end {
                        break; // sorted by start: nothing later overlaps `a`
                    }
                    if conflicts(a, b.client, b.mode) {
                        n += 1;
                    }
                }
            }
        }
        n
    }

    /// Does `client` hold a token covering `range` at strength `mode`?
    /// Binary-searches the inode's interval index.
    pub fn holds(
        &self,
        inode: InodeId,
        client: ClientId,
        range: ByteRange,
        mode: TokenMode,
    ) -> bool {
        self.inodes.get(&inode).is_some_and(|set| {
            set.find_overlapping(&range, |g| {
                g.client == client && g.range.contains(&range) && g.mode.satisfies(mode)
            })
            .is_some()
        })
    }
}

/// How many inodes one mount context keeps cached grants on. Past it the
/// least recently used inode with no I/O in flight and no dirty page is
/// given back to the manager, together with its cached pages.
pub const CACHED_INODES: usize = 1024;

/// One grant as its holder mirrors it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Held {
    /// Covered range.
    pub range: ByteRange,
    /// Strength.
    pub mode: TokenMode,
    /// The manager's sequence number for the grant.
    pub seq: u64,
}

/// Cached grants on one inode.
#[derive(Debug)]
struct Cached {
    grants: Vec<Held>,
    /// Grants a revoke has arrived for: I/O already in flight under them
    /// finishes, but no new op may start under them.
    revoking: Vec<u64>,
    /// Clock value of the last use (the cap evicts the smallest).
    used: u64,
    /// Clock value when the entry was created or last lost a grant to a
    /// revocation: a page fetch that started under another generation
    /// must not land in the pool.
    gen: u64,
}

/// A mount context's mirror of the grants it holds: every token the
/// manager granted it and has not revoked, kept past close. Sessions of
/// the context share it.
#[derive(Debug, Default)]
pub struct TokenCache {
    inodes: FxHashMap<(FsId, InodeId), Cached>,
    /// Logical clock for `used` and `gen`.
    clock: u64,
}

impl TokenCache {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Does the mirror cover `range` of the inode at strength `mode`?
    pub fn holds(&self, fs: FsId, inode: InodeId, range: ByteRange, mode: TokenMode) -> bool {
        self.inodes.get(&(fs, inode)).is_some_and(|c| {
            c.grants
                .iter()
                .any(|h| h.range.contains(&range) && h.mode.satisfies(mode))
        })
    }

    /// Is the cached page `key` covered by a mirrored grant of the right
    /// mode — read or write for a clean page, write for a dirty one? A
    /// page spans one block of `block` bytes.
    pub fn holds_page(&self, key: PageKey, dirty: bool, block: u64) -> bool {
        let span = ByteRange::new(key.block * block, (key.block + 1) * block);
        let mode = if dirty {
            TokenMode::Write
        } else {
            TokenMode::Read
        };
        self.holds(key.fs, key.inode, span, mode)
    }

    /// Can a new op rely on the mirror for `range` at strength `mode`?
    /// Like [`Self::holds`], but grants under revocation do not count. A
    /// hit counts as a use of the inode's grants.
    pub fn covers(&mut self, fs: FsId, inode: InodeId, range: ByteRange, mode: TokenMode) -> bool {
        let now = self.tick();
        let Some(c) = self.inodes.get_mut(&(fs, inode)) else {
            return false;
        };
        let hit = c.grants.iter().any(|h| {
            h.range.contains(&range) && h.mode.satisfies(mode) && !c.revoking.contains(&h.seq)
        });
        if hit {
            c.used = now;
        }
        hit
    }

    /// Does some grant on the inode end exactly at `at`? A data call that
    /// starts there continues a stream and asks for `[at, ∞)`.
    pub fn ends_at(&self, fs: FsId, inode: InodeId, at: u64) -> bool {
        self.inodes
            .get(&(fs, inode))
            .is_some_and(|c| c.grants.iter().any(|h| h.range.end == at))
    }

    /// The inode's current generation, `None` when nothing is cached.
    pub fn gen(&self, fs: FsId, inode: InodeId) -> Option<u64> {
        self.inodes.get(&(fs, inode)).map(|c| c.gen)
    }

    /// The mirrored grants on one inode.
    pub fn grants(&self, fs: FsId, inode: InodeId) -> &[Held] {
        self.inodes
            .get(&(fs, inode))
            .map_or(&[], |c| c.grants.as_slice())
    }

    /// Install a grant reply. The manager merged the client's same-mode
    /// grants inside the reply's range into it (and, for a write grant,
    /// absorbed the read grants it contains), so the mirror drops the same
    /// entries. A repeated reply for one grant installs it once, and a
    /// reply that a newer mirrored grant already covers is not installed:
    /// replies can arrive out of order, and the newer grant may be the one
    /// the manager merged it into.
    pub fn install(&mut self, fs: FsId, inode: InodeId, held: Held) {
        let now = self.tick();
        let c = self.inodes.entry((fs, inode)).or_insert(Cached {
            grants: Vec::new(),
            revoking: Vec::new(),
            used: now,
            gen: now,
        });
        c.used = now;
        if c.grants.iter().any(|h| {
            h.seq == held.seq
                || (h.seq > held.seq && h.range.contains(&held.range) && h.mode.satisfies(held.mode))
        }) {
            return;
        }
        c.grants.retain(|h| {
            !(held.range.contains(&h.range) && held.mode.satisfies(h.mode))
        });
        c.grants.push(held);
    }

    /// A revoke of the grants numbered `seqs` arrived: no new op may
    /// start under them (see [`Self::covers`]).
    pub fn begin_revoke(&mut self, fs: FsId, inode: InodeId, seqs: &[u64]) {
        if let Some(c) = self.inodes.get_mut(&(fs, inode)) {
            c.revoking.extend_from_slice(seqs);
        }
    }

    /// A revocation of the grants numbered `seqs` was honoured: drop them
    /// and start a new generation for the inode.
    pub fn revoke(&mut self, fs: FsId, inode: InodeId, seqs: &[u64]) {
        let now = self.tick();
        if let Some(c) = self.inodes.get_mut(&(fs, inode)) {
            c.grants.retain(|h| !seqs.contains(&h.seq));
            c.revoking.retain(|s| !seqs.contains(s));
            c.gen = now;
            if c.grants.is_empty() {
                self.inodes.remove(&(fs, inode));
            }
        }
    }

    /// Drop every grant on the inode, returning their sequence numbers.
    pub fn take(&mut self, fs: FsId, inode: InodeId) -> Vec<u64> {
        self.inodes
            .remove(&(fs, inode))
            .map_or_else(Vec::new, |c| c.grants.iter().map(|h| h.seq).collect())
    }

    /// Drop every grant on filesystem `fs` (expulsion).
    pub fn forget_fs(&mut self, fs: FsId) {
        self.inodes.retain(|(f, _), _| *f != fs);
    }

    /// Past the cap, the least recently used inode for which `evictable`
    /// holds (a candidate with I/O in flight or dirty pages is skipped).
    pub fn over_cap(&self, evictable: impl Fn(FsId, InodeId) -> bool) -> Option<(FsId, InodeId)> {
        if self.inodes.len() <= CACHED_INODES {
            return None;
        }
        self.inodes
            .iter()
            .filter(|(&(fs, inode), _)| evictable(fs, inode))
            .min_by_key(|(_, c)| c.used)
            .map(|(&k, _)| k)
    }

    /// Inodes with cached grants.
    pub fn len(&self) -> usize {
        self.inodes.len()
    }

    /// True when no grant is cached.
    pub fn is_empty(&self) -> bool {
        self.inodes.is_empty()
    }

    /// Does the mirror hold any grant on `(fs, inode)`?
    pub fn contains_key(&self, key: &(FsId, InodeId)) -> bool {
        self.inodes.contains_key(key)
    }

    /// Every mirrored inode with its grants, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&(FsId, InodeId), &[Held])> + '_ {
        self.inodes.iter().map(|(k, c)| (k, c.grants.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INO: InodeId = InodeId(1);
    const C1: ClientId = ClientId(1);
    const C2: ClientId = ClientId(2);
    const C3: ClientId = ClientId(3);

    fn r(a: u64, b: u64) -> ByteRange {
        ByteRange::new(a, b)
    }

    #[test]
    fn range_overlap_rules() {
        assert!(r(0, 10).overlaps(&r(5, 15)));
        assert!(!r(0, 10).overlaps(&r(10, 20))); // half-open: touch is no overlap
        assert!(r(0, 10).touches(&r(10, 20)));
        assert!(!r(0, 10).touches(&r(11, 20)));
        assert!(r(0, 100).contains(&r(10, 20)));
        assert!(!r(10, 20).contains(&r(10, 21)));
    }

    #[test]
    fn ranges_round_out_to_blocks() {
        assert_eq!(r(100, 200).to_blocks(64), r(64, 256));
        assert_eq!(r(128, 192).to_blocks(64), r(128, 192));
        assert_eq!(ByteRange::from(70).to_blocks(64), ByteRange::from(64));
        assert_eq!(ByteRange::whole().to_blocks(1 << 20), ByteRange::whole());
    }

    #[test]
    fn readers_share() {
        let mut tm = TokenManager::new();
        let o1 = tm.acquire(INO, C1, r(0, 100), TokenMode::Read);
        let o2 = tm.acquire(INO, C2, r(50, 150), TokenMode::Read);
        assert!(o1.revoked.is_empty());
        assert!(o2.revoked.is_empty());
        assert!(tm.holds(INO, C1, r(0, 100), TokenMode::Read));
        assert!(tm.holds(INO, C2, r(50, 150), TokenMode::Read));
    }

    #[test]
    fn writer_revokes_overlapping_readers() {
        let mut tm = TokenManager::new();
        tm.acquire(INO, C1, r(0, 100), TokenMode::Read);
        tm.acquire(INO, C2, r(50, 150), TokenMode::Read);
        let o = tm.acquire(INO, C3, r(60, 70), TokenMode::Write);
        let revoked: Vec<ClientId> = o.revoked.iter().map(|g| g.client).collect();
        assert_eq!(revoked, [C1, C2]);
        assert!(!tm.holds(INO, C1, r(0, 100), TokenMode::Read));
        assert!(tm.holds(INO, C3, r(60, 70), TokenMode::Write));
    }

    #[test]
    fn disjoint_writers_coexist() {
        // The pattern MPI-IO depends on: each rank writes its own region
        // with zero token traffic after the first acquire.
        let mut tm = TokenManager::new();
        for (i, c) in [C1, C2, C3].into_iter().enumerate() {
            let base = i as u64 * 1000;
            let o = tm.acquire(INO, c, r(base, base + 1000), TokenMode::Write);
            assert!(o.revoked.is_empty(), "rank {i} caused revocations");
        }
        assert_eq!(tm.grants(INO).len(), 3);
    }

    #[test]
    fn repeat_acquire_is_free() {
        let mut tm = TokenManager::new();
        let first = tm.acquire(INO, C1, r(0, 1000), TokenMode::Write).granted;
        let o = tm.acquire(INO, C1, r(100, 200), TokenMode::Write);
        assert!(o.already_held);
        assert_eq!(o.granted, first, "a covered acquire names the covering grant");
        // Write token satisfies read requests too.
        let o = tm.acquire(INO, C1, r(100, 200), TokenMode::Read);
        assert!(o.already_held);
    }

    #[test]
    fn read_token_does_not_satisfy_write() {
        let mut tm = TokenManager::new();
        tm.acquire(INO, C1, r(0, 1000), TokenMode::Read);
        let o = tm.acquire(INO, C1, r(0, 10), TokenMode::Write);
        assert!(!o.already_held);
        assert!(tm.holds(INO, C1, r(0, 10), TokenMode::Write));
    }

    #[test]
    fn own_grants_merge() {
        let mut tm = TokenManager::new();
        tm.acquire(INO, C1, r(0, 100), TokenMode::Read);
        tm.acquire(INO, C1, r(50, 200), TokenMode::Read);
        assert_eq!(tm.grants(INO).len(), 1);
        assert!(tm.holds(INO, C1, r(0, 200), TokenMode::Read));
    }

    #[test]
    fn adjacent_same_mode_grants_merge() {
        // Sequential appends touch without overlapping; they still leave
        // one grant, under a fresh sequence number.
        let mut tm = TokenManager::new();
        let a = tm.acquire(INO, C1, r(0, 100), TokenMode::Write).granted;
        let b = tm.acquire(INO, C1, r(100, 200), TokenMode::Write).granted;
        assert_eq!(tm.grants(INO), &[b]);
        assert_eq!(b.range, r(0, 200));
        assert!(b.seq > a.seq);
        // Another client's adjacent grant never merges.
        tm.acquire(INO, C2, r(200, 300), TokenMode::Write);
        assert_eq!(tm.grants(INO).len(), 2);
    }

    #[test]
    fn desired_range_stops_at_the_first_conflicting_grant() {
        let mut tm = TokenManager::new();
        tm.acquire(INO, C2, r(1000, 2000), TokenMode::Write);
        tm.acquire(INO, C3, r(5000, 6000), TokenMode::Read);
        // A reader's stream: the other reader does not bound it, the
        // writer does.
        let o = tm.acquire_desired(INO, C1, r(0, 100), ByteRange::from(0), TokenMode::Read);
        assert!(o.revoked.is_empty());
        assert_eq!(o.granted.range, r(0, 1000));
        // A writer's stream past the writer: the reader bounds it.
        let o = tm.acquire_desired(INO, C1, r(2000, 2100), ByteRange::from(2000), TokenMode::Write);
        assert!(o.revoked.is_empty());
        assert_eq!(o.granted.range, r(2000, 5000));
        assert_eq!(tm.conflicting_grants(), 0);
    }

    #[test]
    fn desired_range_revokes_only_what_overlaps_the_required_range() {
        let mut tm = TokenManager::new();
        tm.acquire(INO, C2, r(0, 100), TokenMode::Write);
        tm.acquire(INO, C3, r(500, 600), TokenMode::Write);
        let o = tm.acquire_desired(INO, C1, r(50, 60), ByteRange::whole(), TokenMode::Write);
        assert_eq!(o.revoked.len(), 1);
        assert_eq!(o.revoked[0].client, C2);
        assert_eq!(o.granted.range, r(0, 500));
        assert!(tm.holds(INO, C3, r(500, 600), TokenMode::Write));
    }

    #[test]
    fn disjoint_streams_never_revoke_each_other() {
        // Each rank's first acquire is exact; every later one continues its
        // own grant with a desired range to infinity, which the next
        // rank's grant bounds.
        let mut tm = TokenManager::new();
        let ranks = [C1, C2, C3];
        for (i, &c) in ranks.iter().enumerate() {
            let base = i as u64 * 1000;
            tm.acquire(INO, c, r(base, base + 100), TokenMode::Write);
        }
        for step in 1..10u64 {
            for (i, &c) in ranks.iter().enumerate() {
                let at = i as u64 * 1000 + step * 100;
                if !tm.holds(INO, c, r(at, at + 100), TokenMode::Write) {
                    let o = tm.acquire_desired(INO, c, r(at, at + 100), ByteRange::from(at), TokenMode::Write);
                    assert!(o.revoked.is_empty(), "rank {i} step {step} revoked {:?}", o.revoked);
                    tm.replied(o.granted.seq);
                }
            }
        }
        assert_eq!(tm.revocations, 0);
        assert_eq!(tm.grants(INO).len(), 3);
    }

    #[test]
    fn a_revocation_in_progress_blocks_every_conflicting_acquire() {
        // The holder may still be writing under a grant whose revocation
        // it has not acknowledged: an acquire anywhere in that grant's
        // range waits for the same revocation instead of being granted
        // over it, and the grant bounds desired ranges meanwhile.
        let mut tm = TokenManager::new();
        let w1 = tm.acquire(INO, C1, r(0, 300), TokenMode::Write).granted;
        let o = tm.acquire_desired(INO, C2, r(100, 200), r(100, 200), TokenMode::Read);
        assert_eq!(o.revoked, vec![w1]);
        let o = tm.acquire_desired(INO, C3, r(0, 100), r(0, 100), TokenMode::Read);
        assert!(o.revoked.is_empty());
        assert_eq!(o.awaited, vec![w1], "granted over a write still in progress");
        let o = tm.acquire_desired(INO, C3, r(300, 400), ByteRange::whole(), TokenMode::Read);
        assert!(o.awaited.is_empty());
        assert_eq!(o.granted.range, r(300, u64::MAX));
        assert_eq!(tm.pending(), (1, 3));
        tm.revoke_done(INO, C1, &[w1.seq]);
        let o = tm.acquire_desired(INO, ClientId(4), r(0, 100), r(0, 100), TokenMode::Read);
        assert!(o.awaited.is_empty() && o.revoked.is_empty());
    }

    #[test]
    fn an_unreplied_grant_neither_answers_repeats_nor_merges() {
        let mut tm = TokenManager::new();
        let first = tm.acquire_desired(INO, C1, r(0, 100), r(0, 100), TokenMode::Write).granted;
        let o = tm.acquire_desired(INO, C1, r(100, 200), r(100, 200), TokenMode::Write);
        assert_eq!(o.granted.range, r(100, 200), "merged into a grant still waiting for its reply");
        let o = tm.acquire_desired(INO, C1, r(10, 20), r(10, 20), TokenMode::Write);
        assert!(!o.already_held);
        tm.replied(first.seq);
        let o = tm.acquire_desired(INO, C1, r(10, 20), r(10, 20), TokenMode::Write);
        assert!(o.already_held);
        assert_eq!(o.granted, first);
        assert!(tm.is_granted(INO, C1, first.seq));
        tm.release_client(C1);
        assert!(!tm.is_granted(INO, C1, first.seq));
    }

    #[test]
    fn cross_mode_grants_do_not_merge() {
        // Merging a Read into a Write union would extend write authority
        // over bytes whose conflicts were never revoked — the bug found by
        // the `tokens_never_grant_conflicts` property test. Instead the
        // grants coexist.
        let mut tm = TokenManager::new();
        tm.acquire(INO, C1, r(0, 100), TokenMode::Write);
        tm.acquire(INO, C1, r(50, 200), TokenMode::Read);
        assert!(tm.holds(INO, C1, r(0, 100), TokenMode::Write));
        assert!(tm.holds(INO, C1, r(50, 200), TokenMode::Read));
        // Critically: no write authority beyond the requested range.
        assert!(!tm.holds(INO, C1, r(100, 200), TokenMode::Write));
    }

    #[test]
    fn write_acquire_absorbs_contained_read_grants() {
        let mut tm = TokenManager::new();
        tm.acquire(INO, C1, r(50, 80), TokenMode::Read);
        tm.acquire(INO, C1, r(0, 100), TokenMode::Write);
        assert_eq!(tm.grants(INO).len(), 1);
        assert!(tm.holds(INO, C1, r(50, 80), TokenMode::Write));
    }

    #[test]
    fn chained_same_mode_merges_reach_fixpoint() {
        let mut tm = TokenManager::new();
        tm.acquire(INO, C1, r(0, 10), TokenMode::Read);
        tm.acquire(INO, C1, r(20, 30), TokenMode::Read);
        // Bridging acquire merges all three into one grant.
        tm.acquire(INO, C1, r(5, 25), TokenMode::Read);
        assert_eq!(tm.grants(INO).len(), 1);
        assert!(tm.holds(INO, C1, r(0, 30), TokenMode::Read));
    }

    #[test]
    fn writer_to_writer_handoff() {
        let mut tm = TokenManager::new();
        tm.acquire(INO, C1, ByteRange::whole(), TokenMode::Write);
        let o = tm.acquire(INO, C2, r(0, 10), TokenMode::Write);
        assert_eq!(o.revoked.len(), 1);
        assert_eq!(o.revoked[0].client, C1);
        assert_eq!(tm.revocations, 1);
    }

    #[test]
    fn release_all_frees_ranges() {
        let mut tm = TokenManager::new();
        tm.acquire(INO, C1, ByteRange::whole(), TokenMode::Write);
        tm.release_all(INO, C1);
        let o = tm.acquire(INO, C2, r(0, 10), TokenMode::Write);
        assert!(o.revoked.is_empty());
    }

    #[test]
    fn release_by_sequence_keeps_newer_grants() {
        let mut tm = TokenManager::new();
        let old = tm.acquire(INO, C1, r(0, 10), TokenMode::Read).granted;
        let new = tm.acquire(INO, C1, r(50, 60), TokenMode::Read).granted;
        tm.release(INO, C1, &[old.seq]);
        assert_eq!(tm.grants(INO), &[new]);
    }

    #[test]
    fn release_client_spans_inodes() {
        let mut tm = TokenManager::new();
        tm.acquire(InodeId(1), C1, r(0, 10), TokenMode::Write);
        tm.acquire(InodeId(2), C1, r(0, 10), TokenMode::Write);
        tm.release_client(C1);
        assert!(tm.grants(InodeId(1)).is_empty());
        assert!(tm.grants(InodeId(2)).is_empty());
    }

    #[test]
    fn reader_coexists_with_disjoint_writer() {
        let mut tm = TokenManager::new();
        tm.acquire(INO, C1, r(0, 100), TokenMode::Write);
        let o = tm.acquire(INO, C2, r(100, 200), TokenMode::Read);
        assert!(o.revoked.is_empty());
        assert!(tm.holds(INO, C1, r(0, 100), TokenMode::Write));
    }

    #[test]
    #[should_panic(expected = "empty byte range")]
    fn empty_range_rejected() {
        ByteRange::new(5, 5);
    }

    const FS: FsId = FsId(0);

    fn held(a: u64, b: u64, mode: TokenMode, seq: u64) -> Held {
        Held {
            range: r(a, b),
            mode,
            seq,
        }
    }

    #[test]
    fn cache_install_mirrors_the_managers_merges() {
        let mut tc = TokenCache::default();
        tc.install(FS, INO, held(0, 100, TokenMode::Read, 1));
        tc.install(FS, INO, held(200, 300, TokenMode::Write, 2));
        // A write reply covering both absorbs the contained read grant
        // and the write grant it was merged from.
        tc.install(FS, INO, held(0, 400, TokenMode::Write, 3));
        assert_eq!(tc.grants(FS, INO), &[held(0, 400, TokenMode::Write, 3)]);
        // A read reply never absorbs write authority.
        tc.install(FS, INO, held(0, 1000, TokenMode::Read, 4));
        assert_eq!(tc.grants(FS, INO).len(), 2);
        // The same reply twice installs once.
        tc.install(FS, INO, held(0, 1000, TokenMode::Read, 4));
        assert_eq!(tc.grants(FS, INO).len(), 2);
        assert!(tc.holds(FS, INO, r(500, 600), TokenMode::Read));
        assert!(!tc.holds(FS, INO, r(500, 600), TokenMode::Write));
        assert!(tc.ends_at(FS, INO, 400) && tc.ends_at(FS, INO, 1000));
    }

    #[test]
    fn cache_revoke_drops_named_grants_and_starts_a_generation() {
        let mut tc = TokenCache::default();
        tc.install(FS, INO, held(0, 100, TokenMode::Read, 1));
        tc.install(FS, INO, held(500, 600, TokenMode::Write, 2));
        let g0 = tc.gen(FS, INO).unwrap();
        // Once a revoke arrives no new op may rely on the grant, though
        // I/O already in flight under it still holds it.
        tc.begin_revoke(FS, INO, &[2]);
        assert!(!tc.covers(FS, INO, r(500, 600), TokenMode::Write));
        assert!(tc.holds(FS, INO, r(500, 600), TokenMode::Write));
        tc.revoke(FS, INO, &[2]);
        assert_eq!(tc.grants(FS, INO), &[held(0, 100, TokenMode::Read, 1)]);
        assert!(tc.gen(FS, INO).unwrap() > g0);
        tc.revoke(FS, INO, &[1]);
        assert_eq!(tc.gen(FS, INO), None, "an empty entry goes away");
        assert!(tc.is_empty());
    }

    #[test]
    fn cache_cap_picks_the_least_recently_used_evictable_inode() {
        let mut tc = TokenCache::default();
        for i in 0..=CACHED_INODES as u64 {
            tc.install(FS, InodeId(i), held(0, 10, TokenMode::Read, i + 1));
        }
        assert!(tc.covers(FS, InodeId(0), r(0, 10), TokenMode::Read));
        // Inode 0 was just used; inode 1 is the oldest, unless busy.
        assert_eq!(tc.over_cap(|_, _| true), Some((FS, InodeId(1))));
        assert_eq!(
            tc.over_cap(|_, i| i != InodeId(1)),
            Some((FS, InodeId(2)))
        );
        assert_eq!(tc.take(FS, InodeId(1)), vec![2]);
        assert_eq!(tc.over_cap(|_, _| true), None);
    }

    /// The pre-index token manager (linear `Vec<Grant>` scans), kept as the
    /// oracle for the randomized equivalence test below. It follows the
    /// same rules: desired ranges, adjacent merges, sequence numbers,
    /// revocations pending until acknowledged and grants waiting for their
    /// reply.
    mod reference {
        use super::super::{conflicts, grant_key, AcquireOutcome, ByteRange, Grant, TokenMode};
        use crate::types::{ClientId, InodeId};
        use std::collections::{BTreeMap, BTreeSet};

        #[derive(Default)]
        pub struct RefManager {
            grants: BTreeMap<InodeId, Vec<Grant>>,
            revoking: BTreeMap<InodeId, Vec<Grant>>,
            unreplied: BTreeSet<u64>,
            seq: u64,
            pub revocations: u64,
        }

        impl RefManager {
            pub fn acquire_desired(
                &mut self,
                inode: InodeId,
                client: ClientId,
                required: ByteRange,
                desired: ByteRange,
                mode: TokenMode,
            ) -> AcquireOutcome {
                let unreplied = self.unreplied.clone();
                let own = move |g: &Grant| g.client == client && !unreplied.contains(&g.seq);
                let grants = self.grants.entry(inode).or_default();
                let revoking = self.revoking.entry(inode).or_default();
                let mut covering: Vec<Grant> = grants
                    .iter()
                    .filter(|g| own(g) && g.range.contains(&required) && g.mode.satisfies(mode))
                    .copied()
                    .collect();
                covering.sort_by_key(grant_key);
                if let Some(&g) = covering.first() {
                    return AcquireOutcome {
                        already_held: true,
                        revoked: Vec::new(),
                        awaited: Vec::new(),
                        granted: g,
                    };
                }
                let awaited: Vec<Grant> = revoking
                    .iter()
                    .filter(|g| conflicts(g, client, mode) && g.range.overlaps(&required))
                    .copied()
                    .collect();
                let mut revoked = Vec::new();
                grants.retain(|g| {
                    if conflicts(g, client, mode) && g.range.overlaps(&required) {
                        revoked.push(*g);
                        false
                    } else {
                        true
                    }
                });
                self.revocations += revoked.len() as u64;
                let (mut lo, mut hi) = (desired.start, desired.end);
                let bounding = grants
                    .iter()
                    .chain(revoking.iter().filter(|g| !g.range.overlaps(&required)));
                for g in bounding {
                    if conflicts(g, client, mode) && g.range.overlaps(&desired) {
                        if g.range.end <= required.start {
                            lo = lo.max(g.range.end);
                        } else {
                            hi = hi.min(g.range.start);
                        }
                    }
                }
                revoking.extend_from_slice(&revoked);
                let mut new_range = ByteRange::new(lo, hi);
                loop {
                    let before = new_range;
                    grants.retain(|g| {
                        if own(g) && g.mode == mode && g.range.touches(&new_range) {
                            new_range = ByteRange {
                                start: new_range.start.min(g.range.start),
                                end: new_range.end.max(g.range.end),
                            };
                            false
                        } else {
                            true
                        }
                    });
                    if new_range == before {
                        break;
                    }
                }
                if mode == TokenMode::Write {
                    grants.retain(|g| {
                        !(own(g) && g.mode == TokenMode::Read && new_range.contains(&g.range))
                    });
                }
                self.seq += 1;
                let granted = Grant {
                    client,
                    range: new_range,
                    mode,
                    seq: self.seq,
                };
                grants.push(granted);
                self.unreplied.insert(granted.seq);
                AcquireOutcome {
                    already_held: false,
                    revoked,
                    awaited,
                    granted,
                }
            }

            pub fn replied(&mut self, seq: u64) {
                self.unreplied.remove(&seq);
            }

            pub fn revoke_done(&mut self, inode: InodeId, client: ClientId, seqs: &[u64]) {
                if let Some(r) = self.revoking.get_mut(&inode) {
                    r.retain(|g| !(g.client == client && seqs.contains(&g.seq)));
                }
            }

            pub fn pending(&self) -> (usize, usize) {
                (self.revoking.values().map(Vec::len).sum(), self.unreplied.len())
            }

            pub fn release_all(&mut self, inode: InodeId, client: ClientId) {
                if let Some(grants) = self.grants.get_mut(&inode) {
                    grants.retain(|g| g.client != client);
                }
            }

            pub fn release_client(&mut self, client: ClientId) {
                for grants in self.grants.values_mut().chain(self.revoking.values_mut()) {
                    grants.retain(|g| g.client != client);
                }
            }

            pub fn grants(&self, inode: InodeId) -> Vec<Grant> {
                self.grants.get(&inode).cloned().unwrap_or_default()
            }

            pub fn holds(
                &self,
                inode: InodeId,
                client: ClientId,
                range: ByteRange,
                mode: TokenMode,
            ) -> bool {
                self.grants(inode).iter().any(|g| {
                    g.client == client && g.range.contains(&range) && g.mode.satisfies(mode)
                })
            }
        }
    }

    #[test]
    fn randomized_equivalence_with_linear_scan_manager() {
        // Drive the interval-indexed manager and the linear-scan oracle
        // through the same randomized trace of acquires (half of them with
        // a wider desired range), replies, revocation acks and releases;
        // every outcome, the resulting grants, the pending counts and
        // `holds` probes must agree after every step (grants compared as
        // sorted sets — the linear version keeps insertion order).
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let sorted = |mut v: Vec<Grant>| {
            v.sort_by_key(grant_key);
            v
        };
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(0x70c0_0000 + seed);
            let mut a = TokenManager::new();
            let mut b = reference::RefManager::default();
            // Grants waiting for their reply, and revocations waiting for
            // their ack, in the order they arose.
            let mut replies: Vec<u64> = Vec::new();
            let mut acks: Vec<(InodeId, Grant)> = Vec::new();
            // Boundaries drawn from a small set so ranges overlap, nest and
            // abut often.
            fn bound(rng: &mut StdRng) -> u64 {
                100 * (rng.gen::<u64>() % 12)
            }
            for step in 0..600 {
                let inode = InodeId(1 + rng.gen::<u64>() % 2);
                let client = ClientId((rng.gen::<u64>() % 4) as u32);
                match rng.gen::<u64>() % 16 {
                    0 => {
                        a.release_all(inode, client);
                        b.release_all(inode, client);
                    }
                    1 => {
                        a.release_client(client);
                        b.release_client(client);
                    }
                    2..=4 if !replies.is_empty() => {
                        let seq = replies.remove((rng.gen::<u64>() % replies.len() as u64) as usize);
                        a.replied(seq);
                        b.replied(seq);
                    }
                    5..=6 if !acks.is_empty() => {
                        let (ino, g) = acks.remove((rng.gen::<u64>() % acks.len() as u64) as usize);
                        a.revoke_done(ino, g.client, &[g.seq]);
                        b.revoke_done(ino, g.client, &[g.seq]);
                    }
                    _ => {
                        let (x, y) = (bound(&mut rng), bound(&mut rng));
                        let range = if x == y {
                            ByteRange::new(x, x + 50)
                        } else {
                            ByteRange::new(x.min(y), x.max(y))
                        };
                        let mode = if rng.gen::<u64>() % 2 == 0 {
                            TokenMode::Read
                        } else {
                            TokenMode::Write
                        };
                        let desired = match rng.gen::<u64>() % 4 {
                            0 => ByteRange::from(range.start),
                            1 => ByteRange::new(
                                range.start.min(bound(&mut rng)),
                                range.end.max(bound(&mut rng)),
                            ),
                            _ => range,
                        };
                        let oa = a.acquire_desired(inode, client, range, desired, mode);
                        let ob = b.acquire_desired(inode, client, range, desired, mode);
                        assert_eq!(
                            oa.already_held, ob.already_held,
                            "seed {seed} step {step}: already_held"
                        );
                        assert_eq!(oa.granted, ob.granted, "seed {seed} step {step}: granted");
                        assert_eq!(
                            sorted(oa.revoked.clone()),
                            sorted(ob.revoked),
                            "seed {seed} step {step}: revoked set"
                        );
                        assert_eq!(
                            sorted(oa.awaited),
                            sorted(ob.awaited),
                            "seed {seed} step {step}: awaited set"
                        );
                        assert_eq!(a.conflicting_grants(), 0, "seed {seed} step {step}");
                        if !oa.already_held {
                            replies.push(oa.granted.seq);
                        }
                        acks.extend(oa.revoked.into_iter().map(|g| (inode, g)));
                    }
                }
                assert_eq!(a.pending(), b.pending(), "seed {seed} step {step}: pending");
                for probe_inode in [InodeId(1), InodeId(2)] {
                    assert_eq!(
                        a.grants(probe_inode).to_vec(),
                        sorted(b.grants(probe_inode)),
                        "seed {seed} step {step}: grants on {probe_inode:?}"
                    );
                }
                let (x, y) = (bound(&mut rng), bound(&mut rng));
                let probe = if x == y {
                    ByteRange::new(x, x + 10)
                } else {
                    ByteRange::new(x.min(y), x.max(y))
                };
                for m in [TokenMode::Read, TokenMode::Write] {
                    assert_eq!(
                        a.holds(inode, client, probe, m),
                        b.holds(inode, client, probe, m),
                        "seed {seed} step {step}: holds({probe:?}, {m:?})"
                    );
                }
            }
            assert_eq!(a.revocations, b.revocations, "seed {seed}: revocations");
        }
    }
}
