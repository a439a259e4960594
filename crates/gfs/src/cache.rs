//! Client page pool: block cache with LRU eviction, dirty tracking for
//! write-behind, and sequential-access detection for prefetch.
//!
//! GPFS clients cache file blocks in a pinned "page pool"; streaming
//! performance over the WAN comes from deep prefetch (reads) and
//! write-behind (writes) keeping many blocks in flight — that is what makes
//! the 80 ms SDSC–Baltimore RTT survivable (paper §2).
//!
//! The replacement policy is plain LRU, implemented as an intrusive doubly
//! linked list threaded through a slab of frames and indexed by a
//! `HashMap<PageKey, frame>`: `get`, `insert_*` and eviction are all O(1) —
//! one hash probe plus pointer surgery — instead of the O(n)
//! `VecDeque::iter().position()` scan the pool used to pay on every touch.

use crate::types::{FsId, InodeId};
use bytes::Bytes;
use std::collections::HashMap;

/// Key of one cached block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PageKey {
    /// Filesystem.
    pub fs: FsId,
    /// File.
    pub inode: InodeId,
    /// Block index within the file.
    pub block: u64,
}

/// Sentinel frame index for list ends and free slots.
const NIL: u32 = u32::MAX;

/// One page frame: cached contents plus its intrusive LRU links. A page
/// may be shorter than a block; every byte past its end reads as zero.
#[derive(Debug)]
struct Frame {
    key: PageKey,
    data: Bytes,
    dirty: bool,
    /// Toward the LRU end (next victim).
    prev: u32,
    /// Toward the MRU end (most recently touched).
    next: u32,
    /// Occupied flag — freed frames are kept on a free list and reused.
    live: bool,
}

/// Eviction result: a dirty page that must be flushed before the frame is
/// reused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirtyPage {
    /// Which block.
    pub key: PageKey,
    /// Its contents.
    pub data: Bytes,
}

/// A fixed-capacity block cache with LRU replacement.
///
/// `head` is the LRU (eviction) end, `tail` the MRU end. Every operation
/// that touches a resident page performs exactly one hash lookup; the list
/// reorder is pointer surgery on the slab.
#[derive(Debug)]
pub struct PagePool {
    capacity_pages: usize,
    index: HashMap<PageKey, u32>,
    frames: Vec<Frame>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Pages evicted to make room (clean and dirty alike).
    pub evictions: u64,
}

impl PagePool {
    /// Pool holding at most `capacity_pages` blocks.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "page pool needs at least one page");
        PagePool {
            capacity_pages,
            index: HashMap::new(),
            frames: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Unlink frame `i` from the LRU list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let f = &self.frames[i as usize];
            (f.prev, f.next)
        };
        if prev != NIL {
            self.frames[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Append frame `i` at the MRU end.
    fn push_mru(&mut self, i: u32) {
        let f = &mut self.frames[i as usize];
        f.prev = self.tail;
        f.next = NIL;
        if self.tail != NIL {
            self.frames[self.tail as usize].next = i;
        } else {
            self.head = i;
        }
        self.tail = i;
    }

    /// Move an already-linked frame to the MRU end.
    fn touch_frame(&mut self, i: u32) {
        if self.tail == i {
            return;
        }
        self.unlink(i);
        self.push_mru(i);
    }

    /// Look up a block, updating LRU order and counters. Returns a cheap
    /// refcounted handle to the page contents (no payload copy).
    pub fn get(&mut self, key: PageKey) -> Option<Bytes> {
        if let Some(&i) = self.index.get(&key) {
            self.touch_frame(i);
            self.hits += 1;
            Some(self.frames[i as usize].data.clone())
        } else {
            self.misses += 1;
            None
        }
    }

    /// Peek without counting or LRU movement (used by flush logic).
    pub fn peek(&self, key: PageKey) -> Option<&Bytes> {
        self.index
            .get(&key)
            .map(|&i| &self.frames[i as usize].data)
    }

    /// Is the block resident? (no counter effect)
    pub fn contains(&self, key: PageKey) -> bool {
        self.index.contains_key(&key)
    }

    /// Insert a clean block (e.g. from an NSD read or prefetch). Returns
    /// any dirty pages evicted to make room — the caller must flush them.
    pub fn insert_clean(&mut self, key: PageKey, data: Bytes) -> Vec<DirtyPage> {
        self.insert(key, data, false)
    }

    /// Insert or overwrite a block as dirty (a client write). Returns
    /// evicted dirty pages the caller must flush.
    pub fn insert_dirty(&mut self, key: PageKey, data: Bytes) -> Vec<DirtyPage> {
        self.insert(key, data, true)
    }

    fn insert(&mut self, key: PageKey, data: Bytes, dirty: bool) -> Vec<DirtyPage> {
        let mut evicted = Vec::new();
        if let Some(&i) = self.index.get(&key) {
            let f = &mut self.frames[i as usize];
            f.data = data;
            f.dirty = f.dirty || dirty;
            self.touch_frame(i);
            return evicted;
        }
        while self.index.len() >= self.capacity_pages {
            let victim = self.head;
            if victim == NIL {
                break;
            }
            self.unlink(victim);
            let f = &mut self.frames[victim as usize];
            f.live = false;
            self.index.remove(&f.key);
            self.evictions += 1;
            if f.dirty {
                evicted.push(DirtyPage {
                    key: f.key,
                    data: std::mem::take(&mut f.data),
                });
            } else {
                f.data = Bytes::new();
            }
            self.free.push(victim);
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.frames[i as usize] = Frame {
                    key,
                    data,
                    dirty,
                    prev: NIL,
                    next: NIL,
                    live: true,
                };
                i
            }
            None => {
                let i = self.frames.len() as u32;
                self.frames.push(Frame {
                    key,
                    data,
                    dirty,
                    prev: NIL,
                    next: NIL,
                    live: true,
                });
                i
            }
        };
        self.index.insert(key, i);
        self.push_mru(i);
        evicted
    }

    /// Mark a block clean after a successful flush.
    pub fn mark_clean(&mut self, key: PageKey) {
        if let Some(&i) = self.index.get(&key) {
            self.frames[i as usize].dirty = false;
        }
    }

    /// All dirty pages of one file (for fsync/close), sorted by block.
    pub fn dirty_pages_of(&self, fs: FsId, inode: InodeId) -> Vec<DirtyPage> {
        let mut out: Vec<DirtyPage> = self
            .frames
            .iter()
            .filter(|f| f.live && f.dirty && f.key.fs == fs && f.key.inode == inode)
            .map(|f| DirtyPage {
                key: f.key,
                data: f.data.clone(),
            })
            .collect();
        out.sort_by_key(|d| d.key.block);
        out
    }

    /// Drop every page of one file (on unlink or revoke).
    pub fn invalidate_file(&mut self, fs: FsId, inode: InodeId) {
        let doomed: Vec<u32> = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.live && f.key.fs == fs && f.key.inode == inode)
            .map(|(i, _)| i as u32)
            .collect();
        for i in doomed {
            self.unlink(i);
            let f = &mut self.frames[i as usize];
            f.live = false;
            f.data = Bytes::new();
            self.index.remove(&f.key);
            self.free.push(i);
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Hit rate over the pool's lifetime (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

/// Sequential-access detector driving prefetch depth, per open file.
///
/// GPFS widens prefetch as a sequential pattern establishes itself; this
/// implements the same ramp: each consecutive sequential access doubles the
/// prefetch window up to `max_depth` blocks, and any random access resets.
#[derive(Clone, Debug)]
pub struct PrefetchState {
    next_expected: Option<u64>,
    depth: u32,
    max_depth: u32,
}

impl PrefetchState {
    /// New detector with a maximum prefetch depth in blocks.
    pub fn new(max_depth: u32) -> Self {
        PrefetchState {
            next_expected: None,
            depth: 0,
            max_depth,
        }
    }

    /// Record an access to `block`; returns how many blocks ahead to
    /// prefetch after this access.
    pub fn observe(&mut self, block: u64) -> u32 {
        if self.next_expected == Some(block) {
            self.depth = (self.depth * 2).clamp(1, self.max_depth);
        } else {
            self.depth = 0;
        }
        self.next_expected = Some(block + 1);
        self.depth
    }

    /// Current prefetch depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

/// Per-client dentry cache: `(fs, parent dir, interned name) -> inode`.
///
/// Resolution ([`crate::fscore::FsCore::lookup_via`]) probes this before the
/// directory map, so a warm client walks a deep path with zero directory
/// lookups. Coherence is by explicit invalidation: remove/rename report the
/// affected `(parent, name)` entries ([`crate::fscore::EntryChange`] /
/// [`crate::fscore::RenameChange`]) and the client layer broadcasts the
/// invalidation to every client, mirroring how its token revocation already
/// works. Negative results are never cached, so `create` needs no
/// invalidation — a miss always falls through to the authoritative
/// directory.
/// A second, whole-path tier sits above the per-component map: full absolute
/// path strings map straight to an inode in one hash probe. Entries are
/// tagged with the filesystem's namespace generation
/// ([`crate::fscore::FsCore::ns_gen`]); unlink/rename bump the generation,
/// which lazily invalidates every cached path at once (coarse, but a single
/// integer compare per probe — no broadcast walk over path strings).
/// Create/mkdir leave the generation alone: adding entries cannot make a
/// cached positive path→inode mapping wrong.
#[derive(Debug, Default)]
pub struct DentryCache {
    map: simcore::FxHashMap<(FsId, InodeId, crate::types::NameId), InodeId>,
    /// Whole-path tier, one map per mounted filesystem (clients mount a
    /// handful of devices, so a linear scan finds the slot faster than
    /// another hash).
    paths: Vec<(FsId, simcore::FxHashMap<Box<str>, (InodeId, u64)>)>,
    /// Probe hits.
    pub hits: u64,
    /// Probe misses.
    pub misses: u64,
}

impl DentryCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Probe for `(parent, name)`; counts a hit or miss.
    #[inline]
    pub fn get(&mut self, fs: FsId, parent: InodeId, name: crate::types::NameId) -> Option<InodeId> {
        match self.map.get(&(fs, parent, name)) {
            Some(&id) => {
                self.hits += 1;
                Some(id)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Record a resolved entry.
    #[inline]
    pub fn insert(&mut self, fs: FsId, parent: InodeId, name: crate::types::NameId, id: InodeId) {
        self.map.insert((fs, parent, name), id);
    }

    /// Probe the whole-path tier. `gen` is the filesystem's current
    /// namespace generation; an entry tagged with an older generation is
    /// stale (some unlink/rename happened since) and reads as a miss. Only
    /// hits are counted here — a miss falls through to the per-component
    /// walk, which does its own accounting.
    #[inline]
    pub fn get_path(&mut self, fs: FsId, path: &str, gen: u64) -> Option<InodeId> {
        let slot = self.paths.iter().find(|(f, _)| *f == fs)?;
        match slot.1.get(path) {
            Some(&(id, g)) if g == gen => {
                self.hits += 1;
                Some(id)
            }
            _ => None,
        }
    }

    /// Record a fully-resolved path at namespace generation `gen`.
    pub fn insert_path(&mut self, fs: FsId, path: &str, id: InodeId, gen: u64) {
        let slot = match self.paths.iter_mut().find(|(f, _)| *f == fs) {
            Some(s) => s,
            None => {
                self.paths.push((fs, simcore::FxHashMap::default()));
                self.paths.last_mut().expect("just pushed")
            }
        };
        slot.1.insert(path.into(), (id, gen));
    }

    /// Drop one entry (remove/rename invalidation). The whole-path tier
    /// needs nothing here: the generation bump that accompanies every
    /// remove/rename already invalidates it.
    pub fn invalidate(&mut self, fs: FsId, parent: InodeId, name: crate::types::NameId) {
        self.map.remove(&(fs, parent, name));
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Fraction of probes that hit (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Every cached `(fs, parent, name) -> inode` mapping, in no particular
    /// order. The chaos harness audits these against the live namespace:
    /// positive entries are only ever dropped by explicit invalidation, so
    /// a mapping the core disagrees with means a lost invalidation.
    pub fn entries(
        &self,
    ) -> impl Iterator<Item = (FsId, InodeId, crate::types::NameId, InodeId)> + '_ {
        self.map.iter().map(|(&(fs, parent, name), &id)| (fs, parent, name, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u64) -> PageKey {
        PageKey {
            fs: FsId(0),
            inode: InodeId(1),
            block: b,
        }
    }

    fn data(b: u8) -> Bytes {
        Bytes::from(vec![b; 16])
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut p = PagePool::new(4);
        assert!(p.get(key(0)).is_none());
        p.insert_clean(key(0), data(1));
        assert_eq!(p.get(key(0)).unwrap(), data(1));
        assert_eq!(p.hits, 1);
        assert_eq!(p.misses, 1);
        assert!((p.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest_clean_silently() {
        let mut p = PagePool::new(2);
        p.insert_clean(key(0), data(0));
        p.insert_clean(key(1), data(1));
        let evicted = p.insert_clean(key(2), data(2));
        assert!(evicted.is_empty(), "clean eviction needs no flush");
        assert!(!p.contains(key(0)));
        assert!(p.contains(key(1)));
        assert!(p.contains(key(2)));
        assert_eq!(p.evictions, 1);
    }

    #[test]
    fn get_refreshes_lru_position() {
        let mut p = PagePool::new(2);
        p.insert_clean(key(0), data(0));
        p.insert_clean(key(1), data(1));
        p.get(key(0)); // 0 becomes most recent
        p.insert_clean(key(2), data(2));
        assert!(p.contains(key(0)));
        assert!(!p.contains(key(1)));
    }

    #[test]
    fn dirty_eviction_returns_page() {
        let mut p = PagePool::new(1);
        p.insert_dirty(key(0), data(7));
        let evicted = p.insert_clean(key(1), data(1));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, key(0));
        assert_eq!(evicted[0].data, data(7));
    }

    #[test]
    fn overwrite_keeps_dirty_bit() {
        let mut p = PagePool::new(2);
        p.insert_dirty(key(0), data(1));
        p.insert_clean(key(0), data(2)); // e.g. reread: must stay dirty
        let d = p.dirty_pages_of(FsId(0), InodeId(1));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].data, data(2));
    }

    #[test]
    fn mark_clean_after_flush() {
        let mut p = PagePool::new(2);
        p.insert_dirty(key(0), data(1));
        p.mark_clean(key(0));
        assert!(p.dirty_pages_of(FsId(0), InodeId(1)).is_empty());
    }

    #[test]
    fn dirty_pages_sorted_by_block() {
        let mut p = PagePool::new(8);
        for b in [5u64, 1, 3] {
            p.insert_dirty(key(b), data(b as u8));
        }
        let d = p.dirty_pages_of(FsId(0), InodeId(1));
        let blocks: Vec<u64> = d.iter().map(|x| x.key.block).collect();
        assert_eq!(blocks, vec![1, 3, 5]);
    }

    #[test]
    fn invalidate_file_drops_pages() {
        let mut p = PagePool::new(8);
        p.insert_dirty(key(0), data(0));
        p.insert_clean(
            PageKey {
                fs: FsId(0),
                inode: InodeId(2),
                block: 0,
            },
            data(9),
        );
        p.invalidate_file(FsId(0), InodeId(1));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn eviction_order_is_strict_lru() {
        // Fill, touch a strict subset in a scrambled order, then overflow
        // one page at a time: victims must come out exactly in recency
        // order.
        let mut p = PagePool::new(4);
        for b in 0..4 {
            p.insert_dirty(key(b), data(b as u8));
        }
        p.get(key(2));
        p.get(key(0));
        p.insert_dirty(key(0), data(100)); // refresh 0 again, stays dirty
        // Recency now (LRU..MRU): 1, 3, 2, 0.
        let mut victims = Vec::new();
        for b in 10..14 {
            let ev = p.insert_clean(key(b), data(b as u8));
            victims.extend(ev.into_iter().map(|d| d.key.block));
        }
        assert_eq!(victims, vec![1, 3, 2, 0]);
        assert_eq!(p.evictions, 4);
    }

    #[test]
    fn dirty_write_behind_preserves_latest_contents() {
        // A page overwritten while dirty must evict with the newest data,
        // and a page reused after eviction must not resurrect old bytes.
        let mut p = PagePool::new(2);
        p.insert_dirty(key(0), data(1));
        p.insert_dirty(key(0), data(2));
        p.insert_clean(key(1), data(9));
        let ev = p.insert_clean(key(2), data(3)); // evicts 0
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].data, data(2), "stale write-behind contents");
        // Frame reuse: key 0 comes back clean with fresh contents.
        p.insert_clean(key(0), data(7));
        assert_eq!(p.peek(key(0)).unwrap(), &data(7));
        assert!(p.dirty_pages_of(FsId(0), InodeId(1)).is_empty() || {
            let d = p.dirty_pages_of(FsId(0), InodeId(1));
            d.iter().all(|x| x.key != key(0))
        });
    }

    /// Reference implementation with the old `VecDeque` LRU, for the
    /// equivalence property test.
    mod reference {
        use super::{Bytes, DirtyPage, PageKey};
        use std::collections::{HashMap, VecDeque};

        pub struct RefPool {
            cap: usize,
            pages: HashMap<PageKey, (Bytes, bool)>,
            lru: VecDeque<PageKey>,
        }

        impl RefPool {
            pub fn new(cap: usize) -> Self {
                RefPool {
                    cap,
                    pages: HashMap::new(),
                    lru: VecDeque::new(),
                }
            }

            fn touch(&mut self, key: PageKey) {
                if let Some(pos) = self.lru.iter().position(|k| *k == key) {
                    self.lru.remove(pos);
                }
                self.lru.push_back(key);
            }

            pub fn get(&mut self, key: PageKey) -> Option<Bytes> {
                if let Some((d, _)) = self.pages.get(&key) {
                    let d = d.clone();
                    self.touch(key);
                    Some(d)
                } else {
                    None
                }
            }

            pub fn insert(&mut self, key: PageKey, data: Bytes, dirty: bool) -> Vec<DirtyPage> {
                let mut evicted = Vec::new();
                if let Some((d, dt)) = self.pages.get_mut(&key) {
                    *d = data;
                    *dt = *dt || dirty;
                    self.touch(key);
                    return evicted;
                }
                while self.pages.len() >= self.cap {
                    let Some(victim) = self.lru.pop_front() else {
                        break;
                    };
                    if let Some((d, dt)) = self.pages.remove(&victim) {
                        if dt {
                            evicted.push(DirtyPage {
                                key: victim,
                                data: d,
                            });
                        }
                    }
                }
                self.pages.insert(key, (data, dirty));
                self.lru.push_back(key);
                evicted
            }

            pub fn invalidate_file(
                &mut self,
                fs: crate::types::FsId,
                inode: crate::types::InodeId,
            ) {
                self.pages.retain(|k, _| !(k.fs == fs && k.inode == inode));
                self.lru.retain(|k| !(k.fs == fs && k.inode == inode));
            }

            pub fn mark_clean(&mut self, key: PageKey) {
                if let Some((_, dt)) = self.pages.get_mut(&key) {
                    *dt = false;
                }
            }

            pub fn contains(&self, key: PageKey) -> bool {
                self.pages.contains_key(&key)
            }

            pub fn len(&self) -> usize {
                self.pages.len()
            }
        }
    }

    #[test]
    fn randomized_equivalence_with_reference_lru() {
        // Drive the intrusive-list pool and the old VecDeque pool through
        // the same randomized get/insert/evict/invalidate trace; resident
        // sets, returned data and evicted dirty pages must agree at every
        // step.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0xace0_0000 + seed);
            let cap = 1 + (rng.gen::<u64>() % 8) as usize;
            let mut a = PagePool::new(cap);
            let mut b = reference::RefPool::new(cap);
            for step in 0..400 {
                let block = rng.gen::<u64>() % 12;
                let inode = InodeId(1 + rng.gen::<u64>() % 2);
                let k = PageKey {
                    fs: FsId(0),
                    inode,
                    block,
                };
                match rng.gen::<u64>() % 10 {
                    0..=3 => {
                        let ra = a.get(k);
                        let rb = b.get(k);
                        assert_eq!(ra, rb, "seed {seed} step {step}: get({k:?})");
                    }
                    4..=6 => {
                        let d = Bytes::from(vec![(step % 251) as u8; 8]);
                        let ea = a.insert_dirty(k, d.clone());
                        let eb = b.insert(k, d, true);
                        assert_eq!(ea, eb, "seed {seed} step {step}: insert_dirty");
                    }
                    7..=8 => {
                        let d = Bytes::from(vec![(step % 17) as u8; 8]);
                        let ea = a.insert_clean(k, d.clone());
                        let eb = b.insert(k, d, false);
                        assert_eq!(ea, eb, "seed {seed} step {step}: insert_clean");
                    }
                    _ => {
                        if rng.gen::<u64>() % 4 == 0 {
                            a.invalidate_file(FsId(0), inode);
                            b.invalidate_file(FsId(0), inode);
                        } else {
                            a.mark_clean(k);
                            b.mark_clean(k);
                        }
                    }
                }
                assert_eq!(a.len(), b.len(), "seed {seed} step {step}: len");
                assert_eq!(
                    a.contains(k),
                    b.contains(k),
                    "seed {seed} step {step}: contains"
                );
            }
        }
    }

    #[test]
    fn prefetch_ramps_and_resets() {
        let mut pf = PrefetchState::new(16);
        assert_eq!(pf.observe(0), 0); // first access: unknown pattern
        assert_eq!(pf.observe(1), 1);
        assert_eq!(pf.observe(2), 2);
        assert_eq!(pf.observe(3), 4);
        assert_eq!(pf.observe(4), 8);
        assert_eq!(pf.observe(5), 16);
        assert_eq!(pf.observe(6), 16); // clamped
        assert_eq!(pf.observe(100), 0); // random access resets
        assert_eq!(pf.observe(101), 1);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_rejected() {
        PagePool::new(0);
    }
}
