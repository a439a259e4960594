//! Cross-site replica catalog and nearest-replica read scheduling.
//!
//! The paper's Grid moved data wholesale (GridFTP) or read it straight
//! over the WAN; the modern answer — Grid Datafarm's worldwide
//! replication, Allcock et al.'s replica management — is *managed
//! replicas*: a catalog says which sites hold a current copy of each
//! file, reads are routed to the nearest/least-loaded copy, and writes
//! keep the copies coherent. This module is the deterministic model of
//! that catalog:
//!
//! * [`ReplicaCatalog`] lives on every [`FsInstance`] and maps inodes to
//!   N-way replica sets over [`ReplicaSite`]s — remote NSD farms with
//!   their own server nodes and their own service queues, attached by
//!   scenarios after world build.
//! * [`plan_run`] is the read scheduler: given a coalesced
//!   scatter-gather run it scores every current copy (and the home farm)
//!   by modeled round-trip time plus NSD queue depth plus in-flight
//!   pressure, picks the cheapest source, and fans large runs across
//!   near-equidistant sources in parallel segments.
//! * Write consistency rides the existing token machinery: the
//!   allocation RPC that records a write at the manager also calls
//!   [`ReplicaCatalog::on_write`], which bumps the file's generation and
//!   invalidates every copy; sites re-replicate in the background. A
//!   read never serves from a non-current copy: the fetch path re-checks
//!   [`ReplicaCatalog::copy_current`] at issue *and* at completion and
//!   falls back to the home farm, counting the fallback.
//! * [`TierState`] wires the cold end through the existing `hsm` crate:
//!   replica bytes ingested at a site migrate disk → tape under the
//!   watermark policy, and the catalog accounts the tape traffic.
//!
//! Everything here is ordinary deterministic state — `BTreeMap` file
//! table, keyed cache lookups, index-ordered tie-breaks — so worlds that
//! never populate the catalog take a single early-return and stay
//! byte-identical to the pre-replica data path.

use crate::types::{BlockAddr, InodeId, NsdId};
use crate::world::{FsInstance, NsdBacking, NsdState};
use hsm::manager::Hsm;
use simcore::fxhash::FxHashMap;
use simcore::{SimDuration, SimTime};
use simnet::{NodeId, Topology};
use std::collections::BTreeMap;

/// One remote site holding replicas: its server nodes and service queues.
#[derive(Clone, Debug)]
pub struct ReplicaSite {
    /// Site name (diagnostics).
    pub name: Box<str>,
    /// Server nodes; NSD `n` of a replicated file is served by
    /// `servers[n % len]`, mirroring the home farm's striping.
    pub servers: Vec<NodeId>,
    /// Per-slot service queues (always `NsdBacking::Ideal` — replica
    /// farms are modeled storage, not RAID arrays).
    pub nsds: Vec<NsdState>,
    /// Scatter-gather runs served from this site.
    pub reads: u64,
    /// Bytes served from this site.
    pub bytes_served: u64,
}

/// One site's copy of one file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaCopy {
    /// Index into [`ReplicaCatalog::sites`].
    pub site: u32,
    /// Generation the copy holds.
    pub gen: u64,
    /// False once a write invalidated it.
    pub valid: bool,
}

/// Catalog entry: a file's current generation and its replica set.
#[derive(Clone, Debug, Default)]
pub struct FileReplicas {
    /// Home generation — bumped by every recorded write, never reset.
    pub gen: u64,
    /// Copies, at most one per site, kept sorted by site index.
    pub copies: Vec<ReplicaCopy>,
}

/// Observability counters, exported as `replica_*` bench metadata.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaCounters {
    /// Runs whose file had at least one current copy (catalog routed).
    pub catalog_hits: u64,
    /// Runs whose file was cataloged but had no current copy.
    pub catalog_misses: u64,
    /// Segments routed to a replica site.
    pub remote_picks: u64,
    /// Segments the scheduler kept on the home farm.
    pub home_picks: u64,
    /// Sum of the winning source's modeled score (ns) over all planned
    /// runs — `/ catalog_hits` is the mean nearest-pick latency.
    pub pick_score_ns: u64,
    /// Runs split across ≥ 2 near-equidistant sources.
    pub split_fanouts: u64,
    /// Copies invalidated by writes.
    pub invalidations: u64,
    /// Fetches that found their planned copy no longer current at issue
    /// or completion and re-fetched from home instead of serving stale.
    pub stale_fallbacks: u64,
    /// Reads actually served from a non-current copy. The fetch path
    /// makes this impossible by construction; the invariant harness
    /// fails the world if it ever moves.
    pub stale_reads: u64,
    /// Copies installed (first install + re-installs after invalidation).
    pub installs: u64,
    /// Bytes shipped site-to-site to install copies.
    pub replicated_bytes: u64,
    /// High watermark over every file generation (monotonicity check).
    pub max_gen: u64,
}

/// Cold-tier wiring: an HSM instance archiving replica bytes to tape.
pub struct TierState {
    /// The watermark-driven migrator.
    pub hsm: Hsm,
    /// Disk → tape bytes written by ingests and sweeps so far.
    pub migrated_bytes: u64,
}

/// Where a run segment is served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The file's home NSD farm.
    Home,
    /// Replica site by index.
    Site(u32),
}

/// One planned slice of a scatter-gather run.
#[derive(Clone, Copy, Debug)]
pub struct RunSegment {
    /// First block of the slice, as an offset into the run.
    pub first: usize,
    /// Blocks in the slice.
    pub len: usize,
    /// Where to fetch it.
    pub source: Source,
    /// True when the catalog routed this segment (and bumped its
    /// in-flight pressure, which the completion path must release).
    pub tracked: bool,
}

/// In-flight pressure charged per planned-but-unfinished block, so
/// same-instant sibling runs spread across sources instead of all
/// piling onto the one whose queue *looked* empty.
const PENDING_BLOCK_NS: u64 = 500_000;
/// Runs at least this long may be split across sources.
const SPLIT_MIN_BLOCKS: usize = 4;
/// Extra sources join a split while their score is within
/// `max(2 × best, best + SPLIT_SLACK_NS)`.
const SPLIT_SLACK_NS: u64 = 2_000_000;

/// The per-filesystem replica catalog.
#[derive(Default)]
pub struct ReplicaCatalog {
    /// Attached replica sites.
    pub sites: Vec<ReplicaSite>,
    /// Cataloged files (deterministic iteration order).
    pub files: BTreeMap<InodeId, FileReplicas>,
    /// Counters.
    pub counters: ReplicaCounters,
    /// Planned-but-unfinished blocks per source: `[0]` is home,
    /// `[1 + s]` is site `s`.
    pending: Vec<u64>,
    /// Memoized round-trip times between node pairs (topology routes are
    /// static; recomputing Dijkstra per run would dominate the planner).
    rtt_cache: FxHashMap<(u32, u32), u64>,
    /// Optional cold tier.
    pub tier: Option<TierState>,
}

impl ReplicaCatalog {
    /// True when no file has a catalog entry — the read path's guard for
    /// the byte-identical legacy fast path.
    pub fn is_inert(&self) -> bool {
        self.files.is_empty()
    }

    /// Attach a replica site: `queues` idealized service slots at
    /// `media_rate` bytes/sec with `media_latency` per request. Returns
    /// the site index.
    pub fn attach_site(
        &mut self,
        name: &str,
        servers: Vec<NodeId>,
        queues: u32,
        media_rate: f64,
        media_latency: SimDuration,
    ) -> u32 {
        assert!(!servers.is_empty(), "replica site needs servers");
        assert!(queues > 0, "replica site needs service queues");
        self.sites.push(ReplicaSite {
            name: name.into(),
            servers,
            nsds: vec![
                NsdState {
                    backing: NsdBacking::Ideal {
                        rate: media_rate,
                        latency: media_latency,
                    },
                    busy_until: SimTime::ZERO,
                };
                queues as usize
            ],
            reads: 0,
            bytes_served: 0,
        });
        self.pending.resize(self.sites.len() + 1, 0);
        (self.sites.len() - 1) as u32
    }

    /// Enter a file into the catalog (no copies yet). Idempotent.
    pub fn register(&mut self, inode: InodeId) {
        self.files.entry(inode).or_default();
    }

    /// Install (or refresh) `site`'s copy of `inode` at the file's
    /// current generation, accounting `bytes` of replication traffic.
    /// Returns the generation installed.
    pub fn install_copy(&mut self, inode: InodeId, site: u32, bytes: u64) -> u64 {
        assert!((site as usize) < self.sites.len(), "unknown replica site");
        let f = self.files.entry(inode).or_default();
        let gen = f.gen;
        match f.copies.iter_mut().find(|c| c.site == site) {
            Some(c) => {
                c.gen = gen;
                c.valid = true;
            }
            None => {
                f.copies.push(ReplicaCopy {
                    site,
                    gen,
                    valid: true,
                });
                f.copies.sort_by_key(|c| c.site);
            }
        }
        self.counters.installs += 1;
        self.counters.replicated_bytes += bytes;
        if self.pending.is_empty() {
            self.pending.resize(self.sites.len() + 1, 0);
        }
        gen
    }

    /// A write landed at the manager: bump the generation and invalidate
    /// every copy. Rides the same manager mutation that records the write,
    /// so it is exactly-once under RPC retry and ordered with the
    /// byte-range token revocation that preceded it.
    pub fn on_write(&mut self, inode: InodeId) {
        let Some(f) = self.files.get_mut(&inode) else {
            return;
        };
        f.gen += 1;
        self.counters.max_gen = self.counters.max_gen.max(f.gen);
        for c in &mut f.copies {
            if c.valid {
                c.valid = false;
                self.counters.invalidations += 1;
            }
        }
    }

    /// Is `site`'s copy of `inode` current (valid at the file's live
    /// generation)? The fetch path checks this at issue and completion.
    pub fn copy_current(&self, inode: InodeId, site: u32) -> bool {
        self.files
            .get(&inode)
            .and_then(|f| f.copies.iter().find(|c| c.site == site))
            .is_some_and(|c| {
                let gen = self.files[&inode].gen;
                c.valid && c.gen == gen
            })
    }

    /// Release the in-flight pressure a tracked segment charged.
    pub fn release_pending(&mut self, source: Source, blocks: u64) {
        let idx = match source {
            Source::Home => 0,
            Source::Site(s) => 1 + s as usize,
        };
        if let Some(p) = self.pending.get_mut(idx) {
            *p = p.saturating_sub(blocks);
        }
    }

    /// Total copies currently installed and current.
    pub fn current_copies(&self) -> u64 {
        self.files
            .values()
            .map(|f| f.copies.iter().filter(|c| c.valid && c.gen == f.gen).count() as u64)
            .sum()
    }

    /// Wire up the cold tier.
    pub fn enable_tier(&mut self, hsm: Hsm) {
        self.tier = Some(TierState {
            hsm,
            migrated_bytes: 0,
        });
    }

    /// Ingest `bytes` of replica data into the cold tier's disk cache at
    /// `now` (may trigger watermark migration). Returns completion time.
    pub fn tier_ingest(&mut self, now: SimTime, id: u64, bytes: u64) -> SimTime {
        let Some(t) = self.tier.as_mut() else {
            return now;
        };
        let before = t.hsm.library.bytes_written;
        let done = t.hsm.ingest(now, hsm::manager::HsmFileId(id), bytes);
        t.migrated_bytes += t.hsm.library.bytes_written - before;
        done
    }

    /// Run the watermark sweep at `now`; returns when migration I/O
    /// completes.
    pub fn tier_sweep(&mut self, now: SimTime) -> SimTime {
        let Some(t) = self.tier.as_mut() else {
            return now;
        };
        let before = t.hsm.library.bytes_written;
        let done = t.hsm.run_migration(now);
        t.migrated_bytes += t.hsm.library.bytes_written - before;
        done
    }

    /// Disk → tape bytes the cold tier has written so far.
    pub fn migrated_bytes(&self) -> u64 {
        self.tier.as_ref().map_or(0, |t| t.migrated_bytes)
    }

    /// Replica-coherence audit, merged into `world_invariants` and
    /// `fsck_instance`. Empty means coherent.
    pub fn coherence_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.counters.stale_reads > 0 {
            v.push(format!(
                "{} read(s) served from an invalidated replica",
                self.counters.stale_reads
            ));
        }
        for (ino, f) in &self.files {
            if f.gen > self.counters.max_gen {
                v.push(format!(
                    "inode {}: generation {} above the catalog watermark {} (non-monotone)",
                    ino.0, f.gen, self.counters.max_gen
                ));
            }
            let mut seen = std::collections::BTreeSet::new();
            for c in &f.copies {
                if c.gen > f.gen {
                    v.push(format!(
                        "inode {}: site {} copy at generation {} ahead of the file ({})",
                        ino.0, c.site, c.gen, f.gen
                    ));
                }
                if c.valid && c.gen != f.gen {
                    v.push(format!(
                        "inode {}: site {} copy valid at stale generation {} (file at {})",
                        ino.0, c.site, c.gen, f.gen
                    ));
                }
                if c.site as usize >= self.sites.len() {
                    v.push(format!(
                        "inode {}: copy references unknown site {}",
                        ino.0, c.site
                    ));
                }
                if !seen.insert(c.site) {
                    v.push(format!("inode {}: duplicate copy for site {}", ino.0, c.site));
                }
            }
        }
        for (i, p) in self.pending.iter().enumerate() {
            if *p != 0 {
                v.push(format!(
                    "source {i}: {p} planned block(s) never completed (pending leak)"
                ));
            }
        }
        v
    }
}

/// Memoized round-trip time between two nodes, in nanoseconds.
fn rtt_ns(topo: &Topology, cache: &mut FxHashMap<(u32, u32), u64>, from: NodeId, to: NodeId) -> u64 {
    if let Some(&ns) = cache.get(&(from.0, to.0)) {
        return ns;
    }
    let one_way = topo
        .route(from, to)
        .map(|p| topo.path_delay(&p))
        .unwrap_or(SimDuration::from_secs(3600));
    let ns = 2 * one_way.as_nanos();
    cache.insert((from.0, to.0), ns);
    ns
}

/// Plan where a coalesced run of `nblocks` disk-contiguous blocks is
/// served from. The single-segment `Home` plan with `tracked: false` is
/// the byte-identical legacy path — it is returned without touching any
/// catalog state whenever the file has no current copy to offer.
///
/// With current copies on the table, every candidate source is scored
/// `RTT(client, server) + queue depth + in-flight pressure`; the
/// cheapest wins (ties break home-first, then lowest site index), and a
/// run of four or more blocks (`SPLIT_MIN_BLOCKS`) is fanned across every
/// source scoring within 2 ms (`SPLIT_SLACK_NS`) or 2× of the winner —
/// the "large striped reads fan across replicas in parallel" path.
pub fn plan_run(
    topo: &Topology,
    inst: &mut FsInstance,
    client_node: NodeId,
    inode: InodeId,
    addr: BlockAddr,
    nblocks: usize,
    now: SimTime,
) -> Vec<RunSegment> {
    let home_all = |tracked| {
        vec![RunSegment {
            first: 0,
            len: nblocks,
            source: Source::Home,
            tracked,
        }]
    };
    if inst.replicas.is_inert() || nblocks == 0 {
        return home_all(false);
    }
    let Some(file) = inst.replicas.files.get(&inode) else {
        return home_all(false);
    };
    let gen = file.gen;
    let copy_sites: Vec<u32> = file
        .copies
        .iter()
        .filter(|c| c.valid && c.gen == gen)
        .map(|c| c.site)
        .collect();
    if copy_sites.is_empty() {
        inst.replicas.counters.catalog_misses += 1;
        return home_all(false);
    }

    // Score the home farm and every current copy. `order` 0 is home so
    // equal scores deterministically prefer the home farm.
    let now_ns = now.as_nanos();
    let mut scored: Vec<(u64, usize, Source)> = Vec::with_capacity(1 + copy_sites.len());
    if let Some(server) = inst.try_server_of(NsdId(addr.nsd)) {
        let queue = inst.nsds[addr.nsd as usize]
            .busy_until
            .as_nanos()
            .saturating_sub(now_ns);
        let rtt = rtt_ns(topo, &mut inst.replicas.rtt_cache, client_node, server);
        let pressure = inst.replicas.pending.first().copied().unwrap_or(0) * PENDING_BLOCK_NS;
        scored.push((rtt + queue + pressure, 0, Source::Home));
    }
    for &s in &copy_sites {
        let site = &inst.replicas.sites[s as usize];
        let server = site.servers[addr.nsd as usize % site.servers.len()];
        let queue = site.nsds[addr.nsd as usize % site.nsds.len()]
            .busy_until
            .as_nanos()
            .saturating_sub(now_ns);
        let rtt = rtt_ns(topo, &mut inst.replicas.rtt_cache, client_node, server);
        let pressure = inst
            .replicas
            .pending
            .get(1 + s as usize)
            .copied()
            .unwrap_or(0)
            * PENDING_BLOCK_NS;
        scored.push((rtt + queue + pressure, 1 + s as usize, Source::Site(s)));
    }
    if scored.is_empty() {
        // Home down and (impossibly) no copy scored — stay legacy.
        return home_all(false);
    }
    scored.sort_by_key(|&(score, order, _)| (score, order));
    let best = scored[0].0;
    let cat = &mut inst.replicas;
    cat.counters.catalog_hits += 1;
    cat.counters.pick_score_ns += best;

    // Fan a long run across every near-equidistant source.
    let slack = (2 * best).max(best + SPLIT_SLACK_NS);
    let eligible: Vec<Source> = scored
        .iter()
        .take_while(|&&(score, _, _)| score <= slack)
        .map(|&(_, _, src)| src)
        .collect();
    let ways = if nblocks >= SPLIT_MIN_BLOCKS {
        eligible.len().min(nblocks / 2)
    } else {
        1
    };
    let chosen = &eligible[..ways.max(1)];
    if chosen.len() > 1 {
        cat.counters.split_fanouts += 1;
    }
    let base = nblocks / chosen.len();
    let extra = nblocks % chosen.len();
    let mut segs = Vec::with_capacity(chosen.len());
    let mut first = 0usize;
    for (i, &source) in chosen.iter().enumerate() {
        let len = base + usize::from(i < extra);
        let idx = match source {
            Source::Home => {
                cat.counters.home_picks += 1;
                0
            }
            Source::Site(s) => {
                cat.counters.remote_picks += 1;
                1 + s as usize
            }
        };
        if cat.pending.len() <= idx {
            cat.pending.resize(cat.sites.len() + 1, 0);
        }
        cat.pending[idx] += len as u64;
        segs.push(RunSegment {
            first,
            len,
            source,
            tracked: true,
        });
        first += len;
    }
    debug_assert_eq!(first, nblocks);
    segs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_with_sites(n: u32) -> ReplicaCatalog {
        let mut cat = ReplicaCatalog::default();
        for s in 0..n {
            cat.attach_site(
                &format!("site-{s}"),
                vec![NodeId(100 + s)],
                2,
                1e9,
                SimDuration::from_micros(200),
            );
        }
        cat
    }

    #[test]
    fn install_write_invalidate_reinstall_cycle() {
        let mut cat = catalog_with_sites(2);
        let ino = InodeId(7);
        cat.register(ino);
        assert_eq!(cat.install_copy(ino, 0, 1024), 0);
        assert_eq!(cat.install_copy(ino, 1, 1024), 0);
        assert!(cat.copy_current(ino, 0) && cat.copy_current(ino, 1));
        assert_eq!(cat.current_copies(), 2);

        cat.on_write(ino);
        assert!(!cat.copy_current(ino, 0));
        assert!(!cat.copy_current(ino, 1));
        assert_eq!(cat.counters.invalidations, 2);
        assert_eq!(cat.current_copies(), 0);

        // Re-replication refreshes the copy at the new generation.
        assert_eq!(cat.install_copy(ino, 0, 1024), 1);
        assert!(cat.copy_current(ino, 0));
        assert!(!cat.copy_current(ino, 1));
        assert!(cat.coherence_violations().is_empty());
    }

    #[test]
    fn generation_watermark_is_monotone() {
        let mut cat = catalog_with_sites(1);
        let (a, b) = (InodeId(1), InodeId(2));
        cat.register(a);
        cat.register(b);
        for _ in 0..5 {
            cat.on_write(a);
        }
        cat.on_write(b);
        assert_eq!(cat.counters.max_gen, 5);
        assert!(cat.coherence_violations().is_empty());
        // A fabricated regression is caught.
        cat.files.get_mut(&a).unwrap().gen = 99;
        assert!(!cat.coherence_violations().is_empty());
    }

    #[test]
    fn coherence_flags_stale_reads_and_pending_leaks() {
        let mut cat = catalog_with_sites(1);
        cat.register(InodeId(1));
        cat.counters.stale_reads = 1;
        assert_eq!(cat.coherence_violations().len(), 1);
        cat.counters.stale_reads = 0;
        cat.pending[0] = 3;
        assert_eq!(cat.coherence_violations().len(), 1);
        cat.release_pending(Source::Home, 3);
        assert!(cat.coherence_violations().is_empty());
    }

    #[test]
    fn tier_accounts_tape_bytes() {
        use hsm::tape::{TapeLibrary, TapeSpec};
        let mut cat = catalog_with_sites(1);
        let policy = hsm::manager::HsmPolicy::with_capacity(10 * 1024);
        cat.enable_tier(Hsm::new(policy, TapeLibrary::new(TapeSpec::stk_2005(), 2), None));
        let now = SimTime::ZERO;
        // Fill past the high watermark: ingest triggers migration.
        for i in 0..10u64 {
            cat.tier_ingest(now, i, 1024);
        }
        cat.tier_sweep(now);
        assert!(cat.migrated_bytes() > 0, "watermark sweep wrote no tape");
        assert!(cat.tier.as_ref().unwrap().hsm.disk_fill() <= 0.9);
    }
}
