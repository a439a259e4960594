//! # trace — captured-trace replay with an oracle differ
//!
//! The paper's headline workloads are real application shapes: untar/build
//! trees over WAN-GPFS (§3), NVO catalog scans (§5), Enzo checkpoint
//! cadences (§5). This module turns each of those shapes into a *replayable
//! trace* and every trace into a *correctness test*:
//!
//! 1. **Trace format** — [`TraceOp`] is one captured operation
//!    (`op path [path2] size think_ns`), with a hand-rolled line codec
//!    ([`render_trace`] / [`parse_trace`], no external deps) so corpora can
//!    be stored, inspected and diffed as plain text.
//! 2. **Corpus generators** — [`TraceCorpus`] emits deterministic,
//!    realistically-shaped corpora for the three paper workloads, including
//!    deliberate error-shaped ops (double unlinks, stats of missing paths,
//!    mkdir collisions) so typed-error behavior is part of the contract.
//! 3. **Replay** — [`replay_trace`] partitions a corpus into
//!    namespace-disjoint streams (union-find over top-level components;
//!    renames union their two tops), gives each stream a flyweight
//!    `Session`, and replays the ops through the full stack — fan-in
//!    envelopes, manager shards, subtree leases, replica catalog, faults —
//!    on the session driver the metadata storm runs on (`chain.rs`).
//! 4. **Oracle differ** — the session driver's per-op hook also runs every op
//!    against a [`ModelFs`]: a trivial in-memory filesystem with none of
//!    the caching, sharding, token or lease machinery. Results are
//!    compared op-by-op — values *and* typed `FsError` variants — and the
//!    final trees are compared by structural fingerprint. Because streams
//!    are namespace-disjoint and each stream is sequential, the oracle's
//!    answer is well-defined even though streams interleave in time.
//! 5. **Chaos entry** — [`check_trace_differential`] replays a corpus at
//!    M=1 and M=4 manager shards, leases and replicas on, under healthy /
//!    manager-kill / NSD-crash / partition schedules, and demands zero
//!    op-level divergence, a fingerprint-identical final tree, zero
//!    exhausted retry budgets and a clean fsck. Faults may never change
//!    *answers*, only timing.

use crate::builder::{NsdFarm, ScenarioBuilder};
use crate::chain::{self, mix, Chain, Lease, Mirror, Oracle, Run};
use crate::chaos::Verdict;
use crate::metadata_storm::{ChaosSpec, StormReport};
use gfs::faults::{ProgressInjector, ProgressPlan};
use gfs::fscore::top_component;
use gfs::oracle::ModelFs;
use gfs::types::FsId;
use simcore::{Bandwidth, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Trace format
// ---------------------------------------------------------------------------

/// One captured operation kind. `Create` is open-for-write + close (a pure
/// namespace creation); `Write`/`Read` are open + data op + close.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOpKind {
    /// Create a directory.
    Mkdir,
    /// Create an empty file (open for write, close).
    Create,
    /// `stat` the path.
    Stat,
    /// List the directory.
    Readdir,
    /// Remove a file or empty directory.
    Unlink,
    /// Rename `path` to `path2`.
    Rename,
    /// Open for write, write `size` bytes at offset 0, close.
    Write,
    /// Open for read, read up to `size` bytes from offset 0, close.
    Read,
}

impl TraceOpKind {
    /// The codec keyword.
    pub fn kw(self) -> &'static str {
        match self {
            TraceOpKind::Mkdir => "mkdir",
            TraceOpKind::Create => "create",
            TraceOpKind::Stat => "stat",
            TraceOpKind::Readdir => "readdir",
            TraceOpKind::Unlink => "unlink",
            TraceOpKind::Rename => "rename",
            TraceOpKind::Write => "write",
            TraceOpKind::Read => "read",
        }
    }

    fn from_kw(s: &str) -> Option<Self> {
        Some(match s {
            "mkdir" => TraceOpKind::Mkdir,
            "create" => TraceOpKind::Create,
            "stat" => TraceOpKind::Stat,
            "readdir" => TraceOpKind::Readdir,
            "unlink" => TraceOpKind::Unlink,
            "rename" => TraceOpKind::Rename,
            "write" => TraceOpKind::Write,
            "read" => TraceOpKind::Read,
            _ => return None,
        })
    }
}

/// One captured trace record: `op size think_ns path [path2]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Operation kind.
    pub kind: TraceOpKind,
    /// Absolute primary path.
    pub path: String,
    /// Absolute destination path (`Rename` only).
    pub path2: Option<String>,
    /// Byte count for `Write` (written) and `Read` (requested; reads are
    /// short at EOF). 0 for metadata ops.
    pub size: u64,
    /// Client think time before issuing the op, in simulated nanoseconds.
    pub think_ns: u64,
}

impl TraceOp {
    pub(crate) fn meta(kind: TraceOpKind, path: impl Into<String>, think_ns: u64) -> Self {
        TraceOp {
            kind,
            path: path.into(),
            path2: None,
            size: 0,
            think_ns,
        }
    }

    pub(crate) fn data(
        kind: TraceOpKind,
        path: impl Into<String>,
        size: u64,
        think_ns: u64,
    ) -> Self {
        TraceOp {
            kind,
            path: path.into(),
            path2: None,
            size,
            think_ns,
        }
    }

    pub(crate) fn rename(from: impl Into<String>, to: impl Into<String>, think_ns: u64) -> Self {
        TraceOp {
            kind: TraceOpKind::Rename,
            path: from.into(),
            path2: Some(to.into()),
            size: 0,
            think_ns,
        }
    }
}

/// Render a trace to its text form: one `op size think_ns path [path2]`
/// line per record. `parse_trace(render_trace(t)) == t` for every trace
/// whose paths contain no whitespace (the generators never emit any).
pub fn render_trace(ops: &[TraceOp]) -> String {
    let mut out = String::new();
    for op in ops {
        out.push_str(op.kind.kw());
        out.push(' ');
        out.push_str(&op.size.to_string());
        out.push(' ');
        out.push_str(&op.think_ns.to_string());
        out.push(' ');
        out.push_str(&op.path);
        if let Some(p2) = &op.path2 {
            out.push(' ');
            out.push_str(p2);
        }
        out.push('\n');
    }
    out
}

/// Parse the text form. Blank lines and `#` comments are skipped; any
/// malformed line rejects the whole trace with a `line N:` message —
/// a trace is a correctness artifact, so partial acceptance would hide
/// capture bugs.
pub fn parse_trace(text: &str) -> Result<Vec<TraceOp>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let kind = TraceOpKind::from_kw(fields[0])
            .ok_or_else(|| format!("line {n}: unknown op {:?}", fields[0]))?;
        let want = if kind == TraceOpKind::Rename { 5 } else { 4 };
        if fields.len() != want {
            return Err(format!(
                "line {n}: {} takes {} field(s), got {}",
                kind.kw(),
                want,
                fields.len()
            ));
        }
        let size: u64 = fields[1]
            .parse()
            .map_err(|_| format!("line {n}: bad size {:?}", fields[1]))?;
        let think_ns: u64 = fields[2]
            .parse()
            .map_err(|_| format!("line {n}: bad think_ns {:?}", fields[2]))?;
        let path = fields[3].to_string();
        if !path.starts_with('/') {
            return Err(format!("line {n}: path {path:?} is not absolute"));
        }
        let path2 = if kind == TraceOpKind::Rename {
            let p2 = fields[4].to_string();
            if !p2.starts_with('/') {
                return Err(format!("line {n}: rename target {p2:?} is not absolute"));
            }
            Some(p2)
        } else {
            None
        };
        out.push(TraceOp {
            kind,
            path,
            path2,
            size,
            think_ns,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Corpus generators
// ---------------------------------------------------------------------------

/// The three paper workload shapes, as deterministic trace corpora.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceCorpus {
    /// Untar a source tree then build it: bursts of sequential creates and
    /// small writes, stat/read-heavy compile phase, temp files renamed
    /// *across* top-level directories (src → obj), some cleanup unlinks —
    /// including deliberate misses (double unlink, stat of a file that was
    /// never extracted, mkdir collision).
    UntarBuild,
    /// NVO catalog scan: plates of multi-block catalog files written once,
    /// then a scan phase that readdirs every plate, stats every file and
    /// reads it end-to-end — the replica catalog's home turf.
    NvoScan,
    /// Enzo checkpoint cadence: write `chk.tmp`, rename into the numbered
    /// slot, stat it, unlink checkpoints beyond the keep window — all
    /// inside one top-level directory, so the stream is subtree-leasable.
    EnzoCheckpoint,
}

impl TraceCorpus {
    /// All corpora, for harnesses that sweep the set.
    pub const ALL: [TraceCorpus; 3] = [
        TraceCorpus::UntarBuild,
        TraceCorpus::NvoScan,
        TraceCorpus::EnzoCheckpoint,
    ];

    /// Stable corpus name, used in reports and perf entries.
    pub fn name(self) -> &'static str {
        match self {
            TraceCorpus::UntarBuild => "untar-build",
            TraceCorpus::NvoScan => "nvo-scan",
            TraceCorpus::EnzoCheckpoint => "enzo-checkpoint",
        }
    }

    /// Generate `streams` independent client streams at `scale` (roughly
    /// "directories per stream"). Deterministic in `(streams, scale, seed)`:
    /// sizes and error-shaped probes come from a seeded mix, not a stateful
    /// RNG, so the corpus is reproducible from its parameters alone.
    pub fn generate(self, streams: u32, scale: u32, seed: u64) -> Vec<TraceOp> {
        let mut ops = Vec::new();
        for i in 0..streams {
            match self {
                TraceCorpus::UntarBuild => gen_untar_build(&mut ops, i, scale, seed),
                TraceCorpus::NvoScan => gen_nvo_scan(&mut ops, i, scale, seed),
                TraceCorpus::EnzoCheckpoint => gen_enzo(&mut ops, i, scale, seed),
            }
        }
        ops
    }
}

/// Deterministic "random" in `[0, m)` from a seed and coordinates.
fn det(seed: u64, a: u64, b: u64, m: u64) -> u64 {
    mix(mix(seed, a), b) % m.max(1)
}

/// Untar/build over two top dirs per stream: `/ubNNs` (source) and
/// `/ubNNo` (objects). The rename of build temporaries from source to
/// object tree crosses tops — with a partitioned namespace that is a
/// two-phase cross-shard op on every build.
fn gen_untar_build(ops: &mut Vec<TraceOp>, i: u32, scale: u32, seed: u64) {
    use TraceOpKind::*;
    let src = format!("/ub{i:02}s");
    let obj = format!("/ub{i:02}o");
    let dirs = scale.max(1) * 2;
    let think = 20_000; // 20 µs between untar records
    ops.push(TraceOp::meta(Mkdir, &src, 0));
    ops.push(TraceOp::meta(Mkdir, &obj, 0));
    // Untar phase: extract headers and sources dir-by-dir.
    for d in 0..dirs {
        let sd = format!("{src}/d{d:02}");
        ops.push(TraceOp::meta(Mkdir, &sd, think));
        ops.push(TraceOp::meta(Mkdir, format!("{obj}/d{d:02}"), think));
        for f in 0..3u32 {
            ops.push(TraceOp::meta(Create, format!("{sd}/h{f}.h"), think));
            let csize = 1024 + det(seed, u64::from(i * 251 + d), u64::from(f), 7 * 1024);
            ops.push(TraceOp::data(Write, format!("{sd}/c{f}.c"), csize, think));
        }
    }
    // A tar archive with a duplicate member: the second mkdir collides.
    ops.push(TraceOp::meta(Mkdir, format!("{src}/d00"), think));
    // Build phase: readdir each dir, stat and read the sources, emit an
    // object via write-temp-then-rename into the object tree.
    let bthink = 50_000; // the compiler "works" between ops
    for d in 0..dirs {
        let sd = format!("{src}/d{d:02}");
        ops.push(TraceOp::meta(Readdir, &sd, bthink));
        for f in 0..3u32 {
            ops.push(TraceOp::meta(Stat, format!("{sd}/h{f}.h"), bthink));
            ops.push(TraceOp::data(Read, format!("{sd}/c{f}.c"), 64 * 1024, bthink));
            let osize = 2048 + det(seed, u64::from(i * 127 + d), u64::from(f) + 64, 6 * 1024);
            let tmp = format!("{sd}/t{f}.tmp");
            ops.push(TraceOp::data(Write, &tmp, osize, bthink));
            ops.push(TraceOp::rename(&tmp, format!("{obj}/d{d:02}/o{f}.o"), bthink));
        }
        // Makefile probes a generated header that does not exist.
        ops.push(TraceOp::meta(Stat, format!("{sd}/gen{d}.h"), bthink));
    }
    // Error-shaped cleanup: a path through a file, a double unlink, an
    // unlink of a non-empty directory, a final `ls -R` of both trees.
    ops.push(TraceOp::meta(Stat, format!("{src}/d00/h0.h/nested"), bthink));
    ops.push(TraceOp::meta(Unlink, format!("{src}/d00/c0.c"), bthink));
    ops.push(TraceOp::meta(Unlink, format!("{src}/d00/c0.c"), bthink));
    ops.push(TraceOp::meta(Unlink, &src, bthink));
    ops.push(TraceOp::meta(Readdir, &src, bthink));
    ops.push(TraceOp::meta(Readdir, &obj, bthink));
}

/// NVO catalog scan over `/nvoNN`: plates of 64–256 KiB catalog files
/// (several 64 KiB blocks each, so replica reads can split across copies),
/// then a full readdir + stat + read sweep with scan think time.
fn gen_nvo_scan(ops: &mut Vec<TraceOp>, i: u32, scale: u32, seed: u64) {
    use TraceOpKind::*;
    let top = format!("/nvo{i:02}");
    let plates = scale.max(1);
    ops.push(TraceOp::meta(Mkdir, &top, 0));
    for p in 0..plates {
        let pd = format!("{top}/p{p:02}");
        ops.push(TraceOp::meta(Mkdir, &pd, 10_000));
        for f in 0..3u32 {
            let size = 64 * 1024 + det(seed, u64::from(i * 61 + p), u64::from(f), 192 * 1024);
            ops.push(TraceOp::data(Write, format!("{pd}/cat{f}.fits"), size, 10_000));
        }
    }
    // Scan phase: the catalog walker.
    let think = 100_000; // 100 µs of query work per object
    ops.push(TraceOp::meta(Readdir, &top, think));
    for p in 0..plates {
        let pd = format!("{top}/p{p:02}");
        ops.push(TraceOp::meta(Readdir, &pd, think));
        for f in 0..3 {
            let path = format!("{pd}/cat{f}.fits");
            ops.push(TraceOp::meta(Stat, &path, think));
            ops.push(TraceOp::data(Read, &path, 256 * 1024, think));
        }
        // The scan also probes a plate index that was never published.
        ops.push(TraceOp::meta(Stat, format!("{pd}/index.dat"), think));
    }
    ops.push(TraceOp::meta(Readdir, &top, think));
}

/// Enzo checkpoint cadence inside `/enzNN`: write `chk.tmp`, rename into
/// the numbered slot, stat, expire old checkpoints past the keep window.
/// Single-top by construction, so the stream qualifies for a subtree
/// lease and the whole cadence can ride the writeback delegate.
fn gen_enzo(ops: &mut Vec<TraceOp>, i: u32, scale: u32, seed: u64) {
    use TraceOpKind::*;
    let top = format!("/enz{i:02}");
    let cycles = scale.max(1) * 3;
    let keep = 2;
    ops.push(TraceOp::meta(Mkdir, &top, 0));
    for c in 0..cycles {
        let size = 128 * 1024 + det(seed, u64::from(i), u64::from(c), 64 * 1024);
        // The dominant cadence cost is the compute between checkpoints.
        ops.push(TraceOp::data(Write, format!("{top}/chk.tmp"), size, 2_000_000));
        ops.push(TraceOp::rename(
            format!("{top}/chk.tmp"),
            format!("{top}/chk{c:03}"),
            20_000,
        ));
        ops.push(TraceOp::meta(Stat, format!("{top}/chk{c:03}"), 20_000));
        if c >= keep {
            ops.push(TraceOp::meta(Unlink, format!("{top}/chk{:03}", c - keep), 20_000));
        }
    }
    // Restart-from-checkpoint probe: the slot one past the end is missing.
    ops.push(TraceOp::meta(Stat, format!("{top}/chk{cycles:03}"), 20_000));
    ops.push(TraceOp::meta(Readdir, &top, 20_000));
}

// ---------------------------------------------------------------------------
// Stream partitioning
// ---------------------------------------------------------------------------

/// Partition a trace into namespace-disjoint streams: union-find over
/// top-level components, where a rename unions its two tops and any op on
/// the root (`/`) unions *everything* (a root readdir observes every top).
/// Each stream preserves corpus order; streams are returned in order of
/// first appearance. Within a stream, ops are causally ordered; across
/// streams no op can observe another stream's effects — which is exactly
/// what makes the per-op oracle comparison sound under interleaving.
pub fn split_streams(ops: &[TraceOp]) -> Vec<Vec<TraceOp>> {
    // Union-find over top names.
    let mut tops: Vec<String> = Vec::new();
    let mut parent: Vec<usize> = Vec::new();
    let index_of = |t: &str, tops: &mut Vec<String>, parent: &mut Vec<usize>| -> usize {
        match tops.iter().position(|x| x == t) {
            Some(i) => i,
            None => {
                tops.push(t.to_string());
                parent.push(tops.len() - 1);
                tops.len() - 1
            }
        }
    };
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut root_seen = false;
    for op in ops {
        let a = index_of(top_component(&op.path), &mut tops, &mut parent);
        if tops[a].is_empty() {
            root_seen = true;
        }
        if let Some(p2) = &op.path2 {
            let b = index_of(top_component(p2), &mut tops, &mut parent);
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        }
    }
    if root_seen {
        // An op on `/` sees the whole namespace: collapse to one stream.
        for i in 0..parent.len() {
            let r = find(&mut parent, i);
            parent[r] = 0;
        }
    }
    // Bucket ops by component root, streams in first-appearance order.
    let mut order: Vec<usize> = Vec::new();
    let mut buckets: Vec<Vec<TraceOp>> = Vec::new();
    for op in ops {
        let t = top_component(&op.path).to_string();
        let i = tops.iter().position(|x| *x == t).expect("top interned");
        let r = find(&mut parent, i);
        let slot = match order.iter().position(|&x| x == r) {
            Some(s) => s,
            None => {
                order.push(r);
                buckets.push(Vec::new());
                order.len() - 1
            }
        };
        buckets[slot].push(op.clone());
    }
    buckets
}

/// The single top-level component a stream touches, if it touches exactly
/// one (and not the root) — the condition for taking a subtree lease on it.
fn single_top(stream: &[TraceOp]) -> Option<String> {
    let mut top: Option<&str> = None;
    for op in stream {
        for p in std::iter::once(op.path.as_str()).chain(op.path2.as_deref()) {
            let t = top_component(p);
            if t.is_empty() {
                return None;
            }
            match top {
                None => top = Some(t),
                Some(prev) if prev == t => {}
                Some(_) => return None,
            }
        }
    }
    top.map(|t| t.to_string())
}

// ---------------------------------------------------------------------------
// Replay + oracle differ
// ---------------------------------------------------------------------------

/// Replay shape. `leases` and `replicate` follow the storm's gating:
/// subtree leases are a partition-era feature, so they engage only with
/// `managers > 1` (and only for streams that live inside a single top).
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Namespace-manager shards (tops round-robin across them).
    pub managers: u32,
    /// Let single-top streams take subtree leases (effective at M>1).
    pub leases: bool,
    /// Attach a replica site and install copies mid-replay (at 1/3 of the
    /// corpus), so later reads route through the catalog.
    pub replicate: bool,
    /// Determinism seed for the world build.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            managers: 1,
            leases: false,
            replicate: false,
            seed: 2005,
        }
    }
}

/// Flyweight sessions packed per mount context in a replay.
const PER_MOUNT: u32 = 2;

/// Result of one replay: the session-driver counters of the run plus the
/// oracle's verdict. `divergence_samples` carries the first few op-level
/// mismatches verbatim so a failing differential names the exact op and
/// both answers.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// The run's counters, one session per stream (each `Write`/`Read`
    /// counts as one op; typed errors are expected outcomes, the corpora
    /// include deliberate misses).
    pub run: StormReport,
    /// Op-level and final-tree disagreements between the real stack and
    /// the oracle.
    pub divergences: u64,
    /// First few divergences, rendered for humans.
    pub divergence_samples: Vec<String>,
    /// Structural fingerprint of the oracle's final tree.
    pub oracle_fingerprint: u64,
    /// `run.tree_fingerprint == oracle_fingerprint`.
    pub tree_matches_oracle: bool,
}

/// Replay a trace through the full stack and diff every op against the
/// in-memory oracle. The corpus is split into namespace-disjoint streams,
/// each driven by its own flyweight session (packed two to a mount
/// context, so same-instant ops ride fan-in envelopes); with `managers > 1`
/// the tops are round-robined across shards, and with `leases` on each
/// single-top stream runs under a subtree lease. The report carries both
/// final-tree fingerprints and every op-level divergence found.
pub fn replay_trace(ops: &[TraceOp], cfg: &ReplayConfig, chaos: &ChaosSpec) -> ReplayReport {
    let streams = split_streams(ops);
    let nstreams = streams.len() as u32;
    assert!(nstreams > 0, "cannot replay an empty trace");

    let mut sb = ScenarioBuilder::new(cfg.seed);
    let fs = sb.nsd_farm(
        "site",
        NsdFarm::new("trace", 4)
            .block_size(64 * 1024)
            .managers(cfg.managers)
            .stored_data(),
    );
    let client_site = if chaos.wan_clients {
        sb.wan(
            "edge",
            "site",
            Bandwidth::gbit(10.0),
            SimDuration::from_millis(2),
            "trace-wan",
        );
        "edge"
    } else {
        "site"
    };
    // Mirror servers co-located with the clients on faster links than the
    // home NSD servers (10 µs vs 50 µs), so once copies are installed the
    // catalog's nearest-replica policy (rtt + queue pressure, ties to
    // home) actually picks them.
    let mirror_servers = if cfg.replicate {
        let sw = sb.site(client_site);
        (0..2)
            .map(|k| {
                let name = format!("mirror-srv{k}");
                let n = sb.world_builder().topo().node(name.clone());
                sb.world_builder().topo().duplex_link(
                    n,
                    sw,
                    Bandwidth::gbit(10.0),
                    SimDuration::from_micros(10),
                    name,
                );
                n
            })
            .collect::<Vec<_>>()
    } else {
        Vec::new()
    };
    let sessions = sb.sessions(client_site, nstreams, PER_MOUNT);
    let mut sr = sb.run(SimTime::from_secs(1));

    // Deterministic shard placement: every top the corpus touches,
    // round-robined in first-appearance order.
    if cfg.managers > 1 {
        let mut tops: Vec<String> = Vec::new();
        for op in ops {
            for p in std::iter::once(op.path.as_str()).chain(op.path2.as_deref()) {
                let t = top_component(p);
                if !t.is_empty() && !tops.iter().any(|x| x == t) {
                    tops.push(t.to_string());
                }
            }
        }
        let core = &mut sr.world.fss[fs.0 as usize].core;
        for (i, t) in tops.iter().enumerate() {
            core.shards.assign(t.clone(), i as u32 % cfg.managers);
        }
    }
    let mirror = (!mirror_servers.is_empty()).then(|| Mirror {
        fs,
        site: sr.world.fss[fs.0 as usize].replicas.attach_site(
            "mirror",
            mirror_servers,
            4,
            1e9,
            SimDuration::from_micros(200),
        ),
        at: ops.len() as u64 / 3,
        installed: Cell::new(false),
    });
    let st = Rc::new(Run {
        faults: (!chaos.progress.is_empty())
            .then(|| RefCell::new(ProgressInjector::new(&chaos.progress))),
        oracle: Some(Oracle::new(ModelFs::new())),
        mirror,
        ..Run::default()
    });

    let replay_start = sr.sim.now();
    {
        let (sim, w) = (&mut sr.sim, &mut sr.world);
        sim.set_horizon(sim.now() + SimDuration::from_secs(3600));
        let lease_on = cfg.leases && cfg.managers > 1;
        let mut streams = streams.into_iter();
        let groups = sessions
            .chunks(PER_MOUNT as usize)
            .map(|group| {
                let chains = group.iter().map(|&sess| {
                    let ops = streams.next().expect("one stream per session");
                    let lease = single_top(&ops)
                        .filter(|_| lease_on)
                        .map(|top| Lease::new(format!("/{top}"), sess, 1, st.clone()));
                    let mut ops = ops.into_iter();
                    Chain {
                        sess,
                        ops: Box::new(move || ops.next()),
                        lease,
                        run: st.clone(),
                    }
                });
                chains.collect()
            })
            .collect();
        chain::launch(sim, w, "trace", groups);
        sim.run(w);
    }
    assert_eq!(
        st.tally.finished.get(),
        nstreams,
        "trace replay: some stream chains did not drain"
    );

    let w = &sr.world;
    let run = StormReport::drained(&sr.sim, w, fs, &st.tally, replay_start, "trace replay");
    let oracle = st.oracle.as_ref().expect("the replay carries an oracle");
    let tree_matches_oracle = oracle.diff_tree(&w.fss[fs.0 as usize].core, run.tree_fingerprint);
    let oracle_fingerprint = oracle.model.borrow().tree_fingerprint();
    ReplayReport {
        run,
        divergences: oracle.divergences.get(),
        divergence_samples: oracle.samples.take(),
        oracle_fingerprint,
        tree_matches_oracle,
    }
}

// ---------------------------------------------------------------------------
// The chaos entry
// ---------------------------------------------------------------------------

/// Verdict of a full corpus differential: every `(schedule, report)` pair,
/// labeled, plus the violations found across all of them.
pub type TraceVerdict = Verdict<Vec<(String, ReplayReport)>>;

impl TraceVerdict {
    /// Total ops replayed across every schedule.
    pub fn total_ops(&self) -> u64 {
        self.report.iter().map(|(_, r)| r.run.ops).sum()
    }
}

/// Replay `corpus` at M=1 and M=4 manager shards — leases and the replica
/// catalog enabled — under four schedules each: healthy, manager kill
/// mid-trace (+heal), NSD-server crash (+heal), client partition (+heal).
/// Every run must agree with the oracle op-by-op and tree-for-tree, give
/// up on nothing, fsck clean and hold the world invariants; the healthy
/// M=1 run is also replayed twice to witness determinism.
pub fn check_trace_differential(corpus: TraceCorpus) -> TraceVerdict {
    check_trace_differential_sized(corpus, 4, 2)
}

/// [`check_trace_differential`] with explicit corpus shape.
pub fn check_trace_differential_sized(
    corpus: TraceCorpus,
    streams: u32,
    scale: u32,
) -> TraceVerdict {
    let ops = corpus.generate(streams, scale, 2005);
    let total = ops.len() as u64;
    let mut reports = Vec::new();
    let mut violations = Vec::new();
    for m in [1u32, 4] {
        let cfg = ReplayConfig {
            managers: m,
            leases: true,
            replicate: true,
            seed: 2005,
        };
        // The manager kill targets the server hosting a *manager*: shard 0
        // lives on srv0; in a partitioned world srv1 hosts shard 1, so the
        // same schedule doubles as the kill-one-shard run.
        let mgr_target = if m > 1 { "trace-srv1" } else { "trace-srv0" };
        let schedules: Vec<(&str, ChaosSpec)> = vec![
            ("healthy", ChaosSpec::none()),
            (
                "mgr-kill",
                ChaosSpec {
                    progress: ProgressPlan::new().server_crash_at_op(
                        total * 2 / 5,
                        FsId(0),
                        mgr_target,
                        Some(SimDuration::from_millis(600)),
                    ),
                    wan_clients: false,
                },
            ),
            (
                "nsd-crash",
                ChaosSpec {
                    progress: ProgressPlan::new().server_crash_at_op(
                        total * 3 / 10,
                        FsId(0),
                        "trace-srv2",
                        Some(SimDuration::from_millis(400)),
                    ),
                    wan_clients: false,
                },
            ),
            (
                "partition",
                ChaosSpec {
                    progress: ProgressPlan::new().partition_at_op(
                        total * 7 / 10,
                        "mc-site-0",
                        SimDuration::from_millis(400),
                    ),
                    wan_clients: false,
                },
            ),
        ];
        for (name, spec) in schedules {
            let label = format!("{} M={m} {name}", corpus.name());
            let r = replay_trace(&ops, &cfg, &spec);
            audit(&label, &r, !spec.is_empty(), &mut violations);
            reports.push((label, r));
        }
    }
    // Determinism witness: the healthy M=1 replay, run again, must match
    // the first bit-for-bit in every answer-shaped quantity.
    let cfg = ReplayConfig {
        managers: 1,
        leases: true,
        replicate: true,
        seed: 2005,
    };
    let again = replay_trace(&ops, &cfg, &ChaosSpec::none());
    let first = &reports[0].1;
    let shape = |r: &StormReport| (r.fingerprint, r.tree_fingerprint, r.ops, r.errors);
    if shape(&first.run) != shape(&again.run) {
        violations.push(format!(
            "{}: healthy replay is not deterministic across runs",
            corpus.name()
        ));
    }
    Verdict {
        report: reports,
        violations,
    }
}

/// Fold one replay's health into the violation list: the oracle's verdict
/// and the run's audit ([`StormReport::audit`]).
fn audit(label: &str, r: &ReplayReport, faulted: bool, violations: &mut Vec<String>) {
    if r.divergences != 0 {
        violations.push(format!(
            "{label}: {} op-level divergence(s) from the oracle:\n    {}",
            r.divergences,
            r.divergence_samples.join("\n    ")
        ));
    }
    if !r.tree_matches_oracle {
        violations.push(format!(
            "{label}: final tree differs from oracle ({:#x} vs {:#x})",
            r.run.tree_fingerprint, r.oracle_fingerprint
        ));
    }
    for m in r.run.audit(faulted) {
        violations.push(format!("{label}: {m}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng};
    use simcore::det_rng;

    // --- Codec: round-trip + malformed rejection table (satellite d) ---

    #[test]
    fn codec_round_trips_every_corpus() {
        for corpus in TraceCorpus::ALL {
            let ops = corpus.generate(3, 2, 42);
            assert!(!ops.is_empty());
            let text = render_trace(&ops);
            let back = parse_trace(&text).expect("rendered trace must parse");
            assert_eq!(ops, back, "parse ∘ render must be the identity");
        }
    }

    #[test]
    fn codec_round_trips_random_traces() {
        let mut rng: StdRng = det_rng(0x7261_7763, "trace-codec");
        for _ in 0..200 {
            let kind = [
                TraceOpKind::Mkdir,
                TraceOpKind::Create,
                TraceOpKind::Stat,
                TraceOpKind::Readdir,
                TraceOpKind::Unlink,
                TraceOpKind::Rename,
                TraceOpKind::Write,
                TraceOpKind::Read,
            ][rng.gen::<u32>() as usize % 8];
            let op = TraceOp {
                kind,
                path: format!("/a{}/b{}", rng.gen::<u32>() % 10, rng.gen::<u32>() % 100),
                path2: (kind == TraceOpKind::Rename)
                    .then(|| format!("/c{}/d{}", rng.gen::<u32>() % 10, rng.gen::<u32>() % 100)),
                size: rng.gen::<u64>() % (1 << 20),
                think_ns: rng.gen::<u64>() % 1_000_000,
            };
            let back = parse_trace(&render_trace(std::slice::from_ref(&op))).unwrap();
            assert_eq!(vec![op], back);
        }
    }

    #[test]
    fn codec_skips_comments_and_blank_lines() {
        let text = "# a captured trace\n\nmkdir 0 0 /top\n  \nstat 0 5 /top\n";
        let ops = parse_trace(text).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].kind, TraceOpKind::Mkdir);
        assert_eq!(ops[1].think_ns, 5);
    }

    #[test]
    fn codec_rejects_malformed_lines() {
        // (input, expected fragment of the error)
        let table: &[(&str, &str)] = &[
            ("chmod 0 0 /x", "unknown op"),
            ("mkdir 0 /x", "takes 4 field(s)"),
            ("mkdir 0 0 /x /y", "takes 4 field(s)"),
            ("rename 0 0 /x", "takes 5 field(s)"),
            ("rename 0 0 /x /y /z", "takes 5 field(s)"),
            ("write big 0 /x", "bad size"),
            ("write 4096 soon /x", "bad think_ns"),
            ("stat 0 0 relative/path", "not absolute"),
            ("rename 0 0 /x y", "not absolute"),
            ("mkdir -1 0 /x", "bad size"),
            ("mkdir 0 0 /ok\nstat 0 0 nope", "line 2"),
        ];
        for (input, want) in table {
            let err = parse_trace(input).expect_err(input);
            assert!(
                err.contains(want),
                "{input:?}: error {err:?} should mention {want:?}"
            );
        }
    }

    // --- Stream partitioning ---

    #[test]
    fn split_streams_unions_rename_tops_and_keeps_order() {
        let ops = parse_trace(
            "mkdir 0 0 /a\nmkdir 0 0 /b\nmkdir 0 0 /c\n\
             rename 0 0 /a/x /b/y\nstat 0 0 /c/z\nstat 0 0 /a/q\n",
        )
        .unwrap();
        let streams = split_streams(&ops);
        assert_eq!(streams.len(), 2, "a+b union; c alone");
        // The a/b stream preserves corpus order.
        let ab = &streams[0];
        assert_eq!(ab.len(), 4);
        assert_eq!(ab[0].path, "/a");
        assert_eq!(ab[1].path, "/b");
        assert_eq!(ab[2].kind, TraceOpKind::Rename);
        assert_eq!(ab[3].path, "/a/q");
        assert_eq!(streams[1].len(), 2);
    }

    #[test]
    fn split_streams_collapses_on_root_ops() {
        let ops =
            parse_trace("mkdir 0 0 /a\nmkdir 0 0 /b\nreaddir 0 0 /\n").unwrap();
        assert_eq!(split_streams(&ops).len(), 1, "a root op observes every top");
    }

    #[test]
    fn corpus_streams_are_disjoint_and_leasable_where_promised() {
        let enzo = split_streams(&TraceCorpus::EnzoCheckpoint.generate(4, 2, 7));
        assert_eq!(enzo.len(), 4);
        for s in &enzo {
            assert!(single_top(s).is_some(), "enzo streams are single-top");
        }
        let untar = split_streams(&TraceCorpus::UntarBuild.generate(4, 2, 7));
        assert_eq!(untar.len(), 4);
        for s in &untar {
            assert!(
                single_top(s).is_none(),
                "untar streams span src+obj tops (cross-shard renames)"
            );
        }
    }

    // --- Replay + differ ---

    #[test]
    fn healthy_replay_matches_oracle_exactly() {
        let ops = TraceCorpus::UntarBuild.generate(2, 1, 2005);
        let r = replay_trace(&ops, &ReplayConfig::default(), &ChaosSpec::none());
        assert_eq!(r.run.ops, ops.len() as u64, "every trace op must replay");
        assert_eq!(
            r.divergences, 0,
            "divergences:\n  {}",
            r.divergence_samples.join("\n  ")
        );
        assert!(r.tree_matches_oracle);
        assert!(r.run.fsck_clean);
        assert_eq!(r.run.gave_up, 0);
        assert_eq!(r.run.invariant_violations, 0);
        assert!(
            r.run.errors > 0,
            "the corpus's deliberate misses must surface typed errors"
        );
        let envelopes = r.run.counters.get("session.envelopes");
        assert!(envelopes > 0, "two sessions per mount must batch fan-in envelopes");
    }

    #[test]
    fn replay_detects_a_seeded_divergence() {
        // Sanity for the differ itself: replay a corpus, then replay a
        // *mutated* copy against the unmutated oracle expectations by
        // appending an op that races nothing — here, diverging means the
        // harness works. We fake it by comparing reports: a corpus with one
        // extra unlink must change the tree fingerprint.
        let mut ops = TraceCorpus::EnzoCheckpoint.generate(1, 1, 2005);
        let base = replay_trace(&ops, &ReplayConfig::default(), &ChaosSpec::none());
        let last = ops.last().unwrap().path.clone(); // readdir of the top
        let top = last;
        ops.push(TraceOp::meta(TraceOpKind::Unlink, format!("{top}/chk002"), 0));
        let mutated = replay_trace(&ops, &ReplayConfig::default(), &ChaosSpec::none());
        assert_eq!(mutated.divergences, 0, "oracle tracks the mutation too");
        assert_ne!(
            base.run.tree_fingerprint, mutated.run.tree_fingerprint,
            "the fingerprint must be sensitive to a single namespace change"
        );
    }

    #[test]
    fn partitioned_replay_crosses_shards_and_matches_oracle() {
        let ops = TraceCorpus::UntarBuild.generate(3, 1, 2005);
        let cfg = ReplayConfig {
            managers: 4,
            ..ReplayConfig::default()
        };
        let r = replay_trace(&ops, &cfg, &ChaosSpec::none());
        assert_eq!(
            r.divergences, 0,
            "divergences:\n  {}",
            r.divergence_samples.join("\n  ")
        );
        assert!(r.tree_matches_oracle);
        assert!(
            r.run.counters.get("manager.cross_shard_ops") > 0,
            "src→obj renames must run as two-phase cross-shard ops"
        );
    }

    #[test]
    fn leased_replay_delegates_and_matches_oracle() {
        let ops = TraceCorpus::EnzoCheckpoint.generate(3, 1, 2005);
        let cfg = ReplayConfig {
            managers: 4,
            leases: true,
            ..ReplayConfig::default()
        };
        let r = replay_trace(&ops, &cfg, &ChaosSpec::none());
        assert_eq!(
            r.divergences, 0,
            "divergences:\n  {}",
            r.divergence_samples.join("\n  ")
        );
        assert!(r.tree_matches_oracle);
        let n = |name| r.run.counters.get(name);
        assert_eq!(n("manager.lease_grants"), 3, "every single-top stream takes its lease");
        assert!(n("session.delegated_ops") > 0, "the cadence must ride the delegate");
        assert!(n("manager.reconcile_ops") > 0, "surrender must reconcile the journal");
    }

    #[test]
    fn replicated_replay_routes_scan_reads_and_matches_oracle() {
        // Enough catalog data (2 streams × 6 plates × 3 files × ~160 KiB on
        // one shared 4 MiB mount-context pool) that the scan phase misses
        // the client cache and must fetch — that is when the catalog plans.
        let ops = TraceCorpus::NvoScan.generate(2, 6, 2005);
        let cfg = ReplayConfig {
            replicate: true,
            ..ReplayConfig::default()
        };
        let r = replay_trace(&ops, &cfg, &ChaosSpec::none());
        assert_eq!(
            r.divergences, 0,
            "divergences:\n  {}",
            r.divergence_samples.join("\n  ")
        );
        assert!(r.tree_matches_oracle);
        assert!(r.run.counters.get("replica.installs") > 0, "the mid-replay install must fire");
        assert!(
            r.run.counters.get("replica.remote_picks") > 0,
            "scan reads after the install must route to the mirror"
        );
    }

    // --- Property test: random op soup, M=1 vs M=4 (satellite b) ---

    #[test]
    fn random_op_sequences_match_oracle_at_m1_and_m4() {
        for round in 0..3u32 {
            let mut rng: StdRng = det_rng(0x6f70_735f, &format!("soup-{round}"));
            let mut ops = Vec::new();
            // Small alphabet so double-unlinks, collisions and mkdir races
            // happen constantly; invalid shapes (paths through files,
            // missing parents) are part of the draw.
            for _ in 0..160 {
                let t = rng.gen::<u32>() % 3;
                let d = rng.gen::<u32>() % 3;
                let f = rng.gen::<u32>() % 4;
                let dir = format!("/s{round}t{t}/d{d}");
                let file = format!("{dir}/f{f}");
                let op = match rng.gen::<u32>() % 100 {
                    0..=14 => TraceOp::meta(TraceOpKind::Mkdir, format!("/s{round}t{t}"), 0),
                    15..=29 => TraceOp::meta(TraceOpKind::Mkdir, &dir, 0),
                    30..=44 => TraceOp::meta(TraceOpKind::Create, &file, 0),
                    45..=54 => TraceOp::data(TraceOpKind::Write, &file, 1 + rng.gen::<u64>() % 8192, 0),
                    55..=64 => TraceOp::data(TraceOpKind::Read, &file, 4096, 0),
                    65..=74 => TraceOp::meta(TraceOpKind::Stat, &file, 0),
                    75..=79 => TraceOp::meta(TraceOpKind::Stat, format!("{file}/below-a-file"), 0),
                    80..=84 => TraceOp::meta(TraceOpKind::Readdir, &dir, 0),
                    85..=92 => TraceOp::meta(TraceOpKind::Unlink, &file, 0),
                    93..=96 => TraceOp::meta(TraceOpKind::Unlink, &dir, 0),
                    _ => TraceOp::rename(
                        &file,
                        format!("/s{round}t{}/d{d}/f{f}", (t + 1) % 3),
                        0,
                    ),
                };
                ops.push(op);
            }
            for m in [1u32, 4] {
                let cfg = ReplayConfig {
                    managers: m,
                    ..ReplayConfig::default()
                };
                let r = replay_trace(&ops, &cfg, &ChaosSpec::none());
                assert_eq!(
                    r.divergences,
                    0,
                    "round {round} M={m} divergences:\n  {}",
                    r.divergence_samples.join("\n  ")
                );
                assert!(r.tree_matches_oracle, "round {round} M={m} tree mismatch");
                assert!(r.run.errors > 0, "the soup must surface typed errors");
                assert_eq!(r.run.gave_up, 0);
            }
        }
    }

    // --- The chaos entry, at test scale ---

    #[test]
    fn enzo_differential_survives_all_schedules() {
        let v = check_trace_differential_sized(TraceCorpus::EnzoCheckpoint, 3, 1);
        v.assert_clean();
        // The faulted runs must really have faulted, and the M=4 leg must
        // really have leased.
        let fired = |r: &ReplayReport| r.run.counters.get("faults.injected") > 0;
        assert!(v.report.iter().any(|(l, r)| l.contains("mgr-kill") && fired(r)));
        assert!(v
            .report
            .iter()
            .any(|(l, r)| l.contains("M=4") && r.run.counters.get("manager.lease_grants") > 0));
    }
}
