//! The traced run's per-layer breakdown.
//!
//! Layers are named after the program's modules. Counters come straight
//! from each layer's public state after the run; host-time figures come
//! from spans around the benchmark's calls into the program (`Sim::step`,
//! `Session` calls) and from replaying what the run did through a layer's
//! public functions on fresh instances (`FsCore` ops, `lookup_via` with a
//! `DentryCache`, `PagePool`, `TokenManager`).

use crate::bench::{NsOp, Recorder, Span, Tracer};
use globalfs::gfs::cache::DentryCache;
use globalfs::gfs::faults::RecoveryWhat;
use globalfs::gfs::world::GfsWorld;
use globalfs::gfs::{FsCore, FsId, Owner, PagePool, TokenManager};
use std::collections::BTreeMap;
use std::time::Instant;

/// Metric name → (value, unit).
pub type Layers = BTreeMap<String, (f64, &'static str)>;

/// Every per-layer metric, with its unit, in report order. A workload that
/// leaves a layer idle reports its metrics as measured: zero.
pub const ALL: &[(&str, &str)] = &[
    ("simcore.events", "count"),
    ("simcore.events_per_op", "ratio"),
    ("simcore.step_host_ns", "ns"),
    ("simcore.pending_max", "count"),
    ("session.submit_host_ns", "ns"),
    ("session.envelopes", "count"),
    ("session.ops_per_envelope", "ratio"),
    ("session.delegated_frac", "ratio"),
    ("session.envelope_retries", "count"),
    ("session.unexplained_lat_us_p50", "us"),
    ("manager.busy_frac_max", "ratio"),
    ("manager.backlog_us_p50", "us"),
    ("manager.backlog_us_p99", "us"),
    ("manager.service_ns_per_op", "ns"),
    ("manager.wal_len_max", "count"),
    ("manager.cross_shard_ops", "count"),
    ("manager.reconcile_ops", "count"),
    ("manager.migrations", "count"),
    ("manager.lease_breaks", "count"),
    ("manager.wal_replayed", "count"),
    ("manager.epochs", "count"),
    ("fscore.setup_host_ns_per_op", "ns"),
    ("fscore.apply_host_ns", "ns"),
    ("fscore.resolves_per_op", "ratio"),
    ("fscore.resolve_alloc_bytes_per_op", "B"),
    ("fscore.interned_names", "count"),
    ("cache.dentry_hit_rate", "ratio"),
    ("cache.dentry_host_ns", "ns"),
    ("cache.pool_hit_rate", "ratio"),
    ("cache.pool_evictions", "count"),
    ("cache.pool_host_ns", "ns"),
    ("tokens.acquires", "count"),
    ("tokens.revocations", "count"),
    ("tokens.acquire_host_ns", "ns"),
    ("nsd.requests", "count"),
    ("nsd.mean_request_kib", "KiB"),
    ("nsd.coalesced_frac", "ratio"),
    ("nsd.backlog_us_p99", "us"),
    ("replica.remote_pick_frac", "ratio"),
    ("replica.split_fanouts", "count"),
    ("replica.invalidations", "count"),
    ("replica.stale_fallbacks", "count"),
    ("replica.stale_reads", "count"),
    ("simnet.delivered_gib", "GiB"),
    ("simnet.active_flows_p99", "count"),
    ("simnet.wan_gbps_p50", "Gb/s"),
    ("simsan.controller_gib", "GiB"),
    ("faults.injected", "count"),
    ("faults.timeouts", "count"),
    ("faults.failovers", "count"),
    ("faults.gave_up", "count"),
    ("faults.failed_op_ratio", "ratio"),
    ("host.step_frac", "ratio"),
    ("host.submit_frac", "ratio"),
    ("host.bench_frac", "ratio"),
    ("host.verify_frac", "ratio"),
    ("host.kernel_frac", "ratio"),
    ("host.attributed_frac", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

fn put(out: &mut Layers, name: &str, v: f64) {
    let unit = ALL
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unlisted per-layer metric {name}"))
        .1;
    out.insert(name.to_string(), (v, unit));
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Event-engine, span, fault and check metrics every workload has.
/// `wall_s` is the traced measured phase's host wall.
/// `kernel_frac` is the kernel share of the phase's CPU time.
pub fn common(
    out: &mut Layers,
    t: &Tracer,
    rec: &Recorder,
    w: &GfsWorld,
    events: u64,
    wall_s: f64,
    kernel_frac: f64,
) {
    let ops = rec.completed as f64;
    put(out, "simcore.events", events as f64);
    put(out, "simcore.events_per_op", ratio(events as f64, ops));
    let step = Span::Step as usize;
    let submit = Span::Submit as usize;
    let cb = Span::Callback as usize;
    put(
        out,
        "simcore.step_host_ns",
        ratio(t.self_ns[step] as f64, t.spans[step] as f64),
    );
    put(out, "simcore.pending_max", t.pending_max as f64);
    put(
        out,
        "session.submit_host_ns",
        ratio(t.self_ns[submit] as f64, t.spans[submit] as f64),
    );
    let wall_ns = wall_s * 1e9;
    put(
        out,
        "host.step_frac",
        ratio(t.self_ns[step] as f64, wall_ns),
    );
    put(
        out,
        "host.submit_frac",
        ratio(t.self_ns[submit] as f64, wall_ns),
    );
    put(out, "host.bench_frac", ratio(t.self_ns[cb] as f64, wall_ns));
    put(
        out,
        "host.verify_frac",
        ratio(t.self_ns[Span::Verify as usize] as f64, wall_ns),
    );
    put(out, "host.kernel_frac", kernel_frac);
    let count = |f: &dyn Fn(&RecoveryWhat) -> bool| w.recovery.count(f) as f64;
    put(
        out,
        "faults.injected",
        count(&|e| matches!(e, RecoveryWhat::FaultInjected(_))),
    );
    put(
        out,
        "faults.timeouts",
        count(&|e| matches!(e, RecoveryWhat::TimeoutDetected { .. })),
    );
    put(
        out,
        "faults.failovers",
        count(&|e| matches!(e, RecoveryWhat::FailedOver { .. })),
    );
    put(out, "faults.gave_up", rec.gave_up as f64);
    put(
        out,
        "faults.failed_op_ratio",
        ratio(rec.failed as f64, rec.attempted as f64),
    );
}

/// Counters of the session and manager layers. `svc0`, `meta0` are the
/// per-shard service totals and resolve counters before the measured phase.
pub fn meta_layers(
    out: &mut Layers,
    w: &GfsWorld,
    fs: FsId,
    t: &Tracer,
    rec: &Recorder,
    span_ns: u64,
    svc0: &[u64],
    resolves0: (u64, u64),
) {
    let inst = &w.fss[fs.0 as usize];
    let f = &w.fanin;
    put(out, "session.envelopes", f.envelopes as f64);
    put(
        out,
        "session.ops_per_envelope",
        ratio(f.envelope_ops as f64, f.envelopes as f64),
    );
    put(
        out,
        "session.delegated_frac",
        ratio(f.delegated as f64, (f.delegated + f.envelope_ops) as f64),
    );
    put(out, "session.envelope_retries", f.retries as f64);
    put(
        out,
        "session.unexplained_lat_us_p50",
        t.unexplained.quantile(0.5) / 1e3,
    );
    let svc: Vec<u64> = inst
        .mgrs
        .iter()
        .zip(svc0.iter().chain(std::iter::repeat(&0)))
        .map(|(m, s0)| m.service_ns - s0)
        .collect();
    let busy_max = svc.iter().copied().max().unwrap_or(0);
    put(
        out,
        "manager.busy_frac_max",
        ratio(busy_max as f64, span_ns as f64),
    );
    put(
        out,
        "manager.backlog_us_p50",
        t.mgr_backlog.quantile(0.5) / 1e3,
    );
    put(
        out,
        "manager.backlog_us_p99",
        t.mgr_backlog.quantile(0.99) / 1e3,
    );
    put(
        out,
        "manager.service_ns_per_op",
        ratio(svc.iter().sum::<u64>() as f64, rec.completed as f64),
    );
    put(out, "manager.wal_len_max", t.wal_len_max as f64);
    put(out, "manager.cross_shard_ops", inst.cross_shard_ops as f64);
    put(out, "manager.reconcile_ops", inst.reconcile_ops as f64);
    put(
        out,
        "manager.migrations",
        inst.core.shards.migrations() as f64,
    );
    put(out, "manager.lease_breaks", inst.lease_breaks as f64);
    put(
        out,
        "manager.wal_replayed",
        inst.mgrs.iter().map(|m| m.replayed).sum::<u64>() as f64,
    );
    put(
        out,
        "manager.epochs",
        inst.mgrs.iter().map(|m| m.epoch).sum::<u64>() as f64,
    );
    let snap = inst.core.meta_snapshot();
    let ops = rec.completed as f64;
    put(
        out,
        "fscore.resolves_per_op",
        ratio((snap.resolves - resolves0.0) as f64, ops),
    );
    put(
        out,
        "fscore.resolve_alloc_bytes_per_op",
        ratio((snap.resolve_alloc_bytes - resolves0.1) as f64, ops),
    );
    put(out, "fscore.interned_names", snap.interned_names as f64);
}

/// Counters of the data-path layers.
pub fn data_layers(out: &mut Layers, w: &GfsWorld, fs: FsId, t: &Tracer) {
    let inst = &w.fss[fs.0 as usize];
    let (hits, misses, evictions) = w.clients.iter().fold((0u64, 0u64, 0u64), |(h, m, e), c| {
        (h + c.pool.hits, m + c.pool.misses, e + c.pool.evictions)
    });
    put(
        out,
        "cache.pool_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    put(out, "cache.pool_evictions", evictions as f64);
    put(out, "tokens.acquires", inst.tokens.acquires as f64);
    put(out, "tokens.revocations", inst.tokens.revocations as f64);
    let n = &w.nsd_stats;
    put(out, "nsd.requests", n.requests as f64);
    put(out, "nsd.mean_request_kib", n.mean_request_bytes() / 1024.0);
    put(
        out,
        "nsd.coalesced_frac",
        ratio(n.coalesced as f64, n.requests as f64),
    );
    put(
        out,
        "nsd.backlog_us_p99",
        t.nsd_backlog.quantile(0.99) / 1e3,
    );
    let rc = &inst.replicas.counters;
    put(
        out,
        "replica.remote_pick_frac",
        ratio(
            rc.remote_picks as f64,
            (rc.remote_picks + rc.home_picks) as f64,
        ),
    );
    put(out, "replica.split_fanouts", rc.split_fanouts as f64);
    put(out, "replica.invalidations", rc.invalidations as f64);
    put(out, "replica.stale_fallbacks", rc.stale_fallbacks as f64);
    put(out, "replica.stale_reads", rc.stale_reads as f64);
    const GIB: f64 = (1u64 << 30) as f64;
    put(
        out,
        "simnet.delivered_gib",
        w.net.total_delivered() as f64 / GIB,
    );
    put(out, "simnet.active_flows_p99", t.flows.quantile(0.99));
    put(out, "simnet.wan_gbps_p50", t.wan_mbps.quantile(0.5) / 1e3);
    put(
        out,
        "simsan.controller_gib",
        w.arrays.iter().map(|a| a.controller_bytes()).sum::<u64>() as f64 / GIB,
    );
}

/// Replay what the traced run did through single layers' public functions
/// on fresh instances, timing each. `init` rebuilds the round's initial
/// namespace on a fresh core and returns its op count.
pub fn replays(
    out: &mut Layers,
    w: &GfsWorld,
    fs: FsId,
    t: &Tracer,
    init: &dyn Fn(&mut FsCore) -> u64,
    pool_pages: usize,
    wall_s: f64,
) {
    let config = w.fss[fs.0 as usize].core.config.clone();
    let owner = Owner::local(0, 0);

    // fscore: initial tree, then the run's namespace ops in completion order.
    let mut core = FsCore::create(config);
    let t0 = Instant::now();
    let n_init = init(&mut core);
    let init_ns = t0.elapsed().as_nanos() as f64;
    put(
        out,
        "fscore.setup_host_ns_per_op",
        ratio(init_ns, n_init as f64),
    );
    let t0 = Instant::now();
    for op in &t.ns_log {
        let _ = std::hint::black_box(match op {
            NsOp::Stat(p) => core.stat(p).map(|_| ()),
            NsOp::Readdir(p) => core.readdir(p).map(|_| ()),
            NsOp::Mkdir(p) => core.mkdir(p, owner.clone(), 0).map(|_| ()),
            NsOp::Create(p) => match core.lookup(p) {
                Ok(_) => Ok(()),
                Err(_) => core.create_file(p, owner.clone(), 0).map(|_| ()),
            },
            NsOp::Unlink(p) => core.unlink(p),
            NsOp::Rename(a, b) => core.rename(a, b),
        });
    }
    let apply_ns = t0.elapsed().as_nanos() as f64;
    put(
        out,
        "fscore.apply_host_ns",
        ratio(apply_ns, t.ns_log.len() as f64),
    );

    // cache: the run's paths through per-context dentry caches.
    let mut dentry: BTreeMap<u32, DentryCache> = BTreeMap::new();
    let t0 = Instant::now();
    for (ctx, p) in &t.paths {
        let d = dentry.entry(*ctx).or_default();
        let _ = std::hint::black_box(core.lookup_via(fs, d, p));
    }
    let dentry_ns = t0.elapsed().as_nanos() as f64;
    let (dh, dm) = dentry
        .values()
        .fold((0, 0), |(h, m), d| (h + d.hits, m + d.misses));
    put(
        out,
        "cache.dentry_hit_rate",
        ratio(dh as f64, (dh + dm) as f64),
    );
    put(
        out,
        "cache.dentry_host_ns",
        ratio(dentry_ns, t.paths.len() as f64),
    );

    // cache: the block stream through per-context page pools.
    let zero = core.zero_block();
    let mut pools: BTreeMap<u32, PagePool> = BTreeMap::new();
    let t0 = Instant::now();
    for (ctx, key) in &t.blocks {
        let p = pools
            .entry(*ctx)
            .or_insert_with(|| PagePool::new(pool_pages));
        if p.get(*key).is_none() {
            std::hint::black_box(p.insert_clean(*key, zero.clone()));
        }
    }
    let pool_ns = t0.elapsed().as_nanos() as f64;
    put(
        out,
        "cache.pool_host_ns",
        ratio(pool_ns, t.blocks.len() as f64),
    );

    // tokens: the run's ranges through a fresh manager.
    let mut tm = TokenManager::new();
    let t0 = Instant::now();
    let mut acquires = 0u64;
    for (ino, client, op) in &t.tokens {
        match op {
            Some((range, mode)) => {
                acquires += 1;
                std::hint::black_box(tm.acquire(*ino, *client, *range, *mode));
            }
            None => tm.release_all(*ino, *client),
        }
    }
    let token_ns = t0.elapsed().as_nanos() as f64;
    put(
        out,
        "tokens.acquire_host_ns",
        ratio(token_ns, acquires as f64),
    );

    let replayed = apply_ns + dentry_ns + pool_ns + token_ns;
    put(out, "host.attributed_frac", ratio(replayed, wall_s * 1e9));
}

/// Fill every listed metric a workload did not produce with zero, so each
/// traced run reports the full set.
pub fn complete(out: &mut Layers) {
    for (name, unit) in ALL {
        out.entry(name.to_string()).or_insert((0.0, unit));
    }
}
