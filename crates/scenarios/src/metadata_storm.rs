//! The metadata storm: many clients racing namespace operations over a
//! ~million-file tree.
//!
//! The paper's production system served a half-petabyte *namespace* to
//! every TeraGrid site; the streaming figures never exercise that side of
//! the system. This scenario does: each sweep point generates a three-level
//! tree (`/tXX/sYY/fZZZZ`) of ~131k files directly on the filesystem core,
//! then lets a crowd of clients race mkdir / create / stat / readdir /
//! small-write / remove RPCs against it through the full client stack
//! (mount, metadata envelopes at the manager and its path cache,
//! byte-range tokens, write-behind). Eight points × (131,344 tree ops +
//! 32 clients × 128 race ops) ≈ 1.08M metadata operations per run at the
//! defaults.
//!
//! Points are fully independent seeded worlds, so they fan out through
//! [`crate::parallel::run_indexed`]; the merged [`StormReport`] — including
//! its order-sensitive fingerprint — is bit-identical at any
//! `GFS_SWEEP_THREADS` value.

use crate::builder::{pattern_bytes, DataPathStats, NsdFarm, ScenarioBuilder};
use gfs::faults::{FaultPlan, ProgressInjector, ProgressPlan, RecoveryWhat};
use gfs::fscore::MetaSnapshot;
use gfs::session::Session;
use gfs::types::{FsError, OpenFlags, Owner};
use gfs::world::GfsWorld;
use gfs_auth::handshake::AccessMode;
use rand::{rngs::StdRng, Rng};
use simcore::{det_rng, Bandwidth, Sim, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// How each client picks its next operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StormMix {
    /// Uniform random paths and a fixed op distribution — every probe is
    /// equally likely to land anywhere in the tree.
    Uniform,
    /// Replay a generated [`TraceCorpus`] shape: each op of the corpus is
    /// mapped onto the storm's `(top, sub, file, selector)` coordinates by
    /// hashing its path components, and every client walks the script
    /// sequentially from its own offset, so the op stream carries the
    /// corpus's path locality and verb mix.
    ///
    /// [`TraceCorpus`]: crate::trace::TraceCorpus
    Corpus(crate::trace::TraceCorpus),
}

/// Storm shape. The defaults produce ≥1M metadata operations.
#[derive(Clone, Copy, Debug)]
pub struct StormConfig {
    /// Independent sweep points (worlds).
    pub points: u32,
    /// Racing mount contexts per point.
    pub clients_per_point: u32,
    /// Flyweight sessions per mount context. Every context batches its
    /// sessions' same-instant metadata RPCs into envelopes; `1` (the
    /// default) gives each context one session, so envelopes carry only
    /// ops that happen to share an instant, while `> 1` packs that many
    /// sessions onto each shared context (and keeps the small-write arm
    /// pure metadata).
    pub sessions_per_client: u32,
    /// Top-level directories in the generated tree.
    pub top_dirs: u32,
    /// Subdirectories per top-level directory.
    pub sub_dirs: u32,
    /// Files pre-created per subdirectory.
    pub files_per_sub: u32,
    /// Racing operations per session.
    pub ops_per_client: u32,
    /// Cooperating namespace-manager shards. `1` (the default) is the
    /// single-manager storm, byte-identical to pre-partition runs; `> 1`
    /// spreads the top-level directories across `managers` shards
    /// (deterministic placement, `tXX → XX mod managers`) and unlocks the
    /// cross-shard rename arm of the op mix.
    pub managers: u32,
    /// Mount contexts (session groups) that acquire a writeback subtree
    /// lease before racing: group `gi < lease_contexts` leases a private
    /// top `/wNN`, runs 3/4 of its ops inside it through the local
    /// delegate journal, and surrenders (reconciling the journal as bulk
    /// envelopes) when its last chain drains. Effective only with
    /// `managers > 1` — the single-manager storm stays byte-identical.
    pub lease_contexts: u32,
    /// Cadence (ms) of the live rebalance policy: every tick plans the
    /// next authority migration from accumulated subtree heat, drains both
    /// managers and commits with WAL records on each. `0` disables; only
    /// effective with `managers > 1`. The private `/wNN` subtrees all
    /// start on shard 0, so a leased storm always has migrations to find.
    pub rebalance_every_ms: u64,
    /// Bytes written by a small-write op.
    pub write_bytes: u64,
    /// Op-selection shape.
    pub mix: StormMix,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            points: 8,
            clients_per_point: 32,
            sessions_per_client: 1,
            top_dirs: 16,
            sub_dirs: 16,
            files_per_sub: 512,
            ops_per_client: 128,
            managers: 1,
            lease_contexts: 0,
            rebalance_every_ms: 0,
            write_bytes: 4096,
            mix: StormMix::Uniform,
            seed: 2005,
        }
    }
}

impl StormConfig {
    /// A small storm for tests: same shape, two orders of magnitude fewer
    /// operations.
    pub fn small() -> Self {
        StormConfig {
            points: 2,
            clients_per_point: 8,
            sessions_per_client: 1,
            top_dirs: 4,
            sub_dirs: 4,
            files_per_sub: 32,
            ops_per_client: 24,
            managers: 1,
            lease_contexts: 0,
            rebalance_every_ms: 0,
            write_bytes: 4096,
            mix: StormMix::Uniform,
            seed: 2005,
        }
    }

    /// The flyweight-session storm: 8 points × 32 mount contexts × 400
    /// sessions = 102,400 sessions racing 10.27M metadata operations over
    /// a small shared tree, every same-instant batch riding one fan-in
    /// envelope. This is the scale the session layer exists for.
    pub fn massive() -> Self {
        StormConfig {
            points: 8,
            clients_per_point: 32,
            sessions_per_client: 400,
            top_dirs: 8,
            sub_dirs: 8,
            files_per_sub: 64,
            ops_per_client: 100,
            managers: 1,
            // Inert at the default M=1 (`effective_lease_contexts` and the
            // rebalance tick both gate on `managers > 1`, so the 100k
            // single-manager storm stays byte-identical); switched on by
            // `with_managers(4)` in the partitioned bench.
            lease_contexts: 16,
            rebalance_every_ms: 100,
            write_bytes: 4096,
            mix: StormMix::Uniform,
            seed: 2005,
        }
    }

    /// Same config with a different op-selection shape.
    pub fn with_mix(mut self, mix: StormMix) -> Self {
        self.mix = mix;
        self
    }

    /// Same config with `n` flyweight sessions per mount context.
    pub fn with_sessions_per_client(mut self, n: u32) -> Self {
        self.sessions_per_client = n;
        self
    }

    /// Same config partitioned across `m` namespace-manager shards.
    pub fn with_managers(mut self, m: u32) -> Self {
        assert!(m > 0, "storm needs at least one manager shard");
        self.managers = m;
        self
    }

    /// Same config with `n` writeback-leased mount contexts per point.
    pub fn with_leases(mut self, n: u32) -> Self {
        self.lease_contexts = n;
        self
    }

    /// Same config with the live rebalance policy ticking every `ms`.
    pub fn with_rebalance_every(mut self, ms: u64) -> Self {
        self.rebalance_every_ms = ms;
        self
    }

    /// Lease contexts actually in effect: clamped to the context count and
    /// zero unless the namespace is partitioned (the delegate/reconcile
    /// machinery is a partition-era feature; M=1 storms must stay
    /// byte-identical to their pins).
    pub fn effective_lease_contexts(&self) -> u32 {
        if self.managers > 1 {
            self.lease_contexts.min(self.clients_per_point)
        } else {
            0
        }
    }

    /// Total mount contexts across all points.
    pub fn total_clients(&self) -> u64 {
        u64::from(self.points) * u64::from(self.clients_per_point)
    }

    /// Total flyweight sessions across all points.
    pub fn total_sessions(&self) -> u64 {
        self.total_clients() * u64::from(self.sessions_per_client.max(1))
    }

    /// Tree-generation operations per point (phase 1, all counted before
    /// any race op). Progress-keyed fault thresholds are measured against
    /// the per-point op counter, which starts at this value when the race
    /// begins.
    pub fn tree_ops(&self) -> u64 {
        // Leased contexts each get a private `/wNN` subtree of the same
        // shape as a `/tNN`, generated in the same phase.
        let tops = u64::from(self.top_dirs) + u64::from(self.effective_lease_contexts());
        tops * (1 + u64::from(self.sub_dirs) * (1 + u64::from(self.files_per_sub)))
    }

    /// Race operations per point (phase 2), assuming every chain drains.
    pub fn race_ops(&self) -> u64 {
        u64::from(self.clients_per_point)
            * u64::from(self.sessions_per_client.max(1))
            * u64::from(self.ops_per_client)
    }

    /// The per-point op count at `frac` (in `[0, 1]`) of the race — the
    /// natural unit for "crash the NSD server at 40% of the storm".
    pub fn race_op_at(&self, frac: f64) -> u64 {
        self.tree_ops() + (self.race_ops() as f64 * frac) as u64
    }
}

/// Fault schedule for a chaos storm. Progress-keyed events fire when the
/// per-point op counter crosses their threshold; time-keyed events fire at
/// absolute simulation times (the race starts near t = 0). With
/// `wan_clients` the clients sit behind a single flappable WAN link named
/// `"storm-wan"`, so `timed` plans can cut every client off at once.
#[derive(Clone, Debug, Default)]
pub struct ChaosSpec {
    /// Storm-progress-keyed faults ("kill the server at op 400k").
    pub progress: ProgressPlan,
    /// Sim-time-keyed faults ("flap the WAN link every 30 s").
    pub timed: FaultPlan,
    /// Route all storm clients through the `"storm-wan"` link.
    pub wan_clients: bool,
}

impl ChaosSpec {
    /// No faults at all — `run_storm`'s implicit spec.
    pub fn none() -> Self {
        ChaosSpec::default()
    }

    /// Is this spec fault-free?
    pub fn is_empty(&self) -> bool {
        self.progress.is_empty() && self.timed.events.is_empty() && !self.wan_clients
    }
}

/// Merged result of one storm run. All-integer so determinism tests can
/// compare reports exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StormReport {
    /// Metadata operations performed (tree generation + client races).
    pub ops: u64,
    /// Operations that surfaced an error (races make `AlreadyExists` /
    /// `NotFound` expected; they are outcomes, not failures).
    pub errors: u64,
    /// Simulation events executed, summed over points.
    pub events: u64,
    /// Order-sensitive fingerprint over every operation result — the
    /// replay-identity witness.
    pub fingerprint: u64,
    /// Path resolutions performed by the cores.
    pub resolves: u64,
    /// Bytes allocated during resolution (error rendering only).
    pub resolve_alloc_bytes: u64,
    /// Distinct interned names, summed over points.
    pub interned_names: u64,
    /// Every point's post-storm fsck came back clean.
    pub fsck_clean: bool,
    /// Data-path counters summed over points (small writes do real I/O).
    pub data_path: DataPathStats,
    /// Client watchdog timeouts detected (0 on a healthy run).
    pub timeouts: u64,
    /// Client retries that landed on a different server.
    pub failovers: u64,
    /// Faults applied, from both progress-keyed and time-keyed plans
    /// (manager-loss markers included).
    pub faults_injected: u64,
    /// Restorations logged (link up, server restart, manager recovery).
    pub restores: u64,
    /// Namespace-manager takeovers (epoch bumps summed over points).
    pub manager_epochs: u64,
    /// WAL records replayed while rebuilding manager state.
    pub wal_replayed: u64,
    /// Ops that exhausted the retry budget and surfaced
    /// `Timeout`/`ServerDown` — the storm's "eventually succeeded" check
    /// wants this at 0.
    pub gave_up: u64,
    /// Errors that were `NotFound` — expected race outcomes (a probe
    /// landed on a name another client removed or never created).
    pub err_not_found: u64,
    /// Errors that were `AlreadyExists` — expected race outcomes
    /// (two clients created the same name).
    pub err_exists: u64,
    /// Every other non-gave-up error kind (`NotEmpty`, `IsADirectory`,
    /// ...): still race outcomes, broken out so a fault-free storm can
    /// assert `errors == err_not_found + err_exists + err_races`.
    pub err_races: u64,
    /// Namespace ops that spanned two manager shards (two-phase rename /
    /// boundary mkdir), summed over points. 0 when `managers == 1`.
    pub cross_shard_ops: u64,
    /// Metadata ops absorbed by client-side subtree-lease delegates
    /// without touching a manager queue, summed over points.
    pub delegated_ops: u64,
    /// Subtree leases granted, summed over points.
    pub lease_acquires: u64,
    /// Lease breaks initiated (conflicting op forced a reconcile), summed
    /// over points.
    pub lease_breaks: u64,
    /// Writeback-journal entries applied at a manager during lease
    /// surrender/break reconciliation (each counted once — dedup replays
    /// of a retried reconcile envelope don't recount), summed over points.
    pub reconcile_ops: u64,
    /// Live subtree-authority migrations committed by the in-storm
    /// rebalance policy, summed over points.
    pub rebalance_migrations: u64,
    /// Structural fingerprint of every point's final namespace (name-sorted
    /// recursive walk; timestamps excluded), merged in point order. The
    /// exactly-once witness: a crash-recovered run must match its
    /// fault-free oracle here.
    pub tree_fingerprint: u64,
    /// World-invariant violations found by [`crate::chaos::world_invariants`]
    /// after each point drained (details go to stderr). 0 on any correct
    /// run, faulted or not.
    pub invariant_violations: u64,
    /// Flyweight sessions that raced, summed over points.
    pub sessions: u64,
    /// Fan-in envelopes sent (first attempts), summed over points.
    pub envelopes: u64,
    /// Metadata ops those envelopes carried, summed over points.
    pub envelope_ops: u64,
    /// Simulated race-phase duration, **max** over points: points model
    /// independent sites storming concurrently, so the slowest site bounds
    /// the storm's end-to-end time on the modeled cluster. Deterministic
    /// (it is simulation time, not wall time), so it is safe to compare
    /// across thread counts and machines.
    pub sim_ns: u64,
}

impl StormReport {
    /// Aggregate modeled metadata throughput: every op in the storm
    /// divided by the slowest point's simulated race duration (the points
    /// run concurrently on the modeled cluster). This is the rate the
    /// manager service model ([`gfs::world::ProtocolCosts::manager_op_service`])
    /// admits — a deterministic quantity, unlike host-dependent wall rates.
    pub fn sim_ops_per_sec(&self) -> f64 {
        if self.sim_ns == 0 {
            return 0.0;
        }
        self.ops as f64 * 1e9 / self.sim_ns as f64
    }

    /// Mean ops per fan-in envelope — the batching-efficiency headline
    /// (0.0 when no envelope was sent).
    pub fn ops_per_envelope(&self) -> f64 {
        if self.envelopes == 0 {
            0.0
        } else {
            self.envelope_ops as f64 / self.envelopes as f64
        }
    }
}

/// Plain `Send` extract of one point (its world never leaves the thread).
struct PointSummary {
    ops: u64,
    errors: u64,
    events: u64,
    fingerprint: u64,
    meta: MetaSnapshot,
    fsck_clean: bool,
    data_path: DataPathStats,
    timeouts: u64,
    failovers: u64,
    faults_injected: u64,
    restores: u64,
    manager_epochs: u64,
    wal_replayed: u64,
    gave_up: u64,
    err_not_found: u64,
    err_exists: u64,
    err_races: u64,
    cross_shard_ops: u64,
    delegated_ops: u64,
    lease_acquires: u64,
    lease_breaks: u64,
    reconcile_ops: u64,
    rebalance_migrations: u64,
    tree_fingerprint: u64,
    invariant_violations: u64,
    sessions: u64,
    envelopes: u64,
    envelope_ops: u64,
    sim_ns: u64,
}

/// FxHash-style mixing for the result fingerprint: order-sensitive, cheap,
/// and with no dependence on anything but the value sequence.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Small stable code per error variant, for fingerprinting.
fn err_code(e: &FsError) -> u64 {
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

/// Shared per-point accounting the op chains update.
struct Tally {
    ops: Cell<u64>,
    errors: Cell<u64>,
    fingerprint: Cell<u64>,
    finished_clients: Cell<u32>,
    gave_up: Cell<u64>,
    err_not_found: Cell<u64>,
    err_exists: Cell<u64>,
    err_races: Cell<u64>,
    /// Instant the last piece of race work completed (chain drain or lease
    /// surrender): the honest end of the race, excluding bookkeeping events
    /// like the periodic rebalance tick that can fire after all chains are
    /// done and would otherwise inflate the measured duration.
    race_end: Cell<SimTime>,
}

impl Tally {
    fn op_result(&self, code: u64, err: Option<&FsError>) {
        self.ops.set(self.ops.get() + 1);
        let v = match err {
            None => code,
            Some(e) => {
                self.errors.set(self.errors.get() + 1);
                // Per-kind breakdown: expected race outcomes vs gave-up.
                // Every error lands in exactly one bucket, so
                // `errors == not_found + exists + races + gave_up`.
                match e {
                    FsError::NotFound(_) => {
                        self.err_not_found.set(self.err_not_found.get() + 1)
                    }
                    FsError::AlreadyExists(_) => {
                        self.err_exists.set(self.err_exists.get() + 1)
                    }
                    FsError::Timeout | FsError::ServerDown | FsError::Degraded(_) => {
                        self.gave_up.set(self.gave_up.get() + 1)
                    }
                    _ => self.err_races.set(self.err_races.get() + 1),
                }
                code << 8 | err_code(e)
            }
        };
        self.fingerprint.set(mix(self.fingerprint.get(), v));
    }
}

/// Run the storm with [`crate::parallel::sweep_threads`] workers.
pub fn run_storm(cfg: &StormConfig) -> StormReport {
    run_storm_with_threads(cfg, crate::parallel::sweep_threads())
}

/// [`run_storm`] with an explicit worker count. The report is bit-identical
/// for any `threads` value: each point is an isolated seeded world and the
/// merge is in point order.
pub fn run_storm_with_threads(cfg: &StormConfig, threads: usize) -> StormReport {
    run_chaos_storm_with_threads(cfg, &ChaosSpec::none(), threads)
}

/// A storm under a fault schedule, with the default worker count.
pub fn run_chaos_storm(cfg: &StormConfig, chaos: &ChaosSpec) -> StormReport {
    run_chaos_storm_with_threads(cfg, chaos, crate::parallel::sweep_threads())
}

/// [`run_chaos_storm`] with an explicit worker count. The same fault spec
/// and seed produce bit-identical reports across runs and thread counts:
/// faults, timeouts, backoffs and recoveries are all simulation events in
/// isolated per-point worlds.
pub fn run_chaos_storm_with_threads(
    cfg: &StormConfig,
    chaos: &ChaosSpec,
    threads: usize,
) -> StormReport {
    let cfg = *cfg;
    let summaries = crate::parallel::run_indexed(cfg.points as usize, threads, |i| {
        run_point(&cfg, chaos, i as u32)
    });
    let mut r = StormReport {
        ops: 0,
        errors: 0,
        events: 0,
        fingerprint: 0,
        resolves: 0,
        resolve_alloc_bytes: 0,
        interned_names: 0,
        fsck_clean: true,
        data_path: DataPathStats::default(),
        timeouts: 0,
        failovers: 0,
        faults_injected: 0,
        restores: 0,
        manager_epochs: 0,
        wal_replayed: 0,
        gave_up: 0,
        err_not_found: 0,
        err_exists: 0,
        err_races: 0,
        cross_shard_ops: 0,
        delegated_ops: 0,
        lease_acquires: 0,
        lease_breaks: 0,
        reconcile_ops: 0,
        rebalance_migrations: 0,
        tree_fingerprint: 0,
        invariant_violations: 0,
        sessions: 0,
        envelopes: 0,
        envelope_ops: 0,
        sim_ns: 0,
    };
    for s in &summaries {
        r.ops += s.ops;
        r.errors += s.errors;
        r.events += s.events;
        r.fingerprint = mix(r.fingerprint, s.fingerprint);
        r.resolves += s.meta.resolves;
        r.resolve_alloc_bytes += s.meta.resolve_alloc_bytes;
        r.interned_names += s.meta.interned_names;
        r.fsck_clean &= s.fsck_clean;
        r.data_path = r.data_path.merged(&s.data_path);
        r.timeouts += s.timeouts;
        r.failovers += s.failovers;
        r.faults_injected += s.faults_injected;
        r.restores += s.restores;
        r.manager_epochs += s.manager_epochs;
        r.wal_replayed += s.wal_replayed;
        r.gave_up += s.gave_up;
        r.err_not_found += s.err_not_found;
        r.err_exists += s.err_exists;
        r.err_races += s.err_races;
        r.cross_shard_ops += s.cross_shard_ops;
        r.delegated_ops += s.delegated_ops;
        r.lease_acquires += s.lease_acquires;
        r.lease_breaks += s.lease_breaks;
        r.reconcile_ops += s.reconcile_ops;
        r.rebalance_migrations += s.rebalance_migrations;
        r.tree_fingerprint = mix(r.tree_fingerprint, s.tree_fingerprint);
        r.invariant_violations += s.invariant_violations;
        r.sessions += s.sessions;
        r.envelopes += s.envelopes;
        r.envelope_ops += s.envelope_ops;
        r.sim_ns = r.sim_ns.max(s.sim_ns);
    }
    r
}

/// One sweep point: generate the tree, storm it, summarize.
fn run_point(cfg: &StormConfig, chaos: &ChaosSpec, point: u32) -> PointSummary {
    let point_seed = cfg
        .seed
        .wrapping_add(u64::from(point).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut sb = ScenarioBuilder::new(point_seed);
    let fs = sb.nsd_farm(
        "site",
        NsdFarm::new("meta", 4)
            .block_size(64 * 1024)
            .managers(cfg.managers),
    );
    // Chaos storms can interpose a WAN hop so one link flap severs every
    // client at once; the link is named for fault plans to target.
    let client_site = if chaos.wan_clients {
        sb.wan(
            "edge",
            "site",
            Bandwidth::gbit(10.0),
            SimDuration::from_millis(2),
            "storm-wan",
        );
        "edge"
    } else {
        "site"
    };
    // `sessions_per_client` sessions packed onto each mount context.
    let spc = cfg.sessions_per_client.max(1);
    let sessions = sb.sessions(client_site, cfg.clients_per_point * spc, spc);
    sb.faults(chaos.timed.clone());
    // No queued workloads: the builder just assembles the world; the storm
    // drives the client API directly.
    let mut run = sb.run(SimTime::from_secs(1));

    let tally = Rc::new(Tally {
        ops: Cell::new(0),
        errors: Cell::new(0),
        fingerprint: Cell::new(0),
        finished_clients: Cell::new(0),
        gave_up: Cell::new(0),
        err_not_found: Cell::new(0),
        err_exists: Cell::new(0),
        err_races: Cell::new(0),
        race_end: Cell::new(SimTime::ZERO),
    });
    let injector = (!chaos.progress.is_empty())
        .then(|| Rc::new(RefCell::new(ProgressInjector::new(&chaos.progress))));
    // Corpus-shaped storms compile the trace once per point into storm
    // coordinates; every client then walks the same script from its own
    // offset, so the op stream carries the corpus's real path locality.
    let script: Option<Rc<Vec<(u32, u32, u32, u32)>>> = match cfg.mix {
        StormMix::Corpus(c) => Some(Rc::new(corpus_script(
            &c.generate(4, 2, cfg.seed),
            cfg,
        ))),
        StormMix::Uniform => None,
    };

    // Phase 1 — tree generation, straight on the core (the bulk of the
    // operation count; each call is a full path resolution + mutation).
    {
        let core = &mut run.world.fss[fs.0 as usize].core;
        // Deterministic placement map for the partitioned storm: top dir
        // `tXX` lives on shard `XX mod managers`, a perfectly balanced
        // round-robin that makes every cross-top rename a two-phase op.
        if cfg.managers > 1 {
            for t in 0..cfg.top_dirs {
                core.shards.assign(format!("t{t:02}"), t % cfg.managers);
            }
        }
        let owner = Owner::local(0, 0);
        let gen_top = |core: &mut gfs::FsCore, top: String| {
            core.mkdir(&top, owner.clone(), 0).expect("mkdir top");
            tally.op_result(20, None);
            for s in 0..cfg.sub_dirs {
                let sub = format!("{top}/s{s:02}");
                core.mkdir(&sub, owner.clone(), 0).expect("mkdir sub");
                tally.op_result(21, None);
                for f in 0..cfg.files_per_sub {
                    core.create_file(&format!("{sub}/f{f:04}"), owner.clone(), 0)
                        .expect("create file");
                    tally.op_result(22, None);
                }
            }
        };
        for t in 0..cfg.top_dirs {
            gen_top(core, format!("/t{t:02}"));
        }
        // Private writeback subtrees, one per leased context — all pinned
        // to shard 0, a deliberate hotspot the live rebalance policy gets
        // to discover and migrate mid-storm.
        for i in 0..cfg.effective_lease_contexts() {
            core.shards.assign(format!("w{i:02}"), 0);
            gen_top(core, format!("/w{i:02}"));
        }
    }

    // Phase 2 — the race: each mount context is mounted once (by its first
    // session), the rest of its sessions bind the device, then every
    // session runs its op chain. Chains launched from one callback share
    // the instant, so a multi-session context's first round is already
    // one envelope.
    let race_start = run.sim.now();
    {
        let (sim, w) = (&mut run.sim, &mut run.world);
        sim.set_horizon(sim.now() + SimDuration::from_secs(3600));
        // Progress events at or below the tree-op count fire before the
        // first race op ("kill the server at op 0").
        if let Some(inj) = &injector {
            inj.borrow_mut().advance(sim, w, tally.ops.get());
        }
        let spc = cfg.sessions_per_client.max(1) as usize;
        let lease_n = cfg.effective_lease_contexts() as usize;
        for (gi, group) in sessions.chunks(spc).enumerate() {
            let group = group.to_vec();
            let tally = tally.clone();
            let cfg = *cfg;
            let inj = injector.clone();
            let script = script.clone();
            group[0].mount(sim, w, "meta", AccessMode::ReadWrite, move |sim, w, r| {
                r.expect("storm mount");
                let g0 = group[0];
                let glen = group.len() as u32;
                let launch = move |sim: &mut Sim<GfsWorld>,
                                   w: &mut GfsWorld,
                                   lease: Option<Rc<LeaseGroup>>| {
                    for (j, &sess) in group.iter().enumerate() {
                        if j > 0 {
                            sess.bind_device(w, "meta");
                        }
                        let si = gi * spc + j;
                        let rng = det_rng(point_seed, &format!("storm-client-{si}"));
                        next_op(
                            sim,
                            w,
                            sess,
                            rng,
                            cfg.ops_per_client,
                            cfg,
                            tally.clone(),
                            inj.clone(),
                            lease.clone(),
                            script.clone(),
                        );
                    }
                };
                if gi < lease_n {
                    // Writeback-leased group: take the lease on the private
                    // subtree first, then launch every chain — the group
                    // surrenders (reconciling its journal) when the last
                    // chain drains.
                    let top = format!("/w{gi:02}");
                    let lease = Rc::new(LeaseGroup {
                        wi: gi as u32,
                        top: top.clone(),
                        sess: g0,
                        left: Cell::new(glen),
                    });
                    g0.acquire_lease(sim, w, &top, move |sim, w, r| {
                        r.expect("storm lease acquire");
                        launch(sim, w, Some(lease));
                    });
                } else {
                    launch(sim, w, None);
                }
            });
        }
        // The live rebalance policy: a deterministic in-sim tick, so both
        // the migrations and everything they shift stay bit-identical
        // across thread counts.
        if cfg.managers > 1 && cfg.rebalance_every_ms > 0 {
            schedule_rebalance(sim, fs, *cfg, tally.clone());
        }
        sim.run(w);
    }
    assert_eq!(
        tally.finished_clients.get(),
        cfg.clients_per_point * cfg.sessions_per_client.max(1),
        "storm point {point}: some session chains did not drain"
    );

    if std::env::var_os("GFS_STORM_DEBUG").is_some() {
        let w = &run.world;
        let inst = &w.fss[fs.0 as usize];
        let busy: Vec<f64> = inst
            .mgrs
            .iter()
            .map(|m| m.busy_until.since(SimTime::ZERO).as_nanos() as f64 / 1e6)
            .collect();
        let svc: Vec<f64> = inst
            .mgrs
            .iter()
            .map(|m| m.service_ns as f64 / 1e6)
            .collect();
        eprintln!("point {point}: shard_service(ms)={svc:?}");
        let dlg: Vec<f64> = w
            .clients
            .iter()
            .filter(|c| c.delegate_busy_until > SimTime::ZERO)
            .map(|c| c.delegate_busy_until.since(SimTime::ZERO).as_nanos() as f64 / 1e6)
            .collect();
        eprintln!(
            "point {point}: race_end={:.1}ms shard_busy_until(ms)={busy:?} delegate_busy(ms)={dlg:?} migrations={}",
            tally.race_end.get().max(race_start).since(race_start).as_nanos() as f64 / 1e6,
            inst.core.shards.migrations(),
        );
    }
    let w = &run.world;
    let core = &w.fss[fs.0 as usize].core;
    // Every point — healthy or faulted — is audited against the world
    // invariants; violations are reported in the summary and detailed on
    // stderr so a failing chaos test names the broken guarantee.
    let violations = crate::chaos::world_invariants(&run.sim, w);
    for msg in &violations {
        eprintln!("storm point {point}: invariant violated: {msg}");
    }
    PointSummary {
        ops: tally.ops.get(),
        errors: tally.errors.get(),
        events: run.sim.executed(),
        fingerprint: tally.fingerprint.get(),
        meta: core.meta_snapshot(),
        fsck_clean: gfs::fsck(core).is_clean(),
        data_path: crate::builder::data_path_stats_of(w),
        timeouts: w
            .recovery
            .count(|e| matches!(e, RecoveryWhat::TimeoutDetected { .. })) as u64,
        failovers: w
            .recovery
            .count(|e| matches!(e, RecoveryWhat::FailedOver { .. })) as u64,
        faults_injected: w
            .recovery
            .count(|e| matches!(e, RecoveryWhat::FaultInjected(_))) as u64,
        restores: w.recovery.count(|e| matches!(e, RecoveryWhat::Restored(_))) as u64,
        manager_epochs: w
            .fss
            .iter()
            .map(|i| i.mgrs.iter().map(|m| m.epoch).sum::<u64>())
            .sum(),
        wal_replayed: w
            .fss
            .iter()
            .map(|i| i.mgrs.iter().map(|m| m.replayed).sum::<u64>())
            .sum(),
        gave_up: tally.gave_up.get(),
        err_not_found: tally.err_not_found.get(),
        err_exists: tally.err_exists.get(),
        err_races: tally.err_races.get(),
        cross_shard_ops: w.fss.iter().map(|i| i.cross_shard_ops).sum(),
        delegated_ops: w.fss.iter().map(|i| i.delegated_ops).sum(),
        lease_acquires: w.fss.iter().map(|i| i.lease_grants).sum(),
        lease_breaks: w.fss.iter().map(|i| i.lease_breaks).sum(),
        reconcile_ops: w.fss.iter().map(|i| i.reconcile_ops).sum(),
        rebalance_migrations: w.fss.iter().map(|i| i.core.shards.migrations()).sum(),
        tree_fingerprint: core.tree_fingerprint(),
        invariant_violations: violations.len() as u64,
        sessions: w.sessions.len() as u64,
        envelopes: w.fanin.envelopes,
        envelope_ops: w.fanin.envelope_ops,
        sim_ns: tally
            .race_end
            .get()
            .max(race_start)
            .since(race_start)
            .as_nanos(),
    }
}

/// A writeback-leased session group: the first session of the group holds
/// the subtree lease on `/w{wi:02}` while every chain in the group runs;
/// the last chain to drain surrenders it, replaying the delegate journal
/// back to the manager as bulk reconcile envelopes.
struct LeaseGroup {
    /// Index of the group's private subtree (`/w{wi:02}`).
    wi: u32,
    /// Absolute path of the leased top directory.
    top: String,
    /// The lease-holding session (first of the group).
    sess: Session,
    /// Chains still running; surrender fires when this hits zero.
    left: Cell<u32>,
}

/// Periodic in-storm rebalance tick: consult the shard map's heat counters
/// and migrate at most one subtree per tick. The tick is an ordinary sim
/// event, so the migrations — and everything they shift — are part of the
/// deterministic event stream. Stops rescheduling once every chain has
/// drained so the point's horizon isn't held open.
fn schedule_rebalance(
    sim: &mut Sim<GfsWorld>,
    fs: gfs::types::FsId,
    cfg: StormConfig,
    tally: Rc<Tally>,
) {
    let total = cfg.clients_per_point * cfg.sessions_per_client.max(1);
    sim.after(
        SimDuration::from_millis(cfg.rebalance_every_ms),
        move |sim, w| {
            if tally.finished_clients.get() >= total {
                return;
            }
            gfs::client::maybe_rebalance(sim, w, fs);
            schedule_rebalance(sim, fs, cfg, tally);
        },
    );
}

/// Compile a trace corpus into storm coordinates: each op's path
/// components hash to a `(top, sub, file)` cell of the generated tree and
/// its kind maps onto the storm's selector arms. The mapping is
/// deterministic and order-preserving, so consecutive script entries keep
/// the corpus's directory locality.
fn corpus_script(
    ops: &[crate::trace::TraceOp],
    cfg: &StormConfig,
) -> Vec<(u32, u32, u32, u32)> {
    use crate::trace::TraceOpKind;
    let h = |s: &str| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h = mix(h, u64::from(b));
        }
        h
    };
    ops.iter()
        .map(|op| {
            let p = op.path.trim_start_matches('/');
            let comps: Vec<&str> = p.split('/').collect();
            let t = (h(comps[0]) as u32) % cfg.top_dirs.max(1);
            let s = comps
                .get(1)
                .map_or(0, |c| (h(c) as u32) % cfg.sub_dirs.max(1));
            let f = comps.last().map_or(0, |c| {
                (h(c) as u32) % (cfg.files_per_sub + cfg.files_per_sub / 4 + 1).max(1)
            });
            let sel = match op.kind {
                TraceOpKind::Stat | TraceOpKind::Read => 0,
                TraceOpKind::Readdir => 30,
                TraceOpKind::Mkdir => 40,
                TraceOpKind::Create => 45,
                TraceOpKind::Write => 65,
                TraceOpKind::Rename => 85,
                TraceOpKind::Unlink => 90,
            };
            (t, s, f, sel)
        })
        .collect()
}

/// One step of a session's op chain; schedules the next step from its own
/// completion callback, so each session is a sequential stream of racing
/// RPCs. Progress-keyed faults are advanced here, so "at op N" thresholds
/// are evaluated against the shared per-point op counter between ops.
#[allow(clippy::too_many_arguments)]
fn next_op(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    sess: Session,
    mut rng: StdRng,
    remaining: u32,
    cfg: StormConfig,
    tally: Rc<Tally>,
    inj: Option<Rc<RefCell<ProgressInjector>>>,
    lease: Option<Rc<LeaseGroup>>,
    script: Option<Rc<Vec<(u32, u32, u32, u32)>>>,
) {
    if let Some(inj) = &inj {
        inj.borrow_mut().advance(sim, w, tally.ops.get());
    }
    if remaining == 0 {
        tally.finished_clients.set(tally.finished_clients.get() + 1);
        tally.race_end.set(sim.now());
        if let Some(g) = lease {
            // Last chain in a leased group drains: surrender the subtree
            // lease, which replays the writeback journal to the manager
            // as bulk reconcile envelopes.
            g.left.set(g.left.get() - 1);
            if g.left.get() == 0 {
                g.sess.surrender_lease(sim, w, &g.top, move |sim, _w, r| {
                    r.expect("storm lease surrender");
                    tally.race_end.set(sim.now());
                });
            }
        }
        return;
    }
    let c = sess.ctx(w);
    let done = cfg.ops_per_client - remaining;
    let (t, s, f, sel) = match cfg.mix {
        // Uniform: a file path anywhere in the generated tree; the widened
        // file index makes stat/remove miss sometimes and create fresh
        // names sometimes.
        StormMix::Uniform => {
            let t = rng.gen::<u32>() % cfg.top_dirs;
            let s = rng.gen::<u32>() % cfg.sub_dirs;
            let f = rng.gen::<u32>() % (cfg.files_per_sub + cfg.files_per_sub / 4 + 1);
            (t, s, f, rng.gen::<u32>() % 100)
        }
        // Corpus: walk the compiled trace script sequentially from this
        // client's offset — consecutive ops carry the corpus's real
        // directory locality.
        StormMix::Corpus(_) => {
            let sc = script.as_ref().expect("corpus mix compiles a script");
            let idx = (u64::from(c.0)
                .wrapping_mul(101)
                .wrapping_add(u64::from(done))
                % sc.len() as u64) as usize;
            sc[idx]
        }
    };
    // Leased chains bias 3:1 toward their private writeback subtree, so
    // most of their traffic rides the delegate journal (zero manager
    // events); the rest keeps hammering the shared tree. Unleased chains
    // never draw here, keeping their rng stream byte-identical to PR 7.
    let top_str = match &lease {
        Some(g) if rng.gen::<u32>() % 4 != 0 => format!("w{:02}", g.wi),
        _ => format!("t{t:02}"),
    };
    let file_path = format!("/{top_str}/s{s:02}/f{f:04}");
    let dir_path = format!("/{top_str}/s{s:02}");
    let cont = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, rng: StdRng, tally: Rc<Tally>| {
        next_op(sim, w, sess, rng, remaining - 1, cfg, tally, inj, lease, script);
    };
    match sel {
        // stat — the resolve-heavy staple.
        0..=29 => {
            sess.stat(sim, w, &file_path, move |sim, w, r| {
                tally.op_result(30, r.as_ref().err());
                cont(sim, w, rng, tally);
            });
        }
        // readdir of the subdirectory.
        30..=39 => {
            sess.readdir(sim, w, &dir_path, move |sim, w, r| {
                let code = 31 ^ (r.as_ref().map_or(0, |names| names.len() as u64) << 16);
                tally.op_result(code, r.as_ref().err());
                cont(sim, w, rng, tally);
            });
        }
        // mkdir of a racing extra directory.
        40..=44 => {
            let d = rng.gen::<u32>() % 8;
            let path = format!("{dir_path}/d{d}");
            sess.mkdir(sim, w, &path, Owner::local(0, 0), move |sim, w, r| {
                tally.op_result(32, r.as_ref().err());
                cont(sim, w, rng, tally);
            });
        }
        // create: open-for-write (creates if absent) then close.
        45..=64 => {
            sess.open(
                sim,
                w,
                &file_path,
                OpenFlags::Write,
                Owner::local(0, 0),
                move |sim, w, r| match r {
                    Ok(h) => sess.close(sim, w, h, move |sim, w, r| {
                        tally.op_result(33, r.as_ref().err());
                        cont(sim, w, rng, tally);
                    }),
                    Err(e) => {
                        tally.op_result(33, Some(&e));
                        cont(sim, w, rng, tally);
                    }
                },
            );
        }
        // small-write: open, write `write_bytes`, close (write-behind +
        // token traffic + real NSD I/O on the flush). Scaled fan-in storms
        // keep this arm pure-metadata — a second create population — so
        // 10M ops stay on the envelope path.
        65..=84 => {
            if cfg.sessions_per_client > 1 {
                sess.open(
                    sim,
                    w,
                    &file_path,
                    OpenFlags::Write,
                    Owner::local(0, 0),
                    move |sim, w, r| match r {
                        Ok(h) => sess.close(sim, w, h, move |sim, w, r| {
                            tally.op_result(34, r.as_ref().err());
                            cont(sim, w, rng, tally);
                        }),
                        Err(e) => {
                            tally.op_result(34, Some(&e));
                            cont(sim, w, rng, tally);
                        }
                    },
                );
                return;
            }
            sess.open(
                sim,
                w,
                &file_path,
                OpenFlags::Write,
                Owner::local(0, 0),
                move |sim, w, r| match r {
                    Ok(h) => {
                        let data = pattern_bytes(0, cfg.write_bytes);
                        sess.write(sim, w, h, 0, data, move |sim, w, r| {
                            if let Err(e) = &r {
                                tally.op_result(34, Some(e));
                                // Still close the handle before moving on.
                            }
                            let wrote = r.is_ok();
                            sess.close(sim, w, h, move |sim, w, r| {
                                if wrote {
                                    tally.op_result(34, r.as_ref().err());
                                }
                                cont(sim, w, rng, tally);
                            });
                        });
                    }
                    Err(e) => {
                        tally.op_result(34, Some(&e));
                        cont(sim, w, rng, tally);
                    }
                },
            );
        }
        // cross-top rename — partitioned storms only. The target's top dir
        // is always different from the source's, and with the round-robin
        // placement map that makes every one of these a two-phase
        // cross-shard op (source shard coordinates, target shard commits).
        // With `managers == 1` the guard fails and the selector falls
        // through to unlink, preserving the single-manager event stream.
        85..=89 if cfg.managers > 1 && cfg.top_dirs > 1 => {
            let t2 = (t + 1 + rng.gen::<u32>() % (cfg.top_dirs - 1)) % cfg.top_dirs;
            let to = format!("/t{t2:02}/s{s:02}/f{f:04}");
            sess.rename(sim, w, &file_path, &to, move |sim, w, r| {
                tally.op_result(36, r.as_ref().err());
                cont(sim, w, rng, tally);
            });
        }
        // remove.
        _ => {
            sess.unlink(sim, w, &file_path, move |sim, w, r| {
                tally.op_result(35, r.as_ref().err());
                cont(sim, w, rng, tally);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_completes_counts_and_fscks() {
        let r = run_storm(&StormConfig::small());
        // 2 points × (4 + 16 + 512 tree ops + 8 × 24 race ops).
        assert!(r.ops > 1400, "ops {}", r.ops);
        assert!(r.errors > 0, "a race with misses must surface Err outcomes");
        // The per-kind breakdown is exhaustive, and a fault-free storm's
        // errors are all expected race outcomes — none gave up.
        assert_eq!(
            r.errors,
            r.err_not_found + r.err_exists + r.err_races + r.gave_up,
            "error breakdown must partition the error count"
        );
        assert_eq!(r.gave_up, 0, "fault-free storm must not time out");
        assert!(r.err_not_found > 0, "uniform probes must miss sometimes");
        assert!(r.fsck_clean, "storm left an inconsistent filesystem");
        assert!(r.events > 0);
        assert!(r.resolves > r.ops / 2, "resolves {}", r.resolves);
        // The name alphabet is tiny by design: interning collapses it.
        assert!(
            r.interned_names < 200,
            "interned {} names for a 2-point small storm",
            r.interned_names
        );
    }

    #[test]
    fn corpus_mix_carries_real_trace_locality() {
        // Every corpus-shaped storm drains with a clean tree and no op
        // that gave up.
        for corpus in crate::trace::TraceCorpus::ALL {
            let r = run_storm(&StormConfig::small().with_mix(StormMix::Corpus(corpus)));
            assert!(r.fsck_clean, "{corpus:?} storm left an inconsistent fs");
            assert_eq!(r.gave_up, 0);
        }
    }

    #[test]
    fn storm_is_bit_identical_across_sweep_thread_counts() {
        let cfg = StormConfig::small();
        let serial = run_storm_with_threads(&cfg, 1);
        let parallel = run_storm_with_threads(&cfg, 8);
        assert_eq!(serial, parallel);
        // And across repeated runs at the same thread count.
        assert_eq!(parallel, run_storm_with_threads(&cfg, 8));
    }

    #[test]
    fn flyweight_storm_batches_envelopes_and_fscks() {
        // 2 points × 8 contexts × 25 sessions = 400 flyweight sessions.
        let cfg = StormConfig::small().with_sessions_per_client(25);
        let r = run_storm(&cfg);
        assert_eq!(r.sessions, cfg.total_sessions(), "sessions {}", r.sessions);
        assert_eq!(
            r.ops,
            u64::from(cfg.points) * cfg.tree_ops() + u64::from(cfg.points) * cfg.race_ops(),
            "every chain must drain"
        );
        assert!(r.fsck_clean, "flyweight storm left an inconsistent fs");
        assert_eq!(r.gave_up, 0);
        assert_eq!(r.invariant_violations, 0);
        // The whole point: many ops per manager message. Race ops all ride
        // envelopes (plus close-releases), in far fewer messages.
        let race = u64::from(cfg.points) * cfg.race_ops();
        assert!(r.envelope_ops >= race, "envelope ops {} < race {race}", r.envelope_ops);
        assert!(
            r.envelopes * 4 < r.envelope_ops,
            "batching too thin: {} envelopes for {} ops",
            r.envelopes,
            r.envelope_ops
        );
    }

    #[test]
    fn flyweight_storm_is_bit_identical_across_sweep_thread_counts() {
        let cfg = StormConfig::small().with_sessions_per_client(25);
        let serial = run_storm_with_threads(&cfg, 1);
        let parallel = run_storm_with_threads(&cfg, 8);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn partitioned_storm_crosses_shards_and_fscks() {
        // 4 manager shards over 4 top dirs: every cross-top rename is a
        // two-phase op, and every chain still drains exactly once.
        let cfg = StormConfig::small()
            .with_sessions_per_client(25)
            .with_managers(4);
        let r = run_storm(&cfg);
        assert_eq!(
            r.ops,
            u64::from(cfg.points) * cfg.tree_ops() + u64::from(cfg.points) * cfg.race_ops(),
            "every chain must drain exactly once under partitioning"
        );
        assert!(r.fsck_clean, "partitioned storm left an inconsistent fs");
        assert_eq!(r.gave_up, 0);
        assert_eq!(r.invariant_violations, 0);
        assert!(
            r.cross_shard_ops > 0,
            "the rename arm must exercise two-phase cross-shard commits"
        );
        assert_eq!(
            r.errors,
            r.err_not_found + r.err_exists + r.err_races + r.gave_up
        );
    }

    #[test]
    fn partitioned_storm_is_bit_identical_across_sweep_thread_counts() {
        let cfg = StormConfig::small()
            .with_sessions_per_client(25)
            .with_managers(4);
        let serial = run_storm_with_threads(&cfg, 1);
        let parallel = run_storm_with_threads(&cfg, 8);
        assert_eq!(serial, parallel);
        assert_eq!(parallel, run_storm_with_threads(&cfg, 8));
    }

    #[test]
    fn delegated_storm_reconciles_and_rebalances_live() {
        // Leased contexts queue mutations in local delegate journals and
        // reconcile them as bulk replay envelopes; the in-storm rebalance
        // policy migrates hot subtrees while the race is still running.
        // Every chain must still drain exactly once and the tree must fsck.
        let cfg = StormConfig::small()
            .with_sessions_per_client(25)
            .with_managers(4)
            .with_leases(2)
            .with_rebalance_every(2);
        let r = run_storm(&cfg);
        assert_eq!(
            r.ops,
            u64::from(cfg.points) * cfg.tree_ops() + u64::from(cfg.points) * cfg.race_ops(),
            "every chain must drain exactly once under delegation"
        );
        assert!(r.fsck_clean, "delegated storm left an inconsistent fs");
        assert_eq!(r.gave_up, 0);
        assert_eq!(r.invariant_violations, 0);
        assert!(r.delegated_ops > 0, "leased contexts must take the writeback path");
        assert!(
            r.reconcile_ops > 0,
            "surrender must replay journaled mutations through the manager"
        );
        assert_eq!(
            r.lease_acquires,
            u64::from(cfg.points) * u64::from(cfg.effective_lease_contexts()),
            "one subtree lease per leased context"
        );
        assert!(
            r.rebalance_migrations >= 1,
            "the in-storm policy must migrate at least one hot subtree"
        );
    }

    #[test]
    fn delegated_storm_is_bit_identical_across_sweep_thread_counts() {
        let cfg = StormConfig::small()
            .with_sessions_per_client(25)
            .with_managers(4)
            .with_leases(2)
            .with_rebalance_every(2);
        let serial = run_storm_with_threads(&cfg, 1);
        let parallel = run_storm_with_threads(&cfg, 8);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn partitioned_storm_beats_single_manager_throughput() {
        // The whole point of the shards: the same op load drains in less
        // simulated time because four manager queues serve it. Modeled
        // throughput must scale, not just stay level. The comparison only
        // means anything when the manager is the bottleneck: the sharded
        // side batches behind a fixed gather window, so a lightly-loaded
        // storm is latency-bound and would measure the window, not the
        // queues. 400 sessions per context (the massive-storm shape) keeps
        // every manager saturated on both sides of the comparison.
        let base = StormConfig::small().with_sessions_per_client(400);
        let single = run_storm(&base);
        let sharded = run_storm(&base.with_managers(4));
        assert!(
            sharded.sim_ops_per_sec() > single.sim_ops_per_sec() * 2.0,
            "4-shard storm should out-run one manager by >2x: {:.0} vs {:.0} ops/s",
            sharded.sim_ops_per_sec(),
            single.sim_ops_per_sec()
        );
    }
}
