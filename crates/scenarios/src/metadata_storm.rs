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
//! Each session is an op chain of the session driver the trace replay
//! uses (`chain.rs`), fed by a generator of the storm's uniform mix, so
//! both issue, tally and fingerprint every op the same way.
//!
//! Points are fully independent seeded worlds, so they fan out through
//! [`crate::parallel::run_indexed`]; the merged [`StormReport`] — including
//! its order-sensitive fingerprint — is bit-identical at any
//! `GFS_SWEEP_THREADS` value.

use crate::builder::{NsdFarm, ScenarioBuilder};
use crate::chain::{self, mix, Chain, Lease, Oracle, Run, Tally};
use crate::trace::{TraceOp, TraceOpKind};
use gfs::faults::{ProgressInjector, ProgressPlan};
use gfs::oracle::ModelFs;
use gfs::types::{FsId, Owner};
use gfs::world::{Counters, GfsWorld};
use rand::{rngs::StdRng, Rng};
use simcore::{det_rng, Bandwidth, Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

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
    /// Determinism seed.
    pub seed: u64,
}

/// Bytes a small-write op writes (a storm of several sessions per context
/// writes none; see `uniform_ops`).
const WRITE_BYTES: u64 = 4096;

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
            seed: 2005,
        }
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

/// Fault schedule for a chaos storm. Its events fire when the per-point op
/// counter crosses their threshold. With `wan_clients` the clients sit
/// behind a single flappable WAN link named `"storm-wan"`, so one link flap
/// cuts every client off at once.
#[derive(Clone, Debug, Default)]
pub struct ChaosSpec {
    /// Storm-progress-keyed faults ("kill the server at op 400k").
    pub progress: ProgressPlan,
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
        self.progress.is_empty() && !self.wan_clients
    }
}

/// Result of one session-driver run: a storm merged over its points, or a
/// trace replay (its [`crate::trace::ReplayReport::run`]). All-integer so
/// determinism tests can compare reports exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StormReport {
    /// Metadata operations performed (tree generation + client races).
    pub ops: u64,
    /// Operations that surfaced an error (races make `AlreadyExists` /
    /// `NotFound` expected; they are outcomes, not failures).
    pub errors: u64,
    /// Order-sensitive fingerprint over every operation result — the
    /// replay-identity witness.
    pub fingerprint: u64,
    /// Every point's post-storm fsck came back clean.
    pub fsck_clean: bool,
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
    /// Structural fingerprint of every point's final namespace (name-sorted
    /// recursive walk; timestamps excluded), merged in point order. The
    /// exactly-once witness: a crash-recovered run must match its
    /// fault-free oracle here.
    pub tree_fingerprint: u64,
    /// World-invariant violations found by [`crate::chaos::world_invariants`]
    /// after each point drained (details go to stderr). 0 on any correct
    /// run, faulted or not.
    pub invariant_violations: u64,
    /// Simulated race-phase duration, **max** over points: points model
    /// independent sites storming concurrently, so the slowest site bounds
    /// the storm's end-to-end time on the modeled cluster. Deterministic
    /// (it is simulation time, not wall time), so it is safe to compare
    /// across thread counts and machines.
    pub sim_ns: u64,
    /// The drained worlds' counters ([`GfsWorld::counters`]), summed over
    /// points: events, envelopes, resolves, faults, leases, the data path.
    pub counters: Counters,
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
        let envelopes = self.counters.get("session.envelopes");
        if envelopes == 0 {
            0.0
        } else {
            self.counters.get("session.envelope_ops") as f64 / envelopes as f64
        }
    }

    /// The health audit of a drained run, one line per failed check: fsck,
    /// the retry budget, the world invariants and, when `faulted` (a fault
    /// was scheduled), that a fault fired. Empty means healthy.
    pub fn audit(&self, faulted: bool) -> Vec<String> {
        let mut v = Vec::new();
        if !self.fsck_clean {
            v.push("fsck found inconsistencies".to_string());
        }
        if self.gave_up != 0 {
            v.push(format!("{} op(s) exhausted the retry budget", self.gave_up));
        }
        if self.invariant_violations != 0 {
            let n = self.invariant_violations;
            v.push(format!("{n} world-invariant violation(s) (see stderr)"));
        }
        if faulted && self.counters.get("faults.injected") == 0 {
            v.push("a fault was scheduled but none fired".to_string());
        }
        v
    }

    /// Read one drained world: the tally's counts, the world's counters,
    /// fsck and the invariant audit (each violation printed under
    /// `label`). `start` is when the chains started.
    pub(crate) fn drained(
        sim: &Sim<GfsWorld>,
        w: &GfsWorld,
        fs: FsId,
        tally: &Tally,
        start: SimTime,
        label: &str,
    ) -> StormReport {
        let core = &w.fss[fs.0 as usize].core;
        let violations = crate::chaos::world_invariants(sim, w);
        for msg in &violations {
            eprintln!("{label}: invariant violated: {msg}");
        }
        StormReport {
            ops: tally.ops.get(),
            errors: tally.errors.get(),
            fingerprint: tally.fingerprint.get(),
            fsck_clean: gfs::fsck(core).is_clean(),
            gave_up: tally.gave_up.get(),
            err_not_found: tally.err_not_found.get(),
            err_exists: tally.err_exists.get(),
            err_races: tally.err_races.get(),
            tree_fingerprint: core.tree_fingerprint(),
            invariant_violations: violations.len() as u64,
            sim_ns: tally.end.get().max(start).since(start).as_nanos(),
            counters: w.counters(sim),
        }
    }

    /// Fold in the report of the next point: counts add, fingerprints mix
    /// in point order, the simulated duration is the slowest point's.
    fn merged(mut self, s: &StormReport) -> StormReport {
        self.ops += s.ops;
        self.errors += s.errors;
        self.fingerprint = mix(self.fingerprint, s.fingerprint);
        self.fsck_clean &= s.fsck_clean;
        self.gave_up += s.gave_up;
        self.err_not_found += s.err_not_found;
        self.err_exists += s.err_exists;
        self.err_races += s.err_races;
        self.tree_fingerprint = mix(self.tree_fingerprint, s.tree_fingerprint);
        self.invariant_violations += s.invariant_violations;
        self.sim_ns = self.sim_ns.max(s.sim_ns);
        self.counters = self.counters.merged(&s.counters);
        self
    }
}

/// Merge per-point reports in point order.
fn merge_points<'a>(points: impl IntoIterator<Item = &'a StormReport>) -> StormReport {
    let clean = StormReport {
        fsck_clean: true,
        ..StormReport::default()
    };
    points.into_iter().fold(clean, StormReport::merged)
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
    let points = crate::parallel::run_indexed(cfg.points as usize, threads, |i| {
        run_point(&cfg, chaos, i as u32, false).0
    });
    merge_points(&points)
}

/// Run a storm of one session per point with every op diffed against a
/// [`ModelFs`] seeded with the point's generated tree: one sequential chain
/// makes the model's answer well defined. Returns the merged report and
/// one line per divergence or final-tree mismatch, labeled by point.
///
/// # Panics
///
/// If a point would run more than one session.
pub fn check_against_oracle(cfg: &StormConfig) -> (StormReport, Vec<String>) {
    assert_eq!(
        cfg.clients_per_point * cfg.sessions_per_client.max(1),
        1,
        "the oracle diff needs one sequential session per point"
    );
    let (reports, violations): (Vec<StormReport>, Vec<Vec<String>>) = (0..cfg.points)
        .map(|p| run_point(cfg, &ChaosSpec::none(), p, true))
        .unzip();
    (merge_points(&reports), violations.concat())
}

/// One sweep point: generate the tree, storm it, report. With `oracle` the
/// point's single chain is diffed against a model of the tree, and the
/// divergences come back as violation lines.
fn run_point(
    cfg: &StormConfig,
    chaos: &ChaosSpec,
    point: u32,
    oracle: bool,
) -> (StormReport, Vec<String>) {
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
    // No queued workloads: the builder just assembles the world; the storm
    // drives the client API directly.
    let mut sr = sb.run(SimTime::from_secs(1));

    let st = Rc::new(Run {
        faults: (!chaos.progress.is_empty())
            .then(|| RefCell::new(ProgressInjector::new(&chaos.progress))),
        oracle: oracle.then(|| Oracle::new(ModelFs::new())),
        ..Run::default()
    });

    // Phase 1 — tree generation, straight on the core (the bulk of the
    // operation count; each call is a full path resolution + mutation).
    {
        let core = &mut sr.world.fss[fs.0 as usize].core;
        // Deterministic placement map for the partitioned storm: top dir
        // `tXX` lives on shard `XX mod managers`, a perfectly balanced
        // round-robin that makes every cross-top rename a two-phase op.
        if cfg.managers > 1 {
            for t in 0..cfg.top_dirs {
                core.shards.assign(format!("t{t:02}"), t % cfg.managers);
            }
        }
        let owner = Owner::local(0, 0);
        let model = st.oracle.as_ref().map(|o| &o.model);
        let gen_top = |core: &mut gfs::FsCore, top: String| {
            let made = |path: &str, code: u64| {
                st.tally.record(code, None);
                if let Some(m) = model {
                    let mut m = m.borrow_mut();
                    let r = if code == 22 {
                        m.create_file(path)
                    } else {
                        m.mkdir(path)
                    };
                    r.expect("model tree");
                }
            };
            core.mkdir(&top, owner.clone(), 0).expect("mkdir top");
            made(&top, 20);
            for s in 0..cfg.sub_dirs {
                let sub = format!("{top}/s{s:02}");
                core.mkdir(&sub, owner.clone(), 0).expect("mkdir sub");
                made(&sub, 21);
                for f in 0..cfg.files_per_sub {
                    let file = format!("{sub}/f{f:04}");
                    core.create_file(&file, owner.clone(), 0)
                        .expect("create file");
                    made(&file, 22);
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
    // session runs its op chain; a leased group's chains start once the
    // first session holds the lease on its private subtree. Chains launched
    // from one callback share the instant, so a multi-session context's
    // first round is already one envelope.
    let race_start = sr.sim.now();
    {
        let (sim, w) = (&mut sr.sim, &mut sr.world);
        sim.set_horizon(sim.now() + SimDuration::from_secs(3600));
        // Progress events at or below the tree-op count fire before the
        // first race op ("kill the server at op 0").
        if let Some(faults) = &st.faults {
            faults.borrow_mut().advance(sim, w, st.tally.ops.get());
        }
        let lease_n = cfg.effective_lease_contexts() as usize;
        let groups = sessions
            .chunks(spc as usize)
            .enumerate()
            .map(|(gi, group)| {
                let lease = (gi < lease_n)
                    .then(|| Lease::new(format!("/w{gi:02}"), group[0], group.len(), st.clone()));
                let private = lease.as_ref().map(|_| gi as u32);
                let chains = group.iter().enumerate().map(|(j, &sess)| {
                    let si = gi * spc as usize + j;
                    let rng = det_rng(point_seed, &format!("storm-client-{si}"));
                    Chain {
                        sess,
                        ops: Box::new(uniform_ops(*cfg, rng, private)),
                        lease: lease.clone(),
                        run: st.clone(),
                    }
                });
                chains.collect()
            })
            .collect();
        chain::launch(sim, w, "meta", groups);
        // The live rebalance policy: a deterministic in-sim tick, so both
        // the migrations and everything they shift stay bit-identical
        // across thread counts.
        if cfg.managers > 1 && cfg.rebalance_every_ms > 0 {
            schedule_rebalance(sim, fs, *cfg, st.clone());
        }
        sim.run(w);
    }
    assert_eq!(
        st.tally.finished.get(),
        cfg.clients_per_point * spc,
        "storm point {point}: some session chains did not drain"
    );
    let label = format!("storm point {point}");
    let report = StormReport::drained(&sr.sim, &sr.world, fs, &st.tally, race_start, &label);
    let mut violations = Vec::new();
    if let Some(o) = &st.oracle {
        o.diff_tree(&sr.world.fss[fs.0 as usize].core, report.tree_fingerprint);
        let samples = o.samples.borrow();
        violations.extend(samples.iter().map(|m| format!("{label}: {m}")));
    }
    (report, violations)
}

/// A session's op source: `ops_per_client` ops of the storm's uniform mix,
/// drawn from `rng`. Each op is a file path anywhere in the generated tree
/// (the widened file index makes stat and remove miss sometimes and create
/// fresh names sometimes) and a fixed op distribution. A chain of a group
/// leasing the private subtree `/w{lease:02}` puts 3 of 4 ops there, so
/// most of its traffic rides the delegate journal.
fn uniform_ops(
    cfg: StormConfig,
    mut rng: StdRng,
    lease: Option<u32>,
) -> impl FnMut() -> Option<TraceOp> {
    use TraceOpKind::*;
    let mut left = cfg.ops_per_client;
    move || {
        if left == 0 {
            return None;
        }
        left -= 1;
        let t = rng.gen::<u32>() % cfg.top_dirs;
        let s = rng.gen::<u32>() % cfg.sub_dirs;
        let f = rng.gen::<u32>() % (cfg.files_per_sub + cfg.files_per_sub / 4 + 1);
        let sel = rng.gen::<u32>() % 100;
        // Unleased chains never draw here, keeping their rng stream.
        let top = match lease {
            Some(wi) if rng.gen::<u32>() % 4 != 0 => format!("w{wi:02}"),
            _ => format!("t{t:02}"),
        };
        let dir = format!("/{top}/s{s:02}");
        let file = format!("{dir}/f{f:04}");
        Some(match sel {
            // stat — the resolve-heavy staple.
            0..=29 => TraceOp::meta(Stat, file, 0),
            30..=39 => TraceOp::meta(Readdir, dir, 0),
            // mkdir of a racing extra directory.
            40..=44 => TraceOp::meta(Mkdir, format!("{dir}/d{}", rng.gen::<u32>() % 8), 0),
            45..=64 => TraceOp::meta(Create, file, 0),
            // small-write: write-behind, token traffic and real NSD I/O on
            // the flush. Scaled fan-in storms write 0 bytes (open and
            // close), so 10M ops stay on the envelope path.
            65..=84 => {
                let size = if cfg.sessions_per_client > 1 {
                    0
                } else {
                    WRITE_BYTES
                };
                TraceOp::data(Write, file, size, 0)
            }
            // cross-top rename — partitioned storms only. The target's top
            // is always another one, which the round-robin placement puts on
            // another shard: every one is a two-phase cross-shard op. With
            // one manager the selector falls through to unlink.
            85..=89 if cfg.managers > 1 && cfg.top_dirs > 1 => {
                let t2 = (t + 1 + rng.gen::<u32>() % (cfg.top_dirs - 1)) % cfg.top_dirs;
                TraceOp::rename(file, format!("/t{t2:02}/s{s:02}/f{f:04}"), 0)
            }
            _ => TraceOp::meta(Unlink, file, 0),
        })
    }
}

/// Periodic in-storm rebalance tick: consult the shard map's heat counters
/// and migrate at most one subtree per tick. The tick is an ordinary sim
/// event, so the migrations — and everything they shift — are part of the
/// deterministic event stream. Stops rescheduling once every chain has
/// drained so the point's horizon isn't held open.
fn schedule_rebalance(sim: &mut Sim<GfsWorld>, fs: FsId, cfg: StormConfig, st: Rc<Run>) {
    let total = cfg.clients_per_point * cfg.sessions_per_client.max(1);
    sim.after(
        SimDuration::from_millis(cfg.rebalance_every_ms),
        move |sim, w| {
            if st.tally.finished.get() >= total {
                return;
            }
            gfs::client::maybe_rebalance(sim, w, fs);
            schedule_rebalance(sim, fs, cfg, st);
        },
    );
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
        let n = |name| r.counters.get(name);
        assert!(n("simcore.events") > 0);
        assert!(n("fscore.resolves") > r.ops / 2, "resolves {}", n("fscore.resolves"));
        // The name alphabet is tiny by design: interning collapses it.
        let interned = n("fscore.interned_names");
        assert!(interned < 200, "interned {interned} names for a 2-point small storm");
    }

    #[test]
    fn uniform_mix_matches_the_oracle_op_by_op() {
        // One session per point runs the storm as one sequential chain, so
        // every op — cross-shard renames, small writes, deliberate misses —
        // has a well-defined model answer. Once at one manager, once at
        // four with the session's context leasing its private subtree.
        let one = StormConfig {
            clients_per_point: 1,
            ..StormConfig::small()
        };
        let leased = one.with_managers(4).with_leases(1);
        for cfg in [one, leased] {
            let (r, violations) = check_against_oracle(&cfg);
            assert!(violations.is_empty(), "M={}: {violations:#?}", cfg.managers);
            assert_eq!(
                r.ops,
                u64::from(cfg.points) * (cfg.tree_ops() + cfg.race_ops())
            );
            assert!(r.errors > 0, "the mix must surface typed errors");
            assert_eq!(r.gave_up, 0);
            if cfg.managers > 1 {
                let n = |name| r.counters.get(name);
                assert_eq!(n("manager.lease_grants"), u64::from(cfg.points));
                assert!(n("session.delegated_ops") > 0 && n("manager.cross_shard_ops") > 0);
            }
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
        let n = |name| r.counters.get(name);
        assert_eq!(n("session.sessions"), cfg.total_sessions());
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
        let (envelopes, ops) = (n("session.envelopes"), n("session.envelope_ops"));
        assert!(ops >= race, "envelope ops {ops} < race {race}");
        assert!(envelopes * 4 < ops, "batching too thin: {envelopes} envelopes for {ops} ops");
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
            r.counters.get("manager.cross_shard_ops") > 0,
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
        let n = |name| r.counters.get(name);
        assert!(n("session.delegated_ops") > 0, "leased contexts must take the writeback path");
        assert!(
            n("manager.reconcile_ops") > 0,
            "surrender must replay journaled mutations through the manager"
        );
        assert_eq!(
            n("manager.lease_grants"),
            u64::from(cfg.points) * u64::from(cfg.effective_lease_contexts()),
            "one subtree lease per leased context"
        );
        assert!(
            n("manager.migrations") >= 1,
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
