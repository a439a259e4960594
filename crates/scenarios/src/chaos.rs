//! # chaos — the invariant-checking harness for fault-injected storms
//!
//! The metadata storm proves the namespace scales; this module proves it
//! *survives*. A chaos run is an ordinary storm with a [`ChaosSpec`]
//! attached — NSD servers crash at op thresholds, WAN links flap, the
//! namespace manager dies and replays its WAL — and the harness checks the
//! invariants that must hold anyway:
//!
//! * **Determinism** — the same `ChaosSpec` + seed produces a bit-identical
//!   [`StormReport`] at any sweep-thread count. Faults, timeouts, backoffs
//!   and recoveries are all simulation events inside isolated per-point
//!   worlds, so chaos does not get to be flaky.
//! * **Eventual success** — every client RPC eventually lands: `gave_up`
//!   (ops that exhausted the retry budget) stays 0 as long as outages are
//!   shorter than the retry window.
//! * **Post-storm health** — fsck comes back clean, op chains drain, no
//!   work is in flight or waited on, no watchdog timers leak, token state
//!   is conflict-free, client token mirrors agree with the manager, every
//!   cached page lies under a token its context holds and every manager
//!   path cache agrees with the live tree ([`world_invariants`], also
//!   evaluated inside every storm point).
//! * **Exactly-once** — a manager kill/restart mid-storm recovers by WAL
//!   replay and leaves the tree *identical* to a fault-free oracle run
//!   ([`check_manager_recovery`]): retried mutations are deduplicated, not
//!   reapplied.
//!
//! The checks return human-readable violation lists instead of panicking,
//! so tests, the perf harness and ci smoke stages can all reuse them.

use crate::metadata_storm::{
    run_chaos_storm_with_threads, ChaosSpec, StormConfig, StormReport,
};
use gfs::faults::ProgressPlan;
use gfs::world::GfsWorld;
use simcore::{Sim, SimDuration};
use std::collections::BTreeMap;

/// Audit a drained storm world. Returns one message per violated
/// invariant; empty means healthy. Cheap relative to the storm itself
/// (linear in clients, cached pages and cached paths), so every storm
/// point runs it —
/// healthy runs assert the same invariants chaos runs do.
pub fn world_invariants(sim: &Sim<GfsWorld>, w: &GfsWorld) -> Vec<String> {
    let mut v = Vec::new();

    // Every armed watchdog/fuse must have fired or been cancelled by the
    // exchange that created it.
    if sim.timers_pending() != 0 {
        v.push(format!(
            "{} watchdog timers still live after drain",
            sim.timers_pending()
        ));
    }

    for c in &w.clients {
        // Op chains completed, so no work may still be in flight: a data op
        // or an evicted write-back would pin a token against its recall, a
        // delegate op a lease, and a waiter parked on a drain never ran.
        for (key, ops, waiting) in c.inflight.iter() {
            let id = c.id.0;
            v.push(format!("client {id} still has {ops} op(s) in flight under {key:?} after drain"));
            if waiting > 0 {
                v.push(format!("client {id}: {waiting} waiter(s) still parked on {key:?}"));
            }
        }

        // The client-side token mirror must be a subset of what the manager
        // actually granted: believing in a token the manager revoked (or
        // never granted) is how silent data corruption starts.
        for (&(fs, inode), grants) in c.held_tokens.iter() {
            let tm = &w.fss[fs.0 as usize].tokens;
            for h in grants {
                if !tm.holds(inode, c.id, h.range, h.mode) {
                    v.push(format!(
                        "client {} mirrors a token the manager does not hold: \
                         inode {} [{}, {}) {:?}",
                        c.id.0, inode.0, h.range.start, h.range.end, h.mode
                    ));
                }
            }
        }

        if !c.recalling.is_empty() {
            v.push(format!(
                "client {} still works on {} recall(s) after drain",
                c.id.0,
                c.recalling.len()
            ));
        }

        // Every cached page lives under a token its context holds — read
        // or write for a clean page, write for a dirty one. A page no
        // token covers is one no revocation will ever invalidate.
        let mut uncovered: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
        for (key, dirty) in c.pool.pages() {
            let block = w.fss[key.fs.0 as usize].core.config.block_size;
            let n = uncovered.entry(key.fs.0).or_default();
            n.1 += 1;
            if !c.held_tokens.holds_page(key, dirty, block) {
                n.0 += 1;
            }
        }
        for (fs, (bad, total)) in uncovered {
            if bad > 0 {
                v.push(format!(
                    "client {}: {bad} of {total} cached page(s) on fs {fs} \
                     lie outside every token it holds",
                    c.id.0
                ));
            }
        }
    }

    // Flyweight sessions must have quiesced: no in-flight facade ops, and
    // every session-tracked handle must still exist on its shared mount
    // context (a dangling session fd means close/forget bookkeeping
    // diverged from the context's handle table).
    for (sid, st) in w.sessions.iter() {
        if st.inflight_ops != 0 {
            v.push(format!(
                "session {sid} still has {} facade op(s) in flight after drain",
                st.inflight_ops
            ));
        }
        let ctx = &w.clients[st.ctx.0 as usize];
        for (_, h) in st.handles.iter() {
            if !ctx.handles.contains_key(h) {
                v.push(format!(
                    "session {sid} holds handle {} unknown to its mount context {}",
                    h.0, st.ctx.0
                ));
            }
        }
    }

    // Every same-instant batch must have been flushed by its scheduled
    // envelope event; ops parked in a pending batch were lost.
    if w.fanin.pending_ops() != 0 {
        v.push(format!(
            "{} fan-in op(s) still parked in unflushed envelopes after drain",
            w.fanin.pending_ops()
        ));
    }
    // Likewise for the writeback path: delegate batches drain within two
    // events of parking, so none may survive the run.
    if w.fanin.delegate_pending_ops() != 0 {
        v.push(format!(
            "{} delegated op(s) still parked in unflushed writeback batches after drain",
            w.fanin.delegate_pending_ops()
        ));
    }

    // No two clients may end up with overlapping write authority, no matter
    // how many acquire retries and revocations raced through the faults.
    for (i, inst) in w.fss.iter().enumerate() {
        let n = inst.tokens.conflicting_grants();
        if n != 0 {
            v.push(format!("fs {i}: {n} conflicting token grant pair(s) coexist"));
        }
        // Every revocation was acknowledged (or its holder expelled) and
        // every grant's reply went out: a revocation left pending would
        // block every conflicting acquire from then on.
        let (revoking, unreplied) = inst.tokens.pending();
        if revoking + unreplied != 0 {
            v.push(format!(
                "fs {i}: {revoking} token revocation(s) unacknowledged and \
                 {unreplied} grant(s) unreplied after drain"
            ));
        }
        for (shard, m) in inst.mgrs.iter().enumerate() {
            if m.recovering {
                v.push(format!(
                    "fs {i}: manager shard {shard} still mid-recovery after drain"
                ));
            }
            // Path-cache coherence: entries are only dropped by exact
            // invalidation at unlink/rename, so any disagreement with the
            // live tree means an invalidation missed (or a key was not
            // canonical and outlived its entry).
            for (path, cached) in m.cached_paths() {
                let live = live_inode(&inst.core, path);
                if live != Some(cached) {
                    v.push(format!(
                        "fs {i}: manager shard {shard} caches {path:?} as inode {} but tree has {live:?}",
                        cached.0
                    ));
                }
            }
        }
        // Replica coherence: no read may ever have been served from an
        // invalidated copy, file generations stay under the monotone
        // watermark, every copy's generation trails its file's, and no
        // planned segment leaked its in-flight pressure.
        for msg in inst.replicas.coherence_violations() {
            v.push(format!("fs {i}: replica catalog: {msg}"));
        }
        // Every recall, of tokens or of a subtree lease, must have
        // finished (ack or expulsion), and the manager's lease table must
        // agree with the holders' client-side mirrors in both directions —
        // a one-sided lease is delegated authority nobody can recall.
        if !inst.recalls.is_empty() {
            v.push(format!("fs {i}: recalls still under way after drain"));
        }
        for (top, holder) in &inst.leases {
            let c = &w.clients[holder.0 as usize];
            if !c.leases.contains(&(gfs::FsId(i as u32), top.clone())) {
                v.push(format!(
                    "fs {i}: manager grants subtree lease {top:?} to client {} \
                     but the client does not mirror it",
                    holder.0
                ));
            }
        }
    }
    for c in &w.clients {
        for (fs, top) in &c.leases {
            if w.fss[fs.0 as usize].leases.get(top) != Some(&c.id) {
                v.push(format!(
                    "client {} mirrors subtree lease {top:?} on fs {} \
                     that the manager does not grant it",
                    c.id.0, fs.0
                ));
            }
        }
        // Journal entries are writeback state under a held lease; any entry
        // for a subtree the client no longer holds is a mutation that was
        // neither reconciled (surrender/break) nor discarded (expulsion).
        for e in &c.journal {
            if !c.leases.contains(&(e.fs, e.top.clone())) {
                v.push(format!(
                    "client {} retains a delegate journal entry for {:?} on fs {} \
                     without holding the subtree lease",
                    c.id.0, e.top, e.fs.0
                ));
            }
        }
    }

    v
}

/// Resolve `path` on the live tree without moving the core's resolution
/// counters (an audit must not change a reported metric).
fn live_inode(core: &gfs::FsCore, path: &str) -> Option<gfs::InodeId> {
    path.split('/')
        .filter(|c| !c.is_empty())
        .try_fold(gfs::fscore::ROOT, |cur, c| {
            core.dir_child(cur, core.names.get(c)?)
        })
}

/// A checked run: what it reported and every invariant it violated. The
/// chaos storm, the manager recovery and the trace differential all answer
/// with one.
#[derive(Clone, Debug)]
pub struct Verdict<R> {
    /// The run's report.
    pub report: R,
    /// Violations, empty when every invariant held.
    pub violations: Vec<String>,
}

impl<R> Verdict<R> {
    /// Did every invariant hold?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with the full violation list unless clean — the one-liner for
    /// tests.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "{} invariant(s) violated:\n  {}",
            self.violations.len(),
            self.violations.join("\n  ")
        );
    }
}

/// Verdict of a chaos storm: the merged report of the single-thread run.
pub type ChaosVerdict = Verdict<StormReport>;

/// Run `cfg` under `chaos` once serially and once with 8 sweep workers,
/// then check thread-count determinism and audit the serial run
/// ([`StormReport::audit`]).
pub fn check_chaos_storm(cfg: &StormConfig, chaos: &ChaosSpec) -> ChaosVerdict {
    let serial = run_chaos_storm_with_threads(cfg, chaos, 1);
    let threaded = run_chaos_storm_with_threads(cfg, chaos, 8);
    let mut violations = Vec::new();
    if serial != threaded {
        violations.push(format!(
            "report is not sweep-thread-invariant:\n  1 thread: {serial:?}\n  8 threads: {threaded:?}"
        ));
    }
    violations.extend(serial.audit(!chaos.is_empty()));
    Verdict {
        report: serial,
        violations,
    }
}

/// The acceptance-criteria schedule: crash an NSD server at 40% of the
/// race (healing after `outage`), flap the WAN at 70%. With `wan_clients`
/// set, the flap severs every client from the farm at once.
pub fn canonical_chaos(cfg: &StormConfig, outage: SimDuration) -> ChaosSpec {
    ChaosSpec {
        progress: ProgressPlan::new()
            // "meta-srv1" serves data only in the single-manager storm —
            // "meta-srv0" is the manager, whose death is
            // `check_manager_recovery`'s dedicated subject. In a
            // partitioned storm "meta-srv1" also hosts manager shard 1, so
            // the same schedule doubles as the kill-one-shard chaos run.
            .server_crash_at_op(cfg.race_op_at(0.4), gfs::FsId(0), "meta-srv1", Some(outage))
            .link_flap_at_op(cfg.race_op_at(0.7), "storm-wan", outage),
        wan_clients: true,
    }
}

/// The two runs of the exactly-once recovery check.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// The faulted run (manager killed and recovered mid-storm).
    pub chaos: StormReport,
    /// The fault-free oracle run of the identical workload.
    pub oracle: StormReport,
}

/// Verdict of the exactly-once recovery check.
pub type RecoveryVerdict = Verdict<Recovery>;

/// Kill the acting namespace manager at `crash_frac` of the race, restart
/// it `outage` later, and compare the recovered world against a fault-free
/// oracle run of the *same* workload.
///
/// The config is forced to a single client per point so the op sequence is
/// timing-independent: with one sequential chain, the only way the faulted
/// run can diverge from the oracle is a correctness bug — a retried
/// mutation applied twice (WAL dedup failure), a lost mutation, or an op
/// result that changed across the crash. So the check can demand *exact*
/// equality: the op-result fingerprint, the structural tree fingerprint,
/// and the op/error counts must all match, while the epoch/WAL counters
/// must prove a real crash-recovery actually happened.
pub fn check_manager_recovery(
    cfg: &StormConfig,
    crash_frac: f64,
    outage: SimDuration,
) -> RecoveryVerdict {
    check_manager_recovery_on(cfg, crash_frac, outage, "meta-srv0")
}

/// [`check_manager_recovery`] with an explicit crash target. `"meta-srv0"`
/// is the shard-0 (single-manager) home; in a partitioned storm
/// `"meta-srvN"` hosts shard `N`, so crashing it exercises the
/// kill-one-shard recovery path while the other shards keep serving.
pub fn check_manager_recovery_on(
    cfg: &StormConfig,
    crash_frac: f64,
    outage: SimDuration,
    server: &str,
) -> RecoveryVerdict {
    let mut cfg = *cfg;
    cfg.clients_per_point = 1;
    let oracle = run_chaos_storm_with_threads(&cfg, &ChaosSpec::none(), 1);
    let chaos_spec = ChaosSpec {
        progress: ProgressPlan::new().server_crash_at_op(
            cfg.race_op_at(crash_frac),
            gfs::FsId(0),
            server,
            Some(outage),
        ),
        wan_clients: false,
    };
    let chaos = run_chaos_storm_with_threads(&cfg, &chaos_spec, 1);

    let mut violations = chaos.audit(true);
    if chaos.tree_fingerprint != oracle.tree_fingerprint {
        violations.push(format!(
            "recovered tree differs from oracle: {:#x} vs {:#x} — a mutation was lost or replayed twice",
            chaos.tree_fingerprint, oracle.tree_fingerprint
        ));
    }
    if chaos.fingerprint != oracle.fingerprint {
        violations.push(format!(
            "op-result fingerprint differs from oracle: {:#x} vs {:#x} — some op observed the crash",
            chaos.fingerprint, oracle.fingerprint
        ));
    }
    if (chaos.ops, chaos.errors) != (oracle.ops, oracle.errors) {
        violations.push(format!(
            "op/error counts differ from oracle: ({}, {}) vs ({}, {})",
            chaos.ops, chaos.errors, oracle.ops, oracle.errors
        ));
    }
    // Prove the scenario exercised what it claims to: a real takeover with
    // a real WAL replay, observed by clients as timeouts they rode out.
    if chaos.counters.get("manager.epochs") == 0 {
        violations.push("manager epoch never advanced — no takeover happened".into());
    }
    if chaos.counters.get("manager.wal_replayed") == 0 {
        violations.push("WAL replayed no entries — dedup state was never rebuilt".into());
    }
    if chaos.counters.get("faults.timeouts") == 0 {
        violations.push("no client ever timed out — the crash window was invisible".into());
    }
    Verdict {
        report: Recovery { chaos, oracle },
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance scenario: NSD crash at 40% + WAN flap at 70%, storm
    /// completes fsck-clean with every client RPC eventually succeeding,
    /// bit-identical across sweep-thread counts.
    #[test]
    fn canonical_chaos_storm_survives_and_is_deterministic() {
        let cfg = StormConfig::small();
        let spec = canonical_chaos(&cfg, SimDuration::from_millis(400));
        let verdict = check_chaos_storm(&cfg, &spec);
        verdict.assert_clean();
        let r = &verdict.report;
        let n = |name| r.counters.get(name);
        assert!(n("faults.injected") >= 2, "faults {}", n("faults.injected"));
        assert!(n("faults.restores") >= 2, "restores {}", n("faults.restores"));
        assert!(
            n("faults.timeouts") > 0,
            "a crash plus a flap should strand at least one in-flight RPC"
        );
        assert_eq!(r.gave_up, 0, "every RPC must eventually succeed");
    }

    /// The path-cache audit catches an entry that outlived its file under
    /// another spelling — what a non-canonical key would leave behind.
    #[test]
    fn world_invariants_flag_a_stale_path_cache_entry() {
        let mut sb = crate::builder::ScenarioBuilder::new(1);
        let fs = sb.nsd_farm("site", crate::builder::NsdFarm::new("meta", 1));
        let mut run = sb.run(simcore::SimTime::ZERO);
        let owner = gfs::Owner::local(0, 0);
        let inst = &mut run.world.fss[fs.0 as usize];
        inst.core.mkdir("/d", owner.clone(), 0).unwrap();
        let old = inst.core.create_file("/d/x", owner.clone(), 0).unwrap();
        inst.mgrs[0].cache_path("/d//x", old);
        assert!(world_invariants(&run.sim, &run.world).is_empty());
        let inst = &mut run.world.fss[fs.0 as usize];
        inst.core.unlink("/d/x").unwrap();
        inst.core.create_file("/d/x", owner, 0).unwrap();
        let v = world_invariants(&run.sim, &run.world);
        assert!(v.len() == 1 && v[0].contains("\"/d//x\""), "{v:?}");
    }

    /// Exactly-once across manager death: kill/restart mid-storm, recover
    /// via WAL replay, end up with the oracle's tree bit-for-bit.
    #[test]
    fn manager_recovery_matches_fault_free_oracle() {
        let v = check_manager_recovery(
            &StormConfig::small(),
            0.5,
            SimDuration::from_millis(600),
        );
        v.assert_clean();
        assert!(v.report.chaos.counters.get("manager.wal_replayed") > 0);
        assert!(v.report.chaos.counters.get("manager.epochs") >= 1);
    }

    /// Kill-one-shard chaos: in a 4-shard partitioned storm, the canonical
    /// schedule's "meta-srv1" crash takes down the shard-1 manager while
    /// shards 0/2/3 keep serving. Cross-shard two-phase ops must defer and
    /// re-drive rather than give up, and the storm stays deterministic.
    #[test]
    fn partitioned_chaos_storm_survives_shard_loss() {
        let cfg = StormConfig::small()
            .with_sessions_per_client(25)
            .with_managers(4);
        let spec = canonical_chaos(&cfg, SimDuration::from_millis(400));
        let verdict = check_chaos_storm(&cfg, &spec);
        verdict.assert_clean();
        let r = &verdict.report;
        assert!(
            r.counters.get("manager.cross_shard_ops") > 0,
            "shard loss must not starve the two-phase rename arm"
        );
        assert_eq!(r.gave_up, 0, "every RPC must eventually succeed");
    }

    /// Exactly-once across the death of a *non-zero* shard's manager: kill
    /// "meta-srv1" (home of shard 1 at `managers = 4`) mid-storm and
    /// demand the recovered tree and op results match the fault-free
    /// oracle bit-for-bit — WAL dedup must hold per shard, not just on the
    /// legacy shard 0.
    #[test]
    fn shard_manager_recovery_matches_fault_free_oracle() {
        let mut cfg = StormConfig::small().with_managers(4);
        // One sequential chain (the check forces one client); more ops so
        // plenty of them route to shard 1 on both sides of the crash.
        cfg.ops_per_client = 96;
        let v = check_manager_recovery_on(&cfg, 0.5, SimDuration::from_millis(600), "meta-srv1");
        v.assert_clean();
        assert!(v.report.chaos.counters.get("manager.wal_replayed") > 0);
        assert!(v.report.chaos.counters.get("manager.epochs") >= 1);
        assert!(v.report.chaos.counters.get("manager.cross_shard_ops") > 0);
    }
}
