//! Deterministic fault injection and recovery accounting.
//!
//! A [`FaultPlan`] is a time-ordered schedule of typed [`FaultEvent`]s —
//! link flaps and degradations in the network, disk failures with RAID
//! rebuild traffic in the storage farm, NSD server crashes/restarts and
//! whole-node partitions in the filesystem world. [`inject`] registers the
//! plan with the discrete-event engine; because every event is scheduled at
//! a fixed [`SimTime`] and all protocol randomness flows from the world's
//! seeded RNG, a rerun with the same seed and plan replays **byte-identical**
//! series — the property the recovery experiments in EXPERIMENTS.md rely on.
//!
//! Recovery is measured, not just modeled: fault application and the client
//! layer's timeout/failover decisions append to [`GfsWorld::recovery`]
//! (a [`RecoveryLog`]), from which time-to-detect and time-to-failover fall
//! out directly, while throughput dip depth/duration come from
//! [`simcore::TimeSeries::dip_below`] over the monitored link series.

use crate::types::{ClientId, FsId};
use crate::world::GfsWorld;
use simcore::{Sim, SimDuration, SimTime};
use simnet::{Network, NodeId};

/// What a single scheduled fault does to the world.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// Take every link matching `link` (duplex names resolve to both
    /// directions) down: flows across it stall, messages on it are lost.
    LinkDown {
        /// Link name as given to the topology builder.
        link: String,
    },
    /// Restore previously downed links; stalled flows resume.
    LinkUp {
        /// Link name.
        link: String,
    },
    /// Scale the capacity of matching links by `factor` in `(0, 1]`.
    LinkDegrade {
        /// Link name.
        link: String,
        /// Multiplicative capacity factor.
        factor: f64,
    },
    /// Crash an NSD server node of filesystem `fs`: its NSDs fail over to
    /// the ring; in-flight and future requests to it are dropped until the
    /// matching [`FaultKind::ServerRestart`].
    ServerCrash {
        /// Filesystem whose server crashes.
        fs: FsId,
        /// Node name of the server.
        server: String,
    },
    /// Bring a crashed NSD server back.
    ServerRestart {
        /// Filesystem.
        fs: FsId,
        /// Node name.
        server: String,
    },
    /// Fail one data spindle of a RAID set in a detailed array; the set
    /// runs degraded (reconstruction reads, throttled foreground service)
    /// until the hot-spare rebuild finishes at `rebuild_rate` bytes/sec.
    DiskFail {
        /// Index into `GfsWorld::arrays`.
        array: usize,
        /// RAID set within the array.
        set: u32,
        /// Data spindle index within the set.
        disk: usize,
        /// Hot-spare rebuild rate, bytes/sec.
        rebuild_rate: f64,
    },
    /// Partition a named node off the network: every link touching it goes
    /// down.
    Partition {
        /// Node name.
        node: String,
    },
    /// Heal a partition: restore every link touching the node.
    Heal {
        /// Node name.
        node: String,
    },
}

/// One scheduled fault.
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// When it strikes.
    pub at: SimTime,
    /// What it does.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, injected once into a simulation.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The schedule; order is irrelevant (the event heap orders by time).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append an arbitrary event.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Link goes down at `at`.
    pub fn link_down(mut self, at: SimTime, link: impl Into<String>) -> Self {
        self.push(at, FaultKind::LinkDown { link: link.into() });
        self
    }

    /// Link comes back at `at`.
    pub fn link_up(mut self, at: SimTime, link: impl Into<String>) -> Self {
        self.push(at, FaultKind::LinkUp { link: link.into() });
        self
    }

    /// Link capacity scales by `factor` at `at`.
    pub fn link_degrade(mut self, at: SimTime, link: impl Into<String>, factor: f64) -> Self {
        self.push(
            at,
            FaultKind::LinkDegrade {
                link: link.into(),
                factor,
            },
        );
        self
    }

    /// A link flap: down at `at`, back up `outage` later.
    pub fn link_flap(self, at: SimTime, link: impl Into<String>, outage: SimDuration) -> Self {
        let link = link.into();
        self.link_down(at, link.clone()).link_up(at + outage, link)
    }

    /// NSD server crash at `at`.
    pub fn server_crash(mut self, at: SimTime, fs: FsId, server: impl Into<String>) -> Self {
        self.push(
            at,
            FaultKind::ServerCrash {
                fs,
                server: server.into(),
            },
        );
        self
    }

    /// NSD server restart at `at`.
    pub fn server_restart(mut self, at: SimTime, fs: FsId, server: impl Into<String>) -> Self {
        self.push(
            at,
            FaultKind::ServerRestart {
                fs,
                server: server.into(),
            },
        );
        self
    }

    /// Spindle failure with rebuild at `at`.
    pub fn disk_fail(
        mut self,
        at: SimTime,
        array: usize,
        set: u32,
        disk: usize,
        rebuild_rate: f64,
    ) -> Self {
        self.push(
            at,
            FaultKind::DiskFail {
                array,
                set,
                disk,
                rebuild_rate,
            },
        );
        self
    }

    /// Partition a node at `at`, heal it `outage` later.
    pub fn partition_for(self, at: SimTime, node: impl Into<String>, outage: SimDuration) -> Self {
        let node = node.into();
        let mut plan = self;
        plan.push(at, FaultKind::Partition { node: node.clone() });
        plan.push(at + outage, FaultKind::Heal { node });
        plan
    }

    /// Earliest scheduled fault, if any.
    pub fn first_at(&self) -> Option<SimTime> {
        self.events.iter().map(|e| e.at).min()
    }
}

/// A fault keyed to workload *progress* rather than wall-clock: it strikes
/// when the driving scenario reports that `at_op` operations have
/// completed ("kill NSD 12 at op 400k"). Progress faults compose with the
/// time-based [`FaultPlan`]; a scenario can carry both.
#[derive(Clone, Debug)]
pub struct ProgressEvent {
    /// Fires once the op counter reaches this value (`0` = before the
    /// first op).
    pub at_op: u64,
    /// What it does.
    pub kind: FaultKind,
    /// When set, the matching restorative fault (link up, server restart,
    /// heal) is scheduled this long after the fault strikes.
    pub heal_after: Option<SimDuration>,
}

/// A deterministic schedule of progress-keyed faults.
#[derive(Clone, Debug, Default)]
pub struct ProgressPlan {
    /// The schedule; [`ProgressInjector`] sorts it by `at_op`.
    pub events: Vec<ProgressEvent>,
}

impl ProgressPlan {
    /// Empty plan.
    pub fn new() -> Self {
        ProgressPlan::default()
    }

    /// No events?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Append an arbitrary progress event.
    pub fn push(&mut self, at_op: u64, kind: FaultKind, heal_after: Option<SimDuration>) -> &mut Self {
        self.events.push(ProgressEvent {
            at_op,
            kind,
            heal_after,
        });
        self
    }

    /// Crash an NSD server once `at_op` ops have completed; restart it
    /// `heal_after` later when given.
    pub fn server_crash_at_op(
        mut self,
        at_op: u64,
        fs: FsId,
        server: impl Into<String>,
        heal_after: Option<SimDuration>,
    ) -> Self {
        self.push(
            at_op,
            FaultKind::ServerCrash {
                fs,
                server: server.into(),
            },
            heal_after,
        );
        self
    }

    /// Take a link down once `at_op` ops have completed, back up `outage`
    /// later.
    pub fn link_flap_at_op(
        mut self,
        at_op: u64,
        link: impl Into<String>,
        outage: SimDuration,
    ) -> Self {
        self.push(
            at_op,
            FaultKind::LinkDown { link: link.into() },
            Some(outage),
        );
        self
    }

    /// Partition a node once `at_op` ops have completed, heal `outage`
    /// later.
    pub fn partition_at_op(
        mut self,
        at_op: u64,
        node: impl Into<String>,
        outage: SimDuration,
    ) -> Self {
        self.push(
            at_op,
            FaultKind::Partition { node: node.into() },
            Some(outage),
        );
        self
    }

    /// Shift every threshold by `delta` ops (scenarios use this to offset
    /// user-facing thresholds past an internal setup phase).
    pub fn offset(mut self, delta: u64) -> Self {
        for ev in &mut self.events {
            ev.at_op += delta;
        }
        self
    }
}

/// The restorative counterpart of a fault, for `heal_after` scheduling.
/// `None` for faults that heal themselves (disk rebuild) or have no
/// restorative twin.
fn restorative_of(kind: &FaultKind) -> Option<FaultKind> {
    match kind {
        FaultKind::LinkDown { link } => Some(FaultKind::LinkUp { link: link.clone() }),
        FaultKind::LinkDegrade { link, .. } => Some(FaultKind::LinkDegrade {
            link: link.clone(),
            factor: 1.0,
        }),
        FaultKind::ServerCrash { fs, server } => Some(FaultKind::ServerRestart {
            fs: *fs,
            server: server.clone(),
        }),
        FaultKind::Partition { node } => Some(FaultKind::Heal { node: node.clone() }),
        FaultKind::LinkUp { .. }
        | FaultKind::ServerRestart { .. }
        | FaultKind::DiskFail { .. }
        | FaultKind::Heal { .. } => None,
    }
}

/// Applies a [`ProgressPlan`] as the driving scenario reports progress.
/// The scenario calls [`ProgressInjector::advance`] with its running op
/// count (typically from each op-completion callback); due events fire in
/// `at_op` order, exactly once, with their restoratives scheduled on the
/// sim clock.
#[derive(Debug)]
pub struct ProgressInjector {
    events: Vec<ProgressEvent>,
    next: usize,
}

impl ProgressInjector {
    /// Build from a plan (sorts a copy of the schedule by `at_op`,
    /// preserving insertion order among equal thresholds).
    pub fn new(plan: &ProgressPlan) -> Self {
        let mut events = plan.events.clone();
        events.sort_by_key(|e| e.at_op);
        ProgressInjector { events, next: 0 }
    }

    /// Fire every not-yet-fired event whose threshold is `<= ops_done`.
    pub fn advance(&mut self, sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ops_done: u64) {
        while self.next < self.events.len() && self.events[self.next].at_op <= ops_done {
            let ev = self.events[self.next].clone();
            self.next += 1;
            apply_fault(sim, w, ev.kind.clone());
            if let Some(outage) = ev.heal_after {
                if let Some(restore) = restorative_of(&ev.kind) {
                    sim.after(outage, move |sim, w| apply_fault(sim, w, restore));
                }
            }
        }
    }

    /// Events fired so far.
    pub fn fired(&self) -> usize {
        self.next
    }

    /// Has every event fired?
    pub fn done(&self) -> bool {
        self.next == self.events.len()
    }
}

/// What happened, for the recovery log.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryWhat {
    /// A fault from the plan was applied (human-readable description).
    FaultInjected(String),
    /// A client request to `server` hit its timeout.
    TimeoutDetected {
        /// The timing-out client.
        client: ClientId,
        /// The unresponsive server node.
        server: NodeId,
    },
    /// A retry resolved to a different server than the one that failed.
    FailedOver {
        /// The recovering client.
        client: ClientId,
        /// Old (failed) server.
        from: NodeId,
        /// New server.
        to: NodeId,
    },
    /// A restorative fault (link up, server restart, heal) was applied.
    Restored(String),
    /// A mount context was expelled because no send of a recall (token
    /// revocation or lease break) reached it for
    /// [`crate::world::ProtocolCosts::lease_break_timeout`]; its leases and
    /// tokens were force-released and its cached pages discarded.
    Expelled {
        /// The unresponsive context.
        client: ClientId,
    },
    /// A previously-expelled context contacted the manager again and was
    /// re-admitted.
    Readmitted {
        /// The returning context.
        client: ClientId,
    },
    /// An expelled context's writeback delegate journal was discarded:
    /// `ops` locally-applied mutations under its revoked leases will never
    /// reconcile with the manager (the shared-disk state already holds
    /// them; only the manager-side records are lost).
    JournalDiscarded {
        /// The expelled context whose journal was dropped.
        client: ClientId,
        /// How many journal entries were discarded.
        ops: u64,
    },
    /// An expelled context discarded dirty pages its filesystem never
    /// received: writes that returned but will never reach the disk. The
    /// next `fsync` or close of each file they belonged to fails once with
    /// [`crate::types::FsError::Timeout`].
    DirtyPagesDiscarded {
        /// The expelled context.
        client: ClientId,
        /// How many dirty pages were dropped.
        pages: u64,
    },
}

/// One timestamped recovery-log entry.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// When.
    pub at: SimTime,
    /// What.
    pub what: RecoveryWhat,
}

/// Append-only world-level log of faults and the reactions to them.
#[derive(Clone, Debug, Default)]
pub struct RecoveryLog {
    /// Entries in simulation-time order.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryLog {
    /// Append an entry.
    pub fn log(&mut self, at: SimTime, what: RecoveryWhat) {
        self.events.push(RecoveryEvent { at, what });
    }

    fn first_fault(&self) -> Option<SimTime> {
        self.events
            .iter()
            .find(|e| matches!(e.what, RecoveryWhat::FaultInjected(_)))
            .map(|e| e.at)
    }

    /// Time from the first injected fault to the first request timeout —
    /// how long the client layer took to notice something was wrong.
    pub fn time_to_detect(&self) -> Option<SimDuration> {
        let fault = self.first_fault()?;
        self.events
            .iter()
            .find(|e| e.at >= fault && matches!(e.what, RecoveryWhat::TimeoutDetected { .. }))
            .map(|e| e.at.since(fault))
    }

    /// Time from the first injected fault to the first successful failover
    /// to a different server.
    pub fn time_to_failover(&self) -> Option<SimDuration> {
        let fault = self.first_fault()?;
        self.events
            .iter()
            .find(|e| e.at >= fault && matches!(e.what, RecoveryWhat::FailedOver { .. }))
            .map(|e| e.at.since(fault))
    }

    /// Count of entries matching a predicate (convenience for assertions).
    pub fn count(&self, f: impl Fn(&RecoveryWhat) -> bool) -> usize {
        self.events.iter().filter(|e| f(&e.what)).count()
    }
}

/// Schedule every event of `plan` into `sim`. Call once, before `run`;
/// injecting the same plan into the same seeded world reproduces identical
/// behaviour.
pub fn inject(sim: &mut Sim<GfsWorld>, plan: &FaultPlan) {
    for ev in &plan.events {
        let kind = ev.kind.clone();
        sim.at(ev.at, move |sim, w| apply_fault(sim, w, kind));
    }
}

fn named_node(w: &GfsWorld, name: &str) -> NodeId {
    w.net
        .topo()
        .find_node(name)
        .unwrap_or_else(|| panic!("fault plan names unknown node {name:?}"))
}

/// Apply one fault to the world right now. [`inject`] and
/// [`ProgressInjector::advance`] both funnel through this; scenarios may
/// also call it directly.
pub fn apply_fault(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, kind: FaultKind) {
    let now = sim.now();
    match kind {
        FaultKind::LinkDown { link } => {
            let ids = w.net.links_named(&link);
            assert!(!ids.is_empty(), "fault plan names unknown link {link:?}");
            for id in ids {
                Network::set_link_up(sim, w, id, false);
            }
            w.recovery
                .log(now, RecoveryWhat::FaultInjected(format!("link {link} down")));
        }
        FaultKind::LinkUp { link } => {
            let ids = w.net.links_named(&link);
            assert!(!ids.is_empty(), "fault plan names unknown link {link:?}");
            for id in ids {
                Network::set_link_up(sim, w, id, true);
            }
            w.recovery
                .log(now, RecoveryWhat::Restored(format!("link {link} up")));
        }
        FaultKind::LinkDegrade { link, factor } => {
            let ids = w.net.links_named(&link);
            assert!(!ids.is_empty(), "fault plan names unknown link {link:?}");
            for id in ids {
                Network::set_link_degraded(sim, w, id, factor);
            }
            w.recovery.log(
                now,
                RecoveryWhat::FaultInjected(format!("link {link} degraded to {factor}")),
            );
        }
        FaultKind::ServerCrash { fs, server } => {
            let node = named_node(w, &server);
            w.fss[fs.0 as usize].fail_server(node);
            w.recovery.log(
                now,
                RecoveryWhat::FaultInjected(format!("NSD server {server} crashed")),
            );
            // Killing an acting namespace manager also starts namespace
            // recovery for every shard it was serving: the shard's dedup
            // table is gone, a takeover is scheduled, and its metadata
            // RPCs are dropped (clients retry) until the WAL has been
            // replayed on the new manager. Other shards keep answering.
            let shards = w.fss[fs.0 as usize].shard_count();
            for shard in 0..shards {
                let hit = {
                    let mgr = &mut w.fss[fs.0 as usize].mgrs[shard as usize];
                    if mgr.acting == node && !mgr.recovering {
                        mgr.crash();
                        true
                    } else {
                        false
                    }
                };
                if hit {
                    w.recovery.log(
                        now,
                        RecoveryWhat::FaultInjected(format!(
                            "namespace manager {server} lost; WAL recovery started"
                        )),
                    );
                    schedule_manager_recovery(sim, w, fs, shard);
                }
            }
        }
        FaultKind::ServerRestart { fs, server } => {
            let node = named_node(w, &server);
            w.fss[fs.0 as usize].restore_server(node);
            w.recovery.log(
                now,
                RecoveryWhat::Restored(format!("NSD server {server} restarted")),
            );
        }
        FaultKind::DiskFail {
            array,
            set,
            disk,
            rebuild_rate,
        } => {
            let done = w.arrays[array].fail_disk(now, set, disk, rebuild_rate);
            w.recovery.log(
                now,
                RecoveryWhat::FaultInjected(format!(
                    "disk {disk} of array {array} set {set} failed (rebuild until {:.1}s)",
                    done.as_secs_f64()
                )),
            );
            // The rebuild's completion is an observable recovery event.
            sim.at(done, move |sim, w| {
                w.recovery.log(
                    sim.now(),
                    RecoveryWhat::Restored(format!("array {array} set {set} rebuild complete")),
                );
            });
        }
        FaultKind::Partition { node } => {
            let id = named_node(w, &node);
            for l in w.net.links_touching(id) {
                Network::set_link_up(sim, w, l, false);
            }
            w.recovery.log(
                now,
                RecoveryWhat::FaultInjected(format!("node {node} partitioned")),
            );
        }
        FaultKind::Heal { node } => {
            let id = named_node(w, &node);
            for l in w.net.links_touching(id) {
                Network::set_link_up(sim, w, l, true);
            }
            w.recovery
                .log(now, RecoveryWhat::Restored(format!("node {node} healed")));
        }
    }
}

/// Schedule the end of one shard's namespace-manager recovery: a fixed
/// takeover cost plus a per-WAL-entry replay charge.
fn schedule_manager_recovery(sim: &mut Sim<GfsWorld>, w: &GfsWorld, fs: FsId, shard: u32) {
    let inst = &w.fss[fs.0 as usize];
    let delay = SimDuration::from_secs_f64(
        w.costs.manager_recovery_base.as_secs_f64()
            + w.costs.manager_replay_per_op.as_secs_f64()
                * inst.mgrs[shard as usize].wal_len() as f64,
    );
    sim.after(delay, move |sim, w| {
        finish_manager_recovery(sim, w, fs, shard)
    });
}

/// Recovery timer fired: hand the shard to the first healthy server in
/// the ring. With every server still down, probe again after the base
/// takeover delay (a restart will eventually supply a candidate).
fn finish_manager_recovery(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, fs: FsId, shard: u32) {
    let inst = &mut w.fss[fs.0 as usize];
    if !inst.mgrs[shard as usize].recovering {
        return;
    }
    let Some(candidate) = inst.manager_candidate(shard) else {
        let delay = w.costs.manager_recovery_base;
        sim.after(delay, move |sim, w| {
            finish_manager_recovery(sim, w, fs, shard)
        });
        return;
    };
    let replayed = inst.mgrs[shard as usize].recover(candidate);
    let epoch = inst.mgrs[shard as usize].epoch;
    w.recovery.log(
        sim.now(),
        RecoveryWhat::Restored(format!(
            "namespace manager recovered (epoch {epoch}, replayed {replayed} ops)"
        )),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fscore::FsConfig;
    use crate::world::{FsParams, WorldBuilder};
    use simcore::{Bandwidth, MBYTE};
    use simnet::FlowSpec;
    use std::cell::Cell;
    use std::rc::Rc;

    fn world() -> (Sim<GfsWorld>, GfsWorld, NodeId, NodeId) {
        let mut b = WorldBuilder::new(9);
        b.key_bits(384);
        let a = b.topo().node("a");
        let s = b.topo().node("srv");
        b.topo().duplex_link(
            a,
            s,
            Bandwidth::mbyte(100.0),
            SimDuration::from_millis(1),
            "lan",
        );
        let cl = b.cluster("c");
        b.filesystem(
            cl,
            FsParams::ideal(
                FsConfig::small_test("f"),
                s,
                vec![s],
                Bandwidth::mbyte(500.0),
                SimDuration::from_micros(100),
            ),
        );
        let (sim, w) = b.build();
        (sim, w, a, s)
    }

    #[test]
    fn plan_builder_orders_and_counts() {
        let plan = FaultPlan::new()
            .link_flap(SimTime::from_secs(2), "lan", SimDuration::from_secs(1))
            .server_crash(SimTime::from_secs(1), FsId(0), "srv");
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.first_at(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn link_flap_stalls_and_resumes_flow() {
        let (mut sim, mut w, a, s) = world();
        // 100 MB at 100 MB/s = 1 s healthy; a 0.5 s outage inserts a stall.
        let fin = Rc::new(Cell::new(0u64));
        let f2 = fin.clone();
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, s, 100 * MBYTE),
            move |sim, _w| f2.set(sim.now().as_nanos()),
        );
        let plan = FaultPlan::new().link_flap(
            SimTime::from_millis(200),
            "lan",
            SimDuration::from_millis(500),
        );
        inject(&mut sim, &plan);
        sim.run(&mut w);
        let t = fin.get() as f64 / 1e9;
        assert!(
            (1.45..1.6).contains(&t),
            "flow with 0.5s outage finished at {t}s"
        );
        assert_eq!(
            w.recovery
                .count(|e| matches!(e, RecoveryWhat::FaultInjected(_))),
            1
        );
        assert_eq!(w.recovery.count(|e| matches!(e, RecoveryWhat::Restored(_))), 1);
    }

    #[test]
    fn server_crash_marks_down_and_restart_clears() {
        let (mut sim, mut w, _a, s) = world();
        let plan = FaultPlan::new()
            .server_crash(SimTime::from_secs(1), FsId(0), "srv")
            .server_restart(SimTime::from_secs(2), FsId(0), "srv");
        inject(&mut sim, &plan);
        sim.at(SimTime::from_millis(1500), move |_s, w: &mut GfsWorld| {
            assert!(w.fss[0].down_servers.contains(&s));
            assert!(w.fss[0].try_server_of(crate::types::NsdId(0)).is_none());
        });
        sim.run(&mut w);
        assert!(w.fss[0].down_servers.is_empty());
    }

    #[test]
    fn partition_downs_all_adjacent_links_and_heals() {
        let (mut sim, mut w, _a, _s) = world();
        let plan = FaultPlan::new().partition_for(
            SimTime::from_secs(1),
            "srv",
            SimDuration::from_secs(1),
        );
        inject(&mut sim, &plan);
        sim.at(SimTime::from_millis(1500), |_s, w: &mut GfsWorld| {
            let links = w.net.links_named("lan");
            for l in links {
                assert!(!w.net.link_is_up(l), "adjacent link still up in partition");
            }
        });
        sim.run(&mut w);
        for l in w.net.links_named("lan") {
            assert!(w.net.link_is_up(l), "link not healed");
        }
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn unknown_link_rejected() {
        let (mut sim, mut w, ..) = world();
        let plan = FaultPlan::new().link_down(SimTime::from_secs(1), "no-such-link");
        inject(&mut sim, &plan);
        sim.run(&mut w);
    }

    #[test]
    fn recovery_log_metrics() {
        let mut log = RecoveryLog::default();
        log.log(
            SimTime::from_secs(10),
            RecoveryWhat::FaultInjected("x".into()),
        );
        log.log(
            SimTime::from_millis(11_500),
            RecoveryWhat::TimeoutDetected {
                client: ClientId(0),
                server: NodeId(1),
            },
        );
        log.log(
            SimTime::from_secs(12),
            RecoveryWhat::FailedOver {
                client: ClientId(0),
                from: NodeId(1),
                to: NodeId(2),
            },
        );
        assert_eq!(log.time_to_detect(), Some(SimDuration::from_millis(1500)));
        assert_eq!(log.time_to_failover(), Some(SimDuration::from_secs(2)));
    }
}
