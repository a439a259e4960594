//! The fluid flow engine: long-lived bulk transfers over a routed topology,
//! re-solved to max-min fair rates whenever the active flow set changes.
//!
//! ## Model
//!
//! * A **flow** is `bytes` of bulk data from `src` to `dst`, optionally
//!   window-capped (`window / RTT`, the TCP bandwidth-delay-product limit).
//!   Rates come from [`crate::fairshare::Solver`].
//! * **Settling** advances every flow's remaining-byte count to the current
//!   instant at its last-computed rate. The engine settles before any state
//!   change, so rates are piecewise-constant and exact.
//! * Rates are re-solved **incrementally**: mutations mark the links they
//!   touch dirty, all same-instant changes coalesce into a single
//!   end-of-instant solve of just the affected connected components, and an
//!   add/remove whose path crosses only unsaturated clean links skips the
//!   solver entirely. Because components are arithmetically independent and
//!   the solver freezes constraints with exact comparisons, the incremental
//!   rates are bit-for-bit identical to a global re-solve.
//! * Routes are **memoized** per (src, dst) on first use, and flows share
//!   the memoized links. Active flows sit in one vector in flow-id order,
//!   so a flow start or drain costs a few linear scans of it plus one
//!   link-indexed fill of the dirty components.
//! * The single pending completion event is a **cancellable timer**
//!   ([`simcore::TimerId`]), re-registered whenever the earliest drain time
//!   moves — replacing the classic stale-epoch guard and keeping the event
//!   heap free of dead closures.
//! * **Messages** are control-plane RPCs: they experience path latency,
//!   serialization at path capacity and a fixed software overhead, but do
//!   not consume modeled bandwidth (GPFS daemon traffic is negligible next
//!   to NSD bulk data).
//! * **Monitoring** takes a bandwidth sample per link and per flow-tag every
//!   window — the same view SciNet's monitors gave the paper's authors —
//!   and optionally re-draws jittered link capacities each tick.

use crate::fairshare::{FlatFlow, Solver};
use crate::topology::{LinkId, NodeId, Topology};
use rand::rngs::StdRng;
use simcore::fxhash::FxHashMap;
use simcore::{det_rng, Action, RateSeries, Sim, SimDuration, SimTime, TimeSeries, TimerId};
use std::collections::BTreeMap;

/// Worlds that embed a [`Network`] keyed to themselves.
pub trait NetWorld: Sized + 'static {
    /// Access the embedded network.
    fn net(&mut self) -> &mut Network<Self>;
}

/// Identifies an active flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// Parameters of a new flow.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload size in bytes (must be > 0).
    pub bytes: u64,
    /// Optional TCP-style window in bytes; caps the flow at `window / RTT`.
    pub window: Option<u64>,
    /// Accounting tag; monitored flows aggregate per tag (e.g. read vs
    /// write, or per remote site).
    pub tag: u32,
}

impl FlowSpec {
    /// Unwindowed, untagged bulk flow.
    pub fn bulk(src: NodeId, dst: NodeId, bytes: u64) -> Self {
        FlowSpec {
            src,
            dst,
            bytes,
            window: None,
            tag: 0,
        }
    }

    /// Set the window.
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = Some(window);
        self
    }

    /// Set the accounting tag.
    pub fn with_tag(mut self, tag: u32) -> Self {
        self.tag = tag;
        self
    }
}

/// Rates above this are treated as "instantaneous" to avoid `inf * 0` NaNs.
const RATE_CLAMP: f64 = 1e15;
/// A flow with fewer remaining bytes than this is drained.
const DRAIN_EPS: f64 = 1.0;
/// Relative headroom a fast-path flow add must leave on every link it
/// crosses. The margin absorbs float drift in the incrementally maintained
/// link loads; an add that cannot clear it falls back to the exact solver.
const FAST_ADD_MARGIN: f64 = 1e-6;

/// Runtime health of one directed link, mutated by fault injection.
#[derive(Clone, Copy, Debug)]
struct LinkHealth {
    /// A down link carries no flow bytes and drops control messages.
    up: bool,
    /// Multiplicative capacity factor in (0, 1]; models partial degradation
    /// (e.g. a lambda dropping from 10 Gb/s to a protected 2.5 Gb/s path).
    degrade: f64,
}

/// A run of [`RouteMemo::links`]: one memoized route's links, in order.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn of(self, links: &[u32]) -> &[u32] {
        &links[self.start as usize..][..self.len as usize]
    }
}

/// One memoized shortest path and the fixed properties derived from it.
#[derive(Clone, Copy, Debug)]
struct Route {
    links: Span,
    /// One-way propagation delay ([`Topology::path_delay`]).
    delay: SimDuration,
    /// Nominal bottleneck capacity ([`Topology::path_capacity`]).
    capacity: f64,
}

/// [`Topology::route`] memoized per (src, dst), filled on first use. The
/// topology is immutable, so an entry never goes stale; link health is
/// runtime state and callers check it on every use.
#[derive(Default)]
struct RouteMemo {
    /// `None` memoizes "unreachable".
    by_pair: FxHashMap<(u32, u32), Option<Route>>,
    /// Every memoized route's links, back to back. Flows refer to their
    /// route's run instead of holding a copy.
    links: Vec<u32>,
}

impl RouteMemo {
    fn get(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Route> {
        let links = &mut self.links;
        *self.by_pair.entry((src.0, dst.0)).or_insert_with(|| {
            let path = topo.route(src, dst)?;
            let start = links.len() as u32;
            links.extend(path.iter().map(|l| l.0));
            Some(Route {
                links: Span {
                    start,
                    len: path.len() as u32,
                },
                delay: topo.path_delay(&path),
                capacity: topo.path_capacity(&path),
            })
        })
    }
}

struct FlowState<W> {
    id: u64,
    path: Span,
    cap: f64,
    remaining: f64,
    rate: f64,
    tag: u32,
    delivery_delay: SimDuration,
    on_complete: Option<Action<W>>,
}

/// Links a mutation touched since the last solve.
struct DirtyLinks {
    flag: Vec<bool>,
    list: Vec<u32>,
}

impl DirtyLinks {
    /// Mark one link as needing a re-solve.
    fn mark(&mut self, l: u32) {
        if !self.flag[l as usize] {
            self.flag[l as usize] = true;
            self.list.push(l);
        }
    }
}

struct Monitor {
    window: SimDuration,
    link_series: Vec<RateSeries>,
    tag_series: BTreeMap<u32, RateSeries>,
    tag_names: BTreeMap<u32, String>,
    enabled_links: Vec<bool>,
}

/// The flow-level network simulator. Embed one in your world and implement
/// [`NetWorld`]; drive it through the associated functions that take
/// `(&mut Sim<W>, &mut W)`.
pub struct Network<W> {
    topo: Topology,
    effective_capacity: Vec<f64>,
    health: Vec<LinkHealth>,
    routes: RouteMemo,
    /// Active flows in ascending id order: ids only grow, so a start
    /// appends, and every scan visits flows in the order a global solve
    /// would.
    flows: Vec<FlowState<W>>,
    next_id: u64,
    last_settle: SimTime,
    monitor: Option<Monitor>,
    rng: StdRng,
    /// Fixed software/NIC overhead added to every control message.
    pub msg_overhead: SimDuration,
    total_delivered: f64,

    // ---- incremental-solve state ----
    solver: Solver,
    /// Per-link sum of stored rates of crossing flows. Maintained
    /// incrementally on fast-path adds/removes; rebuilt exactly for every
    /// solver-touched link after a solve.
    link_load: Vec<f64>,
    /// Per-link count of crossing flows.
    link_active: Vec<u32>,
    /// Per-link saturation flag from the last solve that touched the link.
    link_saturated: Vec<bool>,
    dirty: DirtyLinks,
    /// Whether an end-of-instant solve event is already queued.
    solve_scheduled: bool,
    /// The single pending completion timer, if any.
    tick_timer: Option<TimerId>,
    /// Solver runs, and the flows they re-solved in total.
    solves: u64,
    solved_flows: u64,

    // ---- reusable scratch (no per-call allocation once warmed up) ----
    /// Flows to re-solve as (component root, index into `flows`).
    rc_flows: Vec<(u32, u32)>,
    rc_meta: Vec<FlatFlow>,
    rc_ends: Vec<u32>,
    rc_rates: Vec<f64>,
    nw_uf: Vec<u32>,
    nw_seen: Vec<bool>,
    nw_touched: Vec<u32>,
    nw_root_dirty: Vec<bool>,
    nw_dirty_roots: Vec<u32>,
    drained: Vec<(SimDuration, Action<W>)>,
}

/// Path-halving union-find lookup over a parent array.
fn uf_find(parent: &mut [u32], mut l: u32) -> u32 {
    while parent[l as usize] != l {
        let p = parent[l as usize];
        parent[l as usize] = parent[p as usize];
        l = parent[l as usize];
    }
    l
}

impl<W: NetWorld> Network<W> {
    /// Wrap a topology. `seed` drives link-capacity jitter only.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let nl = topo.link_count();
        let caps: Vec<f64> = topo.links().iter().map(|l| l.capacity).collect();
        let health = vec![
            LinkHealth {
                up: true,
                degrade: 1.0
            };
            nl
        ];
        Network {
            topo,
            effective_capacity: caps,
            health,
            routes: RouteMemo::default(),
            flows: Vec::new(),
            next_id: 0,
            last_settle: SimTime::ZERO,
            monitor: None,
            rng: det_rng(seed, "simnet"),
            msg_overhead: SimDuration::from_micros(30),
            total_delivered: 0.0,
            solver: Solver::new(),
            link_load: vec![0.0; nl],
            link_active: vec![0; nl],
            link_saturated: vec![false; nl],
            dirty: DirtyLinks {
                flag: vec![false; nl],
                list: Vec::new(),
            },
            solve_scheduled: false,
            tick_timer: None,
            solves: 0,
            solved_flows: 0,
            rc_flows: Vec::new(),
            rc_meta: Vec::new(),
            rc_ends: Vec::new(),
            rc_rates: Vec::new(),
            nw_uf: vec![0; nl],
            nw_seen: vec![false; nl],
            nw_touched: Vec::new(),
            nw_root_dirty: vec![false; nl],
            nw_dirty_roots: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// The underlying topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Solver runs so far, and the flows they re-solved in total (a flow
    /// counts once per solve it takes part in). Fast-path adds and removes
    /// run no solve.
    pub fn solve_stats(&self) -> (u64, u64) {
        (self.solves, self.solved_flows)
    }

    /// Total bytes fully drained from all flows so far.
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered as u64
    }

    /// Position of an active flow in `flows`.
    fn flow_index(&self, id: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&id.0, |f| f.id).ok()
    }

    /// Current rate of a flow in bytes/sec, if active.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.flow_index(id).map(|i| self.flows[i].rate)
    }

    /// Remaining bytes of a flow, if active.
    pub fn flow_remaining(&self, id: FlowId) -> Option<u64> {
        self.flow_index(id)
            .map(|i| self.flows[i].remaining.max(0.0) as u64)
    }

    /// Sum of active flow rates crossing a link (bytes/sec).
    pub fn link_throughput(&self, link: LinkId) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.path.of(&self.routes.links).contains(&link.0))
            .map(|f| f.rate)
            .sum()
    }

    /// The memoized route from `src` to `dst`.
    fn route(&mut self, src: NodeId, dst: NodeId) -> Option<Route> {
        self.routes.get(&self.topo, src, dst)
    }

    /// Round-trip propagation time between two nodes (twice the one-way
    /// shortest-path delay plus two message overheads).
    pub fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        let fwd = self
            .topo
            .route(a, b)
            .map(|p| self.topo.path_delay(&p))
            .unwrap_or(SimDuration::MAX);
        let back = self
            .topo
            .route(b, a)
            .map(|p| self.topo.path_delay(&p))
            .unwrap_or(SimDuration::MAX);
        fwd + back + self.msg_overhead * 2
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Whether a link is currently up.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.health[link.0 as usize].up
    }

    /// Current degradation factor of a link (1.0 = full capacity).
    pub fn link_degrade(&self, link: LinkId) -> f64 {
        self.health[link.0 as usize].degrade
    }

    /// All directed links whose name matches `name` exactly, or is a duplex
    /// half of it (`"{name}>"` / `"{name}<"`). Fault plans address links by
    /// the topology-builder name, which covers both directions at once.
    pub fn links_named(&self, name: &str) -> Vec<LinkId> {
        let fwd = format!("{name}>");
        let rev = format!("{name}<");
        self.topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.name == name || l.name == fwd || l.name == rev)
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }

    /// Every directed link with an endpoint at `node` — the set to take
    /// down to partition the node off the network.
    pub fn links_touching(&self, node: NodeId) -> Vec<LinkId> {
        self.topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.from == node || l.to == node)
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }

    /// Take a link down or bring it back up. While down the link carries no
    /// flow bytes (flows routed across it stall at rate zero and resume on
    /// restore) and control messages crossing it are silently lost — the
    /// client-side timeout/retry machinery is responsible for recovery.
    pub fn set_link_up(sim: &mut Sim<W>, w: &mut W, link: LinkId, up: bool) {
        let now = sim.now();
        {
            let net = w.net();
            net.settle(now);
            net.health[link.0 as usize].up = up;
            net.refresh_capacity(link.0 as usize);
            net.dirty.mark(link.0);
        }
        Self::schedule_solve(sim, w);
    }

    /// Degrade (or restore) a link to `factor` × nominal capacity,
    /// `0 < factor <= 1`. Independent of up/down state.
    pub fn set_link_degraded(sim: &mut Sim<W>, w: &mut W, link: LinkId, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degrade factor {factor} outside (0, 1]; use set_link_up for outages"
        );
        let now = sim.now();
        {
            let net = w.net();
            net.settle(now);
            net.health[link.0 as usize].degrade = factor;
            net.refresh_capacity(link.0 as usize);
            net.dirty.mark(link.0);
        }
        Self::schedule_solve(sim, w);
    }

    /// Nominal capacity of link `i` after health (down/degrade) is applied;
    /// jitter is layered on top of this at monitor ticks.
    fn base_capacity(&self, i: usize) -> f64 {
        let h = self.health[i];
        if h.up {
            self.topo.links()[i].capacity * h.degrade
        } else {
            0.0
        }
    }

    fn refresh_capacity(&mut self, i: usize) {
        self.effective_capacity[i] = self.base_capacity(i);
    }

    // ------------------------------------------------------------------
    // Flow lifecycle
    // ------------------------------------------------------------------

    /// Start a bulk flow; `on_complete` fires when the final byte arrives at
    /// the destination.
    pub fn start_flow(
        sim: &mut Sim<W>,
        w: &mut W,
        spec: FlowSpec,
        on_complete: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> FlowId {
        assert!(spec.bytes > 0, "flows must carry at least one byte");
        let now = sim.now();
        let (id, needs_solve) = {
            let net = w.net();
            net.settle(now);
            let route = net
                .route(spec.src, spec.dst)
                .unwrap_or_else(|| panic!("no route {:?} -> {:?}", spec.src, spec.dst));
            let delivery_delay = route.delay;
            let rtt = {
                // Window cap uses the full round trip as TCP would see it.
                let back = net
                    .route(spec.dst, spec.src)
                    .map_or(delivery_delay, |r| r.delay);
                delivery_delay + back
            };
            let cap = match spec.window {
                Some(wnd) => {
                    let rtt_s = rtt.as_secs_f64().max(1e-9);
                    wnd as f64 / rtt_s
                }
                None => f64::INFINITY,
            };
            let id = net.next_id;
            net.next_id += 1;
            let path = route.links.of(&net.routes.links);

            // Fast path: a cap-limited flow that fits (with margin) under
            // every link it crosses, none of which is saturated or pending a
            // re-solve, is cap-frozen by the solver with every other rate
            // unchanged — so the solve can be skipped outright. Empty-path
            // flows solve trivially. Everything else marks its path dirty
            // and joins the end-of-instant batch solve.
            let mut rate = 0.0;
            let mut needs = false;
            if path.is_empty() {
                rate = cap.min(RATE_CLAMP);
            } else {
                let fast = cap.is_finite()
                    && path.iter().all(|&l| {
                        let li = l as usize;
                        let c = net.effective_capacity[li];
                        !net.link_saturated[li]
                            && !net.dirty.flag[li]
                            && net.link_load[li] + cap <= c - FAST_ADD_MARGIN * c
                    });
                for &l in path {
                    net.link_active[l as usize] += 1;
                }
                if fast {
                    rate = cap.min(RATE_CLAMP);
                    for &l in path {
                        net.link_load[l as usize] += rate;
                    }
                } else {
                    for &l in path {
                        net.dirty.mark(l);
                    }
                    needs = true;
                }
            }
            net.flows.push(FlowState {
                id,
                path: route.links,
                cap,
                remaining: spec.bytes as f64,
                rate,
                tag: spec.tag,
                delivery_delay,
                on_complete: Some(Box::new(on_complete)),
            });
            (id, needs)
        };
        if needs_solve {
            Self::schedule_solve(sim, w);
        } else {
            Self::reschedule_tick(sim, w);
        }
        FlowId(id)
    }

    /// Add bytes to an active flow (used by streaming layers to keep a
    /// connection's flow alive across successive requests). Returns false if
    /// the flow already drained.
    pub fn extend_flow(sim: &mut Sim<W>, w: &mut W, id: FlowId, extra: u64) -> bool {
        let now = sim.now();
        let ok = {
            let net = w.net();
            net.settle(now);
            match net.flow_index(id) {
                Some(i) => {
                    net.flows[i].remaining += extra as f64;
                    true
                }
                None => false,
            }
        };
        if ok {
            Self::reschedule_tick(sim, w);
        }
        ok
    }

    /// Cancel a flow, dropping its completion callback. Returns remaining
    /// bytes, or `None` if it had already drained.
    pub fn cancel_flow(sim: &mut Sim<W>, w: &mut W, id: FlowId) -> Option<u64> {
        let now = sim.now();
        let (remaining, needs_solve) = {
            let net = w.net();
            net.settle(now);
            let f = net.flows.remove(net.flow_index(id)?);
            let needs = net.note_removed(&f);
            (f.remaining.max(0.0) as u64, needs)
        };
        if needs_solve {
            Self::schedule_solve(sim, w);
        } else {
            Self::reschedule_tick(sim, w);
        }
        Some(remaining)
    }

    /// Cancel every active flow carrying `tag`, dropping their completion
    /// callbacks. Returns how many flows were cancelled. Used by phased
    /// workloads that replace one traffic pattern with another.
    pub fn cancel_tagged(sim: &mut Sim<W>, w: &mut W, tag: u32) -> usize {
        let now = sim.now();
        let (n, needs_solve) = {
            let net = w.net();
            net.settle(now);
            let mut flows = std::mem::take(&mut net.flows);
            let (mut n, mut needs) = (0, false);
            flows.retain(|f| {
                if f.tag != tag {
                    return true;
                }
                n += 1;
                needs |= net.note_removed(f);
                false
            });
            net.flows = flows;
            (n, needs)
        };
        if n > 0 {
            if needs_solve {
                Self::schedule_solve(sim, w);
            } else {
                Self::reschedule_tick(sim, w);
            }
        }
        n
    }

    /// Deliver a control-plane message: latency + serialization + fixed
    /// overhead, no bandwidth consumption. If any link on the route is
    /// currently down (fault injection) the message is silently lost and
    /// `false` is returned — exactly the failure a request timeout guards
    /// against. Panics only when no route exists in the topology at all.
    pub fn send_msg(
        sim: &mut Sim<W>,
        w: &mut W,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        on_deliver: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> bool {
        let net = w.net();
        let route = net
            .route(src, dst)
            .unwrap_or_else(|| panic!("no route {src:?} -> {dst:?}"));
        // Health is runtime state: checked on every message, never memoized.
        let live = route
            .links
            .of(&net.routes.links)
            .iter()
            .all(|&l| net.health[l as usize].up);
        if !live {
            return false;
        }
        let mut delay = route.delay + net.msg_overhead;
        let cap = route.capacity;
        if cap.is_finite() && cap > 0.0 {
            delay += SimDuration::from_secs_f64(bytes as f64 / cap);
        }
        sim.after(delay, on_deliver);
        true
    }

    // ------------------------------------------------------------------
    // Monitoring
    // ------------------------------------------------------------------

    /// Begin periodic monitoring with the given sampling window. Monitored
    /// links produce one bandwidth sample per window; links with a nonzero
    /// `jitter_frac` also re-draw their effective capacity each tick.
    pub fn enable_monitoring(sim: &mut Sim<W>, w: &mut W, window: SimDuration) {
        {
            let net = w.net();
            assert!(net.monitor.is_none(), "monitoring already enabled");
            let nl = net.topo.link_count();
            let link_series = net
                .topo
                .links()
                .iter()
                .map(|l| RateSeries::new(l.name.clone(), window))
                .collect();
            net.monitor = Some(Monitor {
                window,
                link_series,
                tag_series: BTreeMap::new(),
                tag_names: BTreeMap::new(),
                enabled_links: vec![true; nl],
            });
        }
        Self::monitor_tick(sim, w);
    }

    /// Give a tag a display name; flows with this tag get their own series.
    pub fn register_tag(&mut self, tag: u32, name: impl Into<String>) {
        let name = name.into();
        if let Some(m) = &mut self.monitor {
            m.tag_names.insert(tag, name.clone());
            m.tag_series
                .entry(tag)
                .or_insert_with(|| RateSeries::new(name, m.window));
        }
    }

    fn monitor_tick(sim: &mut Sim<W>, w: &mut W) {
        let now = sim.now();
        let (window, any_jitter) = {
            let net = w.net();
            net.settle(now);
            let Some(m) = &net.monitor else { return };
            let window = m.window;
            // Re-draw jittered link capacities, if any links request it.
            // Jitter layers on top of fault state (down stays zero).
            let mut any_jitter = false;
            for i in 0..net.topo.link_count() {
                if net.topo.links()[i].jitter_frac > 0.0 {
                    let frac = net.topo.links()[i].jitter_frac;
                    net.effective_capacity[i] =
                        net.base_capacity(i) * simcore::rng::jitter(&mut net.rng, frac);
                    net.dirty.mark(i as u32);
                    any_jitter = true;
                }
            }
            (window, any_jitter)
        };
        if any_jitter {
            Self::schedule_solve(sim, w);
        } else {
            Self::reschedule_tick(sim, w);
        }
        sim.after(window, |sim, w| Self::monitor_tick(sim, w));
    }

    /// Stop monitoring and return all per-link and per-tag series
    /// (bytes/sec samples). Links carry their topology names.
    pub fn finish_monitoring(&mut self, t: SimTime) -> Vec<TimeSeries> {
        self.settle(t);
        let Some(m) = self.monitor.take() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (i, rs) in m.link_series.into_iter().enumerate() {
            if m.enabled_links[i] {
                out.push(rs.finish(t));
            }
        }
        for (_tag, rs) in m.tag_series {
            out.push(rs.finish(t));
        }
        out
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Advance all flows to `now` at their current rates, crediting monitor
    /// accumulators.
    fn settle(&mut self, now: SimTime) {
        let dt = now.since(self.last_settle).as_secs_f64();
        self.last_settle = now;
        if dt <= 0.0 || self.flows.is_empty() {
            return;
        }
        // Bytes accrued over (last_settle, now]; record them just inside
        // the interval so a settle landing exactly on a monitoring-window
        // boundary credits the window the bytes were earned in, not the
        // next one.
        let t_rec = SimTime::from_nanos(now.as_nanos().saturating_sub(1));
        for f in &mut self.flows {
            let moved = (f.rate * dt).min(f.remaining);
            f.remaining -= moved;
            self.total_delivered += moved;
            if moved > 0.0 {
                if let Some(m) = &mut self.monitor {
                    let b = moved as u64;
                    for &l in f.path.of(&self.routes.links) {
                        m.link_series[l as usize].record(t_rec, b);
                    }
                    if let Some(ts) = m.tag_series.get_mut(&f.tag) {
                        ts.record(t_rec, b);
                    }
                }
            }
        }
    }

    /// Per-link bookkeeping for a removed flow. Returns whether a re-solve
    /// is needed: a flow leaving a path of clean, unsaturated links cannot
    /// change any other flow's rate (its own rate was cap-frozen below every
    /// link's fill level), so the solver is skipped; otherwise its path is
    /// marked dirty.
    fn note_removed(&mut self, f: &FlowState<W>) -> bool {
        let path = f.path.of(&self.routes.links);
        let mut fast = true;
        for &l in path {
            let li = l as usize;
            self.link_active[li] -= 1;
            self.link_load[li] -= f.rate;
            if self.link_active[li] == 0 {
                // Last flow off the link: its state is trivially clean.
                self.link_load[li] = 0.0;
                self.link_saturated[li] = false;
            }
            if self.link_saturated[li] || self.dirty.flag[li] {
                fast = false;
            }
        }
        if !fast {
            for &l in path {
                self.dirty.mark(l);
            }
        }
        !fast
    }

    /// Queue the end-of-instant batch solve, once per instant. All mutations
    /// at the same `SimTime` coalesce into this single event; since rates
    /// only matter over strictly positive spans of simulated time, deferring
    /// the solve to the end of the instant is exact.
    fn schedule_solve(sim: &mut Sim<W>, w: &mut W) {
        {
            let net = w.net();
            if net.solve_scheduled {
                return;
            }
            net.solve_scheduled = true;
        }
        sim.immediately(|sim, w| {
            let now = sim.now();
            {
                let net = w.net();
                net.solve_scheduled = false;
                net.settle(now);
                net.recompute_dirty();
            }
            Self::reschedule_tick(sim, w);
        });
    }

    /// Re-solve exactly the connected components (flows joined transitively
    /// by shared links) reachable from a dirty link. Component independence
    /// makes the result bit-for-bit identical to a global re-solve.
    fn recompute_dirty(&mut self) {
        if self.dirty.list.is_empty() {
            return;
        }
        let links = &self.routes.links;
        // Union-find over every active flow's path, so dirty links resolve
        // to component roots. This is the solve's only component search:
        // the solver gets the components grouped.
        let uf = &mut self.nw_uf;
        for f in &self.flows {
            let path = f.path.of(links);
            for &l in path {
                let li = l as usize;
                if !self.nw_seen[li] {
                    self.nw_seen[li] = true;
                    uf[li] = l;
                    self.nw_touched.push(l);
                }
            }
            if let Some((&first, rest)) = path.split_first() {
                let mut root = uf_find(uf, first);
                for &l in rest {
                    let r = uf_find(uf, l);
                    if r != root {
                        // Deterministic union: smaller root wins.
                        let (lo, hi) = if r < root { (r, root) } else { (root, r) };
                        uf[hi as usize] = lo;
                        root = lo;
                    }
                }
            }
        }
        // Resolve dirty links to dirty component roots. A dirty link no flow
        // crosses has nothing to solve; reset its state directly.
        for &l in &self.dirty.list {
            let li = l as usize;
            if self.nw_seen[li] {
                let root = uf_find(uf, l);
                if !self.nw_root_dirty[root as usize] {
                    self.nw_root_dirty[root as usize] = true;
                    self.nw_dirty_roots.push(root);
                }
            } else {
                self.link_load[li] = 0.0;
                self.link_saturated[li] = false;
            }
        }
        // Collect the affected flows in flow-id order, each with its root,
        // then group them by component (stable, so flow-id order holds
        // within each; one dirty component is already grouped).
        self.rc_flows.clear();
        for (k, f) in self.flows.iter().enumerate() {
            let Some(&first) = f.path.of(links).first() else {
                continue;
            };
            let root = uf_find(uf, first);
            if self.nw_root_dirty[root as usize] {
                self.rc_flows.push((root, k as u32));
            }
        }
        if self.nw_dirty_roots.len() > 1 {
            self.rc_flows.sort_by_key(|&(root, _)| root);
        }
        self.rc_meta.clear();
        self.rc_ends.clear();
        for (k, &(root, i)) in self.rc_flows.iter().enumerate() {
            if k > 0 && self.rc_flows[k - 1].0 != root {
                self.rc_ends.push(k as u32);
            }
            let f = &self.flows[i as usize];
            self.rc_meta.push(FlatFlow {
                start: f.path.start,
                len: f.path.len,
                cap: f.cap,
            });
        }

        if !self.rc_flows.is_empty() {
            self.solves += 1;
            self.solved_flows += self.rc_flows.len() as u64;
            self.rc_ends.push(self.rc_flows.len() as u32);
            self.solver.solve_grouped(
                &self.effective_capacity,
                links,
                &self.rc_meta,
                &self.rc_ends,
                &mut self.rc_rates,
            );
            // Solver-touched links get exact state: zeroed load re-accrued
            // from the freshly solved rates, and fresh saturation flags.
            for &l in self.solver.touched_links() {
                let li = l as usize;
                self.link_load[li] = 0.0;
                self.link_saturated[li] = self.solver.link_saturated(l);
            }
            // Components share no link, so each link accrues its flows'
            // rates in flow-id order, as a global solve's write-back would.
            for (&(_, i), &rate) in self.rc_flows.iter().zip(&self.rc_rates) {
                let f = &mut self.flows[i as usize];
                f.rate = rate.min(RATE_CLAMP);
                for &l in f.path.of(links) {
                    self.link_load[l as usize] += f.rate;
                }
            }
        }

        for &l in &self.dirty.list {
            self.dirty.flag[l as usize] = false;
        }
        self.dirty.list.clear();
        for &l in &self.nw_touched {
            self.nw_seen[l as usize] = false;
        }
        self.nw_touched.clear();
        for &r in &self.nw_dirty_roots {
            self.nw_root_dirty[r as usize] = false;
        }
        self.nw_dirty_roots.clear();
    }

    /// Earliest instant at which some flow drains (absolute), if any.
    /// `SimDuration::from_secs_f64` is monotone, so converting only the
    /// smallest drain time gives the minimum over every flow's instant.
    fn next_drain(&self, now: SimTime) -> Option<SimTime> {
        let mut first: Option<f64> = None;
        for f in &self.flows {
            if f.rate > 0.0 {
                let secs = f.remaining.max(0.0) / f.rate;
                if first.is_none_or(|t| secs < t) {
                    first = Some(secs);
                }
            }
        }
        first.map(|secs| now + SimDuration::from_secs_f64(secs) + SimDuration::from_nanos(1))
    }

    /// Re-register the single completion timer at the current earliest drain
    /// time, cancelling the previous registration.
    fn reschedule_tick(sim: &mut Sim<W>, w: &mut W) {
        if let Some(id) = w.net().tick_timer.take() {
            sim.cancel_timer(id);
        }
        let t = {
            let net = w.net();
            match net.next_drain(net.last_settle) {
                Some(t) => t,
                None => return,
            }
        };
        let t = t.max(sim.now());
        let id = sim.timer_at(t, |sim, w| Self::tick(sim, w));
        w.net().tick_timer = Some(id);
    }

    fn tick(sim: &mut Sim<W>, w: &mut W) {
        let now = sim.now();
        let (mut drained, needs_solve) = {
            let net = w.net();
            net.tick_timer = None;
            net.settle(now);
            let mut flows = std::mem::take(&mut net.flows);
            let mut drained = std::mem::take(&mut net.drained);
            let mut needs_solve = false;
            flows.retain_mut(|f| {
                if f.remaining > DRAIN_EPS {
                    return true;
                }
                self_credit_residual(&mut net.total_delivered, f);
                needs_solve |= net.note_removed(f);
                if let Some(cb) = f.on_complete.take() {
                    drained.push((f.delivery_delay, cb));
                }
                false
            });
            net.flows = flows;
            (drained, needs_solve)
        };
        if needs_solve {
            Self::schedule_solve(sim, w);
        } else {
            Self::reschedule_tick(sim, w);
        }
        for (delay, cb) in drained.drain(..) {
            sim.at(now + delay, cb);
        }
        w.net().drained = drained;
    }
}

/// Credit the final sub-epsilon residue so accounting stays exact.
fn self_credit_residual<W>(total: &mut f64, f: &mut FlowState<W>) {
    if f.remaining > 0.0 {
        *total += f.remaining;
        f.remaining = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use simcore::{Bandwidth, GBYTE, MBYTE};

    struct World {
        net: Network<World>,
        done: Vec<(SimTime, &'static str)>,
    }
    impl NetWorld for World {
        fn net(&mut self) -> &mut Network<World> {
            &mut self.net
        }
    }

    /// a --10Gb/s,5ms-- m --1Gb/s,20ms-- c
    fn world() -> (Sim<World>, World, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.node("a");
        let m = b.node("m");
        let c = b.node("c");
        b.duplex_link(a, m, Bandwidth::gbit(10.0), SimDuration::from_millis(5), "am");
        b.duplex_link(m, c, Bandwidth::gbit(1.0), SimDuration::from_millis(20), "mc");
        let w = World {
            net: Network::new(b.build(), 1),
            done: Vec::new(),
        };
        (Sim::new(), w, a, m, c)
    }

    #[test]
    fn single_flow_completes_at_link_rate() {
        let (mut sim, mut w, a, _m, c) = world();
        // 125 MB over a 1 Gb/s bottleneck = 1.0 s + 25 ms delivery.
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "f")),
        );
        sim.run(&mut w);
        assert_eq!(w.done.len(), 1);
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 1.025).abs() < 1e-3, "completion at {t}");
        assert_eq!(w.net.total_delivered(), 125 * MBYTE);
        assert_eq!(w.net.active_flows(), 0);
    }

    #[test]
    fn two_flows_share_bottleneck_fairly() {
        let (mut sim, mut w, a, _m, c) = world();
        // Two 62.5 MB flows through the 1 Gb/s link: each gets 62.5 MB/s,
        // both finish at ~1 s.
        for name in ["x", "y"] {
            Network::start_flow(
                &mut sim,
                &mut w,
                FlowSpec::bulk(a, c, 125 * MBYTE / 2),
                move |sim, w: &mut World| w.done.push((sim.now(), name)),
            );
        }
        sim.run(&mut w);
        assert_eq!(w.done.len(), 2);
        for (t, _) in &w.done {
            assert!((t.as_secs_f64() - 1.025).abs() < 1e-3);
        }
    }

    #[test]
    fn window_cap_limits_rate() {
        let (mut sim, mut w, a, _m, c) = world();
        // RTT = 2*(5+20)ms + 60us ~= 50.06ms. Window 1 MB -> ~19.98 MB/s,
        // far below the 125 MB/s link. 20 MB should take ~1.0 s.
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 20 * MBYTE).with_window(MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "capped")),
        );
        sim.run(&mut w);
        let t = w.done[0].0.as_secs_f64();
        assert!((1.0..1.1).contains(&t), "windowed flow completed at {t}");
    }

    #[test]
    fn second_flow_speeds_up_when_first_finishes() {
        let (mut sim, mut w, a, _m, c) = world();
        // Flow1: 62.5 MB; Flow2: 125 MB. Shared until flow1 finishes at
        // t=1s (each at 62.5 MB/s); then flow2 runs at full 125 MB/s for its
        // remaining 62.5 MB (0.5 s). Flow2 completes ~1.5 s + delay.
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE / 2),
            |sim, w: &mut World| w.done.push((sim.now(), "short")),
        );
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "long")),
        );
        sim.run(&mut w);
        assert_eq!(w.done.len(), 2);
        assert_eq!(w.done[0].1, "short");
        let t_long = w.done[1].0.as_secs_f64();
        assert!((t_long - 1.525).abs() < 2e-3, "long flow at {t_long}");
    }

    #[test]
    fn cancel_flow_releases_bandwidth() {
        let (mut sim, mut w, a, _m, c) = world();
        let id = Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, GBYTE),
            |_s, _w: &mut World| panic!("cancelled flow must not complete"),
        );
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "kept")),
        );
        // Cancel the big flow at t=0 (before any events run).
        let remaining = Network::cancel_flow(&mut sim, &mut w, id).unwrap();
        assert!(remaining > 0);
        sim.run(&mut w);
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 1.025).abs() < 1e-3, "kept flow at {t}");
    }

    #[test]
    fn extend_flow_prolongs_completion() {
        let (mut sim, mut w, a, _m, c) = world();
        let id = Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE / 2),
            |sim, w: &mut World| w.done.push((sim.now(), "ext")),
        );
        assert!(Network::extend_flow(&mut sim, &mut w, id, 125 * MBYTE / 2));
        sim.run(&mut w);
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 1.025).abs() < 1e-3, "extended flow at {t}");
    }

    #[test]
    fn message_delay_includes_latency_and_overhead() {
        let (mut sim, mut w, a, _m, c) = world();
        Network::send_msg(&mut sim, &mut w, a, c, 1000, |sim, w: &mut World| {
            w.done.push((sim.now(), "msg"))
        });
        sim.run(&mut w);
        let t = w.done[0].0.as_secs_f64();
        // 25 ms latency + 30us overhead + 1000B/125MB/s (= 8 us)
        assert!((t - 0.025038).abs() < 1e-5, "msg at {t}");
    }

    #[test]
    fn rtt_is_symmetric_roundtrip() {
        let (_sim, mut w, a, _m, c) = world();
        let rtt = w.net().rtt(a, c);
        assert!((rtt.as_secs_f64() - 0.05006).abs() < 1e-5);
    }

    #[test]
    fn monitoring_produces_series() {
        let (mut sim, mut w, a, _m, c) = world();
        Network::enable_monitoring(&mut sim, &mut w, SimDuration::from_millis(100));
        w.net().register_tag(7, "reads");
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE).with_tag(7),
            |_s, _w: &mut World| {},
        );
        sim.set_horizon(SimTime::from_secs(2));
        sim.run(&mut w);
        let series = w.net.finish_monitoring(SimTime::from_secs(2));
        let reads = series.iter().find(|s| s.name == "reads").unwrap();
        // Mid-transfer samples should be ~125 MB/s.
        let mid = reads.mean_between(SimTime::from_millis(200), SimTime::from_millis(800));
        assert!(
            (mid - 125e6).abs() < 5e6,
            "mid-transfer rate {mid} not ~125 MB/s"
        );
    }

    #[test]
    fn many_small_flows_conserve_bytes() {
        let (mut sim, mut w, a, _m, c) = world();
        let n = 50u64;
        for _ in 0..n {
            Network::start_flow(
                &mut sim,
                &mut w,
                FlowSpec::bulk(a, c, MBYTE),
                |sim, w: &mut World| w.done.push((sim.now(), "s")),
            );
        }
        sim.run(&mut w);
        assert_eq!(w.done.len(), n as usize);
        assert_eq!(w.net.total_delivered(), n * MBYTE);
    }

    #[test]
    fn cancel_tagged_removes_only_matching_flows() {
        let (mut sim, mut w, a, _m, c) = world();
        for tag in [1u32, 1, 2] {
            Network::start_flow(
                &mut sim,
                &mut w,
                FlowSpec::bulk(a, c, 125 * MBYTE).with_tag(tag),
                move |sim, w: &mut World| w.done.push((sim.now(), "f")),
            );
        }
        assert_eq!(w.net.active_flows(), 3);
        let n = Network::cancel_tagged(&mut sim, &mut w, 1);
        assert_eq!(n, 2);
        assert_eq!(w.net.active_flows(), 1);
        sim.run(&mut w);
        // Only the tag-2 flow completed, and at full link rate (~1s).
        assert_eq!(w.done.len(), 1);
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 1.025).abs() < 1e-3, "survivor finished at {t}");
        // Cancelling a tag with no flows is a no-op.
        assert_eq!(Network::cancel_tagged(&mut sim, &mut w, 9), 0);
    }

    #[test]
    fn link_down_stalls_flow_and_restore_resumes() {
        let (mut sim, mut w, a, _m, c) = world();
        // 125 MB over the 1 Gb/s bottleneck normally takes 1 s. Take the
        // mc link down from t=0.5 to t=1.0: the flow stalls for exactly
        // that half second and completes ~1.525 s (incl. delivery delay).
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "f")),
        );
        let links = w.net().links_named("mc");
        assert_eq!(links.len(), 2, "duplex link resolves to both directions");
        let l2 = links.clone();
        sim.at(SimTime::from_millis(500), move |sim, w: &mut World| {
            for l in &links {
                Network::set_link_up(sim, w, *l, false);
            }
        });
        sim.at(SimTime::from_millis(1000), move |sim, w: &mut World| {
            for l in &l2 {
                Network::set_link_up(sim, w, *l, true);
            }
        });
        sim.run(&mut w);
        assert_eq!(w.done.len(), 1, "stalled flow must finish after restore");
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 1.525).abs() < 2e-3, "flap-delayed completion at {t}");
        assert_eq!(w.net.total_delivered(), 125 * MBYTE);
    }

    #[test]
    fn degraded_link_scales_rate() {
        let (mut sim, mut w, a, _m, c) = world();
        // Degrade the bottleneck to half capacity up front: 125 MB at
        // 62.5 MB/s takes 2 s.
        let links = w.net().links_named("mc");
        for l in links {
            Network::set_link_degraded(&mut sim, &mut w, l, 0.5);
        }
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "slow")),
        );
        sim.run(&mut w);
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 2.025).abs() < 2e-3, "half-rate completion at {t}");
    }

    #[test]
    fn messages_are_lost_on_down_links() {
        let (mut sim, mut w, a, _m, c) = world();
        for l in w.net().links_named("mc") {
            Network::set_link_up(&mut sim, &mut w, l, false);
        }
        let delivered = Network::send_msg(&mut sim, &mut w, a, c, 1000, |_s, w: &mut World| {
            w.done.push((SimTime::ZERO, "lost"))
        });
        assert!(!delivered, "message over a down link must be dropped");
        // Unaffected segment still delivers.
        let ok = Network::send_msg(&mut sim, &mut w, a, _m, 1000, |sim, w: &mut World| {
            w.done.push((sim.now(), "ok"))
        });
        assert!(ok);
        sim.run(&mut w);
        assert_eq!(w.done.len(), 1);
        assert_eq!(w.done[0].1, "ok");
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_flow_rejected() {
        let (mut sim, mut w, a, _m, c) = world();
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 0),
            |_s, _w: &mut World| {},
        );
    }

    #[test]
    fn fast_path_add_matches_solver_rates() {
        let (mut sim, mut w, a, _m, c) = world();
        // A small windowed flow behind a big bulk flow: the bulk flow
        // saturates the bottleneck, so the windowed add must take the slow
        // path and both rates must match a global solve — total equals the
        // 1 Gb/s bottleneck, windowed flow gets its cap.
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "bulk")),
        );
        let capped = Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 20 * MBYTE).with_window(MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "win")),
        );
        // Rates settle at the end of the instant; run one step past it.
        sim.run_until(&mut w, |w| w.done.len() == 2);
        assert_eq!(w.done.len(), 2);
        // Windowed flow finishes ~1 s (cap ~20 MB/s on 20 MB), bulk flow
        // sheds ~20 MB/s while sharing then speeds back up.
        let t_win = w.done.iter().find(|(_, n)| *n == "win").unwrap().0;
        assert!((t_win.as_secs_f64() - 1.0).abs() < 0.1);
        assert!(w.net.flow_rate(capped).is_none());
        assert_eq!(w.net.total_delivered(), 145 * MBYTE);
    }

    #[test]
    fn pending_stays_bounded_across_rate_changes() {
        // Each mutation re-registers the one completion timer instead of
        // piling stale epoch-guarded events on the heap.
        let (mut sim, mut w, a, _m, c) = world();
        for _ in 0..32 {
            Network::start_flow(
                &mut sim,
                &mut w,
                FlowSpec::bulk(a, c, 10 * MBYTE),
                |sim, w: &mut World| w.done.push((sim.now(), "f")),
            );
        }
        // 32 flows started at the same instant: at most one tick timer, one
        // batched solve event, and nothing else.
        assert!(
            sim.pending() <= 2,
            "expected one timer + one solve event, found {} pending",
            sim.pending()
        );
        sim.run(&mut w);
        assert_eq!(w.done.len(), 32);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn memoized_routes_match_topology_routes() {
        use rand::{Rng, SeedableRng};
        let mut r = StdRng::seed_from_u64(0x5eed_0a7e);
        for case in 0..40 {
            let mut b = TopologyBuilder::new();
            let n = r.gen_range(2usize..=10);
            let nodes: Vec<NodeId> = (0..n).map(|i| b.node(format!("n{i}"))).collect();
            for k in 0..r.gen_range(0usize..=2 * n) {
                let x = nodes[r.gen_range(0usize..=n - 1)];
                let y = nodes[r.gen_range(0usize..=n - 1)];
                if x == y {
                    continue;
                }
                // Few distinct delays, so equal-latency alternatives are
                // common; one-way links leave some pairs unreachable.
                let delay = SimDuration::from_millis(r.gen_range(1u64..=3));
                let bw = Bandwidth::gbit(r.gen_range(0.5f64..=10.0));
                if r.gen::<f64>() < 0.5 {
                    b.duplex_link(x, y, bw, delay, format!("d{k}"));
                } else {
                    b.directed_link(x, y, bw, delay, format!("l{k}"));
                }
            }
            let mut net: Network<World> = Network::new(b.build(), case);
            // The second pass answers every pair from the memo.
            for _ in 0..2 {
                for &src in &nodes {
                    for &dst in &nodes {
                        let want = net.topo.route(src, dst);
                        match (want, net.route(src, dst)) {
                            (None, None) => {}
                            (Some(path), Some(route)) => {
                                let links: Vec<u32> = path.iter().map(|l| l.0).collect();
                                assert_eq!(route.links.of(&net.routes.links), &links[..]);
                                assert_eq!(route.delay, net.topo.path_delay(&path));
                                assert_eq!(
                                    route.capacity.to_bits(),
                                    net.topo.path_capacity(&path).to_bits()
                                );
                            }
                            (want, got) => panic!(
                                "case {case} {src:?} -> {dst:?}: topology {want:?}, memo {got:?}"
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn route_memo_checks_link_health_on_every_use() {
        let (mut sim, mut w, a, m, c) = world();
        // Warm the memo for a -> c (and the flow's route below).
        let warm = |sim: &mut Sim<World>, w: &mut World| w.done.push((sim.now(), "warm"));
        assert!(Network::send_msg(&mut sim, &mut w, a, c, 1000, warm));
        let id = Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "flow")),
        );
        let mc = w.net().links_named("mc");
        let down = mc.clone();
        sim.at(SimTime::from_millis(500), move |sim, w: &mut World| {
            for &l in &down {
                Network::set_link_up(sim, w, l, false);
            }
            let sent = Network::send_msg(sim, w, a, c, 1000, |_s, w: &mut World| {
                w.done.push((SimTime::ZERO, "delivered over a down link"))
            });
            if !sent {
                w.done.push((sim.now(), "lost"));
            }
            // The a -> m leg of the same route is still up.
            let partial = |sim: &mut Sim<World>, w: &mut World| w.done.push((sim.now(), "partial"));
            assert!(Network::send_msg(sim, w, a, m, 1000, partial));
        });
        sim.at(SimTime::from_millis(750), move |_sim, w: &mut World| {
            assert_eq!(w.net.flow_rate(id), Some(0.0), "the flow must stall");
            let left = w.net.flow_remaining(id).unwrap();
            assert!(left.abs_diff(125 * MBYTE / 2) < 1000, "{left} bytes left");
        });
        sim.at(SimTime::from_millis(1000), move |sim, w: &mut World| {
            for &l in &mc {
                Network::set_link_up(sim, w, l, true);
            }
            let restored =
                |sim: &mut Sim<World>, w: &mut World| w.done.push((sim.now(), "restored"));
            assert!(Network::send_msg(sim, w, a, c, 1000, restored));
        });
        sim.run(&mut w);
        let names: Vec<&str> = w.done.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, ["warm", "lost", "partial", "restored", "flow"]);
        // Stalled for exactly the half second the link was down.
        let t = w.done[4].0.as_secs_f64();
        assert!((t - 1.525).abs() < 2e-3, "flow completed at {t}");
        assert_eq!(w.net.total_delivered(), 125 * MBYTE);
    }
}
