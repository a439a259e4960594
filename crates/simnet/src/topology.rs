//! Network topology: nodes, directed capacity links, and latency-based
//! shortest-path routing.
//!
//! Links are **directed**: a full-duplex physical link (every link in the
//! paper — GbE, 10 GbE, FC) is two directed links with independent capacity.
//! This also lets storage components expose direction-dependent capacity
//! (e.g. a RAID set whose write path is slower than its read path).

use simcore::{Bandwidth, SimDuration};
use std::collections::{BinaryHeap, HashMap};

/// Identifies a node (host, switch, router, gateway, or pseudo-node such as
/// an aggregated server farm).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifies one *directed* link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// A named node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Human-readable name ("SDSC", "show-floor-sw", ...).
    pub name: String,
}

/// One directed capacity edge.
#[derive(Clone, Debug)]
pub struct Link {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Goodput capacity in bytes/sec (protocol efficiency already applied by
    /// the builder when requested).
    pub capacity: f64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Display name.
    pub name: String,
    /// Optional multiplicative capacity jitter re-drawn at each monitor tick
    /// (models the 7–9 Gb/s per-link wander visible in the paper's Fig. 8).
    pub jitter_frac: f64,
}

/// An immutable routed topology. Build with [`TopologyBuilder`].
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency: per-node outgoing (neighbor, link)
    adj: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Link metadata.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Find a node by name (names are unique; enforced by the builder).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Find the directed link from `a` to `b`, if adjacent.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adj[a.0 as usize]
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, l)| *l)
    }

    /// Shortest path from `src` to `dst` by propagation delay (Dijkstra),
    /// returned as the sequence of directed links. `None` if unreachable.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let n = self.nodes.len();
        let mut dist = vec![u64::MAX; n];
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src.0 as usize] = 0;
        heap.push(std::cmp::Reverse((0u64, src.0)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if u == dst.0 {
                break;
            }
            for &(v, l) in &self.adj[u as usize] {
                // +1ns per hop so equal-latency routes prefer fewer hops.
                let nd = d
                    .saturating_add(self.links[l.0 as usize].delay.as_nanos())
                    .saturating_add(1);
                if nd < dist[v.0 as usize] {
                    dist[v.0 as usize] = nd;
                    prev[v.0 as usize] = Some((NodeId(u), l));
                    heap.push(std::cmp::Reverse((nd, v.0)));
                }
            }
        }
        if dist[dst.0 as usize] == u64::MAX {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, l) = prev[cur.0 as usize].expect("reached node must have predecessor");
            path.push(l);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// One-way propagation delay along a path.
    pub fn path_delay(&self, path: &[LinkId]) -> SimDuration {
        path.iter()
            .fold(SimDuration::ZERO, |d, l| d + self.links[l.0 as usize].delay)
    }

    /// Minimum capacity along a path (bytes/sec); `f64::INFINITY` for empty paths.
    pub fn path_capacity(&self, path: &[LinkId]) -> f64 {
        path.iter()
            .map(|l| self.links[l.0 as usize].capacity)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Incrementally constructs a [`Topology`].
#[derive(Default)]
pub struct TopologyBuilder {
    topo: Topology,
    names: HashMap<String, NodeId>,
}

impl TopologyBuilder {
    /// Fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a named node. Panics on duplicate names — scenario configs are
    /// static and a duplicate is always a bug.
    pub fn node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        assert!(
            !self.names.contains_key(&name),
            "duplicate node name: {name}"
        );
        let id = NodeId(self.topo.nodes.len() as u32);
        self.names.insert(name.clone(), id);
        self.topo.nodes.push(Node { name });
        self.topo.adj.push(Vec::new());
        id
    }

    /// Add one directed link.
    pub fn directed_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        capacity: Bandwidth,
        delay: SimDuration,
        name: impl Into<String>,
    ) -> LinkId {
        assert!(
            capacity.bytes_per_sec() > 0.0,
            "link capacity must be positive"
        );
        let id = LinkId(self.topo.links.len() as u32);
        self.topo.links.push(Link {
            from,
            to,
            capacity: capacity.bytes_per_sec(),
            delay,
            name: name.into(),
            jitter_frac: 0.0,
        });
        self.topo.adj[from.0 as usize].push((to, id));
        id
    }

    /// Add a full-duplex link (two directed links of equal capacity).
    pub fn duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: Bandwidth,
        delay: SimDuration,
        name: impl Into<String>,
    ) -> (LinkId, LinkId) {
        let name = name.into();
        let f = self.directed_link(a, b, capacity, delay, format!("{name}>"));
        let r = self.directed_link(b, a, capacity, delay, format!("{name}<"));
        (f, r)
    }

    /// Set the capacity jitter fraction on a link (both for a duplex pair if
    /// called on each).
    pub fn set_jitter(&mut self, link: LinkId, frac: f64) {
        assert!((0.0..1.0).contains(&frac), "jitter must be in [0,1)");
        self.topo.links[link.0 as usize].jitter_frac = frac;
    }

    /// Finish building.
    pub fn build(self) -> Topology {
        self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Bandwidth;

    fn line3() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.node("a");
        let m = b.node("m");
        let c = b.node("c");
        b.duplex_link(a, m, Bandwidth::gbit(10.0), SimDuration::from_millis(5), "am");
        b.duplex_link(m, c, Bandwidth::gbit(1.0), SimDuration::from_millis(20), "mc");
        (b.build(), a, m, c)
    }

    #[test]
    fn route_along_line() {
        let (t, a, _m, c) = line3();
        let p = t.route(a, c).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(t.path_delay(&p), SimDuration::from_millis(25));
        assert!((t.path_capacity(&p) - Bandwidth::gbit(1.0).bytes_per_sec()).abs() < 1.0);
    }

    #[test]
    fn route_to_self_is_empty() {
        let (t, a, ..) = line3();
        assert_eq!(t.route(a, a).unwrap().len(), 0);
        assert_eq!(t.path_capacity(&[]), f64::INFINITY);
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = TopologyBuilder::new();
        let a = b.node("a");
        let c = b.node("c");
        // one-way only: a -> c
        b.directed_link(a, c, Bandwidth::gbit(1.0), SimDuration::ZERO, "ac");
        let t = b.build();
        assert!(t.route(a, c).is_some());
        assert!(t.route(c, a).is_none());
    }

    #[test]
    fn dijkstra_prefers_lower_latency() {
        let mut b = TopologyBuilder::new();
        let a = b.node("a");
        let x = b.node("x");
        let y = b.node("y");
        let z = b.node("z");
        // slow direct path a->z, fast two-hop a->x->z
        b.directed_link(a, z, Bandwidth::gbit(1.0), SimDuration::from_millis(100), "slow");
        b.directed_link(a, x, Bandwidth::gbit(1.0), SimDuration::from_millis(10), "ax");
        b.directed_link(x, z, Bandwidth::gbit(1.0), SimDuration::from_millis(10), "xz");
        // decoy
        b.directed_link(a, y, Bandwidth::gbit(1.0), SimDuration::from_millis(1), "ay");
        let t = b.build();
        let p = t.route(a, z).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(t.path_delay(&p), SimDuration::from_millis(20));
    }

    #[test]
    fn find_node_by_name() {
        let (t, a, ..) = line3();
        assert_eq!(t.find_node("a"), Some(a));
        assert_eq!(t.find_node("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_rejected() {
        let mut b = TopologyBuilder::new();
        b.node("a");
        b.node("a");
    }

    #[test]
    fn link_between_adjacent() {
        let (t, a, m, c) = line3();
        assert!(t.link_between(a, m).is_some());
        assert!(t.link_between(a, c).is_none());
    }
}
