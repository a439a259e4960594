//! The streaming bulk-data path: what a GPFS client looks like to the
//! network once deep prefetch (reads) or write-behind (writes) reaches
//! steady state.
//!
//! At steady state, a client streaming a striped file holds one TCP
//! connection per NSD server, each pipelined to its window. The fluid-flow
//! limit of that is **one long-lived flow per server connection**, which is
//! exactly what [`run_stream`] creates. The paper's figure-scale results
//! (Figs. 2, 5, 8, 11) are all reproduced through this path; the per-block
//! operation path in [`crate::client`] covers semantics and small-scale
//! latency behaviour.
//!
//! Setting `chunk` below the total turns the stream into
//! request-at-a-time (stop-and-wait) transfers — prefetch disabled — which
//! ablation A3 uses to show *why* large blocks and deep pipelines are the
//! design that makes wide-area GPFS work.

use crate::types::{ClientId, FsId};
use crate::world::GfsWorld;
use simcore::{Join, Sim};
use simnet::{FlowSpec, Network, NodeId};

/// Stream direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamDir {
    /// Storage → client (file read).
    Read,
    /// Client → storage (file write).
    Write,
}

/// A raw streaming transfer between a client node and a set of endpoints.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    /// The consuming/producing node.
    pub client: NodeId,
    /// Far endpoints (NSD servers or storage pseudo-nodes); bytes are
    /// striped evenly across them, one flow each.
    pub endpoints: Vec<NodeId>,
    /// Total bytes.
    pub bytes: u64,
    /// Bytes in flight per request chain; `u64::MAX` (or >= share) means
    /// one continuous flow — the deep-prefetch steady state. Smaller values
    /// model stop-and-wait request pipelines.
    pub chunk: u64,
    /// Per-flow TCP window cap, if any.
    pub window: Option<u64>,
    /// Accounting tag for monitoring.
    pub tag: u32,
    /// Direction.
    pub dir: StreamDir,
}

impl StreamSpec {
    /// Continuous read of `bytes` from `endpoints` to `client`.
    pub fn read(client: NodeId, endpoints: Vec<NodeId>, bytes: u64) -> Self {
        StreamSpec {
            client,
            endpoints,
            bytes,
            chunk: u64::MAX,
            window: None,
            tag: 0,
            dir: StreamDir::Read,
        }
    }

    /// Continuous write of `bytes` from `client` to `endpoints`.
    pub fn write(client: NodeId, endpoints: Vec<NodeId>, bytes: u64) -> Self {
        StreamSpec {
            client,
            endpoints,
            bytes,
            chunk: u64::MAX,
            window: None,
            tag: 0,
            dir: StreamDir::Write,
        }
    }

    /// Set the chunk (request) size.
    pub fn with_chunk(mut self, chunk: u64) -> Self {
        assert!(chunk > 0, "chunk must be positive");
        self.chunk = chunk;
        self
    }

    /// Set the per-flow window.
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

/// Run a streaming transfer; `on_done` fires when every striped share has
/// fully arrived.
pub fn run_stream(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    spec: StreamSpec,
    on_done: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld) + 'static,
) {
    assert!(!spec.endpoints.is_empty(), "stream needs endpoints");
    assert!(spec.bytes > 0, "stream needs bytes");
    let n = spec.endpoints.len() as u64;
    let base = spec.bytes / n;
    let rem = spec.bytes % n;

    let join = Join::<GfsWorld>::new(spec.endpoints.len(), move |sim, w, _| on_done(sim, w));
    for (i, &ep) in spec.endpoints.iter().enumerate() {
        let share = base + u64::from((i as u64) < rem);
        let (src, dst) = match spec.dir {
            StreamDir::Read => (ep, spec.client),
            StreamDir::Write => (spec.client, ep),
        };
        let join = join.clone();
        chain(
            sim,
            w,
            src,
            dst,
            share,
            spec.chunk,
            spec.window,
            spec.tag,
            Box::new(move |sim, w| join.arrive(sim, w, Ok(()))),
        );
    }
}

/// One striped share: a chain of flows of at most `chunk` bytes.
#[allow(clippy::too_many_arguments)]
fn chain(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    src: NodeId,
    dst: NodeId,
    remaining: u64,
    chunk: u64,
    window: Option<u64>,
    tag: u32,
    on_done: Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld)>,
) {
    if remaining == 0 {
        on_done(sim, w);
        return;
    }
    let this = remaining.min(chunk);
    let rest = remaining - this;
    let spec = FlowSpec {
        src,
        dst,
        bytes: this,
        window,
        tag,
    };
    Network::start_flow(sim, w, spec, move |sim, w| {
        chain(sim, w, src, dst, rest, chunk, window, tag, on_done);
    });
}

/// Stream a whole-file read/write against a mounted filesystem: one flow
/// per NSD server connection, endpoints behind the servers when storage
/// pseudo-nodes are attached. This is the figure-scale path; it tracks
/// only bytes, not file contents.
pub fn gfs_stream(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    bytes: u64,
    dir: StreamDir,
    tag: u32,
    on_done: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld) + 'static,
) {
    let client_node = w.clients[client.0 as usize].node;
    let inst = &w.fss[fs.0 as usize];
    // Crashed NSD servers drop out of the stripe: their NSDs are reached
    // through ring successors, so the surviving endpoints carry the bytes.
    let endpoints: Vec<NodeId> = (0..inst.nsd_servers.len())
        .filter(|&i| !inst.down_servers.contains(&inst.nsd_servers[i]))
        .map(|i| inst.stream_endpoint(i))
        .collect();
    assert!(
        !endpoints.is_empty(),
        "no NSD server available: all servers failed"
    );
    // A client streaming a striped file keeps one windowed connection per
    // NSD; when a scenario aggregates many NSD servers into one endpoint
    // node, the endpoint's flow stands for all of those connections, so
    // the effective window scales with the connections it represents.
    let conns_per_endpoint =
        (inst.core.config.nsd_count as u64).div_ceil(endpoints.len() as u64).max(1);
    let window = w.costs.flow_window.saturating_mul(conns_per_endpoint);
    // Account each endpoint connection as one pool-bypassing streaming
    // transfer (counters only; the fluid-flow model and its event sequence
    // are untouched). These flows never touch the page pool or issue
    // block-level NSD requests, so folding them into `record()` used to
    // poison `mean_request_bytes` with multi-GB "requests".
    {
        let n = endpoints.len() as u64;
        let (base, rem) = (bytes / n, bytes % n);
        for i in 0..n {
            let share = base + u64::from(i < rem);
            if share > 0 {
                w.nsd_stats.record_bypass(share);
            }
        }
    }
    let spec = StreamSpec {
        client: client_node,
        endpoints,
        bytes,
        chunk: u64::MAX,
        window: Some(window),
        tag,
        dir,
    };
    run_stream(sim, w, spec, on_done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fscore::FsConfig;
    use crate::world::{FsParams, WorldBuilder};
    use simcore::{Bandwidth, SimDuration, SimTime, GBYTE, MBYTE};
    use std::cell::Cell;
    use std::rc::Rc;

    /// client --10Gb/s-- hub --1Gb/s x2-- two servers
    fn world() -> (Sim<GfsWorld>, GfsWorld, NodeId, Vec<NodeId>) {
        let mut b = WorldBuilder::new(3);
        b.key_bits(384);
        let cli = b.topo().node("cli");
        let hub = b.topo().node("hub");
        let s1 = b.topo().node("s1");
        let s2 = b.topo().node("s2");
        b.topo().duplex_link(cli, hub, Bandwidth::gbit(10.0), SimDuration::from_millis(1), "uplink");
        b.topo().duplex_link(hub, s1, Bandwidth::gbit(1.0), SimDuration::from_micros(100), "l1");
        b.topo().duplex_link(hub, s2, Bandwidth::gbit(1.0), SimDuration::from_micros(100), "l2");
        let _cl = b.cluster("c");
        let (sim, w) = b.build();
        (sim, w, cli, vec![s1, s2])
    }

    #[test]
    fn striped_stream_aggregates_server_links() {
        let (mut sim, mut w, cli, servers) = world();
        // 250 MB over 2 × 1 Gb/s server links: each share 125 MB at
        // 125 MB/s ⇒ ~1 s.
        let fin = Rc::new(Cell::new(0u64));
        let f2 = fin.clone();
        run_stream(
            &mut sim,
            &mut w,
            StreamSpec::read(cli, servers, 250 * MBYTE),
            move |sim, _w| f2.set(sim.now().as_nanos()),
        );
        sim.run(&mut w);
        let t = fin.get() as f64 / 1e9;
        assert!((0.99..1.05).contains(&t), "striped read took {t}s");
    }

    #[test]
    fn write_direction_uses_reverse_links() {
        let (mut sim, mut w, cli, servers) = world();
        let fin = Rc::new(Cell::new(0u64));
        let f2 = fin.clone();
        run_stream(
            &mut sim,
            &mut w,
            StreamSpec::write(cli, servers, 250 * MBYTE),
            move |sim, _w| f2.set(sim.now().as_nanos()),
        );
        sim.run(&mut w);
        let t = fin.get() as f64 / 1e9;
        assert!((0.99..1.05).contains(&t), "striped write took {t}s");
    }

    #[test]
    fn stop_and_wait_chunks_are_slower_on_wan() {
        // Same transfer, but chunked at 1 MB with no pipelining over a
        // 20 ms path: each chunk pays a delivery gap, so throughput drops
        // well below the link rate. This is the "why prefetch matters"
        // ablation in miniature.
        let mut b = WorldBuilder::new(4);
        b.key_bits(384);
        let cli = b.topo().node("cli");
        let srv = b.topo().node("srv");
        b.topo().duplex_link(cli, srv, Bandwidth::gbit(1.0), SimDuration::from_millis(20), "wan");
        b.cluster("c");
        let (mut sim, mut w) = b.build();

        let t_continuous = Rc::new(Cell::new(0u64));
        let t2 = t_continuous.clone();
        run_stream(
            &mut sim,
            &mut w,
            StreamSpec::read(cli, vec![srv], 125 * MBYTE),
            move |sim, _w| t2.set(sim.now().as_nanos()),
        );
        sim.run(&mut w);
        let continuous_secs = t_continuous.get() as f64 / 1e9;

        let t_chunked = Rc::new(Cell::new(0u64));
        let t3 = t_chunked.clone();
        let start = sim.now();
        run_stream(
            &mut sim,
            &mut w,
            StreamSpec::read(cli, vec![srv], 125 * MBYTE).with_chunk(MBYTE),
            move |sim, _w| t3.set(sim.now().as_nanos()),
        );
        sim.run(&mut w);
        let chunked_secs = (SimTime::from_nanos(t_chunked.get()).since(start)).as_secs_f64();
        assert!(
            chunked_secs > 2.0 * continuous_secs,
            "chunked {chunked_secs}s not much slower than continuous {continuous_secs}s"
        );
    }

    #[test]
    fn windowed_stream_capped_by_bdp() {
        let mut b = WorldBuilder::new(5);
        b.key_bits(384);
        let cli = b.topo().node("cli");
        let srv = b.topo().node("srv");
        // 80 ms RTT (the SC'02 distance), fat link.
        b.topo().duplex_link(cli, srv, Bandwidth::gbit(10.0), SimDuration::from_millis(40), "wan");
        b.cluster("c");
        let (mut sim, mut w) = b.build();
        let fin = Rc::new(Cell::new(0u64));
        let f2 = fin.clone();
        // 8 MB window / 80 ms ≈ 100 MB/s; 100 MB should take ~1 s.
        run_stream(
            &mut sim,
            &mut w,
            StreamSpec::read(cli, vec![srv], 100 * MBYTE).with_window(8 * MBYTE),
            move |sim, _w| f2.set(sim.now().as_nanos()),
        );
        sim.run(&mut w);
        let t = fin.get() as f64 / 1e9;
        assert!((0.95..1.15).contains(&t), "window-capped stream took {t}s");
    }

    #[test]
    fn gfs_stream_uses_fs_endpoints() {
        let mut b = WorldBuilder::new(6);
        b.key_bits(384);
        let cli = b.topo().node("cli");
        let srv = b.topo().node("srv");
        b.topo().duplex_link(cli, srv, Bandwidth::gbit(1.0), SimDuration::from_micros(100), "lan");
        let cl = b.cluster("c");
        let fs = b.filesystem(
            cl,
            FsParams::ideal(
                FsConfig::small_test("d"),
                srv,
                vec![srv],
                Bandwidth::gbyte(1.0),
                SimDuration::from_micros(100),
            ),
        );
        let c = b.client(cl, cli, 16);
        let (mut sim, mut w) = b.build();
        let fin = Rc::new(Cell::new(false));
        let f2 = fin.clone();
        gfs_stream(
            &mut sim,
            &mut w,
            c,
            fs,
            GBYTE,
            StreamDir::Read,
            9,
            move |_s, _w| f2.set(true),
        );
        sim.run(&mut w);
        assert!(fin.get());
        assert_eq!(w.net.total_delivered(), GBYTE);
    }

    #[test]
    #[should_panic(expected = "stream needs endpoints")]
    fn empty_endpoints_rejected() {
        let (mut sim, mut w, cli, _servers) = world();
        run_stream(
            &mut sim,
            &mut w,
            StreamSpec::read(cli, vec![], 100),
            |_s, _w| {},
        );
    }
}
