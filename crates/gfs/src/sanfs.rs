//! SAN-shared filesystem client — the SC'02 configuration (paper §2).
//!
//! Before GPFS could speak TCP/IP across a WAN, the 2002 demonstration
//! "fooled the disk environment": a QFS filesystem at SDSC was exported
//! with SANergy, and the Fibre Channel SAN itself was stretched to the
//! Baltimore show floor by Nishan FCIP gateways. A client therefore:
//!
//! 1. asks the metadata server (QFS MDS) for the file's block map over IP,
//! 2. reads the blocks *directly from the disks* at block level, the FC
//!    frames crossing the country inside TCP — subject to the gateways'
//!    framing efficiency and buffer-credit windows.
//!
//! The data path here is [`run_stream`] over FCIP tunnel endpoints with the
//! credit window as the flow cap; [`simsan::FcipSpec`] supplies both
//! numbers.

use crate::stream::{run_stream, StreamDir, StreamSpec};
use crate::world::{GfsWorld, RPC_BYTES};
use simcore::Sim;
use simnet::NodeId;
use simsan::FcipSpec;

/// A SANergy/QFS-style SAN filesystem export reachable over FCIP.
#[derive(Clone, Debug)]
pub struct SanFs {
    /// Metadata server node (block maps, permissions).
    pub mds: NodeId,
    /// Storage endpoints: one per FCIP tunnel (the gateways load-share the
    /// SAN traffic across their GbE channels).
    pub tunnel_endpoints: Vec<NodeId>,
    /// The gateway/tunnel characteristics.
    pub fcip: FcipSpec,
}

impl SanFs {
    /// Per-tunnel flow window implied by the gateway's buffer credits.
    pub fn credit_window(&self) -> u64 {
        self.fcip.window_bytes()
    }
}

/// Read `bytes` of a SAN file from `client_node`: one MDS round-trip for
/// the block map, then credit-windowed block streams across every tunnel.
pub fn san_read(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    fs: &SanFs,
    client_node: NodeId,
    bytes: u64,
    tag: u32,
    on_done: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld) + 'static,
) {
    let spec = StreamSpec {
        client: client_node,
        endpoints: fs.tunnel_endpoints.clone(),
        bytes,
        chunk: u64::MAX,
        window: Some(fs.credit_window()),
        tag,
        dir: StreamDir::Read,
    };
    let mds = fs.mds;
    // Block-map RPC to the MDS, then the block streams.
    simnet::Network::send_msg(sim, w, client_node, mds, RPC_BYTES, move |sim, w| {
        simnet::Network::send_msg(sim, w, mds, client_node, RPC_BYTES, move |sim, w| {
            run_stream(sim, w, spec, on_done);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldBuilder;
    use simcore::{Bandwidth, SimDuration, MBYTE};
    use std::cell::Cell;
    use std::rc::Rc;

    /// A miniature SC'02: two FCIP tunnels across a 40 ms one-way WAN.
    fn bed() -> (Sim<GfsWorld>, GfsWorld, SanFs, NodeId) {
        let fcip = FcipSpec::nishan_gbe();
        let mut b = WorldBuilder::new(7);
        b.key_bits(384);
        let client = b.topo().node("showfloor");
        let mds = b.topo().node("mds");
        let t1 = b.topo().node("tunnel1");
        let t2 = b.topo().node("tunnel2");
        let hub = b.topo().node("wan-hub");
        // WAN hub to client: fat pipe, 40 ms one way (80 ms RTT).
        b.topo().duplex_link(client, hub, Bandwidth::gbit(10.0), SimDuration::from_millis(40), "wan");
        // Each tunnel endpoint reaches the hub at FCIP goodput.
        b.topo().duplex_link(hub, t1, fcip.goodput(), SimDuration::from_micros(100), "t1");
        b.topo().duplex_link(hub, t2, fcip.goodput(), SimDuration::from_micros(100), "t2");
        // MDS on the same WAN.
        b.topo().duplex_link(hub, mds, Bandwidth::gbit(1.0), SimDuration::from_micros(100), "mds");
        b.cluster("sdsc");
        let (sim, w) = b.build();
        let fs = SanFs {
            mds,
            tunnel_endpoints: vec![t1, t2],
            fcip,
        };
        (sim, w, fs, client)
    }

    #[test]
    fn san_read_is_credit_limited_at_wan_rtt() {
        let (mut sim, mut w, fs, client) = bed();
        // Per tunnel: min(goodput ≈ 117 MB/s, window/RTT ≈ 7.168MB/0.0804s
        // ≈ 89 MB/s) ⇒ credit-limited. Two tunnels ≈ 178 MB/s.
        let fin = Rc::new(Cell::new(0u64));
        let f2 = fin.clone();
        let total = 356 * MBYTE; // ~2 s at the credit-limited rate
        san_read(&mut sim, &mut w, &fs, client, total, 1, move |sim, _w| {
            f2.set(sim.now().as_nanos())
        });
        sim.run(&mut w);
        let t = fin.get() as f64 / 1e9;
        let rate_mb = total as f64 / MBYTE as f64 / t;
        assert!(
            (160.0..190.0).contains(&rate_mb),
            "2-tunnel SAN read rate {rate_mb} MB/s at 80 ms RTT"
        );
    }

    #[test]
    fn mds_roundtrip_precedes_data() {
        let (mut sim, mut w, fs, client) = bed();
        let fin = Rc::new(Cell::new(0u64));
        let f2 = fin.clone();
        // A tiny read: time dominated by 2 × WAN RTT (MDS + data delivery).
        san_read(&mut sim, &mut w, &fs, client, 1024, 1, move |sim, _w| {
            f2.set(sim.now().as_nanos())
        });
        sim.run(&mut w);
        let t = fin.get() as f64 / 1e9;
        assert!(t > 0.12, "tiny SAN read at {t}s should pay ≥ 1.5 RTT");
        assert!(t < 0.5);
    }
}
