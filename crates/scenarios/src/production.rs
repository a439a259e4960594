//! The 2005 production Global File System (paper §5, Figs. 9–11): 0.5 PB
//! of FastT100 SATA behind 64 dual-IA64 NSD servers (one GbE + one 2 Gb/s
//! FC HBA each), serving the SDSC machine room and the TeraGrid WAN.
//!
//! Paper results reproduced here:
//! * **Fig. 11** — MPI-IO scaling (128 MB blocks, 1 MB transfers) against
//!   node count inside the machine room: reads approach ~6 GB/s of an
//!   8 GB/s theoretical network ceiling; writes plateau distinctly lower
//!   ("the observed discrepancy ... is not yet understood"). In this model
//!   the write plateau *is* understood: it is the SATA RAID-5
//!   destage/parity ceiling of the DS4100 farm (ablation A4 removes it).
//! * **ANL remote mount** — "approximately 1.2 GB/s to all 32 nodes".

use crate::common::{NSD_SERVER_EFF, TCP_EFF};
use gfs::fscore::{DataMode, FsConfig};
use gfs::stream::{gfs_stream, StreamDir};
use gfs::world::{Counters, FsParams, GfsWorld, NsdBacking, WorldBuilder};
use gfs::types::{ClientId, FsId};
use simcore::{Bandwidth, Join, Sim, SimDuration, SimTime, GBYTE, MBYTE};
use simsan::{FarmSpec, IoKind};
use std::cell::Cell;
use std::rc::Rc;

/// Transfer direction of a scaling run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Clients read from the GFS.
    Read,
    /// Clients write to the GFS.
    Write,
}

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct ProductionConfig {
    /// NSD server count (64 in the paper, each one GbE).
    pub nsd_servers: u32,
    /// Disk farm behind the servers.
    pub farm: FarmSpec,
    /// Per-client NIC goodput (DataStar/TG-cluster nodes on GbE).
    pub client_nic: Bandwidth,
    /// Machine-room one-way latency.
    pub lan_delay: SimDuration,
    /// Bytes each client moves in a scaling run.
    pub per_client_bytes: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProductionConfig {
    fn default() -> Self {
        ProductionConfig {
            nsd_servers: 64,
            farm: FarmSpec::production_2005(),
            client_nic: Bandwidth::gbit(1.0).scaled(TCP_EFF),
            lan_delay: SimDuration::from_micros(100),
            per_client_bytes: 4 * GBYTE,
            seed: 2005,
        }
    }
}

/// Result of one scaling point.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Node count.
    pub nodes: u32,
    /// Direction measured.
    pub direction: Direction,
    /// Total bytes moved.
    pub bytes: u64,
    /// Makespan in seconds.
    pub seconds: f64,
    /// The point's world counters ([`GfsWorld::counters`]): its events and
    /// the streams that bypassed the page pool.
    pub counters: Counters,
}

impl ScalingPoint {
    /// Aggregate rate in MB/s (Fig. 11's y axis).
    pub fn aggregate_mbyte_per_sec(&self) -> f64 {
        self.bytes as f64 / self.seconds / MBYTE as f64
    }

    /// Aggregate rate in GB/s.
    pub fn aggregate_gbyte_per_sec(&self) -> f64 {
        self.bytes as f64 / self.seconds / GBYTE as f64
    }
}

/// Build the production world with `nodes` machine-room clients.
fn build(cfg: &ProductionConfig, nodes: u32) -> (Sim<GfsWorld>, GfsWorld, Vec<ClientId>, FsId) {
    let mut b = WorldBuilder::new(cfg.seed);
    b.key_bits(384);
    let sw = b.topo().node("mr-switch");
    let servers = b.topo().node("nsd-farm");
    // 64 NSD servers × GbE goodput × daemon efficiency: the effective
    // serving ceiling ("theoretical maximum of 8 GB/s" raw in the paper;
    // measured max "almost 6 GB/s").
    let serve_cap = Bandwidth::gbit(f64::from(cfg.nsd_servers))
        .scaled(TCP_EFF)
        .scaled(NSD_SERVER_EFF);
    b.topo().duplex_link(servers, sw, serve_cap, SimDuration::from_micros(50), "farm-nic");
    let storage = cfg.farm.attach(b.topo(), servers, "prod");
    let cluster = b.cluster("sdsc.teragrid");
    let fs = b.filesystem(
        cluster,
        FsParams {
            config: FsConfig {
                name: "gpfs-wan".into(),
                block_size: 1 << 20,
                nsd_blocks: 1 << 26,
                nsd_count: cfg.nsd_servers,
                data_mode: DataMode::Synthetic,
            },
            manager: servers,
            managers: 1,
            nsd_servers: vec![servers],
            storage_nodes: vec![storage],
            backing: vec![NsdBacking::Ideal {
                rate: Bandwidth::gbyte(1.0).bytes_per_sec(),
                latency: SimDuration::from_micros(200),
            }],
            exported: true,
        },
    );
    let mut clients = Vec::new();
    for i in 0..nodes {
        let n = b.topo().node(format!("node-{i}"));
        b.topo()
            .duplex_link(n, sw, cfg.client_nic, cfg.lan_delay, format!("nic-{i}"));
        clients.push(b.client(cluster, n, 16));
    }
    let (sim, w) = b.build();
    (sim, w, clients, fs)
}

/// Run one Fig. 11 point: `nodes` clients each stream
/// `per_client_bytes` in `direction`; aggregate rate = total/makespan.
pub fn run_scaling_point(cfg: ProductionConfig, nodes: u32, direction: Direction) -> ScalingPoint {
    assert!(nodes > 0);
    let (sim, w, clients, fs) = build(&cfg, nodes);
    stream_all(sim, w, &clients, fs, cfg.per_client_bytes, direction)
}

/// Every client streams `bytes` in `direction` at once; the point's
/// makespan is the instant the slowest one finished.
fn stream_all(
    mut sim: Sim<GfsWorld>,
    mut w: GfsWorld,
    clients: &[ClientId],
    fs: FsId,
    bytes: u64,
    direction: Direction,
) -> ScalingPoint {
    let dir = match direction {
        Direction::Read => StreamDir::Read,
        Direction::Write => StreamDir::Write,
    };
    let end = Rc::new(Cell::new(None));
    let e = end.clone();
    let all = Join::<GfsWorld>::new(clients.len(), move |sim, _, _| e.set(Some(sim.now())));
    for &c in clients {
        let all = all.clone();
        gfs_stream(&mut sim, &mut w, c, fs, bytes, dir, 1, move |sim, w| {
            all.arrive(sim, w, Ok(()))
        });
    }
    sim.run(&mut w);
    let end = end.get().expect("scaling run did not complete");
    ScalingPoint {
        nodes: clients.len() as u32,
        direction,
        bytes: clients.len() as u64 * bytes,
        seconds: end.as_secs_f64(),
        counters: w.counters(&sim),
    }
}

/// Run the full Fig. 11 sweep for both directions.
pub fn run_fig11(cfg: &ProductionConfig, node_counts: &[u32]) -> Vec<(ScalingPoint, ScalingPoint)> {
    run_fig11_with_threads(cfg, node_counts, crate::parallel::sweep_threads())
}

/// [`run_fig11`] with an explicit worker count. Every (node count,
/// direction) pair is an isolated seeded world, so the merged output is
/// bit-identical for any `threads` value — the determinism tests pin the
/// 1-thread vs N-thread equality.
pub fn run_fig11_with_threads(
    cfg: &ProductionConfig,
    node_counts: &[u32],
    threads: usize,
) -> Vec<(ScalingPoint, ScalingPoint)> {
    // Fan out the read and write halves of every point as separate jobs
    // (2× the parallelism of per-count jobs), then pair them back up.
    let points = crate::parallel::run_indexed(node_counts.len() * 2, threads, |i| {
        let n = node_counts[i / 2];
        let direction = if i % 2 == 0 {
            Direction::Read
        } else {
            Direction::Write
        };
        run_scaling_point(cfg.clone(), n, direction)
    });
    let mut points = points.into_iter();
    std::iter::from_fn(|| Some((points.next()?, points.next()?))).collect()
}

/// The A4 ablation: same sweep with the RAID parity/destage penalty
/// removed (`raid_write_factor = 1.0`).
pub fn fig11_config_no_parity_penalty() -> ProductionConfig {
    let mut cfg = ProductionConfig::default();
    cfg.farm.raid_write_factor = 1.0;
    cfg
}

/// The paper's §8 expansion plan, projected: (1) grow the disk to a full
/// petabyte (64 DS4100 trays), (2) add a second GbE to every NSD server
/// ("increasing the aggregate bandwidth to 128 Gb/s"), (3) the second FC
/// HBA feeds the HSM path and does not change client-facing rates.
pub fn expansion_2006_config() -> ProductionConfig {
    let mut cfg = ProductionConfig::default();
    cfg.farm.arrays = 64; // 1 PB of trays
    // Second GbE per server: double the serving NIC capacity. We model it
    // by doubling the server count in the NIC-capacity formula (the
    // physical servers stay at 64; capacity is what matters here).
    cfg.nsd_servers = 128;
    cfg
}

/// ANL remote-mount measurement (§5): `nodes` clients at Argonne read
/// over the TeraGrid WAN. Returns the aggregate rate point.
pub fn run_anl(nodes: u32) -> ScalingPoint {
    let cfg = ProductionConfig::default();
    let mut b = WorldBuilder::new(cfg.seed + 1);
    b.key_bits(384);
    let sw = b.topo().node("mr-switch");
    let servers = b.topo().node("nsd-farm");
    let serve_cap = Bandwidth::gbit(f64::from(cfg.nsd_servers))
        .scaled(TCP_EFF)
        .scaled(NSD_SERVER_EFF);
    b.topo().duplex_link(servers, sw, serve_cap, SimDuration::from_micros(50), "farm-nic");
    let storage = cfg.farm.attach(b.topo(), servers, "prod");
    // WAN: SDSC 30 Gb/s site link -> backbone -> ANL's 10 GbE share.
    let la = b.topo().node("la-hub");
    let chi = b.topo().node("chicago-hub");
    let anl_sw = b.topo().node("anl-sw");
    b.topo().duplex_link(
        sw,
        la,
        Bandwidth::gbit(30.0).scaled(TCP_EFF),
        SimDuration::from_millis(2),
        "sdsc-site",
    );
    b.topo().duplex_link(
        la,
        chi,
        Bandwidth::gbit(40.0).scaled(TCP_EFF),
        SimDuration::from_millis(25),
        "backbone",
    );
    // ANL's share of connectivity for this mount: one 10 GbE path.
    b.topo().duplex_link(
        chi,
        anl_sw,
        Bandwidth::gbit(10.0).scaled(TCP_EFF),
        SimDuration::from_millis(1),
        "anl-site",
    );
    let cluster = b.cluster("sdsc.teragrid");
    let fs = b.filesystem(
        cluster,
        FsParams {
            config: FsConfig {
                name: "gpfs-wan".into(),
                block_size: 1 << 20,
                nsd_blocks: 1 << 26,
                nsd_count: cfg.nsd_servers,
                data_mode: DataMode::Synthetic,
            },
            manager: servers,
            managers: 1,
            nsd_servers: vec![servers],
            storage_nodes: vec![storage],
            backing: vec![NsdBacking::Ideal {
                rate: Bandwidth::gbyte(1.0).bytes_per_sec(),
                latency: SimDuration::from_micros(200),
            }],
            exported: true,
        },
    );
    let mut clients = Vec::new();
    for i in 0..nodes {
        let n = b.topo().node(format!("anl-{i}"));
        b.topo().duplex_link(
            n,
            anl_sw,
            cfg.client_nic,
            SimDuration::from_micros(100),
            format!("anl-nic-{i}"),
        );
        clients.push(b.client(cluster, n, 16));
    }
    let (sim, w) = b.build();
    stream_all(sim, w, &clients, fs, 2 * GBYTE, Direction::Read)
}

/// Latency-tolerance sweep (ablation A1): one well-provisioned client
/// streams through a 10 Gb/s WAN path of varying RTT; returns
/// (rtt_ms, MB/s) pairs. With GPFS-style deep windows the curve stays
/// flat; with a small window it collapses — the SC'02 question answered.
pub fn run_latency_sweep(rtts_ms: &[u64], window: u64) -> Vec<(u64, f64)> {
    rtts_ms
        .iter()
        .map(|&rtt| {
            let mut b = WorldBuilder::new(77);
            b.key_bits(384);
            let client = b.topo().node("client");
            let servers = b.topo().node("servers");
            b.topo().duplex_link(
                client,
                servers,
                Bandwidth::gbit(10.0).scaled(TCP_EFF),
                SimDuration::from_millis(rtt / 2),
                "wan",
            );
            let cl = b.cluster("lat");
            let fs = b.filesystem(
                cl,
                FsParams {
                    config: FsConfig {
                        name: "fs".into(),
                        block_size: 1 << 20,
                        nsd_blocks: 1 << 26,
                        nsd_count: 32,
                        data_mode: DataMode::Synthetic,
                    },
                    manager: servers,
                    managers: 1,
                    nsd_servers: vec![servers],
                    storage_nodes: vec![],
                    backing: vec![NsdBacking::Ideal {
                        rate: Bandwidth::gbyte(4.0).bytes_per_sec(),
                        latency: SimDuration::from_micros(100),
                    }],
                    exported: true,
                },
            );
            let c = b.client(cl, client, 16);
            let (mut sim, mut w) = b.build();
            // Per-connection window under test; 32 NSD connections.
            w.costs.flow_window = window;
            let bytes = 20 * GBYTE;
            let finish = Rc::new(Cell::new(0u64));
            let f2 = finish.clone();
            gfs_stream(&mut sim, &mut w, c, fs, bytes, StreamDir::Read, 1, move |sim, _w| {
                f2.set(sim.now().as_nanos())
            });
            sim.run(&mut w);
            let secs = SimTime::from_nanos(finish.get()).as_secs_f64();
            (rtt, bytes as f64 / secs / MBYTE as f64)
        })
        .collect()
}

/// What bounds the farm in each direction (for EXPERIMENTS.md reporting).
pub fn bottleneck_report(cfg: &ProductionConfig) -> (f64, f64, f64) {
    let net = Bandwidth::gbit(f64::from(cfg.nsd_servers))
        .scaled(TCP_EFF)
        .scaled(NSD_SERVER_EFF)
        .bytes_per_sec()
        / GBYTE as f64;
    let read = cfg.farm.effective_bandwidth(IoKind::Read).bytes_per_sec() / GBYTE as f64;
    let write = cfg.farm.effective_bandwidth(IoKind::Write).bytes_per_sec() / GBYTE as f64;
    (net, read, write)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_read_plateaus_near_6_gbs() {
        let p = run_scaling_point(ProductionConfig::default(), 96, Direction::Read);
        let gbs = p.aggregate_gbyte_per_sec();
        assert!(
            (5.5..6.3).contains(&gbs),
            "96-node read {gbs:.2} GB/s (paper: almost 6)"
        );
    }

    #[test]
    fn fig11_write_plateaus_lower() {
        let r = run_scaling_point(ProductionConfig::default(), 96, Direction::Read);
        let w = run_scaling_point(ProductionConfig::default(), 96, Direction::Write);
        let (rg, wg) = (r.aggregate_gbyte_per_sec(), w.aggregate_gbyte_per_sec());
        assert!(
            wg < 0.75 * rg,
            "write {wg:.2} GB/s not clearly below read {rg:.2} GB/s"
        );
        assert!((3.0..4.6).contains(&wg), "write plateau {wg:.2} GB/s");
    }

    #[test]
    fn fig11_small_counts_scale_linearly() {
        let cfg = ProductionConfig::default();
        let p1 = run_scaling_point(cfg.clone(), 1, Direction::Read);
        let p8 = run_scaling_point(cfg, 8, Direction::Read);
        let r1 = p1.aggregate_mbyte_per_sec();
        let r8 = p8.aggregate_mbyte_per_sec();
        // One client ≈ its NIC goodput; 8 clients ≈ 8×.
        assert!((100.0..120.0).contains(&r1), "1 node = {r1:.0} MB/s");
        assert!(
            (r8 / r1 - 8.0).abs() < 0.5,
            "8-node speedup {:.2} not ~8x",
            r8 / r1
        );
    }

    #[test]
    fn a4_removing_parity_penalty_closes_the_gap() {
        let cfg = fig11_config_no_parity_penalty();
        let r = run_scaling_point(cfg.clone(), 96, Direction::Read);
        let w = run_scaling_point(cfg, 96, Direction::Write);
        let (rg, wg) = (r.aggregate_gbyte_per_sec(), w.aggregate_gbyte_per_sec());
        assert!(
            (wg - rg).abs() < 0.1 * rg,
            "without parity penalty write {wg:.2} should match read {rg:.2}"
        );
    }

    #[test]
    fn anl_sees_about_1_2_gbyte_per_sec() {
        let p = run_anl(32);
        let gbs = p.aggregate_gbyte_per_sec();
        assert!(
            (1.0..1.3).contains(&gbs),
            "ANL 32-node aggregate {gbs:.2} GB/s (paper ~1.2)"
        );
    }

    #[test]
    fn latency_sweep_flat_with_deep_windows() {
        let pts = run_latency_sweep(&[1, 80, 160], 16 * MBYTE);
        let at1 = pts[0].1;
        let at160 = pts[2].1;
        assert!(
            at160 > 0.9 * at1,
            "deep-window rate at 160ms ({at160:.0}) collapsed vs 1ms ({at1:.0})"
        );
    }

    #[test]
    fn latency_sweep_collapses_with_small_windows() {
        let pts = run_latency_sweep(&[1, 80], 256 * 1024);
        let at1 = pts[0].1;
        let at80 = pts[1].1;
        assert!(
            at80 < 0.4 * at1,
            "small-window rate at 80ms ({at80:.0}) should collapse vs 1ms ({at1:.0})"
        );
    }

    #[test]
    fn expansion_2006_doubles_the_read_ceiling() {
        // §8: doubled NICs move the network ceiling from ~6 to ~12 GB/s;
        // the petabyte farm keeps reads network-bound.
        let p = run_scaling_point(expansion_2006_config(), 192, Direction::Read);
        let gbs = p.aggregate_gbyte_per_sec();
        assert!(
            (11.0..12.5).contains(&gbs),
            "expanded read plateau {gbs:.2} GB/s (expect ~12)"
        );
        // Writes double too (64 trays instead of 32).
        let w = run_scaling_point(expansion_2006_config(), 192, Direction::Write);
        let wgbs = w.aggregate_gbyte_per_sec();
        assert!(
            (7.0..8.5).contains(&wgbs),
            "expanded write plateau {wgbs:.2} GB/s (expect ~7.7)"
        );
    }

    #[test]
    fn bottleneck_report_orders_ceilings() {
        let (net, read, write) = bottleneck_report(&ProductionConfig::default());
        // Network below farm read (reads are network-bound), farm write
        // below network (writes are media-bound): Fig. 11's structure.
        assert!(net < read, "net {net:.1} should be < farm read {read:.1}");
        assert!(write < net, "farm write {write:.1} should be < net {net:.1}");
    }
}
