//! DEISA (paper §7, Fig. 12): the world's first production multi-cluster
//! GPFS deployment — four European core sites (CINECA, FZJ, IDRIS, RZG)
//! each exporting its own filesystem to all the others over a 1 Gb/s WAN,
//! with a *unified UID space* (so no GSI mapping layer is needed).
//!
//! Paper results: "I/O rates of more than 100 Mbytes/s, thus hitting the
//! theoretical limit of the network connection", demonstrated with a
//! plasma-physics turbulence code doing direct I/O to disks "hundreds of
//! kilometers away".

use crate::common::TCP_EFF;
use gfs::admin::connect_clusters;
use gfs::fscore::{DataMode, FsConfig};
use gfs::stream::{gfs_stream, StreamDir};
use gfs::types::{ClientId, ClusterId, FsId};
use gfs::world::{FsParams, WorldBuilder};
use gfs_auth::handshake::AccessMode;
use simcore::{Bandwidth, SimDuration, SimTime, MBYTE};
use simnet::NodeId;
use std::cell::Cell;
use std::rc::Rc;

/// The four DEISA core sites.
pub const SITES: [&str; 4] = ["cineca", "fzj", "idris", "rzg"];

/// One-way delays from each site to the GÉANT hub, ms.
const SITE_DELAY_MS: [u64; 4] = [8, 5, 6, 7];

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct DeisaConfig {
    /// WAN link rate between each site and the hub (1 Gb/s in 2005).
    pub wan: Bandwidth,
    /// Bytes the plasma-physics code moves per measurement.
    pub io_bytes: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeisaConfig {
    fn default() -> Self {
        DeisaConfig {
            wan: Bandwidth::gbit(1.0),
            io_bytes: 2_000 * MBYTE,
            seed: 2005,
        }
    }
}

/// Scenario output.
#[derive(Clone, Debug)]
pub struct DeisaResult {
    /// Remote mounts that succeeded (site, remote device).
    pub mounts: Vec<(String, String)>,
    /// Measured (reader site, serving site, MB/s) for the plasma-code
    /// direct-I/O runs.
    pub io_rates: Vec<(String, String, f64)>,
    /// The network-limit goodput in MB/s (what the paper says they hit).
    pub network_limit_mbs: f64,
}

struct Site {
    cluster: ClusterId,
    fs: FsId,
    client: ClientId,
    gw: NodeId,
}

/// Run the DEISA multi-cluster deployment.
pub fn run(cfg: DeisaConfig) -> DeisaResult {
    let mut b = WorldBuilder::new(cfg.seed);
    b.key_bits(512);
    let hub = b.topo().node("geant-hub");
    let mut sites = Vec::new();
    for (i, name) in SITES.iter().enumerate() {
        let gw = b.topo().node(format!("{name}-gw"));
        let servers = b.topo().node(format!("{name}-servers"));
        b.topo().duplex_link(
            gw,
            hub,
            cfg.wan.scaled(TCP_EFF),
            SimDuration::from_millis(SITE_DELAY_MS[i]),
            format!("{name}-wan"),
        );
        b.topo().duplex_link(
            servers,
            gw,
            Bandwidth::gbit(8.0),
            SimDuration::from_micros(100),
            format!("{name}-lan"),
        );
        let cluster = b.cluster(format!("{name}.deisa.org"));
        let fs = b.filesystem(
            cluster,
            FsParams::ideal(
                FsConfig {
                    name: format!("gpfs-{name}"),
                    block_size: 1 << 20,
                    nsd_blocks: 1 << 24,
                    nsd_count: 8,
                    data_mode: DataMode::Synthetic,
                },
                servers,
                vec![servers],
                Bandwidth::mbyte(400.0),
                SimDuration::from_micros(300),
            ),
        );
        let client = b.client(cluster, gw, 64);
        sites.push((cluster, fs, client, gw, servers));
    }
    let (mut sim, mut w) = b.build();

    // Full-mesh mmauth/mmremotecluster/mmremotefs wiring: each site
    // exports its filesystem to every other site.
    let site_infos: Vec<Site> = sites
        .iter()
        .map(|&(cluster, fs, client, gw, _srv)| Site {
            cluster,
            fs,
            client,
            gw,
        })
        .collect();
    for (i, _) in SITES.iter().enumerate() {
        for (j, _) in SITES.iter().enumerate() {
            if i == j {
                continue;
            }
            let exporter = site_infos[i].cluster;
            let importer = site_infos[j].cluster;
            let device = format!("gpfs-{}", SITES[i]);
            // Contact node: the exporting site's gateway.
            connect_clusters(&mut w, exporter, importer, &device, AccessMode::ReadWrite, site_infos[i].gw);
        }
    }

    // Mount everything everywhere (the common global file system): 12
    // remote mounts, each running the real RSA handshake over the WAN.
    let mounted: Rc<Cell<u32>> = Rc::new(Cell::new(0));
    let mut mounts = Vec::new();
    for (j, site) in site_infos.iter().enumerate() {
        for (i, exp_name) in SITES.iter().enumerate() {
            if i == j {
                continue;
            }
            let device = format!("gpfs-{exp_name}");
            mounts.push((SITES[j].to_string(), device.clone()));
            let mounted = mounted.clone();
            let sess = w.open_session(site.client);
            sess.mount(
                &mut sim,
                &mut w,
                &device,
                AccessMode::ReadWrite,
                move |_s, _w, r| {
                    r.unwrap_or_else(|e| panic!("DEISA mount failed: {e}"));
                    mounted.set(mounted.get() + 1);
                },
            );
        }
    }
    sim.run(&mut w);
    assert_eq!(mounted.get(), 12, "all 12 cross mounts must succeed");

    // Plasma-physics direct I/O: each site reads from one remote site in
    // turn (sequentially, so each measurement sees an unloaded WAN).
    let mut io_rates = Vec::new();
    for j in 0..SITES.len() {
        let i = (j + 1) % SITES.len();
        let reader = &site_infos[j];
        let serving_fs = site_infos[i].fs;
        let start = sim.now();
        let done = Rc::new(Cell::new(0u64));
        let d2 = done.clone();
        gfs_stream(
            &mut sim,
            &mut w,
            reader.client,
            serving_fs,
            cfg.io_bytes,
            StreamDir::Read,
            1,
            move |sim, _w| d2.set(sim.now().as_nanos()),
        );
        sim.run(&mut w);
        let secs = SimTime::from_nanos(done.get()).since(start).as_secs_f64();
        io_rates.push((
            SITES[j].to_string(),
            SITES[i].to_string(),
            cfg.io_bytes as f64 / secs / MBYTE as f64,
        ));
    }

    DeisaResult {
        mounts,
        io_rates,
        network_limit_mbs: cfg.wan.scaled(TCP_EFF).as_mbyte_per_sec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sites_cross_mount_and_hit_network_limit() {
        let r = run(DeisaConfig::default());
        assert_eq!(r.mounts.len(), 12);
        assert_eq!(r.io_rates.len(), 4);
        for (reader, server, mbs) in &r.io_rates {
            // "more than 100 Mbytes/s, thus hitting the theoretical limit"
            assert!(
                *mbs > 100.0,
                "{reader}<-{server}: {mbs:.1} MB/s below the paper's 100"
            );
            assert!(
                *mbs <= r.network_limit_mbs + 1.0,
                "{reader}<-{server}: {mbs:.1} exceeds the 1 Gb/s limit"
            );
            assert!(
                *mbs > 0.95 * r.network_limit_mbs,
                "{reader}<-{server}: {mbs:.1} MB/s not at the network limit ({:.1})",
                r.network_limit_mbs
            );
        }
    }

    #[test]
    fn fatter_wan_raises_the_limit() {
        let cfg = DeisaConfig {
            wan: Bandwidth::gbit(10.0),
            io_bytes: 4_000 * MBYTE,
            ..Default::default()
        };
        let r = run(cfg);
        for (_, _, mbs) in &r.io_rates {
            // Now bounded by the 400 MB/s site filesystems instead.
            assert!(*mbs > 350.0, "10G WAN run stuck at {mbs:.0} MB/s");
        }
    }
}
