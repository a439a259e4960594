//! Ablation studies isolating the design choices the paper's results rest
//! on (DESIGN.md experiments A1–A4; A1 lives in
//! [`crate::production::run_latency_sweep`], A4 in
//! [`crate::production::fig11_config_no_parity_penalty`]).
//!
//! * **A2 — GFS direct access vs GridFTP staging.** The paper's §1: NVO is
//!   "used more as a database", so moving all 50 TB to every site loses to
//!   reading the needed pieces in place. The crossover against the
//!   fraction of the dataset actually touched quantifies the argument.
//! * **A3 — block size × request pipelining.** GPFS's large blocks and
//!   deep prefetch are what let a WAN mount saturate; request-at-a-time
//!   I/O with small blocks collapses with distance.

use crate::common::TCP_EFF;
use gfs::stream::{run_stream, StreamSpec};
use gfs::world::{GfsWorld, WorldBuilder};
use gfs_auth::cipher::CipherMode;
use gridftp::TransferSpec;
use simcore::{Bandwidth, Sim, SimDuration, SimTime, GBYTE, MBYTE};
use simnet::NodeId;
use std::cell::Cell;
use std::rc::Rc;

/// One point of the A2 comparison.
#[derive(Clone, Copy, Debug)]
pub struct A2Point {
    /// Fraction of the dataset the application touches.
    pub fraction: f64,
    /// Time to completion using direct GFS partial access, seconds.
    pub gfs_seconds: f64,
    /// Time using GridFTP staging (move everything, then read locally),
    /// seconds.
    pub gridftp_seconds: f64,
}

/// A2 configuration.
#[derive(Clone, Debug)]
pub struct A2Config {
    /// Dataset size (50 TB in the paper; scale down for quick runs).
    pub dataset_bytes: u64,
    /// WAN rate between the sites.
    pub wan: Bandwidth,
    /// One-way WAN delay.
    pub one_way: SimDuration,
    /// Local disk rate at the compute site (for post-staging reads).
    pub local_rate: Bandwidth,
}

impl Default for A2Config {
    fn default() -> Self {
        A2Config {
            dataset_bytes: 1_000 * GBYTE, // 1 TB: a 1/50-scale NVO
            wan: Bandwidth::gbit(10.0).scaled(TCP_EFF),
            one_way: SimDuration::from_millis(30),
            local_rate: Bandwidth::gbyte(2.0),
        }
    }
}

fn wan_world(cfg: &A2Config) -> (Sim<GfsWorld>, GfsWorld, NodeId, NodeId) {
    let mut b = WorldBuilder::new(42);
    b.key_bits(384);
    let data_site = b.topo().node("data-site");
    let compute_site = b.topo().node("compute-site");
    b.topo()
        .duplex_link(data_site, compute_site, cfg.wan, cfg.one_way, "wan");
    b.cluster("a2");
    let (sim, w) = b.build();
    (sim, w, data_site, compute_site)
}

/// Run A2 across access fractions.
pub fn gfs_vs_gridftp(cfg: &A2Config, fractions: &[f64]) -> Vec<A2Point> {
    fractions
        .iter()
        .map(|&fraction| {
            assert!((0.0..=1.0).contains(&fraction));
            let touched = ((cfg.dataset_bytes as f64 * fraction) as u64).max(MBYTE);

            // GFS: read just the touched bytes across the WAN with deep
            // pipelining.
            let (mut sim, mut w, data, compute) = wan_world(cfg);
            let t = Rc::new(Cell::new(0u64));
            let t2 = t.clone();
            run_stream(
                &mut sim,
                &mut w,
                StreamSpec::read(compute, vec![data], touched).with_window(256 * MBYTE),
                move |sim, _w| t2.set(sim.now().as_nanos()),
            );
            sim.run(&mut w);
            let gfs_seconds = SimTime::from_nanos(t.get()).as_secs_f64();

            // GridFTP: stage the WHOLE dataset, then read the touched
            // bytes from local disk.
            let (mut sim, mut w, data, compute) = wan_world(cfg);
            let t = Rc::new(Cell::new(0u64));
            let t2 = t.clone();
            let spec = TransferSpec::new(data, compute, cfg.dataset_bytes)
                .with_streams(8)
                .with_window(32 * MBYTE);
            gridftp::transfer(&mut sim, &mut w, spec, move |sim, _w| {
                t2.set(sim.now().as_nanos())
            });
            sim.run(&mut w);
            let stage_seconds = SimTime::from_nanos(t.get()).as_secs_f64();
            let local_read = touched as f64 / cfg.local_rate.bytes_per_sec();

            A2Point {
                fraction,
                gfs_seconds,
                gridftp_seconds: stage_seconds + local_read,
            }
        })
        .collect()
}

/// One cell of the A3 matrix.
#[derive(Clone, Copy, Debug)]
pub struct A3Point {
    /// Request (block) size in bytes.
    pub block_size: u64,
    /// Concurrent server connections.
    pub servers: u32,
    /// Whether requests were pipelined (deep prefetch) or stop-and-wait.
    pub pipelined: bool,
    /// Achieved rate, MB/s.
    pub mbyte_per_sec: f64,
}

/// Run A3: stream 10 GB over an 80 ms-RTT 10 Gb/s WAN with the given
/// block sizes and server counts, pipelined or request-at-a-time.
pub fn blocksize_streams(
    block_sizes: &[u64],
    server_counts: &[u32],
    pipelined: bool,
) -> Vec<A3Point> {
    let mut out = Vec::new();
    for &bs in block_sizes {
        for &n in server_counts {
            let mut b = WorldBuilder::new(3);
            b.key_bits(384);
            let client = b.topo().node("client");
            let hub = b.topo().node("hub");
            b.topo().duplex_link(
                client,
                hub,
                Bandwidth::gbit(10.0).scaled(TCP_EFF),
                SimDuration::from_millis(40),
                "wan",
            );
            let mut endpoints = Vec::new();
            for i in 0..n {
                let s = b.topo().node(format!("srv-{i}"));
                b.topo().duplex_link(
                    s,
                    hub,
                    Bandwidth::gbit(1.0).scaled(TCP_EFF),
                    SimDuration::from_micros(100),
                    format!("s{i}"),
                );
                endpoints.push(s);
            }
            b.cluster("a3");
            let (mut sim, mut w) = b.build();
            let bytes = 10 * GBYTE;
            let mut spec = StreamSpec::read(client, endpoints, bytes);
            if pipelined {
                // Deep prefetch: many outstanding blocks per connection.
                spec = spec.with_window(16 * bs.max(MBYTE));
            } else {
                // Request-at-a-time: one block in flight per connection.
                spec = spec.with_chunk(bs).with_window(bs);
            }
            let t = Rc::new(Cell::new(0u64));
            let t2 = t.clone();
            run_stream(&mut sim, &mut w, spec, move |sim, _w| {
                t2.set(sim.now().as_nanos())
            });
            sim.run(&mut w);
            let secs = SimTime::from_nanos(t.get()).as_secs_f64();
            out.push(A3Point {
                block_size: bs,
                servers: n,
                pipelined,
                mbyte_per_sec: bytes as f64 / secs / MBYTE as f64,
            });
        }
    }
    out
}

/// Authentication-workflow measurement: the wall-clock cost of the §6.2
/// remote mount handshake across a WAN, with and without `cipherList`
/// traffic encryption.
#[derive(Clone, Copy, Debug)]
pub struct AuthReport {
    /// Measured WAN round-trip, seconds.
    pub rtt_seconds: f64,
    /// Mount latency with AUTHONLY, seconds.
    pub mount_authonly_seconds: f64,
    /// Mount latency with cipherList encryption, seconds.
    pub mount_encrypt_seconds: f64,
}

/// Run the handshake measurement over a link with the given one-way delay.
pub fn auth_handshake(one_way: SimDuration) -> AuthReport {
    use gfs::admin::connect_clusters;
    use gfs::fscore::FsConfig;
    use gfs::world::FsParams;
    use gfs_auth::handshake::AccessMode;

    let run_once = |cipher: CipherMode| -> (f64, f64) {
        let mut b = WorldBuilder::new(11);
        b.key_bits(512);
        let server = b.topo().node("server");
        let remote = b.topo().node("remote");
        b.topo().duplex_link(
            server,
            remote,
            Bandwidth::gbit(1.0).scaled(TCP_EFF),
            one_way,
            "wan",
        );
        let exp = b.cluster("export.site");
        let imp = b.cluster("import.site");
        b.filesystem(
            exp,
            FsParams::ideal(
                FsConfig::small_test("gpfs-x"),
                server,
                vec![server],
                Bandwidth::mbyte(400.0),
                SimDuration::from_micros(300),
            ),
        );
        let c = b.client(imp, remote, 16);
        let (mut sim, mut w) = b.build();
        connect_clusters(&mut w, exp, imp, "gpfs-x", AccessMode::ReadWrite, server);
        w.clusters[exp.0 as usize].auth.cipher_mode = cipher;
        let rtt = w.net.rtt(server, remote).as_secs_f64();
        let t = Rc::new(Cell::new(0u64));
        let t2 = t.clone();
        let sess = w.open_session(c);
        sess.mount(&mut sim, &mut w, "gpfs-x", AccessMode::ReadWrite, move |sim, _w, r| {
            r.unwrap();
            t2.set(sim.now().as_nanos());
        });
        sim.run(&mut w);
        (rtt, SimTime::from_nanos(t.get()).as_secs_f64())
    };

    let (rtt, plain) = run_once(CipherMode::AuthOnly);
    let (_, enc) = run_once(CipherMode::Encrypt);
    AuthReport {
        rtt_seconds: rtt,
        mount_authonly_seconds: plain,
        mount_encrypt_seconds: enc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2_partial_access_wins_when_fraction_small() {
        let pts = gfs_vs_gridftp(&A2Config::default(), &[0.01, 0.5, 1.0]);
        // 1% touched: direct access must win by a wide margin.
        assert!(
            pts[0].gridftp_seconds > 20.0 * pts[0].gfs_seconds,
            "at 1%: gridftp {:.0}s vs gfs {:.0}s",
            pts[0].gridftp_seconds,
            pts[0].gfs_seconds
        );
        // Full scan: staging moves the same bytes over the WAN, plus one
        // local re-read pass — the ratio approaches
        // 1 + wan_rate/local_rate rather than the 100x of partial access.
        let ratio = pts[2].gridftp_seconds / pts[2].gfs_seconds;
        assert!(
            (0.9..2.0).contains(&ratio),
            "at 100%: ratio {ratio:.2} should be near 1+wan/local"
        );
        // Times increase with fraction for GFS.
        assert!(pts[0].gfs_seconds < pts[1].gfs_seconds);
        assert!(pts[1].gfs_seconds < pts[2].gfs_seconds);
    }

    #[test]
    fn a3_pipelining_dominates_at_wan_distance() {
        let stop_wait = blocksize_streams(&[256 * 1024, 4 * MBYTE], &[8], false);
        let piped = blocksize_streams(&[256 * 1024, 4 * MBYTE], &[8], true);
        // Stop-and-wait with small blocks collapses.
        assert!(
            stop_wait[0].mbyte_per_sec < 50.0,
            "256KB stop-and-wait gave {:.0} MB/s",
            stop_wait[0].mbyte_per_sec
        );
        // Bigger blocks help stop-and-wait...
        assert!(stop_wait[1].mbyte_per_sec > 4.0 * stop_wait[0].mbyte_per_sec);
        // ...but pipelining saturates the servers regardless of block size.
        for p in &piped {
            assert!(
                p.mbyte_per_sec > 800.0,
                "pipelined {:?} only {:.0} MB/s",
                p.block_size,
                p.mbyte_per_sec
            );
        }
    }

    #[test]
    fn a3_more_servers_more_throughput_when_pipelined() {
        let pts = blocksize_streams(&[MBYTE], &[1, 4, 8], true);
        assert!(pts[0].mbyte_per_sec < pts[1].mbyte_per_sec);
        assert!(pts[1].mbyte_per_sec < pts[2].mbyte_per_sec);
    }

    #[test]
    fn auth_handshake_costs_a_few_rtts() {
        let r = auth_handshake(SimDuration::from_millis(30));
        // 2 round trips of messages + crypto time: between 2 and 4 RTTs.
        assert!(r.mount_authonly_seconds > 1.9 * r.rtt_seconds);
        assert!(
            r.mount_authonly_seconds < 4.0 * r.rtt_seconds,
            "mount {:.3}s vs rtt {:.3}s",
            r.mount_authonly_seconds,
            r.rtt_seconds
        );
        // Encryption adds session-key work but stays the same order.
        assert!(r.mount_encrypt_seconds >= r.mount_authonly_seconds);
        assert!(r.mount_encrypt_seconds < 2.0 * r.mount_authonly_seconds);
    }
}
