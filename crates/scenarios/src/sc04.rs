//! SC'04 (paper §4, Figs. 6–8): the true grid prototype — 40 dual-IA64
//! NSD servers in the SDSC booth at Pittsburgh serving ~160 TB of
//! StorCloud disk over **three** 10 Gb/s SciNet links to the TeraGrid;
//! Enzo on DataStar writing its output directly to the show-floor GPFS;
//! then network-limited sorting (both directions) and visualization at
//! NCSA.
//!
//! Paper results:
//! * Fig. 8: individual links wander between 7 and 9 Gb/s; the aggregate
//!   is "relatively stable at approximately 24 Gb/s" with a momentary
//!   peak over 27 Gb/s (SciNet Bandwidth Challenge winner);
//!   reads ≈ writes; SDSC ≈ NCSA.
//! * On the show floor: ~15 GB/s of filesystem transfer against a 30 GB/s
//!   theoretical SAN (120 × 2 Gb/s FC links).

use crate::common::{self, TCP_EFF};
use gfs::fscore::{DataMode, FsConfig};
use gfs::stream::{gfs_stream, StreamDir};
use gfs::types::{ClientId, FsId};
use gfs::world::{Counters, FsParams, GfsWorld, WorldBuilder};
use simcore::{Bandwidth, Sim, SimDuration, SimTime, Summary, TimeSeries, GBIT, GBYTE};
use simnet::Network;
use simsan::{FarmSpec, IoKind};

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct Sc04Config {
    /// SciNet links from the booth (3 × 10 GbE in the paper).
    pub scinet_links: u32,
    /// Per-link goodput efficiency.
    pub link_eff: f64,
    /// Per-link capacity wander (drives the 7–9 Gb/s spread of Fig. 8).
    pub link_jitter: f64,
    /// Total observed window.
    pub duration: SimDuration,
    /// Length of the initial Enzo phase.
    pub enzo_phase: SimDuration,
    /// Length of each read/write alternation in the challenge phase.
    pub alternation: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Sc04Config {
    fn default() -> Self {
        Sc04Config {
            scinet_links: 3,
            link_eff: 0.80,
            link_jitter: 0.13,
            duration: SimDuration::from_secs(600),
            enzo_phase: SimDuration::from_secs(60),
            alternation: SimDuration::from_secs(90),
            seed: 2004,
        }
    }
}

/// Scenario output.
#[derive(Clone, Debug)]
pub struct Sc04Result {
    /// Per-link utilization in Gb/s (both directions summed), Fig. 8 style.
    pub link_series: Vec<TimeSeries>,
    /// The aggregate curve.
    pub aggregate: TimeSeries,
    /// Aggregate steady-state summary (challenge phase only), Gb/s.
    pub aggregate_steady: Summary,
    /// Per-link steady summaries, Gb/s.
    pub link_steady: Vec<Summary>,
    /// Peak of the aggregate curve, Gb/s.
    pub peak_gbs: f64,
    /// Per-site traffic series (SDSC, NCSA) in Gb/s — the paper's
    /// "rates between the show floor and both NCSA and SDSC were
    /// virtually identical".
    pub site_series: (TimeSeries, TimeSeries),
    /// Show-floor SAN numbers (theoretical, achieved) in GB/s.
    pub san_theoretical_gbyte: f64,
    /// Measured-model show-floor filesystem rate, GB/s.
    pub san_achieved_gbyte: f64,
    /// The world's counters ([`GfsWorld::counters`]) after the run.
    pub counters: Counters,
}

/// Filesystem-level efficiency of the show-floor SAN path (GPFS overhead
/// on top of raw link capacity).
const SAN_FS_EFF: f64 = 0.88;

/// Run the SC'04 demonstration.
pub fn run(cfg: Sc04Config) -> Sc04Result {
    let mut b = WorldBuilder::new(cfg.seed);
    b.key_bits(384);

    // Booth: the 40 servers are split into one group per SciNet link, so
    // striped traffic exercises all links (as the real demo balanced its
    // NSD connections).
    let hub = b.topo().node("tg-hub");
    let sdsc = b.topo().node("sdsc-datastar");
    let ncsa = b.topo().node("ncsa");
    b.topo().duplex_link(
        hub,
        sdsc,
        Bandwidth::gbit(30.0).scaled(TCP_EFF),
        SimDuration::from_millis(common::delay_ms::SDSC_LA + common::delay_ms::LA_CHICAGO),
        "sdsc-site",
    );
    b.topo().duplex_link(
        hub,
        ncsa,
        Bandwidth::gbit(30.0).scaled(TCP_EFF),
        SimDuration::from_millis(common::delay_ms::CHICAGO_NCSA + 10),
        "ncsa-site",
    );

    let farm = FarmSpec::storcloud_sc04();
    let mut servers = Vec::new();
    let mut storages = Vec::new();
    for i in 0..cfg.scinet_links {
        let grp = b.topo().node(format!("booth-grp-{i}"));
        // Group storage share: a third of the StorCloud farm.
        let mut share = farm.clone();
        share.arrays = farm.arrays / cfg.scinet_links;
        let storage = share.attach(b.topo(), grp, &format!("storcloud-{i}"));
        let (up, down) = b.topo().duplex_link(
            grp,
            hub,
            Bandwidth::gbit(10.0).scaled(cfg.link_eff),
            SimDuration::from_millis(common::delay_ms::SHOWFLOOR_HUB),
            format!("scinet-{i}"),
        );
        b.topo().set_jitter(up, cfg.link_jitter);
        b.topo().set_jitter(down, cfg.link_jitter);
        servers.push(grp);
        storages.push(storage);
    }

    let booth = b.cluster("sc04-booth");
    let fs = b.filesystem(
        booth,
        FsParams {
            config: FsConfig {
                name: "gpfs-sc04".into(),
                block_size: 1 << 20,
                nsd_blocks: 1 << 24,
                nsd_count: 40,
                data_mode: DataMode::Synthetic,
            },
            manager: servers[0],
            managers: 1,
            nsd_servers: servers.clone(),
            storage_nodes: storages,
            backing: vec![gfs::world::NsdBacking::Ideal {
                rate: Bandwidth::gbyte(1.0).bytes_per_sec(),
                latency: SimDuration::from_micros(200),
            }],
            exported: true,
        },
    );
    let datastar = b.client(booth, sdsc, 16);
    let ncsa_client = b.client(booth, ncsa, 16);
    let (mut sim, mut w) = b.build();

    Network::enable_monitoring(&mut sim, &mut w, SimDuration::from_secs(1));
    w.net.register_tag(1, "sdsc-traffic");
    w.net.register_tag(2, "ncsa-traffic");

    // Phase 1 — Enzo writes output to the StorCloud GPFS (~1 TB/h does
    // not stress 30 Gb/s; here: two checkpoint bursts inside the phase).
    let burst = 45 * GBYTE; // ≈ a 1 TB/h checkpoint pair
    gfs_stream(&mut sim, &mut w, datastar, fs, burst, StreamDir::Write, 0, |_s, _w| {});

    // Phase 2 — the bandwidth-challenge alternation: network-limited sort
    // traffic in alternating directions from both sites, plus NCSA
    // visualization reads. Scheduled as repeating fixed windows.
    let alternations =
        ((cfg.duration.as_secs_f64() - cfg.enzo_phase.as_secs_f64())
            / cfg.alternation.as_secs_f64())
        .ceil() as u32;
    let alt = cfg.alternation;
    // Oversize each alternation's demand; stale flows are cancelled at
    // the next boundary, so links stay saturated without direction overlap.
    let per_alt_bytes = (3.0 * 10.0 * GBIT * cfg.link_eff * alt.as_secs_f64() * 1.5) as u64;
    for k in 0..alternations {
        let start = cfg.enzo_phase + alt * u64::from(k);
        let dir = if k % 2 == 0 {
            StreamDir::Read
        } else {
            StreamDir::Write
        };
        sim.at(SimTime::ZERO + start, move |sim, w| {
            run_alternation(sim, w, datastar, ncsa_client, fs, per_alt_bytes, dir);
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn run_alternation(
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        sdsc: ClientId,
        ncsa: ClientId,
        fs: FsId,
        bytes: u64,
        dir: StreamDir,
    ) {
        // Replace the previous alternation's traffic, then both sites
        // drive half the demand in the new direction.
        Network::cancel_tagged(sim, w, 1);
        Network::cancel_tagged(sim, w, 2);
        gfs_stream(sim, w, sdsc, fs, bytes / 2, dir, 1, |_s, _w| {});
        gfs_stream(sim, w, ncsa, fs, bytes / 2, dir, 2, |_s, _w| {});
    }

    let horizon = SimTime::ZERO + cfg.duration;
    sim.set_horizon(horizon);
    sim.run(&mut w);
    let all = w.net.finish_monitoring(horizon);

    let mut link_series = Vec::new();
    for i in 0..cfg.scinet_links {
        let mut s = common::duplex_sum(&all, &format!("scinet-{i}"));
        for p in &mut s.points {
            p.value /= GBIT;
        }
        link_series.push(s);
    }
    let aggregate = common::sum_series("aggregate", &link_series);
    let mut sdsc_series = common::series_named(&all, "sdsc-traffic");
    let mut ncsa_series = common::series_named(&all, "ncsa-traffic");
    for p in sdsc_series.points.iter_mut().chain(ncsa_series.points.iter_mut()) {
        p.value /= GBIT;
    }

    let steady_window = |s: &TimeSeries| -> Vec<f64> {
        let from = SimTime::ZERO + cfg.enzo_phase + SimDuration::from_secs(5);
        let to = horizon;
        s.points
            .iter()
            .filter(|p| p.t > from && p.t < to && p.value > 1.0)
            .map(|p| p.value)
            .collect()
    };
    let aggregate_steady = Summary::of(&steady_window(&aggregate));
    let link_steady: Vec<Summary> = link_series
        .iter()
        .map(|s| Summary::of(&steady_window(s)))
        .collect();

    // Show-floor SAN: theoretical = 120 × 2 Gb/s FC = 30 GB/s; achieved =
    // min(farm service rate, HBA aggregate) × filesystem efficiency.
    let hba_aggregate = 120.0 * Bandwidth::gbit(2.0).bytes_per_sec() * 0.95;
    let farm_rate = farm.effective_bandwidth(IoKind::Read).bytes_per_sec();
    let san_achieved = farm_rate.min(hba_aggregate) * SAN_FS_EFF / GBYTE as f64;

    Sc04Result {
        peak_gbs: aggregate.max(),
        aggregate_steady,
        link_steady,
        link_series,
        aggregate,
        site_series: (sdsc_series, ncsa_series),
        san_theoretical_gbyte: 120.0 * Bandwidth::gbit(2.0).bytes_per_sec() / GBYTE as f64,
        san_achieved_gbyte: san_achieved,
        counters: w.counters(&sim),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig8_aggregate() {
        let r = run(Sc04Config::default());
        // "relatively stable at approximately 24 Gb/s"
        assert!(
            (22.5..25.5).contains(&r.aggregate_steady.mean),
            "aggregate mean {:.1} Gb/s (paper ~24)",
            r.aggregate_steady.mean
        );
        // "momentary peak was over 27 Gb/s"
        assert!(
            r.peak_gbs > 25.5,
            "aggregate peak {:.1} Gb/s (paper >27)",
            r.peak_gbs
        );
    }

    #[test]
    fn links_wander_between_7_and_9() {
        let r = run(Sc04Config::default());
        for (i, s) in r.link_steady.iter().enumerate() {
            assert!(
                (7.0..9.6).contains(&s.mean) || (s.min >= 6.5 && s.max <= 9.8),
                "link {i} steady {:?} outside the 7–9 Gb/s band",
                s
            );
            assert!(s.max - s.min > 0.5, "link {i} shows no wander");
        }
    }

    #[test]
    fn sites_see_virtually_identical_rates() {
        // "Rates between the show floor and both NCSA and SDSC were
        // virtually identical": compare the per-site tagged series over
        // the challenge phase.
        let r = run(Sc04Config::default());
        let (sdsc, ncsa) = &r.site_series;
        let m_sdsc = common::steady_mean(sdsc, 70, 590);
        let m_ncsa = common::steady_mean(ncsa, 70, 590);
        assert!(m_sdsc > 5.0 && m_ncsa > 5.0, "sites idle: {m_sdsc} / {m_ncsa}");
        assert!(
            (m_sdsc - m_ncsa).abs() < 0.1 * m_sdsc.max(m_ncsa),
            "site rates differ: sdsc {m_sdsc:.2} vs ncsa {m_ncsa:.2} Gb/s"
        );
    }

    #[test]
    fn showfloor_san_numbers() {
        let r = run(Sc04Config::default());
        assert!(
            (29.0..31.0).contains(&r.san_theoretical_gbyte),
            "SAN theoretical {:.1} GB/s (paper 30)",
            r.san_theoretical_gbyte
        );
        assert!(
            (13.0..17.0).contains(&r.san_achieved_gbyte),
            "SAN achieved {:.1} GB/s (paper ~15)",
            r.san_achieved_gbyte
        );
    }

    #[test]
    fn enzo_phase_does_not_stress_links() {
        let r = run(Sc04Config::default());
        // During the Enzo-only phase, aggregate stays well below capacity.
        let enzo_mean = common::steady_mean(&r.aggregate, 5, 55);
        assert!(
            enzo_mean < 15.0,
            "Enzo phase mean {enzo_mean:.1} Gb/s should be modest"
        );
        assert!(enzo_mean > 1.0, "Enzo phase shows no traffic");
    }
}
