//! The worldwide replication campaign — the replica subsystem's flagship
//! scenario.
//!
//! A home cluster ("home", 4 NSD servers, the `nvo` device) serves a hot
//! working set and a bulk NVO survey catalog. Three remote sites hang off
//! 10 Gb/s WAN paths at 25/40/55 ms one-way; each hosts its own replica
//! farm (site-a hosts two, so near-equidistant sources exercise the
//! split fan-out path). The campaign runs in phases inside one world:
//!
//! 1. **Populate** — a home writer creates the hot files through the
//!    ordinary session write path.
//! 2. **Single-home baseline** — every remote reader streams the hot set
//!    over the WAN; the modeled elapsed time is the baseline rate.
//! 3. **Replicate hot set** — GridFTP ships the hot bytes to every
//!    replica farm; [`gfs::replica::ReplicaCatalog::install_copy`]
//!    catalogs each copy.
//! 4. **Replicated reads + bulk campaign** — a fresh cohort of readers
//!    re-streams the hot set (now served by local replica farms) while
//!    GridFTP filesets fan the multi-TB bulk catalog out to all three
//!    sites; arriving bulk replicas feed the HSM cold tier, whose
//!    watermark sweeps migrate them disk → tape.
//! 5. **Write-invalidate** — the home writer overwrites a hot file,
//!    invalidating every copy; a cross-site read falls back home, the
//!    copies are re-replicated, and a final read lands on the replica
//!    farm again.
//!
//! The run ends with a full drain, `fsck_instance`, and the
//! `world_invariants` sweep (which now includes replica coherence).
//! Everything measured is modeled time, so the per-point
//! [`CampaignReport`] is bit-identical across sweep-thread counts.

use crate::builder::{NsdFarm, ScenarioBuilder};
use crate::chaos::world_invariants;
use crate::driver::{chunked, run_files};
use crate::parallel::{run_indexed, sweep_threads};
use gfs::fsck_instance;
use gfs::session::Session;
use gfs::stream::StreamDir;
use gfs::types::{FsError, InodeId, OpenFlags, Owner};
use gfs::world::{Counters, GfsWorld};
use gfs_auth::handshake::AccessMode;
use gridftp::TransferSpec;
use hsm::manager::{Hsm, HsmPolicy};
use hsm::tape::{TapeLibrary, TapeSpec};
use simcore::{Bandwidth, Join, SimDuration, SimTime};
use simnet::NodeId;
use std::cell::Cell;
use std::rc::Rc;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
const GIB: u64 = 1024 * MIB;
const TIB: u64 = 1024 * GIB;

/// Flow tag for replica-install and bulk-campaign GridFTP traffic.
pub const CAMPAIGN_TAG: u32 = 71;

/// Campaign shape. Every field feeds the model; none is an output.
#[derive(Clone, Debug)]
pub struct ReplicationConfig {
    /// Determinism seed (each sweep point derives its own).
    pub seed: u64,
    /// Independent seeded worlds to run (merged in index order).
    pub points: usize,
    /// Hot working-set files.
    pub hot_files: usize,
    /// Bytes per hot file.
    pub hot_file_bytes: u64,
    /// Bytes per read/write call (32 MiB ⇒ 8-block same-NSD runs on the
    /// 4-way-striped home farm, long enough to split across sources).
    pub chunk_bytes: u64,
    /// Readers per remote site in each read cohort.
    pub readers_per_site: usize,
    /// Gross WAN rate, home ↔ each site.
    pub wan_gbit: f64,
    /// One-way WAN delays per remote site, ms.
    pub delays_ms: [u64; 3],
    /// Files in the bulk NVO catalog.
    pub bulk_files: usize,
    /// Wire bytes per bulk file shipped in the campaign. The in-core
    /// namespace carries the catalog sparsely (1 GiB stubs) so fsck walks
    /// stay cheap; the flow layer, replica accounting and cold tier all
    /// move the full wire size.
    pub bulk_wire_bytes: u64,
    /// Cold-tier disk cache capacity at the replica sites (smaller than
    /// the arriving bulk bytes, so watermark migration must run).
    pub tier_capacity: u64,
    /// Tape drives on the cold tier's library.
    pub tape_drives: u32,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            seed: 2005,
            points: 2,
            hot_files: 3,
            hot_file_bytes: 64 * MIB,
            chunk_bytes: 32 * MIB,
            readers_per_site: 2,
            wan_gbit: 10.0,
            delays_ms: [25, 40, 55],
            bulk_files: 25,
            bulk_wire_bytes: 2 * TIB,
            tier_capacity: 10 * TIB,
            tape_drives: 8,
        }
    }
}

impl ReplicationConfig {
    /// Total wire bytes the bulk campaign fans out (all sites).
    pub fn campaign_bytes(&self) -> u64 {
        self.bulk_files as u64 * self.bulk_wire_bytes * 3
    }
}

/// One sweep point's result — all integers, so cross-thread bit-identity
/// is plain `==`.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct CampaignReport {
    /// Hot bytes streamed per read phase (same for both cohorts).
    pub hot_bytes: u64,
    /// Modeled time for the single-home baseline cohort, ns.
    pub home_elapsed_ns: u64,
    /// Modeled time for the replicated cohort, ns.
    pub replica_elapsed_ns: u64,
    /// Wire bytes the bulk campaign moved.
    pub campaign_bytes: u64,
    /// Modeled time from campaign launch to the last site's completion, ns.
    pub campaign_elapsed_ns: u64,
    /// Disk → tape bytes the cold tier wrote.
    pub migrated_bytes: u64,
    /// Copies current at drain.
    pub current_copies: u64,
    /// Generation high watermark.
    pub max_gen: u64,
    /// `fsck_instance` errors (replica coherence included) — must be zero.
    pub fsck_errors: u64,
    /// `world_invariants` violations — must be zero.
    pub invariant_violations: u64,
    /// Session-surface read/write errors — must be zero.
    pub io_errors: u64,
    /// The drained world's counters ([`GfsWorld::counters`]): events, the
    /// catalog's picks, fan-outs, installs and invalidations, the data path.
    pub counters: Counters,
}

impl CampaignReport {
    /// Baseline (single-home) hot-set read rate, bytes/sec of modeled time.
    pub fn home_rate(&self) -> f64 {
        self.hot_bytes as f64 / (self.home_elapsed_ns as f64 / 1e9).max(1e-12)
    }

    /// Replicated hot-set read rate, bytes/sec of modeled time.
    pub fn replica_rate(&self) -> f64 {
        self.hot_bytes as f64 / (self.replica_elapsed_ns as f64 / 1e9).max(1e-12)
    }

    /// The headline ratio: replicated rate over single-home rate,
    /// both measured in the same run.
    pub fn speedup(&self) -> f64 {
        self.replica_rate() / self.home_rate().max(1e-12)
    }

    /// Mean winning-source score per planned run, ms.
    pub fn mean_pick_ms(&self) -> f64 {
        let hits = self.counters.get("replica.catalog_hits");
        self.counters.get("replica.pick_score_ns") as f64 / 1e6 / (hits as f64).max(1.0)
    }

    /// All coherence/correctness gates in one place.
    pub fn is_clean(&self) -> bool {
        self.counters.get("replica.stale_reads") == 0
            && self.fsck_errors == 0
            && self.invariant_violations == 0
            && self.io_errors == 0
    }
}

/// Shared error tally: session-surface failures anywhere in a phase chain.
type ErrSink = Rc<Cell<u64>>;

fn note_err(errs: &ErrSink, r: &Result<impl Sized, FsError>) {
    if r.is_err() {
        errs.set(errs.get() + 1);
    }
}

/// A join over `n` chains that notes the instant the last one finished;
/// phases synchronize by draining the sim.
fn cohort(n: usize) -> (Join<GfsWorld>, Rc<Cell<Option<SimTime>>>) {
    let end = Rc::new(Cell::new(None));
    let e = end.clone();
    let join = Join::<GfsWorld>::new(n, move |sim, _, _| e.set(Some(sim.now())));
    (join, end)
}

/// Run one campaign point on its own seeded world.
pub fn run_campaign_point(cfg: &ReplicationConfig, point: usize) -> CampaignReport {
    let site_names = ["site-a", "site-b", "site-c"];
    let mut sb = ScenarioBuilder::new(cfg.seed.wrapping_add(point as u64 * 7919));
    let fs = sb.nsd_farm("home", NsdFarm::new("nvo", 4));
    for (name, ms) in site_names.iter().zip(cfg.delays_ms) {
        sb.wan(
            "home",
            name,
            Bandwidth::gbit(cfg.wan_gbit),
            SimDuration::from_millis(ms),
            &format!("wan-{name}"),
        );
    }

    // Replica farms: two co-located at site-a (near-equidistant sources
    // for the split fan-out path), one each at b and c. Campaign bulk
    // copies land on the first farm of each physical site.
    let farm_homes: [(&str, &str); 4] = [
        ("rep-a0", "site-a"),
        ("rep-a1", "site-a"),
        ("rep-b0", "site-b"),
        ("rep-c0", "site-c"),
    ];
    let mut farm_servers: Vec<Vec<NodeId>> = Vec::new();
    for (farm, site) in farm_homes {
        let sw = sb.site(site);
        let mut servers = Vec::new();
        for j in 0..2 {
            let name = format!("{farm}-srv{j}");
            let n = sb.world_builder().topo().node(name.clone());
            sb.world_builder().topo().duplex_link(
                n,
                sw,
                Bandwidth::gbit(10.0),
                SimDuration::from_micros(50),
                name,
            );
            servers.push(n);
        }
        farm_servers.push(servers);
    }

    // GridFTP door nodes at home: dedicated 10 GbE data movers (one per
    // destination site) that read the SAN out-of-band, so the bulk
    // campaign rides door NICs instead of queueing behind the NSD
    // servers' GbE ports.
    let doors: Vec<NodeId> = (0..3)
        .map(|i| {
            let home_sw = sb.site("home");
            let name = format!("gftp-door{i}");
            let n = sb.world_builder().topo().node(name.clone());
            sb.world_builder().topo().duplex_link(
                n,
                home_sw,
                Bandwidth::gbit(10.0),
                SimDuration::from_micros(50),
                name,
            );
            n
        })
        .collect();

    let nic = Bandwidth::gbit(10.0);
    let dly = SimDuration::from_micros(100);
    let writer = sb.clients("home", 1, nic, dly, 64)[0];
    // Three cohorts per site: baseline readers, replicated readers, and
    // one post-invalidate prober — separate mount contexts so each phase
    // starts with a cold page pool.
    let mut readers_home: Vec<Session> = Vec::new();
    let mut readers_rep: Vec<Session> = Vec::new();
    let mut probes: Vec<Session> = Vec::new();
    for name in site_names {
        readers_home.extend(sb.clients(name, cfg.readers_per_site as u32, nic, dly, 64));
        readers_rep.extend(sb.clients(name, cfg.readers_per_site as u32, nic, dly, 64));
        probes.push(sb.clients(name, 1, nic, dly, 64)[0]);
    }

    let run = sb.run(SimTime::ZERO);
    let (mut sim, mut w) = (run.sim, run.world);
    sim.set_horizon(SimTime::from_secs(1_000_000));
    let errs: ErrSink = Rc::new(Cell::new(0));

    // --- Setup: namespace stubs, mounts, hot-set population. ---
    let owner = Owner::local(0, 0);
    w.fss[fs.0 as usize]
        .core
        .mkdir("/hot", owner.clone(), 0)
        .expect("mkdir /hot");
    w.fss[fs.0 as usize]
        .core
        .mkdir("/bulk", owner.clone(), 0)
        .expect("mkdir /bulk");
    for sess in std::iter::once(&writer)
        .chain(&readers_home)
        .chain(&readers_rep)
        .chain(&probes)
    {
        let errs = errs.clone();
        sess.mount(&mut sim, &mut w, "nvo", AccessMode::ReadWrite, move |_, _, r| {
            note_err(&errs, &r);
        });
    }
    sim.run(&mut w);

    let hot_paths: Vec<String> = (0..cfg.hot_files).map(|i| format!("/hot/f{i}")).collect();
    {
        let (files, end) = cohort(cfg.hot_files);
        for p in &hot_paths {
            let (p, errs, files) = (p.clone(), errs.clone(), files.clone());
            let wl = chunked(StreamDir::Write, cfg.hot_file_bytes, cfg.chunk_bytes);
            run_files(&mut sim, &mut w, writer, vec![p], OpenFlags::Write, wl, move |sim, w, r| {
                note_err(&errs, &r);
                files.arrive(sim, w, Ok(()))
            });
        }
        sim.run(&mut w);
        end.get().expect("hot-set population stalled");
    }
    let hot_inodes: Vec<InodeId> = hot_paths
        .iter()
        .map(|p| w.fss[fs.0 as usize].core.lookup(p).expect("hot file exists"))
        .collect();

    // Attach the replica farms and wire the cold tier.
    let farm_ids: Vec<u32> = farm_homes
        .iter()
        .zip(&farm_servers)
        .map(|((farm, _), servers)| {
            w.fss[fs.0 as usize].replicas.attach_site(
                farm,
                servers.clone(),
                4,
                1e9,
                SimDuration::from_micros(200),
            )
        })
        .collect();
    w.fss[fs.0 as usize].replicas.enable_tier(Hsm::new(
        HsmPolicy::with_capacity(cfg.tier_capacity),
        TapeLibrary::new(TapeSpec::stk_2005(), cfg.tape_drives),
        None,
    ));

    // --- Phase 2: single-home baseline. The hot files are not yet
    // cataloged, so every read takes the legacy home path over the WAN.
    // Every reader reads the hot set last file first. ---
    let read_order: Vec<String> = hot_paths.iter().rev().cloned().collect();
    let hot_read = chunked(StreamDir::Read, cfg.hot_file_bytes, cfg.chunk_bytes);
    let t_a = sim.now() + SimDuration::from_secs(1);
    let (readers, end_a) = cohort(readers_home.len());
    for sess in &readers_home {
        let sess = *sess;
        let (paths, wl, errs) = (read_order.clone(), hot_read.clone(), errs.clone());
        let readers = readers.clone();
        sim.at(t_a, move |sim, w| {
            run_files(sim, w, sess, paths, OpenFlags::Read, wl, move |sim, w, r| {
                note_err(&errs, &r);
                readers.arrive(sim, w, Ok(()))
            });
        });
    }
    sim.run(&mut w);
    let end_a = end_a.get().expect("baseline read cohort stalled");
    let home_elapsed_ns = (end_a - t_a).as_nanos();
    let hot_bytes = readers_home.len() as u64 * cfg.hot_files as u64 * cfg.hot_file_bytes;

    // --- Phase 3: replicate the hot set to every farm over GridFTP. ---
    let hot_total = cfg.hot_files as u64 * cfg.hot_file_bytes;
    for (i, (&farm_id, servers)) in farm_ids.iter().zip(&farm_servers).enumerate() {
        let spec =
            TransferSpec::new(doors[i % doors.len()], servers[0], hot_total).with_tag(CAMPAIGN_TAG);
        let inodes = hot_inodes.clone();
        let per_file = cfg.hot_file_bytes;
        gridftp::transfer(&mut sim, &mut w, spec, move |_sim, w: &mut GfsWorld| {
            for ino in inodes {
                w.fss[fs.0 as usize]
                    .replicas
                    .install_copy(ino, farm_id, per_file);
            }
        });
    }
    sim.run(&mut w);

    // Bulk catalog: sparse namespace stubs; wire bytes ride the campaign.
    let bulk_inodes: Vec<InodeId> = (0..cfg.bulk_files)
        .map(|i| {
            let core = &mut w.fss[fs.0 as usize].core;
            let id = core
                .create_file(&format!("/bulk/part{i:02}"), owner.clone(), 0)
                .expect("bulk stub");
            core.truncate(id, GIB, 0).expect("bulk stub sparse size");
            w.fss[fs.0 as usize].replicas.register(id);
            id
        })
        .collect();

    // --- Phase 4: replicated reads while the bulk campaign fans out. ---
    let t_b = sim.now() + SimDuration::from_secs(1);
    let (readers, end_b) = cohort(readers_rep.len());
    for sess in &readers_rep {
        let sess = *sess;
        let (paths, wl, errs) = (read_order.clone(), hot_read.clone(), errs.clone());
        let readers = readers.clone();
        sim.at(t_b, move |sim, w| {
            run_files(sim, w, sess, paths, OpenFlags::Read, wl, move |sim, w, r| {
                note_err(&errs, &r);
                readers.arrive(sim, w, Ok(()))
            });
        });
    }
    // One sequential fileset per physical site (farms a0, b0, c0), all
    // three fanning out in parallel; each arriving site's copies feed the
    // catalog and the cold tier.
    let campaign_last = Rc::new(Cell::new(SimTime::ZERO));
    for (slot, farm_idx) in [0usize, 2, 3].iter().enumerate() {
        let dst = farm_servers[*farm_idx][0];
        let farm_id = farm_ids[*farm_idx];
        // Long-fat-pipe tuning: 8 parallel streams x 16 MiB windows keep
        // the aggregate window above the 10 Gb/s x 110 ms
        // bandwidth-delay product, so the campaign is WAN-limited rather
        // than window/RTT-limited (the default 4 x 1 MiB would stretch
        // the fan-out past the sim horizon).
        let template = TransferSpec::new(doors[slot], dst, cfg.bulk_wire_bytes)
            .with_streams(8)
            .with_window(16 * MIB)
            .with_tag(CAMPAIGN_TAG);
        let sizes = vec![cfg.bulk_wire_bytes; cfg.bulk_files];
        let inodes = bulk_inodes.clone();
        let wire = cfg.bulk_wire_bytes;
        let campaign_last = campaign_last.clone();
        let site_salt = slot as u64;
        sim.at(t_b, move |sim, w| {
            gridftp::transfer_fileset(sim, w, template, sizes, move |sim, w: &mut GfsWorld| {
                let now = sim.now();
                let cat = &mut w.fss[fs.0 as usize].replicas;
                for (k, ino) in inodes.iter().enumerate() {
                    cat.install_copy(*ino, farm_id, wire);
                    cat.tier_ingest(now, site_salt * 1000 + k as u64, wire);
                }
                campaign_last.set(campaign_last.get().max(now));
            });
        });
    }

    // --- Phase 5: write-invalidate, cross-site fallback, re-replicate. ---
    // Fixed offsets leave generous slack after the replicated cohort
    // (which finishes in well under a second of modeled time).
    let inval_path = hot_paths[0].clone();
    let inval_ino = hot_inodes[0];
    {
        let (path, errs) = (inval_path.clone(), errs.clone());
        let wl = chunked(StreamDir::Write, cfg.chunk_bytes, cfg.chunk_bytes);
        sim.at(t_b + SimDuration::from_secs(60), move |sim, w| {
            run_files(sim, w, writer, vec![path], OpenFlags::Write, wl, move |_, _, r| {
                note_err(&errs, &r)
            });
        });
    }
    {
        // Post-invalidate probe: the catalog entry exists but no copy is
        // current, so this read must come from home (a catalog miss, never
        // a stale serve).
        let (path, errs) = (inval_path.clone(), errs.clone());
        let (probe, wl) = (probes[0], chunked(StreamDir::Read, cfg.chunk_bytes, cfg.chunk_bytes));
        sim.at(t_b + SimDuration::from_secs(90), move |sim, w| {
            run_files(sim, w, probe, vec![path], OpenFlags::Read, wl, move |_, _, r| {
                note_err(&errs, &r)
            });
        });
    }
    {
        // Re-replicate the invalidated file at its new generation...
        let farm_ids = farm_ids.clone();
        let servers0: Vec<NodeId> = farm_servers.iter().map(|s| s[0]).collect();
        let doors = doors.clone();
        let bytes = cfg.hot_file_bytes;
        sim.at(t_b + SimDuration::from_secs(120), move |sim, w| {
            for (i, (&farm_id, &dst)) in farm_ids.iter().zip(&servers0).enumerate() {
                let spec = TransferSpec::new(doors[i % doors.len()], dst, bytes)
                    .with_tag(CAMPAIGN_TAG);
                gridftp::transfer(sim, w, spec, move |_sim, w: &mut GfsWorld| {
                    w.fss[fs.0 as usize]
                        .replicas
                        .install_copy(inval_ino, farm_id, bytes);
                });
            }
        });
    }
    {
        // ...and a second probe lands back on its local replica farm.
        let (path, errs) = (inval_path, errs.clone());
        let (probe, wl) = (probes[1], chunked(StreamDir::Read, cfg.chunk_bytes, cfg.chunk_bytes));
        sim.at(t_b + SimDuration::from_secs(200), move |sim, w| {
            run_files(sim, w, probe, vec![path], OpenFlags::Read, wl, move |_, _, r| {
                note_err(&errs, &r)
            });
        });
    }

    // Drain everything — replicated reads, the invalidate sequence, and
    // the multi-hour bulk fan-out.
    sim.run(&mut w);
    let end_b = end_b.get().expect("replicated read cohort stalled");
    let replica_elapsed_ns = (end_b - t_b).as_nanos();
    let campaign_elapsed_ns = (campaign_last.get() - t_b).as_nanos();

    // Final cold-tier watermark sweep, then audit.
    let now = sim.now();
    w.fss[fs.0 as usize].replicas.tier_sweep(now);
    let fsck = fsck_instance(&w.fss[fs.0 as usize]);
    let violations = world_invariants(&sim, &w);
    for v in &violations {
        eprintln!("replication campaign: invariant violated: {v}");
    }
    let replicas = &w.fss[fs.0 as usize].replicas;
    CampaignReport {
        hot_bytes,
        home_elapsed_ns,
        replica_elapsed_ns,
        campaign_bytes: cfg.campaign_bytes(),
        campaign_elapsed_ns,
        migrated_bytes: replicas.migrated_bytes(),
        current_copies: replicas.current_copies(),
        max_gen: replicas.counters.max_gen,
        fsck_errors: fsck.errors.len() as u64,
        invariant_violations: violations.len() as u64,
        io_errors: errs.get(),
        counters: w.counters(&sim),
    }
}

/// Run every sweep point on `threads` workers; results merge in point
/// order, so the vector is the determinism fingerprint.
pub fn run_campaign_with_threads(cfg: &ReplicationConfig, threads: usize) -> Vec<CampaignReport> {
    run_indexed(cfg.points, threads, |i| run_campaign_point(cfg, i))
}

/// Run the campaign with the default sweep-thread count.
pub fn run_campaign(cfg: &ReplicationConfig) -> Vec<CampaignReport> {
    run_campaign_with_threads(cfg, sweep_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::pattern_bytes;
    use bytes::Bytes;
    use gfs::FaultPlan;
    use std::cell::RefCell;

    fn small() -> ReplicationConfig {
        ReplicationConfig {
            points: 2,
            bulk_files: 6,
            bulk_wire_bytes: 512 * GIB,
            tier_capacity: TIB,
            ..ReplicationConfig::default()
        }
    }

    #[test]
    fn campaign_hits_speedup_and_stays_coherent() {
        for (i, r) in run_campaign_with_threads(&small(), 1).iter().enumerate() {
            assert!(r.is_clean(), "point {i} unclean: {r:?}");
            assert!(
                r.speedup() >= 2.0,
                "point {i}: speedup {:.2} < 2 (home {:.1} MB/s, replica {:.1} MB/s)",
                r.speedup(),
                r.home_rate() / 1e6,
                r.replica_rate() / 1e6,
            );
            let n = |name| r.counters.get(name);
            assert!(n("replica.remote_picks") > 0, "no segment was served by a replica");
            assert!(n("replica.split_fanouts") > 0, "no run split across sources");
            let invalidations = n("replica.invalidations");
            assert!(invalidations >= 4, "write did not invalidate every copy: {invalidations}");
            assert!(n("replica.catalog_misses") > 0, "post-invalidate read did not miss");
            assert!(r.migrated_bytes > 0, "cold tier never migrated to tape");
            assert!(
                n("replica.replicated_bytes") >= r.campaign_bytes,
                "campaign bytes not accounted"
            );
            assert!(r.max_gen >= 1, "write did not bump the generation");
        }
    }

    #[test]
    fn campaign_fingerprint_is_thread_invariant() {
        let cfg = small();
        let serial = run_campaign_with_threads(&cfg, 1);
        let sweep = run_campaign_with_threads(&cfg, 8);
        assert_eq!(serial, sweep, "campaign diverges across sweep threads");
    }

    /// The chaos satellite: a write-invalidate racing a cross-site read
    /// while the writer's site partitions. The reader must see either the
    /// pre-write bytes (from a still-valid replica) or the post-write
    /// bytes (from home, after the invalidation) — never a torn mix, and
    /// never a stale serve after invalidation.
    fn race(read_delay_ms: u64, write_delay_ms: u64, flap: bool) {
        const FILE: u64 = 4 * MIB;
        let mut sb = ScenarioBuilder::new(77);
        let fs = sb.nsd_farm(
            "home",
            NsdFarm::new("d", 2).stored_data().block_size(256 * KIB),
        );
        sb.wan(
            "home",
            "edge",
            Bandwidth::gbit(1.0),
            SimDuration::from_millis(30),
            "race-wan",
        );
        let sw = sb.site("edge");
        let mut rep = Vec::new();
        for j in 0..2 {
            let name = format!("rep-edge-srv{j}");
            let n = sb.world_builder().topo().node(name.clone());
            sb.world_builder().topo().duplex_link(
                n,
                sw,
                Bandwidth::gbit(10.0),
                SimDuration::from_micros(50),
                name,
            );
            rep.push(n);
        }
        let writer = sb.clients("home", 1, Bandwidth::gbit(10.0), SimDuration::from_micros(100), 64)[0];
        let reader = sb.clients("edge", 1, Bandwidth::gbit(10.0), SimDuration::from_micros(100), 64)[0];
        let run = sb.run(SimTime::ZERO);
        let (mut sim, mut w) = (run.sim, run.world);
        sim.set_horizon(SimTime::from_secs(10_000));
        let errs: ErrSink = Rc::new(Cell::new(0));

        for sess in [writer, reader] {
            let errs = errs.clone();
            sess.mount(&mut sim, &mut w, "d", AccessMode::ReadWrite, move |_, _, r| {
                note_err(&errs, &r);
            });
        }
        sim.run(&mut w);
        {
            let errs = errs.clone();
            let wl = chunked(StreamDir::Write, FILE, FILE);
            run_files(&mut sim, &mut w, writer, vec!["/f".into()], OpenFlags::Write, wl, move |_, _, r| {
                note_err(&errs, &r)
            });
        }
        sim.run(&mut w);

        let ino = w.fss[fs.0 as usize].core.lookup("/f").expect("file exists");
        let site = w.fss[fs.0 as usize].replicas.attach_site(
            "rep-edge",
            rep,
            4,
            1e9,
            SimDuration::from_micros(200),
        );
        w.fss[fs.0 as usize].replicas.install_copy(ino, site, FILE);

        let t0 = sim.now();
        if flap {
            // Partition the writer's site off the WAN mid-race.
            gfs::inject(
                &mut sim,
                &FaultPlan::new().link_flap(
                    t0 + SimDuration::from_millis(read_delay_ms.min(write_delay_ms) + 20),
                    "race-wan",
                    SimDuration::from_millis(500),
                ),
            );
        }
        let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
        {
            let (got, errs) = (got.clone(), errs.clone());
            sim.at(t0 + SimDuration::from_millis(read_delay_ms), move |sim, w| {
                reader.open(
                    sim,
                    w,
                    "/f",
                    OpenFlags::Read,
                    Owner::local(0, 0),
                    move |sim, w, r| {
                        note_err(&errs, &r);
                        let Ok(h) = r else { return };
                        reader.read(sim, w, h, 0, FILE, move |_sim, _w, r| {
                            *got.borrow_mut() = Some(r.expect("race read"));
                        });
                    },
                );
            });
        }
        {
            let errs = errs.clone();
            // The overwrite's bytes are no pattern the driver writes.
            sim.at(t0 + SimDuration::from_millis(write_delay_ms), move |sim, w| {
                writer.open(sim, w, "/f", OpenFlags::Write, Owner::local(0, 0), move |sim, w, r| {
                    note_err(&errs, &r);
                    let Ok(h) = r else { return };
                    let data = Bytes::from(vec![0xB7u8; FILE as usize]);
                    writer.write(sim, w, h, 0, data, move |sim, w, r| {
                        note_err(&errs, &r);
                        writer.close(sim, w, h, move |_, _, r| note_err(&errs, &r));
                    });
                });
            });
        }
        sim.run(&mut w);

        let got = got.borrow();
        let got = got.as_ref().expect("race read completed");
        let pre = pattern_bytes(0, FILE);
        let post = Bytes::from(vec![0xB7u8; FILE as usize]);
        assert!(
            got[..] == pre[..] || got[..] == post[..],
            "torn read: saw neither pre-write nor post-write bytes \
             (read {read_delay_ms}ms, write {write_delay_ms}ms, flap {flap})"
        );
        assert_eq!(errs.get(), 0, "session-surface errors during the race");
        let inst = &w.fss[fs.0 as usize];
        assert_eq!(inst.replicas.counters.stale_reads, 0, "stale replica serve");
        let fsck = fsck_instance(inst);
        assert!(fsck.is_clean(), "post-race fsck: {:?}", fsck.errors);
        let violations = world_invariants(&sim, &w);
        assert!(violations.is_empty(), "invariants violated: {violations:?}");
    }

    #[test]
    fn invalidate_race_read_first_never_torn() {
        race(10, 40, true);
    }

    #[test]
    fn invalidate_race_write_first_never_torn() {
        race(120, 10, true);
    }

    #[test]
    fn invalidate_race_without_partition_never_torn() {
        race(30, 30, false);
    }
}

