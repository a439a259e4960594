//! Unified scenario assembly: one builder for sites, links, NSD farms,
//! workloads and fault plans.
//!
//! The paper's testbeds ([`crate::sc02`] … [`crate::production`]) each
//! assemble a [`WorldBuilder`] by hand; this module is the common shape
//! those assemblies share, factored into an API:
//!
//! ```text
//! ScenarioBuilder::new(seed)
//!     .site("sdsc")               — a machine-room switch
//!     .site("ncsa")
//!     .wan("sdsc", "ncsa", 10 Gb/s, 30 ms, "teragrid")
//!     .nsd_farm("sdsc", NsdFarm::new("gpfs-wan", 64))
//!     .clients("ncsa", 8, GbE, 100 µs)
//!     .workload(Workload::phased(...))
//!     .faults(FaultPlan::new().server_crash(...))
//!     .run(horizon)
//! ```
//!
//! [`ScenarioBuilder::run`] wires everything into the event engine —
//! monitoring first, then the fault plan, then the workloads — and returns
//! a [`ScenarioRun`] carrying the monitored series, per-workload outcomes,
//! and the simulator and world themselves (with the world's
//! [`gfs::RecoveryLog`]) so tests can keep driving (read-back
//! verification, fsck) after the run.

use crate::common::{NSD_SERVER_EFF, TCP_EFF};
use crate::driver::{self, Target, WorkloadStats};
use bytes::Bytes;
use gfs::fscore::{DataMode, FsConfig};
use gfs::session::Session;
use gfs::stream::StreamDir;
use gfs::types::{FsError, FsId, OpenFlags};
use gfs::world::{FsParams, GfsWorld, NsdBacking, WorldBuilder};
use gfs::{inject, FaultPlan};
use gfs_auth::handshake::AccessMode;
use simcore::{Bandwidth, Sim, SimDuration, SimTime, TimeSeries};
use simnet::{Network, NodeId};
use simsan::ArraySpec;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// An NSD server farm: `servers` distinct server nodes (named
/// `"{device}-srv{i}"`, each on its own NIC link `"{device}-srv{i}"`)
/// serving one filesystem. Distinct nodes — unlike the aggregated
/// `"nsd-farm"` pseudo-node of the figure-scale scenarios — are what fault
/// plans need: you can crash exactly one of 64.
#[derive(Clone, Debug)]
pub struct NsdFarm {
    /// Device (filesystem) name.
    pub device: String,
    /// Number of NSD server nodes.
    pub servers: u32,
    /// Per-server NIC goodput (GbE × TCP × daemon efficiency by default).
    pub server_nic: Bandwidth,
    /// Filesystem block size.
    pub block_size: u64,
    /// NSD (logical disk) count; defaults to one per server.
    pub nsd_count: u32,
    /// Blocks per NSD.
    pub nsd_blocks: u64,
    /// Per-server media service rate (Ideal backing).
    pub media_rate: Bandwidth,
    /// Per-request media latency.
    pub media_latency: SimDuration,
    /// Whether block payloads are stored (byte fidelity) or synthetic.
    pub data_mode: DataMode,
    /// When set, NSDs are backed by a detailed [`simsan`] array (NSD `i` →
    /// RAID set `i % raid_sets`) instead of the Ideal queue — required for
    /// [`gfs::FaultKind::DiskFail`] experiments.
    pub array: Option<ArraySpec>,
    /// Cooperating namespace manager instances (subtree-sharded). Shard 0
    /// lives on the farm's first server; shards 1.. are homed round-robin
    /// across the rest.
    pub managers: u32,
}

impl NsdFarm {
    /// A farm of `servers` GbE servers serving device `device`, with
    /// generous ideal media behind each server.
    pub fn new(device: impl Into<String>, servers: u32) -> Self {
        assert!(servers > 0, "farm needs at least one server");
        NsdFarm {
            device: device.into(),
            servers,
            server_nic: Bandwidth::gbit(1.0).scaled(TCP_EFF).scaled(NSD_SERVER_EFF),
            block_size: 1 << 20,
            nsd_count: servers,
            nsd_blocks: 1 << 16,
            media_rate: Bandwidth::gbyte(1.0),
            media_latency: SimDuration::from_micros(200),
            data_mode: DataMode::Synthetic,
            array: None,
            managers: 1,
        }
    }

    /// Store block payloads — needed for end-to-end data verification.
    pub fn stored_data(mut self) -> Self {
        self.data_mode = DataMode::Stored;
        self
    }

    /// Set the filesystem block size.
    pub fn block_size(mut self, bytes: u64) -> Self {
        self.block_size = bytes;
        self
    }

    /// Set the per-server NIC goodput.
    pub fn server_nic(mut self, nic: Bandwidth) -> Self {
        self.server_nic = nic;
        self
    }

    /// Back the NSDs with a detailed array model (enables spindle-failure
    /// fault injection).
    pub fn array_backed(mut self, spec: ArraySpec) -> Self {
        self.array = Some(spec);
        self
    }

    /// Partition the namespace across `m` cooperating manager instances.
    pub fn managers(mut self, m: u32) -> Self {
        assert!(m > 0, "need at least one namespace manager");
        self.managers = m;
        self
    }

    /// The name of server node `i`, as a fault plan would address it.
    pub fn server_name(&self, i: u32) -> String {
        format!("{}-srv{}", self.device, i)
    }
}

/// One driven workload: a [`workloads`] phase list that
/// [`crate::driver`] runs. Workloads are addressed by [`Session`] — the
/// redesigned client surface — never by raw `ClientId`.
#[derive(Clone, Debug)]
pub enum Workload {
    /// A phase list run through the streaming path (compute gaps
    /// honoured, reads/writes as flow-level streams of the session's
    /// mount context).
    Phased {
        /// Driving session.
        session: Session,
        /// Target filesystem.
        fs: FsId,
        /// The phase list.
        workload: workloads::Workload,
        /// Monitoring tag.
        tag: u32,
        /// Start time.
        start: SimTime,
    },
    /// A phase list run on a file through the per-block operation path:
    /// mount `device`, open `path` with `flags`, run, close (which
    /// flushes). Exercises tokens, caching, and the NSD
    /// timeout/retry/failover machinery.
    File {
        /// Driving session.
        session: Session,
        /// Device to mount.
        device: String,
        /// File path.
        path: String,
        /// Open flags.
        flags: OpenFlags,
        /// The phase list.
        workload: workloads::Workload,
        /// Start time.
        start: SimTime,
    },
}

impl Workload {
    /// Convenience: a phased workload starting at t=0.
    pub fn phased(session: Session, fs: FsId, workload: workloads::Workload, tag: u32) -> Self {
        Workload::Phased {
            session,
            fs,
            workload,
            tag,
            start: SimTime::from_nanos(0),
        }
    }

    /// Convenience: create `path` and write `bytes` of deterministic
    /// [`pattern_bytes`] data in `chunk`-sized calls, starting at t=0.
    pub fn file_write(
        session: Session,
        device: impl Into<String>,
        path: impl Into<String>,
        bytes: u64,
        chunk: u64,
    ) -> Self {
        Workload::file(session, device, path, OpenFlags::Write, StreamDir::Write, bytes, chunk)
    }

    /// Convenience: a sequential read of an existing file in
    /// `chunk`-sized calls, starting at t=0 (pair with an earlier
    /// [`Workload::file_write`]).
    pub fn file_read(
        session: Session,
        device: impl Into<String>,
        path: impl Into<String>,
        bytes: u64,
        chunk: u64,
    ) -> Self {
        Workload::file(session, device, path, OpenFlags::Read, StreamDir::Read, bytes, chunk)
    }

    fn file(
        session: Session,
        device: impl Into<String>,
        path: impl Into<String>,
        flags: OpenFlags,
        dir: StreamDir,
        bytes: u64,
        chunk: u64,
    ) -> Self {
        Workload::File {
            session,
            device: device.into(),
            path: path.into(),
            flags,
            workload: crate::driver::chunked(dir, bytes, chunk),
            start: SimTime::from_nanos(0),
        }
    }

    /// Shift the workload's start time.
    pub fn starting_at(mut self, t: SimTime) -> Self {
        match &mut self {
            Workload::Phased { start, .. } | Workload::File { start, .. } => *start = t,
        }
        self
    }
}

/// The deterministic byte at file offset `off` in the data a
/// [`crate::driver`] `Write` phase puts on a handle (a position-dependent pattern, so torn or misplaced blocks are
/// detected on read-back).
pub fn pattern_byte(off: u64) -> u8 {
    (off.wrapping_mul(131).wrapping_add(off >> 8)) as u8
}

/// `len` pattern bytes starting at file offset `off`.
///
/// Within one 256-byte segment `off >> 8` is constant, so the pattern is a
/// fixed 256-entry table shifted by the segment index — each segment is a
/// table add the compiler vectorizes, instead of a per-byte multiply.
/// Produces exactly the same bytes as mapping [`pattern_byte`] over the
/// range (the randomized test below pins that equivalence).
pub fn pattern_bytes(off: u64, len: u64) -> Bytes {
    const TABLE: [u8; 256] = {
        let mut t = [0u8; 256];
        let mut i = 0usize;
        while i < 256 {
            t[i] = (i as u64).wrapping_mul(131) as u8;
            i += 1;
        }
        t
    };
    let mut out = vec![0u8; len as usize];
    let mut pos = 0usize;
    let mut cur = off;
    while pos < len as usize {
        let idx = (cur & 0xff) as usize;
        let n = (256 - idx).min(len as usize - pos);
        let shift = (cur >> 8) as u8;
        for (o, t) in out[pos..pos + n].iter_mut().zip(&TABLE[idx..idx + n]) {
            *o = t.wrapping_add(shift);
        }
        pos += n;
        cur += n as u64;
    }
    Bytes::from(out)
}

/// Scenario assembly: sites, links, farms, clients, workloads, faults.
pub struct ScenarioBuilder {
    b: WorldBuilder,
    cluster: gfs::types::ClusterId,
    sites: BTreeMap<String, NodeId>,
    workloads: Vec<Workload>,
    plan: FaultPlan,
    sample: Option<SimDuration>,
    client_seq: u32,
}

/// Everything a finished scenario run yields. The simulator and world are
/// returned live so tests can fsck, read files back, or extend the run.
pub struct ScenarioRun {
    /// The event engine, drained.
    pub sim: Sim<GfsWorld>,
    /// The world after the run.
    pub world: GfsWorld,
    /// Monitored per-link series (empty unless `sample_every` was set).
    pub series: Vec<TimeSeries>,
    /// Workloads that completed successfully.
    pub completed: usize,
    /// `(workload index, error)` for workloads that failed.
    pub errors: Vec<(usize, FsError)>,
    /// Completion time of the last workload to finish.
    pub finish: SimTime,
}

#[derive(Default)]
struct RunState {
    completed: usize,
    errors: Vec<(usize, FsError)>,
    finish: SimTime,
}

impl ScenarioBuilder {
    /// Start a scenario with a global determinism seed.
    pub fn new(seed: u64) -> Self {
        let mut b = WorldBuilder::new(seed);
        b.key_bits(384);
        let cluster = b.cluster("scenario");
        ScenarioBuilder {
            b,
            cluster,
            sites: BTreeMap::new(),
            workloads: Vec::new(),
            plan: FaultPlan::new(),
            sample: None,
            client_seq: 0,
        }
    }

    /// A site: one switch node named `name`, created on first mention.
    pub fn site(&mut self, name: &str) -> NodeId {
        if let Some(&n) = self.sites.get(name) {
            return n;
        }
        let n = self.b.topo().node(name);
        self.sites.insert(name.to_string(), n);
        n
    }

    /// A raw duplex link between two sites at exactly `capacity`.
    pub fn link(
        &mut self,
        a: &str,
        z: &str,
        capacity: Bandwidth,
        one_way: SimDuration,
        name: &str,
    ) -> &mut Self {
        let (an, zn) = (self.site(a), self.site(z));
        self.b.topo().duplex_link(an, zn, capacity, one_way, name);
        self
    }

    /// A WAN path between two sites: `gross` line rate scaled by TCP
    /// efficiency.
    pub fn wan(
        &mut self,
        a: &str,
        z: &str,
        gross: Bandwidth,
        one_way: SimDuration,
        name: &str,
    ) -> &mut Self {
        self.link(a, z, gross.scaled(TCP_EFF), one_way, name)
    }

    /// Attach an NSD farm to a site; returns the filesystem. Server `i` is
    /// node `"{device}-srv{i}"`, reachable by that name in fault plans.
    pub fn nsd_farm(&mut self, site: &str, farm: NsdFarm) -> FsId {
        let sw = self.site(site);
        let mut servers = Vec::with_capacity(farm.servers as usize);
        for i in 0..farm.servers {
            let name = farm.server_name(i);
            let n = self.b.topo().node(name.clone());
            self.b
                .topo()
                .duplex_link(n, sw, farm.server_nic, SimDuration::from_micros(50), name);
            servers.push(n);
        }
        let backing = match &farm.array {
            Some(spec) => {
                let idx = self.b.array(spec.clone());
                (0..farm.nsd_count)
                    .map(|i| NsdBacking::Array {
                        array: idx,
                        set: i % spec.raid_sets,
                    })
                    .collect()
            }
            None => vec![NsdBacking::Ideal {
                rate: farm.media_rate.bytes_per_sec(),
                latency: farm.media_latency,
            }],
        };
        self.b.filesystem(
            self.cluster,
            FsParams {
                config: FsConfig {
                    name: farm.device.clone(),
                    block_size: farm.block_size,
                    nsd_blocks: farm.nsd_blocks,
                    nsd_count: farm.nsd_count,
                    data_mode: farm.data_mode,
                },
                manager: servers[0],
                managers: farm.managers,
                nsd_servers: servers,
                storage_nodes: vec![],
                backing,
                exported: true,
            },
        )
    }

    /// `count` client nodes at a site, each on its own `nic`-rate link
    /// (`"nic-{site}-{i}"`), with `pool_pages` pages of block cache.
    /// Returns one [`Session`] per node: a 1:1 session over a dedicated
    /// mount context, whose metadata ops travel as one-op envelopes unless
    /// several land in the same instant.
    pub fn clients(
        &mut self,
        site: &str,
        count: u32,
        nic: Bandwidth,
        delay: SimDuration,
        pool_pages: usize,
    ) -> Vec<Session> {
        let sw = self.site(site);
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let i = self.client_seq;
            self.client_seq += 1;
            let n = self.b.topo().node(format!("c-{site}-{i}"));
            self.b
                .topo()
                .duplex_link(n, sw, nic, delay, format!("nic-{site}-{i}"));
            let c = self.b.client(self.cluster, n, pool_pages);
            out.push(Session(self.b.session(c)));
        }
        out
    }

    /// `count` flyweight sessions at a site, packed `per_mount` to a shared
    /// mount context (node `"mc-{site}-{i}"`, GbE NIC, 64-page pool).
    /// Sessions on a shared context batch same-instant metadata RPCs into
    /// fan-in envelopes — this is how a site hosts 100k simulated users.
    pub fn sessions(&mut self, site: &str, count: u32, per_mount: u32) -> Vec<Session> {
        assert!(per_mount > 0, "sessions need a positive per_mount");
        let sw = self.site(site);
        let mut out = Vec::with_capacity(count as usize);
        let mut ctx = None;
        for j in 0..count {
            if j % per_mount == 0 {
                let i = self.client_seq;
                self.client_seq += 1;
                let n = self.b.topo().node(format!("mc-{site}-{i}"));
                self.b.topo().duplex_link(
                    n,
                    sw,
                    Bandwidth::gbit(1.0),
                    SimDuration::from_micros(100),
                    format!("nic-mc-{site}-{i}"),
                );
                ctx = Some(self.b.client(self.cluster, n, 64));
            }
            out.push(Session(self.b.session(ctx.expect("context exists"))));
        }
        out
    }

    /// Queue a workload.
    pub fn workload(&mut self, wl: Workload) -> &mut Self {
        self.workloads.push(wl);
        self
    }

    /// Install the fault plan (replaces any previous one).
    pub fn faults(&mut self, plan: FaultPlan) -> &mut Self {
        self.plan = plan;
        self
    }

    /// Record per-link rate series on this sampling period.
    pub fn sample_every(&mut self, dt: SimDuration) -> &mut Self {
        self.sample = Some(dt);
        self
    }

    /// Escape hatch to the underlying [`WorldBuilder`] for anything the
    /// high-level API doesn't cover.
    pub fn world_builder(&mut self) -> &mut WorldBuilder {
        &mut self.b
    }

    /// Build the world, inject the fault plan, launch every workload, and
    /// run the event loop until it drains or `horizon` is reached. The
    /// horizon is a hard stop: it bounds the monitoring series and also the
    /// self-rescheduling sampler, so pick it past the expected finish.
    pub fn run(self, horizon: SimTime) -> ScenarioRun {
        let ScenarioBuilder {
            b,
            workloads,
            plan,
            sample,
            ..
        } = self;
        let (mut sim, mut w) = b.build();
        if let Some(dt) = sample {
            Network::enable_monitoring(&mut sim, &mut w, dt);
        }
        inject(&mut sim, &plan);

        let state = Rc::new(RefCell::new(RunState::default()));
        for (idx, wl) in workloads.into_iter().enumerate() {
            let state = state.clone();
            let settle = move |sim: &mut Sim<GfsWorld>,
                               _w: &mut GfsWorld,
                               r: Result<WorkloadStats, FsError>| {
                let mut st = state.borrow_mut();
                match r {
                    Ok(_) => st.completed += 1,
                    Err(e) => st.errors.push((idx, e)),
                }
                st.finish = st.finish.max(sim.now());
            };
            match wl {
                Workload::Phased {
                    session,
                    fs,
                    workload,
                    tag,
                    start,
                } => {
                    sim.at(start, move |sim, w| {
                        // Flow-level streams ride the session's shared
                        // mount context directly.
                        let target = Target::Stream {
                            ctx: session.ctx(w),
                            fs,
                            tag,
                        };
                        driver::run(sim, w, target, workload, settle);
                    });
                }
                Workload::File {
                    session,
                    device,
                    path,
                    flags,
                    workload,
                    start,
                } => {
                    sim.at(start, move |sim, w| {
                        session.mount(sim, w, &device, AccessMode::ReadWrite, move |sim, w, r| {
                            if let Err(e) = r {
                                return settle(sim, w, Err(e));
                            }
                            driver::run_files(sim, w, session, vec![path], flags, workload, settle);
                        });
                    });
                }
            }
        }
        sim.set_horizon(horizon);
        sim.run(&mut w);

        let series = w.net.finish_monitoring(horizon);
        // Borrow rather than unwrap: a workload stalled forever (e.g. on a
        // permanently partitioned path) still holds its callback, and shows
        // up as completed + errors < workloads launched.
        let st = state.borrow();
        ScenarioRun {
            series,
            completed: st.completed,
            errors: st.errors.clone(),
            finish: st.finish,
            sim,
            world: w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs::fsck;
    use simcore::MBYTE;

    /// One flow-level read of `bytes`, as a phase list.
    fn one_read(bytes: u64) -> workloads::Workload {
        driver::chunked(StreamDir::Read, bytes, bytes)
    }

    #[test]
    fn builder_runs_a_stream_between_sites() {
        let mut sb = ScenarioBuilder::new(11);
        let fs = sb.nsd_farm("sdsc", NsdFarm::new("d", 4));
        let c = sb.clients("sdsc", 1, Bandwidth::gbit(10.0), SimDuration::from_micros(100), 16)[0];
        sb.workload(Workload::phased(c, fs, one_read(100 * MBYTE), 1));
        let run = sb.run(SimTime::from_secs(10));
        assert_eq!(run.completed, 1);
        assert!(run.errors.is_empty());
        // 4 × GbE-goodput servers ≈ 376 MB/s ⇒ ~0.27 s.
        let t = run.finish.as_secs_f64();
        assert!((0.2..0.4).contains(&t), "stream took {t}s");
    }

    #[test]
    fn builder_file_write_round_trips_and_fscks() {
        let mut sb = ScenarioBuilder::new(12);
        sb.nsd_farm(
            "site",
            NsdFarm::new("d", 4).stored_data().block_size(64 * 1024),
        );
        let c = sb.clients("site", 1, Bandwidth::gbit(1.0), SimDuration::from_micros(100), 64)[0];
        sb.workload(Workload::file_write(c, "d", "/f", MBYTE, 256 * 1024));
        let run = sb.run(SimTime::from_secs(10));
        assert_eq!(run.completed, 1, "errors: {:?}", run.errors);
        let core = &run.world.fss[0].core;
        let report = fsck(core);
        assert!(report.is_clean(), "fsck: {report:?}");
        // The close flushed every block: the disk holds the pattern.
        let ino = core.lookup("/f").expect("file exists");
        let mut disk = Vec::new();
        for (b, addr) in core.block_map(ino, 0, MBYTE).expect("block map") {
            let addr = addr.unwrap_or_else(|| panic!("block {b} unmapped"));
            disk.extend_from_slice(&core.get_block_data(addr));
        }
        assert_eq!(&disk[..], &pattern_bytes(0, MBYTE)[..], "payload mismatch");
    }

    #[test]
    fn pattern_bytes_matches_per_byte_definition() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Segment-aligned, unaligned, short, and segment-crossing ranges.
        for (off, len) in [(0u64, 0u64), (0, 1), (0, 256), (255, 2), (256, 256), (1000, 5000)] {
            let fast = pattern_bytes(off, len);
            let slow: Vec<u8> = (0..len).map(|i| pattern_byte(off + i)).collect();
            assert_eq!(&fast[..], &slow[..], "off={off} len={len}");
        }
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let off = rng.gen::<u64>() % (1 << 30);
            let len = rng.gen::<u64>() % 2048;
            let fast = pattern_bytes(off, len);
            let slow: Vec<u8> = (0..len).map(|i| pattern_byte(off + i)).collect();
            assert_eq!(&fast[..], &slow[..], "off={off} len={len}");
        }
    }

    #[test]
    fn builder_faults_feed_the_recovery_log() {
        let mut sb = ScenarioBuilder::new(13);
        let fs = sb.nsd_farm("site", NsdFarm::new("d", 4));
        let c = sb.clients("site", 1, Bandwidth::gbit(10.0), SimDuration::from_micros(100), 16)[0];
        sb.workload(Workload::phased(c, fs, one_read(400 * MBYTE), 1));
        sb.faults(FaultPlan::new().server_crash(SimTime::from_millis(100), fs, "d-srv2"));
        let run = sb.run(SimTime::from_secs(30));
        assert_eq!(run.completed, 1);
        assert_eq!(
            run.world
                .recovery
                .count(|e| matches!(e, gfs::RecoveryWhat::FaultInjected(_))),
            1
        );
    }
}
