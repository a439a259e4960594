//! Storage-farm aggregates: turn a fleet of arrays into the directed
//! capacity links the flow-level network model consumes.
//!
//! For throughput-scale experiments (Figs. 5, 8, 11) the binding constraints
//! are aggregate: total controller port bandwidth, total RAID service rate,
//! total server NIC bandwidth. A farm computes those aggregates from the
//! per-device specs and exposes them as a pair of pseudo-links (read-out and
//! write-in) that scenario builders attach to an NSD server-farm node.

use crate::array::ArraySpec;
use crate::disk::IoKind;
use simcore::{Bandwidth, SimDuration, SimTime};
use simnet::{NodeId, TopologyBuilder};

/// A homogeneous fleet of storage arrays behind a server farm.
///
/// Per-tray sustained rate is `min(spindle streaming rate, internal loop
/// rate) × read_efficiency`; the internal arbitrated loops run at the same
/// 2 Gb/s as the host ports and are shared by all of a tray's drives, which
/// is why a 67-spindle DS4100 delivers ~400 MB/s rather than its drives'
/// ~3.7 GB/s raw streaming rate.
#[derive(Clone, Debug)]
pub struct FarmSpec {
    /// Number of identical arrays (32 DS4100s in production).
    pub arrays: u32,
    /// Per-array geometry.
    pub array: ArraySpec,
    /// Sustained fraction of the per-tray ceiling achievable for streaming
    /// reads (arbitration, firmware, cache-management losses).
    pub raid_read_efficiency: f64,
    /// Sustained write rate relative to the read rate — the RAID-5
    /// parity/destage penalty. Set to 1.0 for the A4 ablation.
    pub raid_write_factor: f64,
}

impl FarmSpec {
    /// The production 0.5 PB SATA build: 32 DS4100 trays. SATA RAID-5
    /// destage on these trays was poor (factor 0.3), which is the modeled
    /// cause of Fig. 11's read/write gap.
    pub fn production_2005() -> Self {
        FarmSpec {
            arrays: 32,
            array: ArraySpec::ds4100_sata(),
            raid_read_efficiency: 0.85,
            raid_write_factor: 0.30,
        }
    }

    /// The SC'04 StorCloud loaner: ~160 TB of FC-attached disk, 15 racks,
    /// enough trays and controllers for ~15 GB/s on the show floor
    /// (paper §4: "approximately 15 GB/s was obtained" of a 30 GB/s
    /// theoretical SAN).
    pub fn storcloud_sc04() -> Self {
        let mut array = ArraySpec::ds4100_sata();
        array.controllers = 2;
        array.raid_sets = 4;
        array.raid.disk = crate::disk::DiskSpec::fc_73gb_10k();
        FarmSpec {
            arrays: 60, // 15 racks × 4 trays
            array,
            raid_read_efficiency: 0.60,
            raid_write_factor: 0.85,
        }
    }

    /// Total usable capacity.
    pub fn usable_capacity(&self) -> u64 {
        self.array.usable_capacity() * self.arrays as u64
    }

    /// Aggregate controller host-port goodput.
    pub fn controller_bandwidth(&self) -> Bandwidth {
        Bandwidth(
            self.array.controller.goodput() * (self.array.controllers * self.arrays) as f64,
        )
    }

    /// Sustained service rate of one tray in a direction.
    pub fn tray_bandwidth(&self, kind: IoKind) -> Bandwidth {
        let spindle_raw = self.array.raid.disk.media_rate
            * (self.array.raid.data_disks * self.array.raid_sets) as f64;
        let loop_raw = self.array.controller.goodput() * self.array.controllers as f64;
        let read = spindle_raw.min(loop_raw) * self.raid_read_efficiency;
        Bandwidth(match kind {
            IoKind::Read => read,
            IoKind::Write => read * self.raid_write_factor,
        })
    }

    /// Aggregate sustained media service rate for a direction.
    pub fn raid_bandwidth(&self, kind: IoKind) -> Bandwidth {
        Bandwidth(self.tray_bandwidth(kind).bytes_per_sec() * self.arrays as f64)
    }

    /// The farm's deliverable rate in a direction: min(controllers, media).
    pub fn effective_bandwidth(&self, kind: IoKind) -> Bandwidth {
        Bandwidth(
            self.controller_bandwidth()
                .bytes_per_sec()
                .min(self.raid_bandwidth(kind).bytes_per_sec()),
        )
    }

    /// Attach this farm to `server_node` in a topology: creates a `storage`
    /// pseudo-node with a read link (storage → server) and a write link
    /// (server → storage) at the farm's effective rates. Returns the
    /// storage node.
    pub fn attach(&self, b: &mut TopologyBuilder, server_node: NodeId, name: &str) -> NodeId {
        let storage = b.node(format!("{name}-storage"));
        b.directed_link(
            storage,
            server_node,
            self.effective_bandwidth(IoKind::Read),
            SimDuration::from_micros(50),
            format!("{name}-read"),
        );
        b.directed_link(
            server_node,
            storage,
            self.effective_bandwidth(IoKind::Write),
            SimDuration::from_micros(50),
            format!("{name}-write"),
        );
        storage
    }
}

/// Measured service check: drive one array of the farm directly through the
/// per-I/O queue model and report sustained throughput, validating the
/// aggregate numbers used in the flow model (see `tests`).
pub fn measure_array_rate(spec: &ArraySpec, kind: IoKind, total_bytes: u64, io: u64) -> Bandwidth {
    let mut a = crate::array::Array::new(spec.clone());
    let mut t = SimTime::ZERO;
    let sets = a.set_count() as u64;
    let mut offsets = vec![0u64; sets as usize];
    let mut moved = 0u64;
    let mut i = 0u64;
    while moved < total_bytes {
        let set = (i % sets) as u32;
        let off = offsets[set as usize];
        let done = a.submit(SimTime::ZERO, set, kind, off, io);
        offsets[set as usize] += io;
        t = t.max(done);
        moved += io;
        i += 1;
    }
    Bandwidth(moved as f64 / t.as_secs_f64().max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::MBYTE;

    #[test]
    fn production_capacity_near_half_petabyte() {
        // Paper: 32 × 67 × 250 GB = 536 TB raw; usable (7 × 8+P per tray)
        // is 32 × 14 TB = 448 TB.
        let f = FarmSpec::production_2005();
        assert_eq!(f.usable_capacity(), 448 * simcore::TBYTE);
    }

    #[test]
    fn production_read_is_controller_or_raid_bound_below_16gbs() {
        let f = FarmSpec::production_2005();
        let r = f.effective_bandwidth(IoKind::Read);
        // 64 ports × ~237 MB/s ≈ 15.2 GB/s controller ceiling; RAID ceiling
        // 224 sets × 242 MB/s × … — either way well above the 8 GB/s NIC
        // ceiling the paper quotes, so the network is the read bottleneck.
        assert!(r.bytes_per_sec() > 8e9, "farm read {r} too low");
    }

    #[test]
    fn production_write_below_read() {
        let f = FarmSpec::production_2005();
        let r = f.effective_bandwidth(IoKind::Read).bytes_per_sec();
        let w = f.effective_bandwidth(IoKind::Write).bytes_per_sec();
        assert!(w < r, "write {w} not below read {r}");
        // The write ceiling must bite below the 8 GB/s network ceiling to
        // reproduce Fig. 11's asymmetry.
        assert!(w < 8e9, "write ceiling {w} would not be visible in Fig 11");
    }

    #[test]
    fn a4_ablation_equalizes() {
        let mut f = FarmSpec::production_2005();
        f.raid_write_factor = 1.0;
        let r = f.effective_bandwidth(IoKind::Read).bytes_per_sec();
        let w = f.effective_bandwidth(IoKind::Write).bytes_per_sec();
        assert_eq!(r, w);
    }

    #[test]
    fn attach_creates_links() {
        let f = FarmSpec::production_2005();
        let mut b = TopologyBuilder::new();
        let srv = b.node("servers");
        let st = f.attach(&mut b, srv, "prod");
        let t = b.build();
        let read = t.link_between(st, srv).unwrap();
        let write = t.link_between(srv, st).unwrap();
        assert!((t.link(read).capacity - f.effective_bandwidth(IoKind::Read).bytes_per_sec()).abs() < 1.0);
        assert!((t.link(write).capacity - f.effective_bandwidth(IoKind::Write).bytes_per_sec()).abs() < 1.0);
    }

    #[test]
    fn queue_model_agrees_with_aggregate_read_order_of_magnitude() {
        // Drive one DS4100 through the per-I/O model with big sequential
        // reads; per-array rate × array count should land within a factor
        // of two of the flow-model aggregate (they are different levels of
        // abstraction; we require consistency, not equality).
        let f = FarmSpec::production_2005();
        let per_array = measure_array_rate(&f.array, IoKind::Read, 512 * MBYTE, 8 * MBYTE);
        let agg_model = f.effective_bandwidth(IoKind::Read).bytes_per_sec();
        let agg_queue = per_array.bytes_per_sec() * f.arrays as f64;
        let ratio = agg_queue / agg_model;
        assert!(
            (0.5..2.0).contains(&ratio),
            "queue model {agg_queue:.3e} vs aggregate {agg_model:.3e} (ratio {ratio:.2})"
        );
    }
}
