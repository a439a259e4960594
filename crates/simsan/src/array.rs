//! Storage array: RAID controllers with Fibre Channel host ports fronting
//! RAID sets — the DS4100 of the paper's production build.
//!
//! Each DS4100 had two controllers, each with one 2 Gb/s FC host port and
//! its own internal arbitrated loop; seven 8+P SATA RAID sets split across
//! the controllers (paper §5). A controller is modeled as a store-and-
//! forward rate limiter (port serialization + fixed command overhead +
//! write-cache behaviour) in front of its RAID sets.

use crate::disk::IoKind;
use crate::raid::{RaidSet, RaidSpec};
use simcore::{Bandwidth, SimDuration, SimTime};

/// Identifies an array within a world's array table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArrayId(pub u32);

/// Controller parameters.
#[derive(Clone, Debug)]
pub struct ControllerSpec {
    /// Host-port line rate (2 Gb/s FC on the DS4100).
    pub port_rate: Bandwidth,
    /// FC framing efficiency applied to the port rate.
    pub fc_efficiency: f64,
    /// Fixed per-command firmware overhead.
    pub command_overhead: SimDuration,
    /// Fraction of the port rate sustainable for cached writes before the
    /// RAID sets must absorb them (write-back cache destage limit).
    pub write_cache_factor: f64,
}

impl ControllerSpec {
    /// A DS4100-class controller.
    pub fn ds4100() -> Self {
        ControllerSpec {
            port_rate: Bandwidth::gbit(2.0),
            fc_efficiency: 0.95,
            command_overhead: SimDuration::from_micros(300),
            write_cache_factor: 1.0,
        }
    }

    /// Effective port goodput, bytes/sec.
    pub fn goodput(&self) -> f64 {
        self.port_rate.bytes_per_sec() * self.fc_efficiency
    }
}

/// One controller's runtime state: a serialization queue.
#[derive(Clone, Debug)]
pub struct Controller {
    /// Static parameters.
    pub spec: ControllerSpec,
    busy_until: SimTime,
    /// Bytes moved through this controller.
    pub total_bytes: u64,
}

impl Controller {
    /// New idle controller.
    pub fn new(spec: ControllerSpec) -> Self {
        Controller {
            spec,
            busy_until: SimTime::ZERO,
            total_bytes: 0,
        }
    }

    /// Serialize `bytes` through the host port starting at `now`; returns
    /// the port-completion time.
    pub fn submit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let xfer = SimDuration::from_secs_f64(bytes as f64 / self.spec.goodput());
        let done = start + self.spec.command_overhead + xfer;
        self.busy_until = done;
        self.total_bytes += bytes;
        done
    }
}

/// Geometry of a whole array.
#[derive(Clone, Debug)]
pub struct ArraySpec {
    /// Controllers (the DS4100 has 2).
    pub controllers: u32,
    /// RAID sets (the paper's DS4100s carry 7 active 8+P sets).
    pub raid_sets: u32,
    /// Controller model.
    pub controller: ControllerSpec,
    /// RAID set model.
    pub raid: RaidSpec,
}

impl ArraySpec {
    /// The production DS4100 configuration: 2 controllers, 7 × 8+P SATA.
    pub fn ds4100_sata() -> Self {
        ArraySpec {
            controllers: 2,
            raid_sets: 7,
            controller: ControllerSpec::ds4100(),
            raid: RaidSpec::sata_8p1(),
        }
    }

    /// Raw capacity including parity and hot spares is the tray's 67
    /// drives; usable data capacity is what the RAID sets expose.
    pub fn usable_capacity(&self) -> u64 {
        self.raid.capacity() * self.raid_sets as u64
    }
}

/// A live array: controllers + RAID sets, with sets assigned round-robin to
/// controllers (as the DS4100 splits its loops).
#[derive(Clone, Debug)]
pub struct Array {
    /// Geometry.
    pub spec: ArraySpec,
    controllers: Vec<Controller>,
    sets: Vec<RaidSet>,
}

impl Array {
    /// Materialize an array.
    pub fn new(spec: ArraySpec) -> Self {
        assert!(spec.controllers > 0 && spec.raid_sets > 0);
        let controllers = (0..spec.controllers)
            .map(|_| Controller::new(spec.controller.clone()))
            .collect();
        let sets = (0..spec.raid_sets)
            .map(|_| RaidSet::new(spec.raid.clone()))
            .collect();
        Array {
            spec,
            controllers,
            sets,
        }
    }

    /// Number of RAID sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Submit a logical I/O to RAID set `set`; returns completion time
    /// (controller port and spindles both done).
    pub fn submit(
        &mut self,
        now: SimTime,
        set: u32,
        kind: IoKind,
        offset: u64,
        bytes: u64,
    ) -> SimTime {
        let ctrl_idx = (set as usize) % self.controllers.len();
        let ctrl = &mut self.controllers[ctrl_idx];
        let effective_bytes = match kind {
            IoKind::Write if ctrl.spec.write_cache_factor > 0.0 => {
                (bytes as f64 / ctrl.spec.write_cache_factor) as u64
            }
            _ => bytes,
        };
        let port_done = ctrl.submit(now, effective_bytes.max(1));
        let media_done = self.sets[set as usize].submit(now, kind, offset, bytes);
        port_done.max(media_done)
    }

    /// Access a RAID set (for reports).
    pub fn raid_set(&self, set: u32) -> &RaidSet {
        &self.sets[set as usize]
    }

    /// Fail data spindle `disk` of RAID set `set` at `now`; the set starts a
    /// hot-spare rebuild at `rebuild_rate` bytes/sec and serves degraded
    /// until the returned completion time.
    pub fn fail_disk(
        &mut self,
        now: SimTime,
        set: u32,
        disk: usize,
        rebuild_rate: f64,
    ) -> SimTime {
        self.sets[set as usize].fail_data_disk(now, disk, rebuild_rate)
    }

    /// Bytes moved through all controllers.
    pub fn controller_bytes(&self) -> u64 {
        self.controllers.iter().map(|c| c.total_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::MBYTE;

    #[test]
    fn ds4100_capacity_matches_paper() {
        // 7 sets × 8 data × 250 GB = 14 TB usable per tray;
        // 32 trays ≈ 448 TB usable of the 536 TB raw the paper quotes.
        let spec = ArraySpec::ds4100_sata();
        assert_eq!(spec.usable_capacity(), 14 * simcore::TBYTE);
    }

    #[test]
    fn controller_serializes_at_port_rate() {
        let mut c = Controller::new(ControllerSpec::ds4100());
        // 190 MB at ~237.5 MB/s goodput ≈ 0.8 s.
        let t = c.submit(SimTime::ZERO, 190 * MBYTE);
        let s = t.as_secs_f64();
        assert!((0.75..0.85).contains(&s), "190MB via 2Gb/s port took {s}");
    }

    #[test]
    fn sets_split_across_controllers() {
        let mut a = Array::new(ArraySpec::ds4100_sata());
        // Saturating set 0 must not delay set 1 (different controller).
        let t0 = a.submit(SimTime::ZERO, 0, IoKind::Read, 0, 64 * MBYTE);
        let t1 = a.submit(SimTime::ZERO, 1, IoKind::Read, 0, MBYTE);
        assert!(t1 < t0, "set on other controller was blocked");
    }

    #[test]
    fn same_controller_sets_queue() {
        let mut a = Array::new(ArraySpec::ds4100_sata());
        // Sets 0 and 2 share controller 0 (round robin over 2).
        let t0 = a.submit(SimTime::ZERO, 0, IoKind::Read, 0, 64 * MBYTE);
        let t2 = a.submit(SimTime::ZERO, 2, IoKind::Read, 0, 64 * MBYTE);
        assert!(t2 > t0, "same-controller I/O should queue behind");
    }

    #[test]
    fn array_small_write_slower_than_read() {
        // A sub-stripe (1 MB < 2 MiB full stripe) write pays read-modify-
        // write on data and parity spindles; the same-size read does not.
        let mut a = Array::new(ArraySpec::ds4100_sata());
        let tr = a.submit(SimTime::ZERO, 0, IoKind::Read, 0, MBYTE);
        let mut b = Array::new(ArraySpec::ds4100_sata());
        let tw = b.submit(SimTime::ZERO, 0, IoKind::Write, 0, MBYTE);
        assert!(tw > tr, "RMW write {tw:?} not slower than read {tr:?}");
    }
}
