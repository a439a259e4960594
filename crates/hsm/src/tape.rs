//! Tape library model: silos, drives, mount/seek/stream service times.
//!
//! The SC'02 configuration (paper Fig. 1) backed the disk cache with silos
//! and tape drives ("6 PB", tens of MB/s per drive, ~200 MB/s per
//! controller); §8 plans automatic migration between the GFS disk and this
//! tier. A tape job's service time is dominated by robot mount + position
//! seek, then streams at the drive rate.

use simcore::{Bandwidth, SimDuration, SimTime};

/// Drive/robot characteristics.
#[derive(Clone, Debug)]
pub struct TapeSpec {
    /// Robot pick + load + thread time.
    pub mount_time: SimDuration,
    /// Average position seek after mount.
    pub seek_time: SimDuration,
    /// Streaming rate.
    pub rate: Bandwidth,
    /// Unload + return time charged after each job.
    pub unload_time: SimDuration,
}

impl TapeSpec {
    /// A 2005-era drive: 60 s robot cycle, 45 s average locate, 30 MB/s.
    pub fn stk_2005() -> Self {
        TapeSpec {
            mount_time: SimDuration::from_secs(60),
            seek_time: SimDuration::from_secs(45),
            rate: Bandwidth::mbyte(30.0),
            unload_time: SimDuration::from_secs(30),
        }
    }
}

/// A library: several identical drives in front of a silo.
#[derive(Clone, Debug)]
pub struct TapeLibrary {
    /// Drive characteristics.
    pub spec: TapeSpec,
    drives: Vec<SimTime>, // busy-until per drive
    /// Total bytes written to tape.
    pub bytes_written: u64,
    /// Total bytes recalled from tape.
    pub bytes_read: u64,
    /// Jobs served.
    pub jobs: u64,
}

impl TapeLibrary {
    /// A library with `drives` drives.
    pub fn new(spec: TapeSpec, drives: u32) -> Self {
        assert!(drives > 0, "library needs at least one drive");
        TapeLibrary {
            spec,
            drives: vec![SimTime::ZERO; drives as usize],
            bytes_written: 0,
            bytes_read: 0,
            jobs: 0,
        }
    }

    /// Submit a tape job at `now`; returns its completion time. Picks the
    /// drive that can start earliest.
    pub fn submit(&mut self, now: SimTime, bytes: u64, write: bool) -> SimTime {
        assert!(bytes > 0, "zero-byte tape job");
        let s = &self.spec;
        let service = s.mount_time
            + s.seek_time
            + SimDuration::from_secs_f64(bytes as f64 / s.rate.bytes_per_sec())
            + s.unload_time;
        let drive = self
            .drives
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("at least one drive");
        let start = self.drives[drive].max(now);
        let done = start + service;
        self.drives[drive] = done;
        self.jobs += 1;
        if write {
            self.bytes_written += bytes;
        } else {
            self.bytes_read += bytes;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::GBYTE;

    #[test]
    fn service_time_includes_mount_and_stream() {
        let mut lib = TapeLibrary::new(TapeSpec::stk_2005(), 1);
        // 9 GB at 30 MB/s = 300 s + 60 + 45 + 30 = 435 s.
        let done = lib.submit(SimTime::ZERO, 9 * GBYTE, true);
        let t = done.as_secs_f64();
        assert!((434.0..436.0).contains(&t), "tape job took {t}s");
    }

    #[test]
    fn jobs_spread_across_drives() {
        let mut lib = TapeLibrary::new(TapeSpec::stk_2005(), 4);
        let times: Vec<f64> = (0..4)
            .map(|_| lib.submit(SimTime::ZERO, GBYTE, true).as_secs_f64())
            .collect();
        // Four drives: all four jobs finish at the same time.
        for t in &times {
            assert!((t - times[0]).abs() < 1e-9);
        }
        // Fifth job queues behind one of them.
        let t5 = lib.submit(SimTime::ZERO, GBYTE, true).as_secs_f64();
        assert!(t5 > times[0]);
    }

    #[test]
    fn accounting() {
        let mut lib = TapeLibrary::new(TapeSpec::stk_2005(), 2);
        lib.submit(SimTime::ZERO, 100, true);
        lib.submit(SimTime::ZERO, 200, false);
        assert_eq!(lib.bytes_written, 100);
        assert_eq!(lib.bytes_read, 200);
        assert_eq!(lib.jobs, 2);
    }

    #[test]
    #[should_panic(expected = "zero-byte tape job")]
    fn zero_byte_rejected() {
        TapeLibrary::new(TapeSpec::stk_2005(), 1).submit(SimTime::ZERO, 0, true);
    }
}
