//! # workloads — the grid applications that motivated the paper
//!
//! Synthetic I/O generators with the published characteristics of the
//! applications named in §1 and §4:
//!
//! * **Enzo** (AMR cosmology): "multiple Terabytes per hour" of checkpoint
//!   and output writes between compute phases; at SC'04 it wrote "on the
//!   order of a Terabyte per hour" straight to the StorCloud GPFS.
//! * **NVO** (National Virtual Observatory): a ~50 TB read-mostly dataset
//!   used "more as a database ... retrieving individual pieces of very
//!   large files" — the argument for partial access over staging.
//! * **SCEC** (Southern California Earthquake Center): "close to 250
//!   Terabytes in a single run" of output.
//! * **Sort**: the SC'04 "completely network limited" check — read
//!   everything, write everything, both directions.
//! * **Visualization**: frame-paced streaming reads that exhaust their
//!   input and restart (the dip in the paper's Fig. 5).
//! * **MPI-IO**: the paper's Fig. 11 benchmark, "128 MB Block Size, 1 MB
//!   Transfer Size": each rank moves its own block of one shared file.
//!
//! Generators produce [`Phase`] sequences that scenario/bench code maps
//! onto filesystem streams or the per-op client path.

pub mod zipf;

use rand::rngs::StdRng;
use rand::Rng;
use simcore::{SimDuration, GBYTE, MBYTE, TBYTE};

/// One step of a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Compute/think for a duration (no I/O).
    Compute(SimDuration),
    /// Sequentially write `bytes`.
    Write {
        /// Bytes to write.
        bytes: u64,
    },
    /// Sequentially read `bytes`.
    Read {
        /// Bytes to read.
        bytes: u64,
    },
    /// Random partial read at `offset` of `bytes` (database-style access).
    ReadAt {
        /// Byte offset in the dataset.
        offset: u64,
        /// Bytes to read.
        bytes: u64,
    },
    /// Write of `bytes` at `offset` (a rank's slice of a shared file).
    WriteAt {
        /// Byte offset in the file.
        offset: u64,
        /// Bytes to write.
        bytes: u64,
    },
}

impl Phase {
    /// Bytes moved by this phase.
    pub fn bytes(&self) -> u64 {
        match self {
            Phase::Compute(_) => 0,
            Phase::Write { bytes }
            | Phase::Read { bytes }
            | Phase::ReadAt { bytes, .. }
            | Phase::WriteAt { bytes, .. } => *bytes,
        }
    }

    /// Where an `*At` phase moves its bytes; `None` for a sequential one.
    pub fn offset(&self) -> Option<u64> {
        match self {
            Phase::ReadAt { offset, .. } | Phase::WriteAt { offset, .. } => Some(*offset),
            _ => None,
        }
    }
}

/// A named phase sequence.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// The steps, in order.
    pub phases: Vec<Phase>,
}

impl Workload {
    /// Total bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| matches!(p, Phase::Write { .. } | Phase::WriteAt { .. }))
            .map(Phase::bytes)
            .sum()
    }

    /// Total bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| matches!(p, Phase::Read { .. } | Phase::ReadAt { .. }))
            .map(Phase::bytes)
            .sum()
    }

    /// Total compute time.
    pub fn compute_time(&self) -> SimDuration {
        self.phases
            .iter()
            .filter_map(|p| match p {
                Phase::Compute(d) => Some(*d),
                _ => None,
            })
            .fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// Enzo-style checkpoint campaign: alternating compute and checkpoint
/// writes sized so the write stream averages `tb_per_hour` when compute
/// and I/O interleave.
pub fn enzo(checkpoints: u32, checkpoint_bytes: u64, compute_between: SimDuration) -> Workload {
    let mut phases = Vec::with_capacity(checkpoints as usize * 2);
    for _ in 0..checkpoints {
        phases.push(Phase::Compute(compute_between));
        phases.push(Phase::Write {
            bytes: checkpoint_bytes,
        });
    }
    Workload {
        name: "enzo".into(),
        phases,
    }
}

/// The paper's SC'04 Enzo configuration, scaled by `scale` (1.0 = one hour
/// of production: ~1 TB across 12 checkpoints).
pub fn enzo_sc04(scale: f64) -> Workload {
    let checkpoint = ((TBYTE as f64 / 12.0) * scale) as u64;
    enzo(12, checkpoint.max(MBYTE), SimDuration::from_secs(300))
}

/// NVO-style catalog queries: `queries` random partial reads against a
/// `dataset_bytes` archive, each reading `[min_bytes, max_bytes]`.
pub fn nvo_queries(
    rng: &mut StdRng,
    queries: u32,
    dataset_bytes: u64,
    min_bytes: u64,
    max_bytes: u64,
) -> Workload {
    assert!(min_bytes > 0 && min_bytes <= max_bytes);
    assert!(max_bytes <= dataset_bytes);
    let phases = (0..queries)
        .map(|_| {
            let bytes = rng.gen_range(min_bytes..=max_bytes);
            let offset = rng.gen_range(0..=dataset_bytes - bytes);
            Phase::ReadAt { offset, bytes }
        })
        .collect();
    Workload {
        name: "nvo".into(),
        phases,
    }
}

/// The sizes of `total_bytes` cut into `chunk`-sized pieces in order; the
/// last piece holds the remainder.
pub fn chunks(total_bytes: u64, chunk: u64) -> impl Iterator<Item = u64> {
    assert!(chunk > 0, "chunks need a positive chunk size");
    (0..total_bytes)
        .step_by(chunk as usize)
        .map(move |off| chunk.min(total_bytes - off))
}

/// SCEC-style bulk output: one long write campaign in `chunk`-sized
/// pieces (the paper: ~250 TB in a single run; scale down for tests).
pub fn scec(total_bytes: u64, chunk: u64) -> Workload {
    Workload {
        name: "scec".into(),
        phases: chunks(total_bytes, chunk)
            .map(|bytes| Phase::Write { bytes })
            .collect(),
    }
}

/// The SC'04 network-limited sort: read the whole dataset, write it back.
pub fn sort(bytes: u64) -> Workload {
    Workload {
        name: "sort".into(),
        phases: vec![Phase::Read { bytes }, Phase::Write { bytes }],
    }
}

/// Visualization consumer: `frames` sequential frame reads paced at
/// `frame_time`; when it exhausts input it stops (and the scenario
/// restarts it — producing Fig. 5's dip).
pub fn visualization(frames: u32, frame_bytes: u64, frame_time: SimDuration) -> Workload {
    let mut phases = Vec::with_capacity(frames as usize * 2);
    for _ in 0..frames {
        phases.push(Phase::Read { bytes: frame_bytes });
        phases.push(Phase::Compute(frame_time));
    }
    Workload {
        name: "visualization".into(),
        phases,
    }
}

/// Fig. 11's MPI-IO pattern for one rank: rank `rank` owns bytes
/// `[rank * block, (rank + 1) * block)` of a shared file and moves them in
/// order, one `transfer`-sized op at its offset — `WriteAt` phases when
/// `write` is set, `ReadAt` phases otherwise. Disjoint ranks ask for
/// disjoint byte ranges, so their tokens never conflict.
pub fn mpi_blocked(rank: u64, block: u64, transfer: u64, write: bool) -> Workload {
    let base = rank * block;
    let phases = (0..block)
        .step_by(transfer as usize)
        .map(|off| {
            let (offset, bytes) = (base + off, transfer.min(block - off));
            if write {
                Phase::WriteAt { offset, bytes }
            } else {
                Phase::ReadAt { offset, bytes }
            }
        })
        .collect();
    Workload {
        name: "mpi-io".into(),
        phases,
    }
}

/// Fraction of an NVO-style dataset touched by a query workload —
/// the x-axis of ablation A2 (GFS partial access vs GridFTP staging).
pub fn accessed_fraction(w: &Workload, dataset_bytes: u64) -> f64 {
    w.read_bytes() as f64 / dataset_bytes as f64
}

/// The paper's headline dataset sizes, for scenario builders.
pub mod datasets {
    use super::*;

    /// NVO: ~50 TB (paper §1, §5).
    pub const NVO_BYTES: u64 = 50 * TBYTE;
    /// SCEC: ~250 TB in a single run (paper §1).
    pub const SCEC_BYTES: u64 = 250 * TBYTE;
    /// Enzo hourly output: ~1 TB/hour (paper §4).
    pub const ENZO_BYTES_PER_HOUR: u64 = TBYTE;
    /// A typical large Enzo output file for visualization (paper §4).
    pub const ENZO_VIS_FILE: u64 = 100 * GBYTE;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn enzo_totals() {
        let w = enzo(12, GBYTE, SimDuration::from_secs(300));
        assert_eq!(w.write_bytes(), 12 * GBYTE);
        assert_eq!(w.read_bytes(), 0);
        assert_eq!(w.compute_time(), SimDuration::from_secs(3600));
        assert_eq!(w.phases.len(), 24);
    }

    #[test]
    fn enzo_sc04_is_about_a_terabyte() {
        let w = enzo_sc04(1.0);
        let tb = w.write_bytes() as f64 / TBYTE as f64;
        assert!((0.99..1.01).contains(&tb), "Enzo hour = {tb} TB");
    }

    #[test]
    fn nvo_queries_stay_in_bounds() {
        let mut r = rng();
        let w = nvo_queries(&mut r, 500, 1000 * GBYTE, MBYTE, 100 * MBYTE);
        assert_eq!(w.phases.len(), 500);
        for p in &w.phases {
            let Phase::ReadAt { offset, bytes } = p else {
                panic!("nvo produces only ReadAt")
            };
            assert!(*bytes >= MBYTE && *bytes <= 100 * MBYTE);
            assert!(offset + bytes <= 1000 * GBYTE);
        }
    }

    #[test]
    fn nvo_is_deterministic_per_seed() {
        let a = nvo_queries(&mut rng(), 50, GBYTE, 1024, 4096);
        let b = nvo_queries(&mut rng(), 50, GBYTE, 1024, 4096);
        assert_eq!(a.phases, b.phases);
    }

    #[test]
    fn nvo_touches_small_fraction() {
        let mut r = rng();
        let ds = datasets::NVO_BYTES;
        let w = nvo_queries(&mut r, 1000, ds, MBYTE, 50 * MBYTE);
        let frac = accessed_fraction(&w, ds);
        assert!(frac < 0.001, "1000 queries touch {frac} of 50 TB");
    }

    #[test]
    fn scec_chunks_cover_total() {
        let w = scec(10 * GBYTE + 5, GBYTE);
        assert_eq!(w.write_bytes(), 10 * GBYTE + 5);
        assert_eq!(w.phases.len(), 11);
    }

    #[test]
    fn sort_is_symmetric() {
        let w = sort(7 * GBYTE);
        assert_eq!(w.read_bytes(), w.write_bytes());
    }

    #[test]
    fn visualization_paces_frames() {
        let w = visualization(30, 100 * MBYTE, SimDuration::from_millis(500));
        assert_eq!(w.read_bytes(), 3000 * MBYTE);
        assert_eq!(w.compute_time(), SimDuration::from_secs(15));
    }

    #[test]
    fn mpi_blocked_covers_the_rank_block_in_transfers() {
        let w = mpi_blocked(2, 10, 4, true);
        let at: Vec<(Option<u64>, u64)> =
            w.phases.iter().map(|p| (p.offset(), p.bytes())).collect();
        assert_eq!(at, [(Some(20), 4), (Some(24), 4), (Some(28), 2)]);
        assert!(w.phases.iter().all(|p| matches!(p, Phase::WriteAt { .. })));
        let r = mpi_blocked(2, 10, 4, false);
        assert!(r.phases.iter().all(|p| matches!(p, Phase::ReadAt { .. })));
        assert_eq!((r.write_bytes(), r.read_bytes()), (0, 10));
    }

    #[test]
    #[should_panic]
    fn nvo_zero_min_rejected() {
        nvo_queries(&mut rng(), 1, GBYTE, 0, 10);
    }
}
