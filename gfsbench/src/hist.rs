//! Fixed-bucket log histogram for latency samples.
//!
//! Values (nanoseconds) land in HDR-style buckets: exact below 64, then 64
//! linear sub-buckets per power-of-two octave, so a bucket is at most
//! 1/64 (1.6%) of its value wide. Recording is O(1) and nothing is sorted,
//! so a run can hold millions of samples in a few kilobytes. Each bucket
//! also keeps the sum of its samples: a percentile reads the mean of the
//! bucket that holds the nearest-rank sample, which lies in the same bucket
//! as the exact answer.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// The histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHist {
    counts: Vec<u64>,
    sums: Vec<u128>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            n: 0,
        }
    }
}

/// Bucket index of `v`.
pub fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let mant = v >> shift; // in [SUB, 2 * SUB)
    (SUB + u64::from(shift) * SUB + (mant - SUB)) as usize
}

impl LogHist {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        self.counts[b] += 1;
        self.sums[b] += u128::from(v);
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile `q` in `[0, 1]`, as the mean of the samples
    /// in the bucket holding that rank (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.sums[b] as f64 / c as f64;
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(xs: &[u64], q: f64) -> u64 {
        let mut s = xs.to_vec();
        s.sort_unstable();
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    }

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut prev = 0;
        for v in (0..200_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= prev && b < BUCKETS, "v {v} bucket {b}");
            prev = b;
        }
        // Width: a bucket spans at most 1/32 and about 1/64 of its value.
        for v in [100u64, 1_000, 12_345, 4_000_000, 987_654_321] {
            let b = bucket_of(v);
            assert!(bucket_of(v + v / 128) <= b + 1, "bucket too narrow at {v}");
            assert!(bucket_of(v + v / 32) > b, "bucket too wide at {v}");
        }
    }

    #[test]
    fn quantiles_match_nearest_rank_within_one_bucket() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for len in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000, 4321] {
            let xs: Vec<u64> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    // Latency-like: a few µs up to tens of ms.
                    1_000 + state % 40_000_000 / (1 + state % 97)
                })
                .collect();
            let mut h = LogHist::default();
            xs.iter().for_each(|&x| h.record(x));
            assert_eq!(h.count(), len as u64);
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let want = exact(&xs, q);
                let got = h.quantile(q);
                let (bw, bg) = (bucket_of(want) as i64, bucket_of(got.round() as u64) as i64);
                assert!(
                    (bw - bg).abs() <= 1,
                    "len {len} q {q}: got {got} want {want} (buckets {bg} vs {bw})"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHist::default();
        for v in [5u64, 1, 9, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 5.0);
        assert_eq!(h.quantile(1.0), 9.0);
        assert_eq!(h.quantile(0.0), 1.0);
        let mut g = LogHist::default();
        g.record(11);
        h.merge(&g);
        assert_eq!(h.count(), 6);
        assert_eq!(h.quantile(1.0), 11.0);
    }
}
