//! Sample statistics: exact quantiles for end-to-end latencies, and a
//! mergeable log-linear histogram for the per-layer span timings, of which
//! a traced run records millions.

/// Sub-buckets per power of two: bucket width is at most 1/32 of its lower
/// bound, so a histogram quantile is within about 3% of the exact one.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// A log-linear histogram of `u64` values (nanoseconds here). Values below
/// 32 get exact buckets; above, each power of two splits into 32 equal
/// buckets. Two histograms merge by adding counts.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    let mant = v >> shift; // in [SUB, 2 * SUB)
    (((shift as u64 + 1) << SUB_BITS) + (mant - SUB)) as usize
}

/// The half-open value range `[lo, hi)` of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i + 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    let mant = (i & (SUB - 1)) + SUB;
    (mant << shift, (mant + 1).saturating_mul(1 << shift))
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The `q`-quantile (nearest rank), interpolated linearly inside the
    /// bucket that holds that rank. Zero when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if below + c >= rank {
                let (lo, hi) = bucket_range(i);
                let within = (rank - below) as f64 - 0.5;
                return lo as f64 + (hi - lo) as f64 * within / c as f64;
            }
            below += c;
        }
        unreachable!("rank is at most the total count")
    }
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the convention of `numpy.quantile`). Sorts in place; zero when
/// empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn buckets_tile_the_value_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS - 1 {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, next, "bucket {i} starts where the last ended");
            assert!(hi > lo);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi - 1), i);
            next = hi;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    /// Histogram percentiles against the nearest-rank percentile of the
    /// sorted samples: within one bucket width (1/32 relative).
    #[test]
    fn percentiles_match_sorted_reference() {
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [1usize, 10, 999, 50_000] {
            // Heavy-tailed like latencies: exp of a uniform spans 5 decades.
            let samples: Vec<u64> = (0..n)
                .map(|_| (rng.gen_range(0.0f64..11.5)).exp() as u64)
                .collect();
            let mut h = Histogram::default();
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let exact = sorted[rank - 1] as f64;
                let got = h.quantile(q);
                let tol = exact / SUB as f64 + 1.0;
                assert!(
                    (got - exact).abs() <= tol,
                    "n={n} q={q}: histogram {got} vs sorted {exact}"
                );
            }
        }
    }

    #[test]
    fn merge_equals_recording_everything_once() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (mut a, mut b, mut all) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for i in 0..10_000u64 {
            let v = rng.gen_range(0..5_000_000u64);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        for q in [0.5, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn exact_quantile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
