//! Fixed-layout log-bucketed histogram for streaming latency quantiles.
//!
//! Every reported latency quantile in the workspace — `perfbench`'s
//! p50/p99 columns, `obsreport`'s summary tables and `--follow` mode —
//! shares this one implementation, so a reported "p99" always means the
//! same thing and no report buffers raw samples unboundedly. The
//! [`AdaptiveController`](crate::adaptive::AdaptiveController) does not
//! use it: a control decision must tell 1.0 ms from 1.9 ms, which an
//! octave-wide bucket cannot, so the controller keeps its short window as
//! raw samples and takes the exact nearest-rank p99.
//!
//! The layout is **fixed**: 64 buckets with power-of-two boundaries.
//! Bucket 0 catches everything below 2⁻³² (including zero, negatives, and
//! NaN — nothing is ever dropped), buckets 1..=62 cover `[2^(i-33),
//! 2^(i-32))`, and bucket 63 is the overflow bucket for values at or above
//! 2³⁰ (including `+inf`). In milliseconds that spans sub-nanosecond
//! ticks to ~12 days — far beyond any step latency the engines produce.
//! Because the layout is a constant of the code, two histograms are always
//! mergeable by element-wise addition of their counts: merge is
//! associative, commutative, and **bucket-exact** (merging never moves a
//! sample to a different bucket), which is what lets `obsreport` aggregate
//! per-engine histograms fleet-wide and what `tests/props.rs` pins down.
//!
//! Quantiles use the nearest-rank rule (`rank = ceil(q·n)`) over the
//! bucket counts and report the **lower bound** of the bucket holding that
//! rank — a deterministic, conservative-from-below estimate whose error is
//! at most one octave. Bucketing itself reads the f64 exponent bits
//! directly (no `log2`, no float comparisons in the hot path), so it is
//! exact, branch-light, and identical on every platform.

/// Number of buckets; a constant of the wire format.
pub const BUCKETS: usize = 64;

/// Exponent of the lower bound of bucket 1: bucket `i` (for `1 <= i <= 62`)
/// covers `[2^(i + MIN_EXP - 1), 2^(i + MIN_EXP))`.
const MIN_EXP: i32 = -32;

/// A mergeable log₂-bucketed histogram with a fixed 64-bucket layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub const fn new() -> LogHistogram {
        LogHistogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    /// The bucket a value lands in. Total on all of `f64`: non-positive
    /// values, NaN, and subnormals below the layout floor go to bucket 0;
    /// `+inf` and anything at or above 2³⁰ go to the overflow bucket.
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() || value < f64::from_bits(((1023 + MIN_EXP) as u64) << 52) {
            return 0;
        }
        if value >= f64::from_bits(((1023 + MIN_EXP + 62) as u64) << 52) {
            return BUCKETS - 1;
        }
        // Finite, normal, within [2^MIN_EXP, 2^(MIN_EXP+62)): the biased
        // exponent field alone determines the octave.
        let biased = (value.to_bits() >> 52) & 0x7ff;
        (biased as i32 - 1023 - MIN_EXP + 1) as usize
    }

    /// The inclusive lower bound of a bucket (0.0 for bucket 0).
    ///
    /// # Panics
    ///
    /// Panics if `index >= BUCKETS`.
    pub fn bucket_lower_bound(index: usize) -> f64 {
        assert!(index < BUCKETS, "bucket index {index} out of range");
        if index == 0 {
            0.0
        } else {
            f64::from_bits(((1023 + MIN_EXP + index as i32 - 1) as u64) << 52)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True iff no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The raw bucket counts.
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Element-wise merge of another histogram into this one. Exact:
    /// both layouts are the same constant, so every sample keeps its
    /// bucket and `a.merge(b)` equals recording both sample streams into
    /// one histogram in any order.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile (`0.0 <= q <= 1.0`), reported as the lower
    /// bound of the bucket holding rank `ceil(q·n)` (clamped to at least
    /// rank 1). `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_lower_bound(i));
            }
        }
        // Unreachable: the counts sum to `total >= rank`.
        Some(Self::bucket_lower_bound(BUCKETS - 1))
    }

    /// Resets the histogram to empty, keeping nothing.
    pub fn clear(&mut self) {
        self.counts = [0; BUCKETS];
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_octaves() {
        // Lower bounds are exactly representable powers of two and the
        // index function is the inverse of the bound function on them.
        for i in 1..BUCKETS - 1 {
            let lo = LogHistogram::bucket_lower_bound(i);
            assert_eq!(LogHistogram::bucket_index(lo), i, "at bound of {i}");
            // One ulp below the bound belongs to the previous bucket.
            let below = f64::from_bits(lo.to_bits() - 1);
            assert_eq!(LogHistogram::bucket_index(below), i - 1, "below {i}");
        }
        assert_eq!(LogHistogram::bucket_lower_bound(0), 0.0);
    }

    #[test]
    fn pathological_values_are_total() {
        assert_eq!(LogHistogram::bucket_index(0.0), 0);
        assert_eq!(LogHistogram::bucket_index(-0.0), 0);
        assert_eq!(LogHistogram::bucket_index(-5.0), 0);
        assert_eq!(LogHistogram::bucket_index(f64::NAN), 0);
        assert_eq!(LogHistogram::bucket_index(f64::NEG_INFINITY), 0);
        assert_eq!(LogHistogram::bucket_index(f64::MIN_POSITIVE / 2.0), 0);
        assert_eq!(LogHistogram::bucket_index(f64::INFINITY), BUCKETS - 1);
        assert_eq!(LogHistogram::bucket_index(f64::MAX), BUCKETS - 1);
    }

    #[test]
    fn familiar_latencies_land_where_documented() {
        // 5 ms is in [4, 8): quantiles report 4.0.
        let mut h = LogHistogram::new();
        h.record(5.0);
        assert_eq!(h.quantile(0.99), Some(4.0));
        // 0.01 ms is in [2^-7, 2^-6): reported as 0.0078125.
        let mut h = LogHistogram::new();
        h.record(0.01);
        assert_eq!(h.quantile(0.5), Some(0.0078125));
        // Zero stays zero.
        let mut h = LogHistogram::new();
        h.record(0.0);
        assert_eq!(h.quantile(0.99), Some(0.0));
    }

    #[test]
    fn quantiles_follow_nearest_rank() {
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.record(v);
        }
        // rank(0.5) = ceil(2) = 2 -> second sample's bucket [2,4).
        assert_eq!(h.quantile(0.5), Some(2.0));
        // rank(0.99) = ceil(3.96) = 4 -> [8,16).
        assert_eq!(h.quantile(0.99), Some(8.0));
        // rank(0.0) clamps to 1 -> [1,2).
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert!(h.quantile(0.5).unwrap() <= h.quantile(0.99).unwrap());
        assert_eq!(LogHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn merge_is_recording_both_streams() {
        let xs = [0.3, 7.0, 0.0, 1e9, f64::NAN];
        let ys = [2.5, 2.5, 1e-20];
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for &x in &xs {
            a.record(x);
            both.record(x);
        }
        for &y in &ys {
            b.record(y);
            both.record(y);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.count(), (xs.len() + ys.len()) as u64);
    }

    #[test]
    fn clear_empties() {
        let mut h = LogHistogram::new();
        h.record(3.0);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h, LogHistogram::new());
    }
}
