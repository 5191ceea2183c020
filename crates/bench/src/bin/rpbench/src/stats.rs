//! Exact statistics over raw samples, and the run digests.

/// Nearest-rank quantile (`rank = ceil(q·n)`) of raw nanosecond samples.
/// Exact: the result is one of the samples, so two runs whose ticks
/// differ by 10% report quantiles 10% apart. Returns 0 for no samples.
pub fn quantile_ns(samples: &[u32], q: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of a list of values (mean of the middle pair for an even
/// count); 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Ticks per second of service time: the ticks are cut into `windows`
/// equal runs, each run's rate is its tick count over its summed tick
/// durations, and the median rate is reported, so a burst of steal on a
/// shared core moves one window, not the result.
pub fn windowed_rate(durs_ns: &[u32], windows: usize) -> f64 {
    let windows = windows.clamp(1, durs_ns.len().max(1));
    let n = durs_ns.len();
    let rates: Vec<f64> = (0..windows)
        .map(|w| &durs_ns[w * n / windows..(w + 1) * n / windows])
        .filter(|run| !run.is_empty())
        .map(|run| {
            let ns: u64 = run.iter().map(|&d| u64::from(d)).sum();
            run.len() as f64 / (ns.max(1) as f64 * 1e-9)
        })
        .collect();
    median(&rates)
}

/// Mean of raw nanosecond samples, in microseconds.
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub fn mean_us(durs_ns: &[u32]) -> f64 {
    let ns: u64 = durs_ns.iter().map(|&d| u64::from(d)).sum();
    ns as f64 / durs_ns.len().max(1) as f64 / 1e3
}

/// A running 64-bit FNV-1a digest over words: identical streams of words
/// give identical digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds the bits of a float in.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// SplitMix64: the seed-derivation and command-generator mixer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use probzelus::core::LogHistogram;

    #[test]
    fn quantiles_separate_samples_ten_percent_apart() {
        let a: Vec<u32> = (0..1000).map(|i| 1_100 + i % 100).collect();
        let b: Vec<u32> = a.iter().map(|&x| x * 11 / 10).collect();
        for q in [0.5, 0.99] {
            let (qa, qb) = (quantile_ns(&a, q), quantile_ns(&b, q));
            let ratio = f64::from(qb) / f64::from(qa);
            assert!((ratio - 1.1).abs() < 0.01, "q{q}: {qa} vs {qb}");
        }
        // The octave histogram puts both samples in one bucket and
        // reports the same quantiles for them.
        let hist = |xs: &[u32]| {
            let mut h = LogHistogram::new();
            xs.iter().for_each(|&x| h.record(f64::from(x) * 1e-6));
            (h.quantile(0.5), h.quantile(0.99))
        };
        assert_eq!(hist(&a), hist(&b));
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let xs: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_ns(&xs, 0.5), 50);
        assert_eq!(quantile_ns(&xs, 0.99), 99);
        assert_eq!(quantile_ns(&xs, 1.0), 100);
        assert_eq!(quantile_ns(&[7], 0.01), 7);
        assert_eq!(quantile_ns(&[], 0.5), 0);
    }

    #[test]
    fn windowed_rate_ignores_one_slow_window() {
        let mut durs = vec![1_000u32; 2000]; // 1 µs ticks: 1e6 ticks/s
        durs[..100].iter_mut().for_each(|d| *d = 50_000);
        assert_eq!(windowed_rate(&durs, 20), 1e6);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
