//! The yardstick: a fixed kernel, timed between ticks and between
//! set-ups, that reads how fast the host runs at that moment.
//!
//! On a shared host another tenant can slow every instruction of a run by
//! up to 1.8× for seconds at a time, and no statistic over the run's own
//! ticks removes that: in such a stretch every tick is slower alike. The
//! yardstick is slowed alike too, so each time metric is scaled by
//! `QUIET_NS / reading`, the reading taken next to the ticks it scales.
//! The times reported are then those of the uncontended host. The kernel
//! lives in the benchmark, so no change to the program under test moves
//! it, and a change that makes ticks slower shows as before.

use crate::alloc;
use crate::stats::median;
use std::time::Instant;

/// Particles of the yardstick's filter.
const N: usize = 128;
/// Filter steps one reading times, after one untimed step.
const STEPS: usize = 4;
/// A reading on the uncontended host, the speed every scaled time is
/// reported at: about the fastest reading seen on a 2-vCPU 2.0 GHz Xeon
/// VM, where readings ranged from 28 to 50 µs.
pub const QUIET_NS: f64 = 30_000.0;

/// Readings on each side of a tick whose median scales it.
const SPAN: usize = 2;

/// A yardstick reading taken before timed tick `tick`.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub tick: u32,
    pub ns: u32,
}

/// Scales each sample `i` (a time of timed tick `i`) to the quiet host:
/// `sample × QUIET_NS / local`, where `local` is the median of the
/// `2·SPAN + 1` readings around the last one taken before tick `i`, so a
/// reading an interrupt inflated does not scale its ticks. `readings` are
/// in tick order and the first is taken before tick 0.
pub fn scale(samples: &[u32], readings: &[Reading]) -> Vec<u32> {
    let local: Vec<f64> = (0..readings.len())
        .map(|j| {
            let around = &readings[j.saturating_sub(SPAN)..(j + SPAN + 1).min(readings.len())];
            median(&around.iter().map(|r| f64::from(r.ns)).collect::<Vec<_>>())
        })
        .collect();
    let mut j = 0;
    samples
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            while j + 1 < readings.len() && readings[j + 1].tick as usize <= i {
                j += 1;
            }
            let factor = local.get(j).map_or(1.0, |&l| QUIET_NS / l);
            (f64::from(s) * factor).round().min(f64::from(u32::MAX)) as u32
        })
        .collect()
}

/// Set-up `k`'s time scaled by the mean of the readings just before
/// (`readings[k]`) and just after (`readings[k + 1]`) it.
pub fn scale_setups(secs: &[f64], readings: &[u32]) -> Vec<f64> {
    secs.iter()
        .zip(readings.windows(2))
        .map(|(s, r)| s * QUIET_NS / ((f64::from(r[0]) + f64::from(r[1])) / 2.0))
        .collect()
}

/// A bootstrap particle filter over a fixed synthetic signal: the same
/// mix of work as the engines (Gaussian draws, log-weights, exponentials,
/// resampling by boxed clones), in code no change to the program touches.
pub struct Yardstick {
    // Boxed on purpose: each resampled particle costs one allocation, as
    // in the engines.
    #[allow(clippy::vec_box)]
    particles: Vec<Box<[f64; 2]>>,
    rng: u64,
    t: f64,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick {
            particles: (0..N).map(|_| Box::new([0.0; 2])).collect(),
            rng: 0x9e37_79b9_7f4a_7c15,
            t: 0.0,
        }
    }
}

impl Yardstick {
    /// Times one reading: an untimed step that brings the filter back into
    /// cache, then `STEPS` timed steps. The allocations inside leave the
    /// heap's high-water mark as it was. Returns nanoseconds.
    pub fn read(&mut self) -> u32 {
        let peak = alloc::peak();
        std::hint::black_box(self.step());
        let t0 = Instant::now();
        for _ in 0..STEPS {
            std::hint::black_box(self.step());
        }
        let ns = t0.elapsed().as_nanos();
        alloc::set_peak(peak);
        u32::try_from(ns).unwrap_or(u32::MAX)
    }

    /// xorshift64*, mapped to (0, 1).
    fn uniform(&mut self) -> f64 {
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let bits = self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11;
        (bits as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// A standard normal draw (Box–Muller).
    fn gauss(&mut self) -> f64 {
        let (u, v) = (self.uniform(), self.uniform());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// One filter step: propagate, weight, resample systematically.
    /// Returns the posterior mean.
    fn step(&mut self) -> f64 {
        self.t += 1.0;
        let y = (0.1 * self.t).sin();
        let mut w = [0.0; N];
        for (i, w) in w.iter_mut().enumerate() {
            let noise = self.gauss();
            let p = &mut self.particles[i];
            p[1] = 0.9 * p[1] + 0.1 * noise;
            p[0] += p[1];
            let d = y - p[0];
            *w = -0.5 * d * d;
        }
        let max = w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut total = 0.0;
        for w in &mut w {
            *w = (*w - max).exp();
            total += *w;
        }
        let stride = total / N as f64;
        let (mut u, mut cum, mut j) = (self.uniform() * stride, w[0], 0);
        let mut mean = 0.0;
        let mut next = Vec::with_capacity(N);
        for _ in 0..N {
            while cum < u && j + 1 < N {
                j += 1;
                cum += w[j];
            }
            mean += self.particles[j][0];
            next.push(self.particles[j].clone());
            u += stride;
        }
        self.particles = next;
        mean / N as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_leaves_the_heap_and_its_peak_alone() {
        let mut y = Yardstick::default();
        y.read();
        alloc::reset_peak();
        let (live, peak) = (alloc::live(), alloc::peak());
        assert!(y.read() > 0);
        assert_eq!((alloc::live(), alloc::peak()), (live, peak));
    }

    #[test]
    fn a_slow_stretch_drops_out_and_one_inflated_reading_does_not_count() {
        let q = QUIET_NS as u32;
        // A reading every 2 ticks: ticks 0..10 on the quiet host, 10..20 at
        // half speed; the reading before tick 4 was inflated by an interrupt.
        let ns = [q, q, 5 * q, q, q, 2 * q, 2 * q, 2 * q, 2 * q, 2 * q];
        let readings: Vec<Reading> = (0..10)
            .map(|j| Reading {
                tick: 2 * j,
                ns: ns[j as usize],
            })
            .collect();
        let ticks: Vec<u32> = (0..20).map(|i| if i < 10 { 1000 } else { 2000 }).collect();
        let scaled = scale(&ticks, &readings);
        // Only ticks 8 and 9, whose five readings straddle the change, mix
        // the two speeds.
        assert_eq!(scaled[..8], [1000; 8]);
        assert_eq!(scaled[10..], [1000; 10]);
        assert_eq!(scale_setups(&[2e-3], &[q, 3 * q]), [1e-3]);
    }
}
