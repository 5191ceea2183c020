//! Set-up repetitions, warm-up, and the timed loop shared by every
//! workload.

use crate::alloc;
use crate::workloads::Driver;
use crate::yardstick::{Reading, Yardstick};
use std::time::{Duration, Instant};

/// Tick time between two yardstick readings in a closed loop.
const READ_EVERY: Duration = Duration::from_millis(1);
/// Least time to a due tick in which an open loop takes a reading.
const READ_SLACK: Duration = Duration::from_micros(500);

/// How many timed ticks to run and when each is due.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Closed loop: each tick starts when the previous one ends, until the
    /// budget is spent or `cap` ticks ran.
    Closed { budget: Duration, cap: usize },
    /// Open loop: tick `i` falls due `i` periods after the start; the loop
    /// waits until a tick is due and never skips one.
    Open { ticks: usize, period: Duration },
}

impl Pacing {
    /// Timed ticks at most.
    pub fn max_ticks(self) -> usize {
        match self {
            Pacing::Closed { cap, .. } => cap,
            Pacing::Open { ticks, .. } => ticks,
        }
    }

    /// Yardstick readings at most: one before the first tick, then at
    /// most one per tick and, in a closed loop, one per `READ_EVERY`.
    fn max_readings(self) -> usize {
        let per_budget = match self {
            Pacing::Closed { budget, .. } => budget.as_nanos() / READ_EVERY.as_nanos(),
            Pacing::Open { .. } => u128::MAX,
        };
        1 + self
            .max_ticks()
            .min(usize::try_from(per_budget).unwrap_or(usize::MAX))
    }
}

/// Raw samples of one timed phase. Buffers are allocated before set-up,
/// so the timed loop itself never allocates.
#[derive(Debug, Default)]
pub struct Timed {
    /// Service time of each timed tick (ns).
    pub durs: Vec<u32>,
    /// Due time to completion of each tick (ns); the service time in a
    /// closed loop, where a tick falls due when the previous one ends.
    pub late: Vec<u32>,
    /// Due time to start of each tick (ns); empty in a closed loop.
    pub wait: Vec<u32>,
    /// The most the loop overshot a due time it was waiting for (ns):
    /// how late the generator itself ran.
    pub generator_late_max: u64,
    /// Allocation events inside the leading `window` timed ticks.
    pub window_allocs: u64,
    /// Ticks in that window.
    pub window_ticks: usize,
    /// Allocation events inside all timed ticks.
    pub allocs: u64,
    /// Live-heap high-water mark during the phase (bytes).
    pub heap_peak: i64,
    /// Ticks whose step returned an error.
    pub failed: u64,
    /// Yardstick readings taken between ticks, in tick order.
    pub readings: Vec<Reading>,
    /// The first failure or oracle violation, which ends the phase.
    pub error: Option<String>,
}

impl Timed {
    /// Buffers for the timed ticks and readings of `pacing`.
    pub fn for_pacing(pacing: Pacing) -> Timed {
        let ticks = pacing.max_ticks();
        Timed {
            durs: Vec::with_capacity(ticks),
            late: Vec::with_capacity(ticks),
            wait: Vec::with_capacity(ticks),
            readings: Vec::with_capacity(pacing.max_readings()),
            ..Timed::default()
        }
    }
}

fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// The kept result of [`set_up`].
pub struct SetUp {
    /// The last set-up's driver, first tick taken.
    pub driver: Box<dyn Driver>,
    /// Every set-up's time (s).
    pub times: Vec<f64>,
    /// Yardstick readings before each set-up and after the last (ns).
    pub readings: Vec<u32>,
    /// The live heap just before the kept set-up, against which the run's
    /// heap peak is measured.
    pub baseline: i64,
}

/// Runs fresh set-ups until at least `reps` ran and `budget` passed, and
/// keeps the last one. A yardstick reading precedes each set-up and
/// follows the last.
pub fn set_up(
    reps: usize,
    budget: Duration,
    yardstick: &mut Yardstick,
    mut setup: impl FnMut() -> Result<Box<dyn Driver>, String>,
) -> Result<SetUp, String> {
    let mut times = Vec::with_capacity(reps);
    let mut readings = Vec::with_capacity(reps + 1);
    let mut last = None;
    let mut baseline = 0;
    let start = Instant::now();
    while times.len() < reps.max(1) || start.elapsed() < budget {
        drop(last.take());
        readings.push(yardstick.read());
        // Room for this set-up's pushes, so the bench's own buffers do not
        // grow past the baseline.
        times.reserve(1);
        readings.reserve(1);
        baseline = alloc::live();
        let t0 = Instant::now();
        let driver = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(driver);
    }
    readings.push(yardstick.read());
    let driver = last.ok_or("no set-up ran")?;
    Ok(SetUp {
        driver,
        times,
        readings,
        baseline,
    })
}

/// Steps ticks `ks` untimed, checking each.
pub fn warm_up(d: &mut dyn Driver, ks: std::ops::Range<usize>) -> Result<(), String> {
    for k in ks {
        d.prepare(k);
        d.step()?;
        d.check(k)?;
    }
    Ok(())
}

/// Polls the clock until `due`; returns how late it noticed. The loop
/// spins rather than sleeps, as a control loop on a dedicated core does:
/// on a shared host a vCPU that idles between ticks comes back to caches
/// another tenant has cleared, which measured 1.7× slower ticks.
fn wait_until(due: Instant) -> Duration {
    let mut now = Instant::now();
    while now < due {
        std::hint::spin_loop();
        now = Instant::now();
    }
    now - due
}

/// The timed phase: ticks `first_k..` under `pacing`, each stepped
/// between two clock reads and two allocation-counter reads, then checked
/// outside them. `after_tick` runs untimed after each check. Yardstick
/// readings are taken before the first tick and then between ticks: in a
/// closed loop after every `READ_EVERY` of tick time, in an open loop
/// while waiting for a tick due at least `READ_SLACK` later.
pub fn run_timed(
    d: &mut dyn Driver,
    first_k: usize,
    pacing: Pacing,
    window: usize,
    yardstick: &mut Yardstick,
    out: &mut Timed,
    mut after_tick: impl FnMut(&dyn Driver),
) {
    let max_ticks = pacing.max_ticks().min(out.durs.capacity());
    let mut read = |out: &mut Timed, tick: usize| {
        if out.readings.len() < out.readings.capacity() {
            let ns = yardstick.read();
            out.readings.push(Reading {
                tick: tick as u32,
                ns,
            });
        }
    };
    alloc::reset_peak();
    read(out, 0);
    let mut since_read = Duration::ZERO;
    let start = Instant::now();
    for i in 0..max_ticks {
        let due = match pacing {
            Pacing::Closed { budget, .. } => {
                if start.elapsed() >= budget {
                    break;
                }
                if since_read >= READ_EVERY {
                    read(out, i);
                    since_read = Duration::ZERO;
                }
                None
            }
            Pacing::Open { period, .. } => {
                let due = start + period * i as u32;
                if i > 0 && due.saturating_duration_since(Instant::now()) >= READ_SLACK {
                    read(out, i);
                }
                if Instant::now() < due {
                    out.generator_late_max = out
                        .generator_late_max
                        .max(wait_until(due).as_nanos() as u64);
                }
                Some(due)
            }
        };
        let k = first_k + i;
        d.prepare(k);
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let stepped = d.step();
        let t1 = Instant::now();
        let allocs = alloc::allocs() - a0;
        out.durs.push(ns(t1 - t0));
        since_read += t1 - t0;
        out.allocs += allocs;
        if i < window {
            out.window_allocs += allocs;
            out.window_ticks += 1;
        }
        match due {
            Some(due) => {
                out.late.push(ns(t1 - due));
                out.wait.push(ns(t0.saturating_duration_since(due)));
            }
            None => out.late.push(ns(t1 - t0)),
        }
        if let Err(e) = stepped {
            out.failed += 1;
            out.error = Some(format!("tick {k}: {e}"));
            break;
        }
        if let Err(e) = d.check(k) {
            out.error = Some(e);
            break;
        }
        after_tick(&*d);
    }
    out.heap_peak = alloc::peak();
}
