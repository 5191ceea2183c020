//! Deadline-aware adaptive inference control.
//!
//! A reactive model serves a live stream at a fixed tick rate; the paper's
//! engines instead fix the particle count and let each tick take as long as
//! it takes. [`AdaptiveController`] closes that gap: given a per-tick budget
//! in milliseconds it keeps recent step latencies as raw samples in a
//! bounded tumbling window, takes their exact nearest-rank p99, and walks
//! a *degradation ladder* to keep that p99 under budget:
//!
//! 1. **Shrink** the particle cloud geometrically toward a configured floor.
//! 2. **Relax** the resample policy (`EveryStep` → `EssBelow(0.5)`), saving
//!    the clone pass on healthy ticks.
//! 3. **Degrade**: at the floor with the policy already relaxed, stop
//!    thinning and report typed degradation through `Health` instead.
//!
//! Sustained headroom (window p99 under `headroom_fraction × budget`) walks
//! the same ladder in reverse: un-degrade, restore the policy, grow the
//! cloud back toward its initial size.
//!
//! Every decision is recorded in a [`DecisionTrace`]. Adaptive particle
//! counts fork the determinism story — the posterior is no longer a pure
//! function of `(seed, method, num_particles, inputs)` because wall-clock
//! latencies steer the cloud size — so the trace is the replay artifact:
//! feeding a recorded trace back through `Infer::with_decision_replay`
//! re-applies the same decisions at the same ticks and reproduces the
//! adaptive run's posteriors bit-for-bit, with no clock involved.

/// Configuration for the deadline controller.
///
/// Budgets are wall-clock milliseconds per engine step. The controller is
/// deliberately tolerant of extreme budgets: a budget below any achievable
/// latency (e.g. a negative one) forces the full degradation ladder, which
/// the tests use to drive the controller deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineConfig {
    /// Per-tick latency budget in milliseconds. Must be finite.
    pub budget_ms: f64,
    /// The particle cloud never shrinks below this count (≥ 1). When the
    /// controller is attached to an engine the floor is additionally
    /// clamped to the engine's initial particle count.
    pub floor: usize,
    /// Minimum window length (in ticks) over which the p99 is computed.
    /// The window *tumbles*: samples accumulate until at least `window`
    /// of them are present, the p99 is evaluated once, and the window is
    /// cleared — so every evaluation (decision or not) sees only fresh
    /// latencies.
    pub window: usize,
    /// Multiplier applied to the cloud on each shrink rung (0 < f < 1).
    pub shrink_factor: f64,
    /// Multiplier applied to the cloud on each grow rung (> 1).
    pub grow_factor: f64,
    /// Recovery threshold: the ladder walks back up only while the window
    /// p99 stays below `headroom_fraction * budget_ms` (0 < f < 1).
    pub headroom_fraction: f64,
}

impl DeadlineConfig {
    /// A config with the default ladder shape and the given budget.
    pub fn new(budget_ms: f64) -> Self {
        DeadlineConfig {
            budget_ms,
            floor: 1,
            window: 8,
            shrink_factor: 0.7,
            grow_factor: 1.3,
            headroom_fraction: 0.5,
        }
    }

    /// Panics if the configuration is structurally invalid.
    pub(crate) fn validate(&self) {
        assert!(self.budget_ms.is_finite(), "deadline budget must be finite");
        assert!(self.floor >= 1, "particle floor must be at least 1");
        assert!(self.window >= 1, "latency window must be at least 1 tick");
        assert!(
            self.shrink_factor > 0.0 && self.shrink_factor < 1.0,
            "shrink_factor must be in (0, 1)"
        );
        assert!(self.grow_factor > 1.0, "grow_factor must be greater than 1");
        assert!(
            self.headroom_fraction > 0.0 && self.headroom_fraction < 1.0,
            "headroom_fraction must be in (0, 1)"
        );
    }
}

/// One rung of the degradation ladder (or its reverse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineAction {
    /// Shrink the particle cloud (`from` → `to`, `to < from`).
    Shrink,
    /// Grow the particle cloud back (`from` → `to`, `to > from`).
    Grow,
    /// Relax the resample policy to `EssBelow(0.5)`.
    RelaxResample,
    /// Restore the resample policy the engine was built with.
    RestoreResample,
    /// The ladder is exhausted: at the floor, relaxed, still over budget.
    /// The engine reports this through `Health` instead of thinning further.
    FloorDegraded,
    /// Sustained headroom while fully degraded; leaves the degraded state.
    FloorRecovered,
}

impl DeadlineAction {
    /// Stable wire name used in JSONL traces and `obs` events.
    pub fn label(&self) -> &'static str {
        match self {
            DeadlineAction::Shrink => "shrink",
            DeadlineAction::Grow => "grow",
            DeadlineAction::RelaxResample => "relax-resample",
            DeadlineAction::RestoreResample => "restore-resample",
            DeadlineAction::FloorDegraded => "floor-degraded",
            DeadlineAction::FloorRecovered => "floor-recovered",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "shrink" => DeadlineAction::Shrink,
            "grow" => DeadlineAction::Grow,
            "relax-resample" => DeadlineAction::RelaxResample,
            "restore-resample" => DeadlineAction::RestoreResample,
            "floor-degraded" => DeadlineAction::FloorDegraded,
            "floor-recovered" => DeadlineAction::FloorRecovered,
            _ => return None,
        })
    }
}

/// One recorded controller decision.
///
/// `from`/`to` are the particle counts before and after the decision; for
/// non-resizing actions they are equal. `observed_p99_ms` and `budget_ms`
/// record *why* the decision fired; replay only consumes `tick`, `action`
/// and `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    pub tick: u64,
    pub action: DeadlineAction,
    pub from: usize,
    pub to: usize,
    pub observed_p99_ms: f64,
    pub budget_ms: f64,
}

/// A replayable sequence of controller decisions, ordered by tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionTrace {
    entries: Vec<DecisionRecord>,
}

impl DecisionTrace {
    pub fn new() -> Self {
        DecisionTrace::default()
    }

    pub fn push(&mut self, rec: DecisionRecord) {
        self.entries.push(rec);
    }

    pub fn entries(&self) -> &[DecisionRecord] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize as one JSON object per line (stable field order).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.entries {
            out.push_str(&format!(
                "{{\"tick\":{},\"action\":\"{}\",\"from\":{},\"to\":{},\
                 \"observed_p99_ms\":{:?},\"budget_ms\":{:?}}}\n",
                r.tick,
                r.action.label(),
                r.from,
                r.to,
                r.observed_p99_ms,
                r.budget_ms,
            ));
        }
        out
    }

    /// Parse the format produced by [`DecisionTrace::to_jsonl`]. Blank
    /// lines are skipped; any malformed line is a typed error naming the
    /// line number.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
            let pat = format!("\"{key}\":");
            let start = line
                .find(&pat)
                .ok_or_else(|| format!("missing field '{key}'"))?
                + pat.len();
            let rest = &line[start..];
            let end = rest
                .find([',', '}'])
                .ok_or_else(|| format!("unterminated field '{key}'"))?;
            Ok(rest[..end].trim())
        }
        let mut trace = DecisionTrace::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let ctx = |e: String| format!("trace line {}: {e}", i + 1);
            let action_raw = field(line, "action").map_err(ctx)?;
            let action_name = action_raw.trim_matches('"');
            let action = DeadlineAction::from_label(action_name)
                .ok_or_else(|| ctx(format!("unknown action '{action_name}'")))?;
            let num = |key: &str| -> Result<f64, String> {
                field(line, key)?
                    .parse::<f64>()
                    .map_err(|e| format!("bad number in '{key}': {e}"))
            };
            let int = |key: &str| -> Result<u64, String> {
                field(line, key)?
                    .parse::<u64>()
                    .map_err(|e| format!("bad integer in '{key}': {e}"))
            };
            trace.push(DecisionRecord {
                tick: int("tick").map_err(ctx)?,
                action,
                from: int("from").map_err(ctx)? as usize,
                to: int("to").map_err(ctx)? as usize,
                observed_p99_ms: num("observed_p99_ms").map_err(ctx)?,
                budget_ms: num("budget_ms").map_err(ctx)?,
            });
        }
        Ok(trace)
    }
}

/// Point-in-time view of the controller, carried on `Health::deadline`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineStatus {
    /// The current per-tick budget in milliseconds.
    pub budget_ms: f64,
    /// Current particle-cloud size.
    pub particles: usize,
    /// The configured (engine-clamped) floor.
    pub floor: usize,
    /// Whether the most recently observed tick exceeded the budget.
    pub missed: bool,
    /// The p99 over the current latency window, if a window has formed.
    pub window_p99_ms: Option<f64>,
    /// The cloud sits at the floor (it cannot shrink further).
    pub at_floor: bool,
    /// The full ladder is exhausted: at the floor, resampling relaxed, and
    /// still over budget. This is the typed "degraded, not thinning"
    /// signal required by the graceful-degradation contract.
    pub degraded: bool,
}

/// The graceful-degradation controller. Owns the latency window, the
/// ladder state, and the decision trace; the engine owns applying the
/// decisions to the particle cloud.
#[derive(Debug)]
pub struct AdaptiveController {
    cfg: DeadlineConfig,
    initial: usize,
    current: usize,
    // Raw latencies (ms) of the current tumbling window. A window is
    // evaluated and cleared once it holds `window` samples, so the
    // capacity reserved at construction is never outgrown and `observe`
    // never allocates.
    window: Vec<f64>,
    relaxed: bool,
    degraded: bool,
    misses: u64,
    last_p99: Option<f64>,
    last_missed: bool,
    trace: DecisionTrace,
}

// By hand so that a clone keeps the window's reserved capacity (a derived
// `Vec` clone would not), and its `observe` does not allocate either.
impl Clone for AdaptiveController {
    fn clone(&self) -> Self {
        let mut window = Vec::with_capacity(self.window.capacity());
        window.extend_from_slice(&self.window);
        AdaptiveController {
            window,
            trace: self.trace.clone(),
            ..*self
        }
    }
}

impl AdaptiveController {
    /// `initial` is the engine's starting particle count; the configured
    /// floor is clamped into `[1, initial]`.
    pub fn new(mut cfg: DeadlineConfig, initial: usize) -> Self {
        assert!(initial >= 1, "cannot control an empty particle cloud");
        cfg.floor = cfg.floor.min(initial).max(1);
        cfg.validate();
        AdaptiveController {
            cfg,
            initial,
            current: initial,
            window: Vec::with_capacity(cfg.window),
            relaxed: false,
            degraded: false,
            misses: 0,
            last_p99: None,
            last_missed: false,
            trace: DecisionTrace::new(),
        }
    }

    pub fn config(&self) -> &DeadlineConfig {
        &self.cfg
    }

    /// Particle count the controller believes the engine is running.
    pub fn current_particles(&self) -> usize {
        self.current
    }

    pub fn initial_particles(&self) -> usize {
        self.initial
    }

    pub fn floor(&self) -> usize {
        self.cfg.floor
    }

    /// Total ticks observed over budget since construction or reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn trace(&self) -> &DecisionTrace {
        &self.trace
    }

    pub fn status(&self) -> DeadlineStatus {
        DeadlineStatus {
            budget_ms: self.cfg.budget_ms,
            particles: self.current,
            floor: self.cfg.floor,
            missed: self.last_missed,
            window_p99_ms: self.last_p99,
            at_floor: self.current == self.cfg.floor,
            degraded: self.degraded,
        }
    }

    /// Change the budget mid-stream (the `pzserve` knob). Clears the
    /// latency window so stale samples measured against the old budget
    /// cannot trigger an immediate decision. A NaN or infinite budget is
    /// refused: the controller is left untouched and `false` returned.
    pub fn set_budget(&mut self, budget_ms: f64) -> bool {
        if !budget_ms.is_finite() {
            return false;
        }
        self.cfg.budget_ms = budget_ms;
        self.window.clear();
        self.last_p99 = None;
        true
    }

    /// Forget everything except the configuration (engine `reset`).
    pub fn reset(&mut self) {
        self.current = self.initial;
        self.window.clear();
        self.relaxed = false;
        self.degraded = false;
        self.misses = 0;
        self.last_p99 = None;
        self.last_missed = false;
        self.trace = DecisionTrace::new();
    }

    /// Feed one measured step latency. Returns the decision for this tick,
    /// if any; the caller must apply it (resize the cloud / switch the
    /// resample policy) and may export it as an `obs` event. The returned
    /// record has already been appended to the trace.
    ///
    /// Samples land in a tumbling window: once `cfg.window` samples are
    /// present, their exact nearest-rank p99 is evaluated and the window
    /// cleared — whether or not a rung fires — so each evaluation sees
    /// only fresh latencies and a past overload can never pin the
    /// controller. Consecutive decisions are therefore at least
    /// `cfg.window` ticks apart.
    pub fn observe(&mut self, tick: u64, latency_ms: f64) -> Option<DecisionRecord> {
        self.last_missed = latency_ms > self.cfg.budget_ms;
        if self.last_missed {
            self.misses += 1;
        }
        self.window.push(latency_ms);
        if self.window.len() < self.cfg.window {
            return None;
        }
        let p99 = nearest_rank(&mut self.window, 0.99);
        self.window.clear();
        self.last_p99 = Some(p99);
        let action = if p99 > self.cfg.budget_ms {
            self.degrade_rung()
        } else if p99 < self.cfg.headroom_fraction * self.cfg.budget_ms {
            self.recover_rung()
        } else {
            None
        };
        let (action, from, to) = action?;
        self.current = to;
        let rec = DecisionRecord {
            tick,
            action,
            from,
            to,
            observed_p99_ms: p99,
            budget_ms: self.cfg.budget_ms,
        };
        self.trace.push(rec.clone());
        Some(rec)
    }

    /// Next rung down: shrink while above the floor, then relax the
    /// resample policy, then (once) report floor degradation.
    fn degrade_rung(&mut self) -> Option<(DeadlineAction, usize, usize)> {
        if self.current > self.cfg.floor {
            let shrunk = ((self.current as f64) * self.cfg.shrink_factor).ceil() as usize;
            let to = shrunk.clamp(self.cfg.floor, self.current - 1);
            return Some((DeadlineAction::Shrink, self.current, to));
        }
        if !self.relaxed {
            self.relaxed = true;
            return Some((DeadlineAction::RelaxResample, self.current, self.current));
        }
        if !self.degraded {
            self.degraded = true;
            return Some((DeadlineAction::FloorDegraded, self.current, self.current));
        }
        None
    }

    /// Reverse ladder, LIFO: leave the degraded state, restore the
    /// policy, then grow back toward the initial cloud size.
    fn recover_rung(&mut self) -> Option<(DeadlineAction, usize, usize)> {
        if self.degraded {
            self.degraded = false;
            return Some((DeadlineAction::FloorRecovered, self.current, self.current));
        }
        if self.relaxed {
            self.relaxed = false;
            return Some((DeadlineAction::RestoreResample, self.current, self.current));
        }
        if self.current < self.initial {
            let grown = ((self.current as f64) * self.cfg.grow_factor).floor() as usize;
            let to = grown.clamp(self.current + 1, self.initial);
            return Some((DeadlineAction::Grow, self.current, to));
        }
        None
    }
}

/// The exact nearest-rank `q`-quantile (`rank = ceil(q·n)`, clamped to
/// `1..=n`) of a non-empty sample set, which it reorders.
fn nearest_rank(samples: &mut [f64], q: f64) -> f64 {
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder_cfg() -> DeadlineConfig {
        DeadlineConfig {
            floor: 4,
            window: 2,
            ..DeadlineConfig::new(1.0)
        }
    }

    fn drive(c: &mut AdaptiveController, ticks: std::ops::Range<u64>, ms: f64) {
        for t in ticks {
            c.observe(t, ms);
        }
    }

    #[test]
    fn degradation_ladder_fires_in_order_then_goes_quiet() {
        let mut c = AdaptiveController::new(ladder_cfg(), 10);
        drive(&mut c, 0..40, 5.0); // always over budget
        let actions: Vec<DeadlineAction> = c.trace().entries().iter().map(|r| r.action).collect();
        // 10 -> 7 -> 5 -> 4, then relax, then degraded, then silence.
        assert_eq!(
            actions,
            vec![
                DeadlineAction::Shrink,
                DeadlineAction::Shrink,
                DeadlineAction::Shrink,
                DeadlineAction::RelaxResample,
                DeadlineAction::FloorDegraded,
            ]
        );
        assert_eq!(c.current_particles(), 4);
        assert!(c.status().degraded);
        assert!(c.status().at_floor);
        assert_eq!(c.misses(), 40);
    }

    #[test]
    fn recovery_walks_the_ladder_in_reverse() {
        let mut c = AdaptiveController::new(ladder_cfg(), 10);
        drive(&mut c, 0..20, 5.0); // degrade fully
        let down = c.trace().len();
        drive(&mut c, 20..60, 0.01); // sustained headroom
        let actions: Vec<DeadlineAction> = c.trace().entries()[down..]
            .iter()
            .map(|r| r.action)
            .collect();
        assert_eq!(
            actions,
            vec![
                DeadlineAction::FloorRecovered,
                DeadlineAction::RestoreResample,
                DeadlineAction::Grow, // 4 -> 5
                DeadlineAction::Grow, // 5 -> 6
                DeadlineAction::Grow, // 6 -> 7
                DeadlineAction::Grow, // 7 -> 9
                DeadlineAction::Grow, // 9 -> 10
            ]
        );
        assert_eq!(c.current_particles(), 10);
        assert!(!c.status().degraded);
    }

    #[test]
    fn shrink_always_makes_progress_near_the_floor() {
        // ceil(5 * 0.9) == 5 would stall without the current-1 clamp.
        let cfg = DeadlineConfig {
            shrink_factor: 0.9,
            floor: 1,
            window: 1,
            ..DeadlineConfig::new(1.0)
        };
        let mut c = AdaptiveController::new(cfg, 5);
        drive(&mut c, 0..30, 5.0);
        assert_eq!(c.current_particles(), 1);
    }

    #[test]
    fn budget_change_clears_the_window() {
        let mut c = AdaptiveController::new(ladder_cfg(), 10);
        drive(&mut c, 0..4, 5.0); // two shrink decisions: 10 -> 7 -> 5
        assert_eq!(c.current_particles(), 5);
        assert!(c.set_budget(100.0));
        // The old over-budget samples must not count toward a new window:
        // growth needs a full window of fresh post-change samples.
        assert!(c.observe(4, 0.01).is_none());
        let rec = c.observe(5, 0.01).expect("recovery decision");
        assert_eq!(rec.action, DeadlineAction::Grow);
        assert_eq!(rec.budget_ms, 100.0);
    }

    #[test]
    fn window_p99_is_the_exact_sample() {
        // 1.25 ms lies in the [1, 2) octave, whose lower bound equals the
        // budget: only the exact sample shows the window is over budget.
        let cfg = DeadlineConfig {
            window: 4,
            ..DeadlineConfig::new(1.0)
        };
        let mut c = AdaptiveController::new(cfg, 10);
        drive(&mut c, 0..3, 0.5);
        let rec = c.observe(3, 1.25).expect("over-budget window");
        assert_eq!(rec.action, DeadlineAction::Shrink);
        assert_eq!(rec.observed_p99_ms, 1.25);
        assert_eq!(nearest_rank(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(nearest_rank(&mut [3.0, 1.0, 2.0], 0.0), 1.0);
    }

    #[test]
    fn window_never_outgrows_its_reserved_capacity() {
        let cfg = DeadlineConfig {
            window: 3,
            ..ladder_cfg()
        };
        let mut c = AdaptiveController::new(cfg, 100);
        let mut twin = c.clone();
        let (cap, twin_cap) = (c.window.capacity(), twin.window.capacity());
        assert_eq!(cap, 3);
        for t in 0..200 {
            let ms = if t % 23 < 9 { 5.0 } else { 0.01 };
            c.observe(t, ms);
            twin.observe(t, ms);
        }
        assert!(c.trace().len() > 4, "the ladder moved both ways");
        assert_eq!(c.window.capacity(), cap);
        assert_eq!(twin.window.capacity(), twin_cap);
        assert_eq!(twin.trace(), c.trace());
    }

    #[test]
    fn jsonl_round_trips_bit_for_bit() {
        let mut c = AdaptiveController::new(ladder_cfg(), 10);
        drive(&mut c, 0..20, 5.0);
        drive(&mut c, 20..40, 0.25);
        let text = c.trace().to_jsonl();
        let back = DecisionTrace::from_jsonl(&text).expect("parses");
        assert_eq!(&back, c.trace());
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn from_jsonl_rejects_malformed_lines() {
        assert!(DecisionTrace::from_jsonl("{\"tick\":1}").is_err());
        assert!(DecisionTrace::from_jsonl(
            "{\"tick\":1,\"action\":\"warp\",\"from\":2,\"to\":1,\
             \"observed_p99_ms\":1.0,\"budget_ms\":1.0}"
        )
        .is_err());
        assert!(DecisionTrace::from_jsonl("").expect("empty ok").is_empty());
    }

    #[test]
    #[should_panic(expected = "shrink_factor")]
    fn invalid_config_is_rejected() {
        let cfg = DeadlineConfig {
            shrink_factor: 1.5,
            ..DeadlineConfig::new(1.0)
        };
        AdaptiveController::new(cfg, 10);
    }

    #[test]
    fn floor_is_clamped_to_the_initial_cloud() {
        let cfg = DeadlineConfig {
            floor: 100,
            ..DeadlineConfig::new(1.0)
        };
        let c = AdaptiveController::new(cfg, 10);
        assert_eq!(c.floor(), 10);
    }
}
