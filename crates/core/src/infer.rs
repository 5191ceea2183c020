//! Streaming inference engines.
//!
//! [`Infer`] is the runtime object behind the language's `infer n model`
//! expression: it owns `n` particles, steps them all on each input, and
//! returns the step's [`Posterior`]. Five methods are provided:
//!
//! | [`Method`]            | §     | semantics |
//! |-----------------------|-------|-----------|
//! | `Importance`          | 5.1   | weights accumulate forever, no resampling (collapses over time — kept as the paper's cautionary baseline) |
//! | `ParticleFilter`      | 5.1   | eager sampling + systematic resampling each step |
//! | `BoundedDs`           | 5.2   | fresh delayed-sampling graph per step; delayed variables forced at the end of each instant |
//! | `StreamingDs`         | 5.3   | pointer-minimal graph kept across steps; analytic mixtures; mark-and-sweep GC from program roots |
//! | `ClassicDs`           | 6.3   | like `StreamingDs` but nodes are never reclaimed — the original delayed sampling whose memory grows without bound |
//!
//! # Determinism and parallelism
//!
//! Randomness is organized as counter-derived streams
//! ([`crate::rngstream`]): at step `g`, particle `i` draws from a fresh
//! generator seeded from `(engine_seed, i, g)`, and the coordinator's
//! resampling generator is derived from `(engine_seed, g)` under a
//! separate domain tag. No generator state is shared between particles,
//! so the posterior at every step is a pure function of
//! `(seed, method, num_particles, inputs)` — bit-for-bit identical
//! regardless of the order particles are stepped in or the number of
//! threads doing the stepping.
//!
//! Parallel stepping is opt-in via [`Infer::with_parallelism`]: with
//! [`Parallelism::Threads`], particles are sharded over a persistent
//! [`WorkerPool`] while weight normalization, ESS, posterior assembly,
//! and resampling stay on the coordinator. The `M: Send` bound is
//! required only by `with_parallelism` itself; purely sequential use of
//! [`Infer`] places no thread-safety constraints on the model.

use crate::adaptive::{
    AdaptiveController, DeadlineAction, DeadlineConfig, DeadlineStatus, DecisionRecord,
    DecisionTrace,
};
use crate::ds::graph::{Graph, GraphStats, Retention};
use crate::error::RuntimeError;
use crate::model::Model;
use crate::obs::{self, FieldValue, Obs};
use crate::pool::WorkerPool;
use crate::posterior::{Posterior, ValueDist};
use crate::prob::{DsCtx, ProbCtx, SampleCtx};
use crate::rngstream;
use crate::supervisor::{
    self, FaultKind, Health, ParticleFault, RecoveryAction, RecoveryPolicy, StepOutcome,
};
use crate::symbolic::RvId;
use crate::trace::{self, FlightRecorder, SpanRecord};
use crate::value::Value;
use probzelus_distributions::stats;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::TryReserveError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Inference method selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Plain importance sampling (no resampling; weights accumulate).
    Importance,
    /// Particle filter with per-step systematic resampling.
    ParticleFilter,
    /// Bounded delayed sampling (BDS).
    BoundedDs,
    /// Streaming delayed sampling (SDS), pointer-minimal.
    StreamingDs,
    /// Original delayed sampling (DS) baseline: unbounded retention.
    ClassicDs,
}

impl Method {
    /// All methods, in the order the paper's figures list them.
    pub const ALL: [Method; 5] = [
        Method::ParticleFilter,
        Method::BoundedDs,
        Method::StreamingDs,
        Method::ClassicDs,
        Method::Importance,
    ];

    /// The abbreviation used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Importance => "IS",
            Method::ParticleFilter => "PF",
            Method::BoundedDs => "BDS",
            Method::StreamingDs => "SDS",
            Method::ClassicDs => "DS",
        }
    }

    fn resamples(&self) -> bool {
        !matches!(self, Method::Importance)
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How particle stepping is executed within one instant.
///
/// Either mode produces bit-for-bit identical posteriors for a given
/// seed — parallelism is purely a latency knob (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Step particles one after another on the calling thread (default).
    Sequential,
    /// Shard particles over a persistent pool of this many worker
    /// threads. `Threads(1)` still routes work through the pool (useful
    /// for exercising the parallel path deterministically in tests).
    Threads(usize),
}

/// When to resample the particle cloud (§5.1: resampling can happen
/// "periodically (e.g., at every step) or triggered by an observer (e.g.,
/// when the scores are too low)").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResamplePolicy {
    /// Systematic resampling after every step (the paper's default, and
    /// this crate's default for every method except `Importance`).
    EveryStep,
    /// Resample only when the effective sample size drops below
    /// `fraction · N` (adaptive resampling).
    EssBelow(f64),
    /// Never resample — plain importance sampling; weights accumulate and
    /// eventually collapse (§5.1).
    Never,
}

/// Cumulative resampling-work counters, queryable via
/// [`Infer::resample_stats`]. These are plain `u64` increments on the
/// coordinator, cheap enough to track unconditionally (no sink needed),
/// which is what lets the perf harness and sink-free tests witness
/// clone-minimality directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResampleStats {
    /// Resampling passes executed.
    pub passes: u64,
    /// Particle copies made (model state plus delayed-sampling graph),
    /// each `clone_from`'d into the storage of a dead particle, or of a
    /// fresh one when the cloud grows.
    pub clones: u64,
    /// Surviving ancestors moved into one of their slots instead of
    /// cloned — one per ancestor with at least one offspring, so
    /// `clones + clones_avoided` is the number of slots filled.
    pub clones_avoided: u64,
    /// Dead particles (no offspring); their storage takes the copies, and
    /// what is left over when the cloud shrinks is dropped.
    pub dropped: u64,
}

/// Persistent per-tick numeric scratch. The weight pipeline reuses these
/// buffers every step, so the steady-state hot loop performs no
/// weight/ancestor allocations after the first tick.
#[derive(Debug, Default)]
struct StepScratch {
    /// Accumulated per-particle log-weights, snapshotted each tick.
    log_ws: Vec<f64>,
    /// Normalized linear-space weights (uniform on collapse).
    weights: Vec<f64>,
    /// Ancestor indices from the systematic sweep (nondecreasing).
    ancestors: Vec<usize>,
    /// Per-ancestor offspring counts for the clone-minimal pass.
    offspring: Vec<u32>,
    /// GC-root buffer reused across the sequential step loop (each
    /// particle clears and refills it).
    roots: Vec<RvId>,
}

impl StepScratch {
    /// An empty scratch carrying only `other`'s capacity hints, so a
    /// cloned engine's first step is allocation-free too.
    fn with_capacity_of(other: &StepScratch) -> StepScratch {
        StepScratch {
            log_ws: Vec::with_capacity(other.log_ws.capacity()),
            weights: Vec::with_capacity(other.weights.capacity()),
            ancestors: Vec::with_capacity(other.ancestors.capacity()),
            offspring: Vec::with_capacity(other.offspring.capacity()),
            roots: Vec::with_capacity(other.roots.capacity()),
        }
    }

    /// Heap bytes currently reserved by the numeric buffers.
    fn bytes(&self) -> usize {
        self.log_ws.capacity() * std::mem::size_of::<f64>()
            + self.weights.capacity() * std::mem::size_of::<f64>()
            + self.ancestors.capacity() * std::mem::size_of::<usize>()
            + self.offspring.capacity() * std::mem::size_of::<u32>()
            + self.roots.capacity() * std::mem::size_of::<RvId>()
    }
}

/// Aggregate memory statistics across particles (the analogue of the
/// paper's live-heap-words measurements of Fig. 4 / Fig. 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Live graph nodes summed over particles.
    pub live_nodes: usize,
    /// Approximate live bytes summed over particles.
    pub live_bytes: usize,
    /// Total graph nodes ever created.
    pub total_created: u64,
}

struct Particle<M> {
    model: M,
    graph: Option<Graph>,
    log_w: f64,
}

// Written by hand because `derive(Clone)` never overrides `clone_from`:
// the resampler copies survivors into dropped particles' storage.
impl<M: Clone> Clone for Particle<M> {
    fn clone(&self) -> Self {
        Particle {
            model: self.model.clone(),
            graph: self.graph.clone(),
            log_w: self.log_w,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.model.clone_from(&source.model);
        self.graph.clone_from(&source.graph);
        self.log_w = source.log_w;
    }
}

/// `v[dst].clone_from(&v[src])` for two distinct slots of one slice.
fn clone_within<T: Clone>(v: &mut [T], dst: usize, src: usize) {
    if dst < src {
        let (head, tail) = v.split_at_mut(src);
        head[dst].clone_from(&tail[0]);
    } else {
        let (head, tail) = v.split_at_mut(dst);
        tail[0].clone_from(&head[src]);
    }
}

/// The resampling pass, in place. `offspring[i]` holds particle `i`'s
/// offspring count from a nondecreasing ancestor sweep `ancestors`, so
/// laying out the copies in ascending `i` leaves slot `j` holding
/// ancestor `ancestors[j]`. `target` is the offspring sum, the new cloud
/// size; `offspring` is compacted along with the particles.
///
/// The survivors are first compacted to the front in their order, with
/// the dead particles' storage behind them. The copies are then laid
/// out from the back: each survivor is moved once into its last slot,
/// and its other `offspring[i] - 1` copies are `clone_from`'d into the
/// dead storage in front of that slot, so they reuse its heap. This is
/// sound because survivor `i`'s first slot is at least `i` (every
/// survivor before it has at least one slot), so the slots written for
/// survivor `i` hold no survivor yet to be laid out. Only a growing cloud
/// allocates fresh particles; a shrinking one drops its leftover dead.
fn resample_clone_minimal<M: Clone>(
    particles: &mut Vec<Particle<M>>,
    offspring: &mut [u32],
    target: usize,
    stats: &mut ResampleStats,
) {
    debug_assert_eq!(offspring.iter().map(|&k| k as usize).sum::<usize>(), target);
    let n = particles.len();
    let mut survivors = 0;
    for i in 0..n {
        if offspring[i] > 0 {
            particles.swap(survivors, i);
            offspring[survivors] = offspring[i];
            survivors += 1;
        }
    }
    stats.dropped += (n - survivors) as u64;
    // Storage for a growing cloud; its contents are overwritten below.
    while particles.len() < target {
        let p = particles[0].clone();
        particles.push(p);
    }
    let mut end = target;
    for i in (0..survivors).rev() {
        let k = offspring[i] as usize;
        let last = end - 1;
        particles.swap(i, last);
        particles[last].log_w = 0.0;
        for slot in end - k..last {
            clone_within(particles, slot, last);
        }
        stats.clones += k as u64 - 1;
        stats.clones_avoided += 1;
        end -= k;
    }
    debug_assert_eq!(end, 0);
    particles.truncate(target);
}

/// Deadline state attached to an engine: either a live measuring
/// controller or a recorded trace being replayed clock-free.
#[derive(Clone)]
enum DeadlineMode {
    /// Watch measured step latencies and walk the degradation ladder.
    Measure(AdaptiveController),
    /// Re-apply the decisions of a recorded [`DecisionTrace`] at their
    /// original ticks. No clock is consulted, so the run is a pure
    /// function of `(seed, method, initial particles, inputs, trace)`.
    Replay { trace: DecisionTrace, cursor: usize },
}

#[derive(Clone)]
struct DeadlineState {
    mode: DeadlineMode,
    /// The resample policy to restore when the controller un-relaxes
    /// (kept in sync by [`Infer::with_resample_policy`]).
    base_policy: ResamplePolicy,
}

/// A streaming inference engine over a probabilistic [`Model`].
///
/// # Examples
///
/// Exact streaming inference on the Kalman model with one particle:
///
/// ```
/// # use probzelus_core::model::{Model, FnModel};
/// # use probzelus_core::prob::ProbCtx;
/// # use probzelus_core::value::{DistExpr, Value};
/// # use probzelus_core::infer::{Infer, Method};
/// # #[derive(Clone, Default)]
/// # struct Kalman { prev_x: Option<Value> }
/// # impl Model for Kalman {
/// #     type Input = f64;
/// #     fn step(&mut self, ctx: &mut dyn ProbCtx, y: &f64)
/// #         -> Result<Value, probzelus_core::error::RuntimeError> {
/// #         let d = match &self.prev_x {
/// #             None => DistExpr::gaussian(0.0, 100.0),
/// #             Some(x) => DistExpr::gaussian(x.clone(), 1.0),
/// #         };
/// #         let x = ctx.sample(&d)?;
/// #         ctx.observe(&DistExpr::gaussian(x.clone(), 1.0), &Value::Float(*y))?;
/// #         self.prev_x = Some(x.clone());
/// #         Ok(x)
/// #     }
/// #     fn reset(&mut self) { self.prev_x = None; }
/// #     fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
/// #         if let Some(x) = &mut self.prev_x { f(x); }
/// #     }
/// # }
/// let mut infer = Infer::with_seed(Method::StreamingDs, 1, Kalman::default(), 42);
/// let posterior = infer.step(&2.5).unwrap();
/// assert!((posterior.mean_float() - 2.5 * 100.0 / 101.0).abs() < 1e-9);
/// ```
pub struct Infer<M: Model> {
    method: Method,
    num_particles: usize,
    /// The particle count the engine was built with. `num_particles` may
    /// drift below it under deadline control; [`Infer::reset`] restores it
    /// and the controller never grows past it.
    initial_particles: usize,
    /// Deadline controller / trace replay, when attached.
    deadline: Option<DeadlineState>,
    /// The particle cloud: each particle's model state, delayed-sampling
    /// graph and log-weight stepped as one unit.
    particles: Vec<Particle<M>>,
    template: M,
    seed: u64,
    steps: u64,
    last_ess: f64,
    resample: ResamplePolicy,
    /// Cumulative resampling-work counters (reset by [`Infer::reset`]).
    resample_stats: ResampleStats,
    /// Per-tick numeric scratch, reused across steps.
    scratch: StepScratch,
    parallelism: Parallelism,
    /// Lazily created on the first parallel step; never cloned.
    pool: Option<WorkerPool>,
    /// The monomorphized parallel stepper.
    /// Storing it as a plain `fn` pointer keeps the `M: Send` obligation
    /// confined to [`Infer::with_parallelism`], where the pointer is
    /// instantiated — `step` itself needs no thread-safety bounds.
    par_step: Option<ParStepFn<M>>,
    /// What to do with a particle that faults mid-step.
    recovery: RecoveryPolicy,
    /// How many consecutive weight collapses the supervisor absorbs
    /// before declaring the run degenerate.
    collapse_retry_budget: u32,
    /// Consecutive collapsed steps so far (reset by any healthy step).
    consecutive_collapses: u32,
    /// The most recent healthy posterior, used as the fallback output
    /// when a step produces no usable components.
    last_good: Option<Posterior>,
    /// Health report of the most recent completed step.
    last_health: Option<Health>,
    /// Telemetry handle; off (a no-op branch per emission) by default.
    obs: Obs,
    /// Always-on span ring (see [`crate::trace::FlightRecorder`]);
    /// created by [`Infer::with_black_box`] and shared with the pool.
    recorder: Option<Arc<FlightRecorder>>,
    /// Where incident dumps land (one JSONL black box, latest incident
    /// wins).
    black_box_path: Option<std::path::PathBuf>,
}

type ParStepFn<M> = fn(
    &WorkerPool,
    &mut [Particle<M>],
    &<M as Model>::Input,
    Method,
    u64,
    u64,
) -> Vec<Result<ValueDist, FaultKind>>;

impl<M: Model> Clone for Infer<M> {
    fn clone(&self) -> Self {
        Infer {
            method: self.method,
            num_particles: self.num_particles,
            initial_particles: self.initial_particles,
            deadline: self.deadline.clone(),
            particles: self.particles.clone(),
            template: self.template.clone(),
            seed: self.seed,
            steps: self.steps,
            last_ess: self.last_ess,
            resample: self.resample,
            resample_stats: self.resample_stats,
            // Scratch contents are strictly per-tick, so the clone copies
            // only the capacity hints: its first step allocates nothing,
            // same as the original's.
            scratch: StepScratch::with_capacity_of(&self.scratch),
            parallelism: self.parallelism,
            // The clone re-creates its own pool on first use.
            pool: None,
            par_step: self.par_step,
            recovery: self.recovery,
            collapse_retry_budget: self.collapse_retry_budget,
            consecutive_collapses: self.consecutive_collapses,
            last_good: self.last_good.clone(),
            last_health: self.last_health.clone(),
            obs: self.obs.clone(),
            // Clones share the ring (like the sink): spans from both
            // engines land in one black box, tagged by tick.
            recorder: self.recorder.clone(),
            black_box_path: self.black_box_path.clone(),
        }
    }
}

impl<M: Model> Infer<M> {
    /// Creates an engine with `num_particles` particles initialized from
    /// `model`, seeded from the OS entropy source.
    ///
    /// # Panics
    ///
    /// Panics if `num_particles` is zero.
    pub fn new(method: Method, num_particles: usize, model: M) -> Self {
        Self::with_seed(method, num_particles, model, rand::random())
    }

    /// Like [`Infer::new`] with a deterministic RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `num_particles` is zero or the particle cloud cannot be
    /// allocated (see [`Infer::try_with_seed`]).
    pub fn with_seed(method: Method, num_particles: usize, model: M, seed: u64) -> Self {
        Self::try_with_seed(method, num_particles, model, seed)
            .unwrap_or_else(|e| panic!("cannot allocate {num_particles} particles: {e}"))
    }

    /// Fallible form of [`Infer::with_seed`]: the particle cloud is
    /// reserved with `try_reserve_exact`, so a count the allocator cannot
    /// serve is an error rather than a process abort.
    ///
    /// # Errors
    ///
    /// The reservation overflowed `isize::MAX` bytes or the allocator
    /// refused it.
    ///
    /// # Panics
    ///
    /// Panics if `num_particles` is zero.
    pub fn try_with_seed(
        method: Method,
        num_particles: usize,
        model: M,
        seed: u64,
    ) -> Result<Self, TryReserveError> {
        assert!(num_particles > 0, "inference needs at least one particle");
        let mut particles = Vec::new();
        particles.try_reserve_exact(num_particles)?;
        let mut engine = Infer {
            method,
            num_particles,
            initial_particles: num_particles,
            deadline: None,
            particles,
            template: model,
            seed,
            steps: 0,
            last_ess: num_particles as f64,
            resample: if method.resamples() {
                ResamplePolicy::EveryStep
            } else {
                ResamplePolicy::Never
            },
            resample_stats: ResampleStats::default(),
            scratch: StepScratch::default(),
            parallelism: Parallelism::Sequential,
            pool: None,
            par_step: None,
            recovery: RecoveryPolicy::FailFast,
            collapse_retry_budget: 8,
            consecutive_collapses: 0,
            last_good: None,
            last_health: None,
            obs: Obs::off(),
            recorder: None,
            black_box_path: None,
        };
        engine.reset();
        Ok(engine)
    }

    /// The inference method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Number of particles currently in the cloud. Under deadline control
    /// this may sit anywhere in `[floor, initial]`.
    pub fn num_particles(&self) -> usize {
        self.num_particles
    }

    /// The particle count the engine was built with (the deadline
    /// controller's growth ceiling).
    pub fn initial_particles(&self) -> usize {
        self.initial_particles
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Effective sample size of the weights at the last step (before
    /// resampling).
    pub fn last_ess(&self) -> f64 {
        self.last_ess
    }

    /// The engine's RNG seed (all randomness is derived from it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The active resampling policy.
    pub fn resample_policy(&self) -> ResamplePolicy {
        self.resample
    }

    /// Cumulative resampling-work counters since construction or the
    /// last [`Infer::reset`]. Counted whether or not a sink is attached.
    pub fn resample_stats(&self) -> ResampleStats {
        self.resample_stats
    }

    /// Heap bytes currently reserved by the persistent per-tick scratch:
    /// the weight/ancestor/offspring buffers. On bounded models this
    /// plateaus after the first few ticks — the allocation-free-steady-state
    /// witness.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.bytes()
    }

    /// The active execution mode.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The active fault-recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Health report of the most recent completed step, if any.
    pub fn last_health(&self) -> Option<&Health> {
        self.last_health.as_ref()
    }

    /// Selects the fault-recovery policy (builder style). The default is
    /// [`RecoveryPolicy::FailFast`].
    pub fn with_recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Attaches a telemetry handle (builder style). The handle is scoped
    /// to the method's label (so exported lines carry `"engine":"SDS"`
    /// etc.), an `engine.attach` event is emitted, and every subsequent
    /// step exports its per-tick metrics — see [`crate::obs::METRICS`]
    /// for the registry. Passing [`Obs::off`] detaches.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// Non-consuming form of [`Infer::with_obs`].
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs.scoped(self.method.label());
        if let Some(pool) = &mut self.pool {
            pool.set_obs(self.obs.clone());
        }
        self.obs.event(
            self.steps,
            obs::events::ENGINE_ATTACH,
            &[
                ("method", FieldValue::Text(self.method.label())),
                ("particles", FieldValue::Int(self.num_particles as i64)),
                ("seed", FieldValue::Int(self.seed as i64)),
            ],
        );
    }

    /// The attached telemetry handle (off by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Arms the flight recorder: every span from every tick lands in a
    /// fixed-capacity ring ([`FlightRecorder::DEFAULT_CAPACITY`] spans),
    /// and whenever an incident fires — a particle fault, an exhausted
    /// collapse-retry budget, or a deadline floor degradation — the ring
    /// is dumped to `path` as a self-contained JSONL black box (latest
    /// incident wins; validate with `obsreport --check`). Works with or
    /// without an attached [`Obs`] sink; span timing turns on when either
    /// is present.
    pub fn with_black_box(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.black_box_path = Some(path.into());
        if self.recorder.is_none() {
            self.recorder = Some(Arc::new(FlightRecorder::new(
                FlightRecorder::DEFAULT_CAPACITY,
            )));
        }
        self
    }

    /// The armed flight recorder, if any (tests inspect the ring
    /// directly).
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Sets how many *consecutive* weight collapses the supervisor
    /// absorbs (by rejuvenating to uniform weights) before a step fails
    /// with [`RuntimeError::Degenerate`]. The default is 8. Ignored under
    /// [`RecoveryPolicy::FailFast`], which treats any collapse as an
    /// error.
    pub fn with_collapse_retry_budget(mut self, budget: u32) -> Self {
        self.collapse_retry_budget = budget;
        self
    }

    /// Selects the execution mode (builder style).
    ///
    /// `M: Send` (and `M::Input: Sync`) is required here — and only
    /// here — because worker threads step particles in place while the
    /// coordinator lends out the shared input. Posteriors do not depend
    /// on this choice: for any fixed seed, `Sequential` and `Threads(n)`
    /// produce bit-for-bit identical results (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `Threads(0)` is requested.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self
    where
        M: Send,
        M::Input: Sync,
    {
        if let Parallelism::Threads(n) = parallelism {
            assert!(n > 0, "Threads(0) is not a valid execution mode");
        }
        self.parallelism = parallelism;
        self.pool = None;
        self.par_step = match parallelism {
            Parallelism::Sequential => None,
            Parallelism::Threads(_) => Some(par_step_impl::<M>),
        };
        self
    }

    /// Overrides the resampling policy (builder style). The `Importance`
    /// method ignores this and never resamples. With a deadline attached,
    /// this also becomes the policy the controller restores when it
    /// un-relaxes.
    pub fn with_resample_policy(mut self, policy: ResamplePolicy) -> Self {
        if self.method.resamples() {
            self.resample = policy;
            if let Some(state) = &mut self.deadline {
                state.base_policy = policy;
            }
        }
        self
    }

    /// Attaches a per-tick deadline budget (builder style): every step's
    /// measured latency feeds an [`AdaptiveController`] that shrinks the
    /// particle cloud toward `cfg.floor`, relaxes the resample policy,
    /// and — once the ladder is exhausted — reports typed degradation
    /// through [`Health::deadline`] instead of thinning further.
    /// Sustained headroom walks the ladder back up to the initial cloud.
    ///
    /// Timing is measured once per step (the same clock read feeds the
    /// `obs` latency histogram when a sink is attached). Decisions apply
    /// *after* the tick that triggered them, so the tick's own posterior
    /// never depends on its own latency — which is what makes the
    /// recorded [`DecisionTrace`] a faithful replay artifact: see
    /// [`Infer::with_decision_replay`].
    ///
    /// Attach the deadline after the resample-policy builder; it
    /// captures the current policy as the one to restore. Replaces any
    /// previously attached deadline state.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is structurally invalid (see [`DeadlineConfig`]).
    pub fn with_deadline(mut self, cfg: DeadlineConfig) -> Self {
        self.deadline = Some(DeadlineState {
            mode: DeadlineMode::Measure(AdaptiveController::new(cfg, self.num_particles)),
            base_policy: self.resample,
        });
        self
    }

    /// Replays a recorded [`DecisionTrace`] instead of measuring
    /// latencies (builder style): each recorded decision is re-applied at
    /// its original tick, clock-free. Given the same seed, method,
    /// initial particle count, and inputs as the adaptive run that
    /// recorded the trace, the replayed posteriors are bit-for-bit
    /// identical to the adaptive run's — across worker counts, like every
    /// other determinism guarantee.
    ///
    /// Replay engines report `Health::deadline == None` (there is no
    /// controller measuring anything).
    pub fn with_decision_replay(mut self, trace: DecisionTrace) -> Self {
        self.deadline = Some(DeadlineState {
            mode: DeadlineMode::Replay { trace, cursor: 0 },
            base_policy: self.resample,
        });
        self
    }

    /// The decision trace recorded so far (measure mode) or being
    /// replayed (replay mode). `None` without a deadline attached.
    pub fn decision_trace(&self) -> Option<&DecisionTrace> {
        match &self.deadline {
            Some(DeadlineState {
                mode: DeadlineMode::Measure(ctrl),
                ..
            }) => Some(ctrl.trace()),
            Some(DeadlineState {
                mode: DeadlineMode::Replay { trace, .. },
                ..
            }) => Some(trace),
            None => None,
        }
    }

    /// Ticks observed over budget since attach or reset (measure mode;
    /// zero otherwise).
    pub fn deadline_misses(&self) -> u64 {
        match &self.deadline {
            Some(DeadlineState {
                mode: DeadlineMode::Measure(ctrl),
                ..
            }) => ctrl.misses(),
            _ => 0,
        }
    }

    /// The controller's current status (measure mode only).
    pub fn deadline_status(&self) -> Option<DeadlineStatus> {
        match &self.deadline {
            Some(DeadlineState {
                mode: DeadlineMode::Measure(ctrl),
                ..
            }) => Some(ctrl.status()),
            _ => None,
        }
    }

    /// Changes the deadline budget mid-stream (the serving-layer knob).
    /// Returns whether a measuring controller was present to update; the
    /// controller's latency window is cleared so stale samples measured
    /// against the old budget cannot trigger an immediate decision. A NaN
    /// or infinite budget returns `false` and leaves the controller as it
    /// was.
    pub fn set_deadline_budget(&mut self, budget_ms: f64) -> bool {
        match &mut self.deadline {
            Some(DeadlineState {
                mode: DeadlineMode::Measure(ctrl),
                ..
            }) => ctrl.set_budget(budget_ms),
            _ => false,
        }
    }

    /// Discards all inference state and restarts from the initial model.
    /// A deadline-controlled cloud returns to its initial size, the
    /// controller forgets its window and trace, and a replay cursor
    /// rewinds to the first recorded decision.
    pub fn reset(&mut self) {
        self.num_particles = self.initial_particles;
        if let Some(state) = &mut self.deadline {
            self.resample = state.base_policy;
            match &mut state.mode {
                DeadlineMode::Measure(ctrl) => ctrl.reset(),
                DeadlineMode::Replay { cursor, .. } => *cursor = 0,
            }
        }
        // Refilled in place, so the cloud reserved by `try_with_seed` is
        // the one the particles land in.
        let mut particles = std::mem::take(&mut self.particles);
        particles.clear();
        particles.extend((0..self.num_particles).map(|_| self.blank_particle()));
        self.particles = particles;
        self.steps = 0;
        self.last_ess = self.num_particles as f64;
        self.resample_stats = ResampleStats::default();
        self.consecutive_collapses = 0;
        self.last_good = None;
        self.last_health = None;
    }

    /// A fresh unweighted particle drawn from the model template (the
    /// prior), used at reset and by [`RecoveryPolicy::ReseedPrior`].
    fn blank_particle(&self) -> Particle<M> {
        let graph = match self.method {
            Method::StreamingDs => Some(Graph::new(Retention::PointerMinimal)),
            Method::ClassicDs => Some(Graph::new(Retention::RetainAll)),
            _ => None,
        };
        let mut model = self.template.clone();
        model.reset();
        Particle {
            model,
            graph,
            log_w: 0.0,
        }
    }

    /// Parks particle `i` with zero weight; if `poisoned`, its state is
    /// first replaced by a fresh prior particle (a panicking or erroring
    /// step leaves the model in an undefined state).
    fn quarantine(&mut self, i: usize, poisoned: bool) {
        if poisoned {
            self.particles[i] = self.blank_particle();
        }
        self.particles[i].log_w = f64::NEG_INFINITY;
    }

    /// Kills worker thread `index` of the parallel pool, if one exists —
    /// the chaos harness's worker-death injection. Returns whether a
    /// worker was killed. The next parallel step detects and respawns it.
    #[cfg(feature = "chaos")]
    pub fn chaos_kill_worker(&self, index: usize) -> bool {
        match &self.pool {
            Some(pool) if index < pool.workers() => {
                pool.kill_worker(index);
                true
            }
            _ => false,
        }
    }

    /// The particles' delayed-sampling graphs (none for graph-free
    /// methods).
    fn graphs(&self) -> impl Iterator<Item = &Graph> {
        self.particles.iter().filter_map(|p| p.graph.as_ref())
    }

    /// Aggregate structural snapshot of the delayed-sampling graphs
    /// across particles (all zeros for graph-free methods). Sums node,
    /// edge, and state counts; takes the per-particle max of the chain
    /// depth.
    pub fn graph_stats(&self) -> GraphStats {
        let mut agg = GraphStats::default();
        let (mut depth, mut path) = (Vec::new(), Vec::new());
        for g in self.graphs() {
            agg.merge(&g.stats_with_scratch(&mut depth, &mut path));
        }
        agg
    }

    /// Aggregate graph memory statistics across particles.
    pub fn memory(&self) -> MemoryStats {
        let mut stats = MemoryStats::default();
        for g in self.graphs() {
            stats.live_nodes += g.live_nodes();
            stats.live_bytes += g.live_bytes();
            stats.total_created += g.total_created();
        }
        stats
    }

    /// Executes one synchronous step on every particle and returns the
    /// posterior over the model's output at this step.
    ///
    /// Equivalent to [`Infer::step_outcome`] with the health report
    /// dropped (it stays queryable via [`Infer::last_health`]).
    ///
    /// # Errors
    ///
    /// Under the default [`RecoveryPolicy::FailFast`], the fault of the
    /// lowest-indexed faulting particle fails the step with a typed
    /// error — the same error sequential and parallel runs surface.
    /// Under any other policy faults are repaired in place and only an
    /// exhausted collapse-retry budget fails the step. Either way the
    /// engine is left in a consistent state but a failed step does not
    /// advance the stream clock.
    pub fn step(&mut self, input: &M::Input) -> Result<Posterior, RuntimeError> {
        self.step_outcome(input).map(|o| o.posterior)
    }

    /// Executes one supervised step: every particle is stepped under a
    /// fault barrier (`catch_unwind` plus typed-error capture), faults
    /// are repaired per the configured [`RecoveryPolicy`], weight
    /// collapse is absorbed up to the retry budget, and the posterior is
    /// returned together with a [`Health`] report.
    ///
    /// Supervision is deterministic: fault repairs consume dedicated
    /// counter-derived streams on the coordinator in particle-index
    /// order, so sequential and multi-threaded runs recover bit-for-bit
    /// identically.
    ///
    /// # Errors
    ///
    /// See [`Infer::step`].
    pub fn step_outcome(&mut self, input: &M::Input) -> Result<StepOutcome, RuntimeError> {
        let generation = self.steps;
        let n = self.num_particles;
        // One clock read serves both consumers of step latency — the
        // telemetry histogram and the deadline controller — and is gated
        // on either being active, so an engine with neither does no
        // timing work at all.
        let deadline_measuring = matches!(
            &self.deadline,
            Some(DeadlineState {
                mode: DeadlineMode::Measure(_),
                ..
            })
        );
        // Span timing (phase anatomy) is live when either consumer — the
        // sink or the flight recorder — is attached.
        let tracing_on = self.obs.enabled() || self.recorder.is_some();
        let need_clock = deadline_measuring || tracing_on;
        let t0 = need_clock.then(std::time::Instant::now);
        // Only SkipObservation needs the rollback snapshot; the other
        // policies do not pay for the clone.
        let snapshot =
            (self.recovery == RecoveryPolicy::SkipObservation).then(|| self.particles.clone());

        // Phase timing is checkpoint-based: one clock read per phase
        // *boundary*, taken as an offset from `t0`, instead of a
        // start/stop `Instant` pair per phase — clock reads are the
        // dominant cost of the span layer and its overhead budget is
        // nanoseconds (the figures `obs` witness holds the traced noop
        // configuration within 2% of fully-off).
        let mut slots: Vec<Result<ValueDist, FaultKind>> = match (self.parallelism, self.par_step) {
            (Parallelism::Threads(workers), Some(par_step)) if n > 1 => {
                let pool = self.pool.get_or_insert_with(|| WorkerPool::new(workers));
                if self.obs.enabled() {
                    pool.set_obs(self.obs.clone());
                }
                // Hand the pool this tick's span identity so each
                // job can emit a deterministic `pool.job` span
                // parented under this tick's propose span.
                let seed = self.seed;
                pool.set_span_ctx(tracing_on.then(|| crate::pool::SpanCtx {
                    seed,
                    tick: generation,
                    parent: trace::span_id(seed, generation, trace::phases::PROPOSE, 0),
                }));
                pool.set_recorder(self.recorder.clone());
                pool.ensure_alive();
                par_step(
                    pool,
                    &mut self.particles,
                    input,
                    self.method,
                    self.seed,
                    generation,
                )
            }
            _ => {
                let (method, seed) = (self.method, self.seed);
                let roots = &mut self.scratch.roots;
                self.particles
                    .iter_mut()
                    .enumerate()
                    .map(|(i, p)| {
                        let mut rng = rngstream::particle_rng(seed, i as u64, generation);
                        step_particle_caught(method, p, input, &mut rng, roots)
                    })
                    .collect()
            }
        };
        let propose_ms = if tracing_on {
            t0.map(|t| t.elapsed().as_secs_f64() * 1e3)
        } else {
            None
        };

        // A NaN or +inf accumulated log-weight is a per-particle fault;
        // a plain -inf is a legitimately impossible observation.
        for (i, slot) in slots.iter_mut().enumerate() {
            let w = self.particles[i].log_w;
            if slot.is_ok() && !(w.is_finite() || w == f64::NEG_INFINITY) {
                *slot = Err(FaultKind::NonFiniteWeight(w));
            }
        }

        // Split the slots into per-particle outputs (moved, not cloned —
        // a `ValueDist` can hold a whole mixture) and an index-ordered
        // fault list.
        let mut outs: Vec<Option<ValueDist>> = Vec::with_capacity(n);
        let mut faulted: Vec<(usize, FaultKind)> = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Ok(d) => outs.push(Some(d)),
                Err(kind) => {
                    outs.push(None);
                    faulted.push((i, kind));
                }
            }
        }
        let mut faults: Vec<ParticleFault> = Vec::new();
        let mut recover_ms: Option<f64> = None;
        let mut recover_end_ms: Option<f64> = None;

        if self.recovery == RecoveryPolicy::FailFast {
            // Faults were collected in particle order, so the error of
            // the lowest-indexed faulting particle is reported — the same
            // error regardless of the execution schedule. The failed
            // step does not advance the stream clock.
            if let Some((i, kind)) = faulted.into_iter().next() {
                return Err(kind.into_error(i));
            }
        } else if !faulted.is_empty() {
            let recover_start_ms = if tracing_on {
                t0.map(|t| t.elapsed().as_secs_f64() * 1e3)
            } else {
                None
            };
            let survivors: Vec<usize> = outs
                .iter()
                .enumerate()
                .filter_map(|(i, o)| o.is_some().then_some(i))
                .collect();
            let mut recovery_rng = rngstream::recovery_rng(self.seed, generation);
            for (i, kind) in faulted {
                // A panic or typed error may have left the particle's
                // model state half-updated; a non-finite weight has not.
                let poisoned = !matches!(kind, FaultKind::NonFiniteWeight(_));
                let recovery = match self.recovery {
                    RecoveryPolicy::SkipObservation => {
                        if let Some(snap) = snapshot.as_ref() {
                            self.particles[i].clone_from(&snap[i]);
                        }
                        outs[i] = None;
                        RecoveryAction::Skipped
                    }
                    RecoveryPolicy::Rejuvenate => {
                        if survivors.is_empty() {
                            self.quarantine(i, poisoned);
                            outs[i] = None;
                            RecoveryAction::Quarantined
                        } else {
                            let donor = survivors[recovery_rng.gen_range(0..survivors.len())];
                            clone_within(&mut self.particles, i, donor);
                            outs[i] = outs[donor].clone();
                            RecoveryAction::Rejuvenated { donor }
                        }
                    }
                    RecoveryPolicy::ReseedPrior => {
                        let mut fresh = self.blank_particle();
                        let mut rng = rngstream::retry_rng(self.seed, i as u64, generation);
                        match step_particle_caught(
                            self.method,
                            &mut fresh,
                            input,
                            &mut rng,
                            &mut self.scratch.roots,
                        ) {
                            Ok(out)
                                if fresh.log_w.is_finite() || fresh.log_w == f64::NEG_INFINITY =>
                            {
                                self.particles[i] = fresh;
                                outs[i] = Some(out);
                                RecoveryAction::Reseeded
                            }
                            _ => {
                                self.quarantine(i, true);
                                outs[i] = None;
                                RecoveryAction::Quarantined
                            }
                        }
                    }
                    // Handled above; a faulting FailFast step never
                    // reaches the recovery loop.
                    RecoveryPolicy::FailFast => RecoveryAction::Failed,
                };
                faults.push(ParticleFault {
                    particle: i,
                    kind,
                    recovery,
                });
            }
            let end = t0.map(|t| t.elapsed().as_secs_f64() * 1e3);
            recover_ms = recover_start_ms.zip(end).map(|(s, e)| e - s);
            recover_end_ms = end;
        }

        // The score phase runs from the end of propose/recover (its
        // checkpoint doubles as this phase's start — the non-finite scan
        // and slot split in between are part of weight materialization).
        self.scratch.log_ws.clear();
        self.scratch
            .log_ws
            .extend(self.particles.iter().map(|p| p.log_w));
        // The log-normalizer doubles as this tick's log-evidence
        // increment (z - ln n) in the telemetry block below; degenerate
        // weights surface as `collapse` with no normalizer.
        let log_normalizer =
            stats::try_normalize_log_weights_into(&self.scratch.log_ws, &mut self.scratch.weights)
                .ok();
        let collapse = log_normalizer.is_none();

        if collapse {
            if self.recovery == RecoveryPolicy::FailFast {
                return Err(RuntimeError::Degenerate(format!(
                    "all {n} particle weights are zero at step {generation}"
                )));
            }
            self.consecutive_collapses += 1;
            if self.consecutive_collapses > self.collapse_retry_budget {
                // This early return skips the per-tick export block below,
                // so the exhaustion event is emitted here — dashboards can
                // count exhaustions without parsing the error string.
                self.obs.event(
                    generation,
                    obs::events::COLLAPSE_EXHAUSTED,
                    &[
                        (
                            "consecutive",
                            FieldValue::Int(i64::from(self.consecutive_collapses)),
                        ),
                        (
                            "budget",
                            FieldValue::Int(i64::from(self.collapse_retry_budget)),
                        ),
                    ],
                );
                // Close the tick's span tree before failing, then dump
                // the black box: the exhaustion is one of the three
                // incident triggers.
                if tracing_on {
                    let tick_ms = t0.map(|t| t.elapsed().as_secs_f64() * 1e3).unwrap_or(0.0);
                    let score_ms = recover_end_ms.or(propose_ms).map(|base| tick_ms - base);
                    self.emit_tick_spans(
                        generation, tick_ms, propose_ms, score_ms, recover_ms, None, None,
                    );
                }
                self.dump_black_box(trace::incidents::COLLAPSE_EXHAUSTED, generation);
                return Err(RuntimeError::CollapseBudgetExhausted {
                    tick: generation,
                    consecutive: self.consecutive_collapses,
                    budget: self.collapse_retry_budget,
                });
            }
            // Rejuvenate the cloud to uniform weights so the stream can
            // keep running; the posterior below falls back to the last
            // healthy one.
            for p in &mut self.particles {
                p.log_w = 0.0;
            }
        } else {
            self.consecutive_collapses = 0;
        }

        if collapse {
            // The error path left the buffer empty; fall back to uniform.
            self.scratch.weights.resize(n, 1.0 / n as f64);
        }
        self.last_ess = if collapse {
            0.0
        } else {
            stats::effective_sample_size(&self.scratch.weights)
        };
        let step_unusable = collapse || outs.iter().all(|o| o.is_none());
        let mut used_last_good = false;
        let posterior = match (&self.last_good, step_unusable) {
            (Some(last), true) => {
                used_last_good = true;
                last.clone()
            }
            _ => Posterior::new(
                self.scratch
                    .weights
                    .iter()
                    .zip(outs)
                    .map(|(&w, o)| match o {
                        // The step's outputs are moved into the posterior,
                        // not cloned.
                        Some(d) => (w, d),
                        // A recovered-but-outputless particle contributes
                        // nothing to this step's posterior.
                        None => (0.0, ValueDist::Dirac(Value::Unit)),
                    })
                    .collect(),
            ),
        };
        if !collapse {
            self.last_good = Some(posterior.clone());
        }
        // Score-phase end: weight materialization runs from the end of
        // propose/recover through normalization, ESS, and posterior
        // assembly. This checkpoint doubles as the resample phase's
        // start, and the tick-level latency read below doubles as the
        // resample phase's end — two clock reads cover three phases.
        let score_end_ms = if tracing_on {
            t0.map(|t| t.elapsed().as_secs_f64() * 1e3)
        } else {
            None
        };
        let score_ms = score_end_ms.map(|end| end - recover_end_ms.or(propose_ms).unwrap_or(0.0));

        let should_resample = match self.resample {
            ResamplePolicy::EveryStep => self.method.resamples(),
            ResamplePolicy::EssBelow(fraction) => {
                self.method.resamples() && self.last_ess < fraction * self.num_particles as f64
            }
            ResamplePolicy::Never => false,
        };
        let clones_avoided_before = self.resample_stats.clones_avoided;
        if should_resample {
            let mut rng = rngstream::resample_rng(self.seed, generation);
            self.resample_pass(&mut rng, n);
        }
        let mut health = Health {
            ess: self.last_ess,
            weight_collapse: collapse,
            used_last_good,
            consecutive_collapses: self.consecutive_collapses,
            faults,
            deadline: None,
        };

        // The single latency measurement for this tick, shared by the
        // telemetry histogram, the deadline controller and (as its end
        // checkpoint) the resample span.
        let elapsed_ms = t0.map(|t| t.elapsed().as_secs_f64() * 1e3);
        let resample_ms = if should_resample {
            score_end_ms.zip(elapsed_ms).map(|(start, end)| end - start)
        } else {
            None
        };

        // Per-tick telemetry export. The whole block is skipped when no
        // sink is attached.
        if self.obs.enabled() {
            use crate::obs::names;
            let tick = generation;
            self.obs.gauge(tick, names::STEP_PARTICLES, n as f64);
            self.obs.gauge(tick, names::STEP_ESS, health.ess);
            // Log-evidence increment: the log mean particle weight
            // (log-normalizer minus ln n) of this tick's cloud. Under
            // every-step resampling the accumulated weights are exactly
            // one tick's increments; under lazier policies this is the
            // evidence accumulated since the last resample. The
            // normalizer is a byproduct of weight normalization, so no
            // per-particle work is spent here.
            let log_evidence = log_normalizer.map_or(f64::NEG_INFINITY, |z| z - (n as f64).ln());
            self.obs.gauge(tick, names::STEP_LOG_EVIDENCE, log_evidence);
            if should_resample {
                self.obs.counter(tick, names::STEP_RESAMPLES, 1);
                let avoided = self.resample_stats.clones_avoided - clones_avoided_before;
                if avoided > 0 {
                    self.obs
                        .counter(tick, names::RESAMPLE_CLONES_AVOIDED, avoided);
                }
            }
            self.obs
                .gauge(tick, names::STEP_SCRATCH_BYTES, self.scratch_bytes() as f64);
            self.obs.gauge(
                tick,
                names::STEP_CONSECUTIVE_COLLAPSES,
                f64::from(health.consecutive_collapses),
            );
            if health.weight_collapse {
                self.obs.counter(tick, names::STEP_COLLAPSES, 1);
                self.obs.event(
                    tick,
                    obs::events::COLLAPSE,
                    &[
                        (
                            "consecutive",
                            FieldValue::Int(i64::from(health.consecutive_collapses)),
                        ),
                        (
                            "budget",
                            FieldValue::Int(i64::from(self.collapse_retry_budget)),
                        ),
                    ],
                );
            }
            if health.used_last_good {
                self.obs.counter(tick, names::STEP_USED_LAST_GOOD, 1);
            }
            if !health.faults.is_empty() {
                self.obs
                    .counter(tick, names::STEP_FAULTS, health.faults.len() as u64);
                for fault in &health.faults {
                    let kind = fault.kind.to_string();
                    let action = fault.recovery.to_string();
                    self.obs.event(
                        tick,
                        obs::events::RECOVERY,
                        &[
                            ("particle", FieldValue::Int(fault.particle as i64)),
                            ("fault", FieldValue::Text(&kind)),
                            ("action", FieldValue::Text(&action)),
                        ],
                    );
                }
            }
            // Graph gauges — the bounded-memory witnesses — only for
            // methods that retain a graph across ticks.
            if self.graphs().next().is_some() {
                let gs = self.graph_stats();
                self.obs
                    .gauge(tick, names::DS_LIVE_NODES, gs.live_nodes as f64);
                self.obs
                    .gauge(tick, names::DS_LIVE_EDGES, gs.live_edges as f64);
                self.obs
                    .gauge(tick, names::DS_INITIALIZED, gs.initialized as f64);
                self.obs
                    .gauge(tick, names::DS_MARGINALIZED, gs.marginalized as f64);
                self.obs.gauge(tick, names::DS_REALIZED, gs.realized as f64);
                self.obs
                    .gauge(tick, names::DS_REALIZED_RATIO, gs.realized_ratio());
                self.obs
                    .gauge(tick, names::DS_CHAIN_DEPTH, gs.max_chain_depth as f64);
                self.obs
                    .gauge(tick, names::DS_TOTAL_CREATED, gs.total_created as f64);
                self.obs
                    .gauge(tick, names::DS_LIVE_BYTES, gs.live_bytes as f64);
                self.obs
                    .gauge(tick, names::GRAPH_SLOTS_REUSED, gs.slots_reused as f64);
                self.obs
                    .gauge(tick, names::GRAPH_CAPACITY, gs.capacity as f64);
            }
            self.obs
                .histogram(tick, names::STEP_LATENCY_MS, elapsed_ms.unwrap_or(0.0));
        }

        // Deadline control runs last: the decision consumes this tick's
        // measured latency and applies to the cloud *after* this tick's
        // posterior, so a recorded trace replays clock-free (tick t's
        // posterior never depends on tick t's own latency).
        let adaptive_start_ms = if tracing_on && self.deadline.is_some() {
            t0.map(|t| t.elapsed().as_secs_f64() * 1e3)
        } else {
            None
        };
        let (decisions_applied, floor_degraded) =
            self.deadline_control(generation, elapsed_ms, &mut health);
        if tracing_on {
            // The tick span ends here, after the per-tick export and
            // deadline control, so it covers all of the engine's work
            // but emitting the spans; `step.latency_ms` and the
            // controller read `elapsed_ms`, taken before the export.
            let tick_ms = t0.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
            // The adaptive span exists only on ticks where a decision
            // actually applied, so span trees match between measured
            // and replayed runs of the same trace.
            let adaptive_ms = if decisions_applied {
                adaptive_start_ms.map(|start| tick_ms - start)
            } else {
                None
            };
            self.emit_tick_spans(
                generation,
                tick_ms,
                propose_ms,
                score_ms,
                recover_ms,
                resample_ms,
                adaptive_ms,
            );
        }
        // Incident check, after this tick's spans are in the ring so
        // a dump always contains the faulting tick's complete tree.
        if !health.faults.is_empty() {
            self.dump_black_box(trace::incidents::PARTICLE_FAULT, generation);
        } else if floor_degraded {
            self.dump_black_box(trace::incidents::FLOOR_DEGRADED, generation);
        }

        self.last_health = Some(health.clone());
        self.steps += 1;
        Ok(StepOutcome { posterior, health })
    }

    /// One tick of deadline control: feed the measured latency to the
    /// controller (measure mode) or advance the trace cursor (replay
    /// mode), then apply any decision to the engine. Populates
    /// `health.deadline` in measure mode. Returns `(applied_any,
    /// floor_degraded)` so the caller can emit the adaptive-decision span
    /// and trigger the black-box dump.
    fn deadline_control(
        &mut self,
        generation: u64,
        elapsed_ms: Option<f64>,
        health: &mut Health,
    ) -> (bool, bool) {
        let Some(state) = &mut self.deadline else {
            return (false, false);
        };
        let base_policy = state.base_policy;
        // Decision ticks are rare; this vector stays unallocated on the
        // (common) decision-free tick.
        let mut to_apply: Vec<DecisionRecord> = Vec::new();
        match &mut state.mode {
            DeadlineMode::Measure(ctrl) => {
                if let Some(rec) = ctrl.observe(generation, elapsed_ms.unwrap_or(0.0)) {
                    to_apply.push(rec);
                }
                let status = ctrl.status();
                health.deadline = Some(status);
                if self.obs.enabled() {
                    use crate::obs::names;
                    if status.missed {
                        self.obs.counter(generation, names::DEADLINE_MISSES, 1);
                    }
                    self.obs
                        .gauge(generation, names::DEADLINE_BUDGET_MS, status.budget_ms);
                    if let Some(p99) = status.window_p99_ms {
                        self.obs
                            .gauge(generation, names::DEADLINE_WINDOW_P99_MS, p99);
                    }
                }
            }
            DeadlineMode::Replay { trace, cursor } => {
                // Entries are tick-ordered; apply every record for this
                // generation and skip any the stream has already passed
                // (a trace recorded on a longer run replays its prefix).
                while let Some(rec) = trace.entries().get(*cursor) {
                    if rec.tick > generation {
                        break;
                    }
                    if rec.tick == generation {
                        to_apply.push(rec.clone());
                    }
                    *cursor += 1;
                }
            }
        }
        for rec in &to_apply {
            self.apply_decision(rec, base_policy);
            if self.obs.enabled() {
                self.obs.event(
                    generation,
                    obs::events::DEADLINE_DECISION,
                    &[
                        ("action", FieldValue::Text(rec.action.label())),
                        ("from", FieldValue::Int(rec.from as i64)),
                        ("to", FieldValue::Int(rec.to as i64)),
                        ("observed_p99_ms", FieldValue::Float(rec.observed_p99_ms)),
                        ("budget_ms", FieldValue::Float(rec.budget_ms)),
                    ],
                );
            }
        }
        if !to_apply.is_empty() {
            // Refresh the status so `health.deadline` reflects the cloud
            // the *next* tick will actually run.
            if let Some(DeadlineState {
                mode: DeadlineMode::Measure(ctrl),
                ..
            }) = &self.deadline
            {
                health.deadline = Some(ctrl.status());
            }
        }
        let floor_degraded = to_apply
            .iter()
            .any(|r| r.action == DeadlineAction::FloorDegraded);
        (!to_apply.is_empty(), floor_degraded)
    }

    /// Applies one controller decision to the engine.
    fn apply_decision(&mut self, rec: &DecisionRecord, base_policy: ResamplePolicy) {
        match rec.action {
            DeadlineAction::Shrink | DeadlineAction::Grow => {
                self.resize_cloud(rec.to, rec.tick);
            }
            DeadlineAction::RelaxResample => {
                if self.method.resamples() {
                    self.resample = ResamplePolicy::EssBelow(0.5);
                }
            }
            DeadlineAction::RestoreResample => {
                if self.method.resamples() {
                    self.resample = base_policy;
                }
            }
            // Pure health signals; the engine state is untouched.
            DeadlineAction::FloorDegraded | DeadlineAction::FloorRecovered => {}
        }
    }

    /// Emits this tick's span tree to the sink and the flight recorder:
    /// the root `tick` span first, then each phase that ran as its child.
    /// Every identity field (IDs, parents, names, presence) is a pure
    /// function of `(seed, tick)` plus which phases executed; only the
    /// durations carry wall clock.
    #[allow(clippy::too_many_arguments)]
    fn emit_tick_spans(
        &self,
        tick: u64,
        tick_ms: f64,
        propose_ms: Option<f64>,
        score_ms: Option<f64>,
        recover_ms: Option<f64>,
        resample_ms: Option<f64>,
        adaptive_ms: Option<f64>,
    ) {
        let tick_id = trace::span_id(self.seed, tick, trace::phases::TICK, 0);
        let emit = |name: &'static str, phase: u64, dur_ms: f64| {
            let rec = SpanRecord {
                tick,
                name,
                id: trace::span_id(self.seed, tick, phase, 0),
                parent: (phase != trace::phases::TICK).then_some(tick_id),
                index: None,
                dur_ms,
            };
            self.obs.span(&rec);
            if let Some(recorder) = &self.recorder {
                recorder.record(&rec);
            }
        };
        emit(trace::spans::TICK, trace::phases::TICK, tick_ms);
        if let Some(d) = propose_ms {
            emit(trace::spans::PROPOSE, trace::phases::PROPOSE, d);
        }
        if let Some(d) = score_ms {
            emit(trace::spans::SCORE, trace::phases::SCORE, d);
        }
        if let Some(d) = recover_ms {
            emit(trace::spans::RECOVER, trace::phases::RECOVER, d);
        }
        if let Some(d) = resample_ms {
            emit(trace::spans::RESAMPLE, trace::phases::RESAMPLE, d);
        }
        if let Some(d) = adaptive_ms {
            emit(
                trace::spans::ADAPTIVE_DECISION,
                trace::phases::ADAPTIVE_DECISION,
                d,
            );
        }
    }

    /// Dumps the flight-recorder ring to the configured black-box file.
    /// Without a recorder or a path this is a no-op, and write errors are
    /// swallowed: the black box must never fail the inference step.
    fn dump_black_box(&self, reason: &str, tick: u64) {
        if let (Some(recorder), Some(path)) = (&self.recorder, &self.black_box_path) {
            let _ = recorder.dump(path, Some(self.method.label()), reason, tick);
        }
    }

    /// Resizes the particle cloud to `target` slots via one forced
    /// systematic resampling pass drawn from the dedicated resize stream
    /// ([`rngstream::resize_rng`]). Selection respects the current
    /// accumulated weights (uniform if the cloud just resampled or has
    /// collapsed), and survivors restart unweighted exactly like an
    /// ordinary resample — so the pass composes with every
    /// [`RecoveryPolicy`]. Under
    /// `Method::Importance` a resize is the one event that discards
    /// accumulated weights (it *is* a resample).
    fn resize_cloud(&mut self, target: usize, generation: u64) {
        let n = self.num_particles;
        if target == n || target == 0 {
            return;
        }
        self.scratch.log_ws.clear();
        self.scratch
            .log_ws
            .extend(self.particles.iter().map(|p| p.log_w));
        if stats::try_normalize_log_weights_into(&self.scratch.log_ws, &mut self.scratch.weights)
            .is_err()
        {
            // Collapsed cloud: select uniformly, matching the collapse
            // path's rejuvenation to uniform weights.
            self.scratch.weights.clear();
            self.scratch.weights.resize(n, 1.0 / n as f64);
        }
        let mut rng = rngstream::resize_rng(self.seed, generation);
        self.resample_pass(&mut rng, target);
        self.num_particles = target;
    }

    /// One systematic resampling pass over `scratch.weights`: draws
    /// `target` ancestors from `rng` and rebuilds the cloud so that slot
    /// `j` holds ancestor `ancestors[j]`, survivors restarting unweighted.
    /// `target` is the current cloud size on an ordinary pass and the new
    /// size on a deadline-driven resize.
    fn resample_pass(&mut self, rng: &mut SmallRng, target: usize) {
        let StepScratch {
            weights,
            ancestors,
            offspring,
            ..
        } = &mut self.scratch;
        stats::systematic_resample_into(rng, weights, target, ancestors);
        self.resample_stats.passes += 1;
        offspring.clear();
        offspring.resize(self.particles.len(), 0);
        for &a in ancestors.iter() {
            offspring[a] += 1;
        }
        // The systematic sweep emits nondecreasing ancestor indices, so
        // laying out `offspring[i]` copies of particle `i` for ascending
        // `i` puts ancestor `ancestors[j]` in slot `j`.
        debug_assert!(ancestors.windows(2).all(|w| w[0] <= w[1]));
        resample_clone_minimal(
            &mut self.particles,
            offspring,
            target,
            &mut self.resample_stats,
        );
    }

    /// Runs the engine over a whole input sequence, collecting the
    /// posterior at every step.
    ///
    /// # Errors
    ///
    /// Propagates the first step error.
    pub fn run(&mut self, inputs: &[M::Input]) -> Result<Vec<Posterior>, RuntimeError> {
        inputs.iter().map(|i| self.step(i)).collect()
    }
}

/// Steps one particle with its own derived generator: the single code
/// path behind both execution modes, which is what makes their
/// equivalence structural rather than coincidental. The step's scores
/// accumulate into the particle's log-weight as they are produced.
///
/// `roots` is caller-owned GC-root scratch (cleared here before use).
fn step_particle_parts<M: Model>(
    method: Method,
    particle: &mut Particle<M>,
    input: &M::Input,
    rng: &mut SmallRng,
    roots: &mut Vec<RvId>,
) -> Result<ValueDist, RuntimeError> {
    let Particle {
        model,
        graph: graph_slot,
        log_w,
    } = particle;
    match method {
        Method::Importance | Method::ParticleFilter => {
            let mut ctx = SampleCtx::new(rng);
            let out = model.step(&mut ctx, input)?;
            *log_w += ctx.log_weight();
            Ok(ValueDist::Dirac(out))
        }
        Method::BoundedDs => {
            // Fresh graph each instant (§5.2): symbolic reasoning is
            // confined to the step, and every delayed variable is
            // realized before the instant ends.
            let mut graph = Graph::new(Retention::PointerMinimal);
            let out;
            {
                let mut ctx = DsCtx::new(&mut graph, rng);
                let sym = model.step(&mut ctx, input)?;
                out = ctx.force(&sym)?;
                *log_w += ctx.log_weight();
            }
            force_state(model, &mut graph, rng)?;
            Ok(ValueDist::Dirac(out))
        }
        Method::StreamingDs | Method::ClassicDs => {
            let graph = graph_slot.as_mut().expect("graph-backed method");
            let out;
            {
                let mut ctx = DsCtx::new(graph, rng);
                let sym = model.step(&mut ctx, input)?;
                *log_w += ctx.log_weight();
                out = ctx.dist_of(&sym)?;
            }
            // Compact the model's symbolic state: realized
            // variables become constants, so affine expressions do
            // not accumulate stale references (and do not pin
            // realized nodes as GC roots).
            roots.clear();
            model.for_each_state_value(&mut |v| {
                graph.simplify_in_place(v);
                v.for_each_rv(&mut |x| roots.push(x));
            });
            graph.collect(roots.drain(..))?;
            Ok(out)
        }
    }
}

/// Steps one particle under the supervisor's fault barrier: panics are
/// caught and rendered, typed errors are captured, and either becomes a
/// [`FaultKind`] for the coordinator to repair.
fn step_particle_caught<M: Model>(
    method: Method,
    particle: &mut Particle<M>,
    input: &M::Input,
    rng: &mut SmallRng,
    roots: &mut Vec<RvId>,
) -> Result<ValueDist, FaultKind> {
    match catch_unwind(AssertUnwindSafe(|| {
        step_particle_parts(method, particle, input, rng, roots)
    })) {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(FaultKind::Error(e)),
        Err(payload) => Err(FaultKind::Panic(supervisor::panic_message(
            payload.as_ref(),
        ))),
    }
}

/// The parallel stepper: shards the particle slice across the pool's
/// workers, steps each shard in place under the fault barrier, and
/// reassembles the per-particle outcomes in particle order. Every
/// particle's generator is derived from its global index, so the sharding
/// layout cannot influence the result — and faults are repaired on the
/// coordinator afterwards, so recovery cannot either.
fn par_step_impl<M: Model + Send>(
    pool: &WorkerPool,
    particles: &mut [Particle<M>],
    input: &M::Input,
    method: Method,
    seed: u64,
    generation: u64,
) -> Vec<Result<ValueDist, FaultKind>>
where
    M::Input: Sync,
{
    let n = particles.len();
    let shard = n.div_ceil(pool.workers());
    let shards: Vec<&mut [Particle<M>]> = particles.chunks_mut(shard).collect();
    let mut slots: Vec<Option<Vec<Result<ValueDist, FaultKind>>>> =
        (0..shards.len()).map(|_| None).collect();
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = shards
        .into_iter()
        .zip(slots.iter_mut())
        .enumerate()
        .map(|(si, (parts, slot))| {
            let base = si * shard;
            Box::new(move || {
                let mut outcomes = Vec::with_capacity(parts.len());
                let mut roots: Vec<RvId> = Vec::new();
                for (j, p) in parts.iter_mut().enumerate() {
                    let mut rng = rngstream::particle_rng(seed, (base + j) as u64, generation);
                    outcomes.push(step_particle_caught(method, p, input, &mut rng, &mut roots));
                }
                *slot = Some(outcomes);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run_scoped(jobs);
    reassemble_shards(slots, shard, n)
}

/// Reassembles per-shard outcome vectors into particle order.
fn reassemble_shards(
    slots: Vec<Option<Vec<Result<ValueDist, FaultKind>>>>,
    shard: usize,
    n: usize,
) -> Vec<Result<ValueDist, FaultKind>> {
    let mut all = Vec::with_capacity(n);
    for (si, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(outcomes) => all.extend(outcomes),
            // run_scoped completes every job (dead-worker sends degrade
            // to inline execution), so this arm should be unreachable;
            // if a job nonetheless vanished, report its particles as
            // faulted rather than corrupting the index alignment.
            None => {
                let len = shard.min(n - si * shard);
                all.extend(
                    (0..len).map(|_| Err(FaultKind::Panic("worker-pool job vanished".into()))),
                );
            }
        }
    }
    all
}

fn force_state<M: Model>(
    model: &mut M,
    graph: &mut Graph,
    rng: &mut SmallRng,
) -> Result<(), RuntimeError> {
    let mut err = None;
    model.for_each_state_value(&mut |v| {
        if err.is_none() {
            match graph.force_value(v, rng) {
                Ok(nv) => *v = nv,
                Err(e) => err = Some(e),
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::value::{DistExpr, Value};

    /// The paper's Kalman benchmark (Appendix B.1).
    #[derive(Clone, Default)]
    struct Kalman {
        prev_x: Option<Value>,
    }

    impl Model for Kalman {
        type Input = f64;

        fn step(&mut self, ctx: &mut dyn ProbCtx, y: &f64) -> Result<Value, RuntimeError> {
            let d = match &self.prev_x {
                None => DistExpr::gaussian(0.0, 100.0),
                Some(x) => DistExpr::gaussian(x.clone(), 1.0),
            };
            let x = ctx.sample(&d)?;
            ctx.observe(&DistExpr::gaussian(x.clone(), 1.0), &Value::Float(*y))?;
            self.prev_x = Some(x.clone());
            Ok(x)
        }

        fn reset(&mut self) {
            self.prev_x = None;
        }

        fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
            if let Some(x) = &mut self.prev_x {
                f(x);
            }
        }
    }

    /// The paper's Coin benchmark (Appendix B.2).
    #[derive(Clone, Default)]
    struct Coin {
        p: Option<Value>,
    }

    impl Model for Coin {
        type Input = bool;

        fn step(&mut self, ctx: &mut dyn ProbCtx, obs: &bool) -> Result<Value, RuntimeError> {
            if self.p.is_none() {
                self.p = Some(ctx.sample(&DistExpr::beta(1.0, 1.0))?);
            }
            let p = self.p.clone().expect("initialized above");
            ctx.observe(&DistExpr::bernoulli(p.clone()), &Value::Bool(*obs))?;
            Ok(p)
        }

        fn reset(&mut self) {
            self.p = None;
        }

        fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
            if let Some(p) = &mut self.p {
                f(p);
            }
        }
    }

    fn kalman_closed_form(obs: &[f64]) -> (f64, f64) {
        let (mut m, mut v) = (0.0f64, 100.0f64);
        for (t, &y) in obs.iter().enumerate() {
            if t > 0 {
                v += 1.0;
            }
            let gain = v / (v + 1.0);
            m += gain * (y - m);
            v *= 1.0 - gain;
        }
        (m, v)
    }

    #[test]
    fn sds_single_particle_is_exact_kalman() {
        let obs = [1.0, 2.0, 1.5, 0.5, -0.3, 0.9];
        let mut engine = Infer::with_seed(Method::StreamingDs, 1, Kalman::default(), 1);
        let posts = engine.run(&obs).unwrap();
        let (m, v) = kalman_closed_form(&obs);
        let last = posts.last().unwrap();
        assert!(
            (last.mean_float() - m).abs() < 1e-9,
            "{} vs {m}",
            last.mean_float()
        );
        assert!((last.variance_float() - v).abs() < 1e-9);
    }

    #[test]
    fn classic_ds_matches_sds_but_grows() {
        let obs: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let mut sds = Infer::with_seed(Method::StreamingDs, 1, Kalman::default(), 1);
        let mut ds = Infer::with_seed(Method::ClassicDs, 1, Kalman::default(), 1);
        let p_sds = sds.run(&obs).unwrap();
        let p_ds = ds.run(&obs).unwrap();
        for (a, b) in p_sds.iter().zip(&p_ds) {
            assert!((a.mean_float() - b.mean_float()).abs() < 1e-9);
        }
        assert!(sds.memory().live_nodes <= 3);
        assert!(ds.memory().live_nodes >= 40, "ds: {:?}", ds.memory());
    }

    #[test]
    fn sds_coin_is_exact_beta_posterior() {
        let flips = [true, true, false, true, true, false, true];
        let mut engine = Infer::with_seed(Method::StreamingDs, 1, Coin::default(), 9);
        let posts = engine.run(&flips).unwrap();
        let heads = flips.iter().filter(|&&b| b).count() as f64;
        let tails = flips.len() as f64 - heads;
        let (a, b) = (1.0 + heads, 1.0 + tails);
        let expected_mean = a / (a + b);
        let last = posts.last().unwrap();
        assert!(
            (last.mean_float() - expected_mean).abs() < 1e-9,
            "{} vs {expected_mean}",
            last.mean_float()
        );
    }

    #[test]
    fn particle_filter_approaches_exact_solution() {
        let obs = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.05, 0.95];
        let (exact, _) = kalman_closed_form(&obs);
        let mut engine = Infer::with_seed(Method::ParticleFilter, 2000, Kalman::default(), 3);
        let posts = engine.run(&obs).unwrap();
        let got = posts.last().unwrap().mean_float();
        assert!((got - exact).abs() < 0.15, "{got} vs {exact}");
    }

    #[test]
    fn bds_matches_exact_on_first_step_conjugacy() {
        // On the Kalman model, BDS conditions x on y within the step, so
        // even a single-step estimate with few particles is much better
        // than a PF prior draw; with many particles it converges.
        let mut engine = Infer::with_seed(Method::BoundedDs, 500, Kalman::default(), 5);
        let post = engine.step(&5.0).unwrap();
        let expected = 5.0 * 100.0 / 101.0;
        assert!(
            (post.mean_float() - expected).abs() < 0.3,
            "{}",
            post.mean_float()
        );
        // The state was realized at the end of the instant.
        assert_eq!(engine.memory().live_nodes, 0);
    }

    #[test]
    fn importance_sampler_accumulates_weights() {
        let obs = [1.0, 1.0, 1.0];
        let mut engine = Infer::with_seed(Method::Importance, 200, Kalman::default(), 4);
        let _ = engine.run(&obs).unwrap();
        // ESS decays without resampling.
        assert!(engine.last_ess() < 200.0);
    }

    #[test]
    fn sds_memory_is_bounded_over_time() {
        let obs: Vec<f64> = (0..200).map(|i| (i % 7) as f64).collect();
        let mut engine = Infer::with_seed(Method::StreamingDs, 10, Kalman::default(), 6);
        let mut peak = 0;
        for y in &obs {
            engine.step(y).unwrap();
            peak = peak.max(engine.memory().live_nodes);
        }
        assert!(peak <= 3 * 10, "peak {peak}");
    }

    #[test]
    fn reset_restarts_inference() {
        let mut engine = Infer::with_seed(Method::StreamingDs, 2, Kalman::default(), 8);
        engine.step(&1.0).unwrap();
        assert_eq!(engine.steps(), 1);
        engine.reset();
        assert_eq!(engine.steps(), 0);
        assert_eq!(engine.memory().live_nodes, 0);
        let p = engine.step(&2.5).unwrap();
        assert!((p.mean_float() - 2.5 * 100.0 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn ess_threshold_policy_resamples_lazily() {
        use crate::infer::ResamplePolicy;
        let obs: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut adaptive = Infer::with_seed(Method::ParticleFilter, 100, Kalman::default(), 2)
            .with_resample_policy(ResamplePolicy::EssBelow(0.5));
        let mut worst = f64::INFINITY;
        for y in &obs {
            adaptive.step(y).unwrap();
            worst = worst.min(adaptive.last_ess());
        }
        // The cloud is allowed to degrade between resampling events, but
        // the threshold keeps it alive.
        assert!(worst < 100.0, "ESS never moved: {worst}");
        // Accuracy stays comparable to always-resampling.
        let mut always = Infer::with_seed(Method::ParticleFilter, 100, Kalman::default(), 2);
        let mut adaptive2 = Infer::with_seed(Method::ParticleFilter, 100, Kalman::default(), 2)
            .with_resample_policy(ResamplePolicy::EssBelow(0.5));
        let (mut mse_a, mut mse_b) = (0.0, 0.0);
        for y in &obs {
            let a = always.step(y).unwrap().mean_float();
            let b = adaptive2.step(y).unwrap().mean_float();
            mse_a += (a - y).powi(2);
            mse_b += (b - y).powi(2);
        }
        assert!(
            mse_b < 3.0 * mse_a + 1.0,
            "adaptive {mse_b} vs always {mse_a}"
        );
    }

    #[test]
    fn never_policy_behaves_like_importance_sampling() {
        use crate::infer::ResamplePolicy;
        let obs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let mut never = Infer::with_seed(Method::ParticleFilter, 50, Kalman::default(), 3)
            .with_resample_policy(ResamplePolicy::Never);
        for y in &obs {
            never.step(y).unwrap();
        }
        assert!(never.last_ess() < 5.0, "ESS {}", never.last_ess());
    }

    #[test]
    #[should_panic(expected = "at least one particle")]
    fn zero_particles_rejected() {
        let _ = Infer::with_seed(Method::ParticleFilter, 0, Kalman::default(), 0);
    }

    #[test]
    fn core_inference_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Graph>();
        assert_send::<RuntimeError>();
        assert_send::<ValueDist>();
        assert_send::<Particle<Kalman>>();
        assert_send::<Infer<Kalman>>();
    }

    #[test]
    fn parallel_stepping_is_bitwise_identical_to_sequential() {
        let obs: Vec<f64> = (0..30).map(|i| (i as f64 * 0.4).sin()).collect();
        for method in Method::ALL {
            let mut seq = Infer::with_seed(method, 37, Kalman::default(), 123);
            let mut par = Infer::with_seed(method, 37, Kalman::default(), 123)
                .with_parallelism(Parallelism::Threads(3));
            for y in &obs {
                let a = seq.step(y).unwrap();
                let b = par.step(y).unwrap();
                assert_eq!(
                    a.mean_float().to_bits(),
                    b.mean_float().to_bits(),
                    "{method} diverged"
                );
            }
        }
    }

    #[test]
    fn particle_streams_are_execution_order_independent() {
        // Shard layouts differ between 1, 2, and 5 workers; the posterior
        // must not.
        let obs = [0.3, -1.2, 0.8, 2.0, -0.5];
        let runs: Vec<Vec<u64>> = [1usize, 2, 5]
            .iter()
            .map(|&w| {
                let mut e = Infer::with_seed(Method::ParticleFilter, 23, Kalman::default(), 9)
                    .with_parallelism(Parallelism::Threads(w));
                obs.iter()
                    .map(|y| e.step(y).unwrap().mean_float().to_bits())
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn clone_of_engine_replays_identically() {
        let mut a = Infer::with_seed(Method::StreamingDs, 8, Kalman::default(), 5)
            .with_parallelism(Parallelism::Threads(2));
        a.step(&1.0).unwrap();
        let mut b = a.clone();
        let pa = a.step(&0.5).unwrap();
        let pb = b.step(&0.5).unwrap();
        assert_eq!(pa.mean_float().to_bits(), pb.mean_float().to_bits());
    }

    #[test]
    fn parallel_error_matches_sequential_error() {
        // A model that fails on the particle whose first draw is largest
        // in magnitude would be nondeterministic under shared-stream
        // stepping; with derived streams both modes must report the same
        // failing particle's error.
        #[derive(Clone, Default)]
        struct FailsOnNegative;
        impl Model for FailsOnNegative {
            type Input = f64;
            fn step(&mut self, ctx: &mut dyn ProbCtx, _input: &f64) -> Result<Value, RuntimeError> {
                let x = ctx.sample(&DistExpr::gaussian(0.0, 1.0))?;
                if let Value::Float(f) = &x {
                    if *f < 0.0 {
                        return Err(RuntimeError::Host("negative draw".into()));
                    }
                }
                Ok(x)
            }
            fn reset(&mut self) {}
            fn for_each_state_value(&mut self, _f: &mut dyn FnMut(&mut Value)) {}
        }
        let mut seq = Infer::with_seed(Method::ParticleFilter, 16, FailsOnNegative, 2);
        let mut par = Infer::with_seed(Method::ParticleFilter, 16, FailsOnNegative, 2)
            .with_parallelism(Parallelism::Threads(4));
        let ea = seq.step(&0.0).unwrap_err();
        let eb = par.step(&0.0).unwrap_err();
        assert_eq!(format!("{ea}"), format!("{eb}"));
    }

    #[test]
    #[should_panic(expected = "Threads(0)")]
    fn zero_threads_rejected() {
        let _ = Infer::with_seed(Method::ParticleFilter, 4, Kalman::default(), 0)
            .with_parallelism(Parallelism::Threads(0));
    }

    /// A deadline config whose budget no real step can meet, so every tick
    /// is a miss and the degradation ladder unrolls deterministically.
    fn impossible_deadline(floor: usize) -> crate::adaptive::DeadlineConfig {
        let mut cfg = crate::adaptive::DeadlineConfig::new(-1.0);
        cfg.floor = floor;
        cfg.window = 4;
        cfg
    }

    #[test]
    fn deadline_ladder_shrinks_to_floor_never_below() {
        let obs: Vec<f64> = (0..60).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut e = Infer::with_seed(Method::StreamingDs, 50, Kalman::default(), 11)
            .with_deadline(impossible_deadline(8));
        assert_eq!(e.initial_particles(), 50);
        for y in &obs {
            let p = e.step(y).unwrap();
            assert!(p.mean_float().is_finite());
            assert!(e.num_particles() >= 8, "cloud fell below the floor");
        }
        assert_eq!(
            e.num_particles(),
            8,
            "ladder should bottom out at the floor"
        );
        let health = e.last_health().expect("health after stepping");
        let status = health.deadline.expect("deadline status populated");
        assert!(status.at_floor);
        assert!(
            status.degraded,
            "floor pressure must surface as degradation"
        );
        assert!(health.is_nominal(), "deadline pressure is not a fault");
        assert!(e.deadline_misses() > 0);
        let trace = e.decision_trace().expect("trace recorded");
        assert!(
            trace
                .entries()
                .iter()
                .any(|r| r.action == crate::adaptive::DeadlineAction::FloorDegraded),
            "trace should record the floor-degraded transition"
        );
    }

    #[test]
    fn deadline_grow_recovers_after_budget_relief() {
        let obs: Vec<f64> = (0..140).map(|i| (i as f64 * 0.2).cos()).collect();
        let mut e = Infer::with_seed(Method::StreamingDs, 50, Kalman::default(), 11)
            .with_deadline(impossible_deadline(8));
        for y in &obs[..60] {
            e.step(y).unwrap();
        }
        assert_eq!(e.num_particles(), 8);
        // Relieve the budget: every window now shows massive headroom and
        // the controller climbs back, never above the initial size.
        assert!(e.set_deadline_budget(1e12));
        for y in &obs[60..] {
            e.step(y).unwrap();
            assert!(e.num_particles() <= 50, "cloud grew past the initial size");
        }
        assert_eq!(e.num_particles(), 50, "recovery should restore the cloud");
        let status = e.deadline_status().expect("deadline status");
        assert!(!status.degraded);
        assert!(!status.at_floor);
    }

    /// A NaN or infinite budget is refused without touching the
    /// controller: a twin engine that never saw the calls makes the same
    /// decisions at the same ticks, so the latency window was not cleared.
    #[test]
    fn non_finite_budget_is_refused_and_changes_nothing() {
        let obs: Vec<f64> = (0..40).map(|i| (i as f64 * 0.2).sin()).collect();
        let engine = || {
            Infer::with_seed(Method::StreamingDs, 50, Kalman::default(), 11)
                .with_deadline(impossible_deadline(8))
        };
        let (mut e, mut twin) = (engine(), engine());
        for y in &obs[..6] {
            e.step(y).unwrap();
            twin.step(y).unwrap();
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!e.set_deadline_budget(bad), "budget {bad} accepted");
        }
        assert_eq!(e.deadline_status().unwrap().budget_ms, -1.0);
        for y in &obs[6..] {
            e.step(y).unwrap();
            twin.step(y).unwrap();
        }
        // Measured latencies differ between the twins; the decisions not.
        let decisions = |e: &Infer<Kalman>| -> Vec<_> {
            let trace = e.decision_trace().expect("measuring controller");
            trace
                .entries()
                .iter()
                .map(|r| (r.tick, r.action, r.from, r.to))
                .collect()
        };
        assert!(!decisions(&e).is_empty());
        assert_eq!(decisions(&e), decisions(&twin));
        assert_eq!(e.num_particles(), twin.num_particles());
    }

    #[test]
    fn deadline_replay_reproduces_adaptive_run_bitwise() {
        let obs: Vec<f64> = (0..80).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut live = Infer::with_seed(Method::StreamingDs, 40, Kalman::default(), 21)
            .with_deadline(impossible_deadline(5));
        let live_bits: Vec<(u64, u64)> = obs
            .iter()
            .map(|y| {
                let p = live.step(y).unwrap();
                (p.mean_float().to_bits(), p.variance_float().to_bits())
            })
            .collect();
        let trace = live.decision_trace().expect("live trace").clone();
        assert!(!trace.entries().is_empty(), "the run should have degraded");
        // Replay is clock-free: a fresh engine fed the same trace replays
        // the same posteriors bit-for-bit.
        let mut replay = Infer::with_seed(Method::StreamingDs, 40, Kalman::default(), 21)
            .with_decision_replay(trace);
        for (y, (mean_bits, var_bits)) in obs.iter().zip(&live_bits) {
            let p = replay.step(y).unwrap();
            assert_eq!(p.mean_float().to_bits(), *mean_bits, "mean");
            assert_eq!(p.variance_float().to_bits(), *var_bits, "var");
        }
        assert_eq!(replay.num_particles(), live.num_particles());
        let h = replay.last_health().expect("replay health");
        assert!(h.deadline.is_none(), "replay engines report no deadline");
    }

    #[test]
    fn deadline_reset_restores_initial_cloud_and_clears_trace() {
        let obs: Vec<f64> = (0..40).map(|i| i as f64 * 0.1).collect();
        let mut e = Infer::with_seed(Method::ParticleFilter, 30, Kalman::default(), 4)
            .with_deadline(impossible_deadline(6));
        for y in &obs {
            e.step(y).unwrap();
        }
        assert!(e.num_particles() < 30);
        assert!(!e.decision_trace().expect("trace").entries().is_empty());
        e.reset();
        assert_eq!(e.num_particles(), 30);
        assert!(e.decision_trace().expect("trace").entries().is_empty());
        assert_eq!(e.deadline_misses(), 0);
        // A reset engine degrades again from scratch, identically.
        for y in &obs {
            e.step(y).unwrap();
        }
        assert!(e.num_particles() < 30);
    }

    /// Draws `x` and fails when it is negative, leaving its state poisoned.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct FailsBelowZero {
        x: f64,
        poisoned: bool,
    }

    impl Model for FailsBelowZero {
        type Input = ();

        fn step(&mut self, ctx: &mut dyn ProbCtx, _: &()) -> Result<Value, RuntimeError> {
            self.x = ctx.sample(&DistExpr::gaussian(0.0, 1.0))?.as_float()?;
            if self.x < 0.0 {
                self.poisoned = true;
                return Err(RuntimeError::Host("below zero".into()));
            }
            Ok(Value::Float(self.x))
        }

        fn reset(&mut self) {
            *self = FailsBelowZero::default();
        }

        fn for_each_state_value(&mut self, _: &mut dyn FnMut(&mut Value)) {}
    }

    #[test]
    fn rejuvenation_copies_the_donor_into_the_faulted_particle() {
        let mut e = Infer::with_seed(Method::ParticleFilter, 16, FailsBelowZero::default(), 3)
            .with_recovery_policy(RecoveryPolicy::Rejuvenate)
            .with_resample_policy(ResamplePolicy::Never);
        let faults = e.step_outcome(&()).unwrap().health.faults;
        assert!(!faults.is_empty());
        for f in &faults {
            let RecoveryAction::Rejuvenated { donor } = f.recovery else {
                panic!("expected a rejuvenation, got {:?}", f.recovery);
            };
            let (p, d) = (&e.particles[f.particle], &e.particles[donor]);
            assert!(!d.model.poisoned, "the donor was overwritten");
            assert_eq!((&p.model, p.log_w), (&d.model, d.log_w));
        }
    }

    /// A particle model that counts how it is copied: `clone` makes a
    /// fresh particle, `clone_from` writes into an existing one.
    #[derive(Debug)]
    struct Counted(usize);

    thread_local! {
        /// `[clone, clone_from]` calls on this thread.
        static COPIES: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0, 0]) };
    }

    fn count_copy(kind: usize) {
        COPIES.with(|c| {
            let mut v = c.get();
            v[kind] += 1;
            c.set(v);
        });
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            count_copy(0);
            Counted(self.0)
        }

        fn clone_from(&mut self, source: &Self) {
            count_copy(1);
            self.0 = source.0;
        }
    }

    proptest::proptest! {
        /// Slot-layout oracle for the resampling pass, independent of the
        /// engine: on particles tagged with their index, slot `j` holds
        /// `tag[ancestors[j]]` for random weights and for targets below,
        /// at and above the cloud size. Every slot is either a moved
        /// survivor or a copy, and every ancestor is moved or dropped.
        /// Every copy is written into existing storage: the pass makes a
        /// fresh particle only for each slot the cloud grows by.
        #[test]
        fn resample_pass_puts_ancestor_j_in_slot_j(
            weights in proptest::collection::vec(0.0f64..1.0, 1..48),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::SeedableRng;
            let n = weights.len();
            let tags: Vec<usize> = (0..n).collect();
            for target in [n.div_ceil(2), n, 2 * n + 1] {
                let mut ancestors = Vec::new();
                let mut rng = SmallRng::seed_from_u64(seed);
                stats::systematic_resample_into(&mut rng, &weights, target, &mut ancestors);
                let mut offspring = vec![0u32; n];
                for &a in &ancestors {
                    offspring[a] += 1;
                }
                let mut particles: Vec<Particle<Counted>> = tags
                    .iter()
                    .map(|&tag| Particle { model: Counted(tag), graph: None, log_w: -1.0 })
                    .collect();
                let mut rs = ResampleStats::default();
                COPIES.with(|c| c.set([0, 0]));
                resample_clone_minimal(&mut particles, &mut offspring, target, &mut rs);
                let [fresh, reused] = COPIES.with(std::cell::Cell::get);
                let slots: Vec<usize> = particles.iter().map(|p| p.model.0).collect();
                let expected: Vec<usize> = ancestors.iter().map(|&a| tags[a]).collect();
                proptest::prop_assert_eq!(slots, expected);
                proptest::prop_assert!(particles.iter().all(|p| p.log_w == 0.0));
                proptest::prop_assert_eq!(rs.clones + rs.clones_avoided, target as u64);
                proptest::prop_assert_eq!(rs.clones_avoided + rs.dropped, n as u64);
                proptest::prop_assert_eq!(fresh, target.saturating_sub(n) as u64);
                proptest::prop_assert_eq!(reused, rs.clones);
            }
        }
    }
}
