//! Allocation counts of the steady-state particle filter on the tape.
//!
//! A std-only counting `#[global_allocator]` (per thread, so the test
//! harness's parallel threads do not disturb each other) counts every
//! allocation event during each engine tick of `hmm.zl`'s `hmm` and
//! `robot.zl`'s `gps_acc_tracker`: PF, 100 particles, fixed seed and
//! inputs, optimizing pipeline, tape backend.
//!
//! A PF tick allocates a fixed amount for stepping the cloud (its step
//! cost), plus a fixed amount per particle the resampler clones (the
//! clone count is random, so the total per tick is not constant). Every
//! tick of two later windows must split exactly that way with the same
//! two pinned constants: the step cost does not drift and nothing grows.
//!
//! The step cost is also the same at 10 and at 100 particles: a particle
//! step on the tape allocates nothing, and what a tick allocates (the
//! hoisted prelude, the tick input and its prologue, the engine's own
//! bookkeeping) does not scale with the particle count.

use probzelus_core::infer::Method;
use probzelus_core::Value;
use probzelus_lang::pipeline::compile_source_opt;
use probzelus_lang::{ExecBackend, MufEngine, Options};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // A const-initialized `Cell` has no destructor, so `try_with` never
    // fails; using it instead of `with` keeps the allocator panic-free.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches one thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const PARTICLES: usize = 100;
/// The smaller cloud of the particle-count independence check.
const FEW_PARTICLES: usize = 10;
const WARMUP: usize = 20;
const WINDOW: usize = 100;

fn example(file: &str) -> String {
    let path = format!("{}/../../examples/zelus/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A deterministic float stream (LCG) in `[-2, 2)`.
fn float_inputs(n: usize) -> Vec<f64> {
    let mut state: u64 = 0x9e3779b97f4a7c15;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        })
        .collect()
}

fn engine(file: &str, node: &str, particles: usize) -> MufEngine {
    let compiled = compile_source_opt(&example(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    let options = Options {
        method: Method::ParticleFilter,
        seed: 42,
        backend: ExecBackend::Tape,
    };
    compiled
        .infer_node(node, particles, options)
        .unwrap_or_else(|e| panic!("{node}: {e}"))
}

/// Steps `engine` through `inputs` and returns, per tick, the allocation
/// events of that tick and the particle clones the resampler made in it.
fn measure(engine: &mut MufEngine, inputs: &[Value]) -> Vec<(u64, u64)> {
    inputs
        .iter()
        .map(|input| {
            let clones0 = engine.resample_stats().clones;
            let a0 = allocs();
            let posterior = engine.step(input).expect("step");
            let a = allocs() - a0;
            drop(posterior);
            (a, engine.resample_stats().clones - clones0)
        })
        .collect()
}

/// Allocation events per cloned particle: the clone's flat state-slot
/// vector. Every leaf of both models' states is a scalar, so cloning a
/// leaf allocates nothing, and a clone is the only per-particle
/// allocation of a tick.
const PER_CLONE: u64 = 1;

/// Runs an engine of `particles` particles through warm-up plus two
/// windows and returns the step cost (allocations minus [`PER_CLONE`]
/// per clone) of every window tick, after checking that both windows
/// spend the same on stepping the cloud.
fn step_costs(file: &str, node: &str, particles: usize, inputs: &[Value]) -> Vec<u64> {
    assert_eq!(inputs.len(), WARMUP + 2 * WINDOW);
    let mut eng = engine(file, node, particles);
    measure(&mut eng, &inputs[..WARMUP]);
    assert_eq!(eng.tape_status(), Some(Ok(())), "{node}: no tape");
    let residual = |window: Vec<(u64, u64)>| -> Vec<u64> {
        window
            .into_iter()
            .map(|(a, clones)| a - PER_CLONE * clones)
            .collect()
    };
    let first = residual(measure(&mut eng, &inputs[WARMUP..WARMUP + WINDOW]));
    let second = residual(measure(&mut eng, &inputs[WARMUP + WINDOW..]));
    assert_eq!(
        first.iter().sum::<u64>(),
        second.iter().sum::<u64>(),
        "{node}: the step's allocations changed between windows"
    );
    first.into_iter().chain(second).collect()
}

/// Checks that every window tick `t` of a [`PARTICLES`]-particle engine
/// had step cost `step(t)`.
fn assert_steady(file: &str, node: &str, inputs: &[Value], step: impl Fn(usize) -> u64) {
    for (t, cost) in step_costs(file, node, PARTICLES, inputs)
        .into_iter()
        .enumerate()
    {
        let t = WARMUP + t;
        assert_eq!(
            cost,
            step(t),
            "{node} tick {t}: allocations other than clones"
        );
    }
}

fn hmm_inputs() -> Vec<Value> {
    float_inputs(WARMUP + 2 * WINDOW)
        .into_iter()
        .map(Value::Float)
        .collect()
}

/// `(a_obs, (has_gps, (p_obs, cmd)))`, the gps_acc_tracker input; every
/// fifth tick carries a GPS fix.
fn robot_inputs() -> Vec<Value> {
    float_inputs(WARMUP + 2 * WINDOW)
        .iter()
        .enumerate()
        .map(|(t, &x)| {
            Value::pair(
                Value::Float(x * 0.1),
                Value::pair(
                    Value::Bool(t.is_multiple_of(5)),
                    Value::pair(Value::Float(x.abs()), Value::Float(0.5)),
                ),
            )
        })
        .collect()
}

#[test]
fn hmm_pf_tick_allocations_are_pinned() {
    // All of it is the hoisted prelude, which still runs on the
    // interpreter once per tick.
    assert_steady("hmm.zl", "hmm", &hmm_inputs(), |_| 40);
}

#[test]
fn robot_pf_tick_allocations_are_pinned() {
    // The tick input's six boxes and the six of the two tails the
    // prologue projects out, once per tick, plus the engine's own four.
    // A GPS tick's extra observation is fused, so it costs nothing more.
    assert_steady("robot.zl", "gps_acc_tracker", &robot_inputs(), |_| 16);
}

/// Zero allocations per particle-step: the step cost of every window
/// tick is the same at 10 particles as at 100.
#[test]
fn particle_steps_allocate_nothing() {
    for (file, node, inputs) in [
        ("hmm.zl", "hmm", hmm_inputs()),
        ("robot.zl", "gps_acc_tracker", robot_inputs()),
    ] {
        assert_eq!(
            step_costs(file, node, FEW_PARTICLES, &inputs),
            step_costs(file, node, PARTICLES, &inputs),
            "{node}: the step cost depends on the particle count"
        );
    }
}
