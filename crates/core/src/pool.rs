//! A small persistent worker pool for parallel particle stepping.
//!
//! [`Infer`](crate::infer::Infer) steps are short (tens to hundreds of
//! microseconds for typical particle counts), so spawning OS threads per
//! step would dominate the work. The pool keeps `n` workers alive across
//! steps and hands them borrowed jobs via [`WorkerPool::run_scoped`],
//! which blocks until every job has finished — that barrier is what makes
//! lending non-`'static` closures to the workers sound.
//!
//! Built on `std` only (`mpsc` + `Mutex`/`Condvar`); no external
//! dependencies.

use crate::obs::{self, FieldValue, Obs};
use crate::trace::{self, FlightRecorder, SpanRecord};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// What the coordinator sends a worker: work, or an order to die (the
/// fault-injection hook behind [`WorkerPool::kill_worker`]).
enum Msg {
    Job(Job),
    Die,
}

/// One worker thread plus its job channel.
struct Worker {
    sender: Sender<Msg>,
    handle: JoinHandle<()>,
}

fn spawn_worker(index: usize) -> Worker {
    let (sender, rx) = channel::<Msg>();
    let handle = std::thread::Builder::new()
        .name(format!("pz-worker-{index}"))
        .spawn(move || {
            while let Ok(msg) = rx.recv() {
                match msg {
                    Msg::Job(job) => job(),
                    Msg::Die => break,
                }
            }
        })
        .expect("failed to spawn worker thread");
    Worker { sender, handle }
}

/// A countdown latch: `wait` blocks until `count_down` has been called
/// the configured number of times.
struct Latch {
    remaining: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            zero: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().expect("latch poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.zero.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch poisoned");
        while *remaining > 0 {
            remaining = self.zero.wait(remaining).expect("latch poisoned");
        }
    }
}

/// Counts down its latch when dropped, so a panicking job still releases
/// the coordinator.
struct CountDownOnDrop(Arc<Latch>);

impl Drop for CountDownOnDrop {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

/// Identity of the engine tick driving the next batch, set by the engine
/// before a parallel step so each job can emit a deterministic
/// `pool.job` span (see [`crate::trace`]).
///
/// `pool.job` spans are *schedule* spans: their IDs are derived from the
/// job index, and the job count varies with the worker count, so they are
/// excluded from cross-worker span-tree comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// Engine seed (span-ID derivation input).
    pub seed: u64,
    /// Engine tick the batch belongs to.
    pub tick: u64,
    /// Parent span ID (the engine's `tick.propose` span).
    pub parent: u64,
}

/// Per-job telemetry captured into the job closure so every emission
/// happens on the worker thread without touching the pool's borrow.
struct JobTelemetry {
    obs: Obs,
    recorder: Option<Arc<FlightRecorder>>,
    metrics: bool,
    span: Option<SpanCtx>,
    batch: u64,
    job: u64,
    worker: u64,
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    workers: Vec<Worker>,
    /// Telemetry handle; off by default. Pool metrics use the pool's own
    /// batch index as their tick (one batch per [`WorkerPool::run_scoped`]
    /// call, which for inference is one engine step).
    obs: Obs,
    batches: AtomicU64,
    /// Span identity for the next batch, if the engine is tracing.
    span_ctx: Option<SpanCtx>,
    /// Flight-recorder ring shared by the owning engine, if any.
    recorder: Option<Arc<FlightRecorder>>,
}

impl WorkerPool {
    /// Spawns `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker pool needs at least one thread");
        WorkerPool {
            workers: (0..workers).map(spawn_worker).collect(),
            obs: Obs::off(),
            batches: AtomicU64::new(0),
            span_ctx: None,
            recorder: None,
        }
    }

    /// Attaches a telemetry handle; per-batch queue depth, per-worker job
    /// latency, and respawn events are exported through it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Sets (or clears) the span identity for subsequent batches. The
    /// engine refreshes this before every parallel step so `pool.job`
    /// spans carry the right tick and parent ID.
    pub fn set_span_ctx(&mut self, ctx: Option<SpanCtx>) {
        self.span_ctx = ctx;
    }

    /// Shares (or detaches) the engine's flight-recorder ring; job spans
    /// are recorded into it when a span context is set.
    pub fn set_recorder(&mut self, recorder: Option<Arc<FlightRecorder>>) {
        self.recorder = recorder;
    }

    /// Number of worker threads (dead or alive; see
    /// [`WorkerPool::ensure_alive`]).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of workers whose threads have exited.
    pub fn dead_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.handle.is_finished())
            .count()
    }

    /// Detects dead workers and respawns them, returning how many were
    /// respawned. The supervised engine calls this before every parallel
    /// step so a killed worker costs at most one thread spawn, never a
    /// lost job.
    pub fn ensure_alive(&mut self) -> usize {
        let mut respawned = 0;
        let tick = self.batches.load(Ordering::Relaxed);
        for (i, worker) in self.workers.iter_mut().enumerate() {
            if worker.handle.is_finished() {
                let fresh = spawn_worker(i);
                let old = std::mem::replace(worker, fresh);
                let _ = old.handle.join();
                respawned += 1;
                if self.obs.enabled() {
                    self.obs.counter(tick, obs::names::POOL_RESPAWNS, 1);
                    self.obs.event(
                        tick,
                        obs::events::POOL_RESPAWN,
                        &[("worker", FieldValue::Int(i as i64))],
                    );
                }
            }
        }
        respawned
    }

    /// Orders worker `index` to exit and waits until its thread is gone —
    /// the chaos harness's worker-death injection. The slot stays dead
    /// until [`WorkerPool::ensure_alive`] respawns it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn kill_worker(&self, index: usize) {
        let worker = &self.workers[index];
        // An already-dead worker has dropped its receiver; the failed
        // send is fine either way.
        let _ = worker.sender.send(Msg::Die);
        while !worker.handle.is_finished() {
            std::thread::yield_now();
        }
    }

    /// Runs every job on the pool and blocks until all have finished.
    ///
    /// Jobs may borrow from the caller's stack: the barrier at the end of
    /// this function guarantees no job outlives the borrowed data. If any
    /// job panics, the panic is swallowed on the worker (which stays
    /// alive) and re-raised here after all jobs have completed.
    pub fn run_scoped<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        let batch = {
            let batch = self.batches.fetch_add(1, Ordering::Relaxed);
            if self.obs.enabled() {
                self.obs
                    .gauge(batch, obs::names::POOL_QUEUE_DEPTH, jobs.len() as f64);
            }
            batch
        };
        let latch = Arc::new(Latch::new(jobs.len()));
        let panicked = Arc::new(AtomicBool::new(false));
        for (i, job) in jobs.into_iter().enumerate() {
            // SAFETY: the job only runs before `latch.wait()` returns
            // below — the latch is counted down (via the drop guard) only
            // after the job has finished or unwound, so no borrow in the
            // job is used after this stack frame ends. The transmute only
            // erases the `'scope` lifetime; the fat-pointer layout of
            // `Box<dyn FnOnce() + Send>` is unaffected.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            let guard = CountDownOnDrop(Arc::clone(&latch));
            let panicked = Arc::clone(&panicked);
            let telemetry = {
                let metrics = self.obs.enabled();
                // A span is emitted when there is somewhere for it to go:
                // the sink, the flight recorder, or both.
                let span = self.span_ctx.filter(|_| metrics || self.recorder.is_some());
                (metrics || span.is_some()).then(|| JobTelemetry {
                    obs: self.obs.clone(),
                    recorder: self.recorder.clone(),
                    metrics,
                    span,
                    batch,
                    job: i as u64,
                    worker: (i % self.workers.len()) as u64,
                })
            };
            let wrapped: Job = Box::new(move || {
                let _guard = guard;
                let t0 = telemetry.as_ref().map(|_| std::time::Instant::now());
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    panicked.store(true, Ordering::SeqCst);
                }
                if let (Some(t), Some(t0)) = (telemetry, t0) {
                    let dur_ms = t0.elapsed().as_secs_f64() * 1e3;
                    if t.metrics {
                        t.obs
                            .histogram_at(t.batch, obs::names::POOL_JOB_MS, t.worker, dur_ms);
                    }
                    if let Some(ctx) = t.span {
                        let rec = SpanRecord {
                            tick: ctx.tick,
                            name: trace::spans::POOL_JOB,
                            id: trace::span_id(ctx.seed, ctx.tick, trace::phases::POOL_JOB, t.job),
                            parent: Some(ctx.parent),
                            index: Some(t.job),
                            dur_ms,
                        };
                        t.obs.span(&rec);
                        if let Some(recorder) = &t.recorder {
                            recorder.record(&rec);
                        }
                    }
                }
            });
            let target = &self.workers[i % self.workers.len()].sender;
            if let Err(err) = target.send(Msg::Job(wrapped)) {
                // The worker is gone (killed, or dead after a poisoned
                // spawn); degrade gracefully by running inline.
                if let Msg::Job(job) = err.0 {
                    job();
                }
            }
        }
        latch.wait();
        if panicked.load(Ordering::SeqCst) {
            panic!("a worker-pool job panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop.
        for worker in self.workers.drain(..) {
            drop(worker.sender);
            let _ = worker.handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_borrowed_jobs_to_completion() {
        let pool = WorkerPool::new(4);
        let mut results = vec![0usize; 32];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = results
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = i * i) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        pool.run_scoped(jobs);
        for (i, &r) in results.iter().enumerate() {
            assert_eq!(r, i * i);
        }
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
                .map(|_| {
                    let counter = &counter;
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(jobs);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 80);
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let pool = WorkerPool::new(1);
        pool.run_scoped(Vec::new());
    }

    #[test]
    fn killed_worker_is_detected_and_respawned() {
        let mut pool = WorkerPool::new(3);
        assert_eq!(pool.dead_workers(), 0);
        pool.kill_worker(1);
        assert_eq!(pool.dead_workers(), 1);
        // Jobs routed at the dead worker degrade to inline execution, so
        // nothing is lost even before the respawn.
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 6);
        assert_eq!(pool.ensure_alive(), 1);
        assert_eq!(pool.dead_workers(), 0);
        // The respawned pool keeps working.
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn ensure_alive_is_a_no_op_on_healthy_pool() {
        let mut pool = WorkerPool::new(2);
        assert_eq!(pool.ensure_alive(), 0);
    }

    #[test]
    fn panicking_job_propagates_without_killing_workers() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> =
            vec![Box::new(|| panic!("boom")) as Box<dyn FnOnce() + Send + '_>];
        assert!(catch_unwind(AssertUnwindSafe(|| pool.run_scoped(jobs))).is_err());
        // The pool survives and keeps executing later batches.
        let ok = AtomicBool::new(false);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
            ok.store(true, Ordering::SeqCst);
        })
            as Box<dyn FnOnce() + Send + '_>];
        pool.run_scoped(jobs);
        assert!(ok.load(Ordering::SeqCst));
    }
}
