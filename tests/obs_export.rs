//! The telemetry export surface end to end: JSONL well-formedness from a
//! real engine run, recovery events under injected faults, and worker-pool
//! metrics under parallel stepping.

use probzelus::core::infer::{Infer, Method, Parallelism};
use probzelus::core::model::Model;
use probzelus::core::obs::{
    events, names, FieldValue, MemorySink, MetricKind, Obs, Record, Sample, Sink, WriterSink,
};
use probzelus::core::prob::ProbCtx;
use probzelus::core::supervisor::RecoveryPolicy;
use probzelus::core::trace::{spans, SpanRecord};
use probzelus::core::value::Value;
use probzelus::core::RuntimeError;
use probzelus::models::Kalman;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Wraps a model and makes every particle fail at one scheduled tick.
#[derive(Debug, Clone)]
struct FaultAt<M> {
    inner: M,
    at: u64,
    tick: u64,
}

impl<M: Model> Model for FaultAt<M> {
    type Input = M::Input;

    fn step(&mut self, ctx: &mut dyn ProbCtx, input: &M::Input) -> Result<Value, RuntimeError> {
        let tick = self.tick;
        self.tick += 1;
        if tick == self.at {
            return Err(RuntimeError::Host(format!("injected fault at tick {tick}")));
        }
        self.inner.step(ctx, input)
    }

    fn reset(&mut self) {
        self.tick = 0;
        self.inner.reset();
    }

    fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
        self.inner.for_each_state_value(f);
    }
}

#[test]
fn jsonl_export_is_one_wellformed_object_per_line() {
    let path = std::env::temp_dir().join("pz_obs_export_wellformed.jsonl");
    let obs = Obs::to(Arc::new(
        WriterSink::create(&path).expect("temp dir is writable"),
    ));
    let mut engine =
        Infer::with_seed(Method::ParticleFilter, 16, Kalman::default(), 11).with_obs(obs.clone());
    for t in 0..50 {
        engine.step(&(t as f64 * 0.1).cos()).unwrap();
    }
    obs.flush().unwrap();
    drop(engine);

    let text = std::fs::read_to_string(&path).expect("export exists");
    std::fs::remove_file(&path).ok();
    assert!(!text.is_empty());
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object: {line}"
        );
        assert!(
            line.contains("\"type\":\"") && line.contains("\"name\":\""),
            "missing type/name: {line}"
        );
        assert!(
            line.contains("\"engine\":\"PF\""),
            "missing engine scope: {line}"
        );
        // Balanced quoting: JSON string syntax means an even number of
        // unescaped quotes on every line.
        let (mut quotes, mut prev) = (0usize, b' ');
        for &c in line.as_bytes() {
            if c == b'"' && prev != b'\\' {
                quotes += 1;
            }
            prev = c;
        }
        assert!(quotes % 2 == 0, "unbalanced quotes: {line}");
    }
    assert!(
        text.lines()
            .any(|l| l.contains(&format!("\"name\":\"{}\"", events::ENGINE_ATTACH))),
        "attach event missing"
    );
}

#[test]
fn injected_faults_export_recovery_events_and_fault_counters() {
    let sink = Arc::new(MemorySink::new());
    let model = FaultAt {
        inner: Kalman::default(),
        at: 5,
        tick: 0,
    };
    let mut engine = Infer::with_seed(Method::ParticleFilter, 8, model, 2)
        .with_recovery_policy(RecoveryPolicy::Rejuvenate)
        .with_obs(Obs::to(sink.clone()));
    for t in 0..10 {
        engine.step(&(t as f64 * 0.1)).unwrap();
    }

    // All 8 particles faulted at tick 5 and were rejuvenated: one
    // recovery event each, mirrored by the fault counter.
    assert_eq!(sink.event_count(events::RECOVERY), 8);
    assert_eq!(sink.counter_total(names::STEP_FAULTS), 8.0);
    let recovery_fields: Vec<Vec<(String, String)>> = sink
        .records()
        .iter()
        .filter_map(|r| match r {
            Record::Event { name, fields, .. } if name == events::RECOVERY => Some(fields.clone()),
            _ => None,
        })
        .collect();
    for fields in &recovery_fields {
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["particle", "fault", "action"]);
        let fault = &fields[1].1;
        assert!(
            fault.contains("injected fault at tick 5"),
            "fault text lost: {fault}"
        );
    }
}

#[test]
fn parallel_stepping_exports_pool_metrics() {
    let sink = Arc::new(MemorySink::new());
    let mut engine = Infer::with_seed(Method::ParticleFilter, 16, Kalman::default(), 5)
        .with_parallelism(Parallelism::Threads(2))
        .with_obs(Obs::to(sink.clone()));
    let steps = 20;
    for t in 0..steps {
        engine.step(&(t as f64 * 0.1)).unwrap();
    }

    // One queue-depth gauge per pool batch (= per engine step), and at
    // least one per-job latency sample per batch.
    let depth = sink.gauge_series(names::POOL_QUEUE_DEPTH);
    assert_eq!(depth.len(), steps, "one queue-depth gauge per step");
    assert!(depth.iter().all(|&(_, v)| v >= 1.0));
    let jobs = sink.histogram_values(names::POOL_JOB_MS);
    assert!(
        jobs.len() >= steps,
        "expected >= {steps} job latency samples, got {}",
        jobs.len()
    );
    assert!(jobs.iter().all(|v| v.is_finite() && *v >= 0.0));
}

/// Acceptance witness for the clone-minimal resampler, through the
/// telemetry surface: on the hmm (Kalman) benchmark every resampling
/// pass emits a strictly positive `resample.clones_avoided` increment —
/// equivalently, strictly fewer than `particles` deep clones per tick —
/// and the totals reconcile with the engine's own counters.
#[test]
fn clone_minimal_is_witnessed_by_the_clones_avoided_metric() {
    const PARTICLES: usize = 64;
    const TICKS: u64 = 50;
    let sink = Arc::new(MemorySink::new());
    let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, Kalman::default(), 0x5EED)
        .with_obs(Obs::to(sink.clone()));
    for t in 0..TICKS {
        engine.step(&(t as f64 * 0.1).sin()).unwrap();
    }

    let increments: Vec<(u64, f64)> = sink
        .records()
        .iter()
        .filter_map(|r| match r {
            Record::Sample {
                kind: MetricKind::Counter,
                name,
                tick,
                value,
                ..
            } if name == names::RESAMPLE_CLONES_AVOIDED => Some((*tick, *value)),
            _ => None,
        })
        .collect();
    assert_eq!(
        increments.len() as u64,
        TICKS,
        "one clones-avoided increment per PF resampling pass"
    );
    for (tick, avoided) in &increments {
        assert!(
            *avoided >= 1.0 && *avoided <= PARTICLES as f64,
            "tick {tick}: implausible clones-avoided {avoided}"
        );
    }

    let stats = engine.resample_stats();
    let total = sink.counter_total(names::RESAMPLE_CLONES_AVOIDED);
    assert_eq!(total as u64, stats.clones_avoided);
    // clones + avoided = passes × N, so a positive avoided count per pass
    // is exactly "fewer deep clones per tick than the particle count".
    assert!(stats.clones < stats.passes * PARTICLES as u64);

    // The scratch gauge is emitted every tick and plateaus after warm-up.
    let scratch = sink.gauge_series(names::STEP_SCRATCH_BYTES);
    assert_eq!(scratch.len() as u64, TICKS);
    let warm = scratch[5].1;
    assert!(warm > 0.0);
    assert!(scratch[5..].iter().all(|&(_, v)| v == warm));
}

/// The slab gauges: `graph.slots_reused` climbs monotonically under SDS
/// (every post-warm-up allocation recycles a slot) while
/// `graph.capacity` stays flat — the exported form of the
/// bounded-capacity witness.
#[test]
fn sds_exports_slot_reuse_and_flat_capacity_gauges() {
    const TICKS: usize = 2_000;
    let sink = Arc::new(MemorySink::new());
    let mut engine = Infer::with_seed(Method::StreamingDs, 1, Kalman::default(), 0)
        .with_obs(Obs::to(sink.clone()));
    for t in 0..TICKS {
        engine.step(&(t as f64 * 0.01).sin()).unwrap();
    }

    let reused = sink.gauge_series(names::GRAPH_SLOTS_REUSED);
    assert_eq!(reused.len(), TICKS);
    assert!(
        reused.windows(2).all(|w| w[1].1 >= w[0].1),
        "slot-reuse gauge decreased"
    );
    assert!(
        reused[TICKS - 1].1 >= (TICKS - 100) as f64,
        "slot reuse not happening: {}",
        reused[TICKS - 1].1
    );

    let capacity = sink.gauge_series(names::GRAPH_CAPACITY);
    assert_eq!(capacity.len(), TICKS);
    let peak = capacity.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    assert!(peak <= 8.0, "slab capacity gauge not flat: peak {peak}");
    assert_eq!(capacity[100].1, capacity[TICKS - 1].1);
}

/// The deadline controller's telemetry: every recorded decision is
/// mirrored as a `deadline.decision` event with the documented field
/// order, misses accumulate in the `deadline.misses` counter, and the
/// budget gauge is emitted every measured tick.
#[test]
fn deadline_controller_exports_decision_events_and_miss_counters() {
    use probzelus::core::adaptive::DeadlineConfig;

    const TICKS: usize = 40;
    let sink = Arc::new(MemorySink::new());
    let mut cfg = DeadlineConfig::new(-1.0); // every tick misses
    cfg.floor = 4;
    cfg.window = 4;
    let mut engine = Infer::with_seed(Method::StreamingDs, 24, Kalman::default(), 13)
        .with_obs(Obs::to(sink.clone()))
        .with_deadline(cfg);
    for t in 0..TICKS {
        engine.step(&(t as f64 * 0.1).sin()).unwrap();
    }

    let trace_len = engine.decision_trace().expect("trace").len();
    assert!(
        trace_len > 0,
        "impossible budget never triggered a decision"
    );
    assert_eq!(sink.event_count(events::DEADLINE_DECISION), trace_len);
    assert_eq!(
        sink.counter_total(names::DEADLINE_MISSES) as u64,
        engine.deadline_misses()
    );
    assert_eq!(engine.deadline_misses(), TICKS as u64);
    let budget = sink.gauge_series(names::DEADLINE_BUDGET_MS);
    assert_eq!(budget.len(), TICKS, "one budget gauge per measured tick");
    assert!(budget.iter().all(|&(_, v)| v == -1.0));
    for r in sink.records() {
        if let Record::Event { name, fields, .. } = &r {
            if name == events::DEADLINE_DECISION {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(
                    keys,
                    ["action", "from", "to", "observed_p99_ms", "budget_ms"]
                );
            }
        }
    }
}

/// Exhausting the collapse retry budget surfaces both ways at once: the
/// structured `CollapseBudgetExhausted` error and a matching
/// `collapse.exhausted` event carrying the same facts.
#[test]
fn collapse_budget_exhaustion_exports_a_typed_event() {
    use probzelus::core::DistExpr;

    /// Zeroes every particle's weight each step.
    #[derive(Debug, Clone, Default)]
    struct AlwaysCollapses;
    impl Model for AlwaysCollapses {
        type Input = f64;
        fn step(&mut self, ctx: &mut dyn ProbCtx, _y: &f64) -> Result<Value, RuntimeError> {
            let x = ctx.sample(&DistExpr::gaussian(0.0, 1.0))?;
            ctx.factor(f64::NEG_INFINITY);
            Ok(x)
        }
        fn reset(&mut self) {}
        fn for_each_state_value(&mut self, _f: &mut dyn FnMut(&mut Value)) {}
    }

    let sink = Arc::new(MemorySink::new());
    let mut engine = Infer::with_seed(Method::ParticleFilter, 8, AlwaysCollapses, 3)
        .with_recovery_policy(RecoveryPolicy::Rejuvenate)
        .with_collapse_retry_budget(1)
        .with_obs(Obs::to(sink.clone()));
    let mut err = None;
    for t in 0..5 {
        if let Err(e) = engine.step(&(t as f64)) {
            err = Some(e);
            break;
        }
    }
    let err = err.expect("budget exhaustion never surfaced");
    assert!(
        matches!(
            err,
            RuntimeError::CollapseBudgetExhausted {
                tick: 1,
                consecutive: 2,
                budget: 1,
            }
        ),
        "got {err:?}"
    );
    assert_eq!(sink.event_count(events::COLLAPSE_EXHAUSTED), 1);
    let fields = sink
        .records()
        .iter()
        .find_map(|r| match r {
            Record::Event { name, fields, .. } if name == events::COLLAPSE_EXHAUSTED => {
                Some(fields.clone())
            }
            _ => None,
        })
        .expect("event recorded");
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["consecutive", "budget"]);
    assert_eq!(fields[0].1, "2");
    assert_eq!(fields[1].1, "1");
}

#[test]
fn detached_engine_exports_nothing() {
    // `Obs::off` is the default: a run without a sink must not record.
    let sink = Arc::new(MemorySink::new());
    let mut engine = Infer::with_seed(Method::StreamingDs, 4, Kalman::default(), 9);
    for t in 0..20 {
        engine.step(&(t as f64 * 0.1)).unwrap();
    }
    assert!(sink.is_empty());
    drop(engine);
    assert_eq!(Arc::strong_count(&sink), 1);
}

/// Holds every gauge for 1 ms and keeps the `step.latency_ms` samples and
/// the `tick` span durations it receives.
#[derive(Default)]
struct SlowGauges {
    latency_ms: Mutex<Vec<f64>>,
    tick_ms: Mutex<Vec<f64>>,
}

impl Sink for SlowGauges {
    fn record(&self, sample: &Sample) {
        match sample.kind {
            MetricKind::Gauge => std::thread::sleep(Duration::from_millis(1)),
            MetricKind::Histogram if sample.name == names::STEP_LATENCY_MS => {
                self.latency_ms
                    .lock()
                    .expect("unpoisoned")
                    .push(sample.value);
            }
            _ => {}
        }
    }

    fn event(&self, _: Option<&str>, _: u64, _: &str, _: &[(&str, FieldValue)]) {}

    fn span(&self, _: Option<&str>, span: &SpanRecord) {
        if span.name == spans::TICK {
            self.tick_ms.lock().expect("unpoisoned").push(span.dur_ms);
        }
    }
}

#[test]
fn tick_span_covers_the_per_tick_export() {
    // A PF tick exports five gauges after its latency is read (particles,
    // ESS, log-evidence, scratch bytes, consecutive collapses). The
    // `tick` span ends after them, so with each gauge held for 1 ms it
    // is at least 5 ms longer than `step.latency_ms`, which keeps the
    // earlier reading.
    let sink = Arc::new(SlowGauges::default());
    let mut engine = Infer::with_seed(Method::ParticleFilter, 8, Kalman::default(), 5)
        .with_obs(Obs::to(sink.clone()));
    for t in 0..4 {
        engine.step(&(t as f64 * 0.1)).unwrap();
    }
    let latency = sink.latency_ms.lock().expect("unpoisoned").clone();
    let tick = sink.tick_ms.lock().expect("unpoisoned").clone();
    assert_eq!((latency.len(), tick.len()), (4, 4));
    for (l, t) in latency.iter().zip(&tick) {
        assert!(t - l >= 4.9, "tick span {t} ms vs step latency {l} ms");
    }
}
