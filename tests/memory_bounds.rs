//! The scope-and-limitations study of §5.3: which models run in bounded
//! memory under streaming delayed sampling, which genuinely cannot, and
//! how the paper's `value`-forcing idiom restores the bound.

use probzelus::core::infer::{Infer, Method};
use probzelus::core::model::Model;
use probzelus::core::prob::ProbCtx;
use probzelus::core::{DistExpr, RuntimeError, Value};

/// The `hmm_init` model of §5.3: like the HMM but the initial position is
/// drawn around an input and **kept referenced** through `init i = …`,
/// which pins the whole chain.
#[derive(Clone, Default)]
struct HmmInit {
    init_guess: Option<Value>,
    prev_x: Option<Value>,
}

impl Model for HmmInit {
    type Input = f64;

    fn step(&mut self, ctx: &mut dyn ProbCtx, y: &f64) -> Result<Value, RuntimeError> {
        if self.init_guess.is_none() {
            self.init_guess = Some(ctx.sample(&DistExpr::gaussian(0.0, 1.0))?);
        }
        let prior = match &self.prev_x {
            None => DistExpr::gaussian(self.init_guess.clone().expect("set above"), 1.0),
            Some(x) => DistExpr::gaussian(x.clone(), 1.0),
        };
        let x = ctx.sample(&prior)?;
        ctx.observe(&DistExpr::gaussian(x.clone(), 1.0), &Value::Float(*y))?;
        self.prev_x = Some(x.clone());
        Ok(x)
    }

    fn reset(&mut self) {
        *self = HmmInit::default();
    }

    fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
        if let Some(i) = &mut self.init_guess {
            f(i);
        }
        if let Some(x) = &mut self.prev_x {
            f(x);
        }
    }
}

/// The `walk` model of §5.3: a random walk that is never observed, so
/// nothing ever realizes the chain of initialized nodes.
#[derive(Clone, Default)]
struct Walk {
    force_window: bool,
    prev: Option<Value>,
    prev2: Option<Value>,
}

impl Model for Walk {
    type Input = ();

    fn step(&mut self, ctx: &mut dyn ProbCtx, _input: &()) -> Result<Value, RuntimeError> {
        let prior = match &self.prev {
            None => DistExpr::gaussian(0.0, 1.0),
            Some(x) => DistExpr::gaussian(x.clone(), 1.0),
        };
        let x = ctx.sample(&prior)?;
        if self.force_window {
            // §5.3: `value(0 -> pre (0 -> pre x))` — force the sample from
            // two instants ago to keep the chain finite without losing the
            // exactness of the current marginal.
            if let Some(old) = self.prev2.take() {
                ctx.force(&old)?;
            }
            self.prev2 = self.prev.clone();
        }
        self.prev = Some(x.clone());
        Ok(x)
    }

    fn reset(&mut self) {
        let fw = self.force_window;
        *self = Walk {
            force_window: fw,
            ..Walk::default()
        };
    }

    fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
        if let Some(x) = &mut self.prev {
            f(x);
        }
        if let Some(x) = &mut self.prev2 {
            f(x);
        }
    }
}

fn peak_live_nodes<M: Model>(model: M, inputs: &[M::Input], particles: usize) -> usize {
    let mut engine = Infer::with_seed(Method::StreamingDs, particles, model, 0);
    let mut peak = 0;
    for i in inputs {
        engine.step(i).unwrap();
        peak = peak.max(engine.memory().live_nodes);
    }
    peak
}

#[test]
fn hmm_init_chain_grows_without_bound() {
    // "unbounded chains can still be formed if the program keeps a
    // reference to a constant variable that is never realized" (§5.3).
    let obs: Vec<f64> = (0..100).map(|t| t as f64 * 0.01).collect();
    let peak = peak_live_nodes(HmmInit::default(), &obs, 1);
    assert!(peak >= 100, "expected unbounded growth, peak {peak}");
}

#[test]
fn plain_hmm_stays_bounded() {
    let obs: Vec<f64> = (0..100).map(|t| t as f64 * 0.01).collect();
    let peak = peak_live_nodes(probzelus::models::Kalman::default(), &obs, 1);
    assert!(peak <= 3, "peak {peak}");
}

#[test]
fn walk_without_forcing_grows() {
    // "it is thus possible to form unbounded chains of initialized nodes"
    // (§5.3).
    let inputs = vec![(); 100];
    let peak = peak_live_nodes(Walk::default(), &inputs, 1);
    assert!(peak >= 100, "peak {peak}");
}

#[test]
fn walk_with_value_forcing_is_bounded_and_stays_exact() {
    let inputs = vec![(); 200];
    let peak = peak_live_nodes(
        Walk {
            force_window: true,
            ..Walk::default()
        },
        &inputs,
        1,
    );
    assert!(peak <= 4, "peak {peak}");

    // Exactness of the reported marginal: at step t the walk's position
    // has marginal N(realized anchor, k) where k counts the unforced
    // steps; its variance grows by 1 per step from the last realization,
    // so it is always in {1, 2}.
    let mut engine = Infer::with_seed(
        Method::StreamingDs,
        1,
        Walk {
            force_window: true,
            ..Walk::default()
        },
        3,
    );
    for t in 0..50 {
        let post = engine.step(&()).unwrap();
        let var = post.variance_float();
        if t == 0 {
            assert!((var - 1.0).abs() < 1e-9);
        } else {
            assert!(
                (1.0..=2.0 + 1e-9).contains(&var),
                "step {t}: variance {var}"
            );
        }
    }
}

#[test]
fn bds_bounds_everything_by_construction() {
    // Bounded delayed sampling realizes at each instant, so even the
    // pathological models stay at zero retained nodes between steps.
    let obs: Vec<f64> = (0..100).map(|t| t as f64 * 0.01).collect();
    let mut engine = Infer::with_seed(Method::BoundedDs, 5, HmmInit::default(), 0);
    for y in &obs {
        engine.step(y).unwrap();
        assert_eq!(engine.memory().live_nodes, 0);
    }
}

#[test]
fn sds_stays_flat_while_classic_ds_grows_under_parallel_stepping() {
    // The GC and retention behavior must be oblivious to the execution
    // mode: stepped over a worker pool, pointer-minimal SDS keeps a flat
    // live-node count per particle while the retain-all ClassicDs
    // baseline grows linearly with time.
    use probzelus::core::infer::Parallelism;

    let obs: Vec<f64> = (0..120).map(|t| (t as f64 * 0.05).cos()).collect();
    let particles = 8;
    let run = |method: Method| {
        let mut engine =
            Infer::with_seed(method, particles, probzelus::models::Kalman::default(), 0)
                .with_parallelism(Parallelism::Threads(4));
        let mut live_at = Vec::new();
        for y in &obs {
            engine.step(y).unwrap();
            live_at.push(engine.memory().live_nodes);
        }
        live_at
    };

    let sds = run(Method::StreamingDs);
    let ds = run(Method::ClassicDs);

    let sds_peak = *sds.iter().max().unwrap();
    assert!(
        sds_peak <= 3 * particles,
        "SDS live nodes not flat under parallel stepping: peak {sds_peak}"
    );

    // ClassicDs retains every node: at step t each particle has created
    // at least t nodes, none reclaimed.
    let (early, late) = (ds[9], ds[119]);
    assert!(
        late >= early + 100 * particles,
        "ClassicDs failed to grow linearly: {early} -> {late}"
    );
    assert!(
        ds.windows(2).all(|w| w[1] >= w[0]),
        "ClassicDs live-node count decreased"
    );
}

/// The slab-capacity witness: under pointer-minimal retention the node
/// slab's *capacity* — live plus recyclable slots, not just the live
/// count — stays flat over 10k ticks, because after warm-up every
/// allocation recycles a slot the mark-and-sweep collector returned to
/// the free list. A monotonically growing slab with a flat live count
/// would still be a leak; this pins it down.
#[test]
fn slab_capacity_flat_over_10k_ticks_under_pointer_minimal() {
    const TICKS: usize = 10_000;
    let mut engine = Infer::with_seed(
        Method::StreamingDs,
        1,
        probzelus::models::Kalman::default(),
        0,
    );
    let mut warmed = None;
    for t in 0..TICKS {
        engine.step(&(t as f64 * 0.01).sin()).unwrap();
        let gs = engine.graph_stats();
        if t == 99 {
            warmed = Some(gs.capacity);
        }
        if let Some(cap) = warmed {
            assert!(
                gs.capacity <= cap,
                "slab capacity grew after warm-up: {cap} -> {} at tick {t}",
                gs.capacity
            );
        }
    }
    let gs = engine.graph_stats();
    assert!(gs.capacity <= 8, "slab capacity {}", gs.capacity);
    assert!(
        gs.slots_reused as usize >= TICKS - gs.capacity,
        "slot reuse not happening: {} reuses for {} creations",
        gs.slots_reused,
        gs.total_created
    );
}

/// The same capacity metric still grows without bound under retain-all —
/// the counterpart that keeps the witness above honest.
#[test]
fn slab_capacity_still_grows_under_retain_all() {
    const TICKS: usize = 2_000;
    let mut engine = Infer::with_seed(
        Method::ClassicDs,
        1,
        probzelus::models::Kalman::default(),
        0,
    );
    let mut caps = Vec::with_capacity(TICKS);
    for t in 0..TICKS {
        engine.step(&(t as f64 * 0.01).sin()).unwrap();
        caps.push(engine.graph_stats().capacity);
    }
    assert!(
        caps[TICKS - 1] >= caps[9] + (TICKS - 100),
        "retain-all slab failed to grow: {} -> {}",
        caps[9],
        caps[TICKS - 1]
    );
    assert!(
        caps.windows(2).all(|w| w[1] >= w[0]),
        "retain-all slab capacity decreased"
    );
    // Retain-all still sweeps *realized* nodes (the per-tick observation),
    // so at most one slot is recycled per tick — the unrealized chain,
    // which is what grows, never hands its slots back.
    assert!(engine.graph_stats().slots_reused <= TICKS as u64);
}

/// The engine-side scratch (weights, ancestors, offspring, retired
/// particle buffer) reaches a fixed footprint within a few ticks and
/// never grows again: the steady-state step loop is allocation-free.
#[test]
fn step_scratch_plateaus_after_warmup() {
    let mut engine = Infer::with_seed(
        Method::ParticleFilter,
        64,
        probzelus::models::Kalman::default(),
        0,
    );
    for t in 0..5 {
        engine.step(&(t as f64 * 0.01).sin()).unwrap();
    }
    let warm = engine.scratch_bytes();
    assert!(warm > 0, "scratch never warmed up");
    for t in 5..300 {
        engine.step(&(t as f64 * 0.01).sin()).unwrap();
        assert_eq!(
            engine.scratch_bytes(),
            warm,
            "scratch footprint changed at tick {t}"
        );
    }
    // A clone starts with the same reservations (capacity hints carry
    // over), so its first step allocates nothing either.
    let clone = engine.clone();
    assert_eq!(clone.scratch_bytes(), warm);
}

/// §6 / Fig. 15, witnessed through the telemetry subsystem: the graph
/// gauges an attached sink receives *are* the bounded-memory evidence,
/// so the claim can be audited from an export alone, without access to
/// the engine.
mod obs_witness {
    use probzelus::core::infer::{Infer, Method};
    use probzelus::core::obs::{names, MemorySink, Obs, WriterSink};
    use std::sync::Arc;

    /// Extracts `"key":<number>` from a JSONL line.
    fn field_num(line: &str, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\":");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }

    /// The `(tick, value)` series of one metric in a JSONL export.
    fn series(text: &str, typ: &str, name: &str) -> Vec<(u64, f64)> {
        let typ_pat = format!("\"type\":\"{typ}\"");
        let name_pat = format!("\"name\":\"{name}\"");
        text.lines()
            .filter(|l| l.contains(&typ_pat) && l.contains(&name_pat))
            .map(|l| {
                let tick = field_num(l, "tick").expect("line has a tick") as u64;
                let value = field_num(l, "value").expect("line has a numeric value");
                (tick, value)
            })
            .collect()
    }

    #[test]
    fn sds_writer_export_witnesses_bounded_memory_over_10k_ticks() {
        const TICKS: usize = 10_000;
        let path = std::env::temp_dir().join("pz_memory_bounds_sds_10k.jsonl");
        let obs = Obs::to(Arc::new(
            WriterSink::create(&path).expect("temp dir is writable"),
        ));
        let mut engine = Infer::with_seed(
            Method::StreamingDs,
            1,
            probzelus::models::Kalman::default(),
            0,
        )
        .with_obs(obs.clone());
        for t in 0..TICKS {
            engine.step(&(t as f64 * 0.01).sin()).unwrap();
        }
        obs.flush().expect("flush succeeds");
        drop(engine);

        let text = std::fs::read_to_string(&path).expect("export exists");
        std::fs::remove_file(&path).ok();

        // Per-tick ESS and tick latency: one sample per step, every step.
        let ess = series(&text, "gauge", names::STEP_ESS);
        assert_eq!(ess.len(), TICKS, "one ESS gauge per tick");
        let latency = series(&text, "histogram", names::STEP_LATENCY_MS);
        assert_eq!(latency.len(), TICKS, "one latency sample per tick");
        assert!(latency.iter().all(|&(_, v)| v.is_finite() && v >= 0.0));

        // The bounded-memory witness: node and edge gauges never grow.
        // Pointer-minimal SDS keeps the Kalman chain at <= 3 live nodes
        // per particle whether at tick 10 or tick 10 000.
        let nodes = series(&text, "gauge", names::DS_LIVE_NODES);
        assert_eq!(nodes.len(), TICKS, "one live-node gauge per tick");
        assert!(
            nodes.iter().zip(0u64..).all(|(&(t, _), i)| t == i),
            "ticks are contiguous from 0"
        );
        let peak = nodes.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        assert!(
            peak <= 3.0,
            "SDS live nodes not flat over 10k ticks: peak {peak}"
        );
        assert_eq!(
            nodes.first().expect("non-empty").1,
            nodes.last().expect("non-empty").1,
            "live-node count drifted between first and last tick"
        );
        let edge_peak = series(&text, "gauge", names::DS_LIVE_EDGES)
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max);
        assert!(
            edge_peak <= 3.0,
            "SDS live edges not flat: peak {edge_peak}"
        );
    }

    #[test]
    fn classic_ds_gauges_grow_where_sds_stays_flat() {
        let run = |method: Method, ticks: usize| {
            let sink = Arc::new(MemorySink::new());
            let mut engine = Infer::with_seed(method, 1, probzelus::models::Kalman::default(), 0)
                .with_obs(Obs::to(sink.clone()));
            for t in 0..ticks {
                engine.step(&(t as f64 * 0.01).sin()).unwrap();
            }
            sink.gauge_series(names::DS_LIVE_NODES)
        };

        // Retain-all classic DS: the gauge records one extra node per tick.
        let ds = run(Method::ClassicDs, 2_000);
        assert_eq!(ds.len(), 2_000);
        let (first, last) = (ds[0].1, ds[1_999].1);
        assert!(
            last >= first + 1_900.0,
            "ClassicDs gauge failed to grow: {first} -> {last}"
        );
        assert!(
            ds.windows(2).all(|w| w[1].1 >= w[0].1),
            "ClassicDs live-node gauge decreased"
        );

        // Same model, same sink, SDS: flat.
        let sds = run(Method::StreamingDs, 2_000);
        let peak = sds.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        assert!(peak <= 3.0, "SDS gauge not flat: peak {peak}");
    }
}
