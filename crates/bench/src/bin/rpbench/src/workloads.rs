//! The four workloads: a seeded input stream, the system under test set up
//! the way a user would set it up, and an oracle that does not share code
//! with what it checks.

use crate::stats::{splitmix64, Digest};
use probzelus::core::infer::{Infer, MemoryStats, Method, ResampleStats};
use probzelus::core::{Model, Posterior, Value};
use probzelus::lang::{compile_source_opt, ExecBackend, Instance, MufEngine, MufValue, Options};
use probzelus::models::{generate_kalman, Kalman, KalmanOracle};
use probzelus::robot::{RobotPhysics, SensorReadings};
use std::rc::Rc;

/// `examples/zelus/hmm.zl`, the paper's §2.2 HMM.
pub const HMM_SRC: &str = include_str!("../../../../../../examples/zelus/hmm.zl");
/// `examples/zelus/robot.zl`, the paper's Fig. 5 robot.
pub const ROBOT_SRC: &str = include_str!("../../../../../../examples/zelus/robot.zl");

/// Particles of every engine the benchmark builds; `robot.zl` hard-codes
/// the same count in its `infer 100`.
pub const PARTICLES: usize = 100;
/// Leading ticks of each robot run replayed on the interpreter, which must
/// reproduce the tape's outputs bit for bit.
pub const REPLAY_TICKS: usize = 200;
/// Relative tolerance of the Kalman oracle (absolute below magnitude 1).
pub const KALMAN_TOL: f64 = 1e-9;
/// GPS fix period of the simulated robot, in ticks.
const GPS_EVERY: usize = 4;
/// Ticks each generated command of `robot-dsl-pf` is held for.
const CMD_HOLD: u64 = 50;
/// `robot.zl`'s target position, and how close the closed loop must end.
const TARGET: f64 = 4.0;
const TARGET_BAND: f64 = 0.5;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Native Kalman model under SDS: engine, graph and densities only.
    HmmNative,
    /// The same probabilistic work compiled from `hmm.zl` onto the tape.
    HmmDsl,
    /// `gps_acc_tracker` under PF on the tape: dominated by tape execution.
    RobotDslPf,
    /// Fig. 5's `robot` driver in the loop, paced open-loop.
    RobotLoopRt,
}

/// How a workload's timed ticks are driven.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// The next tick starts when the previous one ends.
    Closed {
        /// Upper bound on the tick rate, which sizes the input stream.
        max_rate: f64,
    },
    /// Inputs fall due on a fixed schedule whatever the system does.
    Open {
        /// Input period, which is also each tick's deadline, in ms.
        period_ms: f64,
    },
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::HmmNative,
        Workload::HmmDsl,
        Workload::RobotDslPf,
        Workload::RobotLoopRt,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HmmNative => "hmm-native",
            Workload::HmmDsl => "hmm-dsl",
            Workload::RobotDslPf => "robot-dsl-pf",
            Workload::RobotLoopRt => "robot-loop-rt",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Untimed ticks after the set-up tick, about 1% of a run at seed
    /// speed (at least 50): caches fill and lazy set-up ends.
    pub fn warmup(self) -> usize {
        match self {
            Workload::HmmNative => 3_000,
            Workload::HmmDsl => 600,
            Workload::RobotDslPf | Workload::RobotLoopRt => 50,
        }
    }

    /// Leading timed ticks whose allocations and outputs are counted, so
    /// those counts repeat exactly for a seed however long the run is.
    pub fn window(self) -> usize {
        match self {
            Workload::HmmNative => 20_000,
            Workload::HmmDsl => 4_000,
            Workload::RobotDslPf | Workload::RobotLoopRt => 500,
        }
    }

    /// How the timed ticks are driven.
    pub fn load(self) -> Load {
        match self {
            Workload::HmmNative => Load::Closed { max_rate: 80_000.0 },
            Workload::HmmDsl => Load::Closed { max_rate: 20_000.0 },
            Workload::RobotDslPf => Load::Closed { max_rate: 2_500.0 },
            // About 40% utilisation at a 3.2 ms mean service time, so a
            // stretch of interference on a shared core does not turn into
            // an unbounded backlog.
            Workload::RobotLoopRt => Load::Open { period_ms: 8.0 },
        }
    }
}

/// The engine seed: derived from `--seed`, distinct from the data seed so
/// neither masks the other.
pub fn engine_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0x7270_6265_6e63_6800)
}

/// A workload's generated inputs: the stream its workload reads, the
/// other left empty. `robot-loop-rt` reads neither; its inputs depend on
/// its own last command and are generated tick by tick.
pub struct Inputs {
    /// The `--seed` everything derives from.
    pub seed: u64,
    /// Ticks folded into the digests (set-up, warm-up and counted window).
    pub digest_ticks: usize,
    kalman: Rc<[f64]>,
    robot: Rc<[Value]>,
}

impl Inputs {
    /// Generates `ticks` inputs of workload `w` from `seed`.
    pub fn generate(w: Workload, seed: u64, ticks: usize, digest_ticks: usize) -> Inputs {
        let mut inputs = Inputs {
            seed,
            digest_ticks,
            kalman: Rc::new([]),
            robot: Rc::new([]),
        };
        match w {
            Workload::HmmNative | Workload::HmmDsl => {
                inputs.kalman = generate_kalman(seed, ticks).obs.into();
            }
            Workload::RobotDslPf => inputs.robot = robot_inputs(seed, ticks).into(),
            Workload::RobotLoopRt => {}
        }
        inputs
    }
}

/// The `(a_obs, (has_gps, (p_obs, cmd)))` input of `robot.zl`'s nodes.
fn robot_value(s: SensorReadings, cmd: f64) -> Value {
    Value::pair(
        Value::Float(s.a_obs),
        Value::pair(
            Value::Bool(s.gps.is_some()),
            Value::pair(Value::Float(s.gps.unwrap_or(0.0)), Value::Float(cmd)),
        ),
    )
}

/// `RobotPhysics` driven by a seeded piecewise-constant command: every
/// `CMD_HOLD` ticks a uniform draw in [-1, 1] plus a weak pull toward the
/// origin, so the trajectory stays bounded over long runs.
fn robot_inputs(seed: u64, ticks: usize) -> Vec<Value> {
    let mut physics = RobotPhysics::new(seed, GPS_EVERY);
    let cmd_seed = splitmix64(seed ^ 0x636d_6473);
    let mut cmd = 0.0;
    (0..ticks as u64)
        .map(|t| {
            if t % CMD_HOLD == 0 {
                let u = (splitmix64(cmd_seed.wrapping_add(t)) >> 11) as f64 / (1u64 << 53) as f64;
                cmd = (2.0 * u - 1.0 - 0.2 * physics.velocity() - 0.05 * physics.position())
                    .clamp(-2.0, 2.0);
            }
            robot_value(physics.step(cmd), cmd)
        })
        .collect()
}

/// Folds the float and boolean leaves of a robot input into a digest.
fn digest_value(d: &mut Digest, v: &Value) {
    match v {
        Value::Float(x) => d.float(*x),
        Value::Bool(b) => d.word(u64::from(*b)),
        Value::Pair(a, b) => {
            digest_value(d, a);
            digest_value(d, b);
        }
        _ => {}
    }
}

/// Input and output digests over a run's leading ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digests {
    /// Digest of the inputs fed to the system.
    pub inputs: Digest,
    /// Digest of the outputs (posterior moments, commands) it returned.
    pub outputs: Digest,
}

/// One workload's system under test, driven tick by tick. The engine
/// statistics are read by the traced run only.
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub trait Driver {
    /// Builds tick `k`'s input (untimed).
    fn prepare(&mut self, k: usize);
    /// Steps the system on the prepared input: the timed call.
    fn step(&mut self) -> Result<(), String>;
    /// Checks tick `k`'s output against the oracle and folds the tick into
    /// the digests (untimed).
    fn check(&mut self, k: usize) -> Result<(), String>;
    /// End-of-run checks.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Digests of the ticks folded so far.
    fn digests(&self) -> Digests;
    /// Cumulative resampling work, where the engine exposes it.
    fn resample_stats(&self) -> Option<ResampleStats> {
        None
    }
    /// Delayed-sampling graph memory, where the engine exposes it.
    fn memory(&self) -> Option<MemoryStats> {
        None
    }
    /// Bytes held by the tape's register file, on tape engines.
    fn tape_scratch_bytes(&self) -> Option<usize> {
        None
    }
}

/// Engine options: method and backend, the engine seed derived from
/// `seed`, every other knob at its default.
pub fn options(method: Method, backend: ExecBackend, seed: u64) -> Options {
    Options {
        method,
        seed: engine_seed(seed),
        backend,
    }
}

fn infer_node(src: &str, node: &str, opts: Options) -> Result<MufEngine, String> {
    compile_source_opt(src)
        .and_then(|c| c.infer_node(node, PARTICLES, opts))
        .map_err(|e| format!("{node}: {e}"))
}

fn robot_instance(opts: Options) -> Result<Instance, String> {
    compile_source_opt(ROBOT_SRC)
        .and_then(|c| c.instantiate("robot", opts))
        .map_err(|e| format!("robot: {e}"))
}

/// Sets workload `w` up from scratch and runs its first tick: the work
/// `setup_s` times.
pub fn setup(w: Workload, inputs: &Inputs) -> Result<Box<dyn Driver>, String> {
    let seed = inputs.seed;
    let mut d: Box<dyn Driver> = match w {
        Workload::HmmNative => Box::new(Hmm::new(
            inputs,
            Infer::with_seed(
                Method::StreamingDs,
                PARTICLES,
                Kalman::default(),
                engine_seed(seed),
            ),
        )),
        Workload::HmmDsl => Box::new(Hmm::new(
            inputs,
            infer_node(
                HMM_SRC,
                "hmm",
                options(Method::StreamingDs, ExecBackend::Tape, seed),
            )?,
        )),
        Workload::RobotDslPf => Box::new(RobotPf::new(
            inputs,
            infer_node(
                ROBOT_SRC,
                "gps_acc_tracker",
                options(Method::ParticleFilter, ExecBackend::Tape, seed),
            )?,
        )),
        Workload::RobotLoopRt => Box::new(RobotLoop::new(
            inputs,
            robot_instance(options(Method::StreamingDs, ExecBackend::Tape, seed))?,
        )),
    };
    d.prepare(0);
    d.step()?;
    Ok(d)
}

/// Checks one posterior's `(mean, variance)` against the closed-form
/// Kalman filter after observation `y`.
pub fn kalman_check(got: (f64, f64), oracle: &mut KalmanOracle, y: f64) -> Result<(), String> {
    let (mean, var) = oracle.step(y);
    let close = |got: f64, want: f64| (got - want).abs() <= KALMAN_TOL * want.abs().max(1.0);
    let (got_mean, got_var) = got;
    if close(got_mean, mean) && close(got_var, var) {
        Ok(())
    } else {
        Err(format!(
            "posterior ({got_mean}, {got_var}) differs from the Kalman filter ({mean}, {var})"
        ))
    }
}

/// An engine over the Kalman observation stream.
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub trait HmmEngine {
    /// One inference step on observation `y`.
    fn step_y(&mut self, y: f64) -> Result<Posterior, String>;
    /// Cumulative resampling work.
    fn resample_stats(&self) -> ResampleStats;
    /// Graph memory.
    fn memory(&self) -> MemoryStats;
    /// Tape register-file bytes (tape engines only).
    fn tape_scratch_bytes(&self) -> Option<usize> {
        None
    }
}

impl<M: Model<Input = f64>> HmmEngine for Infer<M> {
    fn step_y(&mut self, y: f64) -> Result<Posterior, String> {
        self.step(&y).map_err(|e| e.to_string())
    }
    fn resample_stats(&self) -> ResampleStats {
        Infer::resample_stats(self)
    }
    fn memory(&self) -> MemoryStats {
        Infer::memory(self)
    }
}

impl HmmEngine for MufEngine {
    fn step_y(&mut self, y: f64) -> Result<Posterior, String> {
        self.step(&Value::Float(y)).map_err(|e| e.to_string())
    }
    fn resample_stats(&self) -> ResampleStats {
        MufEngine::resample_stats(self)
    }
    fn memory(&self) -> MemoryStats {
        MufEngine::memory(self)
    }
    fn tape_scratch_bytes(&self) -> Option<usize> {
        MufEngine::tape_scratch_bytes(self)
    }
}

/// `hmm-native` and `hmm-dsl`: every posterior is checked against the
/// closed-form Kalman filter.
pub struct Hmm<E> {
    ys: Rc<[f64]>,
    engine: E,
    k: usize,
    post: Option<Posterior>,
    oracle: KalmanOracle,
    digests: Digests,
    digest_ticks: usize,
}

impl<E: HmmEngine> Hmm<E> {
    /// Drives `engine` over the Kalman stream of `inputs`.
    pub fn new(inputs: &Inputs, engine: E) -> Hmm<E> {
        Hmm {
            ys: inputs.kalman.clone(),
            engine,
            k: 0,
            post: None,
            oracle: KalmanOracle::new(),
            digests: Digests::default(),
            digest_ticks: inputs.digest_ticks,
        }
    }
}

impl<E: HmmEngine> Driver for Hmm<E> {
    fn prepare(&mut self, k: usize) {
        self.k = k;
    }

    fn step(&mut self) -> Result<(), String> {
        self.post = Some(self.engine.step_y(self.ys[self.k])?);
        Ok(())
    }

    fn check(&mut self, k: usize) -> Result<(), String> {
        let post = self.post.take().ok_or("no posterior")?;
        let (y, moments) = (self.ys[k], (post.mean_float(), post.variance_float()));
        kalman_check(moments, &mut self.oracle, y).map_err(|e| format!("tick {k}: {e}"))?;
        if k < self.digest_ticks {
            self.digests.inputs.float(y);
            self.digests.outputs.float(moments.0);
            self.digests.outputs.float(moments.1);
        }
        Ok(())
    }

    fn digests(&self) -> Digests {
        self.digests
    }
    fn resample_stats(&self) -> Option<ResampleStats> {
        Some(self.engine.resample_stats())
    }
    fn memory(&self) -> Option<MemoryStats> {
        Some(self.engine.memory())
    }
    fn tape_scratch_bytes(&self) -> Option<usize> {
        self.engine.tape_scratch_bytes()
    }
}

/// `robot-dsl-pf`: the leading ticks are replayed on the interpreter after
/// the run and must match the tape bit for bit.
pub struct RobotPf {
    inputs: Rc<[Value]>,
    engine: MufEngine,
    seed: u64,
    k: usize,
    post: Option<Posterior>,
    log: Vec<(u64, u64)>,
    digests: Digests,
    digest_ticks: usize,
}

impl RobotPf {
    fn new(inputs: &Inputs, engine: MufEngine) -> RobotPf {
        RobotPf {
            inputs: inputs.robot.clone(),
            engine,
            seed: inputs.seed,
            k: 0,
            post: None,
            log: Vec::with_capacity(REPLAY_TICKS),
            digests: Digests::default(),
            digest_ticks: inputs.digest_ticks,
        }
    }
}

impl Driver for RobotPf {
    fn prepare(&mut self, k: usize) {
        self.k = k;
    }

    fn step(&mut self) -> Result<(), String> {
        let post = self.engine.step(&self.inputs[self.k]);
        self.post = Some(post.map_err(|e| e.to_string())?);
        Ok(())
    }

    fn check(&mut self, k: usize) -> Result<(), String> {
        let post = self.post.take().ok_or("no posterior")?;
        let moments = (post.mean_float(), post.variance_float());
        if !(moments.0.is_finite() && moments.1.is_finite()) {
            return Err(format!("tick {k}: non-finite posterior {moments:?}"));
        }
        if k < REPLAY_TICKS {
            self.log.push((moments.0.to_bits(), moments.1.to_bits()));
        }
        if k < self.digest_ticks {
            digest_value(&mut self.digests.inputs, &self.inputs[k]);
            self.digests.outputs.float(moments.0);
            self.digests.outputs.float(moments.1);
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        if let Some(Err(reason)) = self.engine.tape_status() {
            return Err(format!("the tape fell back to the interpreter: {reason}"));
        }
        let mut interp = infer_node(
            ROBOT_SRC,
            "gps_acc_tracker",
            options(Method::ParticleFilter, ExecBackend::Interp, self.seed),
        )?;
        for (k, &(mean, var)) in self.log.iter().enumerate() {
            let post = interp.step(&self.inputs[k]).map_err(|e| e.to_string())?;
            if (post.mean_float().to_bits(), post.variance_float().to_bits()) != (mean, var) {
                return Err(format!(
                    "tick {k}: interpreter replay differs from the tape"
                ));
            }
        }
        Ok(())
    }

    fn digests(&self) -> Digests {
        self.digests
    }
    fn resample_stats(&self) -> Option<ResampleStats> {
        Some(self.engine.resample_stats())
    }
    fn memory(&self) -> Option<MemoryStats> {
        Some(self.engine.memory())
    }
    fn tape_scratch_bytes(&self) -> Option<usize> {
        self.engine.tape_scratch_bytes()
    }
}

/// `robot-loop-rt`: Fig. 5's `robot` node closing the loop through the
/// simulated physics. The leading ticks are replayed on the interpreter
/// after the run, and the robot must end near its target.
pub struct RobotLoop {
    physics: RobotPhysics,
    instance: Instance,
    seed: u64,
    cmd: f64,
    input: Option<Value>,
    out: Option<MufValue>,
    log: Vec<(Value, u64, u64)>,
    digests: Digests,
    digest_ticks: usize,
}

impl RobotLoop {
    /// Drives `instance` (a `robot` node) against fresh physics.
    pub fn new(inputs: &Inputs, instance: Instance) -> RobotLoop {
        RobotLoop {
            physics: RobotPhysics::new(inputs.seed, GPS_EVERY),
            instance,
            seed: inputs.seed,
            cmd: 0.0,
            input: None,
            out: None,
            log: Vec::with_capacity(REPLAY_TICKS),
            digests: Digests::default(),
            digest_ticks: inputs.digest_ticks,
        }
    }
}

/// `robot`'s `(cmd, conf)` output.
fn robot_output(out: &MufValue) -> Result<(f64, f64), String> {
    let pair = out.as_core().map_err(|e| e.to_string())?;
    let (cmd, conf) = pair.as_pair().map_err(|e| e.to_string())?;
    match (cmd.as_float(), conf.as_float()) {
        (Ok(cmd), Ok(conf)) => Ok((cmd, conf)),
        _ => Err(format!("robot returned {pair:?}")),
    }
}

impl Driver for RobotLoop {
    fn prepare(&mut self, k: usize) {
        let input = robot_value(self.physics.step(self.cmd), self.cmd);
        if k < self.digest_ticks {
            digest_value(&mut self.digests.inputs, &input);
        }
        if k < REPLAY_TICKS {
            self.log.push((input.clone(), 0, 0));
        }
        self.input = Some(input);
    }

    fn step(&mut self) -> Result<(), String> {
        let input = self.input.take().ok_or("no input")?;
        self.out = Some(self.instance.step(input).map_err(|e| e.to_string())?);
        Ok(())
    }

    fn check(&mut self, k: usize) -> Result<(), String> {
        let out = self.out.take().ok_or("no output")?;
        let (cmd, conf) = robot_output(&out).map_err(|e| format!("tick {k}: {e}"))?;
        if !(cmd.abs() <= 5.0 && (0.0..=1.0 + 1e-9).contains(&conf)) {
            return Err(format!("tick {k}: implausible output ({cmd}, {conf})"));
        }
        self.cmd = cmd;
        if let Some(entry) = self.log.get_mut(k) {
            (entry.1, entry.2) = (cmd.to_bits(), conf.to_bits());
        }
        if k < self.digest_ticks {
            self.digests.outputs.float(cmd);
            self.digests.outputs.float(conf);
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        let pos = self.physics.position();
        if (pos - TARGET).abs() > TARGET_BAND {
            return Err(format!(
                "the robot ended at {pos}, outside {TARGET} ± {TARGET_BAND}"
            ));
        }
        let mut interp =
            robot_instance(options(Method::StreamingDs, ExecBackend::Interp, self.seed))?;
        for (k, (input, cmd, conf)) in self.log.iter().enumerate() {
            let out = interp.step(input.clone()).map_err(|e| e.to_string())?;
            let (c, p) = robot_output(&out)?;
            if (c.to_bits(), p.to_bits()) != (*cmd, *conf) {
                return Err(format!(
                    "tick {k}: interpreter replay differs from the tape"
                ));
            }
        }
        Ok(())
    }

    fn digests(&self) -> Digests {
        self.digests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kalman_check_trips_just_beyond_the_tolerance() {
        let mut oracle = KalmanOracle::new();
        let mut shadow = KalmanOracle::new();
        for y in [3.5, 2.75, 4.0] {
            let (mean, var) = shadow.step(y);
            assert!(mean.abs() > 1.0, "observations exercise the relative rule");
            let trips = |got: (f64, f64)| kalman_check(got, &mut oracle.clone(), y).is_err();
            assert!(trips((mean * (1.0 + 2.0 * KALMAN_TOL), var)));
            assert!(trips((mean, var + 2.0 * KALMAN_TOL)));
            assert!(trips((f64::NAN, var)));
            kalman_check((mean * (1.0 + 0.5 * KALMAN_TOL), var), &mut oracle, y)
                .expect("within tolerance");
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let digest = |seed| {
            let inputs = Inputs::generate(Workload::RobotDslPf, seed, 300, 300);
            let mut d = Digest::default();
            inputs.robot.iter().for_each(|v| digest_value(&mut d, v));
            d
        };
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
        let kalman = |seed| Inputs::generate(Workload::HmmDsl, seed, 50, 50).kalman;
        assert_eq!(kalman(5), kalman(5));
        assert_ne!(kalman(5), kalman(6));
    }
}
