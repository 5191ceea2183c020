//! The robot of Fig. 5: inference-in-the-loop control.
//!
//! A robot with an accelerometer and an intermittent GPS estimates its
//! position by double-integrating a latent acceleration and conditioning on
//! both sensors; a deterministic controller turns the inferred position
//! distribution into acceleration commands, and those commands feed back
//! into the probabilistic model (`pre cmd` is the mean of the acceleration
//! prior). A two-state automaton (`Go` → `Task`) switches behaviour once
//! `P(p ∈ [target ± ε]) > 0.9`.
//!
//! The paper runs this against a simulated environment; [`RobotPhysics`]
//! is that environment: ground-truth double-integrator dynamics with noisy
//! accelerometer readings every step and a GPS fix every `gps_every`
//! steps.
//!
//! Per §5.3, the model realizes the acceleration from two instants ago
//! (the paper's `value`-forcing idiom, `value (0. -> pre (0. -> pre a))`
//! in `examples/zelus/robot.zl`), so the delayed-sampling graph stays
//! bounded while the accelerometer and GPS updates remain exact.

use crate::models::MseTracker;
use probzelus_core::error::RuntimeError;
use probzelus_core::infer::{Infer, Method};
use probzelus_core::model::Model;
use probzelus_core::ops;
use probzelus_core::prob::ProbCtx;
use probzelus_core::value::{DistExpr, Value};
use probzelus_core::Posterior;
use probzelus_distributions::{Distribution, Gaussian};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Integration step (seconds).
pub const H: f64 = 0.1;
/// Variance of the actual acceleration around the previous command.
pub const A_VAR: f64 = 0.2;
/// Accelerometer noise variance.
pub const A_NOISE: f64 = 0.05;
/// GPS noise variance.
pub const P_NOISE: f64 = 0.01;

/// One step of sensor readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReadings {
    /// Accelerometer reading (every step).
    pub a_obs: f64,
    /// GPS fix, when the GPS ticked this step.
    pub gps: Option<f64>,
}

/// Ground-truth double-integrator dynamics with sensor simulation — the
/// substitute for the physical robot the paper's example assumes.
#[derive(Debug, Clone)]
pub struct RobotPhysics {
    pos: f64,
    vel: f64,
    gps_every: usize,
    t: usize,
    rng: SmallRng,
}

impl RobotPhysics {
    /// Creates the environment; the GPS produces a fix every `gps_every`
    /// steps (the first at step `gps_every`).
    pub fn new(seed: u64, gps_every: usize) -> Self {
        RobotPhysics {
            pos: 0.0,
            vel: 0.0,
            gps_every: gps_every.max(1),
            t: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Applies one commanded acceleration and returns the sensors.
    pub fn step(&mut self, cmd: f64) -> SensorReadings {
        self.t += 1;
        let accel = Gaussian::new(cmd, A_VAR)
            .expect("valid parameters")
            .sample(&mut self.rng);
        // Same backward-Euler discretization as the tracker node.
        self.vel += accel * H;
        self.pos += self.vel * H;
        let a_obs = Gaussian::new(accel, A_NOISE)
            .expect("valid parameters")
            .sample(&mut self.rng);
        let gps = self.t.is_multiple_of(self.gps_every).then(|| {
            Gaussian::new(self.pos, P_NOISE)
                .expect("valid parameters")
                .sample(&mut self.rng)
        });
        SensorReadings { a_obs, gps }
    }

    /// True position (for evaluation only — the controller never sees it).
    pub fn position(&self) -> f64 {
        self.pos
    }

    /// True velocity.
    pub fn velocity(&self) -> f64 {
        self.vel
    }
}

/// Input of the probabilistic tracker: sensors plus the command the
/// controller issued at the previous step (the feedback loop of Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerInput {
    /// Accelerometer reading.
    pub a_obs: f64,
    /// GPS fix, if any.
    pub gps: Option<f64>,
    /// Previous command (`pre cmd`).
    pub cmd: f64,
}

/// The `gps_acc_tracker` node of Fig. 5 as an embedded model: the same
/// model as `examples/zelus/robot.zl`'s, step for step.
#[derive(Debug, Clone)]
pub struct GpsAccTracker {
    first: bool,
    /// The acceleration of the previous instant (`pre a`).
    a1: Value,
    /// The acceleration of two instants ago (`pre (pre a)`).
    a2: Value,
    v: Value,
    p: Value,
}

impl Default for GpsAccTracker {
    fn default() -> Self {
        GpsAccTracker {
            first: true,
            a1: Value::Float(0.0),
            a2: Value::Float(0.0),
            v: Value::Float(0.0),
            p: Value::Float(0.0),
        }
    }
}

impl Model for GpsAccTracker {
    type Input = TrackerInput;

    fn step(&mut self, ctx: &mut dyn ProbCtx, input: &TrackerInput) -> Result<Value, RuntimeError> {
        // a = zero -> sample (gaussian (pre cmd, a_var))
        let a = if self.first {
            Value::Float(0.0)
        } else {
            ctx.sample(&DistExpr::gaussian(input.cmd, A_VAR))?
        };
        // () = observe (gaussian (a, a_noise), a_obs)
        ctx.observe(
            &DistExpr::gaussian(a.clone(), A_NOISE),
            &Value::Float(input.a_obs),
        )?;
        // (p, v) = tracker(a): v = integr(zero, a); p = integr(zero, v)
        let (v, p) = if self.first {
            (Value::Float(0.0), Value::Float(0.0))
        } else {
            let v = ops::add(&self.v, &ops::mul(&a, &Value::Float(H))?)?;
            let p = ops::add(&self.p, &ops::mul(&v, &Value::Float(H))?)?;
            (v, p)
        };
        // () = value (0. -> pre (0. -> pre a)): the bounded-memory
        // discipline (§5.3) realizes the acceleration of two instants ago.
        ctx.force(&self.a2)?;
        // present gps(p_obs) -> observe (gaussian (p, p_noise), p_obs)
        if let Some(p_obs) = input.gps {
            ctx.observe(
                &DistExpr::gaussian(p.clone(), P_NOISE),
                &Value::Float(p_obs),
            )?;
        }
        // The engine compacts the state after the step.
        self.a2 = std::mem::replace(&mut self.a1, a);
        self.v = v;
        self.p = p.clone();
        self.first = false;
        Ok(p)
    }

    fn reset(&mut self) {
        *self = GpsAccTracker::default();
    }

    // The DSL's state order: the accelerations first, then the
    // integrators, so BDS forces them in the same order.
    fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
        f(&mut self.a1);
        f(&mut self.a2);
        f(&mut self.v);
        f(&mut self.p);
    }
}

/// The deterministic `controller` node: a PD law on the inferred position
/// (velocity estimated by differencing posterior means).
#[derive(Debug, Clone)]
pub struct Controller {
    /// Target position.
    pub target: f64,
    kp: f64,
    kd: f64,
    prev_est: Option<f64>,
    max_cmd: f64,
}

impl Controller {
    /// A critically-damped PD controller toward `target`.
    pub fn new(target: f64) -> Self {
        Controller {
            target,
            kp: 1.44,
            kd: 2.4,
            prev_est: None,
            max_cmd: 5.0,
        }
    }

    /// Computes the next acceleration command from the position posterior.
    pub fn step(&mut self, p_dist: &Posterior) -> f64 {
        let est = p_dist.mean_float();
        let vel_est = match self.prev_est {
            Some(prev) => (est - prev) / H,
            None => 0.0,
        };
        self.prev_est = Some(est);
        (self.kp * (self.target - est) - self.kd * vel_est).clamp(-self.max_cmd, self.max_cmd)
    }
}

/// The `robot` node of Fig. 5: inference and control in feedback.
pub struct Robot {
    engine: Infer<GpsAccTracker>,
    controller: Controller,
    cmd: f64,
}

impl Robot {
    /// Builds the robot with `particles` particles seeking `target`.
    pub fn new(method: Method, particles: usize, target: f64, seed: u64) -> Self {
        Robot {
            engine: Infer::with_seed(method, particles, GpsAccTracker::default(), seed),
            controller: Controller::new(target),
            cmd: 0.0,
        }
    }

    /// Attaches a telemetry handle to the tracking engine (per-tick ESS,
    /// latency, and delayed-sampling graph gauges).
    pub fn with_obs(mut self, obs: probzelus_core::obs::Obs) -> Self {
        self.engine.set_obs(obs);
        self
    }

    /// One closed-loop step: infer from sensors, then control.
    ///
    /// # Errors
    ///
    /// Propagates inference errors.
    pub fn step(&mut self, sensors: SensorReadings) -> Result<(f64, Posterior), RuntimeError> {
        let input = TrackerInput {
            a_obs: sensors.a_obs,
            gps: sensors.gps,
            cmd: self.cmd,
        };
        let posterior = self.engine.step(&input)?;
        self.cmd = self.controller.step(&posterior);
        Ok((self.cmd, posterior))
    }

    /// Aggregate delayed-sampling memory statistics.
    pub fn memory(&self) -> probzelus_core::MemoryStats {
        self.engine.memory()
    }
}

/// Automaton mode of [`TaskBot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BotMode {
    /// Seeking the target under the `robot` controller.
    Go,
    /// At the target; commands come from the task controller.
    Task,
}

/// The `task_bot` node of Fig. 5: `Go` until
/// `probability(p_dist, target, eps) > 0.9`, then `Task`.
pub struct TaskBot {
    robot: Robot,
    mode: BotMode,
    target: f64,
    eps: f64,
}

impl TaskBot {
    /// Builds the automaton around a robot.
    pub fn new(method: Method, particles: usize, target: f64, eps: f64, seed: u64) -> Self {
        TaskBot {
            robot: Robot::new(method, particles, target, seed),
            mode: BotMode::Go,
            target,
            eps,
        }
    }

    /// Attaches a telemetry handle to the underlying robot's engine.
    pub fn with_obs(mut self, obs: probzelus_core::obs::Obs) -> Self {
        self.robot = self.robot.with_obs(obs);
        self
    }

    /// Current automaton mode.
    pub fn mode(&self) -> BotMode {
        self.mode
    }

    /// One step; in `Task` mode the task controller holds position
    /// (zero command) and inference stops, as in the paper's automaton.
    ///
    /// # Errors
    ///
    /// Propagates inference errors.
    pub fn step(&mut self, sensors: SensorReadings) -> Result<f64, RuntimeError> {
        match self.mode {
            BotMode::Go => {
                let (cmd, p_dist) = self.robot.step(sensors)?;
                let p_at_target =
                    p_dist.prob_interval(self.target - self.eps, self.target + self.eps);
                if p_at_target > 0.9 {
                    self.mode = BotMode::Task;
                }
                Ok(cmd)
            }
            BotMode::Task => Ok(0.0),
        }
    }
}

/// Runs the full closed loop for `steps` steps and reports the tracking
/// MSE and whether/when the automaton switched to `Task`.
///
/// # Errors
///
/// Propagates inference errors.
pub fn run_mission(
    method: Method,
    particles: usize,
    target: f64,
    steps: usize,
    seed: u64,
) -> Result<MissionReport, RuntimeError> {
    let mut physics = RobotPhysics::new(seed ^ 0x5eed, 10);
    let mut bot = TaskBot::new(method, particles, target, 0.25, seed);
    let mut mse = MseTracker::new();
    let mut cmd = 0.0;
    let mut switched_at = None;
    for t in 0..steps {
        let sensors = physics.step(cmd);
        cmd = bot.step(sensors)?;
        mse.push(physics.position(), target);
        if bot.mode() == BotMode::Task {
            // Mission accomplished: report the state at the switch.
            switched_at = Some(t);
            break;
        }
    }
    Ok(MissionReport {
        final_position: physics.position(),
        switched_at,
        mse_to_target: mse.mse(),
    })
}

/// Outcome of [`run_mission`].
#[derive(Debug, Clone, PartialEq)]
pub struct MissionReport {
    /// True position when the run ended (at the switch, if it happened).
    pub final_position: f64,
    /// Step at which the automaton entered `Task`, if it did.
    pub switched_at: Option<usize>,
    /// MSE between the true position and the target over the run.
    pub mse_to_target: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physics_integrates_commands() {
        let mut phys = RobotPhysics::new(0, 1000);
        for _ in 0..100 {
            phys.step(1.0);
        }
        // Constant unit acceleration for 10 s: v ≈ 10, p ≈ 50.
        assert!(
            (phys.velocity() - 10.0).abs() < 2.0,
            "v = {}",
            phys.velocity()
        );
        assert!(
            (phys.position() - 50.0).abs() < 12.0,
            "p = {}",
            phys.position()
        );
    }

    #[test]
    fn tracker_follows_true_position() {
        let mut phys = RobotPhysics::new(42, 10);
        let mut engine = Infer::with_seed(Method::StreamingDs, 50, GpsAccTracker::default(), 7);
        let mut mse = MseTracker::new();
        for t in 0..300 {
            let cmd = if t < 150 { 0.5 } else { -0.5 };
            let s = phys.step(cmd);
            let post = engine
                .step(&TrackerInput {
                    a_obs: s.a_obs,
                    gps: s.gps,
                    cmd,
                })
                .unwrap();
            mse.push(post.mean_float(), phys.position());
        }
        assert!(mse.mse() < 0.5, "tracking MSE {}", mse.mse());
    }

    #[test]
    fn tracker_memory_stays_bounded() {
        let mut phys = RobotPhysics::new(3, 10);
        let mut engine = Infer::with_seed(Method::StreamingDs, 10, GpsAccTracker::default(), 1);
        let mut peak = 0;
        for _ in 0..200 {
            let s = phys.step(0.2);
            engine
                .step(&TrackerInput {
                    a_obs: s.a_obs,
                    gps: s.gps,
                    cmd: 0.2,
                })
                .unwrap();
            peak = peak.max(engine.memory().live_nodes);
        }
        assert!(peak <= 10 * 4, "peak {peak}");
    }

    #[test]
    fn mission_reaches_target_and_switches_to_task() {
        let report = run_mission(Method::StreamingDs, 100, 3.0, 1200, 17).unwrap();
        assert!(
            report.switched_at.is_some(),
            "never switched to Task: {report:?}"
        );
        assert!(
            (report.final_position - 3.0).abs() < 1.0,
            "final position {}",
            report.final_position
        );
    }

    #[test]
    fn closed_loop_control_works_under_particle_filter_too() {
        // The PF posterior is overconfident (pure particle spread), so the
        // automaton's probability test is unreliable under it — drive the
        // plain robot instead and check it settles at the target.
        let mut physics = RobotPhysics::new(29, 10);
        let mut robot = Robot::new(Method::ParticleFilter, 200, 2.0, 23);
        let mut cmd = 0.0;
        for _ in 0..800 {
            let sensors = physics.step(cmd);
            cmd = robot.step(sensors).unwrap().0;
        }
        assert!(
            (physics.position() - 2.0).abs() < 1.0,
            "final position {}",
            physics.position()
        );
    }
}
