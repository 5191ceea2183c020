//! The delayed-sampling graph.
//!
//! One [`Graph`] lives inside each inference particle. It is a slab of
//! nodes, each a random variable in one of the three states of Murray et
//! al. 2018, with the **pointer-minimal** edge discipline of ProbZelus
//! §5.3:
//!
//! * [`NodeState::Initialized`] — conditional distribution
//!   `p(x | parent)`, holding only a *backward* pointer to the parent;
//! * [`NodeState::Marginalized`] — marginal distribution `p(x)`, holding
//!   only a *forward* pointer to its (at most one) marginalized-or-realized
//!   child, together with that child's conditional so the evidence of a
//!   realized child can be folded in **lazily**, when this node is next
//!   used ("conditioning only occurs when the parent node needs to be
//!   realized");
//! * [`NodeState::Realized`] — a concrete value.
//!
//! Marginalization flips the child's backward pointer into the parent's
//! forward pointer (Fig. 15), so a prefix of the state-space chain becomes
//! unreachable as soon as the program drops its reference to it, and
//! [`Graph::collect`] (a mark-and-sweep over program roots) reclaims it.
//! Under [`Retention::RetainAll`] every unrealized node is pinned as a GC
//! root, reproducing the unbounded memory growth of the *original*
//! delayed-sampling implementation whose bidirectional edges keep the whole
//! unrealized chain reachable (Fig. 3 / §6.3) while realized observations
//! are still collected.

use crate::error::RuntimeError;
use crate::marginal::{Family, Marginal};
use crate::posterior::ValueDist;
use crate::symbolic::{AffExpr, AffView, RvId};
use crate::value::{DistExpr, Value};
use probzelus_distributions::conjugacy::AffineGaussian;
use rand::Rng;

use super::link::CondLink;

/// Node retention policy: pointer-minimal streaming delayed sampling, or
/// the original implementation's keep-everything behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Pointer-minimal graph; unreachable nodes are swept by
    /// [`Graph::collect`] (SDS / BDS).
    PointerMinimal,
    /// Never free nodes, as in the original delayed sampling whose
    /// bidirectional edges keep every node reachable (DS baseline).
    RetainAll,
}

/// The state of a graph node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeState {
    /// `p(x | parent)`; backward pointer to the parent only.
    Initialized {
        /// The parent random variable.
        parent: RvId,
        /// The conditional `p(x | parent)`.
        link: CondLink,
    },
    /// Marginal `p(x)`; forward pointer to at most one child on the M-path.
    Marginalized {
        /// Current marginal (including lazily folded evidence so far).
        marginal: Marginal,
        /// Forward pointer: the marginalized-or-realized child, with the
        /// child's conditional given this node.
        child: Option<(RvId, CondLink)>,
    },
    /// A concrete value.
    Realized(Value),
}

/// Coarse state tag, for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// Node is initialized.
    Initialized,
    /// Node is marginalized.
    Marginalized,
    /// Node is realized.
    Realized,
}

#[derive(Debug, Clone, PartialEq)]
struct Node {
    state: NodeState,
    mark: bool,
}

/// A structural snapshot of one graph — the bounded-memory witnesses of
/// §6 / Fig. 15, exported per tick by the telemetry subsystem and
/// consumed directly by the memory-bounds tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphStats {
    /// Live (non-freed) nodes.
    pub live_nodes: usize,
    /// Live pointer edges: initialized → parent plus marginalized →
    /// child, counting only targets that are themselves live.
    pub live_edges: usize,
    /// Live nodes in the `Initialized` state.
    pub initialized: usize,
    /// Live nodes in the `Marginalized` state.
    pub marginalized: usize,
    /// Live nodes in the `Realized` state.
    pub realized: usize,
    /// Length (in nodes) of the longest pointer chain. Under the
    /// pointer-minimal discipline this stays O(1) on bounded models; the
    /// retain-all baseline grows it without bound on state-space models.
    pub max_chain_depth: usize,
    /// Nodes ever created.
    pub total_created: u64,
    /// Approximate live heap bytes.
    pub live_bytes: usize,
    /// Allocations served by recycling a swept slot from the free list
    /// instead of growing the slab.
    pub slots_reused: u64,
    /// Slab capacity in slots (live + freed). The bounded-memory witness:
    /// under `Retention::PointerMinimal` this must plateau even though
    /// `total_created` grows every tick, because every allocation after
    /// warm-up reuses a swept slot.
    pub capacity: usize,
}

impl GraphStats {
    /// Folds another particle's snapshot into this one (sums, except the
    /// chain depth, which takes the max over particles).
    pub fn merge(&mut self, other: &GraphStats) {
        self.live_nodes += other.live_nodes;
        self.live_edges += other.live_edges;
        self.initialized += other.initialized;
        self.marginalized += other.marginalized;
        self.realized += other.realized;
        self.max_chain_depth = self.max_chain_depth.max(other.max_chain_depth);
        self.total_created += other.total_created;
        self.live_bytes += other.live_bytes;
        self.slots_reused += other.slots_reused;
        self.capacity += other.capacity;
    }

    /// Fraction of live nodes that are realized (sampled-vs-symbolic
    /// balance); `0.0` on an empty graph.
    pub fn realized_ratio(&self) -> f64 {
        if self.live_nodes == 0 {
            0.0
        } else {
            self.realized as f64 / self.live_nodes as f64
        }
    }
}

/// A per-particle delayed-sampling graph.
#[derive(Debug, PartialEq)]
pub struct Graph {
    slots: Vec<Option<Node>>,
    free: Vec<usize>,
    retention: Retention,
    live: usize,
    created: u64,
    reused: u64,
    // Reusable traversal buffers for the per-tick hot paths (graft chain /
    // collect mark stack, and the rarer prune chain). Always empty between
    // calls, so `Clone` leaves them empty and the derived `PartialEq` sees
    // only trivially equal empty vectors.
    scratch_chain: Vec<RvId>,
    scratch_prune: Vec<RvId>,
}

// `clone_from` reuses the slot and free-list storage: the resampler
// copies survivors into the graphs of the particles it drops.
impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            slots: self.slots.clone(),
            free: self.free.clone(),
            retention: self.retention,
            live: self.live,
            created: self.created,
            reused: self.reused,
            scratch_chain: Vec::new(),
            scratch_prune: Vec::new(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.free.clone_from(&source.free);
        self.retention = source.retention;
        self.live = source.live;
        self.created = source.created;
        self.reused = source.reused;
    }
}

impl Graph {
    /// Creates an empty graph with the given retention policy.
    pub fn new(retention: Retention) -> Self {
        Graph {
            slots: Vec::new(),
            free: Vec::new(),
            retention,
            live: 0,
            created: 0,
            reused: 0,
            scratch_chain: Vec::new(),
            scratch_prune: Vec::new(),
        }
    }

    /// The retention policy.
    pub fn retention(&self) -> Retention {
        self.retention
    }

    /// Number of live (non-freed) nodes.
    pub fn live_nodes(&self) -> usize {
        self.live
    }

    /// Total nodes ever created.
    pub fn total_created(&self) -> u64 {
        self.created
    }

    /// Allocations served by popping the free list instead of growing the
    /// slot vector.
    pub fn slots_reused(&self) -> u64 {
        self.reused
    }

    /// Slab capacity in slots (live nodes plus swept-but-recyclable
    /// slots). Boundedness of this — not just of [`Graph::live_nodes`] —
    /// is what makes the streaming memory claim honest: freed slots are
    /// recycled rather than accumulated.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate live heap footprint in bytes (the analogue of the
    /// paper's "live words in the heap" metric).
    pub fn live_bytes(&self) -> usize {
        self.live * std::mem::size_of::<Node>()
    }

    /// Computes a structural snapshot: per-state node counts, live edge
    /// count, and the longest pointer chain. One `O(live)` pass (chain
    /// depths are memoized), so it is cheap enough to sample per tick —
    /// but callers gate it behind an enabled telemetry sink anyway.
    pub fn stats(&self) -> GraphStats {
        self.stats_with_scratch(&mut Vec::new(), &mut Vec::new())
    }

    /// [`Graph::stats`] with caller-owned scratch buffers, so a per-tick
    /// sweep over many particle graphs allocates once instead of per
    /// graph.
    pub fn stats_with_scratch(&self, depth: &mut Vec<usize>, path: &mut Vec<usize>) -> GraphStats {
        /// Depth-memo marker for a node currently on the traversal path
        /// (a cycle would otherwise loop; the pointer discipline makes
        /// one impossible, but telemetry must not hang on a corrupt graph).
        const IN_PROGRESS: usize = usize::MAX;
        let mut stats = GraphStats {
            live_nodes: self.live,
            total_created: self.created,
            live_bytes: self.live_bytes(),
            slots_reused: self.reused,
            capacity: self.slots.len(),
            ..GraphStats::default()
        };
        // The single out-pointer of a node, if its target is still live.
        let out_of = |state: &NodeState| -> Option<usize> {
            let target = match state {
                NodeState::Initialized { parent, .. } => Some(parent.0),
                NodeState::Marginalized {
                    child: Some((c, _)),
                    ..
                } => Some(c.0),
                _ => None,
            };
            target.filter(|&t| self.slots.get(t).is_some_and(Option::is_some))
        };
        // Small graphs — the steady-state SDS case, where this runs per
        // tick per particle — take a memo-free path: direct chain walks
        // bounded by the live count beat the memo buffers' maintenance
        // cost. Larger graphs (classic DS retain-all) use the memoized
        // walk, which keeps the whole pass O(live).
        let small = self.live <= 16;
        if !small {
            depth.clear();
            depth.resize(self.slots.len(), 0);
        }
        for (start, slot) in self.slots.iter().enumerate() {
            let Some(node) = slot else { continue };
            match &node.state {
                NodeState::Initialized { .. } => stats.initialized += 1,
                NodeState::Marginalized { .. } => stats.marginalized += 1,
                NodeState::Realized(_) => stats.realized += 1,
            }
            if out_of(&node.state).is_some() {
                stats.live_edges += 1;
            }
            if small {
                // The `len < live` bound doubles as the cycle guard.
                let mut len = 1usize;
                let mut cur = start;
                while len < self.live {
                    match self.slots[cur].as_ref().and_then(|n| out_of(&n.state)) {
                        Some(next) => {
                            cur = next;
                            len += 1;
                        }
                        None => break,
                    }
                }
                stats.max_chain_depth = stats.max_chain_depth.max(len);
                continue;
            }
            if depth[start] != 0 {
                continue;
            }
            // Walk the pointer chain to a node of known depth (or a
            // terminal), then assign depths back along the path.
            path.clear();
            let mut cur = start;
            let base = loop {
                match depth[cur] {
                    0 => {}
                    IN_PROGRESS => break 0,
                    d => break d,
                }
                depth[cur] = IN_PROGRESS;
                path.push(cur);
                match self.slots[cur].as_ref().and_then(|n| out_of(&n.state)) {
                    Some(next) => cur = next,
                    None => break 0,
                }
            };
            let mut d = base;
            for &i in path.iter().rev() {
                d += 1;
                depth[i] = d;
            }
        }
        if !small {
            stats.max_chain_depth = depth
                .iter()
                .filter(|&&d| d != IN_PROGRESS)
                .copied()
                .max()
                .unwrap_or(0);
        }
        stats
    }

    /// Ids of all live nodes, ascending.
    pub fn live_ids(&self) -> Vec<RvId> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| RvId(i)))
            .collect()
    }

    /// The coarse state of a node.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::GraphCorrupt`] on a dangling id (a collected node),
    /// which indicates a bug in root reporting.
    pub fn state_kind(&self, rv: RvId) -> Result<StateKind, RuntimeError> {
        Ok(match &self.node(rv)?.state {
            NodeState::Initialized { .. } => StateKind::Initialized,
            NodeState::Marginalized { .. } => StateKind::Marginalized,
            NodeState::Realized(_) => StateKind::Realized,
        })
    }

    #[inline]
    fn node(&self, rv: RvId) -> Result<&Node, RuntimeError> {
        self.slots
            .get(rv.0)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| RuntimeError::GraphCorrupt(format!("dangling random variable {rv}")))
    }

    #[inline]
    fn node_mut(&mut self, rv: RvId) -> Result<&mut Node, RuntimeError> {
        self.slots
            .get_mut(rv.0)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| RuntimeError::GraphCorrupt(format!("dangling random variable {rv}")))
    }

    /// Non-failing lookup for read-only compaction paths, where a dangling
    /// reference degrades to "not realized" instead of an error.
    fn try_node(&self, rv: RvId) -> Option<&Node> {
        self.slots.get(rv.0).and_then(|s| s.as_ref())
    }

    fn alloc(&mut self, state: NodeState) -> RvId {
        self.created += 1;
        self.live += 1;
        let node = Node { state, mark: false };
        if let Some(i) = self.free.pop() {
            self.reused += 1;
            self.slots[i] = Some(node);
            return RvId(i);
        }
        self.slots.push(Some(node));
        RvId(self.slots.len() - 1)
    }

    /// The family of the distribution a node will eventually realize from.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::GraphCorrupt`] on a dangling id.
    pub fn family_of(&self, rv: RvId) -> Result<Family, RuntimeError> {
        Ok(match &self.node(rv)?.state {
            NodeState::Initialized { link, .. } => link.child_family(),
            NodeState::Marginalized { marginal, .. } => marginal.family(),
            NodeState::Realized(_) => Family::Dirac,
        })
    }

    /// The value of a realized float variable, for substitution.
    fn realized_float(&self, x: RvId) -> Option<f64> {
        match self.try_node(x).map(|n| &n.state) {
            Some(NodeState::Realized(v)) => v.as_float().ok(),
            _ => None,
        }
    }

    /// A float parameter with its realized variables substituted, read
    /// on the stack: the caller only inspects it.
    fn normalize_float_param(&self, v: &Value) -> Result<AffView, RuntimeError> {
        match v {
            Value::Float(x) => Ok(AffView::constant(*x)),
            Value::Aff(e) => Ok(e.substitute_view(|x| self.realized_float(x))),
            Value::Int(n) => Ok(AffView::constant(*n as f64)),
            other => Err(RuntimeError::TypeMismatch {
                expected: "float parameter",
                got: other.kind().to_string(),
            }),
        }
    }

    /// Forces every variable of the affine expression `konst + Σ a·x`,
    /// returning its concrete value: the variables are realized in
    /// ascending order and each is folded into the constant as it is.
    fn force_aff<R: Rng + ?Sized>(
        &mut self,
        konst: f64,
        terms: impl Iterator<Item = (RvId, f64)>,
        rng: &mut R,
    ) -> Result<f64, RuntimeError> {
        let mut konst = konst;
        for (x, a) in terms {
            let v = self.realize(x, rng)?;
            konst += a * v.as_float()?;
        }
        Ok(konst)
    }

    /// `sample(d)` under delayed sampling: introduces a random variable
    /// without drawing from it when a conjugate parent is available, and
    /// returns its symbolic reference (§5.2, `assume`).
    ///
    /// Returns a symbolic [`Value`]: an affine variable reference for
    /// float-valued families, a raw reference for boolean/count families,
    /// or the point itself for `Dirac`.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation and typing errors.
    pub fn assume<R: Rng + ?Sized>(
        &mut self,
        d: &DistExpr,
        rng: &mut R,
    ) -> Result<Value, RuntimeError> {
        match d {
            DistExpr::Gaussian { mean, var } => {
                let var = self.force_param_float(var, rng)?;
                let mean = self.normalize_float_param(mean)?;
                if let Some(m) = mean.as_constant() {
                    let marg = Marginal::Gaussian(probzelus_distributions::Gaussian::new(m, var)?);
                    return Ok(self.root_float(marg));
                }
                if let Some((x, a, b)) = mean.as_single() {
                    if self.family_of(x)? == Family::Gaussian {
                        let link = CondLink::AffineGaussian(AffineGaussian::new(a, b, var)?);
                        let id = self.alloc(NodeState::Initialized { parent: x, link });
                        return Ok(Value::Aff(AffExpr::var(id)));
                    }
                }
                // Not conjugate: realize the dependencies and fall back to
                // a concrete root.
                let m = self.force_aff(mean.konst(), mean.terms(), rng)?;
                let marg = Marginal::Gaussian(probzelus_distributions::Gaussian::new(m, var)?);
                Ok(self.root_float(marg))
            }
            DistExpr::Bernoulli { p } => {
                let p = self.normalize_float_param(p)?;
                if let Some(c) = p.as_constant() {
                    let marg = Marginal::Bernoulli(probzelus_distributions::Bernoulli::new(c)?);
                    return Ok(self.root_other(marg));
                }
                if let Some(x) = p.as_var() {
                    if self.family_of(x)? == Family::Beta {
                        let id = self.alloc(NodeState::Initialized {
                            parent: x,
                            link: CondLink::BetaBernoulli,
                        });
                        return Ok(Value::Rv(id));
                    }
                }
                let c = self.force_aff(p.konst(), p.terms(), rng)?;
                let marg = Marginal::Bernoulli(probzelus_distributions::Bernoulli::new(c)?);
                Ok(self.root_other(marg))
            }
            DistExpr::Binomial { n, p } => {
                let n = self.force_value(n, rng)?.as_count()?;
                let p = self.normalize_float_param(p)?;
                if let Some(c) = p.as_constant() {
                    let marg = Marginal::Binomial(probzelus_distributions::Binomial::new(n, c)?);
                    return Ok(self.root_other(marg));
                }
                if let Some(x) = p.as_var() {
                    if self.family_of(x)? == Family::Beta {
                        let id = self.alloc(NodeState::Initialized {
                            parent: x,
                            link: CondLink::BetaBinomial { n },
                        });
                        return Ok(Value::Rv(id));
                    }
                }
                let c = self.force_aff(p.konst(), p.terms(), rng)?;
                let marg = Marginal::Binomial(probzelus_distributions::Binomial::new(n, c)?);
                Ok(self.root_other(marg))
            }
            DistExpr::Poisson { rate } => {
                let rate = self.normalize_float_param(rate)?;
                if let Some(c) = rate.as_constant() {
                    let marg = Marginal::Poisson(probzelus_distributions::Poisson::new(c)?);
                    return Ok(self.root_other(marg));
                }
                if let Some((x, a, b)) = rate.as_single() {
                    if b == 0.0 && a > 0.0 && self.family_of(x)? == Family::Gamma {
                        let id = self.alloc(NodeState::Initialized {
                            parent: x,
                            link: CondLink::GammaPoisson { scale: a },
                        });
                        return Ok(Value::Rv(id));
                    }
                }
                let c = self.force_aff(rate.konst(), rate.terms(), rng)?;
                let marg = Marginal::Poisson(probzelus_distributions::Poisson::new(c)?);
                Ok(self.root_other(marg))
            }
            DistExpr::Exponential { rate } => {
                let rate = self.normalize_float_param(rate)?;
                if let Some(c) = rate.as_constant() {
                    let marg = Marginal::Exponential(probzelus_distributions::Exponential::new(c)?);
                    return Ok(self.root_float(marg));
                }
                if let Some((x, a, b)) = rate.as_single() {
                    if b == 0.0 && a > 0.0 && self.family_of(x)? == Family::Gamma {
                        let id = self.alloc(NodeState::Initialized {
                            parent: x,
                            link: CondLink::GammaExponential { scale: a },
                        });
                        return Ok(Value::Aff(AffExpr::var(id)));
                    }
                }
                let c = self.force_aff(rate.konst(), rate.terms(), rng)?;
                let marg = Marginal::Exponential(probzelus_distributions::Exponential::new(c)?);
                Ok(self.root_float(marg))
            }
            DistExpr::Beta { alpha, beta } => {
                let a = self.force_param_float(alpha, rng)?;
                let b = self.force_param_float(beta, rng)?;
                let marg = Marginal::Beta(probzelus_distributions::Beta::new(a, b)?);
                Ok(self.root_float(marg))
            }
            DistExpr::Gamma { shape, rate } => {
                let k = self.force_param_float(shape, rng)?;
                let r = self.force_param_float(rate, rng)?;
                let marg = Marginal::Gamma(probzelus_distributions::Gamma::new(k, r)?);
                Ok(self.root_float(marg))
            }
            DistExpr::Uniform { lo, hi } => {
                let lo = self.force_param_float(lo, rng)?;
                let hi = self.force_param_float(hi, rng)?;
                let marg = Marginal::Uniform(probzelus_distributions::Uniform::new(lo, hi)?);
                Ok(self.root_float(marg))
            }
            DistExpr::Dirac { point } => Ok(point.clone()),
            DistExpr::MvGaussian(e) => {
                let crate::value::MvGaussianExpr { a, x, b, cov } = &**e;
                // Conjugate when the parent is a symbolic multivariate
                // Gaussian variable; otherwise realize and fall back to a
                // concrete root.
                if let Value::Rv(parent) = x {
                    if self.family_of(*parent)? == Family::MvGaussian {
                        let link = CondLink::MvAffine(Box::new(
                            probzelus_distributions::MvAffineGaussian::new(
                                a.clone(),
                                b.clone(),
                                cov.clone(),
                            )?,
                        ));
                        let id = self.alloc(NodeState::Initialized {
                            parent: *parent,
                            link,
                        });
                        return Ok(Value::Rv(id));
                    }
                }
                let xv = self.force_value(x, rng)?.as_vector()?;
                let marg = Marginal::MvGaussian(Box::new(
                    probzelus_distributions::MvGaussian::new(a.mul_vec(&xv).add(b), cov.clone())?,
                ));
                Ok(self.root_other(marg))
            }
        }
    }

    fn force_param_float<R: Rng + ?Sized>(
        &mut self,
        v: &Value,
        rng: &mut R,
    ) -> Result<f64, RuntimeError> {
        self.force_value(v, rng)?.as_float()
    }

    fn root_float(&mut self, marginal: Marginal) -> Value {
        let id = self.alloc(NodeState::Marginalized {
            marginal,
            child: None,
        });
        Value::Aff(AffExpr::var(id))
    }

    fn root_other(&mut self, marginal: Marginal) -> Value {
        let id = self.alloc(NodeState::Marginalized {
            marginal,
            child: None,
        });
        Value::Rv(id)
    }

    /// `observe(d, v)` under delayed sampling: introduces the observation
    /// node, grafts it, conditions analytically, and returns the
    /// **log-likelihood** of the observation under the node's current
    /// marginal (the importance-weight update of Fig. 14).
    ///
    /// # Errors
    ///
    /// Propagates typing and parameter errors; the observed value is
    /// realized first if symbolic.
    pub fn observe<R: Rng + ?Sized>(
        &mut self,
        d: &DistExpr,
        v: &Value,
        rng: &mut R,
    ) -> Result<f64, RuntimeError> {
        let v = self.force_value(v, rng)?;
        let sym = self.assume(d, rng)?;
        let Some(x) = Self::sym_var(&sym) else {
            // Dirac observation (or a fully concrete point).
            return Marginal::Dirac(Box::new(sym)).log_pdf(&v);
        };
        self.graft(x, rng)?;
        let lp = match &self.node(x)?.state {
            NodeState::Marginalized { marginal, .. } => marginal.log_pdf(&v)?,
            other => {
                return Err(RuntimeError::GraphCorrupt(format!(
                    "graft must marginalize, got {other:?}"
                )))
            }
        };
        self.node_mut(x)?.state = NodeState::Realized(v);
        Ok(lp)
    }

    /// Extracts the single variable of a symbolic reference produced by
    /// [`Graph::assume`].
    fn sym_var(v: &Value) -> Option<RvId> {
        match v {
            Value::Rv(x) => Some(*x),
            Value::Aff(e) => e.as_var(),
            _ => None,
        }
    }

    /// `value(x)`: realizes a random variable (grafting first), returning
    /// its concrete value. Already-realized variables return their value.
    ///
    /// # Errors
    ///
    /// Propagates graph errors.
    pub fn realize<R: Rng + ?Sized>(
        &mut self,
        x: RvId,
        rng: &mut R,
    ) -> Result<Value, RuntimeError> {
        if let NodeState::Realized(v) = &self.node(x)?.state {
            return Ok(v.clone());
        }
        self.graft(x, rng)?;
        let v = match &self.node(x)?.state {
            NodeState::Marginalized { marginal, .. } => marginal.sample(rng),
            other => {
                return Err(RuntimeError::GraphCorrupt(format!(
                    "graft must marginalize, got {other:?}"
                )))
            }
        };
        self.node_mut(x)?.state = NodeState::Realized(v.clone());
        Ok(v)
    }

    /// Realizes every random variable referenced by a value, returning the
    /// fully concrete value (the paper's `value` on symbolic terms).
    ///
    /// # Errors
    ///
    /// Propagates graph errors.
    pub fn force_value<R: Rng + ?Sized>(
        &mut self,
        v: &Value,
        rng: &mut R,
    ) -> Result<Value, RuntimeError> {
        match v {
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Float(_) => Ok(v.clone()),
            Value::Pair(a, b) => Ok(Value::pair(
                self.force_value(a, rng)?,
                self.force_value(b, rng)?,
            )),
            Value::Array(xs) => Ok(Value::Array(
                xs.iter()
                    .map(|x| self.force_value(x, rng))
                    .collect::<Result<_, _>>()?,
            )),
            Value::Dist(d) => {
                let mut d = (**d).clone();
                for p in d.params_mut() {
                    let forced = self.force_value(p, rng)?;
                    *p = forced;
                }
                Ok(Value::dist(d))
            }
            Value::Aff(e) => Ok(Value::Float(self.force_aff(e.konst(), e.terms(), rng)?)),
            Value::Rv(x) => self.realize(*x, rng),
        }
    }

    /// Grafts `x`: makes it the marginalized terminal of its M-path,
    /// folding pending evidence along the way. Core operation of delayed
    /// sampling; iterative so unbounded chains cannot overflow the stack.
    fn graft<R: Rng + ?Sized>(&mut self, x: RvId, rng: &mut R) -> Result<(), RuntimeError> {
        // 1. Walk the backward pointers up to the first non-initialized
        //    ancestor. The chain buffer is graph-owned scratch: taken for
        //    the duration of the call, cleared and returned at the end, so
        //    the per-observe allocation disappears from the tick hot loop.
        //    (An early `?` return leaves the field empty — still a valid
        //    state, just one lost capacity reservation on a path that
        //    poisons the particle anyway.)
        let mut chain = std::mem::take(&mut self.scratch_chain);
        chain.clear();
        let mut cur = x;
        while let NodeState::Initialized { parent, .. } = &self.node(cur)?.state {
            chain.push(cur);
            cur = *parent;
        }
        // 2. Make the top of the chain a childless marginal (fold realized
        //    evidence, prune a competing M-path).
        if matches!(self.node(cur)?.state, NodeState::Marginalized { .. }) {
            self.resolve_child(cur, rng)?;
        }
        // 3. Marginalize down the chain, flipping backward pointers into
        //    forward pointers (Fig. 15 (d)-(e)).
        let mut parent = cur;
        for &child in chain.iter().rev() {
            // The child's `Initialized` state is about to be overwritten
            // with its marginal, so the link can be moved out rather than
            // cloned. On the error paths below the child is left holding
            // the placeholder — acceptable, since every error here poisons
            // (quarantines) the owning particle.
            let link = match std::mem::replace(
                &mut self.node_mut(child)?.state,
                NodeState::Realized(Value::Unit),
            ) {
                NodeState::Initialized { link, .. } => link,
                other => {
                    return Err(RuntimeError::GraphCorrupt(format!(
                        "chain nodes are initialized, got {other:?}"
                    )))
                }
            };
            // Compute the child's marginal borrowing the parent in place;
            // cloning the parent's whole state (marginal + forward link)
            // per chain element showed up as the hottest allocation in the
            // tick profile.
            let (child_marg, parent_is_marginal) = match &self.node(parent)?.state {
                NodeState::Realized(v) => (link.instantiate(v)?, false),
                NodeState::Marginalized {
                    marginal,
                    child: None,
                } => (link.marginalize(marginal)?, true),
                other => {
                    return Err(RuntimeError::GraphCorrupt(format!(
                        "parent must be resolved, got {other:?}"
                    )))
                }
            };
            self.node_mut(child)?.state = NodeState::Marginalized {
                marginal: child_marg,
                child: None,
            };
            if parent_is_marginal {
                if let NodeState::Marginalized { child: c, .. } = &mut self.node_mut(parent)?.state
                {
                    *c = Some((child, link));
                }
            }
            parent = child;
        }
        chain.clear();
        self.scratch_chain = chain;
        Ok(())
    }

    /// Ensures a marginalized node has no child pointer, folding a realized
    /// child's evidence (lazy conditioning) or pruning a marginalized
    /// child's M-path by sampling it.
    fn resolve_child<R: Rng + ?Sized>(&mut self, x: RvId, rng: &mut R) -> Result<(), RuntimeError> {
        // Detach the forward pointer up front: it ends the call as `None`
        // either way, so the link moves out instead of being cloned. An
        // error from `prune` leaves the pointer already cleared — fine,
        // since errors poison the owning particle.
        let (c, link) = match &mut self.node_mut(x)?.state {
            NodeState::Marginalized {
                child: child @ Some(_),
                ..
            } => child.take().expect("matched Some"),
            _ => return Ok(()),
        };
        if matches!(self.node(c)?.state, NodeState::Marginalized { .. }) {
            self.prune(c, rng)?;
        }
        let v = match &self.node(c)?.state {
            NodeState::Realized(v) => v.clone(),
            other => {
                return Err(RuntimeError::GraphCorrupt(format!(
                    "child must be realized after prune, got {other:?}"
                )))
            }
        };
        if let NodeState::Marginalized { marginal, .. } = &mut self.node_mut(x)?.state {
            *marginal = link.condition(marginal, &v)?;
        }
        Ok(())
    }

    /// Realizes the whole downward M-path starting at the marginalized node
    /// `c`, sampling leaf-first so every conditioning step sees a realized
    /// child (iterative; §5.2 `prune`).
    fn prune<R: Rng + ?Sized>(&mut self, c: RvId, rng: &mut R) -> Result<(), RuntimeError> {
        // Separate scratch from graft's: prune runs while graft still holds
        // the chain buffer.
        let mut chain = std::mem::take(&mut self.scratch_prune);
        chain.clear();
        chain.push(c);
        let mut cur = c;
        loop {
            match &self.node(cur)?.state {
                NodeState::Marginalized {
                    child: Some((d, _)),
                    ..
                } if matches!(self.node(*d)?.state, NodeState::Marginalized { .. }) => {
                    chain.push(*d);
                    cur = *d;
                }
                _ => break,
            }
        }
        for &node in chain.iter().rev() {
            self.resolve_child(node, rng)?;
            let v = match &self.node(node)?.state {
                NodeState::Marginalized { marginal, .. } => marginal.sample(rng),
                other => {
                    return Err(RuntimeError::GraphCorrupt(format!(
                        "prune chain nodes are marginalized, got {other:?}"
                    )))
                }
            };
            self.node_mut(node)?.state = NodeState::Realized(v);
        }
        chain.clear();
        self.scratch_prune = chain;
        Ok(())
    }

    /// The current posterior marginal of a random variable, **without
    /// altering the graph** (the paper's `distribution` function, §5.3).
    ///
    /// Realized evidence on this node's forward child is folded into the
    /// returned marginal; chains of initialized ancestors are marginalized
    /// through on the fly.
    ///
    /// # Errors
    ///
    /// Propagates conjugacy typing errors (which indicate graph-invariant
    /// violations).
    pub fn query(&self, x: RvId) -> Result<Marginal, RuntimeError> {
        let mut links = Vec::new();
        let mut cur = x;
        let base = loop {
            match &self.node(cur)?.state {
                NodeState::Initialized { parent, link } => {
                    links.push(link.clone());
                    cur = *parent;
                }
                NodeState::Realized(v) => break Marginal::Dirac(Box::new(v.clone())),
                NodeState::Marginalized { marginal, child } => {
                    break match child {
                        Some((c, l)) => match &self.node(*c)?.state {
                            NodeState::Realized(v) => l.condition(marginal, v)?,
                            _ => marginal.clone(),
                        },
                        None => marginal.clone(),
                    };
                }
            }
        };
        let mut m = base;
        for link in links.iter().rev() {
            m = match &m {
                Marginal::Dirac(v) => link.instantiate(v)?,
                _ => link.marginalize(&m)?,
            };
        }
        Ok(m)
    }

    /// The distribution of an arbitrary (possibly symbolic, possibly
    /// structured) value, without altering the graph.
    ///
    /// Affine images of Gaussian variables are transformed in closed form.
    /// For the rare non-closed cases (non-identity affine maps of
    /// non-Gaussian variables, or expressions over several variables) the
    /// result degrades to a point mass at an independently drawn sample —
    /// an approximation the paper avoids only by restricting outputs.
    ///
    /// # Errors
    ///
    /// Propagates graph errors.
    pub fn dist_of<R: Rng + ?Sized>(
        &self,
        v: &Value,
        rng: &mut R,
    ) -> Result<ValueDist, RuntimeError> {
        match v {
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Array(_) => {
                Ok(ValueDist::Dirac(v.clone()))
            }
            Value::Dist(_) => Ok(ValueDist::Dirac(v.clone())),
            Value::Pair(a, b) => Ok(ValueDist::Pair(
                Box::new(self.dist_of(a, rng)?),
                Box::new(self.dist_of(b, rng)?),
            )),
            Value::Rv(x) => Ok(ValueDist::Marginal(self.query(*x)?)),
            Value::Aff(e) => {
                let e = e.substitute_view(|x| self.realized_float(x));
                if let Some(c) = e.as_constant() {
                    return Ok(ValueDist::Dirac(Value::Float(c)));
                }
                if let Some((x, a, b)) = e.as_single() {
                    let m = self.query(x)?;
                    if a == 1.0 && b == 0.0 {
                        return Ok(ValueDist::Marginal(m));
                    }
                    if let Some(t) = m.affine_transform(a, b) {
                        return Ok(ValueDist::Marginal(t));
                    }
                    let s = m.sample(rng).as_float()?;
                    return Ok(ValueDist::Dirac(Value::Float(a * s + b)));
                }
                // Multiple unrealized variables: independent-sample
                // fallback.
                let mut out = e.konst();
                for (x, a) in e.terms() {
                    out += a * self.query(x)?.sample(rng).as_float()?;
                }
                Ok(ValueDist::Dirac(Value::Float(out)))
            }
        }
    }

    /// Substitutes realized random variables throughout a value without
    /// realizing anything — the symbolic-state compaction that keeps
    /// affine expressions (and hence GC root sets) bounded when a model
    /// forces variables with a sliding window (§5.3).
    pub fn simplify_value(&self, v: &Value) -> Value {
        let mut v = v.clone();
        self.simplify_in_place(&mut v);
        v
    }

    /// [`Graph::simplify_value`] in place. An affine expression none of
    /// whose variables is realized is already simplified and stays as it
    /// is, so compacting a state that mentions no realized variable
    /// allocates nothing.
    pub fn simplify_in_place(&self, v: &mut Value) {
        let realized = |x: RvId| match self.try_node(x).map(|n| &n.state) {
            Some(NodeState::Realized(r)) => Some(r),
            _ => None,
        };
        match v {
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Float(_) => {}
            Value::Pair(a, b) => {
                self.simplify_in_place(a);
                self.simplify_in_place(b);
            }
            Value::Array(xs) => xs.iter_mut().for_each(|x| self.simplify_in_place(x)),
            Value::Dist(d) => d
                .params_mut()
                .into_iter()
                .for_each(|p| self.simplify_in_place(p)),
            Value::Aff(e) => {
                e.substitute_in_place(|x| self.realized_float(x));
                if let Some(c) = e.as_constant() {
                    *v = Value::Float(c);
                }
            }
            Value::Rv(x) => {
                if let Some(r) = realized(*x) {
                    *v = r.clone();
                }
            }
        }
    }

    /// Mark-and-sweep garbage collection from the given program roots.
    ///
    /// Live edges are: initialized node → parent, marginalized node →
    /// forward child. Under [`Retention::RetainAll`] — the original
    /// delayed-sampling implementation — every *unrealized* node is also a
    /// root: the bidirectional parent/child pointers of the original keep
    /// initialized and marginalized nodes reachable from the program's
    /// latest reference, so only realized nodes (whose edges the original
    /// removes at realization) ever become garbage. This reproduces
    /// Fig. 4 / Fig. 19: linear growth on Kalman/Outlier (an ever-growing
    /// chain of marginalized positions), constant on Coin (one Beta node;
    /// observations are realized immediately).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::GraphCorrupt`] if a root or a live edge references an
    /// already-collected node (a bug in root reporting); marks set before
    /// the error are left in place, so the graph should be treated as
    /// poisoned and the owning particle quarantined.
    pub fn collect(&mut self, roots: impl IntoIterator<Item = RvId>) -> Result<(), RuntimeError> {
        // The mark stack shares graft's scratch buffer (collect never runs
        // while a graft is in flight).
        let mut stack = std::mem::take(&mut self.scratch_chain);
        stack.clear();
        stack.extend(roots);
        if self.retention == Retention::RetainAll {
            for (i, slot) in self.slots.iter().enumerate() {
                if let Some(node) = slot {
                    if !matches!(node.state, NodeState::Realized(_)) {
                        stack.push(RvId(i));
                    }
                }
            }
        }
        // Mark.
        while let Some(x) = stack.pop() {
            let node = match self.slots.get_mut(x.0).and_then(|s| s.as_mut()) {
                Some(n) => n,
                None => {
                    return Err(RuntimeError::GraphCorrupt(format!(
                        "root or edge references collected node {x}"
                    )))
                }
            };
            if node.mark {
                continue;
            }
            node.mark = true;
            match &node.state {
                NodeState::Initialized { parent, .. } => stack.push(*parent),
                NodeState::Marginalized {
                    child: Some((c, _)),
                    ..
                } => stack.push(*c),
                _ => {}
            }
        }
        // Sweep.
        for (i, slot) in self.slots.iter_mut().enumerate() {
            match slot {
                Some(node) if node.mark => node.mark = false,
                Some(_) => {
                    *slot = None;
                    self.free.push(i);
                    self.live -= 1;
                }
                None => {}
            }
        }
        stack.clear();
        self.scratch_chain = stack;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn var_of(v: &Value) -> RvId {
        Graph::sym_var(v).expect("expected a single-variable symbolic value")
    }

    #[test]
    fn assume_constant_gaussian_creates_marginalized_root() {
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let x = g.assume(&DistExpr::gaussian(0.0, 100.0), &mut r).unwrap();
        let id = var_of(&x);
        assert_eq!(g.state_kind(id).unwrap(), StateKind::Marginalized);
        assert_eq!(g.live_nodes(), 1);
        let m = g.query(id).unwrap();
        assert_eq!(m.mean_float(), Some(0.0));
        assert_eq!(m.variance_float(), Some(100.0));
    }

    #[test]
    fn assume_dependent_gaussian_is_initialized_child() {
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let x = g.assume(&DistExpr::gaussian(0.0, 100.0), &mut r).unwrap();
        let y = g
            .assume(&DistExpr::gaussian(x.clone(), 1.0), &mut r)
            .unwrap();
        assert_eq!(g.state_kind(var_of(&y)).unwrap(), StateKind::Initialized);
        // Query marginalizes through without mutating.
        let m = g.query(var_of(&y)).unwrap();
        assert_eq!(m.mean_float(), Some(0.0));
        assert_eq!(m.variance_float(), Some(101.0));
        assert_eq!(g.state_kind(var_of(&y)).unwrap(), StateKind::Initialized);
    }

    #[test]
    fn observe_conditions_the_parent_exactly() {
        // One Kalman step: x ~ N(0,100); observe N(x,1) = 5.
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let x = g.assume(&DistExpr::gaussian(0.0, 100.0), &mut r).unwrap();
        let lp = g
            .observe(
                &DistExpr::gaussian(x.clone(), 1.0),
                &Value::Float(5.0),
                &mut r,
            )
            .unwrap();
        // Log-likelihood is the marginal N(0, 101) at 5.
        let expected = probzelus_distributions::Gaussian::new(0.0, 101.0).unwrap();
        use probzelus_distributions::Distribution;
        assert!((lp - expected.log_pdf(&5.0)).abs() < 1e-10);
        // Posterior of x (lazily folded on query): Kalman update.
        let m = g.query(var_of(&x)).unwrap();
        assert!((m.mean_float().unwrap() - 500.0 / 101.0).abs() < 1e-10);
        assert!((m.variance_float().unwrap() - 100.0 / 101.0).abs() < 1e-10);
    }

    /// A Gaussian observe whose mean has two unrealized terms is not
    /// conjugate: `assume` realizes both variables (`force_aff`) and the
    /// observation is scored against a fresh root at the realized mean.
    /// The Fig. 5 tracker's GPS fix is such an observe: its position is
    /// affine in two acceleration variables.
    #[test]
    fn observe_with_two_unrealized_mean_terms_realizes_both() {
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let a = g.assume(&DistExpr::gaussian(0.0, 1.0), &mut r).unwrap();
        let b = g.assume(&DistExpr::gaussian(0.0, 1.0), &mut r).unwrap();
        let p = crate::ops::add(
            &crate::ops::mul(&a, &Value::Float(0.1)).unwrap(),
            &crate::ops::mul(&b, &Value::Float(0.01)).unwrap(),
        )
        .unwrap();
        assert!(
            matches!(&p, Value::Aff(e) if e.terms().count() == 2),
            "{p:?}"
        );
        let lp = g
            .observe(&DistExpr::gaussian(p, 0.01), &Value::Float(0.5), &mut r)
            .unwrap();
        let (a, b) = (var_of(&a), var_of(&b));
        for x in [a, b] {
            assert_eq!(g.state_kind(x).unwrap(), StateKind::Realized, "{x}");
        }
        let value = |x| g.realized_float(x).expect("realized float");
        let mean = 0.1 * value(a) + 0.01 * value(b);
        let expected = probzelus_distributions::Gaussian::new(mean, 0.01).unwrap();
        use probzelus_distributions::Distribution;
        assert_eq!(lp.to_bits(), expected.log_pdf(&0.5).to_bits());
    }

    #[test]
    fn beta_bernoulli_chain_stays_exact() {
        // Coin model: p ~ Beta(1,1); observe three heads, one tail.
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let p = g.assume(&DistExpr::beta(1.0, 1.0), &mut r).unwrap();
        for obs in [true, true, true, false] {
            g.observe(&DistExpr::bernoulli(p.clone()), &Value::Bool(obs), &mut r)
                .unwrap();
        }
        let m = g.query(var_of(&p)).unwrap();
        match m {
            Marginal::Beta(b) => {
                assert_eq!((b.alpha(), b.beta()), (4.0, 2.0));
            }
            other => panic!("expected beta, got {other}"),
        }
    }

    #[test]
    fn stats_snapshot_counts_states_edges_and_chain_depth() {
        let mut g = Graph::new(Retention::RetainAll);
        let mut r = rng();
        // Dependent chain x0 -> x1 -> x2: a marginalized root plus two
        // initialized children holding backward pointers.
        let x0 = g.assume(&DistExpr::gaussian(0.0, 1.0), &mut r).unwrap();
        let x1 = g
            .assume(&DistExpr::gaussian(x0.clone(), 1.0), &mut r)
            .unwrap();
        let x2 = g
            .assume(&DistExpr::gaussian(x1.clone(), 1.0), &mut r)
            .unwrap();
        let s = g.stats();
        assert_eq!(s.live_nodes, 3);
        assert_eq!(s.initialized, 2);
        assert_eq!(s.marginalized, 1);
        assert_eq!(s.realized, 0);
        assert_eq!(s.live_edges, 2);
        assert_eq!(s.max_chain_depth, 3);
        assert_eq!(s.total_created, 3);
        assert_eq!(s.realized_ratio(), 0.0);
        // Realizing the tip marginalizes the path (backward pointers flip
        // forward) and realizes only x2.
        let _ = g.realize(var_of(&x2), &mut r).unwrap();
        let s = g.stats();
        assert_eq!(s.live_nodes, 3);
        assert_eq!(s.realized, 1);
        assert_eq!(s.marginalized, 2);
        assert_eq!(s.initialized, 0);
        assert_eq!(s.live_edges, 2);
        assert_eq!(s.max_chain_depth, 3);
        assert!((s.realized_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            Graph::new(Retention::PointerMinimal).stats(),
            GraphStats::default()
        );
    }

    #[test]
    fn realize_samples_and_pins_value() {
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let x = g.assume(&DistExpr::gaussian(1.0, 2.0), &mut r).unwrap();
        let id = var_of(&x);
        let v1 = g.realize(id, &mut r).unwrap();
        let v2 = g.realize(id, &mut r).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(g.state_kind(id).unwrap(), StateKind::Realized);
    }

    #[test]
    fn force_value_substitutes_realized_variables() {
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let x = g.assume(&DistExpr::gaussian(0.0, 1.0), &mut r).unwrap();
        let expr = crate::ops::add(&x, &Value::Float(10.0)).unwrap();
        let forced = g.force_value(&expr, &mut r).unwrap();
        let f = forced.as_float().unwrap();
        // x ~ N(0,1), so x + 10 lands near 10.
        assert!((f - 10.0).abs() < 6.0);
    }

    #[test]
    fn pointer_minimal_collects_stale_prefix() {
        // HMM chain across "steps": only the latest x is a root.
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let mut x = g.assume(&DistExpr::gaussian(0.0, 100.0), &mut r).unwrap();
        for step in 0..50 {
            g.observe(
                &DistExpr::gaussian(x.clone(), 1.0),
                &Value::Float(step as f64),
                &mut r,
            )
            .unwrap();
            x = g
                .assume(&DistExpr::gaussian(x.clone(), 1.0), &mut r)
                .unwrap();
            g.collect([var_of(&x)]).unwrap();
            assert!(
                g.live_nodes() <= 3,
                "step {step}: live {} nodes",
                g.live_nodes()
            );
        }
    }

    #[test]
    fn retain_all_grows_linearly() {
        let mut g = Graph::new(Retention::RetainAll);
        let mut r = rng();
        let mut x = g.assume(&DistExpr::gaussian(0.0, 100.0), &mut r).unwrap();
        for step in 0..50 {
            g.observe(
                &DistExpr::gaussian(x.clone(), 1.0),
                &Value::Float(step as f64),
                &mut r,
            )
            .unwrap();
            x = g
                .assume(&DistExpr::gaussian(x.clone(), 1.0), &mut r)
                .unwrap();
            g.collect([var_of(&x)]).unwrap();
        }
        // The unrealized chain of positions grows by one per step; the
        // realized observations are folded and collected (matching the
        // original implementation, which removes edges at realization).
        assert!(
            (50..=55).contains(&g.live_nodes()),
            "live {}",
            g.live_nodes()
        );
    }

    #[test]
    fn kalman_recursion_matches_closed_form_filter() {
        // Run T steps of the paper's Kalman benchmark symbolically and
        // compare against a hand-rolled Kalman filter.
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let obs = [1.3, 0.7, -0.2, 2.5, 2.0, 1.1];
        let mut x = g.assume(&DistExpr::gaussian(0.0, 100.0), &mut r).unwrap();
        let (mut km, mut kv) = (0.0f64, 100.0f64);
        for (t, &y) in obs.iter().enumerate() {
            if t > 0 {
                x = g
                    .assume(&DistExpr::gaussian(x.clone(), 1.0), &mut r)
                    .unwrap();
                kv += 1.0;
            }
            g.observe(
                &DistExpr::gaussian(x.clone(), 1.0),
                &Value::Float(y),
                &mut r,
            )
            .unwrap();
            let gain = kv / (kv + 1.0);
            km += gain * (y - km);
            kv *= 1.0 - gain;
            let m = g.query(var_of(&x)).unwrap();
            assert!(
                (m.mean_float().unwrap() - km).abs() < 1e-9,
                "step {t}: {} vs {km}",
                m.mean_float().unwrap()
            );
            assert!((m.variance_float().unwrap() - kv).abs() < 1e-9, "step {t}");
        }
    }

    #[test]
    fn prune_realizes_competing_m_path() {
        // Two children of the same parent force a prune.
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let x = g.assume(&DistExpr::gaussian(0.0, 1.0), &mut r).unwrap();
        let y = g
            .assume(&DistExpr::gaussian(x.clone(), 1.0), &mut r)
            .unwrap();
        let z = g
            .assume(&DistExpr::gaussian(x.clone(), 1.0), &mut r)
            .unwrap();
        // Graft y (via observe). Then grafting z must prune y's M-path.
        g.observe(
            &DistExpr::gaussian(y.clone(), 1.0),
            &Value::Float(0.5),
            &mut r,
        )
        .unwrap();
        let _ = g.realize(var_of(&z), &mut r).unwrap();
        // After realizing z, y's path must have been handled consistently:
        // querying y still works and yields a valid marginal.
        let m = g.query(var_of(&y)).unwrap();
        assert!(m.mean_float().is_some());
    }

    #[test]
    fn non_conjugate_sampling_degrades_gracefully() {
        // Bernoulli with transformed Beta probability is not conjugate:
        // p/2 breaks the identity-link requirement.
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let p = g.assume(&DistExpr::beta(2.0, 2.0), &mut r).unwrap();
        let half_p = crate::ops::mul(&p, &Value::Float(0.5)).unwrap();
        let b = g.assume(&DistExpr::bernoulli(half_p), &mut r).unwrap();
        // The beta parent was forced to a value.
        assert_eq!(g.state_kind(var_of(&p)).unwrap(), StateKind::Realized);
        // And the child is a root with a concrete probability.
        let m = g.query(var_of(&b)).unwrap();
        assert!(matches!(m, Marginal::Bernoulli(_)));
    }

    #[test]
    fn gamma_poisson_scaled_link() {
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let lambda = g.assume(&DistExpr::gamma(2.0, 3.0), &mut r).unwrap();
        let rate = crate::ops::mul(&lambda, &Value::Float(2.0)).unwrap();
        g.observe(&DistExpr::poisson(rate), &Value::Int(4), &mut r)
            .unwrap();
        let m = g.query(var_of(&lambda)).unwrap();
        match m {
            Marginal::Gamma(d) => {
                assert_eq!((d.shape(), d.rate()), (6.0, 5.0));
            }
            other => panic!("expected gamma, got {other}"),
        }
    }

    #[test]
    fn dist_of_affine_image() {
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        let x = g.assume(&DistExpr::gaussian(1.0, 4.0), &mut r).unwrap();
        let e = crate::ops::add(
            &crate::ops::mul(&x, &Value::Float(3.0)).unwrap(),
            &Value::Float(2.0),
        )
        .unwrap();
        match g.dist_of(&e, &mut r).unwrap() {
            ValueDist::Marginal(Marginal::Gaussian(d)) => {
                assert!((d.mean_param() - 5.0).abs() < 1e-12);
                assert!((d.var_param() - 36.0).abs() < 1e-12);
            }
            other => panic!("expected gaussian marginal, got {other:?}"),
        }
    }

    #[test]
    fn collect_reuses_slots() {
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = rng();
        for _ in 0..100 {
            let _ = g.assume(&DistExpr::gaussian(0.0, 1.0), &mut r).unwrap();
            g.collect([]).unwrap();
        }
        assert_eq!(g.live_nodes(), 0);
        assert!(g.total_created() == 100);
        // Slab stayed small thanks to the free list.
        assert!(g.slots.len() <= 2, "slab grew to {}", g.slots.len());
        // All but the first allocation recycled a swept slot, and both
        // counters surface through the stats snapshot.
        assert_eq!(g.slots_reused(), 99);
        assert_eq!(g.capacity(), g.slots.len());
        let s = g.stats();
        assert_eq!(s.slots_reused, 99);
        assert_eq!(s.capacity, g.capacity());
        let mut merged = s;
        merged.merge(&s);
        assert_eq!(merged.slots_reused, 198);
        assert_eq!(merged.capacity, 2 * s.capacity);
    }

    /// Runs `ops` on a fresh graph: `(0, _, x)` assumes a root
    /// `N(x, 1)`, `(1, i, _)` a child of a live variable, `(2, i, x)`
    /// observes `x` under a live variable, and `(3, i, _)` collects with
    /// every other live variable as a root, so the sweep frees slots.
    fn replay(ops: &[(u8, usize, f64)], seed: u64) -> Graph {
        let mut g = Graph::new(Retention::PointerMinimal);
        let mut r = SmallRng::seed_from_u64(seed);
        let mut live: Vec<Value> = Vec::new();
        for &(kind, i, x) in ops {
            let pick = (!live.is_empty()).then(|| live[i % live.len()].clone());
            match (kind, pick) {
                (0, _) | (1 | 2, None) => {
                    live.push(g.assume(&DistExpr::gaussian(x, 1.0), &mut r).unwrap());
                }
                (1, Some(v)) => live.push(g.assume(&DistExpr::gaussian(v, 1.0), &mut r).unwrap()),
                (2, Some(v)) => {
                    g.observe(&DistExpr::gaussian(v, 1.0), &Value::Float(x), &mut r)
                        .unwrap();
                }
                _ => {
                    let mut k = i;
                    live.retain(|_| {
                        k += 1;
                        k % 2 == 0
                    });
                    g.collect(live.iter().filter_map(Graph::sym_var)).unwrap();
                }
            }
        }
        g
    }

    proptest::proptest! {
        /// `clone_from` into a graph of any other history yields exactly
        /// `clone`: the same slots, free list and counters, and the two
        /// copies evolve identically afterwards.
        #[test]
        fn clone_from_equals_clone(
            a_ops in proptest::collection::vec((0u8..4, 0usize..16, -2.0f64..2.0), 0..40),
            b_ops in proptest::collection::vec((0u8..4, 0usize..16, -2.0f64..2.0), 0..40),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let a = replay(&a_ops, seed);
            let mut b = replay(&b_ops, seed ^ 1);
            b.clone_from(&a);
            let mut c = a.clone();
            // The derived equality compares every field: the slots, the
            // free list in order, and the counters.
            proptest::prop_assert_eq!(&b, &c);
            proptest::prop_assert_eq!(&b, &a);
            let mut rb = SmallRng::seed_from_u64(seed);
            let mut rc = SmallRng::seed_from_u64(seed);
            for x in [0.5, -1.0, 2.0] {
                let vb = b.assume(&DistExpr::gaussian(x, 1.0), &mut rb).unwrap();
                let vc = c.assume(&DistExpr::gaussian(x, 1.0), &mut rc).unwrap();
                proptest::prop_assert_eq!(vb, vc);
            }
            proptest::prop_assert_eq!(b, c);
        }
    }
}
