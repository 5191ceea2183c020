//! Lowering µF transition closures to the flat instruction tape of
//! [`crate::tape`].
//!
//! Lowering is a compile-time abstract interpretation of the closure
//! body: every expression evaluates to a [`Place`] — a register, a
//! compile-time tuple of places (tuples stay unpacked until something
//! forces a value), or a statically-known global closure. Beta-redexes
//! and calls to global closures are inlined, so the per-particle tape for
//! a compiled node is one straight-line instruction stream with jumps
//! only for `if`; only a callee longer than [`INLINE_OPS`] lowers once to
//! a sub-program that each of its calls runs ([`Op::Call`]), so the tape
//! grows with the program, not with its call tree. Names are resolved entirely at lowering time: lexical
//! binders become places, captured-environment names become registered
//! env slots (reloaded from the engine's closure once per tick), and
//! globals are resolved once — the steady state does zero name lookups
//! and zero `Env` operations.
//!
//! Lowering is total-or-nothing: a construct the tape cannot run by
//! itself (a closure applied from a register, a call to a closure that
//! captured an environment or to itself, an escaping closure, shape and
//! arity surprises) refuses the whole transition with a
//! reason, and the engine or instance being built fails with it (DESIGN
//! §2.13 lists which of these source programs reach). No op hands a
//! single call back to the interpreter. The evaluation order of emitted
//! ops mirrors the interpreter's recursion exactly, so effects (sampling,
//! observation, RNG consumption) happen in the same sequence bit-for-bit.
//!
//! An `infer` becomes [`Op::Infer`], in a driver tape ([`lower_driver`])
//! or a particle's ([`lower_closure`], nested inference): it steps the
//! engine held in a state register, after re-closing the transition over
//! the registers of the hosting step's bindings it reads. An engine's own
//! transition lowers when the engine is allocated, before that site binds
//! anything, so a free name that neither its environment nor a global
//! binds is an environment slot: the site binds it before every step.
//!
//! Three passes then finish the tape: a peephole pass fuses each
//! distribution constructor into the `sample`/`observe` that is the sole
//! reader of its value, and each product into the `add` that is the sole
//! reader of its value ([`fuse_pairs`]); [`prologue_len`] marks the
//! leading projections of the tick input and the captured environment,
//! which the step runs once per tick instead of once per particle; and
//! [`last_uses`] marks the operands an op reads for the last time, which
//! the tape takes instead of copying. A particle tape then gets its steady
//! program (`steady_program`), which every step after a particle's first
//! runs: the slots that are constant from then on, such as the `->`
//! flags, become constants, the selects on them moves, and copy
//! propagation ([`propagate_copies`]) hands each move's readers its
//! source, so the moves go.

use crate::ast::OpName;
use crate::eval::{const_value, dist_expr, Interp};
use crate::muf::{Closure, Env, MufExpr, MufPat, MufValue};
use crate::tape::{
    split_state, InferSite, Op, OutSpec, Reg, StateOut, StateShape, Steady, TapeProgram,
};
use probzelus_core::value::Value;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// The longest callee body copied into its caller: a longer one lowers
/// once to a sub-program that each call runs, so the tape grows with the
/// program text rather than with its call tree.
const INLINE_OPS: usize = 256;

type LowerResult<T> = Result<T, String>;

/// Compile-time value descriptor.
#[derive(Clone)]
enum Place {
    /// Lives in a register at runtime.
    Reg(Reg),
    /// A tuple kept unpacked in element places.
    Tuple(Vec<Place>),
    /// A statically-known closure (from the immutable globals).
    Global(MufValue),
}

enum ScopeEntry {
    Bind(String, Place),
    /// Lexical barrier at an inlined global's body: names beyond it
    /// resolve through globals only (inlining requires the callee's
    /// captured environment to be empty).
    Boundary,
}

struct Lower<'a> {
    interp: &'a Rc<Interp>,
    /// The lowered closure's captured environment (names only; values are
    /// re-read into env-slot registers at runtime).
    captured: &'a Env,
    ops: Vec<Op>,
    consts: Vec<Op>,
    scope: Vec<ScopeEntry>,
    env_slots: Vec<(String, Reg)>,
    /// Globals already interned into the constant pool: `(name, reg)`.
    global_regs: Vec<(String, Reg)>,
    reg_names: Vec<String>,
    next_reg: Reg,
    /// The bodies of the global closures being inlined, outermost first:
    /// a call to one of them is recursive, which inlining cannot unroll.
    inlining: Vec<*const MufExpr>,
    unit: Option<Reg>,
    /// Per callee body met so far, the sub-program its calls run, or
    /// `None` where calls copy it; and the sub-programs.
    calls: HashMap<*const MufExpr, Option<u32>>,
    subs: Vec<TapeProgram>,
}

impl<'a> Lower<'a> {
    fn new(interp: &'a Rc<Interp>, captured: &'a Env) -> Lower<'a> {
        Lower {
            interp,
            captured,
            ops: Vec::new(),
            consts: Vec::new(),
            scope: Vec::new(),
            env_slots: Vec::new(),
            global_regs: Vec::new(),
            reg_names: Vec::new(),
            next_reg: 0,
            inlining: Vec::new(),
            unit: None,
            calls: HashMap::new(),
            subs: Vec::new(),
        }
    }

    fn fresh(&mut self, name: &str) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        self.reg_names.push(name.to_string());
        r
    }

    fn emit(&mut self, op: Op) {
        self.ops.push(op);
    }

    fn const_reg(&mut self, v: MufValue, name: &str) -> Reg {
        let r = self.fresh(name);
        self.consts.push(Op::Const { dst: r, v });
        r
    }

    fn unit_reg(&mut self) -> Reg {
        if let Some(r) = self.unit {
            return r;
        }
        let r = self.const_reg(MufValue::unit(), "unit");
        self.unit = Some(r);
        r
    }

    /// Name resolution, mirroring the interpreter's order: lexical scope,
    /// then the closure's captured environment, then globals.
    fn resolve(&mut self, name: &str) -> LowerResult<Place> {
        if let Some(p) = self.resolve_local(name) {
            return Ok(p);
        }
        match self.interp.global(name) {
            Some(v @ MufValue::Closure(_)) => Ok(Place::Global(v)),
            Some(v) => {
                if let Some((_, r)) = self.global_regs.iter().find(|(n, _)| n == name) {
                    return Ok(Place::Reg(*r));
                }
                let r = self.const_reg(v, name);
                self.global_regs.push((name.to_string(), r));
                Ok(Place::Reg(r))
            }
            None => Err(format!("unbound variable `{name}`")),
        }
    }

    /// The place of a name the interpreter's environment binds at this
    /// point: the lexical scope, then (outside an inlined global's body)
    /// the closure's captured environment, whose slots also hold every
    /// name no global defines (the module docs say why). `None` for a
    /// global.
    fn resolve_local(&mut self, name: &str) -> Option<Place> {
        for e in self.scope.iter().rev() {
            match e {
                ScopeEntry::Bind(n, p) if n == name => return Some(p.clone()),
                ScopeEntry::Boundary => return None,
                ScopeEntry::Bind(..) => {}
            }
        }
        if self.captured.lookup(name).is_none() && self.interp.global(name).is_some() {
            return None;
        }
        if let Some((_, r)) = self.env_slots.iter().find(|(n, _)| n == name) {
            return Some(Place::Reg(*r));
        }
        let r = self.fresh(name);
        self.env_slots.push((name.to_string(), r));
        Some(Place::Reg(r))
    }

    /// Forces a place into a single register (emitting `MkTuple` for
    /// unpacked tuples, interning global closures as constants).
    fn materialize(&mut self, p: &Place, name: &str) -> LowerResult<Reg> {
        match p {
            Place::Reg(r) => Ok(*r),
            Place::Tuple(items) => {
                let regs: Vec<Reg> = items
                    .iter()
                    .map(|i| self.materialize(i, name))
                    .collect::<Result<_, _>>()?;
                let dst = self.fresh(name);
                self.emit(Op::MkTuple { dst, items: regs });
                Ok(dst)
            }
            Place::Global(v) => Ok(self.const_reg(v.clone(), name)),
        }
    }

    /// The join point of two `if` arms: where both arms return tuples of
    /// the same arity it stays a tuple, where both return the same
    /// register (necessarily defined before the `if`: every register an
    /// arm defines is fresh) it is that register, and every other
    /// position gets one fresh register.
    fn join_place(&mut self, a: &Place, b: &Place) -> Place {
        match (a, b) {
            (Place::Reg(x), Place::Reg(y)) if x == y => Place::Reg(*x),
            (Place::Tuple(xs), Place::Tuple(ys)) if xs.len() == ys.len() => Place::Tuple(
                xs.iter()
                    .zip(ys)
                    .map(|(x, y)| self.join_place(x, y))
                    .collect(),
            ),
            _ => Place::Reg(self.fresh("if")),
        }
    }

    /// Moves an arm's result into the join place leaf by leaf,
    /// materializing the subtrees that meet a single join register.
    fn move_into(&mut self, dst: &Place, p: &Place) -> LowerResult<()> {
        match (dst, p) {
            (Place::Tuple(ds), Place::Tuple(ps)) if ds.len() == ps.len() => {
                for (d, p) in ds.iter().zip(ps) {
                    self.move_into(d, p)?;
                }
                Ok(())
            }
            (Place::Reg(dst), p) => {
                let src = self.materialize(p, "join")?;
                if src != *dst {
                    self.emit(Op::Move { dst: *dst, src });
                }
                Ok(())
            }
            _ => Err("if arm does not fit its join point".into()),
        }
    }

    /// Compile-time pattern binding. Tuple patterns against tuple places
    /// bind element-wise with zero ops; against a register they emit
    /// runtime `Proj`s (whose semantics mirror the interpreter's
    /// `bind_pattern`, including `nil` spreading and core pairs).
    fn bind_pat(&mut self, pat: &MufPat, place: Place) -> LowerResult<()> {
        match (pat, place) {
            (MufPat::Wildcard, _) | (MufPat::Unit, _) => Ok(()),
            (MufPat::Var(x), p) => {
                self.scope.push(ScopeEntry::Bind(x.clone(), p));
                Ok(())
            }
            (MufPat::Tuple(ps), Place::Tuple(items)) => {
                if ps.len() != items.len() {
                    return Err(format!(
                        "tuple arity mismatch: pattern {} vs value {}",
                        ps.len(),
                        items.len()
                    ));
                }
                for (p, i) in ps.iter().zip(items) {
                    self.bind_pat(p, i)?;
                }
                Ok(())
            }
            (MufPat::Tuple(ps), Place::Reg(src)) => {
                let arity = ps.len() as u32;
                for (i, p) in ps.iter().enumerate() {
                    let dst = self.fresh(&pat_name(p));
                    self.emit(Op::Proj {
                        dst,
                        src,
                        idx: i as u32,
                        arity,
                    });
                    self.bind_pat(p, Place::Reg(dst))?;
                }
                Ok(())
            }
            (MufPat::Tuple(_), Place::Global(_)) => Err("cannot destructure a closure".into()),
        }
    }

    fn lower(&mut self, e: &MufExpr) -> LowerResult<Place> {
        match e {
            MufExpr::Const(c) => Ok(Place::Reg(self.const_reg(const_value(c), "const"))),
            MufExpr::Var(x) => self.resolve(x),
            MufExpr::Tuple(xs) => Ok(Place::Tuple(
                xs.iter().map(|x| self.lower(x)).collect::<Result<_, _>>()?,
            )),
            MufExpr::Op(op, args) => self.lower_op(*op, args),
            MufExpr::If(c, t, f) => {
                let pc = self.lower(c)?;
                let cond = self.materialize(&pc, "cond")?;
                let jfalse = self.ops.len();
                self.emit(Op::JmpIfNot { cond, target: 0 });
                let save = self.scope.len();
                let pt = self.lower(t)?;
                self.scope.truncate(save);
                // The join's shape needs both arms' places before the then
                // arm's moves are emitted, so the else arm is lowered into a
                // buffer of its own and spliced in after the jump.
                let outer = std::mem::take(&mut self.ops);
                let pf = self.lower(f);
                let else_ops = std::mem::replace(&mut self.ops, outer);
                let pf = pf?;
                self.scope.truncate(save);
                let dst = self.join_place(&pt, &pf);
                self.move_into(&dst, &pt)?;
                let jend = self.ops.len();
                self.emit(Op::Jmp { target: 0 });
                let else_at = self.ops.len() as u32;
                self.patch(jfalse, else_at);
                self.ops.extend(else_ops.into_iter().map(|mut op| {
                    if let Op::Jmp { target } | Op::JmpIfNot { target, .. } = &mut op {
                        *target += else_at;
                    }
                    op
                }));
                self.move_into(&dst, &pf)?;
                let end_at = self.ops.len() as u32;
                self.patch(jend, end_at);
                Ok(dst)
            }
            MufExpr::Select(c, t, f) => {
                let pc = self.lower(c)?;
                let pt = self.lower(t)?;
                let pf = self.lower(f)?;
                let cond = self.materialize(&pc, "cond")?;
                let t = self.materialize(&pt, "then")?;
                let f = self.materialize(&pf, "else")?;
                let dst = self.fresh("select");
                self.emit(Op::Select { dst, cond, t, f });
                Ok(Place::Reg(dst))
            }
            MufExpr::App(f, a) => self.lower_app(f, a),
            MufExpr::Let(pat, bound, body) => {
                let pb = self.lower(bound)?;
                let save = self.scope.len();
                self.bind_pat(pat, pb)?;
                let out = self.lower(body);
                self.scope.truncate(save);
                out
            }
            MufExpr::Fun(..) => Err("a closure escapes to a value position".into()),
            MufExpr::Sample(d) => {
                let pd = self.lower(d)?;
                let dist = self.materialize(&pd, "dist")?;
                let dst = self.fresh("sample");
                self.emit(Op::Sample { dst, dist });
                Ok(Place::Reg(dst))
            }
            MufExpr::Observe(d, o) => {
                let pd = self.lower(d)?;
                let dist = self.materialize(&pd, "dist")?;
                let po = self.lower(o)?;
                let obs = self.materialize(&po, "obs")?;
                self.emit(Op::Observe { dist, obs });
                Ok(Place::Reg(self.unit_reg()))
            }
            MufExpr::Factor(w) => {
                let pw = self.lower(w)?;
                let w = self.materialize(&pw, "weight")?;
                self.emit(Op::Factor { w });
                Ok(Place::Reg(self.unit_reg()))
            }
            MufExpr::ValueOp(x) => {
                let px = self.lower(x)?;
                let src = self.materialize(&px, "value")?;
                let dst = self.fresh("value");
                self.emit(Op::Value { dst, src });
                Ok(Place::Reg(dst))
            }
            MufExpr::Freshen(inner) => {
                let p = self.lower(inner)?;
                self.freshen_place(&p)
            }
            MufExpr::Infer { body, state, .. } => self.lower_infer(body, state),
            MufExpr::EngineInit { .. } => Err("a step allocates an engine".into()),
        }
    }

    /// An `infer` site: the interpreter closes the transition `fun pat ->
    /// body` over its environment, then steps the engine `state`
    /// evaluates to, yielding `(posterior, engine)`. The op captures the
    /// registers of the transition's free names that the environment
    /// binds (the rest are globals, which the transition resolves
    /// itself), and the engine handle stays in its register.
    fn lower_infer(&mut self, body: &MufExpr, state: &MufExpr) -> LowerResult<Place> {
        let MufExpr::Fun(pat, fun_body) = body else {
            return Err("an `infer` transition is not a `fun`".into());
        };
        let mut names = Vec::new();
        free_names(body, &mut Vec::new(), &mut names);
        let mut captures = Vec::new();
        for name in names {
            if let Some(p) = self.resolve_local(&name) {
                let r = self.materialize(&p, &name)?;
                captures.push((name, r));
            }
        }
        let ps = self.lower(state)?;
        let engine = self.materialize(&ps, "sigma")?;
        let dst = self.fresh("posterior");
        self.emit(Op::Infer {
            dst,
            engine,
            site: Box::new(InferSite {
                pat: pat.clone(),
                body: Rc::clone(fun_body),
                captures,
            }),
        });
        Ok(Place::Tuple(vec![Place::Reg(dst), Place::Reg(engine)]))
    }

    fn lower_op(&mut self, op: OpName, args: &[MufExpr]) -> LowerResult<Place> {
        let places: Vec<Place> = args
            .iter()
            .map(|a| self.lower(a))
            .collect::<Result<_, _>>()?;
        // Projections on syntactic tuples — the interpreter's tuple fast
        // path, resolved at lowering time (a tuple place is never `nil`
        // itself, so the poison check cannot fire first).
        if matches!(op, OpName::Fst | OpName::Snd) && places.len() == 1 {
            if let Place::Tuple(items) = &places[0] {
                return match (op, items.len()) {
                    (OpName::Fst, n) if n >= 1 => Ok(items[0].clone()),
                    (OpName::Snd, 2) => Ok(items[1].clone()),
                    (OpName::Snd, n) if n > 2 => Ok(Place::Tuple(items[1..].to_vec())),
                    _ => Err("projection from empty tuple".into()),
                };
            }
        }
        let regs: Vec<Reg> = places
            .iter()
            .map(|p| self.materialize(p, "arg"))
            .collect::<Result<_, _>>()?;
        let dst = self.fresh(&format!("{op:?}").to_lowercase());
        match regs.as_slice() {
            [a] => self.emit(Op::UnOp { op, dst, a: *a }),
            [a, b] => self.emit(Op::BinOp {
                op,
                dst,
                a: *a,
                b: *b,
            }),
            [a, b, c] => self.emit(Op::TernOp {
                op,
                dst,
                a: *a,
                b: *b,
                c: *c,
            }),
            _ => return Err(format!("operator {op:?} with {} arguments", regs.len())),
        }
        Ok(Place::Reg(dst))
    }

    fn lower_app(&mut self, f: &MufExpr, a: &MufExpr) -> LowerResult<Place> {
        // Beta-redex: bind the argument's places straight into scope (the
        // closure would capture exactly the current environment, so the
        // binding is lexically transparent).
        if let MufExpr::Fun(pat, body) = f {
            let pa = self.lower(a)?;
            let save = self.scope.len();
            self.bind_pat(pat, pa)?;
            let out = self.lower(body);
            self.scope.truncate(save);
            return out;
        }
        let pf = self.lower(f)?;
        let pa = self.lower(a)?;
        match pf {
            Place::Global(v) => self.inline(v, pa),
            Place::Reg(_) => Err("a closure is applied from a register".into()),
            Place::Tuple(_) => Err("cannot apply a tuple".into()),
        }
    }

    /// Lowers a call to a global closure: copied into the caller, or
    /// where its body lowers to more than [`INLINE_OPS`] ops, a
    /// [`Op::Call`] of the sub-program it lowers to once. Only a closure
    /// with an empty environment lowers: its body names nothing but its
    /// parameters and globals. A compiled node calls only earlier nodes,
    /// so calls nest as deep as the program's chain of nodes, and never
    /// recurse.
    fn inline(&mut self, v: MufValue, pa: Place) -> LowerResult<Place> {
        let MufValue::Closure(c) = &v else {
            return Err(format!("cannot apply a {}", v.kind()));
        };
        if !c.env.is_empty() {
            return Err("a called closure captures an environment".into());
        }
        let body = Rc::as_ptr(&c.body);
        if self.inlining.contains(&body) {
            return Err("a closure calls itself".into());
        }
        let sub = match self.calls.get(&body) {
            Some(&sub) => sub,
            None => self.lower_sub(c)?,
        };
        if let Some(sub) = sub {
            let arg = self.materialize(&pa, "arg")?;
            let dst = self.fresh("call");
            self.emit(Op::Call { dst, arg, sub });
            return Ok(Place::Reg(dst));
        }
        self.inlining.push(body);
        let save = self.scope.len();
        self.scope.push(ScopeEntry::Boundary);
        let out = self.bind_pat(&c.pat, pa).and_then(|()| self.lower(&c.body));
        self.scope.truncate(save);
        self.inlining.pop();
        out
    }

    /// Lowers callee `c` on its own register file, which decides how its
    /// calls lower: when its ops outnumber [`INLINE_OPS`] it becomes a
    /// sub-program, else calls copy it. The callees it calls are decided
    /// (and become sub-programs) while it lowers.
    fn lower_sub(&mut self, c: &Closure) -> LowerResult<Option<u32>> {
        let empty = Env::empty();
        let mut lw = Lower::new(self.interp, &empty);
        lw.inlining = self.inlining.clone();
        lw.inlining.push(Rc::as_ptr(&c.body));
        lw.calls = std::mem::take(&mut self.calls);
        lw.subs = std::mem::take(&mut self.subs);
        lw.scope.push(ScopeEntry::Boundary);
        let input = lw.fresh("arg");
        let place = lw
            .bind_pat(&c.pat, Place::Reg(input))
            .and_then(|()| lw.lower(&c.body));
        self.calls = std::mem::take(&mut lw.calls);
        self.subs = std::mem::take(&mut lw.subs);
        let out = lw.materialize(&place?, "ret")?;
        let sub = (lw.ops.len() > INLINE_OPS).then_some(self.subs.len() as u32);
        self.calls.insert(Rc::as_ptr(&c.body), sub);
        if sub.is_some() {
            let ops = fuse_pairs(lw.ops, &OutSpec::Reg(out), &[out]);
            self.subs.push(TapeProgram {
                takes: last_uses(&ops, 0, &[input], [out]),
                state_out: state_out_modes(&ops, &[input], &[out]),
                consts: lw.consts,
                ops,
                prologue: 0,
                num_regs: lw.next_reg,
                input: None,
                state_in: vec![input],
                out: OutSpec::Reg(out),
                env_slots: Vec::new(),
                init_slots: Vec::new(),
                shape: StateShape::Leaf,
                body_ptr: Rc::as_ptr(&c.body) as usize,
                reg_names: lw.reg_names,
                steady: None,
                subs: Vec::new(),
            });
        }
        Ok(sub)
    }

    fn freshen_place(&mut self, p: &Place) -> LowerResult<Place> {
        match p {
            Place::Reg(src) => {
                let dst = self.fresh("fresh");
                self.emit(Op::Freshen { dst, src: *src });
                Ok(Place::Reg(dst))
            }
            Place::Tuple(items) => Ok(Place::Tuple(
                items
                    .iter()
                    .map(|i| self.freshen_place(i))
                    .collect::<Result<_, _>>()?,
            )),
            // Closures deep-clone to themselves.
            Place::Global(v) => Ok(Place::Global(v.clone())),
        }
    }

    fn patch(&mut self, at: usize, target: u32) {
        if let Op::Jmp { target: t } | Op::JmpIfNot { target: t, .. } = &mut self.ops[at] {
            *t = target;
        }
    }

    /// Builds the state's register places following the state shape:
    /// one register per leaf, which doubles as that slot's state-in
    /// register. Leaves take the pattern's variable name where it has one,
    /// else a dotted path below the nearest named ancestor.
    fn place_of_shape(
        &mut self,
        shape: &StateShape,
        pat: Option<&MufPat>,
        name: &str,
    ) -> (Place, Vec<Reg>) {
        let name = match pat {
            Some(MufPat::Var(x)) => x.as_str(),
            _ => name,
        };
        match shape {
            StateShape::Leaf => {
                let r = self.fresh(name);
                (Place::Reg(r), vec![r])
            }
            StateShape::Node(children) => {
                let pats = match pat {
                    Some(MufPat::Tuple(ps)) => Some(ps),
                    _ => None,
                };
                let mut places = Vec::with_capacity(children.len());
                let mut regs = Vec::new();
                for (i, ch) in children.iter().enumerate() {
                    let (p, rs) = self.place_of_shape(
                        ch,
                        pats.and_then(|ps| ps.get(i)),
                        &format!("{name}.{i}"),
                    );
                    places.push(p);
                    regs.extend(rs);
                }
                (Place::Tuple(places), regs)
            }
        }
    }

    fn out_spec(&mut self, p: &Place) -> LowerResult<OutSpec> {
        match p {
            Place::Reg(r) => Ok(OutSpec::Reg(*r)),
            Place::Tuple(items) => Ok(OutSpec::Tuple(
                items
                    .iter()
                    .map(|i| self.out_spec(i))
                    .collect::<Result<_, _>>()?,
            )),
            Place::Global(_) => Err("a closure reaches the output".into()),
        }
    }

    /// Assigns the successor-state place to flat out-registers following
    /// the state shape (already trimmed to the place by [`trim_shape`]).
    fn bind_state_out(&mut self, p: &Place, shape: &StateShape) -> LowerResult<Vec<Reg>> {
        match (p, shape) {
            (_, StateShape::Leaf) => Ok(vec![self.materialize(p, "state")?]),
            (Place::Tuple(items), StateShape::Node(children)) if items.len() == children.len() => {
                let mut out = Vec::new();
                for (i, ch) in items.iter().zip(children) {
                    out.extend(self.bind_state_out(i, ch)?);
                }
                Ok(out)
            }
            _ => Err("successor state does not fit the state shape".into()),
        }
    }
}

/// The part of `shape` the successor state `next` rebuilds as tuples at
/// lowering time. Every other subtree is kept whole in one slot, so the
/// flat slots always join back to exactly the value the interpreter
/// would hold, and no runtime projection ever touches the state.
fn trim_shape(shape: &StateShape, next: &Place) -> StateShape {
    match (shape, next) {
        (StateShape::Node(children), Place::Tuple(items)) if children.len() == items.len() => {
            StateShape::Node(
                children
                    .iter()
                    .zip(items)
                    .map(|(c, i)| trim_shape(c, i))
                    .collect(),
            )
        }
        _ => StateShape::Leaf,
    }
}

/// How many times each register is read: by an op, by the output, or as
/// the source of a successor-state slot.
fn read_counts(ops: &[Op], out: &OutSpec, state_out: &[Reg]) -> HashMap<Reg, usize> {
    let mut reads = HashMap::new();
    for r in ops
        .iter()
        .flat_map(Op::reads)
        .chain(out.regs())
        .chain(state_out.iter().copied())
    {
        *reads.entry(r).or_default() += 1;
    }
    reads
}

/// Decides per successor-state slot whether stepping moves or clones it.
/// `body` is the tape after its prologue, `loaded` the registers loaded
/// before it runs at every step (the state-in registers, and a driver's
/// input and environment) and `regs` the successor-state source of each
/// slot. A register the body writes, or a loaded one, is rewritten before
/// it is next read, so its last slot takes the value; constants, and a
/// particle tape's captured-environment slots, input and prologue
/// registers (loaded once per tick, read by every particle), and earlier
/// duplicates are cloned. A register reaches the successor state
/// from inside an `if` only as a join register, written on both paths,
/// or as one defined before the `if`, so "written" means written every
/// step.
fn state_out_modes(body: &[Op], loaded: &[Reg], regs: &[Reg]) -> Vec<StateOut> {
    let mut loaded: HashSet<Reg> = body
        .iter()
        .filter_map(Op::dst)
        .chain(loaded.iter().copied())
        .collect();
    let mut modes: Vec<StateOut> = regs
        .iter()
        .rev()
        .map(|&r| {
            if loaded.remove(&r) {
                StateOut::Move(r)
            } else {
                StateOut::Clone(r)
            }
        })
        .collect();
    modes.reverse();
    modes
}

/// Marks, per op, the operands it reads for the last time (bit `i` for
/// the `i`-th register of [`Op::reads`]; see [`TapeProgram::takes`]).
/// `ops` is the whole tape, its first `prologue` ops the prologue,
/// `loaded` as for [`state_out_modes`], and `end_reads` the registers the
/// output and the successor state read after the last op.
///
/// Past the prologue the rule is [`state_out_modes`']: only a register
/// the body writes, or a loaded one, is rewritten before it is next read,
/// so only such a register can be taken; constants, and a particle tape's
/// captured-environment slots, input and prologue registers, are read by
/// every particle and never are. The prologue reads only the input, the
/// environment and its own registers, which the once-per-tick load
/// rewrites before they are next read (a failed load is retried whole),
/// so there any register can be taken. An operand is taken when no later
/// op in tape order reads it, the end does not read it, and the op does
/// not read it twice; the walk runs back through the body into the
/// prologue, so a register the body reads is never taken there. Jumps
/// only go forward, so "later in tape order" covers every path out of the
/// op (and some that do not pass it, which only keeps a value longer).
/// Only the ops that take operands get a mask: `Move`, `Proj`, `Select`,
/// arithmetic `BinOp`s, `AddMul` and `Call`.
fn last_uses(
    ops: &[Op],
    prologue: usize,
    loaded: &[Reg],
    end_reads: impl IntoIterator<Item = Reg>,
) -> Vec<u8> {
    let loaded: HashSet<Reg> = ops[prologue..]
        .iter()
        .filter_map(Op::dst)
        .chain(loaded.iter().copied())
        .collect();
    let mut read_later: HashSet<Reg> = end_reads.into_iter().collect();
    let mut takes = vec![0u8; ops.len()];
    for (pc, (op, mask)) in ops.iter().zip(&mut takes).enumerate().rev() {
        let reads = op.reads();
        let takes_operands = matches!(
            op,
            Op::Move { .. }
                | Op::Call { .. }
                | Op::Proj { .. }
                | Op::Select { .. }
                | Op::AddMul { .. }
                | Op::BinOp {
                    op: OpName::Add | OpName::Sub | OpName::Mul,
                    ..
                }
        );
        if takes_operands {
            for (i, r) in reads.iter().enumerate() {
                let once = reads.iter().filter(|&s| s == r).count() == 1;
                let rewritten = pc < prologue || loaded.contains(r);
                if once && rewritten && !read_later.contains(r) {
                    *mask |= 1 << i;
                }
            }
        }
        read_later.extend(reads);
    }
    takes
}

/// Fuses adjacent pairs of ops into one, by two rules:
///
/// - a distribution constructor (`UnOp`/`BinOp` of a distribution
///   family) and the `Sample`/`Observe` right after it become one
///   [`Op::SampleDist`]/[`Op::ObserveDist`], so the distribution is built
///   on the stack;
/// - `t = a * b` and the `add` right after it that reads `t` once become
///   one [`Op::AddMul`], so a product that scales an affine term is never
///   built.
///
/// Either pair fuses only when the second op is the only reader of the
/// first's value (no other op, no state-out slot and no output reads it)
/// and no jump lands on the second op. The pair is adjacent, so fusing
/// moves no effect and no error across another op; a distribution that
/// escapes to a value keeps its boxed form. Jump targets are remapped to
/// the shortened tape.
fn fuse_pairs(ops: Vec<Op>, out: &OutSpec, state_out: &[Reg]) -> Vec<Op> {
    let reads = read_counts(&ops, out, state_out);
    let targets: HashSet<u32> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Jmp { target } | Op::JmpIfNot { target, .. } => Some(*target),
            _ => None,
        })
        .collect();
    let fuse = |first: &Op, second: &Op| -> Option<Op> {
        let d = first.dst()?;
        if reads.get(&d) != Some(&1) {
            return None;
        }
        if let (
            Op::BinOp {
                op: OpName::Mul,
                a,
                b,
                ..
            },
            Op::BinOp {
                op: OpName::Add,
                dst,
                a: l,
                b: r,
            },
        ) = (first, second)
        {
            let (x, product_first) = match (*l == d, *r == d) {
                (false, true) => (*l, false),
                (true, false) => (*r, true),
                _ => return None,
            };
            return Some(Op::AddMul {
                dst: *dst,
                x,
                a: *a,
                b: *b,
                product_first,
            });
        }
        let (op, args) = match *first {
            Op::UnOp { op, a, .. } => (op, vec![a]),
            Op::BinOp { op, a, b, .. } => (op, vec![a, b]),
            _ => return None,
        };
        // Only a distribution constructor builds one.
        dist_expr(op, Default::default())?;
        match *second {
            Op::Sample { dst, dist } if dist == d => Some(Op::SampleDist { op, dst, args }),
            Op::Observe { dist, obs } if dist == d => Some(Op::ObserveDist { op, args, obs }),
            _ => None,
        }
    };
    // `new_at[i]`: the index of op `i` in the fused tape (for a fused
    // consumer, the index of the fused op).
    let mut new_at = Vec::with_capacity(ops.len() + 1);
    let mut fused = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        new_at.push(fused.len() as u32);
        let pair = ops
            .get(i + 1)
            .filter(|_| !targets.contains(&(i as u32 + 1)))
            .and_then(|next| fuse(&ops[i], next));
        match pair {
            Some(op) => {
                new_at.push(fused.len() as u32);
                fused.push(op);
                i += 2;
            }
            None => {
                fused.push(ops[i].clone());
                i += 1;
            }
        }
    }
    new_at.push(fused.len() as u32);
    retarget(&mut fused, &new_at);
    fused
}

/// Points every jump of a rewritten tape at the new index of its target:
/// `new_at[i]` is where old op `i` now is, or for a dropped op the next
/// op that is kept.
fn retarget(ops: &mut [Op], new_at: &[u32]) {
    for op in ops {
        if let Op::Jmp { target } | Op::JmpIfNot { target, .. } = op {
            *target = new_at[*target as usize];
        }
    }
}

/// Copy propagation over a steady program, where the selects on pinned
/// flags have become moves. A `Move` hands its readers its source instead
/// of its destination when
///
/// - no other op writes the destination, and the destination is not an
///   output register (the output is shared with the first-instant
///   program, so a move into it stays);
/// - no op after the move writes the source, so the source holds the
///   moved value wherever the destination would: a constant, a pinned or
///   state-in register, a prologue register, or a register written once
///   before the move;
/// - the move runs on every path to each reader: every reader comes after
///   it, and no jump from before it lands between it and the reader (the
///   end, for a successor-state slot). A join register, written in both
///   arms of an `if`, is never a candidate.
///
/// Chains resolve in tape order, so a copy of a copy reads the first
/// source. Then every `Move` whose destination nothing reads is dropped,
/// until none is left, and so is every `Jmp` that only skips dropped ops;
/// jump targets are remapped as [`fuse_pairs`] does. Returns the new ops
/// and each successor-state slot's new source.
fn propagate_copies(mut ops: Vec<Op>, out: &OutSpec, state_out: &[Reg]) -> (Vec<Op>, Vec<Reg>) {
    let end = ops.len();
    let mut writes: HashMap<Reg, Vec<usize>> = HashMap::new();
    let mut reads: HashMap<Reg, Vec<usize>> = HashMap::new();
    let mut jumps = Vec::new();
    for (pc, op) in ops.iter().enumerate() {
        if let Some(d) = op.dst() {
            writes.entry(d).or_default().push(pc);
        }
        for r in op.reads() {
            reads.entry(r).or_default().push(pc);
        }
        if let Op::Jmp { target } | Op::JmpIfNot { target, .. } = *op {
            jumps.push((pc, target as usize));
        }
    }
    for &r in state_out {
        reads.entry(r).or_default().push(end);
    }
    let outputs = out.regs();
    // Whether the op at `m` runs on every path to `k`.
    let dominates =
        |m: usize, k: usize| m < k && !jumps.iter().any(|&(j, t)| j < m && m < t && t <= k);
    let mut subst: HashMap<Reg, Reg> = HashMap::new();
    for (m, op) in ops.iter().enumerate() {
        let Op::Move { dst, src } = *op else {
            continue;
        };
        let candidate = writes[&dst] == [m]
            && !outputs.contains(&dst)
            && writes.get(&src).is_none_or(|w| w.iter().all(|&pc| pc < m))
            && reads
                .get(&dst)
                .is_none_or(|rs| rs.iter().all(|&k| dominates(m, k)));
        if candidate {
            let src = subst.get(&src).copied().unwrap_or(src);
            subst.insert(dst, src);
        }
    }
    let rename = |r: Reg| subst.get(&r).copied().unwrap_or(r);
    for op in &mut ops {
        op.rename_reads(rename);
    }
    let state_out: Vec<Reg> = state_out.iter().map(|&r| rename(r)).collect();
    // Dead moves, to a fixpoint: a dropped move may have been the last
    // reader of another move's destination.
    let mut dropped = vec![false; end];
    loop {
        let mut read: HashSet<Reg> = outputs.iter().chain(&state_out).copied().collect();
        for (op, _) in ops.iter().zip(&dropped).filter(|(_, &d)| !d) {
            read.extend(op.reads());
        }
        let mut changed = false;
        for (op, d) in ops.iter().zip(&mut dropped) {
            if let Op::Move { dst, .. } = op {
                if !*d && !read.contains(dst) {
                    *d = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // A jump over nothing but dropped ops goes to the next op. Deciding
    // from the back settles the jumps a jump skips before the jump.
    for pc in (0..end).rev() {
        if let Op::Jmp { target } = ops[pc] {
            dropped[pc] = dropped
                .get(pc + 1..target as usize)
                .is_some_and(|skipped| skipped.iter().all(|&d| d));
        }
    }
    let mut new_at = Vec::with_capacity(end + 1);
    let mut kept = Vec::with_capacity(end);
    for (op, d) in ops.into_iter().zip(dropped) {
        new_at.push(kept.len() as u32);
        if !d {
            kept.push(op);
        }
    }
    new_at.push(kept.len() as u32);
    retarget(&mut kept, &new_at);
    (kept, state_out)
}

/// The steady program of a particle tape (see [`Steady`]). A slot whose
/// successor is a constant-pool register that no op writes, and whose own
/// register no op writes, holds that constant after the first step, so
/// the steady program pins its register to the constant and drops the
/// slot; each `Select` whose condition is then a constant boolean becomes
/// a `Move` of the branch it picks, which is the `Select`'s own result.
/// Copy propagation ([`propagate_copies`]) then removes the moves whose
/// readers can read their source. Last uses and state-out modes are
/// derived afresh for the rewritten code, where a pinned register is a
/// constant like any other. `None` when no slot is constant.
fn steady_program(
    consts: &[Op],
    ops: &[Op],
    prologue: usize,
    state_in: &[Reg],
    state_out: &[StateOut],
    out: &OutSpec,
) -> Option<Steady> {
    let written: HashSet<Reg> = ops.iter().filter_map(Op::dst).collect();
    let pool: HashMap<Reg, &MufValue> = consts
        .iter()
        .filter_map(|op| match op {
            Op::Const { dst, v } => Some((*dst, v)),
            _ => None,
        })
        .collect();
    let (mut pins, mut keep) = (Vec::new(), Vec::new());
    let (mut kept_in, mut kept_out) = (Vec::new(), Vec::new());
    for (&r, o) in state_in.iter().zip(state_out) {
        let constant = match *o {
            StateOut::Clone(c) if !written.contains(&c) && !written.contains(&r) => pool.get(&c),
            _ => None,
        };
        keep.push(constant.is_none());
        match constant {
            Some(&v) => pins.push((r, v.clone())),
            None => {
                kept_in.push(r);
                let (StateOut::Move(src) | StateOut::Clone(src)) = *o;
                kept_out.push(src);
            }
        }
    }
    if pins.is_empty() {
        return None;
    }
    let constant_bool = |r: &Reg| {
        let pinned = pins.iter().find_map(|(p, v)| (p == r).then_some(v));
        match pinned.or_else(|| pool.get(r).copied()) {
            Some(MufValue::V(Value::Bool(b))) if !written.contains(r) => Some(*b),
            _ => None,
        }
    };
    let ops: Vec<Op> = ops
        .iter()
        .map(|op| match *op {
            Op::Select { dst, cond, t, f } => match constant_bool(&cond) {
                Some(b) => Op::Move {
                    dst,
                    src: if b { t } else { f },
                },
                None => op.clone(),
            },
            _ => op.clone(),
        })
        .collect();
    let (ops, kept_out) = propagate_copies(ops, out, &kept_out);
    let state_out = state_out_modes(&ops[prologue..], &kept_in, &kept_out);
    let takes = last_uses(
        &ops,
        prologue,
        &kept_in,
        out.regs().into_iter().chain(kept_out),
    );
    Some(Steady {
        pins,
        keep,
        ops,
        takes,
        state_in: kept_in,
        state_out,
    })
}

/// The prologue: the longest run of leading `Proj` ops whose sources are
/// the tick input, captured-environment registers or earlier prologue
/// registers. None of it depends on the particle, so the step runs it
/// once per tick. Should a later op write a register the prologue reads
/// or defines, the prologue is empty: lowering never emits such an op,
/// and the check keeps the once-per-tick load sound regardless.
fn prologue_len(ops: &[Op], input: Option<Reg>, env_slots: &[(String, Reg)]) -> usize {
    let mut shared: HashSet<Reg> = env_slots.iter().map(|(_, r)| *r).chain(input).collect();
    let mut len = 0;
    for op in ops {
        match op {
            Op::Proj { dst, src, .. } if shared.contains(src) => {
                shared.insert(*dst);
                len += 1;
            }
            _ => break,
        }
    }
    if ops[len..]
        .iter()
        .filter_map(Op::dst)
        .any(|r| shared.contains(&r))
    {
        return 0;
    }
    len
}

/// Appends to `out` the names `e` reads free (outside `bound`), each once,
/// in order of first occurrence.
fn free_names(e: &MufExpr, bound: &mut Vec<String>, out: &mut Vec<String>) {
    fn bind(p: &MufPat, bound: &mut Vec<String>) {
        match p {
            MufPat::Var(x) => bound.push(x.clone()),
            MufPat::Tuple(ps) => ps.iter().for_each(|p| bind(p, bound)),
            MufPat::Wildcard | MufPat::Unit => {}
        }
    }
    let mut go = |e: &MufExpr| free_names(e, bound, out);
    match e {
        MufExpr::Const(_) => {}
        MufExpr::Var(x) => {
            if !bound.contains(x) && !out.contains(x) {
                out.push(x.clone());
            }
        }
        MufExpr::Tuple(xs) | MufExpr::Op(_, xs) => xs.iter().for_each(go),
        MufExpr::If(c, t, f) | MufExpr::Select(c, t, f) => {
            [c, t, f].into_iter().for_each(|x| go(x))
        }
        MufExpr::App(a, b) | MufExpr::Observe(a, b) => [a, b].into_iter().for_each(|x| go(x)),
        MufExpr::Sample(x) | MufExpr::Factor(x) | MufExpr::ValueOp(x) | MufExpr::Freshen(x) => {
            go(x)
        }
        MufExpr::Infer { body, state, .. } => [body, state].into_iter().for_each(|x| go(x)),
        MufExpr::EngineInit { init, body, .. } => [init, body].into_iter().for_each(|x| go(x)),
        MufExpr::Let(pat, bound_e, body) => {
            free_names(bound_e, bound, out);
            let save = bound.len();
            bind(pat, bound);
            free_names(body, bound, out);
            bound.truncate(save);
        }
        MufExpr::Fun(pat, body) => {
            let save = bound.len();
            bind(pat, bound);
            free_names(body, bound, out);
            bound.truncate(save);
        }
    }
}

fn pat_name(p: &MufPat) -> String {
    match p {
        MufPat::Var(x) => x.clone(),
        _ => "_".into(),
    }
}

/// Lowers a particle's transition closure to a [`TapeProgram`].
///
/// `takes_input` mirrors the model's flag: driver-facing transitions take
/// `(state, input)`, embedded ones take `state` alone. `init_state` is
/// split into the flat initial state slots.
///
/// # Errors
///
/// A human-readable reason when the closure cannot be lowered; the engine
/// is then not built.
pub fn lower_closure(
    interp: &Rc<Interp>,
    closure: &Rc<Closure>,
    init_state: &MufValue,
    takes_input: bool,
) -> Result<TapeProgram, String> {
    lower_transition(interp, closure, init_state, takes_input, false)
}

/// Lowers a deterministic node's step closure, `(state, input) ->
/// (output, state)`, to a driver tape: the whole tape runs once per tick,
/// in a deterministic context, so it has no prologue, and the input and
/// captured environment, loaded every tick, are taken on their last read
/// like any register the tape writes.
///
/// # Errors
///
/// A human-readable reason when the step cannot be lowered; the instance
/// is then not built.
pub fn lower_driver(
    interp: &Rc<Interp>,
    closure: &Rc<Closure>,
    init_state: &MufValue,
) -> Result<TapeProgram, String> {
    lower_transition(interp, closure, init_state, true, true)
}

fn lower_transition(
    interp: &Rc<Interp>,
    closure: &Rc<Closure>,
    init_state: &MufValue,
    takes_input: bool,
    driver: bool,
) -> Result<TapeProgram, String> {
    let state_pat: Option<&MufPat> = if takes_input {
        match &closure.pat {
            MufPat::Tuple(ps) if ps.len() == 2 => Some(&ps[0]),
            _ => None,
        }
    } else {
        Some(&closure.pat)
    };
    // Lower against the initial state's shape, then keep whole every
    // subtree the successor state does not rebuild as a tuple, until the
    // two agree (the shape only shrinks, so this terminates).
    let mut shape = StateShape::of(init_state);
    loop {
        let mut lw = Lower::new(interp, &closure.env);
        let (state_place, state_in) = lw.place_of_shape(&shape, state_pat, "s");
        let input = takes_input.then(|| lw.fresh("input"));
        let arg_place = match input {
            Some(r) => Place::Tuple(vec![state_place, Place::Reg(r)]),
            None => state_place,
        };
        lw.bind_pat(&closure.pat, arg_place)?;
        let body_place = lw.lower(&closure.body)?;
        let (out, next) = match body_place {
            Place::Tuple(mut items) if items.len() == 2 => {
                let next = items.pop().expect("length checked");
                (lw.out_spec(&items[0])?, next)
            }
            // The interpreter's instance accepts only a µF pair here,
            // where a projection would accept a core pair too.
            Place::Reg(_) if driver => {
                return Err("a driver step does not return a (value, state) tuple".into())
            }
            Place::Reg(r) => {
                let o = lw.fresh("out");
                lw.emit(Op::Proj {
                    dst: o,
                    src: r,
                    idx: 0,
                    arity: 2,
                });
                let s = lw.fresh("state");
                lw.emit(Op::Proj {
                    dst: s,
                    src: r,
                    idx: 1,
                    arity: 2,
                });
                (OutSpec::Reg(o), Place::Reg(s))
            }
            _ => return Err("transition must return (value, state)".into()),
        };
        let trimmed = trim_shape(&shape, &next);
        if trimmed != shape {
            shape = trimmed;
            continue;
        }
        let out_regs = lw.bind_state_out(&next, &shape)?;
        lw.emit(Op::Halt);
        let init_slots = split_state(init_state, &shape)?;
        let ops = fuse_pairs(lw.ops, &out, &out_regs);
        // Registers loaded before the body runs, besides the state: a
        // driver loads its input and environment every tick, where a
        // particle tape's are shared by every particle of a tick.
        let (prologue, mut loaded) = if driver {
            let per_tick = lw.env_slots.iter().map(|(_, r)| *r).chain(input);
            (0, per_tick.collect())
        } else {
            (prologue_len(&ops, input, &lw.env_slots), Vec::new())
        };
        loaded.extend(&state_in);
        let state_out = state_out_modes(&ops[prologue..], &loaded, &out_regs);
        let takes = last_uses(
            &ops,
            prologue,
            &loaded,
            out.regs().into_iter().chain(out_regs),
        );
        let steady = match driver {
            true => None,
            false => steady_program(&lw.consts, &ops, prologue, &state_in, &state_out, &out),
        };
        return Ok(TapeProgram {
            consts: lw.consts,
            ops,
            takes,
            prologue,
            num_regs: lw.next_reg,
            input,
            state_in,
            state_out,
            out,
            env_slots: lw.env_slots,
            init_slots,
            shape,
            body_ptr: Rc::as_ptr(&closure.body) as usize,
            reg_names: lw.reg_names,
            steady,
            subs: lw.subs,
        });
    }
}
