//! Property-based tests for the instruction-tape backend: on randomly
//! shaped well-kinded kernel programs, lowering to the flat tape must be
//! bitwise posterior-preserving against the tree-walking interpreter.
//! On the same programs, the effect analysis must agree with the kind
//! system about which nodes are probabilistic.

use probzelus_core::infer::Method;
use probzelus_core::Value;
use probzelus_lang::pipeline::compile_source;
use probzelus_lang::{Effect, ExecBackend, Kind, Options};
use proptest::prelude::*;

/// Builds a randomly shaped but well-kinded kernel program covering the
/// constructs the lowering pass handles: arrow flags (`Select` ops),
/// `pre`-carried state (register-file state slots), nested
/// tuples, arithmetic chains, a constant chain (`scale`), an optional
/// dead stream, an optional repeated pure subexpression, and a
/// sampled/observed latent.
#[allow(clippy::too_many_arguments)]
fn program(
    g: f64,
    d: f64,
    a: f64,
    q: f64,
    r: f64,
    with_dead: bool,
    with_cse: bool,
    with_gain: bool,
) -> String {
    let gain_eq = if with_gain {
        format!("and gain = 1.0 -> pre gain * {g:?}\n")
    } else {
        String::new()
    };
    let gain_use = if with_gain { "+ gain * 0.1 " } else { "" };
    let dead_eq = if with_dead {
        "and dead = y * 3.0\n"
    } else {
        ""
    };
    let mean = if with_cse {
        "x * scale + x * scale"
    } else {
        "x * scale"
    };
    format!(
        "let node m y = x where
           rec scale = 1.0 + 2.0 * 0.5
           and drift = 0.0 -> pre drift + {d:?}
           {gain_eq}{dead_eq}and x = sample (gaussian ((0.0 -> pre x) * {a:?} {gain_use}+ drift, {q:?}))
           and () = observe (gaussian ({mean}, {r:?}), y)"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tape backend is bitwise posterior-preserving on randomly
    /// generated well-kinded kernels, for both a sampling method (PF)
    /// and an exact one (SDS) — and lowering must actually succeed, so
    /// the property can never be satisfied by a silent interpreter
    /// fallback.
    #[test]
    fn tape_preserves_posteriors_bitwise(
        g in 0.5f64..1.5,
        d in -0.5f64..0.5,
        a in 0.2f64..1.2,
        q in 0.1f64..5.0,
        r in 0.1f64..5.0,
        with_dead in any::<bool>(),
        with_cse in any::<bool>(),
        with_gain in any::<bool>(),
        ys in proptest::collection::vec(-3.0f64..3.0, 1..6),
    ) {
        let src = program(g, d, a, q, r, with_dead, with_cse, with_gain);
        let compiled = compile_source(&src).unwrap();
        for method in [Method::ParticleFilter, Method::StreamingDs] {
            let mk = |backend| {
                compiled
                    .infer_node("m", 20, Options { method, seed: 11, backend })
                    .unwrap()
            };
            let mut eng_interp = mk(ExecBackend::Interp);
            let mut eng_tape = mk(ExecBackend::Tape);
            for y in &ys {
                let p_interp = eng_interp.step(&Value::Float(*y)).unwrap();
                let p_tape = eng_tape.step(&Value::Float(*y)).unwrap();
                prop_assert_eq!(
                    p_interp.mean_float().to_bits(),
                    p_tape.mean_float().to_bits(),
                    "{:?}: mean drifted on\n{}",
                    method,
                    src
                );
                prop_assert_eq!(
                    &p_interp, &p_tape,
                    "{:?}: posterior drifted on\n{}", method, src
                );
            }
            prop_assert_eq!(
                eng_tape.tape_status(),
                Some(Ok(())),
                "tape did not lower:\n{}",
                src
            );
        }
    }

    /// The effect analysis calls a node `Prob` exactly when the kind
    /// system (§3.2, Fig. 7) calls it P, on the generated kernel `m` and
    /// beside it: a deterministic node, a node that only calls `m`, one
    /// that only forces a value, and an `infer` over `m` (which is D).
    #[test]
    fn effect_is_prob_exactly_when_kind_is_p(
        g in 0.5f64..1.5,
        d in -0.5f64..0.5,
        a in 0.2f64..1.2,
        with_dead in any::<bool>(),
        with_cse in any::<bool>(),
        with_gain in any::<bool>(),
        extra in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let mut src = program(g, d, a, 1.0, 1.0, with_dead, with_cse, with_gain);
        let nodes = [
            "let node det y = z where rec z = 0.0 -> pre z + y * 2.0",
            "let node calls y = z where rec z = m (y)",
            "let node forces y = z where rec z = y and () = value (0.0 -> pre z)",
            "let node main y = infer 10 m y",
        ];
        for (node, with) in nodes.iter().zip(&extra) {
            if *with {
                src = format!("{src}\n{node}");
            }
        }
        let compiled = compile_source(&src).unwrap();
        prop_assert_eq!(compiled.kinds.len(), 1 + extra.iter().filter(|&&w| w).count());
        for (node, kind) in &compiled.kinds {
            prop_assert_eq!(
                compiled.effects.node_effect(node) == Effect::Prob,
                *kind == Kind::P,
                "{}: kind {} but effect {} on\n{}",
                node,
                kind,
                compiled.effects.node_effect(node),
                src
            );
        }
    }
}
