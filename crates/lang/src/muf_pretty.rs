//! Pretty-printer for compiled µF code (`pzc emit`, debugging, and the
//! compilation tests).

use crate::ast::OpName;
use crate::muf::{MufDef, MufExpr, MufPat, MufProgram};
use std::fmt::Write as _;

/// Renders a whole µF program.
pub fn print_muf_program(p: &MufProgram) -> String {
    let mut out = String::new();
    for def in &p.defs {
        out.push_str(&print_muf_def(def));
        out.push('\n');
    }
    out
}

/// Renders one definition.
pub fn print_muf_def(def: &MufDef) -> String {
    format!(
        "let {} =\n{}\n",
        def.name,
        indent(&print_expr(&def.expr), 1)
    )
}

fn indent(s: &str, by: usize) -> String {
    let pad = "  ".repeat(by);
    s.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders a pattern.
pub fn print_pat(p: &MufPat) -> String {
    match p {
        MufPat::Var(x) => x.clone(),
        MufPat::Wildcard => "_".to_string(),
        MufPat::Unit => "()".to_string(),
        MufPat::Tuple(ps) => format!(
            "({})",
            ps.iter().map(print_pat).collect::<Vec<_>>().join(", ")
        ),
    }
}

/// Renders an expression.
pub fn print_expr(e: &MufExpr) -> String {
    match e {
        MufExpr::Const(c) => c.to_string(),
        MufExpr::Var(x) => x.clone(),
        MufExpr::Tuple(xs) => format!(
            "({})",
            xs.iter().map(print_expr).collect::<Vec<_>>().join(", ")
        ),
        MufExpr::Op(op, args) => print_op(*op, args),
        MufExpr::If(c, t, f) => format!(
            "if {} then {} else {}",
            print_expr(c),
            print_expr(t),
            print_expr(f)
        ),
        MufExpr::Select(c, t, f) => format!(
            "select({}, {}, {})",
            print_expr(c),
            print_expr(t),
            print_expr(f)
        ),
        MufExpr::App(f, x) => format!("{}({})", print_expr(f), print_expr(x)),
        MufExpr::Let(p, bound, body) => {
            let mut s = String::new();
            let _ = write!(
                s,
                "let {} = {} in\n{}",
                print_pat(p),
                print_expr(bound),
                print_expr(body)
            );
            s
        }
        MufExpr::Fun(p, body) => {
            format!("fun {} ->\n{}", print_pat(p), indent(&print_expr(body), 1))
        }
        MufExpr::Sample(d) => format!("sample({})", print_expr(d)),
        MufExpr::Observe(d, v) => format!("observe({}, {})", print_expr(d), print_expr(v)),
        MufExpr::Factor(w) => format!("factor({})", print_expr(w)),
        MufExpr::ValueOp(x) => format!("value({})", print_expr(x)),
        MufExpr::Infer {
            particles,
            body,
            state,
        } => format!(
            "infer<{particles}>({},\n{})",
            print_expr(state),
            indent(&print_expr(body), 1)
        ),
        MufExpr::Freshen(inner) => format!("freshen({})", print_expr(inner)),
        MufExpr::EngineInit {
            particles, init, ..
        } => format!("engine_init<{particles}>({})", print_expr(init)),
    }
}

fn print_op(op: OpName, args: &[MufExpr]) -> String {
    use OpName::*;
    match op {
        Add | Sub | Mul | Div | Lt | Le | Gt | Ge | Eq | Ne | And | Or => format!(
            "({} {} {})",
            print_expr(&args[0]),
            op.ident(),
            print_expr(&args[1])
        ),
        Neg => format!("(-{})", print_expr(&args[0])),
        Not => format!("(not {})", print_expr(&args[0])),
        _ => format!(
            "{}({})",
            op.ident(),
            args.iter().map(print_expr).collect::<Vec<_>>().join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_program;
    use crate::parser::parse_program;
    use crate::schedule::schedule_program;
    use crate::transform::desugar_program;

    #[test]
    fn prints_the_compiled_counter() {
        let p = parse_program("let node f x = n where rec n = 0. -> pre n + x").unwrap();
        let muf = compile_program(&schedule_program(&desugar_program(&p)).unwrap()).unwrap();
        let printed = print_muf_program(&muf);
        assert!(printed.contains("let f#step ="), "{printed}");
        assert!(printed.contains("let f#init ="), "{printed}");
        assert!(printed.contains("fun"), "{printed}");
        // The compiled where reads the last-value of the counter.
        assert!(printed.contains("#last"), "{printed}");
    }

    #[test]
    fn prints_infer_forms() {
        let p =
            parse_program("let node m y = sample(gaussian(y, 1.))\nlet node main y = infer 7 m y")
                .unwrap();
        let muf = compile_program(&schedule_program(&desugar_program(&p)).unwrap()).unwrap();
        let printed = print_muf_program(&muf);
        assert!(printed.contains("infer<7>"), "{printed}");
        assert!(printed.contains("engine_init<7>"), "{printed}");
        assert!(printed.contains("sample("), "{printed}");
        assert!(printed.contains("gaussian("), "{printed}");
    }
}
