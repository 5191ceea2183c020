//! Recursive-descent parser for the ProbZelus surface syntax.
//!
//! Operator precedence, loosest first: `where` < `->` / `fby` < `||` <
//! `&&` < comparisons < additive < multiplicative < unary < application.
//! `->` and `fby` are right-associative; tuples nest to the right.
//!
//! Expression nesting is bounded by [`MAX_NESTING`]: every later pass
//! recurses over the tree built here, so this one budget keeps the whole
//! pipeline inside an ordinary thread stack.

use crate::ast::{AutoState, Const, Eq, Expr, NodeDecl, OpName, Pattern, Program};
use crate::diag::Code;
use crate::error::{LangError, Pos, Stage};
use crate::lexer::{lex, Spanned, Tok};

/// The deepest expression nesting the parser accepts. One level is one
/// enclosing construct: a parenthesis, an operand of an operator chain, a
/// prefix operator, a tuple component, a `->`/`fby` link, or a keyword
/// form; a `where` block and a function application each count one more,
/// because the later passes spend about twice the stack on them. A
/// program nested exactly this deep checks, compiles and lowers within a
/// 2 MiB thread stack even in an unoptimized build (the bound is set by
/// the debug-build frame sizes); deeper input fails with
/// [`Code::NESTING`] instead of overflowing the stack.
pub const MAX_NESTING: u32 = 48;

/// Parses a whole program.
///
/// # Errors
///
/// Returns the first lexical or syntax error with its position.
pub fn parse_program(src: &str) -> Result<Program, LangError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        i: 0,
        fresh: 0,
        depth: 0,
    };
    let mut nodes = Vec::new();
    while !p.at(&Tok::Eof) {
        nodes.push(p.node_decl()?);
    }
    Ok(Program { nodes })
}

/// Parses a single expression (used by tests and the REPL-style API).
///
/// # Errors
///
/// Returns the first lexical or syntax error.
pub fn parse_expr(src: &str) -> Result<Expr, LangError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        i: 0,
        fresh: 0,
        depth: 0,
    };
    let e = p.expr_where()?;
    p.expect(Tok::Eof)?;
    Ok(e)
}

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
    fresh: u32,
    /// Nesting levels currently open (see [`MAX_NESTING`]).
    depth: u32,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.i].tok.clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), LangError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(LangError::at(
                Stage::Parse,
                self.pos(),
                format!("expected {t}, found {}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, LangError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(LangError::at(
                Stage::Parse,
                self.pos(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    /// Opens one nesting level, failing once more than [`MAX_NESTING`]
    /// are open. The caller closes it with [`Parser::unnest`]; a failed
    /// parse is abandoned, so error paths need not. Levels are opened
    /// inline rather than through a wrapper so each level costs no extra
    /// stack frame.
    fn nest(&mut self) -> Result<(), LangError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(LangError::at(
                Stage::Parse,
                self.pos(),
                format!("expression nests more than {MAX_NESTING} levels deep"),
            )
            .with_code(Code::NESTING));
        }
        Ok(())
    }

    fn unnest(&mut self, levels: u32) {
        self.depth -= levels;
    }

    fn fresh_var(&mut self, hint: &str) -> String {
        self.fresh += 1;
        format!("_{hint}{}", self.fresh)
    }

    // ---- declarations ------------------------------------------------

    fn node_decl(&mut self) -> Result<NodeDecl, LangError> {
        self.expect(Tok::Let)?;
        self.expect(Tok::Node)?;
        let name = self.ident()?;
        let param = self.pattern()?;
        self.expect(Tok::Equal)?;
        let body = self.expr_where()?;
        Ok(NodeDecl { name, param, body })
    }

    fn pattern(&mut self) -> Result<Pattern, LangError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(Pattern::Var(s))
            }
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(Pattern::Unit);
                }
                let mut parts = vec![self.pattern()?];
                while self.eat(&Tok::Comma) {
                    parts.push(self.pattern()?);
                }
                self.expect(Tok::RParen)?;
                let mut it = parts.into_iter().rev();
                let last = it.next().expect("at least one pattern");
                Ok(it.fold(last, |acc, p| Pattern::Pair(Box::new(p), Box::new(acc))))
            }
            other => Err(LangError::at(
                Stage::Parse,
                self.pos(),
                format!("expected parameter pattern, found {other}"),
            )),
        }
    }

    // ---- expressions ---------------------------------------------------

    fn expr_where(&mut self) -> Result<Expr, LangError> {
        self.nest()?;
        let body = self.expr_arrow()?;
        let e = if self.eat(&Tok::Where) {
            // A `where` block costs the later passes (scheduling,
            // desugaring, compilation) about a second level.
            self.nest()?;
            self.expect(Tok::Rec)?;
            let mut eqs = Vec::new();
            self.equation(&mut eqs)?;
            while self.eat(&Tok::And) {
                self.equation(&mut eqs)?;
            }
            self.unnest(1);
            Expr::Where {
                body: Box::new(body),
                eqs,
            }
        } else {
            body
        };
        self.unnest(1);
        Ok(e)
    }

    fn equation(&mut self, out: &mut Vec<Eq>) -> Result<(), LangError> {
        if self.at(&Tok::Automaton) {
            return self.automaton(out);
        }
        if self.eat(&Tok::Init) {
            let name = self.ident()?;
            self.expect(Tok::Equal)?;
            let pos = self.pos();
            let value = self.const_lit().ok_or_else(|| {
                LangError::at(
                    Stage::Parse,
                    pos,
                    "the right-hand side of `init` must be a constant in the kernel",
                )
            })?;
            out.push(Eq::Init { name, value });
            return Ok(());
        }
        // LHS: ident, (), or a tuple of identifiers. The whole equation is
        // spanned at its left-hand side.
        let eq_pos = self.pos();
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                self.expect(Tok::Equal)?;
                let expr = self.expr_arrow()?;
                out.push(Eq::Def {
                    name,
                    expr: Expr::at(expr, eq_pos),
                });
                Ok(())
            }
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    // () = e: evaluate for effect.
                    self.expect(Tok::Equal)?;
                    let expr = self.expr_arrow()?;
                    let name = self.fresh_var("unit");
                    out.push(Eq::Def {
                        name,
                        expr: Expr::at(expr, eq_pos),
                    });
                    return Ok(());
                }
                let mut names = vec![self.ident()?];
                while self.eat(&Tok::Comma) {
                    names.push(self.ident()?);
                }
                self.expect(Tok::RParen)?;
                self.expect(Tok::Equal)?;
                let expr = self.expr_arrow()?;
                // (a, b, c) = e  ~>  t = e; a = fst t; b = fst (snd t); ...
                let tmp = self.fresh_var("pat");
                out.push(Eq::Def {
                    name: tmp.clone(),
                    expr: Expr::at(expr, eq_pos),
                });
                let n = names.len();
                let mut path = Expr::var(&tmp);
                for (k, name) in names.into_iter().enumerate() {
                    let proj = if k + 1 == n {
                        path.clone()
                    } else {
                        Expr::Op(OpName::Fst, vec![path.clone()])
                    };
                    out.push(Eq::Def {
                        name,
                        expr: Expr::at(proj, eq_pos),
                    });
                    path = Expr::Op(OpName::Snd, vec![path]);
                }
                Ok(())
            }
            other => Err(LangError::at(
                Stage::Parse,
                self.pos(),
                format!("expected equation left-hand side, found {other}"),
            )),
        }
    }

    /// `automaton (| NAME -> do eqs (until e then NAME)* done?)+`
    ///
    /// Each state's equation block must be closed by `done` or by at least
    /// one `until` transition (which disambiguates the automaton's `and`
    /// separators from the enclosing `where rec`'s).
    fn automaton(&mut self, out: &mut Vec<Eq>) -> Result<(), LangError> {
        self.nest()?;
        self.expect(Tok::Automaton)?;
        let mut states = Vec::new();
        while self.eat(&Tok::Bar) {
            let name = self.ident()?;
            self.expect(Tok::Arrow)?;
            self.expect(Tok::Do)?;
            let mut eqs = Vec::new();
            self.equation(&mut eqs)?;
            while self.eat(&Tok::And) {
                self.equation(&mut eqs)?;
            }
            let mut transitions = Vec::new();
            let terminated = loop {
                if self.eat(&Tok::Done) {
                    break true;
                }
                if self.eat(&Tok::Until) {
                    let cond = self.expr_or()?;
                    self.expect(Tok::Then)?;
                    let target = self.ident()?;
                    transitions.push((cond, target));
                    continue;
                }
                break !transitions.is_empty();
            };
            if !terminated {
                return Err(LangError::at(
                    Stage::Parse,
                    self.pos(),
                    "automaton state must end with `done` or an `until … then …` transition",
                ));
            }
            states.push(AutoState {
                name,
                eqs,
                transitions,
            });
        }
        if states.is_empty() {
            return Err(LangError::at(
                Stage::Parse,
                self.pos(),
                "automaton needs at least one `| State -> do …` arm",
            ));
        }
        out.push(Eq::Automaton { states });
        self.unnest(1);
        Ok(())
    }

    fn const_lit(&mut self) -> Option<Const> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Some(Const::Int(n))
            }
            Tok::Float(x) => {
                self.bump();
                Some(Const::Float(x))
            }
            Tok::True => {
                self.bump();
                Some(Const::Bool(true))
            }
            Tok::False => {
                self.bump();
                Some(Const::Bool(false))
            }
            Tok::Minus => {
                // Negative numeric constants.
                let save = self.i;
                self.bump();
                match self.peek().clone() {
                    Tok::Int(n) => {
                        self.bump();
                        Some(Const::Int(-n))
                    }
                    Tok::Float(x) => {
                        self.bump();
                        Some(Const::Float(-x))
                    }
                    _ => {
                        self.i = save;
                        None
                    }
                }
            }
            Tok::LParen => {
                let save = self.i;
                self.bump();
                if self.eat(&Tok::RParen) {
                    Some(Const::Unit)
                } else {
                    self.i = save;
                    None
                }
            }
            _ => None,
        }
    }

    fn expr_arrow(&mut self) -> Result<Expr, LangError> {
        let lhs = self.expr_or()?;
        if self.eat(&Tok::Arrow) {
            self.nest()?;
            let rhs = self.expr_arrow()?;
            self.unnest(1);
            Ok(Expr::Arrow(Box::new(lhs), Box::new(rhs)))
        } else if self.eat(&Tok::Fby) {
            self.nest()?;
            let rhs = self.expr_arrow()?;
            self.unnest(1);
            Ok(Expr::Fby(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    // Each link of a left-associative chain nests the tree built so far
    // one level deeper, so the chain's links count as nesting levels
    // until the chain ends.

    fn expr_or(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.expr_and()?;
        let mut links = 0;
        while self.eat(&Tok::BarBar) {
            self.nest()?;
            links += 1;
            let rhs = self.expr_and()?;
            lhs = Expr::Op(OpName::Or, vec![lhs, rhs]);
        }
        self.unnest(links);
        Ok(lhs)
    }

    fn expr_and(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.expr_cmp()?;
        let mut links = 0;
        while self.eat(&Tok::AmpAmp) {
            self.nest()?;
            links += 1;
            let rhs = self.expr_cmp()?;
            lhs = Expr::Op(OpName::And, vec![lhs, rhs]);
        }
        self.unnest(links);
        Ok(lhs)
    }

    fn expr_cmp(&mut self) -> Result<Expr, LangError> {
        let lhs = self.expr_add()?;
        let op = match self.peek() {
            Tok::Lt => OpName::Lt,
            Tok::Le => OpName::Le,
            Tok::Gt => OpName::Gt,
            Tok::Ge => OpName::Ge,
            Tok::Equal => OpName::Eq,
            Tok::NotEqual => OpName::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        self.nest()?;
        let rhs = self.expr_add()?;
        self.unnest(1);
        Ok(Expr::Op(op, vec![lhs, rhs]))
    }

    fn expr_add(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.expr_mul()?;
        let mut links = 0;
        loop {
            let op = match self.peek() {
                Tok::Plus => OpName::Add,
                Tok::Minus => OpName::Sub,
                _ => break,
            };
            self.bump();
            self.nest()?;
            links += 1;
            let rhs = self.expr_mul()?;
            lhs = Expr::Op(op, vec![lhs, rhs]);
        }
        self.unnest(links);
        Ok(lhs)
    }

    fn expr_mul(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.expr_unary()?;
        let mut links = 0;
        loop {
            let op = match self.peek() {
                Tok::Star => OpName::Mul,
                Tok::Slash => OpName::Div,
                _ => break,
            };
            self.bump();
            self.nest()?;
            links += 1;
            let rhs = self.expr_unary()?;
            lhs = Expr::Op(op, vec![lhs, rhs]);
        }
        self.unnest(links);
        Ok(lhs)
    }

    fn expr_unary(&mut self) -> Result<Expr, LangError> {
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                self.nest()?;
                let e = self.expr_unary()?;
                self.unnest(1);
                Ok(Expr::Op(OpName::Neg, vec![e]))
            }
            Tok::Not => {
                self.bump();
                self.nest()?;
                let e = self.expr_unary()?;
                self.unnest(1);
                Ok(Expr::Op(OpName::Not, vec![e]))
            }
            Tok::Pre => {
                self.bump();
                self.nest()?;
                let e = self.expr_unary()?;
                self.unnest(1);
                Ok(Expr::Pre(Box::new(e)))
            }
            Tok::Last => {
                self.bump();
                let x = self.ident()?;
                Ok(Expr::Last(x))
            }
            _ => self.expr_app(),
        }
    }

    fn expr_app(&mut self) -> Result<Expr, LangError> {
        // Identifier followed by a parenthesized argument is an
        // application; builtin names become operators.
        if let Tok::Ident(name) = self.peek().clone() {
            if self.toks[self.i + 1].tok == Tok::LParen {
                let pos = self.pos();
                self.bump(); // ident
                             // An application costs the later passes about a second
                             // level on top of its parenthesis.
                self.nest()?;
                let arg = self.parenthesized()?;
                self.unnest(1);
                return Ok(Expr::at(self.make_app(&name, arg)?, pos));
            }
        }
        self.primary()
    }

    fn make_app(&mut self, name: &str, arg: Expr) -> Result<Expr, LangError> {
        match OpName::from_ident(name) {
            Some(op) => {
                let args = flatten_tuple(arg, op.arity());
                if args.len() != op.arity() {
                    return Err(LangError::at(
                        Stage::Parse,
                        self.pos(),
                        format!(
                            "operator `{name}` expects {} argument(s), got {}",
                            op.arity(),
                            args.len()
                        ),
                    ));
                }
                Ok(Expr::Op(op, args))
            }
            None => Ok(Expr::App(name.to_string(), Box::new(arg))),
        }
    }

    /// Parses `( e1 , .. , en )` into a right-nested tuple (or unit).
    fn parenthesized(&mut self) -> Result<Expr, LangError> {
        self.expect(Tok::LParen)?;
        if self.eat(&Tok::RParen) {
            return Ok(Expr::Const(Const::Unit));
        }
        // Tuples nest to the right: each further component is one level.
        let mut parts = vec![self.expr_where()?];
        while self.eat(&Tok::Comma) {
            self.nest()?;
            parts.push(self.expr_where()?);
        }
        self.unnest(parts.len() as u32 - 1);
        self.expect(Tok::RParen)?;
        let mut it = parts.into_iter().rev();
        let last = it.next().expect("at least one expression");
        Ok(it.fold(last, |acc, e| Expr::pair(e, acc)))
    }

    /// Keyword forms whose operands parse below `expr_where` (`observe`,
    /// `present`, `reset`, `if`) open a nesting level of their own.
    fn primary(&mut self) -> Result<Expr, LangError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Expr::int(n))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(Expr::float(x))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::Const(Const::Bool(true)))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::Const(Const::Bool(false)))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(Expr::Var(s))
            }
            Tok::LParen => self.parenthesized(),
            _ => self.keyword_form(),
        }
    }

    /// The keyword forms of [`Parser::primary`], kept out of its frame:
    /// parenthesized nesting recurses through `primary`, and every byte
    /// of its frame is paid once per level.
    fn keyword_form(&mut self) -> Result<Expr, LangError> {
        match self.peek().clone() {
            Tok::Sample => {
                let kw = self.pos();
                self.bump();
                let arg = self.parenthesized()?;
                Ok(Expr::at(Expr::Sample(Box::new(arg)), kw))
            }
            Tok::Value => {
                let kw = self.pos();
                self.bump();
                let arg = self.parenthesized()?;
                Ok(Expr::at(Expr::ValueOp(Box::new(arg)), kw))
            }
            Tok::Factor => {
                let kw = self.pos();
                self.bump();
                let arg = self.parenthesized()?;
                Ok(Expr::at(Expr::Factor(Box::new(arg)), kw))
            }
            Tok::Observe => {
                let kw = self.pos();
                self.bump();
                self.nest()?;
                self.expect(Tok::LParen)?;
                let d = self.expr_arrow()?;
                self.expect(Tok::Comma)?;
                let v = self.expr_arrow()?;
                self.expect(Tok::RParen)?;
                self.unnest(1);
                Ok(Expr::at(Expr::Observe(Box::new(d), Box::new(v)), kw))
            }
            Tok::Infer => {
                let kw = self.pos();
                self.bump();
                let pos = self.pos();
                let particles = match self.bump() {
                    Tok::Int(n) if n > 0 => n as usize,
                    other => {
                        return Err(LangError::at(
                            Stage::Parse,
                            pos,
                            format!("`infer` expects a positive particle count, found {other}"),
                        ))
                    }
                };
                let node = self.ident()?;
                let arg = if self.at(&Tok::LParen) {
                    self.parenthesized()?
                } else {
                    // `infer 1000 hmm y` — bare variable argument.
                    Expr::Var(self.ident()?)
                };
                Ok(Expr::at(
                    Expr::Infer {
                        particles,
                        node,
                        arg: Box::new(arg),
                    },
                    kw,
                ))
            }
            Tok::Present => {
                self.bump();
                self.nest()?;
                let cond = self.expr_or()?;
                self.expect(Tok::Arrow)?;
                let then = self.expr_arrow()?;
                self.expect(Tok::Else)?;
                let els = self.expr_arrow()?;
                self.unnest(1);
                Ok(Expr::Present {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                })
            }
            Tok::Reset => {
                self.bump();
                self.nest()?;
                let body = self.expr_arrow()?;
                self.expect(Tok::Every)?;
                let every = self.expr_arrow()?;
                self.unnest(1);
                Ok(Expr::Reset {
                    body: Box::new(body),
                    every: Box::new(every),
                })
            }
            Tok::If => {
                self.bump();
                self.nest()?;
                let cond = self.expr_arrow()?;
                self.expect(Tok::Then)?;
                let then = self.expr_arrow()?;
                self.expect(Tok::Else)?;
                let els = self.expr_arrow()?;
                self.unnest(1);
                Ok(Expr::If {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                })
            }
            other => Err(LangError::at(
                Stage::Parse,
                self.pos(),
                format!("expected expression, found {other}"),
            )),
        }
    }
}

/// Unfolds a right-nested tuple into at most `max` components (operators
/// take their arguments as a tuple in the surface syntax).
fn flatten_tuple(e: Expr, max: usize) -> Vec<Expr> {
    let mut out = Vec::new();
    let mut cur = e;
    while out.len() + 1 < max {
        match cur {
            Expr::Pair(a, b) => {
                out.push(*a);
                cur = *b;
            }
            other => {
                cur = other;
                break;
            }
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_hmm() {
        let src = r#"
            let node hmm y = x where
              rec x = sample (gaussian (0. -> pre x, 2.5))
              and () = observe (gaussian (x, 1.0), y)
        "#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.nodes.len(), 1);
        let hmm = prog.node("hmm").unwrap();
        assert_eq!(hmm.param, Pattern::Var("y".into()));
        match &hmm.body {
            Expr::Where { eqs, .. } => assert_eq!(eqs.len(), 2),
            other => panic!("expected where, got {other:?}"),
        }
    }

    #[test]
    fn parses_infer_driver() {
        let src = r#"
            let node main y = d where
              rec d = infer 1000 hmm y
        "#;
        let prog = parse_program(src).unwrap();
        let main = prog.node("main").unwrap();
        match &main.body {
            Expr::Where { eqs, .. } => match &eqs[0] {
                Eq::Def { expr, .. } => {
                    assert!(matches!(
                        expr.peel(),
                        Expr::Infer {
                            particles: 1000,
                            ..
                        }
                    ));
                    // Equation spans point at the left-hand side.
                    assert!(expr.span().is_some());
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("expected where, got {other:?}"),
        }
    }

    #[test]
    fn arrow_is_right_associative_and_loose() {
        let e = parse_expr("0 -> 1 + 2 -> 3").unwrap();
        match e {
            Expr::Arrow(a, rest) => {
                assert_eq!(*a, Expr::int(0));
                assert!(matches!(*rest, Expr::Arrow(_, _)));
            }
            other => panic!("expected arrow, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Op(OpName::Add, args) => {
                assert_eq!(args[0], Expr::int(1));
                assert!(matches!(&args[1], Expr::Op(OpName::Mul, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operators_by_name_check_arity() {
        assert!(parse_expr("gaussian(0., 1.)").is_ok());
        assert!(parse_expr("gaussian(0.)").is_err());
        let e = parse_expr("exp(1.0)").unwrap();
        assert!(matches!(e.peel(), Expr::Op(OpName::Exp, _)));
    }

    #[test]
    fn node_application_vs_operator() {
        let e = parse_expr("integr(a, b)").unwrap();
        match e.peel() {
            Expr::App(name, arg) => {
                assert_eq!(name, "integr");
                assert!(matches!(&**arg, Expr::Pair(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tuple_equations_desugar_to_projections() {
        let src = r#"
            let node f a = p where
              rec (p, v) = tracker(a)
        "#;
        let prog = parse_program(src).unwrap();
        match &prog.nodes[0].body {
            Expr::Where { eqs, .. } => {
                assert_eq!(eqs.len(), 3);
                assert!(matches!(&eqs[1], Eq::Def { name, expr } if name == "p"
                        && matches!(expr.peel(), Expr::Op(OpName::Fst, _))));
                assert!(matches!(&eqs[2], Eq::Def { name, expr } if name == "v"
                        && matches!(expr.peel(), Expr::Op(OpName::Snd, _))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unit_equations_get_fresh_names() {
        let src = r#"
            let node f y = x where
              rec x = 1.0
              and () = observe (gaussian (x, 1.0), y)
        "#;
        let prog = parse_program(src).unwrap();
        match &prog.nodes[0].body {
            Expr::Where { eqs, .. } => {
                assert!(eqs[1].name().starts_with("_unit"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn init_requires_constant() {
        let ok = parse_program("let node f x = y where rec init y = 0.5 and y = x");
        assert!(ok.is_ok());
        let bad = parse_program("let node f x = y where rec init y = x + 1. and y = x");
        assert!(bad.is_err());
    }

    #[test]
    fn present_and_reset_and_if() {
        let e = parse_expr("present c -> a else b").unwrap();
        assert!(matches!(e, Expr::Present { .. }));
        let e = parse_expr("reset x + 1. every c").unwrap();
        assert!(matches!(e, Expr::Reset { .. }));
        let e = parse_expr("if c then 1. else 2.").unwrap();
        assert!(matches!(e, Expr::If { .. }));
    }

    #[test]
    fn negative_init_constants() {
        let prog = parse_program("let node f x = y where rec init y = -1.5 and y = x").unwrap();
        match &prog.nodes[0].body {
            Expr::Where { eqs, .. } => {
                assert_eq!(
                    eqs[0],
                    Eq::Init {
                        name: "y".into(),
                        value: Const::Float(-1.5)
                    }
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_program("let node f = 3").unwrap_err();
        assert!(err.pos.is_some());
        assert_eq!(err.stage, Stage::Parse);
    }
}
