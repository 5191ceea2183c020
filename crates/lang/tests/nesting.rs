//! The parser's nesting budget: a program nested exactly to
//! [`MAX_NESTING`] goes through every pass on an ordinary 2 MiB thread,
//! and anything deeper — however deep — is a coded `PZ0003` diagnostic,
//! never a stack overflow.

use probzelus_lang::parser::MAX_NESTING;
use probzelus_lang::pipeline::{check_source, compile_source};
use probzelus_lang::{Code, Options};

/// The stack of a default test thread.
const TEST_STACK: usize = 2 << 20;

/// Runs `f` on a fresh thread with a 2 MiB stack, whatever the harness's
/// own thread size.
fn on_test_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(TEST_STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no stack overflow")
}

/// `o` defined by `parens` nested parentheses around `x`. The node body
/// and its `where` block open two levels, so the innermost `x` sits at
/// `parens + 2`.
fn paren_program(parens: usize) -> String {
    format!(
        "let node f x = o where rec o = {}x{}\n",
        "(".repeat(parens),
        ")".repeat(parens)
    )
}

/// One program per nesting construct, each nested exactly to the
/// budget: `(program, node)`.
fn programs_at_the_budget() -> Vec<(String, &'static str)> {
    let n = MAX_NESTING as usize;
    let node = |body: String| format!("let node g y = y\nlet node f x = o where rec o = {body}\n");
    let mut whered = String::from("x");
    for i in 0..(n - 2) / 2 {
        whered = format!("(a{i} where rec a{i} = {whered})");
    }
    vec![
        (paren_program(n - 2), "f"),
        (node(format!("{}x", "- ".repeat(n - 2))), "f"),
        (node(vec!["x"; n - 1].join(" + ")), "f"),
        (node(vec!["x"; n - 1].join(" fby ")), "f"),
        (
            node(format!(
                "{}x{}",
                "if true then ".repeat(n - 2),
                " else x".repeat(n - 2)
            )),
            "f",
        ),
        (
            node(format!(
                "{}x{}",
                "g(".repeat((n - 2) / 2),
                ")".repeat((n - 2) / 2)
            )),
            "f",
        ),
        (node(whered), "f"),
    ]
}

#[test]
fn programs_nested_to_the_budget_check_compile_and_lower() {
    for (src, node) in programs_at_the_budget() {
        on_test_stack(move || {
            let checked = check_source(&src, true);
            assert!(!checked.has_errors(), "{src}: {:?}", checked.diagnostics);
            let compiled = compile_source(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
            compiled
                .lower_node(node, Options::default())
                .unwrap_or_else(|e| panic!("{src}: {e}"))
                .unwrap_or_else(|e| panic!("{src}: lowering refused: {e}"));
        });
    }
}

#[test]
fn one_level_past_the_budget_is_pz0003() {
    let ok = check_source(&paren_program(MAX_NESTING as usize - 2), false);
    assert!(!ok.has_errors(), "{:?}", ok.diagnostics);
    let deep = check_source(&paren_program(MAX_NESTING as usize - 1), false);
    assert_eq!(deep.diagnostics.len(), 1, "{:?}", deep.diagnostics);
    assert_eq!(deep.diagnostics[0].code, Code::NESTING);
}

#[test]
fn hundred_thousand_levels_are_pz0003_not_an_abort() {
    let diags = on_test_stack(|| check_source(&paren_program(100_000), false).diagnostics);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::NESTING);
    assert_eq!(diags[0].code.to_string(), "PZ0003");
}

#[test]
fn pzc_check_exits_1_with_pz0003_on_deep_input() {
    let path = std::env::temp_dir().join(format!("pz_nesting_{}.zl", std::process::id()));
    std::fs::write(&path, paren_program(100_000)).expect("write temp program");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pzc"))
        .arg("check")
        .arg(&path)
        .arg("--json")
        .output()
        .expect("run pzc");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"code\":\"PZ0003\""), "{stdout}");
}
