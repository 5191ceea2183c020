//! Golden diagnostics over the committed `examples/zelus/bad/` corpus:
//! every file must produce exactly its advertised `PZ0xxx` code, at the
//! advertised position, with a stable JSON rendering.

use probzelus_lang::pipeline::check_source;
use probzelus_lang::{Code, Diagnostic, Severity};

fn check_bad(file: &str, lint: bool) -> (String, Vec<Diagnostic>) {
    let path = format!(
        "{}/../../examples/zelus/bad/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    (src.clone(), check_source(&src, lint).diagnostics)
}

#[track_caller]
fn sole(diags: &[Diagnostic]) -> &Diagnostic {
    assert_eq!(diags.len(), 1, "expected one diagnostic: {diags:?}");
    &diags[0]
}

#[test]
fn kind_error_points_at_the_inner_sample() {
    let (_, diags) = check_bad("kind.zl", false);
    let d = sole(&diags);
    assert_eq!(d.code, Code::KIND_PROB_IN_DET);
    assert_eq!(d.severity, Severity::Error);
    let pos = d.pos.expect("kind errors carry a position");
    assert_eq!((pos.line, pos.col), (3, 24), "should point at inner sample");
}

#[test]
fn type_error_has_the_type_code() {
    let (_, diags) = check_bad("type.zl", false);
    let d = sole(&diags);
    assert_eq!(d.code, Code::TYPE_MISMATCH);
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn init_error_has_the_init_code() {
    let (_, diags) = check_bad("init.zl", false);
    let d = sole(&diags);
    assert_eq!(d.code, Code::INIT_UNDEFINED);
    assert!(d.message.contains("uninitialized"));
}

#[test]
fn causality_error_points_at_the_cyclic_equation() {
    let (_, diags) = check_bad("causality.zl", false);
    let d = sole(&diags);
    assert_eq!(d.code, Code::SCHED_CYCLE);
    let pos = d.pos.expect("cycle errors carry a position");
    assert_eq!((pos.line, pos.col), (3, 28));
}

#[test]
fn unbounded_chain_warns_with_a_witness_cycle() {
    let (_, diags) = check_bad("unbounded_chain.zl", false);
    let d = sole(&diags);
    assert_eq!(d.code, Code::UNBOUNDED_CHAIN);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("`drift`"), "{}", d.message);
    assert!(d.message.contains("x -> x"), "{}", d.message);
}

#[test]
fn unused_stream_lints_at_the_dead_equation() {
    let (_, diags) = check_bad("unused_stream.zl", true);
    let d = sole(&diags);
    assert_eq!(d.code, Code::LINT_UNUSED_STREAM);
    assert_eq!(d.severity, Severity::Lint);
    assert_eq!(d.pos.unwrap().line, 4);
}

#[test]
fn observe_constant_lints_at_the_observe() {
    let (_, diags) = check_bad("observe_constant.zl", true);
    let d = sole(&diags);
    assert_eq!(d.code, Code::LINT_OBSERVE_CONST);
    assert_eq!(d.pos.unwrap().line, 6);
}

#[test]
fn resample_free_lints_at_the_infer_site() {
    let (_, diags) = check_bad("resample_free.zl", true);
    let d = sole(&diags);
    assert_eq!(d.code, Code::LINT_RESAMPLE_FREE);
    assert!(d.message.contains("`prior`"));
    assert_eq!(d.pos.unwrap().line, 5);
}

#[test]
fn lints_are_off_without_the_flag() {
    let (_, diags) = check_bad("unused_stream.zl", false);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn json_rendering_is_stable() {
    let (_, diags) = check_bad("causality.zl", false);
    assert_eq!(
        sole(&diags).to_json(),
        "{\"code\":\"PZ0401\",\"severity\":\"error\",\"stage\":\"schedule\",\
         \"message\":\"instantaneous cycle: `y` depends on itself (use `last y` or `pre`)\",\
         \"pos\":{\"line\":3,\"col\":28}}"
    );
    let (_, diags) = check_bad("unused_stream.zl", true);
    let json = sole(&diags).to_json();
    assert!(
        json.starts_with("{\"code\":\"PZ0601\",\"severity\":\"lint\","),
        "{json}"
    );
    assert!(json.contains("\"pos\":{\"line\":4,\"col\":7}"), "{json}");
    assert!(json.ends_with('}'), "{json}");
}

#[test]
fn pretty_rendering_shows_the_offending_line() {
    let (src, diags) = check_bad("causality.zl", false);
    let rendered = sole(&diags).render("causality.zl", &src);
    assert!(
        rendered.contains("error[PZ0401]"),
        "missing header:\n{rendered}"
    );
    assert!(
        rendered.contains("--> causality.zl:3:28"),
        "missing location:\n{rendered}"
    );
    assert!(
        rendered.contains("let node f x = y where rec y = y + x"),
        "missing source line:\n{rendered}"
    );
}

#[test]
fn good_examples_are_clean_and_bounded() {
    for file in ["hmm.zl", "coin.zl", "counter.zl", "robot.zl"] {
        let path = format!("{}/../../examples/zelus/{file}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let checked = check_source(&src, true);
        assert!(
            checked.diagnostics.is_empty(),
            "{file}: {:?}",
            checked.diagnostics
        );
        let compiled = checked.compiled.expect(file);
        for (node, verdict) in &compiled.bounded {
            assert!(
                matches!(verdict, probzelus_lang::Verdict::Bounded(_)),
                "{file}: node `{node}` is {verdict}"
            );
        }
    }
}

#[test]
fn every_code_has_an_explanation_mentioning_itself() {
    for &code in probzelus_lang::diag::ALL_CODES {
        let text = probzelus_lang::diag::explain(code)
            .unwrap_or_else(|| panic!("{code} has no explanation"));
        assert!(
            text.contains(&code.to_string()),
            "{code}: explanation must cite the code"
        );
        assert_eq!(Code::parse(&code.to_string()), Some(code));
    }
}
