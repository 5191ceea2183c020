//! `pzc run --inputs` reads its values against the node's input type:
//! an integer literal is a float where a float is expected, and a node
//! whose input is a tuple is refused before the first step.

use std::process::{Command, Output};

fn example(file: &str) -> String {
    format!("{}/../../examples/zelus/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn pzc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pzc"))
        .args(args)
        .output()
        .expect("pzc runs")
}

#[test]
fn integer_inputs_of_a_float_node_run_as_floats() {
    let hmm = example("hmm.zl");
    let run = |inputs: &str| {
        let out = pzc(&["run", &hmm, "hmm", "--inputs", inputs, "--particles", "10"]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "--inputs {inputs}: {stderr}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let floats = run("1.0,2.0");
    assert_eq!(floats.lines().count(), 3, "{floats}");
    assert_eq!(run("1,2"), floats);
}

#[test]
fn a_tuple_input_is_refused_before_the_first_step() {
    let out = pzc(&["run", &example("robot.zl"), "robot", "--steps", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "stepped: {:?}", out.stdout);
    for part in ["`robot`", "(float * ", "--inputs"] {
        assert!(stderr.contains(part), "no {part:?} in {stderr}");
    }
}

#[test]
fn a_mismatched_input_names_the_node_the_type_and_the_value() {
    let out = pzc(&["run", &example("coin.zl"), "main", "--inputs", "true,2.5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "stepped: {:?}", out.stdout);
    for part in ["`main`", "bool", "`2.5`"] {
        assert!(stderr.contains(part), "no {part:?} in {stderr}");
    }
}
