//! A zero or unallocatable particle count is a typed error, never an
//! abort: through the library `Compiled::infer_node` (and a source-level
//! `infer n`) returns a `LangError`, and `pzc run` prints it and exits 1.

use probzelus_lang::pipeline::compile_source;
use probzelus_lang::Options;

fn hmm_path() -> String {
    format!("{}/../../examples/zelus/hmm.zl", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn infer_node_rejects_zero_particles() {
    let src = std::fs::read_to_string(hmm_path()).expect("read hmm.zl");
    let compiled = compile_source(&src).expect("hmm.zl compiles");
    let err = compiled
        .infer_node("hmm", 0, Options::default())
        .unwrap_err();
    assert!(err.message.contains("at least one particle"), "{err}");
    assert!(compiled.infer_node("hmm", 1, Options::default()).is_ok());
}

#[test]
fn infer_node_rejects_unallocatable_particle_counts() {
    let src = std::fs::read_to_string(hmm_path()).expect("read hmm.zl");
    let compiled = compile_source(&src).expect("hmm.zl compiles");
    for n in [usize::MAX, 1 << 40] {
        let err = compiled
            .infer_node("hmm", n, Options::default())
            .unwrap_err();
        assert!(
            err.message
                .contains(&format!("cannot allocate {n} particles")),
            "{err}"
        );
    }
}

#[test]
fn source_infer_with_unallocatable_count_is_an_error() {
    let src = std::fs::read_to_string(hmm_path()).expect("read hmm.zl");
    let src = src.replace("infer 1000 hmm y", "infer 1099511627776 hmm y");
    let compiled = compile_source(&src).expect("the resized source compiles");
    // The engine is allocated by `main`'s init, so instantiation fails.
    let err = compiled
        .instantiate("main", Options::default())
        .unwrap_err();
    assert!(
        err.message
            .contains("cannot allocate 1099511627776 particles"),
        "{err}"
    );
}

#[test]
fn pzc_run_with_unallocatable_particles_exits_1_with_an_error() {
    for n in [usize::MAX, 1 << 40] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pzc"))
            .args([
                "run",
                &hmm_path(),
                "hmm",
                "--particles",
                &n.to_string(),
                "--inputs",
                "1",
            ])
            .output()
            .expect("run pzc");
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("cannot allocate {n} particles")),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn pzc_run_with_zero_particles_exits_1_with_an_error() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pzc"))
        .args([
            "run",
            &hmm_path(),
            "hmm",
            "--particles",
            "0",
            "--inputs",
            "1",
        ])
        .output()
        .expect("run pzc");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("at least one particle"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
