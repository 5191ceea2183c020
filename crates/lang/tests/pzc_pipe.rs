//! A reader that closes `pzc`'s stdout early (`pzc run … | head -n1`)
//! ends `pzc` quietly with exit 0: no panic, nothing on stderr.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn pzc_run_into_a_closed_pipe_exits_0_quietly() {
    let counter = format!(
        "{}/../../examples/zelus/counter.zl",
        env!("CARGO_MANIFEST_DIR")
    );
    // A million lines: far more than a pipe buffer holds, so a write is
    // sure to fail once the reader is gone.
    let mut child = Command::new(env!("CARGO_BIN_EXE_pzc"))
        .args(["run", &counter, "counter", "--steps", "1000000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pzc starts");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("first line");
    assert_eq!(line, "0: 0\n");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr");
    let status = child.wait().expect("pzc exits");
    assert!(!stderr.contains("panicked"), "pzc panicked: {stderr}");
    assert!(status.success(), "{status}: {stderr}");
    assert_eq!(stderr, "");
}
