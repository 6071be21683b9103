//! The binary's output path: a reader that closes its end early must get a
//! quiet exit 0, not a panic.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_quiet_success() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader); // every write to the pipe now fails with EPIPE
    let out = Command::new(env!("CARGO_BIN_EXE_hetsort"))
        .arg("help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    assert!(out.status.success(), "status {:?}", out.status);
    assert!(
        out.stderr.is_empty(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
