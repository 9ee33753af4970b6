//! The `indexmac-cli` binary on a closed stdout: a reader that goes
//! away early (`indexmac-cli list --model resnet50 | head -2`) ends the
//! command quietly with exit 0, never with a broken-pipe panic.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_is_a_quiet_exit_0() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    // Closing the read end first makes the very first write fail with
    // a broken pipe, whatever the scheduling.
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_indexmac-cli"))
        .args(["list", "--model", "resnet50"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("indexmac-cli runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "status {}: {stderr}",
        output.status
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
