//! The `dynvote-check` binary's argument checks.

use std::process::Command;

/// A depth past the engine's one-byte depth-left is a usage error, not
/// a run that silently explores to depth 255 and calls it deeper.
#[test]
fn depth_past_the_bound_is_a_usage_error() {
    for mode in [&[][..], &["--diff", "dv-ldv"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_dynvote-check"))
            .args(["--sites", "2", "--depth", "256"])
            .args(mode)
            .output()
            .expect("dynvote-check runs");
        assert_eq!(out.status.code(), Some(2), "mode {mode:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("depth 256 is past the checker's bound of 255"),
            "stderr: {stderr}"
        );
    }
}
