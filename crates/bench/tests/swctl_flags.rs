//! `swctl` exit codes for flags a subcommand cannot honour.

use std::process::Command;

#[test]
fn serve_rejects_queue_size_overrides() {
    for flag in ["--sq", "--pq"] {
        let out = Command::new(env!("CARGO_BIN_EXE_swctl"))
            .args(["serve", "queue", "--threads", "2", "--regions", "24"])
            .args(["--ops", "2", flag, "1", "--json"])
            .output()
            .expect("swctl runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("serve does not take {flag}")),
            "{flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}: no report is printed");
    }
}
