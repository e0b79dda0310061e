//! The `tfet-bench gates` command line.

use std::process::Command;

#[test]
fn unknown_gate_exits_2_before_any_gate_runs() {
    let dir = std::env::temp_dir().join(format!("tfet-gates-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A known gate ahead of the unknown one must not run either.
    let out = Command::new(env!("CARGO_BIN_EXE_tfet-bench"))
        .args(["gates", "yield", "solver_throughput", "--bench-dir"])
        .arg(&dir)
        .output()
        .expect("tfet-bench starts");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("solver_throughput"), "{stderr}");
    assert!(out.stdout.is_empty(), "a gate ran: {out:?}");
    assert!(!dir.exists(), "{} was created", dir.display());
}
