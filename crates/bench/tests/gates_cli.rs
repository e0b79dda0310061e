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

#[test]
fn bench_dir_without_a_value_exits_2_before_any_gate_runs() {
    // Without the check, the default `results/` would stand in for the
    // missing value and every gate would overwrite the committed reports.
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let reports = || -> Vec<_> {
        let mut found: Vec<_> = std::fs::read_dir(&results)
            .expect("results/ is readable")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("BENCH_"))
            .map(|e| (e.path(), e.metadata().and_then(|m| m.modified()).ok()))
            .collect();
        found.sort();
        found
    };
    let before = reports();
    let out = Command::new(env!("CARGO_BIN_EXE_tfet-bench"))
        .args(["gates", "yield", "--bench-dir"])
        .output()
        .expect("tfet-bench starts");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bench-dir needs a value"), "{stderr}");
    assert!(out.stdout.is_empty(), "a gate ran: {out:?}");
    assert_eq!(reports(), before, "results/BENCH_*.json changed");
}
