//! `tfet-bench` — the bench gates.
//!
//! `gates` runs the engine's counter floors ([`tfet_bench::gates`]) and
//! writes their `BENCH_*.json` run reports, whose `counters` section is
//! deterministic (identical across machines and thread counts). The
//! committed `results/BENCH_*.json` are the baseline: `scripts/check.sh`
//! reruns the gates into a temporary directory and fails unless the fresh
//! reports equal the committed ones byte for byte. A change meant to move a
//! report refreshes it with `RAYON_NUM_THREADS=2 tfet-bench gates`.
//!
//! Usage:
//!
//! ```text
//! tfet-bench gates [NAME...] [--bench-dir DIR]
//! ```
//!
//! `gates` with no NAME runs every gate and `--bench-dir` defaults to
//! `results/`. Exit codes: `0` success, `2` usage or I/O error (an unknown
//! gate name or a `--bench-dir` without a value exits before any gate
//! runs). A floor that does not hold panics.

use std::path::PathBuf;
use std::process::ExitCode;
use tfet_bench::gates;

const USAGE: &str = "usage: tfet-bench gates [NAME...] [--bench-dir DIR]";

/// Default bench-report directory, relative to the workspace root.
const DEFAULT_BENCH_DIR: &str = "results";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gates") => gates_cmd(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn gates_cmd(args: &[String]) -> ExitCode {
    let mut names = Vec::new();
    let mut dir = None;
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--bench-dir" => match rest.next() {
                Some(value) => dir = Some(PathBuf::from(value)),
                None => {
                    eprintln!("--bench-dir needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            name => names.push(name.to_string()),
        }
    }
    let selected = match gates::select(&names) {
        Ok(selected) => selected,
        Err(e) => {
            let known: Vec<_> = gates::GATES.iter().map(|g| g.0).collect();
            eprintln!("{e}; known gates: {}", known.join(", "));
            return ExitCode::from(2);
        }
    };
    let dir = dir.unwrap_or_else(bench_dir);
    for (name, study) in selected {
        println!("== gate {name} ==");
        if let Err(e) = study(&dir) {
            eprintln!("gate {name}: cannot write its report: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// The committed reports' directory, [`DEFAULT_BENCH_DIR`] under the
/// workspace root.
fn bench_dir() -> PathBuf {
    PathBuf::from(format!(
        "{}/../../{DEFAULT_BENCH_DIR}",
        env!("CARGO_MANIFEST_DIR")
    ))
}
