//! `tfet-bench` — bench-report tooling; currently the `history`
//! perf-regression harness.
//!
//! The throughput benches emit `results/BENCH_*.json` run reports whose
//! `counters` section is deterministic (identical across machines and
//! thread counts). `history` archives those counters into
//! `results/history/` keyed by git SHA and diffs them against a committed
//! baseline, so a PR that silently doubles Newton refactorizations fails
//! `scripts/check.sh` without anyone timing anything.
//!
//! Usage:
//!
//! ```text
//! tfet-bench history archive [--as-baseline] [--sha SHA]
//!                            [--bench-dir DIR] [--history-dir DIR]
//! tfet-bench history check   [--tolerance PCT]
//!                            [--bench-dir DIR] [--history-dir DIR]
//! tfet-bench history list    [--history-dir DIR]
//! ```
//!
//! Exit codes: `0` success / check passed, `1` check found a regression,
//! `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use tfet_bench::history;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("history") => history_cmd(&args[1..]),
        _ => {
            eprintln!("usage: tfet-bench history <archive|check|list> [flags]");
            ExitCode::from(2)
        }
    }
}

/// Value of `--flag VALUE` in `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn bench_dir(args: &[String]) -> PathBuf {
    PathBuf::from(flag_value(args, "--bench-dir").unwrap_or_else(|| {
        format!(
            "{}/../../{}",
            env!("CARGO_MANIFEST_DIR"),
            history::DEFAULT_BENCH_DIR
        )
    }))
}

fn history_dir(args: &[String]) -> PathBuf {
    PathBuf::from(flag_value(args, "--history-dir").unwrap_or_else(|| {
        format!(
            "{}/../../{}",
            env!("CARGO_MANIFEST_DIR"),
            history::DEFAULT_HISTORY_DIR
        )
    }))
}

/// The current git commit SHA, or `unknown` outside a repository.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn history_cmd(args: &[String]) -> ExitCode {
    let sub = args.first().map(String::as_str);
    let rest = args.get(1..).unwrap_or(&[]);
    match sub {
        Some("archive") => {
            let sha = flag_value(rest, "--sha").unwrap_or_else(git_sha);
            let threads = tfet_numerics::parallel::default_threads() as u64;
            let as_baseline = rest.iter().any(|a| a == "--as-baseline");
            match history::archive(
                &bench_dir(rest),
                &history_dir(rest),
                &sha,
                threads,
                as_baseline,
            ) {
                Ok(written) => {
                    for path in written {
                        println!("archived: {}", path.display());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("archive failed: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("check") => {
            let tolerance = flag_value(rest, "--tolerance")
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or(history::DEFAULT_TOLERANCE_PCT);
            match history::check(&bench_dir(rest), &history_dir(rest), tolerance) {
                Ok(outcome) => {
                    print!("{}", outcome.report);
                    if outcome.passed {
                        println!("history check: PASS (tolerance {tolerance}%)");
                        ExitCode::SUCCESS
                    } else {
                        println!("history check: FAIL (tolerance {tolerance}%)");
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("check failed: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("list") => match history::list(&history_dir(rest)) {
            Ok(entries) => {
                for (path, e) in entries {
                    println!(
                        "{}: bench={} sha={} threads={} counters={}",
                        path.file_name().unwrap_or_default().to_string_lossy(),
                        e.bench,
                        e.git_sha.chars().take(12).collect::<String>(),
                        e.threads,
                        e.counters.len()
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("list failed: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: tfet-bench history <archive|check|list> [flags]");
            ExitCode::from(2)
        }
    }
}
