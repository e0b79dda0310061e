//! Deterministic perf-regression history: archive bench run reports, diff
//! their machine-independent cost counters against a committed baseline.
//!
//! The throughput benches write `results/BENCH_<name>.json` run reports
//! whose `counters` section is deterministic by construction — identical
//! across repeat runs, thread counts and machines (wall-clock lives in the
//! excluded `timings_ns` section). That makes the counters a perf signal
//! that can be *committed and gated in CI without a quiet lab machine*: a
//! change that doubles `newton.jac_refactored` or `devices.evals` is a real
//! performance regression regardless of where it runs.
//!
//! This module implements the `tfet-bench history` subcommand plumbing:
//!
//! * [`archive`] — snapshot every `BENCH_*.json` in a bench directory into
//!   `results/history/` as [`HistoryEntry`] documents keyed by git SHA,
//!   with thread-count metadata;
//! * [`check`] — diff the current `BENCH_*.json` cost counters against the
//!   committed `baseline--<bench>.json` entries and fail when any
//!   [`COST_COUNTERS`] counter grew beyond tolerance.
//!
//! Counters not on the cost list (cache-hit counts, derived ratios,
//! workload-size tallies) are diffed for the report but never fail the
//! check: only "more work done" counters gate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tfet_obs::{ParseError, Value};

/// Default history directory, relative to the workspace root.
pub const DEFAULT_HISTORY_DIR: &str = "results/history";

/// Default bench-report directory, relative to the workspace root.
pub const DEFAULT_BENCH_DIR: &str = "results";

/// Default regression tolerance: a cost counter may grow this many percent
/// over baseline before the check fails. The engine is deterministic, so an
/// unchanged tree reproduces the baseline *exactly*; the headroom only
/// absorbs deliberate small algorithmic shifts that a PR argues are
/// acceptable without re-baselining.
pub const DEFAULT_TOLERANCE_PCT: f64 = 2.0;

/// Counters where an increase means the engine did more work — the set the
/// regression gate fails on. Everything else in the report (cache-hit
/// tallies, derived percentages, workload-size counts) is informational.
pub const COST_COUNTERS: &[&str] = &[
    "newton.jac_refactored",
    "newton.failures",
    "newton.gmin_ladders",
    "devices.evals",
    "solver.sparse_refactorizations",
    "solver.sparse_solves",
    "lte.rejected_steps",
    "transient.rescue_attempts",
    "transient.failures",
];

/// Schema identifier of an archived history entry document.
pub const ENTRY_SCHEMA: &str = "tfet-bench.history-entry";

/// Schema version of an archived history entry document.
pub const ENTRY_VERSION: u32 = 1;

/// One archived bench snapshot: the deterministic counters of a
/// `BENCH_<bench>.json` run report plus the provenance metadata needed to
/// interpret them later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Bench name (the `<name>` of `BENCH_<name>.json`).
    pub bench: String,
    /// Git commit SHA the snapshot was taken at (`unknown` outside a repo).
    pub git_sha: String,
    /// Device-evaluation worker threads configured when the bench ran. The
    /// counters are thread-invariant by contract — this is provenance, not
    /// a cache key.
    pub threads: u64,
    /// The run report's `counters` section, name-sorted.
    pub counters: BTreeMap<String, u64>,
}

impl HistoryEntry {
    /// Serializes the entry as its versioned JSON document.
    pub fn to_json(&self) -> String {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                .collect(),
        );
        Value::Obj(vec![
            ("schema".into(), Value::text(ENTRY_SCHEMA)),
            ("version".into(), Value::UInt(u64::from(ENTRY_VERSION))),
            ("bench".into(), Value::text(self.bench.clone())),
            ("git_sha".into(), Value::text(self.git_sha.clone())),
            ("threads".into(), Value::UInt(self.threads)),
            ("counters".into(), counters),
        ])
        .to_json()
    }

    /// Parses an entry document, validating schema and version. Keys it
    /// does not know are ignored, so entries archived with the retired
    /// `strategy` label still parse.
    ///
    /// # Errors
    ///
    /// Malformed JSON, wrong schema/version, or missing fields.
    pub fn parse(json: &str) -> Result<HistoryEntry, String> {
        let v = Value::parse(json).map_err(|e: ParseError| e.to_string())?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or_default();
        if schema != ENTRY_SCHEMA {
            return Err(format!("not a history entry (schema {schema:?})"));
        }
        let version = v.get("version").and_then(Value::as_u64).unwrap_or(0);
        if version != u64::from(ENTRY_VERSION) {
            return Err(format!("unsupported history-entry version {version}"));
        }
        let text = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let counters = v
            .get("counters")
            .and_then(Value::as_obj)
            .ok_or("missing counters object")?
            .iter()
            .filter_map(|(k, val)| val.as_u64().map(|n| (k.clone(), n)))
            .collect();
        Ok(HistoryEntry {
            bench: text("bench")?,
            git_sha: text("git_sha")?,
            threads: v.get("threads").and_then(Value::as_u64).unwrap_or(0),
            counters,
        })
    }
}

/// Extracts the `counters` section from a `tfet-obs.run-report` JSON
/// document (any version — the section predates v1).
///
/// # Errors
///
/// Malformed JSON or a document that is not a run report.
pub fn report_counters(json: &str) -> Result<BTreeMap<String, u64>, String> {
    let v = Value::parse(json).map_err(|e| e.to_string())?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or_default();
    if schema != "tfet-obs.run-report" {
        return Err(format!("not a run report (schema {schema:?})"));
    }
    Ok(v.get("counters")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, val)| val.as_u64().map(|n| (k.clone(), n)))
        .collect())
}

/// The `BENCH_*.json` files under `dir`, as `(bench_name, path)` sorted by
/// name (deterministic iteration order regardless of filesystem).
///
/// # Errors
///
/// Directory read failures.
pub fn bench_reports(dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(stem) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
        {
            out.push((stem.to_string(), path));
        }
    }
    out.sort();
    Ok(out)
}

/// Result of diffing one bench's counters against its baseline.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// `(counter, baseline, current)` for cost counters that regressed
    /// beyond tolerance.
    pub regressions: Vec<(String, u64, u64)>,
    /// `(counter, baseline, current)` for cost counters that improved.
    pub improvements: Vec<(String, u64, u64)>,
    /// Every counter whose value changed, cost or not, rendered for the
    /// report: `(counter, baseline, current)`.
    pub changed: Vec<(String, u64, u64)>,
    /// Counters present on only one side (name, which side has it).
    pub lopsided: Vec<(String, &'static str)>,
}

impl Diff {
    /// Whether the diff passes the regression gate.
    pub fn passes(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Diffs `current` counters against `baseline` at `tolerance_pct`.
///
/// A [`COST_COUNTERS`] counter regresses when it *grows* more than
/// `tolerance_pct` percent over baseline (a zero baseline regresses on any
/// growth); shrinking is an improvement and never fails. Non-cost counters
/// are reported under `changed` but cannot regress. A cost counter missing
/// from `current` is fine (the workload stopped doing that work); one
/// missing from `baseline` but present now is treated as growth from zero.
pub fn diff_counters(
    baseline: &BTreeMap<String, u64>,
    current: &BTreeMap<String, u64>,
    tolerance_pct: f64,
) -> Diff {
    let mut diff = Diff::default();
    let names: std::collections::BTreeSet<&String> =
        baseline.keys().chain(current.keys()).collect();
    for name in names {
        let is_cost = COST_COUNTERS.contains(&name.as_str());
        match (baseline.get(name), current.get(name)) {
            (Some(&b), Some(&c)) => {
                if b != c {
                    diff.changed.push((name.clone(), b, c));
                    if is_cost {
                        if c > b && exceeds(b, c, tolerance_pct) {
                            diff.regressions.push((name.clone(), b, c));
                        } else if c < b {
                            diff.improvements.push((name.clone(), b, c));
                        }
                    }
                }
            }
            (None, Some(&c)) => {
                diff.lopsided.push((name.clone(), "current-only"));
                if is_cost && c > 0 {
                    diff.regressions.push((name.clone(), 0, c));
                }
            }
            (Some(_), None) => diff.lopsided.push((name.clone(), "baseline-only")),
            (None, None) => unreachable!("name came from one of the maps"),
        }
    }
    diff
}

/// Whether growing from `b` to `c` exceeds `tolerance_pct` percent.
fn exceeds(b: u64, c: u64, tolerance_pct: f64) -> bool {
    if b == 0 {
        return c > 0;
    }
    let growth_pct = ((c - b) as f64 / b as f64) * 100.0;
    growth_pct > tolerance_pct
}

/// File name of the committed baseline entry for a bench.
pub fn baseline_file(bench: &str) -> String {
    format!("baseline--{bench}.json")
}

/// File name of a SHA-keyed archived entry (first 12 SHA characters, the
/// conventional abbreviated commit id).
pub fn entry_file(bench: &str, sha: &str) -> String {
    let short: String = sha.chars().take(12).collect();
    format!("{bench}--{short}.json")
}

/// Archives every `BENCH_*.json` under `bench_dir` into `history_dir`.
///
/// Each report becomes a [`HistoryEntry`] written twice when `as_baseline`
/// is set — once under its SHA-keyed name, once as the bench's committed
/// baseline — and once (SHA-keyed only) otherwise. Returns the written
/// paths.
///
/// # Errors
///
/// Missing/unreadable reports or an unwritable history directory.
pub fn archive(
    bench_dir: &Path,
    history_dir: &Path,
    git_sha: &str,
    threads: u64,
    as_baseline: bool,
) -> Result<Vec<PathBuf>, String> {
    let reports = bench_reports(bench_dir)?;
    if reports.is_empty() {
        return Err(format!(
            "no BENCH_*.json reports under {}",
            bench_dir.display()
        ));
    }
    std::fs::create_dir_all(history_dir)
        .map_err(|e| format!("cannot create {}: {e}", history_dir.display()))?;
    let mut written = Vec::new();
    for (bench, path) in reports {
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let counters = report_counters(&json).map_err(|e| format!("{}: {e}", path.display()))?;
        let entry = HistoryEntry {
            bench: bench.clone(),
            git_sha: git_sha.to_string(),
            threads,
            counters,
        };
        let mut names = vec![entry_file(&bench, git_sha)];
        if as_baseline {
            names.push(baseline_file(&bench));
        }
        for name in names {
            let dest = history_dir.join(name);
            std::fs::write(&dest, entry.to_json())
                .map_err(|e| format!("cannot write {}: {e}", dest.display()))?;
            written.push(dest);
        }
    }
    Ok(written)
}

/// Outcome of a [`check`] run: the per-bench diffs plus a rendered report.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Whether every diffed bench passed the regression gate.
    pub passed: bool,
    /// Human-readable report (one block per bench).
    pub report: String,
}

/// Diffs every `BENCH_*.json` under `bench_dir` against its committed
/// baseline in `history_dir`, at `tolerance_pct`.
///
/// A bench without a committed baseline is skipped with a note (new benches
/// must be baselined explicitly, not silently gated); a baseline without a
/// current report is also only a note (the bench may simply not have run).
///
/// # Errors
///
/// Unreadable directories or malformed documents — *not* regressions,
/// which are reported through [`CheckOutcome::passed`].
pub fn check(
    bench_dir: &Path,
    history_dir: &Path,
    tolerance_pct: f64,
) -> Result<CheckOutcome, String> {
    let reports = bench_reports(bench_dir)?;
    if reports.is_empty() {
        return Err(format!(
            "no BENCH_*.json reports under {}",
            bench_dir.display()
        ));
    }
    let mut passed = true;
    let mut report = String::new();
    let mut gated = 0usize;
    for (bench, path) in reports {
        let baseline_path = history_dir.join(baseline_file(&bench));
        if !baseline_path.exists() {
            let _ = writeln!(report, "{bench}: SKIP (no committed baseline)");
            continue;
        }
        let baseline = HistoryEntry::parse(
            &std::fs::read_to_string(&baseline_path)
                .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?,
        )
        .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let current = report_counters(&json).map_err(|e| format!("{}: {e}", path.display()))?;
        let diff = diff_counters(&baseline.counters, &current, tolerance_pct);
        gated += 1;
        let verdict = if diff.passes() { "OK" } else { "REGRESSION" };
        let _ = writeln!(
            report,
            "{bench}: {verdict} (baseline {}, {} counters changed)",
            baseline.git_sha.chars().take(12).collect::<String>(),
            diff.changed.len()
        );
        for (name, b, c) in &diff.regressions {
            let _ = writeln!(report, "  FAIL {name}: {b} -> {c} (+{})", c - b);
        }
        for (name, b, c) in &diff.improvements {
            let _ = writeln!(report, "  good {name}: {b} -> {c} (-{})", b - c);
        }
        for (name, b, c) in diff
            .changed
            .iter()
            .filter(|(n, ..)| !COST_COUNTERS.contains(&n.as_str()))
        {
            let _ = writeln!(report, "  info {name}: {b} -> {c}");
        }
        for (name, side) in &diff.lopsided {
            let _ = writeln!(report, "  note {name}: {side}");
        }
        passed &= diff.passes();
    }
    if gated == 0 {
        let _ = writeln!(report, "no bench had a committed baseline — nothing gated");
    }
    Ok(CheckOutcome { passed, report })
}

/// Lists the archived entries under `history_dir`, name-sorted.
///
/// # Errors
///
/// Unreadable directory (a missing one lists as empty).
pub fn list(history_dir: &Path) -> Result<Vec<(PathBuf, HistoryEntry)>, String> {
    if !history_dir.exists() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(history_dir)
        .map_err(|e| format!("cannot read {}: {e}", history_dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        match HistoryEntry::parse(&json) {
            Ok(entry) => out.push((path, entry)),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn entry_round_trips_through_json() {
        let entry = HistoryEntry {
            bench: "array".into(),
            git_sha: "c47413fdeadbeef".into(),
            threads: 8,
            counters: counters(&[("devices.evals", 123), ("newton.jac_refactored", 7)]),
        };
        let json = entry.to_json();
        assert!(json.starts_with(r#"{"schema":"tfet-bench.history-entry","version":1"#));
        assert_eq!(HistoryEntry::parse(&json).unwrap(), entry);
        assert!(HistoryEntry::parse(r#"{"schema":"other"}"#).is_err());
        assert!(HistoryEntry::parse("not json").is_err());
        // Entries archived with the retired `strategy` label still parse.
        let legacy = json.replace(r#""threads":8,"#, r#""threads":8,"strategy":"sparse","#);
        assert_ne!(legacy, json);
        assert_eq!(HistoryEntry::parse(&legacy).unwrap(), entry);
    }

    #[test]
    fn report_counters_reads_run_reports_only() {
        let report =
            r#"{"schema":"tfet-obs.run-report","version":3,"counters":{"devices.evals":42,"x":1}}"#;
        let c = report_counters(report).unwrap();
        assert_eq!(c.get("devices.evals"), Some(&42));
        assert!(report_counters(r#"{"schema":"nope"}"#).is_err());
    }

    #[test]
    fn diff_flags_cost_growth_only() {
        let base = counters(&[
            ("devices.evals", 1000),
            ("newton.jac_refactored", 100),
            ("devices.bypassed", 500),
        ]);
        // Within tolerance: 1% growth on a cost counter passes at 2%.
        let near = counters(&[
            ("devices.evals", 1010),
            ("newton.jac_refactored", 100),
            ("devices.bypassed", 9999),
        ]);
        let d = diff_counters(&base, &near, DEFAULT_TOLERANCE_PCT);
        assert!(d.passes(), "{d:?}");
        assert_eq!(d.changed.len(), 2, "evals and bypassed changed");

        // Beyond tolerance: fails, and names the counter.
        let worse = counters(&[("devices.evals", 1500), ("newton.jac_refactored", 100)]);
        let d = diff_counters(&base, &worse, DEFAULT_TOLERANCE_PCT);
        assert!(!d.passes());
        assert_eq!(
            d.regressions,
            vec![("devices.evals".to_string(), 1000, 1500)]
        );

        // Improvement on a cost counter never fails.
        let better = counters(&[("devices.evals", 10), ("newton.jac_refactored", 100)]);
        let d = diff_counters(&base, &better, DEFAULT_TOLERANCE_PCT);
        assert!(d.passes());
        assert_eq!(
            d.improvements,
            vec![("devices.evals".to_string(), 1000, 10)]
        );

        // A cost counter appearing from nothing is growth from zero.
        let novel = counters(&[("devices.evals", 1000), ("transient.failures", 1)]);
        let d = diff_counters(&base, &novel, DEFAULT_TOLERANCE_PCT);
        assert!(!d.passes());
    }

    #[test]
    fn archive_then_check_round_trip() {
        let dir = std::env::temp_dir().join(format!("tfet-hist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bench_dir = dir.join("bench");
        let hist_dir = dir.join("history");
        std::fs::create_dir_all(&bench_dir).unwrap();
        let report = r#"{"schema":"tfet-obs.run-report","version":3,"counters":{"devices.evals":100,"newton.jac_refactored":10}}"#;
        std::fs::write(bench_dir.join("BENCH_demo.json"), report).unwrap();

        let written =
            archive(&bench_dir, &hist_dir, "abc123def4567890", 1, true).expect("archive succeeds");
        assert_eq!(written.len(), 2, "sha-keyed + baseline: {written:?}");
        assert!(hist_dir.join("demo--abc123def456.json").exists());
        assert!(hist_dir.join("baseline--demo.json").exists());
        assert_eq!(list(&hist_dir).unwrap().len(), 2);

        // Unchanged report: passes.
        let ok = check(&bench_dir, &hist_dir, DEFAULT_TOLERANCE_PCT).unwrap();
        assert!(ok.passed, "{}", ok.report);

        // Tampered cost counter: fails and names it.
        let worse = report.replace(r#""devices.evals":100"#, r#""devices.evals":200"#);
        std::fs::write(bench_dir.join("BENCH_demo.json"), worse).unwrap();
        let bad = check(&bench_dir, &hist_dir, DEFAULT_TOLERANCE_PCT).unwrap();
        assert!(!bad.passed);
        assert!(
            bad.report.contains("FAIL devices.evals: 100 -> 200"),
            "{}",
            bad.report
        );

        // A bench with no baseline is skipped, not gated.
        std::fs::write(
            bench_dir.join("BENCH_new.json"),
            r#"{"schema":"tfet-obs.run-report","version":3,"counters":{}}"#,
        )
        .unwrap();
        std::fs::write(bench_dir.join("BENCH_demo.json"), report).unwrap();
        let mixed = check(&bench_dir, &hist_dir, DEFAULT_TOLERANCE_PCT).unwrap();
        assert!(mixed.passed);
        assert!(mixed.report.contains("new: SKIP"), "{}", mixed.report);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
