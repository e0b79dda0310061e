//! Figure and table regeneration for the DATE'11 TFET SRAM paper.
//!
//! Every data-bearing figure and comparison of the paper, and each A1–A6
//! ablation beyond it, has a builder in [`experiments`] that recomputes its
//! series through the full stack and renders it as a [`Table`]. The
//! `figures` binary dumps every table (text + CSV) in one run; the Criterion
//! benches under `benches/` time the simulation engine's throughput.
//!
//! Absolute values come from our substrate (analytical compact models + the
//! in-tree MNA simulator), not the authors' TCAD + commercial SPICE, so the
//! numbers to compare are *shapes*: orderings, crossovers, and orders of
//! magnitude. `EXPERIMENTS.md` records paper-vs-measured per experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

pub mod experiments;
pub mod history;

/// A rendered experiment result: a titled grid of cells plus notes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier, e.g. `"Fig. 4(a)"`.
    pub id: String,
    /// Human-readable description.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (shape checks, paper comparison).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, header: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row of formatted cells.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.header.len());
        self.rows.push(row);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        out
    }

    /// Renders as CSV (notes become `#` comment lines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Runs `workload` once with tracing enabled on a clean registry and writes
/// the captured [`tfet_obs::RunReport`] to `results/BENCH_<name>.json`,
/// with its per-cell partition rows folded into per-metric quantiles.
///
/// Tracing is switched off again before returning, so Criterion timing loops
/// that follow pay only the disabled-path cost (one relaxed atomic load per
/// instrumentation site). The JSON is the versioned `tfet-obs.run-report`
/// schema documented in `docs/RUN_REPORT.md`; because the workload runs under
/// a fresh registry with deterministic aggregation, the file is bit-identical
/// across repeat runs and thread counts.
pub fn write_bench_report(name: &str, workload: impl FnOnce()) -> std::path::PathBuf {
    tfet_obs::reset();
    tfet_obs::enable();
    workload();
    tfet_obs::disable();
    let mut report = tfet_obs::RunReport::capture();
    // One quantile row per partition metric, not one row per array cell:
    // the report stays small enough to read and diff.
    report.summarize_partitions();
    // Bench binaries run with the package directory as CWD; anchor the
    // report next to the figure CSVs in the workspace-root `results/`.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../../results/BENCH_{name}.json"));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => println!("run report: {}", path.display()),
        Err(e) => eprintln!("run report: failed to write {}: {e}", path.display()),
    }
    path
}

/// Runs `pass` on the dense reference solver, the oracle the bench floors
/// compare the sparse engine against, then restores the process hook.
///
/// The hook is process-wide and read when each run starts, so nothing may
/// run concurrently with `pass`: every bench's `criterion_main` runs its
/// one group serially on the main thread.
pub fn on_dense_oracle<R>(pass: impl FnOnce() -> R) -> R {
    use tfet_circuit::SolverStrategy;
    let engine = SolverStrategy::process_default();
    SolverStrategy::set_process_default(SolverStrategy::Dense);
    let out = pass();
    SolverStrategy::set_process_default(engine);
    out
}

/// One-decimal formatting capped at four significant digits.
///
/// Figure cells must render identically across solver configurations that
/// are equivalent only to ~1e-5 relative (sparse vs dense factorization,
/// device-latency tiers) — `scripts/check.sh` diffs the CSVs byte-for-byte.
/// A fixed `{:.1}` violates that for magnitudes >= 1000, where its 0.05
/// rounding quantum shrinks below the solver-tier agreement scale; capping
/// the display at four significant digits keeps the quantum safely above
/// it at every magnitude.
fn fixed1_sig4(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// Formats seconds as picoseconds with unit.
pub fn ps(t: f64) -> String {
    fixed1_sig4(t * 1e12)
}

/// Formats volts as millivolts.
pub fn mv(v: f64) -> String {
    fixed1_sig4(v * 1e3)
}

/// Formats a quantity in scientific notation.
pub fn sci(x: f64) -> String {
    format!("{x:.3e}")
}
