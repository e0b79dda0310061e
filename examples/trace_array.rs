//! Timeline trace of a full-array write: Perfetto-loadable span stream plus
//! the per-cell dormancy heatmap.
//!
//! Builds an R×C array netlist of the paper's proposed cell, enables the
//! observability registry *and* the timeline trace ring buffers, runs one
//! write transient (half-select effects included), and writes:
//!
//! * `results/trace_array<R>x<C>.json` — Chrome `trace_events` JSON: open
//!   it at <https://ui.perfetto.dev> (or `chrome://tracing`) to see the
//!   transient / Newton / assembly-phase span hierarchy on the time axis;
//! * `results/trace_array<R>x<C>_partitions.csv` — the deterministic
//!   `(study, row, col, metric, value)` dormancy heatmap: per-cell duty
//!   cycles, refresh causes and guard-trip attribution
//!   (wordline vs bitline vs rail).
//!
//! Run with: `cargo run --release --example trace_array`
//!
//! Flags: `--rows N` / `--cols N` (default 16×16), `--quick` (8×8),
//! `--out-dir DIR` (default `results`).

use tfet_sram::prelude::{AccessConfig, ArrayNetlist, ArraySpec, CellParams, SramError};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let default_dim = if quick { 8 } else { 16 };
    let rows: usize = flag(&args, "--rows")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(default_dim);
    let cols: usize = flag(&args, "--cols")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(default_dim);
    let out_dir = flag(&args, "--out-dir").unwrap_or_else(|| "results".to_string());

    let mut cell = CellParams::tfet6t(AccessConfig::InwardP)
        .with_beta(0.6)
        .with_vdd(0.8);
    cell.sim.dt = 4e-12; // array-scale demo: coarse fixed grid keeps it quick
    let mut array = ArrayNetlist::build(ArraySpec::new(rows, cols, cell))?;

    // Checkerboard background so half-selected neighbours are non-trivial.
    for r in 0..rows {
        for c in 0..cols {
            array.set_bit(r, c, (r + c) % 2 == 0);
        }
    }

    // Metrics + timeline trace on: the trace records every span open/close
    // (transient, newton, decide/eval/stamp, compose, trisolve, …) with
    // monotonic timestamps and thread ids into per-thread ring buffers.
    tfet_obs::reset();
    tfet_obs::enable();
    tfet_obs::trace::start();

    // Generous pulse (the regression suites write at 1.5 ns too), so the
    // traced write actually flips the cell through the full driver/mux path.
    let (row, col) = (rows / 2, cols / 2);
    let write = array
        .write_transient(row, col, false, 1.5e-9)
        .map_err(|e: SramError| format!("array write failed: {e}"))?;
    println!(
        "write ({row},{col}): success={} disturbed={} steps={}",
        write.success,
        write.disturbed.len(),
        write.stats.accepted_steps
    );

    tfet_obs::trace::stop();
    tfet_obs::disable();

    let stats = tfet_obs::trace::stats();
    println!(
        "trace   : {} events on {} thread(s), {} dropped",
        stats.events, stats.threads, stats.dropped
    );

    std::fs::create_dir_all(&out_dir)?;
    let trace_path = format!("{out_dir}/trace_array{rows}x{cols}.json");
    tfet_obs::trace::write(&trace_path)?;
    println!("trace   : {trace_path} (open in https://ui.perfetto.dev)");

    let report = tfet_obs::RunReport::capture();
    let csv_path = format!("{out_dir}/trace_array{rows}x{cols}_partitions.csv");
    std::fs::write(&csv_path, report.partition_csv())?;
    println!("heatmap : {csv_path}");

    // Headline dormancy summary from the run's own telemetry.
    let parts = &write.partitions;
    let decisions: u64 = parts.iter().map(|t| t.decisions).sum();
    let dormant: u64 = parts.iter().map(|t| t.dormant).sum();
    if decisions > 0 {
        println!(
            "dormancy: {:.1} % of {} cell-decisions served from cache",
            100.0 * dormant as f64 / decisions as f64,
            decisions
        );
    }
    Ok(())
}
