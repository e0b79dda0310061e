//! The bench gates: the engine's machine-independent acceptance floors,
//! each writing one `BENCH_<name>.json` run report.
//!
//! `tfet-bench gates [NAME...] [--bench-dir DIR]` runs the named gates, or
//! all of them in [`GATES`] order. Each gate prints its tables, asserts its
//! floors (a failed floor panics) and runs one traced pass whose run report
//! lands in the bench directory. Effort is counted, never timed: the
//! always-on [`SolveStats`](tfet_circuit::SolveStats) counters and
//! the report's `counters` section are identical across machines and
//! thread counts, and `scripts/check.sh` pins them: it fails unless the
//! fresh reports equal the committed `results/BENCH_*.json` byte for byte.
//! Wall-clock belongs to `perfbench/`.
//!
//! * `mc_throughput` — the n = 256 Monte-Carlo WL_crit study (paper §4.3),
//!   dense vs sparse solver cost.
//! * `wl_crit_throughput` — one WL_crit search under each stepping policy,
//!   the dense cross-check, and a compiled seeded β-sweep.
//! * `array` — the 64×64 write under the latency tier, its full-evaluation
//!   oracle and 1 vs 8 assembly threads.
//! * `yield` — brute force vs scaled-sigma importance sampling on the ~6σ
//!   read-disturb tail.

use crate::experiments::{fast, yield_model};
use crate::{sci, Table};
use std::io;
use std::path::{Path, PathBuf};
use tfet_circuit::set_assembly_threads;
use tfet_sram::array_netlist::{ArrayNetlist, ArraySpec, ArrayWrite};
use tfet_sram::metrics::{wl_crit_compiled, wl_crit_seeded, WlCrit, WlCritRun};
use tfet_sram::montecarlo::{mc_wl_crit_with, McConfig};
use tfet_sram::prelude::*;
use tfet_sram::rare_event::{yield_read, YieldConfig, YieldStudy};

/// A gate's study: runs it, asserts its floors (a failed floor panics) and
/// writes its report into the given directory, created if missing.
/// Returns the report's path, or the error that kept it from being
/// written.
pub type Study = fn(&Path) -> io::Result<PathBuf>;

/// Every gate, by the `<name>` of the `BENCH_<name>.json` report it
/// writes, in the order `tfet-bench gates` runs them.
pub const GATES: [(&str, Study); 4] = [
    ("mc_throughput", mc_throughput),
    ("wl_crit_throughput", wl_crit_throughput),
    ("array", array),
    ("yield", yield_gate),
];

/// The gates `names` asks for, in the order given; every gate when `names`
/// is empty.
///
/// # Errors
///
/// The first name no gate has.
pub fn select(names: &[String]) -> Result<Vec<(&'static str, Study)>, String> {
    if names.is_empty() {
        return Ok(GATES.to_vec());
    }
    names
        .iter()
        .map(|n| {
            GATES
                .iter()
                .find(|(name, _)| name == n)
                .copied()
                .ok_or_else(|| format!("unknown gate {n:?}"))
        })
        .collect()
}

/// Runs `workload` once with tracing enabled on a clean registry and writes
/// the captured [`tfet_obs::RunReport`] to `dir/BENCH_<name>.json`, with
/// its per-cell partition rows folded into per-metric quantiles.
///
/// The JSON is the versioned `tfet-obs.run-report` schema documented in
/// `docs/RUN_REPORT.md`; because the workload runs under a fresh registry
/// with deterministic aggregation, its `counters` are bit-identical across
/// repeat runs and thread counts.
fn write_bench_report(dir: &Path, name: &str, workload: impl FnOnce()) -> io::Result<PathBuf> {
    tfet_obs::reset();
    tfet_obs::enable();
    workload();
    tfet_obs::disable();
    let mut report = tfet_obs::RunReport::capture();
    // One quantile row per partition metric, not one row per array cell:
    // the report stays small enough to read and diff.
    report.summarize_partitions();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, report.to_json())?;
    println!("run report: {}", path.display());
    Ok(path)
}

/// Runs `pass` on the dense reference solver, the oracle the floors
/// compare the sparse engine against, then restores the process hook.
///
/// The hook is process-wide and read when each run starts, so nothing may
/// run concurrently with `pass`: the gates run one after another on the
/// main thread.
fn on_dense_oracle<R>(pass: impl FnOnce() -> R) -> R {
    use tfet_circuit::SolverStrategy;
    let engine = SolverStrategy::process_default();
    SolverStrategy::set_process_default(SolverStrategy::Dense);
    let out = pass();
    SolverStrategy::set_process_default(engine);
    out
}

fn finite_ps(w: WlCrit) -> String {
    w.as_finite()
        .map(|w| format!("{:.1}", w * 1e12))
        .unwrap_or_else(|| "inf".into())
}

/// Monte-Carlo WL_crit study at n = 256: the deterministic
/// `(factorizations + device evaluations)` cost of the full run under each
/// linear-solve strategy, asserted in the sparse engine's favour and
/// recorded under `bench.dense.*` / `bench.sparse.*`.
fn mc_throughput(dir: &Path) -> io::Result<PathBuf> {
    const N: usize = 256;
    let lut = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6)).with_lut_devices();
    // The study's solver-cost counters `(jac_refactored, jac_reused,
    // device_evals, devices_bypassed)`, measured single-threaded on a clean
    // tracing registry.
    let solver_counters = || {
        tfet_obs::reset();
        tfet_obs::enable();
        mc_wl_crit_with(&lut, None, N, McConfig::new(7).with_threads(1)).unwrap();
        tfet_obs::disable();
        let c = tfet_obs::RunReport::capture().counters;
        let get = |k: &str| c.get(k).copied().unwrap_or(0);
        (
            get("newton.jac_refactored"),
            get("newton.jac_reused"),
            get("devices.evals"),
            get("devices.bypassed"),
        )
    };
    let mut t = Table::new(
        "MC solver cost",
        "dense vs sparse (factorizations + device evals) for the n = 256 WL_crit study",
        &[
            "strategy",
            "jac_refactored",
            "jac_reused",
            "device_evals",
            "devices_bypassed",
            "cost",
        ],
    );
    let dense = on_dense_oracle(solver_counters);
    let sparse = solver_counters();
    let cost = |(refac, _, evals, _): (u64, u64, u64, u64)| refac + evals;
    for (label, s) in [("dense", dense), ("sparse", sparse)] {
        t.push_row(vec![
            label.to_string(),
            s.0.to_string(),
            s.1.to_string(),
            s.2.to_string(),
            s.3.to_string(),
            cost(s).to_string(),
        ]);
    }
    let (dense_cost, sparse_cost) = (cost(dense), cost(sparse));
    t.note(format!(
        "speedup: dense/sparse cost = {:.2}x (counter-based, machine-independent)",
        dense_cost as f64 / sparse_cost as f64
    ));
    println!("{}", t.render());
    // Acceptance floor: 1.3x. The sparse engine measured 2.02x when it
    // landed; the stall-guard inf-init then traded refactorizations (-58 %)
    // for extra reused-factor iterations (+61 % device evals) — a win at
    // array scale, a net cost increase on this single-cell metric that a
    // never-executed >= 2x assert missed. The ratio stays as a coarse
    // sanity floor; absolute drift is caught by check.sh's byte-identity
    // diff of `results/BENCH_*.json`.
    assert!(
        10 * dense_cost >= 13 * sparse_cost,
        "acceptance: sparse must cut (factorizations + device evals) >= 1.3x on the \
         MC study (dense {dense_cost} vs sparse {sparse_cost})"
    );

    // One traced run at the machine-default worker count with cached LUTs
    // (the configuration sweeps and studies use) writes the report; the
    // dense-vs-sparse cost counters ride along under `bench.*`.
    write_bench_report(dir, "mc_throughput", || {
        mc_wl_crit_with(&lut, None, N, McConfig::new(7)).unwrap();
        tfet_obs::counter("bench.dense.solver_cost", dense_cost);
        tfet_obs::counter("bench.sparse.solver_cost", sparse_cost);
        tfet_obs::counter(
            "bench.sparse_speedup_pct",
            (100 * dense_cost) / sparse_cost.max(1),
        );
    })
}

/// WL_crit extraction effort: one critical-pulse-width search under each
/// stepping policy, in Newton solves.
///
/// The 2×2 grid {fixed, adaptive} × {early exit off, on} plus the seeded
/// adaptive search measures three effort levers independently:
///
/// * adaptive LTE stepping — fewer, larger transient steps on plateaus;
/// * event-driven early exit — flip/no-flip transients stop when decided;
/// * bracket seeding — a hint from a neighbouring design point shrinks the
///   bisection bracket (the sweep/Monte-Carlo fast path).
///
/// The headline ratio (fixed seed path / adaptive with early exit) is
/// asserted ≥ 3× and recorded in EXPERIMENTS.md. The same search on the
/// dense solver must land on the same WL_crit and cost strictly more
/// `(factorizations + device evals)`.
fn wl_crit_throughput(dir: &Path) -> io::Result<PathBuf> {
    let cell = |stepping: SteppingMode, early_exit: bool| {
        let mut p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        p.sim.stepping = stepping;
        p.sim.early_exit = early_exit;
        p
    };
    let run = |p: &CellParams, hint: Option<f64>| -> WlCritRun {
        wl_crit_seeded(p, None, hint).expect("β=0.6 inward-p extracts")
    };
    let tol = cell(SteppingMode::Adaptive, true).sim.pulse_tol;

    let mut t = Table::new(
        "WL_crit effort",
        "solver effort per extraction at beta = 0.6 (2 ps / 8 ps settings)",
        &[
            "config",
            "oracle_calls",
            "builds",
            "runs",
            "newton_solves",
            "newton_iters",
            "jac_refac",
            "dev_evals",
            "steps_acc",
            "steps_rej",
            "wl_crit_ps",
        ],
    );
    let mut push_run = |label: &str, r: &WlCritRun| {
        t.push_row(vec![
            label.to_string(),
            r.oracle_calls.to_string(),
            r.effort.circuit_builds.to_string(),
            r.effort.runs.to_string(),
            r.effort.newton_solves.to_string(),
            r.effort.newton_iters.to_string(),
            r.effort.jac_refactored.to_string(),
            r.effort.device_evals.to_string(),
            r.effort.accepted_steps.to_string(),
            r.effort.rejected_steps.to_string(),
            finite_ps(r.value),
        ]);
    };
    let configs = [
        ("fixed, no exit (seed path)", SteppingMode::Fixed, false),
        ("fixed, early exit", SteppingMode::Fixed, true),
        ("adaptive, no exit", SteppingMode::Adaptive, false),
        ("adaptive, early exit", SteppingMode::Adaptive, true),
    ];
    let mut runs = Vec::new();
    for (label, stepping, early_exit) in configs {
        let r = run(&cell(stepping, early_exit), None);
        push_run(label, &r);
        runs.push(r);
    }
    // The seeded fast path: hint from the (identical) previous point, as a
    // sweep neighbour or the Monte-Carlo nominal would supply.
    let hint = runs[3].value.as_finite();
    let seeded = run(&cell(SteppingMode::Adaptive, true), hint);
    push_run("adaptive, early exit, seeded", &seeded);

    // The dense cross-check: the same search under the reference dense
    // solver.
    let dense = on_dense_oracle(|| run(&cell(SteppingMode::Adaptive, true), None));
    push_run("adaptive, early exit, dense solver", &dense);
    let cost = |r: &WlCritRun| r.effort.jac_refactored + r.effort.device_evals;
    let sparse = &runs[3];
    t.note(format!(
        "solver: dense/sparse (factorizations + device evals) = {:.2}x",
        cost(&dense) as f64 / cost(sparse) as f64
    ));
    // Both strategies answer the same physics question: WL_crit must agree
    // to the bisection tolerance.
    let (wd, ws) = (
        dense.value.as_finite().expect("dense WL_crit finite"),
        sparse.value.as_finite().expect("sparse WL_crit finite"),
    );
    assert!(
        (wd - ws).abs() <= 2.0 * tol,
        "acceptance: sparse WL_crit ({ws:e}) must match dense ({wd:e})"
    );
    // Coarse sanity floor: sparse must still beat dense outright on this
    // metric. The margin was 2.19x when the sparse engine landed; the
    // stall-guard inf-init traded refactorizations for extra reused-factor
    // iterations (and their device evals), which wins at array scale but
    // compresses this single-cell extraction to ~1.1x — a drift a
    // never-executed >= 2x assert missed. Absolute cost counters are pinned
    // by check.sh's byte-identity diff of `results/BENCH_*.json`.
    assert!(
        cost(&dense) > cost(sparse),
        "acceptance: sparse must cost less than dense in \
         (factorizations + device evals) (dense {} vs sparse {})",
        cost(&dense),
        cost(sparse)
    );

    let baseline = runs[0].effort.newton_solves;
    let adaptive = sparse.effort.newton_solves;
    let ratio = baseline as f64 / adaptive as f64;
    t.note(format!(
        "headline: fixed seed path / adaptive+exit = {ratio:.2}x fewer Newton solves"
    ));
    t.note(format!(
        "seeded on top: {:.2}x fewer solves than the seed path",
        baseline as f64 / seeded.effort.newton_solves as f64
    ));
    assert!(
        adaptive * 3 <= baseline,
        "acceptance: adaptive+exit must cut Newton solves >= 3x ({baseline} vs {adaptive})"
    );
    println!("{}", t.render());

    // A seeded β-sweep on one compiled write experiment: compile once at the
    // first grid point, then retarget with `bind_cell` and chain each
    // point's answer as the next bisection hint. The build/run counters
    // prove the compiled layer amortises circuit construction across the
    // whole sweep.
    let mut t = Table::new(
        "compiled seeded beta sweep",
        "one WriteExperiment reused across the grid (adaptive, early exit)",
        &["beta", "builds", "runs", "newton_solves", "wl_crit_ps"],
    );
    let mut exp = None;
    let mut hint = None;
    let mut wl_at_06 = None;
    let (mut total_builds, mut total_runs) = (0u64, 0u64);
    for beta in [0.4, 0.6, 0.8, 1.0] {
        let p = cell(SteppingMode::Adaptive, true).with_beta(beta);
        let e = match exp.as_mut() {
            Some(e) => {
                tfet_sram::ops::WriteExperiment::bind_cell(e, &p).expect("same topology");
                e
            }
            None => exp.insert(
                tfet_sram::ops::WriteExperiment::compile(&p, None).expect("grid point compiles"),
            ),
        };
        let r = wl_crit_compiled(e, hint).expect("grid point extracts");
        hint = r.value.as_finite();
        if beta == 0.6 {
            wl_at_06 = r.value.as_finite();
        }
        total_builds += r.effort.circuit_builds;
        total_runs += r.effort.runs;
        t.push_row(vec![
            format!("{beta:.1}"),
            r.effort.circuit_builds.to_string(),
            r.effort.runs.to_string(),
            r.effort.newton_solves.to_string(),
            finite_ps(r.value),
        ]);
    }
    t.note(format!(
        "sweep total: {total_builds} builds for {total_runs} transient runs"
    ));
    assert!(
        total_runs >= 5 * total_builds,
        "acceptance: compiled sweep must run >= 5x more transients than builds \
         ({total_runs} runs vs {total_builds} builds)"
    );
    // The compiled, seeded path lands on the same answer as a cold search.
    let cold = run(&cell(SteppingMode::Adaptive, true), None);
    let (a, b) = (
        cold.value.as_finite().expect("beta=0.6 is finite"),
        wl_at_06.expect("beta=0.6 is finite in the sweep"),
    );
    assert!(
        (a - b).abs() <= 2.0 * tol,
        "acceptance: seeded sweep WL_crit at beta=0.6 ({b:e}) must match cold ({a:e})"
    );
    println!("{}", t.render());

    // One traced cold + seeded search pair writes the report (bisection
    // bracket trajectories, Newton histograms).
    write_bench_report(dir, "wl_crit_throughput", || {
        let p = cell(SteppingMode::Adaptive, true);
        let hint = run(&p, None).value.as_finite();
        run(&p, hint);
    })
}

/// The 64×64 write transient that motivates the fast-SPICE engine, against
/// its full-evaluation oracle and across assembly thread counts:
///
/// * **quiescent-partition latency** — dormant cells skip device
///   evaluation and Jacobian re-stamping; the full-evaluation baseline is
///   pinned through the hidden `ArraySpec::with_latency` override, and the
///   latency tier must cut device evaluations ≥ 5×;
/// * **parallel device evaluation** — 1 vs 8 assembly threads, which by
///   construction changes wall-clock only: results are merged in fixed
///   netlist order and must be bit-identical.
fn array(dir: &Path) -> io::Result<PathBuf> {
    let spec = |latency: DeviceLatency| {
        let mut cell = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
        cell.sim.dt = 4e-12;
        ArraySpec::new(64, 64, cell).with_latency(latency)
    };
    let write_once = |latency: DeviceLatency| -> ArrayWrite {
        let mut a = ArrayNetlist::build(spec(latency)).expect("build 64x64");
        a.write_transient(1, 2, true, 1.5e-9).expect("array write")
    };
    // The traced pass: latency on at 1 and 8 threads (bit-identity check),
    // then the full-evaluation baseline (serial by construction).
    let mut runs: Option<(ArrayWrite, ArrayWrite, ArrayWrite)> = None;
    let path = write_bench_report(dir, "array", || {
        // Fresh netlist per thread count: a repeat write on a warm netlist
        // re-converges from cached linearizations and lands within Newton
        // tolerance but not bit-exactly, so cold-vs-cold is the only fair
        // determinism comparison.
        set_assembly_threads(1);
        let w_on_t1 = write_once(DeviceLatency::On);
        set_assembly_threads(8);
        let w_on_t8 = write_once(DeviceLatency::On);
        set_assembly_threads(0);
        let w_off = write_once(DeviceLatency::Off);

        tfet_obs::counter("bench.array.on_t1.device_evals", w_on_t1.stats.device_evals);
        tfet_obs::counter(
            "bench.array.on_t1.devices_dormant",
            w_on_t1.stats.devices_dormant,
        );
        tfet_obs::counter(
            "bench.array.on_t1.cells_refreshed",
            w_on_t1.stats.cells_refreshed,
        );
        tfet_obs::counter("bench.array.on_t1.newton_iters", w_on_t1.stats.newton_iters);
        tfet_obs::counter("bench.array.on_t8.device_evals", w_on_t8.stats.device_evals);
        tfet_obs::counter("bench.array.off.device_evals", w_off.stats.device_evals);
        tfet_obs::counter("bench.array.off.newton_iters", w_off.stats.newton_iters);
        tfet_obs::counter(
            "bench.array.eval_savings_x100",
            (100 * w_off.stats.device_evals) / w_on_t1.stats.device_evals.max(1),
        );
        runs = Some((w_on_t1, w_on_t8, w_off));
    })?;
    let (w_on_t1, w_on_t8, w_off) = runs.expect("traced pass ran");

    assert!(
        w_on_t1.success && w_off.success,
        "the 64x64 write must land"
    );
    let ratio = w_off.stats.device_evals as f64 / w_on_t1.stats.device_evals as f64;
    assert!(
        ratio >= 5.0,
        "acceptance: latency tier must cut device evals >= 5x on the 64x64 write \
         (off {} vs on {}, {ratio:.2}x)",
        w_off.stats.device_evals,
        w_on_t1.stats.device_evals
    );
    assert_eq!(
        w_on_t1.finals, w_on_t8.finals,
        "8-thread evaluation must be bit-identical to 1-thread"
    );
    assert_eq!(
        w_on_t1.stats.device_evals, w_on_t8.stats.device_evals,
        "thread count must not change which devices are evaluated"
    );
    println!(
        "64x64 write: latency-on {} evals ({} dormant skips), latency-off {} evals -> {ratio:.1}x",
        w_on_t1.stats.device_evals, w_on_t1.stats.devices_dormant, w_off.stats.device_evals
    );
    Ok(path)
}

/// Rare-event yield: brute force vs scaled-sigma importance sampling on the
/// same ~6σ read-disturb event, same solve budget.
///
/// * brute — `sigma_scale = 1` over the calibrated t_ox + Vth-mismatch
///   model. At a failure probability of ~1e-9, n = 768 samples see zero
///   failures: the estimator returns 0 with no error bar — brute force is
///   blind at this depth (resolving it head-on would take ~1e9 solves).
/// * IS — the identical budget with the proposal widened 2.5×. The
///   re-weighted estimator resolves a nonzero, bounded tail probability
///   from the raw hits the widening manufactures.
///
/// Both studies' costs (samples, raw failures, ESS) land in the report
/// under `bench.yield.*`.
fn yield_gate(dir: &Path) -> io::Result<PathBuf> {
    const IS_SCALE: f64 = 2.5;
    let run = |scale: f64| -> YieldStudy {
        let cell = fast(
            CellParams::tfet6t(AccessConfig::InwardP)
                .with_beta(0.6)
                .with_vdd(0.8),
        );
        let cfg = YieldConfig::new(768, 2011)
            .with_model(yield_model())
            .with_sigma_scale(scale);
        yield_read(&cell, None, 0.0, &cfg).expect("yield study")
    };
    let brute = run(1.0);
    let is = run(IS_SCALE);
    println!(
        "brute  (scale 1.0): p={} fails={} ess={:.1}",
        brute.p_fail.map(sci).unwrap_or_default(),
        brute.failures,
        brute.ess
    );
    println!(
        "is     (scale {IS_SCALE}): p={} se={} fails={} ess={:.1}",
        is.p_fail.map(sci).unwrap_or_default(),
        is.std_error.map(sci).unwrap_or_default(),
        is.failures,
        is.ess
    );

    // Acceptance: at the same n = 768 budget, brute force must be blind
    // (zero failures, estimate exactly 0) while the importance sampler
    // resolves a nonzero bounded estimate of the ~6σ tail.
    assert_eq!(
        brute.failures, 0,
        "brute force must see no failures at this depth/budget"
    );
    assert_eq!(brute.p_fail, Some(0.0));
    let p = is.p_fail.expect("IS estimate exists");
    assert!(
        is.failures > 0 && p > 0.0,
        "IS must manufacture raw hits (got {} fails, p = {p:e})",
        is.failures
    );
    assert!(
        p < 1e-5,
        "IS estimate must stay in the deep tail, got {p:e}"
    );
    assert!(
        is.ess >= 4.0,
        "ESS floor: weight spread ate the sample, ess = {}",
        is.ess
    );
    assert!(is.quarantined.is_empty() && brute.quarantined.is_empty());

    // One traced run writes the report with both studies' cost counters.
    write_bench_report(dir, "yield", || {
        let brute = run(1.0);
        let is = run(IS_SCALE);
        tfet_obs::counter("bench.yield.brute_samples", brute.samples as u64);
        tfet_obs::counter("bench.yield.brute_failures", brute.failures as u64);
        tfet_obs::counter("bench.yield.is_samples", is.samples as u64);
        tfet_obs::counter("bench.yield.is_failures", is.failures as u64);
        tfet_obs::counter("bench.yield.is_ess", is.ess as u64);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_keeps_the_order_given_and_all_gates_for_none() {
        assert_eq!(select(&[]).unwrap().len(), GATES.len());
        let two = select(&["yield".into(), "array".into()]).unwrap();
        assert_eq!(two[0].0, "yield");
        assert_eq!(two[1].0, "array");
    }

    #[test]
    fn bench_report_lands_in_the_given_directory() {
        let dir = std::env::temp_dir().join(format!("tfet-gates-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_bench_report(&dir, "demo", || tfet_obs::counter("bench.demo.items", 7))
            .expect("report written");
        assert_eq!(path, dir.join("BENCH_demo.json"));
        let json = std::fs::read_to_string(&path).unwrap();
        let report = tfet_obs::Value::parse(&json).unwrap();
        let items = report
            .get("counters")
            .and_then(|c| c.get("bench.demo.items"))
            .and_then(tfet_obs::Value::as_u64);
        assert_eq!(items, Some(7));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
