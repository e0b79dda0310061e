//! WL_crit extraction throughput: the cost of one critical-pulse-width
//! search under each stepping policy.
//!
//! The 2×2 grid {fixed, adaptive} × {early exit off, on} plus the seeded
//! adaptive search measures the PR's three effort levers independently:
//!
//! * adaptive LTE stepping — fewer, larger transient steps on plateaus;
//! * event-driven early exit — flip/no-flip transients stop when decided;
//! * bracket seeding — a hint from a neighbouring design point shrinks the
//!   bisection bracket (the sweep/Monte-Carlo fast path).
//!
//! Effort is reported in *Newton solves* from the always-on
//! [`SolveStats`] counters — deterministic and machine-independent, unlike
//! wall-clock. The headline ratio (fixed seed path / adaptive with early
//! exit) is asserted ≥ 3× here and recorded in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfet_bench::experiments::fast;
use tfet_bench::Table;
use tfet_sram::metrics::{wl_crit_compiled, wl_crit_seeded, WlCritRun};
use tfet_sram::prelude::*;

fn cell(stepping: SteppingMode, early_exit: bool) -> CellParams {
    let mut p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
    p.sim.stepping = stepping;
    p.sim.early_exit = early_exit;
    p
}

fn run(p: &CellParams, hint: Option<f64>) -> WlCritRun {
    wl_crit_seeded(p, None, hint).expect("β=0.6 inward-p extracts")
}

fn effort_table() -> Table {
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
    let fixed_off = cell(SteppingMode::Fixed, false);
    let configs = [
        ("fixed, no exit (seed path)", fixed_off.clone(), None),
        ("fixed, early exit", cell(SteppingMode::Fixed, true), None),
        (
            "adaptive, no exit",
            cell(SteppingMode::Adaptive, false),
            None,
        ),
        (
            "adaptive, early exit",
            cell(SteppingMode::Adaptive, true),
            None,
        ),
    ];
    let mut runs = Vec::new();
    for (label, p, hint) in &configs {
        let r = run(p, *hint);
        push_run(&mut t, label, &r);
        runs.push(r);
    }
    // The seeded fast path: hint from the (identical) previous point, as a
    // sweep neighbour or the Monte-Carlo nominal would supply.
    let seeded_p = cell(SteppingMode::Adaptive, true);
    let hint = runs[3].value.as_finite();
    let seeded = run(&seeded_p, hint);
    push_run(&mut t, "adaptive, early exit, seeded", &seeded);

    // The dense cross-check: same search under the legacy dense solver.
    // WL_crit must agree to the bisection tolerance, and the sparse default
    // must not cost more factorizations + device evals than dense.
    let dense = tfet_bench::on_dense_oracle(|| run(&cell(SteppingMode::Adaptive, true), None));
    push_run(&mut t, "adaptive, early exit, dense solver", &dense);
    let cost = |r: &WlCritRun| r.effort.jac_refactored + r.effort.device_evals;
    t.note(format!(
        "solver: dense/sparse (factorizations + device evals) = {:.2}x",
        cost(&dense) as f64 / cost(&runs[3]) as f64
    ));
    let tol = seeded_p.sim.pulse_tol;
    let (wd, ws) = (
        dense.value.as_finite().expect("dense WL_crit finite"),
        runs[3].value.as_finite().expect("sparse WL_crit finite"),
    );
    assert!(
        (wd - ws).abs() <= 2.0 * tol,
        "acceptance: dense WL_crit ({wd:e}) must match sparse ({ws:e})"
    );
    assert!(
        cost(&dense) >= cost(&runs[3]),
        "acceptance: the sparse default must not cost more than dense \
         ({} vs {})",
        cost(&runs[3]),
        cost(&dense)
    );

    let baseline = runs[0].effort.newton_solves;
    let adaptive = runs[3].effort.newton_solves;
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
    t
}

/// A seeded β-sweep on one compiled write experiment: compile once at the
/// first grid point, then retarget with `bind_cell` and chain each point's
/// answer as the next bisection hint. The build/run counters prove the
/// compiled layer amortises circuit construction across the whole sweep.
fn compiled_sweep_table() -> Table {
    let mut t = Table::new(
        "compiled seeded beta sweep",
        "one WriteExperiment reused across the grid (adaptive, early exit)",
        &["beta", "builds", "runs", "newton_solves", "wl_crit_ps"],
    );
    let betas = [0.4, 0.6, 0.8, 1.0];
    let mut exp = None;
    let mut hint = None;
    let mut wl_at_06 = None;
    let (mut total_builds, mut total_runs) = (0u64, 0u64);
    for &beta in &betas {
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
            r.value
                .as_finite()
                .map(|w| format!("{:.1}", w * 1e12))
                .unwrap_or_else(|| "inf".into()),
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
    let tol = cell(SteppingMode::Adaptive, true).sim.pulse_tol;
    let (a, b) = (
        cold.value.as_finite().expect("beta=0.6 is finite"),
        wl_at_06.expect("beta=0.6 is finite in the sweep"),
    );
    assert!(
        (a - b).abs() <= 2.0 * tol,
        "acceptance: seeded sweep WL_crit at beta=0.6 ({b:e}) must match cold ({a:e})"
    );
    t
}

fn push_run(t: &mut Table, label: &str, r: &WlCritRun) {
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
        r.value
            .as_finite()
            .map(|w| format!("{:.1}", w * 1e12))
            .unwrap_or_else(|| "inf".into()),
    ]);
}

fn bench(c: &mut Criterion) {
    println!("{}", effort_table().render());
    println!("{}", compiled_sweep_table().render());

    // One traced cold + seeded search pair emits the RunReport (bisection
    // bracket trajectories, Newton histograms) before the timing loops.
    tfet_bench::write_bench_report("wl_crit_throughput", || {
        let p = cell(SteppingMode::Adaptive, true);
        let hint = run(&p, None).value.as_finite();
        black_box(run(&p, hint).value);
    });

    let mut g = c.benchmark_group("wl_crit_throughput");
    g.sample_size(10);

    let fixed = cell(SteppingMode::Fixed, false);
    g.bench_function("fixed_no_exit", |b| {
        b.iter(|| black_box(run(&fixed, None).value))
    });

    let adaptive = cell(SteppingMode::Adaptive, true);
    g.bench_function("adaptive_early_exit", |b| {
        b.iter(|| black_box(run(&adaptive, None).value))
    });

    let hint = run(&adaptive, None).value.as_finite();
    g.bench_function("adaptive_early_exit_seeded", |b| {
        b.iter(|| black_box(run(&adaptive, hint).value))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
