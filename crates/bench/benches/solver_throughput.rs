//! Dense vs sparse linear-solve cost on the WL_crit extraction workload.
//!
//! The PR-6 sparse engine buys its speed from three places: symbolic
//! analysis done once per topology, modified-Newton factorization reuse,
//! and device-evaluation bypass. This bench measures all three against the
//! dense reference on the same deterministic workload — one seeded WL_crit
//! search at β = 0.6 — using the always-on [`SolveStats`] counters, which
//! are machine-independent, and cross-checks that both strategies land on
//! the same critical pulse width.
//!
//! The *cost* column is `jac_refactored + device_evals`: one unit per
//! matrix factorization plus one per transistor model evaluation, the two
//! operations that dominate a Newton iteration. The headline ratio
//! (dense cost / sparse cost) was PR-6's acceptance number (2.19× then;
//! the PR-7 reuse-policy change compressed it — see `check_acceptance`);
//! absolute per-bench counters are regression-pinned by
//! `tfet-bench history check`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfet_bench::experiments::fast;
use tfet_bench::Table;
use tfet_sram::metrics::{wl_crit_seeded, WlCritRun};
use tfet_sram::prelude::*;

fn cell() -> CellParams {
    fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6))
}

fn run(p: &CellParams) -> WlCritRun {
    wl_crit_seeded(p, None, None).expect("β=0.6 inward-p extracts")
}

fn cost(r: &WlCritRun) -> u64 {
    r.effort.jac_refactored + r.effort.device_evals
}

fn solver_table() -> (Table, WlCritRun, WlCritRun) {
    let mut t = Table::new(
        "solver cost",
        "dense vs sparse per WL_crit extraction at beta = 0.6",
        &[
            "config",
            "newton_iters",
            "jac_refactored",
            "jac_reused",
            "device_evals",
            "devices_bypassed",
            "cost",
            "wl_crit_ps",
        ],
    );
    let dense = tfet_bench::on_dense_oracle(|| run(&cell()));
    let sparse = run(&cell());
    for (label, r) in [("dense", &dense), ("sparse", &sparse)] {
        t.push_row(vec![
            label.to_string(),
            r.effort.newton_iters.to_string(),
            r.effort.jac_refactored.to_string(),
            r.effort.jac_reused.to_string(),
            r.effort.device_evals.to_string(),
            r.effort.devices_bypassed.to_string(),
            cost(r).to_string(),
            r.value
                .as_finite()
                .map(|w| format!("{:.1}", w * 1e12))
                .unwrap_or_else(|| "inf".into()),
        ]);
    }
    let speedup = cost(&dense) as f64 / cost(&sparse) as f64;
    t.note(format!(
        "headline: dense/sparse (factorizations + device evals) = {speedup:.2}x"
    ));
    (t, dense, sparse)
}

fn check_acceptance(dense: &WlCritRun, sparse: &WlCritRun) {
    // Both strategies answer the same physics question: WL_crit must agree
    // to the bisection tolerance.
    let tol = cell().sim.pulse_tol;
    let (wd, ws) = (
        dense.value.as_finite().expect("dense WL_crit finite"),
        sparse.value.as_finite().expect("sparse WL_crit finite"),
    );
    assert!(
        (wd - ws).abs() <= 2.0 * tol,
        "acceptance: sparse WL_crit ({ws:e}) must match dense ({wd:e})"
    );
    // Coarse sanity floor: sparse must still beat dense outright on this
    // metric. The PR-6 margin here was 2.19x; the PR-7 stall-guard
    // inf-init traded refactorizations for extra reused-factor iterations
    // (and their device evals), which wins at array scale but compresses
    // this single-cell extraction to ~1.1x — a drift the never-executed
    // >= 2x assert missed. Absolute cost counters are pinned per bench by
    // `tfet-bench history check` in scripts/check.sh.
    assert!(
        cost(dense) > cost(sparse),
        "acceptance: sparse must cost less than dense in \
         (factorizations + device evals) (dense {} vs sparse {})",
        cost(dense),
        cost(sparse)
    );
}

fn bench(c: &mut Criterion) {
    let (table, dense, sparse) = solver_table();
    println!("{}", table.render());
    check_acceptance(&dense, &sparse);

    let mut g = c.benchmark_group("solver_throughput");
    g.sample_size(10);

    let p = cell();
    tfet_bench::on_dense_oracle(|| {
        g.bench_function("wl_crit_dense", |b| b.iter(|| black_box(run(&p).value)));
    });
    g.bench_function("wl_crit_sparse", |b| b.iter(|| black_box(run(&p).value)));

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
