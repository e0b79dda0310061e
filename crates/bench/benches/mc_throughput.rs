//! Monte-Carlo throughput: samples/second for the WL_crit study at n = 256.
//!
//! Compares the study's configurations to the serial analytic baseline:
//!
//! * `serial_analytic` — one worker, analytic device models (the original
//!   code path before the parallel engine, modulo the reusable workspaces);
//! * `serial_cached_lut` — one worker, devices served from the shared
//!   compiled-LUT corner cache;
//! * `default_threads` — the machine-default worker count with cached LUTs
//!   (the configuration sweeps and studies actually use).
//!
//! The headline ratio (`serial_analytic` time / `default_threads` time) is
//! the speedup recorded in EXPERIMENTS.md.
//!
//! PR-6 adds a counter-based dense-vs-sparse comparison on the same study:
//! the deterministic `(factorizations + device evaluations)` cost of the
//! full n = 256 run under each linear-solve strategy, asserted in the
//! sparse engine's favour and recorded in the run report under
//! `bench.dense.*` / `bench.sparse.*`. (The margin was 2.02× when PR-6
//! landed; the PR-7 stall-guard relaxation cut sparse refactorizations
//! 58 % but pays for it in extra reused-factor Newton iterations — more
//! device evaluations — so this metric's honest floor today is 1.3×.
//! Absolute per-bench cost counters are pinned much tighter by
//! `tfet-bench history check` against `results/history/` baselines.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfet_bench::experiments::fast;
use tfet_bench::Table;
use tfet_sram::montecarlo::{mc_wl_crit_with, McConfig};
use tfet_sram::prelude::*;

const N: usize = 256;

fn base() -> CellParams {
    fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6))
}

/// The study's deterministic solver-cost counters under the current
/// solver: `(jac_refactored, jac_reused, device_evals, devices_bypassed)`,
/// measured single-threaded on a clean tracing registry.
fn solver_counters() -> (u64, u64, u64, u64) {
    let p = base().with_lut_devices();
    tfet_obs::reset();
    tfet_obs::enable();
    black_box(mc_wl_crit_with(&p, None, N, McConfig::new(7).with_threads(1)).unwrap());
    tfet_obs::disable();
    let c = tfet_obs::RunReport::capture().counters;
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    (
        get("newton.jac_refactored"),
        get("newton.jac_reused"),
        get("devices.evals"),
        get("devices.bypassed"),
    )
}

fn solver_cost_table() -> (Table, u64, u64) {
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
    let dense = tfet_bench::on_dense_oracle(solver_counters);
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
    let (dc, sc) = (cost(dense), cost(sparse));
    t.note(format!(
        "speedup: dense/sparse cost = {:.2}x (counter-based, machine-independent)",
        dc as f64 / sc as f64
    ));
    (t, dc, sc)
}

fn bench(c: &mut Criterion) {
    let (table, dense_cost, sparse_cost) = solver_cost_table();
    println!("{}", table.render());
    // Acceptance floor: 1.3x. PR-6 measured 2.02x; the PR-7 stall-guard
    // inf-init then traded refactorizations (-58 %) for extra
    // reused-factor iterations (+61 % device evals) — a win at array
    // scale, a net cost increase on this single-cell metric that the
    // never-executed >= 2x assert missed. The ratio stays as a coarse
    // sanity floor; absolute drift is caught by `tfet-bench history
    // check`, which is run (not just compiled) by scripts/check.sh.
    assert!(
        10 * dense_cost >= 13 * sparse_cost,
        "acceptance: sparse must cut (factorizations + device evals) >= 1.3x on the \
         MC study (dense {dense_cost} vs sparse {sparse_cost})"
    );

    // One traced representative run (the default-thread LUT configuration)
    // emits the versioned RunReport before any timing loop; the timed
    // iterations below run with tracing disabled. The dense-vs-sparse cost
    // counters measured above ride along under the `bench.*` namespace.
    let traced = base().with_lut_devices();
    tfet_bench::write_bench_report("mc_throughput", || {
        black_box(mc_wl_crit_with(&traced, None, N, McConfig::new(7)).unwrap());
        tfet_obs::counter("bench.dense.solver_cost", dense_cost);
        tfet_obs::counter("bench.sparse.solver_cost", sparse_cost);
        tfet_obs::counter(
            "bench.sparse_speedup_pct",
            (100 * dense_cost) / sparse_cost.max(1),
        );
    });

    let mut g = c.benchmark_group("mc_throughput");
    g.sample_size(10);

    let analytic = base();
    g.bench_function("wl_crit_n256_serial_analytic", |b| {
        b.iter(|| {
            black_box(
                mc_wl_crit_with(&analytic, None, N, McConfig::new(7).with_threads(1)).unwrap(),
            )
        })
    });

    let lut = base().with_lut_devices();
    g.bench_function("wl_crit_n256_serial_cached_lut", |b| {
        b.iter(|| {
            black_box(mc_wl_crit_with(&lut, None, N, McConfig::new(7).with_threads(1)).unwrap())
        })
    });

    g.bench_function("wl_crit_n256_default_threads", |b| {
        b.iter(|| black_box(mc_wl_crit_with(&lut, None, N, McConfig::new(7)).unwrap()))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
