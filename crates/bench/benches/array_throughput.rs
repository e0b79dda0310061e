//! Array-engine throughput: the 64×64 write transient that motivates the
//! fast-SPICE engine, measured against its full-evaluation oracle and
//! across assembly thread counts:
//!
//! * **quiescent-partition latency** — the engine (dormant cells skip
//!   device evaluation and Jacobian re-stamping) vs the full-evaluation
//!   baseline, pinned per array through the hidden
//!   `ArraySpec::with_latency` override;
//! * **parallel device evaluation** — 1 vs 8 assembly threads, which by
//!   construction changes wall-clock only (results are merged in fixed
//!   netlist order and asserted bit-identical here).
//!
//! The headline acceptance rides along as hard asserts: the latency tier
//! must cut device evaluations ≥ 5× on the 64×64 write, and the 8-thread
//! run must reproduce the 1-thread finals exactly. One traced pass records
//! the deterministic counters to `results/BENCH_array.json`; the Criterion
//! group times an 8×8 write per configuration (the 64×64 baseline run is
//! minutes-scale with full evaluation — counters, not wall-clock, are its
//! comparison currency).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfet_circuit::set_assembly_threads;
use tfet_sram::array_netlist::{ArrayNetlist, ArraySpec, ArrayWrite};
use tfet_sram::prelude::*;

fn array_cell() -> CellParams {
    let mut cell = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
    cell.sim.dt = 4e-12;
    cell
}

fn spec(n: usize, latency: DeviceLatency) -> ArraySpec {
    ArraySpec::new(n, n, array_cell()).with_latency(latency)
}

fn write_once(a: &mut ArrayNetlist) -> ArrayWrite {
    a.write_transient(1, 2, true, 1.5e-9).expect("array write")
}

fn bench(c: &mut Criterion) {
    // The traced 64×64 pass: latency on at 1 and 8 threads (bit-identity
    // check), then the full-evaluation baseline (serial by construction).
    let mut runs: Option<(ArrayWrite, ArrayWrite, ArrayWrite)> = None;
    tfet_bench::write_bench_report("array", || {
        // Fresh netlist per thread count: a repeat write on a warm netlist
        // re-converges from cached linearizations and lands within Newton
        // tolerance but not bit-exactly, so cold-vs-cold is the only fair
        // determinism comparison.
        set_assembly_threads(1);
        let mut on = ArrayNetlist::build(spec(64, DeviceLatency::On)).expect("build 64x64");
        let w_on_t1 = write_once(&mut on);
        set_assembly_threads(8);
        let mut on8 = ArrayNetlist::build(spec(64, DeviceLatency::On)).expect("build 64x64");
        let w_on_t8 = write_once(&mut on8);
        set_assembly_threads(0);
        let mut off = ArrayNetlist::build(spec(64, DeviceLatency::Off)).expect("build 64x64");
        let w_off = write_once(&mut off);

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
    });
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

    // Wall-clock per configuration at 8×8 (seconds-scale per iteration).
    let mut g = c.benchmark_group("array_throughput");
    g.sample_size(10);
    for (name, latency, threads) in [
        ("write_8x8_latency_on_t1", DeviceLatency::On, 1usize),
        ("write_8x8_latency_on_t8", DeviceLatency::On, 8),
        ("write_8x8_latency_off_t1", DeviceLatency::Off, 1),
    ] {
        let mut a = ArrayNetlist::build(spec(8, latency)).expect("build 8x8");
        set_assembly_threads(threads);
        g.bench_function(name, |b| b.iter(|| black_box(write_once(&mut a))));
        set_assembly_threads(0);
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
