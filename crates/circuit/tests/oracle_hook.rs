//! The dense reference solver is an oracle behind a process hook, not an
//! option of any spec: a run reads the hook when it starts, not when its
//! `TransientSpec` was built.
//!
//! This binary holds the one test that flips the hook, so no concurrently
//! running test ever sees the dense solver.

use std::sync::Arc;

use tfet_circuit::transient::InitialState;
use tfet_circuit::{Circuit, SolveStats, SolverStrategy, TransientSpec, Waveform};
use tfet_devices::tfet::NTfet;

/// A TFET pull-down on an RC load with a rising input: enough nonlinear
/// work for the sparse engine to reuse factorizations.
fn inverter() -> Circuit {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.vsource(
        "VIN",
        vin,
        Circuit::GND,
        Waveform::step(0.0, 0.8, 0.5e-9, 1e-12),
    );
    c.resistor(vin, out, 1e6);
    c.capacitor(out, Circuit::GND, 1e-15);
    c.transistor(
        "MN",
        Arc::new(NTfet::nominal()),
        out,
        vin,
        Circuit::GND,
        0.1,
    );
    c
}

fn run(c: &Circuit, spec: &TransientSpec) -> SolveStats {
    c.transient(spec, &InitialState::DcOp(vec![]))
        .expect("inverter transient")
        .stats
}

#[test]
fn the_hook_is_read_at_run_start_not_at_spec_construction() {
    let c = inverter();
    let spec = TransientSpec::fixed(2e-9, 10e-12);
    assert_eq!(SolverStrategy::process_default(), SolverStrategy::Sparse);

    SolverStrategy::set_process_default(SolverStrategy::Dense);
    let dense = run(&c, &spec);
    SolverStrategy::set_process_default(SolverStrategy::Sparse);
    // Dense: a fresh factorization on every iteration, never a reused one.
    assert!(dense.newton_iters > 0, "{dense:?}");
    assert_eq!(dense.jac_refactored, dense.newton_iters, "{dense:?}");
    assert_eq!(dense.jac_reused, 0, "{dense:?}");

    // The same spec, with the hook restored, runs the sparse engine again.
    let sparse = run(&c, &spec);
    assert!(sparse.jac_reused > 0, "{sparse:?}");
    assert!(sparse.jac_refactored < sparse.newton_iters, "{sparse:?}");
}
