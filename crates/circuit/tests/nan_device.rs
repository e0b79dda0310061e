//! A device model that returns NaN must fail the solve, not converge it:
//! a NaN update or residual fails the Newton convergence test and the
//! reused-factor consistency check, in the sparse engine and in the dense
//! reference solver.
//!
//! This binary holds the one test that flips the dense-solver hook, so no
//! concurrently running test ever sees the dense solver.

#[path = "support/faulty_device.rs"]
mod faulty_device;

use faulty_device::{FaultyDevice, FAULT_BELOW};
use std::sync::Arc;
use tfet_circuit::transient::InitialState;
use tfet_circuit::{Circuit, SolverStrategy, TransientSpec, Waveform};

/// A falling source discharging a tap through an RC filter, with (if
/// `faulty`) a device whose current is NaN once the tap falls below
/// [`FAULT_BELOW`].
fn tap(faulty: bool) -> (Circuit, InitialState) {
    let mut c = Circuit::new();
    let src = c.node("src");
    let tap = c.node("tap");
    c.vsource(
        "VSRC",
        src,
        Circuit::GND,
        Waveform::step(0.8, 0.0, 0.1e-9, 20e-12),
    );
    c.resistor(src, tap, 10e3);
    c.capacitor(tap, Circuit::GND, 1e-15);
    if faulty {
        let device = Arc::new(FaultyDevice { fault: || f64::NAN });
        c.transistor("FAULT", device, tap, Circuit::GND, Circuit::GND, 0.1);
    }
    (c, InitialState::Uic(vec![(src, 0.8), (tap, 0.8)]))
}

#[test]
fn a_nan_device_current_fails_the_run_under_either_solver() {
    // Without the device the tap falls through the threshold well inside
    // the run.
    let (healthy, init) = tap(false);
    let node = healthy.find_node("tap").unwrap();
    let run = healthy.transient(&TransientSpec::fixed(0.4e-9, 2e-12), &init);
    assert!(*run.unwrap().trace(node).last().unwrap() < FAULT_BELOW);

    let (c, init) = tap(true);
    for (name, spec) in [
        ("fixed", TransientSpec::fixed(0.4e-9, 2e-12)),
        ("adaptive", TransientSpec::new(0.4e-9, 1e-12)),
    ] {
        for solver in [SolverStrategy::Sparse, SolverStrategy::Dense] {
            SolverStrategy::set_process_default(solver);
            let run = c.transient(&spec, &init);
            SolverStrategy::set_process_default(SolverStrategy::Sparse);
            match run {
                Ok(r) => panic!(
                    "{name} {solver:?}: converged to tap = {} after {} rescue attempts",
                    r.trace(node).last().unwrap(),
                    r.stats.rescue_attempts
                ),
                Err(e) => assert!(e.to_string().contains("converge"), "{name} {solver:?}: {e}"),
            }
        }
    }
}
