//! Fault-injection coverage for the sparse modified-Newton escalation
//! ladder (PR-6).
//!
//! The sparse strategy layers three defenses over plain Newton, in order of
//! increasing cost:
//!
//! 1. **Stall guard / consistency check** — a reused factorization that
//!    stops contracting the update, or that no longer solves the freshly
//!    assembled Jacobian, is replaced by a full refactorization at the
//!    current iterate;
//! 2. **Fresh-Jacobian Newton** — the refactorized loop is exactly the
//!    dense algorithm, just factored sparsely;
//! 3. **PR-5 rescue ladder** — step subdivision and anchored g_min
//!    continuation, unchanged, as the last resort.
//!
//! These tests inject a device with a deliberately wrong Jacobian to prove
//! the escalation happens (and terminates at the right rung), and run a
//! healthy circuit to prove the expensive rungs are never touched when the
//! cheap ones suffice.

use std::sync::Arc;

use tfet_circuit::transient::InitialState;
use tfet_circuit::{Circuit, TransientSpec, Waveform};
use tfet_devices::model::{Caps, DeviceKind, DeviceModel, Polarity};
use tfet_devices::tfet::NTfet;

/// A linear 1 mS "transistor" that reports its drain/source conductances
/// with the wrong sign — plain Newton diverges on any circuit where its
/// stamp dominates, no matter how the linear system is factored.
#[derive(Debug)]
struct WrongJacobianDev {
    g: f64,
}

impl DeviceModel for WrongJacobianDev {
    fn name(&self) -> &str {
        "wrong-jacobian"
    }
    fn polarity(&self) -> Polarity {
        Polarity::N
    }
    fn kind(&self) -> DeviceKind {
        DeviceKind::Mosfet
    }
    fn ids_per_um(&self, _vg: f64, vd: f64, vs: f64) -> f64 {
        self.g * (vd - vs)
    }
    fn caps_per_um(&self, _vg: f64, _vd: f64, _vs: f64) -> Caps {
        Caps::default()
    }
    fn conductances_per_um(&self, _vg: f64, _vd: f64, _vs: f64) -> (f64, f64, f64) {
        (0.0, -self.g, self.g)
    }
}

/// The sabotage tests serialize: while the traced one has the process-global
/// tracing on, a failing transient on a sibling would submit a bundle.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// 1 pF discharging through the wrong-Jacobian device: τ = 1 ns.
fn sabotaged_rc() -> (Circuit, tfet_circuit::NodeId) {
    let mut c = Circuit::new();
    let a = c.node("a");
    c.capacitor(a, Circuit::GND, 1e-12);
    c.transistor(
        "M",
        Arc::new(WrongJacobianDev { g: 1e-3 }),
        a,
        Circuit::GND,
        Circuit::GND,
        1.0,
    );
    (c, a)
}

/// Under the sparse strategy the wrong-Jacobian sabotage must climb the
/// whole ladder: reuse stalls (refactorizations far outnumber Newton
/// solves), the refactorized loop still diverges on the rungs the dense
/// analysis predicts, and the PR-5 rescue ladder ultimately salvages the
/// run — the result is still the physical RC discharge.
#[test]
fn sabotage_escalates_through_refactorization_to_rescue_ladder() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (c, a) = sabotaged_rc();
    // Trace the sabotaged run: the rescue ladder is the one span site a
    // healthy gate run never reaches, so this is where the timeline trace
    // proves it instruments the last rung too. Bundles go to a temp dir.
    let diagnostics = std::env::temp_dir().join("tfet-modified-newton");
    tfet_obs::forensics::set_dir(&diagnostics);
    tfet_obs::reset();
    tfet_obs::enable();
    tfet_obs::trace::start();
    let res = c
        .transient(
            &TransientSpec::fixed(4e-9, 0.8e-9),
            &InitialState::Uic(vec![(a, 1.0)]),
        )
        .unwrap();
    tfet_obs::trace::stop();
    tfet_obs::disable();
    let _ = std::fs::remove_dir_all(&diagnostics);
    let trace = tfet_obs::trace::export_value();
    let names: Vec<&str> = trace
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("trace has traceEvents")
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for required in ["transient", "newton", "rescue"] {
        assert!(
            names.contains(&required),
            "span `{required}` missing from sabotage trace: {names:?}"
        );
    }
    let s = &res.stats;
    assert_eq!(s.accepted_steps, 5, "{s:?}");
    // Rung 1: the stall guard fired — far more refactorizations than
    // Newton solves, i.e. reuse was tried and abandoned inside iterations.
    assert!(
        s.jac_refactored > s.newton_solves,
        "stall guard never fired: {s:?}"
    );
    // Rung 3: the rescue ladder was reached and salvaged at least one step.
    assert!(s.rescue_attempts >= 1, "rescue ladder untouched: {s:?}");
    assert!(s.rescued_steps >= 1, "no step was rescued: {s:?}");
    // The rescued run is still the physical RC discharge (τ = 1 ns).
    assert!(res.voltage_at(a, 0.0) > 0.99);
    assert!(res.final_voltage(a) < 0.1, "v = {}", res.final_voltage(a));
    let v_tau = res.voltage_at(a, 1e-9);
    assert!((v_tau - (-1.0f64).exp()).abs() < 0.08, "v(τ) = {v_tau}");
}

/// An unrescuable sabotage must surface `NoConvergence` under the sparse
/// strategy too — escalation terminates, it does not loop.
#[test]
fn sparse_unrescuable_failure_still_errors() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (c, a) = sabotaged_rc();
    let err = c
        .transient(
            &TransientSpec::fixed(8e-9, 4e-9),
            &InitialState::Uic(vec![(a, 1.0)]),
        )
        .unwrap_err();
    assert!(
        matches!(err, tfet_circuit::SimError::NoConvergence { .. }),
        "unexpected error: {err:?}"
    );
}

/// A healthy TFET inverter run never touches the expensive rungs: the
/// rescue ladder stays idle, the factorization is reused for most
/// iterations, and settled devices are served from the bypass cache.
#[test]
fn healthy_run_reuses_factors_and_bypasses_devices_without_escalating() {
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
    let res = c
        .transient(
            &TransientSpec::fixed(5e-9, 10e-12),
            &InitialState::DcOp(vec![]),
        )
        .unwrap();
    let s = &res.stats;
    assert_eq!(s.rescue_attempts, 0, "healthy run escalated: {s:?}");
    assert_eq!(s.rescued_steps, 0, "healthy run escalated: {s:?}");
    // Modified Newton pays off: most iterations reuse the factorization…
    assert!(s.jac_reused > 0, "no factor reuse: {s:?}");
    assert!(
        s.jac_refactored * 2 < s.newton_iters,
        "refactorized more than half the iterations: {s:?}"
    );
    // …and the settled tail of the run is served from the bypass cache.
    assert!(s.devices_bypassed > 0, "no device bypass: {s:?}");
    // The physics is the ordinary inverter response: output pulled well
    // below the rail once the input steps high.
    assert!(
        res.final_voltage(out) < 0.4,
        "v = {}",
        res.final_voltage(out)
    );
}

/// Chord iterations assemble the residual only: the Jacobian pass runs when
/// a reader needs the matrix — at most once per Newton solve (its
/// consistency check or its first refactorization) plus once per further
/// refactorization — and the effort counters see each device once per
/// residual pass, never again in the deferred Jacobian pass.
#[test]
fn jacobian_pass_runs_only_when_the_matrix_is_read() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let deck = tfet_circuit::Deck::parse(
        include_str!("golden/write_6t.sp"),
        &tfet_devices::standard_models(),
    )
    .unwrap();
    let spec = deck.analyses[0].transient_spec().unwrap();
    tfet_obs::reset();
    tfet_obs::enable();
    // A root span keeps a concurrently running sibling test's spans out of
    // the paths counted below.
    let res = {
        let _root = tfet_obs::root_span("deferred_jacobian");
        deck.circuit.transient(&spec, &deck.initial_state())
    };
    tfet_obs::disable();
    let res = res.unwrap();
    let report = tfet_obs::RunReport::capture();
    let calls = |name: &str| -> u64 {
        report
            .spans
            .iter()
            .filter(|(path, _)| path.starts_with("deferred_jacobian/"))
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            .map(|(_, &n)| n)
            .sum()
    };
    let s = &res.stats;
    assert_eq!(s.rescue_attempts, 0, "{s:?}");
    assert_eq!(calls("newton"), s.newton_solves, "{s:?}");
    assert_eq!(calls("assemble"), s.newton_iters, "{s:?}");
    // One `eval` span per residual pass.
    assert_eq!(calls("eval"), s.newton_iters, "{s:?}");
    let jacobian = calls("jacobian");
    assert!(jacobian > 0, "no Jacobian was ever stamped: {s:?}");
    assert!(
        jacobian <= s.newton_solves + s.jac_refactored,
        "{jacobian} Jacobian passes: {s:?}"
    );
    assert!(
        2 * jacobian < s.newton_iters,
        "{jacobian} Jacobian passes: most iterations should reuse the factor and skip it: {s:?}"
    );
    // Every residual pass evaluates or bypasses each transistor exactly
    // once; the deferred Jacobian pass adds nothing to either count.
    let devices = deck.circuit.transistors().len() as u64;
    assert!(s.devices_bypassed > 0, "{s:?}");
    assert_eq!(
        s.device_evals + s.devices_bypassed,
        s.newton_iters * devices,
        "{s:?}"
    );
}
