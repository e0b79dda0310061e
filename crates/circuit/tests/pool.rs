//! The helper pool of large latency-partitioned transients: results that
//! are bit-identical at any assembly thread count, one trace report for
//! every thread count, panics that reach the caller, runs that fail on a
//! NaN device current, and no helper thread left behind by a run that
//! fails.
//!
//! Every test holds `LOCK`: the assembly thread count and the trace
//! registry are process-wide, and three tests count this process's pool
//! helper threads.

#[path = "support/faulty_device.rs"]
mod faulty_device;
#[path = "support/latch_row.rs"]
mod latch_row;

use faulty_device::FaultyDevice;
use latch_row::{hold_ics, latch_row, with_lines, VDD};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use tfet_circuit::latency::{pools, POOL_MIN_DEVICES, POOL_THREAD_NAME};
use tfet_circuit::transient::InitialState;
use tfet_circuit::{
    set_assembly_threads, Circuit, CompiledCircuit, Integrator, NodeId, TransientResult,
    TransientSpec, Waveform,
};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Cells in the test row: enough transistors (5 per cell) to start a pool.
const N_CELLS: usize = POOL_MIN_DEVICES / 5 + 2;

/// The latch row with its bitline falling from the precharge level at
/// 0.3 ns, its hold initial state, and every node of it.
fn falling_row() -> (Circuit, InitialState, Vec<NodeId>) {
    let (c, storage) = latch_row(N_CELLS, Waveform::step(VDD, 0.0, 0.3e-9, 20e-12));
    assert!(pools(&c), "the row must be large enough to start a pool");
    let ics = with_lines(hold_ics(&storage), &c, VDD);
    let lines = ["vdd", "bl", "wl"].map(|n| c.find_node(n).unwrap());
    let nodes = storage
        .iter()
        .flat_map(|&(q, qb)| [q, qb])
        .chain(lines)
        .collect();
    (c, InitialState::Uic(ics), nodes)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Times, the traces of `nodes`, stats and partition telemetry, bit for
/// bit.
fn assert_identical(a: &TransientResult, b: &TransientResult, nodes: &[NodeId], what: &str) {
    assert_eq!(bits(a.times()), bits(b.times()), "{what}: times");
    for &n in nodes {
        assert_eq!(bits(&a.trace(n)), bits(&b.trace(n)), "{what}: node {n:?}");
    }
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.partitions, b.partitions, "{what}: partition telemetry");
}

/// `f` run at `threads` assembly threads.
fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    set_assembly_threads(threads);
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    set_assembly_threads(0);
    out.unwrap_or_else(|p| panic::resume_unwind(p))
}

/// Pool helper threads alive in this process (Linux only). Counting them
/// by name, not all threads, keeps the count blind to the test harness
/// starting the next test.
#[cfg(target_os = "linux")]
fn helpers_alive() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter(|task| {
            let comm = task.as_ref().unwrap().path().join("comm");
            std::fs::read_to_string(comm).is_ok_and(|name| name.trim_end() == POOL_THREAD_NAME)
        })
        .count()
}

#[test]
fn pooled_runs_are_bit_identical_at_any_thread_count() {
    let _guard = serial();
    let (c, init, nodes) = falling_row();
    // Adaptive backward Euler re-linearizes at trial midpoints; fixed
    // trapezoidal carries the branch-current history through every pass.
    let specs = [
        ("adaptive BE", TransientSpec::new(0.8e-9, 1e-12)),
        (
            "fixed TR",
            TransientSpec::fixed(0.6e-9, 2e-12).with_integrator(Integrator::Trapezoidal),
        ),
    ];
    for (name, spec) in specs {
        let base = at_threads(1, || c.transient(&spec, &init).unwrap());
        assert!(base.stats.cells_refreshed > 0 && base.stats.devices_dormant > 0);
        for threads in [2, 3, 8] {
            let other = at_threads(threads, || c.transient(&spec, &init).unwrap());
            let what = format!("{name} at {threads} threads");
            assert_identical(&base, &other, &nodes, &what);
        }
    }
}

/// A compiled partitioned circuit's runs depend on the runs before them
/// (the transistor part of its incremental Jacobian carries each run's
/// rounding into the next), so a sequence of runs must repeat bit for bit
/// at any thread count.
#[test]
fn repeated_runs_of_one_compiled_circuit_match_across_thread_counts() {
    let _guard = serial();
    let (c, init, nodes) = falling_row();
    let sequence = |threads: usize| {
        at_threads(threads, || {
            let mut compiled = CompiledCircuit::compile(c.clone()).unwrap();
            [700e-12, 300e-12, 300e-12]
                .map(|t_stop| {
                    let spec = TransientSpec::new(t_stop, 1e-12);
                    compiled.run(&spec, &init, &[]).unwrap()
                })
                .to_vec()
        })
    };
    let serial_runs = sequence(1);
    for (k, (a, b)) in serial_runs.iter().zip(&sequence(2)).enumerate() {
        assert_identical(a, b, &nodes, &format!("run {k}"));
    }
}

#[test]
fn traced_pooled_run_reports_like_a_serial_one() {
    let _guard = serial();
    let (c, init, _) = falling_row();
    let spec = TransientSpec::new(0.5e-9, 1e-12);
    let traced = |threads: usize| {
        tfet_obs::reset();
        tfet_obs::enable();
        let res = at_threads(threads, || c.transient(&spec, &init));
        tfet_obs::disable();
        res.unwrap();
        let report = tfet_obs::RunReport::capture();
        tfet_obs::reset();
        report
    };
    let (one, two) = (traced(1), traced(2));
    assert!(
        one.spans.keys().any(|p| p.ends_with("/eval")),
        "{:?}",
        one.spans
    );
    assert_eq!(one.spans, two.spans, "span paths and calls");
    assert_eq!(one.counters, two.counters);
    assert_eq!(one.histograms, two.histograms);
}

/// The falling row plus, last in the netlist, one unpartitioned faulty
/// device on a node that follows the bitline through an RC filter.
fn faulty_row(fault: fn() -> f64) -> (Circuit, InitialState) {
    let (mut c, init, _) = falling_row();
    let (bl, wl) = (c.find_node("bl").unwrap(), c.find_node("wl").unwrap());
    let tap = c.node("tap");
    c.resistor(bl, tap, 10e3);
    c.capacitor(tap, Circuit::GND, 1e-15);
    let device = Arc::new(FaultyDevice { fault });
    c.transistor("FAULT", device, tap, wl, Circuit::GND, 0.1);
    assert!(pools(&c));
    let InitialState::Uic(mut ics) = init else {
        unreachable!("the row starts from its hold state")
    };
    ics.push((tap, VDD));
    (c, InitialState::Uic(ics))
}

#[test]
fn a_panicking_device_reaches_the_caller() {
    let _guard = serial();
    let (c, init) = faulty_row(|| panic!("device model failed"));
    let spec = TransientSpec::fixed(0.6e-9, 2e-12);
    let caught = at_threads(2, || {
        panic::catch_unwind(AssertUnwindSafe(|| c.transient(&spec, &init)))
    });
    let payload = caught.expect_err("the model's panic must reach the caller");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "device model failed");
    #[cfg(target_os = "linux")]
    assert_eq!(helpers_alive(), 0, "a helper outlived its run");
}

#[test]
fn a_run_failing_through_the_rescue_ladder_leaves_no_helper_behind() {
    let _guard = serial();
    // A current no node voltage can balance: every Newton solve, g_min
    // rung and rescue rung of the step runs out of iterations.
    let (c, init) = faulty_row(|| 1e3);
    let spec = TransientSpec::fixed(0.6e-9, 2e-12);
    let err = at_threads(2, || c.transient(&spec, &init)).expect_err("the run must fail");
    assert!(err.to_string().contains("converge"), "{err}");
    #[cfg(target_os = "linux")]
    assert_eq!(helpers_alive(), 0, "a helper outlived its run");
}

/// A NaN device current must fail the run — through every Newton solve,
/// g_min rung and rescue rung — never converge it to NaN node voltages.
#[test]
fn a_nan_device_current_fails_the_run() {
    let _guard = serial();
    let (c, init) = faulty_row(|| f64::NAN);
    let tap = c.find_node("tap").unwrap();
    let spec = TransientSpec::fixed(0.6e-9, 2e-12);
    for threads in [1, 2] {
        match at_threads(threads, || c.transient(&spec, &init)) {
            Ok(r) => panic!(
                "{threads} threads: converged to tap = {} after {} rescue attempts",
                r.trace(tap).last().unwrap(),
                r.stats.rescue_attempts
            ),
            Err(e) => assert!(e.to_string().contains("converge"), "{e}"),
        }
        #[cfg(target_os = "linux")]
        assert_eq!(helpers_alive(), 0, "a helper outlived its run");
    }
}
