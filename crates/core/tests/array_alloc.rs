//! Allocation accounting for the array engine with instrumentation off.
//!
//! The observability layer (PR 7) and the timeline trace / partition
//! telemetry (this PR) promise that a *disabled* instrumentation site costs
//! one relaxed atomic load and never allocates. The circuit-level guard in
//! `crates/circuit/tests/alloc.rs` proves the single-cell transient loop;
//! this one pins the promise at array scale: a warm 64-cell (8×8) array
//! write performs exactly the same number of allocations as the previous
//! identical write — no per-step, per-cell, or per-telemetry-site heap
//! traffic sneaks in when tracing is off.
//!
//! Lives in an integration test because it installs a counting global
//! allocator (shared with the circuit-level guard).

#[path = "../../circuit/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{count_own, serial, ALLOCATIONS};
use std::sync::atomic::Ordering;
use tfet_sram::prelude::*;

/// Builds a fresh 8×8 array, warms it with one write, then counts the
/// allocations of two identical warm writes — by every thread, since the
/// write fans device evaluation out to worker threads.
fn warm_write_counts() -> (usize, usize) {
    let mut cell = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
    cell.sim.dt = 4e-12;
    let mut array = ArrayNetlist::build(ArraySpec::new(8, 8, cell)).unwrap();

    // Warm-up: sizes the thread-local workspace, the sparse pattern, the
    // latency state and every waveform binding for this operation shape.
    array.set_bit(2, 3, false);
    let w = array.write_transient(2, 3, true, 1.5e-9).unwrap();
    assert!(w.success);

    let mut write = || {
        array.set_bit(2, 3, false);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let write = array.write_transient(2, 3, true, 1.5e-9);
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(write.unwrap().success);
        allocs
    };
    (write(), write())
}

#[test]
fn warm_array_write_alloc_count_is_repeatable_with_tracing_off() {
    let _guard = serial();
    assert!(!tfet_obs::enabled(), "instrumentation must be opt-in");
    assert!(!tfet_obs::trace::enabled(), "timeline trace must be opt-in");

    // Two identical warm writes: with every instrumentation site disabled
    // (spans, counters, partition telemetry, timeline trace, forensics
    // context), the only allocations left are the per-run result buffers —
    // so the counts must match exactly. Any drift means a disabled-path
    // site started allocating. The count is global, so the harness's own
    // threads (starting the next test) may add to a pair: of three fresh
    // arrays, the pair with the fewest allocations is the clean one, while a
    // write that allocates on any fixed pattern does so on every array.
    let (first, second) = (0..3)
        .map(|_| warm_write_counts())
        .min_by_key(|&(first, second)| first + second)
        .expect("three arrays");
    assert_eq!(
        first, second,
        "disabled-instrumentation array write must have a stable alloc count"
    );
}

#[test]
fn disabled_instrumentation_sites_do_not_allocate() {
    let _guard = serial();
    assert!(!tfet_obs::enabled());
    // The sites run on this thread, so its own count is exact: no harness
    // thread can leak into it, and a one-off lazy allocation shows.
    let (allocs, ()) = count_own(|| {
        for i in 0..1024u64 {
            let _span = tfet_obs::span("array_alloc.guard");
            let _ctx = tfet_obs::forensics::context("cell", tfet_obs::Value::UInt(i));
            tfet_obs::counter("array_alloc.guard", 1);
            tfet_obs::partition_cell(
                "array_alloc",
                (i / 8) as u32,
                (i % 8) as u32,
                &[("decisions", 1)],
            );
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled spans/context/partition telemetry must not allocate"
    );
}
