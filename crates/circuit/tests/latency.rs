//! Fault-injection and determinism tests for the quiescent-partition
//! latency tier (`tfet_circuit::latency`).
//!
//! The tier's correctness contract has two sides, and each gets a direct
//! counter-asserted test here:
//!
//! * the **guard fires**: a dormant cell adjacent to a moving bitline must
//!   be force-refreshed (`guard_refreshes > 0`) and its waveforms must match
//!   the full-evaluation baseline;
//! * the guard **doesn't storm**: a fully-quiescent hold transient must
//!   never re-evaluate dormant cells (`guard_refreshes == 0`, refreshes
//!   bounded by the initial settle).
//!
//! A third test pins the deterministic parallel evaluation claim: the same
//! pooled array transient, bit-identical at 1, 2, 4 and 8 assembly threads.

#[path = "support/latch_row.rs"]
mod latch_row;

use latch_row::{hold_ics, latch_row, with_lines, VDD};
use tfet_circuit::latency::{pools, POOL_MIN_DEVICES};
use tfet_circuit::transient::InitialState;
use tfet_circuit::{
    set_assembly_threads, CellPartition, DeviceLatency, GuardKind, TransientSpec, Waveform,
};

#[test]
fn moving_bitline_force_refreshes_dormant_cells() {
    // Bitline discharges at 1 ns; the wordline never rises, so every cell
    // is a half-select bystander whose internal nodes barely move — only
    // the guard can (and must) trigger the refresh.
    let bl_wave = Waveform::step(VDD, 0.0, 1.0e-9, 20e-12);
    let (c, storage) = latch_row(6, bl_wave.clone());
    let ics = with_lines(hold_ics(&storage), &c, VDD);
    let spec = TransientSpec::new(2.5e-9, 1e-12);

    let on = c.transient(&spec, &InitialState::Uic(ics.clone())).unwrap();
    assert!(
        on.stats.devices_dormant > 0,
        "quiet pre-edge phase must produce dormant stamps, stats: {:?}",
        on.stats
    );
    assert!(
        on.stats.guard_refreshes > 0,
        "bitline edge must force-refresh dormant cells via the guard, stats: {:?}",
        on.stats
    );

    // Per-partition telemetry: the trip attribution must blame the bitline
    // (the only line that moved) and agree with the aggregate counters.
    assert_eq!(on.partitions.len(), storage.len());
    let total_refreshes: u64 = on.partitions.iter().map(|t| t.refreshes).sum();
    let total_guard: u64 = on.partitions.iter().map(|t| t.guard_refreshes()).sum();
    assert_eq!(total_refreshes, on.stats.cells_refreshed);
    assert_eq!(total_guard, on.stats.guard_refreshes);
    for (i, t) in on.partitions.iter().enumerate() {
        assert!(
            t.trips(GuardKind::Bitline) > 0,
            "cell {i}: the discharging bitline must be the attributed cause: {t:?}"
        );
        assert_eq!(
            t.trips(GuardKind::Wordline),
            0,
            "cell {i}: the wordline never rose: {t:?}"
        );
        assert!(t.dormant > 0, "cell {i} never went dormant: {t:?}");
        assert_eq!(t.decisions, t.dormant + t.refreshes, "cell {i}: {t:?}");
    }

    // The full-evaluation baseline must agree on the physics: every cell
    // retains its state, and waveforms match to well under a millivolt.
    let off = c
        .transient(
            &spec.with_device_latency(DeviceLatency::Off),
            &InitialState::Uic(ics),
        )
        .unwrap();
    assert_eq!(off.stats.devices_dormant, 0);
    assert_eq!(off.stats.devices_bypassed, 0);
    for (i, &(q, qb)) in storage.iter().enumerate() {
        let expect_one = i % 2 == 0;
        for node in [q, qb] {
            for &t in &[0.5e-9, 1.2e-9, 2.4e-9] {
                let d = (on.voltage_at(node, t) - off.voltage_at(node, t)).abs();
                assert!(d < 1e-3, "cell {i} node diff {d:e} V at t = {t:e}");
            }
        }
        let v_q = on.voltage_at(q, 2.4e-9);
        assert!(
            if expect_one {
                v_q > 0.7 * VDD
            } else {
                v_q < 0.3 * VDD
            },
            "cell {i} lost its state under half-select: q = {v_q}"
        );
    }
}

#[test]
fn quiescent_hold_never_refreshes_dormant_cells() {
    // Every source DC, initial conditions at the hold state: after the
    // initial settle there is nothing to do, and the tier must prove it —
    // zero guard refreshes, refresh count bounded by the settle, and the
    // bulk of all stamps served dormant.
    let n_cells = 6;
    let (c, storage) = latch_row(n_cells, Waveform::dc(VDD));
    let ics = with_lines(hold_ics(&storage), &c, VDD);
    let spec = TransientSpec::new(4e-9, 1e-12);

    let res = c.transient(&spec, &InitialState::Uic(ics)).unwrap();
    assert_eq!(
        res.stats.guard_refreshes, 0,
        "no shared line moved, so the guard must never fire: {:?}",
        res.stats
    );
    assert!(
        res.stats.devices_dormant > 0,
        "hold must be served dormant: {:?}",
        res.stats
    );
    // The only refreshes allowed are the initial-settle ones (the UIC hold
    // solve plus the first few steps while nodes relax to the operating
    // point): a storm would scale with step count, not cell count.
    let settle_budget = 20 * n_cells as u64;
    assert!(
        res.stats.cells_refreshed <= settle_budget,
        "refresh storm: {} refreshes for {} cells over {} solves",
        res.stats.cells_refreshed,
        n_cells,
        res.stats.newton_solves
    );
    // Dormancy must dominate: far fewer evaluations than the dense count
    // (5 devices × iterations).
    assert!(
        res.stats.devices_dormant > 4 * res.stats.device_evals,
        "dormant/eval ratio too low: {:?}",
        res.stats
    );
}

#[test]
fn parallel_evaluation_is_bit_identical_across_thread_counts() {
    // Enough cells (5 devices each) that the run starts a helper pool, so
    // every pooled pass of every step splits across its threads.
    let n_cells = POOL_MIN_DEVICES / 5 + 2;
    let bl_wave = Waveform::step(VDD, 0.0, 0.4e-9, 20e-12);
    let spec = TransientSpec::new(1.2e-9, 1e-12);

    let run = |threads: usize| {
        set_assembly_threads(threads);
        let (c, storage) = latch_row(n_cells, bl_wave.clone());
        assert!(pools(&c), "test must be big enough to start a helper pool");
        let ics = with_lines(hold_ics(&storage), &c, VDD);
        let out = c.transient(&spec, &InitialState::Uic(ics)).unwrap();
        set_assembly_threads(0);
        (out, storage)
    };

    let (base, storage) = run(1);
    // 2 is the benchmark's assembly thread count.
    for threads in [2, 4, 8] {
        let (other, _) = run(threads);
        assert_eq!(base.times(), other.times(), "threads = {threads}");
        for &(q, qb) in &storage {
            assert_eq!(base.trace(q), other.trace(q), "threads = {threads}");
            assert_eq!(base.trace(qb), other.trace(qb), "threads = {threads}");
        }
    }
}

#[test]
#[should_panic(expected = "claimed by more than one")]
fn overlapping_partitions_rejected() {
    let (mut c, _) = latch_row(2, Waveform::dc(VDD));
    let p = CellPartition {
        devices: vec![0, 5],
        ..CellPartition::default()
    };
    let q = CellPartition {
        devices: vec![5],
        ..CellPartition::default()
    };
    c.set_latency_partitions(vec![p, q]);
}
