//! A row of TFET latch cells on one shared bitline/wordline pair, the
//! latency-partitioned test circuit of the latency-tier and helper-pool
//! integration tests.

use std::sync::Arc;
use tfet_circuit::{CellPartition, Circuit, GuardKind, NodeId, Waveform};
use tfet_devices::{NTfet, PTfet};

/// Supply and precharge level, V.
pub const VDD: f64 = 0.8;

/// A row of TFET latch cells hanging off one shared bitline/wordline pair:
/// each cell is a cross-coupled inverter pair plus an n-type access device
/// from the bitline to `q`, with the wordline held inactive. One latency
/// partition per cell: the five cell transistors, storage nodes watched,
/// the shared lines guarded.
pub fn latch_row(n_cells: usize, bl_wave: Waveform) -> (Circuit, Vec<(NodeId, NodeId)>) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(VDD));
    let bl = c.node("bl");
    c.vsource("VBL", bl, Circuit::GND, bl_wave);
    let wl = c.node("wl");
    c.vsource("VWL", wl, Circuit::GND, Waveform::dc(0.0));

    let mut partitions = Vec::new();
    let mut storage = Vec::new();
    for i in 0..n_cells {
        let q = c.node(&format!("q{i}"));
        let qb = c.node(&format!("qb{i}"));
        let d0 = c.transistors().len();
        c.transistor(
            &format!("PU{i}L"),
            Arc::new(PTfet::nominal()),
            q,
            qb,
            vdd,
            0.06,
        );
        c.transistor(
            &format!("PD{i}L"),
            Arc::new(NTfet::nominal()),
            q,
            qb,
            Circuit::GND,
            0.1,
        );
        c.transistor(
            &format!("PU{i}R"),
            Arc::new(PTfet::nominal()),
            qb,
            q,
            vdd,
            0.06,
        );
        c.transistor(
            &format!("PD{i}R"),
            Arc::new(NTfet::nominal()),
            qb,
            q,
            Circuit::GND,
            0.1,
        );
        c.transistor(
            &format!("AX{i}"),
            Arc::new(NTfet::nominal()),
            bl,
            wl,
            q,
            0.1,
        );
        c.capacitor(q, Circuit::GND, 1e-15);
        c.capacitor(qb, Circuit::GND, 1e-15);
        partitions.push(CellPartition {
            devices: (d0..d0 + 5).collect(),
            watch: vec![q, qb],
            guard: vec![wl, bl, vdd],
            guard_kinds: vec![GuardKind::Wordline, GuardKind::Bitline, GuardKind::Rail],
        });
        storage.push((q, qb));
    }
    c.set_latency_partitions(partitions);
    (c, storage)
}

/// Checkerboard hold state: even cells store 1, odd cells store 0.
pub fn hold_ics(storage: &[(NodeId, NodeId)]) -> Vec<(NodeId, f64)> {
    let mut ics = Vec::new();
    for (i, &(q, qb)) in storage.iter().enumerate() {
        let one = i % 2 == 0;
        ics.push((q, if one { VDD } else { 0.0 }));
        ics.push((qb, if one { 0.0 } else { VDD }));
    }
    ics
}

/// `ics` plus the supply, the bitline at `bl0` and the wordline low.
pub fn with_lines(mut ics: Vec<(NodeId, f64)>, c: &Circuit, bl0: f64) -> Vec<(NodeId, f64)> {
    ics.push((c.find_node("vdd").unwrap(), VDD));
    ics.push((c.find_node("bl").unwrap(), bl0));
    ics.push((c.find_node("wl").unwrap(), 0.0));
    ics
}
