//! Cross-crate integration: custom circuits built from the public APIs of
//! all layers at once — lookup-table devices inside SRAM-style circuits,
//! multi-cell half-select interaction, and retention over long transients.

use std::sync::Arc;
use tfet_circuit::transient::InitialState;
use tfet_circuit::{Circuit, TransientSpec, Waveform};
use tfet_devices::model::DeviceModel;
use tfet_devices::{LutDevice, NTfet, PTfet};
use tfet_sram::ops::run_write;
use tfet_sram::prelude::*;

/// A TFET inverter built from LUT-compiled devices (the paper's Verilog-A
/// methodology) must switch rail-to-rail like the analytic one.
#[test]
fn lut_compiled_devices_drive_circuits() {
    let n_lut: Arc<dyn DeviceModel> = Arc::new(LutDevice::compile_default(NTfet::nominal()));
    let p_lut: Arc<dyn DeviceModel> = Arc::new(LutDevice::compile_default(PTfet::nominal()));

    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
    let vin = c.vsource("VIN", inp, Circuit::GND, Waveform::dc(0.0));
    c.transistor("MP", p_lut, out, inp, vdd, 0.1);
    c.transistor("MN", n_lut, out, inp, Circuit::GND, 0.1);

    let op = c.dc_op().unwrap();
    assert!(
        op.voltage(out) > 0.78,
        "LUT inverter high: {}",
        op.voltage(out)
    );
    c.set_vsource_wave(vin, Waveform::dc(0.8));
    let op = c.dc_op().unwrap();
    assert!(
        op.voltage(out) < 0.02,
        "LUT inverter low: {}",
        op.voltage(out)
    );
}

/// Half-select study (the §4.3 drawback the paper discusses): two cells on
/// the same wordline, one column written, the other column's bitlines held
/// at their standby levels. The half-selected cell sees the wordline pulse
/// without write data and must retain its state.
#[test]
fn half_selected_cell_retains_state() {
    let mut params = CellParams::tfet6t(AccessConfig::InwardP)
        .with_beta(0.6)
        .with_vdd(0.8);
    params.sim.dt = 2e-12;
    let vdd = params.vdd;

    let mut c = Circuit::new();
    // Selected cell (column 0) and half-selected cell (column 1).
    let topo = CellTopology::builtin(params.kind);
    let sel = topo.place_named(&mut c, &params, "c0_").nodes;
    let half = topo.place_named(&mut c, &params, "c1_").nodes;

    // Common rails.
    for n in [sel.vdd, half.vdd] {
        c.vsource("VDD", n, Circuit::GND, Waveform::dc(vdd));
    }
    for n in [sel.vss, half.vss] {
        c.vsource("VSS", n, Circuit::GND, Waveform::dc(0.0));
    }
    // Shared wordline waveform: active-low pulse (p-type access).
    let t0 = 0.3e-9;
    let width = 1.5e-9;
    let wl_wave = Waveform::pulse(vdd, 0.0, t0, width, 10e-12);
    c.vsource("WL0", sel.wl, Circuit::GND, wl_wave.clone());
    c.vsource("WL1", half.wl, Circuit::GND, wl_wave);

    // Selected column: write q -> 0 (BL to 0, BLB stays high).
    c.vsource(
        "BL0",
        sel.bl,
        Circuit::GND,
        Waveform::step(vdd, 0.0, 0.2e-9, 10e-12),
    );
    c.vsource("BLB0", sel.blb, Circuit::GND, Waveform::dc(vdd));
    // Half-selected column: bitlines *float* at their precharge level on the
    // column capacitance, as in a real array (driving them rail-hard would
    // turn the wordline pulse into a destructive pseudo-read — the §4.3
    // half-select hazard the paper says must be mitigated architecturally).
    c.capacitor(half.bl, Circuit::GND, params.c_bitline);
    c.capacitor(half.blb, Circuit::GND, params.c_bitline);

    // Both cells start with q = 1.
    let uic = vec![
        (sel.q, vdd),
        (sel.qb, 0.0),
        (half.q, vdd),
        (half.qb, 0.0),
        (sel.bl, vdd),
        (sel.blb, vdd),
        (half.bl, vdd),
        (half.blb, vdd),
        (sel.wl, vdd),
        (half.wl, vdd),
        (sel.vdd, vdd),
        (half.vdd, vdd),
    ];
    let res = c
        .transient(
            &TransientSpec::new(t0 + width + 1.5e-9, params.sim.dt),
            &InitialState::Uic(uic),
        )
        .unwrap();

    // Selected cell flipped; half-selected cell retained.
    assert!(
        res.final_voltage(sel.qb) - res.final_voltage(sel.q) > 0.3 * vdd,
        "selected cell must be written"
    );
    assert!(
        res.final_voltage(half.q) - res.final_voltage(half.qb) > 0.7 * vdd,
        "half-selected cell must retain its state: q={:.3}, qb={:.3}",
        res.final_voltage(half.q),
        res.final_voltage(half.qb)
    );
}

/// Retention: with the wordline inactive, the cell must hold both states
/// through a long quiet transient (100× the write timescale).
#[test]
fn cell_retains_both_states_over_long_idle() {
    let mut params = CellParams::tfet6t(AccessConfig::InwardP)
        .with_beta(0.6)
        .with_vdd(0.8);
    params.sim.dt = 2e-12;
    let vdd = params.vdd;

    for q_high in [true, false] {
        let mut c = Circuit::new();
        let nodes = CellTopology::builtin(params.kind)
            .place(&mut c, &params)
            .nodes;
        c.vsource("VDD", nodes.vdd, Circuit::GND, Waveform::dc(vdd));
        c.vsource("VSS", nodes.vss, Circuit::GND, Waveform::dc(0.0));
        c.vsource("WL", nodes.wl, Circuit::GND, Waveform::dc(vdd)); // inactive
        c.vsource("BL", nodes.bl, Circuit::GND, Waveform::dc(vdd));
        c.vsource("BLB", nodes.blb, Circuit::GND, Waveform::dc(vdd));
        let (vq, vqb) = if q_high { (vdd, 0.0) } else { (0.0, vdd) };
        let res = c
            .transient(
                &TransientSpec::new(100e-9, 50e-12),
                &InitialState::Uic(vec![
                    (nodes.q, vq),
                    (nodes.qb, vqb),
                    (nodes.bl, vdd),
                    (nodes.blb, vdd),
                    (nodes.wl, vdd),
                    (nodes.vdd, vdd),
                ]),
            )
            .unwrap();
        let dq = res.final_voltage(nodes.q) - res.final_voltage(nodes.qb);
        if q_high {
            assert!(dq > 0.7 * vdd, "q=1 state lost: Δ = {dq}");
        } else {
            assert!(dq < -0.7 * vdd, "q=0 state lost: Δ = {dq}");
        }
    }
}

/// The ops layer and a hand-built circuit must agree: a write driven through
/// `run_write` matches the same experiment assembled manually.
#[test]
fn ops_layer_matches_hand_built_write() {
    let mut params = CellParams::tfet6t(AccessConfig::InwardP)
        .with_beta(0.6)
        .with_vdd(0.8);
    params.sim.dt = 2e-12;
    let run = run_write(&params, None, 1.5e-9).unwrap();
    assert!(run.flipped());

    // Hand-built equivalent (same timing constants as ops defaults).
    let vdd = params.vdd;
    let mut c = Circuit::new();
    let nodes = CellTopology::builtin(params.kind)
        .place(&mut c, &params)
        .nodes;
    c.vsource("VDD", nodes.vdd, Circuit::GND, Waveform::dc(vdd));
    c.vsource("VSS", nodes.vss, Circuit::GND, Waveform::dc(0.0));
    c.vsource(
        "WL",
        nodes.wl,
        Circuit::GND,
        Waveform::pulse(vdd, 0.0, 0.25e-9, 1.5e-9, 10e-12),
    );
    c.vsource(
        "BL",
        nodes.bl,
        Circuit::GND,
        Waveform::step(vdd, 0.0, 0.2e-9, 10e-12),
    );
    c.vsource("BLB", nodes.blb, Circuit::GND, Waveform::dc(vdd));
    let res = c
        .transient(
            &TransientSpec::new(3.25e-9, params.sim.dt),
            &InitialState::Uic(vec![
                (nodes.q, vdd),
                (nodes.qb, 0.0),
                (nodes.bl, vdd),
                (nodes.blb, vdd),
                (nodes.wl, vdd),
                (nodes.vdd, vdd),
            ]),
        )
        .unwrap();
    let hand_flip = res.final_voltage(nodes.qb) - res.final_voltage(nodes.q) > 0.3 * vdd;
    assert_eq!(hand_flip, run.flipped(), "ops and hand-built runs agree");
}
