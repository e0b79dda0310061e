//! Deck-driven topologies through the compiled-experiment layer.
//!
//! The SPICE decks under `examples/decks/` are first-class cell
//! definitions: importing one must reproduce the built-in recipe
//! bit-for-bit (6T, 7T), and a cell that exists *only* as a deck (the
//! 9T) must run write/read/WL_crit with no topology-specific Rust.
//!
//! `cell_6t.sp` is the canonical exporter output; regenerate it after an
//! intentional format change with
//! `BLESS_DECKS=1 cargo test -p tfet-sram --test deck_topology`.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use tfet_circuit::Deck;
use tfet_devices::model::DeviceModel;
use tfet_devices::standard_models;
use tfet_sram::metrics::{read_metrics, read_metrics_on, wl_crit, wl_crit_on};
use tfet_sram::prelude::*;

fn models() -> HashMap<String, Arc<dyn DeviceModel>> {
    standard_models()
}

fn deck_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/decks")
}

fn fast(params: CellParams) -> CellParams {
    let mut p = params;
    p.sim.dt = 2e-12;
    p.sim.pulse_tol = 8e-12;
    p
}

/// The paper's proposed operating point — the config behind the 430.8 ps
/// reference value in `check.sh`.
fn proposed() -> CellParams {
    fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6))
}

fn load_topo(file: &str, cell: &str) -> CellTopology {
    let path = deck_dir().join(file);
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let models = models();
    let deck =
        Deck::parse(&text, &models).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
    let sub = deck
        .find_subckt(cell)
        .unwrap_or_else(|| panic!("{file} has no .subckt `{cell}`"));
    CellTopology::from_subckt(sub, &deck.subckts, &models)
        .unwrap_or_else(|e| panic!("importing `{cell}` from {file}: {e}"))
}

/// The canonical 6T deck text: the builtin cell exported at the proposed
/// operating point, wrapped in a deck.
fn canonical_6t_text() -> String {
    let topo = CellTopology::builtin(CellKind::Tfet6T(AccessConfig::InwardP));
    let sub = topo.export_subckt(&proposed(), "cell_6t");
    let deck = Deck {
        title: Some("6t inward-p tfet sram cell, beta=0.6 (date'11 proposed)".into()),
        subckts: vec![sub],
        ..Deck::default()
    };
    deck.to_spice()
}

#[test]
fn cell_6t_deck_file_is_canonical_exporter_output() {
    let want = canonical_6t_text();
    let path = deck_dir().join("cell_6t.sp");
    if std::env::var_os("BLESS_DECKS").is_some() {
        fs::write(&path, &want).expect("blessing cell_6t.sp");
    }
    let got =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert_eq!(got, want, "cell_6t.sp drifted from the exporter output");
    // And the file round-trips byte-exactly through parse → to_spice.
    let deck = Deck::parse(&got, &models()).expect("cell_6t.sp parses");
    assert_eq!(
        deck.to_spice(),
        got,
        "cell_6t.sp is not a serializer fixed point"
    );
}

#[test]
fn every_example_deck_reaches_a_serializer_fixed_point() {
    // Hand-written decks (7T, 9T) need not be canonical text, but their
    // canonical form must round-trip byte-exactly: parse → export →
    // re-import → export is the identity.
    let models = models();
    let mut count = 0;
    let mut paths: Vec<PathBuf> = fs::read_dir(deck_dir())
        .expect("examples/decks exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sp"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).expect("deck reads");
        let canon = Deck::parse(&text, &models)
            .unwrap_or_else(|e| panic!("{name} does not parse: {e}"))
            .to_spice();
        let again = Deck::parse(&canon, &models)
            .unwrap_or_else(|e| panic!("canonical {name} does not re-parse: {e}"))
            .to_spice();
        assert_eq!(again, canon, "{name} does not round-trip byte-exactly");
        count += 1;
    }
    assert!(count >= 3, "deck corpus went missing ({count} files)");
}

#[test]
fn deck_driven_6t_write_is_bit_identical_to_builtin() {
    let topo = load_topo("cell_6t.sp", "cell_6t");
    assert_eq!(topo.access(), AccessConfig::InwardP);
    assert_eq!(topo.device_count(), 6);
    assert!(!topo.has_read_port());

    let params = proposed();
    let from_deck = wl_crit_on(&topo, &params, None).expect("deck wl_crit");
    let builtin = wl_crit(&params, None).expect("builtin wl_crit");
    let (d, b) = (
        from_deck.as_finite().expect("deck WL_crit finite"),
        builtin.as_finite().expect("builtin WL_crit finite"),
    );
    assert_eq!(d.to_bits(), b.to_bits(), "deck {d:e} != builtin {b:e}");
    // The headline number the paper reproduction pins down.
    assert_eq!(format!("{:.1}", d * 1e12), "430.8");
}

#[test]
fn deck_driven_6t_read_is_bit_identical_to_builtin() {
    let topo = load_topo("cell_6t.sp", "cell_6t");
    let params = proposed();
    let from_deck =
        read_metrics_on(&topo, &params, Some(ReadAssist::GndLowering)).expect("deck read");
    let builtin = read_metrics(&params, Some(ReadAssist::GndLowering)).expect("builtin read");
    assert_eq!(from_deck.drnm.to_bits(), builtin.drnm.to_bits());
    assert_eq!(
        from_deck.read_delay.map(f64::to_bits),
        builtin.read_delay.map(f64::to_bits)
    );
}

#[test]
fn handwritten_7t_deck_matches_builtin_7t() {
    let topo = load_topo("cell_7t.sp", "cell_7t");
    assert_eq!(topo.access(), AccessConfig::OutwardN);
    assert!(topo.has_read_port());
    assert!(topo.bl_idle_low());
    assert_eq!(topo.device_count(), 7);

    // Despite scrambled card order and different instance names, the deck
    // places the same circuit, so metrics agree to the bit.
    let params = fast(CellParams::new(CellKind::Tfet7T));
    let from_deck = wl_crit_on(&topo, &params, None).expect("deck 7T wl_crit");
    let builtin = wl_crit(&params, None).expect("builtin 7T wl_crit");
    assert_eq!(
        from_deck.as_finite().map(f64::to_bits),
        builtin.as_finite().map(f64::to_bits)
    );
    let read_deck = read_metrics_on(&topo, &params, None).expect("deck 7T read");
    let read_builtin = read_metrics(&params, None).expect("builtin 7T read");
    assert_eq!(read_deck.drnm.to_bits(), read_builtin.drnm.to_bits());
}

#[test]
fn deck_only_9t_runs_write_read_wl_crit() {
    // The 9T exists only as a deck — no CellKind, no builder code. Its
    // inward-p write core reuses the proposed parameterization; the
    // 3-transistor read port (stacked buffer + keeper) rides the generic
    // read-port experiment path.
    let topo = load_topo("cell_9t.sp", "cell_9t");
    assert_eq!(topo.access(), AccessConfig::InwardP);
    assert!(topo.has_read_port());
    assert!(
        !topo.bl_idle_low(),
        "inward access keeps write bitlines high"
    );
    assert_eq!(topo.device_count(), 9);
    let aux: Vec<_> = topo
        .slots()
        .iter()
        .filter(|s| s.role == tfet_sram::tech::Role::ReadBuffer)
        .collect();
    assert_eq!(aux.len(), 3, "stacked read buffer + keeper");

    let params = proposed();
    let w = wl_crit_on(&topo, &params, None).expect("9T wl_crit");
    let w = w.as_finite().expect("9T write succeeds");
    assert!(w > 0.0 && w < params.sim.max_pulse);

    let read = read_metrics_on(&topo, &params, None).expect("9T read");
    assert!(
        read.drnm > 0.2 * params.vdd,
        "decoupled read port should leave storage nodes near-undisturbed, got {} V",
        read.drnm
    );
}

#[test]
fn array_accepts_deck_topology_and_matches_builtin() {
    let topo = load_topo("cell_6t.sp", "cell_6t");
    let mut cell = proposed();
    cell.sim.max_pulse = 2e-9;

    let mut from_deck = ArrayNetlist::build(ArraySpec::new(2, 2, cell.clone()).with_topology(topo))
        .expect("deck-topology array builds");
    let mut builtin = ArrayNetlist::build(ArraySpec::new(2, 2, cell)).expect("builtin array");

    // Array WL_crit runs 2-2.5x the single-cell value (driver slew, mux
    // discharge), so give the write a comfortable 1.5 ns pulse.
    let wd = from_deck
        .write_transient(1, 0, true, 1.5e-9)
        .expect("deck write");
    let wb = builtin
        .write_transient(1, 0, true, 1.5e-9)
        .expect("builtin write");
    assert!(wd.success && wb.success);
    assert_eq!(wd.disturbed, wb.disturbed);
    for (a, b) in wd.finals.iter().zip(wb.finals.iter()) {
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }

    let cd = from_deck.wl_crit(0, 1).expect("deck array wl_crit");
    let cb = builtin.wl_crit(0, 1).expect("builtin array wl_crit");
    assert_eq!(
        cd.as_finite().map(f64::to_bits),
        cb.as_finite().map(f64::to_bits)
    );
}

#[test]
fn array_rejects_read_port_topologies() {
    let topo = load_topo("cell_7t.sp", "cell_7t");
    let err = ArrayNetlist::build(
        ArraySpec::new(2, 2, fast(CellParams::new(CellKind::Tfet7T))).with_topology(topo),
    )
    .expect_err("no rbl/rwl columns in the array netlist");
    assert!(err.to_string().contains("read-port"));
}
