//! Array demo: a 4×4 TFET SRAM macro exercised like a memory.
//!
//! Builds a 16-cell array netlist of the paper's proposed cell (wordline
//! drivers, precharge and write mux included), writes a text pattern
//! through the shared wordlines/bitlines (every operation is a full array
//! transient — half-select effects included), reads it back through the
//! sense path, and reports the disturb ledger.
//!
//! Run with: `cargo run --release --example sram_array`

use tfet_sram::prelude::*;

const ROWS: usize = 4;
const COLS: usize = 4;

fn show(array: &ArrayNetlist) {
    for r in 0..ROWS {
        let row: String = (0..COLS)
            .map(|c| match array.bit(r, c) {
                Some(true) => '1',
                Some(false) => '0',
                None => '?',
            })
            .collect();
        println!("  row {r}: {row}");
    }
}

fn main() -> Result<(), SramError> {
    let mut cell = CellParams::tfet6t(AccessConfig::InwardP)
        .with_beta(0.6)
        .with_vdd(0.8);
    cell.sim.dt = 4e-12; // 16 cells per transient: keep the demo snappy
    let mut array = ArrayNetlist::build(ArraySpec::new(ROWS, COLS, cell))?;

    // The pattern to store: a diagonal plus one corner.
    let pattern: [[bool; COLS]; ROWS] = [
        [true, false, false, true],
        [false, true, false, false],
        [false, false, true, false],
        [true, false, false, true],
    ];

    println!("writing pattern ({} full-array transients)...", ROWS * COLS);
    let mut disturbs = 0;
    for (r, row) in pattern.iter().enumerate() {
        for (c, &bit) in row.iter().enumerate() {
            // A 1.5 ns wordline pulse clears the critical width with margin.
            let write = array.write_transient(r, c, bit, 1.5e-9)?;
            assert!(write.success, "write ({r},{c}) failed");
            disturbs += write.disturbed.len();
            array.commit(&write.finals);
        }
    }
    println!("stored state (decoded from storage-node voltages):");
    show(&array);
    println!("half-select/disturb victims during writes: {disturbs}");

    println!("\nreading back through the bitline sense path...");
    let mut errors = 0;
    let mut worst_margin = f64::INFINITY;
    for (r, row) in pattern.iter().enumerate() {
        for (c, &expect) in row.iter().enumerate() {
            let read = array.read_transient(r, c)?;
            if read.value != expect {
                errors += 1;
            }
            if read.destructive {
                println!("  destructive read at ({r},{c})!");
            }
            worst_margin = worst_margin.min(read.sense_margin);
            array.commit(&read.finals);
        }
    }
    println!(
        "read-back errors: {errors}/{}; worst sense margin {:.0} mV",
        ROWS * COLS,
        worst_margin * 1e3
    );
    assert_eq!(errors, 0, "the macro must read back its pattern");
    Ok(())
}
