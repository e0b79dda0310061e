//! Regenerates every figure and table of the paper, and the A1–A6
//! ablations beyond it, in one run.
//!
//! Prints each experiment as an aligned text table and writes CSVs to
//! `results/`. Full-resolution settings; expect a few minutes in release
//! mode. The ablation grids are fixed, so `--quick` leaves them as they are.
//!
//! Usage:
//! `cargo run --release -p tfet-bench --bin figures [--quick] [--dense] [--latency-off] [--out DIR]`
//!
//! * `--quick` — coarse grids for a fast smoke run;
//! * `--dense`, `--latency-off` — run on a reference oracle instead of the
//!   engine: the legacy dense linear solver, or full device evaluation.
//!   Neither is an option of any spec; these flags set the hidden process
//!   hooks once at startup, and the identity gates in `scripts/check.sh`
//!   diff the CSVs of such a run against a default run byte for byte;
//! * `--out DIR` — write CSVs to `DIR` instead of `results/`.

use std::fs;
use tfet_bench::experiments as exp;
use tfet_bench::Table;
use tfet_circuit::{DeviceLatency, SolverStrategy};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--dense") {
        SolverStrategy::set_process_default(SolverStrategy::Dense);
    }
    if args.iter().any(|a| a == "--latency-off") {
        DeviceLatency::set_process_default(DeviceLatency::Off);
    }
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results".to_string());
    let out_dir = out_dir.as_str();
    fs::create_dir_all(out_dir).expect("create results dir");

    // Grids: full paper resolution vs quick smoke.
    type Grids = (
        Vec<f64>,
        Vec<f64>,
        Vec<f64>,
        Vec<f64>,
        usize,
        Vec<usize>,
        usize,
        Vec<f64>,
    );
    let (betas_fig4, betas_wa, betas_ra, vdds, mc_n, array_sizes, yield_n, yield_scales): Grids =
        if quick {
            (
                vec![0.6, 1.0, 2.0],
                vec![1.2, 2.0],
                vec![0.4, 0.8],
                vec![0.6, 0.8],
                8,
                vec![8],
                48,
                vec![1.0, 2.5],
            )
        } else {
            (
                vec![0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0],
                vec![1.2, 1.5, 2.0, 2.5, 3.0],
                vec![0.3, 0.4, 0.5, 0.6, 0.8, 1.0],
                vec![0.5, 0.6, 0.7, 0.8, 0.9],
                120,
                vec![8, 16],
                512,
                vec![1.0, 1.5, 2.0, 2.5, 3.0],
            )
        };

    let tables: Vec<Table> = vec![
        exp::fig02a(),
        exp::fig02b(),
        exp::fig04(&betas_fig4),
        exp::fig06(&betas_wa),
        exp::fig07(&betas_ra),
        exp::fig08(&betas_wa, &betas_ra),
        exp::fig09(mc_n, 2011),
        exp::fig10(mc_n, 2011),
        exp::fig11(&vdds),
        exp::fig12(&vdds),
        exp::table_static_power(&vdds),
        exp::table_area(),
        exp::fig_array(&array_sizes),
        exp::fig_yield(yield_n, 2011, &yield_scales),
        exp::ablation_lut_resolution(),
        exp::ablation_integrator(),
        exp::ablation_assist_level(),
        exp::ablation_temperature(),
        exp::ablation_static_vs_dynamic(),
        exp::ablation_retention(),
    ];

    for t in &tables {
        println!("{}", t.render());
        let slug: String =
            t.id.chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect::<String>()
                .to_lowercase();
        let path = format!("{out_dir}/{slug}.csv");
        fs::write(&path, t.to_csv()).expect("write csv");
        println!("-> {path}\n");
    }
}
