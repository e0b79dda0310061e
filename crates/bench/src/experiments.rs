//! The per-figure experiment generators.
//!
//! Each `figNN` function recomputes one figure's data series through the
//! full stack and returns it as a [`Table`]. Figure numbers follow the
//! paper; "T1"/"T2" are the §5 prose comparisons (static power, area)
//! rendered as tables. The `ablation_*` functions are ablations A1–A6,
//! which go beyond the paper (see EXPERIMENTS.md).

use crate::{mv, ps, sci, Table};
use std::sync::Arc;
use tfet_circuit::{Circuit, Waveform};
use tfet_devices::calibration::characterize;
use tfet_devices::model::DeviceModel;
use tfet_devices::{LutDevice, NTfet, PTfet};
use tfet_numerics::{linspace, par_map, Histogram, Summary};
use tfet_sram::area::area_of;
use tfet_sram::compare::Design;
use tfet_sram::explore::{beta_sweep, corner_score, ra_tradeoff, wa_tradeoff};
use tfet_sram::metrics::{
    data_retention_voltage, read_metrics, static_power, wl_crit, write_delay, WlCrit,
};
use tfet_sram::montecarlo::{mc_drnm, mc_wl_crit};
use tfet_sram::prelude::*;
use tfet_sram::rare_event::{yield_read, VariationModel, YieldConfig};
use tfet_sram::snm::{static_noise_margin, SnmCondition};

/// Simulation settings shared by all experiments: 2 ps step and 8 ps pulse
/// tolerance keep the full suite minutes-scale while staying well inside
/// each metric's convergence plateau (see [`ablation_integrator`]).
pub fn fast(params: CellParams) -> CellParams {
    let mut p = params;
    p.sim.dt = 2e-12;
    p.sim.pulse_tol = 8e-12;
    p
}

/// The proposed cell at a given β.
fn inp_cell(beta: f64) -> CellParams {
    fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(beta))
}

fn wl_cell(w: WlCrit) -> String {
    match w {
        WlCrit::Finite(t) => ps(t),
        WlCrit::Infinite => "inf".to_string(),
        WlCrit::Unbracketable => "unbracketable".to_string(),
    }
}

fn opt_ps(t: Option<f64>) -> String {
    t.map(ps).unwrap_or_else(|| "-".to_string())
}

/// Fig. 2(a): forward transfer characteristics of the n- and p-TFET at
/// |V_DS| = 1 V, plus the headline figures of merit.
pub fn fig02a() -> Table {
    let mut t = Table::new(
        "Fig. 2(a)",
        "TFET forward I_DS–V_GS at |V_DS| = 1 V",
        &["vgs_V", "ntfet_A_per_um", "ptfet_A_per_um"],
    );
    let n = NTfet::nominal();
    let p = PTfet::nominal();
    for vgs in linspace(0.0, 1.0, 21) {
        t.push_row(vec![
            format!("{vgs:.2}"),
            sci(n.ids_per_um(vgs, 1.0, 0.0)),
            sci(p.ids_per_um(-vgs, -1.0, 0.0).abs()),
        ]);
    }
    let f = characterize(&n, 1.0);
    t.note(format!(
        "I_on = {:.2e} A/um (paper 1e-4), I_off = {:.2e} A/um (paper 1e-17), min SS = {:.1} mV/dec (paper < 60)",
        f.i_on,
        f.i_off,
        f.ss_min * 1e3
    ));
    t
}

/// Fig. 2(b): n-TFET reverse-bias transfer curves — gate control at small
/// |V_DS|, gate-independent diode conduction at large |V_DS|.
pub fn fig02b() -> Table {
    let vds_list = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0];
    let mut header = vec!["vgs_V".to_string()];
    header.extend(vds_list.iter().map(|v| format!("I_at_vds_-{v}_A_per_um")));
    let mut t = Table::new(
        "Fig. 2(b)",
        "nTFET reverse-bias I_DS–V_GS (drain and source switched)",
        &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let n = NTfet::nominal();
    for vgs in linspace(0.0, 1.0, 11) {
        let mut row = vec![format!("{vgs:.1}")];
        for &vds in &vds_list {
            row.push(sci(-n.ids_per_um(vgs, -vds, 0.0)));
        }
        t.push_row(row);
    }
    let mod_low = -n.ids_per_um(1.0, -0.2, 0.0) / -n.ids_per_um(0.0, -0.2, 0.0);
    let mod_high = -n.ids_per_um(1.0, -1.0, 0.0) / -n.ids_per_um(0.0, -1.0, 0.0);
    t.note(format!(
        "gate modulation: {mod_low:.1e}x at |V_DS| = 0.2 V (gate controls), {mod_high:.2}x at 1.0 V (gate control lost)"
    ));
    t
}

/// Fig. 4: DRNM and WL_crit vs cell ratio β for inward-n / inward-p TFET
/// access and the CMOS baseline.
pub fn fig04(betas: &[f64]) -> Table {
    let mut t = Table::new(
        "Fig. 4",
        "DRNM and WL_crit vs cell ratio (inward-n, inward-p, CMOS)",
        &[
            "beta",
            "drnm_inp_mV",
            "wlcrit_inp_ps",
            "drnm_inn_mV",
            "wlcrit_inn_ps",
            "drnm_cmos_mV",
            "wlcrit_cmos_ps",
        ],
    );
    let inp = beta_sweep(&fast(CellParams::tfet6t(AccessConfig::InwardP)), betas)
        .expect("inward-p sweep");
    let inn = beta_sweep(&fast(CellParams::tfet6t(AccessConfig::InwardN)), betas)
        .expect("inward-n sweep");
    let cmos = beta_sweep(&fast(CellParams::cmos6t()), betas).expect("CMOS sweep");
    for ((a, b), c) in inp.iter().zip(&inn).zip(&cmos) {
        t.push_row(vec![
            format!("{:.2}", a.beta),
            mv(a.drnm),
            wl_cell(a.wl_crit),
            mv(b.drnm),
            wl_cell(b.wl_crit),
            mv(c.drnm),
            wl_cell(c.wl_crit),
        ]);
    }
    let inn_all_inf = inn.iter().all(|p| p.wl_crit.is_infinite());
    t.note(format!(
        "inward-n WL_crit infinite at every beta: {inn_all_inf} (paper: true)"
    ));
    let boundary = inp
        .iter()
        .filter(|p| !p.wl_crit.is_infinite())
        .map(|p| p.beta)
        .fold(f64::NEG_INFINITY, f64::max);
    t.note(format!(
        "largest writable beta for inward-p: {boundary} (paper: ~1)"
    ));
    t
}

/// Fig. 6(e): WL_crit vs β for the four write-assist techniques.
pub fn fig06(betas: &[f64]) -> Table {
    let mut t = Table::new(
        "Fig. 6(e)",
        "WL_crit vs beta under each write-assist technique (30% VDD)",
        &[
            "beta",
            "vdd_lower_ps",
            "gnd_raise_ps",
            "wl_lower_ps",
            "bl_raise_ps",
        ],
    );
    // VDD lowering acts through slow reverse conduction in a unidirectional
    // cell; give the search a larger pulse budget.
    let mut base = inp_cell(1.0);
    base.sim.max_pulse = 12e-9;
    let mut cols = Vec::new();
    for wa in [
        WriteAssist::VddLowering,
        WriteAssist::GndRaising,
        WriteAssist::WordlineLowering,
        WriteAssist::BitlineRaising,
    ] {
        let sweep = tfet_sram::explore::write_assist_sweep(&base, wa, betas).expect("WA sweep");
        cols.push(sweep);
    }
    for (k, &beta) in betas.iter().enumerate() {
        t.push_row(vec![
            format!("{beta:.2}"),
            wl_cell(cols[0][k].wl_crit),
            wl_cell(cols[1][k].wl_crit),
            wl_cell(cols[2][k].wl_crit),
            wl_cell(cols[3][k].wl_crit),
        ]);
    }
    t.note("paper shape: access-side assists (WL lower / BL raise) win at low beta");
    t.note("deviation: in our model VDD lowering (not WL lower/BL raise) is the technique that dies first as beta grows — see EXPERIMENTS.md");
    t
}

/// Fig. 7(e): DRNM vs β for the four read-assist techniques.
pub fn fig07(betas: &[f64]) -> Table {
    let mut t = Table::new(
        "Fig. 7(e)",
        "DRNM vs beta under each read-assist technique (30% VDD)",
        &[
            "beta",
            "vdd_raise_mV",
            "gnd_lower_mV",
            "wl_raise_mV",
            "bl_lower_mV",
            "none_mV",
        ],
    );
    let base = inp_cell(1.0);
    let assists = [
        Some(ReadAssist::VddRaising),
        Some(ReadAssist::GndLowering),
        Some(ReadAssist::WordlineRaising),
        Some(ReadAssist::BitlineLowering),
        None,
    ];
    // One grid point per (β, assist) pair, fanned out together.
    let grid = par_map(betas.len() * assists.len(), None, |i| {
        let p = base.clone().with_beta(betas[i / assists.len()]);
        mv(read_metrics(&p, assists[i % assists.len()])
            .expect("read")
            .drnm)
    });
    for (k, &beta) in betas.iter().enumerate() {
        let mut row = vec![format!("{beta:.2}")];
        row.extend_from_slice(&grid[k * assists.len()..(k + 1) * assists.len()]);
        t.push_row(row);
    }
    t.note("paper shape: rail assists (VDD raise / GND lower) best at large beta");
    t
}

/// Fig. 8: the WA/RA tradeoff plane — (DRNM, WL_crit) per technique per β.
pub fn fig08(wa_betas: &[f64], ra_betas: &[f64]) -> Table {
    let mut t = Table::new(
        "Fig. 8",
        "WA/RA comparison in the (DRNM, WL_crit) plane",
        &["technique", "beta", "drnm_mV", "wlcrit_ps", "corner_score"],
    );
    let mut base = inp_cell(1.0);
    base.sim.max_pulse = 12e-9;
    let (wl_scale, drnm_scale) = (1e-9, 0.1);
    let mut best: Option<(String, f64)> = None;
    let mut curves = Vec::new();
    for wa in WriteAssist::ALL {
        curves.push((
            wa_tradeoff(&base, wa, wa_betas).expect("WA curve"),
            wa_betas.to_vec(),
        ));
    }
    for ra in ReadAssist::ALL {
        curves.push((
            ra_tradeoff(&base, ra, ra_betas).expect("RA curve"),
            ra_betas.to_vec(),
        ));
    }
    for (curve, betas) in &curves {
        let score = corner_score(curve, wl_scale, drnm_scale);
        for (k, &(drnm, wl)) in curve.points.iter().enumerate() {
            t.push_row(vec![
                curve.label.clone(),
                format!("{:.2}", betas.get(k).copied().unwrap_or(f64::NAN)),
                mv(drnm),
                ps(wl),
                score.map(|s| format!("{s:+.3}")).unwrap_or_default(),
            ]);
        }
        if let Some(s) = score {
            if best.as_ref().is_none_or(|(_, b)| s < *b) {
                best = Some((curve.label.clone(), s));
            }
        }
    }
    if let Some((label, _)) = best {
        t.note(format!(
            "best technique (closest to lower-right corner): {label} (paper: GND lowering RA)"
        ));
    }
    t
}

/// Fig. 9: Monte-Carlo WL_crit distributions under each WA at β = 2, plus
/// the DRNM distribution of the WA-sized cell.
pub fn fig09(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Fig. 9",
        "process variation (±5% t_ox) with WA sizing (beta = 2)",
        &["panel", "technique", "mean", "std", "cv_pct", "fail_pct"],
    );
    let mut base = inp_cell(2.0);
    base.sim.max_pulse = 12e-9;
    for wa in WriteAssist::ALL {
        let mc = mc_wl_crit(&base, Some(wa), n, seed).expect("MC WL_crit");
        let fail = mc.failure_rate() * 100.0;
        if mc.values.is_empty() {
            t.push_row(vec![
                "WL_crit".into(),
                wa.label().into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("{fail:.0}"),
            ]);
        } else {
            let s = Summary::of(&mc.values);
            t.push_row(vec![
                "WL_crit".into(),
                wa.label().into(),
                format!("{} ps", ps(s.mean)),
                format!("{} ps", ps(s.std_dev)),
                format!("{:.1}", s.cv() * 100.0),
                format!("{fail:.0}"),
            ]);
        }
    }
    // Fig. 9(d): DRNM of the WA-sized cell is hardly influenced.
    let drnm = mc_drnm(&base, None, n, seed).expect("MC DRNM");
    let s = Summary::of(&drnm.values);
    t.push_row(vec![
        "DRNM".into(),
        "(no assist)".into(),
        format!("{} mV", mv(s.mean)),
        format!("{} mV", mv(s.std_dev)),
        format!("{:.1}", s.cv() * 100.0),
        "0".into(),
    ]);
    t.note("paper shape: WL_crit varies greatly under WA; DRNM hardly moves");
    t
}

/// Fig. 10: Monte-Carlo DRNM distributions under each RA at β = 0.6, plus
/// the WL_crit distribution of the RA-sized cell, with histogram rows.
pub fn fig10(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Fig. 10",
        "process variation (±5% t_ox) with RA sizing (beta = 0.6)",
        &["panel", "technique", "mean", "std", "cv_pct"],
    );
    let base = inp_cell(0.6);
    for ra in ReadAssist::ALL {
        let drnm = mc_drnm(&base, Some(ra), n, seed).expect("MC DRNM");
        let s = Summary::of(&drnm.values);
        t.push_row(vec![
            "DRNM".into(),
            ra.label().into(),
            format!("{} mV", mv(s.mean)),
            format!("{} mV", mv(s.std_dev)),
            format!("{:.1}", s.cv() * 100.0),
        ]);
    }
    let mc = mc_wl_crit(&base, None, n, seed).expect("MC WL_crit");
    let s = Summary::of(&mc.values);
    t.push_row(vec![
        "WL_crit".into(),
        "(no assist)".into(),
        format!("{} ps", ps(s.mean)),
        format!("{} ps", ps(s.std_dev)),
        format!("{:.1}", s.cv() * 100.0),
    ]);
    t.note("paper shape: DRNM minimally impacted for all RA; WL_crit spread much smaller than in the WA case");
    // Attach a text histogram of the winning technique for visual parity
    // with the paper's panels.
    let gnd = mc_drnm(&base, Some(ReadAssist::GndLowering), n, seed).expect("MC DRNM");
    let gnd = gnd.values;
    if gnd.iter().any(|&v| v != gnd[0]) {
        let h = Histogram::from_data(&gnd, 8);
        for (center, count) in h.to_rows() {
            t.note(format!(
                "gnd-lowering DRNM hist: {:.1} mV -> {count}",
                center * 1e3
            ));
        }
    }
    t
}

/// Figs. 11–12 shared engine: scorecards of the four §5 designs across V_DD.
/// The supply × design grid is one parallel fan-out; rows come back in
/// supply-major order regardless of the thread count.
fn scorecards(vdds: &[f64]) -> Vec<(Design, f64, ScoreLite)> {
    let designs = Design::ALL;
    par_map(vdds.len() * designs.len(), None, |i| {
        let (d, vdd) = (designs[i % designs.len()], vdds[i / designs.len()]);
        let params = fast(d.params(vdd));
        let read = read_metrics(&params, d.read_assist()).expect("read");
        let wl = match wl_crit(&params, None) {
            Ok(w) => Some(w),
            Err(SramError::Undefined { .. }) => None,
            Err(e) => panic!("{e}"),
        };
        (
            d,
            vdd,
            ScoreLite {
                write_delay: write_delay(&params, None).expect("write delay"),
                read_delay: read.read_delay,
                drnm: read.drnm,
                wl_crit: wl,
            },
        )
    })
}

/// Condensed scorecard used by the Fig. 11/12 tables.
struct ScoreLite {
    write_delay: Option<f64>,
    read_delay: Option<f64>,
    drnm: f64,
    wl_crit: Option<WlCrit>,
}

/// Fig. 11: write and read delay vs V_DD for the four designs.
pub fn fig11(vdds: &[f64]) -> Table {
    let mut t = Table::new(
        "Fig. 11",
        "write/read delay vs VDD (proposed, CMOS, asym 6T, 7T)",
        &["vdd_V", "design", "write_delay_ps", "read_delay_ps"],
    );
    for (d, vdd, s) in scorecards(vdds) {
        t.push_row(vec![
            format!("{vdd:.1}"),
            d.label().into(),
            opt_ps(s.write_delay),
            opt_ps(s.read_delay),
        ]);
    }
    t.note("paper shape: CMOS writes fastest over most of the range; the proposed cell leads the TFET designs");
    t
}

/// Fig. 12: WL_crit and DRNM vs V_DD for the four designs.
pub fn fig12(vdds: &[f64]) -> Table {
    let mut t = Table::new(
        "Fig. 12",
        "WL_crit and DRNM vs VDD (proposed, CMOS, asym 6T, 7T)",
        &["vdd_V", "design", "wlcrit_ps", "drnm_mV"],
    );
    for (d, vdd, s) in scorecards(vdds) {
        let wl = match s.wl_crit {
            Some(w) => wl_cell(w),
            None => "undef".into(),
        };
        t.push_row(vec![format!("{vdd:.1}"), d.label().into(), wl, mv(s.drnm)]);
    }
    t.note("paper shape: all TFET SRAMs have larger WL_crit than CMOS; proposed has the smallest among them; asym WL_crit undefined");
    t
}

/// T1 (§5 prose): hold static power of the four designs across V_DD.
pub fn table_static_power(vdds: &[f64]) -> Table {
    let mut t = Table::new(
        "T1 (§5)",
        "hold static power (W) per design and VDD",
        &[
            "vdd_V",
            "proposed_W",
            "cmos_W",
            "asym6t_W",
            "tfet7t_W",
            "cmos_gap_orders",
        ],
    );
    let designs = Design::ALL;
    let powers = par_map(vdds.len() * designs.len(), None, |i| {
        let (d, vdd) = (designs[i % designs.len()], vdds[i / designs.len()]);
        static_power(&fast(d.params(vdd))).expect("power")
    });
    for (k, &vdd) in vdds.iter().enumerate() {
        let row = &powers[k * designs.len()..(k + 1) * designs.len()];
        let (p, c) = (row[0], row[1]);
        t.push_row(vec![
            format!("{vdd:.1}"),
            sci(p),
            sci(c),
            sci(row[2]),
            sci(row[3]),
            format!("{:.1}", (c / p).log10()),
        ]);
    }
    t.note("paper: proposed ~= 7T; CMOS 6-7 orders higher; asym ~4 orders over proposed at 0.5 V unless its bitlines may float");
    t
}

/// T2 (§5 prose): relative cell area.
pub fn table_area() -> Table {
    let mut t = Table::new(
        "T2 (§5)",
        "relative cell area (proposed = 1.00)",
        &["design", "area_units", "relative"],
    );
    let reference = Design::Proposed.params(0.8);
    let ref_area = area_of(&reference);
    for d in Design::ALL {
        let a = area_of(&d.params(0.8));
        t.push_row(vec![
            d.label().into(),
            format!("{a:.3}"),
            format!("{:.2}", a / ref_area),
        ]);
    }
    t.note("paper: the three 6T designs share the minimum area; the 7T pays 10-15% more");
    t
}

/// Array-level validation: `WL_crit` searched through the full R×R
/// netlist — wordline-driver slew, column-mux discharge and half-select
/// loading all physical — against the analytic single-cell model with the
/// column's row-scaled bitline load.
///
/// The table carries *physical values only* (no solver-effort counters):
/// `scripts/check.sh` diffs this CSV byte for byte between latency tiers
/// and across assembly thread counts, so everything printed must be
/// invariant under both knobs.
pub fn fig_array(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "Array",
        "array netlist WL_crit vs the analytic single-cell model",
        &[
            "rows",
            "cols",
            "wlcrit_netlist_ps",
            "wlcrit_analytic_ps",
            "ratio",
        ],
    );
    for &n in sizes {
        let mut cell = inp_cell(0.6);
        // The array engine's fixed-grid transient resolves WL_crit well at
        // a 4 ps step; halving it doubles every probe's cost for no change
        // in the printed 0.1 ps resolution.
        cell.sim.dt = 4e-12;
        let mut a = ArrayNetlist::build(ArraySpec::new(n, n, cell)).expect("array build");
        let netlist = a.wl_crit(0, 0).expect("array WL_crit");
        let analytic = a.analytic_wl_crit().expect("analytic WL_crit");
        let ratio = match (netlist, analytic) {
            (WlCrit::Finite(x), WlCrit::Finite(y)) => format!("{:.2}", x / y),
            _ => "-".into(),
        };
        t.push_row(vec![
            n.to_string(),
            n.to_string(),
            wl_cell(netlist),
            wl_cell(analytic),
            ratio,
        ]);
    }
    t.note(
        "shape check: netlist > analytic at every size (driver slew and mux discharge \
         only lengthen the critical pulse), same order of magnitude",
    );
    t
}

/// Per-transistor Vth-mismatch sigma of the rare-event yield model, V.
///
/// Calibrated so the read-disturb failure boundary (DRNM < 0) of the
/// proposed cell (β = 0.6, V_DD = 0.8 V) sits ~6σ deep: the dominant
/// single-device direction (pull-down-left Vth up) crosses zero near
/// +63 mV ≈ 10σ, and the full 14-dimensional boundary is reachable at a
/// combined depth where brute force sees ~1e-9 failure mass.
pub const YIELD_VTH_SIGMA: f64 = 6e-3;

/// Truncation bound of the Vth-mismatch factor (8σ keeps the truncation
/// negligible while staying far inside the device model's ±0.3 V
/// perturbative range).
pub const YIELD_VTH_BOUND: f64 = 8.0 * YIELD_VTH_SIGMA;

/// The rare-event variation model: the paper's ±5 % t_ox factor plus
/// calibrated per-transistor Vth mismatch.
pub fn yield_model() -> VariationModel {
    VariationModel::paper().with_vth(YIELD_VTH_SIGMA, YIELD_VTH_BOUND)
}

/// Rare-event read-disturb yield: the failure probability P(DRNM < 0) of
/// the proposed cell under [`yield_model`], estimated per `sigma_scale` by
/// scaled-sigma importance sampling (`tfet_sram::rare_event`). The
/// `sigma_scale = 1` row is brute force — at this tail depth it reports
/// zero failures at any affordable budget, which is the point.
///
/// Like `fig_array`, this CSV is byte-diffed across solver tiers: every
/// printed value is either exact integer bookkeeping or a 4-significant-
/// digit estimate, both invariant at the tiers' ~1e-5 agreement scale.
pub fn fig_yield(n: usize, seed: u64, scales: &[f64]) -> Table {
    let mut t = Table::new(
        "Yield",
        "rare-event read-disturb yield via scaled-sigma importance sampling",
        &[
            "sigma_scale",
            "samples",
            "survivors",
            "fails_raw",
            "p_fail",
            "std_err",
            "ess",
            "fail_64kb",
        ],
    );
    let base = fast(
        CellParams::tfet6t(AccessConfig::InwardP)
            .with_beta(0.6)
            .with_vdd(0.8),
    );
    let fmt_p = |p: Option<f64>| match p {
        Some(p) if p > 0.0 => sci(p),
        Some(_) => "0".into(),
        None => "-".into(),
    };
    for &scale in scales {
        let cfg = YieldConfig::new(n, seed)
            .with_model(yield_model())
            .with_sigma_scale(scale);
        let s = yield_read(&base, None, 0.0, &cfg).expect("yield study");
        t.push_row(vec![
            format!("{scale:.1}"),
            s.samples.to_string(),
            s.survivors.to_string(),
            s.failures.to_string(),
            fmt_p(s.p_fail),
            fmt_p(s.std_error),
            format!("{:.1}", s.ess),
            fmt_p(s.array_fail_prob(65536)),
        ]);
    }
    t.note(format!(
        "model: t_ox ±5% (paper) + Vth mismatch sigma {} mV/device, truncated at 8 sigma",
        YIELD_VTH_SIGMA * 1e3
    ));
    t.note(
        "shape check: brute force (scale 1.0) reports zero failures; scaled proposals \
         resolve a nonzero ~6-sigma tail estimate from the same budget",
    );
    t.note("low ESS flags weight spread: trust p_fail only with std_err well under it");
    t
}

/// Worst relative drain-current error of an `n_pts`² LUT of the nominal
/// n-TFET over on-region probes, and the output error, V, of an inverter
/// built from `n_pts`² n- and p-TFET LUTs, both against the analytic
/// models.
///
/// The probes are shifted by 3.7 mV so that none lies on a node of any
/// grid (100 down to 5 mV steps), and the inverter input sits off
/// mid-rail: a probe on a node reads the table exactly, and at the
/// mid-rail input the mirror-symmetric n and p tables' errors cancel.
fn lut_errors(n_pts: usize) -> (f64, f64) {
    let analytic = NTfet::nominal();
    let lut_n = LutDevice::compile(NTfet::nominal(), (-1.2, 1.2), n_pts, (-1.2, 1.2), n_pts);
    let lut_p = LutDevice::compile(PTfet::nominal(), (-1.2, 1.2), n_pts, (-1.2, 1.2), n_pts);
    let mut worst = 0.0f64;
    for &(vg, vd) in &[(0.8, 0.8), (0.6, 0.4), (0.45, 0.7), (0.9, 0.2), (0.7, 0.55)] {
        let (vg, vd) = (vg + 3.7e-3, vd + 3.7e-3);
        let a = analytic.ids_per_um(vg, vd, 0.0);
        let l = lut_n.ids_per_um(vg, vd, 0.0);
        worst = worst.max((a - l).abs() / a.abs().max(1e-18));
    }
    let inverter_vout = |n: Arc<dyn DeviceModel>, p: Arc<dyn DeviceModel>| {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
        c.vsource("VIN", inp, Circuit::GND, Waveform::dc(0.37));
        c.transistor("MP", p, out, inp, vdd, 0.1);
        c.transistor("MN", n, out, inp, Circuit::GND, 0.1);
        c.dc_op().expect("inverter op").voltage(out)
    };
    let exact = inverter_vout(Arc::new(analytic), Arc::new(PTfet::nominal()));
    let vout = inverter_vout(Arc::new(lut_n), Arc::new(lut_p));
    (worst, (vout - exact).abs())
}

/// Ablation A1: the paper's 2-D I–V lookup-table methodology against the
/// analytic models as the grid is refined, at the device level and
/// through an inverter's DC transfer.
pub fn ablation_lut_resolution() -> Table {
    let mut t = Table::new(
        "Ablation A1",
        "LUT grid resolution vs device and circuit error",
        &[
            "grid",
            "step_mV",
            "worst_dev_err_pct",
            "inverter_vout_err_mV",
        ],
    );
    for n_pts in [25usize, 61, 121, 241, 481] {
        let (dev, inv) = lut_errors(n_pts);
        t.push_row(vec![
            format!("{n_pts}x{n_pts}"),
            format!("{:.1}", 2400.0 / (n_pts - 1) as f64),
            format!("{:.2}", dev * 100.0),
            format!("{:.2}", inv * 1e3),
        ]);
    }
    t.note("the paper's 10 mV-class tables (241x241) keep device error under 0.1% and circuit error sub-mV");
    t
}

/// Ablation A2: fixed-step convergence of the DRNM metric in the time step
/// (backward Euler), against a 0.5 ps reference.
pub fn ablation_integrator() -> Table {
    let mut t = Table::new(
        "Ablation A2",
        "time-step convergence of the DRNM metric (backward Euler)",
        &["dt_ps", "drnm_mV", "delta_vs_finest_mV"],
    );
    let steps = [8.0, 4.0, 2.0, 1.0, 0.5];
    let drnms: Vec<f64> = steps
        .iter()
        .map(|&dt_ps| {
            let mut p = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
            // Fixed steps: adaptive stepping would re-discretize each run
            // and hide the dt axis.
            p.sim.stepping = SteppingMode::Fixed;
            p.sim.dt = dt_ps * 1e-12;
            read_metrics(&p, Some(ReadAssist::GndLowering))
                .expect("read")
                .drnm
        })
        .collect();
    let finest = drnms[drnms.len() - 1];
    for (dt_ps, drnm) in steps.iter().zip(&drnms) {
        t.push_row(vec![
            format!("{dt_ps:.1}"),
            mv(*drnm),
            format!("{:+.2}", (drnm - finest) * 1e3),
        ]);
    }
    t.note("the production 1-2 ps steps sit 1-3 mV (under 0.5%) below the 0.5 ps reference");
    t
}

/// Ablation A3: the paper's fixed 30 % assist level swept from 10 % to
/// 50 % of V_DD, for the read (GND lowering) and write (GND raising)
/// techniques it selects.
pub fn ablation_assist_level() -> Table {
    let mut t = Table::new(
        "Ablation A3",
        "assist level sweep (fraction of VDD)",
        &["fraction", "drnm_gnd_lower_mV", "wlcrit_gnd_raise_ps"],
    );
    for frac in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let mut ra_cell = inp_cell(0.6);
        ra_cell.sim.assist_fraction = frac;
        let drnm = read_metrics(&ra_cell, Some(ReadAssist::GndLowering))
            .expect("read")
            .drnm;
        let mut wa_cell = inp_cell(2.0);
        wa_cell.sim.assist_fraction = frac;
        wa_cell.sim.max_pulse = 12e-9;
        let wl = wl_crit(&wa_cell, Some(WriteAssist::GndRaising)).expect("wl");
        t.push_row(vec![format!("{frac:.1}"), mv(drnm), wl_cell(wl)]);
    }
    t.note("more assist -> larger DRNM at every level; WL_crit shortens up to 30% and lengthens again beyond it");
    t
}

/// Ablation A4: hold static power of the proposed and CMOS cells over the
/// operating-temperature range.
pub fn ablation_temperature() -> Table {
    let mut t = Table::new(
        "Ablation A4",
        "hold static power vs temperature (VDD = 0.8 V)",
        &["temp_K", "tfet_W", "cmos_W", "gap_orders"],
    );
    for temp in [250.0, 300.0, 350.0, 400.0] {
        let tfet = static_power(
            &CellParams::tfet6t(AccessConfig::InwardP)
                .with_beta(0.6)
                .with_temperature(temp),
        )
        .expect("tfet hold");
        let cmos = static_power(&CellParams::cmos6t().with_beta(1.5).with_temperature(temp))
            .expect("cmos hold");
        t.push_row(vec![
            format!("{temp:.0}"),
            sci(tfet),
            sci(cmos),
            format!("{:.1}", (cmos / tfet).log10()),
        ]);
    }
    t.note("band-to-band tunneling is temperature-flat; thermionic subthreshold is not — the TFET's leakage advantage grows with temperature");
    t
}

/// Ablation A5: classical static SNMs next to the paper's dynamic DRNM on
/// the same cells — the §3 methodology argument in numbers.
pub fn ablation_static_vs_dynamic() -> Table {
    let mut t = Table::new(
        "Ablation A5",
        "static read SNM vs dynamic DRNM across beta (no assists)",
        &[
            "beta",
            "hold_snm_mV",
            "read_snm_mV",
            "drnm_mV",
            "dynamic_advantage_mV",
        ],
    );
    for beta in [0.6, 1.0, 1.5, 2.0] {
        let mut p = CellParams::tfet6t(AccessConfig::InwardP).with_beta(beta);
        p.sim.dt = 2e-12;
        let hold = static_noise_margin(&p, SnmCondition::Hold).expect("hold SNM");
        let read = static_noise_margin(&p, SnmCondition::Read).expect("read SNM");
        let drnm = read_metrics(&p, None).expect("read").drnm;
        t.push_row(vec![
            format!("{beta:.1}"),
            mv(hold),
            mv(read),
            mv(drnm),
            mv(drnm - read),
        ]);
    }
    t.note("the paper's §3 argument: static margins understate read stability; the dynamic margin credits the finite disturb duration");
    t
}

/// Ablation A6: the data-retention voltage of the proposed and CMOS cells
/// (the lowest standby supply with a positive hold SNM).
pub fn ablation_retention() -> Table {
    let mut t = Table::new(
        "Ablation A6",
        "data-retention voltage (standby VDD floor)",
        &["cell", "drv_V"],
    );
    for (label, params) in [
        (
            "6T inpTFET beta=0.6",
            CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6),
        ),
        ("6T CMOS beta=1.5", CellParams::cmos6t().with_beta(1.5)),
    ] {
        let drv = data_retention_voltage(&params).expect("DRV");
        t.push_row(vec![
            label.to_string(),
            drv.map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| format!("< {:.3}", CellParams::VDD_MIN)),
        ]);
    }
    t.note("standby-VDD scaling multiplies the paper's static-power savings; hold power falls superlinearly toward the DRV");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig02a_has_iv_rows_and_calibration_note() {
        let t = fig02a();
        assert_eq!(t.rows.len(), 21);
        assert!(t.notes[0].contains("I_on"));
        assert!(!t.render().is_empty());
        assert!(t.to_csv().contains("vgs_V"));
    }

    #[test]
    fn fig02b_shows_gate_control_loss() {
        let t = fig02b();
        assert_eq!(t.rows.len(), 11);
        assert!(t.notes[0].contains("gate control lost"));
    }

    #[test]
    fn fig04_small_grid_reproduces_shape() {
        let t = fig04(&[0.6, 2.0]);
        assert_eq!(t.rows.len(), 2);
        // inward-n infinite everywhere.
        assert!(t
            .notes
            .iter()
            .any(|n| n.contains("infinite at every beta: true")));
    }

    #[test]
    fn table_area_has_four_designs() {
        let t = table_area();
        assert_eq!(t.rows.len(), 4);
        // 7T is the largest.
        let rel: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[2].parse::<f64>().unwrap())
            .collect();
        let seven = t.rows.iter().position(|r| r[0].contains("7T")).unwrap();
        assert!(rel.iter().all(|&x| x <= rel[seven]));
    }

    #[test]
    fn lut_ablation_measures_a_nonzero_error() {
        // A probe on a grid node reads the table exactly, and a mid-rail
        // inverter input cancels the n and p tables' errors: either would
        // report zero error at any density.
        assert!(lut_errors(25).1 > 0.0, "inverter error at 25x25");
        assert!(lut_errors(241).0 > 0.0, "device error at 241x241");
    }

    #[test]
    fn table_rendering_aligns() {
        let mut t = Table::new("X", "test", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.note("note");
        let s = t.render();
        assert!(s.contains("== X — test =="));
        assert!(s.contains("# note"));
    }
}
