//! Gate-oxide-thickness process variation (paper §4.3).
//!
//! The paper restricts process variation to the gate-insulator thickness,
//! controlled to within ±5 %, arguing (with [Saurabh, TDMR'11]) that channel
//! length variation has negligible effect on TFETs and that random dopant
//! fluctuation is limited by the near-intrinsic channel. This module maps a
//! relative thickness draw onto perturbed model parameters:
//!
//! * **TFET** — a thicker insulator weakens the gate-to-tunnel-junction
//!   coupling, which (i) scales the Kane exponential factor up
//!   (`b_kane ∝ (t_ox/t_ox,nom)^½` to first order in the field dilution) and
//!   (ii) shifts the onset voltage slightly. This reproduces the dominant
//!   I_on sensitivity the TFET variability literature reports (~3 %/% t_ox).
//! * **MOSFET** — oxide thickness scales the specific current inversely
//!   (`C'_ox` dilution) and shifts the threshold.

use crate::mosfet::MosfetParams;
use crate::tfet::TfetParams;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A process parameter outside the validity range of the perturbative
/// variation model.
///
/// Scaled-sigma sampling deliberately pushes draws far into the tails; a
/// draw past the model's validity range is an expected, recoverable event
/// there — it must surface as a typed error the Monte-Carlo layer can
/// quarantine per-sample, never as a panic that poisons a worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationError {
    /// Which process parameter was out of range.
    pub parameter: &'static str,
    /// The offending value.
    pub value: f64,
    /// The symmetric validity bound: valid values satisfy `|value| < bound`.
    pub bound: f64,
}

impl fmt::Display for VariationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} deviation {} outside the perturbative range (|x| < {})",
            self.parameter, self.value, self.bound
        )
    }
}

impl std::error::Error for VariationError {}

/// Validity bound on relative t_ox deviation: `|dev| < 0.5`.
pub const TOX_DEVIATION_BOUND: f64 = 0.5;
/// Validity bound on additive threshold/onset shift: `|ΔV| < 0.3` V.
pub const VTH_SHIFT_BOUND: f64 = 0.3;
/// Validity bound on relative drive-strength (W/L) deviation: `|dev| < 0.5`.
pub const DRIVE_DEVIATION_BOUND: f64 = 0.5;

fn check_bound(parameter: &'static str, value: f64, bound: f64) -> Result<(), VariationError> {
    if value.is_finite() && value.abs() < bound {
        Ok(())
    } else {
        Err(VariationError {
            parameter,
            value,
            bound,
        })
    }
}

/// A sampled process point: relative gate-oxide thickness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessVariation {
    /// `t_ox / t_ox,nominal`; 1.0 is the nominal process.
    pub tox_ratio: f64,
}

impl ProcessVariation {
    /// The nominal (unperturbed) process point.
    pub fn nominal() -> Self {
        ProcessVariation { tox_ratio: 1.0 }
    }

    /// Creates a variation from a relative thickness deviation, e.g.
    /// `try_from_deviation(0.05)` for +5 %. Returns a typed
    /// [`VariationError`] when the deviation is outside the perturbative
    /// range `(-0.5, 0.5)` — the model is a small-signal perturbation, not
    /// valid for gross thickness changes — so per-sample draws can be
    /// quarantined rather than killing a worker thread.
    pub fn try_from_deviation(dev: f64) -> Result<Self, VariationError> {
        check_bound("t_ox", dev, TOX_DEVIATION_BOUND)?;
        Ok(ProcessVariation {
            tox_ratio: 1.0 + dev,
        })
    }

    /// Relative deviation `t_ox/t_nom − 1`.
    pub fn deviation(&self) -> f64 {
        self.tox_ratio - 1.0
    }

    /// Applies the variation to a TFET parameter set.
    pub fn apply_tfet(&self, nominal: &TfetParams) -> TfetParams {
        let mut p = *nominal;
        // Field dilution: the tunneling field scales like the gate coupling,
        // so the exponent B/F grows with sqrt of the thickness ratio.
        p.b_kane = nominal.b_kane * self.tox_ratio.sqrt();
        // Weak electrostatic onset shift: 0.2 V per unit relative deviation
        // (10 mV at the ±5 % corner).
        p.v_onset = nominal.v_onset + 0.2 * self.deviation();
        p
    }

    /// Applies the variation to a MOSFET parameter set.
    pub fn apply_mosfet(&self, nominal: &MosfetParams) -> MosfetParams {
        let mut p = *nominal;
        // I_spec ∝ C'_ox ∝ 1/t_ox.
        p.i_spec = nominal.i_spec / self.tox_ratio;
        // Threshold shift with oxide thickness (depletion-charge term).
        p.v_th = nominal.v_th + 0.1 * self.deviation();
        p
    }
}

impl Default for ProcessVariation {
    fn default() -> Self {
        ProcessVariation::nominal()
    }
}

/// A multi-factor process point: gate-oxide thickness plus the Vth-mismatch
/// and geometry (drive-strength) factors the CMOS SRAM variability
/// literature treats as the dominant failure drivers.
///
/// The paper's §4.3 model is t_ox-only; [`ProcessPoint`] generalizes it for
/// rare-event yield studies while keeping the t_ox-only path untouched — a
/// point with `vth_shift == 0` and `drive_ratio == 1` applies *exactly* the
/// same parameter perturbation as its [`ProcessVariation`] alone, so the
/// paper-faithful default stays bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessPoint {
    /// Gate-oxide thickness variation (the paper's §4.3 factor).
    pub tox: ProcessVariation,
    /// Additive threshold/onset shift in volts (random dopant fluctuation
    /// and work-function mismatch; also carries the common-mode image of a
    /// supply droop).
    pub vth_shift: f64,
    /// Multiplicative drive-strength ratio (W/L geometry mismatch); 1.0 is
    /// nominal.
    pub drive_ratio: f64,
}

impl ProcessPoint {
    /// The nominal (unperturbed) process point.
    pub fn nominal() -> Self {
        ProcessPoint {
            tox: ProcessVariation::nominal(),
            vth_shift: 0.0,
            drive_ratio: 1.0,
        }
    }

    /// Builds a process point from raw factor deviations, validating every
    /// factor against its perturbative bound: t_ox and drive deviations are
    /// relative (`|dev| < 0.5`), the threshold shift is absolute volts
    /// (`|ΔV| < 0.3`).
    ///
    /// Returns a typed [`VariationError`] naming the first offending factor;
    /// scaled-sigma studies route that error into their per-sample
    /// quarantine path.
    pub fn try_new(tox_dev: f64, vth_shift: f64, drive_dev: f64) -> Result<Self, VariationError> {
        let tox = ProcessVariation::try_from_deviation(tox_dev)?;
        check_bound("vth", vth_shift, VTH_SHIFT_BOUND)?;
        check_bound("drive", drive_dev, DRIVE_DEVIATION_BOUND)?;
        Ok(ProcessPoint {
            tox,
            vth_shift,
            drive_ratio: 1.0 + drive_dev,
        })
    }

    /// `true` when the point is exactly nominal.
    pub fn is_nominal(&self) -> bool {
        *self == ProcessPoint::nominal()
    }

    /// Applies all factors to a TFET parameter set: the t_ox mapping first,
    /// then the onset shift and the drive-strength scale on the Kane
    /// pre-factor (I_on ∝ A_kane to first order).
    pub fn apply_tfet(&self, nominal: &TfetParams) -> TfetParams {
        let mut p = self.tox.apply_tfet(nominal);
        p.v_onset += self.vth_shift;
        p.a_kane *= self.drive_ratio;
        p
    }

    /// Applies all factors to a MOSFET parameter set: the t_ox mapping, then
    /// the threshold shift and the drive-strength scale on the specific
    /// current (I_spec ∝ W/L).
    pub fn apply_mosfet(&self, nominal: &MosfetParams) -> MosfetParams {
        let mut p = self.tox.apply_mosfet(nominal);
        p.v_th += self.vth_shift;
        p.i_spec *= self.drive_ratio;
        p
    }
}

impl Default for ProcessPoint {
    fn default() -> Self {
        ProcessPoint::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DeviceModel;
    use crate::mosfet::Nmos;
    use crate::tfet::NTfet;

    #[test]
    fn nominal_variation_is_identity() {
        let v = ProcessVariation::nominal();
        let t = TfetParams::nominal();
        assert_eq!(v.apply_tfet(&t), t);
        let m = MosfetParams::nominal_32nm_lp();
        assert_eq!(v.apply_mosfet(&m), m);
    }

    #[test]
    fn thicker_oxide_weakens_tfet_on_current() {
        let nom = NTfet::nominal();
        let thick = NTfet::new(
            ProcessVariation::try_from_deviation(0.05)
                .unwrap()
                .apply_tfet(&TfetParams::nominal()),
        );
        let thin = NTfet::new(
            ProcessVariation::try_from_deviation(-0.05)
                .unwrap()
                .apply_tfet(&TfetParams::nominal()),
        );
        let i_nom = nom.ids_per_um(0.8, 0.8, 0.0);
        let i_thick = thick.ids_per_um(0.8, 0.8, 0.0);
        let i_thin = thin.ids_per_um(0.8, 0.8, 0.0);
        assert!(i_thick < i_nom && i_nom < i_thin);
        // The ±5 % corner should move the on-current by single-digit to
        // low-double-digit percent — enough to spread WL_crit visibly but
        // not to break the device.
        let swing = (i_thin - i_thick) / i_nom;
        assert!((0.02..0.8).contains(&swing), "on-current swing {swing}");
    }

    #[test]
    fn thicker_oxide_weakens_mosfet() {
        let nom = Nmos::nominal();
        let thick = Nmos::new(
            ProcessVariation::try_from_deviation(0.05)
                .unwrap()
                .apply_mosfet(&MosfetParams::nominal_32nm_lp()),
        );
        assert!(thick.ids_per_um(0.8, 0.8, 0.0) < nom.ids_per_um(0.8, 0.8, 0.0));
    }

    #[test]
    #[should_panic(expected = "perturbative")]
    fn gross_deviation_rejected() {
        // A caller that cannot proceed surfaces the error's message.
        ProcessVariation::try_from_deviation(0.9).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn deviation_roundtrip() {
        let v = ProcessVariation::try_from_deviation(0.03).unwrap();
        assert!((v.deviation() - 0.03).abs() < 1e-15);
    }

    #[test]
    fn try_from_deviation_returns_typed_error() {
        let e = ProcessVariation::try_from_deviation(0.9).unwrap_err();
        assert_eq!(e.parameter, "t_ox");
        assert_eq!(e.value, 0.9);
        assert_eq!(e.bound, TOX_DEVIATION_BOUND);
        assert!(format!("{e}").contains("perturbative"));
        assert!(ProcessVariation::try_from_deviation(f64::NAN).is_err());
        assert!(ProcessVariation::try_from_deviation(0.05).is_ok());
    }

    #[test]
    fn nominal_process_point_is_identity() {
        let p = ProcessPoint::nominal();
        assert!(p.is_nominal());
        let t = TfetParams::nominal();
        assert_eq!(p.apply_tfet(&t), t);
        let m = MosfetParams::nominal_32nm_lp();
        assert_eq!(p.apply_mosfet(&m), m);
    }

    #[test]
    fn tox_only_point_matches_process_variation_exactly() {
        // The multi-factor point with neutral vth/drive must be bit-identical
        // to the paper's t_ox-only mapping — this is what keeps every
        // existing figure byte-stable when the factor model is off.
        let p = ProcessPoint::try_new(0.04, 0.0, 0.0).unwrap();
        let v = ProcessVariation::try_from_deviation(0.04).unwrap();
        assert_eq!(
            p.apply_tfet(&TfetParams::nominal()),
            v.apply_tfet(&TfetParams::nominal())
        );
        assert_eq!(
            p.apply_mosfet(&MosfetParams::nominal_32nm_lp()),
            v.apply_mosfet(&MosfetParams::nominal_32nm_lp())
        );
    }

    #[test]
    fn vth_shift_weakens_n_devices() {
        let nom = NTfet::nominal();
        let slow = NTfet::new(
            ProcessPoint::try_new(0.0, 0.05, 0.0)
                .unwrap()
                .apply_tfet(&TfetParams::nominal()),
        );
        assert!(slow.ids_per_um(0.8, 0.8, 0.0) < nom.ids_per_um(0.8, 0.8, 0.0));
        let m_nom = Nmos::nominal();
        let m_slow = Nmos::new(
            ProcessPoint::try_new(0.0, 0.05, 0.0)
                .unwrap()
                .apply_mosfet(&MosfetParams::nominal_32nm_lp()),
        );
        assert!(m_slow.ids_per_um(0.8, 0.8, 0.0) < m_nom.ids_per_um(0.8, 0.8, 0.0));
    }

    #[test]
    fn drive_ratio_scales_on_current() {
        let nom = NTfet::nominal();
        let strong = NTfet::new(
            ProcessPoint::try_new(0.0, 0.0, 0.2)
                .unwrap()
                .apply_tfet(&TfetParams::nominal()),
        );
        let i_nom = nom.ids_per_um(0.8, 0.8, 0.0);
        let i_strong = strong.ids_per_um(0.8, 0.8, 0.0);
        assert!(
            (i_strong / i_nom - 1.2).abs() < 0.05,
            "ratio {}",
            i_strong / i_nom
        );
    }

    #[test]
    fn process_point_rejects_each_factor_by_name() {
        assert_eq!(
            ProcessPoint::try_new(0.6, 0.0, 0.0).unwrap_err().parameter,
            "t_ox"
        );
        assert_eq!(
            ProcessPoint::try_new(0.0, 0.35, 0.0).unwrap_err().parameter,
            "vth"
        );
        assert_eq!(
            ProcessPoint::try_new(0.0, 0.0, -0.7).unwrap_err().parameter,
            "drive"
        );
    }
}
