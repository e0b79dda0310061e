//! Lookup-table compiled devices — the paper's own modeling methodology.
//!
//! The paper extracts I-V and C-V surfaces from TCAD into two-dimensional
//! lookup tables consumed by a Verilog-A wrapper, "an efficient and accurate
//! way to model emerging devices" in the absence of a compact model.
//! [`LutDevice`] reproduces that flow: it samples any [`DeviceModel`] on a
//! `(v_gs, v_ds)` grid and serves bilinear-interpolated currents.
//!
//! Currents span 13+ decades, so raw bilinear interpolation would be wildly
//! inaccurate near the off state. The table therefore stores
//! `asinh(I / I_SCALE)` — logarithmic for large magnitudes, linear (and
//! sign-preserving) through zero — and inverts with `sinh` on lookup. The
//! LUT-resolution ablation A1 quantifies the residual error.

use crate::model::{Caps, DeviceKind, DeviceModel, Polarity};
use tfet_numerics::Lut2d;

/// Current scale of the `asinh` transform, A/µm. Chosen at the model's
/// numerical noise floor so sub-femtoampere structure still interpolates
/// smoothly.
const I_SCALE: f64 = 1e-18;

/// A device model compiled to a two-dimensional I-V lookup table.
///
/// Capacitances and metadata are forwarded to the source model (the paper
/// stores C-V in tables as well; capacitances here are smooth and cheap, so
/// tabulating them would only add error).
///
/// # Examples
///
/// ```
/// use tfet_devices::{LutDevice, NTfet, DeviceModel};
///
/// let analytic = NTfet::nominal();
/// let lut = LutDevice::compile(analytic.clone(), (-0.2, 1.2), 141, (-1.2, 1.2), 241);
/// let (va, vl) = (
///     analytic.ids_per_um(0.8, 0.8, 0.0),
///     lut.ids_per_um(0.8, 0.8, 0.0),
/// );
/// assert!((va - vl).abs() / va < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct LutDevice<M> {
    source: M,
    table: Lut2d,
    name: String,
}

impl<M: DeviceModel> LutDevice<M> {
    /// Samples `source` on an `n_gs × n_ds` grid over the given `v_gs` and
    /// `v_ds` ranges and builds the interpolating table.
    ///
    /// # Panics
    ///
    /// Panics if a grid axis has fewer than 2 points or a range is empty.
    pub fn compile(
        source: M,
        vgs_range: (f64, f64),
        n_gs: usize,
        vds_range: (f64, f64),
        n_ds: usize,
    ) -> Self {
        let name = format!("{}-lut", source.name());
        let table = Lut2d::tabulate(vgs_range, n_gs, vds_range, n_ds, |vgs, vds| {
            (source.ids_per_um(vgs, vds, 0.0) / I_SCALE).asinh()
        });
        LutDevice {
            source,
            table,
            name,
        }
    }

    /// Compiles with the default grid used throughout the workspace:
    /// V_GS ∈ [−1.2, 1.2] (241 points), V_DS ∈ [−1.2, 1.2] (241 points) —
    /// 10 mV resolution, mirroring the paper's table density.
    pub fn compile_default(source: M) -> Self {
        LutDevice::compile(source, (-1.2, 1.2), 241, (-1.2, 1.2), 241)
    }

    /// The wrapped analytic model.
    pub fn source(&self) -> &M {
        &self.source
    }

    /// Number of stored samples.
    pub fn sample_count(&self) -> usize {
        self.table.x_axis().len() * self.table.y_axis().len()
    }
}

impl<M: DeviceModel> DeviceModel for LutDevice<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn polarity(&self) -> Polarity {
        self.source.polarity()
    }

    fn kind(&self) -> DeviceKind {
        self.source.kind()
    }

    fn ids_per_um(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        let t = self.table.eval(vg - vs, vd - vs);
        t.sinh() * I_SCALE
    }

    fn conductances_per_um(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64) {
        // Analytic derivatives of the interpolant itself, replacing the
        // default trait implementation's three central finite differences
        // (six extra table evaluations per Newton stamp). With the stored
        // transform t(x, y) = asinh(I/I₀) at x = v_gs, y = v_ds:
        //   I = I₀·sinh t  ⇒  ∂I/∂x = I₀·cosh t · ∂t/∂x  (and likewise y).
        // The model is source-referenced, so g_s = −(g_m + g_ds).
        let (x, y) = (vg - vs, vd - vs);
        let t = self.table.eval(x, y);
        let scale = t.cosh() * I_SCALE;
        let gm = scale * self.table.d_dx(x, y);
        let gds = scale * self.table.d_dy(x, y);
        (gm, gds, -(gm + gds))
    }

    fn caps_per_um(&self, vg: f64, vd: f64, vs: f64) -> Caps {
        self.source.caps_per_um(vg, vd, vs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::Nmos;
    use crate::tfet::{NTfet, PTfet};

    /// Relative error between analytic and LUT current, guarded against
    /// division by ~zero with an absolute floor.
    fn rel_err(a: f64, b: f64) -> f64 {
        (a - b).abs() / a.abs().max(1e-18)
    }

    #[test]
    fn lut_matches_analytic_on_grid_nodes() {
        let analytic = NTfet::nominal();
        let lut = LutDevice::compile(analytic.clone(), (0.0, 1.0), 11, (0.0, 1.0), 11);
        // Node (0.5, 0.5) is on the grid: agreement should be to rounding.
        let a = analytic.ids_per_um(0.5, 0.5, 0.0);
        let l = lut.ids_per_um(0.5, 0.5, 0.0);
        assert!(rel_err(a, l) < 1e-9, "{a:e} vs {l:e}");
    }

    #[test]
    fn default_grid_interpolates_within_five_percent_in_on_region() {
        let analytic = NTfet::nominal();
        let lut = LutDevice::compile_default(analytic.clone());
        for &(vg, vd) in &[(0.8, 0.8), (0.6, 0.4), (0.73, 0.61), (1.0, 0.15)] {
            let a = analytic.ids_per_um(vg, vd, 0.0);
            let l = lut.ids_per_um(vg, vd, 0.0);
            assert!(rel_err(a, l) < 0.05, "({vg},{vd}): {a:e} vs {l:e}");
        }
    }

    #[test]
    fn lut_preserves_off_current_order_of_magnitude() {
        let analytic = NTfet::nominal();
        let lut = LutDevice::compile_default(analytic.clone());
        let a = analytic.ids_per_um(0.0, 1.0, 0.0);
        let l = lut.ids_per_um(0.0, 1.0, 0.0);
        assert!((a / l).abs().log10().abs() < 1.0, "{a:e} vs {l:e}");
    }

    #[test]
    fn lut_preserves_reverse_branch_sign_and_magnitude() {
        let analytic = NTfet::nominal();
        let lut = LutDevice::compile_default(analytic.clone());
        let a = analytic.ids_per_um(0.5, -0.8, 0.0);
        let l = lut.ids_per_um(0.5, -0.8, 0.0);
        assert!(a < 0.0 && l < 0.0);
        assert!((a / l).log10().abs() < 0.5, "{a:e} vs {l:e}");
    }

    #[test]
    fn lut_source_referenced_shift_invariance() {
        // ids depends only on (vg−vs, vd−vs); the LUT must honour that.
        let lut = LutDevice::compile_default(NTfet::nominal());
        let i1 = lut.ids_per_um(0.8, 0.8, 0.0);
        let i2 = lut.ids_per_um(1.0, 1.0, 0.2);
        assert!(rel_err(i1, i2) < 1e-12);
    }

    #[test]
    fn finer_grids_reduce_error() {
        let analytic = NTfet::nominal();
        let coarse = LutDevice::compile(analytic.clone(), (0.0, 1.2), 13, (0.0, 1.2), 13);
        let fine = LutDevice::compile(analytic.clone(), (0.0, 1.2), 241, (0.0, 1.2), 241);
        let mut err_coarse = 0.0f64;
        let mut err_fine = 0.0f64;
        for &(vg, vd) in &[(0.33, 0.47), (0.55, 0.81), (0.72, 0.29)] {
            let a = analytic.ids_per_um(vg, vd, 0.0);
            err_coarse = err_coarse.max(rel_err(a, coarse.ids_per_um(vg, vd, 0.0)));
            err_fine = err_fine.max(rel_err(a, fine.ids_per_um(vg, vd, 0.0)));
        }
        assert!(err_fine < err_coarse, "{err_fine} !< {err_coarse}");
    }

    #[test]
    fn works_for_p_type_and_mosfet_sources() {
        let p = LutDevice::compile_default(PTfet::nominal());
        assert!(p.ids_per_um(0.0, 0.0, 0.8) < -1e-7);
        assert_eq!(p.polarity(), Polarity::P);

        let m = LutDevice::compile_default(Nmos::nominal());
        assert!(m.ids_per_um(0.8, 0.8, 0.0) > 1e-6);
        assert_eq!(m.kind(), DeviceKind::Mosfet);
    }

    #[test]
    fn analytic_conductances_match_finite_difference_of_lut() {
        // Off-grid points (the bilinear interpolant is smooth inside a cell,
        // so central differences there are exact up to rounding).
        let lut = LutDevice::compile_default(NTfet::nominal());
        let h = 1e-5;
        for &(vg, vd) in &[(0.553, 0.447), (0.806, 0.791), (0.304, -0.386)] {
            let (gm, gds, gs) = lut.conductances_per_um(vg, vd, 0.0);
            let fd_gm =
                (lut.ids_per_um(vg + h, vd, 0.0) - lut.ids_per_um(vg - h, vd, 0.0)) / (2.0 * h);
            let fd_gds =
                (lut.ids_per_um(vg, vd + h, 0.0) - lut.ids_per_um(vg, vd - h, 0.0)) / (2.0 * h);
            let tol = |g: f64| 1e-5 * g.abs().max(1e-12);
            assert!(
                (gm - fd_gm).abs() < tol(fd_gm),
                "({vg},{vd}): gm {gm:e} vs {fd_gm:e}"
            );
            assert!(
                (gds - fd_gds).abs() < tol(fd_gds),
                "({vg},{vd}): gds {gds:e} vs {fd_gds:e}"
            );
            assert!((gs + gm + gds).abs() < 1e-18);
        }
    }

    #[test]
    fn metadata_forwarding() {
        let lut = LutDevice::compile_default(NTfet::nominal());
        assert_eq!(lut.name(), "ntfet-lut");
        assert_eq!(lut.sample_count(), 241 * 241);
        assert!(lut.caps_per_um(0.8, 0.0, 0.0).gate_total() > 0.0);
    }
}
