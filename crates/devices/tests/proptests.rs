//! Property-based tests for the device models.
//!
//! These pin the *structural* invariants every compact model must satisfy
//! regardless of calibration: finiteness, continuity, polarity duality,
//! source-reference invariance, and the TFET's unidirectionality.

use proptest::prelude::*;
use tfet_devices::model::DeviceModel;
use tfet_devices::{LutDevice, NTfet, Nmos, PTfet, Pmos, ProcessVariation, TfetParams};

fn voltage() -> impl Strategy<Value = f64> {
    -1.5f64..1.5f64
}

/// Terminal voltages wide enough to reach the TFET's overdrive cut-off
/// (`v_gs ≲ −1 V`) and its diode clamp (`v_r > 60·n·V_T ≈ 1.6 V`).
fn wide_voltage() -> impl Strategy<Value = f64> {
    -2.5f64..2.5f64
}

/// The TFET parameter sets the fused linearization is pinned on: nominal,
/// hot, and a t_ox draw of `dev`.
fn tfet_corners(dev: f64) -> [TfetParams; 3] {
    let nominal = TfetParams::nominal();
    [
        nominal,
        nominal.at_temperature(350.0),
        ProcessVariation::try_from_deviation(dev)
            .unwrap()
            .apply_tfet(&nominal),
    ]
}

/// A coarse LUT: the default-method path of a non-analytic model.
fn coarse_lut() -> &'static LutDevice<NTfet> {
    static LUT: std::sync::OnceLock<LutDevice<NTfet>> = std::sync::OnceLock::new();
    LUT.get_or_init(|| LutDevice::compile(NTfet::nominal(), (-1.2, 1.2), 25, (-1.2, 1.2), 25))
}

/// `linearize_per_um` returns exactly the bits of `ids_per_um` and
/// `conductances_per_um` evaluated separately.
fn assert_fused_bits(m: &dyn DeviceModel, vg: f64, vd: f64, vs: f64) -> Result<(), TestCaseError> {
    let (i, gm, gds, gs) = m.linearize_per_um(vg, vd, vs);
    let (gm_s, gds_s, gs_s) = m.conductances_per_um(vg, vd, vs);
    let i_s = m.ids_per_um(vg, vd, vs);
    prop_assert_eq!(
        [i, gm, gds, gs].map(f64::to_bits),
        [i_s, gm_s, gds_s, gs_s].map(f64::to_bits),
        "{} at ({}, {}, {}): fused {:?} vs separate {:?}",
        m.name(),
        vg,
        vd,
        vs,
        (i, gm, gds, gs),
        (i_s, gm_s, gds_s, gs_s)
    );
    Ok(())
}

/// Every device model at `(vg, vd, vs)`: both TFET polarities at each
/// corner of [`tfet_corners`], and the MOSFETs and a LUT through the
/// trait's default method.
fn assert_all_fused_bits(vg: f64, vd: f64, vs: f64, dev: f64) -> Result<(), TestCaseError> {
    for p in tfet_corners(dev) {
        assert_fused_bits(&NTfet::new(p), vg, vd, vs)?;
        assert_fused_bits(&PTfet::new(p), vg, vd, vs)?;
    }
    assert_fused_bits(&Nmos::nominal(), vg, vd, vs)?;
    assert_fused_bits(&Pmos::nominal(), vg, vd, vs)?;
    assert_fused_bits(coarse_lut(), vg, vd, vs)
}

/// The fused linearization on each TFET branch, picked by hand so every
/// one is certainly visited: forward and reverse conduction, the overdrive
/// cut-off (the Kane term is exactly 0, so the current is the leakage
/// alone) and the diode clamp, for both polarities (the p-type mirrors the
/// bias).
#[test]
fn fused_linearization_is_bit_identical_on_every_branch() {
    let p = TfetParams::nominal();
    assert_eq!(
        NTfet::nominal().ids_per_um(-1.5, 0.5, 0.0),
        p.g_off * 0.5,
        "cut-off"
    );
    for p in tfet_corners(0.05) {
        assert!(
            2.0 / (p.n_diode * p.v_t()) > 60.0,
            "diode clamp at {} K",
            p.temp_k
        );
    }
    for (vg, vd, vs) in [
        (0.8, 0.8, 0.0),   // forward, on
        (0.3, 0.05, 0.0),  // forward, output onset
        (-1.5, 0.5, 0.0),  // forward, overdrive cut-off
        (0.0, -0.3, 0.0),  // reverse, ambipolar tunneling
        (-1.5, -0.4, 0.0), // reverse, cut-off
        (0.0, -2.0, 0.0),  // reverse, diode clamp
        (0.4, 0.0, 0.0),   // v_ds = 0
    ] {
        for sign in [1.0, -1.0] {
            assert_all_fused_bits(sign * vg, sign * vd, sign * vs, 0.03).unwrap();
        }
    }
}

proptest! {
    #[test]
    fn fused_linearization_is_bit_identical(
        vg in wide_voltage(),
        vd in wide_voltage(),
        vs in wide_voltage(),
        dev in -0.05f64..0.05,
    ) {
        assert_all_fused_bits(vg, vd, vs, dev)?;
    }

    #[test]
    fn ntfet_current_is_finite(vg in voltage(), vd in voltage(), vs in voltage()) {
        let t = NTfet::nominal();
        prop_assert!(t.ids_per_um(vg, vd, vs).is_finite());
    }

    #[test]
    fn nmos_current_is_finite(vg in voltage(), vd in voltage(), vs in voltage()) {
        let m = Nmos::nominal();
        prop_assert!(m.ids_per_um(vg, vd, vs).is_finite());
    }

    #[test]
    fn ntfet_shift_invariance(vg in voltage(), vd in voltage(), dv in -0.5f64..0.5) {
        // Current depends only on terminal differences.
        let t = NTfet::nominal();
        let a = t.ids_per_um(vg, vd, 0.0);
        let b = t.ids_per_um(vg + dv, vd + dv, dv);
        prop_assert!((a - b).abs() <= 1e-20 + 1e-9 * a.abs());
    }

    #[test]
    fn ptfet_duality(vg in voltage(), vd in voltage(), vs in voltage()) {
        let n = NTfet::nominal();
        let p = PTfet::nominal();
        let i_p = p.ids_per_um(vg, vd, vs);
        let i_n = n.ids_per_um(-vg, -vd, -vs);
        prop_assert!((i_p + i_n).abs() <= 1e-20 + 1e-9 * i_n.abs());
    }

    #[test]
    fn pmos_duality(vg in voltage(), vd in voltage(), vs in voltage()) {
        let n = Nmos::nominal();
        let p = Pmos::nominal();
        let i_p = p.ids_per_um(vg, vd, vs);
        let i_n = n.ids_per_um(-vg, -vd, -vs);
        prop_assert!((i_p + i_n).abs() <= 1e-20 + 1e-9 * i_n.abs());
    }

    #[test]
    fn mosfet_terminal_exchange_antisymmetry(vg in voltage(), va in voltage(), vb in voltage()) {
        // A MOSFET is symmetric: swapping source and drain negates the
        // current. (A TFET deliberately violates this.)
        let m = Nmos::nominal();
        let fwd = m.ids_per_um(vg, va, vb);
        let rev = m.ids_per_um(vg, vb, va);
        prop_assert!((fwd + rev).abs() <= 1e-20 + 1e-9 * fwd.abs());
    }

    #[test]
    fn tfet_forward_current_sign(vg in 0.0f64..1.2, vds in 0.0f64..1.2) {
        let t = NTfet::nominal();
        prop_assert!(t.ids_per_um(vg, vds, 0.0) >= 0.0);
    }

    #[test]
    fn tfet_reverse_current_sign(vg in 0.0f64..1.2, vds in 0.001f64..1.2) {
        let t = NTfet::nominal();
        prop_assert!(t.ids_per_um(vg, -vds, 0.0) <= 0.0);
    }

    #[test]
    fn tfet_monotone_in_vgs_forward(vg in 0.0f64..1.1, dv in 0.001f64..0.1, vds in 0.05f64..1.0) {
        let t = NTfet::nominal();
        let i1 = t.ids_per_um(vg, vds, 0.0);
        let i2 = t.ids_per_um(vg + dv, vds, 0.0);
        prop_assert!(i2 >= i1 * (1.0 - 1e-12));
    }

    #[test]
    fn tfet_monotone_in_vds_forward(vg in 0.2f64..1.2, vd in 0.0f64..1.0, dv in 0.001f64..0.2) {
        let t = NTfet::nominal();
        let i1 = t.ids_per_um(vg, vd, 0.0);
        let i2 = t.ids_per_um(vg, vd + dv, 0.0);
        prop_assert!(i2 >= i1 * (1.0 - 1e-12));
    }

    #[test]
    fn tfet_caps_positive_and_bounded(vg in voltage(), vd in voltage(), vs in voltage()) {
        let t = NTfet::nominal();
        let c = t.caps_per_um(vg, vd, vs);
        for v in [c.cgs, c.cgd, c.cdb, c.csb] {
            prop_assert!(v > 0.0 && v < 1e-13, "cap out of range: {v:e}");
        }
    }

    #[test]
    fn variation_is_monotone_in_tox(dev1 in -0.05f64..0.05, dev2 in -0.05f64..0.05) {
        // Thicker oxide never increases the on-current.
        let (lo, hi) = if dev1 <= dev2 { (dev1, dev2) } else { (dev2, dev1) };
        let thin = NTfet::new(ProcessVariation::try_from_deviation(lo).unwrap().apply_tfet(&TfetParams::nominal()));
        let thick = NTfet::new(ProcessVariation::try_from_deviation(hi).unwrap().apply_tfet(&TfetParams::nominal()));
        prop_assert!(thick.ids_per_um(0.8, 0.8, 0.0) <= thin.ids_per_um(0.8, 0.8, 0.0) * (1.0 + 1e-12));
    }

    #[test]
    fn lut_tracks_analytic_within_order_of_magnitude(
        vg in -1.0f64..1.0,
        vd in -1.0f64..1.0,
    ) {
        // The asinh (log-like) transform makes bilinear interpolation exact
        // for exponential I(V), but log I diverges in the output-onset strip
        // |v_ds| → 0 where I ∝ v_ds², so no table density fixes that corner
        // in *relative* terms (the absolute error there is negligible —
        // currents are near zero). The order-of-magnitude guarantee applies
        // outside the onset strip; the LUT ablation A1 quantifies both.
        prop_assume!(vd.abs() > 0.06);
        let analytic = NTfet::nominal();
        let lut = LutDevice::compile(analytic.clone(), (-1.2, 1.2), 121, (-1.2, 1.2), 121);
        let a = analytic.ids_per_um(vg, vd, 0.0);
        let l = lut.ids_per_um(vg, vd, 0.0);
        // Same sign (or both negligible)...
        prop_assert!(a * l >= 0.0 || a.abs().max(l.abs()) < 1e-16);
        // ...and same order of magnitude when measurable.
        if a.abs() > 1e-16 {
            prop_assert!((a / l).abs().log10().abs() < 1.0, "{a:e} vs {l:e} at ({vg},{vd})");
        }
    }

    #[test]
    fn finite_difference_conductances_are_finite(vg in voltage(), vd in voltage(), vs in voltage()) {
        let t = NTfet::nominal();
        prop_assert!(t.gm_per_um(vg, vd, vs).is_finite());
        prop_assert!(t.gds_per_um(vg, vd, vs).is_finite());
        prop_assert!(t.gs_per_um(vg, vd, vs).is_finite());
    }
}
