//! Analytical compact model of the paper's 32 nm Si tunneling FET.
//!
//! # Physics captured
//!
//! A TFET is a gated p-i-n diode. For the n-type device (p⁺ source, n⁺
//! drain, near-intrinsic channel):
//!
//! * **Forward branch** (`v_ds ≥ 0`, conduction drain→source): the gate pulls
//!   the channel conduction band below the source valence band and carriers
//!   tunnel band-to-band. We model the tunneling generation with the Kane
//!   form `I ∝ F² · exp(−B/F)` driven by an effective junction field
//!   proportional to the smoothed gate overdrive, times a super-linear
//!   drain-saturation factor. This produces the sub-60 mV/dec swing and the
//!   13-decade on/off ratio the paper quotes (I_on = 1e-4 A/µm,
//!   I_off = 1e-17 A/µm at V_DS = 1 V).
//! * **Reverse branch** (`v_ds < 0`): the p-i-n body diode becomes forward
//!   biased. At small |V_DS| a residual gate-modulated (ambipolar) tunneling
//!   term dominates — the gate still has some control (paper Fig. 2b, low
//!   V_DS curves). At |V_DS| ≳ 0.6 V the exponential diode current takes
//!   over and the gate loses control entirely; by |V_DS| = 1 V the reverse
//!   current is within an order of magnitude of the forward on-current.
//!   This branch is what makes *outward* SRAM access transistors leak
//!   catastrophically during hold (§3 of the paper).
//!
//! Both branches and their first derivatives are continuous at `v_ds = 0`,
//! which the Newton solver requires.
//!
//! The default calibration ([`TfetParams::nominal`]) reproduces the paper's
//! headline figures; see `calibration.rs` tests for the pinned targets.

use crate::consts::{
    lim_exp, lim_exp_deriv, softplus, softplus_deriv, C_GATE_PER_UM, K_B, Q, TEMPERATURE,
};
use crate::model::{Caps, DeviceKind, DeviceModel, DualOf, Polarity};
use serde::{Deserialize, Serialize};

/// Parameter set for the analytical TFET model (n-type reference frame).
///
/// Construct via [`TfetParams::nominal`] and adjust fields as needed; all
/// fields are public because the struct is a passive parameter record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TfetParams {
    /// Kane prefactor, A/µm. Sets the absolute on-current scale.
    pub a_kane: f64,
    /// Kane exponential factor, V. Sets the swing steepness and on/off ratio.
    pub b_kane: f64,
    /// Gate work-function-tuned onset voltage, V: gate bias at which band
    /// overlap begins. The paper tunes the work function to hit its I_on /
    /// I_off targets; this is the equivalent knob.
    pub v_onset: f64,
    /// Smoothing width of the onset transition, V.
    pub w_onset: f64,
    /// Drain-to-channel electrostatic coupling (DIBL-like feed of V_DS into
    /// the tunneling field), dimensionless.
    pub gamma_d: f64,
    /// Drain-saturation voltage scale of the output characteristic, V.
    pub v_sat: f64,
    /// Exponent of the super-linear output-onset factor (TFETs show delayed
    /// saturation; 2 gives the characteristic quadratic onset).
    pub m_sat: f64,
    /// Off-state leakage conductance, S/µm. Pinned so the off current is
    /// 1e-17 A/µm at V_DS = 1 V (paper's TCAD result).
    pub g_off: f64,
    /// Reverse p-i-n diode saturation current, A/µm.
    pub i_s_diode: f64,
    /// Reverse diode ideality factor.
    pub n_diode: f64,
    /// Ambipolar (reverse gated-tunneling) current ratio relative to the
    /// forward branch, dimensionless.
    pub r_ambipolar: f64,
    /// Quench voltage of the ambipolar branch, V: under strong reverse bias
    /// the forward-biased p-i-n floods the channel with injected carriers
    /// and the gate's electrostatic control collapses exponentially on this
    /// scale (paper Fig. 2b: gate control at |V_DS| ≤ 0.4 V, none at 1 V).
    pub v_amb_quench: f64,
    /// Fraction of the channel capacitance assigned to the drain in the
    /// on-state (TFET inversion charge connects to the drain, so > 0.5).
    pub miller_skew: f64,
    /// Drain/source junction (diffusion + contact) capacitance to the
    /// substrate, F/µm.
    pub c_junction: f64,
    /// Gate-to-drain/source overlap fringe capacitance, F/µm.
    pub c_overlap: f64,
    /// Device temperature, K. Band-to-band tunneling is nearly
    /// temperature-independent (weak bandgap narrowing only) — the TFET's
    /// second headline advantage over thermionic MOSFETs — while the p-i-n
    /// body diode's saturation current carries the full `T³·exp(−E_g/kT)`
    /// dependence.
    pub temp_k: f64,
}

impl TfetParams {
    /// The nominal calibration matching the paper's device (§2):
    /// I_on = 1e-4 A/µm and I_off = 1e-17 A/µm at V_GS = V_DS = 1 V, minimum
    /// subthreshold swing below 60 mV/dec, reverse-bias gate-control loss
    /// above |V_DS| ≈ 0.6 V.
    pub fn nominal() -> Self {
        TfetParams {
            a_kane: 1.35e-3,
            b_kane: 2.6,
            v_onset: 0.04,
            w_onset: 0.03,
            gamma_d: 0.045,
            v_sat: 0.10,
            m_sat: 2.0,
            g_off: 1.0e-17,
            i_s_diode: 1.0e-20,
            n_diode: 1.0,
            r_ambipolar: 0.3,
            v_amb_quench: 0.2,
            miller_skew: 0.55,
            c_junction: 0.10 * C_GATE_PER_UM,
            c_overlap: 0.04 * C_GATE_PER_UM,
            temp_k: TEMPERATURE,
        }
    }

    /// The same calibration evaluated at a different temperature (builder
    /// style).
    pub fn at_temperature(mut self, temp_k: f64) -> Self {
        assert!(
            (200.0..=450.0).contains(&temp_k),
            "temperature {temp_k} K outside the model's validated range"
        );
        self.temp_k = temp_k;
        self
    }

    /// Thermal voltage kT/q at the device temperature, V.
    pub fn v_t(&self) -> f64 {
        K_B * self.temp_k / Q
    }

    /// Temperature factor on the tunneling generation: weak bandgap
    /// narrowing only, ≈ +4e-4 per kelvin — the physical basis of the
    /// TFET's flat leakage-vs-temperature behaviour.
    fn kane_temp_factor(&self) -> f64 {
        1.0 + 4.0e-4 * (self.temp_k - TEMPERATURE)
    }

    /// Temperature-scaled diode saturation current:
    /// `i_s ∝ T³ · exp(−E_g/kT)` referenced to 300 K (silicon E_g ≈ 1.12 eV).
    fn i_s_diode_t(&self) -> f64 {
        const EG_OVER_K: f64 = 1.12 * Q / K_B; // E_g/k_B in kelvin
        let t_ratio = self.temp_k / TEMPERATURE;
        self.i_s_diode
            * t_ratio.powi(3)
            * (-EG_OVER_K * (1.0 / self.temp_k - 1.0 / TEMPERATURE)).exp()
    }

    /// Band-to-band tunneling magnitude (A/µm) for smoothed gate overdrive
    /// `v_ov ≥ 0` (already includes drain coupling).
    fn kane(&self, v_ov: f64) -> f64 {
        if v_ov <= 1e-12 {
            return 0.0;
        }
        // lim_exp keeps extreme Newton iterates finite.
        self.kane_temp_factor() * self.a_kane * v_ov * v_ov * lim_exp(-self.b_kane / v_ov, 60.0)
    }

    /// Super-linear output saturation factor for `v_ds ≥ 0`; 0 at the origin,
    /// →1 in saturation, zero first derivative at the origin for `m_sat = 2`.
    fn sat(&self, v_ds: f64) -> f64 {
        debug_assert!(v_ds >= 0.0);
        (1.0 - (-v_ds / self.v_sat).exp()).powf(self.m_sat)
    }

    /// Derivative of the tunneling magnitude with respect to the overdrive:
    /// `d/dv [a·tf·v²·e^{−b/v}] = a·tf·(2v + b)·e^{−b/v}`.
    fn kane_deriv(&self, v_ov: f64) -> f64 {
        if v_ov <= 1e-12 {
            return 0.0;
        }
        self.kane_temp_factor()
            * self.a_kane
            * (2.0 * v_ov + self.b_kane)
            * lim_exp(-self.b_kane / v_ov, 60.0)
    }

    /// Derivative of [`TfetParams::sat`] with respect to `v_ds`.
    fn sat_deriv(&self, v_ds: f64) -> f64 {
        debug_assert!(v_ds >= 0.0);
        let e = (-v_ds / self.v_sat).exp();
        self.m_sat * (1.0 - e).powf(self.m_sat - 1.0) * e / self.v_sat
    }

    /// [`kane`](Self::kane) and [`kane_deriv`](Self::kane_deriv) sharing
    /// one clamped exponential; each value has the bits of its own method.
    fn kane_with_deriv(&self, v_ov: f64) -> (f64, f64) {
        if v_ov <= 1e-12 {
            return (0.0, 0.0);
        }
        let tf = self.kane_temp_factor();
        let e = lim_exp(-self.b_kane / v_ov, 60.0);
        (
            tf * self.a_kane * v_ov * v_ov * e,
            tf * self.a_kane * (2.0 * v_ov + self.b_kane) * e,
        )
    }

    /// [`sat`](Self::sat) and [`sat_deriv`](Self::sat_deriv) sharing one
    /// exponential; each value has the bits of its own method.
    fn sat_with_deriv(&self, v_ds: f64) -> (f64, f64) {
        debug_assert!(v_ds >= 0.0);
        let e = (-v_ds / self.v_sat).exp();
        (
            (1.0 - e).powf(self.m_sat),
            self.m_sat * (1.0 - e).powf(self.m_sat - 1.0) * e / self.v_sat,
        )
    }

    /// Forward-branch current (A/µm) for `v_gs`, `v_ds ≥ 0`.
    fn forward(&self, v_gs: f64, v_ds: f64) -> f64 {
        let v_ov = softplus(v_gs - self.v_onset + self.gamma_d * v_ds, self.w_onset);
        self.kane(v_ov) * self.sat(v_ds) + self.g_off * v_ds
    }

    /// Reverse-branch current magnitude (A/µm) for `v_gs` and reverse drain
    /// bias `v_r = −v_ds > 0`; flows source→drain.
    fn reverse(&self, v_gs: f64, v_r: f64) -> f64 {
        debug_assert!(v_r >= 0.0);
        // Forward-biased p-i-n body diode: gate-independent, dominant at
        // high reverse bias.
        let diode = self.i_s_diode_t() * (lim_exp(v_r / (self.n_diode * self.v_t()), 60.0) - 1.0);
        // Gate-modulated ambipolar tunneling: comparable to the forward
        // branch at small reverse bias (paper Fig. 2b — "much smaller …
        // except for V_DS close to 1 V or 0 V"), quenched exponentially as
        // the injected p-i-n carriers screen the gate at larger |V_DS|.
        let v_ov = softplus(v_gs - self.v_onset + self.gamma_d * v_r, self.w_onset);
        let gated =
            self.r_ambipolar * self.kane(v_ov) * self.sat(v_r) * (-v_r / self.v_amb_quench).exp();
        diode + gated + self.g_off * v_r
    }
}

impl Default for TfetParams {
    fn default() -> Self {
        TfetParams::nominal()
    }
}

/// The n-type Si tunneling FET (p⁺ source, n⁺ drain).
///
/// Forward conduction is drain→source (positive [`DeviceModel::ids_per_um`]
/// for `vd > vs`).
///
/// # Examples
///
/// ```
/// use tfet_devices::{NTfet, DeviceModel};
///
/// let t = NTfet::nominal();
/// // Unidirectional: reverse current at moderate bias is orders below
/// // forward current at the same |V|.
/// // (with the gate *inactive*, as an SRAM access device in standby)
/// let fwd = t.ids_per_um(0.8, 0.8, 0.0);
/// let rev = -t.ids_per_um(0.0, -0.4, 0.0);
/// assert!(fwd > 1e3 * rev);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NTfet {
    params: TfetParams,
}

impl NTfet {
    /// Creates an n-TFET with the given parameters.
    pub fn new(params: TfetParams) -> Self {
        NTfet { params }
    }

    /// The paper-calibrated nominal device.
    pub fn nominal() -> Self {
        NTfet::new(TfetParams::nominal())
    }

    /// The parameter record.
    pub fn params(&self) -> &TfetParams {
        &self.params
    }
}

impl DeviceModel for NTfet {
    fn name(&self) -> &str {
        "ntfet"
    }

    fn polarity(&self) -> Polarity {
        Polarity::N
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Tfet
    }

    fn ids_per_um(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        let v_gs = vg - vs;
        let v_ds = vd - vs;
        if v_ds >= 0.0 {
            self.params.forward(v_gs, v_ds)
        } else {
            // Reverse bias: the gated term sees the gate relative to the
            // *drain-side* junction now acting as the source of carriers;
            // referencing v_g to the more negative terminal (the drain)
            // keeps the gate influence physical at small reverse bias.
            let v_gd = vg - vd;
            -self.params.reverse(v_gd, -v_ds)
        }
    }

    fn conductances_per_um(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64) {
        let p = &self.params;
        let v_gs = vg - vs;
        let v_ds = vd - vs;
        if v_ds >= 0.0 {
            // Forward branch: I = K(v_ov)·S(v_ds) + g_off·v_ds with
            // v_ov = softplus(v_gs − v_onset + γ·v_ds).
            let u = v_gs - p.v_onset + p.gamma_d * v_ds;
            let v_ov = softplus(u, p.w_onset);
            let sig = softplus_deriv(u, p.w_onset);
            let k = p.kane(v_ov);
            let k_d = p.kane_deriv(v_ov);
            let s_f = p.sat(v_ds);
            let s_d = p.sat_deriv(v_ds);
            let gm = k_d * sig * s_f;
            let gds = k_d * sig * p.gamma_d * s_f + k * s_d + p.g_off;
            (gm, gds, -(gm + gds))
        } else {
            // Reverse branch: I = −F(v_gd, v_r) with v_gd = vg − vd,
            // v_r = vs − vd; F = diode(v_r) + gated(v_gd, v_r) + g_off·v_r.
            let v_gd = vg - vd;
            let v_r = -v_ds;
            let n_vt = p.n_diode * p.v_t();
            let d_r = p.i_s_diode_t() * lim_exp_deriv(v_r / n_vt, 60.0) / n_vt;
            let u = v_gd - p.v_onset + p.gamma_d * v_r;
            let v_ov = softplus(u, p.w_onset);
            let sig = softplus_deriv(u, p.w_onset);
            let k = p.kane(v_ov);
            let k_d = p.kane_deriv(v_ov);
            let s_f = p.sat(v_r);
            let s_d = p.sat_deriv(v_r);
            let q_f = (-v_r / p.v_amb_quench).exp();
            let g = p.r_ambipolar * k * s_f * q_f;
            let g_gd = p.r_ambipolar * k_d * sig * s_f * q_f;
            let g_r = p.r_ambipolar
                * (k_d * sig * p.gamma_d * s_f * q_f + k * s_d * q_f
                    - k * s_f * q_f / p.v_amb_quench);
            debug_assert!(g.is_finite());
            let f_gd = g_gd;
            let f_r = d_r + g_r + p.g_off;
            (-f_gd, f_gd + f_r, -f_r)
        }
    }

    /// The current and conductances of [`ids_per_um`](Self::ids_per_um)
    /// and [`conductances_per_um`](Self::conductances_per_um) from one pass
    /// over the shared transcendentals (softplus, the clamped Kane and
    /// diode exponentials, the saturation factor): 7 distinct
    /// `exp`/`ln`/`powf` calls instead of 14 on the forward branch. Every
    /// expression keeps the association order of the two methods, so the
    /// result is bit-identical to calling them separately.
    fn linearize_per_um(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64, f64) {
        let p = &self.params;
        let v_gs = vg - vs;
        let v_ds = vd - vs;
        if v_ds >= 0.0 {
            let u = v_gs - p.v_onset + p.gamma_d * v_ds;
            let v_ov = softplus(u, p.w_onset);
            let sig = softplus_deriv(u, p.w_onset);
            let (k, k_d) = p.kane_with_deriv(v_ov);
            let (s_f, s_d) = p.sat_with_deriv(v_ds);
            let i = k * s_f + p.g_off * v_ds;
            let gm = k_d * sig * s_f;
            let gds = k_d * sig * p.gamma_d * s_f + k * s_d + p.g_off;
            (i, gm, gds, -(gm + gds))
        } else {
            let v_gd = vg - vd;
            let v_r = -v_ds;
            let n_vt = p.n_diode * p.v_t();
            let i_s = p.i_s_diode_t();
            // `lim_exp` and `lim_exp_deriv` share `exp(min(x, 60))`.
            let x = v_r / n_vt;
            let e_d = lim_exp_deriv(x, 60.0);
            let e = if x <= 60.0 {
                e_d
            } else {
                e_d * (1.0 + (x - 60.0))
            };
            let diode = i_s * (e - 1.0);
            let d_r = i_s * e_d / n_vt;
            let u = v_gd - p.v_onset + p.gamma_d * v_r;
            let v_ov = softplus(u, p.w_onset);
            let sig = softplus_deriv(u, p.w_onset);
            let (k, k_d) = p.kane_with_deriv(v_ov);
            let (s_f, s_d) = p.sat_with_deriv(v_r);
            let q_f = (-v_r / p.v_amb_quench).exp();
            let gated = p.r_ambipolar * k * s_f * q_f;
            let g_gd = p.r_ambipolar * k_d * sig * s_f * q_f;
            let g_r = p.r_ambipolar
                * (k_d * sig * p.gamma_d * s_f * q_f + k * s_d * q_f
                    - k * s_f * q_f / p.v_amb_quench);
            let f_r = d_r + g_r + p.g_off;
            (-(diode + gated + p.g_off * v_r), -g_gd, g_gd + f_r, -f_r)
        }
    }

    fn caps_per_um(&self, vg: f64, vd: f64, vs: f64) -> Caps {
        let p = &self.params;
        let v_gs = vg - vs;
        let v_ds = vd - vs;
        // Channel-charge formation tracks the same smoothed overdrive as the
        // current: the gate capacitance rises from a fringe floor to the full
        // plate value as the device turns on.
        let v_ov = softplus(v_gs - p.v_onset + p.gamma_d * v_ds.max(0.0), p.w_onset);
        // Quadratic-in-occupancy turn-on keeps the off-state gate load near
        // the fringe floor; only a formed channel pays channel capacitance.
        // The on-state ceiling is ~30 % of the oxide plate value: at this
        // stack's 0.31 nm EOT the series semiconductor (quantum) capacitance
        // dominates C_gg, and the TFET inversion charge is further limited
        // by what the source tunnel junction can supply.
        let occupancy = v_ov / (v_ov + 0.15);
        let c_ch = C_GATE_PER_UM * (0.05 + 0.25 * occupancy * occupancy);
        // TFET Miller skew: in the on-state the inversion charge connects to
        // the drain, so C_gd dominates (opposite of a MOSFET in saturation).
        let cgd = c_ch * p.miller_skew + p.c_overlap;
        let cgs = c_ch * (1.0 - p.miller_skew) + p.c_overlap;
        Caps {
            cgs,
            cgd,
            cdb: p.c_junction,
            csb: p.c_junction,
        }
    }
}

/// The p-type Si tunneling FET (n⁺ source, p⁺ drain): the exact electrical
/// dual of [`NTfet`]. Forward conduction is source→drain and requires a
/// negative gate-source voltage.
///
/// # Examples
///
/// ```
/// use tfet_devices::{PTfet, DeviceModel, Polarity};
///
/// let p = PTfet::nominal();
/// assert_eq!(p.polarity(), Polarity::P);
/// // On at V_SG = V_SD = 0.8 V; current *out of* the drain terminal.
/// assert!(p.ids_per_um(0.0, 0.0, 0.8) < -1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct PTfet {
    dual: DualOf<NTfet>,
}

impl PTfet {
    /// Creates a p-TFET as the dual of an n-TFET parameter set.
    pub fn new(params: TfetParams) -> Self {
        PTfet {
            dual: DualOf::new(NTfet::new(params), "ptfet"),
        }
    }

    /// The paper-calibrated nominal device.
    pub fn nominal() -> Self {
        PTfet::new(TfetParams::nominal())
    }

    /// The underlying n-frame parameter record.
    pub fn params(&self) -> &TfetParams {
        self.dual.inner().params()
    }
}

impl DeviceModel for PTfet {
    fn name(&self) -> &str {
        self.dual.name()
    }
    fn polarity(&self) -> Polarity {
        self.dual.polarity()
    }
    fn kind(&self) -> DeviceKind {
        self.dual.kind()
    }
    fn ids_per_um(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        self.dual.ids_per_um(vg, vd, vs)
    }
    fn caps_per_um(&self, vg: f64, vd: f64, vs: f64) -> Caps {
        self.dual.caps_per_um(vg, vd, vs)
    }
    fn conductances_per_um(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64) {
        self.dual.conductances_per_um(vg, vd, vs)
    }
    fn linearize_per_um(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64, f64) {
        self.dual.linearize_per_um(vg, vd, vs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VDD: f64 = 0.8;

    #[test]
    fn on_and_off_currents_hit_paper_targets_at_1v() {
        let t = NTfet::nominal();
        let i_on = t.ids_per_um(1.0, 1.0, 0.0);
        let i_off = t.ids_per_um(0.0, 1.0, 0.0);
        // Paper: I_on = 1e-4 A/µm, I_off = 1e-17 A/µm (order of magnitude).
        assert!((3e-5..3e-4).contains(&i_on), "I_on = {i_on:e} out of range");
        assert!(
            (3e-18..3e-17).contains(&i_off),
            "I_off = {i_off:e} out of range"
        );
    }

    #[test]
    fn forward_current_increases_with_gate_voltage() {
        let t = NTfet::nominal();
        let mut prev = t.ids_per_um(0.0, VDD, 0.0);
        for i in 1..=20 {
            let vg = i as f64 * 0.05;
            let cur = t.ids_per_um(vg, VDD, 0.0);
            assert!(cur >= prev, "not monotone at vg={vg}");
            prev = cur;
        }
    }

    #[test]
    fn forward_current_increases_with_drain_voltage() {
        let t = NTfet::nominal();
        let mut prev = 0.0;
        for i in 0..=20 {
            let vd = i as f64 * 0.05;
            let cur = t.ids_per_um(VDD, vd, 0.0);
            assert!(cur >= prev, "not monotone at vd={vd}");
            prev = cur;
        }
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let t = NTfet::nominal();
        for vg in [0.0, 0.4, 0.8, 1.2] {
            assert_eq!(t.ids_per_um(vg, 0.0, 0.0), 0.0);
        }
    }

    #[test]
    fn current_is_continuous_through_vds_zero() {
        let t = NTfet::nominal();
        for vg in [0.0, 0.5, 1.0] {
            let below = t.ids_per_um(vg, -1e-9, 0.0);
            let above = t.ids_per_um(vg, 1e-9, 0.0);
            assert!(
                (above - below).abs() < 1e-15,
                "discontinuity at vds=0, vg={vg}"
            );
        }
    }

    #[test]
    fn unidirectional_conduction_at_moderate_bias() {
        // The SRAM-relevant asymmetry: a *standby* (gate-inactive) device
        // must block reverse conduction at moderate bias by many orders,
        // while the same device conducts strongly forward when driven. With
        // the gate active the reverse (ambipolar + p-i-n) branch is
        // substantial — TFETs are not reverse-blocking diodes when driven —
        // but it still cannot *pull* a node past the diode drop the way
        // forward conduction can.
        let t = NTfet::nominal();
        let fwd = t.ids_per_um(VDD, VDD, 0.0);
        let rev_gate_low = -t.ids_per_um(0.0, -0.4, 0.0);
        assert!(rev_gate_low > 0.0);
        assert!(fwd / rev_gate_low > 1e3, "fwd={fwd:e} rev={rev_gate_low:e}");
        // Gate-active reverse conduction exists but stays below forward.
        let rev_gate_high = -t.ids_per_um(VDD, -0.4, 0.0);
        assert!(rev_gate_high < fwd, "rev={rev_gate_high:e} fwd={fwd:e}");
    }

    #[test]
    fn reverse_diode_dominates_at_high_reverse_bias() {
        // Fig. 2b: at |V_DS| = 1 V the current is gate-independent and large.
        let t = NTfet::nominal();
        let i_vg0 = -t.ids_per_um(0.0, -1.0, 0.0);
        let i_vg1 = -t.ids_per_um(1.0, -1.0, 0.0);
        assert!(i_vg0 > 1e-6, "diode current too small: {i_vg0:e}");
        // Gate changes the current by < 2x at full reverse bias.
        assert!(
            i_vg1 / i_vg0 < 2.0,
            "gate retains control: {i_vg1:e}/{i_vg0:e}"
        );
    }

    #[test]
    fn gate_controls_reverse_current_at_low_reverse_bias() {
        // Fig. 2b: at |V_DS| = 0.2 V the gated ambipolar term dominates, so
        // V_GS sweeps the current by orders of magnitude.
        let t = NTfet::nominal();
        let i_vg0 = -t.ids_per_um(0.0, -0.2, 0.0);
        let i_vg1 = -t.ids_per_um(1.2, -0.2, 0.0);
        assert!(
            i_vg1 / i_vg0 > 1e2,
            "gate lost control at low reverse bias: {i_vg1:e}/{i_vg0:e}"
        );
    }

    #[test]
    fn reverse_on_current_much_smaller_than_forward_except_near_1v() {
        let t = NTfet::nominal();
        // At mid reverse bias with the gate inactive, far below forward...
        let fwd_mid = t.ids_per_um(1.0, 0.5, 0.0);
        let rev_mid = -t.ids_per_um(0.0, -0.5, 0.0);
        assert!(fwd_mid / rev_mid > 1e3);
        // ...but at 1 V the diode catches up to within ~an order.
        let fwd_1v = t.ids_per_um(1.0, 1.0, 0.0);
        let rev_1v = -t.ids_per_um(1.0, -1.0, 0.0);
        assert!(fwd_1v / rev_1v < 30.0, "{fwd_1v:e} vs {rev_1v:e}");
    }

    #[test]
    fn currents_stay_finite_at_extreme_voltages() {
        let t = NTfet::nominal();
        for &(vg, vd, vs) in &[
            (10.0, 10.0, 0.0),
            (-10.0, -10.0, 0.0),
            (0.0, 100.0, -100.0),
            (50.0, -50.0, 0.0),
        ] {
            let i = t.ids_per_um(vg, vd, vs);
            assert!(i.is_finite(), "non-finite at ({vg},{vd},{vs})");
        }
    }

    #[test]
    fn ptfet_is_exact_mirror_of_ntfet() {
        let n = NTfet::nominal();
        let p = PTfet::nominal();
        for &(vg, vd, vs) in &[(0.0, 0.0, 0.8), (0.8, 0.4, 0.8), (0.3, 0.9, 0.1)] {
            let i_p = p.ids_per_um(vg, vd, vs);
            let i_n = n.ids_per_um(-vg, -vd, -vs);
            assert!((i_p + i_n).abs() <= 1e-24 + 1e-12 * i_n.abs());
        }
    }

    #[test]
    fn ptfet_conducts_source_to_drain_when_on() {
        let p = PTfet::nominal();
        // Source at VDD, drain low, gate low: V_SG = V_SD = VDD → on, current
        // out of the drain terminal (negative by convention).
        let i = p.ids_per_um(0.0, 0.0, VDD);
        assert!(i < -1e-7, "p-TFET should be strongly on, got {i:e}");
        // Gate at VDD: off.
        let i_off = p.ids_per_um(VDD, 0.0, VDD);
        assert!(i_off.abs() < 1e-15, "p-TFET should be off, got {i_off:e}");
    }

    #[test]
    fn subthreshold_swing_beats_mosfet_limit() {
        // Minimum swing over the decade band around turn-on must be below
        // 60 mV/dec (the paper quotes 52.8 mV/dec experimental and lower in
        // simulation).
        let t = NTfet::nominal();
        let mut min_ss = f64::INFINITY;
        let dv = 0.01;
        let mut vg = 0.1;
        while vg < 0.8 {
            let i1 = t.ids_per_um(vg, 1.0, 0.0);
            let i2 = t.ids_per_um(vg + dv, 1.0, 0.0);
            if i1 > 1e-16 && i2 > i1 {
                let ss = dv / (i2 / i1).log10();
                min_ss = min_ss.min(ss);
            }
            vg += dv;
        }
        assert!(min_ss < 0.060, "min SS = {min_ss} V/dec");
    }

    #[test]
    fn capacitances_are_positive_and_miller_skewed_when_on() {
        let t = NTfet::nominal();
        let c_on = t.caps_per_um(1.0, 0.05, 0.0);
        assert!(c_on.cgs > 0.0 && c_on.cgd > 0.0);
        assert!(
            c_on.cgd > 1.1 * c_on.cgs,
            "on-state cap must be drain-skewed"
        );
        let c_off = t.caps_per_um(0.0, 0.8, 0.0);
        assert!(c_off.gate_total() < c_on.gate_total());
    }

    #[test]
    fn width_normalization_sanity() {
        // Gate cap of a 0.1 µm device should be a fraction of a fF.
        let t = NTfet::nominal();
        let c = t.caps_per_um(0.8, 0.0, 0.0).gate_total() * 0.1;
        assert!(c > 1e-17 && c < 1e-15, "{c:e}");
    }
}
