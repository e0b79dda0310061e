//! Cell parameterization: technology, access configuration, sizing,
//! supply, and per-transistor process variation.
//!
//! The paper's §3 design space is the access-transistor configuration of the
//! 6T TFET cell: TFETs conduct in one direction only, so each access device
//! is either *inward* (conducts bitline → cell) or *outward* (cell →
//! bitline), in n-type or p-type flavor — four combinations, of which only
//! inward p-type survives the static-power and writeability screens.

use crate::error::SramError;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tfet_devices::model::{DeviceKind, DeviceModel};
use tfet_devices::{MosfetParams, NTfet, Nmos, PTfet, Pmos, ProcessPoint, TfetParams};

/// How transistor I-V characteristics are evaluated during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DeviceEval {
    /// Evaluate the analytic model directly (the original behaviour; exact).
    #[default]
    Analytic,
    /// Serve a compiled lookup table from the process-wide corner cache
    /// ([`tfet_devices::shared_lut`]): each quantized process corner is
    /// tabulated once and shared by every cell instance and every thread.
    /// This is the fast path for Monte-Carlo and sweeps, at the cost of the
    /// LUT's interpolation error (≲ a few percent in the on region). The
    /// cache is keyed on t_ox alone, so only t_ox-only process points
    /// (`vth_shift == 0`, `drive_ratio == 1`) come from it; any other
    /// point evaluates analytically.
    CachedLut,
}

/// Orientation × polarity of a TFET access transistor (paper Fig. 3(b)–(e)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessConfig {
    /// n-type, conducting bitline → cell (drain at the bitline).
    InwardN,
    /// p-type, conducting bitline → cell (source at the bitline) — the
    /// paper's winning configuration.
    InwardP,
    /// n-type, conducting cell → bitline.
    OutwardN,
    /// p-type, conducting cell → bitline.
    OutwardP,
}

impl AccessConfig {
    /// All four configurations, in the paper's order.
    pub const ALL: [AccessConfig; 4] = [
        AccessConfig::OutwardN,
        AccessConfig::OutwardP,
        AccessConfig::InwardN,
        AccessConfig::InwardP,
    ];

    /// Whether the access device is p-type.
    pub fn is_p_type(self) -> bool {
        matches!(self, AccessConfig::InwardP | AccessConfig::OutwardP)
    }

    /// Whether the device conducts from the bitline into the cell.
    pub fn is_inward(self) -> bool {
        matches!(self, AccessConfig::InwardN | AccessConfig::InwardP)
    }

    /// The wordline level that turns the access transistor on. p-type
    /// access devices are active-low.
    pub fn wl_active(self, vdd: f64) -> f64 {
        if self.is_p_type() {
            0.0
        } else {
            vdd
        }
    }

    /// The wordline level that keeps the access transistor off.
    pub fn wl_inactive(self, vdd: f64) -> f64 {
        if self.is_p_type() {
            vdd
        } else {
            0.0
        }
    }
}

/// Cell topology under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// The 6T CMOS baseline (32 nm LP PTM-class devices).
    Cmos6T,
    /// The 6T TFET cell with the given access configuration.
    Tfet6T(AccessConfig),
    /// The 7T TFET SRAM with separate write port (outward access, write
    /// bitlines clamped to 0 in hold) and a single-transistor read buffer
    /// \[Kim, ISLPED'09\].
    Tfet7T,
    /// The asymmetric 6T TFET SRAM \[Singh, ASP-DAC'10\]: outward n-type
    /// access devices with a built-in ground-raising write mechanism. Its
    /// `WL_crit` is undefined (no separatrix); its static power depends
    /// critically on whether the architecture clamps bitlines to V_DD in
    /// hold.
    TfetAsym6T,
}

impl CellKind {
    /// Number of transistors in the cell (drives the area model).
    pub fn transistor_count(self) -> usize {
        match self {
            CellKind::Tfet7T => 7,
            _ => 6,
        }
    }

    /// Whether this is a TFET-based cell.
    pub fn is_tfet(self) -> bool {
        !matches!(self, CellKind::Cmos6T)
    }

    /// The access configuration used by this cell for wordline polarity
    /// purposes.
    pub fn access(self) -> AccessConfig {
        match self {
            CellKind::Cmos6T => AccessConfig::InwardN, // n-type, active-high WL
            CellKind::Tfet6T(a) => a,
            // 7T write port and asymmetric cell use outward n-type devices.
            CellKind::Tfet7T | CellKind::TfetAsym6T => AccessConfig::OutwardN,
        }
    }
}

/// Transistor widths. The paper's design variable is the **cell ratio β**:
/// the ratio of the inverter pull-down width to the access width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellSizing {
    /// Access transistor width, µm.
    pub w_access_um: f64,
    /// Cell ratio β = W_pulldown / W_access.
    pub beta: f64,
    /// Pull-up width, µm (held fixed as β varies, as in the paper).
    pub w_pullup_um: f64,
}

impl CellSizing {
    /// Default sizing: 0.1 µm access devices with minimum-width (0.06 µm)
    /// pull-ups — the standard 6T discipline of keeping the pull-up the
    /// weakest device in the cell.
    pub fn with_beta(beta: f64) -> Self {
        CellSizing {
            w_access_um: 0.1,
            beta,
            w_pullup_um: 0.06,
        }
    }

    /// Pull-down width, µm.
    pub fn w_pulldown_um(&self) -> f64 {
        self.beta * self.w_access_um
    }

    /// Validates the sizing.
    pub(crate) fn validate(&self) -> Result<(), SramError> {
        if !(self.w_access_um > 0.0 && self.w_pullup_um > 0.0) {
            return Err(SramError::InvalidParameter(
                "transistor widths must be positive".into(),
            ));
        }
        if !(self.beta > 0.0 && self.beta.is_finite()) {
            return Err(SramError::InvalidParameter(format!(
                "cell ratio beta must be positive and finite, got {}",
                self.beta
            )));
        }
        Ok(())
    }
}

impl Default for CellSizing {
    fn default() -> Self {
        CellSizing::with_beta(1.0)
    }
}

/// Transistor roles within a cell, used to address per-device process
/// variation. Left = the `q` side, right = the `qb` side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Left inverter pull-up (drives `q`).
    PullUpLeft,
    /// Left inverter pull-down.
    PullDownLeft,
    /// Right inverter pull-up (drives `qb`).
    PullUpRight,
    /// Right inverter pull-down.
    PullDownRight,
    /// Left access transistor (bitline BL ↔ `q`).
    AccessLeft,
    /// Right access transistor (bitline BLB ↔ `qb`).
    AccessRight,
    /// 7T read-buffer transistor.
    ReadBuffer,
}

impl Role {
    /// All roles, in stamp order.
    pub const ALL: [Role; 7] = [
        Role::PullUpLeft,
        Role::PullDownLeft,
        Role::PullUpRight,
        Role::PullDownRight,
        Role::AccessLeft,
        Role::AccessRight,
        Role::ReadBuffer,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            Role::PullUpLeft => 0,
            Role::PullDownLeft => 1,
            Role::PullUpRight => 2,
            Role::PullDownRight => 3,
            Role::AccessLeft => 4,
            Role::AccessRight => 5,
            Role::ReadBuffer => 6,
        }
    }

    /// Stable snake_case label — the key this role's drawn parameters use
    /// in run-report quarantine records and forensics bundles.
    pub fn label(self) -> &'static str {
        match self {
            Role::PullUpLeft => "pull_up_left",
            Role::PullDownLeft => "pull_down_left",
            Role::PullUpRight => "pull_up_right",
            Role::PullDownRight => "pull_down_right",
            Role::AccessLeft => "access_left",
            Role::AccessRight => "access_right",
            Role::ReadBuffer => "read_buffer",
        }
    }
}

/// Per-transistor process assignment: one [`ProcessPoint`] (t_ox, Vth
/// shift, drive strength) per [`Role`]. The paper's §4.3 Monte-Carlo fills
/// in t_ox alone; a yield study's factor model may set every factor.
/// Defaults to the nominal process for every device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellVariations {
    points: [ProcessPoint; 7],
}

impl CellVariations {
    /// The nominal process for every transistor.
    pub fn nominal() -> Self {
        CellVariations {
            points: [ProcessPoint::nominal(); 7],
        }
    }

    /// Sets one transistor's process point (builder style).
    pub fn with(mut self, role: Role, p: ProcessPoint) -> Self {
        self.points[role.index()] = p;
        self
    }

    /// The process point assigned to a role.
    pub fn of(&self, role: Role) -> ProcessPoint {
        self.points[role.index()]
    }
}

impl Default for CellVariations {
    fn default() -> Self {
        CellVariations::nominal()
    }
}

/// Transient step-control policy selector for experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteppingMode {
    /// Adaptive LTE-controlled stepping seeded at `dt` (the default): the
    /// engine lands on source edges exactly and grows its step across the
    /// flat digital plateaus that dominate SRAM metric transients.
    #[default]
    Adaptive,
    /// The uniform `dt` grid — the reference path for accuracy regressions
    /// and for benches that sweep `dt` itself.
    Fixed,
}

/// Simulation timing controls. The defaults trade accuracy for speed at the
/// point where metric values change by well under 1 % with further
/// refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Transient time step, s — the fixed grid under
    /// [`SteppingMode::Fixed`], the initial/seed step under
    /// [`SteppingMode::Adaptive`].
    pub dt: f64,
    /// Initial settle window before any stimulus, s.
    pub t_settle: f64,
    /// Wordline-active window during read, s.
    pub t_read: f64,
    /// Post-pulse settle window used to decide whether a write flipped the
    /// cell, s.
    pub t_post_write: f64,
    /// Largest wordline pulse width probed by the `WL_crit` search, s.
    pub max_pulse: f64,
    /// Absolute `WL_crit` search tolerance, s.
    pub pulse_tol: f64,
    /// Stimulus edge time, s.
    pub t_edge: f64,
    /// Assist strength as a fraction of V_DD. The paper fixes 30 % for its
    /// §4 comparison; the assist-level ablation A3 sweeps this.
    pub assist_fraction: f64,
    /// Transient step-control policy.
    pub stepping: SteppingMode,
    /// Whether `run_write`/`run_read` may terminate a transient as soon as
    /// the storage-node outcome is decided instead of running to `t_stop`.
    pub early_exit: bool,
}

impl SimOptions {
    /// The transient spec implementing this option set for a run of
    /// `t_stop` seconds.
    pub fn spec(&self, t_stop: f64) -> tfet_circuit::TransientSpec {
        match self.stepping {
            SteppingMode::Adaptive => tfet_circuit::TransientSpec::new(t_stop, self.dt),
            SteppingMode::Fixed => tfet_circuit::TransientSpec::fixed(t_stop, self.dt),
        }
    }
    /// Stretches every time budget by `factor` (windows, pulse search range
    /// and tolerance) and coarsens the step by `√factor` (capped at 8 ps).
    /// Used when cell dynamics slow down, e.g. at reduced supply.
    pub fn rescale(&mut self, factor: f64) {
        assert!(factor >= 1.0, "rescale factor must be ≥ 1");
        self.t_read *= factor;
        self.t_post_write *= factor;
        self.max_pulse *= factor;
        self.pulse_tol *= factor;
        self.dt = (self.dt * factor.sqrt()).min(8e-12);
    }

    /// The time-budget stretch factor for operation at the given supply:
    /// `exp(10·(0.8 − v_dd))`, clamped to `[1, 32]` — exactly 1 at the
    /// 0.8 V reference. TFET (and subthreshold CMOS) drive currents
    /// collapse exponentially below the reference, and this factor tracks
    /// the Kane-current ratio of the nominal device across the paper's
    /// 0.5–0.9 V range.
    pub fn supply_factor(vdd: f64) -> f64 {
        (10.0 * (0.8 - vdd)).exp().clamp(1.0, 32.0)
    }

    /// Rescales the time budgets for operation at the given supply by
    /// [`supply_factor`](SimOptions::supply_factor).
    pub fn rescale_for_supply(&mut self, vdd: f64) {
        let factor = Self::supply_factor(vdd);
        if factor > 1.0 {
            self.rescale(factor);
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            dt: 1e-12,
            t_settle: 0.2e-9,
            t_read: 2.0e-9,
            t_post_write: 1.5e-9,
            max_pulse: 4.0e-9,
            pulse_tol: 2e-12,
            t_edge: 10e-12,
            assist_fraction: crate::assist::ASSIST_FRACTION,
            stepping: SteppingMode::default(),
            early_exit: true,
        }
    }
}

/// Complete description of a cell experiment: topology, sizing, supply,
/// parasitics, one [`ProcessPoint`] per transistor role, the device
/// evaluation strategy, and simulation controls.
#[derive(Debug, Clone)]
pub struct CellParams {
    /// Cell topology.
    pub kind: CellKind,
    /// Transistor sizing.
    pub sizing: CellSizing,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Bitline capacitance (per bitline), F — the column load the cell must
    /// discharge during a read.
    pub c_bitline: f64,
    /// Extra wiring capacitance on each storage node, F.
    pub c_node: f64,
    /// Per-transistor process points.
    pub variations: CellVariations,
    /// Operating temperature, K (applied to every device model).
    pub temp_k: f64,
    /// Device evaluation strategy (analytic vs. cached LUT).
    pub eval: DeviceEval,
    /// Simulation timing controls.
    pub sim: SimOptions,
}

impl CellParams {
    /// Lowest supply [`CellParams::validate`] accepts, V.
    pub const VDD_MIN: f64 = 0.1;

    /// A 6T TFET cell with the given access configuration, β = 1,
    /// V_DD = 0.8 V (the paper's default supply).
    pub fn tfet6t(access: AccessConfig) -> Self {
        CellParams::new(CellKind::Tfet6T(access))
    }

    /// The 6T CMOS baseline at β = 1, V_DD = 0.8 V.
    pub fn cmos6t() -> Self {
        CellParams::new(CellKind::Cmos6T)
    }

    /// A cell of the given topology with default parameters.
    pub fn new(kind: CellKind) -> Self {
        CellParams {
            kind,
            sizing: CellSizing::default(),
            vdd: 0.8,
            c_bitline: 20e-15,
            c_node: 0.15e-15,
            variations: CellVariations::nominal(),
            temp_k: 300.0,
            eval: DeviceEval::default(),
            sim: SimOptions::default(),
        }
    }

    /// Sets the cell ratio β (builder style).
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.sizing.beta = beta;
        self
    }

    /// Sets the supply voltage (builder style).
    pub fn with_vdd(mut self, vdd: f64) -> Self {
        self.vdd = vdd;
        self
    }

    /// Sets the per-transistor process points (builder style).
    pub fn with_variations(mut self, v: CellVariations) -> Self {
        self.variations = v;
        self
    }

    /// Sets the operating temperature (builder style).
    pub fn with_temperature(mut self, temp_k: f64) -> Self {
        self.temp_k = temp_k;
        self
    }

    /// Sets the simulation controls (builder style).
    pub fn with_sim(mut self, sim: SimOptions) -> Self {
        self.sim = sim;
        self
    }

    /// Serves devices from the shared compiled-LUT corner cache instead of
    /// evaluating the analytic models directly (builder style). See
    /// [`DeviceEval::CachedLut`].
    pub fn with_lut_devices(mut self) -> Self {
        self.eval = DeviceEval::CachedLut;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), SramError> {
        self.sizing.validate()?;
        if !(Self::VDD_MIN..=1.5).contains(&self.vdd) {
            return Err(SramError::InvalidParameter(format!(
                "vdd {} outside the supported 0.1–1.5 V range",
                self.vdd
            )));
        }
        if !(self.c_bitline > 0.0 && self.c_node > 0.0) {
            return Err(SramError::InvalidParameter(
                "parasitic capacitances must be positive".into(),
            ));
        }
        if !(self.sim.dt > 0.0 && self.sim.dt.is_finite()) {
            return Err(SramError::InvalidParameter(format!(
                "time step dt {} must be positive and finite",
                self.sim.dt
            )));
        }
        Ok(())
    }

    /// Builds the device model for a role, applying that transistor's
    /// process point. `n_type` selects the polarity within the technology.
    pub(crate) fn model(&self, role: Role, n_type: bool) -> Arc<dyn DeviceModel> {
        self.model_with(self.variations.of(role), n_type)
    }

    /// Builds an unvaried device model in the cell's technology — the
    /// peripheral transistors of an array netlist (wordline drivers,
    /// precharge, write mux) sit outside the cell's per-role variation
    /// model and always use the nominal process.
    pub(crate) fn periph_model(&self, n_type: bool) -> Arc<dyn DeviceModel> {
        self.model_with(ProcessPoint::nominal(), n_type)
    }

    /// Builds a device model at a process point. Under
    /// [`DeviceEval::CachedLut`] a t_ox-only point is served from the shared
    /// corner cache; a point with a Vth shift or a drive factor evaluates
    /// analytically, because the cache is keyed on t_ox alone.
    fn model_with(&self, point: ProcessPoint, n_type: bool) -> Arc<dyn DeviceModel> {
        let tox_only = point.vth_shift == 0.0 && point.drive_ratio == 1.0;
        if self.eval == DeviceEval::CachedLut && tox_only {
            let kind = if self.kind.is_tfet() {
                DeviceKind::Tfet
            } else {
                DeviceKind::Mosfet
            };
            return tfet_devices::shared_lut(kind, n_type, point.tox, self.temp_k);
        }
        if self.kind.is_tfet() {
            let p = point
                .apply_tfet(&TfetParams::nominal())
                .at_temperature(self.temp_k);
            if n_type {
                Arc::new(NTfet::new(p))
            } else {
                Arc::new(PTfet::new(p))
            }
        } else {
            let p = point
                .apply_mosfet(&MosfetParams::nominal_32nm_lp())
                .at_temperature(self.temp_k);
            if n_type {
                Arc::new(Nmos::new(p))
            } else {
                Arc::new(Pmos::new(p))
            }
        }
    }
}

/// The device models of one cell design: one per (role, polarity) for the
/// cells and one per polarity for the periphery, each built on first use and
/// shared by every device placed with it afterwards.
///
/// Every cell of an array has the same design, so its devices of one role
/// and polarity evaluate the same model with the same parameters; sharing one
/// `Arc` among them gives the same bits as building one model per device,
/// without thousands of identical heap objects for evaluation to walk.
#[derive(Debug)]
pub struct CellModels<'p> {
    params: &'p CellParams,
    cell: Vec<(Role, bool, Arc<dyn DeviceModel>)>,
    periph: [Option<Arc<dyn DeviceModel>>; 2],
}

impl<'p> CellModels<'p> {
    /// An empty model set for the cell design `params`.
    pub fn new(params: &'p CellParams) -> Self {
        CellModels {
            params,
            cell: Vec::new(),
            periph: [None, None],
        }
    }

    /// The cell design the models are built for.
    pub(crate) fn params(&self) -> &'p CellParams {
        self.params
    }

    /// The model of the cell's `role` device of polarity `n_type`, at that
    /// role's process point, shared with every earlier request.
    pub(crate) fn model(&mut self, role: Role, n_type: bool) -> Arc<dyn DeviceModel> {
        if let Some((_, _, m)) = self
            .cell
            .iter()
            .find(|(r, n, _)| *r == role && *n == n_type)
        {
            return Arc::clone(m);
        }
        let m = self.params.model(role, n_type);
        self.cell.push((role, n_type, Arc::clone(&m)));
        m
    }

    /// The unvaried peripheral model of polarity `n_type`, shared with every
    /// earlier request.
    pub(crate) fn periph(&mut self, n_type: bool) -> Arc<dyn DeviceModel> {
        let params = self.params;
        Arc::clone(
            self.periph[usize::from(n_type)].get_or_insert_with(|| params.periph_model(n_type)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_config_properties() {
        assert!(AccessConfig::InwardP.is_p_type());
        assert!(AccessConfig::InwardP.is_inward());
        assert!(!AccessConfig::OutwardN.is_p_type());
        assert!(!AccessConfig::OutwardN.is_inward());
        assert_eq!(AccessConfig::ALL.len(), 4);
    }

    #[test]
    fn wordline_polarity() {
        // p-type access: active low.
        assert_eq!(AccessConfig::InwardP.wl_active(0.8), 0.0);
        assert_eq!(AccessConfig::InwardP.wl_inactive(0.8), 0.8);
        // n-type access: active high.
        assert_eq!(AccessConfig::InwardN.wl_active(0.8), 0.8);
        assert_eq!(AccessConfig::InwardN.wl_inactive(0.8), 0.0);
    }

    #[test]
    fn sizing_beta_controls_pulldown() {
        let s = CellSizing::with_beta(2.0);
        assert!((s.w_pulldown_um() - 0.2).abs() < 1e-12);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn sizing_rejects_nonpositive_beta() {
        let s = CellSizing::with_beta(0.0);
        assert!(s.validate().is_err());
    }

    #[test]
    fn params_builder_chain() {
        let p = CellParams::tfet6t(AccessConfig::InwardP)
            .with_beta(0.6)
            .with_vdd(0.7);
        assert_eq!(p.kind, CellKind::Tfet6T(AccessConfig::InwardP));
        assert!((p.sizing.beta - 0.6).abs() < 1e-12);
        assert!((p.vdd - 0.7).abs() < 1e-12);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn params_validation_catches_bad_vdd() {
        let p = CellParams::cmos6t().with_vdd(3.3);
        assert!(p.validate().is_err());
    }

    #[test]
    fn variations_address_individual_transistors() {
        let point = ProcessPoint::try_new(0.05, 0.0, 0.0).unwrap();
        let v = CellVariations::nominal().with(Role::AccessLeft, point);
        assert!((v.of(Role::AccessLeft).tox.deviation() - 0.05).abs() < 1e-12);
        assert!(v.of(Role::AccessRight).is_nominal());
    }

    #[test]
    fn models_reflect_technology() {
        let tfet = CellParams::tfet6t(AccessConfig::InwardP);
        assert_eq!(tfet.model(Role::PullDownLeft, true).name(), "ntfet");
        assert_eq!(tfet.model(Role::PullUpLeft, false).name(), "ptfet");
        let cmos = CellParams::cmos6t();
        assert_eq!(cmos.model(Role::PullDownLeft, true).name(), "nmos");
        assert_eq!(cmos.model(Role::AccessLeft, true).name(), "nmos");
    }

    #[test]
    fn cached_lut_models_are_shared_across_requests() {
        let p = CellParams::tfet6t(AccessConfig::InwardP).with_lut_devices();
        assert_eq!(p.eval, DeviceEval::CachedLut);
        let a = p.model(Role::PullDownLeft, true);
        let b = p.model(Role::PullDownRight, true);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same-corner devices must share one compiled table"
        );
        assert_eq!(a.name(), "ntfet-lut");
        // The analytic default is untouched.
        let q = CellParams::tfet6t(AccessConfig::InwardP);
        assert_eq!(q.eval, DeviceEval::Analytic);
        assert_eq!(q.model(Role::PullDownLeft, true).name(), "ntfet");
    }

    #[test]
    fn lut_cells_cache_tox_only_points_and_evaluate_the_rest() {
        let vth = ProcessPoint::try_new(0.0, 0.05, 0.0).unwrap();
        let tox = ProcessPoint::try_new(0.03, 0.0, 0.0).unwrap();
        let p = CellParams::tfet6t(AccessConfig::InwardP)
            .with_lut_devices()
            .with_variations(
                CellVariations::nominal()
                    .with(Role::PullDownLeft, vth)
                    .with(Role::PullDownRight, tox),
            );
        // The corner cache is keyed on t_ox: a Vth shift evaluates analytically.
        assert_eq!(p.model(Role::PullDownLeft, true).name(), "ntfet");
        // A t_ox-only point is the shared table of its corner.
        let cached = tfet_devices::shared_lut(DeviceKind::Tfet, true, tox.tox, p.temp_k);
        assert!(Arc::ptr_eq(&p.model(Role::PullDownRight, true), &cached));
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(CellKind::Tfet7T.transistor_count(), 7);
        assert_eq!(CellKind::Cmos6T.transistor_count(), 6);
        assert!(CellKind::Tfet7T.is_tfet());
        assert!(!CellKind::Cmos6T.is_tfet());
        assert_eq!(CellKind::Cmos6T.access(), AccessConfig::InwardN);
        assert_eq!(CellKind::TfetAsym6T.access(), AccessConfig::OutwardN);
    }
}
