//! Rare-event yield estimation: scaled-sigma importance sampling with
//! likelihood-ratio re-weighting (ROADMAP item 2).
//!
//! The paper's §4.3 robustness claim is evaluated with brute-force
//! Monte-Carlo, which cannot see bit-cell failure probabilities at the
//! 5–6σ depths a memory product must guarantee: at p = 1e-8, brute force
//! needs ~1e8 transient solves for a single significant digit. This module
//! estimates the same tail mass with ~1e3 solves by *widening the proposal*:
//! every process factor is drawn from its truncated Gaussian with the
//! standard deviation inflated by [`YieldConfig::sigma_scale`], and each
//! sample carries the exact likelihood ratio
//!
//! ```text
//! w(x) = ∏_d  (σ′_d Z′_d)/(σ_d Z_d) · exp(x_d²/2 · (1/σ′_d² − 1/σ_d²))
//! ```
//!
//! where `Z(σ, b) = erf(b/(σ√2))` is the analytic truncation constant —
//! the proposal keeps the *prior's* truncation bound, so the supports are
//! equal and no sample ever has zero prior density. The weighted failure
//! indicator `w·I` is then an unbiased estimator of the true tail
//! probability, with the effective sample size `(Σw)²/Σw²` diagnosing how
//! much the widening cost in weight spread. At `sigma_scale == 1` the
//! weights are exactly 1.0 and the estimator *is* brute force — the
//! cross-check path.
//!
//! # The factor variation model
//!
//! [`VariationModel`] generalizes the paper's t_ox-only model with the
//! factors the CMOS SRAM variability literature treats as dominant
//! (Torrens'17, Pasandi'14): per-transistor Vth mismatch, geometry
//! (drive-strength) mismatch, and chip-global t_ox / Vth / supply terms.
//! Global factors draw once per sample and shift every transistor together;
//! local factors draw per [`Role`]. A global supply droop is mapped onto a
//! common-mode threshold shift `−V_DD·s` — its first-order image on device
//! drive — so the compiled experiment's waveforms (which depend on the
//! shared supply) never vary per sample and stay reusable across binds.
//! [`VariationModel::paper`] keeps every new factor off; that default is
//! what keeps all existing figures bit-identical.
//!
//! # One sampling loop
//!
//! These yield studies and the [`crate::montecarlo`] studies — a
//! [`VariationModel::paper`] study at σ-scale 1 — share one sampling loop
//! over a [`YieldConfig`]: counter-based per-sample RNG streams, outcomes
//! folded in sample order, so estimate, standard error and ESS are
//! bit-identical at any worker-thread count. A draw outside a factor's
//! perturbative validity bound — expected when `sigma_scale` pushes a
//! wide-bound factor past the device model's range — surfaces as a typed
//! [`VariationError`](tfet_devices::VariationError), and the sample is
//! quarantined through the same per-sample path as simulation failures,
//! never a panicking worker.

use crate::assist::{ReadAssist, WriteAssist};
use crate::error::SramError;
use crate::metrics::{read_metrics_compiled, wl_crit_compiled, WlCrit};
use crate::montecarlo::{draw_truncated_normal, McConfig, TOX_BOUND, TOX_SIGMA};
use crate::ops::{ReadExperiment, WriteExperiment};
use crate::tech::{CellParams, CellVariations, Role};
use crate::topology::CellTopology;
use rand::rngs::StdRng;
use tfet_devices::ProcessPoint;
use tfet_numerics::{gaussian_mass_within, WeightedSummary};

/// One independent variation factor: a centered Gaussian with standard
/// deviation `sigma`, truncated to `[-bound, bound]`. A factor with
/// `sigma == 0` is off: it draws nothing (consuming no RNG words, so
/// enabling a factor never perturbs the draws of the others' streams) and
/// contributes weight 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Factor {
    /// Standard deviation of the underlying Gaussian (0 = factor off).
    pub sigma: f64,
    /// Symmetric truncation bound (also the proposal's bound under scaling).
    pub bound: f64,
}

impl Factor {
    /// A disabled factor.
    pub const OFF: Factor = Factor {
        sigma: 0.0,
        bound: 0.0,
    };

    /// An active factor with the given spread and truncation bound.
    pub fn new(sigma: f64, bound: f64) -> Self {
        Factor { sigma, bound }
    }

    /// Whether the factor draws at all.
    pub fn active(&self) -> bool {
        self.sigma > 0.0
    }

    fn validate(&self, name: &'static str) -> Result<(), SramError> {
        if !(self.sigma.is_finite() && self.sigma >= 0.0) {
            return Err(SramError::InvalidParameter(format!(
                "factor {name}: sigma {} must be finite and nonnegative",
                self.sigma
            )));
        }
        if self.active() && !(self.bound.is_finite() && self.bound > 0.0) {
            return Err(SramError::InvalidParameter(format!(
                "factor {name}: active factor needs a positive bound, got {}",
                self.bound
            )));
        }
        Ok(())
    }

    /// Draws from the σ-scaled proposal and multiplies the sample's
    /// likelihood ratio into `weight`.
    fn draw(&self, rng: &mut StdRng, scale: f64, weight: &mut f64) -> f64 {
        if !self.active() {
            return 0.0;
        }
        let sigma_q = self.sigma * scale;
        let x = draw_truncated_normal(rng, sigma_q, self.bound);
        if scale != 1.0 {
            // w = p(x)/q(x) with equal supports; see the module docs.
            let z_p = gaussian_mass_within(self.sigma, self.bound);
            let z_q = gaussian_mass_within(sigma_q, self.bound);
            let coef = (sigma_q * z_q) / (self.sigma * z_p);
            let expo = 0.5 * (1.0 / (sigma_q * sigma_q) - 1.0 / (self.sigma * self.sigma));
            *weight *= coef * (expo * x * x).exp();
        }
        x
    }
}

/// The factor variation model of a yield study: which process factors draw,
/// with what spread. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Per-transistor t_ox mismatch (the paper's §4.3 factor).
    pub tox: Factor,
    /// Chip-global t_ox term, shared by every transistor of the cell.
    pub tox_global: Factor,
    /// Per-transistor Vth mismatch, volts.
    pub vth: Factor,
    /// Chip-global Vth term, volts.
    pub vth_global: Factor,
    /// Per-transistor drive-strength (W/L) mismatch, relative.
    pub drive: Factor,
    /// Chip-global relative supply deviation, mapped onto a common-mode
    /// threshold shift `−V_DD·s` (first-order image of a supply droop on
    /// device drive; keeps compiled-experiment waveforms sample-invariant).
    pub supply: Factor,
}

impl VariationModel {
    /// The paper-faithful model: ±5 % t_ox per transistor (σ = 2.5 %,
    /// truncated at 2σ), every other factor off. With this model and
    /// `sigma_scale == 1`, a yield study samples exactly the process space
    /// of [`crate::montecarlo`].
    pub fn paper() -> Self {
        VariationModel {
            tox: Factor::new(TOX_SIGMA, TOX_BOUND),
            tox_global: Factor::OFF,
            vth: Factor::OFF,
            vth_global: Factor::OFF,
            drive: Factor::OFF,
            supply: Factor::OFF,
        }
    }

    /// Enables per-transistor Vth mismatch (builder style).
    pub fn with_vth(mut self, sigma: f64, bound: f64) -> Self {
        self.vth = Factor::new(sigma, bound);
        self
    }

    /// Enables the chip-global Vth term (builder style).
    pub fn with_vth_global(mut self, sigma: f64, bound: f64) -> Self {
        self.vth_global = Factor::new(sigma, bound);
        self
    }

    /// Enables per-transistor drive-strength mismatch (builder style).
    pub fn with_drive(mut self, sigma: f64, bound: f64) -> Self {
        self.drive = Factor::new(sigma, bound);
        self
    }

    /// Enables the chip-global t_ox term (builder style).
    pub fn with_tox_global(mut self, sigma: f64, bound: f64) -> Self {
        self.tox_global = Factor::new(sigma, bound);
        self
    }

    /// Enables the chip-global supply factor (builder style).
    pub fn with_supply(mut self, sigma: f64, bound: f64) -> Self {
        self.supply = Factor::new(sigma, bound);
        self
    }

    /// Number of independent scalar draws per sample.
    pub fn dimensions(&self) -> usize {
        let globals = [&self.tox_global, &self.vth_global, &self.supply]
            .iter()
            .filter(|f| f.active())
            .count();
        let locals = [&self.tox, &self.vth, &self.drive]
            .iter()
            .filter(|f| f.active())
            .count();
        globals + locals * Role::ALL.len()
    }

    fn validate(&self) -> Result<(), SramError> {
        self.tox.validate("tox")?;
        self.tox_global.validate("tox_global")?;
        self.vth.validate("vth")?;
        self.vth_global.validate("vth_global")?;
        self.drive.validate("drive")?;
        self.supply.validate("supply")
    }

    /// Draws one sample's full factor set from the σ-scaled proposal.
    /// Globals draw first, then per-role locals in [`Role::ALL`] order; a
    /// disabled factor consumes no RNG words. The draw *always* runs to
    /// completion — the stream position after a sample is independent of
    /// whether its values are valid.
    pub(crate) fn draw_raw(&self, rng: &mut StdRng, scale: f64) -> RawDraws {
        let mut weight = 1.0;
        let globals = [
            self.tox_global.draw(rng, scale, &mut weight),
            self.vth_global.draw(rng, scale, &mut weight),
            self.supply.draw(rng, scale, &mut weight),
        ];
        let mut locals = [[0.0; 3]; 7];
        for slot in &mut locals {
            *slot = [
                self.tox.draw(rng, scale, &mut weight),
                self.vth.draw(rng, scale, &mut weight),
                self.drive.draw(rng, scale, &mut weight),
            ];
        }
        RawDraws {
            globals,
            locals,
            weight,
        }
    }

    /// Assembles the per-transistor process points from raw draws,
    /// validating every factor combination against the device model's
    /// perturbative bounds. The *first* out-of-range role fails the sample.
    pub(crate) fn build_variations(
        &self,
        raw: &RawDraws,
        vdd: f64,
    ) -> Result<CellVariations, SramError> {
        // Supply droop → common-mode threshold shift (see the field docs).
        let supply_vth = -vdd * raw.globals[2];
        let mut variations = CellVariations::nominal();
        for (i, role) in Role::ALL.into_iter().enumerate() {
            let [l_tox, l_vth, l_drive] = raw.locals[i];
            let point = ProcessPoint::try_new(
                raw.globals[0] + l_tox,
                raw.globals[1] + l_vth + supply_vth,
                l_drive,
            )?;
            variations = variations.with(role, point);
        }
        Ok(variations)
    }

    /// The labeled draw list of a sample, for quarantine records — active
    /// factors only, in draw order.
    fn labeled_params(&self, raw: &RawDraws) -> Vec<(String, f64)> {
        let mut params = Vec::new();
        for (name, factor, value) in [
            ("global.tox", &self.tox_global, raw.globals[0]),
            ("global.vth", &self.vth_global, raw.globals[1]),
            ("global.supply", &self.supply, raw.globals[2]),
        ] {
            if factor.active() {
                params.push((name.to_string(), value));
            }
        }
        for (i, role) in Role::ALL.into_iter().enumerate() {
            for (suffix, factor, value) in [
                ("tox", &self.tox, raw.locals[i][0]),
                ("vth", &self.vth, raw.locals[i][1]),
                ("drive", &self.drive, raw.locals[i][2]),
            ] {
                if factor.active() {
                    params.push((format!("{}.{suffix}", role.label()), value));
                }
            }
        }
        params
    }
}

/// One sample's raw factor draws plus its importance weight.
pub(crate) struct RawDraws {
    /// `[tox_global, vth_global, supply]`.
    globals: [f64; 3],
    /// Per role (in [`Role::ALL`] order): `[tox, vth, drive]`.
    locals: [[f64; 3]; 7],
    weight: f64,
}

/// The failure event a yield study estimates the probability of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum YieldMetric {
    /// Write failure: `WL_crit` exceeds the wordline pulse budget the
    /// array's timing grants (an infinite `WL_crit` — an unwritable cell —
    /// always fails).
    WriteMargin {
        /// Longest wordline pulse the timing budget allows, s.
        budget: f64,
    },
    /// Read disturb: DRNM below the threshold (the classical stability
    /// condition is `DRNM < 0`).
    Drnm {
        /// Failure threshold, V.
        threshold: f64,
    },
}

impl YieldMetric {
    /// Stable metric label used in run reports.
    pub fn name(self) -> &'static str {
        match self {
            YieldMetric::WriteMargin { .. } => "write_margin",
            YieldMetric::Drnm { .. } => "drnm",
        }
    }
}

/// Configuration of a rare-event yield study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldConfig {
    /// Execution controls (seed, threads, minimum survivor fraction),
    /// shared with the brute-force Monte-Carlo layer.
    pub mc: McConfig,
    /// Samples to draw.
    pub n: usize,
    /// Proposal-widening factor σ′/σ applied to every active factor.
    /// `1.0` (the default) is brute force — weights are exactly 1.
    pub sigma_scale: f64,
    /// The factor variation model to sample.
    pub model: VariationModel,
}

impl YieldConfig {
    /// A brute-force (unscaled) study of the paper's t_ox-only model.
    pub fn new(n: usize, seed: u64) -> Self {
        YieldConfig {
            mc: McConfig::new(seed),
            n,
            sigma_scale: 1.0,
            model: VariationModel::paper(),
        }
    }

    /// Sets the proposal-widening factor (builder style).
    pub fn with_sigma_scale(mut self, scale: f64) -> Self {
        self.sigma_scale = scale;
        self
    }

    /// Sets the factor variation model (builder style).
    pub fn with_model(mut self, model: VariationModel) -> Self {
        self.model = model;
        self
    }

    /// Sets an explicit worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.mc.threads = Some(threads);
        self
    }

    fn validate(&self) -> Result<(), SramError> {
        if !(self.sigma_scale.is_finite() && self.sigma_scale >= 1.0) {
            return Err(SramError::InvalidParameter(format!(
                "sigma_scale {} must be finite and >= 1 (1 = brute force)",
                self.sigma_scale
            )));
        }
        if self.model.dimensions() == 0 {
            return Err(SramError::InvalidParameter(
                "variation model has no active factor".into(),
            ));
        }
        self.model.validate()
    }

    /// Sample `i`'s cell and importance weight. The draw always runs to
    /// completion before its factor combination is validated.
    fn draw(&self, base: &CellParams, i: usize) -> Result<(CellParams, f64), SramError> {
        let raw = self
            .model
            .draw_raw(&mut self.mc.sample_rng(i), self.sigma_scale);
        let variations = self.model.build_variations(&raw, base.vdd)?;
        Ok((base.clone().with_variations(variations), raw.weight))
    }

    /// Sample `i`'s labeled draws, replayed from its private stream — the
    /// exact draws the worker took.
    fn labeled(&self, i: usize) -> Vec<(String, f64)> {
        let raw = self
            .model
            .draw_raw(&mut self.mc.sample_rng(i), self.sigma_scale);
        self.model.labeled_params(&raw)
    }
}

/// One quarantined sample: excluded from the survivor statistics instead of
/// aborting the study. The `(study seed, index)` pair replays its private
/// RNG stream, so `params` is the *exact* process point it drew.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedSample {
    /// Sample index within the study.
    pub index: usize,
    /// Labeled draws of the active factors, in draw order: `global.vth`,
    /// `<role>.tox`, … with `<role>` a [`Role::label`]. A
    /// [`crate::montecarlo`] study records the seven `<role>.tox` draws.
    pub params: Vec<(String, f64)>,
    /// Why the sample was excluded: an out-of-validity-range draw or a
    /// failed simulation.
    pub error: SramError,
}

/// Result of a rare-event yield study.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldStudy {
    /// The failure event estimated.
    pub metric: YieldMetric,
    /// The proposal-widening factor the study ran at.
    pub sigma_scale: f64,
    /// Samples attempted.
    pub samples: usize,
    /// Samples that produced a verdict.
    pub survivors: usize,
    /// Raw (unweighted) count of failing survivors.
    pub failures: usize,
    /// Likelihood-ratio-weighted failure mass `Σ wᵢIᵢ`.
    pub weighted_failures: f64,
    /// Estimated tail failure probability `Σ wᵢIᵢ / survivors`; `None` when
    /// no sample survived.
    pub p_fail: Option<f64>,
    /// Standard error of the estimate (sample std of `wᵢIᵢ` over
    /// `√survivors`); `None` for fewer than two survivors.
    pub std_error: Option<f64>,
    /// Kish effective sample size `(Σw)²/Σw²` of the survivor weights;
    /// 0 when no sample survived.
    pub ess: f64,
    /// Weighted summary of the finite metric values (WL_crit in s, DRNM in
    /// V) over survivors; `None` when none is finite.
    pub metric_summary: Option<WeightedSummary>,
    /// Samples excluded from the estimate.
    pub quarantined: Vec<QuarantinedSample>,
}

impl YieldStudy {
    /// Array-level failure probability of `cells` independent cells under
    /// the estimated per-cell tail probability (binomial composition
    /// `1 − (1−p)^cells`, computed in log space for tiny `p`).
    pub fn array_fail_prob(&self, cells: u64) -> Option<f64> {
        self.p_fail.map(|p| array_fail_prob(p, cells))
    }
}

/// Binomial composition of a per-cell failure probability to an array of
/// `cells` independent cells: `1 − (1−p)^cells`, computed in log space so
/// p = 1e-9 over 64 kb does not round to zero.
pub fn array_fail_prob(p_cell: f64, cells: u64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p_cell),
        "per-cell failure probability {p_cell} outside [0, 1]"
    );
    if p_cell == 1.0 {
        return 1.0;
    }
    -(cells as f64 * (-p_cell).ln_1p()).exp_m1()
}

/// Array-level yield (probability every one of `cells` cells works).
pub fn array_yield(p_cell: f64, cells: u64) -> f64 {
    1.0 - array_fail_prob(p_cell, cells)
}

/// How one study family reports into the observability layer: the
/// Monte-Carlo studies under `mc.*`, the yield studies under `yield.*`.
pub(crate) struct Reporting {
    /// Histogram of each `WL_crit` sample's Newton solves.
    solves: &'static str,
    /// Histogram of each `WL_crit` sample's Newton iterations, if kept.
    iters: Option<&'static str>,
    /// Counter of quarantined samples.
    quarantined: &'static str,
    /// Whether each quarantined sample also writes an `mc_quarantine`
    /// forensics bundle.
    bundles: bool,
}

impl Reporting {
    /// The §4.3 Monte-Carlo studies.
    pub(crate) const MC: Reporting = Reporting {
        solves: "mc.sample_newton_solves",
        iters: Some("mc.sample_newton_iters"),
        quarantined: "mc.quarantined",
        bundles: true,
    };
    /// The rare-event yield studies.
    const YIELD: Reporting = Reporting {
        solves: "yield.sample_newton_solves",
        iters: None,
        quarantined: "yield.quarantined",
        bundles: false,
    };
}

/// The single-cell measurement a sampling study takes per sample.
#[derive(Clone, Copy)]
pub(crate) enum Probe {
    /// Critical wordline pulse width, s; an infinite `WL_crit` (the write
    /// fails outright) measures as `f64::INFINITY`.
    WlCrit(Option<WriteAssist>),
    /// Dynamic read noise margin, V.
    Drnm(Option<ReadAssist>),
}

/// A worker's compiled experiment, re-bound per sample. The circuit is a
/// pure cache (waveforms and initial conditions never depend on the process
/// point), so values are bit-identical to a build-per-sample loop.
enum Compiled {
    Write(WriteExperiment),
    Read(ReadExperiment),
}

impl Compiled {
    /// Runs the probe on the bound sample. Records the per-sample solve
    /// cost of a `WL_crit` search as histograms, so outlier samples stand
    /// out.
    fn measure(&mut self, hint: Option<f64>, reporting: &Reporting) -> Result<f64, SramError> {
        let exp = match self {
            Compiled::Write(exp) => exp,
            Compiled::Read(exp) => return Ok(read_metrics_compiled(exp)?.drnm),
        };
        let run = wl_crit_compiled(exp, hint)?;
        tfet_obs::record_u64(reporting.solves, run.effort.newton_solves);
        if let Some(iters) = reporting.iters {
            tfet_obs::record_u64(iters, run.effort.newton_iters);
        }
        match run.value {
            WlCrit::Finite(w) => Ok(w),
            WlCrit::Infinite => Ok(f64::INFINITY),
            // An unbracketable search is a failed sample, not a verdict.
            WlCrit::Unbracketable => Err(run.failure.unwrap_or_else(|| SramError::Undefined {
                metric: "WL_crit",
                reason: "unbracketable search with no recorded cause".into(),
            })),
        }
    }
}

/// The sampling loop behind every Monte-Carlo and yield study: fans the
/// draws of `cfg` out over workers (each compiles one experiment, then
/// re-binds it), folds the outcomes in index order, publishes the
/// quarantine, hands survivors — `(importance weight, measurement)` pairs,
/// the weight 1 for brute force — and quarantine to `summarize`, then
/// enforces `min_yield`. `reporting` names the study family's histograms,
/// counter and bundles.
#[allow(clippy::too_many_arguments)] // one call per study reads best as a flat list
pub(crate) fn sample_study<R>(
    study: &'static str,
    sample_span: &'static str,
    reporting: &Reporting,
    cfg: &YieldConfig,
    probe: Probe,
    topo: &CellTopology,
    base: &CellParams,
    summarize: impl FnOnce(Vec<(f64, f64)>, Vec<QuarantinedSample>) -> R,
) -> Result<R, SramError> {
    let _span = tfet_obs::span(study);
    // Seed every sample's bisection from the *nominal* cell's WL_crit,
    // computed once before the fan-out and shared — never chained sample to
    // sample. A failing nominal cell yields no hint: samples search cold.
    let hint = match probe {
        Probe::WlCrit(assist) => WriteExperiment::compile_on(topo, base, assist)
            .ok()
            .and_then(|mut exp| wl_crit_compiled(&mut exp, None).ok())
            .and_then(|run| run.value.as_finite()),
        Probe::Drnm(_) => None,
    };
    let outcomes = tfet_numerics::parallel::par_map_with(
        cfg.n,
        cfg.mc.threads,
        || None,
        |slot, i| {
            // A *root* span: at one worker the sample runs inline under the
            // `study` span, at many on a fresh thread — pinning the path keeps
            // the span tree thread-count invariant.
            let _span = tfet_obs::root_span(sample_span);
            // The experiment returns to the slot only after a clean sample: a
            // failed one must not poison the worker's cache, so later samples
            // behave exactly as on a fresh worker, whatever the scheduling.
            let cached = slot.take();
            let (params, weight) = cfg.draw(base, i)?;
            let mut exp = match (cached, probe) {
                (Some(Compiled::Write(mut exp)), _) => {
                    exp.bind_cell(&params).map(|_| Compiled::Write(exp))
                }
                (Some(Compiled::Read(mut exp)), _) => {
                    exp.bind_cell(&params).map(|_| Compiled::Read(exp))
                }
                (None, Probe::WlCrit(a)) => {
                    WriteExperiment::compile_on(topo, &params, a).map(Compiled::Write)
                }
                (None, Probe::Drnm(a)) => {
                    ReadExperiment::compile_on(topo, &params, a).map(Compiled::Read)
                }
            }?;
            let value = exp.measure(hint, reporting)?;
            *slot = Some(exp);
            Ok((weight, value))
        },
    );
    let (survivors, quarantined) = fold_outcomes(cfg, outcomes);
    let kept = survivors.len();
    publish_quarantine(study, reporting, cfg.mc.seed, &quarantined);
    let result = summarize(survivors, quarantined);
    check_yield(kept, cfg.n, &cfg.mc)?;
    Ok(result)
}

/// Splits per-sample outcomes (in index order) into survivors and
/// quarantined samples, each labeled with the draws it replays to.
pub(crate) fn fold_outcomes<T>(
    cfg: &YieldConfig,
    outcomes: Vec<Result<T, SramError>>,
) -> (Vec<T>, Vec<QuarantinedSample>) {
    let mut survivors = Vec::with_capacity(outcomes.len());
    let mut quarantined = Vec::new();
    for (index, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(v) => survivors.push(v),
            Err(error) => quarantined.push(QuarantinedSample {
                index,
                params: cfg.labeled(index),
                error,
            }),
        }
    }
    (survivors, quarantined)
}

/// Publishes quarantined samples — the family's counter, one run-report
/// record each, and an `mc_quarantine` forensics bundle each where the
/// family writes bundles — on the caller's thread in index order, so traces
/// are thread-count invariant.
fn publish_quarantine(
    study: &'static str,
    reporting: &Reporting,
    seed: u64,
    quarantined: &[QuarantinedSample],
) {
    if quarantined.is_empty() || !tfet_obs::enabled() {
        return;
    }
    tfet_obs::counter(reporting.quarantined, quarantined.len() as u64);
    for q in quarantined {
        tfet_obs::quarantine(tfet_obs::QuarantineRecord {
            study,
            index: q.index as u64,
            seed,
            params: q.params.clone(),
            error: q.error.to_string(),
        });
        if reporting.bundles {
            tfet_obs::forensics::submit(
                &tfet_obs::forensics::Bundle::new("mc_quarantine")
                    .text("study", study)
                    .int("sample_index", q.index as u64)
                    .int("seed", seed)
                    .text("error", q.error.to_string())
                    .named_nums("tox_deviations", &q.params),
            );
        }
    }
}

/// Converts excessive quarantine into a typed error: with `min_yield > 0`,
/// a survivor fraction strictly below it aborts the study.
pub(crate) fn check_yield(survivors: usize, total: usize, mc: &McConfig) -> Result<(), SramError> {
    let min_yield = mc.min_yield;
    if total > 0 && (survivors as f64) < min_yield * total as f64 {
        return Err(SramError::LowYield {
            survivors,
            total,
            min_yield,
        });
    }
    Ok(())
}

/// Estimates the write-failure tail probability: the fraction of process
/// space where `WL_crit` exceeds `budget` seconds (or the write fails
/// outright), under the study's variation model and proposal scaling.
///
/// # Errors
///
/// Per-sample failures (out-of-validity draws, simulation failures) are
/// quarantined, not propagated. Returns [`SramError::InvalidParameter`] for
/// a malformed configuration and [`SramError::LowYield`] when survivors
/// fall below [`McConfig::min_yield`].
pub fn yield_write(
    base: &CellParams,
    assist: Option<WriteAssist>,
    budget: f64,
    cfg: &YieldConfig,
) -> Result<YieldStudy, SramError> {
    cfg.validate()?;
    if !(budget > 0.0 && budget.is_finite()) {
        return Err(SramError::InvalidParameter(format!(
            "write budget {budget} must be positive and finite"
        )));
    }
    let metric = YieldMetric::WriteMargin { budget };
    sample_study(
        "yield_write",
        "yield_sample_write",
        &Reporting::YIELD,
        cfg,
        Probe::WlCrit(assist),
        &CellTopology::builtin(base.kind),
        base,
        |survivors, quarantined| estimate("yield_write", metric, cfg, survivors, quarantined),
    )
}

/// Estimates the read-disturb tail probability: the fraction of process
/// space where the DRNM falls below `threshold` volts, under the study's
/// variation model and proposal scaling.
///
/// # Errors
///
/// As [`yield_write`].
pub fn yield_read(
    base: &CellParams,
    assist: Option<ReadAssist>,
    threshold: f64,
    cfg: &YieldConfig,
) -> Result<YieldStudy, SramError> {
    cfg.validate()?;
    if !threshold.is_finite() {
        return Err(SramError::InvalidParameter(format!(
            "DRNM threshold {threshold} must be finite"
        )));
    }
    let metric = YieldMetric::Drnm { threshold };
    sample_study(
        "yield_read",
        "yield_sample_read",
        &Reporting::YIELD,
        cfg,
        Probe::Drnm(assist),
        &CellTopology::builtin(base.kind),
        base,
        |survivors, quarantined| estimate("yield_read", metric, cfg, survivors, quarantined),
    )
}

/// Folds the survivors' `(weight, measurement)` pairs (in index order) into
/// the study estimate and publishes it into the observability layer.
fn estimate(
    study: &'static str,
    metric: YieldMetric,
    cfg: &YieldConfig,
    kept: Vec<(f64, f64)>,
    quarantined: Vec<QuarantinedSample>,
) -> YieldStudy {
    // An infinite WL_crit (unwritable cell) always fails.
    let fails = |v: f64| match metric {
        YieldMetric::WriteMargin { budget } => v > budget,
        YieldMetric::Drnm { threshold } => v < threshold,
    };
    let weighted_indicators: Vec<f64> = kept
        .iter()
        .map(|&(w, v)| if fails(v) { w } else { 0.0 })
        .collect();
    let (metric_values, metric_weights): (Vec<f64>, Vec<f64>) = kept
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|&(w, v)| (v, w))
        .unzip();
    let survivors = kept.len();
    let weighted_failures: f64 = weighted_indicators.iter().sum();
    let p_fail = (survivors > 0).then(|| weighted_failures / survivors as f64);
    let std_error = p_fail.filter(|_| survivors > 1).map(|p| {
        let var = weighted_indicators
            .iter()
            .map(|wi| (wi - p) * (wi - p))
            .sum::<f64>()
            / (survivors - 1) as f64;
        (var / survivors as f64).sqrt()
    });
    let ess = if survivors == 0 {
        0.0
    } else {
        let sum: f64 = kept.iter().map(|(w, _)| w).sum();
        let sum_sq: f64 = kept.iter().map(|(w, _)| w * w).sum();
        sum * sum / sum_sq
    };
    let result = YieldStudy {
        metric,
        sigma_scale: cfg.sigma_scale,
        samples: cfg.n,
        survivors,
        failures: kept.iter().filter(|&&(_, v)| fails(v)).count(),
        weighted_failures,
        p_fail,
        std_error,
        ess,
        metric_summary: WeightedSummary::try_of(&metric_values, &metric_weights),
        quarantined,
    };
    publish_study(study, cfg, &result);
    result
}

/// Publishes the study into the observability layer: its counters and the
/// run-report `yield` record, from the coordinating thread.
fn publish_study(study: &'static str, cfg: &YieldConfig, result: &YieldStudy) {
    if !tfet_obs::enabled() {
        return;
    }
    tfet_obs::counter("yield.samples", result.samples as u64);
    tfet_obs::counter("yield.failures", result.failures as u64);
    tfet_obs::yield_study(tfet_obs::YieldStudyRecord {
        study,
        metric: result.metric.name(),
        seed: cfg.mc.seed,
        sigma_scale: result.sigma_scale,
        samples: result.samples as u64,
        survivors: result.survivors as u64,
        failures: result.failures as u64,
        quarantined: result.quarantined.len() as u64,
        p_fail: result.p_fail.unwrap_or(f64::NAN),
        std_error: result.std_error.unwrap_or(f64::NAN),
        ess: result.ess,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::{mc_drnm_topo, mc_wl_crit};
    use crate::tech::AccessConfig;
    use tfet_numerics::Summary;

    /// The paper's proposed cell with coarsened solver settings (the same
    /// trade the Monte-Carlo tests make: statistics over resolution).
    fn base() -> CellParams {
        let mut p = CellParams::tfet6t(AccessConfig::InwardP)
            .with_beta(0.6)
            .with_vdd(0.8);
        p.sim.dt = 2e-12;
        p.sim.pulse_tol = 8e-12;
        p
    }

    /// Mismatch model used by the statistical tests: the paper's t_ox
    /// factor plus per-transistor Vth mismatch.
    fn vth_model(sigma: f64) -> VariationModel {
        VariationModel::paper().with_vth(sigma, 8.0 * sigma)
    }

    #[test]
    fn array_composition_is_stable_for_tiny_p() {
        assert_eq!(array_fail_prob(0.0, 65536), 0.0);
        assert_eq!(array_fail_prob(1.0, 65536), 1.0);
        let p = array_fail_prob(1e-9, 65536);
        // 1 - (1-1e-9)^65536 ~= 6.55e-5; naive arithmetic would lose it.
        assert!((p - 6.5534e-5).abs() < 1e-8, "p = {p:e}");
        assert!((array_yield(1e-9, 65536) - (1.0 - p)).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn array_composition_rejects_bad_probability() {
        let _ = array_fail_prob(1.5, 64);
    }

    #[test]
    fn model_dimensions_count_active_factors() {
        assert_eq!(VariationModel::paper().dimensions(), 7);
        assert_eq!(vth_model(0.01).dimensions(), 14);
        assert_eq!(
            vth_model(0.01).with_supply(0.05, 0.2).dimensions(),
            15,
            "supply is one global dimension"
        );
    }

    #[test]
    fn config_validation_rejects_bad_setups() {
        let base = base();
        let narrow = YieldConfig::new(4, 1).with_sigma_scale(0.5);
        assert!(matches!(
            yield_read(&base, None, 0.0, &narrow),
            Err(SramError::InvalidParameter(_))
        ));
        let empty = YieldConfig::new(4, 1).with_model(VariationModel {
            tox: Factor::OFF,
            tox_global: Factor::OFF,
            vth: Factor::OFF,
            vth_global: Factor::OFF,
            drive: Factor::OFF,
            supply: Factor::OFF,
        });
        assert!(matches!(
            yield_read(&base, None, 0.0, &empty),
            Err(SramError::InvalidParameter(_))
        ));
        assert!(matches!(
            yield_write(&base, None, -1.0, &YieldConfig::new(4, 1)),
            Err(SramError::InvalidParameter(_))
        ));
    }

    #[test]
    fn brute_force_samples_the_montecarlo_process_space() {
        // At sigma_scale 1 with the paper model, a yield study draws the
        // exact per-role t_ox deviations of `montecarlo` (same per-sample
        // streams, same draw order) and evaluates them identically — on a
        // cached-LUT cell too, whose t_ox-only points read the shared tables.
        for base in [base(), base().with_lut_devices()] {
            let n = 6;
            let cfg = YieldConfig::new(n, 77);
            let study = yield_read(&base, None, -1.0, &cfg).expect("study runs");
            let topo = CellTopology::builtin(base.kind);
            let mc = mc_drnm_topo(&topo, &base, None, n, cfg.mc).expect("mc runs");
            let summary = study.metric_summary.expect("all samples finite");
            let reference = Summary::of(&mc.values);
            assert_eq!(summary.n, n);
            assert_eq!(summary.min, reference.min, "{:?}: same values", base.eval);
            assert_eq!(summary.max, reference.max);
            assert!((summary.mean - reference.mean).abs() < 1e-12);
        }
    }

    #[test]
    fn brute_force_write_matches_montecarlo_wl_crit() {
        // The write twin of the read cross-check: under a 1 s budget only an
        // infinite WL_crit fails, so failures are the Monte-Carlo study's
        // infinite verdicts, and finite values are the same draws' values.
        let cfg = YieldConfig::new(4, 77).with_model(VariationModel::paper());
        let study = yield_write(&base(), None, 1.0, &cfg).expect("study runs");
        let mc = mc_wl_crit(&base(), None, 4, 77).expect("mc runs");
        let (summary, reference) = (study.metric_summary.unwrap(), Summary::of(&mc.values));
        assert_eq!(summary.n, mc.values.len());
        assert_eq!(summary.min, reference.min, "same draws, same values");
        assert_eq!(summary.max, reference.max);
        assert_eq!(study.failures, mc.failures, "infinite verdicts agree");
    }

    #[test]
    fn scale_one_weights_are_exactly_unit() {
        let study = yield_read(&base(), None, 0.38, &YieldConfig::new(8, 3)).expect("study runs");
        assert_eq!(study.survivors, 8);
        assert_eq!(study.ess, 8.0, "unit weights make ESS == n exactly");
        assert_eq!(study.weighted_failures, study.failures as f64);
        assert_eq!(
            study.p_fail,
            Some(study.failures as f64 / study.survivors as f64)
        );
    }

    #[test]
    fn estimate_is_thread_invariant() {
        let cfg = YieldConfig::new(16, 2011)
            .with_model(vth_model(0.007))
            .with_sigma_scale(2.5);
        let serial = yield_read(&base(), None, 0.2, &cfg.with_threads(1)).expect("serial");
        let parallel = yield_read(&base(), None, 0.2, &cfg.with_threads(8)).expect("parallel");
        assert_eq!(serial, parallel, "estimate, SE and ESS are bit-identical");
    }

    #[test]
    fn importance_sampling_agrees_with_brute_force_at_two_sigma() {
        // The cross-check of the ISSUE: at a moderately rare event
        // (P ~ 6 % under t_ox + 7 mV Vth mismatch), the re-weighted
        // 2x-scaled estimator and plain Monte-Carlo must agree within
        // three combined standard errors.
        let base = base();
        let model = vth_model(0.007);
        let brute_cfg = YieldConfig::new(128, 2011).with_model(model);
        let is_cfg = YieldConfig::new(128, 2012)
            .with_model(model)
            .with_sigma_scale(2.0);
        let brute = yield_read(&base, None, 0.2, &brute_cfg).expect("brute");
        let is = yield_read(&base, None, 0.2, &is_cfg).expect("is");
        let (pb, pi) = (brute.p_fail.unwrap(), is.p_fail.unwrap());
        let (seb, sei) = (brute.std_error.unwrap(), is.std_error.unwrap());
        assert!(brute.failures > 0, "event must be visible to brute force");
        assert!(is.failures > brute.failures, "widening multiplies hits");
        let combined = (seb * seb + sei * sei).sqrt();
        assert!(
            (pb - pi).abs() <= 3.0 * combined,
            "brute {pb:.4e} (se {seb:.1e}) vs IS {pi:.4e} (se {sei:.1e})"
        );
        assert_eq!(brute.ess, 128.0);
        assert!(is.ess < 128.0, "weight spread must show in the ESS");
    }

    #[test]
    fn six_sigma_scaling_quarantines_out_of_validity_draws() {
        // A model whose truncation bound (0.36 V) deliberately exceeds the
        // device model's perturbative range (0.3 V): under sigma_scale 6
        // the proposal regularly lands in the gap. The study must complete
        // with those samples quarantined — typed error, labeled draws —
        // not panic.
        let cfg = YieldConfig::new(32, 9)
            .with_model(VariationModel::paper().with_vth(0.03, 0.36))
            .with_sigma_scale(6.0);
        let study = yield_read(&base(), None, 0.2, &cfg).expect("study completes");
        assert!(!study.quarantined.is_empty(), "some draws must exceed 0.3");
        assert!(study.survivors > 0, "most samples stay in range");
        assert_eq!(study.survivors + study.quarantined.len(), 32);
        assert!(study.p_fail.is_some());
        for q in &study.quarantined {
            assert!(q.index < 32);
            assert_eq!(q.params.len(), 14, "one draw per active dimension");
            assert!(
                q.params
                    .iter()
                    .any(|(name, v)| { name.ends_with(".vth") && v.abs() >= 0.3 }),
                "quarantine must carry the offending draw: {:?}",
                q.params
            );
            assert!(matches!(q.error, SramError::InvalidParameter(_)));
        }
    }
}
