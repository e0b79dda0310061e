//! Monte-Carlo process-variation analysis (paper §4.3).
//!
//! The paper restricts variation to the gate-insulator thickness,
//! "controlled to within 5 % using novel fabrication techniques", and runs
//! Monte-Carlo over the cell to obtain `WL_crit` and DRNM distributions.
//! [`sample_variations`] draws an independent truncated-Gaussian thickness
//! deviation for every transistor in the cell; [`mc_wl_crit`] /
//! [`mc_drnm`] run the metric per sample.
//!
//! # Parallelism and determinism
//!
//! Samples are independent, so the study fans out over worker threads
//! ([`McConfig::threads`]). Each sample owns a *counter-based RNG stream* —
//! `StdRng` seeded from a mix of the study seed and the sample index — so
//! sample `i` draws the same variations no matter which worker runs it or
//! how many workers exist. Results are collected in sample order: a study is
//! bit-identical at any thread count, including the serial path.
//!
//! # Graceful degradation
//!
//! A sample whose simulation fails no longer aborts the study. It is
//! *quarantined*: excluded from the survivor statistics and recorded — with
//! its index, the exact process point it drew, and the structured error —
//! in [`McWlCrit::quarantined`] / [`McDrnm::quarantined`], in the run
//! report's `quarantined` section, and (when tracing is on) as a
//! `mc_quarantine` forensics bundle. The quarantine set is deterministic:
//! outcomes are folded in sample order on the caller's thread, so it is
//! bit-identical at any worker count and the RNG streams of surviving
//! samples are untouched. [`McConfig::min_yield`] converts excessive
//! quarantine into a typed [`SramError::LowYield`] error.
//!
//! Each study is a thin wrapper over the sampling loop of [`crate::rare_event`].

use crate::assist::{ReadAssist, WriteAssist};
use crate::error::SramError;
use crate::rare_event::{sample_study, Probe, QuarantinedSample, Sampler};
use crate::tech::{CellParams, CellVariations, Role};
use crate::topology::CellTopology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tfet_devices::ProcessVariation;

/// The paper's fabrication-control bound: ±5 % gate-oxide thickness.
pub const TOX_BOUND: f64 = 0.05;

/// Standard deviation of the thickness draw before truncation. With
/// σ = 2.5 % and truncation at ±5 % (2σ), most mass is Gaussian with the
/// fabrication bound enforced — the natural reading of "controlled to
/// within 5 %".
pub const TOX_SIGMA: f64 = 0.025;

/// Retry budget of the accept-reject stage in [`draw_truncated_normal`].
/// At the default σ = 2.5 % / bound = 5 % (2σ truncation) a single draw is
/// rejected with probability ≈ 0.0455, so exhausting 64 retries has
/// probability ≈ 1e-86 — the analytic fallback is unreachable in practice
/// and exists to make the worst case bounded, not to change the
/// distribution.
pub const DRAW_RETRIES: usize = 64;

/// Draws from a centered Gaussian with standard deviation `sigma`,
/// truncated to `[-bound, bound]`.
///
/// The fast path is bounded accept-reject (Box–Muller from two uniforms,
/// avoiding a `rand_distr` dependency); after [`DRAW_RETRIES`] rejections it
/// falls back to exact inverse-CDF sampling through the analytic truncated
/// mass — every call consumes a bounded number of RNG words and the sampled
/// law is the truncated normal either way. The truncation constant the
/// importance-sampling layer must carry in its likelihood ratios is
/// [`tfet_numerics::gaussian_mass_within`]`(sigma, bound)`.
pub fn draw_truncated_normal(rng: &mut StdRng, sigma: f64, bound: f64) -> f64 {
    for _ in 0..DRAW_RETRIES {
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let dev = z * sigma;
        if dev.abs() <= bound {
            return dev;
        }
    }
    // Exact fallback: map one uniform through the truncated CDF
    // F⁻¹(Φ(−b/σ) + u·Z). The clamp only guards the last-ulp rounding of
    // the inverse CDF at the interval ends.
    let u: f64 = rng.random::<f64>();
    let mass = tfet_numerics::gaussian_mass_within(sigma, bound);
    let lo = tfet_numerics::norm_cdf(-bound / sigma);
    (sigma * tfet_numerics::inv_norm_cdf(lo + u * mass)).clamp(-bound, bound)
}

/// Draws a truncated-Gaussian deviation in `[-TOX_BOUND, TOX_BOUND]`.
fn draw_deviation(rng: &mut StdRng) -> f64 {
    draw_truncated_normal(rng, TOX_SIGMA, TOX_BOUND)
}

/// Draws an independent process point for every transistor role.
pub fn sample_variations(rng: &mut StdRng) -> CellVariations {
    let mut v = CellVariations::nominal();
    for role in Role::ALL {
        v = v.with(role, ProcessVariation::from_deviation(draw_deviation(rng)));
    }
    v
}

/// A sample's per-role t_ox deviations, labeled by [`Role::label`] in
/// [`Role::ALL`] order — the `params` of a quarantined Monte-Carlo sample.
pub(crate) fn role_deviations(v: &CellVariations) -> Vec<(String, f64)> {
    Role::ALL
        .iter()
        .map(|&role| (role.label().to_string(), v.of(role).deviation()))
        .collect()
}

/// Execution controls for a Monte-Carlo study.
///
/// ```
/// use tfet_sram::montecarlo::McConfig;
///
/// let cfg = McConfig::new(42).with_threads(4).with_min_yield(0.9);
/// assert_eq!(cfg.seed, 42);
/// assert_eq!(cfg.threads, Some(4));
/// assert_eq!(cfg.min_yield, 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Worker-thread count; `None` uses the machine default (respecting the
    /// `RAYON_NUM_THREADS` environment variable). Results are identical for
    /// every setting.
    pub threads: Option<usize>,
    /// Study seed. Sample `i` derives its private RNG stream from
    /// `(seed, i)`, so the seed pins the entire study.
    pub seed: u64,
    /// Minimum acceptable survivor fraction. A study whose yield (samples
    /// that produced a result, over samples attempted) falls strictly below
    /// this returns [`SramError::LowYield`] instead of silently summarizing
    /// a biased remnant. The default `0.0` never rejects.
    pub min_yield: f64,
}

impl McConfig {
    /// A configuration with the given seed and default threading.
    pub fn new(seed: u64) -> Self {
        McConfig {
            threads: None,
            seed,
            min_yield: 0.0,
        }
    }

    /// Sets an explicit worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the minimum acceptable survivor fraction (builder style).
    pub fn with_min_yield(mut self, min_yield: f64) -> Self {
        self.min_yield = min_yield;
        self
    }

    /// The RNG for one sample: an independent stream derived from the study
    /// seed and the sample index with a SplitMix64-style mix, so adjacent
    /// indices land far apart in state space.
    pub fn sample_rng(&self, index: usize) -> StdRng {
        let mut z = self
            .seed
            .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig::new(0)
    }
}

/// Outcome counts of a Monte-Carlo `WL_crit` study.
#[derive(Debug, Clone, PartialEq)]
pub struct McWlCrit {
    /// Finite critical pulse widths, s (one per non-failing sample).
    pub values: Vec<f64>,
    /// Samples whose write failed outright (infinite `WL_crit`) — the
    /// paper's verdict against wordline-lowering WA under variation.
    pub failures: usize,
    /// Samples that produced no verdict at all: their simulation failed
    /// (see the module docs on graceful degradation). An infinite `WL_crit`
    /// is a *verdict*, counted in `failures`, not here.
    pub quarantined: Vec<QuarantinedSample>,
}

impl McWlCrit {
    /// Fraction of failing samples among those that produced a verdict.
    pub fn failure_rate(&self) -> f64 {
        let n = self.values.len() + self.failures;
        if n == 0 {
            0.0
        } else {
            self.failures as f64 / n as f64
        }
    }

    /// Fraction of samples that produced a verdict (finite or infinite
    /// `WL_crit`); `1.0` for an empty study.
    pub fn yield_fraction(&self) -> f64 {
        yield_fraction(
            self.values.len() + self.failures,
            self.values.len() + self.failures + self.quarantined.len(),
        )
    }
}

/// Outcome of a Monte-Carlo DRNM study: survivor margins plus the
/// quarantined samples (see the module docs on graceful degradation).
#[derive(Debug, Clone, PartialEq)]
pub struct McDrnm {
    /// DRNM of each surviving sample, V.
    pub values: Vec<f64>,
    /// Samples whose simulation failed.
    pub quarantined: Vec<QuarantinedSample>,
}

impl McDrnm {
    /// Fraction of samples that produced a margin; `1.0` for an empty study.
    pub fn yield_fraction(&self) -> f64 {
        yield_fraction(
            self.values.len(),
            self.values.len() + self.quarantined.len(),
        )
    }
}

fn yield_fraction(survivors: usize, total: usize) -> f64 {
    if total == 0 {
        1.0
    } else {
        survivors as f64 / total as f64
    }
}

/// Runs an `n`-sample Monte-Carlo of `WL_crit` with the given assist.
/// Deterministic for a fixed `seed`; equivalent to [`mc_wl_crit_with`] with
/// default threading.
///
/// # Errors
///
/// Never errors on per-sample simulation failures — those samples are
/// quarantined (an *infinite* `WL_crit` is a data point, not an error, and
/// not a quarantine either). The default configuration has `min_yield = 0`,
/// so [`SramError::LowYield`] cannot occur here.
pub fn mc_wl_crit(
    base: &CellParams,
    assist: Option<WriteAssist>,
    n: usize,
    seed: u64,
) -> Result<McWlCrit, SramError> {
    mc_wl_crit_with(base, assist, n, McConfig::new(seed))
}

/// Runs an `n`-sample Monte-Carlo of `WL_crit` under explicit execution
/// controls. Samples fan out over [`McConfig::threads`] workers; the result
/// is bit-identical at any thread count (see the module docs).
///
/// # Errors
///
/// Per-sample simulation failures are quarantined, not propagated. Returns
/// [`SramError::LowYield`] when the fraction of samples producing a verdict
/// falls below [`McConfig::min_yield`].
pub fn mc_wl_crit_with(
    base: &CellParams,
    assist: Option<WriteAssist>,
    n: usize,
    config: McConfig,
) -> Result<McWlCrit, SramError> {
    mc_wl_crit_topo(&CellTopology::builtin(base.kind), base, assist, n, config)
}

/// [`mc_wl_crit_with`] for an explicit topology — Monte-Carlo `WL_crit` on
/// a cell that exists only as an imported `.subckt`. Variations bind to
/// devices by [`Role`], so an imported 6T sees exactly the process space a
/// generated one does.
///
/// # Errors
///
/// As [`mc_wl_crit_with`].
pub fn mc_wl_crit_topo(
    topo: &CellTopology,
    base: &CellParams,
    assist: Option<WriteAssist>,
    n: usize,
    config: McConfig,
) -> Result<McWlCrit, SramError> {
    sample_study(
        "mc_wl_crit",
        "mc_sample_wl_crit",
        Sampler::Paper { n, mc: config },
        Probe::WlCrit(assist),
        topo,
        base,
        |survivors, quarantined| {
            let (values, infinite): (Vec<f64>, Vec<f64>) = survivors
                .into_iter()
                .map(|(_, w)| w)
                .partition(|w| w.is_finite());
            let failures = infinite.len();
            McWlCrit {
                values,
                failures,
                quarantined,
            }
        },
    )
}

/// Runs an `n`-sample Monte-Carlo of the DRNM with the given assist.
/// Deterministic for a fixed `seed`; equivalent to [`mc_drnm_with`] with
/// default threading.
///
/// # Errors
///
/// Never errors on per-sample simulation failures — those samples are
/// quarantined. The default configuration has `min_yield = 0`, so
/// [`SramError::LowYield`] cannot occur here.
pub fn mc_drnm(
    base: &CellParams,
    assist: Option<ReadAssist>,
    n: usize,
    seed: u64,
) -> Result<McDrnm, SramError> {
    mc_drnm_with(base, assist, n, McConfig::new(seed))
}

/// Runs an `n`-sample Monte-Carlo of the DRNM under explicit execution
/// controls. Bit-identical at any thread count.
///
/// # Errors
///
/// Per-sample simulation failures are quarantined, not propagated. Returns
/// [`SramError::LowYield`] when the survivor fraction falls below
/// [`McConfig::min_yield`].
pub fn mc_drnm_with(
    base: &CellParams,
    assist: Option<ReadAssist>,
    n: usize,
    config: McConfig,
) -> Result<McDrnm, SramError> {
    mc_drnm_topo(&CellTopology::builtin(base.kind), base, assist, n, config)
}

/// [`mc_drnm_with`] for an explicit topology — Monte-Carlo DRNM on a cell
/// that exists only as an imported `.subckt`.
///
/// # Errors
///
/// As [`mc_drnm_with`].
pub fn mc_drnm_topo(
    topo: &CellTopology,
    base: &CellParams,
    assist: Option<ReadAssist>,
    n: usize,
    config: McConfig,
) -> Result<McDrnm, SramError> {
    sample_study(
        "mc_drnm",
        "mc_sample_drnm",
        Sampler::Paper { n, mc: config },
        Probe::Drnm(assist),
        topo,
        base,
        |survivors, quarantined| McDrnm {
            values: survivors.into_iter().map(|(_, v)| v).collect(),
            quarantined,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rare_event::{check_yield, fold_outcomes};
    use crate::tech::{AccessConfig, CellKind};
    use tfet_numerics::Summary;

    fn fast(params: CellParams) -> CellParams {
        let mut p = params;
        p.sim.dt = 2e-12;
        p.sim.pulse_tol = 8e-12;
        p
    }

    #[test]
    fn deviations_respect_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let d = draw_deviation(&mut rng);
            assert!(d.abs() <= TOX_BOUND);
        }
    }

    #[test]
    fn deviations_have_expected_spread() {
        let mut rng = StdRng::seed_from_u64(11);
        let draws: Vec<f64> = (0..4000).map(|_| draw_deviation(&mut rng)).collect();
        let s = Summary::of(&draws);
        assert!(s.mean.abs() < 0.003, "mean = {}", s.mean);
        assert!((s.std_dev - TOX_SIGMA).abs() < 0.005, "std = {}", s.std_dev);
    }

    #[test]
    fn truncated_sampler_fallback_respects_bound() {
        // sigma >> bound starves the accept-reject phase (acceptance
        // ~ 0.2 % per try), forcing the inverse-CDF fallback on most
        // draws; every draw must still land inside the bound.
        let mut rng = StdRng::seed_from_u64(5);
        let draws: Vec<f64> = (0..500)
            .map(|_| draw_truncated_normal(&mut rng, 5.0, 0.01))
            .collect();
        assert!(draws.iter().all(|d| d.abs() <= 0.01));
        // A heavily truncated Gaussian is near-uniform on the bound: the
        // spread must reflect the truncation, not the nominal sigma.
        let s = Summary::of(&draws);
        assert!(s.std_dev < 0.01, "std = {}", s.std_dev);
        assert!(s.std_dev > 0.004, "std = {}", s.std_dev);
    }

    #[test]
    fn truncated_sampler_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(21);
        let mut b = StdRng::seed_from_u64(21);
        for _ in 0..200 {
            // Both the Box-Muller accept path and (with the wide sigma)
            // the fallback path must replay bit-identically.
            assert_eq!(
                draw_truncated_normal(&mut a, TOX_SIGMA, TOX_BOUND),
                draw_truncated_normal(&mut b, TOX_SIGMA, TOX_BOUND)
            );
            assert_eq!(
                draw_truncated_normal(&mut a, 2.0, 0.05),
                draw_truncated_normal(&mut b, 2.0, 0.05)
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let va = sample_variations(&mut a);
        let vb = sample_variations(&mut b);
        for role in Role::ALL {
            assert_eq!(va.of(role), vb.of(role));
        }
    }

    #[test]
    fn samples_differ_across_roles() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = sample_variations(&mut rng);
        let devs: Vec<f64> = Role::ALL.iter().map(|&r| v.of(r).deviation()).collect();
        let distinct = devs
            .iter()
            .filter(|&&d| (d - devs[0]).abs() > 1e-12)
            .count();
        assert!(distinct > 0, "per-transistor draws must be independent");
    }

    #[test]
    fn sample_rng_streams_are_independent_and_stable() {
        let cfg = McConfig::new(123);
        // Same (seed, index) → same stream.
        let a: f64 = cfg.sample_rng(5).random();
        let b: f64 = cfg.sample_rng(5).random();
        assert_eq!(a, b);
        // Adjacent indices and different seeds → different streams.
        let c: f64 = cfg.sample_rng(6).random();
        let d: f64 = McConfig::new(124).sample_rng(5).random();
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn mc_wl_crit_is_thread_count_invariant() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let serial = mc_wl_crit_with(&p, None, 4, McConfig::new(9).with_threads(1)).unwrap();
        let parallel = mc_wl_crit_with(&p, None, 4, McConfig::new(9).with_threads(8)).unwrap();
        assert_eq!(serial, parallel, "results must not depend on scheduling");
    }

    #[test]
    fn mc_drnm_spreads_but_stays_positive() {
        // Paper Fig. 10: DRNM under RA sizing is minimally impacted.
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let mc = mc_drnm(&p, Some(ReadAssist::GndLowering), 12, 3).unwrap();
        assert_eq!(mc.values.len(), 12);
        assert!(
            mc.quarantined.is_empty(),
            "healthy cells quarantine nothing"
        );
        assert_eq!(mc.yield_fraction(), 1.0);
        let s = Summary::of(&mc.values);
        assert!(s.min > 0.0, "all samples must read safely");
        assert!(
            s.cv() < 0.3,
            "DRNM spread under RA must be modest: cv = {}",
            s.cv()
        );
    }

    #[test]
    fn mc_wl_crit_produces_finite_values_for_writable_cell() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let mc = mc_wl_crit(&p, None, 8, 5).unwrap();
        assert_eq!(mc.values.len() + mc.failures, 8);
        assert_eq!(mc.failures, 0, "β=0.6 writes must survive ±5% t_ox");
        assert!(mc.failure_rate() == 0.0);
        assert!(
            mc.quarantined.is_empty(),
            "healthy cells quarantine nothing"
        );
        assert_eq!(mc.yield_fraction(), 1.0);
    }

    #[test]
    fn mc_quarantines_samples_that_cannot_be_measured() {
        // The asymmetric cell rejects WL_crit per sample, and its failing
        // nominal cell also yields no bisection hint — the study must
        // degrade to a complete, structured quarantine instead of aborting
        // (it used to return the first sample's error).
        let p = fast(CellParams::new(CellKind::TfetAsym6T));
        let mc = mc_wl_crit(&p, None, 3, 5).unwrap();
        assert!(mc.values.is_empty());
        assert_eq!(mc.failures, 0);
        assert_eq!(mc.quarantined.len(), 3);
        assert_eq!(mc.yield_fraction(), 0.0);
        for (i, q) in mc.quarantined.iter().enumerate() {
            assert_eq!(q.index, i, "quarantine is in sample order");
            assert!(
                matches!(
                    q.error,
                    SramError::Undefined {
                        metric: "WL_crit",
                        ..
                    }
                ),
                "structured cause, got {:?}",
                q.error
            );
            // The recorded process point replays the sample's RNG stream.
            let mut rng = McConfig::new(5).sample_rng(i);
            assert_eq!(q.params, role_deviations(&sample_variations(&mut rng)));
        }
        // Survivor statistics degrade cleanly to "no data", not a panic.
        assert!(Summary::try_of(&mc.values).is_none());
    }

    #[test]
    fn mc_quarantine_is_thread_count_invariant() {
        let p = fast(CellParams::new(CellKind::TfetAsym6T));
        let serial = mc_wl_crit_with(&p, None, 4, McConfig::new(9).with_threads(1)).unwrap();
        let parallel = mc_wl_crit_with(&p, None, 4, McConfig::new(9).with_threads(8)).unwrap();
        assert_eq!(
            serial, parallel,
            "quarantine sets must not depend on scheduling"
        );
    }

    #[test]
    fn min_yield_converts_excessive_quarantine_into_a_typed_error() {
        let p = fast(CellParams::new(CellKind::TfetAsym6T));
        let err = mc_wl_crit_with(&p, None, 3, McConfig::new(5).with_min_yield(0.5)).unwrap_err();
        assert_eq!(
            err,
            SramError::LowYield {
                survivors: 0,
                total: 3,
                min_yield: 0.5
            }
        );
        assert!(err.to_string().contains("yield too low"), "{err}");
    }

    #[test]
    fn mixed_outcomes_split_into_survivors_and_quarantine() {
        // The fold itself, on synthetic outcomes: survivors keep their order,
        // failures quarantine at their own index with their own draw.
        let config = McConfig::new(7);
        let outcomes: Vec<Result<f64, SramError>> = vec![
            Ok(1.0),
            Err(SramError::InvalidParameter("boom".into())),
            Ok(2.0),
        ];
        let (survivors, quarantined) = fold_outcomes(Sampler::Paper { n: 3, mc: config }, outcomes);
        assert_eq!(survivors, vec![1.0, 2.0]);
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].index, 1);
        let replayed = role_deviations(&sample_variations(&mut config.sample_rng(1)));
        assert_eq!(quarantined[0].params, replayed);
        assert_eq!(quarantined[0].params[0].0, "pull_up_left");
        assert!(check_yield(2, 3, &config).is_ok());
        assert!(check_yield(2, 3, &config.with_min_yield(2.0 / 3.0)).is_ok());
        assert!(check_yield(2, 3, &config.with_min_yield(0.9)).is_err());
    }
}
