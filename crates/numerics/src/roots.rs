//! Monotone threshold search.
//!
//! The SRAM analysis layer extracts the *critical wordline pulse width*
//! (`WL_crit`, the paper's dynamic write metric) by binary search over a
//! flip / no-flip transient oracle — [`critical_threshold`] implements that
//! search, [`critical_threshold_seeded`] resumes it from a hint, and the
//! `_checked` variants take a fallible oracle.

/// Result of a [`critical_threshold`] search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// The predicate flips from `false` to `true` within the search range;
    /// the contained value is the smallest argument (to within tolerance)
    /// for which it holds.
    Critical(f64),
    /// The predicate already holds at the lower bound.
    AlwaysTrue,
    /// The predicate does not hold even at the upper bound — e.g. an SRAM
    /// write that fails no matter how long the wordline pulse (the paper's
    /// "infinite `WL_crit`").
    NeverTrue,
    /// A *decisive* oracle probe failed (returned `None` in the checked
    /// searches), so neither a bracket nor a `NeverTrue`/`AlwaysTrue`
    /// verdict can be certified. Only the `_checked` entry points produce
    /// this variant; a plain `bool` predicate never does.
    Unbracketable,
}

impl Threshold {
    /// The critical value, if one exists in range.
    pub fn value(self) -> Option<f64> {
        match self {
            Threshold::Critical(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the predicate never became true (infinite critical value).
    pub fn is_never(self) -> bool {
        matches!(self, Threshold::NeverTrue)
    }

    /// Whether a decisive oracle failure left the search without a verdict.
    pub fn is_unbracketable(self) -> bool {
        matches!(self, Threshold::Unbracketable)
    }
}

/// Per-search observability: probe count plus the probed-point trajectory.
///
/// The trajectory Vec is only populated when tracing is enabled, so the
/// disabled path allocates nothing; each probed `x` is the next bracket
/// boundary the search commits to, which makes the recorded series exactly
/// the bisection's bracket trajectory.
struct SearchObs {
    enabled: bool,
    probes: u64,
    points: Vec<f64>,
}

impl SearchObs {
    fn start() -> SearchObs {
        SearchObs {
            enabled: tfet_obs::enabled(),
            probes: 0,
            points: Vec::new(),
        }
    }

    /// Wraps one oracle probe: tallies it and keeps the probed point.
    /// `None` means the oracle itself failed at `x` (checked searches).
    fn probe(&mut self, x: f64, held: Option<bool>) -> Option<bool> {
        self.probes += 1;
        if self.enabled {
            self.points.push(x);
        }
        held
    }

    /// Flushes the search's metrics into the registry.
    fn finish(&self, series: &'static str) {
        if self.enabled {
            tfet_obs::counter("bisection.searches", 1);
            tfet_obs::record_u64("bisection.probes_per_search", self.probes);
            tfet_obs::record_series(series, &self.points);
        }
    }
}

/// Core cold bisection shared by the public entry points.
///
/// The predicate returns `None` when the oracle itself fails at a point.
/// A failure at a *decisive* probe — either endpoint, whose verdict alone
/// classifies the whole range — yields [`Threshold::Unbracketable`]; a
/// failure at an interior bisection probe is treated as `false`, which is
/// conservative for the `WL_crit` use (the search keeps the upper half, so
/// a tolerated failure can only overestimate the critical value, never
/// fabricate a flip).
fn cold_search(
    lo: f64,
    hi: f64,
    xtol: f64,
    pred: &mut impl FnMut(f64) -> Option<bool>,
) -> Threshold {
    match pred(lo) {
        Some(true) => return Threshold::AlwaysTrue,
        Some(false) => {}
        None => return Threshold::Unbracketable,
    }
    match pred(hi) {
        Some(true) => {}
        Some(false) => return Threshold::NeverTrue,
        None => return Threshold::Unbracketable,
    }
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > xtol {
        let mid = 0.5 * (lo + hi);
        if pred(mid) == Some(true) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Threshold::Critical(hi)
}

/// Binary-searches the smallest `x ∈ [lo, hi]` for which the monotone
/// predicate `pred(x)` holds, to absolute tolerance `xtol`.
///
/// `pred` must be monotone (false … false, true … true) over the range; the
/// canonical use is "does a wordline pulse of width `x` flip the SRAM cell?".
///
/// With tracing enabled (`tfet_obs::enable`), every search records a
/// `bisection` span, the probe count into the
/// `bisection.probes_per_search` histogram, and its probed-point trajectory
/// as the `bisection.bracket` series.
///
/// # Examples
///
/// ```
/// use tfet_numerics::roots::{critical_threshold, Threshold};
/// let th = critical_threshold(0.0, 10.0, 1e-9, |x| x >= 3.0);
/// match th {
///     Threshold::Critical(v) => assert!((v - 3.0).abs() < 1e-6),
///     _ => panic!("expected a critical value"),
/// }
/// ```
pub fn critical_threshold(
    lo: f64,
    hi: f64,
    xtol: f64,
    mut pred: impl FnMut(f64) -> bool,
) -> Threshold {
    critical_threshold_checked(lo, hi, xtol, move |x| Some(pred(x)))
}

/// [`critical_threshold`] over a *fallible* oracle: the predicate returns
/// `None` when it cannot be evaluated at a point (e.g. the transient solver
/// fails to converge there).
///
/// A failed probe at a decisive point — an endpoint whose verdict alone
/// would classify the whole range — returns [`Threshold::Unbracketable`]
/// instead of inventing a `NeverTrue`/`AlwaysTrue` verdict. A failed probe
/// at an interior bisection point is tolerated as `false` (conservative:
/// the reported critical value can only grow). The infallible wrapper never
/// produces `Unbracketable`.
pub fn critical_threshold_checked(
    lo: f64,
    hi: f64,
    xtol: f64,
    mut pred: impl FnMut(f64) -> Option<bool>,
) -> Threshold {
    let _span = tfet_obs::span("bisection");
    let mut obs = SearchObs::start();
    let th = cold_search(lo, hi, xtol, &mut |x| {
        let held = pred(x);
        obs.probe(x, held)
    });
    obs.finish("bisection.bracket");
    th
}

/// [`critical_threshold`] with a warm-start hint: a guess at the critical
/// value (e.g. the result at the previous sweep point or the nominal
/// Monte-Carlo cell).
///
/// A good hint replaces the full-range bisection with two confirming probes
/// around the hint plus a short bisection of the confirmed bracket; a bad
/// hint costs a few geometric bracket expansions and degrades gracefully to
/// the cold search. The result is always a valid threshold for the monotone
/// predicate — only the number of `pred` evaluations (each a full transient
/// for the `WL_crit` oracle) depends on hint quality.
///
/// `hint: None`, a non-finite hint, or a hint outside `(lo, hi)` fall back
/// to the cold [`critical_threshold`].
///
/// Tracing records the same span/metrics as [`critical_threshold`], with
/// the trajectory under the `bisection.bracket_seeded` series instead so
/// the geometric expansion phase stays distinguishable in reports.
pub fn critical_threshold_seeded(
    lo: f64,
    hi: f64,
    xtol: f64,
    hint: Option<f64>,
    mut pred: impl FnMut(f64) -> bool,
) -> Threshold {
    critical_threshold_seeded_checked(lo, hi, xtol, hint, move |x| Some(pred(x)))
}

/// [`critical_threshold_seeded`] over a fallible oracle — the seeded
/// counterpart of [`critical_threshold_checked`], with the same decisive /
/// tolerated probe-failure semantics.
pub fn critical_threshold_seeded_checked(
    lo: f64,
    hi: f64,
    xtol: f64,
    hint: Option<f64>,
    mut pred: impl FnMut(f64) -> Option<bool>,
) -> Threshold {
    let _span = tfet_obs::span("bisection");
    let mut obs = SearchObs::start();
    let th = seeded_search(lo, hi, xtol, hint, &mut |x| {
        let held = pred(x);
        obs.probe(x, held)
    });
    let seeded = hint.is_some_and(|h| h.is_finite() && h > lo && h < hi);
    obs.finish(if seeded {
        "bisection.bracket_seeded"
    } else {
        "bisection.bracket"
    });
    th
}

/// Core hint-seeded search shared by the public entry point. Probe-failure
/// (`None`) semantics follow [`cold_search`]: the one decisive probe — an
/// ascending probe that has reached `hi`, whose verdict alone separates
/// `Critical` from `NeverTrue` — returns [`Threshold::Unbracketable`] on
/// failure; every other probe tolerates it as `false` (which only shrinks
/// the descent or keeps the upper bisection half — conservative).
fn seeded_search(
    lo: f64,
    hi: f64,
    xtol: f64,
    hint: Option<f64>,
    pred: &mut impl FnMut(f64) -> Option<bool>,
) -> Threshold {
    let Some(h) = hint else {
        return cold_search(lo, hi, xtol, pred);
    };
    if !h.is_finite() || h <= lo || h >= hi {
        return cold_search(lo, hi, xtol, pred);
    }
    // Initial bracket half-width: 10% of the hint — tight enough to pay off
    // for the near-exact hints of Monte-Carlo sampling (a few % around the
    // nominal cell), while a sweep-grade hint that misses by more costs only
    // a couple of geometric expansion probes.
    let w0 = (0.1 * h).max(4.0 * xtol);

    // Ascend from the hint until the predicate holds.
    let mut b_lo = lo;
    let mut b_hi;
    let mut w = w0;
    let mut probe = (h + w).min(hi);
    loop {
        match pred(probe) {
            Some(true) => {
                b_hi = probe;
                break;
            }
            Some(false) if probe >= hi => return Threshold::NeverTrue,
            None if probe >= hi => return Threshold::Unbracketable,
            Some(false) | None => {}
        }
        b_lo = probe;
        w *= 2.0;
        probe = (probe + w).min(hi);
    }
    // If the first upward probe already held, the threshold may sit below
    // the hint: descend until the predicate fails.
    if b_lo == lo {
        let mut w = w0;
        let mut probe = (h - w).max(lo);
        loop {
            if pred(probe) != Some(true) {
                b_lo = probe;
                break;
            }
            b_hi = probe;
            if probe <= lo {
                return Threshold::AlwaysTrue;
            }
            w *= 2.0;
            probe = (probe - w).max(lo);
        }
    }
    // Bisect the confirmed bracket.
    while b_hi - b_lo > xtol {
        let mid = 0.5 * (b_lo + b_hi);
        if pred(mid) == Some(true) {
            b_hi = mid;
        } else {
            b_lo = mid;
        }
    }
    Threshold::Critical(b_hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_threshold_finds_step() {
        match critical_threshold(0.0, 100.0, 1e-6, |x| x >= 42.0) {
            Threshold::Critical(v) => assert!((v - 42.0).abs() < 1e-4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn critical_threshold_detects_never() {
        let th = critical_threshold(0.0, 10.0, 1e-6, |_| false);
        assert!(th.is_never());
        assert_eq!(th.value(), None);
    }

    #[test]
    fn critical_threshold_detects_always() {
        assert_eq!(
            critical_threshold(0.0, 10.0, 1e-6, |_| true),
            Threshold::AlwaysTrue
        );
    }

    #[test]
    fn critical_threshold_counts_oracle_calls_logarithmically() {
        let mut calls = 0;
        let th = critical_threshold(0.0, 1.0, 1e-9, |x| {
            calls += 1;
            x >= 0.123456
        });
        assert!(matches!(th, Threshold::Critical(_)));
        // log2(1e9) ≈ 30 plus the two endpoint probes.
        assert!(calls <= 35, "too many oracle calls: {calls}");
    }

    #[test]
    fn seeded_threshold_matches_cold_search() {
        let pred = |x: f64| x >= 0.123456;
        for hint in [None, Some(0.12), Some(0.5), Some(0.0001), Some(0.999)] {
            match critical_threshold_seeded(0.0, 1.0, 1e-9, hint, pred) {
                Threshold::Critical(v) => {
                    assert!((v - 0.123456).abs() < 1e-7, "hint {hint:?} gave {v}")
                }
                other => panic!("hint {hint:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn seeded_threshold_handles_degenerate_predicates() {
        let th = critical_threshold_seeded(0.0, 10.0, 1e-6, Some(5.0), |_| false);
        assert!(th.is_never());
        assert_eq!(
            critical_threshold_seeded(0.0, 10.0, 1e-6, Some(5.0), |_| true),
            Threshold::AlwaysTrue
        );
    }

    #[test]
    fn seeded_threshold_ignores_out_of_range_hints() {
        for hint in [Some(-1.0), Some(2.0), Some(f64::NAN), Some(f64::INFINITY)] {
            match critical_threshold_seeded(0.0, 1.0, 1e-9, hint, |x| x >= 0.25) {
                Threshold::Critical(v) => assert!((v - 0.25).abs() < 1e-7),
                other => panic!("hint {hint:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn good_hint_beats_cold_search_on_oracle_calls() {
        // Metrics-like regime: tolerance is coarse relative to the range
        // (pulse_tol vs max_pulse ≈ 1e-3) and the hint is within ~5% — the
        // shape of a Monte-Carlo sample seeded from the nominal cell.
        let target = 0.123456;
        let count_calls = |hint: Option<f64>| {
            let mut calls = 0;
            let th = critical_threshold_seeded(0.0, 1.0, 1e-3, hint, |x| {
                calls += 1;
                x >= target
            });
            assert!(matches!(th, Threshold::Critical(_)));
            calls
        };
        let cold = count_calls(None);
        let seeded = count_calls(Some(0.12));
        assert!(
            2 * seeded <= cold + 2,
            "seeded {seeded} calls vs cold {cold}: a near-exact hint must \
             roughly halve the search"
        );
        assert!(seeded < cold);
    }

    #[test]
    fn traced_search_records_probes_and_bracket() {
        tfet_obs::reset();
        tfet_obs::enable();
        let th = critical_threshold(0.0, 1.0, 1e-3, |x| x >= 0.25);
        let seeded = critical_threshold_seeded(0.0, 1.0, 1e-3, Some(0.24), |x| x >= 0.25);
        tfet_obs::disable();
        assert!(matches!(th, Threshold::Critical(_)));
        assert!(matches!(seeded, Threshold::Critical(_)));
        let report = tfet_obs::RunReport::capture();
        assert!(*report.counters.get("bisection.searches").unwrap() >= 2);
        assert!(report.spans.contains_key("bisection"));
        let hist = &report.histograms["bisection.probes_per_search"];
        assert!(hist.count >= 2 && hist.min >= 2);
        assert!(!report.series["bisection.bracket"].values.is_empty());
        assert!(!report.series["bisection.bracket_seeded"].values.is_empty());
    }

    #[test]
    fn checked_search_flags_decisive_endpoint_failure() {
        // A failing oracle at either endpoint denies the search its verdict.
        let th = critical_threshold_checked(0.0, 1.0, 1e-9, |x| {
            if x >= 1.0 {
                None
            } else {
                Some(x >= 0.25)
            }
        });
        assert!(th.is_unbracketable());
        assert_eq!(th.value(), None);
        assert!(!th.is_never());
        assert!(critical_threshold_checked(0.0, 1.0, 1e-9, |x| {
            if x <= 0.0 {
                None
            } else {
                Some(x >= 0.25)
            }
        })
        .is_unbracketable());
    }

    #[test]
    fn checked_search_tolerates_interior_failures_conservatively() {
        // Interior oracle failures read as "false": the answer can only move
        // up, never below the true threshold, and stays within the widened
        // uncertainty of the poisoned band.
        let th = critical_threshold_checked(0.0, 1.0, 1e-9, |x| {
            if (0.3..0.4).contains(&x) {
                None
            } else {
                Some(x >= 0.25)
            }
        });
        match th {
            Threshold::Critical(v) => assert!((0.25..=0.4 + 1e-9).contains(&v), "got {v}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn checked_seeded_search_flags_failure_at_the_upper_bound() {
        // The ascent's probe at `hi` is the NeverTrue/Critical decider; an
        // oracle failure there must not masquerade as NeverTrue.
        let th = critical_threshold_seeded_checked(0.0, 1.0, 1e-9, Some(0.5), |x| {
            if x >= 1.0 {
                None
            } else {
                Some(false)
            }
        });
        assert!(th.is_unbracketable());
    }

    #[test]
    fn checked_seeded_search_matches_bool_oracle_when_infallible() {
        let pred = |x: f64| Some(x >= 0.123456);
        for hint in [None, Some(0.12), Some(0.5)] {
            match critical_threshold_seeded_checked(0.0, 1.0, 1e-9, hint, pred) {
                Threshold::Critical(v) => assert!((v - 0.123456).abs() < 1e-7),
                other => panic!("hint {hint:?} gave {other:?}"),
            }
        }
    }
}
