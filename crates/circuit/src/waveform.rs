//! Time-dependent source stimuli.
//!
//! Every assist technique in the paper is, electrically, a reshaped source
//! waveform (a lowered supply during the write window, a raised ground
//! during the read window, …), so the waveform layer is where the §4 study
//! is ultimately expressed.

use tfet_numerics::Lut1d;

/// A source stimulus: value as a function of time.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Piecewise-linear interpolation through `(time, value)` breakpoints;
    /// clamps to the first/last value outside the range.
    Pwl(Lut1d),
}

impl Waveform {
    /// A constant source.
    pub fn dc(value: f64) -> Self {
        Waveform::Dc(value)
    }

    /// A piecewise-linear source through the given breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given or times are not strictly
    /// increasing.
    pub fn pwl(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "PWL needs at least two breakpoints");
        let times: Vec<f64> = points.iter().map(|p| p.0).collect();
        let values: Vec<f64> = points.iter().map(|p| p.1).collect();
        let lut = Lut1d::new(times, values).expect("PWL breakpoints must increase in time");
        Waveform::Pwl(lut)
    }

    /// A single pulse from `base` to `level`:
    ///
    /// ```text
    /// base ----+        +---- base
    ///          /¯¯¯¯¯¯¯¯\
    ///      t_start     t_start + width
    /// ```
    ///
    /// with linear edges of `t_edge` on each side. The pulse is *inside*
    /// `[t_start, t_start + width]`; edges eat into the plateau, matching
    /// how a wordline pulse of width `w` is normally specified.
    ///
    /// # Panics
    ///
    /// Panics if `width <= 2 * t_edge`, or any duration is non-positive.
    pub fn pulse(base: f64, level: f64, t_start: f64, width: f64, t_edge: f64) -> Self {
        assert!(t_edge > 0.0, "edge time must be positive");
        assert!(
            width > 2.0 * t_edge,
            "pulse width {width} must exceed both edges (2×{t_edge})"
        );
        assert!(t_start >= 0.0, "pulse must start at t >= 0");
        let eps = t_edge * 1e-6;
        Waveform::pwl(&[
            (0.0 - eps, base),
            (t_start.max(eps), base),
            (t_start + t_edge, level),
            (t_start + width - t_edge, level),
            (t_start + width, base),
        ])
    }

    /// A single linear step from `from` to `to` starting at `t_start`,
    /// lasting `t_edge`, and holding afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `t_edge <= 0`.
    pub fn step(from: f64, to: f64, t_start: f64, t_edge: f64) -> Self {
        assert!(t_edge > 0.0, "edge time must be positive");
        let eps = t_edge * 1e-6;
        Waveform::pwl(&[
            (0.0 - eps, from),
            (t_start.max(eps), from),
            (t_start + t_edge, to),
        ])
    }

    /// Whether this stimulus is constant in time. Compiled experiments use
    /// this to skip rebinding sources whose waveform cannot depend on the
    /// swept parameter (an unassisted rail stays DC at every pulse width).
    pub fn is_dc(&self) -> bool {
        matches!(self, Waveform::Dc(_))
    }

    /// The stimulus value at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pwl(lut) => lut.eval(t),
        }
    }

    /// The value at `t = 0`, used as the DC level for initial operating
    /// points.
    pub fn initial(&self) -> f64 {
        self.value(0.0)
    }

    /// Breakpoint times (empty for DC) — the transient engine refines its
    /// step grid so edges land on steps exactly.
    pub fn breakpoints(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.breakpoints_into(&mut out);
        out
    }

    /// Appends this waveform's breakpoint times to `out` without allocating
    /// a fresh vector — the adaptive transient engine harvests every
    /// source's edges into one reusable schedule buffer per run.
    pub fn breakpoints_into(&self, out: &mut Vec<f64>) {
        if let Waveform::Pwl(lut) = self {
            out.extend_from_slice(lut.axis());
        }
    }

    /// A time `T` before which `self` and `other` give bit-identical values:
    /// `self.value(t)` and `other.value(t)` have equal bits for every
    /// `t < T` (`+∞`: everywhere; `−∞`: nowhere proven). The transient
    /// checkpoint trail resumes a run only where every source passes this
    /// test.
    ///
    /// A PWL value is `v[i]·(1−f) + v[i+1]·f` on the segment `i` holding
    /// `t`, with `f` its fraction of the segment. Two tables that share
    /// their first `p ≥ 2` breakpoints (times and values) locate every
    /// `t < x[p−1]` in the same segment at the same fraction, so they agree
    /// there. Past `x[p−1]` the segments' ends differ, and so does `f` —
    /// and a level held across a segment is exact under the formula only
    /// when it is zero: `0·(1−f) + 0·f` is the same zero for any `f`,
    /// while `0.8·(1−f) + 0.8·f` can round one ulp off 0.8 for some `f`.
    /// So a zero plateau that opens the first differing segment of both
    /// tables extends the agreement to the earlier of the two segment ends
    /// (an active-low wordline held at 0 V until its pulse ends); any
    /// other plateau ends it.
    pub(crate) fn agrees_before(&self, other: &Waveform) -> f64 {
        match (self, other) {
            (Waveform::Dc(a), Waveform::Dc(b)) if a.to_bits() == b.to_bits() => f64::INFINITY,
            (Waveform::Pwl(a), Waveform::Pwl(b)) => {
                let (xa, va, xb, vb) = (a.axis(), a.values(), b.axis(), b.values());
                let same = |i: usize| {
                    xa[i].to_bits() == xb[i].to_bits() && va[i].to_bits() == vb[i].to_bits()
                };
                let n = xa.len().min(xb.len());
                let p = (0..n).take_while(|&i| same(i)).count();
                if p == xa.len() && p == xb.len() {
                    return f64::INFINITY;
                }
                let zero_plateau = p >= 1
                    && p < n
                    && va[p - 1] == 0.0
                    && va[p] == 0.0
                    && va[p].to_bits() == vb[p].to_bits();
                if zero_plateau {
                    xa[p].min(xb[p])
                } else if p >= 2 {
                    xa[p - 1]
                } else {
                    f64::NEG_INFINITY
                }
            }
            _ => f64::NEG_INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::dc(0.8);
        assert_eq!(w.value(0.0), 0.8);
        assert_eq!(w.value(1.0), 0.8);
        assert_eq!(w.initial(), 0.8);
        assert!(w.breakpoints().is_empty());
        assert!(w.is_dc());
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl(&[(0.0, 0.0), (1e-9, 1.0)]);
        assert!(!w.is_dc());
        assert_eq!(w.value(-1.0), 0.0);
        assert!((w.value(0.5e-9) - 0.5).abs() < 1e-12);
        assert_eq!(w.value(2e-9), 1.0);
    }

    #[test]
    fn pulse_shape() {
        let w = Waveform::pulse(0.8, 0.0, 100e-12, 200e-12, 10e-12);
        assert_eq!(w.value(0.0), 0.8); // before
        assert_eq!(w.value(50e-12), 0.8); // before start
        assert!((w.value(110e-12) - 0.0).abs() < 1e-9); // after leading edge
        assert!((w.value(200e-12) - 0.0).abs() < 1e-9); // plateau
        assert!((w.value(285e-12) - 0.0).abs() < 1e-9); // before trailing edge
        assert_eq!(w.value(400e-12), 0.8); // after
                                           // Mid leading edge.
        assert!((w.value(105e-12) - 0.4).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn pulse_narrower_than_edges_rejected() {
        Waveform::pulse(0.0, 1.0, 0.0, 10e-12, 10e-12);
    }

    #[test]
    fn step_shape() {
        let w = Waveform::step(0.8, 0.56, 1e-9, 50e-12);
        assert_eq!(w.value(0.0), 0.8);
        assert!((w.value(1.025e-9) - 0.68).abs() < 1e-9);
        assert_eq!(w.value(2e-9), 0.56);
    }

    #[test]
    fn pulse_starting_at_zero_is_legal() {
        let w = Waveform::pulse(0.8, 0.0, 0.0, 100e-12, 10e-12);
        // Starts at base and immediately ramps.
        assert!(w.value(0.0) > 0.7);
        assert!((w.value(50e-12) - 0.0).abs() < 1e-9);
    }

    /// Asserts `a` and `b` give bit-identical values on a dense grid up to
    /// (not including) `t_end`.
    fn assert_agree(a: &Waveform, b: &Waveform, t_end: f64) {
        for k in 0..4000 {
            let t = -1e-12 + k as f64 * (t_end + 1e-12) / 4000.0;
            assert_eq!(a.value(t).to_bits(), b.value(t).to_bits(), "t = {t:e}");
        }
    }

    #[test]
    fn agreement_of_pulses_of_different_widths() {
        // Active-low wordline: the 0 V plateau is exact under any segment
        // fraction, so the pulses agree until the narrower one falls.
        let wide = Waveform::pulse(0.8, 0.0, 250e-12, 4e-9, 10e-12);
        let narrow = Waveform::pulse(0.8, 0.0, 250e-12, 400e-12, 10e-12);
        let t = wide.agrees_before(&narrow);
        assert_eq!(t, 250e-12 + 400e-12 - 10e-12);
        assert_eq!(narrow.agrees_before(&wide), t);
        assert_agree(&wide, &narrow, t);
        // Active-high: the plateau interpolates 0.8 at different fractions,
        // so agreement ends at the top of the rising edge.
        let wide = Waveform::pulse(0.0, 0.8, 250e-12, 4e-9, 10e-12);
        let narrow = Waveform::pulse(0.0, 0.8, 250e-12, 400e-12, 10e-12);
        let t = wide.agrees_before(&narrow);
        assert_eq!(t, 250e-12 + 10e-12);
        assert_agree(&wide, &narrow, t);
        // Narrowed edges move the first breakpoint: nothing is shared.
        let edged = Waveform::pulse(0.8, 0.0, 250e-12, 30e-12, 7.5e-12);
        assert_eq!(edged.agrees_before(&narrow), f64::NEG_INFINITY);
    }

    #[test]
    fn agreement_of_equal_and_unrelated_waveforms() {
        let step = Waveform::step(0.8, 0.0, 200e-12, 10e-12);
        assert_eq!(step.agrees_before(&step.clone()), f64::INFINITY);
        assert_eq!(
            Waveform::dc(0.8).agrees_before(&Waveform::dc(0.8)),
            f64::INFINITY
        );
        assert_eq!(
            Waveform::dc(0.8).agrees_before(&Waveform::dc(0.7)),
            f64::NEG_INFINITY
        );
        assert_eq!(Waveform::dc(0.8).agrees_before(&step), f64::NEG_INFINITY);
        // A table that extends another agrees up to the shorter one's end.
        let longer = Waveform::pwl(&[(0.0, 0.8), (1e-9, 0.8), (2e-9, 0.0), (3e-9, 0.5)]);
        let shorter = Waveform::pwl(&[(0.0, 0.8), (1e-9, 0.8), (2e-9, 0.0)]);
        assert_eq!(longer.agrees_before(&shorter), 2e-9);
        assert_agree(&longer, &shorter, 2e-9);
    }

    #[test]
    fn breakpoints_reported() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 100e-12, 10e-12);
        let bp = w.breakpoints();
        assert_eq!(bp.len(), 5);
        assert!(bp.windows(2).all(|w| w[0] < w[1]));
    }
}
