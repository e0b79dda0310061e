//! The paper's cell-quality metrics.
//!
//! * [`static_power`] — hold-state dissipation from a DC operating point
//!   (bitlines clamped, wordlines inactive);
//! * [`wl_crit`] — critical wordline pulse width: the shortest pulse that
//!   flips the cell, found by binary search over flip/no-flip transients
//!   (the paper's dynamic write metric, after [Wang, ISLPED'08]); may be
//!   [`WlCrit::Infinite`] — the paper's signature result for inward-n
//!   access and for inward-p at β > 1;
//! * [`read_metrics`] — DRNM (dynamic read noise margin) and read delay
//!   from a read transient;
//! * [`write_delay`] — wordline activation to storage-node crossing under a
//!   generous pulse.

use crate::assist::{ReadAssist, WriteAssist};
use crate::error::SramError;
use crate::ops::{hold_setup, run_write, ReadExperiment, WriteExperiment};
use crate::snm::{static_noise_margin, SnmCondition};
use crate::tech::{CellKind, CellParams};
use tfet_circuit::{CompiledCircuit, SolveStats, TrailRole};
use tfet_numerics::roots::{critical_threshold, critical_threshold_seeded_checked, Threshold};

/// Result of a critical-pulse-width search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WlCrit {
    /// The cell flips for pulses at least this wide, s.
    Finite(f64),
    /// No pulse up to the search limit flips the cell — a write failure
    /// (the paper plots these configurations as "infinite WL_crit").
    Infinite,
    /// The search could not be bracketed: a decisive transient (the
    /// endpoint probe, or the seeded ascent's probe at the search limit)
    /// failed to converge, so neither a finite value nor an infinite
    /// verdict can be certified. The underlying error is kept in
    /// [`WlCritRun::failure`]; sweeps and Monte-Carlo studies degrade this
    /// outcome (skipped point / quarantined sample) instead of aborting.
    Unbracketable,
}

impl WlCrit {
    /// The finite value, if any.
    pub fn as_finite(self) -> Option<f64> {
        match self {
            WlCrit::Finite(v) => Some(v),
            WlCrit::Infinite | WlCrit::Unbracketable => None,
        }
    }

    /// Whether the write fails outright.
    pub fn is_infinite(self) -> bool {
        matches!(self, WlCrit::Infinite)
    }

    /// Whether a solver failure left the search without a verdict.
    pub fn is_unbracketable(self) -> bool {
        matches!(self, WlCrit::Unbracketable)
    }
}

/// Hold-state static power, W.
///
/// The cell is placed in hold (`q = 1`), bitlines clamped at their standby
/// levels, and the summed source power of the DC operating point is
/// returned. For the 6T TFET cell this is set by the 1e-17 A/µm off
/// current — femtowatt scale — unless an outward access configuration puts
/// a reverse-biased (conducting!) p-i-n diode across a bitline, the §3
/// disqualifier.
///
/// # Errors
///
/// Simulation failures and invalid parameters.
pub fn static_power(params: &CellParams) -> Result<f64, SramError> {
    let _span = tfet_obs::span("static_power");
    let h = hold_setup(params)?;
    let mut compiled = CompiledCircuit::compile(h.circuit)?;
    let op = compiled.dc_op(&h.guess)?;
    // Sanity: the state must actually hold, otherwise the measurement is
    // meaningless.
    let vq = op.voltage(h.nodes.q);
    let vqb = op.voltage(h.nodes.qb);
    if vq - vqb < 0.5 * params.vdd {
        return Err(SramError::Undefined {
            metric: "static_power",
            reason: format!(
                "cell does not hold its state in standby (q = {vq:.3} V, qb = {vqb:.3} V)"
            ),
        });
    }
    Ok(op.total_power())
}

/// A completed `WL_crit` search with its solver-effort accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct WlCritRun {
    /// The search result.
    pub value: WlCrit,
    /// Number of write transients the search ran (oracle calls plus the
    /// endpoint probe).
    pub oracle_calls: u64,
    /// Solver effort accumulated over every transient of the search.
    pub effort: SolveStats,
    /// The structured error behind a [`WlCrit::Unbracketable`] outcome —
    /// the decisive transient's failure, kept so quarantine reports and
    /// forensics can name the cause. `None` for every other outcome
    /// (tolerated interior-probe failures are conservative, not fatal, and
    /// are not recorded here).
    pub failure: Option<SramError>,
}

/// Critical wordline pulse width for a successful write, searched on
/// `[5·dt, max_pulse]` to `pulse_tol` resolution.
///
/// # Errors
///
/// Returns [`SramError::Undefined`] for the asymmetric 6T TFET SRAM (its
/// ground-collapse write has no separatrix — paper §5). Simulation errors
/// inside the search oracle are treated as "did not flip" (conservative)
/// unless they strike a decisive probe, in which case the search reports
/// [`WlCrit::Unbracketable`] instead of an error.
pub fn wl_crit(params: &CellParams, assist: Option<WriteAssist>) -> Result<WlCrit, SramError> {
    Ok(wl_crit_seeded(params, assist, None)?.value)
}

/// [`wl_crit`] with a warm-start hint and effort accounting: `hint` is a
/// guess at the critical width — typically the result at the previous sweep
/// point or the nominal Monte-Carlo cell, both of which bracket the search
/// tightly (`WL_crit` is monotone in β and smooth in the process
/// variations). A good hint replaces the full-range bisection with a short
/// search around the hint; a bad or absent hint degrades gracefully to the
/// cold search. The returned value never depends on the hint, only the
/// number of transients run does.
///
/// # Errors
///
/// As [`wl_crit`].
pub fn wl_crit_seeded(
    params: &CellParams,
    assist: Option<WriteAssist>,
    hint: Option<f64>,
) -> Result<WlCritRun, SramError> {
    if params.kind == CellKind::TfetAsym6T {
        return Err(SramError::Undefined {
            metric: "WL_crit",
            reason: "the asymmetric 6T TFET SRAM's write has no separatrix".into(),
        });
    }
    params.validate()?;
    let mut exp = WriteExperiment::compile(params, assist)?;
    wl_crit_compiled(&mut exp, hint)
}

/// [`wl_crit`] for an explicit topology — the entry point for cells that
/// exist only as an imported `.subckt`. One-shot: compiles the write
/// experiment on `topo`, searches, discards the compiled form.
///
/// # Errors
///
/// As [`wl_crit`].
pub fn wl_crit_on(
    topo: &crate::topology::CellTopology,
    params: &CellParams,
    assist: Option<WriteAssist>,
) -> Result<WlCrit, SramError> {
    let mut exp = WriteExperiment::compile_on(topo, params, assist)?;
    Ok(wl_crit_compiled(&mut exp, None)?.value)
}

/// [`wl_crit_seeded`] against an already-compiled [`WriteExperiment`]:
/// every transient of the search rebinds the pulse width and re-runs the
/// frozen circuit, so a sweep or Monte-Carlo batch pays one compile for
/// the whole search (and, via
/// [`bind_cell`](WriteExperiment::bind_cell), for every subsequent
/// search on the same topology). The `effort` counters therefore report
/// `circuit_builds` far below `runs` — the build/bind/run ratio the
/// throughput bench pins.
///
/// The endpoint probe records a checkpoint trail in the compiled circuit
/// and every later probe resumes from the latest checkpoint it provably
/// shares with it — the settle, the bitline edge and, for active-low
/// wordlines, the pulse up to the probe's own falling edge — so `effort`
/// counts only the steps each probe adds. The value is bit-identical to a
/// search of cold [`WriteExperiment::run`] probes, and never depends on
/// what the experiment ran before.
///
/// # Errors
///
/// As [`wl_crit`]. The asymmetric 6T cell is rejected even here: its
/// compiled form always carries the built-in ground collapse, which has no
/// separatrix to search for.
pub fn wl_crit_compiled(
    exp: &mut WriteExperiment,
    hint: Option<f64>,
) -> Result<WlCritRun, SramError> {
    wl_crit_search(exp, hint, true)
}

/// The `WL_crit` search. With `trail`, the endpoint probe records the
/// experiment's checkpoint trail and every later probe resumes from the
/// prefix it shares with it; without, every probe is a cold
/// [`WriteExperiment::run`] — the oracle the trail is tested against. The
/// value, the probes and every recorded waveform are the same either way;
/// only the effort differs.
fn wl_crit_search(
    exp: &mut WriteExperiment,
    hint: Option<f64>,
    trail: bool,
) -> Result<WlCritRun, SramError> {
    let _span = tfet_obs::span("wl_crit");
    let probe_run = |exp: &mut WriteExperiment, w: f64, role: TrailRole| {
        if trail {
            exp.run_on_trail(w, role)
        } else {
            exp.run(w)
        }
    };
    if exp.kind() == CellKind::TfetAsym6T {
        return Err(SramError::Undefined {
            metric: "WL_crit",
            reason: "the asymmetric 6T TFET SRAM's write has no separatrix".into(),
        });
    }
    let lo = 5.0 * exp.sim().dt;
    let hi = exp.sim().max_pulse;
    let pulse_tol = exp.sim().pulse_tol;
    let mut effort = SolveStats::default();
    let mut oracle_calls = 0u64;
    let mut failure: Option<SramError> = None;
    // The endpoint probe decides Infinite outright; if its transient itself
    // fails, the search has no verdict — report a typed Unbracketable
    // outcome (with the cause) instead of propagating a raw solver error,
    // so sweeps and Monte-Carlo studies can degrade instead of aborting.
    let probe = match probe_run(exp, hi, TrailRole::Record) {
        Ok(probe) => probe,
        Err(e) => {
            oracle_calls += 1;
            if tfet_obs::enabled() {
                tfet_obs::counter("wl_crit.searches", 1);
                tfet_obs::counter("wl_crit.unbracketable", 1);
                tfet_obs::record_u64("wl_crit.oracle_calls", oracle_calls);
                tfet_obs::record_u64("wl_crit.newton_solves_per_search", effort.newton_solves);
            }
            return Ok(WlCritRun {
                value: WlCrit::Unbracketable,
                oracle_calls,
                effort,
                failure: Some(e),
            });
        }
    };
    oracle_calls += 1;
    effort.absorb(&probe.result.stats);
    if !probe.flipped() {
        if tfet_obs::enabled() {
            tfet_obs::counter("wl_crit.searches", 1);
            tfet_obs::counter("wl_crit.infinite", 1);
            tfet_obs::record_u64("wl_crit.oracle_calls", oracle_calls);
            tfet_obs::record_u64("wl_crit.newton_solves_per_search", effort.newton_solves);
        }
        return Ok(WlCritRun {
            value: WlCrit::Infinite,
            oracle_calls,
            effort,
            failure: None,
        });
    }
    let th = critical_threshold_seeded_checked(lo, hi, pulse_tol, hint, |w| {
        oracle_calls += 1;
        match probe_run(exp, w, TrailRole::Resume) {
            Ok(r) => {
                effort.absorb(&r.result.stats);
                Some(r.flipped())
            }
            Err(e) => {
                // Interior failures are tolerated as "did not flip"
                // (conservative); a failure at a decisive probe turns the
                // whole search Unbracketable and this error names why.
                failure = Some(e);
                None
            }
        }
    });
    let value = match th {
        Threshold::Critical(w) => WlCrit::Finite(w),
        Threshold::AlwaysTrue => WlCrit::Finite(lo),
        Threshold::NeverTrue => WlCrit::Infinite,
        Threshold::Unbracketable => WlCrit::Unbracketable,
    };
    if tfet_obs::enabled() {
        tfet_obs::counter("wl_crit.searches", 1);
        tfet_obs::record_u64("wl_crit.oracle_calls", oracle_calls);
        tfet_obs::record_u64("wl_crit.newton_solves_per_search", effort.newton_solves);
        match value {
            WlCrit::Finite(w) => tfet_obs::record_f64("wl_crit.value_s", w),
            WlCrit::Infinite => tfet_obs::counter("wl_crit.infinite", 1),
            WlCrit::Unbracketable => tfet_obs::counter("wl_crit.unbracketable", 1),
        }
    }
    Ok(WlCritRun {
        value,
        oracle_calls,
        effort,
        failure: if value.is_unbracketable() {
            failure
        } else {
            None
        },
    })
}

/// Read-stability measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadMetrics {
    /// Dynamic read noise margin, V. Non-positive = destructive read.
    pub drnm: f64,
    /// Wordline activation → 50 mV of sense signal, s; `None` if the signal
    /// never develops inside the read window.
    pub read_delay: Option<f64>,
}

/// Sense threshold used for read delay, V.
pub const SENSE_DV: f64 = 0.05;

/// Runs a read and extracts [`ReadMetrics`].
///
/// # Errors
///
/// Simulation failures and invalid parameters.
pub fn read_metrics(
    params: &CellParams,
    assist: Option<ReadAssist>,
) -> Result<ReadMetrics, SramError> {
    let mut exp = ReadExperiment::compile(params, assist)?;
    read_metrics_compiled(&mut exp)
}

/// [`read_metrics`] for an explicit topology — the entry point for cells
/// that exist only as an imported `.subckt`.
///
/// # Errors
///
/// As [`read_metrics`].
pub fn read_metrics_on(
    topo: &crate::topology::CellTopology,
    params: &CellParams,
    assist: Option<ReadAssist>,
) -> Result<ReadMetrics, SramError> {
    let mut exp = ReadExperiment::compile_on(topo, params, assist)?;
    read_metrics_compiled(&mut exp)
}

/// [`read_metrics`] against an already-compiled [`ReadExperiment`]: the
/// frozen read circuit re-runs as-is, so batches that retarget it through
/// [`bind_cell`](ReadExperiment::bind_cell) pay one compile for the whole
/// sweep.
///
/// # Errors
///
/// Simulation failures.
pub fn read_metrics_compiled(exp: &mut ReadExperiment) -> Result<ReadMetrics, SramError> {
    let _span = tfet_obs::span("read_metrics");
    let run = exp.run()?;
    let metrics = ReadMetrics {
        drnm: run.drnm(),
        read_delay: run.read_delay(SENSE_DV),
    };
    tfet_obs::record_f64("read.drnm_v", metrics.drnm);
    Ok(metrics)
}

/// Write delay under a generous (`max_pulse`) wordline pulse: activation →
/// rising storage node crosses V_DD/2. `None` means the write fails.
///
/// # Errors
///
/// Simulation failures and invalid parameters.
pub fn write_delay(
    params: &CellParams,
    assist: Option<WriteAssist>,
) -> Result<Option<f64>, SramError> {
    let run = run_write(params, assist, params.sim.max_pulse)?;
    if !run.flipped() {
        return Ok(None);
    }
    Ok(run.write_delay())
}

/// Per-transistor leakage at the hold operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageBreakdown {
    /// `(instance name, |drain current| in A)`, sorted descending.
    pub per_device: Vec<(String, f64)>,
    /// Total supply power, W (matches [`static_power`]).
    pub total_power: f64,
}

impl LeakageBreakdown {
    /// The dominant leaker.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no transistors (never for in-tree cells).
    pub fn worst(&self) -> &(String, f64) {
        self.per_device.first().expect("cells have transistors")
    }
}

/// Resolves the hold-state leakage into per-transistor currents — which
/// device is responsible for the standby power. For an inward-access cell
/// every device sits at its off-current floor; for an outward-access cell
/// this report names the reverse-biased access transistor carrying the §3
/// catastrophic p-i-n diode current.
///
/// # Errors
///
/// Simulation failures and invalid parameters.
pub fn leakage_breakdown(params: &CellParams) -> Result<LeakageBreakdown, SramError> {
    let h = hold_setup(params)?;
    let op = h.circuit.dc_op_with_guess(&h.guess)?;
    let mut per_device: Vec<(String, f64)> = h
        .circuit
        .transistors()
        .iter()
        .map(|t| {
            let i = t.ids(op.voltage(t.g), op.voltage(t.d), op.voltage(t.s));
            (t.name.clone(), i.abs())
        })
        .collect();
    per_device.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite currents"));
    Ok(LeakageBreakdown {
        per_device,
        total_power: op.total_power(),
    })
}

/// Data-retention voltage (DRV): the lowest supply at which the cell still
/// holds its data in standby. This is the classical definition: the hold
/// butterfly still opens, i.e. the hold static noise margin
/// ([`static_noise_margin`] under [`SnmCondition::Hold`]) is positive. Found
/// by bisection over `[CellParams::VDD_MIN, params.vdd]`; returns `None` if
/// the cell holds even at that floor, the lowest supply the cell model
/// accepts.
///
/// The butterfly is drawn in situ with the feedback loop broken, so the
/// verdict does not depend on which basin a DC solve of the closed loop
/// happens to land in near the metastable point.
///
/// DRV is the classic bound on standby V_DD scaling — the knob that
/// multiplies the paper's static-power savings, since hold power falls
/// superlinearly with the standby supply.
///
/// # Errors
///
/// Invalid parameters, or [`SramError::Undefined`] if the cell does not
/// hold at its own supply.
pub fn data_retention_voltage(params: &CellParams) -> Result<Option<f64>, SramError> {
    retention_search(params, holds_data)
}

/// The DRV oracle: the hold butterfly opens at `params.vdd`.
fn holds_data(params: &CellParams) -> bool {
    static_noise_margin(params, SnmCondition::Hold).is_ok_and(|snm| snm > 0.0)
}

/// The DRV bisection over a hold oracle, which sees `params` at each probed
/// supply.
fn retention_search(
    params: &CellParams,
    mut holds: impl FnMut(&CellParams) -> bool,
) -> Result<Option<f64>, SramError> {
    let _span = tfet_obs::span("drv");
    params.validate()?;
    let mut holds_at = |vdd: f64| holds(&params.clone().with_vdd(vdd));
    let v_lo = CellParams::VDD_MIN;
    if holds_at(v_lo) {
        return Ok(None);
    }
    if !holds_at(params.vdd) {
        return Err(SramError::Undefined {
            metric: "DRV",
            reason: format!("cell does not even hold at its nominal {} V", params.vdd),
        });
    }
    let th = critical_threshold(v_lo, params.vdd, 1e-3, holds_at);
    Ok(match th {
        Threshold::Critical(v) => Some(v),
        Threshold::AlwaysTrue => None,
        Threshold::NeverTrue => unreachable!("endpoint checked above"),
        Threshold::Unbracketable => unreachable!("infallible bool oracle"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::WriteRun;
    use crate::tech::{AccessConfig, SteppingMode};

    fn fast(params: CellParams) -> CellParams {
        let mut p = params;
        p.sim.dt = 2e-12;
        p.sim.pulse_tol = 4e-12;
        p
    }

    #[test]
    fn adaptive_engine_cuts_newton_effort() {
        // The PR's headline claim: adaptive stepping plus event-driven early
        // exit spends at least 3× fewer Newton solves per WL_crit
        // extraction than the fixed-step engine, at an unchanged answer.
        // Iterations shrink less (larger steps start farther from the
        // solution), so they get a 2× floor. Both searches run unseeded so
        // the ratio isolates the transient engine, not the bracket seeding.
        let adaptive = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let mut fixed = adaptive.clone();
        fixed.sim.stepping = SteppingMode::Fixed;
        fixed.sim.early_exit = false;
        let a = wl_crit_seeded(&adaptive, None, None).unwrap();
        let f = wl_crit_seeded(&fixed, None, None).unwrap();
        let (wa, wf) = match (a.value, f.value) {
            (WlCrit::Finite(wa), WlCrit::Finite(wf)) => (wa, wf),
            other => panic!("both engines must find a finite WL_crit: {other:?}"),
        };
        assert!(
            (wa - wf).abs() <= 2.0 * adaptive.sim.pulse_tol,
            "engines disagree: adaptive {wa:e} vs fixed {wf:e}"
        );
        assert!(
            f.effort.newton_solves >= 3 * a.effort.newton_solves,
            "solves: fixed {} vs adaptive {}",
            f.effort.newton_solves,
            a.effort.newton_solves
        );
        assert!(
            f.effort.newton_iters >= 2 * a.effort.newton_iters,
            "iters: fixed {} vs adaptive {}",
            f.effort.newton_iters,
            a.effort.newton_iters
        );
    }

    /// Asserts two write runs recorded the same times and voltages, bit for
    /// bit, on every node, and reached the same verdict.
    fn assert_same_write(resumed: &WriteRun, cold: &WriteRun, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(resumed.result.times()),
            bits(cold.result.times()),
            "{what}: times"
        );
        let nodes = resumed.nodes;
        for n in [
            nodes.q, nodes.qb, nodes.bl, nodes.blb, nodes.wl, nodes.vdd, nodes.vss,
        ] {
            assert_eq!(
                bits(&resumed.result.trace(n)),
                bits(&cold.result.trace(n)),
                "{what}: trace of {n:?}"
            );
            assert_eq!(
                resumed.result.final_voltage(n).to_bits(),
                cold.result.final_voltage(n).to_bits(),
                "{what}: final voltage of {n:?}"
            );
        }
        assert_eq!(resumed.flipped(), cold.flipped(), "{what}: verdict");
    }

    /// A probe resumed from the trail equals a cold `run` bit for bit, for
    /// pulses on both sides of `4·t_edge` (where the wordline edges start to
    /// narrow), under p- and n-type access, every write assist (whose rails
    /// rebind width-dependent windows) and both stepping modes.
    #[test]
    fn resumed_write_probes_equal_cold_runs() {
        let assists = [
            None,
            Some(WriteAssist::VddLowering),
            Some(WriteAssist::GndRaising),
            Some(WriteAssist::WordlineLowering),
            Some(WriteAssist::BitlineRaising),
        ];
        let mut cases = Vec::new();
        for access in [AccessConfig::InwardP, AccessConfig::InwardN] {
            for assist in assists {
                cases.push((access, assist, SteppingMode::Adaptive));
            }
        }
        cases.push((AccessConfig::InwardP, None, SteppingMode::Fixed));
        let mut restored_somewhere = false;
        for (access, assist, stepping) in cases {
            let mut p = fast(CellParams::tfet6t(access).with_beta(0.6));
            p.sim.stepping = stepping;
            p.sim.max_pulse = 1e-9;
            let edge4 = 4.0 * p.sim.t_edge;
            let mut exp = WriteExperiment::compile(&p, assist).unwrap();
            exp.run_on_trail(p.sim.max_pulse, TrailRole::Record)
                .unwrap();
            for w in [0.75 * edge4, edge4, 1.25 * edge4, 430e-12, p.sim.max_pulse] {
                let what = format!("{access:?} {assist:?} {stepping:?} w = {w:e}");
                let resumed = exp.run_on_trail(w, TrailRole::Resume).unwrap();
                let cold = exp.run(w).unwrap();
                assert_same_write(&resumed, &cold, &what);
                assert!(
                    resumed.result.stats.newton_solves <= cold.result.stats.newton_solves,
                    "{what}: {:?} vs {:?}",
                    resumed.result.stats,
                    cold.result.stats
                );
                restored_somewhere |=
                    resumed.result.stats.accepted_steps < cold.result.stats.accepted_steps;
            }
        }
        assert!(restored_somewhere, "no probe resumed from the trail");
    }

    /// The search's value and probes equal those of a search whose every
    /// probe is a cold run, at a fraction of the Newton solves.
    #[test]
    fn trail_search_equals_cold_search_at_lower_effort() {
        for hint in [None, Some(430e-12)] {
            let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
            let mut exp = WriteExperiment::compile(&p, None).unwrap();
            let cold = wl_crit_search(&mut exp, hint, false).unwrap();
            let trail = wl_crit_compiled(&mut exp, hint).unwrap();
            let bits = |v: WlCrit| v.as_finite().map(f64::to_bits);
            assert_eq!(bits(trail.value), bits(cold.value), "hint {hint:?}");
            assert!(trail.value.as_finite().is_some(), "hint {hint:?}");
            assert_eq!(trail.oracle_calls, cold.oracle_calls, "hint {hint:?}");
            assert_eq!(trail.effort.runs, cold.effort.runs, "hint {hint:?}");
            assert!(
                10 * trail.effort.newton_solves <= 6 * cold.effort.newton_solves,
                "hint {hint:?}: solves with the trail {} vs cold {}",
                trail.effort.newton_solves,
                cold.effort.newton_solves
            );
        }
    }

    /// A search's effort depends only on the bound cell and the hint, never
    /// on what the experiment ran before: the trail is cleared at every
    /// search and bind, so nothing carries from one search to the next.
    #[test]
    fn search_effort_does_not_depend_on_history() {
        let base = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let other = base.clone().with_beta(0.5);
        let hint = Some(430e-12);
        let per_search = |mut s: SolveStats| {
            // Builds and binds are attributed to the next run, so they
            // depend on history by design.
            (s.circuit_builds, s.param_binds) = (0, 0);
            s
        };
        let mut fresh = WriteExperiment::compile(&base, None).unwrap();
        let reference = wl_crit_compiled(&mut fresh, hint).unwrap();

        let mut used = WriteExperiment::compile(&base, None).unwrap();
        wl_crit_compiled(&mut used, None).unwrap();
        let again = wl_crit_compiled(&mut used, hint).unwrap();
        assert_eq!(per_search(again.effort), per_search(reference.effort));
        used.bind_cell(&other).unwrap();
        wl_crit_compiled(&mut used, hint).unwrap();
        used.run(1e-9).unwrap();
        used.bind_cell(&base).unwrap();
        let rebound = wl_crit_compiled(&mut used, hint).unwrap();
        assert_eq!(per_search(rebound.effort), per_search(reference.effort));
        assert_eq!(rebound.value, reference.value);
    }

    #[test]
    fn seeded_wl_crit_cuts_oracle_calls() {
        // Sweep/MC seeding: a hint from a neighbouring design point must
        // reduce the number of write transients (oracle calls) without
        // moving the answer by more than the bisection tolerance.
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let cold = wl_crit_seeded(&p, None, None).unwrap();
        let w0 = cold.value.as_finite().expect("β=0.6 is writable");
        let seeded = wl_crit_seeded(&p, None, Some(w0)).unwrap();
        let w1 = seeded.value.as_finite().expect("seeded search agrees");
        assert!(
            (w1 - w0).abs() <= 2.0 * p.sim.pulse_tol,
            "seeded {w1:e} vs cold {w0:e}"
        );
        assert!(
            seeded.oracle_calls < cold.oracle_calls,
            "oracle calls: seeded {} vs cold {}",
            seeded.oracle_calls,
            cold.oracle_calls
        );
    }

    #[test]
    fn tfet_inward_hold_power_is_femtowatt_scale() {
        let p = CellParams::tfet6t(AccessConfig::InwardP);
        let power = static_power(&p).unwrap();
        // 6 mostly-off 0.1 µm devices at ~1e-18 A each, 0.8 V rails.
        assert!(power > 0.0 && power < 1e-15, "power = {power:e} W");
    }

    #[test]
    fn cmos_hold_power_is_six_orders_higher() {
        let tfet = static_power(&CellParams::tfet6t(AccessConfig::InwardP)).unwrap();
        let cmos = static_power(&CellParams::cmos6t()).unwrap();
        let orders = (cmos / tfet).log10();
        assert!(
            (5.0..8.5).contains(&orders),
            "CMOS/TFET static power gap = {orders} orders"
        );
    }

    #[test]
    fn outward_access_pays_orders_of_magnitude_in_hold_power() {
        // Paper §3: 5 / 9 orders at 0.6 / 0.8 V versus inward access.
        for (vdd, min_orders, max_orders) in [(0.6, 3.5, 7.0), (0.8, 6.5, 11.0)] {
            let inward =
                static_power(&CellParams::tfet6t(AccessConfig::InwardP).with_vdd(vdd)).unwrap();
            let outward =
                static_power(&CellParams::tfet6t(AccessConfig::OutwardN).with_vdd(vdd)).unwrap();
            let orders = (outward / inward).log10();
            assert!(
                (min_orders..max_orders).contains(&orders),
                "at {vdd} V: outward/inward = {orders} orders"
            );
        }
    }

    #[test]
    fn wl_crit_finite_for_writable_cell() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        match wl_crit(&p, None).unwrap() {
            WlCrit::Finite(w) => {
                assert!(w > 1e-12 && w < 2e-9, "WL_crit = {w:e} s");
            }
            WlCrit::Infinite | WlCrit::Unbracketable => {
                panic!("β=0.6 inward-p must be writable")
            }
        }
    }

    #[test]
    fn wl_crit_infinite_for_inward_n() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardN).with_beta(0.6));
        assert!(wl_crit(&p, None).unwrap().is_infinite());
    }

    #[test]
    fn wl_crit_infinite_for_inward_p_at_high_beta() {
        // Paper Fig. 4(b): inward-p write fails for β > 1.
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(2.5));
        assert!(wl_crit(&p, None).unwrap().is_infinite());
    }

    #[test]
    fn write_assist_rescues_high_beta_cell() {
        // At β = 2.5 the plain cell fails, but GND raising (which guts the
        // pull-downs, the real obstacle during an inward-access write)
        // recovers it — the crux of paper Fig. 6(e).
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(2.5));
        let rescued = wl_crit(&p, Some(WriteAssist::GndRaising)).unwrap();
        assert!(!rescued.is_infinite(), "GND-raising WA must rescue β=2.5");
    }

    #[test]
    fn vdd_lowering_rescues_moderate_beta_with_long_pulse() {
        // VDD lowering acts on the stored-1 node only through the cell's
        // reverse (ambipolar/diode) conduction — slow in a unidirectional
        // technology — so it needs a longer pulse budget than GND raising.
        let mut p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(1.5));
        p.sim.max_pulse = 10e-9;
        let rescued = wl_crit(&p, Some(WriteAssist::VddLowering)).unwrap();
        assert!(!rescued.is_infinite(), "VDD-lowering WA must rescue β=1.5");
    }

    #[test]
    fn wl_crit_grows_with_beta() {
        let w1 = wl_crit(
            &fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.4)),
            None,
        )
        .unwrap()
        .as_finite()
        .unwrap();
        let w2 = wl_crit(
            &fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.8)),
            None,
        )
        .unwrap()
        .as_finite()
        .unwrap();
        assert!(w2 > w1, "WL_crit must grow with β: {w1:e} !< {w2:e}");
    }

    #[test]
    fn asym_wl_crit_is_undefined() {
        let p = CellParams::new(CellKind::TfetAsym6T);
        assert!(matches!(
            wl_crit(&p, None),
            Err(SramError::Undefined {
                metric: "WL_crit",
                ..
            })
        ));
    }

    #[test]
    fn drnm_grows_with_beta() {
        let p_small = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let p_large = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(2.0));
        let d_small = read_metrics(&p_small, None).unwrap().drnm;
        let d_large = read_metrics(&p_large, None).unwrap().drnm;
        assert!(
            d_large > d_small,
            "DRNM must grow with β: {d_small} !< {d_large}"
        );
    }

    #[test]
    fn write_delay_reported_for_working_cell() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let d = write_delay(&p, None).unwrap().expect("writable");
        assert!(d > 1e-12 && d < 2e-9, "write delay = {d:e}");
    }

    #[test]
    fn write_delay_none_for_unwritable_cell() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardN).with_beta(1.0));
        assert_eq!(write_delay(&p, None).unwrap(), None);
    }

    #[test]
    fn leakage_breakdown_names_the_reverse_biased_access() {
        // Outward cell: the access transistor on the 0-storing side carries
        // the §3 diode current and dominates everything else by orders.
        let p = CellParams::tfet6t(AccessConfig::OutwardN);
        let b = leakage_breakdown(&p).unwrap();
        // The diode current flows in series: reverse-biased access into the
        // storage node, pull-down out of it — so the top two leakers are
        // that access transistor and its pull-down, far above everyone else.
        let top2: Vec<&str> = b.per_device[..2].iter().map(|d| d.0.as_str()).collect();
        assert!(
            top2.iter().any(|n| n.starts_with("MA")),
            "an access device must be in the top two, got {top2:?}"
        );
        assert!(
            b.worst().1 > 100.0 * b.per_device[2].1,
            "dominance by orders: {:?}",
            b.per_device
        );
        assert!(b.total_power > 0.0);
    }

    #[test]
    fn leakage_breakdown_is_flat_for_inward_cell() {
        let p = CellParams::tfet6t(AccessConfig::InwardP);
        let b = leakage_breakdown(&p).unwrap();
        // No device leaks more than ~3 orders above the smallest: everyone
        // sits near the off floor. (Zero-V_DS devices can carry ~0 A.)
        let worst = b.worst().1;
        assert!(worst < 1e-15, "worst inward leaker = {worst:e} A");
    }

    #[test]
    fn drv_is_well_below_operating_supply() {
        let p = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
        let drv = data_retention_voltage(&p).unwrap();
        match drv {
            Some(v) => assert!(
                v < 0.5 * p.vdd,
                "TFET cell must retain well below VDD: DRV = {v} V"
            ),
            None => { /* holds at the 50 mV floor: even better */ }
        }
    }

    #[test]
    fn cmos_cell_has_a_drv_too() {
        let p = CellParams::cmos6t().with_beta(1.5);
        let drv = data_retention_voltage(&p).unwrap();
        if let Some(v) = drv {
            assert!(v < p.vdd && v > 0.0);
        }
    }

    #[test]
    fn drv_agrees_with_the_hold_snm_sign_above_the_supply_floor() {
        // The reported DRV is where the hold butterfly closes, and the
        // search never probes a supply the cell model rejects (a rejected
        // probe would read as "does not hold" whatever the cell does).
        for p in [
            CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6),
            CellParams::cmos6t().with_beta(1.5),
        ] {
            let mut probes = Vec::new();
            let drv = retention_search(&p, |q| {
                probes.push(q.vdd);
                holds_data(q)
            })
            .unwrap();
            assert_eq!(drv, data_retention_voltage(&p).unwrap());
            assert!(
                probes.iter().all(|&v| v >= CellParams::VDD_MIN),
                "probes below the supply floor: {probes:?}"
            );
            let hold_snm = |vdd: f64| {
                static_noise_margin(&p.clone().with_vdd(vdd), SnmCondition::Hold).unwrap()
            };
            match drv {
                Some(v) => {
                    assert!(hold_snm(v) > 0.0, "cell must hold at its DRV {v} V");
                    assert!(
                        hold_snm(v - 1e-3) <= 0.0,
                        "cell still holds below DRV {v} V"
                    );
                }
                None => assert!(hold_snm(CellParams::VDD_MIN) > 0.0),
            }
        }
    }

    #[test]
    fn wl_crit_exceeds_cmos_for_tfet_cell() {
        // Paper: unidirectional conduction ⇒ only one access conducts
        // during a TFET write, so WL_crit is longer than CMOS at equal β.
        let beta = 0.8;
        let t = wl_crit(
            &fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(beta)),
            None,
        )
        .unwrap()
        .as_finite()
        .unwrap();
        let c = wl_crit(&fast(CellParams::cmos6t().with_beta(beta)), None)
            .unwrap()
            .as_finite()
            .unwrap();
        assert!(t > c, "TFET WL_crit {t:e} must exceed CMOS {c:e}");
    }
}
