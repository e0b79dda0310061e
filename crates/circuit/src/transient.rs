//! Transient analysis with adaptive, LTE-controlled time stepping.
//!
//! Each step solves the full nonlinear system with Newton–Raphson, replacing
//! every capacitor (explicit and device) by its integration companion model:
//!
//! * **backward Euler** — `i = C/Δt·(v_{n+1} − v_n)`: L-stable, numerically
//!   damped; the default for the digital-style SRAM waveforms where spurious
//!   trapezoidal ringing would pollute noise-margin measurements;
//! * **trapezoidal** — `i = 2C/Δt·(v_{n+1} − v_n) − i_n`: second-order
//!   accurate, available for accuracy cross-checks (the integrator ablation
//!   bench compares both).
//!
//! Two step-control policies are available ([`StepControl`]):
//!
//! * **adaptive** (the default for [`TransientSpec::new`]) — every step is
//!   solved twice, once as a single step of `h` and once as two half steps
//!   with a midpoint re-linearization; the difference between the two
//!   solutions estimates the local truncation error. Steps whose error
//!   exceeds `ltol` are rejected and retried smaller; accepted steps grow
//!   toward `dt_max` on flat stretches. A breakpoint schedule harvested
//!   from every source waveform forces steps to land exactly on pulse
//!   edges, so no edge can be stepped over no matter how large the step
//!   has grown. SRAM metric transients are mostly flat digital plateaus,
//!   so the adaptive engine spends its (3× per-step) solve cost only where
//!   the waveform actually moves and skips nanoseconds of quiescence.
//! * **fixed** ([`TransientSpec::fixed`]) — the uniform grid
//!   `t_k = k·dt`, one solve per step; the reference path for accuracy
//!   regressions and the integrator ablation (A2).
//!
//! Both paths support [`StopEvent`] early exit: once armed, a node-voltage
//! difference crossing ends the run as soon as the outcome it encodes (an
//! SRAM cell committed to a flip, or back to its held state) is decided.
//!
//! Nonlinear device capacitances are re-evaluated at the start of every step
//! and held for the step (standard charge-conserving-enough linearization at
//! the small steps used here).

use crate::dc::{solve_op, NewtonOpts, SolverStrategy};
use crate::error::SimError;
use crate::latency::DeviceLatency;
use crate::mna::{CompanionCaps, Mna};
use crate::netlist::{Circuit, NodeId};
use crate::probe::{SolveStats, TransientResult};
use crate::workspace::{with_workspace, NewtonWorkspace};

/// Integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// First-order, L-stable backward Euler (default).
    #[default]
    BackwardEuler,
    /// Second-order trapezoidal rule.
    Trapezoidal,
}

/// Default per-step local-truncation-error tolerance, V. 0.5 mV on a
/// sub-volt rail matches the SPICE-conventional `reltol ≈ 1e-3` regime:
/// coarse enough that plateaus run at large steps, fine enough that the
/// paper's millivolt-scale metrics see accumulated errors well below their
/// assertion tolerances (the accuracy regression tests pin this).
const DEFAULT_LTOL: f64 = 5e-4;
/// Default `dt_min` as a fraction of the requested `dt`.
const DT_MIN_FRACTION: f64 = 0.125;
/// Default `dt_max` as a multiple of the requested `dt`.
const DT_MAX_FACTOR: f64 = 64.0;

/// Adaptive step-control parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOpts {
    /// Smallest step the controller may take, s. A trial at this floor is
    /// accepted regardless of its error estimate (progress guarantee).
    pub dt_min: f64,
    /// Largest step the controller may grow to, s. Bounds how much of a
    /// quiet waveform a single backward-Euler step may smear.
    pub dt_max: f64,
    /// Per-step local-truncation-error tolerance on any node voltage, V.
    pub ltol: f64,
}

/// Time-step policy of a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepControl {
    /// Uniform grid at `dt`: one Newton solve per step, no error control.
    Fixed,
    /// Step-doubling LTE control within `[dt_min, dt_max]`, with steps
    /// landing exactly on source-waveform breakpoints.
    Adaptive(AdaptiveOpts),
}

/// Transient run controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// End time, s.
    pub t_stop: f64,
    /// Initial (adaptive) or fixed time step, s. Under adaptive control
    /// this seeds the controller and sets its default bounds
    /// (`dt_min = dt/8`, `dt_max = 64·dt`); under fixed control it is the
    /// uniform grid spacing and must resolve the fastest source edge.
    pub dt: f64,
    /// Integration method.
    pub integrator: Integrator,
    /// Step-control policy.
    pub control: StepControl,
    /// Linear-solve strategy for every Newton solve in the run (seeded from
    /// [`SolverStrategy::default()`], i.e. the process default).
    pub solver: SolverStrategy,
    /// Device-latency mode for every Newton solve in the run: bypass cache
    /// plus (for partitioned circuits) the quiescent-partition dormancy
    /// tier, or the full-evaluation baseline (seeded from
    /// [`DeviceLatency::default()`], i.e. the process default).
    pub latency: DeviceLatency,
}

impl TransientSpec {
    /// A backward-Euler spec with **adaptive** step control seeded at `dt`:
    /// LTE tolerance [`DEFAULT_LTOL` = 0.5 mV], step bounds
    /// `[dt/8, min(64·dt, t_stop)]`, and steps landing exactly on source
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics if either duration is non-positive or `dt > t_stop`.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        assert!(t_stop > 0.0 && dt > 0.0, "durations must be positive");
        assert!(dt <= t_stop, "dt must not exceed t_stop");
        TransientSpec {
            t_stop,
            dt,
            integrator: Integrator::default(),
            control: StepControl::Adaptive(AdaptiveOpts {
                dt_min: dt * DT_MIN_FRACTION,
                dt_max: (dt * DT_MAX_FACTOR).min(t_stop),
                ltol: DEFAULT_LTOL,
            }),
            solver: SolverStrategy::default(),
            latency: DeviceLatency::default(),
        }
    }

    /// A backward-Euler spec on the **fixed** uniform grid `t_k = k·dt` —
    /// the pre-adaptive engine, kept for accuracy references and for
    /// benches that sweep `dt` itself.
    ///
    /// # Panics
    ///
    /// Panics if either duration is non-positive or `dt > t_stop`.
    pub fn fixed(t_stop: f64, dt: f64) -> Self {
        assert!(t_stop > 0.0 && dt > 0.0, "durations must be positive");
        assert!(dt <= t_stop, "dt must not exceed t_stop");
        TransientSpec {
            t_stop,
            dt,
            integrator: Integrator::default(),
            control: StepControl::Fixed,
            solver: SolverStrategy::default(),
            latency: DeviceLatency::default(),
        }
    }

    /// Selects the integration method (builder style).
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Selects the linear-solve strategy (builder style). [`SolverStrategy::Dense`]
    /// is the bit-exact legacy cross-check path.
    pub fn with_solver(mut self, solver: SolverStrategy) -> Self {
        self.solver = solver;
        self
    }

    /// Selects the device-latency mode (builder style).
    /// [`DeviceLatency::Off`] is the full-evaluation baseline used to
    /// measure (and cross-check) the dormancy tier; setting it per-spec
    /// avoids racing the process-wide default from concurrent tests.
    pub fn with_device_latency(mut self, latency: DeviceLatency) -> Self {
        self.latency = latency;
        self
    }

    /// Overrides the adaptive LTE tolerance (no-op under fixed control).
    ///
    /// # Panics
    ///
    /// Panics if `ltol` is not positive.
    pub fn with_ltol(mut self, ltol: f64) -> Self {
        assert!(ltol > 0.0, "ltol must be positive");
        if let StepControl::Adaptive(ref mut a) = self.control {
            a.ltol = ltol;
        }
        self
    }

    /// Overrides the adaptive step bounds (no-op under fixed control).
    ///
    /// # Panics
    ///
    /// Panics if `dt_min` is not positive or exceeds `dt_max`.
    pub fn with_step_bounds(mut self, dt_min: f64, dt_max: f64) -> Self {
        assert!(
            dt_min > 0.0 && dt_min <= dt_max,
            "need 0 < dt_min <= dt_max"
        );
        if let StepControl::Adaptive(ref mut a) = self.control {
            a.dt_min = dt_min;
            a.dt_max = dt_max;
        }
        self
    }
}

/// How the transient obtains its initial state.
#[derive(Debug, Clone)]
pub enum InitialState {
    /// Solve the DC operating point at `t = 0`, seeded with voltage hints
    /// (hints pick the basin for bistable circuits).
    DcOp(Vec<(NodeId, f64)>),
    /// Use the given node voltages directly ("use initial conditions"):
    /// capacitors start charged to these values, no DC solve. Unlisted
    /// nodes start at 0 V.
    Uic(Vec<(NodeId, f64)>),
}

/// A condition that ends a transient run early once the outcome it encodes
/// is decided: after `t_arm`, the run stops at the first accepted step where
/// `V(a) − V(b)` exceeds `above` or falls below `below`.
///
/// The canonical use is an SRAM storage-node pair: once the differential has
/// committed past the regeneration threshold (either way), the remaining
/// settle time carries no information and the flip/no-flip verdict is
/// already determined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopEvent {
    /// Positive node of the monitored difference.
    pub a: NodeId,
    /// Negative node of the monitored difference.
    pub b: NodeId,
    /// Fire when `V(a) − V(b)` rises above this level, if set.
    pub above: Option<f64>,
    /// Fire when `V(a) − V(b)` falls below this level, if set.
    pub below: Option<f64>,
    /// Ignore the condition before this time, s — events must not trigger
    /// while the stimulus that decides them is still active.
    pub t_arm: f64,
}

impl StopEvent {
    /// Stop once `V(a) − V(b) > level` after `t_arm`.
    pub fn diff_above(a: NodeId, b: NodeId, level: f64, t_arm: f64) -> Self {
        StopEvent {
            a,
            b,
            above: Some(level),
            below: None,
            t_arm,
        }
    }

    /// Stop once `V(a) − V(b) < level` after `t_arm`.
    pub fn diff_below(a: NodeId, b: NodeId, level: f64, t_arm: f64) -> Self {
        StopEvent {
            a,
            b,
            above: None,
            below: Some(level),
            t_arm,
        }
    }

    /// Stop once `|V(a) − V(b)| > margin` after `t_arm` — the "outcome
    /// decided either way" form used for flip/no-flip write transients.
    pub fn decided(a: NodeId, b: NodeId, margin: f64, t_arm: f64) -> Self {
        StopEvent {
            a,
            b,
            above: Some(margin),
            below: Some(-margin),
            t_arm,
        }
    }
}

/// Per-branch values of the capacitor table at one state: each branch's
/// capacitance, its voltage `v_a − v_b`, and (trapezoidal runs only) the
/// branch current the companion stamps that produced the state carry.
#[derive(Debug, Clone, Default)]
struct CapValues {
    c: Vec<f64>,
    v_ab: Vec<f64>,
    /// Empty unless the run is trapezoidal: backward Euler never reads it.
    i_prev: Vec<f64>,
}

impl CapValues {
    /// Sizes the values for `circuit`'s table of `n` branches and writes the
    /// explicit capacitors' values, which never change during a run.
    fn lay_out(&mut self, circuit: &Circuit, n: usize, history: bool) {
        self.c.clear();
        self.c.extend(circuit.capacitors.iter().map(|c| c.farads));
        self.c.resize(n, 0.0);
        self.v_ab.clear();
        self.v_ab.resize(n, 0.0);
        self.i_prev.clear();
        if history {
            self.i_prev.resize(n, 0.0);
        }
    }

    /// Re-linearizes the table at the state `x` in one pass: evaluates every
    /// transistor's capacitances, stores every branch's voltage, and — with
    /// `history` — derives each branch's current from the companion stamps
    /// `comps` that produced `x` (`i = geq·v_ab + ieq`).
    ///
    /// A capacitance that is not positive is stored as 0 and keeps its
    /// slot; its companion stamps add zeros, which leave every residual and
    /// Jacobian sum bit-identical to leaving the branch out.
    fn refill(&mut self, circuit: &Circuit, x: &[f64], comps: &CompanionCaps, history: bool) {
        let _span = tfet_obs::span("relinearize");
        let volt = |n: NodeId| if n.is_ground() { 0.0 } else { x[n.index() - 1] };
        let mut k = circuit.capacitors.len();
        for m in &circuit.transistors {
            let caps = m.model.caps_per_um(volt(m.g), volt(m.d), volt(m.s));
            let w = m.width_um;
            for (a, b, c) in [
                (m.g, m.s, caps.cgs * w),
                (m.g, m.d, caps.cgd * w),
                (m.d, Circuit::GND, caps.cdb * w),
                (m.s, Circuit::GND, caps.csb * w),
            ] {
                if a != b {
                    self.c[k] = if c > 0.0 { c } else { 0.0 };
                    k += 1;
                }
            }
        }
        debug_assert_eq!(k, self.c.len(), "capacitor table layout");
        for (v, br) in self.v_ab.iter_mut().zip(comps.branches()) {
            *v = br.v_ab(x);
        }
        if history {
            for ((i, &v), br) in self.i_prev.iter_mut().zip(&self.v_ab).zip(comps.branches()) {
                *i = br.geq * v + br.ieq;
            }
        }
    }
}

/// The capacitor table of one transient analysis: every capacitive branch
/// of the circuit in one fixed layout — the explicit capacitors, then each
/// transistor's gate–source, gate–drain, drain–bulk and source–bulk branches
/// wherever the two terminals differ (bulk tied to ground).
///
/// The layout — the branches' KCL rows — lives in the workspace's companion
/// list ([`CompanionCaps`]), laid out once per run; the table holds the
/// values at the start of the step being solved and, for adaptive runs, at
/// an adaptive trial's midpoint. Because membership never changes within a
/// run, each branch keeps its own current history from step to step.
#[derive(Debug, Default)]
pub(crate) struct CapTable {
    /// Values at the start of the step being solved.
    start: CapValues,
    /// Values re-linearized at an adaptive trial's midpoint.
    mid: CapValues,
}

impl CapTable {
    /// Lays the table out for `circuit`: the branch list into `comps`
    /// (taking a fresh layout stamp), the value buffers sized, the explicit
    /// capacitors' values written. `history`: the run is trapezoidal and
    /// carries branch currents; `adaptive`: it re-linearizes at midpoints.
    fn lay_out(
        &mut self,
        circuit: &Circuit,
        comps: &mut CompanionCaps,
        history: bool,
        adaptive: bool,
    ) {
        comps.set_layout(circuit.cap_branches());
        self.start.lay_out(circuit, comps.len(), history);
        if adaptive {
            self.mid.lay_out(circuit, comps.len(), history);
        }
    }
}

/// Fills `out`'s values with the companion-model stamps of `vals` for one
/// step of `dt` from the state the values were taken at.
fn build_companions(vals: &CapValues, dt: f64, use_be: bool, out: &mut CompanionCaps) {
    let _span = tfet_obs::span("companions");
    let branches = out.branches_mut();
    if use_be {
        for ((br, &c), &v_ab) in branches.iter_mut().zip(&vals.c).zip(&vals.v_ab) {
            let geq = c / dt;
            br.geq = geq;
            br.ieq = -geq * v_ab;
        }
    } else {
        assert_eq!(
            vals.i_prev.len(),
            vals.c.len(),
            "trapezoidal companions need the branch-current history"
        );
        for (((br, &c), &v_ab), &i_prev) in branches
            .iter_mut()
            .zip(&vals.c)
            .zip(&vals.v_ab)
            .zip(&vals.i_prev)
        {
            let geq = 2.0 * c / dt;
            br.geq = geq;
            br.ieq = -geq * v_ab - i_prev;
        }
    }
    out.touch();
}

/// Assembles and submits a failure-forensics bundle for a transient that is
/// about to die: last accepted node voltages, device operating points at
/// that state, the residual-norm history of the failing Newton attempt and
/// the recent step-size trace. A no-op (one atomic load) unless tracing is
/// enabled, so the error path costs nothing by default and never masks the
/// original error.
fn capture_failure(
    mna: &Mna<'_>,
    ws: &NewtonWorkspace,
    result: Option<&TransientResult>,
    stage: &str,
    t: f64,
    h: f64,
    err: &SimError,
) {
    if !tfet_obs::enabled() {
        return;
    }
    use tfet_obs::Value;
    tfet_obs::counter("transient.failures", 1);
    let circuit = mna.circuit();
    let mut bundle = tfet_obs::forensics::Bundle::new("transient")
        .text("stage", stage)
        .text("error", err.to_string())
        .num("time", t)
        .num("step", h)
        .floats("residual_history", &ws.bufs.res_history)
        .field(
            "step_trace",
            Value::Arr(
                ws.step_trace
                    .to_vec()
                    .iter()
                    .map(|&(t, h)| Value::Arr(vec![Value::Num(t), Value::Num(h)]))
                    .collect(),
            ),
        );
    if let Some(res) = result {
        let volts: Vec<(String, f64)> = (0..circuit.node_count())
            .map(|i| {
                let node = NodeId(i);
                (circuit.node_name(node).to_string(), res.final_voltage(node))
            })
            .collect();
        bundle = bundle.named_nums("node_voltages", &volts);
        let devices = Value::Arr(
            circuit
                .transistors()
                .iter()
                .map(|m| {
                    let vg = res.final_voltage(m.g);
                    let vd = res.final_voltage(m.d);
                    let vs = res.final_voltage(m.s);
                    Value::Obj(vec![
                        ("name".into(), Value::text(m.name.clone())),
                        ("vg".into(), Value::Num(vg)),
                        ("vd".into(), Value::Num(vd)),
                        ("vs".into(), Value::Num(vs)),
                        ("ids".into(), Value::Num(m.ids(vg, vd, vs))),
                    ])
                })
                .collect(),
        );
        bundle = bundle.field("devices", devices);
    }
    tfet_obs::forensics::submit(&bundle);
}

/// The per-step rescue ladder, tried in order once a transient Newton solve
/// has failed outright (plain Newton *and* the g_min fallback inside
/// [`solve_op`]). Each rung is `(substeps, anchored)`: the failing step is
/// subdivided into that many backward-Euler substeps — the companion
/// conductance `C/Δt` grows with each halving, stiffening the Jacobian
/// diagonal exactly where the solve is struggling — and the final rung
/// additionally forces the anchored g_min continuation from `dc.rs` on every
/// substep, pinned to the last accepted state so a bistable cell cannot be
/// rescued into the wrong basin.
const RESCUE_RUNGS: &[(usize, bool)] = &[(2, false), (4, false), (8, true)];

/// Attempts to recover a failed step `t → t_new` by the [`RESCUE_RUNGS`]
/// ladder, starting every rung from the last accepted state `x_last` and
/// its capacitor-table values `ws.caps.start`.
///
/// On success the final substep's companion stamps are published into
/// `ws.companions` and the state at `t_new` is returned, so the caller's
/// ordinary accept path (re-linearize against `ws.companions`, record, push)
/// remains correct without modification. On failure the workspace's
/// capacitor table and companions are untouched and `None` is returned —
/// the caller's error path sees exactly the state it would have without the
/// ladder.
///
/// This is a cold path (it only runs when a step has already failed), so the
/// local clones and buffers here are deliberate: the hot path's
/// allocation-free invariant is preserved by never touching the workspace's
/// step scratch until a rung actually succeeds.
#[allow(clippy::too_many_arguments)] // solver-internal
fn rescue_step(
    circuit: &Circuit,
    mna: &Mna<'_>,
    ws: &mut NewtonWorkspace,
    x_last: Vec<f64>,
    t: f64,
    t_new: f64,
    opts: &NewtonOpts,
    stats: &mut SolveStats,
) -> Option<Vec<f64>> {
    let _s_rescue = tfet_obs::span("rescue");
    let mut comps = ws.companions.clone();
    let mut vals = CapValues::default();
    for &(n_sub, anchored) in RESCUE_RUNGS {
        stats.rescue_attempts += 1;
        if tfet_obs::enabled() {
            tfet_obs::counter("transient.rescue_attempts", 1);
        }
        let h_sub = (t_new - t) / n_sub as f64;
        let mut x = x_last.clone();
        vals.clone_from(&ws.caps.start);
        let mut ok = true;
        for k in 1..=n_sub {
            // Land the last substep on t_new exactly (no accumulated
            // floating-point drift into the caller's time axis).
            let t_k = if k == n_sub {
                t_new
            } else {
                t + k as f64 * h_sub
            };
            // Backward Euler regardless of the run's integrator: the rescue
            // restarts from a state whose branch-current history just failed
            // to produce a solution, and BE is the standard L-stable restart
            // after such a discontinuity.
            build_companions(&vals, h_sub, true, &mut comps);
            let attempt = solve_op(
                mna,
                &mut ws.bufs,
                &mut ws.anchor,
                std::mem::take(&mut x),
                t_k,
                Some(&comps),
                opts,
                Some(t_k),
                anchored,
            );
            match attempt {
                Ok(v) => x = v,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
            if k < n_sub {
                vals.refill(circuit, &x, &comps, false);
            }
        }
        if ok {
            stats.rescued_steps += 1;
            if tfet_obs::enabled() {
                tfet_obs::counter("transient.rescued_steps", 1);
            }
            std::mem::swap(&mut ws.companions, &mut comps);
            return Some(x);
        }
    }
    None
}

/// Whether any armed stop event fires on the state `x` at time `t`.
fn event_fired(events: &[StopEvent], mna: &Mna<'_>, x: &[f64], t: f64) -> bool {
    events.iter().any(|ev| {
        if t < ev.t_arm {
            return false;
        }
        let d = mna.voltage_of(x, ev.a) - mna.voltage_of(x, ev.b);
        ev.above.is_some_and(|th| d > th) || ev.below.is_some_and(|th| d < th)
    })
}

impl Circuit {
    /// The capacitor table's branch layout, in order: explicit capacitors,
    /// then each transistor's gate–source, gate–drain, drain–bulk and
    /// source–bulk branches (bulk tied to ground) wherever the two
    /// terminals differ.
    fn cap_branches(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let explicit = self.capacitors.iter().map(|c| (c.a, c.b));
        let devices = self.transistors.iter().flat_map(|m| {
            [
                (m.g, m.s),
                (m.g, m.d),
                (m.d, Circuit::GND),
                (m.s, Circuit::GND),
            ]
            .into_iter()
            .filter(|(a, b)| a != b)
        });
        explicit.chain(devices)
    }

    /// Collects every source waveform's breakpoints in `(min_sep, t_stop)`
    /// into `out`: sorted, deduplicated to `min_sep` spacing. These are the
    /// times the adaptive engine must land on exactly.
    fn fill_breakpoints(&self, t_stop: f64, min_sep: f64, out: &mut Vec<f64>) {
        out.clear();
        for vs in &self.vsources {
            vs.wave.breakpoints_into(out);
        }
        for is in &self.isources {
            is.wave.breakpoints_into(out);
        }
        out.retain(|&t| t > min_sep && t < t_stop - 0.5 * min_sep);
        out.sort_unstable_by(|a, b| a.partial_cmp(b).expect("breakpoint times are finite"));
        out.dedup_by(|a, b| *a - *b < min_sep);
    }

    /// Runs a transient analysis.
    ///
    /// Node voltages for every node are recorded at every accepted step,
    /// starting with the initial state at `t = 0`. Solver scratch comes
    /// from a per-thread [`NewtonWorkspace`] that is reused across calls;
    /// use [`transient_with`](Circuit::transient_with) to supply one
    /// explicitly, or [`transient_events`](Circuit::transient_events) to
    /// add early-exit conditions.
    ///
    /// # Errors
    ///
    /// Propagates DC/Newton failures ([`SimError::NoConvergence`],
    /// [`SimError::SingularMatrix`], [`SimError::InvalidCircuit`]).
    pub fn transient(
        &self,
        spec: &TransientSpec,
        initial: &InitialState,
    ) -> Result<TransientResult, SimError> {
        self.transient_events(spec, initial, &[])
    }

    /// Runs a transient analysis with caller-owned solver scratch.
    ///
    /// Identical to [`transient`](Circuit::transient), but every Jacobian,
    /// residual, LU and companion-model buffer comes from `ws`, so the time
    /// loop performs **no per-step heap allocation** once the workspace is
    /// warm — the waveform store itself is pre-sized for the whole run.
    /// Holding one workspace across many runs (a Monte-Carlo worker's inner
    /// loop) eliminates per-sample allocation churn as well.
    ///
    /// # Errors
    ///
    /// Propagates DC/Newton failures ([`SimError::NoConvergence`],
    /// [`SimError::SingularMatrix`], [`SimError::InvalidCircuit`]).
    pub fn transient_with(
        &self,
        spec: &TransientSpec,
        initial: &InitialState,
        ws: &mut NewtonWorkspace,
    ) -> Result<TransientResult, SimError> {
        let mut result = self.transient_events_with(spec, initial, &[], ws)?;
        result.stats.circuit_builds = 1;
        Ok(result)
    }

    /// Runs a transient analysis that may end early on a [`StopEvent`].
    ///
    /// # Errors
    ///
    /// Propagates DC/Newton failures ([`SimError::NoConvergence`],
    /// [`SimError::SingularMatrix`], [`SimError::InvalidCircuit`]).
    pub fn transient_events(
        &self,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
    ) -> Result<TransientResult, SimError> {
        let mut result =
            with_workspace(|ws| self.transient_events_with(spec, initial, events, ws))?;
        result.stats.circuit_builds = 1;
        Ok(result)
    }

    /// A transient run with caller-owned scratch plus early-exit events,
    /// recording every node.
    ///
    /// # Errors
    ///
    /// Propagates DC/Newton failures ([`SimError::NoConvergence`],
    /// [`SimError::SingularMatrix`], [`SimError::InvalidCircuit`]).
    pub fn transient_events_with(
        &self,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
        ws: &mut NewtonWorkspace,
    ) -> Result<TransientResult, SimError> {
        self.transient_recorded(spec, initial, events, None, ws)
    }

    /// The full transient engine: caller-owned scratch, early-exit events,
    /// and the nodes whose traces the result keeps (`None`: every node; a
    /// probe list keeps those traces plus the final state of every node).
    /// All transient entry points delegate here. What is recorded never
    /// changes what is computed.
    ///
    /// # Errors
    ///
    /// Propagates DC/Newton failures ([`SimError::NoConvergence`],
    /// [`SimError::SingularMatrix`], [`SimError::InvalidCircuit`]).
    pub(crate) fn transient_recorded(
        &self,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
        probes: Option<&[NodeId]>,
        ws: &mut NewtonWorkspace,
    ) -> Result<TransientResult, SimError> {
        let _span = tfet_obs::span("transient");
        let mna = Mna::new(self)?;
        let n_v = mna.voltage_count();
        let opts = NewtonOpts {
            strategy: spec.solver,
            latency: spec.latency,
            ..NewtonOpts::default()
        };
        // Fresh run: device-bypass operating points and retained
        // factorizations from any previous run are stale by definition.
        ws.bufs.invalidate_caches();
        // Partition telemetry covers exactly one run: zero any accumulation
        // left by a previous transient on this workspace. (If the latency
        // state is built lazily later this run, it starts zeroed anyway.)
        if let Some(lat) = ws.bufs.latency.as_mut() {
            lat.reset_telemetry();
        }
        let solves0 = ws.bufs.newton_solves;
        let iters0 = ws.bufs.newton_iters;
        let refac0 = ws.bufs.jac_refactored;
        let reused0 = ws.bufs.jac_reused;
        let evals0 = ws.bufs.device_evals;
        let bypassed0 = ws.bufs.devices_bypassed;
        let analyses0 = ws.bufs.sparse_analyses;
        let ssolves0 = ws.bufs.sparse_solves;
        let dormant0 = ws.bufs.devices_dormant;
        let crefresh0 = ws.bufs.cells_refreshed;
        let grefresh0 = ws.bufs.guard_refreshes;
        ws.step_trace.clear();

        // --- Initial state -------------------------------------------------
        let mut x = match initial {
            InitialState::DcOp(hints) => match self.dc_state_with(&mna, hints, ws, spec.solver) {
                Ok(x) => x,
                Err(e) => {
                    capture_failure(&mna, ws, None, "initial-dc", 0.0, 0.0, &e);
                    return Err(e);
                }
            },
            InitialState::Uic(ics) => {
                // Pin node voltages; derive consistent branch currents by a
                // single Newton solve with enormous companion conductances
                // holding every node at its IC (equivalent to a Δt → 0 step).
                let mut x0 = vec![0.0; mna.unknown_count()];
                for &(node, v) in ics {
                    if !node.is_ground() {
                        x0[node.index() - 1] = v;
                    }
                }
                let hold = CompanionCaps::from_branches((1..=n_v).map(|i| {
                    let g_hold = 1e3; // siemens: overwhelms any device
                    (NodeId(i), Circuit::GND, g_hold, -g_hold * x0[i - 1])
                }));
                match solve_op(
                    &mna,
                    &mut ws.bufs,
                    &mut ws.anchor,
                    x0,
                    0.0,
                    Some(&hold),
                    &opts,
                    Some(0.0),
                    false,
                ) {
                    Ok(x) => x,
                    Err(e) => {
                        capture_failure(&mna, ws, None, "initial-uic", 0.0, 0.0, &e);
                        return Err(e);
                    }
                }
            }
        };

        // Pre-size the waveform store so recording never reallocates
        // mid-run: exact for the fixed grid, an estimate (initial-step
        // count plus breakpoints) for the adaptive path, whose whole point
        // is to take far fewer steps than that.
        let capacity = match spec.control {
            StepControl::Fixed => (spec.t_stop / spec.dt).round() as usize + 1,
            StepControl::Adaptive(a) => {
                self.fill_breakpoints(spec.t_stop, a.dt_min, &mut ws.breakpoints);
                (spec.t_stop / spec.dt).ceil() as usize + 2 * ws.breakpoints.len() + 9
            }
        };
        let mut result = match probes {
            None => TransientResult::with_capacity(self.node_count(), capacity),
            Some(nodes) => TransientResult::probed(self.node_names(), nodes, capacity),
        };
        result.push(0.0, |node| mna.voltage_of(&x, node));

        // The run's capacitor table: laid out once, its values taken at the
        // initial state (no branch-current history yet — the first step is
        // always backward Euler).
        let history = spec.integrator == Integrator::Trapezoidal;
        let adaptive = matches!(spec.control, StepControl::Adaptive(_));
        ws.caps.lay_out(self, &mut ws.companions, history, adaptive);
        ws.caps.start.refill(self, &x, &ws.companions, false);

        match spec.control {
            // --- Fixed uniform grid ---------------------------------------
            StepControl::Fixed => {
                let steps = (spec.t_stop / spec.dt).round() as usize;
                for step in 1..=steps {
                    let t_new = step as f64 * spec.dt;
                    // Trapezoidal needs a consistent branch-current history,
                    // which a UIC or DC start does not provide — so the first
                    // step is always backward Euler (the standard SPICE
                    // bootstrap).
                    let use_be = spec.integrator == Integrator::BackwardEuler || step == 1;
                    build_companions(&ws.caps.start, spec.dt, use_be, &mut ws.companions);

                    // Newton solve for t_{n+1}, warm-started from t_n.
                    x = match solve_op(
                        &mna,
                        &mut ws.bufs,
                        &mut ws.anchor,
                        x,
                        t_new,
                        Some(&ws.companions),
                        &opts,
                        Some(t_new),
                        false,
                    ) {
                        Ok(v) => v,
                        Err(e) => {
                            ws.step_trace.record(t_new, -spec.dt);
                            // `solve_op` snapshotted the last accepted state
                            // into the anchor buffer before consuming it —
                            // recover it from there and try the rescue
                            // ladder before declaring the run dead.
                            let x_last = ws.anchor.clone();
                            let rescued = rescue_step(
                                self,
                                &mna,
                                ws,
                                x_last,
                                t_new - spec.dt,
                                t_new,
                                &opts,
                                &mut result.stats,
                            );
                            match rescued {
                                Some(v) => v,
                                None => {
                                    capture_failure(
                                        &mna,
                                        ws,
                                        Some(&result),
                                        "fixed-step",
                                        t_new,
                                        spec.dt,
                                        &e,
                                    );
                                    return Err(e);
                                }
                            }
                        }
                    };

                    // Re-linearize the table at the new operating point
                    // (and update the branch-current history from the
                    // companions that produced it).
                    ws.caps.start.refill(self, &x, &ws.companions, history);

                    ws.step_trace.record(t_new, spec.dt);
                    {
                        let _span = tfet_obs::span("record");
                        result.push(t_new, |node| mna.voltage_of(&x, node));
                    }
                    result.stats.accepted_steps += 1;
                    if event_fired(events, &mna, &x, t_new) {
                        result.stats.early_exit = true;
                        break;
                    }
                }
            }

            // --- Adaptive step-doubling LTE control -----------------------
            StepControl::Adaptive(a) => {
                let mut grown_steps = 0u64;
                let mut newton_shrinks = 0u64;
                let mut t = 0.0;
                let mut h = spec.dt.clamp(a.dt_min, a.dt_max);
                let mut bp_idx = 0;
                let mut first_step = true;
                'time: while t < spec.t_stop {
                    // Skip breakpoints already reached, then clamp the
                    // controller's step so it lands exactly on the next one
                    // (and on t_stop).
                    while bp_idx < ws.breakpoints.len()
                        && ws.breakpoints[bp_idx] <= t + 0.5 * a.dt_min
                    {
                        bp_idx += 1;
                    }
                    let mut t_new = t + h;
                    if let Some(&bp) = ws.breakpoints.get(bp_idx) {
                        if t_new > bp - 0.5 * a.dt_min {
                            t_new = bp;
                        }
                    }
                    if t_new > spec.t_stop - 0.5 * a.dt_min {
                        t_new = spec.t_stop;
                    }
                    let mut h_try = t_new - t;

                    // Trial loop: attempt h_try, shrink on an LTE rejection
                    // or a Newton failure, accept at the floor regardless.
                    loop {
                        let use_be = spec.integrator == Integrator::BackwardEuler || first_step;
                        let t_mid = 0.5 * (t + t_new);
                        let mut trial_err: Option<SimError> = None;
                        let mut lte = f64::INFINITY;

                        // Coarse: one full step t -> t_new.
                        build_companions(&ws.caps.start, h_try, use_be, &mut ws.companions);
                        ws.x_coarse.clear();
                        ws.x_coarse.extend_from_slice(&x);
                        match solve_op(
                            &mna,
                            &mut ws.bufs,
                            &mut ws.anchor,
                            std::mem::take(&mut ws.x_coarse),
                            t_new,
                            Some(&ws.companions),
                            &opts,
                            Some(t_new),
                            false,
                        ) {
                            Ok(v) => ws.x_coarse = v,
                            Err(e) => trial_err = Some(e),
                        }

                        // Fine: two half steps with a midpoint
                        // re-linearization of the nonlinear capacitances.
                        if trial_err.is_none() {
                            build_companions(
                                &ws.caps.start,
                                0.5 * h_try,
                                use_be,
                                &mut ws.companions,
                            );
                            ws.x_fine.clear();
                            ws.x_fine.extend_from_slice(&x);
                            match solve_op(
                                &mna,
                                &mut ws.bufs,
                                &mut ws.anchor,
                                std::mem::take(&mut ws.x_fine),
                                t_mid,
                                Some(&ws.companions),
                                &opts,
                                Some(t_mid),
                                false,
                            ) {
                                Ok(v) => ws.x_fine = v,
                                Err(e) => trial_err = Some(e),
                            }
                        }
                        if trial_err.is_none() {
                            ws.caps
                                .mid
                                .refill(self, &ws.x_fine, &ws.companions, history);
                            build_companions(&ws.caps.mid, 0.5 * h_try, use_be, &mut ws.companions);
                            match solve_op(
                                &mna,
                                &mut ws.bufs,
                                &mut ws.anchor,
                                std::mem::take(&mut ws.x_fine),
                                t_new,
                                Some(&ws.companions),
                                &opts,
                                Some(t_new),
                                false,
                            ) {
                                Ok(v) => ws.x_fine = v,
                                Err(e) => trial_err = Some(e),
                            }
                        }
                        if trial_err.is_none() {
                            // LTE estimate: largest node-voltage disagreement
                            // between the coarse and fine solutions.
                            lte = ws.x_fine[..n_v]
                                .iter()
                                .zip(&ws.x_coarse[..n_v])
                                .fold(0.0f64, |m, (f, c)| m.max((f - c).abs()));
                        }

                        let at_floor = h_try <= a.dt_min * (1.0 + 1e-9);
                        if trial_err.is_none() && (lte <= a.ltol || at_floor) {
                            // Accept the fine solution (it carries the
                            // midpoint re-linearization).
                            std::mem::swap(&mut x, &mut ws.x_fine);
                            ws.caps.start.refill(self, &x, &ws.companions, history);
                            t = t_new;
                            first_step = false;
                            ws.step_trace.record(t, h_try);
                            {
                                let _span = tfet_obs::span("record");
                                result.push(t, |node| mna.voltage_of(&x, node));
                            }
                            result.stats.accepted_steps += 1;
                            // First-order controller: next step from this
                            // step's error, bounded growth/shrink.
                            let scale = if lte > 0.0 && lte.is_finite() {
                                (0.9 * (a.ltol / lte).sqrt()).clamp(0.2, 2.0)
                            } else {
                                2.0
                            };
                            if scale > 1.0 {
                                grown_steps += 1;
                            }
                            h = (h_try * scale).clamp(a.dt_min, a.dt_max);
                            if event_fired(events, &mna, &x, t) {
                                result.stats.early_exit = true;
                                break 'time;
                            }
                            break;
                        }

                        // Rejected: shrink and retry; at the floor a Newton
                        // failure is fatal (the LTE case was accepted above).
                        result.stats.rejected_steps += 1;
                        ws.step_trace.record(t_new, -h_try);
                        if trial_err.is_some() {
                            newton_shrinks += 1;
                        }
                        if at_floor {
                            let e = trial_err.expect("floor rejection implies Newton failure");
                            // Last resort below the controller's floor: the
                            // rescue ladder subdivides this step further than
                            // `dt_min` allows and, on its final rung, re-runs
                            // the g_min continuation anchored at the last
                            // accepted state.
                            let rescued = rescue_step(
                                self,
                                &mna,
                                ws,
                                x.clone(),
                                t,
                                t_new,
                                &opts,
                                &mut result.stats,
                            );
                            match rescued {
                                Some(v) => {
                                    x = v;
                                    ws.caps.start.refill(self, &x, &ws.companions, history);
                                    t = t_new;
                                    first_step = false;
                                    ws.step_trace.record(t, h_try);
                                    {
                                        let _span = tfet_obs::span("record");
                                        result.push(t, |node| mna.voltage_of(&x, node));
                                    }
                                    result.stats.accepted_steps += 1;
                                    // Restart the controller at the floor:
                                    // whatever defeated Newton here is still
                                    // nearby, so re-grow from the bottom.
                                    h = a.dt_min;
                                    if event_fired(events, &mna, &x, t) {
                                        result.stats.early_exit = true;
                                        break 'time;
                                    }
                                    break;
                                }
                                None => {
                                    capture_failure(
                                        &mna,
                                        ws,
                                        Some(&result),
                                        "adaptive-floor",
                                        t_new,
                                        h_try,
                                        &e,
                                    );
                                    return Err(e);
                                }
                            }
                        }
                        let shrink = if trial_err.is_some() {
                            0.25
                        } else {
                            (0.9 * (a.ltol / lte).sqrt()).clamp(0.1, 0.5)
                        };
                        h_try = (h_try * shrink).max(a.dt_min);
                        t_new = t + h_try;
                    }
                }
                if tfet_obs::enabled() {
                    tfet_obs::counter("lte.accepted_steps", result.stats.accepted_steps);
                    tfet_obs::counter("lte.rejected_steps", result.stats.rejected_steps);
                    tfet_obs::counter("lte.grown_steps", grown_steps);
                    tfet_obs::counter("lte.newton_shrinks", newton_shrinks);
                }
            }
        }

        result.stats.newton_solves = ws.bufs.newton_solves - solves0;
        result.stats.newton_iters = ws.bufs.newton_iters - iters0;
        result.stats.jac_refactored = ws.bufs.jac_refactored - refac0;
        result.stats.jac_reused = ws.bufs.jac_reused - reused0;
        result.stats.device_evals = ws.bufs.device_evals - evals0;
        result.stats.devices_bypassed = ws.bufs.devices_bypassed - bypassed0;
        result.stats.devices_dormant = ws.bufs.devices_dormant - dormant0;
        result.stats.cells_refreshed = ws.bufs.cells_refreshed - crefresh0;
        result.stats.guard_refreshes = ws.bufs.guard_refreshes - grefresh0;
        result.stats.runs = 1;
        // Harvest this run's per-partition dormancy telemetry (zeroed at run
        // entry, accumulated serially in the decide phase — identical at any
        // thread count). Empty when the circuit registered no partitions.
        if let Some(lat) = ws.bufs.latency.as_ref() {
            result.partitions.clone_from(&lat.telemetry);
        }
        if tfet_obs::enabled() {
            tfet_obs::counter("transient.runs", 1);
            if result.stats.early_exit {
                tfet_obs::counter("transient.early_exits", 1);
            }
            tfet_obs::counter("newton.jac_refactored", result.stats.jac_refactored);
            tfet_obs::counter("newton.jac_reused", result.stats.jac_reused);
            tfet_obs::counter("devices.evals", result.stats.device_evals);
            tfet_obs::counter("devices.bypassed", result.stats.devices_bypassed);
            if result.stats.devices_dormant > 0 || result.stats.cells_refreshed > 0 {
                // Latency-tier counters only appear for partitioned
                // circuits, keeping unpartitioned reports byte-stable.
                tfet_obs::counter("devices.dormant", result.stats.devices_dormant);
                tfet_obs::counter("latency.cells_refreshed", result.stats.cells_refreshed);
                tfet_obs::counter("latency.guard_refreshes", result.stats.guard_refreshes);
            }
            if spec.solver == SolverStrategy::Sparse {
                // Symbolic analyses are per-worker warm-up (each thread's
                // workspace analyzes once per topology), so they live in the
                // scheduling-dependent `work` section, not `counters`.
                tfet_obs::work(
                    "solver.sparse_analyses",
                    ws.bufs.sparse_analyses - analyses0,
                );
                tfet_obs::counter(
                    "solver.sparse_refactorizations",
                    ws.bufs.jac_refactored - refac0,
                );
                tfet_obs::counter("solver.sparse_solves", ws.bufs.sparse_solves - ssolves0);
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use std::sync::Arc;
    use tfet_devices::{NTfet, Nmos, PTfet, Pmos};

    #[test]
    fn rc_charging_matches_analytic() {
        // 1 kΩ · 1 pF = 1 ns time constant, driven by a fast step to 1 V.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource("V", inp, Circuit::GND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
        c.resistor(inp, out, 1e3);
        c.capacitor(out, Circuit::GND, 1e-12);

        let res = c
            .transient(&TransientSpec::new(5e-9, 1e-12), &InitialState::Uic(vec![]))
            .unwrap();
        // After one time constant: 1 − e⁻¹ ≈ 0.632.
        let v_tau = res.voltage_at(out, 1e-9);
        assert!((v_tau - 0.632).abs() < 0.02, "v(τ) = {v_tau}");
        // Fully settled by 5τ.
        assert!((res.final_voltage(out) - 1.0).abs() < 0.01);
    }

    #[test]
    fn adaptive_matches_fixed_reference_on_rc() {
        // Pulse-driven RC: the adaptive engine must track the dense
        // fixed-step reference to half a percent of the 1 V swing
        // everywhere (default ltol = 0.5 mV/step accumulates to a few mV
        // over the fast edges).
        let build = || {
            let mut c = Circuit::new();
            let inp = c.node("in");
            let out = c.node("out");
            c.vsource(
                "V",
                inp,
                Circuit::GND,
                Waveform::pulse(0.0, 1.0, 0.5e-9, 2e-9, 50e-12),
            );
            c.resistor(inp, out, 1e3);
            c.capacitor(out, Circuit::GND, 0.2e-12);
            (c, out)
        };
        let (c_ref, out_ref) = build();
        let reference = c_ref
            .transient(
                &TransientSpec::fixed(4e-9, 0.5e-12),
                &InitialState::Uic(vec![]),
            )
            .unwrap();
        let (c_ad, out_ad) = build();
        let adaptive = c_ad
            .transient(&TransientSpec::new(4e-9, 2e-12), &InitialState::Uic(vec![]))
            .unwrap();

        let mut worst = 0.0f64;
        for k in 0..=400 {
            let t = k as f64 * 1e-11;
            worst = worst
                .max((adaptive.voltage_at(out_ad, t) - reference.voltage_at(out_ref, t)).abs());
        }
        assert!(worst < 5e-3, "max |adaptive − fixed| = {worst:e} V");
        // And it must be doing so with far fewer accepted steps.
        assert!(
            adaptive.stats.accepted_steps * 3 < reference.stats.accepted_steps,
            "adaptive {} vs fixed {} steps",
            adaptive.stats.accepted_steps,
            reference.stats.accepted_steps
        );
    }

    #[test]
    fn adaptive_lands_on_source_edges() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(
            "V",
            inp,
            Circuit::GND,
            Waveform::pulse(0.0, 1.0, 1e-9, 1e-9, 100e-12),
        );
        c.resistor(inp, out, 1e3);
        c.capacitor(out, Circuit::GND, 1e-12);
        let res = c
            .transient(
                &TransientSpec::new(4e-9, 10e-12),
                &InitialState::Uic(vec![]),
            )
            .unwrap();
        // The pulse corners must appear as recorded time points exactly.
        for edge in [1e-9, 1.1e-9, 1.9e-9, 2e-9] {
            assert!(
                res.times().iter().any(|&t| (t - edge).abs() < 1e-15),
                "no step lands on edge {edge:e}"
            );
        }
        // The run ends exactly at t_stop.
        assert!((res.times().last().unwrap() - 4e-9).abs() < 1e-15);
    }

    #[test]
    fn stop_event_ends_run_early() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource("V", inp, Circuit::GND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
        c.resistor(inp, out, 1e3);
        c.capacitor(out, Circuit::GND, 1e-12);
        let events = [StopEvent::diff_above(out, Circuit::GND, 0.5, 0.0)];
        for spec in [
            TransientSpec::new(20e-9, 1e-12),
            TransientSpec::fixed(20e-9, 10e-12),
        ] {
            let res = c
                .transient_events(&spec, &InitialState::Uic(vec![]), &events)
                .unwrap();
            assert!(res.stats.early_exit, "event must fire");
            let t_end = *res.times().last().unwrap();
            // v crosses 0.5 at τ·ln 2 ≈ 0.69 ns; the run must stop shortly
            // after, nowhere near the 20 ns horizon.
            assert!(t_end < 2e-9, "stopped at {t_end:e}");
            assert!(res.final_voltage(out) > 0.5);
        }
    }

    #[test]
    fn stop_event_respects_arming_time() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource("V", inp, Circuit::GND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
        c.resistor(inp, out, 1e3);
        c.capacitor(out, Circuit::GND, 1e-12);
        let events = [StopEvent::diff_above(out, Circuit::GND, 0.5, 5e-9)];
        let res = c
            .transient_events(
                &TransientSpec::new(20e-9, 1e-12),
                &InitialState::Uic(vec![]),
                &events,
            )
            .unwrap();
        assert!(res.stats.early_exit);
        assert!(
            *res.times().last().unwrap() >= 5e-9,
            "must not fire unarmed"
        );
    }

    #[test]
    fn solver_effort_counters_are_collected() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource("V", inp, Circuit::GND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
        c.resistor(inp, out, 1e3);
        c.capacitor(out, Circuit::GND, 1e-12);
        let res = c
            .transient(
                &TransientSpec::fixed(1e-9, 10e-12),
                &InitialState::Uic(vec![]),
            )
            .unwrap();
        assert_eq!(res.stats.accepted_steps, 100);
        assert_eq!(res.stats.rejected_steps, 0);
        // One solve per step plus the UIC initial solve (ladder retries
        // would only add more).
        assert!(res.stats.newton_solves >= 101, "{:?}", res.stats);
        assert!(res.stats.newton_iters >= res.stats.newton_solves);
        assert!(!res.stats.early_exit);
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_be_on_rc() {
        let build = || {
            let mut c = Circuit::new();
            let inp = c.node("in");
            let out = c.node("out");
            c.vsource("V", inp, Circuit::GND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
            c.resistor(inp, out, 1e3);
            c.capacitor(out, Circuit::GND, 1e-12);
            (c, out)
        };
        let exact = 1.0 - (-1.0f64).exp();
        // Deliberately coarse *fixed* step to expose the order difference
        // (the adaptive controller would shrink it away).
        let (c, out) = build();
        let be = c
            .transient(
                &TransientSpec::fixed(1e-9, 100e-12),
                &InitialState::Uic(vec![]),
            )
            .unwrap();
        let (c, out2) = build();
        let tr = c
            .transient(
                &TransientSpec::fixed(1e-9, 100e-12).with_integrator(Integrator::Trapezoidal),
                &InitialState::Uic(vec![]),
            )
            .unwrap();
        let err_be = (be.final_voltage(out) - exact).abs();
        let err_tr = (tr.final_voltage(out2) - exact).abs();
        assert!(err_tr < err_be, "trap {err_tr} !< BE {err_be}");
    }

    #[test]
    fn adaptive_trapezoidal_tracks_rc() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource("V", inp, Circuit::GND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
        c.resistor(inp, out, 1e3);
        c.capacitor(out, Circuit::GND, 1e-12);
        let res = c
            .transient(
                &TransientSpec::new(5e-9, 1e-12).with_integrator(Integrator::Trapezoidal),
                &InitialState::Uic(vec![]),
            )
            .unwrap();
        let v_tau = res.voltage_at(out, 1e-9);
        assert!((v_tau - 0.632).abs() < 0.02, "v(τ) = {v_tau}");
        assert!((res.final_voltage(out) - 1.0).abs() < 0.01);
    }

    #[test]
    fn uic_holds_capacitor_voltage() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor(a, Circuit::GND, 1e-15);
        c.resistor(a, Circuit::GND, 1e12); // 1 ms discharge: static here
        let res = c
            .transient(
                &TransientSpec::new(1e-9, 1e-11),
                &InitialState::Uic(vec![(a, 0.5)]),
            )
            .unwrap();
        assert!((res.voltage_at(a, 0.0) - 0.5).abs() < 1e-3);
        assert!((res.final_voltage(a) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn cmos_inverter_switches_dynamically() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
        c.vsource(
            "VIN",
            inp,
            Circuit::GND,
            Waveform::pulse(0.0, 0.8, 0.2e-9, 1.0e-9, 20e-12),
        );
        c.transistor("MP", Arc::new(Pmos::nominal()), out, inp, vdd, 0.2);
        c.transistor("MN", Arc::new(Nmos::nominal()), out, inp, Circuit::GND, 0.1);
        c.capacitor(out, Circuit::GND, 0.5e-15);

        let res = c
            .transient(
                &TransientSpec::new(2e-9, 2e-12),
                &InitialState::DcOp(vec![]),
            )
            .unwrap();
        // Output starts high (input low)...
        assert!(res.voltage_at(out, 0.1e-9) > 0.75);
        // ...falls when the input pulse arrives...
        assert!(res.voltage_at(out, 1.0e-9) < 0.05);
        // ...and recovers after the pulse.
        assert!(res.final_voltage(out) > 0.75);
        // The fall crossing is measurable.
        let t_fall = res
            .crossing(out, 0.4, false, 0.2e-9)
            .expect("output must cross half-rail");
        assert!(t_fall > 0.2e-9 && t_fall < 0.5e-9, "t_fall = {t_fall:e}");
    }

    #[test]
    fn tfet_inverter_switches_dynamically() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
        c.vsource(
            "VIN",
            inp,
            Circuit::GND,
            Waveform::step(0.0, 0.8, 0.2e-9, 20e-12),
        );
        c.transistor("MP", Arc::new(PTfet::nominal()), out, inp, vdd, 0.1);
        c.transistor(
            "MN",
            Arc::new(NTfet::nominal()),
            out,
            inp,
            Circuit::GND,
            0.1,
        );
        c.capacitor(out, Circuit::GND, 0.2e-15);

        let res = c
            .transient(
                &TransientSpec::new(3e-9, 2e-12),
                &InitialState::DcOp(vec![]),
            )
            .unwrap();
        assert!(res.voltage_at(out, 0.1e-9) > 0.75);
        assert!(res.final_voltage(out) < 0.05);
    }

    #[test]
    fn energy_conservation_sanity_rc_discharge() {
        // A charged capacitor discharging through a resistor: the voltage
        // must decay monotonically and stay within [0, v0].
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor(a, Circuit::GND, 1e-12);
        c.resistor(a, Circuit::GND, 1e3);
        let res = c
            .transient(
                &TransientSpec::new(5e-9, 5e-12),
                &InitialState::Uic(vec![(a, 1.0)]),
            )
            .unwrap();
        let trace = res.trace(a);
        for w in trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "voltage must decay monotonically");
            assert!(w[1] >= -1e-9);
        }
        let v_tau = res.voltage_at(a, 1e-9);
        assert!((v_tau - (-1.0f64).exp()).abs() < 0.02);
    }

    /// A linear drain–source conductance whose reported derivatives have
    /// the wrong sign: the residual is honest, the Jacobian lies. Newton
    /// then converges only where something else dominates the diagonal —
    /// the companion conductance `C/Δt` or a large g_min rung — which makes
    /// the failure *step-size dependent*: exactly the regime the rescue
    /// ladder exists for. With `C/Δt = c` the iteration contracts iff
    /// `(g + c)/(c − g) < 2`, i.e. `c > 3g`, so the failing step size is
    /// chosen to sit below that threshold and the subdivided rescue substeps
    /// above it.
    #[derive(Debug)]
    struct WrongJacobianDev {
        g: f64,
    }

    impl tfet_devices::model::DeviceModel for WrongJacobianDev {
        fn name(&self) -> &str {
            "wrong-jacobian"
        }
        fn polarity(&self) -> tfet_devices::model::Polarity {
            tfet_devices::model::Polarity::N
        }
        fn kind(&self) -> tfet_devices::model::DeviceKind {
            tfet_devices::model::DeviceKind::Mosfet
        }
        fn ids_per_um(&self, _vg: f64, vd: f64, vs: f64) -> f64 {
            self.g * (vd - vs)
        }
        fn caps_per_um(&self, _vg: f64, _vd: f64, _vs: f64) -> tfet_devices::model::Caps {
            tfet_devices::model::Caps::default()
        }
        fn conductances_per_um(&self, _vg: f64, _vd: f64, _vs: f64) -> (f64, f64, f64) {
            // True values are (0, +g, −g); report the d/s pair negated.
            (0.0, -self.g, self.g)
        }
    }

    /// 1 pF discharging through a 1 mS wrong-Jacobian device: τ = 1 ns.
    fn sabotaged_rc() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor(a, Circuit::GND, 1e-12);
        c.transistor(
            "M",
            Arc::new(WrongJacobianDev { g: 1e-3 }),
            a,
            Circuit::GND,
            Circuit::GND,
            1.0,
        );
        (c, a)
    }

    #[test]
    fn rescue_ladder_salvages_wrong_jacobian_fixed_steps() {
        // dt = 0.8 ns puts C/Δt at 1.25g — divergent. The 2× rung stays
        // divergent (2.5g), the 4× rung contracts (5g > 3g), so every step
        // of the run must be rescued on the second rung. The arithmetic
        // assumes a fresh factorization every iteration, so pin the dense
        // strategy; sparse-mode escalation is covered by
        // tests/modified_newton.rs.
        let (c, a) = sabotaged_rc();
        let res = c
            .transient(
                &TransientSpec::fixed(4e-9, 0.8e-9).with_solver(SolverStrategy::Dense),
                &InitialState::Uic(vec![(a, 1.0)]),
            )
            .unwrap();
        assert_eq!(res.stats.accepted_steps, 5);
        assert_eq!(res.stats.rescued_steps, 5, "{:?}", res.stats);
        assert_eq!(res.stats.rescue_attempts, 10, "{:?}", res.stats);
        // The rescued run is still the physical RC discharge.
        assert!(res.voltage_at(a, 0.0) > 0.99);
        assert!(res.final_voltage(a) < 0.1, "v = {}", res.final_voltage(a));
        let v_tau = res.voltage_at(a, 1e-9);
        assert!((v_tau - (-1.0f64).exp()).abs() < 0.08, "v(τ) = {v_tau}");
    }

    #[test]
    fn rescue_ladder_salvages_adaptive_floor_failure() {
        // Pin the controller's floor at the divergent step size: every
        // trial fails at the floor and only the rescue ladder (which may
        // subdivide below dt_min) can make progress.
        let (c, a) = sabotaged_rc();
        let spec = TransientSpec::new(4e-9, 0.8e-9)
            .with_step_bounds(0.8e-9, 1.6e-9)
            .with_solver(SolverStrategy::Dense);
        let res = c
            .transient(&spec, &InitialState::Uic(vec![(a, 1.0)]))
            .unwrap();
        assert!(res.stats.rescued_steps >= 1, "{:?}", res.stats);
        assert!(res.stats.rejected_steps >= res.stats.rescued_steps);
        assert!(res.final_voltage(a) < 0.1, "v = {}", res.final_voltage(a));
    }

    #[test]
    fn unrescuable_step_failure_still_errors() {
        // dt = 4 ns: even the deepest rung (8 substeps, anchored g_min)
        // leaves C/Δt at 2g < 3g — nothing on the ladder contracts, so the
        // original error must surface unchanged.
        let (c, a) = sabotaged_rc();
        let err = c
            .transient(
                &TransientSpec::fixed(8e-9, 4e-9).with_solver(SolverStrategy::Dense),
                &InitialState::Uic(vec![(a, 1.0)]),
            )
            .unwrap_err();
        assert!(
            matches!(err, SimError::NoConvergence { .. }),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn healthy_runs_never_touch_the_rescue_ladder() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource("V", inp, Circuit::GND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
        c.resistor(inp, out, 1e3);
        c.capacitor(out, Circuit::GND, 1e-12);
        for spec in [
            TransientSpec::new(5e-9, 1e-12),
            TransientSpec::fixed(5e-9, 10e-12),
        ] {
            let res = c.transient(&spec, &InitialState::Uic(vec![])).unwrap();
            assert_eq!(res.stats.rescue_attempts, 0);
            assert_eq!(res.stats.rescued_steps, 0);
        }
    }

    /// A linear drain–source conductance with constant capacitances, except
    /// that its gate–source capacitance vanishes while `v_gs` is below
    /// `cgs_on` — a device whose capacitor branches come and go with bias.
    #[derive(Debug)]
    struct SwitchedCapDev {
        g: f64,
        c: f64,
        cgs_on: f64,
    }

    impl tfet_devices::model::DeviceModel for SwitchedCapDev {
        fn name(&self) -> &str {
            "switched-cap"
        }
        fn polarity(&self) -> tfet_devices::model::Polarity {
            tfet_devices::model::Polarity::N
        }
        fn kind(&self) -> tfet_devices::model::DeviceKind {
            tfet_devices::model::DeviceKind::Mosfet
        }
        fn ids_per_um(&self, _vg: f64, vd: f64, vs: f64) -> f64 {
            self.g * (vd - vs)
        }
        fn caps_per_um(&self, vg: f64, _vd: f64, vs: f64) -> tfet_devices::model::Caps {
            tfet_devices::model::Caps {
                cgs: if vg - vs < self.cgs_on { 0.0 } else { self.c },
                cgd: self.c,
                cdb: self.c,
                csb: self.c,
            }
        }
        fn conductances_per_um(&self, _vg: f64, _vd: f64, _vs: f64) -> (f64, f64, f64) {
            (0.0, self.g, -self.g)
        }
    }

    #[test]
    fn netlist_order_does_not_change_trapezoidal_history() {
        // Two loads on one pulsed gate: one whose gate–source capacitance
        // vanishes below 0.4 V, one with constant capacitances. Under the
        // trapezoidal rule every capacitor branch carries its own current
        // history from step to step; listing the devices in either order is
        // the same circuit and must give the same waveforms.
        let build = |switched_first: bool| {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let gate = c.node("in");
            let a = c.node("a");
            let b = c.node("b");
            c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
            c.vsource(
                "VIN",
                gate,
                Circuit::GND,
                Waveform::pulse(0.0, 0.8, 0.2e-9, 0.5e-9, 50e-12),
            );
            c.resistor(vdd, a, 10e3);
            c.resistor(vdd, b, 10e3);
            let switched = || -> Arc<dyn tfet_devices::model::DeviceModel> {
                Arc::new(SwitchedCapDev {
                    g: 5e-5,
                    c: 1e-15,
                    cgs_on: 0.4,
                })
            };
            let constant = || -> Arc<dyn tfet_devices::model::DeviceModel> {
                Arc::new(SwitchedCapDev {
                    g: 5e-5,
                    c: 1e-15,
                    cgs_on: f64::NEG_INFINITY,
                })
            };
            if switched_first {
                c.transistor("MS", switched(), a, gate, Circuit::GND, 1.0);
                c.transistor("MC", constant(), b, gate, Circuit::GND, 1.0);
            } else {
                c.transistor("MC", constant(), b, gate, Circuit::GND, 1.0);
                c.transistor("MS", switched(), a, gate, Circuit::GND, 1.0);
            }
            (c, a, b)
        };
        let spec = TransientSpec::fixed(1.5e-9, 10e-12).with_integrator(Integrator::Trapezoidal);
        let (c1, a1, b1) = build(true);
        let (c2, a2, b2) = build(false);
        let r1 = c1.transient(&spec, &InitialState::DcOp(vec![])).unwrap();
        let r2 = c2.transient(&spec, &InitialState::DcOp(vec![])).unwrap();
        assert_eq!(r1.times(), r2.times());
        let mut worst = 0.0f64;
        for (n1, n2) in [(a1, a2), (b1, b2)] {
            for (v1, v2) in r1.trace(n1).iter().zip(r2.trace(n2).iter()) {
                worst = worst.max((v1 - v2).abs());
            }
        }
        assert!(
            worst < 1e-9,
            "netlist order moved a waveform by {worst:e} V"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_rejected() {
        TransientSpec::new(1e-9, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_rejected_fixed() {
        TransientSpec::fixed(1e-9, 0.0);
    }
}
