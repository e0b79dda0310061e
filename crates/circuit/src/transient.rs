//! Transient analysis with adaptive, LTE-controlled time stepping.
//!
//! Each step solves the full nonlinear system with Newton–Raphson, replacing
//! every capacitor (explicit and device) by its integration companion model:
//!
//! * **backward Euler** — `i = C/Δt·(v_{n+1} − v_n)`: L-stable, numerically
//!   damped; the default for the digital-style SRAM waveforms where spurious
//!   trapezoidal ringing would pollute noise-margin measurements;
//! * **trapezoidal** — `i = 2C/Δt·(v_{n+1} − v_n) − i_n`: second-order
//!   accurate on constant capacitances (see the note on device capacitances
//!   below), available for accuracy cross-checks (the integrator ablation
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
//! Both policies run in one step loop and differ in two places only: how
//! the next step is proposed (the grid's next point, or the controller's
//! step clamped to the next breakpoint and `t_stop`) and how a trial is
//! judged (the fixed grid accepts its one solve as if every step sat at the
//! adaptive floor; the controller accepts on the LTE estimate, or shrinks
//! and retries). Accepting a step, the rescue ladder for a Newton failure
//! at the floor, and [`StopEvent`] early exit — once armed, a node-voltage
//! difference crossing ends the run as soon as the outcome it encodes (an
//! SRAM cell committed to a flip, or back to its held state) is decided —
//! are shared.
//!
//! Nonlinear device capacitances are evaluated at the start of every step
//! and held for the step: the companion current is `C(v_n)·Δv/Δt`, not a
//! charge difference. Measured on the cell and array metrics, this caps both
//! integrators at first order — trapezoidal included — under step halving;
//! charge-based companions are ROADMAP item 2.
//!
//! # Resuming from a checkpoint trail
//!
//! A run of a [`CompiledCircuit`](crate::CompiledCircuit) on its checkpoint
//! trail either records a checkpoint after every accepted step or resumes
//! from the latest checkpoint of the recorded run it provably shares, and
//! runs only the rest of the loop. The equality rule: the spec (`dt`,
//! integrator, step control), engine, initial state and devices are equal;
//! every source gives bit-identical values before the checkpoint's *reach*
//! (the latest trial time proposed up to it, after the breakpoint clamp and
//! before the `t_stop` clamp); under adaptive control the reach stays half
//! a floor step clear of the first breakpoint the two schedules do not
//! share and of both `t_stop`s, under fixed control the grid still includes
//! the step; and no stop event arms before the checkpoint's time. A PWL
//! value is `v[i]·(1−t) + v[i+1]·t`, so only a 0 V plateau is exact at
//! every segment fraction: an active-low wordline agrees with a wider pulse
//! until its own pulse ends, any other plateau only until its edge tops
//! out. Resumed runs are bit-identical to cold ones; their stats count the
//! work they performed. The trail's module docs (`trail.rs`) hold the full
//! argument.

use crate::dc::{solve_op, Engine, SolverStrategy};
use crate::error::SimError;
use crate::latency::DeviceLatency;
use crate::latency::{assembly_threads, pools};
use crate::mna::{branch_voltage, CompanionCaps, Mna};
use crate::netlist::{Circuit, NodeId, Transistor};
use crate::pool::{F64Cell, Pool, SharedF64, Volts};
use crate::probe::{SolveStats, TransientResult};
use crate::trail::{Trail, TrailRole};
use crate::workspace::NewtonWorkspace;
use std::ops::Range;
use std::sync::Arc;

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
    /// Per-run override of the process-wide strategy (unit tests only).
    solver: Option<SolverStrategy>,
    /// Per-run override of the process-wide latency mode.
    latency: Option<DeviceLatency>,
}

/// The duration contract of every spec: a finite, positive `t_stop` (an
/// infinite one would never end the run) and a finite, positive `dt` no
/// larger than it.
fn check_durations(t_stop: f64, dt: f64) {
    assert!(t_stop > 0.0 && dt > 0.0, "durations must be positive");
    assert!(
        t_stop.is_finite() && dt.is_finite(),
        "durations must be finite, got t_stop = {t_stop:e} s, dt = {dt:e} s"
    );
    assert!(dt <= t_stop, "dt must not exceed t_stop");
}

impl TransientSpec {
    /// A backward-Euler spec with **adaptive** step control seeded at `dt`:
    /// LTE tolerance [`DEFAULT_LTOL` = 0.5 mV], step bounds
    /// `[dt/8, min(64·dt, t_stop)]`, and steps landing exactly on source
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics if either duration is non-positive or not finite (NaN
    /// included), or `dt > t_stop`.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        check_durations(t_stop, dt);
        TransientSpec {
            t_stop,
            dt,
            integrator: Integrator::default(),
            control: StepControl::Adaptive(AdaptiveOpts {
                dt_min: dt * DT_MIN_FRACTION,
                dt_max: (dt * DT_MAX_FACTOR).min(t_stop),
                ltol: DEFAULT_LTOL,
            }),
            solver: None,
            latency: None,
        }
    }

    /// A backward-Euler spec on the **fixed** uniform grid `t_k = k·dt` —
    /// the pre-adaptive engine, kept for accuracy references and for
    /// benches that sweep `dt` itself.
    ///
    /// # Panics
    ///
    /// Panics if either duration is non-positive or not finite (NaN
    /// included), or `dt > t_stop`.
    pub fn fixed(t_stop: f64, dt: f64) -> Self {
        check_durations(t_stop, dt);
        TransientSpec {
            t_stop,
            dt,
            integrator: Integrator::default(),
            control: StepControl::Fixed,
            solver: None,
            latency: None,
        }
    }

    /// Selects the integration method (builder style).
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Pins the linear-solve strategy of this run instead of reading the
    /// process hook (builder style).
    #[cfg(test)]
    pub(crate) fn with_solver(mut self, solver: SolverStrategy) -> Self {
        self.solver = Some(solver);
        self
    }

    /// Pins the device-latency mode of this run instead of reading the
    /// process hook (builder style): how an array netlist passes its own
    /// tier, and how tests compare both modes without racing a sibling.
    #[doc(hidden)]
    pub fn with_device_latency(mut self, latency: DeviceLatency) -> Self {
        self.latency = Some(latency);
        self
    }

    /// The engine this run solves with: the per-run overrides, else the
    /// process hooks as they stand when the run starts.
    fn engine(&self) -> Engine {
        Engine {
            solver: self.solver.unwrap_or_else(SolverStrategy::process_default),
            latency: self.latency.unwrap_or_else(DeviceLatency::process_default),
        }
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
#[derive(Debug, Clone, PartialEq)]
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
///
/// The values live in [`SharedF64`] arrays so a run's helper pool can fill
/// them chunk by chunk.
#[derive(Debug, Clone, Default)]
pub(crate) struct CapValues {
    c: SharedF64,
    v_ab: SharedF64,
    /// Empty unless the run is trapezoidal: backward Euler never reads it.
    pub(crate) i_prev: SharedF64,
}

impl CapValues {
    /// Sizes the values for `circuit`'s table of `n` branches and writes the
    /// explicit capacitors' values, which never change during a run.
    fn lay_out(&mut self, circuit: &Circuit, n: usize, history: bool) {
        self.c.reset(n);
        for (k, cap) in circuit.capacitors.iter().enumerate() {
            self.c.set(k, cap.farads);
        }
        self.v_ab.reset(n);
        self.i_prev.reset(if history { n } else { 0 });
    }

    /// Re-linearizes the table at the state `x` in one pass: evaluates every
    /// transistor's capacitances, stores every branch's voltage, and — with
    /// `history` — derives each branch's current from the companion stamps
    /// `comps` that produced `x` (`i = geq·v_ab + ieq`). With a `pool`, the
    /// pass runs chunk by chunk across its threads.
    ///
    /// A capacitance that is not positive is stored as 0 and keeps its
    /// slot; its companion stamps add zeros, which leave every residual and
    /// Jacobian sum bit-identical to leaving the branch out.
    pub(crate) fn refill<'c>(
        &mut self,
        circuit: &'c Circuit,
        pool: Option<&Pool<'c>>,
        x: &[f64],
        comps: &CompanionCaps,
        history: bool,
    ) {
        let _span = tfet_obs::span("relinearize");
        let all = RefillChunk {
            devices: 0..circuit.transistors.len(),
            first_branch: circuit.capacitors.len(),
            branches: 0..comps.len(),
        };
        match pool {
            None => all.run(circuit, x, self, comps, history),
            Some(pool) => {
                let xs = pool.share_x(x);
                let (vals, comps) = (self.alias(), comps.alias());
                let (devices, branches) = (Arc::clone(&pool.devices), Arc::clone(&pool.branches));
                pool.run(pool.chunks(), move |k| {
                    let chunk = RefillChunk {
                        devices: devices[k]..devices[k + 1],
                        first_branch: if k == 0 {
                            all.first_branch
                        } else {
                            branches[k]
                        },
                        branches: branches[k]..branches[k + 1],
                    };
                    chunk.run(circuit, &xs, &vals, &comps, history);
                });
            }
        }
    }

    /// A second handle on the same values, for a job to own.
    fn alias(&self) -> CapValues {
        CapValues {
            c: self.c.alias(),
            v_ab: self.v_ab.alias(),
            i_prev: self.i_prev.alias(),
        }
    }
}

/// One chunk of [`CapValues::refill`]: the transistors `devices`, whose
/// branches start at `first_branch`, and the table branches `branches`.
struct RefillChunk {
    devices: Range<usize>,
    first_branch: usize,
    branches: Range<usize>,
}

impl RefillChunk {
    /// Re-linearizes this chunk of `vals` at the state `x`.
    fn run<X: Volts + ?Sized>(
        &self,
        circuit: &Circuit,
        x: &X,
        vals: &CapValues,
        comps: &CompanionCaps,
        history: bool,
    ) {
        let volt = |n: NodeId| {
            if n.is_ground() {
                0.0
            } else {
                x.at(n.index() - 1)
            }
        };
        let mut k = self.first_branch;
        for m in &circuit.transistors[self.devices.clone()] {
            let caps = m.model.caps_per_um(volt(m.g), volt(m.d), volt(m.s));
            let w = m.width_um;
            let values = [caps.cgs * w, caps.cgd * w, caps.cdb * w, caps.csb * w];
            for ((a, b), c) in m.cap_terminals().into_iter().zip(values) {
                if a != b {
                    vals.c.set(k, if c > 0.0 { c } else { 0.0 });
                    k += 1;
                }
            }
        }
        debug_assert_eq!(k, self.branches.end, "capacitor table layout");
        let branches = self.branches.clone();
        let voltages = comps.rows()[branches.clone()]
            .iter()
            .zip(vals.v_ab.cells(branches.clone()));
        for (&rows, v_ab) in voltages {
            v_ab.set(branch_voltage(x, rows));
        }
        if history {
            let cell = |a| cells(a, &branches);
            let stamps = cell(&comps.geq).zip(cell(&comps.ieq));
            for ((i_prev, v), (geq, ieq)) in cell(&vals.i_prev).zip(cell(&vals.v_ab)).zip(stamps) {
                i_prev.set(geq.get() * v.get() + ieq.get());
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
    pub(crate) start: CapValues,
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

/// The values of `a` at `range`, to walk in step with others.
fn cells<'a>(a: &'a SharedF64, range: &Range<usize>) -> std::slice::Iter<'a, F64Cell> {
    a.cells(range.clone()).iter()
}

/// Fills `out`'s values with the companion-model stamps of `vals` for one
/// step of `dt` from the state the values were taken at, chunk by chunk
/// across `pool`'s threads when there is one.
fn build_companions(
    vals: &CapValues,
    dt: f64,
    use_be: bool,
    out: &mut CompanionCaps,
    pool: Option<&Pool<'_>>,
) {
    let _span = tfet_obs::span("companions");
    assert!(
        use_be || vals.i_prev.len() == vals.c.len(),
        "trapezoidal companions need the branch-current history"
    );
    let fill = move |branches: Range<usize>, vals: &CapValues, out: &CompanionCaps| {
        let cell = |a| cells(a, &branches);
        let state = cell(&vals.c).zip(cell(&vals.v_ab));
        let stamps = cell(&out.geq).zip(cell(&out.ieq));
        if use_be {
            for ((c, v_ab), (geq_out, ieq)) in state.zip(stamps) {
                let geq = c.get() / dt;
                geq_out.set(geq);
                ieq.set(-geq * v_ab.get());
            }
        } else {
            for (((c, v_ab), (geq_out, ieq)), i_prev) in state.zip(stamps).zip(cell(&vals.i_prev)) {
                let geq = 2.0 * c.get() / dt;
                geq_out.set(geq);
                ieq.set(-geq * v_ab.get() - i_prev.get());
            }
        }
    };
    match pool {
        None => fill(0..out.len(), vals, out),
        Some(pool) => {
            let bounds = Arc::clone(&pool.branches);
            let (vals, shared) = (vals.alias(), out.alias());
            pool.run(bounds.len() - 1, move |k| {
                fill(bounds[k]..bounds[k + 1], &vals, &shared);
            });
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
fn rescue_step(
    mna: &Mna<'_>,
    ws: &mut NewtonWorkspace,
    x_last: Vec<f64>,
    t: f64,
    t_new: f64,
    engine: Engine,
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
            build_companions(&vals, h_sub, true, &mut comps, mna.pool());
            let attempt = solve_op(
                mna,
                &mut ws.bufs,
                &mut ws.anchor,
                std::mem::take(&mut x),
                t_k,
                Some(&comps),
                engine,
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
                vals.refill(mna.circuit(), mna.pool(), &x, &comps, false);
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

impl Transistor {
    /// The terminal pairs of the transistor's four capacitor branches, in
    /// table order: gate–source, gate–drain, drain–bulk and source–bulk
    /// (bulk tied to ground). The table keeps those whose terminals differ.
    pub(crate) fn cap_terminals(&self) -> [(NodeId, NodeId); 4] {
        [
            (self.g, self.s),
            (self.g, self.d),
            (self.d, Circuit::GND),
            (self.s, Circuit::GND),
        ]
    }
}

impl Circuit {
    /// The capacitor table's branch layout, in order: explicit capacitors,
    /// then each transistor's [capacitor branches](Transistor::cap_terminals)
    /// wherever the two terminals differ.
    pub(crate) fn cap_branches(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let explicit = self.capacitors.iter().map(|c| (c.a, c.b));
        let devices = self
            .transistors
            .iter()
            .flat_map(|m| m.cap_terminals().into_iter().filter(|(a, b)| a != b));
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

    /// Solves a run's initial state at `t = 0`.
    fn initial_state(
        &self,
        mna: &Mna<'_>,
        initial: &InitialState,
        engine: Engine,
        ws: &mut NewtonWorkspace,
    ) -> Result<Vec<f64>, SimError> {
        match initial {
            InitialState::DcOp(hints) => {
                self.dc_state_with(mna, hints, ws, engine).inspect_err(|e| {
                    capture_failure(mna, ws, None, "initial-dc", 0.0, 0.0, e);
                })
            }
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
                let hold = CompanionCaps::from_branches((1..=mna.voltage_count()).map(|i| {
                    let g_hold = 1e3; // siemens: overwhelms any device
                    (NodeId(i), Circuit::GND, g_hold, -g_hold * x0[i - 1])
                }));
                solve_op(
                    mna,
                    &mut ws.bufs,
                    &mut ws.anchor,
                    x0,
                    0.0,
                    Some(&hold),
                    engine,
                    Some(0.0),
                    false,
                )
                .inspect_err(|e| {
                    capture_failure(mna, ws, None, "initial-uic", 0.0, 0.0, e);
                })
            }
        }
    }

    /// Runs a transient analysis.
    ///
    /// Node voltages for every node are recorded at every accepted step,
    /// starting with the initial state at `t = 0`. The run builds its own
    /// solver workspace and drops it on return; repeated runs of one
    /// topology (with early-exit [`StopEvent`]s, probes and a workspace held
    /// across runs) go through [`CompiledCircuit`](crate::CompiledCircuit).
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
        let mut ws = NewtonWorkspace::new(&Mna::new(self)?);
        let mut result = self.transient_recorded(spec, initial, &[], None, &mut ws)?;
        result.stats.circuit_builds = 1;
        Ok(result)
    }

    /// The full transient engine: caller-owned scratch, early-exit events,
    /// and the nodes whose traces the result keeps (`None`: every node; a
    /// probe list keeps those traces plus the final state of every node).
    /// [`Circuit::transient`] and [`CompiledCircuit`](crate::CompiledCircuit)
    /// runs delegate here. What is recorded never changes what is computed.
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
        self.transient_run(spec, initial, events, probes, ws, None)
    }

    /// A full-recording run on the checkpoint trail `trail` (see
    /// [`crate::trail`]): [`TrailRole::Record`] clears the trail, runs cold
    /// and checkpoints the run; [`TrailRole::Resume`] restores the latest
    /// checkpoint the run provably shares and runs only the rest. Either
    /// way the result's times and voltages are bit-identical to
    /// [`transient_recorded`](Self::transient_recorded)'s; its stats count
    /// the work this run performed.
    ///
    /// # Errors
    ///
    /// As [`transient_recorded`](Self::transient_recorded).
    pub(crate) fn transient_on_trail(
        &self,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
        ws: &mut NewtonWorkspace,
        trail: &mut Trail,
        role: TrailRole,
    ) -> Result<TransientResult, SimError> {
        self.transient_run(spec, initial, events, None, ws, Some((trail, role)))
    }

    /// One run: the analysis, with a helper pool for a large partitioned
    /// circuit ([`pools`]) when more than one assembly thread is set — the
    /// count is resolved here, once per run. The pool's helpers live in a
    /// thread scope around the whole run, so every exit path (success,
    /// error, unwind) joins them before this returns.
    fn transient_run(
        &self,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
        probes: Option<&[NodeId]>,
        ws: &mut NewtonWorkspace,
        trail: Option<(&mut Trail, TrailRole)>,
    ) -> Result<TransientResult, SimError> {
        let _span = tfet_obs::span("transient");
        let mna = Mna::new(self)?;
        let helpers = if pools(self) {
            assembly_threads() - 1
        } else {
            0
        };
        if helpers == 0 {
            return self.transient_steps(&mna, spec, initial, events, probes, ws, trail);
        }
        std::thread::scope(|scope| {
            let (pool, _helpers) = Pool::start(scope, helpers, self, mna.unknown_count());
            // Dropped before `_helpers`: the pool's end stops the helpers.
            let mna = mna.with_pool(pool);
            self.transient_steps(&mna, spec, initial, events, probes, ws, trail)
        })
    }

    /// The body of [`transient_run`](Self::transient_run) on the analysis
    /// `mna` of this circuit.
    #[allow(clippy::too_many_arguments)] // the run's inputs plus its analysis
    fn transient_steps(
        &self,
        mna: &Mna<'_>,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
        probes: Option<&[NodeId]>,
        ws: &mut NewtonWorkspace,
        trail: Option<(&mut Trail, TrailRole)>,
    ) -> Result<TransientResult, SimError> {
        let n_v = mna.voltage_count();
        let (circuit, pool) = (mna.circuit(), mna.pool());
        let engine = spec.engine();
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
        let analyzed0 = ws.bufs.sparse.lu.is_analyzed();
        ws.step_trace.clear();

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

        // The run's capacitor table: laid out once, its values taken at the
        // initial state (no branch-current history yet — the first step is
        // always backward Euler).
        let history = spec.integrator == Integrator::Trapezoidal;
        let adaptive = match spec.control {
            StepControl::Fixed => None,
            StepControl::Adaptive(a) => Some(a),
        };
        ws.caps
            .lay_out(self, &mut ws.companions, history, adaptive.is_some());

        // A resumed run starts from the latest checkpoint it shares with
        // the recorded run; a recording run checkpoints every step.
        let (mut recording, resume) = match trail {
            None => (None, None),
            Some((tr, TrailRole::Record)) => {
                tr.clear();
                (Some(tr), None)
            }
            Some((tr, TrailRole::Resume)) => {
                let k = tr.resume_point(self, spec, engine, initial, events, &ws.breakpoints, ws);
                (None, k.map(|k| (&*tr, k)))
            }
        };
        let mut x = Vec::new();
        // Accepted steps behind the state `x` (restored ones included), the
        // loop's time, the controller's next step, and the latest trial
        // time proposed so far (the checkpoints' reach).
        let (mut step_no, mut t, mut h, mut reach) = (0u64, 0.0, spec.dt, 0.0f64);
        if let Some((tr, k)) = resume {
            (step_no, t, h, reach) = tr.restore(k, self, &mut x, ws, &mut result);
            if tfet_obs::enabled() {
                tfet_obs::counter("transient.resumed_runs", 1);
                tfet_obs::counter("transient.resumed_steps", step_no);
            }
        } else {
            x = self.initial_state(mna, initial, engine, ws)?;
            result.push(0.0, |node| mna.voltage_of(&x, node));
            ws.caps
                .start
                .refill(circuit, pool, &x, &ws.companions, false);
            if let Some(tr) = recording.as_deref_mut() {
                tr.start(self, spec, engine, initial, &x, analyses0, analyzed0, ws);
            }
            if let Some(a) = adaptive {
                h = spec.dt.clamp(a.dt_min, a.dt_max);
            }
        }
        let mut recording = recording.filter(|tr| tr.is_open());

        // --- The step loop ---------------------------------------------------
        // Newton solve of one step to `t_to` from `x0` against the companions
        // in the workspace.
        let solve = |ws: &mut NewtonWorkspace, x0: Vec<f64>, t_to: f64| {
            solve_op(
                mna,
                &mut ws.bufs,
                &mut ws.anchor,
                x0,
                t_to,
                Some(&ws.companions),
                engine,
                Some(t_to),
                false,
            )
        };
        let steps = (spec.t_stop / spec.dt).round() as u64;
        let mut bp_idx = 0;
        let mut grown_steps = 0u64;
        let mut newton_shrinks = 0u64;
        'time: loop {
            // Propose the step `t_from → t_new` of `h_try`.
            let (t_from, mut t_new, mut h_try) = match adaptive {
                // The grid point after the last accepted one.
                None => {
                    let step = step_no + 1;
                    if step > steps {
                        break;
                    }
                    let t_new = step as f64 * spec.dt;
                    reach = reach.max(t_new);
                    (t_new - spec.dt, t_new, spec.dt)
                }
                // The controller's step, clamped to land exactly on the next
                // breakpoint not yet reached, and on t_stop.
                Some(a) => {
                    if t >= spec.t_stop {
                        break;
                    }
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
                    reach = reach.max(t_new);
                    if t_new > spec.t_stop - 0.5 * a.dt_min {
                        t_new = spec.t_stop;
                    }
                    (t, t_new, t_new - t)
                }
            };

            // Trial loop: solve `h_try`, then accept, shrink and retry, or —
            // a Newton failure at the floor — rescue the step or fail.
            loop {
                // Trapezoidal needs a consistent branch-current history,
                // which a UIC or DC start does not provide — so the first
                // step is always backward Euler (the standard SPICE
                // bootstrap).
                let use_be = spec.integrator == Integrator::BackwardEuler || step_no == 0;
                // The full step: the fixed grid's one solve, the adaptive
                // trial's coarse one. Adaptive control then solves the same
                // step as two half steps with a midpoint re-linearization of
                // the nonlinear capacitances; the largest node-voltage
                // disagreement between the two estimates the LTE.
                build_companions(&ws.caps.start, h_try, use_be, &mut ws.companions, pool);
                ws.x_coarse.clear();
                ws.x_coarse.extend_from_slice(&x);
                let x0 = std::mem::take(&mut ws.x_coarse);
                let trial = solve(ws, x0, t_new).and_then(|v| {
                    ws.x_coarse = v;
                    if adaptive.is_none() {
                        return Ok(0.0);
                    }
                    build_companions(
                        &ws.caps.start,
                        0.5 * h_try,
                        use_be,
                        &mut ws.companions,
                        pool,
                    );
                    ws.x_fine.clear();
                    ws.x_fine.extend_from_slice(&x);
                    let x0 = std::mem::take(&mut ws.x_fine);
                    let v = solve(ws, x0, 0.5 * (t_from + t_new))?;
                    ws.caps
                        .mid
                        .refill(circuit, pool, &v, &ws.companions, history);
                    build_companions(&ws.caps.mid, 0.5 * h_try, use_be, &mut ws.companions, pool);
                    ws.x_fine = solve(ws, v, t_new)?;
                    Ok(ws.x_fine[..n_v]
                        .iter()
                        .zip(&ws.x_coarse[..n_v])
                        .fold(0.0f64, |m, (f, c)| m.max((f - c).abs())))
                });

                // Fixed steps sit at the floor: accepted without an error
                // estimate, rescued on a Newton failure.
                let at_floor = adaptive.is_none_or(|a| h_try <= a.dt_min * (1.0 + 1e-9));
                let accepted =
                    matches!(trial, Ok(lte) if at_floor || adaptive.is_some_and(|a| lte <= a.ltol));
                if !accepted {
                    ws.step_trace.record(t_new, -h_try);
                    if let Some(tr) = recording.as_deref_mut() {
                        tr.log_attempt(t_new, -h_try);
                    }
                    if adaptive.is_some() {
                        result.stats.rejected_steps += 1;
                        newton_shrinks += trial.is_err() as u64;
                    }
                }
                match (trial, adaptive) {
                    (Ok(lte), _) if accepted => {
                        // Adaptive control accepts the fine solution (it
                        // carries the midpoint re-linearization).
                        let solved = match adaptive {
                            None => &mut ws.x_coarse,
                            Some(_) => &mut ws.x_fine,
                        };
                        std::mem::swap(&mut x, solved);
                        if let Some(a) = adaptive {
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
                        }
                    }
                    (Err(e), _) if at_floor => {
                        // Last resort below the controller's floor: the
                        // rescue ladder subdivides this step further than
                        // `dt_min` allows and, on its final rung, re-runs
                        // the g_min continuation anchored at the last
                        // accepted state.
                        let rescued = rescue_step(
                            mna,
                            ws,
                            x.clone(),
                            t_from,
                            t_new,
                            engine,
                            &mut result.stats,
                        );
                        let Some(v) = rescued else {
                            let stage = match adaptive {
                                None => "fixed-step",
                                Some(_) => "adaptive-floor",
                            };
                            capture_failure(mna, ws, Some(&result), stage, t_new, h_try, &e);
                            return Err(e);
                        };
                        x = v;
                        // Restart the controller at the floor: whatever
                        // defeated Newton here is still nearby, so re-grow
                        // from the bottom.
                        if let Some(a) = adaptive {
                            h = a.dt_min;
                        }
                    }
                    (trial, Some(a)) => {
                        let shrink = match trial {
                            Err(_) => 0.25,
                            Ok(lte) => (0.9 * (a.ltol / lte).sqrt()).clamp(0.1, 0.5),
                        };
                        h_try = (h_try * shrink).max(a.dt_min);
                        t_new = t_from + h_try;
                        continue;
                    }
                    (_, None) => unreachable!("fixed steps are accepted or rescued"),
                }

                // Accept: re-linearize the table at the new operating point
                // (and update the branch-current history from the companions
                // that produced it), then record the step.
                ws.caps
                    .start
                    .refill(circuit, pool, &x, &ws.companions, history);
                t = t_new;
                ws.step_trace.record(t, h_try);
                {
                    let _span = tfet_obs::span("record");
                    result.push(t, |node| mna.voltage_of(&x, node));
                }
                result.stats.accepted_steps += 1;
                step_no += 1;
                if let Some(tr) = recording.as_deref_mut() {
                    tr.log_attempt(t, h_try);
                    tr.checkpoint(step_no, t, h, reach, &x, ws);
                }
                if event_fired(events, mna, &x, t) {
                    result.stats.early_exit = true;
                    break 'time;
                }
                break;
            }
        }
        if let Some(tr) = recording {
            tr.finish(&result);
        }
        if adaptive.is_some() && tfet_obs::enabled() {
            tfet_obs::counter("lte.accepted_steps", result.stats.accepted_steps);
            tfet_obs::counter("lte.rejected_steps", result.stats.rejected_steps);
            tfet_obs::counter("lte.grown_steps", grown_steps);
            tfet_obs::counter("lte.newton_shrinks", newton_shrinks);
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
            lat.harvest_telemetry(&mut result.partitions);
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
            if engine.solver == SolverStrategy::Sparse {
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

    /// A UIC run from 0 V that may end early on `events`.
    fn run_events(c: &Circuit, spec: &TransientSpec, events: &[StopEvent]) -> TransientResult {
        let init = InitialState::Uic(vec![]);
        let mut ws = NewtonWorkspace::new(&Mna::new(c).unwrap());
        c.transient_recorded(spec, &init, events, None, &mut ws)
            .unwrap()
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
            let res = run_events(&c, &spec, &events);
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
        for spec in [
            TransientSpec::new(20e-9, 1e-12),
            TransientSpec::fixed(20e-9, 10e-12),
        ] {
            let res = run_events(&c, &spec, &events);
            assert!(res.stats.early_exit);
            let t_end = *res.times().last().unwrap();
            assert!(t_end >= 5e-9, "must not fire unarmed");
            // Armed at 5 ns with the output long past 0.5 V: the first
            // accepted step from there ends the run.
            assert!(t_end < 5.5e-9, "stopped at {t_end:e}");
        }
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
        // A rescued fixed step is accepted, never rejected: only the
        // adaptive controller counts rejections.
        assert_eq!(res.stats.rejected_steps, 0, "{:?}", res.stats);
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

    #[test]
    #[should_panic(expected = "durations must be finite")]
    fn infinite_t_stop_rejected() {
        TransientSpec::new(f64::INFINITY, 1e-12);
    }

    #[test]
    #[should_panic(expected = "durations must be finite")]
    fn infinite_t_stop_rejected_fixed() {
        TransientSpec::fixed(f64::INFINITY, 1e-12);
    }
}
