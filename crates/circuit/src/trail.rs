//! The transient checkpoint trail: resume a run from the state an earlier
//! run of the same compiled circuit reached, where both provably agree.
//!
//! A `WL_crit` bisection re-runs one write transient at many pulse widths.
//! Every probe integrates the same settle, bitline edge and wordline rise as
//! the search's first (widest) probe, bit for bit, until its own wordline
//! starts to fall. The trail records the first run's state after each
//! accepted step; every later run restores the latest checkpoint it shares
//! and integrates only the rest.
//!
//! # What a checkpoint holds
//!
//! Every piece of state a later step reads:
//!
//! * the state `x`, the time `t`, the controller's next step `h` and the
//!   accepted-step count (the first step is always backward Euler);
//! * the capacitor table's start values — `c` and `v_ab` are functions of
//!   `x` alone and are re-derived on restore, the trapezoidal branch
//!   currents `i_prev` carry history and are stored;
//! * the device-bypass linearizations;
//! * the sparse factorization: its numeric values when they are eligible
//!   for reuse, the reuse flag and the Jacobian's staleness;
//! * the step-attempt trace (one shared log; a checkpoint keeps its length)
//!   and, through the recorded waveform, the samples up to the checkpoint.
//!
//! # The equality rule
//!
//! A run reproduces the recorded run's first `k` accepted steps exactly when
//! every input those steps read is equal. The run's spec (`dt`, integrator,
//! step control), engine and initial state must be equal, and the circuit
//! the same compiled topology and devices (binding a device clears the
//! trail). The rest may differ only after the recorded run's *reach* at
//! step `k`: the latest trial time any step up to `k` proposed, taken after
//! the breakpoint clamp and before the `t_stop` clamp. Every time a source
//! was evaluated at — trial ends, midpoints, rescue substeps — lies at or
//! before the reach, so checkpoint `k` is usable when:
//!
//! * every source waveform gives bit-identical values before a time beyond
//!   the reach ([`Waveform::agrees_before`](crate::Waveform), which is also
//!   where a 0 V plateau counts and other plateaus do not);
//! * under adaptive control, the reach lies at least `dt_min/2` before the
//!   first breakpoint the two schedules do not share and before both runs'
//!   `t_stop`, so every breakpoint and `t_stop` clamp decided the same way;
//!   under fixed control, the run's grid still includes step `k`;
//! * every stop event of the run arms after `t_k`, so none could have fired.
//!
//! The sparse factorization's pivot order is state too: a resume also needs
//! the order in force now to be the one the recording ran under, with no
//! re-analysis inside the shared prefix.
//!
//! Per-run statistics of a resumed run count only the work that run
//! performed; the restored prefix is not re-counted.

use crate::dc::{Engine, SolverStrategy};
use crate::mna::DeviceLin;
use crate::netlist::Circuit;
use crate::probe::TransientResult;
use crate::transient::{InitialState, StepControl, StopEvent, TransientSpec};
use crate::waveform::Waveform;
use crate::workspace::{JacStale, NewtonWorkspace};

/// Checkpoint memory of one trail, bytes. Once full, the trail keeps every
/// second checkpoint and checkpoints half as often, so a long recording
/// costs a coarser trail, never more memory. A circuit whose checkpoints
/// do not fit twice records nothing.
const TRAIL_BUDGET_BYTES: usize = 40 * 1024;

/// How a [`CompiledCircuit::run_on_trail`](crate::CompiledCircuit::run_on_trail)
/// run uses the compiled circuit's checkpoint trail.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrailRole {
    /// Clear the trail, run cold, and checkpoint the run.
    Record,
    /// Resume from the latest checkpoint this run provably shares with the
    /// recorded run (cold when there is none); checkpoint nothing.
    Resume,
}

/// The fixed-size part of one checkpoint; the per-unknown, per-branch,
/// per-device and per-factor-slot parts live in the trail's flat arenas,
/// one row per checkpoint.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    /// Accepted steps behind this state (0: the initial state).
    steps: u64,
    t: f64,
    /// The controller's next step.
    h: f64,
    /// The latest trial time proposed up to this state (see the module
    /// docs).
    reach: f64,
    /// Step attempts logged up to this state.
    attempts: usize,
    /// The sparse factorization may be reused by the next solve.
    factor_valid: bool,
    /// The factor values are stored in this checkpoint's arena row.
    factors: bool,
    stale: JacStale,
}

/// The checkpoint trail of one recorded transient run; see the
/// [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct Trail {
    /// A finished recording is present.
    recorded: bool,
    /// Checkpoints are still being taken.
    open: bool,
    // The recorded run's inputs.
    spec: Option<TransientSpec>,
    engine: Option<Engine>,
    initial: Option<InitialState>,
    vwaves: Vec<Waveform>,
    iwaves: Vec<Waveform>,
    breakpoints: Vec<f64>,
    /// Sparse pivot orderings in force over the recording.
    row_perm: Vec<usize>,
    col_perm: Vec<usize>,
    /// Sparse analyses the recording may perform before its checkpoints
    /// stop: the first analysis of a never-analyzed factorization only.
    analyses_allowed: u64,
    // The recorded waveform (every node).
    times: Vec<f64>,
    data: Vec<f64>,
    // Checkpoints and their arenas.
    cps: Vec<Checkpoint>,
    xs: Vec<f64>,
    i_prevs: Vec<f64>,
    devices: Vec<DeviceLin>,
    factors: Vec<f64>,
    /// Every step attempt of the recording, `(t, signed h)`, in order.
    attempts: Vec<(f64, f64)>,
    /// Arena row widths.
    n_x: usize,
    n_i: usize,
    n_dev: usize,
    n_f: usize,
    /// Checkpoint every `stride`-th accepted step.
    stride: u64,
    max_cps: usize,
}

impl Trail {
    /// Drops the recording; buffers are kept for the next one.
    pub(crate) fn clear(&mut self) {
        self.recorded = false;
        self.open = false;
        self.cps.clear();
        self.attempts.clear();
    }

    /// Starts recording a run of `circuit` that has just solved its initial
    /// state into `x` and laid out `ws.caps`; takes checkpoint 0. `analyses0`
    /// and `analyzed0` are the workspace's sparse-analysis count and whether
    /// its factorization was analyzed, both before the initial solve.
    #[allow(clippy::too_many_arguments)] // the recorded run's inputs
    pub(crate) fn start(
        &mut self,
        circuit: &Circuit,
        spec: &TransientSpec,
        engine: Engine,
        initial: &InitialState,
        x: &[f64],
        analyses0: u64,
        analyzed0: bool,
        ws: &NewtonWorkspace,
    ) {
        self.clear();
        if !circuit.latency_partitions().is_empty() {
            // The latency tier's partition state is not checkpointed.
            return;
        }
        let sparse = match engine.solver {
            SolverStrategy::Dense => None,
            SolverStrategy::Sparse if ws.bufs.sparse.lu.is_analyzed() => Some(&ws.bufs.sparse),
            SolverStrategy::Sparse => return,
        };
        self.n_x = x.len();
        self.n_i = ws.caps.start.i_prev.len();
        self.n_dev = ws.bufs.device_cache.len();
        self.n_f = sparse.map_or(0, |s| s.lu.factor_values().len());
        let row_bytes = 8 * (self.n_x + self.n_i + self.n_f)
            + std::mem::size_of::<DeviceLin>() * self.n_dev
            + std::mem::size_of::<Checkpoint>();
        self.max_cps = TRAIL_BUDGET_BYTES / row_bytes;
        if self.max_cps < 2 {
            return;
        }
        self.spec = Some(*spec);
        self.engine = Some(engine);
        self.initial = Some(initial.clone());
        self.vwaves.clear();
        self.vwaves
            .extend(circuit.vsources.iter().map(|s| s.wave.clone()));
        self.iwaves.clear();
        self.iwaves
            .extend(circuit.isources.iter().map(|s| s.wave.clone()));
        self.breakpoints.clone_from(&ws.breakpoints);
        if let Some(s) = sparse {
            let (rows, cols) = s.lu.ordering();
            self.row_perm.clear();
            self.row_perm.extend_from_slice(rows);
            self.col_perm.clear();
            self.col_perm.extend_from_slice(cols);
        }
        self.analyses_allowed = analyses0 + u64::from(!analyzed0);
        for (arena, width) in [
            (&mut self.xs, self.n_x),
            (&mut self.i_prevs, self.n_i),
            (&mut self.factors, self.n_f),
        ] {
            arena.clear();
            arena.reserve_exact(self.max_cps * width);
        }
        self.devices.clear();
        self.devices.reserve_exact(self.max_cps * self.n_dev);
        self.cps.reserve_exact(self.max_cps);
        self.stride = 1;
        self.open = true;
        self.checkpoint(0, 0.0, spec.dt, 0.0, x, ws);
    }

    /// Whether a recording is being taken.
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// Logs one step attempt of the recording.
    pub(crate) fn log_attempt(&mut self, t: f64, h: f64) {
        self.attempts.push((t, h));
    }

    /// Checkpoints the state after `steps` accepted steps, if this step is
    /// on the trail's stride.
    pub(crate) fn checkpoint(
        &mut self,
        steps: u64,
        t: f64,
        h: f64,
        reach: f64,
        x: &[f64],
        ws: &NewtonWorkspace,
    ) {
        if !self.open || !steps.is_multiple_of(self.stride) {
            return;
        }
        if ws.bufs.sparse_analyses > self.analyses_allowed {
            // A re-analysis changed the pivot order: later states are not
            // reachable from the order a resume restores under.
            self.open = false;
            return;
        }
        if self.cps.len() == self.max_cps {
            self.thin();
            if !steps.is_multiple_of(self.stride) {
                return;
            }
        }
        let sparse = match self.engine {
            Some(e) if e.solver == SolverStrategy::Sparse => Some(&ws.bufs.sparse),
            _ => None,
        };
        let factor_valid = sparse.is_some_and(|s| s.factor_valid);
        let factors = sparse.is_some_and(|s| s.factor_valid && s.lu.is_factored());
        self.cps.push(Checkpoint {
            steps,
            t,
            h,
            reach,
            attempts: self.attempts.len(),
            factor_valid,
            factors,
            stale: sparse.map_or(JacStale::No, |s| s.stale),
        });
        self.xs.extend_from_slice(x);
        self.i_prevs.extend(ws.caps.start.i_prev.iter());
        self.devices.extend_from_slice(&ws.bufs.device_cache);
        match sparse {
            Some(s) if factors => self.factors.extend_from_slice(s.lu.factor_values()),
            _ => self.factors.extend(std::iter::repeat_n(0.0, self.n_f)),
        }
    }

    /// Keeps every second checkpoint (those on twice the stride) and
    /// doubles the stride.
    fn thin(&mut self) {
        let keep = self.cps.len().div_ceil(2);
        for k in 0..keep {
            self.cps[k] = self.cps[2 * k];
            move_row(&mut self.xs, self.n_x, 2 * k, k);
            move_row(&mut self.i_prevs, self.n_i, 2 * k, k);
            move_row(&mut self.devices, self.n_dev, 2 * k, k);
            move_row(&mut self.factors, self.n_f, 2 * k, k);
        }
        self.cps.truncate(keep);
        self.xs.truncate(keep * self.n_x);
        self.i_prevs.truncate(keep * self.n_i);
        self.devices.truncate(keep * self.n_dev);
        self.factors.truncate(keep * self.n_f);
        self.stride *= 2;
    }

    /// Ends a successful recording: keeps its waveform.
    pub(crate) fn finish(&mut self, result: &TransientResult) {
        if self.open {
            result.save_samples(&mut self.times, &mut self.data);
            self.open = false;
            self.recorded = true;
        }
    }

    /// The latest checkpoint a run of `circuit` with these inputs shares
    /// with the recording (see the module docs), if any. `breakpoints` is
    /// the run's own breakpoint schedule (adaptive control).
    #[allow(clippy::too_many_arguments)] // the resuming run's inputs
    pub(crate) fn resume_point(
        &self,
        circuit: &Circuit,
        spec: &TransientSpec,
        engine: Engine,
        initial: &InitialState,
        events: &[StopEvent],
        breakpoints: &[f64],
        ws: &NewtonWorkspace,
    ) -> Option<usize> {
        let rec = self
            .spec
            .filter(|_| self.recorded && !self.cps.is_empty())?;
        let same_inputs = rec.dt == spec.dt
            && rec.integrator == spec.integrator
            && rec.control == spec.control
            && self.engine == Some(engine)
            && self.initial.as_ref() == Some(initial)
            && self.vwaves.len() == circuit.vsources.len()
            && self.iwaves.len() == circuit.isources.len();
        if !same_inputs {
            return None;
        }
        if engine.solver == SolverStrategy::Sparse {
            let s = &ws.bufs.sparse;
            let (rows, cols) = s.lu.ordering();
            if !s.lu.is_analyzed() || rows != self.row_perm || cols != self.col_perm {
                return None;
            }
        }
        let waves_agree = circuit
            .vsources
            .iter()
            .map(|s| &s.wave)
            .zip(&self.vwaves)
            .chain(circuit.isources.iter().map(|s| &s.wave).zip(&self.iwaves))
            .map(|(now, then)| now.agrees_before(then))
            .fold(f64::INFINITY, f64::min);
        let t_arm = events.iter().map(|e| e.t_arm).fold(f64::INFINITY, f64::min);
        // The fixed grid takes no clamps, only its last step; the adaptive
        // controller's clamps must all have decided alike.
        let (max_steps, reach_limit) = match spec.control {
            StepControl::Fixed => ((spec.t_stop / spec.dt).round() as u64, f64::INFINITY),
            StepControl::Adaptive(a) => {
                let shared = breakpoints
                    .iter()
                    .zip(&self.breakpoints)
                    .take_while(|(now, then)| now.to_bits() == then.to_bits())
                    .count();
                let first_unshared = [breakpoints.get(shared), self.breakpoints.get(shared)]
                    .into_iter()
                    .flatten()
                    .fold(f64::INFINITY, |m, &b| m.min(b));
                let limit = first_unshared.min(rec.t_stop).min(spec.t_stop) - 0.5 * a.dt_min;
                (u64::MAX, limit)
            }
        };
        self.cps.iter().rposition(|cp| {
            cp.reach < waves_agree
                && cp.reach <= reach_limit
                && cp.steps <= max_steps
                && (cp.steps == 0 || cp.t < t_arm)
        })
    }

    /// Restores checkpoint `k` into `ws` (whose capacitor table `circuit`'s
    /// run has laid out) and `x`, and copies the recorded samples up to it
    /// into `result`. Returns `(steps, t, h, reach)` of the checkpoint.
    pub(crate) fn restore(
        &self,
        k: usize,
        circuit: &Circuit,
        x: &mut Vec<f64>,
        ws: &mut NewtonWorkspace,
        result: &mut TransientResult,
    ) -> (u64, f64, f64, f64) {
        let cp = self.cps[k];
        ws.bufs.ensure(self.n_x, self.n_dev);
        x.clear();
        x.extend_from_slice(row(&self.xs, self.n_x, k));
        // `c` and `v_ab` are functions of `x` alone: re-derive them exactly
        // as the recording's accept path did; the branch currents carry
        // history and come from the checkpoint.
        ws.caps
            .start
            .refill(circuit, None, x, &ws.companions, false);
        ws.caps
            .start
            .i_prev
            .copy_from(row(&self.i_prevs, self.n_i, k));
        ws.bufs
            .device_cache
            .copy_from_slice(row(&self.devices, self.n_dev, k));
        let s = &mut ws.bufs.sparse;
        s.factor_valid = cp.factor_valid;
        s.stale = cp.stale;
        if cp.factors {
            s.lu.restore_factor_values(row(&self.factors, self.n_f, k));
        }
        ws.step_trace.clear();
        for &(t, h) in &self.attempts[..cp.attempts] {
            ws.step_trace.record(t, h);
        }
        let samples = cp.steps as usize + 1;
        let width = self.data.len() / self.times.len();
        result.extend_samples(&self.times[..samples], &self.data[..samples * width]);
        (cp.steps, cp.t, cp.h, cp.reach)
    }
}

/// Row `k` of a flat arena of `width`-wide rows.
fn row<T>(arena: &[T], width: usize, k: usize) -> &[T] {
    &arena[k * width..(k + 1) * width]
}

/// Copies row `from` of a flat arena over row `to`.
fn move_row<T: Copy>(arena: &mut [T], width: usize, from: usize, to: usize) {
    arena.copy_within(from * width..(from + 1) * width, to * width);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{CellPartition, DeviceLatency, GuardKind};
    use crate::netlist::{NodeId, SourceId};
    use crate::transient::Integrator;
    use crate::{CompiledCircuit, Deck, ParamHandle, SolveStats};

    /// Wordline pulse start and edge of the golden write deck.
    const T_ON: f64 = 250e-12;
    const T_EDGE: f64 = 10e-12;

    /// The golden 6T write deck compiled, with its wordline's handle, its
    /// initial state and its storage nodes `(q, qb)`.
    fn write_deck() -> (CompiledCircuit, ParamHandle, InitialState, (NodeId, NodeId)) {
        let deck = Deck::parse(
            include_str!("../tests/golden/write_6t.sp"),
            &tfet_devices::standard_models(),
        )
        .unwrap();
        let initial = deck.initial_state();
        let c = deck.circuit;
        let wl = (0..c.vsource_count())
            .find(|&i| c.vsource_info(SourceId(i)).name.ends_with("WL"))
            .expect("the deck drives a wordline");
        let nodes = (c.find_node("q").unwrap(), c.find_node("qb").unwrap());
        let compiled = CompiledCircuit::compile(c).unwrap();
        let h = compiled.param(SourceId(wl));
        (compiled, h, initial, nodes)
    }

    /// An active-low wordline pulse of width `w`, its edges narrowed below
    /// `4·T_EDGE` as a write experiment narrows them.
    fn wl_pulse(w: f64) -> Waveform {
        Waveform::pulse(0.8, 0.0, T_ON, w, T_EDGE.min(w / 4.0))
    }

    /// Binds a pulse of width `w` and returns the run's end time and the
    /// stop event that decides it.
    fn bind(
        c: &mut CompiledCircuit,
        h: ParamHandle,
        w: f64,
        q: (NodeId, NodeId),
    ) -> (f64, StopEvent) {
        c.bind_wave(h, wl_pulse(w));
        let t_off = T_ON + w;
        (
            t_off + 1.5e-9,
            StopEvent::decided(q.1, q.0, 0.28, t_off + 2.0 * T_EDGE),
        )
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts two runs recorded the same times and node voltages, bit for
    /// bit, and ended the same way.
    fn assert_same_run(a: &TransientResult, b: &TransientResult, nodes: usize, what: &str) {
        assert_eq!(bits(a.times()), bits(b.times()), "{what}: times");
        for i in 0..nodes {
            assert_eq!(
                bits(&a.trace(NodeId(i))),
                bits(&b.trace(NodeId(i))),
                "{what}: node {i}"
            );
        }
        assert_eq!(a.stats.early_exit, b.stats.early_exit, "{what}: early exit");
    }

    /// The per-run effort a resumed run saves over its cold twin.
    fn saved(resumed: &SolveStats, cold: &SolveStats) -> u64 {
        cold.newton_solves - resumed.newton_solves
    }

    /// Every probe of a pulse-width family resumed from the widest probe's
    /// trail equals its cold run bit for bit — under backward Euler and
    /// trapezoidal integration, adaptive and fixed stepping, the dense
    /// oracle and the latency-off baseline — and the wide ones resume late
    /// enough to save work.
    #[test]
    fn resumed_runs_equal_cold_runs_bit_for_bit() {
        let specs = |t_stop: f64| {
            [
                ("adaptive BE", TransientSpec::new(t_stop, 2e-12)),
                (
                    "adaptive TR",
                    TransientSpec::new(t_stop, 2e-12).with_integrator(Integrator::Trapezoidal),
                ),
                ("fixed BE", TransientSpec::fixed(t_stop, 2e-12)),
                (
                    "fixed TR",
                    TransientSpec::fixed(t_stop, 2e-12).with_integrator(Integrator::Trapezoidal),
                ),
                (
                    "dense",
                    TransientSpec::new(t_stop, 2e-12).with_solver(SolverStrategy::Dense),
                ),
                (
                    "latency off",
                    TransientSpec::new(t_stop, 2e-12).with_device_latency(DeviceLatency::Off),
                ),
            ]
        };
        let w_max = 1.2e-9;
        for k in 0..specs(1.0).len() {
            let (mut c, h, initial, q) = write_deck();
            let n = c.circuit().node_count();
            let (t_stop, ev) = bind(&mut c, h, w_max, q);
            let (name, spec) = specs(t_stop)[k];
            c.run_on_trail(&spec, &initial, &[ev], TrailRole::Record)
                .unwrap();
            let mut savings = Vec::new();
            for w in [30e-12, 40e-12, 50e-12, 300e-12, 700e-12, w_max] {
                let what = format!("{name}, w = {w:e}");
                let (t_stop, ev) = bind(&mut c, h, w, q);
                let (_, spec) = specs(t_stop)[k];
                let resumed = c
                    .run_on_trail(&spec, &initial, &[ev], TrailRole::Resume)
                    .unwrap();
                let cold = c.run(&spec, &initial, &[ev]).unwrap();
                assert_same_run(&resumed, &cold, n, &what);
                savings.push(saved(&resumed.stats, &cold.stats));
            }
            // Narrow pulses shorten the wordline's edges, so they share
            // only the settle; wide ones share up to their falling edge.
            assert!(
                savings[3] > 0 && savings[4] > savings[3],
                "{name}: {savings:?}"
            );
        }
    }

    /// A cold run of the recorded width itself resumes from the trail's
    /// last checkpoint and still equals the cold run.
    #[test]
    fn the_recorded_run_resumes_from_its_last_checkpoint() {
        let (mut c, h, initial, q) = write_deck();
        let n = c.circuit().node_count();
        let (t_stop, ev) = bind(&mut c, h, 700e-12, q);
        let spec = TransientSpec::new(t_stop, 2e-12);
        let recorded = c
            .run_on_trail(&spec, &initial, &[ev], TrailRole::Record)
            .unwrap();
        let resumed = c
            .run_on_trail(&spec, &initial, &[ev], TrailRole::Resume)
            .unwrap();
        assert_same_run(&resumed, &recorded, n, "same width");
        assert!(resumed.stats.accepted_steps < recorded.stats.accepted_steps / 4);
    }

    /// Anything the recording did not share — a rebound device, another
    /// step size, another initial state, a source that differs from the
    /// start — leaves a resumed run cold, and still correct.
    #[test]
    fn unshared_inputs_resume_nothing() {
        let (mut c, h, initial, q) = write_deck();
        let n = c.circuit().node_count();
        let (t_stop, ev) = bind(&mut c, h, 700e-12, q);
        let spec = TransientSpec::new(t_stop, 2e-12);
        let record = |c: &mut CompiledCircuit| {
            c.run_on_trail(&spec, &initial, &[ev], TrailRole::Record)
                .unwrap()
        };
        let assert_cold =
            |c: &mut CompiledCircuit, spec: &TransientSpec, init: &InitialState, what: &str| {
                let resumed = c
                    .run_on_trail(spec, init, &[ev], TrailRole::Resume)
                    .unwrap();
                let cold = c.run(spec, init, &[ev]).unwrap();
                assert_same_run(&resumed, &cold, n, what);
                assert_eq!(
                    resumed.stats.accepted_steps, cold.stats.accepted_steps,
                    "{what}"
                );
            };

        record(&mut c);
        let m = c.circuit().transistors()[0].model.clone();
        let w = c.circuit().transistors()[0].width_um;
        c.bind_device(0, m, w);
        assert_cold(&mut c, &spec, &initial, "rebound device");

        record(&mut c);
        assert_cold(
            &mut c,
            &TransientSpec::new(t_stop, 1e-12),
            &initial,
            "another dt",
        );

        record(&mut c);
        let InitialState::Uic(ics) = &initial else {
            panic!("the deck starts from initial conditions")
        };
        let mut moved = ics.clone();
        moved[0].1 -= 1e-3;
        assert_cold(
            &mut c,
            &spec,
            &InitialState::Uic(moved),
            "another initial state",
        );

        record(&mut c);
        c.bind_wave(h, Waveform::pulse(0.8, 0.0, T_ON, 700e-12, 12e-12));
        assert_cold(&mut c, &spec, &initial, "another edge");
    }

    /// Latency partitions carry state the trail does not checkpoint: a
    /// partitioned circuit records nothing, and its runs on the trail are
    /// the cold runs of a twin with the same history.
    #[test]
    fn partitioned_circuits_record_nothing() {
        let (c, h, initial, q) = write_deck();
        let mut circuit = c.circuit().clone();
        let n = circuit.node_count();
        let node = |name| circuit.find_node(name).unwrap();
        let partition = CellPartition {
            devices: (0..circuit.transistors().len()).collect(),
            watch: vec![q.0, q.1],
            guard: vec![node("wl"), node("bl"), node("blb")],
            guard_kinds: vec![GuardKind::Other; 3],
        };
        circuit.set_latency_partitions(vec![partition]);
        let mut on_trail = CompiledCircuit::compile(circuit.clone()).unwrap();
        let mut twin = CompiledCircuit::compile(circuit).unwrap();
        for (w, role) in [(700e-12, TrailRole::Record), (300e-12, TrailRole::Resume)] {
            let (t_stop, ev) = bind(&mut on_trail, h, w, q);
            bind(&mut twin, h, w, q);
            let spec = TransientSpec::new(t_stop, 2e-12);
            let trailed = on_trail.run_on_trail(&spec, &initial, &[ev], role).unwrap();
            let cold = twin.run(&spec, &initial, &[ev]).unwrap();
            assert_same_run(&trailed, &cold, n, &format!("{role:?}"));
            assert_eq!(trailed.stats, cold.stats, "{role:?}");
        }
    }
}
