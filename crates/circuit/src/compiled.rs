//! Compiled circuits: build once, bind parameters, re-run.
//!
//! Every experiment in the SRAM pipeline — a WL_crit bisection, a
//! Monte-Carlo sample, an array operation — re-runs the *same topology*
//! with only stimulus waveforms or device bindings changed. Rebuilding the
//! netlist for each run re-interns every node, re-validates the MNA
//! pattern, and re-instantiates every device evaluator, all to arrive at a
//! structurally identical system.
//!
//! [`CompiledCircuit`] splits that work into three stages:
//!
//! 1. **compile** — [`CompiledCircuit::compile`] freezes a [`Circuit`]:
//!    node ordering, element storage order (which fixes the float summation
//!    order of the MNA stamps, and therefore bit-exact reproducibility) and
//!    the MNA sparsity pattern are validated once and never change again.
//! 2. **bind** — [`bind_wave`](CompiledCircuit::bind_wave) swaps a source
//!    stimulus behind a typed [`ParamHandle`], and
//!    [`bind_device`](CompiledCircuit::bind_device) swaps a transistor's
//!    model/width in place. Binds never add or remove elements, so the
//!    sparsity pattern and unknown ordering survive every rebind.
//! 3. **run** — [`run`](CompiledCircuit::run) executes the transient engine
//!    against the frozen form with the solver workspace built for it at
//!    compile (its sparsity pattern included), so repeated runs perform no
//!    solver-scratch allocation and never re-walk the pattern.
//!
//! Because a run's numbers depend only on the circuit *state* (topology +
//! current bindings) and never on how that state was reached, re-running a
//! bound compiled circuit is bit-identical to a fresh build per call — the
//! determinism regression suite pins this.
//!
//! # The checkpoint trail
//!
//! A family of runs that differ only late in time — the probes of one
//! `WL_crit` bisection, whose wordline pulses match until the narrower one
//! falls — repeat each other's first steps bit for bit.
//! [`run_on_trail`](CompiledCircuit::run_on_trail) records the family's
//! first run as a trail of checkpoints (state, capacitor history, bypass
//! linearizations, factorization, step trace) and resumes every later run
//! from the latest checkpoint it provably shares. "Provably" is the
//! equality rule of the [`transient`](crate::transient) module: equal spec,
//! engine, initial state and devices, and every source bit-identical before
//! the checkpoint's reach, where only a 0 V plateau extends agreement past
//! a breakpoint the two waveforms do not share. Results are bit-identical
//! to [`run`](CompiledCircuit::run), which stays cold and is the oracle;
//! per-run stats count only the work the run performed. The trail is
//! cleared when a run records, when a device is bound and on any error, so
//! nothing carries from one family to the next. Its checkpoints fit a fixed
//! memory budget (coarsened when a recording runs long), and circuits with
//! latency partitions record nothing.
//!
//! The savings are observable, not asserted: every [`TransientResult`]
//! reports `circuit_builds`, `param_binds` and `runs` in its
//! [`SolveStats`], and the counters aggregate under
//! `absorb`, so a seeded sweep can prove it compiled once and ran many
//! times.

use crate::dc::{DcResult, Engine};
use crate::error::SimError;
use crate::mna::Mna;
use crate::netlist::{Circuit, NodeId, SourceId};
use crate::probe::{SolveStats, TransientResult};
use crate::trail::{Trail, TrailRole};
use crate::transient::{InitialState, StopEvent, TransientSpec};
use crate::waveform::Waveform;
use crate::workspace::NewtonWorkspace;
use std::sync::Arc;
use tfet_devices::model::DeviceModel;

/// Typed handle to one bindable stimulus of a [`CompiledCircuit`].
///
/// Obtained from [`CompiledCircuit::param`]; passing it to
/// [`CompiledCircuit::bind_wave`] swaps the waveform of exactly the source
/// it was created for. Handles are plain indices into the frozen source
/// table, so they stay valid for the lifetime of the compiled circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamHandle {
    source: SourceId,
}

/// A circuit frozen for repeated execution: topology, node ordering and
/// MNA pattern fixed at compile time; stimuli and device bindings mutable
/// through typed binds; runs executed against a solver workspace built for
/// this circuit at compile and owned for its whole life — the one owner of
/// Newton, LU and companion scratch held across runs.
///
/// See the [module docs](self) for the compile/bind/run architecture.
#[derive(Debug)]
pub struct CompiledCircuit {
    circuit: Circuit,
    ws: NewtonWorkspace,
    /// The checkpoint trail [`run_on_trail`](Self::run_on_trail) records
    /// and resumes from.
    trail: Trail,
    /// Builds not yet attributed to a run (1 after compile, 0 after the
    /// first run reports it).
    pending_builds: u64,
    /// Binds applied since the last run, attributed to the next run.
    pending_binds: u64,
    /// Cumulative stats across every successful run of this compiled
    /// circuit (see [`lifetime_stats`](CompiledCircuit::lifetime_stats)).
    lifetime: SolveStats,
}

impl CompiledCircuit {
    /// Compiles a circuit: validates the netlist and MNA pattern once and
    /// freezes the topology. Counts one `circuit_builds` toward the first
    /// subsequent [`run`](CompiledCircuit::run).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidCircuit`] for structurally bad netlists (no
    /// elements, no non-ground nodes).
    pub fn compile(circuit: Circuit) -> Result<Self, SimError> {
        // Freeze the Jacobian sparsity pattern now: binds never change
        // topology, so every subsequent sparse run reuses this pattern (and,
        // after the first factorization, its symbolic analysis).
        let ws = NewtonWorkspace::new(&Mna::new(&circuit)?);
        tfet_obs::work("compiled.compiles", 1);
        Ok(CompiledCircuit {
            circuit,
            ws,
            trail: Trail::default(),
            pending_builds: 1,
            pending_binds: 0,
            lifetime: SolveStats::default(),
        })
    }

    /// The frozen netlist (read-only; mutation goes through binds).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// A typed handle to the stimulus of the given source.
    ///
    /// # Panics
    ///
    /// Panics if the source id does not belong to this circuit.
    pub fn param(&self, source: SourceId) -> ParamHandle {
        assert!(
            source.0 < self.circuit.vsource_count(),
            "stale source id for compiled circuit"
        );
        ParamHandle { source }
    }

    /// Binds a new stimulus waveform to a parameter — pulse widths, assist
    /// levels, drive targets. Never changes the sparsity pattern.
    pub fn bind_wave(&mut self, param: ParamHandle, wave: Waveform) {
        self.circuit.set_vsource_wave(param.source, wave);
        self.pending_binds += 1;
    }

    /// Binds a device model and gate width to the transistor at `index`
    /// (netlist insertion order) — how Monte-Carlo variation samples and β
    /// re-sizings reach a compiled cell. Terminals stay frozen, so the
    /// sparsity pattern is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `width_um <= 0`.
    pub fn bind_device(&mut self, index: usize, model: Arc<dyn DeviceModel>, width_um: f64) {
        self.circuit.set_transistor_device(index, model, width_um);
        // The cached linearization (and any retained factorization) was
        // computed with the old model/width, and so was every checkpoint.
        self.ws.bufs.invalidate_caches();
        self.trail.clear();
        self.pending_binds += 1;
    }

    /// Runs the transient engine against the compiled form using the owned
    /// workspace. The result's [`SolveStats`] carry the
    /// compile (first run only) and the binds applied since the previous
    /// run, so aggregated stats expose the build/bind/run ratio.
    ///
    /// # Errors
    ///
    /// Propagates DC/Newton failures ([`SimError::NoConvergence`],
    /// [`SimError::SingularMatrix`]).
    pub fn run(
        &mut self,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
    ) -> Result<TransientResult, SimError> {
        self.run_recorded(spec, initial, events, None)
    }

    /// Like [`run`](CompiledCircuit::run), but the result keeps the traces
    /// of `probes` only, plus every node's final voltage. Results, stats and
    /// partition telemetry are bit-identical to a full run; only the
    /// waveform store shrinks — on a large array from every node at every
    /// step to a handful of columns. Reading the trace of a node outside
    /// `probes` panics, naming the node.
    ///
    /// # Errors
    ///
    /// As [`run`](CompiledCircuit::run).
    ///
    /// # Panics
    ///
    /// Panics if a probe is not a node of this circuit.
    pub fn run_probed(
        &mut self,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
        probes: &[NodeId],
    ) -> Result<TransientResult, SimError> {
        self.run_recorded(spec, initial, events, Some(probes))
    }

    /// Like [`run`](CompiledCircuit::run), on the compiled circuit's
    /// checkpoint trail: [`TrailRole::Record`] clears the trail, runs cold
    /// and checkpoints every accepted step; [`TrailRole::Resume`] restores
    /// the latest checkpoint this run provably shares with the recorded run
    /// and integrates only the rest (see the [module docs](self)).
    ///
    /// The result's times, voltages and final state are bit-identical to
    /// [`run`](CompiledCircuit::run)'s; its stats count the work this run
    /// performed, so a resumed run reports fewer steps and solves. For a
    /// family of runs that share a prefix, such as the probes of one
    /// `WL_crit` bisection: the first records, the rest resume.
    ///
    /// # Errors
    ///
    /// As [`run`](CompiledCircuit::run). An error clears the trail.
    #[doc(hidden)]
    pub fn run_on_trail(
        &mut self,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
        role: TrailRole,
    ) -> Result<TransientResult, SimError> {
        let run = self.circuit.transient_on_trail(
            spec,
            initial,
            events,
            &mut self.ws,
            &mut self.trail,
            role,
        );
        self.finish_run(run)
    }

    fn run_recorded(
        &mut self,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
        probes: Option<&[NodeId]>,
    ) -> Result<TransientResult, SimError> {
        let run = self
            .circuit
            .transient_recorded(spec, initial, events, probes, &mut self.ws);
        self.finish_run(run)
    }

    /// Attributes pending builds and binds to a finished run and absorbs
    /// its stats into the lifetime view; clears the trail on an error.
    fn finish_run(
        &mut self,
        run: Result<TransientResult, SimError>,
    ) -> Result<TransientResult, SimError> {
        let mut result = run.inspect_err(|_| self.trail.clear())?;
        result.stats.circuit_builds = std::mem::take(&mut self.pending_builds);
        result.stats.param_binds = std::mem::take(&mut self.pending_binds);
        self.lifetime.absorb(&result.stats);
        if tfet_obs::enabled() {
            tfet_obs::counter("compiled.runs", 1);
            // Builds and binds are attributed per compiled instance; under a
            // thread-pool each worker compiles its own copy (fewer binds,
            // more builds), so both are scheduling-dependent `work` metrics,
            // not counters.
            tfet_obs::work("compiled.binds", result.stats.param_binds);
            tfet_obs::work("compiled.builds", result.stats.circuit_builds);
        }
        Ok(result)
    }

    /// Cumulative [`SolveStats`] across every successful
    /// [`run`](CompiledCircuit::run) of this compiled circuit.
    ///
    /// Where a result's [`TransientResult::stats`] are **per-run**
    /// (snapshot-differenced around that run alone), this accessor is the
    /// **lifetime** view: each run's per-run stats absorbed in order. Use it
    /// to prove a sweep compiled once and ran many times without collecting
    /// every intermediate result.
    pub fn lifetime_stats(&self) -> &SolveStats {
        &self.lifetime
    }

    /// Solves the DC operating point of the compiled form from voltage
    /// hints (the hints select the basin for bistable circuits), reusing
    /// the owned workspace. Build/bind counters stay pending for the next
    /// transient run — DC results carry no stats.
    ///
    /// # Errors
    ///
    /// Propagates Newton failures ([`SimError::NoConvergence`],
    /// [`SimError::SingularMatrix`]).
    pub fn dc_op(&mut self, guess: &[(NodeId, f64)]) -> Result<DcResult, SimError> {
        tfet_obs::counter("compiled.dc_ops", 1);
        let mna = Mna::new(&self.circuit)?;
        let x = self
            .circuit
            .dc_state_with(&mna, guess, &mut self.ws, Engine::process_default())?;
        Ok(DcResult {
            x,
            n_v: mna.voltage_count(),
            source_volts: self
                .circuit
                .vsources
                .iter()
                .map(|v| v.wave.initial())
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfet_devices::NTfet;

    fn rc(level: f64) -> (Circuit, SourceId, NodeId) {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        let v = c.vsource(
            "V",
            inp,
            Circuit::GND,
            Waveform::step(0.0, level, 0.0, 1e-12),
        );
        c.resistor(inp, out, 1e3);
        c.capacitor(out, Circuit::GND, 1e-12);
        (c, v, out)
    }

    #[test]
    fn rebind_and_rerun_matches_fresh_builds() {
        let spec = TransientSpec::new(3e-9, 2e-12);
        let initial = InitialState::Uic(vec![]);
        let (c, v, out) = rc(1.0);
        let mut compiled = CompiledCircuit::compile(c).unwrap();
        let h = compiled.param(v);

        for level in [1.0, 0.5, 1.0, 0.25] {
            compiled.bind_wave(h, Waveform::step(0.0, level, 0.0, 1e-12));
            let reused = compiled.run(&spec, &initial, &[]).unwrap();
            let (fresh_c, _, fresh_out) = rc(level);
            let fresh = fresh_c.transient(&spec, &initial).unwrap();
            assert_eq!(reused.times(), fresh.times(), "level {level}");
            assert_eq!(reused.trace(out), fresh.trace(fresh_out), "level {level}");
        }
    }

    #[test]
    fn build_bind_run_counters() {
        let spec = TransientSpec::new(1e-9, 2e-12);
        let initial = InitialState::Uic(vec![]);
        let (c, v, _) = rc(1.0);
        let mut compiled = CompiledCircuit::compile(c).unwrap();
        let h = compiled.param(v);

        let first = compiled.run(&spec, &initial, &[]).unwrap();
        assert_eq!(first.stats.circuit_builds, 1, "compile counted once");
        assert_eq!(first.stats.param_binds, 0);
        assert_eq!(first.stats.runs, 1);

        compiled.bind_wave(h, Waveform::step(0.0, 0.5, 0.0, 1e-12));
        compiled.bind_wave(h, Waveform::step(0.0, 0.7, 0.0, 1e-12));
        let second = compiled.run(&spec, &initial, &[]).unwrap();
        assert_eq!(second.stats.circuit_builds, 0, "no rebuild on re-run");
        assert_eq!(second.stats.param_binds, 2);
        assert_eq!(second.stats.runs, 1);

        // The plain convenience path reports rebuild-per-run.
        let (c2, _, _) = rc(1.0);
        let plain = c2.transient(&spec, &initial).unwrap();
        assert_eq!(plain.stats.circuit_builds, 1);
        assert_eq!(plain.stats.runs, 1);

        // Aggregation: 1 build, 2 binds, 3 runs across the compiled pair +
        // plain run.
        let mut total = first.stats;
        total.absorb(&second.stats);
        assert_eq!(
            (total.circuit_builds, total.param_binds, total.runs),
            (1, 2, 2)
        );
    }

    /// A compile builds the sparsity pattern in two walks of the MNA's
    /// Jacobian entries; no later run or DC solve walks them again.
    #[test]
    fn only_compile_walks_the_jacobian_entries() {
        let walks = || crate::mna::tests::JACOBIAN_WALKS.with(std::cell::Cell::get);
        let (c, v, _) = rc(1.0);
        let before = walks();
        let mut compiled = CompiledCircuit::compile(c).unwrap();
        assert_eq!(walks() - before, 2, "compile");
        let before = walks();
        let spec = TransientSpec::new(1e-9, 2e-12);
        for initial in [InitialState::Uic(vec![]), InitialState::DcOp(vec![])] {
            compiled.run(&spec, &initial, &[]).unwrap();
        }
        compiled.bind_wave(compiled.param(v), Waveform::dc(0.5));
        compiled.dc_op(&[]).unwrap();
        assert_eq!(walks() - before, 0, "runs and DC solves");
    }

    #[test]
    fn lifetime_stats_accumulate_while_results_stay_per_run() {
        let spec = TransientSpec::new(1e-9, 2e-12);
        let initial = InitialState::Uic(vec![]);
        let (c, v, _) = rc(1.0);
        let mut compiled = CompiledCircuit::compile(c).unwrap();
        let h = compiled.param(v);

        let first = compiled.run(&spec, &initial, &[]).unwrap();
        compiled.bind_wave(h, Waveform::step(0.0, 0.5, 0.0, 1e-12));
        let second = compiled.run(&spec, &initial, &[]).unwrap();

        // Each result is per-run: the second run's counters must not
        // include the first run's effort.
        assert_eq!(second.stats.runs, 1);
        assert!(
            second.stats.newton_solves < first.stats.newton_solves + second.stats.newton_solves
        );

        // The lifetime view is exactly the absorbed sum of the per-run
        // views.
        let mut expected = first.stats;
        expected.absorb(&second.stats);
        assert_eq!(*compiled.lifetime_stats(), expected);
        assert_eq!(compiled.lifetime_stats().runs, 2);
        assert_eq!(compiled.lifetime_stats().circuit_builds, 1);
        assert_eq!(compiled.lifetime_stats().param_binds, 1);
    }

    #[test]
    fn bind_device_swaps_model_in_place() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.vsource("VD", d, Circuit::GND, Waveform::dc(0.8));
        c.vsource("VG", g, Circuit::GND, Waveform::dc(0.8));
        c.transistor("M", Arc::new(NTfet::nominal()), d, g, Circuit::GND, 0.1);
        let mut compiled = CompiledCircuit::compile(c).unwrap();
        compiled.bind_device(0, Arc::new(NTfet::nominal()), 0.2);
        assert_eq!(compiled.circuit().transistors()[0].width_um, 0.2);
        let op = compiled.dc_op(&[]).unwrap();
        assert!(op.total_power() > 0.0);
    }

    /// Runs `c` twice on fresh compiled copies — recording every node,
    /// then only `probes` — and asserts the probed result is the full one
    /// restricted to the probes, bit for bit.
    fn assert_probed_matches_full(
        c: &Circuit,
        spec: &TransientSpec,
        initial: &InitialState,
        probes: &[NodeId],
    ) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let full = CompiledCircuit::compile(c.clone())
            .unwrap()
            .run(spec, initial, &[])
            .unwrap();
        let probed = CompiledCircuit::compile(c.clone())
            .unwrap()
            .run_probed(spec, initial, &[], probes)
            .unwrap();
        assert_eq!(bits(probed.times()), bits(full.times()));
        for &n in probes {
            assert_eq!(bits(&probed.trace(n)), bits(&full.trace(n)), "{n:?}");
        }
        for i in 0..c.node_count() {
            assert_eq!(
                probed.final_voltage(NodeId(i)).to_bits(),
                full.final_voltage(NodeId(i)).to_bits(),
                "final voltage of {}",
                c.node_name(NodeId(i))
            );
        }
        assert_eq!(probed.stats, full.stats);
        assert!(full.stats.accepted_steps > 10, "{:?}", full.stats);
    }

    #[test]
    fn probed_run_matches_full_run_on_rc() {
        let (c, _, out) = rc(1.0);
        let initial = InitialState::Uic(vec![]);
        for spec in [
            TransientSpec::new(3e-9, 2e-12),
            TransientSpec::fixed(1e-9, 10e-12),
        ] {
            assert_probed_matches_full(&c, &spec, &initial, &[out]);
        }
    }

    #[test]
    fn probed_run_matches_full_run_on_6t_write_deck() {
        let deck = crate::Deck::parse(
            include_str!("../tests/golden/write_6t.sp"),
            &tfet_devices::standard_models(),
        )
        .unwrap();
        let spec = deck.analyses[0].transient_spec().unwrap();
        let node = |name| deck.circuit.find_node(name).unwrap();
        assert_probed_matches_full(
            &deck.circuit,
            &spec,
            &deck.initial_state(),
            &[node("q"), node("qb")],
        );
    }

    #[test]
    #[should_panic(expected = "node `in` was not recorded by this run (recorded: out)")]
    fn reading_an_unrecorded_trace_names_the_node() {
        let (c, _, out) = rc(1.0);
        let input = c.find_node("in").unwrap();
        let res = CompiledCircuit::compile(c)
            .unwrap()
            .run_probed(
                &TransientSpec::fixed(1e-10, 1e-11),
                &InitialState::Uic(vec![]),
                &[],
                &[out],
            )
            .unwrap();
        res.trace(input);
    }

    #[test]
    fn compile_rejects_empty_circuit() {
        assert!(CompiledCircuit::compile(Circuit::new()).is_err());
    }

    #[test]
    #[should_panic(expected = "stale source id")]
    fn stale_param_handle_rejected() {
        let (c, _, _) = rc(1.0);
        let compiled = CompiledCircuit::compile(c).unwrap();
        compiled.param(SourceId(99));
    }
}
