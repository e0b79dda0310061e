//! Operation drivers: hold, write, and read.
//!
//! Each driver assembles a complete experiment circuit around the cell —
//! rails, wordline pulse, driven or floating bitlines, assist windows — and
//! runs the appropriate analysis. The timing scheme (all relative to
//! [`SimOptions`]):
//!
//! ```text
//! t = 0 ············ t_settle ·· +50 ps ········ +width ········· t_end
//! |  state settles  | bitlines  | WL pulse      | WL off,        |
//! |  under hold     | driven    | (assist       | cell settles   |
//! |  bias           | to data   |  bracketing)  |                |
//! ```
//!
//! Reads keep the wordline active for the whole `t_read` window with the
//! bitlines *floating* on their column capacitance (precharged via initial
//! conditions), which is what lets the cell develop a sense differential.
//!
//! # Compiled experiments
//!
//! Every metric in the pipeline re-runs one of these drivers many times
//! with only a stimulus or a device binding changed: a WL_crit bisection
//! sweeps the pulse width, a Monte-Carlo batch sweeps device variations, a
//! β-sweep sweeps gate widths. [`WriteExperiment`] and [`ReadExperiment`]
//! therefore split each driver into the circuit crate's compile/bind/run
//! stages: `compile` builds and freezes the experiment circuit once,
//! [`WriteExperiment::run`] binds the per-run stimuli (pulse width, assist
//! windows) through typed [`ParamHandle`]s and executes against the frozen
//! form, and [`bind_cell`](WriteExperiment::bind_cell) swaps the six (or
//! seven) transistor bindings for a varied or re-sized cell without
//! re-tessellating anything. The legacy one-shot entry points
//! ([`run_write`], [`run_read`]) are thin wrappers that compile and run
//! once, so their numbers — and the numbers of every reused compiled
//! experiment — are bit-identical to the historical build-per-run path.

use crate::assist::{read_bias, write_bias, ReadAssist, WriteAssist, WriteBias};
use crate::error::SramError;
use crate::tech::{CellKind, CellParams, SimOptions};
use crate::topology::{CellNodes, CellTopology};
use tfet_circuit::transient::InitialState;
use tfet_circuit::{
    Circuit, CompiledCircuit, NodeId, ParamHandle, SolveStats, SourceId, StopEvent, TrailRole,
    TransientResult, Waveform,
};

/// Assist windows open this long *before* the wordline pulse (paper
/// Figs. 6–7 timing diagrams assert the assist first). The lead matters
/// physically for rail-based write assists in a unidirectional cell: the
/// stored-1 node can only follow a lowered supply through the pull-up's
/// weak reverse (ambipolar) conduction, which takes time.
const ASSIST_LEAD: f64 = 200e-12;

/// Assist windows close this long after the wordline pulse.
const ASSIST_LAG: f64 = 20e-12;

/// Delay between the bitlines switching to write data and the wordline
/// pulse, so the lines are quiet when the cell opens.
const BL_TO_WL_DELAY: f64 = 50e-12;

/// A waveform that rests at `base` and holds `level` over `[t0, t1]`
/// (with `t_edge` ramps), or plain DC when no excursion is needed.
fn windowed(base: f64, level: f64, t0: f64, t1: f64, t_edge: f64) -> Waveform {
    if (level - base).abs() < 1e-15 {
        Waveform::dc(base)
    } else {
        Waveform::pulse(base, level, t0, t1 - t0, t_edge)
    }
}

/// Wires the two cell rails to ground-referenced sources, in the canonical
/// VDD-then-VSS order every driver uses. Returns `(vdd, vss)` source ids.
fn wire_rails(
    c: &mut Circuit,
    nodes: &CellNodes,
    vdd_wave: Waveform,
    vss_wave: Waveform,
) -> (SourceId, SourceId) {
    let vdd_id = c.vsource("VDD", nodes.vdd, Circuit::GND, vdd_wave);
    let vss_id = c.vsource("VSS", nodes.vss, Circuit::GND, vss_wave);
    (vdd_id, vss_id)
}

/// The rail excursion waveforms for an assist window `[t0, t1]`: VDD rests
/// at `vdd`, VSS at 0 V, and each visits its bias level only if the assist
/// actually moves it (DC otherwise).
fn rail_waves(
    vdd: f64,
    vdd_level: f64,
    vss_level: f64,
    t0: f64,
    t1: f64,
    t_edge: f64,
) -> (Waveform, Waveform) {
    (
        windowed(vdd, vdd_level, t0, t1, t_edge),
        windowed(0.0, vss_level, t0, t1, t_edge),
    )
}

/// Checks that `params` describes a cell a compiled experiment can absorb
/// through device binds alone: same topology, supply, timing and fixed
/// capacitances. Everything else (models, widths, variations, temperature)
/// is bindable.
fn check_bindable(
    params: &CellParams,
    kind: CellKind,
    vdd: f64,
    sim: &SimOptions,
    c_bitline: f64,
    c_node: f64,
) -> Result<(), SramError> {
    params.validate()?;
    if params.kind != kind {
        return Err(SramError::InvalidParameter(format!(
            "compiled experiment is for {kind:?}, cannot bind {:?}",
            params.kind
        )));
    }
    if (params.vdd - vdd).abs() > 1e-15 {
        return Err(SramError::InvalidParameter(format!(
            "compiled experiment waveforms are frozen at vdd = {vdd} V, cannot bind {} V",
            params.vdd
        )));
    }
    if params.sim != *sim {
        return Err(SramError::InvalidParameter(
            "compiled experiment timing is frozen; sim options must match".into(),
        ));
    }
    if params.c_bitline != c_bitline || params.c_node != c_node {
        return Err(SramError::InvalidParameter(
            "compiled experiment capacitors are frozen; c_bitline/c_node must match".into(),
        ));
    }
    Ok(())
}

/// A hold-configured cell: all lines at their standby levels.
#[derive(Debug)]
pub struct HoldSetup {
    /// The assembled circuit.
    pub circuit: Circuit,
    /// Cell nodes.
    pub nodes: CellNodes,
    /// Every source in the circuit (for power accounting).
    pub sources: Vec<SourceId>,
    /// DC guess that selects the `q = 1` state.
    pub guess: Vec<(NodeId, f64)>,
}

/// Builds the hold configuration: wordline(s) inactive, bitlines clamped at
/// their standby levels — V_DD for the 6T cells (the paper's "traditionally
/// clamped at V_DD"), 0 V for the 7T cell's dedicated write bitlines (the
/// trick that lets it use outward access devices without paying reverse-bias
/// leakage).
///
/// # Errors
///
/// Returns [`SramError::InvalidParameter`] for invalid parameters.
pub fn hold_setup(params: &CellParams) -> Result<HoldSetup, SramError> {
    hold_setup_on(&CellTopology::builtin(params.kind), params)
}

/// [`hold_setup`] for an explicit topology — the entry point for cells that
/// exist only as an imported `.subckt`.
///
/// # Errors
///
/// Returns [`SramError::InvalidParameter`] for invalid parameters.
pub fn hold_setup_on(topo: &CellTopology, params: &CellParams) -> Result<HoldSetup, SramError> {
    params.validate()?;
    let vdd = params.vdd;
    let mut c = Circuit::new();
    let nodes = topo.place(&mut c, params).nodes;
    let mut sources = Vec::new();

    let (vdd_id, vss_id) = wire_rails(&mut c, &nodes, Waveform::dc(vdd), Waveform::dc(0.0));
    sources.push(vdd_id);
    sources.push(vss_id);
    let access = topo.access();
    sources.push(c.vsource(
        "WL",
        nodes.wl,
        Circuit::GND,
        Waveform::dc(access.wl_inactive(vdd)),
    ));

    let bl_hold = if topo.bl_idle_low() { 0.0 } else { vdd };
    sources.push(c.vsource("BL", nodes.bl, Circuit::GND, Waveform::dc(bl_hold)));
    sources.push(c.vsource("BLB", nodes.blb, Circuit::GND, Waveform::dc(bl_hold)));

    if let (Some(rbl), Some(rwl)) = (nodes.rbl, nodes.rwl) {
        sources.push(c.vsource("RBL", rbl, Circuit::GND, Waveform::dc(vdd)));
        sources.push(c.vsource("RWL", rwl, Circuit::GND, Waveform::dc(vdd)));
    }

    let guess = vec![(nodes.q, vdd), (nodes.qb, 0.0)];
    Ok(HoldSetup {
        circuit: c,
        nodes,
        sources,
        guess,
    })
}

/// A completed write transient.
#[derive(Debug)]
pub struct WriteRun {
    /// Recorded waveforms.
    pub result: TransientResult,
    /// Cell nodes.
    pub nodes: CellNodes,
    /// Wordline pulse start, s.
    pub t_wl_on: f64,
    /// Wordline pulse end, s.
    pub t_wl_off: f64,
    /// End of the recorded run, s.
    pub t_end: f64,
    /// Supply voltage, V.
    pub vdd: f64,
}

impl WriteRun {
    /// Whether the write succeeded: the cell, initially `q = 1`, must hold
    /// `q = 0` after the pulse and the post-write settle.
    pub fn flipped(&self) -> bool {
        let dq = self.result.final_voltage(self.nodes.qb) - self.result.final_voltage(self.nodes.q);
        dq > 0.3 * self.vdd
    }

    /// Write delay: wordline activation → the storage nodes cross the
    /// separatrix (`V(qb)` overtakes `V(q)`), `None` if they never do
    /// (failed write). This is where CMOS's bidirectional access devices
    /// shine — both sides of the cell are driven — while a TFET cell must
    /// wait for the inverter feedback to bring the second node along.
    pub fn write_delay(&self) -> Option<f64> {
        let times = self.result.times();
        let q = self.result.trace(self.nodes.q);
        let qb = self.result.trace(self.nodes.qb);
        for (k, &t) in times.iter().enumerate() {
            if t >= self.t_wl_on && qb[k] >= q[k] {
                return Some(t - self.t_wl_on);
            }
        }
        None
    }
}

/// A write experiment compiled for repeated execution.
///
/// [`compile`](WriteExperiment::compile) assembles the `q: 1 → 0` write
/// circuit once — cell, rails, wordline, data bitlines, read-port clamps —
/// and freezes it as a [`CompiledCircuit`]. Each
/// [`run`](WriteExperiment::run) then binds only what a new pulse width
/// changes (the wordline pulse and, for assisted cells, the rail windows)
/// and re-executes against the frozen form with the reused Newton
/// workspace. [`bind_cell`](WriteExperiment::bind_cell) retargets the
/// experiment at a varied or re-sized cell of the same topology, which is
/// how Monte-Carlo samples and β-sweeps avoid rebuilding per point.
#[derive(Debug)]
pub struct WriteExperiment {
    compiled: CompiledCircuit,
    nodes: CellNodes,
    vdd_h: ParamHandle,
    vss_h: ParamHandle,
    wl_h: ParamHandle,
    topo: CellTopology,
    kind: CellKind,
    vdd: f64,
    wl_inactive: f64,
    bias: WriteBias,
    sim: SimOptions,
    c_bitline: f64,
    c_node: f64,
    initial: InitialState,
}

impl WriteExperiment {
    /// Compiles the write experiment for `params`.
    ///
    /// The asymmetric 6T cell always runs with its built-in (modified)
    /// ground raising; other cells use `assist` as given. Data bitline
    /// waveforms and the initial condition are pulse-width-independent, so
    /// they are frozen here; the wordline and assist windows are bound per
    /// [`run`](WriteExperiment::run).
    ///
    /// # Errors
    ///
    /// Invalid parameters and structurally bad netlists.
    pub fn compile(params: &CellParams, assist: Option<WriteAssist>) -> Result<Self, SramError> {
        Self::compile_on(&CellTopology::builtin(params.kind), params, assist)
    }

    /// [`compile`](Self::compile) for an explicit topology — the entry
    /// point for cells that exist only as an imported `.subckt`. The
    /// stimulus schedule is derived entirely from the topology's data
    /// (access configuration, read-port flag, bitline idle level), so any
    /// cell satisfying the port contract runs the same write protocol.
    ///
    /// # Errors
    ///
    /// Invalid parameters and structurally bad netlists.
    pub fn compile_on(
        topo: &CellTopology,
        params: &CellParams,
        assist: Option<WriteAssist>,
    ) -> Result<Self, SramError> {
        params.validate()?;
        let vdd = params.vdd;
        let sim = params.sim;
        // The asymmetric 6T TFET SRAM's write mechanism *is* a modified
        // ground raising (paper §4 intro / [Singh, ASP-DAC'10]).
        let assist = if params.kind == CellKind::TfetAsym6T {
            Some(WriteAssist::GndRaising)
        } else {
            assist
        };
        let access = topo.access();
        let bias = write_bias(assist, vdd, access, sim.assist_fraction);
        let t_bl = sim.t_settle;

        let mut c = Circuit::new();
        let nodes = topo.place(&mut c, params).nodes;

        // Rails start at their DC hold levels; an assisted run rebinds them
        // to the windowed excursion once the window timing is known.
        let (vdd_id, vss_id) = wire_rails(&mut c, &nodes, Waveform::dc(vdd), Waveform::dc(0.0));
        let wl_inactive = access.wl_inactive(vdd);
        // Wordline placeholder: every run binds the actual pulse.
        let wl_id = c.vsource("WL", nodes.wl, Circuit::GND, Waveform::dc(wl_inactive));

        // Bitline data: BL (q side) driven toward 0, BLB toward the
        // (possibly raised) high level. Read-port cells with outward access
        // idle their write bitlines at 0, so only BLB moves. Both waveforms
        // are final at compile.
        let bl_hold = if topo.bl_idle_low() { 0.0 } else { vdd };
        let bl_wave = if bl_hold == 0.0 {
            Waveform::dc(0.0)
        } else {
            Waveform::step(bl_hold, 0.0, t_bl, sim.t_edge)
        };
        c.vsource("BL", nodes.bl, Circuit::GND, bl_wave);
        let blb_wave = if (bias.bl_high - bl_hold).abs() < 1e-15 {
            Waveform::dc(bl_hold)
        } else {
            Waveform::step(bl_hold, bias.bl_high, t_bl, sim.t_edge)
        };
        c.vsource("BLB", nodes.blb, Circuit::GND, blb_wave);

        let mut uic = vec![
            (nodes.q, vdd),
            (nodes.qb, 0.0),
            (nodes.bl, bl_hold),
            (nodes.blb, bl_hold),
            (nodes.wl, wl_inactive),
            (nodes.vdd, vdd),
        ];
        if let (Some(rbl), Some(rwl)) = (nodes.rbl, nodes.rwl) {
            c.vsource("RBL", rbl, Circuit::GND, Waveform::dc(vdd));
            c.vsource("RWL", rwl, Circuit::GND, Waveform::dc(vdd));
            uic.push((rbl, vdd));
            uic.push((rwl, vdd));
        }

        let compiled = CompiledCircuit::compile(c)?;
        let vdd_h = compiled.param(vdd_id);
        let vss_h = compiled.param(vss_id);
        let wl_h = compiled.param(wl_id);
        Ok(WriteExperiment {
            compiled,
            nodes,
            vdd_h,
            vss_h,
            wl_h,
            topo: topo.clone(),
            kind: params.kind,
            vdd,
            wl_inactive,
            bias,
            sim,
            c_bitline: params.c_bitline,
            c_node: params.c_node,
            initial: InitialState::Uic(uic),
        })
    }

    /// The cell kind this experiment's parameters were compiled with. For
    /// a deck-imported cell this is the *parameterization* kind (model
    /// family, β rules), not the wiring — see
    /// [`topology`](Self::topology) for the wiring.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The cell topology this experiment was compiled on.
    pub fn topology(&self) -> &CellTopology {
        &self.topo
    }

    /// The frozen simulation options (timing, tolerances).
    pub fn sim(&self) -> &SimOptions {
        &self.sim
    }

    /// Cumulative solver effort across every run of this experiment — the
    /// **lifetime** view, as opposed to the per-run
    /// [`TransientResult::stats`] each [`run`](WriteExperiment::run)
    /// returns. See the [`SolveStats`] docs for the two semantics.
    pub fn lifetime_stats(&self) -> &SolveStats {
        self.compiled.lifetime_stats()
    }

    /// Retargets the compiled experiment at a different cell of the same
    /// topology: rebinds every transistor model and width from `params`
    /// (sizing, variations, temperature, device mode). The frozen supply,
    /// timing and capacitances must match, because the compile-time
    /// waveforms and initial conditions depend on them.
    ///
    /// # Errors
    ///
    /// [`SramError::InvalidParameter`] for invalid parameters or a cell the
    /// frozen circuit cannot represent.
    pub fn bind_cell(&mut self, params: &CellParams) -> Result<(), SramError> {
        check_bindable(
            params,
            self.kind,
            self.vdd,
            &self.sim,
            self.c_bitline,
            self.c_node,
        )?;
        self.topo.bind_devices(&mut self.compiled, params);
        Ok(())
    }

    /// Runs the write with a wordline pulse of the given width, binding
    /// the per-run stimuli and executing against the compiled form. Always
    /// a cold run: nothing carries over from earlier runs.
    ///
    /// # Errors
    ///
    /// Simulation failures, and [`SramError::InvalidParameter`] for a pulse
    /// width that is not positive and finite (NaN included).
    pub fn run(&mut self, pulse_width: f64) -> Result<WriteRun, SramError> {
        self.run_as(pulse_width, None)
    }

    /// [`run`](Self::run) on the compiled circuit's checkpoint trail: a
    /// `WL_crit` search records its first probe and resumes every later
    /// one from the prefix they share. Bit-identical to [`run`](Self::run)
    /// in every recorded time and voltage; the stats count only the work
    /// this run performed.
    pub(crate) fn run_on_trail(
        &mut self,
        pulse_width: f64,
        role: TrailRole,
    ) -> Result<WriteRun, SramError> {
        self.run_as(pulse_width, Some(role))
    }

    fn run_as(
        &mut self,
        pulse_width: f64,
        trail: Option<TrailRole>,
    ) -> Result<WriteRun, SramError> {
        let _span = tfet_obs::span("write");
        if !(pulse_width > 0.0 && pulse_width.is_finite()) {
            return Err(SramError::InvalidParameter(format!(
                "pulse width must be positive and finite, got {pulse_width:e} s"
            )));
        }
        let sim = self.sim;
        let vdd = self.vdd;
        let t_bl = sim.t_settle;
        let t_wl_on = t_bl + BL_TO_WL_DELAY;
        let t_wl_off = t_wl_on + pulse_width;
        let t_end = t_wl_off + sim.t_post_write;
        let t_a0 = (t_wl_on - ASSIST_LEAD).max(0.3 * sim.t_settle);
        let t_a1 = t_wl_off + ASSIST_LAG;
        // Narrow pulses get proportionally faster edges.
        let edge_wl = sim.t_edge.min(pulse_width / 4.0);

        let (vdd_wave, vss_wave) = rail_waves(
            vdd,
            self.bias.vdd_level,
            self.bias.vss_level,
            t_a0,
            t_a1,
            sim.t_edge,
        );
        // Unassisted rails stay DC at every pulse width — exactly the
        // compile-time placeholder — so only assisted windows rebind.
        if !vdd_wave.is_dc() {
            self.compiled.bind_wave(self.vdd_h, vdd_wave);
        }
        if !vss_wave.is_dc() {
            self.compiled.bind_wave(self.vss_h, vss_wave);
        }
        self.compiled.bind_wave(
            self.wl_h,
            Waveform::pulse(
                self.wl_inactive,
                self.bias.wl_active,
                t_wl_on,
                pulse_width,
                edge_wl,
            ),
        );

        // Early exit: once the wordline and every assist rail are back at
        // their hold levels, a storage-node differential beyond the
        // regeneration margin has committed the cell either way — the
        // flip/no-flip verdict (`flipped()` tests ±0.3·V_DD at t_end) can
        // no longer change, so the rest of the post-write settle carries no
        // information. The 0.35·V_DD margin keeps a safety band over the
        // verdict threshold: borderline trajectories that hover inside it
        // run to completion.
        let events = [StopEvent::decided(
            self.nodes.qb,
            self.nodes.q,
            0.35 * vdd,
            t_a1 + 2.0 * sim.t_edge,
        )];
        let spec = sim.spec(t_end);
        let events: &[StopEvent] = if sim.early_exit { &events } else { &[] };
        let result = match trail {
            None => self.compiled.run(&spec, &self.initial, events),
            Some(role) => self
                .compiled
                .run_on_trail(&spec, &self.initial, events, role),
        }?;
        Ok(WriteRun {
            result,
            nodes: self.nodes,
            t_wl_on,
            t_wl_off,
            t_end,
            vdd,
        })
    }
}

/// Runs a write of `q: 1 → 0` with a wordline pulse of the given width.
///
/// The asymmetric 6T cell always runs with its built-in (modified) ground
/// raising; other cells use `assist` as given. One-shot wrapper around
/// [`WriteExperiment`]: compiles, runs once, discards the compiled form.
///
/// # Errors
///
/// Simulation failures and invalid parameters.
pub fn run_write(
    params: &CellParams,
    assist: Option<WriteAssist>,
    pulse_width: f64,
) -> Result<WriteRun, SramError> {
    WriteExperiment::compile(params, assist)?.run(pulse_width)
}

/// How a read develops its sense signal.
#[derive(Debug, Clone, Copy)]
enum SenseMode {
    /// Differential bitlines: sense when `V(plus) − V(minus)` reaches the
    /// threshold.
    Differential {
        /// The line that stays high (or charges up).
        plus: NodeId,
        /// The line the cell discharges (or that stays low).
        minus: NodeId,
    },
    /// Single-ended droop from a precharged level (7T read bitline).
    Droop {
        /// The sensed line.
        node: NodeId,
        /// Its precharge level, V.
        from: f64,
    },
}

/// A completed read transient.
#[derive(Debug)]
pub struct ReadRun {
    /// Recorded waveforms.
    pub result: TransientResult,
    /// Cell nodes.
    pub nodes: CellNodes,
    /// Wordline activation time, s.
    pub t_wl_on: f64,
    /// Wordline deactivation time, s.
    pub t_wl_off: f64,
    sense: SenseMode,
}

impl ReadRun {
    /// Dynamic read noise margin: the minimum of `V(q_high) − V(q_low)` over
    /// the wordline-active window (paper's DRNM, after [Dehaene,
    /// ESSCIRC'07]). Non-positive means the read flipped the cell.
    ///
    /// The cell is read in the `q = 0` state, so this is
    /// `min(V(qb) − V(q))`.
    pub fn drnm(&self) -> f64 {
        self.result
            .min_difference(self.nodes.qb, self.nodes.q, self.t_wl_on, self.t_wl_off)
    }

    /// Read delay: wordline activation → `dv_sense` of signal on the sense
    /// line(s); `None` if the signal never develops within the window.
    pub fn read_delay(&self, dv_sense: f64) -> Option<f64> {
        let times = self.result.times();
        for (k, &t) in times.iter().enumerate() {
            if t < self.t_wl_on || t > self.t_wl_off {
                continue;
            }
            let sig = match self.sense {
                SenseMode::Differential { plus, minus } => {
                    self.result.trace(plus)[k] - self.result.trace(minus)[k]
                }
                SenseMode::Droop { node, from } => from - self.result.trace(node)[k],
            };
            if sig >= dv_sense {
                return Some(t - self.t_wl_on);
            }
        }
        None
    }
}

/// A read experiment compiled for repeated execution.
///
/// Read timing never varies per run — the wordline is active for the whole
/// `t_read` window — so everything (stimuli, precharge initial conditions,
/// stop events) is frozen at [`compile`](ReadExperiment::compile) time and
/// [`run`](ReadExperiment::run) takes no arguments.
/// [`bind_cell`](ReadExperiment::bind_cell) swaps the transistor bindings
/// for a varied or re-sized cell, which is how Monte-Carlo DRNM batches and
/// β-sweeps reuse one compiled circuit.
#[derive(Debug)]
pub struct ReadExperiment {
    compiled: CompiledCircuit,
    nodes: CellNodes,
    topo: CellTopology,
    kind: CellKind,
    vdd: f64,
    sim: SimOptions,
    c_bitline: f64,
    c_node: f64,
    t_wl_on: f64,
    t_wl_off: f64,
    t_end: f64,
    sense: SenseMode,
    initial: InitialState,
    events: [StopEvent; 1],
}

impl ReadExperiment {
    /// Compiles the `q = 0` read experiment for `params`.
    ///
    /// Bitlines float on `c_bitline` from their precharge level;
    /// inward/CMOS cells precharge high (the cell discharges the `q`-side
    /// line), outward cells precharge low (the cell charges the `qb`-side
    /// line), and the 7T cell senses its dedicated read bitline through the
    /// read buffer without touching the storage nodes.
    ///
    /// # Errors
    ///
    /// Invalid parameters and structurally bad netlists.
    pub fn compile(params: &CellParams, assist: Option<ReadAssist>) -> Result<Self, SramError> {
        Self::compile_on(&CellTopology::builtin(params.kind), params, assist)
    }

    /// [`compile`](Self::compile) for an explicit topology — the entry
    /// point for cells that exist only as an imported `.subckt`. A
    /// read-port topology reads through its `rbl`/`rwl` buffer with the
    /// write port quiescent; everything else reads differentially on
    /// floating bitlines.
    ///
    /// # Errors
    ///
    /// Invalid parameters and structurally bad netlists.
    pub fn compile_on(
        topo: &CellTopology,
        params: &CellParams,
        assist: Option<ReadAssist>,
    ) -> Result<Self, SramError> {
        params.validate()?;
        let vdd = params.vdd;
        let sim = params.sim;
        let access = topo.access();
        let bias = read_bias(assist, vdd, access, sim.assist_fraction);

        let t_wl_on = sim.t_settle;
        let t_wl_off = t_wl_on + sim.t_read;
        let t_end = t_wl_off + 0.3e-9;

        let mut c = Circuit::new();
        let nodes = topo.place(&mut c, params).nodes;

        let t_ra0 = (t_wl_on - ASSIST_LEAD).max(0.3 * sim.t_settle);
        let (vdd_wave, vss_wave) = rail_waves(
            vdd,
            bias.vdd_level,
            bias.vss_level,
            t_ra0,
            t_wl_off,
            sim.t_edge,
        );
        wire_rails(&mut c, &nodes, vdd_wave, vss_wave);

        let mut uic = vec![
            (nodes.q, 0.0),
            (nodes.qb, vdd),
            (nodes.vdd, vdd),
            (nodes.wl, access.wl_inactive(vdd)),
        ];

        let sense = if topo.has_read_port() {
            // Write port quiescent at its idle level; read through the
            // buffer on RBL/RWL.
            let idle = if topo.bl_idle_low() { 0.0 } else { vdd };
            c.vsource("BL", nodes.bl, Circuit::GND, Waveform::dc(idle));
            c.vsource("BLB", nodes.blb, Circuit::GND, Waveform::dc(idle));
            c.vsource(
                "WL",
                nodes.wl,
                Circuit::GND,
                Waveform::dc(access.wl_inactive(vdd)),
            );
            let rbl = nodes.rbl.expect("read-port cell has rbl");
            let rwl = nodes.rwl.expect("read-port cell has rwl");
            c.capacitor(rbl, Circuit::GND, params.c_bitline);
            c.vsource(
                "RWL",
                rwl,
                Circuit::GND,
                Waveform::pulse(vdd, 0.0, t_wl_on, sim.t_read, sim.t_edge),
            );
            if idle != 0.0 {
                uic.push((nodes.bl, idle));
                uic.push((nodes.blb, idle));
            }
            uic.push((rbl, vdd));
            uic.push((rwl, vdd));
            SenseMode::Droop {
                node: rbl,
                from: vdd,
            }
        } else {
            // 6T cells: wordline pulse, floating bitlines on their column
            // caps.
            c.vsource(
                "WL",
                nodes.wl,
                Circuit::GND,
                Waveform::pulse(
                    access.wl_inactive(vdd),
                    bias.wl_active,
                    t_wl_on,
                    sim.t_read,
                    sim.t_edge,
                ),
            );
            c.capacitor(nodes.bl, Circuit::GND, params.c_bitline);
            c.capacitor(nodes.blb, Circuit::GND, params.c_bitline);
            // CMOS access is inward-n, so this one predicate covers both
            // the CMOS baseline and inward TFET cells.
            let precharge = if access.is_inward() {
                bias.bl_precharge
            } else {
                // Outward cells read by charging a low-precharged line.
                0.0
            };
            uic.push((nodes.bl, precharge));
            uic.push((nodes.blb, precharge));
            // Either polarity senses the same differential: precharged-high
            // columns droop on the q = 0 side, precharged-low columns
            // charge on the qb = 1 side — both make V(blb) − V(bl) grow
            // positive.
            SenseMode::Differential {
                plus: nodes.blb,
                minus: nodes.bl,
            }
        };

        // Early exit for the post-window tail only: the DRNM window
        // [t_wl_on, t_wl_off] is always recorded in full; once the wordline
        // (and any assist) has closed, a storage differential committed
        // past ±0.75·V_DD means the cell has settled back (or irrecoverably
        // flipped) and the remaining tail is quiescent.
        let events = [StopEvent::decided(
            nodes.qb,
            nodes.q,
            0.75 * vdd,
            t_wl_off + 2.0 * sim.t_edge,
        )];
        let compiled = CompiledCircuit::compile(c)?;
        Ok(ReadExperiment {
            compiled,
            nodes,
            topo: topo.clone(),
            kind: params.kind,
            vdd,
            sim,
            c_bitline: params.c_bitline,
            c_node: params.c_node,
            t_wl_on,
            t_wl_off,
            t_end,
            sense,
            initial: InitialState::Uic(uic),
            events,
        })
    }

    /// The cell kind this experiment's parameters were compiled with. For
    /// a deck-imported cell this is the *parameterization* kind (model
    /// family, β rules), not the wiring — see
    /// [`topology`](Self::topology) for the wiring.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The cell topology this experiment was compiled on.
    pub fn topology(&self) -> &CellTopology {
        &self.topo
    }

    /// The frozen simulation options (timing, tolerances).
    pub fn sim(&self) -> &SimOptions {
        &self.sim
    }

    /// Cumulative solver effort across every run of this experiment — the
    /// **lifetime** view, as opposed to the per-run
    /// [`TransientResult::stats`] each [`run`](ReadExperiment::run)
    /// returns. See the [`SolveStats`] docs for the two semantics.
    pub fn lifetime_stats(&self) -> &SolveStats {
        self.compiled.lifetime_stats()
    }

    /// Retargets the compiled experiment at a different cell of the same
    /// topology: rebinds every transistor model and width from `params`.
    /// The frozen supply, timing and capacitances must match.
    ///
    /// # Errors
    ///
    /// [`SramError::InvalidParameter`] for invalid parameters or a cell the
    /// frozen circuit cannot represent.
    pub fn bind_cell(&mut self, params: &CellParams) -> Result<(), SramError> {
        check_bindable(
            params,
            self.kind,
            self.vdd,
            &self.sim,
            self.c_bitline,
            self.c_node,
        )?;
        self.topo.bind_devices(&mut self.compiled, params);
        Ok(())
    }

    /// Runs the read against the compiled form.
    ///
    /// # Errors
    ///
    /// Simulation failures.
    pub fn run(&mut self) -> Result<ReadRun, SramError> {
        let _span = tfet_obs::span("read");
        let result = self.compiled.run(
            &self.sim.spec(self.t_end),
            &self.initial,
            if self.sim.early_exit {
                &self.events
            } else {
                &[]
            },
        )?;
        Ok(ReadRun {
            result,
            nodes: self.nodes,
            t_wl_on: self.t_wl_on,
            t_wl_off: self.t_wl_off,
            sense: self.sense,
        })
    }
}

/// Runs a read of the `q = 0` state.
///
/// One-shot wrapper around [`ReadExperiment`]: compiles, runs once,
/// discards the compiled form.
///
/// # Errors
///
/// Simulation failures and invalid parameters.
pub fn run_read(params: &CellParams, assist: Option<ReadAssist>) -> Result<ReadRun, SramError> {
    ReadExperiment::compile(params, assist)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::AccessConfig;

    fn fast(params: CellParams) -> CellParams {
        // Coarser step for unit tests; metric tests live in `metrics`.
        let mut p = params;
        p.sim.dt = 2e-12;
        p
    }

    #[test]
    fn hold_setup_has_expected_sources() {
        let p = CellParams::tfet6t(AccessConfig::InwardP);
        let h = hold_setup(&p).unwrap();
        assert_eq!(h.sources.len(), 5);
        assert_eq!(h.guess.len(), 2);
        let p7 = CellParams::new(CellKind::Tfet7T);
        let h7 = hold_setup(&p7).unwrap();
        assert_eq!(h7.sources.len(), 7);
    }

    #[test]
    fn hold_dc_converges_to_selected_state() {
        let p = CellParams::tfet6t(AccessConfig::InwardP);
        let h = hold_setup(&p).unwrap();
        let op = h.circuit.dc_op_with_guess(&h.guess).unwrap();
        assert!(op.voltage(h.nodes.q) > 0.75 * p.vdd);
        assert!(op.voltage(h.nodes.qb) < 0.05 * p.vdd);
    }

    #[test]
    fn write_with_long_pulse_flips_inward_p_cell() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let run = run_write(&p, None, 2e-9).unwrap();
        assert!(run.flipped(), "β=0.6 inward-p must write");
        assert!(run.write_delay().is_some());
    }

    #[test]
    fn write_with_tiny_pulse_does_not_flip() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let run = run_write(&p, None, 20e-12).unwrap();
        assert!(!run.flipped(), "20 ps pulse must be too short");
    }

    #[test]
    fn inward_n_write_fails_even_with_long_pulse() {
        // Paper Fig. 4: infinite WL_crit for inward-n at any β.
        let p = fast(CellParams::tfet6t(AccessConfig::InwardN).with_beta(0.6));
        let run = run_write(&p, None, 4e-9).unwrap();
        assert!(!run.flipped(), "inward-n cannot write");
    }

    #[test]
    fn cmos_write_flips_quickly() {
        let p = fast(CellParams::cmos6t().with_beta(1.5));
        let run = run_write(&p, None, 1e-9).unwrap();
        assert!(run.flipped());
    }

    #[test]
    fn adaptive_write_transient_matches_fixed_reference() {
        // Accuracy regression for the adaptive engine on the full 6T write:
        // the adaptive trace must track a fine fixed-step reference at both
        // storage nodes over the whole run. Early exit is disabled so the
        // two runs cover the same horizon.
        let mut p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        p.sim.early_exit = false;
        let adaptive = run_write(&p, None, 1e-9).unwrap();
        let mut pf = p.clone();
        pf.sim.stepping = crate::tech::SteppingMode::Fixed;
        pf.sim.dt = 0.5e-12;
        let fixed = run_write(&pf, None, 1e-9).unwrap();
        assert_eq!(adaptive.flipped(), fixed.flipped());
        let t_end = *fixed.result.times().last().unwrap();
        let mut worst = 0.0f64;
        for k in 0..=400 {
            let t = t_end * k as f64 / 400.0;
            for node in [adaptive.nodes.q, adaptive.nodes.qb] {
                let dv = adaptive.result.voltage_at(node, t) - fixed.result.voltage_at(node, t);
                worst = worst.max(dv.abs());
            }
        }
        assert!(worst < 0.03, "max |adaptive − fixed| = {worst} V");
        // And the adaptive run must be doing meaningfully less work.
        assert!(adaptive.result.stats.accepted_steps * 3 < fixed.result.stats.accepted_steps);
    }

    #[test]
    fn read_preserves_state_at_high_beta() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(2.0));
        let run = run_read(&p, None).unwrap();
        assert!(
            run.drnm() > 0.0,
            "β=2 read must be stable, DRNM={}",
            run.drnm()
        );
        // Cell still holds q=0 at the end.
        assert!(run.result.final_voltage(run.nodes.qb) > 0.7 * p.vdd);
    }

    #[test]
    fn read_develops_bitline_differential() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(2.0));
        let run = run_read(&p, None).unwrap();
        let delay = run.read_delay(0.05);
        assert!(delay.is_some(), "50 mV must develop within the window");
        assert!(delay.unwrap() > 0.0);
    }

    #[test]
    fn gnd_lowering_improves_drnm() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let plain = run_read(&p, None).unwrap().drnm();
        let assisted = run_read(&p, Some(ReadAssist::GndLowering)).unwrap().drnm();
        assert!(
            assisted > plain,
            "GND lowering must help: {assisted} !> {plain}"
        );
    }

    #[test]
    fn seven_t_read_does_not_disturb_cell() {
        let p = fast(CellParams::new(CellKind::Tfet7T).with_beta(2.0));
        let run = run_read(&p, None).unwrap();
        // Decoupled read: margin stays ≈ VDD.
        assert!(run.drnm() > 0.9 * p.vdd, "DRNM = {}", run.drnm());
        // And the read bitline droops.
        assert!(run.read_delay(0.05).is_some());
    }

    #[test]
    fn write_rejects_bad_pulse() {
        let p = CellParams::cmos6t();
        let mut exp = WriteExperiment::compile(&p, None).unwrap();
        for w in [f64::NAN, f64::INFINITY, 0.0, -1.0, -1e-12] {
            match exp.run(w) {
                Err(SramError::InvalidParameter(msg)) => {
                    assert!(msg.contains("must be positive and finite"), "{w}: {msg}")
                }
                other => panic!("pulse width {w}: expected a typed error, got {other:?}"),
            }
            assert!(matches!(
                run_write(&p, None, w),
                Err(SramError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn compiled_write_reuse_matches_fresh_builds() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let mut exp = WriteExperiment::compile(&p, None).unwrap();
        for width in [2e-9, 0.4e-9, 2e-9] {
            let reused = exp.run(width).unwrap();
            let fresh = run_write(&p, None, width).unwrap();
            assert_eq!(reused.result.times(), fresh.result.times(), "w = {width}");
            assert_eq!(
                reused.result.trace(reused.nodes.q),
                fresh.result.trace(fresh.nodes.q),
                "w = {width}"
            );
            assert_eq!(reused.flipped(), fresh.flipped(), "w = {width}");
        }
    }

    #[test]
    fn compiled_write_counts_builds_and_runs() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let mut exp = WriteExperiment::compile(&p, None).unwrap();
        let first = exp.run(1e-9).unwrap();
        assert_eq!(first.result.stats.circuit_builds, 1);
        let second = exp.run(0.5e-9).unwrap();
        assert_eq!(second.result.stats.circuit_builds, 0, "no rebuild");
        assert_eq!(second.result.stats.runs, 1);
        // Only the wordline rebinds on an unassisted cell.
        assert_eq!(second.result.stats.param_binds, 1);
    }

    #[test]
    fn compiled_read_bind_cell_matches_fresh_builds() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(2.0));
        let mut exp = ReadExperiment::compile(&p, None).unwrap();
        for beta in [2.0, 0.8, 2.0] {
            let pb = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(beta));
            exp.bind_cell(&pb).unwrap();
            let reused = exp.run().unwrap();
            let fresh = run_read(&pb, None).unwrap();
            assert_eq!(reused.result.times(), fresh.result.times(), "β = {beta}");
            assert_eq!(reused.drnm(), fresh.drnm(), "β = {beta}");
        }
    }

    #[test]
    fn bind_cell_rejects_incompatible_params() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let mut exp = WriteExperiment::compile(&p, None).unwrap();
        let mut other_vdd = p.clone();
        other_vdd.vdd = 0.6;
        assert!(matches!(
            exp.bind_cell(&other_vdd),
            Err(SramError::InvalidParameter(_))
        ));
        let other_kind = fast(CellParams::cmos6t());
        assert!(matches!(
            exp.bind_cell(&other_kind),
            Err(SramError::InvalidParameter(_))
        ));
    }

    /// `run_read` on `p` must refuse it with a typed error, not panic inside
    /// the circuit builder or the transient spec.
    fn assert_rejected(p: &CellParams) {
        assert!(
            matches!(run_read(p, None), Err(SramError::InvalidParameter(_))),
            "c_bitline {}, c_node {}, dt {}",
            p.c_bitline,
            p.c_node,
            p.sim.dt
        );
    }

    #[test]
    fn nan_bitline_capacitance_is_a_typed_error() {
        let mut p = CellParams::tfet6t(AccessConfig::InwardP);
        p.c_bitline = f64::NAN;
        assert_rejected(&p);
    }

    #[test]
    fn nan_node_capacitance_is_a_typed_error() {
        let mut p = CellParams::tfet6t(AccessConfig::InwardP);
        p.c_node = f64::NAN;
        assert_rejected(&p);
    }

    #[test]
    fn bad_time_step_is_a_typed_error() {
        for dt in [0.0, -1e-12, f64::NAN] {
            let mut p = CellParams::tfet6t(AccessConfig::InwardP);
            p.sim.dt = dt;
            assert_rejected(&p);
        }
    }
}
