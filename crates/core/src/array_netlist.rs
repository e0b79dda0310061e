//! Fast-SPICE bitcell-array engine: real R×C transients with peripherals.
//!
//! One [`ArrayNetlist`] composes R rows × C columns of a 6T cell topology
//! (built-in or imported) with
//!
//! * **shared wordlines and bitlines** — each cell placed on its row/column
//!   lines by the topology's one placer,
//!   [`CellTopology::place_on_lines`], so half-selection on the written row
//!   is physical, not modeled;
//! * **sram22-style peripherals** — a per-row wordline driver (2-input
//!   NAND of `row-select · wl_en`, plus an output inverter when the access
//!   polarity needs an active-high wordline), per-column precharge
//!   devices, and a discharge-only column write mux off global write-data
//!   lines;
//! * **per-column bitline capacitance scaling with R** — the wire load
//!   grows with the number of cells hanging off the line
//!   ([`ArraySpec::c_bitline`]);
//!
//! all compiled **once** into a single [`CompiledCircuit`]. Every
//! operation (any row, any column, any data, any pulse width) rebinds
//! control-source waveforms on the frozen netlist and re-runs it — no
//! per-operation compilation. The per-cell storage state is carried
//! between operations ([`ArrayNetlist::commit`]) and enters each transient
//! through the initial conditions.
//!
//! The engine registers one [`CellPartition`] per bitcell, so the circuit
//! crate's quiescent-partition latency tier skips device evaluation for
//! the thousands of cells far from the action. A 64×64 write transient
//! runs in seconds because >90 % of its device evaluations never happen.

use crate::error::SramError;
use crate::metrics::{self, WlCrit};
use crate::tech::{CellKind, CellModels, CellParams, Role};
use crate::topology::{CellLines, CellNodes, CellTopology};
use tfet_circuit::transient::InitialState;
use tfet_circuit::{
    CellPartition, Circuit, CompiledCircuit, DeviceLatency, GuardKind, NodeId, PartitionTelemetry,
    SolveStats, SourceId, TransientResult, TransientSpec, Waveform,
};
use tfet_numerics::roots::{critical_threshold_checked, Threshold};

/// Reference row count for the bitline-capacitance wire model: the cell's
/// `c_bitline` parameter is calibrated for a 64-row column.
const C_BITLINE_REF_ROWS: f64 = 64.0;

/// Delay from bitline-driver engagement to the wordline-enable edge, s.
const T_WL_DELAY: f64 = 50e-12;

/// Lead time of the row-select lines over everything else, s — the decoder
/// output must be stable at the NAND input before `wl_en` fires.
const T_SEL: f64 = 20e-12;

/// Dimensions, cell design and solver tier of an array netlist.
#[derive(Debug, Clone)]
pub struct ArraySpec {
    /// Number of rows (wordlines).
    pub rows: usize,
    /// Number of columns (bitline pairs).
    pub cols: usize,
    /// The cell replicated at every (row, column).
    pub cell: CellParams,
    /// Per-array override of the process-wide latency tier, passed to
    /// every transient run on this netlist.
    latency: Option<DeviceLatency>,
    /// Optional explicit cell topology. `None` replicates the built-in
    /// recipe for `cell.kind`; `Some` replicates an imported `.subckt`
    /// cell at every (row, column) instead — same peripherals, same latency
    /// partitions, same operation schedule.
    pub topology: Option<CellTopology>,
}

impl ArraySpec {
    /// An R×C array of the given cell.
    pub fn new(rows: usize, cols: usize, cell: CellParams) -> Self {
        ArraySpec {
            rows,
            cols,
            cell,
            latency: None,
            topology: None,
        }
    }

    /// Pins the device-evaluation latency tier of every run instead of
    /// reading the process hook at each run's start (builder style): how
    /// tests and benches compare the tier with its full-evaluation
    /// baseline.
    #[doc(hidden)]
    pub fn with_latency(mut self, latency: DeviceLatency) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Replicates an explicit (typically deck-imported) cell topology
    /// instead of the built-in recipe (builder style).
    pub fn with_topology(mut self, topology: CellTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Per-column bitline capacitance, F: the cell's `c_bitline` wire
    /// budget scaled by `rows / 64` — a column with fewer cells presents a
    /// proportionally lighter line.
    pub fn c_bitline(&self) -> f64 {
        self.cell.c_bitline * self.rows as f64 / C_BITLINE_REF_ROWS
    }

    fn validate(&self) -> Result<(), SramError> {
        self.cell.validate()?;
        if self.rows == 0 || self.cols == 0 {
            return Err(SramError::InvalidParameter(
                "array must have at least one row and one column".into(),
            ));
        }
        if self.rows > 64 || self.cols > 64 {
            return Err(SramError::InvalidParameter(format!(
                "array netlist supports up to 64x64, got {}x{}",
                self.rows, self.cols
            )));
        }
        if let Some(topo) = &self.topology {
            if topo.has_read_port() {
                return Err(SramError::InvalidParameter(
                    "array netlist has no rbl/rwl columns; read-port topologies \
                     are not supported"
                        .into(),
                ));
            }
        }
        match self.cell.kind {
            CellKind::Cmos6T | CellKind::Tfet6T(_) => Ok(()),
            other => Err(SramError::InvalidParameter(format!(
                "array netlist supports the 6T topologies, not {other:?}"
            ))),
        }
    }

    /// The effective cell topology: the explicit override, or the built-in
    /// recipe for `cell.kind`.
    fn cell_topology(&self) -> CellTopology {
        self.topology
            .clone()
            .unwrap_or_else(|| CellTopology::builtin(self.cell.kind))
    }
}

/// Outcome of one array write transient.
#[derive(Debug, Clone)]
pub struct ArrayWrite {
    /// Whether the addressed cell ends the transient holding the intended
    /// value.
    pub success: bool,
    /// Cells (row, col) whose decoded bit changed although they were not
    /// addressed — half-select or row-disturb victims.
    pub disturbed: Vec<(usize, usize)>,
    /// Final `(v_q, v_qb)` per cell, row-major. Fold into the carried
    /// state with [`ArrayNetlist::commit`].
    pub finals: Vec<(f64, f64)>,
    /// Solver-effort counters for this transient (`device_evals`,
    /// `devices_dormant`, `cells_refreshed`, …).
    pub stats: SolveStats,
    /// Per-cell dormancy telemetry of the transient, row-major (empty
    /// with the latency tier off).
    pub partitions: Vec<PartitionTelemetry>,
}

/// Outcome of one array read transient.
#[derive(Debug, Clone)]
pub struct ArrayRead {
    /// The sensed value (sign of the addressed column's bitline
    /// differential at wordline close).
    pub value: bool,
    /// Magnitude of that differential, V.
    pub sense_margin: f64,
    /// Whether the read corrupted any cell.
    pub destructive: bool,
    /// Final `(v_q, v_qb)` per cell, row-major.
    pub finals: Vec<(f64, f64)>,
    /// Solver-effort counters for this transient.
    pub stats: SolveStats,
    /// Per-cell dormancy telemetry of the transient, row-major (empty
    /// with the latency tier off).
    pub partitions: Vec<PartitionTelemetry>,
}

/// An R×C bitcell array with peripherals, compiled once and re-run under
/// rebound control waveforms.
///
/// # Examples
///
/// ```no_run
/// use tfet_sram::array_netlist::{ArrayNetlist, ArraySpec};
/// use tfet_sram::prelude::*;
///
/// let cell = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
/// let mut array = ArrayNetlist::build(ArraySpec::new(8, 8, cell))?;
/// let w = array.write_transient(3, 5, true, 1.5e-9)?;
/// assert!(w.success && w.disturbed.is_empty());
/// array.commit(&w.finals);
/// let r = array.read_transient(3, 5)?;
/// assert!(r.value);
/// # Ok::<(), tfet_sram::SramError>(())
/// ```
#[derive(Debug)]
pub struct ArrayNetlist {
    spec: ArraySpec,
    topo: CellTopology,
    compiled: CompiledCircuit,
    /// Per-cell node handles, row-major.
    cells: Vec<CellNodes>,
    /// Row wordline nodes (driver outputs).
    wls: Vec<NodeId>,
    /// Column bitline pairs.
    bitlines: Vec<(NodeId, NodeId)>,
    /// Per-row decoder (row-select) sources.
    sel_srcs: Vec<SourceId>,
    /// Per-column write-mux select sources (and their complements for the
    /// p legs).
    csel_srcs: Vec<SourceId>,
    cselb_srcs: Vec<SourceId>,
    wl_en_src: SourceId,
    wd_src: SourceId,
    wdb_src: SourceId,
    /// State-independent initial conditions: rails, driver internals,
    /// bitlines at precharge. Per-cell storage voltages are appended per
    /// run.
    base_uic: Vec<(NodeId, f64)>,
    /// `(v_q, v_qb)` per cell, row-major — the carried storage state.
    state: Vec<(f64, f64)>,
    /// Control sources bound by the previous operation, reset lazily.
    bound: Option<(usize, usize)>,
}

impl ArrayNetlist {
    /// Assembles and compiles the full array: cells, wordline-driver
    /// chain, precharge, column mux. Every cell starts holding `false`
    /// (q = 0).
    ///
    /// # Errors
    ///
    /// Invalid parameters (zero or oversized dimensions, unsupported
    /// topology) or compile-time circuit errors.
    pub fn build(spec: ArraySpec) -> Result<Self, SramError> {
        let _span = tfet_obs::span("array_netlist_build");
        spec.validate()?;
        let topo = spec.cell_topology();
        let cell = &spec.cell;
        let vdd = cell.vdd;
        let access = topo.access();
        let sim = &cell.sim;
        let c_bl = spec.c_bitline();
        // Driver sized to swing a full row of access gates plus the
        // wordline wire within a small fraction of the pulse: scales with
        // the column count it drives, floored at 8 cells' worth of drive.
        let w_drv = cell.sizing.w_access_um * 2.0 * (spec.cols as f64).max(8.0);
        // Write path sized like a real driver: it must hold the high
        // bitline within a few tens of millivolts of the rail while the
        // addressed cell draws write current (TFET drive collapses at low
        // drain bias, so the headroom costs real width).
        let w_periph = 16.0 * cell.sizing.w_access_um;

        // One model per (role, polarity) for every cell and one per
        // polarity for the periphery, shared by all their devices.
        let mut models = CellModels::new(cell);
        let mut c = Circuit::new();
        let vdd_rail = c.node("vdd_rail");
        let vss_rail = c.node("vss_rail");
        c.vsource("VDD", vdd_rail, Circuit::GND, Waveform::dc(vdd));
        c.vsource("VSS", vss_rail, Circuit::GND, Waveform::dc(0.0));
        let mut base_uic: Vec<(NodeId, f64)> = vec![(vdd_rail, vdd), (vss_rail, 0.0)];

        // Global wordline enable, shared by every row driver.
        let wl_en = c.node("wl_en");
        let wl_en_src = c.vsource("WLEN", wl_en, Circuit::GND, Waveform::dc(0.0));
        base_uic.push((wl_en, 0.0));

        // Per-row wordline driver: NAND(sel, wl_en) plus, for active-high
        // wordlines, an output inverter (the sram22 AND2 idiom). For
        // p-type access the wordline is active-low and idles at V_DD,
        // which is exactly the NAND output — the inverter is elided.
        let active_low = access.is_p_type();
        let mut wls = Vec::with_capacity(spec.rows);
        let mut sel_srcs = Vec::with_capacity(spec.rows);
        for r in 0..spec.rows {
            let sel = c.node(&format!("sel{r}"));
            sel_srcs.push(c.vsource(&format!("SEL{r}"), sel, Circuit::GND, Waveform::dc(0.0)));
            base_uic.push((sel, 0.0));

            let nand = if active_low {
                c.node(&format!("wl{r}"))
            } else {
                c.node(&format!("nand{r}"))
            };
            let mid = c.node(&format!("nmid{r}"));
            c.transistor(
                &format!("XWD{r}PA"),
                models.periph(false),
                nand,
                sel,
                vdd_rail,
                w_drv,
            );
            c.transistor(
                &format!("XWD{r}PB"),
                models.periph(false),
                nand,
                wl_en,
                vdd_rail,
                w_drv,
            );
            c.transistor(
                &format!("XWD{r}NA"),
                models.periph(true),
                nand,
                sel,
                mid,
                w_drv,
            );
            c.transistor(
                &format!("XWD{r}NB"),
                models.periph(true),
                mid,
                wl_en,
                vss_rail,
                w_drv,
            );
            c.capacitor(mid, Circuit::GND, cell.c_node);
            base_uic.push((mid, 0.0));

            let wl = if active_low {
                base_uic.push((nand, vdd));
                nand
            } else {
                c.capacitor(nand, Circuit::GND, cell.c_node);
                base_uic.push((nand, vdd));
                let wl = c.node(&format!("wl{r}"));
                c.transistor(
                    &format!("XWI{r}P"),
                    models.periph(false),
                    wl,
                    nand,
                    vdd_rail,
                    w_drv,
                );
                c.transistor(
                    &format!("XWI{r}N"),
                    models.periph(true),
                    wl,
                    nand,
                    vss_rail,
                    w_drv,
                );
                base_uic.push((wl, 0.0));
                wl
            };
            // Wordline wire load: one cell's node parasitic per column.
            c.capacitor(wl, Circuit::GND, cell.c_node * spec.cols as f64);
            wls.push(wl);
        }

        // Global precharge control (active low) and write-data lines.
        let prech_b = c.node("prech_b");
        let t_bl = sim.t_settle;
        let t_prech_off = (t_bl - 2.0 * sim.t_edge).max(0.5 * t_bl);
        c.vsource(
            "PRECH",
            prech_b,
            Circuit::GND,
            Waveform::step(0.0, vdd, t_prech_off, sim.t_edge),
        );
        base_uic.push((prech_b, 0.0));
        let wd = c.node("wd");
        let wdb = c.node("wdb");
        let wd_src = c.vsource("WD", wd, Circuit::GND, Waveform::dc(vdd));
        let wdb_src = c.vsource("WDB", wdb, Circuit::GND, Waveform::dc(vdd));
        base_uic.push((wd, vdd));
        base_uic.push((wdb, vdd));

        // Per-column bitline pair with wire load, precharge pull-ups and a
        // discharge-only write mux off the shared write-data lines.
        let mut bitlines = Vec::with_capacity(spec.cols);
        let mut csel_srcs = Vec::with_capacity(spec.cols);
        let mut cselb_srcs = Vec::with_capacity(spec.cols);
        for col in 0..spec.cols {
            let bl = c.node(&format!("bl{col}"));
            let blb = c.node(&format!("blb{col}"));
            c.capacitor(bl, Circuit::GND, c_bl);
            c.capacitor(blb, Circuit::GND, c_bl);
            c.transistor(
                &format!("XPC{col}A"),
                models.periph(false),
                bl,
                prech_b,
                vdd_rail,
                w_periph,
            );
            c.transistor(
                &format!("XPC{col}B"),
                models.periph(false),
                blb,
                prech_b,
                vdd_rail,
                w_periph,
            );
            let csel = c.node(&format!("csel{col}"));
            csel_srcs.push(c.vsource(&format!("CSEL{col}"), csel, Circuit::GND, Waveform::dc(0.0)));
            base_uic.push((csel, 0.0));
            let csel_b = c.node(&format!("cselb{col}"));
            cselb_srcs.push(c.vsource(
                &format!("CSELB{col}"),
                csel_b,
                Circuit::GND,
                Waveform::dc(vdd),
            ));
            base_uic.push((csel_b, vdd));
            // Complementary pass through the mux: the n legs sink the low
            // bitline into its write-data line, the p legs hold the high
            // bitline at the driver level (an n leg alone cannot — its
            // gate-source headroom vanishes at the top rail).
            c.transistor(
                &format!("XWM{col}NA"),
                models.periph(true),
                bl,
                csel,
                wd,
                w_periph,
            );
            c.transistor(
                &format!("XWM{col}NB"),
                models.periph(true),
                blb,
                csel,
                wdb,
                w_periph,
            );
            c.transistor(
                &format!("XWM{col}PA"),
                models.periph(false),
                bl,
                csel_b,
                wd,
                w_periph,
            );
            c.transistor(
                &format!("XWM{col}PB"),
                models.periph(false),
                blb,
                csel_b,
                wdb,
                w_periph,
            );
            base_uic.push((bl, vdd));
            base_uic.push((blb, vdd));
            bitlines.push((bl, blb));
        }

        // Cells, row-major, each on its row/column lines, each registered
        // as one latency partition: its six transistors, storage nodes
        // watched, adjacent shared lines guarded.
        let mut cells = Vec::with_capacity(spec.rows * spec.cols);
        let mut partitions = Vec::with_capacity(spec.rows * spec.cols);
        for (r, &wl) in wls.iter().enumerate() {
            for (col, &(bl, blb)) in bitlines.iter().enumerate() {
                let lines = CellLines {
                    bl,
                    blb,
                    wl,
                    vdd: vdd_rail,
                    vss: vss_rail,
                    rbl: None,
                    rwl: None,
                };
                let d0 = c.transistors().len();
                let placed =
                    topo.place_on_lines(&mut c, &mut models, &format!("r{r}c{col}_"), &lines);
                // An imported cell may carry internal nodes beyond q/qb
                // (read-stack midpoints, RC taps) — the partition must
                // watch them too, or the latency tier would treat a moving
                // internal node as quiescent.
                let mut watch = vec![placed.nodes.q, placed.nodes.qb];
                watch.extend(placed.internal);
                partitions.push(CellPartition {
                    devices: (d0..c.transistors().len()).collect(),
                    watch,
                    guard: vec![wl, bl, blb, vdd_rail],
                    guard_kinds: vec![
                        GuardKind::Wordline,
                        GuardKind::Bitline,
                        GuardKind::Bitline,
                        GuardKind::Rail,
                    ],
                });
                cells.push(placed.nodes);
            }
        }
        c.set_latency_partitions(partitions);

        let vdd0 = vdd;
        let compiled = CompiledCircuit::compile(c)?;
        let state = vec![(0.0, vdd0); spec.rows * spec.cols];
        Ok(ArrayNetlist {
            spec,
            topo,
            compiled,
            cells,
            wls,
            bitlines,
            sel_srcs,
            csel_srcs,
            cselb_srcs,
            wl_en_src,
            wd_src,
            wdb_src,
            base_uic,
            state,
            bound: None,
        })
    }

    /// The array specification.
    pub fn spec(&self) -> &ArraySpec {
        &self.spec
    }

    /// The compiled full-array circuit (topology inspection).
    pub fn compiled(&self) -> &CompiledCircuit {
        &self.compiled
    }

    fn idx(&self, row: usize, col: usize) -> usize {
        self.cell_index(row, col).expect("address out of range")
    }

    /// The index of the cell at `(row, col)` in row-major order, or
    /// [`SramError::InvalidParameter`] if the address is out of range.
    fn cell_index(&self, row: usize, col: usize) -> Result<usize, SramError> {
        if row < self.spec.rows && col < self.spec.cols {
            Ok(row * self.spec.cols + col)
        } else {
            Err(SramError::InvalidParameter(format!(
                "cell ({row}, {col}) is outside the {}×{} array",
                self.spec.rows, self.spec.cols
            )))
        }
    }

    /// Decodes a cell's carried bit; `None` if degraded.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn bit(&self, row: usize, col: usize) -> Option<bool> {
        let (vq, vqb) = self.state[self.idx(row, col)];
        decode(vq, vqb, self.spec.cell.vdd)
    }

    /// Overwrites one cell's carried storage voltages with clean rails —
    /// test scaffolding for preparing patterns without simulating writes.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn set_bit(&mut self, row: usize, col: usize, value: bool) {
        let vdd = self.spec.cell.vdd;
        let k = self.idx(row, col);
        self.state[k] = if value { (vdd, 0.0) } else { (0.0, vdd) };
    }

    /// Folds a transient's final cell voltages into the carried state.
    ///
    /// # Panics
    ///
    /// Panics if `finals` is not one entry per cell.
    pub fn commit(&mut self, finals: &[(f64, f64)]) {
        assert_eq!(finals.len(), self.state.len(), "one entry per cell");
        self.state.copy_from_slice(finals);
    }

    /// Rebinds the control sources for an operation on `(row, col)`:
    /// row-select leads, wordline-enable pulses, and (for writes) the
    /// addressed column's mux opens onto the write-data lines.
    fn bind_op(&mut self, row: usize, col: usize, write: Option<bool>, pulse: f64) {
        let vdd = self.spec.cell.vdd;
        let sim = self.spec.cell.sim;
        let t_bl = sim.t_settle;
        let t_wl_on = t_bl + T_WL_DELAY;
        // Reset the previously bound row/column to idle.
        if let Some((r, c)) = self.bound.take() {
            let sel = self.compiled.param(self.sel_srcs[r]);
            self.compiled.bind_wave(sel, Waveform::dc(0.0));
            let csel = self.compiled.param(self.csel_srcs[c]);
            self.compiled.bind_wave(csel, Waveform::dc(0.0));
            let cselb = self.compiled.param(self.cselb_srcs[c]);
            self.compiled.bind_wave(cselb, Waveform::dc(vdd));
        }
        let sel = self.compiled.param(self.sel_srcs[row]);
        self.compiled
            .bind_wave(sel, Waveform::step(0.0, vdd, T_SEL, sim.t_edge));
        let wl_en = self.compiled.param(self.wl_en_src);
        self.compiled.bind_wave(
            wl_en,
            Waveform::pulse(0.0, vdd, t_wl_on, pulse, sim.t_edge.min(pulse / 4.0)),
        );
        let (wd_wave, wdb_wave, csel_wave, cselb_wave) = match write {
            Some(value) => {
                // The write-data line carrying the target low level steps
                // down as the mux opens; the high side holds the rail.
                let low = |hold: bool| {
                    if hold {
                        Waveform::dc(vdd)
                    } else {
                        Waveform::step(vdd, 0.0, t_bl, sim.t_edge)
                    }
                };
                (
                    low(value),
                    low(!value),
                    Waveform::step(0.0, vdd, t_bl, sim.t_edge),
                    Waveform::step(vdd, 0.0, t_bl, sim.t_edge),
                )
            }
            None => (
                Waveform::dc(vdd),
                Waveform::dc(vdd),
                Waveform::dc(0.0),
                Waveform::dc(vdd),
            ),
        };
        let wd = self.compiled.param(self.wd_src);
        self.compiled.bind_wave(wd, wd_wave);
        let wdb = self.compiled.param(self.wdb_src);
        self.compiled.bind_wave(wdb, wdb_wave);
        let csel = self.compiled.param(self.csel_srcs[col]);
        self.compiled.bind_wave(csel, csel_wave);
        let cselb = self.compiled.param(self.cselb_srcs[col]);
        self.compiled.bind_wave(cselb, cselb_wave);
        self.bound = Some((row, col));
    }

    /// Binds an operation on `(row, col)` and returns its transient spec and
    /// initial state: the carried storage state (which is NOT mutated —
    /// fold a run's finals back with [`commit`](Self::commit)) on top of
    /// the state-independent initial conditions.
    fn prepare_op(
        &mut self,
        row: usize,
        col: usize,
        write: Option<bool>,
        pulse: f64,
    ) -> (TransientSpec, InitialState) {
        self.bind_op(row, col, write, pulse);
        let sim = &self.spec.cell.sim;
        let t_end = sim.t_settle + T_WL_DELAY + pulse + sim.t_post_write;
        // Fixed uniform grid, deliberately: adaptive step-doubling solves
        // every step at two different dt's, which changes the companion
        // conductances between consecutive solves and forces a sparse
        // refactorization per step — ruinous at array scale (the LU is the
        // single most expensive object in a 25k-device netlist). A
        // constant dt lets the modified-Newton tier reuse one
        // factorization across hundreds of steps, and makes the time grid
        // identical across latency modes and thread counts.
        let mut spec = TransientSpec::fixed(t_end, sim.dt);
        if let Some(latency) = self.spec.latency {
            spec = spec.with_device_latency(latency);
        }
        let mut uic = self.base_uic.clone();
        for (k, n) in self.cells.iter().enumerate() {
            let (vq, vqb) = self.state[k];
            uic.push((n.q, vq));
            uic.push((n.qb, vqb));
        }
        (spec, InitialState::Uic(uic))
    }

    /// Runs one operation transient from the carried state. Only the
    /// addressed column's bitline pair is recorded as a waveform — the
    /// ops read nothing else over time; the per-cell finals come from the
    /// result's full final state.
    fn run_op(
        &mut self,
        row: usize,
        col: usize,
        write: Option<bool>,
        pulse: f64,
    ) -> Result<TransientResult, SramError> {
        let _span = tfet_obs::span("array_netlist_op");
        // Annotate any forensics bundle submitted below this frame with the
        // addressed cell: a convergence failure deep in the Newton loop
        // surfaces with the failing operation's (row, col) attached.
        let _fctx = tfet_obs::forensics::context(
            "array_op",
            tfet_obs::Value::Obj(vec![
                (
                    "kind".into(),
                    tfet_obs::Value::text(match write {
                        Some(true) => "write1",
                        Some(false) => "write0",
                        None => "read",
                    }),
                ),
                ("row".into(), tfet_obs::Value::UInt(row as u64)),
                ("col".into(), tfet_obs::Value::UInt(col as u64)),
            ]),
        );
        let (spec, initial) = self.prepare_op(row, col, write, pulse);
        let (bl, blb) = self.bitlines[col];
        Ok(self.compiled.run_probed(&spec, &initial, &[], &[bl, blb])?)
    }

    fn finals(&self, result: &TransientResult) -> Vec<(f64, f64)> {
        self.cells
            .iter()
            .map(|n| (result.final_voltage(n.q), result.final_voltage(n.qb)))
            .collect()
    }

    /// Publishes the run's per-cell dormancy telemetry into the
    /// observability registry under `study`, keyed by array `(row, col)`.
    ///
    /// `decisions` and `dormant` (the replay count — every dormant decision
    /// replays the whole cell from cache) are always recorded so the
    /// exported heatmap covers the full grid; refresh causes and per-kind
    /// guard trips are recorded only when non-zero, which is still
    /// thread-count-invariant because the telemetry itself is. A no-op when
    /// observability is disabled or the run carried no partitions
    /// (latency tier off).
    fn record_partition_telemetry(&self, study: &'static str, result: &TransientResult) {
        if !tfet_obs::enabled() || result.partitions.is_empty() {
            return;
        }
        for (k, t) in result.partitions.iter().enumerate() {
            let mut metrics: Vec<(&'static str, u64)> =
                vec![("decisions", t.decisions), ("dormant", t.dormant)];
            if t.refreshes > 0 {
                metrics.push(("refreshes", t.refreshes));
            }
            if t.cold_refreshes > 0 {
                metrics.push(("refresh.cold", t.cold_refreshes));
            }
            if t.watch_refreshes > 0 {
                metrics.push(("refresh.watch", t.watch_refreshes));
            }
            for kind in GuardKind::ALL {
                let trips = t.trips(kind);
                if trips > 0 {
                    let name = match kind {
                        GuardKind::Wordline => "guard_trip.wordline",
                        GuardKind::Bitline => "guard_trip.bitline",
                        GuardKind::Rail => "guard_trip.rail",
                        GuardKind::Other => "guard_trip.other",
                    };
                    metrics.push((name, trips));
                }
            }
            tfet_obs::partition_cell(
                study,
                (k / self.spec.cols) as u32,
                (k % self.spec.cols) as u32,
                &metrics,
            );
        }
    }

    /// Simulates a write of `value` into the addressed cell with the given
    /// wordline-enable pulse width: the addressed row's driver fires, the
    /// addressed column's mux discharges one bitline, every other cell on
    /// the row is half-selected on floating precharged bitlines.
    ///
    /// # Errors
    ///
    /// [`SramError::InvalidParameter`] if the address is out of range or
    /// the pulse is not positive and finite (NaN included); simulation
    /// failures.
    pub fn write_transient(
        &mut self,
        row: usize,
        col: usize,
        value: bool,
        pulse: f64,
    ) -> Result<ArrayWrite, SramError> {
        self.cell_index(row, col)?;
        if !(pulse > 0.0 && pulse.is_finite()) {
            return Err(SramError::InvalidParameter(format!(
                "wordline pulse must be positive and finite, got {pulse:e} s"
            )));
        }
        tfet_obs::counter("array_netlist.writes", 1);
        let result = self.run_op(row, col, Some(value), pulse)?;
        self.record_partition_telemetry("array_write", &result);
        Ok(self.write_outcome(row, col, value, result))
    }

    /// Decodes a write transient: success, half-select victims, finals.
    fn write_outcome(
        &self,
        row: usize,
        col: usize,
        value: bool,
        result: TransientResult,
    ) -> ArrayWrite {
        let vdd = self.spec.cell.vdd;
        let finals = self.finals(&result);
        let victim = self.idx(row, col);
        let mut disturbed = Vec::new();
        for (k, &(vq, vqb)) in finals.iter().enumerate() {
            if k == victim {
                continue;
            }
            let (v0, v0b) = self.state[k];
            if decode(vq, vqb, vdd) != decode(v0, v0b, vdd) {
                disturbed.push((k / self.spec.cols, k % self.spec.cols));
            }
        }
        let (vq, vqb) = finals[victim];
        ArrayWrite {
            success: decode(vq, vqb, vdd) == Some(value),
            disturbed,
            finals,
            stats: result.stats,
            partitions: result.partitions,
        }
    }

    /// Simulates a read of the addressed cell: the row's driver fires for
    /// the cell's read window, all columns float at precharge, and the
    /// addressed column's differential is sensed at wordline close.
    ///
    /// # Errors
    ///
    /// [`SramError::InvalidParameter`] if the address is out of range;
    /// simulation failures.
    pub fn read_transient(&mut self, row: usize, col: usize) -> Result<ArrayRead, SramError> {
        self.cell_index(row, col)?;
        tfet_obs::counter("array_netlist.reads", 1);
        let result = self.run_op(row, col, None, self.spec.cell.sim.t_read)?;
        self.record_partition_telemetry("array_read", &result);
        Ok(self.read_outcome(col, result))
    }

    /// Decodes a read transient: the addressed column's differential at
    /// wordline close, and whether any cell was corrupted.
    fn read_outcome(&self, col: usize, result: TransientResult) -> ArrayRead {
        let vdd = self.spec.cell.vdd;
        let sim = self.spec.cell.sim;
        let t_sense = sim.t_settle + T_WL_DELAY + sim.t_read;
        let (bl, blb) = self.bitlines[col];
        let diff = result.voltage_at(bl, t_sense) - result.voltage_at(blb, t_sense);
        let finals = self.finals(&result);
        let destructive = finals
            .iter()
            .zip(&self.state)
            .any(|(&(vq, vqb), &(v0, v0b))| decode(vq, vqb, vdd) != decode(v0, v0b, vdd));
        ArrayRead {
            value: diff > 0.0,
            sense_margin: diff.abs(),
            destructive,
            finals,
            stats: result.stats,
            partitions: result.partitions,
        }
    }

    /// Critical wordline-enable pulse width for writing the opposite of
    /// the addressed cell's current bit, searched through the full array
    /// netlist (driver slew, mux discharge and half-select loading all
    /// physical). Searched on `[5·dt, max_pulse]` to `pulse_tol`
    /// resolution, exactly like the single-cell
    /// [`metrics::wl_crit`] — the analytic counterpart this engine is
    /// validated against ([`analytic_wl_crit`](Self::analytic_wl_crit)).
    ///
    /// # Errors
    ///
    /// [`SramError::InvalidParameter`] if the address is out of range;
    /// [`SramError::Undefined`] if the addressed cell holds no clean bit
    /// (its carried voltages sit between the rails), since there is no
    /// opposite value to write. Simulation failures on a decisive probe
    /// surface as [`WlCrit::Unbracketable`].
    pub fn wl_crit(&mut self, row: usize, col: usize) -> Result<WlCrit, SramError> {
        let _span = tfet_obs::span("array_wl_crit");
        self.cell_index(row, col)?;
        let Some(held) = self.bit(row, col) else {
            return Err(SramError::Undefined {
                metric: "WL_crit",
                reason: format!("cell ({row}, {col}) holds no clean bit to overwrite"),
            });
        };
        let target = !held;
        let sim = self.spec.cell.sim;
        let lo = 5.0 * sim.dt;
        let hi = sim.max_pulse;
        let th = critical_threshold_checked(lo, hi, sim.pulse_tol, |w| {
            match self.write_transient(row, col, target, w) {
                Ok(out) => Some(out.success),
                Err(_) => None,
            }
        });
        Ok(match th {
            Threshold::Critical(w) => WlCrit::Finite(w),
            Threshold::AlwaysTrue => WlCrit::Finite(lo),
            Threshold::NeverTrue => WlCrit::Infinite,
            Threshold::Unbracketable => WlCrit::Unbracketable,
        })
    }

    /// The analytic single-cell `WL_crit` prediction for this array's
    /// cell with the column's scaled bitline load — the model the
    /// netlist-level [`wl_crit`](Self::wl_crit) is compared against in the
    /// `array` validation figure.
    ///
    /// # Errors
    ///
    /// As [`metrics::wl_crit`].
    pub fn analytic_wl_crit(&self) -> Result<WlCrit, SramError> {
        let mut cell = self.spec.cell.clone();
        cell.c_bitline = self.spec.c_bitline();
        metrics::wl_crit(&cell, None)
    }

    /// Wordline node of a row (waveform inspection in tests).
    pub fn wordline(&self, row: usize) -> NodeId {
        self.wls[row]
    }

    /// Bitline pair of a column.
    pub fn bitline(&self, col: usize) -> (NodeId, NodeId) {
        self.bitlines[col]
    }

    /// Rescales one cell's transistor widths in place — fault-injection
    /// scaffolding for disturb studies. A deliberately weakened cell
    /// (oversized access devices, starved pull-downs) flips under the
    /// half-select exposure a nominal cell shrugs off, giving the disturb
    /// detectors a guaranteed positive to latch onto. Scales multiply the
    /// nominal sizing; models are rebuilt per role, so per-role process
    /// variation is preserved. Binds never touch topology, so the compiled
    /// MNA pattern and the latency partitions stay frozen.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range or a scale is not positive.
    pub fn resize_cell(&mut self, row: usize, col: usize, access_scale: f64, pulldown_scale: f64) {
        assert!(
            access_scale > 0.0 && pulldown_scale > 0.0,
            "width scales must be positive"
        );
        let k = self.idx(row, col);
        let cell = self.spec.cell.clone();
        let s = &cell.sizing;
        // The partition's device list is in topology slot (stamp) order, so
        // slot indices address the cell's devices whatever the topology.
        let d = self.compiled.circuit().latency_partitions()[k]
            .devices
            .clone();
        let w_pd = s.w_pulldown_um() * pulldown_scale;
        let w_ax = s.w_access_um * access_scale;
        for slot in self.topo.slots() {
            let w = match slot.role {
                Role::PullDownLeft | Role::PullDownRight => w_pd,
                Role::AccessLeft | Role::AccessRight => w_ax,
                _ => continue,
            };
            self.compiled
                .bind_device(d[slot.index], cell.model(slot.role, slot.n_type), w);
        }
    }
}

/// Decodes a storage-node pair into a bit; `None` if the separation is
/// below half the supply (degraded).
fn decode(vq: f64, vqb: f64, vdd: f64) -> Option<bool> {
    let sep = vq - vqb;
    if sep > 0.5 * vdd {
        Some(true)
    } else if sep < -0.5 * vdd {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::AccessConfig;

    fn array() -> ArrayNetlist {
        let mut cell = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
        cell.sim.dt = 4e-12;
        let mut a = ArrayNetlist::build(ArraySpec::new(8, 8, cell)).unwrap();
        for k in 0..64 {
            a.set_bit(k / 8, k % 8, k % 3 == 0);
        }
        a
    }

    fn bits(finals: &[(f64, f64)]) -> Vec<(u64, u64)> {
        finals
            .iter()
            .map(|&(q, qb)| (q.to_bits(), qb.to_bits()))
            .collect()
    }

    fn small_array() -> ArrayNetlist {
        let mut cell = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
        cell.sim.dt = 4e-12;
        ArrayNetlist::build(ArraySpec::new(2, 2, cell)).unwrap()
    }

    /// A committed write can leave a cell between the rails; `WL_crit` of
    /// that cell has no opposite bit to write and refuses with a typed
    /// error.
    #[test]
    fn wl_crit_of_a_degraded_cell_is_undefined() {
        let mut a = small_array();
        let vdd = a.spec().cell.vdd;
        let mid = 0.5 * vdd;
        a.commit(&[(vdd, 0.0), (mid, mid - 0.01), (0.0, vdd), (vdd, 0.0)]);
        assert_eq!(a.bit(0, 1), None);
        assert!(matches!(
            a.wl_crit(0, 1),
            Err(SramError::Undefined {
                metric: "WL_crit",
                ..
            })
        ));
    }

    #[test]
    fn write_with_a_bad_pulse_is_an_invalid_parameter() {
        let mut a = small_array();
        for pulse in [f64::NAN, 0.0, -1e-9, f64::INFINITY] {
            assert!(matches!(
                a.write_transient(0, 0, false, pulse),
                Err(SramError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn out_of_range_address_is_an_invalid_parameter() {
        let mut a = small_array();
        for (row, col) in [(2, 0), (0, 2)] {
            let invalid =
                |r: Result<(), SramError>| matches!(r, Err(SramError::InvalidParameter(_)));
            assert!(invalid(a.write_transient(row, col, true, 1e-9).map(drop)));
            assert!(invalid(a.read_transient(row, col).map(drop)));
            assert!(invalid(a.wl_crit(row, col).map(drop)));
        }
    }

    /// Every cell of the array shares one model per (role, polarity) and the
    /// periphery one per polarity; resizing a cell rebinds its own devices
    /// and nothing else.
    #[test]
    fn devices_share_models_and_resize_rebinds_one_cell() {
        use std::sync::Arc;
        let mut a = array();
        // (model allocation, width) of every device.
        let devices = |a: &ArrayNetlist| {
            a.compiled
                .circuit()
                .transistors()
                .iter()
                .map(|m| (Arc::as_ptr(&m.model).cast::<()>(), m.width_um.to_bits()))
                .collect::<Vec<_>>()
        };
        let before = devices(&a);
        let distinct = |d: &[(*const (), u64)]| {
            let mut p: Vec<_> = d.iter().map(|&(p, _)| p).collect();
            p.sort_unstable();
            p.dedup();
            p.len()
        };
        assert!(before.len() > 6 * 64, "{} devices", before.len());
        assert!(
            distinct(&before) <= Role::ALL.len() * 2 + 2,
            "{} distinct models",
            distinct(&before)
        );

        let (row, col) = (3, 6);
        let own = a.compiled.circuit().latency_partitions()[row * 8 + col]
            .devices
            .clone();
        a.resize_cell(row, col, 2.0, 0.5);
        let after = devices(&a);
        for (k, (b, n)) in before.iter().zip(&after).enumerate() {
            if !own.contains(&k) {
                assert_eq!(b, n, "device {k} outside the resized cell changed");
            }
        }
        let resized = a.topo.slots().iter().filter(|slot| {
            matches!(
                slot.role,
                Role::PullDownLeft | Role::PullDownRight | Role::AccessLeft | Role::AccessRight
            )
        });
        for slot in resized {
            let k = own[slot.index];
            assert_ne!(before[k].1, after[k].1, "device {k} kept its width");
        }
    }

    /// The ops record only the sense pair; decoding the same operation
    /// from a full recording must give the same outcome, bit for bit.
    #[test]
    fn sense_pair_recording_matches_full_recording() {
        let (row, col) = (5, 2);
        let value = !array().bit(row, col).unwrap();
        let mut probed = array();
        let mut full = array();

        let w = probed.write_transient(row, col, value, 1.5e-9).unwrap();
        let (spec, initial) = full.prepare_op(row, col, Some(value), 1.5e-9);
        let result = full.compiled.run(&spec, &initial, &[]).unwrap();
        let w_full = full.write_outcome(row, col, value, result);
        assert!(w.success && w.disturbed.is_empty());
        assert_eq!(bits(&w.finals), bits(&w_full.finals));
        assert_eq!(w.disturbed, w_full.disturbed);
        assert_eq!(w.stats, w_full.stats);
        assert_eq!(w.partitions, w_full.partitions);
        assert_eq!(w.partitions.len(), 64);
        probed.commit(&w.finals);
        full.commit(&w_full.finals);

        let r = probed.read_transient(row, col).unwrap();
        let sim = full.spec.cell.sim;
        let (spec, initial) = full.prepare_op(row, col, None, sim.t_read);
        let result = full.compiled.run(&spec, &initial, &[]).unwrap();
        let r_full = full.read_outcome(col, result);
        assert_eq!(r.value, value);
        assert_eq!(r.value, r_full.value);
        assert_eq!(r.sense_margin.to_bits(), r_full.sense_margin.to_bits());
        assert_eq!(r.destructive, r_full.destructive);
        assert_eq!(bits(&r.finals), bits(&r_full.finals));
        assert_eq!(r.stats, r_full.stats);
        assert_eq!(r.partitions, r_full.partitions);
    }
}
