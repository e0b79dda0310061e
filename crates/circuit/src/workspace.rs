//! Reusable solver buffers for repeated Newton solves.
//!
//! A transient run performs one damped Newton solve per time step, and a
//! Monte-Carlo study performs thousands of transient runs. Before this
//! module every Newton call allocated its Jacobian, residual and update
//! vectors, and every iteration allocated an LU factorization — hundreds of
//! small heap allocations per time step that dominated the profile for the
//! ≤ ~20-unknown SRAM systems this workspace solves.
//!
//! [`NewtonWorkspace`] owns all of those buffers plus the transient
//! integrator's companion-model scratch. A workspace serves one circuit for
//! its whole life: it is built for that circuit's MNA, which fixes its
//! sparsity pattern, so nothing keys its state on the circuit at run time.
//! One owner holds a workspace across runs: each
//! [`CompiledCircuit`](crate::compiled::CompiledCircuit), so a worker
//! sweeping Monte-Carlo samples on its compiled cell performs O(1)
//! allocations for the whole sweep. A one-shot solve
//! ([`Circuit::transient`](crate::netlist::Circuit::transient),
//! [`Circuit::dc_op`](crate::netlist::Circuit::dc_op)) builds one of its own
//! and drops it on return.

use crate::dc::max_abs;
use crate::latency::LatencyState;
use crate::mna::{CompanionCaps, DeviceLin, IncrementalJac, Mna, PlanJac, RecordJac};
use crate::transient::CapTable;
use tfet_numerics::matrix::LuWorkspace;
use tfet_numerics::{Matrix, SparseLu, SparseMatrix};

/// Fixed capacity of [`SolverBufs::res_history`], reserved once when the
/// buffers are first sized so per-iteration pushes can never reallocate
/// (the counting-allocator regression pins step-count-independent allocs).
/// Larger than the default Newton iteration limit (200), so a full history
/// is kept for any default-configured solve.
pub(crate) const RES_HISTORY_CAP: usize = 256;

/// Buffers for one damped-Newton solve: Jacobian, residual, negated RHS,
/// update vector, and the LU factorization workspace — plus lifetime
/// counters of solver effort (solves started, iterations performed) that
/// the transient engine snapshots to report per-run statistics.
#[derive(Debug)]
pub(crate) struct SolverBufs {
    /// The dense path's Jacobian, empty until a dense solve sizes it
    /// ([`Self::ensure_dense`]).
    pub(crate) j: Matrix,
    pub(crate) f: Vec<f64>,
    pub(crate) rhs: Vec<f64>,
    pub(crate) dx: Vec<f64>,
    /// Mat-vec scratch for the reused-factor consistency check
    /// ([`Self::sparse_update_consistent`]).
    pub(crate) scratch: Vec<f64>,
    pub(crate) lu: LuWorkspace,
    /// Newton solves started since this workspace was created (monotone;
    /// consumers measure effort by differencing snapshots).
    pub(crate) newton_solves: u64,
    /// Newton iterations (Jacobian assemblies + LU factorizations) since
    /// this workspace was created.
    pub(crate) newton_iters: u64,
    /// Residual infinity-norm after each iteration of the most recent
    /// Newton attempt (cleared per attempt; capped at
    /// [`RES_HISTORY_CAP`]). Feeds [`SimError::NoConvergence`]'s
    /// `residual_norm` and the failure-forensics bundle.
    ///
    /// [`SimError::NoConvergence`]: crate::SimError::NoConvergence
    pub(crate) res_history: Vec<f64>,
    /// Sparse solver state (pattern-backed Jacobian + factorization engine),
    /// built with the buffers for their one circuit; its symbolic analysis
    /// runs on the first sparse factorization and serves every later one.
    pub(crate) sparse: SparseState,
    /// Per-transistor linearization cache for device-evaluation bypass
    /// (sparse strategy only; invalidated at every run entry and rebind).
    pub(crate) device_cache: Vec<DeviceLin>,
    /// Per-transistor linearizations recorded by assemblies that run
    /// without bypass (DC solves, latency off, the dense path), for the
    /// Jacobian pass to stamp from. Kept apart from `device_cache` so those
    /// solves never seed or overwrite bypass entries.
    pub(crate) lins: Vec<DeviceLin>,
    /// Quiescent-partition latency state, built on first sparse solve of a
    /// circuit with registered partitions and rebuilt only when the shard
    /// bounds change; `None` for unpartitioned circuits.
    pub(crate) latency: Option<LatencyState>,
    /// Jacobian factorizations performed (dense or sparse; monotone).
    pub(crate) jac_refactored: u64,
    /// Newton iterations that reused a previous factorization (monotone).
    pub(crate) jac_reused: u64,
    /// Full transistor model evaluations during assembly (monotone).
    pub(crate) device_evals: u64,
    /// Transistor stamps served from the bypass cache (monotone).
    pub(crate) devices_bypassed: u64,
    /// Sparse symbolic analyses performed (monotone).
    pub(crate) sparse_analyses: u64,
    /// Sparse triangular solves performed (monotone).
    pub(crate) sparse_solves: u64,
    /// Transistor stamps replayed for devices inside a dormant latency
    /// partition (monotone).
    pub(crate) devices_dormant: u64,
    /// Latency partitions refreshed — all member devices re-evaluated in
    /// one assembly (monotone).
    pub(crate) cells_refreshed: u64,
    /// Partition refreshes forced by guard-node movement alone (monotone).
    pub(crate) guard_refreshes: u64,
}

/// Sparse linear-solve state: the pattern-backed Jacobian the MNA stamps
/// into, the analyze-once/refactorize-many LU engine, and the validity flag
/// driving modified-Newton factorization reuse.
#[derive(Debug)]
pub(crate) struct SparseState {
    pub(crate) jac: SparseMatrix,
    pub(crate) lu: SparseLu,
    /// True while the stored factors correspond to a recent `gmin = 0`
    /// Jacobian of this topology — the precondition for modified-Newton
    /// reuse. Cleared at run entry, on rebind, after gmin-laddered solves,
    /// and on factorization failure.
    pub(crate) factor_valid: bool,
    /// Incremental assembly state for the latency-tier transient path
    /// ([`Mna::assemble_sparse_latent`]): linear/transistor value split and
    /// per-device stamp slots over `jac`'s pattern.
    pub(crate) inc: IncrementalJac,
    /// Whether the Jacobian lags the latest assembly, and how to bring it
    /// up to date. Newton assemblies write only the residual (and the split
    /// or the linearizations the Jacobian is made from); the two readers
    /// ([`SolverBufs::sparse_refactor`],
    /// [`SolverBufs::sparse_update_consistent`]) rebuild it first, so an
    /// iteration that reuses a factorization never stamps a Jacobian.
    pub(crate) stale: JacStale,
    /// Where the up-to-date Jacobian's values live: `inc.composed` after a
    /// composition, `jac` after a stamp. The readers read them in place.
    pub(crate) composed: bool,
    /// The slot of every add of the latest recorded [`Mna::stamp_jacobian`]
    /// pass into `jac`, in stamp order ([`RecordJac`]): later passes with
    /// the same [`StampKey`] replay it ([`PlanJac`]) instead of searching.
    plan: Vec<u32>,
    /// The stamp sequence `plan` was recorded for; `None` before the first.
    plan_key: Option<StampKey>,
}

/// What fixes the sequence of `(row, col)` adds [`Mna::stamp_jacobian`]
/// makes, besides the circuit the state is built for: the companion list's
/// layout stamp (`None` without companions, in DC) and whether g_min is
/// stamped. The stamps' values play no part.
type StampKey = (Option<u64>, bool);

impl SparseState {
    /// Sparse state for `mna`'s circuit: its sparsity pattern (two walks of
    /// [`Mna::for_each_jacobian_entry`]) and the incremental split over it.
    fn new(mna: &Mna<'_>) -> Self {
        let pattern = mna.sparsity_pattern();
        let inc = IncrementalJac::build(mna, &pattern);
        SparseState {
            jac: SparseMatrix::new(pattern),
            lu: SparseLu::new(),
            factor_valid: false,
            inc,
            stale: JacStale::No,
            composed: false,
            plan: Vec::new(),
            plan_key: None,
        }
    }

    /// Runs the symbolic analysis on the up-to-date Jacobian, written into
    /// `jac` first when it lives in `inc.composed`.
    fn analyze(&mut self) -> Result<(), tfet_numerics::matrix::SolveError> {
        if self.composed {
            for (v, c) in self
                .jac
                .values_mut()
                .iter_mut()
                .zip(self.inc.composed.iter())
            {
                *v = c;
            }
        }
        self.lu.analyze(&self.jac)
    }
}

/// How a stale [`SparseState::jac`] is rebuilt before it is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JacStale {
    /// `jac` holds the Jacobian of the latest assembly.
    No,
    /// Compose the latency tier's linear + transistor split
    /// ([`IncrementalJac::compose`]).
    Compose,
    /// Stamp it from the linearizations the latest residual pass recorded
    /// ([`Mna::stamp_jacobian`]).
    Stamp,
}

/// The system the latest sparse residual pass assembled: what a reader
/// needs to stamp its Jacobian ([`JacStale::Stamp`]). `x` is not needed —
/// the pass recorded every bias-dependent entry in the linearizations.
#[derive(Debug)]
pub(crate) struct JacSource<'a, 'c> {
    pub(crate) mna: &'a Mna<'c>,
    pub(crate) gmin: f64,
    pub(crate) caps: Option<&'a CompanionCaps>,
    /// The pass used the bypass cache: its linearizations are in
    /// [`SolverBufs::device_cache`], otherwise in [`SolverBufs::lins`].
    pub(crate) bypass: bool,
}

impl SolverBufs {
    /// Empty buffers for solves of `mna`'s circuit, its sparse state built
    /// now ([`SparseState::new`]); every other buffer is sized on first use.
    pub(crate) fn new(mna: &Mna<'_>) -> Self {
        SolverBufs {
            j: Matrix::zeros(0, 0),
            f: Vec::new(),
            rhs: Vec::new(),
            dx: Vec::new(),
            scratch: Vec::new(),
            lu: LuWorkspace::default(),
            newton_solves: 0,
            newton_iters: 0,
            res_history: Vec::new(),
            sparse: SparseState::new(mna),
            device_cache: Vec::new(),
            lins: Vec::new(),
            latency: None,
            jac_refactored: 0,
            jac_reused: 0,
            device_evals: 0,
            devices_bypassed: 0,
            sparse_analyses: 0,
            sparse_solves: 0,
            devices_dormant: 0,
            cells_refreshed: 0,
            guard_refreshes: 0,
        }
    }

    /// Sizes every buffer but the dense Jacobian ([`Self::ensure_dense`])
    /// for an `n`-unknown system with `devices` transistors; a no-op when
    /// already at that size.
    pub(crate) fn ensure(&mut self, n: usize, devices: usize) {
        self.device_cache.resize(devices, DeviceLin::default());
        self.lins.resize(devices, DeviceLin::default());
        if self.f.len() != n {
            self.f = vec![0.0; n];
            self.rhs = vec![0.0; n];
            self.dx = vec![0.0; n];
            self.scratch = vec![0.0; n];
            if self.res_history.capacity() < RES_HISTORY_CAP {
                self.res_history
                    .reserve_exact(RES_HISTORY_CAP - self.res_history.len());
            }
        }
    }

    /// Sizes the dense Jacobian for an `n`-unknown system; a no-op when
    /// already at that size. Only the dense path reads it: sparse solves
    /// leave it empty, where its n² values would take gigabytes at array
    /// scale.
    pub(crate) fn ensure_dense(&mut self, n: usize) {
        if self.j.rows() != n {
            self.j = Matrix::zeros(n, n);
        }
    }

    /// Invalidates every state-carrying cache: the device-bypass
    /// linearizations (the latency tier's included) and the modified-Newton
    /// factor validity. Called at every run/DC entry and on parameter
    /// rebinds, so stale operating points or factors can never leak across
    /// runs or bindings.
    pub(crate) fn invalidate_caches(&mut self) {
        for e in &mut self.device_cache {
            e.valid = false;
        }
        self.sparse.factor_valid = false;
        if let Some(l) = &mut self.latency {
            l.invalidate();
        }
    }

    /// Ensures latency-tier state for `mna`'s circuit exists: `None` when
    /// the circuit registered no partitions (the overwhelmingly common case
    /// — a cheap emptiness check and no allocation), otherwise built or
    /// rebuilt only when the sharding changed — one shard per chunk of the
    /// analysis's helper pool, one without a pool, and the assembly thread
    /// count may change between runs — so runs at one count (sweeps,
    /// bisection searches) keep their state across solves.
    pub(crate) fn ensure_latency(&mut self, mna: &Mna<'_>) {
        let circuit = mna.circuit();
        if circuit.latency_partitions().is_empty() {
            self.latency = None;
            return;
        }
        let serial = [0, circuit.transistors().len()];
        let bounds = mna.pool().map_or(&serial[..], |p| &p.devices);
        if self.latency.as_ref().is_some_and(|l| l.fits(bounds)) {
            return;
        }
        self.latency = Some(LatencyState::build(circuit, bounds));
    }

    /// Brings [`SparseState::jac`] up to date with the latest assembly of
    /// `src` — a no-op unless it is [`stale`](SparseState::stale). Neither
    /// `x` nor the linearizations changed since that assembly, so the
    /// result is the Jacobian an eager assembly would have written.
    pub(crate) fn fresh_jacobian(&mut self, src: &JacSource<'_, '_>) {
        let s = &mut self.sparse;
        match std::mem::replace(&mut s.stale, JacStale::No) {
            JacStale::No => {}
            JacStale::Compose => {
                s.inc.compose(src.mna.pool());
                s.composed = true;
            }
            JacStale::Stamp => {
                let lins = if src.bypass {
                    &self.device_cache
                } else {
                    &self.lins
                };
                let (mna, gmin, caps) = (src.mna, src.gmin, src.caps);
                let key = (caps.map(CompanionCaps::layout), gmin > 0.0);
                if s.plan_key == Some(key) {
                    let mut j = PlanJac {
                        jac: &mut s.jac,
                        plan: s.plan.iter(),
                    };
                    mna.stamp_jacobian(gmin, caps, lins, &mut j);
                    assert!(
                        j.plan.as_slice().is_empty(),
                        "stamp plan longer than its pass"
                    );
                } else {
                    // Keyless while recording: a pass that panics midway
                    // leaves no partial plan to replay.
                    s.plan_key = None;
                    let mut j = RecordJac {
                        jac: &mut s.jac,
                        plan: &mut s.plan,
                    };
                    mna.stamp_jacobian(gmin, caps, lins, &mut j);
                    s.plan_key = Some(key);
                }
                s.composed = false;
            }
        }
    }

    /// (Re)factorizes the Jacobian of the latest assembly of `src` (brought
    /// up to date first, [`Self::fresh_jacobian`]): symbolic analysis on
    /// first use (or as a one-shot pivot-order refresh after a
    /// refactorization failure), the zero-alloc numeric replay otherwise.
    /// `gmin_zero` gates whether the resulting factors are eligible for
    /// modified-Newton reuse.
    pub(crate) fn sparse_refactor(
        &mut self,
        gmin_zero: bool,
        src: &JacSource<'_, '_>,
    ) -> Result<(), tfet_numerics::matrix::SolveError> {
        self.fresh_jacobian(src);
        self.jac_refactored += 1;
        // No child spans for the analyze/replay split: each worker's
        // workspace analyzes lazily on first use, so the split is
        // scheduling-dependent — only the total (this span) belongs in the
        // deterministic span tree. `solver.sparse_analyses` lives in the
        // report's `work` section for the same reason.
        let _span = tfet_obs::span("refactor");
        let mut analyses = 0u64;
        let s = &mut self.sparse;
        let r = if !s.lu.is_analyzed() {
            analyses += 1;
            s.analyze()
        } else {
            let refactored = if s.composed {
                let composed = &s.inc.composed;
                s.lu.refactorize_with(s.jac.pattern(), |k| composed.get(k))
            } else {
                s.lu.refactorize(&s.jac)
            };
            match refactored {
                Ok(()) => Ok(()),
                Err(_) => {
                    analyses += 1;
                    s.analyze()
                }
            }
        };
        s.factor_valid = r.is_ok() && gmin_zero;
        self.sparse_analyses += analyses;
        r
    }

    /// Validates a Newton update computed from a *reused* factorization
    /// against the Jacobian of the latest assembly of `src` (brought up to
    /// date first, [`Self::fresh_jacobian`]): the linear solve is accepted
    /// only when `‖J·dx + f‖∞ ≤ 0.1·‖f‖∞`, i.e. the stale factor still
    /// solves the current system to within 10%. One sparse mat-vec — cheap
    /// relative to even a single device evaluation.
    ///
    /// This is what makes factor reuse *safe* rather than heuristic: a
    /// factor carried across a step-size change (companion `C/Δt` terms
    /// moved) or from a synthetic system (the UIC hold solve pins every
    /// node with a huge conductance) produces updates that pass the
    /// `|Δv| < v_tol` test vacuously while solving the wrong system. The
    /// check catches exactly that and forces a refactorization.
    pub(crate) fn sparse_update_consistent(&mut self, src: &JacSource<'_, '_>) -> bool {
        self.fresh_jacobian(src);
        let s = &self.sparse;
        if s.composed {
            let composed = &s.inc.composed;
            (s.jac.pattern()).mul_vec_with(|k| composed.get(k), &self.dx, &mut self.scratch);
        } else {
            s.jac.mul_vec(&self.dx, &mut self.scratch);
        }
        for (r, v) in self.scratch.iter_mut().zip(&self.f) {
            *r += v;
        }
        // NaN in either norm fails the check (`max_abs` keeps it).
        let err = max_abs(&self.scratch);
        let fmax = max_abs(&self.f);
        err <= 0.1 * fmax + 1e-30
    }
}

/// Number of `(time, step)` entries [`StepTrace`] retains.
pub(crate) const STEP_TRACE_CAP: usize = 64;

/// Fixed-size ring buffer of the transient engine's most recent step
/// attempts — `(target time, signed step)` with rejected trials carrying a
/// negative step. Recording is two stores and an index update, cheap enough
/// to stay on unconditionally; the buffer is only read (and only allocates,
/// via `to_vec`) on the failure-forensics path.
#[derive(Debug, Clone)]
pub(crate) struct StepTrace {
    entries: [(f64, f64); STEP_TRACE_CAP],
    head: usize,
    len: usize,
}

impl Default for StepTrace {
    fn default() -> Self {
        StepTrace {
            entries: [(0.0, 0.0); STEP_TRACE_CAP],
            head: 0,
            len: 0,
        }
    }
}

impl StepTrace {
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Records one step attempt: `h > 0` accepted, `h < 0` rejected at
    /// `|h|`.
    pub(crate) fn record(&mut self, t: f64, h: f64) {
        self.entries[self.head] = (t, h);
        self.head = (self.head + 1) % STEP_TRACE_CAP;
        self.len = (self.len + 1).min(STEP_TRACE_CAP);
    }

    /// The retained attempts in chronological order (oldest first).
    pub(crate) fn to_vec(&self) -> Vec<(f64, f64)> {
        let start = (self.head + STEP_TRACE_CAP - self.len) % STEP_TRACE_CAP;
        (0..self.len)
            .map(|i| self.entries[(start + i) % STEP_TRACE_CAP])
            .collect()
    }
}

/// Reusable scratch space for the DC and transient solves of one circuit.
///
/// All buffers grow on first use and are retained across calls, so repeated
/// solves of the circuit — the shape of every sweep and Monte-Carlo loop in
/// this workspace — run allocation-free after warm-up. A
/// [`CompiledCircuit`](crate::compiled::CompiledCircuit) owns one for its
/// whole life; a one-shot solve builds one and drops it.
#[derive(Debug)]
pub(crate) struct NewtonWorkspace {
    pub(crate) bufs: SolverBufs,
    /// Snapshot of the initial guess that the g_min ladder anchors to.
    pub(crate) anchor: Vec<f64>,
    /// Companion-model capacitor stamps for the current transient step,
    /// laid out over the capacitor table's branches.
    pub(crate) companions: CompanionCaps,
    /// The running transient's capacitor table (values at the step start
    /// and at an adaptive trial's midpoint).
    pub(crate) caps: CapTable,
    /// Coarse (single full-step) solution of an adaptive trial step.
    pub(crate) x_coarse: Vec<f64>,
    /// Fine (two half-steps) solution of an adaptive trial step.
    pub(crate) x_fine: Vec<f64>,
    /// Sorted source-edge times for the adaptive breakpoint schedule.
    pub(crate) breakpoints: Vec<f64>,
    /// Ring buffer of the most recent transient step attempts, read by the
    /// failure-forensics path.
    pub(crate) step_trace: StepTrace,
}

impl NewtonWorkspace {
    /// A workspace for the solves of `mna`'s circuit, and of no other
    /// ([`SolverBufs::new`]).
    pub(crate) fn new(mna: &Mna<'_>) -> Self {
        NewtonWorkspace {
            bufs: SolverBufs::new(mna),
            anchor: Vec::new(),
            companions: CompanionCaps::default(),
            caps: CapTable::default(),
            x_coarse: Vec::new(),
            x_fine: Vec::new(),
            breakpoints: Vec::new(),
            step_trace: StepTrace::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Circuit, NodeId};
    use crate::transient::{InitialState, TransientSpec};
    use crate::waveform::Waveform;
    use crate::SolverStrategy;
    use std::sync::Arc;
    use tfet_devices::{NTfet, PTfet};

    /// A TFET latch written through a resistor from a pulsed source.
    fn latch() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let q = c.node("q");
        let qb = c.node("qb");
        let d = c.node("d");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
        c.vsource(
            "D",
            d,
            Circuit::GND,
            Waveform::pulse(0.8, 0.0, 0.1e-9, 0.2e-9, 20e-12),
        );
        c.transistor("PL", Arc::new(PTfet::nominal()), q, qb, vdd, 0.1);
        c.transistor("NL", Arc::new(NTfet::nominal()), q, qb, Circuit::GND, 0.1);
        c.transistor("PR", Arc::new(PTfet::nominal()), qb, q, vdd, 0.1);
        c.transistor("NR", Arc::new(NTfet::nominal()), qb, q, Circuit::GND, 0.1);
        c.resistor(d, q, 20e3);
        c.capacitor(q, Circuit::GND, 1e-15);
        c.capacitor(qb, Circuit::GND, 1e-15);
        c
    }

    /// A deferred Jacobian — the residual pass now, the Jacobian pass only
    /// when a reader asks for the matrix — is the eager full assembly, bit
    /// for bit: the same residual, every Jacobian value, the same bypass
    /// cache and the same effort counts. Checked on a TFET latch and on the
    /// golden 6T write deck, with a warm bypass cache that serves some
    /// devices and re-evaluates the others, with and without g_min.
    #[test]
    fn deferred_jacobian_equals_eager_assembly_bit_for_bit() {
        let deck = crate::Deck::parse(
            include_str!("../tests/golden/write_6t.sp"),
            &tfet_devices::standard_models(),
        )
        .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let lin_bits = |l: &[DeviceLin]| {
            l.iter()
                .map(|e| {
                    let v = [e.vg, e.vd, e.vs, e.i, e.gm, e.gds, e.gss];
                    (e.valid, v.map(f64::to_bits))
                })
                .collect::<Vec<_>>()
        };
        // (circuit, the node moved outside the bypass window)
        for (c, moved) in [(latch(), "vdd"), (deck.circuit, "bl")] {
            let mna = Mna::new(&c).unwrap();
            let (n, n_v) = (mna.unknown_count(), mna.voltage_count());
            let caps = CompanionCaps::from_branches(
                (1..=n_v).map(|k| (NodeId(k), Circuit::GND, 1e-4 * k as f64, -1e-6)),
            );
            let x0: Vec<f64> = (0..n)
                .map(|k| if k < n_v { 0.05 * k as f64 } else { 1e-6 })
                .collect();
            let mut bufs = SolverBufs::new(&mna);
            bufs.ensure(n, c.transistors().len());
            let moved = c.find_node(moved).unwrap().index() - 1;
            let x: Vec<f64> = x0
                .iter()
                .enumerate()
                .map(|(k, v)| v + if k == moved { 10e-3 } else { 50e-6 })
                .collect();
            for (gmin, anchor) in [(0.0, None), (1e-6, Some(x0.as_slice()))] {
                // Warm the cache at x0, then move one node by 10 mV and every
                // other by 50 µV: the devices on the moved node are evaluated,
                // the rest are served from the cache.
                mna.assemble_residual(
                    &x0,
                    0.0,
                    0.0,
                    None,
                    Some(&caps),
                    &mut bufs.f,
                    &mut bufs.device_cache,
                    true,
                );
                let mut eager_jac = SparseMatrix::new(bufs.sparse.jac.pattern().clone());
                let mut eager_f = vec![0.0; n];
                let mut eager_cache = bufs.device_cache.clone();
                let eager = mna.assemble_into(
                    &x,
                    0.0,
                    gmin,
                    anchor,
                    Some(&caps),
                    &mut eager_jac,
                    &mut eager_f,
                    &mut eager_cache,
                    true,
                );
                assert!(eager.evals > 0 && eager.bypassed > 0, "{eager:?}");

                let deferred = mna.assemble_residual(
                    &x,
                    0.0,
                    gmin,
                    anchor,
                    Some(&caps),
                    &mut bufs.f,
                    &mut bufs.device_cache,
                    true,
                );
                let s = &mut bufs.sparse;
                s.jac.values_mut().fill(f64::NAN);
                s.stale = JacStale::Stamp;
                let src = JacSource {
                    mna: &mna,
                    gmin,
                    caps: Some(&caps),
                    bypass: true,
                };
                bufs.fresh_jacobian(&src);
                let s = &mut bufs.sparse;
                assert_eq!(s.stale, JacStale::No);
                assert_eq!(deferred, eager);
                assert_eq!(bits(&bufs.f), bits(&eager_f));
                assert_eq!(bits(s.jac.values()), bits(eager_jac.values()));
                assert_eq!(lin_bits(&bufs.device_cache), lin_bits(&eager_cache));
                // A fresh Jacobian is not stamped again.
                s.jac.values_mut()[0] = f64::NAN;
                bufs.fresh_jacobian(&src);
                assert!(bufs.sparse.jac.values()[0].is_nan());
            }
        }
    }

    /// One sparse Jacobian pass of `mna` through `bufs`' stamp plan, at a
    /// bias set by `pass`: asserts it equals the slot-searched pass bit for
    /// bit and returns whether it replayed the plan (rather than recording
    /// it).
    fn planned_pass(
        bufs: &mut SolverBufs,
        mna: &Mna<'_>,
        gmin: f64,
        caps: Option<&CompanionCaps>,
        pass: usize,
    ) -> bool {
        let (n, n_v) = (mna.unknown_count(), mna.voltage_count());
        bufs.ensure(n, mna.circuit().transistors().len());
        let x: Vec<f64> = (0..n)
            .map(|i| {
                if i < n_v {
                    0.05 * i as f64 + 0.1 * pass as f64
                } else {
                    1e-6
                }
            })
            .collect();
        mna.assemble_residual(
            &x,
            0.0,
            gmin,
            None,
            caps,
            &mut bufs.f,
            &mut bufs.lins,
            false,
        );
        let s = &mut bufs.sparse;
        let key = s.plan_key;
        s.jac.values_mut().fill(f64::NAN);
        s.stale = JacStale::Stamp;
        let src = JacSource {
            mna,
            gmin,
            caps,
            bypass: false,
        };
        bufs.fresh_jacobian(&src);
        let s = &bufs.sparse;
        assert!(s.plan_key.is_some());
        let mut searched = SparseMatrix::new(s.jac.pattern().clone());
        mna.stamp_jacobian(gmin, caps, &bufs.lins, &mut searched);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(s.jac.values()), bits(searched.values()));
        s.plan_key == key
    }

    /// A Jacobian pass through the recorded stamp plan is the slot-searched
    /// pass, bit for bit, for every stamp sequence a solve makes — DC
    /// without companions, g_min rungs, a UIC hold list, transient
    /// companions — whether it records the plan or replays it, and across
    /// switches between sequences.
    #[test]
    fn planned_stamps_equal_searched_stamps_bit_for_bit() {
        let deck = crate::Deck::parse(
            include_str!("../tests/golden/write_6t.sp"),
            &tfet_devices::standard_models(),
        )
        .unwrap();
        for c in [latch(), deck.circuit] {
            let mna = Mna::new(&c).unwrap();
            let n_v = mna.voltage_count();
            // The hold list pins every node to ground, as the transient's
            // UIC hold solve does; the companions cover the same slots in
            // the opposite order, so neither's plan fits the other.
            let hold = CompanionCaps::from_branches(
                (1..=n_v).map(|k| (NodeId(k), Circuit::GND, 1e3, -1e3 * 0.1 * k as f64)),
            );
            let companions = CompanionCaps::from_branches(
                (1..=n_v)
                    .rev()
                    .map(|k| (NodeId(k), Circuit::GND, 1e-4 * k as f64, -1e-6)),
            );
            let cases = [
                (0.0, None),
                (1e-6, None),
                (1e-8, Some(&hold)),
                (0.0, Some(&hold)),
                (0.0, Some(&companions)),
                (1e-8, Some(&companions)),
                (0.0, Some(&companions)),
                (0.0, None),
            ];
            let mut bufs = SolverBufs::new(&mna);
            for (k, &(gmin, caps)) in cases.iter().enumerate() {
                // Record (the key changed), then replay at another bias.
                for pass in 0..2 {
                    let replayed = planned_pass(&mut bufs, &mna, gmin, caps, pass);
                    assert_eq!(replayed, pass == 1, "case {k} pass {pass}");
                }
            }
        }
    }

    #[test]
    fn ensure_is_idempotent_at_fixed_size() {
        let c = latch();
        let mut bufs = SolverBufs::new(&Mna::new(&c).unwrap());
        bufs.ensure(5, 3);
        let ptrs = (
            bufs.f.as_ptr(),
            bufs.lins.as_ptr(),
            bufs.device_cache.as_ptr(),
        );
        bufs.ensure(5, 3);
        assert_eq!(
            (
                bufs.f.as_ptr(),
                bufs.lins.as_ptr(),
                bufs.device_cache.as_ptr()
            ),
            ptrs,
            "same-size ensure must not reallocate"
        );
        bufs.ensure(7, 4);
        assert_eq!(bufs.f.len(), 7);
        assert_eq!((bufs.lins.len(), bufs.device_cache.len()), (4, 4));
    }

    /// Only the dense path sizes the dense Jacobian: a sparse solve leaves
    /// it empty, and a dense solve of the same circuit sizes it.
    #[test]
    fn only_the_dense_path_sizes_the_dense_jacobian() {
        let c = latch();
        let n = Mna::new(&c).unwrap().unknown_count();
        let q = c.find_node("q").unwrap();
        let init = InitialState::Uic(vec![(q, 0.8)]);
        let spec = TransientSpec::fixed(0.2e-9, 4e-12);
        let mut ws = NewtonWorkspace::new(&Mna::new(&c).unwrap());
        c.transient_recorded(
            &spec.with_solver(SolverStrategy::Sparse),
            &init,
            &[],
            None,
            &mut ws,
        )
        .unwrap();
        assert_eq!(ws.bufs.f.len(), n);
        assert_eq!((ws.bufs.j.rows(), ws.bufs.j.cols()), (0, 0));
        c.transient_recorded(
            &spec.with_solver(SolverStrategy::Dense),
            &init,
            &[],
            None,
            &mut ws,
        )
        .unwrap();
        assert_eq!((ws.bufs.j.rows(), ws.bufs.j.cols()), (n, n));
    }

    #[test]
    fn step_trace_wraps_and_keeps_chronological_order() {
        let mut tr = StepTrace::default();
        assert!(tr.to_vec().is_empty());
        tr.record(1.0, 0.5);
        tr.record(2.0, -0.25);
        assert_eq!(tr.to_vec(), vec![(1.0, 0.5), (2.0, -0.25)]);
        // Overflow the ring: only the newest STEP_TRACE_CAP entries stay,
        // oldest first.
        for i in 0..STEP_TRACE_CAP {
            tr.record(i as f64, 1.0);
        }
        let v = tr.to_vec();
        assert_eq!(v.len(), STEP_TRACE_CAP);
        assert_eq!(v[0], (0.0, 1.0));
        assert_eq!(v[STEP_TRACE_CAP - 1], ((STEP_TRACE_CAP - 1) as f64, 1.0));
        tr.clear();
        assert!(tr.to_vec().is_empty());
    }
}
