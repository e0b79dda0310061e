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
//! integrator's companion-model scratch. One workspace serves any circuit
//! (buffers grow on demand and are reused thereafter), so a worker thread
//! sweeping Monte-Carlo samples performs O(1) allocations for the whole
//! sweep. Workers get one automatically through the crate-internal
//! thread-local (`with_workspace`); callers that want explicit control —
//! e.g. to hold buffers across many
//! [`transient_with`](crate::netlist::Circuit) calls — can own one
//! directly.

use crate::latency::LatencyState;
use crate::mna::{CompanionCaps, DeviceLin, IncrementalJac, Mna};
use crate::transient::CapTable;
use std::cell::Cell;
use tfet_numerics::matrix::LuWorkspace;
use tfet_numerics::{Matrix, SparseLu, SparseMatrix, SparsityPattern};

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
    /// built on first use under the sparse strategy and keyed on the MNA
    /// pattern signature so same-topology runs reuse the symbolic analysis.
    pub(crate) sparse: Option<SparseState>,
    /// Per-transistor linearization cache for device-evaluation bypass
    /// (sparse strategy only; invalidated at every run entry and rebind).
    pub(crate) device_cache: Vec<DeviceLin>,
    /// Per-transistor linearizations recorded by assemblies that run
    /// without bypass (DC solves, latency off, the dense path), for the
    /// Jacobian pass to stamp from. Kept apart from `device_cache` so those
    /// solves never seed or overwrite bypass entries.
    pub(crate) lins: Vec<DeviceLin>,
    /// Quiescent-partition latency state, built on first sparse solve of a
    /// circuit with registered partitions and keyed on the combined
    /// topology + partition signature; `None` for unpartitioned circuits.
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
    /// [`Mna::pattern_signature`] of the topology this state was built for.
    pub(crate) sig: u64,
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
    /// Whether `jac` lags the latest assembly, and how to bring it up to
    /// date. Newton assemblies write only the residual (and the split or
    /// the linearizations the Jacobian is made from); the two readers of
    /// `jac` ([`SolverBufs::sparse_refactor`],
    /// [`SolverBufs::sparse_update_consistent`]) rebuild it first, so an
    /// iteration that reuses a factorization never stamps a Jacobian.
    pub(crate) stale: JacStale,
}

/// How a stale [`SparseState::jac`] is rebuilt before it is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JacStale {
    /// `jac` holds the Jacobian of the latest assembly.
    No,
    /// Compose the latency tier's linear + transistor split
    /// ([`IncrementalJac::compose_into`]).
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

impl Default for SolverBufs {
    fn default() -> Self {
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
            sparse: None,
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
}

impl SolverBufs {
    /// Sizes every buffer for an `n`-unknown system with `devices`
    /// transistors; a no-op when already at that size.
    pub(crate) fn ensure(&mut self, n: usize, devices: usize) {
        self.device_cache.resize(devices, DeviceLin::default());
        self.lins.resize(devices, DeviceLin::default());
        if self.f.len() != n {
            self.j = Matrix::zeros(n, n);
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

    /// Invalidates every state-carrying cache: the device-bypass
    /// linearizations and the modified-Newton factor validity. Called at
    /// every run/DC entry and on parameter rebinds, so stale operating
    /// points or factors can never leak across runs or circuits.
    pub(crate) fn invalidate_caches(&mut self) {
        for e in &mut self.device_cache {
            e.valid = false;
        }
        if let Some(s) = &mut self.sparse {
            s.factor_valid = false;
        }
        if let Some(l) = &mut self.latency {
            l.invalidate();
        }
    }

    /// Ensures sparse state matching `mna`'s topology exists, building the
    /// pattern (allocating) only when the signature changed. Same-topology
    /// runs — every sweep and Monte-Carlo loop — keep their symbolic
    /// analysis; the check itself reads the signature `mna` memoised, so
    /// every solve after an analysis's first costs one comparison.
    pub(crate) fn ensure_sparse(&mut self, mna: &Mna<'_>) {
        let sig = mna.pattern_signature();
        if self.sparse.as_ref().is_some_and(|s| s.sig == sig) {
            return;
        }
        let pattern = SparsityPattern::from_entries(mna.unknown_count(), &mna.pattern_entries());
        let inc = IncrementalJac::build(mna, &pattern);
        self.sparse = Some(SparseState {
            sig,
            jac: SparseMatrix::new(pattern),
            lu: SparseLu::new(),
            factor_valid: false,
            inc,
            stale: JacStale::No,
        });
    }

    /// Ensures latency-tier state matching `mna`'s circuit exists: `None`
    /// when the circuit registered no partitions (the overwhelmingly common
    /// case — a cheap emptiness check and no allocation), otherwise built
    /// or rebuilt only when the combined topology + partition signature
    /// changed, so same-topology runs (sweeps, bisection searches) keep
    /// their state across solves.
    pub(crate) fn ensure_latency(&mut self, mna: &Mna<'_>) {
        let parts = mna.circuit().latency_partitions();
        if parts.is_empty() {
            self.latency = None;
            return;
        }
        let sig = mna.partition_signature();
        if self.latency.as_ref().is_some_and(|l| l.sig == sig) {
            return;
        }
        self.latency = Some(LatencyState::build(mna.circuit(), sig));
    }

    /// Brings [`SparseState::jac`] up to date with the latest assembly of
    /// `src` — a no-op unless it is [`stale`](SparseState::stale). Neither
    /// `x` nor the linearizations changed since that assembly, so the
    /// result is the Jacobian an eager assembly would have written.
    pub(crate) fn fresh_jacobian(&mut self, src: &JacSource<'_, '_>) {
        let s = self.sparse.as_mut().expect("sparse state prepared");
        match std::mem::replace(&mut s.stale, JacStale::No) {
            JacStale::No => {}
            JacStale::Compose => s.inc.compose_into(&mut s.jac),
            JacStale::Stamp => {
                let lins = if src.bypass {
                    &self.device_cache
                } else {
                    &self.lins
                };
                src.mna.stamp_jacobian(src.gmin, src.caps, lins, &mut s.jac);
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
        let s = self.sparse.as_mut().expect("sparse state prepared");
        let r = if !s.lu.is_analyzed() {
            analyses += 1;
            s.lu.analyze(&s.jac)
        } else {
            match s.lu.refactorize(&s.jac) {
                Ok(()) => Ok(()),
                Err(_) => {
                    analyses += 1;
                    s.lu.analyze(&s.jac)
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
        let s = self.sparse.as_ref().expect("sparse state prepared");
        s.jac.mul_vec(&self.dx, &mut self.scratch);
        let mut err = 0.0f64;
        for (r, v) in self.scratch.iter().zip(&self.f) {
            err = err.max((r + v).abs());
        }
        let fmax = self.f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
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

/// Reusable scratch space for DC and transient solves.
///
/// All buffers grow on first use and are retained across calls, so repeated
/// solves of same-sized circuits — the shape of every sweep and Monte-Carlo
/// loop in this workspace — run allocation-free after warm-up.
///
/// [`Circuit::transient`](crate::netlist::Circuit::transient) borrows a
/// thread-local workspace transparently;
/// [`Circuit::transient_with`](crate::netlist::Circuit::transient_with)
/// accepts one explicitly.
#[derive(Debug, Default)]
pub struct NewtonWorkspace {
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
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        NewtonWorkspace::default()
    }
}

thread_local! {
    /// Per-thread workspace shared by every solve on this thread. Stored in
    /// a `Cell<Option<…>>` and *taken* for the duration of a solve: if a
    /// solve re-enters (a transient whose initial state runs a DC solve
    /// through the public API), the inner call finds the slot empty and
    /// works on a fresh temporary instead of aliasing the outer buffers.
    static WORKSPACE: Cell<Option<Box<NewtonWorkspace>>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's reusable workspace.
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut NewtonWorkspace) -> R) -> R {
    WORKSPACE.with(|slot| {
        let mut ws = slot.take().unwrap_or_default();
        let out = f(&mut ws);
        slot.set(Some(ws));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{partition_signature, CellPartition, DeviceLatency, GuardKind};
    use crate::mna::tests::SIGNATURES_COMPUTED;
    use crate::netlist::{Circuit, NodeId};
    use crate::probe::TransientResult;
    use crate::transient::{InitialState, TransientSpec};
    use crate::waveform::Waveform;
    use crate::SolverStrategy;
    use std::sync::Arc;
    use tfet_devices::{NTfet, PTfet};

    /// A TFET latch written through a resistor from a pulsed source, its
    /// four devices in partitions `parts`; `extra` adds an RC tail (a
    /// different topology).
    fn latch(parts: &[&[usize]], extra: bool) -> Circuit {
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
        if extra {
            let x = c.node("x");
            c.resistor(q, x, 1e4);
            c.capacitor(x, Circuit::GND, 1e-15);
        }
        c.set_latency_partitions(
            parts
                .iter()
                .map(|devices| CellPartition {
                    devices: devices.to_vec(),
                    watch: vec![q, qb],
                    guard: vec![vdd, d],
                    guard_kinds: vec![GuardKind::Rail, GuardKind::Other],
                })
                .collect(),
        );
        c
    }

    fn assert_bit_identical(a: &TransientResult, b: &TransientResult, n_nodes: usize) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.times()), bits(b.times()));
        for i in 0..n_nodes {
            assert_eq!(
                bits(&a.trace(NodeId(i))),
                bits(&b.trace(NodeId(i))),
                "node {i}"
            );
        }
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.partitions, b.partitions);
    }

    #[test]
    fn signature_memo_cannot_go_stale_across_circuits() {
        let a = latch(&[&[0, 1, 2, 3]], false);
        let b = latch(&[&[0, 1, 2, 3]], true);
        let a_split = latch(&[&[0, 1], &[2, 3]], false);
        let spec = TransientSpec::fixed(0.4e-9, 4e-12)
            .with_solver(SolverStrategy::Sparse)
            .with_device_latency(DeviceLatency::On);
        let q = a.find_node("q").unwrap();
        let init = InitialState::Uic(vec![(q, 0.8)]);
        let mut ws = NewtonWorkspace::new();
        let mut last_sigs = None;
        for (name, c) in [("A", &a), ("B", &b), ("A", &a), ("A split", &a_split)] {
            let analyses0 = ws.bufs.sparse_analyses;
            let computed0 = SIGNATURES_COMPUTED.with(Cell::get);
            let shared = c.transient_with(&spec, &init, &mut ws).unwrap();
            assert_eq!(
                SIGNATURES_COMPUTED.with(Cell::get) - computed0,
                1,
                "{name}: one pattern walk per run"
            );
            assert!(
                shared.stats.newton_solves > 50,
                "{name}: {:?}",
                shared.stats
            );

            // The workspace now holds state keyed on this circuit, and the
            // memoised keys equal a fresh computation.
            let mna = Mna::new(c).unwrap();
            let sigs = (mna.pattern_signature(), mna.partition_signature());
            assert_eq!(sigs.0, mna.compute_pattern_signature(), "{name}");
            assert_eq!(
                sigs.1,
                partition_signature(sigs.0, c.latency_partitions()),
                "{name}"
            );
            assert_eq!(ws.bufs.sparse.as_ref().unwrap().sig, sigs.0, "{name}");
            assert_eq!(ws.bufs.latency.as_ref().unwrap().sig, sigs.1, "{name}");
            // Every switch rebuilds: a new pattern re-analyses the sparse
            // LU; a new partition set alone keeps the pattern's analysis.
            if let Some((pattern, part)) = last_sigs {
                assert_ne!(part, sigs.1, "{name}: latency state rebuilt");
                if pattern != sigs.0 {
                    assert!(ws.bufs.sparse_analyses > analyses0, "{name}: re-analysed");
                }
            }
            last_sigs = Some(sigs);

            let fresh = c
                .transient_with(&spec, &init, &mut NewtonWorkspace::new())
                .unwrap();
            assert_bit_identical(&shared, &fresh, c.node_count());
        }
    }

    /// A TFET pulled up through a resistor and switched by a pulsed gate,
    /// with an RC tail off its drain, in one latency partition. Its four
    /// capacitor branches (the tail capacitor, then the device's gs, gd and
    /// db) match its four non-ground nodes, so the UIC hold list and the
    /// capacitor table have the same length. `bridged` hangs the tail
    /// capacitor from the drain instead of ground: as many branches, on
    /// different node pairs.
    fn switched_load(bridged: bool) -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let gate = c.node("in");
        let a = c.node("a");
        let x = c.node("x");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
        c.vsource(
            "VIN",
            gate,
            Circuit::GND,
            Waveform::pulse(0.0, 0.8, 0.1e-9, 0.2e-9, 20e-12),
        );
        c.resistor(vdd, a, 50e3);
        c.resistor(a, x, 20e3);
        c.capacitor(x, if bridged { a } else { Circuit::GND }, 1e-15);
        c.transistor("MN", Arc::new(NTfet::nominal()), a, gate, Circuit::GND, 0.1);
        c.set_latency_partitions(vec![CellPartition {
            devices: vec![0],
            watch: vec![a, x],
            guard: vec![vdd, gate],
            guard_kinds: vec![GuardKind::Rail, GuardKind::Other],
        }]);
        c
    }

    /// The capacitor table's companion list is laid out once per run, and
    /// the incremental Jacobian recomputes its companion slots only when the
    /// list's layout stamp changes. The stamp must never let slots computed
    /// for one branch list serve another: one workspace runs circuit A,
    /// circuit B (as many capacitor branches, on different node pairs) and
    /// A again — each run a UIC hold solve over as many branches, then the
    /// steps. Every run must leave the residual and the composed Jacobian
    /// of a fresh workspace's run, bit for bit, and a linear part equal to
    /// one built from scratch for the final companion list.
    #[test]
    fn layout_stamp_cannot_go_stale_across_circuits() {
        let a = switched_load(false);
        let b = switched_load(true);
        let spec = TransientSpec::fixed(0.4e-9, 4e-12)
            .with_solver(SolverStrategy::Sparse)
            .with_device_latency(DeviceLatency::On);
        let x = a.find_node("x").unwrap();
        let init = InitialState::Uic(vec![(x, 0.3)]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The latest residual and the Jacobian its incremental split composes.
        let last_system = |ws: &NewtonWorkspace| {
            let s = ws.bufs.sparse.as_ref().unwrap();
            let mut jac = SparseMatrix::new(s.jac.pattern().clone());
            s.inc.compose_into(&mut jac);
            (bits(&ws.bufs.f), bits(jac.values()))
        };
        let mut ws = NewtonWorkspace::new();
        let mut layouts = Vec::new();
        for (name, c) in [("A", &a), ("B", &b), ("A", &a)] {
            let shared = c.transient_with(&spec, &init, &mut ws).unwrap();
            let mut fresh_ws = NewtonWorkspace::new();
            let fresh = c.transient_with(&spec, &init, &mut fresh_ws).unwrap();
            let mna = Mna::new(c).unwrap();
            assert_eq!(ws.companions.len(), mna.voltage_count(), "{name}");
            assert_bit_identical(&shared, &fresh, c.node_count());
            assert_eq!(last_system(&ws), last_system(&fresh_ws), "{name}");
            let s = ws.bufs.sparse.as_ref().unwrap();
            assert!(
                s.inc
                    .linear_part_is_fresh(&mna, &ws.companions, s.jac.pattern()),
                "{name}: stale companion slots"
            );
            layouts.push(ws.companions.layout());
        }
        assert!(layouts.windows(2).all(|w| w[0] != w[1]), "{layouts:?}");
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
        for (c, moved) in [(latch(&[], false), "vdd"), (deck.circuit, "bl")] {
            let mna = Mna::new(&c).unwrap();
            let (n, n_v) = (mna.unknown_count(), mna.voltage_count());
            let caps = CompanionCaps::from_branches(
                (1..=n_v).map(|k| (NodeId(k), Circuit::GND, 1e-4 * k as f64, -1e-6)),
            );
            let x0: Vec<f64> = (0..n)
                .map(|k| if k < n_v { 0.05 * k as f64 } else { 1e-6 })
                .collect();
            let mut bufs = SolverBufs::default();
            bufs.ensure(n, c.transistors().len());
            bufs.ensure_sparse(&mna);
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
                let s = bufs.sparse.as_ref().unwrap();
                let mut eager_jac = SparseMatrix::new(s.jac.pattern().clone());
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
                let s = bufs.sparse.as_mut().unwrap();
                s.jac.values_mut().fill(f64::NAN);
                s.stale = JacStale::Stamp;
                let src = JacSource {
                    mna: &mna,
                    gmin,
                    caps: Some(&caps),
                    bypass: true,
                };
                bufs.fresh_jacobian(&src);
                let s = bufs.sparse.as_mut().unwrap();
                assert_eq!(s.stale, JacStale::No);
                assert_eq!(deferred, eager);
                assert_eq!(bits(&bufs.f), bits(&eager_f));
                assert_eq!(bits(s.jac.values()), bits(eager_jac.values()));
                assert_eq!(lin_bits(&bufs.device_cache), lin_bits(&eager_cache));
                // A fresh Jacobian is not stamped again.
                s.jac.values_mut()[0] = f64::NAN;
                bufs.fresh_jacobian(&src);
                assert!(bufs.sparse.as_ref().unwrap().jac.values()[0].is_nan());
            }
        }
    }

    #[test]
    fn ensure_is_idempotent_at_fixed_size() {
        let mut bufs = SolverBufs::default();
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
        assert_eq!(bufs.j.rows(), 7);
        assert_eq!((bufs.lins.len(), bufs.device_cache.len()), (4, 4));
    }

    #[test]
    fn thread_local_workspace_is_reentrant() {
        with_workspace(|outer| {
            outer.bufs.ensure(4, 0);
            let outer_ptr = outer.bufs.f.as_ptr();
            // A nested borrow must get a distinct workspace, not panic or
            // alias the outer one.
            with_workspace(|inner| {
                inner.bufs.ensure(4, 0);
                assert_ne!(inner.bufs.f.as_ptr(), outer_ptr);
            });
            outer.bufs.f[0] = 1.0;
        });
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

    #[test]
    fn thread_local_workspace_persists_across_calls() {
        let first = with_workspace(|ws| {
            ws.bufs.ensure(6, 0);
            ws.bufs.f.as_ptr() as usize
        });
        let second = with_workspace(|ws| ws.bufs.f.as_ptr() as usize);
        assert_eq!(first, second, "buffers must be reused between solves");
    }
}
