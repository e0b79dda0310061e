//! Modified nodal analysis: Jacobian and residual assembly.
//!
//! The unknown vector is `x = [v_1 … v_{N-1}, i_1 … i_M]`: the voltages of
//! every non-ground node followed by the branch currents of the `M`
//! independent voltage sources. The nonlinear system `f(x) = 0` collects a
//! KCL residual (sum of currents *leaving* the node) per node and a
//! branch-voltage constraint per source; [`Mna::assemble`] evaluates `f` and
//! its Jacobian at a candidate `x` so Newton–Raphson can iterate.

use crate::error::SimError;
use crate::latency::{assembly_threads, partition_signature, LatencyState, PAR_EVAL_MIN};
use crate::netlist::{Circuit, NodeId, Transistor};
use std::sync::OnceLock;
use tfet_numerics::{par_for_each_mut, GroupedIndices, Matrix, SparseMatrix, SparsityPattern};

/// Jacobian assembly target: dense [`Matrix`] or pattern-backed
/// [`SparseMatrix`]. The MNA stamps are target-generic so both solver
/// strategies share one assembly routine (and therefore one set of stamps to
/// keep correct).
pub(crate) trait JacTarget {
    /// Zeroes every stored value.
    fn clear(&mut self);
    /// Adds `v` at `(r, c)`.
    fn add(&mut self, r: usize, c: usize, v: f64);
}

impl JacTarget for Matrix {
    fn clear(&mut self) {
        Matrix::clear(self);
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        Matrix::add(self, r, c, v);
    }
}

impl JacTarget for SparseMatrix {
    fn clear(&mut self) {
        SparseMatrix::clear(self);
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        SparseMatrix::add(self, r, c, v);
    }
}

/// A value slice stamped through a borrowed [`SparsityPattern`] — lets the
/// shared MNA stamp helpers write into an auxiliary value array (the
/// incremental assembly's linear part) without owning a second matrix.
struct SliceJac<'a> {
    pattern: &'a SparsityPattern,
    values: &'a mut [f64],
}

impl JacTarget for SliceJac<'_> {
    fn clear(&mut self) {
        self.values.fill(0.0);
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        let slot = self
            .pattern
            .slot(r, c)
            .unwrap_or_else(|| panic!("stamp at ({r},{c}) outside sparsity pattern"));
        self.values[slot] += v;
    }
}

/// Sentinel for a transistor Jacobian slot that does not exist (terminal at
/// ground — no row/column).
const NO_SLOT: usize = usize::MAX;

/// Incremental sparse-Jacobian state for [`Mna::assemble_sparse_latent`].
///
/// The Jacobian of a mostly-dormant array barely changes between Newton
/// iterations: a dormant device's conductance entries are *constant* until
/// its cell refreshes, and the linear elements (resistors, companion-cap
/// conductances, voltage-source unit entries, g_min) change at most once per
/// transient step. This struct keeps the two parts as separate value arrays
/// over the same sparsity pattern:
///
/// * `lin_values` — the linear part, rebuilt only when its inputs change
///   (detected in O(1) via the companion list's mutation stamp and g_min),
///   and even then through cached slots: the static stamps (resistors,
///   voltage-source units) are precomputed once, and the per-branch
///   companion slots are reused while the companion list's layout stamp is
///   unchanged — a rebuild is a `memcpy` plus one add per branch entry, no
///   searches;
/// * `trans_values` — the transistor part, maintained by
///   subtract-old/add-new deltas through per-device precomputed slots
///   whenever a device is freshly evaluated.
///
/// The full matrix is composed as one O(nnz) vector add — replacing
/// O(devices) slot-searched stamps — and only when something reads it: an
/// assembly leaves the matrix stale
/// ([`JacStale::Compose`](crate::workspace::JacStale::Compose)), and the
/// solver composes before a refactorization or a consistency check, the only
/// readers. An iteration that reuses a factorization never pays for it. Repeated
/// subtract/add cycles drift `trans_values` by at most a few ulps per
/// refresh (the deltas are exact floating-point values, not accumulated
/// sums), far inside Newton's convergence tolerance, and every mutation is
/// serial in netlist order so results stay independent of thread count.
#[derive(Debug, Default)]
pub(crate) struct IncrementalJac {
    /// Per-transistor slots `[(rd,cg),(rd,rd),(rd,cs),(rs,cg),(rs,cd),(rs,rs)]`,
    /// `NO_SLOT` where a terminal is ground.
    tslots: Vec<[usize; 6]>,
    /// The linearization currently stamped in `trans_values`, per device.
    stamped: Vec<DeviceLin>,
    /// Linear-part values (resistors, cap conductances, vsource units, gmin).
    lin_values: Vec<f64>,
    /// Transistor conductance values.
    trans_values: Vec<f64>,
    /// Bias-independent linear stamps (resistors, vsource units), built once.
    static_values: Vec<f64>,
    /// Diagonal slot per voltage node, for the g_min contribution.
    diag_slots: Vec<usize>,
    /// Per companion branch: slots `[(ra,ra),(ra,rb),(rb,rb),(rb,ra)]`,
    /// `NO_SLOT` where a terminal is ground.
    cap_slots: Vec<[usize; 4]>,
    /// Layout stamp of the companion list `cap_slots` was computed for
    /// (0: none yet).
    cap_layout: u64,
    /// Mutation stamp of the companion list `lin_values` was built from.
    lin_gen: u64,
    /// The g_min `lin_values` was built with.
    lin_gmin: f64,
    /// False until the first linear rebuild.
    lin_valid: bool,
}

impl IncrementalJac {
    /// Builds the per-device slot tables for `mna`'s circuit over `pattern`
    /// and zeroes both value arrays.
    pub(crate) fn build(mna: &Mna<'_>, pattern: &SparsityPattern) -> Self {
        let nnz = pattern.nnz();
        let slot = |r: Option<usize>, c: Option<usize>| match (r, c) {
            (Some(r), Some(c)) => pattern
                .slot(r, c)
                .unwrap_or_else(|| panic!("transistor slot ({r},{c}) outside sparsity pattern")),
            _ => NO_SLOT,
        };
        let tslots = mna
            .circuit
            .transistors
            .iter()
            .map(|m| {
                let rd = mna.row(m.d);
                let rs = mna.row(m.s);
                let cg = mna.row(m.g);
                [
                    slot(rd, cg),
                    slot(rd, rd),
                    slot(rd, rs),
                    slot(rs, cg),
                    slot(rs, rd),
                    slot(rs, rs),
                ]
            })
            .collect::<Vec<_>>();
        // Static linear stamps: bias-independent, computed once.
        let mut static_values = vec![0.0; nnz];
        {
            let mut j = SliceJac {
                pattern,
                values: &mut static_values,
            };
            for r in &mna.circuit.resistors {
                mna.stamp_conductance(&mut j, r.a, r.b, 1.0 / r.ohms);
            }
            for (k, v) in mna.circuit.vsources.iter().enumerate() {
                let bi = mna.branch_index(k);
                if let Some(rp) = mna.row(v.plus) {
                    j.add(rp, bi, 1.0);
                    j.add(bi, rp, 1.0);
                }
                if let Some(rm) = mna.row(v.minus) {
                    j.add(rm, bi, -1.0);
                    j.add(bi, rm, -1.0);
                }
            }
        }
        let diag_slots = (0..mna.n_v)
            .map(|n| {
                pattern
                    .slot(n, n)
                    .unwrap_or_else(|| panic!("diagonal ({n},{n}) outside sparsity pattern"))
            })
            .collect();
        IncrementalJac {
            stamped: vec![DeviceLin::default(); tslots.len()],
            tslots,
            lin_values: vec![0.0; nnz],
            trans_values: vec![0.0; nnz],
            static_values,
            diag_slots,
            cap_slots: Vec::new(),
            cap_layout: 0,
            lin_gen: 0,
            lin_gmin: 0.0,
            lin_valid: false,
        }
    }

    /// Rebuilds `lin_values` iff the linear part's inputs changed: g_min, or
    /// the companion-cap list (detected by the list's mutation stamp —
    /// `ieq` moves every step but only enters the residual, and `geq`
    /// changes arrive together with a new stamp).
    ///
    /// The rebuild itself runs through cached slots: a copy of the static
    /// stamps, one signed add per companion-branch slot, and the g_min
    /// diagonal. The branch slots are recomputed only when the list's
    /// layout stamp changed — once per transient run for its hold solve and
    /// once for its steps — so the steady path does no slot search and no
    /// membership compare.
    fn refresh_linear(&mut self, gmin: f64, caps: &CompanionCaps, pattern: &SparsityPattern) {
        if self.lin_valid && self.lin_gmin == gmin && self.lin_gen == caps.generation() {
            return;
        }
        if self.cap_layout != caps.layout() {
            let slot = |r: u32, c: u32| {
                if r == NO_ROW || c == NO_ROW {
                    NO_SLOT
                } else {
                    let (r, c) = (r as usize, c as usize);
                    pattern.slot(r, c).unwrap_or_else(|| {
                        panic!("companion slot ({r},{c}) outside sparsity pattern")
                    })
                }
            };
            self.cap_slots.clear();
            self.cap_slots.extend(caps.branches().iter().map(|br| {
                let (ra, rb) = (br.ra, br.rb);
                [slot(ra, ra), slot(ra, rb), slot(rb, rb), slot(rb, ra)]
            }));
            self.cap_layout = caps.layout();
        }
        self.lin_values.copy_from_slice(&self.static_values);
        for (slots, br) in self.cap_slots.iter().zip(caps.branches()) {
            let geq = br.geq;
            // Even indices are diagonal (+geq), odd are off-diagonal (−geq).
            for (k, &s) in slots.iter().enumerate() {
                if s != NO_SLOT {
                    self.lin_values[s] += if k % 2 == 0 { geq } else { -geq };
                }
            }
        }
        if gmin > 0.0 {
            for &s in &self.diag_slots {
                self.lin_values[s] += gmin;
            }
        }
        self.lin_gen = caps.generation();
        self.lin_gmin = gmin;
        self.lin_valid = true;
    }

    /// Whether `lin_values` equals, bit for bit, the linear part a fresh
    /// `IncrementalJac` builds from `caps` at the same g_min — i.e. no
    /// companion slot computed for another branch list is still in use.
    #[cfg(test)]
    pub(crate) fn linear_part_is_fresh(
        &self,
        mna: &Mna<'_>,
        caps: &CompanionCaps,
        pattern: &SparsityPattern,
    ) -> bool {
        let mut fresh = IncrementalJac::build(mna, pattern);
        fresh.refresh_linear(self.lin_gmin, caps, pattern);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&self.lin_values) == bits(&fresh.lin_values)
    }

    /// Replaces device `idx`'s contribution in `trans_values`: subtracts the
    /// previously stamped linearization, adds `e`, records `e` as stamped.
    #[inline]
    fn restamp_device(&mut self, idx: usize, e: &DeviceLin) {
        let slots = self.tslots[idx];
        let old = self.stamped[idx];
        if old.valid {
            for (s, v) in slots
                .iter()
                .zip([old.gm, old.gds, old.gss, -old.gm, -old.gds, -old.gss])
            {
                if *s != NO_SLOT {
                    self.trans_values[*s] -= v;
                }
            }
        }
        for (s, v) in slots
            .iter()
            .zip([e.gm, e.gds, e.gss, -e.gm, -e.gds, -e.gss])
        {
            if *s != NO_SLOT {
                self.trans_values[*s] += v;
            }
        }
        self.stamped[idx] = *e;
    }

    /// Writes `lin_values + trans_values` into `jac`'s value storage.
    pub(crate) fn compose_into(&self, jac: &mut SparseMatrix) {
        let _s = tfet_obs::span("compose");
        let vals = jac.values_mut();
        for ((v, l), t) in vals
            .iter_mut()
            .zip(&self.lin_values)
            .zip(&self.trans_values)
        {
            *v = l + t;
        }
    }
}

/// Cached linearization of one transistor: the operating point of its last
/// full evaluation (width-scaled current and conductances at terminal
/// voltages `vg/vd/vs`).
///
/// When every terminal moved less than [`BYPASS_VTOL`] since that evaluation,
/// assembly *bypasses* the device model and stamps the first-order
/// extrapolation `i ≈ i₀ + gm·Δvg + gds·Δvd + gss·Δvs` instead. Because the
/// extrapolation carries the full first-order term, the bypass error is
/// *second* order in the movement — curvature · Δv², not conductance · Δv —
/// which is what makes a micro-volt window safe against nano-volt
/// tolerances (see [`BYPASS_VTOL`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DeviceLin {
    pub valid: bool,
    pub vg: f64,
    pub vd: f64,
    pub vs: f64,
    pub i: f64,
    pub gm: f64,
    pub gds: f64,
    pub gss: f64,
}

impl DeviceLin {
    /// A full model evaluation of transistor `m` at terminal voltages
    /// `vg/vd/vs`, scaled by its width.
    #[inline]
    fn evaluate(m: &Transistor, vg: f64, vd: f64, vs: f64) -> DeviceLin {
        let w = m.width_um;
        let (i, gm, gds, gs) = m.model.linearize_per_um(vg, vd, vs);
        DeviceLin {
            valid: true,
            vg,
            vd,
            vs,
            i: w * i,
            gm: w * gm,
            gds: w * gds,
            gss: w * gs,
        }
    }
}

/// Terminal-voltage movement below which a cached device linearization is
/// reused instead of re-evaluating the model.
///
/// 150 µV. The bypassed stamp is the cached *first-order* model, so its
/// error is second order: `½·∂²i/∂v²·Δv²`. TFET currents vary on a ~30 mV
/// characteristic scale, giving a worst-case relative current error of
/// `(150 µV / 30 mV)² / 2 ≈ 1.3·10⁻⁵` — equivalent to a voltage
/// perturbation of ~0.4 µV at the device's own transconductance, four
/// orders below the LTE budget and any rendered figure precision. Movement
/// itself is never masked: the extrapolated current still tracks the
/// terminals linearly, so an un-converged iterate keeps producing a
/// residual.
pub(crate) const BYPASS_VTOL: f64 = 150e-6;

/// Per-assembly effort breakdown of the transistor section: how many
/// devices were fully evaluated, served from the per-device bypass cache,
/// or skipped wholesale by the cell-dormancy tier — plus the tier's refresh
/// activity. The solver accumulates these into the workspace's monotone
/// counters, which [`SolveStats`](crate::SolveStats) snapshots per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AssemblyStats {
    /// Full device-model evaluations.
    pub(crate) evals: u64,
    /// Stamps served from the per-device bypass cache (ungrouped devices).
    pub(crate) bypassed: u64,
    /// Stamps replayed for devices inside a dormant partition.
    pub(crate) dormant: u64,
    /// Partitions refreshed (all member devices re-evaluated) this assembly.
    pub(crate) cells_refreshed: u64,
    /// Refreshes forced specifically by guard-node movement while the
    /// partition's internal nodes were still quiet.
    pub(crate) guard_refreshes: u64,
}

/// Sentinel row for a ground terminal (no KCL equation).
const NO_ROW: u32 = u32::MAX;

/// KCL row of `node`, or [`NO_ROW`] for ground.
#[inline]
fn row_of(node: NodeId) -> u32 {
    if node.is_ground() {
        NO_ROW
    } else {
        u32::try_from(node.index() - 1).expect("node count fits in u32")
    }
}

/// Takes a stamp unique across every [`CompanionCaps`] mutation and layout
/// in the process, so two equal stamps always mean the same thing.
fn next_stamp() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One companion-model branch: the terminals' KCL rows ([`NO_ROW`] for
/// ground) and the stamp values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompanionBranch {
    pub(crate) ra: u32,
    pub(crate) rb: u32,
    /// Companion conductance.
    pub(crate) geq: f64,
    /// Companion current, flowing a→b.
    pub(crate) ieq: f64,
}

impl CompanionBranch {
    /// The voltage `v_a − v_b` in the unknown vector `x`.
    #[inline]
    pub(crate) fn v_ab(&self, x: &[f64]) -> f64 {
        let v = |r: u32| if r == NO_ROW { 0.0 } else { x[r as usize] };
        v(self.ra) - v(self.rb)
    }
}

/// Linearized (companion-model) capacitor contributions for one transient
/// step: for each branch `a → b`, a conductance `geq` plus a constant
/// current `ieq` flowing a→b, such that the branch current is
/// `i_ab = geq · (v_a − v_b) + ieq`.
///
/// The transient integrator builds these each step (backward Euler:
/// `geq = C/Δt`, `ieq = −geq·v_ab(t_n)`; trapezoidal: `geq = 2C/Δt`,
/// `ieq = −geq·v_ab(t_n) − i_ab(t_n)`).
///
/// The branch list — its *layout* — is fixed when the list is laid out and
/// carries the terminals' KCL rows precomputed, so the residual and
/// Jacobian loops index the unknown vector directly. Each step rewrites
/// only the values. Two stamps track the list: the layout stamp changes
/// only when the branches themselves change, the generation stamp on every
/// mutation; both are unique across all instances (never-laid-out lists
/// stay at 0).
#[derive(Debug, Clone, Default)]
pub struct CompanionCaps {
    branches: Vec<CompanionBranch>,
    /// Layout stamp: which branch list `branches` holds.
    layout: u64,
    /// Mutation stamp of the values (and layout).
    generation: u64,
}

impl CompanionCaps {
    /// A companion list over the given `(a, b, geq, ieq)` branches.
    ///
    /// # Panics
    ///
    /// Panics if a node index does not fit in `u32`.
    pub fn from_branches(branches: impl IntoIterator<Item = (NodeId, NodeId, f64, f64)>) -> Self {
        let mut caps = CompanionCaps {
            branches: branches
                .into_iter()
                .map(|(a, b, geq, ieq)| CompanionBranch {
                    ra: row_of(a),
                    rb: row_of(b),
                    geq,
                    ieq,
                })
                .collect(),
            layout: next_stamp(),
            generation: 0,
        };
        caps.touch();
        caps
    }

    /// Lays the list out over the `(a, b)` branches, in order, with every
    /// value zeroed, and takes a fresh layout stamp. Reuses the buffer.
    pub(crate) fn set_layout(&mut self, branches: impl IntoIterator<Item = (NodeId, NodeId)>) {
        self.branches.clear();
        self.branches
            .extend(branches.into_iter().map(|(a, b)| CompanionBranch {
                ra: row_of(a),
                rb: row_of(b),
                geq: 0.0,
                ieq: 0.0,
            }));
        self.layout = next_stamp();
        self.touch();
    }

    /// Number of branches.
    pub(crate) fn len(&self) -> usize {
        self.branches.len()
    }

    /// Every branch, in layout order.
    pub(crate) fn branches(&self) -> &[CompanionBranch] {
        &self.branches
    }

    /// Every branch, for rewriting the values in place (the rows must stay
    /// as laid out). The writer must [`touch`](Self::touch) the list
    /// afterwards.
    pub(crate) fn branches_mut(&mut self) -> &mut [CompanionBranch] {
        &mut self.branches
    }

    /// Records that the values changed by taking a fresh globally-unique
    /// stamp. Two equal generations therefore always mean "the same list,
    /// unmutated" — which is what lets [`IncrementalJac::refresh_linear`]
    /// decide "nothing to do" in O(1) instead of comparing every branch.
    pub(crate) fn touch(&mut self) {
        self.generation = next_stamp();
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// The layout stamp: equal stamps mean the same branch list, in order.
    pub(crate) fn layout(&self) -> u64 {
        self.layout
    }

    /// Adds every branch current `geq·(v_a − v_b) + ieq` into the residual
    /// `f` — the same terms, in the same order, as one
    /// [`Mna::stamp_current`] per branch.
    fn stamp_residual(&self, x: &[f64], f: &mut [f64]) {
        for br in &self.branches {
            let i = br.geq * br.v_ab(x) + br.ieq;
            if br.ra != NO_ROW {
                f[br.ra as usize] += i;
            }
            if br.rb != NO_ROW {
                f[br.rb as usize] -= i;
            }
        }
    }

    /// Stamps every branch conductance into `j` — the same adds, in the same
    /// order, as one [`Mna::stamp_conductance`] per branch.
    fn stamp_conductances<J: JacTarget>(&self, j: &mut J) {
        for br in &self.branches {
            let (ra, rb, g) = (br.ra as usize, br.rb as usize, br.geq);
            if br.ra != NO_ROW {
                j.add(ra, ra, g);
                if br.rb != NO_ROW {
                    j.add(ra, rb, -g);
                }
            }
            if br.rb != NO_ROW {
                j.add(rb, rb, g);
                if br.ra != NO_ROW {
                    j.add(rb, ra, -g);
                }
            }
        }
    }
}

/// Assembled view of a circuit, ready for repeated Jacobian/residual
/// evaluation.
///
/// One `Mna` serves one analysis (a transient run or a DC solve) over a
/// borrowed, immutable circuit, so the topology it describes cannot change
/// while it lives: the structural signatures the solver workspace keys its
/// cached state on are computed on first use and memoised here.
#[derive(Debug)]
pub struct Mna<'c> {
    circuit: &'c Circuit,
    /// Non-ground node count (voltage unknowns).
    n_v: usize,
    /// Total unknowns (`n_v` + voltage-source branch currents).
    n_x: usize,
    /// Memoised [`Mna::pattern_signature`].
    pattern_sig: OnceLock<u64>,
    /// Memoised [`Mna::partition_signature`].
    partition_sig: OnceLock<u64>,
}

impl<'c> Mna<'c> {
    /// Prepares the circuit for analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidCircuit`] if the circuit has no elements
    /// or no non-ground nodes.
    pub fn new(circuit: &'c Circuit) -> Result<Self, SimError> {
        if circuit.element_count() == 0 {
            return Err(SimError::InvalidCircuit("circuit has no elements".into()));
        }
        let n_v = circuit.node_count() - 1;
        if n_v == 0 {
            return Err(SimError::InvalidCircuit(
                "circuit has no non-ground nodes".into(),
            ));
        }
        let n_x = n_v + circuit.vsource_count();
        Ok(Mna {
            circuit,
            n_v,
            n_x,
            pattern_sig: OnceLock::new(),
            partition_sig: OnceLock::new(),
        })
    }

    /// Number of unknowns.
    pub fn unknown_count(&self) -> usize {
        self.n_x
    }

    /// Number of voltage unknowns (non-ground nodes).
    pub fn voltage_count(&self) -> usize {
        self.n_v
    }

    /// The circuit under analysis.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// Voltage of `node` in the unknown vector (0 for ground).
    #[inline]
    pub fn voltage_of(&self, x: &[f64], node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            x[node.index() - 1]
        }
    }

    /// Row/column of a node's KCL equation, if it has one (ground doesn't).
    #[inline]
    fn row(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Unknown index of voltage source `k`'s branch current.
    #[inline]
    pub fn branch_index(&self, k: usize) -> usize {
        self.n_v + k
    }

    /// Adds `g` between nodes `a` and `b` into the Jacobian (standard
    /// two-terminal conductance stamp).
    fn stamp_conductance<J: JacTarget>(&self, j: &mut J, a: NodeId, b: NodeId, g: f64) {
        if let Some(ra) = self.row(a) {
            j.add(ra, ra, g);
            if let Some(rb) = self.row(b) {
                j.add(ra, rb, -g);
            }
        }
        if let Some(rb) = self.row(b) {
            j.add(rb, rb, g);
            if let Some(ra) = self.row(a) {
                j.add(rb, ra, -g);
            }
        }
    }

    /// Adds a current `i` flowing a→b into the residual.
    fn stamp_current(&self, f: &mut [f64], a: NodeId, b: NodeId, i: f64) {
        if let Some(ra) = self.row(a) {
            f[ra] += i;
        }
        if let Some(rb) = self.row(b) {
            f[rb] -= i;
        }
    }

    /// Evaluates the residual `f(x)` and Jacobian `J(x)` at time `t`.
    ///
    /// * `gmin` — convergence-aid conductance from every node toward its
    ///   anchor voltage (0 for the final, physical solve);
    /// * `anchor` — the voltages the g_min conductances pull toward. `None`
    ///   pulls toward ground; passing the solver's initial guess makes the
    ///   g_min ladder *basin-preserving* for bistable circuits (an SRAM
    ///   relaxed toward ground would forget which state it was asked to
    ///   hold and drift to the metastable point);
    /// * `caps` — companion-model capacitor branches for transient steps
    ///   (`None` for DC: capacitors are open circuits).
    ///
    /// `j` must be `n_x × n_x` and `f` of length `n_x`; both are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `x`, `f`, `j` or `anchor` have the wrong dimensions.
    #[allow(clippy::too_many_arguments)] // solver-internal hot path; a config struct would obscure the MNA math
    pub fn assemble(
        &self,
        x: &[f64],
        t: f64,
        gmin: f64,
        anchor: Option<&[f64]>,
        caps: Option<&CompanionCaps>,
        j: &mut Matrix,
        f: &mut [f64],
    ) {
        assert_eq!(j.rows(), self.n_x, "jacobian rows");
        let mut lins = vec![DeviceLin::default(); self.circuit.transistors.len()];
        self.assemble_into(x, t, gmin, anchor, caps, j, f, &mut lins, false);
    }

    /// Full assembly: the residual pass ([`Mna::assemble_residual`]) then
    /// the Jacobian pass ([`Mna::stamp_jacobian`]) over the linearizations
    /// it recorded in `lins`.
    ///
    /// Like [`Mna::assemble`], but stamps into any [`JacTarget`] (dense or
    /// pattern-backed sparse) and optionally bypasses device evaluation
    /// (see [`Mna::assemble_residual`]). The sparse Newton loop runs the two
    /// passes apart instead, stamping the Jacobian only when it is read;
    /// partition-latency transient solves go through
    /// [`Mna::assemble_sparse_latent`], which adds the cell-dormancy tier and
    /// incremental Jacobian maintenance on top of the same stamps.
    #[allow(clippy::too_many_arguments)] // solver-internal hot path; a config struct would obscure the MNA math
    pub(crate) fn assemble_into<J: JacTarget>(
        &self,
        x: &[f64],
        t: f64,
        gmin: f64,
        anchor: Option<&[f64]>,
        caps: Option<&CompanionCaps>,
        j: &mut J,
        f: &mut [f64],
        lins: &mut [DeviceLin],
        bypass: bool,
    ) -> AssemblyStats {
        let stats = self.assemble_residual(x, t, gmin, anchor, caps, f, lins, bypass);
        self.stamp_jacobian(gmin, caps, lins, j);
        stats
    }

    /// The residual pass: evaluates `f(x)` (cleared first) and records each
    /// transistor's linearization — the `(i, gm, gds, gss)` its stamp uses
    /// — in `lins`, one entry per transistor in netlist order.
    ///
    /// With `bypass`, `lins` is the bypass cache: a transistor whose terminal
    /// voltages all moved less than [`BYPASS_VTOL`] since its last full
    /// evaluation is served from its entry (see [`DeviceLin`]) and the entry
    /// is kept; every other transistor is evaluated and its entry replaced.
    /// Without it every transistor is evaluated.
    ///
    /// The Jacobian at `x` is then [`Mna::stamp_jacobian`] over the same
    /// `lins`, `gmin` and `caps`, whenever it runs.
    #[allow(clippy::too_many_arguments)] // solver-internal hot path; a config struct would obscure the MNA math
    pub(crate) fn assemble_residual(
        &self,
        x: &[f64],
        t: f64,
        gmin: f64,
        anchor: Option<&[f64]>,
        caps: Option<&CompanionCaps>,
        f: &mut [f64],
        lins: &mut [DeviceLin],
        bypass: bool,
    ) -> AssemblyStats {
        assert_eq!(x.len(), self.n_x, "state vector length");
        assert_eq!(f.len(), self.n_x, "residual length");
        assert_eq!(
            lins.len(),
            self.circuit.transistors.len(),
            "linearization buffer length"
        );
        f.fill(0.0);

        // Resistors.
        for r in &self.circuit.resistors {
            let g = 1.0 / r.ohms;
            let i = g * (self.voltage_of(x, r.a) - self.voltage_of(x, r.b));
            self.stamp_current(f, r.a, r.b, i);
        }

        // Companion capacitors (transient only).
        if let Some(caps) = caps {
            caps.stamp_residual(x, f);
        }

        // Current sources.
        for s in &self.circuit.isources {
            self.stamp_current(f, s.from, s.to, s.wave.value(t));
        }

        // Transistors: nonlinear three-terminal currents, with optional
        // bypass of the (expensive) model evaluation when the operating
        // point is within BYPASS_VTOL of the cached one.
        let mut stats = AssemblyStats::default();
        {
            let _s = tfet_obs::span("eval");
            for (m, e) in self.circuit.transistors.iter().zip(lins.iter_mut()) {
                let vg = self.voltage_of(x, m.g);
                let vd = self.voltage_of(x, m.d);
                let vs = self.voltage_of(x, m.s);
                let i = if bypass
                    && e.valid
                    && (vg - e.vg).abs() < BYPASS_VTOL
                    && (vd - e.vd).abs() < BYPASS_VTOL
                    && (vs - e.vs).abs() < BYPASS_VTOL
                {
                    stats.bypassed += 1;
                    e.i + e.gm * (vg - e.vg) + e.gds * (vd - e.vd) + e.gss * (vs - e.vs)
                } else {
                    stats.evals += 1;
                    *e = DeviceLin::evaluate(m, vg, vd, vs);
                    e.i
                };
                // Current i enters the drain terminal and leaves the source
                // terminal; the gate carries no DC current.
                self.stamp_current(f, m.d, m.s, i);
            }
        }

        // Voltage sources: branch current unknowns + branch equations.
        for (k, v) in self.circuit.vsources.iter().enumerate() {
            let bi = self.branch_index(k);
            let i_br = x[bi];
            // KCL: branch current leaves `plus`, enters `minus`.
            if let Some(rp) = self.row(v.plus) {
                f[rp] += i_br;
            }
            if let Some(rm) = self.row(v.minus) {
                f[rm] -= i_br;
            }
            // Branch equation: v_plus − v_minus = V(t).
            f[bi] = self.voltage_of(x, v.plus) - self.voltage_of(x, v.minus) - v.wave.value(t);
        }

        // g_min convergence aid: a conductance from every node toward its
        // anchor (ground when no anchor is given).
        if gmin > 0.0 {
            if let Some(anchor) = anchor {
                assert!(anchor.len() >= self.n_v, "anchor length");
            }
            for n in 0..self.n_v {
                let target = anchor.map_or(0.0, |a| a[n]);
                f[n] += gmin * (x[n] - target);
            }
        }
        stats
    }

    /// The Jacobian pass: clears `j` and stamps the Jacobian whose residual
    /// [`Mna::assemble_residual`] evaluated with the same `gmin` and `caps`,
    /// transistors from the linearizations it recorded in `lins`.
    ///
    /// The stamps run in one fixed order — resistors, companion
    /// conductances, transistors, voltage-source units, g_min — so every
    /// entry sums its contributions in the same order, and has the same
    /// bits, whether the pass runs right after the residual or only when a
    /// reader needs the matrix.
    pub(crate) fn stamp_jacobian<J: JacTarget>(
        &self,
        gmin: f64,
        caps: Option<&CompanionCaps>,
        lins: &[DeviceLin],
        j: &mut J,
    ) {
        let _s = tfet_obs::span("jacobian");
        j.clear();
        for r in &self.circuit.resistors {
            self.stamp_conductance(j, r.a, r.b, 1.0 / r.ohms);
        }
        if let Some(caps) = caps {
            caps.stamp_conductances(j);
        }
        for (m, e) in self.circuit.transistors.iter().zip(lins) {
            if let Some(rd) = self.row(m.d) {
                if let Some(c) = self.row(m.g) {
                    j.add(rd, c, e.gm);
                }
                j.add(rd, rd, e.gds);
                if let Some(c) = self.row(m.s) {
                    j.add(rd, c, e.gss);
                }
            }
            if let Some(rs) = self.row(m.s) {
                if let Some(c) = self.row(m.g) {
                    j.add(rs, c, -e.gm);
                }
                if let Some(c) = self.row(m.d) {
                    j.add(rs, c, -e.gds);
                }
                j.add(rs, rs, -e.gss);
            }
        }
        for (k, v) in self.circuit.vsources.iter().enumerate() {
            let bi = self.branch_index(k);
            if let Some(rp) = self.row(v.plus) {
                j.add(rp, bi, 1.0);
            }
            if let Some(rm) = self.row(v.minus) {
                j.add(rm, bi, -1.0);
            }
            if let Some(rp) = self.row(v.plus) {
                j.add(bi, rp, 1.0);
            }
            if let Some(rm) = self.row(v.minus) {
                j.add(bi, rm, -1.0);
            }
        }
        if gmin > 0.0 {
            for n in 0..self.n_v {
                j.add(n, n, gmin);
            }
        }
    }

    /// The latency-tier transient assembly: the three-phase transistor path
    /// (decide / evaluate / stamp) on top of *incremental* sparse-Jacobian
    /// maintenance.
    ///
    /// 1. **decide** — re-evaluate dormancy per partition against the
    ///    refresh-point references ([`LatencyState::update_dormancy`]), then
    ///    mark each device: partition members evaluate iff their cell is not
    ///    dormant (a refreshed cell re-evaluates *all* its devices, so cache
    ///    entries and references always describe one coherent operating
    ///    point); ungrouped devices keep the per-device bypass test.
    /// 2. **evaluate** — run the marked device models, serially or fanned
    ///    across threads when the batch is large ([`PAR_EVAL_MIN`]). Each
    ///    evaluation writes only its own cache slot and depends only on `x`,
    ///    so the fan-out is embarrassingly parallel and bit-deterministic.
    /// 3. **stamp** — serial, in netlist order. The residual replay
    ///    `i = i₀ + gm·Δvg + gds·Δvd + gss·Δvs` is exact (Δv ≡ 0) for
    ///    freshly evaluated devices and second-order accurate for dormant or
    ///    bypassed ones. The *Jacobian*, however, is not re-stamped from
    ///    scratch: a device's conductance entries change only when its
    ///    linearization does, so only freshly evaluated devices touch the
    ///    matrix (subtract the previously stamped linearization, add the new
    ///    one, through per-device precomputed slots — no slot searches). The
    ///    full matrix is `linear part + transistor part`, where the linear
    ///    part (resistors, companion-capacitor conductances, voltage-source
    ///    unit entries, g_min diagonal) is rebuilt only when its values
    ///    actually change — at most once per transient step, and only when
    ///    device capacitances moved. `jac` itself is left stale: the caller
    ///    marks it [`JacStale::Compose`](crate::workspace::JacStale::Compose),
    ///    and the sum is composed only when the solver reads the matrix
    ///    ([`IncrementalJac::compose_into`]).
    ///
    /// On an array where >90 % of cells are dormant this turns the dominant
    /// per-iteration cost — thousands of slot-searched stamps for devices
    /// whose conductances have not changed — into slot updates for the
    /// freshly evaluated devices alone, plus one O(nnz) vector add per
    /// refactorization or consistency check. The fixed serial order of every matrix mutation
    /// keeps results independent of thread count.
    #[allow(clippy::too_many_arguments)] // solver-internal hot path
    pub(crate) fn assemble_sparse_latent(
        &self,
        x: &[f64],
        t: f64,
        gmin: f64,
        anchor: Option<&[f64]>,
        caps: &CompanionCaps,
        jac: &mut SparseMatrix,
        inc: &mut IncrementalJac,
        f: &mut [f64],
        cache: &mut [DeviceLin],
        lat: &mut LatencyState,
    ) -> AssemblyStats {
        assert_eq!(x.len(), self.n_x, "state vector length");
        assert_eq!(f.len(), self.n_x, "residual length");
        assert_eq!(
            cache.len(),
            self.circuit.transistors.len(),
            "bypass cache length"
        );
        f.fill(0.0);
        let mut stats = AssemblyStats::default();

        // Linear Jacobian part: rebuilt only when its values changed.
        {
            let _s = tfet_obs::span("lin");
            inc.refresh_linear(gmin, caps, jac.pattern());
        }

        // Residual contributions of the linear elements (same order as
        // `assemble_into`, so the two paths agree term for term).
        for r in &self.circuit.resistors {
            let g = 1.0 / r.ohms;
            let i = g * (self.voltage_of(x, r.a) - self.voltage_of(x, r.b));
            self.stamp_current(f, r.a, r.b, i);
        }
        caps.stamp_residual(x, f);
        for s in &self.circuit.isources {
            self.stamp_current(f, s.from, s.to, s.wave.value(t));
        }

        // Phase 1: decide which devices need a fresh evaluation.
        let _s_decide = tfet_obs::span("decide");
        let (cells_refreshed, guard_refreshes) = lat.update_dormancy(x);
        stats.cells_refreshed += cells_refreshed;
        stats.guard_refreshes += guard_refreshes;
        let mut n_eval = 0usize;
        for (idx, m) in self.circuit.transistors.iter().enumerate() {
            let g = lat.owner.owner_of(idx);
            let eval = if g != GroupedIndices::UNGROUPED {
                if lat.dormant[g] {
                    stats.dormant += 1;
                    false
                } else {
                    true
                }
            } else {
                let e = &cache[idx];
                let vg = self.voltage_of(x, m.g);
                let vd = self.voltage_of(x, m.d);
                let vs = self.voltage_of(x, m.s);
                if e.valid
                    && (vg - e.vg).abs() < BYPASS_VTOL
                    && (vd - e.vd).abs() < BYPASS_VTOL
                    && (vs - e.vs).abs() < BYPASS_VTOL
                {
                    stats.bypassed += 1;
                    false
                } else {
                    true
                }
            };
            lat.eval_mask[idx] = eval;
            n_eval += eval as usize;
        }
        stats.evals += n_eval as u64;
        drop(_s_decide);
        let _s_eval = tfet_obs::span("eval");

        // Phase 2: evaluate marked devices (parallel when worthwhile).
        let eval_mask = &lat.eval_mask;
        let evaluate = |idx: usize, e: &mut DeviceLin| {
            let m = &self.circuit.transistors[idx];
            let vg = self.voltage_of(x, m.g);
            let vd = self.voltage_of(x, m.d);
            let vs = self.voltage_of(x, m.s);
            *e = DeviceLin::evaluate(m, vg, vd, vs);
        };
        let threads = assembly_threads();
        if n_eval >= PAR_EVAL_MIN && threads > 1 {
            par_for_each_mut(cache, Some(threads), |idx, e| {
                if eval_mask[idx] {
                    evaluate(idx, e);
                }
            });
        } else {
            for (idx, e) in cache.iter_mut().enumerate() {
                if eval_mask[idx] {
                    evaluate(idx, e);
                }
            }
        }

        drop(_s_eval);
        let _s_stamp = tfet_obs::span("stamp");
        // Phase 3: residual for every device; Jacobian deltas only for the
        // devices whose linearization changed this assembly.
        for (idx, m) in self.circuit.transistors.iter().enumerate() {
            let e = &cache[idx];
            let vg = self.voltage_of(x, m.g);
            let vd = self.voltage_of(x, m.d);
            let vs = self.voltage_of(x, m.s);
            let i = e.i + e.gm * (vg - e.vg) + e.gds * (vd - e.vd) + e.gss * (vs - e.vs);
            self.stamp_current(f, m.d, m.s, i);
            if lat.eval_mask[idx] {
                inc.restamp_device(idx, e);
            }
        }

        // Voltage sources: branch-current residuals (unit Jacobian entries
        // live in the linear part).
        for (k, v) in self.circuit.vsources.iter().enumerate() {
            let bi = self.branch_index(k);
            let i_br = x[bi];
            if let Some(rp) = self.row(v.plus) {
                f[rp] += i_br;
            }
            if let Some(rm) = self.row(v.minus) {
                f[rm] -= i_br;
            }
            f[bi] = self.voltage_of(x, v.plus) - self.voltage_of(x, v.minus) - v.wave.value(t);
        }

        // g_min residual (diagonal conductance is in the linear part).
        if gmin > 0.0 {
            if let Some(anchor) = anchor {
                assert!(anchor.len() >= self.n_v, "anchor length");
            }
            for n in 0..self.n_v {
                let target = anchor.map_or(0.0, |a| a[n]);
                f[n] += gmin * (x[n] - target);
            }
        }

        drop(_s_stamp);
        stats
    }

    /// Visits every Jacobian coordinate `assemble` can ever touch —
    /// *structurally*, from the netlist alone, independent of bias.
    ///
    /// This over-approximates any single assembly: all four device
    /// capacitance branches (gs, gd, db, sb) are included — the transient's
    /// capacitor table holds every one whose terminals differ, at whatever
    /// value, zero included — and the full diagonal is included (g_min, UIC
    /// hold branches, and the sparse engine's static pivoting all want it).
    /// Extra structural zeros are harmless — the sparse analysis pivots on
    /// actual values.
    pub(crate) fn for_each_jacobian_entry(&self, mut visit: impl FnMut(usize, usize)) {
        fn cond(mna: &Mna<'_>, a: NodeId, b: NodeId, visit: &mut dyn FnMut(usize, usize)) {
            if let Some(ra) = mna.row(a) {
                visit(ra, ra);
                if let Some(rb) = mna.row(b) {
                    visit(ra, rb);
                }
            }
            if let Some(rb) = mna.row(b) {
                visit(rb, rb);
                if let Some(ra) = mna.row(a) {
                    visit(rb, ra);
                }
            }
        }
        for r in &self.circuit.resistors {
            cond(self, r.a, r.b, &mut visit);
        }
        for c in &self.circuit.capacitors {
            cond(self, c.a, c.b, &mut visit);
        }
        for m in &self.circuit.transistors {
            for (a, b) in [
                (m.g, m.s),
                (m.g, m.d),
                (m.d, Circuit::GND),
                (m.s, Circuit::GND),
            ] {
                cond(self, a, b, &mut visit);
            }
            if let Some(rd) = self.row(m.d) {
                if let Some(c) = self.row(m.g) {
                    visit(rd, c);
                }
                visit(rd, rd);
                if let Some(c) = self.row(m.s) {
                    visit(rd, c);
                }
            }
            if let Some(rs) = self.row(m.s) {
                if let Some(c) = self.row(m.g) {
                    visit(rs, c);
                }
                if let Some(c) = self.row(m.d) {
                    visit(rs, c);
                }
                visit(rs, rs);
            }
        }
        for (k, v) in self.circuit.vsources.iter().enumerate() {
            let bi = self.branch_index(k);
            if let Some(rp) = self.row(v.plus) {
                visit(rp, bi);
                visit(bi, rp);
            }
            if let Some(rm) = self.row(v.minus) {
                visit(rm, bi);
                visit(bi, rm);
            }
        }
        for i in 0..self.n_x {
            visit(i, i);
        }
    }

    /// Collects [`Mna::for_each_jacobian_entry`] into a coordinate list
    /// (duplicates included; `SparsityPattern::from_entries` merges them).
    pub(crate) fn pattern_entries(&self) -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        self.for_each_jacobian_entry(|r, c| v.push((r, c)));
        v
    }

    /// FNV-1a hash over the structural pattern (dimension + coordinates).
    ///
    /// Deterministic and computed once per `Mna` (the walk visits every
    /// Jacobian entry, which at array scale costs milliseconds): the
    /// thread-local solver workspace keys its sparse state on this, so
    /// same-topology runs reuse the symbolic analysis and a topology change
    /// forces a rebuild.
    pub(crate) fn pattern_signature(&self) -> u64 {
        *self
            .pattern_sig
            .get_or_init(|| self.compute_pattern_signature())
    }

    /// The walk behind [`Mna::pattern_signature`], uncached.
    pub(crate) fn compute_pattern_signature(&self) -> u64 {
        #[cfg(test)]
        tests::SIGNATURES_COMPUTED.with(|n| n.set(n.get() + 1));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.n_x as u64);
        self.for_each_jacobian_entry(|r, c| mix((r * self.n_x + c + 1) as u64));
        h
    }

    /// The pattern signature combined with the circuit's latency
    /// partitions, memoised like it: the key of the workspace's
    /// latency-tier state.
    pub(crate) fn partition_signature(&self) -> u64 {
        *self.partition_sig.get_or_init(|| {
            partition_signature(self.pattern_signature(), self.circuit.latency_partitions())
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use std::cell::Cell;

    thread_local! {
        /// Pattern-signature computations on this thread: the memo must
        /// walk the pattern once per `Mna`, never once per solve.
        pub(crate) static SIGNATURES_COMPUTED: Cell<u64> = const { Cell::new(0) };
    }

    #[test]
    fn divider_residual_is_zero_at_solution() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor(a, b, 1e3);
        c.resistor(b, Circuit::GND, 1e3);
        let mna = Mna::new(&c).unwrap();
        assert_eq!(mna.unknown_count(), 3); // a, b, branch

        // Known solution: v_a = 1, v_b = 0.5, i_br = −0.5 mA.
        let x = vec![1.0, 0.5, -0.5e-3];
        let mut j = Matrix::zeros(3, 3);
        let mut f = vec![0.0; 3];
        mna.assemble(&x, 0.0, 0.0, None, None, &mut j, &mut f);
        for (k, r) in f.iter().enumerate() {
            assert!(r.abs() < 1e-12, "residual {k} = {r:e}");
        }
    }

    #[test]
    fn jacobian_matches_finite_difference_of_residual() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V", a, Circuit::GND, Waveform::dc(0.8));
        c.resistor(a, b, 2e3);
        c.resistor(b, Circuit::GND, 5e3);
        let mna = Mna::new(&c).unwrap();
        let n = mna.unknown_count();
        let x = vec![0.7, 0.3, 1e-4];
        let mut j = Matrix::zeros(n, n);
        let mut f0 = vec![0.0; n];
        mna.assemble(&x, 0.0, 0.0, None, None, &mut j, &mut f0);

        let h = 1e-7;
        for col in 0..n {
            let mut xp = x.clone();
            xp[col] += h;
            let mut jp = Matrix::zeros(n, n);
            let mut fp = vec![0.0; n];
            mna.assemble(&xp, 0.0, 0.0, None, None, &mut jp, &mut fp);
            for row in 0..n {
                let fd = (fp[row] - f0[row]) / h;
                assert!(
                    (j[(row, col)] - fd).abs() < 1e-4 * j[(row, col)].abs().max(1.0),
                    "J[{row}][{col}] = {} vs FD {fd}",
                    j[(row, col)]
                );
            }
        }
    }

    #[test]
    fn memoised_signatures_equal_fresh_computations() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor(a, b, 1e3);
        c.capacitor(b, Circuit::GND, 1e-15);
        let mna = Mna::new(&c).unwrap();
        let before = SIGNATURES_COMPUTED.with(Cell::get);
        let sig = mna.pattern_signature();
        let part = mna.partition_signature();
        assert_eq!(mna.pattern_signature(), sig);
        assert_eq!(mna.partition_signature(), part);
        assert_eq!(
            SIGNATURES_COMPUTED.with(Cell::get) - before,
            1,
            "one pattern walk per Mna"
        );
        assert_eq!(sig, mna.compute_pattern_signature());
        assert_eq!(part, partition_signature(sig, c.latency_partitions()));
        assert_eq!(sig, Mna::new(&c).unwrap().pattern_signature());
    }

    #[test]
    fn empty_circuit_rejected() {
        let c = Circuit::new();
        assert!(matches!(Mna::new(&c), Err(SimError::InvalidCircuit(_))));
    }

    #[test]
    fn gmin_adds_diagonal_conductance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.isource(Circuit::GND, a, Waveform::dc(1e-6));
        let mna = Mna::new(&c).unwrap();
        let mut j = Matrix::zeros(1, 1);
        let mut f = vec![0.0];
        // With gmin = 1e-3 and v_a = 1 mV, the node balances: 1 µA in,
        // 1 µA out through gmin.
        mna.assemble(&[1e-3], 0.0, 1e-3, None, None, &mut j, &mut f);
        assert!((f[0]).abs() < 1e-15);
        assert!((j[(0, 0)] - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn companion_caps_stamp_like_conductances() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, Circuit::GND, 1e3);
        let mna = Mna::new(&c).unwrap();
        let caps = CompanionCaps::from_branches([(a, Circuit::GND, 1e-3, -0.5e-3)]);
        let mut j = Matrix::zeros(1, 1);
        let mut f = vec![0.0];
        // v_a such that resistor + companion currents cancel:
        // v/1e3 + 1e-3·v − 0.5e-3 = 0 → v = 0.25.
        mna.assemble(&[0.25], 0.0, 0.0, None, Some(&caps), &mut j, &mut f);
        assert!(f[0].abs() < 1e-15, "f = {:e}", f[0]);
        assert!((j[(0, 0)] - 2e-3).abs() < 1e-18);
    }
}
