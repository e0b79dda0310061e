//! Modified nodal analysis: Jacobian and residual assembly.
//!
//! The unknown vector is `x = [v_1 … v_{N-1}, i_1 … i_M]`: the voltages of
//! every non-ground node followed by the branch currents of the `M`
//! independent voltage sources. The nonlinear system `f(x) = 0` collects a
//! KCL residual (sum of currents *leaving* the node) per node and a
//! branch-voltage constraint per source; [`Mna::assemble`] evaluates `f` and
//! its Jacobian at a candidate `x` so Newton–Raphson can iterate.

use crate::error::SimError;
use crate::latency::{lock, partition_signature, LatencyState};
use crate::netlist::{Circuit, NodeId, Transistor};
use crate::pool::{Pool, SharedF64, Volts};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use tfet_numerics::{Matrix, SparseMatrix, SparsityPattern};

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

/// Slot-searched stamping: the reference the stamp-plan targets
/// ([`RecordJac`], [`PlanJac`]) are tested against.
#[cfg(test)]
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

/// Records a stamp plan: stamps into a [`SparseMatrix`] like it, searching
/// each add's slot ([`SparsityPattern::slot`]) and appending it to `plan`,
/// in stamp order.
pub(crate) struct RecordJac<'a> {
    pub(crate) jac: &'a mut SparseMatrix,
    pub(crate) plan: &'a mut Vec<u32>,
}

impl JacTarget for RecordJac<'_> {
    fn clear(&mut self) {
        self.jac.clear();
        self.plan.clear();
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        let slot = self
            .jac
            .pattern()
            .slot(r, c)
            .unwrap_or_else(|| panic!("stamp at ({r},{c}) outside sparsity pattern"));
        self.plan
            .push(u32::try_from(slot).expect("Jacobian slot count fits in u32"));
        self.jac.values_mut()[slot] += v;
    }
}

/// Replays a stamp plan [`RecordJac`] recorded: the `k`-th add goes to the
/// plan's `k`-th slot, with no search. The plan is valid for a pass that
/// makes the recorded adds in the recorded order.
pub(crate) struct PlanJac<'a> {
    pub(crate) jac: &'a mut SparseMatrix,
    pub(crate) plan: std::slice::Iter<'a, u32>,
}

impl JacTarget for PlanJac<'_> {
    fn clear(&mut self) {
        self.jac.clear();
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        let slot = *self.plan.next().expect("stamp plan shorter than its pass") as usize;
        debug_assert_eq!(
            self.jac.pattern().slot(r, c),
            Some(slot),
            "stamp plan out of step at ({r},{c})"
        );
        self.jac.values_mut()[slot] += v;
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
///   and even then as one gather per slot ([`LinGather`]): the static
///   stamps (resistors, voltage-source units, precomputed once), then the
///   slot's companion conductances in branch order, then g_min — the adds,
///   in the order, that stamping the branches one by one would make;
/// * `trans_values` — the transistor part, maintained by
///   subtract-old/add-new deltas through per-device precomputed slots
///   whenever a device is freshly evaluated.
///
/// The full matrix `lin_values + trans_values` is composed as one O(nnz)
/// vector add into `composed` — replacing O(devices) slot-searched stamps —
/// and only when something reads it: an assembly leaves the matrix stale
/// ([`JacStale::Compose`](crate::workspace::JacStale::Compose)), and the
/// solver composes before a refactorization or a consistency check, the only
/// readers, which read `composed` in place. An iteration that reuses a
/// factorization never pays for it. Repeated subtract/add cycles drift
/// `trans_values` by at most a few ulps per refresh (the deltas are exact
/// floating-point values, not accumulated sums), far inside Newton's
/// convergence tolerance, and every delta is applied serially in netlist
/// order so results stay independent of thread count. The gather and the
/// composition are per-slot, so a run's helper pool splits them by slot.
#[derive(Debug, Default)]
pub(crate) struct IncrementalJac {
    /// Per-transistor slots `[(rd,cg),(rd,rd),(rd,cs),(rs,cg),(rs,cd),(rs,rs)]`,
    /// `NO_SLOT` where a terminal is ground.
    tslots: Vec<[usize; 6]>,
    /// The linearization currently stamped in `trans_values`, per device.
    stamped: Vec<DeviceLin>,
    /// Linear-part values (resistors, cap conductances, vsource units, gmin).
    lin_values: SharedF64,
    /// Transistor conductance values.
    trans_values: SharedF64,
    /// `lin_values + trans_values` as of the latest composition.
    pub(crate) composed: SharedF64,
    /// Bias-independent linear stamps (resistors, vsource units), built once.
    static_values: Arc<Vec<f64>>,
    /// Diagonal slot per voltage node, for the g_min contribution.
    diag_slots: Vec<usize>,
    /// The linear part's per-slot gather over the companion list whose
    /// layout stamp is `cap_layout`.
    gather: Arc<LinGather>,
    /// Layout stamp of the companion list `gather` was built for (0: none
    /// yet).
    cap_layout: u64,
    /// Mutation stamp of the companion list `lin_values` was built from.
    lin_gen: u64,
    /// The g_min `lin_values` was built with.
    lin_gmin: f64,
    /// False until the first linear rebuild.
    lin_valid: bool,
}

/// Marks a [`LinGather`] term that subtracts its branch's conductance.
const NEG_TERM: u32 = 1 << 31;
/// The [`LinGather`] term that adds g_min (last in a diagonal slot).
const GMIN_TERM: u32 = u32::MAX;

/// The companion and g_min terms of every Jacobian slot's linear part, in
/// the order stamping adds them: per branch in layout order, its
/// `(ra,ra) +geq, (ra,rb) −geq, (rb,rb) +geq, (rb,ra) −geq` entries; then
/// g_min on each voltage node's diagonal.
#[derive(Debug, Default)]
struct LinGather {
    /// `offsets[s]..offsets[s + 1]` indexes `terms` for slot `s`.
    offsets: Vec<usize>,
    /// Branch index (with [`NEG_TERM`] set for a subtraction), or
    /// [`GMIN_TERM`].
    terms: Vec<u32>,
    /// Slot bounds of `chunks` chunks of near-equal gather work.
    bounds: Vec<usize>,
}

/// The distinct KCL rows among `rows`, ground's left out, in order: the
/// columns an item with entries in those columns lists for
/// [`SparsityPattern::for_each_column_item`].
fn distinct_rows<const K: usize>(rows: [u32; K]) -> impl Iterator<Item = usize> {
    (0..K)
        .filter(move |&i| rows[i] != NO_ROW && !rows[..i].contains(&rows[i]))
        .map(move |i| rows[i] as usize)
}

impl LinGather {
    /// Builds the gather of the companion branches `rows` over `pattern`,
    /// split into `chunks` chunks.
    fn build(
        rows: &[(u32, u32)],
        pattern: &SparsityPattern,
        diag_slots: &[usize],
        chunks: usize,
    ) -> LinGather {
        assert!(rows.len() < NEG_TERM as usize, "companion branch count");
        // Emits every branch term `(slot, term)`, column by column: each
        // slot's terms in branch order, a branch's in entry order.
        let branch_terms = |emit: &mut dyn FnMut(usize, u32)| {
            pattern.for_each_column_item(
                rows.len(),
                |b| distinct_rows([rows[b].0, rows[b].1]),
                |c, b, map| {
                    let ((ra, rb), t) = (rows[b], b as u32);
                    let entries = [
                        (ra, ra, t),
                        (ra, rb, t | NEG_TERM),
                        (rb, rb, t),
                        (rb, ra, t | NEG_TERM),
                    ];
                    for (r, col, term) in entries {
                        if col as usize == c && r != NO_ROW {
                            let s = map.slot(r as usize).unwrap_or_else(|| {
                                panic!("companion slot ({r},{c}) outside sparsity pattern")
                            });
                            emit(s, term);
                        }
                    }
                },
            );
        };
        let nnz = pattern.nnz();
        let mut offsets = vec![0usize; nnz + 1];
        branch_terms(&mut |s, _| offsets[s + 1] += 1);
        for &s in diag_slots {
            offsets[s + 1] += 1;
        }
        for s in 0..nnz {
            offsets[s + 1] += offsets[s];
        }
        let mut terms = vec![0u32; offsets[nnz]];
        let mut fill = offsets[..nnz].to_vec();
        let mut place = |s: usize, term: u32| {
            terms[fill[s]] = term;
            fill[s] += 1;
        };
        branch_terms(&mut place);
        for &s in diag_slots {
            place(s, GMIN_TERM);
        }
        let mut gather = LinGather {
            offsets,
            terms,
            bounds: Vec::new(),
        };
        gather.split(chunks);
        gather
    }

    /// The gather [`LinGather::build`] replaced, one slot search per term
    /// and pass: the oracle its tests compare against.
    #[cfg(test)]
    fn build_searched(
        rows: &[(u32, u32)],
        pattern: &SparsityPattern,
        diag_slots: &[usize],
        chunks: usize,
    ) -> LinGather {
        let slot = |r: u32, c: u32| {
            if r == NO_ROW || c == NO_ROW {
                NO_SLOT
            } else {
                pattern.slot(r as usize, c as usize).expect("in pattern")
            }
        };
        let branch_terms = rows.iter().enumerate().flat_map(|(b, &(ra, rb))| {
            [
                (slot(ra, ra), b as u32),
                (slot(ra, rb), b as u32 | NEG_TERM),
                (slot(rb, rb), b as u32),
                (slot(rb, ra), b as u32 | NEG_TERM),
            ]
            .into_iter()
            .filter(|&(s, _)| s != NO_SLOT)
        });
        let all_terms = || {
            branch_terms
                .clone()
                .chain(diag_slots.iter().map(|&s| (s, GMIN_TERM)))
        };
        let nnz = pattern.nnz();
        let mut offsets = vec![0usize; nnz + 1];
        for (s, _) in all_terms() {
            offsets[s + 1] += 1;
        }
        for s in 0..nnz {
            offsets[s + 1] += offsets[s];
        }
        let mut terms = vec![0u32; offsets[nnz]];
        let mut fill = offsets.clone();
        for (s, term) in all_terms() {
            terms[fill[s]] = term;
            fill[s] += 1;
        }
        let mut gather = LinGather {
            offsets,
            terms,
            bounds: Vec::new(),
        };
        gather.split(chunks);
        gather
    }

    /// Splits the slots into `chunks` contiguous chunks of near-equal work
    /// (one unit per slot plus one per term).
    fn split(&mut self, chunks: usize) {
        let nnz = self.offsets.len() - 1;
        let work = |s: usize| s + self.offsets[s];
        let total = work(nnz);
        let mut s = 0;
        self.bounds.clear();
        self.bounds.push(0);
        for k in 1..chunks {
            let target = total * k / chunks;
            while s < nnz && work(s) < target {
                s += 1;
            }
            self.bounds.push(s);
        }
        self.bounds.push(nnz);
    }

    /// Number of chunks.
    fn chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Writes the linear part of chunk `k`'s slots into `lin`: each slot's
    /// static value, plus its terms in order over the conductances `geq`
    /// (g_min terms only when `gmin > 0`).
    fn run(&self, k: usize, statics: &[f64], geq: &SharedF64, gmin: f64, lin: &SharedF64) {
        let slots = self.bounds[k]..self.bounds[k + 1];
        let ends = self.offsets[slots.start..=slots.end].windows(2);
        for ((out, &v), w) in lin
            .cells(slots.clone())
            .iter()
            .zip(&statics[slots])
            .zip(ends)
        {
            let mut v = v;
            for &t in &self.terms[w[0]..w[1]] {
                if t == GMIN_TERM {
                    if gmin > 0.0 {
                        v += gmin;
                    }
                } else if t & NEG_TERM != 0 {
                    v += -geq.get((t & !NEG_TERM) as usize);
                } else {
                    v += geq.get(t as usize);
                }
            }
            out.set(v);
        }
    }
}

impl IncrementalJac {
    /// Builds the per-device slot tables for `mna`'s circuit over `pattern`
    /// and zeroes both value arrays.
    pub(crate) fn build(mna: &Mna<'_>, pattern: &SparsityPattern) -> Self {
        let nnz = pattern.nnz();
        let devices = &mna.circuit.transistors;
        let terminals = |d: usize| {
            let m = &devices[d];
            [m.d, m.g, m.s].map(row_of)
        };
        let mut tslots = vec![[NO_SLOT; 6]; devices.len()];
        pattern.for_each_column_item(
            devices.len(),
            |d| distinct_rows(terminals(d)),
            |c, d, map| {
                let [rd, cg, rs] = terminals(d);
                let entries = [(rd, cg), (rd, rd), (rd, rs), (rs, cg), (rs, rd), (rs, rs)];
                for (slot, (r, col)) in tslots[d].iter_mut().zip(entries) {
                    if col as usize == c && r != NO_ROW {
                        *slot = map.slot(r as usize).unwrap_or_else(|| {
                            panic!("transistor slot ({r},{c}) outside sparsity pattern")
                        });
                    }
                }
            },
        );
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
            lin_values: SharedF64::zeros(nnz),
            trans_values: SharedF64::zeros(nnz),
            composed: SharedF64::zeros(nnz),
            static_values: Arc::new(static_values),
            diag_slots,
            gather: Arc::default(),
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
    /// The rebuild is the per-slot [`LinGather`], split across `pool`'s
    /// threads when there is one. The gather is rebuilt only when the list's
    /// layout stamp changed — once per transient run for its hold solve
    /// and once for its steps — so the steady path does no slot search and
    /// no membership compare.
    fn refresh_linear(
        &mut self,
        gmin: f64,
        caps: &CompanionCaps,
        pattern: &SparsityPattern,
        pool: Option<&Pool<'_>>,
    ) {
        if self.lin_valid && self.lin_gmin == gmin && self.lin_gen == caps.generation() {
            return;
        }
        let chunks = pool.map_or(1, Pool::chunks);
        if self.cap_layout != caps.layout() {
            self.gather = Arc::new(LinGather::build(
                caps.rows(),
                pattern,
                &self.diag_slots,
                chunks,
            ));
            self.cap_layout = caps.layout();
        } else if self.gather.chunks() != chunks {
            Arc::get_mut(&mut self.gather)
                .expect("no job holds the gather between passes")
                .split(chunks);
        }
        match pool {
            None => self
                .gather
                .run(0, &self.static_values, &caps.geq, gmin, &self.lin_values),
            Some(pool) => {
                let gather = Arc::clone(&self.gather);
                let statics = Arc::clone(&self.static_values);
                let (geq, lin) = (caps.geq.alias(), self.lin_values.alias());
                pool.run(chunks, move |k| gather.run(k, &statics, &geq, gmin, &lin));
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
        fresh.refresh_linear(self.lin_gmin, caps, pattern, None);
        let bits = |v: &SharedF64| v.iter().map(f64::to_bits).collect::<Vec<_>>();
        bits(&self.lin_values) == bits(&fresh.lin_values)
    }

    /// Replaces device `idx`'s contribution in `trans_values`: subtracts the
    /// previously stamped linearization, adds `e`, records `e` as stamped.
    #[inline]
    fn restamp_device(&mut self, idx: usize, e: &DeviceLin) {
        let slots = self.tslots[idx];
        let old = self.stamped[idx];
        let trans = &self.trans_values;
        if old.valid {
            for (s, v) in slots
                .iter()
                .zip([old.gm, old.gds, old.gss, -old.gm, -old.gds, -old.gss])
            {
                if *s != NO_SLOT {
                    trans.set(*s, trans.get(*s) - v);
                }
            }
        }
        for (s, v) in slots
            .iter()
            .zip([e.gm, e.gds, e.gss, -e.gm, -e.gds, -e.gss])
        {
            if *s != NO_SLOT {
                trans.set(*s, trans.get(*s) + v);
            }
        }
        self.stamped[idx] = *e;
    }

    /// Composes `lin_values + trans_values` into `composed`, split by slot
    /// across `pool`'s threads when there is one.
    pub(crate) fn compose(&self, pool: Option<&Pool<'_>>) {
        let _s = tfet_obs::span("compose");
        let compose = |slots: Range<usize>, lin: &SharedF64, trans: &SharedF64, out: &SharedF64| {
            let sums = lin
                .cells(slots.clone())
                .iter()
                .zip(trans.cells(slots.clone()));
            for (out, (l, t)) in out.cells(slots).iter().zip(sums) {
                out.set(l.get() + t.get());
            }
        };
        let n = self.composed.len();
        match pool {
            None => compose(0..n, &self.lin_values, &self.trans_values, &self.composed),
            Some(pool) => {
                let chunks = pool.chunks();
                let (lin, trans, out) = (
                    self.lin_values.alias(),
                    self.trans_values.alias(),
                    self.composed.alias(),
                );
                pool.run(chunks, move |k| {
                    compose(n * k / chunks..n * (k + 1) / chunks, &lin, &trans, &out);
                });
            }
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
    pub(crate) fn evaluate(m: &Transistor, vg: f64, vd: f64, vs: f64) -> DeviceLin {
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

impl AssemblyStats {
    /// Adds `other`'s counts into these.
    pub(crate) fn add(&mut self, other: &AssemblyStats) {
        self.evals += other.evals;
        self.bypassed += other.bypassed;
        self.dormant += other.dormant;
        self.cells_refreshed += other.cells_refreshed;
        self.guard_refreshes += other.guard_refreshes;
    }
}

/// Sentinel row for a ground terminal (no KCL equation).
pub(crate) const NO_ROW: u32 = u32::MAX;

/// KCL row of `node`, or [`NO_ROW`] for ground.
#[inline]
pub(crate) fn row_of(node: NodeId) -> u32 {
    if node.is_ground() {
        NO_ROW
    } else {
        u32::try_from(node.index() - 1).expect("node count fits in u32")
    }
}

/// Voltage at KCL row `r` of the unknown vector `x` (0 for ground).
#[inline]
fn voltage_at(x: &[f64], r: u32) -> f64 {
    if r == NO_ROW {
        0.0
    } else {
        x[r as usize]
    }
}

/// Adds a current `i` flowing from row `ra` to row `rb` into the residual
/// (ground rows take no equation).
#[inline]
fn stamp_current_rows(f: &mut [f64], ra: u32, rb: u32, i: f64) {
    if ra != NO_ROW {
        f[ra as usize] += i;
    }
    if rb != NO_ROW {
        f[rb as usize] -= i;
    }
}

/// Takes a stamp unique across every [`CompanionCaps`] mutation and layout
/// in the process, so two equal stamps always mean the same thing.
fn next_stamp() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
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
/// carries the terminals' KCL rows precomputed (a sentinel for ground), so
/// the residual and Jacobian loops index the unknown vector directly. Each
/// step rewrites only the values, which live in shared arrays so a
/// run's helper pool can write them chunk by chunk. Two stamps track the
/// list: the layout stamp changes only when the branches themselves change,
/// the generation stamp on every mutation; both are unique across all
/// instances (never-laid-out lists stay at 0).
#[derive(Debug, Clone, Default)]
pub struct CompanionCaps {
    /// `(ra, rb)` per branch: the KCL rows of its terminals.
    rows: Arc<Vec<(u32, u32)>>,
    /// Companion conductance per branch.
    pub(crate) geq: SharedF64,
    /// Companion current per branch, flowing a→b.
    pub(crate) ieq: SharedF64,
    /// Layout stamp: which branch list `rows` holds.
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
        let branches: Vec<_> = branches.into_iter().collect();
        let mut caps = CompanionCaps::default();
        caps.set_layout(branches.iter().map(|&(a, b, _, _)| (a, b)));
        for (k, &(_, _, geq, ieq)) in branches.iter().enumerate() {
            caps.geq.set(k, geq);
            caps.ieq.set(k, ieq);
        }
        caps
    }

    /// Lays the list out over the `(a, b)` branches, in order, with every
    /// value zeroed, and takes a fresh layout stamp. Reuses the buffers
    /// unless a job still holds them.
    pub(crate) fn set_layout(&mut self, branches: impl IntoIterator<Item = (NodeId, NodeId)>) {
        let rows = Arc::make_mut(&mut self.rows);
        rows.clear();
        rows.extend(branches.into_iter().map(|(a, b)| (row_of(a), row_of(b))));
        let n = rows.len();
        self.geq.reset(n);
        self.ieq.reset(n);
        self.layout = next_stamp();
        self.touch();
    }

    /// Number of branches.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// `(ra, rb)` of every branch, in layout order.
    pub(crate) fn rows(&self) -> &[(u32, u32)] {
        &self.rows
    }

    /// A second handle on the same branches and values, for a job to own.
    pub(crate) fn alias(&self) -> CompanionCaps {
        CompanionCaps {
            rows: Arc::clone(&self.rows),
            geq: self.geq.alias(),
            ieq: self.ieq.alias(),
            layout: self.layout,
            generation: self.generation,
        }
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
        let all = 0..self.len();
        let values = self.geq.cells(all.clone()).iter().zip(self.ieq.cells(all));
        for (&(ra, rb), (geq, ieq)) in self.rows.iter().zip(values) {
            let v_ab = voltage_at(x, ra) - voltage_at(x, rb);
            stamp_current_rows(f, ra, rb, geq.get() * v_ab + ieq.get());
        }
    }

    /// Stamps every branch conductance into `j` — the same adds, in the same
    /// order, as one [`Mna::stamp_conductance`] per branch.
    fn stamp_conductances<J: JacTarget>(&self, j: &mut J) {
        for (k, &(ra_, rb_)) in self.rows.iter().enumerate() {
            let (ra, rb, g) = (ra_ as usize, rb_ as usize, self.geq.get(k));
            if ra_ != NO_ROW {
                j.add(ra, ra, g);
                if rb_ != NO_ROW {
                    j.add(ra, rb, -g);
                }
            }
            if rb_ != NO_ROW {
                j.add(rb, rb, g);
                if ra_ != NO_ROW {
                    j.add(rb, ra, -g);
                }
            }
        }
    }
}

/// The voltage `v_a − v_b` across a branch with KCL rows `(ra, rb)` in the
/// state `x`.
#[inline]
pub(crate) fn branch_voltage<X: Volts + ?Sized>(x: &X, (ra, rb): (u32, u32)) -> f64 {
    let at = |r: u32| if r == NO_ROW { 0.0 } else { x.at(r as usize) };
    at(ra) - at(rb)
}

/// Assembled view of a circuit, ready for repeated Jacobian/residual
/// evaluation.
///
/// One `Mna` serves one analysis (a transient run or a DC solve) over a
/// borrowed, immutable circuit, so the topology it describes cannot change
/// while it lives: the structural signatures the solver workspace keys its
/// cached state on are computed on first use and memoised here. A large
/// partitioned transient also carries its run's helper pool here, which
/// every pooled pass of the analysis reaches through it.
#[derive(Debug)]
pub struct Mna<'c> {
    circuit: &'c Circuit,
    /// The run's helper pool, if it started one.
    pool: Option<Pool<'c>>,
    /// Non-ground node count (voltage unknowns).
    n_v: usize,
    /// Total unknowns (`n_v` + voltage-source branch currents).
    n_x: usize,
    /// Memoised [`Mna::pattern_signature`].
    pattern_sig: OnceLock<u64>,
    /// Memoised [`Mna::partition_signature`].
    partition_sig: OnceLock<u64>,
    /// Memoised [`Mna::stamp_signature`].
    stamp_sig: OnceLock<u64>,
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
            pool: None,
            n_v,
            n_x,
            pattern_sig: OnceLock::new(),
            partition_sig: OnceLock::new(),
            stamp_sig: OnceLock::new(),
        })
    }

    /// Attaches a run's helper pool: every pooled pass of this analysis
    /// splits its work across it.
    pub(crate) fn with_pool(mut self, pool: Pool<'c>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The analysis's helper pool, if it has one.
    pub(crate) fn pool(&self) -> Option<&Pool<'c>> {
        self.pool.as_ref()
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
    pub fn circuit(&self) -> &'c Circuit {
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
        self.stamp_linear_residual(x, t, caps, f);

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
        self.stamp_source_residual(x, t, gmin, anchor, f);
        stats
    }

    /// The residual of the linear elements stamped before the transistors:
    /// resistors, companion capacitors (transient only), current sources.
    fn stamp_linear_residual(
        &self,
        x: &[f64],
        t: f64,
        caps: Option<&CompanionCaps>,
        f: &mut [f64],
    ) {
        for r in &self.circuit.resistors {
            let g = 1.0 / r.ohms;
            let i = g * (self.voltage_of(x, r.a) - self.voltage_of(x, r.b));
            self.stamp_current(f, r.a, r.b, i);
        }
        if let Some(caps) = caps {
            caps.stamp_residual(x, f);
        }
        for s in &self.circuit.isources {
            self.stamp_current(f, s.from, s.to, s.wave.value(t));
        }
    }

    /// The residual stamped after the transistors: each voltage source's
    /// branch current and branch equation, then the g_min convergence aid —
    /// a conductance from every node toward its anchor (ground when no
    /// anchor is given).
    fn stamp_source_residual(
        &self,
        x: &[f64],
        t: f64,
        gmin: f64,
        anchor: Option<&[f64]>,
        f: &mut [f64],
    ) {
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
        if gmin > 0.0 {
            if let Some(anchor) = anchor {
                assert!(anchor.len() >= self.n_v, "anchor length");
            }
            for n in 0..self.n_v {
                let target = anchor.map_or(0.0, |a| a[n]);
                f[n] += gmin * (x[n] - target);
            }
        }
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
    ///    refresh-point references, then mark each device: partition
    ///    members evaluate iff their cell is not dormant, ungrouped devices
    ///    keep the per-device bypass test ([`LatencyShard::decide`]).
    /// 2. **evaluate** — run the marked device models
    ///    ([`LatencyShard::evaluate`]). Each evaluation writes only its own
    ///    cache slot and depends only on `x`.
    ///
    ///    Both phases work shard by shard; with a helper pool each is one
    ///    pooled pass over the shards, bit-deterministic at any thread count.
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
    ///    ([`IncrementalJac::compose`]).
    ///
    /// On an array where >90 % of cells are dormant this turns the dominant
    /// per-iteration cost — thousands of slot-searched stamps for devices
    /// whose conductances have not changed — into slot updates for the
    /// freshly evaluated devices alone, plus one O(nnz) vector add per
    /// refactorization or consistency check. The fixed serial order of every
    /// Jacobian delta keeps results independent of thread count.
    #[allow(clippy::too_many_arguments)] // solver-internal hot path
    pub(crate) fn assemble_sparse_latent(
        &self,
        x: &[f64],
        t: f64,
        gmin: f64,
        anchor: Option<&[f64]>,
        caps: &CompanionCaps,
        pattern: &SparsityPattern,
        inc: &mut IncrementalJac,
        f: &mut [f64],
        lat: &mut LatencyState,
    ) -> AssemblyStats {
        assert_eq!(x.len(), self.n_x, "state vector length");
        assert_eq!(f.len(), self.n_x, "residual length");
        f.fill(0.0);

        // Linear Jacobian part: rebuilt only when its values changed.
        {
            let _s = tfet_obs::span("lin");
            inc.refresh_linear(gmin, caps, pattern, self.pool());
        }

        // The linear residual, stamped in `assemble_residual`'s order so the
        // two paths agree term for term (the Jacobian's linear entries,
        // voltage-source units and g_min diagonal included, live in the
        // linear part); then phases 1 and 2: decide which devices need a
        // fresh evaluation, and evaluate them. With a pool, the helpers
        // decide while this thread stamps the linear residual, which reads
        // nothing they write.
        match self.pool() {
            Some(pool) => {
                let xs = pool.share_x(x);
                let n = lat.shards().len();
                let (shards, xs_decide) = (lat.shards_handle(), xs.alias());
                let deciding = pool.submit(n, move |k| lock(&shards[k]).decide(&xs_decide));
                self.stamp_linear_residual(x, t, Some(caps), f);
                {
                    let _s = tfet_obs::span("decide");
                    deciding.join();
                }
                let _s = tfet_obs::span("eval");
                let (shards, circuit) = (lat.shards_handle(), self.circuit);
                pool.run(n, move |k| lock(&shards[k]).evaluate(circuit, &xs));
            }
            None => {
                self.stamp_linear_residual(x, t, Some(caps), f);
                let mut shard = lock(&lat.shards()[0]);
                {
                    let _s = tfet_obs::span("decide");
                    shard.decide(x);
                }
                let _s = tfet_obs::span("eval");
                shard.evaluate(self.circuit, x);
            }
        }

        let _s_stamp = tfet_obs::span("stamp");
        // Phase 3: residual for every device; Jacobian deltas only for the
        // devices whose linearization changed this assembly.
        let mut stats = AssemblyStats::default();
        for shard in lat.shards() {
            let shard = lock(shard);
            stats.add(&shard.stats);
            let rows = shard.terminal_rows.iter().zip(&shard.eval_mask);
            for (k, (e, (&[rg, rd, rs], &evaluated))) in shard.cache.iter().zip(rows).enumerate() {
                let (vg, vd, vs) = (voltage_at(x, rg), voltage_at(x, rd), voltage_at(x, rs));
                let i = e.i + e.gm * (vg - e.vg) + e.gds * (vd - e.vd) + e.gss * (vs - e.vs);
                stamp_current_rows(f, rd, rs, i);
                if evaluated {
                    inc.restamp_device(shard.dev0 + k, e);
                }
            }
        }
        drop(_s_stamp);

        self.stamp_source_residual(x, t, gmin, anchor, f);
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

    /// The sparsity pattern of every Jacobian `assemble` can make: the
    /// coordinates [`Mna::for_each_jacobian_entry`] visits, duplicates
    /// merged, built by counting ([`SparsityPattern::from_walk`]).
    pub(crate) fn sparsity_pattern(&self) -> SparsityPattern {
        SparsityPattern::from_walk(self.n_x, |visit| self.for_each_jacobian_entry(visit))
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

    /// FNV-1a hash over what fixes the `(row, col)` adds of
    /// [`Mna::stamp_jacobian`], in order, apart from its companions and
    /// g_min: the unknown counts and the terminal rows of every resistor,
    /// transistor and voltage source, in netlist order. Memoised like
    /// [`Mna::pattern_signature`], which it refines: a capacitor and a
    /// resistor on the same nodes add the same pattern entries, but only
    /// the resistor is stamped in every pass.
    pub(crate) fn stamp_signature(&self) -> u64 {
        *self.stamp_sig.get_or_init(|| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut mix = |v: u64| {
                h ^= v;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            };
            let row = |n: NodeId| self.row(n).map_or(0, |r| r as u64 + 1);
            let c = self.circuit;
            mix(self.n_v as u64);
            mix(self.n_x as u64);
            mix(c.resistors.len() as u64);
            for r in &c.resistors {
                mix(row(r.a));
                mix(row(r.b));
            }
            mix(c.transistors.len() as u64);
            for m in &c.transistors {
                mix(row(m.d));
                mix(row(m.g));
                mix(row(m.s));
            }
            mix(c.vsources.len() as u64);
            for v in &c.vsources {
                mix(row(v.plus));
                mix(row(v.minus));
            }
            h
        })
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

    /// A `rows x cols` array of 6T TFET cells on shared wordlines and
    /// bitline pairs — the hierarchical deck form of the array golden
    /// (`tests/golden/array_8x8.sp`), its pull-downs grounded — plus a
    /// load capacitor and a precharge resistor on every bitline.
    fn array_deck(rows: usize, cols: usize) -> String {
        let mut d = String::from(
            ".title 6t array\n\
             .subckt cell_6t q qb bl blb wl vdd vss\n\
             XMPU_L q qb vdd ptfet W=0.0600\n\
             XMPD_L q qb vss ntfet W=0.0600\n\
             XMPU_R qb q vdd ptfet W=0.0600\n\
             XMPD_R qb q vss ntfet W=0.0600\n\
             CQ q 0 1.5e-16\n\
             CQB qb 0 1.5e-16\n\
             XMAL q wl bl ptfet W=0.1000\n\
             XMAR qb wl blb ptfet W=0.1000\n\
             .ends\n\
             VVDD vdd 0 DC 0.8\n",
        );
        for r in 0..rows {
            d += &format!("VWL{r} wl{r} 0 DC 0.8\n");
        }
        for c in 0..cols {
            for line in [format!("bl{c}"), format!("blb{c}")] {
                d += &format!("R{line} vdd {line} 1e4\nC{line} {line} 0 2e-15\n");
            }
        }
        for r in 0..rows {
            for c in 0..cols {
                d += &format!("Xr{r}c{c} q{r}x{c} qb{r}x{c} bl{c} blb{c} wl{r} vdd 0 cell_6t\n");
            }
        }
        d + ".end\n"
    }

    /// The counting pattern build and the column-by-column slot lookups
    /// of a 16x16 array equal the sort-and-search oracle bit for bit: the
    /// pattern, every transistor and diagonal slot, and the gather offsets
    /// and terms of both companion layouts a transient uses — the UIC hold
    /// list and the capacitor table — as built directly and as the linear
    /// refresh builds them.
    #[test]
    fn array_slot_tables_equal_the_sort_and_search_oracle() {
        let deck = crate::Deck::parse(&array_deck(16, 16), &tfet_devices::standard_models())
            .expect("array deck parses");
        let c = &deck.circuit;
        assert_eq!(c.transistors.len(), 16 * 16 * 6);
        let mna = Mna::new(c).unwrap();
        let pattern = mna.sparsity_pattern();

        // The pattern: every visit, sorted column-major and deduplicated.
        let mut visits = Vec::new();
        mna.for_each_jacobian_entry(|r, c| visits.push((c, r)));
        assert!(visits.len() > 2 * pattern.nnz(), "duplicates merged");
        visits.sort_unstable();
        visits.dedup();
        let want: Vec<(usize, usize)> = visits.into_iter().map(|(c, r)| (r, c)).collect();
        assert_eq!(pattern.dim(), mna.unknown_count());
        assert_eq!(pattern.coords().collect::<Vec<_>>(), want);

        // Slots: one binary search each.
        let slot = |r: Option<usize>, c: Option<usize>| match (r, c) {
            (Some(r), Some(c)) => pattern.slot(r, c).expect("in pattern"),
            _ => NO_SLOT,
        };
        let mut inc = IncrementalJac::build(&mna, &pattern);
        let tslots: Vec<[usize; 6]> = c
            .transistors
            .iter()
            .map(|m| {
                let (rd, rs, cg) = (mna.row(m.d), mna.row(m.s), mna.row(m.g));
                [
                    slot(rd, cg),
                    slot(rd, rd),
                    slot(rd, rs),
                    slot(rs, cg),
                    slot(rs, rd),
                    slot(rs, rs),
                ]
            })
            .collect();
        assert!(
            tslots.iter().flatten().any(|&s| s == NO_SLOT),
            "grounded terminals"
        );
        assert_eq!(inc.tslots, tslots);
        let diag: Vec<usize> = (0..mna.n_v).map(|n| slot(Some(n), Some(n))).collect();
        assert_eq!(inc.diag_slots, diag);

        let hold = CompanionCaps::from_branches(
            (1..=mna.n_v).map(|i| (NodeId(i), Circuit::GND, 1e3, 0.0)),
        );
        let table = CompanionCaps::from_branches(c.cap_branches().map(|(a, b)| (a, b, 1e-4, 0.0)));
        assert!(table.len() > 16 * 16 * 6 * 3, "{} branches", table.len());
        let parts = |g: &LinGather| (g.offsets.clone(), g.terms.clone(), g.bounds.clone());
        for caps in [&hold, &table] {
            let oracle = LinGather::build_searched(caps.rows(), &pattern, &diag, 1);
            assert_eq!(
                parts(&LinGather::build(caps.rows(), &pattern, &diag, 1)),
                parts(&oracle)
            );
            inc.refresh_linear(1e-9, caps, &pattern, None);
            assert_eq!(parts(&inc.gather), parts(&oracle));
        }
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
