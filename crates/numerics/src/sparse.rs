//! Sparse (CSC) matrices with LU factorization split into one-time symbolic
//! analysis and cheap repeated numeric refactorization.
//!
//! Circuit Jacobians have a topology-fixed sparsity pattern: the nonzero
//! positions are decided by the netlist, only the *values* change between
//! Newton iterations. This module exploits that split:
//!
//! * [`SparsityPattern`] — an immutable CSC skeleton (column pointers + row
//!   indices), built once from the circuit topology.
//! * [`SparseMatrix`] — values laid over a pattern. Stamping writes into
//!   pre-resolved slots; [`SparseMatrix::clear`] + repeated
//!   [`SparseMatrix::add`] mirror the dense [`Matrix`] stamping
//!   API so MNA assembly is target-generic.
//! * [`SparseLu`] — the factorization engine. [`SparseLu::analyze`] runs once
//!   per pattern: it picks a fill-reducing column ordering (greedy minimum
//!   degree on the symmetrized pattern), pins a partial-pivot row order with
//!   a sparse Gilbert–Peierls left-looking factorization (O(flops), no dense
//!   scratch), computes the no-cancellation fill-in pattern of
//!   `P·A·Q = L·U`, and compiles a compact *replay script* (scatter map +
//!   one `u32` destination per update, see [`SparseLu`]).
//!   [`SparseLu::refactorize`] then replays that script over new values
//!   with zero allocation and zero index arithmetic beyond array reads —
//!   the cheap per-iteration path — and gathers the new factor values into
//!   row-major copies of `L` and `U`. [`SparseLu::solve_into`] solves one
//!   row at a time from those copies: each row is one contiguous run of
//!   `u32` column indices and values reduced into one accumulator, with the
//!   same floating-point operations in the same order as a column-by-column
//!   scatter, so the result is bit-identical to it.
//!
//! Pivoting is *static*: the row order chosen at analysis time is reused by
//! every refactorization. This is the standard circuit-simulator trade
//! (Jacobian values drift slowly, so a once-good pivot order stays good);
//! a refactorization that does hit a degenerate pivot reports
//! [`SolveError::Singular`] and callers can re-run [`SparseLu::analyze`] to
//! refresh the pivot order before giving up.
//!
//! Error taxonomy and workspace conventions (zero allocation after warmup,
//! `solve_into` with caller-owned buffers) follow `matrix.rs`.

use crate::matrix::{Matrix, SolveError, PIVOT_EPS};

/// Immutable CSC sparsity skeleton: which `(row, col)` slots exist.
///
/// Built once from a coordinate list or walk (duplicates are merged); value
/// storage lives in [`SparseMatrix`]. Row indices are sorted within each
/// column so slot lookup is a binary search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl SparsityPattern {
    /// Marks a row without an entry in a [`ColumnSlots`] map.
    const NO_SLOT: u32 = u32::MAX;

    /// Builds an `n x n` pattern from `(row, col)` coordinates.
    ///
    /// Duplicates are merged. Panics if any coordinate is out of range —
    /// patterns come from topology enumeration, so an out-of-range entry is
    /// a caller bug, not a data condition.
    pub fn from_entries(n: usize, entries: &[(usize, usize)]) -> Self {
        Self::from_walk(n, |visit| {
            for &(r, c) in entries {
                visit(r, c);
            }
        })
    }

    /// Builds an `n x n` pattern from the coordinates `walk` visits,
    /// duplicates merged: the pattern [`SparsityPattern::from_entries`]
    /// builds from the visits collected into a list, without the list.
    ///
    /// `walk` runs twice and must visit the same coordinates both times.
    /// The first run counts each column's visits, the second places them;
    /// each column is then deduplicated through a row marker and only its
    /// unique rows are sorted — O(n + visits) apart from those small sorts.
    ///
    /// Panics if any coordinate is out of range, or if the two runs visit
    /// different numbers of coordinates in some column.
    pub fn from_walk(n: usize, mut walk: impl FnMut(&mut dyn FnMut(usize, usize))) -> Self {
        let mut col_ptr = vec![0usize; n + 1];
        walk(&mut |r, c| {
            assert!(
                r < n && c < n,
                "pattern entry ({r},{c}) out of range for n={n}"
            );
            col_ptr[c + 1] += 1;
        });
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        // Column `c`'s visits, duplicates included, fill
        // `rows[col_ptr[c]..col_ptr[c + 1]]`; `next[c]` is its cursor.
        let mut rows = vec![0usize; col_ptr[n]];
        let mut next = col_ptr[..n].to_vec();
        walk(&mut |r, c| {
            assert!(next[c] < col_ptr[c + 1], "pattern walk not repeatable");
            rows[next[c]] = r;
            next[c] += 1;
        });
        assert!(next[..] == col_ptr[1..], "pattern walk not repeatable");
        // Compact in place: column `c`'s unique rows move down to start at
        // `kept`, which never passes the read position.
        let mut seen = vec![usize::MAX; n];
        let mut kept = 0;
        for c in 0..n {
            let (start, end) = (kept, col_ptr[c + 1]);
            for k in col_ptr[c]..end {
                let r = rows[k];
                if seen[r] != c {
                    seen[r] = c;
                    rows[kept] = r;
                    kept += 1;
                }
            }
            rows[start..kept].sort_unstable();
            col_ptr[c] = start;
        }
        col_ptr[n] = kept;
        rows.truncate(kept);
        rows.shrink_to_fit();
        SparsityPattern {
            n,
            col_ptr,
            row_idx: rows,
        }
    }

    /// The sort-and-dedup build [`SparsityPattern::from_walk`] replaced:
    /// the oracle its tests compare against.
    #[cfg(test)]
    pub(crate) fn from_entries_sorted(n: usize, entries: &[(usize, usize)]) -> Self {
        let mut coords: Vec<(usize, usize)> = Vec::with_capacity(entries.len());
        for &(r, c) in entries {
            assert!(
                r < n && c < n,
                "pattern entry ({r},{c}) out of range for n={n}"
            );
            coords.push((c, r)); // column-major sort key
        }
        coords.sort_unstable();
        coords.dedup();
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::with_capacity(coords.len());
        for &(c, r) in &coords {
            col_ptr[c + 1] += 1;
            row_idx.push(r);
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        SparsityPattern {
            n,
            col_ptr,
            row_idx,
        }
    }

    /// Matrix dimension (patterns are square).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Flat slot index of `(row, col)`, or `None` if outside the pattern.
    #[inline]
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.col_ptr[col];
        let hi = self.col_ptr[col + 1];
        self.row_idx[lo..hi]
            .binary_search(&row)
            .ok()
            .map(|i| lo + i)
    }

    /// Looks slots up one column at a time, through a row→slot map of the
    /// column: the batch form of [`SparsityPattern::slot`] for many
    /// lookups.
    ///
    /// `columns(k)` lists the columns item `k` (of `count`) looks slots up
    /// in, each once. Then, for every column `c` in ascending order and
    /// every item `k` that listed `c`, in ascending order, `visit(c, k,
    /// map)` runs, where [`map.slot(row)`](ColumnSlots::slot) is
    /// `self.slot(row, c)`.
    ///
    /// Two counting passes over the items bucket them by column; each
    /// listed column's rows are then scattered into the map once, and each
    /// lookup is one read — O(n + the listings + the listed columns'
    /// entries) instead of a binary search per lookup.
    ///
    /// Panics if a listed column is out of range, or if there are
    /// `u32::MAX` slots or items or more.
    pub fn for_each_column_item<I: IntoIterator<Item = usize>>(
        &self,
        count: usize,
        columns: impl Fn(usize) -> I,
        mut visit: impl FnMut(usize, usize, &ColumnSlots),
    ) {
        let n = self.n;
        assert!(
            self.nnz() < Self::NO_SLOT as usize && count <= u32::MAX as usize,
            "slot and item counts fit in u32"
        );
        // `start[c]..start[c + 1]` indexes column `c`'s items in `items`.
        let mut start = vec![0usize; n + 1];
        for k in 0..count {
            for c in columns(k) {
                assert!(c < n, "column {c} out of range for n={n}");
                start[c + 1] += 1;
            }
        }
        for c in 0..n {
            start[c + 1] += start[c];
        }
        let mut items = vec![0u32; start[n]];
        let mut next = start[..n].to_vec();
        for k in 0..count {
            for c in columns(k) {
                items[next[c]] = k as u32;
                next[c] += 1;
            }
        }
        drop(next);
        let mut map = ColumnSlots {
            at_row: vec![Self::NO_SLOT; n],
        };
        for c in 0..n {
            let listed = &items[start[c]..start[c + 1]];
            if listed.is_empty() {
                continue;
            }
            let entries = self.col_ptr[c]..self.col_ptr[c + 1];
            for s in entries.clone() {
                map.at_row[self.row_idx[s]] = s as u32;
            }
            for &k in listed {
                visit(c, k as usize, &map);
            }
            for s in entries {
                map.at_row[self.row_idx[s]] = Self::NO_SLOT;
            }
        }
    }

    /// Iterates `(row, col)` coordinates in column-major order.
    pub fn coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |c| {
            self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]]
                .iter()
                .map(move |&r| (r, c))
        })
    }

    /// `y = A·x` for the matrix over this pattern whose slot `k` holds
    /// `value(k)` (column-oriented, allocation-free): the matrix's values
    /// may live outside a [`SparseMatrix`].
    ///
    /// Panics if `x` or `y` has the wrong length.
    pub fn mul_vec_with(&self, value: impl Fn(usize) -> f64, x: &[f64], y: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n, "mul_vec x length");
        assert_eq!(y.len(), n, "mul_vec y length");
        y.fill(0.0);
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                y[self.row_idx[k]] += value(k) * xc;
            }
        }
    }
}

/// The row→slot map of one pattern column, handed out by
/// [`SparsityPattern::for_each_column_item`].
#[derive(Debug)]
pub struct ColumnSlots {
    /// Slot of `(row, column)` per row, `SparsityPattern::NO_SLOT` where
    /// the column has no entry.
    at_row: Vec<u32>,
}

impl ColumnSlots {
    /// The slot of `(row, column)`, or `None` if outside the pattern.
    #[inline]
    pub fn slot(&self, row: usize) -> Option<usize> {
        let s = self.at_row[row];
        (s != SparsityPattern::NO_SLOT).then_some(s as usize)
    }
}

/// Values laid over a [`SparsityPattern`]; the sparse analogue of
/// [`Matrix`] for stamping.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    pattern: SparsityPattern,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Zero matrix over `pattern`.
    pub fn new(pattern: SparsityPattern) -> Self {
        let values = vec![0.0; pattern.nnz()];
        SparseMatrix { pattern, values }
    }

    /// The underlying pattern.
    pub fn pattern(&self) -> &SparsityPattern {
        &self.pattern
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.pattern.n
    }

    /// Zeroes every stored value (the pattern is untouched).
    pub fn clear(&mut self) {
        self.values.fill(0.0);
    }

    /// Adds `v` at `(row, col)`. Panics if the slot is not in the pattern —
    /// stamping outside the pre-declared topology is a caller bug.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, v: f64) {
        let slot = self
            .pattern
            .slot(row, col)
            .unwrap_or_else(|| panic!("stamp at ({row},{col}) outside sparsity pattern"));
        self.values[slot] += v;
    }

    /// Stored value at `(row, col)`; zero for slots outside the pattern.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.pattern.slot(row, col).map_or(0.0, |s| self.values[s])
    }

    /// Flat value storage, in pattern (column-major) order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable flat value storage, in pattern (column-major) order — for
    /// callers that maintain the values incrementally (e.g. composing a
    /// rarely-changing linear part with per-device deltas) instead of
    /// re-stamping through [`SparseMatrix::add`].
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// `y = A·x` (column-oriented, allocation-free).
    ///
    /// Panics if `x` or `y` has the wrong length.
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        self.pattern.mul_vec_with(|k| self.values[k], x, y);
    }

    /// Densifies into a [`Matrix`] (tests and cross-checks).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.pattern.n, self.pattern.n);
        for (k, (r, c)) in self.pattern.coords().enumerate() {
            m.add(r, c, self.values[k]);
        }
        m
    }

    /// One-shot solve of `A x = b` (analysis + factorization + solve).
    ///
    /// Convenience for tests and cross-checks; hot paths hold a [`SparseLu`]
    /// and reuse its analysis. Error taxonomy matches
    /// [`Matrix::solve`](crate::Matrix::solve): [`SolveError::DimensionMismatch`]
    /// when `b` has the wrong length, [`SolveError::Singular`] from the
    /// factorization.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        if b.len() != self.pattern.n {
            return Err(SolveError::DimensionMismatch {
                expected: self.pattern.n,
                got: b.len(),
            });
        }
        let mut lu = SparseLu::new();
        lu.analyze(self)?;
        let mut x = vec![0.0; self.pattern.n];
        lu.solve_into(b, &mut x);
        Ok(x)
    }
}

/// Sparse LU engine: one-time symbolic analysis + zero-alloc refactorization.
///
/// Lifecycle: [`analyze`](SparseLu::analyze) once per pattern (allocates,
/// chooses orderings, compiles the replay script, and factorizes the given
/// values), then [`refactorize`](SparseLu::refactorize) per value change and
/// [`solve_into`](SparseLu::solve_into) per right-hand side — both
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    /// Permuted column `j` is original column `col_perm[j]`.
    col_perm: Vec<usize>,
    /// Permuted row `i` is original row `row_perm[i]`.
    row_perm: Vec<usize>,
    /// Factor storage: CSC over the fill-in pattern of `P·A·Q`, rows sorted.
    fcol_ptr: Vec<usize>,
    frow_idx: Vec<usize>,
    fvals: Vec<f64>,
    /// Factor slot of the diagonal `(j, j)` per column.
    diag_slot: Vec<usize>,
    /// A-slot (pattern order) -> factor slot.
    scatter: Vec<usize>,
    /// Replay script, `script[col_script[j]..col_script[j + 1]]` for column
    /// `j`: one destination slot per update. Column `j`'s super-diagonal
    /// slots `s = (k, j)`, in ascending `k`, each drive one *run*: it
    /// subtracts `fvals[ls] * fvals[s]` from its next destinations for
    /// every sub-diagonal slot `ls` of column `k`, which are contiguous
    /// (`diag_slot[k] + 1..fcol_ptr[k + 1]`, rows sorted). So an update
    /// costs 4 bytes of script and a run none.
    script: Vec<u32>,
    col_script: Vec<usize>,
    /// Row-oriented copies of the factors for the triangular solves,
    /// gathered from `fvals` after every factorization: L's rows list
    /// columns `j < r` ascending, U's rows list `j > r` descending.
    lower: TriRows,
    upper: TriRows,
    /// Solve scratch (permuted frame).
    work: Vec<f64>,
    analyzed_nnz: usize,
    analyzed: bool,
    factored: bool,
    /// Pattern of the last analysis: a re-analysis over the *same* pattern
    /// (the pivot-order-refresh path) reuses the fill-reducing column order
    /// instead of re-running minimum degree — the column order depends only
    /// on the pattern, never on values.
    analyzed_pattern: Option<SparsityPattern>,
}

impl SparseLu {
    /// An empty engine; call [`analyze`](SparseLu::analyze) before use.
    pub fn new() -> Self {
        SparseLu::default()
    }

    /// True once a pattern has been analyzed.
    pub fn is_analyzed(&self) -> bool {
        self.analyzed
    }

    /// True when the stored factors are usable by [`solve_into`](SparseLu::solve_into).
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// The pivot orderings of the last analysis: `(row_perm, col_perm)`.
    /// Together with the analyzed pattern they fix every symbolic structure
    /// of the factorization (fill-in, replay script, solve rows), so two
    /// engines analyzed over one pattern with equal orderings accept each
    /// other's [`factor_values`](SparseLu::factor_values).
    pub fn ordering(&self) -> (&[usize], &[usize]) {
        (&self.row_perm, &self.col_perm)
    }

    /// The numeric factor values, one per factor slot — a snapshot
    /// [`restore_factor_values`](SparseLu::restore_factor_values) puts
    /// back.
    pub fn factor_values(&self) -> &[f64] {
        &self.fvals
    }

    /// Puts back factor values taken by
    /// [`factor_values`](SparseLu::factor_values) under the current
    /// analysis (equal [`ordering`](SparseLu::ordering)): afterwards the
    /// engine solves exactly as it did when the snapshot was taken.
    /// Allocation-free.
    ///
    /// Panics unless analyzed and `vals` has one value per factor slot.
    pub fn restore_factor_values(&mut self, vals: &[f64]) {
        assert!(self.analyzed, "restore_factor_values before analyze");
        self.fvals.copy_from_slice(vals);
        self.lower.gather(&self.fvals);
        self.upper.gather(&self.fvals);
        self.factored = true;
    }

    /// Symbolic analysis + first factorization.
    ///
    /// Chooses a fill-reducing column order (greedy minimum degree on the
    /// symmetrized pattern, ties to the lowest index — deterministic), pins
    /// the partial-pivot row order with a sparse Gilbert–Peierls left-looking
    /// factorization of the given values (O(flops) — no dense scratch),
    /// computes the no-cancellation fill-in pattern, compiles
    /// the refactorization replay script, and factorizes. Allocates; every
    /// later [`refactorize`](SparseLu::refactorize)/[`solve_into`](SparseLu::solve_into)
    /// over the same pattern is allocation-free.
    ///
    /// Returns [`SolveError::Singular`] (with the failing elimination step)
    /// if the values are numerically singular.
    pub fn analyze(&mut self, a: &SparseMatrix) -> Result<(), SolveError> {
        let n = a.pattern.n;
        self.analyzed = false;
        self.factored = false;
        self.n = n;
        self.analyzed_nnz = a.pattern.nnz();
        let same_pattern = self
            .analyzed_pattern
            .as_ref()
            .is_some_and(|p| *p == a.pattern);
        if !same_pattern {
            self.col_perm = min_degree_order(&a.pattern);
            self.analyzed_pattern = Some(a.pattern.clone());
        }

        // Pin the row order with a Gilbert–Peierls left-looking LU over the
        // permuted columns: per column, a sparse triangular solve against the
        // already-factored columns (DFS reach in the L pattern, processed in
        // topological order), then partial pivoting over the not-yet-pivotal
        // reached rows. Everything — pivot order, no-cancellation fill
        // pattern, and the numeric factors — falls out of one O(flops) pass;
        // there is no dense scratch, so analysis stays cheap at any circuit
        // size (a dense pinning pass would be O(n³) time and O(n²) memory,
        // which dominates wall-clock for array-scale netlists).
        //
        // The reach is structural: entries are kept even when their value
        // works out to exactly zero, so the recorded pattern is the
        // no-cancellation fill-in of `P·A·Q = L·U` for the chosen pivot
        // order — later refactorizations over different values need no new
        // slots.
        let none = usize::MAX;
        // Original row -> pivotal (permuted) position, `none` while unpivoted.
        let mut pinv = vec![none; n];
        // L columns in original-row space: strictly-sub-pivotal rows and
        // their multipliers, in the order the solve produced them.
        let mut lrows: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut lvals: Vec<Vec<f64>> = Vec::with_capacity(n);
        // U rows per column, as pivotal positions `k < j` (values are not
        // kept — the replay script recomputes them).
        let mut urows: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut x = vec![0.0f64; n]; // dense accumulator, original-row space
        let mut reached = vec![false; n];
        let mut reach: Vec<usize> = Vec::with_capacity(64); // topological order
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(64);
        for j in 0..n {
            let oc = self.col_perm[j];
            // DFS from A(:,oc)'s rows through pivoted rows' L columns;
            // reverse postorder = topological order for the solve.
            reach.clear();
            for &r0 in &a.pattern.row_idx[a.pattern.col_ptr[oc]..a.pattern.col_ptr[oc + 1]] {
                if reached[r0] {
                    continue;
                }
                stack.push((r0, 0));
                reached[r0] = true;
                while let Some(&(r, next)) = stack.last() {
                    let kids: &[usize] = match pinv[r] {
                        k if k != none => &lrows[k],
                        _ => &[],
                    };
                    let mut child = None;
                    let mut adv = next;
                    while adv < kids.len() {
                        let rr = kids[adv];
                        adv += 1;
                        if !reached[rr] {
                            child = Some(rr);
                            break;
                        }
                    }
                    stack.last_mut().expect("stack non-empty").1 = adv;
                    match child {
                        Some(c) => {
                            reached[c] = true;
                            stack.push((c, 0));
                        }
                        None => {
                            stack.pop();
                            reach.push(r); // postorder
                        }
                    }
                }
            }
            reach.reverse();
            // Scatter A(:,oc) and run the sparse triangular solve.
            for k in a.pattern.col_ptr[oc]..a.pattern.col_ptr[oc + 1] {
                x[a.pattern.row_idx[k]] = a.values[k];
            }
            for &r in &reach {
                let k = pinv[r];
                if k == none {
                    continue;
                }
                let xr = x[r];
                for (&rr, &lv) in lrows[k].iter().zip(&lvals[k]) {
                    x[rr] -= lv * xr;
                }
            }
            // Partial pivot over the rows this column can eliminate.
            let mut piv_row = none;
            let mut piv_mag = 0.0f64;
            for &r in &reach {
                if pinv[r] == none {
                    let mag = x[r].abs();
                    if mag > piv_mag {
                        piv_mag = mag;
                        piv_row = r;
                    }
                }
            }
            if piv_row == none || piv_mag < PIVOT_EPS {
                for &r in &reach {
                    reached[r] = false;
                    x[r] = 0.0;
                }
                return Err(SolveError::Singular { step: j });
            }
            pinv[piv_row] = j;
            let inv_piv = 1.0 / x[piv_row];
            let mut lr = Vec::new();
            let mut lv = Vec::new();
            let mut ur = Vec::new();
            for &r in &reach {
                match pinv[r] {
                    k if k == j => {}
                    k if k != none => ur.push(k),
                    _ => {
                        lr.push(r);
                        lv.push(x[r] * inv_piv);
                    }
                }
                reached[r] = false;
                x[r] = 0.0;
            }
            lrows.push(lr);
            lvals.push(lv);
            urows.push(ur);
        }

        self.row_perm = vec![0usize; n];
        for (r, &k) in pinv.iter().enumerate() {
            self.row_perm[k] = r;
        }
        let mut inv_row = vec![0usize; n];
        let mut inv_col = vec![0usize; n];
        for i in 0..n {
            inv_row[self.row_perm[i]] = i;
            inv_col[self.col_perm[i]] = i;
        }

        // Per-column factor rows in permuted space — U's pivotal positions,
        // the diagonal, and L's sub-pivotal rows mapped through the (now
        // complete) row permutation — flattened into the factor pattern.
        self.fcol_ptr = vec![0usize; n + 1];
        self.frow_idx.clear();
        self.diag_slot = vec![0usize; n];
        let mut rows: Vec<usize> = Vec::new();
        for j in 0..n {
            rows.clear();
            rows.extend(urows[j].iter().copied());
            rows.push(j);
            rows.extend(lrows[j].iter().map(|&r| pinv[r]));
            rows.sort_unstable();
            let base = self.frow_idx.len();
            self.diag_slot[j] = base + rows.binary_search(&j).expect("diagonal present");
            self.frow_idx.extend_from_slice(&rows);
            self.fcol_ptr[j + 1] = self.frow_idx.len();
        }
        drop((lrows, lvals, urows));
        self.fvals = vec![0.0; self.frow_idx.len()];

        fn fslot(fcol_ptr: &[usize], frow_idx: &[usize], row: usize, col: usize) -> usize {
            let lo = fcol_ptr[col];
            let hi = fcol_ptr[col + 1];
            lo + frow_idx[lo..hi]
                .binary_search(&row)
                .expect("factor pattern covers A and all fill-in")
        }

        // Scatter map: A slot (pattern order) -> factor slot.
        self.scatter.clear();
        self.scatter.reserve(a.pattern.nnz());
        for (r, c) in a.pattern.coords() {
            self.scatter.push(fslot(
                &self.fcol_ptr,
                &self.frow_idx,
                inv_row[r],
                inv_col[c],
            ));
        }

        // Replay script. For column j, ascending k over its super-diagonal
        // rows (the U entries): fvals[(r,j)] -= fvals[(r,k)] * fvals[(k,j)]
        // for every sub-diagonal row r of column k; then divide column j's
        // sub-diagonal slots by the pivot. Sized exactly up front: the
        // script is the largest structure an array-scale analysis builds.
        let (fcol_ptr, frow_idx, diag_slot) = (&self.fcol_ptr, &self.frow_idx, &self.diag_slot);
        // Per run (k, j): one destination per sub-diagonal slot of column k.
        let len: usize = (0..n)
            .flat_map(|j| fcol_ptr[j]..diag_slot[j])
            .map(|s| fcol_ptr[frow_idx[s] + 1] - diag_slot[frow_idx[s]] - 1)
            .sum();
        let index = |v: usize| u32::try_from(v).expect("factor size fits in u32");
        self.script.clear();
        self.script.reserve_exact(len);
        self.col_script = vec![0usize; n + 1];
        // Factor slot of each row of the column being compiled.
        let mut slot_of = vec![0usize; n];
        for j in 0..n {
            let col = fcol_ptr[j]..fcol_ptr[j + 1];
            for s in col.clone() {
                slot_of[frow_idx[s]] = s;
            }
            for s in fcol_ptr[j]..diag_slot[j] {
                let k = frow_idx[s];
                for &r in &frow_idx[diag_slot[k] + 1..fcol_ptr[k + 1]] {
                    let dest = slot_of[r];
                    assert!(
                        col.contains(&dest) && frow_idx[dest] == r,
                        "factor pattern covers all fill-in"
                    );
                    self.script.push(index(dest));
                }
            }
            self.col_script[j + 1] = self.script.len();
        }
        debug_assert_eq!(self.script.len(), len);

        // Row copies for the solves. Walking columns in ascending order
        // lists each L row's columns ascending; walking them in descending
        // order lists each U row's columns descending — the orders in which
        // the column-oriented elimination reaches each row.
        let (fcol_ptr, frow_idx) = (&self.fcol_ptr, &self.frow_idx);
        let column = |j: usize| (fcol_ptr[j]..fcol_ptr[j + 1]).map(move |s| (frow_idx[s], j, s));
        self.lower = TriRows::build(n, (0..n).flat_map(|j| column(j).filter(move |e| e.0 > j)));
        self.upper = TriRows::build(
            n,
            (0..n)
                .rev()
                .flat_map(|j| column(j).filter(move |e| e.0 < j)),
        );

        self.work = vec![0.0; n];
        self.analyzed = true;
        self.refactorize(a)
    }

    /// Numeric refactorization over new values, reusing the frozen orderings
    /// and fill-in pattern. Allocation-free.
    ///
    /// Returns [`SolveError::Singular`] if a pivot underflows
    /// (`PIVOT_EPS`-degenerate) under the frozen pivot order — callers may
    /// then [`analyze`](SparseLu::analyze) again to refresh the ordering.
    ///
    /// Panics if `a`'s pattern differs from the analyzed one (slot-count
    /// check): mixing patterns is a caller bug.
    pub fn refactorize(&mut self, a: &SparseMatrix) -> Result<(), SolveError> {
        self.refactorize_with(&a.pattern, |k| a.values[k])
    }

    /// [`refactorize`](SparseLu::refactorize) over the matrix on `pattern`
    /// whose slot `k` holds `value(k)`: the matrix's values may live outside
    /// a [`SparseMatrix`]. Allocation-free.
    ///
    /// # Errors
    ///
    /// As [`refactorize`](SparseLu::refactorize).
    pub fn refactorize_with(
        &mut self,
        pattern: &SparsityPattern,
        value: impl Fn(usize) -> f64,
    ) -> Result<(), SolveError> {
        assert!(self.analyzed, "refactorize before analyze");
        assert_eq!(
            pattern.nnz(),
            self.analyzed_nnz,
            "sparsity pattern changed since analyze"
        );
        assert_eq!(pattern.n, self.n, "dimension changed since analyze");
        self.factored = false;
        self.fvals.fill(0.0);
        for (k, &s) in self.scatter.iter().enumerate() {
            self.fvals[s] += value(k);
        }
        for j in 0..self.n {
            // Run k's multiplier u = (k, j) is final when the run starts:
            // only earlier runs (k' < k) write it, and no update of run k
            // does (every destination row is > k). Reading it once per run
            // is therefore the per-update read, bit for bit.
            let mut dests = &self.script[self.col_script[j]..self.col_script[j + 1]];
            for s in self.fcol_ptr[j]..self.diag_slot[j] {
                let k = self.frow_idx[s];
                let l = self.diag_slot[k] + 1..self.fcol_ptr[k + 1];
                let (run, rest) = dests.split_at(l.len());
                dests = rest;
                let u = self.fvals[s];
                for (ls, &dest) in l.zip(run) {
                    self.fvals[dest as usize] -= self.fvals[ls] * u;
                }
            }
            let p = self.fvals[self.diag_slot[j]];
            if p.abs() < PIVOT_EPS {
                return Err(SolveError::Singular { step: j });
            }
            let inv = 1.0 / p;
            for v in &mut self.fvals[self.diag_slot[j] + 1..self.fcol_ptr[j + 1]] {
                *v *= inv;
            }
        }
        self.lower.gather(&self.fvals);
        self.upper.gather(&self.fvals);
        self.factored = true;
        Ok(())
    }

    /// Solves `A x = b` using the stored factors. Allocation-free.
    ///
    /// Row-oriented: unknown `r` of `L y = P b` (then of `U w = y`) is its
    /// right-hand side minus its row's entries times the unknowns already
    /// solved (then divided by the pivot, for `U`), read from the row copies
    /// in elimination order (ascending columns for `L`, descending for `U`),
    /// an unknown that is exactly zero contributing `+0.0`. That is the
    /// order in which a column-oriented solve reaches the row, so both give
    /// the same bits.
    ///
    /// Panics unless factored and `b`/`x` have length `n` — the hot path
    /// owns its buffers, so mismatches are caller bugs.
    pub fn solve_into(&mut self, b: &[f64], x: &mut [f64]) {
        assert!(
            self.factored,
            "solve_into before a successful factorization"
        );
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert_eq!(x.len(), self.n, "solution length mismatch");
        let w = &mut self.work;
        // Forward: L y = P b (unit diagonal), one row at a time.
        for (r, &pr) in self.row_perm.iter().enumerate() {
            w[r] = self.lower.reduce(r, b[pr], w);
        }
        // Backward: U w = y, one row at a time; unknown r in the permuted
        // frame is original unknown col_perm[r].
        for r in (0..self.n).rev() {
            let wr = self.upper.reduce(r, w[r], w) / self.fvals[self.diag_slot[r]];
            w[r] = wr;
            x[self.col_perm[r]] = wr;
        }
    }

    /// Column-oriented reference solve: scatters each solved unknown into
    /// the rows below (forward) or above (backward) it.
    /// [`solve_into`](SparseLu::solve_into) must match it bit for bit.
    #[cfg(test)]
    fn solve_by_columns(&mut self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        for i in 0..n {
            self.work[i] = b[self.row_perm[i]];
        }
        for j in 0..n {
            let yj = self.work[j];
            if yj != 0.0 {
                for s in self.diag_slot[j] + 1..self.fcol_ptr[j + 1] {
                    self.work[self.frow_idx[s]] -= self.fvals[s] * yj;
                }
            }
        }
        for j in (0..n).rev() {
            self.work[j] /= self.fvals[self.diag_slot[j]];
            let wj = self.work[j];
            if wj != 0.0 {
                for s in self.fcol_ptr[j]..self.fcol_ptr[j + 1] {
                    let r = self.frow_idx[s];
                    if r >= j {
                        break;
                    }
                    self.work[r] -= self.fvals[s] * wj;
                }
            }
        }
        for j in 0..n {
            x[self.col_perm[j]] = self.work[j];
        }
    }

    /// Reference refactorization from one `(dest, l, u)` triple per update,
    /// reading both operands on every update.
    /// [`refactorize_with`](SparseLu::refactorize_with) must match it bit
    /// for bit.
    #[cfg(test)]
    fn refactorize_by_triples(
        &mut self,
        pattern: &SparsityPattern,
        value: impl Fn(usize) -> f64,
    ) -> Result<(), SolveError> {
        let mut upd = Vec::new();
        let mut col_upd = vec![0usize; self.n + 1];
        for j in 0..self.n {
            for s in self.fcol_ptr[j]..self.diag_slot[j] {
                let k = self.frow_idx[s];
                for ls in self.diag_slot[k] + 1..self.fcol_ptr[k + 1] {
                    let r = self.frow_idx[ls];
                    let lo = self.fcol_ptr[j];
                    let dest = lo
                        + self.frow_idx[lo..self.fcol_ptr[j + 1]]
                            .binary_search(&r)
                            .unwrap();
                    upd.push((dest, ls, s));
                }
            }
            col_upd[j + 1] = upd.len();
        }
        self.factored = false;
        self.fvals.fill(0.0);
        for (k, &s) in self.scatter.iter().enumerate() {
            self.fvals[s] += value(k);
        }
        assert_eq!(pattern.nnz(), self.analyzed_nnz);
        for j in 0..self.n {
            for &(dest, l, u) in &upd[col_upd[j]..col_upd[j + 1]] {
                self.fvals[dest] -= self.fvals[l] * self.fvals[u];
            }
            let p = self.fvals[self.diag_slot[j]];
            if p.abs() < PIVOT_EPS {
                return Err(SolveError::Singular { step: j });
            }
            let inv = 1.0 / p;
            for s in self.diag_slot[j] + 1..self.fcol_ptr[j + 1] {
                self.fvals[s] *= inv;
            }
        }
        self.lower.gather(&self.fvals);
        self.upper.gather(&self.fvals);
        self.factored = true;
        Ok(())
    }
}

/// One triangular factor stored by rows (CSR) for the solves: per row, the
/// off-diagonal columns in elimination order with `u32` indices, and the
/// values gathered from the column-major factor after each factorization.
///
/// The column-oriented solve subtracts `v·y[j]` from row `r` as each
/// unknown `j` is solved, skipping `y[j] == 0.0`. [`TriRows::reduce`] runs
/// the same subtractions in the same order into one accumulator, so the
/// row solve matches it bit for bit while streaming each row's entries
/// contiguously — and without a data-dependent branch: a zero unknown
/// subtracts `+0.0`, and `x − (+0.0)` is `x` for every `x`, `−0.0`, the
/// infinities and NaN (payload kept) included, so it is the skip.
#[derive(Debug, Clone, Default)]
struct TriRows {
    /// `ptr[r]..ptr[r + 1]` indexes row `r`'s entries.
    ptr: Vec<usize>,
    /// Column of each entry.
    col: Vec<u32>,
    /// Value of each entry (gathered).
    val: Vec<f64>,
    /// Factor slot each value is gathered from.
    src: Vec<u32>,
}

impl TriRows {
    /// Lays out `(row, column, factor slot)` entries by row, keeping their
    /// given order within each row.
    fn build(n: usize, entries: impl Iterator<Item = (usize, usize, usize)>) -> TriRows {
        let entries: Vec<(usize, usize, usize)> = entries.collect();
        let index = |v: usize| u32::try_from(v).expect("factor size fits in u32");
        let mut ptr = vec![0usize; n + 1];
        for &(r, _, _) in &entries {
            ptr[r + 1] += 1;
        }
        for r in 0..n {
            ptr[r + 1] += ptr[r];
        }
        let mut next = ptr.clone();
        let mut col = vec![0u32; entries.len()];
        let mut src = vec![0u32; entries.len()];
        for &(r, c, s) in &entries {
            let k = next[r];
            next[r] += 1;
            col[k] = index(c);
            src[k] = index(s);
        }
        TriRows {
            ptr,
            col,
            val: vec![0.0; entries.len()],
            src,
        }
    }

    /// Copies the current values out of the column-major factor storage.
    fn gather(&mut self, fvals: &[f64]) {
        for (v, &s) in self.val.iter_mut().zip(&self.src) {
            *v = fvals[s as usize];
        }
    }

    /// `acc` minus row `r`'s entries times the solved unknowns `y`, in
    /// stored order, an unknown that is exactly zero subtracting `+0.0`.
    #[inline]
    fn reduce(&self, r: usize, mut acc: f64, y: &[f64]) -> f64 {
        let (lo, hi) = (self.ptr[r], self.ptr[r + 1]);
        for (&c, &v) in self.col[lo..hi].iter().zip(&self.val[lo..hi]) {
            let yj = y[c as usize];
            acc -= if yj != 0.0 { v * yj } else { 0.0 };
        }
        acc
    }
}

/// Greedy minimum-degree ordering on the symmetrized pattern.
///
/// Classic fill-reducing heuristic: repeatedly eliminate the vertex of
/// minimum degree in the (undirected) graph of `A + Aᵀ`, connecting its
/// neighbours into a clique. Ties break to the lowest index, so the order is
/// deterministic. O(n³) worst case — fine at circuit sizes.
fn min_degree_order(p: &SparsityPattern) -> Vec<usize> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = p.n;
    // Sorted adjacency lists over *alive* vertices only — the invariant that
    // makes `adj[v].len()` the elimination-graph degree. A dense n×n bitmap
    // with full rescans would be O(n²) memory and O(n³) time, which is the
    // dominant analysis cost at array-scale circuits; the list + lazy-heap
    // formulation below produces the *identical* order (same greedy rule,
    // same lowest-index tie break) in roughly O(fill · log n).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (r, c) in p.coords() {
        if r != c {
            adj[r].push(c);
            adj[c].push(r);
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    let mut alive = vec![true; n];
    // Lazy min-heap of (degree, vertex): stale entries are skipped on pop
    // (degree mismatch or dead vertex); every degree change pushes a fresh
    // entry, so the true minimum — lowest index on ties — is always present.
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(2 * n);
    for (v, l) in adj.iter().enumerate() {
        heap.push(Reverse((l.len(), v)));
    }
    let mut order = Vec::with_capacity(n);
    let mut merged: Vec<usize> = Vec::new();
    while order.len() < n {
        let Reverse((d, v)) = heap.pop().expect("heap holds every alive vertex");
        if !alive[v] || adj[v].len() != d {
            continue;
        }
        alive[v] = false;
        order.push(v);
        let nbrs = std::mem::take(&mut adj[v]);
        // Connect the eliminated vertex's neighbours into a clique: each
        // neighbour drops `v` and gains the other members (sorted merge).
        for &u in &nbrs {
            merged.clear();
            let mut it_a = adj[u].iter().copied().filter(|&w| w != v).peekable();
            let mut it_b = nbrs.iter().copied().filter(|&w| w != u).peekable();
            loop {
                match (it_a.peek(), it_b.peek()) {
                    (Some(&a), Some(&b)) => {
                        let w = if a <= b { it_a.next() } else { it_b.next() };
                        if a == b {
                            it_b.next();
                        }
                        merged.push(w.expect("peeked"));
                    }
                    (Some(_), None) => merged.push(it_a.next().expect("peeked")),
                    (None, Some(_)) => merged.push(it_b.next().expect("peeked")),
                    (None, None) => break,
                }
            }
            adj[u].clear();
            adj[u].extend_from_slice(&merged);
            heap.push(Reverse((adj[u].len(), u)));
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dense_pattern(n: usize) -> Vec<(usize, usize)> {
        (0..n).flat_map(|r| (0..n).map(move |c| (r, c))).collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn identity_solve() {
        let p = SparsityPattern::from_entries(3, &[(0, 0), (1, 1), (2, 2)]);
        let mut a = SparseMatrix::new(p);
        for i in 0..3 {
            a.add(i, i, 2.0);
        }
        let x = a.solve(&[2.0, 4.0, 6.0]).unwrap();
        assert_close(&x, &[1.0, 2.0, 3.0], 1e-14);
    }

    #[test]
    fn zero_diagonal_needs_pivoting() {
        // Voltage-source-like branch row: structurally zero diagonal.
        let p = SparsityPattern::from_entries(2, &dense_pattern(2));
        let mut a = SparseMatrix::new(p);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert_close(&x, &[5.0, 3.0], 1e-14);
    }

    #[test]
    fn arrow_matrix_fill_in() {
        // Arrow pattern: elimination in natural order fills the whole matrix;
        // min-degree should keep the hub last. Either way, results match dense.
        let n = 5;
        let mut entries = vec![(n - 1, n - 1)];
        for i in 0..n - 1 {
            entries.push((i, i));
            entries.push((i, n - 1));
            entries.push((n - 1, i));
        }
        let p = SparsityPattern::from_entries(n, &entries);
        let mut a = SparseMatrix::new(p);
        for i in 0..n - 1 {
            a.add(i, i, 4.0 + i as f64);
            a.add(i, n - 1, 1.0);
            a.add(n - 1, i, -1.0);
        }
        a.add(n - 1, n - 1, 6.0);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let sparse_x = a.solve(&b).unwrap();
        let dense_x = a.to_dense().solve(&b).unwrap();
        assert_close(&sparse_x, &dense_x, 1e-12);
    }

    #[test]
    fn refactorize_tracks_new_values() {
        let p = SparsityPattern::from_entries(3, &[(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]);
        let mut a = SparseMatrix::new(p);
        a.add(0, 0, 2.0);
        a.add(1, 1, 3.0);
        a.add(2, 2, 4.0);
        a.add(0, 2, 1.0);
        a.add(2, 0, -1.0);
        let mut lu = SparseLu::new();
        lu.analyze(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let mut x = vec![0.0; 3];
        lu.solve_into(&b, &mut x);
        assert_close(&x, &a.to_dense().solve(&b).unwrap(), 1e-12);

        a.clear();
        a.add(0, 0, 5.0);
        a.add(1, 1, -2.0);
        a.add(2, 2, 7.0);
        a.add(0, 2, 0.5);
        a.add(2, 0, 2.0);
        lu.refactorize(&a).unwrap();
        lu.solve_into(&b, &mut x);
        assert_close(&x, &a.to_dense().solve(&b).unwrap(), 1e-12);
    }

    #[test]
    fn restored_factor_values_solve_bit_for_bit() {
        let p = SparsityPattern::from_entries(3, &[(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]);
        let mut a = SparseMatrix::new(p);
        for (r, c, v) in [
            (0, 0, 2.0),
            (1, 1, 3.0),
            (2, 2, 4.0),
            (0, 2, 1.0),
            (2, 0, -1.0),
        ] {
            a.add(r, c, v);
        }
        let mut lu = SparseLu::new();
        lu.analyze(&a).unwrap();
        let order = (lu.ordering().0.to_vec(), lu.ordering().1.to_vec());
        let saved = lu.factor_values().to_vec();
        let b = [1.0, 2.0, 3.0];
        let mut before = vec![0.0; 3];
        lu.solve_into(&b, &mut before);

        a.values_mut().iter_mut().for_each(|v| *v *= 1.7);
        lu.refactorize(&a).unwrap();
        lu.restore_factor_values(&saved);
        assert_eq!(
            (lu.ordering().0, lu.ordering().1),
            (&order.0[..], &order.1[..])
        );
        let mut after = vec![0.0; 3];
        lu.solve_into(&b, &mut after);
        assert_eq!(bits(&after), bits(&before));
    }

    #[test]
    fn singular_reported_at_analysis() {
        let p = SparsityPattern::from_entries(2, &dense_pattern(2));
        let mut a = SparseMatrix::new(p);
        a.add(0, 0, 1.0);
        a.add(0, 1, 2.0);
        a.add(1, 0, 2.0);
        a.add(1, 1, 4.0);
        assert!(matches!(
            a.solve(&[1.0, 1.0]),
            Err(SolveError::Singular { .. })
        ));
    }

    #[test]
    fn singular_reported_at_refactorization() {
        let p = SparsityPattern::from_entries(2, &dense_pattern(2));
        let mut a = SparseMatrix::new(p);
        a.add(0, 0, 1.0);
        a.add(1, 1, 1.0);
        let mut lu = SparseLu::new();
        lu.analyze(&a).unwrap();
        a.clear();
        a.add(0, 0, 1.0);
        a.add(0, 1, 2.0);
        a.add(1, 0, 2.0);
        a.add(1, 1, 4.0);
        let err = lu.refactorize(&a).unwrap_err();
        assert!(matches!(err, SolveError::Singular { .. }));
        assert!(!lu.is_factored());
    }

    #[test]
    fn dimension_mismatch_parity_with_dense() {
        let p = SparsityPattern::from_entries(2, &[(0, 0), (1, 1)]);
        let mut a = SparseMatrix::new(p);
        a.add(0, 0, 1.0);
        a.add(1, 1, 1.0);
        assert_eq!(
            a.solve(&[1.0, 2.0, 3.0]),
            Err(SolveError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn mna_shaped_system_matches_dense() {
        // 2 nodes + 1 vsource branch: G-stamped node block plus ±1 branch
        // rows with a structurally zero (branch, branch) diagonal.
        let n = 3;
        let entries = vec![
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (0, 2),
            (2, 0),
            (1, 1),
            (2, 2),
        ];
        let p = SparsityPattern::from_entries(n, &entries);
        let mut a = SparseMatrix::new(p);
        a.add(0, 0, 1e-3);
        a.add(0, 1, -1e-3);
        a.add(1, 0, -1e-3);
        a.add(1, 1, 2e-3);
        a.add(0, 2, 1.0);
        a.add(2, 0, 1.0);
        let b = [0.0, 1e-4, 0.8];
        let sparse_x = a.solve(&b).unwrap();
        let dense_x = a.to_dense().solve(&b).unwrap();
        assert_close(&sparse_x, &dense_x, 1e-12);
    }

    /// A random sparse system: a full diagonal (kept dominant so the draw
    /// factors) plus random off-diagonal entries, some exactly zero, and a
    /// right-hand side mixing exact zeros, `-0.0`, NaN and finite values.
    fn random_system() -> impl Strategy<Value = (SparseMatrix, Vec<f64>)> {
        (1usize..14)
            .prop_flat_map(|n| {
                let entries =
                    prop::collection::vec((0..n, 0..n, 0usize..4, -1.0f64..1.0), 0..4 * n);
                let rhs = prop::collection::vec((0usize..6, -1.0f64..1.0), n);
                (Just(n), entries, rhs)
            })
            .prop_map(|(n, entries, rhs)| {
                let coords: Vec<(usize, usize)> = (0..n)
                    .map(|i| (i, i))
                    .chain(entries.iter().map(|&(r, c, _, _)| (r, c)))
                    .collect();
                let mut a = SparseMatrix::new(SparsityPattern::from_entries(n, &coords));
                for i in 0..n {
                    a.add(i, i, 4.0 * n as f64);
                }
                for &(r, c, kind, v) in &entries {
                    a.add(r, c, if kind == 0 { 0.0 } else { v });
                }
                let b = rhs
                    .iter()
                    .map(|&(kind, v)| match kind {
                        0 | 1 => 0.0,
                        2 => -0.0,
                        3 => f64::NAN,
                        _ => v,
                    })
                    .collect();
                (a, b)
            })
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn row_solve_matches_column_solve_bit_for_bit(
            (mut a, b) in random_system(),
            scale in -3.0f64..3.0,
        ) {
            let n = a.dim();
            let mut lu = SparseLu::new();
            lu.analyze(&a).unwrap();
            let (mut rows, mut cols) = (vec![0.0; n], vec![0.0; n]);
            lu.solve_into(&b, &mut rows);
            lu.solve_by_columns(&b, &mut cols);
            prop_assert_eq!(bits(&rows), bits(&cols));

            // Refactorized values (off-diagonal entries rescaled, exact
            // zeros kept) go through the same gathered row copies.
            for v in a.values_mut() {
                if v.abs() < 2.0 {
                    *v *= scale;
                }
            }
            lu.refactorize(&a).unwrap();
            lu.solve_into(&b, &mut rows);
            lu.solve_by_columns(&b, &mut cols);
            prop_assert_eq!(bits(&rows), bits(&cols));
        }
    }

    proptest! {
        #[test]
        fn run_script_refactorization_matches_triple_oracle_bit_for_bit(
            (mut a, _b) in random_system(),
            scale in -3.0f64..3.0,
            rescale in -3.0f64..3.0,
        ) {
            // The oracle works on a clone: same analysis, its own values.
            let mut lu = SparseLu::new();
            lu.analyze(&a).unwrap();
            let mut oracle = lu.clone();
            oracle.refactorize_by_triples(&a.pattern, |k| a.values[k]).unwrap();
            prop_assert_eq!(bits(lu.factor_values()), bits(oracle.factor_values()));
            let saved = lu.factor_values().to_vec();

            // Off-diagonal entries rescaled, exact zeros kept.
            for s in [scale, rescale] {
                for v in a.values_mut() {
                    if v.abs() < 2.0 {
                        *v *= s;
                    }
                }
                lu.refactorize(&a).unwrap();
                oracle.refactorize_by_triples(&a.pattern, |k| a.values[k]).unwrap();
                prop_assert_eq!(bits(lu.factor_values()), bits(oracle.factor_values()));
                // A restored snapshot leaves nothing behind that the next
                // replay reads.
                lu.restore_factor_values(&saved);
                prop_assert_eq!(bits(lu.factor_values()), bits(&saved));
            }
            lu.refactorize(&a).unwrap();
            prop_assert_eq!(bits(lu.factor_values()), bits(oracle.factor_values()));
        }
    }

    /// A bordered-block matrix — independent dense cell blocks coupled only
    /// through dense border rows and columns, the shape of an array's
    /// Jacobian — compiles to one `u32` per update: the script stores no
    /// operand slot and no run header.
    #[test]
    fn run_script_takes_four_bytes_per_update() {
        let (cells, size, border) = (6, 4, 3);
        let n = cells * size + border;
        let mut entries = Vec::new();
        for c in 0..cells {
            let base = c * size;
            for r in base..base + size {
                entries.extend((base..base + size).map(|k| (r, k)));
                for b in n - border..n {
                    entries.extend([(r, b), (b, r)]);
                }
            }
        }
        entries.extend((n - border..n).flat_map(|r| (n - border..n).map(move |k| (r, k))));
        let mut a = SparseMatrix::new(SparsityPattern::from_entries(n, &entries));
        for (k, (r, c)) in a
            .pattern
            .coords()
            .collect::<Vec<_>>()
            .into_iter()
            .enumerate()
        {
            a.values[k] = if r == c {
                10.0 + r as f64
            } else {
                -0.1 * ((r + 2 * c) % 7) as f64
            };
        }
        let mut lu = SparseLu::new();
        lu.analyze(&a).unwrap();
        let runs: usize = (0..n).map(|j| lu.diag_slot[j] - lu.fcol_ptr[j]).sum();
        let updates: usize = (0..n)
            .flat_map(|j| lu.fcol_ptr[j]..lu.diag_slot[j])
            .map(|s| {
                let k = lu.frow_idx[s];
                lu.fcol_ptr[k + 1] - lu.diag_slot[k] - 1
            })
            .sum();
        assert!(runs > n && updates > runs, "runs {runs}, updates {updates}");
        assert_eq!(lu.script.len(), updates);
        assert_eq!(std::mem::size_of_val(&lu.script[..]), 4 * updates);
        assert_eq!(lu.script.capacity(), updates, "sized exactly");
        assert_eq!(lu.col_script[n], lu.script.len());
        let mut oracle = lu.clone();
        oracle
            .refactorize_by_triples(&a.pattern, |k| a.values[k])
            .unwrap();
        assert_eq!(bits(lu.factor_values()), bits(oracle.factor_values()));
    }

    /// A coordinate list of an `n x n` pattern, `n` in 1..=64, heavy with
    /// duplicates — every draw is listed again, half of them twice, in
    /// another order — whose columns past a drawn bound stay empty and
    /// whose diagonal is only ever hit by chance.
    fn coordinate_walk() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
        (1usize..65)
            .prop_flat_map(|n| (Just(n), 1..n + 1))
            .prop_flat_map(|(n, used_cols)| {
                let draws = prop::collection::vec((0..n, 0..used_cols), 0..3 * n);
                (Just(n), draws)
            })
            .prop_map(|(n, draws)| {
                let again = draws.iter().rev().chain(draws.iter().step_by(2));
                let entries = draws.iter().chain(again).copied().collect();
                (n, entries)
            })
    }

    proptest! {
        #[test]
        fn counting_build_equals_sort_oracle((n, entries) in coordinate_walk()) {
            let counted = SparsityPattern::from_entries(n, &entries);
            let sorted = SparsityPattern::from_entries_sorted(n, &entries);
            prop_assert_eq!(&counted, &sorted);
            prop_assert_eq!(counted.row_idx.capacity(), counted.nnz());
        }

        #[test]
        fn column_slot_maps_equal_slot_searches(
            (n, entries) in coordinate_walk(),
            probes in prop::collection::vec((0usize..64, 0usize..64, 0usize..64, 0usize..64), 0..40),
        ) {
            // Item `k` looks up two coordinates, some outside the pattern,
            // some in one column.
            let pattern = SparsityPattern::from_entries(n, &entries);
            let items: Vec<[(usize, usize); 2]> = probes
                .iter()
                .map(|&(r1, c1, r2, c2)| [(r1 % n, c1 % n), (r2 % n, if c2 % 3 == 0 { c1 % n } else { c2 % n })])
                .collect();
            let mut visits = Vec::new();
            let mut found = vec![[None; 2]; items.len()];
            pattern.for_each_column_item(
                items.len(),
                |k| {
                    let [(_, a), (_, b)] = items[k];
                    std::iter::once(a).chain((b != a).then_some(b))
                },
                |c, k, map| {
                    visits.push((c, k));
                    for (q, &(r, col)) in items[k].iter().enumerate() {
                        if col == c {
                            found[k][q] = Some(map.slot(r));
                        }
                    }
                },
            );
            prop_assert!(visits.windows(2).all(|w| w[0] < w[1]), "{:?}", visits);
            for (k, item) in items.iter().enumerate() {
                for (q, &(r, c)) in item.iter().enumerate() {
                    prop_assert_eq!(found[k][q], Some(pattern.slot(r, c)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_entry_panics() {
        SparsityPattern::from_entries(3, &[(0, 0), (3, 1)]);
    }

    #[test]
    #[should_panic(expected = "not repeatable")]
    fn a_walk_that_changes_between_runs_panics() {
        let mut runs = 0;
        SparsityPattern::from_walk(3, |visit| {
            runs += 1;
            visit(0, 0);
            if runs == 2 {
                visit(1, 0);
            }
        });
    }

    #[test]
    fn mul_vec_matches_dense_product() {
        let entries = vec![(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)];
        let p = SparsityPattern::from_entries(3, &entries);
        let mut a = SparseMatrix::new(p);
        a.add(0, 0, 2.0);
        a.add(0, 2, -1.0);
        a.add(1, 1, 3.0);
        a.add(2, 0, 0.5);
        a.add(2, 2, 4.0);
        let x = [1.0, -2.0, 3.0];
        let mut y = [f64::NAN; 3];
        a.mul_vec(&x, &mut y);
        assert_close(&y, &[-1.0, -6.0, 12.5], 1e-15);
    }
}
