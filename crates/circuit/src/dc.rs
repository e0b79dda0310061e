//! Newton–Raphson DC operating-point analysis.
//!
//! The solver iterates `J(x_k) Δx = −f(x_k)` with per-iteration voltage-step
//! limiting (the damping that keeps the exponential TFET reverse-diode and
//! subthreshold branches from overshooting), declaring convergence when the
//! *undamped* update falls below tolerance. If plain Newton fails from the
//! given guess, it falls back to g_min stepping: solve with a large
//! artificial conductance to ground, then relax it toward zero, carrying the
//! solution forward.
//!
//! Bistable circuits (an SRAM cell in hold!) have multiple operating points;
//! the initial guess selects the basin, which is exactly how the SRAM layer
//! sets the stored state before a hold-power measurement.

use crate::error::SimError;
use crate::latency::DeviceLatency;
use crate::mna::{CompanionCaps, Mna};
use crate::netlist::{Circuit, NodeId, SourceId};
use crate::workspace::{with_workspace, JacSource, JacStale, NewtonWorkspace, SolverBufs};
use std::sync::atomic::{AtomicU8, Ordering};

/// Linear-solve strategy for the Newton loop.
///
/// `Sparse` is the production path: pattern-backed sparse LU with
/// modified-Newton factorization reuse and device-evaluation bypass.
/// `Dense` is the legacy per-iteration dense-LU path, kept byte-for-byte as
/// a cross-check — the figure CSVs must come out bit-identical either way
/// (enforced by `scripts/check.sh`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverStrategy {
    /// Sparse LU + modified Newton + device bypass (default).
    Sparse,
    /// Dense LU, full refactorization and device evaluation every iteration.
    Dense,
}

/// Process-wide default strategy (0 = Sparse, 1 = Dense), consulted by
/// `SolverStrategy::default()` and therefore by every option struct built
/// with `..Default::default()`.
static DEFAULT_STRATEGY: AtomicU8 = AtomicU8::new(0);

impl SolverStrategy {
    /// Sets the process-wide default strategy.
    ///
    /// Intended for binary startup (the `figures --dense` cross-check flag)
    /// — flipping it mid-run races against concurrently built option
    /// structs, so don't.
    pub fn set_process_default(s: SolverStrategy) {
        DEFAULT_STRATEGY.store(s as u8, Ordering::Relaxed);
    }

    /// The current process-wide default strategy.
    pub fn process_default() -> SolverStrategy {
        match DEFAULT_STRATEGY.load(Ordering::Relaxed) {
            1 => SolverStrategy::Dense,
            _ => SolverStrategy::Sparse,
        }
    }
}

impl Default for SolverStrategy {
    fn default() -> Self {
        SolverStrategy::process_default()
    }
}

/// Newton iteration controls.
#[derive(Debug, Clone, Copy)]
pub struct NewtonOpts {
    /// Maximum iterations before declaring failure.
    pub max_iter: usize,
    /// Convergence tolerance on the largest voltage update, V.
    pub v_tol: f64,
    /// Damping: the largest voltage change applied in one iteration, V.
    pub v_step_max: f64,
    /// Linear-solve strategy (see [`SolverStrategy`]).
    pub strategy: SolverStrategy,
    /// Device-latency mode: `On` enables the bypass cache and (for
    /// partitioned circuits) the quiescent-partition dormancy tier during
    /// transient solves; `Off` is the full-evaluation baseline (see
    /// [`DeviceLatency`]).
    pub latency: DeviceLatency,
}

impl Default for NewtonOpts {
    fn default() -> Self {
        NewtonOpts {
            max_iter: 200,
            // 20 nV: far below any measurement in this workspace (metrics
            // live at mV scale) yet loose enough that the near-quadratic
            // TFET output-onset region cannot trap the iteration in a
            // numerical limit cycle.
            v_tol: 2e-8,
            v_step_max: 0.3,
            strategy: SolverStrategy::default(),
            latency: DeviceLatency::default(),
        }
    }
}

/// The g_min relaxation ladder used when plain Newton fails. Ends at zero so
/// the final solution is physical — essential here because TFET hold
/// currents (1e-17 A) are smaller than a conventional simulator's
/// residual g_min would inject.
const GMIN_LADDER: &[f64] = &[1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0];

/// Runs damped Newton at fixed `t`/`gmin`/`caps` from `x0`, using (and
/// reusing) the buffers in `bufs` — a steady-state call allocates nothing.
///
/// Dispatches on [`NewtonOpts::strategy`]: the legacy dense loop
/// (refactorize + fully re-evaluate every iteration) or the sparse
/// modified-Newton loop (factorization reuse + device bypass).
///
/// Returns the converged state, or the pair `(best_state, error)` on
/// failure so ladders can continue from partial progress.
#[allow(clippy::too_many_arguments)] // solver-internal
pub(crate) fn newton(
    mna: &Mna<'_>,
    bufs: &mut SolverBufs,
    x: Vec<f64>,
    t: f64,
    gmin: f64,
    anchor: Option<&[f64]>,
    caps: Option<&CompanionCaps>,
    opts: &NewtonOpts,
    time_label: Option<f64>,
) -> Result<Vec<f64>, (Vec<f64>, SimError)> {
    match opts.strategy {
        SolverStrategy::Dense => {
            newton_dense(mna, bufs, x, t, gmin, anchor, caps, opts, time_label)
        }
        SolverStrategy::Sparse => {
            newton_sparse(mna, bufs, x, t, gmin, anchor, caps, opts, time_label)
        }
    }
}

/// The legacy dense-LU Newton loop: assemble, factorize, and solve every
/// iteration. Kept arithmetically untouched as the cross-check reference.
#[allow(clippy::too_many_arguments)] // solver-internal
fn newton_dense(
    mna: &Mna<'_>,
    bufs: &mut SolverBufs,
    mut x: Vec<f64>,
    t: f64,
    gmin: f64,
    anchor: Option<&[f64]>,
    caps: Option<&CompanionCaps>,
    opts: &NewtonOpts,
    time_label: Option<f64>,
) -> Result<Vec<f64>, (Vec<f64>, SimError)> {
    let n = mna.unknown_count();
    let n_v = mna.voltage_count();
    bufs.ensure(n, mna.circuit().transistors.len());
    bufs.newton_solves += 1;
    bufs.res_history.clear();
    let _span = tfet_obs::span("newton");

    let mut last_delta = f64::INFINITY;
    let mut last_residual = f64::INFINITY;
    for iter in 0..opts.max_iter {
        bufs.newton_iters += 1;
        let stats = mna.assemble_into(
            &x,
            t,
            gmin,
            anchor,
            caps,
            &mut bufs.j,
            &mut bufs.f,
            &mut bufs.lins,
            false,
        );
        bufs.device_evals += stats.evals;
        // Residual infinity-norm: convergence is decided on |Δv| below, but
        // the history is what a post-mortem of a failed solve needs. The
        // pushes reuse reserved capacity (see `RES_HISTORY_CAP`), so the
        // hot path stays allocation-free.
        last_residual = bufs.f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if bufs.res_history.len() < bufs.res_history.capacity() {
            bufs.res_history.push(last_residual);
        }
        bufs.jac_refactored += 1;
        if let Err(e) = bufs.lu.factorize(&bufs.j) {
            tfet_obs::record_u64("newton.iters_per_solve", iter as u64 + 1);
            return Err((x, SimError::from_solve(e, time_label)));
        }
        for (r, v) in bufs.rhs.iter_mut().zip(&bufs.f) {
            *r = -v;
        }
        bufs.lu.solve_into(&bufs.rhs, &mut bufs.dx);
        let dx = &bufs.dx;

        // Undamped voltage-update magnitude decides convergence.
        let max_dv = dx[..n_v].iter().fold(0.0f64, |m, d| m.max(d.abs()));
        if !max_dv.is_finite() {
            tfet_obs::record_u64("newton.iters_per_solve", iter as u64 + 1);
            return Err((
                x,
                SimError::NoConvergence {
                    time: time_label,
                    iterations: iter,
                    last_delta: f64::INFINITY,
                    residual_norm: last_residual,
                },
            ));
        }
        // Damping factor limits voltage moves; branch currents follow suit
        // so the iterate stays near the linearization.
        let scale = if max_dv > opts.v_step_max {
            opts.v_step_max / max_dv
        } else {
            1.0
        };
        for (xi, di) in x.iter_mut().zip(dx) {
            *xi += scale * di;
        }
        last_delta = max_dv;
        if max_dv < opts.v_tol {
            tfet_obs::record_u64("newton.iters_per_solve", iter as u64 + 1);
            return Ok(x);
        }
    }
    tfet_obs::record_u64("newton.iters_per_solve", opts.max_iter as u64);
    tfet_obs::counter("newton.failures", 1);
    Err((
        x,
        SimError::NoConvergence {
            time: time_label,
            iterations: opts.max_iter,
            last_delta,
            residual_norm: last_residual,
        },
    ))
}

/// The sparse modified-Newton loop.
///
/// Per iteration it assembles the residual (with device-evaluation bypass)
/// and, when a valid factorization from an earlier iteration or step is
/// available and `gmin == 0`, *reuses* it instead of refactorizing. The
/// pattern-backed sparse Jacobian is stamped only when it is read — by a
/// refactorization or the consistency check below — so the chord iterations
/// that reuse a factor never pay for one.
///
/// A reused factor that stops contracting the update — `|Δv| ≥ v_tol` and
/// shrinking by less than ~1.4× versus the previous chord iteration (the
/// first iteration of a solve is exempt, so a factor carried across
/// transient steps gets one chord probe before it can be declared stale) —
/// triggers a full refactorization at the current iterate and an immediate
/// re-solve, bounded to once per iteration; gmin-laddered solves (the rescue
/// path, untouched above this function) always refactorize and never publish
/// their factors for reuse.
///
/// Convergence is declared on the same undamped `|Δv| < v_tol` test as the
/// dense loop, with one extra safeguard: a convergence claim produced by a
/// *reused* factor is only accepted after a mat-vec consistency check
/// against the Jacobian at the current iterate
/// ([`SolverBufs::sparse_update_consistent`]) — an inconsistent factor
/// triggers refactorization and a re-solve of the same right-hand side.
/// Together the stall guard and the consistency check bound how stale a
/// factor can get in both failure directions (divergence and false
/// convergence).
#[allow(clippy::too_many_arguments)] // solver-internal
fn newton_sparse(
    mna: &Mna<'_>,
    bufs: &mut SolverBufs,
    mut x: Vec<f64>,
    t: f64,
    gmin: f64,
    anchor: Option<&[f64]>,
    caps: Option<&CompanionCaps>,
    opts: &NewtonOpts,
    time_label: Option<f64>,
) -> Result<Vec<f64>, (Vec<f64>, SimError)> {
    let n = mna.unknown_count();
    let n_v = mna.voltage_count();
    bufs.ensure(n, mna.circuit().transistors.len());
    bufs.ensure_sparse(mna);
    bufs.ensure_latency(mna);
    bufs.newton_solves += 1;
    bufs.res_history.clear();
    let _span = tfet_obs::span("newton");

    // Factor reuse is only sound for the physical (gmin = 0) system: ladder
    // rungs perturb the diagonal, so their factors are never kept.
    let allow_reuse = gmin == 0.0;
    // Device bypass (and the partition tier above it) is a transient-only
    // optimization: those solves are LTE-controlled, so the (second-order)
    // extrapolation error stays far inside the step-acceptance budget. DC
    // operating points are solved with full evaluations — they are rare,
    // and they anchor accuracy contracts (VTC sweeps, SNM extraction) at the
    // Newton tolerance itself. `DeviceLatency::Off` disables both layers,
    // giving the clean full-evaluation baseline the figure-identity gate
    // compares against. Partitioned circuits additionally get incremental
    // Jacobian maintenance (`assemble_sparse_latent`).
    let use_cache = caps.is_some() && opts.latency == DeviceLatency::On;
    let src = JacSource {
        mna,
        gmin,
        caps,
        bypass: use_cache,
    };
    let mut last_delta = f64::INFINITY;
    let mut last_residual = f64::INFINITY;
    // Starting at ∞ (not zero) exempts the *first* chord iteration from the
    // stall guard: on a fixed transient grid the companion conductances are
    // constant and the previous step's factorization is a near-exact
    // preconditioner, so even steps whose first update is large contract
    // geometrically under chord iteration. A guard primed at zero would
    // refactorize every moving step — ruinous at array scale, where one
    // LU factorization outweighs dozens of triangular solves and the
    // latency tier has already made per-iteration assembly cheap. A factor
    // that really is stale still trips the 0.7-contraction guard below on
    // the second iteration, after exactly one wasted triangular solve.
    let mut prev_max_dv = f64::INFINITY;
    for iter in 0..opts.max_iter {
        bufs.newton_iters += 1;
        {
            let _span = tfet_obs::span("assemble");
            // Every assembly writes the residual only and leaves the
            // Jacobian stale: the stall guard, the consistency check or a
            // non-reusing iteration rebuilds it when it reads it
            // (`SolverBufs::fresh_jacobian`), so chord iterations — nearly
            // all of them — never stamp one.
            let s = bufs.sparse.as_mut().expect("ensure_sparse ran");
            let stats = match (use_cache, bufs.latency.as_mut(), caps) {
                (true, Some(lat), Some(caps)) => {
                    s.stale = JacStale::Compose;
                    mna.assemble_sparse_latent(
                        &x,
                        t,
                        gmin,
                        anchor,
                        caps,
                        &mut s.jac,
                        &mut s.inc,
                        &mut bufs.f,
                        &mut bufs.device_cache,
                        lat,
                    )
                }
                _ => {
                    s.stale = JacStale::Stamp;
                    let lins = if use_cache {
                        &mut bufs.device_cache
                    } else {
                        &mut bufs.lins
                    };
                    mna.assemble_residual(&x, t, gmin, anchor, caps, &mut bufs.f, lins, use_cache)
                }
            };
            bufs.device_evals += stats.evals;
            bufs.devices_bypassed += stats.bypassed;
            bufs.devices_dormant += stats.dormant;
            bufs.cells_refreshed += stats.cells_refreshed;
            bufs.guard_refreshes += stats.guard_refreshes;
        }
        last_residual = bufs.f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if bufs.res_history.len() < bufs.res_history.capacity() {
            bufs.res_history.push(last_residual);
        }

        let reused = allow_reuse
            && bufs
                .sparse
                .as_ref()
                .is_some_and(|s| s.factor_valid && s.lu.is_factored());
        if reused {
            bufs.jac_reused += 1;
        } else if let Err(e) = bufs.sparse_refactor(allow_reuse, &src) {
            tfet_obs::record_u64("newton.iters_per_solve", iter as u64 + 1);
            return Err((x, SimError::from_solve(e, time_label)));
        }
        let mut solved_with_reuse = reused;
        for (r, v) in bufs.rhs.iter_mut().zip(&bufs.f) {
            *r = -v;
        }
        {
            let _span = tfet_obs::span("trisolve");
            let s = bufs.sparse.as_mut().expect("ensure_sparse ran");
            s.lu.solve_into(&bufs.rhs, &mut bufs.dx);
        }
        bufs.sparse_solves += 1;
        let mut max_dv = bufs.dx[..n_v].iter().fold(0.0f64, |m, d| m.max(d.abs()));

        // Stall guard: a reused factor whose update has stopped shrinking
        // (contraction worse than ~1.4× per chord iteration) gets replaced
        // by a fresh factorization of the Jacobian at the current iterate,
        // and the step is re-solved within this same iteration.
        // The threshold trades chord iterations against refactorizations:
        // chord iterations whose terminal movement sits inside the bypass
        // window cost no device evaluations, so tolerating a slower but
        // still geometric contraction is cheaper than refactoring.
        if reused && max_dv.is_finite() && max_dv >= opts.v_tol && max_dv > 0.7 * prev_max_dv {
            if let Err(e) = bufs.sparse_refactor(allow_reuse, &src) {
                tfet_obs::record_u64("newton.iters_per_solve", iter as u64 + 1);
                return Err((x, SimError::from_solve(e, time_label)));
            }
            {
                let s = bufs.sparse.as_mut().expect("ensure_sparse ran");
                s.lu.solve_into(&bufs.rhs, &mut bufs.dx);
            }
            bufs.sparse_solves += 1;
            max_dv = bufs.dx[..n_v].iter().fold(0.0f64, |m, d| m.max(d.abs()));
            solved_with_reuse = false;
        }

        // A convergence claim backed by a reused factor must also be backed
        // by the *current* Jacobian: verify `J·Δx ≈ −f` with one mat-vec and
        // refactorize + re-solve when the stale factor no longer solves the
        // assembled system (e.g. after a step-size change, or after the UIC
        // hold solve's artificially pinned system). Without this, a factor
        // with an inflated diagonal yields `Δv ≈ 0` and Newton "converges"
        // instantly without moving — a frozen waveform, not a solution.
        if solved_with_reuse
            && max_dv.is_finite()
            && max_dv < opts.v_tol
            && !bufs.sparse_update_consistent(&src)
        {
            if let Err(e) = bufs.sparse_refactor(allow_reuse, &src) {
                tfet_obs::record_u64("newton.iters_per_solve", iter as u64 + 1);
                return Err((x, SimError::from_solve(e, time_label)));
            }
            {
                let s = bufs.sparse.as_mut().expect("ensure_sparse ran");
                s.lu.solve_into(&bufs.rhs, &mut bufs.dx);
            }
            bufs.sparse_solves += 1;
            max_dv = bufs.dx[..n_v].iter().fold(0.0f64, |m, d| m.max(d.abs()));
        }
        prev_max_dv = max_dv;

        if !max_dv.is_finite() {
            tfet_obs::record_u64("newton.iters_per_solve", iter as u64 + 1);
            return Err((
                x,
                SimError::NoConvergence {
                    time: time_label,
                    iterations: iter,
                    last_delta: f64::INFINITY,
                    residual_norm: last_residual,
                },
            ));
        }
        let scale = if max_dv > opts.v_step_max {
            opts.v_step_max / max_dv
        } else {
            1.0
        };
        for (xi, di) in x.iter_mut().zip(&bufs.dx) {
            *xi += scale * di;
        }
        last_delta = max_dv;
        if max_dv < opts.v_tol {
            tfet_obs::record_u64("newton.iters_per_solve", iter as u64 + 1);
            return Ok(x);
        }
    }
    tfet_obs::record_u64("newton.iters_per_solve", opts.max_iter as u64);
    tfet_obs::counter("newton.failures", 1);
    Err((
        x,
        SimError::NoConvergence {
            time: time_label,
            iterations: opts.max_iter,
            last_delta,
            residual_norm: last_residual,
        },
    ))
}

/// Full operating-point solve with g_min-stepping fallback.
///
/// With `anchored = true` the plain-Newton fast path is skipped and the
/// solve follows the g_min continuation pinned to the initial guess from
/// the start. Callers that picked a guess to *select an operating point* of
/// a multistable circuit need this: a bare Newton iteration is free to
/// converge to any solution — including the SRAM cell's metastable point —
/// no matter how suggestive the starting point was.
#[allow(clippy::too_many_arguments)] // solver-internal
pub(crate) fn solve_op(
    mna: &Mna<'_>,
    bufs: &mut SolverBufs,
    anchor_buf: &mut Vec<f64>,
    x0: Vec<f64>,
    t: f64,
    caps: Option<&CompanionCaps>,
    opts: &NewtonOpts,
    time_label: Option<f64>,
    anchored: bool,
) -> Result<Vec<f64>, SimError> {
    // Snapshot the initial guess into the reusable anchor buffer: the plain
    // Newton fast path needs it to restart on failure, the g_min ladder
    // needs it as the basin-preserving anchor. Copying into the retained
    // buffer keeps the hot path (fast-path success, the outcome of nearly
    // every transient step) allocation-free.
    anchor_buf.clear();
    anchor_buf.extend_from_slice(&x0);
    let mut x = x0;
    if !anchored {
        // Fast path: plain Newton from the guess.
        match newton(mna, bufs, x, t, 0.0, None, caps, opts, time_label) {
            Ok(x) => return Ok(x),
            Err((best, _)) => {
                // Reuse the returned vector; restart the ladder from the
                // original guess.
                tfet_obs::counter("newton.gmin_ladders", 1);
                x = best;
                x.copy_from_slice(anchor_buf);
            }
        }
    }
    // g_min ladder, carrying the state forward. The ladder conductances
    // anchor every node to the *initial guess*, not to ground — for a
    // bistable circuit this keeps the solve in the basin the caller chose.
    let mut last_err = None;
    for &gmin in GMIN_LADDER {
        match newton(
            mna,
            bufs,
            x.clone(),
            t,
            gmin,
            Some(anchor_buf),
            caps,
            opts,
            time_label,
        ) {
            Ok(next) => x = next,
            Err((best, e)) => {
                // Keep partial progress; a failure mid-ladder can still
                // position the final rung to converge.
                x = best;
                last_err = Some(e);
            }
        }
        if gmin == 0.0 {
            // Final rung must succeed cleanly.
            return match last_err.take() {
                None => Ok(x),
                Some(e) => Err(e),
            };
        }
        last_err = None;
    }
    unreachable!("gmin ladder ends at 0.0")
}

/// A converged DC operating point.
#[derive(Debug, Clone)]
pub struct DcResult {
    pub(crate) x: Vec<f64>,
    pub(crate) n_v: usize,
    /// `(plus, minus, value)` per source at the solve time, for power
    /// accounting.
    pub(crate) source_volts: Vec<f64>,
}

impl DcResult {
    /// Node voltage, V.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Branch current of a voltage source, A — defined flowing from the
    /// `plus` terminal *through the source* to `minus` (so a battery
    /// delivering power reports a negative branch current).
    pub fn source_current(&self, id: SourceId) -> f64 {
        self.x[self.n_v + id.0]
    }

    /// Power delivered *by* the source to the circuit, W.
    pub fn power_delivered(&self, id: SourceId) -> f64 {
        -self.source_volts[id.0] * self.source_current(id)
    }

    /// Total power delivered by all sources, W — the circuit's static
    /// dissipation at this operating point.
    pub fn total_power(&self) -> f64 {
        (0..self.source_volts.len())
            .map(|k| -self.source_volts[k] * self.x[self.n_v + k])
            .sum()
    }

    /// The raw unknown vector (voltages then branch currents) — the seed for
    /// a subsequent transient.
    pub fn state(&self) -> &[f64] {
        &self.x
    }
}

impl Circuit {
    /// Solves the DC operating point with all sources at their `t = 0`
    /// values and a zero initial guess.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidCircuit`] for structurally bad netlists,
    /// [`SimError::SingularMatrix`] / [`SimError::NoConvergence`] when the
    /// solve fails.
    pub fn dc_op(&self) -> Result<DcResult, SimError> {
        self.dc_op_with_guess(&[])
    }

    /// Solves the DC operating point starting from voltage hints.
    ///
    /// For bistable circuits the hints select the operating point: seed the
    /// storage nodes with the intended state and Newton converges into that
    /// basin.
    pub fn dc_op_with_guess(&self, guess: &[(NodeId, f64)]) -> Result<DcResult, SimError> {
        let mna = Mna::new(self)?;
        let x =
            with_workspace(|ws| self.dc_state_with(&mna, guess, ws, SolverStrategy::default()))?;
        Ok(DcResult {
            x,
            n_v: mna.voltage_count(),
            source_volts: self.vsources.iter().map(|v| v.wave.initial()).collect(),
        })
    }

    /// Solves for the raw DC state vector using the caller's workspace —
    /// the allocation-free core behind [`dc_op_with_guess`] that the
    /// transient integrator also uses for its initial operating point.
    ///
    /// [`dc_op_with_guess`]: Circuit::dc_op_with_guess
    pub(crate) fn dc_state_with(
        &self,
        mna: &Mna<'_>,
        guess: &[(NodeId, f64)],
        ws: &mut NewtonWorkspace,
        strategy: SolverStrategy,
    ) -> Result<Vec<f64>, SimError> {
        // Fresh solve entry: whatever the workspace cached (device operating
        // points, a factorization) belongs to some earlier run.
        ws.bufs.invalidate_caches();
        let mut x0 = vec![0.0; mna.unknown_count()];
        for &(node, v) in guess {
            if !node.is_ground() {
                x0[node.index() - 1] = v;
            }
        }
        // Pre-seed source nodes with their stimulus value: a free, large
        // step toward the solution.
        for vs in &self.vsources {
            if vs.minus.is_ground() && !vs.plus.is_ground() {
                x0[vs.plus.index() - 1] = vs.wave.initial();
            }
        }
        let opts = NewtonOpts {
            strategy,
            ..NewtonOpts::default()
        };
        // An explicit guess means the caller is selecting among operating
        // points: follow the anchored continuation so the basin survives.
        let anchored = !guess.is_empty();
        solve_op(
            mna,
            &mut ws.bufs,
            &mut ws.anchor,
            x0,
            0.0,
            None,
            &opts,
            None,
            anchored,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use std::sync::Arc;
    use tfet_devices::{NTfet, Nmos, PTfet, Pmos};

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let v = c.vsource("V", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor(a, b, 1e3);
        c.resistor(b, Circuit::GND, 3e3);
        let op = c.dc_op().unwrap();
        assert!((op.voltage(b) - 0.75).abs() < 1e-9);
        // Current: 1 V / 4 kΩ = 0.25 mA delivered.
        assert!((op.source_current(v) + 0.25e-3).abs() < 1e-9);
        assert!((op.power_delivered(v) - 0.25e-3).abs() < 1e-9);
        assert!((op.total_power() - 0.25e-3).abs() < 1e-9);
    }

    #[test]
    fn floating_node_through_gmin() {
        // A current source into a node whose only path is another current
        // source would be singular; with a resistor it converges plainly.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.isource(Circuit::GND, a, Waveform::dc(1e-6));
        c.resistor(a, Circuit::GND, 1e6);
        let op = c.dc_op().unwrap();
        assert!((op.voltage(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nmos_inverter_logic_levels() {
        // Resistive-load NMOS inverter.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
        let vin = c.vsource("VIN", inp, Circuit::GND, Waveform::dc(0.0));
        c.resistor(vdd, out, 1e6);
        c.transistor("M1", Arc::new(Nmos::nominal()), out, inp, Circuit::GND, 1.0);

        let op = c.dc_op().unwrap();
        assert!(op.voltage(out) > 0.75, "input low → output high");

        c.set_vsource_wave(vin, Waveform::dc(0.8));
        let op = c.dc_op().unwrap();
        assert!(op.voltage(out) < 0.1, "input high → output low");
    }

    #[test]
    fn cmos_inverter_rail_to_rail() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
        let vin = c.vsource("VIN", inp, Circuit::GND, Waveform::dc(0.0));
        c.transistor("MP", Arc::new(Pmos::nominal()), out, inp, vdd, 0.2);
        c.transistor("MN", Arc::new(Nmos::nominal()), out, inp, Circuit::GND, 0.1);

        let op = c.dc_op().unwrap();
        assert!(op.voltage(out) > 0.79, "out = {}", op.voltage(out));

        c.set_vsource_wave(vin, Waveform::dc(0.8));
        let op = c.dc_op().unwrap();
        assert!(op.voltage(out) < 0.01, "out = {}", op.voltage(out));
    }

    #[test]
    fn tfet_inverter_rail_to_rail_with_tiny_static_power() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        let v = c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
        c.vsource("VIN", inp, Circuit::GND, Waveform::dc(0.0));
        c.transistor("MP", Arc::new(PTfet::nominal()), out, inp, vdd, 0.1);
        c.transistor(
            "MN",
            Arc::new(NTfet::nominal()),
            out,
            inp,
            Circuit::GND,
            0.1,
        );

        let op = c.dc_op().unwrap();
        assert!(op.voltage(out) > 0.79, "out = {}", op.voltage(out));
        // Static power set by the off nTFET: ~1e-17 A × 0.8 V × 0.1 µm.
        let p = op.power_delivered(v);
        assert!(p > 0.0 && p < 1e-16, "static power = {p:e} W");
    }

    #[test]
    fn bistable_latch_follows_guess() {
        // Cross-coupled CMOS inverters: two stable points; the guess picks.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let q = c.node("q");
        let qb = c.node("qb");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
        c.transistor("MP1", Arc::new(Pmos::nominal()), q, qb, vdd, 0.2);
        c.transistor("MN1", Arc::new(Nmos::nominal()), q, qb, Circuit::GND, 0.1);
        c.transistor("MP2", Arc::new(Pmos::nominal()), qb, q, vdd, 0.2);
        c.transistor("MN2", Arc::new(Nmos::nominal()), qb, q, Circuit::GND, 0.1);

        let op = c.dc_op_with_guess(&[(q, 0.8), (qb, 0.0)]).unwrap();
        assert!(op.voltage(q) > 0.7 && op.voltage(qb) < 0.1);

        let op = c.dc_op_with_guess(&[(q, 0.0), (qb, 0.8)]).unwrap();
        assert!(op.voltage(q) < 0.1 && op.voltage(qb) > 0.7);
    }

    #[test]
    fn series_sources_and_kvl() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(0.5));
        c.vsource("V2", b, a, Waveform::dc(0.25));
        c.resistor(b, Circuit::GND, 1e3);
        let op = c.dc_op().unwrap();
        assert!((op.voltage(b) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_circuit_errors() {
        let c = Circuit::new();
        assert!(matches!(c.dc_op(), Err(SimError::InvalidCircuit(_))));
    }
}
