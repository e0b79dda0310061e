//! Transient waveform storage and measurements.
//!
//! [`TransientResult`] holds the recorded node voltages at every time point
//! (every node, or a probe set plus the final state) and provides the
//! measurements the SRAM metrics are built from: interpolated
//! values, threshold crossings, and windowed minimum node differences (the
//! paper's dynamic read noise margin is `min over the read window of
//! `V(q) − V(qb)`).

use crate::netlist::NodeId;
use std::sync::Arc;

/// Solver-effort statistics of one transient run — always collected (a few
/// counter increments per step), so benches and tests can assert effort
/// reductions directly instead of inferring them from wall-clock noise.
///
/// # Per-run vs cumulative semantics
///
/// A [`TransientResult::stats`] is strictly **per-run**: the engine
/// snapshots the workspace's monotone effort counters at entry and stores
/// the difference at exit, so the numbers describe that run alone no matter
/// how many runs shared the workspace before it. They count only the work
/// the run performed: a run resumed from a checkpoint trail
/// ([`CompiledCircuit::run_on_trail`]) records the restored prefix's
/// samples but counts none of its steps, solves or evaluations, so its
/// `accepted_steps` is smaller than its recorded sample count minus one.
/// Two views aggregate:
///
/// * [`absorb`](SolveStats::absorb) — caller-driven: sum any set of per-run
///   stats (a `WL_crit` search, a Monte-Carlo batch).
/// * [`CompiledCircuit::lifetime_stats`] — instance-driven: every
///   successful run of one compiled circuit, absorbed automatically.
///
/// `circuit_builds`/`param_binds` are attributed to the *next* run after
/// the compile/bind happens, so per-run values can be 0 while the lifetime
/// view still accounts for every build and bind exactly once.
///
/// [`CompiledCircuit::lifetime_stats`]: crate::CompiledCircuit::lifetime_stats
/// [`CompiledCircuit::run_on_trail`]: crate::CompiledCircuit::run_on_trail
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Time steps this run accepted (each recorded in the waveform store;
    /// a resumed run's restored steps are recorded but not counted).
    pub accepted_steps: u64,
    /// Adaptive trial steps rejected by the local-truncation-error test
    /// or by a Newton failure at the attempted step size.
    pub rejected_steps: u64,
    /// Newton solves started, including the initial-state solve and both
    /// sides of every adaptive step-doubling comparison.
    pub newton_solves: u64,
    /// Newton iterations performed (each is one Jacobian assembly plus one
    /// LU factorization — the unit of solver work).
    pub newton_iters: u64,
    /// Circuits compiled for this run (netlist construction + MNA pattern
    /// derivation). The convenience entry points on [`Circuit`] count one
    /// build per run — rebuild-per-run semantics — while a
    /// [`CompiledCircuit`] counts its single compile on the first run only,
    /// so aggregated stats expose the build/run ratio directly.
    ///
    /// [`Circuit`]: crate::Circuit
    /// [`CompiledCircuit`]: crate::CompiledCircuit
    pub circuit_builds: u64,
    /// Parameter binds (waveform or device rebinds on a compiled circuit)
    /// applied since the previous run.
    pub param_binds: u64,
    /// Transient runs executed (1 per [`TransientResult`]; additive under
    /// [`absorb`](SolveStats::absorb)).
    pub runs: u64,
    /// Rescue-ladder rungs attempted after a terminal per-step Newton
    /// failure (each rung subdivides the failing step; see the transient
    /// module docs). Nonzero only when a step failed outright at its
    /// requested size.
    pub rescue_attempts: u64,
    /// Steps salvaged by the rescue ladder — accepted steps that would have
    /// aborted the run before the ladder existed.
    pub rescued_steps: u64,
    /// Jacobian factorizations performed. Dense strategy: one per Newton
    /// iteration by construction. Sparse strategy: only on cache-cold
    /// iterations and convergence stalls — `newton_iters − jac_refactored`
    /// is the modified-Newton saving.
    pub jac_refactored: u64,
    /// Newton iterations that reused a retained factorization instead of
    /// refactorizing (sparse strategy only; always 0 under dense).
    pub jac_reused: u64,
    /// Full transistor model evaluations during Jacobian/residual assembly.
    /// Dense strategy: `newton_iters × transistor_count` by construction.
    pub device_evals: u64,
    /// Transistor stamps served from the bypass cache instead of a model
    /// evaluation (sparse strategy only; always 0 under dense).
    pub devices_bypassed: u64,
    /// Transistor stamps replayed because their whole latency partition was
    /// dormant (registered partitions under the latency tier; 0 otherwise).
    pub devices_dormant: u64,
    /// Latency partitions refreshed — every member device re-evaluated in
    /// one coherent assembly (see [`crate::latency`]).
    pub cells_refreshed: u64,
    /// The subset of `cells_refreshed` forced purely by guard-node movement
    /// (an adjacent wordline/bitline moved while the cell's own storage
    /// nodes were still quiet) — the counter proving the correctness guard
    /// fires.
    pub guard_refreshes: u64,
    /// Whether a stop event ended the run before `t_stop`.
    pub early_exit: bool,
}

impl SolveStats {
    /// Accumulates another run's counters into this one (`early_exit` ORs),
    /// for callers aggregating effort across many transients — e.g. one
    /// `WL_crit` search.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.accepted_steps += other.accepted_steps;
        self.rejected_steps += other.rejected_steps;
        self.newton_solves += other.newton_solves;
        self.newton_iters += other.newton_iters;
        self.circuit_builds += other.circuit_builds;
        self.param_binds += other.param_binds;
        self.runs += other.runs;
        self.rescue_attempts += other.rescue_attempts;
        self.rescued_steps += other.rescued_steps;
        self.jac_refactored += other.jac_refactored;
        self.jac_reused += other.jac_reused;
        self.device_evals += other.device_evals;
        self.devices_bypassed += other.devices_bypassed;
        self.devices_dormant += other.devices_dormant;
        self.cells_refreshed += other.cells_refreshed;
        self.guard_refreshes += other.guard_refreshes;
        self.early_exit |= other.early_exit;
    }
}

/// Recorded node-voltage waveforms of a transient run.
///
/// Samples are stored in one flat row-major buffer (one voltage per
/// recorded node per time point) so that recording a step never allocates:
/// the transient loop pre-sizes the buffer for the whole run and each push
/// is a plain append into reserved capacity.
///
/// A run records every node by default. A probed run
/// ([`CompiledCircuit::run_probed`](crate::CompiledCircuit::run_probed))
/// keeps the traces of the named nodes only, plus the full state at the
/// final time point: [`final_voltage`](Self::final_voltage) answers for
/// every node either way, while the waveform accessors panic, naming the
/// node, when asked for a node the run did not record.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// Flattened `[step][column]` voltages. Recording every node, column
    /// `i` is node `i`, ground (always 0.0) included; recording probes,
    /// column `k` is `probes.nodes[k]`.
    data: Vec<f64>,
    node_count: usize,
    /// The recorded subset; `None` when every node is recorded. Boxed so
    /// the common full recording carries one pointer for it.
    probes: Option<Box<Probes>>,
    /// Solver-effort counters for **this run only** (snapshot-differenced
    /// around the run, never cumulative across a shared workspace); see the
    /// [`SolveStats`] docs for the aggregated views.
    pub stats: SolveStats,
    /// Per-partition dormancy telemetry for this run, indexed like the
    /// circuit's registered [`CellPartition`](crate::CellPartition) list
    /// (empty when the circuit has no partitions). Accumulated serially in
    /// the latency tier's decide phase, so bit-identical at any
    /// device-evaluation thread count.
    pub partitions: Vec<crate::latency::PartitionTelemetry>,
}

/// The nodes a probed run records, and the full state it keeps in their
/// place.
#[derive(Debug, Clone)]
struct Probes {
    nodes: Vec<NodeId>,
    /// Every node's voltage at the latest recorded step, ground included.
    last: Vec<f64>,
    /// The circuit's node names, for the unrecorded-node panic.
    names: Arc<Vec<String>>,
}

impl TransientResult {
    pub(crate) fn with_capacity(node_count: usize, steps: usize) -> Self {
        TransientResult {
            times: Vec::with_capacity(steps),
            data: Vec::with_capacity(steps * node_count),
            node_count,
            probes: None,
            stats: SolveStats::default(),
            partitions: Vec::new(),
        }
    }

    /// A store recording only `nodes`' traces (plus the final full state)
    /// of a circuit whose node table is `names`.
    pub(crate) fn probed(names: Arc<Vec<String>>, nodes: &[NodeId], steps: usize) -> Self {
        let node_count = names.len();
        assert!(
            nodes.iter().all(|n| n.index() < node_count),
            "probe node outside the circuit"
        );
        TransientResult {
            times: Vec::with_capacity(steps),
            data: Vec::with_capacity(steps * nodes.len()),
            node_count,
            probes: Some(Box::new(Probes {
                nodes: nodes.to_vec(),
                last: vec![0.0; node_count],
                names,
            })),
            stats: SolveStats::default(),
            partitions: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, t: f64, volts: impl Fn(NodeId) -> f64) {
        self.times.push(t);
        match &mut self.probes {
            None => self
                .data
                .extend((0..self.node_count).map(|i| volts(NodeId(i)))),
            Some(p) => {
                for (i, v) in p.last.iter_mut().enumerate() {
                    *v = volts(NodeId(i));
                }
                self.data.extend(p.nodes.iter().map(|n| p.last[n.index()]));
            }
        }
    }

    /// Copies a full recording's time axis and samples into `times` and
    /// `data`, reusing their buffers.
    pub(crate) fn save_samples(&self, times: &mut Vec<f64>, data: &mut Vec<f64>) {
        assert!(self.probes.is_none(), "only full recordings are saved");
        times.clone_from(&self.times);
        data.clone_from(&self.data);
    }

    /// Appends samples saved by [`save_samples`](Self::save_samples) from a
    /// recording of the same circuit.
    pub(crate) fn extend_samples(&mut self, times: &[f64], data: &[f64]) {
        assert!(self.probes.is_none(), "only full recordings are extended");
        assert_eq!(data.len(), times.len() * self.node_count, "sample shape");
        self.times.extend_from_slice(times);
        self.data.extend_from_slice(data);
    }

    /// Voltages per recorded step.
    fn stride(&self) -> usize {
        self.probes
            .as_ref()
            .map_or(self.node_count, |p| p.nodes.len())
    }

    /// The column holding `node`'s trace.
    ///
    /// # Panics
    ///
    /// Panics, naming the node, if the run did not record it.
    fn column(&self, node: NodeId) -> usize {
        let Some(p) = &self.probes else {
            return node.index();
        };
        p.nodes.iter().position(|&n| n == node).unwrap_or_else(|| {
            let name = |n: NodeId| p.names.get(n.index()).map_or("?", String::as_str);
            let recorded: Vec<&str> = p.nodes.iter().map(|&n| name(n)).collect();
            panic!(
                "node `{}` was not recorded by this run (recorded: {})",
                name(node),
                recorded.join(", ")
            )
        })
    }

    /// The voltage row recorded at step `k`.
    #[inline]
    fn row(&self, k: usize) -> &[f64] {
        let stride = self.stride();
        &self.data[k * stride..(k + 1) * stride]
    }

    /// The time axis, s.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The waveform of one node as a vector aligned with [`times`].
    ///
    /// [`times`]: TransientResult::times
    pub fn trace(&self, node: NodeId) -> Vec<f64> {
        let idx = self.column(node);
        (0..self.len()).map(|k| self.row(k)[idx]).collect()
    }

    /// Linearly interpolated node voltage at time `t` (clamped to the run).
    ///
    /// # Panics
    ///
    /// Panics if the result is empty.
    pub fn voltage_at(&self, node: NodeId, t: f64) -> f64 {
        assert!(!self.is_empty(), "empty transient result");
        let idx = self.column(node);
        if t <= self.times[0] {
            return self.row(0)[idx];
        }
        if t >= *self.times.last().expect("nonempty") {
            return self.row(self.len() - 1)[idx];
        }
        let k = self.times.partition_point(|&x| x <= t) - 1;
        let (t0, t1) = (self.times[k], self.times[k + 1]);
        let (v0, v1) = (self.row(k)[idx], self.row(k + 1)[idx]);
        let u = (t - t0) / (t1 - t0);
        v0 * (1.0 - u) + v1 * u
    }

    /// The node voltage at the final time point.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        assert!(!self.is_empty(), "empty transient result");
        match &self.probes {
            Some(p) => p.last[node.index()],
            None => self.row(self.len() - 1)[node.index()],
        }
    }

    /// The first time ≥ `t_after` at which the node crosses `level` in the
    /// given direction (linear interpolation between samples), or `None`.
    pub fn crossing(&self, node: NodeId, level: f64, rising: bool, t_after: f64) -> Option<f64> {
        let idx = self.column(node);
        for k in 0..self.times.len().saturating_sub(1) {
            if self.times[k + 1] < t_after {
                continue;
            }
            let (v0, v1) = (self.row(k)[idx], self.row(k + 1)[idx]);
            let crossed = if rising {
                v0 < level && v1 >= level
            } else {
                v0 > level && v1 <= level
            };
            if crossed {
                let u = (level - v0) / (v1 - v0);
                let t = self.times[k] + u * (self.times[k + 1] - self.times[k]);
                if t >= t_after {
                    return Some(t);
                }
            }
        }
        None
    }

    /// Minimum of `V(a) − V(b)` over the window `[t_from, t_to]` — the
    /// primitive behind the paper's dynamic read noise margin.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty or the window selects no samples.
    pub fn min_difference(&self, a: NodeId, b: NodeId, t_from: f64, t_to: f64) -> f64 {
        let (ia, ib) = (self.column(a), self.column(b));
        let mut min = f64::INFINITY;
        for (k, &t) in self.times.iter().enumerate() {
            if t < t_from || t > t_to {
                continue;
            }
            let row = self.row(k);
            min = min.min(row[ia] - row[ib]);
        }
        assert!(
            min.is_finite(),
            "window [{t_from:e}, {t_to:e}] selects no samples"
        );
        min
    }

    /// Maximum voltage of a node over the whole run.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty.
    pub fn max_voltage(&self, node: NodeId) -> f64 {
        let idx = self.column(node);
        (0..self.len())
            .map(|k| self.row(k)[idx])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum voltage of a node over the whole run.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty.
    pub fn min_voltage(&self, node: NodeId) -> f64 {
        let idx = self.column(node);
        (0..self.len())
            .map(|k| self.row(k)[idx])
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_result() -> TransientResult {
        // Node 1 ramps 0→1 V over 10 ns; node 2 stays at 0.25 V.
        let mut r = TransientResult::with_capacity(3, 11);
        for k in 0..=10 {
            let t = k as f64 * 1e-9;
            r.push(t, |n| match n.index() {
                1 => k as f64 * 0.1,
                2 => 0.25,
                _ => 0.0,
            });
        }
        r
    }

    #[test]
    fn interpolation_between_samples() {
        let r = ramp_result();
        let n1 = NodeId(1);
        assert!((r.voltage_at(n1, 2.5e-9) - 0.25).abs() < 1e-12);
        assert_eq!(r.voltage_at(n1, -1.0), 0.0);
        assert_eq!(r.voltage_at(n1, 1.0), 1.0);
        assert_eq!(r.final_voltage(n1), 1.0);
        assert_eq!(r.len(), 11);
        assert!(!r.is_empty());
    }

    #[test]
    fn crossing_detection_rising_and_falling() {
        let r = ramp_result();
        let n1 = NodeId(1);
        let t = r.crossing(n1, 0.55, true, 0.0).unwrap();
        assert!((t - 5.5e-9).abs() < 1e-12);
        // No falling crossing on a rising ramp.
        assert_eq!(r.crossing(n1, 0.5, false, 0.0), None);
        // t_after skips early crossings.
        assert_eq!(r.crossing(n1, 0.15, true, 5e-9), None);
    }

    #[test]
    fn min_difference_over_window() {
        let r = ramp_result();
        let (n1, n2) = (NodeId(1), NodeId(2));
        // v1 − v2 over the full run dips to −0.25 at t = 0.
        assert!((r.min_difference(n1, n2, 0.0, 10e-9) + 0.25).abs() < 1e-12);
        // Over the tail window the minimum is at t = 5 ns: 0.5 − 0.25.
        assert!((r.min_difference(n1, n2, 5e-9, 10e-9) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "selects no samples")]
    fn empty_window_panics() {
        let r = ramp_result();
        r.min_difference(NodeId(1), NodeId(2), 20e-9, 30e-9);
    }

    #[test]
    fn extrema() {
        let r = ramp_result();
        assert_eq!(r.max_voltage(NodeId(1)), 1.0);
        assert_eq!(r.min_voltage(NodeId(1)), 0.0);
        assert_eq!(r.max_voltage(NodeId(2)), 0.25);
    }

    #[test]
    fn ground_trace_is_zero() {
        let r = ramp_result();
        assert!(r.trace(NodeId(0)).iter().all(|&v| v == 0.0));
    }
}
