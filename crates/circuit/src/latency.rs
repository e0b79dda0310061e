//! Quiescent-partition device latency: cell-level dormancy tiers for
//! array-scale transients, plus the thread count of their helper pool.
//!
//! A bitcell array transient is dominated by devices that do nothing: during
//! a write, every row but one holds its state at sub-µV drift, yet a naive
//! Newton loop re-evaluates all R×C×6 transistor models each iteration. The
//! PR-6 per-device bypass already skips a model call when a device's own
//! terminals sit still; this module generalizes it to a **partition tier**:
//! the netlist registers groups of devices (one [`CellPartition`] per
//! bitcell) together with the nodes whose movement matters to them, and
//! assembly skips *the whole cell* — decision per cell, not per device —
//! while every terminal stays within tolerance of the cell's last refresh
//! point.
//!
//! Two node lists drive the decision, with different tolerances:
//!
//! * `watch` — the cell-internal storage nodes, checked at the proven
//!   per-device bypass window (`BYPASS_VTOL`, 150 µV);
//! * `guard` — the shared wordline/bitline/rail nodes, checked at
//!   [`GUARD_VTOL`] (16 × 150 µV = 2.4 mV; see its doc for why the replay's
//!   second-order error lets this sit looser than the watch window). When an
//!   adjacent line moves past it — a wordline rising toward a dormant cell, a
//!   bitline discharging beside it — the guard trips and the cell is
//!   force-refreshed *before* any stamp is produced from stale
//!   linearizations.
//!
//! Dormant cells are stamped from their cached first-order linearizations
//! (the same replay as the per-device bypass, so the error stays second
//! order in the movement); refreshed cells re-evaluate **all** their devices
//! at once, which re-anchors both the cache and the reference point the next
//! dormancy decision compares against. Drift therefore accumulates against a
//! fixed refresh point and can never creep past tolerance unnoticed.
//!
//! The tier's state is split into shards (`LatencyShard`): contiguous
//! transistor ranges cut between partitions, each with the partitions that
//! live in it. A transient of a partitioned circuit with at least
//! [`POOL_MIN_DEVICES`] transistors starts a helper pool (`pool.rs`) when
//! [`set_assembly_threads`] (or the machine) gives it more than one thread:
//! one helper per extra thread, started once per run, joined when the run
//! ends. Each assembly's decide and evaluate phases then run shard by shard
//! on every thread, and so do the run's other per-item passes (capacitor
//! re-linearization, companion stamps, the linear Jacobian part and its
//! composition). Every item is computed by one thread from inputs no other
//! thread writes, and everything order-dependent — the residual stamps and
//! the incremental Jacobian's deltas — stays serial in netlist order, so
//! the thread count changes wall-clock only, never bits: the waveforms,
//! stats and partition telemetry of a run are the same at 1 and at 8
//! threads. Smaller circuits never start a thread.
//!
//! No option turns the tier off. Its full-evaluation baseline is a reference
//! oracle reached only through a hidden process hook, which the
//! `figures --latency-off` identity gate sets at startup, and a hidden
//! per-run override for the tests that compare both modes.

use crate::mna::{row_of, AssemblyStats, DeviceLin, BYPASS_VTOL, NO_ROW};
use crate::netlist::{Circuit, NodeId};
use crate::pool::Volts;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tfet_numerics::GroupedIndices;

/// Whether the quiescent-partition latency tier (and the per-device bypass
/// cache beneath it) is active for a solve.
///
/// `Off` is the clean full-evaluation baseline: every transistor model is
/// evaluated on every Newton iteration, exactly like the dense reference
/// path. The figure CSV identity gate in `scripts/check.sh` diffs the two
/// modes byte-for-byte.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceLatency {
    /// Dormancy tier + device bypass active (default).
    On,
    /// Full device evaluation every iteration (cross-check baseline).
    Off,
}

/// Process-wide latency mode (0 = On, 1 = Off), read once at the start of
/// every run that carries no per-run override.
static DEFAULT_LATENCY: AtomicU8 = AtomicU8::new(0);

impl DeviceLatency {
    /// Sets the process-wide latency mode that every run started
    /// afterwards reads.
    ///
    /// For binary startup (the `figures --latency-off` cross-check flag);
    /// tests that compare both modes override one run instead, so they
    /// never race a sibling test.
    pub fn set_process_default(mode: DeviceLatency) {
        DEFAULT_LATENCY.store(mode as u8, Ordering::Relaxed);
    }

    /// The current process-wide latency mode.
    pub fn process_default() -> DeviceLatency {
        match DEFAULT_LATENCY.load(Ordering::Relaxed) {
            1 => DeviceLatency::Off,
            _ => DeviceLatency::On,
        }
    }
}

/// Movement tolerance on `guard` nodes — the shared wordline/bitline/rail
/// nodes adjacent to a partition. A dormant cell's devices are still
/// *replayed* from their cached linearization, which is first-order exact in
/// every terminal voltage including the shared lines — the guard only bounds
/// the *second-order* replay error, so it can be far looser than the Newton
/// tolerance. 2.4 mV keeps that error below ~0.3 % of the (leakage-level)
/// current of a dormant device while letting a floating bitline drift
/// through half-select leakage for a full nanosecond without refresh churn.
/// A real stimulus edge (0.1–1 V in tens of ps) still crosses it within a
/// fraction of one time step, force-refreshing the cell before the
/// disturbance reaches amplitudes where the cached linearization degrades.
pub const GUARD_VTOL: f64 = 16.0 * BYPASS_VTOL;

/// Minimum transistors in a latency-partitioned circuit before its
/// transients start a helper pool ([`pools`]).
///
/// A pooled run splits five passes between the caller and its helpers (see
/// `pool.rs`). Helpers park between passes, and the cheapest pass that
/// runs on every Newton iteration, dormancy decisions plus device
/// evaluation, costs about 14 ns per transistor on the 64×64 array
/// (decide 170 µs plus eval 177 µs per assembly over 25,216 transistors,
/// measured on a 2-vCPU VM). Measured there too, a parked helper wakes in
/// 10–37 µs, and a helper still spinning from the previous pass answers in
/// 0.4 µs. Splitting that pass in two saves `n · 14 ns / 2`, which covers a
/// typical wake (28 µs) from about 4,000 transistors up. Below that the
/// pool costs more than it saves, and a run's one spawn per helper already
/// outweighs the millisecond-scale transients of single cells (≤ 7
/// transistors), which never start one.
pub const POOL_MIN_DEVICES: usize = 4096;

/// The name of every pool helper thread: a run leaves none of them behind.
pub const POOL_THREAD_NAME: &str = "tfet-pool";

/// Whether a transient of `circuit` starts a helper pool when more than
/// one assembly thread is set: only a latency-partitioned circuit of at
/// least [`POOL_MIN_DEVICES`] transistors does.
pub fn pools(circuit: &Circuit) -> bool {
    !circuit.latency_partitions().is_empty() && circuit.transistors().len() >= POOL_MIN_DEVICES
}

/// Worker-thread override for parallel device evaluation (0 = auto).
static ASSEMBLY_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the thread count of the helper pool that large partitioned
/// transients start (the caller plus its helpers). `0` restores the
/// default: available parallelism clamped by `RAYON_NUM_THREADS`, resolved
/// once at the start of each such run. Every pooled pass computes the same
/// bits on any thread count, so this knob trades wall-clock only.
pub fn set_assembly_threads(n: usize) {
    ASSEMBLY_THREADS.store(n, Ordering::Relaxed);
}

/// The resolved assembly thread count (at least 1).
pub(crate) fn assembly_threads() -> usize {
    match ASSEMBLY_THREADS.load(Ordering::Relaxed) {
        0 => tfet_numerics::parallel::default_threads(),
        n => n,
    }
    .max(1)
}

/// Classification of a guard node, used to *attribute* a guard-forced
/// refresh to the physical line that tripped it. Purely observational: the
/// dormancy decision treats every guard node identically; the kind only
/// labels the [`PartitionTelemetry`] trip counters so an array run can
/// report "this cell was woken N times by its wordline, M times by a
/// bitline".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum GuardKind {
    /// A row-select wordline adjacent to the cell.
    Wordline = 0,
    /// A column bitline (either polarity) adjacent to the cell.
    Bitline = 1,
    /// A supply/ground rail feeding the cell.
    Rail = 2,
    /// Anything the netlist builder did not classify.
    #[default]
    Other = 3,
}

impl GuardKind {
    /// Number of kinds (size of per-kind counter arrays).
    pub const COUNT: usize = 4;

    /// All kinds, in counter-array order.
    pub const ALL: [GuardKind; GuardKind::COUNT] = [
        GuardKind::Wordline,
        GuardKind::Bitline,
        GuardKind::Rail,
        GuardKind::Other,
    ];

    /// Stable lowercase label used in telemetry metric names.
    pub fn label(self) -> &'static str {
        match self {
            GuardKind::Wordline => "wordline",
            GuardKind::Bitline => "bitline",
            GuardKind::Rail => "rail",
            GuardKind::Other => "other",
        }
    }
}

/// Per-partition dormancy telemetry, accumulated over one run by the
/// dormancy-decision pass (`LatencyShard::update_dormancy`: each partition's
/// counts are updated by one thread from its own state alone, so every
/// count is bit-identical at any assembly thread count).
///
/// `decisions` counts dormancy decisions (one per assembly); `dormant` the
/// subset where the whole cell was replayed from cache, so
/// `dormant / decisions` is the cell's dormancy duty cycle. Refreshes are
/// split by cause: `cold` (no trustworthy refresh point yet — run entry or
/// invalidation), `watch` (the cell's own storage nodes moved), and guard
/// trips attributed per [`GuardKind`] (internal nodes quiet, an adjacent
/// line moved). One guard-forced refresh can trip several kinds at once —
/// e.g. a write edge moving wordline and bitline within one step — so the
/// kind counters can sum to more than the refresh count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionTelemetry {
    /// Dormancy decisions taken for this partition (one per assembly).
    pub decisions: u64,
    /// Decisions where the partition stayed dormant (replayed from cache).
    pub dormant: u64,
    /// Decisions that refreshed the partition (all devices re-evaluated).
    pub refreshes: u64,
    /// Refreshes because the partition had no trustworthy refresh point.
    pub cold_refreshes: u64,
    /// Refreshes because a partition-internal watch node moved.
    pub watch_refreshes: u64,
    /// Guard-forced refreshes attributed per tripping [`GuardKind`]
    /// (indexed by `GuardKind as usize`; one refresh may trip several).
    pub guard_trips: [u64; GuardKind::COUNT],
}

impl PartitionTelemetry {
    /// Total guard-forced refreshes (refreshes that were neither cold nor
    /// watch-caused), regardless of which kinds tripped.
    pub fn guard_refreshes(&self) -> u64 {
        self.refreshes - self.cold_refreshes - self.watch_refreshes
    }

    /// Guard trips attributed to one kind.
    pub fn trips(&self, kind: GuardKind) -> u64 {
        self.guard_trips[kind as usize]
    }
}

/// One latency partition: a group of devices (typically the six transistors
/// of one bitcell) refreshed and skipped as a unit, plus the nodes whose
/// movement governs the decision.
///
/// Registered on a [`Circuit`] via
/// [`set_latency_partitions`](Circuit::set_latency_partitions). Every
/// terminal of every listed device must appear in `watch ∪ guard` (or be
/// ground) for the dormancy decision to be sound; the builder in
/// `tfet-core` lists the storage nodes as `watch` and the shared
/// wordline/bitline/rail nodes as `guard`.
#[derive(Debug, Clone, Default)]
pub struct CellPartition {
    /// Transistor indices (netlist insertion order) in this partition.
    pub devices: Vec<usize>,
    /// Partition-internal nodes, checked at the 150 µV bypass tolerance.
    pub watch: Vec<NodeId>,
    /// Shared/adjacent nodes, checked at the tight [`GUARD_VTOL`] so any
    /// disturbance force-refreshes the partition immediately.
    pub guard: Vec<NodeId>,
    /// Telemetry classification of each `guard` entry (parallel vector;
    /// entries beyond its length default to [`GuardKind::Other`]). Has no
    /// effect on the dormancy decision itself.
    pub guard_kinds: Vec<GuardKind>,
}

/// Per-workspace runtime state of the latency tier, split into shards:
/// contiguous transistor ranges cut between partitions, each with the
/// partitions that live in it. One shard per chunk of the run's helper
/// pool ([`Pool::devices`](crate::pool::Pool)); a single shard when the
/// run has none.
#[derive(Debug)]
pub(crate) struct LatencyState {
    /// Combined topology + partition signature this state was built for.
    pub(crate) sig: u64,
    /// `bounds[k]..bounds[k + 1]`: the transistors of shard `k`.
    bounds: Vec<usize>,
    /// The shards, each behind its own (never contended) lock so the
    /// chunks of a pooled pass can take them on any thread.
    shards: Arc<Vec<Mutex<LatencyShard>>>,
    /// Per partition: its shard and its index there.
    home: Vec<(usize, usize)>,
}

/// The latency tier's state for one contiguous range of transistors: their
/// bypass cache and evaluation decisions, plus the partitions whose
/// devices lie in the range (a partition with no devices lives in shard 0),
/// with their flattened watch/guard node rows, refresh-point reference
/// voltages and dormancy scratch.
#[derive(Debug, Default)]
pub(crate) struct LatencyShard {
    /// First transistor (netlist index) of the shard.
    pub(crate) dev0: usize,
    /// Per device: the shard-local index of its partition, or
    /// [`GroupedIndices::UNGROUPED`].
    owner: Vec<usize>,
    /// Per device, the unknown-vector rows of its gate, drain and source
    /// ([`NO_ROW`](crate::mna::NO_ROW) for ground), so the assembly phases
    /// read terminal voltages without touching the transistor records.
    pub(crate) terminal_rows: Vec<[u32; 3]>,
    /// Per device, the linearization of its last full evaluation (the
    /// bypass cache; invalidated at every run entry and rebind).
    pub(crate) cache: Vec<DeviceLin>,
    /// Per device, whether the latest assembly evaluated it (scratch).
    pub(crate) eval_mask: Vec<bool>,
    /// `watch_off[p]..watch_off[p + 1]` indexes `watch_rows`/`watch_ref`.
    watch_off: Vec<usize>,
    /// Unknown-vector rows of (non-ground) watch nodes, all partitions.
    watch_rows: Vec<usize>,
    /// Watch-node voltages at each partition's last refresh.
    watch_ref: Vec<f64>,
    /// `guard_off[p]..guard_off[p + 1]` indexes `guard_rows`/`guard_ref`.
    guard_off: Vec<usize>,
    /// Unknown-vector rows of (non-ground) guard nodes, all partitions.
    guard_rows: Vec<usize>,
    /// Guard-node voltages at each partition's last refresh.
    guard_ref: Vec<f64>,
    /// Telemetry kind of each `guard_rows` entry (same ground filtering).
    guard_kind: Vec<GuardKind>,
    /// Per-partition dormancy telemetry, accumulated since the last
    /// [`reset_telemetry`](LatencyState::reset_telemetry).
    telemetry: Vec<PartitionTelemetry>,
    /// Whether partition `p` has a trustworthy refresh point (cache entries
    /// and reference voltages from one coherent evaluation).
    fresh: Vec<bool>,
    /// Per-iteration dormancy verdicts (scratch, rewritten each assembly).
    dormant: Vec<bool>,
    /// The latest [`decide`](LatencyShard::decide)'s effort counts.
    pub(crate) stats: AssemblyStats,
}

/// Locks a shard. A lock poisoned by a panicking pass is taken anyway: that
/// panic already failed its run, and every run starts by invalidating all
/// shard state.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a over the partition definitions, mixed into the MNA pattern
/// signature so a partition change (not just a topology change) rebuilds
/// the latency state.
pub(crate) fn partition_signature(base: u64, parts: &[CellPartition]) -> u64 {
    let mut h = base;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(parts.len() as u64);
    for p in parts {
        for &d in &p.devices {
            mix(d as u64 + 1);
        }
        mix(u64::MAX);
        for &n in &p.watch {
            mix(n.index() as u64 + 1);
        }
        mix(u64::MAX - 1);
        for (i, &n) in p.guard.iter().enumerate() {
            mix(n.index() as u64 + 1);
            mix(p.guard_kinds.get(i).copied().unwrap_or_default() as u64 + 1);
        }
        mix(u64::MAX - 2);
    }
    h
}

impl LatencyState {
    /// Builds the runtime state for a circuit's registered partitions,
    /// sharded at the transistor bounds `bounds` (which must not cut a
    /// partition).
    pub(crate) fn build(circuit: &Circuit, sig: u64, bounds: &[usize]) -> LatencyState {
        let parts = circuit.latency_partitions();
        let groups: Vec<Vec<usize>> = parts.iter().map(|p| p.devices.clone()).collect();
        let owner = GroupedIndices::from_groups(circuit.transistors().len(), &groups);
        let shard_of = |d: usize| bounds.partition_point(|&b| b <= d) - 1;
        let mut shards: Vec<LatencyShard> = bounds
            .windows(2)
            .map(|w| LatencyShard {
                dev0: w[0],
                ..LatencyShard::default()
            })
            .collect();
        let mut home = Vec::with_capacity(parts.len());
        for sh in &mut shards {
            sh.watch_off.push(0);
            sh.guard_off.push(0);
        }
        for p in parts {
            let k = p.devices.first().map_or(0, |&d| shard_of(d));
            let sh = &mut shards[k];
            home.push((k, sh.fresh.len()));
            // Ground is fixed at 0 V by definition: it can never move, so
            // it contributes nothing to a dormancy decision.
            sh.watch_rows.extend(
                p.watch
                    .iter()
                    .filter(|n| !n.is_ground())
                    .map(|n| n.index() - 1),
            );
            for (i, n) in p.guard.iter().enumerate() {
                if !n.is_ground() {
                    sh.guard_rows.push(n.index() - 1);
                    sh.guard_kind
                        .push(p.guard_kinds.get(i).copied().unwrap_or_default());
                }
            }
            sh.watch_off.push(sh.watch_rows.len());
            sh.guard_off.push(sh.guard_rows.len());
            sh.telemetry.push(PartitionTelemetry::default());
            sh.fresh.push(false);
            sh.dormant.push(false);
        }
        for (k, sh) in shards.iter_mut().enumerate() {
            let devices = bounds[k]..bounds[k + 1];
            sh.owner = devices
                .clone()
                .map(|d| match owner.owner_of(d) {
                    GroupedIndices::UNGROUPED => GroupedIndices::UNGROUPED,
                    g => {
                        assert_eq!(home[g].0, k, "shard bounds cut partition {g}");
                        home[g].1
                    }
                })
                .collect();
            sh.terminal_rows = circuit.transistors()[devices.clone()]
                .iter()
                .map(|m| [row_of(m.g), row_of(m.d), row_of(m.s)])
                .collect();
            sh.cache = vec![DeviceLin::default(); devices.len()];
            sh.eval_mask = vec![false; devices.len()];
            sh.watch_ref = vec![0.0; sh.watch_rows.len()];
            sh.guard_ref = vec![0.0; sh.guard_rows.len()];
        }
        LatencyState {
            sig,
            bounds: bounds.to_vec(),
            shards: Arc::new(shards.into_iter().map(Mutex::new).collect()),
            home,
        }
    }

    /// Whether this state was built for signature `sig` at shard bounds
    /// `bounds`.
    pub(crate) fn fits(&self, sig: u64, bounds: &[usize]) -> bool {
        self.sig == sig && self.bounds == bounds
    }

    /// The shards, in transistor order.
    pub(crate) fn shards(&self) -> &[Mutex<LatencyShard>] {
        &self.shards
    }

    /// A handle on the shards, for a job to own.
    pub(crate) fn shards_handle(&self) -> Arc<Vec<Mutex<LatencyShard>>> {
        Arc::clone(&self.shards)
    }

    /// Invalidates every refresh point and bypass-cache entry (run entry,
    /// rebind): no partition may claim dormancy, and no device be served
    /// from its cache, until it has re-evaluated once under the new state.
    pub(crate) fn invalidate(&mut self) {
        for sh in self.shards.iter() {
            let mut sh = lock(sh);
            sh.fresh.fill(false);
            for e in &mut sh.cache {
                e.valid = false;
            }
        }
    }

    /// Zeroes the per-partition telemetry so the next harvest covers exactly
    /// one run (called at transient entry).
    pub(crate) fn reset_telemetry(&mut self) {
        for sh in self.shards.iter() {
            lock(sh).telemetry.fill(PartitionTelemetry::default());
        }
    }

    /// Copies the per-partition telemetry into `out`, in partition order.
    pub(crate) fn harvest_telemetry(&self, out: &mut Vec<PartitionTelemetry>) {
        let shards: Vec<_> = self.shards.iter().map(lock).collect();
        out.clear();
        out.extend(self.home.iter().map(|&(k, i)| shards[k].telemetry[i]));
    }
}

impl LatencyShard {
    /// The decide phase of one assembly at the candidate state `x`:
    /// re-decides dormancy for every partition of the shard
    /// ([`update_dormancy`](Self::update_dormancy)), then marks each device
    /// for evaluation — partition members iff their cell is not dormant (a
    /// refreshed cell re-evaluates *all* its devices, so cache entries and
    /// references always describe one coherent operating point), ungrouped
    /// devices by the per-device bypass test. Leaves the counts in
    /// [`stats`](Self::stats).
    pub(crate) fn decide<X: Volts + ?Sized>(&mut self, x: &X) {
        let mut stats = AssemblyStats::default();
        (stats.cells_refreshed, stats.guard_refreshes) = self.update_dormancy(x);
        for ((mask, &g), (e, &[rg, rd, rs])) in self
            .eval_mask
            .iter_mut()
            .zip(&self.owner)
            .zip(self.cache.iter().zip(&self.terminal_rows))
        {
            *mask = if g != GroupedIndices::UNGROUPED {
                if self.dormant[g] {
                    stats.dormant += 1;
                    false
                } else {
                    true
                }
            } else {
                let (vg, vd, vs) = (volt(x, rg), volt(x, rd), volt(x, rs));
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
            stats.evals += u64::from(*mask);
        }
        self.stats = stats;
    }

    /// The evaluate phase: runs the device model of every marked device of
    /// `circuit` at `x`, writing only that device's cache entry.
    pub(crate) fn evaluate<X: Volts + ?Sized>(&mut self, circuit: &Circuit, x: &X) {
        let devices = &circuit.transistors()[self.dev0..self.dev0 + self.cache.len()];
        for (((e, &eval), &[rg, rd, rs]), m) in self
            .cache
            .iter_mut()
            .zip(&self.eval_mask)
            .zip(&self.terminal_rows)
            .zip(devices)
        {
            if eval {
                *e = DeviceLin::evaluate(m, volt(x, rg), volt(x, rd), volt(x, rs));
            }
        }
    }

    /// Re-decides dormancy for every partition of the shard at the
    /// candidate state `x` and refreshes the reference voltages of every
    /// non-dormant partition.
    ///
    /// Returns `(cells_refreshed, guard_refreshes)`: total partitions
    /// refreshed this call, and the subset refreshed *specifically because a
    /// guard node moved* while the internal watch nodes were still quiet —
    /// the counter the fault-injection test asserts on.
    ///
    /// Also accumulates the per-partition [`PartitionTelemetry`]: every call
    /// is one decision per partition, classified as dormant or as a refresh
    /// with its cause (cold / watch / guard, the latter attributed per
    /// tripping [`GuardKind`]). Each partition's decision reads only its own
    /// state and `x`, so the telemetry is bit-identical however the shards
    /// are spread over threads.
    fn update_dormancy<X: Volts + ?Sized>(&mut self, x: &X) -> (u64, u64) {
        let mut cells_refreshed = 0u64;
        let mut guard_refreshes = 0u64;
        for p in 0..self.fresh.len() {
            let (w0, w1) = (self.watch_off[p], self.watch_off[p + 1]);
            let (g0, g1) = (self.guard_off[p], self.guard_off[p + 1]);
            let fresh = self.fresh[p];
            let watch_quiet = fresh
                && self.watch_rows[w0..w1]
                    .iter()
                    .zip(&self.watch_ref[w0..w1])
                    .all(|(&r, v)| (x.at(r) - v).abs() < BYPASS_VTOL);
            let guard_quiet = fresh
                && self.guard_rows[g0..g1]
                    .iter()
                    .zip(&self.guard_ref[g0..g1])
                    .all(|(&r, v)| (x.at(r) - v).abs() < GUARD_VTOL);
            let dormant = watch_quiet && guard_quiet;
            self.dormant[p] = dormant;
            let tel = &mut self.telemetry[p];
            tel.decisions += 1;
            if dormant {
                tel.dormant += 1;
            } else {
                tel.refreshes += 1;
                if !fresh {
                    tel.cold_refreshes += 1;
                } else if !watch_quiet {
                    tel.watch_refreshes += 1;
                } else {
                    guard_refreshes += 1;
                    // Attribute the trip: count each guard *kind* with at
                    // least one node past tolerance, once per refresh. This
                    // scan runs only on the (rare) guard-forced refresh, so
                    // the dormant fast path stays two early-exit passes.
                    let mut tripped = [false; GuardKind::COUNT];
                    for ((&r, v), &k) in self.guard_rows[g0..g1]
                        .iter()
                        .zip(&self.guard_ref[g0..g1])
                        .zip(&self.guard_kind[g0..g1])
                    {
                        if (x.at(r) - v).abs() >= GUARD_VTOL {
                            tripped[k as usize] = true;
                        }
                    }
                    for (count, hit) in self.telemetry[p].guard_trips.iter_mut().zip(tripped) {
                        *count += u64::from(hit);
                    }
                }
                cells_refreshed += 1;
                for (r, v) in self.watch_rows[w0..w1]
                    .iter()
                    .zip(&mut self.watch_ref[w0..w1])
                {
                    *v = x.at(*r);
                }
                for (r, v) in self.guard_rows[g0..g1]
                    .iter()
                    .zip(&mut self.guard_ref[g0..g1])
                {
                    *v = x.at(*r);
                }
                self.fresh[p] = true;
            }
        }
        (cells_refreshed, guard_refreshes)
    }
}

/// Voltage at KCL row `r` of `x` (0 for ground).
#[inline]
fn volt<X: Volts + ?Sized>(x: &X, r: u32) -> f64 {
    if r == NO_ROW {
        0.0
    } else {
        x.at(r as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_default_starts_on() {
        // Flipping the global here would race sibling tests' runs; the
        // `figures --latency-off` gate in scripts/check.sh exercises
        // `set_process_default` at binary startup, where it is safe.
        assert_eq!(DeviceLatency::process_default(), DeviceLatency::On);
    }

    #[test]
    fn assembly_threads_override_and_auto() {
        set_assembly_threads(3);
        assert_eq!(assembly_threads(), 3);
        set_assembly_threads(0);
        assert!(assembly_threads() >= 1);
    }

    #[test]
    fn only_large_batches_fan_out() {
        // The 64×64 array pools; cells, small arrays and unpartitioned
        // circuits never start a thread.
        let row = |devices: usize, partitioned: bool| {
            let mut c = Circuit::new();
            let a = c.node("a");
            let model = std::sync::Arc::new(tfet_devices::NTfet::nominal());
            for _ in 0..devices {
                c.transistor("M", model.clone(), a, a, Circuit::GND, 0.1);
            }
            if partitioned {
                c.set_latency_partitions(vec![CellPartition {
                    devices: vec![0],
                    ..CellPartition::default()
                }]);
            }
            c
        };
        assert!(pools(&row(POOL_MIN_DEVICES, true)));
        assert!(!pools(&row(POOL_MIN_DEVICES - 1, true)));
        assert!(!pools(&row(POOL_MIN_DEVICES, false)));
        assert!(!pools(&row(6, true)));
    }

    #[test]
    fn partition_signature_tracks_content() {
        let a = vec![CellPartition {
            devices: vec![0, 1],
            watch: vec![NodeId(1)],
            guard: vec![NodeId(2)],
            guard_kinds: vec![GuardKind::Wordline],
        }];
        let mut b = a.clone();
        b[0].guard = vec![NodeId(3)];
        let mut c = a.clone();
        c[0].guard_kinds = vec![GuardKind::Bitline];
        let sa = partition_signature(7, &a);
        assert_eq!(sa, partition_signature(7, &a), "deterministic");
        assert_ne!(sa, partition_signature(7, &b), "guard change detected");
        assert_ne!(sa, partition_signature(7, &c), "kind change detected");
        assert_ne!(sa, partition_signature(8, &a), "base mixed in");
    }

    #[test]
    fn telemetry_guard_refresh_accounting() {
        let mut t = PartitionTelemetry {
            decisions: 10,
            dormant: 6,
            refreshes: 4,
            cold_refreshes: 1,
            watch_refreshes: 1,
            guard_trips: [0; GuardKind::COUNT],
        };
        t.guard_trips[GuardKind::Wordline as usize] = 2;
        t.guard_trips[GuardKind::Bitline as usize] = 1;
        assert_eq!(t.guard_refreshes(), 2);
        assert_eq!(t.trips(GuardKind::Wordline), 2);
        assert_eq!(t.trips(GuardKind::Rail), 0);
        assert_eq!(GuardKind::ALL[GuardKind::Rail as usize], GuardKind::Rail);
        assert_eq!(GuardKind::Other.label(), "other");
    }
}
