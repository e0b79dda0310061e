//! Zero-dependency observability substrate for the tfet-sram workspace:
//! hierarchical spans, a metrics registry, machine-readable run reports and
//! failure-forensics bundles.
//!
//! # Design
//!
//! Everything is off by default. The single global [`enable`] flag is read
//! with one relaxed atomic load at every instrumentation site, so with
//! tracing disabled the solver hot paths pay one branch and perform **zero
//! allocations** — the counting-allocator regression in `tfet-circuit` pins
//! this.
//!
//! When enabled, instrumentation aggregates into a process-global registry
//! guarded by a mutex:
//!
//! * **Spans** ([`span`], [`root_span`]) form a per-thread path stack
//!   (`"wl_crit/transient/newton"`); each guard drop bumps the count of its
//!   full path. Counts are order-independent sums, so the span tree in a
//!   report is bit-identical at any worker-thread count.
//! * **Counters** ([`counter`]) are plain `u64` sums keyed by name. The
//!   separate [`work`] class holds counts that depend on *how* a workload
//!   was scheduled (e.g. one compile per Monte-Carlo worker); they are
//!   reported in their own section and excluded from the determinism
//!   contract, like wall-clock timings.
//! * **Histograms** ([`record_u64`]) bucket integer samples by bit length,
//!   and **distributions** ([`record_f64`]) bucket float samples by binary
//!   exponent. Count/min/max/bucket-sums are all commutative, so both are
//!   thread-count invariant.
//! * **Series** ([`record_series`]) store one representative `f64`
//!   trajectory per name (e.g. a bisection bracket trajectory). When the
//!   same name is recorded from several contexts, the lexicographically
//!   smallest trajectory is kept — an arbitrary but *order-independent*
//!   choice, so reports stay deterministic under parallel recording.
//!
//! Wall-clock span timings are a second opt-in ([`set_timings`]) kept in a
//! separate report section, so a default report contains only deterministic
//! artifacts.
//!
//! [`report::RunReport::capture`] snapshots the registry into a versioned,
//! hand-rolled JSON document (this workspace has no serde implementation —
//! the vendored `serde` is marker-traits only) plus a human-readable table.
//! [`forensics`] writes diagnostic bundles for failed solves to
//! `results/diagnostics/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forensics;
pub mod json;
pub mod report;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use json::{ParseError, Value};
pub use report::{PartitionQuantiles, RunReport, SCHEMA_VERSION};

/// All opt-in collection switches packed into one atomic, so every
/// instrumentation site's off-path stays exactly **one** relaxed load no
/// matter how many collection tiers exist (metrics, wall-clock timings,
/// timeline trace events).
static STATE: AtomicU8 = AtomicU8::new(0);

/// [`STATE`] bit: metrics registry collection ([`enable`]).
pub(crate) const STATE_METRICS: u8 = 1 << 0;
/// [`STATE`] bit: wall-clock span timings ([`set_timings`]).
pub(crate) const STATE_TIMINGS: u8 = 1 << 1;
/// [`STATE`] bit: timeline trace events ([`trace::start`]).
pub(crate) const STATE_TRACE: u8 = 1 << 2;

#[inline]
pub(crate) fn state() -> u8 {
    STATE.load(Ordering::Relaxed)
}

pub(crate) fn set_state_bit(bit: u8, on: bool) {
    if on {
        STATE.fetch_or(bit, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Whether tracing is currently enabled (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    state() & STATE_METRICS != 0
}

/// Turns tracing on: spans, counters, histograms, series and forensics
/// bundles start collecting. Instrumentation never changes computed values,
/// only records them.
pub fn enable() {
    set_state_bit(STATE_METRICS, true);
}

/// Turns tracing off (the default). Already-collected data is kept until
/// [`reset`].
pub fn disable() {
    set_state_bit(STATE_METRICS, false);
}

/// Opts in (or out of) wall-clock span timings. Timings land in a separate
/// report section ([`report::RunReport::timings_ns`]) so the deterministic
/// sections stay bit-identical run to run.
pub fn set_timings(on: bool) {
    set_state_bit(STATE_TIMINGS, on);
}

/// Clears every collected metric and resets the forensics bundle sequence
/// number. Enable flags are left as they are.
pub fn reset() {
    let mut reg = lock_registry();
    reg.spans.clear();
    reg.counters.clear();
    reg.work.clear();
    reg.hists.clear();
    reg.dists.clear();
    reg.series.clear();
    reg.quarantined.clear();
    reg.partitions.clear();
    reg.yields.clear();
    drop(reg);
    forensics::reset_seq();
    trace::clear();
}

// --- Registry ------------------------------------------------------------

/// Power-of-two histogram of `u64` samples: bucket `k` holds samples whose
/// bit length is `k` (i.e. `v == 0` in bucket 0, otherwise
/// `2^(k-1) <= v < 2^k`). All fields are commutative aggregates.
#[derive(Debug, Clone)]
pub(crate) struct Hist {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Hist {
    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }
}

/// Binary-exponent distribution of finite `f64` samples. Deliberately has
/// no floating-point sum: `f64` addition is not associative, so a sum would
/// depend on recording order and break report determinism.
#[derive(Debug, Clone)]
pub(crate) struct Dist {
    count: u64,
    non_finite: u64,
    min: f64,
    max: f64,
    buckets: BTreeMap<i32, u64>,
}

impl Default for Dist {
    fn default() -> Self {
        Dist {
            count: 0,
            non_finite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: BTreeMap::new(),
        }
    }
}

/// Bucket key of a finite sample: `i32::MIN` for exactly zero, otherwise
/// `floor(log2 |v|)`.
pub(crate) fn dist_bucket(v: f64) -> i32 {
    if v == 0.0 {
        i32::MIN
    } else {
        v.abs().log2().floor() as i32
    }
}

impl Dist {
    fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        *self.buckets.entry(dist_bucket(v)).or_insert(0) += 1;
    }
}

/// Largest number of points kept per recorded series.
pub const SERIES_CAP: usize = 4096;

/// One named trajectory. Repeated recordings keep the lexicographically
/// smallest trajectory (by `f64::total_cmp`, shorter prefix first) — an
/// order-independent merge, so which recording survives does not depend on
/// thread scheduling.
#[derive(Debug, Clone, Default)]
pub(crate) struct Series {
    recordings: u64,
    values: Vec<f64>,
}

fn series_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    a.len() < b.len()
}

impl Series {
    fn record(&mut self, values: &[f64]) {
        let clipped = &values[..values.len().min(SERIES_CAP)];
        if self.recordings == 0 || series_less(clipped, &self.values) {
            self.values.clear();
            self.values.extend_from_slice(clipped);
        }
        self.recordings += 1;
    }
}

/// One quarantined work item of a degraded study — e.g. a Monte-Carlo
/// sample whose simulation failed and was excluded from the survivor
/// statistics. Studies record these *after* their fan-out completes, in
/// ascending item order from the coordinating thread; captures additionally
/// sort by `(study, index)`, so the report section is bit-identical at any
/// worker-thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// The study that quarantined the item (e.g. `"mc_wl_crit"`).
    pub study: &'static str,
    /// Item index within the study (e.g. the Monte-Carlo sample index).
    pub index: u64,
    /// The study's RNG seed, so the item's exact inputs can be replayed.
    pub seed: u64,
    /// Drawn parameters of the item, `(name, value)` in draw order.
    pub params: Vec<(String, f64)>,
    /// Rendered structured error that caused the quarantine.
    pub error: String,
}

/// One rare-event yield study outcome for the report's `yield` section:
/// the importance-sampled tail-probability estimate together with the
/// sampling diagnostics needed to judge it (effective sample size, raw and
/// weighted failure counts, quarantine). Recorded once per study from the
/// coordinating thread; captures sort by `(study, metric, sigma_scale,
/// seed)`, so the section is bit-identical at any worker-thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldStudyRecord {
    /// The study that produced the estimate (e.g. `"yield_write"`).
    pub study: &'static str,
    /// The failure metric (e.g. `"write_margin"`, `"drnm"`).
    pub metric: &'static str,
    /// The study's RNG seed.
    pub seed: u64,
    /// Proposal-widening factor σ′/σ; `1.0` is brute force.
    pub sigma_scale: f64,
    /// Samples attempted.
    pub samples: u64,
    /// Samples that produced a verdict.
    pub survivors: u64,
    /// Raw count of failing survivors (unweighted).
    pub failures: u64,
    /// Samples excluded from the estimate.
    pub quarantined: u64,
    /// Likelihood-ratio-weighted tail failure probability; NaN when no
    /// survivor exists (serialized as `null`).
    pub p_fail: f64,
    /// Standard error of `p_fail`; NaN when undefined.
    pub std_error: f64,
    /// Kish effective sample size of the survivor weights.
    pub ess: f64,
}

/// Key of one partition-telemetry cell: `(study, row, col)`. Studies are
/// static labels (`"array_write"`), coordinates are the cell's grid
/// position.
pub type PartitionKey = (&'static str, u32, u32);

#[derive(Debug, Default)]
pub(crate) struct Registry {
    /// Span path (`"a/b/c"`) -> (count, accumulated ns when timings are on).
    pub(crate) spans: BTreeMap<String, (u64, u128)>,
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) work: BTreeMap<&'static str, u64>,
    pub(crate) hists: BTreeMap<&'static str, Hist>,
    pub(crate) dists: BTreeMap<&'static str, Dist>,
    pub(crate) series: BTreeMap<&'static str, Series>,
    pub(crate) quarantined: Vec<QuarantineRecord>,
    /// Per-cell partition telemetry: `(study, row, col)` -> metric sums.
    pub(crate) partitions: BTreeMap<PartitionKey, BTreeMap<&'static str, u64>>,
    pub(crate) yields: Vec<YieldStudyRecord>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    spans: BTreeMap::new(),
    counters: BTreeMap::new(),
    work: BTreeMap::new(),
    hists: BTreeMap::new(),
    dists: BTreeMap::new(),
    series: BTreeMap::new(),
    quarantined: Vec::new(),
    partitions: BTreeMap::new(),
    yields: Vec::new(),
});

pub(crate) fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

// --- Spans ---------------------------------------------------------------

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one open span; dropping it records the span.
///
/// Inert (no thread-local access, no allocation) when tracing was disabled
/// at creation.
#[derive(Debug)]
#[must_use = "a span is recorded when its guard drops"]
pub struct SpanGuard {
    /// Full slash-joined path, `None` when tracing was disabled at entry.
    path: Option<String>,
    /// For root spans: the stack suspended at entry, restored on drop.
    suspended: Option<Vec<&'static str>>,
    start: Option<Instant>,
    /// Span name, kept for the timeline end event when tracing was on at
    /// entry (`None` otherwise).
    traced: Option<&'static str>,
}

fn open_span(name: &'static str, root: bool) -> SpanGuard {
    let state = state();
    if state & (STATE_METRICS | STATE_TRACE) == 0 {
        return SpanGuard {
            path: None,
            suspended: None,
            start: None,
            traced: None,
        };
    }
    let traced = if state & STATE_TRACE != 0 {
        trace::record(name, trace::Phase::Begin);
        Some(name)
    } else {
        None
    };
    if state & STATE_METRICS == 0 {
        // Timeline-only span: no metrics path, no span stack bookkeeping.
        return SpanGuard {
            path: None,
            suspended: None,
            start: None,
            traced,
        };
    }
    let (path, suspended) = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let suspended = if root {
            Some(std::mem::take(&mut *stack))
        } else {
            None
        };
        let path = if stack.is_empty() {
            name.to_string()
        } else {
            let mut p = stack.join("/");
            p.push('/');
            p.push_str(name);
            p
        };
        stack.push(name);
        (path, suspended)
    });
    SpanGuard {
        path: Some(path),
        suspended,
        start: (state & STATE_TIMINGS != 0).then(Instant::now),
        traced,
    }
}

/// Opens a span nested under the spans already open on this thread. The
/// guard records `parent/.../name` with a count of 1 when dropped.
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, false)
}

/// Opens a span whose path ignores the spans already open on this thread.
///
/// Work items dispatched to a pool must use this: a worker thread has an
/// empty span stack while the same item run inline (one worker) would
/// inherit the caller's stack, and the two would otherwise record different
/// paths. A root span pins the path to `name` either way, keeping reports
/// identical at any thread count. The suspended stack is restored on drop.
pub fn root_span(name: &'static str) -> SpanGuard {
    open_span(name, true)
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.traced.take() {
            trace::record(name, trace::Phase::End);
        }
        let Some(path) = self.path.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.pop();
            if let Some(suspended) = self.suspended.take() {
                *stack = suspended;
            }
        });
        let ns = self
            .start
            .map(|s| s.elapsed().as_nanos())
            .unwrap_or_default();
        let mut reg = lock_registry();
        let slot = reg.spans.entry(path).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += ns;
    }
}

// --- Metrics -------------------------------------------------------------

/// Adds `n` to the named counter (deterministic report section: callers
/// must only count logical events, never scheduling-dependent ones — those
/// belong in [`work`]).
#[inline]
pub fn counter(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    *lock_registry().counters.entry(name).or_insert(0) += n;
}

/// Adds `n` to the named *work* counter — physical work whose total depends
/// on scheduling (e.g. one circuit compile per pool worker). Reported in a
/// separate section excluded from the thread-count-invariance contract.
#[inline]
pub fn work(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    *lock_registry().work.entry(name).or_insert(0) += n;
}

/// Records one integer sample into the named power-of-two histogram.
#[inline]
pub fn record_u64(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    lock_registry().hists.entry(name).or_default().record(v);
}

/// Records one float sample into the named binary-exponent distribution.
/// Non-finite samples are tallied separately and excluded from min/max.
#[inline]
pub fn record_f64(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    lock_registry().dists.entry(name).or_default().record(v);
}

/// Records a trajectory under `name` (truncated to [`SERIES_CAP`] points).
/// See the series semantics in the module docs: repeated recordings keep an
/// order-independent representative.
#[inline]
pub fn record_series(name: &'static str, values: &[f64]) {
    if !enabled() {
        return;
    }
    lock_registry()
        .series
        .entry(name)
        .or_default()
        .record(values);
}

/// Records one quarantined item into the report's `quarantined` section.
///
/// Callers must record from the study's coordinating thread after the
/// fan-out completes (in index order); captures sort by `(study, index)`
/// regardless, so the section stays deterministic.
#[inline]
pub fn quarantine(record: QuarantineRecord) {
    if !enabled() {
        return;
    }
    lock_registry().quarantined.push(record);
}

/// Records one rare-event yield study outcome into the report's `yield`
/// section.
///
/// Callers must record from the study's coordinating thread after the
/// fan-out completes; captures sort by `(study, metric, sigma_scale, seed)`
/// regardless, so the section stays deterministic.
#[inline]
pub fn yield_study(record: YieldStudyRecord) {
    if !enabled() {
        return;
    }
    lock_registry().yields.push(record);
}

/// Accumulates per-cell partition telemetry under `(study, row, col)` —
/// e.g. one bitcell's dormancy duty cycle and guard-trip attribution after
/// an array operation. Metric values are summed across calls.
///
/// Callers must record logically deterministic values only (the latency
/// tier's dormancy decisions are made serially inside the Newton loop, so
/// its counters qualify); the section then stays bit-identical at any
/// worker-thread count, like `counters`.
#[inline]
pub fn partition_cell(study: &'static str, row: u32, col: u32, metrics: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let mut reg = lock_registry();
    let cell = reg.partitions.entry((study, row, col)).or_default();
    for &(name, v) in metrics {
        *cell.entry(name).or_insert(0) += v;
    }
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that touch the global registry/enable flags.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instrumentation_is_inert() {
        let _guard = test_lock::hold();
        disable();
        reset();
        {
            let _s = span("outer");
            counter("c", 3);
            record_u64("h", 7);
            record_f64("d", 1.5);
            record_series("s", &[1.0, 2.0]);
        }
        let report = RunReport::capture();
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.histograms.is_empty());
        assert!(report.series.is_empty());
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let _guard = test_lock::hold();
        enable();
        reset();
        {
            let _a = span("wl_crit");
            {
                let _b = span("transient");
                let _c = span("newton");
            }
            let _b2 = span("transient");
        }
        disable();
        let report = RunReport::capture();
        assert_eq!(report.spans.get("wl_crit"), Some(&1));
        assert_eq!(report.spans.get("wl_crit/transient"), Some(&2));
        assert_eq!(report.spans.get("wl_crit/transient/newton"), Some(&1));
    }

    #[test]
    fn root_span_ignores_and_restores_the_stack() {
        let _guard = test_lock::hold();
        enable();
        reset();
        {
            let _outer = span("study");
            {
                let _item = root_span("sample");
                let _inner = span("solve");
            }
            // The suspended stack must be back: this nests under "study".
            let _after = span("tail");
        }
        disable();
        let report = RunReport::capture();
        assert_eq!(report.spans.get("sample"), Some(&1));
        assert_eq!(report.spans.get("sample/solve"), Some(&1));
        assert_eq!(report.spans.get("study/tail"), Some(&1));
        assert!(!report.spans.contains_key("study/sample"));
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let _guard = test_lock::hold();
        enable();
        reset();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024] {
            record_u64("h", v);
        }
        disable();
        let report = RunReport::capture();
        let h = &report.histograms["h"];
        assert_eq!(h.count, 7);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.sum, 2057);
        let bucket = |k: u32| h.buckets.iter().find(|b| b.0 == k).map(|b| b.1);
        assert_eq!(bucket(0), Some(1)); // 0
        assert_eq!(bucket(1), Some(1)); // 1
        assert_eq!(bucket(2), Some(2)); // 2, 3
        assert_eq!(bucket(3), Some(1)); // 4
        assert_eq!(bucket(10), Some(1)); // 1023
        assert_eq!(bucket(11), Some(1)); // 1024
    }

    #[test]
    fn distribution_handles_zero_and_non_finite() {
        let _guard = test_lock::hold();
        enable();
        reset();
        for v in [0.0, 1.5, -3.0, f64::INFINITY, f64::NAN] {
            record_f64("d", v);
        }
        disable();
        let report = RunReport::capture();
        let d = &report.distributions["d"];
        assert_eq!(d.count, 3);
        assert_eq!(d.non_finite, 2);
        assert_eq!(d.min, -3.0);
        assert_eq!(d.max, 1.5);
        assert_eq!(dist_bucket(0.0), i32::MIN);
        assert_eq!(dist_bucket(1.5), 0);
        assert_eq!(dist_bucket(-3.0), 1);
    }

    #[test]
    fn series_merge_is_order_independent() {
        let _guard = test_lock::hold();
        enable();

        reset();
        record_series("s", &[2.0, 1.0]);
        record_series("s", &[1.0, 9.0]);
        let forward = RunReport::capture().series["s"].clone();

        reset();
        record_series("s", &[1.0, 9.0]);
        record_series("s", &[2.0, 1.0]);
        let reversed = RunReport::capture().series["s"].clone();
        disable();

        assert_eq!(forward.values, vec![1.0, 9.0]);
        assert_eq!(forward.values, reversed.values);
        assert_eq!(forward.recordings, 2);
        // Prefix ordering: a shorter prefix sorts first.
        assert!(series_less(&[1.0], &[1.0, 0.0]));
        assert!(!series_less(&[1.0, 0.0], &[1.0]));
    }

    #[test]
    fn counters_and_work_are_separate_namespaces() {
        let _guard = test_lock::hold();
        enable();
        reset();
        counter("compiled.runs", 2);
        work("compiled.worker_builds", 5);
        disable();
        let report = RunReport::capture();
        assert_eq!(report.counters.get("compiled.runs"), Some(&2));
        assert_eq!(report.work.get("compiled.worker_builds"), Some(&5));
        assert!(!report.counters.contains_key("compiled.worker_builds"));
    }
}
