//! Versioned run reports: a deterministic snapshot of the metrics registry.
//!
//! [`RunReport::capture`] clones the registry into plain sorted maps;
//! [`RunReport::to_json`] emits the machine-readable document (schema
//! `tfet-obs.run-report`, see `docs/RUN_REPORT.md` at the workspace root)
//! and [`RunReport::render`] the human table behind `--report` flags.
//!
//! Every section except `timings_ns` and `work` is built from commutative
//! aggregates, so a report of the same workload is byte-identical at any
//! worker-thread count.

use crate::json::Value;
use crate::{QuarantineRecord, YieldStudyRecord};
use std::collections::BTreeMap;

/// Version of the `tfet-obs.run-report` (and `tfet-obs.diagnostic`) JSON
/// schema. Bump on any breaking change to the emitted document shape.
///
/// v2 added the `quarantined` section (degraded-study sample quarantine).
/// v3 added the `partitions` section (per-cell array-partition telemetry:
/// dormancy duty cycles, guard-trip attribution, replay counts).
/// v4 added the `yield` section (rare-event yield studies: importance-
/// sampled tail failure probability, standard error, effective sample
/// size).
pub const SCHEMA_VERSION: u32 = 4;

/// Snapshot of one `(study, row, col)` partition-telemetry cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionCellSnapshot {
    /// Study label the cell was recorded under (e.g. `"array_write"`).
    pub study: String,
    /// Cell row in the array grid.
    pub row: u32,
    /// Cell column in the array grid.
    pub col: u32,
    /// Metric name -> accumulated value.
    pub metrics: BTreeMap<String, u64>,
}

/// Nearest-rank quantiles of one partition metric over every cell a study
/// recorded — the per-metric summary that replaces the per-cell rows in
/// reports that must stay small ([`RunReport::summarize_partitions`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionQuantiles {
    /// Study label the cells were recorded under.
    pub study: String,
    /// Metric name.
    pub metric: String,
    /// Cells of the study; a cell that never recorded the metric counts
    /// as 0.
    pub cells: u64,
    /// Sum over the cells.
    pub sum: u64,
    /// `[min, p10, p50, p90, max]` over the cells.
    pub quantiles: [u64; 5],
}

/// The quantile levels of [`PartitionQuantiles::quantiles`], in percent.
const QUANTILE_PCTS: [usize; 5] = [0, 10, 50, 90, 100];

/// Snapshot of one named `u64` histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u128,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `(bit_length, count)` pairs for non-empty buckets: bucket `k` holds
    /// samples in `[2^(k-1), 2^k)` (`k = 0` holds exact zeros).
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Snapshot of one named `f64` distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionSnapshot {
    /// Finite samples recorded.
    pub count: u64,
    /// Non-finite samples seen (excluded from everything else).
    pub non_finite: u64,
    /// Smallest finite sample.
    pub min: f64,
    /// Largest finite sample.
    pub max: f64,
    /// `(binary_exponent, count)` pairs; exponent `i32::MIN` holds exact
    /// zeros, otherwise `floor(log2 |v|)`.
    pub buckets: Vec<(i32, u64)>,
}

/// Snapshot of one named series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// How many times the series was recorded.
    pub recordings: u64,
    /// The retained representative trajectory.
    pub values: Vec<f64>,
}

/// A deterministic snapshot of everything the registry collected.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Span path (`"a/b/c"`) -> times entered.
    pub spans: BTreeMap<String, u64>,
    /// Span path -> accumulated wall-clock nanoseconds. Empty unless
    /// [`set_timings`](crate::set_timings) was on; never deterministic.
    pub timings_ns: BTreeMap<String, u128>,
    /// Logical event counters (thread-count invariant).
    pub counters: BTreeMap<String, u64>,
    /// Physical work counters (scheduling-dependent; own section).
    pub work: BTreeMap<String, u64>,
    /// Integer histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Float distributions.
    pub distributions: BTreeMap<String, DistributionSnapshot>,
    /// Representative trajectories.
    pub series: BTreeMap<String, SeriesSnapshot>,
    /// Quarantined study items, sorted by `(study, index)` — deterministic
    /// at any worker-thread count (studies record after their fan-out, and
    /// capture re-sorts regardless).
    pub quarantined: Vec<QuarantineRecord>,
    /// Per-cell array-partition telemetry, sorted by `(study, row, col)`.
    /// Values are logical dormancy-decision counts recorded serially inside
    /// the Newton loop, so the section is thread-count invariant.
    pub partitions: Vec<PartitionCellSnapshot>,
    /// Per-metric quantiles of the partition rows, sorted by `(study,
    /// metric)`; empty unless [`summarize_partitions`] folded the rows
    /// into it.
    ///
    /// [`summarize_partitions`]: RunReport::summarize_partitions
    pub partition_quantiles: Vec<PartitionQuantiles>,
    /// Rare-event yield study outcomes, sorted by `(study, metric,
    /// sigma_scale, seed)`. Estimates are folded in sample order on each
    /// study's coordinating thread, so the section is thread-count
    /// invariant.
    pub yields: Vec<YieldStudyRecord>,
}

impl RunReport {
    /// Snapshots the global registry. Collection may continue afterwards;
    /// the snapshot is unaffected.
    pub fn capture() -> RunReport {
        let reg = crate::lock_registry();
        let mut report = RunReport::default();
        for (path, &(count, ns)) in &reg.spans {
            report.spans.insert(path.clone(), count);
            if ns > 0 {
                report.timings_ns.insert(path.clone(), ns);
            }
        }
        for (&name, &n) in &reg.counters {
            report.counters.insert(name.to_string(), n);
        }
        for (&name, &n) in &reg.work {
            report.work.insert(name.to_string(), n);
        }
        for (&name, h) in &reg.hists {
            report.histograms.insert(
                name.to_string(),
                HistogramSnapshot {
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(k, &c)| (k as u32, c))
                        .collect(),
                },
            );
        }
        for (&name, d) in &reg.dists {
            report.distributions.insert(
                name.to_string(),
                DistributionSnapshot {
                    count: d.count,
                    non_finite: d.non_finite,
                    min: d.min,
                    max: d.max,
                    buckets: d.buckets.iter().map(|(&k, &c)| (k, c)).collect(),
                },
            );
        }
        for (&name, s) in &reg.series {
            report.series.insert(
                name.to_string(),
                SeriesSnapshot {
                    recordings: s.recordings,
                    values: s.values.clone(),
                },
            );
        }
        report.quarantined = reg.quarantined.clone();
        report
            .quarantined
            .sort_by(|a, b| (a.study, a.index).cmp(&(b.study, b.index)));
        // The registry key is already ordered (study, row, col); iteration
        // order of a BTreeMap keeps the section sorted.
        for (&(study, row, col), metrics) in &reg.partitions {
            report.partitions.push(PartitionCellSnapshot {
                study: study.to_string(),
                row,
                col,
                metrics: metrics.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            });
        }
        report.yields = reg.yields.clone();
        report.yields.sort_by(|a, b| {
            (a.study, a.metric)
                .cmp(&(b.study, b.metric))
                .then(a.sigma_scale.total_cmp(&b.sigma_scale))
                .then(a.seed.cmp(&b.seed))
        });
        report
    }

    /// Folds the per-cell `partitions` rows into one
    /// [`PartitionQuantiles`] per `(study, metric)` and drops the rows: a
    /// 64×64 array operation records 4,096 rows, which would swamp a report
    /// meant to be read and diffed. Heatmaps take the rows from a report
    /// that was not summarized ([`partition_csv`](Self::partition_csv)).
    pub fn summarize_partitions(&mut self) {
        let mut by_metric: BTreeMap<(&str, &str), Vec<u64>> = BTreeMap::new();
        let mut cells: BTreeMap<&str, u64> = BTreeMap::new();
        for p in &self.partitions {
            let seen = cells.entry(&p.study).or_default();
            for (metric, &v) in &p.metrics {
                let column = by_metric.entry((&p.study, metric)).or_default();
                // Cells before this one that lacked the metric recorded 0.
                column.resize(*seen as usize, 0);
                column.push(v);
            }
            *seen += 1;
        }
        self.partition_quantiles = by_metric
            .into_iter()
            .map(|((study, metric), mut column)| {
                let n = cells[study];
                column.resize(n as usize, 0);
                column.sort_unstable();
                PartitionQuantiles {
                    study: study.to_string(),
                    metric: metric.to_string(),
                    cells: n,
                    sum: column.iter().sum(),
                    quantiles: QUANTILE_PCTS
                        .map(|pct| column[(pct * column.len()).div_ceil(100).max(1) - 1]),
                }
            })
            .collect();
        self.partitions.clear();
    }

    /// The machine-readable JSON document (schema `tfet-obs.run-report`,
    /// version [`SCHEMA_VERSION`]). Keys are sorted, floats are
    /// exponent-formatted; two captures of identical registry contents are
    /// byte-identical.
    pub fn to_json(&self) -> String {
        let spans = Value::Obj(
            self.spans
                .iter()
                .map(|(k, &v)| (k.clone(), Value::UInt(v)))
                .collect(),
        );
        let timings = Value::Obj(
            self.timings_ns
                .iter()
                .map(|(k, &v)| (k.clone(), Value::UInt(v.min(u128::from(u64::MAX)) as u64)))
                .collect(),
        );
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Value::UInt(v)))
                .collect(),
        );
        let work = Value::Obj(
            self.work
                .iter()
                .map(|(k, &v)| (k.clone(), Value::UInt(v)))
                .collect(),
        );
        let histograms = Value::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Value::Obj(vec![
                            ("count".into(), Value::UInt(h.count)),
                            (
                                "sum".into(),
                                Value::UInt(h.sum.min(u128::from(u64::MAX)) as u64),
                            ),
                            (
                                "min".into(),
                                Value::UInt(if h.count == 0 { 0 } else { h.min }),
                            ),
                            ("max".into(), Value::UInt(h.max)),
                            (
                                "buckets".into(),
                                Value::Arr(
                                    h.buckets
                                        .iter()
                                        .map(|&(k, c)| {
                                            Value::Arr(vec![
                                                Value::UInt(u64::from(k)),
                                                Value::UInt(c),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let distributions = Value::Obj(
            self.distributions
                .iter()
                .map(|(k, d)| {
                    (
                        k.clone(),
                        Value::Obj(vec![
                            ("count".into(), Value::UInt(d.count)),
                            ("non_finite".into(), Value::UInt(d.non_finite)),
                            ("min".into(), Value::Num(d.min)),
                            ("max".into(), Value::Num(d.max)),
                            (
                                "buckets".into(),
                                Value::Arr(
                                    d.buckets
                                        .iter()
                                        .map(|&(k, c)| {
                                            Value::Arr(vec![
                                                Value::Int(i64::from(k)),
                                                Value::UInt(c),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let series = Value::Obj(
            self.series
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        Value::Obj(vec![
                            ("recordings".into(), Value::UInt(s.recordings)),
                            ("values".into(), Value::floats(&s.values)),
                        ]),
                    )
                })
                .collect(),
        );
        let quarantined = Value::Arr(
            self.quarantined
                .iter()
                .map(|q| {
                    Value::Obj(vec![
                        ("study".into(), Value::text(q.study)),
                        ("index".into(), Value::UInt(q.index)),
                        ("seed".into(), Value::UInt(q.seed)),
                        (
                            "params".into(),
                            Value::Obj(
                                q.params
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                                    .collect(),
                            ),
                        ),
                        ("error".into(), Value::text(q.error.clone())),
                    ])
                })
                .collect(),
        );
        let partitions = Value::Arr(
            self.partitions
                .iter()
                .map(|p| {
                    Value::Obj(vec![
                        ("study".into(), Value::text(p.study.clone())),
                        ("row".into(), Value::UInt(u64::from(p.row))),
                        ("col".into(), Value::UInt(u64::from(p.col))),
                        (
                            "metrics".into(),
                            Value::Obj(
                                p.metrics
                                    .iter()
                                    .map(|(k, &v)| (k.clone(), Value::UInt(v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let quantiles = Value::Arr(
            self.partition_quantiles
                .iter()
                .map(|q| {
                    let mut fields = vec![
                        ("study".into(), Value::text(q.study.clone())),
                        ("metric".into(), Value::text(q.metric.clone())),
                        ("cells".into(), Value::UInt(q.cells)),
                        ("sum".into(), Value::UInt(q.sum)),
                    ];
                    for (pct, &v) in QUANTILE_PCTS.iter().zip(&q.quantiles) {
                        fields.push((format!("p{pct}"), Value::UInt(v)));
                    }
                    Value::Obj(fields)
                })
                .collect(),
        );
        let yields = Value::Arr(
            self.yields
                .iter()
                .map(|y| {
                    Value::Obj(vec![
                        ("study".into(), Value::text(y.study)),
                        ("metric".into(), Value::text(y.metric)),
                        ("seed".into(), Value::UInt(y.seed)),
                        ("sigma_scale".into(), Value::Num(y.sigma_scale)),
                        ("samples".into(), Value::UInt(y.samples)),
                        ("survivors".into(), Value::UInt(y.survivors)),
                        ("failures".into(), Value::UInt(y.failures)),
                        ("quarantined".into(), Value::UInt(y.quarantined)),
                        // NaN (no-survivor degenerate) serializes as null.
                        ("p_fail".into(), Value::Num(y.p_fail)),
                        ("std_error".into(), Value::Num(y.std_error)),
                        ("ess".into(), Value::Num(y.ess)),
                    ])
                })
                .collect(),
        );
        let mut sections = vec![
            ("schema".into(), Value::text("tfet-obs.run-report")),
            ("version".into(), Value::UInt(u64::from(SCHEMA_VERSION))),
            ("spans".into(), spans),
            ("counters".into(), counters),
            ("histograms".into(), histograms),
            ("distributions".into(), distributions),
            ("series".into(), series),
            ("quarantined".into(), quarantined),
            ("partitions".into(), partitions),
            ("yield".into(), yields),
            ("work".into(), work),
            ("timings_ns".into(), timings),
        ];
        // Present only in summarized reports, so every other report keeps
        // its bytes.
        if !self.partition_quantiles.is_empty() {
            sections.insert(9, ("partition_quantiles".into(), quantiles));
        }
        Value::Obj(sections).to_json()
    }

    /// The partition-telemetry section rendered as a deterministic CSV
    /// heatmap: one `study,row,col,metric,value` line per metric, sorted by
    /// `(study, row, col, metric)` — byte-identical at any worker-thread
    /// count, ready for pivoting into per-metric `(row, col)` heatmaps.
    pub fn partition_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("study,row,col,metric,value\n");
        for p in &self.partitions {
            for (metric, v) in &p.metrics {
                let _ = writeln!(out, "{},{},{},{metric},{v}", p.study, p.row, p.col);
            }
        }
        out
    }

    /// The human-readable table behind `--report` flags.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== run report (tfet-obs schema v{SCHEMA_VERSION}) ==");
        if !self.spans.is_empty() {
            let _ = writeln!(out, "spans:");
            for (path, count) in &self.spans {
                let _ = write!(out, "  {path:<44} {count:>10}");
                if let Some(ns) = self.timings_ns.get(path) {
                    let _ = write!(out, "  {:>12.3} ms", *ns as f64 / 1e6);
                }
                out.push('\n');
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, n) in &self.counters {
                let _ = writeln!(out, "  {name:<44} {n:>10}");
            }
        }
        if !self.work.is_empty() {
            let _ = writeln!(out, "work (scheduling-dependent):");
            for (name, n) in &self.work {
                let _ = writeln!(out, "  {name:<44} {n:>10}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms (count / min / mean / max):");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<44} {:>10} / {} / {:.2} / {}",
                    h.count,
                    if h.count == 0 { 0 } else { h.min },
                    h.mean(),
                    h.max
                );
            }
        }
        if !self.distributions.is_empty() {
            let _ = writeln!(out, "distributions (count / min / max):");
            for (name, d) in &self.distributions {
                let _ = writeln!(
                    out,
                    "  {name:<44} {:>10} / {:e} / {:e}",
                    d.count, d.min, d.max
                );
            }
        }
        if !self.series.is_empty() {
            let _ = writeln!(out, "series (recordings / points):");
            for (name, s) in &self.series {
                let _ = writeln!(
                    out,
                    "  {name:<44} {:>10} / {}",
                    s.recordings,
                    s.values.len()
                );
            }
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(out, "quarantined (study / index / seed / error):");
            for q in &self.quarantined {
                let _ = writeln!(
                    out,
                    "  {:<28} #{:<6} seed {:<12} {}",
                    q.study, q.index, q.seed, q.error
                );
            }
        }
        if !self.yields.is_empty() {
            let _ = writeln!(out, "yield (study / metric / scale / p_fail ± se / ess):");
            for y in &self.yields {
                let _ = writeln!(
                    out,
                    "  {:<20} {:<14} x{:<5} {:e} ± {:e}  ess {:.1}  ({}/{} fail, {} quarantined)",
                    y.study,
                    y.metric,
                    y.sigma_scale,
                    y.p_fail,
                    y.std_error,
                    y.ess,
                    y.failures,
                    y.survivors,
                    y.quarantined
                );
            }
        }
        if !self.partitions.is_empty() {
            let _ = writeln!(out, "partitions (study / cells / metrics):");
            let mut study_cells: BTreeMap<&str, u64> = BTreeMap::new();
            let mut study_metrics: BTreeMap<&str, usize> = BTreeMap::new();
            for p in &self.partitions {
                *study_cells.entry(&p.study).or_insert(0) += 1;
                let m = study_metrics.entry(&p.study).or_insert(0);
                *m = (*m).max(p.metrics.len());
            }
            for (study, cells) in &study_cells {
                let _ = writeln!(out, "  {study:<44} {cells:>10} / {}", study_metrics[study]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn report_json_is_versioned_and_key_sorted() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        crate::counter("b.second", 2);
        crate::counter("a.first", 1);
        crate::record_u64("newton.iters", 5);
        crate::record_series("bracket", &[1.0, 0.5]);
        crate::disable();

        let report = RunReport::capture();
        let json = report.to_json();
        assert!(json.starts_with(r#"{"schema":"tfet-obs.run-report","version":4"#));
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b, "counter keys must be sorted");
        assert!(json.contains(r#""newton.iters":{"count":1"#));
        assert!(json.contains(r#""values":[1e0,5e-1]"#));

        let rendered = report.render();
        assert!(rendered.contains("run report"));
        assert!(rendered.contains("a.first"));
        assert!(rendered.contains("newton.iters"));
    }

    #[test]
    fn quarantine_section_is_sorted_and_serialized() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        // Record out of order: capture must sort by (study, index).
        crate::quarantine(QuarantineRecord {
            study: "mc_wl_crit",
            index: 3,
            seed: 42,
            params: vec![("pu_l".into(), 0.01)],
            error: "no convergence".into(),
        });
        crate::quarantine(QuarantineRecord {
            study: "mc_wl_crit",
            index: 1,
            seed: 42,
            params: vec![],
            error: "no convergence".into(),
        });
        crate::disable();
        let report = RunReport::capture();
        assert_eq!(report.quarantined.len(), 2);
        assert_eq!(report.quarantined[0].index, 1);
        assert_eq!(report.quarantined[1].index, 3);
        let json = report.to_json();
        assert!(json.contains(r#""quarantined":[{"study":"mc_wl_crit","index":1,"seed":42"#));
        assert!(json.contains(r#""params":{"pu_l":1e-2}"#));
        let rendered = report.render();
        assert!(rendered.contains("quarantined"));
        assert!(rendered.contains("no convergence"));
    }

    #[test]
    fn capture_of_identical_contents_is_byte_identical() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        crate::counter("x", 1);
        crate::record_f64("d", 0.25);
        crate::disable();
        let a = RunReport::capture().to_json();
        let b = RunReport::capture().to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn partition_section_accumulates_sorts_and_serializes() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        // Record out of order and twice for one cell: capture must sort by
        // (study, row, col) and sum repeated metrics.
        crate::partition_cell("array_write", 1, 0, &[("dormant", 5), ("refreshes", 1)]);
        crate::partition_cell("array_write", 0, 2, &[("dormant", 7)]);
        crate::partition_cell("array_write", 1, 0, &[("dormant", 3)]);
        crate::disable();
        let report = RunReport::capture();
        assert_eq!(report.partitions.len(), 2);
        assert_eq!((report.partitions[0].row, report.partitions[0].col), (0, 2));
        assert_eq!(report.partitions[1].metrics["dormant"], 8);
        let json = report.to_json();
        assert!(json.contains(
            r#""partitions":[{"study":"array_write","row":0,"col":2,"metrics":{"dormant":7}}"#
        ));
        let csv = report.partition_csv();
        assert_eq!(
            csv,
            "study,row,col,metric,value\n\
             array_write,0,2,dormant,7\n\
             array_write,1,0,dormant,8\n\
             array_write,1,0,refreshes,1\n"
        );
        assert!(report.render().contains("partitions"));
        assert!(!json.contains("partition_quantiles"));
    }

    #[test]
    fn summarized_partitions_keep_one_quantile_row_per_metric() {
        let mut report = RunReport::default();
        for col in 0..10u32 {
            let mut metrics = BTreeMap::from([("dormant".to_string(), u64::from(col) * 10)]);
            // Only the last three cells ever refreshed.
            if col >= 7 {
                metrics.insert("refreshes".into(), 1);
            }
            report.partitions.push(PartitionCellSnapshot {
                study: "array_write".into(),
                row: 0,
                col,
                metrics,
            });
        }
        report.summarize_partitions();
        assert!(report.partitions.is_empty());
        let q = &report.partition_quantiles;
        assert_eq!(q.len(), 2);
        assert_eq!(
            (q[0].metric.as_str(), q[0].cells, q[0].sum),
            ("dormant", 10, 450)
        );
        assert_eq!(q[0].quantiles, [0, 0, 40, 80, 90]);
        assert_eq!(
            (q[1].metric.as_str(), q[1].cells, q[1].sum),
            ("refreshes", 10, 3)
        );
        assert_eq!(q[1].quantiles, [0, 0, 0, 1, 1]);
        let json = report.to_json();
        assert!(json.contains(
            r#""partitions":[],"partition_quantiles":[{"study":"array_write","metric":"dormant","cells":10,"sum":450,"p0":0,"p10":0,"p50":40,"p90":80,"p100":90}"#
        ), "{json}");
    }

    #[test]
    fn yield_section_is_sorted_and_serialized() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        // Record out of order: capture must sort by
        // (study, metric, sigma_scale, seed).
        crate::yield_study(YieldStudyRecord {
            study: "yield_write",
            metric: "write_margin",
            seed: 7,
            sigma_scale: 2.5,
            samples: 100,
            survivors: 100,
            failures: 3,
            quarantined: 0,
            p_fail: 1.5e-8,
            std_error: 5e-9,
            ess: 61.2,
        });
        crate::yield_study(YieldStudyRecord {
            study: "yield_write",
            metric: "write_margin",
            seed: 7,
            sigma_scale: 1.0,
            samples: 100,
            survivors: 100,
            failures: 0,
            quarantined: 0,
            p_fail: f64::NAN, // degenerate: serializes as null
            std_error: f64::NAN,
            ess: 100.0,
        });
        crate::disable();
        let report = RunReport::capture();
        assert_eq!(report.yields.len(), 2);
        assert_eq!(report.yields[0].sigma_scale, 1.0);
        assert_eq!(report.yields[1].sigma_scale, 2.5);
        let json = report.to_json();
        assert!(json.contains(r#""yield":[{"study":"yield_write","metric":"write_margin""#));
        assert!(json.contains(r#""p_fail":null"#));
        assert!(json.contains(r#""p_fail":1.5e-8"#));
        assert!(report.render().contains("yield"));
    }

    #[test]
    fn histogram_mean() {
        let h = HistogramSnapshot {
            count: 4,
            sum: 10,
            min: 1,
            max: 4,
            buckets: vec![],
        };
        assert_eq!(h.mean(), 2.5);
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![],
        };
        assert_eq!(empty.mean(), 0.0);
    }
}
