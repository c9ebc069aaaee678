//! The metric catalogue, one workload's result, and the tools that
//! read results: the per-metric lines, the spread over several sets,
//! and `compare`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats;

/// One metric the benchmark reports.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the median by which it may worsen before `compare` and
    /// `--sets` call it a regression; `None` is recorded, never gated.
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        bound,
    }
}

/// What the driver gates. Every workload reports every one of these
/// (the driver's contract), and a later change is rejected when one
/// worsens by more than its bound, so only what this sandbox measures
/// the same twice is here: its disk swings latency and throughput of
/// the durable workloads by a factor of two and more between quarter
/// hours (README.md, Baseline), which would reject innocent changes.
/// Must match `end_to_end` in /BENCHMARK.json.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s", Some(0.25)),
    lower("cpu_ms_per_kop", "ms", Some(0.25)),
];

/// The user-visible latency and throughput, which `compare` and
/// `--sets` hold to a bound although the driver does not, then the
/// single layers, named `<layer>.<what>`. A workload that does not
/// exercise a layer reports 0 for it. Must match `per_layer` in
/// /BENCHMARK.json.
pub const PER_LAYER: &[MetricDef] = &[
    lower("p50_ms", "ms", Some(0.25)),
    higher("peak_ops_per_s", "1/s", Some(0.25)),
    // The benchmark's own spans over `store::conn`.
    lower("client.serial_p50_ms", "ms", Some(0.25)),
    lower("client.paced_p50_ms", "ms", Some(0.25)),
    lower("client.healthy_p50_ms", "ms", Some(0.10)),
    lower("client.paced_p90_ms", "ms", None),
    lower("client.paced_p99_ms", "ms", None),
    lower("client.peak_p50_ms", "ms", None),
    lower("client.submit_us", "us", None),
    lower("client.late_max_ms", "ms", None),
    higher("client.samples", "count", None),
    // Status deltas and one probe.
    higher("server.batch_ops_per_round", "count", None),
    higher("server.batch_max", "count", None),
    lower("server.status_rtt_us", "us", None),
    // Status `peer.N.*` at the coordinator.
    lower("tcp.sends_per_op", "count", None),
    lower("tcp.failures", "count", None),
    lower("tcp.reconnects", "count", None),
    // Status `reads_ok`/`writes_ok`, and a 3-site ODV cluster on the
    // in-memory bus.
    lower("cluster.rounds_per_op", "count", None),
    lower("cluster.bus_write_us", "us", None),
    lower("cluster.bus_write_batch64_us_per_op", "us", None),
    lower("cluster.bus_read_us", "us", None),
    lower("cluster.messages_per_write", "count", None),
    // Algorithm 1.
    lower("core.decide3_ns", "ns", None),
    lower("core.decide8_ns", "ns", None),
    // `SiteStore` on a scratch directory; Status `durability.*`.
    lower("wal.log_us", "us", None),
    lower("wal.snapshot_us", "us", None),
    lower("wal.bytes_per_record", "B", None),
    lower("wal.coordinator_records_per_op", "count", None),
    lower("wal.voter_records_per_op", "count", None),
    // `OpLedger` on a scratch directory; the coordinator's ledger file.
    lower("ledger.note_commit_us", "us", None),
    lower("ledger.bytes_per_commit", "B", None),
    lower("ledger.file_bytes_per_op", "B", None),
    // `Frame::encode_tagged` / `Frame::decode`.
    lower("wire.encode_putkey_ns", "ns", None),
    lower("wire.decode_putkey_ns", "ns", None),
    lower("wire.encode_commit_us", "us", None),
    lower("wire.decode_commit_us", "us", None),
    lower("wire.commit_frame_bytes", "B", None),
    // `encode_kv` / `decode_kv` on the workload's map.
    lower("kv.encode_us", "us", None),
    lower("kv.decode_us", "us", None),
    lower("kv.image_bytes", "B", None),
    lower("map.shard_of_ns", "ns", None),
    // `/proc/self/{status,io,task}`.
    lower("proc.ctx_switches_per_op", "count", None),
    lower("proc.threads", "count", None),
    lower("proc.disk_bytes_per_op", "B", Some(0.05)),
    lower("proc.disk_bytes_per_op_paced", "B", None),
    lower("proc.disk_bytes_per_op_peak", "B", None),
    lower("proc.rss_peak_mb", "MB", None),
    lower("proc.run_s", "s", None),
    // The checker.
    higher("check.transitions_per_s", "1/s", None),
    higher("check.dedup_ratio", "ratio", None),
    higher("check.states_per_s.mcv", "1/s", None),
    higher("check.states_per_s.dv", "1/s", None),
    higher("check.states_per_s.ldv", "1/s", None),
    higher("check.states_per_s.odv", "1/s", None),
    higher("check.states_per_s.tdv", "1/s", None),
    higher("check.states_per_s.otdv", "1/s", None),
    // The simulator.
    higher("sim.driver_events_per_s", "1/s", None),
    lower("sim.row_s", "s", None),
    higher("topology.cache_hit_ratio", "ratio", None),
];

pub fn definition(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// (metric, workload) pairs whose five baseline sets (README.md)
/// differed by more than the metric's bound: still measured and
/// printed, never gated by `compare` or `--sets`, with the spread
/// `(max − min) / median` that was seen. (The driver gates every pair
/// of an end-to-end metric regardless; it has no per-pair switch.)
pub const UNGATED: &[(&str, &str, f64)] = &[
    ("p50_ms", "put_small", 0.337),
    ("peak_ops_per_s", "put_small", 0.297),
    ("client.serial_p50_ms", "put_small", 0.337),
    ("client.paced_p50_ms", "put_small", 0.413),
];

pub fn gated(metric: &str, workload: &str) -> bool {
    definition(metric).is_some_and(|m| m.bound.is_some())
        && !UNGATED
            .iter()
            .any(|(m, w, _)| *m == metric && *w == workload)
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct WorkloadResult {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// How many samples stand behind a percentile or a best-of.
    pub samples: BTreeMap<&'static str, u64>,
    /// Failed checks, in words.
    pub problems: Vec<String>,
}

impl WorkloadResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            definition(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name, samples as u64);
    }

    pub fn check(&mut self, holds: bool, problem: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(problem());
        }
    }

    /// The object the driver reads off the last line: the end-to-end
    /// metrics of an untraced run, the per-layer ones of a traced run.
    pub fn driver_json(&self, traced: bool) -> Json {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let metrics = list
            .iter()
            .map(|def| {
                let value = self.metrics.get(def.name).copied().unwrap_or(0.0);
                let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]);
                (def.name.to_string(), entry)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Everything measured, for `results.json`.
    pub fn full_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = definition(name).map_or("", |m| m.unit);
                let mut entry = BTreeMap::from([
                    ("value".to_string(), Json::Num(*value)),
                    ("unit".to_string(), Json::str(unit)),
                ]);
                if let Some(samples) = self.samples.get(name) {
                    entry.insert("samples".to_string(), Json::Num(*samples as f64));
                }
                (name.to_string(), Json::Obj(entry))
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::str(p)).collect()),
            ),
        ])
    }

    /// One line per metric: `workload metric value unit gated`, with
    /// the sample count where there is one. A traced run's lines say so
    /// after the workload's name.
    pub fn lines(&self, workload: &str, traced: bool) -> String {
        let label = if traced { "[traced]" } else { "" };
        let mut out = String::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let Some(value) = self.metrics.get(def.name) else {
                continue;
            };
            let gate = if gated(def.name, workload) {
                "gated"
            } else {
                "-"
            };
            out.push_str(&format!(
                "{workload}{label} {} {value:.6} {} {gate}",
                def.name, def.unit
            ));
            if let Some(samples) = self.samples.get(def.name) {
                out.push_str(&format!(" n={samples}"));
            }
            out.push('\n');
        }
        out
    }
}

/// `results[workload][metric]` = the values of every set, in order.
pub type Sets = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads the sets out of a `results.json` document.
pub fn sets_of(doc: &Json) -> Result<Sets, String> {
    let mut sets = Sets::new();
    let list = doc
        .get("sets")
        .and_then(Json::as_arr)
        .ok_or("results file has no \"sets\" array")?;
    for set in list {
        for (workload, result) in set.as_obj().ok_or("a set is not an object")? {
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{workload}: no metrics"))?;
            for (metric, entry) in metrics {
                let value = entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload} {metric}: no value"))?;
                sets.entry(workload.clone())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(sets)
}

/// Median, min, max and spread of every (metric, workload) pair over
/// the sets, and whether the sets agree: a gated pair whose worst set
/// is worse than its best by more than the metric's bound (as a share
/// of the median) disagrees. Returns the table and the disagreements.
pub fn spread_table(sets: &Sets) -> (String, Vec<String>) {
    let mut table = String::from("workload metric median min max range/median iqr/median gated\n");
    let mut disagreements = Vec::new();
    for (workload, metrics) in sets {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let Some(values) = metrics.get(def.name) else {
                continue;
            };
            let range = stats::range_spread(values);
            let gate = gated(def.name, workload);
            let show = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.4}"));
            table.push_str(&format!(
                "{workload} {} {:.6} {:.6} {:.6} {} {} {}\n",
                def.name,
                stats::median(values),
                stats::best(values, false),
                stats::best(values, true),
                show(range),
                show(stats::quartile_spread(values)),
                if gate { "gated" } else { "-" },
            ));
            if let (true, Some(bound), Some(range)) = (gate, def.bound, range) {
                if values.len() > 1 && range > bound {
                    disagreements.push(format!(
                        "{workload} {}: sets differ by {:.1}% of the median, bound {:.0}%",
                        def.name,
                        range * 100.0,
                        bound * 100.0
                    ));
                }
            }
        }
    }
    (table, disagreements)
}

/// Compares the medians of two result files, `before` then `after`.
/// Returns the table and the gated pairs that got worse by more than
/// their bound.
pub fn compare(before: &Sets, after: &Sets) -> (String, Vec<String>) {
    let mut table = String::from("workload metric before after worse_by bound verdict\n");
    let mut regressions = Vec::new();
    for (workload, metrics) in before {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(old), Some(new)) = (
                metrics.get(def.name),
                after.get(workload).and_then(|m| m.get(def.name)),
            ) else {
                continue;
            };
            let (old, new) = (stats::median(old), stats::median(new));
            let worse = stats::worsening(old, new, def.higher_is_better);
            let bound = def.bound.filter(|_| gated(def.name, workload));
            let verdict = match bound {
                None => "-",
                Some(bound) if worse > bound => "REGRESSED",
                Some(_) => "ok",
            };
            table.push_str(&format!(
                "{workload} {} {old:.6} {new:.6} {:+.1}% {} {verdict}\n",
                def.name,
                worse * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            ));
            if verdict == "REGRESSED" {
                regressions.push(format!(
                    "{workload} {}: {old:.6} -> {new:.6} {}, {:.1}% worse, bound {:.0}%",
                    def.name,
                    def.unit,
                    worse * 100.0,
                    bound.unwrap_or(0.0) * 100.0
                ));
            }
        }
    }
    (table, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(workload: &str, metric: &str, values: &[f64]) -> Sets {
        BTreeMap::from([(
            workload.to_string(),
            BTreeMap::from([(metric.to_string(), values.to_vec())]),
        )])
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn driver_json_lists_exactly_the_asked_class() {
        let mut result = WorkloadResult {
            correct: true,
            attempted: 10,
            ..WorkloadResult::default()
        };
        result.set("cpu_ms_per_kop", 1.25);
        result.set_sampled("client.serial_p50_ms", 0.75, 100);
        let untraced = result.driver_json(false);
        let metrics = untraced.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["cpu_ms_per_kop"]
                .get("value")
                .and_then(Json::as_f64),
            Some(1.25)
        );
        let traced = result.driver_json(true);
        let metrics = traced.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics["wal.log_us"].get("value").and_then(Json::as_f64),
            Some(0.0),
            "a layer the workload skipped reads 0"
        );
        assert!(result
            .lines("put_large", false)
            .contains("client.serial_p50_ms 0.750000 ms gated n=100"));
    }

    #[test]
    fn sets_round_trip_through_results_json() {
        let mut result = WorkloadResult::default();
        result.set("p50_ms", 2.0);
        let set = Json::Obj(BTreeMap::from([(
            "put_large".to_string(),
            result.full_json(),
        )]));
        let doc = Json::obj([("sets", Json::Arr(vec![set.clone(), set]))]);
        let sets = sets_of(&Json::parse(&doc.render()).unwrap()).unwrap();
        assert_eq!(sets["put_large"]["p50_ms"], vec![2.0, 2.0]);
        assert!(sets_of(&Json::Null).is_err());
    }

    #[test]
    fn compare_flags_only_gated_pairs_past_their_bound() {
        // cpu_ms_per_kop is gated at 25 %: +8 % passes, +30 % regresses.
        let before = one("put_large", "cpu_ms_per_kop", &[1.0, 1.0, 1.0]);
        let (_, regressions) = compare(&before, &one("put_large", "cpu_ms_per_kop", &[1.08]));
        assert!(regressions.is_empty(), "{regressions:?}");
        let (table, regressions) = compare(&before, &one("put_large", "cpu_ms_per_kop", &[1.30]));
        assert_eq!(regressions.len(), 1, "{table}");
        // Higher-is-better: a drop is the regression, a rise is not.
        let before = one("put_large", "peak_ops_per_s", &[1000.0]);
        assert_eq!(
            compare(&before, &one("put_large", "peak_ops_per_s", &[700.0]))
                .1
                .len(),
            1
        );
        assert!(
            compare(&before, &one("put_large", "peak_ops_per_s", &[1500.0]))
                .1
                .is_empty()
        );
        // A pair the baseline found noisier than its bound is shown,
        // never failed; so is a metric without a bound.
        let before = one("put_small", "p50_ms", &[1.0]);
        assert!(compare(&before, &one("put_small", "p50_ms", &[2.0]))
            .1
            .is_empty());
        let before = one("put_large", "client.paced_p99_ms", &[1.0]);
        assert!(
            compare(&before, &one("put_large", "client.paced_p99_ms", &[9.0]))
                .1
                .is_empty()
        );
    }

    #[test]
    fn sets_that_disagree_past_the_bound_are_reported() {
        let (_, quiet) = spread_table(&one("put_large", "cpu_ms_per_kop", &[1.00, 1.04, 0.98]));
        assert!(quiet.is_empty(), "{quiet:?}");
        let (table, loud) = spread_table(&one("put_large", "cpu_ms_per_kop", &[1.00, 1.30, 0.98]));
        assert_eq!(loud.len(), 1, "{table}");
    }
}
