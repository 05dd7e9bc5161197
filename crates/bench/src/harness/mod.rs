//! The unified benchmark harness: a scenario registry, machine-readable
//! telemetry, and baseline comparison for CI regression gating.
//!
//! Every evaluation of this crate is a registered [`Scenario`]: a named,
//! tagged function that returns a structured [`ScenarioResult`] (one
//! [`Record`] per benchmark cell, plus the human-readable rendering
//! `bench` prints). The `bench` bin runs any subset of the
//! registry, groups the records by [`Group`], and writes one
//! `BENCH_<group>.json` telemetry file per group — see [`document`] for
//! the schema. [`compare`] checks a run against a committed baseline with
//! per-metric-class thresholds, which is what the CI perf-regression gate
//! runs.
//!
//! # Telemetry schema (`polykey-bench/v1`)
//!
//! ```json
//! {
//!   "schema": "polykey-bench/v1",
//!   "group": "attack",
//!   "mode": "quick",
//!   "records": [
//!     {
//!       "scenario": "matrix",
//!       "labels": {"circuit": "c432", "scheme": "rll", "n": "0"},
//!       "metrics": {"wall_ms": 12.5, "dips": 5, "oracle_queries": 5,
//!                   "oracle_rounds": 5, "conflicts": 113, …,
//!                   "max_term_ms": 12.1, "max_dips": 5, "verified": 1}
//!     }
//!   ]
//! }
//! ```
//!
//! `labels` identify the cell (circuit, scheme, sweep point); `metrics`
//! are numbers: an attack cell's are `wall_ms`, `max_dips` and its work
//! record's [`metrics`](polykey_attack::AttackStats::metrics). Metric names ending in `_ms` are wall-clock timings,
//! gated by a generous ratio. The security counters of
//! [`is_exact_metric`] (`dips`, oracle queries and rounds, resplits) must
//! match the baseline exactly, and the other counters of
//! [`is_cost_metric`] are deterministic work counters under a tight ratio.
//! All other metrics are informational.

pub mod scenarios;

use std::time::Duration;

use crate::json::Json;
use crate::TextTable;

/// Version tag carried by every emitted document; [`parse_document`]
/// rejects documents from a different schema generation.
pub const SCHEMA: &str = "polykey-bench/v1";

/// How large a configuration every scenario runs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// The scaled-down configuration (`--quick`; fast, CI-friendly).
    Quick,
    /// The configuration between the two (no scale flag).
    #[default]
    Default,
    /// The full paper-scale configuration (`--full`).
    Full,
}

impl Scale {
    /// The scale's name, recorded as the `mode` of every emitted document.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

/// Knobs shared by every scenario, set by the `bench` bin's `--quick` /
/// `--full` / `--time-cap` / `--seed` flags.
#[derive(Clone, Debug, Default)]
pub struct ScenarioCtx {
    /// The configuration size.
    pub scale: Scale,
    /// Per-attack time cap in seconds, if any.
    pub time_cap: Option<u64>,
    /// Random seed override.
    pub seed: Option<u64>,
}

/// Which telemetry file a scenario's records land in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Group {
    /// Oracle-guided attack scenarios: `BENCH_attack.json`.
    Attack,
    /// Encoding / simulation scenarios: `BENCH_encode.json`.
    Encode,
}

impl Group {
    /// The group's name as used in tags and the `group` document field.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Group::Attack => "attack",
            Group::Encode => "encode",
        }
    }

    /// The telemetry file this group is written to.
    #[must_use]
    pub fn file_name(self) -> &'static str {
        match self {
            Group::Attack => "BENCH_attack.json",
            Group::Encode => "BENCH_encode.json",
        }
    }

    /// Every group, in emission order.
    #[must_use]
    pub fn all() -> [Group; 2] {
        [Group::Attack, Group::Encode]
    }
}

/// One benchmark cell: labels identifying it plus its measured metrics.
///
/// Labels and metrics keep insertion order so emitted JSON is stable and
/// diff-friendly; record identity for comparison sorts the labels (see
/// [`Record::key`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// The scenario that produced this cell.
    pub scenario: String,
    /// Cell coordinates, e.g. `circuit=c432`, `scheme=rll`, `n=2`.
    pub labels: Vec<(String, String)>,
    /// Measured numbers, e.g. `wall_ms`, `dips`, `conflicts`.
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    /// Starts an empty record for `scenario`.
    #[must_use]
    pub fn new(scenario: &str) -> Record {
        Record { scenario: scenario.to_string(), labels: Vec::new(), metrics: Vec::new() }
    }

    /// Appends a label (builder-style).
    #[must_use]
    pub fn label(mut self, name: &str, value: impl std::fmt::Display) -> Record {
        self.labels.push((name.to_string(), value.to_string()));
        self
    }

    /// Appends a metric (builder-style).
    #[must_use]
    pub fn metric(mut self, name: &str, value: f64) -> Record {
        self.metrics.push((name.to_string(), value));
        self
    }

    /// Looks up a metric by name.
    #[must_use]
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The cell's identity for baseline matching: scenario plus sorted
    /// labels, e.g. `matrix{circuit=c432, n=0, scheme=rll}`.
    #[must_use]
    pub fn key(&self) -> String {
        let mut labels = self.labels.clone();
        labels.sort();
        let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}{{{}}}", self.scenario, body.join(", "))
    }
}

/// Converts a duration to fractional milliseconds (the unit of every
/// `*_ms` metric).
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What running one scenario produced.
pub struct ScenarioResult {
    /// One record per benchmark cell.
    pub records: Vec<Record>,
    /// The human-readable output `bench` prints.
    pub rendered: String,
    /// The scenario's main table, which `bench --csv` writes.
    pub table: Option<TextTable>,
}

/// A registered benchmark scenario.
pub struct Scenario {
    /// Unique name; `bench --only <name>` selects it.
    pub name: &'static str,
    /// The telemetry file the records land in.
    pub group: Group,
    /// Free-form tags for `bench --tag <t>` selection (the group name
    /// always matches too).
    pub tags: &'static [&'static str],
    /// Whether the scenario is part of the `--quick` CI subset.
    pub quick: bool,
    /// One-line description for `bench --list`.
    pub summary: &'static str,
    /// Runs the scenario.
    pub run: fn(&ScenarioCtx) -> ScenarioResult,
}

impl Scenario {
    /// True iff `tag` equals the group name or one of the scenario tags.
    #[must_use]
    pub fn has_tag(&self, tag: &str) -> bool {
        self.group.as_str() == tag || self.tags.contains(&tag)
    }
}

/// The full scenario registry.
#[must_use]
pub fn registry() -> &'static [Scenario] {
    &[
        Scenario {
            name: "matrix",
            group: Group::Attack,
            tags: &["sweep", "session"],
            quick: true,
            summary: "LockScheme x splitting effort x circuit sweep, formally verified",
            run: scenarios::matrix,
        },
        Scenario {
            name: "batch",
            group: Group::Attack,
            tags: &["sweep", "batching"],
            quick: true,
            summary: "batched-DIP sweep: oracle rounds vs queries at widths 1/8/32/64",
            run: scenarios::batch,
        },
        Scenario {
            name: "adaptive",
            group: Group::Attack,
            tags: &["sweep", "adaptive"],
            quick: true,
            summary: "adaptive budget-driven term tree vs static N on SARLock",
            run: scenarios::adaptive,
        },
        Scenario {
            name: "table1",
            group: Group::Attack,
            tags: &["paper"],
            quick: false,
            summary: "Table 1: #DIP vs splitting effort on SARLock-locked c7552",
            run: scenarios::table1,
        },
        Scenario {
            name: "table2",
            group: Group::Attack,
            tags: &["paper"],
            quick: false,
            summary: "Table 2: runtime vs LUT-based insertion, baseline vs N=4",
            run: scenarios::table2,
        },
        Scenario {
            name: "probe",
            group: Group::Attack,
            tags: &["diagnostic"],
            quick: false,
            summary: "diagnostic probe: baseline vs per-term cost across LUT sizes",
            run: scenarios::probe,
        },
        Scenario {
            name: "defense_probe",
            group: Group::Attack,
            tags: &["diagnostic", "defense"],
            quick: false,
            summary: "defense probe: SARLock on inputs vs on internal nets",
            run: scenarios::defense_probe,
        },
        Scenario {
            name: "ablation_split",
            group: Group::Attack,
            tags: &["ablation"],
            quick: false,
            summary: "split-port heuristic ablation (fan-out cone vs naive)",
            run: scenarios::ablation_split,
        },
        Scenario {
            name: "fig1a",
            group: Group::Encode,
            tags: &["paper"],
            quick: true,
            summary: "Fig. 1(a): SARLock error distribution on the running example",
            run: scenarios::fig1a,
        },
        Scenario {
            name: "encode",
            group: Group::Encode,
            tags: &["cnf"],
            quick: true,
            summary: "CNF miter encoding cost per scheme x circuit",
            run: scenarios::encode,
        },
        Scenario {
            name: "layers",
            group: Group::Encode,
            tags: &["layers", "solver"],
            quick: true,
            summary: "per-layer timings: packed and single-pattern simulation, re-synthesis, \
                      LUT locking, the attack's session encoding and per-DIP constraints, \
                      CDCL solver, equivalence proofs",
            run: scenarios::layers,
        },
    ]
}

/// Looks up a scenario by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Scenario> {
    registry().iter().find(|s| s.name == name)
}

/// Builds a `polykey-bench/v1` telemetry document from `records`.
///
/// `group_label` is `"attack"` / `"encode"` for the per-group
/// `BENCH_*.json` files and `"all"` for combined baseline files; `mode`
/// records how the run was scaled (`"quick"`, `"default"`, `"full"`).
#[must_use]
pub fn document(group_label: &str, mode: &str, records: &[Record]) -> Json {
    let records: Vec<Json> = records
        .iter()
        .map(|r| {
            Json::Object(vec![
                ("scenario".into(), Json::String(r.scenario.clone())),
                (
                    "labels".into(),
                    Json::Object(
                        r.labels
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::String(v.clone())))
                            .collect(),
                    ),
                ),
                (
                    "metrics".into(),
                    Json::Object(
                        r.metrics.iter().map(|(k, v)| (k.clone(), Json::Number(*v))).collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::Object(vec![
        ("schema".into(), Json::String(SCHEMA.into())),
        ("group".into(), Json::String(group_label.into())),
        ("mode".into(), Json::String(mode.into())),
        ("records".into(), Json::Array(records)),
    ])
}

/// Parses a `polykey-bench/v1` document back into records — the inverse
/// of [`document`], used for `--compare` baselines and by the tests.
///
/// # Errors
///
/// A human-readable message on malformed JSON, a wrong `schema` tag, or a
/// structurally invalid record.
pub fn parse_document(text: &str) -> Result<Vec<Record>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unsupported schema `{other}` (want `{SCHEMA}`)")),
        None => return Err("missing `schema` field".into()),
    }
    let records =
        doc.get("records").and_then(Json::as_array).ok_or("missing `records` array")?;
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let scenario = r
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or(format!("record {i}: missing `scenario`"))?
                .to_string();
            let labels = r
                .get("labels")
                .and_then(Json::as_object)
                .ok_or(format!("record {i}: missing `labels`"))?
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|v| (k.clone(), v.to_string()))
                        .ok_or(format!("record {i}: label `{k}` is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let metrics = r
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or(format!("record {i}: missing `metrics`"))?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or(format!("record {i}: metric `{k}` is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Record { scenario, labels, metrics })
        })
        .collect()
}

/// Security counters: how many DIPs, oracle queries and round-trips an
/// attack needs, and how often its terms resplit. They are deterministic,
/// and a move in either direction changes what a scheme costs an attacker,
/// so [`compare`] requires them to equal the baseline exactly.
const EXACT_COUNTERS: &[&str] =
    &["dips", "max_dips", "min_dips", "oracle_queries", "oracle_rounds", "resplits"];

/// Work counters: the solver's and the encoder's effort. They are gated
/// from above by the tight [`CompareConfig::count_ratio`].
const WORK_COUNTERS: &[&str] = &[
    "decisions",
    "conflicts",
    "propagations",
    "restarts",
    "learnt_clauses",
    "solves",
    "cnf_vars",
    "cnf_clauses",
    "leaves",
    "queries",
];

/// True iff `name` is a cost metric (lower is better): a `*_ms` timing or
/// one of the gated counters.
#[must_use]
pub fn is_cost_metric(name: &str) -> bool {
    name.ends_with("_ms") || is_exact_metric(name) || WORK_COUNTERS.contains(&name)
}

/// True iff `name` is a security counter, which [`compare`] matches
/// exactly.
#[must_use]
pub fn is_exact_metric(name: &str) -> bool {
    EXACT_COUNTERS.contains(&name)
}

/// Synthesizes one aggregate record per scenario (labelled
/// `cell=__total__`) summing every cost metric over that scenario's
/// cells.
///
/// Individual quick-mode cells often sit below the timing noise floor
/// ([`CompareConfig::min_time_ms`]), which would leave wall-clock time
/// effectively ungated; the per-scenario totals telescope above the
/// floor and average out per-cell jitter, so a broad slowdown is caught
/// even when every single cell is fast. The `bench` bin appends these to
/// every run (and hence to every saved baseline) automatically.
#[must_use]
pub fn scenario_totals(records: &[Record]) -> Vec<Record> {
    let mut totals: Vec<Record> = Vec::new();
    for record in records {
        let total = match totals.iter_mut().find(|t| t.scenario == record.scenario) {
            Some(total) => total,
            None => {
                totals.push(Record::new(&record.scenario).label("cell", "__total__"));
                totals.last_mut().expect("just pushed")
            }
        };
        for (name, value) in &record.metrics {
            if !is_cost_metric(name) {
                continue;
            }
            match total.metrics.iter_mut().find(|(n, _)| n == name) {
                Some((_, sum)) => *sum += value,
                None => total.metrics.push((name.clone(), *value)),
            }
        }
    }
    totals
}

/// Thresholds for [`compare`]. Security counters (see
/// [`is_exact_metric`]) take no threshold: they must equal the baseline.
/// The other bounds are on the `current / baseline` ratio of cost metrics;
/// increases beyond them are regressions.
#[derive(Clone, Debug)]
pub struct CompareConfig {
    /// Allowed ratio for `*_ms` timing metrics. Generous by default (CI
    /// machines are noisy); `--threshold` sets it.
    pub time_ratio: f64,
    /// Allowed ratio for the deterministic work counters. Tight: a search
    /// or encoding that does measurably more work fails the gate until the
    /// baseline is refreshed.
    pub count_ratio: f64,
    /// Timing cells whose baseline is below this many milliseconds are
    /// skipped: sub-noise-floor ratios are meaningless.
    pub min_time_ms: f64,
    /// Absolute slack added to work-counter bounds so near-zero baselines
    /// (e.g. `restarts = 0`) do not produce infinite ratios.
    pub count_slack: f64,
}

impl Default for CompareConfig {
    fn default() -> CompareConfig {
        CompareConfig {
            time_ratio: 3.0,
            count_ratio: 1.02,
            min_time_ms: 25.0,
            count_slack: 2.0,
        }
    }
}

impl CompareConfig {
    /// Sets the timing ratio to `threshold` (the CLI `--threshold`
    /// override); counters keep their bounds.
    #[must_use]
    pub fn with_threshold(threshold: f64) -> CompareConfig {
        CompareConfig { time_ratio: threshold, ..CompareConfig::default() }
    }
}

/// One metric that regressed past its threshold, or a security counter
/// that moved.
#[derive(Clone, Debug)]
pub struct Regression {
    /// The cell, as [`Record::key`].
    pub cell: String,
    /// The offending metric.
    pub metric: String,
    /// Its baseline value.
    pub baseline: f64,
    /// Its current value.
    pub current: f64,
    /// The maximum the threshold allowed (the baseline itself for a
    /// security counter, which must match it exactly).
    pub limit: f64,
}

/// The outcome of comparing a run against a baseline.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Metrics that regressed past their thresholds.
    pub regressions: Vec<Regression>,
    /// Baseline cells with no matching cell in the current run (a
    /// timed-out attack, lost coverage, or a stale baseline); any entry
    /// fails the comparison.
    pub missing_cells: Vec<String>,
    /// Current cells with no matching cell in the baseline (new coverage
    /// the baseline does not gate yet, or a renamed cell); any entry fails
    /// the comparison.
    pub extra_cells: Vec<String>,
    /// Gated baseline metrics absent from their matching current cell
    /// (`"<cell> <metric>"`); any entry fails the comparison.
    pub missing_metrics: Vec<String>,
    /// Cells present in both runs.
    pub matched_cells: usize,
    /// Cost metrics actually checked.
    pub checked_metrics: usize,
}

impl CompareReport {
    /// True iff no metric regressed, no security counter moved, and both
    /// runs have the same cells and every gated baseline metric.
    ///
    /// Cells and metrics on one side only fail deliberately: a cell
    /// vanishes when an attack times out (no record at all), a metric
    /// vanishes when a scenario stops emitting it, and a new cell is
    /// coverage the gate would silently skip. Refreshing the baseline is
    /// the reviewed, explicit way to change coverage.
    #[must_use]
    pub fn is_pass(&self) -> bool {
        self.regressions.is_empty()
            && self.missing_cells.is_empty()
            && self.extra_cells.is_empty()
            && self.missing_metrics.is_empty()
    }

    /// A human-readable summary (one line per regression / missing cell).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.regressions {
            if is_exact_metric(&r.metric) {
                let _ = writeln!(
                    out,
                    "CHANGED {} {}: {} -> {} (security counters must match exactly)",
                    r.cell, r.metric, r.baseline, r.current
                );
                continue;
            }
            // The growth ratio is reported only when the baseline supports
            // one: a zero baseline would print `inf`/`NaN` noise.
            let ratio = if r.baseline > 0.0 {
                format!(" ({:.2}x)", r.current / r.baseline)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "REGRESSION {} {}: {:.2} -> {:.2} (limit {:.2}){ratio}",
                r.cell, r.metric, r.baseline, r.current, r.limit
            );
        }
        for cell in &self.missing_cells {
            let _ = writeln!(
                out,
                "MISSING {cell}: no matching cell in this run (timed out, lost \
                 coverage, or stale baseline — refresh bench/baselines/)"
            );
        }
        for cell in &self.extra_cells {
            let _ = writeln!(
                out,
                "NEW {cell}: not in the baseline, so not gated (refresh \
                 bench/baselines/)"
            );
        }
        for entry in &self.missing_metrics {
            let _ = writeln!(
                out,
                "MISSING METRIC {entry}: gated in the baseline but not emitted \
                 by this run (refresh bench/baselines/)"
            );
        }
        let _ = writeln!(
            out,
            "compared {} cells / {} cost metrics: {}",
            self.matched_cells,
            self.checked_metrics,
            if self.is_pass() {
                "PASS".to_string()
            } else {
                format!(
                    "FAIL ({} regressions, {} missing cells, {} new cells, {} missing metrics)",
                    self.regressions.len(),
                    self.missing_cells.len(),
                    self.extra_cells.len(),
                    self.missing_metrics.len()
                )
            }
        );
        out
    }
}

/// Compares the `current` run against `baseline` records.
///
/// For every baseline cell found in the current run, each cost metric
/// (see [`is_cost_metric`]) is checked: security counters (see
/// [`is_exact_metric`]) must equal the baseline, timings are bounded by
/// `baseline * time_ratio` (skipped below the noise floor) and work
/// counters by `baseline * count_ratio + count_slack`. A cell on one side
/// only fails the comparison, as does a gated baseline metric its
/// matching cell no longer emits (see [`CompareReport::is_pass`]). Compare
/// against a baseline produced by the same scenario selection.
#[must_use]
pub fn compare(
    baseline: &[Record],
    current: &[Record],
    config: &CompareConfig,
) -> CompareReport {
    let mut report = CompareReport::default();
    let current_by_key: std::collections::HashMap<String, &Record> =
        current.iter().map(|r| (r.key(), r)).collect();
    let baseline_keys: std::collections::HashSet<String> =
        baseline.iter().map(Record::key).collect();
    report.extra_cells =
        current.iter().map(Record::key).filter(|key| !baseline_keys.contains(key)).collect();
    for base in baseline {
        let key = base.key();
        let Some(cur) = current_by_key.get(&key) else {
            report.missing_cells.push(key);
            continue;
        };
        report.matched_cells += 1;
        for (metric, base_value) in &base.metrics {
            if !is_cost_metric(metric) {
                continue;
            }
            let Some(cur_value) = cur.metric_value(metric) else {
                // A gated metric the run no longer emits is lost coverage,
                // not a pass.
                report.missing_metrics.push(format!("{key} {metric}"));
                continue;
            };
            let limit = if is_exact_metric(metric) {
                *base_value
            } else if metric.ends_with("_ms") {
                if *base_value < config.min_time_ms {
                    continue;
                }
                base_value * config.time_ratio
            } else {
                // A legitimately-zero baseline counter (e.g. `restarts: 0`)
                // gets the absolute slack alone, so the cell can neither
                // divide by zero in ratio reporting nor fail the moment
                // the counter becomes nonzero.
                base_value * config.count_ratio + config.count_slack
            };
            report.checked_metrics += 1;
            let moved =
                if is_exact_metric(metric) { cur_value != limit } else { cur_value > limit };
            if moved {
                report.regressions.push(Regression {
                    cell: key.clone(),
                    metric: metric.clone(),
                    baseline: *base_value,
                    current: cur_value,
                    limit,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scenario: &str, circuit: &str, wall_ms: f64, dips: f64) -> Record {
        Record::new(scenario)
            .label("circuit", circuit)
            .metric("wall_ms", wall_ms)
            .metric("dips", dips)
            .metric("speedup", 4.0)
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate scenario names");
        for name in names {
            assert!(find(name).is_some());
        }
    }

    #[test]
    fn quick_subset_covers_both_groups() {
        let quick: Vec<&Scenario> = registry().iter().filter(|s| s.quick).collect();
        assert!(quick.iter().any(|s| s.group == Group::Attack));
        assert!(quick.iter().any(|s| s.group == Group::Encode));
    }

    #[test]
    fn document_roundtrips_records() {
        let records = vec![
            cell("matrix", "c432", 120.0, 7.0),
            Record::new("weird").label("name", "quote\" comma, tab\t").metric("cnf_vars", 9.0),
        ];
        let text = document("all", "quick", &records).render();
        let parsed = parse_document(&text).expect("well-formed");
        assert_eq!(parsed, records);
    }

    #[test]
    fn parse_rejects_other_schemas() {
        let text = "{\"schema\": \"polykey-bench/v0\", \"records\": []}";
        assert!(parse_document(text).unwrap_err().contains("unsupported schema"));
    }

    #[test]
    fn identical_baseline_passes() {
        let records =
            vec![cell("matrix", "c432", 120.0, 7.0), cell("matrix", "c880", 80.0, 3.0)];
        let report = compare(&records, &records, &CompareConfig::default());
        assert!(report.is_pass(), "{}", report.render());
        assert_eq!(report.matched_cells, 2);
        assert!(report.missing_cells.is_empty());
    }

    #[test]
    fn injected_slowdown_is_flagged() {
        let baseline = vec![cell("matrix", "c432", 120.0, 7.0)];
        // 10x wall-clock inflation, well past the default 3x bound.
        let current = vec![cell("matrix", "c432", 1200.0, 7.0)];
        let report = compare(&baseline, &current, &CompareConfig::default());
        assert!(!report.is_pass());
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert_eq!(r.metric, "wall_ms");
        assert_eq!(r.current, 1200.0);
        assert!(report.render().contains("REGRESSION"));
    }

    #[test]
    fn counter_inflation_is_flagged_and_slack_tolerates_noise() {
        let with_conflicts = |conflicts: f64| {
            vec![cell("matrix", "c432", 120.0, 7.0).metric("conflicts", conflicts)]
        };
        let baseline = with_conflicts(100.0);
        // +3 conflicts sits inside 1.02x + 2 slack; +5 and 10x do not.
        assert!(compare(&baseline, &with_conflicts(103.0), &CompareConfig::default()).is_pass());
        for bad in [105.0, 1000.0] {
            let report = compare(&baseline, &with_conflicts(bad), &CompareConfig::default());
            assert_eq!(report.regressions.len(), 1);
            assert_eq!(report.regressions[0].metric, "conflicts");
        }
        // Doing less work passes.
        assert!(compare(&baseline, &with_conflicts(50.0), &CompareConfig::default()).is_pass());
    }

    #[test]
    fn security_counters_must_match_exactly_in_both_directions() {
        let baseline = vec![cell("matrix", "c432", 120.0, 7.0)];
        for moved in [6.0, 8.0] {
            let current = vec![cell("matrix", "c432", 120.0, moved)];
            // No threshold loosens a security counter.
            for config in [CompareConfig::default(), CompareConfig::with_threshold(100.0)] {
                let report = compare(&baseline, &current, &config);
                assert!(!report.is_pass(), "dips 7 -> {moved}");
                assert_eq!(report.regressions.len(), 1);
                assert_eq!(report.regressions[0].metric, "dips");
                assert!(report.render().contains("CHANGED matrix{circuit=c432} dips: 7 -> "));
            }
        }
        for metric in EXACT_COUNTERS {
            assert!(is_exact_metric(metric) && is_cost_metric(metric));
            let base = vec![Record::new("s").metric(metric, 5.0)];
            let lower = vec![Record::new("s").metric(metric, 4.0)];
            assert!(!compare(&base, &lower, &CompareConfig::default()).is_pass(), "{metric}");
        }
    }

    #[test]
    fn threshold_scales_only_timings() {
        let baseline = vec![cell("matrix", "c432", 120.0, 7.0).metric("conflicts", 100.0)];
        let slower = vec![cell("matrix", "c432", 1000.0, 7.0).metric("conflicts", 100.0)];
        assert!(!compare(&baseline, &slower, &CompareConfig::default()).is_pass());
        assert!(compare(&baseline, &slower, &CompareConfig::with_threshold(10.0)).is_pass());
        let busier = vec![cell("matrix", "c432", 120.0, 7.0).metric("conflicts", 300.0)];
        let report = compare(&baseline, &busier, &CompareConfig::with_threshold(10.0));
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "conflicts");
    }

    #[test]
    fn zero_baseline_counters_gate_on_absolute_slack_only() {
        // A legitimately-zero baseline cell (`restarts: 0`) must neither
        // divide-by-zero nor auto-fail: growth inside the absolute slack
        // passes, growth beyond it still regresses with a finite limit.
        let mut baseline = vec![cell("matrix", "c432", 120.0, 7.0)];
        baseline[0].metrics.push(("restarts".into(), 0.0));
        let mut within = vec![cell("matrix", "c432", 120.0, 7.0)];
        within[0].metrics.push(("restarts".into(), 2.0));
        assert!(compare(&baseline, &within, &CompareConfig::default()).is_pass());

        let mut beyond = vec![cell("matrix", "c432", 120.0, 7.0)];
        beyond[0].metrics.push(("restarts".into(), 40.0));
        let report = compare(&baseline, &beyond, &CompareConfig::default());
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert_eq!(r.metric, "restarts");
        assert!(r.limit.is_finite());
        assert_eq!(r.limit, CompareConfig::default().count_slack);
        let rendered = report.render();
        assert!(
            !rendered.contains("inf") && !rendered.contains("NaN"),
            "render must stay finite: {rendered}"
        );
    }

    #[test]
    fn zero_baseline_timings_are_never_gated() {
        // A 0 ms baseline timing sits under the noise floor by definition;
        // no ratio is ever computed against it.
        let mut baseline = vec![cell("matrix", "c432", 120.0, 7.0)];
        baseline[0].metrics.push(("extra_ms".into(), 0.0));
        let mut current = vec![cell("matrix", "c432", 120.0, 7.0)];
        current[0].metrics.push(("extra_ms".into(), 20.0));
        assert!(compare(&baseline, &current, &CompareConfig::default()).is_pass());
    }

    #[test]
    fn regression_render_includes_growth_ratio_when_defined() {
        let baseline = vec![cell("matrix", "c432", 120.0, 7.0)];
        let current = vec![cell("matrix", "c432", 1200.0, 7.0)];
        let report = compare(&baseline, &current, &CompareConfig::default());
        assert!(report.render().contains("(10.00x)"), "{}", report.render());
    }

    #[test]
    fn sub_noise_floor_timings_are_skipped() {
        let baseline = vec![cell("matrix", "c432", 2.0, 5.0)];
        // 2ms -> 20ms is a 10x ratio but under the 25ms floor: not gated.
        let current = vec![cell("matrix", "c432", 20.0, 5.0)];
        assert!(compare(&baseline, &current, &CompareConfig::default()).is_pass());
    }

    #[test]
    fn improvements_in_informational_metrics_never_fail() {
        let mut baseline = vec![cell("matrix", "c432", 120.0, 7.0)];
        baseline[0].metrics.push(("ratio".into(), 0.5));
        let mut current = vec![cell("matrix", "c432", 120.0, 7.0)];
        // speedup collapses, ratio explodes: neither is a cost metric.
        current[0].metrics[2].1 = 0.1;
        current[0].metrics.push(("ratio".into(), 50.0));
        assert!(compare(&baseline, &current, &CompareConfig::default()).is_pass());
    }

    #[test]
    fn missing_cells_fail_the_gate() {
        // A cell that vanishes (e.g. an attack that now times out emits no
        // record) must fail even though no per-metric threshold trips.
        let baseline =
            vec![cell("matrix", "c432", 120.0, 7.0), cell("matrix", "gone", 1.0, 1.0)];
        let current = vec![cell("matrix", "c432", 120.0, 7.0)];
        let report = compare(&baseline, &current, &CompareConfig::default());
        assert!(!report.is_pass());
        assert!(report.regressions.is_empty());
        assert_eq!(report.missing_cells.len(), 1);
        assert!(report.missing_cells[0].contains("gone"));
        assert!(report.render().contains("MISSING"));
    }

    #[test]
    fn new_cells_fail_the_gate() {
        // A cell the baseline lacks would go ungated: the baseline must be
        // refreshed to cover it.
        let baseline = vec![cell("matrix", "c432", 120.0, 7.0)];
        let current =
            vec![cell("matrix", "c432", 120.0, 7.0), cell("matrix", "fresh", 1.0, 1.0)];
        let report = compare(&baseline, &current, &CompareConfig::default());
        assert!(!report.is_pass());
        assert!(report.regressions.is_empty() && report.missing_cells.is_empty());
        assert_eq!(report.extra_cells, vec!["matrix{circuit=fresh}".to_string()]);
        assert!(report.render().contains("NEW matrix{circuit=fresh}"));
    }

    #[test]
    fn vanished_gated_metrics_fail_the_gate() {
        let baseline = vec![cell("matrix", "c432", 120.0, 7.0)];
        // Same cell, but it stopped emitting `dips`: coverage shrank.
        let mut current = vec![cell("matrix", "c432", 120.0, 7.0)];
        current[0].metrics.retain(|(n, _)| n != "dips");
        let report = compare(&baseline, &current, &CompareConfig::default());
        assert!(!report.is_pass());
        assert!(report.regressions.is_empty());
        assert_eq!(report.missing_metrics.len(), 1);
        assert!(report.missing_metrics[0].ends_with(" dips"));
        assert!(report.render().contains("MISSING METRIC"));
        // Dropping an informational metric is fine.
        let mut current = vec![cell("matrix", "c432", 120.0, 7.0)];
        current[0].metrics.retain(|(n, _)| n != "speedup");
        assert!(compare(&baseline, &current, &CompareConfig::default()).is_pass());
    }

    #[test]
    fn scenario_totals_sum_cost_metrics_and_gate_broad_slowdowns() {
        // Four 8 ms cells: each is under the 25 ms noise floor, but the
        // 32 ms total is gated, so a uniform 10x slowdown still fails.
        let baseline: Vec<Record> =
            (0..4).map(|i| cell("matrix", &format!("c{i}"), 8.0, 5.0)).collect();
        let slowed: Vec<Record> =
            (0..4).map(|i| cell("matrix", &format!("c{i}"), 80.0, 5.0)).collect();
        let totals = scenario_totals(&baseline);
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].key(), "matrix{cell=__total__}");
        assert_eq!(totals[0].metric_value("wall_ms"), Some(32.0));
        assert_eq!(totals[0].metric_value("dips"), Some(20.0));
        // Informational metrics are not aggregated.
        assert_eq!(totals[0].metric_value("speedup"), None);

        let with_totals = |mut records: Vec<Record>| {
            let totals = scenario_totals(&records);
            records.extend(totals);
            records
        };
        let report =
            compare(&with_totals(baseline), &with_totals(slowed), &CompareConfig::default());
        assert!(!report.is_pass());
        assert!(report
            .regressions
            .iter()
            .any(|r| r.cell.contains("__total__") && r.metric == "wall_ms"));
    }

    #[test]
    fn label_order_does_not_affect_matching() {
        let a = Record::new("s").label("x", "1").label("y", "2").metric("dips", 1.0);
        let b = Record::new("s").label("y", "2").label("x", "1").metric("dips", 1.0);
        assert_eq!(a.key(), b.key());
    }
}
