//! The unified benchmark harness: runs any subset of the scenario
//! registry, persists machine-readable `BENCH_*.json` telemetry, and
//! gates against a committed baseline.
//!
//! ```text
//! # the CI invocation: quick subset, telemetry, regression gate
//! cargo run --release -p polykey-bench --bin bench -- --quick \
//!     --baseline bench/baselines/quick.json --compare
//!
//! bench --list                  # what is registered
//! bench --only matrix,batch     # explicit subset
//! bench --only table1 --csv t1.csv   # one scenario, its table as CSV
//! bench --tag ablation          # subset by tag (group names match too)
//! bench --quick --save-baseline bench/baselines/quick.json   # refresh
//! ```
//!
//! Selection: `--only` / `--tag` filter the whole registry; otherwise
//! `--quick` runs the quick subset and the default is every scenario.
//! Each run writes one `BENCH_<group>.json` per scenario group (attack,
//! encode) into `--out-dir` (default: the current directory). With
//! `--baseline <file> --compare` the run is checked against the baseline
//! with per-metric-class thresholds (see `harness::CompareConfig`;
//! `--threshold` overrides both ratios) and the process exits nonzero on
//! any regression — that exit code is the CI perf gate.

use std::process::ExitCode;

use polykey_bench::harness::{
    self, compare, document, parse_document, CompareConfig, Group, Record, Scenario,
    ScenarioCtx,
};

/// Flags of the `bench` bin, parsed by hand like the rest of the suite.
#[derive(Default)]
struct BenchArgs {
    ctx: ScenarioCtx,
    only: Vec<String>,
    tags: Vec<String>,
    list: bool,
    out_dir: Option<String>,
    baseline: Option<String>,
    do_compare: bool,
    threshold: Option<f64>,
    save_baseline: Option<String>,
    csv: Option<String>,
}

const USAGE: &str = "flags: --quick | --full | --only <a,b,..> | --tag <t> | --list \
                     | --time-cap <secs> | --seed <n> | --out-dir <dir> \
                     | --baseline <file> | --compare | --threshold <x> \
                     | --save-baseline <file> | --csv <path>";

impl BenchArgs {
    fn parse() -> BenchArgs {
        let mut args = BenchArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
            match flag.as_str() {
                "--quick" => args.ctx.quick = true,
                "--full" => args.ctx.full = true,
                "--time-cap" => {
                    args.ctx.time_cap = Some(
                        value("--time-cap").parse().expect("--time-cap must be an integer"),
                    );
                }
                "--seed" => {
                    args.ctx.seed =
                        Some(value("--seed").parse().expect("--seed must be an integer"));
                }
                "--only" => {
                    args.only.extend(value("--only").split(',').map(str::to_string));
                }
                "--tag" => args.tags.push(value("--tag")),
                "--list" => args.list = true,
                "--out-dir" => args.out_dir = Some(value("--out-dir")),
                "--baseline" => args.baseline = Some(value("--baseline")),
                "--compare" => args.do_compare = true,
                "--threshold" => {
                    args.threshold = Some(
                        value("--threshold").parse().expect("--threshold must be a number"),
                    );
                }
                "--save-baseline" => args.save_baseline = Some(value("--save-baseline")),
                "--csv" => args.csv = Some(value("--csv")),
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => panic!("unknown flag `{other}` (try --help)"),
            }
        }
        args
    }

    /// The run's scale label, recorded in every emitted document.
    fn mode(&self) -> &'static str {
        if self.ctx.quick {
            "quick"
        } else if self.ctx.full {
            "full"
        } else {
            "default"
        }
    }

    /// Applies the selection rules to the registry.
    fn select(&self) -> Vec<&'static Scenario> {
        let registry = harness::registry();
        if !self.only.is_empty() || !self.tags.is_empty() {
            for name in &self.only {
                assert!(
                    harness::find(name).is_some(),
                    "unknown scenario `{name}` (try --list)"
                );
            }
            registry
                .iter()
                .filter(|s| {
                    self.only.iter().any(|n| n == s.name)
                        || self.tags.iter().any(|t| s.has_tag(t))
                })
                .collect()
        } else if self.ctx.quick {
            registry.iter().filter(|s| s.quick).collect()
        } else {
            registry.iter().collect()
        }
    }
}

fn main() -> ExitCode {
    let args = BenchArgs::parse();

    if args.list {
        println!("registered scenarios (* = in the --quick subset):");
        for s in harness::registry() {
            println!(
                "  {}{:<18} [{}] {}",
                if s.quick { "*" } else { " " },
                s.name,
                s.group.as_str(),
                s.summary
            );
        }
        return ExitCode::SUCCESS;
    }

    let selected = args.select();
    assert!(!selected.is_empty(), "selection matched no scenarios (try --list)");
    assert!(
        args.csv.is_none() || selected.len() == 1,
        "--csv writes one table: select exactly one scenario with --only"
    );
    eprintln!(
        "bench: running {} scenario(s) [{}] in {} mode",
        selected.len(),
        selected.iter().map(|s| s.name).collect::<Vec<_>>().join(", "),
        args.mode()
    );

    let mut records: Vec<Record> = Vec::new();
    for scenario in &selected {
        eprintln!("=== {} ===", scenario.name);
        let result = (scenario.run)(&args.ctx);
        print!("{}", result.rendered);
        if let Some(path) = &args.csv {
            let table = result.table.as_ref().expect("the scenario renders a table");
            std::fs::write(path, table.to_csv()).expect("write csv");
            eprintln!("bench: wrote {path}");
        }
        records.extend(result.records);
    }
    // Per-scenario aggregates: individual quick cells sit below the
    // timing noise floor, the totals do not, so broad slowdowns stay
    // gated (see `harness::scenario_totals`).
    records.extend(harness::scenario_totals(&records));

    // One telemetry file per group that actually ran.
    let out_dir = args.out_dir.as_deref().unwrap_or(".");
    std::fs::create_dir_all(out_dir).expect("create --out-dir");
    for group in Group::all() {
        let group_records: Vec<Record> = records
            .iter()
            .filter(|r| selected.iter().any(|s| s.name == r.scenario && s.group == group))
            .cloned()
            .collect();
        if group_records.is_empty() {
            continue;
        }
        let path = format!("{}/{}", out_dir, group.file_name());
        let doc = document(group.as_str(), args.mode(), &group_records);
        std::fs::write(&path, doc.render()).expect("write telemetry");
        eprintln!("bench: wrote {} ({} records)", path, group_records.len());
    }

    if let Some(path) = &args.save_baseline {
        let doc = document("all", args.mode(), &records);
        std::fs::write(path, doc.render()).expect("write baseline");
        eprintln!("bench: saved baseline {path} ({} records)", records.len());
    }

    if args.do_compare {
        let path = args.baseline.as_deref().expect("--compare needs --baseline <file>");
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = parse_document(&text).expect("well-formed baseline");
        let config = match args.threshold {
            Some(t) => CompareConfig::with_threshold(t),
            None => CompareConfig::default(),
        };
        let report = compare(&baseline, &records, &config);
        print!("{}", report.render());
        if !report.is_pass() {
            return ExitCode::FAILURE;
        }
    } else if args.baseline.is_some() {
        eprintln!("bench: --baseline given without --compare; no gating performed");
    }
    ExitCode::SUCCESS
}
