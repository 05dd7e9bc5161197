//! The registered scenario implementations.
//!
//! Each function is one evaluation, returning a structured
//! [`ScenarioResult`] (records + rendered text) instead of printing: the
//! `bench` bin prints `rendered` and persists `records` as `BENCH_*.json`
//! telemetry. Progress chatter goes to stderr, so long runs stay
//! observable. Every attack scenario runs its cells through
//! `attack_cell`, which proves each finished run's recombination.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use polykey_attack::{
    AttackReport, AttackSession, AttackSessionBuilder, AttackStatus, Oracle, SimOracle,
    SplitStrategy,
};
use polykey_circuits::Iscas85;
use polykey_encode::{build_miter, check_equivalence, AttackEncoding};
use polykey_locking::{
    lock_sarlock_on_signals, AntiSat, Key, LockScheme, LockedCircuit, LutLock, Rll, Sarlock,
};
use polykey_netlist::analysis::levels;
use polykey_netlist::{bits_of, pin_keys, simplify, GateKind, Netlist, NodeId, Simulator};
use polykey_sat::{ClauseSink, CnfFormula, Lit, SolveResult, Solver, SolverStats, Var};
use rand::SeedableRng;

use super::{ms, Record, Scale, ScenarioCtx, ScenarioResult};
use crate::{fmt_duration, TextTable};

/// One attack cell, the way every attack scenario runs one: a
/// [`SimOracle`] of `original` answers the session `configure` sets up,
/// and the session attacks `locked`. A finished run is recombined
/// (Fig. 1b) and proven equivalent to `original`, and `record` gains
/// `verified = 1`; a run with a leaf stopped by the time cap has no full
/// key and gains `capped = 1` instead. Either way `record` gains
/// `wall_ms`, the run's makespan ([`AttackReport::wall_time`]), every
/// `(name, value)` pair of the tree's work record
/// ([`metrics`](polykey_attack::AttackStats::metrics): the oracle and
/// solver counters, `term_ms` and the slowest term's `max_term_ms`), and
/// `max_dips`, the largest per-term `#DIP` (the quantity of the paper's
/// Table 1). The report comes back for the scenario's own metrics and
/// table text.
///
/// # Panics
///
/// Panics if the run ends incomplete other than by the time cap, or if
/// its recombination is not equivalent to `original`.
fn attack_cell(
    record: Record,
    original: &Netlist,
    locked: &Netlist,
    configure: impl FnOnce(AttackSessionBuilder<'_>) -> AttackSessionBuilder<'_>,
) -> (Record, AttackReport) {
    let mut oracle = SimOracle::new(original).expect("keyless oracle");
    let report = configure(AttackSession::builder().oracle(&mut oracle))
        .build()
        .expect("oracle provided")
        .run(locked)
        .expect("attack runs");
    let mut record = record.metric("wall_ms", ms(report.wall_time));
    for (name, value) in report.stats().metrics() {
        record = record.metric(name, value);
    }
    let max_dips = report.reports.iter().map(|r| r.stats.dips).max().unwrap_or(0);
    let record = record.metric("max_dips", max_dips as f64);
    if report.reports.iter().any(|r| r.status == AttackStatus::TimeLimit) {
        return (record.metric("capped", 1.0), report);
    }
    assert!(report.is_complete(), "{}: attack ended {:?}", record.key(), report.status());
    let recombined = report.recombine(locked).expect("recombine");
    let verified = check_equivalence(original, &recombined).expect("equiv").is_equivalent();
    assert!(verified, "{} must recombine to the original", record.key());
    (record.metric("verified", 1.0), report)
}

/// The scheme roster the sweeps share (matrix, batch, encode).
fn scheme_roster(seed: u64) -> Vec<Box<dyn LockScheme>> {
    vec![
        Box::new(Rll::new(8).with_seed(seed)),
        Box::new(Sarlock::new(6)),
        Box::new(AntiSat::new(4)),
        Box::new(LutLock::small().with_seed(seed)),
    ]
}

/// The circuits the `matrix` and `batch` sweeps attack at `scale`.
fn sweep_circuits(scale: Scale) -> Vec<Iscas85> {
    match scale {
        Scale::Quick => vec![Iscas85::C432],
        Scale::Default => vec![Iscas85::C432, Iscas85::C880],
        Scale::Full => vec![Iscas85::C432, Iscas85::C880, Iscas85::C1908],
    }
}

/// One entry of a circuit × scheme sweep.
struct RosterEntry {
    circuit: Iscas85,
    scheme: String,
    original: Netlist,
    locked: LockedCircuit,
}

/// Every circuit of `circuits` locked with every scheme of
/// [`scheme_roster`], each from an RNG seeded with `seed`, circuit by
/// circuit. A pair the scheme cannot lock is skipped with a note on
/// stderr.
fn locked_roster(circuits: &[Iscas85], seed: u64) -> Vec<RosterEntry> {
    let schemes = scheme_roster(seed);
    let mut entries = Vec::new();
    for &circuit in circuits {
        let original = circuit.build();
        for scheme in &schemes {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            match scheme.lock_random(&original, &mut rng) {
                Ok(locked) => entries.push(RosterEntry {
                    circuit,
                    scheme: scheme.name().to_string(),
                    original: original.clone(),
                    locked,
                }),
                Err(e) => eprintln!("{circuit}/{}: cannot lock ({e})", scheme.name()),
            }
        }
    }
    entries
}

/// The minimum, mean and maximum `term_time` over a run's terms.
fn term_times(report: &AttackReport) -> (Duration, Duration, Duration) {
    let stats = report.stats();
    let min = report.terms().map(|t| t.stats.term_time).min().unwrap_or_default();
    let mean = stats.term_time / report.terms().count().max(1) as u32;
    (min, mean, stats.max_subtask_time())
}

/// The `max_dips` an [`attack_cell`] record carries.
fn max_dips(record: &Record) -> f64 {
    record.metric_value("max_dips").expect("attack cells record max_dips")
}

/// The running example of Fig. 1: a 3-input majority gate.
fn majority3() -> Netlist {
    let mut nl = Netlist::new("maj3");
    let a = nl.add_input("a").expect("fresh");
    let b = nl.add_input("b").expect("fresh");
    let c = nl.add_input("c").expect("fresh");
    let ab = nl.add_gate("ab", GateKind::And, &[a, b]).expect("fresh");
    let ac = nl.add_gate("ac", GateKind::And, &[a, c]).expect("fresh");
    let bc = nl.add_gate("bc", GateKind::And, &[b, c]).expect("fresh");
    let y = nl.add_gate("y", GateKind::Or, &[ab, ac, bc]).expect("fresh");
    nl.mark_output(y).expect("distinct");
    nl
}

/// The `LockScheme` × effort × circuit sweep (`matrix`):
/// every cell is attacked, recombined (Fig. 1b), and formally verified.
pub fn matrix(ctx: &ScenarioCtx) -> ScenarioResult {
    let seed = ctx.seed.unwrap_or(0xD1CE);
    let circuits = sweep_circuits(ctx.scale);
    let max_effort = if ctx.scale == Scale::Full { 3 } else { 2 };
    let time_cap = Duration::from_secs(ctx.time_cap.unwrap_or(300));

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(
        out,
        "Attack matrix: {} schemes x N = 0..={max_effort} x {} circuits (cap {} per attack)",
        scheme_roster(seed).len(),
        circuits.len(),
        fmt_duration(time_cap)
    );
    let _ = writeln!(
        out,
        "cells: #DIP (max over terms) / max term time; * = formally verified recombination\n"
    );

    let mut header = vec!["circuit / scheme".to_string()];
    for n in 0..=max_effort {
        header.push(format!("N={n}"));
    }
    let mut table = TextTable::new(header);

    for entry in locked_roster(&circuits, seed) {
        let name = format!("{}/{}", entry.circuit.name(), entry.scheme);
        let mut row = vec![name.clone()];
        for n in 0..=max_effort {
            let (record, report) = attack_cell(
                Record::new("matrix")
                    .label("circuit", entry.circuit.name())
                    .label("scheme", &entry.scheme)
                    .label("n", n),
                &entry.original,
                &entry.locked.netlist,
                |session| session.split_effort(n).record_dips(false).time_budget(time_cap),
            );
            row.push(if record.metric_value("verified").is_some() {
                format!(
                    "{} / {} *",
                    max_dips(&record),
                    fmt_duration(report.stats().max_subtask_time())
                )
            } else {
                format!("{:?}", report.status())
            });
            records.push(record);
        }
        table.row(row);
        eprintln!("{name} done");
    }

    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "SARLock #DIP halves per splitting level; RLL and Anti-SAT are");
    let _ = writeln!(out, "cheap everywhere; LUT cost sits in the miter size. One harness,");
    let _ = writeln!(out, "every scheme.");
    ScenarioResult { records, rendered: out, table: Some(table) }
}

const BATCH_WIDTHS: [usize; 4] = [1, 8, 32, 64];

/// The batched-DIP sweep (`batch`): oracle rounds vs oracle
/// queries for batch widths 1/8/32/64.
pub fn batch(ctx: &ScenarioCtx) -> ScenarioResult {
    let seed = ctx.seed.unwrap_or(0xBA7C);
    let circuits = sweep_circuits(ctx.scale);

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(
        out,
        "Batched-DIP sweep: {} schemes x batch widths {BATCH_WIDTHS:?} x {} circuits",
        scheme_roster(seed).len(),
        circuits.len()
    );
    let _ = writeln!(out, "cells: oracle rounds / oracle queries (speedup x)");
    let _ = writeln!(out, "key vs k=1 run: `=` bit-identical, `≡` functionally equivalent");
    let _ = writeln!(out, "every cell is recombined (Fig. 1b) and formally verified\n");

    let mut header = vec!["circuit / scheme".to_string()];
    for k in BATCH_WIDTHS {
        header.push(format!("k={k}"));
    }
    let mut table = TextTable::new(header);
    let mut best_speedup: (f64, String) = (1.0, String::new());

    // SARLock is the interesting row: ~2^|K| DIPs, so batching collapses
    // dozens of round-trips per attack. RLL/Anti-SAT/LUT converge in a
    // handful of DIPs and bound the overhead side of the trade.
    for entry in locked_roster(&circuits, seed) {
        let name = format!("{}/{}", entry.circuit.name(), entry.scheme);
        let mut row = vec![name.clone()];
        let mut sequential_key = None;
        for k in BATCH_WIDTHS {
            let (record, report) = attack_cell(
                Record::new("batch")
                    .label("circuit", entry.circuit.name())
                    .label("scheme", &entry.scheme)
                    .label("k", k),
                &entry.original,
                &entry.locked.netlist,
                |session| session.dip_batch(k).record_dips(false),
            );
            let stats = report.stats();
            let key = report.key().expect("single-key run").clone();
            let key_mark = match &sequential_key {
                None => {
                    sequential_key = Some(key);
                    String::new()
                }
                Some(reference) if *reference == key => " =".to_string(),
                Some(_) => " ≡".to_string(),
            };
            let speedup = stats.oracle_queries as f64 / stats.oracle_rounds.max(1) as f64;
            if speedup > best_speedup.0 {
                best_speedup = (speedup, format!("{name} at k={k}"));
            }
            records.push(record.metric("speedup", speedup));
            row.push(format!(
                "{}/{} ({speedup:.1}x){key_mark} {}",
                stats.oracle_rounds,
                stats.oracle_queries,
                fmt_duration(report.wall_time)
            ));
        }
        table.row(row);
        eprintln!("{name} done");
    }

    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "best round amortization: {:.1}x fewer oracle round-trips ({})",
        best_speedup.0, best_speedup.1
    );
    let _ = writeln!(out, "queries (= #DIP) stay flat while rounds collapse: the oracle");
    let _ = writeln!(out, "cost of the attack is round-trips, and k=64 packs each round");
    let _ = writeln!(out, "into one 64-pattern simulator pass.");
    ScenarioResult { records, rendered: out, table: Some(table) }
}

/// Table 1 (`table1`): `#DIP` vs splitting effort on
/// SARLock-locked c7552. Every cell asserts its `#DIP(max)`: `2^|K| − 1`
/// at N = 0 and `2^(|K|−N)` for N ≥ 1. Every cell is recombined (Fig. 1b)
/// and formally verified against the original.
pub fn table1(ctx: &ScenarioCtx) -> ScenarioResult {
    let key_sizes: Vec<usize> =
        if ctx.scale == Scale::Quick { vec![4, 8] } else { vec![4, 8, 12] };
    let seed = ctx.seed.unwrap_or(0xDAC24);

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(out, "Table 1: #DIP for SARLock-locked c7552 (stand-in netlist)");
    let _ = writeln!(
        out,
        "splitting ports chosen by fan-out cone analysis; N = 0 is the baseline\n"
    );

    let c7552 = Iscas85::C7552.build();
    let mut table = TextTable::new(vec![
        "|K|".to_string(),
        "N=0 (baseline)".to_string(),
        "N=1".to_string(),
        "N=2".to_string(),
        "N=3".to_string(),
        "N=4".to_string(),
    ]);
    let mut spread_note = Vec::new();

    for &kw in &key_sizes {
        // A fixed correct key derived from the seed keeps runs reproducible.
        let key = Key::from_u64(seed & ((1 << kw) - 1), kw);
        let locked = Sarlock::new(kw).lock(&c7552, &key).expect("c7552 has enough inputs");
        let mut row = vec![format!("{kw}")];
        for n in 0..=4usize {
            let started = Instant::now();
            let (record, report) = attack_cell(
                Record::new("table1").label("kw", kw).label("n", n),
                &c7552,
                &locked.netlist,
                |session| session.split_effort(n),
            );
            let max_dips = max_dips(&record);
            // The one-key attack rules out SARLock's wrong keys one DIP at
            // a time; each split port halves the keys a term has left.
            let expected = if n == 0 { (1u64 << kw) - 1 } else { 1 << (kw - n) };
            assert_eq!(max_dips, expected as f64, "SARLock |K|={kw} N={n}: #DIP(max)");
            let min_dips = report.reports.iter().map(|r| r.stats.dips).min().unwrap_or(0);
            let terms = report.reports.len();
            if max_dips != min_dips as f64 {
                spread_note.push(format!(
                    "|K|={kw} N={n}: per-term #DIP ranges {min_dips}..{max_dips}"
                ));
            }
            records
                .push(record.metric("min_dips", min_dips as f64).metric("terms", terms as f64));
            row.push(format!("{max_dips}"));
            eprintln!(
                "  |K|={kw} N={n}: #DIP(max)={max_dips} across {terms} terms in {}",
                fmt_duration(started.elapsed()),
            );
        }
        table.row(row);
    }

    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "(cells report the maximum #DIP over the 2^N parallel terms;");
    let _ = writeln!(out, " the paper reports the same quantity and observes identical");
    let _ = writeln!(out, " #DIP across terms)");
    let _ = writeln!(out, "every cell's recombination (Fig. 1b) is formally verified");
    if spread_note.is_empty() {
        let _ = writeln!(out, "\nall parallel terms reported identical #DIP  [matches paper]");
    } else {
        let _ = writeln!(out, "\nper-term #DIP spreads:");
        for s in spread_note {
            let _ = writeln!(out, "  {s}");
        }
    }
    ScenarioResult { records, rendered: out, table: Some(table) }
}

/// Table 2 (`table2`): runtime of attacking LUT-based
/// insertion — baseline SAT attack vs the multi-key attack at N = 4.
/// Every cell that finishes within the time cap is recombined and formally
/// verified against the original.
pub fn table2(ctx: &ScenarioCtx) -> ScenarioResult {
    let base_scheme =
        if ctx.scale == Scale::Full { LutLock::paper() } else { LutLock::small() };
    let circuits: Vec<Iscas85> = if ctx.scale == Scale::Quick {
        vec![Iscas85::C880, Iscas85::C1355, Iscas85::C1908, Iscas85::C6288]
    } else {
        Iscas85::table2_set().to_vec()
    };
    let time_cap = Duration::from_secs(ctx.time_cap.unwrap_or(600));
    let seed = ctx.seed.unwrap_or(0x7AB1E2);
    let scheme = base_scheme.with_seed(seed);

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(
        out,
        "Table 2: runtime of attacking LUT-based insertion ({} key bits, {} tapped nets)",
        scheme.key_bits(),
        scheme.module_inputs()
    );
    let _ =
        writeln!(out, "baseline = plain SAT attack; this work = 16 parallel terms at N = 4");
    let _ = writeln!(
        out,
        "per-attack time cap: {} (cells show >cap when hit)\n",
        fmt_duration(time_cap)
    );

    let mut table = TextTable::new(vec![
        "Circuit",
        "Baseline",
        "Minimum",
        "Mean",
        "Maximum",
        "Maximum/Baseline",
    ]);

    for bench in circuits {
        let original = bench.build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let locked = scheme.lock_random(&original, &mut rng).expect("lockable");
        eprintln!(
            "{}: locked with {} key bits ({} gates -> {})",
            bench,
            locked.key.len(),
            original.num_gates(),
            locked.netlist.num_gates()
        );
        // Both variants run the textbook formulation (full circuit copies
        // per DIP) that the paper's tooling uses; dropping `.textbook(true)`
        // would measure the optimized folded engine instead. A record
        // states `capped` either way.
        let cell = |variant: &str, n: usize| {
            let (record, report) = attack_cell(
                Record::new("table2").label("circuit", bench.name()).label("variant", variant),
                &original,
                &locked.netlist,
                |session| {
                    session
                        .split_effort(n)
                        .textbook(true)
                        .time_budget(time_cap)
                        .record_dips(false)
                },
            );
            let capped = record.metric_value("capped").is_some();
            (if capped { record } else { record.metric("capped", 0.0) }, report, capped)
        };

        // Baseline: the conventional SAT attack on the whole circuit.
        let (record, baseline, baseline_capped) = cell("baseline", 0);
        records.push(record);
        let baseline_time = baseline.wall_time;
        eprintln!(
            "  baseline: {} ({} DIPs, status {:?})",
            fmt_duration(baseline_time),
            baseline.stats().dips,
            baseline.status()
        );

        // This work: N = 4, 16 parallel terms.
        let (record, report, any_capped) = cell("multikey_n4", 4);
        let (min, mean, max) = term_times(&report);
        eprintln!(
            "  this work: min {} mean {} max {} over {} terms (max {} DIPs){}",
            fmt_duration(min),
            fmt_duration(mean),
            fmt_duration(max),
            report.reports.len(),
            max_dips(&record),
            if any_capped { " (some terms hit the cap)" } else { "" }
        );

        let ratio = max.as_secs_f64() / baseline_time.as_secs_f64().max(1e-9);
        records.push(
            record
                .metric("min_term_ms", ms(min))
                .metric("mean_term_ms", ms(mean))
                .metric("max_over_baseline", ratio),
        );
        let fmt_capped = |d: Duration, capped: bool| {
            if capped {
                format!(">{}", fmt_duration(d))
            } else {
                fmt_duration(d)
            }
        };
        table.row(vec![
            bench.name().to_string(),
            fmt_capped(baseline_time, baseline_capped),
            fmt_duration(min),
            fmt_duration(mean),
            fmt_capped(max, any_capped),
            format!(
                "{ratio:.3}{}",
                if baseline_capped { " (lower bound on speedup)" } else { "" }
            ),
        ]);
    }

    let _ = writeln!(out, "\n{}", table.render());
    let _ =
        writeln!(out, "break-even for single-core execution of 16 terms: ratio 1/16 = 0.0625");
    let _ = writeln!(out, "every cell within the cap is recombined and formally verified");
    ScenarioResult { records, rendered: out, table: Some(table) }
}

/// The diagnostic probe (`probe`): baseline vs per-term cost
/// across LUT sizes on one circuit.
pub fn probe(ctx: &ScenarioCtx) -> ScenarioResult {
    let seed = ctx.seed.unwrap_or(0x7AB1E2);
    let cap = Duration::from_secs(ctx.time_cap.unwrap_or(180));
    let circuit = if ctx.scale == Scale::Full { Iscas85::C6288 } else { Iscas85::C880 };
    let original = circuit.build();

    let mut out = String::new();
    let mut records = Vec::new();
    for (label, keys, scheme) in [
        ("8+8+8=24 keys", "24", LutLock::new(vec![3, 3], 1)),
        ("16+16+16=48 keys", "48", LutLock::new(vec![4, 4], 2)),
        ("32+32+16=80 keys", "80", LutLock::new(vec![5, 5], 2)),
    ] {
        let scheme = scheme.with_seed(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let locked = match scheme.lock_random(&original, &mut rng) {
            Ok(l) => l,
            Err(e) => {
                let _ = writeln!(out, "{label}: cannot lock ({e})");
                continue;
            }
        };
        let cell = |variant: &str, n: usize| {
            attack_cell(
                Record::new("probe")
                    .label("circuit", circuit.name())
                    .label("keys", keys)
                    .label("variant", variant),
                &original,
                &locked.netlist,
                |session| session.split_effort(n).record_dips(false).time_budget(cap),
            )
        };
        let (record, baseline) = cell("baseline", 0);
        records.push(record);
        let stats = baseline.stats();
        let _ = writeln!(
            out,
            "{} on {}: baseline {} ({} DIPs, {:?}, {} conflicts)",
            label,
            circuit,
            fmt_duration(baseline.wall_time),
            stats.dips,
            baseline.status(),
            stats.solver.conflicts
        );
        let (record, report) = cell("n4", 4);
        let (min, mean, max) = term_times(&report);
        let _ = writeln!(
            out,
            "  N=4: min {} mean {} max {} (max {} DIPs, complete={})",
            fmt_duration(min),
            fmt_duration(mean),
            fmt_duration(max),
            max_dips(&record),
            report.is_complete(),
        );
        records.push(record);
    }
    ScenarioResult { records, rendered: out, table: None }
}

/// Picks `n` deep internal nets, spread across the circuit (the
/// `defense_probe` comparator placement).
fn deep_signals(nl: &Netlist, n: usize) -> Vec<NodeId> {
    let lv = levels(nl);
    let mut candidates: Vec<NodeId> = nl
        .node_ids()
        .filter(|&id| {
            !nl.node(id).kind().is_input() && !nl.outputs().contains(&id) && lv[id.index()] >= 3
        })
        .collect();
    // Deterministic spread: sort by level descending, then stride.
    candidates.sort_by_key(|id| std::cmp::Reverse(lv[id.index()]));
    let stride = (candidates.len() / n.max(1)).max(1);
    candidates.into_iter().step_by(stride).take(n).collect()
}

/// The defense probe (`defense_probe`): SARLock comparing on
/// primary inputs vs on deep internal nets, N = 0..3.
pub fn defense_probe(ctx: &ScenarioCtx) -> ScenarioResult {
    let kw = 6usize;
    let circuit = if ctx.scale == Scale::Full { Iscas85::C7552 } else { Iscas85::C880 };
    let original = circuit.build();
    let key = Key::from_u64(ctx.seed.unwrap_or(0b101101) & ((1 << kw) - 1), kw);

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(out, "Defense probe: SARLock |K| = {kw} on {circuit}");
    let _ = writeln!(out, "attack = multi-key, fan-out-cone splitting, N = 0..3\n");

    let input_locked = Sarlock::new(kw).lock(&original, &key).expect("lockable");
    let signals = deep_signals(&original, kw);
    let names: Vec<&str> = signals.iter().map(|&s| original.node_name(s)).collect();
    let _ = writeln!(out, "internal comparator nets: {names:?}\n");
    let internal_locked =
        lock_sarlock_on_signals(&original, &signals, &key, None).expect("lockable");

    let mut table = TextTable::new(vec![
        "variant",
        "N=0 #DIP",
        "N=1 #DIP",
        "N=2 #DIP",
        "N=3 #DIP",
        "N=3 max time",
    ]);
    for (label, variant, locked) in [
        ("SARLock on inputs (paper)", "inputs", &input_locked.netlist),
        ("SARLock on internal nets (defense)", "internal", &internal_locked.netlist),
    ] {
        let mut row = vec![label.to_string()];
        let mut last_time = String::new();
        for n in 0..=3usize {
            let (record, report) = attack_cell(
                Record::new("defense_probe")
                    .label("circuit", circuit.name())
                    .label("variant", variant)
                    .label("n", n),
                &original,
                locked,
                |session| session.split_effort(n).record_dips(false),
            );
            row.push(format!("{}", max_dips(&record)));
            last_time = fmt_duration(report.stats().max_subtask_time());
            records.push(record);
        }
        row.push(last_time);
        table.row(row);
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "input-comparator #DIP halves per split level; the internal-net");
    let _ = writeln!(out, "variant resists splitting because no small set of input ports");
    let _ = writeln!(out, "pins the comparator's observed value.");
    ScenarioResult { records, rendered: out, table: Some(table) }
}

/// The split-port heuristic ablation (`ablation_split`):
/// fan-out-cone vs first-inputs vs random splitting on SARLock.
pub fn ablation_split(ctx: &ScenarioCtx) -> ScenarioResult {
    let kw = if ctx.scale == Scale::Full { 10 } else { 8 };
    let seed = ctx.seed.unwrap_or(0x5EED);

    // SARLock compares on inputs *after* the first few declared ones so
    // that FirstInputs genuinely misses them.
    let circuit = if ctx.scale == Scale::Quick { Iscas85::C880 } else { Iscas85::C7552 };
    let original = circuit.build();
    let key = Key::from_u64(seed & ((1 << kw) - 1), kw);
    let locked = Sarlock::new(kw)
        .with_compare_inputs((10..10 + kw).collect())
        .lock(&original, &key)
        .expect("lockable");

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(
        out,
        "Split-strategy ablation: SARLock(|K|={kw}) on {}, N = 3, comparator on inputs 10..{}",
        circuit,
        10 + kw
    );
    let _ = writeln!(out, "baseline (N=0) needs ~2^{kw} DIPs\n");

    let mut table = TextTable::new(vec!["strategy", "#DIP (max over terms)", "max term time"]);
    for (name, tag, strategy) in [
        ("fan-out cone (paper)", "fanout_cone", SplitStrategy::FanoutCone),
        ("first inputs", "first_inputs", SplitStrategy::FirstInputs),
        ("random", "random", SplitStrategy::Random { seed }),
    ] {
        let (record, report) = attack_cell(
            Record::new("ablation_split")
                .label("circuit", circuit.name())
                .label("strategy", tag),
            &original,
            &locked.netlist,
            |session| session.split_effort(3).strategy(strategy).record_dips(false),
        );
        table.row(vec![
            name.to_string(),
            format!("{}", max_dips(&record)),
            fmt_duration(report.stats().max_subtask_time()),
        ]);
        records.push(record);
        let picked: Vec<&str> =
            report.split_inputs.iter().map(|&id| locked.netlist.node_name(id)).collect();
        eprintln!("  {name}: split ports {picked:?}");
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "fan-out cone analysis finds the comparator inputs, so every");
    let _ = writeln!(out, "split level halves the remaining key space; naive choices");
    let _ = writeln!(out, "leave #DIP near the baseline 2^|K|.");
    ScenarioResult { records, rendered: out, table: Some(table) }
}

/// Fig. 1(a) (`fig1a`): the SARLock error distribution of the
/// running example (`|I| = |K| = 3`, correct key 101).
pub fn fig1a(_ctx: &ScenarioCtx) -> ScenarioResult {
    // The paper reads bit strings MSB-first: "101" has MSB 1. Our Key is
    // bit0-first, so build 101 (MSB-first) as bits [1,0,1] reversed.
    let k_star_msb_first = [true, false, true];
    let key = Key::new(k_star_msb_first.iter().rev().copied().collect());
    let nl = majority3();
    let locked = Sarlock::new(3).lock(&nl, &key).expect("valid lock");

    let mut orig = Simulator::new(&nl).expect("acyclic");
    let mut lsim = Simulator::new(&locked.netlist).expect("acyclic");

    let mut header = vec!["Input \\ Key".to_string()];
    for k in 0..8u64 {
        header.push(format!("{k:03b}"));
    }
    let mut table = TextTable::new(header);
    for i in 0..8u64 {
        // Paper convention: the row label is MSB-first; our simulator takes
        // bit0-first vectors, and the comparator compares input j with key
        // bit j, so MSB-first labels match when both are reversed alike.
        let ibits: Vec<bool> = (0..3).rev().map(|j| i >> j & 1 == 1).collect();
        let want = orig.eval(&ibits, &[]);
        let mut row = vec![format!("{i:03b}")];
        for k in 0..8u64 {
            let kbits: Vec<bool> = (0..3).rev().map(|j| k >> j & 1 == 1).collect();
            let got = lsim.eval(&ibits, &kbits);
            row.push(if got == want { "ok".to_string() } else { "X".to_string() });
        }
        table.row(row);
    }

    let mut out = String::new();
    let _ = writeln!(out, "Fig. 1(a): SARLock error distribution, |I| = |K| = 3, k* = 101");
    let _ = writeln!(out, "(X marks input/key pairs where the locked circuit errs)");
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "Reading: every wrong key k errs exactly at input i = k; the");
    let _ = writeln!(out, "correct key column (101) and the row i = k* are error-free,");
    let _ = writeln!(out, "so each SAT-attack DIP can eliminate only one wrong key.");

    // Sanity assertions so the scenario doubles as an executable check.
    let mut errors = 0usize;
    for i in 0..8u64 {
        let ibits = bits_of(i, 3);
        let want = orig.eval(&ibits, &[]);
        for k in 0..8u64 {
            let kbits = bits_of(k, 3);
            if lsim.eval(&ibits, &kbits) != want {
                errors += 1;
                assert_eq!(i, k, "errors only on the diagonal");
            }
        }
    }
    assert_eq!(errors, 7, "exactly one error per wrong key");
    let _ = writeln!(out);
    let _ =
        writeln!(out, "check: 7 wrong keys x 1 corrupted pattern each = {errors} errors  [ok]");

    let records = vec![Record::new("fig1a")
        .label("circuit", "maj3")
        .metric("errors", errors as f64)
        .metric("wrong_keys", 7.0)];
    ScenarioResult { records, rendered: out, table: Some(table) }
}

/// Adaptive recursive splitting vs the paper's static grid on SARLock —
/// the scheme whose term hardness motivates the budget-driven term tree.
/// Every cell is recombined and formally verified; adaptive cells also
/// assert that the tree actually grew past its root.
pub fn adaptive(ctx: &ScenarioCtx) -> ScenarioResult {
    let seed = ctx.seed.unwrap_or(0xADA97);
    let circuits: Vec<Iscas85> = if ctx.scale == Scale::Quick {
        vec![Iscas85::C432]
    } else {
        vec![Iscas85::C432, Iscas85::C880]
    };
    let key_width = 6usize;
    // (mode label, root N, per-term DIP budget).
    let variants: [(&str, usize, Option<u64>); 3] = [
        ("static_n2", 2, None),
        ("adaptive_n1_b8", 1, Some(8)),
        ("adaptive_n0_b16", 0, Some(16)),
    ];

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(
        out,
        "Adaptive splitting on SARLock |K| = {key_width}: static grid vs budget-driven term \
         tree"
    );
    let _ = writeln!(out, "cells: total #DIP / leaves @ max depth (resplits); all verified\n");

    let mut table = TextTable::new(vec![
        "circuit / mode".to_string(),
        "dips".to_string(),
        "leaves".to_string(),
        "depth".to_string(),
        "resplits".to_string(),
        "time".to_string(),
    ]);

    for circuit in &circuits {
        let original = circuit.build();
        let key = Key::from_u64(seed & ((1 << key_width) - 1), key_width);
        let locked = Sarlock::new(key_width).lock(&original, &key).expect("lockable");
        for (mode, root_n, budget) in variants {
            let (record, report) = attack_cell(
                Record::new("adaptive").label("circuit", circuit.name()).label("mode", mode),
                &original,
                &locked.netlist,
                |session| {
                    let session = session.split_effort(root_n).record_dips(false);
                    match budget {
                        Some(b) => session.term_dip_budget(b),
                        None => session,
                    }
                },
            );
            let (leaves, depth, resplits) =
                (report.reports.len(), report.max_depth(), report.resplit_reports.len());
            if budget.is_some() {
                assert!(
                    depth > root_n,
                    "{}/{mode}: the budget must subdivide at least one term",
                    circuit.name()
                );
            }
            let stats = report.stats();
            records.push(
                record
                    .metric("leaves", leaves as f64)
                    .metric("max_depth", depth as f64)
                    .metric("resplits", resplits as f64),
            );
            table.row(vec![
                format!("{}/{mode}", circuit.name()),
                format!("{}", stats.dips),
                format!("{leaves}"),
                format!("{depth}"),
                format!("{resplits}"),
                fmt_duration(report.wall_time),
            ]);
            eprintln!("{}/{mode} done", circuit.name());
        }
    }

    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "static N spends the same effort on every sub-space; the budgeted");
    let _ = writeln!(out, "tree spends splits only where terms refuse to converge, and the");
    let _ = writeln!(out, "mixed-depth prefix tree still recombines to the exact design.");
    ScenarioResult { records, rendered: out, table: Some(table) }
}

/// CNF miter-encoding cost per scheme × circuit — the substrate the whole
/// attack stands on, measured without running any attack.
pub fn encode(ctx: &ScenarioCtx) -> ScenarioResult {
    let seed = ctx.seed.unwrap_or(0xE4C0DE);
    let circuits: Vec<Iscas85> = match ctx.scale {
        Scale::Quick => vec![Iscas85::C432, Iscas85::C880],
        Scale::Default => vec![Iscas85::C432, Iscas85::C880, Iscas85::C1908],
        Scale::Full => Iscas85::all().to_vec(),
    };

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(
        out,
        "Miter encoding cost: {} schemes x {} circuits (Tseitin CNF of two locked copies)",
        scheme_roster(seed).len(),
        circuits.len()
    );
    let _ = writeln!(out, "cells: CNF vars / clauses (encode time)\n");

    let mut table =
        TextTable::new(vec!["circuit / scheme", "key bits", "vars", "clauses", "time"]);
    for RosterEntry { circuit, scheme, locked, .. } in locked_roster(&circuits, seed) {
        let started = Instant::now();
        let mut solver = Solver::new();
        build_miter(&mut solver, &locked.netlist, &locked.netlist).expect("one interface");
        let elapsed = started.elapsed();
        records.push(
            Record::new("encode")
                .label("circuit", circuit.name())
                .label("scheme", &scheme)
                .metric("encode_ms", ms(elapsed))
                .metric("cnf_vars", solver.num_vars() as f64)
                .metric("cnf_clauses", solver.num_clauses() as f64)
                .metric("key_bits", locked.key.len() as f64)
                .metric("locked_gates", locked.netlist.num_gates() as f64),
        );
        table.row(vec![
            format!("{}/{scheme}", circuit.name()),
            format!("{}", locked.key.len()),
            format!("{}", solver.num_vars()),
            format!("{}", solver.num_clauses()),
            fmt_duration(elapsed),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "the miter dominates each attack's base CNF; per-DIP copies then");
    let _ = writeln!(out, "grow it (folded copies add only the key cones).");
    ScenarioResult { records, rendered: out, table: Some(table) }
}

/// Repetitions of every `layers` cell; the cell reports the fastest.
const LAYER_REPS: usize = 5;

/// Runs `op` [`LAYER_REPS`] times and returns its fastest wall time plus
/// its result. Host drift moves medians by a fifth here, the minimum far
/// less; every rep must compute the same work counter.
fn fastest<T: PartialEq + std::fmt::Debug>(mut op: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut result = None;
    for _ in 0..LAYER_REPS {
        let started = Instant::now();
        let value = op();
        best = best.min(started.elapsed());
        if let Some(previous) = &result {
            assert_eq!(previous, &value, "a layer's work counter must be deterministic");
        }
        result = Some(value);
    }
    (best, result.expect("LAYER_REPS > 0"))
}

/// Pigeonhole principle: `n` pigeons into `n - 1` holes (unsat,
/// resolution-hard).
#[allow(clippy::needless_range_loop)]
fn pigeonhole(n: usize) -> CnfFormula {
    let m = n - 1;
    let mut f = CnfFormula::new();
    let p: Vec<Vec<Lit>> =
        (0..n).map(|_| (0..m).map(|_| f.new_var().positive()).collect()).collect();
    for row in &p {
        f.add_clause(row);
    }
    for hole in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                f.add_clause(&[!p[i1][hole], !p[i2][hole]]);
            }
        }
    }
    f
}

/// Deterministic random 3-SAT at the given clause/variable ratio.
fn random_3sat(vars: usize, ratio: f64, seed: u64) -> CnfFormula {
    let mut f = CnfFormula::new();
    f.set_num_vars(vars);
    let m = (vars as f64 * ratio) as usize;
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    for _ in 0..m {
        let mut clause = Vec::with_capacity(3);
        while clause.len() < 3 {
            let v = Var::new((next() >> 33) as u32 % vars as u32);
            if clause.iter().any(|l: &Lit| l.var() == v) {
                continue;
            }
            clause.push(Lit::new(v, next() % 2 == 0));
        }
        f.add_clause(&clause);
    }
    f
}

/// Per-layer timings (`layers`): packed simulation, re-synthesis,
/// cofactoring, LUT locking, a search's cone and miter set-up, per-DIP
/// constraint encoding, the CDCL solver and equivalence proofs, each on
/// fixed inputs.
///
/// Each cell reports `iter_ms`, the fastest of `LAYER_REPS` runs, plus
/// its deterministic work counter: `conflicts` for solver cells and
/// `cnf_clauses` for the encoding cells (gated), `gates` / `gates_after` /
/// `locked_gates` for netlist and proof cells (informational). Single
/// cells sit below the timing noise floor; the scenario's `__total__`
/// does not.
pub fn layers(_ctx: &ScenarioCtx) -> ScenarioResult {
    let mut records = Vec::new();
    let mut table = TextTable::new(vec!["layer", "input", "iter", "work"]);
    let mut cell = |layer: &str, input: &str, time: Duration, counter: &str, value: u64| {
        records.push(
            Record::new("layers")
                .label("layer", layer)
                .label("input", input)
                .metric("iter_ms", ms(time))
                .metric(counter, value as f64),
        );
        table.row(vec![
            layer.to_string(),
            input.to_string(),
            fmt_duration(time),
            format!("{value} {counter}"),
        ]);
    };

    for circuit in [Iscas85::C880, Iscas85::C6288, Iscas85::C7552] {
        // 64 patterns per pass, one per bit of each input word.
        let nl = circuit.build();
        let inputs = vec![0xA5A5_5A5A_DEAD_BEEFu64; nl.inputs().len()];
        let mut sim = Simulator::new(&nl).expect("acyclic");
        let (time, _) = fastest(|| sim.eval_packed(&inputs, &[]));
        cell("sim_packed", circuit.name(), time, "gates", nl.num_gates() as u64);
    }
    for circuit in [Iscas85::C880, Iscas85::C7552] {
        let nl = circuit.build();
        let (time, gates) = fastest(|| simplify(&nl).1.gates_after);
        cell("simplify", circuit.name(), time, "gates_after", gates as u64);
    }
    {
        let nl = Iscas85::C880.build();
        let scheme = LutLock::small().with_seed(7);
        let (time, gates) = fastest(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            scheme.lock_random(&nl, &mut rng).expect("lockable").netlist.num_gates()
        });
        cell("lock_lut", "c880", time, "locked_gates", gates as u64);
    }
    {
        // The proof behind every verified cell: a circuit against its
        // clone, and SARLock-locked c7552 with its correct key pinned,
        // where the key logic must fold away against the original.
        let mut proof = |input: &str, left: &Netlist, right: &Netlist| {
            let (time, equivalent) = fastest(|| {
                check_equivalence(left, right).expect("same interface").is_equivalent()
            });
            assert!(equivalent, "equiv {input}");
            cell("equiv", input, time, "gates", right.num_gates() as u64);
        };
        for circuit in [Iscas85::C1908, Iscas85::C7552] {
            let nl = circuit.build();
            proof(&format!("{}_clone", circuit.name()), &nl, &nl.clone());
        }
        let c7552 = Iscas85::C7552.build();
        let key = Key::from_u64(0xA5, 8);
        let locked = Sarlock::new(8).lock(&c7552, &key).expect("c7552 has enough inputs");
        let unlocked = pin_keys(&locked.netlist, key.bits()).expect("key width matches");
        proof("c7552_sarlock8", &c7552, &unlocked);
    }

    {
        let c7552 = Iscas85::C7552.build();
        let locked = Sarlock::new(8).lock(&c7552, &Key::from_u64(0x5A, 8)).expect("lockable");
        let netlist = &locked.netlist;

        // A session's set-up: the outputs the key reaches, their cone, its
        // key-free output layers peeled off, the miter of what is left,
        // and the key cone and renaming the per-DIP copies use. The
        // locked netlist's order stays cached after the first run.
        let (time, clauses) =
            fastest(|| AttackEncoding::new(netlist, false).1.num_clauses() as u64);
        cell("cone_miter", "c7552_sarlock8", time, "cnf_clauses", clauses);

        // The DIP loop's encoding work, as one run of the attack does it:
        // a copy of the session's solver, then each DIP's constraint over
        // the whole locked netlist with the oracle's whole response, the
        // key-free outputs folding to constants, through the elimination
        // buffer. First 255 pseudo-random DIPs (SARLock |K|=8 needs
        // 2^8 - 1), which flip about half the inputs each time.
        let (encoding, session) = AttackEncoding::new(netlist, false);
        let mut oracle = Simulator::new(&c7552).expect("acyclic");
        let mut dip_copies = |dips: &[Vec<bool>]| {
            let responses: Vec<Vec<bool>> =
                dips.iter().map(|dip| oracle.eval(dip, &[])).collect();
            fastest(|| {
                let mut solver = session.clone();
                let mut constraints = encoding.dip_constraints();
                for (dip, response) in dips.iter().zip(&responses) {
                    constraints.add_answered(&mut solver, dip, response);
                }
                solver.num_clauses() as u64
            })
        };
        let width = netlist.inputs().len();
        let dips: Vec<Vec<bool>> = (0..255u64)
            .map(|i| bits_of(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), width))
            .collect();
        let (time, clauses) = dip_copies(&dips);
        cell("dip_copies", "c7552_sarlock8", time, "cnf_clauses", clauses);

        // The oracle's side of the DIP loop: the 255 DIPs a SARLock attack
        // asks, in order, replayed one query at a time. Consecutive DIPs
        // differ in a few inputs. The same number of pseudo-random patterns
        // (about half the inputs flip each time) is the worst case for
        // single-pattern simulation.
        let mut recorder = SimOracle::new(&c7552).expect("keyless oracle");
        let report = AttackSession::builder()
            .oracle(&mut recorder)
            .build()
            .expect("oracle provided")
            .run(netlist)
            .expect("attack runs");
        let recorded = &report.reports[0].dip_patterns;
        assert_eq!(recorded.len(), 255, "SARLock |K|=8 needs 2^8 - 1 DIPs");
        for (input, patterns) in [("c7552_sarlock8", recorded), ("c7552_random", &dips)] {
            let (time, queries) = fastest(|| {
                let mut oracle = SimOracle::new(&c7552).expect("keyless oracle");
                for pattern in patterns {
                    oracle.query(pattern);
                }
                oracle.queries()
            });
            cell("sim_oracle", input, time, "queries", queries);
        }

        // Then the DIPs the attack asked, in order: consecutive DIPs
        // re-simulate a few gates, so this is the per-DIP encoding and
        // elimination the attack pays.
        let (time, clauses) = dip_copies(recorded);
        cell("dip_copies", "c7552_sarlock8_attack", time, "cnf_clauses", clauses);
    }

    let solve = |f: &CnfFormula, assumptions: &[Lit]| -> (SolveResult, SolverStats) {
        let mut solver = f.to_solver();
        let result = solver.solve(assumptions);
        (result, *solver.stats())
    };
    for n in [6usize, 7, 8] {
        let f = pigeonhole(n);
        let (time, (result, stats)) = fastest(|| solve(&f, &[]));
        assert_eq!(result, SolveResult::Unsat, "pigeonhole {n}");
        cell("pigeonhole", &n.to_string(), time, "conflicts", stats.conflicts);
    }
    for vars in [100usize, 150] {
        let f = random_3sat(vars, 4.1, 0xBEEF);
        let (time, (_, stats)) = fastest(|| solve(&f, &[]));
        cell("random3sat", &vars.to_string(), time, "conflicts", stats.conflicts);
    }
    {
        // Repeated solves under flipping assumptions: the SAT attack's
        // usage pattern.
        let f = random_3sat(120, 3.0, 7);
        let (time, conflicts) = fastest(|| {
            let mut solver = f.to_solver();
            for i in 0..120 {
                solver.solve(&[Var::new(i).positive()]);
            }
            solver.stats().conflicts
        });
        cell("incremental", "120x", time, "conflicts", conflicts);
    }
    {
        // The DIP loop's solver pattern: each round adds clauses over fresh
        // variables plus one level-0 unit that satisfies some of them, then
        // solves under an assumption. Every round leaves `simplify` work.
        let base = random_3sat(150, 3.5, 11);
        let (time, conflicts) = fastest(|| {
            let mut solver = base.to_solver();
            let mut state = 0x5EED_u64;
            let mut next = move || {
                state =
                    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 33
            };
            // An old variable's literal, from one draw.
            let old = |r: u64| Lit::new(Var::new((r % 150) as u32), r >> 20 & 1 == 1);
            for _ in 0..300 {
                let unit = solver.new_var().positive();
                // Two clauses the unit satisfies, which `simplify` removes,
                // and three that stay, each over its own fresh variable.
                solver.add_clause(&[unit, old(next()), old(next())]);
                solver.add_clause(&[unit, old(next()), old(next())]);
                for _ in 0..3 {
                    let fresh = Lit::new(solver.new_var(), next() % 2 == 0);
                    solver.add_clause(&[fresh, old(next()), old(next())]);
                }
                solver.add_clause(&[unit]);
                solver.solve(&[old(next())]);
            }
            solver.stats().conflicts
        });
        cell("incremental_units", "300x", time, "conflicts", conflicts);
    }

    let mut out = String::new();
    let _ = writeln!(out, "Layer timings: fastest of {LAYER_REPS} runs per cell\n");
    let _ = writeln!(out, "{}", table.render());
    ScenarioResult { records, rendered: out, table: Some(table) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SARLock `|K| = 3` on the majority gate, attacked at N = 1 under the
    /// extra settings of `configure`.
    fn majority_cell(
        configure: impl FnOnce(AttackSessionBuilder<'_>) -> AttackSessionBuilder<'_>,
    ) -> (Record, AttackReport) {
        let original = majority3();
        let locked =
            Sarlock::new(3).lock(&original, &Key::from_u64(0b101, 3)).expect("lockable");
        attack_cell(Record::new("test"), &original, &locked.netlist, |session| {
            configure(session.split_effort(1))
        })
    }

    #[test]
    fn a_finished_cell_is_proven() {
        let (record, report) = majority_cell(|session| session);
        assert!(report.is_complete());
        assert_eq!(record.metric_value("verified"), Some(1.0));
        assert_eq!(record.metric_value("capped"), None);
        let max_dips = report.reports.iter().map(|r| r.stats.dips).max();
        assert_eq!(record.metric_value("max_dips"), max_dips.map(|d| d as f64));
        for (name, value) in report.stats().metrics() {
            assert_eq!(record.metric_value(name), Some(value), "{name}");
        }
    }

    #[test]
    fn a_capped_cell_is_recorded_unproven() {
        let (record, report) = majority_cell(|session| session.time_budget(Duration::ZERO));
        assert_eq!(report.status(), AttackStatus::TimeLimit);
        assert_eq!(record.metric_value("capped"), Some(1.0));
        assert_eq!(record.metric_value("verified"), None);
        assert!(record.metric_value("max_dips").is_some());
    }

    #[test]
    #[should_panic(expected = "must recombine to the original")]
    fn a_cell_whose_recombination_differs_panics() {
        // The oracle computes the majority; the locked netlist hides a
        // three-input AND. The attack settles on a key that agrees with
        // every DIP it asked, but no key turns the AND into a majority, so
        // the proof fails.
        let mut and3 = Netlist::new("and3");
        let inputs: Vec<NodeId> =
            ["a", "b", "c"].into_iter().map(|n| and3.add_input(n).expect("fresh")).collect();
        let y = and3.add_gate("y", GateKind::And, &inputs).expect("fresh");
        and3.mark_output(y).expect("distinct");
        let locked = Sarlock::new(3).lock(&and3, &Key::from_u64(0b101, 3)).expect("lockable");
        attack_cell(Record::new("test"), &majority3(), &locked.netlist, |session| session);
    }
}
