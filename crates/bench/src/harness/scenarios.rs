//! The registered scenario implementations.
//!
//! Each function is one evaluation, returning a structured
//! [`ScenarioResult`] (records + rendered text) instead of printing: the
//! `bench` bin prints `rendered` and persists `records` as `BENCH_*.json`
//! telemetry. Progress chatter goes to stderr, so long runs stay
//! observable.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use polykey_attack::{
    AttackReport, AttackSession, AttackStats, AttackStatus, SimOracle, SplitStrategy,
};
use polykey_circuits::Iscas85;
use polykey_encode::{build_miter, check_equivalence, EquivResult};
use polykey_locking::{
    lock_sarlock_on_signals, AntiSat, Key, LockScheme, LutLock, Rll, Sarlock,
};
use polykey_netlist::analysis::levels;
use polykey_netlist::{bits_of, GateKind, Netlist, NodeId, Simulator};
use polykey_sat::Solver;
use rand::SeedableRng;

use super::{ms, Record, ScenarioCtx, ScenarioResult};
use crate::{fmt_duration, TextTable};

/// The scheme roster the sweeps share (matrix, batch, encode).
fn scheme_roster(seed: u64) -> Vec<Box<dyn LockScheme>> {
    vec![
        Box::new(Rll::new(8).with_seed(seed)),
        Box::new(Sarlock::new(6)),
        Box::new(AntiSat::new(4)),
        Box::new(LutLock::small().with_seed(seed)),
    ]
}

/// The largest per-term `#DIP` of a run — the quantity of the paper's
/// Table 1.
fn max_term_dips(report: &AttackReport) -> u64 {
    report.reports.iter().map(|r| r.stats.dips).max().unwrap_or(0)
}

/// The minimum, mean and maximum per-term wall time of a run.
fn term_times(stats: &AttackStats) -> (Duration, Duration, Duration) {
    let times = &stats.subtask_wall_times;
    let min = times.iter().min().copied().unwrap_or_default();
    let mean = times.iter().sum::<Duration>() / times.len().max(1) as u32;
    (min, mean, stats.max_subtask_time())
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
    let circuits: Vec<Iscas85> = if ctx.quick {
        vec![Iscas85::C432]
    } else if ctx.full {
        vec![Iscas85::C432, Iscas85::C880, Iscas85::C1908]
    } else {
        vec![Iscas85::C432, Iscas85::C880]
    };
    let max_effort = if ctx.full { 3 } else { 2 };
    let time_cap = Duration::from_secs(ctx.time_cap.unwrap_or(300));
    let schemes = scheme_roster(seed);

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(
        out,
        "Attack matrix: {} schemes x N = 0..={max_effort} x {} circuits (cap {} per attack)",
        schemes.len(),
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

    for circuit in &circuits {
        let original = circuit.build();
        for scheme in &schemes {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let locked = match scheme.lock_random(&original, &mut rng) {
                Ok(locked) => locked,
                Err(e) => {
                    eprintln!("{circuit}/{}: cannot lock ({e})", scheme.name());
                    continue;
                }
            };
            let mut row = vec![format!("{}/{}", circuit.name(), scheme.name())];
            for n in 0..=max_effort {
                let mut oracle = SimOracle::new(&original).expect("keyless oracle");
                let report = AttackSession::builder()
                    .oracle(&mut oracle)
                    .split_effort(n)
                    .record_dips(false)
                    .time_budget(time_cap)
                    .build()
                    .expect("oracle provided")
                    .run(&locked.netlist)
                    .expect("attack runs");
                if !report.is_complete() {
                    row.push(format!("{:?}", report.status()));
                    continue;
                }
                let max_dips = max_term_dips(&report);
                // The executable correctness check: recombined sub-keys
                // restore the original function, for every scheme.
                let recombined = report.recombine(&locked.netlist).expect("recombine");
                let verified = check_equivalence(&original, &recombined).expect("equiv")
                    == EquivResult::Equivalent;
                assert!(verified, "{}/{} N={n} must recombine", circuit.name(), scheme.name());
                records.push(
                    Record::new("matrix")
                        .label("circuit", circuit.name())
                        .label("scheme", scheme.name())
                        .label("n", n)
                        .attack_metrics(&report.stats())
                        .metric("max_dips", max_dips as f64)
                        .metric("verified", 1.0),
                );
                row.push(format!(
                    "{max_dips} / {}{}",
                    fmt_duration(report.stats().max_subtask_time()),
                    if verified { " *" } else { "" }
                ));
            }
            table.row(row);
            eprintln!("{}/{} done", circuit.name(), scheme.name());
        }
    }

    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "SARLock #DIP halves per splitting level; RLL and Anti-SAT are");
    let _ = writeln!(out, "cheap everywhere; LUT cost sits in the miter size, which the");
    let _ = writeln!(out, "cofactored terms shrink. One harness, every scheme.");
    ScenarioResult { records, rendered: out, table: Some(table) }
}

const BATCH_WIDTHS: [usize; 4] = [1, 8, 32, 64];

/// The batched-DIP sweep (`batch`): oracle rounds vs oracle
/// queries for batch widths 1/8/32/64.
pub fn batch(ctx: &ScenarioCtx) -> ScenarioResult {
    let seed = ctx.seed.unwrap_or(0xBA7C);
    let circuits: Vec<Iscas85> = if ctx.quick {
        vec![Iscas85::C432]
    } else if ctx.full {
        vec![Iscas85::C432, Iscas85::C880, Iscas85::C1908]
    } else {
        vec![Iscas85::C432, Iscas85::C880]
    };
    // SARLock is the interesting row: ~2^|K| DIPs, so batching collapses
    // dozens of round-trips per attack. RLL/Anti-SAT/LUT converge in a
    // handful of DIPs and bound the overhead side of the trade.
    let schemes = scheme_roster(seed);

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(
        out,
        "Batched-DIP sweep: {} schemes x batch widths {BATCH_WIDTHS:?} x {} circuits",
        schemes.len(),
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

    for circuit in &circuits {
        let original = circuit.build();
        for scheme in &schemes {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let locked = match scheme.lock_random(&original, &mut rng) {
                Ok(locked) => locked,
                Err(e) => {
                    eprintln!("{circuit}/{}: cannot lock ({e})", scheme.name());
                    continue;
                }
            };
            let mut row = vec![format!("{}/{}", circuit.name(), scheme.name())];
            let mut sequential_key = None;
            for k in BATCH_WIDTHS {
                let mut oracle = SimOracle::new(&original).expect("keyless oracle");
                let report = AttackSession::builder()
                    .oracle(&mut oracle)
                    .dip_batch(k)
                    .record_dips(false)
                    .build()
                    .expect("oracle provided")
                    .run(&locked.netlist)
                    .expect("attack runs");
                assert!(
                    report.is_complete(),
                    "{}/{} k={k} must succeed",
                    circuit.name(),
                    scheme.name()
                );
                let stats = report.stats();
                // Correctness first: the recombined design must be exactly
                // the original function at every batch width.
                let recombined = report.recombine(&locked.netlist).expect("recombine");
                assert_eq!(
                    check_equivalence(&original, &recombined).expect("equiv"),
                    EquivResult::Equivalent,
                    "{}/{} k={k} must recombine to the original",
                    circuit.name(),
                    scheme.name()
                );
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
                    best_speedup =
                        (speedup, format!("{}/{} at k={k}", circuit.name(), scheme.name()));
                }
                records.push(
                    Record::new("batch")
                        .label("circuit", circuit.name())
                        .label("scheme", scheme.name())
                        .label("k", k)
                        .attack_metrics(&stats)
                        .metric("speedup", speedup),
                );
                row.push(format!(
                    "{}/{} ({speedup:.1}x){key_mark} {}",
                    stats.oracle_rounds,
                    stats.oracle_queries,
                    fmt_duration(stats.wall_time)
                ));
            }
            table.row(row);
            eprintln!("{}/{} done", circuit.name(), scheme.name());
        }
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
/// SARLock-locked c7552.
pub fn table1(ctx: &ScenarioCtx) -> ScenarioResult {
    let key_sizes: Vec<usize> = if ctx.quick { vec![4, 8] } else { vec![4, 8, 12] };
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
            let mut oracle = SimOracle::new(&c7552).expect("keyless oracle");
            let report = AttackSession::builder()
                .oracle(&mut oracle)
                .split_effort(n)
                .strategy(SplitStrategy::FanoutCone)
                .build()
                .expect("oracle provided")
                .run(&locked.netlist)
                .expect("attack runs");
            assert!(report.is_complete(), "|K|={kw} N={n} must succeed");
            let max_dips = max_term_dips(&report);
            let min_dips = report.reports.iter().map(|r| r.stats.dips).min().unwrap_or(0);
            let terms = report.reports.len();
            if max_dips != min_dips {
                spread_note.push(format!(
                    "|K|={kw} N={n}: per-term #DIP ranges {min_dips}..{max_dips}"
                ));
            }
            records.push(
                Record::new("table1")
                    .label("kw", kw)
                    .label("n", n)
                    .attack_metrics(&report.stats())
                    .metric("max_dips", max_dips as f64)
                    .metric("min_dips", min_dips as f64)
                    .metric("terms", terms as f64),
            );
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
pub fn table2(ctx: &ScenarioCtx) -> ScenarioResult {
    let base_scheme = if ctx.full { LutLock::paper() } else { LutLock::small() };
    let circuits: Vec<Iscas85> = if ctx.quick {
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

        // Baseline: the conventional SAT attack on the whole circuit, in
        // the textbook formulation (full circuit copies per DIP) that the
        // paper's tooling uses; dropping `.textbook(true)` would measure
        // the optimized folded engine instead.
        let mut oracle = SimOracle::new(&original).expect("keyless oracle");
        let baseline = AttackSession::builder()
            .oracle(&mut oracle)
            .textbook(true)
            .time_budget(time_cap)
            .record_dips(false)
            .build()
            .expect("oracle provided")
            .run(&locked.netlist)
            .expect("attack runs");
        let baseline_capped = baseline.status() == AttackStatus::TimeLimit;
        let baseline_time = baseline.stats().wall_time;
        records.push(
            Record::new("table2")
                .label("circuit", bench.name())
                .label("variant", "baseline")
                .attack_metrics(&baseline.stats())
                .metric("capped", u64::from(baseline_capped) as f64),
        );
        eprintln!(
            "  baseline: {} ({} DIPs, status {:?})",
            fmt_duration(baseline_time),
            baseline.stats().dips,
            baseline.status()
        );

        // This work: N = 4, 16 parallel terms.
        let mut oracle = SimOracle::new(&original).expect("keyless oracle");
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(4)
            .strategy(SplitStrategy::FanoutCone)
            .textbook(true)
            .time_budget(time_cap)
            .record_dips(false)
            .build()
            .expect("oracle provided")
            .run(&locked.netlist)
            .expect("attack runs");
        let any_capped = report.reports.iter().any(|r| r.status == AttackStatus::TimeLimit);
        let (min, mean, max) = term_times(&report.stats());
        let max_term_dips = max_term_dips(&report);
        let min_gates = report.reports.iter().map(|r| r.gates_after).min().unwrap_or(0);
        eprintln!(
            "  this work: min {} mean {} max {} over {} terms (max {} DIPs, term gates >= {}){}",
            fmt_duration(min),
            fmt_duration(mean),
            fmt_duration(max),
            report.reports.len(),
            max_term_dips,
            min_gates,
            if any_capped { " (some terms hit the cap)" } else { "" }
        );

        let ratio = max.as_secs_f64() / baseline_time.as_secs_f64().max(1e-9);
        records.push(
            Record::new("table2")
                .label("circuit", bench.name())
                .label("variant", "multikey_n4")
                .attack_metrics(&report.stats())
                .metric("min_term_ms", ms(min))
                .metric("mean_term_ms", ms(mean))
                .metric("max_over_baseline", ratio)
                .metric("capped", u64::from(any_capped) as f64),
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
    ScenarioResult { records, rendered: out, table: Some(table) }
}

/// The diagnostic probe (`probe`): baseline vs per-term cost
/// across LUT sizes and simplification settings on one circuit.
pub fn probe(ctx: &ScenarioCtx) -> ScenarioResult {
    let seed = ctx.seed.unwrap_or(0x7AB1E2);
    let cap = Duration::from_secs(ctx.time_cap.unwrap_or(180));
    let circuit = if ctx.full { Iscas85::C6288 } else { Iscas85::C880 };
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
        let mut oracle = SimOracle::new(&original).expect("oracle");
        let baseline = AttackSession::builder()
            .oracle(&mut oracle)
            .record_dips(false)
            .time_budget(cap)
            .build()
            .expect("oracle provided")
            .run(&locked.netlist)
            .expect("runs");
        let stats = baseline.stats();
        records.push(
            Record::new("probe")
                .label("circuit", circuit.name())
                .label("keys", keys)
                .label("variant", "baseline")
                .attack_metrics(&stats),
        );
        let _ = writeln!(
            out,
            "{} on {}: baseline {} ({} DIPs, {:?}, {} conflicts)",
            label,
            circuit,
            fmt_duration(stats.wall_time),
            stats.dips,
            baseline.status(),
            stats.solver.conflicts
        );
        for simplify in [true, false] {
            let mut oracle = SimOracle::new(&original).expect("oracle");
            let report = AttackSession::builder()
                .oracle(&mut oracle)
                .split_effort(4)
                .strategy(SplitStrategy::FanoutCone)
                .simplify(simplify)
                .record_dips(false)
                .time_budget(cap)
                .build()
                .expect("oracle provided")
                .run(&locked.netlist)
                .expect("runs");
            let max_dips = max_term_dips(&report);
            let gates: Vec<usize> = report.reports.iter().map(|r| r.gates_after).collect();
            let (min, mean, max) = term_times(&report.stats());
            records.push(
                Record::new("probe")
                    .label("circuit", circuit.name())
                    .label("keys", keys)
                    .label("variant", if simplify { "n4_resynth" } else { "n4_pinned" })
                    .attack_metrics(&report.stats())
                    .metric("max_dips", max_dips as f64)
                    .metric("min_gates", *gates.iter().min().expect("terms") as f64)
                    .metric("max_gates", *gates.iter().max().expect("terms") as f64),
            );
            let _ = writeln!(
                out,
                "  N=4 simplify={simplify}: min {} mean {} max {} (max {} DIPs, gates {}..{}, complete={})",
                fmt_duration(min),
                fmt_duration(mean),
                fmt_duration(max),
                max_dips,
                gates.iter().min().expect("terms"),
                gates.iter().max().expect("terms"),
                report.is_complete(),
            );
        }
    }
    ScenarioResult { records, rendered: out, table: None }
}

/// Picks `n` deep internal nets, spread across the circuit (the
/// `defense_probe` comparator placement).
fn deep_signals(nl: &Netlist, n: usize) -> Vec<NodeId> {
    let lv = levels(nl).expect("acyclic");
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
    let circuit = if ctx.full { Iscas85::C7552 } else { Iscas85::C880 };
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
            let mut oracle = SimOracle::new(&original).expect("oracle");
            let report = AttackSession::builder()
                .oracle(&mut oracle)
                .split_effort(n)
                .strategy(SplitStrategy::FanoutCone)
                .record_dips(false)
                .build()
                .expect("oracle provided")
                .run(locked)
                .expect("runs");
            assert!(report.is_complete(), "{label} N={n}");
            let max_dips = max_term_dips(&report);
            records.push(
                Record::new("defense_probe")
                    .label("circuit", circuit.name())
                    .label("variant", variant)
                    .label("n", n)
                    .attack_metrics(&report.stats())
                    .metric("max_dips", max_dips as f64),
            );
            row.push(format!("{max_dips}"));
            last_time = fmt_duration(report.stats().max_subtask_time());
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
    let kw = if ctx.full { 10 } else { 8 };
    let seed = ctx.seed.unwrap_or(0x5EED);

    // SARLock compares on inputs *after* the first few declared ones so
    // that FirstInputs genuinely misses them.
    let circuit = if ctx.quick { Iscas85::C880 } else { Iscas85::C7552 };
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
        let mut oracle = SimOracle::new(&original).expect("oracle");
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(3)
            .strategy(strategy)
            .record_dips(false)
            .build()
            .expect("oracle provided")
            .run(&locked.netlist)
            .expect("attack runs");
        assert!(report.is_complete());
        let max_dips = max_term_dips(&report);
        records.push(
            Record::new("ablation_split")
                .label("circuit", circuit.name())
                .label("strategy", tag)
                .attack_metrics(&report.stats())
                .metric("max_dips", max_dips as f64),
        );
        table.row(vec![
            name.to_string(),
            format!("{max_dips}"),
            fmt_duration(report.stats().max_subtask_time()),
        ]);
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

/// The re-synthesis ablation (`ablation_simplify`):
/// Algorithm 1 line 4 on vs off, on a LUT-locked circuit.
pub fn ablation_simplify(ctx: &ScenarioCtx) -> ScenarioResult {
    let circuit = if ctx.quick { Iscas85::C880 } else { Iscas85::C1908 };
    let scheme = if ctx.full { LutLock::paper() } else { LutLock::small() };
    let seed = ctx.seed.unwrap_or(0xAB1A7E);
    let scheme = scheme.with_seed(seed);

    let original = circuit.build();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let locked = scheme.lock_random(&original, &mut rng).expect("lockable");

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(
        out,
        "Re-synthesis ablation: LUT({} keys) on {}, N = 4, 16 parallel terms\n",
        scheme.key_bits(),
        circuit
    );

    let mut table = TextTable::new(vec![
        "variant",
        "term gates (min..max)",
        "max term time",
        "mean term time",
    ]);
    for (name, tag, simplify) in [
        ("with re-synthesis (paper)", "resynth", true),
        ("without (pinned only)", "pinned", false),
    ] {
        let mut builder = AttackSession::builder()
            .split_effort(4)
            .strategy(SplitStrategy::FanoutCone)
            .simplify(simplify)
            .record_dips(false);
        if let Some(cap) = ctx.time_cap {
            builder = builder.time_budget(Duration::from_secs(cap));
        }
        let mut oracle = SimOracle::new(&original).expect("oracle");
        let report = builder
            .oracle(&mut oracle)
            .build()
            .expect("oracle provided")
            .run(&locked.netlist)
            .expect("attack runs");
        assert!(report.is_complete());
        let min_g = report.reports.iter().map(|r| r.gates_after).min().unwrap_or(0);
        let max_g = report.reports.iter().map(|r| r.gates_after).max().unwrap_or(0);
        let (_, mean, max) = term_times(&report.stats());
        records.push(
            Record::new("ablation_simplify")
                .label("circuit", circuit.name())
                .label("variant", tag)
                .attack_metrics(&report.stats())
                .metric("min_gates", min_g as f64)
                .metric("max_gates", max_g as f64)
                .metric("mean_term_ms", ms(mean)),
        );
        table.row(vec![
            name.to_string(),
            format!("{min_g}..{max_g}"),
            fmt_duration(max),
            fmt_duration(mean),
        ]);
        eprintln!("  {name}: done in {}", fmt_duration(report.stats().wall_time));
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "locked design has {} gates; pinning alone keeps them all, while",
        locked.netlist.num_gates()
    );
    let _ = writeln!(out, "re-synthesis folds the pinned logic away before the SAT attack.");
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
    let circuits: Vec<Iscas85> =
        if ctx.quick { vec![Iscas85::C432] } else { vec![Iscas85::C432, Iscas85::C880] };
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
            let mut oracle = SimOracle::new(&original).expect("keyless oracle");
            let mut builder = AttackSession::builder()
                .oracle(&mut oracle)
                .split_effort(root_n)
                // Sequential execution keeps the resplit order — and with
                // it every counter — deterministic for the regression gate.
                .threads(1)
                .record_dips(false);
            if let Some(b) = budget {
                builder = builder.term_dip_budget(b);
            }
            let report = builder
                .build()
                .expect("oracle provided")
                .run(&locked.netlist)
                .expect("attack runs");
            assert!(report.is_complete(), "{}/{mode} must succeed", circuit.name());
            let (leaves, depth, resplits) =
                (report.reports.len(), report.max_depth(), report.resplit_reports.len());
            if budget.is_some() {
                assert!(
                    depth > root_n,
                    "{}/{mode}: the budget must subdivide at least one term",
                    circuit.name()
                );
            }
            let recombined = report.recombine(&locked.netlist).expect("recombine");
            let verified = check_equivalence(&original, &recombined).expect("equiv")
                == EquivResult::Equivalent;
            assert!(verified, "{}/{mode} must recombine", circuit.name());
            let stats = report.stats();
            records.push(
                Record::new("adaptive")
                    .label("circuit", circuit.name())
                    .label("mode", mode)
                    .attack_metrics(&stats)
                    .metric("leaves", leaves as f64)
                    .metric("max_depth", depth as f64)
                    .metric("resplits", resplits as f64)
                    .metric("verified", 1.0),
            );
            table.row(vec![
                format!("{}/{mode}", circuit.name()),
                format!("{}", stats.dips),
                format!("{leaves}"),
                format!("{depth}"),
                format!("{resplits}"),
                fmt_duration(stats.wall_time),
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
    let circuits: Vec<Iscas85> = if ctx.quick {
        vec![Iscas85::C432, Iscas85::C880]
    } else if ctx.full {
        Iscas85::all().to_vec()
    } else {
        vec![Iscas85::C432, Iscas85::C880, Iscas85::C1908]
    };
    let schemes = scheme_roster(seed);

    let mut out = String::new();
    let mut records = Vec::new();
    let _ = writeln!(
        out,
        "Miter encoding cost: {} schemes x {} circuits (Tseitin CNF of two locked copies)",
        schemes.len(),
        circuits.len()
    );
    let _ = writeln!(out, "cells: CNF vars / clauses (encode time)\n");

    let mut table =
        TextTable::new(vec!["circuit / scheme", "key bits", "vars", "clauses", "time"]);
    for circuit in &circuits {
        let original = circuit.build();
        for scheme in &schemes {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let locked = match scheme.lock_random(&original, &mut rng) {
                Ok(locked) => locked,
                Err(e) => {
                    eprintln!("{circuit}/{}: cannot lock ({e})", scheme.name());
                    continue;
                }
            };
            let started = Instant::now();
            let mut solver = Solver::new();
            build_miter(&mut solver, &locked.netlist, &locked.netlist).expect("acyclic");
            let elapsed = started.elapsed();
            records.push(
                Record::new("encode")
                    .label("circuit", circuit.name())
                    .label("scheme", scheme.name())
                    .metric("encode_ms", ms(elapsed))
                    .metric("cnf_vars", solver.num_vars() as f64)
                    .metric("cnf_clauses", solver.num_clauses() as f64)
                    .metric("key_bits", locked.key.len() as f64)
                    .metric("locked_gates", locked.netlist.num_gates() as f64),
            );
            table.row(vec![
                format!("{}/{}", circuit.name(), scheme.name()),
                format!("{}", locked.key.len()),
                format!("{}", solver.num_vars()),
                format!("{}", solver.num_clauses()),
                fmt_duration(elapsed),
            ]);
        }
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "the miter dominates each attack's base CNF; per-DIP copies then");
    let _ = writeln!(out, "grow it (folded copies add only the key cones).");
    ScenarioResult { records, rendered: out, table: Some(table) }
}
