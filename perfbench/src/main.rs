//! Time-to-proven-key benchmark for the `polykey` attack suite.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <one_key|multi_key|adaptive> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed fixes a pool of SARLock-locked variants of the ISCAS'85 c432
//! stand-in: each variant has its own key and its own comparator inputs.
//! The run attacks the pool round-robin on one thread for the given number
//! of seconds. One attempt is the attacker's whole pipeline: a simulated
//! oracle, the attack session, recombination of the recovered keys into a
//! keyless netlist, and a SAT proof that this netlist equals the original.
//! An attempt whose attack is incomplete, whose proof fails, or whose
//! netlist disagrees with the original on random patterns counts as
//! failed.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` puts spans
//! around each layer from outside the library — a timing oracle wrapper,
//! progress-event timestamps, and timers around recombination and the
//! proof — and reports the per-layer split instead. The last line of
//! stdout is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use polykey::attack::{AttackSession, Oracle, ProgressEvent, SimOracle};
use polykey::circuits::Iscas85;
use polykey::encode::check_equivalence;
use polykey::locking::{Key, LockScheme, Sarlock};
use polykey::netlist::{Netlist, Simulator};

/// The victim design: the ISCAS'85 c432 stand-in (36 inputs, 160 gates).
const CIRCUIT: Iscas85 = Iscas85::C432;
/// SARLock key width: the one-key SAT attack needs `2^8 - 1` DIPs.
const KEY_WIDTH: usize = 8;
/// Locked variants per run, attacked round-robin.
const POOL: usize = 8;
/// Set-ups timed at the start of each round over the pool; the median of
/// all of them is reported.
const SETUP_REPS_PER_ROUND: usize = 3;

/// One way of attacking the pool.
struct Workload {
    name: &'static str,
    /// Root splitting effort `N` (Algorithm 1 runs `2^N` terms).
    split_effort: usize,
    /// Per-term DIP budget; `Some` turns on adaptive resplitting.
    term_dip_budget: Option<u64>,
}

const WORKLOADS: [Workload; 3] = [
    // The classic one-key SAT attack: every DIP pays encode, solve and
    // one oracle query; no cofactoring, term tree or MUX recombination.
    Workload { name: "one_key", split_effort: 0, term_dip_budget: None },
    // Algorithm 1 on a static grid of 8 terms: cofactoring and
    // re-synthesis per term, then a MUX tree over the eight sub-keys.
    Workload { name: "multi_key", split_effort: 3, term_dip_budget: None },
    // The adaptive term tree: terms that exhaust their DIP budget are
    // split one port deeper and their children start again.
    Workload { name: "adaptive", split_effort: 0, term_dip_budget: Some(32) },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(found.ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64: the benchmark's own generator, so inputs depend on the
/// seed alone.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs of one run: the victim design and its locked variants.
struct Pool {
    original: Netlist,
    locked: Vec<Netlist>,
}

/// Set-up: builds the victim design and locks it `POOL` times, each time
/// with a seeded key on a seeded choice of comparator inputs.
fn build_pool(seed: u64) -> Result<Pool, String> {
    let original = CIRCUIT.build();
    let inputs = original.inputs().len();
    let mut rng = seed;
    let locked = (0..POOL)
        .map(|_| {
            let mut ports: Vec<usize> = (0..inputs).collect();
            for j in 0..KEY_WIDTH {
                let pick = j + (splitmix(&mut rng) % (inputs - j) as u64) as usize;
                ports.swap(j, pick);
            }
            ports.truncate(KEY_WIDTH);
            let key = Key::from_u64(splitmix(&mut rng), KEY_WIDTH);
            let scheme = Sarlock::new(KEY_WIDTH).with_compare_inputs(ports);
            Ok(scheme.lock(&original, &key).map_err(|e| e.to_string())?.netlist)
        })
        .collect::<Result<_, String>>()?;
    Ok(Pool { original, locked })
}

/// Passes queries to a [`SimOracle`], optionally timing each one.
struct TimedOracle<'a> {
    inner: SimOracle<'a>,
    busy: Option<Duration>,
}

impl TimedOracle<'_> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut SimOracle<'_>) -> T) -> T {
        let Some(busy) = self.busy else { return f(&mut self.inner) };
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.busy = Some(busy + start.elapsed());
        out
    }
}

impl Oracle for TimedOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&mut self, input: &[bool]) -> Vec<bool> {
        self.timed(|o| o.query(input))
    }

    fn query_batch(&mut self, inputs: &[Vec<bool>]) -> Vec<Vec<bool>> {
        self.timed(|o| o.query_batch(inputs))
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

/// A progress event the per-layer split needs, with its arrival time.
enum Mark {
    Started { gates: usize },
    Finished,
    Split { dips: u64 },
}

/// A reported metric: name, unit and value.
type Metric = (&'static str, &'static str, f64);

/// The outcome of one proven attempt.
struct Sample {
    /// Oracle construction through the equivalence proof.
    latency: Duration,
    /// The longest term: the attack's latency given one core per term.
    slowest_term: Duration,
    oracle_queries: u64,
    /// Per-layer values (trace only).
    layers: Vec<Metric>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the attacker's pipeline on one locked variant and proves its
/// result.
fn attempt(
    original: &Netlist,
    locked: &Netlist,
    workload: &Workload,
    trace: bool,
    check_seed: u64,
) -> Result<Sample, String> {
    let start = Instant::now();
    let inner = SimOracle::new(original).map_err(|e| e.to_string())?;
    let mut oracle = TimedOracle { inner, busy: trace.then_some(Duration::ZERO) };
    let marks: Mutex<Vec<(Instant, Mark)>> = Mutex::new(Vec::new());
    let mut builder = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(workload.split_effort)
        .threads(1)
        .record_dips(false);
    if let Some(budget) = workload.term_dip_budget {
        builder = builder.term_dip_budget(budget);
    }
    if trace {
        builder = builder.on_progress(|event| {
            let mark = match *event {
                ProgressEvent::TermStarted { gates, .. } => Mark::Started { gates },
                ProgressEvent::TermFinished { .. } => Mark::Finished,
                ProgressEvent::TermSplit { dips, .. } => Mark::Split { dips },
                _ => return,
            };
            marks.lock().expect("progress marks lock").push((Instant::now(), mark));
        });
    }
    let run_start = Instant::now();
    let report =
        builder.build().map_err(|e| e.to_string())?.run(locked).map_err(|e| e.to_string())?;
    let run_end = Instant::now();
    if !report.is_complete() {
        return Err(format!("attack incomplete: {:?}", report.status()));
    }
    let unlocked = report.recombine(locked).map_err(|e| e.to_string())?;
    let recombined = Instant::now();
    let verdict = check_equivalence(original, &unlocked).map_err(|e| e.to_string())?;
    let end = Instant::now();

    if !verdict.is_equivalent() {
        return Err("recombined netlist is not equivalent to the original".into());
    }
    agree_on_random_patterns(original, &unlocked, check_seed)?;
    let stats = report.stats();
    if oracle.queries() != stats.oracle_queries {
        return Err(format!(
            "oracle served {} queries but the report counts {}",
            oracle.queries(),
            stats.oracle_queries
        ));
    }

    let mut layers = Vec::new();
    if trace {
        let mut in_terms = Duration::ZERO;
        let mut open = None;
        let (mut terms, mut term_gates, mut wasted_dips) = (0usize, 0usize, 0u64);
        for (at, mark) in marks.into_inner().expect("progress marks lock") {
            match mark {
                Mark::Started { gates } => {
                    open = Some(at);
                    terms += 1;
                    term_gates += gates;
                }
                Mark::Finished => in_terms += open.take().map_or(Duration::ZERO, |s| at - s),
                Mark::Split { dips } => wasted_dips += dips,
            }
        }
        let attack = run_end - run_start;
        let oracle_busy = oracle.busy.unwrap_or_default();
        let solver = stats.solver;
        let wasted_share =
            if stats.dips == 0 { 0.0 } else { wasted_dips as f64 / stats.dips as f64 };
        layers = vec![
            ("attack_ms", "ms", ms(attack)),
            // Split-port ranking, cofactoring, re-synthesis and scheduling:
            // everything in the session outside the terms' DIP loops.
            ("split_ms", "ms", ms(attack.saturating_sub(in_terms))),
            // The DIP loops' own time: miter and constraint encoding plus
            // solving, without the oracle.
            ("sat_ms", "ms", ms(in_terms.saturating_sub(oracle_busy))),
            ("oracle_ms", "ms", ms(oracle_busy)),
            ("recombine_ms", "ms", ms(recombined - run_end)),
            ("verify_ms", "ms", ms(end - recombined)),
            ("dips", "count", stats.dips as f64),
            ("oracle_rounds", "count", stats.oracle_rounds as f64),
            ("conflicts", "count", solver.conflicts as f64),
            ("decisions", "count", solver.decisions as f64),
            ("propagations", "count", solver.propagations as f64),
            ("solves", "count", solver.solves as f64),
            ("terms", "count", terms as f64),
            // DIPs of terms that converged, over all DIPs: resplit terms
            // throw their DIPs away.
            ("useful_dip_share", "ratio", 1.0 - wasted_share),
            ("term_gates", "count", term_gates as f64 / terms.max(1) as f64),
            ("recombined_gates", "count", unlocked.num_gates() as f64),
        ];
    }
    Ok(Sample {
        latency: end - start,
        slowest_term: stats.max_subtask_time(),
        oracle_queries: stats.oracle_queries,
        layers,
    })
}

/// Checks the proof's verdict independently: 64 random patterns, one
/// packed simulation pass per netlist.
fn agree_on_random_patterns(a: &Netlist, b: &Netlist, seed: u64) -> Result<(), String> {
    let mut rng = seed;
    let words: Vec<u64> = a.inputs().iter().map(|_| splitmix(&mut rng)).collect();
    let eval = |nl: &Netlist| -> Result<Vec<u64>, String> {
        Ok(Simulator::new(nl).map_err(|e| e.to_string())?.eval_packed(&words, &[]))
    };
    if eval(a)? == eval(b)? {
        Ok(())
    } else {
        Err("recombined netlist disagrees with the original on random patterns".into())
    }
}

/// Median of a non-empty list (mean of the middle pair for even lengths).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// End-to-end metrics. On a shared machine other tenants only ever add
/// time, and they come and go over seconds, so each locked variant
/// contributes its fastest attempt of the run and the report takes the
/// median over the variants.
fn end_to_end(samples: &[Vec<Sample>], setup_times: Vec<f64>) -> Vec<Metric> {
    let best = |f: fn(&Sample) -> f64| {
        median(
            samples
                .iter()
                .filter(|runs| !runs.is_empty())
                .map(|runs| runs.iter().map(f).fold(f64::INFINITY, f64::min))
                .collect(),
        )
    };
    vec![
        ("proven_key_ms", "ms", best(|s| ms(s.latency))),
        ("slowest_term_ms", "ms", best(|s| ms(s.slowest_term))),
        // Deterministic per variant (one thread), so the fastest attempt's
        // count is every attempt's count.
        ("oracle_queries", "count", best(|s| s.oracle_queries as f64)),
        ("setup_s", "s", median(setup_times)),
    ]
}

/// Per-layer metrics: means per proven key over every timed attempt, so
/// the layer times add up to the attempt's time.
fn layer_means(samples: &[Vec<Sample>]) -> Vec<Metric> {
    let all: Vec<&Sample> = samples.iter().flatten().collect();
    (0..all[0].layers.len())
        .map(|i| {
            let (name, unit, _) = all[0].layers[i];
            (name, unit, all.iter().map(|s| s.layers[i].2).sum::<f64>() / all.len() as f64)
        })
        .collect()
}

/// Times one set-up of the run's inputs.
fn timed_setup(seed: u64) -> Result<(Pool, f64), String> {
    let start = Instant::now();
    let pool = black_box(build_pool(black_box(seed))?);
    Ok((pool, start.elapsed().as_secs_f64()))
}

fn run(args: &Args) -> Result<String, String> {
    let (pool, first_setup) = timed_setup(args.seed)?;
    let mut setup_times = vec![first_setup];

    let mut check_rng = args.seed ^ 0x5EED_CAFE;
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut samples: Vec<Vec<Sample>> = pool.locked.iter().map(|_| Vec::new()).collect();
    // The first attempt warms caches and the allocator; it is checked but
    // not timed.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let warm_up = attempted == 0;
        if !warm_up && Instant::now() >= deadline {
            break;
        }
        let index = attempted % pool.locked.len();
        if index == 0 {
            // Set-up is repeated at the start of every round, not only
            // before the first: a shared machine's speed drifts over
            // seconds, and a burst of back-to-back set-ups would sample
            // one moment.
            for _ in 0..SETUP_REPS_PER_ROUND {
                setup_times.push(timed_setup(args.seed)?.1);
            }
        }
        attempted += 1;
        let check_seed = splitmix(&mut check_rng);
        match attempt(
            &pool.original,
            &pool.locked[index],
            args.workload,
            args.trace,
            check_seed,
        ) {
            Ok(sample) if !warm_up => samples[index].push(sample),
            Ok(_) => {}
            Err(e) => {
                eprintln!("perfbench: attempt {attempted} failed: {e}");
                failed += 1;
            }
        }
    }

    let timed: usize = samples.iter().map(Vec::len).sum();
    let metrics = match (timed, args.trace) {
        (0, _) => Vec::new(),
        (_, true) => layer_means(&samples),
        (_, false) => end_to_end(&samples, setup_times),
    };
    eprintln!(
        "perfbench: workload {} seed {}: {timed} timed attempts, {failed} failed",
        args.workload.name, args.seed
    );
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<18} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = failed == 0 && timed > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn main() {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
