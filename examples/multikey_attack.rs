//! The paper's full pipeline on a SAT-attack-resistant scheme:
//! SARLock-locked c432, multi-key attack (Algorithm 1) with live progress
//! events, MUX recombination (Fig. 1b), and formal equivalence of the
//! recombined design.
//!
//! ```text
//! cargo run --release --example multikey_attack
//! ```

use polykey::attack::{
    verify_key, verify_key_on_subspace, AttackSession, ProgressEvent, SimOracle,
};
use polykey::circuits::Iscas85;
use polykey::encode::{check_equivalence, EquivResult};
use polykey::locking::{Key, LockScheme, Sarlock};
use polykey::netlist::simplify;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let original = Iscas85::C432.build();
    println!("victim design: {original}");

    // SARLock with an 8-bit key: the classic SAT attack needs ~2^8 DIPs.
    let key_width = 8;
    let correct = Key::from_u64(0b1011_0010, key_width);
    let locked = Sarlock::new(key_width).lock(&original, &correct)?;
    println!("locked with SARLock |K| = {key_width}, correct key {correct}");

    // Baseline for comparison: the conventional one-key SAT attack.
    let mut oracle = SimOracle::new(&original)?;
    let baseline =
        AttackSession::builder().oracle(&mut oracle).build()?.run(&locked.netlist)?;
    let baseline_stats = baseline.stats();
    println!(
        "\nbaseline SAT attack : {} DIPs in {:?}",
        baseline_stats.dips, baseline_stats.wall_time
    );

    // Algorithm 1 with N = 3: eight parallel sub-attacks, each on a
    // cofactored + re-synthesized netlist, streaming progress events.
    // `dip_batch(64)` makes every sub-attack harvest up to 64 DIPs per
    // epoch and answer them in one packed oracle pass.
    let mut oracle = SimOracle::new(&original)?;
    let report = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(3)
        .dip_batch(64)
        .on_progress(|event| {
            if let ProgressEvent::TermFinished { pattern, dips, wall_time, .. } = event {
                eprintln!("  [progress] term {pattern:03b} done: {dips} DIPs in {wall_time:?}");
            }
        })
        .build()?
        .run(&locked.netlist)?;
    assert!(report.is_complete());
    println!("\nmulti-key attack (N = 3, {} terms):", report.reports.len());
    let split_names: Vec<&str> =
        report.split_inputs.iter().map(|&id| locked.netlist.node_name(id)).collect();
    println!("  split ports (fan-out cone analysis): {split_names:?}");
    for term in &report.reports {
        println!(
            "  term {:03b}: {} DIPs, {} gates (from {}), {:?}",
            term.pattern,
            term.stats.dips,
            term.gates_after,
            term.gates_before,
            term.stats.wall_time
        );
    }
    println!(
        "  max term time {:?} vs baseline {:?}",
        report.stats().max_subtask_time(),
        baseline_stats.wall_time
    );
    println!(
        "  oracle traffic: {} DIPs answered in {} round-trips (baseline: {} in {})",
        report.stats().oracle_queries,
        report.stats().oracle_rounds,
        baseline_stats.oracle_queries,
        baseline_stats.oracle_rounds
    );

    // Most sub-keys are globally *incorrect* — but each unlocks its
    // sub-space. Verify both facts formally.
    let positions: Vec<usize> = report
        .split_inputs
        .iter()
        .map(|id| locked.netlist.inputs().iter().position(|p| p == id).expect("input"))
        .collect();
    let mut globally_wrong = 0;
    for sub in &report.keys {
        let forced: Vec<(usize, bool)> = positions
            .iter()
            .enumerate()
            .map(|(j, &pos)| (pos, sub.pattern >> j & 1 == 1))
            .collect();
        assert!(
            verify_key_on_subspace(&original, &locked.netlist, &sub.key, &forced)?,
            "every sub-key must unlock its own sub-space"
        );
        if !verify_key(&original, &locked.netlist, &sub.key)? {
            globally_wrong += 1;
        }
    }
    println!(
        "\nsub-keys: {} of {} are globally incorrect, yet all unlock their sub-space",
        globally_wrong,
        report.keys.len()
    );

    // Fig. 1(b): recombine with a MUX tree and prove global equivalence.
    let recombined = report.recombine(&locked.netlist)?;
    let (recombined, stats) = simplify(&recombined)?;
    println!(
        "\nrecombined keyless design: {} gates (after re-synthesis, was {})",
        stats.gates_after, stats.gates_before
    );
    assert_eq!(check_equivalence(&original, &recombined)?, EquivResult::Equivalent);
    println!("formal check: recombined design ≡ original   [the one-key premise is broken]");

    // Adaptive splitting: instead of fixing N, give every term a DIP
    // budget. A term that exhausts it is subdivided one port at a time
    // into a prefix tree, so the splitting effort lands exactly where the
    // hardness is (for SARLock on its comparator ports: uniformly, until
    // each leaf fits its budget).
    let mut oracle = SimOracle::new(&original)?;
    let adaptive = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(1)
        .term_dip_budget(24)
        .dip_batch(64)
        .build()?
        .run(&locked.netlist)?;
    assert!(adaptive.is_complete());
    println!(
        "\nadaptive attack (root N = 1, budget 24 DIPs/term): {} leaves at depth {}, \
         {} resplits, max leaf {} DIPs",
        adaptive.reports.len(),
        adaptive.max_depth(),
        adaptive.resplit_reports.len(),
        adaptive.reports.iter().map(|r| r.stats.dips).max().unwrap_or(0)
    );
    let recombined_tree = adaptive.recombine(&locked.netlist)?;
    assert_eq!(check_equivalence(&original, &recombined_tree)?, EquivResult::Equivalent);
    println!("formal check: the adaptive prefix tree recombines to the original, too");
    Ok(())
}
