//! LUT-based insertion (the Table 2 workload): lock a real arithmetic
//! circuit with a two-stage LUT module, then compare the baseline SAT
//! attack against the parallel multi-key attack.
//!
//! ```text
//! cargo run --release --example lut_locking
//! ```

use polykey::attack::{AttackSession, SimOracle};
use polykey::circuits::arith::multiplier;
use polykey::encode::{check_equivalence, EquivResult};
use polykey::locking::{LockScheme, LutLock};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8×8 array multiplier (a small sibling of ISCAS c6288).
    let original = multiplier(8);
    println!("victim design: {original}");

    // Two-stage LUT module: 2 × 3-input stage-1 LUTs + 3-input stage-2
    // LUT = 24 key bits over 7 tapped nets (a scaled-down version of the
    // paper's 14-input / ~150-key module; run table2 --full for that).
    let scheme = LutLock::small().with_seed(88);
    let mut rng = rand::rngs::StdRng::seed_from_u64(88);
    let locked = scheme.lock_random(&original, &mut rng)?;
    println!(
        "locked with a 2-stage LUT: {} key bits, {} gates (was {})",
        locked.key.len(),
        locked.netlist.num_gates(),
        original.num_gates()
    );

    // Baseline: conventional SAT attack. LUT insertion makes each
    // iteration's miter big, which is exactly its defense mechanism.
    let mut oracle = SimOracle::new(&original)?;
    let baseline = AttackSession::builder()
        .oracle(&mut oracle)
        .record_dips(false)
        .build()?
        .run(&locked.netlist)?;
    let baseline_stats = baseline.stats();
    let cnf_vars = baseline.reports[0].stats.cnf_vars;
    println!(
        "\nbaseline SAT attack: {} DIPs, {:?}, {} CNF vars",
        baseline_stats.dips, baseline_stats.wall_time, cnf_vars
    );

    // The multi-key attack with N = 2 (4 parallel terms).
    let mut oracle = SimOracle::new(&original)?;
    let report = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(2)
        .record_dips(false)
        .build()?
        .run(&locked.netlist)?;
    assert!(report.is_complete());
    let stats = report.stats();
    let terms = stats.subtask_wall_times.len() as u32;
    let mean: std::time::Duration =
        stats.subtask_wall_times.iter().sum::<std::time::Duration>() / terms;
    println!(
        "multi-key attack (N = 2): max term {:?}, mean {:?} — vs baseline {:?}",
        stats.max_subtask_time(),
        mean,
        baseline_stats.wall_time
    );

    // Recombine and verify formally.
    let unlocked = report.recombine(&locked.netlist)?;
    assert_eq!(check_equivalence(&original, &unlocked)?, EquivResult::Equivalent);
    println!("\nrecombined design formally equivalent to the original  [ok]");
    Ok(())
}
