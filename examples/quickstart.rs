//! Quickstart: lock a circuit, attack it, verify the recovered key.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use polykey::attack::{verify_key, AttackSession, SimOracle};
use polykey::circuits::c17;
use polykey::locking::{LockScheme, Rll};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The victim design: ISCAS'85 c17 (5 inputs, 2 outputs, 6 NANDs).
    let original = c17();
    println!("original design : {original}");

    // 2. The designer locks it: 4 random XOR/XNOR key gates.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let locked = Rll::new(4).with_seed(2024).lock_random(&original, &mut rng)?;
    println!("locked design   : {}", locked.netlist);
    println!("correct key     : {}", locked.key);

    // 3. The attacker has the locked netlist + a working chip (the oracle).
    let mut oracle = SimOracle::new(&original)?;
    let report = AttackSession::builder().oracle(&mut oracle).build()?.run(&locked.netlist)?;
    let stats = report.stats();
    let key = report.key().expect("attack succeeds on RLL");
    println!(
        "attack          : {} DIPs, {} oracle queries, {:?}",
        stats.dips, stats.oracle_queries, report.wall_time
    );
    println!("recovered key   : {key}");

    // 4. Formal verification: the recovered key unlocks the design.
    //    (It may differ from the designer's key bit-for-bit and still be
    //    functionally correct — that is the point of the paper.)
    assert!(verify_key(&original, &locked.netlist, key)?);
    println!("verification    : recovered key is functionally correct [ok]");
    Ok(())
}
