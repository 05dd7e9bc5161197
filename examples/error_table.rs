//! Reproduces the paper's Fig. 1(a): the SARLock error-distribution table,
//! and demonstrates why it defeats the one-key SAT attack — and why it
//! does not defeat the multi-key attack.
//!
//! ```text
//! cargo run --release --example error_table
//! ```

use polykey::attack::{AttackSession, SimOracle};
use polykey::locking::{Key, LockScheme, Sarlock};
use polykey::netlist::{bits_of, GateKind, Netlist, Simulator};

fn majority3() -> Result<Netlist, Box<dyn std::error::Error>> {
    let mut nl = Netlist::new("maj3");
    let a = nl.add_input("a")?;
    let b = nl.add_input("b")?;
    let c = nl.add_input("c")?;
    let ab = nl.add_gate("ab", GateKind::And, &[a, b])?;
    let ac = nl.add_gate("ac", GateKind::And, &[a, c])?;
    let bc = nl.add_gate("bc", GateKind::And, &[b, c])?;
    let y = nl.add_gate("y", GateKind::Or, &[ab, ac, bc])?;
    nl.mark_output(y)?;
    Ok(nl)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let original = majority3()?;
    let correct = Key::new(vec![true, false, true]); // "101" read bit0-first
    let locked = Sarlock::new(3).lock(&original, &correct)?;

    // Build the error table by exhaustive simulation.
    let mut orig = Simulator::new(&original)?;
    let mut lsim = Simulator::new(&locked.netlist)?;
    println!("SARLock error distribution (|I| = |K| = 3, k* = {correct} bit0-first):\n");
    print!("input \\ key ");
    for k in 0..8u64 {
        print!(" {k:03b}");
    }
    println!();
    for i in 0..8u64 {
        let ibits = bits_of(i, 3);
        let want = orig.eval(&ibits, &[]);
        print!("       {}{}{}  ", ibits[2] as u8, ibits[1] as u8, ibits[0] as u8);
        for k in 0..8u64 {
            let got = lsim.eval(&ibits, &bits_of(k, 3));
            print!("  {} ", if got == want { '.' } else { 'X' });
        }
        println!();
    }

    // The consequence: one DIP eliminates one key, so the one-key SAT
    // attack pays ~2^|K| iterations.
    let mut oracle = SimOracle::new(&original)?;
    let report = AttackSession::builder().oracle(&mut oracle).build()?.run(&locked.netlist)?;
    println!(
        "\none-key SAT attack: {} DIPs for a {}-bit key (≈ 2^|K|)",
        report.stats().dips,
        locked.key.len()
    );
    for (i, dip) in report.reports[0].dip_patterns.iter().enumerate() {
        let as_num: u64 =
            dip.iter().enumerate().fold(0, |acc, (j, &b)| acc | (u64::from(b) << j));
        println!("  DIP {}: input {as_num:03b} (eliminates key {as_num:03b})", i + 1);
    }
    println!("\neach DIP kills exactly the key equal to it — the diagonal above.");
    Ok(())
}
