//! Working with ISCAS `.bench` files: parse, analyze, lock, re-synthesize
//! and write back. Drop in real ISCAS'85 files to run the attacks on the
//! original benchmarks instead of the bundled stand-ins.
//!
//! ```text
//! cargo run --release --example bench_io            # uses built-in c17
//! cargo run --release --example bench_io -- my.bench
//! ```

use std::io::BufReader;

use polykey::circuits::c17;
use polykey::locking::{Key, LockScheme, Sarlock};
use polykey::netlist::analysis::NetlistStats;
use polykey::netlist::{parse_bench, simplify, write_bench, Netlist};
use rand::SeedableRng as _;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Load a netlist: from a file if given, else the built-in c17.
    let netlist: Netlist = match std::env::args().nth(1) {
        Some(path) => {
            let file = std::fs::File::open(&path)?;
            let name = path.trim_end_matches(".bench").to_string();
            parse_bench(BufReader::new(file), &name)?
        }
        None => c17(),
    };
    println!("parsed: {netlist}");
    println!("stats : {}", NetlistStats::of(&netlist));

    // Lock it (deterministically) and show the locked stats.
    let kw = netlist.inputs().len().min(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let key = Key::random(kw, &mut rng);
    let locked = Sarlock::new(kw).lock(&netlist, &key)?;
    println!("locked: {}", locked.netlist);

    // Round-trip the locked design through the .bench format.
    let mut text = Vec::new();
    write_bench(&mut text, &locked.netlist)?;
    println!("\n--- locked design in .bench format ---");
    print!("{}", String::from_utf8_lossy(&text));
    let reparsed = parse_bench(&text[..], locked.netlist.name())?;
    assert_eq!(reparsed.key_inputs().len(), kw);

    // Re-synthesis demo: simplification is a no-op on an already-tight
    // netlist but sweeps redundancy from generated ones.
    let (simplified, stats) = simplify(&reparsed);
    println!("--- after re-synthesis: {} (was {} gates) ---", simplified, stats.gates_before);
    Ok(())
}
