//! Terms pinned by unit clauses against the cofactoring they replace.
//!
//! Every term of a session copies one solver that encodes the locked
//! netlist and pins its split ports with unit clauses. The paper's
//! Algorithm 1 instead attacks each sub-space on the locked netlist
//! cofactored on its pins. These tests compare the two: per-term `#DIP`
//! on SARLock and Anti-SAT, where it is the security figure, and sub-key
//! correctness plus a proven recombination on random key-gated netlists.

use polykey_attack::{AttackReport, AttackSession, SimOracle, SubKey};
use polykey_circuits::{generate_random, Iscas85, RandomCircuitSpec};
use polykey_encode::{check_equivalence, EquivResult};
use polykey_locking::{AntiSat, Key, LockScheme, Rll, Sarlock};
use polykey_netlist::{bits_of, cofactor, Netlist, NodeId, Simulator};
use proptest::prelude::*;
use rand::SeedableRng;

/// Runs a one-thread session with root effort `n` and an optional per-term
/// DIP budget.
fn attack(original: &Netlist, locked: &Netlist, n: usize, budget: Option<u64>) -> AttackReport {
    let mut oracle = SimOracle::new(original).expect("keyless oracle");
    let mut builder = AttackSession::builder().oracle(&mut oracle).split_effort(n).threads(1);
    if let Some(budget) = budget {
        builder = builder.term_dip_budget(budget);
    }
    let report = builder.build().expect("oracle provided").run(locked).expect("attack runs");
    report
}

/// The pins of the sub-space a `(pattern, width)` term covers.
fn pins(split: &[NodeId], pattern: u64, width: u8) -> Vec<(NodeId, bool)> {
    split[..width as usize]
        .iter()
        .enumerate()
        .map(|(j, &id)| (id, pattern >> j & 1 == 1))
        .collect()
}

#[test]
fn pinned_terms_ask_as_many_dips_as_cofactored_sessions() {
    let original = Iscas85::C432.build();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let schemes: [(&str, Netlist); 2] = [
        ("SARLock", Sarlock::new(8).lock(&original, &Key::from_u64(0x5A, 8)).unwrap().netlist),
        ("Anti-SAT", AntiSat::new(5).lock_random(&original, &mut rng).unwrap().netlist),
    ];
    for (name, locked) in &schemes {
        for n in 1..=3 {
            let report = attack(&original, locked, n, None);
            assert!(report.is_complete(), "{name} N={n}");
            assert_eq!(report.reports.len(), 1 << n, "{name} N={n}");
            for term in &report.reports {
                // The same sub-space as a one-term session of its own: the
                // locked netlist and the oracle's design both cofactored on
                // the term's pins.
                let pins = pins(&report.split_inputs, term.pattern, term.width);
                let sub_original = cofactor(&original, &pins).unwrap();
                let sub_locked = cofactor(locked, &pins).unwrap();
                let alone = attack(&sub_original, &sub_locked, 0, None);
                assert!(alone.is_complete(), "{name} N={n} term {:b}", term.pattern);
                assert_eq!(
                    term.stats.dips,
                    alone.stats().dips,
                    "{name} N={n} term {:0width$b}",
                    term.pattern,
                    width = n
                );
            }
        }
    }
}

/// A sub-key must make the locked netlist match the original on every
/// input of its sub-space.
fn unlocks_its_subspace(original: &Netlist, locked: &Netlist, split: &[NodeId], sub: &SubKey) {
    let positions: Vec<usize> = split[..sub.width as usize]
        .iter()
        .map(|id| locked.inputs().iter().position(|p| p == id).expect("split ports are inputs"))
        .collect();
    let mut orig = Simulator::new(original).unwrap();
    let mut lsim = Simulator::new(locked).unwrap();
    let ni = original.inputs().len();
    for v in 0..1u64 << ni {
        let bits = bits_of(v, ni);
        let inside = positions
            .iter()
            .enumerate()
            .all(|(j, &pos)| bits[pos] == (sub.pattern >> j & 1 == 1));
        if inside {
            assert_eq!(
                lsim.eval(&bits, sub.key.bits()),
                orig.eval(&bits, &[]),
                "sub-key {:b}/{} fails at input {v:b}",
                sub.pattern,
                sub.width
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pinned_terms_unlock_their_subspaces_and_recombine(
        seed in any::<u64>(),
        inputs in 4usize..8,
        outputs in 1usize..4,
        gates in 12usize..40,
        key_bits in 2usize..6,
    ) {
        let spec = RandomCircuitSpec::new("pin", inputs, outputs, gates.max(inputs), seed);
        let original = generate_random(&spec);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let locked = Rll::new(key_bits).with_seed(seed).lock_random(&original, &mut rng).unwrap();
        for n in 0..=3 {
            for budget in [None, Some(2)] {
                let report = attack(&original, &locked.netlist, n, budget);
                prop_assert!(report.is_complete(), "N={} budget {:?}", n, budget);
                for sub in &report.keys {
                    unlocks_its_subspace(&original, &locked.netlist, &report.split_inputs, sub);
                }
                let unlocked = report.recombine(&locked.netlist).unwrap();
                prop_assert_eq!(
                    check_equivalence(&original, &unlocked).unwrap(),
                    EquivResult::Equivalent
                );
            }
        }
    }
}
