//! The scenario-diversity matrix the API redesign exists for: every
//! `LockScheme` × every splitting effort on c17, driven exclusively
//! through `AttackSession::builder()` — plus property tests for the `Key`
//! value type.

use proptest::prelude::*;

use polykey::attack::{AttackSession, Oracle, SimOracle};
use polykey::circuits::{c17, generate_random, RandomCircuitSpec};
use polykey::encode::{check_equivalence, EquivResult};
use polykey::locking::{AntiSat, Key, LockScheme, LutLock, Rll, Sarlock};
use polykey::netlist::bits_of;
use rand::SeedableRng;

/// Every scheme in the suite, sized for c17 (5 inputs).
fn schemes() -> Vec<Box<dyn LockScheme>> {
    vec![
        Box::new(Rll::new(4).with_seed(2024)),
        Box::new(Sarlock::new(4)),
        Box::new(AntiSat::new(2)),
        Box::new(LutLock::new(vec![2], 1).with_seed(2024)),
    ]
}

#[test]
fn session_matrix_recombines_every_scheme_at_every_effort() {
    let original = c17();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for scheme in schemes() {
        let locked = scheme
            .lock_random(&original, &mut rng)
            .unwrap_or_else(|_| panic!("{}", scheme.name()));
        for split_effort in 0..=2usize {
            let mut oracle = SimOracle::new(&original).expect("keyless oracle");
            let report = AttackSession::builder()
                .oracle(&mut oracle)
                .split_effort(split_effort)
                .build()
                .expect("oracle provided")
                .run(&locked.netlist)
                .expect("attack runs");
            assert!(report.is_complete(), "{} N={split_effort}", scheme.name());
            assert_eq!(
                report.keys.len(),
                1 << split_effort,
                "{} N={split_effort}",
                scheme.name()
            );
            // The round-trip the paper is about: sub-space keys — possibly
            // each globally wrong — recombine into a keyless equivalent.
            let recombined = report.recombine(&locked.netlist).expect("recombine");
            assert!(recombined.key_inputs().is_empty());
            assert_eq!(
                check_equivalence(&original, &recombined).expect("equiv"),
                EquivResult::Equivalent,
                "{} N={split_effort}",
                scheme.name()
            );
        }
    }
}

#[test]
fn dip_batch_matrix_recovers_correct_keys_at_every_width() {
    // The batched and sequential pipelines must be interchangeable: for
    // every scheme and every batch width, the session succeeds and the
    // recombined design is formally equivalent to the original. The stats
    // contract holds throughout: queries count answered DIPs, rounds
    // collapse with the batch width, and width 1 is the classic loop.
    let original = c17();
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    for scheme in schemes() {
        let locked = scheme
            .lock_random(&original, &mut rng)
            .unwrap_or_else(|_| panic!("{}", scheme.name()));
        for dip_batch in [1usize, 4, 64] {
            for split_effort in [0usize, 1] {
                let mut oracle = SimOracle::new(&original).expect("keyless oracle");
                let report = AttackSession::builder()
                    .oracle(&mut oracle)
                    .split_effort(split_effort)
                    .dip_batch(dip_batch)
                    .build()
                    .expect("oracle provided")
                    .run(&locked.netlist)
                    .expect("attack runs");
                let label = format!("{} k={dip_batch} N={split_effort}", scheme.name());
                assert!(report.is_complete(), "{label}");
                let stats = report.stats();
                assert_eq!(stats.oracle_queries, stats.dips, "{label}");
                assert!(stats.oracle_rounds <= stats.oracle_queries, "{label}");
                if dip_batch == 1 {
                    assert_eq!(stats.oracle_rounds, stats.oracle_queries, "{label}");
                }
                let recombined = report.recombine(&locked.netlist).expect("recombine");
                assert_eq!(
                    check_equivalence(&original, &recombined).expect("equiv"),
                    EquivResult::Equivalent,
                    "{label}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Oracle::query_batch` must agree with repeated `Oracle::query` on
    /// arbitrary circuits and pattern sets — including batches larger than
    /// one 64-bit simulator word.
    #[test]
    fn query_batch_agrees_with_repeated_query(
        seed in any::<u64>(),
        inputs in 1usize..=8,
        extra_gates in 0usize..=32,
        npatterns in 0usize..=130,
    ) {
        // The generator needs at least one gate per input.
        let spec = RandomCircuitSpec::new("qb", inputs, 2, inputs + extra_gates, seed);
        let circuit = generate_random(&spec);
        let patterns: Vec<Vec<bool>> = (0..npatterns)
            .map(|p| bits_of((seed.rotate_left(p as u32)) ^ p as u64, inputs))
            .collect();

        let mut sequential = SimOracle::new(&circuit).expect("keyless");
        let expected: Vec<Vec<bool>> =
            patterns.iter().map(|p| sequential.query(p)).collect();

        let mut batched = SimOracle::new(&circuit).expect("keyless");
        prop_assert_eq!(batched.query_batch(&patterns), expected);
        prop_assert_eq!(batched.queries(), npatterns as u64);
        prop_assert_eq!(batched.queries(), sequential.queries());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn key_u64_round_trips(value in any::<u64>(), len in 0usize..=64) {
        let masked = value & mask(len);
        let key = Key::from_u64(masked, len);
        prop_assert_eq!(key.len(), len);
        prop_assert_eq!(key.to_u64(), Some(masked));
        // Display is bit0-first and one char per bit.
        prop_assert_eq!(key.to_string().len(), len);
    }

    #[test]
    fn key_concat_round_trips(a in any::<u64>(), la in 0usize..=32, b in any::<u64>(), lb in 0usize..=32) {
        let ka = Key::from_u64(a & mask(la), la);
        let kb = Key::from_u64(b & mask(lb), lb);
        let joined = ka.concat(&kb);
        prop_assert_eq!(joined.len(), la + lb);
        // Bit-level split recovers both halves.
        prop_assert_eq!(&joined.bits()[..la], ka.bits());
        prop_assert_eq!(&joined.bits()[la..], kb.bits());
        // Numeric identity: joined = a | (b << la).
        let expected = (a & mask(la)) | ((b & mask(lb)) << la);
        prop_assert_eq!(joined.to_u64(), Some(expected));
    }

    #[test]
    fn key_bits_match_integer_bits(value in any::<u64>()) {
        let key = Key::from_u64(value, 64);
        for i in 0..64 {
            prop_assert_eq!(key.bit(i), value >> i & 1 == 1, "bit {}", i);
        }
        prop_assert_eq!(Key::new(key.bits().to_vec()), key);
    }
}

/// The low `len` bits set (handles `len = 0` and `len = 64`).
fn mask(len: usize) -> u64 {
    if len == 0 {
        0
    } else if len >= 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}
