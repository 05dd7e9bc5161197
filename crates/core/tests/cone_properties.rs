//! Differential property test of the key-cone search against the
//! full-netlist (textbook) path: on random multi-output circuits whose
//! locks leave some outputs out of the key's reach, both formulations
//! must recover a key that unlocks the whole locked netlist.

use proptest::prelude::*;

use polykey_attack::{verify_key, AttackSession, AttackStatus, SimOracle};
use polykey_circuits::{generate_random, RandomCircuitSpec};
use polykey_locking::{AntiSat, LockScheme, Rll, Sarlock};
use polykey_netlist::analysis::key_reachable_outputs;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cone_and_full_netlist_attacks_both_unlock_every_output(
        seed in any::<u64>(),
        inputs in 5usize..9,
        outputs in 2usize..6,
        gates in 20usize..60,
    ) {
        let spec = RandomCircuitSpec::new("cone", inputs, outputs, gates.max(inputs), seed);
        let original = generate_random(&spec);
        let schemes: [Box<dyn LockScheme>; 3] = [
            Box::new(Rll::new(3).with_seed(seed)),
            Box::new(Sarlock::new(4)),
            Box::new(AntiSat::new(2)),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut some_output_dropped = false;
        for scheme in &schemes {
            let locked = scheme.lock_random(&original, &mut rng).expect("lockable").netlist;
            some_output_dropped |=
                key_reachable_outputs(&locked).len() < locked.outputs().len();
            for textbook in [false, true] {
                let mut oracle = SimOracle::new(&original).expect("keyless oracle");
                let report = AttackSession::builder()
                    .oracle(&mut oracle)
                    .textbook(textbook)
                    .build()
                    .expect("oracle provided")
                    .run(&locked)
                    .expect("attack runs");
                let setting = format!("{} textbook = {textbook}", scheme.name());
                prop_assert_eq!(report.status(), AttackStatus::Success, "{}", setting);
                let key = report.key().expect("one key");
                prop_assert!(
                    verify_key(&original, &locked, key).expect("same interface"),
                    "{} key must unlock the full netlist",
                    setting
                );
            }
        }
        // SARLock and Anti-SAT corrupt one output: with two or more, the
        // others stay out of the key's reach unless they read the
        // corrupted one.
        prop_assume!(some_output_dropped);
    }
}
