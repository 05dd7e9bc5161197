//! Differential property test of the mirrored per-DIP constraints: on
//! random circuits locked with RLL, SARLock, Anti-SAT and LUT, encoded as
//! the attack encodes them (copies of the whole locked netlist against
//! its key cone's peeled miter), constraints encoded once over the left
//! keys and renamed onto the right ones must constrain both key vectors
//! exactly as two plain cone walks do, on the answered and on the pending
//! path.

use proptest::prelude::*;
use rand::{RngExt, SeedableRng};

use polykey_circuits::{generate_random, RandomCircuitSpec};
use polykey_encode::{assert_equal, assert_value, AttackEncoding, ConeEncoder};
use polykey_locking::{AntiSat, Key, LockScheme, LutLock, Rll, Sarlock};
use polykey_netlist::Simulator;
use polykey_sat::{Lit, Solver};

/// `lits` assumed to the bits of `key`.
fn pinned(lits: &[Lit], key: &Key) -> Vec<Lit> {
    lits.iter().zip(key.bits()).map(|(&l, &b)| if b { l } else { !l }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mirrored_dip_constraints_match_two_cone_walks(
        seed in any::<u64>(),
        inputs in 5usize..9,
        outputs in 1usize..5,
        gates in 20usize..60,
        dips in proptest::collection::vec((any::<u64>(), proptest::bool::ANY), 1..7),
    ) {
        let spec = RandomCircuitSpec::new("mirror", inputs, outputs, gates.max(inputs), seed);
        let original = generate_random(&spec);
        let schemes: [Box<dyn LockScheme>; 4] = [
            Box::new(Rll::new(3).with_seed(seed)),
            Box::new(Sarlock::new(4)),
            Box::new(AntiSat::new(2)),
            Box::new(LutLock::new(vec![2, 2], 0).with_seed(seed)),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut oracle = Simulator::new(&original).expect("acyclic");
        for scheme in &schemes {
            let locked = scheme.lock_random(&original, &mut rng).expect("lockable");
            // Both solvers start from the attack's encoding. `plain` gets
            // each DIP's two copies from two cone walks, `mirrored` gets
            // one walk, eliminated and added twice.
            let (encoding, mut mirrored) = AttackEncoding::new(&locked.netlist, false);
            let miter = encoding.miter();
            let mut plain: Solver = mirrored.clone();
            let mut cone_walk = ConeEncoder::new(&locked.netlist);
            let mut constraints = encoding.dip_constraints();
            let mut pending = Vec::new();
            for &(bits, is_pending) in &dips {
                let dip: Vec<bool> = (0..inputs).map(|i| bits >> i & 1 == 1).collect();
                let response = oracle.eval(&dip, &[]);
                let copies = [&miter.keys_left, &miter.keys_right]
                    .map(|keys| cone_walk.encode(&mut plain, &dip, keys));
                if is_pending {
                    for (&l, &r) in copies[0].iter().zip(&copies[1]) {
                        assert_equal(&mut plain, l, r);
                    }
                    let twins = constraints.add_pending(&mut mirrored, &dip);
                    pending.push((copies, twins, response));
                } else {
                    for outputs in &copies {
                        for (&out, &bit) in outputs.iter().zip(&response) {
                            assert_value(&mut plain, out, bit);
                        }
                    }
                    constraints.add_answered(&mut mirrored, &dip, &response);
                }
            }

            // Every key pair for narrow keys, a sample for wide ones, and
            // the correct key against itself.
            let width = locked.key.len();
            let mut pairs: Vec<(Key, Key)> = if width <= 4 {
                let keys: Vec<Key> = (0..1u64 << width).map(|k| Key::from_u64(k, width)).collect();
                keys.iter().flat_map(|a| keys.iter().map(move |b| (a.clone(), b.clone()))).collect()
            } else {
                (0..48).map(|_| (Key::random(width, &mut rng), Key::random(width, &mut rng))).collect()
            };
            pairs.push((locked.key.clone(), locked.key.clone()));
            let agree = |plain: &mut Solver, mirrored: &mut Solver| -> Result<(), proptest::test_runner::TestCaseError> {
                for (k1, k2) in &pairs {
                    let mut assumptions = pinned(&miter.keys_left, k1);
                    assumptions.extend(pinned(&miter.keys_right, k2));
                    prop_assert_eq!(
                        plain.solve(&assumptions),
                        mirrored.solve(&assumptions),
                        "{} keys {:?} {:?}", scheme.name(), k1, k2
                    );
                    assumptions.push(miter.diff);
                    prop_assert_eq!(
                        plain.solve(&assumptions),
                        mirrored.solve(&assumptions),
                        "{} keys {:?} {:?} with diff", scheme.name(), k1, k2
                    );
                }
                Ok(())
            };
            agree(&mut plain, &mut mirrored)?;
            // The pending copies must be the mirrored solver's view of the
            // same signals: answering them alike keeps the solvers in step.
            // Some answers are the oracle's, some flip a bit.
            for (copies, twins, mut response) in pending {
                if rng.random_bool(0.25) {
                    let at = rng.random_range(0..response.len());
                    response[at] = !response[at];
                }
                for outputs in &copies {
                    for (&out, &bit) in outputs.iter().zip(&response) {
                        assert_value(&mut plain, out, bit);
                    }
                }
                constraints.answer(&mut mirrored, twins, &response);
            }
            agree(&mut plain, &mut mirrored)?;
        }
    }
}
