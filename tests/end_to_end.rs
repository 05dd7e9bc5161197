//! End-to-end integration tests spanning every crate: lock → attack →
//! recombine → formally verify, with schemes as interchangeable parts
//! (`Vec<Box<dyn LockScheme>>`) and attacks driven exclusively through
//! `AttackSession::builder()`.

use polykey::attack::{
    verify_key, AttackSession, AttackStatus, Oracle, SimOracle, SplitStrategy,
};
use polykey::circuits::{arith, c17, generate_random, RandomCircuitSpec};
use polykey::encode::{check_equivalence, EquivResult};
use polykey::locking::{AntiSat, Key, LockScheme, LutLock, Rll, Sarlock};
use polykey::netlist::{pin_keys, simplify, Netlist};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// The scheme suite used by the cross-scheme tests.
fn scheme_suite(seed: u64) -> Vec<Box<dyn LockScheme>> {
    vec![
        Box::new(Rll::new(6).with_seed(seed)),
        Box::new(Sarlock::new(5)),
        Box::new(AntiSat::new(3)),
        Box::new(LutLock::new(vec![2], 1).with_seed(seed)),
    ]
}

/// SAT-attacks the locked design and formally verifies the recovered key.
fn attack_and_verify(original: &Netlist, locked: &Netlist) {
    let mut oracle = SimOracle::new(original).expect("keyless oracle");
    let report = AttackSession::builder()
        .oracle(&mut oracle)
        .build()
        .expect("oracle provided")
        .run(locked)
        .expect("attack runs");
    assert_eq!(report.status(), AttackStatus::Success);
    let key = report.key().expect("success implies key");
    assert!(
        verify_key(original, locked, key).expect("verification runs"),
        "recovered key must be functionally correct"
    );
}

#[test]
fn sat_attack_breaks_every_scheme_on_c17() {
    let original = c17();
    let schemes: Vec<Box<dyn LockScheme>> = vec![
        Box::new(Rll::new(5).with_seed(1)),
        Box::new(Sarlock::new(4)),
        Box::new(AntiSat::new(2)),
        Box::new(LutLock::new(vec![2], 1).with_seed(3)),
    ];
    for scheme in &schemes {
        let locked = scheme.lock_random(&original, &mut rng(7)).expect("lockable");
        attack_and_verify(&original, &locked.netlist);
    }
}

#[test]
fn sat_attack_breaks_antisat_on_adder() {
    let original = arith::ripple_adder(3);
    let locked = AntiSat::new(3).lock_random(&original, &mut rng(7)).expect("lockable");
    attack_and_verify(&original, &locked.netlist);
}

#[test]
fn sat_attack_breaks_lut_on_parity() {
    let original = arith::parity(6);
    let locked = LutLock::new(vec![2], 1)
        .with_seed(3)
        .lock_random(&original, &mut rng(3))
        .expect("lockable");
    attack_and_verify(&original, &locked.netlist);
}

#[test]
fn multikey_pipeline_on_every_scheme() {
    // For each scheme: Algorithm 1 with N = 2 + Fig. 1(b) recombination
    // must yield a netlist formally equivalent to the original.
    let original = generate_random(&RandomCircuitSpec::new("ep", 8, 3, 60, 404));
    let mut r = rng(12);
    for scheme in scheme_suite(12) {
        let locked = scheme
            .lock_random(&original, &mut r)
            .unwrap_or_else(|_| panic!("{}", scheme.name()));
        let mut oracle = SimOracle::new(&original).expect("oracle");
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(2)
            .build()
            .expect("oracle provided")
            .run(&locked.netlist)
            .expect("attack runs");
        assert!(report.is_complete(), "{}", scheme.name());
        let recombined = report.recombine(&locked.netlist).expect("recombine");
        assert_eq!(
            check_equivalence(&original, &recombined).expect("equiv check"),
            EquivResult::Equivalent,
            "{}",
            scheme.name()
        );
    }
}

#[test]
fn table1_shape_holds_on_small_instance() {
    // The closed form behind Table 1: SARLock with |K| = k needs
    // ~2^k DIPs at N = 0 and ~2^(k-N) per term at splitting effort N,
    // when the split ports hit the comparator.
    let original = generate_random(&RandomCircuitSpec::new("t1", 10, 4, 80, 77));
    let kw = 6;
    let locked = Sarlock::new(kw).lock(&original, &Key::from_u64(45, kw)).expect("lockable");

    let mut max_dips_by_n = Vec::new();
    for n in 0..=3usize {
        let mut oracle = SimOracle::new(&original).expect("oracle");
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(n)
            .strategy(SplitStrategy::FanoutCone)
            .build()
            .expect("oracle provided")
            .run(&locked.netlist)
            .expect("runs");
        assert!(report.is_complete());
        let max_dips = report.reports.iter().map(|r| r.stats.dips).max().unwrap();
        max_dips_by_n.push(max_dips);
    }
    // Baseline ≈ 2^6 - 1 = 63 (±1 from termination accounting).
    assert!((62..=64).contains(&max_dips_by_n[0]), "baseline #DIP ≈ 2^{kw}: {max_dips_by_n:?}");
    // Halving per level, approximately.
    for n in 1..max_dips_by_n.len() {
        let expected = (1u64 << (kw - n)) as f64;
        let got = max_dips_by_n[n] as f64;
        assert!(
            got <= expected * 1.25 + 2.0,
            "N={n}: #DIP {got} should be ≈ {expected}: {max_dips_by_n:?}"
        );
    }
}

#[test]
fn pin_keys_and_simplify_strip_all_key_logic_for_correct_key() {
    // Locking + correct key + re-synthesis returns (functionally) the
    // original; for SARLock the flip logic folds to constant 0.
    let original = arith::comparator(3);
    let locked = Sarlock::new(3).lock(&original, &Key::from_u64(2, 3)).expect("lockable");
    let pinned = pin_keys(&locked.netlist, locked.key.bits()).expect("pin");
    let (swept, _) = simplify(&pinned);
    assert_eq!(check_equivalence(&original, &swept).expect("equiv"), EquivResult::Equivalent);
}

#[test]
fn oracle_query_counts_are_attack_iterations() {
    let original = c17();
    let locked =
        Rll::new(3).with_seed(5).lock_random(&original, &mut rng(5)).expect("lockable");
    let mut oracle = SimOracle::new(&original).expect("oracle");
    let report = AttackSession::builder()
        .oracle(&mut oracle)
        .build()
        .expect("oracle provided")
        .run(&locked.netlist)
        .expect("runs");
    let stats = report.stats();
    assert_eq!(stats.oracle_queries, stats.dips);
    assert_eq!(oracle.queries(), stats.dips);
}

#[test]
fn dip_patterns_are_real_distinguishing_inputs() {
    // Every recorded DIP must actually distinguish two keys that were
    // consistent at the time — at minimum, it must be a legal input vector
    // of the right width.
    let original = c17();
    let locked = Sarlock::new(4).lock(&original, &Key::from_u64(7, 4)).expect("lockable");
    let mut oracle = SimOracle::new(&original).expect("oracle");
    let report = AttackSession::builder()
        .oracle(&mut oracle)
        .build()
        .expect("oracle provided")
        .run(&locked.netlist)
        .expect("runs");
    assert!(report.is_complete());
    let term = &report.reports[0];
    assert_eq!(term.dip_patterns.len() as u64, term.stats.dips);
    for dip in &term.dip_patterns {
        assert_eq!(dip.len(), original.inputs().len());
    }
    // SARLock DIPs are distinct (each eliminates a distinct key).
    let mut unique = term.dip_patterns.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), term.dip_patterns.len());
}
