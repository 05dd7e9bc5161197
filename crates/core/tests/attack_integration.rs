//! Integration tests for the attack crate: cross-scheme attacks through
//! the session surface, engine mode equivalence, and multi-key invariants
//! on generated circuits.

use polykey_attack::{
    appsat_attack, select_split_inputs, verify_key, verify_key_on_subspace, AppSatConfig,
    AttackError, AttackReport, AttackSession, AttackStatus, Oracle, SimOracle, SplitStrategy,
    MAX_SPLIT_WIDTH,
};
use polykey_circuits::{arith, generate_random, Iscas85, RandomCircuitSpec};
use polykey_encode::{check_equivalence, EquivResult};
use polykey_locking::{AntiSat, Key, LockScheme, LutLock, Rll, Sarlock};
use polykey_netlist::Netlist;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Runs a session with the given splitting effort against `locked`.
fn attack(original: &Netlist, locked: &Netlist, split_effort: usize) -> AttackReport {
    let mut oracle = SimOracle::new(original).expect("keyless oracle");
    let mut session = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(split_effort)
        .build()
        .expect("an oracle was provided");
    let report = session.run(locked).expect("attack runs");
    drop(session);
    report
}

/// The textbook and optimized engines must agree on everything but cost.
#[test]
fn textbook_and_folded_engines_agree() {
    let original = generate_random(&RandomCircuitSpec::new("eng", 7, 3, 50, 11));
    let locked = Sarlock::new(5).lock(&original, &Key::from_u64(21, 5)).expect("lockable");

    let mut oracle = SimOracle::new(&original).expect("oracle");
    let folded = AttackSession::builder()
        .oracle(&mut oracle)
        .build()
        .unwrap()
        .run(&locked.netlist)
        .expect("runs");

    let mut oracle = SimOracle::new(&original).expect("oracle");
    let textbook = AttackSession::builder()
        .oracle(&mut oracle)
        .textbook(true)
        .build()
        .unwrap()
        .run(&locked.netlist)
        .expect("runs");

    assert_eq!(folded.status(), AttackStatus::Success);
    assert_eq!(textbook.status(), AttackStatus::Success);
    // Identical solver-visible search problem ⇒ identical DIP sequence.
    assert_eq!(folded.stats().dips, textbook.stats().dips);
    let kf = folded.key().expect("key");
    let kt = textbook.key().expect("key");
    assert!(verify_key(&original, &locked.netlist, kf).expect("verify"));
    assert!(verify_key(&original, &locked.netlist, kt).expect("verify"));
}

/// Multi-key attack across all split strategies still yields sub-space
/// correct keys (the strategies differ only in efficiency).
#[test]
fn all_split_strategies_give_subspace_correct_keys() {
    let original = generate_random(&RandomCircuitSpec::new("strat", 8, 3, 70, 5));
    let locked = Sarlock::new(5).lock(&original, &Key::from_u64(9, 5)).expect("lockable");
    for strategy in [
        SplitStrategy::FanoutCone,
        SplitStrategy::FirstInputs,
        SplitStrategy::Random { seed: 3 },
    ] {
        let mut oracle = SimOracle::new(&original).expect("oracle");
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(2)
            .strategy(strategy)
            .threads(1)
            .build()
            .unwrap()
            .run(&locked.netlist)
            .expect("attack runs");
        assert!(report.is_complete(), "{strategy:?}");
        let positions: Vec<usize> = report
            .split_inputs
            .iter()
            .map(|id| locked.netlist.inputs().iter().position(|p| p == id).expect("input"))
            .collect();
        for sub in &report.keys {
            let forced: Vec<(usize, bool)> = positions
                .iter()
                .enumerate()
                .map(|(j, &pos)| (pos, sub.pattern >> j & 1 == 1))
                .collect();
            assert!(
                verify_key_on_subspace(&original, &locked.netlist, &sub.key, &forced)
                    .expect("verify"),
                "{strategy:?} pattern {:b}",
                sub.pattern
            );
        }
        // Recombination is equivalent regardless of strategy.
        let rec = report.recombine(&locked.netlist).expect("recombine");
        assert_eq!(check_equivalence(&original, &rec).expect("equiv"), EquivResult::Equivalent);
    }
}

/// N = 4 with 16 parallel terms on a LUT-locked arithmetic circuit: the
/// full Table-2 pipeline in miniature.
#[test]
fn table2_pipeline_miniature() {
    let original = arith::multiplier(6);
    let locked =
        LutLock::small().with_seed(8).lock_random(&original, &mut rng(8)).expect("lockable");

    let mut oracle = SimOracle::new(&original).expect("oracle");
    let report = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(4)
        .record_dips(false)
        .build()
        .unwrap()
        .run(&locked.netlist)
        .expect("runs");
    assert!(report.is_complete());
    assert_eq!(report.stats().subtask_wall_times.len(), 16);
    let rec = report.recombine(&locked.netlist).expect("recombine");
    assert_eq!(check_equivalence(&original, &rec).expect("equiv"), EquivResult::Equivalent);
}

/// The multi-key attack on a keyless circuit degenerates gracefully.
#[test]
fn multikey_on_keyless_circuit() {
    let original = arith::parity(5);
    let report = attack(&original, &original, 1);
    assert!(report.is_complete());
    for sub in &report.keys {
        assert_eq!(sub.key.len(), 0);
    }
}

/// Split selection is deterministic and respects N across strategies.
#[test]
fn split_selection_invariants() {
    let original = generate_random(&RandomCircuitSpec::new("sel", 12, 4, 100, 77));
    let locked =
        Rll::new(8).with_seed(2).lock_random(&original, &mut rng(2)).expect("lockable");
    for n in 0..=4 {
        for strategy in [
            SplitStrategy::FanoutCone,
            SplitStrategy::FirstInputs,
            SplitStrategy::Random { seed: 1 },
        ] {
            let a = select_split_inputs(&locked.netlist, n, strategy).expect("valid");
            let b = select_split_inputs(&locked.netlist, n, strategy).expect("valid");
            assert_eq!(a, b, "deterministic for {strategy:?}");
            assert_eq!(a.len(), n);
            let mut dedup = a.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), n, "distinct ports for {strategy:?}");
            for id in &a {
                assert!(locked.netlist.inputs().contains(id));
            }
        }
    }
}

/// AppSAT on Anti-SAT: non-unique correct keys, approximate termination
/// still produces a functionally correct key (Anti-SAT's flip rate is low
/// but its key space collapses fast under DIPs).
#[test]
fn appsat_on_antisat() {
    let original = arith::ripple_adder(3);
    let locked = AntiSat::new(3).lock_random(&original, &mut rng(6)).expect("lockable");
    let mut oracle = SimOracle::new(&original).expect("oracle");
    let config = AppSatConfig { queries_per_round: 128, ..AppSatConfig::default() };
    let outcome = appsat_attack(&locked.netlist, &mut oracle, &config).expect("runs");
    let key = outcome.key.expect("key");
    // Error must be tiny; for Anti-SAT usually exactly zero.
    assert!(outcome.estimated_error <= 0.05, "err {}", outcome.estimated_error);
    let mismatches =
        polykey_attack::random_sim_mismatches(&original, &locked.netlist, &key, 512, 9)
            .expect("sim");
    assert!(mismatches <= 25, "{mismatches}/512 mismatches");
}

/// Oracle query accounting flows through the multi-key reports, and the
/// shared session oracle sees exactly the sum of the per-term counts.
#[test]
fn multikey_oracle_accounting() {
    let original: Netlist = generate_random(&RandomCircuitSpec::new("acc", 6, 2, 40, 31));
    let locked = Sarlock::new(4).lock(&original, &Key::from_u64(6, 4)).expect("lockable");
    let mut oracle = SimOracle::new(&original).expect("oracle");
    let report = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(2)
        .threads(1)
        .build()
        .unwrap()
        .run(&locked.netlist)
        .expect("runs");
    for r in &report.reports {
        assert_eq!(r.stats.oracle_queries, r.stats.dips, "term {:b}", r.pattern);
    }
    // Total DIPs across terms ≈ sum of sub-space eliminations; at minimum
    // every term requires at least one solver round.
    assert!(report.stats().dips >= 1);
    assert_eq!(oracle.queries(), report.stats().oracle_queries);
}

/// The acceptance pipeline for adaptive splitting: on a SARLock-locked
/// ISCAS cell, a per-term DIP budget must (a) recombine to the same formal
/// equivalence a static `N` achieves, (b) subdivide at least one hard term
/// deeper than the root `N`, and (c) keep every leaf within budget.
#[test]
fn adaptive_budget_matches_static_equivalence_on_sarlock_iscas() {
    let original = Iscas85::C432.build();
    let locked =
        Sarlock::new(6).lock(&original, &Key::from_u64(0b101101, 6)).expect("lockable");

    // Static N = 2 reference: 4 terms, each eliminating ~2^4 wrong keys.
    let mut oracle = SimOracle::new(&original).expect("oracle");
    let static_report = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(2)
        .record_dips(false)
        .build()
        .unwrap()
        .run(&locked.netlist)
        .expect("runs");
    assert!(static_report.is_complete());
    let rec = static_report.recombine(&locked.netlist).expect("recombine");
    assert_eq!(check_equivalence(&original, &rec).expect("equiv"), EquivResult::Equivalent);

    // Adaptive: root N = 1 with a DIP budget of 8. The comparator-pinned
    // term needs ~2^5 DIPs at depth 1, so it must subdivide past the root.
    let mut oracle = SimOracle::new(&original).expect("oracle");
    let adaptive_report = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(1)
        .term_dip_budget(8)
        .record_dips(false)
        .build()
        .unwrap()
        .run(&locked.netlist)
        .expect("runs");
    assert!(adaptive_report.is_complete());
    assert!(
        adaptive_report.max_depth() > 1,
        "a hard term must have split deeper than the root (depths: {:?})",
        adaptive_report.reports.iter().map(|r| r.width).collect::<Vec<_>>()
    );
    assert!(!adaptive_report.resplit_reports.is_empty());
    assert!(
        adaptive_report.reports.iter().all(|r| r.stats.dips <= 8),
        "every leaf converged within its budget"
    );
    assert_eq!(oracle.queries(), adaptive_report.stats().oracle_queries);
    let rec = adaptive_report.recombine(&locked.netlist).expect("recombine");
    assert_eq!(check_equivalence(&original, &rec).expect("equiv"), EquivResult::Equivalent);
}

/// An oracle whose k-th query panics — the "hardware fault" rig for the
/// poisoned-mutex regression tests.
struct PanickingOracle<'a> {
    inner: SimOracle<'a>,
    /// Panic once, on exactly this (1-based) query…
    panic_at: Option<u64>,
    /// …or on this and every later query.
    poison_from: Option<u64>,
    seen: u64,
}

impl<'a> PanickingOracle<'a> {
    fn once_at(inner: SimOracle<'a>, panic_at: u64) -> Self {
        PanickingOracle { inner, panic_at: Some(panic_at), poison_from: None, seen: 0 }
    }

    fn from_query(inner: SimOracle<'a>, poison_from: u64) -> Self {
        PanickingOracle { inner, panic_at: None, poison_from: Some(poison_from), seen: 0 }
    }
}

impl Oracle for PanickingOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&mut self, input: &[bool]) -> Vec<bool> {
        self.seen += 1;
        if self.panic_at == Some(self.seen) || self.poison_from.is_some_and(|k| self.seen >= k)
        {
            panic!("oracle hardware fault at query {}", self.seen);
        }
        self.inner.query(input)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

/// One term's oracle panicking mid-run (poisoning the shared mutex) fails
/// that term only: its siblings recover the lock, finish, and the session
/// returns a report instead of panicking.
#[test]
fn panicking_oracle_fails_one_term_not_the_session() {
    let original = arith::ripple_adder(2);
    let locked = Sarlock::new(4).lock(&original, &Key::from_u64(0b0110, 4)).expect("lockable");
    let inner = SimOracle::new(&original).expect("oracle");
    let mut oracle = PanickingOracle::once_at(inner, 3);
    let report = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(1)
        .threads(1)
        // A batch width > 1 makes the panic land mid-batch, exercising the
        // partial-batch accounting path.
        .dip_batch(4)
        .build()
        .unwrap()
        .run(&locked.netlist)
        .expect("the session must survive the panic");
    assert!(!report.is_complete());
    assert_eq!(report.status(), AttackStatus::Failed);
    let statuses: Vec<AttackStatus> = report.reports.iter().map(|r| r.status).collect();
    assert_eq!(
        statuses.iter().filter(|&&s| s == AttackStatus::Failed).count(),
        1,
        "exactly one term failed: {statuses:?}"
    );
    assert_eq!(
        statuses.iter().filter(|&&s| s == AttackStatus::Success).count(),
        1,
        "the sibling term recovered the poisoned oracle lock: {statuses:?}"
    );
    // The surviving term's key is still sub-space correct.
    assert_eq!(report.keys.len(), 1);
    // Served-query accounting survives the panic: the failed term reports
    // the queries the oracle actually answered before crashing (counted
    // outside the panic boundary), so the totals still reconcile.
    assert_eq!(oracle.queries(), report.stats().oracle_queries);
}

/// The same recovery under a parallel worker pool: every term's oracle
/// access panics, every term reports `Failed`, nothing propagates.
#[test]
fn fully_poisoned_oracle_fails_every_term_gracefully() {
    let original = arith::ripple_adder(2);
    let locked = Sarlock::new(4).lock(&original, &Key::from_u64(0b1001, 4)).expect("lockable");
    let inner = SimOracle::new(&original).expect("oracle");
    let mut oracle = PanickingOracle::from_query(inner, 1);
    let report = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(2)
        .threads(4)
        .build()
        .unwrap()
        .run(&locked.netlist)
        .expect("the session must survive every panic");
    assert_eq!(report.reports.len(), 4);
    assert!(report.reports.iter().all(|r| r.status == AttackStatus::Failed));
    assert!(report.keys.is_empty());
}

/// Regression for the split-width overflow: `1u64 << 64` used to wrap to
/// one silent term in release builds. A 64-input circuit at `N = 64` —
/// which the old `n > inputs` check accepted — must now error out.
#[test]
fn split_effort_64_is_rejected_at_the_session_surface() {
    let mut nl = polykey_netlist::Netlist::new("wide64");
    let inputs: Vec<_> = (0..64).map(|i| nl.add_input(format!("x{i}")).unwrap()).collect();
    let y = nl.add_gate("y", polykey_netlist::GateKind::Or, &inputs).unwrap();
    nl.mark_output(y).unwrap();
    let mut oracle = SimOracle::new(&nl).expect("oracle");
    let err = AttackSession::builder()
        .oracle(&mut oracle)
        .split_effort(64)
        .build()
        .unwrap()
        .run(&nl)
        .expect_err("must be rejected");
    assert!(
        matches!(err, AttackError::SplitTooDeep { requested: 64, max: MAX_SPLIT_WIDTH }),
        "{err}"
    );
}
