//! The oracle-guided SAT attack (Subramanyan, Ray, Malik — HOST'15).
//!
//! The attack loop:
//!
//! 1. Cut the locked circuit down to the key's cone of influence: every
//!    input, the outputs in the key inputs' transitive fanout, and their
//!    fan-in. An output outside the cone computes the same function under
//!    every key, so it can never tell two keys apart. Then peel the
//!    key-free layers off the cone's outputs (BUF and NOT gates, and XOR
//!    and XNOR gates with one key-controlled fan-in): over two copies that
//!    share their inputs, `g ⊕ f(K1)` and `g ⊕ f(K2)` differ exactly when
//!    `f(K1)` and `f(K2)` do. Build a miter of two copies of what is left,
//!    sharing primary inputs, with independent key vectors `K1`, `K2`.
//! 2. Ask the solver for a *distinguishing input pattern* (DIP): an input on
//!    which some two keys consistent with everything observed so far
//!    disagree.
//! 3. Query the oracle at the DIP (on the whole chip) and constrain both
//!    key copies to reproduce its whole response. The constraint is one
//!    CNF copy of the whole locked netlist over the left keys, with inputs
//!    pinned to the DIP so it folds down to key logic only: only the key
//!    cone is walked, and every other gate is a constant of the copy's
//!    simulation. An output outside the cone folds with its answer, to
//!    nothing when the answer is right and to the empty clause when it is
//!    wrong, which ends the run as [`AttackStatus::Inconsistent`] once that
//!    oracle round is answered. The copy's private variables are
//!    eliminated before the solver sees it, and what survives is added
//!    once as it is and once renamed onto the right keys, each clause
//!    merged with an earlier DIP's survivor that differs from it in one
//!    literal's sign (two SARLock exclusions of keys one bit apart become
//!    one clause without that bit). A DIP differs from the
//!    previous one in a few inputs, so both the simulated oracle and the
//!    copy's constants re-evaluate only the gates those inputs reach
//!    (event-driven single-pattern simulation). The textbook formulation
//!    encodes every output in the miter, peels nothing, and encodes each
//!    DIP's copies in full.
//! 4. Repeat until the miter is unsatisfiable: every remaining key is
//!    functionally equivalent on all inputs; return one of them.
//!
//! The solver is used *incrementally*: learnt clauses carry over between
//! iterations, and the miter is kept behind an assumption literal so the
//! final key-extraction solve can ignore it. The CNF of steps 1 and 3, in
//! both formulations, is `polykey-encode`'s: a session encodes its locked
//! netlist once ([`AttackEncoding`]), every run starts from a copy of a
//! solver holding that encoding, pins its sub-space with unit clauses, and
//! adds each DIP through the encoding's
//! [`DipConstraints`](polykey_encode::DipConstraints). This module keeps
//! the loop: solve, harvest, query, count. A run stopped by its DIP budget
//! hands its solver back, and another run can resume it with more input
//! pins (the adaptive term tree's children do).

use std::time::Instant;

use polykey_encode::{AttackEncoding, Miter, PendingCopies};
use polykey_locking::Key;
use polykey_sat::{SolveResult, Solver, SolverStats};

use crate::oracle::Oracle;
use crate::session::{AttackConfig, AttackStats};

/// What one term's SAT attack reads beyond the session's
/// [`AttackConfig`]: its sub-space pins, its DIP budget, the run's
/// deadline and its progress hook.
#[derive(Default)]
pub(crate) struct TermCtl<'c> {
    /// Primary-input positions forced to fixed values in every DIP (the
    /// multi-key attack's way of staying inside one sub-space), added as
    /// unit clauses on the miter inputs before the first solve.
    pub force_inputs: Vec<(usize, bool)>,
    /// Soft DIP budget: stop with [`AttackStatus::BudgetExhausted`] after
    /// this many DIPs (None = no budget). Exhausting it is a *scheduling*
    /// signal: the adaptive multi-key engine reads it as "this term is too
    /// hard at its current depth, split it deeper".
    pub dip_budget: Option<u64>,
    /// Absolute wall-clock deadline of the whole session run, reported as
    /// [`AttackStatus::TimeLimit`].
    pub deadline: Option<Instant>,
    /// Called after each discovered DIP with the running DIP count.
    pub on_dip: Option<&'c (dyn Fn(u64) + Sync)>,
}

/// How a SAT attack run ended.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AttackStatus {
    /// The key space was exhausted and a functionally correct key returned.
    Success,
    /// Stopped at the configured time limit.
    TimeLimit,
    /// Spent its per-term DIP budget
    /// ([`crate::AttackSessionBuilder::term_dip_budget`]) without
    /// converging, with partial stats intact. The adaptive multi-key
    /// scheduler reacts by splitting the term one port deeper and resuming
    /// its search in both halves.
    BudgetExhausted,
    /// Stopped by a [`crate::CancelToken`].
    Cancelled,
    /// The sub-attack's worker panicked (e.g. a crashing oracle). The
    /// multi-key engine recovers the panic at the term boundary and
    /// reports the term as failed instead of taking down the session.
    Failed,
    /// No key is consistent with the oracle responses (wrong oracle or
    /// corrupted netlist).
    Inconsistent,
}

/// The result of a SAT attack run.
pub(crate) struct SatAttackOutcome {
    /// Terminal status.
    pub status: AttackStatus,
    /// The recovered key (present on [`AttackStatus::Success`]).
    pub key: Option<Key>,
    /// The DIPs, in discovery order (if [`AttackConfig::record_dips`] was
    /// set).
    pub dip_patterns: Vec<Vec<bool>>,
    /// Work counters; `term_time` is left to the caller, which times the
    /// whole term.
    pub stats: AttackStats,
    /// The solver's variables and original clauses at the end of the run.
    pub cnf_size: (usize, usize),
    /// The solver, handed back on [`AttackStatus::BudgetExhausted`] so the
    /// term's children can resume its search.
    pub solver: Option<Solver>,
}

/// The mutable state of one DIP-refinement run: the incremental solver,
/// the oracle, and the work record every exit reports.
struct Run<'o> {
    solver: Solver,
    oracle: &'o mut dyn Oracle,
    queries_at_start: u64,
    solver_at_start: SolverStats,
    stats: AttackStats,
    dip_patterns: Vec<Vec<bool>>,
}

impl Run<'_> {
    /// Closes the run with its terminal status and key, handing the solver
    /// back when the DIP budget stopped it.
    fn finish(mut self, status: AttackStatus, key: Option<Key>) -> SatAttackOutcome {
        self.stats.oracle_queries = self.oracle.queries() - self.queries_at_start;
        self.stats.solver = *self.solver.stats() - self.solver_at_start;
        let cnf_size = (self.solver.num_vars(), self.solver.num_clauses());
        let solver = (status == AttackStatus::BudgetExhausted).then_some(self.solver);
        let (stats, dip_patterns) = (self.stats, self.dip_patterns);
        SatAttackOutcome { status, key, dip_patterns, stats, cnf_size, solver }
    }

    /// Reads the current model's primary-input assignment — one DIP.
    fn extract_dip(&self, miter: &Miter) -> Vec<bool> {
        miter.inputs.iter().map(|&l| self.solver.model_value(l).unwrap_or(false)).collect()
    }

    /// The DIP-refinement loop: runs until the key space is exhausted or a
    /// limit stops it, and returns how it ended. A solve past the deadline
    /// returns `Unknown`, which ends the run as `TimeLimit`.
    ///
    /// # Panics
    ///
    /// Panics if the oracle answers a batch with fewer or more answers than
    /// patterns, or with an answer whose width is not the netlist's output
    /// count ([`DipConstraints::answer`](polykey_encode::DipConstraints::answer)
    /// refuses it before the DIP is counted): the term's panic boundary
    /// then fails the term, where a short answer would otherwise constrain
    /// nothing on its missing outputs.
    fn refine(
        &mut self,
        encoding: &AttackEncoding<'_>,
        config: &AttackConfig<'_>,
        term: &TermCtl<'_>,
    ) -> (AttackStatus, Option<Key>) {
        let miter = encoding.miter();
        let mut constraints = encoding.dip_constraints();
        loop {
            // Cooperative cancellation, once per refinement iteration.
            if config.cancelled() {
                return (AttackStatus::Cancelled, None);
            }
            match self.solver.solve(&[miter.diff]) {
                SolveResult::Unknown => return (AttackStatus::TimeLimit, None),
                SolveResult::Sat => {
                    // The miter is still satisfiable, so more DIPs are
                    // needed: a spent DIP budget means this term is too
                    // hard at its current depth. (Checked only here — a term
                    // that converges exactly at its budget still succeeds.)
                    if term.dip_budget.is_some_and(|budget| self.stats.dips >= budget) {
                        return (AttackStatus::BudgetExhausted, None);
                    }
                    // Harvest up to `dip_batch` distinct DIPs before paying
                    // the oracle round-trip. After each harvested DIP the two
                    // constraint copies are encoded immediately and their
                    // outputs tied together: requiring the key copies to
                    // *agree* at the pending input is a relaxation of the
                    // response constraint asserted below once the oracle
                    // answers, so no consistent key pair is lost — but the
                    // re-solve can no longer return a key pair the pending
                    // answer would eliminate anyway, steering every
                    // harvested DIP toward fresh key-space. The copies are
                    // kept so the answer lands on the same CNF: batching
                    // costs no extra circuit encodings over the classic loop.
                    let mut dips: Vec<Vec<bool>> = Vec::new();
                    let mut pending: Vec<Option<PendingCopies>> = Vec::new();
                    let mut dip = self.extract_dip(miter);
                    // Never harvest past the DIP budget (not yet spent:
                    // checked above).
                    let target = match term.dip_budget {
                        Some(budget) => {
                            config.dip_batch.min((budget - self.stats.dips) as usize)
                        }
                        None => config.dip_batch,
                    };
                    loop {
                        if dips.len() + 1 >= target || config.cancelled() {
                            // The epoch's last DIP needs no steering copies;
                            // it is encoded on the classic path when answered.
                            dips.push(dip);
                            pending.push(None);
                            break;
                        }
                        pending.push(Some(constraints.add_pending(&mut self.solver, &dip)));
                        dips.push(dip);
                        match self.solver.solve(&[miter.diff]) {
                            SolveResult::Sat => dip = self.extract_dip(miter),
                            // Unsat: the epoch drained every remaining DIP
                            // (the outer loop terminates once the answers
                            // land). Unknown: past the deadline; answer what
                            // we have.
                            SolveResult::Unsat | SolveResult::Unknown => break,
                        }
                    }
                    // One oracle round answers the whole batch.
                    let responses = self.oracle.query_batch(&dips);
                    self.stats.oracle_rounds += 1;
                    assert_eq!(responses.len(), dips.len(), "one oracle answer per pattern");
                    for ((dip, copies), response) in
                        dips.into_iter().zip(pending).zip(&responses)
                    {
                        // Both key copies must reproduce the response at
                        // this input. A wrong answer leaves the solver
                        // unsatisfiable, so the next solve ends the run.
                        match copies {
                            Some(copies) => {
                                constraints.answer(&mut self.solver, copies, response)
                            }
                            None => constraints.add_answered(&mut self.solver, &dip, response),
                        }
                        self.stats.dips += 1;
                        if let Some(on_dip) = term.on_dip {
                            on_dip(self.stats.dips);
                        }
                        if config.record_dips {
                            self.dip_patterns.push(dip);
                        }
                    }
                }
                SolveResult::Unsat => {
                    // No more DIPs: every remaining key is functionally
                    // correct. Key extraction must not assume the miter.
                    if config.cancelled() {
                        return (AttackStatus::Cancelled, None);
                    }
                    return match self.solver.solve(&[]) {
                        SolveResult::Sat => {
                            let bits = miter
                                .keys_left
                                .iter()
                                .map(|&l| self.solver.model_value(l).unwrap_or(false))
                                .collect();
                            (AttackStatus::Success, Some(Key::new(bits)))
                        }
                        SolveResult::Unsat => (AttackStatus::Inconsistent, None),
                        SolveResult::Unknown => (AttackStatus::TimeLimit, None),
                    };
                }
            }
        }
    }
}

/// The DIP-refinement engine: runs the oracle-guided SAT attack on
/// `encoding` in `solver` (a new one from [`AttackEncoding::new`] or one a
/// budgeted run handed back), after pinning `term.force_inputs`. Every
/// [`crate::AttackSession`] term runs through here.
///
/// # Panics
///
/// Panics on an oracle answer of the wrong shape (see [`Run::refine`]).
pub(crate) fn run_sat_attack(
    encoding: &AttackEncoding<'_>,
    mut solver: Solver,
    oracle: &mut dyn Oracle,
    config: &AttackConfig<'_>,
    term: &TermCtl<'_>,
) -> SatAttackOutcome {
    let miter = encoding.miter();
    let queries_at_start = oracle.queries();
    let solver_at_start = *solver.stats();
    // Set once per run, which also clears the clock of a resumed search.
    solver.set_deadline(term.deadline);
    for &(idx, value) in &term.force_inputs {
        let lit = miter.inputs[idx];
        solver.add_clause(&[if value { lit } else { !lit }]);
    }
    let mut run = Run {
        solver,
        oracle,
        queries_at_start,
        solver_at_start,
        stats: AttackStats::default(),
        dip_patterns: Vec::new(),
    };
    let (status, key) = run.refine(encoding, config, term);
    run.finish(status, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimOracle;
    use polykey_encode::build_miter;
    use polykey_locking::{AntiSat, LockScheme, LutLock, Rll, Sarlock};
    use polykey_netlist::analysis::key_reachable_outputs;
    use polykey_netlist::{
        bits_of, keep_outputs, peel_key_free_layers, GateKind, Netlist, Simulator,
    };
    use polykey_sat::Lit;
    use rand::SeedableRng;
    use std::borrow::Cow;

    fn majority3() -> Netlist {
        let mut nl = Netlist::new("maj3");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let ab = nl.add_gate("ab", GateKind::And, &[a, b]).unwrap();
        let ac = nl.add_gate("ac", GateKind::And, &[a, c]).unwrap();
        let bc = nl.add_gate("bc", GateKind::And, &[b, c]).unwrap();
        let y = nl.add_gate("y", GateKind::Or, &[ab, ac, bc]).unwrap();
        nl.mark_output(y).unwrap();
        nl
    }

    /// SARLock |K| = 3 on the majority gate, with the given correct key.
    fn sarlock3(nl: &Netlist, key: u64) -> Netlist {
        Sarlock::new(3).lock(nl, &Key::from_u64(key, 3)).unwrap().netlist
    }

    /// A new search on `locked`: its encoding and a solver holding it.
    fn start(locked: &Netlist) -> (AttackEncoding<'_>, Solver) {
        AttackEncoding::new(locked, false)
    }

    /// Runs one unpinned, unbudgeted term without a deadline or progress
    /// hook.
    fn attack(
        locked: &Netlist,
        oracle: &mut dyn Oracle,
        config: &AttackConfig<'_>,
    ) -> SatAttackOutcome {
        let (encoding, solver) = AttackEncoding::new(locked, config.textbook);
        run_sat_attack(&encoding, solver, oracle, config, &TermCtl::default())
    }

    /// Runs one term under the session defaults.
    fn attack_term(
        locked: &Netlist,
        oracle: &mut dyn Oracle,
        term: &TermCtl<'_>,
    ) -> SatAttackOutcome {
        let (encoding, solver) = start(locked);
        run_sat_attack(&encoding, solver, oracle, &AttackConfig::default(), term)
    }

    /// Checks that a recovered key makes the locked circuit behave like the
    /// original on every input (exhaustive for small circuits).
    fn key_is_functionally_correct(original: &Netlist, locked: &Netlist, key: &Key) -> bool {
        let ni = original.inputs().len();
        let mut orig = Simulator::new(original).unwrap();
        let mut lsim = Simulator::new(locked).unwrap();
        (0..(1u64 << ni)).all(|v| {
            let bits = bits_of(v, ni);
            lsim.eval(&bits, key.bits()) == orig.eval(&bits, &[])
        })
    }

    #[test]
    fn breaks_rll() {
        let nl = majority3();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let locked = Rll::new(4).with_seed(17).lock_random(&nl, &mut rng).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let outcome = attack(&locked.netlist, &mut oracle, &AttackConfig::default());
        assert_eq!(outcome.status, AttackStatus::Success);
        let key = outcome.key.expect("success ⇒ key");
        assert!(key_is_functionally_correct(&nl, &locked.netlist, &key));
        assert_eq!(outcome.stats.oracle_queries, outcome.stats.dips);
    }

    #[test]
    fn breaks_sarlock_with_expected_dip_count() {
        // SARLock with |K| = 3: the miter can eliminate exactly one wrong
        // key per DIP, so the attack needs ≈ 2^|K| - 1 DIPs.
        let nl = majority3();
        let locked = sarlock3(&nl, 0b101);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let outcome = attack(&locked, &mut oracle, &AttackConfig::default());
        assert_eq!(outcome.status, AttackStatus::Success);
        let got = outcome.key.expect("key");
        assert!(key_is_functionally_correct(&nl, &locked, &got));
        assert!(
            (7..=8).contains(&outcome.stats.dips),
            "SARLock |K|=3 needs ~2^3-1 DIPs, got {}",
            outcome.stats.dips
        );
    }

    #[test]
    fn breaks_antisat_functionally() {
        let nl = majority3();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let locked = AntiSat::new(2).lock_random(&nl, &mut rng).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let outcome = attack(&locked.netlist, &mut oracle, &AttackConfig::default());
        assert_eq!(outcome.status, AttackStatus::Success);
        let key = outcome.key.expect("key");
        // The recovered key need not equal the nominal one (Anti-SAT has
        // 2^n correct keys), but it must be functionally correct.
        assert!(key_is_functionally_correct(&nl, &locked.netlist, &key));
    }

    #[test]
    fn batched_attack_matches_sequential_key_with_fewer_rounds() {
        // SARLock |K|=3 needs ~7 DIPs; batching must recover an equally
        // correct key while folding those DIPs into far fewer oracle
        // rounds.
        let nl = majority3();
        let locked = sarlock3(&nl, 0b101);

        let mut oracle = SimOracle::new(&nl).unwrap();
        let sequential = attack(&locked, &mut oracle, &AttackConfig::default());
        assert_eq!(sequential.status, AttackStatus::Success);
        assert_eq!(sequential.stats.oracle_rounds, sequential.stats.dips);

        let config = AttackConfig { dip_batch: 64, ..AttackConfig::default() };
        let mut oracle = SimOracle::new(&nl).unwrap();
        let batched = attack(&locked, &mut oracle, &config);
        assert_eq!(batched.status, AttackStatus::Success);
        let got = batched.key.expect("key");
        assert!(key_is_functionally_correct(&nl, &locked, &got));
        // Every DIP is still one query, but the rounds collapse.
        assert_eq!(batched.stats.oracle_queries, batched.stats.dips);
        assert!(
            batched.stats.oracle_rounds < batched.stats.dips,
            "rounds {} must drop below dips {}",
            batched.stats.oracle_rounds,
            batched.stats.dips
        );
        // All recorded DIPs are distinct: blocking clauses forbid repeats.
        let mut seen = batched.dip_patterns.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), batched.dip_patterns.len());
    }

    #[test]
    fn batch_harvest_respects_dip_limit() {
        // SARLock |K| = 3 needs ~7 DIPs: a 64-DIP batch would drain them
        // all in one round, but the harvest stops at the soft budget.
        let nl = majority3();
        let locked = sarlock3(&nl, 0b110);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let config = AttackConfig { dip_batch: 64, ..AttackConfig::default() };
        let term = TermCtl { dip_budget: Some(2), ..TermCtl::default() };
        let (encoding, solver) = start(&locked);
        let outcome = run_sat_attack(&encoding, solver, &mut oracle, &config, &term);
        assert_eq!(outcome.status, AttackStatus::BudgetExhausted);
        assert_eq!(outcome.stats.dips, 2, "harvest must not overshoot the DIP budget");
        assert_eq!(outcome.stats.oracle_rounds, 1);
        assert!(outcome.key.is_none());
    }

    #[test]
    fn batched_textbook_engine_still_breaks_sarlock() {
        let nl = majority3();
        let locked = sarlock3(&nl, 0b011);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let config = AttackConfig { textbook: true, dip_batch: 8, ..AttackConfig::default() };
        let outcome = attack(&locked, &mut oracle, &config);
        assert_eq!(outcome.status, AttackStatus::Success);
        let got = outcome.key.expect("key");
        assert!(key_is_functionally_correct(&nl, &locked, &got));
        assert!(outcome.stats.oracle_rounds < outcome.stats.dips);
    }

    #[test]
    fn forced_inputs_stay_forced() {
        let nl = majority3();
        let locked = sarlock3(&nl, 0b011);
        // A plain oracle: the unit clauses alone keep every DIP in the
        // a=1 half-space.
        let mut oracle = SimOracle::new(&nl).unwrap();
        let term = TermCtl { force_inputs: vec![(0, true)], ..TermCtl::default() };
        let outcome = attack_term(&locked, &mut oracle, &term);
        assert_eq!(outcome.status, AttackStatus::Success);
        // Every recorded DIP respects the forced bit.
        assert!(outcome.dip_patterns.iter().all(|d| d[0]));
        // The recovered key unlocks the a=1 half-space.
        let got = outcome.key.expect("key");
        let mut orig = Simulator::new(&nl).unwrap();
        let mut lsim = Simulator::new(&locked).unwrap();
        for v in 0..8u64 {
            let bits = bits_of(v, 3);
            if bits[0] {
                assert_eq!(lsim.eval(&bits, got.bits()), orig.eval(&bits, &[]));
            }
        }
    }

    #[test]
    fn keyless_circuit_succeeds_trivially() {
        let nl = majority3();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let outcome = attack(&nl, &mut oracle, &AttackConfig::default());
        assert_eq!(outcome.status, AttackStatus::Success);
        assert_eq!(outcome.stats.dips, 0);
        assert_eq!(outcome.key.expect("empty key").len(), 0);
    }

    #[test]
    fn dip_budget_stops_softly_with_partial_stats() {
        // SARLock |K| = 3 needs ~7 DIPs; a soft budget of 2 must stop the
        // run as BudgetExhausted (a resplit request) with its counters.
        let nl = majority3();
        let locked = sarlock3(&nl, 0b101);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let term = TermCtl { dip_budget: Some(2), ..TermCtl::default() };
        let outcome = attack_term(&locked, &mut oracle, &term);
        assert_eq!(outcome.status, AttackStatus::BudgetExhausted);
        assert_eq!(outcome.stats.dips, 2, "partial stats must survive");
        assert_eq!(outcome.stats.oracle_queries, 2);
        assert!(outcome.key.is_none());
    }

    #[test]
    fn resumed_solver_runs_against_its_own_clock() {
        // A solver handed over from another run keeps that run's deadline;
        // a resumed run without one must clear it rather than stop at once
        // with `TimeLimit`.
        let nl = majority3();
        let locked = sarlock3(&nl, 0b010);
        let (encoding, mut solver) = start(&locked);
        solver.set_deadline(Some(Instant::now()));
        let mut oracle = SimOracle::new(&nl).unwrap();
        let config = AttackConfig::default();
        let outcome =
            run_sat_attack(&encoding, solver, &mut oracle, &config, &TermCtl::default());
        assert_eq!(outcome.status, AttackStatus::Success);
        assert!(outcome.stats.dips > 0);
    }

    #[test]
    fn converging_exactly_at_the_budget_still_succeeds() {
        // The budget only fires when more DIPs are *needed*: a run whose
        // budget equals its natural DIP count must still extract the key.
        let nl = majority3();
        let locked = sarlock3(&nl, 0b011);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let unbudgeted = attack(&locked, &mut oracle, &AttackConfig::default());
        assert_eq!(unbudgeted.status, AttackStatus::Success);
        let term = TermCtl { dip_budget: Some(unbudgeted.stats.dips), ..TermCtl::default() };
        let mut oracle = SimOracle::new(&nl).unwrap();
        let outcome = attack_term(&locked, &mut oracle, &term);
        assert_eq!(outcome.status, AttackStatus::Success);
        assert_eq!(outcome.stats.dips, unbudgeted.stats.dips);
    }

    /// An oracle that answers one query wrong: the `at`-th (counted from
    /// zero over its lifetime) comes back with output `flip` inverted.
    struct FlipOnce<'a> {
        inner: SimOracle<'a>,
        at: u64,
        flip: usize,
        /// The pattern answered wrong, once it was asked.
        flipped: Option<Vec<bool>>,
    }

    impl<'a> FlipOnce<'a> {
        fn new(original: &'a Netlist, at: u64, flip: usize) -> FlipOnce<'a> {
            FlipOnce { inner: SimOracle::new(original).unwrap(), at, flip, flipped: None }
        }
    }

    impl Oracle for FlipOnce<'_> {
        fn num_inputs(&self) -> usize {
            self.inner.num_inputs()
        }

        fn num_outputs(&self) -> usize {
            self.inner.num_outputs()
        }

        fn query(&mut self, input: &[bool]) -> Vec<bool> {
            let asked = self.inner.queries();
            let mut response = self.inner.query(input);
            if asked == self.at {
                response[self.flip] = !response[self.flip];
                self.flipped = Some(input.to_vec());
            }
            response
        }

        fn queries(&self) -> u64 {
            self.inner.queries()
        }
    }

    /// SARLock |K| = 8 on the c432 stand-in, which reaches one of its
    /// seven outputs, with the position of an output the key cannot reach.
    fn sarlock_c432() -> (Netlist, Netlist, usize) {
        let original = polykey_circuits::Iscas85::C432.build();
        let locked = Sarlock::new(8).lock(&original, &Key::from_u64(0xA5, 8)).unwrap().netlist;
        let kept = key_reachable_outputs(&locked);
        assert_eq!(kept.len(), 1);
        let free = (0..locked.outputs().len()).find(|i| !kept.contains(i)).unwrap();
        (original, locked, free)
    }

    #[test]
    fn a_wrong_answer_on_a_key_free_output_ends_the_run_at_its_dip() {
        // The 11th DIP is answered wrong; its copy folds the key-free
        // output to the empty clause, and the next solve ends the run.
        let (original, locked, free) = sarlock_c432();
        let mut oracle = FlipOnce::new(&original, 10, free);
        let outcome = attack(&locked, &mut oracle, &AttackConfig::default());
        assert_eq!(outcome.status, AttackStatus::Inconsistent);
        assert_eq!(outcome.stats.dips, 11);
        assert!(outcome.key.is_none());
    }

    #[test]
    fn a_wrong_answer_in_the_last_partial_batch_is_caught_before_the_key() {
        let (original, locked, free) = sarlock_c432();
        let mut oracle = SimOracle::new(&original).unwrap();
        let clean = attack(&locked, &mut oracle, &AttackConfig::default());
        assert_eq!(clean.status, AttackStatus::Success);
        // The last DIP answered wrong: the solve after it, which would
        // have proven the key, finds no key consistent.
        let at = clean.stats.dips - 1;
        let mut oracle = FlipOnce::new(&original, at, free);
        let outcome = attack(&locked, &mut oracle, &AttackConfig::default());
        assert_eq!(outcome.status, AttackStatus::Inconsistent);
        assert_eq!(outcome.stats.dips, clean.stats.dips);
        assert!(outcome.key.is_none());
    }

    #[test]
    fn a_wrong_answer_ends_a_budgeted_run_before_its_search_is_handed_on() {
        // The 6th of 32 budgeted DIPs is answered wrong: the run ends
        // there, and the search is not handed to children.
        let (original, locked, free) = sarlock_c432();
        let term = TermCtl { dip_budget: Some(32), ..TermCtl::default() };
        let mut oracle = FlipOnce::new(&original, 5, free);
        let outcome = attack_term(&locked, &mut oracle, &term);
        assert_eq!(outcome.status, AttackStatus::Inconsistent);
        assert_eq!(outcome.stats.dips, 6);
        assert!(outcome.solver.is_none());
    }

    #[test]
    fn a_wrong_key_free_answer_stops_folded_and_textbook_runs_at_the_same_dip() {
        // The textbook formulation asserts each response on a full copy,
        // so a wrong answer ends its run in the oracle round that brought
        // it. The folded formulation must stop at the same DIP, for a
        // wrong answer anywhere in the 255-DIP run and for any batch size.
        let (original, locked, free) = sarlock_c432();
        let ats = [0, 10, 63, 100, 254];
        for (dip_batch, expected) in [
            (1, [1, 11, 64, 101, 255]),
            (8, [8, 16, 64, 104, 255]),
            (64, [64, 64, 64, 128, 255]),
        ] {
            for (&at, &dips) in ats.iter().zip(&expected) {
                for textbook in [false, true] {
                    let config =
                        AttackConfig { dip_batch, textbook, ..AttackConfig::default() };
                    let mut oracle = FlipOnce::new(&original, at, free);
                    let outcome = attack(&locked, &mut oracle, &config);
                    let run = format!("batch {dip_batch}, wrong DIP {at}, textbook {textbook}");
                    assert_eq!(outcome.status, AttackStatus::Inconsistent, "{run}");
                    assert_eq!(outcome.stats.dips, dips, "{run}");
                }
            }
        }
    }

    #[test]
    fn only_the_term_answered_wrong_is_inconsistent() {
        // An N = 1 session: the term whose half of the input space holds
        // the wrong answer ends inconsistent, the other term succeeds.
        let (original, locked, free) = sarlock_c432();
        let mut oracle = FlipOnce::new(&original, 20, free);
        let report = crate::AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(1)
            .build()
            .unwrap()
            .run(&locked)
            .unwrap();
        let wrong = oracle.flipped.expect("the 21st query was asked");
        let port = locked.inputs().iter().position(|&id| id == report.split_inputs[0]).unwrap();
        assert_eq!(report.reports.len(), 2);
        for term in &report.reports {
            let expected = if term.pattern == u64::from(wrong[port]) {
                AttackStatus::Inconsistent
            } else {
                AttackStatus::Success
            };
            assert_eq!(term.status, expected, "term {}", term.pattern);
        }
    }

    #[test]
    fn a_resumed_search_catches_a_wrong_answer_of_its_own() {
        // The parent's 32 answers are right and its search is handed on;
        // the child resumes it on one half of the input space and meets
        // the wrong answer among its own first DIPs.
        let (original, locked, free) = sarlock_c432();
        let mut oracle = FlipOnce::new(&original, 35, free);
        let budget = TermCtl { dip_budget: Some(32), ..TermCtl::default() };
        let (encoding, solver) = start(&locked);
        let config = AttackConfig::default();
        let parent = run_sat_attack(&encoding, solver, &mut oracle, &config, &budget);
        assert_eq!(parent.status, AttackStatus::BudgetExhausted);
        let child = TermCtl { force_inputs: vec![(0, true)], ..TermCtl::default() };
        let solver = parent.solver.expect("handed on");
        let outcome = run_sat_attack(&encoding, solver, &mut oracle, &config, &child);
        assert_eq!(outcome.status, AttackStatus::Inconsistent);
        assert!(outcome.stats.dips > 3);
        assert!(outcome.key.is_none());
    }

    /// The key cone `AttackEncoding::new` builds its miter from: every input, and
    /// the outputs the key reaches with their fan-in.
    fn key_cone(locked: &Netlist) -> Netlist {
        keep_outputs(locked, &key_reachable_outputs(locked)).unwrap()
    }

    /// The search's miter must answer like the reference miter of its
    /// whole key cone, `build_miter(cone, cone)`, for every key pair in
    /// `pairs`, given as assumptions, and every DIP it returns must make
    /// the two keys disagree on the whole locked netlist.
    fn assert_peeled_miter_agrees(locked: &Netlist, pairs: &[(Key, Key)]) {
        let (encoding, mut solver) = start(locked);
        let cone = key_cone(locked);
        let mut full_solver = Solver::new();
        let full = build_miter(&mut full_solver, &cone, &cone).unwrap();
        assert!(solver.num_vars() <= full_solver.num_vars());
        let mut sim = Simulator::new(locked).unwrap();
        let assume = |miter: &Miter, k1: &Key, k2: &Key| -> Vec<Lit> {
            let pin = |lits: &[Lit], key: &Key| -> Vec<Lit> {
                lits.iter().zip(key.bits()).map(|(&l, &b)| if b { l } else { !l }).collect()
            };
            let mut lits = vec![miter.diff];
            lits.extend(pin(&miter.keys_left, k1));
            lits.extend(pin(&miter.keys_right, k2));
            lits
        };
        let peeled = encoding.miter();
        for (k1, k2) in pairs {
            let verdict = solver.solve(&assume(peeled, k1, k2));
            assert_eq!(verdict, full_solver.solve(&assume(&full, k1, k2)), "{k1:?} {k2:?}");
            if verdict == SolveResult::Sat {
                let dip: Vec<bool> =
                    peeled.inputs.iter().map(|&l| solver.model_value(l).unwrap()).collect();
                assert_ne!(sim.eval(&dip, k1.bits()), sim.eval(&dip, k2.bits()), "DIP {dip:?}");
            }
        }
    }

    /// Every pair of keys of width `n`.
    fn all_key_pairs(n: usize) -> Vec<(Key, Key)> {
        let keys: Vec<Key> = (0..1u64 << n).map(|k| Key::from_u64(k, n)).collect();
        keys.iter().flat_map(|a| keys.iter().map(move |b| (a.clone(), b.clone()))).collect()
    }

    #[test]
    fn peeled_miter_agrees_on_hand_built_output_chains() {
        // The output chains `polykey-netlist` tests peeling on: each
        // output alone, then all of them.
        let src = include_str!("../../netlist/tests/data/output_chains.bench");
        let nl = polykey_netlist::parse_bench(src.as_bytes(), "chains").unwrap();
        let pairs = all_key_pairs(2);
        for i in 0..nl.outputs().len() {
            assert_peeled_miter_agrees(&keep_outputs(&nl, &[i]).unwrap(), &pairs);
        }
        assert_peeled_miter_agrees(&nl, &pairs);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn peeled_miter_agrees_with_the_whole_cone_miter(
            seed in proptest::prelude::any::<u64>(),
            inputs in 5usize..9,
            outputs in 1usize..5,
            gates in 20usize..60,
        ) {
            let spec = polykey_circuits::RandomCircuitSpec::new(
                "peel", inputs, outputs, gates.max(inputs), seed,
            );
            let original = polykey_circuits::generate_random(&spec);
            let schemes: [Box<dyn LockScheme>; 3] = [
                Box::new(Rll::new(3).with_seed(seed)),
                Box::new(Sarlock::new(4)),
                Box::new(AntiSat::new(2)),
            ];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for scheme in &schemes {
                let locked = scheme.lock_random(&original, &mut rng).unwrap();
                let width = locked.key.len();
                let mut pairs: Vec<(Key, Key)> = (0..16)
                    .map(|_| (Key::random(width, &mut rng), Key::random(width, &mut rng)))
                    .collect();
                pairs.push((locked.key.clone(), locked.key.clone()));
                assert_peeled_miter_agrees(&locked.netlist, &pairs);
            }
        }
    }

    #[test]
    fn a_lut_lock_peels_nothing_and_keeps_its_miter() {
        // LUT outputs end in a MUX tree, so nothing peels and the search's
        // miter is the whole cone's, to the variable and clause.
        let original = polykey_circuits::Iscas85::C432.build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let locked = LutLock::small().with_seed(7).lock_random(&original, &mut rng).unwrap();
        let (_, solver) = start(&locked.netlist);
        let cone = key_cone(&locked.netlist);
        assert!(matches!(peel_key_free_layers(&cone), Cow::Borrowed(_)));
        let mut reference = Solver::new();
        build_miter(&mut reference, &cone, &cone).unwrap();
        let size = |solver: &Solver| (solver.num_vars(), solver.num_clauses());
        assert_eq!(size(&solver), size(&reference));
        assert_eq!(size(&solver), (218, 481));
    }

    #[test]
    fn a_sarlock_miter_encodes_no_original_logic() {
        // SARLock's flip is XORed into one output of c7552: the miter keeps
        // the flip's comparator and mask over the inputs and keys, and no
        // gate of the original circuit under that output.
        let original = polykey_circuits::Iscas85::C7552.build();
        let locked = Sarlock::new(8).lock(&original, &Key::from_u64(0xA5, 8)).unwrap().netlist;
        let (_, solver) = start(&locked);
        let cone = key_cone(&locked);
        let differs = peel_key_free_layers(&cone);
        let keyed = polykey_netlist::analysis::key_controlled_mask(&differs);
        assert!(differs
            .node_ids()
            .all(|id| keyed[id.index()] || differs.node(id).kind().is_input()));
        let (inputs, keys) = (locked.inputs().len(), locked.key_inputs().len());
        let vars = solver.num_vars();
        assert!(
            vars <= inputs + 8 * keys,
            "{vars} variables for {inputs} inputs and {keys} keys"
        );
    }

    #[test]
    fn time_limit_reports_timeout() {
        // An expired session deadline must stop immediately with TimeLimit.
        let nl = majority3();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let locked = Rll::new(4).with_seed(17).lock_random(&nl, &mut rng).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let term = TermCtl { deadline: Some(Instant::now()), ..TermCtl::default() };
        let outcome = attack_term(&locked.netlist, &mut oracle, &term);
        assert_eq!(outcome.status, AttackStatus::TimeLimit);
    }
}
