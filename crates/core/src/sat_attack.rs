//! The oracle-guided SAT attack (Subramanyan, Ray, Malik — HOST'15).
//!
//! The attack loop:
//!
//! 1. Build a miter of two copies of the locked circuit sharing primary
//!    inputs, with independent key vectors `K1`, `K2`.
//! 2. Ask the solver for a *distinguishing input pattern* (DIP): an input on
//!    which some two keys consistent with everything observed so far
//!    disagree.
//! 3. Query the oracle at the DIP and constrain both key copies to
//!    reproduce the observed output (two more CNF copies of the circuit,
//!    with inputs pinned to the DIP so they fold down to key logic only).
//! 4. Repeat until the miter is unsatisfiable: every remaining key is
//!    functionally equivalent on all inputs; return one of them.
//!
//! The solver is used *incrementally*: learnt clauses carry over between
//! iterations, and the miter is kept behind an assumption literal so the
//! final key-extraction solve can ignore it.

use std::time::{Duration, Instant};

use polykey_encode::{
    assert_equal, assert_value, build_miter, encode, Binding, CnfValue, Miter, PortBinding,
};
use polykey_locking::Key;
use polykey_netlist::Netlist;
use polykey_sat::{SolveResult, Solver, SolverConfig, SolverStats};

use crate::error::AttackError;
use crate::oracle::Oracle;
use crate::session::CancelToken;

/// Shared run control the [`crate::AttackSession`] threads through every
/// engine call: an absolute deadline, a cancellation token, and a per-DIP
/// progress hook.
#[derive(Default)]
pub(crate) struct RunCtl<'c> {
    /// Absolute wall-clock deadline: a hard stop, reported as
    /// [`AttackStatus::TimeLimit`].
    pub deadline: Option<Instant>,
    /// Cooperative cancellation, checked once per DIP-refinement
    /// iteration (a running solver call completes first).
    pub cancel: Option<&'c CancelToken>,
    /// Called after each discovered DIP with the running DIP count.
    pub on_dip: Option<&'c (dyn Fn(u64) + Sync)>,
}

impl RunCtl<'_> {
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }
}

/// Tuning knobs for one SAT attack run.
#[derive(Clone, Debug, Default)]
pub(crate) struct SatAttackConfig {
    /// Stop after this many DIPs (None = unlimited).
    pub max_dips: Option<u64>,
    /// Force these primary-input positions to fixed values in every DIP
    /// (used by the multi-key attack to stay inside one sub-space).
    pub force_inputs: Vec<(usize, bool)>,
    /// Solver configuration.
    pub solver: SolverConfig,
    /// Record every DIP pattern in the outcome.
    pub record_dips: bool,
    /// Encode per-DIP consistency constraints with inputs pinned as
    /// constants, folding each copy down to the key cone (`true`, the
    /// optimized default) — or as full circuit copies with unit clauses on
    /// the inputs (`false`), the textbook formulation of the original SAT
    /// attack and of the paper's tooling, whose per-iteration CNF growth is
    /// what makes LUT-based insertion expensive in Table 2.
    pub fold_dip_copies: bool,
    /// Soft DIP budget: stop with [`AttackStatus::BudgetExhausted`] after
    /// this many DIPs (None = no budget). Unlike `max_dips` — a hard
    /// user-facing cap reported as [`AttackStatus::DipLimit`] — exhausting
    /// this budget is a *scheduling* signal: the adaptive multi-key engine
    /// reads it as "this term is too hard at its current depth, split it
    /// deeper". When both are set and reached together, the hard cap wins.
    pub dip_budget: Option<u64>,
    /// Soft wall-clock budget for this run: expiring it reports
    /// [`AttackStatus::BudgetExhausted`] (with partial stats) instead of
    /// [`AttackStatus::TimeLimit`], which remains reserved for the hard
    /// session deadline in [`RunCtl`]. Used by the adaptive multi-key
    /// engine as the per-term resplit trigger.
    pub time_budget: Option<Duration>,
    /// Maximum DIPs harvested per oracle round-trip (values `0` and `1`
    /// both mean the classic one-DIP-per-round loop).
    ///
    /// With `dip_batch = k > 1`, each refinement epoch re-solves the miter
    /// under blocking clauses to collect up to `k` distinct DIPs, answers
    /// them all in a single [`Oracle::query_batch`] call, and only then
    /// asserts the consistency constraints. Oracles backed by the packed
    /// simulator serve up to 64 patterns per simulation pass, so `64`
    /// matches the simulator word width. The recovered key is functionally
    /// identical either way; the trade is more (cheap) solver calls and
    /// possibly redundant DIPs against far fewer (expensive) oracle
    /// round-trips — see `SatAttackStats::oracle_rounds`.
    pub dip_batch: usize,
}

impl SatAttackConfig {
    /// The default configuration: unlimited, recording DIPs, folding
    /// per-DIP copies, one DIP per oracle round.
    pub fn new() -> SatAttackConfig {
        SatAttackConfig {
            record_dips: true,
            fold_dip_copies: true,
            dip_batch: 1,
            ..Default::default()
        }
    }
}

/// How a SAT attack run ended.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AttackStatus {
    /// The key space was exhausted and a functionally correct key returned.
    Success,
    /// Stopped at the configured DIP limit.
    DipLimit,
    /// Stopped at the configured time limit.
    TimeLimit,
    /// Stopped at a *soft* per-term budget
    /// ([`crate::AttackSessionBuilder::term_dip_budget`] /
    /// [`crate::AttackSessionBuilder::term_time_budget`]) with partial
    /// stats intact. The adaptive multi-key scheduler reacts by splitting
    /// the term one port deeper and re-attacking both halves.
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

/// Work counters for one SAT attack run.
#[derive(Clone, Debug, Default)]
pub struct SatAttackStats {
    /// Distinguishing input patterns found (`#DIP` in the paper).
    pub dips: u64,
    /// Oracle queries issued (one per answered DIP, regardless of
    /// batching).
    pub oracle_queries: u64,
    /// Oracle round-trips: a batch of DIPs answered by one
    /// [`Oracle::query_batch`] call counts once. Equals `oracle_queries`
    /// when `dip_batch <= 1`; the gap between the two is exactly what
    /// batching saves.
    pub oracle_rounds: u64,
    /// DIP-refinement epochs: satisfiable outer miter solves, each of which
    /// harvested one batch of DIPs. Equals `oracle_rounds` under the
    /// current one-round-per-epoch engine; kept separate so the telemetry
    /// stays truthful if the pipelines ever diverge.
    pub epochs: u64,
    /// Total wall-clock time.
    pub wall_time: Duration,
    /// Final solver counters (cumulative over all iterations).
    pub solver: SolverStats,
    /// CNF variables at the end of the attack.
    pub cnf_vars: usize,
    /// CNF clauses at the end of the attack (original, excluding learnt).
    pub cnf_clauses: usize,
}

/// The result of a SAT attack run.
#[derive(Clone, Debug)]
pub(crate) struct SatAttackOutcome {
    /// Terminal status.
    pub status: AttackStatus,
    /// The recovered key (present on [`AttackStatus::Success`]).
    pub key: Option<Key>,
    /// The DIPs, in discovery order (if `record_dips` was set).
    pub dip_patterns: Vec<Vec<bool>>,
    /// Work counters.
    pub stats: SatAttackStats,
}

/// A DIP harvested in the current epoch but not yet answered by the
/// oracle. All but the last DIP of a batch carry their already-encoded
/// constraint copies (`[left, right]` output values), added during the
/// harvest to steer subsequent re-solves; the oracle's response is later
/// asserted directly on those values.
struct PendingDip {
    dip: Vec<bool>,
    copies: Option<[Vec<CnfValue>; 2]>,
}

/// Encodes one consistency-constraint copy of `locked` at `dip` for the
/// given shared key literals, returning the copy's output values. In the
/// folded mode inputs are pinned as constants (the copy collapses to its
/// key cone); in textbook mode a full copy is added with unit clauses on
/// the inputs.
fn encode_constraint_copy(
    solver: &mut Solver,
    locked: &Netlist,
    config: &SatAttackConfig,
    dip: &[bool],
    keys: &[polykey_sat::Lit],
) -> Result<Vec<CnfValue>, AttackError> {
    let binding = if config.fold_dip_copies {
        Binding::with_pinned_inputs_shared_keys(dip, keys)
    } else {
        let mut b = Binding::fresh(locked);
        b.keys = keys.iter().map(|&l| PortBinding::Shared(l)).collect();
        b
    };
    let enc = encode(solver, locked, &binding)?;
    if !config.fold_dip_copies {
        for (val, &bit) in enc.inputs.iter().zip(dip) {
            assert_value(solver, *val, bit);
        }
    }
    Ok(enc.outputs)
}

/// The mutable state of one DIP-refinement run: the incremental solver,
/// the oracle, and the counters every exit reports.
struct Run<'o> {
    solver: Solver,
    oracle: &'o mut dyn Oracle,
    start: Instant,
    queries_at_start: u64,
    dips: u64,
    oracle_rounds: u64,
    epochs: u64,
    dip_patterns: Vec<Vec<bool>>,
}

impl Run<'_> {
    /// Closes the run with its terminal status and key.
    fn finish(self, status: AttackStatus, key: Option<Key>) -> SatAttackOutcome {
        SatAttackOutcome {
            status,
            key,
            dip_patterns: self.dip_patterns,
            stats: SatAttackStats {
                dips: self.dips,
                oracle_queries: self.oracle.queries() - self.queries_at_start,
                oracle_rounds: self.oracle_rounds,
                epochs: self.epochs,
                wall_time: self.start.elapsed(),
                solver: *self.solver.stats(),
                cnf_vars: self.solver.num_vars(),
                cnf_clauses: self.solver.num_clauses(),
            },
        }
    }

    /// Reads the current model's primary-input assignment — one DIP.
    fn extract_dip(&self, miter: &Miter) -> Vec<bool> {
        miter.inputs.iter().map(|&l| self.solver.model_value(l).unwrap_or(false)).collect()
    }

    /// The DIP-refinement loop: runs until the key space is exhausted or a
    /// limit stops it, and returns how it ended.
    fn refine(
        &mut self,
        locked: &Netlist,
        miter: &Miter,
        config: &SatAttackConfig,
        ctl: &RunCtl<'_>,
    ) -> Result<(AttackStatus, Option<Key>), AttackError> {
        // The session deadline is a hard stop (`TimeLimit`); the soft
        // per-run budget reports `BudgetExhausted`. The solver runs against
        // whichever comes first.
        let hard_deadline = ctl.deadline;
        let soft_deadline = config.time_budget.map(|budget| self.start + budget);
        let deadline = match (hard_deadline, soft_deadline) {
            (Some(h), Some(s)) => Some(h.min(s)),
            (h, s) => h.or(s),
        };
        // Which status an expired clock maps to: the hard deadline wins when
        // both have passed, so a session timeout is never misread as a
        // resplit request.
        let expiry_status = |now: Instant| -> AttackStatus {
            match (hard_deadline, soft_deadline) {
                (Some(h), _) if now >= h => AttackStatus::TimeLimit,
                (_, Some(s)) if now >= s => AttackStatus::BudgetExhausted,
                _ => AttackStatus::TimeLimit,
            }
        };

        loop {
            // Cooperative cancellation, once per refinement iteration.
            if ctl.cancelled() {
                return Ok((AttackStatus::Cancelled, None));
            }
            // Respect the wall-clock budget across solver calls.
            if let Some(dl) = deadline {
                let now = Instant::now();
                if now >= dl {
                    return Ok((expiry_status(now), None));
                }
                self.solver.set_time_budget(Some(dl - now));
            }
            match self.solver.solve(&[miter.diff]) {
                SolveResult::Unknown => return Ok((expiry_status(Instant::now()), None)),
                SolveResult::Sat => {
                    // The miter is still satisfiable, so more DIPs are
                    // needed: a spent soft budget means this term is too
                    // hard at its current depth. (Checked only here — a term
                    // that converges exactly at its budget still succeeds.)
                    if config.dip_budget.is_some_and(|budget| self.dips >= budget) {
                        return Ok((AttackStatus::BudgetExhausted, None));
                    }
                    self.epochs += 1;
                    // Harvest up to `dip_batch` distinct DIPs before paying
                    // the oracle round-trip. After each harvested DIP the two
                    // constraint copies are encoded immediately and their
                    // outputs tied together (`assert_equal`): requiring the
                    // key copies to *agree* at the pending input is a
                    // relaxation of the response constraint asserted below
                    // once the oracle answers, so no consistent key pair is
                    // lost — but the re-solve can no longer return a key
                    // pair the pending answer would eliminate anyway,
                    // steering every harvested DIP toward fresh key-space.
                    // The copies are kept so the answer lands on the same
                    // CNF: batching costs no extra circuit encodings over
                    // the classic loop.
                    let mut batch: Vec<PendingDip> = Vec::new();
                    let mut dip = self.extract_dip(miter);
                    // Never harvest past the DIP limit or the soft DIP budget.
                    let remaining = [config.max_dips, config.dip_budget]
                        .into_iter()
                        .flatten()
                        .map(|cap| cap.saturating_sub(self.dips))
                        .min();
                    let target = match remaining {
                        Some(r) => config.dip_batch.max(1).min((r.max(1)) as usize),
                        None => config.dip_batch.max(1),
                    };
                    loop {
                        if batch.len() + 1 >= target || ctl.cancelled() {
                            // The epoch's last DIP needs no steering copies;
                            // it is encoded on the classic path when answered.
                            batch.push(PendingDip { dip, copies: None });
                            break;
                        }
                        let left = encode_constraint_copy(
                            &mut self.solver,
                            locked,
                            config,
                            &dip,
                            &miter.keys_left,
                        )?;
                        let right = encode_constraint_copy(
                            &mut self.solver,
                            locked,
                            config,
                            &dip,
                            &miter.keys_right,
                        )?;
                        for (&l, &r) in left.iter().zip(&right) {
                            assert_equal(&mut self.solver, l, r);
                        }
                        batch.push(PendingDip { dip, copies: Some([left, right]) });
                        if let Some(dl) = deadline {
                            let now = Instant::now();
                            if now >= dl {
                                break;
                            }
                            self.solver.set_time_budget(Some(dl - now));
                        }
                        match self.solver.solve(&[miter.diff]) {
                            SolveResult::Sat => dip = self.extract_dip(miter),
                            // Unsat: the epoch drained every remaining DIP
                            // (the outer loop terminates once the answers
                            // land). Unknown: out of time budget; answer what
                            // we have.
                            SolveResult::Unsat | SolveResult::Unknown => break,
                        }
                    }
                    // One oracle round answers the whole batch.
                    let patterns: Vec<Vec<bool>> =
                        batch.iter().map(|p| p.dip.clone()).collect();
                    let responses = self.oracle.query_batch(&patterns);
                    self.oracle_rounds += 1;
                    for (pending, response) in batch.iter().zip(&responses) {
                        self.dips += 1;
                        if let Some(on_dip) = ctl.on_dip {
                            on_dip(self.dips);
                        }
                        if config.record_dips {
                            self.dip_patterns.push(pending.dip.clone());
                        }
                        // Both key copies must reproduce the response at
                        // this input.
                        match &pending.copies {
                            Some(copies) => {
                                for outputs in copies {
                                    for (out, &bit) in outputs.iter().zip(response) {
                                        assert_value(&mut self.solver, *out, bit);
                                    }
                                }
                            }
                            None => {
                                for keys in [&miter.keys_left, &miter.keys_right] {
                                    let outputs = encode_constraint_copy(
                                        &mut self.solver,
                                        locked,
                                        config,
                                        &pending.dip,
                                        keys,
                                    )?;
                                    for (out, &bit) in outputs.iter().zip(response) {
                                        assert_value(&mut self.solver, *out, bit);
                                    }
                                }
                            }
                        }
                    }
                    if config.max_dips.is_some_and(|max| self.dips >= max) {
                        return Ok((AttackStatus::DipLimit, None));
                    }
                }
                SolveResult::Unsat => {
                    // No more DIPs: every remaining key is functionally
                    // correct. Key extraction must not assume the miter.
                    if ctl.cancelled() {
                        return Ok((AttackStatus::Cancelled, None));
                    }
                    // Only the *hard* deadline gates key extraction: the
                    // search has converged, so a soft budget expiring here
                    // must not discard the (one cheap solve away) key and
                    // force a pointless resplit.
                    if let Some(dl) = hard_deadline {
                        let now = Instant::now();
                        if now >= dl {
                            return Ok((AttackStatus::TimeLimit, None));
                        }
                        self.solver.set_time_budget(Some(dl - now));
                    } else {
                        // Clear any stale soft-budget allowance from the loop.
                        self.solver.set_time_budget(None);
                    }
                    return Ok(match self.solver.solve(&[]) {
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
                    });
                }
            }
        }
    }
}

/// The DIP-refinement engine: runs the oracle-guided SAT attack against
/// `locked`. Every [`crate::AttackSession`] term runs through here.
///
/// # Errors
///
/// - [`AttackError::OracleMismatch`] if the oracle's port counts disagree
///   with the locked netlist.
/// - [`AttackError::Miter`] / [`AttackError::Encode`] for structural
///   failures (e.g. cyclic netlists).
pub(crate) fn run_sat_attack(
    locked: &Netlist,
    oracle: &mut dyn Oracle,
    config: &SatAttackConfig,
    ctl: &RunCtl<'_>,
) -> Result<SatAttackOutcome, AttackError> {
    if oracle.num_inputs() != locked.inputs().len() {
        return Err(AttackError::OracleMismatch {
            what: "inputs",
            netlist: locked.inputs().len(),
            oracle: oracle.num_inputs(),
        });
    }
    if oracle.num_outputs() != locked.outputs().len() {
        return Err(AttackError::OracleMismatch {
            what: "outputs",
            netlist: locked.outputs().len(),
            oracle: oracle.num_outputs(),
        });
    }
    let start = Instant::now();
    let queries_at_start = oracle.queries();
    let mut solver = Solver::with_config(config.solver);
    let miter = build_miter(&mut solver, locked, locked)?;
    for &(idx, value) in &config.force_inputs {
        let lit = miter.inputs[idx];
        solver.add_clause(&[if value { lit } else { !lit }]);
    }
    let mut run = Run {
        solver,
        oracle,
        start,
        queries_at_start,
        dips: 0,
        oracle_rounds: 0,
        epochs: 0,
        dip_patterns: Vec::new(),
    };
    let (status, key) = run.refine(locked, &miter, config, ctl)?;
    Ok(run.finish(status, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimOracle;
    use polykey_locking::{AntiSat, LockScheme, Rll, Sarlock};
    use polykey_netlist::{bits_of, GateKind, Simulator};
    use rand::SeedableRng;

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

    /// Runs the engine without a deadline, cancellation or progress hook.
    fn attack(
        locked: &Netlist,
        oracle: &mut dyn Oracle,
        config: &SatAttackConfig,
    ) -> Result<SatAttackOutcome, AttackError> {
        run_sat_attack(locked, oracle, config, &RunCtl::default())
    }

    /// Runs the engine under a session deadline that has already passed.
    fn attack_past_deadline(
        locked: &Netlist,
        oracle: &mut dyn Oracle,
        config: &SatAttackConfig,
    ) -> SatAttackOutcome {
        let ctl = RunCtl { deadline: Some(Instant::now()), ..RunCtl::default() };
        run_sat_attack(locked, oracle, config, &ctl).unwrap()
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
        let outcome = attack(&locked.netlist, &mut oracle, &SatAttackConfig::new()).unwrap();
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
        let outcome = attack(&locked, &mut oracle, &SatAttackConfig::new()).unwrap();
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
        let outcome = attack(&locked.netlist, &mut oracle, &SatAttackConfig::new()).unwrap();
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
        let sequential = attack(&locked, &mut oracle, &SatAttackConfig::new()).unwrap();
        assert_eq!(sequential.status, AttackStatus::Success);
        assert_eq!(sequential.stats.oracle_rounds, sequential.stats.dips);

        let config = SatAttackConfig { dip_batch: 64, ..SatAttackConfig::new() };
        let mut oracle = SimOracle::new(&nl).unwrap();
        let batched = attack(&locked, &mut oracle, &config).unwrap();
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
        let nl = majority3();
        let locked = sarlock3(&nl, 0b110);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let config =
            SatAttackConfig { max_dips: Some(2), dip_batch: 64, ..SatAttackConfig::new() };
        let outcome = attack(&locked, &mut oracle, &config).unwrap();
        assert_eq!(outcome.status, AttackStatus::DipLimit);
        assert_eq!(outcome.stats.dips, 2, "harvest must not overshoot max_dips");
        assert_eq!(outcome.stats.oracle_rounds, 1);
    }

    #[test]
    fn batched_textbook_engine_still_breaks_sarlock() {
        let nl = majority3();
        let locked = sarlock3(&nl, 0b011);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let config =
            SatAttackConfig { fold_dip_copies: false, dip_batch: 8, ..SatAttackConfig::new() };
        let outcome = attack(&locked, &mut oracle, &config).unwrap();
        assert_eq!(outcome.status, AttackStatus::Success);
        let got = outcome.key.expect("key");
        assert!(key_is_functionally_correct(&nl, &locked, &got));
        assert!(outcome.stats.oracle_rounds < outcome.stats.dips);
    }

    #[test]
    fn dip_limit_stops_early() {
        let nl = majority3();
        let locked = sarlock3(&nl, 0b110);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let config = SatAttackConfig { max_dips: Some(2), ..SatAttackConfig::new() };
        let outcome = attack(&locked, &mut oracle, &config).unwrap();
        assert_eq!(outcome.status, AttackStatus::DipLimit);
        assert_eq!(outcome.stats.dips, 2);
        assert!(outcome.key.is_none());
    }

    #[test]
    fn forced_inputs_stay_forced() {
        let nl = majority3();
        let locked = sarlock3(&nl, 0b011);
        let inner = SimOracle::new(&nl).unwrap();
        let mut oracle = crate::oracle::RestrictedOracle::new(inner, vec![(0, true)]);
        let config =
            SatAttackConfig { force_inputs: vec![(0, true)], ..SatAttackConfig::new() };
        let outcome = attack(&locked, &mut oracle, &config).unwrap();
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
        let outcome = attack(&nl, &mut oracle, &SatAttackConfig::new()).unwrap();
        assert_eq!(outcome.status, AttackStatus::Success);
        assert_eq!(outcome.stats.dips, 0);
        assert_eq!(outcome.key.expect("empty key").len(), 0);
    }

    #[test]
    fn oracle_width_mismatch_rejected() {
        let nl = majority3();
        let mut big = Netlist::new("big");
        for i in 0..4 {
            big.add_input(format!("x{i}")).unwrap();
        }
        let inputs = big.inputs().to_vec();
        let g = big.add_gate("g", GateKind::And, &inputs).unwrap();
        big.mark_output(g).unwrap();
        let mut oracle = SimOracle::new(&big).unwrap();
        assert!(matches!(
            attack(&nl, &mut oracle, &SatAttackConfig::new()),
            Err(AttackError::OracleMismatch { what: "inputs", .. })
        ));
    }

    #[test]
    fn dip_budget_stops_softly_with_partial_stats() {
        // SARLock |K| = 3 needs ~7 DIPs; a soft budget of 2 must stop the
        // run as BudgetExhausted (a resplit request), not DipLimit.
        let nl = majority3();
        let locked = sarlock3(&nl, 0b101);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let config = SatAttackConfig { dip_budget: Some(2), ..SatAttackConfig::new() };
        let outcome = attack(&locked, &mut oracle, &config).unwrap();
        assert_eq!(outcome.status, AttackStatus::BudgetExhausted);
        assert_eq!(outcome.stats.dips, 2, "partial stats must survive");
        assert_eq!(outcome.stats.oracle_queries, 2);
        assert!(outcome.key.is_none());
    }

    #[test]
    fn converging_exactly_at_the_budget_still_succeeds() {
        // The budget only fires when more DIPs are *needed*: a run whose
        // budget equals its natural DIP count must still extract the key.
        let nl = majority3();
        let locked = sarlock3(&nl, 0b011);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let unbudgeted = attack(&locked, &mut oracle, &SatAttackConfig::new()).unwrap();
        assert_eq!(unbudgeted.status, AttackStatus::Success);
        let config = SatAttackConfig {
            dip_budget: Some(unbudgeted.stats.dips),
            ..SatAttackConfig::new()
        };
        let mut oracle = SimOracle::new(&nl).unwrap();
        let outcome = attack(&locked, &mut oracle, &config).unwrap();
        assert_eq!(outcome.status, AttackStatus::Success);
        assert_eq!(outcome.stats.dips, unbudgeted.stats.dips);
    }

    #[test]
    fn zero_time_budget_reports_budget_exhausted() {
        // The soft clock maps to BudgetExhausted; the hard session deadline
        // keeps reporting TimeLimit (see `time_limit_reports_timeout`).
        let nl = majority3();
        let locked = sarlock3(&nl, 0b110);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let config =
            SatAttackConfig { time_budget: Some(Duration::ZERO), ..SatAttackConfig::new() };
        let outcome = attack(&locked, &mut oracle, &config).unwrap();
        assert_eq!(outcome.status, AttackStatus::BudgetExhausted);
    }

    #[test]
    fn hard_deadline_outranks_soft_budget() {
        // With both clocks expired the hard deadline wins: a session
        // timeout must never be misread as a resplit request.
        let nl = majority3();
        let locked = sarlock3(&nl, 0b001);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let config =
            SatAttackConfig { time_budget: Some(Duration::ZERO), ..SatAttackConfig::new() };
        let outcome = attack_past_deadline(&locked, &mut oracle, &config);
        assert_eq!(outcome.status, AttackStatus::TimeLimit);
    }

    #[test]
    fn time_limit_reports_timeout() {
        // An expired session deadline must stop immediately with TimeLimit.
        let nl = majority3();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let locked = Rll::new(4).with_seed(17).lock_random(&nl, &mut rng).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let outcome =
            attack_past_deadline(&locked.netlist, &mut oracle, &SatAttackConfig::new());
        assert_eq!(outcome.status, AttackStatus::TimeLimit);
    }
}
