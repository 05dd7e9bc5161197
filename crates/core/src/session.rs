//! The [`AttackSession`] builder: one attack surface for every scenario.
//!
//! A session bundles the attacker's oracle with every knob the suite's
//! attacks share — splitting effort, worker threads, wall-clock budget,
//! cancellation, progress reporting — behind a single [`AttackSession::run`]
//! returning an [`AttackReport`]. Every run goes through one engine, the
//! term tree of Algorithm 1: `split_effort = N > 0` starts from `2^N`
//! sub-attacks, and `split_effort = 0` is a one-term tree — the classic
//! one-key SAT attack on the locked netlist as given, run on the calling
//! thread. Either way each term reports one [`AttackStats`] work record
//! and [`AttackReport::stats`] sums them, so harnesses sweep schemes ×
//! efforts × circuits without caring how the tree grew.
//!
//! # Examples
//!
//! ```
//! use polykey_attack::{AttackSession, SimOracle};
//! use polykey_encode::{check_equivalence, EquivResult};
//! use polykey_locking::{Key, LockScheme, Sarlock};
//! use polykey_netlist::{GateKind, Netlist};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A toy design, locked with SARLock (|K| = 3).
//! let mut nl = Netlist::new("toy");
//! let a = nl.add_input("a")?;
//! let b = nl.add_input("b")?;
//! let c = nl.add_input("c")?;
//! let g = nl.add_gate("g", GateKind::And, &[a, b])?;
//! let y = nl.add_gate("y", GateKind::Xor, &[g, c])?;
//! nl.mark_output(y)?;
//! let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(5, 3))?;
//!
//! // Algorithm 1 with N = 1: two parallel sub-attacks.
//! let mut oracle = SimOracle::new(&nl)?;
//! let report = AttackSession::builder()
//!     .oracle(&mut oracle)
//!     .split_effort(1)
//!     .build()?
//!     .run(&locked.netlist)?;
//! assert!(report.is_complete());
//!
//! // Fig. 1(b): recombine the sub-space keys — and prove the result
//! // equivalent to the original design.
//! let unlocked = report.recombine(&locked.netlist)?;
//! assert_eq!(check_equivalence(&nl, &unlocked)?, EquivResult::Equivalent);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use polykey_locking::Key;
use polykey_netlist::{Netlist, NodeId};
use polykey_sat::SolverStats;

use crate::error::AttackError;
use crate::multikey::{run_multi_key, SubKey, SubTaskReport};
use crate::oracle::{Oracle, SharedOracle};
use crate::recombine::recombine_multikey;
use crate::sat_attack::AttackStatus;
use crate::split::SplitStrategy;

/// A cloneable cooperative-cancellation handle.
///
/// Cancelling stops every sub-attack of the session at its next
/// DIP-refinement iteration (a running solver call completes first); the
/// affected runs report [`AttackStatus::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent; visible to all clones).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Progress notifications delivered to [`AttackSessionBuilder::on_progress`].
///
/// Callbacks may arrive concurrently from the session's worker threads.
#[derive(Clone, Debug)]
pub enum ProgressEvent {
    /// A sub-attack (term) is about to start. The plain SAT attack reports
    /// one term with `pattern = 0, width = 0`.
    TermStarted {
        /// The term's prefix-tree path (see [`crate::SubKey::pattern`]).
        pattern: u64,
        /// The path's width (depth in the adaptive term tree).
        width: u8,
        /// Terms spawned so far in this session run. Static runs report
        /// the fixed `2^N` count; adaptive runs grow it with every
        /// resplit.
        terms: usize,
        /// Gates in the netlist this term's solver encodes: the locked
        /// netlist, which every term of the session shares.
        gates: usize,
    },
    /// A distinguishing input pattern was found.
    Dip {
        /// The path of the term that found it.
        pattern: u64,
        /// That term's path width.
        width: u8,
        /// That term's running DIP count.
        dips: u64,
    },
    /// A sub-attack finished (for budget-exhausted terms, a
    /// [`ProgressEvent::TermSplit`] follows).
    TermFinished {
        /// The term's prefix-tree path.
        pattern: u64,
        /// The path's width.
        width: u8,
        /// How the term ended.
        status: AttackStatus,
        /// The term's work record, as in its [`SubTaskReport::stats`].
        stats: AttackStats,
    },
    /// A term exhausted its per-term budget and was subdivided: its two
    /// children (paths one bit wider) re-enter the work queue and resume
    /// its search.
    TermSplit {
        /// The exhausted term's prefix-tree path.
        pattern: u64,
        /// The path's width (children have `width + 1`).
        width: u8,
        /// DIPs the term spent before giving up: kept in the totals, and
        /// kept by the children, whose solvers hold their constraints.
        dips: u64,
    },
}

/// The work record of one term ([`SubTaskReport::stats`]), or of a term
/// tree summed over its terms with `+=` ([`AttackReport::stats`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AttackStats {
    /// Distinguishing input patterns (`#DIP` in the paper).
    pub dips: u64,
    /// Oracle queries (one per answered DIP, regardless of batching).
    pub oracle_queries: u64,
    /// Oracle round-trips. With [`AttackSessionBuilder::dip_batch`] `> 1`
    /// a whole batch of DIPs is answered per round, so this drops well
    /// below `oracle_queries`; the two are equal for the classic loop.
    pub oracle_rounds: u64,
    /// CDCL solver counters (conflicts, restarts, learnt clauses, …). A
    /// term that resumed its parent's search counts from the resume point,
    /// so sums over a tree count each search step once.
    pub solver: SolverStats,
    /// A term's wall-clock time, a root term's with the session's one
    /// encoding, which it would pay alone. Summed over a tree: the total
    /// work (the makespan is [`AttackReport::wall_time`]).
    pub term_time: Duration,
    /// The slowest term's `term_time`: sums combine it by max.
    slowest_term: Duration,
}

impl AttackStats {
    /// The record of one term that took `term_time`.
    pub(crate) fn timed(self, term_time: Duration) -> AttackStats {
        AttackStats { term_time, slowest_term: term_time, ..self }
    }

    /// The slowest term: the attack latency on a machine with a core per
    /// term, the paper's headline metric.
    #[must_use]
    pub fn max_subtask_time(&self) -> Duration {
        self.slowest_term
    }

    /// Every field as a `(name, value)` pair, times in milliseconds: the
    /// names bench telemetry records.
    #[must_use]
    pub fn metrics(&self) -> [(&'static str, f64); 14] {
        let SolverStats {
            decisions,
            conflicts,
            propagations,
            restarts,
            learnt_clauses,
            deleted_clauses,
            minimized_lits,
            solves,
            merged_clauses,
        } = self.solver;
        let ms = |time: Duration| time.as_secs_f64() * 1e3;
        [
            ("dips", self.dips as f64),
            ("oracle_queries", self.oracle_queries as f64),
            ("oracle_rounds", self.oracle_rounds as f64),
            ("decisions", decisions as f64),
            ("conflicts", conflicts as f64),
            ("propagations", propagations as f64),
            ("restarts", restarts as f64),
            ("learnt_clauses", learnt_clauses as f64),
            ("deleted_clauses", deleted_clauses as f64),
            ("minimized_lits", minimized_lits as f64),
            ("solves", solves as f64),
            ("merged_clauses", merged_clauses as f64),
            ("term_ms", ms(self.term_time)),
            ("max_term_ms", ms(self.slowest_term)),
        ]
    }
}

/// Counts and `term_time` add up; the slowest term is the slower one.
impl std::ops::AddAssign for AttackStats {
    fn add_assign(&mut self, other: AttackStats) {
        self.dips += other.dips;
        self.oracle_queries += other.oracle_queries;
        self.oracle_rounds += other.oracle_rounds;
        self.solver += other.solver;
        self.term_time += other.term_time;
        self.slowest_term = self.slowest_term.max(other.slowest_term);
    }
}

/// The result of [`AttackSession::run`]: the term tree the attack grew,
/// with one leaf per sub-space (a single `pattern = 0, width = 0` leaf for
/// `split_effort = 0`).
#[derive(Clone, Debug)]
pub struct AttackReport {
    /// The recovered sub-space keys (one per *successful* leaf term),
    /// shallowest first, then by pattern.
    pub keys: Vec<SubKey>,
    /// Accounting for every leaf term of the final tree, shallowest first,
    /// then by pattern.
    pub reports: Vec<SubTaskReport>,
    /// Accounting for interior terms: runs that exhausted their budget and
    /// were subdivided ([`AttackStatus::BudgetExhausted`]). Their work
    /// counters are real attack cost and are included in [`AttackStats`]
    /// totals; empty in static runs.
    pub resplit_reports: Vec<SubTaskReport>,
    /// The splitting ports (ids in the locked netlist) in pattern bit
    /// order: a term of width `w` pins the first `w` entries. The session
    /// ranks them once; the list holds as many as the deepest leaf pins,
    /// and never fewer than the root `N`.
    pub split_inputs: Vec<NodeId>,
    /// End-to-end wall-clock time of the whole attack.
    pub wall_time: Duration,
}

impl AttackReport {
    /// True iff every leaf term ended in [`AttackStatus::Success`].
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.status() == AttackStatus::Success
    }

    /// The overall status: [`AttackStatus::Success`] when complete,
    /// otherwise the first non-success leaf status.
    #[must_use]
    pub fn status(&self) -> AttackStatus {
        self.reports
            .iter()
            .map(|r| r.status)
            .find(|&s| s != AttackStatus::Success)
            .unwrap_or(AttackStatus::Success)
    }

    /// The recovered globally-correct key, when one exists: the key of a
    /// tree that never split (its single width-0 leaf).
    #[must_use]
    pub fn key(&self) -> Option<&Key> {
        match &self.keys[..] {
            [sub] if sub.width == 0 => Some(&sub.key),
            _ => None,
        }
    }

    /// The deepest leaf width in the final tree (the root `N` for static
    /// runs).
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.reports.iter().map(|r| r.width as usize).max().unwrap_or(0)
    }

    /// Every term that did work: the leaves in [`AttackReport::reports`]
    /// order, then the resplit terms in [`AttackReport::resplit_reports`]
    /// order.
    pub fn terms(&self) -> impl Iterator<Item = &SubTaskReport> {
        self.reports.iter().chain(&self.resplit_reports)
    }

    /// The whole tree's work: the sum over [`AttackReport::terms`], so it
    /// counts what budget-exhausted interior terms spent too.
    #[must_use]
    pub fn stats(&self) -> AttackStats {
        let mut total = AttackStats::default();
        for term in self.terms() {
            total += term.stats;
        }
        total
    }

    /// Builds the recombined, keyless netlist (Fig. 1(b)): a MUX tree over
    /// the split ports selecting each sub-space's key — for a tree that
    /// never split, the locked design with the recovered key pinned.
    ///
    /// # Errors
    ///
    /// [`AttackError::BadKeySet`] if the run was incomplete (some term has
    /// no key), plus structural netlist errors.
    pub fn recombine(&self, locked: &Netlist) -> Result<Netlist, AttackError> {
        recombine_multikey(locked, &self.split_inputs, &self.keys)
    }
}

type ProgressFn<'a> = dyn Fn(&ProgressEvent) + Send + Sync + 'a;

/// Every session-wide setting: what the builder edits, `build()`
/// validates, and the engine reads — from the term scheduler down to each
/// term's SAT attack. `Default` gives the builder's defaults.
pub(crate) struct AttackConfig<'a> {
    /// The splitting effort `N`: the attack starts from `2^N` root terms.
    pub split_effort: usize,
    /// How splitting ports are chosen, for the root grid and for every
    /// adaptive resplit.
    pub strategy: SplitStrategy,
    /// Worker threads for the term pool; `None` = one per root term, at
    /// most one per core.
    pub threads: Option<usize>,
    /// Wall-clock budget for a whole run, reported as
    /// [`AttackStatus::TimeLimit`].
    pub time_budget: Option<Duration>,
    /// Record every DIP pattern in the term reports.
    pub record_dips: bool,
    /// Encode the miter and each per-DIP constraint over every output,
    /// each constraint as a full circuit copy with unit clauses on the
    /// inputs (the textbook formulation), instead of over the key's cone
    /// with each copy folded down to its key clauses.
    pub textbook: bool,
    /// DIPs harvested and answered per oracle round-trip (at least 1).
    pub dip_batch: usize,
    /// Per-term DIP budget: a term that spends it without converging is
    /// split one port deeper. `None` keeps the paper's static grid.
    pub term_dip_budget: Option<u64>,
    /// Progress events (term started/split/finished, per-term DIPs).
    pub on_progress: Option<Box<ProgressFn<'a>>>,
    /// Cooperative cancellation, checked once per DIP-refinement
    /// iteration.
    pub cancel: Option<CancelToken>,
}

impl Default for AttackConfig<'_> {
    fn default() -> Self {
        AttackConfig {
            split_effort: 0,
            strategy: SplitStrategy::default(),
            threads: None,
            time_budget: None,
            record_dips: true,
            textbook: false,
            dip_batch: 1,
            term_dip_budget: None,
            on_progress: None,
            cancel: None,
        }
    }
}

impl AttackConfig<'_> {
    /// True once the session's [`CancelToken`] has fired.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Rejects settings the engine cannot run.
    fn validate(&self) -> Result<(), AttackError> {
        let reject = |message: String| Err(AttackError::SessionConfig { message });
        if self.threads == Some(0) {
            return reject("`threads` must be at least 1".into());
        }
        if self.dip_batch == 0 {
            return reject("`dip_batch` must be at least 1".into());
        }
        if self.term_dip_budget == Some(0) {
            return reject("`term_dip_budget` must be at least 1".into());
        }
        Ok(())
    }
}

/// Builder for [`AttackSession`] — see that type's docs for the
/// end-to-end example.
#[must_use]
pub struct AttackSessionBuilder<'a> {
    oracle: Option<&'a mut (dyn Oracle + Send)>,
    config: AttackConfig<'a>,
}

impl Default for AttackSessionBuilder<'_> {
    /// Same as [`AttackSessionBuilder::new`].
    fn default() -> Self {
        AttackSessionBuilder::new()
    }
}

impl<'a> AttackSessionBuilder<'a> {
    /// Starts a builder with the defaults: plain SAT attack, one thread per
    /// term up to the core count, no limits.
    pub fn new() -> AttackSessionBuilder<'a> {
        AttackSessionBuilder { oracle: None, config: AttackConfig::default() }
    }

    /// Sets the attacker's black-box oracle (required). Any `Send` oracle
    /// composes: simulated, restricted, or custom.
    pub fn oracle(mut self, oracle: &'a mut (dyn Oracle + Send)) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Sets the splitting effort `N`: `N > 0` runs Algorithm 1 with `2^N`
    /// sub-attacks; `0` (default) is the one-term tree, the classic SAT
    /// attack on the calling thread.
    pub fn split_effort(mut self, n: usize) -> Self {
        self.config.split_effort = n;
        self
    }

    /// Sets how the `N` splitting ports are chosen (default: the paper's
    /// fan-out-cone heuristic).
    pub fn strategy(mut self, strategy: SplitStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Caps the sub-attack worker threads. Default: one thread per root
    /// term, at most one per core (every core in adaptive mode); `1`
    /// forces sequential execution.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = Some(threads);
        self
    }

    /// Sets a wall-clock budget for the whole run (shared by all terms);
    /// exhausted runs report [`AttackStatus::TimeLimit`]. A budget past
    /// the clock's range sets no deadline.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.config.time_budget = Some(budget);
        self
    }

    /// Records every DIP pattern in each term's
    /// [`SubTaskReport::dip_patterns`] (default on; turn off for
    /// benchmarking).
    pub fn record_dips(mut self, record: bool) -> Self {
        self.config.record_dips = record;
        self
    }

    /// Uses the textbook encoding (a miter and per-DIP copies of the full
    /// circuit) instead of the optimized one over the key's cone with
    /// folded copies — the formulation of the paper's tooling, whose
    /// per-iteration CNF growth is what makes LUT insertion expensive in
    /// Table 2.
    pub fn textbook(mut self, textbook: bool) -> Self {
        self.config.textbook = textbook;
        self
    }

    /// Sets how many DIPs each refinement epoch harvests and answers per
    /// oracle round-trip (default `1`, the classic loop).
    ///
    /// Larger batches trade extra solver calls (and possibly redundant
    /// DIPs) for far fewer oracle rounds — the right trade whenever oracle
    /// access dominates, which the multi-key premise makes the common
    /// case. `64` matches the packed simulator's word width, so a
    /// [`SimOracle`](crate::SimOracle)-backed session answers a full batch
    /// in one simulation pass. Every sub-attack of a multi-key run
    /// (`split_effort > 0`) shares the batching path. Compare
    /// [`AttackStats::oracle_rounds`] against
    /// [`AttackStats::oracle_queries`] to see the savings.
    ///
    /// # Examples
    ///
    /// ```
    /// use polykey_attack::{AttackSession, SimOracle};
    /// use polykey_locking::{Key, LockScheme, Sarlock};
    /// use polykey_netlist::{GateKind, Netlist};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut nl = Netlist::new("toy");
    /// let a = nl.add_input("a")?;
    /// let b = nl.add_input("b")?;
    /// let c = nl.add_input("c")?;
    /// let g = nl.add_gate("g", GateKind::And, &[a, b])?;
    /// let y = nl.add_gate("y", GateKind::Xor, &[g, c])?;
    /// nl.mark_output(y)?;
    /// let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(5, 3))?;
    ///
    /// // SARLock |K| = 3 needs ~7 DIPs; batching answers them in far
    /// // fewer oracle round-trips without changing what is learnt.
    /// let mut oracle = SimOracle::new(&nl)?;
    /// let report = AttackSession::builder()
    ///     .oracle(&mut oracle)
    ///     .dip_batch(64)
    ///     .build()?
    ///     .run(&locked.netlist)?;
    /// assert!(report.is_complete());
    /// let stats = report.stats();
    /// assert_eq!(stats.oracle_queries, stats.dips);
    /// assert!(stats.oracle_rounds < stats.oracle_queries);
    /// # Ok(())
    /// # }
    /// ```
    pub fn dip_batch(mut self, dip_batch: usize) -> Self {
        self.config.dip_batch = dip_batch;
        self
    }

    /// Turns on **adaptive splitting** with a per-term DIP budget: a term
    /// that spends `budget` DIPs without converging is split one port
    /// deeper, on the next port of the session's split ranking, and its
    /// two children re-enter the work queue. The children resume the
    /// term's search: each pins its new port with one unit clause and
    /// keeps every DIP constraint and learnt clause, so no DIP is asked of
    /// the oracle twice and nothing is encoded again. Easy sub-spaces
    /// finish shallow; hard ones (say, the SARLock term containing the
    /// protected pattern) are subdivided until they yield.
    ///
    /// Works from any root effort, including `split_effort(0)`: the tree
    /// then grows purely on demand. A term that pins every input (at most
    /// [`crate::MAX_SPLIT_WIDTH`]) cannot be split further and runs
    /// without the budget.
    ///
    /// # Examples
    ///
    /// ```
    /// use polykey_attack::{AttackSession, SimOracle};
    /// use polykey_encode::{check_equivalence, EquivResult};
    /// use polykey_locking::{Key, LockScheme, Sarlock};
    /// use polykey_netlist::{GateKind, Netlist};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut nl = Netlist::new("toy");
    /// let a = nl.add_input("a")?;
    /// let b = nl.add_input("b")?;
    /// let c = nl.add_input("c")?;
    /// let g = nl.add_gate("g", GateKind::And, &[a, b])?;
    /// let y = nl.add_gate("y", GateKind::Xor, &[g, c])?;
    /// nl.mark_output(y)?;
    /// let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(5, 3))?;
    ///
    /// // SARLock |K| = 3 needs ~7 DIPs in one piece; a budget of 2 makes
    /// // the engine grow a term tree instead, and the mixed-depth keys
    /// // still recombine to the exact original design.
    /// let mut oracle = SimOracle::new(&nl)?;
    /// let report = AttackSession::builder()
    ///     .oracle(&mut oracle)
    ///     .term_dip_budget(2)
    ///     .build()?
    ///     .run(&locked.netlist)?;
    /// assert!(report.is_complete());
    /// assert!(report.max_depth() > 0, "the root term was subdivided");
    /// let unlocked = report.recombine(&locked.netlist)?;
    /// assert_eq!(check_equivalence(&nl, &unlocked)?, EquivResult::Equivalent);
    /// # Ok(())
    /// # }
    /// ```
    pub fn term_dip_budget(mut self, budget: u64) -> Self {
        self.config.term_dip_budget = Some(budget);
        self
    }

    /// Installs a progress callback (may be called from worker threads).
    pub fn on_progress<F>(mut self, callback: F) -> Self
    where
        F: Fn(&ProgressEvent) + Send + Sync + 'a,
    {
        self.config.on_progress = Some(Box::new(callback));
        self
    }

    /// Installs a cancellation token; cancelled runs report
    /// [`AttackStatus::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.config.cancel = Some(token);
        self
    }

    /// Finalizes the session.
    ///
    /// # Errors
    ///
    /// [`AttackError::SessionConfig`] if no oracle was provided, or
    /// `threads`, `dip_batch` or `term_dip_budget` is 0.
    pub fn build(self) -> Result<AttackSession<'a>, AttackError> {
        let Some(oracle) = self.oracle else {
            return Err(AttackError::SessionConfig {
                message: "an oracle is required: call `.oracle(..)` before `.build()`".into(),
            });
        };
        self.config.validate()?;
        Ok(AttackSession { oracle, config: self.config })
    }
}

/// A configured attack, ready to [`run`](AttackSession::run) against one
/// or more locked netlists (the oracle must match each target's
/// interface).
#[must_use = "an attack session does nothing until `run` is called"]
pub struct AttackSession<'a> {
    oracle: &'a mut (dyn Oracle + Send),
    config: AttackConfig<'a>,
}

impl<'a> AttackSession<'a> {
    /// Starts building a session.
    pub fn builder() -> AttackSessionBuilder<'a> {
        AttackSessionBuilder::new()
    }

    /// Runs the configured attack against `locked`.
    ///
    /// # Errors
    ///
    /// - [`AttackError::OracleMismatch`] if the oracle's port counts
    ///   disagree with the locked netlist.
    /// - [`AttackError::SplitTooWide`] if the splitting effort exceeds the
    ///   input count.
    /// - [`AttackError::SplitTooDeep`] if the splitting effort exceeds
    ///   [`crate::MAX_SPLIT_WIDTH`] (u64 sub-space patterns cannot pin
    ///   more than 63 ports).
    pub fn run(&mut self, locked: &Netlist) -> Result<AttackReport, AttackError> {
        run_multi_key(locked, &SharedOracle::new(self.oracle), &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimOracle;
    use crate::sat_attack::{run_sat_attack, TermCtl};
    use polykey_circuits::{generate_random, RandomCircuitSpec};
    use polykey_encode::{check_equivalence, AttackEncoding, EquivResult};
    use polykey_locking::{AntiSat, LockScheme, LutLock, Rll, Sarlock};
    use polykey_netlist::GateKind;
    use rand::SeedableRng;
    use std::sync::Mutex;

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

    #[test]
    fn builder_requires_an_oracle() {
        assert!(matches!(
            AttackSession::builder().build(),
            Err(AttackError::SessionConfig { .. })
        ));
    }

    #[test]
    fn zero_threads_rejected() {
        let nl = majority3();
        let mut oracle = SimOracle::new(&nl).unwrap();
        assert!(matches!(
            AttackSession::builder().oracle(&mut oracle).threads(0).build(),
            Err(AttackError::SessionConfig { .. })
        ));
    }

    #[test]
    fn zero_dip_batch_rejected() {
        let nl = majority3();
        let mut oracle = SimOracle::new(&nl).unwrap();
        assert!(matches!(
            AttackSession::builder().oracle(&mut oracle).dip_batch(0).build(),
            Err(AttackError::SessionConfig { .. })
        ));
    }

    #[test]
    fn zero_term_dip_budget_rejected() {
        let nl = majority3();
        let mut oracle = SimOracle::new(&nl).unwrap();
        assert!(matches!(
            AttackSession::builder().oracle(&mut oracle).term_dip_budget(0).build(),
            Err(AttackError::SessionConfig { .. })
        ));
    }

    #[test]
    fn panicking_progress_callback_fails_the_term_not_the_session() {
        // Regression: the TermFinished emission used to sit outside the
        // term's panic boundary, so a panicking callback killed the worker
        // with its in-flight slot still counted — wedging every sibling on
        // the condvar and hanging run() forever.
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(0b101, 3)).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(1)
            .threads(2)
            .on_progress(|e| {
                if matches!(e, ProgressEvent::TermFinished { pattern: 1, .. }) {
                    panic!("user callback bug");
                }
            })
            .build()
            .unwrap()
            .run(&locked.netlist)
            .expect("the session must survive a panicking callback");
        let statuses: Vec<AttackStatus> = report.reports.iter().map(|r| r.status).collect();
        assert_eq!(statuses.len(), 2);
        assert!(statuses.contains(&AttackStatus::Failed), "{statuses:?}");
        assert!(statuses.contains(&AttackStatus::Success), "{statuses:?}");
    }

    #[test]
    fn batched_multi_key_run_shares_the_batching_path() {
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(0b101, 3)).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(1)
            .dip_batch(64)
            .build()
            .unwrap()
            .run(&locked.netlist)
            .unwrap();
        assert!(report.is_complete());
        let stats = report.stats();
        // Each sub-attack batches its DIP traffic, so total rounds drop
        // below total queries; per-DIP accounting is unchanged.
        assert_eq!(stats.oracle_queries, stats.dips);
        assert!(stats.oracle_rounds < stats.oracle_queries);
        assert_eq!(oracle.queries(), stats.oracle_queries);
        // And the recombined design is still exact.
        let unlocked = report.recombine(&locked.netlist).unwrap();
        assert!(unlocked.key_inputs().is_empty());
    }

    #[test]
    fn batched_adaptive_run_keeps_each_term_within_its_budget() {
        // A 64-DIP batch would drain SARLock |K| = 3 in one round; the
        // soft budget must clamp every term's harvest to 2 DIPs, and the
        // mixed-depth keys must still recombine to the original design.
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(0b101, 3)).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .term_dip_budget(2)
            .dip_batch(64)
            .build()
            .unwrap()
            .run(&locked.netlist)
            .unwrap();
        assert!(report.is_complete(), "statuses: {:?}", report.reports);
        assert!(!report.resplit_reports.is_empty(), "the root term was subdivided");
        for r in &report.resplit_reports {
            assert_eq!(r.status, AttackStatus::BudgetExhausted);
            assert!(
                r.stats.dips <= 2,
                "term {:b}/{} spent {} DIPs",
                r.pattern,
                r.width,
                r.stats.dips
            );
        }
        let unlocked = report.recombine(&locked.netlist).unwrap();
        assert_eq!(check_equivalence(&nl, &unlocked).unwrap(), EquivResult::Equivalent);
    }

    #[test]
    fn single_key_run_breaks_rll() {
        let nl = majority3();
        let locked = Rll::new(4).with_seed(17).lock(&nl, &Key::from_u64(9, 4)).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .build()
            .unwrap()
            .run(&locked.netlist)
            .unwrap();
        assert!(report.is_complete());
        assert_eq!(report.status(), AttackStatus::Success);
        let key = report.key().expect("success implies key");
        assert!(crate::verify::verify_key(&nl, &locked.netlist, key).unwrap());
        let stats = report.stats();
        assert_eq!(stats.oracle_queries, stats.dips);
        assert_eq!(report.terms().count(), 1);
        // The one-term report recombines into a keyless equivalent too.
        let unlocked = report.recombine(&locked.netlist).unwrap();
        assert!(unlocked.key_inputs().is_empty());
    }

    #[test]
    fn one_key_run_matches_direct_sat_attack() {
        // `split_effort(0)` is a one-term tree over the unmodified locked
        // netlist: the same search, step for step, as calling the SAT
        // attack engine directly.
        let original = generate_random(&RandomCircuitSpec::new("diff", 7, 3, 50, 13));
        let schemes: Vec<Box<dyn LockScheme>> = vec![
            Box::new(Rll::new(6).with_seed(13)),
            Box::new(Sarlock::new(5)),
            Box::new(AntiSat::new(3)),
            Box::new(LutLock::new(vec![2], 1).with_seed(13)),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for scheme in &schemes {
            let locked = scheme.lock_random(&original, &mut rng).unwrap().netlist;
            let mut oracle = SimOracle::new(&original).unwrap();
            let (encoding, solver) = AttackEncoding::new(&locked, false);
            let config = AttackConfig::default();
            let direct =
                run_sat_attack(&encoding, solver, &mut oracle, &config, &TermCtl::default());

            let events: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
            let mut oracle = SimOracle::new(&original).unwrap();
            let report = AttackSession::builder()
                .oracle(&mut oracle)
                .on_progress(|e| events.lock().unwrap().push(e.clone()))
                .build()
                .unwrap()
                .run(&locked)
                .unwrap();

            let name = scheme.name();
            assert_eq!(direct.status, AttackStatus::Success, "{name}");
            assert_eq!(report.key(), direct.key.as_ref(), "{name}");
            let [term] = &report.reports[..] else { panic!("{name}: one term expected") };
            assert_eq!((term.pattern, term.width), (0, 0), "{name}");
            assert_eq!(term.stats.dips, direct.stats.dips, "{name}");
            assert_eq!(term.stats.oracle_rounds, direct.stats.oracle_rounds, "{name}");
            assert_eq!(term.stats.solver, direct.stats.solver, "{name}");
            assert_eq!(term.dip_patterns, direct.dip_patterns, "{name}");

            let events = events.into_inner().unwrap();
            let started: Vec<(u64, u8)> = events
                .iter()
                .filter_map(|e| match *e {
                    ProgressEvent::TermStarted { pattern, width, .. } => Some((pattern, width)),
                    _ => None,
                })
                .collect();
            let finished: Vec<(u64, u8)> = events
                .iter()
                .filter_map(|e| match *e {
                    ProgressEvent::TermFinished { pattern, width, .. } => {
                        Some((pattern, width))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(started, vec![(0, 0)], "{name}");
            assert_eq!(finished, vec![(0, 0)], "{name}");
        }
    }

    #[test]
    fn multi_key_run_with_thread_cap() {
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(0b101, 3)).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(2)
            .threads(2)
            .build()
            .unwrap()
            .run(&locked.netlist)
            .unwrap();
        assert!(report.is_complete());
        assert!(report.key().is_none(), "N > 0 yields sub-space keys");
        assert_eq!(report.keys.len(), 4);
        assert_eq!(report.terms().count(), 4);
        // Total oracle queries flowed through the one shared oracle.
        assert_eq!(oracle.queries(), report.stats().oracle_queries);
    }

    #[test]
    fn progress_events_cover_every_term() {
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(2, 3)).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let events: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(1)
            .on_progress(|e| events.lock().unwrap().push(e.clone()))
            .build()
            .unwrap()
            .run(&locked.netlist)
            .unwrap();
        assert!(report.is_complete());
        let events = events.into_inner().unwrap();
        let started: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                ProgressEvent::TermStarted { pattern, terms: 2, .. } => Some(*pattern),
                _ => None,
            })
            .collect();
        let mut finished: Vec<(u64, AttackStats)> = events
            .iter()
            .filter_map(|e| match *e {
                ProgressEvent::TermFinished { pattern, stats, .. } => Some((pattern, stats)),
                _ => None,
            })
            .collect();
        finished.sort_unstable_by_key(|&(pattern, _)| pattern);
        let dip_total =
            events.iter().filter(|e| matches!(e, ProgressEvent::Dip { .. })).count() as u64;
        let mut started_sorted = started.clone();
        started_sorted.sort_unstable();
        assert_eq!(started_sorted, vec![0, 1]);
        // Each event carries its term report's record.
        let reported: Vec<(u64, AttackStats)> =
            report.reports.iter().map(|r| (r.pattern, r.stats)).collect();
        assert_eq!(finished, reported);
        assert_eq!(dip_total, report.stats().dips);
    }

    /// Answers like a [`SimOracle`] of its netlist, but drops the last
    /// output bit of every answer.
    struct ShortAnswers<'a>(SimOracle<'a>);

    impl Oracle for ShortAnswers<'_> {
        fn num_inputs(&self) -> usize {
            self.0.num_inputs()
        }

        fn num_outputs(&self) -> usize {
            self.0.num_outputs()
        }

        fn query(&mut self, input: &[bool]) -> Vec<bool> {
            let mut response = self.0.query(input);
            response.pop();
            response
        }

        fn queries(&self) -> u64 {
            self.0.queries()
        }
    }

    #[test]
    fn an_answer_of_the_wrong_width_fails_the_term() {
        // A short answer constrains nothing on its missing output, so the
        // same DIPs come back until the time budget ends the run; the term
        // must fail at the first answer instead, with its query counted and
        // no DIP reported.
        let original = polykey_circuits::c17();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let schemes: [Box<dyn LockScheme>; 2] =
            [Box::new(Rll::new(6).with_seed(1)), Box::new(Sarlock::new(4))];
        for scheme in &schemes {
            let locked = scheme.lock_random(&original, &mut rng).unwrap().netlist;
            for textbook in [false, true] {
                let mut oracle = ShortAnswers(SimOracle::new(&original).unwrap());
                let dips = Mutex::new(0);
                let report = AttackSession::builder()
                    .oracle(&mut oracle)
                    .on_progress(|e| {
                        if matches!(e, ProgressEvent::Dip { .. }) {
                            *dips.lock().unwrap() += 1;
                        }
                    })
                    .textbook(textbook)
                    .time_budget(Duration::from_secs(2))
                    .build()
                    .unwrap()
                    .run(&locked)
                    .unwrap();
                let name = format!("{} textbook={textbook}", scheme.name());
                assert_eq!(report.status(), AttackStatus::Failed, "{name}");
                assert_eq!(report.stats().oracle_queries, 1, "{name}");
                assert_eq!(oracle.queries(), 1, "{name}");
                assert_eq!(*dips.lock().unwrap(), 0, "{name}");
            }
        }
    }

    #[test]
    fn pre_cancelled_session_reports_cancelled() {
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(7, 3)).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .cancel_token(token.clone())
            .build()
            .unwrap()
            .run(&locked.netlist)
            .unwrap();
        assert_eq!(report.status(), AttackStatus::Cancelled);
        assert!(!report.is_complete());
        assert!(report.key().is_none());
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancel_mid_run_via_progress_callback() {
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(1, 3)).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let token = CancelToken::new();
        let hook = token.clone();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .on_progress(move |e| {
                if matches!(e, ProgressEvent::Dip { dips: 2, .. }) {
                    hook.cancel();
                }
            })
            .cancel_token(token)
            .build()
            .unwrap()
            .run(&locked.netlist)
            .unwrap();
        // SARLock |K|=3 needs ~7 DIPs; cancelling at 2 stops early.
        assert_eq!(report.status(), AttackStatus::Cancelled);
        let stats = report.stats();
        assert!(stats.dips >= 2 && stats.dips < 7, "dips = {}", stats.dips);
    }

    #[test]
    fn zero_time_budget_reports_time_limit() {
        let nl = majority3();
        let locked = Rll::new(4).with_seed(17).lock(&nl, &Key::from_u64(3, 4)).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .time_budget(Duration::ZERO)
            .build()
            .unwrap()
            .run(&locked.netlist)
            .unwrap();
        assert_eq!(report.status(), AttackStatus::TimeLimit);
    }

    #[test]
    fn one_session_runs_many_targets() {
        // The session borrows the oracle; the same configured session
        // attacks several locked variants of the same design.
        let nl = majority3();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let mut session = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(1)
            .threads(1)
            .build()
            .unwrap();
        for seed in [1u64, 2, 3] {
            let locked =
                Rll::new(3).with_seed(seed).lock(&nl, &Key::from_u64(seed & 7, 3)).unwrap();
            let report = session.run(&locked.netlist).unwrap();
            assert!(report.is_complete(), "seed {seed}");
        }
    }
}
