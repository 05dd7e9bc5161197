//! The [`AttackSession`] builder: one attack surface for every scenario.
//!
//! A session bundles the attacker's oracle with every knob the suite's
//! attacks share — splitting effort, worker threads, wall-clock budget,
//! cancellation, progress reporting — behind a single [`AttackSession::run`]
//! returning an [`AttackReport`]. Every run goes through one engine, the
//! term tree of Algorithm 1: `split_effort = N > 0` starts from `2^N`
//! sub-attacks, and `split_effort = 0` is a one-term tree — the classic
//! one-key SAT attack on the locked netlist as given, run on the calling
//! thread. Either way the report carries uniform [`AttackStats`] (DIPs,
//! oracle queries, solver conflicts, per-subtask wall times), so harnesses
//! sweep schemes × efforts × circuits without caring how the tree grew.
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
use std::time::{Duration, Instant};

use polykey_locking::Key;
use polykey_netlist::{Netlist, NodeId};
use polykey_sat::{SolverConfig, SolverStats};

use crate::error::AttackError;
use crate::multikey::{run_multi_key, EngineOpts, MultiKeyConfig, SubKey, SubTaskReport};
use crate::oracle::{Oracle, SharedOracle};
use crate::recombine::recombine_multikey;
use crate::sat_attack::{AttackStatus, RunCtl, SatAttackConfig};
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
        /// Gates in the netlist this term attacks (after cofactoring).
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
        /// The term's final DIP count.
        dips: u64,
        /// The term's wall-clock time.
        wall_time: Duration,
    },
    /// A term exhausted its per-term budget and was subdivided: its two
    /// children (paths one bit wider) re-enter the work queue.
    TermSplit {
        /// The exhausted term's prefix-tree path.
        pattern: u64,
        /// The path's width (children have `width + 1`).
        width: u8,
        /// DIPs the term spent before giving up (kept in the totals).
        dips: u64,
    },
}

/// Uniform work counters, available from every [`AttackReport`].
#[derive(Clone, Debug, Default)]
pub struct AttackStats {
    /// Distinguishing input patterns, summed over all sub-attacks.
    pub dips: u64,
    /// Oracle queries, summed over all sub-attacks (one per answered DIP).
    pub oracle_queries: u64,
    /// Oracle round-trips, summed over all sub-attacks. With
    /// [`AttackSessionBuilder::dip_batch`] `> 1` a whole batch of DIPs is
    /// answered per round, so this drops well below `oracle_queries`; the
    /// two are equal for the classic one-DIP-per-round loop.
    pub oracle_rounds: u64,
    /// DIP-refinement epochs, summed over all sub-attacks (see
    /// [`crate::SatAttackStats::epochs`]).
    pub epochs: u64,
    /// Full CDCL solver counters (conflicts, restarts, learnt clauses, …),
    /// summed field-wise over all sub-attacks.
    pub solver: SolverStats,
    /// End-to-end wall-clock time of the session run.
    pub wall_time: Duration,
    /// Per-subtask wall times, in pattern order (one entry for the plain
    /// SAT attack). Their maximum is the attack latency on a machine with
    /// enough cores — the paper's headline metric.
    pub subtask_wall_times: Vec<Duration>,
}

impl AttackStats {
    /// The longest sub-task — the parallel-attack latency.
    #[must_use]
    pub fn max_subtask_time(&self) -> Duration {
        self.subtask_wall_times.iter().max().copied().unwrap_or_default()
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
    /// order. Adaptive resplits extend this list past the root `N`; a
    /// term of width `w` pins the first `w` entries.
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

    /// Uniform work counters. Sums run over every term that did work —
    /// leaves *and* budget-exhausted interior terms — so oracle/solver
    /// accounting matches what was actually spent.
    #[must_use]
    pub fn stats(&self) -> AttackStats {
        let terms = || self.reports.iter().chain(&self.resplit_reports).map(|r| &r.stats);
        AttackStats {
            dips: terms().map(|s| s.dips).sum(),
            oracle_queries: terms().map(|s| s.oracle_queries).sum(),
            oracle_rounds: terms().map(|s| s.oracle_rounds).sum(),
            epochs: terms().map(|s| s.epochs).sum(),
            solver: terms().map(|s| s.solver).sum(),
            wall_time: self.wall_time,
            subtask_wall_times: terms().map(|s| s.wall_time).collect(),
        }
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

/// Builder for [`AttackSession`] — see that type's docs for the
/// end-to-end example.
#[must_use]
pub struct AttackSessionBuilder<'a> {
    oracle: Option<&'a mut (dyn Oracle + Send)>,
    split_effort: usize,
    strategy: SplitStrategy,
    simplify: bool,
    threads: Option<usize>,
    time_budget: Option<Duration>,
    max_dips: Option<u64>,
    record_dips: bool,
    textbook: bool,
    dip_batch: usize,
    term_dip_budget: Option<u64>,
    term_time_budget: Option<Duration>,
    max_split_depth: Option<usize>,
    solver: SolverConfig,
    on_progress: Option<Box<ProgressFn<'a>>>,
    cancel: Option<CancelToken>,
}

impl Default for AttackSessionBuilder<'_> {
    /// Same as [`AttackSessionBuilder::new`].
    fn default() -> Self {
        AttackSessionBuilder::new()
    }
}

impl<'a> AttackSessionBuilder<'a> {
    /// Starts a builder with the defaults: plain SAT attack, re-synthesis
    /// on, one thread per term, no limits.
    pub fn new() -> AttackSessionBuilder<'a> {
        AttackSessionBuilder {
            oracle: None,
            split_effort: 0,
            strategy: SplitStrategy::default(),
            simplify: true,
            threads: None,
            time_budget: None,
            max_dips: None,
            record_dips: true,
            textbook: false,
            dip_batch: 1,
            term_dip_budget: None,
            term_time_budget: None,
            max_split_depth: None,
            solver: SolverConfig::default(),
            on_progress: None,
            cancel: None,
        }
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
        self.split_effort = n;
        self
    }

    /// Sets how the `N` splitting ports are chosen (default: the paper's
    /// fan-out-cone heuristic).
    pub fn strategy(mut self, strategy: SplitStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables/disables per-term re-synthesis (Algorithm 1 line 4;
    /// default on).
    pub fn simplify(mut self, simplify: bool) -> Self {
        self.simplify = simplify;
        self
    }

    /// Caps the sub-attack worker threads. Default: one thread per term;
    /// `1` forces sequential execution.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets a wall-clock budget for the whole run (shared by all terms);
    /// exhausted runs report [`AttackStatus::TimeLimit`].
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Stops each sub-attack after this many DIPs.
    pub fn max_dips(mut self, max_dips: u64) -> Self {
        self.max_dips = Some(max_dips);
        self
    }

    /// Records every DIP pattern in each term's
    /// [`SubTaskReport::dip_patterns`] (default on; turn off for
    /// benchmarking).
    pub fn record_dips(mut self, record: bool) -> Self {
        self.record_dips = record;
        self
    }

    /// Uses the textbook per-DIP encoding (full circuit copies) instead of
    /// the optimized folded encoding — the formulation of the paper's
    /// tooling, whose per-iteration CNF growth is what makes LUT insertion
    /// expensive in Table 2.
    pub fn textbook(mut self, textbook: bool) -> Self {
        self.textbook = textbook;
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
        self.dip_batch = dip_batch;
        self
    }

    /// Turns on **adaptive splitting** with a per-term DIP budget: a term
    /// that spends `budget` DIPs without converging is split one port
    /// deeper — re-ranking the remaining inputs on the term's own
    /// cofactored netlist — and its two children re-enter the work queue.
    /// Easy sub-spaces finish shallow; hard ones (say, the SARLock term
    /// containing the protected pattern) are subdivided until they yield.
    ///
    /// Works from any root effort, including `split_effort(0)`: the tree
    /// then grows purely on demand. See also
    /// [`AttackSessionBuilder::term_time_budget`] and
    /// [`AttackSessionBuilder::max_split_depth`].
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
        self.term_dip_budget = Some(budget);
        self
    }

    /// Turns on adaptive splitting with a per-term wall-clock budget: a
    /// term still unconverged after `budget` is split one port deeper (see
    /// [`AttackSessionBuilder::term_dip_budget`]). Both budgets may be set
    /// together; whichever exhausts first triggers the resplit.
    pub fn term_time_budget(mut self, budget: Duration) -> Self {
        self.term_time_budget = Some(budget);
        self
    }

    /// Caps how deep adaptive resplitting may grow the term tree. Terms
    /// at the cap attack without the soft budgets (they can no longer be
    /// subdivided, so giving up early would serve nothing). Default: as
    /// deep as the input count and [`crate::MAX_SPLIT_WIDTH`] allow.
    pub fn max_split_depth(mut self, depth: usize) -> Self {
        self.max_split_depth = Some(depth);
        self
    }

    /// Overrides the CDCL solver configuration.
    pub fn solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Installs a progress callback (may be called from worker threads).
    pub fn on_progress<F>(mut self, callback: F) -> Self
    where
        F: Fn(&ProgressEvent) + Send + Sync + 'a,
    {
        self.on_progress = Some(Box::new(callback));
        self
    }

    /// Installs a cancellation token; cancelled runs report
    /// [`AttackStatus::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Finalizes the session.
    ///
    /// # Errors
    ///
    /// [`AttackError::SessionConfig`] if no oracle was provided or
    /// `threads == 0`.
    pub fn build(self) -> Result<AttackSession<'a>, AttackError> {
        let Some(oracle) = self.oracle else {
            return Err(AttackError::SessionConfig {
                message: "an oracle is required: call `.oracle(..)` before `.build()`".into(),
            });
        };
        if self.threads == Some(0) {
            return Err(AttackError::SessionConfig {
                message: "`threads` must be at least 1".into(),
            });
        }
        if self.dip_batch == 0 {
            return Err(AttackError::SessionConfig {
                message: "`dip_batch` must be at least 1".into(),
            });
        }
        if self.term_dip_budget == Some(0) {
            return Err(AttackError::SessionConfig {
                message: "`term_dip_budget` must be at least 1".into(),
            });
        }
        if self.term_time_budget == Some(Duration::ZERO) {
            // A zero budget expires before a term's first solver call:
            // every term would split without doing any work, expanding the
            // tree to the full grid at the depth cap.
            return Err(AttackError::SessionConfig {
                message: "`term_time_budget` must be non-zero".into(),
            });
        }
        if let Some(depth) = self.max_split_depth {
            if depth > crate::MAX_SPLIT_WIDTH {
                return Err(AttackError::SessionConfig {
                    message: format!(
                        "`max_split_depth` {depth} exceeds the engine's maximum split \
                         width {}",
                        crate::MAX_SPLIT_WIDTH
                    ),
                });
            }
            if depth < self.split_effort {
                return Err(AttackError::SessionConfig {
                    message: format!(
                        "`max_split_depth` {depth} is shallower than `split_effort` {}",
                        self.split_effort
                    ),
                });
            }
        }
        Ok(AttackSession {
            oracle,
            split_effort: self.split_effort,
            strategy: self.strategy,
            simplify: self.simplify,
            threads: self.threads,
            time_budget: self.time_budget,
            max_dips: self.max_dips,
            record_dips: self.record_dips,
            textbook: self.textbook,
            dip_batch: self.dip_batch,
            term_dip_budget: self.term_dip_budget,
            term_time_budget: self.term_time_budget,
            max_split_depth: self.max_split_depth,
            solver: self.solver,
            on_progress: self.on_progress,
            cancel: self.cancel,
        })
    }
}

/// A configured attack, ready to [`run`](AttackSession::run) against one
/// or more locked netlists (the oracle must match each target's
/// interface).
#[must_use = "an attack session does nothing until `run` is called"]
pub struct AttackSession<'a> {
    oracle: &'a mut (dyn Oracle + Send),
    split_effort: usize,
    strategy: SplitStrategy,
    simplify: bool,
    threads: Option<usize>,
    time_budget: Option<Duration>,
    max_dips: Option<u64>,
    record_dips: bool,
    textbook: bool,
    dip_batch: usize,
    term_dip_budget: Option<u64>,
    term_time_budget: Option<Duration>,
    max_split_depth: Option<usize>,
    solver: SolverConfig,
    on_progress: Option<Box<ProgressFn<'a>>>,
    cancel: Option<CancelToken>,
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
    /// - Structural errors from cofactoring or encoding.
    pub fn run(&mut self, locked: &Netlist) -> Result<AttackReport, AttackError> {
        let deadline = self.time_budget.map(|budget| Instant::now() + budget);
        let config = MultiKeyConfig {
            split_effort: self.split_effort,
            strategy: self.strategy,
            simplify: self.simplify,
            sat: SatAttackConfig {
                max_dips: self.max_dips,
                solver: self.solver,
                record_dips: self.record_dips,
                fold_dip_copies: !self.textbook,
                dip_batch: self.dip_batch,
                ..SatAttackConfig::new()
            },
            term_dip_budget: self.term_dip_budget,
            term_time_budget: self.term_time_budget,
            max_split_depth: self.max_split_depth,
        };
        let opts = EngineOpts {
            threads: self.threads,
            ctl: RunCtl { deadline, cancel: self.cancel.as_ref(), on_dip: None },
            progress: self
                .on_progress
                .as_deref()
                .map(|p| p as &(dyn Fn(&ProgressEvent) + Sync)),
        };
        run_multi_key(locked, &SharedOracle::new(self.oracle), &config, &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimOracle;
    use crate::sat_attack::run_sat_attack;
    use polykey_circuits::{generate_random, RandomCircuitSpec};
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
    fn zero_term_time_budget_rejected() {
        // A zero soft clock would expire before any work: every term below
        // the depth cap would split immediately, blowing the tree up to
        // the full grid.
        let nl = majority3();
        let mut oracle = SimOracle::new(&nl).unwrap();
        assert!(matches!(
            AttackSession::builder()
                .oracle(&mut oracle)
                .term_time_budget(Duration::ZERO)
                .build(),
            Err(AttackError::SessionConfig { .. })
        ));
    }

    #[test]
    fn invalid_max_split_depth_rejected() {
        let nl = majority3();
        let mut oracle = SimOracle::new(&nl).unwrap();
        // Deeper than the u64 pattern representation…
        assert!(matches!(
            AttackSession::builder().oracle(&mut oracle).max_split_depth(64).build(),
            Err(AttackError::SessionConfig { .. })
        ));
        // …or shallower than the root effort.
        let mut oracle = SimOracle::new(&nl).unwrap();
        assert!(matches!(
            AttackSession::builder()
                .oracle(&mut oracle)
                .split_effort(3)
                .max_split_depth(2)
                .build(),
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
        assert_eq!(stats.subtask_wall_times.len(), 1);
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
            let direct = run_sat_attack(
                &locked,
                &mut oracle,
                &SatAttackConfig::new(),
                &RunCtl::default(),
            )
            .unwrap();

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
            assert_eq!(term.gates_after, locked.num_gates(), "{name}: no re-synthesis");

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
        assert_eq!(report.stats().subtask_wall_times.len(), 4);
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
        let finished =
            events.iter().filter(|e| matches!(e, ProgressEvent::TermFinished { .. })).count();
        let dip_total =
            events.iter().filter(|e| matches!(e, ProgressEvent::Dip { .. })).count() as u64;
        let mut started_sorted = started.clone();
        started_sorted.sort_unstable();
        assert_eq!(started_sorted, vec![0, 1]);
        assert_eq!(finished, 2);
        assert_eq!(dip_total, report.stats().dips);
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
    fn max_dips_caps_each_term() {
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(6, 3)).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .max_dips(2)
            .build()
            .unwrap()
            .run(&locked.netlist)
            .unwrap();
        assert_eq!(report.status(), AttackStatus::DipLimit);
        assert_eq!(report.stats().dips, 2);
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
