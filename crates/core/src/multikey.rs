//! The multi-key attack — Algorithm 1 of the paper, generalized from a
//! flat `2^N` grid to an adaptive term *tree*.
//!
//! Instead of hunting for the single correct key, the attack splits the
//! input space on chosen ports, cofactors and re-synthesizes the locked
//! netlist for each assignment, and runs an independent SAT attack per
//! term. Each term returns a key that unlocks its sub-space (possibly
//! globally *incorrect*); collectively — recombined with a MUX tree, see
//! [`crate::recombine_multikey`] — the keys restore the full design
//! function. With `N = 0` the tree is a single term with no pins: the
//! classic one-key SAT attack on the locked netlist as given, run on the
//! calling thread.
//!
//! The paper fixes the splitting effort `N` up front, but term hardness is
//! wildly uneven in practice: the SARLock term containing the protected
//! pattern dominates wall-clock while its siblings converge in a handful
//! of DIPs. With a per-term budget configured
//! ([`MultiKeyConfig::term_dip_budget`] /
//! [`MultiKeyConfig::term_time_budget`]) the engine therefore runs
//! *adaptively*: a term that exhausts its budget without converging is
//! split one port deeper — re-ranking the remaining inputs on the term's
//! own cofactored netlist — and its two children go back onto the work
//! queue. Easy sub-spaces finish at shallow depth; hard ones are
//! subdivided until they yield (or hit [`MultiKeyConfig::max_split_depth`]).
//! Terms are identified by `(pattern, width)` prefix-tree paths rather
//! than flat grid indices.
//!
//! The terms are embarrassingly parallel; a bounded pool of workers pulls
//! them — including freshly split children — from a shared queue. A term
//! whose worker panics (e.g. a crashing oracle) is reported as
//! [`AttackStatus::Failed`] instead of poisoning its siblings or tearing
//! down the session.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use polykey_locking::Key;
use polykey_netlist::{cofactor, cofactor_simplify, Netlist, NodeId};

use crate::error::AttackError;
use crate::oracle::{SharedOracle, TermOracle};
use crate::sat_attack::{
    run_sat_attack, AttackStatus, RunCtl, SatAttackConfig, SatAttackStats,
};
use crate::session::{AttackReport, ProgressEvent};
use crate::split::{next_split_position, select_split_inputs, SplitStrategy};

/// The deepest split the engine supports: sub-space patterns are `u64`
/// prefix paths, so any effort or resplit beyond 63 pinned ports would
/// overflow `1u64 << n` (silently in release, with a panic in debug).
/// Requests past this limit are rejected with
/// [`AttackError::SplitTooDeep`].
pub const MAX_SPLIT_WIDTH: usize = 63;

/// Worker-pool and instrumentation knobs for [`run_multi_key`], supplied
/// by the [`crate::AttackSession`].
pub(crate) struct EngineOpts<'e> {
    /// Worker threads for the term pool; `None` = one thread per *root*
    /// term (or the machine's parallelism in adaptive mode, whichever is
    /// larger).
    pub threads: Option<usize>,
    /// Deadline + cancellation shared across all terms.
    pub ctl: RunCtl<'e>,
    /// Progress events (term started/split/finished, per-term DIPs).
    pub progress: Option<&'e (dyn Fn(&ProgressEvent) + Sync)>,
}

/// Tuning knobs for the multi-key attack.
#[derive(Clone, Debug)]
pub(crate) struct MultiKeyConfig {
    /// The splitting effort `N`: the attack starts from `2^N` root terms.
    pub split_effort: usize,
    /// How splitting ports are chosen — for the root grid and for every
    /// adaptive resplit.
    pub strategy: SplitStrategy,
    /// Re-synthesize each cofactored netlist (Algorithm 1 line 4). Turning
    /// this off is the `ablation_simplify` experiment.
    pub simplify: bool,
    /// Configuration for each per-term SAT attack.
    pub sat: SatAttackConfig,
    /// Per-term DIP budget: a term that spends this many DIPs without
    /// converging is split one port deeper and re-attacked as two
    /// children. `None` keeps the paper's static grid.
    pub term_dip_budget: Option<u64>,
    /// Per-term wall-clock budget with the same resplit semantics.
    pub term_time_budget: Option<Duration>,
    /// Deepest adaptive split depth. `None` = as deep as the input count
    /// and [`MAX_SPLIT_WIDTH`] allow. Terms that exhaust their budget *at*
    /// the cap keep attacking under the ordinary limits instead.
    pub max_split_depth: Option<usize>,
}

/// One sub-space key, identified by its prefix-tree path: the first
/// `width` split ports are pinned to the corresponding bits of `pattern`.
///
/// In a static run every key has `width == N`; adaptive runs mix widths —
/// a hard term subdivided twice yields keys two levels deeper than its
/// easy siblings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubKey {
    /// The term's path: bit `j` is the value pinned on split port `j`,
    /// for `j < width`. Bits at and above `width` are zero.
    pub pattern: u64,
    /// How many split ports this term pins (its depth in the term tree).
    pub width: u8,
    /// A key correct on the sub-space (possibly incorrect elsewhere).
    pub key: Key,
}

impl SubKey {
    /// The value this term pins on split port `j` (`j < width`).
    #[must_use]
    pub fn split_bit(&self, j: usize) -> bool {
        self.pattern >> j & 1 == 1
    }
}

/// Per-term accounting.
#[derive(Clone, Debug)]
pub struct SubTaskReport {
    /// The term's prefix-tree path (see [`SubKey::pattern`]).
    pub pattern: u64,
    /// How many split ports this term pins (its depth in the term tree).
    pub width: u8,
    /// How this term's SAT attack ended.
    pub status: AttackStatus,
    /// The term's SAT-attack counters. `stats.wall_time` is the whole
    /// term's time, cofactoring and re-synthesis included (terms overlap
    /// when parallel). A [`AttackStatus::Failed`] term keeps only the
    /// oracle queries it was served; its other counters died with it.
    pub stats: SatAttackStats,
    /// The term's DIPs in discovery order (empty unless
    /// [`crate::AttackSessionBuilder::record_dips`] is on).
    pub dip_patterns: Vec<Vec<bool>>,
    /// Gates in the locked netlist before cofactoring.
    pub gates_before: usize,
    /// Gates in the netlist this term actually attacked (0 if the term's
    /// worker panicked before cofactoring finished).
    pub gates_after: usize,
}

/// One node of the term tree awaiting an attack.
#[derive(Copy, Clone, Debug)]
struct TermPath {
    pattern: u64,
    width: u8,
}

/// What attacking one term produced.
enum TermOutput {
    /// The term is a leaf of the final tree (succeeded, failed, or gave up
    /// at a limit).
    Leaf(SubTaskReport, Option<SubKey>),
    /// The term exhausted its budget and was subdivided into two children.
    Split(SubTaskReport, [TermPath; 2]),
}

/// Shared scheduler state: the work queue plus everything the workers
/// produce. A single mutex keeps completion bookkeeping atomic with queue
/// updates, which is what makes the "queue empty and nothing in flight"
/// exit condition race-free.
struct SchedState {
    queue: VecDeque<TermPath>,
    in_flight: usize,
    results: Vec<(SubTaskReport, Option<SubKey>)>,
    resplits: Vec<SubTaskReport>,
    error: Option<AttackError>,
}

struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Scheduler {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        // A worker panic between lock and unlock would poison the state;
        // the bookkeeping is plain data, so recover rather than cascade.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Algorithm 1 over an arbitrary shared oracle — the engine behind every
/// [`crate::AttackSession`] run.
pub(crate) fn run_multi_key(
    locked: &Netlist,
    oracle: &SharedOracle<'_>,
    config: &MultiKeyConfig,
    opts: &EngineOpts<'_>,
) -> Result<AttackReport, AttackError> {
    if oracle.num_inputs() != locked.inputs().len() {
        return Err(AttackError::OracleMismatch {
            what: "inputs",
            netlist: locked.inputs().len(),
            oracle: oracle.num_inputs(),
        });
    }
    let n = config.split_effort;
    // Guard every `1u64 << width` in the engine: splitting deeper than 63
    // ports cannot be represented in the u64 prefix paths.
    if n > MAX_SPLIT_WIDTH {
        return Err(AttackError::SplitTooDeep { requested: n, max: MAX_SPLIT_WIDTH });
    }
    let max_depth = config
        .max_split_depth
        .unwrap_or(usize::MAX)
        .min(locked.inputs().len())
        .min(MAX_SPLIT_WIDTH)
        .max(n);
    let adaptive = config.term_dip_budget.is_some() || config.term_time_budget.is_some();
    let start = Instant::now();

    // The global split-port order: index `j` is the port every term of
    // width > j pins with pattern bit `j`. Adaptive resplits extend it —
    // the first term to need depth `j + 1` ranks the remaining inputs on
    // its own cofactored netlist and appends the winner; siblings reuse it.
    let split_order: Mutex<Vec<NodeId>> =
        Mutex::new(select_split_inputs(locked, n, config.strategy)?);
    let order_positions = |order: &[NodeId]| -> Vec<usize> {
        order
            .iter()
            .map(|id| {
                locked
                    .inputs()
                    .iter()
                    .position(|p| p == id)
                    .expect("split ports come from the input list")
            })
            .collect()
    };

    let num_root_terms = 1usize << n;
    // Total terms ever enqueued, for progress reporting.
    let spawned = AtomicUsize::new(num_root_terms);

    // Extends the split order to cover depth `width + 1`, choosing the new
    // port by re-ranking the subdividing term's cofactored netlist. The
    // O(inputs × netlist) ranking runs *outside* the lock — other workers
    // only need the mutex for a cheap prefix copy at term start, and must
    // not stall behind cone analysis. First writer wins; a racing sibling
    // discards its ranking.
    let extend_split_order = |restricted: &Netlist, width: usize| -> Result<(), AttackError> {
        let used = {
            let order = split_order.lock().unwrap_or_else(PoisonError::into_inner);
            if order.len() > width {
                return Ok(()); // a sibling already chose this depth's port
            }
            order_positions(&order)
        };
        let next = next_split_position(restricted, &used, config.strategy)?;
        let mut order = split_order.lock().unwrap_or_else(PoisonError::into_inner);
        if order.len() > width {
            return Ok(()); // a sibling won the race while we ranked
        }
        match next {
            Some(pos) => {
                order.push(locked.inputs()[pos]);
                Ok(())
            }
            // Unreachable while `max_depth <= inputs`, but keep the error
            // honest rather than panicking.
            None => Err(AttackError::SplitTooWide {
                requested: width + 1,
                available: locked.inputs().len(),
            }),
        }
    };

    let run_term = |path: TermPath| -> Result<TermOutput, AttackError> {
        let term_start = Instant::now();
        let width = path.width as usize;
        let pattern = path.pattern;
        // Served-query count lives *outside* the panic boundary, so a term
        // whose oracle crashes mid-run still reports the queries it spent.
        let term_queries = AtomicU64::new(0);
        // The panic boundary covers the whole term — cofactoring, the SAT
        // attack, resplit selection, *and* every progress callback — so a
        // crashing oracle or a panicking user callback fails this term,
        // not the session (and cannot strand the scheduler's in-flight
        // accounting). The shared-oracle mutex recovers from the resulting
        // poison (see `SharedOracle::lock`); the term's local state is
        // simply discarded.
        let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<TermOutput, AttackError> {
            let ports: Vec<NodeId> = {
                let order = split_order.lock().unwrap_or_else(PoisonError::into_inner);
                order[..width].to_vec()
            };
            let pins: Vec<(NodeId, bool)> =
                ports.iter().enumerate().map(|(j, &id)| (id, pattern >> j & 1 == 1)).collect();
            // Algorithm 1 line 4 re-synthesizes *cofactored* netlists; a
            // term with no pins attacks `locked` as given.
            let restricted = if pins.is_empty() {
                Cow::Borrowed(locked)
            } else if config.simplify {
                Cow::Owned(cofactor_simplify(locked, &pins)?.0)
            } else {
                Cow::Owned(cofactor(locked, &pins)?)
            };
            if let Some(progress) = opts.progress {
                progress(&ProgressEvent::TermStarted {
                    pattern,
                    width: path.width,
                    terms: spawned.load(Ordering::Relaxed),
                    gates: restricted.num_gates(),
                });
            }
            let positions = order_positions(&ports);
            let forced: Vec<(usize, bool)> = positions
                .iter()
                .enumerate()
                .map(|(j, &pos)| (pos, pattern >> j & 1 == 1))
                .collect();
            let mut term_sat = config.sat.clone();
            term_sat.force_inputs = forced.clone();
            if width < max_depth {
                // Terms that can still be subdivided run under the resplit
                // budgets; at the depth cap only the ordinary limits apply.
                term_sat.dip_budget = config.term_dip_budget;
                term_sat.time_budget = config.term_time_budget;
            }
            let mut term_oracle = TermOracle::new(oracle, forced, &term_queries);
            let on_dip = opts.progress.map(|progress| {
                move |dips: u64| {
                    progress(&ProgressEvent::Dip { pattern, width: path.width, dips })
                }
            });
            let term_ctl = RunCtl {
                deadline: opts.ctl.deadline,
                cancel: opts.ctl.cancel,
                on_dip: on_dip.as_ref().map(|f| f as &(dyn Fn(u64) + Sync)),
            };
            let outcome = run_sat_attack(&restricted, &mut term_oracle, &term_sat, &term_ctl)?;
            let mut stats = outcome.stats;
            stats.wall_time = term_start.elapsed();
            let report = SubTaskReport {
                pattern,
                width: path.width,
                status: outcome.status,
                stats,
                dip_patterns: outcome.dip_patterns,
                gates_before: locked.num_gates(),
                gates_after: restricted.num_gates(),
            };
            if let Some(progress) = opts.progress {
                progress(&ProgressEvent::TermFinished {
                    pattern,
                    width: path.width,
                    status: report.status,
                    dips: report.stats.dips,
                    wall_time: report.stats.wall_time,
                });
            }
            if report.status == AttackStatus::BudgetExhausted && width < max_depth {
                extend_split_order(&restricted, width)?;
                if let Some(progress) = opts.progress {
                    progress(&ProgressEvent::TermSplit {
                        pattern,
                        width: path.width,
                        dips: report.stats.dips,
                    });
                }
                let children = [
                    TermPath { pattern, width: path.width + 1 },
                    TermPath { pattern: pattern | 1u64 << width, width: path.width + 1 },
                ];
                return Ok(TermOutput::Split(report, children));
            }
            let key = outcome.key.map(|key| SubKey { pattern, width: path.width, key });
            Ok(TermOutput::Leaf(report, key))
        }));
        match attempt {
            Ok(result) => result,
            // No progress emission here: the panicking party may *be* the
            // progress callback. The report keeps the served-query count;
            // DIP/solver counters died with the term's local state.
            Err(_panic) => Ok(TermOutput::Leaf(
                SubTaskReport {
                    pattern,
                    width: path.width,
                    status: AttackStatus::Failed,
                    stats: SatAttackStats {
                        oracle_queries: term_queries.load(Ordering::Relaxed),
                        wall_time: term_start.elapsed(),
                        ..SatAttackStats::default()
                    },
                    dip_patterns: Vec::new(),
                    gates_before: locked.num_gates(),
                    gates_after: 0,
                },
                None,
            )),
        }
    };

    // Dispatch over a bounded worker pool pulling from a shared queue:
    // `threads = None` keeps one thread per root term (the paper's 16-core
    // setup at N = 4), widened to the machine's parallelism in adaptive
    // mode so freshly split children find idle workers; `threads = Some(k)`
    // caps concurrency.
    let sched = Scheduler {
        state: Mutex::new(SchedState {
            queue: (0..num_root_terms as u64)
                .map(|pattern| TermPath { pattern, width: n as u8 })
                .collect(),
            in_flight: 0,
            results: Vec::new(),
            resplits: Vec::new(),
            error: None,
        }),
        cv: Condvar::new(),
    };
    let worker = || {
        loop {
            let path = {
                let mut st = sched.lock();
                loop {
                    if st.error.is_some() {
                        st.queue.clear();
                    }
                    if let Some(p) = st.queue.pop_front() {
                        st.in_flight += 1;
                        break Some(p);
                    }
                    if st.in_flight == 0 {
                        break None;
                    }
                    st = sched.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some(path) = path else {
                // Wake any peers still waiting so they observe the drained
                // queue and exit too.
                sched.cv.notify_all();
                return;
            };
            let output = run_term(path);
            let mut st = sched.lock();
            // Saturating: if the defensive join-error path already zeroed
            // the in-flight count, a late completion must not underflow.
            st.in_flight = st.in_flight.saturating_sub(1);
            match output {
                Ok(TermOutput::Leaf(report, key)) => st.results.push((report, key)),
                Ok(TermOutput::Split(report, children)) => {
                    st.resplits.push(report);
                    spawned.fetch_add(children.len(), Ordering::Relaxed);
                    st.queue.extend(children);
                }
                Err(e) => {
                    // First error wins; the queue is drained so in-flight
                    // siblings finish and every worker exits.
                    st.error.get_or_insert(e);
                    st.queue.clear();
                }
            }
            drop(st);
            sched.cv.notify_all();
        }
    };

    let default_workers = if adaptive {
        num_root_terms.max(std::thread::available_parallelism().map_or(1, |p| p.get()))
    } else {
        num_root_terms
    };
    let workers = opts.threads.unwrap_or(default_workers).clamp(1, default_workers.max(1));
    if workers > 1 {
        std::thread::scope(|scope| {
            // The worker closure captures only shared references, so it is
            // `Copy`: each spawn gets its own handle to the same state.
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            for handle in handles {
                if handle.join().is_err() {
                    // Workers recover term panics internally; a panic at
                    // this level is a scheduler bug, but even then one
                    // worker's death must not take the session down — or
                    // strand its in-flight slot and wedge the peers.
                    let mut st = sched.lock();
                    st.error.get_or_insert(AttackError::SessionConfig {
                        message: "an attack worker thread panicked outside a term \
                                  boundary (engine bug)"
                            .into(),
                    });
                    st.queue.clear();
                    st.in_flight = 0;
                    drop(st);
                    sched.cv.notify_all();
                }
            }
        });
    } else {
        worker();
    }

    let mut st = sched.state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = st.error.take() {
        return Err(e);
    }
    st.results.sort_by_key(|(r, _)| (r.width, r.pattern));
    st.resplits.sort_by_key(|r| (r.width, r.pattern));
    let mut keys = Vec::new();
    let mut reports = Vec::with_capacity(st.results.len());
    for (report, key) in st.results {
        if let Some(k) = key {
            keys.push(k);
        }
        reports.push(report);
    }
    let split_inputs = split_order.into_inner().unwrap_or_else(PoisonError::into_inner);
    Ok(AttackReport {
        keys,
        reports,
        resplit_reports: st.resplits,
        split_inputs,
        wall_time: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimOracle;
    use crate::session::AttackSession;
    use polykey_locking::{LockScheme, Sarlock};
    use polykey_netlist::{bits_of, GateKind, Simulator};

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

    fn locked_majority(key_value: u64) -> (Netlist, Netlist) {
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(key_value, 3)).unwrap();
        (nl, locked.netlist)
    }

    /// Runs a sequential session with root effort `n` and an optional
    /// per-term DIP budget and depth cap.
    fn attack(
        original: &Netlist,
        locked: &Netlist,
        n: usize,
        budget: Option<u64>,
        depth_cap: Option<usize>,
    ) -> Result<AttackReport, AttackError> {
        let mut oracle = SimOracle::new(original).unwrap();
        let mut builder =
            AttackSession::builder().oracle(&mut oracle).split_effort(n).threads(1);
        if let Some(budget) = budget {
            builder = builder.term_dip_budget(budget);
        }
        if let Some(depth) = depth_cap {
            builder = builder.max_split_depth(depth);
        }
        let report = builder.build().unwrap().run(locked);
        report
    }

    /// A sub-key must unlock its sub-space exactly.
    fn check_subspace(original: &Netlist, locked: &Netlist, split: &[NodeId], sub: &SubKey) {
        let positions: Vec<usize> = split[..sub.width as usize]
            .iter()
            .map(|id| locked.inputs().iter().position(|p| p == id).unwrap())
            .collect();
        let mut orig = Simulator::new(original).unwrap();
        let mut lsim = Simulator::new(locked).unwrap();
        let ni = original.inputs().len();
        for v in 0..(1u64 << ni) {
            let bits = bits_of(v, ni);
            let in_subspace =
                positions.iter().enumerate().all(|(j, &pos)| bits[pos] == sub.split_bit(j));
            if in_subspace {
                assert_eq!(
                    lsim.eval(&bits, sub.key.bits()),
                    orig.eval(&bits, &[]),
                    "pattern {:b}/{} sub-key must unlock input {v:03b}",
                    sub.pattern,
                    sub.width
                );
            }
        }
    }

    #[test]
    fn n1_recovers_two_subspace_keys() {
        let (nl, locked) = locked_majority(0b101);
        let report = attack(&nl, &locked, 1, None, None).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.keys.len(), 2);
        assert_eq!(report.reports.len(), 2);
        assert!(report.resplit_reports.is_empty(), "static runs never resplit");
        for sub in &report.keys {
            assert_eq!(sub.width, 1);
            check_subspace(&nl, &locked, &report.split_inputs, sub);
        }
    }

    #[test]
    fn n2_parallel_recovers_four_keys() {
        let (nl, locked) = locked_majority(0b010);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(2)
            .build()
            .unwrap()
            .run(&locked)
            .unwrap();
        assert!(report.is_complete());
        assert_eq!(report.keys.len(), 4);
        for sub in &report.keys {
            check_subspace(&nl, &locked, &report.split_inputs, sub);
        }
        // Patterns are 0..4 in order (uniform width sorts numerically).
        let patterns: Vec<u64> = report.keys.iter().map(|k| k.pattern).collect();
        assert_eq!(patterns, vec![0, 1, 2, 3]);
    }

    #[test]
    fn n0_degenerates_to_plain_sat_attack() {
        let (nl, locked) = locked_majority(0b100);
        let report = attack(&nl, &locked, 0, None, None).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.keys.len(), 1);
        assert_eq!(report.keys[0].pattern, 0);
        assert_eq!(report.keys[0].width, 0);
        // The one term attacks the locked netlist as given.
        assert_eq!(report.reports[0].gates_after, report.reports[0].gates_before);
        // With N = 0 the sub-space is the whole space: the key is globally
        // correct.
        check_subspace(&nl, &locked, &[], &report.keys[0]);
        assert_eq!(report.key(), Some(&report.keys[0].key));
    }

    #[test]
    fn splitting_reduces_dips_on_sarlock() {
        // The headline effect of Table 1: #DIP halves per split level when
        // the splitting ports hit the SARLock comparator.
        let (nl, locked) = locked_majority(0b110);
        let mut dips_by_n = Vec::new();
        for n in 0..=2usize {
            let report = attack(&nl, &locked, n, None, None).unwrap();
            assert!(report.is_complete(), "N={n}");
            let max_dips = report.reports.iter().map(|r| r.stats.dips).max().unwrap();
            dips_by_n.push(max_dips);
        }
        assert!(
            dips_by_n[1] < dips_by_n[0] && dips_by_n[2] < dips_by_n[1],
            "#DIP must shrink with N: {dips_by_n:?}"
        );
    }

    #[test]
    fn adaptive_budget_splits_hard_terms_deeper() {
        // SARLock |K| = 3 needs ~7 DIPs at the root; a budget of 2 forces
        // the engine to subdivide until each leaf converges within budget.
        let (nl, locked) = locked_majority(0b101);
        let report = attack(&nl, &locked, 0, Some(2), None).unwrap();
        assert!(report.is_complete(), "statuses: {:?}", report.reports);
        assert!(report.max_depth() > 0, "the root term must have been subdivided");
        assert!(!report.resplit_reports.is_empty());
        for r in &report.resplit_reports {
            assert_eq!(r.status, AttackStatus::BudgetExhausted);
            assert!(r.stats.dips <= 2, "budgeted term overspent: {} DIPs", r.stats.dips);
        }
        // The final tree's split order covers its deepest leaf.
        assert!(report.split_inputs.len() >= report.max_depth());
        // Every leaf key still unlocks exactly its sub-space.
        for sub in &report.keys {
            check_subspace(&nl, &locked, &report.split_inputs, sub);
        }
    }

    #[test]
    fn adaptive_depth_cap_limits_the_tree() {
        let (nl, locked) = locked_majority(0b011);
        let report = attack(&nl, &locked, 0, Some(1), Some(1)).unwrap();
        // At the cap terms run without the soft budget, so they converge.
        assert!(report.is_complete());
        assert!(report.max_depth() <= 1);
    }

    #[test]
    fn simplify_shrinks_subtask_netlists() {
        let (nl, locked) = locked_majority(0b001);
        for simplify in [true, false] {
            let mut oracle = SimOracle::new(&nl).unwrap();
            let report = AttackSession::builder()
                .oracle(&mut oracle)
                .split_effort(2)
                .threads(1)
                .simplify(simplify)
                .build()
                .unwrap()
                .run(&locked)
                .unwrap();
            assert!(report.is_complete());
            for r in &report.reports {
                // Ablation: without simplification the netlists keep their
                // size.
                assert_eq!(
                    r.gates_after < r.gates_before,
                    simplify,
                    "simplify={simplify} term {:02b}: {} -> {}",
                    r.pattern,
                    r.gates_before,
                    r.gates_after
                );
            }
        }
    }

    #[test]
    fn task_time_aggregates() {
        let (nl, locked) = locked_majority(0b011);
        let report = attack(&nl, &locked, 1, None, None).unwrap();
        let stats = report.stats();
        assert_eq!(stats.subtask_wall_times.len(), report.reports.len());
        let min = stats.subtask_wall_times.iter().min().copied().unwrap();
        assert!(min <= stats.max_subtask_time());
        assert!(stats.max_subtask_time() <= stats.wall_time);
    }

    #[test]
    fn split_too_wide_rejected() {
        let (nl, locked) = locked_majority(0b011);
        assert!(matches!(
            attack(&nl, &locked, 12, None, None),
            Err(AttackError::SplitTooWide { .. })
        ));
    }

    #[test]
    fn split_effort_64_rejected_not_wrapped() {
        // Regression: `1u64 << 64` wraps to 1 in release (one silent term)
        // and panics in debug. The engine must reject the configuration
        // before any shift happens — even when the circuit has 64 inputs,
        // which the old `n > inputs` check waved through.
        let mut nl = Netlist::new("wide64");
        let inputs: Vec<NodeId> =
            (0..64).map(|i| nl.add_input(format!("x{i}")).unwrap()).collect();
        let y = nl.add_gate("y", GateKind::Or, &inputs).unwrap();
        nl.mark_output(y).unwrap();
        assert!(matches!(
            attack(&nl, &nl, 64, None, None),
            Err(AttackError::SplitTooDeep { requested: 64, max: MAX_SPLIT_WIDTH })
        ));
    }
}
