//! The multi-key attack — Algorithm 1 of the paper, generalized from a
//! flat `2^N` grid to an adaptive term *tree*.
//!
//! Instead of hunting for the single correct key, the attack splits the
//! input space on chosen ports and runs an independent SAT attack per
//! term. Each term returns a key that unlocks its sub-space (possibly
//! globally *incorrect*); collectively — recombined with a MUX tree, see
//! [`crate::recombine_multikey`] — the keys restore the full design
//! function. With `N = 0` the tree is a single term with no pins: the
//! classic one-key SAT attack on the locked netlist as given, run on the
//! calling thread.
//!
//! A session encodes the locked netlist once: its key cone, peel and
//! miter, in one solver. Every term starts from a copy of a solver and
//! pins its sub-space with one unit clause per split port, where the paper
//! cofactors and re-synthesizes the netlist per term (Algorithm 1 line 4).
//! Root terms copy the session's solver, so the static grid is the term
//! tree pre-split to depth `N`. Queued terms share the solver they resume,
//! and the last of them to start takes it instead of a copy.
//!
//! The paper fixes the splitting effort `N` up front, but term hardness is
//! wildly uneven in practice: the SARLock term containing the protected
//! pattern dominates wall-clock while its siblings converge in a handful
//! of DIPs. With a per-term DIP budget configured
//! ([`crate::AttackSessionBuilder::term_dip_budget`]) the engine therefore
//! runs *adaptively*: a term that spends its budget without converging is
//! split one port deeper, on the next port of the session's one split
//! ranking, and its two children go to the front of the work queue, so
//! the tree grows depth first: at most one waiting sibling per level holds
//! a copy of a solver, however many terms split. The children *resume*
//! the parent's solver rather than starting over, each with one more unit
//! clause for its new port, so no child asks the oracle a DIP its parent
//! already paid for, and every constraint and learnt
//! clause carries over (each constraint is an oracle fact, so the correct
//! key satisfies them all). Easy sub-spaces finish at shallow depth; hard
//! ones are subdivided until they yield, or until they pin every input (at
//! most [`MAX_SPLIT_WIDTH`]), where a term runs without the budget.
//! Terms are identified by `(pattern, width)` prefix-tree paths rather
//! than flat grid indices.
//!
//! The terms are embarrassingly parallel; a bounded pool of workers pulls
//! them — including freshly split children — from a shared queue. A term
//! whose worker panics (e.g. a crashing oracle) is reported as
//! [`AttackStatus::Failed`] instead of poisoning its siblings or tearing
//! down the session.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use polykey_encode::AttackEncoding;
use polykey_locking::Key;
use polykey_netlist::Netlist;
use polykey_sat::Solver;

use crate::error::AttackError;
use crate::oracle::{SharedOracle, TermOracle};
use crate::sat_attack::{run_sat_attack, AttackStatus, TermCtl};
use crate::session::{AttackConfig, AttackReport, AttackStats, ProgressEvent};
use crate::split::select_split_inputs;

/// The deepest split the engine supports: sub-space patterns are `u64`
/// prefix paths, so any effort or resplit beyond 63 pinned ports would
/// overflow `1u64 << n` (silently in release, with a panic in debug).
/// Requests past this limit are rejected with
/// [`AttackError::SplitTooDeep`].
pub const MAX_SPLIT_WIDTH: usize = 63;

/// The term pool's size when the session sets no thread count: one worker
/// per root term, but never more than `cores`. Each term's wall time is
/// the latency the paper reports for a machine with a core per term, and
/// a term waiting for a core would count that wait as well. Adaptive runs
/// take every core, so freshly split children find an idle worker.
fn default_workers(num_root_terms: usize, adaptive: bool, cores: usize) -> usize {
    if adaptive {
        cores
    } else {
        num_root_terms.min(cores)
    }
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

/// Per-term accounting.
#[derive(Clone, Debug)]
pub struct SubTaskReport {
    /// The term's prefix-tree path (see [`SubKey::pattern`]).
    pub pattern: u64,
    /// How many split ports this term pins (its depth in the term tree).
    pub width: u8,
    /// How this term's SAT attack ended.
    pub status: AttackStatus,
    /// The term's work record, `stats.term_time` its wall-clock time. A
    /// child that resumed its parent's search counts only its own work, so
    /// sums over the tree count each step once. A [`AttackStatus::Failed`]
    /// term keeps only its time and the oracle queries it was served; its
    /// other counters died with it.
    pub stats: AttackStats,
    /// Variables in the term's solver at its end (0 if it failed).
    pub cnf_vars: usize,
    /// Original (not learnt) clauses in the term's solver at its end (0 if it failed).
    pub cnf_clauses: usize,
    /// The term's DIPs in discovery order (empty unless
    /// [`crate::AttackSessionBuilder::record_dips`] is on).
    pub dip_patterns: Vec<Vec<bool>>,
}

/// One node of the term tree awaiting an attack.
struct TermPath {
    pattern: u64,
    width: u8,
    /// The solver this term resumes: the session's for a root term, its
    /// exhausted parent's for a child. Shared by every queued term that
    /// resumes it; the last of them to start takes it, the others a copy.
    solver: Arc<Solver>,
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
    config: &AttackConfig<'_>,
) -> Result<AttackReport, AttackError> {
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
    let n = config.split_effort;
    // Guard every `1u64 << width` in the engine: splitting deeper than 63
    // ports cannot be represented in the u64 prefix paths.
    if n > MAX_SPLIT_WIDTH {
        return Err(AttackError::SplitTooDeep { requested: n, max: MAX_SPLIT_WIDTH });
    }
    let max_depth = locked.inputs().len().min(MAX_SPLIT_WIDTH).max(n);
    let adaptive = config.term_dip_budget.is_some();
    let start = Instant::now();
    // A budget past the clock's range is no deadline.
    let deadline = config.time_budget.and_then(|budget| start.checked_add(budget));
    let progress = config.on_progress.as_deref();

    // The split ports in pattern bit order: a term of width `w` pins the
    // first `w`. A ranking is a pure function of the netlist and the
    // strategy, and a shorter ranking is a prefix of a longer one, so one
    // ranking to the depth cap serves the root grid and every resplit.
    let ranked =
        select_split_inputs(locked, if adaptive { max_depth } else { n }, config.strategy)?;
    let positions: Vec<usize> = ranked
        .iter()
        .map(|id| {
            locked
                .inputs()
                .iter()
                .position(|p| p == id)
                .expect("split ports come from the input list")
        })
        .collect();

    let num_root_terms = 1usize << n;
    // Total terms ever enqueued, for progress reporting.
    let spawned = AtomicUsize::new(num_root_terms);

    // Every term searches the locked netlist: encode it once, with the
    // miter in a solver that each root term copies and pins by unit
    // clauses. A root term's time counts this encoding, as it would if the
    // term ran alone.
    let started = Instant::now();
    let (encoding, root_solver) = AttackEncoding::new(locked, config.textbook);
    let encode_time = started.elapsed();

    let run_term = |path: TermPath| -> TermOutput {
        let term_start = Instant::now();
        let TermPath { pattern, width: path_width, solver } = path;
        let width = path_width as usize;
        let setup = if width == n { encode_time } else { Duration::ZERO };
        // Every exit of the term reports through here, which stamps its time.
        let report = |status, stats: AttackStats, (cnf_vars, cnf_clauses), dip_patterns| {
            let stats = stats.timed(setup + term_start.elapsed());
            let width = path_width;
            SubTaskReport { pattern, width, status, stats, cnf_vars, cnf_clauses, dip_patterns }
        };
        // Served-query count lives *outside* the panic boundary, so a term
        // whose oracle crashes mid-run still reports the queries it spent.
        let term_queries = AtomicU64::new(0);
        // The panic boundary covers the whole term — the SAT attack *and*
        // every progress callback — so a crashing oracle or a panicking
        // user callback fails this term, not the session (and cannot strand
        // the scheduler's in-flight accounting).
        // The shared-oracle mutex recovers from the resulting poison (see
        // `SharedOracle::lock`); the term's local state is simply
        // discarded.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if let Some(progress) = progress {
                progress(&ProgressEvent::TermStarted {
                    pattern,
                    width: path_width,
                    terms: spawned.load(Ordering::Relaxed),
                    gates: locked.num_gates(),
                });
            }
            // A child's solver already holds every pin but the newest, so
            // adding one again is a no-op; a root term's holds none.
            let solver = Arc::try_unwrap(solver).unwrap_or_else(|s| (*s).clone());
            let force_inputs: Vec<(usize, bool)> = positions[..width]
                .iter()
                .enumerate()
                .map(|(j, &pos)| (pos, pattern >> j & 1 == 1))
                .collect();
            let on_dip = progress.map(|progress| {
                move |dips: u64| {
                    progress(&ProgressEvent::Dip { pattern, width: path_width, dips })
                }
            });
            // Terms that can still be subdivided run under the DIP budget;
            // at the depth cap only the session deadline applies.
            let term = TermCtl {
                force_inputs,
                dip_budget: config.term_dip_budget.filter(|_| width < max_depth),
                deadline,
                on_dip: on_dip.as_ref().map(|f| f as &(dyn Fn(u64) + Sync)),
            };
            let mut term_oracle = TermOracle::new(oracle, &term_queries);
            let outcome = run_sat_attack(&encoding, solver, &mut term_oracle, config, &term);
            let report =
                report(outcome.status, outcome.stats, outcome.cnf_size, outcome.dip_patterns);
            if let Some(progress) = progress {
                progress(&ProgressEvent::TermFinished {
                    pattern,
                    width: path_width,
                    status: report.status,
                    stats: report.stats,
                });
            }
            // Only a budgeted term hands its solver back, so `width` is
            // below the depth cap.
            if let Some(solver) = outcome.solver {
                if let Some(progress) = progress {
                    progress(&ProgressEvent::TermSplit {
                        pattern,
                        width: path_width,
                        dips: report.stats.dips,
                    });
                }
                // Both children resume this solver. The copy is taken only
                // when the first of them starts, so a queued pair holds one
                // solver, not two.
                let solver = Arc::new(solver);
                let children = [
                    TermPath { pattern, width: path_width + 1, solver: Arc::clone(&solver) },
                    TermPath {
                        pattern: pattern | 1u64 << width,
                        width: path_width + 1,
                        solver,
                    },
                ];
                return TermOutput::Split(report, children);
            }
            let key = outcome.key.map(|key| SubKey { pattern, width: path_width, key });
            TermOutput::Leaf(report, key)
        }));
        // No progress emission on a panic: the panicking party may *be*
        // the progress callback. The report keeps the served-query count;
        // DIP/solver counters died with the term's local state.
        attempt.unwrap_or_else(|_panic| {
            let mut stats = AttackStats::default();
            stats.oracle_queries = term_queries.load(Ordering::Relaxed);
            TermOutput::Leaf(report(AttackStatus::Failed, stats, (0, 0), Vec::new()), None)
        })
    };

    // Dispatch over a bounded worker pool pulling from a shared queue:
    // `threads = None` takes `default_workers`; `threads = Some(k)` caps
    // concurrency. Every root term resumes the session's solver, so the
    // last of them to start takes it.
    let root_solver = Arc::new(root_solver);
    let queue = (0..num_root_terms as u64)
        .map(|pattern| TermPath { pattern, width: n as u8, solver: Arc::clone(&root_solver) })
        .collect();
    drop(root_solver);
    let sched = Scheduler {
        state: Mutex::new(SchedState {
            queue,
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
                TermOutput::Leaf(report, key) => st.results.push((report, key)),
                TermOutput::Split(report, children) => {
                    st.resplits.push(report);
                    spawned.fetch_add(children.len(), Ordering::Relaxed);
                    // Depth first: the children run next, in pattern order.
                    for child in children.into_iter().rev() {
                        st.queue.push_front(child);
                    }
                }
            }
            drop(st);
            sched.cv.notify_all();
        }
    };

    // Workers beyond the root terms would idle, unless resplits add terms.
    // The core count (on Linux, a read of cgroup files) is asked for only
    // where it can change the pool's size.
    let cores = || std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = match config.threads {
        None => default_workers(num_root_terms, adaptive, cores()),
        Some(k) if adaptive && k > num_root_terms => k.min(cores().max(num_root_terms)),
        Some(k) => k.clamp(1, num_root_terms),
    };
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
    // The split ports the final tree pins: its deepest leaf's, or the root
    // grid's.
    let mut split_inputs = ranked;
    split_inputs.truncate(reports.iter().map(|r| r.width as usize).fold(n, usize::max));
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
    use crate::oracle::{Oracle, SimOracle};
    use crate::session::AttackSession;
    use crate::split::SplitStrategy;
    use polykey_locking::{LockScheme, Sarlock};
    use polykey_netlist::{bits_of, GateKind, NodeId, Simulator};
    use std::time::Duration;

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
    /// per-term DIP budget.
    fn attack(
        original: &Netlist,
        locked: &Netlist,
        n: usize,
        budget: Option<u64>,
    ) -> Result<AttackReport, AttackError> {
        let mut oracle = SimOracle::new(original).unwrap();
        let mut builder =
            AttackSession::builder().oracle(&mut oracle).split_effort(n).threads(1);
        if let Some(budget) = budget {
            builder = builder.term_dip_budget(budget);
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
            let in_subspace = positions
                .iter()
                .enumerate()
                .all(|(j, &pos)| bits[pos] == (sub.pattern >> j & 1 == 1));
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
        let report = attack(&nl, &locked, 1, None).unwrap();
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
    fn default_pool_never_exceeds_the_core_count() {
        for cores in [1, 2, 3, 16] {
            for terms in [1, 2, 8, 16, 1024] {
                for adaptive in [false, true] {
                    let workers = default_workers(terms, adaptive, cores);
                    assert!((1..=cores).contains(&workers), "{terms} terms on {cores} cores");
                    if !adaptive {
                        assert!(workers <= terms, "an idle worker for {terms} terms");
                    }
                }
            }
        }
        // A session on the default pool runs its eight terms on no more
        // threads than this host has cores.
        let (nl, locked) = locked_majority(0b110);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let threads = Mutex::new(std::collections::HashSet::new());
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(3)
            .on_progress(|event| {
                if let ProgressEvent::TermStarted { .. } = event {
                    threads.lock().unwrap().insert(std::thread::current().id());
                }
            })
            .build()
            .unwrap()
            .run(&locked)
            .unwrap();
        assert!(report.is_complete());
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let used = threads.lock().unwrap().len();
        assert!((1..=cores.min(8)).contains(&used), "{used} term threads on {cores} cores");
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
        let report = attack(&nl, &locked, 0, None).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.keys.len(), 1);
        assert_eq!(report.keys[0].pattern, 0);
        assert_eq!(report.keys[0].width, 0);
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
            let report = attack(&nl, &locked, n, None).unwrap();
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
        let report = attack(&nl, &locked, 0, Some(2)).unwrap();
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
    fn term_dips_stay_in_their_subspace() {
        // The unit clauses on the split bits are the only pin on a term's
        // oracle traffic: every recorded DIP of every term, leaf or
        // resplit, must already carry the term's split bits.
        let (nl, locked) = locked_majority(0b110);
        for (n, budget) in [(2, None), (0, Some(2))] {
            let mut oracle = SimOracle::new(&nl).unwrap();
            let mut builder = AttackSession::builder()
                .oracle(&mut oracle)
                .split_effort(n)
                .threads(1)
                .record_dips(true);
            if let Some(budget) = budget {
                builder = builder.term_dip_budget(budget);
            }
            let report = builder.build().unwrap().run(&locked).unwrap();
            assert!(report.is_complete());
            let positions: Vec<usize> = report
                .split_inputs
                .iter()
                .map(|id| locked.inputs().iter().position(|p| p == id).unwrap())
                .collect();
            assert!(report.terms().any(|r| !r.dip_patterns.is_empty()), "N={n}");
            for r in report.terms() {
                for dip in &r.dip_patterns {
                    for (j, &pos) in positions[..r.width as usize].iter().enumerate() {
                        assert_eq!(
                            dip[pos],
                            r.pattern >> j & 1 == 1,
                            "N={n} term {:b}/{} DIP {dip:?}",
                            r.pattern,
                            r.width
                        );
                    }
                }
            }
            assert_eq!(oracle.queries(), report.stats().oracle_queries, "N={n}");
        }
    }

    /// SARLock |K| = 8 on the c432 stand-in, and the design it locks.
    fn sarlock_c432() -> (Netlist, Netlist) {
        let nl = polykey_circuits::Iscas85::C432.build();
        let locked = Sarlock::new(8).lock(&nl, &Key::from_u64(0x5A, 8)).unwrap().netlist;
        (nl, locked)
    }

    #[test]
    fn resumed_terms_count_each_solve_once() {
        // With one DIP per round, a term solves once per DIP, once more to
        // find the miter unsatisfiable or its budget spent, and once to
        // extract its key. A child that also counted its parent's solver
        // work would break the equation.
        let (nl, locked) = sarlock_c432();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .threads(1)
            .dip_batch(1)
            .term_dip_budget(32)
            .build()
            .unwrap()
            .run(&locked)
            .unwrap();
        assert!(report.is_complete());
        assert!(report.max_depth() > 1, "the tree must resume children of children");
        for r in report.terms() {
            let extraction = u64::from(r.status == AttackStatus::Success);
            assert_eq!(
                r.stats.solver.solves,
                r.stats.dips + 1 + extraction,
                "term {:b}/{}",
                r.pattern,
                r.width
            );
        }
        // No DIP is asked twice: the tree pays what one key pays.
        assert_eq!(report.stats().oracle_queries, 255);
    }

    /// Answers like `inner`, but its first round-trip takes `first_delay`.
    struct SlowFirstRound<'a> {
        inner: SimOracle<'a>,
        first_delay: Option<Duration>,
    }

    impl Oracle for SlowFirstRound<'_> {
        fn num_inputs(&self) -> usize {
            self.inner.num_inputs()
        }

        fn num_outputs(&self) -> usize {
            self.inner.num_outputs()
        }

        fn query(&mut self, input: &[bool]) -> Vec<bool> {
            self.query_batch(&[input.to_vec()]).pop().unwrap()
        }

        fn query_batch(&mut self, inputs: &[Vec<bool>]) -> Vec<Vec<bool>> {
            if let Some(delay) = self.first_delay.take() {
                std::thread::sleep(delay);
            }
            self.inner.query_batch(inputs)
        }

        fn queries(&self) -> u64 {
            self.inner.queries()
        }
    }

    #[test]
    fn a_deadline_that_passes_between_solves_stops_the_run() {
        // The first oracle round outlasts the session budget, so the
        // deadline passes between two solves: the next solve's first clock
        // read stops the run.
        let (nl, locked) = sarlock_c432();
        let budget = Duration::from_millis(50);
        let mut oracle = SlowFirstRound {
            inner: SimOracle::new(&nl).unwrap(),
            first_delay: Some(2 * budget),
        };
        let started = Instant::now();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .time_budget(budget)
            .build()
            .unwrap()
            .run(&locked)
            .unwrap();
        assert_eq!(report.status(), AttackStatus::TimeLimit);
        assert_eq!(report.stats().dips, 1);
        assert!(started.elapsed() < Duration::from_secs(2), "took {:?}", started.elapsed());
    }

    #[test]
    fn an_unbounded_time_budget_is_no_deadline() {
        // `start + Duration::MAX` overflows the clock: such a budget must
        // mean no deadline, not a panic.
        let (nl, locked) = locked_majority(0b011);
        let mut oracle = SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .time_budget(Duration::MAX)
            .build()
            .unwrap()
            .run(&locked)
            .unwrap();
        assert!(report.is_complete());
    }

    #[test]
    fn adaptive_depth_cap_limits_the_tree() {
        // A budget of one DIP splits down to terms that pin all three
        // inputs. Those cannot be split again, so they run without the
        // budget and converge.
        let (nl, locked) = locked_majority(0b011);
        let report = attack(&nl, &locked, 0, Some(1)).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.max_depth(), locked.inputs().len());
    }

    #[test]
    fn adaptive_trees_grow_depth_first() {
        // Random split ports mostly miss SARLock's comparator, so a budget
        // of two DIPs splits 142 terms, 8 levels deep. Grown depth first,
        // the queue holds the roots not yet started and at most one
        // waiting sibling per level: pending = roots + 2 * splits - starts
        // stays within roots + depth (breadth first, it reached 112).
        let original = polykey_circuits::Iscas85::C432.build();
        let locked = Sarlock::new(5).lock(&original, &Key::from_u64(0x15, 5)).unwrap().netlist;
        let roots = 2;
        let pending = Mutex::new((roots, roots));
        let mut oracle = SimOracle::new(&original).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(1)
            .strategy(SplitStrategy::Random { seed: 3 })
            .term_dip_budget(2)
            .threads(1)
            .on_progress(|event| {
                let mut guard = pending.lock().unwrap();
                let (now, peak) = &mut *guard;
                match event {
                    ProgressEvent::TermStarted { .. } => *now -= 1,
                    ProgressEvent::TermSplit { .. } => *now += 2,
                    _ => {}
                }
                *peak = (*peak).max(*now);
            })
            .build()
            .unwrap()
            .run(&locked)
            .unwrap();
        assert!(report.is_complete());
        assert!(report.resplit_reports.len() > 64, "a tree wide enough to matter");
        let (now, peak) = pending.into_inner().unwrap();
        assert_eq!(now, 0, "every queued term started");
        let depth = report.max_depth();
        assert!(peak <= roots + depth, "{peak} terms waited at once in a tree {depth} deep");
    }

    #[test]
    fn task_time_aggregates() {
        // A static grid, then an adaptive tree whose resplit terms count too.
        let (nl, locked) = locked_majority(0b011);
        for (n, budget) in [(1, None), (0, Some(2))] {
            let report = attack(&nl, &locked, n, budget).unwrap();
            assert!(report.is_complete());
            assert_eq!(report.resplit_reports.is_empty(), budget.is_none());
            let terms = || report.terms().map(|r| r.stats);
            assert!(terms().all(|s| s.max_subtask_time() == s.term_time));
            let stats = report.stats();
            assert_eq!(stats.dips, terms().map(|s| s.dips).sum::<u64>());
            assert_eq!(stats.oracle_queries, terms().map(|s| s.oracle_queries).sum::<u64>());
            assert_eq!(stats.oracle_rounds, terms().map(|s| s.oracle_rounds).sum::<u64>());
            assert_eq!(stats.solver, terms().map(|s| s.solver).sum());
            assert_eq!(stats.term_time, terms().map(|s| s.term_time).sum());
            let longest = terms().map(|s| s.term_time).max().unwrap();
            assert_eq!(stats.max_subtask_time(), longest);
            assert!(stats.max_subtask_time() <= report.wall_time);
        }
    }

    #[test]
    fn split_too_wide_rejected() {
        let (nl, locked) = locked_majority(0b011);
        assert!(matches!(
            attack(&nl, &locked, 12, None),
            Err(AttackError::SplitTooWide { .. })
        ));
    }

    #[test]
    fn oracle_port_counts_are_checked_before_any_term() {
        // majority3 has three inputs and one output; each oracle below gets
        // one of the counts wrong. The session must refuse it before any
        // term starts, static or adaptive.
        let (_, locked) = locked_majority(0b011);
        let mut wide = Netlist::new("wide");
        let ins: Vec<NodeId> =
            (0..4).map(|i| wide.add_input(format!("x{i}")).unwrap()).collect();
        let g = wide.add_gate("g", GateKind::And, &ins).unwrap();
        wide.mark_output(g).unwrap();
        let mut tall = majority3();
        let a = tall.inputs()[0];
        let extra = tall.add_gate("extra", GateKind::Not, &[a]).unwrap();
        tall.mark_output(extra).unwrap();
        for (oracle_nl, port, expected, served) in
            [(&wide, "inputs", 3, 4), (&tall, "outputs", 1, 2)]
        {
            for budget in [None, Some(2)] {
                let mut oracle = SimOracle::new(oracle_nl).unwrap();
                let events = AtomicUsize::new(0);
                let mut builder = AttackSession::builder()
                    .oracle(&mut oracle)
                    .split_effort(2)
                    .on_progress(|_| {
                        events.fetch_add(1, Ordering::Relaxed);
                    });
                if let Some(budget) = budget {
                    builder = builder.term_dip_budget(budget);
                }
                let err = builder.build().unwrap().run(&locked).unwrap_err();
                assert!(
                    matches!(
                        err,
                        AttackError::OracleMismatch { what, netlist, oracle }
                            if what == port && netlist == expected && oracle == served
                    ),
                    "{port}: {err:?}"
                );
                assert_eq!(events.load(Ordering::Relaxed), 0, "{port}: no term may start");
                assert_eq!(oracle.queries(), 0, "{port}");
            }
        }
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
            attack(&nl, &nl, 64, None),
            Err(AttackError::SplitTooDeep { requested: 64, max: MAX_SPLIT_WIDTH })
        ));
    }
}
