//! The CDCL solver: propagation, conflict analysis, restarts, reduction.
//!
//! This is a MiniSat-class solver: two-watched-literal propagation with
//! blockers, VSIDS decision heuristic with an indexed heap, first-UIP clause
//! learning with deep (recursive) minimization, phase saving, Luby restarts,
//! activity/LBD-guided learnt-clause deletion, and incremental solving under
//! assumptions. Clauses that reach it from an
//! [`ElimBuffer`](crate::ElimBuffer) are merged with earlier ones that
//! differ in one literal's sign.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use crate::clause::{ClauseDb, ClauseRef, Watcher};
use crate::lit::{LBool, Lit, Var};

/// Work units (decisions plus propagations) between two clock reads under
/// a deadline: at tens of nanoseconds per unit, a deadline is noticed
/// well within a millisecond.
const CLOCK_POLL_STRIDE: u64 = 4096;

/// Outcome of a [`Solver::solve`] call.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model_value`].
    Sat,
    /// The formula is unsatisfiable under the given assumptions.
    Unsat,
    /// The [`Solver::set_deadline`] deadline passed first.
    Unknown,
}

/// Counters describing the work a solver has performed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses added (excluding learnt units).
    pub learnt_clauses: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of literals removed by conflict-clause minimization.
    pub minimized_lits: u64,
    /// Number of `solve` calls.
    pub solves: u64,
    /// Number of stored clauses replaced by their resolvent with a new
    /// clause that differs from them in one literal's sign.
    pub merged_clauses: u64,
}

/// Field-wise accumulation, so callers can merge the per-solver snapshots
/// of many independent attacks (e.g. the `2^N` terms of the multi-key
/// attack) into one aggregate without naming every counter.
impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: SolverStats) {
        self.decisions += rhs.decisions;
        self.conflicts += rhs.conflicts;
        self.propagations += rhs.propagations;
        self.restarts += rhs.restarts;
        self.learnt_clauses += rhs.learnt_clauses;
        self.deleted_clauses += rhs.deleted_clauses;
        self.minimized_lits += rhs.minimized_lits;
        self.solves += rhs.solves;
        self.merged_clauses += rhs.merged_clauses;
    }
}

/// Field-wise difference: the work a solver did since an earlier snapshot
/// of its own counters (e.g. since a clone of it resumed another's search).
impl std::ops::Sub for SolverStats {
    type Output = SolverStats;

    fn sub(self, rhs: SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions - rhs.decisions,
            conflicts: self.conflicts - rhs.conflicts,
            propagations: self.propagations - rhs.propagations,
            restarts: self.restarts - rhs.restarts,
            learnt_clauses: self.learnt_clauses - rhs.learnt_clauses,
            deleted_clauses: self.deleted_clauses - rhs.deleted_clauses,
            minimized_lits: self.minimized_lits - rhs.minimized_lits,
            solves: self.solves - rhs.solves,
            merged_clauses: self.merged_clauses - rhs.merged_clauses,
        }
    }
}

/// Field-wise sum over an iterator of snapshots (see [`SolverStats`]'s
/// `AddAssign`).
impl std::iter::Sum for SolverStats {
    fn sum<I: Iterator<Item = SolverStats>>(iter: I) -> SolverStats {
        let mut total = SolverStats::default();
        for s in iter {
            total += s;
        }
        total
    }
}

// Search parameters: the MiniSat 2.2 defaults.

/// Multiplicative decay applied to variable activities per conflict.
const VAR_DECAY: f64 = 0.95;
/// Multiplicative decay applied to clause activities per conflict.
const CLAUSE_DECAY: f64 = 0.999;
/// Conflicts before the first restart.
const RESTART_FIRST: u64 = 100;
/// Base of the Luby restart sequence.
const RESTART_INC: f64 = 2.0;
/// Fraction of original clauses allowed as learnt clauses initially.
const LEARNTSIZE_FACTOR: f64 = 1.0 / 3.0;
/// Growth factor of the learnt-clause limit after each reduction.
const LEARNTSIZE_INC: f64 = 1.1;

/// A [`Hasher`] for keys that are hashes already: it hands the one `u64`
/// written to it through.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 keys are hashed");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Stored survivors by clause hash.
type SurvivorIndex = HashMap<u64, ClauseRef, BuildHasherDefault<PassThrough>>;

/// One literal's 64-bit hash (the SplitMix64 finalizer of its code). A
/// clause's hash is the xor over its literals, so flipping `l` in a clause
/// xors its hash with `lit_hash(l) ^ lit_hash(!l)`.
fn lit_hash(l: Lit) -> u64 {
    let mut z = (l.code() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn clause_hash(lits: &[Lit]) -> u64 {
    lits.iter().fold(0, |h, &l| h ^ lit_hash(l))
}

#[derive(Copy, Clone, Debug)]
struct VarData {
    reason: Option<ClauseRef>,
    level: u32,
}

/// An incremental CDCL SAT solver.
///
/// # Examples
///
/// Solve `(a ∨ b) ∧ (¬a ∨ b) ∧ (¬b ∨ c)`:
///
/// ```
/// use polykey_sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// let b = solver.new_var().positive();
/// let c = solver.new_var().positive();
/// solver.add_clause(&[a, b]);
/// solver.add_clause(&[!a, b]);
/// solver.add_clause(&[!b, c]);
///
/// assert_eq!(solver.solve(&[]), SolveResult::Sat);
/// assert_eq!(solver.model_value(b), Some(true));
/// assert_eq!(solver.model_value(c), Some(true));
///
/// // Incremental: the same solver, now under an assumption.
/// assert_eq!(solver.solve(&[!c]), SolveResult::Unsat);
/// assert_eq!(solver.solve(&[]), SolveResult::Sat);
/// ```
///
/// A clone is an independent solver in the same state: clauses, learnt
/// clauses, activities, counters and the deadline.
///
/// Clauses that an [`ElimBuffer`](crate::ElimBuffer) flushes with
/// [`flush_mirrored`](crate::ElimBuffer::flush_mirrored) (the *survivors*
/// of a batch) are merged as they arrive: a stored survivor `C ∨ ¬l` and
/// a new `C ∨ l` are replaced by `C`, repeatedly, and a `C` of one literal
/// becomes a level-0 fact (self-subsuming resolution, Eén & Biere, SAT
/// 2005). The model set stays the same. In proof terms `C` is a RUP
/// lemma and the two partners are deletions. Clauses added with
/// [`add_clause`](Solver::add_clause) are never merged.
#[derive(Clone, Debug)]
pub struct Solver {
    stats: SolverStats,

    db: ClauseDb,
    /// The live survivors, by the xor of their literal hashes. A hash
    /// collision keeps the later clause, so a lookup checks the literals.
    survivors: SurvivorIndex,
    /// Watch lists indexed by literal code: clauses to inspect when the
    /// indexing literal becomes true (i.e. its negation is falsified).
    watches: Vec<Vec<Watcher>>,

    assigns: Vec<LBool>,
    vardata: Vec<VarData>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    order: crate::heap::VarOrderHeap,
    polarity: Vec<bool>,

    cla_inc: f64,
    max_learnts: f64,

    ok: bool,
    model: Vec<LBool>,

    // Scratch buffers for conflict analysis.
    seen: Vec<bool>,
    analyze_toclear: Vec<Var>,
    analyze_stack: Vec<Lit>,

    // Budget.
    deadline: Option<Instant>,
    /// Work count (decisions plus propagations) at which the deadline is
    /// next compared with the clock.
    next_clock_poll: u64,
    budget_exhausted: bool,

    /// Trail length at the last `simplify`, to skip no-op passes.
    simp_trail_len: usize,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            stats: SolverStats::default(),
            db: ClauseDb::new(),
            survivors: SurvivorIndex::default(),
            watches: Vec::new(),
            assigns: Vec::new(),
            vardata: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: crate::heap::VarOrderHeap::new(),
            polarity: Vec::new(),
            cla_inc: 1.0,
            max_learnts: 0.0,
            ok: true,
            model: Vec::new(),
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            analyze_stack: Vec::new(),
            deadline: None,
            next_clock_poll: 0,
            budget_exhausted: false,
            simp_trail_len: 0,
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.vardata.push(VarData { reason: None, level: 0 });
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live problem clauses (excluding learnt clauses and units).
    pub fn num_clauses(&self) -> usize {
        self.db.num_original()
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// False once the clause set has been proved unsatisfiable outright
    /// (without assumptions); every later `solve` returns `Unsat` immediately.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Stops every later `solve` call at `deadline` with
    /// [`SolveResult::Unknown`]. Each call reads the clock before its first
    /// decision, then every few thousand decisions and propagations. `None`
    /// removes the limit.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Adds a clause. Returns `false` if the clause set is now known
    /// unsatisfiable (e.g. after adding an empty or directly contradictory
    /// clause).
    ///
    /// Clauses may be added between `solve` calls at any time; literals must
    /// refer to variables created with [`Solver::new_var`].
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable that was never created.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if let Some(out) = self.normalize(lits) {
            self.store(out);
        }
        self.ok
    }

    /// [`add_clause`](Solver::add_clause) for a survivor of an
    /// [`ElimBuffer`](crate::ElimBuffer) batch: while a stored survivor
    /// differs from the clause in exactly one literal's sign, that
    /// survivor is removed and the literal dropped from the clause. What
    /// is left is stored as a survivor, or enqueued if it is a unit.
    pub(crate) fn add_survivor(&mut self, lits: &[Lit]) -> bool {
        let Some(mut out) = self.normalize(lits) else {
            return self.ok;
        };
        let mut hash = clause_hash(&out);
        while let Some((i, partner)) = self.one_flip_partner(&out, hash) {
            self.remove_at_level_0(partner);
            self.stats.merged_clauses += 1;
            hash ^= lit_hash(out.remove(i));
        }
        if let Some(cref) = self.store(out) {
            self.survivors.insert(hash, cref);
        }
        self.ok
    }

    /// `lits` sorted, without duplicates and without the literals false
    /// at level 0; `None` if there is nothing to add: the clause is a
    /// tautology, is satisfied at level 0, or the solver is not ok.
    fn normalize(&self, lits: &[Lit]) -> Option<Vec<Lit>> {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return None;
        }
        for l in lits {
            assert!(l.var().index() < self.num_vars(), "literal {l} out of range");
        }
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        let mut prev: Option<Lit> = None;
        for &l in &ls {
            if let Some(p) = prev {
                if p == !l {
                    return None; // tautology: x ∨ ¬x
                }
            }
            match self.lit_value(l) {
                LBool::True => return None, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => out.push(l),
            }
            prev = Some(l);
        }
        Some(out)
    }

    /// Adds a normalized clause: the empty clause makes the solver not
    /// ok, a unit is enqueued and propagated, and a longer clause is
    /// stored and watched; its handle is returned.
    fn store(&mut self, lits: Vec<Lit>) -> Option<ClauseRef> {
        match lits.len() {
            0 => {
                self.ok = false;
                None
            }
            1 => {
                self.unchecked_enqueue(lits[0], None);
                self.ok = self.propagate().is_none();
                None
            }
            _ => {
                let cref = self.db.insert(lits, false, 0);
                self.attach_clause(cref);
                Some(cref)
            }
        }
    }

    /// A stored survivor that equals the sorted clause `lits`, of hash
    /// `hash`, with one literal's sign flipped, and that literal's
    /// position in `lits`.
    fn one_flip_partner(&self, lits: &[Lit], hash: u64) -> Option<(usize, ClauseRef)> {
        lits.iter().enumerate().find_map(|(i, &l)| {
            let &cref = self.survivors.get(&(hash ^ lit_hash(l) ^ lit_hash(!l)))?;
            let c = self.db.get(cref);
            // Equal lengths and no duplicates: every literal of the
            // partner is one of `lits` other than `l`, or `¬l`.
            let partner = !c.deleted
                && !c.learnt
                && c.len() == lits.len()
                && c.lits.iter().all(|&p| p == !l || p != l && lits.binary_search(&p).is_ok());
            partner.then_some((i, cref))
        })
    }

    /// Solves the clause set under the given assumptions.
    ///
    /// On [`SolveResult::Sat`] a model is available via
    /// [`Solver::model_value`]. Past the [`Solver::set_deadline`] deadline
    /// the call returns [`SolveResult::Unknown`].
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.model.clear();
        self.budget_exhausted = false;
        self.next_clock_poll = 0;
        if !self.ok {
            return SolveResult::Unsat;
        }
        for l in assumptions {
            assert!(l.var().index() < self.num_vars(), "assumption {l} out of range");
        }

        if self.max_learnts == 0.0 {
            self.max_learnts = (self.db.num_original() as f64 * LEARNTSIZE_FACTOR).max(1000.0);
        }

        let mut curr_restarts = 0u64;
        let status = loop {
            let budget = (luby(RESTART_INC, curr_restarts) * RESTART_FIRST as f64) as u64;
            let status = self.search(budget, assumptions);
            curr_restarts += 1;
            match status {
                Some(res) => break res,
                None => {
                    if self.budget_exhausted {
                        break SolveResult::Unknown;
                    }
                    self.stats.restarts += 1;
                }
            }
        };
        self.cancel_until(0);
        status
    }

    /// The value of `lit` in the most recent satisfying model, or `None` if
    /// the last `solve` did not return `Sat` or the variable did not exist.
    pub fn model_value(&self, lit: Lit) -> Option<bool> {
        self.model.get(lit.var().index()).and_then(|v| v.xor(lit.is_negated()).to_bool())
    }

    /// The value of `lit` implied at decision level 0 (by unit propagation of
    /// the clause set alone), if any.
    #[cfg(test)]
    fn fixed_value(&self, lit: Lit) -> Option<bool> {
        let vd = &self.vardata[lit.var().index()];
        if vd.level == 0 {
            self.lit_value(lit).to_bool()
        } else {
            None
        }
    }

    /// The stored problem clauses, each sorted, in slot order.
    #[cfg(test)]
    pub(crate) fn original_clauses(&self) -> Vec<Vec<Lit>> {
        let originals = self.db.refs().map(|cref| self.db.get(cref)).filter(|c| !c.learnt);
        originals
            .map(|c| {
                let mut lits = c.lits.clone();
                lits.sort_unstable();
                lits
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Assignment primitives
    // ------------------------------------------------------------------

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].xor(l.is_negated())
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    #[inline]
    fn level(&self, v: Var) -> u32 {
        self.vardata[v.index()].level
    }

    #[inline]
    fn reason(&self, v: Var) -> Option<ClauseRef> {
        self.vardata[v.index()].reason
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    #[inline]
    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.lit_value(l).is_undef());
        self.assigns[l.var().index()] = LBool::from_bool(!l.is_negated());
        self.vardata[l.var().index()] = VarData { reason, level: self.decision_level() };
        self.trail.push(l);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.polarity[v.index()] = !l.is_negated();
            self.assigns[v.index()] = LBool::Undef;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = bound;
    }

    // ------------------------------------------------------------------
    // Watched-literal propagation
    // ------------------------------------------------------------------

    fn attach_clause(&mut self, cref: ClauseRef) {
        let c = self.db.get(cref);
        debug_assert!(c.len() >= 2);
        let l0 = c.lits[0];
        let l1 = c.lits[1];
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
    }

    /// Propagates all enqueued facts. Returns a conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let pi = p.code();
            let false_lit = !p;

            let mut i = 0usize;
            let mut j = 0usize;
            'watchers: while i < self.watches[pi].len() {
                let w = self.watches[pi][i];
                i += 1;
                // Satisfied via blocker: keep the watcher untouched.
                if self.lit_value(w.blocker) == LBool::True {
                    self.watches[pi][j] = w;
                    j += 1;
                    continue;
                }
                let c = self.db.get_mut(w.cref);
                debug_assert!(!c.deleted, "deleted clauses are detached eagerly");
                if c.lits[0] == false_lit {
                    c.lits.swap(0, 1);
                }
                debug_assert_eq!(c.lits[1], false_lit);
                let first = c.lits[0];
                let new_watcher = Watcher { cref: w.cref, blocker: first };
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    self.watches[pi][j] = new_watcher;
                    j += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                let len = self.db.get(w.cref).len();
                for k in 2..len {
                    let lk = self.db.get(w.cref).lits[k];
                    if self.lit_value(lk) != LBool::False {
                        let c = self.db.get_mut(w.cref);
                        c.lits.swap(1, k);
                        let watch_on = (!lk).code();
                        debug_assert_ne!(watch_on, pi);
                        self.watches[watch_on].push(new_watcher);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting under the current assignment.
                self.watches[pi][j] = new_watcher;
                j += 1;
                if self.lit_value(first) == LBool::False {
                    // Conflict: copy remaining watchers back and stop.
                    while i < self.watches[pi].len() {
                        let w2 = self.watches[pi][i];
                        self.watches[pi][j] = w2;
                        i += 1;
                        j += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(w.cref);
                    break 'watchers;
                } else {
                    self.unchecked_enqueue(first, Some(w.cref));
                }
            }
            self.watches[pi].truncate(j);
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    // ------------------------------------------------------------------
    // Conflict analysis
    // ------------------------------------------------------------------

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for UIP
        let mut path_c = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            {
                // Bump the activity of a used learnt clause.
                let c = self.db.get_mut(confl);
                if c.learnt {
                    c.activity += self.cla_inc;
                    if c.activity > 1e20 {
                        self.rescale_clause_activity();
                    }
                }
            }
            let start = usize::from(p.is_some());
            let clen = self.db.get(confl).len();
            for k in start..clen {
                let q = self.db.get(confl).lits[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level(v) > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level(v) >= self.decision_level() {
                        path_c += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_c -= 1;
            p = Some(pl);
            if path_c == 0 {
                break;
            }
            confl = self.reason(pl.var()).expect("non-decision literal must have a reason");
        }
        learnt[0] = !p.expect("analyze always resolves at least one literal");

        // Minimize the learnt clause.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend(learnt.iter().map(|l| l.var()));
        let before = learnt.len();
        let mut abstract_levels = 0u32;
        for l in &learnt[1..] {
            abstract_levels |= self.abstract_level(l.var());
        }
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason(l.var()).is_none() || !self.lit_redundant(l, abstract_levels) {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        self.stats.minimized_lits += (before - learnt.len()) as u64;

        // Find the backtrack level: the highest level among the other lits.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level(learnt[i].var()) > self.level(learnt[max_i].var()) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level(learnt[1].var())
        };

        for v in self.analyze_toclear.drain(..) {
            self.seen[v.index()] = false;
        }
        (learnt, bt_level)
    }

    #[inline]
    fn abstract_level(&self, v: Var) -> u32 {
        1 << (self.level(v) & 31)
    }

    /// Checks whether `p` is implied by other literals already in the learnt
    /// clause (walking the implication graph), so it can be dropped.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(p);
        let top = self.analyze_toclear.len();
        while let Some(q) = self.analyze_stack.pop() {
            let cref =
                self.reason(q.var()).expect("checked by caller or pushed only with reason");
            let clen = self.db.get(cref).len();
            for k in 1..clen {
                let l = self.db.get(cref).lits[k];
                let v = l.var();
                if !self.seen[v.index()] && self.level(v) > 0 {
                    if self.reason(v).is_some()
                        && (self.abstract_level(v) & abstract_levels) != 0
                    {
                        self.seen[v.index()] = true;
                        self.analyze_stack.push(l);
                        self.analyze_toclear.push(v);
                    } else {
                        for &u in &self.analyze_toclear[top..] {
                            self.seen[u.index()] = false;
                        }
                        self.analyze_toclear.truncate(top);
                        return false;
                    }
                }
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Activities
    // ------------------------------------------------------------------

    #[inline]
    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLAUSE_DECAY;
    }

    fn rescale_clause_activity(&mut self) {
        let refs: Vec<ClauseRef> = self.db.learnt_refs().collect();
        for cref in refs {
            self.db.get_mut(cref).activity *= 1e-20;
        }
        self.cla_inc *= 1e-20;
    }

    // ------------------------------------------------------------------
    // Clause database maintenance
    // ------------------------------------------------------------------

    /// Detaches a clause from its two watch lists and deletes it. Slots are
    /// reused, so stale watcher references must never survive a deletion.
    fn remove_clause(&mut self, cref: ClauseRef) {
        let c = self.db.get(cref);
        let (l0, l1) = (c.lits[0], c.lits[1]);
        if !c.learnt && !self.survivors.is_empty() {
            let hash = clause_hash(&c.lits);
            if self.survivors.get(&hash) == Some(&cref) {
                self.survivors.remove(&hash);
            }
        }
        for l in [l0, l1] {
            let ws = &mut self.watches[(!l).code()];
            if let Some(pos) = ws.iter().position(|w| w.cref == cref) {
                ws.swap_remove(pos);
            }
        }
        self.db.delete(cref);
    }

    /// Removes a clause at decision level 0. If it is the level-0 reason
    /// of its first literal, the literal stays assigned forever; the
    /// stale reason is dropped.
    fn remove_at_level_0(&mut self, cref: ClauseRef) {
        let l0 = self.db.get(cref).lits[0];
        if self.reason(l0.var()) == Some(cref) {
            self.vardata[l0.var().index()].reason = None;
        }
        self.remove_clause(cref);
    }

    /// True if the clause is the reason for its first literal's assignment
    /// and therefore must not be deleted.
    fn locked(&self, cref: ClauseRef) -> bool {
        let c = self.db.get(cref);
        let l0 = c.lits[0];
        self.lit_value(l0) == LBool::True && self.reason(l0.var()) == Some(cref)
    }

    /// Deletes roughly half of the learnt clauses, keeping binary, low-LBD,
    /// high-activity and locked (reason) clauses.
    fn reduce_db(&mut self) {
        let mut learnts: Vec<(f64, u32, ClauseRef)> = self
            .db
            .learnt_refs()
            .map(|cref| {
                let c = self.db.get(cref);
                (c.activity, c.lbd, cref)
            })
            .collect();
        // Delete lowest-activity clauses first; LBD breaks ties.
        learnts.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("activities are finite").then(b.1.cmp(&a.1))
        });
        let extra_lim = self.cla_inc / learnts.len().max(1) as f64;
        let mut deleted = 0usize;
        let target = learnts.len() / 2;
        for (i, &(act, lbd, cref)) in learnts.iter().enumerate() {
            let c = self.db.get(cref);
            if c.len() <= 2 || lbd <= 2 || self.locked(cref) {
                continue;
            }
            // Delete the low-activity half, plus anything below the noise
            // floor in the upper half (mirrors MiniSat's reduceDB).
            if i < target || act < extra_lim {
                self.remove_clause(cref);
                deleted += 1;
            }
        }
        self.stats.deleted_clauses += deleted as u64;
    }

    /// Removes clauses satisfied at level 0. Call only at decision level 0.
    ///
    /// One scan of the live clauses in slot order, run only when the
    /// level-0 trail has grown since the last pass. Removal order decides
    /// watch-list order and slot reuse, and with them the search.
    fn simplify(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok || self.trail.len() == self.simp_trail_len {
            return;
        }
        self.simp_trail_len = self.trail.len();
        let satisfied: Vec<ClauseRef> = self
            .db
            .refs()
            .filter(|&cref| {
                self.db.get(cref).lits.iter().any(|&l| self.lit_value(l) == LBool::True)
            })
            .collect();
        for cref in satisfied {
            self.remove_at_level_0(cref);
        }
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Runs CDCL search until a result, a restart, or budget exhaustion.
    /// Returns `None` to request a restart.
    fn search(&mut self, nof_conflicts: u64, assumptions: &[Lit]) -> Option<SolveResult> {
        debug_assert!(self.ok);
        let mut conflict_c = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflict_c += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt_level) = self.analyze(confl);
                self.cancel_until(bt_level);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let lbd = self.compute_lbd(&learnt);
                    let cref = self.db.insert(learnt, true, lbd);
                    self.attach_clause(cref);
                    let l0 = self.db.get(cref).lits[0];
                    self.db.get_mut(cref).activity = self.cla_inc;
                    self.unchecked_enqueue(l0, Some(cref));
                    self.stats.learnt_clauses += 1;
                }
                self.decay_activities();
            } else {
                // No conflict.
                if conflict_c >= nof_conflicts {
                    self.cancel_until(0);
                    return None; // restart
                }
                if self.out_of_budget() {
                    self.budget_exhausted = true;
                    self.cancel_until(0);
                    return None;
                }
                if self.decision_level() == 0 {
                    self.simplify();
                }
                if self.db.num_learnt() as f64 >= self.max_learnts + self.trail.len() as f64 {
                    self.reduce_db();
                    self.max_learnts *= LEARNTSIZE_INC;
                }

                // Assumptions first, then heuristic decisions.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => return Some(SolveResult::Unsat),
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let next = match next {
                    Some(l) => l,
                    None => match self.pick_branch_lit() {
                        Some(l) => l,
                        None => {
                            // All variables assigned: model found.
                            self.model = self.assigns.clone();
                            return Some(SolveResult::Sat);
                        }
                    },
                };
                self.stats.decisions += 1;
                self.new_decision_level();
                self.unchecked_enqueue(next, None);
            }
        }
    }

    fn out_of_budget(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        // A clock read costs far more than one decision, so read it on a
        // work stride. Every pass through here makes a decision, while the
        // conflict count can stand still for any number of passes.
        let work = self.stats.decisions + self.stats.propagations;
        if work < self.next_clock_poll {
            return false;
        }
        self.next_clock_poll = work + CLOCK_POLL_STRIDE;
        Instant::now() >= deadline
    }

    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        // Approximate count of distinct decision levels (64 hash buckets);
        // collisions only ever lower the estimate, which is safe for LBD.
        let mut mask = 0u64;
        let mut count = 0u32;
        for l in lits {
            let lev = self.level(l.var()) as u64;
            let bit = 1u64 << (lev & 63);
            if mask & bit == 0 {
                mask |= bit;
                count += 1;
            }
        }
        count
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        loop {
            let v = self.order.pop_max(&self.activity)?;
            if self.assigns[v.index()].is_undef() {
                let pol = self.polarity[v.index()];
                return Some(v.lit(pol));
            }
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …) scaled by `y^k`.
fn luby(y: f64, mut x: u64) -> f64 {
    // Find the finite subsequence containing x, and x's position in it.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{ClauseSink, CnfFormula};
    use proptest::prelude::*;
    use rand::{RngExt, SeedableRng};
    use std::time::Duration;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d)
    }

    impl Solver {
        /// Full scan: after a solve, `simplify` must have removed every
        /// clause that a level-0 fact satisfies.
        fn assert_simplified(&self) {
            for c in self.db.refs().map(|cref| self.db.get(cref)) {
                let fixed_true = c.lits.iter().find(|&&l| self.fixed_value(l) == Some(true));
                assert!(fixed_true.is_none(), "{:?} is satisfied at level 0", c.lits);
            }
        }
    }

    /// Builds a solver with `n` variables.
    fn solver_with_vars(n: usize) -> Solver {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn trivial_sat() {
        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(1)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(lit(1)), Some(true));
        assert_eq!(s.model_value(lit(-1)), Some(false));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(1)]);
        assert!(!s.add_clause(&[lit(-1)]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = solver_with_vars(1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = solver_with_vars(2);
        assert!(s.add_clause(&[lit(1), lit(-1)]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = solver_with_vars(4);
        s.add_clause(&[lit(1)]);
        s.add_clause(&[lit(-1), lit(2)]);
        s.add_clause(&[lit(-2), lit(3)]);
        s.add_clause(&[lit(-3), lit(4)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for i in 1..=4 {
            assert_eq!(s.model_value(lit(i)), Some(true));
        }
        // Everything was fixed at level 0.
        assert_eq!(s.fixed_value(lit(4)), Some(true));
    }

    #[test]
    fn simple_conflict_analysis() {
        // (a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ c) ∧ (¬a ∨ ¬c) is unsat.
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(1), lit(2)]);
        s.add_clause(&[lit(1), lit(-2)]);
        s.add_clause(&[lit(-1), lit(3)]);
        s.add_clause(&[lit(-1), lit(-3)]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_do_not_stick() {
        let mut s = solver_with_vars(2);
        s.add_clause(&[lit(1), lit(2)]);
        assert_eq!(s.solve(&[lit(-1), lit(-2)]), SolveResult::Unsat);
        // Without assumptions the formula is satisfiable again.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // And with compatible assumptions.
        assert_eq!(s.solve(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.model_value(lit(2)), Some(true));
    }

    #[test]
    fn conflicting_assumption_pair() {
        let mut s = solver_with_vars(1);
        assert_eq!(s.solve(&[lit(1), lit(-1)]), SolveResult::Unsat);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_are_deduped() {
        let mut s = solver_with_vars(2);
        s.add_clause(&[lit(1), lit(1), lit(2), lit(2)]);
        assert_eq!(s.solve(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.model_value(lit(2)), Some(true));
    }

    #[test]
    fn xor_chain_forces_unique_model() {
        // x1 XOR x2 = 1, x2 XOR x3 = 1, x1 = 1 ==> x2 = 0, x3 = 1.
        let mut s = solver_with_vars(3);
        // x1 xor x2: (1 2) (-1 -2)
        s.add_clause(&[lit(1), lit(2)]);
        s.add_clause(&[lit(-1), lit(-2)]);
        // x2 xor x3
        s.add_clause(&[lit(2), lit(3)]);
        s.add_clause(&[lit(-2), lit(-3)]);
        s.add_clause(&[lit(1)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(lit(2)), Some(false));
        assert_eq!(s.model_value(lit(3)), Some(true));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[Lit::from_code(0); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var().positive();
            }
        }
        for row in &p {
            s.add_clause(&[row[0], row[1]]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    /// `holes + 1` pigeons into `holes` holes: unsatisfiable, and
    /// exponentially hard for resolution as `holes` grows.
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole(holes: usize) -> Solver {
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_5_into_4_is_unsat() {
        let mut s = pigeonhole(4);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn at_most_one_chain_sat() {
        // Sequential at-most-one over 8 vars plus at-least-one.
        let mut s = solver_with_vars(8);
        let xs: Vec<Lit> = (1..=8).map(lit).collect();
        s.add_clause(&xs);
        for i in 0..8 {
            for j in (i + 1)..8 {
                s.add_clause(&[!xs[i], !xs[j]]);
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let count = xs.iter().filter(|&&l| s.model_value(l) == Some(true)).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn time_budget_interrupts() {
        // Pigeonhole 10 into 9 runs for far longer than the 20 ms budget.
        // The deadline must be noticed whatever the conflict count, and
        // within a bound that leaves room for a loaded test host.
        let mut s = pigeonhole(9);
        let started = Instant::now();
        s.set_deadline(Some(started + Duration::from_millis(20)));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "20 ms budget overran to {took:?}");
    }

    /// One round of an incremental session: clauses of two to four
    /// literals, unit facts, and one assumption, over eight variables.
    type Round = (Vec<Vec<(u32, bool)>>, Vec<(u32, bool)>, (u32, bool));

    fn arb_round() -> impl Strategy<Value = Round> {
        let lit = (0u32..8, proptest::bool::ANY);
        (
            proptest::collection::vec(proptest::collection::vec(lit.clone(), 2..=4), 0..12),
            proptest::collection::vec(lit.clone(), 0..3),
            lit,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The DIP loop's pattern: solve, add clauses and level-0 units,
        /// solve again. Each verdict matches brute force, and after each
        /// solve no live clause is satisfied at level 0.
        #[test]
        fn incremental_simplify_leaves_no_satisfied_clause(
            rounds in proptest::collection::vec(arb_round(), 1..6),
        ) {
            let to_lit = |&(v, neg): &(u32, bool)| Lit::new(Var::new(v), neg);
            let mut s = solver_with_vars(8);
            let mut f = CnfFormula::new();
            f.set_num_vars(8);
            for (clauses, units, assumption) in &rounds {
                let units = units.iter().map(|u| vec![*u]);
                for clause in clauses.iter().cloned().chain(units) {
                    let lits: Vec<Lit> = clause.iter().map(to_lit).collect();
                    s.add_clause(&lits);
                    f.add_clause(&lits);
                }
                let assumption = to_lit(assumption);
                let mut assumed = f.clone();
                assumed.add_clause(&[assumption]);
                for (assumptions, formula) in [(&[assumption][..], &assumed), (&[], &f)] {
                    let result = s.solve(assumptions);
                    let expected = formula.count_models_brute_force() > 0;
                    prop_assert_eq!(result == SolveResult::Sat, expected);
                    if s.is_ok() {
                        s.assert_simplified();
                    }
                }
            }
        }
    }

    #[test]
    fn simplify_keeps_the_search() {
        // The DIP loop's solver pattern, as in the `layers` cell
        // `incremental_units`: a base formula, then rounds that each add
        // clauses over fresh variables and one level-0 unit satisfying some
        // of them, then solve under an assumption. The base sits near the
        // 3-SAT threshold, so the search also learns level-0 units over old
        // variables and reduces its learnt clauses. `simplify` must remove
        // the satisfied clauses in slot order: removal order decides
        // watch-list order and slot reuse, and with them every counter.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let vars = 150u32;
        let old = |rng: &mut rand::rngs::StdRng| {
            Lit::new(Var::new(rng.random_range(0..vars)), rng.random_bool(0.5))
        };
        let mut s = solver_with_vars(vars as usize);
        for _ in 0..(vars as f64 * 4.0) as usize {
            let clause = [old(&mut rng), old(&mut rng), old(&mut rng)];
            s.add_clause(&clause);
        }
        for _ in 0..100 {
            let unit = s.new_var().positive();
            for _ in 0..2 {
                s.add_clause(&[unit, old(&mut rng), old(&mut rng)]);
            }
            for _ in 0..3 {
                let fresh = Lit::new(s.new_var(), rng.random_bool(0.5));
                s.add_clause(&[fresh, old(&mut rng), old(&mut rng)]);
            }
            s.add_clause(&[unit]);
            s.solve(&[old(&mut rng)]);
        }
        let st = s.stats();
        let counters = (
            st.conflicts,
            st.decisions,
            st.propagations,
            st.learnt_clauses,
            st.deleted_clauses,
            st.restarts,
        );
        assert_eq!(counters, (4613, 12628, 154167, 4599, 2315, 27));
    }

    #[test]
    fn survivors_one_sign_apart_collapse() {
        // C = 1 ∨ 2 with a = 3, b = 4: C ∨ a ∨ b and C ∨ a ∨ ¬b give C ∨ a,
        // C ∨ ¬a ∨ b is stored, and C ∨ ¬a ∨ ¬b merges with it, then the
        // resulting C ∨ ¬a with C ∨ a.
        let mut s = solver_with_vars(4);
        for (a, b) in [(3, 4), (3, -4), (-3, 4), (-3, -4)] {
            assert!(s.add_survivor(&[lit(1), lit(2), lit(a), lit(b)]));
        }
        assert_eq!(s.num_clauses(), 1);
        assert_eq!(s.original_clauses(), [vec![lit(1), lit(2)]]);
        assert_eq!(s.stats().merged_clauses, 3);
        assert_eq!(s.solve(&[lit(-1), lit(-2)]), SolveResult::Unsat);
    }

    #[test]
    fn a_unit_resolvent_is_a_level_0_fact() {
        let mut s = solver_with_vars(3);
        s.add_survivor(&[lit(1), lit(-2)]);
        s.add_clause(&[lit(-1), lit(3)]);
        s.add_survivor(&[lit(2), lit(1)]);
        assert_eq!(s.fixed_value(lit(1)), Some(true));
        assert_eq!(s.fixed_value(lit(3)), Some(true), "the unit is propagated");
        assert_eq!(s.original_clauses(), [vec![lit(-1), lit(3)]]);
        assert_eq!(s.stats().merged_clauses, 1);
    }

    #[test]
    fn only_survivors_are_merge_partners() {
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(1), lit(2), lit(3)]);
        s.add_survivor(&[lit(1), lit(2), lit(-3)]);
        s.add_clause(&[lit(1), lit(-2), lit(-3)]);
        assert_eq!(s.num_clauses(), 3);
        assert_eq!(s.stats().merged_clauses, 0);
    }

    #[test]
    fn a_removed_survivor_leaves_the_index() {
        // 1 ∨ 2 ∨ 3 is satisfied at level 0 once 1 is, and `simplify`
        // removes it; the clauses a merge removes leave the index too.
        let mut s = solver_with_vars(4);
        s.add_survivor(&[lit(1), lit(2), lit(3)]);
        s.add_clause(&[lit(1)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!((s.num_clauses(), s.survivors.len()), (0, 0));
        s.add_survivor(&[lit(2), lit(3), lit(4)]);
        s.add_survivor(&[lit(2), lit(3), lit(-4)]);
        assert_eq!(s.survivors.len(), 1);
        assert_eq!(s.survivors.values().next(), s.db.refs().next().as_ref());
    }

    #[test]
    fn incremental_clause_addition_after_solve() {
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(1), lit(2)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.add_clause(&[lit(-1)]);
        s.add_clause(&[lit(-2), lit(3)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(lit(1)), Some(false));
        assert_eq!(s.model_value(lit(2)), Some(true));
        assert_eq!(s.model_value(lit(3)), Some(true));
        s.add_clause(&[lit(-3)]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<f64> = (0..15).map(|i| luby(2.0, i)).collect();
        assert_eq!(
            seq,
            vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 8.0]
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(1), lit(2), lit(3)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.stats().solves, 1);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.stats().solves, 2);
    }

    #[test]
    fn model_value_of_unknown_var_is_none() {
        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(1)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(Lit::from_dimacs(5)), None);
    }
}
