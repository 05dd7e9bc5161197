//! Private-variable elimination for clause batches.
//!
//! An [`ElimBuffer`] collects one batch of clauses for a target sink (a
//! [`Solver`](crate::Solver) or a [`CnfFormula`](crate::CnfFormula)). Its
//! variables are numbered after the target's existing ones and occur in no
//! clause outside the batch, so the batch can be simplified on its own
//! before the target ever sees it. [`ElimBuffer::flush`] first propagates
//! the batch's units over its own variables. It then runs bounded variable
//! elimination (Eén & Biere, "Effective Preprocessing in SAT through
//! Variable and Clause Elimination", SAT 2005), newest variable first: a
//! variable is replaced by its non-tautological resolvents when they are
//! no more than the clauses that contain it. The surviving clauses go to
//! the target, and target variables are allocated only for the buffer
//! variables still in them.
//!
//! Both steps preserve the projection of the batch onto every variable
//! that survives: an assignment of the target's variables extends to a
//! model of the batch exactly when it satisfies what the target receives.
//! The caller names the buffer variables it still reads as *kept*; those
//! are never eliminated and come back as target literals.
//!
//! [`ElimBuffer::flush_mirrored`] adds what survives twice: once as it is
//! and once renamed onto other target literals, with fresh target
//! variables for the surviving buffer ones. A batch that two isomorphic
//! copies would fill is then built and eliminated only once. Its target
//! is a [`Solver`], which merges each survivor with earlier ones that
//! differ from it in one literal's sign (self-subsuming resolution, from
//! the same paper).

use crate::cnf::ClauseSink;
use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// One buffered clause: a range of [`ElimBuffer::lits`].
#[derive(Copy, Clone, Debug)]
struct Span {
    start: u32,
    len: u32,
    live: bool,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A [`ClauseSink`] that eliminates its own variables before handing its
/// clauses on.
///
/// Call [`reset`](ElimBuffer::reset) with the target's variable count,
/// encode the batch into the buffer, then [`flush`](ElimBuffer::flush) it
/// into the target. Variables and clauses are visited in index order, so
/// the same batch always gives the same output. The buffer keeps its
/// allocations across batches.
///
/// # Examples
///
/// `y = a ∧ b` with `y` asserted false says only `¬a ∨ ¬b` about `a` and
/// `b`, and `y` never reaches the target:
///
/// ```
/// use polykey_sat::{ClauseSink, CnfFormula, ElimBuffer, Lit};
///
/// let mut target = CnfFormula::new();
/// let a = target.new_var().positive();
/// let b = target.new_var().positive();
///
/// let mut buffer = ElimBuffer::new();
/// buffer.reset(target.num_vars());
/// let y = buffer.new_var().positive();
/// buffer.add_clause(&[!y, a]);
/// buffer.add_clause(&[!y, b]);
/// buffer.add_clause(&[y, !a, !b]);
/// buffer.add_clause(&[!y]);
/// buffer.flush(&mut target, &mut []);
///
/// assert_eq!(target.num_vars(), 2);
/// assert_eq!(target.clauses().collect::<Vec<_>>(), [&[!a, !b][..]]);
/// ```
#[derive(Debug, Default)]
pub struct ElimBuffer {
    /// Index of the first buffer variable; lower indices belong to the
    /// target.
    base: usize,
    /// Buffer variables allocated since the last reset.
    num_vars: usize,
    /// The literals of every clause, back to back.
    lits: Vec<Lit>,
    clauses: Vec<Span>,
    /// Per buffer variable: its value once a unit fixes it.
    value: Vec<Option<bool>>,
    /// Per buffer variable: the caller still reads it.
    kept: Vec<bool>,
    /// Per buffer variable: it gets a target variable.
    needed: Vec<bool>,
    /// Per buffer literal (`2 * local index + negated`): the clauses it
    /// occurs in, live or not.
    occurs: Vec<Vec<u32>>,
    queue: Vec<Lit>,
    /// Scratch for elimination: the live clauses of one pivot, by sign,
    /// and one clause being built.
    pos: Vec<u32>,
    neg: Vec<u32>,
    scratch: Vec<Lit>,
    /// Per literal code, target literals included: the complement occurs
    /// in the positive clause being resolved. All false between uses.
    clashes: Vec<bool>,
    /// Per buffer variable: its target variable, once allocated.
    map: Vec<Option<Var>>,
}

impl ElimBuffer {
    /// Creates an empty buffer.
    pub fn new() -> ElimBuffer {
        ElimBuffer::default()
    }

    /// Starts a new batch for a target that has `base` variables: the
    /// buffer's variables are numbered from `base` on.
    pub fn reset(&mut self, base: usize) {
        self.base = base;
        self.num_vars = 0;
        self.lits.clear();
        self.clauses.clear();
    }

    /// Simplifies the batch and adds what survives to `target`.
    ///
    /// `keep` lists literals the caller still reads. Those over buffer
    /// variables are never eliminated and are rewritten in place to their
    /// target literals; the others are left as they are. A kept variable
    /// that a unit fixes reaches the target as a unit clause. The target
    /// must have exactly the `base` variables given to
    /// [`reset`](ElimBuffer::reset), and receives no more clauses than
    /// the buffer held.
    pub fn flush<S: ClauseSink>(&mut self, target: &mut S, keep: &mut [Lit]) {
        self.simplify(keep);
        self.emit(target, keep, |l| l);
        self.reset(self.base);
    }

    /// [`flush`](ElimBuffer::flush) into `solver`, then adds what
    /// survives a second time: every target literal renamed by `rename`,
    /// and every surviving buffer variable given a second target variable.
    /// `mirrored` is set to `keep` in the second copy's numbering. The
    /// batch is simplified once, so this costs half of building and
    /// eliminating the two copies side by side, and adds the same clauses
    /// when `rename` maps one copy onto the other.
    ///
    /// Each clause, in either copy, is merged with the survivors of
    /// earlier flushes into `solver`: a stored `C ∨ ¬l` and a new `C ∨ l`
    /// become `C`, as often as a partner is found, and a `C` of one
    /// literal becomes a level-0 fact. For a proof log, `C` is a RUP
    /// lemma and the two partners are deletions. The models of `solver`
    /// are those it would have had without the merge.
    pub fn flush_mirrored(
        &mut self,
        solver: &mut Solver,
        keep: &mut [Lit],
        mirrored: &mut Vec<Lit>,
        rename: impl Fn(Lit) -> Lit,
    ) {
        mirrored.clear();
        mirrored.extend_from_slice(keep);
        self.simplify(keep);
        let mut target = Survivors(solver);
        self.emit(&mut target, keep, |l| l);
        self.emit(&mut target, mirrored, rename);
        self.reset(self.base);
    }

    /// Unit propagation and elimination over the batch, never touching the
    /// buffer variables of `keep`.
    fn simplify(&mut self, keep: &[Lit]) {
        let n = self.num_vars;
        self.value.clear();
        self.value.resize(n, None);
        self.kept.clear();
        self.kept.resize(n, false);
        for &l in keep.iter() {
            if let Some(v) = self.local_var(l) {
                self.kept[v] = true;
            }
        }
        if self.propagate_units() {
            self.drop_fixed_literals();
            self.eliminate();
        } else {
            // The batch alone is unsatisfiable: the empty clause says all.
            for span in &mut self.clauses {
                span.live = false;
            }
            self.value.fill(None);
            self.clauses.push(Span { start: 0, len: 0, live: true });
        }
    }

    /// The local index of `l`'s variable, if it is a buffer variable.
    fn local_var(&self, l: Lit) -> Option<usize> {
        l.var().index().checked_sub(self.base)
    }

    /// Index of `l` into `occurs`; `l` must be over a buffer variable.
    fn occ_index(&self, l: Lit) -> usize {
        (l.var().index() - self.base) << 1 | l.is_negated() as usize
    }

    /// The value of `l` under the unit assignment; target variables are
    /// never assigned.
    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.local_var(l).and_then(|v| self.value[v]).map(|b| b != l.is_negated())
    }

    /// Rebuilds the occurrence lists over the live clauses.
    fn index_occurrences(&mut self) {
        let slots = 2 * self.num_vars;
        if self.occurs.len() < slots {
            self.occurs.resize_with(slots, Vec::new);
        }
        for list in &mut self.occurs[..slots] {
            list.clear();
        }
        for c in 0..self.clauses.len() {
            self.index_clause(c);
        }
    }

    fn index_clause(&mut self, c: usize) {
        let span = self.clauses[c];
        if !span.live {
            return;
        }
        for i in span.range() {
            let l = self.lits[i];
            if self.local_var(l).is_some() {
                let at = self.occ_index(l);
                self.occurs[at].push(c as u32);
            }
        }
    }

    /// Unit propagation over the buffer variables. Returns false if some
    /// clause is falsified.
    fn propagate_units(&mut self) -> bool {
        self.index_occurrences();
        self.queue.clear();
        for c in 0..self.clauses.len() {
            if !self.visit(c) {
                return false;
            }
        }
        while let Some(l) = self.queue.pop() {
            let at = self.occ_index(!l);
            for i in 0..self.occurs[at].len() {
                if !self.visit(self.occurs[at][i] as usize) {
                    return false;
                }
            }
        }
        true
    }

    /// Checks clause `c` under the current assignment and fixes its last
    /// open literal if that is over a buffer variable. Returns false if the
    /// clause is falsified.
    fn visit(&mut self, c: usize) -> bool {
        let mut open = None;
        let mut open_count = 0;
        for i in self.clauses[c].range() {
            let l = self.lits[i];
            match self.lit_value(l) {
                Some(true) => return true,
                Some(false) => {}
                None => {
                    open_count += 1;
                    open = Some(l);
                }
            }
        }
        match open {
            None => false,
            Some(l) if open_count == 1 => {
                if let Some(v) = self.local_var(l) {
                    self.value[v] = Some(!l.is_negated());
                    self.queue.push(l);
                }
                true
            }
            Some(_) => true,
        }
    }

    /// Removes the clauses the unit assignment satisfies and the literals
    /// it falsifies; fixed variables then occur nowhere.
    fn drop_fixed_literals(&mut self) {
        for c in 0..self.clauses.len() {
            let mut span = self.clauses[c];
            let mut len = 0;
            for i in span.range() {
                let l = self.lits[i];
                match self.lit_value(l) {
                    Some(true) => {
                        span.live = false;
                        break;
                    }
                    Some(false) => {}
                    None => {
                        self.lits[span.start as usize + len] = l;
                        len += 1;
                    }
                }
            }
            span.len = len as u32;
            self.clauses[c] = span;
        }
    }

    /// Bounded variable elimination, newest buffer variable first.
    fn eliminate(&mut self) {
        self.index_occurrences();
        let mut pos = std::mem::take(&mut self.pos);
        let mut neg = std::mem::take(&mut self.neg);
        for v in (0..self.num_vars).rev() {
            if self.kept[v] || self.value[v].is_some() {
                continue;
            }
            let pivot = Var::new((self.base + v) as u32);
            self.live_occurrences(pivot.positive(), &mut pos);
            self.live_occurrences(pivot.negative(), &mut neg);
            let first = self.clauses.len();
            if self.add_resolvents(&pos, &neg, pivot) {
                for &c in pos.iter().chain(&neg) {
                    self.clauses[c as usize].live = false;
                }
                for c in first..self.clauses.len() {
                    self.index_clause(c);
                }
            }
        }
        self.pos = pos;
        self.neg = neg;
    }

    /// Sets `out` to the live clauses containing `l`.
    fn live_occurrences(&self, l: Lit, out: &mut Vec<u32>) {
        out.clear();
        let at = self.occ_index(l);
        out.extend(self.occurs[at].iter().filter(|&&c| self.clauses[c as usize].live));
    }

    /// Appends the non-tautological resolvents of `pos × neg` on `pivot`
    /// as live clauses. Returns false, and appends none, if they outnumber
    /// the clauses they would replace.
    fn add_resolvents(&mut self, pos: &[u32], neg: &[u32], pivot: Var) -> bool {
        let (first, lits_len) = (self.clauses.len(), self.lits.len());
        let codes = 2 * (self.base + self.num_vars);
        if self.clashes.len() < codes {
            self.clashes.resize(codes, false);
        }
        let mut fits = true;
        for &p in pos {
            // No clause is a tautology itself, so a resolvent with `p` is
            // one exactly when the other clause holds the complement of one
            // of `p`'s literals besides the pivot.
            let p_span = self.clauses[p as usize];
            for i in p_span.range() {
                let l = self.lits[i];
                if l.var() != pivot {
                    self.clashes[(!l).code()] = true;
                }
            }
            for &q in neg {
                let q_span = self.clauses[q as usize];
                if self.lits[q_span.range()].iter().any(|l| self.clashes[l.code()]) {
                    continue;
                }
                if self.clauses.len() - first == pos.len() + neg.len() {
                    fits = false;
                    break;
                }
                self.scratch.clear();
                for span in [p_span, q_span] {
                    self.scratch
                        .extend(self.lits[span.range()].iter().filter(|l| l.var() != pivot));
                }
                self.scratch.sort_unstable();
                self.scratch.dedup();
                let start = self.lits.len();
                self.lits.extend_from_slice(&self.scratch);
                self.push_span(start);
            }
            for i in p_span.range() {
                self.clashes[(!self.lits[i]).code()] = false;
            }
            if !fits {
                self.clauses.truncate(first);
                self.lits.truncate(lits_len);
                return false;
            }
        }
        true
    }

    /// Records `lits[start..]` as a live clause.
    fn push_span(&mut self, start: usize) {
        let len = self.lits.len() - start;
        self.clauses.push(Span { start: start as u32, len: len as u32, live: true });
    }

    /// Allocates target variables for the kept buffer variables and those
    /// still in a live clause, in buffer order, and adds the live clauses
    /// and the units of fixed kept variables to `target`, with every target
    /// literal in them renamed by `rename`. Rewrites `keep` to target
    /// literals.
    fn emit<S: ClauseSink>(
        &mut self,
        target: &mut S,
        keep: &mut [Lit],
        rename: impl Fn(Lit) -> Lit,
    ) {
        let mut needed = std::mem::take(&mut self.needed);
        needed.clone_from(&self.kept);
        for span in &self.clauses {
            if span.live {
                for &l in &self.lits[span.range()] {
                    if let Some(v) = self.local_var(l) {
                        needed[v] = true;
                    }
                }
            }
        }
        self.map.clear();
        self.map.extend(needed.iter().map(|&n| n.then(|| target.new_var())));
        self.needed = needed;
        for c in 0..self.clauses.len() {
            let span = self.clauses[c];
            if span.live {
                self.scratch.clear();
                for i in span.range() {
                    let l = self.to_target(self.lits[i], &rename);
                    self.scratch.push(l);
                }
                target.add_clause(&self.scratch);
            }
        }
        for v in 0..self.num_vars {
            if let (true, Some(b)) = (self.kept[v], self.value[v]) {
                target.add_clause(&[self.map[v].expect("kept").lit(b)]);
            }
        }
        for l in keep.iter_mut() {
            *l = self.to_target(*l, &rename);
        }
    }

    /// `l` in the target's numbering, once `emit` has allocated; a target
    /// literal goes through `rename`.
    fn to_target(&self, l: Lit, rename: impl Fn(Lit) -> Lit) -> Lit {
        match self.local_var(l) {
            Some(v) => Lit::new(self.map[v].expect("surviving variable"), l.is_negated()),
            None => rename(l),
        }
    }
}

/// A solver that takes each clause as a survivor, to be merged.
struct Survivors<'s>(&'s mut Solver);

impl ClauseSink for Survivors<'_> {
    fn new_var(&mut self) -> Var {
        self.0.new_var()
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.0.add_survivor(lits);
    }
}

impl ClauseSink for ElimBuffer {
    fn new_var(&mut self) -> Var {
        let v = Var::new((self.base + self.num_vars) as u32);
        self.num_vars += 1;
        v
    }

    /// Buffers a clause, sorted and without duplicate literals; a
    /// tautology is dropped.
    ///
    /// # Panics
    ///
    /// Panics if a literal names a buffer variable that was never
    /// allocated.
    fn add_clause(&mut self, lits: &[Lit]) {
        let start = self.lits.len();
        self.lits.extend_from_slice(lits);
        self.lits[start..].sort_unstable();
        let mut len = 0;
        for i in start..self.lits.len() {
            let l = self.lits[i];
            assert!(l.var().index() < self.base + self.num_vars, "literal {l} out of range");
            if len > 0 {
                let last = self.lits[start + len - 1];
                if last == !l {
                    self.lits.truncate(start);
                    return;
                }
                if last == l {
                    continue;
                }
            }
            self.lits[start + len] = l;
            len += 1;
        }
        self.lits.truncate(start + len);
        self.push_span(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::CnfFormula;
    use crate::SolveResult;
    use proptest::prelude::*;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d)
    }

    /// A target with `n` variables, and a buffer over it with `m` more.
    fn setup(n: usize, m: usize) -> (CnfFormula, ElimBuffer) {
        let mut target = CnfFormula::new();
        target.new_vars(n);
        let mut buffer = ElimBuffer::new();
        buffer.reset(n);
        buffer.new_vars(m);
        (target, buffer)
    }

    #[test]
    fn folded_dip_copy_becomes_one_key_clause() {
        // Keys 1..=3 and a miter literal `mask` = 4 live in the target.
        // One SARLock-style copy: eq = (k1 ∧ ¬k2 ∧ k3), flip = eq ∧ ¬mask,
        // and the response says flip = 0.
        let (mut target, mut buffer) = setup(4, 2);
        let (eq, flip) = (lit(5), lit(6));
        for k in [lit(1), lit(-2), lit(3)] {
            buffer.add_clause(&[!eq, k]);
        }
        buffer.add_clause(&[eq, lit(-1), lit(2), lit(-3)]);
        buffer.add_clause(&[!flip, eq]);
        buffer.add_clause(&[!flip, lit(-4)]);
        buffer.add_clause(&[flip, !eq, lit(4)]);
        buffer.add_clause(&[!flip]);
        buffer.flush(&mut target, &mut []);
        assert_eq!(target.num_vars(), 4, "no buffer variable survives");
        let clauses: Vec<&[Lit]> = target.clauses().collect();
        assert_eq!(clauses, [&[lit(-1), lit(2), lit(-3), lit(4)][..]]);
    }

    #[test]
    fn kept_variables_survive_and_are_renumbered() {
        // Buffer variables 3 and 4 over a target with two; 3 is private,
        // 4 is kept: 4 = 3 ∧ 1, 3 = ¬2.
        let (mut target, mut buffer) = setup(2, 2);
        buffer.add_clause(&[lit(3), lit(2)]);
        buffer.add_clause(&[lit(-3), lit(-2)]);
        buffer.add_clause(&[lit(-4), lit(3)]);
        buffer.add_clause(&[lit(-4), lit(1)]);
        buffer.add_clause(&[lit(4), lit(-3), lit(-1)]);
        let mut keep = [lit(-4), lit(1)];
        buffer.flush(&mut target, &mut keep);
        assert_eq!(target.num_vars(), 3, "only the kept variable is allocated");
        assert_eq!(keep, [lit(-3), lit(1)], "renumbered in place, outside literal untouched");
        // 3 = ¬2 ∧ 1 over the target's variables.
        for (bits, out) in [(0b00, false), (0b01, true), (0b10, false), (0b11, false)] {
            let a = [bits & 1 == 1, bits & 2 == 2];
            let models: Vec<bool> = [false, true]
                .into_iter()
                .filter(|&x| target.eval(&[a[0], a[1], x]) == Some(true))
                .collect();
            assert_eq!(models, [out], "inputs {bits:02b}");
        }
    }

    #[test]
    fn fixed_kept_variable_reaches_the_target_as_a_unit() {
        let (mut target, mut buffer) = setup(1, 2);
        buffer.add_clause(&[lit(2)]);
        buffer.add_clause(&[lit(-2), lit(3)]);
        buffer.add_clause(&[lit(-3), lit(1), lit(2)]);
        let mut keep = [lit(3), lit(-3)];
        buffer.flush(&mut target, &mut keep);
        assert_eq!(keep, [lit(2), lit(-2)]);
        assert_eq!(
            target.clauses().collect::<Vec<_>>(),
            [&[lit(2)][..]],
            "one unit per variable"
        );
    }

    #[test]
    fn contradictory_batch_adds_the_empty_clause() {
        let (mut target, mut buffer) = setup(1, 2);
        buffer.add_clause(&[lit(2)]);
        buffer.add_clause(&[lit(-2), lit(3)]);
        buffer.add_clause(&[lit(-3), lit(-2)]);
        buffer.add_clause(&[lit(1), lit(3)]);
        let mut keep = [lit(2)];
        buffer.flush(&mut target, &mut keep);
        assert_eq!(target.clauses().collect::<Vec<_>>(), [&[][..]]);
        assert_eq!(keep, [lit(2)], "the kept variable still gets a target variable");
        assert_eq!(target.num_vars(), 2);
    }

    #[test]
    fn mirrored_flush_adds_a_renamed_second_copy() {
        // Target literals 1, 2 and their twins 3, 4. The batch says
        // 6 = 5 ∧ 1 with 5 = ¬2 private and 6 kept. The first copy's kept
        // variable becomes target variable 5, the second's 6.
        let (_, mut buffer) = setup(4, 2);
        buffer.add_clause(&[lit(5), lit(2)]);
        buffer.add_clause(&[lit(-5), lit(-2)]);
        buffer.add_clause(&[lit(-6), lit(5)]);
        buffer.add_clause(&[lit(-6), lit(1)]);
        buffer.add_clause(&[lit(6), lit(-5), lit(-1)]);
        let shift =
            |l: Lit, by: u32| Lit::new(Var::new(l.var().index() as u32 + by), l.is_negated());
        let mut keep = [lit(-6), lit(1)];
        let mut mirrored = Vec::new();
        let mut solver = Solver::new();
        solver.new_vars(4);
        buffer.flush_mirrored(&mut solver, &mut keep, &mut mirrored, |l| shift(l, 2));
        assert_eq!(solver.num_vars(), 6, "one variable per copy for the kept one");
        assert_eq!(keep, [lit(-5), lit(1)]);
        assert_eq!(mirrored, [lit(-6), lit(3)]);
        let clauses = solver.original_clauses();
        let (first, second) = clauses.split_at(clauses.len() / 2);
        let twin = |l: Lit| if l.var().index() < 4 { shift(l, 2) } else { shift(l, 1) };
        let renamed: Vec<Vec<Lit>> =
            first.iter().map(|c| c.iter().map(|&l| twin(l)).collect()).collect();
        assert!(!first.is_empty());
        assert_eq!(renamed, second, "the second copy is the first, renamed");
        assert_eq!(solver.stats().merged_clauses, 0, "no two survivors differ in one sign");
    }

    #[test]
    fn mirrored_survivors_merge_within_each_copy() {
        // A batch over target literals C = 1 ∨ 2, a = 3, b = 4: the four
        // clauses C ∨ ±a ∨ ±b say C. Their twins over 5..=8 say C's twin.
        let (_, mut buffer) = setup(8, 0);
        for (a, b) in [(3, 4), (3, -4), (-3, 4), (-3, -4)] {
            buffer.add_clause(&[lit(1), lit(2), lit(a), lit(b)]);
        }
        let mut solver = Solver::new();
        solver.new_vars(8);
        let twin = |l: Lit| Lit::new(Var::new(l.var().index() as u32 + 4), l.is_negated());
        buffer.flush_mirrored(&mut solver, &mut [], &mut Vec::new(), twin);
        assert_eq!(solver.original_clauses(), [vec![lit(1), lit(2)], vec![lit(5), lit(6)]]);
        assert_eq!(solver.stats().merged_clauses, 6);
    }

    #[test]
    fn plain_flush_into_a_solver_does_not_merge() {
        let (_, mut buffer) = setup(3, 0);
        buffer.add_clause(&[lit(1), lit(2), lit(3)]);
        buffer.add_clause(&[lit(1), lit(2), lit(-3)]);
        let mut solver = Solver::new();
        solver.new_vars(3);
        buffer.flush(&mut solver, &mut []);
        assert_eq!(solver.num_clauses(), 2);
        assert_eq!(solver.stats().merged_clauses, 0);
    }

    /// One batch of the differential test: clauses over the target's
    /// variables, and a list of `(clause, position)` pairs, each adding
    /// that clause again with the literal at that position flipped.
    type Batch = (Vec<Vec<(u32, bool)>>, Vec<(usize, usize)>);

    fn arb_batch() -> impl Strategy<Value = Batch> {
        let lit = (0u32..8, proptest::bool::ANY);
        (
            proptest::collection::vec(proptest::collection::vec(lit, 1..=5), 0..=6),
            proptest::collection::vec((0usize..6, 0usize..5), 0..=4),
        )
    }

    /// The clauses of `batch` over `n` variables, forced pairs included.
    fn batch_clauses((clauses, flips): &Batch, n: u32) -> Vec<Vec<Lit>> {
        let to_lit = |&(v, neg): &(u32, bool)| Lit::new(Var::new(v % n), neg);
        let mut out: Vec<Vec<Lit>> =
            clauses.iter().map(|c| c.iter().map(to_lit).collect()).collect();
        for &(c, at) in flips {
            if let Some(clause) = out.get(c % out.len().max(1)) {
                let mut flipped = clause.clone();
                let at = at % flipped.len();
                flipped[at] = !flipped[at];
                out.push(flipped);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Merging survivors against the plain path: batches over up to
        /// eight target variables, each flushed mirrored into one solver
        /// (the twin of variable `v` is `v + 1 mod n`, sign flipped on odd
        /// `v`) and added clause by clause to another. Every verdict
        /// matches brute force, every stored clause follows from the
        /// input, and the merging solver stores no more clauses.
        #[test]
        fn merging_survivors_keeps_every_verdict(
            n in 1u32..=8,
            rounds in proptest::collection::vec(
                (arb_batch(), proptest::collection::vec((0u32..8, proptest::bool::ANY), 0..=3)),
                1..=5,
            ),
        ) {
            let twin = |l: Lit| {
                let v = l.var().index() as u32;
                Lit::new(Var::new((v + 1) % n), l.is_negated() != (v % 2 == 1))
            };
            let mut merging = Solver::new();
            let mut plain = Solver::new();
            let mut unsolved = [Solver::new(), Solver::new()];
            let mut input = CnfFormula::new();
            for s in [&mut merging, &mut plain] {
                s.new_vars(n as usize);
            }
            for s in &mut unsolved {
                s.new_vars(n as usize);
            }
            input.set_num_vars(n as usize);
            let mut buffer = ElimBuffer::new();
            for (batch, assumptions) in &rounds {
                let clauses = batch_clauses(batch, n);
                for s in [&mut merging, &mut unsolved[0]] {
                    buffer.reset(n as usize);
                    for c in &clauses {
                        buffer.add_clause(c);
                    }
                    buffer.flush_mirrored(s, &mut [], &mut Vec::new(), twin);
                }
                // In the buffer's order: the batch, then its twin.
                let renamed = clauses.iter().map(|c| c.iter().map(|&l| twin(l)).collect());
                for lits in clauses.clone().into_iter().chain(renamed) {
                    plain.add_clause(&lits);
                    unsolved[1].add_clause(&lits);
                    input.add_clause(&lits);
                }
                prop_assert!(unsolved[0].num_clauses() <= unsolved[1].num_clauses());

                let assumptions: Vec<Lit> = assumptions
                    .iter()
                    .map(|&(v, neg)| Lit::new(Var::new(v % n), neg))
                    .collect();
                let mut assumed = input.clone();
                for &a in &assumptions {
                    assumed.add_clause(&[a]);
                }
                let expected = assumed.count_models_brute_force() > 0;
                prop_assert_eq!(merging.solve(&assumptions) == SolveResult::Sat, expected);
                prop_assert_eq!(plain.solve(&assumptions) == SolveResult::Sat, expected);
                for clause in merging.original_clauses() {
                    let mut refuted = input.clone();
                    for &l in &clause {
                        refuted.add_clause(&[!l]);
                    }
                    prop_assert_eq!(refuted.count_models_brute_force(), 0, "{:?}", clause);
                }
            }
        }
    }

    #[test]
    fn add_clause_normalises() {
        let (_, mut buffer) = setup(1, 1);
        buffer.add_clause(&[lit(2), lit(1), lit(2)]);
        buffer.add_clause(&[lit(1), lit(-1)]);
        assert_eq!(buffer.clauses.len(), 1, "tautology dropped");
        assert_eq!(&buffer.lits[..], &[lit(1), lit(2)]);
    }

    #[test]
    fn buffer_is_reusable() {
        let (mut target, mut buffer) = setup(1, 1);
        buffer.add_clause(&[lit(-2), lit(1)]);
        buffer.add_clause(&[lit(2)]);
        buffer.flush(&mut target, &mut []);
        assert_eq!(target.clauses().collect::<Vec<_>>(), [&[lit(1)][..]]);
        buffer.reset(target.num_vars());
        let v = buffer.new_var();
        assert_eq!(v.index(), 1);
        buffer.add_clause(&[v.positive(), lit(-1)]);
        let mut keep = [v.positive()];
        buffer.flush(&mut target, &mut keep);
        assert_eq!(target.num_clauses(), 2);
        assert_eq!(keep, [lit(2)]);
    }
}
