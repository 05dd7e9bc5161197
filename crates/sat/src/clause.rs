//! Clause storage for the solver: an indexed arena with lazy deletion.

use crate::lit::Lit;

/// A handle to a clause stored in the solver's [`ClauseDb`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct ClauseRef(pub(crate) u32);

/// A clause plus the metadata CDCL search needs.
///
/// The first two literals are the watched ones; propagation keeps the
/// invariant that `lits[1]` is the literal that was just falsified when a
/// watcher fires, and `lits[0]` is the implied literal when the clause
/// becomes unit.
#[derive(Clone, Debug)]
pub(crate) struct Clause {
    pub(crate) lits: Vec<Lit>,
    /// Activity for learnt-clause garbage collection (bumped on conflict use).
    pub(crate) activity: f64,
    /// Literal-block distance at learning time (glue level).
    pub(crate) lbd: u32,
    pub(crate) learnt: bool,
    /// Lazily deleted: watchers skip and drop references to deleted clauses.
    pub(crate) deleted: bool,
}

impl Clause {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.lits.len()
    }
}

/// The clause database: original and learnt clauses in one arena.
///
/// Deletion is lazy (a tombstone flag); watch lists drop dead references as
/// they encounter them. Deleted slots are reused for new clauses via a free
/// list, bounding memory growth across [`Solver::reduce_db`] cycles.
///
/// [`Solver::reduce_db`]: crate::Solver
#[derive(Clone, Debug, Default)]
pub(crate) struct ClauseDb {
    clauses: Vec<Clause>,
    free: Vec<u32>,
    num_original: usize,
    num_learnt: usize,
}

impl ClauseDb {
    pub(crate) fn new() -> ClauseDb {
        ClauseDb::default()
    }

    pub(crate) fn insert(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit clauses live on the trail, not in the db");
        if learnt {
            self.num_learnt += 1;
        } else {
            self.num_original += 1;
        }
        let clause = Clause { lits, activity: 0.0, lbd, learnt, deleted: false };
        if let Some(slot) = self.free.pop() {
            self.clauses[slot as usize] = clause;
            ClauseRef(slot)
        } else {
            self.clauses.push(clause);
            ClauseRef((self.clauses.len() - 1) as u32)
        }
    }

    /// Marks a clause deleted; its slot becomes reusable.
    pub(crate) fn delete(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref.0 as usize];
        debug_assert!(!c.deleted);
        c.deleted = true;
        if c.learnt {
            self.num_learnt -= 1;
        } else {
            self.num_original -= 1;
        }
        c.lits = Vec::new();
        self.free.push(cref.0);
    }

    #[inline]
    pub(crate) fn get(&self, cref: ClauseRef) -> &Clause {
        &self.clauses[cref.0 as usize]
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, cref: ClauseRef) -> &mut Clause {
        &mut self.clauses[cref.0 as usize]
    }

    pub(crate) fn num_original(&self) -> usize {
        self.num_original
    }

    pub(crate) fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Iterates over the handles of live clauses, in slot order.
    pub(crate) fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.deleted)
            .map(|(i, _)| ClauseRef(i as u32))
    }

    /// Iterates over the handles of live learnt clauses, in slot order.
    pub(crate) fn learnt_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.refs().filter(|&cref| self.get(cref).learnt)
    }
}

/// A watch-list entry: the clause to inspect and a cached "blocker" literal.
///
/// If the blocker is already true the clause is satisfied and need not be
/// touched, which avoids most clause dereferences during propagation.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Watcher {
    pub(crate) cref: ClauseRef,
    pub(crate) blocker: Lit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(v: &[i32]) -> Vec<Lit> {
        v.iter().map(|&x| Lit::from_dimacs(x)).collect()
    }

    #[test]
    fn insert_and_get() {
        let mut db = ClauseDb::new();
        let c1 = db.insert(lits(&[1, 2, 3]), false, 0);
        let c2 = db.insert(lits(&[-1, -2]), true, 2);
        assert_eq!(db.get(c1).len(), 3);
        assert!(db.get(c2).learnt);
        assert_eq!(db.num_original(), 1);
        assert_eq!(db.num_learnt(), 1);
    }

    #[test]
    fn delete_reuses_slot() {
        let mut db = ClauseDb::new();
        let c1 = db.insert(lits(&[1, 2]), true, 2);
        let _c2 = db.insert(lits(&[3, 4]), false, 0);
        db.delete(c1);
        assert_eq!(db.num_learnt(), 0);
        let c3 = db.insert(lits(&[5, 6, 7]), false, 0);
        assert_eq!(c3, c1, "deleted slot should be reused");
        assert_eq!(db.num_original(), 2);
        assert!(!db.get(c3).deleted && !db.get(c3).learnt);
    }

    #[test]
    fn refs_skip_deleted() {
        let mut db = ClauseDb::new();
        let a = db.insert(lits(&[1, 2]), false, 0);
        let b = db.insert(lits(&[1, 3]), true, 1);
        let c = db.insert(lits(&[2, 3]), true, 1);
        db.delete(b);
        assert!(db.get(b).deleted && db.get(b).lits.is_empty());
        assert!(!db.get(a).deleted && !db.get(c).deleted);
        let live: Vec<_> = db.refs().collect();
        assert_eq!(live, vec![a, c]);
        let learnt: Vec<_> = db.learnt_refs().collect();
        assert_eq!(learnt, vec![c]);
    }

    #[test]
    fn watcher_is_small() {
        // Watch lists dominate memory; keep the entry compact.
        assert!(std::mem::size_of::<Watcher>() <= 8);
        let w = Watcher { cref: ClauseRef(3), blocker: Var::new(1).positive() };
        assert_eq!(w.cref, ClauseRef(3));
    }
}
