//! Clause storage for the solver: an indexed arena with lazy deletion, and
//! the per-literal occurrence lists over it.

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
#[derive(Debug)]
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
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    clauses: Vec<Clause>,
    /// Per slot: the number of clauses deleted from it so far.
    generations: Vec<u32>,
    free: Vec<u32>,
    num_original: usize,
    num_learnt: usize,
    /// Total literal count in live clauses, for stats.
    lits_live: usize,
}

impl ClauseDb {
    pub(crate) fn new() -> ClauseDb {
        ClauseDb::default()
    }

    pub(crate) fn insert(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit clauses live on the trail, not in the db");
        self.lits_live += lits.len();
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
            self.generations.push(0);
            ClauseRef((self.clauses.len() - 1) as u32)
        }
    }

    /// Marks a clause deleted; its slot becomes reusable.
    pub(crate) fn delete(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref.0 as usize];
        debug_assert!(!c.deleted);
        c.deleted = true;
        self.lits_live -= c.lits.len();
        if c.learnt {
            self.num_learnt -= 1;
        } else {
            self.num_original -= 1;
        }
        c.lits = Vec::new();
        let generation = &mut self.generations[cref.0 as usize];
        *generation = generation.wrapping_add(1);
        self.free.push(cref.0);
    }

    /// The generation of `cref`'s slot: it moves on when the slot's clause
    /// is deleted, so a handle saved with it can tell a reused slot.
    #[inline]
    pub(crate) fn generation(&self, cref: ClauseRef) -> u32 {
        self.generations[cref.0 as usize]
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

    pub(crate) fn lits_live(&self) -> usize {
        self.lits_live
    }

    /// Iterates over every live clause (a full scan, for tests).
    #[cfg(test)]
    pub(crate) fn live(&self) -> impl Iterator<Item = &Clause> + '_ {
        self.clauses.iter().filter(|c| !c.deleted)
    }

    /// Iterates over the handles of live learnt clauses.
    pub(crate) fn learnt_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.deleted && c.learnt)
            .map(|(i, _)| ClauseRef(i as u32))
    }
}

/// The end of an occurrence list.
const NIL: u32 = u32::MAX;
/// The head of a list emptied for good: its literal is fixed at level 0.
const DROPPED: u32 = u32::MAX - 1;

/// One occurrence: `cref` listed under `lit` while its slot was at
/// generation `generation`, and the next older entry of `lit`'s list.
#[derive(Copy, Clone, Debug)]
struct Occurrence {
    cref: ClauseRef,
    generation: u32,
    lit: Lit,
    next: u32,
}

/// Per-literal occurrence lists of clause handles, chained through one
/// entry pool so that indexing a clause allocates nothing per literal.
///
/// An entry is stale once its clause's slot has moved to a later
/// generation (the clause was deleted), or once its list was dropped.
/// Stale entries stay in the pool until [`Occurrences::compact`] removes
/// them in one sequential pass.
#[derive(Debug, Default)]
pub(crate) struct Occurrences {
    /// Per literal code: the newest entry of the literal's list, `NIL`, or
    /// `DROPPED`.
    heads: Vec<u32>,
    pool: Vec<Occurrence>,
}

impl Occurrences {
    /// Adds the two (empty) lists of a new variable.
    pub(crate) fn new_var(&mut self) {
        self.heads.push(NIL);
        self.heads.push(NIL);
    }

    /// Lists the live clause `cref` under `lit`.
    pub(crate) fn push(&mut self, db: &ClauseDb, lit: Lit, cref: ClauseRef) {
        let head = &mut self.heads[lit.code()];
        debug_assert_ne!(*head, DROPPED, "{lit} is fixed; no new clause contains it");
        let next = *head;
        *head = u32::try_from(self.pool.len()).expect("fewer than 2^32 occurrences");
        self.pool.push(Occurrence { cref, generation: db.generation(cref), lit, next });
    }

    /// Appends the live clauses listed under `lit` to `out` and drops the
    /// list for good.
    pub(crate) fn take(&mut self, db: &ClauseDb, lit: Lit, out: &mut Vec<ClauseRef>) {
        let mut at = std::mem::replace(&mut self.heads[lit.code()], DROPPED);
        while at < DROPPED {
            let entry = self.pool[at as usize];
            if db.generation(entry.cref) == entry.generation {
                out.push(entry.cref);
            }
            at = entry.next;
        }
    }

    /// Drops the list of `lit` for good.
    pub(crate) fn drop_list(&mut self, lit: Lit) {
        self.heads[lit.code()] = DROPPED;
    }

    /// Entries in the pool, stale ones included.
    pub(crate) fn len(&self) -> usize {
        self.pool.len()
    }

    /// Removes every stale entry, keeping each list's order.
    pub(crate) fn compact(&mut self, db: &ClauseDb) {
        for head in &mut self.heads {
            if *head != DROPPED {
                *head = NIL;
            }
        }
        let heads = &mut self.heads;
        let mut kept = 0;
        for at in 0..self.pool.len() {
            let mut entry = self.pool[at];
            let head = &mut heads[entry.lit.code()];
            if *head == DROPPED || db.generation(entry.cref) != entry.generation {
                continue;
            }
            entry.next = *head;
            *head = kept as u32;
            self.pool[kept] = entry;
            kept += 1;
        }
        self.pool.truncate(kept);
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
        assert_eq!(db.lits_live(), 5);
    }

    #[test]
    fn delete_reuses_slot() {
        let mut db = ClauseDb::new();
        let c1 = db.insert(lits(&[1, 2]), true, 2);
        let _c2 = db.insert(lits(&[3, 4]), false, 0);
        db.delete(c1);
        assert_eq!(db.num_learnt(), 0);
        assert_eq!(db.lits_live(), 2);
        let c3 = db.insert(lits(&[5, 6, 7]), false, 0);
        assert_eq!(c3, c1, "deleted slot should be reused");
        assert_eq!(db.num_original(), 2);
        assert_eq!(db.lits_live(), 5);
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
        let learnt: Vec<_> = db.learnt_refs().collect();
        assert_eq!(learnt, vec![c]);
    }

    #[test]
    fn occurrences_skip_stale_entries() {
        let mut db = ClauseDb::new();
        let mut occurs = Occurrences::default();
        for _ in 0..4 {
            occurs.new_var();
        }
        let index = |db: &mut ClauseDb, occurs: &mut Occurrences, c: &[i32]| {
            let cref = db.insert(lits(c), false, 0);
            for &l in &db.get(cref).lits {
                occurs.push(db, l, cref);
            }
            cref
        };
        let a = index(&mut db, &mut occurs, &[1, 2]);
        let b = index(&mut db, &mut occurs, &[1, -3]);
        // `b`'s slot goes to a clause without literal 1: the old entry
        // under 1 is stale, not a listing of the new clause.
        db.delete(b);
        let c = index(&mut db, &mut occurs, &[2, 4]);
        assert_eq!(c, b, "the slot is reused");
        assert_eq!(occurs.len(), 6);

        let mut out = Vec::new();
        occurs.take(&db, lits(&[1])[0], &mut out);
        assert_eq!(out, vec![a], "the reused slot's clause lacks 1");
        occurs.take(&db, lits(&[2])[0], &mut out);
        occurs.take(&db, lits(&[4])[0], &mut out);
        assert_eq!(out, vec![a, c, a, c], "the lists of 1, then 2 and 4");

        // Compaction keeps only current entries of lists still open: `a`
        // under -2, none under the dropped lists of 1, 2 and 4, and none
        // of the deleted `b` under -3.
        let d = index(&mut db, &mut occurs, &[-2, -3]);
        occurs.compact(&db);
        assert_eq!(occurs.len(), 2);
        out.clear();
        occurs.take(&db, lits(&[-2])[0], &mut out);
        occurs.take(&db, lits(&[-3])[0], &mut out);
        assert_eq!(out, vec![d, d]);
    }

    #[test]
    fn watcher_is_small() {
        // Watch lists dominate memory; keep the entry compact.
        assert!(std::mem::size_of::<Watcher>() <= 8);
        let w = Watcher { cref: ClauseRef(3), blocker: Var::new(1).positive() };
        assert_eq!(w.cref, ClauseRef(3));
    }
}
