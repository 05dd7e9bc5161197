//! Property tests: private-variable elimination keeps what a clause batch
//! says about every variable that survives it.

use std::collections::BTreeSet;

use proptest::prelude::*;

use polykey_sat::{ClauseSink, CnfFormula, ElimBuffer, Lit, Var};

/// The projections of `f`'s models onto `vars` (read through each
/// literal's polarity), by brute force over all of `f`'s variables.
fn projections(f: &CnfFormula, vars: &[Lit]) -> BTreeSet<Vec<bool>> {
    let n = f.num_vars();
    let mut assignment = vec![false; n];
    let mut seen = BTreeSet::new();
    for bits in 0..1u64 << n {
        for (i, a) in assignment.iter_mut().enumerate() {
            *a = bits >> i & 1 == 1;
        }
        if f.eval(&assignment) == Some(true) {
            seen.insert(vars.iter().map(|l| l.apply(assignment[l.var().index()])).collect());
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn elimination_preserves_the_projection(
        outside in 1usize..=5,
        private in 1usize..=7,
        kept_mask in 0u8..128,
        keep_negated in proptest::bool::ANY,
        raw in proptest::collection::vec(
            proptest::collection::vec((0u32..12, proptest::bool::ANY), 1..=4),
            0..=24,
        ),
    ) {
        // A batch over `outside` target variables and `private` buffer
        // ones; at most five buffer variables are kept, so at most ten
        // variables are projected onto.
        let total = (outside + private) as u32;
        let clauses: Vec<Vec<Lit>> = raw
            .iter()
            .map(|c| c.iter().map(|&(v, neg)| Lit::new(Var::new(v % total), neg)).collect())
            .collect();
        let kept: Vec<Lit> = (0..private)
            .filter(|&i| kept_mask >> i & 1 == 1)
            .take(5)
            .map(|i| Lit::new(Var::new((outside + i) as u32), keep_negated))
            .collect();

        let mut original = CnfFormula::new();
        original.set_num_vars(outside + private);
        let mut target = CnfFormula::new();
        target.new_vars(outside);
        let mut buffer = ElimBuffer::new();
        buffer.reset(outside);
        buffer.new_vars(private);
        for c in &clauses {
            original.add_clause(c);
            buffer.add_clause(c);
        }
        let mut mapped = kept.clone();
        buffer.flush(&mut target, &mut mapped);

        prop_assert!(target.num_clauses() <= clauses.len());
        prop_assert!(target.num_vars() <= outside + private);
        for (l, m) in kept.iter().zip(&mapped) {
            prop_assert!(m.var().index() >= outside, "kept literals stay off the target's own");
            prop_assert_eq!(l.is_negated(), m.is_negated());
        }
        let distinct: BTreeSet<Var> = mapped.iter().map(|m| m.var()).collect();
        prop_assert_eq!(distinct.len(), mapped.len());

        let outer: Vec<Lit> = (0..outside).map(|v| Var::new(v as u32).positive()).collect();
        let before = [&outer[..], &kept].concat();
        let after = [&outer[..], &mapped].concat();
        prop_assert_eq!(projections(&original, &before), projections(&target, &after));
    }
}
