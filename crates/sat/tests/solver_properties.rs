//! Property-based and stress tests: the CDCL solver against brute force.

use proptest::prelude::*;
use rand::{RngExt, SeedableRng};

use polykey_sat::{ClauseSink, CnfFormula, Lit, SolveResult, Solver, Var};

/// Strategy: a random CNF over at most `max_vars` variables.
fn arb_cnf(
    max_vars: u32,
    max_clauses: usize,
    max_len: usize,
) -> impl Strategy<Value = CnfFormula> {
    let clause = proptest::collection::vec(
        (0..max_vars, proptest::bool::ANY).prop_map(|(v, neg)| Lit::new(Var::new(v), neg)),
        1..=max_len,
    );
    proptest::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| {
        let mut f = CnfFormula::new();
        f.set_num_vars(max_vars as usize);
        for c in clauses {
            f.add_clause(&c);
        }
        f
    })
}

/// Brute-force satisfiability of a small formula.
fn brute_force_sat(f: &CnfFormula) -> bool {
    f.count_models_brute_force() > 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_agrees_with_brute_force(f in arb_cnf(8, 40, 5)) {
        let mut solver = f.to_solver();
        let result = solver.solve(&[]);
        let expected = brute_force_sat(&f);
        prop_assert_eq!(result == SolveResult::Sat, expected);
        if result == SolveResult::Sat {
            // The reported model must actually satisfy the formula.
            let assignment: Vec<bool> = (0..f.num_vars())
                .map(|i| solver.model_value(Var::new(i as u32).positive()).unwrap_or(false))
                .collect();
            prop_assert_eq!(f.eval(&assignment), Some(true));
        }
    }

    #[test]
    fn assumptions_equal_unit_clauses(f in arb_cnf(7, 30, 4), asm_bits in 0u8..128) {
        // Solving under assumptions must agree with adding them as units.
        let assumptions: Vec<Lit> = (0..7)
            .map(|i| Lit::new(Var::new(i), asm_bits >> i & 1 == 1))
            .collect();
        let mut with_assumptions = f.to_solver();
        let res_a = with_assumptions.solve(&assumptions);

        let mut with_units = f.clone();
        for &l in &assumptions {
            with_units.add_clause(&[l]);
        }
        let mut s = with_units.to_solver();
        let res_u = s.solve(&[]);
        prop_assert_eq!(res_a, res_u);
    }

    #[test]
    fn incremental_solving_is_consistent(f in arb_cnf(7, 20, 4), extra in arb_cnf(7, 10, 4)) {
        // solve(f), then add extra clauses, then solve again ==
        // solving f ∪ extra from scratch.
        let mut inc = f.to_solver();
        let _ = inc.solve(&[]);
        for c in extra.clauses() {
            inc.add_clause(c);
        }
        let res_inc = inc.solve(&[]);

        let mut combined = f.clone();
        for c in extra.clauses() {
            combined.add_clause(c);
        }
        let mut scratch = combined.to_solver();
        prop_assert_eq!(res_inc, scratch.solve(&[]));
    }

    #[test]
    fn cloned_solver_continues_like_the_original(
        f in arb_cnf(16, 70, 3),
        rounds in proptest::collection::vec((arb_cnf(16, 6, 3), 0u16..256), 1..4),
    ) {
        // A clone taken mid-session (after a solve, with learnt clauses and
        // activities) must make the same search steps as the original on
        // the same input.
        let mut original = f.to_solver();
        let _ = original.solve(&[]);
        let mut clone = original.clone();
        prop_assert_eq!(clone.stats(), original.stats());
        let vars = |s: &Solver| -> Vec<Option<bool>> {
            (0..16).map(|i| s.model_value(Var::new(i).positive())).collect()
        };
        for (extra, bits) in &rounds {
            for c in extra.clauses() {
                original.add_clause(c);
                clone.add_clause(c);
            }
            let assumptions: Vec<Lit> = (0..4)
                .filter(|i| bits >> (2 * i) & 1 == 1)
                .map(|i| Lit::new(Var::new(i), bits >> (2 * i + 1) & 1 == 1))
                .collect();
            prop_assert_eq!(original.solve(&assumptions), clone.solve(&assumptions));
            prop_assert_eq!(original.stats(), clone.stats());
            prop_assert_eq!(vars(&original), vars(&clone));
        }
        // Clauses added to the clone never reach the original: it keeps
        // behaving like a second copy of itself.
        let mut reference = original.clone();
        let x = Var::new(0).positive();
        clone.add_clause(&[x]);
        clone.add_clause(&[!x]);
        prop_assert_eq!(clone.solve(&[]), SolveResult::Unsat);
        prop_assert_eq!(original.num_clauses(), reference.num_clauses());
        prop_assert_eq!(original.solve(&[]), reference.solve(&[]));
        prop_assert_eq!(original.stats(), reference.stats());
        prop_assert_eq!(vars(&original), vars(&reference));
    }
}

// ---------------------------------------------------------------------
// Deterministic stress tests
// ---------------------------------------------------------------------

/// Random 3-SAT near the phase transition; checks model validity on SAT.
#[test]
fn random_3sat_stress() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..30 {
        let n = 40 + round;
        let m = (n as f64 * 4.2) as usize;
        let mut f = CnfFormula::new();
        f.set_num_vars(n);
        for _ in 0..m {
            let mut clause = Vec::with_capacity(3);
            while clause.len() < 3 {
                let v = Var::new(rng.random_range(0..n as u32));
                if clause.iter().any(|l: &Lit| l.var() == v) {
                    continue;
                }
                clause.push(Lit::new(v, rng.random_bool(0.5)));
            }
            f.add_clause(&clause);
        }
        let mut solver = f.to_solver();
        if solver.solve(&[]) == SolveResult::Sat {
            let assignment: Vec<bool> = (0..n)
                .map(|i| solver.model_value(Var::new(i as u32).positive()).unwrap_or(false))
                .collect();
            assert_eq!(f.eval(&assignment), Some(true), "model must satisfy formula");
        }
    }
}

/// A satisfiable instance with an embedded unique solution: parity chains.
#[test]
fn xor_ladder_unique_solution() {
    // x_{i+1} = x_i XOR c_i with x_0 = 1 pins every variable.
    let mut solver = Solver::new();
    let n = 200usize;
    let xs: Vec<Lit> = (0..n).map(|_| ClauseSink::new_var(&mut solver).positive()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut expected = vec![true];
    solver.add_clause(&[xs[0]]);
    for i in 0..n - 1 {
        let c = rng.random_bool(0.5);
        let prev = expected[i];
        expected.push(prev ^ c);
        // x_{i+1} = x_i xor c  <=>  clauses over (x_i, x_{i+1})
        let (a, b) = (xs[i], xs[i + 1]);
        if c {
            solver.add_clause(&[a, b]);
            solver.add_clause(&[!a, !b]);
        } else {
            solver.add_clause(&[a, !b]);
            solver.add_clause(&[!a, b]);
        }
    }
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    for (i, &l) in xs.iter().enumerate() {
        assert_eq!(solver.model_value(l), Some(expected[i]), "bit {i}");
    }
}

/// Graph-coloring instances: triangle 2-coloring unsat, path 2-coloring sat.
#[test]
fn graph_coloring() {
    // Triangle with 2 colors: unsat.
    let mut s = Solver::new();
    let color = |s: &mut Solver| ClauseSink::new_var(s).positive();
    let verts: Vec<Lit> = (0..3).map(|_| color(&mut s)).collect();
    for i in 0..3 {
        for j in (i + 1)..3 {
            // adjacent vertices differ: (vi ∨ vj) ∧ (¬vi ∨ ¬vj)
            s.add_clause(&[verts[i], verts[j]]);
            s.add_clause(&[!verts[i], !verts[j]]);
        }
    }
    assert_eq!(s.solve(&[]), SolveResult::Unsat);

    // Path of 50 vertices with 2 colors: sat, alternating.
    let mut s = Solver::new();
    let verts: Vec<Lit> = (0..50).map(|_| ClauseSink::new_var(&mut s).positive()).collect();
    for w in verts.windows(2) {
        s.add_clause(&[w[0], w[1]]);
        s.add_clause(&[!w[0], !w[1]]);
    }
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    for w in verts.windows(2) {
        assert_ne!(s.model_value(w[0]), s.model_value(w[1]));
    }
}

/// Many repeated solves with flipping assumptions exercise trail cleanup.
#[test]
fn repeated_assumption_flips() {
    let mut s = Solver::new();
    let n = 30usize;
    let xs: Vec<Lit> = (0..n).map(|_| ClauseSink::new_var(&mut s).positive()).collect();
    // Chain: x_i -> x_{i+1}
    for w in xs.windows(2) {
        s.add_clause(&[!w[0], w[1]]);
    }
    for round in 0..100 {
        let i = round % n;
        // Assuming x_i forces everything after it.
        assert_eq!(s.solve(&[xs[i]]), SolveResult::Sat);
        for (j, &x) in xs.iter().enumerate() {
            if j >= i {
                assert_eq!(s.model_value(x), Some(true));
            }
        }
        // Assuming x_i ∧ ¬x_{n-1} is contradictory.
        if i < n - 1 {
            assert_eq!(s.solve(&[xs[i], !xs[n - 1]]), SolveResult::Unsat);
        }
    }
}
