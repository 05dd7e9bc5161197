//! SAT-based combinational equivalence checking.

use polykey_netlist::Netlist;
use polykey_sat::{SolveResult, Solver};

use crate::miter::{build_miter, Miter};
use crate::tseitin::EncodeError;

/// The verdict of an equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivResult {
    /// The circuits compute the same function on all inputs.
    Equivalent,
    /// The circuits differ; a distinguishing input pattern is attached.
    Inequivalent {
        /// An input pattern (in input declaration order) on which the two
        /// circuits produce different outputs.
        counterexample: Vec<bool>,
    },
}

impl EquivResult {
    /// True iff the verdict is [`EquivResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }
}

/// Checks whether two keyless combinational circuits are functionally
/// equivalent, via a miter and one SAT call.
///
/// # Errors
///
/// - [`EncodeError::HasKeyInputs`] if either circuit still has key ports.
/// - [`EncodeError::InterfaceMismatch`] if their input or output counts
///   differ.
///
/// # Examples
///
/// ```
/// use polykey_netlist::{GateKind, Netlist};
/// use polykey_encode::{check_equivalence, EquivResult};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Netlist::new("and");
/// let x = a.add_input("x")?;
/// let y = a.add_input("y")?;
/// let g = a.add_gate("g", GateKind::And, &[x, y])?;
/// a.mark_output(g)?;
///
/// let mut b = Netlist::new("nand_not");
/// let x = b.add_input("x")?;
/// let y = b.add_input("y")?;
/// let n = b.add_gate("n", GateKind::Nand, &[x, y])?;
/// let g = b.add_gate("g", GateKind::Not, &[n])?;
/// b.mark_output(g)?;
///
/// assert_eq!(check_equivalence(&a, &b)?, EquivResult::Equivalent);
/// # Ok(())
/// # }
/// ```
pub fn check_equivalence(left: &Netlist, right: &Netlist) -> Result<EquivResult, EncodeError> {
    for nl in [left, right] {
        if !nl.key_inputs().is_empty() {
            return Err(EncodeError::HasKeyInputs { name: nl.name().to_string() });
        }
    }
    let mut solver = Solver::new();
    let miter = build_miter(&mut solver, left, right)?;
    match solver.solve(&[miter.diff]) {
        SolveResult::Sat => {
            Ok(EquivResult::Inequivalent { counterexample: extract_inputs(&solver, &miter) })
        }
        SolveResult::Unsat => Ok(EquivResult::Equivalent),
        SolveResult::Unknown => unreachable!("no budget was set on the solver"),
    }
}

fn extract_inputs(solver: &Solver, miter: &Miter) -> Vec<bool> {
    miter.inputs.iter().map(|&l| solver.model_value(l).unwrap_or(false)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_netlist::{bits_of, GateKind, Netlist, Simulator};

    fn xor3(name: &str, order: [usize; 3]) -> Netlist {
        // Xor of three inputs, associated in the given order: all equivalent.
        let mut nl = Netlist::new(name);
        let ins = [
            nl.add_input("a").unwrap(),
            nl.add_input("b").unwrap(),
            nl.add_input("c").unwrap(),
        ];
        let g1 = nl.add_gate("g1", GateKind::Xor, &[ins[order[0]], ins[order[1]]]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Xor, &[g1, ins[order[2]]]).unwrap();
        nl.mark_output(g2).unwrap();
        nl
    }

    #[test]
    fn xor_associativity() {
        let a = xor3("a", [0, 1, 2]);
        let b = xor3("b", [2, 0, 1]);
        assert_eq!(check_equivalence(&a, &b).unwrap(), EquivResult::Equivalent);
    }

    #[test]
    fn counterexample_is_real() {
        let a = xor3("a", [0, 1, 2]);
        // Inequivalent: one output inverted.
        let mut b = Netlist::new("b");
        let ins =
            [b.add_input("a").unwrap(), b.add_input("b").unwrap(), b.add_input("c").unwrap()];
        let g1 = b.add_gate("g1", GateKind::Xor, &[ins[0], ins[1]]).unwrap();
        let g2 = b.add_gate("g2", GateKind::Xnor, &[g1, ins[2]]).unwrap();
        b.mark_output(g2).unwrap();

        match check_equivalence(&a, &b).unwrap() {
            EquivResult::Inequivalent { counterexample } => {
                let mut sa = Simulator::new(&a).unwrap();
                let mut sb = Simulator::new(&b).unwrap();
                assert_ne!(
                    sa.eval(&counterexample, &[]),
                    sb.eval(&counterexample, &[]),
                    "counterexample must actually distinguish"
                );
            }
            other => panic!("expected inequivalent, got {other:?}"),
        }
    }

    /// One gate over inputs `a, b, c` (as many as its arity takes), with
    /// fan-in `inverted` read through an inverter.
    fn one_gate(kind: GateKind, arity: usize, inverted: Option<usize>) -> Netlist {
        let mut nl = Netlist::new("one_gate");
        let mut fanins: Vec<_> =
            ["a", "b", "c"].iter().map(|name| nl.add_input(*name).unwrap()).collect();
        fanins.truncate(arity);
        if let Some(j) = inverted {
            fanins[j] = nl.add_gate("n", GateKind::Not, &[fanins[j]]).unwrap();
        }
        let g = nl.add_gate("g", kind, &fanins).unwrap();
        nl.mark_output(g).unwrap();
        nl
    }

    #[test]
    fn inverted_fanins_are_not_merged() {
        // The two sides share every variable and differ in one fan-in
        // polarity: a structural-hash key that dropped that polarity
        // would merge them and report equivalence.
        for (kind, arity) in [
            (GateKind::And, 2),
            (GateKind::Or, 3),
            (GateKind::Xor, 2),
            (GateKind::Xnor, 3),
            (GateKind::Mux, 3),
        ] {
            let a = one_gate(kind, arity, None);
            for j in 0..arity {
                let b = one_gate(kind, arity, Some(j));
                let EquivResult::Inequivalent { counterexample } =
                    check_equivalence(&a, &b).unwrap()
                else {
                    panic!("{kind:?} with fan-in {j} inverted reported equivalent");
                };
                let mut sa = Simulator::new(&a).unwrap();
                let mut sb = Simulator::new(&b).unwrap();
                assert_ne!(sa.eval(&counterexample, &[]), sb.eval(&counterexample, &[]));
            }
        }
    }

    #[test]
    fn keyed_circuits_rejected() {
        let mut a = Netlist::new("keyed");
        let x = a.add_input("x").unwrap();
        let k = a.add_key_input("k").unwrap();
        let g = a.add_gate("g", GateKind::Xor, &[x, k]).unwrap();
        a.mark_output(g).unwrap();
        let err = check_equivalence(&a, &a.clone()).unwrap_err();
        assert!(matches!(err, EncodeError::HasKeyInputs { .. }));
        assert!(err.to_string().contains("keyed"));
    }

    #[test]
    fn equivalence_is_exhaustive_on_small_circuits() {
        // Compare the SAT verdict with exhaustive simulation for a few pairs.
        let a = xor3("a", [0, 1, 2]);
        let b = xor3("b", [1, 2, 0]);
        let verdict = check_equivalence(&a, &b).unwrap();
        let mut sa = Simulator::new(&a).unwrap();
        let mut sb = Simulator::new(&b).unwrap();
        let all_equal = (0..8u64).all(|v| {
            let bits = bits_of(v, 3);
            sa.eval(&bits, &[]) == sb.eval(&bits, &[])
        });
        assert_eq!(verdict.is_equivalent(), all_equal);
    }
}
