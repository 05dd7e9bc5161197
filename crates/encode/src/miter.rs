//! Miter construction: the difference detector at the heart of the SAT
//! attack and of SAT-based equivalence checking.

use polykey_netlist::Netlist;
use polykey_sat::{Lit, Solver};

use crate::tseitin::{encode_shared, flip_if, Binding, CnfValue, EncodeError, GateTable};

/// A miter of two circuit copies sharing primary inputs.
///
/// The `diff` literal is one-sided: asserting `diff` forces the two copies
/// to produce different outputs somewhere. Solving under the assumption
/// `diff` therefore yields a distinguishing input, and `Unsat` proves the
/// copies are equivalent for all remaining key/input combinations.
#[derive(Clone, Debug)]
pub struct Miter {
    /// Shared primary-input literals, in declaration order.
    pub inputs: Vec<Lit>,
    /// Key literals of the left copy (empty for keyless circuits).
    pub keys_left: Vec<Lit>,
    /// Key literals of the right copy.
    pub keys_right: Vec<Lit>,
    /// Output values of the left copy.
    pub outputs_left: Vec<CnfValue>,
    /// Output values of the right copy.
    pub outputs_right: Vec<CnfValue>,
    /// Assert this literal to require an output difference.
    pub diff: Lit,
    /// True when a pair of constant outputs already differs: the circuits
    /// are unconditionally distinguishable and `diff` is forced true.
    pub always_differs: bool,
    /// The structural-hash table both copies were encoded against.
    pub(crate) table: GateTable,
}

/// Builds a miter between `left` and `right` inside `solver`.
///
/// The circuits must agree on the number of primary inputs and outputs; the
/// inputs are shared between the copies while each copy receives fresh key
/// variables (key counts may differ, e.g. original vs. locked). Both copies
/// are encoded against one structural-hash table, so identical logic on the
/// two sides gets one variable and output pairs that hash to the same
/// literal need no difference clause.
///
/// # Errors
///
/// Returns [`EncodeError::InterfaceMismatch`] when input/output arities
/// differ.
pub fn build_miter(
    solver: &mut Solver,
    left: &Netlist,
    right: &Netlist,
) -> Result<Miter, EncodeError> {
    if left.inputs().len() != right.inputs().len() {
        return Err(EncodeError::InterfaceMismatch {
            what: "primary inputs",
            left: left.inputs().len(),
            right: right.inputs().len(),
        });
    }
    if left.outputs().len() != right.outputs().len() {
        return Err(EncodeError::InterfaceMismatch {
            what: "outputs",
            left: left.outputs().len(),
            right: right.outputs().len(),
        });
    }
    // One structural-hash table for both copies: logic the two sides have
    // in common (everything outside the key cone of a self-miter, most of
    // a recombined netlist against its original) is encoded once, so the
    // solver never re-proves its equality.
    let mut table = GateTable::default();
    let enc_left = encode_shared(solver, &mut table, left, &Binding::fresh(left))?;
    let shared: Vec<Lit> =
        enc_left.inputs.iter().map(|v| v.lit().expect("fresh inputs are literals")).collect();
    let enc_right = encode_shared(
        solver,
        &mut table,
        right,
        &Binding::with_shared_inputs(&shared, right.key_inputs().len()),
    )?;

    let keys_left: Vec<Lit> =
        enc_left.keys.iter().map(|v| v.lit().expect("fresh keys are literals")).collect();
    let keys_right: Vec<Lit> =
        enc_right.keys.iter().map(|v| v.lit().expect("fresh keys are literals")).collect();

    let diff = solver.new_var().positive();
    let mut disjuncts: Vec<Lit> = vec![!diff];
    let mut always_differs = false;
    for (l, r) in enc_left.outputs.iter().zip(&enc_right.outputs) {
        if l == r {
            // Structurally identical outputs (one hashed encoding) can
            // never differ; no disjunct needed.
            continue;
        }
        match (l, r) {
            (CnfValue::Const(a), CnfValue::Const(b)) => {
                if a != b {
                    always_differs = true;
                }
            }
            (CnfValue::Lit(a), CnfValue::Const(b)) | (CnfValue::Const(b), CnfValue::Lit(a)) => {
                // d → (a ≠ b) collapses to d → (a = ¬b).
                let d = solver.new_var().positive();
                let target = if *b { !*a } else { *a };
                solver.add_clause(&[!d, target]);
                disjuncts.push(d);
            }
            (CnfValue::Lit(a), CnfValue::Lit(b)) => {
                let d = solver.new_var().positive();
                // d → (a ⊕ b): two one-sided clauses suffice under assumption.
                solver.add_clause(&[!d, *a, *b]);
                solver.add_clause(&[!d, !*a, !*b]);
                disjuncts.push(d);
            }
        }
    }
    if always_differs {
        solver.add_clause(&[diff]);
    } else {
        // diff → at least one output pair differs.
        solver.add_clause(&disjuncts);
    }

    Ok(Miter {
        inputs: shared,
        keys_left,
        keys_right,
        outputs_left: enc_left.outputs,
        outputs_right: enc_right.outputs,
        diff,
        always_differs,
        table,
    })
}

/// The renaming of a self-miter's left key copy onto its right one.
///
/// In `build_miter(&d, &d)` the right copy is the left one with the left
/// key literals renamed to the right ones: a left gate that depends on the
/// key has a twin in the right copy, stored under the renamed
/// structural-hash key, and every other gate is shared. A `KeyMirror` maps
/// the left keys and every key-dependent left gate to their twins. It is
/// read off the miter's table in variable order, so the same miter always
/// gives the same map.
///
/// A clause over left key literals and gates says, renamed through the
/// map, the same about the right copy. The attack's per-DIP constraints
/// ([`DipConstraints`](crate::DipConstraints)) encode and eliminate the
/// left copy once and add it twice this way; an
/// [`AttackEncoding`](crate::AttackEncoding) reads its map once per
/// session.
#[derive(Clone, Debug)]
pub(crate) struct KeyMirror {
    /// Per solver variable: the twin of its positive literal.
    image: Vec<Option<Lit>>,
}

impl KeyMirror {
    /// Reads the map off `miter`, which should be a miter of a netlist
    /// with itself; other miters map only the gates that have a twin.
    pub(crate) fn new(miter: &Miter) -> KeyMirror {
        KeyMirror { image: miter.table.twins(&miter.keys_left, &miter.keys_right) }
    }

    /// The right copy's twin of `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is neither a left key nor a key-dependent gate of the
    /// left copy: nothing in the right copy is known to stand for it.
    pub(crate) fn mirror(&self, l: Lit) -> Lit {
        match self.image.get(l.var().index()) {
            Some(&Some(twin)) => flip_if(twin, l.is_negated()),
            _ => panic!("literal {l} has no twin in the right key copy"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_netlist::{GateKind, Netlist};
    use polykey_sat::SolveResult;

    fn and_circuit() -> Netlist {
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let y = nl.add_gate("y", GateKind::And, &[a, b]).unwrap();
        nl.mark_output(y).unwrap();
        nl
    }

    fn and_circuit_demorgan() -> Netlist {
        // y = ¬(¬a ∨ ¬b): equivalent to AND.
        let mut nl = Netlist::new("and_dm");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let na = nl.add_gate("na", GateKind::Not, &[a]).unwrap();
        let nb = nl.add_gate("nb", GateKind::Not, &[b]).unwrap();
        let y = nl.add_gate("y", GateKind::Nor, &[na, nb]).unwrap();
        nl.mark_output(y).unwrap();
        nl
    }

    fn or_circuit() -> Netlist {
        let mut nl = Netlist::new("or");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let y = nl.add_gate("y", GateKind::Or, &[a, b]).unwrap();
        nl.mark_output(y).unwrap();
        nl
    }

    #[test]
    fn equivalent_circuits_give_unsat_miter() {
        let mut solver = Solver::new();
        let miter = build_miter(&mut solver, &and_circuit(), &and_circuit_demorgan()).unwrap();
        assert_eq!(solver.solve(&[miter.diff]), SolveResult::Unsat);
    }

    #[test]
    fn different_circuits_give_distinguishing_input() {
        let mut solver = Solver::new();
        let miter = build_miter(&mut solver, &and_circuit(), &or_circuit()).unwrap();
        assert_eq!(solver.solve(&[miter.diff]), SolveResult::Sat);
        let a = solver.model_value(miter.inputs[0]).unwrap();
        let b = solver.model_value(miter.inputs[1]).unwrap();
        // AND and OR differ exactly when a ≠ b.
        assert_ne!(a, b, "distinguishing input must separate AND from OR");
    }

    #[test]
    fn interface_mismatch_detected() {
        let mut big = Netlist::new("big");
        let a = big.add_input("a").unwrap();
        let b = big.add_input("b").unwrap();
        let c = big.add_input("c").unwrap();
        let y = big.add_gate("y", GateKind::And, &[a, b, c]).unwrap();
        big.mark_output(y).unwrap();
        let mut solver = Solver::new();
        let err = build_miter(&mut solver, &and_circuit(), &big).unwrap_err();
        assert!(matches!(err, EncodeError::InterfaceMismatch { what: "primary inputs", .. }));
    }

    #[test]
    fn locked_vs_original_miter_finds_wrong_key() {
        // Locked buffer: y = a ⊕ k. Original: y = a. The miter (with fresh
        // key on the right) is satisfiable exactly when k = 1.
        let mut orig = Netlist::new("orig");
        let a = orig.add_input("a").unwrap();
        let y = orig.add_gate("y", GateKind::Buf, &[a]).unwrap();
        orig.mark_output(y).unwrap();

        let mut locked = Netlist::new("locked");
        let a = locked.add_input("a").unwrap();
        let k = locked.add_key_input("k").unwrap();
        let y = locked.add_gate("y", GateKind::Xor, &[a, k]).unwrap();
        locked.mark_output(y).unwrap();

        let mut solver = Solver::new();
        let miter = build_miter(&mut solver, &orig, &locked).unwrap();
        assert_eq!(miter.keys_left.len(), 0);
        assert_eq!(miter.keys_right.len(), 1);
        assert_eq!(solver.solve(&[miter.diff]), SolveResult::Sat);
        assert_eq!(solver.model_value(miter.keys_right[0]), Some(true), "only k=1 differs");

        // Pinning the key to 0 makes the miter unsat: correct key.
        assert_eq!(solver.solve(&[miter.diff, !miter.keys_right[0]]), SolveResult::Unsat);
    }

    #[test]
    fn a_self_miter_mirrors_every_key_dependent_gate() {
        // y = (a ⊕ k0) ∧ k1, z = MUX(k0, a, ¬b): the left copy's key
        // literals and key-dependent gates map onto the right copy's,
        // the shared input logic maps nowhere.
        let mut nl = Netlist::new("keyed");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let k0 = nl.add_key_input("k0").unwrap();
        let k1 = nl.add_key_input("k1").unwrap();
        let x = nl.add_gate("x", GateKind::Xnor, &[a, k0]).unwrap();
        let y = nl.add_gate("y", GateKind::And, &[x, k1]).unwrap();
        let nb = nl.add_gate("nb", GateKind::Not, &[b]).unwrap();
        let z = nl.add_gate("z", GateKind::Mux, &[k0, a, nb]).unwrap();
        nl.mark_output(y).unwrap();
        nl.mark_output(z).unwrap();
        let mut solver = Solver::new();
        let miter = build_miter(&mut solver, &nl, &nl).unwrap();
        let mirror = KeyMirror::new(&miter);
        for (&l, &r) in miter.keys_left.iter().zip(&miter.keys_right) {
            assert_eq!(mirror.mirror(l), r);
            assert_eq!(mirror.mirror(!l), !r);
        }
        for (l, r) in miter.outputs_left.iter().zip(&miter.outputs_right) {
            let (l, r) = (l.lit().unwrap(), r.lit().unwrap());
            assert_ne!(l, r);
            assert_eq!(mirror.mirror(l), r);
            assert_eq!(mirror.mirror(!l), !r);
        }
        let input = miter.inputs[0];
        let unmapped = std::panic::catch_unwind(|| mirror.mirror(input));
        assert!(unmapped.is_err(), "an input has no twin");
    }

    #[test]
    fn constant_difference_forces_diff() {
        // Left outputs constant 0, right outputs constant 1.
        let mut zero = Netlist::new("zero");
        let _a = zero.add_input("a").unwrap();
        let z = zero.add_const("z", false).unwrap();
        zero.mark_output(z).unwrap();
        let mut one = Netlist::new("one");
        let _a = one.add_input("a").unwrap();
        let o = one.add_const("o", true).unwrap();
        one.mark_output(o).unwrap();

        let mut solver = Solver::new();
        let miter = build_miter(&mut solver, &zero, &one).unwrap();
        assert!(miter.always_differs);
        assert_eq!(solver.solve(&[miter.diff]), SolveResult::Sat);
    }
}
