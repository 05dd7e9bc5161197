//! Key verification: SAT-based checks of recovered keys.

use polykey_encode::{build_miter, check_equivalence, EncodeError, EquivResult};
use polykey_locking::Key;
use polykey_netlist::{pin_keys, Netlist};
use polykey_sat::{SolveResult, Solver};

use crate::error::AttackError;

/// Formally verifies that `key` unlocks `locked` — i.e. the locked netlist
/// with the key pinned is equivalent to `original` — via SAT.
///
/// The proof runs on the pinned netlist as it is: re-synthesizing it first
/// would hide the logic it shares with `original` from the miter's
/// structural hashing, which is what keeps the proof fast.
///
/// # Errors
///
/// Structural errors (interface mismatch, wrong key width).
///
/// # Examples
///
/// ```
/// use polykey_attack::verify_key;
/// use polykey_locking::{Key, LockScheme, Rll};
/// use polykey_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a")?;
/// let b = nl.add_input("b")?;
/// let y = nl.add_gate("y", GateKind::Or, &[a, b])?;
/// nl.mark_output(y)?;
/// let locked = Rll::new(1).with_seed(2).lock(&nl, &Key::from_u64(1, 1))?;
/// assert!(verify_key(&nl, &locked.netlist, &locked.key)?);
/// # Ok(())
/// # }
/// ```
pub fn verify_key(
    original: &Netlist,
    locked: &Netlist,
    key: &Key,
) -> Result<bool, AttackError> {
    let pinned = pin_keys(locked, key.bits())?;
    Ok(check_equivalence(original, &pinned)? == EquivResult::Equivalent)
}

/// Formally verifies that `key` unlocks `locked` on the sub-space where the
/// given input positions take the given values (the guarantee a multi-key
/// sub-attack provides). The proof pins the sub-space with one unit clause
/// per forced input on the miter, as the attack pins its terms, and runs
/// without re-synthesis, as in [`verify_key`].
///
/// # Errors
///
/// - [`AttackError::InputOutOfRange`] if a forced position is not an input
///   position of both netlists.
/// - Structural errors (wrong key width, interface mismatch, an `original`
///   with key inputs).
pub fn verify_key_on_subspace(
    original: &Netlist,
    locked: &Netlist,
    key: &Key,
    forced: &[(usize, bool)],
) -> Result<bool, AttackError> {
    let inputs = original.inputs().len().min(locked.inputs().len());
    if let Some(&(position, _)) = forced.iter().find(|&&(position, _)| position >= inputs) {
        return Err(AttackError::InputOutOfRange { position, inputs });
    }
    if !original.key_inputs().is_empty() {
        return Err(EncodeError::HasKeyInputs { name: original.name().to_string() }.into());
    }
    let pinned = pin_keys(locked, key.bits())?;
    let mut solver = Solver::new();
    let miter = build_miter(&mut solver, original, &pinned)?;
    for &(position, value) in forced {
        let lit = miter.inputs[position];
        solver.add_clause(&[if value { lit } else { !lit }]);
    }
    Ok(solver.solve(&[miter.diff]) == SolveResult::Unsat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_locking::{LockScheme, Sarlock};
    use polykey_netlist::GateKind;

    fn xor3() -> Netlist {
        let mut nl = Netlist::new("x3");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let y = nl.add_gate("y", GateKind::Xor, &[a, b, c]).unwrap();
        nl.mark_output(y).unwrap();
        nl
    }

    #[test]
    fn a_gate_named_like_a_pinned_key_does_not_stop_the_proof() {
        // `k$pin` is the name `pin_keys` first tries for key `k`'s constant.
        let mut original = Netlist::new("inv");
        let a = original.add_input("a").unwrap();
        let y = original.add_gate("y", GateKind::Not, &[a]).unwrap();
        original.mark_output(y).unwrap();
        let mut locked = Netlist::new("inv_locked");
        let a = locked.add_input("a").unwrap();
        let k = locked.add_key_input("k").unwrap();
        let y = locked.add_gate("k$pin", GateKind::Xor, &[a, k]).unwrap();
        locked.mark_output(y).unwrap();
        assert!(verify_key(&original, &locked, &Key::from_u64(1, 1)).unwrap());
        assert!(!verify_key(&original, &locked, &Key::from_u64(0, 1)).unwrap());
    }

    #[test]
    fn correct_key_verifies_wrong_key_fails() {
        let nl = xor3();
        let correct = Key::from_u64(0b010, 3);
        let locked = Sarlock::new(3).lock(&nl, &correct).unwrap();
        assert!(verify_key(&nl, &locked.netlist, &correct).unwrap());
        let wrong = Key::from_u64(0b011, 3);
        assert!(!verify_key(&nl, &locked.netlist, &wrong).unwrap());
    }

    #[test]
    fn large_pinned_netlists_prove_without_resynthesis() {
        // Regression: both checks used to re-synthesize the pinned netlist
        // first, which hid its shared structure from the proof; on c7552
        // the correct key then ran for minutes. The bound is generous
        // enough for a debug build (release takes tens of milliseconds).
        let nl = polykey_circuits::Iscas85::C7552.build();
        let correct = Key::from_u64(0xA5, 8);
        let locked = Sarlock::new(8).lock(&nl, &correct).unwrap().netlist;
        let start = std::time::Instant::now();
        assert!(verify_key(&nl, &locked, &correct).unwrap());
        assert!(!verify_key(&nl, &locked, &Key::from_u64(0xA4, 8)).unwrap());
        // SARLock compares the first key-width inputs: a key whose bit 0
        // disagrees with the pinned input 0 never errs in that half.
        let sub_key = Key::from_u64(0xA4, 8);
        assert!(verify_key_on_subspace(&nl, &locked, &sub_key, &[(0, true)]).unwrap());
        assert!(!verify_key_on_subspace(&nl, &locked, &sub_key, &[(0, false)]).unwrap());
        let elapsed = start.elapsed();
        assert!(elapsed < std::time::Duration::from_secs(30), "took {elapsed:?}");
    }

    #[test]
    fn subspace_verification_accepts_partial_keys() {
        // SARLock: key k ≠ k* errs only at input pattern == k. A key whose
        // comparator bit disagrees with a pinned input bit can never match
        // inside that sub-space, so it is sub-space correct.
        let nl = xor3();
        let correct = Key::from_u64(0b000, 3);
        let locked = Sarlock::new(3).lock(&nl, &correct).unwrap();
        // Sub-space x0 = 0; key with bit0 = 1 (globally wrong).
        let sub_key = Key::from_u64(0b001, 3);
        assert!(!verify_key(&nl, &locked.netlist, &sub_key).unwrap(), "globally wrong");
        assert!(
            verify_key_on_subspace(&nl, &locked.netlist, &sub_key, &[(0, false)]).unwrap(),
            "but correct on the x0=0 half-space"
        );
        assert!(
            !verify_key_on_subspace(&nl, &locked.netlist, &sub_key, &[(0, true)]).unwrap(),
            "and wrong on the half-space containing its error"
        );
    }

    #[test]
    fn subspace_positions_out_of_range_are_errors() {
        let nl = xor3();
        let key = Key::from_u64(0b010, 3);
        let locked = Sarlock::new(3).lock(&nl, &key).unwrap();
        assert!(matches!(
            verify_key_on_subspace(&nl, &locked.netlist, &key, &[(0, true), (3, false)]),
            Err(AttackError::InputOutOfRange { position: 3, inputs: 3 })
        ));
        // A position the locked netlist has but the original lacks.
        let mut narrow = Netlist::new("x2");
        let a = narrow.add_input("a").unwrap();
        let b = narrow.add_input("b").unwrap();
        let y = narrow.add_gate("y", GateKind::Xor, &[a, b]).unwrap();
        narrow.mark_output(y).unwrap();
        assert!(matches!(
            verify_key_on_subspace(&narrow, &locked.netlist, &key, &[(2, true)]),
            Err(AttackError::InputOutOfRange { position: 2, inputs: 2 })
        ));
    }
}
