//! Key verification: formal and simulation-based checks of recovered keys.

use polykey_encode::{check_equivalence, EquivResult};
use polykey_locking::Key;
use polykey_netlist::{cofactor, pin_keys, simplify, Netlist, Simulator};

use crate::error::AttackError;

/// Formally verifies that `key` unlocks `locked` — i.e. the locked netlist
/// with the key pinned is equivalent to `original` — via SAT.
///
/// # Errors
///
/// Structural errors (interface mismatch, wrong key width, cycles).
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
    let (pinned, _) = simplify(&pinned)?;
    Ok(check_equivalence(original, &pinned)? == EquivResult::Equivalent)
}

/// Formally verifies that `key` unlocks `locked` on the sub-space where the
/// given input positions take the given values (the guarantee a multi-key
/// sub-attack provides).
///
/// # Errors
///
/// Structural errors (bad indices, wrong key width, cycles).
pub fn verify_key_on_subspace(
    original: &Netlist,
    locked: &Netlist,
    key: &Key,
    forced: &[(usize, bool)],
) -> Result<bool, AttackError> {
    let orig_pins: Vec<_> = forced.iter().map(|&(i, v)| (original.inputs()[i], v)).collect();
    let locked_pins: Vec<_> = forced.iter().map(|&(i, v)| (locked.inputs()[i], v)).collect();
    let orig_cof = cofactor(original, &orig_pins)?;
    let locked_cof = cofactor(locked, &locked_pins)?;
    let pinned = pin_keys(&locked_cof, key.bits())?;
    let (pinned, _) = simplify(&pinned)?;
    let (orig_cof, _) = simplify(&orig_cof)?;
    Ok(check_equivalence(&orig_cof, &pinned)? == EquivResult::Equivalent)
}

/// Fast probabilistic check: simulates `patterns` random input vectors and
/// compares locked-under-key against the original. Returns the number of
/// mismatching patterns (0 means "no corruption found", not proof).
///
/// # Errors
///
/// Structural errors (wrong key width, cycles).
pub fn random_sim_mismatches(
    original: &Netlist,
    locked: &Netlist,
    key: &Key,
    patterns: usize,
    seed: u64,
) -> Result<usize, AttackError> {
    let mut orig = Simulator::new(original)?;
    let mut lsim = Simulator::new(locked)?;
    let ni = original.inputs().len();
    let key_bits = key.bits();
    let mut state = seed | 1;
    let mut next_bit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 63 == 1
    };
    let mut mismatches = 0;
    for _ in 0..patterns {
        let bits: Vec<bool> = (0..ni).map(|_| next_bit()).collect();
        if orig.eval(&bits, &[]) != lsim.eval(&bits, key_bits) {
            mismatches += 1;
        }
    }
    Ok(mismatches)
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
    fn correct_key_verifies_wrong_key_fails() {
        let nl = xor3();
        let correct = Key::from_u64(0b010, 3);
        let locked = Sarlock::new(3).lock(&nl, &correct).unwrap();
        assert!(verify_key(&nl, &locked.netlist, &correct).unwrap());
        let wrong = Key::from_u64(0b011, 3);
        assert!(!verify_key(&nl, &locked.netlist, &wrong).unwrap());
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
    fn random_sim_finds_corruption() {
        let nl = xor3();
        let correct = Key::from_u64(0b110, 3);
        let locked = Sarlock::new(3).lock(&nl, &correct).unwrap();
        assert_eq!(random_sim_mismatches(&nl, &locked.netlist, &correct, 200, 1).unwrap(), 0);
        // A wrong SARLock key errs on exactly 1 of 8 patterns; 200 random
        // patterns hit it with overwhelming probability.
        let wrong = Key::from_u64(0b111, 3);
        assert!(random_sim_mismatches(&nl, &locked.netlist, &wrong, 200, 1).unwrap() > 0);
    }
}
