//! Anti-SAT: complementary-block locking (Xie & Srivastava, CHES'16).
//!
//! Two complementary functions `g(X ⊕ K_A)` and `¬g(X ⊕ K_B)` are ANDed;
//! when the two halves agree (up to the hardwired per-bit polarity) the
//! AND is constantly 0 and the design is unlocked, so the scheme has `2^n`
//! functionally correct keys out of `2^{2n}` — a natural stress test for
//! key *verification* logic, since recovered keys need not match the
//! nominally "correct" one bit-for-bit.

use polykey_netlist::{GateKind, Netlist, NodeId};

use crate::common::{key_name, require_unlocked, Key, LockError, LockedCircuit};
use crate::scheme::{require_key_width, LockScheme};

/// Anti-SAT complementary-block locking as a [`LockScheme`].
///
/// The key width is `2n`: the first `n` bits feed block A, the last `n`
/// block B. Per-bit polarity constants (derived from the requested key)
/// make the *given* key correct; every key whose halves differ by the same
/// polarity vector is equally correct, preserving Anti-SAT's `2^n`-correct-
/// keys property.
///
/// # Examples
///
/// ```
/// use polykey_locking::{AntiSat, Key, LockScheme};
/// use polykey_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a")?;
/// let b = nl.add_input("b")?;
/// let y = nl.add_gate("y", GateKind::Or, &[a, b])?;
/// nl.mark_output(y)?;
///
/// let locked = AntiSat::new(2).lock(&nl, &Key::from_u64(0b0110, 4))?;
/// assert_eq!(locked.netlist.key_inputs().len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use]
pub struct AntiSat {
    /// Number of circuit inputs wired into each block (`n`); the total key
    /// width is `2n`.
    pub n: usize,
    /// Index of the output to corrupt; defaults to the first output.
    pub target_output: Option<usize>,
}

impl AntiSat {
    /// An Anti-SAT scheme over `n` inputs (key width `2n`).
    pub fn new(n: usize) -> AntiSat {
        AntiSat { n, target_output: None }
    }
}

impl Default for AntiSat {
    /// Two-input blocks (key width 4).
    fn default() -> AntiSat {
        AntiSat::new(2)
    }
}

impl LockScheme for AntiSat {
    fn name(&self) -> &str {
        "antisat"
    }

    fn key_len(&self, _netlist: &Netlist) -> usize {
        2 * self.n
    }

    fn lock(&self, netlist: &Netlist, key: &Key) -> Result<LockedCircuit, LockError> {
        require_key_width(2 * self.n, key)?;
        require_unlocked(netlist)?;
        let n = self.n;
        if n == 0 {
            return Err(LockError::TooSmall { what: "a non-zero block width" });
        }
        if n > netlist.inputs().len() {
            return Err(LockError::KeyTooWide {
                requested: n,
                available: netlist.inputs().len(),
            });
        }
        if netlist.outputs().is_empty() {
            return Err(LockError::TooSmall { what: "at least one output" });
        }
        let target_output = self.target_output.unwrap_or(0);
        if target_output >= netlist.outputs().len() {
            return Err(LockError::TooSmall { what: "a valid target output index" });
        }

        let mut locked = netlist.clone();
        locked.set_name(format!("{}_antisat{}", netlist.name(), 2 * n));

        let keys: Vec<NodeId> = (0..2 * n)
            .map(|i| {
                let name = key_name(&locked, i);
                locked.add_key_input(name)
            })
            .collect::<Result<_, _>>()?;
        let (keys_a, keys_b) = keys.split_at(n);

        // Block A: g = AND_i (x_i ⊕ ka_i); block B: ¬g over kb, with the
        // per-bit polarity c_i = ka_i ⊕ kb_i hardwired (Xnor where c_i = 1)
        // so the requested key is one of the 2^n correct keys.
        let taps: Vec<NodeId> = locked.inputs()[..n].to_vec();
        let mut xa = Vec::with_capacity(n);
        let mut xb = Vec::with_capacity(n);
        for i in 0..n {
            let polarity = key.bit(i) ^ key.bit(n + i);
            xa.push(locked.add_gate(
                format!("as_xa{i}"),
                GateKind::Xor,
                &[taps[i], keys_a[i]],
            )?);
            let b_kind = if polarity { GateKind::Xnor } else { GateKind::Xor };
            xb.push(locked.add_gate(format!("as_xb{i}"), b_kind, &[taps[i], keys_b[i]])?);
        }
        let ga = locked.add_gate("as_ga", GateKind::And, &xa)?;
        let gb = locked.add_gate("as_gb", GateKind::Nand, &xb)?;
        let flip = locked.add_gate("as_flip", GateKind::And, &[ga, gb])?;

        let out_node = locked.outputs()[target_output];
        locked.insert_after(out_node, "as_out", GateKind::Xor, &[flip])?;

        Ok(LockedCircuit { netlist: locked, key: key.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_netlist::{bits_of, Simulator};

    fn parity4() -> Netlist {
        let mut nl = Netlist::new("par4");
        let ins: Vec<NodeId> = (0..4).map(|i| nl.add_input(format!("x{i}")).unwrap()).collect();
        let y = nl.add_gate("y", GateKind::Xor, &ins).unwrap();
        nl.mark_output(y).unwrap();
        nl
    }

    #[test]
    fn equal_halves_unlock() {
        let nl = parity4();
        let half = Key::from_u64(0b011, 3);
        let locked = AntiSat::new(3).lock(&nl, &half.concat(&half)).unwrap();
        assert_eq!(locked.netlist.key_inputs().len(), 6);

        let mut orig = Simulator::new(&nl).unwrap();
        let mut lsim = Simulator::new(&locked.netlist).unwrap();
        // The returned key and *every* equal-halves key unlock.
        for h in 0..8u64 {
            let mut key = bits_of(h, 3);
            key.extend(bits_of(h, 3));
            for v in 0..16u64 {
                let bits = bits_of(v, 4);
                assert_eq!(lsim.eval(&bits, &key), orig.eval(&bits, &[]), "half {h:03b}");
            }
        }
        for v in 0..16u64 {
            let bits = bits_of(v, 4);
            assert_eq!(lsim.eval(&bits, locked.key.bits()), orig.eval(&bits, &[]));
        }
    }

    #[test]
    fn arbitrary_keys_become_correct() {
        // The generalized polarity makes *any* requested 2n-bit key
        // correct — and keeps 2^n keys correct in total.
        let nl = parity4();
        let scheme = AntiSat::new(2);
        let mut orig = Simulator::new(&nl).unwrap();
        for k in 0..16u64 {
            let key = Key::from_u64(k, 4);
            let locked = scheme.lock(&nl, &key).unwrap();
            let mut lsim = Simulator::new(&locked.netlist).unwrap();
            for v in 0..16u64 {
                let bits = bits_of(v, 4);
                assert_eq!(
                    lsim.eval(&bits, key.bits()),
                    orig.eval(&bits, &[]),
                    "key {k:04b} input {v:04b}"
                );
            }
            // Count correct keys exhaustively: exactly 2^n = 4.
            let correct = (0..16u64)
                .filter(|&cand| {
                    let cbits = bits_of(cand, 4);
                    (0..16u64).all(|v| {
                        let bits = bits_of(v, 4);
                        lsim.eval(&bits, &cbits) == orig.eval(&bits, &[])
                    })
                })
                .count();
            assert_eq!(correct, 4, "key {k:04b}");
        }
    }

    #[test]
    fn unequal_halves_corrupt_somewhere() {
        let nl = parity4();
        let locked = AntiSat::new(3).lock(&nl, &Key::from_u64(0, 6)).unwrap();
        let mut orig = Simulator::new(&nl).unwrap();
        let mut lsim = Simulator::new(&locked.netlist).unwrap();
        // K_A = 000, K_B = 111 differs from the locked polarity (zero):
        // g(X) ∧ ¬g'(X) fires for some X.
        let key = vec![false, false, false, true, true, true];
        let corrupts = (0..16u64).any(|v| {
            let bits = bits_of(v, 4);
            lsim.eval(&bits, &key) != orig.eval(&bits, &[])
        });
        assert!(corrupts);
    }

    #[test]
    fn width_checks() {
        let nl = parity4();
        assert!(matches!(
            AntiSat::new(9).lock(&nl, &Key::from_u64(0, 18)),
            Err(LockError::KeyTooWide { .. })
        ));
        assert!(matches!(
            AntiSat::new(0).lock(&nl, &Key::default()),
            Err(LockError::TooSmall { .. })
        ));
    }

    #[test]
    fn structure_validates() {
        let nl = parity4();
        let locked = AntiSat::new(4).lock(&nl, &Key::from_u64(0xAB, 8)).unwrap();
        locked.netlist.validate().unwrap();
        // 2n Xor + And + Nand + flip And + output Xor.
        assert_eq!(locked.netlist.num_gates(), nl.num_gates() + 2 * 4 + 4);
    }
}
