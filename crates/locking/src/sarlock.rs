//! SARLock: SAT-attack-resistant point-function locking (Yasin et al.,
//! HOST'16).
//!
//! A comparator raises a flip signal when the observed inputs equal the
//! applied key *and* the key is not the correct one; the flip is XOR-ed into
//! one output. Every wrong key corrupts exactly one input pattern, so each
//! SAT-attack iteration can eliminate only one key and the number of
//! distinguishing input patterns grows as `2^|K|` — the error profile shown
//! in Fig. 1(a) of the paper.

use polykey_netlist::{GateKind, Netlist, NodeId};

use crate::common::{key_name, require_unlocked, Key, LockError, LockedCircuit};
use crate::scheme::{require_key_width, LockScheme};

/// SARLock point-function locking as a [`LockScheme`].
///
/// The comparator reads `key_bits` primary inputs (the first ones unless
/// [`Sarlock::compare_inputs`] overrides the choice) and corrupts one
/// output for every wrong key at exactly one input pattern.
///
/// # Examples
///
/// ```
/// use polykey_locking::{Key, LockScheme, Sarlock};
/// use polykey_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a")?;
/// let b = nl.add_input("b")?;
/// let y = nl.add_gate("y", GateKind::And, &[a, b])?;
/// nl.mark_output(y)?;
///
/// let locked = Sarlock::new(2).lock(&nl, &Key::from_u64(0b10, 2))?;
/// assert_eq!(locked.netlist.key_inputs().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use]
pub struct Sarlock {
    /// Key width; must not exceed the number of primary inputs.
    pub key_bits: usize,
    /// Indices (into the input list) of the inputs wired to the comparator.
    /// Defaults to the first `key_bits` inputs.
    pub compare_inputs: Option<Vec<usize>>,
    /// Index (into the output list) of the output to corrupt. Defaults to
    /// the last output outside the comparator's fanin.
    pub target_output: Option<usize>,
}

impl Sarlock {
    /// A SARLock scheme with the given key width and default port choices.
    pub fn new(key_bits: usize) -> Sarlock {
        Sarlock { key_bits, compare_inputs: None, target_output: None }
    }

    /// Overrides the comparator inputs (indices into the input list).
    pub fn with_compare_inputs(mut self, compare_inputs: Vec<usize>) -> Sarlock {
        self.compare_inputs = Some(compare_inputs);
        self
    }
}

impl Default for Sarlock {
    /// A 4-bit key on the first four inputs.
    fn default() -> Sarlock {
        Sarlock::new(4)
    }
}

impl LockScheme for Sarlock {
    fn name(&self) -> &str {
        "sarlock"
    }

    fn key_len(&self, _netlist: &Netlist) -> usize {
        self.key_bits
    }

    fn lock(&self, netlist: &Netlist, key: &Key) -> Result<LockedCircuit, LockError> {
        require_key_width(self.key_bits, key)?;
        let kw = self.key_bits;
        if kw > netlist.inputs().len() {
            return Err(LockError::KeyTooWide {
                requested: kw,
                available: netlist.inputs().len(),
            });
        }
        let compare: Vec<usize> = match &self.compare_inputs {
            Some(list) => {
                if list.len() != kw || list.iter().any(|&i| i >= netlist.inputs().len()) {
                    return Err(LockError::KeyTooWide {
                        requested: list.len(),
                        available: netlist.inputs().len(),
                    });
                }
                list.clone()
            }
            None => (0..kw).collect(),
        };
        let signals: Vec<NodeId> = compare.iter().map(|&i| netlist.inputs()[i]).collect();
        lock_sarlock_on_signals(netlist, &signals, key, self.target_output)
    }
}

/// Locks `netlist` with a SARLock-style point function whose comparator
/// reads *arbitrary nets* — internal signals included.
///
/// This is the defense direction the paper's conclusion calls for: when
/// the comparator observes internal nets instead of primary inputs,
/// pinning `N` input ports no longer bisects the comparator's domain, so
/// input-space splitting loses its `2^N` leverage (measured by the
/// `defense_probe` benchmark scenario).
///
/// # Errors
///
/// - [`LockError::AlreadyLocked`] if the netlist already has key inputs.
/// - [`LockError::KeyTooWide`] if the key width disagrees with the signal
///   count.
/// - [`LockError::TooSmall`] for zero-width keys, missing outputs, invalid
///   signal ids, or when every output lies in the fanout cone of a
///   comparator signal (which would create a combinational cycle).
pub fn lock_sarlock_on_signals(
    netlist: &Netlist,
    signals: &[NodeId],
    key: &Key,
    target_output: Option<usize>,
) -> Result<LockedCircuit, LockError> {
    require_unlocked(netlist)?;
    let kw = signals.len();
    if key.len() != kw {
        return Err(LockError::KeyTooWide { requested: key.len(), available: kw });
    }
    if kw == 0 {
        return Err(LockError::TooSmall { what: "a non-zero key width" });
    }
    if netlist.outputs().is_empty() {
        return Err(LockError::TooSmall { what: "at least one output" });
    }
    for &s in signals {
        if s.index() >= netlist.num_nodes() {
            return Err(LockError::Netlist(polykey_netlist::NetlistError::InvalidNode(
                s.index() as u32,
            )));
        }
    }
    // The flip XOR is inserted after the target output; the comparator
    // signals must not read that output, or splicing would form a cycle.
    let target_output = match target_output {
        Some(t) if t >= netlist.outputs().len() => {
            return Err(LockError::TooSmall { what: "a valid target output index" });
        }
        Some(t) => t,
        None => {
            // Pick the last output whose fanout cone contains no signal.
            let safe = netlist.outputs().iter().enumerate().rev().find(|(_, &o)| {
                let cone = polykey_netlist::analysis::transitive_fanout(netlist, &[o]);
                signals.iter().all(|s| !cone[s.index()])
            });
            match safe {
                Some((t, _)) => t,
                None => {
                    return Err(LockError::TooSmall {
                        what: "an output outside the comparator signals' fanin",
                    })
                }
            }
        }
    };
    {
        let out_node = netlist.outputs()[target_output];
        let cone = polykey_netlist::analysis::transitive_fanout(netlist, &[out_node]);
        if signals.iter().any(|s| cone[s.index()]) {
            return Err(LockError::TooSmall {
                what: "comparator signals outside the corrupted output's fanout",
            });
        }
    }

    let mut locked = netlist.clone();
    locked.set_name(format!("{}_sarlock{}", netlist.name(), kw));

    // Key inputs.
    let keys: Vec<NodeId> = (0..kw)
        .map(|i| {
            let name = key_name(&locked, i);
            locked.add_key_input(name)
        })
        .collect::<Result<_, _>>()?;

    // match = AND_i Xnor(s_i, k_i): true when the observed signals equal
    // the applied key.
    let mut eq_bits = Vec::with_capacity(kw);
    for (j, &sig) in signals.iter().enumerate() {
        let eq = locked.add_gate(format!("sar_eq{j}"), GateKind::Xnor, &[sig, keys[j]])?;
        eq_bits.push(eq);
    }
    let matches = locked.add_gate("sar_match", GateKind::And, &eq_bits)?;

    // wrong = OR_i (k_i ⊕ k*_i): true when the applied key is not correct.
    // The correct key is hardwired via per-bit polarity: a comparator bit
    // that is true when k_i ≠ k*_i, built without constant nodes so the
    // masked structure stays gate-only, as in the published netlists.
    let mut diff_bits = Vec::with_capacity(kw);
    for (j, &k) in keys.iter().enumerate() {
        let diff = if key.bit(j) {
            // k*_j = 1: differs when k_j = 0.
            locked.add_gate(format!("sar_diff{j}"), GateKind::Not, &[k])?
        } else {
            // k*_j = 0: differs when k_j = 1.
            locked.add_gate(format!("sar_diff{j}"), GateKind::Buf, &[k])?
        };
        diff_bits.push(diff);
    }
    let wrong = locked.add_gate("sar_wrong", GateKind::Or, &diff_bits)?;

    // flip = match ∧ wrong, XOR-ed into the target output.
    let flip = locked.add_gate("sar_flip", GateKind::And, &[matches, wrong])?;
    let out_node = locked.outputs()[target_output];
    locked.insert_after(out_node, "sar_out", GateKind::Xor, &[flip])?;

    Ok(LockedCircuit { netlist: locked, key: key.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_netlist::{bits_of, Simulator};
    use rand::SeedableRng;

    /// 3-input sample circuit: y = majority(a, b, c).
    fn majority3() -> Netlist {
        let mut nl = Netlist::new("maj3");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let ab = nl.add_gate("ab", GateKind::And, &[a, b]).unwrap();
        let ac = nl.add_gate("ac", GateKind::And, &[a, c]).unwrap();
        let bc = nl.add_gate("bc", GateKind::And, &[b, c]).unwrap();
        let y = nl.add_gate("y", GateKind::Or, &[ab, ac, bc]).unwrap();
        nl.mark_output(y).unwrap();
        nl
    }

    /// Builds the error-distribution table of Fig. 1(a): `table[input][key]`
    /// is true when the locked circuit errs.
    fn error_table(nl: &Netlist, locked: &LockedCircuit) -> Vec<Vec<bool>> {
        let ni = nl.inputs().len();
        let kw = locked.netlist.key_inputs().len();
        let mut orig = Simulator::new(nl).unwrap();
        let mut lsim = Simulator::new(&locked.netlist).unwrap();
        (0..1u64 << ni)
            .map(|i| {
                let ibits = bits_of(i, ni);
                let want = orig.eval(&ibits, &[]);
                (0..1u64 << kw).map(|k| lsim.eval(&ibits, &bits_of(k, kw)) != want).collect()
            })
            .collect()
    }

    #[test]
    fn fig1a_error_profile() {
        // |I| = |K| = 3, correct key 101 (bit0-first: true, false, true).
        let nl = majority3();
        let key = Key::new(vec![true, false, true]);
        let locked = Sarlock::new(3).lock(&nl, &key).unwrap();
        let table = error_table(&nl, &locked);
        let k_star = key.to_u64().unwrap();
        for (i, row) in table.iter().enumerate() {
            for (k, &errs) in row.iter().enumerate() {
                let expected = i as u64 == k as u64 && k as u64 != k_star;
                assert_eq!(errs, expected, "error profile at input {i:03b}, key {k:03b}");
            }
        }
    }

    #[test]
    fn correct_key_unlocks() {
        let nl = majority3();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let locked = Sarlock::new(3).lock_random(&nl, &mut rng).unwrap();
        let mut orig = Simulator::new(&nl).unwrap();
        let mut lsim = Simulator::new(&locked.netlist).unwrap();
        for v in 0..8u64 {
            let bits = bits_of(v, 3);
            assert_eq!(lsim.eval(&bits, locked.key.bits()), orig.eval(&bits, &[]));
        }
    }

    #[test]
    fn every_wrong_key_errs_exactly_once() {
        let nl = majority3();
        let key = Key::new(vec![false, true, false]);
        let locked = Sarlock::new(3).lock(&nl, &key).unwrap();
        let table = error_table(&nl, &locked);
        let k_star = key.to_u64().unwrap() as usize;
        for k in 0..8usize {
            let errors: usize = table.iter().filter(|row| row[k]).count();
            if k == k_star {
                assert_eq!(errors, 0, "correct key must never err");
            } else {
                assert_eq!(errors, 1, "wrong key {k:03b} must err exactly once");
            }
        }
    }

    #[test]
    fn key_wider_than_inputs_rejected() {
        let nl = majority3();
        assert!(matches!(
            Sarlock::new(5).lock(&nl, &Key::from_u64(0, 5)),
            Err(LockError::KeyTooWide { requested: 5, available: 3 })
        ));
    }

    #[test]
    fn custom_compare_inputs() {
        let nl = majority3();
        let key = Key::from_u64(0b10, 2);
        // Compare on (c, a).
        let locked = Sarlock::new(2).with_compare_inputs(vec![2, 0]).lock(&nl, &key).unwrap();
        locked.netlist.validate().unwrap();
        // Correct key still unlocks.
        let mut orig = Simulator::new(&nl).unwrap();
        let mut lsim = Simulator::new(&locked.netlist).unwrap();
        for v in 0..8u64 {
            let bits = bits_of(v, 3);
            assert_eq!(lsim.eval(&bits, locked.key.bits()), orig.eval(&bits, &[]));
        }
    }

    #[test]
    fn zero_width_key_rejected() {
        let nl = majority3();
        let key = Key::default();
        assert!(matches!(Sarlock::new(0).lock(&nl, &key), Err(LockError::TooSmall { .. })));
    }

    #[test]
    fn structure_is_valid_and_sized() {
        let nl = majority3();
        let key = Key::from_u64(0b011, 3);
        let locked = Sarlock::new(3).lock(&nl, &key).unwrap();
        locked.netlist.validate().unwrap();
        // 3 Xnor + 3 diff + match + wrong + flip + output Xor = 10 extra.
        assert_eq!(locked.netlist.num_gates(), nl.num_gates() + 10);
        assert_eq!(locked.netlist.outputs().len(), nl.outputs().len());
    }
}

#[cfg(test)]
mod internal_signal_tests {
    use super::*;
    use polykey_netlist::{bits_of, Simulator};

    /// Two-output circuit with internal structure to tap.
    fn sample() -> Netlist {
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let d = nl.add_input("d").unwrap();
        let g1 = nl.add_gate("g1", GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Xor, &[c, d]).unwrap();
        let g3 = nl.add_gate("g3", GateKind::Or, &[g1, g2]).unwrap();
        let g4 = nl.add_gate("g4", GateKind::Nand, &[g1, g2]).unwrap();
        nl.mark_output(g3).unwrap();
        nl.mark_output(g4).unwrap();
        nl
    }

    #[test]
    fn internal_comparator_unlocks_with_correct_key() {
        let nl = sample();
        let g1 = nl.find("g1").unwrap();
        let g2 = nl.find("g2").unwrap();
        let key = Key::from_u64(0b10, 2);
        let locked = lock_sarlock_on_signals(&nl, &[g1, g2], &key, None).unwrap();
        locked.netlist.validate().unwrap();
        let mut orig = Simulator::new(&nl).unwrap();
        let mut lsim = Simulator::new(&locked.netlist).unwrap();
        for v in 0..16u64 {
            let bits = bits_of(v, 4);
            assert_eq!(lsim.eval(&bits, key.bits()), orig.eval(&bits, &[]), "input {v:04b}");
        }
    }

    #[test]
    fn internal_comparator_corrupts_some_wrong_key() {
        let nl = sample();
        let g1 = nl.find("g1").unwrap();
        let g2 = nl.find("g2").unwrap();
        let key = Key::from_u64(0b00, 2);
        let locked = lock_sarlock_on_signals(&nl, &[g1, g2], &key, None).unwrap();
        let mut orig = Simulator::new(&nl).unwrap();
        let mut lsim = Simulator::new(&locked.netlist).unwrap();
        // The wrong key (1,1) flips the output whenever (g1,g2) = (1,1).
        let wrong = [true, true];
        let corrupts = (0..16u64).any(|v| {
            let bits = bits_of(v, 4);
            lsim.eval(&bits, &wrong) != orig.eval(&bits, &[])
        });
        assert!(corrupts);
    }

    #[test]
    fn cycle_risk_rejected() {
        // Tapping a signal downstream of every output is impossible here
        // (outputs are sinks), but tapping the *output node itself* while
        // targeting it must be rejected.
        let nl = sample();
        let g3 = nl.find("g3").unwrap();
        let key = Key::from_u64(0, 1);
        let err = lock_sarlock_on_signals(&nl, &[g3], &key, Some(0)).unwrap_err();
        assert!(matches!(err, LockError::TooSmall { .. }));
        // Without a forced target the locker picks the other output.
        let locked = lock_sarlock_on_signals(&nl, &[g3], &key, None).unwrap();
        locked.netlist.validate().unwrap();
    }

    #[test]
    fn key_width_must_match_signals() {
        let nl = sample();
        let g1 = nl.find("g1").unwrap();
        let key = Key::from_u64(0, 2);
        assert!(matches!(
            lock_sarlock_on_signals(&nl, &[g1], &key, None),
            Err(LockError::KeyTooWide { .. })
        ));
    }
}
