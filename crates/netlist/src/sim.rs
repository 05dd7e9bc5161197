//! Bit-parallel netlist simulation.
//!
//! The simulator evaluates 64 input patterns per pass by packing one pattern
//! per bit of a `u64` word, which is how the attack's oracle and all
//! correctness checks evaluate circuits.

use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistError, NodeId};

/// A reusable simulator bound to one netlist.
///
/// Construction borrows the netlist's cached topological order; each evaluation
/// reuses an internal value buffer, so repeated calls do not allocate.
///
/// # Examples
///
/// ```
/// use polykey_netlist::{GateKind, Netlist, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("inv");
/// let a = nl.add_input("a")?;
/// let y = nl.add_gate("y", GateKind::Not, &[a])?;
/// nl.mark_output(y)?;
/// let mut sim = Simulator::new(&nl)?;
/// assert_eq!(sim.eval(&[false], &[]), vec![true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    order: &'a [NodeId],
    values: Vec<u64>,
    fanin_buf: Vec<u64>,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cycle`] for cyclic netlists.
    pub fn new(netlist: &'a Netlist) -> Result<Simulator<'a>, NetlistError> {
        let order = netlist.topological_order()?;
        Ok(Simulator {
            netlist,
            order,
            values: vec![0; netlist.num_nodes()],
            fanin_buf: Vec::with_capacity(8),
        })
    }

    /// The netlist this simulator is bound to.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Evaluates a single input pattern. Returns output values in output
    /// declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `keys` do not match the netlist's input and key
    /// port counts.
    pub fn eval(&mut self, inputs: &[bool], keys: &[bool]) -> Vec<bool> {
        let inputs_packed: Vec<u64> =
            inputs.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
        let keys_packed: Vec<u64> =
            keys.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
        self.eval_packed(&inputs_packed, &keys_packed).iter().map(|&w| w & 1 == 1).collect()
    }

    /// Evaluates 64 packed patterns at once: bit *i* of each word belongs to
    /// pattern *i*. Returns one word per output, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `keys` do not match the netlist's input and key
    /// port counts.
    pub fn eval_packed(&mut self, inputs: &[u64], keys: &[u64]) -> Vec<u64> {
        self.run_packed(inputs, keys);
        self.netlist.outputs().iter().map(|o| self.values[o.index()]).collect()
    }

    /// Like [`Simulator::eval_packed`] but exposes every node's value word,
    /// indexed by [`NodeId`]. Useful for error-distribution tables and
    /// internal-signal probing.
    pub fn node_values_packed(&mut self, inputs: &[u64], keys: &[u64]) -> &[u64] {
        self.run_packed(inputs, keys);
        &self.values
    }

    fn run_packed(&mut self, inputs: &[u64], keys: &[u64]) {
        let nl = self.netlist;
        assert_eq!(inputs.len(), nl.inputs().len(), "primary input width mismatch");
        assert_eq!(keys.len(), nl.key_inputs().len(), "key input width mismatch");
        for (i, &id) in nl.inputs().iter().enumerate() {
            self.values[id.index()] = inputs[i];
        }
        for (i, &id) in nl.key_inputs().iter().enumerate() {
            self.values[id.index()] = keys[i];
        }
        for &id in self.order {
            let node = nl.node(id);
            match node.kind() {
                GateKind::Input | GateKind::KeyInput => {}
                kind => {
                    self.fanin_buf.clear();
                    for f in node.fanins() {
                        self.fanin_buf.push(self.values[f.index()]);
                    }
                    self.values[id.index()] = kind.eval_packed(&self.fanin_buf);
                }
            }
        }
    }
}

/// Packs boolean patterns (up to 64) into per-port words for
/// [`Simulator::eval_packed`]: `patterns[p][i]` is port `i` of pattern `p`,
/// and bit `p` of word `i` in the result carries it.
pub fn pack_patterns(patterns: &[Vec<bool>], width: usize) -> Vec<u64> {
    assert!(patterns.len() <= 64, "at most 64 patterns per packed word");
    let mut words = vec![0u64; width];
    for (p, pattern) in patterns.iter().enumerate() {
        assert_eq!(pattern.len(), width, "pattern width mismatch");
        for (i, &b) in pattern.iter().enumerate() {
            if b {
                words[i] |= 1 << p;
            }
        }
    }
    words
}

/// Unpacks per-port words (as produced by [`Simulator::eval_packed`]) back
/// into per-pattern boolean rows — the inverse of [`pack_patterns`] for the
/// first `count` patterns: row `p` element `i` is bit `p` of word `i`.
///
/// # Panics
///
/// Panics if `count` exceeds the 64 patterns a packed word can carry.
pub fn unpack_patterns(words: &[u64], count: usize) -> Vec<Vec<bool>> {
    assert!(count <= 64, "at most 64 patterns per packed word");
    (0..count).map(|p| words.iter().map(|&w| w >> p & 1 == 1).collect()).collect()
}

/// Expands a little-endian bit pattern of `width` bits from an integer:
/// bit `i` of `value` becomes element `i`.
pub fn bits_of(value: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| value >> i & 1 == 1).collect()
}

/// Folds a boolean slice back into an integer (inverse of [`bits_of`]).
///
/// # Panics
///
/// Panics if `bits` has more than 64 elements.
pub fn bits_to_u64(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64);
    bits.iter().enumerate().fold(0, |acc, (i, &b)| acc | (u64::from(b) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::Netlist;

    fn full_adder() -> Netlist {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let cin = nl.add_input("cin").unwrap();
        let ab = nl.add_gate("ab", GateKind::Xor, &[a, b]).unwrap();
        let sum = nl.add_gate("sum", GateKind::Xor, &[ab, cin]).unwrap();
        let and1 = nl.add_gate("and1", GateKind::And, &[a, b]).unwrap();
        let and2 = nl.add_gate("and2", GateKind::And, &[ab, cin]).unwrap();
        let cout = nl.add_gate("cout", GateKind::Or, &[and1, and2]).unwrap();
        nl.mark_output(sum).unwrap();
        nl.mark_output(cout).unwrap();
        nl
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder();
        let mut sim = Simulator::new(&nl).unwrap();
        for pattern in 0..8u64 {
            let bits = bits_of(pattern, 3);
            let expected_sum = (pattern.count_ones() % 2) == 1;
            let expected_cout = pattern.count_ones() >= 2;
            let out = sim.eval(&bits, &[]);
            assert_eq!(out[0], expected_sum, "sum for {pattern:03b}");
            assert_eq!(out[1], expected_cout, "cout for {pattern:03b}");
        }
    }

    #[test]
    fn packed_agrees_with_scalar() {
        let nl = full_adder();
        let mut sim = Simulator::new(&nl).unwrap();
        // All 8 patterns in one packed evaluation.
        let patterns: Vec<Vec<bool>> = (0..8).map(|p| bits_of(p, 3)).collect();
        let packed_in = pack_patterns(&patterns, 3);
        let packed_out = sim.eval_packed(&packed_in, &[]);
        for (p, pattern) in patterns.iter().enumerate() {
            let scalar = sim.eval(pattern, &[]);
            for (o, &word) in packed_out.iter().enumerate() {
                assert_eq!(word >> p & 1 == 1, scalar[o], "pattern {p} output {o}");
            }
        }
    }

    #[test]
    fn unpack_inverts_pack() {
        let patterns: Vec<Vec<bool>> = (0..13).map(|p| bits_of(p * 5 % 32, 5)).collect();
        let words = pack_patterns(&patterns, 5);
        assert_eq!(unpack_patterns(&words, patterns.len()), patterns);
        // A shorter count unpacks a prefix.
        assert_eq!(unpack_patterns(&words, 3), patterns[..3].to_vec());
    }

    #[test]
    fn keys_are_separate_ports() {
        let mut nl = Netlist::new("locked_buf");
        let a = nl.add_input("a").unwrap();
        let k = nl.add_key_input("k").unwrap();
        let y = nl.add_gate("y", GateKind::Xor, &[a, k]).unwrap();
        nl.mark_output(y).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.eval(&[true], &[false]), vec![true]);
        assert_eq!(sim.eval(&[true], &[true]), vec![false]);
    }

    #[test]
    #[should_panic(expected = "primary input width mismatch")]
    fn wrong_input_width_panics() {
        let nl = full_adder();
        let mut sim = Simulator::new(&nl).unwrap();
        let _ = sim.eval(&[true, false], &[]);
    }

    #[test]
    fn node_values_exposed() {
        let nl = full_adder();
        let mut sim = Simulator::new(&nl).unwrap();
        let vals = sim.node_values_packed(&[u64::MAX, u64::MAX, 0], &[]);
        let ab = nl.find("ab").unwrap();
        assert_eq!(vals[ab.index()], 0, "1 xor 1 = 0");
    }

    #[test]
    fn bits_round_trip() {
        for v in [0u64, 1, 5, 0b1011, 63] {
            assert_eq!(bits_to_u64(&bits_of(v, 6)), v);
        }
        assert_eq!(bits_of(5, 4), vec![true, false, true, false]);
    }

    #[test]
    fn constants_simulate() {
        let mut nl = Netlist::new("c");
        let one = nl.add_const("one", true).unwrap();
        let zero = nl.add_const("zero", false).unwrap();
        let y = nl.add_gate("y", GateKind::And, &[one, zero]).unwrap();
        nl.mark_output(y).unwrap();
        nl.mark_output(one).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.eval(&[], &[]), vec![false, true]);
    }
}
