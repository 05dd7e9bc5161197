//! Netlist simulation: bit-parallel for many patterns, event-driven for
//! one pattern after another.
//!
//! [`Simulator::eval_packed`] evaluates 64 input patterns per pass by
//! packing one pattern per bit of a `u64` word; a simulated oracle's
//! batched answers and all correctness checks evaluate circuits this way.
//! [`Simulator::eval`] and [`Simulator::node_values`] evaluate one pattern
//! and keep every node's value: the next pattern re-evaluates only the
//! gates downstream of the inputs and keys it flips, level by level
//! (event-driven simulation, after Ulrich, CACM 1969). Consecutive DIPs of
//! an attack differ in a few inputs, so the oracle and the per-DIP
//! constants pay for the handful of nodes that change, not for the whole
//! circuit.

use crate::analysis::levels;
use crate::netlist::{Netlist, NetlistError, Node, NodeId};

/// A reusable simulator bound to one netlist.
///
/// Construction borrows the netlist's cached topological order and fan-out
/// lists; each evaluation reuses internal buffers, so repeated calls do not
/// allocate beyond the returned outputs.
///
/// Single patterns ([`Simulator::eval`]) are incremental: the simulator
/// keeps the last pattern's node values and re-evaluates only the fan-out
/// of nodes that change. A pattern whose events would cost more than a
/// full pass finishes as a full pass, so a run of unrelated patterns costs
/// about what full passes do. A packed evaluation overwrites the kept
/// values, and the next single pattern starts with a full pass.
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
/// // The next pattern flips `a`, so only `y` is re-evaluated.
/// let values = sim.node_values(&[true], &[]);
/// assert_eq!(values[a.index()], u64::MAX);
/// assert_eq!(values[y.index()], 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    order: &'a [NodeId],
    /// Node `i`'s distinct consumers are `consumers[start[i]..start[i + 1]]`.
    start: &'a [u32],
    consumers: &'a [NodeId],
    values: Vec<u64>,
    fanin_buf: Vec<u64>,
    /// True while `values` holds one pattern in every bit (the last
    /// single-pattern evaluation), so the next one can start from it.
    single: bool,
    /// The event queue, built on the first incremental evaluation.
    events: Option<Events>,
}

/// The levelised event queue of the single-pattern path.
#[derive(Debug)]
struct Events {
    /// Each node's logic level: sources at 0, a gate one above its deepest
    /// fanin, so a gate's consumers always sit at higher levels.
    level: Vec<u32>,
    /// The gates queued for re-evaluation, one bucket per level.
    buckets: Vec<Vec<NodeId>>,
    queued: Vec<bool>,
    /// How many gates one pattern may queue before it finishes as a full
    /// pass instead.
    budget: usize,
    /// The gates the current pattern has queued, and the lowest and
    /// highest levels they went to.
    count: usize,
    lowest: usize,
    highest: usize,
}

/// One event (queue, dequeue, evaluate, compare) costs about this many
/// gate evaluations of a full pass, so a pattern may queue at most
/// `1 / EVENT_COST` of the gates before a full pass is cheaper.
const EVENT_COST: usize = 2;

/// A pattern that flips more than `1 / FLIP_SHARE` of the ports (and more
/// than one) goes straight to a full pass: unrelated patterns flip about
/// half of them and would spend the budget only to fall back, while
/// consecutive DIPs flip one or two.
const FLIP_SHARE: usize = 8;

impl Events {
    fn new(netlist: &Netlist) -> Events {
        let level = levels(netlist);
        let depth = level.iter().copied().max().unwrap_or(0) as usize;
        let gates = level.iter().filter(|&&l| l > 0).count();
        Events {
            level,
            buckets: vec![Vec::new(); depth + 1],
            queued: vec![false; netlist.num_nodes()],
            // At least one gate, so that the smallest netlists take events
            // too.
            budget: (gates / EVENT_COST).max(1),
            count: 0,
            lowest: 0,
            highest: 0,
        }
    }

    /// Queues the gates of `consumers` that are not queued yet.
    fn schedule(&mut self, consumers: &[NodeId]) {
        for &c in consumers {
            if !self.queued[c.index()] {
                self.queued[c.index()] = true;
                let level = self.level[c.index()] as usize;
                self.buckets[level].push(c);
                self.lowest = self.lowest.min(level);
                self.highest = self.highest.max(level);
                self.count += 1;
            }
        }
    }

    /// Empties the queue.
    fn clear(&mut self) {
        for bucket in &mut self.buckets[self.lowest.min(self.highest)..=self.highest] {
            for id in bucket.drain(..) {
                self.queued[id.index()] = false;
            }
        }
    }
}

/// Evaluates one gate from its fanins' value words.
fn eval_gate(node: &Node, values: &[u64], fanin_buf: &mut Vec<u64>) -> u64 {
    fanin_buf.clear();
    fanin_buf.extend(node.fanins().iter().map(|f| values[f.index()]));
    node.kind().eval_packed(fanin_buf)
}

/// A pattern's value of one port, in every bit of a word.
fn broadcast(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

impl<'a> Simulator<'a> {
    /// Builds a simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// None: every netlist is acyclic, so every netlist can be simulated.
    pub fn new(netlist: &'a Netlist) -> Result<Simulator<'a>, NetlistError> {
        let order = netlist.topological_order();
        let (start, consumers) = netlist.fanouts();
        Ok(Simulator {
            netlist,
            order,
            start,
            consumers,
            values: vec![0; netlist.num_nodes()],
            fanin_buf: Vec::with_capacity(8),
            single: false,
            events: None,
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
        let netlist = self.netlist;
        let values = self.node_values(inputs, keys);
        netlist.outputs().iter().map(|o| values[o.index()] & 1 == 1).collect()
    }

    /// Evaluates a single input pattern, like [`Simulator::eval`], and
    /// returns every node's value word, indexed by [`NodeId`] (all ones for
    /// true, all zeros for false): the single-pattern twin of
    /// [`Simulator::node_values_packed`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `keys` do not match the netlist's input and key
    /// port counts.
    pub fn node_values(&mut self, inputs: &[bool], keys: &[bool]) -> &[u64] {
        let nl = self.netlist;
        assert_eq!(inputs.len(), nl.inputs().len(), "primary input width mismatch");
        assert_eq!(keys.len(), nl.key_inputs().len(), "key input width mismatch");
        let ports = nl.inputs().iter().zip(inputs).chain(nl.key_inputs().iter().zip(keys));
        if !self.single {
            for (&id, &bit) in ports {
                self.values[id.index()] = broadcast(bit);
            }
            self.full_pass();
            self.single = true;
            return &self.values;
        }
        let Simulator { netlist, start, consumers, values, fanin_buf, .. } = self;
        let fanouts =
            |id: NodeId| &consumers[start[id.index()] as usize..start[id.index() + 1] as usize];
        let events = self.events.get_or_insert_with(|| Events::new(netlist));
        events.count = 0;
        events.lowest = events.buckets.len();
        events.highest = 0;
        let flips =
            ports.clone().filter(|&(id, &bit)| values[id.index()] != broadcast(bit)).count();
        let flip_limit = ((inputs.len() + keys.len()) / FLIP_SHARE).max(1);
        let mut within_budget = flips <= flip_limit;
        for (&id, &bit) in ports {
            let word = broadcast(bit);
            if values[id.index()] != word {
                values[id.index()] = word;
                if within_budget {
                    events.schedule(fanouts(id));
                }
            }
        }
        // A gate's consumers sit at higher levels, so one sweep up the
        // levels evaluates each queued gate after all its queued fanins.
        let mut level = events.lowest;
        while within_budget && level <= events.highest {
            while let Some(id) = events.buckets[level].pop() {
                events.queued[id.index()] = false;
                let word = eval_gate(netlist.node(id), values, fanin_buf);
                if values[id.index()] != word {
                    values[id.index()] = word;
                    events.schedule(fanouts(id));
                    if events.count > events.budget {
                        within_budget = false;
                        break;
                    }
                }
            }
            level += 1;
        }
        if !within_budget {
            // Too many events: drop the queue and finish with a full pass.
            // The ports already hold the new pattern.
            events.clear();
            self.full_pass();
        }
        &self.values
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
        self.full_pass();
        self.single = false;
    }

    /// Evaluates every gate in topological order from the port values.
    fn full_pass(&mut self) {
        let nl = self.netlist;
        for &id in self.order {
            let node = nl.node(id);
            if !node.kind().is_input() {
                self.values[id.index()] = eval_gate(node, &self.values, &mut self.fanin_buf);
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
