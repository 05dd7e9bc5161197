//! Structural analysis: cones, levels, and netlist statistics.
//!
//! The multi-key attack's split-port selection (fan-out cone analysis, §4 of
//! the paper) is built from these primitives: it ranks primary inputs by how
//! many *key-controlled* gates lie in their transitive fanout.

use std::collections::HashMap;

use crate::gate::GateKind;
use crate::netlist::{Netlist, NodeId};

/// Computes the transitive-fanout membership mask of a seed set: entry `i`
/// is true iff node `i` is one of the seeds or reachable from them through
/// fanout edges.
///
/// One forward pass over the cached topological order marks every node
/// with a marked fanin.
pub fn transitive_fanout(netlist: &Netlist, seeds: &[NodeId]) -> Vec<bool> {
    let mut mask = vec![false; netlist.num_nodes()];
    for &s in seeds {
        mask[s.index()] = true;
    }
    for &id in netlist.topological_order() {
        if !mask[id.index()] && netlist.node(id).fanins().iter().any(|f| mask[f.index()]) {
            mask[id.index()] = true;
        }
    }
    mask
}

/// Computes the transitive-fanin membership mask of a seed set (the cone of
/// influence): entry `i` is true iff node `i` is a seed or feeds one.
pub fn transitive_fanin(netlist: &Netlist, seeds: &[NodeId]) -> Vec<bool> {
    let mut mask = vec![false; netlist.num_nodes()];
    let mut stack: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if !mask[s.index()] {
            mask[s.index()] = true;
            stack.push(s);
        }
    }
    while let Some(id) = stack.pop() {
        for &f in netlist.node(id).fanins() {
            if !mask[f.index()] {
                mask[f.index()] = true;
                stack.push(f);
            }
        }
    }
    mask
}

/// The mask of key-controlled nodes: everything in the transitive fanout of
/// any key input.
pub fn key_controlled_mask(netlist: &Netlist) -> Vec<bool> {
    transitive_fanout(netlist, netlist.key_inputs())
}

/// The positions, in declaration order, of the outputs in the transitive
/// fanout of the key inputs. Every other output computes the same function
/// under every key.
pub fn key_reachable_outputs(netlist: &Netlist) -> Vec<usize> {
    let key_mask = key_controlled_mask(netlist);
    (0..netlist.outputs().len()).filter(|&i| key_mask[netlist.outputs()[i].index()]).collect()
}

/// For every primary input, the number of key-controlled *gates* in its
/// transitive fanout cone — the ranking metric of the paper's fan-out cone
/// analysis. Returns `(input, count)` pairs in input declaration order.
///
/// One forward pass in topological order gives every node the set of
/// primary inputs that reach it (a bitset, 64 inputs per word); each
/// key-controlled gate then counts once for every input in its set.
pub fn key_cone_influence(netlist: &Netlist) -> Vec<(NodeId, usize)> {
    let inputs = netlist.inputs();
    let words = inputs.len().div_ceil(64);
    let mut reach = vec![0u64; netlist.num_nodes() * words];
    for (i, pi) in inputs.iter().enumerate() {
        reach[pi.index() * words + i / 64] |= 1 << (i % 64);
    }
    let key_mask = key_controlled_mask(netlist);
    let mut counts = vec![0usize; inputs.len()];
    for &id in netlist.topological_order() {
        let node = netlist.node(id);
        let at = id.index() * words;
        for fanin in node.fanins() {
            let from = fanin.index() * words;
            for w in 0..words {
                let word = reach[from + w];
                reach[at + w] |= word;
            }
        }
        if key_mask[id.index()] && !node.kind().is_input() {
            for (w, &word) in reach[at..at + words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    counts[w * 64 + bits.trailing_zeros() as usize] += 1;
                    bits &= bits - 1;
                }
            }
        }
    }
    inputs.iter().copied().zip(counts).collect()
}

/// Computes each node's logic level: inputs and constants at level 0, every
/// gate one above its deepest fanin.
pub fn levels(netlist: &Netlist) -> Vec<u32> {
    let mut level = vec![0u32; netlist.num_nodes()];
    for &id in netlist.topological_order() {
        let node = netlist.node(id);
        if !node.fanins().is_empty() {
            level[id.index()] =
                1 + node.fanins().iter().map(|f| level[f.index()]).max().expect("non-empty");
        }
    }
    level
}

/// The combinational depth: the maximum level over all outputs.
pub fn depth(netlist: &Netlist) -> u32 {
    let level = levels(netlist);
    netlist.outputs().iter().map(|o| level[o.index()]).max().unwrap_or(0)
}

/// Summary statistics of a netlist.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetlistStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of key inputs.
    pub key_inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of logic gates (excluding inputs and constants).
    pub gates: usize,
    /// Combinational depth.
    pub depth: u32,
    /// Gate counts per kind (display name → count).
    pub gates_by_kind: HashMap<&'static str, usize>,
}

impl NetlistStats {
    /// Gathers statistics for a netlist.
    pub fn of(netlist: &Netlist) -> NetlistStats {
        let mut gates_by_kind: HashMap<&'static str, usize> = HashMap::new();
        for id in netlist.node_ids() {
            let kind = netlist.node(id).kind();
            if let Some(name) = kind.bench_name() {
                if !matches!(kind, GateKind::Const(_)) {
                    *gates_by_kind.entry(name).or_insert(0) += 1;
                }
            }
        }
        NetlistStats {
            inputs: netlist.inputs().len(),
            key_inputs: netlist.key_inputs().len(),
            outputs: netlist.outputs().len(),
            gates: netlist.num_gates(),
            depth: depth(netlist),
            gates_by_kind,
        }
    }
}

impl std::fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} PI, {} key, {} PO, {} gates, depth {}",
            self.inputs, self.key_inputs, self.outputs, self.gates, self.depth
        )?;
        let mut kinds: Vec<_> = self.gates_by_kind.iter().collect();
        kinds.sort();
        for (name, count) in kinds {
            write!(f, ", {name}:{count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::{NetlistError, Node};

    /// a ──┐
    ///     AND ── NOT ── out
    /// b ──┘
    /// k ──XOR(out of cone of a? no: XOR reads the AND)
    fn sample() -> (Netlist, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let k = nl.add_key_input("k").unwrap();
        let g = nl.add_gate("g", GateKind::And, &[a, b]).unwrap();
        let x = nl.add_gate("x", GateKind::Xor, &[g, k]).unwrap();
        let y = nl.add_gate("y", GateKind::Not, &[x]).unwrap();
        nl.mark_output(y).unwrap();
        (nl, a, b, k, g, y)
    }

    #[test]
    fn fanout_cone_membership() {
        let (nl, a, _b, _k, g, y) = sample();
        let mask = transitive_fanout(&nl, &[a]);
        assert!(mask[a.index()]);
        assert!(mask[g.index()]);
        assert!(mask[y.index()]);
        let x = nl.find("x").unwrap();
        assert!(mask[x.index()]);
        let b = nl.find("b").unwrap();
        assert!(!mask[b.index()], "sibling input not in cone");
    }

    #[test]
    fn fanin_cone_membership() {
        let (nl, a, b, k, _g, y) = sample();
        let mask = transitive_fanin(&nl, &[y]);
        for id in [a, b, k, y] {
            assert!(mask[id.index()]);
        }
        // A dangling node is not in the output cone.
        let mut nl2 = nl.clone();
        let dangling = nl2.add_gate("dang", GateKind::Not, &[a]).unwrap();
        let mask2 = transitive_fanin(&nl2, &[y]);
        assert!(!mask2[dangling.index()]);
    }

    #[test]
    fn key_mask_covers_downstream_only() {
        let (nl, a, _b, k, g, y) = sample();
        let mask = key_controlled_mask(&nl);
        assert!(mask[k.index()]);
        assert!(mask[y.index()]);
        let x = nl.find("x").unwrap();
        assert!(mask[x.index()]);
        assert!(!mask[g.index()], "AND is upstream of the key gate");
        assert!(!mask[a.index()]);
    }

    #[test]
    fn reachable_outputs_are_the_key_controlled_ones() {
        let (mut nl, a, b, _k, g, _y) = sample();
        assert_eq!(key_reachable_outputs(&nl), vec![0]);
        // Outputs declared after the key output: one key-free, one keyed.
        nl.mark_output(g).unwrap();
        let x = nl.find("x").unwrap();
        let free = nl.add_gate("free", GateKind::Or, &[a, b]).unwrap();
        nl.mark_output(free).unwrap();
        nl.mark_output(x).unwrap();
        assert_eq!(key_reachable_outputs(&nl), vec![0, 3]);
    }

    #[test]
    fn influence_counts_key_controlled_gates() {
        let (nl, a, b, _k, _g, _y) = sample();
        let influence = key_cone_influence(&nl);
        let by_id: HashMap<NodeId, usize> = influence.into_iter().collect();
        // Both a and b reach x and y (2 key-controlled gates each).
        assert_eq!(by_id[&a], 2);
        assert_eq!(by_id[&b], 2);
    }

    /// The per-input definition the one-pass ranking must match: a fresh
    /// fanout cone per input, intersected with the key-controlled mask.
    fn key_cone_influence_reference(netlist: &Netlist) -> Vec<(NodeId, usize)> {
        let key_mask = key_controlled_mask(netlist);
        netlist
            .inputs()
            .iter()
            .map(|&pi| {
                let cone = transitive_fanout(netlist, &[pi]);
                let count = netlist
                    .node_ids()
                    .filter(|&id| {
                        cone[id.index()]
                            && key_mask[id.index()]
                            && !netlist.node(id).kind().is_input()
                    })
                    .count();
                (pi, count)
            })
            .collect()
    }

    /// Builds a random netlist from `steps`: each adds a primary input, a
    /// key input, or a gate over earlier nodes, so inputs interleave with
    /// gates and node ids do not follow input order.
    fn random_netlist(steps: &[(u8, u16, u16, u16)]) -> Netlist {
        let mut nl = Netlist::new("rand");
        let mut pool = vec![nl.add_input("i").unwrap()];
        for (n, &(sel, x, y, z)) in steps.iter().enumerate() {
            let pick = |v: u16| pool[v as usize % pool.len()];
            let id = match sel % 8 {
                0 | 1 => nl.add_input(format!("i{n}")).unwrap(),
                2 => nl.add_key_input(format!("k{n}")).unwrap(),
                3 => nl.add_gate(format!("g{n}"), GateKind::Not, &[pick(x)]).unwrap(),
                4 => nl.add_gate(format!("g{n}"), GateKind::Xor, &[pick(x), pick(y)]).unwrap(),
                5 => nl
                    .add_gate(format!("g{n}"), GateKind::Mux, &[pick(x), pick(y), pick(z)])
                    .unwrap(),
                _ => nl
                    .add_gate(format!("g{n}"), GateKind::And, &[pick(x), pick(y), pick(z)])
                    .unwrap(),
            };
            pool.push(id);
        }
        nl.mark_output(*pool.last().unwrap()).unwrap();
        nl
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn one_pass_influence_matches_per_input_cones(
            steps in proptest::collection::vec(
                (0u8..8, 0u16..1024, 0u16..1024, 0u16..1024),
                0..400,
            )
        ) {
            // Up to ~100 primary inputs, so the bitsets span two words.
            let nl = random_netlist(&steps);
            proptest::prop_assert_eq!(
                key_cone_influence(&nl),
                key_cone_influence_reference(&nl)
            );
        }
    }

    /// Each node's distinct consumers, ascending: the fanout table the
    /// reference walks read instead of the cached one.
    fn fanout_adjacency(netlist: &Netlist) -> Vec<Vec<NodeId>> {
        let mut fanouts = vec![Vec::new(); netlist.num_nodes()];
        for id in netlist.node_ids() {
            for f in netlist.node(id).fanins() {
                fanouts[f.index()].push(id);
            }
        }
        for list in &mut fanouts {
            // Consumers arrive in id order, so repeats are adjacent.
            list.dedup();
        }
        fanouts
    }

    /// [`transitive_fanout`] by a depth-first walk of the fanout table,
    /// which needs no topological order.
    fn fanout_walk(netlist: &Netlist, seeds: &[NodeId]) -> Vec<bool> {
        let fanouts = fanout_adjacency(netlist);
        let mut mask = vec![false; netlist.num_nodes()];
        let mut stack: Vec<NodeId> = Vec::new();
        for &s in seeds {
            if !mask[s.index()] {
                mask[s.index()] = true;
                stack.push(s);
            }
        }
        while let Some(id) = stack.pop() {
            for &out in &fanouts[id.index()] {
                if !mask[out.index()] {
                    mask[out.index()] = true;
                    stack.push(out);
                }
            }
        }
        mask
    }

    /// The Kahn order the cached one replaced: a fresh `Vec<Vec<_>>` fanout
    /// table per call, consumers ascending and deduplicated, the ready
    /// stack popped from the end. `None` if the netlist has a cycle.
    fn topological_order_reference(netlist: &Netlist) -> Option<Vec<NodeId>> {
        let n = netlist.num_nodes();
        let mut indegree: Vec<u32> = netlist
            .node_ids()
            .map(|id| {
                let mut fanins = netlist.node(id).fanins().to_vec();
                fanins.sort_unstable();
                fanins.dedup();
                fanins.len() as u32
            })
            .collect();
        let fanouts = fanout_adjacency(netlist);
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<NodeId> =
            (0..n).filter(|&i| indegree[i] == 0).map(NodeId::from_index).collect();
        while let Some(id) = ready.pop() {
            order.push(id);
            for &out in &fanouts[id.index()] {
                indegree[out.index()] -= 1;
                if indegree[out.index()] == 0 {
                    ready.push(out);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// The cached order and the forward-pass fanout agree with the walks
    /// they replaced, from several seed sets.
    fn matches_reference_walks(
        nl: &Netlist,
        node: NodeId,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        proptest::prop_assert_eq!(
            Some(nl.topological_order().to_vec()),
            topological_order_reference(nl)
        );
        for seeds in [nl.key_inputs(), nl.inputs(), nl.outputs(), &[node]] {
            proptest::prop_assert_eq!(transitive_fanout(nl, seeds), fanout_walk(nl, seeds));
        }
        Ok(())
    }

    #[test]
    fn parsed_forward_references_and_set_node_refresh_the_order() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(m, b)\nm = NOT(n)\nn = OR(a, b)\n";
        let mut nl = crate::parse_bench(src.as_bytes(), "fwd").unwrap();
        let (a, b, n) = (nl.find("a").unwrap(), nl.find("b").unwrap(), nl.find("n").unwrap());
        assert_eq!(Some(nl.topological_order().to_vec()), topological_order_reference(&nl));
        assert_eq!(transitive_fanout(&nl, &[a]), fanout_walk(&nl, &[a]));
        // Rewire n to read only a: the cached order must not go stale.
        nl.set_node(n, GateKind::Xor, vec![a, a]);
        assert_eq!(Some(nl.topological_order().to_vec()), topological_order_reference(&nl));
        assert_eq!(transitive_fanout(&nl, &[b]), fanout_walk(&nl, &[b]));
    }

    /// Every node's kind and fanins, and the output list.
    fn shape(nl: &Netlist) -> (Vec<Node>, Vec<NodeId>) {
        (nl.node_ids().map(|id| nl.node(id).clone()).collect(), nl.outputs().to_vec())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn cached_order_and_forward_fanout_survive_edits(
            steps in proptest::collection::vec(
                (0u8..8, 0u16..1024, 0u16..1024, 0u16..1024),
                0..200,
            ),
            edits in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), 0u16..1024, 0u16..1024, 0u16..1024),
                0..12,
            )
        ) {
            let mut nl = random_netlist(&steps);
            let pick = |nl: &Netlist, v: u16| NodeId::from_index(v as usize % nl.num_nodes());
            matches_reference_walks(&nl, pick(&nl, 0))?;
            for (n, &(insert, x, y, z)) in edits.iter().enumerate() {
                // Either edit can close a loop: an inserted gate whose extra
                // fanin reads its target, or a fanin replaced by the gate or
                // one of its consumers. `unchecked` takes the edit unchecked.
                let (before, mut unchecked) = (shape(&nl), nl.clone());
                let result = if insert {
                    let (target, extra) = (pick(&nl, x), pick(&nl, y));
                    let name = format!("e{n}");
                    let new =
                        unchecked.add_gate(name.clone(), GateKind::Xor, &[target, extra]).unwrap();
                    for i in 0..new.index() {
                        let node = unchecked.node(NodeId::from_index(i)).clone();
                        if node.fanins().contains(&target) {
                            let fanins = node
                                .fanins()
                                .iter()
                                .map(|&f| if f == target { new } else { f })
                                .collect();
                            unchecked.set_node(NodeId::from_index(i), node.kind(), fanins);
                        }
                    }
                    nl.insert_after(target, name, GateKind::Xor, &[extra]).map(drop)
                } else {
                    let gate = pick(&nl, x);
                    let node = nl.node(gate);
                    if node.fanins().is_empty() {
                        continue;
                    }
                    let (old, new) = (node.fanins()[y as usize % node.fanins().len()], pick(&nl, z));
                    let fanins =
                        node.fanins().iter().map(|&f| if f == old { new } else { f }).collect();
                    unchecked.set_node(gate, node.kind(), fanins);
                    nl.replace_fanin(gate, old, new)
                };
                let closes_loop = topological_order_reference(&unchecked).is_none();
                match result {
                    Ok(()) => proptest::prop_assert!(!closes_loop, "edit {n} closed a loop"),
                    Err(e) => {
                        proptest::prop_assert!(matches!(e, NetlistError::Cycle { .. }), "{e}");
                        proptest::prop_assert!(closes_loop, "edit {n} refused: {e}");
                        proptest::prop_assert_eq!(&shape(&nl), &before);
                    }
                }
                matches_reference_walks(&nl, pick(&nl, z))?;
            }
        }
    }

    #[test]
    fn levels_and_depth() {
        let (nl, a, _b, _k, g, y) = sample();
        let lv = levels(&nl);
        assert_eq!(lv[a.index()], 0);
        assert_eq!(lv[g.index()], 1);
        assert_eq!(lv[y.index()], 3);
        assert_eq!(depth(&nl), 3);
    }

    #[test]
    fn stats_summary() {
        let (nl, ..) = sample();
        let stats = NetlistStats::of(&nl);
        assert_eq!(stats.inputs, 2);
        assert_eq!(stats.key_inputs, 1);
        assert_eq!(stats.gates, 3);
        assert_eq!(stats.depth, 3);
        assert_eq!(stats.gates_by_kind["AND"], 1);
        let display = stats.to_string();
        assert!(display.contains("2 PI"));
        assert!(display.contains("AND:1"));
    }
}
