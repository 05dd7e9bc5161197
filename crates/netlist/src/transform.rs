//! Netlist transformations: input cofactoring and logic simplification.
//!
//! Algorithm 1 of the paper pins `N` primary inputs to constants and then
//! re-synthesizes the netlist "to remove any redundant logic" before handing
//! it to the SAT attack. [`cofactor`] performs the pinning and
//! [`simplify`] performs the redundancy removal: constant folding,
//! double-negation and buffer collapsing, structural hashing (common
//! subexpression merging) and dead-logic elimination.
//! [`keep_outputs`] cuts a netlist down to the cone of chosen outputs, and
//! [`peel_key_free_layers`] down to the logic that can tell two keys apart.
//!
//! All transformations but these two preserve the netlist *interface*: the
//! primary-input, key-input and output lists keep their arity and order, so
//! oracles and attacks can treat original and transformed netlists
//! interchangeably. [`keep_outputs`] and [`peel_key_free_layers`] keep the
//! inputs and change the outputs.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::HashSet;
use std::sync::Arc;

use crate::analysis::{key_controlled_mask, transitive_fanin};
use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistError, NodeId};

/// What a node of the old netlist became in the rebuilt netlist.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Driver {
    Node(NodeId),
    Const(bool),
}

/// Size accounting for a simplification run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Nodes before (including inputs).
    pub nodes_before: usize,
    /// Nodes after.
    pub nodes_after: usize,
    /// Gates before (excluding inputs/constants).
    pub gates_before: usize,
    /// Gates after.
    pub gates_after: usize,
}

/// Pins primary inputs to constants without any other rewriting.
///
/// The pinned inputs stay in the input list (so the interface is unchanged)
/// but no longer drive anything; their consumers read a constant node
/// instead. Use [`simplify`] afterwards to sweep the resulting dead logic.
///
/// # Errors
///
/// - [`NetlistError::NotAnInput`] if a pinned node is not a primary input.
/// - [`NetlistError::InvalidNode`] if a pinned id is out of range.
/// - [`NetlistError::PinnedTwice`] if two pins name the same input.
pub fn cofactor(netlist: &Netlist, pins: &[(NodeId, bool)]) -> Result<Netlist, NetlistError> {
    let mut pinned = HashSet::with_capacity(pins.len());
    for &(id, _) in pins {
        if id.index() >= netlist.num_nodes() {
            return Err(NetlistError::InvalidNode(id.index() as u32));
        }
        if netlist.node(id).kind() != GateKind::Input {
            return Err(NetlistError::NotAnInput { name: netlist.node_name(id).to_string() });
        }
        if !pinned.insert(id) {
            return Err(NetlistError::PinnedTwice { name: netlist.node_name(id).to_string() });
        }
    }
    let name = format!("{}_cof", netlist.name());
    let (mut out, mut map) = derive(netlist, name, netlist.num_nodes() + pins.len(), true);
    // Create one constant node per pinned input and redirect reads to it.
    for &(id, value) in pins {
        map[id.index()] = Some(add_pin(netlist, &mut out, id, value));
    }
    copy_gates(netlist, &mut out, &mut map, |_| true)?;
    for &o in netlist.outputs() {
        let mapped = map[o.index()].expect("outputs are mapped");
        // A pinned input marked as output maps to its constant node, which
        // may coincide with another output's driver only via distinct nodes,
        // so marking cannot collide here.
        out.mark_output(mapped)?;
    }
    Ok(out)
}

/// Rewrites the netlist into an equivalent, usually smaller one:
/// constant folding, redundant-fanin removal, double-negation/buffer
/// collapsing, structural hashing, and dead-logic elimination.
///
/// The interface (inputs, key inputs, outputs: count and order) is
/// preserved. Output nodes keep their original names where possible.
pub fn simplify(netlist: &Netlist) -> (Netlist, SimplifyStats) {
    let needed = transitive_fanin(netlist, netlist.outputs());
    let name = format!("{}_simp", netlist.name());
    let (out, inputs) = derive(netlist, name, netlist.num_nodes(), true);
    let mut map: Vec<Option<Driver>> =
        inputs.into_iter().map(|m| m.map(Driver::Node)).collect();
    let mut rb = Rebuilder { out, strash: HashMap::with_capacity(netlist.num_nodes()) };

    let mut fanins: Vec<Driver> = Vec::new();
    for &id in netlist.topological_order() {
        let node = netlist.node(id);
        if node.kind().is_input() {
            continue;
        }
        if !needed[id.index()] {
            continue; // dead logic: don't rebuild
        }
        fanins.clear();
        fanins.extend(node.fanins().iter().map(|f| map[f.index()].expect("topo order")));
        let driver = rb.build(node.kind(), &fanins, netlist.shared_name(id));
        map[id.index()] = Some(driver);
    }

    // Materialize outputs, preserving arity/order and names best-effort.
    for &o in netlist.outputs() {
        let name = netlist.shared_name(o);
        let driver = map[o.index()].expect("output cone was rebuilt");
        let node = match driver {
            Driver::Const(v) => push_fresh(&mut rb.out, name, GateKind::Const(v), Vec::new()),
            // Two outputs collapsed onto one node: keep both ports by
            // inserting an explicit buffer for the second.
            Driver::Node(n) if rb.out.outputs().contains(&n) => {
                push_fresh(&mut rb.out, name, GateKind::Buf, vec![n])
            }
            Driver::Node(n) => n,
        };
        rb.out.mark_output(node).expect("each output node is new or unmarked");
    }

    // Folding can strand nodes that were live in the *input* cone (e.g. the
    // Not in And(a, ¬a) → 0); sweep them with a final dead-logic prune.
    let all: Vec<usize> = (0..rb.out.outputs().len()).collect();
    let pruned = keep_outputs(&rb.out, &all).expect("the positions are distinct");
    let stats = SimplifyStats {
        nodes_before: netlist.num_nodes(),
        nodes_after: pruned.num_nodes(),
        gates_before: netlist.num_gates(),
        gates_after: pruned.num_gates(),
    };
    (pruned, stats)
}

/// Rebuilds a netlist with only the outputs at `positions`, in that order,
/// and the gates in their transitive fanin, in the original topological
/// order. Every primary and key input stays, in declaration order, so
/// input patterns and keys of the original apply unchanged; nothing is
/// rewritten. With [`key_reachable_outputs`](crate::analysis::key_reachable_outputs)
/// as `positions` this is the key's cone of influence.
///
/// # Errors
///
/// Returns [`NetlistError::DuplicateName`] if a position repeats.
///
/// # Panics
///
/// Panics if a position is not below the output count.
pub fn keep_outputs(netlist: &Netlist, positions: &[usize]) -> Result<Netlist, NetlistError> {
    let kept: Vec<NodeId> = positions.iter().map(|&i| netlist.outputs()[i]).collect();
    keep_nodes(netlist, &kept)
}

/// Cuts `netlist` down to the logic that can tell two keys apart on its
/// outputs.
///
/// Each output is walked down through BUF and NOT gates, and through XOR
/// and XNOR gates with exactly one key-controlled fan-in (into that
/// fan-in), to the first node that is neither: its *root*. An output whose
/// walk crosses no XOR or XNOR gate is its own root. Over two copies
/// that share their inputs, the key-free operands of each peeled gate are
/// equal on both sides, so an output differs between two keys exactly
/// when its root does: `(g ⊕ f(K1) ⊕ c) ⊕ (g ⊕ f(K2) ⊕ c) = f(K1) ⊕ f(K2)`.
///
/// The result has the distinct roots as its outputs, in the order of the
/// outputs they peel from, and their fan-in, in the original topological
/// order; every primary and key input stays, in declaration order, as in
/// [`keep_outputs`]. When no output peels, `netlist` itself is returned.
pub fn peel_key_free_layers(netlist: &Netlist) -> Cow<'_, Netlist> {
    let key_mask = key_controlled_mask(netlist);
    let root = |output: NodeId| {
        let (mut id, mut crossed_parity) = (output, false);
        loop {
            let node = netlist.node(id);
            id = match node.kind() {
                GateKind::Buf | GateKind::Not => node.fanins()[0],
                GateKind::Xor | GateKind::Xnor => {
                    let mut keyed = node.fanins().iter().filter(|f| key_mask[f.index()]);
                    match (keyed.next(), keyed.next()) {
                        (Some(&f), None) => {
                            crossed_parity = true;
                            f
                        }
                        _ => break,
                    }
                }
                _ => break,
            };
        }
        // BUF and NOT gates alone cost a miter nothing (their encodings
        // alias their fan-in), so they are not worth a rebuild.
        if crossed_parity {
            id
        } else {
            output
        }
    };
    let mut roots: Vec<NodeId> = Vec::with_capacity(netlist.outputs().len());
    for &o in netlist.outputs() {
        let r = root(o);
        if !roots.contains(&r) {
            roots.push(r);
        }
    }
    if roots == netlist.outputs() {
        return Cow::Borrowed(netlist);
    }
    Cow::Owned(keep_nodes(netlist, &roots).expect("the roots are distinct"))
}

/// Rebuilds `netlist` with the distinct `nodes` as its outputs, in that
/// order, the gates in their transitive fanin, and every input.
fn keep_nodes(netlist: &Netlist, nodes: &[NodeId]) -> Result<Netlist, NetlistError> {
    let needed = transitive_fanin(netlist, nodes);
    // An upper bound: the inputs plus every node of the cone.
    let capacity = netlist.inputs().len()
        + netlist.key_inputs().len()
        + needed.iter().filter(|&&n| n).count();
    let (mut out, mut map) = derive(netlist, netlist.name().to_string(), capacity, true);
    copy_gates(netlist, &mut out, &mut map, |id| needed[id.index()])?;
    for o in nodes {
        out.mark_output(map[o.index()].expect("outputs are needed"))?;
    }
    Ok(out)
}

/// Hardwires every key input to the given constant value, producing a
/// *keyless* netlist (the "unlocked" circuit obtained by applying a key).
///
/// Unlike [`cofactor`], the pinned ports are removed from the interface:
/// the result has no key inputs and can be compared directly against an
/// original, never-locked design. Combine with [`simplify`] to sweep the
/// key logic away.
///
/// # Errors
///
/// [`NetlistError::BadArity`] if `values` does not match the key count.
pub fn pin_keys(netlist: &Netlist, values: &[bool]) -> Result<Netlist, NetlistError> {
    if values.len() != netlist.key_inputs().len() {
        return Err(NetlistError::BadArity {
            gate: "<key vector>".into(),
            kind: GateKind::KeyInput,
            expected: netlist.key_inputs().len(),
            got: values.len(),
        });
    }
    let name = format!("{}_keyed", netlist.name());
    let (mut out, mut map) = derive(netlist, name, netlist.num_nodes(), false);
    for (&ki, &value) in netlist.key_inputs().iter().zip(values) {
        map[ki.index()] = Some(add_pin(netlist, &mut out, ki, value));
    }
    copy_gates(netlist, &mut out, &mut map, |_| true)?;
    for &o in netlist.outputs() {
        out.mark_output(map[o.index()].expect("outputs are mapped"))?;
    }
    Ok(out)
}

/// Starts a netlist derived from `netlist`, with room for `nodes` nodes:
/// its primary inputs, then (if `keys`) its key inputs, sharing their
/// names. Returns it with the map from old node ids to new ones, filled
/// for the copied inputs.
fn derive(
    netlist: &Netlist,
    name: String,
    nodes: usize,
    keys: bool,
) -> (Netlist, Vec<Option<NodeId>>) {
    let mut out = Netlist::with_capacity(name, nodes);
    let mut map: Vec<Option<NodeId>> = vec![None; netlist.num_nodes()];
    let key_inputs = if keys { netlist.key_inputs() } else { &[] };
    for &pi in netlist.inputs().iter().chain(key_inputs) {
        let kind = netlist.node(pi).kind();
        let name = Arc::clone(netlist.shared_name(pi));
        map[pi.index()] = Some(out.push_node(name, kind, Vec::new()).expect("unique names"));
    }
    (out, map)
}

/// Adds to `out` the constant node that pinned port `id` of `netlist` is
/// read through: named `<port>$pin`, or `<port>$pin$2`, `$3`, … if that
/// name is taken in `netlist` or `out`. It must be free in both, since the
/// gates of `netlist` are copied into `out` afterwards under their names.
fn add_pin(netlist: &Netlist, out: &mut Netlist, id: NodeId, value: bool) -> NodeId {
    let base = format!("{}$pin", netlist.node_name(id)).into();
    let name = fresh_or(&base, |n| netlist.find(n).is_some() || out.find(n).is_some());
    out.push_node(name, GateKind::Const(value), Vec::new()).expect("a free name")
}

/// Copies every gate and constant of `netlist` that `keep` accepts into
/// `out`, in topological order, reading fanins through `map` and sharing
/// names.
fn copy_gates(
    netlist: &Netlist,
    out: &mut Netlist,
    map: &mut [Option<NodeId>],
    keep: impl Fn(NodeId) -> bool,
) -> Result<(), NetlistError> {
    for &id in netlist.topological_order() {
        let node = netlist.node(id);
        if node.kind().is_input() || !keep(id) {
            continue;
        }
        let fanins =
            node.fanins().iter().map(|f| map[f.index()].expect("topo order")).collect();
        let name = Arc::clone(netlist.shared_name(id));
        map[id.index()] = Some(out.push_node(name, node.kind(), fanins)?);
    }
    Ok(())
}

/// Returns `base` if `taken` does not hold for it, otherwise the first of
/// `base$2`, `base$3`, … for which it does not.
fn fresh_or(base: &Arc<str>, taken: impl Fn(&str) -> bool) -> Arc<str> {
    if !taken(base) {
        return Arc::clone(base);
    }
    (2..).map(|i| format!("{base}${i}")).find(|c| !taken(c)).expect("endless candidates").into()
}

/// Adds a node to `nl` named `name_hint`, or a fresh variant of it.
fn push_fresh(
    nl: &mut Netlist,
    name_hint: &Arc<str>,
    kind: GateKind,
    fanins: Vec<NodeId>,
) -> NodeId {
    let name = fresh_or(name_hint, |n| nl.find(n).is_some());
    nl.push_node(name, kind, fanins).expect("a fresh name and a rebuilt gate's arity")
}

/// Incremental netlist rebuilder with folding and structural hashing.
struct Rebuilder {
    out: Netlist,
    strash: HashMap<(GateKind, Vec<NodeId>), NodeId>,
}

impl Rebuilder {
    /// True if node `a` in the rebuilt netlist is `Not(b)`.
    fn is_not_of(&self, a: NodeId, b: NodeId) -> bool {
        let n = self.out.node(a);
        n.kind() == GateKind::Not && n.fanins()[0] == b
    }

    /// True if `a` and `b` are structurally complementary.
    fn complementary(&self, a: NodeId, b: NodeId) -> bool {
        self.is_not_of(a, b) || self.is_not_of(b, a)
    }

    /// Creates (or reuses via structural hashing) a gate node.
    fn emit(
        &mut self,
        kind: GateKind,
        mut fanins: Vec<NodeId>,
        name_hint: &Arc<str>,
    ) -> Driver {
        if kind.is_symmetric() {
            fanins.sort_unstable();
        }
        match self.strash.entry((kind, fanins)) {
            Entry::Occupied(existing) => Driver::Node(*existing.get()),
            Entry::Vacant(slot) => {
                let id = push_fresh(&mut self.out, name_hint, kind, slot.key().1.clone());
                slot.insert(id);
                Driver::Node(id)
            }
        }
    }

    /// Builds `Not(d)` with folding (`Not(Const)`, `Not(Not(x))`).
    fn make_not(&mut self, d: Driver, name_hint: &Arc<str>) -> Driver {
        match d {
            Driver::Const(v) => Driver::Const(!v),
            Driver::Node(x) => {
                let n = self.out.node(x);
                if n.kind() == GateKind::Not {
                    Driver::Node(n.fanins()[0])
                } else {
                    self.emit(GateKind::Not, vec![x], name_hint)
                }
            }
        }
    }

    /// Folds and emits one gate of the old netlist.
    fn build(&mut self, kind: GateKind, fanins: &[Driver], name: &Arc<str>) -> Driver {
        match kind {
            GateKind::Input | GateKind::KeyInput => unreachable!("inputs handled by caller"),
            GateKind::Const(v) => Driver::Const(v),
            GateKind::Buf => fanins[0],
            GateKind::Not => self.make_not(fanins[0], name),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                self.build_and_or(kind, fanins, name)
            }
            GateKind::Xor | GateKind::Xnor => self.build_parity(kind, fanins, name),
            GateKind::Mux => self.build_mux(fanins, name),
        }
    }

    fn build_and_or(&mut self, kind: GateKind, fanins: &[Driver], name: &Arc<str>) -> Driver {
        let (is_and, inverting) = match kind {
            GateKind::And => (true, false),
            GateKind::Nand => (true, true),
            GateKind::Or => (false, false),
            GateKind::Nor => (false, true),
            _ => unreachable!(),
        };
        // For And: a false input dominates; true inputs are dropped.
        // For Or (the dual): swap the roles.
        let dominant = !is_and;
        let mut nodes: Vec<NodeId> = Vec::with_capacity(fanins.len());
        for &d in fanins {
            match d {
                Driver::Const(v) => {
                    if v == dominant {
                        return Driver::Const(dominant ^ inverting);
                    }
                    // neutral constant: drop
                }
                Driver::Node(x) => nodes.push(x),
            }
        }
        nodes.sort_unstable();
        nodes.dedup(); // x ∧ x = x, x ∨ x = x
                       // Complementary pair: x ∧ ¬x = 0, x ∨ ¬x = 1.
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if self.complementary(nodes[i], nodes[j]) {
                    return Driver::Const(dominant ^ inverting);
                }
            }
        }
        match nodes.len() {
            0 => Driver::Const(!dominant ^ inverting),
            1 => {
                if inverting {
                    self.make_not(Driver::Node(nodes[0]), name)
                } else {
                    Driver::Node(nodes[0])
                }
            }
            _ => {
                let out_kind = match (is_and, inverting) {
                    (true, false) => GateKind::And,
                    (true, true) => GateKind::Nand,
                    (false, false) => GateKind::Or,
                    (false, true) => GateKind::Nor,
                };
                self.emit(out_kind, nodes, name)
            }
        }
    }

    fn build_parity(&mut self, kind: GateKind, fanins: &[Driver], name: &Arc<str>) -> Driver {
        let mut invert = kind == GateKind::Xnor;
        let mut nodes: Vec<NodeId> = Vec::with_capacity(fanins.len());
        for &d in fanins {
            match d {
                Driver::Const(v) => invert ^= v,
                Driver::Node(x) => nodes.push(x),
            }
        }
        // x ⊕ x cancels: keep each node iff it occurs an odd number of times.
        nodes.sort_unstable();
        let mut kept: Vec<NodeId> = Vec::with_capacity(nodes.len());
        let mut i = 0;
        while i < nodes.len() {
            let mut j = i;
            while j < nodes.len() && nodes[j] == nodes[i] {
                j += 1;
            }
            if (j - i) % 2 == 1 {
                kept.push(nodes[i]);
            }
            i = j;
        }
        // x ⊕ ¬x = 1: cancel complementary pairs.
        let mut nodes = kept;
        'outer: loop {
            for i in 0..nodes.len() {
                for j in (i + 1)..nodes.len() {
                    if self.complementary(nodes[i], nodes[j]) {
                        nodes.remove(j);
                        nodes.remove(i);
                        invert = !invert;
                        continue 'outer;
                    }
                }
            }
            break;
        }
        match nodes.len() {
            0 => Driver::Const(invert),
            1 => {
                if invert {
                    self.make_not(Driver::Node(nodes[0]), name)
                } else {
                    Driver::Node(nodes[0])
                }
            }
            _ => {
                let out_kind = if invert { GateKind::Xnor } else { GateKind::Xor };
                self.emit(out_kind, nodes, name)
            }
        }
    }

    fn build_mux(&mut self, fanins: &[Driver], name: &Arc<str>) -> Driver {
        let (s, d0, d1) = (fanins[0], fanins[1], fanins[2]);
        match s {
            Driver::Const(b) => {
                if b {
                    d1
                } else {
                    d0
                }
            }
            Driver::Node(sn) => {
                if d0 == d1 {
                    return d0;
                }
                match (d0, d1) {
                    (Driver::Const(a), Driver::Const(b)) => {
                        debug_assert_ne!(a, b, "equal consts handled above");
                        if b {
                            // Mux(s, 0, 1) = s
                            return s;
                        }
                        // Mux(s, 1, 0) = ¬s
                        self.make_not(s, name)
                    }
                    (Driver::Const(false), Driver::Node(y)) => {
                        // Mux(s, 0, y) = s ∧ y
                        self.build_and_or(
                            GateKind::And,
                            &[Driver::Node(sn), Driver::Node(y)],
                            name,
                        )
                    }
                    (Driver::Const(true), Driver::Node(y)) => {
                        // Mux(s, 1, y) = ¬s ∨ y
                        let ns = self.make_not(s, name);
                        self.build_and_or(GateKind::Or, &[ns, Driver::Node(y)], name)
                    }
                    (Driver::Node(x), Driver::Const(true)) => {
                        // Mux(s, x, 1) = s ∨ x
                        self.build_and_or(
                            GateKind::Or,
                            &[Driver::Node(sn), Driver::Node(x)],
                            name,
                        )
                    }
                    (Driver::Node(x), Driver::Const(false)) => {
                        // Mux(s, x, 0) = ¬s ∧ x
                        let ns = self.make_not(s, name);
                        self.build_and_or(GateKind::And, &[ns, Driver::Node(x)], name)
                    }
                    (Driver::Node(x), Driver::Node(y)) => {
                        if self.complementary(x, y) {
                            // Mux(s, x, ¬x) = s ⊕ x; Mux(s, ¬y, y) = s ⊕ ¬y.
                            return self.build_parity(
                                GateKind::Xor,
                                &[Driver::Node(sn), Driver::Node(x)],
                                name,
                            );
                        }
                        if x == sn {
                            // Mux(s, s, y) = s ∧ y
                            return self.build_and_or(
                                GateKind::And,
                                &[Driver::Node(sn), Driver::Node(y)],
                                name,
                            );
                        }
                        if y == sn {
                            // Mux(s, x, s) = s ∨ x
                            return self.build_and_or(
                                GateKind::Or,
                                &[Driver::Node(sn), Driver::Node(x)],
                                name,
                            );
                        }
                        let fanins = vec![sn, x, y];
                        self.emit(GateKind::Mux, fanins, name)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{bits_of, Simulator};

    /// Exhaustively checks that two netlists with identical interfaces
    /// compute the same function (inputs + keys ≤ 16 bits).
    fn assert_equivalent(a: &Netlist, b: &Netlist) {
        assert_eq!(a.inputs().len(), b.inputs().len());
        assert_eq!(a.key_inputs().len(), b.key_inputs().len());
        assert_eq!(a.outputs().len(), b.outputs().len());
        let ni = a.inputs().len();
        let nk = a.key_inputs().len();
        assert!(ni + nk <= 16, "exhaustive check limited to 16 bits");
        let mut sa = Simulator::new(a).unwrap();
        let mut sb = Simulator::new(b).unwrap();
        for v in 0..(1u64 << (ni + nk)) {
            let bits = bits_of(v, ni + nk);
            let (i, k) = bits.split_at(ni);
            assert_eq!(sa.eval(i, k), sb.eval(i, k), "differs at {v:b}");
        }
    }

    fn example() -> Netlist {
        let mut nl = Netlist::new("ex");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let nb = nl.add_gate("nb", GateKind::Not, &[b]).unwrap();
        let nnb = nl.add_gate("nnb", GateKind::Not, &[nb]).unwrap();
        let g1 = nl.add_gate("g1", GateKind::And, &[a, nnb]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::And, &[a, b]).unwrap(); // same as g1 after NotNot
        let g3 = nl.add_gate("g3", GateKind::Or, &[g1, g2]).unwrap(); // = g1
        let g4 = nl.add_gate("g4", GateKind::Xor, &[g3, c]).unwrap();
        let dead = nl.add_gate("dead", GateKind::Nand, &[a, c]).unwrap();
        let _ = dead;
        nl.mark_output(g4).unwrap();
        nl
    }

    #[test]
    fn simplify_preserves_function() {
        let nl = example();
        let (simp, stats) = simplify(&nl);
        assert_equivalent(&nl, &simp);
        assert!(stats.gates_after < stats.gates_before);
        // NotNot collapsed, g1/g2 merged, g3 aliased, dead gate gone:
        // remaining gates are just the Xor (and possibly the Not b).
        assert!(simp.num_gates() <= 2, "got {}", simp.num_gates());
        assert!(simp.validate().is_ok());
    }

    #[test]
    fn simplify_is_idempotent_in_size() {
        let nl = example();
        let (s1, _) = simplify(&nl);
        let (s2, _) = simplify(&s1);
        assert_eq!(s1.num_nodes(), s2.num_nodes());
        assert_equivalent(&s1, &s2);
    }

    #[test]
    fn cofactor_pins_inputs() {
        let nl = example();
        let a = nl.find("a").unwrap();
        let cof = cofactor(&nl, &[(a, true)]).unwrap();
        // Interface unchanged.
        assert_eq!(cof.inputs().len(), nl.inputs().len());
        assert_eq!(cof.outputs().len(), 1);
        // The cofactored circuit ignores input a.
        let mut sim = Simulator::new(&cof).unwrap();
        let mut orig = Simulator::new(&nl).unwrap();
        for v in 0..8u64 {
            let bits = bits_of(v, 3);
            let mut forced = bits.clone();
            forced[0] = true;
            assert_eq!(sim.eval(&bits, &[]), orig.eval(&forced, &[]), "pattern {v:b}");
        }
        assert!(cof.validate().is_ok());
    }

    #[test]
    fn cofactor_rejects_non_inputs() {
        let nl = example();
        let g1 = nl.find("g1").unwrap();
        assert!(matches!(cofactor(&nl, &[(g1, false)]), Err(NetlistError::NotAnInput { .. })));
    }

    #[test]
    fn cofactor_rejects_an_input_pinned_twice() {
        let nl = example();
        let (a, b) = (nl.find("a").unwrap(), nl.find("b").unwrap());
        for pins in [[(a, false), (b, true), (a, true)], [(a, true), (b, true), (a, true)]] {
            let err = cofactor(&nl, &pins).unwrap_err();
            assert_eq!(err, NetlistError::PinnedTwice { name: "a".into() });
            assert_eq!(err.to_string(), "input `a` is pinned twice");
        }
    }

    #[test]
    fn cofactor_names_its_constant_freely_in_the_source_too() {
        // The source already has gates named like the first two candidate
        // names of `a`'s constant: the pin takes the third, and every gate
        // keeps its name.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let g = nl.add_gate("a$pin", GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate("a$pin$2", GateKind::Or, &[g, b]).unwrap();
        nl.mark_output(y).unwrap();
        let cof = cofactor(&nl, &[(a, true)]).unwrap();
        assert_eq!(cof.node(cof.find("a$pin$3").unwrap()).kind(), GateKind::Const(true));
        assert_eq!(cof.node(cof.find("a$pin").unwrap()).kind(), GateKind::And);
        let mut sim = Simulator::new(&cof).unwrap();
        let mut orig = Simulator::new(&nl).unwrap();
        for b in [false, true] {
            assert_eq!(sim.eval(&[false, b], &[]), orig.eval(&[true, b], &[]));
        }
    }

    #[test]
    fn cofactor_simplify_shrinks() {
        let nl = example();
        let a = nl.find("a").unwrap();
        // a = 0 kills both And gates; the output degenerates to c.
        let (cs, stats) = simplify(&cofactor(&nl, &[(a, false)]).unwrap());
        assert_eq!(cs.num_gates(), 0, "xor with constant-0 side folds to buffer/alias");
        assert_eq!((stats.gates_before, stats.gates_after), (nl.num_gates(), 0));
        let mut sim = Simulator::new(&cs).unwrap();
        // Output equals c regardless of a and b.
        for v in 0..8u64 {
            let bits = bits_of(v, 3);
            assert_eq!(sim.eval(&bits, &[])[0], bits[2]);
        }
    }

    #[test]
    fn and_with_complement_folds_to_false() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let na = nl.add_gate("na", GateKind::Not, &[a]).unwrap();
        let g = nl.add_gate("g", GateKind::And, &[a, na]).unwrap();
        nl.mark_output(g).unwrap();
        let (s, _) = simplify(&nl);
        assert_eq!(s.num_gates(), 0);
        let mut sim = Simulator::new(&s).unwrap();
        assert_eq!(sim.eval(&[true], &[]), vec![false]);
        assert_eq!(sim.eval(&[false], &[]), vec![false]);
    }

    #[test]
    fn xor_cancellation() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        // a ⊕ b ⊕ a = b
        let g = nl.add_gate("g", GateKind::Xor, &[a, b, a]).unwrap();
        nl.mark_output(g).unwrap();
        let (s, _) = simplify(&nl);
        assert_eq!(s.num_gates(), 0);
        assert_equivalent(&nl, &s);
    }

    #[test]
    fn xnor_with_complement() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let na = nl.add_gate("na", GateKind::Not, &[a]).unwrap();
        // Xnor(a, ¬a, b) = ¬(a ⊕ ¬a ⊕ b) = ¬(1 ⊕ b) = b
        let g = nl.add_gate("g", GateKind::Xnor, &[a, na, b]).unwrap();
        nl.mark_output(g).unwrap();
        let (s, _) = simplify(&nl);
        assert_equivalent(&nl, &s);
        assert_eq!(s.num_gates(), 0);
    }

    #[test]
    fn mux_folds() {
        // Mux with constant select folds away entirely.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let one = nl.add_const("one", true).unwrap();
        let m = nl.add_gate("m", GateKind::Mux, &[one, a, b]).unwrap();
        nl.mark_output(m).unwrap();
        let (s, _) = simplify(&nl);
        assert_eq!(s.num_gates(), 0);
        let mut sim = Simulator::new(&s).unwrap();
        assert_eq!(sim.eval(&[false, true], &[]), vec![true], "selects b");
    }

    #[test]
    fn mux_of_complements_becomes_xor() {
        let mut nl = Netlist::new("t");
        let s = nl.add_input("s").unwrap();
        let x = nl.add_input("x").unwrap();
        let nx = nl.add_gate("nx", GateKind::Not, &[x]).unwrap();
        let m = nl.add_gate("m", GateKind::Mux, &[s, x, nx]).unwrap();
        nl.mark_output(m).unwrap();
        let (simp, _) = simplify(&nl);
        assert_equivalent(&nl, &simp);
        assert_eq!(simp.num_gates(), 1, "one Xor gate");
    }

    #[test]
    fn outputs_sharing_a_driver_stay_distinct_ports() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let g1 = nl.add_gate("g1", GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::And, &[b, a]).unwrap(); // merges with g1
        nl.mark_output(g1).unwrap();
        nl.mark_output(g2).unwrap();
        let (s, _) = simplify(&nl);
        assert_eq!(s.outputs().len(), 2);
        assert_equivalent(&nl, &s);
    }

    #[test]
    fn constant_output_materialized() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let na = nl.add_gate("na", GateKind::Not, &[a]).unwrap();
        let g = nl.add_gate("g", GateKind::Or, &[a, na]).unwrap();
        nl.mark_output(g).unwrap();
        let (s, _) = simplify(&nl);
        assert_eq!(s.outputs().len(), 1);
        let mut sim = Simulator::new(&s).unwrap();
        assert_eq!(sim.eval(&[false], &[]), vec![true]);
    }

    #[test]
    fn interface_order_is_preserved() {
        let nl = example();
        let (s, _) = simplify(&nl);
        for (x, y) in nl.inputs().iter().zip(s.inputs()) {
            assert_eq!(nl.node_name(*x), s.node_name(*y));
        }
    }
}

#[cfg(test)]
mod pin_keys_tests {
    use super::*;
    use crate::sim::{bits_of, Simulator};

    #[test]
    fn pin_keys_removes_key_ports() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let k0 = nl.add_key_input("k0").unwrap();
        let k1 = nl.add_key_input("k1").unwrap();
        let x = nl.add_gate("x", GateKind::Xor, &[a, k0]).unwrap();
        let y = nl.add_gate("y", GateKind::Xnor, &[x, k1]).unwrap();
        nl.mark_output(y).unwrap();

        let keyed = pin_keys(&nl, &[true, false]).unwrap();
        assert!(keyed.key_inputs().is_empty());
        assert_eq!(keyed.inputs().len(), 1);
        let mut orig = Simulator::new(&nl).unwrap();
        let mut pinned = Simulator::new(&keyed).unwrap();
        for v in 0..2u64 {
            let bits = bits_of(v, 1);
            assert_eq!(pinned.eval(&bits, &[]), orig.eval(&bits, &[true, false]));
        }
    }

    #[test]
    fn pin_keys_names_its_constant_freely_in_the_source_too() {
        // `k$pin` is a gate of the source, so key `k` pins through `k$pin$2`.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let k = nl.add_key_input("k").unwrap();
        let x = nl.add_gate("k$pin", GateKind::Xor, &[a, k]).unwrap();
        nl.mark_output(x).unwrap();
        let keyed = pin_keys(&nl, &[true]).unwrap();
        assert_eq!(keyed.node(keyed.find("k$pin$2").unwrap()).kind(), GateKind::Const(true));
        let mut sim = Simulator::new(&keyed).unwrap();
        for a in [false, true] {
            assert_eq!(sim.eval(&[a], &[]), vec![!a]);
        }
    }

    #[test]
    fn pin_keys_checks_width() {
        let mut nl = Netlist::new("t");
        let _ = nl.add_input("a").unwrap();
        let _ = nl.add_key_input("k0").unwrap();
        assert!(matches!(pin_keys(&nl, &[]), Err(NetlistError::BadArity { .. })));
    }

    #[test]
    fn pin_keys_then_simplify_sweeps_key_logic() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let k = nl.add_key_input("k").unwrap();
        let x = nl.add_gate("x", GateKind::Xor, &[a, k]).unwrap();
        nl.mark_output(x).unwrap();
        let keyed = pin_keys(&nl, &[false]).unwrap();
        let (simp, _) = simplify(&keyed);
        // Xor with constant 0 folds to a plain wire.
        assert_eq!(simp.num_gates(), 0);
    }
}

#[cfg(test)]
mod peel_tests {
    use super::*;
    use crate::sim::{bits_of, Simulator};

    /// Key-free BUF/NOT/XOR/XNOR layers over keyed logic; the file lists
    /// what each output peels to.
    fn chains() -> Netlist {
        let src = include_str!("../tests/data/output_chains.bench");
        crate::parse_bench(src.as_bytes(), "chains").unwrap()
    }

    fn names(nl: &Netlist, ids: &[NodeId]) -> Vec<String> {
        ids.iter().map(|&id| nl.node_name(id).to_string()).collect()
    }

    #[test]
    fn each_output_peels_to_its_first_node_past_the_key_free_layers() {
        let nl = chains();
        let peeled = peel_key_free_layers(&nl);
        assert!(matches!(peeled, Cow::Owned(_)));
        assert_eq!(names(&peeled, peeled.outputs()), ["f", "h", "k0", "y4", "y5"]);
        // Every input stays, in declaration order; the key-free `g` and the
        // peeled layers go.
        assert_eq!(names(&peeled, peeled.inputs()), names(&nl, nl.inputs()));
        assert_eq!(names(&peeled, peeled.key_inputs()), names(&nl, nl.key_inputs()));
        for gone in ["g", "nf", "x0", "b0", "y0", "y1", "y2", "y3"] {
            assert!(peeled.find(gone).is_none(), "{gone} is peeled");
        }
        assert_eq!(peeled.num_gates(), 6, "f, h, y4, m, nm, y5");
    }

    #[test]
    fn peeled_outputs_tell_the_same_key_pairs_apart() {
        // Exhaustive: at every input, two keys disagree on some output of
        // the netlist exactly when they disagree on some peeled output.
        let nl = chains();
        let peeled = peel_key_free_layers(&nl);
        let (mut full, mut cut) =
            (Simulator::new(&nl).unwrap(), Simulator::new(&peeled).unwrap());
        for x in 0..8 {
            let x = bits_of(x, 3);
            for (k1, k2) in (0..4).flat_map(|k1| (0..4).map(move |k2| (k1, k2))) {
                let (k1, k2) = (bits_of(k1, 2), bits_of(k2, 2));
                let differs = |sim: &mut Simulator<'_>| sim.eval(&x, &k1) != sim.eval(&x, &k2);
                assert_eq!(differs(&mut full), differs(&mut cut), "x {x:?} keys {k1:?} {k2:?}");
            }
        }
    }

    #[test]
    fn a_netlist_with_no_parity_layer_to_peel_is_returned_as_is() {
        let nl = chains();
        let last = keep_outputs(&nl, &[4, 5]).unwrap();
        assert!(matches!(peel_key_free_layers(&last), Cow::Borrowed(_)));
        let mut keyless = Netlist::new("keyless");
        let a = keyless.add_input("a").unwrap();
        let b = keyless.add_input("b").unwrap();
        let y = keyless.add_gate("y", GateKind::Xor, &[a, b]).unwrap();
        keyless.mark_output(y).unwrap();
        assert!(matches!(peel_key_free_layers(&keyless), Cow::Borrowed(_)));
    }
}
