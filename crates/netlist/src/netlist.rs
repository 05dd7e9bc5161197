//! The gate-level netlist: a named DAG of logic gates.

use std::collections::hash_map::{Entry, HashMap};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::gate::GateKind;

/// Index of a node inside one [`Netlist`].
///
/// Ids are dense and creation-ordered; they are only meaningful with respect
/// to the netlist that produced them.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense 0-based index of the node.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(i: usize) -> NodeId {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single gate instance: its function and fanin list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Node {
    kind: GateKind,
    fanins: Vec<NodeId>,
}

impl Node {
    /// The gate function.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The fanin nodes, in argument order.
    pub fn fanins(&self) -> &[NodeId] {
        &self.fanins
    }
}

/// Errors raised by netlist construction and structural queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A signal name was defined twice.
    DuplicateName(String),
    /// A referenced signal does not exist.
    UnknownSignal(String),
    /// A gate was built with the wrong number of fanins.
    BadArity {
        /// Name of the offending gate.
        gate: String,
        /// The gate function.
        kind: GateKind,
        /// Fanins required (fixed-arity gates) or minimum (n-ary).
        expected: usize,
        /// Fanins supplied.
        got: usize,
    },
    /// A node id that does not belong to this netlist.
    InvalidNode(u32),
    /// The netlist contains a combinational cycle.
    Cycle {
        /// Name of a node on the cycle.
        involving: String,
    },
    /// The operation requires an input node but was given something else.
    NotAnInput {
        /// Name of the node.
        name: String,
    },
    /// A pin list names the same input twice.
    PinnedTwice {
        /// Name of the input.
        name: String,
    },
    /// Unsupported construct (e.g. sequential elements in a `.bench` file).
    Unsupported(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName(n) => write!(f, "duplicate signal name `{n}`"),
            NetlistError::UnknownSignal(n) => write!(f, "unknown signal `{n}`"),
            NetlistError::BadArity { gate, kind, expected, got } => {
                write!(f, "gate `{gate}` of type {kind} expects {expected} fanin(s), got {got}")
            }
            NetlistError::InvalidNode(i) => write!(f, "node id {i} is out of range"),
            NetlistError::Cycle { involving } => {
                write!(f, "combinational cycle involving `{involving}`")
            }
            NetlistError::NotAnInput { name } => write!(f, "node `{name}` is not an input"),
            NetlistError::PinnedTwice { name } => write!(f, "input `{name}` is pinned twice"),
            NetlistError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
        }
    }
}

impl Error for NetlistError {}

/// A combinational gate-level netlist.
///
/// Nodes are created in topological-friendly order through the public API
/// (fanins must already exist), carry unique names, and are classified into
/// primary inputs, key inputs (added by locking schemes) and internal gates.
/// Any node can be marked as a primary output.
///
/// A netlist is acyclic by construction: a new gate reads only existing
/// nodes, the two edits that rewire existing gates
/// ([`insert_after`](Netlist::insert_after),
/// [`replace_fanin`](Netlist::replace_fanin)) refuse to close a loop, and
/// [`parse_bench`](crate::parse_bench) rejects cyclic files. So the
/// topological order, and everything built on it, cannot fail.
///
/// Each name is stored once and shared by the netlists derived from this
/// one ([`cofactor`](crate::cofactor), [`simplify`](crate::simplify),
/// [`keep_outputs`](crate::keep_outputs), [`pin_keys`](crate::pin_keys)).
/// The topological order is computed on first use and cached, together
/// with each node's fan-out list; every method that changes a node or a
/// fanin clears both.
///
/// # Examples
///
/// Build a half adder and simulate it:
///
/// ```
/// use polykey_netlist::{GateKind, Netlist, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("half_adder");
/// let a = nl.add_input("a")?;
/// let b = nl.add_input("b")?;
/// let sum = nl.add_gate("sum", GateKind::Xor, &[a, b])?;
/// let carry = nl.add_gate("carry", GateKind::And, &[a, b])?;
/// nl.mark_output(sum)?;
/// nl.mark_output(carry)?;
///
/// let mut sim = Simulator::new(&nl)?;
/// assert_eq!(sim.eval(&[true, true], &[]), vec![false, true]);
/// assert_eq!(sim.eval(&[true, false], &[]), vec![true, false]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    names: Vec<Arc<str>>,
    name_to_node: HashMap<Arc<str>, NodeId>,
    primary_inputs: Vec<NodeId>,
    key_inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    order: OnceLock<Topology>,
}

/// A netlist's cached topological order, with the fan-out lists Kahn's
/// algorithm builds to find it.
#[derive(Clone, Debug)]
struct Topology {
    order: Vec<NodeId>,
    /// The distinct consumers of node `i` are
    /// `consumers[start[i]..start[i + 1]]`, in ascending id order (a CSR
    /// layout).
    start: Vec<u32>,
    consumers: Vec<NodeId>,
}

// Searches hand netlists to term threads behind an `Arc`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Netlist>();
};

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist::with_capacity(name.into(), 0)
    }

    /// An empty netlist with room for `nodes` nodes.
    pub(crate) fn with_capacity(name: String, nodes: usize) -> Netlist {
        Netlist {
            name,
            nodes: Vec::with_capacity(nodes),
            names: Vec::with_capacity(nodes),
            name_to_node: HashMap::with_capacity(nodes),
            primary_inputs: Vec::new(),
            key_inputs: Vec::new(),
            outputs: Vec::new(),
            order: OnceLock::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Total number of nodes (inputs, constants and gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of logic gates (excluding inputs and constants).
    pub fn num_gates(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !n.kind.is_input() && !matches!(n.kind, GateKind::Const(_)))
            .count()
    }

    /// The primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.primary_inputs
    }

    /// The key inputs, in declaration order.
    pub fn key_inputs(&self) -> &[NodeId] {
        &self.key_inputs
    }

    /// The primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The unique signal name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// The stored name of a node, for a derived netlist to share.
    pub(crate) fn shared_name(&self, id: NodeId) -> &Arc<str> {
        &self.names[id.index()]
    }

    /// Looks a node up by signal name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.name_to_node.get(name).copied()
    }

    /// Iterates over all node ids in creation order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Appends a node: the one insertion path of every constructor.
    /// Inputs and key inputs join their port lists.
    ///
    /// # Errors
    ///
    /// - [`NetlistError::BadArity`] if the fanin count is invalid for `kind`
    ///   (n-ary gates need at least one fanin).
    /// - [`NetlistError::InvalidNode`] if a fanin id is out of range.
    /// - [`NetlistError::DuplicateName`] if the name is taken.
    pub(crate) fn push_node(
        &mut self,
        name: Arc<str>,
        kind: GateKind,
        fanins: Vec<NodeId>,
    ) -> Result<NodeId, NetlistError> {
        check_arity(&name, kind, fanins.len())?;
        if let Some(f) = fanins.iter().find(|f| f.index() >= self.nodes.len()) {
            return Err(NetlistError::InvalidNode(f.0));
        }
        let id = NodeId(self.nodes.len() as u32);
        match self.name_to_node.entry(name) {
            Entry::Occupied(taken) => {
                return Err(NetlistError::DuplicateName(taken.key().to_string()))
            }
            Entry::Vacant(slot) => {
                self.names.push(Arc::clone(slot.key()));
                slot.insert(id);
            }
        }
        match kind {
            GateKind::Input => self.primary_inputs.push(id),
            GateKind::KeyInput => self.key_inputs.push(id),
            _ => {}
        }
        self.nodes.push(Node { kind, fanins });
        self.order.take();
        Ok(id)
    }

    /// Adds a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NodeId, NetlistError> {
        self.push_node(name.into().into(), GateKind::Input, Vec::new())
    }

    /// Adds a key input (the extra ports introduced by logic locking).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_key_input(&mut self, name: impl Into<String>) -> Result<NodeId, NetlistError> {
        self.push_node(name.into().into(), GateKind::KeyInput, Vec::new())
    }

    /// Adds a constant driver node.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_const(
        &mut self,
        name: impl Into<String>,
        value: bool,
    ) -> Result<NodeId, NetlistError> {
        self.push_node(name.into().into(), GateKind::Const(value), Vec::new())
    }

    /// Adds a gate whose fanins must already exist.
    ///
    /// # Errors
    ///
    /// - [`NetlistError::DuplicateName`] if the name is taken.
    /// - [`NetlistError::BadArity`] if the fanin count is invalid for `kind`
    ///   (n-ary gates need at least one fanin).
    /// - [`NetlistError::InvalidNode`] if a fanin id is out of range.
    /// - [`NetlistError::Unsupported`] for input kinds.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanins: &[NodeId],
    ) -> Result<NodeId, NetlistError> {
        if kind.is_input() {
            return Err(NetlistError::Unsupported(
                "use add_input/add_key_input for input nodes".into(),
            ));
        }
        self.push_node(name.into().into(), kind, fanins.to_vec())
    }

    /// Marks a node as a primary output. A node may be marked only once.
    ///
    /// # Errors
    ///
    /// - [`NetlistError::InvalidNode`] if the id is out of range.
    /// - [`NetlistError::DuplicateName`] if the node is already an output.
    pub fn mark_output(&mut self, id: NodeId) -> Result<(), NetlistError> {
        if id.index() >= self.nodes.len() {
            return Err(NetlistError::InvalidNode(id.0));
        }
        if self.outputs.contains(&id) {
            return Err(NetlistError::DuplicateName(self.node_name(id).to_string()));
        }
        self.outputs.push(id);
        Ok(())
    }

    /// Inserts a new gate *after* `target`: the gate takes `target` as its
    /// first fanin (plus `extra_fanins`), and every existing consumer of
    /// `target` — including the output list — is redirected to the new gate.
    ///
    /// This is the primitive locking schemes use to splice key gates into a
    /// wire.
    ///
    /// # Errors
    ///
    /// - [`NetlistError::Cycle`] if an extra fanin other than `target` reads
    ///   `target`, directly or through other gates: once its consumers read
    ///   the new gate, that would close a loop. The netlist is unchanged.
    /// - Otherwise the same conditions as [`Netlist::add_gate`].
    pub fn insert_after(
        &mut self,
        target: NodeId,
        name: impl Into<String>,
        kind: GateKind,
        extra_fanins: &[NodeId],
    ) -> Result<NodeId, NetlistError> {
        for &id in std::iter::once(&target).chain(extra_fanins) {
            if id.index() >= self.nodes.len() {
                return Err(NetlistError::InvalidNode(id.0));
            }
        }
        if extra_fanins.iter().any(|&e| e != target && self.reaches(e, target)) {
            return Err(NetlistError::Cycle { involving: self.node_name(target).to_string() });
        }
        let mut fanins = Vec::with_capacity(1 + extra_fanins.len());
        fanins.push(target);
        fanins.extend_from_slice(extra_fanins);
        let new_id = self.add_gate(name, kind, &fanins)?;
        // Redirect all other consumers of `target` to the new gate.
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if i == new_id.index() {
                continue;
            }
            for f in &mut node.fanins {
                if *f == target {
                    *f = new_id;
                }
            }
        }
        for out in &mut self.outputs {
            if *out == target {
                *out = new_id;
            }
        }
        self.order.take();
        Ok(new_id)
    }

    /// Replaces occurrences of fanin `old` with `new` in one gate.
    ///
    /// # Errors
    ///
    /// - [`NetlistError::InvalidNode`] if any id is out of range.
    /// - [`NetlistError::UnknownSignal`] if `old` is not a fanin of `gate`.
    /// - [`NetlistError::Cycle`] if `new` is `gate` or reads it, directly or
    ///   through other gates. The netlist is unchanged.
    pub fn replace_fanin(
        &mut self,
        gate: NodeId,
        old: NodeId,
        new: NodeId,
    ) -> Result<(), NetlistError> {
        for id in [gate, old, new] {
            if id.index() >= self.nodes.len() {
                return Err(NetlistError::InvalidNode(id.0));
            }
        }
        if !self.nodes[gate.index()].fanins.contains(&old) {
            return Err(NetlistError::UnknownSignal(self.node_name(old).to_string()));
        }
        if self.reaches(new, gate) {
            return Err(NetlistError::Cycle { involving: self.node_name(gate).to_string() });
        }
        for f in &mut self.nodes[gate.index()].fanins {
            if *f == old {
                *f = new;
            }
        }
        self.order.take();
        Ok(())
    }

    /// Whether `from`'s fan-in cone, `from` included, contains `to`: a
    /// walk over fanins that needs no topological order.
    fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(id) = stack.pop() {
            if id == to {
                return true;
            }
            for &f in &self.nodes[id.index()].fanins {
                if !seen[f.index()] {
                    seen[f.index()] = true;
                    stack.push(f);
                }
            }
        }
        false
    }

    /// A topological order of all nodes (fanins before fanouts), computed
    /// on the first call and cached until a node or fanin changes.
    pub fn topological_order(&self) -> &[NodeId] {
        &self.topology().order
    }

    /// The distinct consumers of every node, cached with the topological
    /// order: node `i`'s are `consumers[start[i]..start[i + 1]]`, in
    /// ascending id order.
    pub(crate) fn fanouts(&self) -> (&[u32], &[NodeId]) {
        let t = self.topology();
        (&t.start, &t.consumers)
    }

    fn topology(&self) -> &Topology {
        self.order
            .get_or_init(|| self.kahn_order().expect("netlists are acyclic by construction"))
    }

    /// Kahn's algorithm over *distinct* fanin edges, so repeated fanins
    /// like And(a, a) count once. The ready stack starts with the sources
    /// in id order and pops from the end; each node releases its consumers
    /// in ascending id order. The fan-out lists it builds are kept.
    fn kahn_order(&self) -> Result<Topology, NetlistError> {
        let n = self.nodes.len();
        // The consumers of node `i` are `consumers[start[i]..start[i + 1]]`
        // (a CSR layout). Nodes are visited in id order, so each list comes
        // out ascending, and a consumer reading `f` twice finds itself as
        // `f`'s latest entry.
        let mut indegree = vec![0u32; n];
        let mut start = vec![0u32; n + 1];
        let mut cursor = vec![u32::MAX; n];
        for (i, node) in self.nodes.iter().enumerate() {
            for f in &node.fanins {
                if cursor[f.index()] != i as u32 {
                    cursor[f.index()] = i as u32;
                    start[f.index() + 1] += 1;
                    indegree[i] += 1;
                }
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        cursor.copy_from_slice(&start[..n]);
        let mut consumers = vec![NodeId(0); start[n] as usize];
        for (i, node) in self.nodes.iter().enumerate() {
            for f in &node.fanins {
                let at = cursor[f.index()] as usize;
                if at == start[f.index()] as usize || consumers[at - 1].index() != i {
                    consumers[at] = NodeId::from_index(i);
                    cursor[f.index()] += 1;
                }
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<NodeId> =
            (0..n).filter(|&i| indegree[i] == 0).map(NodeId::from_index).collect();
        while let Some(id) = ready.pop() {
            order.push(id);
            let i = id.index();
            for &out in &consumers[start[i] as usize..start[i + 1] as usize] {
                indegree[out.index()] -= 1;
                if indegree[out.index()] == 0 {
                    ready.push(out);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indegree[i] > 0)
                .map(|i| self.names[i].to_string())
                .unwrap_or_default();
            return Err(NetlistError::Cycle { involving: stuck });
        }
        Ok(Topology { order, start, consumers })
    }

    /// Exhaustive structural validation: arity, id ranges, name table
    /// consistency, acyclicity, and output validity.
    ///
    /// The public construction API maintains these invariants; `validate` is
    /// the check behind [`parse_bench`](crate::parse_bench), whose forward
    /// references are the one way to build a cycle.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.names.len() != self.nodes.len() {
            return Err(NetlistError::Unsupported("name table length mismatch".into()));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let name = &self.names[i];
            if self.name_to_node.get(name) != Some(&NodeId::from_index(i)) {
                return Err(NetlistError::DuplicateName(name.to_string()));
            }
            check_arity(name, node.kind, node.fanins.len())?;
            for f in &node.fanins {
                if f.index() >= self.nodes.len() {
                    return Err(NetlistError::InvalidNode(f.0));
                }
            }
        }
        for &out in &self.outputs {
            if out.index() >= self.nodes.len() {
                return Err(NetlistError::InvalidNode(out.0));
            }
        }
        for &pi in self.primary_inputs.iter().chain(&self.key_inputs) {
            if !self.nodes[pi.index()].kind.is_input() {
                return Err(NetlistError::NotAnInput { name: self.node_name(pi).to_string() });
            }
        }
        if self.order.get().is_none() {
            let _ = self.order.set(self.kahn_order()?);
        }
        Ok(())
    }

    /// Parser-internal: overwrite a node's definition (used to resolve
    /// forward references). Callers must re-validate: this is the one edit
    /// that can close a loop.
    pub(crate) fn set_node(&mut self, id: NodeId, kind: GateKind, fanins: Vec<NodeId>) {
        self.nodes[id.index()] = Node { kind, fanins };
        self.order.take();
    }
}

/// [`NetlistError::BadArity`] unless `got` fanins suit `kind`; n-ary gates
/// need at least one.
fn check_arity(gate: &str, kind: GateKind, got: usize) -> Result<(), NetlistError> {
    let expected = match kind.arity() {
        Some(expected) if expected != got => expected,
        None if got == 0 => 1,
        _ => return Ok(()),
    };
    Err(NetlistError::BadArity { gate: gate.to_string(), kind, expected, got })
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} keys, {} outputs, {} gates",
            self.name,
            self.primary_inputs.len(),
            self.key_inputs.len(),
            self.outputs.len(),
            self.num_gates()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c17_like() -> Netlist {
        let mut nl = Netlist::new("c17");
        let i1 = nl.add_input("G1").unwrap();
        let i2 = nl.add_input("G2").unwrap();
        let i3 = nl.add_input("G3").unwrap();
        let i6 = nl.add_input("G6").unwrap();
        let i7 = nl.add_input("G7").unwrap();
        let n10 = nl.add_gate("G10", GateKind::Nand, &[i1, i3]).unwrap();
        let n11 = nl.add_gate("G11", GateKind::Nand, &[i3, i6]).unwrap();
        let n16 = nl.add_gate("G16", GateKind::Nand, &[i2, n11]).unwrap();
        let n19 = nl.add_gate("G19", GateKind::Nand, &[n11, i7]).unwrap();
        let n22 = nl.add_gate("G22", GateKind::Nand, &[n10, n16]).unwrap();
        let n23 = nl.add_gate("G23", GateKind::Nand, &[n16, n19]).unwrap();
        nl.mark_output(n22).unwrap();
        nl.mark_output(n23).unwrap();
        nl
    }

    #[test]
    fn build_and_query() {
        let nl = c17_like();
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.num_gates(), 6);
        assert_eq!(nl.num_nodes(), 11);
        assert_eq!(nl.find("G16"), Some(NodeId(7)));
        assert_eq!(nl.node_name(NodeId(7)), "G16");
        assert_eq!(nl.node(NodeId(7)).kind(), GateKind::Nand);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_input("a").unwrap();
        assert!(matches!(nl.add_input("a"), Err(NetlistError::DuplicateName(_))));
        assert!(matches!(
            nl.add_gate("a", GateKind::And, &[NodeId(0)]),
            Err(NetlistError::DuplicateName(_))
        ));
    }

    #[test]
    fn arity_enforced() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        assert!(matches!(
            nl.add_gate("g", GateKind::Not, &[a, b]),
            Err(NetlistError::BadArity { expected: 1, got: 2, .. })
        ));
        assert!(matches!(
            nl.add_gate("g", GateKind::And, &[]),
            Err(NetlistError::BadArity { .. })
        ));
        assert!(matches!(
            nl.add_gate("g", GateKind::Mux, &[a, b]),
            Err(NetlistError::BadArity { expected: 3, .. })
        ));
    }

    #[test]
    fn fanins_must_exist() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        assert!(matches!(
            nl.add_gate("g", GateKind::And, &[a, NodeId(42)]),
            Err(NetlistError::InvalidNode(42))
        ));
    }

    #[test]
    fn outputs_marked_once() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        nl.mark_output(a).unwrap();
        assert!(nl.mark_output(a).is_err());
        assert!(nl.mark_output(NodeId(9)).is_err());
    }

    #[test]
    fn insert_after_redirects_consumers() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let g = nl.add_gate("g", GateKind::And, &[a, b]).unwrap();
        let h = nl.add_gate("h", GateKind::Not, &[g]).unwrap();
        nl.mark_output(g).unwrap();
        nl.mark_output(h).unwrap();

        let k = nl.add_key_input("k0").unwrap();
        let x = nl.insert_after(g, "g_xor", GateKind::Xor, &[k]).unwrap();

        // The new gate reads g and k.
        assert_eq!(nl.node(x).fanins(), &[g, k]);
        // h now reads the new gate instead of g.
        assert_eq!(nl.node(h).fanins(), &[x]);
        // The output list follows too.
        assert_eq!(nl.outputs(), &[x, h]);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn replace_fanin_works() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let g = nl.add_gate("g", GateKind::Or, &[a, b]).unwrap();
        nl.replace_fanin(g, a, c).unwrap();
        assert_eq!(nl.node(g).fanins(), &[c, b]);
        assert!(nl.replace_fanin(g, a, c).is_err(), "a no longer a fanin");
    }

    #[test]
    fn topological_order_respects_edges() {
        let nl = c17_like();
        let order = nl.topological_order();
        let mut pos = vec![0usize; nl.num_nodes()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for id in nl.node_ids() {
            for f in nl.node(id).fanins() {
                assert!(pos[f.index()] < pos[id.index()], "{f} before {id}");
            }
        }
    }

    /// Every node's kind and fanins, and the output list.
    fn shape(nl: &Netlist) -> (Vec<Node>, Vec<NodeId>) {
        (nl.nodes.clone(), nl.outputs.clone())
    }

    #[test]
    fn insert_after_refuses_a_loop() {
        // a -> g = NOT(a) -> h = NOT(g): a gate after g that reads h would
        // make h read the new gate, which reads h.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let g = nl.add_gate("g", GateKind::Not, &[a]).unwrap();
        let h = nl.add_gate("h", GateKind::Not, &[g]).unwrap();
        nl.mark_output(h).unwrap();
        let before = shape(&nl);
        assert_eq!(
            nl.insert_after(g, "x", GateKind::Xor, &[h]),
            Err(NetlistError::Cycle { involving: "g".into() })
        );
        assert_eq!(shape(&nl), before);
        assert!(nl.find("x").is_none(), "a refused gate takes no name");
        // Reading the target itself, or a node beside it, closes no loop.
        let x = nl.insert_after(g, "x", GateKind::Xor, &[g]).unwrap();
        assert_eq!(nl.node(x).fanins(), &[g, g]);
        nl.insert_after(h, "y", GateKind::And, &[a, x]).unwrap();
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn replace_fanin_refuses_a_loop() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let g = nl.add_gate("g", GateKind::And, &[a, b]).unwrap();
        let h = nl.add_gate("h", GateKind::Not, &[g]).unwrap();
        let y = nl.add_gate("y", GateKind::Or, &[h, b]).unwrap();
        nl.mark_output(y).unwrap();
        let before = shape(&nl);
        // A self-loop, and a loop through a consumer two gates down.
        for new in [g, y] {
            assert_eq!(
                nl.replace_fanin(g, a, new),
                Err(NetlistError::Cycle { involving: "g".into() })
            );
            assert_eq!(shape(&nl), before);
        }
        // A node beside the gate is fine.
        let c = nl.add_input("c").unwrap();
        nl.replace_fanin(y, b, a).unwrap();
        nl.replace_fanin(g, a, c).unwrap();
        assert_eq!(nl.node(g).fanins(), &[c, b]);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn key_inputs_are_separate() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let k = nl.add_key_input("keyinput0").unwrap();
        assert_eq!(nl.inputs(), &[a]);
        assert_eq!(nl.key_inputs(), &[k]);
        assert_eq!(nl.node(k).kind(), GateKind::KeyInput);
    }

    #[test]
    fn display_summary() {
        let nl = c17_like();
        let s = nl.to_string();
        assert!(s.contains("c17"));
        assert!(s.contains("5 inputs"));
        assert!(s.contains("6 gates"));
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = NetlistError::UnknownSignal("foo".into()).to_string();
        assert!(e.contains("foo"));
        let e = NetlistError::Cycle { involving: "g1".into() }.to_string();
        assert!(e.contains("g1"));
    }
}
