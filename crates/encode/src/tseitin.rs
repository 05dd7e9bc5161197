//! Tseitin encoding of netlists into CNF, with caller-controlled port
//! bindings and structural hashing.
//!
//! The SAT attack builds many CNF copies of the same circuit that differ
//! only in how ports are presented: the miter shares primary-input variables
//! between two copies while giving each copy its own key variables; the
//! per-DIP consistency constraints pin inputs to constants while sharing key
//! variables with the miter copies. [`Binding`] expresses all of these cases
//! and [`encode`] performs constant propagation on the fly, so pinned copies
//! shrink to just the key-dependent logic. [`ConeEncoder`] produces the
//! per-DIP copies without visiting the rest: it walks only the key cone and
//! reads the other gates' constants from incremental simulation of each
//! pattern.
//!
//! Encoded gates are hash-consed (structural hashing, as in ABC's `strash`):
//! a gate whose kind and normalised fan-in literals match an already
//! encoded gate reuses that gate's literal instead of a fresh variable.
//! [`build_miter`](crate::build_miter) shares one table across both of its
//! copies, so logic the two sides have in common is encoded once and never
//! has to be re-proven equal by search. The miter keeps that table, and the
//! attack's per-DIP copies look their gates up in it before their own. Read
//! in variable order, it also pairs each key-dependent gate of a self-miter's
//! left copy with its right twin (`KeyMirror`).

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use polykey_netlist::analysis::key_controlled_mask;
use polykey_netlist::{GateKind, Netlist, NodeId, Simulator};
use polykey_sat::{ClauseSink, Lit, Var};

/// A CNF-level value: either a literal or a known constant.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CnfValue {
    /// The value of this signal is the literal's value.
    Lit(Lit),
    /// The signal is a known constant.
    Const(bool),
}

impl CnfValue {
    /// Logical negation (free for both representations).
    pub fn negate(self) -> CnfValue {
        match self {
            CnfValue::Lit(l) => CnfValue::Lit(!l),
            CnfValue::Const(b) => CnfValue::Const(!b),
        }
    }

    /// The literal, if this value is not a constant.
    pub fn lit(self) -> Option<Lit> {
        match self {
            CnfValue::Lit(l) => Some(l),
            CnfValue::Const(_) => None,
        }
    }

    /// The constant, if known.
    pub fn constant(self) -> Option<bool> {
        match self {
            CnfValue::Lit(_) => None,
            CnfValue::Const(b) => Some(b),
        }
    }
}

impl From<Lit> for CnfValue {
    fn from(l: Lit) -> CnfValue {
        CnfValue::Lit(l)
    }
}

impl From<bool> for CnfValue {
    fn from(b: bool) -> CnfValue {
        CnfValue::Const(b)
    }
}

/// How one port of the circuit is presented to the encoding.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum PortBinding {
    /// Allocate a fresh solver variable for this port.
    #[default]
    Fresh,
    /// Reuse an existing literal (e.g. shared with another circuit copy).
    Shared(Lit),
    /// Pin the port to a constant; downstream logic is folded away.
    Pinned(bool),
}

/// Port bindings for one circuit copy: one entry per primary input and per
/// key input, in declaration order.
#[derive(Clone, Debug, Default)]
pub struct Binding {
    /// Bindings for the primary inputs.
    pub inputs: Vec<PortBinding>,
    /// Bindings for the key inputs.
    pub keys: Vec<PortBinding>,
}

impl Binding {
    /// All ports fresh: an independent copy of the circuit.
    pub fn fresh(netlist: &Netlist) -> Binding {
        Binding {
            inputs: vec![PortBinding::Fresh; netlist.inputs().len()],
            keys: vec![PortBinding::Fresh; netlist.key_inputs().len()],
        }
    }

    /// Inputs shared with an existing copy, fresh keys.
    pub fn with_shared_inputs(inputs: &[Lit], num_keys: usize) -> Binding {
        Binding {
            inputs: inputs.iter().map(|&l| PortBinding::Shared(l)).collect(),
            keys: vec![PortBinding::Fresh; num_keys],
        }
    }
}

/// The result of encoding one circuit copy.
#[derive(Clone, Debug)]
pub struct EncodedCircuit {
    /// CNF values of the primary inputs, in declaration order.
    pub inputs: Vec<CnfValue>,
    /// CNF values of the key inputs, in declaration order.
    pub keys: Vec<CnfValue>,
    /// CNF values of the outputs, in declaration order.
    pub outputs: Vec<CnfValue>,
}

/// A gate's structural identity after normalisation: gates with equal keys
/// compute the same function of the same variables.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum GateKey {
    /// AND over sorted, deduplicated literals.
    And(Vec<Lit>),
    /// XOR of two distinct variables, smaller first; the table holds the
    /// literal of the positive-polarity XOR.
    Xor(Var, Var),
    /// `s ? d1 : d0` with a positive select: `(s, d0, d1)`.
    Mux(Var, Lit, Lit),
}

impl GateKey {
    /// The key of this gate over fan-ins renamed by `rename` (`None`
    /// leaves a literal as it is), with whether the table's literal for
    /// the renamed key is this gate's renamed literal negated. `None` when
    /// the renaming moves no fan-in. `rename` must commute with negation
    /// and be injective.
    fn renamed(&self, rename: impl Fn(Lit) -> Option<Lit>) -> Option<(GateKey, bool)> {
        let r = |l: Lit| rename(l).unwrap_or(l);
        let renamed = match self {
            GateKey::And(lits) => {
                let mut lits: Vec<Lit> = lits.iter().map(|&l| r(l)).collect();
                lits.sort_unstable();
                (GateKey::And(lits), false)
            }
            GateKey::Xor(a, b) => {
                // The table holds `a ⊕ b` over positive variables; their
                // images may be negated, which flips the shared literal.
                let (a, b) = (r(a.positive()), r(b.positive()));
                let key = GateKey::Xor(a.var().min(b.var()), a.var().max(b.var()));
                (key, a.is_negated() ^ b.is_negated())
            }
            GateKey::Mux(s, d0, d1) => {
                let (s, d0, d1) = (r(s.positive()), r(*d0), r(*d1));
                let key = if s.is_negated() {
                    GateKey::Mux(s.var(), d1, d0)
                } else {
                    GateKey::Mux(s.var(), d0, d1)
                };
                (key, false)
            }
        };
        (renamed.0 != *self).then_some(renamed)
    }
}

/// A multiplicative hasher for [`GateKey`]s, which hash a few small
/// integers each (FxHash's mixing step: rotate, xor, multiply).
#[derive(Default, Clone, Copy)]
struct GateHasher(u64);

impl GateHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for GateHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The structural-hash table of one encoding: every gate encoded so far,
/// by normalised key. It is only meaningful together with the sink whose
/// variables it names.
#[derive(Clone, Default, Debug)]
pub(crate) struct GateTable {
    gates: HashMap<GateKey, Lit, BuildHasherDefault<GateHasher>>,
}

impl GateTable {
    /// Per variable, the twin of its positive literal under the renaming
    /// that sends each literal of `from` to the one at the same position
    /// of `to`, extended from literals to gates: a gate whose key names a
    /// renamed literal has as twin the gate of the renamed key, when the
    /// table holds one. Gates are visited in variable order, which is
    /// encoding order, so a gate's fan-ins have their twins before it.
    pub(crate) fn twins(&self, from: &[Lit], to: &[Lit]) -> Vec<Option<Lit>> {
        let mut entries: Vec<(&GateKey, Lit)> =
            self.gates.iter().map(|(k, &l)| (k, l)).collect();
        entries.sort_unstable_by_key(|&(_, lit)| lit.var());
        let vars = entries.iter().map(|&(_, l)| l).chain(from.iter().copied());
        let mut image = vec![None; vars.map(|l| l.var().index() + 1).max().unwrap_or(0)];
        for (&l, &r) in from.iter().zip(to) {
            image[l.var().index()] = Some(flip_if(r, l.is_negated()));
        }
        for (key, lit) in entries {
            let renamed = key.renamed(|l: Lit| {
                let twin = image.get(l.var().index()).copied().flatten();
                twin.map(|t| flip_if(t, l.is_negated()))
            });
            let Some((renamed, flip)) = renamed else { continue };
            if let Some(&twin) = self.gates.get(&renamed) {
                image[lit.var().index()] = Some(flip_if(twin, flip ^ lit.is_negated()));
            }
        }
        image
    }
}

/// Where one copy looks its gates up: a read-only table of gates encoded
/// earlier in the same sink (the miter's, for per-DIP copies), then the
/// copy's own table, which also records its misses.
struct Strash<'t> {
    shared: Option<&'t GateTable>,
    own: &'t mut GateTable,
}

impl Strash<'_> {
    /// The literal of the gate `key`, encoded by `make` on a miss in both
    /// tables.
    fn lookup(&mut self, key: GateKey, make: impl FnOnce(&GateKey) -> Lit) -> Lit {
        if let Some(&hit) = self.shared.and_then(|t| t.gates.get(&key)) {
            return hit;
        }
        match self.own.gates.entry(key) {
            Entry::Occupied(hit) => *hit.get(),
            Entry::Vacant(miss) => {
                let lit = make(miss.key());
                *miss.insert(lit)
            }
        }
    }
}

/// Errors raised by encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Binding vector length does not match the port count.
    BindingWidth {
        /// "inputs" or "keys".
        which: &'static str,
        /// Ports in the netlist.
        expected: usize,
        /// Bindings supplied.
        got: usize,
    },
    /// Two netlists that must share an interface (the sides of a miter)
    /// have different arity.
    InterfaceMismatch {
        /// Description of the mismatching port class.
        what: &'static str,
        /// Arity on the left.
        left: usize,
        /// Arity on the right.
        right: usize,
    },
    /// Equivalence checking requires keyless circuits; pin keys first
    /// (e.g. with `polykey_netlist::pin_keys`).
    HasKeyInputs {
        /// Name of the offending circuit.
        name: String,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::BindingWidth { which, expected, got } => {
                write!(f, "binding for {which} has {got} entries, netlist has {expected}")
            }
            EncodeError::InterfaceMismatch { what, left, right } => {
                write!(f, "interface mismatch: {left} vs {right} {what}")
            }
            EncodeError::HasKeyInputs { name } => {
                write!(f, "circuit `{name}` still has key inputs; pin them before checking")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encodes one copy of `netlist` into `sink` under the given port bindings.
///
/// Constants propagate during encoding: gates whose value is forced by
/// pinned ports produce no variables or clauses. Inverting gates (`Not`,
/// `Nand`, `Nor`, `Xnor`) reuse their base gate's variable with a negated
/// literal, costing nothing extra. Structurally identical gates (same kind
/// over the same normalised fan-in literals, e.g. `OR(a, b)` and
/// `NAND(¬a, ¬b)`) share one variable.
///
/// # Errors
///
/// Returns [`EncodeError::BindingWidth`] on port-count mismatch.
pub fn encode<S: ClauseSink>(
    sink: &mut S,
    netlist: &Netlist,
    binding: &Binding,
) -> Result<EncodedCircuit, EncodeError> {
    encode_shared(sink, &mut GateTable::default(), netlist, binding)
}

/// [`encode`] against a structural-hash table that earlier copies in the
/// same `sink` have filled: gates this copy has in common with them reuse
/// their literals.
pub(crate) fn encode_shared<S: ClauseSink>(
    sink: &mut S,
    table: &mut GateTable,
    netlist: &Netlist,
    binding: &Binding,
) -> Result<EncodedCircuit, EncodeError> {
    if binding.inputs.len() != netlist.inputs().len() {
        return Err(EncodeError::BindingWidth {
            which: "inputs",
            expected: netlist.inputs().len(),
            got: binding.inputs.len(),
        });
    }
    if binding.keys.len() != netlist.key_inputs().len() {
        return Err(EncodeError::BindingWidth {
            which: "keys",
            expected: netlist.key_inputs().len(),
            got: binding.keys.len(),
        });
    }
    let order = netlist.topological_order();
    let mut values: Vec<Option<CnfValue>> = vec![None; netlist.num_nodes()];

    let bind_port = |sink: &mut S, b: PortBinding| -> CnfValue {
        match b {
            PortBinding::Fresh => CnfValue::Lit(sink.new_var().positive()),
            PortBinding::Shared(l) => CnfValue::Lit(l),
            PortBinding::Pinned(v) => CnfValue::Const(v),
        }
    };
    let mut input_values = Vec::with_capacity(binding.inputs.len());
    for (i, &pi) in netlist.inputs().iter().enumerate() {
        let v = bind_port(sink, binding.inputs[i]);
        values[pi.index()] = Some(v);
        input_values.push(v);
    }
    let mut key_values = Vec::with_capacity(binding.keys.len());
    for (i, &ki) in netlist.key_inputs().iter().enumerate() {
        let v = bind_port(sink, binding.keys[i]);
        values[ki.index()] = Some(v);
        key_values.push(v);
    }

    let mut strash = Strash { shared: None, own: table };
    for &id in order {
        let node = netlist.node(id);
        if node.kind().is_input() {
            continue;
        }
        let fanins: Vec<CnfValue> =
            node.fanins().iter().map(|f| values[f.index()].expect("topo order")).collect();
        values[id.index()] = Some(encode_gate(sink, &mut strash, node.kind(), &fanins));
    }

    let outputs =
        netlist.outputs().iter().map(|o| values[o.index()].expect("outputs encoded")).collect();
    Ok(EncodedCircuit { inputs: input_values, keys: key_values, outputs })
}

/// The part of a [`ConeEncoder`] that depends on the netlist alone: which
/// nodes the keys control, and the key-controlled gates in topological
/// order. An attack session computes it once and lends it to every run's
/// encoder.
#[derive(Clone, Debug)]
pub(crate) struct ConePlan {
    /// The key-controlled gates, in topological order.
    cone: Vec<NodeId>,
    /// Per node: whether the keys control it ([`key_controlled_mask`]).
    keyed: Vec<bool>,
}

impl ConePlan {
    /// The cone of `netlist`'s key inputs.
    pub(crate) fn new(netlist: &Netlist) -> ConePlan {
        let keyed = key_controlled_mask(netlist);
        let cone = netlist
            .topological_order()
            .iter()
            .copied()
            .filter(|&id| keyed[id.index()] && !netlist.node(id).kind().is_input())
            .collect();
        ConePlan { cone, keyed }
    }

    /// Whether the keys control `id`.
    pub(crate) fn controls(&self, id: NodeId) -> bool {
        self.keyed[id.index()]
    }
}

/// Encodes per-DIP constraint copies: inputs pinned to a pattern, keys
/// shared with existing literals, and only the key cone visited.
///
/// With every primary input pinned, the nodes outside the transitive
/// fan-out of the key inputs are constants. The encoder computes the
/// topological order and that cone once. Each pattern is simulated
/// incrementally ([`Simulator::node_values`]): consecutive DIPs differ in
/// a few inputs, so this costs a small part of a full simulation pass. A
/// copy then encodes the cone gates in their topological order against a
/// structural-hash table of its own, cleared per copy, and reads every
/// fan-in outside the cone as the simulator's constant. The off-cone gates
/// would have folded without emitting anything, so a copy adds exactly the
/// variables and clauses, in the same order, as [`encode`] under inputs
/// [`PortBinding::Pinned`] to the pattern and keys [`PortBinding::Shared`].
/// An output outside the cone comes back as a constant.
///
/// The attack's encoders ([`DipConstraints`](crate::DipConstraints)) share
/// their session's cone instead of computing their own, and first look
/// each gate up in the miter's table: key-only logic the miter already
/// encodes reuses the miter's literal and adds nothing. The attack encodes
/// one copy per DIP, over the left keys, and renames it onto the right
/// ones.
#[derive(Debug)]
pub struct ConeEncoder<'n> {
    netlist: &'n Netlist,
    /// The miter's table, read before the copy's own.
    shared: Option<&'n GateTable>,
    plan: Cow<'n, ConePlan>,
    /// Simulates the netlist under the all-zero key; its words of the
    /// nodes the keys do not control are the copy's constants.
    sim: Simulator<'n>,
    zero_keys: Vec<bool>,
    /// The current copy's values of the key-controlled nodes.
    values: Vec<CnfValue>,
    fanins: Vec<CnfValue>,
    table: GateTable,
}

impl<'n> ConeEncoder<'n> {
    /// Prepares the cone of `netlist` for encoding.
    pub fn new(netlist: &'n Netlist) -> ConeEncoder<'n> {
        ConeEncoder::over(netlist, Cow::Owned(ConePlan::new(netlist)), None)
    }

    /// An encoder of `netlist` along `plan`, `ConePlan::new` of it,
    /// whose copies also reuse the gates of `shared`, a table filled in
    /// the sink they are encoded into.
    pub(crate) fn over(
        netlist: &'n Netlist,
        plan: Cow<'n, ConePlan>,
        shared: Option<&'n GateTable>,
    ) -> ConeEncoder<'n> {
        ConeEncoder {
            netlist,
            shared,
            plan,
            sim: Simulator::new(netlist).expect("every netlist can be simulated"),
            zero_keys: vec![false; netlist.key_inputs().len()],
            values: vec![CnfValue::Const(false); netlist.num_nodes()],
            fanins: Vec::new(),
            table: GateTable::default(),
        }
    }

    /// Encodes one copy with inputs pinned to `pattern` and keys bound to
    /// `keys`, returning its output values in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` or `keys` does not match the netlist's input
    /// and key port counts.
    pub fn encode<S: ClauseSink>(
        &mut self,
        sink: &mut S,
        pattern: &[bool],
        keys: &[Lit],
    ) -> Vec<CnfValue> {
        let nl = self.netlist;
        assert_eq!(pattern.len(), nl.inputs().len(), "one pattern bit per input");
        assert_eq!(keys.len(), nl.key_inputs().len(), "one key literal per key input");
        let ConeEncoder { shared, plan, sim, zero_keys, values, fanins, table, .. } = self;
        let ConePlan { cone, keyed } = &**plan;
        let words = sim.node_values(pattern, zero_keys);
        // A node's value in this copy: its encoding if the keys control it,
        // its simulated constant otherwise.
        let value = |values: &[CnfValue], id: NodeId| {
            if keyed[id.index()] {
                values[id.index()]
            } else {
                CnfValue::Const(words[id.index()] & 1 == 1)
            }
        };
        for (&k, &lit) in nl.key_inputs().iter().zip(keys) {
            values[k.index()] = CnfValue::Lit(lit);
        }
        table.gates.clear();
        let mut strash = Strash { shared: *shared, own: table };
        for &id in cone {
            let node = nl.node(id);
            fanins.clear();
            fanins.extend(node.fanins().iter().map(|&f| value(values, f)));
            values[id.index()] = encode_gate(sink, &mut strash, node.kind(), fanins);
        }
        nl.outputs().iter().map(|&o| value(values, o)).collect()
    }
}

/// Encodes a single gate, folding constants.
fn encode_gate<S: ClauseSink>(
    sink: &mut S,
    strash: &mut Strash<'_>,
    kind: GateKind,
    fanins: &[CnfValue],
) -> CnfValue {
    match kind {
        GateKind::Input | GateKind::KeyInput => unreachable!("handled by caller"),
        GateKind::Const(v) => CnfValue::Const(v),
        GateKind::Buf => fanins[0],
        GateKind::Not => fanins[0].negate(),
        GateKind::And => encode_and(sink, strash, fanins),
        GateKind::Nand => encode_and(sink, strash, fanins).negate(),
        GateKind::Or => encode_and(sink, strash, &negate_all(fanins)).negate(),
        GateKind::Nor => encode_and(sink, strash, &negate_all(fanins)),
        GateKind::Xor => encode_xor(sink, strash, fanins),
        GateKind::Xnor => encode_xor(sink, strash, fanins).negate(),
        GateKind::Mux => encode_mux(sink, strash, fanins[0], fanins[1], fanins[2]),
    }
}

fn negate_all(fanins: &[CnfValue]) -> Vec<CnfValue> {
    fanins.iter().map(|v| v.negate()).collect()
}

/// `l` negated when `flip` holds.
pub(crate) fn flip_if(l: Lit, flip: bool) -> Lit {
    if flip {
        !l
    } else {
        l
    }
}

/// `y = AND(fanins)` with constant folding and degenerate-case elision.
fn encode_and<S: ClauseSink>(
    sink: &mut S,
    strash: &mut Strash<'_>,
    fanins: &[CnfValue],
) -> CnfValue {
    let mut lits: Vec<Lit> = Vec::with_capacity(fanins.len());
    for &v in fanins {
        match v {
            CnfValue::Const(false) => return CnfValue::Const(false),
            CnfValue::Const(true) => {}
            CnfValue::Lit(l) => lits.push(l),
        }
    }
    lits.sort_unstable();
    lits.dedup();
    // x ∧ ¬x = 0.
    for w in lits.windows(2) {
        if w[0] == !w[1] {
            return CnfValue::Const(false);
        }
    }
    match lits.len() {
        0 => CnfValue::Const(true),
        1 => CnfValue::Lit(lits[0]),
        _ => CnfValue::Lit(strash.lookup(GateKey::And(lits), |key| {
            let GateKey::And(lits) = key else { unreachable!("keyed as AND") };
            let y = sink.new_var().positive();
            // y → l_i, and (∧ l_i) → y.
            let mut long = Vec::with_capacity(lits.len() + 1);
            long.push(y);
            for &l in lits {
                sink.add_clause(&[!y, l]);
                long.push(!l);
            }
            sink.add_clause(&long);
            y
        })),
    }
}

/// Parity via a chain of binary XOR variables.
fn encode_xor<S: ClauseSink>(
    sink: &mut S,
    strash: &mut Strash<'_>,
    fanins: &[CnfValue],
) -> CnfValue {
    let mut acc = CnfValue::Const(false);
    for &v in fanins {
        acc = encode_xor2(sink, strash, acc, v);
    }
    acc
}

fn encode_xor2<S: ClauseSink>(
    sink: &mut S,
    strash: &mut Strash<'_>,
    a: CnfValue,
    b: CnfValue,
) -> CnfValue {
    match (a, b) {
        (CnfValue::Const(x), CnfValue::Const(y)) => CnfValue::Const(x ^ y),
        (CnfValue::Const(false), v) | (v, CnfValue::Const(false)) => v,
        (CnfValue::Const(true), v) | (v, CnfValue::Const(true)) => v.negate(),
        (CnfValue::Lit(x), CnfValue::Lit(y)) => {
            if x == y {
                return CnfValue::Const(false);
            }
            if x == !y {
                return CnfValue::Const(true);
            }
            // x ⊕ y = var(x) ⊕ var(y) ⊕ parity: the key drops the signs,
            // the parity flips the shared literal.
            let parity = x.is_negated() ^ y.is_negated();
            let key = GateKey::Xor(x.var().min(y.var()), x.var().max(y.var()));
            let positive = strash.lookup(key, |_| {
                let y2 = sink.new_var().positive();
                sink.add_clause(&[!y2, x, y]);
                sink.add_clause(&[!y2, !x, !y]);
                sink.add_clause(&[y2, !x, y]);
                sink.add_clause(&[y2, x, !y]);
                flip_if(y2, parity)
            });
            CnfValue::Lit(flip_if(positive, parity))
        }
    }
}

/// `y = s ? d1 : d0`.
fn encode_mux<S: ClauseSink>(
    sink: &mut S,
    strash: &mut Strash<'_>,
    s: CnfValue,
    d0: CnfValue,
    d1: CnfValue,
) -> CnfValue {
    match s {
        CnfValue::Const(true) => d1,
        CnfValue::Const(false) => d0,
        CnfValue::Lit(sl) => {
            if d0 == d1 {
                return d0;
            }
            match (d0, d1) {
                (CnfValue::Const(false), CnfValue::Const(true)) => CnfValue::Lit(sl),
                (CnfValue::Const(true), CnfValue::Const(false)) => CnfValue::Lit(!sl),
                (CnfValue::Const(false), d1) => {
                    encode_and(sink, strash, &[CnfValue::Lit(sl), d1])
                }
                (CnfValue::Const(true), d1) => {
                    // ¬s ∨ d1 = ¬(s ∧ ¬d1)
                    encode_and(sink, strash, &[CnfValue::Lit(sl), d1.negate()]).negate()
                }
                (d0, CnfValue::Const(false)) => {
                    encode_and(sink, strash, &[CnfValue::Lit(!sl), d0])
                }
                (d0, CnfValue::Const(true)) => {
                    encode_and(sink, strash, &[CnfValue::Lit(!sl), d0.negate()]).negate()
                }
                (CnfValue::Lit(a), CnfValue::Lit(b)) => {
                    // ¬s ? b : a is s ? a : b.
                    let key = if sl.is_negated() {
                        GateKey::Mux(sl.var(), b, a)
                    } else {
                        GateKey::Mux(sl.var(), a, b)
                    };
                    let y = strash.lookup(key, |_| {
                        let y = sink.new_var().positive();
                        // s → (y = b)
                        sink.add_clause(&[!sl, !y, b]);
                        sink.add_clause(&[!sl, y, !b]);
                        // ¬s → (y = a)
                        sink.add_clause(&[sl, !y, a]);
                        sink.add_clause(&[sl, y, !a]);
                        y
                    });
                    CnfValue::Lit(y)
                }
            }
        }
    }
}

/// Asserts that two CNF values are equal, without fixing what the value is.
///
/// Used by the batched SAT attack to mark a harvested DIP as *resolved*
/// before the oracle has answered it: requiring the two key copies to agree
/// at that input is a relaxation of the eventual response constraint, so no
/// consistent key pair is lost — but the miter can no longer propose a key
/// pair that the pending answer would eliminate anyway.
pub fn assert_equal<S: ClauseSink>(sink: &mut S, a: CnfValue, b: CnfValue) {
    match (a, b) {
        (CnfValue::Const(x), CnfValue::Const(y)) => {
            if x != y {
                sink.add_clause(&[]);
            }
        }
        (CnfValue::Lit(l), CnfValue::Const(c)) | (CnfValue::Const(c), CnfValue::Lit(l)) => {
            sink.add_clause(&[if c { l } else { !l }]);
        }
        (CnfValue::Lit(l), CnfValue::Lit(r)) => {
            sink.add_clause(&[!l, r]);
            sink.add_clause(&[l, !r]);
        }
    }
}

/// Asserts that a CNF value equals a boolean constant. For a constant value
/// that disagrees, adds the empty clause (making the formula unsatisfiable),
/// which faithfully encodes the contradiction.
pub fn assert_value<S: ClauseSink>(sink: &mut S, value: CnfValue, expected: bool) {
    match value {
        CnfValue::Lit(l) => {
            let lit = if expected { l } else { !l };
            sink.add_clause(&[lit]);
        }
        CnfValue::Const(b) => {
            if b != expected {
                sink.add_clause(&[]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_netlist::{bits_of, GateKind, Netlist, Simulator};
    use polykey_sat::{SolveResult, Solver};

    /// Builds a 3-input test circuit with a couple of gate types.
    fn sample() -> Netlist {
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let g1 = nl.add_gate("g1", GateKind::Nand, &[a, b]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Xor, &[g1, c]).unwrap();
        let g3 = nl.add_gate("g3", GateKind::Mux, &[a, g2, c]).unwrap();
        nl.mark_output(g2).unwrap();
        nl.mark_output(g3).unwrap();
        nl
    }

    /// The encoded CNF must agree with simulation on every input pattern.
    fn check_against_simulation(nl: &Netlist) {
        let ni = nl.inputs().len();
        let nk = nl.key_inputs().len();
        let mut sim = Simulator::new(nl).unwrap();
        for v in 0..(1u64 << (ni + nk)) {
            let bits = bits_of(v, ni + nk);
            let (ibits, kbits) = bits.split_at(ni);
            let expected = sim.eval(ibits, kbits);

            let mut solver = Solver::new();
            let enc = encode(&mut solver, nl, &Binding::fresh(nl)).unwrap();
            for (val, &b) in enc.inputs.iter().zip(ibits) {
                assert_value(&mut solver, *val, b);
            }
            for (val, &b) in enc.keys.iter().zip(kbits) {
                assert_value(&mut solver, *val, b);
            }
            assert_eq!(solver.solve(&[]), SolveResult::Sat);
            for (o, val) in enc.outputs.iter().enumerate() {
                let got = match val {
                    CnfValue::Lit(l) => solver.model_value(*l).expect("assigned"),
                    CnfValue::Const(b) => *b,
                };
                assert_eq!(got, expected[o], "output {o} at pattern {v:b}");
            }
        }
    }

    #[test]
    fn encoding_matches_simulation() {
        check_against_simulation(&sample());
    }

    #[test]
    fn encoding_matches_simulation_with_keys() {
        let mut nl = Netlist::new("locked");
        let a = nl.add_input("a").unwrap();
        let k0 = nl.add_key_input("k0").unwrap();
        let k1 = nl.add_key_input("k1").unwrap();
        let x = nl.add_gate("x", GateKind::Xnor, &[a, k0]).unwrap();
        let y = nl.add_gate("y", GateKind::Or, &[x, k1]).unwrap();
        nl.mark_output(y).unwrap();
        check_against_simulation(&nl);
    }

    #[test]
    fn structurally_equal_gates_share_a_variable() {
        // Each pair computes one function of the same variables, written
        // with different kinds, fan-in order or polarities.
        let mut nl = Netlist::new("strash");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let s = nl.add_input("s").unwrap();
        let na = nl.add_gate("na", GateKind::Not, &[a]).unwrap();
        let nb = nl.add_gate("nb", GateKind::Not, &[b]).unwrap();
        let ns = nl.add_gate("ns", GateKind::Not, &[s]).unwrap();
        let pairs = [
            (GateKind::Or, vec![a, b], GateKind::Nand, vec![nb, na]),
            (GateKind::Xor, vec![a, b], GateKind::Xnor, vec![na, b]),
            (GateKind::Xnor, vec![a, b], GateKind::Xor, vec![b, na]),
            (GateKind::Mux, vec![s, a, b], GateKind::Mux, vec![ns, b, a]),
        ];
        for (i, (k1, f1, k2, f2)) in pairs.iter().enumerate() {
            let g1 = nl.add_gate(format!("l{i}"), *k1, f1).unwrap();
            let g2 = nl.add_gate(format!("r{i}"), *k2, f2).unwrap();
            nl.mark_output(g1).unwrap();
            nl.mark_output(g2).unwrap();
        }
        let mut solver = Solver::new();
        let enc = encode(&mut solver, &nl, &Binding::fresh(&nl)).unwrap();
        for pair in enc.outputs.chunks(2) {
            assert_eq!(pair[0], pair[1], "equal structure, one literal");
        }
        // Three inputs plus one variable each for OR, XOR and MUX.
        assert_eq!(solver.num_vars(), 6);
        check_against_simulation(&nl);
    }

    #[test]
    fn pinned_inputs_fold_everything() {
        let nl = sample();
        let mut solver = Solver::new();
        let binding = Binding {
            inputs: [true, false, true].map(PortBinding::Pinned).to_vec(),
            keys: Vec::new(),
        };
        let enc = encode(&mut solver, &nl, &binding).unwrap();
        // No keys, all inputs pinned: outputs must be compile-time constants
        // and the solver must have received no variables at all.
        assert_eq!(solver.num_vars(), 0);
        let mut sim = Simulator::new(&nl).unwrap();
        let expected = sim.eval(&[true, false, true], &[]);
        for (o, val) in enc.outputs.iter().enumerate() {
            assert_eq!(val.constant(), Some(expected[o]));
        }
    }

    #[test]
    fn shared_inputs_are_reused() {
        let nl = sample();
        let mut solver = Solver::new();
        let enc1 = encode(&mut solver, &nl, &Binding::fresh(&nl)).unwrap();
        let shared: Vec<Lit> = enc1.inputs.iter().map(|v| v.lit().unwrap()).collect();
        let enc2 = encode(&mut solver, &nl, &Binding::with_shared_inputs(&shared, 0)).unwrap();
        // Same inputs ⇒ same outputs: the miter over a circuit and itself
        // with shared ports is unsatisfiable when outputs are forced apart.
        let (o1, o2) = (enc1.outputs[0].lit().unwrap(), enc2.outputs[0].lit().unwrap());
        solver.add_clause(&[o1, o2]);
        solver.add_clause(&[!o1, !o2]);
        assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn binding_width_checked() {
        let nl = sample();
        let mut solver = Solver::new();
        let bad = Binding { inputs: vec![PortBinding::Fresh; 2], keys: vec![] };
        let err = encode(&mut solver, &nl, &bad).unwrap_err();
        assert!(matches!(err, EncodeError::BindingWidth { which: "inputs", .. }));
        assert!(err.to_string().contains("2 entries"));
    }

    #[test]
    fn assert_value_on_conflicting_const_is_unsat() {
        let mut solver = Solver::new();
        assert_value(&mut solver, CnfValue::Const(true), false);
        assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn cnf_value_algebra() {
        let l = polykey_sat::Var::new(0).positive();
        assert_eq!(CnfValue::Lit(l).negate(), CnfValue::Lit(!l));
        assert_eq!(CnfValue::Const(true).negate(), CnfValue::Const(false));
        assert_eq!(CnfValue::from(l).lit(), Some(l));
        assert_eq!(CnfValue::from(true).constant(), Some(true));
        assert_eq!(CnfValue::Lit(l).constant(), None);
    }
}
