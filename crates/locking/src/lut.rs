//! LUT-based insertion: reconfigurable-logic obfuscation (Chowdhury et al.,
//! ISCAS'21 — reference [6] of the paper).
//!
//! A two-stage tree of key-programmed look-up tables is spliced into a
//! wire: stage-1 LUTs read the protected wire plus tapped nets, and a
//! stage-2 LUT combines the stage-1 outputs with further taps. Each
//! `w`-input LUT contributes `2^w` key bits, so the paper's "14-input
//! 2-stage LUT" yields a key in the 140–160 bit range (the exact internal
//! decomposition is not published; [`LutLock::paper`] picks 144 bits).
//! Every LUT is built as a MUX tree over its key bits, which makes the
//! per-iteration miter CNF large — the property that slows the baseline
//! SAT attack in Table 2.

use rand::{Rng, RngExt};

use polykey_netlist::analysis::{levels, transitive_fanout};
use polykey_netlist::{GateKind, Netlist, NodeId};

use crate::common::{key_name, require_unlocked, Key, LockError, LockedCircuit};
use crate::scheme::{placement_rng, require_key_width, LockScheme};

/// Two-stage LUT insertion as a [`LockScheme`].
///
/// The key bits are the LUT table entries. Per-entry polarity inverters
/// (fixed at lock time) make the *requested* key program the canonical
/// identity tables, so any key of the right width is a correct key for its
/// own locked circuit — while wrong keys reprogram the tables and corrupt
/// the function.
///
/// # Examples
///
/// ```
/// use polykey_locking::{Key, LockScheme, LutLock};
/// use polykey_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a")?;
/// let b = nl.add_input("b")?;
/// let c = nl.add_input("c")?;
/// let g = nl.add_gate("g", GateKind::And, &[a, b])?;
/// let y = nl.add_gate("y", GateKind::Xor, &[g, c])?;
/// nl.mark_output(y)?;
///
/// let scheme = LutLock::new(vec![2], 0).with_seed(3);
/// assert_eq!(scheme.key_bits(), 4 + 2);
/// let locked = scheme.lock(&nl, &Key::from_u64(0b10_1100, 6))?;
/// assert_eq!(locked.netlist.key_inputs().len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use]
pub struct LutLock {
    /// Input widths of the stage-1 LUTs. Each reads the protected wire (for
    /// the first LUT) or tapped nets.
    pub stage1: Vec<usize>,
    /// Number of extra direct taps into the stage-2 LUT (its width is
    /// `stage1.len() + stage2_extra`).
    pub stage2_extra: usize,
    /// Seed driving wire and tap selection (same seed ⇒ same placement).
    pub seed: u64,
}

impl LutLock {
    /// A LUT scheme with the given stage-1 widths and stage-2 extra taps.
    pub fn new(stage1: Vec<usize>, stage2_extra: usize) -> LutLock {
        LutLock { stage1, stage2_extra, seed: 0 }
    }

    /// The paper's configuration: two 6-input stage-1 LUTs and a 4-input
    /// stage-2 LUT — a 14-input two-stage module with 144 key bits
    /// (64 + 64 + 16).
    pub fn paper() -> LutLock {
        LutLock::new(vec![6, 6], 2)
    }

    /// A scaled-down configuration for quick runs: two 3-input stage-1 LUTs
    /// and a 3-input stage-2 LUT (8 + 8 + 8 = 24 key bits, 7 tapped nets).
    pub fn small() -> LutLock {
        LutLock::new(vec![3, 3], 1)
    }

    /// Replaces the placement seed.
    pub fn with_seed(mut self, seed: u64) -> LutLock {
        self.seed = seed;
        self
    }

    /// Total key bits: `Σ 2^w` over stage-1 plus `2^(len+extra)` for
    /// stage 2.
    #[must_use]
    pub fn key_bits(&self) -> usize {
        let s1: usize = self.stage1.iter().map(|w| 1usize << w).sum();
        s1 + (1usize << (self.stage1.len() + self.stage2_extra))
    }

    /// Distinct circuit nets consumed by the module (the protected wire
    /// counts as one).
    #[must_use]
    pub fn module_inputs(&self) -> usize {
        self.stage1.iter().sum::<usize>() + self.stage2_extra
    }
}

impl Default for LutLock {
    /// The scaled-down [`LutLock::small`] configuration.
    fn default() -> LutLock {
        LutLock::small()
    }
}

impl LockScheme for LutLock {
    fn name(&self) -> &str {
        "lut"
    }

    fn key_len(&self, _netlist: &Netlist) -> usize {
        self.key_bits()
    }

    fn lock(&self, netlist: &Netlist, key: &Key) -> Result<LockedCircuit, LockError> {
        require_key_width(self.key_bits(), key)?;
        lock_lut_with(
            netlist,
            &self.stage1,
            self.stage2_extra,
            key,
            &mut placement_rng(self.seed),
        )
    }
}

/// Locks `netlist` by splicing a two-stage LUT module into one wire, with
/// the table programmed so `key` is correct.
///
/// The canonical (correct-key) behavior configures the first stage-1 LUT
/// as an identity on the protected wire and the stage-2 LUT as an identity
/// on that LUT's output; the remaining table entries take the key's own
/// bits, so the key is fully used. Per-entry inverters reconcile the
/// requested key with the canonical tables.
fn lock_lut_with(
    netlist: &Netlist,
    stage1: &[usize],
    stage2_extra: usize,
    key: &Key,
    rng: &mut dyn Rng,
) -> Result<LockedCircuit, LockError> {
    require_unlocked(netlist)?;
    if stage1.is_empty() {
        return Err(LockError::TooSmall { what: "at least one stage-1 lut" });
    }
    let spec = LutLock { stage1: stage1.to_vec(), stage2_extra, seed: 0 };
    let taps_needed = spec.module_inputs() - 1; // protected wire is input 0

    // Choose a protected wire: an internal gate with enough nodes outside
    // its fanout cone to serve as taps.
    let gates: Vec<NodeId> = netlist
        .node_ids()
        .filter(|&id| {
            let kind = netlist.node(id).kind();
            !kind.is_input() && !matches!(kind, GateKind::Const(_))
        })
        .collect();
    if gates.is_empty() {
        return Err(LockError::TooSmall { what: "at least one internal gate" });
    }
    let mut order: Vec<NodeId> = gates.clone();
    // Deterministic shuffle driven by the placement RNG.
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    // Prefer wires with small fanout cones (output-side cones): the LUT
    // module then dominates the key-controlled influence of the tapped
    // inputs, which is both how cone-replacement locking places modules and
    // what the paper's fan-out-cone analysis assumes. Stable sort keeps the
    // shuffled order within equal cone sizes.
    let cone_size: Vec<usize> = netlist
        .node_ids()
        .map(|id| transitive_fanout(netlist, &[id]).iter().filter(|&&b| b).count())
        .collect();
    order.sort_by_key(|id| cone_size[id.index()]);
    // Tap selection. The scheme is an N-*input* LUT module: its select
    // nets come from the input side of the design (the support of the cone
    // being replaced). Tapping primary inputs directly is the faithful
    // realization — and it is what puts the LUT select lines among the
    // multi-key attack's candidate split ports. When a design has too few
    // inputs, fall back to the shallowest internal nets.
    let node_levels = levels(netlist);
    let mut chosen: Option<(NodeId, Vec<NodeId>)> = None;
    for &target in &order {
        let cone = transitive_fanout(netlist, &[target]);
        // Primary inputs are never in an internal gate's fanout cone, so
        // they are always cycle-safe taps.
        let mut candidates: Vec<NodeId> = netlist.inputs().to_vec();
        if candidates.len() < taps_needed {
            // Fall back to shallow cycle-safe internal nets.
            let mut extra: Vec<NodeId> = netlist
                .node_ids()
                .filter(|&id| {
                    !cone[id.index()]
                        && id != target
                        && !netlist.node(id).kind().is_input()
                        && !matches!(netlist.node(id).kind(), GateKind::Const(_))
                })
                .collect();
            extra.sort_by_key(|id| node_levels[id.index()]);
            candidates.extend(extra);
        }
        if candidates.len() < taps_needed {
            continue;
        }
        candidates.truncate(taps_needed.max(netlist.inputs().len()));
        // Sample distinct taps.
        let mut taps = Vec::with_capacity(taps_needed);
        for _ in 0..taps_needed {
            let i = rng.random_range(0..candidates.len());
            taps.push(candidates.swap_remove(i));
        }
        chosen = Some((target, taps));
        break;
    }
    let (target, taps) = chosen
        .ok_or(LockError::TooSmall { what: "a wire with enough cycle-free tap candidates" })?;

    let mut locked = netlist.clone();
    locked.set_name(format!("{}_lut{}", netlist.name(), spec.key_bits()));

    // Splice preparation: insert a buffer after the protected wire FIRST, so
    // every *original* consumer reads the buffer. The LUT module (built
    // next) reads the wire directly; re-pointing the buffer at the module
    // output afterwards closes the splice without redirecting the module's
    // own select inputs (which would form a combinational cycle).
    let splice_buf = {
        let name = format!("{}_spliced", locked.node_name(target));
        locked.insert_after(target, name, GateKind::Buf, &[])?
    };

    // Allocate all key inputs up front, stage-1 tables first.
    let total_keys = spec.key_bits();
    let key_nodes: Vec<NodeId> = (0..total_keys)
        .map(|i| {
            let name = key_name(&locked, i);
            locked.add_key_input(name)
        })
        .collect::<Result<_, _>>()?;

    // Canonical (correct-key) table: LUT 0 of stage 1 = identity on its
    // top select bit (the protected wire, wired to the MSB so it feeds
    // only the tree root); other stage-1 LUTs take the key's own bits;
    // stage-2 = identity on select bit 0 (= LUT 0's output).
    let mut canonical: Vec<bool> = (0..total_keys).map(|i| key.bit(i)).collect();
    {
        let w0 = stage1[0];
        for (idx, slot) in canonical.iter_mut().enumerate().take(1usize << w0) {
            *slot = idx >> (w0 - 1) & 1 == 1; // table[i] = MSB of i
        }
        let s1_total: usize = stage1.iter().map(|w| 1usize << w).sum();
        let w2 = stage1.len() + stage2_extra;
        for idx in 0..(1usize << w2) {
            canonical[s1_total + idx] = idx & 1 == 1;
        }
    }

    // Table-entry drivers: where the requested key bit already equals the
    // canonical entry the key input drives the entry directly; elsewhere a
    // fixed inverter reconciles them, so the requested key programs the
    // canonical tables exactly.
    let entries: Vec<NodeId> = key_nodes
        .iter()
        .enumerate()
        .map(|(idx, &k)| {
            if key.bit(idx) == canonical[idx] {
                Ok(k)
            } else {
                locked.add_gate(format!("lut_inv{idx}"), GateKind::Not, &[k])
            }
        })
        .collect::<Result<_, _>>()?;

    // Build stage 1. The first LUT's selects are [taps…, target] (target
    // last = MSB); later LUTs read taps only.
    let mut tap_iter = taps.into_iter();
    let mut key_off = 0usize;
    let mut stage1_outs = Vec::with_capacity(stage1.len());
    for (li, &w) in stage1.iter().enumerate() {
        let mut selects = Vec::with_capacity(w);
        let fill = if li == 0 { w - 1 } else { w };
        while selects.len() < fill {
            selects.push(tap_iter.next().expect("tap count precomputed"));
        }
        if li == 0 {
            selects.push(target);
        }
        let table = &entries[key_off..key_off + (1 << w)];
        key_off += 1 << w;
        let out = build_mux_tree(&mut locked, &selects, table, &format!("lut{li}"))?;
        stage1_outs.push(out);
    }
    // Stage 2: selects are the stage-1 outputs plus extra taps.
    let mut selects2 = stage1_outs;
    for _ in 0..stage2_extra {
        selects2.push(tap_iter.next().expect("tap count precomputed"));
    }
    let w2 = selects2.len();
    let table2 = &entries[key_off..key_off + (1 << w2)];
    let module_out = build_mux_tree(&mut locked, &selects2, table2, "lut_s2")?;

    // Close the splice: original consumers (reading the buffer) now see the
    // module output.
    locked.replace_fanin(splice_buf, target, module_out)?;

    Ok(LockedCircuit { netlist: locked, key: key.clone() })
}

/// Builds a `w`-input LUT as a MUX tree: `selects[j]` is select bit `j`
/// (bit 0 = fastest-varying table index), `table[i]` drives entry `i`.
/// Returns the tree's root node.
fn build_mux_tree(
    nl: &mut Netlist,
    selects: &[NodeId],
    table: &[NodeId],
    prefix: &str,
) -> Result<NodeId, LockError> {
    assert_eq!(table.len(), 1 << selects.len());
    let mut layer: Vec<NodeId> = table.to_vec();
    for (level, &sel) in selects.iter().enumerate() {
        let mut next = Vec::with_capacity(layer.len() / 2);
        for (pair, chunk) in layer.chunks(2).enumerate() {
            // Entries 2i (sel=0) and 2i+1 (sel=1).
            let m = nl.add_gate(
                format!("{prefix}_m{level}_{pair}"),
                GateKind::Mux,
                &[sel, chunk[0], chunk[1]],
            )?;
            next.push(m);
        }
        layer = next;
    }
    debug_assert_eq!(layer.len(), 1);
    Ok(layer[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_netlist::{bits_of, Simulator};
    use rand::SeedableRng;

    fn sample() -> Netlist {
        let mut nl = Netlist::new("s");
        let ins: Vec<NodeId> = (0..5).map(|i| nl.add_input(format!("x{i}")).unwrap()).collect();
        let g1 = nl.add_gate("g1", GateKind::And, &[ins[0], ins[1]]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Or, &[g1, ins[2]]).unwrap();
        let g3 = nl.add_gate("g3", GateKind::Xor, &[ins[3], ins[4]]).unwrap();
        let g4 = nl.add_gate("g4", GateKind::Nand, &[g2, g3]).unwrap();
        let g5 = nl.add_gate("g5", GateKind::Nor, &[g2, g4]).unwrap();
        nl.mark_output(g4).unwrap();
        nl.mark_output(g5).unwrap();
        nl
    }

    #[test]
    fn config_arithmetic() {
        let paper = LutLock::paper();
        assert_eq!(paper.key_bits(), 64 + 64 + 16);
        assert_eq!(paper.module_inputs(), 14);
        let small = LutLock::small();
        assert_eq!(small.key_bits(), 24);
        assert_eq!(small.module_inputs(), 7);
    }

    #[test]
    fn correct_key_unlocks() {
        let nl = sample();
        let scheme = LutLock::new(vec![2, 2], 0).with_seed(3);
        let key = Key::random(scheme.key_bits(), &mut rand::rngs::StdRng::seed_from_u64(9));
        let locked = scheme.lock(&nl, &key).unwrap();
        assert_eq!(locked.netlist.key_inputs().len(), scheme.key_bits());
        locked.netlist.validate().unwrap();

        let mut orig = Simulator::new(&nl).unwrap();
        let mut lsim = Simulator::new(&locked.netlist).unwrap();
        for v in 0..32u64 {
            let bits = bits_of(v, 5);
            assert_eq!(
                lsim.eval(&bits, locked.key.bits()),
                orig.eval(&bits, &[]),
                "pattern {v:05b}"
            );
        }
    }

    #[test]
    fn random_wrong_keys_usually_corrupt() {
        let nl = sample();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let scheme = LutLock::new(vec![2, 2], 0).with_seed(3);
        let locked = scheme.lock_random(&nl, &mut rng).unwrap();
        let mut orig = Simulator::new(&nl).unwrap();
        let mut lsim = Simulator::new(&locked.netlist).unwrap();
        let mut corrupting = 0;
        for _ in 0..20u64 {
            let key = Key::random(scheme.key_bits(), &mut rng);
            let wrong = (0..32u64).any(|v| {
                let bits = bits_of(v, 5);
                lsim.eval(&bits, key.bits()) != orig.eval(&bits, &[])
            });
            if wrong {
                corrupting += 1;
            }
        }
        assert!(corrupting >= 10, "most random keys corrupt, got {corrupting}/20");
    }

    #[test]
    fn several_seeds_choose_valid_splices() {
        let nl = sample();
        for seed in 0..10 {
            let scheme = LutLock::new(vec![2], 1).with_seed(seed);
            let key = Key::from_u64(seed.wrapping_mul(0x9E37) & 0x3F, scheme.key_bits());
            let locked = scheme.lock(&nl, &key).unwrap();
            locked.netlist.validate().unwrap();
            let mut orig = Simulator::new(&nl).unwrap();
            let mut lsim = Simulator::new(&locked.netlist).unwrap();
            for v in 0..32u64 {
                let bits = bits_of(v, 5);
                assert_eq!(
                    lsim.eval(&bits, locked.key.bits()),
                    orig.eval(&bits, &[]),
                    "seed {seed} pattern {v:05b}"
                );
            }
        }
    }

    #[test]
    fn too_large_module_rejected() {
        let nl = sample();
        let scheme = LutLock::paper();
        let key = Key::new(vec![false; scheme.key_bits()]);
        assert!(matches!(scheme.lock(&nl, &key), Err(LockError::TooSmall { .. })));
    }

    #[test]
    fn key_width_matches_config() {
        let nl = sample();
        let scheme = LutLock::new(vec![3], 1).with_seed(1);
        let key = Key::from_u64(0x5A5A, scheme.key_bits());
        let locked = scheme.lock(&nl, &key).unwrap();
        assert_eq!(locked.key.len(), scheme.key_bits());
        assert_eq!(locked.netlist.key_inputs().len(), scheme.key_bits());
    }
}
