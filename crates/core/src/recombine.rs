//! Multi-key recombination — Fig. 1(b) of the paper, generalized to the
//! adaptive term tree.
//!
//! Given the sub-space keys recovered by the multi-key attack, build an
//! *unlocked* netlist: each key port of the locked design is driven by a
//! MUX tree that selects, based on the live values of the split ports,
//! the sub-key recovered for that sub-space. The result has no key inputs
//! and is functionally equivalent to the original design — even though
//! every individual sub-key may be globally incorrect.
//!
//! Keys are identified by `(pattern, width)` prefix-tree paths (see
//! [`SubKey`]), so the key set may mix depths: a static `N`-grid is the
//! special case where every path has `width == N`. The only requirement
//! is that the paths form an **exact cover** of the input space — pairwise
//! disjoint (no path a prefix of another) and jointly exhaustive — which
//! this module validates before building anything.

use polykey_netlist::{GateKind, Netlist, NodeId};

use crate::error::AttackError;
use crate::multikey::{SubKey, MAX_SPLIT_WIDTH};

/// The canonical trie order of a path: pattern bit 0 is the most
/// significant comparison bit, so a prefix sorts immediately before its
/// extensions and sibling subtrees stay contiguous.
fn canon(sub: &SubKey) -> (u64, u8) {
    let mut key = 0u64;
    for j in 0..sub.width as usize {
        key |= (sub.pattern >> j & 1) << (63 - j);
    }
    (key, sub.width)
}

/// True iff `a`'s path is a prefix of `b`'s (equal paths included).
fn is_prefix(a: &SubKey, b: &SubKey) -> bool {
    a.width <= b.width && {
        let mask = if a.width == 0 { 0 } else { (1u64 << a.width) - 1 };
        a.pattern & mask == b.pattern & mask
    }
}

/// Validates that `keys` form an exact prefix cover and that every key has
/// the locked design's key width; returns them in canonical trie order.
fn validate_cover<'k>(
    locked: &Netlist,
    split_inputs: &[NodeId],
    keys: &'k [SubKey],
) -> Result<Vec<&'k SubKey>, AttackError> {
    if keys.is_empty() {
        return Err(AttackError::BadKeySet { message: "empty key set".into() });
    }
    for sub in keys {
        let width = sub.width as usize;
        if width > MAX_SPLIT_WIDTH {
            return Err(AttackError::BadKeySet {
                message: format!(
                    "path width {width} exceeds the maximum split width {MAX_SPLIT_WIDTH}"
                ),
            });
        }
        if width > split_inputs.len() {
            return Err(AttackError::BadKeySet {
                message: format!(
                    "path {:#b} has width {width} but only {} split ports were given",
                    sub.pattern,
                    split_inputs.len()
                ),
            });
        }
        if width < 64 && sub.pattern >> width != 0 {
            return Err(AttackError::BadKeySet {
                message: format!(
                    "path {:#b} sets bits at or above its width {width}",
                    sub.pattern
                ),
            });
        }
        if sub.key.len() != locked.key_inputs().len() {
            return Err(AttackError::BadKeySet {
                message: format!(
                    "sub-key for path {:#b}/{width} has width {}, locked design has {} key \
                     ports",
                    sub.pattern,
                    sub.key.len(),
                    locked.key_inputs().len()
                ),
            });
        }
    }
    let mut sorted: Vec<&SubKey> = keys.iter().collect();
    sorted.sort_by_key(|k| canon(k));
    // Disjointness: in canonical order, a path that is a prefix of any
    // other path in the set sorts immediately before one of its
    // extensions, so checking adjacent pairs catches every overlap
    // (duplicates included).
    for pair in sorted.windows(2) {
        if is_prefix(pair[0], pair[1]) {
            return Err(AttackError::BadKeySet {
                message: format!(
                    "overlapping paths: {:#b}/{} covers {:#b}/{}",
                    pair[0].pattern, pair[0].width, pair[1].pattern, pair[1].width
                ),
            });
        }
    }
    // Coverage: disjoint paths cover the space iff their measures sum to
    // the whole. Widths are <= 63, so u128 arithmetic cannot overflow —
    // this replaces the old `keys.len() == 1 << n` check, which wrapped
    // at n = 64.
    let deepest = sorted.iter().map(|k| k.width as usize).max().expect("non-empty");
    let covered: u128 = sorted.iter().map(|k| 1u128 << (deepest - k.width as usize)).sum();
    if covered != 1u128 << deepest {
        return Err(AttackError::BadKeySet {
            message: format!(
                "paths cover {covered}/{} of the deepest level: the prefix tree has gaps",
                1u128 << deepest
            ),
        });
    }
    Ok(sorted)
}

/// Recursively builds the MUX tree for one key bit over a canonical-order
/// slice of the prefix cover.
#[allow(clippy::too_many_arguments)]
fn build_mux(
    out: &mut Netlist,
    selects: &[NodeId],
    sorted: &[&SubKey],
    depth: usize,
    bit: usize,
    leaf0: NodeId,
    leaf1: NodeId,
    counter: &mut usize,
) -> Result<NodeId, AttackError> {
    if sorted.len() == 1 && sorted[0].width as usize == depth {
        return Ok(if sorted[0].key.bit(bit) { leaf1 } else { leaf0 });
    }
    // Canonical order puts the bit-`depth` = 0 subtree first; an exact
    // cover guarantees both halves are non-empty here.
    let split_at = sorted.partition_point(|k| k.pattern >> depth & 1 == 0);
    if split_at == 0 || split_at == sorted.len() {
        // Unreachable on a validated cover; kept as a real error so a
        // future validation bug cannot turn into unbounded recursion.
        return Err(AttackError::BadKeySet {
            message: format!("prefix tree is one-sided at depth {depth} (engine bug)"),
        });
    }
    let lo =
        build_mux(out, selects, &sorted[..split_at], depth + 1, bit, leaf0, leaf1, counter)?;
    let hi =
        build_mux(out, selects, &sorted[split_at..], depth + 1, bit, leaf0, leaf1, counter)?;
    let name = format!("mk$k{bit}_m{depth}_{counter}");
    *counter += 1;
    Ok(out.add_gate(name, GateKind::Mux, &[selects[depth], lo, hi])?)
}

/// Builds the recombined, keyless netlist from sub-space keys.
///
/// `split_inputs` are the ports (ids in `locked`) the attack split on, in
/// pattern bit order; `keys` are `(pattern, width)` prefix-tree paths that
/// must form an exact cover of the input space — a flat `2^N` grid, an
/// adaptive mixed-depth tree, or the single `width = 0` key of a plain SAT
/// attack all qualify.
///
/// # Errors
///
/// - [`AttackError::BadKeySet`] if the paths overlap, leave gaps, set bits
///   above their width, exceed the split ports given, or a key has the
///   wrong width.
/// - [`AttackError::Netlist`] for structural failures.
pub fn recombine_multikey(
    locked: &Netlist,
    split_inputs: &[NodeId],
    keys: &[SubKey],
) -> Result<Netlist, AttackError> {
    let sorted = validate_cover(locked, split_inputs, keys)?;
    let deepest = sorted.iter().map(|k| k.width as usize).max().expect("non-empty");
    for &id in &split_inputs[..deepest] {
        if !locked.inputs().contains(&id) {
            return Err(AttackError::BadKeySet {
                message: format!("split port {id} is not a primary input of the locked design"),
            });
        }
    }

    let order = locked.topological_order();
    let mut out = Netlist::new(format!("{}_recombined", locked.name()));
    let mut map: Vec<Option<NodeId>> = vec![None; locked.num_nodes()];

    for &pi in locked.inputs() {
        map[pi.index()] = Some(out.add_input(locked.node_name(pi))?);
    }
    // Shared constant nodes for MUX-tree leaves.
    let const0 = out.add_const("mk$zero", false)?;
    let const1 = out.add_const("mk$one", true)?;
    let selects: Vec<NodeId> = split_inputs[..deepest]
        .iter()
        .map(|id| map[id.index()].expect("inputs mapped"))
        .collect();

    // Drive each key port with a MUX tree over the split ports.
    for (j, &ki) in locked.key_inputs().iter().enumerate() {
        let first = sorted[0].key.bit(j);
        let driver = if sorted.iter().all(|k| k.key.bit(j) == first) {
            // All sub-keys agree on this bit: a plain constant.
            if first {
                const1
            } else {
                const0
            }
        } else {
            let mut counter = 0;
            build_mux(&mut out, &selects, &sorted, 0, j, const0, const1, &mut counter)?
        };
        map[ki.index()] = Some(driver);
    }

    // Copy the locked design's gates over the new drivers.
    for &id in order {
        let node = locked.node(id);
        if node.kind().is_input() {
            continue;
        }
        let fanins: Vec<NodeId> =
            node.fanins().iter().map(|f| map[f.index()].expect("topo order")).collect();
        let new_id = match node.kind() {
            GateKind::Const(v) => out.add_const(locked.node_name(id), v)?,
            kind => out.add_gate(locked.node_name(id), kind, &fanins)?,
        };
        map[id.index()] = Some(new_id);
    }
    for &o in locked.outputs() {
        out.mark_output(map[o.index()].expect("outputs mapped"))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AttackSession;
    use polykey_encode::{check_equivalence, EquivResult};
    use polykey_locking::{Key, LockScheme, Sarlock};
    use polykey_netlist::{bits_of, GateKind, Simulator};

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

    #[test]
    fn fig1b_recombination_is_equivalent_to_original() {
        // Full pipeline: lock → multi-key attack → recombine → formal check.
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(0b101, 3)).unwrap();
        let mut oracle = crate::oracle::SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .split_effort(2)
            .threads(1)
            .build()
            .unwrap()
            .run(&locked.netlist)
            .unwrap();
        assert!(report.is_complete());

        let recombined = report.recombine(&locked.netlist).unwrap();
        assert!(recombined.key_inputs().is_empty(), "recombined design is keyless");
        assert_eq!(
            check_equivalence(&nl, &recombined).unwrap(),
            EquivResult::Equivalent,
            "Fig. 1(b): multiple incorrect keys collectively restore the function"
        );
    }

    #[test]
    fn adaptive_attack_recombines_to_equivalence() {
        // The heterogeneous-depth path: a tight per-term budget forces
        // resplits, and the mixed-width prefix tree must still recombine
        // to the exact original function.
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(0b110, 3)).unwrap();
        let mut oracle = crate::oracle::SimOracle::new(&nl).unwrap();
        let report = AttackSession::builder()
            .oracle(&mut oracle)
            .term_dip_budget(2)
            .threads(1)
            .build()
            .unwrap()
            .run(&locked.netlist)
            .unwrap();
        assert!(report.is_complete());
        assert!(report.max_depth() > 0, "the budget must have forced a split");
        let recombined = report.recombine(&locked.netlist).unwrap();
        assert!(recombined.key_inputs().is_empty());
        assert_eq!(check_equivalence(&nl, &recombined).unwrap(), EquivResult::Equivalent);
    }

    #[test]
    fn recombination_with_manual_keys() {
        // Hand-build the Fig. 1(b) scenario: two sub-keys, MUX on one bit.
        let nl = majority3();
        let correct = Key::from_u64(0b011, 3);
        let locked = Sarlock::new(3).lock(&nl, &correct).unwrap();
        let split = vec![locked.netlist.inputs()[0]];
        // For SARLock, a key unlocks the sub-space `x0 = v` iff it differs
        // from every input in that sub-space (or is correct). Keys whose
        // comparator bit 0 disagrees with the sub-space value never match:
        // pattern 0 (x0 = 0) is unlocked by any key with bit0 = 1 except…
        // use the known-correct key for one half and a provably sub-space
        // correct key for the other.
        let keys = vec![
            // bit0=1 ⇒ never matches x0=0
            SubKey { pattern: 0, width: 1, key: Key::from_u64(0b101, 3) },
            SubKey { pattern: 1, width: 1, key: correct.clone() },
        ];
        let recombined = recombine_multikey(&locked.netlist, &split, &keys).unwrap();
        let mut orig = Simulator::new(&nl).unwrap();
        let mut rec = Simulator::new(&recombined).unwrap();
        for v in 0..8u64 {
            let bits = bits_of(v, 3);
            assert_eq!(rec.eval(&bits, &[]), orig.eval(&bits, &[]), "input {v:03b}");
        }
    }

    #[test]
    fn mixed_depth_cover_with_manual_keys() {
        // A hand-built adaptive tree: {0} at depth 1, {10, 11} at depth 2.
        // Using the correct key everywhere must recombine to equivalence
        // regardless of the tree shape.
        let nl = majority3();
        let correct = Key::from_u64(0b011, 3);
        let locked = Sarlock::new(3).lock(&nl, &correct).unwrap();
        let split = vec![locked.netlist.inputs()[0], locked.netlist.inputs()[1]];
        let keys = vec![
            SubKey { pattern: 0b0, width: 1, key: correct.clone() },
            SubKey { pattern: 0b01, width: 2, key: correct.clone() },
            SubKey { pattern: 0b11, width: 2, key: correct.clone() },
        ];
        let recombined = recombine_multikey(&locked.netlist, &split, &keys).unwrap();
        assert_eq!(check_equivalence(&nl, &recombined).unwrap(), EquivResult::Equivalent);
    }

    #[test]
    fn missing_pattern_rejected() {
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(0, 3)).unwrap();
        let split = vec![locked.netlist.inputs()[0]];
        let keys = vec![SubKey { pattern: 0, width: 1, key: Key::from_u64(0, 3) }];
        let err = recombine_multikey(&locked.netlist, &split, &keys).unwrap_err();
        assert!(matches!(err, AttackError::BadKeySet { .. }));
    }

    #[test]
    fn duplicate_pattern_rejected() {
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(0, 3)).unwrap();
        let split = vec![locked.netlist.inputs()[0]];
        let keys = vec![
            SubKey { pattern: 1, width: 1, key: Key::from_u64(0, 3) },
            SubKey { pattern: 1, width: 1, key: Key::from_u64(1, 3) },
        ];
        assert!(matches!(
            recombine_multikey(&locked.netlist, &split, &keys),
            Err(AttackError::BadKeySet { .. })
        ));
    }

    #[test]
    fn overlapping_prefix_rejected() {
        // Path 0/1 covers both 00/2 and 01/2: the set double-covers half
        // the space (and leaves the x0=1 half empty).
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(0, 3)).unwrap();
        let split: Vec<NodeId> = locked.netlist.inputs()[..2].to_vec();
        let keys = vec![
            SubKey { pattern: 0b0, width: 1, key: Key::from_u64(0, 3) },
            SubKey { pattern: 0b00, width: 2, key: Key::from_u64(1, 3) },
        ];
        let err = recombine_multikey(&locked.netlist, &split, &keys).unwrap_err();
        assert!(err.to_string().contains("overlapping"), "{err}");
    }

    #[test]
    fn stray_bits_above_width_rejected() {
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(0, 3)).unwrap();
        let split = vec![locked.netlist.inputs()[0]];
        let keys = vec![SubKey { pattern: 0b10, width: 1, key: Key::from_u64(0, 3) }];
        assert!(matches!(
            recombine_multikey(&locked.netlist, &split, &keys),
            Err(AttackError::BadKeySet { .. })
        ));
    }

    #[test]
    fn wrong_key_width_rejected() {
        let nl = majority3();
        let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(0, 3)).unwrap();
        let keys = vec![SubKey { pattern: 0, width: 0, key: Key::from_u64(0, 2) }];
        assert!(matches!(
            recombine_multikey(&locked.netlist, &[], &keys),
            Err(AttackError::BadKeySet { .. })
        ));
    }

    #[test]
    fn zero_split_recombination_pins_single_key() {
        // N = 0: recombination is just pinning the one recovered key.
        let nl = majority3();
        let correct = Key::from_u64(0b110, 3);
        let locked = Sarlock::new(3).lock(&nl, &correct).unwrap();
        let keys = vec![SubKey { pattern: 0, width: 0, key: correct }];
        let recombined = recombine_multikey(&locked.netlist, &[], &keys).unwrap();
        assert_eq!(check_equivalence(&nl, &recombined).unwrap(), EquivResult::Equivalent);
    }
}
