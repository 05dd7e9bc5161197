//! Arithmetic circuit generators: adders, multipliers, comparators, parity.
//!
//! These provide *real* (non-random) structure for the benchmark suite:
//! c6288 in ISCAS'85 is a 16×16 array multiplier, and [`multiplier`] builds
//! the same function from AND gates and full adders.

use polykey_netlist::{GateKind, Netlist, NetlistError, NodeId};

/// Builds a full adder inside `nl`; returns `(sum, carry)`.
fn full_adder(
    nl: &mut Netlist,
    a: NodeId,
    b: NodeId,
    cin: Option<NodeId>,
    prefix: &str,
) -> Result<(NodeId, Option<NodeId>), NetlistError> {
    match cin {
        None => {
            // Half adder.
            let s = nl.add_gate(format!("{prefix}_s"), GateKind::Xor, &[a, b])?;
            let c = nl.add_gate(format!("{prefix}_c"), GateKind::And, &[a, b])?;
            Ok((s, Some(c)))
        }
        Some(cin) => {
            let axb = nl.add_gate(format!("{prefix}_axb"), GateKind::Xor, &[a, b])?;
            let s = nl.add_gate(format!("{prefix}_s"), GateKind::Xor, &[axb, cin])?;
            let g1 = nl.add_gate(format!("{prefix}_g1"), GateKind::And, &[a, b])?;
            let g2 = nl.add_gate(format!("{prefix}_g2"), GateKind::And, &[axb, cin])?;
            let c = nl.add_gate(format!("{prefix}_c"), GateKind::Or, &[g1, g2])?;
            Ok((s, Some(c)))
        }
    }
}

/// An `n`-bit ripple-carry adder: inputs `a0..`, `b0..` (bit 0 = LSB) and
/// `cin`; outputs `sum0..sum{n-1}`, `cout`.
///
/// # Panics
///
/// Panics if `n` is 0.
pub fn ripple_adder(n: usize) -> Netlist {
    assert!(n > 0);
    let mut nl = Netlist::new(format!("add{n}"));
    let a: Vec<NodeId> =
        (0..n).map(|i| nl.add_input(format!("a{i}")).expect("fresh")).collect();
    let b: Vec<NodeId> =
        (0..n).map(|i| nl.add_input(format!("b{i}")).expect("fresh")).collect();
    let cin = nl.add_input("cin").expect("fresh");
    let mut carry = Some(cin);
    let mut sums = Vec::with_capacity(n);
    for i in 0..n {
        let (s, c) =
            full_adder(&mut nl, a[i], b[i], carry, &format!("fa{i}")).expect("valid adder");
        sums.push(s);
        carry = c;
    }
    for s in sums {
        nl.mark_output(s).expect("distinct outputs");
    }
    nl.mark_output(carry.expect("n > 0 leaves a carry")).expect("distinct");
    nl
}

/// An `n`×`n` array multiplier: inputs `a0..`, `b0..`; outputs
/// `p0..p{2n-1}` (bit 0 = LSB). With `n = 16` this is the c6288 function.
///
/// # Panics
///
/// Panics if `n` is 0.
#[allow(clippy::needless_range_loop)]
pub fn multiplier(n: usize) -> Netlist {
    assert!(n > 0);
    let mut nl = Netlist::new(format!("mul{n}"));
    let a: Vec<NodeId> =
        (0..n).map(|i| nl.add_input(format!("a{i}")).expect("fresh")).collect();
    let b: Vec<NodeId> =
        (0..n).map(|i| nl.add_input(format!("b{i}")).expect("fresh")).collect();

    // Partial products pp[i][j] = a[j] & b[i], weight i + j.
    let mut pp = vec![vec![None::<NodeId>; n]; n];
    for i in 0..n {
        for (j, pj) in pp[i].iter_mut().enumerate() {
            *pj = Some(
                nl.add_gate(format!("pp_{i}_{j}"), GateKind::And, &[a[j], b[i]])
                    .expect("fresh"),
            );
        }
    }

    // Row-by-row accumulation with ripple carries.
    let mut acc: Vec<Option<NodeId>> = vec![None; 2 * n];
    acc[..n].copy_from_slice(&pp[0][..n]);
    for i in 1..n {
        let mut carry: Option<NodeId> = None;
        for j in 0..n {
            let pos = i + j;
            let addend = pp[i][j].expect("built above");
            let (s, c) = match acc[pos] {
                Some(prev) => full_adder(&mut nl, prev, addend, carry, &format!("fa_{i}_{j}"))
                    .expect("valid"),
                None => match carry {
                    Some(cin) => full_adder(&mut nl, addend, cin, None, &format!("fa_{i}_{j}"))
                        .expect("valid"),
                    None => (addend, None),
                },
            };
            acc[pos] = Some(s);
            carry = c;
        }
        if let Some(c) = carry {
            // Carry out of the row lands at weight i + n.
            debug_assert!(acc[i + n].is_none());
            acc[i + n] = Some(c);
        }
    }
    for (idx, bit) in acc.iter().enumerate() {
        match bit {
            Some(id) => nl.mark_output(*id).expect("distinct"),
            None => {
                // Only the top bit of a 1×1 multiplier can be absent.
                let zero = nl.add_const(format!("p{idx}_zero"), false).expect("fresh");
                nl.mark_output(zero).expect("distinct");
            }
        }
    }
    nl
}

/// An `n`-bit equality comparator: output 1 iff `a == b`.
///
/// # Panics
///
/// Panics if `n` is 0.
pub fn comparator(n: usize) -> Netlist {
    assert!(n > 0);
    let mut nl = Netlist::new(format!("eq{n}"));
    let a: Vec<NodeId> =
        (0..n).map(|i| nl.add_input(format!("a{i}")).expect("fresh")).collect();
    let b: Vec<NodeId> =
        (0..n).map(|i| nl.add_input(format!("b{i}")).expect("fresh")).collect();
    let eqs: Vec<NodeId> = (0..n)
        .map(|i| nl.add_gate(format!("eq{i}"), GateKind::Xnor, &[a[i], b[i]]).expect("fresh"))
        .collect();
    let out = if eqs.len() == 1 {
        eqs[0]
    } else {
        nl.add_gate("all_eq", GateKind::And, &eqs).expect("fresh")
    };
    nl.mark_output(out).expect("distinct");
    nl
}

/// An `n`-input parity tree (XOR reduction), built as a balanced tree of
/// 2-input XORs.
///
/// # Panics
///
/// Panics if `n` is 0.
pub fn parity(n: usize) -> Netlist {
    assert!(n > 0);
    let mut nl = Netlist::new(format!("par{n}"));
    let mut layer: Vec<NodeId> =
        (0..n).map(|i| nl.add_input(format!("x{i}")).expect("fresh")).collect();
    let mut level = 0;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (i, pair) in layer.chunks(2).enumerate() {
            if pair.len() == 2 {
                next.push(
                    nl.add_gate(format!("x_{level}_{i}"), GateKind::Xor, &[pair[0], pair[1]])
                        .expect("fresh"),
                );
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
        level += 1;
    }
    nl.mark_output(layer[0]).expect("distinct");
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_netlist::{bits_of, bits_to_u64, Simulator};

    #[test]
    fn adder_is_correct() {
        let n = 4;
        let nl = ripple_adder(n);
        assert_eq!(nl.inputs().len(), 2 * n + 1);
        assert_eq!(nl.outputs().len(), n + 1);
        let mut sim = Simulator::new(&nl).unwrap();
        for a in 0..16u64 {
            for b in 0..16u64 {
                for cin in 0..2u64 {
                    let mut inputs = bits_of(a, n);
                    inputs.extend(bits_of(b, n));
                    inputs.push(cin == 1);
                    let out = sim.eval(&inputs, &[]);
                    let got = bits_to_u64(&out);
                    assert_eq!(got, a + b + cin, "{a}+{b}+{cin}");
                }
            }
        }
    }

    #[test]
    fn multiplier_small_exhaustive() {
        for n in [1usize, 2, 3, 4] {
            let nl = multiplier(n);
            assert_eq!(nl.inputs().len(), 2 * n);
            assert_eq!(nl.outputs().len(), 2 * n);
            let mut sim = Simulator::new(&nl).unwrap();
            for a in 0..(1u64 << n) {
                for b in 0..(1u64 << n) {
                    let mut inputs = bits_of(a, n);
                    inputs.extend(bits_of(b, n));
                    let out = sim.eval(&inputs, &[]);
                    assert_eq!(bits_to_u64(&out), a * b, "{a}*{b} (n={n})");
                }
            }
        }
    }

    #[test]
    fn multiplier_16_spot_checks() {
        let nl = multiplier(16);
        assert_eq!(nl.inputs().len(), 32);
        assert_eq!(nl.outputs().len(), 32);
        // Gate count in the c6288 ballpark (c6288 has 2406 NOR-only gates;
        // the AND/XOR/OR realization is leaner but same order).
        assert!(nl.num_gates() > 1000, "got {}", nl.num_gates());
        let mut sim = Simulator::new(&nl).unwrap();
        for (a, b) in [(0u64, 0u64), (1, 1), (65535, 65535), (12345, 54321), (40000, 2)] {
            let mut inputs = bits_of(a, 16);
            inputs.extend(bits_of(b, 16));
            let out = sim.eval(&inputs, &[]);
            assert_eq!(bits_to_u64(&out), a * b, "{a}*{b}");
        }
    }

    #[test]
    fn comparator_and_parity() {
        let nl = comparator(3);
        let mut sim = Simulator::new(&nl).unwrap();
        for a in 0..8u64 {
            for b in 0..8u64 {
                let mut inputs = bits_of(a, 3);
                inputs.extend(bits_of(b, 3));
                assert_eq!(sim.eval(&inputs, &[]), vec![a == b]);
            }
        }
        let nl = parity(5);
        let mut sim = Simulator::new(&nl).unwrap();
        for v in 0..32u64 {
            let bits = bits_of(v, 5);
            assert_eq!(sim.eval(&bits, &[]), vec![v.count_ones() % 2 == 1]);
        }
    }
}
