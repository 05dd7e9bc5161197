//! Property-based tests: Tseitin encodings must agree with circuit
//! simulation under every binding mode, the cone encoder must emit exactly
//! what the plain encoder emits for pinned inputs, per-DIP constraints
//! with eliminated copies must constrain the keys exactly as plain copies
//! do, and miters must be exactly as satisfiable as the circuits differ —
//! also when structural hashing merges most of the two sides.

use proptest::prelude::*;

use polykey_encode::{
    assert_equal, assert_value, build_miter, check_equivalence, encode, AttackEncoding,
    Binding, CnfValue, ConeEncoder, EquivResult, PortBinding,
};
use polykey_netlist::{bits_of, GateKind, Netlist, NodeId, Simulator};
use polykey_sat::{ClauseSink, CnfFormula, Lit, SolveResult, Solver, Var};

/// Builds a random DAG netlist with `num_inputs` inputs and `num_keys` key
/// inputs from a byte recipe (deterministic, always valid). With
/// `negate = Some((g, j))`, fan-in `j` of gate `g` is read through an
/// inverter that no other gate sees.
fn build_circuit(
    num_inputs: usize,
    num_keys: usize,
    recipe: &[(u8, u16, u16, u16)],
    negate: Option<(usize, usize)>,
) -> Netlist {
    let mut nl = Netlist::new("prop");
    let mut pool: Vec<NodeId> = Vec::new();
    for i in 0..num_inputs {
        pool.push(nl.add_input(format!("i{i}")).expect("fresh"));
    }
    for k in 0..num_keys {
        pool.push(nl.add_key_input(format!("k{k}")).expect("fresh"));
    }
    for (g, &(sel, f0, f1, f2)) in recipe.iter().enumerate() {
        let kind = match sel % 10 {
            0 => GateKind::And,
            1 => GateKind::Nand,
            2 => GateKind::Or,
            3 => GateKind::Nor,
            4 => GateKind::Xor,
            5 => GateKind::Xnor,
            6 => GateKind::Not,
            7 => GateKind::Buf,
            8 => GateKind::Mux,
            _ => GateKind::And,
        };
        let picks = [f0, f1, f2];
        let arity = kind.arity().unwrap_or(2 + (sel as usize >> 4) % 2);
        let mut fanins: Vec<NodeId> =
            (0..arity).map(|i| pool[picks[i.min(2)] as usize % pool.len()]).collect();
        if let Some((_, j)) = negate.filter(|&(at, _)| at == g) {
            let j = j % arity;
            fanins[j] =
                nl.add_gate(format!("n{g}"), GateKind::Not, &[fanins[j]]).expect("fresh");
        }
        pool.push(nl.add_gate(format!("g{g}"), kind, &fanins).expect("fresh"));
    }
    // Mark the last few nodes as outputs.
    let n = pool.len();
    for o in 0..2.min(n) {
        nl.mark_output(pool[n - 1 - o]).expect("distinct");
    }
    nl
}

fn arb_recipe() -> impl Strategy<Value = Vec<(u8, u16, u16, u16)>> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<u16>()), 1..25)
}

fn arb_circuit(num_inputs: usize, num_keys: usize) -> impl Strategy<Value = Netlist> {
    arb_recipe().prop_map(move |recipe| build_circuit(num_inputs, num_keys, &recipe, None))
}

/// Keyless circuit pairs that share all structure but one gate: `b` is `a`
/// with one gate's kind or one of its fan-in picks replaced, or with one
/// fan-in inverted. Independent random circuits hardly ever share a gate,
/// so only pairs like these put most of a miter through the
/// structural-hash table; the inverted fan-in is the case a table that
/// mishandles polarity would merge.
fn arb_overlapping_pair(num_inputs: usize) -> impl Strategy<Value = (Netlist, Netlist)> {
    (arb_recipe(), any::<u16>(), 0u8..5, any::<u16>()).prop_map(
        move |(recipe, at, field, value)| {
            let at = at as usize % recipe.len();
            let mut mutated = recipe.clone();
            let mut negate = None;
            match field {
                0 => mutated[at].0 = value as u8,
                1 => mutated[at].1 = value,
                2 => mutated[at].2 = value,
                3 => mutated[at].3 = value,
                _ => negate = Some((at, value as usize)),
            }
            (
                build_circuit(num_inputs, 0, &recipe, None),
                build_circuit(num_inputs, 0, &mutated, negate),
            )
        },
    )
}

/// The value `v` takes in the solver's model.
fn model_bit(solver: &Solver, v: &CnfValue) -> bool {
    match v {
        CnfValue::Lit(l) => solver.model_value(*l).expect("assigned"),
        CnfValue::Const(b) => *b,
    }
}

/// Solves the encoded circuit with pinned ports and compares each output
/// against simulation.
fn check_encoding(nl: &Netlist, ibits: &[bool], kbits: &[bool]) {
    let mut sim = Simulator::new(nl).expect("acyclic");
    let expected = sim.eval(ibits, kbits);

    // Mode 1: fresh vars, values imposed with unit clauses.
    let mut solver = Solver::new();
    let enc = encode(&mut solver, nl, &Binding::fresh(nl)).expect("encode");
    for (v, &b) in enc.inputs.iter().zip(ibits) {
        assert_value(&mut solver, *v, b);
    }
    for (v, &b) in enc.keys.iter().zip(kbits) {
        assert_value(&mut solver, *v, b);
    }
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    for (o, v) in enc.outputs.iter().enumerate() {
        assert_eq!(model_bit(&solver, v), expected[o], "fresh-binding output {o}");
    }

    // Mode 2: everything pinned — outputs must be constants.
    let mut solver = Solver::new();
    let binding = Binding {
        inputs: ibits.iter().map(|&b| PortBinding::Pinned(b)).collect(),
        keys: kbits.iter().map(|&b| PortBinding::Pinned(b)).collect(),
    };
    let enc = encode(&mut solver, nl, &binding).expect("encode");
    for (o, v) in enc.outputs.iter().enumerate() {
        assert_eq!(v.constant(), Some(expected[o]), "pinned-binding output {o}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encodings_match_simulation(nl in arb_circuit(4, 2), pattern in 0u64..64) {
        let ibits = bits_of(pattern & 0xF, 4);
        let kbits = bits_of(pattern >> 4, 2);
        check_encoding(&nl, &ibits, &kbits);
    }

    #[test]
    fn cone_encoder_matches_plain_encoding(
        nl in arb_circuit(4, 3),
        steps in proptest::collection::vec((0u8..3, 0u64..16), 36..45),
        key_lits in proptest::collection::vec((0u32..4, proptest::bool::ANY), 6),
        key_values in 0u64..16,
    ) {
        // Copies as the attack adds them: two key vectors per DIP, over
        // shared key literals that may repeat or be negated, about 40 DIPs
        // deep in one sink. Each DIP is a new pattern, the last one with an
        // input flipped, or the last one again, so the encoder's incremental
        // simulation meets every kind of step. Both encoders must emit the
        // same variables and clauses in the same order, and the same output
        // values.
        let mut dip = 0u64;
        let dips: Vec<u64> = steps
            .iter()
            .map(|&(how, r)| {
                dip = match how {
                    0 => r,
                    1 => dip ^ 1 << (r % 4),
                    _ => dip,
                };
                dip
            })
            .collect();
        let keys: Vec<Lit> =
            key_lits.iter().map(|&(v, negated)| Lit::new(Var::new(v), negated)).collect();
        let (keys_left, keys_right) = keys.split_at(3);
        let mut plain = CnfFormula::new();
        let mut folded = CnfFormula::new();
        plain.new_vars(4);
        folded.new_vars(4);
        let mut cone = ConeEncoder::new(&nl);
        let mut copies = Vec::new();
        for &dip in &dips {
            let ibits = bits_of(dip, 4);
            for keys in [keys_left, keys_right] {
                let binding = Binding {
                    inputs: ibits.iter().map(|&b| PortBinding::Pinned(b)).collect(),
                    keys: keys.iter().map(|&l| PortBinding::Shared(l)).collect(),
                };
                let expected = encode(&mut plain, &nl, &binding).expect("encode").outputs;
                let got = cone.encode(&mut folded, &ibits, keys);
                prop_assert_eq!(&got, &expected);
                copies.push((ibits.clone(), keys, got));
            }
        }
        prop_assert_eq!(folded.num_vars(), plain.num_vars());
        prop_assert_eq!(folded.clauses().collect::<Vec<_>>(), plain.clauses().collect::<Vec<_>>());

        // Under random key values every copy computes the simulated outputs.
        let mut solver = folded.to_solver();
        for v in 0..4u32 {
            let value = Var::new(v).positive();
            assert_value(&mut solver, CnfValue::Lit(value), key_values >> v & 1 == 1);
        }
        prop_assert_eq!(solver.solve(&[]), SolveResult::Sat);
        let mut sim = Simulator::new(&nl).expect("acyclic");
        for (ibits, keys, outputs) in &copies {
            let kbits: Vec<bool> = keys
                .iter()
                .map(|l| (key_values >> l.var().index() & 1 == 1) != l.is_negated())
                .collect();
            let got: Vec<bool> = outputs.iter().map(|v| model_bit(&solver, v)).collect();
            prop_assert_eq!(got, sim.eval(ibits, &kbits));
        }
    }

    #[test]
    fn eliminated_dip_copies_constrain_keys_like_plain_copies(
        nl in arb_circuit(4, 3),
        dips in proptest::collection::vec((0u64..16, 0u64..4, proptest::bool::ANY), 1..6),
        answers in proptest::collection::vec(0u64..4, 5),
    ) {
        // Two solvers that start from the attack's encoding of `nl`.
        // `plain` gets each DIP's two copies straight from a `ConeEncoder`,
        // `eliminated` gets them through `DipConstraints`. Answered DIPs
        // assert a random response; pending ones tie the copies and keep
        // them, and get a random answer afterwards. Under every assignment
        // of both key vectors, alone and with the miter's `diff`, the
        // solvers agree.
        let (encoding, mut eliminated) = AttackEncoding::new(&nl, false);
        let miter = encoding.miter();
        let mut plain = eliminated.clone();
        let outputs = nl.outputs().len();
        let mut cone = ConeEncoder::new(&nl);
        let mut constraints = encoding.dip_constraints();
        let mut pending = Vec::new();
        for &(dip, response, is_pending) in &dips {
            let ibits = bits_of(dip, 4);
            let copies = [&miter.keys_left, &miter.keys_right]
                .map(|keys| cone.encode(&mut plain, &ibits, keys));
            if is_pending {
                for (&l, &r) in copies[0].iter().zip(&copies[1]) {
                    assert_equal(&mut plain, l, r);
                }
                let kept = constraints.add_pending(&mut eliminated, &ibits);
                pending.push((copies, kept));
            } else {
                let response = bits_of(response, outputs);
                for (&out, &bit) in copies.iter().flatten().zip(response.iter().cycle()) {
                    assert_value(&mut plain, out, bit);
                }
                constraints.add_answered(&mut eliminated, &ibits, &response);
            }
        }

        let agree = |plain: &mut Solver, eliminated: &mut Solver| -> Result<(), proptest::test_runner::TestCaseError> {
            for bits in 0..64u64 {
                let mut assumptions: Vec<Lit> = miter
                    .keys_left
                    .iter()
                    .chain(&miter.keys_right)
                    .enumerate()
                    .map(|(i, &k)| if bits >> i & 1 == 1 { k } else { !k })
                    .collect();
                prop_assert_eq!(plain.solve(&assumptions), eliminated.solve(&assumptions));
                assumptions.push(miter.diff);
                prop_assert_eq!(plain.solve(&assumptions), eliminated.solve(&assumptions));
            }
            Ok(())
        };
        agree(&mut plain, &mut eliminated)?;
        // The kept copies must be the eliminated solver's view of the same
        // signals: answering them alike keeps the solvers in step.
        for ((copies, kept), &answer) in pending.into_iter().zip(answers.iter().cycle()) {
            let response = bits_of(answer, outputs);
            for (&out, &bit) in copies.iter().flatten().zip(response.iter().cycle()) {
                assert_value(&mut plain, out, bit);
            }
            constraints.answer(&mut eliminated, kept, &response);
        }
        agree(&mut plain, &mut eliminated)?;
    }

    #[test]
    fn self_miter_copies_match_simulation_under_pinned_keys(
        nl in arb_circuit(3, 3),
        pattern in 0u64..512,
    ) {
        // A self-miter hashes every key-independent gate of the right copy
        // onto the left copy's literal. With the inputs and each copy's
        // keys pinned, both copies must still compute the simulated
        // outputs, however much they share.
        let ibits = bits_of(pattern & 0x7, 3);
        let kbits_left = bits_of((pattern >> 3) & 0x7, 3);
        let kbits_right = bits_of(pattern >> 6, 3);
        let mut sim = Simulator::new(&nl).expect("acyclic");

        let mut solver = Solver::new();
        let miter = build_miter(&mut solver, &nl, &nl).expect("miter");
        let pins = miter
            .inputs
            .iter()
            .zip(&ibits)
            .chain(miter.keys_left.iter().zip(&kbits_left))
            .chain(miter.keys_right.iter().zip(&kbits_right));
        for (&l, &b) in pins {
            assert_value(&mut solver, CnfValue::Lit(l), b);
        }
        prop_assert_eq!(solver.solve(&[]), SolveResult::Sat);
        for (outputs, kbits) in
            [(&miter.outputs_left, &kbits_left), (&miter.outputs_right, &kbits_right)]
        {
            let expected = sim.eval(&ibits, kbits);
            let got: Vec<bool> = outputs.iter().map(|v| model_bit(&solver, v)).collect();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn overlapping_pairs_verdicts_match_simulation(pair in arb_overlapping_pair(4)) {
        let (a, b) = pair;
        // check_equivalence must agree with exhaustive simulation on pairs
        // that differ in one gate, and every counterexample must really
        // distinguish the two circuits.
        let mut sa = Simulator::new(&a).expect("acyclic");
        let mut sb = Simulator::new(&b).expect("acyclic");
        let differs = (0..16u64).any(|v| {
            let bits = bits_of(v, 4);
            sa.eval(&bits, &[]) != sb.eval(&bits, &[])
        });
        match check_equivalence(&a, &b).expect("equiv") {
            EquivResult::Equivalent => prop_assert!(!differs),
            EquivResult::Inequivalent { counterexample } => {
                prop_assert!(differs);
                prop_assert_ne!(
                    sa.eval(&counterexample, &[]),
                    sb.eval(&counterexample, &[])
                );
            }
        }
    }

    #[test]
    fn self_miter_is_unsat_for_keyless(nl in arb_circuit(5, 0)) {
        // A circuit mitered against itself can never differ.
        let mut solver = Solver::new();
        let miter = build_miter(&mut solver, &nl, &nl).expect("miter");
        prop_assert_eq!(solver.solve(&[miter.diff]), SolveResult::Unsat);
    }

    #[test]
    fn miter_agrees_with_exhaustive_difference(a in arb_circuit(4, 0), b in arb_circuit(4, 0)) {
        // For keyless same-interface circuits, the miter is satisfiable
        // exactly when the functions differ somewhere.
        prop_assume!(a.outputs().len() == b.outputs().len());
        let mut sa = Simulator::new(&a).expect("acyclic");
        let mut sb = Simulator::new(&b).expect("acyclic");
        let differs = (0..16u64).any(|v| {
            let bits = bits_of(v, 4);
            sa.eval(&bits, &[]) != sb.eval(&bits, &[])
        });
        let mut solver = Solver::new();
        let miter = build_miter(&mut solver, &a, &b).expect("miter");
        let sat = solver.solve(&[miter.diff]) == SolveResult::Sat;
        prop_assert_eq!(sat, differs);
        // And check_equivalence must agree too.
        let equiv = check_equivalence(&a, &b).expect("equiv");
        prop_assert_eq!(equiv == EquivResult::Equivalent, !differs);
    }

    #[test]
    fn counterexamples_are_genuine(a in arb_circuit(4, 0), b in arb_circuit(4, 0)) {
        prop_assume!(a.outputs().len() == b.outputs().len());
        if let EquivResult::Inequivalent { counterexample } =
            check_equivalence(&a, &b).expect("equiv")
        {
            let mut sa = Simulator::new(&a).expect("acyclic");
            let mut sb = Simulator::new(&b).expect("acyclic");
            prop_assert_ne!(
                sa.eval(&counterexample, &[]),
                sb.eval(&counterexample, &[])
            );
        }
    }
}
