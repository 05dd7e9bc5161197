//! Property-based tests over random netlists: simplification and I/O
//! round-trips must preserve circuit function, the key's cone of influence
//! must match the full netlist on the outputs it keeps, incremental
//! single-pattern simulation must match a full pass, and the `.bench` parser
//! answers any input with a netlist or an error, never a panic.

use proptest::prelude::*;

use polykey_circuits::{generate_random, RandomCircuitSpec};
use polykey_netlist::analysis::key_reachable_outputs;
use polykey_netlist::{
    bits_of, cofactor, keep_outputs, parse_bench, simplify, write_bench, GateKind, Netlist,
    NodeId, Simulator,
};

/// A recipe for one random gate.
#[derive(Clone, Debug)]
struct GateRecipe {
    kind_sel: u8,
    fanin_picks: Vec<u16>,
}

/// Builds a random combinational netlist from recipes: every gate reads
/// already-existing nodes, so the result is a DAG by construction.
fn build_random(num_inputs: usize, recipes: &[GateRecipe], num_outputs: usize) -> Netlist {
    build_random_keyed(num_inputs, 0, recipes, num_outputs)
}

/// [`build_random`] with `num_keys` key inputs among the nodes gates read.
fn build_random_keyed(
    num_inputs: usize,
    num_keys: usize,
    recipes: &[GateRecipe],
    num_outputs: usize,
) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut pool: Vec<NodeId> = Vec::new();
    for i in 0..num_inputs {
        pool.push(nl.add_input(format!("i{i}")).expect("fresh"));
    }
    for k in 0..num_keys {
        pool.push(nl.add_key_input(format!("k{k}")).expect("fresh"));
    }
    for (g, recipe) in recipes.iter().enumerate() {
        let kind = match recipe.kind_sel % 9 {
            0 => GateKind::And,
            1 => GateKind::Nand,
            2 => GateKind::Or,
            3 => GateKind::Nor,
            4 => GateKind::Xor,
            5 => GateKind::Xnor,
            6 => GateKind::Not,
            7 => GateKind::Buf,
            _ => GateKind::Mux,
        };
        let arity = kind.arity().unwrap_or(2 + (recipe.kind_sel as usize / 16) % 2);
        let fanins: Vec<NodeId> = (0..arity)
            .map(|k| {
                let pick = recipe.fanin_picks.get(k).copied().unwrap_or(0) as usize;
                pool[pick % pool.len()]
            })
            .collect();
        let id = nl.add_gate(format!("g{g}"), kind, &fanins).expect("valid gate");
        pool.push(id);
    }
    let n = pool.len();
    for o in 0..num_outputs.min(n) {
        // Prefer late nodes as outputs to get deep cones.
        let id = pool[n - 1 - o];
        nl.mark_output(id).expect("distinct outputs");
    }
    nl
}

fn arb_netlist() -> impl Strategy<Value = Netlist> {
    let recipe = (any::<u8>(), proptest::collection::vec(any::<u16>(), 3))
        .prop_map(|(kind_sel, fanin_picks)| GateRecipe { kind_sel, fanin_picks });
    (2usize..6, proptest::collection::vec(recipe, 1..40), 1usize..4)
        .prop_map(|(inputs, recipes, outputs)| build_random(inputs, &recipes, outputs))
}

/// Random netlists with 1–3 key inputs and up to 8 outputs, so some
/// outputs usually lie outside the keys' fanout.
fn arb_keyed_netlist() -> impl Strategy<Value = Netlist> {
    let recipe = (any::<u8>(), proptest::collection::vec(any::<u16>(), 3))
        .prop_map(|(kind_sel, fanin_picks)| GateRecipe { kind_sel, fanin_picks });
    (2usize..8, 1usize..4, proptest::collection::vec(recipe, 1..60), 1usize..9).prop_map(
        |(inputs, keys, recipes, outputs)| build_random_keyed(inputs, keys, &recipes, outputs),
    )
}

/// A [`generate_random`] circuit with `keys` key gates spliced in after
/// pseudo-random nodes: XOR, XNOR, and a MUX that the wire selects between
/// an earlier node and the key.
fn keyed_random_circuit(seed: u64, inputs: usize, gates: usize, keys: usize) -> Netlist {
    let spec = RandomCircuitSpec::new("r", inputs, 1 + seed as usize % 6, inputs + gates, seed);
    let mut nl = generate_random(&spec);
    let mut state = seed | 1;
    for k in 0..keys {
        let key = nl.add_key_input(format!("k{k}")).expect("fresh");
        let mut draw = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        // `other` precedes `target` in topological order, so it does not
        // read it, and the splice cannot close a cycle.
        let order = nl.topological_order();
        let at = draw() % order.len();
        let (target, other) = (order[at], order[draw() % (at + 1)]);
        let (kind, extra) = match k % 3 {
            0 => (GateKind::Xor, vec![key]),
            1 => (GateKind::Xnor, vec![key]),
            _ => (GateKind::Mux, vec![other, key]),
        };
        nl.insert_after(target, format!("kg{k}"), kind, &extra).expect("valid gate");
    }
    nl
}

/// 64 pseudo-random patterns of `width` ports, packed one word per port.
fn random_words(state: &mut u64, width: usize) -> Vec<u64> {
    (0..width)
        .map(|_| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        })
        .collect()
}

/// Exhaustive equivalence check for netlists with ≤ 12 input bits.
fn equivalent(a: &Netlist, b: &Netlist) -> bool {
    let ni = a.inputs().len();
    assert!(ni <= 12);
    assert_eq!(b.inputs().len(), ni);
    let mut sa = Simulator::new(a).expect("acyclic");
    let mut sb = Simulator::new(b).expect("acyclic");
    (0..(1u64 << ni)).all(|v| {
        let bits = bits_of(v, ni);
        sa.eval(&bits, &[]) == sb.eval(&bits, &[])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn simplify_preserves_function(nl in arb_netlist()) {
        let (simp, stats) = simplify(&nl);
        prop_assert!(equivalent(&nl, &simp));
        prop_assert!(stats.nodes_after <= stats.nodes_before + nl.outputs().len(),
            "simplification may only add output buffers");
        simp.validate().expect("simplified netlist is well-formed");
    }

    #[test]
    fn simplify_is_idempotent(nl in arb_netlist()) {
        let (s1, _) = simplify(&nl);
        let (s2, _) = simplify(&s1);
        prop_assert_eq!(s1.num_nodes(), s2.num_nodes());
        prop_assert!(equivalent(&s1, &s2));
    }

    #[test]
    fn bench_round_trip_preserves_function(nl in arb_netlist()) {
        let mut text = Vec::new();
        write_bench(&mut text, &nl).expect("write");
        let parsed = parse_bench(&text[..], nl.name()).expect("parse back");
        prop_assert!(equivalent(&nl, &parsed));
        prop_assert_eq!(nl.num_gates(), parsed.num_gates());
    }

    #[test]
    fn cofactor_matches_forced_simulation(nl in arb_netlist(), pin_bits in any::<u8>()) {
        let ni = nl.inputs().len();
        // Pin the first input to a value derived from pin_bits.
        let pin_value = pin_bits & 1 == 1;
        let target = nl.inputs()[0];
        let cof = cofactor(&nl, &[(target, pin_value)]).expect("valid pin");
        let (cs, _) = simplify(&cof);

        let mut orig = Simulator::new(&nl).expect("acyclic");
        let mut pinned = Simulator::new(&cof).expect("acyclic");
        let mut simped = Simulator::new(&cs).expect("acyclic");
        for v in 0..(1u64 << ni) {
            let bits = bits_of(v, ni);
            let mut forced = bits.clone();
            forced[0] = pin_value;
            let want = orig.eval(&forced, &[]);
            prop_assert_eq!(&pinned.eval(&bits, &[]), &want);
            prop_assert_eq!(&simped.eval(&bits, &[]), &want);
        }
    }

    #[test]
    fn packed_simulation_matches_scalar(nl in arb_netlist(), seed in any::<u64>()) {
        let ni = nl.inputs().len();
        let mut sim = Simulator::new(&nl).expect("acyclic");
        // 64 pseudo-random patterns driven from the seed.
        let mut state = seed | 1;
        let mut patterns: Vec<Vec<bool>> = Vec::with_capacity(64);
        for _ in 0..64 {
            let mut bits = Vec::with_capacity(ni);
            for _ in 0..ni {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                bits.push(state >> 63 == 1);
            }
            patterns.push(bits);
        }
        let packed = polykey_netlist::pack_patterns(&patterns, ni);
        let packed_out = sim.eval_packed(&packed, &[]);
        for (p, pattern) in patterns.iter().enumerate() {
            let scalar = sim.eval(pattern, &[]);
            for (o, &w) in packed_out.iter().enumerate() {
                prop_assert_eq!(w >> p & 1 == 1, scalar[o]);
            }
        }
    }

    #[test]
    fn incremental_eval_matches_a_full_pass(
        seed in any::<u64>(),
        inputs in 2usize..48,
        gates in 0usize..400,
        keys in 0usize..5,
        steps in proptest::collection::vec((0u8..8, any::<u64>()), 1..40),
    ) {
        // One simulator sees the whole sequence; each pattern is checked
        // against a fresh simulator's full pass, node by node.
        let nl = keyed_random_circuit(seed, inputs, gates, keys);
        let mut sim = Simulator::new(&nl).expect("acyclic");
        let mut ins = vec![false; inputs];
        let mut ks = vec![false; keys];
        for (op, r) in steps {
            match op {
                // The same pattern again.
                0 => {}
                // One input flips.
                1 => ins[r as usize % inputs] ^= true,
                // A few inputs flip.
                2 => {
                    for i in 0..=r % 4 {
                        ins[(r >> (8 * i)) as usize % inputs] ^= true;
                    }
                }
                // Every input flips.
                3 => ins.iter_mut().for_each(|b| *b = !*b),
                // A new key, inputs unchanged.
                4 => ks = bits_of(r, keys),
                // A new pattern altogether.
                5 => {
                    ins = bits_of(r, inputs.min(64));
                    ks = bits_of(r.rotate_left(17), keys);
                }
                // Packed evaluations in between overwrite the kept values.
                6 => {
                    let mut state = r | 1;
                    let words = random_words(&mut state, inputs);
                    let key_words = random_words(&mut state, keys);
                    let got = sim.eval_packed(&words, &key_words);
                    let want = Simulator::new(&nl).expect("acyclic").eval_packed(&words, &key_words);
                    prop_assert_eq!(got, want);
                    continue;
                }
                _ => {
                    let mut state = r | 1;
                    let words = random_words(&mut state, inputs);
                    let key_words = random_words(&mut state, keys);
                    let got = sim.node_values_packed(&words, &key_words).to_vec();
                    let mut fresh = Simulator::new(&nl).expect("acyclic");
                    prop_assert_eq!(got, fresh.node_values_packed(&words, &key_words).to_vec());
                    continue;
                }
            }
            let mut fresh = Simulator::new(&nl).expect("acyclic");
            let want = fresh.node_values(&ins, &ks).to_vec();
            prop_assert_eq!(sim.node_values(&ins, &ks), &want[..]);
            prop_assert_eq!(sim.eval(&ins, &ks), fresh.eval(&ins, &ks));
        }
    }

    #[test]
    fn key_cone_matches_the_full_netlist_on_kept_outputs(
        nl in arb_keyed_netlist(),
        seed in any::<u64>(),
    ) {
        let kept = key_reachable_outputs(&nl);
        let cone = keep_outputs(&nl, &kept).expect("distinct positions");
        prop_assert_eq!(cone.inputs().len(), nl.inputs().len());
        prop_assert_eq!(cone.key_inputs().len(), nl.key_inputs().len());
        prop_assert_eq!(cone.outputs().len(), kept.len());
        prop_assert!(cone.num_gates() <= nl.num_gates());
        cone.validate().expect("cone netlist is well-formed");
        let mut full = Simulator::new(&nl).expect("acyclic");
        let mut part = Simulator::new(&cone).expect("acyclic");
        let mut state = seed | 1;
        for _ in 0..4 {
            let inputs = random_words(&mut state, nl.inputs().len());
            let keys = random_words(&mut state, nl.key_inputs().len());
            let other_keys = random_words(&mut state, nl.key_inputs().len());
            let want = full.eval_packed(&inputs, &keys);
            let got = part.eval_packed(&inputs, &keys);
            for (j, &pos) in kept.iter().enumerate() {
                prop_assert_eq!(got[j], want[pos], "kept output {}", pos);
            }
            // The dropped outputs compute the same under every key.
            let under_other = full.eval_packed(&inputs, &other_keys);
            for pos in (0..want.len()).filter(|p| !kept.contains(p)) {
                prop_assert_eq!(under_other[pos], want[pos], "dropped output {}", pos);
            }
        }
    }

    #[test]
    fn parse_bench_never_panics_on_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = parse_bench(&bytes[..], "bytes");
    }

    #[test]
    fn parse_bench_never_panics_on_token_soup(
        picks in proptest::collection::vec(any::<u16>(), 0..64),
    ) {
        let text: String = picks.iter().map(|&i| BENCH_TOKENS[i as usize % BENCH_TOKENS.len()]).collect();
        let _ = parse_bench(text.as_bytes(), "soup");
    }
}

/// Fragments of `.bench` syntax, well-formed and not, for token soup.
const BENCH_TOKENS: &[&str] = &[
    "INPUT(",
    "OUTPUT(",
    "KEYINPUT(",
    "input",
    "=",
    " = ",
    "AND(",
    "NAND(",
    "OR(",
    "NOR(",
    "XOR(",
    "XNOR(",
    "NOT(",
    "BUF(",
    "MUX(",
    "DFF(",
    "vdd",
    "gnd",
    "(",
    ")",
    ",",
    ", ",
    "a",
    "b",
    "y",
    "keyinput0",
    "key_input1",
    "g1",
    "#",
    "\n",
    "\n",
    " ",
    "\t",
    "18446744073709551616",
    "4294967295",
    "-1",
    "0",
    "p cnf",
    "\u{e9}",
    "\r\n",
];
