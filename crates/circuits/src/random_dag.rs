//! Seeded random combinational netlists with an ISCAS-like gate mix.
//!
//! Used to build reproducible stand-ins for benchmark circuits whose
//! original netlist files are not redistributable here. The generator
//! matches input count, output count and approximate gate count, keeps
//! every input live, and leaves no dead logic (every gate feeds an output).

use rand::{Rng, RngExt, SeedableRng};

use polykey_netlist::{GateKind, Netlist, NodeId};

/// Specification for one random circuit.
#[derive(Clone, Debug)]
pub struct RandomCircuitSpec {
    /// Design name.
    pub name: String,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Approximate number of gates (the result may differ by a few percent
    /// because sinks are merged to avoid dead logic).
    pub gates: usize,
    /// RNG seed: the same spec always generates the same netlist.
    pub seed: u64,
}

impl RandomCircuitSpec {
    /// Creates a spec.
    pub fn new(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
        gates: usize,
        seed: u64,
    ) -> RandomCircuitSpec {
        RandomCircuitSpec { name: name.into(), inputs, outputs, gates, seed }
    }
}

/// Weighted ISCAS-like gate mix.
fn pick_kind<R: Rng>(rng: &mut R) -> GateKind {
    match rng.random_range(0..100u32) {
        0..=19 => GateKind::And,
        20..=44 => GateKind::Nand,
        45..=59 => GateKind::Or,
        60..=74 => GateKind::Nor,
        75..=84 => GateKind::Not,
        85..=94 => GateKind::Xor,
        _ => GateKind::Xnor,
    }
}

/// Generates the circuit described by `spec`.
///
/// Properties guaranteed:
///
/// - exactly `spec.inputs` inputs and `spec.outputs` outputs;
/// - every primary input is in the fan-in cone of some output;
/// - no dead logic: every gate drives an output (directly or transitively);
/// - deterministic for a given spec (including the seed).
///
/// # Panics
///
/// Panics if `inputs` or `outputs` is 0, or `gates < inputs`.
#[allow(clippy::needless_range_loop)]
pub fn generate_random(spec: &RandomCircuitSpec) -> Netlist {
    assert!(spec.inputs > 0 && spec.outputs > 0, "need at least one input and output");
    assert!(spec.gates >= spec.inputs, "need at least one gate per input to keep inputs live");
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
    let mut nl = Netlist::new(spec.name.clone());

    let inputs: Vec<NodeId> =
        (0..spec.inputs).map(|i| nl.add_input(format!("I{i}")).expect("fresh")).collect();
    let mut pool: Vec<NodeId> = inputs.clone();

    // Reserve some budget for the sink-merge stage (≈ outputs gates).
    let body_gates = spec.gates.saturating_sub(spec.outputs / 2).max(spec.inputs);
    for g in 0..body_gates {
        let kind = if g < spec.inputs {
            // The first `inputs` gates each consume a distinct input, so
            // every input is live.
            pick_kind(&mut rng)
        } else {
            pick_kind(&mut rng)
        };
        let arity = match kind.arity() {
            Some(a) => a,
            None => {
                // Mostly 2-input gates with a sprinkle of 3- and 4-input.
                match rng.random_range(0..10u32) {
                    0 => 3,
                    1 => 4,
                    _ => 2,
                }
            }
        };
        let mut fanins = Vec::with_capacity(arity);
        if g < spec.inputs {
            fanins.push(inputs[g]);
        }
        while fanins.len() < arity {
            // Locality bias: prefer recent nodes to get realistic depth.
            let id = if rng.random_bool(0.7) && pool.len() > 32 {
                let lo = pool.len() - 32;
                pool[rng.random_range(lo..pool.len())]
            } else {
                pool[rng.random_range(0..pool.len())]
            };
            fanins.push(id);
        }
        let id = nl.add_gate(format!("N{g}"), kind, &fanins).expect("fresh");
        pool.push(id);
    }

    // Output selection: start from the sinks (nodes nothing reads) so that
    // no logic is dead, then merge surplus sinks pairwise, then top up from
    // the deepest remaining nodes.
    let mut read = vec![false; nl.num_nodes()];
    for id in nl.node_ids() {
        for f in nl.node(id).fanins() {
            read[f.index()] = true;
        }
    }
    let mut sinks: Vec<NodeId> = nl
        .node_ids()
        .filter(|id| !read[id.index()] && !nl.node(*id).kind().is_input())
        .collect();
    let mut merge_idx = 0usize;
    while sinks.len() > spec.outputs {
        // Merge the two oldest sinks into one fresh gate.
        let a = sinks.remove(0);
        let b = sinks.remove(0);
        let kind = if rng.random_bool(0.5) { GateKind::Xor } else { GateKind::Nand };
        let m = nl.add_gate(format!("MRG{merge_idx}"), kind, &[a, b]).expect("fresh");
        merge_idx += 1;
        sinks.push(m);
    }
    let mut outputs = sinks;
    // Top up with non-sink nodes if there were too few sinks (their cones
    // are already live, so no dead logic appears).
    let mut candidate = nl.num_nodes();
    while outputs.len() < spec.outputs {
        candidate -= 1;
        let id = nl.node_ids().nth(candidate).expect("in range");
        if !outputs.contains(&id) && !nl.node(id).kind().is_input() {
            outputs.push(id);
        }
    }
    for id in outputs.into_iter().take(spec.outputs) {
        nl.mark_output(id).expect("distinct outputs");
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_netlist::analysis::{transitive_fanin, transitive_fanout};

    fn spec(gates: usize) -> RandomCircuitSpec {
        RandomCircuitSpec::new("t", 8, 4, gates, 0xABCD)
    }

    #[test]
    fn interface_is_exact() {
        let nl = generate_random(&spec(120));
        assert_eq!(nl.inputs().len(), 8);
        assert_eq!(nl.outputs().len(), 4);
        nl.validate().unwrap();
    }

    #[test]
    fn gate_count_is_close() {
        for target in [50usize, 200, 1000] {
            let nl = generate_random(&RandomCircuitSpec::new("t", 10, 8, target, 7));
            let got = nl.num_gates();
            let tolerance = target / 5 + 10;
            assert!(got.abs_diff(target) <= tolerance, "target {target}, got {got}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_random(&spec(150));
        let b = generate_random(&spec(150));
        assert_eq!(a.num_nodes(), b.num_nodes());
        let mut sa = polykey_netlist::Simulator::new(&a).unwrap();
        let mut sb = polykey_netlist::Simulator::new(&b).unwrap();
        for v in 0..64u64 {
            let bits = polykey_netlist::bits_of(v * 37 % 256, 8);
            assert_eq!(sa.eval(&bits, &[]), sb.eval(&bits, &[]));
        }
        let c = generate_random(&RandomCircuitSpec::new("t", 8, 4, 150, 999));
        assert_ne!(
            {
                let mut sc = polykey_netlist::Simulator::new(&c).unwrap();
                (0..64u64)
                    .map(|v| sc.eval(&polykey_netlist::bits_of(v, 8), &[]))
                    .collect::<Vec<_>>()
            },
            (0..64u64)
                .map(|v| sa.eval(&polykey_netlist::bits_of(v, 8), &[]))
                .collect::<Vec<_>>(),
            "different seeds give different functions"
        );
    }

    #[test]
    fn all_inputs_live() {
        let nl = generate_random(&spec(100));
        let cone = transitive_fanin(&nl, nl.outputs());
        for &pi in nl.inputs() {
            assert!(cone[pi.index()], "input {} must reach an output", nl.node_name(pi));
        }
    }

    #[test]
    fn no_dead_logic() {
        let nl = generate_random(&spec(100));
        let cone = transitive_fanin(&nl, nl.outputs());
        for id in nl.node_ids() {
            assert!(
                cone[id.index()],
                "gate {} is dead (not in any output cone)",
                nl.node_name(id)
            );
        }
        // Sanity: outputs reachable from inputs.
        let fan = transitive_fanout(&nl, nl.inputs());
        assert!(nl.outputs().iter().all(|o| fan[o.index()]));
    }
}
