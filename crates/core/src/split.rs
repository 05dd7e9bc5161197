//! Split-port selection for the multi-key attack (§4 of the paper).
//!
//! The paper selects the `N` splitting ports "through a fan-out cone
//! analysis of the netlist's input ports, prioritizing those with the most
//! key-controlled gates in their fan-out cones". [`SplitStrategy::FanoutCone`]
//! implements exactly that ranking; the other strategies are ablations used
//! by the benchmark harness to quantify the heuristic's value.

use polykey_netlist::analysis::key_cone_influence;
use polykey_netlist::{Netlist, NodeId};

use crate::error::AttackError;

/// How to choose the `N` splitting ports.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum SplitStrategy {
    /// The paper's heuristic: inputs with the most key-controlled gates in
    /// their transitive fanout.
    #[default]
    FanoutCone,
    /// Ablation: simply the first `N` declared inputs.
    FirstInputs,
    /// Ablation: a seeded random choice.
    Random {
        /// Shuffle seed (same seed ⇒ same ports).
        seed: u64,
    },
}

/// Selects `n` splitting ports from the locked netlist's primary inputs.
///
/// # Errors
///
/// Returns [`AttackError::SplitTooWide`] if `n` exceeds the input count.
///
/// # Examples
///
/// ```
/// use polykey_attack::{select_split_inputs, SplitStrategy};
/// use polykey_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a")?;
/// let b = nl.add_input("b")?;
/// let k = nl.add_key_input("keyinput0")?;
/// // Only `b` feeds the key-controlled gate.
/// let x = nl.add_gate("x", GateKind::Xor, &[b, k])?;
/// let y = nl.add_gate("y", GateKind::And, &[a, x])?;
/// nl.mark_output(y)?;
///
/// let picks = select_split_inputs(&nl, 1, SplitStrategy::FanoutCone)?;
/// assert_eq!(picks, vec![b]);
/// # Ok(())
/// # }
/// ```
pub fn select_split_inputs(
    locked: &Netlist,
    n: usize,
    strategy: SplitStrategy,
) -> Result<Vec<NodeId>, AttackError> {
    let available = locked.inputs().len();
    if n > available {
        return Err(AttackError::SplitTooWide { requested: n, available });
    }
    if n == 0 {
        // Every one-key run asks for zero ports: skip the cone ranking.
        return Ok(Vec::new());
    }
    match strategy {
        SplitStrategy::FanoutCone => {
            let mut ranked = key_cone_influence(locked);
            // Sort by influence descending; ties broken by declaration
            // order (stable sort preserves it).
            ranked.sort_by_key(|&(_, influence)| std::cmp::Reverse(influence));
            Ok(ranked.into_iter().take(n).map(|(id, _)| id).collect())
        }
        SplitStrategy::FirstInputs => Ok(locked.inputs()[..n].to_vec()),
        SplitStrategy::Random { seed } => {
            // Small deterministic LCG shuffle; good enough for an ablation.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut pool: Vec<NodeId> = locked.inputs().to_vec();
            let mut picks = Vec::with_capacity(n);
            for _ in 0..n {
                state =
                    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let idx = (state >> 33) as usize % pool.len();
                picks.push(pool.swap_remove(idx));
            }
            Ok(picks)
        }
    }
}

/// Picks the next splitting port for an adaptive resplit: ranks *every*
/// primary input of `netlist` (the cofactored view of the term being
/// subdivided) with [`select_split_inputs`] and returns the position — in
/// the input declaration order, which cofactoring preserves — of the best
/// port whose position is not already in `used_positions`.
///
/// Returns `Ok(None)` when every input is already a splitting port.
///
/// # Errors
///
/// Propagates [`select_split_inputs`] failures (never `SplitTooWide`,
/// since the request is exactly the input count).
pub(crate) fn next_split_position(
    netlist: &Netlist,
    used_positions: &[usize],
    strategy: SplitStrategy,
) -> Result<Option<usize>, AttackError> {
    let ranked = select_split_inputs(netlist, netlist.inputs().len(), strategy)?;
    for id in ranked {
        let pos = netlist
            .inputs()
            .iter()
            .position(|p| *p == id)
            .expect("ranked ports are primary inputs");
        if !used_positions.contains(&pos) {
            return Ok(Some(pos));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_locking::{Key, LockScheme, Sarlock};
    use polykey_netlist::GateKind;

    /// A circuit where inputs 2 and 3 feed the comparator of SARLock.
    fn sarlock_on_inputs_2_3() -> Netlist {
        let mut nl = Netlist::new("t");
        let ins: Vec<NodeId> = (0..4).map(|i| nl.add_input(format!("x{i}")).unwrap()).collect();
        let g1 = nl.add_gate("g1", GateKind::And, &[ins[0], ins[1]]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Xor, &[g1, ins[2]]).unwrap();
        let g3 = nl.add_gate("g3", GateKind::Or, &[g2, ins[3]]).unwrap();
        nl.mark_output(g3).unwrap();
        let locked = Sarlock::new(2)
            .with_compare_inputs(vec![2, 3])
            .lock(&nl, &Key::from_u64(0b01, 2))
            .unwrap();
        locked.netlist
    }

    #[test]
    fn fanout_cone_prefers_comparator_inputs() {
        let locked = sarlock_on_inputs_2_3();
        let picks = select_split_inputs(&locked, 2, SplitStrategy::FanoutCone).unwrap();
        let names: Vec<&str> = picks.iter().map(|&id| locked.node_name(id)).collect();
        assert!(names.contains(&"x2"), "{names:?}");
        assert!(names.contains(&"x3"), "{names:?}");
    }

    #[test]
    fn first_inputs_strategy() {
        let locked = sarlock_on_inputs_2_3();
        let picks = select_split_inputs(&locked, 2, SplitStrategy::FirstInputs).unwrap();
        assert_eq!(picks, locked.inputs()[..2].to_vec());
    }

    #[test]
    fn random_strategy_is_deterministic_and_distinct() {
        let locked = sarlock_on_inputs_2_3();
        let a = select_split_inputs(&locked, 3, SplitStrategy::Random { seed: 9 }).unwrap();
        let b = select_split_inputs(&locked, 3, SplitStrategy::Random { seed: 9 }).unwrap();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "picks must be distinct");
    }

    #[test]
    fn oversized_split_rejected() {
        let locked = sarlock_on_inputs_2_3();
        assert!(matches!(
            select_split_inputs(&locked, 10, SplitStrategy::FanoutCone),
            Err(AttackError::SplitTooWide { requested: 10, available: 4 })
        ));
    }

    #[test]
    fn zero_split_is_empty() {
        let locked = sarlock_on_inputs_2_3();
        let picks = select_split_inputs(&locked, 0, SplitStrategy::FanoutCone).unwrap();
        assert!(picks.is_empty());
    }

    #[test]
    fn next_split_position_skips_used_ports_and_drains() {
        let locked = sarlock_on_inputs_2_3();
        // The comparator sits on x2/x3, so the first pick is one of them…
        let first = next_split_position(&locked, &[], SplitStrategy::FanoutCone)
            .unwrap()
            .expect("ports available");
        assert!(first == 2 || first == 3, "first pick {first}");
        // …and excluding it yields the other comparator input.
        let second = next_split_position(&locked, &[first], SplitStrategy::FanoutCone)
            .unwrap()
            .expect("ports available");
        assert!(second == 2 || second == 3);
        assert_ne!(first, second);
        // With every input used the well runs dry.
        let all: Vec<usize> = (0..locked.inputs().len()).collect();
        assert_eq!(
            next_split_position(&locked, &all, SplitStrategy::FanoutCone).unwrap(),
            None
        );
    }
}
