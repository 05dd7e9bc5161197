//! Random logic locking (RLL): XOR/XNOR key-gate insertion.
//!
//! The original EPIC-style scheme: pick random wires and splice a key gate
//! into each. An XOR key gate is transparent when its key bit is 0, an XNOR
//! key gate when its key bit is 1, so the inserted polarity hides the
//! correct key value from casual inspection.

use rand::{Rng, RngExt};

use polykey_netlist::{GateKind, Netlist, NodeId};

use crate::common::{key_name, require_unlocked, Key, LockError, LockedCircuit};
use crate::scheme::{placement_rng, require_key_width, LockScheme};

/// Random logic locking: `key_bits` XOR/XNOR key gates spliced after
/// random internal wires (chosen by `seed`).
///
/// # Examples
///
/// ```
/// use polykey_locking::{Key, LockScheme, Rll};
/// use polykey_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a")?;
/// let b = nl.add_input("b")?;
/// let g = nl.add_gate("g", GateKind::And, &[a, b])?;
/// nl.mark_output(g)?;
///
/// let scheme = Rll::new(1).with_seed(7);
/// let locked = scheme.lock(&nl, &Key::from_u64(1, 1))?;
/// assert_eq!(locked.netlist.key_inputs().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use]
pub struct Rll {
    /// Number of key gates to insert.
    pub key_bits: usize,
    /// Seed driving the wire selection (same seed ⇒ same placement).
    pub seed: u64,
}

impl Rll {
    /// An RLL scheme inserting `key_bits` key gates (placement seed 0).
    pub fn new(key_bits: usize) -> Rll {
        Rll { key_bits, seed: 0 }
    }

    /// Replaces the placement seed.
    pub fn with_seed(mut self, seed: u64) -> Rll {
        self.seed = seed;
        self
    }
}

impl Default for Rll {
    /// Eight key gates, placement seed 0.
    fn default() -> Rll {
        Rll::new(8)
    }
}

impl LockScheme for Rll {
    fn name(&self) -> &str {
        "rll"
    }

    fn key_len(&self, _netlist: &Netlist) -> usize {
        self.key_bits
    }

    fn lock(&self, netlist: &Netlist, key: &Key) -> Result<LockedCircuit, LockError> {
        require_key_width(self.key_bits, key)?;
        lock_rll_with(netlist, key, &mut placement_rng(self.seed))
    }
}

/// Inserts one XOR/XNOR key gate per key bit: placement from `rng`,
/// polarity from the key (bit 1 ⇒ XNOR, so the given key is transparent).
fn lock_rll_with(
    netlist: &Netlist,
    key: &Key,
    rng: &mut dyn Rng,
) -> Result<LockedCircuit, LockError> {
    require_unlocked(netlist)?;
    let key_bits = key.len();
    // Candidate wires: outputs of real gates (not inputs, not constants).
    let candidates: Vec<NodeId> = netlist
        .node_ids()
        .filter(|&id| {
            let kind = netlist.node(id).kind();
            !kind.is_input() && !matches!(kind, GateKind::Const(_))
        })
        .collect();
    if candidates.len() < key_bits {
        return Err(LockError::KeyTooWide { requested: key_bits, available: candidates.len() });
    }

    // Sample distinct targets (partial Fisher–Yates).
    let mut pool = candidates;
    let mut targets = Vec::with_capacity(key_bits);
    for _ in 0..key_bits {
        let i = rng.random_range(0..pool.len());
        targets.push(pool.swap_remove(i));
    }

    let mut locked = netlist.clone();
    locked.set_name(format!("{}_rll{}", netlist.name(), key_bits));
    for (i, &target) in targets.iter().enumerate() {
        // Xor(x, 0) = x and Xnor(x, 1) = x: the key bit picks the
        // transparent polarity.
        let use_xnor = key.bit(i);
        let kname = key_name(&locked, i);
        let k = locked.add_key_input(kname)?;
        let gate_kind = if use_xnor { GateKind::Xnor } else { GateKind::Xor };
        let gname = format!("rll_{}_{}", if use_xnor { "xnor" } else { "xor" }, i);
        locked.insert_after(target, gname, gate_kind, &[k])?;
    }
    Ok(LockedCircuit { netlist: locked, key: key.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_netlist::{bits_of, Simulator};

    fn sample() -> Netlist {
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let g1 = nl.add_gate("g1", GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Or, &[g1, c]).unwrap();
        let g3 = nl.add_gate("g3", GateKind::Xor, &[g1, g2]).unwrap();
        let g4 = nl.add_gate("g4", GateKind::Nand, &[g2, g3]).unwrap();
        nl.mark_output(g4).unwrap();
        nl
    }

    #[test]
    fn correct_key_restores_function() {
        let nl = sample();
        let locked = Rll::new(3).with_seed(11).lock(&nl, &Key::from_u64(0b101, 3)).unwrap();
        assert_eq!(locked.netlist.key_inputs().len(), 3);
        assert_eq!(locked.netlist.inputs().len(), 3);

        let mut orig = Simulator::new(&nl).unwrap();
        let mut lsim = Simulator::new(&locked.netlist).unwrap();
        for v in 0..8u64 {
            let bits = bits_of(v, 3);
            assert_eq!(
                lsim.eval(&bits, locked.key.bits()),
                orig.eval(&bits, &[]),
                "correct key must unlock, pattern {v:b}"
            );
        }
    }

    #[test]
    fn every_key_value_is_lockable() {
        // The polarity trick must make *any* requested key correct.
        let nl = sample();
        let scheme = Rll::new(3).with_seed(4);
        let mut orig = Simulator::new(&nl).unwrap();
        for k in 0..8u64 {
            let key = Key::from_u64(k, 3);
            let locked = scheme.lock(&nl, &key).unwrap();
            let mut lsim = Simulator::new(&locked.netlist).unwrap();
            for v in 0..8u64 {
                let bits = bits_of(v, 3);
                assert_eq!(
                    lsim.eval(&bits, key.bits()),
                    orig.eval(&bits, &[]),
                    "key {k:03b}, pattern {v:03b}"
                );
            }
        }
    }

    #[test]
    fn some_wrong_key_corrupts() {
        let nl = sample();
        let locked = Rll::new(3).with_seed(11).lock(&nl, &Key::from_u64(0b010, 3)).unwrap();
        // Flipping one key bit of an XOR/XNOR chain must change the function
        // somewhere (the key gate sits on a live wire).
        let mut wrong = locked.key.bits().to_vec();
        wrong[0] = !wrong[0];
        let mut orig = Simulator::new(&nl).unwrap();
        let mut lsim = Simulator::new(&locked.netlist).unwrap();
        let corrupts = (0..8u64).any(|v| {
            let bits = bits_of(v, 3);
            lsim.eval(&bits, &wrong) != orig.eval(&bits, &[])
        });
        assert!(corrupts, "flipped key bit must corrupt at least one pattern");
    }

    #[test]
    fn too_many_key_bits_rejected() {
        let nl = sample();
        assert!(matches!(
            Rll::new(100).lock(&nl, &Key::new(vec![false; 100])),
            Err(LockError::KeyTooWide { available: 4, .. })
        ));
    }

    #[test]
    fn relocking_rejected() {
        let nl = sample();
        let once = Rll::new(2).lock(&nl, &Key::from_u64(1, 2)).unwrap();
        assert!(matches!(
            Rll::new(1).lock(&once.netlist, &Key::from_u64(0, 1)),
            Err(LockError::AlreadyLocked { .. })
        ));
    }

    #[test]
    fn locked_netlist_validates() {
        let nl = sample();
        let locked = Rll::new(4).with_seed(3).lock(&nl, &Key::from_u64(6, 4)).unwrap();
        locked.netlist.validate().unwrap();
        assert_eq!(locked.netlist.num_gates(), nl.num_gates() + 4);
    }
}
