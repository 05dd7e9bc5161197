//! Derived netlists are pinned node for node and name for name.
//!
//! The attack's search counters depend on how `keep_outputs` numbers and
//! names the key cone it encodes, and recombination and key proofs on how
//! `pin_keys` does. `cofactor` followed by `simplify` (Algorithm 1 line 4)
//! is no longer on the attack path, but both stay public transforms. A
//! change to how any of these netlists is built must leave them identical. Each test fingerprints (name, kind, fanins) of
//! every node in id order, plus the three port lists, and compares with a
//! constant.

use polykey::circuits::Iscas85;
use polykey::locking::{Key, LockScheme, Sarlock};
use polykey::netlist::analysis::key_reachable_outputs;
use polykey::netlist::{cofactor, keep_outputs, pin_keys, simplify, Netlist, NodeId};

/// FNV-1a over the netlist's structure: stable across platforms and
/// toolchains, unlike the std hashers.
fn fingerprint(netlist: &Netlist) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let ids = |eat: &mut dyn FnMut(&[u8]), ids: &[NodeId]| {
        eat(&(ids.len() as u64).to_le_bytes());
        for id in ids {
            eat(&(id.index() as u64).to_le_bytes());
        }
    };
    eat(netlist.name().as_bytes());
    eat(&(netlist.num_nodes() as u64).to_le_bytes());
    for id in netlist.node_ids() {
        let node = netlist.node(id);
        eat(netlist.node_name(id).as_bytes());
        eat(&[0xff]);
        eat(format!("{:?}", node.kind()).as_bytes());
        ids(&mut eat, node.fanins());
    }
    ids(&mut eat, netlist.inputs());
    ids(&mut eat, netlist.key_inputs());
    ids(&mut eat, netlist.outputs());
    hash
}

fn first_four_pinned(netlist: &Netlist) -> Vec<(NodeId, bool)> {
    netlist.inputs()[..4].iter().enumerate().map(|(i, &id)| (id, i % 2 == 0)).collect()
}

fn sarlock_c7552() -> (Netlist, Key) {
    let key = Key::from_u64(0xA5, 8);
    let locked = Sarlock::new(8).lock(&Iscas85::C7552.build(), &key).expect("lockable");
    (locked.netlist, key)
}

#[test]
fn cofactor_simplify_of_c7552_is_pinned() {
    let c7552 = Iscas85::C7552.build();
    let (term, _) =
        simplify(&cofactor(&c7552, &first_four_pinned(&c7552)).expect("valid pins"));
    assert_eq!((term.num_nodes(), fingerprint(&term)), (3761, 151_623_214_246_714_311));
}

#[test]
fn locked_term_and_its_key_cone_are_pinned() {
    let (locked, _) = sarlock_c7552();
    let (term, _) =
        simplify(&cofactor(&locked, &first_four_pinned(&locked)).expect("valid pins"));
    assert_eq!((term.num_nodes(), fingerprint(&term)), (3783, 1_295_139_257_615_978_995));
    let cone = keep_outputs(&term, &key_reachable_outputs(&term)).expect("distinct positions");
    assert_eq!((cone.num_nodes(), fingerprint(&cone)), (1111, 17_625_293_004_780_226_001));
}

#[test]
fn pin_keys_of_sarlock_c7552_is_pinned() {
    let (locked, key) = sarlock_c7552();
    let unlocked = pin_keys(&locked, key.bits()).expect("key width matches");
    assert_eq!(
        (unlocked.num_nodes(), fingerprint(&unlocked)),
        (4072, 4_967_473_633_055_077_689)
    );
}
