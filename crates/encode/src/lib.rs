//! # polykey-encode: netlists ⇄ CNF
//!
//! Bridges the [`polykey_netlist`] circuit world and the [`polykey_sat`]
//! solver world:
//!
//! - [`encode`]: Tseitin encoding of a netlist copy with caller-controlled
//!   port bindings ([`Binding`]): fresh variables, shared literals, or
//!   pinned constants (with on-the-fly constant propagation). Gates are
//!   hash-consed by kind and normalised fan-in literals, so structurally
//!   identical logic is encoded once;
//! - [`ConeEncoder`]: the same copies with inputs pinned to a pattern,
//!   visiting only the key cone;
//! - [`build_miter`]: two circuit copies sharing primary inputs and one
//!   structural-hash table, plus a `diff` literal that, when assumed,
//!   forces an output difference — the engine of the oracle-guided SAT
//!   attack. Logic the copies share gets one variable, so only the parts
//!   that can differ reach the solver;
//! - [`check_equivalence`]: one-call combinational equivalence checking
//!   over that miter;
//! - [`AttackEncoding`]: the attack's CNF, built once per session: the
//!   miter of the key cone with its key-free output layers peeled off (in
//!   the textbook formulation, of the whole netlist), and what each run's
//!   [`DipConstraints`] need to add a DIP — a cone copy hashed against the
//!   miter, eliminated and renamed onto the right keys, or two full copies.
//!
//! The attack miter, its per-DIP constraint copies and equivalence checks
//! all take this one gate encoder.
//!
//! # Examples
//!
//! Prove a locked circuit equals its original under the correct key:
//!
//! ```
//! use polykey_netlist::{GateKind, Netlist, pin_keys};
//! use polykey_encode::{check_equivalence, EquivResult};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut orig = Netlist::new("orig");
//! let a = orig.add_input("a")?;
//! let y = orig.add_gate("y", GateKind::Not, &[a])?;
//! orig.mark_output(y)?;
//!
//! let mut locked = Netlist::new("locked");
//! let a = locked.add_input("a")?;
//! let k = locked.add_key_input("keyinput0")?;
//! let x = locked.add_gate("x", GateKind::Xnor, &[a, k])?;
//! locked.mark_output(x)?;
//!
//! // k = 0 turns the XNOR into a NOT (Xnor(a, 0) = ¬a).
//! let unlocked = pin_keys(&locked, &[false])?;
//! assert_eq!(check_equivalence(&orig, &unlocked)?, EquivResult::Equivalent);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attack;
mod equiv;
mod miter;
mod tseitin;

pub use attack::{AttackEncoding, DipConstraints, PendingCopies};
pub use equiv::{check_equivalence, EquivResult};
pub use miter::{build_miter, Miter};
pub use tseitin::{
    assert_equal, assert_value, encode, Binding, CnfValue, ConeEncoder, EncodeError,
    EncodedCircuit, PortBinding,
};
