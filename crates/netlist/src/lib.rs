//! # polykey-netlist: gate-level netlists for logic-locking research
//!
//! The circuit substrate of the `polykey` suite:
//!
//! - a typed, validated, combinational netlist IR ([`Netlist`], [`GateKind`])
//!   with the wire-splicing primitive locking schemes need
//!   ([`Netlist::insert_after`]);
//! - ISCAS `.bench` reading and writing ([`parse_bench`], [`write_bench`]),
//!   including the `keyinput` conventions of published locked benchmarks;
//! - simulation ([`Simulator`]): 64-way bit-parallel for pattern sets,
//!   event-driven for one pattern after another;
//! - structural analysis: fan-in/fan-out cones, key-controlled masks, logic
//!   levels ([`analysis`]);
//! - logic simplification: [`cofactor`] pins inputs to constants and
//!   [`simplify`] sweeps the logic that leaves redundant;
//! - cone cuts: [`keep_outputs`], down to the cone of chosen outputs (the
//!   attack's cone of influence), and [`peel_key_free_layers`], down to the
//!   logic that tells two keys apart (what the attack's miter encodes).
//!
//! # Examples
//!
//! ```
//! use polykey_netlist::{GateKind, Netlist, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nl = Netlist::new("mux2");
//! let s = nl.add_input("s")?;
//! let a = nl.add_input("a")?;
//! let b = nl.add_input("b")?;
//! let y = nl.add_gate("y", GateKind::Mux, &[s, a, b])?;
//! nl.mark_output(y)?;
//!
//! let mut sim = Simulator::new(&nl)?;
//! assert_eq!(sim.eval(&[false, true, false], &[]), vec![true]);
//! assert_eq!(sim.eval(&[true, true, false], &[]), vec![false]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
mod bench;
mod gate;
mod netlist;
mod sim;
mod transform;

pub use bench::{parse_bench, write_bench, ParseBenchError};
pub use gate::GateKind;
pub use netlist::{Netlist, NetlistError, Node, NodeId};
pub use sim::{bits_of, bits_to_u64, pack_patterns, unpack_patterns, Simulator};
pub use transform::{
    cofactor, keep_outputs, peel_key_free_layers, pin_keys, simplify, SimplifyStats,
};
