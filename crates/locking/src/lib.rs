//! # polykey-locking: logic locking schemes behind one trait
//!
//! Every locking technique the paper's evaluation touches is a value
//! implementing [`LockScheme`], so attacks, harnesses, and sweeps treat
//! schemes as interchangeable parts (`Vec<Box<dyn LockScheme>>`):
//!
//! - [`Rll`] — random XOR/XNOR key-gate insertion (EPIC-style), the
//!   baseline every oracle-guided attack breaks quickly;
//! - [`Sarlock`] — SARLock point-function locking (Table 1 and the
//!   Fig. 1(a) error distribution);
//! - [`AntiSat`] — Anti-SAT complementary blocks, a scheme whose correct
//!   keys are non-unique by design;
//! - [`LutLock`] — two-stage LUT insertion (Table 2), which bloats the
//!   SAT attack's miter instead of its iteration count.
//!
//! Every scheme adds `keyinput{i}` ports to a pristine netlist and returns
//! a [`LockedCircuit`]: the locked netlist together with a correct
//! [`Key`]. [`LockScheme::lock`] makes the *requested* key correct;
//! [`LockScheme::lock_random`] samples one. Locking is functionally
//! invisible under the correct key — a property the test suites verify
//! exhaustively on small circuits.
//!
//! [`lock_sarlock_on_signals`] (the defense-direction variant reading
//! internal nets) is a free function: it is parameterized by node ids,
//! which no netlist-independent scheme value can carry.
//!
//! # Examples
//!
//! ```
//! use polykey_netlist::{GateKind, Netlist, Simulator};
//! use polykey_locking::{Key, LockScheme, Sarlock};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nl = Netlist::new("toy");
//! let a = nl.add_input("a")?;
//! let b = nl.add_input("b")?;
//! let y = nl.add_gate("y", GateKind::And, &[a, b])?;
//! nl.mark_output(y)?;
//!
//! let locked = Sarlock::new(2).lock(&nl, &Key::from_u64(0b01, 2))?;
//! assert_eq!(locked.netlist.key_inputs().len(), 2);
//!
//! // The correct key restores the original function.
//! let mut sim = Simulator::new(&locked.netlist)?;
//! assert_eq!(sim.eval(&[true, true], locked.key.bits()), vec![true]);
//! assert_eq!(sim.eval(&[true, false], locked.key.bits()), vec![false]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod antisat;
mod common;
mod lut;
mod rll;
mod sarlock;
mod scheme;

pub use antisat::AntiSat;
pub use common::{Key, LockError, LockedCircuit};
pub use lut::LutLock;
pub use rll::Rll;
pub use sarlock::{lock_sarlock_on_signals, Sarlock};
pub use scheme::LockScheme;
