//! # polykey — the multi-key SAT attack on logic locking
//!
//! A complete Rust reproduction of the DAC 2024 late-breaking paper
//! *"On the One-Key Premise of Logic Locking"* (Hu, Cherupalli, Borza,
//! Sherlekar — Synopsys), including every substrate the paper relies on:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sat`] | `polykey-sat` | CDCL SAT solver (MiniSat-class), CNF, DIMACS |
//! | [`netlist`] | `polykey-netlist` | gate-level IR, `.bench` I/O, simulation, analysis, re-synthesis passes |
//! | [`encode`] | `polykey-encode` | Tseitin encoding, miters, equivalence checking |
//! | [`locking`] | `polykey-locking` | the [`locking::LockScheme`] trait: RLL, SARLock, Anti-SAT, LUT insertion |
//! | [`circuits`] | `polykey-circuits` | ISCAS'85 stand-ins, arithmetic generators |
//! | [`attack`] | `polykey-attack` | [`attack::AttackSession`]: the SAT attack, Algorithm 1 (multi-key), Fig. 1(b) recombination, key verification |
//!
//! ## The idea, in one example
//!
//! Logic locking is traditionally judged by how hard it is to recover *the*
//! correct key. The paper breaks that premise: split the input space on a
//! few well-chosen ports, attack each sub-space independently (in
//! parallel), and recombine the recovered — individually *incorrect* —
//! keys with a MUX tree into a fully functional design. One builder drives
//! every scenario, and schemes are interchangeable values:
//!
//! ```
//! use polykey::attack::{AttackSession, SimOracle};
//! use polykey::circuits::c17;
//! use polykey::encode::{check_equivalence, EquivResult};
//! use polykey::locking::{Key, LockScheme, Sarlock};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let original = c17();
//! let locked = Sarlock::new(4).lock(&original, &Key::from_u64(9, 4))?;
//!
//! // Algorithm 1 with N = 2: four parallel sub-attacks over one oracle.
//! let mut oracle = SimOracle::new(&original)?;
//! let report = AttackSession::builder()
//!     .oracle(&mut oracle)
//!     .split_effort(2)
//!     .build()?
//!     .run(&locked.netlist)?;
//! assert!(report.is_complete());
//!
//! // Fig. 1(b): the sub-keys collectively restore the design.
//! let unlocked = report.recombine(&locked.netlist)?;
//! assert_eq!(check_equivalence(&original, &unlocked)?, EquivResult::Equivalent);
//! # Ok(())
//! # }
//! ```
//!
//! See `README.md` for the quickstart, the crate map and the `bench`
//! scenario that regenerates each table and figure, and `ARCHITECTURE.md`
//! for the design: the DIP-refinement data flow, the adaptive term tree
//! and the benchmark harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use polykey_attack as attack;
pub use polykey_circuits as circuits;
pub use polykey_encode as encode;
pub use polykey_locking as locking;
pub use polykey_netlist as netlist;
pub use polykey_sat as sat;

/// Compiles and runs every fenced Rust block in `README.md` under
/// `cargo test`, so the README's end-to-end example cannot rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
