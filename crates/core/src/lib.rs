//! # polykey-attack: the multi-key SAT attack on logic locking
//!
//! The core of the `polykey` suite: a faithful implementation of the DAC'24
//! late-breaking paper *"On the One-Key Premise of Logic Locking"*, together
//! with the classic oracle-guided SAT attack it builds on.
//!
//! ## The surface
//!
//! One builder drives every attack scenario:
//!
//! - [`AttackSession`] — configure oracle, splitting effort, worker
//!   threads, time budget, cancellation, and progress once; `run()`
//!   returns an [`AttackReport`]: the term tree of Algorithm 1 with
//!   uniform [`AttackStats`]. `split_effort = N > 0` starts from `2^N`
//!   parallel sub-attacks; `split_effort = 0` is a one-term tree, the
//!   classic one-key SAT attack run on the calling thread. With a
//!   per-term budget (`AttackSessionBuilder::term_dip_budget` /
//!   `AttackSessionBuilder::term_time_budget`) the engine splits
//!   **adaptively**: hard terms are subdivided one port at a time into a
//!   prefix *tree* of `(pattern, width)` sub-spaces, so easy regions
//!   finish shallow while the hard ones (the SARLock pattern term) get
//!   exactly as much splitting as they need.
//! - [`AttackReport::recombine`] — Fig. 1(b): a MUX tree over the split
//!   ports turns the sub-space keys into a keyless netlist equivalent to
//!   the original design.
//! - [`Oracle`] / [`SimOracle`] / [`RestrictedOracle`] — the attacker's
//!   black-box chip access; any `Send` implementation plugs into a
//!   session. [`Oracle::query_batch`] answers a whole batch of patterns
//!   per round-trip, and `AttackSessionBuilder::dip_batch` makes every
//!   attack harvest and answer its DIPs in such batches (a [`SimOracle`]
//!   serves 64 patterns per bit-parallel simulation pass).
//! - [`select_split_inputs`] — the paper's fan-out-cone split-port
//!   heuristic plus ablation strategies.
//! - [`verify_key`] / [`verify_key_on_subspace`] — SAT-based key checks;
//!   [`random_sim_mismatches`] for quick probabilistic screening.
//! - [`appsat_attack`] — an AppSAT-style approximate attack, for contrast
//!   with the paper's exact multi-key recovery.
//!
//! ## End-to-end example
//!
//! ```
//! use polykey_attack::{AttackSession, SimOracle};
//! use polykey_encode::{check_equivalence, EquivResult};
//! use polykey_locking::{Key, LockScheme, Sarlock};
//! use polykey_netlist::{GateKind, Netlist};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A toy design, locked with SARLock (|K| = 3).
//! let mut nl = Netlist::new("toy");
//! let a = nl.add_input("a")?;
//! let b = nl.add_input("b")?;
//! let c = nl.add_input("c")?;
//! let g = nl.add_gate("g", GateKind::And, &[a, b])?;
//! let y = nl.add_gate("y", GateKind::Xor, &[g, c])?;
//! nl.mark_output(y)?;
//! let locked = Sarlock::new(3).lock(&nl, &Key::from_u64(5, 3))?;
//!
//! // Algorithm 1 with N = 1: two parallel sub-attacks over one oracle.
//! let mut oracle = SimOracle::new(&nl)?;
//! let report = AttackSession::builder()
//!     .oracle(&mut oracle)
//!     .split_effort(1)
//!     .build()?
//!     .run(&locked.netlist)?;
//! assert!(report.is_complete());
//!
//! // Fig. 1(b): recombine the two (possibly wrong) keys — and prove the
//! // result equivalent to the original design.
//! let unlocked = report.recombine(&locked.netlist)?;
//! assert_eq!(check_equivalence(&nl, &unlocked)?, EquivResult::Equivalent);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod approx;
mod error;
mod multikey;
mod oracle;
mod recombine;
mod sat_attack;
mod session;
mod split;
mod verify;

pub use approx::{appsat_attack, AppSatConfig, AppSatOutcome};
pub use error::AttackError;
pub use multikey::{SubKey, SubTaskReport, MAX_SPLIT_WIDTH};
pub use oracle::{Oracle, RestrictedOracle, SimOracle};
pub use recombine::recombine_multikey;
pub use sat_attack::{AttackStatus, SatAttackStats};
pub use session::{
    AttackReport, AttackSession, AttackSessionBuilder, AttackStats, CancelToken, ProgressEvent,
};
pub use split::{select_split_inputs, SplitStrategy};
pub use verify::{random_sim_mismatches, verify_key, verify_key_on_subspace};
