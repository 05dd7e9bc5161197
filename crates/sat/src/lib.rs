//! # polykey-sat: a CDCL SAT solver for oracle-guided netlist attacks
//!
//! A self-contained, MiniSat-class CDCL solver used as the engine of the
//! `polykey` logic-locking attack suite, together with a plain CNF container
//! and DIMACS I/O.
//!
//! The solver implements the standard modern ingredient list:
//!
//! - two-watched-literal propagation with blocker literals,
//! - VSIDS decision heuristic with phase saving,
//! - first-UIP clause learning with deep (recursive) minimization,
//! - Luby restarts,
//! - activity/LBD-guided learnt-clause database reduction,
//! - **incremental solving**: clauses can be added between `solve` calls and
//!   each call takes a list of assumption literals, the pattern the
//!   SAT attack's DIP loop relies on.
//!
//! # Examples
//!
//! ```
//! use polykey_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var().positive();
//! let b = solver.new_var().positive();
//! solver.add_clause(&[a, b]);
//! solver.add_clause(&[!a, b]);
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! assert_eq!(solver.model_value(b), Some(true));
//! ```
//!
//! Encoders that should work against either a [`Solver`] or a
//! [`CnfFormula`] can be written against the [`ClauseSink`] trait. An
//! [`ElimBuffer`] sits between such an encoder and its target: it
//! eliminates the variables private to one batch of clauses before the
//! target sees them. What it flushes into a solver with
//! [`ElimBuffer::flush_mirrored`] is merged there with earlier such
//! clauses that differ from it in one literal's sign.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod clause;
mod cnf;
mod dimacs;
mod elim;
mod heap;
mod lit;
mod solver;

pub use cnf::{ClauseSink, CnfFormula};
pub use dimacs::{parse_dimacs, write_dimacs, ParseDimacsError};
pub use elim::ElimBuffer;
pub use lit::{LBool, Lit, Var};
pub use solver::{SolveResult, Solver, SolverStats};
