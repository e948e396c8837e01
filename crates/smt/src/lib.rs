//! From-scratch decision-procedure substrate for the CIRC race
//! checker.
//!
//! The paper discharges its logical queries (predicate abstraction
//! post-images, region entailment, trace-formula feasibility,
//! predicate mining from infeasibility proofs) with the Simplify
//! prover and the proof-mining technique of *Abstractions from Proofs*
//! (Henzinger–Jhala–Majumdar–McMillan, POPL 04). This crate rebuilds
//! the needed fragment from scratch:
//!
//! * [`LinExpr`] / [`Atom`] — normalized linear integer arithmetic
//!   atoms `Σ aᵢ·xᵢ + c {=, ≤, ≠} 0` over solver variables [`SVar`],
//! * [`Formula`] — boolean combinations with NNF and Tseitin CNF
//!   conversion,
//! * [`sat`] — a CDCL SAT solver (two-watched literals, first-UIP
//!   learning, backjumping, assumption cores),
//! * [`lia`] — a conjunctive linear-integer solver (Gaussian
//!   elimination of equalities, Fourier–Motzkin with GCD tightening,
//!   disequality splitting, model extraction, unsat-subset
//!   minimization, existential projection),
//! * [`Solver`] — the lazy DPLL(T) combination (a conjunction of
//!   atoms takes one theory check instead of the loop), memoized per
//!   NNF in memory, with entailment and interpolant-style projection
//!   used by `circ-core`.
//!
//! The crate does no disk I/O: what `circ-core` persists, it persists
//! at the atom level (`circ_core::persist`).
//!
//! Completeness note: satisfiability of conjunctions is decided
//! exactly on rationals; on integers, per-constraint GCD tightening
//! closes the common gaps (`2x = 1`, `1 ≤ 2x ≤ 1`, …). The benchmark
//! programs of the reproduction stay well inside this fragment (unit
//! coefficients and constants).
//!
//! # Example
//!
//! ```
//! use circ_smt::{Atom, LinExpr, SVar, Solver, Formula};
//!
//! let x = SVar(0);
//! let y = SVar(1);
//! // x = y  ∧  y = 0  ∧  x ≠ 0   is unsatisfiable
//! let f = Formula::atom(Atom::eq(LinExpr::var(x) - LinExpr::var(y)))
//!     .and(Formula::atom(Atom::eq(LinExpr::var(y))))
//!     .and(Formula::atom(Atom::ne(LinExpr::var(x))));
//! let mut solver = Solver::new();
//! assert!(!solver.is_sat(&f));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
mod formula;
pub mod lia;
mod lin;
pub mod sat;
mod solver;
pub mod translate;

pub use atom::{Atom, Rel};
pub use formula::Formula;
pub use lin::{LinExpr, SVar};
pub use solver::{SatResult, Solver};
