//! Abstract threads and context models for the CIRC race checker.
//!
//! This crate implements the context-model machinery of §2.2–§3.4 and
//! §5 of *Race Checking by Context Inference*:
//!
//! * [`Cube`] / [`Region`] — the cartesian predicate-abstraction
//!   domain used both for abstract thread states and for ACFA
//!   location labels,
//! * [`Acfa`] — abstract control flow automata: locations labeled
//!   with regions over the global predicates (and an atomicity flag),
//!   edges labeled with *havoc* sets of global variables,
//! * [`CVal`] / [`ContextState`] — the counter abstraction
//!   `G : Q → {0..k, ω}` of an unbounded number of context threads,
//!   with the saturating arithmetic `k+1 = ω`, `ω±1 = ω`,
//! * [`collapse`] — the **Collapse** procedure: the weak bisimilarity
//!   quotient of an abstract reachability graph, with τ = edges that
//!   havoc nothing global,
//! * [`check_sim`] — the **CheckSim** procedure: weak simulation of
//!   one ACFA by another (the circular assume–guarantee obligation),
//! * [`context_reach`] — counter-abstracted reachability of the
//!   context running alone, used by the ω-check of ∞-CIRC.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acfa;
mod collapse;
mod counter;
mod cube;
mod sim;

pub use acfa::{Acfa, AcfaEdge, AcfaLocId};
pub use collapse::{collapse, CollapseResult};
pub use counter::{context_reach, context_reach_budgeted, context_reach_with, CVal, ContextState};
pub use cube::{Cube, PredIx, Region};
pub use sim::{check_sim, check_sim_budgeted, check_sim_with};
