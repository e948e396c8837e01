//! CIRC: race checking by context inference.
//!
//! This crate is the heart of the reproduction of *"Race Checking by
//! Context Inference"* (Henzinger, Jhala, Majumdar; PLDI 2004): a
//! static race verifier for symmetric multithreaded programs with
//! *unboundedly many threads*, built from
//!
//! * cartesian **predicate abstraction** with counterexample-guided
//!   refinement ([`AbsCtx`], [`refine`]),
//! * **stateful context models**: abstract control flow automata
//!   obtained as weak-bisimilarity quotients of abstract reachability
//!   graphs ([`Arg`], `circ_acfa::collapse`),
//! * **counter abstraction** of the number of context threads, and
//! * circular **assume–guarantee** reasoning ([`reach_and_build`] for
//!   the assume step, `circ_acfa::check_sim` for the guarantee).
//!
//! The top-level entry point is [`circ`] with a [`CircConfig`]
//! (plain CIRC or the faster ω-CIRC variant).
//!
//! # Example
//!
//! Prove the paper's Figure 1 test-and-set idiom race-free:
//!
//! ```
//! use circ_core::{circ, CircConfig};
//! use circ_ir::{figure1_cfa, MtProgram};
//!
//! let cfa = figure1_cfa();
//! let x = cfa.var_by_name("x").unwrap();
//! let program = MtProgram::new(cfa, x);
//! let outcome = circ(&program, &CircConfig::default());
//! assert!(outcome.is_safe());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abs;
mod arg;
mod cache;
mod circ;
pub mod persist;
pub mod pred_store;
mod preds;
mod reach;
mod refine;

pub use crate::circ::{
    circ, circ_with_cache, circ_with_caches, display_acfa, CircConfig, CircEvent, CircLog,
    CircOutcome, CircStats, SafeReport, UnknownReason, UnknownReport, UnsafeReport,
};
pub use abs::{AbsCtx, TargetId};
pub use arg::{Arg, ExportedArg, StateEdge, StateEdgeKind, ThreadState};
pub use cache::{AbsCache, AbsSeed, Premises};
pub use circ_governor::{Budget, CancelToken, Exhausted, FaultPlan};
pub use circ_stats::{AbsCounters, PipelineStats, SolverCounters};
pub use persist::{PersistError, SolverPersist};
pub use pred_store::{PredStore, StoredPreds};
pub use preds::PredSet;
pub use reach::{
    reach_and_build, AbsState, AbstractCex, AbstractError, AbstractRace, Property, ReachError,
    TraceOp,
};
pub use refine::{refine, ConcreteCex, Concretizer, RefineDetail, RefineError, RefineOutcome};
