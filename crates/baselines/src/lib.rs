//! Baseline race detectors the CIRC paper positions itself against
//! (§1, §6): a dynamic lockset checker in the style of **Eraser**
//! (Savage et al., TOCS 1997) and a **flow-based static analysis** in
//! the style of the nesC compiler's race checker (Gay et al., PLDI
//! 2003).
//!
//! Both baselines treat the program's `atomic` sections as the only
//! synchronization they understand. That is exactly the paper's
//! point: programs that synchronize through *state variables*
//! (test-and-set flags, conditional locking, interrupt bits) are
//! race-free but get **flagged anyway** — false positives that CIRC's
//! path- and interleaving-sensitive analysis avoids.
//!
//! * [`flow_check`] — the static baseline: every access to a shared
//!   (written) global must occur inside an atomic section.
//! * [`eraser`] — the dynamic baseline: random schedules are executed
//!   on the concrete interpreter while the Eraser state machine
//!   tracks, per variable, the candidate set of protecting "locks"
//!   (here: the atomic section).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;
mod lockset;
mod sched;

pub use flow::{flow_check, FlowFinding, FlowReport};
pub use lockset::{eraser, EraserReport, VarState};
pub use sched::{random_run, random_run_to_race, RunRecord};
