//! `ReachAndBuild` (Algorithm 1): worklist reachability over the
//! abstract multithreaded program `((C, P), (A, k))`, checking for
//! race states and simultaneously constructing the abstract
//! reachability graph.

use crate::abs::AbsCtx;
use crate::arg::{Arg, StateEdgeKind};
use circ_acfa::{Acfa, AcfaLocId, CVal, ContextState, Cube};
use circ_governor::{Budget, Exhausted};
use circ_ir::{EdgeId, Loc, MtProgram};
use circ_par::FxHashMap;
use std::collections::hash_map::Entry;

/// Approximate bytes one committed ARG state costs: the `AbsState`
/// itself plus hash-map/vector bookkeeping. Coarse by design — the
/// memory ceiling governs growth, it does not model the allocator.
fn state_bytes(s: &AbsState) -> u64 {
    const OVERHEAD: u64 = 96;
    std::mem::size_of::<AbsState>() as u64 + (s.cube.width() as u64) / 4 + OVERHEAD
}

/// An abstract program state: main-thread location and cube, plus the
/// counter-abstracted context.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AbsState {
    /// Main thread control location.
    pub pc: Loc,
    /// Main thread data cube.
    pub cube: Cube,
    /// Context counters.
    pub ctx: ContextState,
}

/// One step of an abstract error trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// The main thread takes a CFA edge.
    Main(EdgeId),
    /// A context thread at the given ACFA location takes the ACFA
    /// edge with the given index (into [`Acfa::edges`]).
    Ctx {
        /// Source abstract location.
        src: AcfaLocId,
        /// Index into the ACFA's edge table.
        edge_ix: usize,
    },
}

/// Which safety property a run checks. The paper's focus is race
/// freedom (§4.1), but the method applies to any safety property
/// (§1); assertion reachability is the natural second instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Property {
    /// No data race on the program's race variable.
    #[default]
    Race,
    /// No thread reaches an error location (a failed `assert`).
    Assertions,
}

/// How the abstract race manifests (§4.1, specialized to a symmetric
/// program: the context never reads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbstractRace {
    /// The main thread has an enabled access and a context thread an
    /// enabled write.
    MainAndContext {
        /// Whether the main thread's access is a write.
        main_writes: bool,
        /// The context location with the enabled write.
        ctx_loc: AcfaLocId,
    },
    /// Two context threads have enabled writes.
    TwoContexts {
        /// A location with an enabled write.
        first: AcfaLocId,
        /// A second such location (may equal `first` when its counter
        /// is at least two).
        second: AcfaLocId,
    },
}

/// The violation found at the end of an abstract trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbstractError {
    /// A race state (§4.1).
    Race(AbstractRace),
    /// The main thread reached an error location.
    Assertion,
}

/// An abstract counterexample: the error state and the interleaved
/// abstract trace reaching it.
#[derive(Debug, Clone)]
pub struct AbstractCex {
    /// `(state before the step, the step)` in execution order.
    pub steps: Vec<(AbsState, TraceOp)>,
    /// The error state reached.
    pub final_state: AbsState,
    /// What was violated.
    pub error: AbstractError,
}

/// Why `ReachAndBuild` did not return an ARG.
#[derive(Debug, Clone)]
pub enum ReachError {
    /// A reachable abstract race state (Algorithm 1's exception).
    Race(Box<AbstractCex>),
    /// Exceeded the state budget.
    StateLimit(usize),
    /// The run's resource budget (deadline, memory ceiling, or
    /// cancellation) was exhausted mid-search.
    Budget(Exhausted),
}

/// Runs abstract reachability of the main thread against the context
/// `(acfa, k)` with `init` threads at the context's start location
/// (`ω` for CIRC, `Fin(k)` for the ω-CIRC optimization). On success
/// returns the ARG; on a reachable race, the abstract counterexample.
///
/// The worklist is FIFO: states are numbered in discovery order and
/// expanded in that order, one at a time. Per state the loop polls
/// the resource budget, checks for an error, checks the state budget,
/// then computes the abstract posts and commits each successor (ARG
/// edge, then dedup/insert). Each inserted state's approximate size is
/// charged against the memory ceiling, and the budget's fault plan
/// draws one `task_panic` per expanded state.
///
/// # Errors
///
/// [`ReachError::Race`] carries the abstract trace;
/// [`ReachError::StateLimit`] reports the budget;
/// [`ReachError::Budget`] reports deadline/memory/cancellation
/// exhaustion.
#[allow(clippy::too_many_arguments)]
pub fn reach_and_build(
    abs: &AbsCtx,
    program: &MtProgram,
    acfa: &Acfa,
    k: u32,
    init: CVal,
    max_states: usize,
    property: Property,
    budget: &Budget,
) -> Result<Arg, ReachError> {
    let cfa = program.cfa_arc();
    let x = program.race_var();

    let init_state = AbsState {
        pc: cfa.entry(),
        cube: abs.initial_cube(),
        ctx: ContextState::initial(acfa, init),
    };

    let mut arg = Arg::new();
    arg.set_entry(&cfa, (init_state.pc, init_state.cube.clone()));

    let mut states: Vec<AbsState> = vec![init_state.clone()];
    let mut index: FxHashMap<AbsState, usize> = FxHashMap::default();
    index.insert(init_state, 0);
    let mut parent: Vec<Option<(usize, TraceOp)>> = vec![None];

    // `states` doubles as the FIFO queue: everything past `six` is
    // discovered but not yet expanded.
    for six in 0.. {
        let Some(s) = states.get(six) else { break };
        budget.check().map_err(ReachError::Budget)?;
        if budget.faults().task_panic() {
            panic!("injected task panic");
        }

        let error = match property {
            Property::Race => race_at(s, program, acfa, x).map(AbstractError::Race),
            Property::Assertions => cfa.is_error(s.pc).then_some(AbstractError::Assertion),
        };
        if let Some(error) = error {
            return Err(ReachError::Race(Box::new(AbstractCex {
                steps: rebuild_trace(&states, &parent, six),
                final_state: s.clone(),
                error,
            })));
        }
        if states.len() >= max_states {
            return Err(ReachError::StateLimit(max_states));
        }

        // Each successor is hashed once: the index entry both answers
        // "known?" and takes the new state.
        let src = (s.pc, s.cube.clone());
        for (kind, succ, op) in successors(abs, program, acfa, k, s) {
            // The ARG records every computed post edge, including
            // re-entries into already-known states.
            arg.connect(&cfa, src.clone(), kind, (succ.pc, succ.cube.clone()));
            let Entry::Vacant(slot) = index.entry(succ) else {
                continue;
            };
            budget.charge(state_bytes(slot.key()));
            states.push(slot.key().clone());
            slot.insert(states.len() - 1);
            parent.push(Some((six, op)));
        }
    }

    Ok(arg)
}

/// The successors of one abstract state: enabledness under the
/// atomic-scheduling rule, then abstract posts for the enabled main
/// moves (in CFA edge order) and context moves (in ACFA edge order).
fn successors(
    abs: &AbsCtx,
    program: &MtProgram,
    acfa: &Acfa,
    k: u32,
    s: &AbsState,
) -> Vec<(StateEdgeKind, AbsState, TraceOp)> {
    let cfa = program.cfa();

    // Enabled operations under the atomic-scheduling rule: collect
    // the set AL of occupied atomic locations (main's included).
    let main_atomic = cfa.is_atomic(s.pc);
    let ctx_atomic: Vec<AcfaLocId> = s.ctx.atomic_occupied(acfa).collect();
    let al_count = ctx_atomic.len() + usize::from(main_atomic);
    let (main_enabled, ctx_enabled_locs): (bool, Vec<AcfaLocId>) = match al_count {
        0 => (true, s.ctx.occupied().collect()),
        1 if main_atomic => (true, Vec::new()),
        1 => (false, ctx_atomic),
        _ => (false, Vec::new()),
    };

    let mut succs: Vec<(StateEdgeKind, AbsState, TraceOp)> = Vec::new();
    if main_enabled {
        for &eid in cfa.out_edges(s.pc) {
            if let Some(cube2) = abs.post_edge(&s.cube, eid) {
                let dst = cfa.edge(eid).dst;
                succs.push((
                    StateEdgeKind::MainOp(eid),
                    AbsState { pc: dst, cube: cube2, ctx: s.ctx.clone() },
                    TraceOp::Main(eid),
                ));
            }
        }
    }
    for n in ctx_enabled_locs {
        for (eix, edge) in acfa.edges().iter().enumerate().filter(|(_, e)| e.src == n) {
            // The successor cube conjoins the *target* location's
            // label (the `sp` of §3.3). We deliberately do not
            // conjoin the labels of the other occupied locations:
            // during inference those labels are unproven
            // assumptions, and pruning on them can silently
            // suppress exactly the context behaviors the guarantee
            // check would need to see (a self-fulfilling context).
            // Target-only conjunction is the conservative reading.
            let cubes = abs.post_context(&s.cube, &edge.havoc, acfa.region(edge.dst));
            let ctx2 = s.ctx.step(n, edge.dst, k);
            for cube2 in cubes {
                succs.push((
                    StateEdgeKind::Context(edge.havoc.clone()),
                    AbsState { pc: s.pc, cube: cube2, ctx: ctx2.clone() },
                    TraceOp::Ctx { src: n, edge_ix: eix },
                ));
            }
        }
    }
    succs
}

/// The race condition of §4.1 on one abstract state.
fn race_at(
    s: &AbsState,
    program: &MtProgram,
    acfa: &Acfa,
    x: circ_ir::Var,
) -> Option<AbstractRace> {
    let cfa = program.cfa();
    if cfa.is_atomic(s.pc) || s.ctx.atomic_occupied(acfa).next().is_some() {
        return None;
    }
    let writers: Vec<AcfaLocId> = s.ctx.occupied().filter(|n| acfa.writes_at(*n, x)).collect();
    // Two context writers: two distinct write-capable locations, or
    // one such location holding at least two threads.
    if writers.len() >= 2 {
        return Some(AbstractRace::TwoContexts { first: writers[0], second: writers[1] });
    }
    if let Some(&n) = writers.first() {
        if s.ctx.count(n).at_least(2) {
            return Some(AbstractRace::TwoContexts { first: n, second: n });
        }
        let main_writes = cfa.writes_at(s.pc).contains(&x);
        let main_reads = cfa.reads_at(s.pc).contains(&x);
        if main_writes || main_reads {
            return Some(AbstractRace::MainAndContext { main_writes, ctx_loc: n });
        }
    }
    None
}

fn rebuild_trace(
    states: &[AbsState],
    parent: &[Option<(usize, TraceOp)>],
    mut ix: usize,
) -> Vec<(AbsState, TraceOp)> {
    let mut rev = Vec::new();
    while let Some((p, op)) = &parent[ix] {
        rev.push((states[*p].clone(), op.clone()));
        ix = *p;
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abs::AbsCtx;
    use crate::preds::PredSet;
    use circ_acfa::AcfaEdge;
    use circ_acfa::Region;
    use circ_ir::{figure1_cfa, Expr, Pred};
    use std::collections::BTreeSet;

    fn fig1_program() -> MtProgram {
        let cfa = figure1_cfa();
        let x = cfa.var_by_name("x").unwrap();
        MtProgram::new(cfa, x)
    }

    #[test]
    fn empty_context_is_race_free() {
        // With the do-nothing context, a single thread cannot race.
        let program = fig1_program();
        let abs = AbsCtx::new(program.cfa_arc(), PredSet::new());
        let acfa = Acfa::empty(0);
        let result = reach_and_build(
            &abs,
            &program,
            &acfa,
            1,
            CVal::Omega,
            10_000,
            Property::Race,
            &Budget::unlimited(),
        );
        let arg = result.expect("no race without a context");
        assert!(arg.num_locs() >= 1);
    }

    /// A context that may write `x` from its start location — every
    /// state with the main thread near `x` becomes a race.
    fn writer_context(program: &MtProgram) -> Acfa {
        let x = program.race_var();
        Acfa::from_parts(
            vec![Region::full(0); 2],
            vec![false, false],
            vec![AcfaEdge { src: AcfaLocId(0), havoc: [x].into(), dst: AcfaLocId(1) }],
        )
    }

    #[test]
    fn writer_context_produces_race_trace() {
        let program = fig1_program();
        let abs = AbsCtx::new(program.cfa_arc(), PredSet::new());
        let acfa = writer_context(&program);
        let result = reach_and_build(
            &abs,
            &program,
            &acfa,
            1,
            CVal::Omega,
            10_000,
            Property::Race,
            &Budget::unlimited(),
        );
        match result {
            Err(ReachError::Race(cex)) => {
                // With ω threads at the writer location, two context
                // threads race immediately: the shortest abstract
                // trace is empty (race at the initial state).
                assert!(matches!(cex.error, AbstractError::Race(AbstractRace::TwoContexts { .. })));
                assert!(cex.steps.is_empty());
            }
            other => panic!("expected race, got {other:?}"),
        }
    }

    #[test]
    fn single_writer_thread_races_with_main() {
        // One context thread (k = 1, init Fin(1)): no two-context
        // race; main must walk to an x-access location first.
        let program = fig1_program();
        let abs = AbsCtx::new(program.cfa_arc(), PredSet::new());
        let acfa = writer_context(&program);
        let result = reach_and_build(
            &abs,
            &program,
            &acfa,
            1,
            CVal::Fin(1),
            10_000,
            Property::Race,
            &Budget::unlimited(),
        );
        match result {
            Err(ReachError::Race(cex)) => {
                assert!(matches!(
                    cex.error,
                    AbstractError::Race(AbstractRace::MainAndContext { .. })
                ));
                assert!(!cex.steps.is_empty(), "main must move to reach x");
                // trace must be replayable: every step's state differs
                for w in cex.steps.windows(2) {
                    assert_ne!(w[0].0, w[1].0);
                }
            }
            other => panic!("expected race, got {other:?}"),
        }
    }

    #[test]
    fn atomic_context_location_blocks_main() {
        // Context: start -τ-> atomic location with an x-writing edge
        // back. While a context thread sits in the atomic location the
        // main thread may not move, and no race is flagged there.
        let program = fig1_program();
        let x = program.race_var();
        let acfa = Acfa::from_parts(
            vec![Region::full(0); 2],
            vec![false, true],
            vec![
                AcfaEdge { src: AcfaLocId(0), havoc: BTreeSet::new(), dst: AcfaLocId(1) },
                AcfaEdge { src: AcfaLocId(1), havoc: [x].into(), dst: AcfaLocId(0) },
            ],
        );
        let abs = AbsCtx::new(program.cfa_arc(), PredSet::new());
        // k=1 with a single context thread: the only writer is inside
        // the atomic location, so no race state is schedulable…
        let result = reach_and_build(
            &abs,
            &program,
            &acfa,
            1,
            CVal::Fin(1),
            50_000,
            Property::Race,
            &Budget::unlimited(),
        );
        assert!(result.is_ok(), "atomic write-back context cannot race with one thread");
    }

    #[test]
    fn state_limit_reported() {
        let program = fig1_program();
        let abs = AbsCtx::new(program.cfa_arc(), PredSet::new());
        let acfa = Acfa::empty(0);
        let result = reach_and_build(
            &abs,
            &program,
            &acfa,
            1,
            CVal::Omega,
            2,
            Property::Race,
            &Budget::unlimited(),
        );
        assert!(matches!(result, Err(ReachError::StateLimit(2))));
    }

    #[test]
    fn predicates_prune_infeasible_branches() {
        // With the four figure-1 predicates and the empty context, the
        // reach set stays finite and never enables [old = 0] after
        // seeing state ≠ 0 in the atomic block.
        let program = fig1_program();
        let cfa = program.cfa();
        let state = cfa.var_by_name("state").unwrap();
        let old = cfa.var_by_name("old").unwrap();
        let preds = PredSet::from_preds(
            cfa,
            [
                Pred::eq(Expr::var(old), Expr::var(state)),
                Pred::eq(Expr::var(old), Expr::int(0)),
                Pred::eq(Expr::var(state), Expr::int(0)),
                Pred::eq(Expr::var(state), Expr::int(1)),
            ],
        );
        let abs = AbsCtx::new(program.cfa_arc(), preds);
        let acfa = Acfa::empty(4);
        let arg = reach_and_build(
            &abs,
            &program,
            &acfa,
            1,
            CVal::Omega,
            10_000,
            Property::Race,
            &Budget::unlimited(),
        )
        .expect("single thread is race-free");
        // the ARG covers at most one abstract state per (loc, cube)
        assert!(arg.num_locs() <= 12, "ARG stays small: got {}", arg.num_locs());
    }
}
