//! `ReachAndBuild` (Algorithm 1): worklist reachability over the
//! abstract multithreaded program `((C, P), (A, k))`, checking for
//! race states and simultaneously constructing the abstract
//! reachability graph.

use crate::abs::{AbsCtx, TargetId};
use crate::arg::{Arg, StateEdgeKind, ThreadState};
use circ_acfa::{Acfa, AcfaLocId, CVal, ContextState, Cube};
use circ_governor::{Budget, Exhausted};
use circ_ir::{Cfa, EdgeId, Loc, MtProgram, Var};
use circ_par::FxHashMap;
use std::collections::hash_map::Entry;

/// Approximate bytes one committed ARG state costs: the `AbsState`
/// itself plus hash-map/vector bookkeeping. Coarse by design — the
/// memory ceiling governs growth, it does not model the allocator.
fn state_bytes(cube: &Cube) -> u64 {
    const OVERHEAD: u64 = 96;
    std::mem::size_of::<AbsState>() as u64 + (cube.width() as u64) / 4 + OVERHEAD
}

/// An abstract program state: main-thread location and cube, plus the
/// counter-abstracted context. ReachAndBuild keys its states on ids
/// (the thread state's ARG slot and an interned context) and builds
/// this form only for an [`AbstractCex`].
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
/// expanded in that order, one at a time. A state is a pair of ids:
/// its thread state's ARG slot and its interned context state. Per
/// state the loop polls the resource budget, checks for an error,
/// checks the state budget, then computes the abstract posts and
/// commits each successor (ARG edge, then dedup/insert). Each
/// inserted state's approximate size is charged against the memory
/// ceiling, and the budget's fault plan draws one `task_panic` per
/// expanded state.
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
    // Each ACFA edge's context move, interned once per run.
    let targets: Vec<TargetId> =
        acfa.edges().iter().map(|e| abs.context_target(&e.havoc, acfa.region(e.dst))).collect();
    let mut contexts = Contexts::new(acfa, k, program.race_var());
    let ctx0 = contexts.intern(ContextState::initial(acfa, init));

    let mut arg = Arg::new();
    let entry = arg.set_entry(&cfa, &(cfa.entry(), abs.initial_cube()));

    // `states` doubles as the FIFO queue: everything past `six` is
    // discovered but not yet expanded.
    let mut states: Vec<(usize, u32)> = vec![(entry, ctx0)];
    let mut index: FxHashMap<(usize, u32), usize> = FxHashMap::default();
    index.insert((entry, ctx0), 0);
    let mut parent: Vec<Option<(usize, TraceOp)>> = vec![None];
    let mut succs: Vec<Successor> = Vec::new();

    for six in 0.. {
        let Some(&(slot, ctx)) = states.get(six) else { break };
        budget.check().map_err(ReachError::Budget)?;
        if budget.faults().task_panic() {
            panic!("injected task panic");
        }

        let (pc, cube) = arg.thread_state(slot);
        let error = match property {
            Property::Race => contexts.race_at(ctx, &cfa, *pc).map(AbstractError::Race),
            Property::Assertions => cfa.is_error(*pc).then_some(AbstractError::Assertion),
        };
        if let Some(error) = error {
            let abs_state = |(slot, ctx): (usize, u32)| {
                let (pc, cube) = arg.thread_state(slot);
                AbsState { pc: *pc, cube: cube.clone(), ctx: contexts.states[ctx as usize].clone() }
            };
            let mut steps = Vec::new();
            let mut at = six;
            while let Some((p, op)) = &parent[at] {
                steps.push((abs_state(states[*p]), op.clone()));
                at = *p;
            }
            steps.reverse();
            let final_state = abs_state((slot, ctx));
            return Err(ReachError::Race(Box::new(AbstractCex { steps, final_state, error })));
        }
        if states.len() >= max_states {
            return Err(ReachError::StateLimit(max_states));
        }

        successors(abs, &cfa, &targets, &mut contexts, (*pc, cube), ctx, &mut succs);
        for (kind, succ, ctx2, op) in succs.drain(..) {
            // The ARG records every computed post edge, including
            // re-entries into already-known states.
            let slot2 = arg.connect_from(&cfa, slot, kind, &succ);
            let Entry::Vacant(entry) = index.entry((slot2, ctx2)) else {
                continue;
            };
            budget.charge(state_bytes(&succ.1));
            entry.insert(states.len());
            states.push((slot2, ctx2));
            parent.push(Some((six, op)));
        }
    }

    Ok(arg)
}

/// One computed successor: how it was reached, its thread state, its
/// context id and the trace step.
type Successor = (StateEdgeKind, ThreadState, u32, TraceOp);

/// The successors of one abstract state, into `out`: enabledness
/// under the atomic-scheduling rule, then abstract posts for the
/// enabled main moves (in CFA edge order) and context moves (in ACFA
/// edge order).
fn successors(
    abs: &AbsCtx,
    cfa: &Cfa,
    targets: &[TargetId],
    contexts: &mut Contexts,
    (pc, cube): (Loc, &Cube),
    ctx: u32,
    out: &mut Vec<Successor>,
) {
    // The atomic-scheduling rule: with one occupied atomic location
    // (main's included) only its thread moves, with two or more none.
    if contexts.info[ctx as usize].main_free {
        for &eid in cfa.out_edges(pc) {
            if let Some(cube2) = abs.post_edge(cube, eid) {
                let dst = cfa.edge(eid).dst;
                out.push((StateEdgeKind::MainOp(eid), (dst, cube2), ctx, TraceOp::Main(eid)));
            }
        }
    }
    if cfa.is_atomic(pc) {
        return;
    }
    for &(src, edge_ix, ctx2) in contexts.moves(ctx) {
        // The successor cube conjoins the *target* location's label
        // (the `sp` of §3.3). We deliberately do not conjoin the
        // labels of the other occupied locations: during inference
        // those labels are unproven assumptions, and pruning on them
        // can silently suppress exactly the context behaviors the
        // guarantee check would need to see (a self-fulfilling
        // context). Target-only conjunction is the conservative
        // reading.
        for cube2 in abs.post_context(cube, targets[edge_ix]) {
            out.push((StateEdgeKind::Context, (pc, cube2), ctx2, TraceOp::Ctx { src, edge_ix }));
        }
    }
}

/// The context states one run reaches, interned as `u32` ids, with
/// what expanding a state needs of its context cached per id.
struct Contexts<'a> {
    acfa: &'a Acfa,
    k: u32,
    race_var: Var,
    states: Vec<ContextState>,
    ids: FxHashMap<ContextState, u32>,
    info: Vec<ContextInfo>,
}

struct ContextInfo {
    /// No occupied location is atomic, so the main thread may move.
    main_free: bool,
    /// Locations whose threads may move while the main thread sits at
    /// a non-atomic location: every occupied one if none is atomic,
    /// else the one occupied atomic location, else none.
    movers: Vec<AcfaLocId>,
    /// The context moves `(src, ACFA edge, successor id)` out of
    /// `movers`, filled on the context's first expansion.
    moves: Option<Vec<(AcfaLocId, usize, u32)>>,
    /// The context's half of the race condition.
    race: ContextRace,
}

/// The context's half of the race condition of §4.1.
#[derive(Clone, Copy)]
enum ContextRace {
    /// An occupied location is atomic, or none can write the race
    /// variable.
    None,
    /// Two context threads can write it.
    Two(AcfaLocId, AcfaLocId),
    /// One context thread can write it: a race with a main thread at
    /// an access.
    One(AcfaLocId),
}

impl<'a> Contexts<'a> {
    fn new(acfa: &'a Acfa, k: u32, race_var: Var) -> Contexts<'a> {
        Contexts {
            acfa,
            k,
            race_var,
            states: Vec::new(),
            ids: FxHashMap::default(),
            info: Vec::new(),
        }
    }

    /// The id of `g`, interned (with its cached facts) if new.
    fn intern(&mut self, g: ContextState) -> u32 {
        if let Some(&id) = self.ids.get(&g) {
            return id;
        }
        let acfa = self.acfa;
        let occupied: Vec<AcfaLocId> = g.occupied().collect();
        let atomic: Vec<AcfaLocId> =
            occupied.iter().copied().filter(|&q| acfa.is_atomic(q)).collect();
        let writers: Vec<AcfaLocId> =
            occupied.iter().copied().filter(|&q| acfa.writes_at(q, self.race_var)).collect();
        // Two context writers: two distinct write-capable locations,
        // or one such location holding at least two threads.
        let race = match writers[..] {
            _ if !atomic.is_empty() => ContextRace::None,
            [] => ContextRace::None,
            [n] if g.count(n).at_least(2) => ContextRace::Two(n, n),
            [n] => ContextRace::One(n),
            [first, second, ..] => ContextRace::Two(first, second),
        };
        let main_free = atomic.is_empty();
        let movers = match atomic.len() {
            0 => occupied,
            1 => atomic,
            _ => Vec::new(),
        };
        let id = self.states.len() as u32;
        self.info.push(ContextInfo { main_free, movers, moves: None, race });
        self.ids.insert(g.clone(), id);
        self.states.push(g);
        id
    }

    /// The context moves out of context `id`'s movers, in ACFA edge
    /// order per mover, with each successor context interned.
    fn moves(&mut self, id: u32) -> &[(AcfaLocId, usize, u32)] {
        let ix = id as usize;
        if self.info[ix].moves.is_none() {
            let mut moves = Vec::new();
            for src in self.info[ix].movers.clone() {
                for &edge_ix in self.acfa.out_edge_ixs(src) {
                    let dst = self.acfa.edges()[edge_ix].dst;
                    let next = self.states[ix].step(src, dst, self.k);
                    moves.push((src, edge_ix, self.intern(next)));
                }
            }
            self.info[ix].moves = Some(moves);
        }
        self.info[ix].moves.as_deref().unwrap_or_default()
    }

    /// The race condition of §4.1 on the state `(pc, ·, id)`.
    fn race_at(&self, id: u32, cfa: &Cfa, pc: Loc) -> Option<AbstractRace> {
        if cfa.is_atomic(pc) {
            return None;
        }
        match self.info[id as usize].race {
            ContextRace::None => None,
            ContextRace::Two(first, second) => Some(AbstractRace::TwoContexts { first, second }),
            ContextRace::One(n) => {
                let x = self.race_var;
                let main_writes = cfa.writes_at(pc).contains(&x);
                let main_reads = cfa.reads_at(pc).contains(&x);
                (main_writes || main_reads)
                    .then_some(AbstractRace::MainAndContext { main_writes, ctx_loc: n })
            }
        }
    }
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
