//! The `Refine` procedure (§5): counterexample analysis.
//!
//! Given an abstract error trace from `ReachAndBuild`, Refine
//!
//! 1. **concretizes** it: each abstract context move is replayed
//!    through the state-level transitions of the ARG whose quotient
//!    the current ACFA is, yielding per-thread CFA edge sequences
//!    split into a silent prefix, one observable (global-writing)
//!    edge, and a silent suffix; if the abstract trace used more
//!    simultaneous context threads than concrete instances can
//!    witness, the counter parameter `k` must grow;
//! 2. searches a small space of **placements** — silent prefixes may
//!    float earlier in the schedule (silent moves write no global, so
//!    the abstraction cannot order them; feasibility may depend on
//!    reading a global *before* another thread's write, the classic
//!    read-read-set-set race of the test-and-set idiom);
//! 3. builds each candidate's **trace formula** (SSA-renamed
//!    strongest-post constraints; globals share one timeline, locals
//!    are per-thread) and checks it with the decision procedure;
//! 4. a satisfiable candidate is a **real** race: the schedule is
//!    validated end-to-end by replaying it on the concrete
//!    interpreter;
//! 5. if every candidate is infeasible, **new predicates are mined**:
//!    for every cut point the unsat-core prefix is existentially
//!    projected onto the variables it shares with the suffix (trace
//!    formulas here are conjunctive, so projection yields the
//!    strongest interpolant à la *Abstractions from Proofs*), and the
//!    resulting atoms are mapped back to program predicates.

use crate::arg::{Arg, StateEdge, ThreadState};
use crate::preds::PredSet;
use crate::reach::{AbstractCex, AbstractError, AbstractRace, Property, TraceOp};
use circ_acfa::{Acfa, AcfaLocId, CollapseResult};
use circ_governor::{Budget, Exhausted};
use circ_ir::{
    BinOp, Cfa, CmpOp, EdgeId, Expr, Interp, MtProgram, Op, Pred, SchedChoice, ThreadId, Var,
};
use circ_par::FxHashMap;
use circ_smt::{lia, translate, Atom, Formula, LinExpr, Rel, SVar, SatResult, Solver};
use std::collections::{BTreeSet, VecDeque};

/// A concrete interleaved error trace.
#[derive(Debug, Clone)]
pub struct ConcreteCex {
    /// Total number of threads (main is thread 0).
    pub n_threads: usize,
    /// `(thread, CFA edge, nondet value)` in schedule order.
    pub steps: Vec<(usize, EdgeId, i64)>,
    /// Whether replaying the schedule on the concrete interpreter
    /// ends in a race state.
    pub replay_ok: bool,
}

/// The verdict of `Refine` on one abstract counterexample.
#[derive(Debug, Clone)]
pub enum RefineOutcome {
    /// The trace is realizable: a genuine race.
    Real(ConcreteCex),
    /// Spurious; these predicates rule it out.
    NewPreds(Vec<Pred>),
    /// Spurious because the counter abstraction lost thread
    /// identities: increment `k`.
    IncrementK,
    /// No progress possible (diagnostic for the caller).
    Stuck(String),
    /// Refinement itself failed: the trace formula could not be
    /// built. Propagated to the CIRC driver, which reports the run as
    /// inconclusive instead of panicking.
    Error(RefineError),
    /// The run's resource budget ran out mid-search; the placement
    /// sweep was abandoned without a verdict on the trace.
    Exhausted(Exhausted),
}

/// A failure inside `Refine` (as opposed to a verdict about the
/// trace). The CIRC driver surfaces these as
/// [`crate::UnknownReason::RefineFailed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefineError {
    /// An `assume` guard fell outside the linear deterministic
    /// fragment the trace-formula encoding handles, so the trace's
    /// feasibility cannot be decided.
    NonLinearGuard {
        /// The CFA edge carrying the guard.
        edge: EdgeId,
        /// What the translator rejected.
        reason: String,
    },
}

impl std::fmt::Display for RefineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefineError::NonLinearGuard { edge, reason } => {
                write!(f, "cannot encode assume guard on edge {edge:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for RefineError {}

/// A record of what `Refine` did, kept for reporting (the Figure 5
/// artifacts: concrete interleaving, trace formula, mined
/// predicates).
#[derive(Debug, Clone, Default)]
pub struct RefineDetail {
    /// The concrete interleaving `(thread, CFA edge)` (main = 0), in
    /// the default placement.
    pub interleaving: Vec<(usize, EdgeId)>,
    /// The clauses of the trace formula, rendered.
    pub trace_formula: Vec<String>,
    /// Predicates mined from the infeasibility proof (empty when the
    /// trace was feasible).
    pub mined_preds: Vec<Pred>,
}

/// One concretized context step: silent CFA edges, then at most one
/// global-writing edge, then silent edges.
#[derive(Debug, Clone)]
struct CtxExpansion {
    prefix: Vec<EdgeId>,
    observable: Option<EdgeId>,
    suffix: Vec<EdgeId>,
    end: ThreadState,
}

/// Replays abstract context moves through the ARG underlying the
/// current context ACFA.
#[derive(Debug)]
pub struct Concretizer {
    /// Main-op transitions of the previous ARG, grouped by source.
    moves: FxHashMap<ThreadState, Vec<(EdgeId, ThreadState)>>,
    /// Composed class map: thread state → location of the current
    /// ACFA (export map ∘ collapse map).
    class: FxHashMap<ThreadState, AcfaLocId>,
    entry: ThreadState,
}

impl Concretizer {
    /// Builds a concretizer from the previous iteration's ARG (its
    /// main-thread state edges), its export map ([`ExportedArg::state_loc`](crate::ExportedArg)),
    /// and the collapse that produced the current context ACFA.
    pub fn new(
        arg: &Arg,
        state_loc: &FxHashMap<ThreadState, AcfaLocId>,
        collapsed: &CollapseResult,
    ) -> Concretizer {
        let mut moves: FxHashMap<ThreadState, Vec<(EdgeId, ThreadState)>> = FxHashMap::default();
        for &StateEdge { src, edge, dst } in arg.state_edges() {
            let dst = arg.thread_state(dst).clone();
            moves.entry(arg.thread_state(src).clone()).or_default().push((edge, dst));
        }
        let class =
            state_loc.iter().map(|(s, loc)| (s.clone(), collapsed.map[loc.index()])).collect();
        let entry = arg.entry_state().expect("ARG entry set by ReachAndBuild").clone();
        Concretizer { moves, class, entry }
    }

    fn class_of(&self, s: &ThreadState) -> Option<AcfaLocId> {
        self.class.get(s).copied()
    }

    /// Finds a CFA-edge path realizing one abstract step
    /// `class(cur) -Y→ dst_class`: silent moves (no global write),
    /// then — if `Y` is nonempty — one edge writing a global subset of
    /// `Y`, then silent moves, ending in `dst_class`.
    fn concretize_step(
        &self,
        cfa: &Cfa,
        cur: &ThreadState,
        havoc: &BTreeSet<Var>,
        dst_class: AcfaLocId,
    ) -> Option<CtxExpansion> {
        type Node = (ThreadState, bool);
        let start: Node = (cur.clone(), havoc.is_empty());
        let mut prev: FxHashMap<Node, (Node, EdgeId)> = FxHashMap::default();
        let mut queue: VecDeque<Node> = VecDeque::new();
        queue.push_back(start.clone());
        let mut goal: Option<Node> = None;
        let mut fallback_goal: Option<Node> = None;
        let is_goal = |n: &Node| n.1 && n.0 != *cur && self.class_of(&n.0) == Some(dst_class);
        let mut seen: BTreeSet<Node> = [start.clone()].into();
        while let Some(node) = queue.pop_front() {
            if is_goal(&node) {
                if !cfa.is_atomic(node.0 .0) {
                    goal = Some(node);
                    break;
                }
                if fallback_goal.is_none() {
                    fallback_goal = Some(node.clone());
                }
            }
            let Some(succs) = self.moves.get(&node.0) else { continue };
            for (eid, next) in succs {
                let op = &cfa.edge(*eid).op;
                let gwrite: Option<Var> = op.written().filter(|v| cfa.is_global(*v));
                let next_node: Option<Node> = match gwrite {
                    None => Some((next.clone(), node.1)),
                    Some(v) => {
                        if !node.1 && havoc.contains(&v) {
                            Some((next.clone(), true))
                        } else {
                            None
                        }
                    }
                };
                if let Some(nn) = next_node {
                    if seen.insert(nn.clone()) {
                        prev.insert(nn.clone(), (node.clone(), *eid));
                        queue.push_back(nn);
                    }
                }
            }
        }
        let end = goal.or(fallback_goal)?;
        let mut rev: Vec<EdgeId> = Vec::new();
        let mut at = end.clone();
        while at != start {
            let (p, eid) = prev.get(&at)?.clone();
            rev.push(eid);
            at = p;
        }
        rev.reverse();
        // Split at the observable (the unique global-writing edge).
        let mut prefix = Vec::new();
        let mut observable = None;
        let mut suffix = Vec::new();
        for eid in rev {
            let op = &cfa.edge(eid).op;
            let is_obs = op.written().is_some_and(|v| cfa.is_global(v));
            if is_obs {
                debug_assert!(observable.is_none());
                observable = Some(eid);
            } else if observable.is_none() {
                prefix.push(eid);
            } else {
                suffix.push(eid);
            }
        }
        Some(CtxExpansion { prefix, observable, suffix, end: end.0 })
    }

    /// Extends a thread by silent moves (staying within its current
    /// class) until it sits at a CFA location with an enabled access
    /// to `var` (write if `need_write`). Used to park the racing
    /// threads at the conflicting locations.
    fn drive_to_access(
        &self,
        cfa: &Cfa,
        cur: &ThreadState,
        class: AcfaLocId,
        var: Var,
        need_write: bool,
    ) -> Option<(Vec<EdgeId>, ThreadState)> {
        let at_access = |s: &ThreadState| {
            if need_write {
                cfa.writes_at(s.0).contains(&var)
            } else {
                cfa.writes_at(s.0).contains(&var) || cfa.reads_at(s.0).contains(&var)
            }
        };
        let mut prev: FxHashMap<ThreadState, (ThreadState, EdgeId)> = FxHashMap::default();
        let mut queue: VecDeque<ThreadState> = VecDeque::new();
        let mut seen: BTreeSet<ThreadState> = [cur.clone()].into();
        queue.push_back(cur.clone());
        let mut goal: Option<ThreadState> = None;
        while let Some(s) = queue.pop_front() {
            if at_access(&s) && !cfa.is_atomic(s.0) {
                goal = Some(s);
                break;
            }
            let Some(succs) = self.moves.get(&s) else { continue };
            for (eid, next) in succs {
                let silent = cfa.edge(*eid).op.written().is_none_or(|v| !cfa.is_global(v));
                if !silent || self.class_of(next) != Some(class) {
                    continue;
                }
                if seen.insert(next.clone()) {
                    prev.insert(next.clone(), (s.clone(), *eid));
                    queue.push_back(next.clone());
                }
            }
        }
        let end = goal?;
        let mut rev = Vec::new();
        let mut at = end.clone();
        while at != *cur {
            let (p, eid) = prev.get(&at)?.clone();
            rev.push(eid);
            at = p;
        }
        rev.reverse();
        Some((rev, end))
    }
}

/// One schedule segment: a run of edges by one thread. `anchor` is
/// the earliest segment index a floating (silent-prefix) segment may
/// move to.
#[derive(Debug, Clone)]
struct Segment {
    tag: usize,
    ops: Vec<EdgeId>,
    /// `Some(anchor)` marks a silent context prefix that may float up
    /// to just after segment `anchor` (or to the very start for
    /// `None`-anchored… encoded as anchor = usize::MAX meaning start).
    float_anchor: Option<usize>,
}

/// Analyzes one abstract counterexample. `concretizer` is the replay
/// structure for the current context ACFA (`None` only when the
/// context is empty, i.e. the trace cannot contain context moves).
///
/// The resource budget is polled once per placement candidate (the
/// sweep is up to `2^6` trace formulas, each an SMT query) and handed
/// to every placement's solver, so a deadline cuts through even a
/// single slow query's theory loop.
pub fn refine(
    program: &MtProgram,
    acfa: &Acfa,
    cex: &AbstractCex,
    concretizer: Option<&Concretizer>,
    preds: &PredSet,
    property: Property,
    budget: &Budget,
) -> (RefineOutcome, RefineDetail) {
    let mut detail = RefineDetail::default();
    let cfa = program.cfa();

    // ---- 1. Concretize into segments --------------------------------
    let mut segments: Vec<Segment> = Vec::new();
    let mut ctx_threads: Vec<ThreadState> = Vec::new();
    // last segment index per thread tag (for float anchors)
    let mut last_seg: FxHashMap<usize, usize> = FxHashMap::default();
    for (_state, op) in &cex.steps {
        match op {
            TraceOp::Main(eid) => {
                let ix = segments.len();
                segments.push(Segment { tag: 0, ops: vec![*eid], float_anchor: None });
                last_seg.insert(0, ix);
            }
            TraceOp::Ctx { src, edge_ix } => {
                let Some(conc) = concretizer else {
                    return (
                        RefineOutcome::Stuck(
                            "context move without a concretizer (empty context)".into(),
                        ),
                        detail,
                    );
                };
                let edge = &acfa.edges()[*edge_ix];
                let mut candidates: Vec<usize> = ctx_threads
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| conc.class_of(s) == Some(*src))
                    .map(|(i, _)| i)
                    .collect();
                if *src == acfa.entry() {
                    candidates.push(usize::MAX); // sentinel: spawn fresh
                }
                let mut done = false;
                for cand in candidates {
                    let (tix, cur) = if cand == usize::MAX {
                        ctx_threads.push(conc.entry.clone());
                        (ctx_threads.len() - 1, conc.entry.clone())
                    } else {
                        (cand, ctx_threads[cand].clone())
                    };
                    if let Some(exp) = conc.concretize_step(cfa, &cur, &edge.havoc, edge.dst) {
                        let tag = tix + 1;
                        let anchor = last_seg.get(&tag).copied();
                        // A floated prefix parks its thread until the
                        // observable runs, so it may only float up to
                        // a NON-atomic location — a thread waiting
                        // inside an atomic section would block every
                        // other thread (and the replay).
                        let mut float_len = 0;
                        for (i, eid) in exp.prefix.iter().enumerate() {
                            if !cfa.is_atomic(cfa.edge(*eid).dst) {
                                float_len = i + 1;
                            }
                        }
                        let (floatable, rest) = exp.prefix.split_at(float_len);
                        if !floatable.is_empty() {
                            let ix = segments.len();
                            segments.push(Segment {
                                tag,
                                ops: floatable.to_vec(),
                                float_anchor: Some(anchor.unwrap_or(usize::MAX)),
                            });
                            last_seg.insert(tag, ix);
                        }
                        let mut tail: Vec<EdgeId> = rest.to_vec();
                        tail.extend(exp.observable);
                        tail.extend(exp.suffix.iter().copied());
                        if !tail.is_empty() {
                            let ix = segments.len();
                            segments.push(Segment { tag, ops: tail, float_anchor: None });
                            last_seg.insert(tag, ix);
                        }
                        ctx_threads[tix] = exp.end;
                        done = true;
                        break;
                    } else if cand == usize::MAX {
                        ctx_threads.pop();
                    }
                }
                if !done {
                    // The counters admitted a move no concrete thread
                    // can witness (ω hides identities): grow k.
                    return (RefineOutcome::IncrementK, detail);
                }
            }
        }
    }

    // ---- 1b. Materialize & park the racing threads ------------------
    // (An assertion violation is the main thread's alone: nothing to
    // materialize.)
    let needed: Vec<(AcfaLocId, bool)> = match &cex.error {
        AbstractError::Assertion => Vec::new(),
        AbstractError::Race(AbstractRace::MainAndContext { ctx_loc, .. }) => {
            vec![(*ctx_loc, true)]
        }
        AbstractError::Race(AbstractRace::TwoContexts { first, second }) => {
            vec![(*first, true), (*second, true)]
        }
    };
    let mut reserved: Vec<bool> = vec![false; ctx_threads.len()];
    for (loc, need_write) in needed {
        let Some(conc) = concretizer else {
            return (RefineOutcome::Stuck("race against an empty context".into()), detail);
        };
        let mut placed = false;
        // try existing unreserved instances in that class first
        let candidate_ixs: Vec<usize> = (0..ctx_threads.len())
            .filter(|&i| !reserved[i] && conc.class_of(&ctx_threads[i]) == Some(loc))
            .collect();
        for i in candidate_ixs {
            if let Some((ops, end)) =
                conc.drive_to_access(cfa, &ctx_threads[i], loc, program.race_var(), need_write)
            {
                if !ops.is_empty() {
                    segments.push(Segment { tag: i + 1, ops, float_anchor: None });
                }
                ctx_threads[i] = end;
                reserved[i] = true;
                placed = true;
                break;
            }
        }
        if !placed && loc == acfa.entry() {
            // a fresh thread still at the entry class
            let cur = conc.entry.clone();
            if let Some((ops, end)) =
                conc.drive_to_access(cfa, &cur, loc, program.race_var(), need_write)
            {
                ctx_threads.push(end);
                reserved.push(true);
                if !ops.is_empty() {
                    segments.push(Segment { tag: ctx_threads.len(), ops, float_anchor: None });
                }
                placed = true;
            }
        }
        if !placed {
            return (RefineOutcome::IncrementK, detail);
        }
    }
    let n_threads = ctx_threads.len() + 1;

    // ---- 2./3. Placement search over trace formulas ------------------
    let float_ixs: Vec<usize> = segments
        .iter()
        .enumerate()
        .filter(|(_, s)| s.float_anchor.is_some())
        .map(|(i, _)| i)
        .collect();
    let n_choices = float_ixs.len().min(6); // cap the search at 2^6
    let mut infeasible_ssa: Option<SsaResult> = None;
    let mut feasible_unreplayable = false;

    for mask in 0..(1u32 << n_choices) {
        if let Err(e) = budget.check() {
            return (RefineOutcome::Exhausted(e), detail);
        }
        let order = place_segments(&segments, &float_ixs[..n_choices], mask);
        let mut interleaving: Vec<(usize, EdgeId)> = Vec::new();
        for &si in &order {
            let seg = &segments[si];
            for &e in &seg.ops {
                interleaving.push((seg.tag, e));
            }
        }
        let ssa = match build_trace_formula(cfa, &interleaving) {
            Ok(ssa) => ssa,
            Err(e) => return (RefineOutcome::Error(e), detail),
        };
        if mask == 0 {
            detail.interleaving = interleaving.clone();
            detail.trace_formula = ssa.clauses.iter().map(|c| format!("{c}")).collect();
        }
        let tf = Formula::conj(ssa.clauses.iter().cloned());
        let mut solver = Solver::new();
        solver.set_budget(budget.clone());
        match solver.check(&tf) {
            SatResult::Sat(model) => {
                let steps: Vec<(usize, EdgeId, i64)> = interleaving
                    .iter()
                    .enumerate()
                    .map(|(pos, (tag, eid))| {
                        let nd = ssa
                            .nondet_of_step
                            .get(&pos)
                            .and_then(|sv| model.get(sv).copied())
                            .unwrap_or(0);
                        (*tag, *eid, nd)
                    })
                    .collect();
                let replay_ok = replay(program, n_threads, &steps, property);
                if replay_ok {
                    let ccex = ConcreteCex { n_threads, steps, replay_ok };
                    return (RefineOutcome::Real(ccex), detail);
                }
                // Data-feasible but not schedulable (e.g. the formula
                // cannot see atomic sections): this placement proves
                // nothing either way — discard it.
                feasible_unreplayable = true;
            }
            SatResult::Unsat => {
                if infeasible_ssa.is_none() {
                    infeasible_ssa = Some(ssa);
                }
            }
            SatResult::Unknown => {
                // The solver could not decide this placement (e.g.
                // arithmetic overflow in the theory procedure). It
                // proves nothing either way: neither a realizable
                // race nor an infeasibility proof to mine from.
            }
        }
    }

    // ---- 4. No placement replayed: mine from an infeasible one -------
    let Some(ssa) = infeasible_ssa else {
        return (
            RefineOutcome::Stuck(format!(
                "every placement data-feasible but none replayable \
                 (feasible_unreplayable={feasible_unreplayable})"
            )),
            detail,
        );
    };
    let mined = mine_predicates(&ssa);
    detail.mined_preds = mined.clone();
    let fresh: Vec<Pred> = mined
        .into_iter()
        .filter(|p| {
            let canon = p.canonical();
            !preds.preds().contains(&canon)
        })
        .collect();
    if fresh.is_empty() {
        (RefineOutcome::Stuck("refinement produced no new predicates".into()), detail)
    } else {
        (RefineOutcome::NewPreds(fresh), detail)
    }
}

/// Realizes one placement choice: floating segments selected in
/// `mask` move up to just after their anchor segment.
fn place_segments(segments: &[Segment], float_ixs: &[usize], mask: u32) -> Vec<usize> {
    // Sort keys: twice the original index; an early-floated segment
    // gets its anchor's key plus 1 (anchor usize::MAX = the start).
    let mut keyed: Vec<(i64, usize)> = Vec::with_capacity(segments.len());
    for (i, seg) in segments.iter().enumerate() {
        let early =
            float_ixs.iter().position(|&f| f == i).is_some_and(|bit| mask & (1 << bit) != 0);
        let key = if early {
            match seg.float_anchor {
                Some(usize::MAX) | None => -1,
                Some(a) => a as i64 * 2 + 1,
            }
        } else {
            i as i64 * 2
        };
        keyed.push((key, i));
    }
    keyed.sort_by_key(|(k, i)| (*k, *i));
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Replays a schedule on the concrete interpreter and checks that it
/// ends in a state violating the property.
fn replay(
    program: &MtProgram,
    n_threads: usize,
    steps: &[(usize, EdgeId, i64)],
    property: Property,
) -> bool {
    let interp = Interp::new(program.clone(), n_threads);
    let mut s = interp.initial();
    let mut enabled = Vec::new();
    for &(tag, eid, nd) in steps {
        interp.enabled_into(&s, &mut enabled);
        if !enabled.contains(&(ThreadId(tag as u32), eid)) {
            return false;
        }
        interp.step_in_place(
            &mut s,
            SchedChoice { thread: ThreadId(tag as u32), edge: eid, nondet: nd },
        );
    }
    match property {
        Property::Race => interp.race(&s).is_some(),
        Property::Assertions => interp.assertion_violation(&s).is_some(),
    }
}

/// Scope of an SSA variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Scope {
    Global,
    Local(usize),
}

/// The SSA-encoded trace formula plus reverse-mapping metadata.
#[derive(Debug, Clone, Default)]
struct SsaResult {
    clauses: Vec<Formula>,
    /// Interleaving position of each clause.
    clause_pos: Vec<usize>,
    /// Solver var → (scope, program var).
    origin: FxHashMap<SVar, (Scope, Var)>,
    /// Fresh nondet var per interleaving position.
    nondet_of_step: FxHashMap<usize, SVar>,
}

/// SSA bookkeeping: globals share one timeline, locals one per
/// thread; reads before any write pin the initial value zero.
fn build_trace_formula(
    cfa: &Cfa,
    interleaving: &[(usize, EdgeId)],
) -> Result<SsaResult, RefineError> {
    let mut next: u32 = 0;
    let mut alloc = move || {
        let v = SVar(next);
        next += 1;
        v
    };
    let mut cur: FxHashMap<(Scope, Var), SVar> = FxHashMap::default();
    let mut out = SsaResult::default();

    for (pos, (tag, eid)) in interleaving.iter().enumerate() {
        let scope_of = |v: Var| {
            if cfa.is_global(v) {
                Scope::Global
            } else {
                Scope::Local(*tag)
            }
        };
        // Cut positions: each operation owns position `2·pos + 1`; an
        // initial-value clause materialized at that operation sits at
        // `2·pos`, strictly *before* it, so interpolation can separate
        // "the variable is still zero" from the constraint that
        // contradicts it.
        let init_pos = 2 * pos;
        let op_pos = 2 * pos + 1;
        // reading map: materialize instance 0 (= 0) on first read
        macro_rules! read_var {
            ($v:expr) => {{
                let key = (scope_of($v), $v);
                match cur.get(&key) {
                    Some(&sv) => sv,
                    None => {
                        let sv = alloc();
                        cur.insert(key, sv);
                        out.origin.insert(sv, key);
                        out.clauses.push(Formula::atom(Atom::eq(LinExpr::var(sv))));
                        out.clause_pos.push(init_pos);
                        sv
                    }
                }
            }};
        }
        match &cfa.edge(*eid).op {
            Op::Assume(b) => {
                let f = translate::formula_of_bool(b, &mut |v| read_var!(v)).map_err(|e| {
                    RefineError::NonLinearGuard { edge: *eid, reason: e.to_string() }
                })?;
                out.clauses.push(f);
                out.clause_pos.push(op_pos);
            }
            Op::Assign(x, e) => {
                let nd = if e.has_nondet() {
                    let sv = alloc();
                    out.nondet_of_step.insert(pos, sv);
                    Some(sv)
                } else {
                    None
                };
                let rhs = translate::lin_of_expr_nd(e, &mut |v| read_var!(v), nd).ok();
                let key = (scope_of(*x), *x);
                let sv = alloc();
                cur.insert(key, sv);
                out.origin.insert(sv, key);
                if let Some(rhs) = rhs {
                    out.clauses.push(Formula::atom(Atom::eq(LinExpr::var(sv) - rhs)));
                    out.clause_pos.push(op_pos);
                }
            }
        }
    }
    Ok(out)
}

/// Interpolant-style predicate mining: for each cut point, project the
/// prefix of the (core-restricted) conjunctive trace formula onto its
/// shared vocabulary with the suffix, then map atoms back to program
/// predicates.
fn mine_predicates(ssa: &SsaResult) -> Vec<Pred> {
    let mut atoms: Vec<(usize, Atom)> = Vec::new();
    let mut flat = true;
    for (f, &pos) in ssa.clauses.iter().zip(&ssa.clause_pos) {
        if !flatten_conj(f, pos, &mut atoms) {
            flat = false;
            break;
        }
    }
    let mut out: Vec<Pred> = Vec::new();
    if flat {
        let all: Vec<Atom> = atoms.iter().map(|(_, a)| a.clone()).collect();
        if lia::is_sat_conj(&all) {
            return out; // should not happen: caller found the TF unsat
        }
        let core_ix = lia::unsat_core(&all);
        let core: Vec<(usize, Atom)> = core_ix.iter().map(|&i| atoms[i].clone()).collect();
        let max_pos = core.iter().map(|(p, _)| *p).max().unwrap_or(0);
        for cut in 0..=max_pos {
            let prefix: Vec<Atom> =
                core.iter().filter(|(p, _)| *p <= cut).map(|(_, a)| a.clone()).collect();
            let suffix: Vec<Atom> =
                core.iter().filter(|(p, _)| *p > cut).map(|(_, a)| a.clone()).collect();
            if prefix.is_empty() || suffix.is_empty() {
                continue;
            }
            let prefix_vars: BTreeSet<SVar> =
                prefix.iter().flat_map(|a| a.vars().collect::<Vec<_>>()).collect();
            let suffix_vars: BTreeSet<SVar> =
                suffix.iter().flat_map(|a| a.vars().collect::<Vec<_>>()).collect();
            let elim: BTreeSet<SVar> = prefix_vars.difference(&suffix_vars).copied().collect();
            for atom in lia::project(&prefix, &elim) {
                if let Some(p) = pred_of_atom(ssa, &atom) {
                    push_unique(&mut out, p);
                }
            }
        }
    } else {
        // Fallback for disjunctive guards: harvest every atom.
        for f in &ssa.clauses {
            for atom in f.atoms() {
                if let Some(p) = pred_of_atom(ssa, &atom) {
                    push_unique(&mut out, p);
                }
            }
        }
    }
    out
}

fn push_unique(out: &mut Vec<Pred>, p: Pred) {
    let canon = p.canonical();
    if !out.contains(&canon) {
        out.push(canon);
    }
}

fn flatten_conj(f: &Formula, pos: usize, out: &mut Vec<(usize, Atom)>) -> bool {
    match f {
        Formula::Const(true) => true,
        Formula::Const(false) => {
            out.push((pos, Atom::falsum()));
            true
        }
        Formula::Atom(a) => {
            out.push((pos, a.clone()));
            true
        }
        Formula::Not(inner) => match &**inner {
            Formula::Atom(a) => {
                out.push((pos, a.negate()));
                true
            }
            _ => false,
        },
        Formula::And(fs) => fs.iter().all(|g| flatten_conj(g, pos, out)),
        Formula::Or(_) => false,
    }
}

/// Maps a mined solver atom back to a program predicate. Fails (and
/// the atom is dropped) when the atom mixes locals of two different
/// threads, mentions two instances of the same variable, or mentions
/// a nondet-fresh variable.
fn pred_of_atom(ssa: &SsaResult, atom: &Atom) -> Option<Pred> {
    let mut local_tag: Option<usize> = None;
    let mut seen_vars: BTreeSet<Var> = BTreeSet::new();
    let mut lhs = Expr::Int(0);
    let mut rhs = Expr::Int(0);
    let mut lhs_empty = true;
    let mut rhs_empty = true;
    for (sv, coef) in atom.expr().terms() {
        let &(scope, v) = ssa.origin.get(&sv)?;
        if let Scope::Local(t) = scope {
            match local_tag {
                None => local_tag = Some(t),
                Some(t0) if t0 == t => {}
                Some(_) => return None,
            }
        }
        if !seen_vars.insert(v) {
            return None; // two instances of the same variable
        }
        let term = |c: i64| {
            if c == 1 {
                Expr::var(v)
            } else {
                Expr::int(c) * Expr::var(v)
            }
        };
        if coef > 0 {
            lhs = if lhs_empty { term(coef) } else { lhs + term(coef) };
            lhs_empty = false;
        } else {
            rhs = if rhs_empty { term(-coef) } else { rhs + term(-coef) };
            rhs_empty = false;
        }
    }
    if lhs_empty && rhs_empty {
        return None; // constant atom, useless as a predicate
    }
    let c = atom.expr().constant_part();
    if c != 0 {
        if rhs_empty {
            rhs = Expr::int(-c);
            rhs_empty = false;
        } else {
            rhs = rhs - Expr::int(c);
        }
    } else if rhs_empty {
        rhs = Expr::int(0);
        rhs_empty = false;
    }
    let _ = rhs_empty;
    let op = match atom.rel() {
        Rel::Eq => CmpOp::Eq,
        Rel::Le => CmpOp::Le,
        Rel::Ne => CmpOp::Ne,
    };
    // If everything landed on the rhs (lhs empty), flip.
    let (l, r, op) =
        if matches!(lhs, Expr::Int(0)) { (rhs, Expr::int(0), mirror(op)) } else { (lhs, rhs, op) };
    Some(Pred::new(simplify(l), op, simplify(r)))
}

fn mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Gt => CmpOp::Lt,
        other => other,
    }
}

fn simplify(e: Expr) -> Expr {
    match e {
        Expr::Bin(BinOp::Add, a, b) => {
            let (a, b) = (simplify(*a), simplify(*b));
            match (&a, &b) {
                (Expr::Int(0), _) => b,
                (_, Expr::Int(0)) => a,
                _ => a + b,
            }
        }
        Expr::Bin(BinOp::Sub, a, b) => {
            let (a, b) = (simplify(*a), simplify(*b));
            match &b {
                Expr::Int(0) => a,
                _ => a - b,
            }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_handles_nested_and() {
        let a = Atom::eq(LinExpr::var(SVar(0)));
        let f = Formula::atom(a.clone())
            .and(Formula::atom(a.clone()).not())
            .and(Formula::atom(a.clone()));
        let mut out = Vec::new();
        assert!(flatten_conj(&f, 3, &mut out));
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(p, _)| *p == 3));
    }

    #[test]
    fn flatten_rejects_disjunction() {
        let a = Formula::atom(Atom::eq(LinExpr::var(SVar(0))));
        let f = a.clone().or(a);
        let mut out = Vec::new();
        assert!(!flatten_conj(&f, 0, &mut out));
    }

    #[test]
    fn placement_moves_floating_segment_to_anchor() {
        let e = EdgeId::from_raw;
        let segments = vec![
            Segment { tag: 1, ops: vec![e(0)], float_anchor: None },
            Segment { tag: 2, ops: vec![e(1)], float_anchor: Some(usize::MAX) },
            Segment { tag: 2, ops: vec![e(2)], float_anchor: None },
        ];
        // mask 0: original order
        assert_eq!(place_segments(&segments, &[1], 0), vec![0, 1, 2]);
        // mask 1: segment 1 floats to the very start
        assert_eq!(place_segments(&segments, &[1], 1), vec![1, 0, 2]);
    }

    #[test]
    fn placement_respects_anchor_position() {
        let e = EdgeId::from_raw;
        let segments = vec![
            Segment { tag: 1, ops: vec![e(0)], float_anchor: None },
            Segment { tag: 0, ops: vec![e(1)], float_anchor: None },
            Segment { tag: 1, ops: vec![e(2)], float_anchor: Some(0) },
        ];
        // floated: lands right after its anchor (segment 0)
        assert_eq!(place_segments(&segments, &[2], 1), vec![0, 2, 1]);
    }
}
