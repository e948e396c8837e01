//! Concrete small-step semantics of finite instantiations of a
//! symmetric multithreaded program (§2.1, §3.1).
//!
//! The interpreter serves three roles in the reproduction:
//!
//! 1. ground truth for tests — abstract results are cross-checked
//!    against bounded concrete exploration,
//! 2. the execution substrate of the dynamic (lockset) baseline in
//!    `circ-baselines`,
//! 3. replay of concrete counterexample interleavings produced by
//!    CIRC's `Refine`.
//!
//! Scheduling follows the paper: if some thread sits at an atomic
//! location, only that thread may run; otherwise the scheduler picks
//! any thread with an enabled out-edge.

use crate::cfa::{Cfa, EdgeId, Loc, Op, Var};
use crate::expr::Expr;
use crate::program::{MtProgram, ThreadId};
use std::collections::{HashSet, VecDeque};

/// A concrete state of an `n`-thread instantiation: global values plus
/// per-thread locals and program counters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConcreteState {
    /// Values of all variables' *global* slots (local slots unused).
    globals: Vec<i64>,
    /// `locals[t]` holds thread `t`'s copies (global slots unused).
    locals: Vec<Vec<i64>>,
    /// `pcs[t]` is thread `t`'s control location.
    pcs: Vec<Loc>,
}

impl ConcreteState {
    /// The initial state: every variable 0, every thread at the entry.
    pub fn initial(cfa: &Cfa, n_threads: usize) -> ConcreteState {
        let nv = cfa.vars().len();
        ConcreteState {
            globals: vec![0; nv],
            locals: vec![vec![0; nv]; n_threads],
            pcs: vec![cfa.entry(); n_threads],
        }
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.pcs.len()
    }

    /// Thread `t`'s program counter.
    pub fn pc(&self, t: ThreadId) -> Loc {
        self.pcs[t.index()]
    }

    /// Reads variable `v` as seen by thread `t`.
    pub fn read(&self, cfa: &Cfa, t: ThreadId, v: Var) -> i64 {
        if cfa.is_global(v) {
            self.globals[v.index()]
        } else {
            self.locals[t.index()][v.index()]
        }
    }

    /// Writes variable `v` as seen by thread `t`.
    pub fn write(&mut self, cfa: &Cfa, t: ThreadId, v: Var, val: i64) {
        if cfa.is_global(v) {
            self.globals[v.index()] = val;
        } else {
            self.locals[t.index()][v.index()] = val;
        }
    }
}

/// A concrete data race: two threads with simultaneously enabled
/// conflicting accesses (§4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceWitness {
    /// The raced-on variable.
    pub var: Var,
    /// A thread with an enabled *write* to the variable.
    pub writer: ThreadId,
    /// A distinct thread with an enabled read or write.
    pub other: ThreadId,
    /// Whether `other`'s enabled access is a write.
    pub other_writes: bool,
}

/// One scheduling decision: which thread takes which edge, and the
/// value chosen for any `nondet()` on the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedChoice {
    /// The scheduled thread.
    pub thread: ThreadId,
    /// The CFA edge it takes.
    pub edge: EdgeId,
    /// Value substituted for `nondet()` in the edge's expression, if
    /// the expression contains one.
    pub nondet: i64,
}

/// Interpreter for a finite instantiation of a symmetric program.
#[derive(Debug, Clone)]
pub struct Interp {
    program: MtProgram,
    n_threads: usize,
}

impl Interp {
    /// Creates an interpreter running `n_threads` copies of the
    /// program's CFA.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` is zero.
    pub fn new(program: MtProgram, n_threads: usize) -> Interp {
        assert!(n_threads > 0, "need at least one thread");
        Interp { program, n_threads }
    }

    /// The underlying program.
    pub fn program(&self) -> &MtProgram {
        &self.program
    }

    /// Thread count of this instantiation.
    pub fn num_threads(&self) -> usize {
        self.n_threads
    }

    /// The initial state.
    pub fn initial(&self) -> ConcreteState {
        ConcreteState::initial(self.program.cfa(), self.n_threads)
    }

    /// Threads allowed to run in `s` by the atomic-scheduling rule:
    /// the unique atomic thread if one exists, else all threads.
    pub fn schedulable(&self, s: &ConcreteState) -> impl Iterator<Item = ThreadId> {
        let cfa = self.program.cfa();
        let mut atomic = (0..self.n_threads as u32).filter(|t| cfa.is_atomic(s.pcs[*t as usize]));
        let range = match (atomic.next(), atomic.next()) {
            (None, _) => 0..self.n_threads as u32,
            (Some(t), None) => t..t + 1,
            // Unreachable from the initial state when the entry is
            // non-atomic (§2.1), but be defensive: nobody runs.
            (Some(_), Some(_)) => 0..0,
        };
        range.map(ThreadId)
    }

    /// All `(thread, edge)` pairs executable from `s`. Edges whose
    /// assume predicate is false are filtered out; assignment edges
    /// whose expression contains `nondet()` are always enabled (some
    /// value works). A `nondet()` inside an *assume guard* is
    /// malformed — such programs are rejected by the frontend and by
    /// [`Interp::malformed`] — and its edge is treated as disabled
    /// rather than panicking, so exploration of a hand-built malformed
    /// automaton degrades instead of crashing.
    pub fn enabled(&self, s: &ConcreteState) -> Vec<(ThreadId, EdgeId)> {
        let mut out = Vec::new();
        self.enabled_into(s, &mut out);
        out
    }

    /// [`Interp::enabled`] into a caller-owned buffer, which is
    /// cleared first: a schedule loop reuses one buffer for every
    /// step. The order is the same — by thread, then by out-edge.
    pub fn enabled_into(&self, s: &ConcreteState, out: &mut Vec<(ThreadId, EdgeId)>) {
        let cfa = self.program.cfa();
        out.clear();
        for t in self.schedulable(s) {
            for &e in cfa.out_edges(s.pc(t)) {
                let ok = match &cfa.edge(e).op {
                    Op::Assume(p) => p.eval(&|v| s.read(cfa, t, v)).unwrap_or(false),
                    Op::Assign(_, _) => true,
                };
                if ok {
                    out.push((t, e));
                }
            }
        }
    }

    /// A diagnostic if the program is malformed for concrete
    /// execution: some assume guard contains `nondet()`, which no
    /// scheduling choice can decide. The frontend never produces such
    /// automata; drivers over hand-built CFAs call this up front so a
    /// malformed program surfaces as a message, not a panic.
    pub fn malformed(&self) -> Option<String> {
        let cfa = self.program.cfa();
        cfa.edges().iter().enumerate().find_map(|(ix, edge)| match &edge.op {
            Op::Assume(p) if p.has_nondet() => {
                Some(format!("edge e{ix} ({} -> {}): nondet() in assume guard", edge.src, edge.dst))
            }
            _ => None,
        })
    }

    /// Executes one enabled move, returning the successor state.
    ///
    /// # Panics
    ///
    /// Panics if the chosen edge is not enabled for the thread in `s`.
    pub fn step(&self, s: &ConcreteState, choice: SchedChoice) -> ConcreteState {
        let mut next = s.clone();
        self.step_in_place(&mut next, choice);
        next
    }

    /// [`Interp::step`] without the copy: `s` becomes its successor.
    ///
    /// # Panics
    ///
    /// Panics if the chosen edge is not enabled for the thread in `s`.
    pub fn step_in_place(&self, s: &mut ConcreteState, choice: SchedChoice) {
        let cfa = self.program.cfa();
        let t = choice.thread;
        let edge = cfa.edge(choice.edge);
        assert_eq!(edge.src, s.pc(t), "edge source must match thread pc");
        match &edge.op {
            Op::Assume(p) => {
                // `None` (nondet in the guard) is "not enabled": such an
                // edge is never handed out by `enabled`, so reaching it
                // here is a caller contract violation either way.
                assert!(p.eval(&|v| s.read(cfa, t, v)).unwrap_or(false), "assume edge not enabled");
            }
            Op::Assign(v, e) => {
                let val = eval_with_nondet(e, &|v| s.read(cfa, t, v), choice.nondet);
                s.write(cfa, t, *v, val);
            }
        }
        s.pcs[t.index()] = edge.dst;
    }

    /// Checks the race condition of §4.1 on a single state: no thread
    /// is atomic, one thread has an enabled write to the race
    /// variable, and a distinct thread has an enabled access.
    pub fn race(&self, s: &ConcreteState) -> Option<RaceWitness> {
        let cfa = self.program.cfa();
        let x = self.program.race_var();
        if s.pcs.iter().any(|pc| cfa.is_atomic(*pc)) {
            return None;
        }
        for (w, &wpc) in s.pcs.iter().enumerate() {
            if !cfa.writes_at(wpc).contains(&x) {
                continue;
            }
            for (o, &opc) in s.pcs.iter().enumerate() {
                if o == w {
                    continue;
                }
                let writes = cfa.writes_at(opc).contains(&x);
                if writes || cfa.reads_at(opc).contains(&x) {
                    return Some(RaceWitness {
                        var: x,
                        writer: ThreadId(w as u32),
                        other: ThreadId(o as u32),
                        other_writes: writes,
                    });
                }
            }
        }
        None
    }

    /// A thread sitting at an error location (a failed `assert`), if
    /// any.
    pub fn assertion_violation(&self, s: &ConcreteState) -> Option<ThreadId> {
        let cfa = self.program.cfa();
        (0..self.n_threads as u32).map(ThreadId).find(|t| cfa.is_error(s.pc(*t)))
    }

    /// Bounded breadth-first exploration: searches all interleavings
    /// (with `nondet()` resolved to values from `nondet_values`) up to
    /// `max_states` distinct states, returning a race witness if one
    /// is reachable within the bound.
    ///
    /// This is exact for nondet-free programs whose reachable state
    /// space fits in the bound, and is used as ground truth in tests.
    pub fn explore_bounded(
        &self,
        max_states: usize,
        nondet_values: &[i64],
    ) -> Option<(ConcreteState, RaceWitness)> {
        let cfa = self.program.cfa();
        let init = self.initial();
        let mut seen: HashSet<ConcreteState> = HashSet::new();
        let mut queue: VecDeque<ConcreteState> = VecDeque::new();
        seen.insert(init.clone());
        queue.push_back(init);
        while let Some(s) = queue.pop_front() {
            if let Some(w) = self.race(&s) {
                return Some((s, w));
            }
            if seen.len() >= max_states {
                continue;
            }
            for (t, e) in self.enabled(&s) {
                let edge = cfa.edge(e);
                let nondets: &[i64] = match &edge.op {
                    Op::Assign(_, expr) if expr.has_nondet() => nondet_values,
                    _ => &[0],
                };
                for &nv in nondets {
                    let next = self.step(&s, SchedChoice { thread: t, edge: e, nondet: nv });
                    if seen.insert(next.clone()) {
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    }
}

fn eval_with_nondet(e: &Expr, lookup: &impl Fn(Var) -> i64, nondet: i64) -> i64 {
    match e {
        Expr::Nondet => nondet,
        Expr::Int(n) => *n,
        Expr::Var(v) => lookup(*v),
        Expr::Bin(op, a, b) => {
            let (a, b) = (eval_with_nondet(a, lookup, nondet), eval_with_nondet(b, lookup, nondet));
            match op {
                crate::expr::BinOp::Add => a.wrapping_add(b),
                crate::expr::BinOp::Sub => a.wrapping_sub(b),
                crate::expr::BinOp::Mul => a.wrapping_mul(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfa::{figure1_cfa, CfaBuilder};
    use crate::expr::{BoolExpr, Expr};

    fn fig1_program() -> MtProgram {
        let cfa = figure1_cfa();
        let x = cfa.var_by_name("x").unwrap();
        MtProgram::new(cfa, x)
    }

    #[test]
    fn initial_state_all_zero() {
        let p = fig1_program();
        let interp = Interp::new(p.clone(), 3);
        let s = interp.initial();
        assert_eq!(s.num_threads(), 3);
        let cfa = p.cfa();
        for t in 0..3 {
            assert_eq!(s.pc(ThreadId(t)), cfa.entry());
            for v in 0..cfa.vars().len() as u32 {
                assert_eq!(s.read(cfa, ThreadId(t), Var::from_raw(v)), 0);
            }
        }
    }

    #[test]
    fn atomic_scheduling_excludes_others() {
        let p = fig1_program();
        let interp = Interp::new(p.clone(), 2);
        let s = interp.initial();
        // Step thread 0 into the atomic block (edge 1->2: old := state).
        let (t, e) = interp.enabled(&s).into_iter().find(|(t, _)| *t == ThreadId(0)).unwrap();
        let s2 = interp.step(&s, SchedChoice { thread: t, edge: e, nondet: 0 });
        // Now thread 0 is atomic; only it may run.
        assert_eq!(interp.schedulable(&s2).collect::<Vec<_>>(), vec![ThreadId(0)]);
        assert!(interp.enabled(&s2).iter().all(|(t, _)| *t == ThreadId(0)));
    }

    #[test]
    fn figure1_is_race_free_bounded() {
        // The paper's central safe example: exhaustive 2- and 3-thread
        // exploration finds no race on x.
        let p = fig1_program();
        for n in [2, 3] {
            let interp = Interp::new(p.clone(), n);
            assert!(
                interp.explore_bounded(200_000, &[]).is_none(),
                "unexpected race with {n} threads"
            );
        }
    }

    /// The figure-1 thread with the atomicity removed: a genuine race.
    fn broken_test_and_set() -> MtProgram {
        let mut b = CfaBuilder::new("broken");
        let x = b.global("x");
        let state = b.global("state");
        let old = b.local("old");
        let l1 = b.entry();
        let l2 = b.fresh_loc();
        let l3 = b.fresh_loc();
        let l5 = b.fresh_loc();
        let l6 = b.fresh_loc();
        let l7 = b.fresh_loc();
        // No atomic marks: the test-and-set is not atomic.
        use crate::cfa::Op;
        b.edge(l1, Op::assign(old, Expr::var(state)), l2);
        b.edge(l2, Op::assume(BoolExpr::eq(Expr::var(state), Expr::int(0))), l3);
        b.edge(l3, Op::assign(state, Expr::int(1)), l5);
        b.edge(l2, Op::assume(BoolExpr::ne(Expr::var(state), Expr::int(0))), l5);
        b.edge(l5, Op::assume(BoolExpr::eq(Expr::var(old), Expr::int(0))), l6);
        b.edge(l5, Op::assume(BoolExpr::ne(Expr::var(old), Expr::int(0))), l1);
        b.edge(l6, Op::assign(x, Expr::var(x) + Expr::int(1)), l7);
        b.edge(l7, Op::assign(state, Expr::int(0)), l1);
        let cfa = b.build();
        let x = cfa.var_by_name("x").unwrap();
        MtProgram::new(cfa, x)
    }

    #[test]
    fn broken_variant_has_race() {
        let p = broken_test_and_set();
        let interp = Interp::new(p, 2);
        let found = interp.explore_bounded(200_000, &[]);
        assert!(found.is_some(), "expected a race without atomicity");
        let (_, w) = found.unwrap();
        assert_ne!(w.writer, w.other);
    }

    #[test]
    fn race_requires_two_distinct_threads() {
        // Single thread: never a race.
        let p = broken_test_and_set();
        let interp = Interp::new(p, 1);
        assert!(interp.explore_bounded(100_000, &[]).is_none());
    }

    #[test]
    fn step_assignment_updates_locals_per_thread() {
        let p = fig1_program();
        let cfa = p.cfa();
        let old = cfa.var_by_name("old").unwrap();
        let state = cfa.var_by_name("state").unwrap();
        let interp = Interp::new(p.clone(), 2);
        let mut s = interp.initial();
        s.write(cfa, ThreadId(0), state, 7);
        // thread 1 executes old := state; only thread 1's old changes
        let e = cfa.out_edges(cfa.entry())[0];
        let s2 = interp.step(&s, SchedChoice { thread: ThreadId(1), edge: e, nondet: 0 });
        assert_eq!(s2.read(cfa, ThreadId(1), old), 7);
        assert_eq!(s2.read(cfa, ThreadId(0), old), 0);
    }

    #[test]
    fn nondet_assignment_uses_choice() {
        let mut b = CfaBuilder::new("nd");
        let x = b.global("x");
        let l0 = b.entry();
        let l1 = b.fresh_loc();
        b.edge(l0, Op::assign(x, Expr::Nondet), l1);
        let cfa = b.build();
        let x = cfa.var_by_name("x").unwrap();
        let p = MtProgram::new(cfa, x);
        let interp = Interp::new(p.clone(), 1);
        let s = interp.initial();
        let (t, e) = interp.enabled(&s)[0];
        let s2 = interp.step(&s, SchedChoice { thread: t, edge: e, nondet: 42 });
        assert_eq!(s2.read(p.cfa(), t, x), 42);
    }

    #[test]
    fn nondet_in_assume_degrades_instead_of_panicking() {
        // A malformed hand-built automaton: the guard cannot be
        // decided. `enabled` must not panic, and `malformed` names the
        // offending edge.
        let mut b = CfaBuilder::new("bad");
        let _x = b.global("x");
        let l0 = b.entry();
        let l1 = b.fresh_loc();
        b.edge(l0, Op::assume(BoolExpr::eq(Expr::Nondet, Expr::int(0))), l1);
        let cfa = b.build();
        let x = cfa.var_by_name("x").unwrap();
        let p = MtProgram::new(cfa, x);
        let interp = Interp::new(p, 2);
        let diag = interp.malformed().expect("must be flagged malformed");
        assert!(diag.contains("nondet() in assume guard"), "{diag}");
        assert!(interp.enabled(&interp.initial()).is_empty());
        assert!(interp.explore_bounded(1_000, &[]).is_none());
    }

    #[test]
    fn wellformed_programs_are_not_malformed() {
        assert!(Interp::new(fig1_program(), 2).malformed().is_none());
    }
}
