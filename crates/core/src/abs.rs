//! The predicate-abstraction engine: cartesian abstract post-images
//! for thread operations (assign/assume) and context operations
//! (havoc into a labeled ACFA location), per §3.4.
//!
//! Abstract data states are [`Cube`]s over the current [`PredSet`].
//! Each post-image question is answered with entailment queries to
//! the `circ-smt` layer:
//!
//! * `post_assign`: for every predicate `p`, does
//!   `cube ∧ x′ = e ⊨ p′` (assign true) or `⊨ ¬p′` (assign false)?
//! * `post_assume`: is `cube ∧ b` satisfiable, and which predicates
//!   does it decide?
//! * `post_context`: drop predicates touched by the havoc set, meet
//!   with the target location's label, discard unsatisfiable cubes.
//!
//! Results are memoized per `(cube, operation)` — the same abstract
//! states recur across the many reachability runs of CIRC's nested
//! loops.

use crate::cache::AbsCache;
use crate::preds::PredSet;
use circ_acfa::{Cube, PredIx, Region};
use circ_ir::{BoolExpr, Cfa, EdgeId, Expr, Op, Var};
use circ_par::FxHashMap;
use circ_smt::{translate, Atom, Formula, LinExpr, SVar, Solver};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::sync::Arc;

/// Pre-state instance of a program variable.
fn pre(v: Var) -> SVar {
    SVar(v.index() as u32 * 2)
}

/// Post-state instance of a program variable.
fn post(v: Var) -> SVar {
    SVar(v.index() as u32 * 2 + 1)
}

/// The abstraction context: CFA + predicate set + solver + caches.
///
/// Every query method takes `&self`; the solver and the post-image
/// memos sit behind `RefCell`s. A context belongs to one outer round
/// of one run on one thread. No borrow is held across a solver call:
/// a memo is read, released, computed into, then written.
pub struct AbsCtx {
    cfa: Arc<Cfa>,
    preds: PredSet,
    solver: RefCell<Solver>,
    /// Atom-level entailment memo, shareable across contexts (and
    /// across whole CIRC runs — its keys survive predicate growth).
    cache: AbsCache,
    /// Pre-translated atoms per predicate (pre-state instance); `None`
    /// if the predicate falls outside linear arithmetic.
    pred_atoms: Vec<Option<Atom>>,
    assign_cache: Memo<(Cube, EdgeId), Cube>,
    assume_cache: Memo<(Cube, EdgeId), Option<Cube>>,
    context_cache: Memo<(Cube, BTreeSet<Var>, Region), Vec<Cube>>,
    /// Persistence store this context's solver reads its seed from.
    /// On drop, the entries the solver solved itself are
    /// absorbed into it (seed hits never are: the solver does not copy
    /// them) — `Drop` rather than an explicit hook because a context
    /// retires on many paths (every verdict return, plus panic
    /// unwinding) and absorption must happen exactly once on all of
    /// them. Inert (and absorption a no-op) unless constructed via
    /// [`AbsCtx::with_parts`].
    solver_persist: circ_smt::SolverPersist,
}

impl Drop for AbsCtx {
    fn drop(&mut self) {
        if self.solver_persist.is_active() {
            self.solver_persist.absorb(self.solver.get_mut().entries());
        }
    }
}

impl AbsCtx {
    /// Creates an abstraction context for a CFA and predicate set,
    /// with a private query cache.
    pub fn new(cfa: Arc<Cfa>, preds: PredSet) -> AbsCtx {
        AbsCtx::with_cache(cfa, preds, AbsCache::new())
    }

    /// Creates an abstraction context sharing `cache` with other
    /// contexts. A disabled cache (see [`AbsCache::disabled`]) also
    /// turns off the solver's formula-level memo, giving a fully
    /// uncached context for differentials.
    pub fn with_cache(cfa: Arc<Cfa>, preds: PredSet, cache: AbsCache) -> AbsCtx {
        AbsCtx::with_cache_and_budget(cfa, preds, cache, circ_governor::Budget::unlimited())
    }

    /// [`AbsCtx::with_cache`] with a resource budget handed to the
    /// underlying solver: the DPLL(T) loop polls it per theory round
    /// (degrading to `Unknown` on exhaustion) and formula-cache
    /// growth is charged against its memory ceiling.
    pub fn with_cache_and_budget(
        cfa: Arc<Cfa>,
        preds: PredSet,
        cache: AbsCache,
        budget: circ_governor::Budget,
    ) -> AbsCtx {
        AbsCtx::with_parts(cfa, preds, cache, budget, &circ_smt::SolverPersist::inert())
    }

    /// [`AbsCtx::with_cache_and_budget`] additionally warm-starting
    /// this context's solver from a persistence store's frozen seed
    /// (see [`circ_smt::SolverPersist`]). The solver reads through to
    /// the seed without copying it; what the round's solver learns is
    /// absorbed back into the store when the context retires.
    pub fn with_parts(
        cfa: Arc<Cfa>,
        preds: PredSet,
        cache: AbsCache,
        budget: circ_governor::Budget,
        solver_persist: &circ_smt::SolverPersist,
    ) -> AbsCtx {
        let pred_atoms = preds
            .indices()
            .map(|i| translate::atom_of_pred(preds.pred(i), &mut pre).ok())
            .collect();
        let mut solver = Solver::new();
        solver.set_cache_enabled(cache.is_enabled());
        solver.set_budget(budget);
        solver.set_seed(solver_persist.clone());
        AbsCtx {
            cfa,
            preds,
            solver: RefCell::new(solver),
            cache,
            pred_atoms,
            assign_cache: RefCell::default(),
            assume_cache: RefCell::default(),
            context_cache: RefCell::default(),
            solver_persist: solver_persist.clone(),
        }
    }

    /// The predicate set.
    pub fn preds(&self) -> &PredSet {
        &self.preds
    }

    /// The CFA.
    pub fn cfa(&self) -> &Cfa {
        &self.cfa
    }

    /// Number of SMT queries issued so far (for stats/benches):
    /// formula-level solver queries plus atom-level entailment/sat
    /// queries routed through the shared cache.
    pub fn num_queries(&self) -> u64 {
        self.solver.borrow().num_queries() + self.cache.counters().queries
    }

    /// Counter snapshot of this context's solver handle.
    pub fn solver_counters(&self) -> circ_stats::SolverCounters {
        self.solver.borrow().counters()
    }

    /// Decides `f` with this context's solver; the borrow ends with
    /// the call.
    fn is_sat(&self, f: &Formula) -> bool {
        self.solver.borrow_mut().is_sat(f)
    }

    /// Does `a` entail `b`, by this context's solver?
    fn entails(&self, a: &Formula, b: &Formula) -> bool {
        self.solver.borrow_mut().entails(a, b)
    }

    /// The shared atom-level cache handle.
    pub fn cache(&self) -> &AbsCache {
        &self.cache
    }

    /// The abstraction of the initial state (all variables zero):
    /// every predicate is decided exactly by evaluation.
    pub fn initial_cube(&self) -> Cube {
        let mut c = Cube::top(self.preds.len());
        for i in self.preds.indices() {
            // Refinement never mines nondet into predicates, so eval
            // on the all-zero state decides each one; if a nondet pred
            // ever appeared, leaving it undecided (top) stays sound.
            if let Some(val) = self.preds.pred(i).eval(&|_| 0) {
                c.set(i, val);
            }
        }
        c
    }

    /// The conjunction of a cube's literals as pre-state atoms
    /// (predicates outside the linear fragment are skipped — a sound
    /// weakening).
    pub fn cube_atoms(&self, cube: &Cube) -> Vec<Atom> {
        let mut out = Vec::new();
        for (i, v) in cube.literals() {
            if let Some(a) = &self.pred_atoms[i.index()] {
                out.push(if v { a.clone() } else { a.negate() });
            }
        }
        out
    }

    /// Is the cube satisfiable?
    pub fn cube_sat(&self, cube: &Cube) -> bool {
        self.cache.is_sat_conj(&self.cube_atoms(cube))
    }

    /// Abstract post for a main-thread edge; `None` when the edge is
    /// not enabled from the cube (assume guard unsatisfiable).
    pub fn post_edge(&self, cube: &Cube, edge_id: EdgeId) -> Option<Cube> {
        let key = (cube.clone(), edge_id);
        match &self.cfa.edge(edge_id).op {
            Op::Assign(x, e) => {
                Some(memoized(&self.assign_cache, key, || self.post_assign(cube, *x, e)))
            }
            Op::Assume(b) => memoized(&self.assume_cache, key, || self.post_assume(cube, b)),
        }
    }

    /// Cartesian abstract strongest post of `x := e`.
    fn post_assign(&self, cube: &Cube, x: Var, e: &Expr) -> Cube {
        let mut premises = self.cube_atoms(cube);
        // Tie the post-state copy of x to e when e is deterministic
        // and linear; otherwise leave x′ unconstrained (sound).
        let rhs = if e.has_nondet() { None } else { translate::lin_of_expr(e, &mut pre).ok() };
        if let Some(rhs) = rhs {
            premises.push(Atom::eq(LinExpr::var(post(x)) - rhs));
        }
        let premises = self.cache.premises(&premises);
        let mut out = Cube::top(self.preds.len());
        for i in self.preds.indices() {
            if !self.preds.mentions(i, x) {
                // Untouched predicate: frame rule for decided ones;
                // undecided ones may still follow from the *pre* facts
                // (cubes are not deductively closed), so ask.
                if let Some(v) = cube.get(i) {
                    out.set(i, v);
                    continue;
                }
                if let Some(p_atom) = &self.pred_atoms[i.index()] {
                    if premises.entails(p_atom) {
                        out.set(i, true);
                    } else if premises.entails(&p_atom.negate()) {
                        out.set(i, false);
                    }
                }
                continue;
            }
            // Translate p with x ↦ x′.
            let Ok(p_atom) = translate::atom_of_pred(self.preds.pred(i), &mut |v| {
                if v == x {
                    post(v)
                } else {
                    pre(v)
                }
            }) else {
                continue;
            };
            if premises.entails(&p_atom) {
                out.set(i, true);
            } else if premises.entails(&p_atom.negate()) {
                out.set(i, false);
            }
        }
        out
    }

    /// Cartesian abstract post of `assume b`; `None` if blocked.
    fn post_assume(&self, cube: &Cube, b: &BoolExpr) -> Option<Cube> {
        let cube_f = Formula::conj(self.cube_atoms(cube).into_iter().map(Formula::atom));
        // Frontends keep assume guards linear and deterministic, but a
        // guard outside that fragment must not abort the analysis:
        // treat it as `true` (the edge stays enabled and decides no
        // predicates), a sound over-approximation.
        let guard = translate::formula_of_bool(b, &mut pre).unwrap_or_else(|_| Formula::tru());
        let pre_f = cube_f.and(guard);
        if !self.is_sat(&pre_f) {
            return None;
        }
        let mut out = Cube::top(self.preds.len());
        for i in self.preds.indices() {
            if let Some(v) = cube.get(i) {
                // Already decided; assumes never change data.
                out.set(i, v);
                continue;
            }
            let Some(p_atom) = self.pred_atoms[i.index()].clone() else {
                continue;
            };
            if self.entails(&pre_f, &Formula::atom(p_atom.clone())) {
                out.set(i, true);
            } else if self.entails(&pre_f, &Formula::atom(p_atom.negate())) {
                out.set(i, false);
            }
        }
        Some(out)
    }

    /// Abstract post of a context move: havoc `Y`, land in a location
    /// labeled `target`. Returns the (possibly several) successor
    /// cubes — one per satisfiable meet with a target cube.
    pub fn post_context(&self, cube: &Cube, havoc: &BTreeSet<Var>, target: &Region) -> Vec<Cube> {
        let key = (cube.clone(), havoc.clone(), target.clone());
        memoized(&self.context_cache, key, || {
            let projected =
                cube.project(&|i| !self.preds.pred_vars(i).iter().any(|v| havoc.contains(v)));
            let mut out = Vec::new();
            for t in target.cubes() {
                let t = t.widen_to(self.preds.len());
                if let Some(m) = projected.meet(&t) {
                    if self.cube_sat(&m) && !out.contains(&m) {
                        out.push(m);
                    }
                }
            }
            out
        })
    }

    /// Does the cube (as a state set) entail predicate `i`?
    pub fn cube_entails(&self, cube: &Cube, i: PredIx) -> bool {
        match &self.pred_atoms[i.index()] {
            Some(a) => self.cache.entails(&self.cube_atoms(cube), a),
            None => false,
        }
    }

    /// The cube as a formula over pre-state solver variables.
    pub fn cube_formula(&self, cube: &Cube) -> Formula {
        Formula::conj(self.cube_atoms(cube).into_iter().map(Formula::atom))
    }

    /// The region (union of cubes) as a formula.
    pub fn region_formula(&self, region: &Region) -> Formula {
        Formula::disj(region.cubes().iter().map(|c| self.cube_formula(c)))
    }

    /// Semantic region containment `a ⊆ b` (an SMT validity check,
    /// complete where the syntactic cube subsumption of
    /// [`Region::contained_in`] is only sufficient).
    pub fn region_contained(&self, a: &Region, b: &Region) -> bool {
        if a.contained_in(b) {
            return true; // fast syntactic path
        }
        // The conclusion side must translate exactly, or the
        // entailment check would be unsound; fall back to the (already
        // failed) syntactic answer in that case.
        let b_exact = b
            .cubes()
            .iter()
            .all(|c| c.literals().all(|(i, _)| self.pred_atoms[i.index()].is_some()));
        if !b_exact {
            return false;
        }
        let fa = self.region_formula(a);
        let fb = self.region_formula(b);
        self.entails(&fa, &fb)
    }
}

/// A per-context post-image memo.
type Memo<K, V> = RefCell<FxHashMap<K, V>>;

/// Looks `key` up in `memo`, computing and inserting on a miss. The
/// borrow is released while `compute` runs, so `compute` may query the
/// solver or other memos.
fn memoized<K: Eq + Hash, V: Clone>(memo: &Memo<K, V>, key: K, compute: impl FnOnce() -> V) -> V {
    if let Some(hit) = memo.borrow().get(&key) {
        return hit.clone();
    }
    let value = compute();
    memo.borrow_mut().insert(key, value.clone());
    value
}

impl std::fmt::Debug for AbsCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbsCtx")
            .field("preds", &self.preds.len())
            .field("queries", &self.solver.borrow().num_queries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circ_ir::{figure1_cfa, Pred};

    /// Figure-1 CFA with the paper's four discovered predicates.
    fn fig1_ctx() -> (Arc<Cfa>, AbsCtx) {
        let cfa = Arc::new(figure1_cfa());
        let x = cfa.var_by_name("x").unwrap();
        let _ = x;
        let state = cfa.var_by_name("state").unwrap();
        let old = cfa.var_by_name("old").unwrap();
        let preds = PredSet::from_preds(
            &cfa,
            [
                Pred::eq(Expr::var(old), Expr::var(state)), // p0: old = state
                Pred::eq(Expr::var(old), Expr::int(0)),     // p1: old = 0
                Pred::eq(Expr::var(state), Expr::int(0)),   // p2: state = 0
                Pred::eq(Expr::var(state), Expr::int(1)),   // p3: state = 1
            ],
        );
        let ctx = AbsCtx::new(Arc::clone(&cfa), preds);
        (cfa, ctx)
    }

    fn p(i: u32) -> PredIx {
        PredIx(i)
    }

    #[test]
    fn initial_cube_exact_on_zeros() {
        let (_, ctx) = fig1_ctx();
        let c = ctx.initial_cube();
        // zeros: old = state ✓, old = 0 ✓, state = 0 ✓, state = 1 ✗
        assert_eq!(c.get(p(0)), Some(true));
        assert_eq!(c.get(p(1)), Some(true));
        assert_eq!(c.get(p(2)), Some(true));
        assert_eq!(c.get(p(3)), Some(false));
        assert!(ctx.cube_sat(&c));
    }

    #[test]
    fn post_assign_old_from_state() {
        // From `true`, old := state decides old = state (and the
        // relational consequence is available later).
        let (cfa, ctx) = fig1_ctx();
        let top = Cube::top(4);
        // edge 0 is 1 -> 2 : old := state
        let e0 = cfa.out_edges(cfa.entry())[0];
        let post = ctx.post_edge(&top, e0).unwrap();
        assert_eq!(post.get(p(0)), Some(true), "old = state must hold");
        assert_eq!(post.get(p(1)), None, "old = 0 unknown");
    }

    #[test]
    fn post_assume_derives_relational_facts() {
        // cube: old = state; assume [state = 0] ⇒ old = 0 derived.
        let (cfa, ctx) = fig1_ctx();
        let cube = Cube::top(4).with(p(0), true);
        // find the edge with op [state = 0]
        let guard_edge = cfa
            .edges()
            .iter()
            .enumerate()
            .find(|(_, e)| matches!(&e.op, Op::Assume(b) if format!("{b}").contains("= 0")))
            .map(|(i, _)| EdgeId::from_raw(i as u32))
            .unwrap();
        let post = ctx.post_edge(&cube, guard_edge).unwrap();
        assert_eq!(post.get(p(2)), Some(true), "state = 0 assumed");
        assert_eq!(post.get(p(1)), Some(true), "old = 0 follows from old = state ∧ state = 0");
    }

    #[test]
    fn post_assume_blocks_on_contradiction() {
        // cube: state = 1; assume [state = 0] is disabled.
        let (cfa, ctx) = fig1_ctx();
        let cube = Cube::top(4).with(p(3), true).with(p(2), false);
        let guard_edge = cfa
            .edges()
            .iter()
            .enumerate()
            .find(|(_, e)| matches!(&e.op, Op::Assume(b) if format!("{b}") == "v1 = 0"))
            .map(|(i, _)| EdgeId::from_raw(i as u32))
            .unwrap();
        assert_eq!(ctx.post_edge(&cube, guard_edge), None);
    }

    #[test]
    fn post_assign_constant_decides_everything() {
        // state := 1 from any cube decides state = 1 and ¬(state = 0),
        // and old = state becomes whatever old was... unknown here.
        let (cfa, ctx) = fig1_ctx();
        let top = Cube::top(4);
        let e = cfa
            .edges()
            .iter()
            .enumerate()
            .find(|(_, e)| matches!(&e.op, Op::Assign(_, Expr::Int(1))))
            .map(|(i, _)| EdgeId::from_raw(i as u32))
            .unwrap();
        let post = ctx.post_edge(&top, e).unwrap();
        assert_eq!(post.get(p(3)), Some(true));
        assert_eq!(post.get(p(2)), Some(false));
        assert_eq!(post.get(p(0)), None);
    }

    #[test]
    fn post_assign_tracks_relation_through_update() {
        // cube: old = state ∧ state = 0; state := 1 ⇒ old = 0,
        // state = 1, ¬(state = 0), ¬(old = state).
        let (cfa, ctx) = fig1_ctx();
        let cube = Cube::top(4).with(p(0), true).with(p(2), true);
        let e = cfa
            .edges()
            .iter()
            .enumerate()
            .find(|(_, e)| matches!(&e.op, Op::Assign(_, Expr::Int(1))))
            .map(|(i, _)| EdgeId::from_raw(i as u32))
            .unwrap();
        let post = ctx.post_edge(&cube, e).unwrap();
        assert_eq!(post.get(p(1)), Some(true), "old = 0 survives the state update");
        assert_eq!(post.get(p(3)), Some(true));
        assert_eq!(post.get(p(2)), Some(false));
        assert_eq!(post.get(p(0)), Some(false), "old = 0 ∧ state = 1 ⇒ old ≠ state");
    }

    #[test]
    fn post_context_havoc_drops_and_meets() {
        let (_, ctx) = fig1_ctx();
        let cfa = ctx.cfa().clone();
        let state = cfa.var_by_name("state").unwrap();
        // cube: state = 0 ∧ old = 0; context havocs state into a
        // location labeled state = 1.
        let cube = Cube::top(4).with(p(2), true).with(p(1), true);
        let target = Region::of_cube(Cube::top(4).with(p(3), true));
        let havoc: BTreeSet<Var> = [state].into();
        let out = ctx.post_context(&cube, &havoc, &target);
        assert_eq!(out.len(), 1);
        let c = &out[0];
        assert_eq!(c.get(p(1)), Some(true), "old = 0 survives (old not havocked)");
        assert_eq!(c.get(p(3)), Some(true), "target label state = 1 imposed");
        assert_eq!(c.get(p(2)), None, "state = 0 dropped by havoc");
        assert_eq!(c.get(p(0)), None, "old = state dropped (mentions state)");
    }

    #[test]
    fn post_context_discards_contradictory_meets() {
        let (_, ctx) = fig1_ctx();
        // cube asserts state = 1 and target insists state = 1 is
        // false, havocking nothing: contradictory meet discarded.
        let cube = Cube::top(4).with(p(3), true);
        let target = Region::of_cube(Cube::top(4).with(p(3), false));
        let out = ctx.post_context(&cube, &BTreeSet::new(), &target);
        assert!(out.is_empty());
    }

    #[test]
    fn post_context_semantic_contradiction_filtered() {
        let (_, ctx) = fig1_ctx();
        // cube: state = 0 (p2 true); target label: state = 1 (p3
        // true); no havoc. Syntactic meet succeeds (different
        // predicates) but the SAT filter kills it.
        let cube = Cube::top(4).with(p(2), true);
        let target = Region::of_cube(Cube::top(4).with(p(3), true));
        let out = ctx.post_context(&cube, &BTreeSet::new(), &target);
        assert!(out.is_empty(), "state = 0 ∧ state = 1 must be filtered semantically");
    }

    #[test]
    fn nondet_assignment_leaves_pred_unknown() {
        let mut b = circ_ir::CfaBuilder::new("t");
        let g = b.global("g");
        let l1 = b.fresh_loc();
        b.edge(b.entry(), Op::assign(g, Expr::Nondet), l1);
        let cfa = Arc::new(b.build());
        let preds = PredSet::from_preds(&cfa, [Pred::eq(Expr::var(g), Expr::int(0))]);
        let ctx = AbsCtx::new(Arc::clone(&cfa), preds);
        let init = ctx.initial_cube();
        assert_eq!(init.get(p(0)), Some(true));
        let post = ctx.post_edge(&init, EdgeId::from_raw(0)).unwrap();
        assert_eq!(post.get(p(0)), None, "nondet write forgets g = 0");
    }

    #[test]
    fn shared_cache_carries_across_contexts() {
        let (cfa, ctx1) = fig1_ctx();
        let cache = ctx1.cache().clone();
        let top = Cube::top(4);
        let e0 = cfa.out_edges(cfa.entry())[0];
        let a = ctx1.post_edge(&top, e0);
        let after_first = cache.counters();
        assert!(after_first.cache_misses > 0);
        // A brand-new context over the same predicates re-asks the
        // same atom-level questions; the shared cache answers them all.
        let ctx2 = AbsCtx::with_cache(Arc::clone(&cfa), ctx1.preds().clone(), cache.clone());
        let b = ctx2.post_edge(&top, e0);
        assert_eq!(a, b);
        let delta = cache.counters().since(&after_first);
        assert_eq!(delta.cache_misses, 0, "every atom query must hit the shared cache");
        assert!(delta.cache_hits > 0);
    }

    #[test]
    fn caching_stable_results() {
        let (cfa, ctx) = fig1_ctx();
        let top = Cube::top(4);
        let e0 = cfa.out_edges(cfa.entry())[0];
        let a = ctx.post_edge(&top, e0);
        let q1 = ctx.num_queries();
        let b = ctx.post_edge(&top, e0);
        assert_eq!(a, b);
        assert_eq!(ctx.num_queries(), q1, "second call must hit the cache");
    }
}
