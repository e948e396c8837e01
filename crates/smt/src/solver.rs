//! Lazy DPLL(T): the CDCL SAT core enumerates boolean models of the
//! formula's propositional skeleton; each model's theory literals are
//! checked by the conjunctive LIA procedure; theory conflicts come
//! back as blocking clauses built from minimized unsat cores.
//!
//! A conjunction of atoms has at most one boolean model, so it skips
//! the loop: one theory check of the literals that model would assert
//! gives the same answer, model and round count.

use crate::atom::{Atom, Rel};
use crate::formula::Formula;
use crate::lia::{self, ConjResult, Model};
use crate::memo::{Keyed, Memo, Probe};
use crate::sat::{BVar, CnfSolver, Lit};
use crate::SolverPersist;
use circ_governor::Budget;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable with an integer witness.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The theory solver gave up (arithmetic overflow or search-budget
    /// exhaustion) without proving either verdict.
    Unknown,
}

impl SatResult {
    /// True unless the formula was *proven* unsatisfiable.
    ///
    /// [`SatResult::Unknown`] deliberately counts as possibly-sat:
    /// callers gate state-space pruning on `!is_sat(..)` (e.g. the
    /// abstract post of an `assume` edge), and dropping a state whose
    /// guard was merely *not proven* unsatisfiable would be unsound.
    pub fn is_sat(&self) -> bool {
        !matches!(self, SatResult::Unsat)
    }
}

/// A reusable SMT solver handle. Queries are independent; the handle
/// tracks statistics across them (used by benches and tests) and
/// memoizes results per NNF skeleton, optionally reading through to a
/// persistence store's frozen seed ([`Solver::set_seed`]).
#[derive(Debug)]
pub struct Solver {
    queries: u64,
    theory_rounds: u64,
    /// NNF-keyed result memo. NNF is the canonical form here: `check`
    /// normalizes every input to NNF before solving, so formulas that
    /// only differ in negation placement share one entry. The solver
    /// is deterministic, so replaying a cached `Sat` model is
    /// indistinguishable from re-solving.
    cache: Memo,
    /// Frozen read-through layer below `cache` (inert by default).
    seed: SolverPersist,
    cache_enabled: bool,
    cache_hits: u64,
    cache_misses: u64,
    /// Resource budget polled once per theory round. Exhaustion makes
    /// the query answer [`SatResult::Unknown`], which every caller
    /// already treats conservatively (see [`SatResult::is_sat`]), so
    /// a mid-query deadline degrades precision, never soundness.
    budget: Budget,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver {
            queries: 0,
            theory_rounds: 0,
            cache: Memo::default(),
            seed: SolverPersist::inert(),
            cache_enabled: true,
            cache_hits: 0,
            cache_misses: 0,
            budget: Budget::unlimited(),
        }
    }
}

impl Solver {
    /// A fresh solver (result caching on).
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Enables or disables the NNF result cache (on by default).
    /// Disabling also clears it, so a subsequent re-enable starts
    /// cold.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        if !enabled {
            self.cache.clear();
        }
    }

    /// Attach a resource budget (default: unlimited). The solver
    /// polls it once per theory round (a conjunctive query makes one)
    /// and answers `Unknown` on exhaustion; formula-cache growth is
    /// charged against its memory ceiling.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Warm-start from a persistence store's frozen seed: after the
    /// solver's own memo misses, the query is looked up in the seed,
    /// so the first query of a seeded formula is a cache hit. A seed
    /// hit is neither copied into the memo nor charged to the budget
    /// (it was paid for by the run that first solved it). An inert
    /// store (the default) or a disabled cache seeds nothing.
    pub fn set_seed(&mut self, seed: SolverPersist) {
        self.seed = seed;
    }

    /// Number of top-level queries issued so far.
    pub fn num_queries(&self) -> u64 {
        self.queries
    }

    /// Number of theory-check rounds across all queries.
    pub fn theory_rounds(&self) -> u64 {
        self.theory_rounds
    }

    /// Queries answered from the result cache.
    pub fn num_cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Queries that missed the cache and were solved.
    pub fn num_cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Snapshot of this handle's counters.
    pub fn counters(&self) -> circ_stats::SolverCounters {
        circ_stats::SolverCounters {
            queries: self.queries,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            theory_rounds: self.theory_rounds,
        }
    }

    /// Decides satisfiability of `f` over the integers.
    pub fn check(&mut self, f: &Formula) -> SatResult {
        // A query already in NNF is solved and looked up as it is.
        let nnf = if f.is_nnf() { Cow::Borrowed(f) } else { Cow::Owned(f.to_nnf()) };
        self.queries += 1;
        match &*nnf {
            Formula::Const(true) => return SatResult::Sat(Model::new()),
            Formula::Const(false) => return SatResult::Unsat,
            _ => {}
        }
        // Fault injection: answer Unknown before touching the cache,
        // so injected degradation never pollutes memoized results.
        if self.budget.faults().solver_unknown() {
            return SatResult::Unknown;
        }
        // Hashed once: the memo lookup, the seed lookup and the memo
        // insert all reuse it.
        let probe = self.cache_enabled.then(|| Probe::new(&nnf));
        if let Some(probe) = &probe {
            if let Some(hit) = probe.get(&self.cache).or_else(|| self.seed.get(probe)) {
                self.cache_hits += 1;
                return hit.clone();
            }
        }
        let hash = probe.map(|p| p.hash());
        let (result, budget_aborted) = self.solve_nnf(&nnf);
        self.cache_misses += 1;
        // A budget-induced Unknown reflects *when* the query ran, not
        // what the formula means — never memoize it.
        if let Some(hash) = hash.filter(|_| !budget_aborted) {
            self.budget.charge(formula_bytes(&nnf));
            self.cache.insert(Keyed::with_hash(hash, nnf.into_owned()), result.clone());
        }
        result
    }

    /// Solves an NNF formula, uncached. The second component is true
    /// when the result is an `Unknown` forced by budget exhaustion
    /// rather than by the theory solver.
    fn solve_nnf(&mut self, nnf: &Formula) -> (SatResult, bool) {
        match conjunction_atoms(nnf) {
            Some(atoms) => self.solve_conj(&atoms),
            None => self.solve_dpllt(nnf),
        }
    }

    /// A conjunction of atoms, answered as DPLL(T) would answer it.
    /// Its skeleton forces every boolean variable, so the loop's CDCL
    /// run either refutes it outright (some key is asserted with both
    /// polarities: 0 theory rounds) or finds the one boolean model.
    /// One theory round then checks that model's literals, in key
    /// order as the loop collects them; on a theory conflict the
    /// loop's blocking clause would end the search, so `Unsat` is
    /// final and no unsat core is needed.
    fn solve_conj(&mut self, atoms: &[&Atom]) -> (SatResult, bool) {
        let mut lits: Vec<(Atom, bool)> = atoms.iter().map(|a| atom_key(a)).collect();
        lits.sort_unstable();
        lits.dedup();
        // Exact duplicates are gone, so equal neighbouring keys differ
        // in polarity.
        if lits.windows(2).any(|w| w[0].0 == w[1].0) {
            return (SatResult::Unsat, false);
        }
        self.theory_rounds += 1;
        if self.budget.check().is_err() {
            return (SatResult::Unknown, true);
        }
        let theory: Vec<Atom> = lits.iter().map(|(key, val)| theory_literal(key, *val)).collect();
        let result = match lia::check_conj(&theory) {
            ConjResult::Sat(model) => {
                debug_assert!(
                    atoms.iter().all(|a| a.eval(&|v| model.get(&v).copied().unwrap_or(0))),
                    "model does not satisfy conjunction"
                );
                SatResult::Sat(model)
            }
            ConjResult::Unsat => SatResult::Unsat,
            ConjResult::Unknown => SatResult::Unknown,
        };
        (result, false)
    }

    /// The lazy DPLL(T) loop over an NNF formula, for formulas with a
    /// disjunction; returns as [`Solver::solve_nnf`] does.
    fn solve_dpllt(&mut self, nnf: &Formula) -> (SatResult, bool) {
        let mut enc = Encoder::new();
        let root = enc.encode(nnf);
        enc.sat.add_clause(&[root]);

        loop {
            if !enc.sat.solve() {
                return (SatResult::Unsat, false);
            }
            self.theory_rounds += 1;
            if self.budget.check().is_err() {
                return (SatResult::Unknown, true);
            }
            // Collect the asserted theory literals of this boolean
            // model, remembering which boolean literal each came from.
            let mut theory: Vec<Atom> = Vec::new();
            let mut origins: Vec<Lit> = Vec::new();
            for (key, &bv) in &enc.atom_vars {
                let val = enc.sat.value(bv);
                theory.push(theory_literal(key, val));
                origins.push(Lit::new(bv, val));
            }
            match lia::check_conj(&theory) {
                ConjResult::Sat(model) => {
                    debug_assert!(
                        nnf.eval(&|v| model.get(&v).copied().unwrap_or(0)),
                        "model does not satisfy formula"
                    );
                    return (SatResult::Sat(model), false);
                }
                ConjResult::Unsat => {
                    let core = lia::unsat_core(&theory);
                    let blocking: Vec<Lit> = core.iter().map(|&i| origins[i].negate()).collect();
                    enc.sat.add_clause(&blocking);
                }
                ConjResult::Unknown => {
                    // The theory solver could not classify this boolean
                    // model's conjunction, so there is no core to learn
                    // a blocking clause from. Give up on the whole
                    // query rather than loop forever or guess.
                    return (SatResult::Unknown, false);
                }
            }
        }
    }

    /// Clones out the `(NNF, result)` pairs this solver memoized
    /// itself (for persistence export); seed hits are not among them.
    /// Order is unspecified.
    pub fn entries(&self) -> Vec<(Formula, SatResult)> {
        self.cache.iter().map(|(k, v)| (k.formula().clone(), v.clone())).collect()
    }

    /// Convenience: is `f` satisfiable?
    pub fn is_sat(&mut self, f: &Formula) -> bool {
        self.check(f).is_sat()
    }

    /// Is `f` valid (true in every integer state)? The query is
    /// built in NNF, so `check` neither normalizes nor clones it.
    pub fn is_valid(&mut self, f: &Formula) -> bool {
        !self.is_sat(&f.nnf(true))
    }

    /// Does `a` entail `b`? The query `a ∧ ¬b` is built in NNF (the
    /// same formula `to_nnf` would make of it).
    pub fn entails(&mut self, a: &Formula, b: &Formula) -> bool {
        !self.is_sat(&a.to_nnf().and(b.nnf(true)))
    }

    /// Are `a` and `b` equivalent?
    pub fn equivalent(&mut self, a: &Formula, b: &Formula) -> bool {
        self.entails(a, b) && self.entails(b, a)
    }
}

/// Approximate heap footprint of one memoized formula, for budget
/// accounting: a fixed per-AST-node estimate covering the enum
/// discriminant, child vectors, and the linear expression behind each
/// atom. Deliberately coarse — the memory ceiling is a growth
/// governor, not an allocator limit.
fn formula_bytes(f: &Formula) -> u64 {
    const NODE_BYTES: u64 = 48;
    match f {
        Formula::Const(_) => NODE_BYTES,
        Formula::Atom(_) => 2 * NODE_BYTES,
        Formula::Not(inner) => NODE_BYTES + formula_bytes(inner),
        Formula::And(fs) | Formula::Or(fs) => {
            NODE_BYTES + fs.iter().map(formula_bytes).sum::<u64>()
        }
    }
}

/// The atoms of an NNF that is one atom or a conjunction of atoms;
/// `None` when it has a disjunction, which needs DPLL(T).
fn conjunction_atoms(nnf: &Formula) -> Option<Vec<&Atom>> {
    match nnf {
        Formula::Atom(a) => Some(vec![a]),
        Formula::And(fs) => fs
            .iter()
            .map(|f| match f {
                Formula::Atom(a) => Some(a),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

/// The boolean key of an atom and the polarity it asserts the key
/// with. `Ne` atoms map to the negation of the corresponding `Eq` key,
/// so the SAT core sees their propositional relationship; `Eq` keys
/// are canonical up to sign, and `Le` atoms are their own key.
fn atom_key(a: &Atom) -> (Atom, bool) {
    match a.rel() {
        Rel::Ne => (Atom::eq(a.expr().clone()).canonical(), false),
        Rel::Eq => (a.canonical(), true),
        Rel::Le => (a.clone(), true),
    }
}

/// The theory literal a boolean key contributes when assigned `val`.
fn theory_literal(key: &Atom, val: bool) -> Atom {
    if val {
        key.clone()
    } else {
        key.negate()
    }
}

/// Tseitin-style one-directional encoder for NNF formulas (all
/// occurrences positive, so implications top-down suffice).
struct Encoder {
    sat: CnfSolver,
    /// Boolean key ([`atom_key`]) → boolean variable.
    atom_vars: BTreeMap<Atom, BVar>,
}

impl Encoder {
    fn new() -> Encoder {
        Encoder { sat: CnfSolver::new(), atom_vars: BTreeMap::new() }
    }

    fn lit_of_atom(&mut self, a: &Atom) -> Lit {
        let (key, positive) = atom_key(a);
        let bv = match self.atom_vars.get(&key) {
            Some(&bv) => bv,
            None => {
                let bv = self.sat.new_var();
                self.atom_vars.insert(key, bv);
                bv
            }
        };
        Lit::new(bv, positive)
    }

    fn encode(&mut self, f: &Formula) -> Lit {
        match f {
            Formula::Const(_) | Formula::Not(_) => {
                unreachable!("constants folded and negations absorbed by NNF")
            }
            Formula::Atom(a) => self.lit_of_atom(a),
            Formula::And(fs) => {
                let children: Vec<Lit> = fs.iter().map(|c| self.encode(c)).collect();
                let aux = self.sat.new_var();
                for c in children {
                    self.sat.add_clause(&[Lit::neg(aux), c]);
                }
                Lit::pos(aux)
            }
            Formula::Or(fs) => {
                let children: Vec<Lit> = fs.iter().map(|c| self.encode(c)).collect();
                let aux = self.sat.new_var();
                let mut clause = vec![Lit::neg(aux)];
                clause.extend(children);
                self.sat.add_clause(&clause);
                Lit::pos(aux)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lin::{LinExpr, SVar};

    fn v(n: u32) -> SVar {
        SVar(n)
    }
    fn x() -> LinExpr {
        LinExpr::var(v(0))
    }
    fn y() -> LinExpr {
        LinExpr::var(v(1))
    }
    fn c(n: i64) -> LinExpr {
        LinExpr::constant(n)
    }
    fn eq(e: LinExpr) -> Formula {
        Formula::atom(Atom::eq(e))
    }
    fn le(e: LinExpr) -> Formula {
        Formula::atom(Atom::le(e))
    }

    #[test]
    fn boolean_structure_sat() {
        // (x = 0 ∨ x = 1) ∧ x ≠ 0  — sat with x = 1
        let f = eq(x()).or(eq(x() - c(1))).and(eq(x()).not());
        let mut s = Solver::new();
        match s.check(&f) {
            SatResult::Sat(m) => assert_eq!(m.get(&v(0)).copied().unwrap_or(0), 1),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn theory_conflict_propagates() {
        // (x = 0 ∨ x = 1) ∧ x ≥ 2  — unsat through theory only
        let f = eq(x()).or(eq(x() - c(1))).and(le(c(2) - x()));
        let mut s = Solver::new();
        assert_eq!(s.check(&f), SatResult::Unsat);
    }

    #[test]
    fn eq_and_ne_share_boolean_variable() {
        // x = 0 ∧ x ≠ 0 must be refuted at the SAT level (one round).
        let f = eq(x()).and(Formula::atom(Atom::ne(x())));
        let mut s = Solver::new();
        assert_eq!(s.check(&f), SatResult::Unsat);
    }

    #[test]
    fn entailment_queries() {
        let mut s = Solver::new();
        // x = y ∧ y = 0 ⊨ x = 0
        let pre = eq(x() - y()).and(eq(y()));
        assert!(s.entails(&pre, &eq(x())));
        assert!(!s.entails(&pre, &eq(x() - c(1))));
        // disjunctive conclusion: x = 0 ∨ x = 1 ⊨ x ≤ 1
        let d = eq(x()).or(eq(x() - c(1)));
        assert!(s.entails(&d, &le(x() - c(1))));
        assert!(!s.entails(&d, &eq(x())));
    }

    #[test]
    fn validity() {
        let mut s = Solver::new();
        // x ≤ 0 ∨ x ≥ 0 is valid; x ≤ 0 ∨ x ≥ 2 is not (x = 1)
        assert!(s.is_valid(&le(x()).or(le(-x()))));
        assert!(!s.is_valid(&le(x()).or(le(c(2) - x()))));
    }

    #[test]
    fn equivalence() {
        let mut s = Solver::new();
        // x = 0 ≡ (x ≤ 0 ∧ x ≥ 0)
        let a = eq(x());
        let b = le(x()).and(le(-x()));
        assert!(s.equivalent(&a, &b));
        assert!(!s.equivalent(&a, &le(x())));
    }

    #[test]
    fn deep_nesting() {
        // ⋀_{i<6} (x = i ∨ x ≠ i) is valid-ish (sat trivially);
        // conjoin x = 3 and require model hits it.
        let mut f = eq(x() - c(3));
        for i in 0..6 {
            f = f.and(eq(x() - c(i)).or(Formula::atom(Atom::ne(x() - c(i)))));
        }
        let mut s = Solver::new();
        match s.check(&f) {
            SatResult::Sat(m) => assert_eq!(m[&v(0)], 3),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn distinct_disjunction_requires_many_rounds() {
        // (x=0 ∨ x=1 ∨ x=2) ∧ x≠0 ∧ x≠1 ∧ x≠2 : unsat
        let f = eq(x())
            .or(eq(x() - c(1)))
            .or(eq(x() - c(2)))
            .and(Formula::atom(Atom::ne(x())))
            .and(Formula::atom(Atom::ne(x() - c(1))))
            .and(Formula::atom(Atom::ne(x() - c(2))));
        let mut s = Solver::new();
        assert_eq!(s.check(&f), SatResult::Unsat);
    }

    #[test]
    fn constants_short_circuit() {
        let mut s = Solver::new();
        assert!(s.is_sat(&Formula::tru()));
        assert!(!s.is_sat(&Formula::fls()));
        assert_eq!(s.num_queries(), 2);
    }

    #[test]
    fn repeated_query_hits_cache() {
        let f = eq(x()).or(eq(x() - c(1))).and(le(c(2) - x()));
        let mut s = Solver::new();
        assert_eq!(s.check(&f), SatResult::Unsat);
        let rounds = s.theory_rounds();
        assert_eq!(s.check(&f), SatResult::Unsat);
        assert_eq!(s.theory_rounds(), rounds, "cached query must do no theory work");
        assert_eq!(s.num_cache_hits(), 1);
        assert_eq!(s.num_cache_misses(), 1);
        assert_eq!(s.num_queries(), 2);
    }

    #[test]
    fn negation_placement_shares_cache_entry() {
        // ¬(x = 0 ∧ x = 1) and its NNF twin must be one cache entry.
        let f = eq(x()).and(eq(x() - c(1))).not();
        let mut s = Solver::new();
        let a = s.check(&f);
        let b = s.check(&f.to_nnf());
        assert_eq!(a, b);
        assert_eq!(s.num_cache_hits(), 1);
    }

    #[test]
    fn unknown_counts_as_possibly_sat() {
        assert!(SatResult::Unknown.is_sat());
        assert!(!SatResult::Unsat.is_sat());
        // A guard with overflowing coefficients degrades to Unknown
        // end-to-end instead of panicking.
        let huge = le(c(4_000_000_000_000_000_000) - y()) // y ≥ 4·10¹⁸
            .and(le(y().scale(3) - x())); // x ≥ 3y
        let mut s = Solver::new();
        assert_eq!(s.check(&huge), SatResult::Unknown);
        assert!(s.is_sat(&huge));
    }

    #[test]
    fn exhausted_budget_degrades_to_unknown_and_is_not_cached() {
        use std::time::Duration;
        // An already-expired deadline: the first theory round trips it.
        let f = eq(x()).or(eq(x() - c(1))).and(le(c(2) - x()));
        let mut s = Solver::new();
        s.set_budget(Budget::with_timeout(Duration::ZERO));
        assert_eq!(s.check(&f), SatResult::Unknown);
        // The degraded answer must not be memoized: with the budget
        // lifted, the same handle re-solves and gets the real verdict.
        s.set_budget(Budget::unlimited());
        assert_eq!(s.check(&f), SatResult::Unsat);
        assert_eq!(s.num_cache_hits(), 0);
    }

    #[test]
    fn cancelled_budget_degrades_to_unknown() {
        let token = circ_governor::CancelToken::new();
        let b = Budget::new(None, None, token.clone(), circ_governor::FaultPlan::inert());
        let mut s = Solver::new();
        s.set_budget(b);
        let f = eq(x()).or(eq(x() - c(1))).and(le(c(2) - x()));
        assert_eq!(s.check(&f), SatResult::Unsat);
        token.cancel();
        // Repeat of the same query is served from cache (no theory
        // round, no poll), so probe with a fresh formula.
        let g = eq(y()).or(eq(y() - c(1))).and(le(c(2) - y()));
        assert_eq!(s.check(&g), SatResult::Unknown);
    }

    #[test]
    fn cache_growth_is_charged_to_the_budget() {
        let b = Budget::unlimited();
        let mut s = Solver::new();
        s.set_budget(b.clone());
        assert_eq!(b.charged_bytes(), 0);
        s.check(&eq(x()).or(eq(x() - c(1))).and(le(c(2) - x())));
        let after_first = b.charged_bytes();
        assert!(after_first > 0, "a cache insert must charge the budget");
        // A cache hit charges nothing further.
        s.check(&eq(x()).or(eq(x() - c(1))).and(le(c(2) - x())));
        assert_eq!(b.charged_bytes(), after_first);
    }

    /// What one solving path did with a query: its answer, whether
    /// the budget aborted it, its theory rounds and its budget polls.
    type PathRun = (SatResult, bool, u64, u64);

    fn run_path(budget: Budget, solve: impl FnOnce(&mut Solver) -> (SatResult, bool)) -> PathRun {
        let mut s = Solver::new();
        s.set_budget(budget.clone());
        let (result, aborted) = solve(&mut s);
        (result, aborted, s.theory_rounds(), budget.polls())
    }

    /// A random atom over `x`, `y`, `z` with small coefficients.
    fn random_atom(rng: &mut rand::rngs::StdRng) -> Atom {
        use rand::Rng;
        let mut e = c(rng.gen_range(-3i64..=3));
        for i in 0..3 {
            e.add_term(v(i), rng.gen_range(-2i64..=2));
        }
        match rng.gen_range(0u32..3) {
            0 => Atom::eq(e),
            1 => Atom::le(e),
            _ => Atom::ne(e),
        }
    }

    /// The conjunctive path answers every conjunction of atoms exactly
    /// as the DPLL(T) loop does (model, theory rounds and budget polls
    /// included, under a live and an exhausted budget), and every
    /// formula with a disjunction falls through to the loop.
    #[test]
    fn conjunctive_path_matches_dpllt() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::time::Duration;
        let mut rng = StdRng::seed_from_u64(0xc0_4e11);
        let (mut sat, mut unsat, mut refuted, mut folded) = (0, 0, 0, 0);
        for case in 0..600 {
            let mut atoms: Vec<Atom> = Vec::new();
            for _ in 0..rng.gen_range(1usize..7) {
                let pick = rng.gen_range(0u32..8);
                let atom = match atoms.get(rng.gen_range(0..atoms.len().max(1))) {
                    // A duplicate, sign-flipped when the relation allows.
                    Some(prev) if pick == 0 => match prev.rel() {
                        Rel::Le => prev.clone(),
                        Rel::Eq => Atom::eq(-prev.expr().clone()),
                        Rel::Ne => Atom::ne(-prev.expr().clone()),
                    },
                    // The negation: an `Eq` and a `Ne` on one key.
                    Some(prev) if pick == 1 => prev.negate(),
                    // An atom that folds to a constant.
                    _ if pick == 2 => Atom::le(c(rng.gen_range(-1i64..=1))),
                    _ => random_atom(&mut rng),
                };
                atoms.push(atom);
            }
            let nnf = Formula::conj(atoms.into_iter().map(Formula::atom));
            let Some(lits) = conjunction_atoms(&nnf) else {
                assert!(matches!(nnf, Formula::Const(_)), "case {case}: {nnf} fell through");
                folded += 1;
                continue;
            };
            // Fresh budgets per path: clones share one poll counter.
            for timeout in [None, Some(Duration::ZERO)] {
                let budget = || timeout.map_or_else(Budget::unlimited, Budget::with_timeout);
                let fast = run_path(budget(), |s| s.solve_conj(&lits));
                let slow = run_path(budget(), |s| s.solve_dpllt(&nnf));
                assert_eq!(fast, slow, "case {case}: {nnf}");
            }
            match run_path(Budget::unlimited(), |s| s.solve_conj(&lits)) {
                (SatResult::Sat(_), ..) => sat += 1,
                (SatResult::Unsat, _, 0, _) => refuted += 1,
                (SatResult::Unsat, ..) => unsat += 1,
                (SatResult::Unknown, ..) => {}
            }
        }
        assert!(
            sat > 50 && unsat > 50 && refuted > 20 && folded > 20,
            "weak inputs: {sat} sat, {unsat} unsat, {refuted} refuted, {folded} folded"
        );

        for case in 0..200 {
            let mut f = Formula::atom(random_atom(&mut rng));
            for _ in 0..rng.gen_range(1usize..5) {
                let g = Formula::atom(random_atom(&mut rng));
                f = match rng.gen_range(0u32..3) {
                    0 => f.and(g),
                    1 => f.or(g),
                    _ => f.and(g).not(),
                };
            }
            let nnf = f.to_nnf();
            let mut has_or = false;
            let mut stack = vec![&nnf];
            while let Some(g) = stack.pop() {
                match g {
                    Formula::Or(_) => has_or = true,
                    Formula::And(gs) => stack.extend(gs),
                    _ => {}
                }
            }
            assert_eq!(
                conjunction_atoms(&nnf).is_none(),
                has_or || nnf.is_true() || nnf.is_false(),
                "case {case}: {nnf}"
            );
        }
    }

    #[test]
    fn disabled_cache_recomputes_identically() {
        let f = eq(x()).or(eq(x() - c(1))).and(le(c(2) - x()));
        let mut cached = Solver::new();
        let mut raw = Solver::new();
        raw.set_cache_enabled(false);
        for _ in 0..3 {
            assert_eq!(cached.check(&f), raw.check(&f));
        }
        assert_eq!(raw.num_cache_hits(), 0);
        assert!(raw.theory_rounds() > cached.theory_rounds());
    }
}
