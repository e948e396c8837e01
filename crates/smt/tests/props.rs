//! Randomized validation of the decision procedures against
//! brute-force evaluation on a finite grid of integer points.
//!
//! The solver decides satisfiability over **all** integers, so the
//! grid gives one-sided oracles:
//!
//! * a satisfying grid point forces the solver to answer `Sat`;
//! * every model the solver returns must actually satisfy the input;
//! * everything entailed/projected must hold at every satisfying grid
//!   point.
//!
//! Inputs are drawn from a deterministic seeded generator so failures
//! reproduce exactly; each assertion message carries the case index.

use circ_smt::{lia, Atom, Formula, LinExpr, SVar, SatResult, Solver};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const NVARS: u32 = 3;
const GRID: std::ops::RangeInclusive<i64> = -4..=4;
const CASES: usize = 64;

fn gen_lin(rng: &mut StdRng) -> LinExpr {
    let mut e = LinExpr::constant(rng.gen_range(-5i64..=5));
    for i in 0..NVARS {
        e.add_term(SVar(i), rng.gen_range(-3i64..=3));
    }
    e
}

fn gen_atom(rng: &mut StdRng) -> Atom {
    let e = gen_lin(rng);
    match rng.gen_range(0u32..3) {
        0 => Atom::eq(e),
        1 => Atom::le(e),
        _ => Atom::ne(e),
    }
}

fn gen_atoms(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<Atom> {
    (0..rng.gen_range(lo..hi)).map(|_| gen_atom(rng)).collect()
}

/// Random formula of bounded depth (matches the old strategy's shape:
/// atoms at the leaves, and/or/not above them).
fn gen_formula(rng: &mut StdRng, depth: u32) -> Formula {
    if depth == 0 || rng.gen_range(0u32..4) == 0 {
        return Formula::atom(gen_atom(rng));
    }
    match rng.gen_range(0u32..3) {
        0 => gen_formula(rng, depth - 1).and(gen_formula(rng, depth - 1)),
        1 => gen_formula(rng, depth - 1).or(gen_formula(rng, depth - 1)),
        _ => Formula::not(gen_formula(rng, depth - 1)),
    }
}

/// Random formula built with the raw constructors, so it also has the
/// shapes the folding builders never make: connectives with no or one
/// operand, nested connectives of one kind, constants below the root,
/// constant atoms and stacked negations.
fn gen_raw_formula(rng: &mut StdRng, depth: u32) -> Formula {
    if depth == 0 || rng.gen_range(0u32..4) == 0 {
        return match rng.gen_range(0u32..6) {
            0 => Formula::Const(rng.gen_range(0u32..2) == 0),
            1 => Formula::Atom(Atom::le(LinExpr::constant(rng.gen_range(-1i64..=1)))),
            _ => Formula::Atom(gen_atom(rng)),
        };
    }
    let kind = rng.gen_range(0u32..3);
    let mut operands: Vec<Formula> =
        (0..rng.gen_range(0usize..4)).map(|_| gen_raw_formula(rng, depth - 1)).collect();
    match kind {
        0 => Formula::And(operands),
        1 => Formula::Or(operands),
        _ => Formula::Not(Box::new(operands.pop().unwrap_or_else(|| gen_atom(rng).into()))),
    }
}

/// Either kind of random formula, alternating by case.
fn gen_any_formula(rng: &mut StdRng, case: usize) -> Formula {
    if case.is_multiple_of(2) {
        gen_formula(rng, 3)
    } else {
        gen_raw_formula(rng, 3)
    }
}

/// Every grid assignment over `NVARS` variables.
fn grid_points() -> impl Iterator<Item = [i64; 3]> {
    GRID.flat_map(|a| GRID.flat_map(move |b| GRID.map(move |c| [a, b, c])))
}

fn eval_at(point: &[i64; 3]) -> impl Fn(SVar) -> i64 + '_ {
    move |v: SVar| point.get(v.0 as usize).copied().unwrap_or(0)
}

fn gen_point(rng: &mut StdRng, span: i64) -> [i64; 3] {
    [rng.gen_range(-span..=span), rng.gen_range(-span..=span), rng.gen_range(-span..=span)]
}

#[test]
fn solver_agrees_with_grid() {
    let mut rng = StdRng::seed_from_u64(0x5317_0001);
    for case in 0..CASES {
        let f = gen_formula(&mut rng, 3);
        let grid_sat = grid_points().any(|p| f.eval(&eval_at(&p)));
        let mut solver = Solver::new();
        match solver.check(&f) {
            SatResult::Sat(model) => {
                // the returned model must satisfy the formula
                assert!(
                    f.eval(&|v| model.get(&v).copied().unwrap_or(0)),
                    "case {case}: returned model violates {f}"
                );
            }
            SatResult::Unsat => {
                assert!(!grid_sat, "case {case}: solver said Unsat but the grid satisfies {f}");
            }
            SatResult::Unknown => {
                panic!("case {case}: small-coefficient formula must never be Unknown: {f}");
            }
        }
    }
}

#[test]
fn conj_solver_agrees_with_grid() {
    let mut rng = StdRng::seed_from_u64(0x5317_0002);
    for case in 0..CASES {
        let atoms = gen_atoms(&mut rng, 1, 6);
        let grid_sat = grid_points().any(|p| atoms.iter().all(|a| a.eval(&eval_at(&p))));
        match lia::check_conj(&atoms) {
            lia::ConjResult::Sat(model) => {
                let assign = |v: SVar| model.get(&v).copied().unwrap_or(0);
                for a in &atoms {
                    assert!(a.eval(&assign), "case {case}: model violates {a}");
                }
            }
            lia::ConjResult::Unsat => {
                assert!(!grid_sat, "case {case}: conjunction satisfiable on the grid: {atoms:?}");
            }
            lia::ConjResult::Unknown => {
                panic!("case {case}: small-coefficient conjunction must never be Unknown");
            }
        }
    }
}

#[test]
fn unsat_core_is_unsat_subset() {
    let mut rng = StdRng::seed_from_u64(0x5317_0003);
    for case in 0..CASES {
        let atoms = gen_atoms(&mut rng, 1, 6);
        if lia::is_sat_conj(&atoms) {
            continue;
        }
        let core = lia::unsat_core(&atoms);
        assert!(!core.is_empty(), "case {case}");
        assert!(core.iter().all(|&i| i < atoms.len()), "case {case}");
        let subset: Vec<Atom> = core.iter().map(|&i| atoms[i].clone()).collect();
        assert!(!lia::is_sat_conj(&subset), "case {case}: core must stay unsat");
    }
}

#[test]
fn projection_is_implied() {
    let mut rng = StdRng::seed_from_u64(0x5317_0004);
    for case in 0..CASES {
        let atoms = gen_atoms(&mut rng, 1, 5);
        let elim_mask = rng.gen_range(0u32..(1 << NVARS));
        let elim: BTreeSet<SVar> =
            (0..NVARS).filter(|i| elim_mask & (1 << i) != 0).map(SVar).collect();
        let projected = lia::project(&atoms, &elim);
        // soundness: every grid model of the input satisfies the
        // projection (∃-elimination only weakens)
        for p in grid_points() {
            let assign = eval_at(&p);
            if atoms.iter().all(|a| a.eval(&assign)) {
                for q in &projected {
                    assert!(q.eval(&assign), "case {case}: projection {q} broken at {p:?}");
                }
            }
        }
        // the projection must not mention eliminated variables
        for q in &projected {
            for v in q.vars() {
                assert!(!elim.contains(&v), "case {case}: {q} still mentions {v}");
            }
        }
    }
}

#[test]
fn atom_negation_is_complement() {
    let mut rng = StdRng::seed_from_u64(0x5317_0005);
    for case in 0..CASES {
        let a = gen_atom(&mut rng);
        let p = gen_point(&mut rng, 6);
        let assign = eval_at(&p);
        assert_eq!(a.eval(&assign), !a.negate().eval(&assign), "case {case}: {a} at {p:?}");
    }
}

#[test]
fn entailment_respects_grid() {
    let mut rng = StdRng::seed_from_u64(0x5317_0006);
    for case in 0..CASES {
        let premises = gen_atoms(&mut rng, 1, 4);
        let goal = gen_atom(&mut rng);
        if lia::entails(&premises, &goal) {
            for p in grid_points() {
                let assign = eval_at(&p);
                if premises.iter().all(|a| a.eval(&assign)) {
                    assert!(goal.eval(&assign), "case {case}: entailment broken at {p:?}");
                }
            }
        }
    }
}

#[test]
fn nnf_preserves_semantics() {
    let mut rng = StdRng::seed_from_u64(0x5317_0007);
    for case in 0..CASES {
        let f = gen_formula(&mut rng, 3);
        let p = gen_point(&mut rng, 4);
        let assign = eval_at(&p);
        assert_eq!(f.eval(&assign), f.to_nnf().eval(&assign), "case {case}: {f} at {p:?}");
    }
}

/// `is_nnf` holds exactly on the formulas `to_nnf` returns unchanged,
/// and `to_nnf` is idempotent.
#[test]
fn is_nnf_marks_the_fixed_points_of_to_nnf() {
    let mut rng = StdRng::seed_from_u64(0x5317_000a);
    let (mut nnf_inputs, mut other_inputs) = (0, 0);
    for case in 0..8 * CASES {
        let f = gen_any_formula(&mut rng, case);
        let nnf = f.to_nnf();
        assert_eq!(f.is_nnf(), nnf == f, "case {case}: {f}");
        assert_eq!(nnf.to_nnf(), nnf, "case {case}: {f}");
        assert!(nnf.is_nnf(), "case {case}: {f}");
        if f.is_nnf() {
            nnf_inputs += 1;
        } else {
            other_inputs += 1;
        }
    }
    assert!(nnf_inputs > CASES && other_inputs > CASES, "{nnf_inputs} vs {other_inputs}");
}

/// `entails` and `is_valid` build their query's NNF directly; the
/// solver must memoize it under the same key, with the same answer,
/// as the query built the plain way and normalized by `check`.
#[test]
fn entailment_queries_are_keyed_as_their_plain_form() {
    let mut rng = StdRng::seed_from_u64(0x5317_000b);
    for case in 0..2 * CASES {
        let a = gen_any_formula(&mut rng, case);
        let b = gen_any_formula(&mut rng, case + 1);
        // The plain form, asked second, must not miss again.
        let mut s = Solver::new();
        let entailed = s.entails(&a, &b);
        let misses = s.num_cache_misses();
        assert_eq!(entailed, !s.is_sat(&a.clone().and(b.clone().not())), "case {case}");
        assert_eq!(s.num_cache_misses(), misses, "case {case}: {a} |= {b}");
        let mut s = Solver::new();
        let valid = s.is_valid(&a);
        let misses = s.num_cache_misses();
        assert_eq!(valid, !s.is_sat(&a.clone().not()), "case {case}");
        assert_eq!(s.num_cache_misses(), misses, "case {case}: valid {a}");
    }
}

/// Reference model for [`LinExpr`]: its terms in an ordered map, with
/// the fields in the order the derived `Ord` compares them. This is
/// the representation whose order canonical atoms, seed sorting and
/// every persisted cache file were built on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RefLin {
    terms: BTreeMap<SVar, i64>,
    constant: i64,
}

impl RefLin {
    fn add_term(&mut self, v: SVar, a: i64) {
        let c = self.terms.get(&v).copied().unwrap_or(0) + a;
        if c == 0 {
            self.terms.remove(&v);
        } else {
            self.terms.insert(v, c);
        }
    }

    fn scale(&self, k: i64) -> RefLin {
        let mut out = RefLin { terms: BTreeMap::new(), constant: self.constant * k };
        for (&v, &a) in &self.terms {
            out.add_term(v, a * k);
        }
        out
    }

    fn plus(&self, k: i64, rhs: &RefLin) -> RefLin {
        let mut out = self.clone();
        for (&v, &a) in &rhs.terms {
            out.add_term(v, a * k);
        }
        out.constant += rhs.constant * k;
        out
    }

    fn subst(&self, v: SVar, repl: &RefLin) -> RefLin {
        let Some(&a) = self.terms.get(&v) else { return self.clone() };
        let mut out = self.clone();
        out.terms.remove(&v);
        out.plus(a, repl)
    }

    fn render(&self) -> String {
        let mut s = String::new();
        for (i, (v, &a)) in self.terms.iter().enumerate() {
            let mag = if a.abs() == 1 { String::new() } else { a.abs().to_string() };
            match (i, a < 0) {
                (0, false) => s += &format!("{mag}{v}"),
                (0, true) => s += &format!("-{mag}{v}"),
                (_, false) => s += &format!(" + {mag}{v}"),
                (_, true) => s += &format!(" - {mag}{v}"),
            }
        }
        match (s.is_empty(), self.constant) {
            (true, c) => s = c.to_string(),
            (false, c) if c > 0 => s += &format!(" + {c}"),
            (false, c) if c < 0 => s += &format!(" - {}", -c),
            _ => {}
        }
        s
    }
}

/// A random expression built term by term (zero coefficients and
/// repeated variables included, so cancellation is exercised).
fn gen_lin_pair(rng: &mut StdRng) -> (LinExpr, RefLin) {
    let c = rng.gen_range(-4i64..=4);
    let (mut e, mut r) = (LinExpr::constant(c), RefLin { terms: BTreeMap::new(), constant: c });
    for _ in 0..rng.gen_range(0..5) {
        let (v, a) = (SVar(rng.gen_range(0u32..6)), rng.gen_range(-2i64..=2));
        e.add_term(v, a);
        r.add_term(v, a);
    }
    (e, r)
}

fn ref_of(e: &LinExpr) -> RefLin {
    RefLin { terms: e.terms().collect(), constant: e.constant_part() }
}

fn assert_agrees(e: &LinExpr, r: &RefLin, what: &str) {
    let want: Vec<(SVar, i64)> = r.terms.iter().map(|(&v, &a)| (v, a)).collect();
    assert_eq!(e.terms().collect::<Vec<_>>(), want, "{what}: terms");
    assert_eq!(e.constant_part(), r.constant, "{what}: constant");
    for v in (0..8).map(SVar) {
        assert_eq!(e.coeff(v), r.terms.get(&v).copied().unwrap_or(0), "{what}: coeff {v}");
        assert_eq!(e.mentions(v), r.terms.contains_key(&v), "{what}: mentions {v}");
    }
    assert_eq!(e.to_string(), r.render(), "{what}: display");
}

#[test]
fn flat_lin_expr_matches_ordered_map_model() {
    let mut rng = StdRng::seed_from_u64(0x5317_0008);
    for case in 0..256 {
        let (mut e, mut r) = gen_lin_pair(&mut rng);
        assert_agrees(&e, &r, &format!("case {case} start"));
        for step in 0..10 {
            let (e2, r2) = gen_lin_pair(&mut rng);
            match rng.gen_range(0u32..5) {
                0 => {
                    let (v, a) = (SVar(rng.gen_range(0u32..6)), rng.gen_range(-3i64..=3));
                    e.add_term(v, a);
                    r.add_term(v, a);
                }
                1 => {
                    let k = rng.gen_range(-2i64..=2);
                    (e, r) = (e.scale(k), r.scale(k));
                }
                2 => {
                    let v = SVar(rng.gen_range(0u32..6));
                    (e, r) = (e.subst(v, &e2), r.subst(v, &r2));
                }
                3 => (e, r) = (e + e2.clone(), r.plus(1, &r2)),
                _ => (e, r) = (e - e2.clone(), r.plus(-1, &r2)),
            }
            let what = format!("case {case} step {step}");
            assert_agrees(&e, &r, &what);
            // Order between random pairs is the ordered map's order.
            assert_eq!(e.cmp(&e2), r.cmp(&r2), "{what}: cmp against {e2}");
            assert_eq!(e == e2, r == r2, "{what}: eq against {e2}");
            // Canonical atoms pick the smaller of `e` and `−e` in that
            // same order, so they land exactly where they used to.
            for atom in [Atom::eq(e.clone()), Atom::ne(e.clone())] {
                let x = ref_of(atom.expr());
                let neg = x.scale(-1);
                let want = if neg < x { neg } else { x };
                assert_eq!(ref_of(atom.canonical().expr()), want, "{what}: canonical of {atom}");
            }
        }
    }
}
