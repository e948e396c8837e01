//! Micro-benchmarks of the from-scratch decision-procedure substrate:
//! the conjunctive LIA solver (satisfiability, unsat cores,
//! projection), the CDCL SAT core, and the lazy DPLL(T) combination
//! (conjunctive abstract-post queries and disjunctive ones).
//! These dominate CIRC's inner loops, so their costs set the Time
//! column of Table 1.

use circ_smt::{lia, sat, Atom, Formula, LinExpr, SVar, SatResult, Solver};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn v(n: u32) -> SVar {
    SVar(n)
}

/// An equality chain x0 = x1 = … = xn ∧ x0 = 0 ∧ xn = 1 (unsat).
fn eq_chain(n: u32) -> Vec<Atom> {
    let mut atoms = Vec::new();
    for i in 0..n {
        atoms.push(Atom::eq(LinExpr::var(v(i)) - LinExpr::var(v(i + 1))));
    }
    atoms.push(Atom::eq(LinExpr::var(v(0))));
    atoms.push(Atom::eq(LinExpr::var(v(n)) - LinExpr::constant(1)));
    atoms
}

/// A difference chain x0 ≤ x1 ≤ … ≤ xn ∧ xn ≤ x0 − 1 (unsat via FM).
fn le_chain(n: u32) -> Vec<Atom> {
    let mut atoms = Vec::new();
    for i in 0..n {
        atoms.push(Atom::le(LinExpr::var(v(i)) - LinExpr::var(v(i + 1))));
    }
    atoms.push(Atom::le(LinExpr::var(v(n)) - LinExpr::var(v(0)) + LinExpr::constant(1)));
    atoms
}

fn bench_lia(c: &mut Criterion) {
    let mut g = c.benchmark_group("lia");
    for n in [8u32, 32, 128] {
        let chain = eq_chain(n);
        g.bench_with_input(BenchmarkId::new("eq_chain_unsat", n), &chain, |b, chain| {
            b.iter(|| assert!(!lia::is_sat_conj(chain)));
        });
        let les = le_chain(n);
        g.bench_with_input(BenchmarkId::new("le_chain_unsat", n), &les, |b, les| {
            b.iter(|| assert!(!lia::is_sat_conj(les)));
        });
    }
    // Every link of the chain is needed for the contradiction.
    let chain = eq_chain(32);
    g.bench_function("unsat_core_32", |b| {
        b.iter(|| assert_eq!(lia::unsat_core(&chain).len(), chain.len()));
    });
    // Eliminating the middle of the cycle keeps it contradictory.
    let les = le_chain(16);
    let elim: std::collections::BTreeSet<SVar> = (1..16).map(v).collect();
    assert!(!lia::is_sat_conj(&lia::project(&les, &elim)));
    g.bench_function("project_16", |b| {
        b.iter(|| lia::project(&les, &elim));
    });
    g.finish();
}

fn bench_sat(c: &mut Criterion) {
    let mut g = c.benchmark_group("sat");
    for holes in [4usize, 5, 6] {
        g.bench_with_input(BenchmarkId::new("pigeonhole", holes), &holes, |b, &holes| {
            b.iter(|| {
                let pigeons = holes + 1;
                let mut s = sat::CnfSolver::new();
                let vars: Vec<Vec<sat::BVar>> =
                    (0..pigeons).map(|_| (0..holes).map(|_| s.new_var()).collect()).collect();
                for p in &vars {
                    let clause: Vec<sat::Lit> = p.iter().map(|&x| sat::Lit::pos(x)).collect();
                    s.add_clause(&clause);
                }
                #[allow(clippy::needless_range_loop)] // h indexes two parallel rows
                for h in 0..holes {
                    for p1 in 0..pigeons {
                        for p2 in (p1 + 1)..pigeons {
                            s.add_clause(&[sat::Lit::neg(vars[p1][h]), sat::Lit::neg(vars[p2][h])]);
                        }
                    }
                }
                assert!(!s.solve());
            });
        });
    }
    g.finish();
}

/// The shape of a cartesian abstract-post query on an `n`-phase token
/// ring: a cube over `mode` (v0) and `got` (v1) with `got = 0`, `mode`
/// in `0..2n` and off every odd (holding) value, the guard
/// `mode = 2k` of phase `k`'s grab, and the negated predicate `¬p`.
/// Every node is an atom, so the query is one conjunction.
fn ring_post_query(n: i64, k: i64, p: Atom) -> Formula {
    let mode = || LinExpr::var(v(0));
    let mut cube = vec![Atom::eq(LinExpr::var(v(1))), Atom::ge(mode())];
    cube.push(Atom::le(mode() - LinExpr::constant(2 * n - 1)));
    cube.extend((0..n).map(|i| Atom::ne(mode() - LinExpr::constant(2 * i + 1))));
    let guard = Atom::eq(mode() - LinExpr::constant(2 * k));
    Formula::conj(cube.into_iter().chain([guard]).map(Formula::atom)).and(Formula::atom(p).not())
}

fn bench_dpllt(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpllt");
    // Each case takes microseconds; a mean of 10 spread by ±20%.
    g.sample_size(1000);
    // Ring 7, phase 3: the cube and guard entail `mode + got = 6`
    // (UNSAT query) but not `mode = 8`, the next phase (SAT query).
    let entailed = ring_post_query(
        7,
        3,
        Atom::eq(LinExpr::var(v(0)) + LinExpr::var(v(1)) - LinExpr::constant(6)),
    );
    let refuted = ring_post_query(7, 3, Atom::eq(LinExpr::var(v(0)) - LinExpr::constant(8)));
    g.bench_function("conj_entailed", |b| {
        b.iter(|| assert_eq!(Solver::new().check(&entailed), SatResult::Unsat));
    });
    g.bench_function("conj_refuted", |b| {
        b.iter(|| match Solver::new().check(&refuted) {
            SatResult::Sat(m) => assert_eq!(m.get(&v(0)), Some(&6)),
            other => panic!("expected sat, got {other:?}"),
        });
    });
    // (x = 0 ∨ x = 1 ∨ … ∨ x = n) ∧ ⋀ x ≠ i : n theory rounds.
    for n in [4i64, 8, 16] {
        g.bench_with_input(BenchmarkId::new("distinct_rounds", n), &n, |b, &n| {
            b.iter(|| {
                let x = LinExpr::var(v(0));
                let mut f = Formula::fls();
                for i in 0..=n {
                    f = f.or(Formula::atom(Atom::eq(x.clone() - LinExpr::constant(i))));
                }
                for i in 0..=n {
                    f = f.and(Formula::atom(Atom::ne(x.clone() - LinExpr::constant(i))));
                }
                let mut s = Solver::new();
                assert!(!s.is_sat(&f));
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_lia, bench_sat, bench_dpllt);
criterion_main!(benches);
