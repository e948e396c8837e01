//! `post_assume` answers through the shared entailment cache, one
//! conjunction of atoms per disjunct of the guard. This suite keeps a
//! copy of the formula-level post it replaced (one `Solver` query over
//! `cube ∧ guard` per question) and checks that the two agree exactly —
//! the same `None` for a blocked edge, the same cube otherwise — on
//! every `assume` edge of the NesC models and of token rings, from
//! every cube a ReachAndBuild run reaches at the edge's source and
//! from seeded random cubes, plus a synthetic automaton whose guards
//! are disjunctions, disequalities and constants.

use circ_acfa::{Acfa, CVal, Cube, PredIx};
use circ_core::{
    circ, reach_and_build, AbsCtx, Budget, CircConfig, CircOutcome, PredSet, Property,
};
use circ_ir::{BoolExpr, Cfa, CfaBuilder, EdgeId, Expr, MtProgram, Op, Pred, Var};
use circ_smt::{translate, Formula, SVar, Solver};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Pre-state instance of a program variable, as the abstraction
/// numbers it.
fn pre(v: Var) -> SVar {
    SVar(v.index() as u32 * 2)
}

/// The formula-level abstract post of `assume b` that `AbsCtx` used
/// before it asked the entailment cache.
fn reference_post_assume(
    ctx: &AbsCtx,
    solver: &mut Solver,
    cube: &Cube,
    b: &BoolExpr,
) -> Option<Cube> {
    let guard = translate::formula_of_bool(b, &mut pre).unwrap_or_else(|_| Formula::tru());
    let pre_f = ctx.cube_formula(cube).and(guard);
    if !solver.is_sat(&pre_f) {
        return None;
    }
    let preds = ctx.preds();
    let mut out = Cube::top(preds.len());
    for i in preds.indices() {
        if let Some(v) = cube.get(i) {
            out.set(i, v);
            continue;
        }
        let Ok(p_atom) = translate::atom_of_pred(preds.pred(i), &mut pre) else {
            continue;
        };
        if solver.entails(&pre_f, &Formula::atom(p_atom.clone())) {
            out.set(i, true);
        } else if solver.entails(&pre_f, &Formula::atom(p_atom.negate())) {
            out.set(i, false);
        }
    }
    Some(out)
}

/// A SplitMix64 stream, so the random cubes are the same every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// A cube deciding each of `n` predicates with probability 1/2.
    fn cube(&mut self, n: usize) -> Cube {
        let mut c = Cube::top(n);
        for i in 0..n {
            match self.below(4) {
                0 => c.set(PredIx(i as u32), true),
                1 => c.set(PredIx(i as u32), false),
                _ => {}
            }
        }
        c
    }
}

/// What one comparison run covered.
#[derive(Default, Debug)]
struct Tally {
    compared: u64,
    blocked: u64,
    decided: u64,
    disjunctive: u64,
}

/// Compares the two posts on every `assume` edge of `cfa` under
/// `preds`, from each edge source's cubes in `reached` plus `random`
/// seeded random cubes.
fn compare(
    name: &str,
    cfa: Arc<Cfa>,
    preds: PredSet,
    reached: &[(circ_ir::Loc, Cube)],
    random: usize,
    tally: &mut Tally,
) {
    let ctx = AbsCtx::new(Arc::clone(&cfa), preds);
    let mut solver = Solver::new();
    let mut rng = Rng(0x5eed ^ name.len() as u64);
    let n = ctx.preds().len();
    for (ix, edge) in cfa.edges().iter().enumerate() {
        let Op::Assume(b) = &edge.op else { continue };
        let guard = translate::formula_of_bool(b, &mut pre).unwrap_or_else(|_| Formula::tru());
        if guard.dnf().len() > 1 {
            tally.disjunctive += 1;
        }
        let mut cubes: BTreeSet<Cube> =
            reached.iter().filter(|(pc, _)| *pc == edge.src).map(|(_, c)| c.clone()).collect();
        cubes.extend((0..random).map(|_| rng.cube(n)));
        for cube in cubes {
            let got = ctx.post_edge(&cube, EdgeId::from_raw(ix as u32));
            let want = reference_post_assume(&ctx, &mut solver, &cube, b);
            assert_eq!(got, want, "{name}: edge {ix} [{b}] from {cube:?}");
            tally.compared += 1;
            match got {
                None => tally.blocked += 1,
                Some(out) => tally.decided += u64::from(out.num_literals() > cube.num_literals()),
            }
        }
    }
}

/// Checks `program` and returns its final predicates with the cubes a
/// ReachAndBuild run over them reaches: against the inferred context
/// of a Safe verdict, else against the empty context.
fn reached_states(program: &MtProgram) -> (PredSet, Vec<(circ_ir::Loc, Cube)>) {
    let config = CircConfig::default();
    let (preds, acfa, k) = match circ(program, &config) {
        CircOutcome::Safe(r) => (r.preds, Some(r.acfa), r.k),
        CircOutcome::Unsafe(r) => (r.preds, None, r.k),
        CircOutcome::Unknown(r) => panic!("{}: inconclusive: {:?}", program.cfa().name(), r.reason),
    };
    let cfa = program.cfa_arc();
    let preds = PredSet::from_preds(&cfa, preds);
    let acfa = acfa.unwrap_or_else(|| Acfa::empty(preds.len()));
    let ctx = AbsCtx::new(Arc::clone(&cfa), preds.clone());
    let budget = Budget::unlimited();
    let arg = reach_and_build(
        &ctx,
        program,
        &acfa,
        k,
        CVal::Omega,
        config.max_states,
        Property::Race,
        &budget,
    )
    .expect("reach over the final context");
    let states = (0..arg.num_locs()).map(|slot| arg.thread_state(slot).clone()).collect();
    (preds, states)
}

fn ring(n: u32, racy: Option<u32>) -> String {
    let safe = circ_nesc::token_ring_source(n);
    let Some(p) = racy else { return safe };
    let take = format!("if (mode == {}) {{ mode = {}; got = 1; }}", 2 * p, 2 * p + 1);
    safe.replacen(&format!("atomic {{ {take} }}"), &take, 1)
}

#[test]
fn assume_posts_match_the_formula_level_reference() {
    let mut tally = Tally::default();
    let mut sources: Vec<(String, String)> =
        circ_nesc::models().iter().map(|m| (m.name.to_string(), m.source.to_string())).collect();
    for n in 3..=5 {
        sources.push((format!("ring{n}"), ring(n, None)));
    }
    sources.push(("ring3_racy0".into(), ring(3, Some(0))));
    for (name, source) in &sources {
        let compiled = circ_frontend::compile(source).expect("compiles");
        for &var in &compiled.race_vars {
            let program = MtProgram::new(compiled.cfa.clone(), var);
            let (preds, reached) = reached_states(&program);
            compare(name, program.cfa_arc(), preds, &reached, 40, &mut tally);
        }
    }
    assert!(tally.compared > 5_000, "{tally:?}");
    assert!(tally.blocked > 500 && tally.decided > 500, "{tally:?}");
}

#[test]
fn disjunctive_and_constant_guards_match_the_formula_level_reference() {
    let mut b = CfaBuilder::new("guards");
    let (x, y, z) = (b.global("x"), b.global("y"), b.global("z"));
    let v = |var: Var| Expr::var(var);
    let i = Expr::int;
    let guards = [
        BoolExpr::tru(),
        BoolExpr::fls(),
        BoolExpr::ne(v(x), v(y)),
        BoolExpr::eq(v(x), i(0)).not(),
        BoolExpr::eq(v(x), i(0)).or(BoolExpr::ne(v(y), i(1))),
        BoolExpr::eq(v(x), i(0)).and(BoolExpr::eq(v(y), v(z))).not(),
        BoolExpr::le(v(x), i(1))
            .or(BoolExpr::eq(v(y), i(2)))
            .and(BoolExpr::ne(v(z), i(0)).or(BoolExpr::eq(v(x), v(y)))),
        BoolExpr::lt(v(x), v(y)).or(BoolExpr::gt(v(x), v(y))).or(BoolExpr::eq(v(z), i(3))),
    ];
    for g in guards {
        let dst = b.fresh_loc();
        b.edge(b.entry(), Op::Assume(g), dst);
    }
    let cfa = Arc::new(b.build());
    let preds = PredSet::from_preds(
        &cfa,
        [
            Pred::eq(v(x), i(0)),
            Pred::eq(v(y), i(1)),
            Pred::eq(v(y), v(z)),
            Pred::eq(v(x), v(y)),
            Pred::eq(v(z), i(0)),
            Pred::new(v(x), circ_ir::CmpOp::Le, i(1)),
            Pred::eq(v(y), i(2)),
            Pred::new(v(x), circ_ir::CmpOp::Ge, i(0)),
        ],
    );
    let mut tally = Tally::default();
    compare("guards", cfa, preds, &[], 400, &mut tally);
    assert_eq!(tally.disjunctive, 4, "{tally:?}");
    assert!(tally.blocked > 400 && tally.decided > 400, "{tally:?}");
}
