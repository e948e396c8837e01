//! ReachAndBuild (Algorithm 1) alone, against the context ω-CIRC
//! proves each token ring safe with: the final context ACFA, the
//! discovered predicates and the final `k` of its `SafeReport`. This is
//! the run that closes every safe ring check, and reach is most of a
//! cold ring check.
//!
//! Two cases per ring. `cold` builds a fresh abstraction context per
//! run, so abstract posts reach the entailment cache and the solver.
//! `memo_warm` reuses one context, so every post is a memo hit and
//! the time left is the state index, the context counters and the ARG
//! bookkeeping. Each run asserts the ARG's node count.

use circ_core::{
    circ, reach_and_build, AbsCtx, Budget, CircConfig, CircOutcome, PredSet, Property,
};
use circ_ir::MtProgram;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Runs ReachAndBuild on `program` against `report`'s context; returns
/// the ARG's node count.
fn reach(abs: &AbsCtx, program: &MtProgram, report: &circ_core::SafeReport) -> usize {
    let arg = reach_and_build(
        abs,
        program,
        &report.acfa,
        report.k,
        circ_acfa::CVal::Fin(report.k),
        CircConfig::omega().max_states,
        Property::Race,
        &Budget::unlimited(),
    )
    .expect("the final context proves the ring safe");
    arg.num_locs()
}

fn bench_reach(c: &mut Criterion) {
    let mut g = c.benchmark_group("reach");
    for (n, arg_nodes) in [(5u32, 132usize), (7, 212)] {
        let program = circ_nesc::token_ring(n);
        let CircOutcome::Safe(report) = circ(&program, &CircConfig::omega()) else {
            panic!("ring{n} is safe");
        };
        let preds = PredSet::from_preds(program.cfa(), report.preds.iter().cloned());
        let fresh = || AbsCtx::new(program.cfa_arc(), preds.clone());
        assert_eq!(reach(&fresh(), &program, &report), arg_nodes, "ring{n} ARG nodes");
        g.bench_with_input(BenchmarkId::new("cold", format!("ring{n}")), &n, |b, _| {
            b.iter(|| assert_eq!(reach(&fresh(), &program, &report), arg_nodes));
        });
        let warm = fresh();
        g.bench_with_input(BenchmarkId::new("memo_warm", format!("ring{n}")), &n, |b, _| {
            b.iter(|| assert_eq!(reach(&warm, &program, &report), arg_nodes));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_reach);
criterion_main!(benches);
