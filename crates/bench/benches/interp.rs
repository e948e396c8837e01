//! The concrete interpreter's hot loops: triage over the corpus
//! `corpus-warm` checks (every `circ_nesc` model plus safe token rings
//! n = 1..3), where the flow-flagged programs spend nearly all their
//! time in stage 1's random schedules, and the exhaustive bounded
//! exploration the cross-validation tests use as ground truth.

use circ_ir::{figure1_cfa, Interp, MtProgram};
use circ_triage::{triage, TriageConfig, TriageDecision};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_triage(c: &mut Criterion) {
    let mut programs: Vec<(String, MtProgram)> =
        circ_nesc::models().iter().map(|m| (m.name.to_string(), m.program())).collect();
    programs.extend((1..=3).map(|n| (format!("ring{n}"), circ_nesc::token_ring(n))));
    let cfg = TriageConfig::default();
    let mut g = c.benchmark_group("triage");
    g.sample_size(20);
    for (name, p) in &programs {
        // Each case asserts the stage a model's expected verdict
        // allows: a safe model must never get a race witness.
        let expected_safe = circ_nesc::model(name).is_none_or(|m| m.expected_safe);
        let stage = triage(p, &cfg).stage_name();
        g.bench_with_input(BenchmarkId::new(stage, name), p, |b, p| {
            b.iter(|| {
                let d = triage(p, &cfg);
                assert!(!(expected_safe && matches!(d, TriageDecision::Stage1Race(_))));
                d
            });
        });
    }
    g.finish();
}

fn bench_explore(c: &mut Criterion) {
    let cfa = figure1_cfa();
    let x = cfa.var_by_name("x").expect("figure 1 declares x");
    let interp = Interp::new(MtProgram::new(cfa, x), 3);
    let mut g = c.benchmark_group("explore_bounded");
    g.sample_size(5);
    g.bench_function("figure1/3", |b| {
        b.iter(|| assert!(interp.explore_bounded(200_000, &[]).is_none()));
    });
    g.finish();
}

criterion_group!(benches, bench_triage, bench_explore);
criterion_main!(benches);
