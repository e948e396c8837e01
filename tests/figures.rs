//! The figure-regeneration pipeline (Figures 1–5) exercised as
//! assertions: the CIRC run on the paper's example produces every
//! artifact the `circ-bench` binaries print.

use circ_core::{circ, display_acfa, CircConfig, CircEvent, CircOutcome};
use circ_ir::{dot, figure1_cfa, MtProgram};

fn fig1_run() -> CircOutcome {
    let cfa = figure1_cfa();
    let x = cfa.var_by_name("x").unwrap();
    circ(&MtProgram::new(cfa, x), &CircConfig::default())
}

#[test]
fn figure1_artifacts() {
    // (a) the source is shipped, (b) the CFA renders, (c) the final
    // ACFA resembles the paper's: an atomic location that havocs the
    // flag, a writer location labeled with the flag's value.
    assert!(circ_nesc::TEST_AND_SET.contains("atomic"));
    let cfa = figure1_cfa();
    let txt = dot::cfa_to_text(&cfa);
    assert!(txt.contains("old := state"));
    let dot_src = dot::cfa_to_dot(&cfa);
    assert!(dot_src.contains("doublecircle"), "atomic marks rendered");

    let CircOutcome::Safe(report) = fig1_run() else { panic!("fig1 must verify") };
    let x = cfa.var_by_name("x").unwrap();
    let writers: Vec<_> = report.acfa.locs().filter(|q| report.acfa.writes_at(*q, x)).collect();
    assert_eq!(writers.len(), 1, "one abstract writer location, as in Fig 1(c)");
    assert!(
        report.acfa.locs().any(|q| report.acfa.is_atomic(q)),
        "the context model keeps an atomic location (Fig 1(c)'s starred node)"
    );
    // its label is the flag invariant: the writer's region is not `true`
    let writer_region = report.acfa.region(writers[0]);
    assert!(
        writer_region.cubes().iter().all(|c| !c.is_top()),
        "the writer location carries a state-flag label"
    );
}

#[test]
fn figures_2_3_4_iteration_log() {
    let outcome = fig1_run();
    let log = outcome.log();
    // Multiple refinement iterations, each with reach + collapse, as
    // in the paper's Figures 2–4 walk-through.
    let outers = log.events.iter().filter(|e| matches!(e, CircEvent::OuterStart { .. })).count();
    assert!(outers >= 2, "figure 1 needs at least two refinement rounds");
    let collapses = log.events.iter().filter(|e| matches!(e, CircEvent::Collapsed { .. })).count();
    assert!(collapses >= 2, "each inner round minimizes an ARG");
    // ARGs render with the discovered predicates in later rounds.
    let cfa = figure1_cfa();
    let mut round_preds: &[String] = &[];
    let mut last_reach = None;
    for e in &log.events {
        match e {
            CircEvent::OuterStart { preds, .. } => round_preds = preds,
            CircEvent::ReachDone { arg, .. } => {
                last_reach = Some(display_acfa(arg, round_preds, &cfa));
            }
            _ => {}
        }
    }
    let last_reach = last_reach.expect("at least one reach");
    assert!(last_reach.contains("state"), "late ARGs carry flag labels:\n{last_reach}");
}

#[test]
fn figure5_refinement_artifacts() {
    let outcome = fig1_run();
    // Some refinement round must expose: a concrete interleaving, a
    // trace formula, and mined predicates — the three columns of
    // Figure 5.
    let found = outcome.log().events.iter().any(|e| {
        matches!(e, CircEvent::Refined { detail, .. }
            if !detail.interleaving.is_empty()
                && !detail.trace_formula.is_empty()
                && !detail.mined_preds.is_empty())
    });
    assert!(found, "no refinement round produced the Figure 5 artifacts");
    assert!(outcome.is_safe());
}

#[test]
fn figure5_multithreaded_round_exists() {
    // The paper's Figure 5 trace interleaves two threads; our run
    // must also hit at least one multi-thread refinement.
    let outcome = fig1_run();
    let found = outcome.log().events.iter().any(|e| {
        matches!(e, CircEvent::Refined { detail, .. } if {
            let tags: std::collections::BTreeSet<usize> =
                detail.interleaving.iter().map(|(t, _)| *t).collect();
            tags.len() >= 2
        })
    });
    assert!(found, "expected an interleaving-sensitive refinement round");
}
