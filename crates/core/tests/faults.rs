//! Fault-injection soundness tests (`--features inject`).
//!
//! The injection schedules are deterministic (pure functions of their
//! seed), so every failing schedule replays exactly. The invariant
//! under test: injected faults — solver Unknowns, worker panics,
//! stalls — may only *degrade* a verdict to Unknown. A run that still
//! answers Safe or Unsafe under injection answered identically to the
//! clean run, and every run terminates.

#![cfg(feature = "inject")]

use circ_core::{circ, CircConfig, CircOutcome, FaultPlan, UnknownReason};
use circ_ir::{figure1_cfa, BoolExpr, CfaBuilder, Expr, MtProgram, Op};
use std::time::{Duration, Instant};

fn fig1_program() -> MtProgram {
    let cfa = figure1_cfa();
    let x = cfa.var_by_name("x").unwrap();
    MtProgram::new(cfa, x)
}

/// Figure 1 with the atomic marks removed: the test-and-set is racy.
fn broken_fig1() -> MtProgram {
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

/// Run with a deadline backstop so an injection schedule that sends
/// the loop in circles still terminates the test promptly.
fn cfg_with(faults: FaultPlan) -> CircConfig {
    CircConfig { faults, timeout: Some(Duration::from_secs(20)), ..CircConfig::default() }
}

#[test]
fn injected_solver_unknowns_never_flip_verdicts() {
    for seed in 0..6u64 {
        let faults = FaultPlan::seeded(seed).with_solver_unknown(100);
        let t = Instant::now();
        let outcome = circ(&fig1_program(), &cfg_with(faults));
        assert!(
            !outcome.is_unsafe(),
            "seed {seed}: solver Unknowns flipped a safe model to Unsafe: {outcome:?}"
        );
        assert!(t.elapsed() < Duration::from_secs(60), "seed {seed} did not terminate promptly");

        let faults = FaultPlan::seeded(seed).with_solver_unknown(100);
        let outcome = circ(&broken_fig1(), &cfg_with(faults));
        assert!(
            !outcome.is_safe(),
            "seed {seed}: solver Unknowns flipped a racy model to Safe: {outcome:?}"
        );
    }
}

#[test]
fn injection_is_deterministic_per_seed() {
    let run = || {
        let faults = FaultPlan::seeded(42).with_solver_unknown(250);
        match circ(&fig1_program(), &cfg_with(faults)) {
            CircOutcome::Safe(r) => format!("safe preds={}", r.preds.len()),
            CircOutcome::Unsafe(r) => format!("unsafe k={}", r.k),
            CircOutcome::Unknown(r) => format!("unknown {:?}", r.reason),
        }
    };
    assert_eq!(run(), run(), "same seed, same schedule, different outcome");
}

#[test]
fn injected_worker_panic_becomes_internal_error() {
    // Every task panics: the first expanded reach state blows up, and
    // the `circ` boundary converts the unwind into a reported verdict
    // instead of crossing into the caller.
    let faults = FaultPlan::seeded(7).with_task_panic(1000);
    let outcome = circ(&fig1_program(), &cfg_with(faults.clone()));
    let CircOutcome::Unknown(report) = outcome else {
        panic!("expected Unknown(InternalError), got {outcome:?}");
    };
    let UnknownReason::InternalError(msg) = &report.reason else {
        panic!("expected InternalError, got {:?}", report.reason);
    };
    assert!(msg.contains("injected task panic"), "unexpected panic message: {msg}");
    assert!(!report.reason.is_budget_exhausted());
    assert!(faults.injected() > 0, "no fault recorded as fired");
    assert!(report.stats.pipeline.faults_injected > 0, "stats missed the injection");
}

#[test]
fn one_poisoned_row_leaves_sibling_rows_intact() {
    // The acceptance shape of the bench harness, in miniature: a batch
    // of runs where one row's schedule is poisoned. The poisoned row
    // degrades to InternalError; the clean rows answer exactly as an
    // injection-free baseline.
    let rows: Vec<(&str, MtProgram)> =
        vec![("fig1", fig1_program()), ("broken", broken_fig1()), ("fig1-again", fig1_program())];
    let baseline: Vec<String> =
        rows.iter().map(|(_, p)| verdict(&circ(p, &cfg_with(FaultPlan::inert())))).collect();

    let mut poisoned_verdicts = Vec::new();
    for (i, (_, p)) in rows.iter().enumerate() {
        let faults =
            if i == 1 { FaultPlan::seeded(9).with_task_panic(1000) } else { FaultPlan::inert() };
        poisoned_verdicts.push(circ(p, &cfg_with(faults)));
    }

    assert!(
        matches!(
            &poisoned_verdicts[1],
            CircOutcome::Unknown(r) if matches!(r.reason, UnknownReason::InternalError(_))
        ),
        "poisoned row should degrade to InternalError: {:?}",
        poisoned_verdicts[1]
    );
    assert_eq!(verdict(&poisoned_verdicts[0]), baseline[0], "clean sibling row diverged");
    assert_eq!(verdict(&poisoned_verdicts[2]), baseline[2], "clean sibling row diverged");
}

#[test]
fn stall_between_polls_still_honors_the_deadline() {
    // A one-shot two-second stall with a one-second deadline: the run
    // cannot observe the deadline during the stall, but the very next
    // poll must trip it.
    let faults = FaultPlan::seeded(3).with_stall(Duration::from_secs(2));
    let cfg = CircConfig { faults, timeout: Some(Duration::from_secs(1)), ..CircConfig::default() };
    let t = Instant::now();
    let outcome = circ(&fig1_program(), &cfg);
    let elapsed = t.elapsed();
    let CircOutcome::Unknown(report) = outcome else {
        panic!("expected Unknown(Deadline), got {outcome:?}");
    };
    assert!(
        matches!(report.reason, UnknownReason::Deadline(_)),
        "expected Deadline, got {:?}",
        report.reason
    );
    assert!(elapsed >= Duration::from_secs(2), "stall did not happen: {elapsed:?}");
    assert!(elapsed < Duration::from_secs(10), "deadline ignored after the stall: {elapsed:?}");
}

fn verdict(outcome: &CircOutcome) -> String {
    match outcome {
        CircOutcome::Safe(r) => format!("safe preds={} k={}", r.preds.len(), r.k),
        CircOutcome::Unsafe(r) => format!("unsafe k={} threads={}", r.k, r.cex.n_threads),
        CircOutcome::Unknown(r) => format!("unknown {:?}", r.reason),
    }
}
