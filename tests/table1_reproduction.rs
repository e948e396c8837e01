//! Workspace-level reproduction test for **Table 1**: every benchmark
//! idiom gets the verdict the paper reports, in both CIRC modes, with
//! the paper's qualitative shape (counter parameter 1, small
//! predicate sets, compact ACFAs).

use circ_core::{circ, circ_with_cache, AbsCache, CircConfig, CircOutcome};

#[test]
fn every_table1_row_verifies_in_omega_mode() {
    for m in circ_nesc::models().iter().filter(|m| m.expected_safe) {
        let program = m.program();
        let outcome = circ(&program, &CircConfig::omega());
        let CircOutcome::Safe(report) = outcome else {
            panic!("{}: expected Safe, got {outcome:?}", m.name);
        };
        // Table 1: "The counter parameter was always 1."
        assert_eq!(report.k, 1, "{}: k must stay 1", m.name);
        // Predicate counts stay small (paper: 0–11).
        assert!(
            report.preds.len() <= 12,
            "{}: too many predicates ({})",
            m.name,
            report.preds.len()
        );
        // The context model is smaller than the thread's CFA.
        assert!(
            report.acfa.num_locs() <= program.cfa().num_locs(),
            "{}: ACFA ({}) should not exceed the CFA ({})",
            m.name,
            report.acfa.num_locs(),
            program.cfa().num_locs()
        );
        // Trivially safe rows need no predicates at all (paper's
        // gTxProto and gRxTailIndex).
        if m.paper_rows.iter().any(|r| r.preds == 0) {
            assert!(report.preds.is_empty(), "{}: expected a trivial proof", m.name);
        }
    }
}

#[test]
fn every_table1_row_verifies_in_plain_mode() {
    for m in circ_nesc::models().iter().filter(|m| m.expected_safe) {
        let program = m.program();
        let outcome = circ(&program, &CircConfig::default());
        assert!(outcome.is_safe(), "{}: expected Safe, got {outcome:?}", m.name);
    }
}

#[test]
fn buggy_variants_produce_replayable_races() {
    for m in circ_nesc::models().iter().filter(|m| !m.expected_safe) {
        for cfg in [CircConfig::default(), CircConfig::omega()] {
            let program = m.program();
            let outcome = circ(&program, &cfg);
            let CircOutcome::Unsafe(report) = outcome else {
                panic!("{}: expected Unsafe, got {outcome:?}", m.name);
            };
            assert!(report.cex.replay_ok, "{}: schedule must replay concretely", m.name);
            assert!(report.cex.n_threads >= 2, "{}: a race needs two threads", m.name);
        }
    }
}

/// The verdict-relevant content of an outcome: everything except
/// statistics and timings, which legitimately differ between cached
/// and uncached runs.
fn essence(outcome: &CircOutcome) -> String {
    match outcome {
        CircOutcome::Safe(r) => format!("Safe preds={:?} k={} acfa={:?}", r.preds, r.k, r.acfa),
        CircOutcome::Unsafe(r) => format!("Unsafe cex={:?} k={}", r.cex, r.k),
        CircOutcome::Unknown(r) => format!("Unknown reason={:?}", r.reason),
    }
}

/// The `table1` run, cached and uncached: every paper row and then
/// every buggy variant, in ω mode, all against one shared entailment
/// cache that grows across rows. Each outcome must equal an uncached
/// run's, so a memoized answer never changes a verdict, predicate
/// set, ACFA or counterexample.
#[test]
fn shared_cache_outcomes_equal_uncached_for_every_model() {
    let models = circ_nesc::models();
    let paper_rows = models.iter().flat_map(|m| m.paper_rows.iter().map(move |_| m));
    let buggy = models.iter().filter(|m| !m.expected_safe);
    let cache = AbsCache::new();
    for m in paper_rows.chain(buggy) {
        let program = m.program();
        let cached = circ_with_cache(&program, &CircConfig::omega(), &cache);
        let uncached = circ(&program, &CircConfig { use_cache: false, ..CircConfig::omega() });
        assert_eq!(essence(&cached), essence(&uncached), "{}: cached and uncached differ", m.name);
    }
    assert!(cache.counters().cache_hits > 0, "the shared cache was never reused");
}

#[test]
fn omega_mode_is_not_slower_by_more_than_10x() {
    // The paper says ∞-CIRC is "considerably faster" than CIRC; at
    // our scale both are fast, so just guard against the optimization
    // being pathologically wrong.
    use std::time::Instant;
    for name in ["test_and_set", "conditional_lock"] {
        let m = circ_nesc::model(name).unwrap();
        let program = m.program();
        let t0 = Instant::now();
        assert!(circ(&program, &CircConfig::default()).is_safe());
        let plain = t0.elapsed();
        let t1 = Instant::now();
        assert!(circ(&program, &CircConfig::omega()).is_safe());
        let omega = t1.elapsed();
        assert!(omega <= plain * 10, "{name}: omega-CIRC took {omega:?} vs plain {plain:?}");
    }
}

#[test]
fn safe_reports_expose_the_inferred_context() {
    let m = circ_nesc::model("test_and_set").unwrap();
    let program = m.program();
    let CircOutcome::Safe(report) = circ(&program, &CircConfig::omega()) else {
        panic!("expected Safe");
    };
    // The inferred ACFA must actually write the race variable
    // somewhere (a context that cannot touch `x` would prove nothing
    // interesting) and must carry a state-flag label.
    let x = program.race_var();
    assert!(
        report.acfa.locs().any(|q| report.acfa.writes_at(q, x)),
        "context model must model writers of x"
    );
    let state = program.cfa().var_by_name("state").unwrap();
    assert!(
        report.preds.iter().any(|p| p.vars().contains(&state)),
        "discovered predicates must track the guard flag: {:?}",
        report.preds
    );
}
