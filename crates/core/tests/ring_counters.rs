//! Pins ω-CIRC's per-check work counters on token rings. A change to
//! how ReachAndBuild, CheckSim or Collapse store and hash their states
//! must leave the ARG, the quotient and the questions asked of the
//! abstraction and the solver exactly as they were; only wall time may
//! move. Each row is one cold check with a private cache.

use circ_core::{circ, CircConfig, CircOutcome};
use circ_ir::MtProgram;

/// `(arg_nodes, abs.queries, solver.queries, solver.cache_misses,
/// solver.theory_rounds, sim_edge_pairs, collapse_iterations,
/// outer_rounds)`. The two solver work counters fail a change that
/// asks the solver different questions, or answers them with a
/// different number of theory checks, even when the query count holds.
type Counters = (u64, u64, u64, u64, u64, u64, u64, u64);

/// The `n`-phase token ring, with phase `racy`'s grab taken outside
/// its `atomic` block when given.
fn ring(n: u32, racy: Option<u32>) -> MtProgram {
    let safe = circ_nesc::token_ring_source(n);
    let text = match racy {
        None => safe,
        Some(phase) => {
            let take =
                format!("if (mode == {}) {{ mode = {}; got = 1; }}", 2 * phase, 2 * phase + 1);
            let racy = safe.replacen(&format!("atomic {{ {take} }}"), &take, 1);
            assert_ne!(racy, safe, "ring {n} has a guarded grab in phase {phase}");
            racy
        }
    };
    let compiled = circ_frontend::compile(&text).expect("ring compiles");
    MtProgram::new(compiled.cfa, compiled.race_vars[0])
}

fn counters(outcome: &CircOutcome) -> Counters {
    let p = &outcome.stats().pipeline;
    (
        p.arg_nodes,
        p.abs.queries,
        p.solver.queries,
        p.solver.cache_misses,
        p.solver.theory_rounds,
        p.sim_edge_pairs,
        p.collapse_iterations,
        p.outer_rounds,
    )
}

#[test]
fn omega_ring_counters_are_pinned() {
    let rows: [(&str, u32, Option<u32>, bool, Counters); 4] = [
        ("ring3", 3, None, true, (543, 702, 46, 16, 16, 5331, 17, 5)),
        ("ring4", 4, None, true, (899, 1231, 77, 25, 25, 9634, 20, 6)),
        ("ring5", 5, None, true, (1375, 1970, 116, 36, 36, 15606, 23, 7)),
        ("ring3_racy0", 3, Some(0), false, (104, 91, 0, 0, 0, 246, 5, 2)),
    ];
    for (name, n, racy, safe, want) in rows {
        let outcome = circ(&ring(n, racy), &CircConfig::omega());
        let verdict_ok = match outcome {
            CircOutcome::Safe(_) => safe,
            CircOutcome::Unsafe(_) => !safe,
            CircOutcome::Unknown(_) => false,
        };
        assert!(verdict_ok, "{name}: unexpected verdict");
        assert_eq!(counters(&outcome), want, "{name}: counters moved");
    }
}
