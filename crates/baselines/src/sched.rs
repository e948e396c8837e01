//! Random scheduling of concrete executions, the substrate of the
//! dynamic baseline.

use circ_ir::{ConcreteState, EdgeId, Interp, MtProgram, SchedChoice, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One executed schedule plus which visited states exhibited a race.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The executed schedule.
    pub steps: Vec<(ThreadId, EdgeId, i64)>,
    /// States where the §4.1 race condition held. Position `p` is the
    /// state after `p` executed steps: `0` is the initial state and
    /// `steps.len()` the final one — every visited state is checked
    /// exactly once, including the state after the last step.
    pub race_positions: Vec<usize>,
    /// The final state.
    pub final_state: ConcreteState,
    /// Set when the program is malformed for concrete execution
    /// (e.g. `nondet()` in an assume guard): no steps were taken and
    /// this message says why.
    pub diagnostic: Option<String>,
}

/// Executes up to `max_steps` random steps of an `n_threads`
/// instantiation, resolving `nondet()` with small random integers.
/// Records every visited race state (the dynamic tools' ground
/// truth).
pub fn random_run(program: &MtProgram, n_threads: usize, max_steps: usize, seed: u64) -> RunRecord {
    schedule(program, n_threads, max_steps, seed, false)
}

/// [`random_run`] stopped at its first race state. `race_positions`
/// then holds exactly one position, `steps.len()`: `steps` is the
/// prefix that reaches the race, the same prefix [`random_run`]
/// executes with the same seed.
pub fn random_run_to_race(
    program: &MtProgram,
    n_threads: usize,
    max_steps: usize,
    seed: u64,
) -> RunRecord {
    schedule(program, n_threads, max_steps, seed, true)
}

fn schedule(
    program: &MtProgram,
    n_threads: usize,
    max_steps: usize,
    seed: u64,
    stop_at_race: bool,
) -> RunRecord {
    let interp = Interp::new(program.clone(), n_threads);
    if let Some(diag) = interp.malformed() {
        return RunRecord {
            steps: Vec::new(),
            race_positions: Vec::new(),
            final_state: interp.initial(),
            diagnostic: Some(diag),
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = interp.initial();
    let mut steps = Vec::new();
    let mut race_positions = Vec::new();
    let mut enabled = Vec::new();
    loop {
        // Check before deciding whether to stop, so the state reached
        // by the final step (budget exhausted or deadlock) is covered
        // too — a race first reachable there must not be dropped.
        if interp.race(&s).is_some() {
            race_positions.push(steps.len());
            if stop_at_race {
                break;
            }
        }
        if steps.len() >= max_steps {
            break;
        }
        interp.enabled_into(&s, &mut enabled);
        if enabled.is_empty() {
            break;
        }
        let (t, e) = enabled[rng.gen_range(0..enabled.len())];
        let nondet = rng.gen_range(-2i64..=2);
        steps.push((t, e, nondet));
        interp.step_in_place(&mut s, SchedChoice { thread: t, edge: e, nondet });
    }
    RunRecord { steps, race_positions, final_state: s, diagnostic: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circ_ir::figure1_cfa;

    #[test]
    fn runs_are_reproducible_by_seed() {
        let cfa = figure1_cfa();
        let x = cfa.var_by_name("x").unwrap();
        let p = MtProgram::new(cfa, x);
        let a = random_run(&p, 3, 200, 42);
        let b = random_run(&p, 3, 200, 42);
        assert_eq!(a.steps, b.steps);
        let c = random_run(&p, 3, 200, 43);
        // different seed: almost surely a different schedule
        assert_ne!(a.steps, c.steps);
    }

    #[test]
    fn malformed_program_yields_diagnostic_not_panic() {
        use circ_ir::{BoolExpr, CfaBuilder, Expr, Op};
        let mut b = CfaBuilder::new("bad");
        let x = b.global("x");
        let l1 = b.fresh_loc();
        b.edge(b.entry(), Op::assume(BoolExpr::eq(Expr::Nondet, Expr::var(x))), l1);
        let cfa = b.build();
        let x = cfa.var_by_name("x").unwrap();
        let p = MtProgram::new(cfa, x);
        let run = random_run(&p, 2, 100, 0);
        assert!(run.steps.is_empty());
        let diag = run.diagnostic.expect("malformed program must be diagnosed");
        assert!(diag.contains("nondet() in assume guard"), "{diag}");
    }

    #[test]
    fn race_in_final_state_is_reported() {
        use circ_ir::{CfaBuilder, Expr, Op};
        // g is written only from l1; with max_steps = 2 the one racy
        // state (both threads at l1, writes pending) is the state
        // *after* the last executed step. A loop that only tests
        // pre-step states silently drops it.
        let mut b = CfaBuilder::new("tail");
        let g = b.global("g");
        let l1 = b.fresh_loc();
        let l2 = b.fresh_loc();
        b.edge(b.entry(), Op::skip(), l1);
        b.edge(l1, Op::assign(g, Expr::int(1)), l2);
        let cfa = b.build();
        let g = cfa.var_by_name("g").unwrap();
        let p = MtProgram::new(cfa, g);
        let hit = (0..64).any(|seed| {
            let run = random_run(&p, 2, 2, seed);
            run.steps.len() == 2 && run.race_positions == vec![2]
        });
        assert!(hit, "some 2-step schedule must end in the race state and report it");
    }

    #[test]
    fn figure1_runs_never_hit_race_states() {
        let cfa = figure1_cfa();
        let x = cfa.var_by_name("x").unwrap();
        let p = MtProgram::new(cfa, x);
        for seed in 0..20 {
            let run = random_run(&p, 3, 500, seed);
            assert!(run.race_positions.is_empty(), "seed {seed} hit a race");
        }
    }
}
