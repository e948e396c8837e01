//! Tiered triage for the CIRC race checker.
//!
//! Full context inference is expensive precisely where cheap analyses
//! are wrong — and cheap exactly where they are right. This crate
//! stages the check accordingly:
//!
//! * **Stage 0 (flow):** run the sound-for-safety static flow check.
//!   If the race variable draws *zero* findings, every access to it is
//!   protected by atomicity (or it is never written), so the §4.1 race
//!   condition can never hold in any reachable state of any
//!   instantiation — the variable is certified **Safe** without
//!   touching the abstraction engine.
//! * **Stage 1 (sched):** run a small, fixed budget of seeded random
//!   schedules. If one visits a state satisfying the race condition,
//!   the executed prefix is a concrete, replayable **witness**: the
//!   variable is certified **Unsafe**. The witness is re-validated by
//!   deterministic replay before the decision is returned.
//! * **Stage 2 (circ):** everything else — flow findings but no cheap
//!   witness, or a program the interpreter cannot execute — falls
//!   through to the full CIRC engine.
//!
//! Both cheap stages are *decision* procedures only in one direction:
//! stage 0 can only say Safe, stage 1 can only say Unsafe. Neither can
//! be wrong in the direction it decides (see `DESIGN.md`), so a triaged
//! corpus produces the same verdicts as a full run, minus the CIRC
//! invocations the cheap stages absorbed.
//!
//! Everything here is a pure function of the program and the
//! [`TriageConfig`]: the schedule seeds are fixed, so the decision —
//! including the witness — is deterministic and jobs-invariant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use circ_baselines::{flow_check, random_run_to_race};
use circ_ir::{EdgeId, Interp, MtProgram, RaceWitness, SchedChoice, ThreadId};

/// Budget of the cheap stages. The defaults are deliberately small:
/// stage 1 exists to catch shallow races (the common case in racy
/// corpora), not to compete with CIRC on depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriageConfig {
    /// Thread counts to instantiate for stage-1 schedules, tried in
    /// order.
    pub thread_counts: Vec<usize>,
    /// Random schedules per thread count.
    pub runs_per_count: u64,
    /// Step budget per schedule.
    pub max_steps: usize,
    /// Base RNG seed; schedule `i` of thread count `n` uses
    /// `seed_base + n * runs_per_count + i`, so every schedule is
    /// reproducible from the config alone.
    pub seed_base: u64,
}

impl Default for TriageConfig {
    fn default() -> TriageConfig {
        TriageConfig { thread_counts: vec![2, 3], runs_per_count: 8, max_steps: 400, seed_base: 11 }
    }
}

/// A concrete race trace found by stage 1: the schedule prefix that
/// drives a fresh instantiation into a state satisfying the §4.1 race
/// condition. Replayable via [`replay_witness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriageWitness {
    /// Threads in the instantiation that raced.
    pub n_threads: usize,
    /// The RNG seed that produced the schedule (for provenance; the
    /// steps alone suffice to replay).
    pub seed: u64,
    /// The executed schedule up to (not including) the race state:
    /// replaying exactly these choices from the initial state reaches
    /// it.
    pub steps: Vec<(ThreadId, EdgeId, i64)>,
}

/// The outcome of [`triage`] for one race variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriageDecision {
    /// Stage 0: the flow check drew zero findings for the race
    /// variable — certified Safe, no CIRC run needed.
    Stage0Safe,
    /// Stage 1: a bounded random schedule produced a replay-validated
    /// race witness — certified Unsafe, no CIRC run needed.
    Stage1Race(TriageWitness),
    /// Neither cheap stage could decide; the full engine must run.
    Fallthrough,
}

impl TriageDecision {
    /// Stable short name of the stage that decided (or will decide)
    /// the variable: `flow`, `sched`, or `circ`. Used in batch-report
    /// stage attribution.
    pub fn stage_name(&self) -> &'static str {
        match self {
            TriageDecision::Stage0Safe => "flow",
            TriageDecision::Stage1Race(_) => "sched",
            TriageDecision::Fallthrough => "circ",
        }
    }
}

/// Runs the staged pipeline for `program`'s race variable.
///
/// A program the interpreter diagnoses as malformed (`nondet()` in an
/// assume guard) skips stage 1 and falls through: the cheap stages
/// must never decide a program they cannot faithfully execute. A
/// stage-1 candidate whose replay fails validation (impossible for
/// `random_run` output, but checked anyway) also falls through rather
/// than risking an unsound Unsafe.
pub fn triage(program: &MtProgram, cfg: &TriageConfig) -> TriageDecision {
    // Stage 0: sound-for-safety static filter.
    if !flow_check(program.cfa()).flags(program.race_var()) {
        return TriageDecision::Stage0Safe;
    }
    // Stage 1: bounded witness search.
    for &n in &cfg.thread_counts {
        if n == 0 {
            continue;
        }
        for i in 0..cfg.runs_per_count {
            let seed = cfg.seed_base + n as u64 * cfg.runs_per_count + i;
            // The schedule stops at its first race state, so its steps
            // are the witness prefix.
            let run = random_run_to_race(program, n, cfg.max_steps, seed);
            if run.diagnostic.is_some() {
                // Unexecutable program: nothing stage 1 says is
                // trustworthy. Let the full engine diagnose it.
                return TriageDecision::Fallthrough;
            }
            if !run.race_positions.is_empty() {
                let witness = TriageWitness { n_threads: n, seed, steps: run.steps };
                if replay_witness(program, &witness).is_ok() {
                    return TriageDecision::Stage1Race(witness);
                }
                return TriageDecision::Fallthrough;
            }
        }
    }
    TriageDecision::Fallthrough
}

/// Replays a stage-1 witness from the initial state and returns the
/// race the final state exhibits. `Err` means the witness does not
/// actually demonstrate a race (a step was not enabled, or the final
/// state is race-free) — callers treat that as "no witness".
pub fn replay_witness(program: &MtProgram, w: &TriageWitness) -> Result<RaceWitness, String> {
    let interp = Interp::new(program.clone(), w.n_threads);
    if let Some(diag) = interp.malformed() {
        return Err(format!("program is malformed: {diag}"));
    }
    let mut s = interp.initial();
    let mut enabled = Vec::new();
    for (ix, &(t, e, nondet)) in w.steps.iter().enumerate() {
        interp.enabled_into(&s, &mut enabled);
        if !enabled.contains(&(t, e)) {
            return Err(format!("step {ix}: ({t}, edge {e:?}) is not enabled"));
        }
        interp.step_in_place(&mut s, SchedChoice { thread: t, edge: e, nondet });
    }
    interp.race(&s).ok_or_else(|| "final state exhibits no race".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use circ_ir::{figure1_cfa, CfaBuilder, Expr, Op};

    /// Unprotected shared counter: racy at 2 threads within a few
    /// steps. The leading skip keeps the *initial* state race-free,
    /// so a genuine witness needs a non-empty schedule.
    fn unprotected() -> MtProgram {
        let mut b = CfaBuilder::new("unprotected");
        let g = b.global("g");
        let l1 = b.fresh_loc();
        let l2 = b.fresh_loc();
        b.edge(b.entry(), Op::skip(), l1);
        b.edge(l1, Op::assign(g, Expr::var(g) + Expr::int(1)), l2);
        b.edge(l2, Op::skip(), l1);
        let cfa = b.build();
        let g = cfa.var_by_name("g").unwrap();
        MtProgram::new(cfa, g)
    }

    /// Counter incremented only inside an atomic section: stage-0
    /// Safe.
    fn atomic_counter() -> MtProgram {
        let mut b = CfaBuilder::new("atomic");
        let g = b.global("g");
        let l1 = b.fresh_loc();
        let l2 = b.fresh_loc();
        b.edge(b.entry(), Op::skip(), l1);
        b.mark_atomic(l1);
        b.edge(l1, Op::assign(g, Expr::var(g) + Expr::int(1)), l2);
        b.mark_atomic(l2);
        b.edge(l2, Op::skip(), b.entry());
        let cfa = b.build();
        let g = cfa.var_by_name("g").unwrap();
        MtProgram::new(cfa, g)
    }

    #[test]
    fn atomic_counter_decided_at_stage0() {
        let d = triage(&atomic_counter(), &TriageConfig::default());
        assert_eq!(d, TriageDecision::Stage0Safe);
        assert_eq!(d.stage_name(), "flow");
    }

    #[test]
    fn unprotected_counter_decided_at_stage1_with_replayable_witness() {
        let p = unprotected();
        let d = triage(&p, &TriageConfig::default());
        let TriageDecision::Stage1Race(w) = &d else {
            panic!("expected a stage-1 witness, got {d:?}");
        };
        assert_eq!(d.stage_name(), "sched");
        let race = replay_witness(&p, w).expect("witness must replay");
        assert_eq!(race.var, p.race_var());
        assert!(!w.steps.is_empty(), "the initial state is race-free");
    }

    #[test]
    fn figure1_falls_through() {
        // The safe test-and-set idiom: flow false-positives on x, and
        // no schedule can find a race in a race-free program — exactly
        // the case CIRC exists for.
        let cfa = figure1_cfa();
        let x = cfa.var_by_name("x").unwrap();
        let p = MtProgram::new(cfa, x);
        let d = triage(&p, &TriageConfig::default());
        assert_eq!(d, TriageDecision::Fallthrough);
        assert_eq!(d.stage_name(), "circ");
    }

    #[test]
    fn malformed_program_falls_through() {
        use circ_ir::BoolExpr;
        // nondet() in an assume guard, with a non-atomic write so
        // stage 0 does not certify it: stage 1 must refuse to judge an
        // unexecutable program.
        let mut b = CfaBuilder::new("bad");
        let x = b.global("x");
        let l1 = b.fresh_loc();
        let l2 = b.fresh_loc();
        b.edge(b.entry(), Op::assume(BoolExpr::eq(Expr::Nondet, Expr::var(x))), l1);
        b.edge(b.entry(), Op::assign(x, Expr::int(1)), l2);
        let cfa = b.build();
        let x = cfa.var_by_name("x").unwrap();
        let p = MtProgram::new(cfa, x);
        assert_eq!(triage(&p, &TriageConfig::default()), TriageDecision::Fallthrough);
    }

    #[test]
    fn triage_is_deterministic() {
        let p = unprotected();
        let cfg = TriageConfig::default();
        assert_eq!(triage(&p, &cfg), triage(&p, &cfg));
    }

    #[test]
    fn tampered_witness_fails_replay() {
        let p = unprotected();
        let TriageDecision::Stage1Race(w) = triage(&p, &TriageConfig::default()) else {
            panic!("expected a witness");
        };
        // Truncating the schedule loses the race state.
        let mut short = w.clone();
        short.steps.clear();
        assert!(replay_witness(&p, &short).is_err());
        // Claiming a different thread count invalidates the steps.
        let mut wrong = w;
        wrong.n_threads = 1;
        assert!(replay_witness(&p, &wrong).is_err());
    }

    #[test]
    fn frontend_corpus_examples_triage_as_expected() {
        // End-to-end through the compiler: the atomic-counter idiom is
        // stage-0 Safe, the unprotected write is a stage-1 race.
        let safe = "\
global int c;\n#race c;\nthread worker {\n  loop { atomic { c = c + 1; } }\n}\n";
        let racy = "\
global int c;\n#race c;\nthread worker {\n  loop { c = c + 1; }\n}\n";
        let cfg = TriageConfig::default();
        let compiled = circ_frontend::compile(safe).expect("safe example compiles");
        let p = MtProgram::new(compiled.cfa.clone(), compiled.race_vars[0]);
        assert_eq!(triage(&p, &cfg), TriageDecision::Stage0Safe);
        let compiled = circ_frontend::compile(racy).expect("racy example compiles");
        let p = MtProgram::new(compiled.cfa.clone(), compiled.race_vars[0]);
        assert!(matches!(triage(&p, &cfg), TriageDecision::Stage1Race(_)));
    }
}
