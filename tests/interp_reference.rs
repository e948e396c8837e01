//! Pins the allocation-free concrete interpreter to the allocating
//! one it replaced.
//!
//! The schedule loop behind `random_run`, the Eraser baseline and
//! triage stage 1 now steps one state in place, refills one enabled
//! buffer, and reads each location's access sets from the CFA instead
//! of rebuilding them. Each of these must be invisible: the tests
//! below keep a copy of the original loop — cloning step, fresh
//! enabled vector, race check over access sets recomputed from the
//! edges — and require identical runs, identical triage decisions
//! and witnesses, and identical per-location access sets on every
//! program the repository ships plus racy token rings.

use circ_baselines::{flow_check, random_run, RunRecord};
use circ_ir::{
    ConcreteState, EdgeId, Interp, Loc, MtProgram, Op, RaceWitness, SchedChoice, ThreadId, Var,
};
use circ_triage::{replay_witness, triage, TriageConfig, TriageDecision, TriageWitness};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Every program the tests run: each `circ_nesc` model, each race
/// variable of each `examples/*.nesl` file, and token rings n = 3..5
/// made racy in their first and last phase.
fn corpus() -> Vec<(String, MtProgram)> {
    let mut out: Vec<(String, MtProgram)> =
        circ_nesc::models().iter().map(|m| (m.name.to_string(), m.program())).collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .map(|e| e.expect("examples entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "nesl"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no examples/*.nesl found");
    for path in files {
        let src = std::fs::read_to_string(&path).expect("read example");
        let compiled = circ_frontend::compile(&src).expect("example compiles");
        for &var in &compiled.race_vars {
            let name = format!("{}:{}", path.display(), compiled.cfa.var_name(var));
            out.push((name, MtProgram::new(compiled.cfa.clone(), var)));
        }
    }
    for n in 3..=5u32 {
        for phase in [0, n - 1] {
            let safe = circ_nesc::token_ring_source(n);
            let take =
                format!("if (mode == {}) {{ mode = {}; got = 1; }}", 2 * phase, 2 * phase + 1);
            let racy = safe.replacen(&format!("atomic {{ {take} }}"), &take, 1);
            assert_ne!(racy, safe, "ring {n} has a guarded grab in phase {phase}");
            let compiled = circ_frontend::compile(&racy).expect("racy ring compiles");
            let program = MtProgram::new(compiled.cfa, compiled.race_vars[0]);
            out.push((format!("ring{n}-racy{phase}"), program));
        }
    }
    out
}

/// Variables written by an out-edge of `l`, recomputed from the edges.
fn writes_from_edges(p: &MtProgram, l: Loc) -> BTreeSet<Var> {
    let cfa = p.cfa();
    cfa.out_edges(l).iter().filter_map(|e| cfa.edge(*e).op.written()).collect()
}

/// Variables read by an out-edge of `l`, recomputed from the edges.
fn reads_from_edges(p: &MtProgram, l: Loc) -> BTreeSet<Var> {
    let cfa = p.cfa();
    cfa.out_edges(l).iter().flat_map(|e| cfa.edge(*e).op.reads()).collect()
}

/// The §4.1 race check as it was written before the CFA cached its
/// access sets: fresh sets per thread pair.
fn reference_race(p: &MtProgram, s: &ConcreteState) -> Option<RaceWitness> {
    let cfa = p.cfa();
    let x = p.race_var();
    let ts: Vec<ThreadId> = (0..s.num_threads() as u32).map(ThreadId).collect();
    if ts.iter().any(|t| cfa.atomic_locs().contains(&s.pc(*t))) {
        return None;
    }
    for &w in &ts {
        if !writes_from_edges(p, s.pc(w)).contains(&x) {
            continue;
        }
        for &o in &ts {
            if o == w {
                continue;
            }
            let writes = writes_from_edges(p, s.pc(o)).contains(&x);
            let reads = reads_from_edges(p, s.pc(o)).contains(&x);
            if writes || reads {
                return Some(RaceWitness { var: x, writer: w, other: o, other_writes: writes });
            }
        }
    }
    None
}

/// `Interp::enabled` as it was written before it filled a reused
/// buffer: the schedulable threads collected into a vector first.
fn reference_enabled(p: &MtProgram, s: &ConcreteState) -> Vec<(ThreadId, EdgeId)> {
    let cfa = p.cfa();
    let all: Vec<ThreadId> = (0..s.num_threads() as u32).map(ThreadId).collect();
    let atomic: Vec<ThreadId> =
        all.iter().copied().filter(|t| cfa.atomic_locs().contains(&s.pc(*t))).collect();
    let schedulable = match atomic.len() {
        0 => all,
        1 => atomic,
        _ => Vec::new(),
    };
    let mut out = Vec::new();
    for t in schedulable {
        for &e in cfa.out_edges(s.pc(t)) {
            let ok = match &cfa.edge(e).op {
                Op::Assume(g) => g.eval(&|v| s.read(cfa, t, v)).unwrap_or(false),
                Op::Assign(_, _) => true,
            };
            if ok {
                out.push((t, e));
            }
        }
    }
    out
}

/// The schedule loop as it was before it stepped in place: a fresh
/// enabled vector and a cloned successor state on every step.
fn reference_random_run(p: &MtProgram, n_threads: usize, max_steps: usize, seed: u64) -> RunRecord {
    let interp = Interp::new(p.clone(), n_threads);
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
    loop {
        if reference_race(p, &s).is_some() {
            race_positions.push(steps.len());
        }
        if steps.len() >= max_steps {
            break;
        }
        let enabled = reference_enabled(p, &s);
        assert_eq!(interp.enabled(&s), enabled, "Interp::enabled");
        if enabled.is_empty() {
            break;
        }
        let (t, e) = enabled[rng.gen_range(0..enabled.len())];
        let nondet = rng.gen_range(-2i64..=2);
        steps.push((t, e, nondet));
        s = interp.step(&s, SchedChoice { thread: t, edge: e, nondet });
    }
    RunRecord { steps, race_positions, final_state: s, diagnostic: None }
}

/// Triage with stage 1 built on [`reference_random_run`]: the first
/// race position of a full-length run cuts the witness.
fn reference_triage(p: &MtProgram, cfg: &TriageConfig) -> TriageDecision {
    if !flow_check(p.cfa()).flags(p.race_var()) {
        return TriageDecision::Stage0Safe;
    }
    for &n in &cfg.thread_counts {
        if n == 0 {
            continue;
        }
        for i in 0..cfg.runs_per_count {
            let seed = cfg.seed_base + n as u64 * cfg.runs_per_count + i;
            let run = reference_random_run(p, n, cfg.max_steps, seed);
            if run.diagnostic.is_some() {
                return TriageDecision::Fallthrough;
            }
            if let Some(&pos) = run.race_positions.first() {
                let witness =
                    TriageWitness { n_threads: n, seed, steps: run.steps[..pos].to_vec() };
                if replay_witness(p, &witness).is_ok() {
                    return TriageDecision::Stage1Race(witness);
                }
                return TriageDecision::Fallthrough;
            }
        }
    }
    TriageDecision::Fallthrough
}

#[test]
fn cached_access_sets_equal_a_per_edge_recomputation() {
    for (name, p) in corpus() {
        let cfa = p.cfa();
        for l in cfa.locs() {
            assert_eq!(*cfa.writes_at(l), writes_from_edges(&p, l), "{name}: writes at {l}");
            assert_eq!(*cfa.reads_at(l), reads_from_edges(&p, l), "{name}: reads at {l}");
            assert_eq!(cfa.is_atomic(l), cfa.atomic_locs().contains(&l), "{name}: atomic {l}");
        }
    }
}

#[test]
fn in_place_runs_equal_the_cloning_reference() {
    let mut racy_runs = 0;
    for (name, p) in corpus() {
        for n in [2, 3] {
            for seed in 0..16 {
                let got = random_run(&p, n, 400, seed);
                let want = reference_random_run(&p, n, 400, seed);
                let at = format!("{name}, {n} threads, seed {seed}");
                assert_eq!(got.steps, want.steps, "{at}: steps");
                assert_eq!(got.race_positions, want.race_positions, "{at}: race positions");
                assert_eq!(got.final_state, want.final_state, "{at}: final state");
                assert_eq!(got.diagnostic, want.diagnostic, "{at}: diagnostic");
                racy_runs += usize::from(!want.race_positions.is_empty());
            }
        }
    }
    // The comparison must cover race states, not only clean runs.
    assert!(racy_runs > 0, "no run visited a race state");
}

#[test]
fn early_stopping_triage_equals_triage_on_the_reference_runs() {
    let configs = [
        TriageConfig::default(),
        TriageConfig { thread_counts: vec![3, 2], runs_per_count: 4, max_steps: 60, seed_base: 5 },
    ];
    let mut witnesses = 0;
    for (name, p) in corpus() {
        for cfg in &configs {
            let want = reference_triage(&p, cfg);
            assert_eq!(triage(&p, cfg), want, "{name}: {cfg:?}");
            witnesses += usize::from(matches!(want, TriageDecision::Stage1Race(_)));
        }
    }
    assert!(witnesses > 0, "no program reached stage 1's witness path");
}
