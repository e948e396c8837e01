//! `ring-cold` and `ring-jobs2`: a closed loop of in-process ω-CIRC
//! calls on token rings, each with a fresh cache.

use crate::calib::{self, Calibrator};
use crate::gen::{racy_rings, ring_round, ring_source, Expect, Input, Rng};
use crate::layers::{median_over, per_layer, Layers};
use crate::measure::{counters, item_medians, process_cpu_s, Class, Tally};
use crate::trace::Tracer;
use crate::{set_up, EndToEnd, Opts, Outcome, Unit};
use circ_core::{
    circ_with_caches, AbsCache, AbsCtx, Budget, CircConfig, CircOutcome, PredSet, SolverPersist,
    UnknownReason,
};
use circ_ir::MtProgram;
use std::time::{Duration, Instant};

struct Prepared {
    round: Vec<(Input, MtProgram)>,
    config: CircConfig,
}

/// Generates the round, compiles it, confirms every racy answer on the
/// interpreter, and warms up with one check of the safe n = 3 ring.
///
/// The search that confirms a race is deeper the later the racy phase,
/// so set-up confirms every racy ring the round could hold: the drawn
/// ones on their disguised text, the others on the plain text. Set-up
/// then does the same work for every seed.
fn setup(seed: u64, jobs: usize) -> Result<Prepared, String> {
    let mut rng = Rng::new(seed);
    let mut round = Vec::new();
    for input in ring_round(&mut rng) {
        let program = crate::compile_program(&input)?;
        if input.expect == Expect::Race {
            confirm(&input, &program)?;
        }
        round.push((input, program));
    }
    for (n, phase) in racy_rings() {
        let name = format!("ring{n}_racy{phase}");
        if round.iter().all(|(i, _)| i.name != name) {
            let text = ring_source(n, Some(phase));
            let input = Input { name, text, expect: Expect::Race };
            confirm(&input, &crate::compile_program(&input)?)?;
        }
    }
    let config = CircConfig { jobs, ..CircConfig::omega() };
    if let Some((_, program)) = round.iter().find(|(i, _)| i.name == "ring3") {
        check(program, &config);
    }
    Ok(Prepared { round, config })
}

fn confirm(input: &Input, program: &MtProgram) -> Result<(), String> {
    crate::truth::confirm_race(program).map_err(|e| format!("{}: {e}", input.name))
}

fn check(program: &MtProgram, config: &CircConfig) -> CircOutcome {
    let cache = AbsCache::new();
    circ_with_caches(program, config, &cache, &SolverPersist::inert())
}

pub fn run(opts: &Opts, jobs: usize, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (p, setups) = set_up(opts, |_| setup(opts.seed, jobs), |_| Ok(()))?;
    let mut tally = Tally::default();
    let budget = Duration::from_secs(opts.seconds);
    if opts.trace {
        return traced(&p, jobs, budget, tracer, tally);
    }
    let (mut verdict_s, mut units, mut speed) = (Vec::new(), Vec::new(), Vec::new());
    let mut cal = Calibrator::new();
    let start = Instant::now();
    // Whole rounds only, so every run checks the same mix.
    while start.elapsed() < budget {
        let mut unit = Unit { checks: 0, wall_s: 0.0, cpu_s: 0.0 };
        for (input, program) in &p.round {
            let ((outcome, cpu_s), wall_s, scale) = cal.time(|| {
                let cpu0 = process_cpu_s();
                let outcome = check(program, &p.config);
                (outcome, process_cpu_s() - cpu0)
            });
            verdict_s.push(wall_s * scale);
            unit.checks += 1;
            unit.wall_s += wall_s * scale;
            unit.cpu_s += cpu_s * scale;
            speed.push(cal.speed());
            tally.record(&input.name, input.expect, Class::of_circ(&outcome), None);
        }
        units.push(unit);
    }
    let verdict_s = item_medians(&verdict_s, p.round.len());
    Ok(Outcome {
        tally,
        e2e: Some(EndToEnd {
            setup: setups,
            // A closed loop: each request is due when the previous one
            // returns, so request latency is the call latency.
            req_s: verdict_s.clone(),
            verdict_s,
            block: usize::MAX,
            units,
            speed,
        }),
        layers: None,
    })
}

/// One round, optionally traced; returns the per-layer record.
fn pass(p: &Prepared, jobs: usize, tracer: &mut Tracer, tally: &mut Tally, id0: u64) -> Layers {
    let mut l = Layers { width: jobs as f64, speed: calib::speed(), ..Layers::default() };
    let mut rounds = Vec::with_capacity(p.round.len());
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    for (k, (input, program)) in p.round.iter().enumerate() {
        let id = id0 + k as u64;
        let (outcome, dur) = tracer.span(id, "circ_with_caches", || check(program, &p.config));
        let stats = &outcome.stats().pipeline;
        tracer.fields(&[
            ("outer_rounds", stats.outer_rounds as f64),
            ("arg_nodes", stats.arg_nodes as f64),
            ("abs_queries", stats.abs.queries as f64),
            ("smt_queries", stats.solver.queries as f64),
        ]);
        l.engine_wall_s += dur.as_secs_f64();
        rounds.push(stats.outer_rounds as f64);
        l.pipeline.add(stats);
        if let CircOutcome::Unknown(r) = &outcome {
            if matches!(r.reason, UnknownReason::Stuck(_) | UnknownReason::RefineFailed(_)) {
                l.refine_stuck += 1;
            }
        }
        tally.record(&input.name, input.expect, Class::of_circ(&outcome), None);
    }
    l.wall_s = start.elapsed().as_secs_f64();
    l.cpu_s = process_cpu_s() - cpu0;
    if tracer.enabled() {
        // Context creation is inside the engine call; time it once per
        // check against the same (inert) store and scale by rounds.
        for (k, (_, program)) in p.round.iter().enumerate() {
            let (_, dur) = tracer.span(id0 + k as u64, "AbsCtx::with_parts", || {
                let ctx = AbsCtx::with_parts(
                    program.cfa_arc(),
                    PredSet::new(),
                    AbsCache::new(),
                    Budget::unlimited(),
                    &SolverPersist::inert(),
                );
                drop(ctx);
            });
            l.preload_s += dur.as_secs_f64() * rounds[k];
        }
    }
    l
}

fn traced(
    p: &Prepared,
    jobs: usize,
    budget: Duration,
    tracer: &mut Tracer,
    mut tally: Tally,
) -> Result<Outcome, String> {
    let mut passes = Vec::new();
    let mut equal = true;
    let start = Instant::now();
    let mut id0 = 0;
    while passes.is_empty() || start.elapsed() < budget {
        let mut off = Tracer::new(false);
        let plain = pass(p, jobs, &mut off, &mut tally, id0);
        let before = tracer.len();
        let mut l = pass(p, jobs, tracer, &mut tally, id0);
        id0 += p.round.len() as u64;
        equal &= counters(&l.pipeline) == counters(&plain.pipeline);
        l.overhead_s = l.engine_wall_s - plain.engine_wall_s;
        l.spans = (tracer.len() - before) as u64;
        passes.push(per_layer(&l));
    }
    if !equal {
        tally.errors.push("traced counters differ from the untraced pass".into());
    }
    Ok(Outcome { tally, e2e: None, layers: Some(median_over(&passes)) })
}
