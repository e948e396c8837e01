//! `corpus-warm`: repeated `run_batch` calls over a seeded corpus of
//! small files against a cache directory warmed during set-up.

use crate::calib::{self, Calibrator};
use crate::gen::{ring_source, small_pool, Expect, Input, Rng};
use crate::layers::{median_over, per_layer, Layers};
use crate::measure::{counters, item_medians, process_cpu_s, Class, Tally};
use crate::trace::Tracer;
use crate::{set_up, EndToEnd, Opts, Outcome, Unit};
use circ_batch::{flush_caches_in, load_caches, run_batch, BatchConfig, PRED_STORE_FILE};
use circ_core::{circ, pred_store, AbsCache, AbsCtx, Budget, CircConfig, PredSet, SolverPersist};
use circ_triage::{triage, TriageConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Batch worker threads.
const JOBS: usize = 2;
/// Mid-size rings checked once during set-up so the stores hold far
/// more than any one corpus file needs.
const PREWARM_RINGS: [u32; 2] = [4, 5];

struct Prepared {
    dir: PathBuf,
    inputs: Vec<Input>,
    files: Vec<PathBuf>,
    config: BatchConfig,
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Generates and writes the corpus, confirms its racy answers, and
/// warms the cache directory: one batch over the pre-warm rings plus
/// the corpus, then one over the corpus alone so the predicate store
/// reaches its fixpoint before timing.
fn setup(seed: u64, k: usize) -> Result<Prepared, String> {
    let dir = crate::scratch_dir(&format!("corpus{k}"))?;
    let mut rng = Rng::new(seed);
    let inputs = small_pool(&mut rng);
    let corpus = dir.join("corpus");
    let prewarm = dir.join("prewarm");
    for d in [&corpus, &prewarm] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let mut files = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        if input.expect == Expect::Race {
            let program = crate::compile_program(input)?;
            crate::truth::confirm_race(&program).map_err(|e| format!("{}: {e}", input.name))?;
        }
        let path = corpus.join(format!("{i:02}_{}.nesl", input.name));
        write(&path, &input.text)?;
        files.push(path);
    }
    let mut warm = Vec::new();
    for n in PREWARM_RINGS {
        let path = prewarm.join(format!("ring{n}.nesl"));
        write(&path, &ring_source(n, None))?;
        warm.push(path);
    }
    warm.extend(files.iter().cloned());
    let config = BatchConfig {
        jobs: JOBS,
        triage: true,
        pred_store: true,
        cache_dir: Some(dir.join("cache")),
        ..BatchConfig::default()
    };
    run_batch(&warm, &config);
    run_batch(&files, &config);
    Ok(Prepared { dir, inputs, files, config })
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (p, setups) = set_up(
        opts,
        |k| setup(opts.seed, k),
        |old| {
            cleanup(&old);
            Ok(())
        },
    )?;
    // The reference verdict of every text, checked in-process (untimed).
    let reference: Vec<Class> = p
        .inputs
        .iter()
        .map(|i| {
            crate::compile_program(i).map(|prog| Class::of_circ(&circ(&prog, &CircConfig::omega())))
        })
        .collect::<Result<_, _>>()?;
    let budget = Duration::from_secs(opts.seconds);
    let result = if opts.trace {
        traced(&p, &reference, budget, tracer)
    } else {
        measured(&p, &reference, setups, budget)
    };
    cleanup(&p);
    Ok(result)
}

fn cleanup(p: &Prepared) {
    let _ = std::fs::remove_dir_all(&p.dir);
}

fn record_rows(p: &Prepared, reference: &[Class], rows: &[circ_batch::FileRow], tally: &mut Tally) {
    for ((input, row), reference) in p.inputs.iter().zip(rows).zip(reference) {
        tally.record(&input.name, input.expect, Class::of_row(row), Some(*reference));
    }
    if rows.len() != p.inputs.len() {
        tally.errors.push(format!(
            "batch returned {} rows for {} files",
            rows.len(),
            p.inputs.len()
        ));
    }
}

fn measured(p: &Prepared, reference: &[Class], setup: Vec<f64>, budget: Duration) -> Outcome {
    let mut tally = Tally::default();
    let (mut verdict_s, mut req_s, mut units) = (Vec::new(), Vec::new(), Vec::new());
    let mut speed = Vec::new();
    let mut cal = Calibrator::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let ((report, cpu_s), wall_s, scale) = cal.time(|| {
            let cpu0 = process_cpu_s();
            let report = run_batch(&p.files, &p.config);
            (report, process_cpu_s() - cpu0)
        });
        units.push(Unit {
            checks: report.rows.len() as u64,
            wall_s: wall_s * scale,
            cpu_s: cpu_s * scale,
        });
        req_s.push(wall_s * scale);
        speed.push(cal.speed());
        // A file cannot be timed from outside a batch call; its row
        // carries the batch's own per-file clock.
        verdict_s.extend(report.rows.iter().map(|r| r.time_s * scale));
        record_rows(p, reference, &report.rows, &mut tally);
    }
    let verdict_s = item_medians(&verdict_s, p.files.len());
    Outcome {
        tally,
        e2e: Some(EndToEnd { setup, verdict_s, req_s, block: usize::MAX, units, speed }),
        layers: None,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// One batch call, optionally traced. Traced, it afterwards re-issues
/// each layer call the batch makes internally — cache and store load,
/// per-file cache seeding, compile, triage, context creation, flush —
/// once on the same inputs, outside the timed call.
fn pass(
    p: &Prepared,
    reference: &[Class],
    tracer: &mut Tracer,
    tally: &mut Tally,
    id: u64,
) -> Layers {
    let mut l = Layers { width: JOBS as f64, speed: calib::speed(), ..Layers::default() };
    let cpu0 = process_cpu_s();
    let (report, dur) = tracer.span(id, "run_batch", || run_batch(&p.files, &p.config));
    l.cpu_s = process_cpu_s() - cpu0;
    l.wall_s = dur.as_secs_f64();
    l.pipeline = report.totals.pipeline.clone();
    l.engine_wall_s = report.rows.iter().map(|r| r.time_s).sum();
    l.refine_stuck = report
        .rows
        .iter()
        .filter(|r| r.detail.contains("Stuck(") || r.detail.contains("RefineFailed("))
        .count() as u64;
    record_rows(p, reference, &report.rows, tally);
    if !tracer.enabled() {
        return l;
    }
    let cache_dir = p.config.cache_dir.as_deref().expect("corpus runs with a cache dir");
    let (loaded, d) = tracer.span(id, "load_caches", || load_caches(cache_dir));
    l.store_load_s += d.as_secs_f64();
    let pred_path = cache_dir.join(PRED_STORE_FILE);
    let (preds, d) = tracer.span(id, "load_pred_store", || pred_store::load_pred_store(&pred_path));
    l.store_load_s += d.as_secs_f64();
    let preds = preds.ok().flatten().unwrap_or_default();
    let persist = SolverPersist::with_seed(loaded.solver_seed.clone());
    for (input, row) in p.inputs.iter().zip(&report.rows) {
        let (cache, d) =
            tracer.span(id, "AbsCache::with_seed", || AbsCache::with_seed(&loaded.abs_seed));
        drop(cache);
        l.abs_seed_s += d.as_secs_f64();
        let (compiled, d) = tracer.span(id, "compile", || circ_frontend::compile(&input.text));
        l.compile_s += d.as_secs_f64();
        let Ok(compiled) = compiled else { continue };
        l.cfa_locs += compiled.cfa.num_locs() as u64;
        for &var in &compiled.race_vars {
            let program = circ_ir::MtProgram::new(compiled.cfa.clone(), var);
            let (_, d) = tracer.span(id, "triage", || triage(&program, &TriageConfig::default()));
            l.triage_s += d.as_secs_f64();
        }
        let cfa = std::sync::Arc::new(compiled.cfa);
        let (_, d) = tracer.span(id, "AbsCtx::with_parts", || {
            drop(AbsCtx::with_parts(
                cfa,
                PredSet::new(),
                AbsCache::new(),
                Budget::unlimited(),
                &persist,
            ))
        });
        l.preload_s += d.as_secs_f64() * row.pipeline.outer_rounds as f64;
    }
    let io = circ_store::Store::real();
    let (flushed, d) = tracer.span(id, "flush_caches_in", || {
        flush_caches_in(&io, cache_dir, &loaded.abs_seed, &persist, Some(&preds))
    });
    tracer.fields(&[("flush_errors", flushed.flush_errors as f64)]);
    l.store_flush_s = d.as_secs_f64();
    l.store_bytes = dir_bytes(cache_dir);
    l.batch_self_s = l.wall_s - l.engine_wall_s / JOBS as f64 - l.store_load_s - l.store_flush_s;
    l
}

fn traced(p: &Prepared, reference: &[Class], budget: Duration, tracer: &mut Tracer) -> Outcome {
    let mut tally = Tally::default();
    let mut passes = Vec::new();
    let mut equal = true;
    let start = Instant::now();
    let mut id = 0;
    while passes.is_empty() || start.elapsed() < budget {
        let plain = pass(p, reference, &mut Tracer::new(false), &mut tally, id);
        let before = tracer.len();
        let mut l = pass(p, reference, tracer, &mut tally, id);
        id += 1;
        equal &= counters(&l.pipeline) == counters(&plain.pipeline);
        l.overhead_s = l.wall_s - plain.wall_s;
        l.spans = (tracer.len() - before) as u64;
        passes.push(per_layer(&l));
    }
    if !equal {
        tally.errors.push("traced counters differ from the untraced pass".into());
    }
    Outcome { tally, e2e: None, layers: Some(median_over(&passes)) }
}
