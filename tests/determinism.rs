//! Determinism: the engine is a pure function of its input, and the
//! batch layer's file fan-out does not change it.
//!
//! * Replaying a run of any corpus program or Table 1 model gives the
//!   same verdict essence (predicates, counterexample, final ACFA, k)
//!   and the same statistics counters (solver queries, cache
//!   hits/misses, sim pairs, …). Only the phase wall-times may differ.
//! * A batch report over `examples/` or the Table 1 models is
//!   byte-identical at `--jobs 1` and `--jobs 4` once wall times are
//!   stripped: every file runs the sequential engine against a frozen
//!   seed, and `run_batch` merges in input order (`DESIGN.md`,
//!   "Parallel execution").

use circ_core::{circ, CircConfig, CircOutcome, PipelineStats};
use circ_ir::{BoolExpr, CfaBuilder, Expr, MtProgram, Op};

/// Everything verdict-relevant in an outcome; deliberately excludes
/// statistics and timings.
fn essence(outcome: &CircOutcome) -> String {
    match outcome {
        CircOutcome::Safe(r) => {
            format!("Safe preds={:?} k={} acfa={:?}", r.preds, r.k, r.acfa)
        }
        CircOutcome::Unsafe(r) => format!("Unsafe cex={:?} k={}", r.cex, r.k),
        CircOutcome::Unknown(r) => format!("Unknown reason={:?}", r.reason),
    }
}

/// The run's counters with the wall-clock spans zeroed: everything
/// here must be jobs-invariant.
fn counters(outcome: &CircOutcome) -> PipelineStats {
    let mut p = outcome.stats().pipeline.clone();
    p.phases = Default::default();
    p
}

/// Runs `program` twice under `config`: the two runs must agree on
/// the verdict essence and on every counter.
fn assert_replays_identically(name: &str, program: &MtProgram, config: &CircConfig) {
    let first = circ(program, config);
    let second = circ(program, config);
    assert_eq!(
        essence(&first),
        essence(&second),
        "{name}: a replay changed the verdict (omega={})",
        config.omega_mode
    );
    assert_eq!(
        counters(&first),
        counters(&second),
        "{name}: a replay changed the statistics counters (omega={})",
        config.omega_mode
    );
}

/// Runs `dir` as a batch at `--jobs 1` and `--jobs 4` under `base`:
/// the reports must agree byte for byte once wall times are stripped.
fn assert_batch_jobs_invariant(dir: &std::path::Path, base: &circ_batch::BatchConfig) {
    let inputs = circ_batch::collect_inputs(dir).unwrap();
    let seq = circ_batch::run_batch(&inputs, &circ_batch::BatchConfig { jobs: 1, ..base.clone() });
    let par = circ_batch::run_batch(&inputs, &circ_batch::BatchConfig { jobs: 4, ..base.clone() });
    assert_eq!(seq.exit, par.exit, "{}", dir.display());
    let (seq_json, par_json) = (strip_times(&seq.to_json()), strip_times(&par.to_json()));
    assert_eq!(seq_json, par_json, "{}: jobs=4 changed the batch report bytes", dir.display());
    // The scanner really did find wall times (guards against key renames
    // silently turning this test into a tautology-by-luck).
    assert_ne!(seq_json, seq.to_json(), "no time keys were stripped — scanner is stale");
}

/// Unprotected concurrent increments: racy.
fn unprotected_counter() -> MtProgram {
    let mut b = CfaBuilder::new("counter");
    let x = b.global("x");
    let l1 = b.entry();
    let l2 = b.fresh_loc();
    b.edge(l1, Op::assign(x, Expr::var(x) + Expr::int(1)), l2);
    b.edge(l2, Op::skip(), l1);
    let cfa = b.build();
    let x = cfa.var_by_name("x").unwrap();
    MtProgram::new(cfa, x)
}

/// x only ever written inside atomic blocks: safe with zero predicates.
fn atomic_only() -> MtProgram {
    let mut b = CfaBuilder::new("atomic_only");
    let x = b.global("x");
    let l1 = b.entry();
    let l2 = b.fresh_loc();
    let l3 = b.fresh_loc();
    b.edge(l1, Op::skip(), l2);
    b.mark_atomic(l2);
    b.edge(l2, Op::assign(x, Expr::var(x) + Expr::int(1)), l3);
    b.edge(l3, Op::skip(), l1);
    let cfa = b.build();
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

fn fig1_program() -> MtProgram {
    let cfa = circ_ir::figure1_cfa();
    let x = cfa.var_by_name("x").unwrap();
    MtProgram::new(cfa, x)
}

#[test]
fn examples_corpus_is_jobs_invariant_in_both_modes() {
    let corpus = [
        ("figure1", fig1_program()),
        ("broken_fig1", broken_fig1()),
        ("atomic_only", atomic_only()),
        ("unprotected_counter", unprotected_counter()),
    ];
    for omega in [false, true] {
        let config = if omega { CircConfig::omega() } else { CircConfig::default() };
        for (name, program) in &corpus {
            assert_replays_identically(name, program, &config);
        }
    }
    // ω mode is the batch default, covered by
    // `batch_report_is_jobs_invariant_modulo_wall_times`.
    let circ_mode = circ_batch::BatchConfig { omega: false, ..circ_batch::BatchConfig::default() };
    assert_batch_jobs_invariant(&examples_dir(), &circ_mode);
}

#[test]
fn table1_models_are_jobs_invariant() {
    for m in circ_nesc::models() {
        assert_replays_identically(m.name, &m.program(), &CircConfig::omega());
    }
    let models = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../nesc/models");
    assert_batch_jobs_invariant(&models, &circ_batch::BatchConfig::default());
}

// ---- batch-level determinism ----

/// Zeroes every `"time...":<number>` value in a JSON report. All of
/// the batch report's wall-time keys — the per-row `time_s` and the
/// pipeline's `time_reach_s`/`time_sim_s`/… — start with `time`, so
/// one scanner strips them all.
fn strip_times(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(ix) = rest.find("\"time") {
        let Some(key_len) = rest[ix + 1..].find('"') else { break };
        let key_end = ix + 1 + key_len + 1;
        let Some(colon) = rest[key_end..].find(':') else { break };
        let val_start = key_end + colon + 1;
        let val_len = rest[val_start..].find([',', '}']).unwrap_or(rest.len() - val_start);
        out.push_str(&rest[..val_start]);
        out.push('0');
        rest = &rest[val_start + val_len..];
    }
    out.push_str(rest);
    out
}

fn examples_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

#[test]
fn batch_report_is_jobs_invariant_modulo_wall_times() {
    let inputs = circ_batch::collect_inputs(&examples_dir()).unwrap();
    assert!(inputs.len() >= 4, "examples corpus went missing");
    assert_batch_jobs_invariant(&examples_dir(), &circ_batch::BatchConfig::default());
}

// ---- crash-safety determinism ----

/// Interrupting a batch and resuming it must land on exactly the
/// uninterrupted run's verdicts: the journal replays the files that
/// finished before the interrupt, the rest are re-checked, and the
/// deterministic pipeline makes the re-checks indistinguishable from
/// the originals.
#[test]
fn interrupted_then_resumed_batch_matches_uninterrupted() {
    let inputs = circ_batch::collect_inputs(&examples_dir()).unwrap();
    assert!(inputs.len() >= 3, "need a corpus big enough to interrupt mid-run");
    let journal = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("determinism-interrupt-journal.jsonl");
    let _ = std::fs::remove_file(&journal);

    let baseline = circ_batch::run_batch(&inputs, &circ_batch::BatchConfig::default());

    // "Interrupt" deterministically: trip the cancel token after two
    // completions, exactly what the SIGINT handler does mid-run.
    let interrupted = circ_batch::run_batch(
        &inputs,
        &circ_batch::BatchConfig {
            journal: Some(journal.clone()),
            cancel_after: Some(2),
            jobs: 1,
            ..circ_batch::BatchConfig::default()
        },
    );
    assert_eq!(interrupted.exit, 3, "a drained run exits as budget-exhausted");
    let cancelled = interrupted.rows.iter().filter(|r| r.cancelled).count();
    assert!(cancelled > 0, "nothing was actually interrupted");
    assert_eq!(interrupted.totals.cancelled, cancelled as u64);

    let resumed = circ_batch::run_batch(
        &inputs,
        &circ_batch::BatchConfig {
            journal: Some(journal.clone()),
            resume: true,
            ..circ_batch::BatchConfig::default()
        },
    );
    assert_eq!(resumed.totals.resumed, 2, "the two journaled rows must replay");
    let essence = |r: &circ_batch::BatchReport| {
        r.rows
            .iter()
            .map(|row| (row.file.clone(), row.verdict, row.detail.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(essence(&baseline), essence(&resumed), "resume changed a verdict");
    assert_eq!(baseline.exit, resumed.exit);
}

/// Replaying an untouched journal is byte-stable: a second resume over
/// the same inputs renders the identical report, wall-times included,
/// because every row now comes verbatim from the journal.
#[test]
fn journal_replay_is_byte_stable() {
    let inputs = circ_batch::collect_inputs(&examples_dir()).unwrap();
    let journal = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("determinism-replay-journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let cfg = circ_batch::BatchConfig {
        journal: Some(journal.clone()),
        resume: true,
        ..circ_batch::BatchConfig::default()
    };
    // First resume over a missing journal degrades to a cold run that
    // writes the journal; the next two replay it end to end.
    let first = circ_batch::run_batch(&inputs, &cfg);
    let second = circ_batch::run_batch(&inputs, &cfg);
    let third = circ_batch::run_batch(&inputs, &cfg);
    assert_eq!(second.totals.resumed as usize, inputs.len());
    assert_eq!(second.to_json(), third.to_json(), "journal replay is not byte-stable");
    // Replayed rows reproduce the journaled originals byte-for-byte —
    // wall-times included, because `time_s` round-trips through the
    // journal's fixed 6-decimal rendering. (The report *totals* are
    // allowed to differ: they count how many rows were resumed.)
    let rows = |r: &circ_batch::BatchReport| {
        r.rows.iter().map(circ_batch::render_row_json).collect::<Vec<_>>()
    };
    assert_eq!(rows(&first), rows(&second), "replay changed a row");
}

/// A journal written under one configuration must never seed a resume
/// under another: the journal rows carry a config fingerprint, and a
/// resume with a different `--k` (or `--omega`, budget, …) degrades
/// every mismatched row to a re-check. The re-checked report must be
/// indistinguishable from a fresh uninterrupted run under the *new*
/// configuration — resuming is an optimization, never a way to smuggle
/// stale verdicts across a config change.
#[test]
fn resume_under_different_config_rechecks_every_row() {
    let inputs = circ_batch::collect_inputs(&examples_dir()).unwrap();
    assert!(inputs.len() >= 3, "need a corpus big enough to interrupt mid-run");
    let journal = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("determinism-config-skew-journal.jsonl");
    let _ = std::fs::remove_file(&journal);

    // Interrupt a journaled run under the default configuration so the
    // journal holds rows checked with `initial_k = 1`.
    let interrupted = circ_batch::run_batch(
        &inputs,
        &circ_batch::BatchConfig {
            journal: Some(journal.clone()),
            cancel_after: Some(2),
            jobs: 1,
            ..circ_batch::BatchConfig::default()
        },
    );
    assert_eq!(interrupted.exit, 3, "a drained run exits as budget-exhausted");
    assert!(journal.exists(), "the interrupted run must have journaled its completions");

    // Resume under a different configuration: every journaled row's
    // fingerprint mismatches, so nothing may replay.
    let skewed = circ_batch::BatchConfig {
        journal: Some(journal.clone()),
        resume: true,
        initial_k: 3,
        ..circ_batch::BatchConfig::default()
    };
    let resumed = circ_batch::run_batch(&inputs, &skewed);
    assert_eq!(
        resumed.totals.resumed, 0,
        "rows journaled under another configuration must never replay"
    );
    assert!(
        resumed.warnings.iter().any(|w| w.contains("different configuration")),
        "the degradation must be explained in the warnings: {:?}",
        resumed.warnings
    );

    // And the re-checked report matches a fresh run under the new
    // configuration, row for row.
    let fresh = circ_batch::run_batch(
        &inputs,
        &circ_batch::BatchConfig { initial_k: 3, ..circ_batch::BatchConfig::default() },
    );
    let essence = |r: &circ_batch::BatchReport| {
        r.rows
            .iter()
            .map(|row| (row.file.clone(), row.verdict, row.detail.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(essence(&fresh), essence(&resumed), "config skew leaked a stale verdict");
    assert_eq!(fresh.exit, resumed.exit);
}

/// The predicate store makes warm re-checks cheaper without touching
/// verdicts, and its counters (`preds_seeded`, `refine_rounds_saved`)
/// are as jobs-invariant as every other statistic: two warm runs over
/// identical store snapshots render the same rows and totals at
/// `--jobs 1` and `--jobs 4`, modulo wall times.
#[test]
fn pred_store_seeding_cuts_rounds_and_stays_jobs_invariant() {
    let inputs = circ_batch::collect_inputs(&examples_dir()).unwrap();
    let tmp = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let dir_a = tmp.join("determinism-pred-store-a");
    let dir_b = tmp.join("determinism-pred-store-b");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);

    // Cold run populates the caches and the predicate store in `dir_a`.
    let cfg = |dir: &std::path::Path, jobs: usize| circ_batch::BatchConfig {
        cache_dir: Some(dir.to_path_buf()),
        jobs,
        ..circ_batch::BatchConfig::default()
    };
    let cold = circ_batch::run_batch(&inputs, &cfg(&dir_a, 1));
    assert_eq!(cold.totals.pipeline.preds_seeded, 0, "nothing to seed from on a cold start");
    assert_eq!(cold.totals.pipeline.refine_rounds_saved, 0);
    let saved = cold.cache.as_ref().expect("cache dir was set").preds_saved;
    assert!(saved > 0, "the cold run must record what it discovered");

    // Snapshot the cache directory so both warm runs seed from the
    // *same* store bytes (a warm run that learns anything re-saves the
    // store, so running twice against one directory could compare
    // different snapshots).
    std::fs::create_dir_all(&dir_b).unwrap();
    for entry in std::fs::read_dir(&dir_a).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir_b.join(entry.file_name())).unwrap();
    }

    let warm_seq = circ_batch::run_batch(&inputs, &cfg(&dir_a, 1));
    let warm_par = circ_batch::run_batch(&inputs, &cfg(&dir_b, 4));

    // Seeding engaged and paid off.
    assert!(warm_seq.totals.pipeline.preds_seeded > 0, "store did not seed");
    assert!(
        warm_seq.totals.pipeline.refine_rounds < cold.totals.pipeline.refine_rounds,
        "seeding must cut refinement rounds (warm {} vs cold {})",
        warm_seq.totals.pipeline.refine_rounds,
        cold.totals.pipeline.refine_rounds
    );

    // ... without touching any verdict.
    let essence = |r: &circ_batch::BatchReport| {
        r.rows
            .iter()
            .map(|row| (row.file.clone(), row.verdict, row.detail.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(essence(&cold), essence(&warm_seq), "seeding changed a verdict");
    assert_eq!(cold.exit, warm_seq.exit);

    // Jobs-invariance: identical snapshot in, identical rows and
    // counters out (the cache summary differs only in its `dir` path,
    // so compare rows and totals rather than the whole report).
    let rows = |r: &circ_batch::BatchReport| {
        r.rows.iter().map(|row| strip_times(&circ_batch::render_row_json(row))).collect::<Vec<_>>()
    };
    assert_eq!(rows(&warm_seq), rows(&warm_par), "jobs=4 changed a warm row");
    let totals = |r: &circ_batch::BatchReport| {
        let mut p = r.totals.pipeline.clone();
        p.phases = Default::default();
        p
    };
    assert_eq!(
        totals(&warm_seq),
        totals(&warm_par),
        "jobs=4 changed the seeded-run statistics counters"
    );
    assert_eq!(warm_seq.totals.pipeline.preds_seeded, warm_par.totals.pipeline.preds_seeded);
    assert_eq!(
        warm_seq.totals.pipeline.refine_rounds_saved,
        warm_par.totals.pipeline.refine_rounds_saved
    );
}

/// The tiered triage pipeline is a pure function of each program (its
/// schedules come from fixed seeds), so a `--triage` batch report —
/// rows, stage attributions, and the three triage counters — must be
/// byte-identical at any `--jobs`, and the counters must partition
/// the corpus's race variables exactly.
#[test]
fn triage_batch_is_jobs_invariant_and_counters_partition() {
    let inputs = circ_batch::collect_inputs(&examples_dir()).unwrap();
    let base = circ_batch::BatchConfig { triage: true, ..circ_batch::BatchConfig::default() };
    let seq = circ_batch::run_batch(&inputs, &circ_batch::BatchConfig { jobs: 1, ..base.clone() });
    let par = circ_batch::run_batch(&inputs, &circ_batch::BatchConfig { jobs: 4, ..base.clone() });
    assert_eq!(seq.exit, par.exit);
    let (seq_json, par_json) = (strip_times(&seq.to_json()), strip_times(&par.to_json()));
    assert_eq!(seq_json, par_json, "jobs=4 changed the triage batch report bytes");

    // The stage counters partition the race variables: every variable
    // is decided by exactly one tier, and the attribution column
    // agrees with the counters row by row.
    let p = &seq.totals.pipeline;
    let race_vars: u64 = seq
        .rows
        .iter()
        .flat_map(|r| r.stage.split('+'))
        .filter(|s| !s.is_empty() && *s != "-")
        .count() as u64;
    assert_eq!(
        p.triage_stage0_decided + p.triage_stage1_decided + p.triage_fallthrough,
        race_vars,
        "triage counters must partition the corpus's race variables"
    );
    let count = |tier: &str| {
        seq.rows.iter().flat_map(|r| r.stage.split('+')).filter(|s| *s == tier).count() as u64
    };
    assert_eq!(count("flow"), p.triage_stage0_decided);
    assert_eq!(count("sched"), p.triage_stage1_decided);
    assert_eq!(count("circ"), p.triage_fallthrough);

    // And triage never changes a verdict relative to the full run.
    let full = circ_batch::run_batch(&inputs, &circ_batch::BatchConfig::default());
    let verdicts = |r: &circ_batch::BatchReport| {
        r.rows.iter().map(|row| (row.file.clone(), row.verdict)).collect::<Vec<_>>()
    };
    assert_eq!(verdicts(&full), verdicts(&seq), "triage changed a verdict");
    assert_eq!(full.exit, seq.exit);
}

#[test]
fn warm_batch_matches_cold_verdicts_with_fewer_misses() {
    let inputs = circ_batch::collect_inputs(&examples_dir()).unwrap();
    let cache_dir =
        std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism-batch-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cfg = circ_batch::BatchConfig {
        cache_dir: Some(cache_dir.clone()),
        ..circ_batch::BatchConfig::default()
    };
    let cold = circ_batch::run_batch(&inputs, &cfg);
    let warm = circ_batch::run_batch(&inputs, &cfg);
    assert_eq!(cold.exit, warm.exit);
    let verdicts = |r: &circ_batch::BatchReport| {
        r.rows.iter().map(|row| (row.file.clone(), row.verdict)).collect::<Vec<_>>()
    };
    assert_eq!(verdicts(&cold), verdicts(&warm), "warm cache changed a verdict");
    assert!(
        warm.totals.pipeline.abs.cache_misses < cold.totals.pipeline.abs.cache_misses,
        "warm batch must miss strictly less (warm {} vs cold {})",
        warm.totals.pipeline.abs.cache_misses,
        cold.totals.pipeline.abs.cache_misses
    );
    assert!(warm.warnings.is_empty(), "clean caches must load silently: {:?}", warm.warnings);
}
