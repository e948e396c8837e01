//! Corruption torture over every persisted artifact — the entailment
//! cache, the solver cache, the predicate store, and the journal —
//! plus the read-merge-write pin for shared cache directories.
//!
//! Single contract: no damaged byte on disk may ever flip a verdict.
//! Snapshot artifacts carry a checksummed envelope, so any bit flip,
//! truncation, or version bump must be *rejected wholesale* (a logged
//! cold start). The journal is line-granular: a damaged line degrades
//! to a re-check of that one file while intact lines keep replaying.

use circ_batch::journal;
use circ_batch::{
    flush_caches_in, load_caches_in, run_batch, warm_start, BatchConfig, FileRow, Verdict,
    ABS_CACHE_FILE, PRED_STORE_FILE, SOLVER_CACHE_FILE,
};
use circ_core::pred_store::{self, PredStore, StoredPreds};
use circ_core::{persist as abs_persist, AbsSeed, SolverPersist};
use circ_smt::persist as smt_persist;
use circ_smt::{Atom, Formula, LinExpr, SVar, SatResult};
use circ_store::Store;
use std::fs;
use std::path::{Path, PathBuf};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn var(i: u32) -> LinExpr {
    LinExpr::var(SVar(i))
}

/// A small synthetic seed for each artifact, enough that every wire
/// feature (entry counts, atom encodings, checksums) is exercised.
fn abs_seed(tag: u32) -> AbsSeed {
    let premises = vec![Atom::eq(var(tag)), Atom::le(var(tag + 1) - LinExpr::constant(3))];
    AbsSeed::from_entries(
        vec![((premises.clone(), Atom::le(var(tag + 2))), true)],
        vec![(premises, tag.is_multiple_of(2))],
    )
}

fn solver_entries(tag: u32) -> Vec<(Formula, SatResult)> {
    vec![
        (Formula::Atom(Atom::eq(var(tag))), SatResult::Sat(Default::default())),
        (Formula::Atom(Atom::le(var(tag + 1))), SatResult::Unsat),
    ]
}

fn pred_entry(tag: u64) -> PredStore {
    let mut store = PredStore::new();
    store.record(tag, 7, StoredPreds { preds: Vec::new(), k: 2, rounds: tag, context: None });
    store
}

/// Writes one valid copy of every artifact into `dir`.
fn seed_artifacts(dir: &Path) {
    let io = Store::real();
    let outcome = flush_caches_in(
        &io,
        dir,
        &abs_seed(0),
        &SolverPersist::with_seed(solver_entries(0)),
        Some(&pred_entry(1)),
    );
    assert_eq!(outcome.flush_errors, 0, "{:?}", outcome.warnings);
}

/// Every artifact loader must reject every single-bit flip and every
/// truncation of its file — never silently accept damaged warm-start
/// state. One loop over all three snapshot artifacts keeps the suite
/// in lockstep: a new artifact added to the flush path gets cover by
/// joining this list.
#[test]
fn every_bit_flip_and_truncation_is_rejected_for_every_artifact() {
    /// `text` with its header's `format=N` raised to `N + 1` (each
    /// artifact kind versions its own format).
    fn bump_format(text: &str) -> String {
        let at = text.find("format=").unwrap() + "format=".len();
        let end = at + text[at..].find(' ').unwrap();
        let n: u32 = text[at..end].parse().unwrap();
        format!("{}{}{}", &text[..at], n + 1, &text[end..])
    }
    let dir = fresh_dir("corruption-flips");
    seed_artifacts(&dir);
    type Rejects = fn(&str) -> bool;
    let artifacts: [(&str, Rejects); 3] = [
        (ABS_CACHE_FILE, |text| abs_persist::parse_abs_cache(text).is_err()),
        (SOLVER_CACHE_FILE, |text| smt_persist::parse_solver_cache(text).is_err()),
        (PRED_STORE_FILE, |text| pred_store::parse_pred_store(text).is_err()),
    ];
    for (name, rejects) in artifacts {
        let text = fs::read_to_string(dir.join(name)).unwrap();
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.to_vec();
            mutated[i] ^= 0x01;
            let Ok(s) = String::from_utf8(mutated) else { continue };
            assert!(rejects(&s), "{name}: flip at byte {i} accepted");
        }
        for i in 0..text.len() {
            if !text.is_char_boundary(i) {
                continue;
            }
            assert!(rejects(&text[..i]), "{name}: prefix of {i} bytes accepted");
        }
        assert!(rejects(&bump_format(&text)), "{name}: version bump accepted");
        assert!(rejects(&text.replace("atoms=1", "atoms=9")), "{name}: atom bump accepted");
    }
}

/// A damaged artifact degrades to a warned cold start — counted as a
/// recovery — and never aborts the load of its healthy siblings.
#[test]
fn damaged_artifacts_degrade_to_counted_cold_starts() {
    let dir = fresh_dir("corruption-degrade");
    seed_artifacts(&dir);
    let io = Store::real();

    let clean = load_caches_in(&io, &dir);
    assert_eq!((clean.recovered, clean.warnings.len()), (0, 0), "{:?}", clean.warnings);
    assert!(!clean.abs_seed.is_empty());
    assert!(!clean.solver_seed.is_empty());

    // Damage the solver cache only: its seed cold-starts with a
    // warning, the abs seed still loads warm.
    let solver_path = dir.join(SOLVER_CACHE_FILE);
    let text = fs::read_to_string(&solver_path).unwrap();
    fs::write(&solver_path, &text[..text.len() / 2]).unwrap();
    let loaded = load_caches_in(&io, &dir);
    assert_eq!(loaded.recovered, 1);
    assert!(loaded.solver_seed.is_empty());
    assert!(!loaded.abs_seed.is_empty(), "healthy sibling must still load warm");
    assert!(loaded.warnings.iter().any(|w| w.contains(SOLVER_CACHE_FILE)), "{:?}", loaded.warnings);
}

/// The shared warm start degrades a damaged predicate store the same
/// way: an empty store, one recovery, and the warning — while the
/// healthy cache snapshots beside it still load warm. With the store
/// disabled the damaged file is never read.
#[test]
fn warm_start_degrades_a_garbage_pred_store_to_an_empty_one() {
    let dir = fresh_dir("corruption-warm-preds");
    seed_artifacts(&dir);
    fs::write(dir.join(PRED_STORE_FILE), "not a predicate store\n\x00\x01").unwrap();

    let warm = warm_start(&Store::real(), Some(&dir), true, true);
    let preds = warm.preds.expect("an enabled store is always present");
    assert!(preds.is_empty(), "a damaged store must not seed anything");
    assert_eq!(warm.recovered, 1, "{:?}", warm.warnings);
    assert_eq!(warm.warnings.len(), 1, "{:?}", warm.warnings);
    assert!(warm.warnings[0].starts_with("ignoring predicate store"), "{:?}", warm.warnings);
    assert!(warm.warnings[0].contains(PRED_STORE_FILE), "{:?}", warm.warnings);
    assert!(!warm.abs_seed.is_empty(), "healthy sibling must still load warm");
    assert!(warm.persist.seed_len() > 0, "healthy sibling must still load warm");

    let off = warm_start(&Store::real(), Some(&dir), false, true);
    assert!(off.preds.is_none());
    assert_eq!((off.recovered, off.warnings.len()), (0, 0), "{:?}", off.warnings);
}

fn row(name: &str) -> FileRow {
    FileRow::new(name.to_string(), Verdict::Safe, "safe".to_string())
}

/// Journal damage is line-granular: a flipped byte in one line drops
/// exactly that row to a re-check; every intact line keeps replaying.
#[test]
fn journal_corruption_degrades_per_line_not_per_file() {
    let dir = fresh_dir("corruption-journal");
    let path = dir.join("run.journal");
    let cfg = journal::config_fingerprint(true, 1, true, None, None, false);
    let j = journal::Journal::create(&path).unwrap();
    j.append(&row("a.nesl"), 100, cfg).unwrap();
    j.append(&row("b.nesl"), 200, cfg).unwrap();
    j.append(&row("c.nesl"), 300, cfg).unwrap();
    drop(j);

    let (replayed, warnings) = journal::load(&path, cfg);
    assert_eq!(replayed.len(), 3);
    assert!(warnings.is_empty(), "{warnings:?}");

    // Flip one byte in the middle line (its verdict name, which the
    // parser validates), leaving neighbors intact.
    let text = fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let damaged = format!(
        "{}\n{}\n{}\n",
        lines[0],
        lines[1].replace("\"verdict\":\"safe\"", "\"verdict\":\"sife\""),
        lines[2]
    );
    assert_ne!(text, damaged, "damage must actually change the middle line");
    fs::write(&path, damaged).unwrap();
    let (replayed, warnings) = journal::load(&path, cfg);
    assert_eq!(replayed.len(), 2, "only the damaged line may be dropped");
    assert!(replayed.contains_key(&100));
    assert!(replayed.contains_key(&300));
    assert_eq!(warnings.len(), 1, "{warnings:?}");
}

/// The read-merge-write pin for shared cache directories: two flushes
/// whose in-memory snapshots are *disjoint* (the second never loaded
/// the first's entries) still compose to the union on disk. Before
/// the locked merge this was last-writer-wins, and flush B erased
/// everything A had learned.
#[test]
fn two_disjoint_flushes_union_instead_of_clobbering() {
    let dir = fresh_dir("corruption-merge");
    let io = Store::real();

    let a = flush_caches_in(
        &io,
        &dir,
        &abs_seed(0),
        &SolverPersist::with_seed(solver_entries(0)),
        Some(&pred_entry(1)),
    );
    assert_eq!(a.flush_errors, 0, "{:?}", a.warnings);
    // Flush B deliberately starts from different entries — the state
    // of a concurrent process that loaded before A flushed.
    let b = flush_caches_in(
        &io,
        &dir,
        &abs_seed(10),
        &SolverPersist::with_seed(solver_entries(10)),
        Some(&pred_entry(2)),
    );
    assert_eq!(b.flush_errors, 0, "{:?}", b.warnings);

    let merged = load_caches_in(&io, &dir);
    assert_eq!(merged.recovered, 0, "{:?}", merged.warnings);
    assert_eq!(merged.abs_seed.len(), abs_seed(0).len() + abs_seed(10).len());
    assert_eq!(merged.solver_seed.len(), solver_entries(0).len() + solver_entries(10).len());
    let preds = pred_store::load_pred_store(&dir.join(PRED_STORE_FILE)).unwrap().unwrap();
    assert_eq!(preds.len(), 2, "predicate stores must merge, not clobber");
    assert!(preds.lookup(1, 7).is_some() && preds.lookup(2, 7).is_some());

    // And the reported counts are the merged totals.
    assert_eq!(b.abs_saved, merged.abs_seed.len());
    assert_eq!(b.solver_saved, merged.solver_seed.len());
    assert_eq!(b.preds_saved, 2);
}

/// End-to-end degrade check: a batch run over a corpus whose cache
/// dir holds damaged artifacts completes with the same verdicts as a
/// clean cold run.
#[test]
fn batch_run_over_damaged_cache_dir_keeps_its_verdicts() {
    let corpus = fresh_dir("corruption-corpus");
    fs::write(
        corpus.join("safe.nesl"),
        "global int x;\n#race x;\nthread t { loop { atomic { x = x + 1; } } }\n",
    )
    .unwrap();
    fs::write(
        corpus.join("racy.nesl"),
        "global int y;\n#race y;\nthread t { loop { y = y + 1; } }\n",
    )
    .unwrap();
    let inputs = circ_batch::collect_inputs(&corpus).unwrap();

    let clean_dir = fresh_dir("corruption-clean-cache");
    let config =
        |dir: &Path| BatchConfig { cache_dir: Some(dir.to_path_buf()), ..BatchConfig::default() };
    let reference = run_batch(&inputs, &config(&clean_dir));

    let damaged_dir = fresh_dir("corruption-damaged-cache");
    seed_artifacts(&damaged_dir);
    for name in [ABS_CACHE_FILE, SOLVER_CACHE_FILE, PRED_STORE_FILE] {
        let path = damaged_dir.join(name);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("sum=", "sun=")).unwrap();
    }
    let damaged = run_batch(&inputs, &config(&damaged_dir));
    let verdicts = |r: &circ_batch::BatchReport| {
        r.rows.iter().map(|x| format!("{} {:?}", x.file, x.verdict)).collect::<Vec<_>>()
    };
    let fix = |v: Vec<String>| {
        v.into_iter()
            .map(|s| s.split('/').next_back().unwrap_or_default().to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(fix(verdicts(&reference)), fix(verdicts(&damaged)));
    assert_eq!(damaged.totals.pipeline.store_recoveries, 3);
    assert_eq!(damaged.warnings.len(), 3, "{:?}", damaged.warnings);
}
