//! The flush rule for cache directories: a run that loaded every
//! artifact clean and learned nothing writes nothing — no lock, no
//! re-read, no rewrite. Any other run (one that learns something, or
//! that found an artifact missing, damaged, or beside a stale staging
//! file) takes the locked read-merge-write flush as before.

use circ_batch::{
    collect_inputs, flush_caches_in, load_caches, run_batch, BatchConfig, BatchReport,
    ABS_CACHE_FILE, PRED_STORE_FILE,
};
use circ_core::pred_store::{self, PredStore};
use circ_core::SolverPersist;
use circ_store::Store;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

const ARTIFACTS: [&str; 2] = [ABS_CACHE_FILE, PRED_STORE_FILE];

fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn examples() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let inputs = collect_inputs(&dir).unwrap();
    assert!(inputs.len() >= 4, "examples corpus went missing");
    inputs
}

fn config(dir: &Path, jobs: usize) -> BatchConfig {
    BatchConfig { cache_dir: Some(dir.to_path_buf()), jobs, ..BatchConfig::default() }
}

/// Each artifact's bytes and modification time.
fn stamps(dir: &Path) -> Vec<(Vec<u8>, SystemTime)> {
    ARTIFACTS
        .iter()
        .map(|n| {
            let path = dir.join(n);
            (fs::read(&path).unwrap(), fs::metadata(&path).unwrap().modified().unwrap())
        })
        .collect()
}

/// The artifacts whose bytes or modification time differ from `before`.
fn changed(dir: &Path, before: &[(Vec<u8>, SystemTime)]) -> Vec<&'static str> {
    let after = stamps(dir);
    ARTIFACTS
        .iter()
        .zip(before.iter().zip(&after))
        .filter(|(_, (b, a))| b != a)
        .map(|(n, _)| *n)
        .collect()
}

/// An artifact's entry lines (everything after the checksummed header).
fn entries(dir: &Path, name: &str) -> Vec<String> {
    fs::read_to_string(dir.join(name)).unwrap().lines().skip(1).map(str::to_string).collect()
}

/// Sleeps past the file-timestamp granularity, so a rewrite after it
/// shows as a new modification time.
fn tick() {
    std::thread::sleep(Duration::from_millis(30));
}

fn saved_equals_seeded(report: &BatchReport) -> bool {
    let c = report.cache.as_ref().expect("cache dir was set");
    (c.abs_saved, c.preds_saved) == (c.abs_seeded, c.preds_seeded)
}

#[test]
fn a_second_warm_run_leaves_every_artifact_untouched() {
    let inputs = examples();
    for jobs in [1, 4] {
        let dir = fresh_dir(&format!("warm-flush-noop-j{jobs}"));
        let cold = run_batch(&inputs, &config(&dir, jobs));
        let before = stamps(&dir);
        for run in ["first", "second"] {
            tick();
            let warm = run_batch(&inputs, &config(&dir, jobs));
            assert_eq!(changed(&dir, &before), Vec::<&str>::new(), "jobs {jobs}: {run} warm run");
            assert!(warm.warnings.is_empty(), "{:?}", warm.warnings);
            assert_eq!(warm.totals.pipeline.flush_errors, 0);
            assert!(saved_equals_seeded(&warm), "{:?}", warm.cache);
            assert_eq!(
                warm.cache.as_ref().unwrap().abs_saved,
                cold.cache.as_ref().unwrap().abs_saved
            );
        }
    }
}

#[test]
fn a_warm_run_over_a_new_file_rewrites_and_merges() {
    let inputs = examples();
    let held_out =
        inputs.iter().position(|p| p.ends_with("test_and_set.nesl")).expect("test_and_set.nesl");
    let mut known = inputs.clone();
    known.remove(held_out);
    let dir = fresh_dir("warm-flush-new-file");
    run_batch(&known, &config(&dir, 1));
    let before = stamps(&dir);
    let old: Vec<Vec<String>> = ARTIFACTS.iter().map(|n| entries(&dir, n)).collect();

    tick();
    let warm = run_batch(&inputs, &config(&dir, 1));
    let c = warm.cache.as_ref().unwrap();
    assert!(c.abs_saved > c.abs_seeded, "{c:?}");
    assert!(c.preds_saved > c.preds_seeded, "{c:?}");
    assert_eq!(changed(&dir, &before), ARTIFACTS.to_vec(), "every artifact is rewritten");
    for (name, old) in ARTIFACTS.iter().zip(&old) {
        let merged = entries(&dir, name);
        assert!(old.iter().all(|e| merged.contains(e)), "{name} lost an entry in the merge");
        assert!(merged.len() > old.len(), "{name} gained no entry");
    }
}

/// Directories written before solver answers stopped being persisted
/// still hold a `solver.cache`. Whether it is intact or garbage, it is
/// never read (no warning, no recovery) and never rewritten, the
/// verdicts equal a cold run's, and a warm run over such a directory
/// still leaves the live artifacts untouched.
#[test]
fn a_legacy_solver_cache_is_neither_read_nor_rewritten() {
    let inputs = examples();
    let verdicts = |r: &BatchReport| r.rows.iter().map(|x| x.verdict).collect::<Vec<_>>();
    let cold = run_batch(&inputs, &BatchConfig::default());
    let dir = fresh_dir("warm-flush-legacy-solver");
    let warmup = run_batch(&inputs, &config(&dir, 1));
    assert_eq!(verdicts(&warmup), verdicts(&cold));
    let mut written: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| !n.starts_with('.'))
        .collect();
    written.sort();
    assert_eq!(written, ARTIFACTS, "a cold run wrote something besides the two artifacts");
    let legacy = dir.join("solver.cache");

    // The old envelope and line syntax: an NNF key, then `U` (unsat)
    // or `S n (svar val)*n` (a model).
    let valid = circ_core::persist::render_cache_file(
        "circ-solver-cache",
        1,
        vec!["& 2 A = 1 0 1 0 A = 1 0 1 -1 U".into(), "A < 1 2 1 -3 S 1 2 0".into()],
    );
    for (case, text) in [("valid", valid.as_str()), ("garbage", "not a cache\n\x00")] {
        fs::write(&legacy, text).unwrap();
        let loaded = load_caches(&dir);
        assert_eq!(
            (loaded.recovered, loaded.warnings.len()),
            (0, 0),
            "{case}: {:?}",
            loaded.warnings
        );
        assert!(loaded.solver_seed.is_empty(), "{case}");
        let before = stamps(&dir);
        tick();
        let warm = run_batch(&inputs, &config(&dir, 1));
        assert_eq!(verdicts(&warm), verdicts(&cold), "{case}");
        assert_eq!(warm.totals.pipeline.store_recoveries, 0, "{case}");
        assert!(warm.warnings.is_empty(), "{case}: {:?}", warm.warnings);
        assert_eq!(changed(&dir, &before), Vec::<&str>::new(), "{case}");
        assert_eq!(fs::read(&legacy).unwrap(), text.as_bytes(), "{case}: legacy file rewritten");
    }
}

/// A run whose query caches answer every question from their seeds
/// but which records new predicate entries has learned something.
#[test]
fn a_run_that_learns_only_predicates_still_flushes() {
    let inputs = examples();
    let dir = fresh_dir("warm-flush-preds-only");
    run_batch(&inputs, &BatchConfig { pred_store: false, ..config(&dir, 1) });
    // An intact but empty predicate store beside the warm caches.
    run_batch(&[], &config(&dir, 1));
    assert!(entries(&dir, PRED_STORE_FILE).is_empty());
    let before = stamps(&dir);

    tick();
    let run = run_batch(&inputs, &config(&dir, 1));
    let c = run.cache.as_ref().unwrap();
    assert_eq!(c.abs_saved, c.abs_seeded, "{c:?}");
    assert!(c.preds_saved > c.preds_seeded, "{c:?}");
    assert!(changed(&dir, &before).contains(&PRED_STORE_FILE), "the new entries were not saved");
    assert_eq!(entries(&dir, PRED_STORE_FILE).len(), c.preds_saved);
}

/// A run that learns nothing (here: over no input at all) still
/// flushes when it found a damaged or missing artifact, or swept a
/// stale staging file, so the next run starts clean.
#[test]
fn a_run_that_learns_nothing_still_heals_the_directory() {
    let inputs = examples();
    let warmed = fresh_dir("warm-flush-heal-seed");
    run_batch(&inputs, &config(&warmed, 1));

    for name in ARTIFACTS {
        for damage in ["garbage", "missing"] {
            let case = format!("{name}/{damage}");
            let dir = fresh_dir(&format!("warm-flush-heal-{name}-{damage}"));
            for n in ARTIFACTS {
                fs::copy(warmed.join(n), dir.join(n)).unwrap();
            }
            if damage == "garbage" {
                fs::write(dir.join(name), "not a cache\n").unwrap();
            } else {
                fs::remove_file(dir.join(name)).unwrap();
            }
            let healing = run_batch(&[], &config(&dir, 1));
            let expected_recoveries = u64::from(damage == "garbage");
            assert_eq!(healing.totals.pipeline.store_recoveries, expected_recoveries, "{case}");
            assert_eq!(healing.totals.pipeline.flush_errors, 0, "{case}");

            let next = run_batch(&[], &config(&dir, 1));
            assert_eq!(next.totals.pipeline.store_recoveries, 0, "{case}");
            assert!(next.warnings.is_empty(), "{case}: {:?}", next.warnings);
            assert!(dir.join(name).is_file(), "{case}: the artifact was not rewritten");
        }
    }

    let dir = fresh_dir("warm-flush-heal-stale-tmp");
    for n in ARTIFACTS {
        fs::copy(warmed.join(n), dir.join(n)).unwrap();
    }
    fs::write(dir.join(format!("abs.cache{}", circ_store::TMP_SUFFIX)), "torn").unwrap();
    let before = stamps(&dir);
    tick();
    let sweeping = run_batch(&[], &config(&dir, 1));
    assert_eq!(sweeping.totals.pipeline.store_recoveries, 1);
    assert_eq!(changed(&dir, &before), ARTIFACTS.to_vec(), "a sweeping run must flush");
    let contents: Vec<Vec<u8>> = before.into_iter().map(|(bytes, _)| bytes).collect();
    let rewritten: Vec<Vec<u8>> = stamps(&dir).into_iter().map(|(bytes, _)| bytes).collect();
    assert!(contents == rewritten, "the flush changed an artifact's content");
}

/// A peer sharing the directory updates a predicate-store entry after
/// our run loaded it. Our run then learns nothing; its end must not
/// write our stale copy of that entry back over the peer's.
///
/// The run checks its one file in a scripted `--isolate` child (so the
/// parent learns nothing), and that child is where the peer's flush
/// lands: it moves the peer's freshly flushed `preds.store` into the
/// shared directory, between our load and our flush.
#[cfg(unix)]
#[test]
fn a_no_op_run_keeps_a_peers_predicate_store_update() {
    use std::os::unix::fs::PermissionsExt;
    let inputs = examples();
    let root = fresh_dir("warm-flush-peer");
    let dir = root.join("cache");
    run_batch(&inputs, &config(&dir, 1));

    // The peer loaded the same directory and re-recorded one entry
    // with a different discovery cost.
    let peer_dir = root.join("peer");
    fs::create_dir_all(&peer_dir).unwrap();
    for n in ARTIFACTS {
        fs::copy(dir.join(n), peer_dir.join(n)).unwrap();
    }
    let first = entries(&dir, PRED_STORE_FILE)[0].clone();
    let mut fields = first.split(' ').skip(1);
    let mut key = || u64::from_str_radix(fields.next().unwrap(), 16).unwrap();
    let (digest, fp) = (key(), key());
    let loaded = pred_store::load_pred_store(&dir.join(PRED_STORE_FILE)).unwrap().unwrap();
    let mut entry = loaded.lookup(digest, fp).expect("the first line's key").clone();
    entry.rounds += 100;
    let mut peer = PredStore::new();
    peer.record(digest, fp, entry.clone());
    let peer_caches = load_caches(&peer_dir);
    let flushed = flush_caches_in(
        &Store::real(),
        &peer_dir,
        &peer_caches.abs_seed,
        &SolverPersist::inert(),
        Some(&peer),
    );
    assert_eq!(flushed.flush_errors, 0, "{:?}", flushed.warnings);

    let row = circ_batch::render_row_json(&circ_batch::FileRow::new(
        "ignored-by-parent".into(),
        circ_batch::Verdict::Safe,
        "1 race variable(s) race-free".into(),
    ));
    let child = root.join("child.sh");
    let peer_store = peer_dir.join(PRED_STORE_FILE);
    let shared_store = dir.join(PRED_STORE_FILE);
    fs::write(
        &child,
        format!(
            "#!/bin/sh\nmv '{}' '{}'\necho '{row}'\n",
            peer_store.display(),
            shared_store.display()
        ),
    )
    .unwrap();
    fs::set_permissions(&child, fs::Permissions::from_mode(0o755)).unwrap();

    let tas = inputs.iter().find(|p| p.ends_with("test_and_set.nesl")).unwrap().clone();
    let cfg = BatchConfig { isolate: true, isolate_binary: Some(child), ..config(&dir, 1) };
    let report = run_batch(&[tas], &cfg);
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    assert!(!peer_store.exists(), "the scripted child did not run");

    let on_disk = pred_store::load_pred_store(&shared_store).unwrap().unwrap();
    assert_eq!(on_disk.lookup(digest, fp), Some(&entry), "the peer's update was reverted");
}
