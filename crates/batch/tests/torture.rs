//! The crash-point torture harness (`--features inject`): enumerate
//! every [`IoFaultPoint`] against a full batch run over a small
//! synthetic corpus and the shipped `examples/` corpus, and assert the
//! storage contract end to end —
//!
//! * the crashed run's *verdicts* are byte-identical to an
//!   undisturbed reference (storage faults cost warm-start time,
//!   never answers);
//! * the recovery run over the same cache directory again matches the
//!   reference and leaves no staging litter behind;
//! * the `store_recoveries` / `flush_errors` counters are invariant
//!   under `jobs`, because all storage I/O happens in the driver.
//!
//! A warm run that learns nothing writes nothing, which would leave
//! every write point unarmed. So each armed run starts from a
//! directory warmed on every input but one ([`HELD_OUT`]): it learns
//! that input's entries and must flush.

#![cfg(feature = "inject")]

use circ_batch::{collect_inputs, run_batch, BatchConfig, BatchReport};
use circ_governor::{FaultPlan, IoFaultPoint};
use std::fs;
use std::path::{Path, PathBuf};

const SAFE_SRC: &str = "global int x;\n#race x;\nthread t { loop { atomic { x = x + 1; } } }\n";
const RACY_SRC: &str = "global int y;\n#race y;\nthread t { loop { y = y + 1; } }\n";

fn corpus(name: &str) -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for i in 0..4 {
        let body = if i == 2 { RACY_SRC.to_string() } else { format!("{SAFE_SRC}// {i}\n") };
        fs::write(dir.join(format!("t{i}.nesl")), body).unwrap();
    }
    collect_inputs(&dir).unwrap()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(cache_dir: &Path, faults: FaultPlan, jobs: usize) -> BatchConfig {
    BatchConfig {
        cache_dir: Some(cache_dir.to_path_buf()),
        journal: Some(cache_dir.join("run.journal")),
        jobs,
        faults,
        ..BatchConfig::default()
    }
}

/// The part of a report a storage fault must never change: every
/// row's file, verdict, detail, and stage, in input order.
fn verdict_essence(report: &BatchReport) -> String {
    report
        .rows
        .iter()
        .map(|r| format!("{}\t{:?}\t{}\t{}\n", r.file, r.verdict, r.detail, r.stage))
        .collect()
}

/// Copies the persisted artifacts of `src` into a fresh directory so
/// two runs can start from identical warm state.
fn clone_dir(src: &Path, name: &str) -> PathBuf {
    let dst = fresh_dir(name);
    for entry in fs::read_dir(src).unwrap().flatten() {
        let from = entry.path();
        if from.is_file() {
            fs::copy(&from, dst.join(entry.file_name())).unwrap();
        }
    }
    dst
}

/// The input each armed run is the first to check. In both corpora
/// the third file's check learns entries no other file's does (the
/// racy `t2.nesl`; `test_and_set.nesl`), which the undisturbed warm
/// reference run asserts by rewriting the artifacts.
const HELD_OUT: usize = 2;

/// A fresh directory warmed by an undisturbed run over every input
/// but [`HELD_OUT`].
fn seed_all_but_held_out(inputs: &[PathBuf], name: &str, jobs: usize) -> PathBuf {
    let dir = fresh_dir(name);
    let mut warm = inputs.to_vec();
    warm.remove(HELD_OUT);
    let seeded = run_batch(&warm, &config(&dir, FaultPlan::inert(), jobs));
    assert!(seeded.warnings.is_empty(), "{name}: {:?}", seeded.warnings);
    dir
}

/// The bytes of the two persisted artifacts.
fn artifacts(dir: &Path) -> Vec<Vec<u8>> {
    ["abs.cache", "preds.store"].iter().map(|n| fs::read(dir.join(n)).unwrap_or_default()).collect()
}

fn tmp_litter(dir: &Path) -> Vec<String> {
    fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(circ_store::TMP_SUFFIX))
        .collect()
}

/// One crash point at a time, across the full batch lifecycle: warm
/// load → pool run with journaling → locked merge-flush. Whatever the
/// crash leaves behind, the crashed run and the recovery run must
/// both reproduce the reference verdicts exactly. Runs over the small
/// synthetic corpus and over the shipped `examples/` corpus at
/// `jobs` 1 and 4.
#[test]
fn every_crash_point_recovers_warm_or_cold_with_identical_verdicts() {
    assert_every_crash_point_recovers(&corpus("torture-corpus"), "torture", 1);
    let examples = collect_inputs(&examples_dir()).unwrap();
    assert!(examples.len() >= 4, "examples corpus went missing");
    for jobs in [1, 4] {
        assert_every_crash_point_recovers(&examples, &format!("torture-examples-j{jobs}"), jobs);
    }
}

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

fn assert_every_crash_point_recovers(inputs: &[PathBuf], tag: &str, jobs: usize) {
    // Reference: an undisturbed cold run. Every torture case starts
    // from the held-out seed directory, on which an undisturbed run
    // gives the same verdicts and rewrites the artifacts.
    let reference_dir = fresh_dir(&format!("{tag}-reference"));
    let reference = run_batch(inputs, &config(&reference_dir, FaultPlan::inert(), jobs));
    assert!(reference.warnings.is_empty(), "{tag}: {:?}", reference.warnings);
    let essence = verdict_essence(&reference);
    let seed_dir = seed_all_but_held_out(inputs, &format!("{tag}-seed"), jobs);
    let warm_dir = clone_dir(&seed_dir, &format!("{tag}-warm"));
    let warm = run_batch(inputs, &config(&warm_dir, FaultPlan::inert(), jobs));
    assert_eq!(verdict_essence(&warm), essence, "{tag}: warm reference diverged");
    assert_ne!(artifacts(&warm_dir), artifacts(&seed_dir), "{tag}: the armed runs would not flush");

    // The first occurrence of every point, plus the flush's lock: the
    // run's second lock acquisition (the first is the startup sweep's).
    let flush_lock = (IoFaultPoint::LockAcquire, 1);
    let cases = IoFaultPoint::ALL.into_iter().map(|point| (point, 0)).chain([flush_lock]);
    for (point, nth) in cases {
        let case = format!("{tag}/{}@{nth}", point.name());
        let dir = clone_dir(&seed_dir, &format!("{tag}-{}-{nth}", point.name()));
        let plan = FaultPlan::seeded(21).with_io_fault(point, nth);

        let crashed = run_batch(inputs, &config(&dir, plan, jobs));
        assert_eq!(verdict_essence(&crashed), essence, "{case}: crashed run changed a verdict");
        let observed = crashed.totals.pipeline.store_recoveries
            + crashed.totals.pipeline.flush_errors
            + u64::from(!crashed.warnings.is_empty());
        assert!(observed > 0, "{case}: the armed fault was never observed");
        if (point, nth) == flush_lock {
            let flush_errors = crashed.totals.pipeline.flush_errors;
            assert_eq!(flush_errors, 1, "{case}: the flush did not fail: {:?}", crashed.warnings);
        }

        let recovery = run_batch(inputs, &config(&dir, FaultPlan::inert(), jobs));
        assert_eq!(verdict_essence(&recovery), essence, "{case}: recovery run changed a verdict");
        assert_eq!(recovery.totals.pipeline.flush_errors, 0, "{case}");
        assert_eq!(tmp_litter(&dir), Vec::<String>::new(), "{case}");

        // And the directory is fully healed: one more clean run sees
        // no anomalies at all.
        let healed = run_batch(inputs, &config(&dir, FaultPlan::inert(), jobs));
        assert_eq!(verdict_essence(&healed), essence, "{case}");
        assert_eq!(healed.totals.pipeline.store_recoveries, 0, "{case}");
        assert!(healed.warnings.is_empty(), "{case}: {:?}", healed.warnings);
    }
}

/// The storage counters come from the driver, not the workers, so
/// `jobs = 1` and `jobs = 4` must report identical values for the
/// same crash point over identical starting state.
#[test]
fn storage_counters_are_jobs_invariant_under_injection() {
    let inputs = corpus("torture-jobs-corpus");
    let seed_dir = seed_all_but_held_out(&inputs, "torture-jobs-seed", 1);

    for point in IoFaultPoint::ALL {
        let d1 = clone_dir(&seed_dir, &format!("torture-j1-{}", point.name()));
        let d4 = clone_dir(&seed_dir, &format!("torture-j4-{}", point.name()));
        let r1 = run_batch(&inputs, &config(&d1, FaultPlan::seeded(21).with_io_fault(point, 0), 1));
        let r4 = run_batch(&inputs, &config(&d4, FaultPlan::seeded(21).with_io_fault(point, 0), 4));
        let observed = r1.totals.pipeline.store_recoveries
            + r1.totals.pipeline.flush_errors
            + u64::from(!r1.warnings.is_empty());
        assert!(observed > 0, "{}: the armed fault was never observed", point.name());
        assert_eq!(
            (r1.totals.pipeline.store_recoveries, r1.totals.pipeline.flush_errors),
            (r4.totals.pipeline.store_recoveries, r4.totals.pipeline.flush_errors),
            "{}: storage counters depend on jobs",
            point.name()
        );
    }
}

/// Sticky disk-full across the whole flush: every artifact write
/// fails, each with a warning naming the intact previous snapshot,
/// the prior on-disk state survives byte-for-byte, and the verdicts
/// equal an undisturbed run's.
#[test]
fn enospc_during_flush_degrades_to_logged_no_persist() {
    let inputs = corpus("torture-enospc-corpus");
    let reference_dir = fresh_dir("torture-enospc-reference");
    let reference = run_batch(&inputs, &config(&reference_dir, FaultPlan::inert(), 1));
    let dir = seed_all_but_held_out(&inputs, "torture-enospc", 1);
    let before: Vec<(String, String)> = ["abs.cache", "preds.store"]
        .iter()
        .map(|n| (n.to_string(), fs::read_to_string(dir.join(n)).unwrap()))
        .collect();

    // Arm NoSpace from the fourth write event on: the four journal
    // appends (one per corpus file) come first, then the flush's
    // two artifact writes both hit the full disk.
    let crashed = run_batch(
        &inputs,
        &config(&dir, FaultPlan::seeded(21).with_io_fault(IoFaultPoint::NoSpace, 4), 1),
    );
    assert!(crashed.totals.pipeline.flush_errors > 0);
    assert_eq!(
        verdict_essence(&crashed),
        verdict_essence(&reference),
        "a full disk changed a verdict"
    );
    assert!(
        crashed.warnings.iter().any(|w| w.contains("previous snapshot intact")),
        "{:?}",
        crashed.warnings
    );
    for (name, text) in before {
        assert_eq!(
            fs::read_to_string(dir.join(&name)).unwrap(),
            text,
            "{name}: previous snapshot was not left intact"
        );
    }
}
