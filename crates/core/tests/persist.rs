//! End-to-end cache persistence: a full CIRC run saved to disk must
//! warm a second process-like run (strictly fewer entailment misses,
//! identical verdict), and a damaged file must degrade to a cold
//! start — never a wrong verdict, never a crash. This is the
//! integration-level counterpart of the wire-format unit tests in
//! `circ_core::persist`.

use circ_core::persist::{load_abs_cache, save_abs_cache};
use circ_core::{circ_with_cache, AbsCache, CircConfig, CircOutcome};
use circ_ir::{figure1_cfa, MtProgram};
use std::fs;
use std::path::PathBuf;

fn figure1_program() -> MtProgram {
    let cfa = figure1_cfa();
    let x = cfa.var_by_name("x").unwrap();
    MtProgram::new(cfa, x)
}

fn tmp(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("persist-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs Figure 1 against the given seed and returns the outcome plus
/// the run's cache (for saving).
fn run(abs_seed: &circ_core::AbsSeed) -> (CircOutcome, AbsCache) {
    let cache = AbsCache::with_seed(abs_seed);
    let outcome = circ_with_cache(&figure1_program(), &CircConfig::default(), &cache);
    (outcome, cache)
}

#[test]
fn save_then_load_warms_a_second_run() {
    let dir = tmp("roundtrip");
    let abs_path = dir.join("abs.cache");

    let (cold, cache) = run(&circ_core::AbsSeed::empty());
    assert!(cold.is_safe(), "figure 1 must verify");
    let cold_misses = cold.stats().pipeline.abs.cache_misses;
    assert!(cold_misses > 0, "a cold run must miss");
    save_abs_cache(&abs_path, &cache.snapshot()).unwrap();

    let abs_seed = load_abs_cache(&abs_path).unwrap().expect("file just written");
    assert!(!abs_seed.is_empty());

    let (warm, warm_cache) = run(&abs_seed);
    assert!(warm.is_safe(), "warm verdict must match cold");
    let warm_misses = warm.stats().pipeline.abs.cache_misses;
    assert!(
        warm_misses < cold_misses,
        "warm run must miss strictly less ({warm_misses} vs {cold_misses})"
    );
    // Verdict essence is identical, not just the Safe/Unsafe bit.
    let (CircOutcome::Safe(c), CircOutcome::Safe(w)) = (&cold, &warm) else { unreachable!() };
    assert_eq!(format!("{:?}", c.preds), format!("{:?}", w.preds));
    assert_eq!(c.k, w.k);

    // Fixpoint: the warm run learned nothing the seed did not have.
    assert_eq!(warm_cache.snapshot().len(), abs_seed.len());
}

#[test]
fn every_single_bit_flip_is_detected() {
    let dir = tmp("bitflip");
    let abs_path = dir.join("abs.cache");
    let (cold, cache) = run(&circ_core::AbsSeed::empty());
    assert!(cold.is_safe());
    save_abs_cache(&abs_path, &cache.snapshot()).unwrap();

    let bytes = fs::read(&abs_path).unwrap();
    // Stride through the file at a prime step so every region gets hit.
    for ix in (0..bytes.len()).step_by(7) {
        let mut damaged = bytes.clone();
        damaged[ix] ^= 0x04;
        fs::write(&abs_path, &damaged).unwrap();
        assert!(load_abs_cache(&abs_path).is_err(), "flip at byte {ix} went undetected");
    }
}

#[test]
fn truncation_and_version_bumps_degrade_to_cold_start() {
    let dir = tmp("truncate");
    let abs_path = dir.join("abs.cache");
    let (_, cache) = run(&circ_core::AbsSeed::empty());
    save_abs_cache(&abs_path, &cache.snapshot()).unwrap();
    let text = fs::read_to_string(&abs_path).unwrap();

    for cut in [0, 1, text.len() / 2, text.len() - 1] {
        fs::write(&abs_path, &text[..cut]).unwrap();
        assert!(load_abs_cache(&abs_path).is_err(), "truncation at {cut} accepted");
    }
    fs::write(&abs_path, text.replace("format=1", "format=2")).unwrap();
    assert!(load_abs_cache(&abs_path).is_err(), "future format version accepted");
    fs::write(&abs_path, text.replace("atoms=1", "atoms=9")).unwrap();
    assert!(load_abs_cache(&abs_path).is_err(), "future atom encoding accepted");

    // The batch/CLI policy on any of those errors is an empty seed —
    // and an empty seed provably cannot change the verdict.
    let (after, _) = run(&circ_core::AbsSeed::empty());
    assert!(after.is_safe());
}

#[test]
fn repeated_runs_on_one_store_keep_its_size_flat() {
    let program = figure1_program();
    let (_, learned) = run(&circ_core::AbsSeed::empty());
    let seed = learned.snapshot();
    assert!(!seed.is_empty());
    // A warm cache, and a cold one shared by every run: after its first
    // run, each run asks only questions the cache already answers.
    for cache in [AbsCache::with_seed(&seed), AbsCache::new()] {
        let mut sizes = Vec::new();
        for _ in 0..20 {
            let outcome = circ_with_cache(&program, &CircConfig::default(), &cache);
            assert!(outcome.is_safe());
            sizes.push(cache.len());
        }
        assert_eq!(sizes[0], seed.len());
        assert!(sizes.iter().all(|&n| n == sizes[0]), "cache grew across runs: {sizes:?}");
    }
}
