//! End-to-end cache persistence: a full CIRC run saved to disk must
//! warm a second process-like run (strictly fewer entailment misses,
//! identical verdict), and a damaged file must degrade to a cold
//! start — never a wrong verdict, never a crash. This is the
//! integration-level counterpart of the wire-format unit tests in
//! `circ_core::persist` / `circ_smt::persist`.

use circ_core::persist::{load_abs_cache, save_abs_cache};
use circ_core::{circ_with_caches, AbsCache, CircConfig, CircOutcome, SolverPersist};
use circ_ir::{figure1_cfa, MtProgram};
use circ_smt::persist::{load_solver_cache, save_solver_cache};
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

/// Runs Figure 1 against the given seeds and returns the outcome plus
/// the run's cache and store (for saving).
fn run(
    abs_seed: &circ_core::AbsSeed,
    solver_seed: Vec<(circ_smt::Formula, circ_smt::SatResult)>,
) -> (CircOutcome, AbsCache, SolverPersist) {
    let program = figure1_program();
    let cache = AbsCache::with_seed(abs_seed);
    let persist = SolverPersist::with_seed(solver_seed);
    let outcome = circ_with_caches(&program, &CircConfig::default(), &cache, &persist);
    (outcome, cache, persist)
}

#[test]
fn save_then_load_warms_a_second_run() {
    let dir = tmp("roundtrip");
    let abs_path = dir.join("abs.cache");
    let solver_path = dir.join("solver.cache");

    let (cold, cache, persist) = run(&circ_core::AbsSeed::empty(), Vec::new());
    assert!(cold.is_safe(), "figure 1 must verify");
    let cold_misses = cold.stats().pipeline.abs.cache_misses;
    assert!(cold_misses > 0, "a cold run must miss");
    save_abs_cache(&abs_path, &cache.snapshot()).unwrap();
    save_solver_cache(&solver_path, &persist).unwrap();

    let abs_seed = load_abs_cache(&abs_path).unwrap().expect("file just written");
    let solver_seed = load_solver_cache(&solver_path).unwrap().expect("file just written");
    assert!(!abs_seed.is_empty());
    assert!(!solver_seed.is_empty());

    let (warm, warm_cache, _) = run(&abs_seed, solver_seed);
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
    let (cold, cache, persist) = run(&circ_core::AbsSeed::empty(), Vec::new());
    assert!(cold.is_safe());
    save_abs_cache(&abs_path, &cache.snapshot()).unwrap();
    let solver_path = dir.join("solver.cache");
    save_solver_cache(&solver_path, &persist).unwrap();

    let abs_bytes = fs::read(&abs_path).unwrap();
    // Exhaustive over bytes would be slow for the solver file; stride
    // through both at a prime step so every region gets hit.
    for (path, bytes, stride) in
        [(&abs_path, &abs_bytes, 7usize), (&solver_path, &fs::read(&solver_path).unwrap(), 13)]
    {
        for ix in (0..bytes.len()).step_by(stride) {
            let mut damaged = bytes.clone();
            damaged[ix] ^= 0x04;
            fs::write(path, &damaged).unwrap();
            let abs_ok = load_abs_cache(&abs_path);
            let solver_ok = load_solver_cache(&solver_path);
            assert!(
                abs_ok.is_err() || solver_ok.is_err(),
                "flip at byte {ix} of {} went undetected",
                path.display()
            );
        }
        fs::write(path, bytes).unwrap(); // restore for the other loop
    }
}

#[test]
fn truncation_and_version_bumps_degrade_to_cold_start() {
    let dir = tmp("truncate");
    let abs_path = dir.join("abs.cache");
    let (_, cache, _) = run(&circ_core::AbsSeed::empty(), Vec::new());
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
    let (after, _, _) = run(&circ_core::AbsSeed::empty(), Vec::new());
    assert!(after.is_safe());
}

#[test]
fn repeated_runs_on_one_store_keep_its_size_flat() {
    let program = figure1_program();
    let (_, _, learned) = run(&circ_core::AbsSeed::empty(), Vec::new());
    let warm = SolverPersist::with_seed(learned.merged_entries());
    assert!(!warm.is_empty());
    // A warm store, and an active store whose seed is empty: it
    // re-learns the same entries on every run, since seeds stay frozen.
    for store in [warm, SolverPersist::with_seed(Vec::new())] {
        let mut sizes = Vec::new();
        for _ in 0..20 {
            let outcome =
                circ_with_caches(&program, &CircConfig::default(), &AbsCache::new(), &store);
            assert!(outcome.is_safe());
            sizes.push(store.len());
            assert_eq!(store.len(), store.merged_entries().len());
        }
        assert!(sizes[0] > 0);
        assert!(sizes.iter().all(|&n| n == sizes[0]), "store grew across runs: {sizes:?}");
    }
}
