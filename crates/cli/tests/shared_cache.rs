//! Cross-process shared-cache tests against the real `circ` binary:
//! two concurrent batch runs flushing the same `--cache-dir` must
//! *compose* — the merged artifacts hold a superset of what each run
//! learned alone — because every flush is a read-merge-write cycle
//! under the directory's advisory lock. Before the locked merge this
//! was last-writer-wins, and whichever process flushed second erased
//! the other's learning.

#![cfg(unix)]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn circ() -> Command {
    Command::new(env!("CARGO_BIN_EXE_circ"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two corpora with *structurally different* programs, so each run
/// learns different cache entries — a clobbered flush is observable
/// as missing lines, not masked by identical learning.
fn corpus_a_dir() -> PathBuf {
    let dir = tmp("shared-corpus-a");
    std::fs::write(
        dir.join("safe.nesl"),
        "global int x;\n#race x;\nthread t { loop { atomic { x = x + 1; } } }\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("racy.nesl"),
        "global int y;\n#race y;\nthread t { loop { y = y + 1; } }\n",
    )
    .unwrap();
    dir
}

fn corpus_b_dir() -> PathBuf {
    let dir = tmp("shared-corpus-b");
    std::fs::write(
        dir.join("safe.nesl"),
        "global int buf;\nglobal int busy;\n#race buf;\n\
         thread sender {\n  local int won;\n  loop {\n    atomic {\n      won = busy;\n\
         \x20     if (busy == 0) { busy = 1; }\n    }\n    if (won == 0) {\n\
         \x20     buf = buf + 1;\n      busy = 0;\n    }\n  }\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("racy.nesl"),
        "global int z;\n#race z;\nthread t { loop { if (z == 0) { z = z + 2; } } }\n",
    )
    .unwrap();
    dir
}

/// The body entries of a checksummed snapshot artifact (everything
/// after the header line), as a set.
fn body_lines(path: &PathBuf) -> BTreeSet<String> {
    std::fs::read_to_string(path).unwrap_or_default().lines().skip(1).map(str::to_string).collect()
}

/// Two `circ batch` processes, launched together against one shared
/// cache directory, must both exit cleanly and leave merged artifacts
/// that are a superset of what each run persists when it runs alone.
#[test]
fn concurrent_batches_sharing_a_cache_dir_lose_no_entries() {
    let corpus_a = corpus_a_dir();
    let corpus_b = corpus_b_dir();

    // Solo baselines: what each corpus persists into its own
    // directory with nobody else around.
    let solo_a = tmp("shared-solo-a");
    let solo_b = tmp("shared-solo-b");
    for (corpus, dir) in [(&corpus_a, &solo_a), (&corpus_b, &solo_b)] {
        let out = circ().args(["batch"]).arg(corpus).arg("--cache-dir").arg(dir).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "a racy corpus exits 1");
    }

    // The two corpora must learn *different* entries, or clobbering
    // would be unobservable and the superset check below vacuous.
    assert_ne!(
        body_lines(&solo_a.join("abs.cache")),
        body_lines(&solo_b.join("abs.cache")),
        "corpora learned identical entries; the merge pin has no teeth"
    );

    // The contended run: both processes at once, one shared dir.
    let shared = tmp("shared-cache");
    let child_a =
        circ().args(["batch"]).arg(&corpus_a).arg("--cache-dir").arg(&shared).spawn().unwrap();
    let child_b =
        circ().args(["batch"]).arg(&corpus_b).arg("--cache-dir").arg(&shared).spawn().unwrap();
    let out_a = child_a.wait_with_output().unwrap();
    let out_b = child_b.wait_with_output().unwrap();
    assert_eq!(out_a.status.code(), Some(1));
    assert_eq!(out_b.status.code(), Some(1));

    for name in ["abs.cache", "preds.store"] {
        let merged = body_lines(&shared.join(name));
        for (tag, solo) in [("a", &solo_a), ("b", &solo_b)] {
            let solo_entries = body_lines(&solo.join(name));
            assert!(!solo_entries.is_empty(), "{name}: solo run {tag} persisted nothing");
            assert!(
                solo_entries.is_subset(&merged),
                "{name}: entries learned by solo run {tag} are missing from the shared \
                 directory — flushes clobbered instead of merging (missing: {:?})",
                solo_entries.difference(&merged).collect::<Vec<_>>()
            );
        }
    }
}

/// `circ check --cache-dir` warm-starts through the same loader as
/// batch and serve: garbage in `preds.store` degrades to a warned cold
/// start with the verdict unchanged, and the flush at exit replaces
/// the damaged file, so the next run seeds from it without a warning.
#[test]
fn check_over_a_garbage_pred_store_warns_and_heals() {
    let dir = tmp("check-garbage-preds");
    let model = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/test_and_set.nesl");
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    std::fs::write(cache.join("preds.store"), "circ-pred-store garbage\n\u{1}").unwrap();
    let run = || {
        let out = circ()
            .arg("check")
            .arg(&model)
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--json")
            .output()
            .expect("spawn circ");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code(), stdout, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let preds_seeded = |stdout: &str| -> u64 {
        let tail = &stdout[stdout.find("\"preds_seeded\":").expect(stdout) + 15..];
        tail[..tail.find([',', '}']).unwrap()].parse().unwrap()
    };

    let (code, stdout, stderr) = run();
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stderr.contains("warning: ignoring predicate store"), "{stderr}");
    assert!(stderr.contains("preds.store"), "{stderr}");
    assert_eq!(preds_seeded(&stdout), 0, "a damaged store must not seed: {stdout}");

    let (code, stdout, stderr) = run();
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(!stderr.contains("warning"), "the flush must have healed the store: {stderr}");
    assert!(preds_seeded(&stdout) > 0, "the healed store must seed: {stdout}");
}
