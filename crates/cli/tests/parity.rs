//! `circ check`, its `--row-json` child mode and `circ batch` answer a
//! file through one per-variable loop, so they must agree: the same
//! exit code, the same counters (the verbose mode's per-variable
//! `--stats --json` lines sum to the batch row's `pipeline`), and the
//! same budget semantics (the memory ceiling is split across race
//! variables in every mode).

use circ_stats::json::{self, Value};
use circ_stats::PipelineStats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn circ() -> Command {
    Command::new(env!("CARGO_BIN_EXE_circ"))
}

fn repo_dir(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 7-phase token ring whose writer increments three race variables,
/// `x`, `y` and `z`, instead of one.
fn ring3_source() -> String {
    let src = circ_nesc::token_ring_source(7);
    let with = |s: String, from: &str, to: &str| {
        assert!(s.contains(from), "token ring source no longer contains `{from}`");
        s.replace(from, to)
    };
    let src = with(src, "global int x;\n", "global int x;\nglobal int y;\nglobal int z;\n");
    let src = with(src, "#race x;\n", "#race x;\n#race y;\n#race z;\n");
    with(src, "x = x + 1;", "x = x + 1; y = y + 1; z = z + 1;")
}

fn write_ring3(dir: &Path) -> PathBuf {
    let path = dir.join("ring3.nesl");
    std::fs::write(&path, ring3_source()).unwrap();
    path
}

/// Runs `circ` and returns its exit code and stdout.
fn run(args: &[&str]) -> (i32, String) {
    let out = circ().args(args).output().expect("spawn circ");
    let code = out.status.code().expect("circ died on a signal");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The per-variable `--stats --json` lines of a `circ check` run.
fn var_stats(stdout: &str) -> Vec<PipelineStats> {
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| PipelineStats::from_json(&json::parse(l).unwrap()).unwrap())
        .collect()
}

/// The count fields of a pipeline block: no wall times, no rates.
fn counts(p: &PipelineStats) -> BTreeMap<String, u64> {
    let Value::Obj(fields) = json::parse(&p.to_json()).unwrap() else { panic!("not an object") };
    fields
        .into_iter()
        .filter(|(k, _)| !k.starts_with("time") && !k.ends_with("hit_rate"))
        .map(|(k, v)| (k, v.as_u64().unwrap()))
        .collect()
}

fn sum(stats: &[PipelineStats]) -> PipelineStats {
    let mut total = PipelineStats::default();
    for s in stats {
        total.add(s);
    }
    total
}

/// The one row of a single-file `circ batch --json` report.
fn batch_row(stdout: &str) -> Value {
    let report = json::parse(stdout.trim()).unwrap();
    let Some(Value::Arr(rows)) = report.get("rows") else { panic!("no rows: {stdout}") };
    assert_eq!(rows.len(), 1, "{stdout}");
    rows[0].clone()
}

#[test]
fn check_row_json_and_batch_agree_on_every_corpus_file() {
    let dir = tmp("parity-corpus");
    let mut files = Vec::new();
    for corpus in ["examples", "crates/nesc/models"] {
        files.extend(circ_batch::collect_inputs(&repo_dir(corpus)).unwrap());
    }
    files.push(write_ring3(&dir));
    for file in &files {
        let f = file.to_str().unwrap();
        let (check_exit, check_out) = run(&["check", f, "--stats", "--json"]);
        let (child_exit, child_out) = run(&["check", f, "--row-json"]);
        let (batch_exit, batch_out) = run(&["batch", f, "--json"]);
        assert_eq!(check_exit, batch_exit, "{f}: check vs batch exit\n{check_out}");
        assert_eq!(child_exit, batch_exit, "{f}: check --row-json vs batch exit\n{child_out}");
        let row = batch_row(&batch_out);
        let pipeline = PipelineStats::from_json(row.get("pipeline").unwrap()).unwrap();
        let lines = var_stats(&check_out);
        assert!(!lines.is_empty(), "{f}: no --json lines\n{check_out}");
        assert_eq!(counts(&sum(&lines)), counts(&pipeline), "{f}: summed check lines vs batch");
        let child = circ_batch::parse_row_json(child_out.trim()).unwrap();
        assert_eq!(counts(&child.pipeline), counts(&pipeline), "{f}: child row vs batch");
        let field = |k: &str| row.get(k).and_then(Value::as_str).unwrap().to_string();
        assert_eq!(child.verdict.name(), field("verdict"), "{f}");
        assert_eq!(child.detail, field("detail"), "{f}");
    }
}

/// The memory ceiling is one budget for the whole run: with three race
/// variables each gets a third, so twice the largest per-variable
/// charge of an unbudgeted run cannot cover them. (Charges are
/// deterministic, unlike wall time in a debug build.)
#[test]
fn ring3_memory_budget_splits_across_variables_in_both_check_modes() {
    let dir = tmp("parity-ring3-budget");
    let ring3 = write_ring3(&dir);
    let f = ring3.to_str().unwrap();
    let (exit, out) = run(&["check", f, "--json"]);
    assert_eq!(exit, 0, "{out}");
    let lines = var_stats(&out);
    assert_eq!(lines.len(), 3, "{out}");
    let budget = 2 * lines.iter().map(|p| p.mem_charged_bytes).max().unwrap();
    let budget = budget.to_string();
    for mode in [&[][..], &["--row-json"]] {
        let mut args = vec!["check", f, "--mem-limit-bytes", &budget];
        args.extend_from_slice(mode);
        let (exit, out) = run(&args);
        assert_eq!(exit, 3, "circ {args:?} must run out of its split budget:\n{out}");
    }
    let (exit, out) = run(&["batch", f, "--mem-limit-bytes", &budget]);
    assert_eq!(exit, 3, "{out}");
}

/// A wall-clock budget too large for the clock to represent is no
/// deadline, not a crash.
#[test]
fn unrepresentable_timeouts_mean_no_deadline() {
    let f = repo_dir("examples/test_and_set.nesl");
    let f = f.to_str().unwrap();
    let max = u64::MAX.to_string();
    for args in [
        &["check", f, "--timeout-secs", &max][..],
        &["check", f, "--row-json", "--timeout-millis", &max],
        &["batch", f, "--timeout-secs", &max],
        &["batch", f, "--timeout-secs", &max, "--isolate"],
    ] {
        let (exit, out) = run(args);
        assert_eq!(exit, 0, "circ {args:?}:\n{out}");
    }
}

/// `check` and `batch` refuse what they cannot act on instead of
/// silently ignoring it, and a memory ceiling that overflows 64 bits
/// is a usage error.
#[test]
fn check_rejects_batch_flags_and_overflowing_budgets() {
    let dir = tmp("parity-flags");
    let f = repo_dir("examples/test_and_set.nesl");
    let f = f.to_str().unwrap();
    let journal = dir.join("j.jsonl");
    let journal = journal.to_str().unwrap();
    for args in [
        &["check", f, "--journal", journal][..],
        &["check", f, "--journal", journal, "--resume"],
        &["check", f, "--isolate"],
        &["check", f, "--retries", "1"],
        &["check", f, "--jobs", "2"],
        &["check", f, "--mem-limit-mb", "17592186044416"],
        &["batch", f, "--asserts"],
        &["batch", f, "--print-acfa"],
        &["batch", f, "--trace"],
        &["batch", f, "--dot"],
        &["batch", f, "--stats"],
        &["batch", f, "--row-json"],
        &["batch", f, "--mem-limit-mb", "17592186044416"],
    ] {
        assert_eq!(run(args).0, 64, "circ {args:?}");
    }
    assert!(!Path::new(journal).exists(), "a rejected check must not write a journal");
}
