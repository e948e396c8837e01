//! The crash-safety journal behind `circ batch --journal / --resume`.
//!
//! The journal is an append-only JSONL file: one self-describing line
//! per *completed* file, written with a single `write_all` so a crash
//! can tear at most the final line. Entries are keyed by a content
//! digest (FNV-1a over the file's bytes, the same hash the cache
//! snapshots use for their checksums), not by path: a resumed run
//! replays a row whenever an input's *bytes* match a journaled check,
//! so renames are free and edited files are transparently re-checked.
//!
//! Damage tolerance mirrors the cache loaders: a line that does not
//! parse — torn by a crash mid-write, truncated by a full disk,
//! hand-mangled — degrades to a warning and a re-check of whatever
//! file it described. A corrupt journal can cost time, never a wrong
//! verdict, because replay only ever substitutes a row that a real
//! check produced for identical input bytes.
//!
//! Rows drained by a graceful shutdown (`cancelled`) are *not*
//! journaled: their absence is what makes `--resume` re-check them.

use crate::{row_fields, row_from_json, str_field, FileRow};
use circ_ir::digest::fnv1a64;
use circ_stats::json::{self, Obj, Value};
use circ_stats::PipelineStats;
use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// Format tag carried by every line; bump [`JOURNAL_VERSION`] on any
/// incompatible change so old journals degrade to re-checks instead of
/// misparsing.
pub const JOURNAL_TAG: &str = "circ-batch";
/// Current journal line format version. v4 added the storage-layer
/// counters (`store_recoveries`/`flush_errors`) to the embedded
/// pipeline block; v3 added the `stage` attribution field and the
/// triage pipeline counters; v2 added the `config` fingerprint field.
/// Older lines degrade to re-checks.
pub const JOURNAL_VERSION: u64 = 4;

/// Content digest of a file's bytes (FNV-1a 64, shared with the cache
/// snapshot checksums).
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    fnv1a64(bytes)
}

/// Fingerprint of the batch configuration knobs that change what a
/// check *means*: a journaled row is only replayable when the resumed
/// run would have produced it. Identical input bytes checked under a
/// different `--k`, `--omega`, cache policy, or budget are a different
/// check, so `--resume` must re-run them, not replay them.
pub fn config_fingerprint(
    omega: bool,
    initial_k: u32,
    use_cache: bool,
    timeout: Option<Duration>,
    mem_limit_bytes: Option<u64>,
    triage: bool,
) -> u64 {
    let timeout_ms = timeout.map(|t| t.as_millis().to_string()).unwrap_or_else(|| "-".into());
    let mem = mem_limit_bytes.map(|m| m.to_string()).unwrap_or_else(|| "-".into());
    let text = format!(
        "batch-config omega={omega} k={initial_k} cache={use_cache} \
         timeout_ms={timeout_ms} mem_bytes={mem} triage={triage}"
    );
    fnv1a64(text.as_bytes())
}

/// One replayable journal entry: the digest of the input bytes it was
/// computed from, the fingerprint of the configuration it was checked
/// under, plus the completed row.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// FNV-1a digest of the checked file's bytes.
    pub digest: u64,
    /// [`config_fingerprint`] of the run that produced the row.
    pub config: u64,
    /// The completed row (verdict, detail, wall time, counters).
    pub row: FileRow,
}

/// Renders one journal line (with trailing newline) for a completed
/// row. The row's wire fields round-trip exactly: integers verbatim,
/// floats through the same `{:.6}` formatting the report uses.
pub fn render_line(row: &FileRow, digest: u64, config: u64) -> String {
    let header = Obj::default()
        .str("journal", JOURNAL_TAG)
        .u64("v", JOURNAL_VERSION)
        .str("digest", &format!("{digest:016x}"))
        .str("config", &format!("{config:016x}"));
    let mut line = row_fields(header, row)
        .u64("retries", row.retries)
        .f64("time_s", row.time_s)
        .raw("pipeline", &row.pipeline.to_json())
        .finish();
    line.push('\n');
    line
}

/// Parses one journal line back into an entry. Any structural problem
/// is an `Err` describing it; the caller degrades to a re-check.
pub fn parse_line(line: &str) -> Result<JournalEntry, String> {
    let v = json::parse(line)?;
    let u64_field = |key: &str| -> Result<u64, String> {
        v.get(key).and_then(Value::as_u64).ok_or(format!("missing counter `{key}`"))
    };
    let hex_field = |key: &str| -> Result<u64, String> {
        u64::from_str_radix(str_field(&v, key)?, 16).map_err(|_| format!("bad {key} field"))
    };
    if str_field(&v, "journal")? != JOURNAL_TAG {
        return Err("not a circ-batch journal line".into());
    }
    if u64_field("v")? != JOURNAL_VERSION {
        return Err(format!("unsupported journal version (want {JOURNAL_VERSION})"));
    }
    let (digest, config) = (hex_field("digest")?, hex_field("config")?);
    let mut row = row_from_json(&v)?;
    row.retries = u64_field("retries")?;
    Ok(JournalEntry { digest, config, row })
}

/// Rebuilds [`PipelineStats`] from its `to_json` rendering; see
/// [`PipelineStats::from_json`]. Only `perfbench/` still calls this;
/// delete it once perfbench calls `PipelineStats::from_json`.
pub fn pipeline_from_json(v: &Value) -> Result<PipelineStats, String> {
    PipelineStats::from_json(v)
}

/// An open journal the supervisor appends completed rows to.
///
/// Each entry is one `write_all` of one line followed by a flush, so
/// concurrent workers interleave *lines*, never bytes, and a crash
/// tears at most the final line — which the loader then degrades to a
/// re-check.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<fs::File>,
    io: circ_store::Store,
}

impl Journal {
    /// Opens a fresh journal, truncating any previous run's file (a
    /// non-resume run must not leave stale entries for `--resume` to
    /// trust later).
    pub fn create(path: &Path) -> std::io::Result<Journal> {
        Journal::create_in(&circ_store::Store::real(), path)
    }

    /// [`Journal::create`] through an explicit storage handle, so the
    /// torture harness can fail appends deterministically.
    pub fn create_in(io: &circ_store::Store, path: &Path) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        Ok(Journal { file: Mutex::new(fs::File::create(path)?), io: io.clone() })
    }

    /// Opens an existing journal for appending (the `--resume` path);
    /// creates it if missing.
    pub fn open_append(path: &Path) -> std::io::Result<Journal> {
        Journal::open_append_in(&circ_store::Store::real(), path)
    }

    /// [`Journal::open_append`] through an explicit storage handle.
    pub fn open_append_in(io: &circ_store::Store, path: &Path) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        Ok(Journal {
            file: Mutex::new(fs::OpenOptions::new().create(true).append(true).open(path)?),
            io: io.clone(),
        })
    }

    /// Appends one completed row keyed by `digest`, stamped with the
    /// run's configuration fingerprint. One write-and-flush per line
    /// through the storage layer: concurrent workers interleave
    /// lines, never bytes, and an injected append fault tears at most
    /// this one line (which a later `--resume` degrades to a
    /// re-check).
    pub fn append(&self, row: &FileRow, digest: u64, config: u64) -> std::io::Result<()> {
        let line = render_line(row, digest, config);
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        self.io.append_line(&mut f, &line)
    }
}

/// Loads a journal for `--resume`: a map from content digest to the
/// *last* entry for that digest, plus one warning per line that could
/// not be used. A missing file is an empty (but noted) journal; every
/// unusable line means only that its file gets re-checked.
///
/// Rows recorded under a configuration fingerprint other than
/// `expected_config` are degraded to warnings, not replayed: the same
/// bytes checked under a different `--k`/`--omega`/budget are a
/// different check, and resuming must re-run them.
pub fn load(path: &Path, expected_config: u64) -> (HashMap<u64, JournalEntry>, Vec<String>) {
    let mut entries = HashMap::new();
    let mut warnings = Vec::new();
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            warnings.push(format!(
                "journal `{}`: cannot read ({e}); resuming from nothing",
                path.display()
            ));
            return (entries, warnings);
        }
    };
    let text = String::from_utf8_lossy(&bytes);
    for (ix, line) in text.split('\n').enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(entry) if entry.config != expected_config => {
                // A mismatched row must also shadow any earlier match
                // for the same digest: the *last* check of those bytes
                // was under a different config, so trust nothing.
                entries.remove(&entry.digest);
                warnings.push(format!(
                    "journal `{}` line {}: row was checked under a different configuration; \
                     that file will be re-checked",
                    path.display(),
                    ix + 1
                ));
            }
            Ok(entry) => {
                entries.insert(entry.digest, entry);
            }
            Err(e) => warnings.push(format!(
                "journal `{}` line {}: {e}; that file will be re-checked",
                path.display(),
                ix + 1
            )),
        }
    }
    (entries, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{golden_row, ROW_PIPELINE_GOLDEN};
    use crate::Verdict;
    use circ_stats::{AbsCounters, PhaseTimes, SolverCounters};
    use std::time::Duration;

    fn sample_row() -> FileRow {
        FileRow {
            file: "dir/a \"quoted\".nesl".into(),
            verdict: Verdict::Race,
            detail: "race on x: 2 threads, 7 steps".into(),
            stage: "sched+circ".into(),
            time_s: 0.037125,
            pipeline: PipelineStats {
                outer_rounds: 3,
                arg_nodes: 1234,
                mem_charged_bytes: u64::MAX,
                phases: PhaseTimes { reach: Duration::from_micros(1500), ..Default::default() },
                solver: SolverCounters {
                    queries: 9,
                    cache_hits: 4,
                    cache_misses: 5,
                    theory_rounds: 2,
                },
                abs: AbsCounters { queries: 11, cache_hits: 6, cache_misses: 5 },
                ..Default::default()
            },
            retries: 2,
            isolated_crashes: 0,
            resumed: false,
            cancelled: false,
        }
    }

    const CFG: u64 = 0x0123_4567_89ab_cdef;

    #[test]
    fn lines_round_trip_byte_stably() {
        let row = sample_row();
        let line = render_line(&row, 0xdead_beef_0042_0007, CFG);
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1, "one line per entry");
        let entry = parse_line(line.trim_end()).unwrap();
        assert_eq!(entry.digest, 0xdead_beef_0042_0007);
        assert_eq!(entry.config, CFG);
        assert_eq!(entry.row.file, row.file);
        assert_eq!(entry.row.verdict, row.verdict);
        assert_eq!(entry.row.detail, row.detail);
        assert_eq!(entry.row.stage, "sched+circ");
        assert_eq!(entry.row.retries, 2);
        assert_eq!(entry.row.pipeline, row.pipeline, "counters must round-trip exactly");
        // Render-of-parse is byte-identical: the property the resumed
        // report's byte-stability rests on.
        assert_eq!(render_line(&entry.row, entry.digest, entry.config), line);
    }

    #[test]
    fn loader_keeps_last_entry_and_degrades_damage() {
        let dir = std::env::temp_dir().join(format!("circ-journal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");

        let j = Journal::create(&path).unwrap();
        let mut row = sample_row();
        j.append(&row, 1, CFG).unwrap();
        row.verdict = Verdict::Safe;
        row.detail = "1 race variable(s) race-free".into();
        j.append(&row, 1, CFG).unwrap(); // same digest: last wins
        j.append(&row, 2, CFG).unwrap();
        drop(j);

        // Tear the tail: simulate a crash mid-append.
        let mut bytes = fs::read(&path).unwrap();
        let keep = bytes.len() - 40;
        bytes.truncate(keep);
        bytes.extend_from_slice(b"\n{\"not\":\"a journal line\"}\n");
        fs::write(&path, &bytes).unwrap();

        let (entries, warnings) = load(&path, CFG);
        assert_eq!(entries.len(), 1, "torn digest-2 line must drop out");
        assert_eq!(entries[&1].row.verdict, Verdict::Safe, "last entry for digest 1 wins");
        assert_eq!(warnings.len(), 2, "torn line + wrong-tag line: {warnings:?}");
        assert!(warnings.iter().all(|w| w.contains("re-checked")), "{warnings:?}");

        let (none, warnings) = load(&dir.join("missing.journal"), CFG);
        assert!(none.is_empty());
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn config_mismatch_degrades_to_recheck() {
        let dir = std::env::temp_dir().join(format!("circ-journal-cfg-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");

        let j = Journal::create(&path).unwrap();
        let row = sample_row();
        j.append(&row, 1, CFG).unwrap();
        j.append(&row, 2, CFG ^ 1).unwrap(); // foreign config
        j.append(&row, 3, CFG).unwrap();
        j.append(&row, 3, CFG ^ 1).unwrap(); // last check of digest 3 was foreign
        drop(j);

        let (entries, warnings) = load(&path, CFG);
        assert!(entries.contains_key(&1));
        assert!(!entries.contains_key(&2), "foreign-config row must not replay");
        assert!(!entries.contains_key(&3), "a later foreign check shadows the earlier match");
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings.iter().all(|w| w.contains("re-checked")), "{warnings:?}");

        // Resuming under the *other* config sees the mirror image.
        let (entries, _) = load(&path, CFG ^ 1);
        assert!(!entries.contains_key(&1));
        assert!(entries.contains_key(&2));
        assert!(entries.contains_key(&3));
    }

    #[test]
    fn config_fingerprint_separates_knobs() {
        let base = config_fingerprint(false, 1, true, None, None, false);
        assert_eq!(base, config_fingerprint(false, 1, true, None, None, false), "deterministic");
        assert_ne!(base, config_fingerprint(true, 1, true, None, None, false), "omega");
        assert_ne!(base, config_fingerprint(false, 2, true, None, None, false), "initial k");
        assert_ne!(base, config_fingerprint(false, 1, false, None, None, false), "cache policy");
        assert_ne!(
            base,
            config_fingerprint(false, 1, true, Some(Duration::from_secs(5)), None, false),
            "timeout"
        );
        assert_ne!(
            base,
            config_fingerprint(false, 1, true, None, Some(1 << 20), false),
            "mem limit"
        );
        assert_ne!(base, config_fingerprint(false, 1, true, None, None, true), "triage");
    }

    #[test]
    fn line_matches_the_pinned_v4_bytes() {
        let line = render_line(&golden_row(), 0xdead_beef_0042_0007, CFG);
        let want = [
            r#"{"journal":"circ-batch","v":4,"digest":"deadbeef00420007","#,
            r#""config":"0123456789abcdef","file":"dir/a \"quoted\".nesl","verdict":"race","#,
            r#""detail":"race on x: 2 threads, 7 steps\t\u0001 é","stage":"sched+circ","#,
            r#""retries":2,"time_s":0.037125,"pipeline":"#,
            ROW_PIPELINE_GOLDEN,
            "}\n",
        ];
        assert_eq!(line, want.concat());
        let entry = parse_line(line.trim_end()).unwrap();
        assert_eq!(render_line(&entry.row, entry.digest, entry.config), line);
    }

    #[test]
    fn version_skew_is_rejected_not_misread() {
        let line = render_line(&sample_row(), 7, CFG).replace("\"v\":4", "\"v\":5");
        let err = parse_line(line.trim_end()).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }
}
