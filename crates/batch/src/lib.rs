//! Corpus-level fan-out for the CIRC race checker.
//!
//! `circ batch <dir|manifest.json|file.nesl>` checks many NesL
//! programs in one invocation. This crate is the engine behind it:
//!
//! * [`collect_inputs`] turns a directory, a JSON manifest, or a
//!   single file into a sorted work list;
//! * [`run_batch`] fans the list out over a [`circ_par::Pool`], giving
//!   each file an equal slice of the global `--timeout-secs` /
//!   `--mem-limit-mb` budget (see `circ_governor::carve_timeout`) and
//!   an *isolated* entailment cache seeded from the shared warm start,
//!   so per-file statistics are independent of scheduling;
//! * the result is a [`BatchReport`] whose rows are in input order and
//!   whose JSON rendering is byte-identical at any `--jobs` setting
//!   once wall-time fields are stripped.
//!
//! # Crash-safe supervision
//!
//! Around the bare fan-out sits a supervision layer (`--journal`,
//! `--resume`, `--isolate`, retries):
//!
//! * every completed row is appended to a JSONL **journal** keyed by a
//!   content digest of the input bytes (see [`journal`]); a `--resume`
//!   run replays journaled rows for inputs whose bytes still match and
//!   re-checks everything else — including rows a graceful shutdown
//!   drained, which are deliberately never journaled;
//! * a tripped [`CancelToken`] (the CLI wires SIGINT/SIGTERM to it)
//!   drains remaining work: in-flight files stop at their next budget
//!   poll and surface as `budget-exhausted` rows marked cancelled,
//!   not-yet-started files drain immediately, and the partial report
//!   plus cache files are still produced;
//! * `--isolate` re-runs each file in a child process
//!   (`circ check --row-json`, see [`check_file`]), so a crash or
//!   OOM kill in one input degrades to an `internal-error` row with
//!   the child's stderr captured, while sibling rows are unaffected;
//! * a deterministic [`RetryPolicy`] re-runs files whose verdict is a
//!   transient `internal-error` (contained panic, crashed child) with
//!   seeded backoff bounded by the file's remaining budget; files that
//!   still fail land on the report's quarantine list.
//!
//! The per-file loop (drain, reseed, containment, retry) is
//! [`supervise_unit`]; `circ serve` runs its units through it too.
//!
//! Supervision never flips a verdict: it only degrades failures to
//! `Unknown`-family rows, and resume only substitutes rows that a real
//! check produced for identical input bytes.
//!
//! # Cache persistence
//!
//! With a cache directory, [`run_batch`] warm-starts (through
//! [`warm_start`], the loader every entry point shares) from
//! [`ABS_CACHE_FILE`] (atom-level entailment answers) and
//! [`PRED_STORE_FILE`] (discovered predicates), and writes both back —
//! seed plus everything the run learned — on completion. Anything
//! wrong with a cache file (corruption, truncation, a format or
//! atom-encoding version bump) degrades to a logged cold start: the
//! loaders in `circ_core` validate a checksum before any entry is
//! trusted, so a damaged file can never smuggle in a wrong memoized
//! verdict. A `solver.cache` left by an older version is never read
//! and never rewritten.
//!
//! Determinism contract: every file is checked by the sequential
//! engine against a frozen seed, learned entries are
//! merged *sequentially in input order* after the pool run, and cache
//! files render canonically (sorted lines). Same inputs + same seed
//! files ⇒ bit-identical report (minus wall times) and cache files.
//! Fault plans are reseeded per file and per attempt from the content
//! digest, so injected faults are a pure function of the input bytes —
//! never of scheduling — and `stats.retries` is jobs-invariant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;

/// The workspace JSON codec ([`circ_stats::json`]) under the name it
/// had when it lived in this crate. Only `perfbench/` still uses this
/// name; delete it once perfbench imports `circ_stats::json`.
pub use circ_stats::json as mjson;
/// Escapes a string for embedding in a JSON string literal. Only
/// `perfbench/` still uses this name; delete it once perfbench calls
/// `circ_stats::json::escape`.
pub use circ_stats::json::escape as json_escape;

use circ_core::{
    circ_with_cache, pred_store, AbsCache, AbsSeed, CircConfig, CircOutcome, PredStore, Property,
    SolverPersist, UnknownReason,
};
use circ_frontend::Compiled;
use circ_governor::{
    carve_mem_limit, carve_timeout, panic_message, CancelToken, FaultPlan, RetryPolicy,
};
use circ_ir::{structural_digest, MtProgram, Var};
use circ_par::Pool;
use circ_smt::{Atom, Formula, SatResult};
use circ_stats::json::{self, Obj, Value};
use circ_stats::{BatchTotals, PipelineStats};
use circ_triage::{TriageConfig, TriageDecision, TriageWitness};
use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// File name of the entailment-cache snapshot inside `--cache-dir`.
pub const ABS_CACHE_FILE: &str = "abs.cache";
/// File name of the predicate-store snapshot inside `--cache-dir`.
pub const PRED_STORE_FILE: &str = "preds.store";

/// Configuration for one batch run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Run ω-CIRC (the default, matching `circ check`).
    pub omega: bool,
    /// Initial counter parameter for every file.
    pub initial_k: u32,
    /// Memoize entailment and solver queries. Disabling this also
    /// disables persistence (`cache_dir` is ignored).
    pub use_cache: bool,
    /// Worker threads for the file fan-out (0 = all cores). The
    /// engine runs each check on its worker's thread, so the report
    /// is identical at any setting.
    pub jobs: usize,
    /// Global wall-clock budget, split evenly across files (and then
    /// across a file's race variables).
    pub timeout: Option<Duration>,
    /// Global accounted-memory budget in bytes, split the same way.
    pub mem_limit_bytes: Option<u64>,
    /// Directory holding [`ABS_CACHE_FILE`] (and [`PRED_STORE_FILE`]);
    /// loaded on start (cold start if absent or damaged) and written
    /// back on completion.
    pub cache_dir: Option<PathBuf>,
    /// Seed each check's predicates and `k` from [`PRED_STORE_FILE`]
    /// inside `cache_dir`, and record what each check discovered back
    /// into it. Only effective with a cache directory (and
    /// `use_cache`); on by default, `--no-pred-store` turns it off.
    pub pred_store: bool,
    /// Path of the crash-safety journal ([`journal`]). `None` runs
    /// without one. A non-resume run truncates any existing file.
    pub journal: Option<PathBuf>,
    /// Replay journaled rows for inputs whose content digest matches
    /// instead of re-checking them. Only meaningful with `journal`.
    pub resume: bool,
    /// Check each file in a separate child process (`circ check
    /// --row-json`) so a crash or OOM kill degrades to one
    /// `internal-error` row instead of taking down the batch.
    pub isolate: bool,
    /// Binary to re-exec for `isolate`. Defaults to the
    /// `CIRC_ISOLATE_BIN` environment variable, then to the current
    /// executable. Exposed so tests can substitute a scripted child.
    pub isolate_binary: Option<PathBuf>,
    /// Retry policy for transient `internal-error` rows (contained
    /// panics, crashed isolated children). The default never retries.
    pub retry: RetryPolicy,
    /// Cooperative cancellation: tripping this token (the CLI does so
    /// on SIGINT/SIGTERM) drains remaining work as cancelled rows
    /// while still producing the partial report and cache files.
    pub cancel: CancelToken,
    /// Test hook: trip `cancel` after this many files have completed
    /// a real check (replayed rows don't count). With `jobs = 1` this
    /// makes an "interrupted" run fully deterministic.
    pub cancel_after: Option<usize>,
    /// Base fault-injection plan (testing only; inert by default).
    /// Reseeded per file and per attempt from the content digest, so
    /// injection is independent of scheduling.
    pub faults: FaultPlan,
    /// Run the tiered triage pipeline in front of the engine: a race
    /// variable the sound flow pre-filter clears is Safe without a
    /// CIRC run, one a bounded random schedule convicts (with a
    /// replay-validated witness) is a race without a CIRC run, and
    /// only the residue reaches the full engine. Off by default
    /// (`--triage` enables it); verdicts are identical either way.
    pub triage: bool,
}

impl BatchConfig {
    /// The cache directory the run loads and flushes: `cache_dir`,
    /// unless caching is off.
    fn active_cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref().filter(|_| self.use_cache)
    }

    /// The base engine settings every check under this configuration
    /// starts from: mode, `k`, cache policy and cancellation. The
    /// per-variable loop carves the budget into it and sets the faults.
    pub fn circ_config(&self) -> CircConfig {
        CircConfig {
            omega_mode: self.omega,
            initial_k: self.initial_k,
            use_cache: self.use_cache,
            cancel: self.cancel.clone(),
            ..CircConfig::default()
        }
    }
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            omega: true,
            initial_k: 1,
            use_cache: true,
            jobs: 1,
            timeout: None,
            mem_limit_bytes: None,
            cache_dir: None,
            pred_store: true,
            journal: None,
            resume: false,
            isolate: false,
            isolate_binary: None,
            retry: RetryPolicy::none(),
            cancel: CancelToken::new(),
            cancel_after: None,
            faults: FaultPlan::inert(),
            triage: false,
        }
    }
}

/// Per-file verdict, declared (and so ordered) by how bad it is for
/// the batch exit code, which worst-wins aggregation takes the
/// maximum of: race > compile error > budget exhaustion > internal
/// error > inconclusive > safe. (Internal error and inconclusive share
/// an exit code; the finer order makes a transient failure win the
/// within-file dominance so the retry policy can see it.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Every race variable proved race-free.
    Safe,
    /// The analysis gave up within its own bounds.
    Inconclusive,
    /// A worker task died (fault injection, an internal panic, or a
    /// crashed isolated child).
    InternalError,
    /// The file's resource slice ran out (including cancellation).
    BudgetExhausted,
    /// The file did not compile (or could not be read).
    CompileError,
    /// A genuine race with a concrete schedule.
    Race,
}

impl Verdict {
    /// Stable lowercase name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Safe => "safe",
            Verdict::Race => "race",
            Verdict::Inconclusive => "inconclusive",
            Verdict::InternalError => "internal-error",
            Verdict::BudgetExhausted => "budget-exhausted",
            Verdict::CompileError => "compile-error",
        }
    }

    /// The inverse of [`Verdict::name`], for journal replay and
    /// `--row-json` parsing.
    pub fn from_name(name: &str) -> Option<Verdict> {
        use Verdict::*;
        [Safe, Race, Inconclusive, InternalError, BudgetExhausted, CompileError]
            .into_iter()
            .find(|v| v.name() == name)
    }

    /// The exit code this verdict would produce for a single file,
    /// mirroring `circ check` (0/1/2/3/65).
    pub fn exit_code(self) -> u8 {
        match self {
            Verdict::Safe => 0,
            Verdict::Race => 1,
            Verdict::Inconclusive | Verdict::InternalError => 2,
            Verdict::BudgetExhausted => 3,
            Verdict::CompileError => 65,
        }
    }
}

/// One checked file in the aggregate report.
#[derive(Debug, Clone)]
pub struct FileRow {
    /// The path as given on the work list.
    pub file: String,
    /// Worst verdict across the file's race variables.
    pub verdict: Verdict,
    /// Human detail: the racy variable and schedule size, the
    /// give-up reason, or the compile error.
    pub detail: String,
    /// Stage attribution: which pipeline stage decided each race
    /// variable, `+`-joined in variable order (`flow` = triage
    /// stage 0, `sched` = triage stage 1, `circ` = the full engine).
    /// `-` for rows that never reached a checker (compile errors,
    /// drained rows).
    pub stage: String,
    /// Wall clock for the whole file including retries (stripped by
    /// the determinism comparison; every wall-time key starts with
    /// `time`). Replayed rows keep the journaled value.
    pub time_s: f64,
    /// Summed pipeline counters across the file's race variables.
    pub pipeline: PipelineStats,
    /// Extra attempts spent on this file beyond the first.
    pub retries: u64,
    /// Isolated-child crashes observed across this file's attempts.
    pub isolated_crashes: u64,
    /// Whether this row was replayed from the journal (`--resume`).
    pub resumed: bool,
    /// Whether this row was drained by cancellation. Cancelled rows
    /// are never journaled, so a resumed run re-checks them.
    pub cancelled: bool,
}

impl FileRow {
    /// A zeroed row carrying only a verdict and its explanation.
    pub fn new(file: String, verdict: Verdict, detail: String) -> FileRow {
        FileRow {
            file,
            verdict,
            detail,
            stage: "-".to_string(),
            time_s: 0.0,
            pipeline: PipelineStats::default(),
            retries: 0,
            isolated_crashes: 0,
            resumed: false,
            cancelled: false,
        }
    }
}

/// What the persistence layer did, for the report's `cache` block.
#[derive(Debug, Clone)]
pub struct CacheSummary {
    /// The cache directory.
    pub dir: String,
    /// Entailment entries loaded as the warm seed.
    pub abs_seeded: usize,
    /// Entailment entries written back (seed plus learned).
    pub abs_saved: usize,
    /// Predicate-store entries loaded as the warm seed (0 when the
    /// store is disabled).
    pub preds_seeded: usize,
    /// Predicate-store entries written back (seed plus learned).
    pub preds_saved: usize,
}

/// The aggregate result of [`run_batch`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One row per input file, in input order.
    pub rows: Vec<FileRow>,
    /// Roll-up counts and summed pipeline counters.
    pub totals: BatchTotals,
    /// Files whose verdict is still `internal-error` after the retry
    /// policy ran out of attempts, in input order.
    pub quarantine: Vec<String>,
    /// Persistence summary when a cache directory was active.
    pub cache: Option<CacheSummary>,
    /// Worst-wins exit code: 1 (race) > 65 (compile error) > 3
    /// (budget) > 2 (inconclusive) > 0 (all safe).
    pub exit: u8,
    /// Non-fatal problems (damaged cache files, failed saves, torn
    /// journal lines). Not part of the JSON report; the CLI prints
    /// them to stderr.
    pub warnings: Vec<String>,
}

/// Renders one report row as a JSON object (no trailing newline) —
/// the same shape the aggregate report embeds and a `--row-json`
/// child prints, so isolated and in-process rows agree byte-for-byte
/// by construction. Supervision flags (`resumed`, `cancelled`) are
/// deliberately absent: a resumed report must not differ from the
/// cold one it reproduces.
pub fn render_row_json(row: &FileRow) -> String {
    row_fields(Obj::default(), row)
        .u64("exit", row.verdict.exit_code().into())
        .f64("time_s", row.time_s)
        .raw("pipeline", &row.pipeline.to_json())
        .finish()
}

/// Appends the identifying fields every rendered row starts with — the
/// report row and the journal line alike.
fn row_fields(obj: Obj, row: &FileRow) -> Obj {
    obj.str("file", &row.file)
        .str("verdict", row.verdict.name())
        .str("detail", &row.detail)
        .str("stage", &row.stage)
}

/// The worst-wins exit code for a set of rows — the dominance
/// [`run_batch`] applies to a report and `circ serve` applies to a
/// request's rows, shared so the two can never disagree: race >
/// compile error > budget exhaustion > internal error > inconclusive
/// > safe. An empty slice is a clean 0.
pub fn worst_exit(rows: &[FileRow]) -> u8 {
    rows.iter().map(|r| r.verdict).max().map_or(0, Verdict::exit_code)
}

/// Parses a row printed by a `--row-json` child back into a
/// [`FileRow`]. Any structural damage (a child killed mid-print) is
/// an `Err`; the supervisor degrades it to an `internal-error` row.
pub fn parse_row_json(line: &str) -> Result<FileRow, String> {
    row_from_json(&json::parse(line.trim())?)
}

/// A required string field of a parsed wire object.
fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(Value::as_str).ok_or(format!("missing string `{key}`"))
}

/// Reads the row fields a report row and a journal line share (file,
/// verdict, detail, stage, wall time, counters) back into a row.
fn row_from_json(v: &Value) -> Result<FileRow, String> {
    let verdict_name = str_field(v, "verdict")?;
    let verdict =
        Verdict::from_name(verdict_name).ok_or(format!("unknown verdict `{verdict_name}`"))?;
    let mut row =
        FileRow::new(str_field(v, "file")?.into(), verdict, str_field(v, "detail")?.into());
    row.stage = str_field(v, "stage")?.to_string();
    row.time_s = v
        .get("time_s")
        .and_then(Value::as_f64)
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or("missing or unusable `time_s`")?;
    row.pipeline = PipelineStats::from_json(v.get("pipeline").ok_or("missing `pipeline`")?)?;
    Ok(row)
}

impl BatchReport {
    /// Renders the aggregate report as one JSON object. Key order is
    /// fixed and there is no `jobs` field, so two runs over the same
    /// inputs agree byte-for-byte once `"time*"` values are stripped.
    pub fn to_json(&self) -> String {
        let cache = self.cache.as_ref().map_or("null".to_string(), |c| {
            Obj::default()
                .str("dir", &c.dir)
                .u64("abs_seeded", c.abs_seeded as u64)
                .u64("abs_saved", c.abs_saved as u64)
                .u64("preds_seeded", c.preds_seeded as u64)
                .u64("preds_saved", c.preds_saved as u64)
                .finish()
        });
        let quarantine = self.quarantine.iter().map(|f| json::string(f));
        Obj::default()
            .str("report", "circ-batch")
            .raw("rows", &json::array(self.rows.iter().map(render_row_json)))
            .raw("totals", &self.totals.to_json())
            .raw("quarantine", &json::array(quarantine))
            .raw("cache", &cache)
            .u64("exit", self.exit.into())
            .finish()
    }

    /// Renders a human-readable table plus the totals summary.
    pub fn render_table(&self) -> String {
        let width = self.rows.iter().map(|r| r.file.len()).max().unwrap_or(4).max(4);
        let mut s = String::new();
        for row in &self.rows {
            s.push_str(&format!(
                "{:<width$}  {:<16}  {:<10}  {:>8.2}s  {}\n",
                row.file,
                row.verdict.name().to_uppercase(),
                row.stage,
                row.time_s,
                row.detail,
            ));
        }
        s.push_str(&self.totals.render_summary());
        if !s.ends_with('\n') {
            s.push('\n');
        }
        if !self.quarantine.is_empty() {
            s.push_str(&format!("quarantined: {}\n", self.quarantine.join(", ")));
        }
        s
    }
}

/// Parses a batch manifest: a JSON array of path strings.
pub fn parse_manifest(text: &str) -> Result<Vec<String>, String> {
    let Value::Arr(items) = json::parse(text)? else {
        return Err("manifest must be a JSON array of path strings".into());
    };
    items
        .iter()
        .map(|item| item.as_str().map(str::to_string))
        .collect::<Option<_>>()
        .ok_or("every manifest entry must be a path string".into())
}

/// Builds the batch work list from a directory (all `*.nesl` entries,
/// sorted by name), a `.json` manifest (paths resolved relative to the
/// manifest's directory), or a single `.nesl` file.
pub fn collect_inputs(path: &Path) -> Result<Vec<PathBuf>, String> {
    let meta = fs::metadata(path).map_err(|e| format!("cannot stat `{}`: {e}", path.display()))?;
    if meta.is_dir() {
        let entries =
            fs::read_dir(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            let p = entry.path();
            if p.extension().is_some_and(|e| e == "nesl") && p.is_file() {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(format!("no .nesl files in `{}`", path.display()));
        }
        Ok(files)
    } else if path.extension().is_some_and(|e| e == "json") {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        let rel = parse_manifest(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if rel.is_empty() {
            return Err(format!("{}: empty manifest", path.display()));
        }
        let base = path.parent().unwrap_or(Path::new("."));
        Ok(rel.iter().map(|r| base.join(r)).collect())
    } else if path.extension().is_some_and(|e| e == "nesl") {
        Ok(vec![path.to_path_buf()])
    } else {
        Err(format!("`{}` is not a directory, .nesl file, or .json manifest", path.display()))
    }
}

/// The artifacts of a cache directory as they are on disk.
pub struct LoadedCaches {
    /// Entailment-cache seed ([`ABS_CACHE_FILE`]), empty on cold start.
    pub abs_seed: AbsSeed,
    /// Always empty: nothing persists solver answers any more. Kept
    /// only for `perfbench/`, which hands it to
    /// [`SolverPersist::with_seed`].
    pub solver_seed: Vec<(Formula, SatResult)>,
    /// Predicate-store seed ([`PRED_STORE_FILE`]) when it was asked
    /// for, empty on cold start.
    pub preds: Option<PredStore>,
    /// One message per damaged file that was ignored.
    pub warnings: Vec<String>,
    /// How many damaged artifacts degraded to a cold start (each one
    /// also has a warning). Feeds the `store_recoveries` counter.
    pub recovered: u64,
    /// How many artifacts were absent (a silent cold start).
    pub(crate) missing: u64,
}

impl LoadedCaches {
    /// Unwraps one artifact load: a damaged artifact is `None` plus a
    /// warning and a recovery.
    fn degrade<T>(
        &mut self,
        what: &str,
        path: &Path,
        loaded: Result<Option<T>, circ_core::PersistError>,
    ) -> Option<T> {
        match loaded {
            Ok(Some(artifact)) => Some(artifact),
            Ok(None) => {
                self.missing += 1;
                None
            }
            Err(e) => {
                self.warnings.push(format!("ignoring {what} `{}`: {e}", path.display()));
                self.recovered += 1;
                None
            }
        }
    }
}

/// Loads the entailment cache, degrading it to an empty (cold) seed
/// with a warning if the file is missing the right header, fails its
/// checksum, or does not parse. A genuinely missing file is a silent
/// cold start.
pub fn load_caches(dir: &Path) -> LoadedCaches {
    load_caches_in(&circ_store::Store::real(), dir)
}

/// [`load_caches`] through an explicit storage handle, so torture
/// runs can fail or truncate the reads deterministically. Does not
/// sweep stale staging files (see [`warm_start`]).
pub fn load_caches_in(io: &circ_store::Store, dir: &Path) -> LoadedCaches {
    read_cache_dir(io, dir, false)
}

/// Reads every artifact of `dir` as it is on disk now, plus the
/// predicate store when `preds`: the one place a cache directory is
/// read, by warm starts and by the read-merge-write flush alike.
fn read_cache_dir(io: &circ_store::Store, dir: &Path, preds: bool) -> LoadedCaches {
    let mut out = LoadedCaches {
        abs_seed: AbsSeed::empty(),
        solver_seed: Vec::new(),
        preds: None,
        warnings: Vec::new(),
        recovered: 0,
        missing: 0,
    };
    let path = dir.join(ABS_CACHE_FILE);
    let loaded = circ_core::persist::load_abs_cache_in(io, &path);
    out.abs_seed = out.degrade("cache", &path, loaded).unwrap_or_else(AbsSeed::empty);
    if preds {
        let path = dir.join(PRED_STORE_FILE);
        let loaded = pred_store::load_pred_store_in(io, &path);
        out.preds = Some(out.degrade("predicate store", &path, loaded).unwrap_or_default());
    }
    out
}

/// A run's warm start, ready to check against.
pub struct WarmStart {
    /// Entailment-cache seed, empty on cold start.
    pub abs_seed: AbsSeed,
    /// Predicate-store seed: `Some` (possibly empty) when the store is
    /// enabled and a cache directory is active, `None` otherwise.
    pub preds: Option<PredStore>,
    /// Sweep and load warnings, in that order.
    pub warnings: Vec<String>,
    /// Stale staging files swept plus damaged artifacts ignored.
    pub recovered: u64,
    /// Every artifact this start read was present and intact, and no
    /// stale staging file was swept: the directory already holds
    /// exactly the seeds.
    clean: bool,
}

impl WarmStart {
    /// A per-file entailment cache seeded from this warm start
    /// (pass-through when caching is off).
    pub fn file_cache(&self, use_cache: bool) -> AbsCache {
        if use_cache {
            AbsCache::with_seed(&self.abs_seed)
        } else {
            AbsCache::disabled()
        }
    }

    /// Persists a run's end state to `dir`: the master entailment
    /// `cache` (seeded from this start) and `preds`, the run's
    /// predicate store after merging. A run that started clean and
    /// learned nothing (no entailment entry beyond the seed, a
    /// predicate store equal to the loaded one) would only rewrite
    /// what it loaded, so it skips the lock, the re-read and every
    /// write, and reports the loaded counts as saved. Skipping also leaves alone whatever a
    /// peer sharing `dir` wrote since the load. Any other run takes
    /// the locked read-merge-write of [`flush_caches_in`].
    pub fn flush(
        &self,
        io: &circ_store::Store,
        dir: &Path,
        cache: &AbsCache,
        preds: Option<&PredStore>,
    ) -> FlushOutcome {
        if self.clean && cache.local_len() == 0 && preds == self.preds.as_ref() {
            return FlushOutcome {
                abs_saved: self.abs_seed.len(),
                preds_saved: preds.map_or(0, PredStore::len),
                flush_errors: 0,
                warnings: Vec::new(),
            };
        }
        flush_caches_in(io, dir, &cache.snapshot(), &SolverPersist::inert(), preds)
    }
}

/// The one warm start `circ check`, `circ batch`, its isolated
/// children and `circ serve` share. With `dir`: sweep stale staging
/// files first (when `sweep`; an isolated child passes `false` so
/// worker-side loads stay read-only), load the entailment-cache
/// snapshot and, when `preds`, the predicate store. Any damaged artifact degrades to
/// a cold seed with a warning and a recovery. Without `dir` the start
/// is cold: an empty seed, no predicate store.
pub fn warm_start(
    io: &circ_store::Store,
    dir: Option<&Path>,
    preds: bool,
    sweep: bool,
) -> WarmStart {
    let Some(dir) = dir else {
        return WarmStart {
            abs_seed: AbsSeed::empty(),
            preds: None,
            warnings: Vec::new(),
            recovered: 0,
            clean: false,
        };
    };
    let (swept, mut warnings) = if sweep { io.sweep_stale_tmps(dir) } else { (0, Vec::new()) };
    let loaded = read_cache_dir(io, dir, preds);
    warnings.extend(loaded.warnings);
    WarmStart {
        abs_seed: loaded.abs_seed,
        preds: loaded.preds,
        warnings,
        recovered: swept + loaded.recovered,
        clean: swept + loaded.recovered + loaded.missing == 0,
    }
}

/// Outcome of one locked merge-flush of a cache directory.
pub struct FlushOutcome {
    /// Entries in the merged entailment cache on disk after the flush.
    pub abs_saved: usize,
    /// Entries in the merged predicate store (0 when the store is off).
    pub preds_saved: usize,
    /// Failed persistence steps: lock acquisition or artifact writes.
    /// Feeds the `flush_errors` counter; each failure also warns.
    pub flush_errors: u64,
    /// One message per failed step, phrased so the reader knows the
    /// previous on-disk snapshot is still intact.
    pub warnings: Vec<String>,
}

/// Merges `disk` and `ours` entry-wise, ours winning on key
/// collisions. Both sides key by canonical LIA atoms and the solver
/// is deterministic, so colliding values are identical anyway; the
/// union only ever *adds* warm-start coverage.
fn merge_abs_seeds(disk: &AbsSeed, ours: &AbsSeed) -> AbsSeed {
    let mut entails: BTreeMap<(Vec<Atom>, Atom), bool> = BTreeMap::new();
    let mut sat: BTreeMap<Vec<Atom>, bool> = BTreeMap::new();
    for (key, result) in disk.entails_entries().iter().chain(ours.entails_entries()) {
        entails.insert(key.clone(), *result);
    }
    for (key, result) in disk.sat_entries().iter().chain(ours.sat_entries()) {
        sat.insert(key.clone(), *result);
    }
    AbsSeed::from_entries(entails.into_iter().collect(), sat.into_iter().collect())
}

/// Flushes the run's learned state to `dir` under the directory's
/// advisory lock: re-reads whatever is on disk *now*, merges our
/// entries in (read-merge-write), and rewrites each artifact with a
/// durable atomic write. The lock closes the window in which two
/// processes sharing `--cache-dir` would otherwise clobber each
/// other's learning — concurrent runs compose instead.
///
/// Every failure degrades, never corrupts: if the lock cannot be
/// taken, nothing is written; if an individual write fails (ENOSPC,
/// injected crash point), the rename never happened, so the previous
/// snapshot of that artifact is intact. Both paths warn and count
/// into [`FlushOutcome::flush_errors`]. A *damaged* on-disk artifact
/// found during the re-read is simply replaced by our complete
/// snapshot — that is the recovery, not an error.
///
/// `_persist` is ignored; it stays for `perfbench/` (see
/// [`SolverPersist`]).
pub fn flush_caches_in(
    io: &circ_store::Store,
    dir: &Path,
    snapshot: &AbsSeed,
    _persist: &SolverPersist,
    preds: Option<&PredStore>,
) -> FlushOutcome {
    let mut out =
        FlushOutcome { abs_saved: 0, preds_saved: 0, flush_errors: 0, warnings: Vec::new() };
    let _lock = match io.lock_dir(dir) {
        Ok(lock) => lock,
        Err(e) => {
            out.flush_errors += 1;
            out.warnings.push(format!(
                "cannot lock cache dir `{}`: {e}; skipping persist (previous snapshot intact)",
                dir.display()
            ));
            return out;
        }
    };
    let save = |path: &Path, text: &str, out: &mut FlushOutcome| match io.write_atomic(path, text) {
        Ok(()) => true,
        Err(e) => {
            out.flush_errors += 1;
            out.warnings
                .push(format!("cannot save `{}`: {e}; previous snapshot intact", path.display()));
            false
        }
    };

    // A damaged artifact re-reads as empty and is simply replaced.
    let disk = read_cache_dir(io, dir, preds.is_some());
    let merged_abs = merge_abs_seeds(&disk.abs_seed, snapshot);
    if save(&dir.join(ABS_CACHE_FILE), &circ_core::persist::render_abs_cache(&merged_abs), &mut out)
    {
        out.abs_saved = merged_abs.len();
    }

    if let (Some(ours), Some(mut merged)) = (preds, disk.preds) {
        // `absorb` is later-wins, so absorbing *ours* into the disk
        // store gives our fresher outcome counts precedence.
        merged.absorb(ours.clone());
        if save(&dir.join(PRED_STORE_FILE), &pred_store::render_pred_store(&merged), &mut out) {
            out.preds_saved = merged.len();
        }
    }
    out
}

/// Everything one source-level check needs from its surroundings: the
/// batch configuration, the engine settings, this unit's budget slice,
/// the caches to run against, and the (already reseeded) fault plan
/// for this attempt. Batch builds one per file attempt, serve one per
/// request unit and `circ check` one per run, so their answers come
/// out of the same code path by construction.
pub struct CheckCtx<'a> {
    /// Batch-level options (triage).
    pub config: &'a BatchConfig,
    /// Base engine settings ([`BatchConfig::circ_config`]; `circ check`
    /// overrides `jobs` and `property`).
    pub circ: &'a CircConfig,
    /// Wall-clock slice for this unit, carved further across its race
    /// variables.
    pub file_timeout: Option<Duration>,
    /// Accounted-memory slice for this unit.
    pub file_mem: Option<u64>,
    /// Entailment cache the check runs against: an isolated seeded
    /// cache for jobs-invariant per-file counters (batch, check) or a
    /// shared warm master (serve) — per-run counters are deltas either
    /// way.
    pub cache: &'a AbsCache,
    /// Predicate-store seed to warm-start refinement from.
    pub pred_seed: Option<&'a PredStore>,
    /// Fault plan for this attempt (reseeded by the caller from the
    /// content digest, so injection stays scheduling-independent).
    pub faults: &'a FaultPlan,
}

/// Which stage decided one race variable, and what it found.
#[derive(Debug)]
pub enum Decided {
    /// Triage stage 0: the flow check certified it race-free.
    Flow,
    /// Triage stage 1: a replay-validated random schedule.
    Sched(TriageWitness),
    /// The full engine.
    Circ(Box<CircOutcome>),
}

impl Decided {
    /// The name the row's `stage` column records.
    pub fn stage(&self) -> &'static str {
        match self {
            Decided::Flow => "flow",
            Decided::Sched(_) => "sched",
            Decided::Circ(_) => "circ",
        }
    }
}

/// One checked race variable.
#[derive(Debug)]
pub struct VarCheck {
    /// The race variable.
    pub var: Var,
    /// The deciding stage and its evidence.
    pub decided: Decided,
    /// This variable's share of the row's counters.
    pub pipeline: PipelineStats,
}

/// The result of one source-level check: the row, the predicate-store
/// entries it discovered (for sequential post-run merging) and, in
/// variable order, what each checked variable decided (batch and serve
/// drop these with the row; `circ check` renders them).
pub struct Checked {
    /// The report row.
    pub row: FileRow,
    /// Discovered predicate-store entries.
    pub learned: PredStore,
    /// Per-variable results, in variable order.
    pub vars: Vec<VarCheck>,
}

impl Checked {
    fn new(name: &str, verdict: Verdict, detail: String) -> Checked {
        let row = FileRow::new(name.to_string(), verdict, detail);
        Checked { row, learned: PredStore::new(), vars: Vec::new() }
    }
}

/// Checks one named source text: compile, then [`check_compiled`].
pub fn check_source(name: &str, src: &str, ctx: &CheckCtx) -> Checked {
    match circ_frontend::compile(src) {
        Ok(compiled) => check_compiled(name, &compiled, ctx),
        Err(e) => Checked::new(name, Verdict::CompileError, e.to_string()),
    }
}

/// The workspace's one per-variable loop (§4.1 decides each `#race`
/// variable with its own CIRC run): triage when enabled, predicate-store
/// seeding, the engine against the caches in `ctx`, and recording, with
/// the unit's budget split evenly across the variables (only the first
/// one under [`Property::Assertions`], a program-wide property). The
/// row's verdict is worst-wins over them. Budget-exhausted and
/// cancelled outcomes keep the partial counters sealed up to that point.
pub fn check_compiled(name: &str, compiled: &Compiled, ctx: &CheckCtx) -> Checked {
    let start = Instant::now();
    if compiled.race_vars.is_empty() {
        let detail = "no `#race` directive — nothing to check".to_string();
        return Checked::new(name, Verdict::CompileError, detail);
    }
    let mut checked = Checked::new(name, Verdict::Safe, String::new());
    let row = &mut checked.row;
    let asserts = ctx.circ.property == Property::Assertions;
    let vars = if asserts { &compiled.race_vars[..1] } else { &compiled.race_vars[..] };
    let cfg = CircConfig {
        timeout: carve_timeout(ctx.file_timeout, vars.len()),
        mem_limit_bytes: carve_mem_limit(ctx.file_mem, vars.len()),
        faults: ctx.faults.clone(),
        ..ctx.circ.clone()
    };
    // Keyed by the *structural* digest of the lowered automaton plus a
    // per-race-variable config fingerprint — computed from the base
    // config, before seeding, so warm runs rebuild the recorded key.
    let cfa_digest = structural_digest(&compiled.cfa);
    for &var in vars {
        let program = MtProgram::new(compiled.cfa.clone(), var);
        let vname = compiled.cfa.var_name(var);
        // Cheap stages first: each can decide in one direction only
        // (stage 0 Safe, stage 1 Unsafe), so a decided variable gets
        // the same verdict the engine would have produced — minus the
        // engine run.
        let triaged = if ctx.config.triage {
            circ_triage::triage(&program, &TriageConfig::default())
        } else {
            TriageDecision::Fallthrough
        };
        let mut pipeline = PipelineStats::default();
        let decided = match triaged {
            TriageDecision::Stage0Safe => {
                pipeline.triage_stage0_decided = 1;
                Decided::Flow
            }
            TriageDecision::Stage1Race(w) => {
                pipeline.triage_stage1_decided = 1;
                Decided::Sched(w)
            }
            TriageDecision::Fallthrough => {
                let tag =
                    if asserts { "asserts".to_string() } else { format!("race v{}", var.index()) };
                let config_fp = pred_store::config_fingerprint(
                    cfg.initial_k,
                    cfg.omega_mode,
                    cfg.minimize,
                    &cfg.initial_preds,
                    &tag,
                );
                let mut var_cfg = cfg.clone();
                let prior = ctx
                    .pred_seed
                    .and_then(|s| pred_store::seed_config(s, cfa_digest, config_fp, &mut var_cfg));
                let outcome = circ_with_cache(&program, &var_cfg, ctx.cache);
                pipeline = outcome.stats().pipeline.clone();
                pipeline.triage_fallthrough = u64::from(ctx.config.triage);
                if let Some(prior_rounds) = prior {
                    pipeline.preds_seeded = var_cfg.initial_preds.len() as u64;
                    pipeline.refine_rounds_saved =
                        prior_rounds.saturating_sub(pipeline.refine_rounds);
                }
                pred_store::record_outcome(
                    &mut checked.learned,
                    cfa_digest,
                    config_fp,
                    &outcome,
                    prior.unwrap_or(0),
                );
                Decided::Circ(Box::new(outcome))
            }
        };
        let race = |n_threads: usize, steps: usize| {
            (Verdict::Race, format!("race on {vname}: {n_threads} threads, {steps} steps"))
        };
        let (verdict, detail) = match &decided {
            Decided::Flow => (Verdict::Safe, String::new()),
            Decided::Sched(w) => race(w.n_threads, w.steps.len()),
            Decided::Circ(outcome) => match &**outcome {
                CircOutcome::Safe(_) => (Verdict::Safe, String::new()),
                CircOutcome::Unsafe(r) => race(r.cex.n_threads, r.cex.steps.len()),
                CircOutcome::Unknown(r) => {
                    let v = match &r.reason {
                        UnknownReason::Cancelled => {
                            row.cancelled = true;
                            Verdict::BudgetExhausted
                        }
                        UnknownReason::InternalError(_) => Verdict::InternalError,
                        reason if reason.is_budget_exhausted() => Verdict::BudgetExhausted,
                        _ => Verdict::Inconclusive,
                    };
                    (v, format!("{vname}: {:?}", r.reason))
                }
            },
        };
        if verdict > row.verdict {
            row.verdict = verdict;
            row.detail = detail;
        }
        row.pipeline.add(&pipeline);
        checked.vars.push(VarCheck { var, decided, pipeline });
        // Draining: once cancellation is observed there is no point
        // starting the remaining variables; the row is re-checked on
        // resume anyway because cancelled rows are never journaled.
        if row.cancelled {
            break;
        }
    }
    if row.verdict == Verdict::Safe {
        row.detail = format!("{} race variable(s) race-free", vars.len());
    }
    row.stage = checked.vars.iter().map(|v| v.decided.stage()).collect::<Vec<_>>().join("+");
    row.time_s = start.elapsed().as_secs_f64();
    checked
}

/// Checks one file as a batch worker does: read it, then run
/// [`check_source`] against a per-file cache seeded from `warm`, so
/// per-file statistics are independent of which worker ran it. Returns
/// the result and the file's cache, for sequential post-run merging.
/// The `circ check --row-json` child of `--isolate` calls it too.
pub fn check_file(
    path: &Path,
    config: &BatchConfig,
    circ: &CircConfig,
    file_timeout: Option<Duration>,
    file_mem: Option<u64>,
    warm: &WarmStart,
    faults: &FaultPlan,
) -> (Checked, AbsCache) {
    let file = path.display().to_string();
    let src = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            let checked = Checked::new(&file, Verdict::CompileError, format!("cannot read: {e}"));
            return (checked, AbsCache::default());
        }
    };
    let cache = warm.file_cache(config.use_cache);
    let ctx = CheckCtx {
        config,
        circ,
        file_timeout,
        file_mem,
        cache: &cache,
        pred_seed: warm.preds.as_ref(),
        faults,
    };
    (check_source(&file, &src, &ctx), cache)
}

/// The deterministic per-file key used to reseed fault plans and draw
/// retry backoffs: the content digest when the file is readable, a
/// path-derived fallback otherwise. A pure function of the input, so
/// supervision behavior is independent of scheduling.
fn content_key(path: &Path) -> u64 {
    match fs::read(path) {
        Ok(bytes) => journal::digest_bytes(&bytes),
        Err(_) => journal::digest_bytes(path.display().to_string().as_bytes()),
    }
}

/// One unit of batch work: the input path, its content digest (when
/// readable), and the journaled row to replay instead of re-checking
/// (when resuming and the digest matched).
struct FileTask {
    path: PathBuf,
    digest: Option<u64>,
    replay: Option<journal::JournalEntry>,
}

/// Runs one unit of work to its final row under the supervision batch
/// files and serve requests share:
///
/// * a tripped cancel token drains the unit before it starts, as a
///   cancelled `budget-exhausted` row;
/// * every attempt runs under a fault plan reseeded from `key ⊕
///   attempt`, so injection is a pure function of the input (`key` is
///   its content digest), never of scheduling;
/// * a panic in an attempt, including one injected at this unit-level
///   point, is contained to an `internal-error` row;
/// * an `internal-error` row is retried under `config.retry` with
///   seeded backoff, while the unit's `budget` slice lasts and the run
///   is not cancelled.
///
/// `attempt` gets the budget left for it and the reseeded plan. The
/// final row is stamped with `retries` and `time_s` (the whole unit,
/// retries included); it comes back with what the final attempt
/// returned beside it and the number of contained panics.
pub fn supervise_unit<T: Default>(
    name: &str,
    key: u64,
    config: &BatchConfig,
    budget: Option<Duration>,
    mut attempt: impl FnMut(Option<Duration>, &FaultPlan) -> (FileRow, T),
) -> (FileRow, T, u64) {
    let start = Instant::now();
    if config.cancel.is_cancelled() {
        let mut row = FileRow::new(
            name.to_string(),
            Verdict::BudgetExhausted,
            "cancelled before start".into(),
        );
        row.cancelled = true;
        return (row, T::default(), 0);
    }
    let mut panics = 0;
    let mut n: u32 = 1;
    loop {
        let remaining = budget.map(|t| t.saturating_sub(start.elapsed()));
        let faults = config.faults.reseeded(key ^ u64::from(n));
        let result = catch_unwind(AssertUnwindSafe(|| {
            // The unit-level injection point (always `false` without
            // the `inject` feature). Panics injected inside the engine
            // are absorbed by `circ()`, so only this one reaches the
            // arm below.
            if faults.task_panic() {
                panic!("injected task panic");
            }
            attempt(remaining, &faults)
        }));
        let (mut row, extra) = result.unwrap_or_else(|payload| {
            panics += 1;
            let detail = format!("contained worker panic: {}", panic_message(payload.as_ref()));
            (FileRow::new(name.to_string(), Verdict::InternalError, detail), T::default())
        });
        let out_of_budget = remaining.is_some_and(|r| r.is_zero());
        if row.verdict == Verdict::InternalError
            && config.retry.should_retry(n)
            && !config.cancel.is_cancelled()
            && !out_of_budget
        {
            let left = budget.map(|t| t.saturating_sub(start.elapsed()));
            std::thread::sleep(config.retry.backoff(key, n, left));
            n += 1;
            continue;
        }
        row.retries = u64::from(n - 1);
        row.time_s = start.elapsed().as_secs_f64();
        return (row, extra, panics);
    }
}

/// Fans `units` out over `jobs` workers and unpacks the results in
/// input order. A panic that escaped `check` itself (journal I/O,
/// bookkeeping) is contained one last time, as an `internal-error` row
/// under the unit's `name`.
pub fn run_units<U: Sync, T: Send + Default>(
    jobs: usize,
    units: &[U],
    name: impl Fn(&U) -> String,
    check: impl Fn(&U) -> (FileRow, T) + Sync,
) -> (Vec<FileRow>, Vec<T>) {
    let results = Pool::new(jobs).try_map(units, check);
    units
        .iter()
        .zip(results)
        .map(|(unit, result)| {
            result.unwrap_or_else(|e| {
                (FileRow::new(name(unit), Verdict::InternalError, e.message), T::default())
            })
        })
        .unzip()
}

/// Counts one row into `totals` — the roll-up a batch report and the
/// serve stats payload both keep.
pub fn tally(totals: &mut BatchTotals, row: &FileRow) {
    totals.files += 1;
    match row.verdict {
        Verdict::Safe => totals.safe += 1,
        Verdict::Race => totals.races += 1,
        Verdict::Inconclusive | Verdict::InternalError => totals.inconclusive += 1,
        Verdict::BudgetExhausted => totals.budget_exhausted += 1,
        Verdict::CompileError => totals.compile_errors += 1,
    }
    totals.retries += row.retries;
    totals.isolated_crashes += row.isolated_crashes;
    totals.resumed += u64::from(row.resumed);
    totals.cancelled += u64::from(row.cancelled);
    totals.pipeline.add(&row.pipeline);
}

/// Batch's side of supervision, around [`supervise_unit`]: replay,
/// process isolation, journaling, and the `cancel_after` hook.
struct Supervisor<'a> {
    config: &'a BatchConfig,
    circ: CircConfig,
    file_timeout: Option<Duration>,
    file_mem: Option<u64>,
    warm: &'a WarmStart,
    journal: Option<&'a journal::Journal>,
    /// Configuration fingerprint stamped on every journal line (and
    /// required of replayed ones).
    journal_config: u64,
    /// Files that reached a final row (drives `cancel_after`).
    completed: &'a AtomicUsize,
    /// Journal lines that failed to write (reported once, at the end).
    append_failures: &'a AtomicUsize,
}

impl Supervisor<'_> {
    /// Runs one file to a final row: replay, or supervised checking —
    /// then journal the result.
    fn supervise(&self, task: &FileTask) -> (FileRow, (AbsCache, PredStore)) {
        let file = task.path.display().to_string();
        if let Some(entry) = &task.replay {
            let mut row = entry.row.clone();
            row.file = file;
            row.resumed = true;
            return (row, Default::default());
        }
        // An unreadable file falls back to a key derived from its path.
        let key = task.digest.unwrap_or_else(|| content_key(&task.path));
        let mut crashes = 0;
        let (mut row, learned, _) =
            supervise_unit(&file, key, self.config, self.file_timeout, |remaining, faults| {
                if self.config.isolate {
                    (self.isolated(&task.path, remaining, &mut crashes), Default::default())
                } else {
                    let (checked, cache) = check_file(
                        &task.path,
                        self.config,
                        &self.circ,
                        remaining,
                        self.file_mem,
                        self.warm,
                        faults,
                    );
                    (checked.row, (cache, checked.learned))
                }
            });
        row.isolated_crashes = crashes;
        if let (Some(journal), Some(digest)) = (self.journal, task.digest) {
            // Cancelled rows are deliberately not journaled: their
            // absence is what makes `--resume` re-check them.
            if !row.cancelled && journal.append(&row, digest, self.journal_config).is_err() {
                self.append_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        let done = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if self.config.cancel_after.is_some_and(|limit| done >= limit) {
            self.config.cancel.cancel();
        }
        (row, learned)
    }

    /// Runs one attempt in a child process (`circ check --row-json`).
    /// A child killed by a signal, or one that exits without printing
    /// a parseable row, becomes an `internal-error` row carrying the
    /// child's stderr tail; it never takes down the batch.
    fn isolated(
        &self,
        path: &Path,
        attempt_timeout: Option<Duration>,
        crashes: &mut u64,
    ) -> FileRow {
        let file = path.display().to_string();
        let internal = |detail: String| FileRow::new(file.clone(), Verdict::InternalError, detail);
        let binary = self
            .config
            .isolate_binary
            .clone()
            .or_else(|| std::env::var_os("CIRC_ISOLATE_BIN").map(PathBuf::from))
            .or_else(|| std::env::current_exe().ok());
        let Some(binary) = binary else {
            return internal("cannot locate a binary for --isolate (set CIRC_ISOLATE_BIN)".into());
        };
        let mut cmd = Command::new(&binary);
        cmd.arg("check").arg(path).arg("--row-json");
        cmd.arg("--mode").arg(if self.config.omega { "omega" } else { "circ" });
        cmd.arg("--k").arg(self.config.initial_k.to_string());
        if !self.config.use_cache {
            cmd.arg("--no-cache");
        } else if let Some(dir) = &self.config.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        if !self.config.pred_store {
            cmd.arg("--no-pred-store");
        }
        if self.config.triage {
            cmd.arg("--triage");
        }
        if let Some(t) = attempt_timeout {
            // Clamped: a u128 millisecond count past u64 would not parse.
            let millis = u64::try_from(t.as_millis()).unwrap_or(u64::MAX);
            cmd.arg("--timeout-millis").arg(millis.to_string());
        }
        if let Some(m) = self.file_mem {
            cmd.arg("--mem-limit-bytes").arg(m.to_string());
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                return internal(format!("cannot spawn isolated child `{}`: {e}", binary.display()))
            }
        };
        let stderr_tail = || {
            let text = String::from_utf8_lossy(&out.stderr);
            let trimmed = text.trim();
            let chars: Vec<char> = trimmed.chars().collect();
            let skip = chars.len().saturating_sub(240);
            chars[skip..].iter().collect::<String>()
        };
        if out.status.code().is_none() {
            // Killed by a signal — the crash/OOM case isolation is for.
            *crashes += 1;
            return internal(format!(
                "isolated child died ({}); stderr: {}",
                describe_status(&out.status),
                stderr_tail()
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let row_line = stdout.lines().rev().find(|l| !l.trim().is_empty());
        match row_line.map(parse_row_json) {
            Some(Ok(mut row)) => {
                // Keep the parent's path string; the child echoed the
                // same one, but the parent's copy is authoritative.
                row.file = file;
                row
            }
            Some(Err(e)) => {
                *crashes += 1;
                internal(format!(
                    "isolated child (exit {:?}) printed an unreadable row ({e}); stderr: {}",
                    out.status.code(),
                    stderr_tail()
                ))
            }
            None => {
                *crashes += 1;
                internal(format!(
                    "isolated child (exit {:?}) printed no row; stderr: {}",
                    out.status.code(),
                    stderr_tail()
                ))
            }
        }
    }
}

/// Human description of a child exit status — names the signal on
/// Unix, falls back to the OS rendering elsewhere.
#[cfg(unix)]
fn describe_status(status: &std::process::ExitStatus) -> String {
    use std::os::unix::process::ExitStatusExt;
    match status.signal() {
        Some(sig) => format!("signal {sig}"),
        None => status.to_string(),
    }
}

#[cfg(not(unix))]
fn describe_status(status: &std::process::ExitStatus) -> String {
    status.to_string()
}

/// Runs the whole batch: load caches and journal, fan out under
/// supervision, aggregate, save.
///
/// Rows come back in input order regardless of `jobs`; a worker panic
/// becomes an `internal-error` row (retried under the configured
/// policy) rather than killing the batch; a tripped [`CancelToken`]
/// drains the remaining work but still produces the partial report
/// and cache files. Cache files are written even on non-zero exits —
/// a racy corpus still warms the cache.
pub fn run_batch(inputs: &[PathBuf], config: &BatchConfig) -> BatchReport {
    let io = circ_store::Store::with_faults(&config.faults);
    let cache_dir = config.active_cache_dir();
    // All storage recovery and flush accounting happens here in the
    // driver — loads before the pool starts, the flush after it
    // drains — so both counters are invariant under `jobs`.
    let mut warm = warm_start(&io, cache_dir, config.pred_store, true);
    let mut warnings = std::mem::take(&mut warm.warnings);

    // Journal replay map (resume) and writer. Opening the writer
    // truncates on a fresh run: stale entries from a previous corpus
    // must not survive for a later `--resume` to trust. Rows are only
    // replayable under the configuration that produced them.
    let journal_config = journal::config_fingerprint(
        config.omega,
        config.initial_k,
        config.use_cache,
        config.timeout,
        config.mem_limit_bytes,
        config.triage,
    );
    let mut replayed = std::collections::HashMap::new();
    if config.resume {
        if let Some(jpath) = &config.journal {
            let (map, journal_warnings) = journal::load(jpath, journal_config);
            warnings.extend(journal_warnings);
            replayed = map;
        }
    }
    let tasks: Vec<FileTask> = inputs
        .iter()
        .map(|path| {
            let digest = fs::read(path).ok().map(|bytes| journal::digest_bytes(&bytes));
            let replay = digest.and_then(|d| replayed.get(&d).cloned());
            FileTask { path: path.clone(), digest, replay }
        })
        .collect();
    let journal_out = config.journal.as_ref().and_then(|path| {
        let opened = if config.resume {
            journal::Journal::open_append_in(&io, path)
        } else {
            journal::Journal::create_in(&io, path)
        };
        match opened {
            Ok(j) => Some(j),
            Err(e) => {
                warnings.push(format!(
                    "cannot open journal `{}`: {e}; running without one",
                    path.display()
                ));
                None
            }
        }
    });

    let n = inputs.len();
    let completed = AtomicUsize::new(0);
    let append_failures = AtomicUsize::new(0);
    let supervisor = Supervisor {
        config,
        circ: config.circ_config(),
        file_timeout: carve_timeout(config.timeout, n),
        file_mem: carve_mem_limit(config.mem_limit_bytes, n),
        warm: &warm,
        journal: journal_out.as_ref(),
        journal_config,
        completed: &completed,
        append_failures: &append_failures,
    };
    let (rows, learned) = run_units(
        config.jobs,
        &tasks,
        |task| task.path.display().to_string(),
        |task| supervisor.supervise(task),
    );
    if append_failures.load(Ordering::Relaxed) > 0 {
        warnings.push(format!(
            "{} journal append(s) failed; a resume may re-check those files",
            append_failures.load(Ordering::Relaxed)
        ));
    }

    let mut totals = BatchTotals::default();
    for row in &rows {
        tally(&mut totals, row);
    }
    let quarantine: Vec<String> = rows
        .iter()
        .filter(|r| r.verdict == Verdict::InternalError)
        .map(|r| r.file.clone())
        .collect();
    let exit = worst_exit(&rows);

    // Merge and save sequentially in input order — scheduling never
    // touches the persisted state, so warm files are reproducible.
    // (Under --isolate the children learn into their own memory and
    // are discarded, so the master learns nothing.)
    let mut flush_errors = append_failures.load(Ordering::Relaxed) as u64;
    let cache = cache_dir.map(|dir| {
        let master = AbsCache::with_seed(&warm.abs_seed);
        let preds_seeded = warm.preds.as_ref().map_or(0, PredStore::len);
        let mut pred_master = warm.preds.clone();
        for (file_cache, file_preds) in learned {
            master.absorb(&file_cache);
            if let Some(store) = pred_master.as_mut() {
                store.absorb(file_preds);
            }
        }
        let outcome = warm.flush(&io, dir, &master, pred_master.as_ref());
        warnings.extend(outcome.warnings);
        flush_errors += outcome.flush_errors;
        CacheSummary {
            dir: dir.display().to_string(),
            abs_seeded: warm.abs_seed.len(),
            abs_saved: outcome.abs_saved,
            preds_seeded,
            preds_saved: outcome.preds_saved,
        }
    });
    totals.pipeline.store_recoveries += warm.recovered;
    totals.pipeline.flush_errors += flush_errors;

    BatchReport { rows, totals, quarantine, cache, exit, warnings }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_wins_follows_declaration_order() {
        use Verdict::*;
        let order = [Safe, Inconclusive, InternalError, BudgetExhausted, CompileError, Race];
        assert!(order.windows(2).all(|w| w[0] < w[1]));
        let rows = |vs: &[Verdict]| -> Vec<FileRow> {
            vs.iter().map(|&v| FileRow::new(v.name().into(), v, String::new())).collect()
        };
        assert_eq!(worst_exit(&[]), 0);
        assert_eq!(worst_exit(&rows(&[Safe, Inconclusive])), 2);
        assert_eq!(worst_exit(&rows(&[InternalError, BudgetExhausted, Safe])), 3);
        assert_eq!(worst_exit(&rows(&[CompileError, BudgetExhausted])), 65);
        assert_eq!(worst_exit(&rows(&[CompileError, Race, Safe])), 1);
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("circ-batch-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The pipeline block of [`golden_row`], as the parent format
    /// rendered it: every counter distinct, so a miswired key shows.
    pub(crate) const ROW_PIPELINE_GOLDEN: &str = concat!(
        r#"{"outer_rounds":1,"reach_runs":2,"arg_nodes":3,"sim_checks":4,"#,
        r#""sim_edge_pairs":5,"collapse_runs":6,"collapse_iterations":7,"#,
        r#""refine_rounds":8,"k_increments":9,"preds_seeded":10,"#,
        r#""refine_rounds_saved":11,"ctx_checks":27,"ctx_fallbacks":28,"#,
        r#""abs_queries":16,"abs_cache_hits":17,"#,
        r#""abs_cache_misses":18,"abs_hit_rate":0.485714,"solver_queries":12,"#,
        r#""solver_cache_hits":13,"solver_cache_misses":14,"#,
        r#""solver_hit_rate":0.481481,"theory_rounds":15,"mem_charged_bytes":19,"#,
        r#""budget_polls":20,"faults_injected":21,"triage_stage0_decided":22,"#,
        r#""triage_stage1_decided":23,"triage_fallthrough":24,"#,
        r#""store_recoveries":25,"flush_errors":26,"time_reach_s":0.001001,"#,
        r#""time_sim_s":0.002002,"time_collapse_s":0.003003,"#,
        r#""time_refine_s":0.004004,"time_omega_s":0.005005}"#,
    );

    /// A racy row with an escaped file name and detail and a distinct
    /// value in every pipeline counter.
    pub(crate) fn golden_row() -> FileRow {
        use circ_stats::{AbsCounters, PhaseTimes, SolverCounters};
        let mut row = FileRow::new(
            "dir/a \"quoted\".nesl".into(),
            Verdict::Race,
            "race on x: 2 threads, 7 steps\t\u{1} é".into(),
        );
        row.stage = "sched+circ".into();
        row.time_s = 0.037125;
        row.retries = 2;
        row.pipeline = PipelineStats {
            solver: SolverCounters {
                queries: 12,
                cache_hits: 13,
                cache_misses: 14,
                theory_rounds: 15,
            },
            abs: AbsCounters { queries: 16, cache_hits: 17, cache_misses: 18 },
            outer_rounds: 1,
            reach_runs: 2,
            arg_nodes: 3,
            sim_checks: 4,
            sim_edge_pairs: 5,
            collapse_runs: 6,
            collapse_iterations: 7,
            refine_rounds: 8,
            k_increments: 9,
            preds_seeded: 10,
            refine_rounds_saved: 11,
            ctx_checks: 27,
            ctx_fallbacks: 28,
            mem_charged_bytes: 19,
            budget_polls: 20,
            faults_injected: 21,
            triage_stage0_decided: 22,
            triage_stage1_decided: 23,
            triage_fallthrough: 24,
            store_recoveries: 25,
            flush_errors: 26,
            phases: PhaseTimes {
                reach: Duration::from_micros(1_001),
                sim: Duration::from_micros(2_002),
                collapse: Duration::from_micros(3_003),
                refine: Duration::from_micros(4_004),
                omega: Duration::from_micros(5_005),
            },
        };
        row
    }

    /// The row prefix of [`golden_row`] as the parent format rendered it.
    const ROW_HEAD_GOLDEN: &str = concat!(
        r#"{"file":"dir/a \"quoted\".nesl","verdict":"race","#,
        r#""detail":"race on x: 2 threads, 7 steps\t\u0001 é","stage":"sched+circ","#,
        r#""exit":1,"time_s":0.037125,"pipeline":"#,
    );

    #[test]
    fn row_json_matches_the_pinned_bytes() {
        let want = [ROW_HEAD_GOLDEN, ROW_PIPELINE_GOLDEN, "}"].concat();
        assert_eq!(render_row_json(&golden_row()), want);
        assert_eq!(render_row_json(&parse_row_json(&want).unwrap()), want);
    }

    #[test]
    fn report_json_matches_the_pinned_bytes() {
        let mut failed = FileRow::new(
            "b.nesl".into(),
            Verdict::InternalError,
            "contained worker panic: boom".into(),
        );
        failed.time_s = 0.5;
        failed.retries = 1;
        let rows = vec![golden_row(), failed];
        let mut totals = BatchTotals::default();
        for row in &rows {
            tally(&mut totals, row);
        }
        totals.pipeline.store_recoveries += 1;
        let cache = CacheSummary {
            dir: "/tmp/c \"x\"".into(),
            abs_seeded: 1,
            abs_saved: 3,
            preds_seeded: 5,
            preds_saved: 6,
        };
        let quarantine = vec!["b.nesl".to_string()];
        let report =
            BatchReport { rows, totals, quarantine, cache: Some(cache), exit: 1, warnings: vec![] };
        let zero_pipeline = concat!(
            r#"{"outer_rounds":0,"reach_runs":0,"arg_nodes":0,"sim_checks":0,"#,
            r#""sim_edge_pairs":0,"collapse_runs":0,"collapse_iterations":0,"refine_rounds":0,"#,
            r#""k_increments":0,"preds_seeded":0,"refine_rounds_saved":0,"ctx_checks":0,"#,
            r#""ctx_fallbacks":0,"abs_queries":0,"#,
            r#""abs_cache_hits":0,"abs_cache_misses":0,"abs_hit_rate":0.000000,"#,
            r#""solver_queries":0,"solver_cache_hits":0,"solver_cache_misses":0,"#,
            r#""solver_hit_rate":0.000000,"theory_rounds":0,"mem_charged_bytes":0,"#,
            r#""budget_polls":0,"faults_injected":0,"triage_stage0_decided":0,"#,
            r#""triage_stage1_decided":0,"triage_fallthrough":0,"store_recoveries":0,"#,
            r#""flush_errors":0,"time_reach_s":0.000000,"time_sim_s":0.000000,"#,
            r#""time_collapse_s":0.000000,"time_refine_s":0.000000,"time_omega_s":0.000000}"#,
        );
        let want = [
            r#"{"report":"circ-batch","rows":["#,
            ROW_HEAD_GOLDEN,
            ROW_PIPELINE_GOLDEN,
            r#"},{"file":"b.nesl","verdict":"internal-error","#,
            r#""detail":"contained worker panic: boom","stage":"-","exit":2,"time_s":0.500000,"#,
            r#""pipeline":"#,
            zero_pipeline,
            r#"}],"totals":{"files":2,"safe":0,"races":1,"inconclusive":1,"#,
            r#""budget_exhausted":0,"compile_errors":0,"retries":3,"isolated_crashes":0,"#,
            r#""resumed":0,"cancelled":0,"pipeline":"#,
            // The totals pipeline is the golden row's plus one recovery.
            &ROW_PIPELINE_GOLDEN.replace(r#""store_recoveries":25"#, r#""store_recoveries":26"#),
            r#"},"quarantine":["b.nesl"],"#,
            r#""cache":{"dir":"/tmp/c \"x\"","abs_seeded":1,"abs_saved":3,"#,
            r#""preds_seeded":5,"preds_saved":6},"exit":1}"#,
        ];
        assert_eq!(report.to_json(), want.concat());
    }

    const SAFE_SRC: &str = "global int x;\n#race x;\nthread t { loop { atomic { x = x + 1; } } }\n";
    const RACY_SRC: &str = "global int y;\n#race y;\nthread t { loop { y = y + 1; } }\n";

    #[test]
    fn manifest_parses_paths_and_escapes() {
        let paths =
            parse_manifest(" [ \"a.nesl\" , \"dir\\/b.nesl\", \"c\\u0041.nesl\" ] ").unwrap();
        assert_eq!(paths, vec!["a.nesl", "dir/b.nesl", "cA.nesl"]);
        assert_eq!(parse_manifest("[]").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn manifest_rejects_garbage() {
        for bad in ["", "{", "[\"a\"", "[\"a\",]", "[\"a\"] x", "[1]", "[\"\\q\"]"] {
            assert!(parse_manifest(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn collect_inputs_scans_sorted_and_reads_manifests() {
        let dir = tmp_root("collect");
        fs::write(dir.join("b.nesl"), SAFE_SRC).unwrap();
        fs::write(dir.join("a.nesl"), SAFE_SRC).unwrap();
        fs::write(dir.join("notes.txt"), "x").unwrap();
        let got = collect_inputs(&dir).unwrap();
        assert_eq!(got, vec![dir.join("a.nesl"), dir.join("b.nesl")]);

        fs::write(dir.join("m.json"), "[\"a.nesl\", \"b.nesl\"]").unwrap();
        let got = collect_inputs(&dir.join("m.json")).unwrap();
        assert_eq!(got, vec![dir.join("a.nesl"), dir.join("b.nesl")]);

        let got = collect_inputs(&dir.join("a.nesl")).unwrap();
        assert_eq!(got, vec![dir.join("a.nesl")]);

        assert!(collect_inputs(&dir.join("notes.txt")).is_err());
        assert!(collect_inputs(&dir.join("missing.nesl")).is_err());
        let empty = tmp_root("collect-empty");
        assert!(collect_inputs(&empty).is_err());
    }

    #[test]
    fn batch_worst_wins_and_orders_rows() {
        let dir = tmp_root("worst");
        fs::write(dir.join("a_safe.nesl"), SAFE_SRC).unwrap();
        fs::write(dir.join("b_racy.nesl"), RACY_SRC).unwrap();
        fs::write(dir.join("c_broken.nesl"), "global int").unwrap();
        let inputs = collect_inputs(&dir).unwrap();
        let report = run_batch(&inputs, &BatchConfig::default());
        assert_eq!(report.exit, 1, "race dominates compile error");
        let verdicts: Vec<_> = report.rows.iter().map(|r| r.verdict).collect();
        assert_eq!(verdicts, vec![Verdict::Safe, Verdict::Race, Verdict::CompileError]);
        assert_eq!(report.totals.files, 3);
        assert_eq!(report.totals.safe, 1);
        assert_eq!(report.totals.races, 1);
        assert_eq!(report.totals.compile_errors, 1);
        assert!(report.cache.is_none());
        assert!(report.quarantine.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"verdict\":\"race\""), "{json}");
        assert!(json.contains("\"quarantine\":[]"), "{json}");
        assert!(!json.contains("\"jobs\""), "report must not mention jobs: {json}");
    }

    #[test]
    fn batch_compile_error_dominates_inconclusive() {
        let dir = tmp_root("dominance");
        fs::write(dir.join("broken.nesl"), "thread {").unwrap();
        fs::write(dir.join("safe.nesl"), SAFE_SRC).unwrap();
        let inputs = collect_inputs(&dir).unwrap();
        let report = run_batch(&inputs, &BatchConfig::default());
        assert_eq!(report.exit, 65);
    }

    #[test]
    fn warm_run_hits_where_cold_missed() {
        let dir = tmp_root("warm");
        fs::write(dir.join("a.nesl"), SAFE_SRC).unwrap();
        let cache_dir = dir.join("cache");
        let inputs = collect_inputs(&dir).unwrap();
        let cfg = BatchConfig { cache_dir: Some(cache_dir.clone()), ..BatchConfig::default() };

        let cold = run_batch(&inputs, &cfg);
        assert_eq!(cold.exit, 0);
        let cold_cache = cold.cache.as_ref().unwrap();
        assert_eq!(cold_cache.abs_seeded, 0);
        assert!(cold_cache.abs_saved > 0, "a safe proof must learn entailments");
        assert!(cache_dir.join(ABS_CACHE_FILE).is_file());
        assert!(!cache_dir.join("solver.cache").exists());

        let warm = run_batch(&inputs, &cfg);
        assert_eq!(warm.exit, 0);
        let warm_cache = warm.cache.as_ref().unwrap();
        assert_eq!(warm_cache.abs_seeded, cold_cache.abs_saved);
        assert!(
            warm.totals.pipeline.abs.cache_misses < cold.totals.pipeline.abs.cache_misses,
            "warm run must miss strictly less: warm {} vs cold {}",
            warm.totals.pipeline.abs.cache_misses,
            cold.totals.pipeline.abs.cache_misses
        );
        // Identical verdicts, and the cache reaches a fixpoint.
        assert_eq!(warm.rows[0].verdict, cold.rows[0].verdict);
        assert_eq!(warm_cache.abs_saved, cold_cache.abs_saved);
    }

    #[test]
    fn damaged_cache_degrades_to_cold_start() {
        let dir = tmp_root("damaged");
        fs::write(dir.join("a.nesl"), SAFE_SRC).unwrap();
        let cache_dir = dir.join("cache");
        let inputs = collect_inputs(&dir).unwrap();
        let cfg = BatchConfig { cache_dir: Some(cache_dir.clone()), ..BatchConfig::default() };
        let cold = run_batch(&inputs, &cfg);

        // Corrupt one byte in the body of the saved entailment cache.
        let path = cache_dir.join(ABS_CACHE_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let ix = bytes.len() - 2;
        bytes[ix] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let damaged = run_batch(&inputs, &cfg);
        assert_eq!(damaged.exit, 0);
        assert!(
            damaged.warnings.iter().any(|w| w.contains("ignoring cache")),
            "expected a degradation warning, got {:?}",
            damaged.warnings
        );
        let summary = damaged.cache.as_ref().unwrap();
        assert_eq!(summary.abs_seeded, 0, "damaged file must not seed anything");
        assert_eq!(damaged.rows[0].verdict, cold.rows[0].verdict);
        // The save path rewrote a valid file; the next run is warm again.
        let healed = run_batch(&inputs, &cfg);
        assert!(healed.warnings.is_empty());
        assert_eq!(healed.cache.as_ref().unwrap().abs_seeded, summary.abs_saved);
    }

    #[test]
    fn no_cache_ignores_cache_dir() {
        let dir = tmp_root("nocache");
        fs::write(dir.join("a.nesl"), SAFE_SRC).unwrap();
        let cache_dir = dir.join("cache");
        let inputs = collect_inputs(&dir).unwrap();
        let cfg = BatchConfig {
            use_cache: false,
            cache_dir: Some(cache_dir.clone()),
            ..BatchConfig::default()
        };
        let report = run_batch(&inputs, &cfg);
        assert_eq!(report.exit, 0);
        assert!(report.cache.is_none());
        assert!(!cache_dir.exists(), "no cache files may be written with --no-cache");
    }

    #[test]
    fn report_is_jobs_invariant_modulo_wall_times() {
        let dir = tmp_root("jobs");
        fs::write(dir.join("a.nesl"), SAFE_SRC).unwrap();
        fs::write(dir.join("b.nesl"), RACY_SRC).unwrap();
        fs::write(dir.join("c.nesl"), SAFE_SRC).unwrap();
        let inputs = collect_inputs(&dir).unwrap();
        let seq = run_batch(&inputs, &BatchConfig { jobs: 1, ..BatchConfig::default() });
        let par = run_batch(&inputs, &BatchConfig { jobs: 4, ..BatchConfig::default() });
        assert_eq!(strip_times(&seq.to_json()), strip_times(&par.to_json()));
        assert_eq!(seq.exit, par.exit);
    }

    #[test]
    fn budget_exhausted_rows_carry_partial_stats() {
        let dir = tmp_root("partial-stats");
        fs::write(dir.join("a.nesl"), SAFE_SRC).unwrap();
        let inputs = collect_inputs(&dir).unwrap();
        let cfg = BatchConfig { timeout: Some(Duration::from_nanos(1)), ..BatchConfig::default() };
        let report = run_batch(&inputs, &cfg);
        assert_eq!(report.exit, 3);
        let row = &report.rows[0];
        assert_eq!(row.verdict, Verdict::BudgetExhausted);
        assert!(
            row.pipeline.budget_polls > 0,
            "an exhausted row must keep the partial counters sealed up to the trip: {:?}",
            row.pipeline
        );
        assert!(row.detail.contains("Deadline"), "{}", row.detail);
    }

    #[test]
    fn journal_resume_replays_rows_byte_identically() {
        let dir = tmp_root("resume");
        fs::write(dir.join("a.nesl"), SAFE_SRC).unwrap();
        fs::write(dir.join("b.nesl"), RACY_SRC).unwrap();
        let inputs = collect_inputs(&dir).unwrap();
        let journal_path = dir.join("run.journal");
        let cfg = BatchConfig { journal: Some(journal_path.clone()), ..BatchConfig::default() };

        let cold = run_batch(&inputs, &cfg);
        assert_eq!(cold.totals.resumed, 0);
        assert!(journal_path.is_file());

        let resumed = run_batch(&inputs, &BatchConfig { resume: true, ..cfg.clone() });
        assert_eq!(resumed.totals.resumed, 2, "both rows must replay");
        assert!(resumed.rows.iter().all(|r| r.resumed));
        // Replayed rows reproduce the cold rows byte-for-byte —
        // including wall times, which come from the journal.
        for (cold_row, resumed_row) in cold.rows.iter().zip(&resumed.rows) {
            assert_eq!(render_row_json(cold_row), render_row_json(resumed_row));
        }
        // A second resume is byte-stable against the first.
        let again = run_batch(&inputs, &BatchConfig { resume: true, ..cfg.clone() });
        assert_eq!(resumed.to_json(), again.to_json());

        // Editing a file invalidates only that file's entry.
        fs::write(dir.join("a.nesl"), RACY_SRC.replace('y', "z")).unwrap();
        let partial = run_batch(&inputs, &BatchConfig { resume: true, ..cfg });
        assert_eq!(partial.totals.resumed, 1, "edited file must be re-checked");
        assert_eq!(partial.rows[0].verdict, Verdict::Race, "re-check sees the new content");
    }

    #[test]
    fn interrupted_run_drains_and_resume_completes() {
        let dir = tmp_root("interrupt");
        fs::write(dir.join("a.nesl"), SAFE_SRC).unwrap();
        fs::write(dir.join("b.nesl"), RACY_SRC).unwrap();
        fs::write(dir.join("c.nesl"), SAFE_SRC.replace('x', "w")).unwrap();
        let inputs = collect_inputs(&dir).unwrap();
        let journal_path = dir.join("run.journal");

        let baseline = run_batch(&inputs, &BatchConfig::default());

        // "Interrupt" deterministically after the first completed file.
        let cfg = BatchConfig {
            journal: Some(journal_path.clone()),
            cancel_after: Some(1),
            ..BatchConfig::default()
        };
        let interrupted = run_batch(&inputs, &cfg);
        assert_eq!(interrupted.totals.cancelled, 2, "files after the trip must drain");
        assert_eq!(interrupted.rows[0].verdict, Verdict::Safe);
        assert!(interrupted.rows[1].cancelled && interrupted.rows[2].cancelled);
        assert_eq!(interrupted.exit, 3, "a drained batch exits with the budget code");
        let journal_text = fs::read_to_string(&journal_path).unwrap();
        assert_eq!(journal_text.lines().count(), 1, "cancelled rows must not be journaled");

        // Resume finishes the rest; verdicts match the uninterrupted run.
        let resumed = run_batch(
            &inputs,
            &BatchConfig {
                journal: Some(journal_path.clone()),
                resume: true,
                ..BatchConfig::default()
            },
        );
        assert_eq!(resumed.totals.resumed, 1);
        assert_eq!(resumed.totals.cancelled, 0);
        let essence = |r: &BatchReport| -> Vec<(String, &'static str, String)> {
            r.rows
                .iter()
                .map(|row| (row.file.clone(), row.verdict.name(), row.detail.clone()))
                .collect()
        };
        assert_eq!(essence(&resumed), essence(&baseline));
        assert_eq!(resumed.exit, baseline.exit);
    }

    #[test]
    fn pre_tripped_cancel_drains_everything_but_still_reports() {
        let dir = tmp_root("drain");
        fs::write(dir.join("a.nesl"), SAFE_SRC).unwrap();
        fs::write(dir.join("b.nesl"), RACY_SRC).unwrap();
        let inputs = collect_inputs(&dir).unwrap();
        let cfg = BatchConfig::default();
        cfg.cancel.cancel();
        let report = run_batch(&inputs, &cfg);
        assert_eq!(report.totals.cancelled, 2);
        assert_eq!(report.exit, 3);
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::BudgetExhausted && r.cancelled));
    }

    #[cfg(unix)]
    fn write_script(path: &Path, body: &str) {
        use std::os::unix::fs::PermissionsExt;
        fs::write(path, body).unwrap();
        let mut perms = fs::metadata(path).unwrap().permissions();
        perms.set_mode(0o755);
        fs::set_permissions(path, perms).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn isolated_child_rows_parse_and_crashes_degrade() {
        let dir = tmp_root("isolate");
        fs::write(dir.join("a.nesl"), SAFE_SRC).unwrap();
        let inputs = collect_inputs(&dir).unwrap();

        // A scripted "child" that prints a canned row.
        let fake_row = render_row_json(&FileRow::new(
            "ignored-by-parent".into(),
            Verdict::Safe,
            "1 race variable(s) race-free".into(),
        ));
        let ok_script = dir.join("fake-circ-ok.sh");
        write_script(&ok_script, &format!("#!/bin/sh\necho '{fake_row}'\nexit 0\n"));
        let cfg = BatchConfig {
            isolate: true,
            isolate_binary: Some(ok_script),
            ..BatchConfig::default()
        };
        let report = run_batch(&inputs, &cfg);
        assert_eq!(report.rows[0].verdict, Verdict::Safe);
        assert_eq!(report.rows[0].file, inputs[0].display().to_string());
        assert_eq!(report.totals.isolated_crashes, 0);

        // A "child" that dies on a signal: one internal-error row,
        // stderr captured, batch survives.
        let crash_script = dir.join("fake-circ-crash.sh");
        write_script(&crash_script, "#!/bin/sh\necho boom-stderr >&2\nkill -ABRT $$\n");
        let cfg = BatchConfig {
            isolate: true,
            isolate_binary: Some(crash_script),
            ..BatchConfig::default()
        };
        let report = run_batch(&inputs, &cfg);
        assert_eq!(report.rows[0].verdict, Verdict::InternalError);
        assert!(report.rows[0].detail.contains("signal 6"), "{}", report.rows[0].detail);
        assert!(report.rows[0].detail.contains("boom-stderr"), "{}", report.rows[0].detail);
        assert_eq!(report.totals.isolated_crashes, 1);
        assert_eq!(report.quarantine, vec![inputs[0].display().to_string()]);
        assert_eq!(report.exit, 2);
    }

    #[cfg(unix)]
    #[test]
    fn retry_policy_reruns_flaky_children_and_quarantines_hopeless_ones() {
        let dir = tmp_root("retry");
        fs::write(dir.join("a.nesl"), SAFE_SRC).unwrap();
        let inputs = collect_inputs(&dir).unwrap();

        // Fails on the first call, succeeds on the second (a marker
        // file carries the attempt count across processes).
        let fake_row = render_row_json(&FileRow::new(
            "x".into(),
            Verdict::Safe,
            "1 race variable(s) race-free".into(),
        ));
        let marker = dir.join("attempted");
        let flaky_script = dir.join("fake-circ-flaky.sh");
        write_script(
            &flaky_script,
            &format!(
                "#!/bin/sh\nif [ -e '{}' ]; then echo '{fake_row}'; exit 0; fi\n\
                 touch '{}'\nkill -KILL $$\n",
                marker.display(),
                marker.display()
            ),
        );
        let cfg = BatchConfig {
            isolate: true,
            isolate_binary: Some(flaky_script),
            retry: RetryPolicy::with_retries(2, 42),
            ..BatchConfig::default()
        };
        let report = run_batch(&inputs, &cfg);
        assert_eq!(report.rows[0].verdict, Verdict::Safe, "{}", report.rows[0].detail);
        assert_eq!(report.rows[0].retries, 1);
        assert_eq!(report.rows[0].isolated_crashes, 1);
        assert_eq!(report.totals.retries, 1);
        assert!(report.quarantine.is_empty());
        assert_eq!(report.exit, 0);

        // A child that always crashes exhausts the policy and lands in
        // quarantine with the full attempt count.
        let dead_script = dir.join("fake-circ-dead.sh");
        write_script(&dead_script, "#!/bin/sh\nkill -KILL $$\n");
        let cfg = BatchConfig {
            isolate: true,
            isolate_binary: Some(dead_script),
            retry: RetryPolicy::with_retries(2, 42),
            ..BatchConfig::default()
        };
        let report = run_batch(&inputs, &cfg);
        assert_eq!(report.rows[0].verdict, Verdict::InternalError);
        assert_eq!(report.rows[0].retries, 2, "2 retries = 3 attempts");
        assert_eq!(report.rows[0].isolated_crashes, 3);
        assert_eq!(report.quarantine.len(), 1);
    }

    #[test]
    fn row_json_round_trips() {
        let mut row = FileRow::new(
            "examples/fig1.nesl".into(),
            Verdict::Race,
            "race on x: 2 threads, 7 steps".into(),
        );
        row.time_s = 0.125;
        row.pipeline.outer_rounds = 4;
        row.pipeline.arg_nodes = 99;
        let parsed = parse_row_json(&render_row_json(&row)).unwrap();
        assert_eq!(parsed.file, row.file);
        assert_eq!(parsed.verdict, row.verdict);
        assert_eq!(parsed.detail, row.detail);
        assert_eq!(parsed.pipeline, row.pipeline);
        assert_eq!(render_row_json(&parsed), render_row_json(&row));
        assert!(parse_row_json("{\"file\":\"x\"}").is_err());
        assert!(parse_row_json("not json").is_err());
    }

    /// Zeroes every `"time...":<number>` value so wall clocks do not
    /// break byte comparisons (same scanner as tests/determinism.rs).
    fn strip_times(json: &str) -> String {
        let mut out = String::with_capacity(json.len());
        let mut rest = json;
        while let Some(ix) = rest.find("\"time") {
            let key_end = match rest[ix + 1..].find('"') {
                Some(e) => ix + 1 + e + 1,
                None => break,
            };
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
}
