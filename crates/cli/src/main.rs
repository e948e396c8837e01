//! `circ` — the command-line race checker. `circ --help` lists the
//! subcommands and their flags.
//!
//! Exit codes: 0 = all checked variables race-free, 1 = a race was
//! found, 2 = inconclusive (the analysis gave up within its own
//! bounds), 3 = inconclusive because a resource budget ran out
//! (`--timeout-secs` / `--mem-limit-mb` / cancellation), 64 = usage
//! error, 65 = compile error. A race (1) dominates; among inconclusive
//! variables, budget exhaustion (3) dominates plain inconclusive (2).
//! For `batch`, a compile error in any file (65) dominates budget
//! exhaustion and inconclusive rows, and a race still dominates all.
//! `serve` exits 3 after a clean drain and 74 when it cannot bind its
//! socket or port; `client` exits with the worst `exit` field across
//! its check responses, 75 when the service shed a request
//! (overloaded or shutting down), and 74 when it cannot connect.
//!
//! `check` is a one-file batch unit rendered verbosely; with
//! `--row-json` (the child mode of `batch --isolate`) it prints the
//! report row instead and leaves the cache directory alone.

use circ_batch::{Decided, VarCheck};
use circ_core::{CircConfig, CircEvent, CircOutcome, Property};
use circ_ir::{dot, Cfa, MtProgram};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// `print!` to stdout, except that a closed pipe (the reader quit
/// early, as `circ batch --json | head` does) drops the output instead
/// of panicking, so the command still finishes and exits with its own
/// code. Any other write error panics, as `print!` does.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// [`out!`] with a trailing newline, the `println!` of this binary.
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "check" => cmd_check(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "client" => cmd_client(&args[1..]),
        "compile" => cmd_compile(&args[1..]),
        "baselines" => cmd_baselines(&args[1..]),
        "--help" | "-h" | "help" => {
            print_help();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}

/// The text `circ --help` prints.
const HELP: &str = "circ — race checking by context inference (PLDI 2004 reproduction)\n\n\
         USAGE:\n  circ check <file.nesl> [--mode circ|omega] [--asserts] [--k N] [--print-acfa]\n\
         \x20                        [--trace] [--stats] [--json] [--no-cache] [--row-json]\n\
         \x20                        [--timeout-secs N | --timeout-millis N]\n\
         \x20                        [--mem-limit-mb N | --mem-limit-bytes N] [--cache-dir DIR]\n\
         \x20                        [--pred-store | --no-pred-store] [--triage | --no-triage]\n\
         \x20 circ batch <dir|manifest.json|file.nesl> [--mode circ|omega] [--k N] [--jobs N]\n\
         \x20                        [--json] [--no-cache]\n\
         \x20                        [--timeout-secs N | --timeout-millis N]\n\
         \x20                        [--mem-limit-mb N | --mem-limit-bytes N] [--cache-dir DIR]\n\
         \x20                        [--pred-store | --no-pred-store] [--triage | --no-triage]\n\
         \x20                        [--journal FILE] [--resume] [--isolate] [--retries N]\n\
         \x20 circ serve --socket PATH | --port N [--jobs N] [--max-inflight N] [--queue-depth N]\n\
         \x20                        [--timeout-secs N | --timeout-millis N]\n\
         \x20                        [--mem-limit-mb N | --mem-limit-bytes N] [--cache-dir DIR]\n\
         \x20                        [--no-cache] [--mode circ|omega] [--k N] [--retries N]\n\
         \x20                        [--pred-store | --no-pred-store] [--triage | --no-triage]\n\
         \x20 circ client --socket PATH | --port N [--stats] [--health] [paths...]\n\
         \x20 circ compile <file.nesl> [--dot]\n\
         \x20 circ baselines <file.nesl>\n\n\
         The input file declares globals, `#race` variables, and one `thread`.\n\
         `check` proves the absence of data races for UNBOUNDEDLY many copies\n\
         of the thread, or returns a concrete racy schedule. `batch` checks a\n\
         whole corpus (a directory of .nesl files, a JSON manifest listing\n\
         paths, or one file) on a worker pool and prints one aggregate\n\
         report; its exit code is worst-wins across files.\n\n\
         `--stats` prints per-phase counters, cache hit rates, and wall-time\n\
         spans after each verdict; `--json` prints them as one JSON line\n\
         instead (implies `--stats`); `--no-cache` disables the entailment\n\
         and solver caches (same verdict, useful for timing differentials);\n\
         `--jobs N` (`batch`, `serve`) checks N files at once (0 = all cores,\n\
         default 1); each check runs on one thread, so verdicts and\n\
         statistics are identical at any setting;\n\
         `--timeout-secs N` / `--mem-limit-mb N` bound the run's wall clock /\n\
         accounted memory, split evenly across race variables for `check`\n\
         and across files and then variables for `batch` — on exhaustion\n\
         the verdict is INCONCLUSIVE with partial statistics and exit code 3;\n\
         `--cache-dir DIR` persists the entailment and solver caches across\n\
         runs: loaded on start (a damaged file degrades to a logged cold\n\
         start), written back on exit unless the run learned nothing from\n\
         an intact directory. `--k N` (N >= 1) sets the initial\n\
         thread-counter parameter.\n\n\
         Incremental re-checking: with `--cache-dir`, each check's discovered\n\
         predicate set, final k and (when SAFE) final context ACFA are\n\
         persisted to a predicate store (preds.store) keyed by a structural\n\
         digest of the lowered automaton plus a config fingerprint. A future\n\
         check of the same program first re-checks the stored context (one\n\
         reachability run and one simulation check); if that fails, it infers\n\
         a context from the seeded predicates. Verdicts are never replayed:\n\
         a stale entry degrades to ordinary inference and refinement. On by\n\
         default with a cache dir; `--no-pred-store` disables it,\n\
         `--pred-store` asserts it (usage error without `--cache-dir`).\n\
         `--stats` reports `preds seeded`, `refine rounds saved`,\n\
         `stored contexts checked` and `stored contexts failed`.\n\n\
         Tiered triage: `--triage` runs two cheap stages before the engine.\n\
         Stage 0 (flow) certifies a race variable SAFE when the sound static\n\
         flow check draws zero findings for it; stage 1 (sched) certifies\n\
         RACE when a bounded, seeded random schedule reaches a race state —\n\
         the concrete trace is replay-validated before it is trusted.\n\
         Everything else falls through to full CIRC, so verdicts are\n\
         identical with or without `--triage`; only the number of engine\n\
         runs changes. Batch rows carry a `stage` attribution column\n\
         (flow/sched/circ) and the stats gain `triage_*` counters.\n\
         `--no-triage` forces every variable to stage 2 (the default).\n\n\
         Crash safety (batch): `--journal FILE` appends every completed row to\n\
         a JSONL journal keyed by a digest of the input bytes; `--resume`\n\
         replays journaled rows for unchanged inputs and re-checks the rest\n\
         (torn or stale journal lines degrade to re-checks). SIGINT/SIGTERM\n\
         shut down gracefully: in-flight files drain at their next budget\n\
         poll, the partial report and cache files are still written, and a\n\
         second signal force-kills. `--isolate` checks each file in a child\n\
         process (`circ check --row-json`) so a crash or OOM kill in one\n\
         input becomes a single internal-error row carrying the child's\n\
         stderr; `--retries N` re-runs transient internal errors up to N\n\
         extra times with deterministic, budget-bounded backoff, and files\n\
         that still fail are listed under `quarantine` in the report.\n\
         `--timeout-millis` / `--mem-limit-bytes` are fine-grained budget\n\
         variants (used by the isolation protocol to forward carved\n\
         per-file slices).\n\n\
         Service mode: `serve` keeps one process resident with warm caches\n\
         behind a line-delimited JSON protocol (one request object per line\n\
         in, one response per line out) on a unix socket or localhost TCP\n\
         port. Requests: {\"op\":\"check\",\"source\":...|\"path\":...},\n\
         {\"op\":\"stats\"}, {\"op\":\"health\"}. `--max-inflight` bounds\n\
         concurrent checks, `--queue-depth` bounds waiters, and anything\n\
         beyond both is shed with a structured `overloaded` response; the\n\
         `--timeout-secs` / `--mem-limit-mb` envelope is carved per admitted\n\
         request. SIGINT/SIGTERM drain gracefully (in-flight requests finish\n\
         or degrade to cancelled rows, queued ones get `shutting-down`,\n\
         caches flush, exit 3); SIGHUP flushes the caches without draining.\n\
         A stale socket file left by a crash is detected by a connect probe\n\
         and reclaimed; a live one is refused with exit 74. `client` submits\n\
         server-side paths (or `--stats` / `--health` probes) and exits\n\
         worst-wins across the responses.";

fn print_help() {
    outln!("{HELP}");
}

fn usage() -> ExitCode {
    print_help();
    ExitCode::from(64)
}

/// The flags `check`, `batch` and `serve` share, parsed and validated
/// in one place. `Parsed` and `ServeFlags` dereference to it.
#[derive(Debug)]
struct CommonFlags {
    jobs: usize,
    timeout_secs: Option<u64>,
    timeout_millis: Option<u64>,
    mem_limit_mb: Option<u64>,
    mem_limit_bytes: Option<u64>,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    mode_omega: bool,
    initial_k: u32,
    retries: u32,
    /// Tri-state: `--pred-store` forces on (usage error without a
    /// cache dir), `--no-pred-store` forces off, unset follows the
    /// default (on whenever `--cache-dir` is set).
    pred_store: Option<bool>,
    /// Tri-state: `--triage` runs the cheap-stage pipeline in front
    /// of the engine, `--no-triage` forces every variable straight to
    /// stage 2 (full CIRC), unset follows the default (off).
    triage: Option<bool>,
}

impl Default for CommonFlags {
    fn default() -> CommonFlags {
        CommonFlags {
            jobs: 1,
            timeout_secs: None,
            timeout_millis: None,
            mem_limit_mb: None,
            mem_limit_bytes: None,
            cache_dir: None,
            no_cache: false,
            mode_omega: true,
            initial_k: 1,
            retries: 0,
            pred_store: None,
            triage: None,
        }
    }
}

/// Parses the value following `flag` as a number.
fn number<T: std::str::FromStr>(
    flag: &str,
    it: &mut std::slice::Iter<String>,
) -> Result<T, String> {
    let v = it.next().ok_or(format!("{flag} expects a number"))?;
    v.parse().map_err(|_| format!("{flag} expects a number, got `{v}`"))
}

/// Sets one side of a `--x` / `--no-x` pair, rejecting the other side.
fn tri_state(slot: &mut Option<bool>, on: bool, pair: &str) -> Result<(), String> {
    if *slot == Some(!on) {
        return Err(format!("{pair} are contradictory"));
    }
    *slot = Some(on);
    Ok(())
}

impl CommonFlags {
    /// Consumes `flag` (and its value) when it is a shared flag;
    /// `Ok(false)` leaves it to the subcommand's own parser.
    fn parse_flag(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<String>,
    ) -> Result<bool, String> {
        match flag {
            "--mode" => match it.next().map(String::as_str) {
                Some("circ") => self.mode_omega = false,
                Some("omega") => self.mode_omega = true,
                other => return Err(format!("--mode expects circ|omega, got {other:?}")),
            },
            "--k" => {
                self.initial_k = number(flag, it)?;
                // k counts context threads; the abstraction is only
                // defined for k >= 1 (§3.2's counter domain starts at
                // "one context thread"), so 0 is a usage error, not a
                // config we can silently run with.
                if self.initial_k == 0 {
                    return Err("--k must be at least 1 (0 context threads is not a valid counter abstraction)".into());
                }
            }
            "--jobs" => self.jobs = number(flag, it)?,
            "--timeout-secs" => self.timeout_secs = Some(number(flag, it)?),
            "--timeout-millis" => self.timeout_millis = Some(number(flag, it)?),
            "--mem-limit-mb" => {
                let mb: u64 = number(flag, it)?;
                mb.checked_mul(1 << 20).ok_or("--mem-limit-mb overflows 64 bits of bytes")?;
                self.mem_limit_mb = Some(mb);
            }
            "--mem-limit-bytes" => self.mem_limit_bytes = Some(number(flag, it)?),
            "--retries" => self.retries = number(flag, it)?,
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir expects a directory")?;
                self.cache_dir = Some(PathBuf::from(v));
            }
            "--no-cache" => self.no_cache = true,
            "--pred-store" | "--no-pred-store" => tri_state(
                &mut self.pred_store,
                flag == "--pred-store",
                "--pred-store and --no-pred-store",
            )?,
            "--triage" | "--no-triage" => {
                tri_state(&mut self.triage, flag == "--triage", "--triage and --no-triage")?
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The cross-flag checks every subcommand shares (`asserts` is
    /// `check --asserts`, which triage cannot serve).
    fn validate(&self, asserts: bool) -> Result<(), String> {
        if self.cache_dir.is_some() && self.no_cache {
            return Err("--cache-dir and --no-cache are contradictory (nothing to persist)".into());
        }
        if self.pred_store == Some(true) && self.cache_dir.is_none() {
            return Err("--pred-store needs --cache-dir DIR (the store lives there)".into());
        }
        if self.triage == Some(true) && asserts {
            return Err("--triage and --asserts are contradictory (the cheap stages decide the \
                 race property only)"
                .into());
        }
        if self.timeout_secs.is_some() && self.timeout_millis.is_some() {
            return Err(
                "--timeout-secs and --timeout-millis are two spellings of one budget — pass only one"
                    .into(),
            );
        }
        if self.mem_limit_mb.is_some() && self.mem_limit_bytes.is_some() {
            return Err(
                "--mem-limit-mb and --mem-limit-bytes are two spellings of one budget — pass only one"
                    .into(),
            );
        }
        Ok(())
    }

    /// The effective wall-clock budget (`--timeout-secs` or its
    /// millisecond-granularity variant; the parser rejects both at
    /// once).
    fn timeout(&self) -> Option<Duration> {
        self.timeout_secs
            .map(Duration::from_secs)
            .or(self.timeout_millis.map(Duration::from_millis))
    }

    /// The effective memory ceiling in bytes (the parser rejects a
    /// `--mem-limit-mb` whose byte count overflows).
    fn mem_limit(&self) -> Option<u64> {
        self.mem_limit_mb.map(|mb| mb * 1024 * 1024).or(self.mem_limit_bytes)
    }

    /// `--retries N` as a deterministic retry policy.
    fn retry(&self) -> circ_governor::RetryPolicy {
        if self.retries > 0 {
            circ_governor::RetryPolicy::with_retries(self.retries, 0x5eed_c1bc)
        } else {
            circ_governor::RetryPolicy::none()
        }
    }

    /// The batch configuration these flags select.
    fn batch_config(&self) -> circ_batch::BatchConfig {
        circ_batch::BatchConfig {
            omega: self.mode_omega,
            initial_k: self.initial_k,
            use_cache: !self.no_cache,
            jobs: self.jobs,
            timeout: self.timeout(),
            mem_limit_bytes: self.mem_limit(),
            cache_dir: self.cache_dir.clone(),
            pred_store: self.pred_store.unwrap_or(true),
            triage: self.triage.unwrap_or(false),
            retry: self.retry(),
            ..circ_batch::BatchConfig::default()
        }
    }
}

#[derive(Debug, Default)]
struct Parsed {
    common: CommonFlags,
    source_path: String,
    asserts: bool,
    print_acfa: bool,
    trace: bool,
    dot: bool,
    stats: bool,
    stats_json: bool,
    row_json: bool,
    journal: Option<PathBuf>,
    resume: bool,
    isolate: bool,
}

impl std::ops::Deref for Parsed {
    type Target = CommonFlags;
    fn deref(&self) -> &CommonFlags {
        &self.common
    }
}

/// The subcommand whose flags [`parse_flags`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sub {
    Check,
    Batch,
    /// Takes `--dot` only.
    Compile,
    /// Takes no flags.
    Baselines,
}

/// Flags `check` rejects: `batch`'s supervision flags (`--retries`
/// also `serve`'s) and `--jobs`, which fans out files, not one check.
const BATCH_ONLY: [&str; 5] = ["--journal", "--resume", "--isolate", "--retries", "--jobs"];

/// Flags `batch` rejects: they shape `check`'s one-file report.
const CHECK_ONLY: [&str; 6] =
    ["--asserts", "--print-acfa", "--trace", "--dot", "--stats", "--row-json"];

/// Parses the flags of `check`, `batch`, `compile` and `baselines`.
/// Each rejects the flags it would not act on, rather than ignoring
/// them: `check` and `batch` the ones only the other takes, `compile`
/// everything but `--dot`, `baselines` every flag.
fn parse_flags(args: &[String], sub: Sub) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.starts_with('-');
        let misplaced = match sub {
            Sub::Check => BATCH_ONLY.contains(&a.as_str()).then_some(("check", "a `batch` flag")),
            Sub::Batch => CHECK_ONLY.contains(&a.as_str()).then_some(("batch", "a `check` flag")),
            Sub::Compile => (flag && a != "--dot").then_some(("compile", "it takes only --dot")),
            Sub::Baselines => flag.then_some(("baselines", "it takes no flags")),
        };
        if let Some((sub, why)) = misplaced {
            return Err(format!("`{sub}` does not take {a} ({why})"));
        }
        if parsed.common.parse_flag(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--journal" => {
                let v = it.next().ok_or("--journal expects a file path")?;
                parsed.journal = Some(PathBuf::from(v));
            }
            "--resume" => parsed.resume = true,
            "--isolate" => parsed.isolate = true,
            "--row-json" => parsed.row_json = true,
            "--asserts" => parsed.asserts = true,
            "--print-acfa" => parsed.print_acfa = true,
            "--trace" => parsed.trace = true,
            "--dot" => parsed.dot = true,
            "--stats" => parsed.stats = true,
            "--json" => parsed.stats_json = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => {
                if !parsed.source_path.is_empty() {
                    return Err("multiple input files".into());
                }
                parsed.source_path = path.to_string();
            }
        }
    }
    if parsed.source_path.is_empty() {
        return Err("missing input file".into());
    }
    parsed.validate(parsed.asserts)?;
    if parsed.resume && parsed.journal.is_none() {
        return Err("--resume needs --journal FILE (there is nothing to resume from)".into());
    }
    // `--json` selects the stats *format*; asking for a format is
    // asking for the stats.
    if parsed.stats_json {
        parsed.stats = true;
    }
    Ok(parsed)
}

/// Prints a flag-parsing error; the caller answers with [`usage`].
fn reported<T>(parsed: Result<T, String>) -> Option<T> {
    parsed.map_err(|e| eprintln!("{e}")).ok()
}

fn load(path: &str) -> Result<circ_frontend::Compiled, ExitCode> {
    let src = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read `{path}`: {e}");
        ExitCode::from(65)
    })?;
    circ_frontend::compile(&src).map_err(|e| {
        eprintln!("{path}: {e}");
        ExitCode::from(65)
    })
}

/// Substitutes `v<i>` placeholders with source-level variable names.
fn named(cfa: &Cfa, mut s: String) -> String {
    // longest index first so `v10` is not mangled by `v1`
    let mut ixs: Vec<usize> = (0..cfa.vars().len()).collect();
    ixs.sort_by_key(|i| std::cmp::Reverse(*i));
    for ix in ixs {
        s = s.replace(&format!("v{ix}"), &cfa.vars()[ix].name);
    }
    s
}

fn cmd_check(args: &[String]) -> ExitCode {
    let Some(parsed) = reported(parse_flags(args, Sub::Check)) else { return usage() };
    let cfg = parsed.batch_config();
    let property = if parsed.asserts { Property::Assertions } else { Property::Race };
    let circ = CircConfig { property, ..cfg.circ_config() };
    let io = circ_store::Store::real();
    let dir = parsed.cache_dir.as_deref();
    // The `--row-json` child of `batch --isolate` leaves the cache
    // directory alone (the supervising parent sweeps and flushes it).
    let warm = circ_batch::warm_start(&io, dir, cfg.pred_store, !parsed.row_json);
    for w in &warm.warnings {
        eprintln!("warning: {w}");
    }
    let (file_timeout, file_mem) = (cfg.timeout, cfg.mem_limit_bytes);
    if parsed.row_json {
        let path = Path::new(&parsed.source_path);
        let (checked, _) =
            circ_batch::check_file(path, &cfg, &circ, file_timeout, file_mem, &warm, &cfg.faults);
        outln!("{}", circ_batch::render_row_json(&checked.row));
        return ExitCode::from(checked.row.verdict.exit_code());
    }
    let compiled = match load(&parsed.source_path) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let cache = warm.file_cache(cfg.use_cache);
    let ctx = circ_batch::CheckCtx {
        config: &cfg,
        circ: &circ,
        file_timeout,
        file_mem,
        cache: &cache,
        persist: &warm.persist,
        pred_seed: warm.preds.as_ref(),
        faults: &cfg.faults,
    };
    let checked = circ_batch::check_compiled(&parsed.source_path, &compiled, &ctx);
    if checked.row.verdict == circ_batch::Verdict::CompileError {
        eprintln!("{}: {}", parsed.source_path, checked.row.detail);
        return ExitCode::from(65);
    }
    for v in &checked.vars {
        render_var(&parsed, &compiled.cfa, v);
    }
    if let Some(dir) = dir {
        let mut preds = warm.preds.clone();
        if let Some(store) = preds.as_mut() {
            store.absorb(checked.learned);
        }
        let flushed = warm.flush(&io, dir, &cache, preds.as_ref());
        for w in &flushed.warnings {
            eprintln!("warning: {w}");
        }
    }
    ExitCode::from(checked.row.verdict.exit_code())
}

/// Prints a witness schedule, one numbered step per line.
fn print_steps<T: std::fmt::Display>(cfa: &Cfa, steps: &[(T, circ_ir::EdgeId, i64)]) {
    for (i, (tid, eid, _)) in steps.iter().enumerate() {
        outln!("  {i:>3}. T{tid}  {}", named(cfa, format!("{}", cfa.edge(*eid).op)));
    }
}

/// Prints what one race variable's check decided: the verdict line,
/// the witness schedule, and on request the inferred context, the
/// engine's event log and the counters.
fn render_var(parsed: &Parsed, cfa: &Cfa, checked: &VarCheck) {
    let vname = cfa.var_name(checked.var);
    let outcome = match &checked.decided {
        Decided::Flow => {
            outln!(
                "{vname}: SAFE — race-free for any number of threads \
                 (triage stage 0: every access is atomic)"
            );
            return;
        }
        Decided::Sched(w) => {
            outln!(
                "{vname}: RACE — {} threads, {} steps \
                 (triage stage 1: random schedule, replay validated)",
                w.n_threads,
                w.steps.len()
            );
            return print_steps(cfa, &w.steps);
        }
        Decided::Circ(outcome) => outcome.as_ref(),
    };
    if parsed.trace {
        if parsed.triage == Some(true) {
            eprintln!("[{vname}] triage: undecided, running full CIRC");
        }
        for e in &outcome.log().events {
            match e {
                CircEvent::OuterStart { preds, k } => {
                    eprintln!("[{vname}] round: P = {{{}}}, k = {k}", preds.join(", "))
                }
                CircEvent::ReachDone { arg_locs, .. } => {
                    eprintln!("[{vname}]   reach ok, ARG {arg_locs} locations")
                }
                CircEvent::SimChecked { holds } => eprintln!("[{vname}]   guarantee: {holds}"),
                CircEvent::Collapsed { size, .. } => {
                    eprintln!("[{vname}]   collapsed to {size} locations")
                }
                CircEvent::AbstractRace { trace_len } => {
                    eprintln!("[{vname}]   abstract race ({trace_len} steps)")
                }
                CircEvent::Refined { verdict, .. } => eprintln!("[{vname}]   refine: {verdict}"),
                CircEvent::OmegaCheck { good } => eprintln!("[{vname}]   ω-check: {good}"),
            }
        }
    }
    match outcome {
        CircOutcome::Safe(report) => {
            let what = if parsed.asserts { "assertions hold" } else { "race-free" };
            outln!(
                "{vname}: SAFE — {what} for any number of threads \
                 ({} predicates, {}-location context, k = {}, {:.2?})",
                report.preds.len(),
                report.acfa.num_locs(),
                report.k,
                report.stats.elapsed
            );
            if parsed.print_acfa {
                let text = report
                    .acfa
                    .display_with(&|i| named(cfa, format!("{}", report.preds[i.index()])), &|v| {
                        cfa.var_name(v).to_string()
                    });
                outln!("{text}");
            }
        }
        CircOutcome::Unsafe(report) => {
            outln!(
                "{vname}: RACE — {} threads, {} steps (replay validated: {})",
                report.cex.n_threads,
                report.cex.steps.len(),
                report.cex.replay_ok
            );
            print_steps(cfa, &report.cex.steps);
        }
        CircOutcome::Unknown(report) => outln!("{vname}: INCONCLUSIVE — {:?}", report.reason),
    }
    if parsed.stats_json {
        outln!("{}", checked.pipeline.to_json());
    } else if parsed.stats {
        outln!("{vname}: statistics ({:.2?} total)", outcome.stats().elapsed);
        out!("{}", checked.pipeline.render_table());
    }
}

fn cmd_batch(args: &[String]) -> ExitCode {
    let Some(parsed) = reported(parse_flags(args, Sub::Batch)) else { return usage() };
    let inputs = match circ_batch::collect_inputs(Path::new(&parsed.source_path)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(65);
        }
    };
    let cancel = circ_governor::CancelToken::new();
    // Graceful shutdown: first SIGINT/SIGTERM trips the batch's cancel
    // token so in-flight files drain at their next budget poll and the
    // partial report + caches still get written; the shim restores the
    // default disposition, so a second signal force-kills. Failure to
    // install (non-Unix, or a double install under test harnesses) is
    // a warning, not an error — the batch just runs without it.
    {
        let token = cancel.clone();
        if let Err(e) = sigshim::install(&[sigshim::SIGINT, sigshim::SIGTERM], move |sig| {
            eprintln!("signal {sig}: draining batch (send again to force-kill)");
            token.cancel();
        }) {
            eprintln!("warning: no graceful shutdown: {e}");
        }
    }
    let cfg = circ_batch::BatchConfig {
        journal: parsed.journal.clone(),
        resume: parsed.resume,
        isolate: parsed.isolate,
        cancel,
        ..parsed.batch_config()
    };
    let report = circ_batch::run_batch(&inputs, &cfg);
    for w in &report.warnings {
        eprintln!("warning: {w}");
    }
    if parsed.stats_json {
        outln!("{}", report.to_json());
    } else {
        out!("{}", report.render_table());
    }
    ExitCode::from(report.exit)
}

/// Parsed flags for `serve` and `client`: the shared flags plus
/// addresses and capacities instead of input files.
#[derive(Debug)]
struct ServeFlags {
    common: CommonFlags,
    socket: Option<PathBuf>,
    port: Option<u16>,
    max_inflight: usize,
    queue_depth: usize,
    stats: bool,
    health: bool,
    paths: Vec<String>,
}

impl std::ops::Deref for ServeFlags {
    type Target = CommonFlags;
    fn deref(&self) -> &CommonFlags {
        &self.common
    }
}

fn parse_serve_flags(args: &[String]) -> Result<ServeFlags, String> {
    let mut f = ServeFlags {
        common: CommonFlags::default(),
        socket: None,
        port: None,
        max_inflight: 2,
        queue_depth: 16,
        stats: false,
        health: false,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if f.common.parse_flag(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--socket" => {
                let v = it.next().ok_or("--socket expects a path")?;
                f.socket = Some(PathBuf::from(v));
            }
            "--port" => f.port = Some(number(a, &mut it)?),
            "--max-inflight" => {
                f.max_inflight = number(a, &mut it)?;
                if f.max_inflight == 0 {
                    return Err("--max-inflight must be at least 1".into());
                }
            }
            "--queue-depth" => f.queue_depth = number(a, &mut it)?,
            "--stats" => f.stats = true,
            "--health" => f.health = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => f.paths.push(path.to_string()),
        }
    }
    match (&f.socket, f.port) {
        (Some(_), Some(_)) => {
            return Err(
                "--socket and --port are two addresses for one listener — pass only one".into()
            );
        }
        (None, None) => return Err("pass --socket PATH or --port N".into()),
        _ => {}
    }
    f.validate(false)?;
    Ok(f)
}

impl ServeFlags {
    fn bind_to(&self) -> circ_serve::BindTo {
        match (&self.socket, self.port) {
            (Some(path), _) => circ_serve::BindTo::Socket(path.clone()),
            (None, Some(port)) => circ_serve::BindTo::Port(port),
            (None, None) => unreachable!("parser requires one address"),
        }
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let Some(flags) = reported(parse_serve_flags(args)) else { return usage() };
    if flags.stats || flags.health || !flags.paths.is_empty() {
        eprintln!("`serve` takes no paths or probe flags (those belong to `client`)");
        return usage();
    }
    let cancel = circ_governor::CancelToken::new();
    let flush = circ_serve::FlushTrigger::new();
    // SIGINT/SIGTERM drain the service (one-shot: a second signal
    // force-kills); SIGHUP flushes the warm caches to --cache-dir
    // without draining, and stays installed so it works repeatedly.
    {
        let token = cancel.clone();
        let latch = flush.clone();
        if let Err(e) = sigshim::install_mixed(
            &[sigshim::SIGINT, sigshim::SIGTERM],
            &[sigshim::SIGHUP],
            move |sig| {
                if sig == sigshim::SIGHUP {
                    latch.set();
                } else {
                    eprintln!("signal {sig}: draining service (send again to force-kill)");
                    token.cancel();
                }
            },
        ) {
            eprintln!("warning: no graceful shutdown: {e}");
        }
    }
    let batch = circ_batch::BatchConfig { cancel, ..flags.batch_config() };
    let config = circ_serve::ServeConfig {
        max_inflight: flags.max_inflight,
        queue_depth: flags.queue_depth,
        flush,
        ..circ_serve::ServeConfig::from_batch(flags.bind_to(), &batch)
    };
    match circ_serve::serve(config) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("circ serve: {e}");
            ExitCode::from(74)
        }
    }
}

/// A client connection to the daemon: the writer and a buffered
/// reader over one [`circ_serve::Stream`], both opened once.
struct ClientConn {
    writer: circ_serve::Stream,
    reader: std::io::BufReader<circ_serve::Stream>,
}

impl ClientConn {
    fn connect(flags: &ServeFlags) -> Result<ClientConn, String> {
        let writer = circ_serve::Stream::connect(&flags.bind_to())?;
        let reader = writer.try_clone().map_err(|e| format!("cannot open connection: {e}"))?;
        Ok(ClientConn { writer, reader: std::io::BufReader::new(reader) })
    }

    fn roundtrip(&mut self, request: &str) -> Result<String, String> {
        use std::io::{BufRead, Write};
        writeln!(self.writer, "{request}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("cannot send request: {e}"))?;
        let mut line = String::new();
        self.reader.read_line(&mut line).map_err(|e| format!("cannot read response: {e}"))?;
        if line.trim().is_empty() {
            return Err("connection closed before a response arrived".into());
        }
        Ok(line.trim_end().to_string())
    }
}

fn cmd_client(args: &[String]) -> ExitCode {
    let Some(flags) = reported(parse_serve_flags(args)) else { return usage() };
    if !flags.stats && !flags.health && flags.paths.is_empty() {
        eprintln!("`client` needs at least one path to check, or --stats / --health");
        return usage();
    }
    let mut conn = match ClientConn::connect(&flags) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("circ client: {e}");
            return ExitCode::from(74);
        }
    };
    use circ_stats::json::{self, Obj, Value};
    let op = |name: &str| Obj::default().str("op", name);
    let mut requests = Vec::new();
    if flags.health {
        requests.push(op("health").finish());
    }
    if flags.stats {
        requests.push(op("stats").finish());
    }
    for path in &flags.paths {
        requests.push(op("check").str("path", path).finish());
    }
    // Worst-wins across responses, mirroring batch: check responses
    // carry the server's own worst-wins `exit`; shed requests
    // (overloaded / shutting-down) map to EX_TEMPFAIL.
    let mut worst: u8 = 0;
    for request in &requests {
        let line = match conn.roundtrip(request) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("circ client: {e}");
                return ExitCode::from(74);
            }
        };
        outln!("{line}");
        let code = match json::parse(&line) {
            Ok(v) => {
                if v.get("ok") == Some(&Value::Bool(true)) {
                    v.get("exit").and_then(Value::as_u64).unwrap_or(0) as u8
                } else {
                    match v.get("error").and_then(Value::as_str) {
                        Some("overloaded") | Some("shutting-down") => 75,
                        Some("bad-request") => 64,
                        _ => 2,
                    }
                }
            }
            Err(e) => {
                eprintln!("circ client: unparseable response: {e}");
                2
            }
        };
        // The verdict exit ranks don't apply across response kinds;
        // plain max keeps 75 (shed) above every verdict code except
        // none — shed work is retryable, so callers must see it.
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

fn cmd_compile(args: &[String]) -> ExitCode {
    let Some(parsed) = reported(parse_flags(args, Sub::Compile)) else { return usage() };
    let compiled = match load(&parsed.source_path) {
        Ok(c) => c,
        Err(code) => return code,
    };
    if parsed.dot {
        out!("{}", dot::cfa_to_dot(&compiled.cfa));
    } else {
        out!("{}", dot::cfa_to_text(&compiled.cfa));
        outln!(
            "race variables: {}",
            compiled
                .race_vars
                .iter()
                .map(|v| compiled.cfa.var_name(*v))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    ExitCode::SUCCESS
}

fn cmd_baselines(args: &[String]) -> ExitCode {
    let Some(parsed) = reported(parse_flags(args, Sub::Baselines)) else { return usage() };
    let compiled = match load(&parsed.source_path) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let flow = circ_baselines::flow_check(&compiled.cfa);
    for &var in &compiled.race_vars {
        let vname = compiled.cfa.var_name(var);
        outln!(
            "flow-based:  {vname}: {}",
            if flow.flags(var) { "POTENTIAL RACE" } else { "clean" }
        );
        let program = MtProgram::new(compiled.cfa.clone(), var);
        let dynamic = circ_baselines::eraser(&program, 3, 500, 10, 7);
        outln!(
            "lockset:     {vname}: {} ({} accesses monitored)",
            if dynamic.flags(var) { "POTENTIAL RACE" } else { "clean" },
            dynamic.accesses
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{parse_flags, Sub};

    fn flags(args: &[&str]) -> Result<super::Parsed, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>(), Sub::Check)
    }

    fn batch_flags(args: &[&str]) -> Result<super::Parsed, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>(), Sub::Batch)
    }

    #[test]
    fn json_implies_stats() {
        let p = flags(&["m.nesl", "--json"]).unwrap();
        assert!(p.stats, "--json must imply --stats");
        assert!(p.stats_json);
        // --stats alone stays table-formatted.
        let p = flags(&["m.nesl", "--stats"]).unwrap();
        assert!(p.stats && !p.stats_json);
    }

    #[test]
    fn budget_flags_parse() {
        let p = flags(&["m.nesl", "--timeout-secs", "7", "--mem-limit-mb", "64"]).unwrap();
        assert_eq!(p.timeout_secs, Some(7));
        assert_eq!(p.mem_limit_mb, Some(64));
        // Unset by default.
        let p = flags(&["m.nesl"]).unwrap();
        assert_eq!(p.timeout_secs, None);
        assert_eq!(p.mem_limit_mb, None);
    }

    #[test]
    fn budget_flags_reject_garbage() {
        assert!(flags(&["m.nesl", "--timeout-secs", "soon"]).is_err());
        assert!(flags(&["m.nesl", "--mem-limit-mb"]).is_err());
    }

    #[test]
    fn k_zero_is_a_usage_error() {
        let err = flags(&["m.nesl", "--k", "0"]).unwrap_err();
        assert!(err.contains("--k must be at least 1"), "unhelpful message: {err}");
        assert!(flags(&["m.nesl", "--k", "-1"]).is_err());
        assert!(flags(&["m.nesl", "--k", "two"]).is_err());
        assert_eq!(flags(&["m.nesl", "--k", "2"]).unwrap().initial_k, 2);
        // The default stays 1 — the paper's experiments start there.
        assert_eq!(flags(&["m.nesl"]).unwrap().initial_k, 1);
    }

    #[test]
    fn fine_grained_budget_flags_parse_and_conflict_with_coarse_ones() {
        let p = flags(&["m.nesl", "--timeout-millis", "250", "--mem-limit-bytes", "4096"]).unwrap();
        assert_eq!(p.timeout(), Some(std::time::Duration::from_millis(250)));
        assert_eq!(p.mem_limit(), Some(4096));
        // The coarse spellings still resolve through the same helpers…
        let p = flags(&["m.nesl", "--timeout-secs", "2", "--mem-limit-mb", "3"]).unwrap();
        assert_eq!(p.timeout(), Some(std::time::Duration::from_secs(2)));
        assert_eq!(p.mem_limit(), Some(3 * 1024 * 1024));
        // …and mixing the two spellings of one budget is a usage error.
        assert!(flags(&["m.nesl", "--timeout-secs", "2", "--timeout-millis", "9"]).is_err());
        assert!(flags(&["m.nesl", "--mem-limit-mb", "1", "--mem-limit-bytes", "9"]).is_err());
    }

    #[test]
    fn supervision_flags_parse() {
        let p = batch_flags(&[
            "corpus",
            "--journal",
            "j.jsonl",
            "--resume",
            "--isolate",
            "--retries",
            "2",
        ])
        .unwrap();
        assert_eq!(p.journal.as_deref(), Some(std::path::Path::new("j.jsonl")));
        assert!(p.resume && p.isolate);
        assert_eq!(p.retries, 2);
        assert!(flags(&["m.nesl", "--row-json"]).unwrap().row_json);
        assert!(batch_flags(&["corpus", "--retries", "many"]).is_err());
        assert!(batch_flags(&["corpus", "--journal"]).is_err());
    }

    #[test]
    fn mem_limit_mb_that_overflows_bytes_is_a_usage_error() {
        let err = flags(&["m.nesl", "--mem-limit-mb", "17592186044416"]).unwrap_err();
        assert!(err.contains("--mem-limit-mb"), "unhelpful message: {err}");
        let largest = (u64::MAX >> 20).to_string();
        let p = flags(&["m.nesl", "--mem-limit-mb", &largest]).unwrap();
        assert_eq!(p.mem_limit(), Some((u64::MAX >> 20) << 20));
        assert!(parse_flags(&["m.nesl".into(), "--mem-limit-mb".into(), "1".into()], Sub::Check)
            .is_ok());
    }

    #[test]
    fn check_rejects_batch_supervision_flags() {
        let check = |args: &[&str]| {
            parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>(), Sub::Check)
        };
        for args in [
            &["m.nesl", "--journal", "j.jsonl"][..],
            &["m.nesl", "--journal", "j.jsonl", "--resume"],
            &["m.nesl", "--isolate"],
            &["m.nesl", "--retries", "2"],
            &["m.nesl", "--retries", "0"],
            &["m.nesl", "--jobs", "2"],
        ] {
            let err = check(args).unwrap_err();
            assert!(err.contains(args[1]), "unhelpful message for {args:?}: {err}");
        }
        // The isolation child's own flags stay accepted.
        assert!(check(&["m.nesl", "--row-json", "--timeout-millis", "5", "--triage"]).is_ok());
        // `batch` keeps them.
        let batch = |args: &[&str]| {
            parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>(), Sub::Batch)
        };
        assert!(batch(&["corpus", "--isolate", "--retries", "2", "--jobs", "2"]).is_ok());
    }

    #[test]
    fn resume_requires_a_journal() {
        let err = batch_flags(&["corpus", "--resume"]).unwrap_err();
        assert!(err.contains("--journal"), "unhelpful message: {err}");
        assert!(batch_flags(&["corpus", "--resume", "--journal", "j.jsonl"]).is_ok());
    }

    #[test]
    fn compile_and_baselines_reject_check_and_batch_flags() {
        let parse = |args: &[&str], sub| {
            parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>(), sub)
        };
        for flag in ["--journal", "--jobs", "--asserts", "--stats", "--k", "--cache-dir", "--bogus"]
        {
            for sub in [Sub::Compile, Sub::Baselines] {
                let err = parse(&["m.nesl", flag, "1"], sub).unwrap_err();
                assert!(err.contains(flag), "unhelpful message for {sub:?} {flag}: {err}");
            }
        }
        assert!(parse(&["m.nesl", "--dot"], Sub::Compile).unwrap().dot);
        assert!(parse(&["m.nesl", "--dot"], Sub::Baselines).is_err());
        assert!(parse(&["m.nesl"], Sub::Baselines).is_ok());
    }

    #[test]
    fn pred_store_flags_parse_and_conflict() {
        // Default: unset (resolved to "on with a cache dir" downstream).
        assert_eq!(flags(&["m.nesl"]).unwrap().pred_store, None);
        let p = flags(&["m.nesl", "--cache-dir", "d", "--pred-store"]).unwrap();
        assert_eq!(p.pred_store, Some(true));
        let p = flags(&["m.nesl", "--cache-dir", "d", "--no-pred-store"]).unwrap();
        assert_eq!(p.pred_store, Some(false));
        // Forcing the store on without a place to put it is a usage
        // error; forcing it off without a cache dir is a no-op.
        let err = flags(&["m.nesl", "--pred-store"]).unwrap_err();
        assert!(err.contains("--cache-dir"), "unhelpful message: {err}");
        assert!(flags(&["m.nesl", "--no-pred-store"]).is_ok());
        assert!(flags(&["m.nesl", "--cache-dir", "d", "--pred-store", "--no-pred-store"]).is_err());
        assert!(flags(&["m.nesl", "--cache-dir", "d", "--no-pred-store", "--pred-store"]).is_err());
    }

    #[test]
    fn triage_flags_parse_and_conflict() {
        // Default: unset (resolved to "off" downstream).
        assert_eq!(flags(&["m.nesl"]).unwrap().triage, None);
        assert_eq!(flags(&["m.nesl", "--triage"]).unwrap().triage, Some(true));
        assert_eq!(flags(&["m.nesl", "--no-triage"]).unwrap().triage, Some(false));
        assert!(flags(&["m.nesl", "--triage", "--no-triage"]).is_err());
        assert!(flags(&["m.nesl", "--no-triage", "--triage"]).is_err());
        // The cheap stages decide the race property only.
        let err = flags(&["m.nesl", "--triage", "--asserts"]).unwrap_err();
        assert!(err.contains("--asserts"), "unhelpful message: {err}");
        assert!(flags(&["m.nesl", "--no-triage", "--asserts"]).is_ok());
    }

    #[test]
    fn serve_flags_require_exactly_one_address() {
        let sflags = |args: &[&str]| {
            super::parse_serve_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert!(sflags(&[]).unwrap_err().contains("--socket PATH or --port N"));
        assert!(sflags(&["--socket", "s", "--port", "9"]).unwrap_err().contains("only one"));
        let f = sflags(&["--socket", "/tmp/c.sock", "--max-inflight", "4", "--queue-depth", "8"])
            .unwrap();
        assert_eq!(f.socket.as_deref(), Some(std::path::Path::new("/tmp/c.sock")));
        assert_eq!((f.max_inflight, f.queue_depth), (4, 8));
        let f = sflags(&["--port", "7777", "--stats", "a.nesl", "b.nesl"]).unwrap();
        assert_eq!(f.port, Some(7777));
        assert!(f.stats && !f.health);
        assert_eq!(f.paths, vec!["a.nesl", "b.nesl"]);
        assert!(sflags(&["--port", "9", "--max-inflight", "0"]).is_err());
        assert!(sflags(&["--port", "9", "--cache-dir", "d", "--no-cache"]).is_err());
        assert!(sflags(&["--port", "9", "--pred-store"]).is_err());
        assert!(sflags(&["--port", "9", "--k", "0"]).is_err());
    }

    /// Every flag `CommonFlags::parse_flag` matches, read from its
    /// source so that a new shared flag cannot be left out.
    fn common_flags() -> std::collections::BTreeSet<&'static str> {
        let src = include_str!("main.rs");
        let start = src.find("    fn parse_flag(").unwrap();
        let end = start + src[start..].find("    fn validate(").unwrap();
        src[start..end].split('"').filter(|t| t.starts_with("--") && !t.contains(' ')).collect()
    }

    /// The flags in the `circ --help` usage line of `sub`.
    fn usage_flags(sub: &str) -> Vec<&'static str> {
        let from = super::HELP.find(&format!("\n  circ {sub} ")).expect(sub) + 1;
        let line = &super::HELP[from..];
        let line = &line[..line[1..].find("\n  circ ").unwrap() + 1];
        line.split(|c: char| c.is_whitespace() || "[]|".contains(c))
            .filter(|t| t.starts_with("--"))
            .collect()
    }

    #[test]
    fn every_shared_flag_is_in_the_usage_of_each_subcommand_that_takes_it() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let taken = |parsed: Result<(), String>| {
            parsed.err().is_none_or(|e| !e.contains("unknown flag") && !e.contains("does not take"))
        };
        let shared = common_flags();
        assert!(shared.len() >= 14, "{shared:?}");
        for flag in shared {
            let subcommands = [
                ("check", taken(parse_flags(&args(&["m.nesl", flag]), Sub::Check).map(drop))),
                ("batch", taken(parse_flags(&args(&["corpus", flag]), Sub::Batch).map(drop))),
                ("serve", taken(super::parse_serve_flags(&args(&[flag])).map(drop))),
            ];
            for (sub, takes) in subcommands {
                assert_eq!(
                    usage_flags(sub).contains(&flag),
                    takes,
                    "`circ {sub}` {} {flag}, but its usage line {}",
                    if takes { "takes" } else { "rejects" },
                    if takes { "omits it" } else { "lists it" },
                );
            }
        }
    }

    #[test]
    fn cache_dir_parses_and_conflicts_with_no_cache() {
        let p = flags(&["m.nesl", "--cache-dir", ".circ-cache"]).unwrap();
        assert_eq!(p.cache_dir.as_deref(), Some(std::path::Path::new(".circ-cache")));
        assert!(flags(&["m.nesl", "--cache-dir"]).is_err());
        assert!(flags(&["m.nesl", "--cache-dir", "d", "--no-cache"]).is_err());
    }
}
