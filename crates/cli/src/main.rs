//! `circ` — the command-line race checker.
//!
//! ```text
//! circ check <file.nesl> [--mode circ|omega] [--k N] [--jobs N] [--print-acfa]
//!                        [--trace] [--stats] [--json] [--no-cache] [--row-json]
//!                        [--timeout-secs N | --timeout-millis N]
//!                        [--mem-limit-mb N | --mem-limit-bytes N] [--cache-dir DIR]
//! circ batch <dir|manifest.json|file.nesl> [--mode circ|omega] [--k N] [--jobs N]
//!                        [--json] [--no-cache] [--timeout-secs N]
//!                        [--mem-limit-mb N] [--cache-dir DIR]
//!                        [--journal FILE] [--resume] [--isolate] [--retries N]
//! circ serve --socket PATH | --port N [--jobs N] [--max-inflight N]
//!                        [--queue-depth N] [--timeout-secs N] [--mem-limit-mb N]
//!                        [--cache-dir DIR] [--no-cache] [--mode circ|omega] [--k N]
//!                        [--pred-store | --no-pred-store] [--triage | --no-triage]
//!                        [--retries N]
//! circ client --socket PATH | --port N [--stats] [--health] [paths...]
//! circ compile <file.nesl> [--dot]
//! circ baselines <file.nesl>
//! ```
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
//! `batch` runs under crash-safe supervision: `--journal FILE` records
//! every completed row, `--resume` replays journaled rows for
//! unchanged inputs, SIGINT/SIGTERM drain the run gracefully (the
//! partial report and cache files are still written; a second signal
//! force-kills), `--isolate` re-execs this binary per file so one
//! crashing input degrades to a single `internal-error` row, and
//! `--retries N` re-runs transient internal errors with deterministic
//! backoff. `--row-json` is the isolation protocol's child mode: check
//! one file with batch-style budget carving and print the report row
//! as one JSON line (exit code as above).

use circ_core::{
    circ, circ_with_caches, pred_store, AbsCache, CircConfig, CircEvent, CircOutcome, Property,
};
use circ_ir::{dot, structural_digest, Cfa, MtProgram};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

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

fn print_help() {
    println!(
        "circ — race checking by context inference (PLDI 2004 reproduction)\n\n\
         USAGE:\n  circ check <file.nesl> [--mode circ|omega] [--asserts] [--k N] [--jobs N] [--print-acfa]\n\
         \x20                        [--trace] [--stats] [--json] [--no-cache] [--row-json]\n\
         \x20                        [--timeout-secs N | --timeout-millis N]\n\
         \x20                        [--mem-limit-mb N | --mem-limit-bytes N] [--cache-dir DIR]\n\
         \x20                        [--pred-store | --no-pred-store] [--triage | --no-triage]\n\
         \x20 circ batch <dir|manifest.json|file.nesl> [--mode circ|omega] [--k N] [--jobs N]\n\
         \x20                        [--json] [--no-cache] [--timeout-secs N]\n\
         \x20                        [--mem-limit-mb N] [--cache-dir DIR]\n\
         \x20                        [--pred-store | --no-pred-store] [--triage | --no-triage]\n\
         \x20                        [--journal FILE] [--resume] [--isolate] [--retries N]\n\
         \x20 circ serve --socket PATH | --port N [--jobs N] [--max-inflight N] [--queue-depth N]\n\
         \x20                        [--timeout-secs N] [--mem-limit-mb N] [--cache-dir DIR]\n\
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
         `--jobs N` runs on N worker threads (0 = all cores, default 1) —\n\
         pipeline phases for `check`, whole files for `batch` — with\n\
         bit-identical verdicts and statistics at any setting;\n\
         `--timeout-secs N` / `--mem-limit-mb N` bound the run's wall clock /\n\
         accounted memory (split evenly across files for `batch`) — on\n\
         exhaustion the verdict is INCONCLUSIVE with partial statistics and\n\
         exit code 3; `--cache-dir DIR` persists the entailment and solver\n\
         caches across runs: loaded on start (a damaged file degrades to a\n\
         logged cold start), written back on exit. `--k N` (N >= 1) sets the\n\
         initial thread-counter parameter.\n\n\
         Incremental re-checking: with `--cache-dir`, each check's discovered\n\
         predicate set and final k are persisted to a predicate store\n\
         (preds.store) keyed by a structural digest of the lowered automaton\n\
         plus a config fingerprint, and future checks of the same program are\n\
         seeded from it — skipping rediscovery while still running the full\n\
         algorithm (stale seeds degrade to ordinary refinement; verdicts are\n\
         never replayed). On by default with a cache dir; `--no-pred-store`\n\
         disables it, `--pred-store` asserts it (usage error without\n\
         `--cache-dir`). `--stats` reports `preds seeded` and\n\
         `refine rounds saved`.\n\n\
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
         port. Requests: {{\"op\":\"check\",\"source\":...|\"path\":...}},\n\
         {{\"op\":\"stats\"}}, {{\"op\":\"health\"}}. `--max-inflight` bounds\n\
         concurrent checks, `--queue-depth` bounds waiters, and anything\n\
         beyond both is shed with a structured `overloaded` response; the\n\
         `--timeout-secs` / `--mem-limit-mb` envelope is carved per admitted\n\
         request. SIGINT/SIGTERM drain gracefully (in-flight requests finish\n\
         or degrade to cancelled rows, queued ones get `shutting-down`,\n\
         caches flush, exit 3); SIGHUP flushes the caches without draining.\n\
         A stale socket file left by a crash is detected by a connect probe\n\
         and reclaimed; a live one is refused with exit 74. `client` submits\n\
         server-side paths (or `--stats` / `--health` probes) and exits\n\
         worst-wins across the responses."
    );
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
            "--mem-limit-mb" => self.mem_limit_mb = Some(number(flag, it)?),
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

    /// The effective memory ceiling in bytes.
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

fn parse_flags(args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
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
    let Some(parsed) = reported(parse_flags(args)) else { return usage() };
    if parsed.row_json {
        // Isolation-protocol child mode: check one file exactly the
        // way a batch worker would (same budget semantics, read-only
        // cache seeding) and emit the report row as one JSON line on
        // stdout — the supervising parent parses it back.
        let cfg = parsed.batch_config();
        let (row, warnings) = circ_batch::check_single(Path::new(&parsed.source_path), &cfg);
        for w in &warnings {
            eprintln!("warning: {w}");
        }
        println!("{}", circ_batch::render_row_json(&row));
        return ExitCode::from(row.verdict.exit_code());
    }
    let compiled = match load(&parsed.source_path) {
        Ok(c) => c,
        Err(code) => return code,
    };
    if compiled.race_vars.is_empty() {
        eprintln!("{}: no `#race` directive — nothing to check", parsed.source_path);
        return ExitCode::from(65);
    }
    let cfg = CircConfig {
        omega_mode: parsed.mode_omega,
        initial_k: parsed.initial_k,
        use_cache: !parsed.no_cache,
        property: if parsed.asserts { Property::Assertions } else { Property::Race },
        jobs: parsed.jobs,
        timeout: parsed.timeout(),
        mem_limit_bytes: parsed.mem_limit(),
        ..CircConfig::default()
    };
    // With `--cache-dir`, warm-start from disk and share one cache
    // across this invocation's race variables so the file written
    // back holds the union of what they learned. Without it, each
    // variable keeps its own per-run cache as before. The predicate
    // store (unless --no-pred-store) seeds each variable's check from
    // what previous runs discovered for the same automaton and config,
    // and records what this run learns.
    let io = circ_store::Store::real();
    let dir = parsed.cache_dir.as_deref();
    let circ_batch::WarmStart { abs_seed, persist, preds: mut preds_store, warnings, .. } =
        circ_batch::warm_start(&io, dir, parsed.pred_store.unwrap_or(true), true);
    for w in &warnings {
        eprintln!("warning: {w}");
    }
    let shared_cache = dir.map(|_| AbsCache::with_seed(&abs_seed));
    let cfa_digest = structural_digest(&compiled.cfa);
    // 1 (race) dominates everything; 3 (budget exhausted) dominates 2
    // (plain inconclusive); 0 only survives if every variable is safe.
    let mut worst: u8 = 0;
    let vars: Vec<_> = if parsed.asserts {
        compiled.race_vars[..1].to_vec() // property is program-wide
    } else {
        compiled.race_vars.clone()
    };
    for &var in &vars {
        let program = MtProgram::new(compiled.cfa.clone(), var);
        let vname = compiled.cfa.var_name(var).to_string();
        if parsed.triage.unwrap_or(false) {
            match circ_triage::triage(&program, &circ_triage::TriageConfig::default()) {
                circ_triage::TriageDecision::Stage0Safe => {
                    println!(
                        "{vname}: SAFE — race-free for any number of threads \
                         (triage stage 0: every access is atomic)"
                    );
                    continue;
                }
                circ_triage::TriageDecision::Stage1Race(w) => {
                    println!(
                        "{vname}: RACE — {} threads, {} steps \
                         (triage stage 1: random schedule, replay validated)",
                        w.n_threads,
                        w.steps.len()
                    );
                    for (i, (tid, eid, _)) in w.steps.iter().enumerate() {
                        let op = named(&compiled.cfa, format!("{}", compiled.cfa.edge(*eid).op));
                        println!("  {i:>3}. T{tid}  {op}");
                    }
                    worst = 1;
                    continue;
                }
                circ_triage::TriageDecision::Fallthrough => {
                    if parsed.trace {
                        eprintln!("[{vname}] triage: undecided, running full CIRC");
                    }
                }
            }
        }
        let property_tag =
            if parsed.asserts { "asserts".to_string() } else { format!("race v{}", var.index()) };
        let config_fp = pred_store::config_fingerprint(
            cfg.initial_k,
            cfg.omega_mode,
            cfg.minimize,
            &cfg.initial_preds,
            &property_tag,
        );
        let mut var_cfg = cfg.clone();
        let prior = preds_store
            .as_ref()
            .and_then(|s| pred_store::seed_config(s, cfa_digest, config_fp, &mut var_cfg));
        let outcome = match &shared_cache {
            Some(cache) => circ_with_caches(&program, &var_cfg, cache, &persist),
            None => circ(&program, &var_cfg),
        };
        let mut run_stats = outcome.stats().clone();
        if let Some(prior_rounds) = prior {
            run_stats.pipeline.preds_seeded = var_cfg.initial_preds.len() as u64;
            run_stats.pipeline.refine_rounds_saved =
                prior_rounds.saturating_sub(run_stats.pipeline.refine_rounds);
        }
        if let Some(store) = preds_store.as_mut() {
            pred_store::record_outcome(store, cfa_digest, config_fp, &outcome, prior.unwrap_or(0));
        }
        if parsed.trace {
            for e in &outcome.log().events {
                match e {
                    CircEvent::OuterStart { preds, k } => {
                        eprintln!("[{vname}] round: P = {{{}}}, k = {k}", preds.join(", "))
                    }
                    CircEvent::ReachDone { arg_locs, .. } => {
                        eprintln!("[{vname}]   reach ok, ARG {arg_locs} locations")
                    }
                    CircEvent::SimChecked { holds } => {
                        eprintln!("[{vname}]   guarantee: {holds}")
                    }
                    CircEvent::Collapsed { size, .. } => {
                        eprintln!("[{vname}]   collapsed to {size} locations")
                    }
                    CircEvent::AbstractRace { trace_len } => {
                        eprintln!("[{vname}]   abstract race ({trace_len} steps)")
                    }
                    CircEvent::Refined { verdict, .. } => {
                        eprintln!("[{vname}]   refine: {verdict}")
                    }
                    CircEvent::OmegaCheck { good } => {
                        eprintln!("[{vname}]   ω-check: {good}")
                    }
                }
            }
        }
        match outcome {
            CircOutcome::Safe(report) => {
                let what = if parsed.asserts { "assertions hold" } else { "race-free" };
                println!(
                    "{vname}: SAFE — {what} for any number of threads \
                     ({} predicates, {}-location context, k = {}, {:.2?})",
                    report.preds.len(),
                    report.acfa.num_locs(),
                    report.k,
                    report.stats.elapsed
                );
                if parsed.print_acfa {
                    let preds = report.preds.clone();
                    let text = report.acfa.display_with(
                        &|i| named(&compiled.cfa, format!("{}", preds[i.index()])),
                        &|v| compiled.cfa.var_name(v).to_string(),
                    );
                    println!("{text}");
                }
            }
            CircOutcome::Unsafe(report) => {
                println!(
                    "{vname}: RACE — {} threads, {} steps (replay validated: {})",
                    report.cex.n_threads,
                    report.cex.steps.len(),
                    report.cex.replay_ok
                );
                for (i, (tid, eid, _)) in report.cex.steps.iter().enumerate() {
                    let op = named(&compiled.cfa, format!("{}", compiled.cfa.edge(*eid).op));
                    println!("  {i:>3}. T{tid}  {op}");
                }
                worst = 1;
            }
            CircOutcome::Unknown(report) => {
                println!("{vname}: INCONCLUSIVE — {:?}", report.reason);
                let code = if report.reason.is_budget_exhausted() { 3 } else { 2 };
                if worst != 1 {
                    worst = worst.max(code);
                }
            }
        }
        if parsed.stats {
            if parsed.stats_json {
                println!("{}", run_stats.pipeline.to_json());
            } else {
                println!("{vname}: statistics ({:.2?} total)", run_stats.elapsed);
                print!("{}", run_stats.pipeline.render_table());
            }
        }
    }
    if let (Some(dir), Some(cache)) = (&parsed.cache_dir, &shared_cache) {
        let outcome = circ_batch::flush_caches_in(
            &io,
            dir,
            &cache.snapshot(),
            &persist,
            preds_store.as_ref(),
        );
        for w in &outcome.warnings {
            eprintln!("warning: {w}");
        }
    }
    ExitCode::from(worst)
}

fn cmd_batch(args: &[String]) -> ExitCode {
    let Some(parsed) = reported(parse_flags(args)) else { return usage() };
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
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_table());
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
    let config = circ_serve::ServeConfig {
        bind: flags.bind_to(),
        jobs: flags.jobs,
        max_inflight: flags.max_inflight,
        queue_depth: flags.queue_depth,
        envelope: circ_governor::Envelope {
            timeout: flags.timeout(),
            mem_limit_bytes: flags.mem_limit(),
        },
        omega: flags.mode_omega,
        initial_k: flags.initial_k,
        use_cache: !flags.no_cache,
        pred_store: flags.pred_store.unwrap_or(true),
        triage: flags.triage.unwrap_or(false),
        cache_dir: flags.cache_dir.clone(),
        retry: flags.retry(),
        cancel,
        flush,
        ..circ_serve::ServeConfig::default()
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
        println!("{line}");
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
    let Some(parsed) = reported(parse_flags(args)) else { return usage() };
    let compiled = match load(&parsed.source_path) {
        Ok(c) => c,
        Err(code) => return code,
    };
    if parsed.dot {
        print!("{}", dot::cfa_to_dot(&compiled.cfa));
    } else {
        print!("{}", dot::cfa_to_text(&compiled.cfa));
        println!(
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
    let Some(parsed) = reported(parse_flags(args)) else { return usage() };
    let compiled = match load(&parsed.source_path) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let flow = circ_baselines::flow_check(&compiled.cfa);
    for &var in &compiled.race_vars {
        let vname = compiled.cfa.var_name(var);
        println!(
            "flow-based:  {vname}: {}",
            if flow.flags(var) { "POTENTIAL RACE" } else { "clean" }
        );
        let program = MtProgram::new(compiled.cfa.clone(), var);
        let dynamic = circ_baselines::eraser(&program, 3, 500, 10, 7);
        println!(
            "lockset:     {vname}: {} ({} accesses monitored)",
            if dynamic.flags(var) { "POTENTIAL RACE" } else { "clean" },
            dynamic.accesses
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_flags;

    fn flags(args: &[&str]) -> Result<super::Parsed, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
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
        let p = flags(&[
            "corpus",
            "--journal",
            "j.jsonl",
            "--resume",
            "--isolate",
            "--retries",
            "2",
            "--row-json",
        ])
        .unwrap();
        assert_eq!(p.journal.as_deref(), Some(std::path::Path::new("j.jsonl")));
        assert!(p.resume && p.isolate && p.row_json);
        assert_eq!(p.retries, 2);
        assert!(flags(&["corpus", "--retries", "many"]).is_err());
        assert!(flags(&["corpus", "--journal"]).is_err());
    }

    #[test]
    fn resume_requires_a_journal() {
        let err = flags(&["corpus", "--resume"]).unwrap_err();
        assert!(err.contains("--journal"), "unhelpful message: {err}");
        assert!(flags(&["corpus", "--resume", "--journal", "j.jsonl"]).is_ok());
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

    #[test]
    fn cache_dir_parses_and_conflicts_with_no_cache() {
        let p = flags(&["m.nesl", "--cache-dir", ".circ-cache"]).unwrap();
        assert_eq!(p.cache_dir.as_deref(), Some(std::path::Path::new(".circ-cache")));
        assert!(flags(&["m.nesl", "--cache-dir"]).is_err());
        assert!(flags(&["m.nesl", "--cache-dir", "d", "--no-cache"]).is_err());
    }
}
