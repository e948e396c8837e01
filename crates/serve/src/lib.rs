//! A long-running checking service for the CIRC race checker.
//!
//! `circ serve --socket PATH | --port N` keeps one process resident
//! with warm caches — the sharded entailment cache and the predicate
//! store both live across requests — and turns the batch supervision
//! loop into a request lifecycle over a line-delimited JSON protocol
//! ([`protocol`]). The design goal is
//! *robust degradation*, inherited from the batch layer and enforced
//! per request:
//!
//! * **admission control** ([`admission`]): at most `max_inflight`
//!   requests check concurrently, at most `queue_depth` wait; the
//!   rest are shed with a structured `overloaded` response. Each
//!   admitted request gets a budget carved from the service-wide
//!   [`Envelope`] — the full per-request deadline (wall clocks are
//!   per-request) and `1/max_inflight` of the memory ceiling (memory
//!   slices coexist) — so the service's total charge stays bounded
//!   no matter what mix of requests is in flight.
//! * **graceful drain**: tripping the configured [`CancelToken`]
//!   (the CLI wires SIGINT/SIGTERM to it) stops the accept loop,
//!   rejects queued and new requests with `shutting-down`, lets
//!   in-flight checks finish or degrade to cancelled
//!   `budget-exhausted` rows at their next budget poll, flushes the
//!   caches and predicate store to `--cache-dir`, removes the unix
//!   socket, and exits 3 — the same "drained" code a cancelled batch
//!   uses.
//! * **per-request fault containment**: a panic anywhere in a
//!   request's handling degrades that one response (an
//!   `internal-error` row or response); each unit runs under the
//!   batch supervisor itself ([`circ_batch::supervise_unit`]), so
//!   transient failures retry under the same deterministic
//!   [`RetryPolicy`] and per-content fault reseeding; the server and
//!   sibling requests keep running.
//!
//! Verdict soundness is inherited by construction: every check runs
//! through [`circ_batch::check_source`] — the exact code path behind
//! `circ batch` rows — under the same supervisor, warm-start loader
//! and per-file budget carving, so a serve row can only differ from
//! the batch row for the same content in its wall-time fields, or by
//! degrading to an Unknown-family verdict under cancellation or
//! overload. Verdicts never flip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod protocol;

use crate::admission::{Admission, Rejected};
use crate::protocol::{parse_request, CheckInput, Request};
use circ_batch::journal::digest_bytes;
use circ_batch::{
    check_source, collect_inputs, run_units, supervise_unit, tally, warm_start, worst_exit,
    BatchConfig, CheckCtx, FileRow, Verdict, WarmStart,
};
use circ_core::{AbsCache, CircConfig, PredStore};
use circ_governor::{
    carve_mem_limit, carve_timeout, panic_message, CancelToken, Envelope, FaultPlan, RetryPolicy,
};
use circ_stats::json::Obj;
use circ_stats::ServiceStats;
use std::borrow::Cow;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A resettable latch for "flush caches now" requests (the CLI wires
/// SIGHUP to it). Cloning shares the latch; the service's watcher
/// thread takes it within 10 ms.
#[derive(Debug, Clone, Default)]
pub struct FlushTrigger {
    flag: Arc<AtomicBool>,
}

impl FlushTrigger {
    /// A fresh, unset trigger.
    pub fn new() -> FlushTrigger {
        FlushTrigger::default()
    }

    /// Request a flush. Idempotent until taken.
    pub fn set(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Consume a pending request, if any.
    pub fn take(&self) -> bool {
        self.flag.swap(false, Ordering::Relaxed)
    }
}

/// Where the service listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindTo {
    /// A unix-domain socket at this path (unix targets only).
    Socket(PathBuf),
    /// TCP on `127.0.0.1:port`. The service trusts its peers (it
    /// checks whatever paths they name), so it never binds a
    /// non-loopback address.
    Port(u16),
}

/// Configuration for one service instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address.
    pub bind: BindTo,
    /// Worker threads for each request's file fan-out (0 = all
    /// cores), exactly like `circ batch --jobs`.
    pub jobs: usize,
    /// Concurrent check requests admitted (floored at 1).
    pub max_inflight: usize,
    /// Check requests allowed to wait for a slot before the service
    /// sheds load with `overloaded`.
    pub queue_depth: usize,
    /// Service-wide resource envelope requests are carved from.
    pub envelope: Envelope,
    /// Run ω-CIRC (the default, matching `circ check`).
    pub omega: bool,
    /// Initial counter parameter for every check.
    pub initial_k: u32,
    /// Memoize entailment queries across requests — the reason a
    /// daemon beats cold process spawns. Disabling also disables
    /// persistence.
    pub use_cache: bool,
    /// Seed refinement from the predicate store and record what each
    /// check discovers back into it (in memory; flushed to
    /// `cache_dir` when set).
    pub pred_store: bool,
    /// Run the tiered triage pipeline in front of the engine.
    pub triage: bool,
    /// Directory to warm-start the caches from at startup and flush
    /// them to on drain (and on [`FlushTrigger`]).
    pub cache_dir: Option<PathBuf>,
    /// Retry policy for transient `internal-error` rows, applied per
    /// request unit exactly like the batch supervisor.
    pub retry: RetryPolicy,
    /// Base fault-injection plan (testing only; inert by default),
    /// reseeded per unit and per attempt from the content digest.
    pub faults: FaultPlan,
    /// Tripping this token starts the graceful drain.
    pub cancel: CancelToken,
    /// Taking this latch flushes the caches without draining.
    pub flush: FlushTrigger,
    /// Longest accepted request line in bytes; longer lines get a
    /// `bad-request` response and the connection is closed.
    pub max_request_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            bind: BindTo::Port(0),
            jobs: 1,
            max_inflight: 2,
            queue_depth: 16,
            envelope: Envelope::default(),
            omega: true,
            initial_k: 1,
            use_cache: true,
            pred_store: true,
            triage: false,
            cache_dir: None,
            retry: RetryPolicy::none(),
            faults: FaultPlan::inert(),
            cancel: CancelToken::new(),
            flush: FlushTrigger::new(),
            max_request_bytes: 4 << 20,
        }
    }
}

impl ServeConfig {
    /// A service listening on `bind` that checks every request the way
    /// a `circ batch` run under `batch` checks its files: same engine,
    /// cache, budget, retry and fault settings, and `batch`'s cancel
    /// token as the drain trigger. The other service knobs keep their
    /// defaults. Each request's own `BatchConfig` maps back.
    pub fn from_batch(bind: BindTo, batch: &BatchConfig) -> ServeConfig {
        ServeConfig {
            bind,
            jobs: batch.jobs,
            envelope: Envelope { timeout: batch.timeout, mem_limit_bytes: batch.mem_limit_bytes },
            omega: batch.omega,
            initial_k: batch.initial_k,
            use_cache: batch.use_cache,
            pred_store: batch.pred_store,
            triage: batch.triage,
            cache_dir: batch.cache_dir.clone(),
            retry: batch.retry.clone(),
            faults: batch.faults.clone(),
            cancel: batch.cancel.clone(),
            ..ServeConfig::default()
        }
    }
}

/// Why the service could not start. Everything here maps to exit 74
/// (EX_IOERR) in the CLI — a deployment problem, not a checking
/// verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The socket/port is held by a live server (a connect probe
    /// succeeded).
    InUse(String),
    /// Any other bind or listen failure.
    Bind(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InUse(msg) | ServeError::Bind(msg) => write!(f, "{msg}"),
        }
    }
}

/// One connection, unix or TCP: what the daemon accepts and what a
/// client opens with [`Stream::connect`].
pub enum Stream {
    /// A unix-domain socket connection.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
    /// A loopback TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to a daemon listening at `to`.
    ///
    /// # Errors
    ///
    /// A readable message naming the address when the connection is
    /// refused (or unix sockets are unavailable on this platform).
    pub fn connect(to: &BindTo) -> Result<Stream, String> {
        match to {
            #[cfg(unix)]
            BindTo::Socket(path) => std::os::unix::net::UnixStream::connect(path)
                .map(Stream::Unix)
                .map_err(|e| format!("cannot connect to `{}`: {e}", path.display())),
            #[cfg(not(unix))]
            BindTo::Socket(path) => Err(format!(
                "unix sockets are not supported on this platform (`{}`); use --port",
                path.display()
            )),
            BindTo::Port(port) => TcpStream::connect(("127.0.0.1", *port))
                .map(Stream::Tcp)
                .map_err(|e| format!("cannot connect to 127.0.0.1:{port}: {e}")),
        }
    }

    /// A second handle on the same connection (one to read, one to
    /// write).
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// The bound listener plus what binding it took (for the startup
/// line and socket cleanup).
enum Listener {
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }

    /// Opens and drops a connection to this listener, so an `accept`
    /// blocked on it returns.
    fn wake(&self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(_, path) => std::os::unix::net::UnixStream::connect(path).map(drop),
            Listener::Tcp(l) => TcpStream::connect(l.local_addr()?).map(drop),
        }
    }

    fn describe(&self) -> String {
        match self {
            #[cfg(unix)]
            Listener::Unix(_, path) => format!("unix socket `{}`", path.display()),
            Listener::Tcp(l) => match l.local_addr() {
                Ok(addr) => format!("tcp `{addr}`"),
                Err(_) => "tcp".to_string(),
            },
        }
    }
}

/// Binds the listener. A unix socket whose path exists gets a connect
/// probe: a live server answers the probe and the bind fails with
/// [`ServeError::InUse`]; a stale socket file from an unclean
/// shutdown refuses the probe and is reclaimed (unlinked and rebound).
/// Returns the listener and whether a stale socket was reclaimed.
fn bind(to: &BindTo) -> Result<(Listener, bool), ServeError> {
    match to {
        #[cfg(unix)]
        BindTo::Socket(path) => {
            use std::os::unix::net::{UnixListener, UnixStream};
            match UnixListener::bind(path) {
                Ok(l) => Ok((Listener::Unix(l, path.clone()), false)),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    if UnixStream::connect(path).is_ok() {
                        return Err(ServeError::InUse(format!(
                            "socket `{}` is in use by a live server \
                             (connect probe succeeded); refusing to steal it",
                            path.display()
                        )));
                    }
                    // Nobody answers: a stale socket left by a crash.
                    std::fs::remove_file(path).map_err(|e| {
                        ServeError::Bind(format!(
                            "cannot reclaim stale socket `{}`: {e}",
                            path.display()
                        ))
                    })?;
                    let l = UnixListener::bind(path).map_err(|e| {
                        ServeError::Bind(format!(
                            "cannot bind reclaimed socket `{}`: {e}",
                            path.display()
                        ))
                    })?;
                    Ok((Listener::Unix(l, path.clone()), true))
                }
                Err(e) => {
                    Err(ServeError::Bind(format!("cannot bind socket `{}`: {e}", path.display())))
                }
            }
        }
        #[cfg(not(unix))]
        BindTo::Socket(path) => Err(ServeError::Bind(format!(
            "unix sockets are not supported on this platform (`{}`); use --port",
            path.display()
        ))),
        BindTo::Port(port) => match TcpListener::bind(("127.0.0.1", *port)) {
            Ok(l) => Ok((Listener::Tcp(l), false)),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => Err(ServeError::InUse(format!(
                "port {port} is in use by another process; pick a different --port"
            ))),
            Err(e) => Err(ServeError::Bind(format!("cannot bind 127.0.0.1:{port}: {e}"))),
        },
    }
}

/// Everything the connection threads share.
struct ServerState {
    config: ServeConfig,
    admission: Admission,
    stats: ServiceStats,
    /// Warm master entailment cache, shared directly by every request
    /// (it is sharded and thread-safe; per-request counters are
    /// deltas, so sharing does not distort statistics).
    cache: AbsCache,
    /// The startup warm start. Its seeds let a flush tell whether
    /// anything was learned.
    warm: WarmStart,
    /// Warm predicate store: requests seed from a clone taken under
    /// this lock and their learned entries are absorbed back under
    /// it, in unit order. `None` when the store is disabled.
    preds: Mutex<Option<PredStore>>,
    /// Storage handle every cache load and flush goes through
    /// (fault-injecting under the `inject` feature).
    io: circ_store::Store,
    started: Instant,
}

/// One unit of request work (the serve analogue of a batch file).
enum Unit {
    Path(PathBuf),
    Inline { name: String, source: String },
}

impl Unit {
    fn name(&self) -> String {
        match self {
            Unit::Path(p) => p.display().to_string(),
            Unit::Inline { name, .. } => name.clone(),
        }
    }
}

/// The per-request [`BatchConfig`] — the same knobs a `circ batch`
/// run with this service's flags would use, so rows agree by
/// construction. Journaling, resume, and isolation stay off: each
/// unit runs under the bare [`circ_batch::supervise_unit`].
fn request_batch_config(
    config: &ServeConfig,
    req_timeout: Option<Duration>,
    req_mem: Option<u64>,
) -> BatchConfig {
    BatchConfig {
        omega: config.omega,
        initial_k: config.initial_k,
        use_cache: config.use_cache,
        jobs: 1,
        timeout: req_timeout,
        mem_limit_bytes: req_mem,
        cache_dir: None,
        pred_store: config.pred_store,
        retry: config.retry.clone(),
        cancel: config.cancel.clone(),
        faults: config.faults.clone(),
        triage: config.triage,
        ..BatchConfig::default()
    }
}

/// Checks one unit against the shared warm caches under
/// [`circ_batch::supervise_unit`] — the batch supervisor itself, so a
/// serve row equals the batch row for the same content. Journaling
/// and process isolation stay batch-only; contained panics count into
/// `panics_contained`.
fn check_unit(
    state: &ServerState,
    unit: &Unit,
    batch_cfg: &BatchConfig,
    circ: &CircConfig,
    file_timeout: Option<Duration>,
    file_mem: Option<u64>,
    pred_seed: Option<&PredStore>,
) -> (FileRow, PredStore) {
    let name = unit.name();
    let source = match unit {
        Unit::Inline { source, .. } => Ok(Cow::Borrowed(source.as_str())),
        Unit::Path(path) => std::fs::read_to_string(path).map(Cow::Owned),
    };
    // An unreadable file falls back to a key derived from its path,
    // exactly as in batch.
    let key = digest_bytes(source.as_deref().unwrap_or(&name).as_bytes());
    let (row, learned, panics) =
        supervise_unit(&name, key, batch_cfg, file_timeout, |remaining, faults| match &source {
            Ok(src) => {
                let ctx = CheckCtx {
                    config: batch_cfg,
                    circ,
                    file_timeout: remaining,
                    file_mem,
                    cache: &state.cache,
                    pred_seed,
                    faults,
                };
                let checked = check_source(&name, src, &ctx);
                (checked.row, checked.learned)
            }
            Err(e) => {
                let detail = format!("cannot read: {e}");
                (FileRow::new(name.clone(), Verdict::CompileError, detail), PredStore::new())
            }
        });
    if panics > 0 {
        state.stats.apply(|s| s.panics_contained += panics);
    }
    (row, learned)
}

/// Runs one admitted check request: resolve the work list, carve the
/// request budget across its units, fan out on a pool, merge learned
/// predicate-store entries back in unit order, aggregate worst-wins.
fn run_check(state: &ServerState, input: &CheckInput) -> (Vec<FileRow>, u8) {
    let (req_timeout, req_mem) = state.config.envelope.carve(state.config.max_inflight);
    let units: Vec<Unit> = match input {
        CheckInput::Source { name, source } => {
            vec![Unit::Inline { name: name.clone(), source: source.clone() }]
        }
        CheckInput::Path(p) => match collect_inputs(Path::new(p)) {
            Ok(paths) => paths.into_iter().map(Unit::Path).collect(),
            Err(e) => {
                let row = FileRow::new(p.clone(), Verdict::CompileError, e);
                let exit = worst_exit(std::slice::from_ref(&row));
                return (vec![row], exit);
            }
        },
    };
    let batch_cfg = request_batch_config(&state.config, req_timeout, req_mem);
    let circ = batch_cfg.circ_config();
    let file_timeout = carve_timeout(req_timeout, units.len());
    let file_mem = carve_mem_limit(req_mem, units.len());
    let pred_seed: Option<PredStore> =
        state.preds.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    let (rows, learned_stores) = run_units(state.config.jobs, &units, Unit::name, |unit| {
        check_unit(state, unit, &batch_cfg, &circ, file_timeout, file_mem, pred_seed.as_ref())
    });
    {
        let mut guard = state.preds.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(master) = guard.as_mut() {
            for learned in learned_stores {
                master.absorb(learned);
            }
        }
    }
    let exit = worst_exit(&rows);
    (rows, exit)
}

/// The `stats` response payload: the health fields, cache sizes, and
/// the single-lock [`ServiceStats`] snapshot.
fn stats_payload(state: &ServerState) -> String {
    health_fields(state)
        .u64("abs_entries", state.cache.len() as u64)
        .raw("service", &state.stats.snapshot().to_json())
        .finish()
}

/// The `health` response payload — cheap enough to answer under full
/// load (neither it nor `stats` passes through admission).
fn health_payload(state: &ServerState) -> String {
    health_fields(state).finish()
}

/// Uptime and queue depths, the fields `health` and `stats` share.
fn health_fields(state: &ServerState) -> Obj {
    let (inflight, queued, draining) = state.admission.depths();
    Obj::default()
        .f64("uptime_s", state.started.elapsed().as_secs_f64())
        .u64("inflight", inflight as u64)
        .u64("queued", queued as u64)
        .bool("draining", draining)
}

/// Counts and renders the `bad-request` response to an unusable
/// request line.
fn bad_request(state: &ServerState, detail: &str) -> String {
    state.stats.apply(|s| {
        s.requests += 1;
        s.bad_requests += 1;
    });
    protocol::render_error(None, "bad-request", detail)
}

/// Handles one request line to one response line.
fn handle_request(state: &ServerState, line: &str) -> String {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return bad_request(state, &e),
    };
    state.stats.apply(|s| s.requests += 1);
    let (id, input) = match request {
        Request::Health { id } => {
            return protocol::render_payload_response(
                id.as_deref(),
                "health",
                &health_payload(state),
            )
        }
        Request::Stats { id } => {
            return protocol::render_payload_response(id.as_deref(), "stats", &stats_payload(state))
        }
        Request::Check { id, input } => (id, input),
    };
    let id = id.as_deref();
    // A queued waiter can win a freed slot in the gap between the
    // shutdown signal and the accept loop's drain() call (cancelled
    // checks release permits quickly). Work that had not *started*
    // before the signal is shed, not admitted.
    let permit = match state.admission.admit() {
        Ok(permit) if !state.config.cancel.is_cancelled() => permit,
        Err(Rejected::Overloaded { inflight, queued }) => {
            state.stats.apply(|s| s.overloaded += 1);
            let detail = format!("queue full ({inflight} in flight, {queued} queued); retry later");
            return protocol::render_error(id, "overloaded", &detail);
        }
        Ok(_) | Err(Rejected::ShuttingDown) => {
            state.stats.apply(|s| s.shed_shutting_down += 1);
            let detail = "service is draining; no new work admitted";
            return protocol::render_error(id, "shutting-down", detail);
        }
    };
    let start = Instant::now();
    let (rows, exit) = run_check(state, &input);
    drop(permit);
    state.stats.apply(|s| {
        s.checks += 1;
        for row in &rows {
            tally(&mut s.totals, row);
        }
    });
    protocol::render_check_response(id, &rows, exit, start.elapsed().as_secs_f64())
}

/// What one bounded line read produced.
enum LineRead {
    Eof,
    Line(String),
    TooLong,
}

/// Reads one `\n`-terminated line of at most `cap` bytes. Invalid
/// UTF-8 is replaced rather than rejected — the JSON parser will
/// produce the real diagnostic.
fn read_line_bounded(reader: &mut impl BufRead, cap: usize) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return if buf.is_empty() {
                Ok(LineRead::Eof)
            } else {
                Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()))
            };
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(ix) => {
                buf.extend_from_slice(&chunk[..ix]);
                reader.consume(ix + 1);
                if buf.len() > cap {
                    return Ok(LineRead::TooLong);
                }
                return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            None => {
                let n = chunk.len();
                buf.extend_from_slice(chunk);
                reader.consume(n);
                if buf.len() > cap {
                    return Ok(LineRead::TooLong);
                }
            }
        }
    }
}

/// Serves one connection: read request lines, write response lines,
/// until EOF or an I/O error. Every response — including the panic
/// fallback — is written while a response guard is held, so a
/// graceful drain never exits under a half-written line.
fn handle_conn(state: Arc<ServerState>, stream: Stream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let line = match read_line_bounded(&mut reader, state.config.max_request_bytes) {
            Ok(LineRead::Eof) | Err(_) => return,
            Ok(LineRead::TooLong) => {
                let guard = state.admission.begin_response();
                let msg = format!(
                    "request line exceeds {} bytes; closing connection",
                    state.config.max_request_bytes
                );
                let response = bad_request(&state, &msg);
                let _ = writeln!(writer, "{response}").and_then(|()| writer.flush());
                drop(guard);
                return;
            }
            Ok(LineRead::Line(line)) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let guard = state.admission.begin_response();
        // The request boundary is the containment boundary: a panic
        // anywhere below degrades this one response, never the server.
        let response = catch_unwind(AssertUnwindSafe(|| handle_request(&state, &line)))
            .unwrap_or_else(|payload| {
                state.stats.apply(|s| s.panics_contained += 1);
                protocol::render_error(
                    None,
                    "internal-error",
                    &format!("contained request panic: {}", panic_message(payload.as_ref())),
                )
            });
        let write_result = writeln!(writer, "{response}").and_then(|()| writer.flush());
        drop(guard);
        if write_result.is_err() {
            return;
        }
    }
}

/// Flushes the warm caches and predicate store to `cache_dir` with
/// one locked merge-flush, or none when nothing was learned since a
/// clean start (see [`WarmStart::flush`]): a batch run or second
/// server sharing the directory composes with us instead of being
/// clobbered. Returns warnings (never fails the service — a failed
/// flush leaves the previous on-disk snapshot intact and counts into
/// the `flush_errors` stat).
fn flush_caches(state: &ServerState) -> Vec<String> {
    if !state.config.use_cache {
        return Vec::new();
    }
    let Some(dir) = &state.config.cache_dir else {
        return Vec::new();
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        state.stats.apply(|s| s.totals.pipeline.flush_errors += 1);
        return vec![format!("cannot create cache dir `{}`: {e}", dir.display())];
    }
    // Hold the preds guard across the flush so the store we persist
    // is consistent with the moment of the snapshot.
    let guard = state.preds.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let outcome = state.warm.flush(&state.io, dir, &state.cache, guard.as_ref());
    drop(guard);
    if outcome.flush_errors > 0 {
        state.stats.apply(|s| s.totals.pipeline.flush_errors += outcome.flush_errors);
    }
    outcome.warnings
}

/// Builds the shared server state, warm-starting from `cache_dir`
/// when one is configured. Without one the caches and predicate store
/// still start empty and learn across requests, in memory. Load
/// warnings are returned for stderr.
fn build_state(config: ServeConfig) -> (Arc<ServerState>, Vec<String>) {
    let io = circ_store::Store::with_faults(&config.faults);
    let dir = config.cache_dir.as_deref().filter(|_| config.use_cache);
    let mut warm = warm_start(&io, dir, config.pred_store && config.use_cache, true);
    if config.use_cache && dir.is_none() {
        warm.preds = config.pred_store.then(PredStore::new);
    }
    let cache =
        if config.use_cache { AbsCache::with_seed(&warm.abs_seed) } else { AbsCache::disabled() };
    let admission = Admission::new(config.max_inflight, config.queue_depth);
    let warnings = std::mem::take(&mut warm.warnings);
    let state = Arc::new(ServerState {
        admission,
        stats: ServiceStats::new(),
        cache,
        preds: Mutex::new(warm.preds.clone()),
        warm,
        io,
        started: Instant::now(),
        config,
    });
    if state.warm.recovered > 0 {
        state.stats.apply(|s| s.totals.pipeline.store_recoveries += state.warm.recovered);
    }
    (state, warnings)
}

/// The accept loop's companion: every 10 ms it runs a pending
/// [`FlushTrigger`] flush, and once `cancel` trips it connects to the
/// listener until the blocked accept loop has seen the wake-up and set
/// `stopped`.
fn watch(
    listener: &Listener,
    state: &ServerState,
    cancel: &CancelToken,
    flush: &FlushTrigger,
    stopped: &AtomicBool,
) {
    let tick = Duration::from_millis(10);
    while !cancel.is_cancelled() {
        if flush.take() {
            for w in &flush_caches(state) {
                eprintln!("circ serve: warning: {w}");
            }
            eprintln!("circ serve: flushed caches ({} abs entries)", state.cache.len());
        }
        std::thread::sleep(tick);
    }
    let mut warned = false;
    while !stopped.load(Ordering::Relaxed) {
        match listener.wake() {
            Err(e) if !warned => {
                eprintln!("circ serve: cannot wake the accept loop: {e}; retrying");
                warned = true;
            }
            _ => {}
        }
        std::thread::sleep(tick);
    }
}

/// Runs the service until its [`CancelToken`] trips, then drains
/// gracefully. Returns the process exit code (3, "drained" — the
/// same code a cancelled batch run uses) or a [`ServeError`] the CLI
/// maps to exit 74. Progress and warnings go to stderr.
pub fn serve(config: ServeConfig) -> Result<u8, ServeError> {
    let (listener, reclaimed) = bind(&config.bind)?;
    if reclaimed {
        eprintln!("circ serve: reclaimed stale socket left by an unclean shutdown");
    }
    let cancel = config.cancel.clone();
    let flush = config.flush.clone();
    let (state, warnings) = build_state(config);
    for w in &warnings {
        eprintln!("circ serve: warning: {w}");
    }
    eprintln!(
        "circ serve: listening on {} ({} in-flight, queue {})",
        listener.describe(),
        state.config.max_inflight.max(1),
        state.config.queue_depth
    );
    // The accept loop blocks, so a fresh connection is served the
    // moment it arrives; the watcher runs flushes and wakes the loop
    // once cancellation trips.
    let stopped = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| watch(&listener, &state, &cancel, &flush, &stopped));
        while !cancel.is_cancelled() {
            match listener.accept() {
                Ok(stream) => {
                    let state = Arc::clone(&state);
                    // Detached on purpose: connection threads block on
                    // client reads; drain must not wait for clients to
                    // hang up, only for in-flight *requests* to settle.
                    // The watcher's wake-up connection ends at once.
                    std::thread::spawn(move || handle_conn(state, stream));
                }
                Err(e) => {
                    eprintln!("circ serve: accept failed: {e}; continuing");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        stopped.store(true, Ordering::Relaxed);
    });
    let (inflight, queued, _) = state.admission.depths();
    eprintln!("circ serve: draining ({inflight} in flight, {queued} queued)");
    state.admission.drain();
    state.admission.await_idle();
    let flush_warnings = flush_caches(&state);
    for w in &flush_warnings {
        eprintln!("circ serve: warning: {w}");
    }
    #[cfg(unix)]
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    let snapshot = state.stats.snapshot();
    eprintln!(
        "circ serve: drained cleanly ({} requests, {} checks, {} overloaded, {} rejected while shutting down)",
        snapshot.requests, snapshot.checks, snapshot.overloaded, snapshot.shed_shutting_down
    );
    Ok(3)
}
