//! End-to-end service-mode tests against the real `circ` binary: a
//! daemon must produce verdicts identical to `circ batch`, shed load
//! with structured errors when over capacity, drain gracefully on
//! SIGTERM (in-flight requests finish or degrade to cancelled rows,
//! queued ones get `shutting-down`, exit 3), reclaim stale sockets,
//! refuse live ones with exit 74, restart warm from the same
//! `--cache-dir` (strictly fewer cache misses than a cold start), and
//! re-check a corpus more cheaply than one `circ check` spawn per file.

#![cfg(unix)]

use circ_stats::json::{self, Value};
use circ_stats::PipelineStats;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Runs the tests of this file one at a time: one of them compares
/// wall times, which a concurrent 80-file request would skew.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn circ() -> Command {
    Command::new(env!("CARGO_BIN_EXE_circ"))
}

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A socket path under /tmp: CARGO_TARGET_TMPDIR can exceed the
/// ~108-byte unix socket path limit.
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("circ-e2e-{}-{tag}.sock", std::process::id()))
}

struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(socket: &Path, extra: &[&str]) -> Daemon {
        let child = circ()
            .args(["serve", "--socket", socket.to_str().unwrap()])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut daemon = Daemon { child: Some(child), socket: socket.to_path_buf() };
        let deadline = Instant::now() + Duration::from_secs(30);
        while UnixStream::connect(socket).is_err() {
            assert!(Instant::now() < deadline, "server never came up on {}", socket.display());
            let exited = daemon.child.as_mut().unwrap().try_wait().unwrap();
            assert!(exited.is_none(), "server exited during startup");
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon
    }

    fn sigterm(&self) {
        let pid = self.child.as_ref().unwrap().id().to_string();
        let ok = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
        assert!(ok.success());
    }

    /// SIGTERM, wait, and return `(exit_code, stderr)`.
    fn shutdown(self) -> (i32, String) {
        self.sigterm();
        self.wait()
    }

    /// Wait for an exit already in progress (a SIGTERM was sent;
    /// sending another would force-kill — the one-shot handler has
    /// restored the default disposition).
    fn wait(mut self) -> (i32, String) {
        let out = self.child.take().unwrap().wait_with_output().unwrap();
        (out.status.code().expect("signal-free exit"), String::from_utf8_lossy(&out.stderr).into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Abnormal path only (a panic before shutdown/wait): force-kill
        // and clean up. The normal path leaves the socket alone so the
        // tests can assert the *server* removed it on drain.
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// One request → one response on a fresh connection.
fn roundtrip(socket: &Path, request: &str) -> Value {
    let mut conn = UnixStream::connect(socket).expect("connect");
    writeln!(conn, "{request}").expect("send");
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line).expect("receive");
    json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
}

/// `(inflight, queued)` from a health probe.
fn depths(socket: &Path) -> (u64, u64) {
    let health = roundtrip(socket, "{\"op\":\"health\"}");
    let h = health.get("health").expect("health payload");
    (
        h.get("inflight").and_then(Value::as_u64).unwrap(),
        h.get("queued").and_then(Value::as_u64).unwrap(),
    )
}

/// The comparable part of a report row: everything except wall time.
fn row_key(row: &Value) -> (String, String, String, String) {
    let s = |k: &str| row.get(k).and_then(Value::as_str).unwrap_or_default().to_string();
    (s("file"), s("verdict"), s("detail"), s("stage"))
}

fn response_rows(response: &Value) -> Vec<(String, String, String, String)> {
    let Some(Value::Arr(rows)) = response.get("rows") else {
        panic!("no rows in {response:?}");
    };
    rows.iter().map(row_key).collect()
}

/// Cumulative service-side abs-cache misses, from a stats probe.
fn abs_misses(socket: &Path) -> u64 {
    let stats = roundtrip(socket, "{\"op\":\"stats\"}");
    stats
        .get("stats")
        .and_then(|s| s.get("service"))
        .and_then(|s| s.get("totals"))
        .and_then(|t| t.get("pipeline"))
        .and_then(|p| p.get("abs_cache_misses"))
        .and_then(Value::as_u64)
        .expect("abs_cache_misses in stats payload")
}

#[test]
fn stale_socket_is_reclaimed_and_live_socket_refused_with_74() {
    let _serial = serial();
    let socket = socket_path("bind");
    // Plant a stale socket file: bind and immediately drop the
    // listener, as an unclean shutdown would leave behind.
    let _ = std::fs::remove_file(&socket);
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(socket.exists());

    let daemon = Daemon::spawn(&socket, &[]);
    let health = roundtrip(&socket, "{\"op\":\"health\"}");
    assert_eq!(health.get("ok"), Some(&Value::Bool(true)));

    // A second server against the live socket: clear diagnostic,
    // exit 74, and the live server keeps its socket.
    let second = circ().args(["serve", "--socket", socket.to_str().unwrap()]).output().unwrap();
    assert_eq!(second.status.code(), Some(74));
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("in use"), "unhelpful diagnostic: {stderr}");
    let health = roundtrip(&socket, "{\"op\":\"health\"}");
    assert_eq!(health.get("ok"), Some(&Value::Bool(true)));

    let (exit, stderr) = daemon.shutdown();
    assert_eq!(exit, 3);
    assert!(stderr.contains("reclaimed stale socket"), "missing reclaim notice: {stderr}");
    assert!(!socket.exists(), "drain must remove the socket file");
}

#[test]
fn serve_verdicts_match_batch_and_restart_is_warm() {
    let _serial = serial();
    let cache_dir = tmp("serve-warm-cache");
    let socket = socket_path("warm");
    let examples = examples_dir();
    let examples_arg = examples.to_str().unwrap();

    // Ground truth: the same corpus through `circ batch --json`.
    let batch = circ().args(["batch", examples_arg, "--json"]).output().unwrap();
    assert_eq!(batch.status.code(), Some(1), "racy example must dominate");
    let batch_json = json::parse(String::from_utf8_lossy(&batch.stdout).trim()).unwrap();
    let batch_rows: Vec<_> = match batch_json.get("rows") {
        Some(Value::Arr(rows)) => rows.iter().map(row_key).collect(),
        other => panic!("no rows in batch report: {other:?}"),
    };
    assert!(!batch_rows.is_empty());

    // Cold daemon pass over the same corpus, via the real client.
    let daemon = Daemon::spawn(&socket, &["--cache-dir", cache_dir.to_str().unwrap()]);
    let client = circ()
        .args(["client", "--socket", socket.to_str().unwrap(), examples_arg])
        .output()
        .unwrap();
    assert_eq!(
        client.status.code(),
        Some(1),
        "client exit must be worst-wins like batch; stderr: {}",
        String::from_utf8_lossy(&client.stderr)
    );
    let response = json::parse(String::from_utf8_lossy(&client.stdout).trim()).unwrap();
    assert_eq!(
        response_rows(&response),
        batch_rows,
        "serve rows must be identical to batch rows modulo wall time"
    );
    assert_eq!(response.get("exit").and_then(Value::as_u64), Some(1));
    let cold_misses = abs_misses(&socket);
    assert!(cold_misses > 0, "a cold pass must miss");

    // Drain flushes the caches; the socket file goes away.
    let (exit, stderr) = daemon.shutdown();
    assert_eq!(exit, 3, "stderr: {stderr}");
    assert!(stderr.contains("draining"), "missing drain notice: {stderr}");
    assert!(stderr.contains("drained cleanly"), "missing drain summary: {stderr}");
    assert!(cache_dir.join("abs.cache").exists(), "drain must flush the entailment cache");

    // Restart against the same cache dir: the same corpus must cost
    // strictly fewer entailment-cache misses than the cold pass.
    let daemon = Daemon::spawn(&socket, &["--cache-dir", cache_dir.to_str().unwrap()]);
    let client = circ()
        .args(["client", "--socket", socket.to_str().unwrap(), examples_arg])
        .output()
        .unwrap();
    assert_eq!(client.status.code(), Some(1));
    let warm_response = json::parse(String::from_utf8_lossy(&client.stdout).trim()).unwrap();
    assert_eq!(response_rows(&warm_response), batch_rows, "warm verdicts must not change");
    let warm_misses = abs_misses(&socket);
    assert!(
        warm_misses < cold_misses,
        "warm restart must re-check cheaper: {warm_misses} misses warm vs {cold_misses} cold"
    );
    let (exit, _) = daemon.shutdown();
    assert_eq!(exit, 3);
}

/// The daemon's reason to exist: re-checking the `examples/` corpus
/// as repeated requests to one `circ serve` must agree with the same
/// number of passes of per-file `circ check` spawns (exit 0/1 read as
/// safe/race), stay stable across passes, and cost strictly fewer
/// entailment-cache misses and less wall time, because every spawn
/// starts cold while the daemon's caches stay warm. Ten passes, not
/// three: in the unoptimised test build a warm request still costs
/// about 10 ms of checking, so three passes left the wall-time margin
/// as thin as 1.1x; ten amortise the daemon's cold first request.
#[test]
fn daemon_beats_per_file_spawns_with_identical_verdicts() {
    let _serial = serial();
    const PASSES: usize = 10;
    let examples = examples_dir();
    let inputs = circ_batch::collect_inputs(&examples).unwrap();

    let mut spawn_verdicts = Vec::new();
    let mut spawn_misses = 0;
    let t0 = Instant::now();
    for pass in 0..PASSES {
        for input in &inputs {
            let out = circ().args(["check", input.to_str().unwrap(), "--json"]).output().unwrap();
            let verdict = match out.status.code() {
                Some(0) => "safe",
                Some(1) => "race",
                other => panic!(
                    "`circ check {}` exited {other:?}: {}",
                    input.display(),
                    String::from_utf8_lossy(&out.stderr)
                ),
            };
            if pass == 0 {
                spawn_verdicts.push((input.display().to_string(), verdict.to_string()));
            }
            spawn_misses += String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter_map(|l| {
                    json::parse(l.trim()).and_then(|v| PipelineStats::from_json(&v)).ok()
                })
                .map(|p| p.abs.cache_misses)
                .sum::<u64>();
        }
    }
    let spawn_time = t0.elapsed();

    let socket = socket_path("spawns");
    let daemon = Daemon::spawn(&socket, &[]);
    let request =
        format!("{{\"op\":\"check\",\"path\":\"{}\"}}", json::escape(examples.to_str().unwrap()));
    // One connection for every pass, as an editor integration would
    // hold it.
    let t1 = Instant::now();
    let mut conn = UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let passes: Vec<Vec<(String, String)>> = (0..PASSES)
        .map(|_| {
            writeln!(conn, "{request}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let rows = response_rows(&json::parse(line.trim()).unwrap());
            rows.into_iter().map(|(file, verdict, ..)| (file, verdict)).collect()
        })
        .collect();
    let daemon_time = t1.elapsed();
    drop((conn, reader));
    let daemon_misses = abs_misses(&socket);
    let (exit, stderr) = daemon.shutdown();
    assert_eq!(exit, 3, "drain must exit 3; stderr: {stderr}");

    assert!(passes.iter().all(|p| *p == passes[0]), "daemon verdicts changed between passes");
    assert_eq!(passes[0], spawn_verdicts, "daemon verdicts differ from spawned checks");
    assert!(
        daemon_misses < spawn_misses,
        "daemon must miss less: {daemon_misses} vs {spawn_misses} over {PASSES} spawn passes"
    );
    assert!(
        daemon_time < spawn_time,
        "daemon must be faster: {daemon_time:?} vs {spawn_time:?} over {PASSES} spawn passes"
    );
}

#[test]
fn overload_sheds_queue_gets_shutting_down_and_inflight_completes() {
    let _serial = serial();
    let dir = tmp("serve-drain-corpus");
    let corpus = dir.join("files");
    std::fs::create_dir_all(&corpus).unwrap();
    // Structurally distinct (but all still safe) copies: padding
    // `skip` statements grows each automaton differently, so the warm
    // master cache cannot collapse the corpus into near-free cache
    // hits — the request genuinely stays in flight while we probe.
    let src = std::fs::read_to_string(examples_dir().join("test_and_set.nesl")).unwrap();
    for i in 0..80 {
        let pad = "skip; ".repeat(i + 1);
        let copy = src.replace("if (won == 0) {", &format!("if (won == 0) {{ {pad}"));
        assert_ne!(copy, src, "padding must land");
        std::fs::write(corpus.join(format!("copy_{i:03}.nesl")), copy).unwrap();
    }
    let socket = socket_path("drain");
    let daemon = Daemon::spawn(&socket, &["--max-inflight", "1", "--queue-depth", "1"]);

    // Connection A: a big request that will still be in flight when
    // the drain starts.
    let mut conn_a = UnixStream::connect(&socket).unwrap();
    writeln!(
        conn_a,
        "{{\"op\":\"check\",\"id\":\"big\",\"path\":\"{}\"}}",
        json::escape(corpus.to_str().unwrap())
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while depths(&socket) != (1, 0) {
        assert!(Instant::now() < deadline, "big request never admitted");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Connection B: queues behind A (queue depth 1).
    let mut conn_b = UnixStream::connect(&socket).unwrap();
    let read_only = examples_dir().join("read_only.nesl");
    writeln!(
        conn_b,
        "{{\"op\":\"check\",\"id\":\"queued\",\"path\":\"{}\"}}",
        json::escape(read_only.to_str().unwrap())
    )
    .unwrap();
    while depths(&socket) != (1, 1) {
        assert!(Instant::now() < deadline, "second request never queued");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Connection C: both the slot and the queue are full — shed now.
    let shed = roundtrip(
        &socket,
        &format!("{{\"op\":\"check\",\"path\":\"{}\"}}", json::escape(read_only.to_str().unwrap())),
    );
    assert_eq!(shed.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(shed.get("error").and_then(Value::as_str), Some("overloaded"));
    assert!(shed.get("detail").and_then(Value::as_str).unwrap().contains("queue full"), "{shed:?}");

    // And the real client maps a shed request to EX_TEMPFAIL (75).
    let shed_client = circ()
        .args(["client", "--socket", socket.to_str().unwrap(), read_only.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(shed_client.status.code(), Some(75));

    // Drain mid-request.
    daemon.sigterm();

    // B was queued: it must get a structured shutting-down rejection.
    let mut line = String::new();
    BufReader::new(&mut conn_b).read_line(&mut line).unwrap();
    let b = json::parse(line.trim()).unwrap();
    assert_eq!(b.get("error").and_then(Value::as_str), Some("shutting-down"), "{line}");
    assert_eq!(b.get("id").and_then(Value::as_str), Some("queued"));

    // A was in flight: it must get a complete response — rows may
    // degrade to cancelled budget-exhausted, but never flip verdicts.
    line.clear();
    BufReader::new(&mut conn_a).read_line(&mut line).unwrap();
    let a = json::parse(line.trim()).unwrap();
    assert_eq!(a.get("ok"), Some(&Value::Bool(true)), "in-flight request must complete: {line}");
    assert_eq!(a.get("id").and_then(Value::as_str), Some("big"));
    let Some(Value::Arr(rows)) = a.get("rows") else { panic!("no rows: {line}") };
    assert_eq!(rows.len(), 80, "every unit must be accounted for");
    for row in rows {
        let verdict = row.get("verdict").and_then(Value::as_str).unwrap();
        assert!(
            verdict == "safe" || verdict == "budget-exhausted",
            "a drained unit may only be its true verdict or a degraded one, got {verdict}"
        );
    }
    assert!(
        rows.iter().any(|r| r.get("verdict").and_then(Value::as_str) == Some("budget-exhausted")),
        "an 80-file request interrupted mid-run must have drained rows"
    );

    let out = daemon.wait();
    assert_eq!(out.0, 3, "stderr: {}", out.1);
}
