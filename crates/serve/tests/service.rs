//! In-process end-to-end tests for the serve loop: a real listener,
//! real client connections, the full request lifecycle including
//! overload shedding and graceful drain.
#![cfg(unix)]

use circ_governor::{CancelToken, Envelope};
use circ_serve::{serve, BindTo, ServeConfig};
use circ_stats::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SAFE_READER: &str = "global int config;\n#race config;\n\
    thread reader { local int s; loop { s = config; if (s > 0) { skip; } } }\n";

const RACY: &str = "global int data;\n#race data;\n\
    thread writer { loop { data = data + 1; } }\n";

fn short_socket_path(tag: &str) -> PathBuf {
    // Unix socket paths are limited to ~108 bytes; CARGO_TARGET_TMPDIR
    // can exceed that, so fall back to /tmp with a pid-unique name.
    let dir = std::env::temp_dir();
    dir.join(format!("circ-serve-{}-{tag}.sock", std::process::id()))
}

struct RunningServer {
    socket: PathBuf,
    cancel: CancelToken,
    thread: Option<std::thread::JoinHandle<Result<u8, circ_serve::ServeError>>>,
}

impl RunningServer {
    fn start(mut config: ServeConfig, tag: &str) -> RunningServer {
        // No pre-cleanup: a leftover socket file from a crashed prior
        // run is exactly what the server's stale-socket reclaim is for.
        let socket = short_socket_path(tag);
        config.bind = BindTo::Socket(socket.clone());
        let cancel = config.cancel.clone();
        let thread = std::thread::spawn(move || serve(config));
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(&socket).is_err() {
            assert!(Instant::now() < deadline, "server never came up on {}", socket.display());
            std::thread::sleep(Duration::from_millis(5));
        }
        RunningServer { socket, cancel, thread: Some(thread) }
    }

    fn connect(&self) -> UnixStream {
        UnixStream::connect(&self.socket).expect("connect")
    }

    /// One request, one response, on a fresh connection.
    fn roundtrip(&self, request: &str) -> Value {
        let mut conn = self.connect();
        writeln!(conn, "{request}").expect("write request");
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).expect("read response");
        json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
    }

    fn shutdown(mut self) -> u8 {
        self.cancel.cancel();
        let exit = self
            .thread
            .take()
            .expect("running")
            .join()
            .expect("serve thread")
            .expect("clean drain");
        assert!(!self.socket.exists(), "drain must remove the socket file");
        exit
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.cancel.cancel();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn row_verdicts(response: &Value) -> Vec<(String, String)> {
    let Some(Value::Arr(rows)) = response.get("rows") else {
        panic!("no rows in {response:?}");
    };
    rows.iter()
        .map(|r| {
            (
                r.get("file").and_then(Value::as_str).expect("file").to_string(),
                r.get("verdict").and_then(Value::as_str).expect("verdict").to_string(),
            )
        })
        .collect()
}

#[test]
fn inline_checks_round_trip_with_batch_identical_verdicts() {
    let server = RunningServer::start(ServeConfig::default(), "inline");

    let safe = server.roundtrip(&format!(
        "{{\"op\":\"check\",\"id\":1,\"name\":\"reader.nesl\",\"source\":\"{}\"}}",
        json::escape(SAFE_READER)
    ));
    assert_eq!(safe.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(safe.get("id").and_then(Value::as_u64), Some(1));
    assert_eq!(safe.get("exit").and_then(Value::as_u64), Some(0));
    assert_eq!(row_verdicts(&safe), vec![("reader.nesl".to_string(), "safe".to_string())]);

    let racy = server
        .roundtrip(&format!("{{\"op\":\"check\",\"id\":2,\"source\":\"{}\"}}", json::escape(RACY)));
    assert_eq!(racy.get("exit").and_then(Value::as_u64), Some(1));
    assert_eq!(row_verdicts(&racy), vec![("<inline>".to_string(), "race".to_string())]);

    // The same sources through the batch code path directly.
    for (src, expect) in [(SAFE_READER, "safe"), (RACY, "race")] {
        let config = circ_batch::BatchConfig::default();
        let circ = config.circ_config();
        let cache = circ_core::AbsCache::new();
        let persist = circ_core::SolverPersist::inert();
        let faults = circ_governor::FaultPlan::inert();
        let ctx = circ_batch::CheckCtx {
            config: &config,
            circ: &circ,
            file_timeout: None,
            file_mem: None,
            cache: &cache,
            persist: &persist,
            pred_seed: None,
            faults: &faults,
        };
        let row = circ_batch::check_source("x.nesl", src, &ctx).row;
        assert_eq!(row.verdict.name(), expect, "batch verdict for {expect}");
    }

    // Health and stats answer without admission.
    let health = server.roundtrip("{\"op\":\"health\"}");
    assert_eq!(health.get("ok"), Some(&Value::Bool(true)));
    let stats = server.roundtrip("{\"op\":\"stats\",\"id\":\"s\"}");
    let service = stats.get("stats").and_then(|s| s.get("service")).expect("service block");
    assert_eq!(service.get("checks").and_then(Value::as_u64), Some(2));
    assert!(
        stats.get("stats").and_then(|s| s.get("abs_entries")).and_then(Value::as_u64).unwrap() > 0,
        "warm master cache must retain entries across requests"
    );

    assert_eq!(server.shutdown(), 3);
}

#[test]
fn malformed_lines_degrade_to_bad_request_and_server_survives() {
    let server = RunningServer::start(ServeConfig::default(), "bad");
    for (bad, why) in [
        ("not json", "unparseable"),
        ("{\"op\":\"nope\"}", "unknown op"),
        ("{\"op\":\"check\"}", "no input"),
    ] {
        let resp = server.roundtrip(bad);
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)), "{why}");
        assert_eq!(resp.get("error").and_then(Value::as_str), Some("bad-request"), "{why}");
    }
    // A nonexistent path degrades to a compile-error row, not a dead server.
    let resp = server.roundtrip("{\"op\":\"check\",\"path\":\"/nonexistent/x.nesl\"}");
    assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(resp.get("exit").and_then(Value::as_u64), Some(65));
    // And the server still answers real work afterwards.
    let ok = server
        .roundtrip(&format!("{{\"op\":\"check\",\"source\":\"{}\"}}", json::escape(SAFE_READER)));
    assert_eq!(ok.get("exit").and_then(Value::as_u64), Some(0));
    let exit = server.shutdown();
    assert_eq!(exit, 3);
}

#[test]
fn oversized_request_lines_are_rejected_with_the_connection_closed() {
    let config = ServeConfig { max_request_bytes: 128, ..ServeConfig::default() };
    let server = RunningServer::start(config, "oversize");
    let mut conn = server.connect();
    let huge = format!("{{\"op\":\"check\",\"source\":\"{}\"}}", "x".repeat(4096));
    // One write: the daemon answers and closes after reading past the
    // cap, so a second write (`writeln!` makes two) could hit EPIPE.
    conn.write_all(format!("{huge}\n").as_bytes()).expect("write");
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let resp = json::parse(line.trim()).expect("parse");
    assert_eq!(resp.get("error").and_then(Value::as_str), Some("bad-request"));
    // The connection is closed after an oversized line.
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0);
    // But the server is fine.
    let ok = server.roundtrip("{\"op\":\"health\"}");
    assert_eq!(ok.get("ok"), Some(&Value::Bool(true)));
    server.shutdown();
}

#[test]
fn fresh_connections_are_accepted_without_a_polling_delay() {
    // The accept loop blocks on the listener, so a new connection is
    // served as soon as it arrives. A loop that polls a non-blocking
    // listener every 10 ms makes each of these sequential requests
    // wait for its next tick: about 20 × 10 ms in all.
    let server = RunningServer::start(ServeConfig::default(), "fresh");
    server.roundtrip("{\"op\":\"health\"}");
    let started = Instant::now();
    for _ in 0..20 {
        let ok = server.roundtrip("{\"op\":\"health\"}");
        assert_eq!(ok.get("ok"), Some(&Value::Bool(true)));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "20 fresh-connection requests took {elapsed:?}; expected well under 200 ms"
    );
    assert_eq!(server.shutdown(), 3);
}

#[test]
fn stale_socket_is_reclaimed_and_live_socket_is_refused() {
    use std::os::unix::net::UnixListener;
    // A socket file with no listener behind it (a crash leftover):
    // binding and dropping the listener leaves the file on disk.
    let path = short_socket_path("stale");
    let _ = std::fs::remove_file(&path);
    drop(UnixListener::bind(&path).expect("plant stale socket"));
    assert!(path.exists(), "stale socket file must exist");
    let server = RunningServer::start(ServeConfig::default(), "stale");
    let ok = server.roundtrip("{\"op\":\"health\"}");
    assert_eq!(ok.get("ok"), Some(&Value::Bool(true)));

    // A second server against the *live* socket must refuse to steal it.
    let second = serve(ServeConfig {
        bind: BindTo::Socket(server.socket.clone()),
        ..ServeConfig::default()
    });
    match second {
        Err(circ_serve::ServeError::InUse(msg)) => {
            assert!(msg.contains("in use"), "{msg}");
        }
        other => panic!("expected InUse, got {other:?}"),
    }
    // The refusal must not have unlinked the live server's socket.
    let ok = server.roundtrip("{\"op\":\"health\"}");
    assert_eq!(ok.get("ok"), Some(&Value::Bool(true)));
    server.shutdown();
}

#[test]
fn overload_sheds_and_drain_finishes_inflight_work() {
    // One slot, no queue: while a slow request holds the slot, the
    // next is shed with `overloaded`.
    let config = ServeConfig {
        max_inflight: 1,
        queue_depth: 0,
        envelope: Envelope { timeout: Some(Duration::from_secs(60)), mem_limit_bytes: None },
        ..ServeConfig::default()
    };
    let server = RunningServer::start(config, "overload");

    // A request with enough units to stay in flight while we probe:
    // a directory of 60 copies of the test-and-set example. The warm
    // master cache makes later copies cheap, but each still runs, so
    // the request holds its permit long enough to observe.
    let slow_src = "global int buf;\nglobal int busy;\n#race buf;\n\
        thread sender { local int won; loop { atomic { won = busy; \
        if (busy == 0) { busy = 1; } } if (won == 0) { buf = buf + 1; busy = 0; } } }\n";
    let corpus = std::env::temp_dir().join(format!("circ-serve-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&corpus);
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    for i in 0..60 {
        std::fs::write(corpus.join(format!("tas_{i:02}.nesl")), slow_src).expect("write corpus");
    }
    let mut slow_conn = server.connect();
    writeln!(
        slow_conn,
        "{{\"op\":\"check\",\"id\":\"slow\",\"path\":\"{}\"}}",
        json::escape(&corpus.display().to_string())
    )
    .expect("write slow");

    // Wait until the slow request actually holds the slot.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = server.roundtrip("{\"op\":\"health\"}");
        let inflight = health.get("health").and_then(|h| h.get("inflight")).and_then(Value::as_u64);
        if inflight == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "slow request never admitted");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Queue depth 0: the next check is shed immediately.
    let shed = server
        .roundtrip(&format!("{{\"op\":\"check\",\"source\":\"{}\"}}", json::escape(SAFE_READER)));
    assert_eq!(shed.get("error").and_then(Value::as_str), Some("overloaded"));
    assert!(shed.get("detail").and_then(Value::as_str).unwrap().contains("queue full"), "{shed:?}");

    // Drain: the in-flight request still gets its response.
    server.cancel.cancel();
    let mut line = String::new();
    BufReader::new(&mut slow_conn).read_line(&mut line).expect("slow response");
    let slow_resp = json::parse(line.trim()).expect("parse slow response");
    assert_eq!(slow_resp.get("ok"), Some(&Value::Bool(true)), "in-flight must complete: {line}");
    assert_eq!(slow_resp.get("id").and_then(Value::as_str), Some("slow"));
    let exit = server.shutdown();
    assert_eq!(exit, 3, "drained service exits 3");
    let _ = std::fs::remove_dir_all(&corpus);
}

/// `value` with every `"time*"` field removed, at any depth.
fn without_times(value: &Value) -> Value {
    match value {
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .filter(|(k, _)| !k.starts_with("time"))
                .map(|(k, v)| (k.clone(), without_times(v)))
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.iter().map(without_times).collect()),
        other => other.clone(),
    }
}

#[test]
fn repeated_requests_on_a_warm_cache_dir_keep_the_solver_store_flat() {
    let dir = std::env::temp_dir().join(format!("circ-serve-{}-flat", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = || ServeConfig { cache_dir: Some(dir.clone()), ..ServeConfig::default() };
    let source = include_str!("../../../examples/test_and_set.nesl");
    let request = format!(
        "{{\"op\":\"check\",\"name\":\"tas.nesl\",\"source\":\"{}\"}}",
        json::escape(source)
    );
    let solver_entries = |server: &RunningServer| {
        let stats = server.roundtrip("{\"op\":\"stats\"}");
        stats.get("stats").and_then(|s| s.get("solver_entries")).and_then(Value::as_u64).unwrap()
    };

    // Warm the directory: one check, flushed by the drain.
    let server = RunningServer::start(config(), "warmup");
    assert_eq!(server.roundtrip(&request).get("exit").and_then(Value::as_u64), Some(0));
    assert_eq!(server.shutdown(), 3);

    let server = RunningServer::start(config(), "flat");
    let seeded = solver_entries(&server);
    assert!(seeded > 0, "the warm-up must have persisted solver entries");
    let mut rows = Vec::new();
    let mut after_first = 0;
    for i in 0..50 {
        let resp = server.roundtrip(&request);
        assert_eq!(resp.get("exit").and_then(Value::as_u64), Some(0), "request {i}");
        rows.push(without_times(resp.get("rows").expect("rows")));
        if i == 0 {
            after_first = solver_entries(&server);
        }
    }
    assert_eq!(solver_entries(&server), after_first, "solver store grew with requests");
    assert!(rows.iter().all(|r| r == &rows[0]), "rows differ between identical requests");
    assert_eq!(server.shutdown(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}
