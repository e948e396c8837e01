//! Serve-loop containment under seeded fault injection (`--features
//! inject`): an injected worker panic only ever degrades the affected
//! response to `internal-error` — it never flips a verdict and never
//! kills the server — and a transient fault that clears on the retry
//! lands back on the clean verdict, visible as `totals.retries` in
//! the stats payload.
#![cfg(all(unix, feature = "inject"))]

use circ_batch::mjson::{self, Value};
use circ_batch::{run_batch, BatchConfig, Verdict};
use circ_governor::{FaultPlan, RetryPolicy};
use circ_serve::{serve, BindTo, ServeConfig};
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
    std::env::temp_dir().join(format!("circ-serve-inj-{}-{tag}.sock", std::process::id()))
}

struct Server {
    socket: PathBuf,
    cancel: circ_governor::CancelToken,
    thread: Option<std::thread::JoinHandle<Result<u8, circ_serve::ServeError>>>,
}

impl Server {
    fn start(mut config: ServeConfig, tag: &str) -> Server {
        let socket = short_socket_path(tag);
        let _ = std::fs::remove_file(&socket);
        config.bind = BindTo::Socket(socket.clone());
        let cancel = config.cancel.clone();
        let thread = std::thread::spawn(move || serve(config));
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(&socket).is_err() {
            assert!(Instant::now() < deadline, "server never came up on {}", socket.display());
            std::thread::sleep(Duration::from_millis(5));
        }
        Server { socket, cancel, thread: Some(thread) }
    }

    fn roundtrip(&self, request: &str) -> Value {
        let mut conn = UnixStream::connect(&self.socket).expect("connect");
        writeln!(conn, "{request}").expect("write request");
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).expect("read response");
        mjson::parse(line.trim()).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
    }

    fn stop(mut self) -> u8 {
        self.cancel.cancel();
        self.thread.take().expect("running").join().expect("serve thread").expect("clean drain")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.cancel.cancel();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn sole_verdict(resp: &Value) -> String {
    let Some(Value::Arr(rows)) = resp.get("rows") else {
        panic!("no rows in {resp:?}");
    };
    assert_eq!(rows.len(), 1, "{resp:?}");
    rows[0].get("verdict").and_then(Value::as_str).expect("verdict").to_string()
}

/// Scans injection seeds until both containment shapes have been
/// observed through the live service: (a) a contained panic (counted
/// in `panics_contained`, the server still answering afterwards) and
/// (b) a transient fault recovered by the retry loop (nonzero
/// `totals.retries` with every verdict still clean); every response
/// is clean-or-degraded — never a flipped verdict — and the drain
/// still exits 3.
#[test]
fn injected_panics_only_degrade_and_retries_recover_the_clean_verdict() {
    let mut contained = false;
    let mut recovered = false;
    for seed in 0..64u64 {
        let config = ServeConfig {
            faults: FaultPlan::seeded(seed).with_task_panic(60),
            retry: RetryPolicy::with_retries(3, seed),
            ..ServeConfig::default()
        };
        let server = Server::start(config, &format!("s{seed}"));
        let mut all_clean = true;
        for (src, clean) in [(SAFE_READER, "safe"), (RACY, "race")] {
            let resp = server.roundtrip(&format!(
                "{{\"op\":\"check\",\"source\":\"{}\"}}",
                circ_batch::json_escape(src)
            ));
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "seed {seed}: {resp:?}");
            let v = sole_verdict(&resp);
            assert!(
                v == clean || v == "internal-error",
                "seed {seed}: verdict flipped {clean} -> {v}"
            );
            all_clean &= v == clean;
        }
        // The server survives whatever the injection did to the
        // workers, and its counters say what happened.
        let stats = server.roundtrip("{\"op\":\"stats\"}");
        let service = stats.get("stats").and_then(|s| s.get("service")).expect("service block");
        let panics = service.get("panics_contained").and_then(Value::as_u64).unwrap();
        let retries =
            service.get("totals").and_then(|t| t.get("retries")).and_then(Value::as_u64).unwrap();
        contained |= panics > 0;
        recovered |= retries > 0 && all_clean;
        assert_eq!(server.stop(), 3, "seed {seed}: drain must still exit 3");
        if contained && recovered {
            return;
        }
    }
    assert!(contained, "no seed in 0..64 injected a contained panic");
    assert!(recovered, "no seed in 0..64 produced a retry-recoverable transient fault");
}

/// Batch and serve share one unit supervisor, so under the same fault
/// plan and retry policy the same content comes out as the same row
/// through either door: verdict, detail, stage attribution, and retry
/// count. The serve row's retries are read off the stats payload's
/// running total.
#[test]
fn batch_and_serve_rows_agree_under_injection() {
    let dir = std::env::temp_dir().join(format!("circ-serve-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut injected = false;
    for seed in 0..16u64 {
        let faults = FaultPlan::seeded(seed).with_task_panic(60);
        let retry = RetryPolicy::with_retries(3, seed);
        let config =
            ServeConfig { faults: faults.clone(), retry: retry.clone(), ..ServeConfig::default() };
        let server = Server::start(config, &format!("parity{seed}"));
        let mut served_retries = 0;
        for (i, src) in [SAFE_READER, RACY].into_iter().enumerate() {
            let path = dir.join(format!("m{i}.nesl"));
            std::fs::write(&path, src).unwrap();
            let config =
                BatchConfig { faults: faults.clone(), retry: retry.clone(), ..Default::default() };
            let report = run_batch(&[path], &config);
            let batch = &report.rows[0];
            injected |= batch.retries > 0 || batch.verdict == Verdict::InternalError;

            let resp = server.roundtrip(&format!(
                "{{\"op\":\"check\",\"source\":\"{}\"}}",
                circ_batch::json_escape(src)
            ));
            let Some(Value::Arr(rows)) = resp.get("rows") else { panic!("no rows in {resp:?}") };
            let field = |key| rows[0].get(key).and_then(Value::as_str).unwrap_or_default();
            assert_eq!(
                (field("verdict"), field("detail"), field("stage")),
                (batch.verdict.name(), batch.detail.as_str(), batch.stage.as_str()),
                "seed {seed}, source {i}: serve row differs from the batch row"
            );
            let stats = server.roundtrip("{\"op\":\"stats\"}");
            let retries = stats
                .get("stats")
                .and_then(|s| s.get("service"))
                .and_then(|s| s.get("totals"))
                .and_then(|t| t.get("retries"))
                .and_then(Value::as_u64)
                .expect("retries counter");
            assert_eq!(retries - served_retries, batch.retries, "seed {seed}, source {i}: retries");
            served_retries = retries;
        }
        assert_eq!(server.stop(), 3, "seed {seed}: drain must still exit 3");
    }
    assert!(injected, "no seed in 0..16 injected a fault; the comparison is vacuous");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A storage failure during the graceful drain's cache flush must not
/// change the exit code (3, "drained") and must not cost any client a
/// response — responses are written before the flush, and a failed
/// flush degrades to a logged no-persist. Exercised at both flush
/// crash points the drain can hit: the advisory lock and the artifact
/// writes (sticky disk-full).
#[test]
fn drain_flush_failure_keeps_exit_code_and_drops_no_responses() {
    use circ_governor::IoFaultPoint;
    // (armed point, occurrence): the startup sweep takes the lock
    // once (event 0), so the drain flush's lock is event 1; no write
    // happens before the drain flush, so `NoSpace` fires from its
    // first write event onward.
    let cases = [(IoFaultPoint::NoSpace, 0, "enospc"), (IoFaultPoint::LockAcquire, 1, "lock")];
    for (point, nth, tag) in cases {
        let cache_dir = std::env::temp_dir()
            .join(format!("circ-serve-drainflush-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        std::fs::create_dir_all(&cache_dir).unwrap();
        let config = ServeConfig {
            cache_dir: Some(cache_dir.clone()),
            faults: FaultPlan::seeded(17).with_io_fault(point, nth),
            ..ServeConfig::default()
        };
        let server = Server::start(config, &format!("drainflush-{tag}"));

        // A completed request before the drain...
        let resp = server.roundtrip(&format!(
            "{{\"op\":\"check\",\"source\":\"{}\"}}",
            circ_batch::json_escape(SAFE_READER)
        ));
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{tag}: {resp:?}");
        assert_eq!(sole_verdict(&resp), "safe", "{tag}");

        // ...and one in flight when the cancel lands. The drain must
        // answer it — completed, degraded to a cancelled row if the
        // cancel reached the running check, or shed with a
        // `shutting-down` error if the cancel won the admission race —
        // but never leave the client hanging on a dead socket.
        let socket = server.socket.clone();
        let inflight = std::thread::spawn(move || {
            let mut conn = UnixStream::connect(&socket).expect("connect");
            writeln!(conn, "{{\"op\":\"check\",\"source\":\"{}\"}}", circ_batch::json_escape(RACY))
                .expect("write request");
            let mut line = String::new();
            BufReader::new(conn).read_line(&mut line).expect("read response");
            line
        });
        // Wait until the server has *parsed* the in-flight request
        // (it counts into `requests` before admission), so the drain
        // owes it a response. Each stats poll is itself a request:
        // after `polls` polls the counter reads 1 (the earlier
        // check) + polls + 1 once the in-flight line is in.
        let mut polls = 0u64;
        loop {
            polls += 1;
            let stats = server.roundtrip("{\"op\":\"stats\"}");
            let requests = stats
                .get("stats")
                .and_then(|s| s.get("service"))
                .and_then(|s| s.get("requests"))
                .and_then(Value::as_u64)
                .expect("requests counter");
            if requests >= polls + 2 {
                break;
            }
            assert!(polls < 2000, "{tag}: in-flight request never reached the server");
            std::thread::sleep(Duration::from_millis(2));
        }
        let exit = server.stop();
        assert_eq!(exit, 3, "{tag}: a failed drain flush must not change the exit code");
        let line = inflight.join().expect("in-flight request thread");
        let resp =
            mjson::parse(line.trim()).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"));
        if resp.get("ok") == Some(&Value::Bool(true)) {
            let verdict = sole_verdict(&resp);
            if verdict != "race" {
                // The documented drain degrade: the check stopped at
                // its next budget poll as a cancelled
                // `budget-exhausted` row. Anything else is a flip.
                assert_eq!(verdict, "budget-exhausted", "{tag}: in-flight verdict flipped");
                let Some(Value::Arr(rows)) = resp.get("rows") else { unreachable!() };
                let detail = rows[0].get("detail").and_then(Value::as_str).unwrap_or_default();
                assert!(detail.ends_with("Cancelled"), "{tag}: not a cancelled row: {resp:?}");
            }
        } else {
            let err = resp.get("error").and_then(Value::as_str).unwrap_or_default();
            assert_eq!(err, "shutting-down", "{tag}: unexpected error shape {resp:?}");
        }

        // The failed flush persisted nothing — and in particular left
        // no torn artifact for the next process to trip over.
        assert!(
            !cache_dir.join("abs.cache").exists(),
            "{tag}: a failed flush must not leave a (possibly torn) artifact"
        );
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
}
