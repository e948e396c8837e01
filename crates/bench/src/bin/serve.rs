//! Daemon-vs-spawn differential: checks the `examples/` corpus N
//! times as N×files separate `circ check` process spawns (every one a
//! cold start) and as N requests against one resident `circ serve`
//! daemon (whose master caches stay warm across requests), and
//! appends one `{"bench":"serve",...}` JSON line to `BENCH_batch.json`
//! with both wall times and entailment-cache miss counts.
//!
//! ```text
//! cargo run --release -p circ-bench --bin serve [-- --passes N]
//! ```
//!
//! The process exits 1 unless the daemon route is *strictly* cheaper
//! on re-checks — less total wall time and fewer entailment-cache
//! misses than the spawn route — and every daemon verdict agrees with
//! the spawned checker's exit code. Needs the `circ` binary next to
//! this one (`cargo build --release -p circ-cli`) or named by the
//! `CIRC_BIN` environment variable.

#[cfg(unix)]
fn main() {
    unix::main()
}

#[cfg(not(unix))]
fn main() {
    eprintln!("the serve bench drives a unix-domain socket; this platform has none");
}

#[cfg(unix)]
mod unix {
    use circ_batch::mjson::{self, Value};
    use circ_stats::PipelineStats;
    use std::io::{BufRead, BufReader, Write as _};
    use std::os::unix::net::UnixStream;
    use std::path::PathBuf;
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    fn circ_bin() -> PathBuf {
        if let Ok(p) = std::env::var("CIRC_BIN") {
            return PathBuf::from(p);
        }
        let exe = std::env::current_exe().expect("current exe");
        let sibling = exe.parent().expect("exe dir").join("circ");
        if sibling.exists() {
            return sibling;
        }
        eprintln!(
            "cannot find the `circ` binary next to this one \
             (build circ-cli in the same profile, or set CIRC_BIN)"
        );
        std::process::exit(74);
    }

    /// One request → one response on a fresh connection.
    fn roundtrip(socket: &std::path::Path, request: &str) -> Value {
        let mut conn = UnixStream::connect(socket).expect("connect to daemon");
        writeln!(conn, "{request}").expect("send request");
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).expect("read response");
        mjson::parse(line.trim()).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
    }

    pub fn main() {
        let mut passes = 3usize;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--passes" => match it.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n >= 2 => passes = n,
                    _ => {
                        eprintln!("--passes expects a number >= 2 (usage: serve [--passes N])");
                        std::process::exit(64);
                    }
                },
                other => {
                    eprintln!("unknown flag `{other}` (usage: serve [--passes N])");
                    std::process::exit(64);
                }
            }
        }

        let bin = circ_bin();
        let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
        let inputs = circ_batch::collect_inputs(&examples).expect("examples corpus");

        // ---- spawn route: passes × files cold processes ---------------
        // Every spawn starts with empty caches, so its `--json` stats
        // line reports the full cold miss count each time.
        let mut spawn_verdicts: Vec<(String, &'static str)> = Vec::new();
        let mut spawn_misses = 0u64;
        let t0 = Instant::now();
        for pass in 0..passes {
            for input in &inputs {
                let out = Command::new(&bin)
                    .args(["check", input.to_str().expect("utf-8 path"), "--json"])
                    .output()
                    .expect("spawn circ check");
                let code = out.status.code().unwrap_or(-1);
                let verdict = match code {
                    0 => "safe",
                    1 => "race",
                    other => {
                        eprintln!(
                            "FAIL: `circ check {}` exited {other}: {}",
                            input.display(),
                            String::from_utf8_lossy(&out.stderr)
                        );
                        std::process::exit(1);
                    }
                };
                if pass == 0 {
                    spawn_verdicts.push((input.display().to_string(), verdict));
                }
                for line in String::from_utf8_lossy(&out.stdout).lines() {
                    if let Ok(p) =
                        mjson::parse(line.trim()).and_then(|v| PipelineStats::from_json(&v))
                    {
                        spawn_misses += p.abs.cache_misses;
                    }
                }
            }
        }
        let spawn_time = t0.elapsed().as_secs_f64();

        // ---- daemon route: one resident server, passes requests -------
        let socket =
            std::env::temp_dir().join(format!("circ-bench-serve-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let mut daemon = Command::new(&bin)
            .args(["serve", "--socket", socket.to_str().expect("utf-8 socket path")])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn circ serve");
        let deadline = Instant::now() + Duration::from_secs(30);
        while UnixStream::connect(&socket).is_err() {
            if Instant::now() >= deadline {
                let _ = daemon.kill();
                eprintln!("FAIL: daemon never came up on {}", socket.display());
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let request = format!(
            "{{\"op\":\"check\",\"path\":\"{}\"}}",
            circ_batch::json_escape(examples.to_str().expect("utf-8 examples path"))
        );
        let t1 = Instant::now();
        let mut daemon_verdicts: Vec<(String, String)> = Vec::new();
        for pass in 0..passes {
            let response = roundtrip(&socket, &request);
            let Some(Value::Arr(rows)) = response.get("rows") else {
                eprintln!("FAIL: daemon response has no rows: {response:?}");
                std::process::exit(1);
            };
            let verdicts: Vec<(String, String)> = rows
                .iter()
                .map(|r| {
                    (
                        r.get("file").and_then(Value::as_str).expect("file").to_string(),
                        r.get("verdict").and_then(Value::as_str).expect("verdict").to_string(),
                    )
                })
                .collect();
            if pass == 0 {
                daemon_verdicts = verdicts;
            } else if daemon_verdicts != verdicts {
                eprintln!("FAIL: daemon verdicts changed between passes");
                std::process::exit(1);
            }
        }
        let daemon_time = t1.elapsed().as_secs_f64();
        let stats = roundtrip(&socket, "{\"op\":\"stats\"}");
        let daemon_misses = stats
            .get("stats")
            .and_then(|s| s.get("service"))
            .and_then(|s| s.get("totals"))
            .and_then(|t| t.get("pipeline"))
            .and_then(|p| PipelineStats::from_json(p).ok())
            .expect("pipeline counters in stats payload")
            .abs
            .cache_misses;
        let term = Command::new("kill").args(["-TERM", &daemon.id().to_string()]).status().unwrap();
        assert!(term.success());
        let status = daemon.wait().expect("daemon exit");
        if status.code() != Some(3) {
            eprintln!("FAIL: daemon drain exited {:?}, want 3", status.code());
            std::process::exit(1);
        }

        // The two routes must agree on every verdict.
        let verdicts_match = spawn_verdicts.len() == daemon_verdicts.len()
            && spawn_verdicts
                .iter()
                .zip(&daemon_verdicts)
                .all(|((sf, sv), (df, dv))| sf == df && sv == dv);

        let daemon_cheaper = daemon_time < spawn_time && daemon_misses < spawn_misses;
        let line = format!(
            "{{\"bench\":\"serve\",\"files\":{},\"passes\":{passes},\
             \"spawn_time_s\":{spawn_time:.4},\"daemon_time_s\":{daemon_time:.4},\
             \"spawn_abs_misses\":{spawn_misses},\"daemon_abs_misses\":{daemon_misses},\
             \"verdicts_match\":{verdicts_match},\"daemon_cheaper\":{daemon_cheaper}}}",
            inputs.len(),
        );
        let out_path = "BENCH_batch.json";
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_path)
            .expect("open BENCH_batch.json");
        writeln!(f, "{line}").expect("append BENCH_batch.json");
        println!("{line}");
        println!("appended to {out_path}");

        if !verdicts_match {
            eprintln!(
                "FAIL: daemon verdicts differ from spawned checks: \
                 {daemon_verdicts:?} vs {spawn_verdicts:?}"
            );
            std::process::exit(1);
        }
        if !daemon_cheaper {
            eprintln!(
                "FAIL: daemon must be strictly cheaper on re-checks — \
                 time {daemon_time:.4}s vs {spawn_time:.4}s, \
                 misses {daemon_misses} vs {spawn_misses}"
            );
            std::process::exit(1);
        }
    }
}
