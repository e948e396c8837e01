//! `serve-open`: an open loop of inline-source check requests against
//! an in-process `circ_serve::serve` on a unix socket.
//!
//! One generator thread sends each request when it is due, alternating
//! over two connections; one reader per connection takes the replies.
//! Latency counts from when a request was due, so a stall also charges
//! the requests queued behind it.

use crate::calib::{self, Calibrator};
use crate::gen::{small_pool, Expect, Input, Rng};
use crate::layers::{median_over, per_layer, Layers};
use crate::measure::{counters, median, percentile, process_cpu_s, Class, Tally};
use crate::trace::Tracer;
use crate::{set_up, EndToEnd, Opts, Outcome, Unit};
use circ_batch::mjson::{self, Value};
use circ_batch::{json_escape, load_caches, run_batch, BatchConfig, FileRow, Verdict};
use circ_core::{circ, AbsCache, AbsCtx, Budget, CircConfig, PredSet, SolverPersist};
use circ_governor::CancelToken;
use circ_serve::{serve, BindTo, ServeConfig, ServeError};
use circ_stats::PipelineStats;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One check slot for two connections: the daemon checks one request
/// at a time per connection, so with two slots no request would ever
/// wait for admission. With one, a request sent while the other
/// connection's request is in service waits in the admission queue
/// (never shed: at most one waits, well inside the default queue depth).
const MAX_INFLIGHT: usize = 1;
const CONNECTIONS: usize = 2;
/// The nominal offered load, requests per reference second: half the
/// one-slot daemon's capacity as measured on the code this benchmark was
/// written against (`serve.capacity_rps` 72, 84, 85, 89 and 80 replies
/// per reference second on seeds 1-5, median 84). At half load the slot
/// is busy half the time: requests sent while a slow check holds it
/// wait for admission, which shows in the latency tail, while the
/// backlog stays short enough for the 90th percentile to be steady. The
/// rate is fixed rather than derived from each run's capacity, so a
/// faster daemon shows as lower latency at the same load.
const NOMINAL_RPS: f64 = 42.0;
/// Bursts of requests sent at once to measure the daemon's capacity
/// (traced runs only); `serve.capacity_rps` is the median of their
/// reply rates.
const BURSTS: usize = 3;
const BURST: usize = 150;
/// Rotations through the pool per latency block: each block holds the
/// same mix of texts, and 4 x 30 requests leave 12 beyond each block's
/// 90th percentile.
const BLOCK_ROTATIONS: usize = 4;

struct Daemon {
    cancel: CancelToken,
    handle: JoinHandle<Result<u8, ServeError>>,
    socket: PathBuf,
}

impl Daemon {
    fn stop(self) -> Result<(), String> {
        self.cancel.cancel();
        match self.handle.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("serve failed: {e}")),
            Err(_) => Err("serve thread panicked".into()),
        }
    }
}

struct Prepared {
    dir: PathBuf,
    inputs: Vec<Input>,
    /// Request line of each input, minus the leading `{"op":"check","id":N,`.
    bodies: Vec<String>,
    daemon: Daemon,
}

/// Writes the pool, warms a cache directory with one batch over it,
/// and starts the daemon on that directory; set-up ends when the
/// daemon answers a health probe.
fn setup(seed: u64, k: usize) -> Result<Prepared, String> {
    let dir = crate::scratch_dir(&format!("serve{k}"))?;
    let mut rng = Rng::new(seed);
    let mut inputs = small_pool(&mut rng);
    // The seed picks the copies' renaming and layout, not the rotation
    // order: originals by name, then their copies. Which request queues
    // behind which sets the latency tail, and with a seeded order
    // `req_p90_s` moved with the seed (spread 0.12-0.17 over ten seeds,
    // about 0.06 over five runs of one seed).
    inputs.sort_by(|a, b| {
        (a.name.ends_with("_copy"), &a.name).cmp(&(b.name.ends_with("_copy"), &b.name))
    });
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).map_err(|e| format!("{}: {e}", corpus.display()))?;
    let mut files = Vec::new();
    let mut bodies = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        if input.expect == Expect::Race {
            let program = crate::compile_program(input)?;
            crate::truth::confirm_race(&program).map_err(|e| format!("{}: {e}", input.name))?;
        }
        let path = corpus.join(format!("{i:02}_{}.nesl", input.name));
        std::fs::write(&path, &input.text).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(path);
        bodies.push(format!(
            "\"name\":\"{}\",\"source\":\"{}\"}}\n",
            json_escape(&input.name),
            json_escape(&input.text)
        ));
    }
    let cache_dir = dir.join("cache");
    run_batch(
        &files,
        &BatchConfig { cache_dir: Some(cache_dir.clone()), ..BatchConfig::default() },
    );
    let cancel = CancelToken::new();
    // A relative socket path keeps clear of the unix socket path limit.
    let socket = dir.join("s.sock");
    let config = ServeConfig {
        bind: BindTo::Socket(socket.clone()),
        jobs: 1,
        max_inflight: MAX_INFLIGHT,
        cache_dir: Some(cache_dir),
        cancel: cancel.clone(),
        ..ServeConfig::default()
    };
    let handle = std::thread::spawn(move || serve(config));
    let daemon = Daemon { cancel, handle, socket };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !healthy(&daemon.socket) {
        if Instant::now() > deadline || daemon.handle.is_finished() {
            let _ = daemon.stop();
            return Err("serve did not come up".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Prepared { dir, inputs, bodies, daemon })
}

fn healthy(socket: &PathBuf) -> bool {
    let Ok(mut s) = UnixStream::connect(socket) else { return false };
    let mut line = String::new();
    s.write_all(b"{\"op\":\"health\"}\n").is_ok()
        && BufReader::new(s).read_line(&mut line).is_ok()
        && line.contains("\"ok\":true")
}

/// One answered request.
struct Reply {
    input: usize,
    due: Instant,
    sent: Instant,
    recv: Instant,
    /// Server-side service time (admission to response).
    service_s: f64,
    row: Option<FileRow>,
    shed: bool,
}

fn parse_reply(line: &str) -> Result<(u64, Option<FileRow>, f64, bool), String> {
    let v = mjson::parse(line.trim())?;
    let id = v.get("id").and_then(Value::as_u64).ok_or("reply without id")?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Ok((id, None, 0.0, v.get("error").and_then(Value::as_str) == Some("overloaded")));
    }
    let service_s = v.get("time_s").and_then(Value::as_f64).unwrap_or(0.0);
    let Some(Value::Arr(rows)) = v.get("rows") else { return Err("reply without rows".into()) };
    let row = rows.first().ok_or("reply with no row")?;
    let verdict = row.get("verdict").and_then(Value::as_str).and_then(Verdict::from_name);
    let mut r = FileRow::new(String::new(), verdict.ok_or("bad verdict")?, String::new());
    r.detail = row.get("detail").and_then(Value::as_str).unwrap_or("").to_string();
    r.time_s = row.get("time_s").and_then(Value::as_f64).unwrap_or(0.0);
    r.pipeline =
        circ_batch::journal::pipeline_from_json(row.get("pipeline").ok_or("no pipeline")?)?;
    Ok((id, Some(r), service_s, false))
}

/// Sends `count` requests at `rate` from the rotation through the pool
/// starting at `first`, and waits for every reply.
fn open_loop(p: &Prepared, first: usize, count: usize, rate: f64) -> Result<Vec<Reply>, String> {
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        let s = UnixStream::connect(&p.daemon.socket).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        conns.push(s);
    }
    let start = Instant::now() + Duration::from_millis(2);
    let due: Vec<Instant> =
        (0..count).map(|i| start + Duration::from_secs_f64(i as f64 / rate)).collect();
    let mut sent = vec![start; count];
    let replies = std::thread::scope(|scope| -> Result<Vec<(Instant, String)>, String> {
        let readers: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let expected = (c..count).step_by(CONNECTIONS).count();
                let stream = conn.try_clone();
                scope.spawn(move || -> Result<Vec<(Instant, String)>, String> {
                    let mut reader = BufReader::new(stream.map_err(|e| e.to_string())?);
                    let mut got = Vec::with_capacity(expected);
                    for _ in 0..expected {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(0) => return Err("server closed the connection".into()),
                            Ok(_) => got.push((Instant::now(), line)),
                            Err(e) => return Err(format!("read: {e}")),
                        }
                    }
                    Ok(got)
                })
            })
            .collect();
        for i in 0..count {
            let now = Instant::now();
            if due[i] > now {
                std::thread::sleep(due[i] - now);
            }
            let body = &p.bodies[(first + i) % p.bodies.len()];
            let line = format!("{{\"op\":\"check\",\"id\":{i},{body}");
            sent[i] = Instant::now();
            (&conns[i % CONNECTIONS])
                .write_all(line.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
        }
        let mut all = Vec::with_capacity(count);
        for r in readers {
            all.extend(r.join().map_err(|_| "reader panicked".to_string())??);
        }
        Ok(all)
    })?;
    let mut out = Vec::with_capacity(count);
    for (recv, line) in replies {
        let (id, row, service_s, shed) = parse_reply(&line)?;
        let i = usize::try_from(id).ok().filter(|&i| i < count).ok_or("reply id out of range")?;
        out.push(Reply {
            input: (first + i) % p.bodies.len(),
            due: due[i],
            sent: sent[i],
            recv,
            service_s,
            row,
            shed,
        });
    }
    out.sort_by_key(|r| r.due);
    Ok(out)
}

fn record(p: &Prepared, reference: &[Class], replies: &[Reply], tally: &mut Tally) {
    for r in replies {
        let input = &p.inputs[r.input];
        let class = r.row.as_ref().map_or(Class::Failed, Class::of_row);
        tally.record(&input.name, input.expect, class, Some(reference[r.input]));
    }
}

fn latency(r: &Reply) -> f64 {
    r.recv.saturating_duration_since(r.due).as_secs_f64()
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (p, setups) = set_up(opts, |k| setup(opts.seed, k), shutdown)?;
    let reference: Result<Vec<Class>, String> = p
        .inputs
        .iter()
        .map(|i| {
            crate::compile_program(i).map(|prog| Class::of_circ(&circ(&prog, &CircConfig::omega())))
        })
        .collect();
    let result = match reference {
        Ok(reference) if opts.trace => traced(&p, &reference, opts.seconds, tracer),
        Ok(reference) => measured(&p, &reference, setups, opts.seconds),
        Err(e) => Err(e),
    };
    shutdown(p)?;
    result
}

fn shutdown(p: Prepared) -> Result<(), String> {
    let stopped = p.daemon.stop();
    let _ = std::fs::remove_dir_all(&p.dir);
    stopped
}

/// The nominal phase: as many whole blocks of `BLOCK_ROTATIONS`
/// rotations through the pool as `NOMINAL_RPS` fills in `seconds`
/// reference seconds (at least one). Each rotation is its own open loop
/// between two calibration samples, offered `NOMINAL_RPS` per reference
/// second at the speed measured just before it, so the daemon sees the
/// same load however fast the machine runs; the daemon drains between
/// rotations.
fn measured(
    p: &Prepared,
    reference: &[Class],
    setup: Vec<f64>,
    seconds: u64,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let rotation = p.bodies.len();
    let block = BLOCK_ROTATIONS * rotation;
    let blocks = (NOMINAL_RPS * seconds as f64 / block as f64).floor().max(1.0) as usize;
    let (mut verdict_s, mut req_s, mut units, mut speed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut cal = Calibrator::new();
    for k in 0..blocks * BLOCK_ROTATIONS {
        let rate = NOMINAL_RPS * cal.speed();
        speed.push(cal.speed());
        let (replies, wall_s, scale) = cal.time(|| {
            let cpu0 = process_cpu_s();
            open_loop(p, k * rotation, rotation, rate).map(|r| (r, process_cpu_s() - cpu0))
        });
        let (replies, cpu_s) = replies?;
        record(p, reference, &replies, &mut tally);
        verdict_s.extend(replies.iter().map(|r| (r.recv - r.sent).as_secs_f64() * scale));
        req_s.extend(replies.iter().map(|r| latency(r) * scale));
        units.push(Unit {
            checks: replies.len() as u64,
            wall_s: wall_s * scale,
            cpu_s: cpu_s * scale,
        });
    }
    Ok(Outcome {
        tally,
        e2e: Some(EndToEnd { setup, verdict_s, req_s, block, units, speed }),
        layers: None,
    })
}

/// The daemon's capacity in replies per reference second: every
/// request of a burst is due at once, so both connections stay busy,
/// and the reply rate is the highest arrival rate the daemon can absorb
/// without a growing backlog. Returns the median over the bursts.
fn capacity(p: &Prepared, reference: &[Class], tally: &mut Tally) -> Result<f64, String> {
    let mut rates = Vec::with_capacity(BURSTS);
    let mut cal = Calibrator::new();
    for b in 0..BURSTS {
        let (burst, _, scale) = cal.time(|| open_loop(p, b * BURST, BURST, f64::INFINITY));
        let burst = burst?;
        record(p, reference, &burst, tally);
        let first = burst.iter().map(|r| r.sent).min().expect("a non-empty burst");
        let last = burst.iter().map(|r| r.recv).max().expect("a non-empty burst");
        rates.push(burst.len() as f64 / ((last - first).as_secs_f64() * scale));
    }
    Ok(median(&rates))
}

/// One block of requests at the nominal rate, optionally traced.
fn pass(
    p: &Prepared,
    reference: &[Class],
    tracer: &mut Tracer,
    tally: &mut Tally,
    count: usize,
    id0: u64,
) -> Result<Layers, String> {
    let mut l = Layers { width: MAX_INFLIGHT as f64, speed: calib::speed(), ..Layers::default() };
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let replies = open_loop(p, 0, count, NOMINAL_RPS * l.speed)?;
    l.wall_s = start.elapsed().as_secs_f64();
    l.cpu_s = process_cpu_s() - cpu0;
    record(p, reference, &replies, tally);
    for (k, r) in replies.iter().enumerate() {
        let id = id0 + k as u64;
        tracer.record(id, "serve.request", r.due, r.recv);
        tracer.fields(&[("service_s", r.service_s), ("sent_s", (r.sent - r.due).as_secs_f64())]);
        l.shed += u64::from(r.shed);
        l.gen_lag_s.push(r.sent.saturating_duration_since(r.due).as_secs_f64());
        l.queue_wait_s.push((r.recv - r.sent).as_secs_f64() - r.service_s);
        l.service_s.push(r.service_s);
        if let Some(row) = &r.row {
            l.pipeline.add(&row.pipeline);
            l.engine_wall_s += row.time_s;
            if row.detail.contains("Stuck(") || row.detail.contains("RefineFailed(") {
                l.refine_stuck += 1;
            }
        }
    }
    if tracer.enabled() {
        let cache_dir = p.dir.join("cache");
        let persist = SolverPersist::with_seed(load_caches(&cache_dir).solver_seed);
        for (k, r) in replies.iter().enumerate() {
            let id = id0 + k as u64;
            let text = &p.inputs[r.input].text;
            let (compiled, d) = tracer.span(id, "compile", || circ_frontend::compile(text));
            l.compile_s += d.as_secs_f64();
            let Ok(compiled) = compiled else { continue };
            l.cfa_locs += compiled.cfa.num_locs() as u64;
            let rounds = r.row.as_ref().map_or(0, |row| row.pipeline.outer_rounds);
            let cfa = std::sync::Arc::new(compiled.cfa);
            let (_, d) = tracer.span(id, "AbsCtx::with_parts", || {
                drop(AbsCtx::with_parts(
                    cfa,
                    PredSet::new(),
                    AbsCache::new(),
                    Budget::unlimited(),
                    &persist,
                ))
            });
            l.preload_s += d.as_secs_f64() * rounds as f64;
        }
    }
    Ok(l)
}

/// The counters that repeat when the same requests are sent again:
/// all but `refine_rounds_saved`, which compares against what the
/// daemon's in-memory predicate store last recorded, and every pass
/// rewrites that store.
fn repeatable(p: &PipelineStats) -> Vec<u64> {
    let mut p = p.clone();
    p.refine_rounds_saved = 0;
    counters(&p)
}

fn traced(
    p: &Prepared,
    reference: &[Class],
    seconds: u64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let capacity_rps = capacity(p, reference, &mut tally)?;
    // Requests per traced pass: two and a bit rotations through the pool.
    let count = 72;
    let mut passes = Vec::new();
    let mut equal = true;
    let start = Instant::now();
    let mut id0 = 0;
    while passes.is_empty() || start.elapsed() < Duration::from_secs(seconds) {
        let plain = pass(p, reference, &mut Tracer::new(false), &mut tally, count, id0)?;
        let before = tracer.len();
        let mut l = pass(p, reference, tracer, &mut tally, count, id0)?;
        id0 += count as u64;
        equal &= repeatable(&l.pipeline) == repeatable(&plain.pipeline);
        l.overhead_s = percentile(&l.service_s, 0.5) - percentile(&plain.service_s, 0.5);
        l.spans = (tracer.len() - before) as u64;
        l.capacity_rps = capacity_rps;
        passes.push(per_layer(&l));
    }
    if !equal {
        tally.errors.push("traced counters differ from the untraced pass".into());
    }
    Ok(Outcome { tally, e2e: None, layers: Some(median_over(&passes)) })
}
