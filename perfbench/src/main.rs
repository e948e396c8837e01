//! Seeded benchmark of the CIRC race checker.
//!
//! ```text
//! circ-perfbench --workload <ring-cold|ring-jobs2|corpus-warm|serve-open>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload generates its inputs from the seed, sets up several
//! times (reporting the median set-up time), measures for the given
//! number of seconds, and checks every verdict against a known answer.
//! End-to-end times are in reference seconds (see [`calib`]).
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
//! it alternates untraced and traced passes, reports the per-layer
//! metrics, and writes the spans as JSON lines under `.perfbench_work/`.
//! The last line of stdout is one JSON object; the exit code is 1 on a
//! verdict flip, 2 on a usage or set-up error.

mod calib;
mod corpus;
mod gen;
mod layers;
mod measure;
mod ring;
mod serve;
mod trace;
mod truth;

use calib::Calibrator;
use measure::{mean, median, peak_rss_mb, percentile, Metric, Report, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// An untraced run sets up at least `SETUP_REPEATS` times and for at
/// least `SETUP_MIN_S` seconds, so a short set-up is sampled across more
/// of the machine's drift; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;
const SETUP_MIN_S: f64 = 5.0;

/// Where runs keep their scratch files and span logs, relative to the
/// directory the benchmark runs from.
pub const WORK_DIR: &str = ".perfbench_work";

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload measured with tracing off; every time is in
/// reference seconds.
pub struct EndToEnd {
    pub setup: Vec<f64>,
    /// Per program, from handing it in until its verdict came back.
    pub verdict_s: Vec<f64>,
    /// Per request, from when it was due until its response.
    pub req_s: Vec<f64>,
    /// Latency samples per block (`usize::MAX`: one block); each
    /// statistic is the median of the blocks' statistics, so a burst
    /// of interference spoils one block rather than the run.
    pub block: usize,
    /// The measured phase in units of work (ring rounds, batch calls,
    /// serve rotations); throughput and CPU are medians over
    /// units, so a burst of interference on a shared machine shifts one
    /// unit rather than the run.
    pub units: Vec<Unit>,
    /// The machine's speed relative to the reference, per calibration.
    pub speed: Vec<f64>,
}

pub struct Unit {
    pub checks: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub struct Outcome {
    pub tally: Tally,
    pub e2e: Option<EndToEnd>,
    pub layers: Option<Vec<Metric>>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = num()?,
            "--seconds" => opts.seconds = num()?.max(1),
            "--trace" => opts.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// Compiles a generated input to its (single) race-variable program.
pub fn compile_program(input: &gen::Input) -> Result<circ_ir::MtProgram, String> {
    let compiled =
        circ_frontend::compile(&input.text).map_err(|e| format!("{}: {e}", input.name))?;
    let var = *compiled.race_vars.first().ok_or(format!("{}: no #race", input.name))?;
    Ok(circ_ir::MtProgram::new(compiled.cfa, var))
}

/// Sets up with `make(k)` for k = 0, 1, ... — once when traced, else at
/// least `SETUP_REPEATS` times and for `SETUP_MIN_S` — handing each
/// set-up but the last to `discard` before making the next. Returns the
/// last set-up and every set-up's time in reference seconds.
pub fn set_up<P>(
    opts: &Opts,
    mut make: impl FnMut(usize) -> Result<P, String>,
    mut discard: impl FnMut(P) -> Result<(), String>,
) -> Result<(P, Vec<f64>), String> {
    let mut cal = Calibrator::new();
    let mut times = Vec::new();
    let mut spent_s = 0.0;
    loop {
        let (made, wall_s, scale) = cal.time(|| make(times.len()));
        let prepared = made?;
        times.push(wall_s * scale);
        spent_s += wall_s;
        if opts.trace || (times.len() >= SETUP_REPEATS && spent_s >= SETUP_MIN_S) {
            return Ok((prepared, times));
        }
        discard(prepared)?;
    }
}

/// A fresh scratch directory for this process.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(WORK_DIR).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn end_to_end(e: &EndToEnd, tally: &Tally) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    let per_unit = |f: &dyn Fn(&Unit) -> f64| median(&e.units.iter().map(f).collect::<Vec<_>>());
    let per_block = |samples: &[f64], f: &dyn Fn(&[f64]) -> f64| {
        median(&samples.chunks(e.block.max(1)).map(f).collect::<Vec<_>>())
    };
    let p90 = |c: &[f64]| percentile(c, 0.9);
    vec![
        m("setup_s", median(&e.setup), "s"),
        m("verdict_mean_s", per_block(&e.verdict_s, &mean), "s"),
        m("verdict_p90_s", per_block(&e.verdict_s, &p90), "s"),
        m("checks_per_s", per_unit(&|u| u.checks as f64 / u.wall_s), "1/s"),
        m("cpu_s_per_check", per_unit(&|u| u.cpu_s / u.checks.max(1) as f64), "s"),
        m("req_mean_s", per_block(&e.req_s, &mean), "s"),
        m("req_p90_s", per_block(&e.req_s, &p90), "s"),
        m("decided_ratio", tally.decided_ratio(), "ratio"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(opts.trace);
    let result = match opts.workload.as_str() {
        "ring-cold" => ring::run(&opts, 1, &mut tracer),
        "ring-jobs2" => ring::run(&opts, 2, &mut tracer),
        "corpus-warm" => corpus::run(&opts, &mut tracer),
        "serve-open" => serve::run(&opts, &mut tracer),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spans =
        PathBuf::from(WORK_DIR).join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
    if let Err(e) = tracer.write(&spans) {
        eprintln!("perfbench: cannot write {}: {e}", spans.display());
    }
    let tally = outcome.tally;
    for e in &tally.errors {
        eprintln!("perfbench: {e}");
    }
    if let Some(e) = &outcome.e2e {
        eprintln!(
            "  machine speed {:.2}-{:.2} of the reference (median {:.2})",
            percentile(&e.speed, 0.0),
            percentile(&e.speed, 1.0),
            median(&e.speed)
        );
    }
    let metrics = match (&outcome.e2e, outcome.layers) {
        (Some(e), _) => end_to_end(e, &tally),
        (None, Some(layers)) => layers,
        (None, None) => Vec::new(),
    };
    for m in &metrics {
        eprintln!("  {:<26} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let report = Report {
        correct: tally.errors.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
