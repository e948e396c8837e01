//! Counters, cache statistics, and phase timings for the CIRC
//! pipeline.
//!
//! Henzinger–Jhala–Majumdar report that CIRC's cost is dominated by
//! theorem-prover calls during predicate abstraction; this crate is
//! the measurement substrate that lets the rest of the workspace see
//! that cost. Every layer keeps its own counters — plain structs for
//! the single-owner layers, atomics inside the sharded caches that
//! worker threads share under `--jobs N` — and
//! `circ-core` assembles them into one [`PipelineStats`] per run,
//! renderable as a human table ([`PipelineStats::render_table`]) or a
//! single JSON line ([`PipelineStats::to_json`]) for `--json` output,
//! batch journals and the serve protocol. One table declares every counter once; the human table,
//! the JSON line, the decoder and the accumulator are derived from it.
//! [`json`] is the workspace's one JSON codec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::time::Duration;

/// Counters of the DPLL(T) solver layer (`circ_smt::Solver`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Top-level satisfiability queries issued.
    pub queries: u64,
    /// Queries answered from the NNF-keyed result cache.
    pub cache_hits: u64,
    /// Queries that ran the DPLL(T) loop.
    pub cache_misses: u64,
    /// Theory-check rounds across all queries.
    pub theory_rounds: u64,
}

impl SolverCounters {
    /// Adds another snapshot into this one.
    pub fn add(&mut self, other: &SolverCounters) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.theory_rounds += other.theory_rounds;
    }

    /// Fraction of queries answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.cache_hits, self.cache_misses)
    }
}

/// Counters of the predicate-abstraction entailment cache
/// (`circ_core::AbsCache`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbsCounters {
    /// Cube/predicate entailment and cube-satisfiability queries.
    pub queries: u64,
    /// Queries answered from the canonicalized `(premises, atom)`
    /// cache.
    pub cache_hits: u64,
    /// Queries that fell through to the LIA decision procedure.
    pub cache_misses: u64,
}

impl AbsCounters {
    /// The counter delta `self − base` (used to report per-run
    /// activity of a cache shared across runs).
    pub fn since(&self, base: &AbsCounters) -> AbsCounters {
        AbsCounters {
            queries: self.queries - base.queries,
            cache_hits: self.cache_hits - base.cache_hits,
            cache_misses: self.cache_misses - base.cache_misses,
        }
    }

    /// Fraction of queries answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.cache_hits, self.cache_misses)
    }
}

/// Wall-clock time spent per pipeline phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// `ReachAndBuild` (abstract reachability + ARG construction).
    pub reach: Duration,
    /// `CheckSim` (the guarantee step).
    pub sim: Duration,
    /// `Collapse` (weak-bisimulation minimization).
    pub collapse: Duration,
    /// Counterexample refinement.
    pub refine: Duration,
    /// The ω-goodness check (ω-CIRC only).
    pub omega: Duration,
}

/// The assembled statistics of one CIRC run (or the sum of several).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// DPLL(T) solver counters, accumulated across every solver handle
    /// the run created.
    pub solver: SolverCounters,
    /// Abstraction-layer entailment-cache counters (per-run delta when
    /// the cache is shared across runs).
    pub abs: AbsCounters,
    /// Outer (refinement) rounds executed.
    pub outer_rounds: u64,
    /// `ReachAndBuild` invocations.
    pub reach_runs: u64,
    /// ARG nodes materialized across all reachability runs.
    pub arg_nodes: u64,
    /// `CheckSim` invocations.
    pub sim_checks: u64,
    /// `(location, candidate, edge)` triples examined across all
    /// simulation checks.
    pub sim_edge_pairs: u64,
    /// `Collapse` invocations.
    pub collapse_runs: u64,
    /// Partition-refinement iterations across all collapses.
    pub collapse_iterations: u64,
    /// Counterexample-refinement rounds.
    pub refine_rounds: u64,
    /// Times the counter parameter `k` was incremented.
    pub k_increments: u64,
    /// Predicates seeded from the persistent predicate store before
    /// the run started (0 on a cold run or with the store disabled).
    pub preds_seeded: u64,
    /// Refinement rounds the store seeding avoided: the recorded
    /// discovery cost of the seeded predicate set minus the rounds
    /// this run still had to spend (floored at zero).
    pub refine_rounds_saved: u64,
    /// Approximate bytes charged against the memory budget (ARG
    /// nodes plus solver formula-cache growth); tracked even when no
    /// ceiling is configured.
    pub mem_charged_bytes: u64,
    /// Budget polls across all governed phases.
    pub budget_polls: u64,
    /// Faults fired by the injection harness (always 0 outside
    /// `inject` builds).
    pub faults_injected: u64,
    /// Race variables the triage pipeline certified Safe at stage 0
    /// (flow check drew zero findings; no CIRC run happened).
    pub triage_stage0_decided: u64,
    /// Race variables the triage pipeline certified Unsafe at stage 1
    /// (a bounded random schedule produced a replayable race witness;
    /// no CIRC run happened).
    pub triage_stage1_decided: u64,
    /// Race variables neither cheap stage could decide, handed to the
    /// full CIRC engine. With triage off every variable counts here
    /// as 0 (the counters only move under `--triage`).
    pub triage_fallthrough: u64,
    /// Recovery actions the storage layer took while warm-starting:
    /// stale `*.tmp` staging files swept plus damaged artifacts
    /// (snapshots, predicate store) that degraded to a cold start.
    /// Driver-level, so invariant under `--jobs`.
    pub store_recoveries: u64,
    /// Flush attempts that failed and degraded to a logged no-persist
    /// (lock acquisition, snapshot writes, journal appends), leaving
    /// the previous on-disk state intact. Driver-level, so invariant
    /// under `--jobs`.
    pub flush_errors: u64,
    /// Per-phase wall-clock spans.
    pub phases: PhaseTimes,
}

/// How one entry of [`PIPELINE`] reads and writes its value.
#[derive(Clone, Copy)]
enum Cell {
    /// A counter: summed by `add`, an integer on the wire.
    Count(fn(&PipelineStats) -> u64, fn(&mut PipelineStats) -> &mut u64),
    /// A wall-clock span: summed by `add`, fractional seconds on the
    /// wire.
    Span(fn(&PipelineStats) -> Duration, fn(&mut PipelineStats) -> &mut Duration),
    /// A cache hit rate derived from its `(hits, misses)` pair:
    /// rendered, never summed or decoded.
    Rate(fn(&PipelineStats) -> (u64, u64)),
}

/// One pipeline counter or span: its stable JSON key, its label in the
/// human table (empty when another row shows it), and its cell.
struct Entry {
    key: &'static str,
    label: &'static str,
    cell: Cell,
}

/// A [`Cell::Count`] or [`Cell::Span`] entry for the field at `path`.
macro_rules! field {
    ($kind:ident, $key:literal, $label:literal, $($path:ident).+) => {
        Entry {
            key: $key,
            label: $label,
            cell: Cell::$kind(|p| p.$($path).+, |p| &mut p.$($path).+),
        }
    };
}

/// A [`Cell::Rate`] entry over the `cache_hits`/`cache_misses` pair of
/// the counter block `$block`.
macro_rules! rate {
    ($key:literal, $label:literal, $block:ident) => {
        Entry {
            key: $key,
            label: $label,
            cell: Cell::Rate(|p| (p.$block.cache_hits, p.$block.cache_misses)),
        }
    };
}

/// Every counter and span of [`PipelineStats`], in wire and table
/// order: `add`, `render_table`, `to_json` and `from_json` are all
/// derived from this one table. The keys are stable; `--json`
/// consumers, journals and the serve protocol rely on them.
const PIPELINE: [Entry; 33] = [
    field!(Count, "outer_rounds", "outer rounds", outer_rounds),
    field!(Count, "reach_runs", "reach runs", reach_runs),
    field!(Count, "arg_nodes", "ARG nodes", arg_nodes),
    field!(Count, "sim_checks", "sim checks", sim_checks),
    field!(Count, "sim_edge_pairs", "sim edge pairs", sim_edge_pairs),
    field!(Count, "collapse_runs", "collapse runs", collapse_runs),
    field!(Count, "collapse_iterations", "collapse iterations", collapse_iterations),
    field!(Count, "refine_rounds", "refine rounds", refine_rounds),
    field!(Count, "k_increments", "k increments", k_increments),
    field!(Count, "preds_seeded", "preds seeded", preds_seeded),
    field!(Count, "refine_rounds_saved", "refine rounds saved", refine_rounds_saved),
    field!(Count, "abs_queries", "abs entailment queries", abs.queries),
    field!(Count, "abs_cache_hits", "", abs.cache_hits),
    field!(Count, "abs_cache_misses", "", abs.cache_misses),
    rate!("abs_hit_rate", "abs cache hits/misses", abs),
    field!(Count, "solver_queries", "solver queries", solver.queries),
    field!(Count, "solver_cache_hits", "", solver.cache_hits),
    field!(Count, "solver_cache_misses", "", solver.cache_misses),
    rate!("solver_hit_rate", "solver cache hits/misses", solver),
    field!(Count, "theory_rounds", "solver theory rounds", solver.theory_rounds),
    field!(Count, "mem_charged_bytes", "mem charged (bytes)", mem_charged_bytes),
    field!(Count, "budget_polls", "budget polls", budget_polls),
    field!(Count, "faults_injected", "faults injected", faults_injected),
    field!(Count, "triage_stage0_decided", "triage stage-0 decided", triage_stage0_decided),
    field!(Count, "triage_stage1_decided", "triage stage-1 decided", triage_stage1_decided),
    field!(Count, "triage_fallthrough", "triage fallthrough", triage_fallthrough),
    field!(Count, "store_recoveries", "store recoveries", store_recoveries),
    field!(Count, "flush_errors", "flush errors", flush_errors),
    field!(Span, "time_reach_s", "time: reach", phases.reach),
    field!(Span, "time_sim_s", "time: sim", phases.sim),
    field!(Span, "time_collapse_s", "time: collapse", phases.collapse),
    field!(Span, "time_refine_s", "time: refine", phases.refine),
    field!(Span, "time_omega_s", "time: omega", phases.omega),
];

impl PipelineStats {
    /// Adds another run's statistics into this one (for multi-variable
    /// CLI runs and bench totals).
    pub fn add(&mut self, other: &PipelineStats) {
        for e in &PIPELINE {
            match e.cell {
                Cell::Count(get, slot) => *slot(self) += get(other),
                Cell::Span(get, slot) => *slot(self) += get(other),
                Cell::Rate(_) => {}
            }
        }
    }

    /// Renders the human-readable statistics table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for e in PIPELINE.iter().filter(|e| !e.label.is_empty()) {
            let value = match e.cell {
                Cell::Count(get, _) => get(self).to_string(),
                Cell::Span(get, _) => format!("{:.2?}", get(self)),
                Cell::Rate(pair) => {
                    let (hits, misses) = pair(self);
                    format!("{hits}/{misses} ({:.1}%)", 100.0 * hit_rate(hits, misses))
                }
            };
            out.push_str(&format!("  {:<28} {value:>14}\n", e.label));
        }
        out
    }

    /// Renders the statistics as one JSON object on a single line
    /// (durations in fractional seconds).
    pub fn to_json(&self) -> String {
        let obj = PIPELINE.iter().fold(json::Obj::default(), |obj, e| match e.cell {
            Cell::Count(get, _) => obj.u64(e.key, get(self)),
            Cell::Span(get, _) => obj.f64(e.key, get(self).as_secs_f64()),
            Cell::Rate(pair) => {
                let (hits, misses) = pair(self);
                obj.f64(e.key, hit_rate(hits, misses))
            }
        });
        obj.finish()
    }

    /// Rebuilds the statistics from their [`PipelineStats::to_json`]
    /// rendering. The derived `*_hit_rate` keys are recomputed, not
    /// parsed; durations round-trip through the same six-decimal
    /// seconds, so a parse→render cycle is byte-stable.
    pub fn from_json(v: &json::Value) -> Result<PipelineStats, String> {
        let mut p = PipelineStats::default();
        for e in &PIPELINE {
            let value = v.get(e.key);
            match e.cell {
                Cell::Count(_, slot) => {
                    *slot(&mut p) = value
                        .and_then(json::Value::as_u64)
                        .ok_or(format!("missing pipeline counter `{}`", e.key))?;
                }
                Cell::Span(_, slot) => {
                    let secs = value
                        .and_then(json::Value::as_f64)
                        .ok_or(format!("missing pipeline span `{}`", e.key))?;
                    *slot(&mut p) = Duration::try_from_secs_f64(secs)
                        .map_err(|_| format!("unusable span `{}`", e.key))?;
                }
                Cell::Rate(_) => {}
            }
        }
        Ok(p)
    }
}

/// Aggregate roll-up of a batch run: per-outcome verdict counts plus
/// the summed pipeline counters of every file. Assembled by
/// `circ-batch` and rendered into the tail of the aggregate report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchTotals {
    /// Files checked (including ones that failed to compile).
    pub files: u64,
    /// Files proven race-free.
    pub safe: u64,
    /// Files with a confirmed race.
    pub races: u64,
    /// Files where the analysis gave up within its own bounds.
    pub inconclusive: u64,
    /// Files that ran out of their carved resource budget.
    pub budget_exhausted: u64,
    /// Files whose source failed to compile.
    pub compile_errors: u64,
    /// Extra attempts spent re-running transient failures (sum of
    /// per-file retry counts; 0 without a retry policy).
    pub retries: u64,
    /// Isolated child processes that crashed (signal, abort, or an
    /// unreadable row); only non-zero under `--isolate`.
    pub isolated_crashes: u64,
    /// Rows replayed from the journal instead of re-checked
    /// (`--resume` only).
    pub resumed: u64,
    /// Rows drained by a graceful shutdown before completing; these
    /// are never journaled, so a `--resume` run re-checks them.
    pub cancelled: u64,
    /// Summed pipeline counters across all checked files.
    pub pipeline: PipelineStats,
}

impl BatchTotals {
    /// Renders the roll-up as one JSON object on a single line (the
    /// `totals` value of the batch report). Keys are stable.
    pub fn to_json(&self) -> String {
        json::Obj::default()
            .u64("files", self.files)
            .u64("safe", self.safe)
            .u64("races", self.races)
            .u64("inconclusive", self.inconclusive)
            .u64("budget_exhausted", self.budget_exhausted)
            .u64("compile_errors", self.compile_errors)
            .u64("retries", self.retries)
            .u64("isolated_crashes", self.isolated_crashes)
            .u64("resumed", self.resumed)
            .u64("cancelled", self.cancelled)
            .raw("pipeline", &self.pipeline.to_json())
            .finish()
    }

    /// Renders a short human-readable summary line. Supervision
    /// counters (retries, crashes, resumed, cancelled) only appear
    /// when non-zero, so ordinary runs keep the familiar one-liner.
    pub fn render_summary(&self) -> String {
        let mut s = format!(
            "{} file(s): {} safe, {} race(s), {} inconclusive, {} budget-exhausted, \
             {} compile error(s)",
            self.files,
            self.safe,
            self.races,
            self.inconclusive,
            self.budget_exhausted,
            self.compile_errors,
        );
        if self.resumed > 0 {
            s.push_str(&format!("; {} resumed from journal", self.resumed));
        }
        if self.cancelled > 0 {
            s.push_str(&format!("; {} cancelled", self.cancelled));
        }
        if self.retries > 0 {
            s.push_str(&format!(
                "; {} retr{}",
                self.retries,
                if self.retries == 1 { "y" } else { "ies" }
            ));
        }
        if self.isolated_crashes > 0 {
            s.push_str(&format!("; {} isolated crash(es)", self.isolated_crashes));
        }
        s
    }
}

/// One internally consistent view of a running `circ serve` process:
/// request-level outcomes plus the [`BatchTotals`] roll-up of every
/// row the service has produced. Obtained from
/// [`ServiceStats::snapshot`], which copies the whole struct under a
/// single lock — a `stats` response can never observe, say, a `files`
/// total that includes a row whose verdict count is still missing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Request lines handled, any operation (including rejected ones).
    pub requests: u64,
    /// Check requests that ran to a normal response.
    pub checks: u64,
    /// Check requests shed with an `overloaded` response because the
    /// admission queue was full.
    pub overloaded: u64,
    /// Check requests rejected with a `shutting-down` response during
    /// a graceful drain.
    pub shed_shutting_down: u64,
    /// Request lines that failed to parse or validate.
    pub bad_requests: u64,
    /// Panics contained at the request boundary (the request got an
    /// `internal-error` row or response; the server kept running).
    pub panics_contained: u64,
    /// Per-row roll-up summed across all completed check requests —
    /// the same shape a batch report's `totals` block carries.
    pub totals: BatchTotals,
}

impl ServiceSnapshot {
    /// Renders the snapshot as one JSON object on a single line.
    /// Keys are stable; the serve protocol embeds this verbatim.
    pub fn to_json(&self) -> String {
        json::Obj::default()
            .u64("requests", self.requests)
            .u64("checks", self.checks)
            .u64("overloaded", self.overloaded)
            .u64("shed_shutting_down", self.shed_shutting_down)
            .u64("bad_requests", self.bad_requests)
            .u64("panics_contained", self.panics_contained)
            .raw("totals", &self.totals.to_json())
            .finish()
    }
}

/// Shared, thread-safe service counters for `circ serve`.
///
/// Every mutation and every read goes through **one** mutex: updates
/// are applied as a single closure under the lock, and
/// [`ServiceStats::snapshot`] clones the entire state under the same
/// lock. The alternative — per-counter atomics — would let a reader
/// interleave between two `fetch_add`s and report torn totals (a
/// request counted in `checks` but not yet in `totals.files`). The
/// counters move at request granularity, so one uncontended lock is
/// far below the noise floor of an actual check.
#[derive(Debug, Default)]
pub struct ServiceStats {
    inner: std::sync::Mutex<ServiceSnapshot>,
}

impl ServiceStats {
    /// Fresh, all-zero counters.
    pub fn new() -> ServiceStats {
        ServiceStats::default()
    }

    /// Applies one atomic update: `f` runs under the snapshot lock,
    /// so all the counters it touches move together or not at all as
    /// far as any concurrent [`ServiceStats::snapshot`] can observe.
    pub fn apply(&self, f: impl FnOnce(&mut ServiceSnapshot)) {
        let mut guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard);
    }

    /// An internally consistent copy of the current counters.
    pub fn snapshot(&self) -> ServiceSnapshot {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates() {
        let mut s = SolverCounters::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn add_accumulates() {
        let mut a = PipelineStats { reach_runs: 2, arg_nodes: 10, ..Default::default() };
        let b = PipelineStats { reach_runs: 1, arg_nodes: 5, ..Default::default() };
        a.add(&b);
        assert_eq!(a.reach_runs, 3);
        assert_eq!(a.arg_nodes, 15);
    }

    #[test]
    fn abs_since_computes_delta() {
        let base = AbsCounters { queries: 10, cache_hits: 4, cache_misses: 6 };
        let now = AbsCounters { queries: 25, cache_hits: 14, cache_misses: 11 };
        let d = now.since(&base);
        assert_eq!(d, AbsCounters { queries: 15, cache_hits: 10, cache_misses: 5 });
    }

    #[test]
    fn json_is_one_line_and_balanced() {
        let s = PipelineStats::default();
        let j = s.to_json();
        assert!(!j.contains('\n'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"abs_hit_rate\":0.000000"));
        assert!(j.contains("\"mem_charged_bytes\":0"));
        assert!(j.contains("\"budget_polls\":0"));
        assert!(j.contains("\"faults_injected\":0"));
        assert!(j.contains("\"preds_seeded\":0"));
        assert!(j.contains("\"refine_rounds_saved\":0"));
        assert!(j.contains("\"triage_stage0_decided\":0"));
        assert!(j.contains("\"triage_stage1_decided\":0"));
        assert!(j.contains("\"triage_fallthrough\":0"));
        assert!(j.contains("\"store_recoveries\":0"));
        assert!(j.contains("\"flush_errors\":0"));
    }

    #[test]
    fn triage_counters_accumulate() {
        let mut a = PipelineStats {
            triage_stage0_decided: 1,
            triage_stage1_decided: 2,
            triage_fallthrough: 3,
            ..Default::default()
        };
        a.add(&PipelineStats {
            triage_stage0_decided: 4,
            triage_fallthrough: 1,
            ..Default::default()
        });
        assert_eq!(a.triage_stage0_decided, 5);
        assert_eq!(a.triage_stage1_decided, 2);
        assert_eq!(a.triage_fallthrough, 4);
        let t = a.render_table();
        assert!(t.contains("triage stage-0 decided"), "{t}");
    }

    #[test]
    fn batch_totals_json_nests_pipeline() {
        let t =
            BatchTotals { files: 3, safe: 1, races: 1, compile_errors: 1, ..Default::default() };
        let j = t.to_json();
        assert!(!j.contains('\n'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"files\":3"));
        assert!(j.contains("\"pipeline\":{"));
        assert!(j.contains("\"retries\":0"));
        assert!(j.contains("\"isolated_crashes\":0"));
        assert!(j.contains("\"resumed\":0"));
        assert!(j.contains("\"cancelled\":0"));
        assert!(t.render_summary().contains("3 file(s)"));
        // Supervision counters stay out of the human summary at zero
        // and show up once non-zero.
        assert!(!t.render_summary().contains("resumed"));
        let busy = BatchTotals { resumed: 2, retries: 1, cancelled: 3, ..t };
        let s = busy.render_summary();
        assert!(s.contains("2 resumed from journal"), "{s}");
        assert!(s.contains("3 cancelled"), "{s}");
        assert!(s.contains("1 retry"), "{s}");
    }

    #[test]
    fn service_snapshot_json_nests_totals() {
        let stats = ServiceStats::new();
        stats.apply(|s| {
            s.requests = 5;
            s.checks = 3;
            s.overloaded = 1;
            s.bad_requests = 1;
            s.totals.files = 4;
            s.totals.safe = 3;
            s.totals.races = 1;
        });
        let j = stats.snapshot().to_json();
        assert!(!j.contains('\n'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"requests\":5"), "{j}");
        assert!(j.contains("\"overloaded\":1"), "{j}");
        assert!(j.contains("\"shed_shutting_down\":0"), "{j}");
        assert!(j.contains("\"totals\":{\"files\":4"), "{j}");
    }

    #[test]
    fn concurrent_readers_never_observe_torn_totals() {
        // Writers move several counters in one `apply`; the invariants
        // `safe + races == files` and `files == 2 · checks` hold after
        // every update, so any snapshot violating them can only come
        // from tearing — exactly what the single lock must prevent.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let stats = Arc::new(ServiceStats::new());
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let stats = Arc::clone(&stats);
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        let s = stats.snapshot();
                        assert_eq!(
                            s.totals.safe + s.totals.races,
                            s.totals.files,
                            "torn snapshot: verdict counts out of sync with files"
                        );
                        assert_eq!(
                            s.totals.files,
                            2 * s.checks,
                            "torn snapshot: files out of sync with checks"
                        );
                    }
                });
            }
            for _ in 0..4 {
                let stats = Arc::clone(&stats);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        stats.apply(|s| {
                            s.requests += 1;
                            s.checks += 1;
                            s.totals.files += 2;
                            // Alternate so both verdict counters move.
                            if i % 2 == 0 {
                                s.totals.safe += 2;
                            } else {
                                s.totals.safe += 1;
                                s.totals.races += 1;
                            }
                        });
                    }
                });
            }
            // Writer scopes join before `done` flips? No — flip it
            // from the main thread once all writers are spawned and
            // joined via an inner scope would deadlock the readers.
            // Instead: spawn a watchdog that flips `done` when the
            // writers' full quota is visible.
            let stats_w = Arc::clone(&stats);
            let done_w = Arc::clone(&done);
            scope.spawn(move || loop {
                if stats_w.snapshot().checks == 4 * 500 {
                    done_w.store(true, Ordering::Relaxed);
                    break;
                }
                std::thread::yield_now();
            });
        });
        let final_snap = stats.snapshot();
        assert_eq!(final_snap.requests, 2000);
        assert_eq!(final_snap.totals.files, 4000);
        assert_eq!(final_snap.totals.safe + final_snap.totals.races, 4000);
    }

    /// Every counter and span set to a distinct non-zero value, so a
    /// table entry wired to the wrong field shows up.
    fn distinct() -> PipelineStats {
        PipelineStats {
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
        }
    }

    #[test]
    fn distinct_values_round_trip_double_and_render() {
        let p = distinct();
        let decoded = PipelineStats::from_json(&json::parse(&p.to_json()).unwrap()).unwrap();
        assert_eq!(decoded, p);

        let mut doubled = p.clone();
        doubled.add(&p);
        let twice = |d: Duration| d * 2;
        assert_eq!(
            doubled,
            PipelineStats {
                solver: SolverCounters {
                    queries: 24,
                    cache_hits: 26,
                    cache_misses: 28,
                    theory_rounds: 30,
                },
                abs: AbsCounters { queries: 32, cache_hits: 34, cache_misses: 36 },
                outer_rounds: 2,
                reach_runs: 4,
                arg_nodes: 6,
                sim_checks: 8,
                sim_edge_pairs: 10,
                collapse_runs: 12,
                collapse_iterations: 14,
                refine_rounds: 16,
                k_increments: 18,
                preds_seeded: 20,
                refine_rounds_saved: 22,
                mem_charged_bytes: 38,
                budget_polls: 40,
                faults_injected: 42,
                triage_stage0_decided: 44,
                triage_stage1_decided: 46,
                triage_fallthrough: 48,
                store_recoveries: 50,
                flush_errors: 52,
                phases: PhaseTimes {
                    reach: twice(p.phases.reach),
                    sim: twice(p.phases.sim),
                    collapse: twice(p.phases.collapse),
                    refine: twice(p.phases.refine),
                    omega: twice(p.phases.omega),
                },
            }
        );

        // Each counter shows exactly once: the value column, minus the
        // hit-rate percentages, holds 1..=26 and nothing else.
        let table = p.render_table();
        let mut shown: Vec<u64> = table
            .lines()
            .filter(|l| !l.contains("time:"))
            .flat_map(|l| l[31..].split('(').next().unwrap().split('/'))
            .map(|n| n.trim().parse().unwrap())
            .collect();
        shown.sort_unstable();
        assert_eq!(shown, (1..=26).collect::<Vec<u64>>(), "{table}");
        for ms in ["1.00ms", "2.00ms", "3.00ms", "4.00ms", "5.00ms"] {
            assert!(table.contains(ms), "span {ms} missing from the table:\n{table}");
        }
    }

    #[test]
    fn table_and_json_match_the_pinned_bytes() {
        assert_eq!(
            distinct().render_table(),
            "  outer rounds                              1
  reach runs                                2
  ARG nodes                                 3
  sim checks                                4
  sim edge pairs                            5
  collapse runs                             6
  collapse iterations                       7
  refine rounds                             8
  k increments                              9
  preds seeded                             10
  refine rounds saved                      11
  abs entailment queries                   16
  abs cache hits/misses         17/18 (48.6%)
  solver queries                           12
  solver cache hits/misses      13/14 (48.1%)
  solver theory rounds                     15
  mem charged (bytes)                      19
  budget polls                             20
  faults injected                          21
  triage stage-0 decided                   22
  triage stage-1 decided                   23
  triage fallthrough                       24
  store recoveries                         25
  flush errors                             26
  time: reach                          1.00ms
  time: sim                            2.00ms
  time: collapse                       3.00ms
  time: refine                         4.00ms
  time: omega                          5.00ms
"
        );
        assert_eq!(
            distinct().to_json(),
            concat!(
                r#"{"outer_rounds":1,"reach_runs":2,"arg_nodes":3,"sim_checks":4,"#,
                r#""sim_edge_pairs":5,"collapse_runs":6,"collapse_iterations":7,"#,
                r#""refine_rounds":8,"k_increments":9,"preds_seeded":10,"#,
                r#""refine_rounds_saved":11,"abs_queries":16,"abs_cache_hits":17,"#,
                r#""abs_cache_misses":18,"abs_hit_rate":0.485714,"solver_queries":12,"#,
                r#""solver_cache_hits":13,"solver_cache_misses":14,"#,
                r#""solver_hit_rate":0.481481,"theory_rounds":15,"mem_charged_bytes":19,"#,
                r#""budget_polls":20,"faults_injected":21,"triage_stage0_decided":22,"#,
                r#""triage_stage1_decided":23,"triage_fallthrough":24,"#,
                r#""store_recoveries":25,"flush_errors":26,"time_reach_s":0.001001,"#,
                r#""time_sim_s":0.002002,"time_collapse_s":0.003003,"#,
                r#""time_refine_s":0.004004,"time_omega_s":0.005005}"#,
            )
        );
    }

    #[test]
    fn decoding_names_the_missing_key() {
        let mut v = json::parse(&distinct().to_json()).unwrap();
        let json::Value::Obj(map) = &mut v else { panic!() };
        map.remove("flush_errors");
        let err = PipelineStats::from_json(&v).unwrap_err();
        assert!(err.contains("`flush_errors`"), "{err}");
    }

    #[test]
    fn table_mentions_every_phase() {
        let t = PipelineStats::default().render_table();
        for key in ["reach", "sim", "collapse", "refine", "omega", "cache hits"] {
            assert!(t.contains(key), "missing {key} in table:\n{t}");
        }
    }
}
