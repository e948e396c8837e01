//! Sample statistics, process counters, verdict tallies and the result
//! line.

use crate::gen::Expect;

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Per-item medians of samples taken in rounds over the same `items`
/// (sample `k` belongs to item `k % items`). Percentiles over these
/// keep one slow round on a shared machine from moving the result.
pub fn item_medians(samples: &[f64], items: usize) -> Vec<f64> {
    (0..items)
        .map(|i| median(&samples.iter().skip(i).step_by(items).copied().collect::<Vec<_>>()))
        .collect()
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds of this process, all threads, from
/// `getrusage(RUSAGE_SELF)` (microsecond resolution, where
/// `/proc/self/stat` counts 10 ms ticks).
pub fn process_cpu_s() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a valid, writable `struct rusage` for the call.
    if unsafe { getrusage(RUSAGE_SELF, &mut u) } != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Safe,
    Race,
    /// A sound "don't know": Stuck, state or iteration limits,
    /// budget exhaustion.
    Undecided,
    /// No verdict at all: internal error, cancellation, shed request,
    /// compile or transport error.
    Failed,
}

impl Class {
    pub fn of_circ(outcome: &circ_core::CircOutcome) -> Class {
        use circ_core::{CircOutcome, UnknownReason};
        match outcome {
            CircOutcome::Safe(_) => Class::Safe,
            CircOutcome::Unsafe(_) => Class::Race,
            CircOutcome::Unknown(r) => match r.reason {
                UnknownReason::InternalError(_) | UnknownReason::Cancelled => Class::Failed,
                _ => Class::Undecided,
            },
        }
    }

    pub fn of_row(row: &circ_batch::FileRow) -> Class {
        use circ_batch::Verdict;
        match row.verdict {
            Verdict::Safe => Class::Safe,
            Verdict::Race => Class::Race,
            Verdict::Inconclusive | Verdict::BudgetExhausted if !row.cancelled => Class::Undecided,
            _ => Class::Failed,
        }
    }

    fn contradicts(self, expect: Expect) -> bool {
        matches!((self, expect), (Class::Safe, Expect::Race) | (Class::Race, Expect::Safe))
    }
}

/// Outcome counts plus the correctness gate.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub decided: u64,
    pub failed: u64,
    /// One line per verdict flip or cross-path disagreement.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one operation against its known answer and, when the
    /// same text was also checked in-process, against that verdict.
    pub fn record(&mut self, name: &str, expect: Expect, class: Class, in_process: Option<Class>) {
        self.attempted += 1;
        match class {
            Class::Safe | Class::Race => self.decided += 1,
            Class::Undecided => {}
            Class::Failed => self.failed += 1,
        }
        if class.contradicts(expect) {
            self.errors.push(format!("verdict flip on {name}: {class:?}, expected {expect:?}"));
        }
        if let Some(reference) = in_process {
            let both_decided = matches!(reference, Class::Safe | Class::Race)
                && matches!(class, Class::Safe | Class::Race);
            if both_decided && reference != class {
                self.errors.push(format!(
                    "{name}: row says {class:?}, in-process check says {reference:?}"
                ));
            }
        }
    }

    pub fn decided_ratio(&self) -> f64 {
        self.decided as f64 / self.attempted.max(1) as f64
    }
}

/// One metric as printed.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The run's result: printed as one JSON line, the last on stdout.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Counter fields of `PipelineStats` (everything but wall times), for
/// the traced-equals-untraced gate.
pub fn counters(p: &circ_stats::PipelineStats) -> Vec<u64> {
    vec![
        p.solver.queries,
        p.solver.cache_hits,
        p.solver.cache_misses,
        p.solver.theory_rounds,
        p.abs.queries,
        p.abs.cache_hits,
        p.abs.cache_misses,
        p.outer_rounds,
        p.reach_runs,
        p.arg_nodes,
        p.sim_checks,
        p.sim_edge_pairs,
        p.collapse_runs,
        p.collapse_iterations,
        p.refine_rounds,
        p.k_increments,
        p.preds_seeded,
        p.refine_rounds_saved,
        p.budget_polls,
        p.triage_stage0_decided,
        p.triage_stage1_decided,
        p.triage_fallthrough,
        p.store_recoveries,
        p.flush_errors,
    ]
}

/// Sum of the per-phase wall spans of a pipeline.
pub fn phase_sum(p: &circ_stats::PipelineStats) -> f64 {
    let t = &p.phases;
    (t.reach + t.sim + t.collapse + t.refine + t.omega).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(mean(&v), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(item_medians(&[1.0, 10.0, 3.0, 30.0, 2.0, 20.0], 2), vec![2.0, 20.0]);
    }

    #[test]
    fn process_cpu_counts_a_busy_loop() {
        let (cpu0, t) = (process_cpu_s(), std::time::Instant::now());
        let mut x = 0u64;
        while t.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spent = process_cpu_s() - cpu0;
        assert!(spent > 0.01 && spent < 10.0, "{spent}");
    }

    #[test]
    fn flips_and_disagreements_are_errors() {
        let mut t = Tally::default();
        t.record("a", Expect::Safe, Class::Safe, None);
        t.record("b", Expect::Race, Class::Undecided, Some(Class::Race));
        assert!(t.errors.is_empty());
        t.record("c", Expect::Race, Class::Safe, None);
        assert_eq!(t.errors.len(), 1);
        assert_eq!((t.attempted, t.decided, t.failed), (3, 2, 0));
    }
}
