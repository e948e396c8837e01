//! Per-layer metrics of one traced pass.
//!
//! A pass is the workload's fixed unit of work (one ring round, one
//! batch call, one block of serve requests). Counters and phase times
//! come from the `PipelineStats` the public calls return; the other
//! layer times come from spans the benchmark records around its own
//! calls into each layer's public entry point.

use crate::measure::{percentile, phase_sum, Metric};
use circ_stats::PipelineStats;

#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Summed pipeline counters and phase spans of the pass.
    pub pipeline: PipelineStats,
    /// Sum of engine call wall times (outside-timed, or the row time
    /// where a batch or the server makes the call).
    pub engine_wall_s: f64,
    /// Engine outcomes that ended `Stuck` or `RefineFailed`.
    pub refine_stuck: u64,
    pub abs_seed_s: f64,
    pub preload_s: f64,
    pub compile_s: f64,
    pub cfa_locs: u64,
    pub triage_s: f64,
    pub store_load_s: f64,
    pub store_flush_s: f64,
    pub store_bytes: u64,
    pub batch_self_s: f64,
    /// Process CPU and wall of the pass, and the workload's width.
    pub cpu_s: f64,
    pub wall_s: f64,
    pub width: f64,
    pub queue_wait_s: Vec<f64>,
    pub service_s: Vec<f64>,
    pub shed: u64,
    pub gen_lag_s: Vec<f64>,
    /// Median reply rate of saturating bursts.
    pub capacity_rps: f64,
    /// The machine's speed relative to the reference, at the pass start.
    pub speed: f64,
    /// Traced pass wall minus the matching untraced pass wall.
    pub overhead_s: f64,
    pub spans: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(l: &Layers) -> Vec<Metric> {
    let p = &l.pipeline;
    let t = &p.phases;
    let m = |name, value, unit| Metric { name, value, unit };
    let c = |name, value: u64| Metric { name, value: value as f64, unit: "count" };
    let triaged = p.triage_stage0_decided + p.triage_stage1_decided;
    // Engine self time: call wall minus the phase spans inside it and
    // minus the layers the benchmark timed separately on the same path.
    let engine_self =
        l.engine_wall_s - phase_sum(p) - l.compile_s - l.triage_s - l.abs_seed_s - l.preload_s;
    vec![
        c("smt.queries", p.solver.queries),
        c("smt.misses", p.solver.cache_misses),
        m("smt.hit_ratio", p.solver.hit_rate(), "ratio"),
        c("smt.theory_rounds", p.solver.theory_rounds),
        m("smt.preload_s", l.preload_s, "s"),
        c("abs.queries", p.abs.queries),
        c("abs.misses", p.abs.cache_misses),
        m("abs.hit_ratio", p.abs.hit_rate(), "ratio"),
        m("abs.seed_s", l.abs_seed_s, "s"),
        m("reach.s", t.reach.as_secs_f64(), "s"),
        c("reach.runs", p.reach_runs),
        c("reach.arg_nodes", p.arg_nodes),
        m("sim.s", t.sim.as_secs_f64(), "s"),
        c("sim.edge_pairs", p.sim_edge_pairs),
        m("collapse.s", t.collapse.as_secs_f64(), "s"),
        c("collapse.iterations", p.collapse_iterations),
        m("omega.s", t.omega.as_secs_f64(), "s"),
        m("refine.s", t.refine.as_secs_f64(), "s"),
        c("refine.rounds", p.refine_rounds),
        c("refine.k_increments", p.k_increments),
        c("refine.stuck", l.refine_stuck),
        m(
            "refine.useful_ratio",
            ratio(p.refine_rounds.saturating_sub(l.refine_stuck), p.refine_rounds),
            "ratio",
        ),
        c("engine.outer_rounds", p.outer_rounds),
        m("engine.self_s", engine_self, "s"),
        m("par.utilization", l.cpu_s / (l.wall_s * l.width).max(1e-9), "ratio"),
        m("frontend.compile_s", l.compile_s, "s"),
        c("frontend.cfa_locs", l.cfa_locs),
        m("triage.s", l.triage_s, "s"),
        m("triage.decided_ratio", ratio(triaged, triaged + p.triage_fallthrough), "ratio"),
        c("triage.fallthrough", p.triage_fallthrough),
        m("store.load_s", l.store_load_s, "s"),
        m("store.flush_s", l.store_flush_s, "s"),
        c("store.bytes", l.store_bytes),
        c("store.recoveries", p.store_recoveries),
        c("store.flush_errors", p.flush_errors),
        m("batch.self_s", l.batch_self_s, "s"),
        m("serve.queue_wait_p50_s", percentile(&l.queue_wait_s, 0.5), "s"),
        m("serve.queue_wait_p90_s", percentile(&l.queue_wait_s, 0.9), "s"),
        m("serve.service_s", percentile(&l.service_s, 0.5), "s"),
        c("serve.shed", l.shed),
        m("serve.gen_lag_s", percentile(&l.gen_lag_s, 0.9), "s"),
        m("serve.capacity_rps", l.capacity_rps, "1/s"),
        c("governor.budget_polls", p.budget_polls),
        m("trace.overhead_s", l.overhead_s, "s"),
        c("trace.spans", l.spans),
        m("machine.speed", l.speed, "ratio"),
    ]
}

/// Per-metric median over several traced passes.
pub fn median_over(passes: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = passes.first() else { return Vec::new() };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = passes.iter().map(|p| p[i].value).collect();
            Metric { name: m.name, value: percentile(&values, 0.5), unit: m.unit }
        })
        .collect()
}
