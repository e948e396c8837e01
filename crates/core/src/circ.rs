//! The **CIRC** inference algorithm (Algorithm 5) and its **ω-CIRC**
//! optimization (§5).
//!
//! The outer loop owns the abstraction parameters `(P, k)`; the inner
//! loop alternates the circular assume–guarantee obligations:
//!
//! ```text
//! A := empty context
//! repeat
//!     G := ReachAndBuild((C, P), (A, k))      -- assume A, check races
//!     if G ⪯ A: return Safe                    -- guarantee holds
//!     (A, μ) := Collapse(G)                    -- weaken the context
//! until an abstract race is found
//! -- Refine: real race ⇒ Unsafe; spurious ⇒ grow P or k, restart
//! ```
//!
//! ω-CIRC runs reachability with *exactly* `k` context threads
//! (`G₀(q₀) = k` instead of ω) and, once the simulation check
//! succeeds, discharges the unbounded case with the per-transition
//! *goodness* check of §5: every environment transition enabled in
//! some reachable counter configuration must map each ARG region back
//! into itself. If goodness fails, `k` grows and the search restarts.
//!
//! # Checking a stored context
//!
//! A Safe verdict is a certificate `(P, k, A)`: ReachAndBuild against
//! `A` finds no race, `G ⪯ A`, and in ω mode `Collapse(G)` is good.
//! Soundness rests on that final check alone, not on how `A` was
//! found, so a context handed in through
//! [`CircConfig::initial_context`] (the predicate store's record of an
//! earlier Safe run) replaces the empty context in the first inner
//! round: *check* mode. If every step passes, the run is Safe after
//! one ReachAndBuild and one CheckSim. If any fails — an abstract
//! race, `G ⋠ A`, a state-limit abort, or a failed goodness check —
//! the stored context is dropped and the run infers one from the empty
//! context as it would have without it (a failed goodness check still
//! grows `k`). An abstract race is never refined against the stored
//! context, which has no concretizer.

use crate::abs::AbsCtx;
use crate::arg::ExportedArg;
use crate::cache::AbsCache;
use crate::preds::PredSet;
use crate::reach::{reach_and_build, Property, ReachError};
use crate::refine::{refine, ConcreteCex, Concretizer, RefineDetail, RefineError, RefineOutcome};
use circ_acfa::{
    check_sim_budgeted, collapse, context_reach_budgeted, Acfa, CVal, ContextState, Region,
};
use circ_governor::{panic_message, Budget, CancelToken, Exhausted, FaultPlan};
use circ_ir::{Cfa, MtProgram, Pred};
use circ_stats::{AbsCounters, PipelineStats};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`circ`].
#[derive(Debug, Clone)]
pub struct CircConfig {
    /// Seed predicates (default none — CEGAR discovers the rest).
    pub initial_preds: Vec<Pred>,
    /// Initial counter parameter (the paper's experiments use 1).
    pub initial_k: u32,
    /// A context ACFA to check before inferring one (see the module
    /// docs): the certificate of an earlier Safe run over
    /// `initial_preds`, set by [`crate::pred_store::seed_config`].
    /// Ignored unless every cube is as wide as the seeded predicate
    /// set and labels only global predicates, and every havoc
    /// variable is a global of the program. A context that fails the
    /// check costs time, never a verdict.
    pub initial_context: Option<Acfa>,
    /// Run the ω-CIRC optimization (exactly-k reachability plus the
    /// goodness check) instead of plain CIRC (ω-initialized context).
    pub omega_mode: bool,
    /// Bound on outer (refinement) iterations.
    pub max_outer: usize,
    /// Bound on inner (assume–guarantee) iterations per outer round.
    pub max_inner: usize,
    /// Abstract-state budget per reachability run.
    pub max_states: usize,
    /// Minimize ARGs into weak-bisimilarity quotients before using
    /// them as contexts (`Collapse`). Disabling this uses the raw ARG
    /// as the context model — sound, but contexts stay large; exposed
    /// for the ablation bench.
    pub minimize: bool,
    /// Memoize entailment and solver queries (the atom-level
    /// [`AbsCache`] plus the solver's formula cache). Caching only
    /// replays deterministic answers, so disabling it changes timings
    /// and counters but never the [`CircOutcome`]; exposed for the
    /// cached-vs-uncached differential.
    pub use_cache: bool,
    /// The safety property to check (default: race freedom).
    pub property: Property,
    /// Ignored: the engine always runs on the calling thread. Kept
    /// only so existing struct literals that set it still compile.
    pub jobs: usize,
    /// Wall-clock budget for the whole run. `None` (the default)
    /// means unbounded; on expiry the run returns
    /// [`UnknownReason::Deadline`] with the stats gathered so far.
    pub timeout: Option<Duration>,
    /// Accounted-memory ceiling in bytes for the run's growing arenas
    /// (ARG states plus the solver formula cache). `None` means
    /// unbounded; on overdraft the run returns
    /// [`UnknownReason::MemoryLimit`]. Accounting is approximate — see
    /// `circ-governor`'s crate docs.
    pub mem_limit_bytes: Option<u64>,
    /// Cooperative cancellation: an embedder holding a clone of this
    /// token can abort the run from another thread; the run returns
    /// [`UnknownReason::Cancelled`] at its next budget poll.
    pub cancel: CancelToken,
    /// Deterministic fault-injection schedule (testing only). Inert
    /// by default, and every injection point compiles to constant
    /// `false` unless the `inject` cargo feature is enabled.
    pub faults: FaultPlan,
}

impl Default for CircConfig {
    fn default() -> CircConfig {
        CircConfig {
            initial_preds: Vec::new(),
            initial_k: 1,
            initial_context: None,
            omega_mode: false,
            max_outer: 40,
            max_inner: 40,
            max_states: 500_000,
            minimize: true,
            use_cache: true,
            property: Property::Race,
            jobs: 1,
            timeout: None,
            mem_limit_bytes: None,
            cancel: CancelToken::new(),
            faults: FaultPlan::inert(),
        }
    }
}

impl CircConfig {
    /// The ω-CIRC configuration (the paper's faster variant).
    pub fn omega() -> CircConfig {
        CircConfig { omega_mode: true, ..CircConfig::default() }
    }
}

/// One logged event of a CIRC run (the raw material for regenerating
/// the paper's Figures 2–5). ACFAs are kept unrendered; [`display_acfa`]
/// renders one with its round's predicate names.
#[derive(Debug, Clone)]
pub enum CircEvent {
    /// An outer round began with these parameters.
    OuterStart {
        /// Current predicates, rendered with variable names.
        preds: Vec<String>,
        /// Current counter parameter.
        k: u32,
    },
    /// A reachability run finished without finding a race.
    ReachDone {
        /// The ARG exported as an ACFA.
        arg: Arc<Acfa>,
        /// Number of ARG locations.
        arg_locs: usize,
    },
    /// The guarantee check was attempted.
    SimChecked {
        /// Whether `G ⪯ A` held.
        holds: bool,
    },
    /// The ARG was minimized into a new context ACFA.
    Collapsed {
        /// The quotient.
        acfa: Arc<Acfa>,
        /// Its size.
        size: usize,
    },
    /// An abstract race was found.
    AbstractRace {
        /// Length of the abstract trace.
        trace_len: usize,
    },
    /// Refinement analyzed the trace.
    Refined {
        /// What refinement decided, rendered.
        verdict: String,
        /// The concrete interleaving / trace formula / mined preds.
        detail: RefineDetail,
    },
    /// The ω-goodness check ran (ω-CIRC only).
    OmegaCheck {
        /// Whether every enabled environment transition was good.
        good: bool,
    },
}

/// Renders an ACFA of a [`CircEvent::ReachDone`] or
/// [`CircEvent::Collapsed`] event, naming predicates as the preceding
/// [`CircEvent::OuterStart`] lists them and variables as `cfa` does.
pub fn display_acfa(acfa: &Acfa, preds: &[String], cfa: &Cfa) -> String {
    acfa.display_with(&|i| preds[i.index()].clone(), &|v| cfa.var_name(v).to_string())
}

/// The full log of a run.
#[derive(Debug, Clone, Default)]
pub struct CircLog {
    /// Events in order.
    pub events: Vec<CircEvent>,
}

/// Statistics of a run.
#[derive(Debug, Clone, Default)]
pub struct CircStats {
    /// Outer (refinement) rounds executed.
    pub outer_iterations: usize,
    /// Total reachability runs.
    pub reach_runs: usize,
    /// Total SMT queries across the whole run: formula-level solver
    /// queries of every round plus atom-level entailment/sat queries.
    pub smt_queries: u64,
    /// Wall-clock of the whole run.
    pub elapsed: std::time::Duration,
    /// Per-phase counters, cache statistics, and wall-time spans.
    pub pipeline: PipelineStats,
}

/// A successful safety proof.
#[derive(Debug, Clone)]
pub struct SafeReport {
    /// The final context ACFA (the inferred context model).
    pub acfa: Acfa,
    /// The discovered predicates.
    pub preds: Vec<Pred>,
    /// The final counter parameter.
    pub k: u32,
    /// Run log.
    pub log: CircLog,
    /// Run statistics.
    pub stats: CircStats,
}

/// A genuine race.
#[derive(Debug, Clone)]
pub struct UnsafeReport {
    /// The concrete interleaved error trace.
    pub cex: ConcreteCex,
    /// Predicates discovered before the race was confirmed.
    pub preds: Vec<Pred>,
    /// The counter parameter at the time.
    pub k: u32,
    /// Run log.
    pub log: CircLog,
    /// Run statistics.
    pub stats: CircStats,
}

/// Why a run gave up.
#[derive(Debug, Clone)]
pub enum UnknownReason {
    /// The abstract state budget was exhausted.
    StateLimit(usize),
    /// The iteration bounds were exhausted.
    IterationLimit,
    /// Refinement could not make progress.
    Stuck(String),
    /// Refinement failed outright (e.g. an `assume` guard outside the
    /// encodable fragment) — see [`RefineError`].
    RefineFailed(RefineError),
    /// The wall-clock budget (`--timeout-secs`) expired. Carries the
    /// configured limit; the report's stats are the partial run.
    Deadline(Duration),
    /// The accounted-memory ceiling (`--mem-limit-mb`) was exceeded.
    MemoryLimit {
        /// The configured ceiling in bytes.
        limit_bytes: u64,
        /// Bytes charged when the ceiling tripped.
        charged_bytes: u64,
    },
    /// The embedder cancelled the run via [`CircConfig::cancel`].
    Cancelled,
    /// An internal bug (a panic) was contained at the `circ` boundary
    /// instead of unwinding into the caller. Carries the panic
    /// message. Soundness note: a contained panic yields `Unknown`,
    /// never a verdict, so containment cannot flip Safe/Unsafe.
    InternalError(String),
}

impl UnknownReason {
    /// True when the run gave up because a *resource budget* ran out
    /// (deadline, memory ceiling, or cancellation) — as opposed to the
    /// algorithm's own analysis limits. The CLI maps these to a
    /// distinct exit code.
    pub fn is_budget_exhausted(&self) -> bool {
        matches!(
            self,
            UnknownReason::Deadline(_)
                | UnknownReason::MemoryLimit { .. }
                | UnknownReason::Cancelled
        )
    }
}

impl From<Exhausted> for UnknownReason {
    fn from(e: Exhausted) -> UnknownReason {
        match e {
            Exhausted::Deadline { limit } => UnknownReason::Deadline(limit),
            Exhausted::MemoryLimit { limit_bytes, charged_bytes } => {
                UnknownReason::MemoryLimit { limit_bytes, charged_bytes }
            }
            Exhausted::Cancelled => UnknownReason::Cancelled,
        }
    }
}

/// An inconclusive run.
#[derive(Debug, Clone)]
pub struct UnknownReport {
    /// Why.
    pub reason: UnknownReason,
    /// Run log.
    pub log: CircLog,
    /// Run statistics.
    pub stats: CircStats,
}

/// The result of [`circ`].
#[derive(Debug, Clone)]
pub enum CircOutcome {
    /// The program is race-free on the checked variable (Theorem 1/2).
    Safe(SafeReport),
    /// A genuine race with a concrete schedule.
    Unsafe(UnsafeReport),
    /// Gave up within the configured bounds.
    Unknown(UnknownReport),
}

impl CircOutcome {
    /// True for [`CircOutcome::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, CircOutcome::Safe(_))
    }

    /// True for [`CircOutcome::Unsafe`].
    pub fn is_unsafe(&self) -> bool {
        matches!(self, CircOutcome::Unsafe(_))
    }

    /// The log of the run, whatever the verdict.
    pub fn log(&self) -> &CircLog {
        match self {
            CircOutcome::Safe(r) => &r.log,
            CircOutcome::Unsafe(r) => &r.log,
            CircOutcome::Unknown(r) => &r.log,
        }
    }

    /// The statistics of the run, whatever the verdict.
    pub fn stats(&self) -> &CircStats {
        match self {
            CircOutcome::Safe(r) => &r.stats,
            CircOutcome::Unsafe(r) => &r.stats,
            CircOutcome::Unknown(r) => &r.stats,
        }
    }
}

/// Checks the symmetric multithreaded program `program.cfa()^∞` for
/// races on `program.race_var()` by context inference.
pub fn circ(program: &MtProgram, config: &CircConfig) -> CircOutcome {
    let cache = if config.use_cache { AbsCache::new() } else { AbsCache::disabled() };
    circ_with_cache(program, config, &cache)
}

/// [`circ`] with a caller-supplied [`AbsCache`], so repeated runs (a
/// benchmark loop, a parameter sweep over the same model) share their
/// memoized entailment answers. The reported `stats.pipeline.abs`
/// counters are this run's delta, not the cache's lifetime totals.
pub fn circ_with_cache(program: &MtProgram, config: &CircConfig, cache: &AbsCache) -> CircOutcome {
    circ_with_caches(program, config, cache, &circ_smt::SolverPersist::inert())
}

/// [`circ_with_cache`] additionally wired to a solver persistence
/// store: every outer round's fresh solver warm-starts from the
/// store's frozen seed, and what each round learns is absorbed back
/// into the store's accumulator when its context retires — the disk
/// half lives in [`crate::persist`] and `circ-batch`. The inert store
/// makes this identical to [`circ_with_cache`].
pub fn circ_with_caches(
    program: &MtProgram,
    config: &CircConfig,
    cache: &AbsCache,
    solver_persist: &circ_smt::SolverPersist,
) -> CircOutcome {
    let start = Instant::now();
    let budget = Budget::new(
        config.timeout,
        config.mem_limit_bytes,
        config.cancel.clone(),
        config.faults.clone(),
    );
    // Contain internal bugs at the pipeline boundary: a panic anywhere
    // below — including an injected `task_panic` — becomes an
    // `Unknown(InternalError)` verdict instead of unwinding into the
    // embedder. The shared `AbsCache` recovers from lock poisoning
    // (see circ-par), so sibling runs on it stay usable afterwards.
    match catch_unwind(AssertUnwindSafe(|| {
        circ_inner(program, config, cache, solver_persist, &budget, start)
    })) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let mut stats = CircStats::default();
            seal_governor(&mut stats, &budget);
            stats.elapsed = start.elapsed();
            CircOutcome::Unknown(UnknownReport {
                reason: UnknownReason::InternalError(panic_message(payload.as_ref())),
                log: CircLog::default(),
                stats,
            })
        }
    }
}

fn circ_inner(
    program: &MtProgram,
    config: &CircConfig,
    cache: &AbsCache,
    solver_persist: &circ_smt::SolverPersist,
    budget: &Budget,
    start: Instant,
) -> CircOutcome {
    let cfa = program.cfa_arc();
    let mut preds = PredSet::from_preds(&cfa, config.initial_preds.iter().cloned());
    let mut k = config.initial_k;
    let mut log = CircLog::default();
    let mut stats = CircStats::default();
    let abs_base = cache.counters();

    // A stored context that does not fit is dropped unchecked, and
    // counts as a failed check.
    let mut stored = None;
    if let Some(a) = &config.initial_context {
        stats.pipeline.ctx_checks += 1;
        if context_fits(a, &preds, &cfa) {
            stored = Some(Arc::new(a.clone()));
        } else {
            stats.pipeline.ctx_fallbacks += 1;
        }
    }

    let pred_strings =
        |p: &PredSet| -> Vec<String> { p.indices().map(|i| p.display_pred(&cfa, i)).collect() };

    for _outer in 0..config.max_outer {
        // One poll between outer rounds so even a model whose phases
        // all finish fast still observes cancellation and deadlines.
        if let Err(e) = budget.check() {
            seal_stats(&mut stats, None, cache, &abs_base, budget, start);
            return CircOutcome::Unknown(UnknownReport { reason: e.into(), log, stats });
        }
        stats.outer_iterations += 1;
        stats.pipeline.outer_rounds += 1;
        log.events.push(CircEvent::OuterStart { preds: pred_strings(&preds), k });
        let abs = AbsCtx::with_parts(
            cfa.clone(),
            preds.clone(),
            cache.clone(),
            budget.clone(),
            solver_persist,
        );
        // Check mode: the first inner round assumes the stored context
        // instead of the empty one, on top of the `max_inner` rounds
        // inference may still need after it.
        let mut checking = stored.is_some();
        let mut acfa = stored.take().unwrap_or_else(|| Arc::new(Acfa::empty(preds.len())));
        let mut concretizer: Option<Concretizer> = None;

        // The inner assume–guarantee loop.
        let mut restart_outer = false;
        for _inner in 0..config.max_inner + usize::from(checking) {
            stats.reach_runs += 1;
            stats.pipeline.reach_runs += 1;
            let init = if config.omega_mode { CVal::Fin(k) } else { CVal::Omega };
            let reach_t = Instant::now();
            let reach_result = reach_and_build(
                &abs,
                program,
                &acfa,
                k,
                init,
                config.max_states,
                config.property,
                budget,
            );
            stats.pipeline.phases.reach += reach_t.elapsed();
            match reach_result {
                Err(ReachError::StateLimit(n)) => {
                    stats.pipeline.arg_nodes += n as u64;
                    if checking {
                        checking = false;
                        acfa = fall_back(&mut stats, preds.len());
                        continue;
                    }
                    seal_stats(&mut stats, Some(&abs), cache, &abs_base, budget, start);
                    return CircOutcome::Unknown(UnknownReport {
                        reason: UnknownReason::StateLimit(n),
                        log,
                        stats,
                    });
                }
                Err(ReachError::Budget(e)) => {
                    seal_stats(&mut stats, Some(&abs), cache, &abs_base, budget, start);
                    return CircOutcome::Unknown(UnknownReport { reason: e.into(), log, stats });
                }
                Err(ReachError::Race(cex)) => {
                    stats.pipeline.arg_nodes += cex.steps.len() as u64 + 1;
                    log.events.push(CircEvent::AbstractRace { trace_len: cex.steps.len() });
                    if checking {
                        checking = false;
                        acfa = fall_back(&mut stats, preds.len());
                        continue;
                    }
                    let refine_t = Instant::now();
                    let (outcome, detail) = refine(
                        program,
                        &acfa,
                        &cex,
                        concretizer.as_ref(),
                        abs.preds(),
                        config.property,
                        budget,
                    );
                    stats.pipeline.phases.refine += refine_t.elapsed();
                    stats.pipeline.refine_rounds += 1;
                    let verdict = match &outcome {
                        RefineOutcome::Real(_) => "real race".to_string(),
                        RefineOutcome::NewPreds(ps) => format!("{} new predicate(s)", ps.len()),
                        RefineOutcome::IncrementK => format!("increment k to {}", k + 1),
                        RefineOutcome::Stuck(m) => format!("stuck: {m}"),
                        RefineOutcome::Error(e) => format!("refinement error: {e}"),
                        RefineOutcome::Exhausted(e) => format!("budget exhausted: {e}"),
                    };
                    log.events.push(CircEvent::Refined { verdict, detail });
                    match outcome {
                        RefineOutcome::Real(ccex) => {
                            seal_stats(&mut stats, Some(&abs), cache, &abs_base, budget, start);
                            return CircOutcome::Unsafe(UnsafeReport {
                                cex: ccex,
                                preds: preds.preds().to_vec(),
                                k,
                                log,
                                stats,
                            });
                        }
                        RefineOutcome::NewPreds(ps) => {
                            for p in ps {
                                preds.insert(&cfa, p);
                            }
                            restart_outer = true;
                            break;
                        }
                        RefineOutcome::IncrementK => {
                            k += 1;
                            stats.pipeline.k_increments += 1;
                            restart_outer = true;
                            break;
                        }
                        RefineOutcome::Stuck(msg) => {
                            seal_stats(&mut stats, Some(&abs), cache, &abs_base, budget, start);
                            return CircOutcome::Unknown(UnknownReport {
                                reason: UnknownReason::Stuck(msg),
                                log,
                                stats,
                            });
                        }
                        RefineOutcome::Error(e) => {
                            seal_stats(&mut stats, Some(&abs), cache, &abs_base, budget, start);
                            return CircOutcome::Unknown(UnknownReport {
                                reason: UnknownReason::RefineFailed(e),
                                log,
                                stats,
                            });
                        }
                        RefineOutcome::Exhausted(e) => {
                            seal_stats(&mut stats, Some(&abs), cache, &abs_base, budget, start);
                            return CircOutcome::Unknown(UnknownReport {
                                reason: e.into(),
                                log,
                                stats,
                            });
                        }
                    }
                }
                Ok(arg) => {
                    stats.pipeline.arg_nodes += arg.num_locs() as u64;
                    let ExportedArg { acfa: g, state_loc } = arg.export(&cfa, abs.preds());
                    let g = Arc::new(g);
                    log.events
                        .push(CircEvent::ReachDone { arg: g.clone(), arg_locs: g.num_locs() });
                    let sim_t = Instant::now();
                    let sim_result =
                        check_sim_budgeted(&g, &acfa, &|x, y| abs.region_contained(x, y), budget);
                    let (holds, pairs) = match sim_result {
                        Ok(r) => r,
                        Err(e) => {
                            stats.pipeline.phases.sim += sim_t.elapsed();
                            seal_stats(&mut stats, Some(&abs), cache, &abs_base, budget, start);
                            return CircOutcome::Unknown(UnknownReport {
                                reason: e.into(),
                                log,
                                stats,
                            });
                        }
                    };
                    stats.pipeline.phases.sim += sim_t.elapsed();
                    stats.pipeline.sim_checks += 1;
                    stats.pipeline.sim_edge_pairs += pairs;
                    log.events.push(CircEvent::SimChecked { holds });
                    if holds {
                        // Guarantee discharged. In ω-mode, the
                        // unbounded case needs the goodness check.
                        if config.omega_mode {
                            let collapsed = timed_collapse(&g, config.minimize, &mut stats);
                            let omega_t = Instant::now();
                            let good_result = omega_good(&abs, &g, &collapsed, k, budget);
                            stats.pipeline.phases.omega += omega_t.elapsed();
                            #[cfg(test)]
                            tests::record_goodness(&abs, &g, &collapsed, k);
                            let good = match good_result {
                                Ok(g) => g,
                                Err(e) => {
                                    seal_stats(
                                        &mut stats,
                                        Some(&abs),
                                        cache,
                                        &abs_base,
                                        budget,
                                        start,
                                    );
                                    return CircOutcome::Unknown(UnknownReport {
                                        reason: e.into(),
                                        log,
                                        stats,
                                    });
                                }
                            };
                            log.events.push(CircEvent::OmegaCheck { good });
                            if !good {
                                stats.pipeline.ctx_fallbacks += u64::from(checking);
                                k += 1;
                                stats.pipeline.k_increments += 1;
                                restart_outer = true;
                                break;
                            }
                        }
                        seal_stats(&mut stats, Some(&abs), cache, &abs_base, budget, start);
                        return CircOutcome::Safe(SafeReport {
                            acfa: Arc::unwrap_or_clone(acfa),
                            preds: preds.preds().to_vec(),
                            k,
                            log,
                            stats,
                        });
                    }
                    if checking {
                        checking = false;
                        acfa = fall_back(&mut stats, preds.len());
                        continue;
                    }
                    let collapsed = timed_collapse(&g, config.minimize, &mut stats);
                    #[cfg(test)]
                    if config.omega_mode {
                        tests::record_goodness(&abs, &g, &collapsed, k);
                    }
                    concretizer = Some(Concretizer::new(&arg, &state_loc, &collapsed));
                    acfa = Arc::new(collapsed.acfa);
                    log.events
                        .push(CircEvent::Collapsed { acfa: acfa.clone(), size: acfa.num_locs() });
                }
            }
        }
        // This round's solver handle dies with its AbsCtx: bank its
        // counters before the next round overwrites `abs`.
        absorb_round(&mut stats, &abs);
        if !restart_outer {
            // Inner loop exhausted without converging.
            seal_stats(&mut stats, None, cache, &abs_base, budget, start);
            return CircOutcome::Unknown(UnknownReport {
                reason: UnknownReason::IterationLimit,
                log,
                stats,
            });
        }
    }
    seal_stats(&mut stats, None, cache, &abs_base, budget, start);
    CircOutcome::Unknown(UnknownReport { reason: UnknownReason::IterationLimit, log, stats })
}

/// Records a failed stored-context check and returns the empty context
/// inference starts from instead.
fn fall_back(stats: &mut CircStats, n_preds: usize) -> Arc<Acfa> {
    stats.pipeline.ctx_fallbacks += 1;
    Arc::new(Acfa::empty(n_preds))
}

/// Whether a stored context speaks this run's language: every cube as
/// wide as `preds`, every literal on a global-only predicate (the only
/// ones an exported ARG keeps), and every havoc variable a global of
/// `cfa`. Anything else could not have come from a run over these
/// predicates, and some of it would trip width assertions downstream.
fn context_fits(a: &Acfa, preds: &PredSet, cfa: &Cfa) -> bool {
    let labels_fit = a
        .locs()
        .flat_map(|q| a.region(q).cubes())
        .all(|c| c.width() == preds.len() && c.literals().all(|(i, _)| preds.is_global_only(i)));
    let havocs_fit = a
        .edges()
        .iter()
        .flat_map(|e| &e.havoc)
        .all(|v| v.index() < cfa.vars().len() && cfa.is_global(*v));
    labels_fit && havocs_fit
}

/// Banks one outer round's solver counters into the running totals
/// (each round owns a fresh solver handle inside its [`AbsCtx`]).
fn absorb_round(stats: &mut CircStats, abs: &AbsCtx) {
    let sc = abs.solver_counters();
    stats.pipeline.solver.add(&sc);
    stats.smt_queries += sc.queries;
}

/// Finalizes the run's statistics: banks the live round's solver
/// counters (if any), takes the shared cache's per-run delta, records
/// the governor's accounting, and stamps the wall clock.
fn seal_stats(
    stats: &mut CircStats,
    live_round: Option<&AbsCtx>,
    cache: &AbsCache,
    abs_base: &AbsCounters,
    budget: &Budget,
    start: Instant,
) {
    if let Some(abs) = live_round {
        absorb_round(stats, abs);
    }
    let abs_delta = cache.counters().since(abs_base);
    stats.smt_queries += abs_delta.queries;
    stats.pipeline.abs = abs_delta;
    seal_governor(stats, budget);
    stats.elapsed = start.elapsed();
}

/// Copies the budget's accounting (bytes charged, polls, injected
/// faults) into the pipeline statistics. Split out of [`seal_stats`]
/// because the panic-containment path has no cache baseline to diff
/// but still wants the governor's view of the aborted run.
fn seal_governor(stats: &mut CircStats, budget: &Budget) {
    stats.pipeline.mem_charged_bytes = budget.charged_bytes();
    stats.pipeline.budget_polls = budget.polls();
    stats.pipeline.faults_injected = budget.faults().injected();
}

/// Runs [`maybe_collapse`] with phase timing and counter bookkeeping.
fn timed_collapse(acfa: &Acfa, minimize: bool, stats: &mut CircStats) -> circ_acfa::CollapseResult {
    let t = Instant::now();
    let collapsed = maybe_collapse(acfa, minimize);
    stats.pipeline.phases.collapse += t.elapsed();
    stats.pipeline.collapse_runs += 1;
    stats.pipeline.collapse_iterations += collapsed.iterations as u64;
    collapsed
}

/// Collapses the exported ARG into its weak-bisimilarity quotient, or
/// wraps it identically when minimization is disabled (ablation mode).
fn maybe_collapse(acfa: &Acfa, minimize: bool) -> circ_acfa::CollapseResult {
    if minimize {
        collapse(acfa)
    } else {
        circ_acfa::CollapseResult {
            acfa: acfa.clone(),
            map: (0..acfa.num_locs() as u32).map(circ_acfa::AcfaLocId).collect(),
            iterations: 0,
        }
    }
}

/// The ω-goodness check of §5: with `R` the counter configurations the
/// environment alone can reach, every `A`-transition `q′ -Y→ q″`
/// enabled at some ARG location's class must map that location's
/// region back into itself: `(∃Y. r(n)) ∧ r(q″) ⊆ r(n)`.
///
/// Collapse's initial partition keys on `(region, atomic)`, so every
/// location of a class has the class's region and atomicity (and with
/// minimization off each class is one location). Each class is
/// therefore checked once, at its first member in ARG order: the
/// later members would repeat the same questions, so the verdict and
/// the first failing `(class, edge)` are those of a per-location loop.
///
/// The budget is polled once per enumerated counter configuration
/// (the exponential part) and once per class (each class checks every
/// context edge, with SMT queries behind the containment test).
fn omega_good(
    abs: &AbsCtx,
    g: &Acfa,
    collapsed: &circ_acfa::CollapseResult,
    k: u32,
    budget: &Budget,
) -> Result<bool, Exhausted> {
    let a = &collapsed.acfa;
    // Environment reachability must respect label consistency (the
    // conjunction of the occupied locations' regions), otherwise the
    // enabledness test below over-approximates so coarsely that the
    // goodness check can never conclude (e.g. it would consider two
    // threads simultaneously inside the test-and-set critical region).
    let reach: BTreeSet<ContextState> = context_reach_budgeted(
        a,
        k,
        CVal::Omega,
        &mut |cfg| config_consistent(abs, a, cfg),
        budget,
    )?;
    let mut checked = vec![false; a.num_locs()];
    for n in g.locs() {
        let q = collapsed.map[n.index()];
        if std::mem::replace(&mut checked[q.index()], true) {
            continue;
        }
        budget.check()?;
        if a.is_atomic(q) {
            // The main-thread surrogate occupies an atomic location:
            // scheduling gives it exclusive control, so no environment
            // transition can interleave here.
            continue;
        }
        for e in a.edges() {
            // Enabledness per §5: some reachable configuration has a
            // thread at e.src to fire it *and* a distinct thread at q
            // (the class the main-thread surrogate occupies) — and the
            // atomic-scheduling rule must allow a thread at e.src to
            // move (no atomic class other than e.src is occupied).
            let enabled = reach.iter().any(|cfg| {
                let placed = if q == e.src {
                    cfg.count(e.src).at_least(2)
                } else {
                    cfg.count(e.src).positive() && cfg.count(q).positive()
                };
                placed && cfg.atomic_occupied(a).all(|atomic_loc| atomic_loc == e.src)
            });
            if !enabled {
                continue;
            }
            // goodness: (∃Y. r(n)) ∧ r(e.dst) ⊆ r(n)
            let preds = abs.preds();
            let keep =
                |i: circ_acfa::PredIx| !preds.pred_vars(i).iter().any(|v| e.havoc.contains(v));
            let projected = g.region(n).project(&keep);
            let result = projected.meet(a.region(e.dst));
            // Discard semantically empty cubes before the containment
            // test.
            let mut filtered = circ_acfa::Region::empty();
            for c in result.cubes() {
                if abs.cube_sat(c) {
                    filtered.add(c.clone());
                }
            }
            if !abs.region_contained(&filtered, g.region(n)) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Is the conjunction of the occupied locations' labels satisfiable?
fn config_consistent(abs: &AbsCtx, a: &Acfa, cfg: &ContextState) -> bool {
    let mut acc: Option<Region> = None;
    for n in cfg.occupied() {
        let r = a.region(n);
        let next = match acc {
            None => r.clone(),
            Some(have) => have.meet(r),
        };
        if next.is_empty() {
            return false;
        }
        acc = Some(next);
    }
    match acc {
        None => true,
        Some(r) => r.cubes().iter().any(|c| abs.cube_sat(c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    thread_local! {
        /// `(per-class verdict, per-location verdict)` of every
        /// goodness check run on this thread while recording is on.
        static GOODNESS: RefCell<Option<Vec<(bool, bool)>>> = const { RefCell::new(None) };
    }

    /// Runs the goodness check on `(g, collapsed)` both per class
    /// and per location, when this thread is recording.
    pub(super) fn record_goodness(
        abs: &AbsCtx,
        g: &Acfa,
        collapsed: &circ_acfa::CollapseResult,
        k: u32,
    ) {
        GOODNESS.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                let unlimited = Budget::unlimited();
                let check = |good: Result<bool, Exhausted>| good.expect("an unlimited budget");
                log.push((
                    check(omega_good(abs, g, collapsed, k, &unlimited)),
                    check(omega_good_per_location(abs, g, collapsed, k, &unlimited)),
                ));
            }
        });
    }

    /// The goodness check as one pass over every ARG location.
    fn omega_good_per_location(
        abs: &AbsCtx,
        g: &Acfa,
        collapsed: &circ_acfa::CollapseResult,
        k: u32,
        budget: &Budget,
    ) -> Result<bool, Exhausted> {
        let a = &collapsed.acfa;
        let reach = context_reach_budgeted(
            a,
            k,
            CVal::Omega,
            &mut |cfg| config_consistent(abs, a, cfg),
            budget,
        )?;
        for n in g.locs() {
            budget.check()?;
            let q = collapsed.map[n.index()];
            if a.is_atomic(q) {
                continue;
            }
            for e in a.edges() {
                let enabled = reach.iter().any(|cfg| {
                    let placed = if q == e.src {
                        cfg.count(e.src).at_least(2)
                    } else {
                        cfg.count(e.src).positive() && cfg.count(q).positive()
                    };
                    placed && cfg.atomic_occupied(a).all(|atomic_loc| atomic_loc == e.src)
                });
                if !enabled {
                    continue;
                }
                let preds = abs.preds();
                let keep =
                    |i: circ_acfa::PredIx| !preds.pred_vars(i).iter().any(|v| e.havoc.contains(v));
                let result = g.region(n).project(&keep).meet(a.region(e.dst));
                let mut filtered = Region::empty();
                for c in result.cubes() {
                    if abs.cube_sat(c) {
                        filtered.add(c.clone());
                    }
                }
                if !abs.region_contained(&filtered, g.region(n)) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Every program of a Table 1 model, one per `#race` variable.
    fn table1_programs() -> Vec<(String, MtProgram)> {
        let mut out = Vec::new();
        for m in circ_nesc::models() {
            let compiled = m.compile().expect("benchmark models compile");
            for &var in &compiled.race_vars {
                out.push((format!("{}/{var}", m.name), MtProgram::new(compiled.cfa.clone(), var)));
            }
        }
        out
    }

    /// The `phases`-phase token ring, or with `racy` its variant whose
    /// phase 0 takes the token outside `atomic`.
    fn ring(phases: u32, racy: bool) -> MtProgram {
        let mut src = circ_nesc::token_ring_source(phases);
        if racy {
            let take = "if (mode == 0) { mode = 1; got = 1; }";
            let guarded = format!("atomic {{ {take} }}");
            assert!(src.contains(&guarded), "phase 0 grabs the token atomically");
            src = src.replacen(&guarded, take, 1);
        }
        let compiled = circ_frontend::compile(&src).expect("generated rings compile");
        MtProgram::new(compiled.cfa, compiled.race_vars[0])
    }

    #[test]
    fn per_class_goodness_matches_the_per_location_loop() {
        let mut programs = table1_programs();
        for phases in 3..=5 {
            programs.push((format!("ring{phases}"), ring(phases, false)));
            programs.push((format!("ring{phases}_racy0"), ring(phases, true)));
        }
        let (mut checks, mut failures) = (0, 0);
        for (name, program) in &programs {
            GOODNESS.with(|log| *log.borrow_mut() = Some(Vec::new()));
            let outcome = circ(program, &CircConfig::omega());
            let log = GOODNESS.with(|log| log.borrow_mut().take()).unwrap_or_default();
            assert!(
                !matches!(&outcome, CircOutcome::Unknown(u) if matches!(u.reason, UnknownReason::InternalError(_))),
                "{name}: the run panicked"
            );
            for (i, (per_class, per_location)) in log.iter().enumerate() {
                assert_eq!(per_class, per_location, "{name}: goodness check {i}");
            }
            checks += log.len();
            failures += log.iter().filter(|(good, _)| !good).count();
        }
        assert!(failures > 0 && failures < checks, "{checks} checks, {failures} failed");
    }
}
