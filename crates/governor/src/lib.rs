//! Resource governance for the CIRC pipeline.
//!
//! CIRC's outer CEGAR loop and inner assume–guarantee alternation can
//! diverge on adversarial models; the paper's own recourse is to give
//! up after bounded refinement. This crate supplies the primitives
//! that turn "give up" into a first-class, graceful outcome:
//!
//! * [`Budget`] — a cloneable handle bundling an optional wall-clock
//!   deadline, an optional accounted-memory ceiling, a cooperative
//!   [`CancelToken`], and a [`FaultPlan`]. Long-running phases call
//!   [`Budget::check`] at loop granularity and [`Budget::charge`]
//!   when they grow a tracked arena (ARG nodes, solver formula
//!   cache); exhaustion surfaces as [`Exhausted`], which callers map
//!   to an `Unknown` verdict carrying partial stats.
//! * [`CancelToken`] — an `Arc<AtomicBool>` flag that lets an
//!   embedder abort a run from another thread without killing it.
//! * [`FaultPlan`] — a deterministic, seeded fault-injection
//!   schedule. Injection points (solver answers `Unknown`, a worker
//!   task panics, a phase stalls) compile to constant `false` unless
//!   the `inject` cargo feature is on, so production builds pay
//!   nothing; under the feature the schedule is a pure function of
//!   the seed and per-site event counters, so a failing schedule
//!   replays exactly.
//!
//! Memory accounting is deliberately *charged*, not measured: phases
//! report approximate byte costs for the structures they allocate.
//! The ceiling is a governance proxy (stop runs that grow without
//! bound), not an allocator-level limit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag shared between an embedder and a
/// running pipeline. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; takes effect at the next
    /// [`Budget::check`] poll in the governed run.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a governed run was cut short.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exhausted {
    /// The wall-clock deadline passed. Carries the configured limit.
    Deadline {
        /// The timeout the run was configured with.
        limit: Duration,
    },
    /// The accounted-memory ceiling was exceeded.
    MemoryLimit {
        /// The configured ceiling in bytes.
        limit_bytes: u64,
        /// Bytes charged when the ceiling tripped.
        charged_bytes: u64,
    },
    /// The embedder cancelled the run via [`CancelToken::cancel`].
    Cancelled,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhausted::Deadline { limit } => {
                write!(f, "wall-clock deadline exceeded ({:.1}s budget)", limit.as_secs_f64())
            }
            Exhausted::MemoryLimit { limit_bytes, charged_bytes } => write!(
                f,
                "memory budget exceeded ({charged_bytes} bytes charged, {limit_bytes} byte ceiling)"
            ),
            Exhausted::Cancelled => write!(f, "cancelled by caller"),
        }
    }
}

#[derive(Debug)]
struct BudgetInner {
    deadline: Option<Instant>,
    timeout: Option<Duration>,
    mem_limit_bytes: Option<u64>,
    charged: AtomicU64,
    polls: AtomicU64,
    token: CancelToken,
    faults: FaultPlan,
}

/// A cloneable resource budget threaded through every long-running
/// phase of the pipeline. Clones share one accounting state, so a
/// byte charged in a solver shard counts against the same ceiling as
/// a byte charged in the reachability loop.
#[derive(Debug, Clone)]
pub struct Budget {
    inner: Arc<BudgetInner>,
}

impl Budget {
    /// A budget with no deadline, no memory ceiling, a fresh token,
    /// and an inert fault plan. [`Budget::check`] never fails.
    pub fn unlimited() -> Budget {
        Budget::new(None, None, CancelToken::new(), FaultPlan::inert())
    }

    /// Build a budget. The deadline clock starts *now*: a `timeout`
    /// of one second means one second from this call. A deadline too
    /// far out for the platform clock to represent is no deadline.
    pub fn new(
        timeout: Option<Duration>,
        mem_limit_bytes: Option<u64>,
        token: CancelToken,
        faults: FaultPlan,
    ) -> Budget {
        Budget {
            inner: Arc::new(BudgetInner {
                deadline: timeout.and_then(|t| Instant::now().checked_add(t)),
                timeout,
                mem_limit_bytes,
                charged: AtomicU64::new(0),
                polls: AtomicU64::new(0),
                token,
                faults,
            }),
        }
    }

    /// A budget with only a wall-clock deadline (convenience for
    /// tests).
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget::new(Some(timeout), None, CancelToken::new(), FaultPlan::inert())
    }

    /// A budget with only a memory ceiling (convenience for tests).
    pub fn with_mem_limit(limit_bytes: u64) -> Budget {
        Budget::new(None, Some(limit_bytes), CancelToken::new(), FaultPlan::inert())
    }

    /// Poll the budget. Checks, in order: an injected stall (feature
    /// `inject` only), cancellation, the deadline, the memory
    /// ceiling. Cheap enough to call once per BFS commit, Jacobi
    /// pass, placement candidate, or DPLL(T) theory round.
    pub fn check(&self) -> Result<(), Exhausted> {
        let inner = &*self.inner;
        inner.polls.fetch_add(1, Ordering::Relaxed);
        inner.faults.maybe_stall();
        if inner.token.is_cancelled() {
            return Err(Exhausted::Cancelled);
        }
        if let (Some(deadline), Some(timeout)) = (inner.deadline, inner.timeout) {
            if Instant::now() >= deadline {
                return Err(Exhausted::Deadline { limit: timeout });
            }
        }
        if let Some(limit_bytes) = inner.mem_limit_bytes {
            let charged_bytes = inner.charged.load(Ordering::Relaxed);
            if charged_bytes > limit_bytes {
                return Err(Exhausted::MemoryLimit { limit_bytes, charged_bytes });
            }
        }
        Ok(())
    }

    /// Charge `bytes` of approximate arena growth against the
    /// ceiling. Never blocks or fails; the overdraft is detected by
    /// the next [`Budget::check`].
    pub fn charge(&self, bytes: u64) {
        self.inner.charged.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total bytes charged so far across all clones.
    pub fn charged_bytes(&self) -> u64 {
        self.inner.charged.load(Ordering::Relaxed)
    }

    /// Total [`Budget::check`] polls so far across all clones.
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Relaxed)
    }

    /// The cancellation token this budget polls.
    pub fn token(&self) -> &CancelToken {
        &self.inner.token
    }

    /// The fault-injection schedule this budget carries.
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.faults
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

/// Splits an optional wall-clock budget evenly across `n` units of
/// work (batch mode: one slice per input file). `None` stays
/// unbounded. The division floors: a 10 s budget over 3 files gives
/// each a hair over 3.3 s, and a budget too small to slice honestly
/// yields near-zero slices that exhaust immediately — reported as
/// budget exhaustion, not silently rounded up.
///
/// Each unit must construct its own [`Budget`] from the slice *when
/// it starts* ([`Budget::new`] starts the deadline clock at
/// construction), so slices are per-unit wall clocks, not a shared
/// global deadline — which keeps a unit's observable budget behavior
/// independent of when the scheduler happens to start it.
pub fn carve_timeout(total: Option<Duration>, n: usize) -> Option<Duration> {
    let n = u32::try_from(n.max(1)).unwrap_or(u32::MAX);
    total.map(|t| t / n)
}

/// Splits an optional accounted-memory ceiling evenly across `n`
/// units of work. `None` stays unbounded; the division floors.
pub fn carve_mem_limit(total: Option<u64>, n: usize) -> Option<u64> {
    let n = u64::try_from(n.max(1)).unwrap_or(u64::MAX);
    total.map(|m| m / n)
}

/// A service-wide resource envelope from which an admission
/// controller carves per-request budgets.
///
/// The two axes carve differently because they exhaust differently:
///
/// * **wall clock** is granted whole — concurrent requests each get
///   the full per-request deadline because their wall-clock slices
///   run on independent clocks (request B's seconds tick whether or
///   not request A is still running, so dividing by concurrency
///   would punish a request for its neighbors' mere existence);
/// * **accounted memory** is divided by the concurrency ceiling —
///   the slices coexist in one address space, so only
///   `total / max_inflight` per request keeps the service's total
///   charge bounded by the envelope no matter what mix of requests
///   is in flight.
///
/// `None` on either axis stays unbounded, exactly like the
/// [`carve_timeout`] / [`carve_mem_limit`] primitives this composes.
#[derive(Debug, Clone, Default)]
pub struct Envelope {
    /// Wall-clock deadline granted to each admitted request.
    pub timeout: Option<Duration>,
    /// Total accounted-memory ceiling across all in-flight requests.
    pub mem_limit_bytes: Option<u64>,
}

impl Envelope {
    /// The per-request `(deadline, memory ceiling)` slice when up to
    /// `max_inflight` requests may run concurrently.
    pub fn carve(&self, max_inflight: usize) -> (Option<Duration>, Option<u64>) {
        (self.timeout, carve_mem_limit(self.mem_limit_bytes, max_inflight))
    }
}

/// Extract a human-readable message from a panic payload (the `Box`
/// returned by [`std::panic::catch_unwind`]). Recognizes the two
/// payload types `panic!` actually produces.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[derive(Debug)]
struct FaultInner {
    seed: u64,
    solver_unknown_per_mille: u16,
    task_panic_per_mille: u16,
    stall: Option<Duration>,
    /// Fail the `nth` occurrence of `point` (see [`IoFaultPoint`] for
    /// which points are single-shot and which are sticky).
    io_fault: Option<(IoFaultPoint, u64)>,
    #[cfg_attr(not(feature = "inject"), allow(dead_code))]
    solver_events: AtomicU64,
    #[cfg_attr(not(feature = "inject"), allow(dead_code))]
    task_events: AtomicU64,
    #[cfg_attr(not(feature = "inject"), allow(dead_code))]
    io_events: [AtomicU64; 8],
    #[cfg_attr(not(feature = "inject"), allow(dead_code))]
    stalled: AtomicBool,
    injected: AtomicU64,
}

/// A deterministic fault-injection schedule.
///
/// The plan is a pure function of its seed: each injection site keeps
/// its own event counter, and event `i` at a site fires iff
/// `splitmix64(seed ⊕ salt ⊕ i) mod 1000 < rate`. Same seed, same
/// rates, same call sequence ⇒ same injections, so a failing schedule
/// found by a sweep replays exactly.
///
/// Without the `inject` cargo feature every decision method returns
/// `false` (or is a no-op) unconditionally — call sites compile in
/// all configurations and the branch folds away in release builds.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<FaultInner>>,
}

/// Per-site salts so the three injection streams are independent.
#[cfg_attr(not(feature = "inject"), allow(dead_code))]
const SALT_SOLVER: u64 = 0x736f_6c76_6572_3a31; // "solver:1"
#[cfg_attr(not(feature = "inject"), allow(dead_code))]
const SALT_TASK: u64 = 0x7461_736b_3a32_3232; // "task:222"

/// The enumerated I/O crash/fault points of the storage layer
/// (`circ-store`). Each names one primitive operation of the durable
/// write protocol or its surroundings; a [`FaultPlan`] can be armed to
/// fail exactly the *n*-th occurrence of one point, which is how the
/// torture harness simulates a crash at every stage of a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoFaultPoint {
    /// Writing the temp file's bytes (fails after a partial write, so
    /// a truncated `*.tmp` is left behind, as a real crash would).
    TmpWrite,
    /// `fsync` of the fully written temp file.
    FileSync,
    /// The atomic rename of temp over the destination.
    Rename,
    /// `fsync` of the parent directory after the rename.
    DirSync,
    /// Acquiring the cache directory's advisory lock.
    LockAcquire,
    /// Appending one line to the batch journal.
    JournalAppend,
    /// Disk-full: unlike the crash points above, this one is *sticky*
    /// — every write-class operation from the armed occurrence onward
    /// fails with a storage-full error, the way a full disk keeps
    /// rejecting writes.
    NoSpace,
    /// Reading a snapshot back (fails after yielding a truncated
    /// prefix, which the checksum envelope must reject).
    Read,
}

impl IoFaultPoint {
    /// Every point, in a stable order the torture harness enumerates.
    pub const ALL: [IoFaultPoint; 8] = [
        IoFaultPoint::TmpWrite,
        IoFaultPoint::FileSync,
        IoFaultPoint::Rename,
        IoFaultPoint::DirSync,
        IoFaultPoint::LockAcquire,
        IoFaultPoint::JournalAppend,
        IoFaultPoint::NoSpace,
        IoFaultPoint::Read,
    ];

    /// Stable human-readable name (used in logs and harness output).
    pub fn name(self) -> &'static str {
        match self {
            IoFaultPoint::TmpWrite => "tmp-write",
            IoFaultPoint::FileSync => "file-sync",
            IoFaultPoint::Rename => "rename",
            IoFaultPoint::DirSync => "dir-sync",
            IoFaultPoint::LockAcquire => "lock-acquire",
            IoFaultPoint::JournalAppend => "journal-append",
            IoFaultPoint::NoSpace => "no-space",
            IoFaultPoint::Read => "read",
        }
    }

    #[cfg_attr(not(feature = "inject"), allow(dead_code))]
    fn ix(self) -> usize {
        match self {
            IoFaultPoint::TmpWrite => 0,
            IoFaultPoint::FileSync => 1,
            IoFaultPoint::Rename => 2,
            IoFaultPoint::DirSync => 3,
            IoFaultPoint::LockAcquire => 4,
            IoFaultPoint::JournalAppend => 5,
            IoFaultPoint::NoSpace => 6,
            IoFaultPoint::Read => 7,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// A plan that never injects anything (the default).
    pub fn inert() -> FaultPlan {
        FaultPlan { inner: None }
    }

    /// A plan seeded with `seed` and all rates zero; arm individual
    /// faults with the `with_*` builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            inner: Some(Arc::new(FaultInner {
                seed,
                solver_unknown_per_mille: 0,
                task_panic_per_mille: 0,
                stall: None,
                io_fault: None,
                solver_events: AtomicU64::new(0),
                task_events: AtomicU64::new(0),
                io_events: Default::default(),
                stalled: AtomicBool::new(false),
                injected: AtomicU64::new(0),
            })),
        }
    }

    fn rebuild(&self, f: impl FnOnce(&mut FaultSpec)) -> FaultPlan {
        let old = self.inner.as_deref();
        let mut spec = FaultSpec {
            seed: old.map_or(0, |o| o.seed),
            solver_unknown_per_mille: old.map_or(0, |o| o.solver_unknown_per_mille),
            task_panic_per_mille: old.map_or(0, |o| o.task_panic_per_mille),
            stall: old.and_then(|o| o.stall),
            io_fault: old.and_then(|o| o.io_fault),
        };
        f(&mut spec);
        FaultPlan {
            inner: Some(Arc::new(FaultInner {
                seed: spec.seed,
                solver_unknown_per_mille: spec.solver_unknown_per_mille.min(1000),
                task_panic_per_mille: spec.task_panic_per_mille.min(1000),
                stall: spec.stall,
                io_fault: spec.io_fault,
                solver_events: AtomicU64::new(0),
                task_events: AtomicU64::new(0),
                io_events: Default::default(),
                stalled: AtomicBool::new(false),
                injected: AtomicU64::new(0),
            })),
        }
    }

    /// A copy of this plan with the same rates, the seed xor'd with
    /// `salt`, and fresh per-site event counters. This is how a batch
    /// supervisor derives *per-file, per-attempt* schedules from one
    /// template plan: seeding with `file_digest ^ attempt` makes each
    /// file's schedule a pure function of its content, independent of
    /// scheduling order — which is what keeps fault-heavy batch runs
    /// jobs-invariant — while still giving retry attempts genuinely
    /// different (but replayable) schedules. An inert plan stays
    /// inert.
    pub fn reseeded(&self, salt: u64) -> FaultPlan {
        if self.inner.is_none() {
            return FaultPlan::inert();
        }
        self.rebuild(|s| s.seed ^= salt)
    }

    /// Make the solver answer `Unknown` for `per_mille`‰ of queries.
    pub fn with_solver_unknown(&self, per_mille: u16) -> FaultPlan {
        self.rebuild(|s| s.solver_unknown_per_mille = per_mille)
    }

    /// Make worker tasks panic for `per_mille`‰ of tasks.
    pub fn with_task_panic(&self, per_mille: u16) -> FaultPlan {
        self.rebuild(|s| s.task_panic_per_mille = per_mille)
    }

    /// Stall the first budget poll for `dur` (simulates a phase
    /// blowing straight past its deadline between polls).
    pub fn with_stall(&self, dur: Duration) -> FaultPlan {
        self.rebuild(|s| s.stall = Some(dur))
    }

    /// Fail the `nth` (0-based) occurrence of I/O crash point `point`.
    /// [`IoFaultPoint::NoSpace`] is sticky — it fails occurrence `nth`
    /// and every write-class operation after it; the other points fire
    /// exactly once, simulating a crash at that step.
    pub fn with_io_fault(&self, point: IoFaultPoint, nth: u64) -> FaultPlan {
        self.rebuild(|s| s.io_fault = Some((point, nth)))
    }

    #[cfg(feature = "inject")]
    fn fire(&self, salt: u64, counter: impl Fn(&FaultInner) -> &AtomicU64, rate: u16) -> bool {
        let Some(inner) = self.inner.as_deref() else { return false };
        if rate == 0 {
            return false;
        }
        let i = counter(inner).fetch_add(1, Ordering::Relaxed);
        let hit = splitmix64(inner.seed ^ salt ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1000
            < u64::from(rate);
        if hit {
            inner.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Should this solver query be answered `Unknown`? Always `false`
    /// without the `inject` feature.
    #[must_use]
    pub fn solver_unknown(&self) -> bool {
        #[cfg(feature = "inject")]
        {
            self.fire(
                SALT_SOLVER,
                |i| &i.solver_events,
                self.inner.as_deref().map_or(0, |i| i.solver_unknown_per_mille),
            )
        }
        #[cfg(not(feature = "inject"))]
        {
            false
        }
    }

    /// Should this worker task panic? Always `false` without the
    /// `inject` feature.
    #[must_use]
    pub fn task_panic(&self) -> bool {
        #[cfg(feature = "inject")]
        {
            self.fire(
                SALT_TASK,
                |i| &i.task_events,
                self.inner.as_deref().map_or(0, |i| i.task_panic_per_mille),
            )
        }
        #[cfg(not(feature = "inject"))]
        {
            false
        }
    }

    /// Should this occurrence of I/O crash point `point` fail? Always
    /// `false` without the `inject` feature. Each point keeps its own
    /// event counter, so "the `nth` rename" is well defined no matter
    /// how many writes happen in between; the armed point fires at
    /// exactly occurrence `nth` (or, for the sticky
    /// [`IoFaultPoint::NoSpace`], at every occurrence from `nth` on).
    #[must_use]
    pub fn io_fail(&self, point: IoFaultPoint) -> bool {
        #[cfg(feature = "inject")]
        {
            let Some(inner) = self.inner.as_deref() else { return false };
            let Some((armed, nth)) = inner.io_fault else { return false };
            if armed != point {
                return false;
            }
            let i = inner.io_events[point.ix()].fetch_add(1, Ordering::Relaxed);
            let hit = if armed == IoFaultPoint::NoSpace { i >= nth } else { i == nth };
            if hit {
                inner.injected.fetch_add(1, Ordering::Relaxed);
            }
            hit
        }
        #[cfg(not(feature = "inject"))]
        {
            let _ = point;
            false
        }
    }

    /// Sleep for the configured stall duration, once per plan. No-op
    /// without the `inject` feature or when no stall is armed.
    pub fn maybe_stall(&self) {
        #[cfg(feature = "inject")]
        if let Some(inner) = self.inner.as_deref() {
            if let Some(dur) = inner.stall {
                if !inner.stalled.swap(true, Ordering::Relaxed) {
                    inner.injected.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(dur);
                }
            }
        }
    }

    /// How many faults have fired so far.
    pub fn injected(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.injected.load(Ordering::Relaxed))
    }
}

struct FaultSpec {
    seed: u64,
    solver_unknown_per_mille: u16,
    task_panic_per_mille: u16,
    stall: Option<Duration>,
    io_fault: Option<(IoFaultPoint, u64)>,
}

/// A deterministic, budget-aware retry schedule for *transient*
/// failures (contained panics, isolated-child crashes, injected
/// faults). The policy is a pure function of `(seed, key, attempt)`,
/// so a batch replays the same backoffs regardless of worker
/// scheduling; keying by the input's content digest keeps the
/// schedule independent of file order.
///
/// Backoff for attempt `a` (1-based; attempt 1 is the original try)
/// is a seeded draw from `[0, base · 2^(a−1)]`, additionally capped
/// at a quarter of the unit's *remaining* budget — a file with 200 ms
/// left never sleeps 500 ms before its last try, and a file with no
/// budget left retries immediately or not at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` = never retry).
    pub max_attempts: u32,
    /// Seed for the backoff jitter stream.
    pub seed: u64,
    /// Base backoff; attempt `a`'s cap is `base · 2^(a−1)`.
    pub base_backoff: Duration,
}

impl RetryPolicy {
    /// The do-nothing policy: one attempt, no retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, seed: 0, base_backoff: Duration::ZERO }
    }

    /// A policy allowing `retries` retries (so `retries + 1` total
    /// attempts) with the default 25 ms base backoff.
    pub fn with_retries(retries: u32, seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: retries.saturating_add(1),
            seed,
            base_backoff: Duration::from_millis(25),
        }
    }

    /// Whether another attempt is allowed after `attempt` (1-based)
    /// attempts have already run.
    pub fn should_retry(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }

    /// The deterministic backoff to sleep before attempt
    /// `attempt + 1`, given that attempt `attempt` just failed.
    /// `remaining` is the unit's unspent wall-clock budget (`None` =
    /// unbounded).
    pub fn backoff(&self, key: u64, attempt: u32, remaining: Option<Duration>) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let mut cap = self.base_backoff.saturating_mul(1 << exp);
        if let Some(remaining) = remaining {
            cap = cap.min(remaining / 4);
        }
        let cap_ms = cap.as_millis() as u64;
        if cap_ms == 0 {
            return Duration::ZERO;
        }
        let draw = splitmix64(self.seed ^ key ^ u64::from(attempt).wrapping_mul(0x9E37_79B9));
        Duration::from_millis(draw % (cap_ms + 1))
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carving_splits_evenly_and_keeps_unbounded() {
        assert_eq!(carve_timeout(None, 7), None);
        assert_eq!(carve_mem_limit(None, 7), None);
        assert_eq!(
            carve_timeout(Some(Duration::from_secs(10)), 4),
            Some(Duration::from_millis(2500))
        );
        assert_eq!(carve_mem_limit(Some(1 << 20), 4), Some(1 << 18));
        // Degenerate unit counts do not divide by zero.
        assert_eq!(carve_timeout(Some(Duration::from_secs(1)), 0), Some(Duration::from_secs(1)));
        assert_eq!(carve_mem_limit(Some(64), 0), Some(64));
        // A budget too small to slice yields honest near-zero slices.
        assert_eq!(carve_mem_limit(Some(3), 4), Some(0));
    }

    #[test]
    fn envelope_carves_memory_but_not_wall_clock() {
        let env =
            Envelope { timeout: Some(Duration::from_secs(30)), mem_limit_bytes: Some(1 << 30) };
        let (t, m) = env.carve(4);
        assert_eq!(t, Some(Duration::from_secs(30)), "deadlines are per-request clocks");
        assert_eq!(m, Some(1 << 28), "memory slices coexist and must sum to the envelope");
        // Unbounded axes stay unbounded; degenerate concurrency is safe.
        let (t, m) = Envelope::default().carve(0);
        assert_eq!((t, m), (None, None));
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        b.charge(u64::MAX / 2);
        for _ in 0..100 {
            assert_eq!(b.check(), Ok(()));
        }
        assert_eq!(b.polls(), 100);
        assert_eq!(b.charged_bytes(), u64::MAX / 2);
    }

    #[test]
    fn deadline_fires_after_timeout() {
        let b = Budget::with_timeout(Duration::from_millis(10));
        assert_eq!(b.check(), Ok(()));
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.check(), Err(Exhausted::Deadline { limit: Duration::from_millis(10) }));
    }

    #[test]
    fn unrepresentable_deadline_is_no_deadline() {
        let b = Budget::with_timeout(Duration::MAX);
        assert_eq!(b.check(), Ok(()));
        let b = Budget::with_timeout(Duration::from_secs(u64::MAX));
        assert_eq!(b.check(), Ok(()));
    }

    #[test]
    fn memory_ceiling_fires_on_overdraft() {
        let b = Budget::with_mem_limit(1000);
        b.charge(900);
        assert_eq!(b.check(), Ok(()));
        b.charge(200);
        assert_eq!(
            b.check(),
            Err(Exhausted::MemoryLimit { limit_bytes: 1000, charged_bytes: 1100 })
        );
    }

    #[test]
    fn charges_are_shared_across_clones() {
        let b = Budget::with_mem_limit(100);
        let clone = b.clone();
        clone.charge(200);
        assert!(matches!(b.check(), Err(Exhausted::MemoryLimit { .. })));
    }

    #[test]
    fn cancellation_is_observed_at_the_next_poll() {
        let token = CancelToken::new();
        let b = Budget::new(None, None, token.clone(), FaultPlan::inert());
        assert_eq!(b.check(), Ok(()));
        token.cancel();
        assert_eq!(b.check(), Err(Exhausted::Cancelled));
        assert!(b.token().is_cancelled());
    }

    #[test]
    fn exhausted_messages_are_descriptive() {
        let d = Exhausted::Deadline { limit: Duration::from_secs(2) };
        assert!(d.to_string().contains("2.0s"));
        let m = Exhausted::MemoryLimit { limit_bytes: 10, charged_bytes: 20 };
        assert!(m.to_string().contains("20 bytes charged"));
        assert!(Exhausted::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&"boom".to_string()), "boom");
        assert_eq!(panic_message(&42u32), "non-string panic payload");
    }

    #[test]
    fn retry_policy_bounds_attempts_and_backoffs() {
        let none = RetryPolicy::none();
        assert!(!none.should_retry(1));
        assert_eq!(none.backoff(1, 1, None), Duration::ZERO);

        let p = RetryPolicy::with_retries(2, 42);
        assert_eq!(p.max_attempts, 3);
        assert!(p.should_retry(1));
        assert!(p.should_retry(2));
        assert!(!p.should_retry(3));

        // Deterministic: same (seed, key, attempt) ⇒ same backoff;
        // different keys draw independently.
        assert_eq!(p.backoff(7, 1, None), p.backoff(7, 1, None));
        // Bounded by the exponential cap.
        for attempt in 1..=4u32 {
            let cap = p.base_backoff * (1 << (attempt - 1));
            assert!(p.backoff(7, attempt, None) <= cap, "attempt {attempt} exceeded cap");
        }
        // Budget-aware: a quarter of the remaining budget caps the draw.
        let tight = Duration::from_millis(8);
        assert!(p.backoff(7, 4, Some(tight)) <= tight / 4);
        assert_eq!(p.backoff(7, 4, Some(Duration::ZERO)), Duration::ZERO);
    }

    #[test]
    fn reseeded_plans_are_independent_but_replayable() {
        assert!(FaultPlan::inert().reseeded(99).inner.is_none(), "inert must stay inert");
        let template = FaultPlan::seeded(5).with_task_panic(500);
        let schedule =
            |plan: &FaultPlan| -> Vec<bool> { (0..32).map(|_| plan.task_panic()).collect() };
        #[cfg(feature = "inject")]
        {
            let a1 = schedule(&template.reseeded(1));
            let a1_again = schedule(&template.reseeded(1));
            assert_eq!(a1, a1_again, "same salt must replay exactly");
            let a2 = schedule(&template.reseeded(2));
            assert_ne!(a1, a2, "different salts should diverge");
        }
        #[cfg(not(feature = "inject"))]
        {
            assert!(schedule(&template.reseeded(1)).iter().all(|&x| !x));
        }
    }

    #[test]
    fn inert_plan_never_fires() {
        let p = FaultPlan::inert();
        for _ in 0..100 {
            assert!(!p.solver_unknown());
            assert!(!p.task_panic());
        }
        p.maybe_stall();
        assert_eq!(p.injected(), 0);
    }

    #[cfg(not(feature = "inject"))]
    #[test]
    fn armed_plan_is_inert_without_the_feature() {
        let p = FaultPlan::seeded(7).with_solver_unknown(1000).with_task_panic(1000);
        assert!(!p.solver_unknown());
        assert!(!p.task_panic());
        assert_eq!(p.injected(), 0);
    }

    #[cfg(feature = "inject")]
    #[test]
    fn armed_plan_fires_deterministically() {
        let run = |seed: u64| -> Vec<bool> {
            let p = FaultPlan::seeded(seed).with_solver_unknown(500);
            (0..64).map(|_| p.solver_unknown()).collect()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert!(a.iter().any(|&x| x), "500 per mille should fire within 64 events");
        assert!(a.iter().any(|&x| !x), "500 per mille should also skip within 64 events");
        let c = run(12);
        assert_ne!(a, c, "different seeds should give different schedules");
    }

    #[cfg(feature = "inject")]
    #[test]
    fn full_rate_always_fires_and_counts() {
        let p = FaultPlan::seeded(3).with_task_panic(1000);
        for _ in 0..10 {
            assert!(p.task_panic());
        }
        assert_eq!(p.injected(), 10);
        // Solver stream is independent and unarmed.
        assert!(!p.solver_unknown());
    }

    #[cfg(feature = "inject")]
    #[test]
    fn stall_fires_once_and_trips_the_deadline() {
        let plan = FaultPlan::seeded(1).with_stall(Duration::from_millis(30));
        let b =
            Budget::new(Some(Duration::from_millis(10)), None, CancelToken::new(), plan.clone());
        // First poll absorbs the stall and then notices the deadline.
        assert!(matches!(b.check(), Err(Exhausted::Deadline { .. })));
        assert_eq!(plan.injected(), 1);
        // The stall is one-shot.
        let before = Instant::now();
        let _ = b.check();
        assert!(before.elapsed() < Duration::from_millis(20));
        assert_eq!(plan.injected(), 1);
    }
}
