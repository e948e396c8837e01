//! Minimal parallel-execution substrate for the CIRC front ends.
//!
//! The build environment has no crates.io access (all third-party
//! dependencies are vendored shims), so this crate hand-rolls the
//! primitives the batch and serve layers need on top of `std` alone.
//! The engine itself (ReachAndBuild, CheckSim, the solver) runs on
//! the calling thread; only whole files and requests run concurrently:
//!
//! * [`Pool`] — a scoped worker pool over [`std::thread::scope`] with
//!   an order-preserving, panic-containing `try_map`. Work is handed
//!   out through a single atomic index (work stealing degenerates to
//!   work *sharing*, which is enough for one task per file), and
//!   results are returned in input order so callers can merge them
//!   exactly as a sequential loop would have.
//! * [`ShardedMap`] — a `Mutex`-sharded hash map whose
//!   `get_or_compute` runs the closure *under the shard lock*. That
//!   choice trades some lock hold time for a strong accounting
//!   guarantee: the first query for a distinct key is exactly one
//!   miss and every later query is a hit, under any thread
//!   interleaving. `circ serve` shares one entailment cache across
//!   concurrent requests through it.
//! * [`FxHasher`] / [`FxHashMap`] — the one hasher every engine map
//!   uses: a fixed multiply-rotate hash over machine words, far
//!   cheaper than SipHash on the engine's structured keys (cubes,
//!   atoms, formulas) and the same in every process.
//!
//! All of them are deliberately deterministic: `Pool::try_map` output
//! order never depends on scheduling, and both the shard a key lands
//! in and its place inside the shard are fixed functions of the key.
//! Results still never depend on map iteration order: snapshots are
//! sorted by their callers and counters are computed under the shard
//! lock. `FxHasher` is not keyed, so crafted keys can collide on
//! purpose; the engine's inputs are bounded by each check's deadline
//! and memory budget, so the worst a flood can do is slow one check
//! into `Unknown(Budget)`.
//!
//! Panic containment: [`Pool::try_map`] catches unwinds *per task*
//! and returns them as [`TaskError`] values, so one bad task cannot
//! take down its siblings or leave the pool unusable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use circ_governor::panic_message;

/// A task that panicked inside [`Pool::try_map`], reduced to its
/// panic message. The unwind never crosses the pool boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// The panic payload, stringified.
    pub message: String,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskError {}

/// A fixed-width scoped worker pool.
///
/// `jobs == 1` (the default everywhere) runs tasks inline on the
/// calling thread; no threads are spawned.
///
/// The pool is stateless apart from its worker count, so it stays
/// fully usable after a task failure: a `try_map` whose results
/// contain [`TaskError`]s does not wedge later calls.
#[derive(Debug, Clone)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// Create a pool with `jobs` workers. `0` means "one worker per
    /// available CPU" (à la `make -j`).
    pub fn new(jobs: usize) -> Pool {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            jobs
        };
        Pool { jobs }
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Apply `f` to every item, returning per-task results in input
    /// order. A panicking task is caught inside its worker and
    /// surfaces as `Err(TaskError)` in its own slot; sibling tasks
    /// run to completion and the pool remains usable.
    ///
    /// With one worker (or fewer than two items) tasks run inline on
    /// the calling thread (still individually contained); otherwise
    /// items are pulled off a shared atomic counter by
    /// `min(jobs, len)` scoped threads.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, TaskError>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let run_one = |item: &T| -> Result<R, TaskError> {
            catch_unwind(AssertUnwindSafe(|| f(item)))
                .map_err(|payload| TaskError { message: panic_message(payload.as_ref()) })
        };
        if self.jobs <= 1 || items.len() < 2 {
            return items.iter().map(run_one).collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.jobs.min(items.len());
        let per_worker: Vec<Vec<(usize, Result<R, TaskError>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            out.push((i, run_one(&items[i])));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker threads contain panics via catch_unwind"))
                .collect()
        });
        let mut slots: Vec<Option<Result<R, TaskError>>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        for (i, r) in per_worker.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots.into_iter().map(|o| o.expect("every index was dispatched exactly once")).collect()
    }
}

/// A fast, fixed (unkeyed) hasher: each machine word is folded in by
/// a rotate, an xor and a multiply by an odd constant (the "Fx" hash
/// of the Firefox and rustc hash tables). Its high bits mix well and
/// its low bits well enough for `HashMap`'s probing; it is not
/// flood-resistant (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]; build with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// The [`FxHasher`] hash of `value`.
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    FxBuildHasher::default().hash_one(value)
}

/// The shard (out of `shards`) a key with hash `hash` belongs to.
/// Reads bits 32 and up: `HashMap` picks buckets from the low bits and
/// tags from the top seven, so shard members still spread over the
/// whole of their shard's table.
pub fn shard_index(hash: u64, shards: usize) -> usize {
    ((hash >> 32) as usize) % shards
}

/// Default shard count for [`ShardedMap`]. High enough that workers
/// rarely collide, low enough that `len()` stays cheap.
const DEFAULT_SHARDS: usize = 64;

/// A `Mutex`-sharded hash map with compute-under-lock memoization.
///
/// Shard selection is a pure function of the key's [`FxHasher`] hash
/// (the shards hash with it too), so a given key always lands in the
/// same shard and `get_or_compute` can make its exactly-once
/// guarantee: concurrent callers with equal keys serialize on the
/// shard lock, the first runs the closure, the rest observe the
/// cached value.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Box<[Mutex<FxHashMap<K, V>>]>,
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    /// An empty map with the default shard count.
    pub fn new() -> ShardedMap<K, V> {
        ShardedMap::with_shards(DEFAULT_SHARDS)
    }

    /// An empty map with `shards` shards (at least 1).
    pub fn with_shards(shards: usize) -> ShardedMap<K, V> {
        let shards = shards.max(1);
        ShardedMap { shards: (0..shards).map(|_| Mutex::new(FxHashMap::default())).collect() }
    }

    fn shard_of(&self, key: &K) -> usize {
        shard_index(fx_hash(key), self.shards.len())
    }

    /// Look up `key`, running `compute` under the shard lock on a
    /// miss. Returns the value and whether it was already cached.
    ///
    /// Holding the lock during `compute` is what makes hit/miss
    /// accounting exact under concurrency: per distinct key there is
    /// exactly one miss, ever. `compute` must not re-enter the same
    /// map (it may use *other* maps lower in the locking order).
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        // Recover from poisoning: a contained task panic must not
        // wedge the cache for sibling tasks. Entries are only written
        // after `compute` returns, so a poisoned shard still holds
        // consistent data.
        let mut shard = self.shards[self.shard_of(&key)].lock().unwrap_or_else(|e| e.into_inner());
        match shard.entry(key) {
            Entry::Occupied(hit) => (hit.get().clone(), true),
            Entry::Vacant(slot) => {
                let v = compute();
                slot.insert(v.clone());
                (v, false)
            }
        }
    }

    /// Inserts `key → value` directly, bypassing the compute path.
    /// Returns `false` (keeping the existing value) when the key is
    /// already present — first write wins, matching
    /// [`ShardedMap::get_or_compute`]. Used to merge entries learned
    /// elsewhere; deliberately touches no caller-side counters, so an
    /// inserted entry's first query still counts as a hit.
    pub fn insert(&self, key: K, value: V) -> bool {
        let mut shard = self.shards[self.shard_of(&key)].lock().unwrap_or_else(|e| e.into_inner());
        match shard.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    /// Clones out every entry. Order is unspecified (shard by shard in
    /// hash order: fixed for a given key set, but an artifact of the
    /// hasher); callers that need stable output must sort.
    pub fn snapshot(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        for s in self.shards.iter() {
            let shard = s.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Total number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len()).sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> ShardedMap<K, V> {
        ShardedMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Unwraps every task result (test helper for tasks that never
    /// panic).
    fn ok<R>(results: Vec<Result<R, TaskError>>) -> Vec<R> {
        results.into_iter().map(|r| r.expect("task panicked")).collect()
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq = ok(Pool::new(1).try_map(&items, |&x| x * 3 + 1));
        let par = ok(Pool::new(4).try_map(&items, |&x| x * 3 + 1));
        assert_eq!(seq, par);
        assert_eq!(par[17], 52);
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        assert!(Pool::new(0).jobs() >= 1);
        assert_eq!(Pool::new(3).jobs(), 3);
    }

    #[test]
    fn map_handles_empty_and_single_item_inputs() {
        let pool = Pool::new(8);
        assert_eq!(ok(pool.try_map(&[] as &[u32], |&x| x)), Vec::<u32>::new());
        assert_eq!(ok(pool.try_map(&[7u32], |&x| x + 1)), vec![8]);
    }

    #[test]
    fn get_or_compute_runs_the_closure_exactly_once_per_key() {
        let map: ShardedMap<u32, u32> = ShardedMap::new();
        let computes = AtomicU64::new(0);
        let keys: Vec<u32> = (0..400).map(|i| i % 20).collect();
        // Hammer 20 distinct keys from 8 workers: the compute count
        // must equal the number of distinct keys, not the number of
        // lookups, or parallel cache-miss counters would drift.
        ok(Pool::new(8).try_map(&keys, |&k| {
            map.get_or_compute(k, || {
                computes.fetch_add(1, Ordering::Relaxed);
                k * 2
            })
            .0
        }));
        assert_eq!(computes.load(Ordering::Relaxed), 20);
        assert_eq!(map.len(), 20);
        let (v, hit) = map.get_or_compute(7, || unreachable!("must be cached"));
        assert_eq!(v, 14);
        assert!(hit);
    }

    #[test]
    fn try_map_contains_panics_per_task() {
        for jobs in [1, 4] {
            let pool = Pool::new(jobs);
            let items: Vec<u32> = (0..20).collect();
            let results = pool.try_map(&items, |&x| {
                if x % 7 == 3 {
                    panic!("task {x} exploded");
                }
                x * 2
            });
            assert_eq!(results.len(), 20);
            for (i, r) in results.iter().enumerate() {
                if i % 7 == 3 {
                    let err = r.as_ref().expect_err("task should have failed");
                    assert_eq!(err.message, format!("task {i} exploded"));
                } else {
                    assert_eq!(*r.as_ref().expect("task should have succeeded"), (i as u32) * 2);
                }
            }
        }
    }

    #[test]
    fn pool_stays_usable_after_a_task_failure() {
        let pool = Pool::new(4);
        let items: Vec<u32> = (0..8).collect();
        let first = pool.try_map(&items, |&x| {
            if x == 5 {
                panic!("one bad apple");
            }
            x
        });
        assert!(first[5].is_err());
        assert_eq!(first.iter().filter(|r| r.is_ok()).count(), 7);
        // The same pool instance must run a clean map afterwards.
        let second = ok(pool.try_map(&items, |&x| x + 1));
        assert_eq!(second, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn task_error_displays_the_panic_message() {
        let items: Vec<u32> = (0..4).collect();
        let results = Pool::new(2).try_map(&items, |&x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
        let err = results[2].as_ref().expect_err("task 2 panicked");
        assert_eq!(err.to_string(), "worker task panicked: boom");
    }

    #[test]
    fn sharded_map_survives_a_poisoning_panic() {
        let map: ShardedMap<u32, u32> = ShardedMap::with_shards(1);
        map.get_or_compute(1, || 10);
        // Poison the single shard by panicking under its lock.
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            map.get_or_compute(2, || panic!("compute failed"));
        }));
        assert!(poisoned.is_err());
        // The map recovers: old entries are intact, new inserts work.
        let (v, hit) = map.get_or_compute(1, || unreachable!("must be cached"));
        assert_eq!((v, hit), (10, true));
        let (v, hit) = map.get_or_compute(3, || 30);
        assert_eq!((v, hit), (30, false));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn insert_preloads_and_first_write_wins() {
        let map: ShardedMap<u32, u32> = ShardedMap::new();
        assert!(map.insert(1, 10));
        assert!(!map.insert(1, 99), "second insert must not overwrite");
        // A preloaded key is a hit on first query, not a miss.
        let (v, hit) = map.get_or_compute(1, || unreachable!("preloaded"));
        assert_eq!((v, hit), (10, true));
        // get_or_compute entries also block later inserts.
        map.get_or_compute(2, || 20);
        assert!(!map.insert(2, 99));
        let (v, _) = map.get_or_compute(2, || unreachable!());
        assert_eq!(v, 20);
    }

    #[test]
    fn snapshot_round_trips_through_insert() {
        let map: ShardedMap<u64, u64> = ShardedMap::with_shards(8);
        for k in 0..50 {
            map.get_or_compute(k, || k * 7);
        }
        let mut snap = map.snapshot();
        snap.sort_unstable();
        assert_eq!(snap.len(), 50);
        let copy: ShardedMap<u64, u64> = ShardedMap::new();
        for (k, v) in snap {
            copy.insert(k, v);
        }
        assert_eq!(copy.len(), 50);
        let (v, hit) = copy.get_or_compute(21, || unreachable!());
        assert_eq!((v, hit), (147, true));
    }

    #[test]
    fn fx_hash_is_fixed_across_processes() {
        // Unkeyed: the same key hashes the same in every process and
        // build, so shard placement never varies between runs.
        assert_eq!(fx_hash(&0u64), 0);
        assert_eq!(fx_hash(&1u64), FX_SEED);
        assert_eq!(fx_hash(&(1u32, 2i64)), fx_hash(&(1u32, 2i64)));
        assert_ne!(fx_hash(&(1u32, 2i64)), fx_hash(&(2u32, 1i64)));
    }

    #[test]
    fn shard_index_spreads_sequential_keys() {
        let mut seen = [0usize; DEFAULT_SHARDS];
        for k in 0..64_000u64 {
            seen[shard_index(fx_hash(&k), DEFAULT_SHARDS)] += 1;
        }
        assert!(seen.iter().all(|&n| n > 500 && n < 1500), "uneven shards: {seen:?}");
    }

    #[test]
    fn sharded_map_reports_len_across_shards() {
        let map: ShardedMap<u64, u64> = ShardedMap::with_shards(4);
        assert!(map.is_empty());
        for k in 0..100 {
            map.get_or_compute(k, || k);
        }
        assert_eq!(map.len(), 100);
        assert!(!map.is_empty());
    }
}
