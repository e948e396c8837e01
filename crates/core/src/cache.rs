//! The shared entailment cache of the abstraction layer.
//!
//! CIRC's dominant cost is cube/predicate entailment queries: every
//! abstract post-image asks, per predicate, whether the pre-state
//! facts force it true or false. The per-[`AbsCtx`] post-image memos
//! (keyed on cubes) die with their context — a fresh `AbsCtx` is
//! built each outer round because the predicate set grew, and cube
//! keys are meaningless across predicate numberings.
//!
//! [`AbsCache`] memoizes one level lower, on the *concrete LIA atoms*
//! of each query. Atoms are stable across predicate growth: they are
//! built over solver variables fixed by the variable numbering of the
//! CFA (`pre(v) = 2·index`, `post(v) = 2·index + 1`), not by predicate
//! indices. A key is the canonicalized `(premises, goal)` pair —
//! premises sorted and deduplicated, every atom sign-normalized via
//! [`Atom::canonical`] (a semantics-preserving rewrite). Two queries
//! with the same key are therefore the same logical question, so a
//! cached answer can never change a [`crate::CircOutcome`]: the LIA
//! procedure is deterministic and the cache only replays its answers.
//!
//! The cache is an `Arc` handle over a [`ShardedMap`] pair: cloning
//! shares the store, so one cache can serve every `AbsCtx` of a run —
//! and every run of a benchmark loop, which is where the
//! CheckSim/ReachAndBuild alternation re-asks the bulk of its
//! questions — and `circ serve` shares one across concurrent
//! requests. Lookups *compute under the shard lock*, so per distinct
//! key there is exactly one miss under any thread interleaving: the
//! hit/miss/query totals reported by [`AbsCache::counters`] depend
//! only on the query multiset.
//!
//! A warm-started cache sits on a frozen [`AbsSeed`] it shares rather
//! than copies: a key missing from the local maps is looked up in the
//! seed (sorted, so by binary search) before it is computed. A seed
//! hit counts as a hit and stores nothing locally, so the local maps
//! hold exactly what this cache learned, never a seed key.
//!
//! [`AbsCtx`]: crate::AbsCtx

use circ_par::ShardedMap;
use circ_smt::{lia, Atom};
use circ_stats::AbsCounters;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Canonical form of a premise list: sorted, deduplicated,
/// sign-normalized atoms.
fn canon_premises(premises: &[Atom]) -> Vec<Atom> {
    let mut v: Vec<Atom> = premises.iter().map(Atom::canonical).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The value of `key` in a slice sorted by key, if present.
fn seek<K: Ord>(entries: &[(K, bool)], key: &K) -> Option<bool> {
    entries.binary_search_by(|(k, _)| k.cmp(key)).ok().map(|i| entries[i].1)
}

#[derive(Debug)]
struct CacheShared {
    /// Frozen read-through layer below the local maps.
    seed: AbsSeed,
    /// Entries learned locally; disjoint from the seed.
    entails: ShardedMap<(Vec<Atom>, Atom), bool>,
    sat: ShardedMap<Vec<Atom>, bool>,
    queries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    enabled: bool,
}

/// A shareable, thread-safe memo of abstraction-layer LIA queries
/// (see the module docs for the key discipline). Clones share one
/// store.
#[derive(Debug, Clone)]
pub struct AbsCache {
    inner: Arc<CacheShared>,
}

impl Default for AbsCache {
    fn default() -> AbsCache {
        AbsCache::new()
    }
}

impl AbsCache {
    fn with_parts(enabled: bool, seed: AbsSeed) -> AbsCache {
        AbsCache {
            inner: Arc::new(CacheShared {
                seed,
                entails: ShardedMap::new(),
                sat: ShardedMap::new(),
                queries: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                enabled,
            }),
        }
    }

    /// A fresh, enabled cache.
    pub fn new() -> AbsCache {
        AbsCache::with_parts(true, AbsSeed::empty())
    }

    /// A pass-through handle: queries are counted but never memoized.
    /// Used for the cached-vs-uncached differential.
    pub fn disabled() -> AbsCache {
        AbsCache::with_parts(false, AbsSeed::empty())
    }

    /// Whether this handle memoizes results.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    fn record(&self, hit: bool) {
        self.inner.queries.fetch_add(1, Ordering::Relaxed);
        if hit {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Does the conjunction of `premises` entail `goal`?
    pub fn entails(&self, premises: &[Atom], goal: &Atom) -> bool {
        self.premises(premises).entails(goal)
    }

    /// Prepares `premises` for a [`Premises::is_sat`] query and any
    /// number of [`Premises::entails`] queries, canonicalizing them
    /// once rather than once per query.
    pub fn premises(&self, premises: &[Atom]) -> Premises<'_> {
        Premises { cache: self, canon: canon_premises(premises) }
    }

    /// Is the conjunction of `atoms` satisfiable?
    pub fn is_sat_conj(&self, atoms: &[Atom]) -> bool {
        self.premises(atoms).is_sat()
    }

    /// Snapshot of the cumulative counters (use
    /// [`AbsCounters::since`] for per-run deltas on a shared cache).
    pub fn counters(&self) -> AbsCounters {
        AbsCounters {
            queries: self.inner.queries.load(Ordering::Relaxed),
            cache_hits: self.inner.hits.load(Ordering::Relaxed),
            cache_misses: self.inner.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized entries across both maps, seed included.
    pub fn len(&self) -> usize {
        self.inner.seed.len() + self.local_len()
    }

    /// Number of entries learned locally (the seed excluded).
    pub fn local_len(&self) -> usize {
        self.inner.entails.len() + self.inner.sat.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A fresh, enabled cache warm-started from a frozen seed, which
    /// it shares (see the module docs). A seeded key's first query
    /// counts as a *hit* — which is exactly the observable difference
    /// between a warm and a cold run.
    pub fn with_seed(seed: &AbsSeed) -> AbsCache {
        AbsCache::with_parts(true, seed.clone())
    }

    /// A frozen, deterministically ordered snapshot of the memoized
    /// entries, seed included (sorted by key, so two caches with equal
    /// content snapshot identically regardless of insertion order or
    /// of which entries came from a seed).
    pub fn snapshot(&self) -> AbsSeed {
        let seed = &self.inner.seed.inner;
        let mut entails = self.inner.entails.snapshot();
        entails.extend_from_slice(&seed.entails);
        let mut sat = self.inner.sat.snapshot();
        sat.extend_from_slice(&seed.sat);
        AbsSeed::from_entries(entails, sat)
    }

    /// Folds another cache's entries into this one, first write wins,
    /// without touching any counters. Used to merge what isolated
    /// per-file batch caches learned into the store that gets saved.
    /// A sibling on the same seed contributes only what it learned;
    /// any other cache contributes its seed as well. Keys already in
    /// this cache's seed are skipped, keeping the local maps disjoint
    /// from it.
    pub fn absorb(&self, other: &AbsCache) {
        let ours = &self.inner.seed.inner;
        let theirs = &other.inner.seed.inner;
        let (seed_entails, seed_sat): (&[_], &[_]) =
            if Arc::ptr_eq(ours, theirs) { (&[], &[]) } else { (&theirs.entails, &theirs.sat) };
        for (key, result) in
            other.inner.entails.snapshot().into_iter().chain(seed_entails.iter().cloned())
        {
            if seek(&ours.entails, &key).is_none() {
                self.inner.entails.insert(key, result);
            }
        }
        for (key, result) in other.inner.sat.snapshot().into_iter().chain(seed_sat.iter().cloned())
        {
            if seek(&ours.sat, &key).is_none() {
                self.inner.sat.insert(key, result);
            }
        }
    }
}

/// A premise list bound to an [`AbsCache`], in its canonical form: its
/// satisfiability key, and the premise half of every entailment key.
/// The decision procedure runs on that form too, so a duplicated
/// premise (a guard literal the cube already asserts) costs LIA
/// nothing, and a pass-through cache answers exactly as a memoizing
/// one.
#[derive(Debug)]
pub struct Premises<'a> {
    cache: &'a AbsCache,
    canon: Vec<Atom>,
}

impl Premises<'_> {
    /// Is the conjunction of the premises satisfiable?
    pub fn is_sat(&self) -> bool {
        let (cache, canon) = (self.cache, &self.canon);
        if !cache.inner.enabled {
            cache.record(false);
            return lia::is_sat_conj(canon);
        }
        let (result, hit) = match seek(&cache.inner.seed.inner.sat, canon) {
            Some(seeded) => (seeded, true),
            None => cache.inner.sat.get_or_compute(canon.clone(), || lia::is_sat_conj(canon)),
        };
        cache.record(hit);
        result
    }

    /// Does the conjunction of the premises entail `goal`?
    pub fn entails(&self, goal: &Atom) -> bool {
        let (cache, canon) = (self.cache, &self.canon);
        if !cache.inner.enabled {
            cache.record(false);
            return lia::entails(canon, goal);
        }
        let key = (canon.clone(), goal.canonical());
        let (result, hit) = match seek(&cache.inner.seed.inner.entails, &key) {
            Some(seeded) => (seeded, true),
            None => cache.inner.entails.get_or_compute(key, || lia::entails(canon, goal)),
        };
        cache.record(hit);
        result
    }
}

/// An immutable, shareable snapshot of [`AbsCache`] entries — what the
/// persistence layer saves and what warm-started caches read through to.
///
/// Keeping the seed frozen (instead of handing concurrent runs one
/// live shared cache) is what makes batch counters deterministic:
/// every file sees exactly the seed, never a sibling's in-flight
/// discoveries, so its hit/miss totals are independent of scheduling.
#[derive(Debug, Clone, Default)]
pub struct AbsSeed {
    inner: Arc<AbsSeedInner>,
}

#[derive(Debug, Default)]
struct AbsSeedInner {
    entails: Vec<((Vec<Atom>, Atom), bool)>,
    sat: Vec<(Vec<Atom>, bool)>,
}

impl AbsSeed {
    /// The empty seed (a cold start).
    pub fn empty() -> AbsSeed {
        AbsSeed::default()
    }

    /// Builds a seed from raw entry lists (the persistence loader),
    /// sorting by key so equal content always yields an identical
    /// seed. Keys are trusted to be canonical — they are either
    /// freshly parsed through the canonicalizing atom constructors or
    /// came from a snapshot.
    pub fn from_entries(
        mut entails: Vec<((Vec<Atom>, Atom), bool)>,
        mut sat: Vec<(Vec<Atom>, bool)>,
    ) -> AbsSeed {
        entails.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        sat.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        AbsSeed { inner: Arc::new(AbsSeedInner { entails, sat }) }
    }

    /// Entailment entries (sorted by key when built by
    /// [`AbsCache::snapshot`]).
    pub fn entails_entries(&self) -> &[((Vec<Atom>, Atom), bool)] {
        &self.inner.entails
    }

    /// Conjunction-satisfiability entries.
    pub fn sat_entries(&self) -> &[(Vec<Atom>, bool)] {
        &self.inner.sat
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.inner.entails.len() + self.inner.sat.len()
    }

    /// True when the seed carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circ_smt::{LinExpr, SVar};

    fn x() -> LinExpr {
        LinExpr::var(SVar(0))
    }

    #[test]
    fn entailment_is_memoized_and_canonicalized() {
        let cache = AbsCache::new();
        // x = 0 ∧ x ≤ 3 ⊨ x ≤ 5
        let premises = [Atom::eq(x()), Atom::le(x() - LinExpr::constant(3))];
        let goal = Atom::le(x() - LinExpr::constant(5));
        assert!(cache.entails(&premises, &goal));
        // Same question, permuted and duplicated premises: a hit.
        let permuted = [Atom::le(x() - LinExpr::constant(3)), Atom::eq(x()), Atom::eq(x())];
        assert!(cache.entails(&permuted, &goal));
        let c = cache.counters();
        assert_eq!(c.queries, 2);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn sign_normalization_shares_entries() {
        let cache = AbsCache::new();
        // x = 0 and -x = 0 are the same atom up to canonical sign.
        assert!(cache.is_sat_conj(&[Atom::eq(x())]));
        assert!(cache.is_sat_conj(&[Atom::eq(-x())]));
        assert_eq!(cache.counters().cache_hits, 1);
    }

    #[test]
    fn clones_share_the_store() {
        let a = AbsCache::new();
        let b = a.clone();
        assert!(a.is_sat_conj(&[Atom::eq(x())]));
        assert!(b.is_sat_conj(&[Atom::eq(x())]));
        assert_eq!(a.counters().cache_hits, 1);
        assert_eq!(b.counters().cache_hits, 1);
    }

    #[test]
    fn disabled_cache_counts_but_never_stores() {
        let cache = AbsCache::disabled();
        let premises = [Atom::eq(x())];
        let goal = Atom::le(x());
        assert!(cache.entails(&premises, &goal));
        assert!(cache.entails(&premises, &goal));
        let c = cache.counters();
        assert_eq!(c.queries, 2);
        assert_eq!(c.cache_hits, 0);
        assert_eq!(c.cache_misses, 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn seeded_cache_hits_where_cold_misses() {
        let cold = AbsCache::new();
        let premises = [Atom::eq(x())];
        let goal = Atom::le(x());
        assert!(cold.entails(&premises, &goal));
        assert!(cold.is_sat_conj(&premises));
        assert_eq!(cold.counters().cache_misses, 2);

        let warm = AbsCache::with_seed(&cold.snapshot());
        assert!(warm.entails(&premises, &goal));
        assert!(warm.is_sat_conj(&premises));
        let c = warm.counters();
        assert_eq!(c.cache_hits, 2, "seeded keys must hit on first query");
        assert_eq!(c.cache_misses, 0);
    }

    #[test]
    fn snapshot_is_order_independent() {
        let a = AbsCache::new();
        let b = AbsCache::new();
        let k1 = [Atom::eq(x())];
        let k2 = [Atom::le(x() - LinExpr::constant(7))];
        a.is_sat_conj(&k1);
        a.is_sat_conj(&k2);
        b.is_sat_conj(&k2);
        b.is_sat_conj(&k1);
        assert_eq!(a.snapshot().sat_entries(), b.snapshot().sat_entries());
    }

    #[test]
    fn absorb_merges_without_counting() {
        let master = AbsCache::new();
        let worker = AbsCache::new();
        worker.is_sat_conj(&[Atom::eq(x())]);
        master.absorb(&worker);
        assert_eq!(master.len(), 1);
        assert_eq!(master.counters().queries, 0);
        // First-write-wins: absorbing again is a no-op.
        master.absorb(&worker);
        assert_eq!(master.len(), 1);
    }

    /// `x ≤ n` as a one-atom conjunction key.
    fn bound(n: i64) -> [Atom; 1] {
        [Atom::le(x() - LinExpr::constant(n))]
    }

    /// A seed holding sat answers for `x ≤ n`, n in `ns`, plus one
    /// entailment.
    fn seed_of(ns: &[i64]) -> AbsSeed {
        let cold = AbsCache::new();
        for &n in ns {
            cold.is_sat_conj(&bound(n));
        }
        cold.entails(&[Atom::eq(x())], &Atom::le(x()));
        cold.snapshot()
    }

    #[test]
    fn seeded_cache_stores_nothing_until_the_seed_misses() {
        let seed = seed_of(&[1, 2, 3]);
        let warm = AbsCache::with_seed(&seed);
        assert_eq!(warm.local_len(), 0);
        for n in [1, 2, 3, 1] {
            warm.is_sat_conj(&bound(n));
        }
        assert!(warm.entails(&[Atom::eq(x())], &Atom::le(x())));
        assert_eq!(warm.local_len(), 0, "seed hits must not be copied");
        assert_eq!(warm.len(), seed.len());
        assert_eq!(warm.counters().cache_hits, 5);
        warm.is_sat_conj(&bound(4));
        warm.is_sat_conj(&bound(4));
        assert_eq!(warm.local_len(), 1);
        let c = warm.counters();
        assert_eq!((c.queries, c.cache_hits, c.cache_misses), (7, 6, 1));
    }

    #[test]
    fn snapshot_is_seed_union_learned_and_renders_like_a_copied_seed() {
        let seed = seed_of(&[1, 2, 3]);
        let queries = |cache: &AbsCache| {
            for n in [2, 5, 3, 6, 5] {
                cache.is_sat_conj(&bound(n));
            }
            cache.entails(&[Atom::eq(x())], &Atom::le(x() - LinExpr::constant(1)));
        };
        let warm = AbsCache::with_seed(&seed);
        queries(&warm);
        // The reference: a plain cache with every seed entry copied
        // in up front (uncounted) before the same queries.
        let copied = AbsCache::new();
        copied.absorb(&AbsCache::with_seed(&seed));
        assert_eq!(copied.counters().queries, 0);
        queries(&copied);
        assert_eq!(warm.counters(), copied.counters());

        let snap = warm.snapshot();
        assert_eq!(snap.len(), seed.len() + warm.local_len());
        assert_eq!(snap.len(), seed.len() + 3);
        for entry in seed.sat_entries() {
            assert!(snap.sat_entries().contains(entry));
        }
        assert_eq!(
            crate::persist::render_abs_cache(&snap),
            crate::persist::render_abs_cache(&copied.snapshot())
        );
    }

    #[test]
    fn absorb_copies_a_foreign_seed_but_not_a_shared_one() {
        let seed = seed_of(&[1, 2]);
        let master = AbsCache::with_seed(&seed);
        let sibling = AbsCache::with_seed(&seed);
        sibling.is_sat_conj(&bound(1)); // seed hit
        sibling.is_sat_conj(&bound(7)); // learned
        master.absorb(&sibling);
        assert_eq!(master.local_len(), 1, "a shared seed must not be re-inserted");
        assert_eq!(master.len(), seed.len() + 1);

        // A cache on another seed: its seed entries are new to the
        // master, except `x ≤ 1` and the entailment, which the
        // master's own seed already holds.
        let foreign = AbsCache::with_seed(&seed_of(&[1, 8]));
        foreign.is_sat_conj(&bound(9));
        master.absorb(&foreign);
        assert_eq!(master.local_len(), 3);
        assert_eq!(master.len(), seed.len() + 3);
        assert_eq!(master.counters().queries, 0);
        let keys: Vec<_> = master.snapshot().sat_entries().iter().map(|e| e.0.clone()).collect();
        for n in [1, 2, 7, 8, 9] {
            assert!(keys.contains(&bound(n).to_vec()), "x <= {n} missing");
        }
    }

    #[test]
    fn concurrent_hammering_counts_one_miss_per_key() {
        let cache = AbsCache::new();
        let tasks: Vec<u32> = (0..64).collect();
        let results =
            circ_par::Pool::new(4).try_map(&tasks, |_| cache.is_sat_conj(&[Atom::eq(x())]));
        assert!(results.into_iter().all(|r| r == Ok(true)));
        let c = cache.counters();
        assert_eq!(c.queries, 64);
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.cache_hits, 63);
    }
}
