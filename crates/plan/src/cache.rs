//! The engine-resident plan cache.
//!
//! Keys combine the three things that can change a plan: the query (its
//! canonical text — the printed DSL/XPath source — shared as a
//! [`QueryKey`] and compared by hash before text, so equality stays exact),
//! a cheap content fingerprint of the document
//! (`gql_ssdm::shallow_fingerprint`; a changed document changes the summary
//! and therefore the cost facts), and the budget class (different
//! governance regimes may degrade differently, so their plans never alias).
//! Values carry everything the engine needs to skip the analyze/plan phases
//! on a hit: the full inference, the chosen per-rule join orders, and the
//! rendered plan text for provenance. They are shared: a hit hands out an
//! `Arc` and copies nothing.
//!
//! Eviction is LRU over a monotonic use clock. The cache never affects
//! answers — a stale or corrupted entry is caught by
//! [`CachedPlan::is_valid_for`] and triggers a replan (counted in
//! [`CacheStats::replans`]), and even an undetected wrong *order* only
//! changes work, because the matcher re-sorts provenance tuples to
//! declaration order. Fingerprint collisions therefore bound cache
//! effectiveness, not correctness — the same stance the resident index
//! takes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gql_infer::Inference;
use gql_ssdm::index::hash_str;

/// Default number of cached plans per engine.
pub const DEFAULT_CAPACITY: usize = 64;

/// A query's canonical text (printed DSL / XPath source) with its hash,
/// made once per text and shared by every key built from it.
#[derive(Debug, Clone)]
pub struct QueryKey {
    text: Arc<str>,
    hash: u64,
}

impl QueryKey {
    pub fn new(canonical_query: &str) -> QueryKey {
        QueryKey {
            hash: hash_str(canonical_query),
            text: canonical_query.into(),
        }
    }

    pub fn text(&self) -> &str {
        &self.text
    }

    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// Equal texts: the hashes are compared first, so unequal keys almost never
/// read their text, and a shared text is never read at all.
impl PartialEq for QueryKey {
    fn eq(&self, other: &QueryKey) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for QueryKey {}

/// Cache key: (canonical query, document fingerprint, budget class).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    pub query: QueryKey,
    /// `gql_ssdm::shallow_fingerprint` of the target document.
    pub doc_fingerprint: u64,
    /// `Budget::class()` of the run.
    pub budget_class: &'static str,
}

impl PlanKey {
    pub fn new(query: QueryKey, doc_fingerprint: u64, budget_class: &'static str) -> PlanKey {
        PlanKey {
            query,
            doc_fingerprint,
            budget_class,
        }
    }
}

/// A cached planning outcome: everything needed to go parse → execution.
/// The cache holds it in an `Arc` and a hit shares it, so no part of it —
/// the plan text included — is copied per run.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The inference (diagnostics, cardinality bounds, emptiness facts).
    pub inference: Inference,
    /// Per-rule root evaluation orders (XML-GL; empty for the others).
    /// `None` entries mean "declared order".
    pub orders: Vec<Option<Vec<usize>>>,
    /// Rendered logical plan (multi-line EXPLAIN form), for provenance
    /// surfaces; every run's outcome shares it.
    pub plan_text: Arc<str>,
    /// Single-line plan rendering, for trace notes.
    pub plan_compact: String,
    /// Per-rule extract-root counts at plan time, for validation.
    pub root_counts: Vec<usize>,
    /// Summary path count observed at plan time, so warm runs emit the
    /// same analyze counters as the cold run that built the entry.
    pub summary_paths: u64,
    /// The parsed expression of an XPath query (the key holds its exact
    /// text), so a hit parses nothing. `None` for the graphical languages
    /// and for text that does not parse — the run's own parse then reports
    /// the error.
    pub xpath: Option<Arc<gql_xpath::Expr>>,
}

impl CachedPlan {
    /// A cached entry is usable only if its orders are well-formed
    /// permutations for the query at hand: one entry per rule, each `Some`
    /// order a permutation of that rule's roots. Anything else — a
    /// corrupted entry, or a key collision against a structurally
    /// different query — fails validation and forces a replan.
    pub fn is_valid_for(&self, root_counts: &[usize]) -> bool {
        if self.root_counts != root_counts || self.orders.len() != root_counts.len() {
            return false;
        }
        self.orders.iter().zip(root_counts).all(|(o, &n)| match o {
            None => true,
            Some(order) => {
                let mut seen = vec![false; n];
                order.len() == n
                    && order
                        .iter()
                        .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
            }
        })
    }

    /// Scramble the entry so [`CachedPlan::is_valid_for`] fails — the
    /// corruption the fault-injection seam applies.
    pub fn corrupt_for_test(&mut self) {
        self.plan_text = format!("{} [corrupted]", self.plan_text).into();
        if self.orders.is_empty() {
            self.orders.push(Some(vec![usize::MAX]));
        } else {
            for o in &mut self.orders {
                *o = Some(vec![usize::MAX]);
            }
        }
    }
}

/// Monotonic counters describing cache behaviour since engine start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Hits whose entry failed validation and were replanned.
    pub replans: u64,
    /// Total probes (`get` calls). Maintained in the same atomic write
    /// section as `hits`/`misses`, so every snapshot satisfies
    /// `lookups == hits + misses` — the invariant the shared-engine
    /// regression tests assert to prove snapshots are never torn.
    pub lookups: u64,
}

impl CacheStats {
    /// The snapshot-consistency invariant: a counter set read mid-update
    /// (a torn read) would violate it; [`StatsCell::snapshot`] never does.
    pub fn is_consistent(&self) -> bool {
        self.lookups == self.hits + self.misses
    }
}

/// Snapshot-consistent shared counters for the plan cache.
///
/// The cache itself lives behind the engine's mutex, so *writers* are
/// already serialized — but `Engine::plan_cache_stats()` was designed
/// single-caller and used to read the counters through that same lock,
/// which both contends with concurrent planners and, if naively converted
/// to independent atomics, lets a reader observe a half-applied update
/// (hits from after a probe, misses from before — a *torn* total). This
/// cell is a sequence lock: writers bump `version` to odd, apply every
/// counter of one logical event, then bump back to even; readers retry
/// until they see the same even version on both sides of the reads. Reads
/// never take the cache mutex, and every returned [`CacheStats`] is a
/// consistent point-in-time snapshot.
#[derive(Debug, Default)]
pub struct StatsCell {
    version: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    replans: AtomicU64,
    lookups: AtomicU64,
}

impl StatsCell {
    /// Apply one logical cache event atomically with respect to readers.
    /// Callers must be serialized (the plan cache is always behind a
    /// mutex); the seqlock only protects readers from tearing.
    fn record(&self, f: impl FnOnce(&StatsCell)) {
        // Odd version = write in progress. SeqCst throughout: the cell is
        // probed a handful of times per query, so the strongest ordering
        // costs nothing and keeps the reader's version/counter/version
        // sandwich valid on every architecture (and under miri).
        let v = self.version.load(Ordering::SeqCst);
        self.version.store(v.wrapping_add(1), Ordering::SeqCst);
        f(self);
        self.version.store(v.wrapping_add(2), Ordering::SeqCst);
    }

    /// A consistent snapshot: retries while a write is in flight. Writers
    /// hold the cache mutex for well under a microsecond per event, so the
    /// retry loop terminates promptly.
    pub fn snapshot(&self) -> CacheStats {
        loop {
            let v1 = self.version.load(Ordering::SeqCst);
            if !v1.is_multiple_of(2) {
                std::hint::spin_loop();
                continue;
            }
            let stats = CacheStats {
                hits: self.hits.load(Ordering::SeqCst),
                misses: self.misses.load(Ordering::SeqCst),
                evictions: self.evictions.load(Ordering::SeqCst),
                replans: self.replans.load(Ordering::SeqCst),
                lookups: self.lookups.load(Ordering::SeqCst),
            };
            if self.version.load(Ordering::SeqCst) == v1 {
                return stats;
            }
            std::hint::spin_loop();
        }
    }
}

/// An LRU map from [`PlanKey`] to [`CachedPlan`].
///
/// Linear scan on probe: the capacity is small (tens of entries) and keys
/// compare by two `u64`s before ever touching the query string, so a scan
/// beats hashing the key for every lookup at this size.
#[derive(Debug)]
pub struct PlanCache {
    entries: Vec<(PlanKey, Arc<CachedPlan>, u64)>,
    capacity: usize,
    clock: u64,
    /// Shared so `Engine::plan_cache_stats()` can snapshot without taking
    /// the cache mutex (see [`StatsCell`]).
    stats: Arc<StatsCell>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
            stats: Arc::new(StatsCell::default()),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// The shared stats cell, for readers that must not contend with the
    /// cache mutex (the engine keeps a clone so `plan_cache_stats()` is a
    /// lock-free snapshot).
    pub fn stats_cell(&self) -> Arc<StatsCell> {
        Arc::clone(&self.stats)
    }

    /// Probe the cache. A hit refreshes the entry's LRU stamp and shares
    /// the entry; hit/miss is counted either way.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.iter_mut().find(|(k, _, _)| k == key) {
            Some((_, plan, stamp)) => {
                *stamp = clock;
                self.stats.record(|s| {
                    s.hits.fetch_add(1, Ordering::SeqCst);
                    s.lookups.fetch_add(1, Ordering::SeqCst);
                });
                Some(Arc::clone(plan))
            }
            None => {
                self.stats.record(|s| {
                    s.misses.fetch_add(1, Ordering::SeqCst);
                    s.lookups.fetch_add(1, Ordering::SeqCst);
                });
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting the least recently used one
    /// when at capacity.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<CachedPlan>) {
        self.clock += 1;
        if let Some(slot) = self.entries.iter_mut().find(|(k, _, _)| *k == key) {
            *slot = (key, plan, self.clock);
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, stamp))| *stamp)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(lru);
                self.stats.record(|s| {
                    s.evictions.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        self.entries.push((key, plan, self.clock));
    }

    /// Record that a hit entry failed validation and was replanned.
    pub fn note_replan(&mut self) {
        self.stats.record(|s| {
            s.replans.fetch_add(1, Ordering::SeqCst);
        });
    }

    /// Drop the entry for a key (used after a failed validation so the
    /// replanned result can take its slot).
    pub fn remove(&mut self, key: &PlanKey) {
        self.entries.retain(|(k, _, _)| k != key);
    }

    /// Corrupt the cached entry for `key`, if present — the fault-injection
    /// seam's handle. Returns whether an entry was corrupted.
    pub fn corrupt_entry(&mut self, key: &PlanKey) -> bool {
        match self.entries.iter_mut().find(|(k, _, _)| k == key) {
            Some((_, plan, _)) => {
                Arc::make_mut(plan).corrupt_for_test();
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(orders: Vec<Option<Vec<usize>>>, root_counts: Vec<usize>) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            inference: Inference::default(),
            orders,
            plan_text: "Construct out\n".into(),
            plan_compact: "Construct(out)".into(),
            root_counts,
            summary_paths: 0,
            xpath: None,
        })
    }

    fn key(query: &str, doc_fingerprint: u64, budget_class: &'static str) -> PlanKey {
        PlanKey::new(QueryKey::new(query), doc_fingerprint, budget_class)
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut c = PlanCache::new(2);
        let k1 = key("q1", 1, "unlimited");
        let k2 = key("q2", 1, "unlimited");
        let k3 = key("q3", 1, "unlimited");
        assert!(c.get(&k1).is_none());
        c.insert(k1.clone(), plan(vec![], vec![]));
        c.insert(k2.clone(), plan(vec![], vec![]));
        assert!(c.get(&k1).is_some()); // refreshes k1 — k2 is now LRU
        c.insert(k3.clone(), plan(vec![], vec![]));
        assert!(c.get(&k2).is_none(), "k2 should have been evicted");
        assert!(c.get(&k1).is_some());
        assert!(c.get(&k3).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 2, 1));
    }

    #[test]
    fn keys_separate_fingerprint_and_budget_class() {
        let mut c = PlanCache::default();
        c.insert(key("q", 1, "unlimited"), plan(vec![], vec![]));
        assert!(c.get(&key("q", 2, "unlimited")).is_none());
        assert!(c.get(&key("q", 1, "timed")).is_none());
        assert!(c.get(&key("q", 1, "unlimited")).is_some());
        assert_eq!(key("q", 1, "unlimited").query.hash(), hash_str("q"));
    }

    #[test]
    fn validation_catches_corruption_and_shape_mismatches() {
        let good = plan(vec![Some(vec![1, 0]), None], vec![2, 1]);
        assert!(good.is_valid_for(&[2, 1]));
        assert!(!good.is_valid_for(&[2, 2]), "root counts must match");
        assert!(!good.is_valid_for(&[2]), "rule count must match");
        let mut bad = CachedPlan::clone(&good);
        bad.corrupt_for_test();
        assert!(!bad.is_valid_for(&[2, 1]));
        assert!(bad.plan_text.contains("[corrupted]"));
        // Non-permutations are invalid even with the right length.
        let dup = plan(vec![Some(vec![0, 0])], vec![2]);
        assert!(!dup.is_valid_for(&[2]));
        // An entry with no orders at all is corrupted into invalidity too.
        let mut empty = CachedPlan::clone(&plan(vec![], vec![]));
        empty.corrupt_for_test();
        assert!(!empty.is_valid_for(&[]));
    }

    #[test]
    fn corrupt_entry_reaches_the_stored_plan() {
        let mut c = PlanCache::default();
        let k = key("q", 1, "unlimited");
        assert!(!c.corrupt_entry(&k));
        c.insert(k.clone(), plan(vec![Some(vec![0, 1])], vec![2]));
        assert!(c.corrupt_entry(&k));
        let fetched = c.get(&k).unwrap();
        assert!(!fetched.is_valid_for(&[2]));
        c.note_replan();
        c.remove(&k);
        assert!(c.is_empty());
        assert_eq!(c.stats().replans, 1);
    }

    #[test]
    fn lookups_track_hits_plus_misses() {
        let mut c = PlanCache::default();
        let k = key("q", 1, "unlimited");
        assert!(c.get(&k).is_none());
        c.insert(k.clone(), plan(vec![], vec![]));
        assert!(c.get(&k).is_some());
        assert!(c.get(&k).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.lookups), (2, 1, 3));
        assert!(s.is_consistent());
    }

    /// Regression for the shared-use fix: concurrent readers snapshotting
    /// while writers probe must never observe a torn counter set
    /// (`lookups != hits + misses`). Before the seqlock, independent
    /// atomics (or a racy read through the mutex'd struct) could tear.
    #[test]
    fn concurrent_snapshots_are_never_torn() {
        use std::sync::Mutex;

        // Miri executes this loop orders of magnitude slower; keep it
        // meaningful but bounded there.
        let iters: u64 = if cfg!(miri) { 200 } else { 20_000 };
        let cache = Arc::new(Mutex::new(PlanCache::new(4)));
        let cell = cache.lock().unwrap().stats_cell();
        let writer = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                for i in 0..iters {
                    let k = key("q", i % 8, "unlimited");
                    let mut c = cache.lock().unwrap();
                    if c.get(&k).is_none() {
                        c.insert(k, plan(vec![], vec![]));
                    }
                }
            })
        };
        let mut last = CacheStats::default();
        while !writer.is_finished() {
            let s = cell.snapshot();
            assert!(
                s.is_consistent(),
                "torn snapshot: hits={} misses={} lookups={}",
                s.hits,
                s.misses,
                s.lookups
            );
            assert!(s.lookups >= last.lookups, "counters must be monotonic");
            last = s;
        }
        writer.join().unwrap();
        let s = cell.snapshot();
        assert!(s.is_consistent());
        assert_eq!(s.lookups, iters);
    }
}
