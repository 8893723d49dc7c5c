//! The engine-resident plan cache.
//!
//! Keys combine the two things a plan is a function of: the query (its
//! canonical text — the printed DSL/XPath source — shared as a
//! [`QueryKey`] and compared by hash before text, so equality stays exact)
//! and a cheap content fingerprint of the document
//! (`gql_ssdm::shallow_fingerprint`; a changed document changes the summary
//! and therefore the cost facts). A run's budget plays no part: planning
//! reads none, so every budget shares one entry. Values carry everything
//! the engine needs to skip the analyze/plan phases on a hit: the full
//! inference, each XML-GL rule's [`JoinPlan`] — what the matcher runs — or
//! a WG-Log program's [`ProgramPlan`] — what the fixpoint runs — and the
//! rendered plan text for provenance. They are shared: a hit hands out an
//! `Arc` and copies nothing.
//!
//! Eviction is LRU over a monotonic use clock. The cache never affects
//! answers — an entry whose plans do not fit the query (the corruption the
//! fault seam applies) is caught by
//! [`CachedPlan::is_valid_for`] and triggers a replan (counted in
//! [`CacheStats::replans`]), and even a wrong *order* only changes work,
//! because the matcher re-sorts provenance tuples to declaration order.
//! Fingerprint collisions therefore bound cache effectiveness, not
//! correctness — the same stance the resident index takes.

use std::sync::Arc;

use gql_infer::Inference;
use gql_ssdm::index::hash_str;
use gql_wglog::eval::ProgramPlan;
use gql_xmlgl::ast::Rule;
use gql_xmlgl::eval::JoinPlan;

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

/// Cache key: (canonical query, document fingerprint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    pub query: QueryKey,
    /// `gql_ssdm::shallow_fingerprint` of the target document.
    pub doc_fingerprint: u64,
}

impl PlanKey {
    pub fn new(query: QueryKey, doc_fingerprint: u64) -> PlanKey {
        PlanKey {
            query,
            doc_fingerprint,
        }
    }
}

/// A cached planning outcome: everything needed to go parse → execution.
/// The cache holds it in an `Arc` and a hit shares it, so no part of it —
/// the plan text included — is copied per run.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The inference (diagnostics, cardinality bounds, emptiness facts),
    /// shared with every run's outcome.
    pub inference: Arc<Inference>,
    /// Each rule's join plan, in rule order (XML-GL; empty for the others):
    /// what the matcher runs and what `plan_text` renders.
    pub joins: Vec<JoinPlan>,
    /// A WG-Log program's plan (`None` for the others): its strata and
    /// each rule's search, what the fixpoint runs and what `plan_text`
    /// renders.
    pub wglog: Option<ProgramPlan>,
    /// Rendered logical plan (multi-line EXPLAIN form), for provenance
    /// surfaces; every run's outcome shares it.
    pub plan_text: Arc<str>,
    /// Single-line plan rendering, for trace notes.
    pub plan_compact: String,
    /// Summary path count observed at plan time, so warm runs emit the
    /// same analyze counters as the cold run that built the entry.
    pub summary_paths: u64,
}

impl CachedPlan {
    /// A cached entry is usable only if it holds one join plan per rule of
    /// the query at hand (`rules`: the XML-GL program's, none for the
    /// others), each of that rule's shape, and a plan of the WG-Log
    /// program's shape exactly when the query is one (`wglog`). Anything
    /// else — a corrupted entry — fails validation and forces a replan.
    pub fn is_valid_for(&self, rules: &[Rule], wglog: Option<&gql_wglog::Program>) -> bool {
        self.joins.len() == rules.len()
            && self.joins.iter().zip(rules).all(|(p, r)| p.fits(r))
            && match (&self.wglog, wglog) {
                (Some(plan), Some(program)) => plan.fits(program),
                (plan, program) => plan.is_none() && program.is_none(),
            }
    }

    /// Scramble the entry so [`CachedPlan::is_valid_for`] fails — the
    /// corruption the fault-injection seam applies: one join plan too many.
    pub fn corrupt_for_test(&mut self) {
        self.plan_text = format!("{} [corrupted]", self.plan_text).into();
        self.joins.push(JoinPlan::default());
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
    /// Total probes (`get` calls). Counted with `hits`/`misses` under the
    /// cache's lock, so every snapshot satisfies `lookups == hits +
    /// misses` — the invariant the shared-engine regression tests assert
    /// to prove snapshots are never torn.
    pub lookups: u64,
}

impl CacheStats {
    /// The snapshot-consistency invariant: a counter set read mid-update
    /// (a torn read) would violate it; [`PlanCache::stats`], read under the
    /// lock that serializes every update, never does.
    pub fn is_consistent(&self) -> bool {
        self.lookups == self.hits + self.misses
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
    stats: CacheStats,
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
            stats: CacheStats::default(),
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
        self.stats
    }

    /// Probe the cache. A hit refreshes the entry's LRU stamp and shares
    /// the entry; hit/miss is counted either way.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        self.clock += 1;
        let clock = self.clock;
        self.stats.lookups += 1;
        match self.entries.iter_mut().find(|(k, _, _)| k == key) {
            Some((_, plan, stamp)) => {
                *stamp = clock;
                self.stats.hits += 1;
                Some(Arc::clone(plan))
            }
            None => {
                self.stats.misses += 1;
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
                self.stats.evictions += 1;
            }
        }
        self.entries.push((key, plan, self.clock));
    }

    /// Record that a hit entry failed validation and was replanned.
    pub fn note_replan(&mut self) {
        self.stats.replans += 1;
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

    fn plan(joins: Vec<JoinPlan>) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            inference: Arc::default(),
            joins,
            wglog: None,
            plan_text: "Construct out\n".into(),
            plan_compact: "Construct(out)".into(),
            summary_paths: 0,
        })
    }

    fn key(query: &str, doc_fingerprint: u64) -> PlanKey {
        PlanKey::new(QueryKey::new(query), doc_fingerprint)
    }

    /// The rules of an XML-GL program.
    fn rules(src: &str) -> Vec<Rule> {
        gql_xmlgl::dsl::parse(src).unwrap().rules
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut c = PlanCache::new(2);
        let k1 = key("q1", 1);
        let k2 = key("q2", 1);
        let k3 = key("q3", 1);
        assert!(c.get(&k1).is_none());
        c.insert(k1.clone(), plan(vec![]));
        c.insert(k2.clone(), plan(vec![]));
        assert!(c.get(&k1).is_some()); // refreshes k1 — k2 is now LRU
        c.insert(k3.clone(), plan(vec![]));
        assert!(c.get(&k2).is_none(), "k2 should have been evicted");
        assert!(c.get(&k1).is_some());
        assert!(c.get(&k3).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 2, 1));
    }

    #[test]
    fn keys_separate_fingerprints_and_nothing_else() {
        let mut c = PlanCache::default();
        c.insert(key("q", 1), plan(vec![]));
        assert!(c.get(&key("q", 2)).is_none());
        assert!(c.get(&key("q", 1)).is_some());
        assert_eq!(c.len(), 1);
        assert_eq!(key("q", 1).query.hash(), hash_str("q"));
    }

    #[test]
    fn validation_catches_corruption_and_shape_mismatches() {
        let two = "rule { extract { a as $a  b as $b } construct { out { all $a } } }";
        let one = "rule { extract { a as $a } construct { out { all $a } } }";
        let (two, one) = (rules(two), rules(one));
        let good = plan(vec![JoinPlan::new(&two[0], Some(&[1, 0]))]);
        assert!(good.is_valid_for(&two, None));
        assert!(!good.is_valid_for(&one, None), "root counts must match");
        assert!(!good.is_valid_for(&[], None), "rule count must match");
        let mut bad = CachedPlan::clone(&good);
        bad.corrupt_for_test();
        assert!(!bad.is_valid_for(&two, None));
        assert!(bad.plan_text.contains("[corrupted]"));
        // An entry with no join plans at all is corrupted into invalidity
        // too.
        let mut empty = CachedPlan::clone(&plan(vec![]));
        assert!(empty.is_valid_for(&[], None));
        empty.corrupt_for_test();
        assert!(!empty.is_valid_for(&[], None));
    }

    #[test]
    fn a_wglog_plan_is_valid_for_its_program_only() {
        let program = |src: &str| gql_wglog::dsl::parse(src).unwrap();
        let one = program("rule { query { $a: doc } construct { $a -seen-> $a } }");
        let two = program("rule { query { $a: doc  $b: doc } construct { $a -seen-> $b } }");
        let mut entry = CachedPlan::clone(&plan(vec![]));
        entry.wglog = Some(ProgramPlan::new(&one).unwrap());
        assert!(entry.is_valid_for(&[], Some(&one)));
        assert!(
            !entry.is_valid_for(&[], Some(&two)),
            "node counts must match"
        );
        assert!(
            !entry.is_valid_for(&[], None),
            "only a WG-Log query runs it"
        );
        assert!(
            !plan(vec![]).is_valid_for(&[], Some(&one)),
            "a WG-Log query needs one"
        );
        entry.corrupt_for_test();
        assert!(!entry.is_valid_for(&[], Some(&one)));
    }

    #[test]
    fn corrupt_entry_reaches_the_stored_plan() {
        let mut c = PlanCache::default();
        let k = key("q", 1);
        let two = rules("rule { extract { a as $a  b as $b } construct { out { all $a } } }");
        assert!(!c.corrupt_entry(&k));
        c.insert(k.clone(), plan(vec![JoinPlan::new(&two[0], None)]));
        assert!(c.corrupt_entry(&k));
        let fetched = c.get(&k).unwrap();
        assert!(!fetched.is_valid_for(&two, None));
        c.note_replan();
        c.remove(&k);
        assert!(c.is_empty());
        assert_eq!(c.stats().replans, 1);
    }

    #[test]
    fn lookups_track_hits_plus_misses() {
        let mut c = PlanCache::default();
        let k = key("q", 1);
        assert!(c.get(&k).is_none());
        c.insert(k.clone(), plan(vec![]));
        assert!(c.get(&k).is_some());
        assert!(c.get(&k).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.lookups), (2, 1, 3));
        assert!(s.is_consistent());
    }

    /// Concurrent readers snapshotting while writers probe must never
    /// observe a torn counter set (`lookups != hits + misses`): every read
    /// takes the lock that serializes the updates.
    #[test]
    fn concurrent_snapshots_are_never_torn() {
        use std::sync::Mutex;

        // Miri executes this loop orders of magnitude slower; keep it
        // meaningful but bounded there.
        let iters: u64 = if cfg!(miri) { 200 } else { 20_000 };
        let cache = Arc::new(Mutex::new(PlanCache::new(4)));
        let snapshot = || cache.lock().unwrap().stats();
        let writer = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                for i in 0..iters {
                    let k = key("q", i % 8);
                    let mut c = cache.lock().unwrap();
                    if c.get(&k).is_none() {
                        c.insert(k, plan(vec![]));
                    }
                }
            })
        };
        let mut last = CacheStats::default();
        while !writer.is_finished() {
            let s = snapshot();
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
        let s = snapshot();
        assert!(s.is_consistent());
        assert_eq!(s.lookups, iters);
    }
}
