//! The prepared-query cache: a query text is parsed, printed and gated once
//! per service, and every later request carrying the same `(kind, text)`
//! shares the [`Prepared`] query.
//!
//! The cache belongs to the service, not to a dataset, so it survives
//! reloads: what it holds depends on the text alone. Only texts that parse
//! are kept — a parse failure is refused afresh every time it is sent — and
//! a program the static-analysis gate rejects is kept with its verdict, so
//! a resubmission runs no diagnostics. It holds at most [`CAPACITY`]
//! entries and evicts the least recently used one, as the plan cache does.

use std::collections::HashMap;
use std::sync::Arc;

use gql_core::Prepared;

/// Prepared queries a service keeps.
pub(crate) const CAPACITY: usize = 256;

/// The query kinds, one map each, so a lookup hashes the text alone.
const KINDS: [&str; 3] = ["xmlgl", "wglog", "xpath"];

/// Counters of the cache since the service started.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PreparedStats {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) evictions: u64,
}

/// One kind's texts: text → (prepared query, last-use stamp).
type Entries = HashMap<Arc<str>, (Arc<Prepared<'static>>, u64)>;

/// A bounded LRU map from `(kind, text)` to the prepared query.
#[derive(Debug)]
pub(crate) struct PreparedCache {
    /// One map per kind of [`KINDS`].
    by_kind: [Entries; KINDS.len()],
    clock: u64,
    stats: PreparedStats,
}

impl PreparedCache {
    pub(crate) fn new() -> PreparedCache {
        PreparedCache {
            by_kind: Default::default(),
            clock: 0,
            stats: PreparedStats::default(),
        }
    }

    /// Which map holds `kind`; `None` for a kind no query can be sent in.
    pub(crate) fn slot(kind: &str) -> Option<usize> {
        KINDS.iter().position(|k| *k == kind)
    }

    pub(crate) fn len(&self) -> usize {
        self.by_kind.iter().map(HashMap::len).sum()
    }

    pub(crate) fn stats(&self) -> PreparedStats {
        self.stats
    }

    /// Probe for `text` in kind `slot`; a hit refreshes its stamp. Counted
    /// either way.
    pub(crate) fn get(&mut self, slot: usize, text: &str) -> Option<Arc<Prepared<'static>>> {
        self.clock += 1;
        match self.by_kind[slot].get_mut(text) {
            Some((prepared, stamp)) => {
                *stamp = self.clock;
                self.stats.hits += 1;
                Some(Arc::clone(prepared))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Keep `prepared` for `text`, evicting the least recently used entry
    /// when full. Two requests that missed on one text at once both insert
    /// it; the second replaces the first and evicts nothing.
    pub(crate) fn insert(&mut self, slot: usize, text: Arc<str>, prepared: Arc<Prepared<'static>>) {
        self.clock += 1;
        if !self.by_kind[slot].contains_key(&text) && self.len() >= CAPACITY {
            let lru = (0..KINDS.len())
                .flat_map(|k| self.by_kind[k].iter().map(move |(t, (_, s))| (*s, k, t)))
                .min_by_key(|(stamp, _, _)| *stamp)
                .map(|(_, k, t)| (k, Arc::clone(t)));
            if let Some((k, t)) = lru {
                self.by_kind[k].remove(&t);
                self.stats.evictions += 1;
            }
        }
        self.by_kind[slot].insert(text, (prepared, self.clock));
    }
}
