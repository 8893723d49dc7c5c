//! A keyed registry of histograms.
//!
//! The service records one latency histogram per
//! `(tenant, dataset, surface, outcome)` combination. Keys are unbounded
//! in principle but tiny in practice, so a mutex around a key-sorted `Vec`
//! guards only the key → histogram lookup; the returned [`Histo`] is
//! `Arc`-shared and recording into it is lock-free. A lookup compares
//! against the stored keys through a caller-supplied probe
//! ([`KeyedHistos::get_by`]), so a hot path holding only borrowed parts of
//! a key builds the owned key once, when its histogram is first created.

use std::cmp::Ordering;
use std::sync::{Arc, Mutex};

use crate::histo::{Histo, HistoSnapshot};

/// Histograms indexed by an ordered key.
pub struct KeyedHistos<K: Ord + Clone> {
    /// Sorted by key.
    map: Mutex<Vec<(K, Arc<Histo>)>>,
}

impl<K: Ord + Clone> Default for KeyedHistos<K> {
    fn default() -> Self {
        KeyedHistos::new()
    }
}

impl<K: Ord + Clone + std::fmt::Debug> std::fmt::Debug for KeyedHistos<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys: Vec<K> = self.snapshots().into_iter().map(|(k, _)| k).collect();
        f.debug_struct("KeyedHistos").field("keys", &keys).finish()
    }
}

impl<K: Ord + Clone> KeyedHistos<K> {
    pub fn new() -> KeyedHistos<K> {
        KeyedHistos {
            map: Mutex::new(Vec::new()),
        }
    }

    /// The histogram for `key`, created on first use. The lock covers only
    /// this lookup; record into the returned handle lock-free.
    pub fn get(&self, key: &K) -> Arc<Histo> {
        self.get_by(|k| k.cmp(key), || key.clone())
    }

    /// [`KeyedHistos::get`] for a caller that holds the key in some
    /// borrowed form: `probe` orders a stored key against the wanted one
    /// (consistently with `K: Ord`), and `make` builds the owned key, which
    /// runs only when no stored key probes `Equal`.
    pub fn get_by(
        &self,
        mut probe: impl FnMut(&K) -> Ordering,
        make: impl FnOnce() -> K,
    ) -> Arc<Histo> {
        let mut map = self.map.lock().unwrap();
        match map.binary_search_by(|(k, _)| probe(k)) {
            Ok(at) => Arc::clone(&map[at].1),
            Err(at) => {
                let h = Arc::new(Histo::new());
                map.insert(at, (make(), Arc::clone(&h)));
                h
            }
        }
    }

    /// Record `v` under `key` (lookup + lock-free record).
    pub fn record(&self, key: &K, v: u64) {
        self.get(key).record(v);
    }

    /// Snapshot every key's histogram, in key order.
    pub fn snapshots(&self) -> Vec<(K, HistoSnapshot)> {
        let map = self.map.lock().unwrap();
        map.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect()
    }

    /// Merge every key's histogram into one service-wide snapshot.
    pub fn merged(&self) -> HistoSnapshot {
        let mut out = HistoSnapshot::empty();
        for (_, s) in self.snapshots() {
            out.merge(&s);
        }
        out
    }

    /// Number of distinct keys seen so far.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_get_independent_histograms() {
        let k: KeyedHistos<(&str, &str)> = KeyedHistos::new();
        k.record(&("a", "x"), 10);
        k.record(&("a", "x"), 20);
        k.record(&("b", "y"), 1000);
        assert_eq!(k.len(), 2);
        let snaps = k.snapshots();
        assert_eq!(snaps[0].0, ("a", "x"));
        assert_eq!(snaps[0].1.count, 2);
        assert_eq!(snaps[1].1.count, 1);
        assert_eq!(k.merged().count, 3);
        assert_eq!(k.merged().sum, 1030);
    }

    #[test]
    fn cached_handle_and_map_record_agree() {
        let k: KeyedHistos<u32> = KeyedHistos::new();
        let h = k.get(&7);
        h.record(5);
        k.record(&7, 6);
        assert_eq!(k.len(), 1);
        assert_eq!(k.get(&7).count(), 2);
    }

    #[test]
    fn a_borrowed_probe_builds_its_key_once_and_keeps_key_order() {
        let k: KeyedHistos<(String, String)> = KeyedHistos::new();
        let made = std::cell::Cell::new(0);
        for want in [("b", "x"), ("a", "y"), ("b", "x"), ("a", "x")] {
            k.get_by(
                |stored| (stored.0.as_str(), stored.1.as_str()).cmp(&want),
                || {
                    made.set(made.get() + 1);
                    (want.0.to_string(), want.1.to_string())
                },
            )
            .record(1);
        }
        assert_eq!(made.get(), 3);
        let keys: Vec<(String, String)> = k.snapshots().into_iter().map(|(key, _)| key).collect();
        let strs: Vec<(&str, &str)> = keys.iter().map(|(a, b)| (&**a, &**b)).collect();
        assert_eq!(strs, [("a", "x"), ("a", "y"), ("b", "x")]);
        assert_eq!(k.get(&("b".to_string(), "x".to_string())).count(), 2);
    }

    #[test]
    fn empty_registry_merges_to_empty() {
        let k: KeyedHistos<String> = KeyedHistos::new();
        assert!(k.is_empty());
        assert_eq!(k.merged().count, 0);
    }
}
