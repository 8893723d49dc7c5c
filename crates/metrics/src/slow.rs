//! The slow-query log: bounded per-dataset rings of query captures.
//!
//! Jobs whose service time exceeds the configured threshold deposit an
//! entry — whatever the caller records about a slow request (the service's
//! is `gql_serve::telemetry::SlowEntry`: the query, its outcome, its gate
//! wait and the run's trace tree). Entries live in a per-dataset `VecDeque`
//! capped at a fixed capacity, oldest evicted first. Capturing a slow query
//! is by definition off the fast path, so a short mutex section is fine
//! here — unlike the histograms and event ring, which must stay lock-free.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bounded per-dataset rings of slow-query entries `E`.
pub struct SlowLog<E> {
    /// Service-time threshold in microseconds; strictly-greater captures.
    threshold_us: u64,
    /// Max entries retained per dataset.
    capacity: usize,
    rings: Mutex<BTreeMap<String, VecDeque<E>>>,
    captured: AtomicU64,
}

impl<E> std::fmt::Debug for SlowLog<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowLog")
            .field("threshold_us", &self.threshold_us)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<E: Clone> SlowLog<E> {
    /// A log capturing queries slower than `threshold_us`, keeping at most
    /// `capacity` entries per dataset (min 1).
    pub fn new(threshold_us: u64, capacity: usize) -> SlowLog<E> {
        SlowLog {
            threshold_us,
            capacity: capacity.max(1),
            rings: Mutex::new(BTreeMap::new()),
            captured: AtomicU64::new(0),
        }
    }

    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Whether a service time of `service_us` qualifies as slow.
    pub fn qualifies(&self, service_us: u64) -> bool {
        service_us > self.threshold_us
    }

    /// Deposit one capture for `dataset` (the caller checks
    /// [`SlowLog::qualifies`]; this always stores). Evicts the dataset's
    /// oldest entry when full.
    pub fn capture(&self, dataset: &str, entry: E) {
        let mut rings = self.rings.lock().unwrap();
        let ring = rings.entry(dataset.to_string()).or_default();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
        self.captured.fetch_add(1, Ordering::Relaxed);
    }

    /// Total captures ever made (including since-evicted ones).
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// All retained entries, grouped by dataset in name order, oldest
    /// first within a dataset.
    pub fn entries(&self) -> Vec<(String, Vec<E>)> {
        let rings = self.rings.lock().unwrap();
        rings
            .iter()
            .map(|(k, v)| (k.clone(), v.iter().cloned().collect()))
            .collect()
    }

    /// Retained entries for one dataset, oldest first.
    pub fn entries_for(&self, dataset: &str) -> Vec<E> {
        let rings = self.rings.lock().unwrap();
        rings
            .get(dataset)
            .map(|v| v.iter().cloned().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in for a caller's entry.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Entry {
        request_id: u64,
        trip: Option<String>,
    }

    fn entry(id: u64) -> Entry {
        Entry {
            request_id: id,
            trip: None,
        }
    }

    #[test]
    fn threshold_is_strictly_greater() {
        let log = SlowLog::<Entry>::new(100, 4);
        assert!(!log.qualifies(99));
        assert!(!log.qualifies(100));
        assert!(log.qualifies(101));
        // Zero threshold captures everything that took any time at all.
        let zero = SlowLog::<Entry>::new(0, 4);
        assert!(zero.qualifies(1));
    }

    #[test]
    fn per_dataset_rings_evict_oldest() {
        let log = SlowLog::new(0, 2);
        for id in 0..5 {
            log.capture("a", entry(id));
        }
        log.capture("b", entry(100));
        assert_eq!(log.captured(), 6);
        let a = log.entries_for("a");
        assert_eq!(
            a.iter().map(|e| e.request_id).collect::<Vec<_>>(),
            [3, 4],
            "newest two retained, oldest first"
        );
        assert_eq!(log.entries_for("b").len(), 1);
        assert!(log.entries_for("missing").is_empty());
        let grouped = log.entries();
        assert_eq!(
            grouped.iter().map(|(d, _)| d.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
    }

    #[test]
    fn captures_preserve_the_full_payload() {
        let log = SlowLog::new(0, 1);
        let mut e = entry(7);
        e.trip = Some("phase=eval rounds=12 matches=3 nodes=20000".into());
        log.capture("d", e.clone());
        assert_eq!(log.entries_for("d"), [e]);
    }
}
