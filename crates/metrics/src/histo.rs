//! The lock-free log-linear latency histogram.
//!
//! Values (u64, any unit — the service records nanoseconds or
//! microseconds) are bucketed HDR-style: each power-of-two octave is split
//! into [`SUB`] linear sub-buckets, so every bucket's width is at most
//! 1/[`SUB`] of its lower bound. Values below `2·SUB` land in exact
//! single-value buckets. That bounds the relative error of any
//! bucket-derived statistic by [`Histo::MAX_RELATIVE_ERROR`] = 1/SUB,
//! which is the contract the percentile property tests pin.
//!
//! `record` is two relaxed `fetch_add`s on fixed storage — no locks, no
//! allocation, safe from any thread, and cheap enough for a per-request
//! hot path. Reads go through [`Histo::snapshot`]; a snapshot taken during
//! concurrent writes is a consistent-enough view (each bucket read once),
//! and at quiescence it is exact. Snapshots merge ([`HistoSnapshot::merge`])
//! so per-key histograms can be reduced to service-wide ones.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (power of two). 8 → ≤ 12.5% relative error.
pub const SUB: u64 = 8;
const SUB_BITS: u32 = SUB.trailing_zeros(); // 3

/// Octaves 0..=61 (values up to u64::MAX) × SUB sub-buckets.
pub const BUCKETS: usize = 62 * SUB as usize;

/// Map a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < 2 * SUB {
        // Exact buckets: 0..16 map to indices 0..16 (octaves 0 and 1).
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= 4
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & (SUB - 1)) as usize;
    ((msb - SUB_BITS + 1) as usize) * SUB as usize + sub
}

/// The smallest value that lands in bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    let octave = i as u64 / SUB;
    let sub = i as u64 % SUB;
    if octave <= 1 {
        return i as u64;
    }
    (SUB + sub) << (octave - 1)
}

/// The largest value that lands in bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    let octave = i as u64 / SUB;
    if octave <= 1 {
        return i as u64;
    }
    let width = 1u64 << (octave - 1);
    bucket_lower(i).saturating_add(width - 1)
}

/// A lock-free fixed-bucket log-linear histogram.
pub struct Histo {
    counts: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl std::fmt::Debug for Histo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histo")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Histo {
    fn default() -> Self {
        Histo::new()
    }
}

impl Histo {
    /// The bucketing scheme's relative-error bound: any recorded value and
    /// its bucket's bounds differ by at most this fraction of the value.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

    pub fn new() -> Histo {
        // `AtomicU64` is not Copy; build the boxed array through a Vec.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let counts: Box<[AtomicU64; BUCKETS]> = v
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("BUCKETS-sized vec"));
        Histo {
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock-free; callable from any thread.
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (saturating only at u64 wrap, which the
    /// service's microsecond latencies cannot reach).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets. Exact at quiescence; during
    /// concurrent writes each bucket is read once (relaxed), so the copy
    /// may straddle in-flight records but never tears a counter.
    pub fn snapshot(&self) -> HistoSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistoSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            counts,
        }
    }
}

/// An owned, mergeable copy of a histogram's buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Per-bucket counts (see [`bucket_lower`]/[`bucket_upper`]).
    pub counts: Vec<u64>,
    /// Total recorded values (= sum of `counts`).
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
}

impl HistoSnapshot {
    pub fn empty() -> HistoSnapshot {
        HistoSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Fold another snapshot into this one (histograms are mergeable by
    /// bucket-wise addition).
    pub fn merge(&mut self, other: &HistoSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Nearest-rank percentile (`p` in 0..=1): the upper bound of the
    /// bucket holding the ⌈p·n⌉-th smallest recorded value — the
    /// "smallest value with at least p of the distribution at or below
    /// it" order statistic, never below it and above it by at most one
    /// bucket's relative error ([`Histo::MAX_RELATIVE_ERROR`]).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs, ending
    /// with the total — the shape a Prometheus histogram exposition needs.
    /// Only boundaries where the cumulative count changes are emitted.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            if *c > 0 {
                cum += c;
                out.push((bucket_upper(i), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_value_line() {
        // Every value maps into a bucket whose [lower, upper] contains it,
        // and boundaries are exact inverses of the index function.
        for v in (0u64..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let i = bucket_index(v);
            assert!(
                bucket_lower(i) <= v && v <= bucket_upper(i),
                "v={v} i={i} lower={} upper={}",
                bucket_lower(i),
                bucket_upper(i)
            );
        }
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "lower bound of {i}");
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound of {i}");
            if i + 1 < BUCKETS {
                assert_eq!(
                    bucket_upper(i) + 1,
                    bucket_lower(i + 1),
                    "buckets must tile without gaps at {i}"
                );
            }
        }
    }

    #[test]
    fn bucket_width_respects_the_relative_error_bound() {
        for i in 0..BUCKETS {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            if lo > 0 {
                let rel = (hi - lo) as f64 / lo as f64;
                assert!(
                    rel <= Histo::MAX_RELATIVE_ERROR + 1e-12,
                    "bucket {i} [{lo},{hi}] rel error {rel}"
                );
            }
        }
    }

    #[test]
    fn records_count_and_percentiles() {
        let h = Histo::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // Small values are exact-bucketed; larger ones within 12.5%.
        assert_eq!(s.percentile(0.05), 5);
        let p50 = s.p50();
        assert!((50..=56).contains(&p50), "p50={p50}");
        let p99 = s.p99();
        assert!((99..=111).contains(&p99), "p99={p99}");
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99());
        assert_eq!(s.percentile(1.0), s.percentile(0.9999));
    }

    /// Exact nearest-rank percentile over a sorted slice — the oracle the
    /// histogram reduction is checked against.
    fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
        let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    /// Property: for seeded value streams spanning exact buckets through
    /// wide octaves, every histogram percentile brackets the true
    /// nearest-rank order statistic from above within one bucket's
    /// relative error.
    #[test]
    fn histo_percentiles_track_exact_nearest_rank() {
        for seed in 0u64..8 {
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (seed + 1);
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let h = Histo::new();
            let mut values = Vec::new();
            for i in 0..2000u64 {
                // Mix exact small values with log-distributed large ones.
                let v = match i % 3 {
                    0 => next() % 16,
                    1 => next() % 10_000,
                    _ => next() % 1_000_000_000,
                };
                h.record(v);
                values.push(v);
            }
            values.sort_unstable();
            let snap = h.snapshot();
            assert_eq!(snap.count, values.len() as u64);
            for p in [0.10, 0.50, 0.90, 0.95, 0.99, 1.0] {
                let exact = exact_percentile(&values, p);
                let approx = snap.percentile(p);
                assert!(
                    approx >= exact,
                    "seed {seed} p{p}: approx {approx} below exact {exact}"
                );
                let bound = exact as f64 * (1.0 + Histo::MAX_RELATIVE_ERROR) + 1.0;
                assert!(
                    (approx as f64) <= bound,
                    "seed {seed} p{p}: approx {approx} exceeds {bound} (exact {exact})"
                );
            }
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histo::new().snapshot();
        assert_eq!((s.count, s.sum, s.p50(), s.p99()), (0, 0, 0, 0));
        assert!(s.cumulative_buckets().is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn snapshots_merge_bucketwise() {
        let (a, b) = (Histo::new(), Histo::new());
        for v in [1u64, 10, 100, 1000] {
            a.record(v);
        }
        for v in [5u64, 50, 500, 5000, 50_000] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 9);
        assert_eq!(merged.sum, a.sum() + b.sum());
        let all = Histo::new();
        for v in [1u64, 10, 100, 1000, 5, 50, 500, 5000, 50_000] {
            all.record(v);
        }
        assert_eq!(merged, all.snapshot(), "merge == recording into one");
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let h = Histo::new();
        for v in [3u64, 3, 17, 900, 900, 900, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative_buckets();
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(cum.last().unwrap().1, s.count);
    }
}
