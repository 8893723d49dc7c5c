//! Sample reduction: exact nearest-rank percentiles over raw samples, the
//! "at least ten samples beyond" tail rule, medians and the FNV-64 reply
//! checksum. Nothing here goes through a histogram — a bucketed estimate
//! cannot resolve the 10 % regression bounds the end-to-end metrics carry.

/// A percentile as an exact fraction, so rank arithmetic never rounds:
/// p99.9 is `Pct(999, 1000)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct(pub u64, pub u64);

impl Pct {
    pub const P50: Pct = Pct(50, 100);
    pub const P95: Pct = Pct(95, 100);
    pub const P99: Pct = Pct(99, 100);

    pub fn as_f64(self) -> f64 {
        100.0 * self.0 as f64 / self.1 as f64
    }

    /// 1-based nearest rank among `n` samples: the smallest rank with at
    /// least this share of the samples at or below it.
    fn rank(self, n: usize) -> usize {
        let n = n as u64;
        ((n * self.0).div_ceil(self.1)).clamp(1, n) as usize
    }
}

/// Nearest-rank percentile of an ascending slice. Panics on an empty one:
/// a window without samples has no latency to report.
pub fn nearest_rank(sorted: &[u64], pct: Pct) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    sorted[pct.rank(sorted.len()) - 1]
}

/// The ladder the tail rule climbs.
const TAIL_LADDER: [Pct; 6] = [
    Pct(50, 100),
    Pct(90, 100),
    Pct(99, 100),
    Pct(999, 1000),
    Pct(9999, 10000),
    Pct(99999, 100000),
];

/// The highest ladder percentile that still has at least ten samples
/// beyond it, with its value. `None` below 20 samples (even the median has
/// fewer than ten beyond it then).
pub fn tail(sorted: &[u64]) -> Option<(Pct, u64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|p| !sorted.is_empty() && sorted.len() - p.rank(sorted.len()) >= 10)
        .map(|&p| (p, nearest_rank(sorted, p)))
}

/// Median of a float list (mean of the middle pair for even lengths).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty list");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// FNV-1a, 64 bit: the in-window reply checksum (the warm-up compares the
/// reply bytes themselves).
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_on_known_sets() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, Pct::P50), 50);
        assert_eq!(nearest_rank(&s, Pct::P99), 99);
        assert_eq!(nearest_rank(&s, Pct(100, 100)), 100);
        assert_eq!(nearest_rank(&s, Pct(0, 100)), 1);
        // 0.99 * 200 is 198.00000000000003 in floating point; the integer
        // rank must still be 198.
        let s: Vec<u64> = (1..=200).collect();
        assert_eq!(nearest_rank(&s, Pct::P99), 198);
        // Odd sizes round the rank up.
        let s = [10, 20, 30];
        assert_eq!(nearest_rank(&s, Pct::P50), 20);
        assert_eq!(nearest_rank(&s, Pct(34, 100)), 20);
        assert_eq!(nearest_rank(&s, Pct(33, 100)), 10);
        assert_eq!(nearest_rank(&[7], Pct::P99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<u64> = (1..=19).collect();
        assert_eq!(tail(&s), None, "p50 of 19 has only 9 beyond");
        let s: Vec<u64> = (1..=20).collect();
        assert_eq!(tail(&s), Some((Pct(50, 100), 10)));
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&s), Some((Pct(99, 100), 990)));
        let s: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&s), Some((Pct(90, 100), 900)), "p99 of 999 has 9");
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&s), Some((Pct(999, 1000), 9990)));
    }

    #[test]
    fn median_and_checksum() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"<a/>"), fnv64(b"<b/>"));
    }
}
