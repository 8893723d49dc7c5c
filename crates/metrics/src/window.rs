//! Rolling time-window counters: a ring of per-second epoch buckets.
//!
//! [`Windows`] holds [`WINDOW_SLOTS`] one-second buckets, each stamped
//! with the epoch (whole seconds of [`Clock`] time) it currently counts.
//! Recording computes the current epoch, rotates the target bucket if its
//! stamp is stale (one rotator zeroes the lanes; the swap on the stamp
//! elects it), then increments the lane. Summing a trailing window of
//! `W ≤ WINDOW_SLOTS` seconds adds up every bucket whose stamp lies in
//! `(now-W, now]` — including the in-progress second.
//!
//! Concurrency contract: recording is wait-free (two atomic ops plus the
//! rare rotation) and never blocks or locks. During a rotation race a
//! handful of increments may land in the epoch bucket just before it is
//! zeroed and be lost with it; windowed *rates* tolerate that by design.
//! The deterministic behaviours — rotation, trailing sums, slot reuse
//! after the ring wraps — are pinned by [`ManualClock`] tests; exact
//! conservation lives with the lifetime counters, not the windows.
//!
//! [`ManualClock`]: crate::clock::ManualClock

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::Clock;

/// Ring size in seconds; the longest supported trailing window.
pub const WINDOW_SLOTS: usize = 64;

/// Stamp value meaning "never used".
const NEVER: u64 = u64::MAX;

struct Slot {
    epoch: AtomicU64,
    lanes: Vec<AtomicU64>,
}

/// A multi-lane ring of per-second counters.
pub struct Windows {
    clock: Arc<dyn Clock>,
    slots: Vec<Slot>,
}

impl std::fmt::Debug for Windows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Windows")
            .field("lanes", &self.lanes())
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl Windows {
    /// A ring counting `lanes` independent event classes against `clock`.
    pub fn new(lanes: usize, clock: Arc<dyn Clock>) -> Windows {
        assert!(lanes > 0, "a Windows needs at least one lane");
        Windows {
            clock,
            slots: (0..WINDOW_SLOTS)
                .map(|_| Slot {
                    epoch: AtomicU64::new(NEVER),
                    lanes: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
                })
                .collect(),
        }
    }

    pub fn lanes(&self) -> usize {
        self.slots[0].lanes.len()
    }

    /// Count one event on `lane` at the clock's current second.
    pub fn record(&self, lane: usize) {
        self.record_n(lane, 1);
    }

    /// Count one event on `lane` at `now_micros`: a reading of this ring's
    /// clock that the caller already holds, so several rings (and an event
    /// stamp) can share one reading.
    pub fn record_at(&self, lane: usize, now_micros: u64) {
        self.record_n_at(lane, 1, now_micros);
    }

    /// Count `n` events on `lane` at the clock's current second in one
    /// increment. Used by weighted budgets (e.g. match-unit quotas)
    /// where a single admission charges many units at once.
    pub fn record_n(&self, lane: usize, n: u64) {
        self.record_n_at(lane, n, self.clock.now_micros());
    }

    fn record_n_at(&self, lane: usize, n: u64, now_micros: u64) {
        let epoch = now_micros / 1_000_000;
        let slot = &self.slots[(epoch as usize) % WINDOW_SLOTS];
        if slot.epoch.load(Ordering::Acquire) != epoch {
            // Elect one rotator: the swap returns the stale stamp to
            // exactly one thread, which zeroes the lanes for the new
            // second. Losers fall through and count into the fresh bucket.
            if slot.epoch.swap(epoch, Ordering::AcqRel) != epoch {
                for lane in &slot.lanes {
                    lane.store(0, Ordering::Release);
                }
            }
        }
        slot.lanes[lane].fetch_add(n, Ordering::Relaxed);
    }

    /// Sum every lane over the trailing `window_secs` seconds (stamps in
    /// `(now-window, now]`). `window_secs` is clamped to the ring size.
    pub fn sums(&self, window_secs: u64) -> Vec<u64> {
        let window = window_secs.clamp(1, WINDOW_SLOTS as u64);
        let now = self.clock.now_micros() / 1_000_000;
        let mut out = vec![0u64; self.lanes()];
        for slot in &self.slots {
            let e = slot.epoch.load(Ordering::Acquire);
            if e != NEVER && e <= now && now - e < window {
                for (o, lane) in out.iter_mut().zip(&slot.lanes) {
                    *o += lane.load(Ordering::Relaxed);
                }
            }
        }
        out
    }

    /// The standard trailing snapshot: sums over 1 s, 10 s and 60 s.
    pub fn snapshot(&self) -> WindowSnapshot {
        WindowSnapshot {
            s1: self.sums(1),
            s10: self.sums(10),
            s60: self.sums(60),
        }
    }
}

/// Per-lane trailing sums over the three standard windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    pub s1: Vec<u64>,
    pub s10: Vec<u64>,
    pub s60: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn windows(lanes: usize) -> (Arc<ManualClock>, Windows) {
        let clock = Arc::new(ManualClock::new());
        let w = Windows::new(lanes, Arc::clone(&clock) as Arc<dyn Clock>);
        (clock, w)
    }

    #[test]
    fn sums_cover_exactly_the_trailing_window() {
        let (clock, w) = windows(2);
        w.record(0); // second 0
        w.record(0);
        w.record(1);
        clock.advance_secs(5);
        w.record(0); // second 5
        assert_eq!(w.sums(1), [1, 0], "last 1s sees only second 5");
        assert_eq!(w.sums(10), [3, 1], "last 10s sees seconds 0 and 5");
        clock.advance_secs(5);
        // Now at second 10: second 0 (distance 10) just fell out of the
        // 10s window, second 5 (distance 5) is still in.
        assert_eq!(w.sums(10), [1, 0]);
        assert_eq!(w.sums(60), [3, 1]);
        clock.advance_secs(55);
        assert_eq!(w.sums(60), [0, 0], "everything aged out at second 65");
    }

    #[test]
    fn bucket_rotation_zeroes_reused_slots() {
        let (clock, w) = windows(1);
        // Fill second 3's slot, then come back to the same slot one full
        // ring later (second 3 + 64): the stale count must not survive.
        clock.advance_secs(3);
        for _ in 0..7 {
            w.record(0);
        }
        assert_eq!(w.sums(1), [7]);
        clock.advance_secs(WINDOW_SLOTS as u64);
        w.record(0); // same slot index, new epoch: rotates and zeroes
        assert_eq!(w.sums(1), [1], "rotation must clear the recycled slot");
        assert_eq!(
            w.sums(60),
            [1],
            "the 60s window must not resurrect counts from a lap ago"
        );
    }

    #[test]
    fn stale_slots_never_pollute_sums_without_rotation() {
        let (clock, w) = windows(1);
        w.record(0); // second 0
                     // Jump two full laps without recording: the slot still carries
                     // epoch 0, and every window must ignore it by stamp, not by slot.
        clock.advance_secs(2 * WINDOW_SLOTS as u64);
        assert_eq!(w.sums(60), [0]);
        assert_eq!(w.sums(1), [0]);
    }

    #[test]
    fn in_progress_second_counts_immediately() {
        let (clock, w) = windows(1);
        clock.advance_secs(100);
        w.record(0);
        w.record(0);
        assert_eq!(w.sums(1), [2]);
        // 999999µs later it is still the same second...
        clock.advance_micros(999_999);
        assert_eq!(w.sums(1), [2]);
        // ...and one more microsecond rolls it out of the 1s window.
        clock.advance_micros(1);
        assert_eq!(w.sums(1), [0]);
        assert_eq!(w.sums(10), [2]);
    }

    #[test]
    fn window_is_clamped_to_the_ring() {
        let (clock, w) = windows(1);
        w.record(0);
        clock.advance_secs(1);
        assert_eq!(w.sums(0), w.sums(1), "zero-width clamps up to 1s");
        assert_eq!(
            w.sums(10_000),
            w.sums(WINDOW_SLOTS as u64),
            "oversized windows clamp to the ring"
        );
    }

    #[test]
    fn record_n_charges_many_units_into_one_second() {
        let (clock, w) = windows(2);
        w.record_n(0, 40);
        w.record(0);
        w.record_n(1, 0); // zero-unit charge is a no-op on the sums
        assert_eq!(w.sums(1), [41, 0]);
        clock.advance_secs(1);
        w.record_n(0, 9);
        assert_eq!(w.sums(1), [9, 0], "weighted counts rotate like unit ones");
        assert_eq!(w.sums(10), [50, 0]);
    }

    #[test]
    fn record_at_counts_into_the_second_of_the_given_reading() {
        let (clock, w) = windows(1);
        clock.advance_secs(3);
        w.record_at(0, 1_500_000); // second 1, two seconds ago
        w.record_at(0, clock.now_micros());
        assert_eq!(w.sums(1), [1]);
        assert_eq!(w.sums(10), [2]);
    }

    #[test]
    fn snapshot_bundles_the_three_standard_windows() {
        let (clock, w) = windows(2);
        w.record(0);
        clock.advance_secs(2);
        w.record(1);
        let s = w.snapshot();
        assert_eq!(s.s1, [0, 1]);
        assert_eq!(s.s10, [1, 1]);
        assert_eq!(s.s60, [1, 1]);
    }
}
