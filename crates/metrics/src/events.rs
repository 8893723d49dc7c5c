//! The bounded lock-free request event ring.
//!
//! Every request the service admits gets a `RequestId`, and the lifecycle
//! points — admit, dequeue, start, trip, reply — append an [`Event`] here.
//! The ring holds the most recent `capacity` events; an append **never
//! blocks and never fails**: when the ring is full it overwrites the
//! oldest slot and the loss is counted, so at quiescence the accounting
//! identity
//!
//! ```text
//! retained + dropped == appended
//! ```
//!
//! holds exactly ([`EventRingStats`]), which the storm tests pin.
//!
//! Implementation: each slot is a tiny seqlock. A writer takes a global
//! ticket (`fetch_add`), claims its slot by CAS-ing the slot's version
//! from even (idle) to odd (writing), stores the three payload words, and
//! releases the slot at version `2·ticket + 2` — even again, and encoding
//! which append the slot now holds. If the claim CAS loses (another writer
//! is mid-flight on the same slot, which requires two appends a full ring
//! apart racing), the writer simply counts its event as dropped and
//! returns: the hot path never spins. Readers ([`EventRing::snapshot`])
//! double-read each slot's version around the payload and skip torn slots,
//! then order events by ticket.

use std::sync::atomic::{AtomicU64, Ordering};

/// What happened at one point of a request's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Admission control granted the request a slot.
    Admit,
    /// The job took its run slot: a pool worker dequeued it, or its caller
    /// runs it.
    Dequeue,
    /// The engine run began.
    Start,
    /// A budget or cancellation tripped mid-run.
    Trip,
    /// The response was produced (any outcome).
    Reply,
}

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Dequeue => "dequeue",
            EventKind::Start => "start",
            EventKind::Trip => "trip",
            EventKind::Reply => "reply",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            EventKind::Admit => 0,
            EventKind::Dequeue => 1,
            EventKind::Start => 2,
            EventKind::Trip => 3,
            EventKind::Reply => 4,
        }
    }

    fn from_u8(b: u8) -> EventKind {
        match b {
            0 => EventKind::Admit,
            1 => EventKind::Dequeue,
            2 => EventKind::Start,
            3 => EventKind::Trip,
            _ => EventKind::Reply,
        }
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The request this event belongs to.
    pub request_id: u64,
    pub kind: EventKind,
    /// Clock reading at the event, in microseconds.
    pub t_micros: u64,
    /// Small event-specific tag (the service stores the outcome class for
    /// replies/trips; 0 elsewhere).
    pub code: u32,
}

/// Accounting snapshot of a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventRingStats {
    /// Appends attempted (tickets issued).
    pub appended: u64,
    /// Events currently readable from the ring.
    pub retained: u64,
    /// Appends no longer readable: overwritten by newer events or skipped
    /// under a same-slot write race. `retained + dropped == appended`.
    pub dropped: u64,
    /// The subset of `dropped` lost to same-slot write races (diagnostic;
    /// expected ~0 in practice).
    pub lost_races: u64,
}

/// One seqlocked slot: version word + three payload words.
struct SlotCell {
    /// 0 = never written; odd = write in flight; even `2t+2` = holds the
    /// event appended with ticket `t`.
    version: AtomicU64,
    request_id: AtomicU64,
    t_micros: AtomicU64,
    /// kind in the low byte, code in the next 32 bits.
    meta: AtomicU64,
}

/// The bounded drop-oldest event ring.
pub struct EventRing {
    slots: Vec<SlotCell>,
    appended: AtomicU64,
    lost_races: AtomicU64,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.slots.len())
            .field("appended", &self.appended.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl EventRing {
    /// A ring retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            slots: (0..capacity)
                .map(|_| SlotCell {
                    version: AtomicU64::new(0),
                    request_id: AtomicU64::new(0),
                    t_micros: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                })
                .collect(),
            appended: AtomicU64::new(0),
            lost_races: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Append one event. Wait-free: on a same-slot write race the event is
    /// counted as dropped instead of spinning.
    pub fn record(&self, ev: Event) {
        let ticket = self.appended.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) % self.slots.len()];
        let seen = slot.version.load(Ordering::Acquire);
        if seen & 1 == 1 {
            // Another writer is mid-flight on this slot: give up rather
            // than block. The ticket still counts as appended → dropped.
            self.lost_races.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if slot
            .version
            .compare_exchange(seen, ticket * 2 + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.lost_races.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slot.request_id.store(ev.request_id, Ordering::Relaxed);
        slot.t_micros.store(ev.t_micros, Ordering::Relaxed);
        slot.meta.store(
            u64::from(ev.kind.to_u8()) | (u64::from(ev.code) << 8),
            Ordering::Relaxed,
        );
        slot.version.store(ticket * 2 + 2, Ordering::Release);
    }

    /// Total appends attempted so far.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Read every consistent slot, oldest first, plus the accounting
    /// stats. Torn slots (a writer mid-flight during the read) are skipped
    /// and show up as dropped; at quiescence the snapshot is exact.
    pub fn snapshot(&self) -> (Vec<Event>, EventRingStats) {
        let mut ticketed: Vec<(u64, Event)> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 & 1 == 1 {
                continue;
            }
            let request_id = slot.request_id.load(Ordering::Relaxed);
            let t_micros = slot.t_micros.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            if slot.version.load(Ordering::Acquire) != v1 {
                continue; // torn read: a writer got in between
            }
            ticketed.push((
                (v1 - 2) / 2,
                Event {
                    request_id,
                    kind: EventKind::from_u8((meta & 0xff) as u8),
                    t_micros,
                    code: (meta >> 8) as u32,
                },
            ));
        }
        ticketed.sort_by_key(|(t, _)| *t);
        let appended = self.appended.load(Ordering::Relaxed);
        let retained = ticketed.len() as u64;
        let stats = EventRingStats {
            appended,
            retained,
            dropped: appended.saturating_sub(retained),
            lost_races: self.lost_races.load(Ordering::Relaxed),
        };
        (ticketed.into_iter().map(|(_, e)| e).collect(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, kind: EventKind, t: u64) -> Event {
        Event {
            request_id: id,
            kind,
            t_micros: t,
            code: 0,
        }
    }

    #[test]
    fn retains_everything_under_capacity_in_order() {
        let ring = EventRing::new(8);
        for i in 0..5u64 {
            ring.record(ev(i, EventKind::Admit, i * 10));
        }
        let (events, stats) = ring.snapshot();
        assert_eq!(stats.appended, 5);
        assert_eq!(stats.retained, 5);
        assert_eq!(stats.dropped, 0);
        assert_eq!(
            events.iter().map(|e| e.request_id).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert_eq!(events[3].t_micros, 30);
    }

    #[test]
    fn drop_oldest_keeps_the_newest_and_counts_exactly() {
        let ring = EventRing::new(4);
        for i in 0..11u64 {
            ring.record(ev(i, EventKind::Reply, i));
        }
        let (events, stats) = ring.snapshot();
        assert_eq!(stats.appended, 11);
        assert_eq!(stats.retained, 4);
        assert_eq!(stats.dropped, 7, "oldest 7 overwritten");
        assert_eq!(stats.retained + stats.dropped, stats.appended);
        assert_eq!(
            events.iter().map(|e| e.request_id).collect::<Vec<_>>(),
            [7, 8, 9, 10],
            "the newest capacity-many survive, oldest first"
        );
    }

    #[test]
    fn event_payload_roundtrips_through_the_packed_slot() {
        let ring = EventRing::new(2);
        ring.record(Event {
            request_id: u64::MAX - 3,
            kind: EventKind::Trip,
            t_micros: 123_456_789,
            code: 0xDEAD_BEEF,
        });
        let (events, _) = ring.snapshot();
        assert_eq!(
            events,
            [Event {
                request_id: u64::MAX - 3,
                kind: EventKind::Trip,
                t_micros: 123_456_789,
                code: 0xDEAD_BEEF,
            }]
        );
    }

    #[test]
    fn zero_capacity_is_clamped_not_divided_by() {
        let ring = EventRing::new(0);
        ring.record(ev(1, EventKind::Admit, 0));
        ring.record(ev(2, EventKind::Reply, 1));
        let (events, stats) = ring.snapshot();
        assert_eq!(ring.capacity(), 1);
        assert_eq!(events.len(), 1);
        assert_eq!(stats.retained + stats.dropped, stats.appended);
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in [
            EventKind::Admit,
            EventKind::Dequeue,
            EventKind::Start,
            EventKind::Trip,
            EventKind::Reply,
        ] {
            assert_eq!(EventKind::from_u8(kind.to_u8()), kind);
            assert!(!kind.name().is_empty());
        }
    }
}
