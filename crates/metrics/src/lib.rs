//! # gql-metrics — the service telemetry substrate
//!
//! Dependency-free building blocks the query service (`gql-serve`)
//! assembles into its telemetry plane. Everything here is designed for a
//! hot path that must never perturb answers or block:
//!
//! * [`Histo`] — a fixed-bucket **log-linear latency histogram** with
//!   atomic buckets: `record` is a couple of relaxed `fetch_add`s, no
//!   locks, no allocation. Snapshots are mergeable and reduce to
//!   nearest-rank percentiles with a bounded relative error of
//!   [`Histo::MAX_RELATIVE_ERROR`] (one sub-bucket's width).
//! * [`Clock`] — the injected monotonic time source: [`MonotonicClock`]
//!   in production, [`ManualClock`] in tests so every windowed behaviour
//!   is deterministic.
//! * [`Windows`] — rolling time-window counters: a ring of per-second
//!   epoch buckets advanced by the clock, summed over the trailing
//!   1 s / 10 s / 60 s. The substrate for rate limiting over time windows.
//! * [`EventRing`] — a bounded lock-free request-event log. Writers never
//!   block and never wait for readers: when the ring is full the oldest
//!   event is overwritten and the drop is **counted**, so the accounting
//!   identity `retained + dropped == appended` holds exactly at
//!   quiescence.
//! * [`SlowLog`] — a bounded per-dataset ring of slow-query captures,
//!   generic over what the caller captures. The slow path by definition,
//!   so a short critical section is acceptable here.
//! * [`KeyedHistos`] — a keyed registry of histograms
//!   (per (tenant, dataset, surface, outcome) in the service), where the
//!   brief registry lock only guards the map lookup — recording itself is
//!   on the lock-free histogram.

pub mod clock;
pub mod events;
pub mod histo;
pub mod keyed;
pub mod slow;
pub mod window;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use events::{Event, EventKind, EventRing, EventRingStats};
pub use histo::{Histo, HistoSnapshot};
pub use keyed::KeyedHistos;
pub use slow::SlowLog;
pub use window::{WindowSnapshot, Windows, WINDOW_SLOTS};
