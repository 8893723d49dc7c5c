//! # gql-serve — the multi-tenant query service
//!
//! Everything the library stack built — resident index cache, keyed plan
//! cache (`gql-plan`), budgets and cooperative cancellation (`gql-guard`),
//! execution profiles (`gql-trace`) — assembled into a long-lived service
//! that owns no thread of its own:
//!
//! * [`catalog`] — named datasets loaded and indexed **once**, shared
//!   read-only across connections via `Arc`, re-validated against a
//!   content fingerprint on every access;
//! * [`tenant`] — per-tenant budget envelopes: an in-flight slot count
//!   plus a pooled match-unit reservation every admitted query draws
//!   from. Admission control rejects with a structured `overloaded`
//!   response instead of queueing unboundedly;
//! * [`service`] — the run-slot gate and the in-process [`ServeHandle`]
//!   API: single and batched submission, each under an optional cancel
//!   token (every run happens on the thread that submitted it — a wire
//!   query's on its connection's thread — once it holds one of `workers`
//!   run slots, taken in arrival order; a batch runs its items one after
//!   another, so a repeat runs warm behind its first occurrence),
//!   per-request profiles, and warm/cold cache counters surfaced as
//!   service metrics through the trace layer. A query text is parsed, printed and gated once: the
//!   service keeps a bounded cache of prepared queries by `(kind, text)`;
//! * [`proto`] + [`server`] — a length-prefixed protocol over TCP: JSON
//!   requests, and replies of a JSON header followed by the answers' raw
//!   XML in chunks, each reply in one write.
//!   A connection's thread runs its own queries, and one watcher thread
//!   per server trips the `CancelToken` of a run whose client disconnected
//!   mid-query; the partial-progress trip report is returned, not dropped.
//!   Read/write idle timeouts reap stalled (slow-loris) connections;
//! * [`client`] — a resilient blocking client: per-request deadlines,
//!   capped exponential backoff with deterministic seeded jitter, and
//!   idempotent retries deduplicated server-side at the run boundary.
//!
//! Resilience is layered on top: the [`catalog`] versions every dataset
//! by **epoch** with atomic hot reload and graceful drain (in-flight
//! queries finish on the epoch they were admitted to; a reply never mixes
//! epochs), and [`tenant`] adds time-window rate quotas that reject with
//! a structured `rate_limited` + `retry_after_ms` envelope.
//!
//! The testkit's concurrency differential oracle replays the whole
//! regression corpus through this service at concurrency 8 and holds the
//! results byte-identical to a fresh single-threaded `Engine` — serving
//! concurrently must never change an answer. The chaos oracle re-runs the
//! corpus through the resilient client while the guard's fault plan tears
//! frames, drops replies, panics runs (on connection threads, and on the
//! threads of more in-process callers than there are run slots), hangs up
//! on stalled runs and hot-reloads the catalog mid-storm, holding the same
//! bar.

pub mod catalog;
pub mod client;
pub mod json;
mod prepared;
pub mod proto;
pub mod server;
pub mod service;
pub mod telemetry;
pub mod tenant;

pub use catalog::{Catalog, Dataset, EpochPin, EpochStats};
pub use client::{ClientError, ResilientClient, RetryPolicy};
pub use proto::MetricsView;
pub use server::{Client, Server, ServerConfig};
pub use service::{
    ErrorCode, QueryErr, QueryOk, Request, Response, ServeHandle, Service, ServiceBuilder,
    ServiceMetrics,
};
pub use telemetry::{MetricsReport, Telemetry, TelemetryConfig};
pub use tenant::{AdmitDenied, Envelope, Permit, Tenant, TenantMetrics, TenantRegistry};
