//! The service telemetry plane.
//!
//! Assembles the `gql-metrics` primitives into the service's observability
//! surface: per-`(tenant, dataset, surface, outcome)` latency histograms
//! recorded at the run's reply site, per-tenant rolling rate windows
//! (1 s / 10 s / 60 s), a bounded request-event ring keyed by the
//! service-assigned `RequestId`, and a slow-query log capturing the plan,
//! phase timings and trip report of any job whose service time exceeds the
//! configured threshold.
//!
//! Telemetry is always on and never perturbs answers: every hook is
//! fire-and-forget on lock-free structures (the only mutexes guard the
//! keyed-histogram lookup and the slow log, which is off the fast path by
//! definition), and the concurrency differential oracle holds responses
//! byte-identical to a fresh engine. [`Telemetry::probes`] counts hook
//! firings: five per admitted request. A hook reads the clock once, and
//! every window and event it records shares that reading; `on_start`
//! reuses `on_dequeue`'s, which it directly follows. An admitted request
//! costs four clock readings.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gql_metrics::{
    Clock, Event, EventKind, EventRing, EventRingStats, HistoSnapshot, KeyedHistos, MonotonicClock,
    SlowEntry, SlowLog, WindowSnapshot, Windows,
};

use crate::json::Value;
use crate::service::ServiceMetrics;

/// Window lanes, service-wide and per tenant.
pub const LANE_SUBMITTED: usize = 0;
pub const LANE_ADMITTED: usize = 1;
pub const LANE_REJECTED: usize = 2;
pub const LANE_CANCELLED: usize = 3;
const LANES: usize = 4;
const LANE_NAMES: [&str; LANES] = ["submitted", "admitted", "rejected", "cancelled"];

/// Histogram key: `(tenant, dataset, surface, outcome)`.
pub type HistoKey = (String, String, String, String);

/// Slow-log entries retained per dataset.
const SLOW_CAPACITY: usize = 8;
/// Request-event ring capacity.
const EVENT_CAPACITY: usize = 1024;

/// How the telemetry plane is wired at service build time.
#[derive(Clone)]
pub struct TelemetryConfig {
    /// Service times strictly above this capture into the slow-query log.
    pub slow_threshold_us: u64,
    /// Time source; `None` uses a [`MonotonicClock`]. Tests inject a
    /// `ManualClock` here to drive the rate windows deterministically.
    pub clock: Option<Arc<dyn Clock>>,
}

impl std::fmt::Debug for TelemetryConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryConfig")
            .field("slow_threshold_us", &self.slow_threshold_us)
            .finish_non_exhaustive()
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            slow_threshold_us: 100_000,
            clock: None,
        }
    }
}

impl TelemetryConfig {
    pub fn with_slow_threshold_us(mut self, us: u64) -> TelemetryConfig {
        self.slow_threshold_us = us;
        self
    }

    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> TelemetryConfig {
        self.clock = Some(clock);
        self
    }
}

/// Request-scoped context threaded from admission to the reply site.
#[derive(Debug, Clone)]
pub struct RequestMeta {
    pub request_id: u64,
    /// The registry's own copy of the tenant name, shared.
    pub tenant: Arc<str>,
    pub surface: &'static str,
    /// Clock reading at admission, microseconds.
    pub submitted_us: u64,
    /// Query source text, kept for slow-log capture.
    pub query: Arc<str>,
}

/// Numeric outcome tags stored in event `code` fields.
fn outcome_code(outcome: &str) -> u32 {
    match outcome {
        "ok" => 0,
        "rejected" => 1,
        "budget" => 2,
        "cancelled" => 3,
        _ => 4, // engine
    }
}

/// The assembled telemetry plane, shared by every handle of one service.
pub struct Telemetry {
    clock: Arc<dyn Clock>,
    next_request_id: AtomicU64,
    /// Hook firings.
    probes: AtomicU64,
    histos: KeyedHistos<HistoKey>,
    service_windows: Windows,
    /// Prebuilt at service build — the tenant registry is immutable.
    tenant_windows: BTreeMap<String, Windows>,
    events: EventRing,
    slow: SlowLog,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("probes", &self.probes.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Assemble the plane for a fixed tenant set.
    pub fn build(config: &TelemetryConfig, tenant_names: &[String]) -> Telemetry {
        let clock: Arc<dyn Clock> = config
            .clock
            .clone()
            .unwrap_or_else(|| Arc::new(MonotonicClock::new()));
        Telemetry {
            next_request_id: AtomicU64::new(1),
            probes: AtomicU64::new(0),
            histos: KeyedHistos::new(),
            service_windows: Windows::new(LANES, Arc::clone(&clock)),
            tenant_windows: tenant_names
                .iter()
                .map(|n| (n.clone(), Windows::new(LANES, Arc::clone(&clock))))
                .collect(),
            events: EventRing::new(EVENT_CAPACITY),
            slow: SlowLog::new(config.slow_threshold_us, SLOW_CAPACITY),
            clock,
        }
    }

    /// Hook firings so far.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Count one event on `lane`, service-wide and for `tenant`, at the
    /// hook's clock reading `now`.
    fn lane(&self, tenant: Option<&str>, lane: usize, now: u64) {
        self.service_windows.record_at(lane, now);
        if let Some(w) = tenant.and_then(|t| self.tenant_windows.get(t)) {
            w.record_at(lane, now);
        }
    }

    /// A request entered `submit` (tenant `None` until resolution).
    pub(crate) fn on_submitted(&self, tenant: Option<&str>) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.lane(tenant, LANE_SUBMITTED, self.clock.now_micros());
    }

    /// Admission control bounced the request.
    pub(crate) fn on_rejected(&self, tenant: &str) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.lane(Some(tenant), LANE_REJECTED, self.clock.now_micros());
    }

    /// Admission granted: mint the request id and its reply-site context.
    pub(crate) fn on_admitted(
        &self,
        tenant: &Arc<str>,
        surface: &'static str,
        query: &Arc<str>,
    ) -> RequestMeta {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now_micros();
        self.lane(Some(tenant), LANE_ADMITTED, now);
        self.events.record(Event {
            request_id,
            kind: EventKind::Admit,
            t_micros: now,
            code: 0,
        });
        RequestMeta {
            request_id,
            tenant: Arc::clone(tenant),
            surface,
            submitted_us: now,
            query: Arc::clone(query),
        }
    }

    /// The job took its run slot at the gate, and its caller runs it.
    /// Returns the hook's clock reading, for `on_start`.
    pub(crate) fn on_dequeue(&self, meta: &RequestMeta) -> u64 {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now_micros();
        self.events.record(Event {
            request_id: meta.request_id,
            kind: EventKind::Dequeue,
            t_micros: now,
            code: 0,
        });
        now
    }

    /// The engine run began, straight after `on_dequeue` returned `now`.
    pub(crate) fn on_start(&self, meta: &RequestMeta, now: u64) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.events.record(Event {
            request_id: meta.request_id,
            kind: EventKind::Start,
            t_micros: now,
            code: 0,
        });
    }

    /// The reply site: one histogram record per admitted job, plus the
    /// trip/reply events, the cancelled-rate lane, and slow-query capture.
    /// Everything arrives borrowed (`phases` unevaluated); only a slow
    /// capture, or a key's first histogram, copies any of it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_reply<'a>(
        &self,
        meta: &RequestMeta,
        dataset: &str,
        outcome: &str,
        eval_us: u64,
        plan: &str,
        phases: impl IntoIterator<Item = (&'a str, u64)>,
        trip: Option<&str>,
    ) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now_micros();
        let service_us = now.saturating_sub(meta.submitted_us);
        let key = (&*meta.tenant, dataset, meta.surface, outcome);
        self.histos
            .get_by(
                |k: &HistoKey| (&*k.0, &*k.1, &*k.2, &*k.3).cmp(&key),
                || {
                    let (tenant, dataset, surface, outcome) = key;
                    (
                        tenant.to_string(),
                        dataset.to_string(),
                        surface.to_string(),
                        outcome.to_string(),
                    )
                },
            )
            .record(service_us);
        if outcome == "cancelled" {
            self.lane(Some(&meta.tenant), LANE_CANCELLED, now);
        }
        if trip.is_some() {
            self.events.record(Event {
                request_id: meta.request_id,
                kind: EventKind::Trip,
                t_micros: now,
                code: outcome_code(outcome),
            });
        }
        self.events.record(Event {
            request_id: meta.request_id,
            kind: EventKind::Reply,
            t_micros: now,
            code: outcome_code(outcome),
        });
        if self.slow.qualifies(service_us) {
            self.slow.capture(SlowEntry {
                request_id: meta.request_id,
                tenant: meta.tenant.to_string(),
                dataset: dataset.to_string(),
                surface: meta.surface.to_string(),
                query: meta.query.to_string(),
                outcome: outcome.to_string(),
                service_us,
                eval_us,
                plan: plan.to_string(),
                phases: phases
                    .into_iter()
                    .map(|(name, us)| (name.to_string(), us))
                    .collect(),
                trip: trip.map(str::to_string),
            });
        }
    }

    /// Merge of every keyed latency histogram.
    pub fn latency_all(&self) -> HistoSnapshot {
        self.histos.merged()
    }

    /// Retained slow-log entries for one dataset, oldest first.
    pub fn slow_entries_for(&self, dataset: &str) -> Vec<SlowEntry> {
        self.slow.entries_for(dataset)
    }

    /// Event-ring accounting (`retained + dropped == appended`).
    pub fn event_stats(&self) -> EventRingStats {
        self.events.snapshot().1
    }

    /// Assemble the full report against a counter snapshot.
    pub fn report(&self, service: ServiceMetrics) -> MetricsReport {
        let (events, event_stats) = self.events.snapshot();
        MetricsReport {
            service,
            latency: self.histos.snapshots(),
            latency_all: self.histos.merged(),
            service_windows: self.service_windows.snapshot(),
            tenant_windows: self
                .tenant_windows
                .iter()
                .map(|(n, w)| (n.clone(), w.snapshot()))
                .collect(),
            events,
            event_stats,
            slow: self.slow.entries(),
            slow_captured: self.slow.captured(),
            slow_threshold_us: self.slow.threshold_us(),
        }
    }
}

/// One full point-in-time telemetry report: counters, latency histograms,
/// rate windows, recent events and the slow-query log.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    pub service: ServiceMetrics,
    pub latency: Vec<(HistoKey, HistoSnapshot)>,
    pub latency_all: HistoSnapshot,
    pub service_windows: WindowSnapshot,
    pub tenant_windows: Vec<(String, WindowSnapshot)>,
    pub events: Vec<Event>,
    pub event_stats: EventRingStats,
    pub slow: Vec<(String, Vec<SlowEntry>)>,
    pub slow_captured: u64,
    pub slow_threshold_us: u64,
}

fn windows_value(s: &WindowSnapshot) -> Value {
    let lanes = |v: &Vec<u64>| {
        Value::Obj(
            LANE_NAMES
                .iter()
                .zip(v)
                .map(|(n, c)| ((*n).to_string(), Value::count(*c)))
                .collect(),
        )
    };
    Value::Obj(vec![
        ("1s".into(), lanes(&s.s1)),
        ("10s".into(), lanes(&s.s10)),
        ("60s".into(), lanes(&s.s60)),
    ])
}

fn histo_value(s: &HistoSnapshot) -> Value {
    Value::Obj(vec![
        ("count".into(), Value::count(s.count)),
        ("sum_us".into(), Value::count(s.sum)),
        ("p50_us".into(), Value::count(s.p50())),
        ("p95_us".into(), Value::count(s.p95())),
        ("p99_us".into(), Value::count(s.p99())),
    ])
}

fn slow_entry_value(e: &SlowEntry) -> Value {
    let mut pairs = vec![
        ("request_id".into(), Value::count(e.request_id)),
        ("tenant".into(), Value::str(e.tenant.clone())),
        ("dataset".into(), Value::str(e.dataset.clone())),
        ("surface".into(), Value::str(e.surface.clone())),
        ("query".into(), Value::str(e.query.clone())),
        ("outcome".into(), Value::str(e.outcome.clone())),
        ("service_us".into(), Value::count(e.service_us)),
        ("eval_us".into(), Value::count(e.eval_us)),
        ("plan".into(), Value::str(e.plan.clone())),
        (
            "phases".into(),
            Value::Arr(
                e.phases
                    .iter()
                    .map(|(name, us)| {
                        Value::Obj(vec![
                            ("phase".into(), Value::str(name.clone())),
                            ("us".into(), Value::count(*us)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(t) = &e.trip {
        pairs.push(("trip".into(), Value::str(t.clone())));
    }
    Value::Obj(pairs)
}

impl MetricsReport {
    /// Structured JSON for the `metrics` wire op's `report` view.
    pub fn to_value(&self) -> Value {
        let latency = self
            .latency
            .iter()
            .map(|((tenant, dataset, surface, outcome), s)| {
                let mut pairs = vec![
                    ("tenant".into(), Value::str(tenant.clone())),
                    ("dataset".into(), Value::str(dataset.clone())),
                    ("surface".into(), Value::str(surface.clone())),
                    ("outcome".into(), Value::str(outcome.clone())),
                ];
                if let Value::Obj(h) = histo_value(s) {
                    pairs.extend(h);
                }
                Value::Obj(pairs)
            })
            .collect();
        let events = self
            .events
            .iter()
            .map(|e| {
                Value::Obj(vec![
                    ("request_id".into(), Value::count(e.request_id)),
                    ("kind".into(), Value::str(e.kind.name())),
                    ("t_us".into(), Value::count(e.t_micros)),
                    ("code".into(), Value::count(u64::from(e.code))),
                ])
            })
            .collect();
        let slow = self
            .slow
            .iter()
            .map(|(dataset, entries)| {
                Value::Obj(vec![
                    ("name".into(), Value::str(dataset.clone())),
                    (
                        "entries".into(),
                        Value::Arr(entries.iter().map(slow_entry_value).collect()),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("counters".into(), self.service.to_value()),
            ("latency".into(), Value::Arr(latency)),
            ("latency_all".into(), histo_value(&self.latency_all)),
            (
                "windows".into(),
                Value::Obj(vec![
                    ("service".into(), windows_value(&self.service_windows)),
                    (
                        "tenants".into(),
                        Value::Arr(
                            self.tenant_windows
                                .iter()
                                .map(|(n, s)| {
                                    Value::Obj(vec![
                                        ("name".into(), Value::str(n.clone())),
                                        ("windows".into(), windows_value(s)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "events".into(),
                Value::Obj(vec![
                    ("appended".into(), Value::count(self.event_stats.appended)),
                    ("retained".into(), Value::count(self.event_stats.retained)),
                    ("dropped".into(), Value::count(self.event_stats.dropped)),
                    (
                        "lost_races".into(),
                        Value::count(self.event_stats.lost_races),
                    ),
                    ("recent".into(), Value::Arr(events)),
                ]),
            ),
            (
                "slow".into(),
                Value::Obj(vec![
                    ("captured".into(), Value::count(self.slow_captured)),
                    ("threshold_us".into(), Value::count(self.slow_threshold_us)),
                    ("datasets".into(), Value::Arr(slow)),
                ]),
            ),
        ])
    }

    /// The `gql-serve-stat` printout: the report as a terminal-sized,
    /// human-ordered summary.
    pub fn to_text(&self) -> String {
        let m = &self.service;
        let mut out = String::new();
        out.push_str("gql-serve metrics\n");
        out.push_str(&format!(
            "  requests  submitted={} admitted={} rejected={} (rate_limited={}) refused={} deduped={}\n",
            m.submitted, m.admitted, m.rejected, m.rate_limited, m.refused, m.deduped
        ));
        out.push_str(&format!(
            "  outcomes  completed={} cancelled={} budget_tripped={} failed={}\n",
            m.completed, m.cancelled, m.budget_tripped, m.failed
        ));
        out.push_str(&format!(
            "  caches    prepared hit={} miss={} evicted={} | plan warm={} cold={} replan={} | index warm={} cold={}\n",
            m.prepared_hits,
            m.prepared_misses,
            m.prepared_evictions,
            m.plan_warm,
            m.plan_cold,
            m.plan_replans,
            m.index_warm,
            m.index_cold
        ));
        let w = &self.service_windows;
        for (i, lane) in LANE_NAMES.iter().enumerate() {
            out.push_str(&format!(
                "  rate      {lane:<9} 1s={} 10s={} 60s={}\n",
                w.s1[i], w.s10[i], w.s60[i]
            ));
        }
        let all = &self.latency_all;
        out.push_str(&format!(
            "  latency   n={} p50={}us p95={}us p99={}us mean={:.0}us\n",
            all.count,
            all.p50(),
            all.p95(),
            all.p99(),
            all.mean()
        ));
        for ((tenant, dataset, surface, outcome), s) in &self.latency {
            out.push_str(&format!(
                "    {tenant}/{dataset} {surface} {outcome}: n={} p50={}us p95={}us p99={}us\n",
                s.count,
                s.p50(),
                s.p95(),
                s.p99()
            ));
        }
        for (name, m) in &m.tenants {
            out.push_str(&format!(
                "  tenant    {name}: submitted={} admitted={} rejected={} refused={} peak_in_flight={}\n",
                m.submitted, m.admitted, m.rejected, m.refused, m.peak_in_flight
            ));
        }
        let e = &self.event_stats;
        out.push_str(&format!(
            "  events    appended={} retained={} dropped={}\n",
            e.appended, e.retained, e.dropped
        ));
        out.push_str(&format!(
            "  slow      captured={} (threshold {}us)\n",
            self.slow_captured, self.slow_threshold_us
        ));
        for (dataset, entries) in &self.slow {
            for entry in entries {
                out.push_str(&format!(
                    "    #{} {dataset} {} {}us plan={}{}\n",
                    entry.request_id,
                    entry.outcome,
                    entry.service_us,
                    entry.plan,
                    entry
                        .trip
                        .as_deref()
                        .map(|t| format!(" trip[{t}]"))
                        .unwrap_or_default()
                ));
                let phases: Vec<String> = entry
                    .phases
                    .iter()
                    .map(|(name, us)| format!("{name}={us}us"))
                    .collect();
                out.push_str(&format!("      phases {}\n", phases.join(" ")));
            }
        }
        out
    }

    /// Prometheus text exposition: counters, per-tenant counters, rate
    /// gauges, and cumulative `_bucket`/`_sum`/`_count` histograms. Its
    /// grammar, conservation laws and agreement with [`Self::to_value`] are
    /// held by `tests/metrics_views.rs`.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let m = &self.service;
        out.push_str("# TYPE gql_requests_total counter\n");
        for (class, v) in [
            ("submitted", m.submitted),
            ("admitted", m.admitted),
            ("rejected", m.rejected),
            ("rate_limited", m.rate_limited),
            ("refused", m.refused),
            ("deduped", m.deduped),
            ("completed", m.completed),
            ("cancelled", m.cancelled),
            ("budget_tripped", m.budget_tripped),
            ("failed", m.failed),
        ] {
            out.push_str(&format!("gql_requests_total{{class=\"{class}\"}} {v}\n"));
        }
        out.push_str("# TYPE gql_tenant_requests_total counter\n");
        for (name, t) in &m.tenants {
            for (class, v) in [
                ("submitted", t.submitted),
                ("admitted", t.admitted),
                ("rejected", t.rejected),
                ("rate_limited", t.rate_limited),
                ("refused", t.refused),
            ] {
                out.push_str(&format!(
                    "gql_tenant_requests_total{{tenant=\"{}\",class=\"{class}\"}} {v}\n",
                    label_escape(name)
                ));
            }
        }
        out.push_str("# TYPE gql_cache_events_total counter\n");
        for (cache, outcome, v) in [
            ("prepared", "hit", m.prepared_hits),
            ("prepared", "miss", m.prepared_misses),
            ("prepared", "eviction", m.prepared_evictions),
            ("plan", "warm", m.plan_warm),
            ("plan", "cold", m.plan_cold),
            ("plan", "replan", m.plan_replans),
            ("index", "warm", m.index_warm),
            ("index", "cold", m.index_cold),
        ] {
            out.push_str(&format!(
                "gql_cache_events_total{{cache=\"{cache}\",outcome=\"{outcome}\"}} {v}\n"
            ));
        }
        out.push_str("# TYPE gql_requests_window gauge\n");
        let mut window_lines = |scope: &str, tenant: Option<&str>, s: &WindowSnapshot| {
            for (win, v) in [("1s", &s.s1), ("10s", &s.s10), ("60s", &s.s60)] {
                for (i, lane) in LANE_NAMES.iter().enumerate() {
                    let tenant_label = tenant
                        .map(|t| format!("tenant=\"{}\",", label_escape(t)))
                        .unwrap_or_default();
                    out.push_str(&format!(
                        "gql_requests_window{{scope=\"{scope}\",{tenant_label}lane=\"{lane}\",window=\"{win}\"}} {}\n",
                        v[i]
                    ));
                }
            }
        };
        window_lines("service", None, &self.service_windows);
        for (name, s) in &self.tenant_windows {
            window_lines("tenant", Some(name), s);
        }
        out.push_str("# TYPE gql_service_time_us histogram\n");
        for ((tenant, dataset, surface, outcome), s) in &self.latency {
            let labels = format!(
                "tenant=\"{}\",dataset=\"{}\",surface=\"{}\",outcome=\"{}\"",
                label_escape(tenant),
                label_escape(dataset),
                label_escape(surface),
                label_escape(outcome)
            );
            for (upper, cum) in s.cumulative_buckets() {
                out.push_str(&format!(
                    "gql_service_time_us_bucket{{{labels},le=\"{upper}\"}} {cum}\n"
                ));
            }
            out.push_str(&format!(
                "gql_service_time_us_bucket{{{labels},le=\"+Inf\"}} {}\n",
                s.count
            ));
            out.push_str(&format!("gql_service_time_us_sum{{{labels}}} {}\n", s.sum));
            out.push_str(&format!(
                "gql_service_time_us_count{{{labels}}} {}\n",
                s.count
            ));
        }
        out.push_str("# TYPE gql_events_appended_total counter\n");
        out.push_str(&format!(
            "gql_events_appended_total {}\n",
            self.event_stats.appended
        ));
        out.push_str("# TYPE gql_events_dropped_total counter\n");
        out.push_str(&format!(
            "gql_events_dropped_total {}\n",
            self.event_stats.dropped
        ));
        out.push_str("# TYPE gql_slow_queries_total counter\n");
        out.push_str(&format!("gql_slow_queries_total {}\n", self.slow_captured));
        out
    }
}

/// Escape a Prometheus label value (backslash, quote, newline).
fn label_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_metrics::ManualClock;

    fn telemetry() -> (Arc<ManualClock>, Telemetry) {
        let clock = Arc::new(ManualClock::at_micros(1_000_000));
        let t = Telemetry::build(
            &TelemetryConfig::default()
                .with_slow_threshold_us(0)
                .with_clock(Arc::clone(&clock) as Arc<dyn Clock>),
            &["t".to_string()],
        );
        (clock, t)
    }

    #[test]
    fn full_lifecycle_records_histogram_events_and_slow_entry() {
        let (clock, t) = telemetry();
        t.on_submitted(Some("t"));
        let meta = &t.on_admitted(&"t".into(), "query", &"//a".into());
        let dequeued = t.on_dequeue(meta);
        t.on_start(meta, dequeued);
        clock.advance_micros(250); // nonzero service time → slow at threshold 0
        t.on_reply(
            meta,
            "d",
            "budget",
            42,
            "scan(n)",
            [("eval", 42)],
            Some("phase=eval rounds=1 matches=0 nodes=5"),
        );
        assert_eq!(t.probes(), 5);
        let all = t.latency_all();
        assert_eq!(all.count, 1);
        let stats = t.event_stats();
        // admit + dequeue + start + trip + reply
        assert_eq!(stats.appended, 5);
        assert_eq!(stats.retained + stats.dropped, stats.appended);
        let slow = t.slow_entries_for("d");
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].service_us, 250);
        assert_eq!(slow[0].outcome, "budget");
        assert_eq!(slow[0].plan, "scan(n)");
        assert!(slow[0].trip.as_deref().unwrap().starts_with("phase="));
    }

    #[test]
    fn report_renders_all_three_surfaces() {
        let (clock, t) = telemetry();
        let meta = t.on_admitted(&"t".into(), "query", &"//a".into());
        clock.advance_micros(10);
        t.on_reply(&meta, "d", "ok", 3, "p", [], None);
        // One request run, its idempotent retry absorbed, one quota bounce.
        let service = ServiceMetrics {
            submitted: 3,
            admitted: 1,
            rejected: 1,
            rate_limited: 1,
            deduped: 1,
            completed: 1,
            ..Default::default()
        };
        let report = t.report(service);
        let json = report.to_value().render();
        assert!(json.contains("\"latency\""));
        assert!(json.contains("\"windows\""));
        assert!(json.contains("\"events\""));
        let text = report.to_text();
        assert!(text.starts_with("gql-serve metrics\n"));
        assert!(text.contains(
            "requests  submitted=3 admitted=1 rejected=1 (rate_limited=1) refused=0 deduped=1\n"
        ));
        assert!(text.contains("latency"));
        let prom = report.to_prometheus_text();
        assert!(prom.contains("# TYPE gql_requests_total counter"));
        // Every term of `admitted + rejected + refused + deduped ==
        // submitted` is a class of the exposition.
        let class = |name: &str| {
            let line = format!("gql_requests_total{{class=\"{name}\"}} ");
            let rest = &prom[prom.find(&line).expect(name) + line.len()..];
            rest[..rest.find('\n').unwrap()].parse::<u64>().unwrap()
        };
        assert_eq!(
            class("admitted") + class("rejected") + class("refused") + class("deduped"),
            class("submitted")
        );
        assert_eq!((class("deduped"), class("rate_limited")), (1, 1));
        assert!(prom.contains("gql_service_time_us_bucket"));
        assert!(prom.contains("le=\"+Inf\"} 1"));
        assert!(prom.contains("gql_service_time_us_count"));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        assert_eq!(label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
