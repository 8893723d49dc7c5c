//! Per-tenant budget envelopes and admission control.
//!
//! A tenant's [`Envelope`] bounds what its *concurrent* traffic may hold at
//! once: an in-flight slot count and a pooled match-unit reservation that
//! every admitted query draws its per-query match cap from. Admission is a
//! single atomic claim — either both the slot and the pool reservation are
//! granted (returning an RAII [`Permit`] that releases them on drop, even
//! if the query panics) or the request is rejected `overloaded` without
//! queueing. Rejection is deliberately cheap and unqueued: a storm from one
//! tenant burns only that tenant's envelope, never another tenant's slots —
//! the starvation property test pins this.
//!
//! On top of the concurrency envelope sit optional **time-window quotas**:
//! requests/sec and match-units/sec budgets metered over the gql-metrics
//! rolling one-second windows. A quota-exceeding request is rejected
//! `rate_limited` with a `retry_after_ms` hint (time to the next window
//! boundary) *before* any slot is claimed, so sustained abuse is bounded
//! over time, not just instantaneously. The quota clock is injected
//! (`TenantRegistry::with_clock`) so tests pin the window arithmetic with
//! a `ManualClock`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gql_guard::Budget;
use gql_metrics::{Clock, MonotonicClock, Windows};

/// Quota window lanes: admissions and match units.
const LANE_REQS: usize = 0;
const LANE_UNITS: usize = 1;

/// What one tenant may hold in flight at once, plus sustained-rate quotas.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Maximum concurrently admitted queries.
    pub max_in_flight: u64,
    /// Budget each admitted query runs under (`Guard::with_cancel` per
    /// request). Its `max_matches` is the pool draw, when a pool is set.
    pub per_query: Budget,
    /// Total match units the tenant's concurrent queries may reserve; each
    /// admission draws `per_query.max_matches` (admission fails if the
    /// per-query budget is match-unlimited while a pool is set — an
    /// unlimited draw would defeat the pool).
    pub pool_matches: Option<u64>,
    /// Admissions allowed per trailing one-second window; excess is
    /// rejected `rate_limited` instead of `overloaded`.
    pub max_requests_per_sec: Option<u64>,
    /// Match units chargeable per trailing one-second window. Each
    /// admission charges its per-query match cap (or the whole budget if
    /// the query is match-unlimited).
    pub max_match_units_per_sec: Option<u64>,
}

impl Envelope {
    /// A permissive envelope: `n` slots, unlimited per-query budget, no
    /// match pool, no rate quotas.
    pub fn slots(n: u64) -> Envelope {
        Envelope {
            max_in_flight: n,
            per_query: Budget::unlimited(),
            pool_matches: None,
            max_requests_per_sec: None,
            max_match_units_per_sec: None,
        }
    }

    pub fn with_per_query(mut self, b: Budget) -> Envelope {
        self.per_query = b;
        self
    }

    pub fn with_pool_matches(mut self, units: u64) -> Envelope {
        self.pool_matches = Some(units);
        self
    }

    /// Cap admissions per trailing second.
    pub fn with_requests_per_sec(mut self, n: u64) -> Envelope {
        self.max_requests_per_sec = Some(n);
        self
    }

    /// Cap match units charged per trailing second.
    pub fn with_match_units_per_sec(mut self, units: u64) -> Envelope {
        self.max_match_units_per_sec = Some(units);
        self
    }

    fn has_quota(&self) -> bool {
        self.max_requests_per_sec.is_some() || self.max_match_units_per_sec.is_some()
    }
}

/// Why an admission was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDenied {
    /// The concurrency envelope (slots or match pool) is full.
    Overloaded,
    /// A time-window quota is exhausted; retry after the hint.
    RateLimited {
        /// Milliseconds until the current one-second window rolls over —
        /// the earliest instant a retry could be admitted.
        retry_after_ms: u64,
    },
}

/// Cumulative per-tenant counters. The per-tenant conservation law is
/// `admitted + rejected + refused == submitted` — `submitted` counts from
/// tenant resolution on, so requests naming an unknown tenant attribute
/// only to the service-wide counters. `rate_limited` is the quota-rejected
/// subset of `rejected`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Requests that resolved to this tenant.
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    /// Quota rejections (already counted in `rejected`).
    pub rate_limited: u64,
    /// Structured refusals after tenant resolution (unknown dataset, bad
    /// request, failed fingerprint).
    pub refused: u64,
    /// High-water mark of concurrently admitted queries.
    pub peak_in_flight: u64,
    /// High-water mark of reserved pool match units.
    pub peak_pool_draw: u64,
}

/// Rolling-window quota state: lane 0 counts admissions, lane 1 counts
/// charged match units, both over the injected clock's seconds.
struct Quota {
    windows: Windows,
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for Quota {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Quota")
            .field("windows", &self.windows)
            .finish()
    }
}

impl Quota {
    /// Milliseconds until the clock's current second rolls over, clamped
    /// to at least 1 so a `retry_after_ms` hint is never "now".
    fn retry_after_ms(&self) -> u64 {
        let in_second_us = self.clock.now_micros() % 1_000_000;
        ((1_000_000 - in_second_us) / 1_000).max(1)
    }
}

/// A registered tenant: envelope plus live admission state.
#[derive(Debug)]
pub struct Tenant {
    name: Arc<str>,
    envelope: Envelope,
    quota: Option<Quota>,
    in_flight: AtomicU64,
    pool_drawn: AtomicU64,
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    rate_limited: AtomicU64,
    refused: AtomicU64,
    peak_in_flight: AtomicU64,
    peak_pool_draw: AtomicU64,
}

impl Tenant {
    fn new(name: &str, envelope: Envelope, clock: &Arc<dyn Clock>) -> Tenant {
        let quota = envelope.has_quota().then(|| Quota {
            windows: Windows::new(2, Arc::clone(clock)),
            clock: Arc::clone(clock),
        });
        Tenant {
            name: Arc::from(name),
            envelope,
            quota,
            in_flight: AtomicU64::new(0),
            pool_drawn: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            peak_pool_draw: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name as every request of this tenant shares it.
    pub(crate) fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    pub fn envelope(&self) -> &Envelope {
        &self.envelope
    }

    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    pub fn metrics(&self) -> TenantMetrics {
        TenantMetrics {
            submitted: self.submitted.load(Ordering::SeqCst),
            admitted: self.admitted.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            rate_limited: self.rate_limited.load(Ordering::SeqCst),
            refused: self.refused.load(Ordering::SeqCst),
            peak_in_flight: self.peak_in_flight.load(Ordering::SeqCst),
            peak_pool_draw: self.peak_pool_draw.load(Ordering::SeqCst),
        }
    }

    /// Count a request that resolved to this tenant (the service calls
    /// this once per submission, before admission).
    pub(crate) fn note_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::SeqCst);
    }

    /// Count a post-resolution structured refusal (never admitted).
    pub(crate) fn note_refused(&self) {
        self.refused.fetch_add(1, Ordering::SeqCst);
    }

    /// The pool draw one admission claims: the per-query match cap, or the
    /// whole pool when the per-query budget is match-unlimited (so an
    /// uncapped query can never share the pool with anything else).
    fn pool_draw(&self) -> u64 {
        match self.envelope.pool_matches {
            None => 0,
            Some(pool) => self.envelope.per_query.max_matches.unwrap_or(pool.max(1)),
        }
    }

    /// The match units one admission charges against the per-second
    /// quota: the per-query cap, or the whole budget when uncapped.
    fn unit_charge(&self, budget: u64) -> u64 {
        self.envelope.per_query.max_matches.unwrap_or(budget.max(1))
    }

    /// Check the time-window quotas; does not mutate the windows. The
    /// over-admission race (two threads both passing the check in the
    /// same instant) is bounded and tolerated — windows meter rates, the
    /// hard concurrency claims stay exact.
    fn quota_denied(&self) -> Option<AdmitDenied> {
        let q = self.quota.as_ref()?;
        if let Some(cap) = self.envelope.max_requests_per_sec {
            if q.windows.sums(1)[LANE_REQS] + 1 > cap {
                return Some(AdmitDenied::RateLimited {
                    retry_after_ms: q.retry_after_ms(),
                });
            }
        }
        if let Some(cap) = self.envelope.max_match_units_per_sec {
            if q.windows.sums(1)[LANE_UNITS] + self.unit_charge(cap) > cap {
                return Some(AdmitDenied::RateLimited {
                    retry_after_ms: q.retry_after_ms(),
                });
            }
        }
        None
    }

    /// Claim a `counter` increment of `amount` bounded by `cap`, updating
    /// `peak`; backs out nothing (caller releases on failure of a later
    /// claim). Returns false if the claim would exceed the cap.
    fn claim(counter: &AtomicU64, cap: u64, amount: u64, peak: &AtomicU64) -> bool {
        let mut cur = counter.load(Ordering::SeqCst);
        loop {
            let next = match cur.checked_add(amount) {
                Some(n) if n <= cap => n,
                _ => return false,
            };
            match counter.compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => {
                    peak.fetch_max(next, Ordering::SeqCst);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Try to admit one query: check the window quotas, claim an
    /// in-flight slot, then the pool draw. Returns the RAII permit, or
    /// the denial reason (either way counted as a rejection).
    pub fn try_admit(self: &Arc<Tenant>) -> Result<Permit, AdmitDenied> {
        if let Some(denied) = self.quota_denied() {
            self.rejected.fetch_add(1, Ordering::SeqCst);
            self.rate_limited.fetch_add(1, Ordering::SeqCst);
            return Err(denied);
        }
        if !Self::claim(
            &self.in_flight,
            self.envelope.max_in_flight,
            1,
            &self.peak_in_flight,
        ) {
            self.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(AdmitDenied::Overloaded);
        }
        let draw = self.pool_draw();
        if let Some(pool) = self.envelope.pool_matches {
            if !Self::claim(&self.pool_drawn, pool, draw, &self.peak_pool_draw) {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                self.rejected.fetch_add(1, Ordering::SeqCst);
                return Err(AdmitDenied::Overloaded);
            }
        }
        if let Some(q) = &self.quota {
            q.windows.record(LANE_REQS);
            if let Some(cap) = self.envelope.max_match_units_per_sec {
                q.windows.record_n(LANE_UNITS, self.unit_charge(cap));
            }
        }
        self.admitted.fetch_add(1, Ordering::SeqCst);
        Ok(Permit {
            tenant: Arc::clone(self),
            draw,
        })
    }
}

/// RAII admission permit: releases the slot and pool reservation on drop.
#[derive(Debug)]
pub struct Permit {
    tenant: Arc<Tenant>,
    draw: u64,
}

impl Permit {
    pub fn tenant(&self) -> &Arc<Tenant> {
        &self.tenant
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.tenant.in_flight.fetch_sub(1, Ordering::SeqCst);
        if self.tenant.envelope.pool_matches.is_some() {
            self.tenant
                .pool_drawn
                .fetch_sub(self.draw, Ordering::SeqCst);
        }
    }
}

/// Immutable-after-build registry of tenants, shared via `Arc`.
pub struct TenantRegistry {
    tenants: Vec<Arc<Tenant>>,
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for TenantRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantRegistry")
            .field("tenants", &self.tenants)
            .finish()
    }
}

impl Default for TenantRegistry {
    fn default() -> Self {
        TenantRegistry::new()
    }
}

impl TenantRegistry {
    pub fn new() -> TenantRegistry {
        TenantRegistry::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry whose quota windows run on `clock` — tests inject a
    /// `ManualClock` to pin window rollover deterministically.
    pub fn with_clock(clock: Arc<dyn Clock>) -> TenantRegistry {
        TenantRegistry {
            tenants: Vec::new(),
            clock,
        }
    }

    /// Register a tenant; re-registering a name replaces the entry (state
    /// resets — registries are built before the service starts).
    pub fn register(&mut self, name: &str, envelope: Envelope) -> Arc<Tenant> {
        let t = Arc::new(Tenant::new(name, envelope, &self.clock));
        self.tenants.retain(|x| x.name() != name);
        self.tenants.push(Arc::clone(&t));
        t
    }

    pub fn get(&self, name: &str) -> Option<&Arc<Tenant>> {
        self.tenants.iter().find(|t| t.name() == name)
    }

    /// Tenants in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Tenant>> {
        self.tenants.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_metrics::ManualClock;

    #[test]
    fn slots_admit_up_to_capacity_and_release_on_drop() {
        let mut reg = TenantRegistry::new();
        let t = reg.register("a", Envelope::slots(2));
        let p1 = t.try_admit().expect("slot 1");
        let p2 = t.try_admit().expect("slot 2");
        assert_eq!(
            t.try_admit().expect_err("third must be rejected"),
            AdmitDenied::Overloaded
        );
        assert_eq!(t.in_flight(), 2);
        drop(p1);
        let p3 = t.try_admit().expect("freed slot readmits");
        drop((p2, p3));
        let m = t.metrics();
        assert_eq!((m.admitted, m.rejected, m.peak_in_flight), (3, 1, 2));
        assert_eq!(m.rate_limited, 0);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn pool_bounds_concurrent_match_draw() {
        let mut reg = TenantRegistry::new();
        // 3 slots but only 2 queries' worth of match units.
        let t = reg.register(
            "a",
            Envelope::slots(3)
                .with_per_query(Budget::unlimited().with_max_matches(100))
                .with_pool_matches(200),
        );
        let p1 = t.try_admit().expect("draw 100");
        let _p2 = t.try_admit().expect("draw 200");
        assert!(t.try_admit().is_err(), "pool exhausted before slots");
        assert_eq!(t.in_flight(), 2, "failed pool claim must release its slot");
        drop(p1);
        assert!(t.try_admit().is_ok(), "returned units readmit");
        assert_eq!(t.metrics().peak_pool_draw, 200);
    }

    #[test]
    fn match_unlimited_query_claims_the_whole_pool() {
        let mut reg = TenantRegistry::new();
        let t = reg.register("a", Envelope::slots(4).with_pool_matches(1_000));
        let _p = t.try_admit().expect("first");
        assert!(
            t.try_admit().is_err(),
            "an uncapped query must monopolize the pool"
        );
    }

    #[test]
    fn request_quota_rejects_in_window_and_readmits_after_rollover() {
        let clock = Arc::new(ManualClock::at_micros(250_000));
        let mut reg = TenantRegistry::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let t = reg.register("a", Envelope::slots(8).with_requests_per_sec(2));

        let p1 = t.try_admit().expect("1/2 this second");
        let p2 = t.try_admit().expect("2/2 this second");
        drop((p1, p2)); // releasing slots does NOT refund the window
        match t.try_admit().expect_err("quota holds across drops") {
            AdmitDenied::RateLimited { retry_after_ms } => {
                assert_eq!(retry_after_ms, 750, "hint is time to the next second");
            }
            other => panic!("expected RateLimited, got {other:?}"),
        }
        let m = t.metrics();
        assert_eq!((m.admitted, m.rejected, m.rate_limited), (2, 1, 1));

        // The next second grants a fresh budget.
        clock.advance_micros(750_000);
        assert!(t.try_admit().is_ok(), "new window readmits");
    }

    #[test]
    fn match_unit_quota_charges_the_per_query_cap() {
        let clock = Arc::new(ManualClock::new());
        let mut reg = TenantRegistry::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        // 40-unit cap per query, 100 units/sec: two admissions fit, the
        // third (cumulative 120 > 100) is rate-limited.
        let t = reg.register(
            "a",
            Envelope::slots(8)
                .with_per_query(Budget::unlimited().with_max_matches(40))
                .with_match_units_per_sec(100),
        );
        assert!(t.try_admit().is_ok());
        assert!(t.try_admit().is_ok());
        assert!(matches!(
            t.try_admit().expect_err("unit budget spent"),
            AdmitDenied::RateLimited { .. }
        ));
        clock.advance_secs(1);
        assert!(t.try_admit().is_ok(), "units refill with the window");
    }

    #[test]
    fn uncapped_query_charges_the_whole_unit_budget() {
        let clock = Arc::new(ManualClock::new());
        let mut reg = TenantRegistry::with_clock(clock as Arc<dyn Clock>);
        let t = reg.register("a", Envelope::slots(8).with_match_units_per_sec(500));
        assert!(t.try_admit().is_ok(), "first uncapped query admits");
        assert!(
            t.try_admit().is_err(),
            "an uncapped query consumes the whole second's units"
        );
    }

    #[test]
    fn zero_rate_quota_rejects_everything() {
        let mut reg = TenantRegistry::new();
        let t = reg.register("a", Envelope::slots(8).with_requests_per_sec(0));
        for _ in 0..3 {
            match t.try_admit() {
                Err(AdmitDenied::RateLimited { retry_after_ms }) => {
                    assert!((1..=1000).contains(&retry_after_ms));
                }
                other => panic!("expected RateLimited, got {other:?}"),
            }
        }
        let m = t.metrics();
        assert_eq!((m.admitted, m.rejected, m.rate_limited), (0, 3, 3));
    }
}
