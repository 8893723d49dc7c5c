//! The query service and its in-process [`ServeHandle`].
//!
//! Request lifecycle: resolve tenant → resolve dataset (fingerprint
//! re-verified) → prepare the query (parsed, printed and gated once per
//! text, then kept in the service's prepared-query cache) → **admit**
//! against the tenant's envelope (structured `overloaded` rejection, never
//! an unbounded wait — only admitted runs wait at the gate, so admission
//! *is* the bound) → take a **run slot** at the gate → execute under
//! `Guard::with_cancel` → reply.
//!
//! The service owns no thread: every run happens on the thread that
//! submitted it — for a wire query, its connection's thread — and one
//! function, `run_job`, does it. A gate of `workers` run slots bounds how
//! many runs execute at once. A caller that finds nobody waiting and a slot
//! free takes it with one compare-and-swap; any other caller takes a ticket
//! and sleeps until its ticket is served and a slot is free, so waiters run
//! in arrival order and a newcomer never overtakes one. A batch is one
//! client's request: its items run one after another on the calling thread,
//! each through the gate, so parallelism is decided in one place, across
//! requests, by the slot count.
//!
//! Every run is traced, whether or not the client asked for a profile: the
//! per-request trace log (one per thread, reused) is where the engine
//! reports plan-cache and index-cache warmth, and the service folds those
//! notes into its warm/cold metrics counters; the `ExecutionProfile` tree
//! is built from it only for a client that asked. Cancellation (client
//! disconnect, or the token given to [`ServeHandle::submit_with`] tripped
//! from another thread) trips the request's `CancelToken`; the engine
//! aborts at its next checkpoint and the *partial-progress trip report*
//! comes back in the response — cancelled work is reported, not dropped.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};

use gql_core::{CoreError, Engine, Prepared, QueryKind};
use gql_guard::{fault, Budget, CancelToken, Guard, LimitKind, RunCtx};
use gql_plan::CacheStats;
use gql_ssdm::sink::XmlSink;
use gql_trace::{ExecutionProfile, TraceLog};

use crate::catalog::{Catalog, Dataset, EpochPin};
use crate::json::Value;
use crate::prepared::PreparedCache;
use crate::telemetry::{MetricsReport, RequestMeta, Telemetry, TelemetryConfig};
use crate::tenant::{AdmitDenied, Permit, TenantMetrics, TenantRegistry};

/// One query submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub tenant: String,
    /// Catalog dataset name.
    pub dataset: String,
    /// Query language: `xmlgl` | `wglog` | `xpath`.
    pub kind: String,
    /// Query source text, shared with the request's telemetry context
    /// rather than copied per submission.
    pub query: Arc<str>,
    /// Attach the execution profile (JSON + deterministic shape) to the
    /// response.
    pub profile: bool,
    /// Idempotency key. A retried request carrying the same id is
    /// deduplicated at the run boundary: the query executes at most
    /// once, and retries receive the original's response (joining it if
    /// still in flight). Keys are scoped per tenant.
    pub request_id: Option<String>,
}

impl Request {
    pub fn new(tenant: &str, dataset: &str, kind: &str, query: &str) -> Request {
        Request {
            tenant: tenant.to_string(),
            dataset: dataset.to_string(),
            kind: kind.to_string(),
            query: query.into(),
            profile: false,
            request_id: None,
        }
    }

    pub fn with_profile(mut self) -> Request {
        self.profile = true;
        self
    }

    /// Attach an idempotency key (see [`Request::request_id`]).
    pub fn with_request_id(mut self, id: impl Into<String>) -> Request {
        self.request_id = Some(id.into());
        self
    }
}

/// Structured error classes of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control refused the request (envelope exhausted).
    Overloaded,
    /// A time-window quota rejected the request; the error envelope
    /// carries `retry_after_ms`.
    RateLimited,
    UnknownTenant,
    UnknownDataset,
    /// Malformed request: unknown kind, unparseable query, bad frame.
    BadRequest,
    /// Static analysis rejected the program.
    Rejected,
    /// A resource budget tripped mid-run (report attached).
    Budget,
    /// The request's cancel token tripped mid-run (report attached).
    Cancelled,
    /// Engine failure.
    Engine,
}

impl ErrorCode {
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::RateLimited => "rate_limited",
            ErrorCode::UnknownTenant => "unknown-tenant",
            ErrorCode::UnknownDataset => "unknown-dataset",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Rejected => "rejected",
            ErrorCode::Budget => "budget",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Engine => "engine",
        }
    }

    pub fn from_name(name: &str) -> Option<ErrorCode> {
        [
            ErrorCode::Overloaded,
            ErrorCode::RateLimited,
            ErrorCode::UnknownTenant,
            ErrorCode::UnknownDataset,
            ErrorCode::BadRequest,
            ErrorCode::Rejected,
            ErrorCode::Budget,
            ErrorCode::Cancelled,
            ErrorCode::Engine,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }
}

/// A successful query response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOk {
    pub xml: String,
    pub result_count: u64,
    pub eval_us: u64,
    /// The EXPLAIN text of the plan that ran, shared with the plan cache.
    pub plan: Arc<str>,
    /// Plan-cache outcome for this request: `hit` | `miss` | `replan`.
    pub plan_cache: String,
    /// Index/instance-cache outcome: `hit` | `miss` | `cold`.
    pub index_cache: String,
    /// The catalog epoch of the dataset this query executed against —
    /// exactly one per reply; a reply never mixes epochs.
    pub epoch: u64,
    /// Execution profile JSON, when requested.
    pub profile: Option<String>,
    /// Deterministic profile shape (duration-free), when requested.
    pub shape: Option<String>,
}

/// A structured error response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryErr {
    pub code: ErrorCode,
    pub message: String,
    /// Partial-progress trip report shape, for budget/cancellation errors.
    pub report: Option<String>,
    /// For `rate_limited` errors: milliseconds until the quota window
    /// rolls over (the earliest useful retry).
    pub retry_after_ms: Option<u64>,
}

/// The service's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Ok(Box<QueryOk>),
    Err(QueryErr),
}

impl Response {
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Err(QueryErr {
            code,
            message: message.into(),
            report: None,
            retry_after_ms: None,
        })
    }

    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok(_))
    }

    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            Response::Ok(_) => None,
            Response::Err(e) => Some(e.code),
        }
    }
}

/// Service-level cumulative counters plus per-tenant and per-dataset views.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceMetrics {
    pub submitted: u64,
    pub admitted: u64,
    /// Admission-control rejections (`overloaded` or `rate_limited`): the
    /// tenant's envelope or quota had no room.
    pub rejected: u64,
    /// Time-window quota rejections (already counted in `rejected`).
    pub rate_limited: u64,
    /// Structured refusals before admission (unknown tenant/dataset, bad
    /// request, failed fingerprint, a service shut down). The conservation law is
    /// `admitted + rejected + refused + deduped == submitted`.
    pub refused: u64,
    /// Idempotent retries answered from the dedup map without executing
    /// (the fourth conservation class: neither admitted nor rejected nor
    /// refused, but every one of them submitted).
    pub deduped: u64,
    pub completed: u64,
    pub cancelled: u64,
    pub budget_tripped: u64,
    pub failed: u64,
    /// Plan-cache warmth observed through per-request traces.
    pub plan_warm: u64,
    pub plan_cold: u64,
    pub plan_replans: u64,
    /// Index/instance-cache warmth observed through per-request traces.
    pub index_warm: u64,
    pub index_cold: u64,
    /// Prepared-query cache probes that found the `(kind, text)`, probes
    /// that did not (a text that fails to parse misses every time), and
    /// entries pushed out by newer texts.
    pub prepared_hits: u64,
    pub prepared_misses: u64,
    pub prepared_evictions: u64,
    pub tenants: Vec<(String, TenantMetrics)>,
    /// Per-dataset plan-cache counter snapshots (always consistent: reads
    /// the seqlock stats cell, see `gql_plan::StatsCell`).
    pub datasets: Vec<(String, CacheStats)>,
}

impl ServiceMetrics {
    pub fn to_value(&self) -> Value {
        let tenants = self
            .tenants
            .iter()
            .map(|(name, m)| {
                Value::Obj(vec![
                    ("name".into(), Value::str(name.clone())),
                    ("submitted".into(), Value::count(m.submitted)),
                    ("admitted".into(), Value::count(m.admitted)),
                    ("rejected".into(), Value::count(m.rejected)),
                    ("rate_limited".into(), Value::count(m.rate_limited)),
                    ("refused".into(), Value::count(m.refused)),
                    ("peak_in_flight".into(), Value::count(m.peak_in_flight)),
                    ("peak_pool_draw".into(), Value::count(m.peak_pool_draw)),
                ])
            })
            .collect();
        let datasets = self
            .datasets
            .iter()
            .map(|(name, s)| {
                Value::Obj(vec![
                    ("name".into(), Value::str(name.clone())),
                    ("plan_hits".into(), Value::count(s.hits)),
                    ("plan_misses".into(), Value::count(s.misses)),
                    ("plan_evictions".into(), Value::count(s.evictions)),
                    ("plan_replans".into(), Value::count(s.replans)),
                    ("plan_lookups".into(), Value::count(s.lookups)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("submitted".into(), Value::count(self.submitted)),
            ("admitted".into(), Value::count(self.admitted)),
            ("rejected".into(), Value::count(self.rejected)),
            ("rate_limited".into(), Value::count(self.rate_limited)),
            ("refused".into(), Value::count(self.refused)),
            ("deduped".into(), Value::count(self.deduped)),
            ("completed".into(), Value::count(self.completed)),
            ("cancelled".into(), Value::count(self.cancelled)),
            ("budget_tripped".into(), Value::count(self.budget_tripped)),
            ("failed".into(), Value::count(self.failed)),
            ("plan_warm".into(), Value::count(self.plan_warm)),
            ("plan_cold".into(), Value::count(self.plan_cold)),
            ("plan_replans".into(), Value::count(self.plan_replans)),
            ("index_warm".into(), Value::count(self.index_warm)),
            ("index_cold".into(), Value::count(self.index_cold)),
            ("prepared_hits".into(), Value::count(self.prepared_hits)),
            ("prepared_misses".into(), Value::count(self.prepared_misses)),
            (
                "prepared_evictions".into(),
                Value::count(self.prepared_evictions),
            ),
            ("tenants".into(), Value::Arr(tenants)),
            ("datasets".into(), Value::Arr(datasets)),
        ])
    }
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    rate_limited: AtomicU64,
    refused: AtomicU64,
    deduped: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    budget_tripped: AtomicU64,
    failed: AtomicU64,
    plan_warm: AtomicU64,
    plan_cold: AtomicU64,
    plan_replans: AtomicU64,
    index_warm: AtomicU64,
    index_cold: AtomicU64,
}

/// One unit of admitted work.
struct Job {
    run: Run,
    /// The tenant's per-query budget and the request's cancel token. They
    /// become the run's `Guard` when the run starts, so the budget's clock
    /// does not count the wait at the gate.
    budget: Budget,
    cancel: CancelToken,
    /// Dedup-map key claimed at admission (tenant-scoped request id);
    /// `run_job` publishes the response under it after execution.
    dedup_key: Option<String>,
    /// Held for the duration of execution; dropping releases the tenant's
    /// slot and pool reservation (even when the run panics).
    permit: Permit,
    /// Pins the dataset's catalog epoch for the duration of execution;
    /// the old epoch's drain completes only when every pin releases.
    epoch: EpochPin,
}

/// What a run reads of its [`Job`].
struct Run {
    query: Arc<Prepared<'static>>,
    dataset: Arc<Dataset>,
    want_profile: bool,
    /// Telemetry context minted at admission.
    meta: RequestMeta,
}

/// What admission made of a submission that was not answered at once.
enum Admitted {
    /// A fresh job: run it.
    Job(Job),
    /// A retry of a request id still in flight: the original's response
    /// arrives here when it is published.
    Joined(mpsc::Receiver<Response>),
}

/// The run-slot gate: at most `limit` runs execute at once, each on the
/// thread that submitted it. A caller that finds nobody waiting and a slot
/// free takes it with one compare-and-swap and no lock. Any other caller
/// takes a ticket and sleeps until its ticket is served and a slot is free,
/// so waiters run in arrival order and a newcomer never overtakes one.
struct Gate {
    limit: usize,
    running: AtomicUsize,
    /// Callers holding a ticket that has not taken its slot yet.
    waiting: AtomicUsize,
    /// The next ticket to hand out, and the ticket being served.
    tickets: Mutex<(u64, u64)>,
    freed: Condvar,
}

impl Gate {
    fn new(limit: usize) -> Gate {
        Gate {
            limit,
            running: AtomicUsize::new(0),
            waiting: AtomicUsize::new(0),
            tickets: Mutex::new((0, 0)),
            freed: Condvar::new(),
        }
    }

    fn tickets(&self) -> MutexGuard<'_, (u64, u64)> {
        self.tickets.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn try_take(&self) -> bool {
        self.running
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.limit).then_some(n + 1)
            })
            .is_ok()
    }

    /// Take a run slot: at once if nobody waits and one is free, else in
    /// ticket order.
    fn enter(&self) {
        if self.waiting.load(Ordering::SeqCst) == 0 && self.try_take() {
            return;
        }
        let mut tickets = self.tickets();
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let mine = tickets.0;
        tickets.0 += 1;
        while tickets.1 != mine || !self.try_take() {
            tickets = self.freed.wait(tickets).unwrap_or_else(|e| e.into_inner());
        }
        tickets.1 += 1;
        // The next ticket is served now; a second free slot is its to take.
        if self.waiting.fetch_sub(1, Ordering::SeqCst) > 1 {
            self.freed.notify_all();
        }
    }

    /// Give a slot back, waking the waiters if there are any. A waiter
    /// counts itself in `waiting` before it checks for a slot, and checks
    /// and sleeps holding the ticket lock; this frees the slot before it
    /// reads `waiting`, and takes the lock before it wakes anyone. So either
    /// the waiter's check sees the free slot, or the wake-up finds it
    /// asleep. Every waiter is woken: only the one whose ticket is served
    /// takes the slot.
    fn release(&self) {
        self.running.fetch_sub(1, Ordering::SeqCst);
        if self.waiting.load(Ordering::SeqCst) > 0 {
            drop(self.tickets());
            self.freed.notify_all();
        }
    }
}

/// The reply to a run that panicked.
const PANIC_REPLY: &str = "query run panicked (supervised; the service keeps serving)";

thread_local! {
    /// The trace log of the runs made on this thread, reused by every one
    /// of them.
    static CALLER_LOG: RefCell<TraceLog> = RefCell::new(TraceLog::new());
}

/// State of one idempotency key in the dedup map.
enum DedupEntry {
    /// Claimed at admission; retries arriving meanwhile park a waiter
    /// channel here and receive the original's response on publish.
    InFlight(Vec<mpsc::Sender<Response>>),
    /// Published at the run boundary; retries get a clone.
    Done(Response),
}

/// Settled idempotency keys a service retains.
const DEDUP_CAPACITY: usize = 1024;

/// Bounded idempotency map: request id → in-flight waiters or the final
/// response. Only settled (`Done`) entries are evicted, oldest first, so
/// an in-flight claim can never be lost to capacity pressure.
struct Dedup {
    capacity: usize,
    /// Publication order of settled keys, for FIFO eviction.
    settled: VecDeque<String>,
    entries: HashMap<String, DedupEntry>,
}

/// Outcome of claiming an idempotency key at submission.
enum DedupClaim {
    /// The key is ours: execute, then publish under it.
    Fresh,
    /// Already settled: answer with the original response, no execution.
    Hit(Response),
    /// Original still in flight: wait on its publication.
    Wait(mpsc::Receiver<Response>),
}

impl Dedup {
    fn new(capacity: usize) -> Dedup {
        Dedup {
            capacity,
            settled: VecDeque::new(),
            entries: HashMap::new(),
        }
    }

    /// Claim `key` for a new submission, or join/replay the original.
    fn claim(&mut self, key: &str) -> DedupClaim {
        match self.entries.get_mut(key) {
            Some(DedupEntry::Done(resp)) => DedupClaim::Hit(resp.clone()),
            Some(DedupEntry::InFlight(waiters)) => {
                let (tx, rx) = mpsc::channel();
                waiters.push(tx);
                DedupClaim::Wait(rx)
            }
            None => {
                self.entries
                    .insert(key.to_string(), DedupEntry::InFlight(Vec::new()));
                DedupClaim::Fresh
            }
        }
    }

    /// Publish the final response under `key` at the run boundary:
    /// waiters are answered, later retries replay the stored copy, and
    /// the oldest settled entries are evicted past capacity.
    fn publish(&mut self, key: &str, resp: &Response) {
        if let Some(DedupEntry::InFlight(waiters)) = self
            .entries
            .insert(key.to_string(), DedupEntry::Done(resp.clone()))
        {
            for w in waiters {
                let _ = w.send(resp.clone());
            }
        }
        self.settled.push_back(key.to_string());
        while self.settled.len() > self.capacity {
            if let Some(old) = self.settled.pop_front() {
                self.entries.remove(&old);
            }
        }
    }

    /// Abandon a claim whose submission was refused or rejected before
    /// running: the entry is removed (a retry is a fresh
    /// attempt — nothing executed) and any waiters get the refusal.
    fn abandon(&mut self, key: &str, resp: &Response) {
        if let Some(DedupEntry::InFlight(waiters)) = self.entries.remove(key) {
            for w in waiters {
                let _ = w.send(resp.clone());
            }
        }
    }
}

struct Inner {
    catalog: Arc<Catalog>,
    tenants: Arc<TenantRegistry>,
    /// False from shutdown on: a submission is then refused before
    /// admission.
    open: AtomicBool,
    gate: Gate,
    counters: Counters,
    telemetry: Arc<Telemetry>,
    dedup: Mutex<Dedup>,
    /// Prepared queries by `(kind, text)`, shared by every dataset and
    /// every epoch.
    prepared: Mutex<PreparedCache>,
    /// Consult the gql-guard fault seams (chaos testing). Off by default:
    /// the process-global fault plan must not leak into services that did
    /// not opt in.
    chaos: bool,
}

impl Inner {
    fn dedup(&self) -> MutexGuard<'_, Dedup> {
        self.dedup.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn prepared(&self) -> MutexGuard<'_, PreparedCache> {
        self.prepared.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Abandon the dedup claim of a submission refused before it ran, so a
    /// retry is a clean new attempt (nothing executed); `resp` is the
    /// refusal, passed through.
    fn abandon(&self, dedup_key: Option<&str>, resp: Response) -> Response {
        if let Some(key) = dedup_key {
            self.dedup().abandon(key, &resp);
        }
        resp
    }

    /// The prepared form of `text` in `kind`: shared from the cache, or
    /// parsed and prepared here and kept. The lock is not held while a
    /// text is prepared. A text that does not parse is not kept: `Err` is
    /// the parser's message, each time.
    fn prepare(&self, kind: &str, text: &Arc<str>) -> Result<Arc<Prepared<'static>>, String> {
        let slot = PreparedCache::slot(kind);
        if let Some(slot) = slot {
            if let Some(hit) = self.prepared().get(slot, text) {
                return Ok(hit);
            }
        }
        let prepared = Arc::new(Prepared::new(parse_query(kind, text)?));
        if let Some(slot) = slot {
            self.prepared()
                .insert(slot, Arc::clone(text), Arc::clone(&prepared));
        }
        Ok(prepared)
    }
}

/// The long-lived service: a catalog, a tenant registry and the run-slot
/// gate. It owns no thread; every run happens on the thread that submitted
/// it.
pub struct Service {
    inner: Arc<Inner>,
}

/// Builder for [`Service`].
pub struct ServiceBuilder {
    catalog: Catalog,
    tenants: TenantRegistry,
    workers: usize,
    telemetry: TelemetryConfig,
    chaos: bool,
}

impl ServiceBuilder {
    pub fn new() -> ServiceBuilder {
        ServiceBuilder {
            catalog: Catalog::new(),
            tenants: TenantRegistry::new(),
            workers: 4,
            telemetry: TelemetryConfig::default(),
            chaos: false,
        }
    }

    /// Opt this service into the gql-guard chaos seams (`panic_jobs`
    /// etc.). The fault plan is process-global; only opted-in services
    /// consume its tokens, so chaos tests never poison bystanders.
    pub fn chaos(mut self, on: bool) -> ServiceBuilder {
        self.chaos = on;
        self
    }

    /// The number of run slots: how many runs may execute at once.
    pub fn workers(mut self, n: usize) -> ServiceBuilder {
        self.workers = n.max(1);
        self
    }

    pub fn catalog(mut self, catalog: Catalog) -> ServiceBuilder {
        self.catalog = catalog;
        self
    }

    pub fn tenants(mut self, tenants: TenantRegistry) -> ServiceBuilder {
        self.tenants = tenants;
        self
    }

    /// Configure the telemetry plane: the slow-log threshold and the clock.
    pub fn telemetry(mut self, config: TelemetryConfig) -> ServiceBuilder {
        self.telemetry = config;
        self
    }

    pub fn build(self) -> Service {
        let tenant_names: Vec<String> = self.tenants.iter().map(|t| t.name().to_string()).collect();
        Service {
            inner: Arc::new(Inner {
                catalog: Arc::new(self.catalog),
                tenants: Arc::new(self.tenants),
                open: AtomicBool::new(true),
                gate: Gate::new(self.workers),
                counters: Counters::default(),
                telemetry: Arc::new(Telemetry::build(&self.telemetry, &tenant_names)),
                dedup: Mutex::new(Dedup::new(DEDUP_CAPACITY)),
                prepared: Mutex::new(PreparedCache::new()),
                chaos: self.chaos,
            }),
        }
    }
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder::new()
    }
}

impl Service {
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// A cloneable in-process submission handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.inner.catalog
    }

    /// Stop accepting work, as dropping the service does. Runs already
    /// admitted finish; later submissions through outstanding handles are
    /// refused before admission.
    pub fn shutdown(self) {}
}

impl Drop for Service {
    fn drop(&mut self) {
        self.inner.open.store(false, Ordering::SeqCst);
    }
}

/// In-process submission API: what the TCP server, the tests and the
/// benchmark all speak. Clones share one service.
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<Inner>,
}

impl ServeHandle {
    /// Submit one query and block for its response. It runs on this
    /// thread once it holds a run slot.
    pub fn submit(&self, req: &Request) -> Response {
        self.submit_with(req, CancelToken::new())
    }

    /// [`ServeHandle::submit`] under a caller's cancel token: tripping it
    /// from another thread aborts the run at the engine's next checkpoint,
    /// whether it runs already or still waits at the gate.
    pub fn submit_with(&self, req: &Request, cancel: CancelToken) -> Response {
        self.run(req, cancel, "query")
    }

    /// Admit a request, take a run slot, and run it on this thread.
    fn run(&self, req: &Request, cancel: CancelToken, surface: &'static str) -> Response {
        let job = match self.admit(req, cancel, surface) {
            Ok(Admitted::Job(job)) => job,
            Ok(Admitted::Joined(rx)) => {
                return rx.recv().unwrap_or_else(|_| {
                    Response::err(
                        ErrorCode::Engine,
                        "the original request ended without a reply",
                    )
                })
            }
            Err(immediate) => return immediate,
        };
        let inner = &*self.inner;
        inner.gate.enter();
        let response = CALLER_LOG.with(|log| run_job(inner, job, &mut log.borrow_mut()));
        inner.gate.release();
        response
    }

    /// Resolve, prepare and admit a request: the dedup claim, the tenant,
    /// the dataset and its epoch pin, the prepared query and the permit.
    /// `Err` is an immediate answer — a dedup replay or a structured
    /// refusal.
    fn admit(
        &self,
        req: &Request,
        cancel: CancelToken,
        surface: &'static str,
    ) -> Result<Admitted, Response> {
        let c = &self.inner.counters;
        let tele = &self.inner.telemetry;
        c.submitted.fetch_add(1, Ordering::SeqCst);
        // A closed service admits nothing, so every admitted request still
        // gets its run and its outcome.
        if !self.inner.open.load(Ordering::SeqCst) {
            c.refused.fetch_add(1, Ordering::SeqCst);
            tele.on_submitted(None);
            return Err(Response::err(
                ErrorCode::Overloaded,
                "service is shutting down",
            ));
        }
        // Idempotency first: a retried request id is answered from (or
        // parked on) the original execution before any tenant accounting,
        // so the per-tenant conservation law is untouched by replays.
        let dedup_key = req
            .request_id
            .as_deref()
            .map(|id| format!("{}\u{1f}{id}", req.tenant));
        if let Some(key) = &dedup_key {
            // Bound first, so the table's lock is released before the arms.
            let claim = self.inner.dedup().claim(key);
            match claim {
                DedupClaim::Fresh => {}
                DedupClaim::Hit(resp) => {
                    c.deduped.fetch_add(1, Ordering::SeqCst);
                    tele.on_submitted(None);
                    return Err(resp);
                }
                DedupClaim::Wait(rx) => {
                    c.deduped.fetch_add(1, Ordering::SeqCst);
                    tele.on_submitted(None);
                    return Ok(Admitted::Joined(rx));
                }
            }
        }
        // Any refusal/rejection below must abandon the fresh claim so a
        // later retry is a clean new attempt (nothing executed).
        let fail = |resp: Response| self.inner.abandon(dedup_key.as_deref(), resp);
        let Some(tenant) = self.inner.tenants.get(&req.tenant).cloned() else {
            // Unknown tenant: nothing to attribute the refusal to beyond
            // the service-wide counters and windows.
            c.refused.fetch_add(1, Ordering::SeqCst);
            tele.on_submitted(None);
            return Err(fail(Response::err(
                ErrorCode::UnknownTenant,
                format!("unknown tenant: {}", req.tenant),
            )));
        };
        tenant.note_submitted();
        tele.on_submitted(Some(tenant.name()));
        let (dataset, query) = match self.resolve_payload(req) {
            Ok(resolved) => resolved,
            Err(resp) => {
                c.refused.fetch_add(1, Ordering::SeqCst);
                tenant.note_refused();
                return Err(fail(resp));
            }
        };
        let permit = match tenant.try_admit() {
            Ok(permit) => permit,
            Err(denied) => {
                c.rejected.fetch_add(1, Ordering::SeqCst);
                tele.on_rejected(tenant.name());
                let resp = match denied {
                    AdmitDenied::Overloaded => Response::err(
                        ErrorCode::Overloaded,
                        format!(
                            "tenant `{}` envelope exhausted ({} in flight)",
                            req.tenant,
                            tenant.in_flight()
                        ),
                    ),
                    AdmitDenied::RateLimited { retry_after_ms } => {
                        c.rate_limited.fetch_add(1, Ordering::SeqCst);
                        Response::Err(QueryErr {
                            code: ErrorCode::RateLimited,
                            message: format!(
                                "tenant `{}` rate quota exhausted; retry in {retry_after_ms}ms",
                                req.tenant
                            ),
                            report: None,
                            retry_after_ms: Some(retry_after_ms),
                        })
                    }
                };
                return Err(fail(resp));
            }
        };
        // Pin the dataset's epoch for the whole execution: the pin's
        // release (with the permit, when the run ends) is what lets a
        // reload's drain retire this epoch.
        let epoch = dataset.pin();
        c.admitted.fetch_add(1, Ordering::SeqCst);
        let meta = tele.on_admitted(tenant.shared_name(), surface, &req.query);
        Ok(Admitted::Job(Job {
            run: Run {
                query,
                dataset,
                want_profile: req.profile,
                meta,
            },
            budget: tenant.envelope().per_query.clone(),
            cancel,
            dedup_key,
            permit,
            epoch,
        }))
    }

    /// Submit a batch: its items run one after another on this thread, in
    /// request order, each through the gate, so a repeat runs warm behind
    /// its first occurrence. Responses come back in request order.
    pub fn submit_batch(&self, reqs: &[Request]) -> Vec<Response> {
        self.submit_batch_with(reqs, &CancelToken::new())
    }

    /// [`ServeHandle::submit_batch`] with every run under `cancel`: tripping
    /// it aborts each run not yet finished.
    pub(crate) fn submit_batch_with(
        &self,
        reqs: &[Request],
        cancel: &CancelToken,
    ) -> Vec<Response> {
        reqs.iter()
            .map(|req| self.run(req, cancel.clone(), "batch"))
            .collect()
    }

    /// Resolve the dataset and prepare the query (the tenant is resolved
    /// first, separately, so refusals here attribute to it); an `Err` is
    /// the immediate structured rejection.
    fn resolve_payload(
        &self,
        req: &Request,
    ) -> Result<(Arc<Dataset>, Arc<Prepared<'static>>), Response> {
        let dataset = self.inner.catalog.get(&req.dataset).ok_or_else(|| {
            Response::err(
                ErrorCode::UnknownDataset,
                format!("unknown dataset: {}", req.dataset),
            )
        })?;
        if !dataset.verify() {
            return Err(Response::err(
                ErrorCode::Engine,
                format!("dataset `{}` failed fingerprint validation", req.dataset),
            ));
        }
        let query = self
            .inner
            .prepare(&req.kind, &req.query)
            .map_err(|msg| Response::err(ErrorCode::BadRequest, msg))?;
        Ok((dataset, query))
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        let c = &self.inner.counters;
        let prepared = self.inner.prepared().stats();
        ServiceMetrics {
            submitted: c.submitted.load(Ordering::SeqCst),
            admitted: c.admitted.load(Ordering::SeqCst),
            rejected: c.rejected.load(Ordering::SeqCst),
            rate_limited: c.rate_limited.load(Ordering::SeqCst),
            refused: c.refused.load(Ordering::SeqCst),
            deduped: c.deduped.load(Ordering::SeqCst),
            completed: c.completed.load(Ordering::SeqCst),
            cancelled: c.cancelled.load(Ordering::SeqCst),
            budget_tripped: c.budget_tripped.load(Ordering::SeqCst),
            failed: c.failed.load(Ordering::SeqCst),
            plan_warm: c.plan_warm.load(Ordering::SeqCst),
            plan_cold: c.plan_cold.load(Ordering::SeqCst),
            plan_replans: c.plan_replans.load(Ordering::SeqCst),
            index_warm: c.index_warm.load(Ordering::SeqCst),
            index_cold: c.index_cold.load(Ordering::SeqCst),
            prepared_hits: prepared.hits,
            prepared_misses: prepared.misses,
            prepared_evictions: prepared.evictions,
            tenants: self
                .inner
                .tenants
                .iter()
                .map(|t| (t.name().to_string(), t.metrics()))
                .collect(),
            datasets: self
                .inner
                .catalog
                .snapshot()
                .iter()
                .map(|d| (d.name().to_string(), d.engine().plan_cache_stats()))
                .collect(),
        }
    }

    /// The live catalog (hot-reloadable; see [`Catalog::reload`]).
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.inner.catalog
    }

    /// Hot-swap a dataset to freshly parsed XML at the next epoch — the
    /// in-process face of the `{"op":"reload"}` wire op. In-flight
    /// requests finish on the epoch they admitted under; the old epoch
    /// drains and is reaped when its last permit releases.
    pub fn reload_xml(&self, name: &str, xml: &str) -> Result<Arc<Dataset>, Response> {
        if self.inner.catalog.get(name).is_none() {
            return Err(Response::err(
                ErrorCode::UnknownDataset,
                format!("unknown dataset: {name}"),
            ));
        }
        self.inner
            .catalog
            .reload_xml(name, xml)
            .map_err(|e| Response::err(ErrorCode::BadRequest, e))
    }

    /// The service's telemetry plane (histograms, windows, events, slow
    /// log). Shared by every handle of one service.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.inner.telemetry
    }

    /// The full telemetry report: counters plus latency histograms, rate
    /// windows, recent request events and the slow-query log.
    pub fn metrics_report(&self) -> MetricsReport {
        self.inner.telemetry.report(self.metrics())
    }
}

/// Parse a `kind` + source into an engine query. Uses the unchecked
/// parsers: the engine's own static-analysis gate produces the structured
/// `rejected` response for ill-formed programs. A text that does not parse,
/// in any of the three languages, is the caller's error: `Err` is its
/// `bad-request` message. (An XPath query stays text; the engine parses it
/// again when the query is prepared.)
pub fn parse_query(kind: &str, query: &str) -> Result<QueryKind, String> {
    match kind {
        "xmlgl" => gql_xmlgl::dsl::parse_unchecked(query)
            .map(QueryKind::XmlGl)
            .map_err(|e| format!("XML-GL query does not parse: {e}")),
        "wglog" => gql_wglog::dsl::parse_unchecked(query)
            .map(QueryKind::WgLog)
            .map_err(|e| format!("WG-Log query does not parse: {e}")),
        "xpath" => gql_xpath::parse(query)
            .map(|_| QueryKind::XPath(query.to_string()))
            .map_err(|e| format!("XPath query does not parse: {e}")),
        other => Err(format!("unknown query kind: {other}")),
    }
}

/// Run one admitted job that holds a run slot, on the thread that
/// submitted it, traced into that thread's reused `log`. The run is
/// supervised: a panicking job (engine bug, or an injected `panic_jobs`
/// fault) unwinds to here and is answered structurally, and the thread
/// goes on serving. The response is published to the dedup map, and the
/// permit and epoch pin are released, before it is returned for the reply:
/// once a client holds its response, its tenant slot is observably free (a
/// sequential resubmit can never race its own previous permit).
fn run_job(inner: &Inner, job: Job, log: &mut TraceLog) -> Response {
    let Job {
        run,
        budget,
        cancel,
        dedup_key,
        permit,
        epoch,
    } = job;
    let dequeued = inner.telemetry.on_dequeue(&run.meta);
    inner.telemetry.on_start(&run.meta, dequeued);
    let guard = Guard::with_cancel(budget, cancel);
    let response =
        match std::panic::catch_unwind(AssertUnwindSafe(|| execute(inner, &run, &guard, log))) {
            Ok(response) => response,
            Err(_) => {
                inner.counters.failed.fetch_add(1, Ordering::SeqCst);
                inner
                    .telemetry
                    .on_reply(&run.meta, run.dataset.name(), "engine", 0, "", [], None);
                Response::err(ErrorCode::Engine, PANIC_REPLY)
            }
        };
    // From here on, a retry of this request id replays this response
    // instead of executing again.
    if let Some(key) = &dedup_key {
        inner.dedup().publish(key, &response);
    }
    drop((permit, epoch));
    response
}

/// Execute one run under its `guard`, and fold its cache notes into the
/// service counters. This is the telemetry reply site: exactly one
/// histogram record per admitted job, plus slow-query capture.
fn execute(inner: &Inner, job: &Run, guard: &Guard, log: &mut TraceLog) -> Response {
    let c = &inner.counters;
    let tele = &inner.telemetry;
    // Chaos seam: an injected fault poisons this job here — after the
    // start event `run_job` recorded, so its supervised catch keeps every
    // telemetry conservation law intact.
    if inner.chaos && fault::take_panic_job() {
        panic!("injected fault: panic_jobs");
    }
    let engine: &Engine = job.dataset.engine();
    // The answer goes straight to the reply's bytes; a run that fails after
    // writing some of them leaves no reply to put them in.
    let mut xml = String::new();
    let result = log.record(|trace| {
        let ctx = RunCtx::new(trace, guard);
        engine.execute_into(
            &job.query,
            job.dataset.doc(),
            ctx,
            &mut XmlSink::new(&mut xml),
        )
    });
    let log = &*log;
    // Everything below reads the log in place; only a `profile: true` reply
    // or a slow-log capture builds anything from it. The plan notes are
    // written before evaluation starts, so they are present even when the
    // run tripped a budget mid-eval.
    let plan_span = log.find("plan");
    let note = |span: Option<usize>, name| span.and_then(|s| log.note(s, name)).unwrap_or("");
    let plan_cache = note(plan_span, "plan_cache");
    // XML-GL/XPath report the index cache under `index`; WG-Log reports
    // its instance cache under `load`.
    let index_cache = note(log.find("index").or_else(|| log.find("load")), "cache");
    match plan_cache {
        "hit" => c.plan_warm.fetch_add(1, Ordering::SeqCst),
        "miss" => c.plan_cold.fetch_add(1, Ordering::SeqCst),
        "replan" => c.plan_replans.fetch_add(1, Ordering::SeqCst),
        _ => 0,
    };
    match index_cache {
        "hit" => c.index_warm.fetch_add(1, Ordering::SeqCst),
        "miss" | "cold" => c.index_cold.fetch_add(1, Ordering::SeqCst),
        _ => 0,
    };
    let (response, outcome_class, eval_us, trip) = match result {
        Ok(outcome) => {
            c.completed.fetch_add(1, Ordering::SeqCst);
            let eval_us = outcome.eval_time.as_micros() as u64;
            let profile = job.want_profile.then(|| log.profile());
            let resp = Response::Ok(Box::new(QueryOk {
                xml,
                result_count: outcome.result_count as u64,
                eval_us,
                plan: outcome.plan,
                plan_cache: plan_cache.to_string(),
                index_cache: index_cache.to_string(),
                epoch: job.dataset.epoch(),
                profile: profile.as_ref().map(ExecutionProfile::to_json),
                shape: profile.as_ref().map(ExecutionProfile::shape),
            }));
            (resp, "ok", eval_us, None)
        }
        Err(CoreError::Budget(g)) => {
            let (code, class) = if g.kind == LimitKind::Cancelled {
                c.cancelled.fetch_add(1, Ordering::SeqCst);
                (ErrorCode::Cancelled, "cancelled")
            } else {
                c.budget_tripped.fetch_add(1, Ordering::SeqCst);
                (ErrorCode::Budget, "budget")
            };
            let report = g.report.shape();
            let resp = Response::Err(QueryErr {
                code,
                message: g.to_string(),
                report: Some(report.clone()),
                retry_after_ms: None,
            });
            (resp, class, 0, Some(report))
        }
        Err(e @ CoreError::Rejected { .. }) => {
            c.failed.fetch_add(1, Ordering::SeqCst);
            (
                Response::err(ErrorCode::Rejected, e.to_string()),
                "rejected",
                0,
                None,
            )
        }
        Err(e) => {
            c.failed.fetch_add(1, Ordering::SeqCst);
            (
                Response::err(ErrorCode::Engine, e.to_string()),
                "engine",
                0,
                None,
            )
        }
    };
    // Slow-log material, by reference: the compact plan, and the run root's
    // children as phases.
    let phases = log
        .find("run")
        .into_iter()
        .flat_map(|run| log.children(run))
        .map(|(name, nanos)| (name, nanos / 1_000));
    tele.on_reply(
        &job.meta,
        job.dataset.name(),
        outcome_class,
        eval_us,
        note(plan_span, "plan"),
        phases,
        trip.as_deref(),
    );
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::Envelope;
    use gql_metrics::EventKind;

    fn demo_service() -> Service {
        let mut catalog = Catalog::new();
        catalog
            .register_xml(
                "bib",
                "<bib><book><title>a</title></book><book><title>b</title></book></bib>",
            )
            .unwrap();
        let mut tenants = TenantRegistry::new();
        tenants.register("public", Envelope::slots(8));
        Service::builder()
            .workers(2)
            .catalog(catalog)
            .tenants(tenants)
            .build()
    }

    #[test]
    fn submit_runs_and_reports_cache_warmth() {
        let service = demo_service();
        let h = service.handle();
        let req = Request::new("public", "bib", "xpath", "//title");
        let first = h.submit(&req);
        let Response::Ok(ok) = &first else {
            panic!("first run failed: {first:?}");
        };
        assert_eq!(ok.result_count, 2);
        assert_eq!(ok.plan_cache, "miss");
        assert_eq!(ok.index_cache, "hit", "catalog datasets are preloaded");
        let Response::Ok(warm) = h.submit(&req) else {
            panic!("warm run failed");
        };
        assert_eq!(warm.plan_cache, "hit");
        assert_eq!(warm.xml, ok.xml, "warm answer must be identical");
        let m = h.metrics();
        assert_eq!((m.submitted, m.admitted, m.completed), (2, 2, 2));
        assert_eq!((m.plan_cold, m.plan_warm, m.index_warm), (1, 1, 2));
        service.shutdown();
    }

    /// The answer is written while it is constructed: the reply's bytes are
    /// what the engine builds for a library caller, and no phase follows the
    /// engine's own.
    #[test]
    fn an_answer_is_written_inside_the_run_and_no_serialize_phase_follows() {
        let mut catalog = Catalog::new();
        let books = "<book><title>t</title></book>".repeat(500);
        let xml = format!("<bib>{books}</bib>");
        catalog.register_xml("bib", &xml).unwrap();
        let mut tenants = TenantRegistry::new();
        tenants.register("public", Envelope::slots(8));
        // Threshold zero: every reply lands in the slow log.
        let service = Service::builder()
            .workers(1)
            .catalog(catalog)
            .tenants(tenants)
            .telemetry(TelemetryConfig::default().with_slow_threshold_us(0))
            .build();
        let h = service.handle();
        let doc = gql_ssdm::Document::parse_str(&xml).unwrap();
        for (kind, query) in [
            ("xpath", "//book"),
            (
                "xmlgl",
                "rule { extract { book as $b } construct { answer { all $b } } }",
            ),
            (
                "wglog",
                "rule { query { $b: book } construct { $l: answer $l -member-> $b } } goal answer",
            ),
        ] {
            let resp = h.submit(&Request::new("public", "bib", kind, query));
            let Response::Ok(ok) = resp else {
                panic!("{kind}: {resp:?}");
            };
            let direct = Engine::new()
                .run(&parse_query(kind, query).unwrap(), &doc)
                .unwrap();
            assert_eq!(ok.xml, direct.output.to_xml_string(), "{kind}");
            assert_eq!(ok.result_count, direct.result_count as u64, "{kind}");
        }
        // A failed run has no answer and no such phase either.
        let resp = h.submit(&Request::new("public", "bib", "xpath", "count(1)"));
        assert!(matches!(resp, Response::Err(_)), "{resp:?}");
        let entries = h.telemetry().slow_entries_for("bib");
        assert_eq!(entries.len(), 4);
        for entry in &entries {
            let names: Vec<&str> = entry.phases.iter().map(|(n, _)| n.as_str()).collect();
            assert!(!names.contains(&"serialize"), "{names:?}");
            // The phases are consecutive pieces of the time between submit
            // and reply, each rounded down to a microsecond.
            let sum: u64 = entry.phases.iter().map(|(_, us)| us).sum();
            assert!(sum <= entry.service_us, "{sum} > {}", entry.service_us);
        }
        let text = h.metrics_report().to_text();
        assert!(
            text.contains(" construct=") && !text.contains("serialize"),
            "{text}"
        );
        service.shutdown();
    }

    #[test]
    fn unknown_names_and_bad_queries_reject_without_admission() {
        let service = demo_service();
        let h = service.handle();
        let cases = [
            (
                Request::new("ghost", "bib", "xpath", "//a"),
                ErrorCode::UnknownTenant,
            ),
            (
                Request::new("public", "ghost", "xpath", "//a"),
                ErrorCode::UnknownDataset,
            ),
            (
                Request::new("public", "bib", "sql", "select"),
                ErrorCode::BadRequest,
            ),
            (
                Request::new("public", "bib", "xmlgl", "rule {"),
                ErrorCode::BadRequest,
            ),
        ];
        for (req, want) in cases {
            assert_eq!(h.submit(&req).error_code(), Some(want), "{req:?}");
        }
        let m = h.metrics();
        assert_eq!(m.submitted, 4);
        assert_eq!(m.admitted, 0, "pre-admission failures never admit");
        service.shutdown();
    }

    #[test]
    fn batch_warms_duplicates_and_preserves_order() {
        let service = demo_service();
        let h = service.handle();
        let q = Request::new("public", "bib", "xpath", "//title");
        let other = Request::new("public", "bib", "xpath", "/bib/book");
        let responses = h.submit_batch(&[q.clone(), other.clone(), q.clone(), q]);
        assert_eq!(responses.len(), 4);
        let oks: Vec<&QueryOk> = responses
            .iter()
            .map(|r| match r {
                Response::Ok(ok) => &**ok,
                e => panic!("batch item failed: {e:?}"),
            })
            .collect();
        assert_eq!(oks[0].xml, oks[2].xml);
        assert_eq!(oks[2].xml, oks[3].xml);
        assert_ne!(oks[0].xml, oks[1].xml, "order is request order");
        // The duplicate entries ran warm behind their leader.
        assert_eq!(oks[2].plan_cache, "hit");
        assert_eq!(oks[3].plan_cache, "hit");
        service.shutdown();
    }

    #[test]
    fn cancellation_returns_the_trip_report() {
        let service = demo_service();
        let h = service.handle();
        let cancel = CancelToken::new();
        cancel.cancel(); // pre-cancelled: trips at the first checkpoint
        let resp = h.submit_with(&Request::new("public", "bib", "xpath", "//title"), cancel);
        let Response::Err(e) = &resp else {
            panic!("pre-cancelled run must not complete: {resp:?}");
        };
        assert_eq!(e.code, ErrorCode::Cancelled);
        let report = e.report.as_deref().expect("trip report is returned");
        assert!(
            report.starts_with("phase="),
            "shape-formatted report: {report}"
        );
        // The shared caches are not poisoned: the same query still runs.
        assert!(h
            .submit(&Request::new("public", "bib", "xpath", "//title"))
            .is_ok());
        assert_eq!(h.metrics().cancelled, 1);
        service.shutdown();
    }

    #[test]
    fn idempotent_retries_execute_at_most_once() {
        let service = demo_service();
        let h = service.handle();
        let req = Request::new("public", "bib", "xpath", "//title").with_request_id("r-1");
        let first = h.submit(&req);
        assert!(first.is_ok(), "original executes: {first:?}");
        let retry = h.submit(&req);
        assert_eq!(retry, first, "retry replays the original response");
        // A different id (and a different tenant scope) is a fresh run.
        let other =
            h.submit(&Request::new("public", "bib", "xpath", "//title").with_request_id("r-2"));
        assert!(other.is_ok());
        let m = h.metrics();
        assert_eq!((m.submitted, m.admitted, m.deduped), (3, 2, 1));
        assert_eq!(
            m.admitted + m.rejected + m.refused + m.deduped,
            m.submitted,
            "conservation with the dedup class"
        );
        service.shutdown();
    }

    #[test]
    fn dedup_table_is_bounded_and_evicts_only_settled_keys_oldest_first() {
        let ok = Response::err(ErrorCode::Engine, "stand-in reply");
        let fresh = |d: &mut Dedup, key| matches!(d.claim(key), DedupClaim::Fresh);
        let hit = |d: &mut Dedup, key| matches!(d.claim(key), DedupClaim::Hit(_));
        let mut d = Dedup::new(2);
        // An in-flight claim outlives any number of settled keys.
        assert!(fresh(&mut d, "inflight"));
        for key in ["a", "b", "c"] {
            assert!(fresh(&mut d, key));
            d.publish(key, &ok);
            assert!(d.settled.len() <= 2 && d.entries.len() <= 3);
        }
        // Capacity 2: the oldest settled key left, the two newest replay.
        assert!(hit(&mut d, "b") && hit(&mut d, "c"));
        let DedupClaim::Wait(waiter) = d.claim("inflight") else {
            panic!("an in-flight claim is never evicted");
        };
        // The evicted key is a fresh claim: it executes again, and settling
        // it pushes out the next oldest.
        assert!(fresh(&mut d, "a"));
        d.publish("a", &ok);
        assert!(fresh(&mut d, "b"));
        d.abandon("b", &ok);
        assert!(hit(&mut d, "c") && hit(&mut d, "a"));
        d.publish("inflight", &ok);
        assert_eq!(waiter.recv().unwrap(), ok);
        assert!(hit(&mut d, "inflight") && hit(&mut d, "a"));
        assert!(
            fresh(&mut d, "c"),
            "settling a third key evicted the oldest"
        );
        assert_eq!((d.settled.len(), d.entries.len()), (2, 3));
    }

    #[test]
    fn deduped_rejections_are_not_cached() {
        let service = demo_service();
        let h = service.handle();
        // A refused submission (unknown dataset) abandons its claim: the
        // retry is a fresh attempt, not a replay.
        let bad = Request::new("public", "ghost", "xpath", "//a").with_request_id("r-9");
        assert_eq!(h.submit(&bad).error_code(), Some(ErrorCode::UnknownDataset));
        assert_eq!(h.submit(&bad).error_code(), Some(ErrorCode::UnknownDataset));
        let m = h.metrics();
        assert_eq!(m.deduped, 0, "refusals never enter the dedup map");
        assert_eq!(m.refused, 2);
        service.shutdown();
    }

    #[test]
    fn rate_limited_rejections_carry_retry_after() {
        let mut catalog = Catalog::new();
        catalog.register_xml("d", "<r><a/></r>").unwrap();
        let mut tenants = TenantRegistry::new();
        tenants.register("throttled", Envelope::slots(8).with_requests_per_sec(0));
        let service = Service::builder()
            .workers(1)
            .catalog(catalog)
            .tenants(tenants)
            .build();
        let h = service.handle();
        let resp = h.submit(&Request::new("throttled", "d", "xpath", "//a"));
        let Response::Err(e) = &resp else {
            panic!("zero quota must reject: {resp:?}");
        };
        assert_eq!(e.code, ErrorCode::RateLimited);
        assert_eq!(ErrorCode::RateLimited.name(), "rate_limited");
        let hint = e.retry_after_ms.expect("rate_limited carries the hint");
        assert!((1..=1000).contains(&hint));
        let m = h.metrics();
        assert_eq!((m.rejected, m.rate_limited), (1, 1));
        service.shutdown();
    }

    #[test]
    fn reload_swaps_epochs_and_drains_under_a_live_handle() {
        let service = demo_service();
        let h = service.handle();
        let req = Request::new("public", "bib", "xpath", "//title");
        let Response::Ok(before) = h.submit(&req) else {
            panic!("first run");
        };
        assert_eq!((before.epoch, before.result_count), (1, 2));

        let reloaded = h
            .reload_xml("bib", "<bib><book><title>only</title></book></bib>")
            .expect("reload succeeds");
        assert_eq!(reloaded.epoch(), 2);
        let Response::Ok(after) = h.submit(&req) else {
            panic!("post-reload run");
        };
        assert_eq!((after.epoch, after.result_count), (2, 1));
        // The prepared query outlives the epoch it was first run on.
        assert_eq!(h.metrics().prepared_hits, 1);
        assert_eq!(
            h.catalog().draining(),
            0,
            "idle old epoch reaps immediately"
        );
        assert!(h.reload_xml("ghost", "<r/>").is_err(), "unknown dataset");
        assert!(h.reload_xml("bib", "<broken").is_err(), "bad xml");
        service.shutdown();
    }

    #[test]
    fn injected_job_panic_is_supervised_on_either_thread_and_the_service_survives() {
        let mut catalog = Catalog::new();
        catalog
            .register_xml(
                "bib",
                "<bib><book><title>a</title></book><book><title>b</title></book></bib>",
            )
            .unwrap();
        let mut tenants = TenantRegistry::new();
        tenants.register("public", Envelope::slots(8));
        let service = Service::builder()
            .workers(2)
            .catalog(catalog)
            .tenants(tenants)
            .chaos(true)
            .build();
        let h = service.handle();
        let req = Request::new("public", "bib", "xpath", "//title");
        // One panic on a caller that found a free slot, one on a caller that
        // waited at the gate.
        let poisoned = fault::with_plan(fault::FaultPlan::panic_jobs(2), || {
            [h.submit(&req), submit_at_the_gate(&h, &req, || {})]
        });
        for reply in &poisoned {
            assert_eq!(
                reply,
                &Response::err(ErrorCode::Engine, PANIC_REPLY),
                "a panicked job answers structurally"
            );
        }
        // Both kinds of caller keep running queries after the panics.
        for _ in 0..3 {
            assert!(h.submit(&req).is_ok(), "a caller with a free slot runs");
            let waited = submit_at_the_gate(&h, &req, || {});
            assert!(waited.is_ok(), "a caller that waited runs");
        }
        let m = h.metrics();
        assert_eq!(m.failed, 2);
        assert_eq!(m.completed, 6);
        assert_eq!(
            m.completed + m.cancelled + m.budget_tripped + m.failed,
            m.admitted,
            "outcome conservation holds through the panic path"
        );
        service.shutdown();
    }

    #[test]
    fn the_prepared_cache_stays_at_its_bound() {
        let service = demo_service();
        let h = service.handle();
        let extra = 10;
        let texts: Vec<String> = (0..crate::prepared::CAPACITY + extra)
            .map(|i| format!("//title[{i}]"))
            .collect();
        for text in &texts {
            assert!(h
                .submit(&Request::new("public", "bib", "xpath", text))
                .is_ok());
        }
        assert_eq!(h.inner.prepared().len(), crate::prepared::CAPACITY);
        let m = h.metrics();
        let sent = texts.len() as u64;
        assert_eq!(
            (m.prepared_hits, m.prepared_misses, m.prepared_evictions),
            (0, sent, extra as u64)
        );
        // The newest text is kept; the oldest went first.
        h.submit(&Request::new(
            "public",
            "bib",
            "xpath",
            &texts[texts.len() - 1],
        ));
        h.submit(&Request::new("public", "bib", "xpath", &texts[0]));
        let m = h.metrics();
        assert_eq!((m.prepared_hits, m.prepared_misses), (1, sent + 1));
        assert_eq!(h.inner.prepared().len(), crate::prepared::CAPACITY);
        service.shutdown();
    }

    /// An unsafe program: `$m` is bound under a negation.
    const UNSAFE: &str =
        "rule { extract { book as $b { not title as $m } } construct { answer { all $m } } }";

    #[test]
    fn a_rejected_program_is_gated_once_and_replied_to_alike() {
        let service = demo_service();
        let h = service.handle();
        let req = Request::new("public", "bib", "xmlgl", UNSAFE);
        let first = h.submit(&req);
        assert_eq!(first.error_code(), Some(ErrorCode::Rejected), "{first:?}");
        let second = h.submit(&req);
        assert_eq!(second, first, "the replies are byte-identical");
        let m = h.metrics();
        assert_eq!((m.prepared_hits, m.prepared_misses), (1, 1));
        // The second request ran the verdict the first one's preparation
        // stored: the cache hands out that very query, diagnostics and all.
        let text: Arc<str> = UNSAFE.into();
        let kept = h.inner.prepare("xmlgl", &text).unwrap();
        assert!(Arc::ptr_eq(
            &kept,
            &h.inner.prepare("xmlgl", &text).unwrap()
        ));
        assert!(matches!(kept.verdict(), Err(CoreError::Rejected { .. })));
        service.shutdown();
    }

    #[test]
    fn a_text_that_does_not_parse_is_refused_each_time_and_never_kept() {
        let service = demo_service();
        let h = service.handle();
        let req = Request::new("public", "bib", "xmlgl", "rule {");
        let first = h.submit(&req);
        assert_eq!(first.error_code(), Some(ErrorCode::BadRequest));
        for _ in 0..2 {
            assert_eq!(h.submit(&req), first);
        }
        // An unknown kind is no cache probe at all.
        let sql = h.submit(&Request::new("public", "bib", "sql", "select"));
        assert_eq!(sql.error_code(), Some(ErrorCode::BadRequest));
        let m = h.metrics();
        assert_eq!((m.prepared_hits, m.prepared_misses), (0, 3));
        assert_eq!((m.refused, m.admitted), (4, 0));
        assert_eq!(h.inner.prepared().len(), 0);
        service.shutdown();
    }

    #[test]
    fn texts_that_print_alike_share_a_plan_and_keep_their_own_spans() {
        let service = demo_service();
        let h = service.handle();
        let one_line = "rule { extract { book as $b } construct { answer { all $b } } }";
        let spread = "rule {\n  extract { book as $b }\n  construct { answer { all $b } }\n}";
        let replies: Vec<Box<QueryOk>> = [one_line, spread]
            .into_iter()
            .map(|text| {
                match h.submit(&Request::new("public", "bib", "xmlgl", text).with_profile()) {
                    Response::Ok(ok) => ok,
                    err => panic!("{err:?}"),
                }
            })
            .collect();
        assert_eq!(replies[0].xml, replies[1].xml);
        assert_eq!(
            (
                replies[0].plan_cache.as_str(),
                replies[1].plan_cache.as_str()
            ),
            ("miss", "hit")
        );
        let engine = h.catalog().get("bib").unwrap().engine().clone();
        assert_eq!(engine.plan_cache_len(), 1, "one plan for both texts");
        let m = h.metrics();
        assert_eq!((m.prepared_hits, m.prepared_misses), (0, 2));
        // Each request's trace is its own: the same shape, with the plan
        // span reporting that request's cache outcome.
        let shapes: Vec<&str> = replies
            .iter()
            .map(|ok| ok.shape.as_deref().unwrap())
            .collect();
        assert_ne!(shapes[0], shapes[1]);
        assert_eq!(
            shapes[0].replace("plan_cache=miss", "plan_cache=hit"),
            shapes[1]
        );
        // And a program the gate refuses names the lines and columns of the
        // text that was sent, whichever of two alike texts came first.
        let spread_unsafe = UNSAFE.replace("{ not", "{\n    not");
        let rejected: Vec<String> = [UNSAFE, spread_unsafe.as_str()]
            .into_iter()
            .map(
                |text| match h.submit(&Request::new("public", "bib", "xmlgl", text)) {
                    Response::Err(e) => e.message,
                    ok => panic!("{ok:?}"),
                },
            )
            .collect();
        assert!(rejected[0].contains(" at 1:"), "{}", rejected[0]);
        assert!(rejected[1].contains(" at 2:"), "{}", rejected[1]);
        service.shutdown();
    }

    #[test]
    fn overload_rejects_structured_and_releases() {
        let mut catalog = Catalog::new();
        catalog.register_xml("d", "<r><a/></r>").unwrap();
        let mut tenants = TenantRegistry::new();
        tenants.register("t", Envelope::slots(1));
        let service = Service::builder()
            .workers(1)
            .catalog(catalog)
            .tenants(tenants)
            .build();
        let h = service.handle();
        // The first request holds the tenant's only permit while it waits
        // for the run slot: a second one, meanwhile, is rejected.
        let slow = Request::new("t", "d", "xpath", "//a");
        let mut second = None;
        let held = submit_at_the_gate(&h, &slow, || second = Some(h.submit(&slow)));
        assert!(held.is_ok(), "{held:?}");
        assert_eq!(
            second.and_then(|r| r.error_code()),
            Some(ErrorCode::Overloaded)
        );
        let m = h.metrics();
        assert_eq!((m.submitted, m.admitted, m.rejected), (2, 1, 1));
        // The permit was released with the reply.
        assert!(h.submit(&slow).is_ok());
        service.shutdown();
    }

    /// Wait, without sleeping, until `done` holds; fail after a minute.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "never: {what}");
            std::thread::yield_now();
        }
    }

    /// Submit `req` from another thread while this one holds every run
    /// slot, so that it waits at the gate; once it waits, call `meanwhile`,
    /// then give the slots back and return its reply.
    fn submit_at_the_gate(h: &ServeHandle, req: &Request, meanwhile: impl FnOnce()) -> Response {
        let gate = &h.inner.gate;
        for _ in 0..gate.limit {
            gate.enter();
        }
        std::thread::scope(|s| {
            let waiter = s.spawn(|| h.submit(req));
            wait_until("the submit waits at the gate", || {
                gate.waiting.load(Ordering::SeqCst) == 1
            });
            meanwhile();
            for _ in 0..gate.limit {
                gate.release();
            }
            waiter.join().expect("the waiting submit")
        })
    }

    #[test]
    fn run_slots_never_let_more_than_their_limit_run() {
        let gate = Gate::new(2);
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let rounds = if cfg!(miri) { 3 } else { 200 };
        std::thread::scope(|s| {
            for _ in 0..5 {
                let (gate, running, peak) = (&gate, &running, &peak);
                s.spawn(move || {
                    for _ in 0..rounds {
                        gate.enter();
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        running.fetch_sub(1, Ordering::SeqCst);
                        gate.release();
                    }
                });
            }
        });
        assert!(peak.into_inner() <= 2);
        assert_eq!(gate.running.into_inner(), 0);
        assert_eq!(gate.waiting.into_inner(), 0);
        let (handed, served) = gate.tickets.into_inner().unwrap();
        assert_eq!(handed, served, "every ticket was served");
    }

    #[test]
    fn more_callers_than_workers_never_run_more_than_workers_at_once() {
        let workers = 1;
        let mut catalog = Catalog::new();
        catalog.register_xml("d", "<r><a/><a/></r>").unwrap();
        let mut tenants = TenantRegistry::new();
        tenants.register("t", Envelope::slots(8));
        let service = Service::builder()
            .workers(workers)
            .catalog(catalog)
            .tenants(tenants)
            .build();
        let h = service.handle();
        let req = Request::new("t", "d", "xpath", "//a");
        // Four events a request: every one fits in the event ring.
        let rounds = if cfg!(miri) { 1 } else { 60 };
        let start = std::sync::Barrier::new(4 * workers);
        std::thread::scope(|s| {
            for _ in 0..4 * workers {
                let (h, req, start) = (&h, &req, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..rounds {
                        assert!(h.submit(req).is_ok());
                    }
                });
            }
        });
        // A run starts after it takes its slot and replies before it gives
        // the slot back, so the runs between a start and its reply, in the
        // order the events were recorded, all held a slot at once.
        let report = h.metrics_report();
        assert_eq!(report.event_stats.dropped, 0, "every event is retained");
        let (mut running, mut peak) = (0usize, 0usize);
        for e in &report.events {
            match e.kind {
                EventKind::Start => {
                    running += 1;
                    peak = peak.max(running);
                }
                EventKind::Reply => running -= 1,
                _ => {}
            }
        }
        assert!((1..=workers).contains(&peak), "peak {peak}");
        assert_eq!(running, 0);
        assert_eq!(h.metrics().completed, (4 * workers * rounds) as u64);
        service.shutdown();
    }

    #[test]
    fn a_waiter_is_not_overtaken_by_a_later_caller() {
        let mut catalog = Catalog::new();
        catalog.register_xml("d", "<r><a/></r>").unwrap();
        let mut tenants = TenantRegistry::new();
        tenants.register("t", Envelope::slots(8));
        let service = Service::builder()
            .workers(1)
            .catalog(catalog)
            .tenants(tenants)
            .build();
        let h = service.handle();
        let req = Request::new("t", "d", "xpath", "//a");
        let gate = &h.inner.gate;
        // Stand in for a run holding the only slot: A waits for it, then B
        // arrives and waits behind A.
        gate.enter();
        std::thread::scope(|s| {
            let a = s.spawn(|| h.submit(&req));
            wait_until("A waits", || gate.waiting.load(Ordering::SeqCst) == 1);
            let b = s.spawn(|| h.submit(&req));
            wait_until("B waits", || gate.waiting.load(Ordering::SeqCst) == 2);
            // The slot frees, and a caller arrives while A wakes: it lines
            // up behind both.
            gate.release();
            assert!(h.submit(&req).is_ok());
            assert!(a.join().unwrap().is_ok() && b.join().unwrap().is_ok());
        });
        // Request ids are handed out at admission: A, B, then the caller.
        let events = h.metrics_report().events;
        let ids = |kind| -> Vec<u64> {
            (events.iter())
                .filter(|e| e.kind == kind)
                .map(|e| e.request_id)
                .collect()
        };
        let starts = ids(EventKind::Start);
        assert_eq!(starts.len(), 3);
        assert_eq!(starts, ids(EventKind::Admit), "runs start in arrival order");
        service.shutdown();
    }

    #[test]
    fn a_submit_after_shutdown_is_refused_once_and_every_law_holds() {
        let service = demo_service();
        let h = service.handle();
        let req = Request::new("public", "bib", "xpath", "//title");
        assert!(h.submit(&req).is_ok());
        // A request that waits at the gate when the service shuts down was
        // admitted: it still runs.
        let waited = submit_at_the_gate(&h, &req, move || service.shutdown());
        assert!(waited.is_ok(), "{waited:?}");
        // One after it is refused before admission, with or without a key.
        for req in [req.clone(), req.clone().with_request_id("r-1")] {
            assert_eq!(
                h.submit(&req),
                Response::err(ErrorCode::Overloaded, "service is shutting down")
            );
        }
        let m = h.metrics();
        assert_eq!(
            (m.submitted, m.admitted, m.refused, m.completed),
            (4, 2, 2, 2)
        );
        assert_eq!(m.admitted + m.rejected + m.refused + m.deduped, m.submitted);
        assert_eq!(
            m.completed + m.cancelled + m.budget_tripped + m.failed,
            m.admitted
        );
        assert_eq!(
            h.metrics_report().event_stats.appended,
            4 * m.admitted + m.cancelled + m.budget_tripped
        );
    }

    #[test]
    fn a_callers_run_happens_on_its_thread_and_records_every_lifecycle_event() {
        let service = demo_service();
        let h = service.handle();
        CALLER_LOG.with(|log| *log.borrow_mut() = TraceLog::new());
        let req = Request::new("public", "bib", "xpath", "//title");
        assert!(h.submit(&req).is_ok());
        // The run was traced into this thread's log: it ran here.
        assert!(CALLER_LOG.with(|log| log.borrow().find("run").is_some()));
        // One request, so every event is its own.
        let kinds: Vec<EventKind> = h.metrics_report().events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::Admit,
                EventKind::Dequeue,
                EventKind::Start,
                EventKind::Reply
            ]
        );
        service.shutdown();
    }

    /// The telemetry plane's clock, counted: a hook reads it once, and
    /// `on_start` shares `on_dequeue`'s reading. A warm admitted request
    /// reads it four times (eight when each window took its own reading
    /// and each hook its own).
    #[test]
    fn a_warm_admitted_request_reads_the_telemetry_clock_four_times() {
        #[derive(Default)]
        struct Counting {
            inner: gql_metrics::MonotonicClock,
            readings: AtomicUsize,
        }
        impl gql_metrics::Clock for Counting {
            fn now_micros(&self) -> u64 {
                self.readings.fetch_add(1, Ordering::SeqCst);
                self.inner.now_micros()
            }
        }
        let clock = Arc::new(Counting::default());
        let mut catalog = Catalog::new();
        catalog.register_xml("bib", "<bib><book/></bib>").unwrap();
        let mut tenants = TenantRegistry::new();
        tenants.register("public", Envelope::slots(8));
        let service = Service::builder()
            .workers(1)
            .catalog(catalog)
            .tenants(tenants)
            .telemetry(TelemetryConfig::default().with_clock(clock.clone()))
            .build();
        let h = service.handle();
        let req = Request::new("public", "bib", "xpath", "//book");
        assert!(h.submit(&req).is_ok());
        let before = clock.readings.load(Ordering::SeqCst);
        assert!(h.submit(&req).is_ok());
        let readings = clock.readings.load(Ordering::SeqCst) - before;
        assert!(readings <= 4, "{readings} telemetry clock readings");
        service.shutdown();
    }
}
