//! The chaos oracle: the service must survive injected faults without
//! ever changing an answer.
//!
//! Every (non-pathological) corpus case is registered as a catalog
//! dataset behind a real TCP [`Server`] with chaos seams enabled, then
//! stormed through the [`ResilientClient`] while a matrix of faults
//! plays out underneath:
//!
//! * **torn replies** — the server writes half a reply and cuts the
//!   socket; the client must reconnect, retry with the same idempotency
//!   key, and receive the original (deduplicated) answer. One torn reply
//!   carries an answer over one frame, cut inside its first chunk, which
//!   must never come back as a shorter answer;
//! * **dropped replies** — the reply vanishes entirely (mid-stream
//!   disconnect after the work completed), once for that chunked answer
//!   too;
//! * **run panics** — an injected panic inside a wire run, on its
//!   connection thread; the run is supervised, answered structurally, and
//!   the thread keeps serving;
//! * **caller panics** — the same panics under in-process blocking
//!   submits from more callers than the service has run slots, so some
//!   runs wait at the gate first: each panic is answered structurally,
//!   published for its idempotency key, and releases its permit;
//! * **slow-loris writers** — a client that opens a frame and stalls is
//!   reaped by the server's read timeout without pinning a thread;
//! * **torn requests** — garbage and truncated frames from the client
//!   side get structured errors or clean closes, never a hang;
//! * **mid-stream disconnects** — a client that vanishes after
//!   submitting a stalled query has its run cancelled and leaves no leaked
//!   slots behind;
//! * **hot reload during the storm** — the catalog swaps dataset epochs
//!   continuously under fire; every reply must carry exactly one epoch,
//!   and once the storm drains every epoch's admitted count must equal
//!   its released count (no permit leaks, no torn catalogs);
//! * **rate limiting** — a tightly-quota'd tenant is stormed; the client
//!   honours `retry_after_ms` and every request eventually lands.
//!
//! Under *every* fault the bar is the same as the concurrency oracle's:
//! responses byte-identical to a fresh single-threaded [`Engine`] run
//! (or the documented structured error for the injected fault), the
//! telemetry conservation laws exact once quiescent, and the whole
//! matrix bounded in wall-clock — a hang is a failure, not a timeout.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gql_core::{CoreError, Engine, QueryKind};
use gql_guard::fault::{self, FaultPlan};
use gql_serve::service::parse_query;
use gql_serve::{
    Catalog, ClientError, Envelope, ErrorCode, Request, ResilientClient, Response, RetryPolicy,
    ServeHandle, Server, ServerConfig, Service, Tenant, TenantRegistry,
};

use crate::corpus::CorpusCase;
use crate::oracle;

/// What the single-threaded baseline says one case must produce.
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    Xml(String),
    Err(ErrorCode, String),
}

/// One case prepared for the storm.
struct Prepared {
    dataset: String,
    kind: String,
    query: String,
    /// Original document source, re-normalized for same-content reloads.
    doc_xml: String,
    expected: Expected,
}

/// Outcome summary of a [`check_cases`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosReport {
    /// Corpus cases stormed under each fault scenario.
    pub cases: usize,
    /// Fault scenarios executed.
    pub scenarios: usize,
    /// Logical requests issued through the resilient client.
    pub requests: usize,
    /// Retries the client spent surviving the faults.
    pub retries: u64,
}

/// Tenants the storms round-robin over.
const TENANTS: [&str; 2] = ["alpha", "beta"];

/// Submitter threads per storm.
const THREADS: usize = 4;

/// The tightly-quota'd tenant for the rate-limit scenario.
const THROTTLED: &str = "throttled";
const THROTTLED_RPS: u64 = 4;

fn expected_err(query: &QueryKind, e: &CoreError) -> Expected {
    // An XPath text that does not parse is refused before it runs, by the
    // service's parser front, with that front's message.
    if let QueryKind::XPath(text) = query {
        if let Err(msg) = parse_query("xpath", text) {
            return Expected::Err(ErrorCode::BadRequest, msg);
        }
    }
    let code = match e {
        CoreError::Rejected { .. } => ErrorCode::Rejected,
        CoreError::Budget(_) => ErrorCode::Budget,
        _ => ErrorCode::Engine,
    };
    Expected::Err(code, e.to_string())
}

/// The disconnect scenario's query: a WG-Log program that runs over any
/// dataset, and under [`ghost_stall`] is still in its first fixpoint round
/// long after its client hung up.
const GHOST_QUERY: &str =
    "rule { query { $x: * } construct { $l: ghost  $l -member-> $x } } goal ghost";

/// Every fixpoint round stalls 400 ms.
fn ghost_stall() -> FaultPlan {
    FaultPlan {
        stall_round: Some(1),
        stall_ms: 400,
        ..FaultPlan::default()
    }
}

/// Register a dataset whose answer to `//a` is over
/// [`MAX_FRAME`](gql_serve::proto::MAX_FRAME) bytes, so that its reply
/// leaves the server as a header and two chunks, and return that case.
fn chunked_case(catalog: &mut Catalog) -> Prepared {
    let item = format!("<a>{}</a>", "chunk ".repeat(20));
    let doc_xml = format!("<r>{}</r>", item.repeat(9_000));
    let doc = gql_ssdm::Document::parse_str(&doc_xml).expect("the chunked dataset parses");
    let query = "//a".to_string();
    let out = (Engine::new().run(&QueryKind::XPath(query.clone()), &doc)).expect("`//a` runs");
    let xml = out.output.to_xml_string();
    assert!(
        xml.len() > gql_serve::proto::MAX_FRAME,
        "{} bytes",
        xml.len()
    );
    catalog.register("chunked", doc);
    Prepared {
        dataset: "chunked".into(),
        kind: "xpath".into(),
        query,
        doc_xml,
        expected: Expected::Xml(xml),
    }
}

/// Injected panics in the in-process scenario.
const CALLER_PANICS: usize = 3;

/// Is `resp` the supervised-panic structured error — the documented
/// outcome when a `panic_jobs` token hits a request?
fn is_panic_reply(resp: &Response) -> bool {
    matches!(resp, Response::Err(e) if e.code == ErrorCode::Engine && e.message.contains("supervised"))
}

/// `allow_panic_reply` admits the supervised-panic structured error.
fn check_response(case: &Prepared, resp: &Response, allow_panic_reply: bool) -> Result<(), String> {
    if allow_panic_reply && is_panic_reply(resp) {
        return Ok(());
    }
    match (&case.expected, resp) {
        (Expected::Xml(want), Response::Ok(ok)) => {
            if ok.epoch == 0 {
                return Err(format!("{}: reply carries no catalog epoch", case.dataset));
            }
            if &ok.xml == want {
                Ok(())
            } else {
                Err(format!(
                    "{}: answer diverged from single-threaded baseline under fault\n  want: {want}\n  got:  {}",
                    case.dataset, ok.xml
                ))
            }
        }
        (Expected::Err(code, msg), Response::Err(err)) => {
            if err.code == *code && &err.message == msg {
                Ok(())
            } else {
                Err(format!(
                    "{}: error mismatch (want {} `{msg}`, got {} `{}`)",
                    case.dataset,
                    code.name(),
                    err.code.name(),
                    err.message
                ))
            }
        }
        (want, got) => Err(format!(
            "{}: outcome class mismatch (want {want:?}, got {got:?})",
            case.dataset
        )),
    }
}

fn prepare(cases: &[(String, CorpusCase)]) -> (Catalog, Vec<Prepared>) {
    let mut catalog = Catalog::new();
    let mut prepared = Vec::new();
    for (name, case) in cases {
        if case.budget.is_some() {
            continue; // pathological by construction
        }
        let Some(doc) = oracle::normalize(&case.doc) else {
            continue;
        };
        let Ok(query) = case.query_kind() else {
            continue;
        };
        let expected = match Engine::new().run(&query, &doc) {
            Ok(out) => Expected::Xml(out.output.to_xml_string()),
            Err(e) => expected_err(&query, &e),
        };
        catalog.register(name, doc);
        let kind = match query {
            QueryKind::XmlGl(_) => "xmlgl",
            QueryKind::WgLog(_) => "wglog",
            QueryKind::XPath(_) => "xpath",
        };
        prepared.push(Prepared {
            dataset: name.clone(),
            kind: kind.to_string(),
            query: match case.kind.as_str() {
                "intent" => match case.query_kind() {
                    Ok(QueryKind::XPath(x)) => x,
                    _ => unreachable!("intent lowers to xpath"),
                },
                _ => case.query.clone(),
            },
            doc_xml: case.doc.clone(),
            expected,
        });
    }
    (catalog, prepared)
}

/// Storm every prepared case once through per-thread resilient clients.
/// Client-level failures (exhausted retries, blown deadlines) are oracle
/// failures: the fault budgets are sized so a correct client always
/// gets through.
fn storm(
    addr: SocketAddr,
    prepared: &[Prepared],
    seed: u64,
    allow_panic_reply: bool,
    failures: &Mutex<Vec<String>>,
    requests: &AtomicUsize,
    retries: &AtomicUsize,
) {
    let next = AtomicUsize::new(0);
    let next = &next;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let policy = RetryPolicy::default()
                    .max_attempts(6)
                    .base_backoff(Duration::from_millis(5))
                    .max_backoff(Duration::from_millis(100))
                    .deadline(Duration::from_secs(20))
                    .seed(seed.wrapping_mul(31).wrapping_add(t as u64));
                let mut client = ResilientClient::new(addr, policy);
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= prepared.len() {
                        break;
                    }
                    let case = &prepared[i];
                    let req = Request::new(
                        TENANTS[i % TENANTS.len()],
                        &case.dataset,
                        &case.kind,
                        &case.query,
                    );
                    requests.fetch_add(1, Ordering::SeqCst);
                    match client.query(&req) {
                        Ok(resp) => {
                            if let Err(msg) = check_response(case, &resp, allow_panic_reply) {
                                failures.lock().unwrap().push(msg);
                            }
                        }
                        Err(e) => failures
                            .lock()
                            .unwrap()
                            .push(format!("{}: client gave up: {e}", case.dataset)),
                    }
                }
                retries.fetch_add(client.retries() as usize, Ordering::SeqCst);
            });
        }
    });
}

/// Storm every prepared case in process under `panic_jobs`, round after
/// round until all [`CALLER_PANICS`] tokens are spent. The submits block
/// and come from twice as many threads as the service has run slots, so
/// some of them wait at the gate before they run; every run, and every
/// panic, is on its caller's thread. Each request carries an idempotency
/// key. Returns the failures found.
fn caller_panics(
    handle: &ServeHandle,
    prepared: &[Prepared],
    tenants: &[Arc<Tenant>],
    requests: &AtomicUsize,
) -> Vec<String> {
    let panicked: Mutex<Vec<(Request, Response)>> = Mutex::new(Vec::new());
    let failures = Mutex::new(Vec::new());
    fault::with_plan(FaultPlan::panic_jobs(CALLER_PANICS as u64), || {
        for round in 0..8 {
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..2 * THREADS {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(case) = prepared.get(i) else {
                            break;
                        };
                        let tenant = TENANTS[i % TENANTS.len()];
                        let req = Request::new(tenant, &case.dataset, &case.kind, &case.query)
                            .with_request_id(format!("caller-panic-{round}-{i}"));
                        requests.fetch_add(1, Ordering::SeqCst);
                        let resp = handle.submit(&req);
                        if is_panic_reply(&resp) {
                            panicked.lock().unwrap().push((req, resp));
                        } else if let Err(msg) = check_response(case, &resp, false) {
                            failures.lock().unwrap().push(msg);
                        }
                    });
                }
            });
            if panicked.lock().unwrap().len() == CALLER_PANICS {
                break;
            }
        }
    });
    let mut failures = failures.into_inner().unwrap();
    let panicked = panicked.into_inner().unwrap();
    if panicked.len() != CALLER_PANICS {
        failures.push(format!(
            "{} of {CALLER_PANICS} injected panics came back as the engine error",
            panicked.len()
        ));
    }
    // Each panic reply was published under its key: a retry replays it.
    let deduped = handle.metrics().deduped;
    for (req, resp) in &panicked {
        requests.fetch_add(1, Ordering::SeqCst);
        let retry = handle.submit(req);
        if &retry != resp {
            failures.push(format!(
                "{}: a retry of a panicked request got {retry:?}",
                req.dataset
            ));
        }
    }
    let replayed = handle.metrics().deduped - deduped;
    if replayed != panicked.len() as u64 {
        failures.push(format!(
            "{replayed} of {} retries were replayed from the dedup map",
            panicked.len()
        ));
    }
    for tenant in tenants {
        if tenant.in_flight() != 0 {
            failures.push(format!(
                "tenant `{}` still holds {} permits — permit leak",
                tenant.name(),
                tenant.in_flight()
            ));
        }
    }
    let m = handle.metrics();
    if m.admitted + m.rejected + m.refused + m.deduped != m.submitted {
        failures.push(format!(
            "conservation broken: admitted {} + rejected {} + refused {} + deduped {} != submitted {}",
            m.admitted, m.rejected, m.refused, m.deduped, m.submitted
        ));
    }
    let outcomes = m.completed + m.cancelled + m.budget_tripped + m.failed;
    if outcomes != m.admitted {
        failures.push(format!("admitted {} vs outcomes {outcomes}", m.admitted));
    }
    failures
}

/// Run the full chaos matrix. `seed` drives every jitter stream;
/// `wall_budget` bounds the whole matrix — exceeding it is a failure
/// (the oracle's definition of "never a hang").
pub fn check_cases(
    cases: &[(String, CorpusCase)],
    seed: u64,
    wall_budget: Duration,
) -> Result<ChaosReport, String> {
    let started = Instant::now();
    let (mut catalog, prepared) = prepare(cases);
    if prepared.is_empty() {
        return Err("chaos oracle: no replayable cases (corpus missing?)".into());
    }
    let chunked_case = chunked_case(&mut catalog);

    let mut tenants = TenantRegistry::new();
    for t in TENANTS {
        tenants.register(t, Envelope::slots(THREADS as u64 * 2));
    }
    tenants.register(
        THROTTLED,
        Envelope::slots(THREADS as u64 * 2).with_requests_per_sec(THROTTLED_RPS),
    );
    let stormed: Vec<Arc<Tenant>> = TENANTS
        .iter()
        .filter_map(|t| tenants.get(t).cloned())
        .collect();
    let service = Service::builder()
        .workers(THREADS)
        .catalog(catalog)
        .tenants(tenants)
        .chaos(true)
        .build();
    let handle = service.handle();
    // The chaos-facing server: the service's `.chaos(true)` arms its reply
    // seams; generous timeouts (the reap scenario uses its own short-fused
    // server below).
    let server = Server::bind_with(
        "127.0.0.1:0",
        handle.clone(),
        ServerConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
        },
    )
    .map_err(|e| format!("chaos oracle: cannot bind server: {e}"))?;
    let addr = server.addr();

    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let requests = AtomicUsize::new(0);
    let retries = AtomicUsize::new(0);
    let mut scenarios = 0usize;

    // Scenario 1: no faults — the client and wire path must be a clean
    // superset of the in-process oracle.
    storm(addr, &prepared, seed, false, &failures, &requests, &retries);
    scenarios += 1;

    // Scenarios 2–4: the guard's reply and run seams, one token budget per
    // storm. Budgets stay below the client's attempt budget so a correct
    // retry loop always lands; `with_plan` serializes plans process-wide.
    // The two reply faults then hit the one reply of a chunked answer: a
    // single token, taken by that reply, tears it inside its first chunk or
    // drops it whole, and the retry must bring back every byte.
    for (label, plan, chunked, allow_panic) in [
        (
            "torn_replies",
            FaultPlan::torn_replies(4),
            Some(FaultPlan::torn_replies(1)),
            false,
        ),
        (
            "drop_replies",
            FaultPlan::drop_replies(4),
            Some(FaultPlan::drop_replies(1)),
            false,
        ),
        ("panic_jobs", FaultPlan::panic_jobs(3), None, true),
    ] {
        let before = failures.lock().unwrap().len();
        fault::with_plan(plan, || {
            storm(
                addr,
                &prepared,
                seed.wrapping_add(scenarios as u64),
                allow_panic,
                &failures,
                &requests,
                &retries,
            );
        });
        if let Some(plan) = chunked {
            let retried = retries.load(Ordering::SeqCst);
            fault::with_plan(plan, || {
                storm(
                    addr,
                    std::slice::from_ref(&chunked_case),
                    seed ^ 0xb16,
                    false,
                    &failures,
                    &requests,
                    &retries,
                );
            });
            if retries.load(Ordering::SeqCst) == retried {
                failures
                    .lock()
                    .unwrap()
                    .push("the chunked answer's reply was never faulted".to_string());
            }
        }
        scenarios += 1;
        let mut fs = failures.lock().unwrap();
        for f in fs[before..].iter_mut() {
            *f = format!("[{label}] {f}");
        }
    }

    // Scenario 5: in-process panics, on the threads of blocking callers
    // that hold idempotency keys.
    let found = caller_panics(&handle, &prepared, &stormed, &requests);
    failures
        .lock()
        .unwrap()
        .extend(found.into_iter().map(|f| format!("[caller_panics] {f}")));
    scenarios += 1;

    // Scenario 6: slow-loris writer. A short-fused server must reap the
    // stalled connection and keep serving everyone else.
    {
        let reaper = Server::bind_with(
            "127.0.0.1:0",
            handle.clone(),
            ServerConfig {
                read_timeout: Some(Duration::from_millis(100)),
                write_timeout: Some(Duration::from_millis(100)),
            },
        )
        .map_err(|e| format!("chaos oracle: cannot bind reaper server: {e}"))?;
        match TcpStream::connect(reaper.addr()) {
            Ok(mut loris) => {
                // Open a frame claiming 64 bytes, send 3, stall. The server
                // must cut us loose instead of waiting forever.
                let _ = loris.write_all(&64u32.to_be_bytes());
                let _ = loris.write_all(b"{\"o");
                let _ = loris.flush();
                let _ = loris.set_read_timeout(Some(Duration::from_secs(5)));
                let mut buf = [0u8; 16];
                use std::io::Read as _;
                match loris.read(&mut buf) {
                    Ok(0) | Err(_) => {}
                    Ok(n) => failures
                        .lock()
                        .unwrap()
                        .push(format!("[slow_loris] reaped connection sent {n} bytes")),
                }
            }
            Err(e) => failures
                .lock()
                .unwrap()
                .push(format!("[slow_loris] cannot connect: {e}")),
        }
        // The reaper server still answers honest clients.
        let before = failures.lock().unwrap().len();
        storm(
            reaper.addr(),
            &prepared[..1.min(prepared.len())],
            seed ^ 0x10c5,
            false,
            &failures,
            &requests,
            &retries,
        );
        let mut fs = failures.lock().unwrap();
        for f in fs[before..].iter_mut() {
            *f = format!("[slow_loris] {f}");
        }
        drop(fs);
        reaper.shutdown();
        scenarios += 1;
    }

    // Scenario 7: torn requests. Garbage inside a well-formed frame gets
    // a structured error on a connection that stays usable; a truncated
    // frame followed by a hangup closes cleanly.
    {
        let mut raw = gql_serve::Client::connect(addr)
            .map_err(|e| format!("chaos oracle: cannot connect raw client: {e}"))?;
        match raw.roundtrip(&gql_serve::json::Value::str("not an op")) {
            Ok(reply) => {
                let code = reply.get("code").and_then(|v| v.as_str());
                if code != Some("bad-request") {
                    failures.lock().unwrap().push(format!(
                        "[torn_request] garbage op wanted bad-request, got {reply:?}"
                    ));
                }
            }
            Err(e) => failures
                .lock()
                .unwrap()
                .push(format!("[torn_request] garbage op: {e}")),
        }
        // Truncated frame, then vanish: the server must not hang on it.
        let _ = raw.stream().write_all(&8u32.to_be_bytes());
        let _ = raw.stream().write_all(b"{\"op");
        drop(raw);
        scenarios += 1;
    }

    // Scenario 8: mid-stream disconnect. Send a query whose every fixpoint
    // round stalls, and hang up before the reply: the server must cancel
    // the run (`cancelled` rises by one, nothing completes) without leaking
    // the slot — proven by the conservation laws below and by the
    // follow-up storm.
    {
        let before = handle.metrics();
        let settled = |m: &gql_serve::ServiceMetrics| {
            m.completed + m.cancelled + m.budget_tripped + m.failed
                > before.completed + before.cancelled + before.budget_tripped + before.failed
        };
        fault::with_plan(ghost_stall(), || {
            let req = Request::new(TENANTS[0], &prepared[0].dataset, "wglog", GHOST_QUERY);
            let frame = gql_serve::proto::encode_request(&req).render();
            match TcpStream::connect(addr) {
                Ok(mut ghost) => {
                    let _ = gql_serve::proto::write_frame(&mut ghost, frame.as_bytes());
                    drop(ghost);
                }
                Err(e) => failures
                    .lock()
                    .unwrap()
                    .push(format!("[disconnect] cannot connect: {e}")),
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while !settled(&handle.metrics()) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let m = handle.metrics();
        if m.cancelled != before.cancelled + 1 || m.completed != before.completed {
            failures.lock().unwrap().push(format!(
                "[disconnect] a hung-up run was not cancelled: cancelled {} -> {}, completed {} -> {}",
                before.cancelled, m.cancelled, before.completed, m.completed
            ));
        }
        let before = failures.lock().unwrap().len();
        storm(
            addr,
            &prepared[..1.min(prepared.len())],
            seed ^ 0xd15c,
            false,
            &failures,
            &requests,
            &retries,
        );
        let mut fs = failures.lock().unwrap();
        for f in fs[before..].iter_mut() {
            *f = format!("[disconnect] {f}");
        }
        drop(fs);
        scenarios += 1;
    }

    // Scenario 9: hot reload during the storm. A reloader swaps every
    // dataset to a new epoch (same content, so answers stay
    // byte-identical) while the storm runs; afterwards the catalog must
    // drain completely — every epoch's permits conserved.
    {
        let catalog = handle.catalog();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let before = failures.lock().unwrap().len();
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    for case in &prepared {
                        let Some(doc) = oracle::normalize(&case.doc_xml) else {
                            continue;
                        };
                        if let Err(e) = catalog.reload(&case.dataset, doc) {
                            failures
                                .lock()
                                .unwrap()
                                .push(format!("[reload] {}: {e}", case.dataset));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
            storm(
                addr,
                &prepared,
                seed ^ 0x8e10,
                false,
                &failures,
                &requests,
                &retries,
            );
            stop.store(true, Ordering::SeqCst);
        });
        let mut fs = failures.lock().unwrap();
        for f in fs[before..].iter_mut() {
            *f = format!("[reload] {f}");
        }
        drop(fs);
        // Quiescent now: every retired epoch must drain and reap.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            catalog.reap_retired();
            if catalog.draining() == 0 || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if catalog.draining() != 0 {
            failures.lock().unwrap().push(format!(
                "[reload] {} retired epoch(s) never drained — permit leak",
                catalog.draining()
            ));
        }
        for stat in catalog.epoch_stats() {
            if stat.admitted != stat.released {
                failures.lock().unwrap().push(format!(
                    "[reload] {} epoch {}: admitted {} != released {} — permit leak",
                    stat.name, stat.epoch, stat.admitted, stat.released
                ));
            }
            // The reloader swaps the corpus datasets, not the chunked one.
            if stat.epoch < 2 && stat.name != chunked_case.dataset {
                failures.lock().unwrap().push(format!(
                    "[reload] {} never advanced past epoch {} under the reloader",
                    stat.name, stat.epoch
                ));
            }
        }
        scenarios += 1;
    }

    // Scenario 10: rate limiting. The throttled tenant's storm must make
    // the quota visibly reject, and the client — honouring
    // `retry_after_ms` — must land every request anyway.
    {
        let case = &prepared[0];
        let policy = RetryPolicy::default()
            .max_attempts(8)
            .base_backoff(Duration::from_millis(5))
            .deadline(Duration::from_secs(20))
            .seed(seed ^ 0x4a7e);
        let mut client = ResilientClient::new(addr, policy);
        // A burst can straddle a quota-window boundary and sail through;
        // re-burst (bounded) until the quota demonstrably rejected.
        let mut tripped = false;
        for _round in 0..3 {
            for _ in 0..(THROTTLED_RPS * 2) {
                let req = Request::new(THROTTLED, &case.dataset, &case.kind, &case.query);
                requests.fetch_add(1, Ordering::SeqCst);
                match client.query(&req) {
                    Ok(resp) => {
                        if let Err(msg) = check_response(case, &resp, false) {
                            failures.lock().unwrap().push(format!("[rate_limit] {msg}"));
                        }
                    }
                    Err(e @ ClientError::Protocol(_)) => failures
                        .lock()
                        .unwrap()
                        .push(format!("[rate_limit] protocol fault: {e}")),
                    Err(e) => failures
                        .lock()
                        .unwrap()
                        .push(format!("[rate_limit] client gave up: {e}")),
                }
            }
            if handle.metrics().rate_limited > 0 {
                tripped = true;
                break;
            }
        }
        retries.fetch_add(client.retries() as usize, Ordering::SeqCst);
        if !tripped {
            failures
                .lock()
                .unwrap()
                .push("[rate_limit] quota never tripped — the scenario tested nothing".to_string());
        }
        scenarios += 1;
    }

    // Epilogue: the service is quiescent; the conservation laws must be
    // exact. Retries of already-completed requests surface as `deduped`.
    let mut failures = failures.into_inner().unwrap();
    let m = handle.metrics();
    if m.admitted + m.rejected + m.refused + m.deduped != m.submitted {
        failures.push(format!(
            "telemetry: conservation broken under chaos: admitted {} + rejected {} + refused {} + deduped {} != submitted {}",
            m.admitted, m.rejected, m.refused, m.deduped, m.submitted
        ));
    }
    let outcomes = m.completed + m.cancelled + m.budget_tripped + m.failed;
    if outcomes != m.admitted {
        failures.push(format!(
            "telemetry: admitted {} vs outcomes {outcomes} under chaos",
            m.admitted
        ));
    }
    for stat in handle.catalog().epoch_stats() {
        if stat.admitted != stat.released {
            failures.push(format!(
                "catalog: {} epoch {} leaked permits (admitted {} != released {})",
                stat.name, stat.epoch, stat.admitted, stat.released
            ));
        }
    }
    server.shutdown();
    service.shutdown();

    if started.elapsed() > wall_budget {
        failures.push(format!(
            "chaos oracle blew its wall-clock budget: {:?} > {:?}",
            started.elapsed(),
            wall_budget
        ));
    }
    if failures.is_empty() {
        Ok(ChaosReport {
            cases: prepared.len(),
            scenarios,
            requests: requests.into_inner(),
            retries: retries.into_inner() as u64,
        })
    } else {
        failures.truncate(12);
        Err(failures.join("\n"))
    }
}

/// Convenience entry point: run the chaos matrix over a corpus directory.
pub fn check_corpus_dir(
    dir: &std::path::Path,
    seed: u64,
    wall_budget: Duration,
) -> Result<ChaosReport, String> {
    let cases = crate::corpus::load_dir(dir)?;
    let named: Vec<(String, CorpusCase)> = cases
        .into_iter()
        .map(|(path, case)| {
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "case".into());
            (name, case)
        })
        .collect();
    check_cases(&named, seed, wall_budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(kind: &str, query: &str, doc: &str) -> CorpusCase {
        CorpusCase {
            kind: kind.into(),
            oracle: String::new(),
            seed: None,
            query: query.into(),
            doc: doc.into(),
            budget: None,
        }
    }

    #[test]
    fn chaos_matrix_passes_on_agreeing_cases() {
        let cases = vec![
            (
                "xp".to_string(),
                case("xpath", "//a", "<r><a/><b><a/></b></r>"),
            ),
            ("err".to_string(), case("xpath", "//[", "<r><a/></r>")),
        ];
        let report =
            check_cases(&cases, 42, Duration::from_secs(120)).expect("chaos matrix passes");
        assert_eq!(report.cases, 2);
        assert!(report.scenarios >= 10);
        assert!(report.requests > 0);
    }

    #[test]
    fn empty_corpus_is_an_error_not_a_vacuous_pass() {
        assert!(check_cases(&[], 1, Duration::from_secs(5)).is_err());
    }
}
