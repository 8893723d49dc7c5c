//! The concurrency differential oracle: the service must never change an
//! answer.
//!
//! Every (non-pathological) corpus case is registered as a catalog
//! dataset and stormed through one shared [`Service`] at configurable
//! concurrency with mixed tenants, and each response is held
//! **byte-identical** to a fresh single-threaded [`Engine`] run of the
//! same query — its answer and its EXPLAIN plan, and for error cases the
//! same structured class with the same message. On top of the differential
//! check the oracle asserts:
//!
//! * **deterministic trace shapes** — the same warm request profiles to
//!   the same duration-free shape every time, under any interleaving;
//! * **cancellation hygiene** — a request cancelled mid-flight returns a
//!   structured trip report and never poisons the shared plan/index
//!   caches: the very next identical request completes byte-identical to
//!   baseline.
//!
//! [`check_over_the_wire`] holds one query's served answer to the direct
//! run's over a real socket, through both clients: the path on which an
//! answer is split into chunks.
//!
//! Budget-bearing corpus cases are excluded: they are pathological by
//! construction (exploding fixpoints) and exist to test the guard, not
//! the service.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use gql_core::{CoreError, Engine, QueryKind};
use gql_guard::CancelToken;
use gql_serve::proto::{decode_response, encode_request};
use gql_serve::service::parse_query;
use gql_serve::{
    Catalog, Client, Envelope, ErrorCode, Request, ResilientClient, Response, RetryPolicy, Server,
    Service, TenantRegistry,
};
use gql_ssdm::Document;

use crate::corpus::CorpusCase;
use crate::oracle;

/// What the single-threaded baseline says one case must produce.
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    /// The answer and the EXPLAIN text of the plan that ran.
    Ok {
        xml: String,
        plan: Arc<str>,
    },
    Err(ErrorCode, String),
}

/// One case prepared for the storm.
struct Prepared {
    dataset: String,
    kind: String,
    query: String,
    expected: Expected,
}

/// Outcome summary of a [`check_cases_concurrently`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOracleReport {
    /// Corpus cases stormed (unparseable and budget-bearing ones are
    /// skipped — the former are vacuous, the latter pathological).
    pub cases: usize,
    /// Total service requests issued across the storm, determinism and
    /// cancellation phases.
    pub requests: usize,
}

/// Tenants the storm round-robins over — mixed tenancy is part of the
/// oracle: per-tenant admission state must not leak into answers.
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// How many times each case replays during the storm phase.
const STORM_ROUNDS: usize = 4;

/// Map a baseline engine error to the structured response the service
/// must produce for the same query.
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

fn check_response(case: &Prepared, resp: &Response) -> Result<(), String> {
    match (&case.expected, resp) {
        (Expected::Ok { xml, plan }, Response::Ok(ok)) => {
            if &ok.xml != xml {
                Err(format!(
                    "{}: concurrent answer diverged from single-threaded baseline\n  want: {xml}\n  got:  {}",
                    case.dataset, ok.xml
                ))
            } else if ok.plan != *plan {
                Err(format!(
                    "{}: served plan diverged from single-threaded baseline\n  want: {plan}\n  got:  {}",
                    case.dataset, ok.plan
                ))
            } else {
                Ok(())
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

/// Run the full oracle over parsed corpus cases at the given concurrency.
pub fn check_cases_concurrently(
    cases: &[(String, CorpusCase)],
    threads: usize,
) -> Result<ServeOracleReport, String> {
    let mut catalog = Catalog::new();
    let mut prepared: Vec<Prepared> = Vec::new();
    for (name, case) in cases {
        if case.budget.is_some() {
            continue; // pathological by construction
        }
        let Some(doc) = oracle::normalize(&case.doc) else {
            continue; // vacuous, mirroring `check_case`
        };
        let Ok(query) = case.query_kind() else {
            continue;
        };
        // Baseline: a fresh, single-threaded, cold engine.
        let expected = match Engine::new().run(&query, &doc) {
            Ok(out) => Expected::Ok {
                xml: out.output.to_xml_string(),
                plan: out.plan,
            },
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
            // Intent descriptors lowered to XPath: submit the lowering.
            query: match case.kind.as_str() {
                "intent" => match case.query_kind() {
                    Ok(QueryKind::XPath(x)) => x,
                    _ => unreachable!("intent lowers to xpath"),
                },
                _ => case.query.clone(),
            },
            expected,
        });
    }
    if prepared.is_empty() {
        return Err("serve oracle: no replayable cases (corpus missing?)".into());
    }

    let mut tenants = TenantRegistry::new();
    for t in TENANTS {
        tenants.register(t, Envelope::slots(threads as u64 * 2));
    }
    let service = Service::builder()
        .workers(threads)
        .catalog(catalog)
        .tenants(tenants)
        .build();
    let handle = service.handle();
    let requests = AtomicUsize::new(0);

    // Phase 1: the storm. Every case × STORM_ROUNDS, interleaved across
    // `threads` submitters with round-robin tenants.
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let total = prepared.len() * STORM_ROUNDS;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= total {
                    return;
                }
                let case = &prepared[i % prepared.len()];
                let req = Request::new(
                    TENANTS[i % TENANTS.len()],
                    &case.dataset,
                    &case.kind,
                    &case.query,
                );
                requests.fetch_add(1, Ordering::SeqCst);
                let resp = handle.submit(&req);
                if let Err(msg) = check_response(case, &resp) {
                    failures.lock().unwrap().push(msg);
                }
            });
        }
    });
    let mut failures = failures.into_inner().unwrap();

    // Phase 2: warm trace-shape determinism. Two profiled runs of the
    // same (now warm) request must produce identical duration-free
    // shapes.
    for case in &prepared {
        let req = Request::new(TENANTS[0], &case.dataset, &case.kind, &case.query).with_profile();
        requests.fetch_add(2, Ordering::SeqCst);
        let (a, b) = (handle.submit(&req), handle.submit(&req));
        if let (Response::Ok(a), Response::Ok(b)) = (&a, &b) {
            if a.shape != b.shape {
                failures.push(format!(
                    "{}: warm trace shape is not deterministic\n  first:  {:?}\n  second: {:?}",
                    case.dataset, a.shape, b.shape
                ));
            }
        }
    }

    // Phase 3: cancellation hygiene. A pre-cancelled request trips with a
    // structured report; the next identical request must still match the
    // baseline exactly (shared caches not poisoned).
    for case in &prepared {
        let req = Request::new(TENANTS[1], &case.dataset, &case.kind, &case.query);
        let cancel = CancelToken::new();
        cancel.cancel();
        requests.fetch_add(2, Ordering::SeqCst);
        let cancelled = handle.submit_with(&req, cancel);
        match &cancelled {
            Response::Err(e) if e.code == ErrorCode::Cancelled => {
                if e.report.as_deref().is_none_or(|r| !r.starts_with("phase=")) {
                    failures.push(format!(
                        "{}: cancelled run dropped its trip report: {:?}",
                        case.dataset, e.report
                    ));
                }
            }
            // Static analysis refuses a program before the run's first
            // checkpoint, and the parser a text before it is admitted:
            // cancelled or not, it is `rejected` or `bad-request`.
            Response::Err(e)
                if matches!(e.code, ErrorCode::Rejected | ErrorCode::BadRequest)
                    && matches!(&case.expected, Expected::Err(code, _) if *code == e.code) => {}
            other => failures.push(format!(
                "{}: pre-cancelled run should trip `cancelled`, got {other:?}",
                case.dataset
            )),
        }
        if let Err(msg) = check_response(case, &handle.submit(&req)) {
            failures.push(format!("after cancellation, {msg}"));
        }
    }

    // Phase 4: telemetry conservation. Every submit above is synchronous,
    // so the service is quiescent here and the accounting identities must
    // hold *exactly* — telemetry that miscounts under concurrency is worse
    // than none.
    let metrics = handle.metrics();
    if metrics.admitted + metrics.rejected + metrics.refused + metrics.deduped != metrics.submitted
    {
        failures.push(format!(
            "telemetry: service conservation broken: admitted {} + rejected {} + refused {} + deduped {} != submitted {}",
            metrics.admitted, metrics.rejected, metrics.refused, metrics.deduped, metrics.submitted
        ));
    }
    if metrics.submitted as usize != requests.load(Ordering::SeqCst) {
        failures.push(format!(
            "telemetry: submitted counter {} disagrees with the {} requests the oracle issued",
            metrics.submitted,
            requests.load(Ordering::SeqCst)
        ));
    }
    let outcomes = metrics.completed + metrics.cancelled + metrics.budget_tripped + metrics.failed;
    if outcomes != metrics.admitted {
        failures.push(format!(
            "telemetry: every admitted request must reach exactly one outcome: \
             admitted {} vs outcomes {outcomes}",
            metrics.admitted
        ));
    }
    for (name, t) in &metrics.tenants {
        if t.admitted + t.rejected + t.refused != t.submitted {
            failures.push(format!(
                "telemetry: tenant {name} conservation broken: \
                 admitted {} + rejected {} + refused {} != submitted {}",
                t.admitted, t.rejected, t.refused, t.submitted
            ));
        }
    }
    let telemetry = handle.telemetry();
    let latency = telemetry.latency_all();
    if latency.count != metrics.admitted {
        failures.push(format!(
            "telemetry: latency histogram saw {} replies for {} admitted requests",
            latency.count, metrics.admitted
        ));
    }
    let events = telemetry.event_stats();
    if events.retained + events.dropped != events.appended {
        failures.push(format!(
            "telemetry: event ring accounting broken: retained {} + dropped {} != appended {}",
            events.retained, events.dropped, events.appended
        ));
    }
    // Every admitted request is admit/dequeue/start/reply, plus one trip
    // event when the reply carries a trip report (cancelled or budget).
    let expected_events = 4 * metrics.admitted + metrics.cancelled + metrics.budget_tripped;
    if events.appended != expected_events {
        failures.push(format!(
            "telemetry: event log saw {} events, lifecycle accounting predicts {expected_events} \
             (admitted {}, cancelled {}, budget {})",
            events.appended, metrics.admitted, metrics.cancelled, metrics.budget_tripped
        ));
    }

    service.shutdown();
    if failures.is_empty() {
        Ok(ServeOracleReport {
            cases: prepared.len(),
            requests: requests.into_inner(),
        })
    } else {
        failures.truncate(10);
        Err(failures.join("\n"))
    }
}

/// The served-vs-direct check over a socket, for answers of any size:
/// `query` (of `kind`) over `doc`, sent through a real [`Server`] once by
/// [`Client::roundtrip`] and once by [`ResilientClient::query`], must come
/// back byte-identical to a fresh single-threaded [`Engine::run`], answer
/// and plan. Returns the answer's length in bytes.
pub fn check_over_the_wire(doc: Document, kind: &str, query: &str) -> Result<usize, String> {
    let parsed = parse_query(kind, query)?;
    let direct = Engine::new()
        .run(&parsed, &doc)
        .map_err(|e| format!("the direct run failed: {e}"))?;
    let (xml, plan) = (direct.output.to_xml_string(), direct.plan);

    let mut catalog = Catalog::new();
    catalog.register("d", doc);
    let mut tenants = TenantRegistry::new();
    tenants.register(TENANTS[0], Envelope::slots(2));
    let service = Service::builder()
        .workers(1)
        .catalog(catalog)
        .tenants(tenants)
        .build();
    let server = Server::bind("127.0.0.1:0", service.handle())
        .map_err(|e| format!("cannot bind a server: {e}"))?;
    let req = Request::new(TENANTS[0], "d", kind, query);
    let mut failures = Vec::new();
    let mut check = |how: &str, resp: Result<Response, String>| match resp {
        Ok(Response::Ok(ok)) if ok.xml == xml && ok.plan == plan => {}
        Ok(Response::Ok(ok)) => failures.push(format!(
            "{how}: the served answer ({} bytes) or plan differs from the direct run's ({} bytes)",
            ok.xml.len(),
            xml.len()
        )),
        Ok(Response::Err(e)) => failures.push(format!("{how}: {}: {}", e.code.name(), e.message)),
        Err(e) => failures.push(format!("{how}: {e}")),
    };
    let plain = Client::connect(server.addr())
        .and_then(|mut client| client.roundtrip(&encode_request(&req)))
        .map_err(|e| e.to_string())
        .and_then(|reply| decode_response(&reply));
    check("Client::roundtrip", plain);
    let mut resilient = ResilientClient::new(server.addr(), RetryPolicy::default());
    check(
        "ResilientClient::query",
        resilient.query(&req).map_err(|e| e.to_string()),
    );
    server.shutdown();
    service.shutdown();
    if failures.is_empty() {
        Ok(xml.len())
    } else {
        Err(failures.join("\n"))
    }
}

/// Convenience entry point: run the oracle over a corpus directory.
pub fn check_corpus_dir(
    dir: &std::path::Path,
    threads: usize,
) -> Result<ServeOracleReport, String> {
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
    check_cases_concurrently(&named, threads)
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
    fn agreeing_cases_pass_and_count() {
        let cases = vec![
            (
                "xp".to_string(),
                case("xpath", "//a", "<r><a/><b><a/></b></r>"),
            ),
            (
                "engine-error".to_string(),
                // XPath parses inside the engine, so a bad expression is
                // an *engine* error — the service must report the
                // identical structured error, not a divergent one.
                case("xpath", "//[", "<r><a/></r>"),
            ),
        ];
        let report = check_cases_concurrently(&cases, 4).expect("oracle passes");
        assert_eq!(report.cases, 2);
        assert!(report.requests >= 2 * STORM_ROUNDS + 2 * 4);
    }

    #[test]
    fn empty_corpus_is_an_error_not_a_vacuous_pass() {
        assert!(check_cases_concurrently(&[], 2).is_err());
        let only_budget = vec![(
            "b".to_string(),
            CorpusCase {
                budget: Some("max-rounds=1".into()),
                ..case("xpath", "//a", "<r><a/></r>")
            },
        )];
        assert!(check_cases_concurrently(&only_budget, 2).is_err());
    }
}
