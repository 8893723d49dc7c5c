//! `gql-serve` — run, inspect or smoke-test the multi-tenant query
//! service.
//!
//! ```text
//! Usage: gql-serve serve [--addr HOST:PORT] [--workers N]
//!        gql-serve stat [--addr HOST:PORT] [--view text|counters|report|prometheus]
//!        gql-serve smoke
//!        gql-serve smoke-metrics
//! ```
//!
//! `serve` builds a catalog of the four synthetic datasets (bibliography,
//! cityguide, greengrocer, webgraph), registers a permissive `public`
//! tenant, and serves the length-prefixed JSON protocol until killed.
//!
//! `stat` connects to a running server and prints one rendering of its
//! telemetry plane: the human stat summary (default), the raw cumulative
//! counters, the full JSON report, or the Prometheus text exposition.
//!
//! `smoke` is the CI step: it starts the same service on an ephemeral
//! port, sends a ping, a 3-query batch over two datasets, a
//! deliberately-unknown dataset, a hot reload, a reload nested past the XML
//! reader's bound (then a ping: the server survived it) and every metrics
//! view through a real socket, and prints each response as one JSON line for
//! `tools/check_serve_json.py` to validate. Exit 1 if any query of the
//! batch fails.
//!
//! `smoke-metrics` is the telemetry CI step: it drives a deterministic
//! traffic mix (successes, refusals, rejections, a budget trip, a retried
//! request id) through a service whose slow-query threshold is zero, and
//! prints **two** Prometheus scrapes separated by a `=== scrape ===` marker
//! line so `tools/check_metrics_text.py` can check the exposition grammar,
//! conservation laws and counter monotonicity.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

use gql_guard::Budget;
use gql_serve::json::Value;
use gql_serve::{Catalog, Client, Envelope, Server, Service, TelemetryConfig, TenantRegistry};
use gql_ssdm::generator;

fn usage() -> &'static str {
    "Usage: gql-serve serve [--addr HOST:PORT] [--workers N]\n       gql-serve stat [--addr HOST:PORT] [--view text|counters|report|prometheus]\n       gql-serve smoke\n       gql-serve smoke-metrics"
}

/// The standard demo catalog: every synthetic generator at its default
/// scale, loaded and indexed once at startup.
fn demo_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register("bibliography", generator::bibliography(Default::default()));
    catalog.register("cityguide", generator::cityguide(Default::default()));
    catalog.register("greengrocer", generator::greengrocer(Default::default()));
    catalog.register("webgraph", generator::webgraph(Default::default()));
    catalog
}

/// A permissive public tenant: plenty of slots, per-query caps high
/// enough for every demo query but low enough that a pathological one
/// cannot wedge a worker forever. Plus a `limited` tenant whose zero
/// requests-per-second quota makes `rate_limited` reachable on demand —
/// both for the smoke and for poking a live server by hand.
fn demo_tenants() -> TenantRegistry {
    let mut tenants = TenantRegistry::new();
    tenants.register(
        "public",
        Envelope::slots(64).with_per_query(Budget::unlimited().with_timeout_ms(30_000)),
    );
    tenants.register("limited", Envelope::slots(8).with_requests_per_sec(0));
    tenants
}

fn resolve_addr(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("cannot resolve {addr}: no addresses"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers = 4usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--workers needs a positive integer")?
            }
            other => return Err(format!("unknown flag: {other}\n{}", usage())),
        }
    }
    let service = Service::builder()
        .workers(workers)
        .catalog(demo_catalog())
        .tenants(demo_tenants())
        .build();
    let server =
        Server::bind(&addr, service.handle()).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    eprintln!(
        "gql-serve listening on {} ({} datasets, {} workers)",
        server.addr(),
        service.catalog().len(),
        workers
    );
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

/// `stat`: ask a running server for one rendering of its telemetry.
fn cmd_stat(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut view = "text".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--view" => view = it.next().ok_or("--view needs a name")?.clone(),
            other => return Err(format!("unknown flag: {other}\n{}", usage())),
        }
    }
    let mut client = Client::connect(resolve_addr(&addr)?)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let req = Value::Obj(vec![
        ("op".into(), Value::str("metrics")),
        ("view".into(), Value::str(&view)),
    ]);
    let resp = client
        .roundtrip(&req)
        .map_err(|e| format!("transport error: {e}"))?;
    if resp.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("server refused: {}", resp.render()));
    }
    // Text-shaped views print their string raw; JSON views print JSON.
    match view.as_str() {
        "text" => print!(
            "{}",
            resp.get("stat").and_then(Value::as_str).unwrap_or_default()
        ),
        "prometheus" => print!(
            "{}",
            resp.get("prometheus")
                .and_then(Value::as_str)
                .unwrap_or_default()
        ),
        "counters" => println!(
            "{}",
            resp.get("metrics").map(Value::render).unwrap_or_default()
        ),
        _ => println!(
            "{}",
            resp.get("report").map(Value::render).unwrap_or_default()
        ),
    }
    Ok(())
}

fn cmd_smoke() -> Result<(), String> {
    let service = Service::builder()
        .workers(4)
        .catalog(demo_catalog())
        .tenants(demo_tenants())
        .build();
    let server = Server::bind("127.0.0.1:0", service.handle())
        .map_err(|e| format!("cannot bind ephemeral port: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("cannot connect: {e}"))?;
    let mut failures = 0u32;
    let mut send = |label: &str, req: &str| -> Result<Value, String> {
        let v = Value::parse(req).expect("smoke request literals are valid JSON");
        let resp = client
            .roundtrip(&v)
            .map_err(|e| format!("{label}: transport error: {e}"))?;
        println!("{}", resp.render());
        Ok(resp)
    };
    let ping = send("ping", r#"{"op":"ping"}"#)?;
    if ping.get("pong").and_then(Value::as_bool) != Some(true) {
        failures += 1;
    }
    // The CI batch: three queries, two datasets, all three languages.
    let batch = send(
        "batch",
        r#"{"op":"batch","tenant":"public","items":[
            {"dataset":"bibliography","kind":"xpath","query":"//book/title"},
            {"dataset":"cityguide","kind":"xmlgl","query":"rule { extract { restaurant as $r { name { text as $n } } } construct { out { all $n } } }"},
            {"dataset":"bibliography","kind":"wglog","query":"rule { query { $b: book  $a: author  $b -author-> $a } construct { $l: author-list  $l -member-> $a } } goal author-list"}
        ]}"#,
    )?;
    match batch.get("batch").and_then(Value::as_arr) {
        Some(items) if items.len() == 3 => {
            for (i, item) in items.iter().enumerate() {
                let ok = item.get("ok").and_then(Value::as_bool) == Some(true);
                let nonempty = item
                    .get("result_count")
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
                    > 0;
                if !ok || !nonempty {
                    eprintln!("smoke: batch item {i} failed: {}", item.render());
                    failures += 1;
                }
            }
        }
        _ => {
            eprintln!("smoke: batch response malformed: {}", batch.render());
            failures += 1;
        }
    }
    // Unknown dataset must come back as a structured error, not a hang.
    let unknown = send(
        "unknown-dataset",
        r#"{"op":"query","tenant":"public","dataset":"nope","kind":"xpath","query":"//a"}"#,
    )?;
    if unknown.get("code").and_then(Value::as_str) != Some("unknown-dataset") {
        failures += 1;
    }
    // Hot reload: swap greengrocer for a tiny replacement at epoch 2,
    // then prove the very next query serves the new epoch's content.
    let reload = send(
        "reload",
        r#"{"op":"reload","dataset":"greengrocer","xml":"<shop><item><price>1</price></item></shop>"}"#,
    )?;
    if reload
        .get("reload")
        .and_then(|r| r.get("epoch"))
        .and_then(Value::as_u64)
        != Some(2)
    {
        eprintln!(
            "smoke: reload did not advance to epoch 2: {}",
            reload.render()
        );
        failures += 1;
    }
    let reloaded = send(
        "query-reloaded",
        r#"{"op":"query","tenant":"public","dataset":"greengrocer","kind":"xpath","query":"//price"}"#,
    )?;
    if reloaded.get("epoch").and_then(Value::as_u64) != Some(2)
        || reloaded.get("result_count").and_then(Value::as_u64) != Some(1)
    {
        eprintln!(
            "smoke: post-reload query not on epoch 2: {}",
            reloaded.render()
        );
        failures += 1;
    }
    // A reload nested ten times past the XML reader's bound: a structured
    // refusal from a connection thread on its real stack (a recursive reader
    // overflows it and aborts the process), and the connection lives on.
    let levels = 10 * gql_ssdm::xml::MAX_DEPTH;
    let over_deep = send(
        "reload-over-deep",
        &format!(
            r#"{{"op":"reload","dataset":"greengrocer","xml":"{}{}"}}"#,
            "<n>".repeat(levels),
            "</n>".repeat(levels)
        ),
    )?;
    let message = over_deep.get("message").and_then(Value::as_str);
    if over_deep.get("code").and_then(Value::as_str) != Some("bad-request")
        || !message.is_some_and(|m| m.contains("nested deeper than"))
    {
        eprintln!(
            "smoke: over-deep reload not refused by the nesting bound: {}",
            over_deep.render()
        );
        failures += 1;
    }
    let alive = send("ping-after-over-deep", r#"{"op":"ping"}"#)?;
    if alive.get("pong").and_then(Value::as_bool) != Some(true) {
        failures += 1;
    }
    // The zero-quota tenant: deterministically rate_limited with a
    // bounded retry hint.
    let limited = send(
        "rate-limited",
        r#"{"op":"query","tenant":"limited","dataset":"bibliography","kind":"xpath","query":"//book/title"}"#,
    )?;
    let hint = limited.get("retry_after_ms").and_then(Value::as_u64);
    if limited.get("code").and_then(Value::as_str) != Some("rate_limited")
        || !matches!(hint, Some(1..=1000))
    {
        eprintln!("smoke: rate-limited reply malformed: {}", limited.render());
        failures += 1;
    }
    let metrics = send("metrics", r#"{"op":"metrics"}"#)?;
    let completed = metrics
        .get("metrics")
        .and_then(|m| m.get("completed"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if completed < 3 {
        eprintln!("smoke: expected ≥3 completed queries, saw {completed}");
        failures += 1;
    }
    // The telemetry report view: the latency histogram must have seen
    // every admitted request.
    let report = send("metrics-report", r#"{"op":"metrics","view":"report"}"#)?;
    let histo_count = report
        .get("report")
        .and_then(|r| r.get("latency_all"))
        .and_then(|l| l.get("count"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if histo_count < 3 {
        eprintln!("smoke: expected ≥3 latency samples in the report, saw {histo_count}");
        failures += 1;
    }
    // The Prometheus exposition as one string field.
    let prom = send(
        "metrics-prometheus",
        r#"{"op":"metrics","view":"prometheus"}"#,
    )?;
    let text = prom
        .get("prometheus")
        .and_then(Value::as_str)
        .unwrap_or_default();
    if !text.contains("gql_requests_total") {
        eprintln!("smoke: prometheus exposition missing gql_requests_total");
        failures += 1;
    }
    // An unknown view must be a structured bad-request, not a hang.
    let bad_view = send("metrics-bad-view", r#"{"op":"metrics","view":"warp"}"#)?;
    if bad_view.get("code").and_then(Value::as_str) != Some("bad-request") {
        failures += 1;
    }
    server.shutdown();
    service.shutdown();
    if failures > 0 {
        return Err(format!("smoke: {failures} check(s) failed"));
    }
    Ok(())
}

/// The `smoke-metrics` tenant roster: a permissive tenant, a zero-slot
/// tenant (every submission is deterministically rejected) and a tenant
/// whose per-query budget trips on any multi-match query.
fn metrics_smoke_tenants() -> TenantRegistry {
    let mut tenants = TenantRegistry::new();
    tenants.register(
        "public",
        Envelope::slots(64).with_per_query(Budget::unlimited().with_timeout_ms(30_000)),
    );
    tenants.register("cap0", Envelope::slots(0));
    tenants.register(
        "strict",
        Envelope::slots(4).with_per_query(Budget::unlimited().with_max_matches(1)),
    );
    tenants
}

/// Drive one deterministic round of mixed traffic: two successes, an
/// unknown-dataset refusal, an unknown-tenant refusal, a zero-slot
/// rejection, a budget trip, and one request id sent twice (the first
/// round runs it once and replays it once; later rounds replay both). A
/// transport-level failure is the error (the *application* outcomes are
/// intentionally mixed).
fn metrics_smoke_round(client: &mut Client) -> Result<(), String> {
    let traffic: &[(&str, &str)] = &[
        (
            "ok-bibliography",
            r#"{"op":"query","tenant":"public","dataset":"bibliography","kind":"xpath","query":"//book/title"}"#,
        ),
        (
            "ok-cityguide",
            r#"{"op":"query","tenant":"public","dataset":"cityguide","kind":"xpath","query":"//restaurant/name"}"#,
        ),
        (
            "refused-unknown-dataset",
            r#"{"op":"query","tenant":"public","dataset":"nope","kind":"xpath","query":"//a"}"#,
        ),
        (
            "refused-unknown-tenant",
            r#"{"op":"query","tenant":"ghost","dataset":"bibliography","kind":"xpath","query":"//a"}"#,
        ),
        (
            "rejected-zero-slots",
            r#"{"op":"query","tenant":"cap0","dataset":"bibliography","kind":"xpath","query":"//book/title"}"#,
        ),
        (
            "budget-trip",
            r#"{"op":"query","tenant":"strict","dataset":"bibliography","kind":"xpath","query":"//book/title"}"#,
        ),
        (
            "idempotent",
            r#"{"op":"query","tenant":"public","dataset":"bibliography","kind":"xpath","query":"//book/year","request_id":"smoke-1"}"#,
        ),
        (
            "deduped-retry",
            r#"{"op":"query","tenant":"public","dataset":"bibliography","kind":"xpath","query":"//book/year","request_id":"smoke-1"}"#,
        ),
    ];
    for (label, req) in traffic {
        let v = Value::parse(req).expect("smoke request literals are valid JSON");
        client
            .roundtrip(&v)
            .map_err(|e| format!("{label}: transport error: {e}"))?;
    }
    Ok(())
}

fn cmd_smoke_metrics() -> Result<(), String> {
    let service = Service::builder()
        .workers(4)
        .catalog(demo_catalog())
        .tenants(metrics_smoke_tenants())
        // Threshold zero: every completed query qualifies for the slow
        // log, so the budget trip's capture is deterministic.
        .telemetry(TelemetryConfig::default().with_slow_threshold_us(0))
        .build();
    let server = Server::bind("127.0.0.1:0", service.handle())
        .map_err(|e| format!("cannot bind ephemeral port: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("cannot connect: {e}"))?;
    let scrape = |client: &mut Client| -> Result<String, String> {
        let req = Value::parse(r#"{"op":"metrics","view":"prometheus"}"#).unwrap();
        let resp = client
            .roundtrip(&req)
            .map_err(|e| format!("scrape: transport error: {e}"))?;
        resp.get("prometheus")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("scrape: malformed response: {}", resp.render()))
    };

    metrics_smoke_round(&mut client)?;
    let first = scrape(&mut client)?;
    print!("{first}");
    println!("=== scrape ===");
    metrics_smoke_round(&mut client)?;
    metrics_smoke_round(&mut client)?;
    let second = scrape(&mut client)?;
    print!("{second}");

    // Belt-and-braces beyond what check_metrics_text.py validates: the
    // budget trip must have landed in the slow log with its trip report.
    let report = service.handle().metrics_report();
    let slow = report.to_value();
    let captured = slow
        .get("slow")
        .and_then(|s| s.get("captured"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    server.shutdown();
    service.shutdown();
    if captured == 0 {
        return Err("smoke-metrics: no slow-query captures recorded".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("stat") => cmd_stat(&args[1..]),
        Some("smoke") if args.len() == 1 => cmd_smoke(),
        Some("smoke-metrics") if args.len() == 1 => cmd_smoke_metrics(),
        _ => Err(usage().to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(if msg.starts_with("Usage:") { 2 } else { 1 })
        }
    }
}
