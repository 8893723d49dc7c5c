//! `gql-serve` — run or inspect the multi-tenant query service.
//!
//! ```text
//! Usage: gql-serve serve [--addr HOST:PORT] [--workers N]
//!        gql-serve stat [--addr HOST:PORT] [--view text|counters|report|prometheus]
//!
//!   --workers N  run slots: how many queries run at once (default 4)
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
//! The binary checks nothing about itself. What the wire protocol answers
//! is held by `tests/protocol.rs` (every reply through the client's own
//! codec), what the telemetry views print by `tests/metrics_views.rs`, and
//! this command line by `tests/cli.rs`.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

use gql_guard::Budget;
use gql_serve::json::Value;
use gql_serve::{Catalog, Client, Envelope, Server, Service, TenantRegistry};
use gql_ssdm::generator;

fn usage() -> &'static str {
    "Usage: gql-serve serve [--addr HOST:PORT] [--workers N]\n       gql-serve stat [--addr HOST:PORT] [--view text|counters|report|prometheus]\n\n  --workers N  run slots: how many queries run at once (default 4)"
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
/// cannot hold a run slot forever. Plus a `limited` tenant whose zero
/// requests-per-second quota makes `rate_limited` reachable on demand when
/// poking a live server by hand.
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
        "gql-serve listening on {} ({} datasets, {} run slots)",
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("stat") => cmd_stat(&args[1..]),
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
