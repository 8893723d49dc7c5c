//! The corpus-replay load driver behind `benches/serve_load.rs` and the
//! `gql-serve-load` binary.
//!
//! A workload is the regression corpus (budget-bearing cases excluded)
//! plus a deterministic generated mix — per-dataset queries over the four
//! paper datasets and seeded cross-engine [`Intent`]s over generated
//! documents — replayed through an in-process [`ServeHandle`](gql_serve::ServeHandle) at a
//! configurable worker count. The driver records every request's wall
//! latency into a shared lock-free [`Histo`] (the same log-linear
//! histogram the service's telemetry plane uses, so the reported
//! percentiles carry the same ≤[`Histo::MAX_RELATIVE_ERROR`] bound) and
//! reads the service's trace-derived warm/cold counters back as
//! plan/index cache hit rates. In-process on purpose: the socket adds
//! nondeterministic batching the latency distribution shouldn't inherit
//! (the TCP path has its own smoke coverage in CI).
//!
//! [`Intent`]: gql_testkit::generators::Intent

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gql_metrics::Histo;
use gql_serve::{Catalog, Envelope, Request, Service, TelemetryConfig, TenantRegistry};
use gql_ssdm::generator;
use gql_testkit::generators;
use gql_testkit::harness::case_rng;

/// One request the load loop replays.
#[derive(Debug, Clone)]
pub struct WorkItem {
    pub dataset: String,
    pub kind: String,
    pub query: String,
}

/// The tenant every load request runs as.
const TENANT: &str = "load";

/// Seeded [`Intent`]s and documents mixed into the corpus replay.
const GENERATED_DOCS: u64 = 6;

/// Build the catalog + work list: every replayable corpus case, canned
/// queries over the four paper datasets, and seeded generated pairs.
pub fn build_workload(corpus_dir: &Path) -> Result<(Catalog, Vec<WorkItem>), String> {
    let mut catalog = Catalog::new();
    let mut items = Vec::new();

    // The regression corpus, replayed against the service verbatim.
    for (path, case) in gql_testkit::corpus::load_dir(corpus_dir)? {
        if case.budget.is_some() {
            continue; // pathological by construction
        }
        let Ok(kind) = case.query_kind() else {
            continue;
        };
        let name = format!(
            "corpus-{}",
            path.file_stem()
                .map(|s| s.to_string_lossy())
                .unwrap_or_default()
        );
        let Some(doc) = gql_testkit::oracle::normalize(&case.doc) else {
            continue;
        };
        catalog.register(&name, doc);
        let (kind, query) = match kind {
            gql_core::QueryKind::XmlGl(_) => ("xmlgl", case.query.clone()),
            gql_core::QueryKind::WgLog(_) => ("wglog", case.query.clone()),
            gql_core::QueryKind::XPath(x) => ("xpath", x),
        };
        items.push(WorkItem {
            dataset: name,
            kind: kind.into(),
            query,
        });
    }

    // The paper datasets under representative queries in all three
    // languages — the steady-state "many clients, few datasets" shape the
    // catalog is built for.
    catalog.register("bibliography", generator::bibliography(Default::default()));
    catalog.register("cityguide", generator::cityguide(Default::default()));
    catalog.register("greengrocer", generator::greengrocer(Default::default()));
    catalog.register("webgraph", generator::webgraph(Default::default()));
    let canned: &[(&str, &str, &str)] = &[
        ("bibliography", "xpath", "//book/title"),
        ("bibliography", "xpath", "//book[year]"),
        (
            "bibliography",
            "wglog",
            "rule { query { $b: book  $a: author  $b -author-> $a } \
             construct { $l: author-list  $l -member-> $a } } goal author-list",
        ),
        (
            "cityguide",
            "xmlgl",
            "rule { query { $r: restaurant  $n: name  $r -> $n } \
             construct { $out: result  $out -> $n } }",
        ),
        ("cityguide", "xpath", "//restaurant/name"),
        ("greengrocer", "xpath", "//price"),
        ("webgraph", "xpath", "//page"),
    ];
    for (dataset, kind, query) in canned {
        items.push(WorkItem {
            dataset: (*dataset).into(),
            kind: (*kind).into(),
            query: (*query).into(),
        });
    }

    // Seeded generated mix: a fresh document per seed, queried through a
    // cross-engine Intent in both of its lowerings plus a raw generated
    // XPath. Deterministic by seed, so every run replays the same load.
    for seed in 0..GENERATED_DOCS {
        let mut rng = case_rng(0x10ad ^ seed);
        let name = format!("gen-{seed}");
        catalog.register(&name, generators::document(&mut rng));
        let intent = generators::Intent::gen(&mut rng);
        items.push(WorkItem {
            dataset: name.clone(),
            kind: "xpath".into(),
            query: intent.xpath(),
        });
        items.push(WorkItem {
            dataset: name.clone(),
            kind: "xmlgl".into(),
            query: intent.xmlgl(),
        });
        items.push(WorkItem {
            dataset: name,
            kind: "xpath".into(),
            query: generators::gen_xpath(&mut rng),
        });
    }
    Ok((catalog, items))
}

/// One load run's reduced measurements.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub workers: usize,
    pub requests: u64,
    pub ok: u64,
    pub errors: u64,
    pub wall: Duration,
    /// Requests per second over the whole run.
    pub throughput_rps: f64,
    /// Latency percentiles over every request, in nanoseconds —
    /// nearest-rank reduced from the shared [`Histo`], so each is the
    /// true order statistic within [`Histo::MAX_RELATIVE_ERROR`].
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// Plan-cache and index-cache hit rates observed through the service's
    /// trace-derived counters (warm / (warm + cold)).
    pub plan_hit_rate: f64,
    pub index_hit_rate: f64,
    /// Telemetry probe firings inside the service over the timed window
    /// (0 when the plane is disabled) — the multiplier the overhead bench
    /// uses to derive its disabled-cost bound.
    pub telemetry_probes: u64,
    /// Hot catalog reloads completed during the timed window (0 unless the
    /// run came from [`run_load_reloading`]).
    pub reloads: u64,
}

/// Replay `items` round-robin for `total_requests` across `workers`
/// concurrent submitter threads against a fresh service. The submitter
/// count models client concurrency; the service's own pool is sized to the
/// machine (as a deployment would be), with the tenant envelope wide
/// enough that admission never rejects — the measurement is execution
/// plus queueing latency, which is what a loaded service actually serves.
///
/// The timed window measures warm steady state: every item is replayed
/// once untimed first (planting plan-cache entries and paging the resident
/// indexes), and all submitter threads gate on a barrier so thread spawn
/// cost never leaks into the wall clock.
pub fn run_load(
    catalog: Catalog,
    items: &[WorkItem],
    workers: usize,
    total_requests: u64,
) -> LoadReport {
    run_load_with(
        catalog,
        items,
        workers,
        total_requests,
        TelemetryConfig::default(),
    )
}

/// [`run_load`] with an explicit telemetry configuration — the overhead
/// bench runs the identical workload with the plane disabled and enabled
/// to bound what telemetry costs the hot path.
pub fn run_load_with(
    catalog: Catalog,
    items: &[WorkItem],
    workers: usize,
    total_requests: u64,
    telemetry: TelemetryConfig,
) -> LoadReport {
    run_load_inner(catalog, items, workers, total_requests, telemetry, None)
}

/// [`run_load`] with a reloader thread hot-swapping `reload_dataset`
/// throughout the timed window — the epoch-swap latency scenario. The
/// dataset must be one of the four paper datasets (they regenerate
/// deterministically, so every swapped epoch serves identical content and
/// the measured cost is purely the swap, not a workload change). The
/// returned p99 therefore bounds what a client sees *during* reloads; CI
/// holds it within 2x the steady-state p99.
pub fn run_load_reloading(
    catalog: Catalog,
    items: &[WorkItem],
    workers: usize,
    total_requests: u64,
    reload_dataset: &str,
) -> LoadReport {
    assert!(
        regenerate(reload_dataset).is_some(),
        "reload scenario only regenerates the paper datasets, not {reload_dataset:?}"
    );
    run_load_inner(
        catalog,
        items,
        workers,
        total_requests,
        TelemetryConfig::default(),
        Some(reload_dataset),
    )
}

/// Rebuild one paper dataset's document from its deterministic generator.
fn regenerate(name: &str) -> Option<gql_ssdm::Document> {
    Some(match name {
        "bibliography" => generator::bibliography(Default::default()),
        "cityguide" => generator::cityguide(Default::default()),
        "greengrocer" => generator::greengrocer(Default::default()),
        "webgraph" => generator::webgraph(Default::default()),
        _ => return None,
    })
}

fn run_load_inner(
    catalog: Catalog,
    items: &[WorkItem],
    workers: usize,
    total_requests: u64,
    telemetry: TelemetryConfig,
    reload_dataset: Option<&str>,
) -> LoadReport {
    assert!(!items.is_empty(), "empty workload");
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let pool = workers.min(cores * 4).max(1);
    let mut tenants = TenantRegistry::new();
    tenants.register(TENANT, Envelope::slots(workers as u64 * 2));
    let service = Service::builder()
        .workers(pool)
        .catalog(catalog)
        .tenants(tenants)
        .telemetry(telemetry)
        .build();
    let handle = service.handle();

    // Untimed warm-up: one pass over the unique work list.
    for item in items {
        let _ = handle.submit(&Request::new(
            TENANT,
            &item.dataset,
            &item.kind,
            &item.query,
        ));
    }
    let warmup_metrics = handle.metrics();
    let warmup_probes = handle.telemetry().probes();

    let barrier = std::sync::Barrier::new(workers + 1);
    let next = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let latencies = Histo::new();
    let mut wall = Duration::ZERO;
    let storm_done = std::sync::atomic::AtomicBool::new(false);
    let reloads = AtomicU64::new(0);
    std::thread::scope(|s| {
        // The epoch-swap scenario: one reloader thread hot-swaps the
        // chosen dataset for the whole timed window while submitters
        // storm it, so the measured percentiles include requests that
        // straddle swaps and drain old epochs.
        if let Some(name) = reload_dataset {
            let handle = handle.clone();
            let (storm_done, reloads) = (&storm_done, &reloads);
            s.spawn(move || {
                while !storm_done.load(Ordering::Acquire) {
                    let doc = regenerate(name).expect("regenerable dataset");
                    handle
                        .catalog()
                        .reload(name, doc)
                        .expect("reload of a registered dataset");
                    reloads.fetch_add(1, Ordering::Relaxed);
                    handle.catalog().reap_retired();
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        let submitters: Vec<_> = (0..workers)
            .map(|_| {
                let handle = handle.clone();
                let (barrier, next, ok, errors, latencies) =
                    (&barrier, &next, &ok, &errors, &latencies);
                s.spawn(move || {
                    barrier.wait();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total_requests {
                            return;
                        }
                        let item = &items[i as usize % items.len()];
                        let req = Request::new(TENANT, &item.dataset, &item.kind, &item.query);
                        let t0 = Instant::now();
                        let resp = handle.submit(&req);
                        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                        latencies.record(ns);
                        if resp.is_ok() {
                            ok.fetch_add(1, Ordering::Relaxed);
                        } else {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for t in submitters {
            t.join().expect("submitter thread");
        }
        wall = start.elapsed();
        storm_done.store(true, Ordering::Release);
    });
    // Drain: with the storm over every pinned epoch must release, so the
    // retired list reaps to empty (bounded wait — a leak would hang CI).
    if reload_dataset.is_some() {
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.catalog().draining() > 0 {
            handle.catalog().reap_retired();
            assert!(Instant::now() < deadline, "retired epochs failed to drain");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let metrics = handle.metrics();
    let probes = handle.telemetry().probes();
    service.shutdown();

    let latency = latencies.snapshot();
    // Hit rates over the timed window only (warm-up traffic subtracted).
    let rate = |warm: u64, cold: u64| {
        if warm + cold == 0 {
            0.0
        } else {
            warm as f64 / (warm + cold) as f64
        }
    };
    LoadReport {
        workers,
        requests: total_requests,
        ok: ok.into_inner(),
        errors: errors.into_inner(),
        wall,
        throughput_rps: total_requests as f64 / wall.as_secs_f64().max(1e-9),
        p50_ns: latency.p50(),
        p95_ns: latency.p95(),
        p99_ns: latency.p99(),
        plan_hit_rate: rate(
            metrics.plan_warm - warmup_metrics.plan_warm,
            metrics.plan_cold - warmup_metrics.plan_cold,
        ),
        index_hit_rate: rate(
            metrics.index_warm - warmup_metrics.index_warm,
            metrics.index_cold - warmup_metrics.index_cold,
        ),
        telemetry_probes: probes - warmup_probes,
        reloads: reloads.into_inner(),
    }
}

/// The workspace corpus directory (the load driver and bench both run from
/// inside the workspace).
pub fn default_corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds_and_replays_mostly_ok() {
        let (catalog, items) = build_workload(&default_corpus_dir()).expect("workload builds");
        assert!(items.len() >= 20, "got {} items", items.len());
        let report = run_load(catalog, &items, 4, items.len() as u64 * 2);
        assert_eq!(report.ok + report.errors, report.requests);
        // The corpus and canned queries dominate; generated intents may
        // reject, but the bulk of the mix must answer ok.
        assert!(
            report.ok * 2 > report.requests,
            "ok {} of {}",
            report.ok,
            report.requests
        );
        assert!(report.p50_ns <= report.p95_ns && report.p95_ns <= report.p99_ns);
        assert!(report.throughput_rps > 0.0);
        // Every item replays at least twice, so plans must be warming.
        assert!(report.plan_hit_rate > 0.0);
        // Telemetry defaults on: the service fired probes for this load.
        assert!(report.telemetry_probes > 0);
    }

    #[test]
    fn reload_scenario_swaps_epochs_and_drains() {
        let (catalog, items) = build_workload(&default_corpus_dir()).expect("workload builds");
        let report = run_load_reloading(catalog, &items, 4, items.len() as u64, "greengrocer");
        assert_eq!(report.ok + report.errors, report.requests);
        assert!(report.reloads >= 1, "reloader never fired");
        // run_load_inner's bounded drain already asserted no epoch leaked.
    }

    #[test]
    fn disabled_telemetry_fires_no_probes() {
        let (catalog, items) = build_workload(&default_corpus_dir()).expect("workload builds");
        let n = items.len() as u64;
        let report = run_load_with(catalog, &items, 2, n, TelemetryConfig::disabled());
        assert_eq!(report.ok + report.errors, report.requests);
        assert_eq!(report.telemetry_probes, 0);
    }

    /// Exact nearest-rank percentile over a sorted slice — the oracle the
    /// histogram reduction is checked against.
    fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    /// Property: for seeded value streams spanning exact buckets through
    /// wide octaves, every histogram percentile brackets the true
    /// nearest-rank order statistic from above within one bucket's
    /// relative error — the contract the load report's p50/p95/p99 now
    /// rely on.
    #[test]
    fn histo_percentiles_track_exact_nearest_rank() {
        for seed in 0u64..8 {
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (seed + 1);
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let h = Histo::new();
            let mut values = Vec::new();
            for i in 0..2000u64 {
                // Mix exact small values with log-distributed large ones.
                let v = match i % 3 {
                    0 => next() % 16,
                    1 => next() % 10_000,
                    _ => next() % 1_000_000_000,
                };
                h.record(v);
                values.push(v);
            }
            values.sort_unstable();
            let snap = h.snapshot();
            assert_eq!(snap.count, values.len() as u64);
            for p in [0.10, 0.50, 0.90, 0.95, 0.99, 1.0] {
                let exact = exact_percentile(&values, p);
                let approx = snap.percentile(p);
                assert!(
                    approx >= exact,
                    "seed {seed} p{p}: approx {approx} below exact {exact}"
                );
                let bound = exact as f64 * (1.0 + Histo::MAX_RELATIVE_ERROR) + 1.0;
                assert!(
                    (approx as f64) <= bound,
                    "seed {seed} p{p}: approx {approx} exceeds {bound} (exact {exact})"
                );
            }
        }
    }
}
