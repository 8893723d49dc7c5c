//! The corpus-replay load bench: the full workload (regression corpus +
//! paper datasets + seeded generated mix) replayed through the in-process
//! service at 1, 8 and 64 submitters, reporting throughput, p50/p95/p99
//! latency and plan/index cache hit rates into `BENCH_results.json`.
//!
//! CI holds `serve_load/scale_64v1 ≥ 0.75` (a thread-pooled service must
//! not get markedly *slower* with more clients) and checks the
//! `serve_load/w8` percentile rows exist and are ordered via
//! `tools/check_bench_json.py --percentiles`.
//!
//! The reload-under-load scenario replays the same workload at 8
//! submitters while a reloader thread hot-swaps the `greengrocer` epoch
//! for the whole timed window; CI holds
//! `serve_load/reload_p99_vs_steady ≤ 2` — an epoch swap may cost a
//! short write-lock stall, never a latency cliff.

use gql_bench::microbench::Criterion;
use gql_bench::serve_load::{build_workload, default_corpus_dir, run_load, run_load_reloading};
use gql_bench::{criterion_group, criterion_main};

/// Requests per scenario: enough for stable percentiles and to amortize
/// scheduling noise at high worker counts, scaled down for smoke runs via
/// `GQL_BENCH_SAMPLES=1`. The same count is used at every worker count so
/// the throughput rows stay comparable.
fn requests_per_run() -> u64 {
    let samples: u64 = std::env::var("GQL_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    (samples.clamp(1, 10) * 160).max(64 * 20)
}

fn bench_serve_load(c: &mut Criterion) {
    let group = c.benchmark_group("serve_load");
    let requests = requests_per_run();
    let mut throughput = std::collections::BTreeMap::new();
    let mut steady_p99 = 0u64;
    for workers in [1usize, 8, 64] {
        let (catalog, items) = build_workload(&default_corpus_dir()).expect("workload builds");
        let report = run_load(catalog, &items, workers, requests);
        assert_eq!(report.ok + report.errors, report.requests);
        group.record_metric(
            format!("throughput/w{workers}"),
            report.throughput_rps,
            "req/s",
        );
        throughput.insert(workers, report.throughput_rps);
        if workers == 8 {
            group.record_metric("w8/p50", report.p50_ns as f64, "ns");
            group.record_metric("w8/p95", report.p95_ns as f64, "ns");
            group.record_metric("w8/p99", report.p99_ns as f64, "ns");
            group.record_metric("plan_hit_rate", report.plan_hit_rate, "ratio");
            group.record_metric("index_hit_rate", report.index_hit_rate, "ratio");
            steady_p99 = report.p99_ns;
        }
    }
    // The CI sanity bar: more submitters must never make the service
    // slower than a single sequential client.
    group.record_metric("scale_64v1", throughput[&64] / throughput[&1], "ratio");

    // Reload-under-load: same workload and submitter count as the w8
    // steady row, with the greengrocer epoch hot-swapped throughout.
    let (catalog, items) = build_workload(&default_corpus_dir()).expect("workload builds");
    let report = run_load_reloading(catalog, &items, 8, requests, "greengrocer");
    assert_eq!(report.ok + report.errors, report.requests);
    assert!(
        report.reloads >= 1,
        "reloader never fired during the window"
    );
    group.record_metric("reload/p99", report.p99_ns as f64, "ns");
    group.record_metric("reload/swaps", report.reloads as f64, "count");
    group.record_metric(
        "reload_p99_vs_steady",
        report.p99_ns as f64 / (steady_p99 as f64).max(1.0),
        "ratio",
    );
    group.finish();
}

criterion_group!(benches, bench_serve_load);
criterion_main!(benches);
