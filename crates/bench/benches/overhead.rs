//! Tracing overhead, in both states the trace runs in.
//!
//! **Disabled** (`Trace::disabled()`, what a library caller of
//! `Engine::run` gets): every probe is one `Option` branch. Held to a number
//! on the workload the `indexed` bench measures (the two-root deep-equal
//! join over the archive-padded catalog): the join matcher is timed through
//! the public path and through a trace recording into a reused log, the
//! ratio is recorded (`overhead/recorded_ratio`, for trend-watching), and
//! the asserted figure is a *derived* bound immune to run-to-run noise: the
//! number of probe events one traced join fires (read off the log it
//! recorded) times the measured cost of a disabled probe must stay under 2%
//! of the join's run time.
//!
//! **Recording** (`TraceLog::record` into a per-worker log, what
//! `gql-serve` runs for every request): `overhead/profiling_point_ratio/*`
//! is a warm point-sized request — Q1 of each surface against the resident
//! eight-restaurant city guide, run and serialised — traced over untraced,
//! the two timed in alternation and each taken at its least disturbed
//! batch. It is recorded, not judged: on unchanged code it reads 1.03–1.15
//! (EXPERIMENTS.md T3h), and what it would catch — a recording trace that
//! allocates — `profile_alloc.rs` counts exactly. `GQL_BENCH_SAMPLES` scales
//! the first half's effort as usual.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gql_bench::microbench::Criterion;
use gql_bench::suite::{self, Dataset};
use gql_bench::{criterion_group, criterion_main};
use gql_core::{Engine, QueryKind};
use gql_guard::RunCtx;
use gql_ssdm::{DocIndex, Document};
use gql_trace::{Trace, TraceLog};
use gql_xmlgl::builder::{RuleBuilder, C, Q};
use gql_xmlgl::eval::{match_rule_in, JoinPlan};

/// Same shape as the `indexed` bench's dataset: a selective join plus a
/// filler section only scans pay for.
fn dataset(scale: usize) -> Document {
    let mut doc = Document::new();
    let root = doc.add_element(doc.root(), "catalog");
    let products = doc.add_element(root, "products");
    for i in 0..scale {
        let p = doc.add_element(products, "product");
        let v = doc.add_element(p, "vendor");
        if i < 8 {
            doc.add_text(v, &format!("v{i}"));
        } else {
            doc.add_text(v, &format!("u{i}"));
        }
    }
    let directory = doc.add_element(root, "directory");
    for i in 0..8 {
        let v = doc.add_element(directory, "vendor");
        doc.add_text(v, &format!("v{i}"));
    }
    doc
}

fn join_rule() -> gql_xmlgl::ast::Rule {
    RuleBuilder::new()
        .extract(
            Q::elem("product")
                .var("p")
                .child(Q::elem("vendor").var("a")),
        )
        .extract(Q::elem("directory").child(Q::elem("vendor").var("b")))
        .join("a", "b")
        .construct(C::elem("out"))
        .build()
        .expect("rule builds")
}

/// One point-sized request as the service executes it.
fn point_request(engine: &Engine, query: &QueryKind, doc: &Document, trace: &Trace) -> String {
    engine
        .execute(query, doc, RunCtx::traced(trace))
        .expect("suite query runs")
        .output
        .to_xml_string()
}

/// Time `untraced` and `traced` in alternating batches and keep each side's
/// fastest batch: the one a busy neighbour disturbed least.
fn fastest_batches(mut untraced: impl FnMut(), mut traced: impl FnMut()) -> (Duration, Duration) {
    const ROUNDS: usize = 300;
    const BATCH: usize = 100;
    let batch = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        start.elapsed()
    };
    let mut best = (Duration::MAX, Duration::MAX);
    for _ in 0..ROUNDS {
        best.0 = best.0.min(batch(&mut untraced));
        best.1 = best.1.min(batch(&mut traced));
    }
    best
}

fn bench_tracing_overhead(c: &mut Criterion) {
    let scale = 600;
    let doc = dataset(scale);
    let idx = DocIndex::build(&doc);
    let rule = join_rule();
    let plan = JoinPlan::new(&rule, None);
    let mut group = c.benchmark_group("overhead");
    group.sample_size(30);

    let disabled = group.bench_function("join_indexed/disabled", |b| {
        b.iter(|| match_rule_in(&rule, &doc, &idx, &plan, RunCtx::none()))
    });
    let mut log = TraceLog::new();
    let recorded = group.bench_function("join_indexed/recorded", |b| {
        b.iter(|| {
            log.record(|trace| {
                let ctx = RunCtx::traced(trace);
                match_rule_in(&rule, &doc, &idx, &plan, ctx)
            })
        })
    });
    group.record_metric(
        "recorded_ratio",
        recorded.as_secs_f64() / disabled.as_secs_f64(),
        "x",
    );

    // Direct <2% bound. A disabled probe is one branch; its cost times the
    // number of probe *sites fired* per run bounds what instrumentation
    // can possibly add to an untraced run. The log of the last traced join
    // says how many fired; measure the per-probe cost of the disabled
    // handle, and compare the product against the join time.
    let events = log.probes();
    // Batch 1024 probes per timed iteration so the figure stays meaningful
    // even under `GQL_BENCH_SAMPLES=1` (a single probe is below timer
    // resolution).
    const PROBE_BATCH: u32 = 1024;
    let probe = group.bench_function("disabled_probe_x1024", |b| {
        let t = Trace::disabled();
        b.iter(|| {
            for _ in 0..PROBE_BATCH {
                let _s = t.span("x");
                t.count("c", 1);
            }
        })
    }) / PROBE_BATCH;
    let derived = probe.as_secs_f64() * events as f64;
    let derived_pct = 100.0 * derived / disabled.as_secs_f64();
    group.record_metric("probe_events_per_run", events as f64, "events");
    group.record_metric("derived_overhead_pct", derived_pct, "%");

    // The recording state, on the request size where it is largest.
    let city = Dataset::CityGuide.build(8);
    let mut engine = Engine::new();
    engine.preload(&city);
    let q1 = &suite::queries()[0];
    for (surface, query) in q1.engine_queries() {
        let surface = surface.to_lowercase().replace('-', "");
        let mut log = TraceLog::new();
        let (untraced, traced) = fastest_batches(
            || {
                black_box(point_request(&engine, &query, &city, &Trace::disabled()));
            },
            || {
                black_box(log.record(|trace| point_request(&engine, &query, &city, trace)));
            },
        );
        group.record_metric(
            format!("profiling_point_ratio/{surface}"),
            traced.as_secs_f64() / untraced.as_secs_f64(),
            "x",
        );
        group.record_metric(
            format!("point_probe_events/{surface}"),
            log.probes() as f64,
            "events",
        );
    }
    group.finish();

    // The one-branch-when-disabled claim: the derived bound must stay under
    // 2% of the join run. (The measured recorded-vs-disabled ratio of the
    // join is recorded but not asserted — the two runs do nearly identical
    // work, so wall-clock noise between them regularly exceeds the margin
    // under test; the derived bound is immune to that and regresses exactly
    // when a probe starts doing real work while disabled.)
    assert!(
        derived_pct < 2.0,
        "disabled-probe overhead bound is {derived_pct:.2}% of the indexed join \
         ({events} probe events × {probe:?}/probe vs {disabled:?}/run)"
    );
}

criterion_group!(benches, bench_tracing_overhead);
criterion_main!(benches);
