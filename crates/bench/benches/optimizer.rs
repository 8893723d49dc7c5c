//! Experiment T5 / design-choice D2, on the code that runs: the matcher's
//! declaration-order root joins vs the cost-based order from `gql-plan`
//! against the full enumeration of root orders, and the engine's plan-cache
//! warm/cold phase timings.

use gql_bench::microbench::{BenchmarkId, Criterion};
use gql_bench::suite::Dataset;
use gql_bench::{criterion_group, criterion_main};
use gql_core::{Engine, QueryKind};
use gql_guard::RunCtx;
use gql_ssdm::{DocIndex, Summary};
use gql_trace::ExecutionProfile;
use gql_xmlgl::eval::{match_rule_in, JoinPlan};

/// All permutations of `0..k` (the full join-order search space for a
/// `k`-root rule; only used for tiny `k`).
fn permutations(k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..k).collect();
    fn heap(items: &mut Vec<usize>, n: usize, out: &mut Vec<Vec<usize>>) {
        if n <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..n {
            heap(items, n - 1, out);
            if n.is_multiple_of(2) {
                items.swap(i, n - 1);
            } else {
                items.swap(0, n - 1);
            }
        }
    }
    heap(&mut items, k, &mut out);
    out
}

/// Nanoseconds a profiled run spent in its plan-related phases
/// (`analyze` + `plan`) — the cost a cache hit avoids.
fn plan_phase_nanos(profile: &ExecutionProfile) -> u128 {
    let run = profile.find("run").expect("run span");
    run.find("analyze").map_or(0, |s| s.nanos) + run.find("plan").map_or(0, |s| s.nanos)
}

fn bench_q6(c: &mut Criterion) {
    let mut group = c.benchmark_group("t5_q6_join_plans");
    group.sample_size(10);
    let program = gql_xmlgl::dsl::parse(
        r#"rule { extract {
                    product as $p { vendor { text as $v1 } }
                    vendor as $w { country { text = "holland" }
                                   name { text as $v2 } }
                    join $v1 == $v2 }
                  construct { answer { all $p } } }"#,
    )
    .expect("Q6 parses");
    for scale in [200usize, 800, 3200] {
        let doc = Dataset::Greengrocer.build(scale);
        // Q6's declaration order combines the bulky `product` root first;
        // `gql-plan`'s cost-based order starts from the country-filtered
        // `vendor` root instead. Results are guaranteed identical — only
        // intermediate join sizes differ.
        let rule = &program.rules[0];
        let idx = DocIndex::build(&doc);
        let summary = Summary::from_index(&doc, &idx);
        let inference = gql_infer::infer_xmlgl(&program, &summary);
        let cost_order = gql_plan::plan_rule_order(rule, &inference.root_bounds[0])
            .expect("Q6 has a reorderable multi-root extract");
        let matched = |doc: &gql_ssdm::Document, order: Option<&[usize]>| {
            match_rule_in(rule, doc, &idx, &JoinPlan::new(rule, order), RunCtx::none())
        };
        assert_eq!(
            matched(&doc, None),
            matched(&doc, Some(&cost_order)),
            "plans must not change results"
        );
        group.bench_with_input(BenchmarkId::new("declared-order", scale), &doc, |b, doc| {
            b.iter(|| matched(doc, None))
        });

        // The cost-based order against the *full* enumeration of root
        // orders; `cost_planned_vs_best` is their ratio, for information
        // (that the planner returns its cost model's cheapest order is held
        // by `gql_plan::join_order`'s unit tests, not by this clock).
        let planned_mean =
            group.bench_with_input(BenchmarkId::new("cost-planned", scale), &doc, |b, doc| {
                b.iter(|| matched(doc, Some(&cost_order)))
            });
        let mut best: Option<std::time::Duration> = None;
        for enumerated in permutations(rule.extract.roots.len()) {
            let label = format!(
                "enumerated-{}",
                enumerated
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join("-")
            );
            let mean = group.bench_with_input(BenchmarkId::new(label, scale), &doc, |b, doc| {
                b.iter(|| matched(doc, Some(&enumerated)))
            });
            best = Some(best.map_or(mean, |b| b.min(mean)));
        }
        let best = best.expect("at least one enumerated order");
        group.record_metric(
            BenchmarkId::new("cost_planned_vs_best", scale),
            planned_mean.as_nanos() as f64 / best.as_nanos().max(1) as f64,
            "x",
        );
    }
    group.finish();
}

/// Plan-cache effect on the plan phase: cold runs pay summary inference,
/// join-order enumeration and lowering; warm runs pay a keyed lookup. The
/// `plan_warm_speedup` metric (cold / warm plan-phase nanoseconds, from
/// trace phase timings) is the acceptance figure: ≥ 5× on a hit.
fn bench_plan_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("t5_q6_join_plans");
    group.sample_size(10);
    let program = gql_xmlgl::dsl::parse(
        r#"rule { extract {
                    product as $p { vendor { text as $v1 } }
                    vendor as $w { country { text = "holland" }
                                   name { text as $v2 } }
                    join $v1 == $v2 }
                  construct { answer { all $p } } }"#,
    )
    .expect("Q6 parses");
    let samples: usize = std::env::var("GQL_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    for scale in [200usize, 800, 3200] {
        let doc = Dataset::Greengrocer.build(scale);
        let q = QueryKind::XmlGl(program.clone());
        // Cold: a fresh engine per run, so every plan phase misses.
        let mut cold_total = 0u128;
        for _ in 0..samples {
            let engine = Engine::new();
            let profile = engine
                .run_profiled(&q, &doc)
                .expect("Q6 runs")
                .profile
                .expect("profiled");
            cold_total += plan_phase_nanos(&profile);
        }
        // Warm: one engine with the cache primed, so every plan phase hits.
        let engine = Engine::new();
        engine.run(&q, &doc).expect("priming run");
        let mut warm_total = 0u128;
        for _ in 0..samples {
            let profile = engine
                .run_profiled(&q, &doc)
                .expect("Q6 runs")
                .profile
                .expect("profiled");
            warm_total += plan_phase_nanos(&profile);
        }
        let stats = engine.plan_cache_stats();
        assert_eq!(stats.misses, 1, "only the priming run may miss");
        assert_eq!(stats.hits as usize, samples, "warm runs must all hit");
        let cold = cold_total as f64 / samples as f64;
        let warm = (warm_total as f64 / samples as f64).max(1.0);
        group.record_metric(BenchmarkId::new("plan_phase_cold_ns", scale), cold, "ns");
        group.record_metric(BenchmarkId::new("plan_phase_warm_ns", scale), warm, "ns");
        group.record_metric(
            BenchmarkId::new("plan_warm_speedup", scale),
            cold / warm,
            "x",
        );
    }
    group.finish();
}

criterion_group!(benches, bench_q6, bench_plan_cache);
criterion_main!(benches);
