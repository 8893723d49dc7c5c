//! Guard (resource-governance) overhead, on both guards a run can have.
//!
//! * The disabled guard, `Guard::unlimited()` — what a direct run with no
//!   budget gets from `RunCtx::none()` — promises to be free: every probe
//!   is one `Option` discriminant branch. It is held to that on the
//!   indexed join the `indexed` and `overhead` benches measure (the
//!   selective vendor join over the archive-padded catalog), beside the
//!   same join under an enabled but unlimited guard.
//! * The enabled guard, `Guard::with_cancel` — what every request the
//!   query service serves runs under — promises to be cheap: a probe is a
//!   few loads and stores on cells the run owns, and one relaxed load of
//!   the cancel flag. It is held to that on an XML-GL extract of over a
//!   thousand rows, Q8's `menu`/`price` pattern over the city guide at
//!   scale 1000, where a probe fires per pattern node and per row; once
//!   with no deadline, as the benchmark's tenants run, and once under the
//!   30 s timeout `gql-serve` gives every request, whose clock a probe
//!   reads only every `DEADLINE_CADENCE`-th time.
//!
//! Both asserted figures are *derived* bounds, immune to run-to-run noise:
//! the number of guard probes one governed run fires (read exactly from an
//! enabled guard's probe counter) times the measured cost of one probe
//! must stay under 2% (disabled) and 20% (enabled, with or without a
//! deadline) of the run's time without a guard. Both take a probe's cost by one rule: the time of an
//! `ok()` and a `charge_matches()` together, a conservative 2× overcount.
//! The enabled bound reads 7–12% on a 2-vCPU machine, so it does not meet
//! a 5% bar; 20% fails a guard of atomics and locks (65–75% there).
//! `GQL_BENCH_SAMPLES` scales effort as usual.

use std::hint::black_box;

use gql_bench::microbench::Criterion;
use gql_bench::{criterion_group, criterion_main};
use gql_guard::{Budget, CancelToken, Guard, RunCtx};
use gql_ssdm::generator::{cityguide, CityConfig};
use gql_ssdm::{DocIndex, Document};
use gql_xmlgl::builder::{RuleBuilder, C, Q};
use gql_xmlgl::eval::{match_rule_in, JoinPlan};

/// Same shape as the `indexed` / `overhead` bench dataset: a selective
/// join plus a filler section only scans pay for.
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

fn bench_guard_overhead(c: &mut Criterion) {
    let scale = 600;
    let doc = dataset(scale);
    let idx = DocIndex::build(&doc);
    let rule = join_rule();
    let mut group = c.benchmark_group("guard");
    group.sample_size(30);

    let plan = JoinPlan::new(&rule, None);
    let governed = |ctx: RunCtx<'_>| match_rule_in(&rule, &doc, &idx, &plan, ctx);
    let disabled = group.bench_function("join_indexed/disabled_guard", |b| {
        b.iter(|| governed(RunCtx::none()))
    });
    let enabled = group.bench_function("join_indexed/unlimited_enabled_guard", |b| {
        b.iter(|| {
            let guard = Guard::new(Budget::unlimited());
            governed(RunCtx::guarded(&guard))
        })
    });
    group.record_metric(
        "enabled_ratio",
        enabled.as_secs_f64() / disabled.as_secs_f64().max(f64::MIN_POSITIVE),
        "x",
    );

    // Count the probes one governed join fires — exactly, from the enabled
    // guard's own counter rather than an estimate.
    let counting = Guard::new(Budget::unlimited());
    governed(RunCtx::guarded(&counting));
    let probes_per_run = counting.probes();
    assert!(
        probes_per_run > 0,
        "the governed join fired no guard probes — the probe sites are gone"
    );

    // Measure the disabled-probe cost. Batch 1024 probes per timed
    // iteration so the figure stays meaningful even under
    // `GQL_BENCH_SAMPLES=1` (a single branch is below timer resolution).
    // The body fires one `ok()` and one `charge_matches()` — the two probe
    // shapes the hot paths use — and divides by the batch size only, so
    // the derived per-probe cost is a conservative 2× overcount.
    const PROBE_BATCH: u32 = 1024;
    let probe = group.bench_function("disabled_probe_x1024", |b| {
        let g = Guard::unlimited();
        b.iter(|| {
            let mut alive = 0u32;
            for _ in 0..PROBE_BATCH {
                if g.ok() && g.charge_matches(1) {
                    alive += 1;
                }
            }
            alive
        })
    }) / PROBE_BATCH;
    let derived = probe.as_secs_f64() * probes_per_run as f64;
    let derived_pct = 100.0 * derived / disabled.as_secs_f64().max(f64::MIN_POSITIVE);
    group.record_metric("probes_per_run", probes_per_run as f64, "probes");
    group.record_metric("derived_overhead_pct", derived_pct, "%");
    group.finish();

    // The zero-cost-when-disabled claim: the derived bound must stay under
    // 2% of the join run. (A derived bound, not a wall-clock ratio against a
    // probe-free build of the same join: noise between two such runs exceeds
    // the margin under test, while this figure regresses exactly when a
    // probe starts doing real work while disabled.)
    assert!(
        derived_pct < 2.0,
        "disabled-probe guard overhead bound is {derived_pct:.2}% of the indexed join \
         ({probes_per_run} probes × {probe:?}/probe vs {disabled:?}/run)"
    );
}

/// The guards a served request runs under, on an extract of many rows:
/// without a deadline, and under `gql-serve`'s own 30 s timeout.
fn bench_enabled_guard_overhead(c: &mut Criterion) {
    let doc = cityguide(CityConfig {
        restaurants: 1000,
        hotels: 100,
        seed: 11,
    });
    let idx = DocIndex::build(&doc);
    let rule = gql_xmlgl::dsl::parse(
        "rule { extract { menu as $m { price { text as $p } } } \
         construct { answer { menus { count($m) } } } }",
    )
    .expect("rule parses")
    .rules
    .remove(0);
    let plan = JoinPlan::new(&rule, None);
    let extract = |ctx: RunCtx<'_>| match_rule_in(&rule, &doc, &idx, &plan, ctx);
    let rows = extract(RunCtx::none()).len();
    assert!(rows >= 1000, "the extract yields {rows} rows, under 1,000");

    let mut group = c.benchmark_group("guard");
    group.sample_size(30);
    let unguarded = group.bench_function("extract_rows/no_guard", |b| {
        b.iter(|| extract(RunCtx::none()))
    });
    group.record_metric("extract_rows/rows", rows as f64, "rows");
    let mut over = Vec::new();
    for (arm, budget) in [
        ("served", Budget::unlimited()),
        (
            "served_timeout",
            Budget::unlimited().with_timeout_ms(30_000),
        ),
    ] {
        let served = || Guard::with_cancel(budget.clone(), CancelToken::new());
        group.bench_function(format!("extract_rows/{arm}_guard"), |b| {
            b.iter(|| {
                let guard = served();
                extract(RunCtx::guarded(&guard)).len()
            })
        });
        let counting = served();
        extract(RunCtx::guarded(&counting));
        let probes_per_run = counting.probes();

        // An enabled probe's cost, by the disabled bound's rule: each
        // iteration fires one `ok()` and one `charge_matches()`, on a guard
        // the optimiser cannot see into (as the matcher's, behind a
        // reference, is to it), and the batch time is divided by the batch
        // size only, a conservative 2× overcount.
        const PROBE_BATCH: u32 = 1024;
        let probe = group.bench_function(format!("{arm}_probe_x1024"), |b| {
            let g = served();
            b.iter(|| {
                let mut alive = 0u32;
                for _ in 0..PROBE_BATCH {
                    let g = black_box(&g);
                    if g.ok() && g.charge_matches(1) {
                        alive += 1;
                    }
                }
                alive
            })
        }) / PROBE_BATCH;
        let derived = probe.as_secs_f64() * probes_per_run as f64;
        let derived_pct = 100.0 * derived / unguarded.as_secs_f64().max(f64::MIN_POSITIVE);
        group.record_metric(
            format!("extract_rows/{arm}/probes_per_run"),
            probes_per_run as f64,
            "probes",
        );
        group.record_metric(
            format!("extract_rows/{arm}/derived_overhead_pct"),
            derived_pct,
            "%",
        );
        if derived_pct >= 20.0 {
            over.push(format!(
                "{arm}: {derived_pct:.2}% ({probes_per_run} probes × {probe:?}/probe)"
            ));
        }
    }
    group.finish();

    assert!(
        over.is_empty(),
        "enabled-guard overhead bound is over 20% of a {rows}-row extract \
         ({unguarded:?}/run unguarded): {}",
        over.join("; ")
    );
}

criterion_group!(benches, bench_guard_overhead, bench_enabled_guard_overhead);
criterion_main!(benches);
