//! Guard (resource-governance) overhead on the hottest measured path: the
//! indexed join.
//!
//! The guard layer makes the same promise the trace layer does — free when
//! disabled: every probe on `Guard::unlimited()` is one `Option`
//! discriminant branch. This bench holds that promise to a number on the
//! same workload the `indexed` and `overhead` benches measure (the
//! selective vendor join over the archive-padded catalog):
//!
//! * the matcher with the disabled guard (`match_rule_in` +
//!   `RunCtx::none()` — the production configuration), and
//! * the matcher with an *enabled but unlimited* guard
//!   (`Guard::new(Budget::unlimited())` — every probe counts, nothing
//!   trips — the worst case a user can configure without tripping).
//!
//! The asserted figure mirrors `overhead.rs`: a *derived* bound immune to
//! run-to-run noise. The number of guard probes one governed join fires
//! (read exactly from the enabled guard's probe counter) times the
//! measured cost of a disabled probe must stay under 2% of the join's run
//! time. `GQL_BENCH_SAMPLES` scales effort as usual.

use gql_bench::microbench::Criterion;
use gql_bench::{criterion_group, criterion_main};
use gql_guard::{Budget, Guard, RunCtx};
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

criterion_group!(benches, bench_guard_overhead);
criterion_main!(benches);
