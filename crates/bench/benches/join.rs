//! Experiment F5/Q6: value-join evaluation — the crossover between
//! pattern-based (factor the join once) and navigational (re-navigate per
//! candidate) styles.

use gql_bench::microbench::{BenchmarkId, Criterion};
use gql_bench::suite::Dataset;
use gql_bench::{criterion_group, criterion_main};
use gql_guard::RunCtx;
use gql_ssdm::sink::DocSink;
use gql_ssdm::{DocIndex, Document};
use gql_xmlgl::eval::{run_in, JoinPlan};

fn q6_xmlgl() -> gql_xmlgl::ast::Program {
    gql_xmlgl::dsl::parse(
        r#"rule { extract {
                    product as $p { vendor { text as $v1 } }
                    vendor as $w { country { text = "holland" }
                                   name { text as $v2 } }
                    join $v1 == $v2 }
                  construct { answer { all $p } } }"#,
    )
    .expect("Q6 parses")
}

const Q6_XPATH: &str = "//product[vendor = //vendors/vendor[country='holland']/name]";

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("q6_value_join");
    group.sample_size(10);
    let program = q6_xmlgl();
    let xpath = gql_xpath::parse(Q6_XPATH).expect("Q6 xpath parses");

    for scale in [100usize, 400, 1000] {
        let doc = Dataset::Greengrocer.build(scale);
        // One-shot: `gql_xmlgl::run` builds the document's index inside the
        // timed closure, every iteration.
        group.bench_with_input(BenchmarkId::new("xmlgl_engine", scale), &doc, |b, doc| {
            b.iter(|| gql_xmlgl::run(&program, doc).expect("Q6 runs"))
        });
        // Resident: the index is built once, outside the clock, as `Engine`
        // and the service hold it; the answer is built through a `DocSink`.
        let idx = DocIndex::build(&doc);
        let plans: Vec<JoinPlan> = (program.rules.iter())
            .map(|rule| JoinPlan::new(rule, None))
            .collect();
        group.bench_with_input(BenchmarkId::new("xmlgl_resident", scale), &doc, |b, doc| {
            b.iter(|| {
                let mut out = Document::new();
                run_in(
                    &program,
                    doc,
                    &idx,
                    &plans,
                    RunCtx::none(),
                    &mut DocSink::new(&mut out),
                )
                .expect("Q6 runs");
                out
            })
        });
        // XPath re-navigates the vendors per product: the quadratic side of
        // the crossover. Keep the largest size bounded.
        if scale <= 400 {
            group.bench_with_input(
                BenchmarkId::new("xpath_navigational", scale),
                &doc,
                |b, doc| b.iter(|| gql_xpath::evaluate(doc, &xpath).expect("xpath runs")),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_join);
criterion_main!(benches);
