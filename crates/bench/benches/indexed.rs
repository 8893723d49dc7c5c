//! The [`gql_ssdm::DocIndex`] fast path: what the index costs to build, and
//! what XML-GL matching over it costs.
//!
//! The dataset grows a large `archive` filler section around small,
//! fixed-rate join sections, so the postings a query reads stay small while
//! the document grows. Per document scale:
//!
//! * **index build** — one `DocIndex::build`;
//! * **root matching** — candidates for a named extract root from tag
//!   postings;
//! * **join keys** — a two-root node-valued (deep-equality) join, hashing
//!   each bound subtree once per run. The row name (`join_indexed_hashed`)
//!   stays for the ledger.

use gql_bench::microbench::{BenchmarkId, Criterion, Throughput};
use gql_bench::{criterion_group, criterion_main};
use gql_guard::RunCtx;
use gql_ssdm::{DocIndex, Document};
use gql_xmlgl::builder::{RuleBuilder, C, Q};
use gql_xmlgl::eval::{match_rule_in, JoinPlan};

/// `scale` products (each `<product><vendor>…</vendor></product>`, the
/// first eight of which match a directory vendor by deep-equal `<vendor>`
/// subtree), eight directory vendors, and `50 * scale` filler entries that
/// no postings list the queries read holds. The join is selective (eight
/// result rows at every scale), so what is measured is candidate
/// enumeration and key computation, not result construction.
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
    let archive = doc.add_element(root, "archive");
    for i in 0..scale * 50 {
        let e = doc.add_element(archive, "entry");
        doc.add_text(e, &format!("x{i}"));
    }
    doc
}

/// Single named root: `product` elements.
fn root_rule() -> gql_xmlgl::ast::Rule {
    RuleBuilder::new()
        .extract(Q::elem("product").var("p"))
        .construct(C::elem("out"))
        .build()
        .expect("rule builds")
}

/// Named-root join on deep-equal `<vendor>` subtrees across two roots.
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

fn bench_indexed_fastpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("indexed_fastpath");
    group.sample_size(10);
    let root = root_rule();
    let join = join_rule();
    let (root_plan, join_plan) = (JoinPlan::new(&root, None), JoinPlan::new(&join, None));
    for scale in [100usize, 400, 1600] {
        let doc = dataset(scale);
        let idx = DocIndex::build(&doc);
        group.throughput(Throughput::Elements(doc.live_node_count() as u64));

        // Sanity: the join is as selective as the dataset says.
        assert_eq!(
            match_rule_in(&join, &doc, &idx, &join_plan, RunCtx::none()).len(),
            8
        );

        group.bench_with_input(BenchmarkId::new("index_build", scale), &doc, |b, doc| {
            b.iter(|| DocIndex::build(doc))
        });
        group.bench_with_input(BenchmarkId::new("root_indexed", scale), &doc, |b, doc| {
            b.iter(|| match_rule_in(&root, doc, &idx, &root_plan, RunCtx::none()))
        });
        group.bench_with_input(
            BenchmarkId::new("join_indexed_hashed", scale),
            &doc,
            |b, doc| b.iter(|| match_rule_in(&join, doc, &idx, &join_plan, RunCtx::none())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_indexed_fastpath);
criterion_main!(benches);
