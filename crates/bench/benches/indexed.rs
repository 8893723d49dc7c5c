//! Indexed vs. scan evaluation: the [`gql_ssdm::DocIndex`] fast path.
//!
//! The dataset grows a large `archive` filler section around small,
//! fixed-rate join sections, so whole-document scans pay O(document) per
//! extract root while postings lookups pay O(matches). Two comparisons,
//! per document scale:
//!
//! * **root matching** — candidates for a named extract root from tag
//!   postings vs. a full-document walk;
//! * **join keys** — a two-root node-valued (deep-equality) join. Both
//!   paths compare content the same way, hashing each bound subtree once
//!   per run; the scan row also pays scan-side candidate enumeration: it is
//!   the whole unindexed path, which is what the resident-index
//!   configuration replaces. The row names (`join_scan_string`,
//!   `join_indexed_hashed`) predate that and stay for the ledger.
//!
//! The `join_speedup` metric (scan mean / indexed mean) is the acceptance
//! figure recorded in `BENCH_results.json`.

use gql_bench::microbench::{BenchmarkId, Criterion, Throughput};
use gql_bench::{criterion_group, criterion_main};
use gql_ssdm::{DocIndex, Document};
use gql_xmlgl::builder::{RuleBuilder, C, Q};
use gql_xmlgl::eval::{match_rule_scan, match_rule_with, MatchMode};

/// `scale` products (each `<product><vendor>…</vendor></product>`, the
/// first eight of which match a directory vendor by deep-equal `<vendor>`
/// subtree), eight directory vendors, and `50 * scale` filler entries that
/// only the scan path has to look at. The join is selective (eight result
/// rows at every scale) so the measured difference is candidate
/// enumeration and key computation, not shared result construction.
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
    for scale in [100usize, 400, 1600] {
        let doc = dataset(scale);
        let idx = DocIndex::build(&doc);
        group.throughput(Throughput::Elements(doc.live_node_count() as u64));

        // Sanity: both paths agree before being timed against each other.
        assert_eq!(
            match_rule_with(&join, &doc, &idx, MatchMode::Auto),
            match_rule_scan(&join, &doc)
        );

        group.bench_with_input(BenchmarkId::new("index_build", scale), &doc, |b, doc| {
            b.iter(|| DocIndex::build(doc))
        });
        group.bench_with_input(BenchmarkId::new("root_scan", scale), &doc, |b, doc| {
            b.iter(|| match_rule_scan(&root, doc))
        });
        group.bench_with_input(BenchmarkId::new("root_indexed", scale), &doc, |b, doc| {
            b.iter(|| match_rule_with(&root, doc, &idx, MatchMode::Auto))
        });
        let scan = group.bench_with_input(
            BenchmarkId::new("join_scan_string", scale),
            &doc,
            |b, doc| b.iter(|| match_rule_scan(&join, doc)),
        );
        let indexed = group.bench_with_input(
            BenchmarkId::new("join_indexed_hashed", scale),
            &doc,
            |b, doc| b.iter(|| match_rule_with(&join, doc, &idx, MatchMode::Auto)),
        );
        let ratio = scan.as_nanos() as f64 / indexed.as_nanos().max(1) as f64;
        group.record_metric(BenchmarkId::new("join_speedup", scale), ratio, "x");
    }
    group.finish();
}

criterion_group!(benches, bench_indexed_fastpath);
criterion_main!(benches);
