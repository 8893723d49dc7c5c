//! Abstract interpretation of XML-GL extract graphs against a summary.
//!
//! Every query node is mapped to the set of summary paths it could bind on
//! (its *abstract extent*) and a binding-count upper bound `W`:
//!
//! ```text
//! W(q) = 0               if q's extent is empty or its predicate folds false
//! W(q) = cnt(extent(q))  if q has no non-negated child edges
//! W(q) = ∏_c S_c         over non-negated child edges c, where
//!        S_c = W(c)            for plain containment / text / attribute
//!        S_c = mult_c · W(c)   for deep (`*`) edges
//! ```
//!
//! Soundness: the concrete binding count is `Σ_e ∏_c n(e,c)` over elements
//! `e` in the extent, where `n(e,c)` is the number of bindings of subtree
//! `c` anchored at `e`. For non-negative numbers
//! `Σ_e ∏_c n(e,c) ≤ ∏_c (Σ_e n(e,c))`, so it suffices that
//! `Σ_e n(e,c) ≤ S_c`. For a plain containment edge every candidate of `c`
//! has exactly one parent, so the sum counts each candidate at most once
//! and is `≤ W(c)`; likewise for shallow text/attribute edges anchored at
//! `e` itself. For a deep edge one candidate can serve several `e`s — at
//! most one per ancestor(-or-self, for text/attribute) path of its own path
//! that lies in the parent extent, which `mult_c` maximises over candidate
//! paths. Negated edges and join constraints only restrict matches, so
//! ignoring them keeps `W` an upper bound; a negated subtree's emptiness
//! never propagates (absence can hold).
//!
//! GQL014 fires when some root's `W` is zero: the rule then has no
//! bindings, so its construct side emits at most the zero-binding skeleton
//! and extraction is provably fruitless.

use std::collections::BTreeSet;

use gql_ssdm::diag::{Code, Diagnostic};
use gql_ssdm::summary::{PathId, Summary};
use gql_xmlgl::ast::{ExtractGraph, NameTest, Program, QNodeId, QNodeKind};

use crate::fold::predicate_unsat;
use crate::Inference;

/// Abstractly interpret an XML-GL program against a document summary.
pub fn infer_xmlgl(program: &Program, summary: &Summary) -> Inference {
    let mut inf = Inference::default();
    for (ri, rule) in program.rules.iter().enumerate() {
        let g = &rule.extract;
        let mut bounds = Vec::with_capacity(g.roots.len());
        let mut empty_at: Option<QNodeId> = None;
        for &root in &g.roots {
            let extent = root_extent(g, root, summary);
            let (w, zero) = node_bound(g, root, &extent, summary, &mut inf, ri);
            bounds.push(w);
            if empty_at.is_none() {
                empty_at = zero;
            }
        }
        if !g.roots.is_empty() {
            let total = bounds.iter().fold(1u64, |a, &b| a.saturating_mul(b));
            inf.cards.push(ri, "result", total);
        }
        inf.empty_rules.push(empty_at.is_some());
        if let Some(q) = empty_at {
            let n = g.node(q);
            let what = describe(g, q);
            inf.report.push(
                Diagnostic::new(
                    Code::EmptyUnderSummary,
                    format!("query is empty under the document summary: {what} can never match"),
                )
                .with_span(n.span)
                .with_rule(format!("rule {}", ri + 1))
                .with_help(
                    "the inferred DataGuide contains no path satisfying this part of the \
                     extract graph; the rule will produce no bindings on this document",
                ),
            );
        }
        inf.root_bounds.push(bounds);
    }
    inf
}

fn describe(g: &ExtractGraph, q: QNodeId) -> String {
    let n = g.node(q);
    let base = match &n.kind {
        QNodeKind::Element(t) => format!("element node <{t}>"),
        QNodeKind::Text => "text node".to_string(),
        QNodeKind::Attribute(a) => format!("attribute node @{a}"),
    };
    match &n.var {
        Some(v) => format!("{base} (${v})"),
        None => base,
    }
}

fn card_target(g: &ExtractGraph, q: QNodeId) -> String {
    match &g.node(q).var {
        Some(v) => format!("${v}"),
        None => format!("q{}", q.0),
    }
}

/// Extent of a root node: every summary path matching its name test
/// (roots match anywhere in the document).
fn root_extent(g: &ExtractGraph, root: QNodeId, s: &Summary) -> BTreeSet<PathId> {
    match &g.node(root).kind {
        QNodeKind::Element(NameTest::Name(n)) => s.paths_with_tag(n).iter().copied().collect(),
        QNodeKind::Element(NameTest::Wildcard) => s.element_paths().collect(),
        // Text/attribute roots are not produced by the DSL; stay
        // conservative and give them the whole document as extent.
        QNodeKind::Text | QNodeKind::Attribute(_) => s.element_paths().collect(),
    }
}

/// Compute `W` for the subtree rooted at `q` whose element extent is
/// `extent`. Returns the bound and, when it is zero along a non-negated
/// spine, the query node that first proved empty. Cardinality entries are
/// recorded for every node along the way.
fn node_bound(
    g: &ExtractGraph,
    q: QNodeId,
    extent: &BTreeSet<PathId>,
    s: &Summary,
    inf: &mut Inference,
    rule: usize,
) -> (u64, Option<QNodeId>) {
    let n = g.node(q);
    let cnt: u64 = match &n.kind {
        QNodeKind::Element(_) => extent.iter().map(|&p| s.node(p).count).sum(),
        // A text node binds only on elements with a *direct* text child —
        // exactly what `text_count` counts per path.
        QNodeKind::Text => extent.iter().map(|&p| s.node(p).text_count).sum(),
        // Attributes are single-valued per element.
        QNodeKind::Attribute(a) => extent
            .iter()
            .map(|&p| s.node(p).attrs.get(a).copied().unwrap_or(0))
            .sum(),
    };
    let cnt = if predicate_unsat(&n.predicate) {
        0
    } else {
        cnt
    };

    let mut prod = 1u64;
    let mut has_child = false;
    let mut zero = if cnt == 0 { Some(q) } else { None };
    for edge in &n.children {
        let child_extent = edge_extent(g, edge.target, extent, edge.deep, s);
        let (cw, czero) = node_bound(g, edge.target, &child_extent, s, inf, rule);
        if edge.negated {
            // Absence constraints never bound the parent; the subtree's own
            // card entries were still recorded above.
            continue;
        }
        has_child = true;
        let sc = if edge.deep {
            // Deep element edges range over proper descendants; deep text
            // and attribute edges over descendants-or-self.
            let or_self = !matches!(g.node(edge.target).kind, QNodeKind::Element(_));
            deep_multiplicity(extent, &child_extent, or_self, s).saturating_mul(cw)
        } else {
            cw
        };
        prod = prod.saturating_mul(sc);
        if zero.is_none() && cw == 0 {
            zero = czero.or(Some(edge.target));
        }
    }
    let mut w = if cnt == 0 {
        0
    } else if has_child {
        prod
    } else {
        cnt
    };
    if zero.is_some() {
        w = 0;
    }
    inf.cards.push(rule, card_target(g, q), w);
    (w, zero)
}

/// For a deep edge: the largest number of parent-extent paths that are
/// ancestors (or, with `or_self`, ancestors-or-self) of any one candidate
/// path — how many distinct parents a single concrete candidate can serve.
fn deep_multiplicity(
    parents: &BTreeSet<PathId>,
    children: &BTreeSet<PathId>,
    or_self: bool,
    s: &Summary,
) -> u64 {
    let mut best = 0u64;
    for &d in children {
        let mut m = 0u64;
        if or_self && parents.contains(&d) {
            m += 1;
        }
        let mut cur = s.node(d).parent;
        while let Some(p) = cur {
            if parents.contains(&p) {
                m += 1;
            }
            cur = s.node(p).parent;
        }
        best = best.max(m);
    }
    best
}

/// Extent of an edge target given the parent extent: matching children for
/// a plain containment edge, matching proper descendants for a `*` edge.
/// Text and attribute targets keep the *parent* extent — their counts are
/// read off the element paths that carry them — extended to all descendant
/// paths for deep edges, which the matcher resolves descendant-or-self.
fn edge_extent(
    g: &ExtractGraph,
    target: QNodeId,
    parents: &BTreeSet<PathId>,
    deep: bool,
    s: &Summary,
) -> BTreeSet<PathId> {
    let test = match &g.node(target).kind {
        QNodeKind::Element(t) => t,
        QNodeKind::Text | QNodeKind::Attribute(_) => {
            let mut out = parents.clone();
            if deep {
                for &p in parents {
                    out.extend(s.descendants(p));
                }
            }
            return out;
        }
    };
    let mut out = BTreeSet::new();
    for &p in parents {
        if deep {
            for d in s.descendants(p) {
                if test.matches(&s.node(d).tag) {
                    out.insert(d);
                }
            }
        } else {
            for &c in &s.node(p).children {
                if test.matches(&s.node(c).tag) {
                    out.insert(c);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_ssdm::Document;
    use gql_xmlgl::dsl;

    fn summarise(xml: &str) -> (Document, Summary) {
        let doc = Document::parse_str(xml).unwrap();
        let s = Summary::build(&doc);
        (doc, s)
    }

    const BIB: &str = "<bib><book year='1994'><title>TCP/IP</title><price>55</price></book>\
                       <book year='2000'><title>Web</title><price>39</price></book>\
                       <article><title>GL</title></article></bib>";

    #[test]
    fn satisfiable_query_gets_bounds() {
        let (_, s) = summarise(BIB);
        let p =
            dsl::parse("rule { extract { book as $b { title } } construct { out { all $b } } }")
                .unwrap();
        let inf = infer_xmlgl(&p, &s);
        assert!(inf.report.is_empty());
        assert_eq!(inf.root_bounds, vec![vec![2]]);
        assert_eq!(inf.cards.result_bound(0), Some(2));
    }

    #[test]
    fn missing_tag_is_statically_empty() {
        let (_, s) = summarise(BIB);
        let p =
            dsl::parse("rule { extract { journal as $j } construct { out { all $j } } }").unwrap();
        let inf = infer_xmlgl(&p, &s);
        assert!(inf.empty_rules[0]);
        let d = inf.report.iter().next().unwrap();
        assert_eq!(d.code, Code::EmptyUnderSummary);
        assert_eq!(inf.root_bounds, vec![vec![0]]);
    }

    #[test]
    fn missing_child_path_is_statically_empty() {
        let (_, s) = summarise(BIB);
        // Articles exist and prices exist, but never an article price.
        let p =
            dsl::parse("rule { extract { article as $a { price } } construct { out { all $a } } }")
                .unwrap();
        let inf = infer_xmlgl(&p, &s);
        assert!(inf.empty_rules[0]);
    }

    #[test]
    fn negated_missing_child_is_fine() {
        let (_, s) = summarise(BIB);
        let p = dsl::parse(
            "rule { extract { article as $a { not price } } construct { out { all $a } } }",
        )
        .unwrap();
        let inf = infer_xmlgl(&p, &s);
        assert!(!inf.empty_rules[0], "{}", inf.report.render());
        assert_eq!(inf.root_bounds, vec![vec![1]]);
    }

    #[test]
    fn unsat_predicate_folds_to_empty() {
        let (_, s) = summarise(BIB);
        let p = dsl::parse(
            r#"rule { extract { book { price as $p > "z" and < "a" } }
                      construct { out { all $p } } }"#,
        )
        .unwrap();
        let inf = infer_xmlgl(&p, &s);
        assert!(inf.empty_rules[0], "{}", inf.report.render());
    }

    #[test]
    fn bounds_multiply_down_the_tree() {
        let (_, s) = summarise(BIB);
        // Two books, each with one title and one price: the true binding
        // count is 2, W = 2·2·2 = 8 — looser, but an upper bound.
        let p = dsl::parse(
            "rule { extract { book as $b { title price } } construct { out { all $b } } }",
        )
        .unwrap();
        let inf = infer_xmlgl(&p, &s);
        let b = inf.root_bounds[0][0];
        assert!((2..=8).contains(&b), "bound {b} must cover the 2 bindings");
    }

    #[test]
    fn deep_edges_use_descendant_paths() {
        let (_, s) = summarise("<a><a><b/></a></a>");
        let p = dsl::parse("rule { extract { a as $x { deep b } } construct { out { all $x } } }")
            .unwrap();
        let inf = infer_xmlgl(&p, &s);
        assert!(!inf.empty_rules[0]);
        // Two a-elements can each reach the one b: bound must be ≥ 2.
        assert!(inf.root_bounds[0][0] >= 2);
    }

    #[test]
    fn attribute_and_text_counts() {
        let (_, s) = summarise(BIB);
        let p =
            dsl::parse("rule { extract { book { @year as $y } } construct { out { copy $y } } }")
                .unwrap();
        let inf = infer_xmlgl(&p, &s);
        assert_eq!(inf.cards.bound_for(0, "$y"), Some(2));
        let p = dsl::parse(
            "rule { extract { article { @year as $y } } construct { out { copy $y } } }",
        )
        .unwrap();
        let inf = infer_xmlgl(&p, &s);
        assert!(inf.empty_rules[0]);
    }
}
