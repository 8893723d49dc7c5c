//! The binding table's contract, through the public matcher entry points:
//! what a cell means, the order rows come out in, and what a guard's
//! refusal leaves behind. Each of these fails if the arena-as-stack walk of
//! `eval::matcher` slips where the `Vec`-returning recursion it replaced
//! could not.

use gql_guard::{Budget, Guard, RunCtx};
use gql_ssdm::{DocIndex, Document};
use gql_xmlgl::ast::{CmpOp, Rule};
use gql_xmlgl::builder::{RuleBuilder, C, Q};
use gql_xmlgl::eval::{cell_text, match_rule, match_rule_in, Bindings, JoinPlan};

fn rule(q: Q) -> Rule {
    RuleBuilder::new()
        .extract(q)
        .construct(C::elem("out"))
        .build()
        .unwrap()
}

/// The text column `var` stands for, row by row.
fn texts(d: &Document, r: &Rule, ms: &Bindings, var: &str) -> Vec<String> {
    let q = r.extract.by_var(var).unwrap();
    ms.iter()
        .map(|m| cell_text(d, &r.extract, q, m.get(q).unwrap()).into_owned())
        .collect()
}

/// A text circle binds an element with a text child *of its own* — not
/// one whose text all lies deeper — and the value it stands for is that
/// element's whole text content.
#[test]
fn a_text_circle_needs_a_direct_text_child_and_reads_the_whole_content() {
    let d =
        Document::parse_str("<r><p>a<i>b</i>c</p><p><i>deep</i></p><p/><p>solo</p></r>").unwrap();
    let r = rule(Q::elem("p").child(Q::text().var("t")));
    let ms = match_rule(&r, &d);
    assert_eq!(texts(&d, &r, &ms, "t"), ["abc", "solo"]);
    // The predicate sees the same value.
    let r = rule(Q::elem("p").child(Q::text().var("t").pred(CmpOp::Eq, "abc")));
    assert_eq!(match_rule(&r, &d).len(), 1);
    // Below an asterisk edge the <i>s qualify on their own account.
    let r = rule(Q::elem("r").deep_child(Q::text().var("t")));
    let ms = match_rule(&r, &d);
    assert_eq!(texts(&d, &r, &ms, "t"), ["abc", "b", "deep", "solo"]);
}

/// Several partials times several alternatives, twice over: the product
/// is folded in place partial-major, so rows come out in the order of
/// the nested loops — first edge outermost.
#[test]
fn products_of_several_edges_come_out_first_edge_outermost() {
    let d = Document::parse_str("<r><a>1</a><a>2</a><b>x</b><b>y</b><b>z</b><c>p</c><c>q</c></r>")
        .unwrap();
    let r = rule(
        Q::elem("r")
            .child(Q::elem("a").var("a"))
            .child(Q::elem("b").var("b"))
            .child(Q::elem("c").var("c")),
    );
    let ms = match_rule(&r, &d);
    let (a, b, c) = (
        texts(&d, &r, &ms, "a"),
        texts(&d, &r, &ms, "b"),
        texts(&d, &r, &ms, "c"),
    );
    let seq: Vec<String> = (0..ms.len())
        .map(|i| format!("{}{}{}", a[i], b[i], c[i]))
        .collect();
    assert_eq!(
        seq,
        ["1xp", "1xq", "1yp", "1yq", "1zp", "1zq", "2xp", "2xq", "2yp", "2yq", "2zp", "2zq"]
    );
}

/// Ordered matching below a wide parent: of the 120 × 120 (a, b) pairs
/// the order stroke keeps those with the `a` no later than the `b`, in
/// nested-loop order — decided from document-order keys,
/// not by scanning 240 siblings per bound node.
#[test]
fn ordered_matching_below_a_wide_parent() {
    let mut xml = String::from("<r>");
    for i in 0..120 {
        xml.push_str(&format!("<b>{i}</b><a>{i}</a>"));
    }
    xml.push_str("</r>");
    let d = Document::parse_str(&xml).unwrap();
    let r = rule(
        Q::elem("r")
            .ordered()
            .child(Q::elem("a").var("a"))
            .child(Q::elem("b").var("b")),
    );
    let expected: Vec<(String, String)> = (0..120)
        .flat_map(|a| (a + 1..120).map(move |b| (a.to_string(), b.to_string())))
        .collect();
    let ms = match_rule(&r, &d);
    let pairs: Vec<(String, String)> = texts(&d, &r, &ms, "a")
        .into_iter()
        .zip(texts(&d, &r, &ms, "b"))
        .collect();
    assert_eq!(pairs, expected);
}

/// When the guard refuses a root candidate's rows they are already in
/// the arena, and must leave it: a truncated result holds whole
/// candidates only, what a `Vec` dropped on the way out used to ensure.
#[test]
fn a_refused_charge_leaves_no_rows_behind() {
    let d = Document::parse_str("<r><a><b/><b/></a><a><b/><b/></a><a><b/><b/></a></r>").unwrap();
    let idx = DocIndex::build(&d);
    let r = rule(Q::elem("a").child(Q::elem("b").var("x")));
    let plan = JoinPlan::new(&r, None);
    let run = |max| {
        let guard = Guard::new(Budget::default().with_max_matches(max));
        let ms = match_rule_in(&r, &d, &idx, &plan, RunCtx::guarded(&guard));
        (ms.len(), guard.checkpoint().is_err())
    };
    // Each candidate charges 2 for its edge, then 2 for its rows.
    assert_eq!(run(12), (6, false));
    // The second candidate's rows are refused after they were appended…
    assert_eq!(run(7), (2, true));
    // …or its expansion is, before there were any.
    assert_eq!(run(5), (2, true));
}
