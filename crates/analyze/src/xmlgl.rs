//! XML-GL analysis passes.
//!
//! Well-formedness and safety live in `gql_xmlgl::check` (the front end
//! runs them too); this module adds the lint-grade passes: connectivity,
//! schema conformance, contradictory predicates, unused variables and the
//! cost pass over the planner's summary bounds.

use std::collections::HashSet;

use gql_plan::JoinGraph;
use gql_ssdm::{CmpOp, Code, Diagnostic, Report};
use gql_xmlgl::ast::{CNodeKind, CValue, NameTest, Program, QNodeId, QNodeKind, Rule};
use gql_xmlgl::check::rule_label;
use gql_xmlgl::schema::GlSchema;

use crate::Context;

/// Run every XML-GL pass applicable under `ctx`.
pub fn analyze(program: &Program, ctx: &Context) -> Report {
    let mut report = Report::new();
    report.extend(gql_xmlgl::check::diagnostics(program));
    // One inference per program: its per-root bounds feed the cost pass
    // (GQL009), its own diagnostics (GQL014) close the report.
    let inferred = ctx
        .summary
        .as_ref()
        .map(|s| (gql_infer::infer_xmlgl(program, s), s.stats().elements));
    for (i, rule) in program.rules.iter().enumerate() {
        let label = rule_label(rule, i);
        let mut ds = Vec::new();
        connectivity(rule, &mut ds);
        if let Some(schema) = &ctx.gl_schema {
            schema_conformance(rule, schema, &mut ds);
        }
        contradictions(rule, &mut ds);
        unused_variables(rule, &mut ds);
        if let Some((inference, elements)) = &inferred {
            cost(rule, &inference.root_bounds[i], *elements, &mut ds);
        }
        for mut d in ds {
            if d.span.is_none() {
                d.span = rule.span;
            }
            report.push(d.with_rule(label.clone()));
        }
    }
    // Summary inference (GQL014): abstract interpretation against the
    // inferred DataGuide; its diagnostics already carry spans and rules.
    if let Some((inference, _)) = inferred {
        report.extend(inference.report);
    }
    report
}

/// GQL005: an extract graph whose nodes fall into several connected
/// components multiplies those components into a cross product.
/// Containment edges (negated or not) and joins both connect.
fn connectivity(rule: &Rule, out: &mut Vec<Diagnostic>) {
    let g = &rule.extract;
    let n = g.nodes.len();
    if n == 0 {
        return; // already an Error from the well-formedness pass
    }
    let mut comp: Vec<usize> = (0..n).collect();
    fn find(comp: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while comp[root] != root {
            root = comp[root];
        }
        let mut cur = i;
        while comp[cur] != root {
            let next = comp[cur];
            comp[cur] = root;
            cur = next;
        }
        root
    }
    let union = |comp: &mut [usize], a: usize, b: usize| {
        let (ra, rb) = (find(comp, a), find(comp, b));
        comp[ra] = rb;
    };
    for id in g.ids() {
        for e in &g.node(id).children {
            if e.target.index() < n {
                union(&mut comp, id.index(), e.target.index());
            }
        }
    }
    for &(a, b) in &g.joins {
        if a.index() < n && b.index() < n {
            union(&mut comp, a.index(), b.index());
        }
    }
    let roots: HashSet<usize> = (0..n).map(|i| find(&mut comp, i)).collect();
    if roots.len() > 1 {
        // Anchor the warning on a node of the second component.
        let first = find(&mut comp, 0);
        let witness = (0..n).find(|&i| find(&mut comp, i) != first).unwrap_or(0);
        out.push(
            Diagnostic::new(
                Code::DisconnectedQuery,
                format!(
                    "extract graph has {} disconnected components; unrelated parts \
                     multiply into a cross product",
                    roots.len()
                ),
            )
            .with_span(g.node(QNodeId(witness as u32)).span)
            .with_help(
                "connect the components with a containment edge or a join, \
                 or split the rule if the product is intended",
            ),
        );
    }
}

/// Element names a schema element can reach through containment (for
/// validating deep edges).
fn reachable(schema: &GlSchema, from: &str) -> HashSet<String> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut stack = vec![from.to_string()];
    while let Some(tag) = stack.pop() {
        if let Some(decl) = schema.element(&tag) {
            for c in &decl.children {
                if seen.insert(c.child.clone()) {
                    stack.push(c.child.clone());
                }
            }
        }
    }
    seen
}

/// GQL006: extract edges, text circles and attribute circles that the
/// schema cannot satisfy — the query part can never match a valid document.
fn schema_conformance(rule: &Rule, schema: &GlSchema, out: &mut Vec<Diagnostic>) {
    let g = &rule.extract;
    let warn = |msg: String, span: gql_ssdm::Span| {
        Diagnostic::new(Code::XmlSchemaMismatch, msg)
            .with_span(span)
            .with_help(
                "against a document valid for this schema the pattern can \
                 never match; fix the tag or update the schema",
            )
    };
    for &r in &g.roots {
        if let QNodeKind::Element(NameTest::Name(tag)) = &g.node(r).kind {
            if schema.element(tag).is_none() {
                out.push(warn(
                    format!("schema declares no element '{tag}'"),
                    g.node(r).span,
                ));
            }
        }
    }
    for id in g.ids() {
        let parent = g.node(id);
        let QNodeKind::Element(NameTest::Name(ptag)) = &parent.kind else {
            continue;
        };
        let Some(decl) = schema.element(ptag) else {
            continue; // the root loop (or a parent edge) already warned
        };
        for e in &parent.children {
            if e.target.index() >= g.nodes.len() {
                continue;
            }
            let child = g.node(e.target);
            match &child.kind {
                QNodeKind::Element(NameTest::Name(ctag)) => {
                    let ok = if e.deep {
                        reachable(schema, ptag).contains(ctag)
                    } else {
                        decl.children.iter().any(|c| &c.child == ctag)
                    };
                    if !ok {
                        out.push(warn(
                            format!(
                                "schema: element '{ptag}' declares no {} '{ctag}'",
                                if e.deep { "descendant" } else { "child" }
                            ),
                            child.span,
                        ));
                    }
                }
                QNodeKind::Element(NameTest::Wildcard) => {}
                QNodeKind::Text => {
                    if !decl.text {
                        out.push(warn(
                            format!("schema: element '{ptag}' has no text content"),
                            child.span,
                        ));
                    }
                }
                QNodeKind::Attribute(name) => {
                    if !decl.attrs.iter().any(|(a, _)| a == name) {
                        out.push(warn(
                            format!("schema: element '{ptag}' declares no attribute '{name}'"),
                            child.span,
                        ));
                    }
                }
            }
        }
    }
}

/// Whether two singleton predicate clauses on the same value can both hold.
/// Sound but incomplete: only clearly-decidable combinations report.
pub(crate) fn clauses_contradict(a: (CmpOp, &str), b: (CmpOp, &str)) -> bool {
    let ((op1, v1), (op2, v2)) = (a, b);
    // An equality pins the value: evaluate the other side against it.
    if op1 == CmpOp::Eq {
        return !op2.eval(v1, v2);
    }
    if op2 == CmpOp::Eq {
        return !op1.eval(v2, v1);
    }
    // Numeric range emptiness.
    if let (Ok(n1), Ok(n2)) = (v1.parse::<f64>(), v2.parse::<f64>()) {
        let empty = |lo_strict: bool, lo: f64, hi_strict: bool, hi: f64| {
            if lo_strict || hi_strict {
                lo >= hi
            } else {
                lo > hi
            }
        };
        // value < v1-ish AND value > v2-ish.
        match (op1, op2) {
            (CmpOp::Lt, CmpOp::Gt) => return empty(true, n2, true, n1),
            (CmpOp::Lt, CmpOp::Ge) => return empty(false, n2, true, n1),
            (CmpOp::Le, CmpOp::Gt) => return empty(true, n2, false, n1),
            (CmpOp::Le, CmpOp::Ge) => return empty(false, n2, false, n1),
            (CmpOp::Gt, CmpOp::Lt) => return empty(true, n1, true, n2),
            (CmpOp::Gt, CmpOp::Le) => return empty(false, n1, true, n2),
            (CmpOp::Ge, CmpOp::Lt) => return empty(true, n1, false, n2),
            (CmpOp::Ge, CmpOp::Le) => return empty(false, n1, false, n2),
            _ => {}
        }
    }
    // Two prefixes can only coexist when one extends the other.
    if op1 == CmpOp::StartsWith && op2 == CmpOp::StartsWith {
        return !(v1.starts_with(v2) || v2.starts_with(v1));
    }
    false
}

/// GQL007: a node predicate whose conjuncts can never hold together always
/// matches nothing.
fn contradictions(rule: &Rule, out: &mut Vec<Diagnostic>) {
    for id in rule.extract.ids() {
        let node = rule.extract.node(id);
        let singletons: Vec<(CmpOp, &str)> = node
            .predicate
            .clauses
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| (c[0].0, c[0].1.as_str()))
            .collect();
        'outer: for (i, &a) in singletons.iter().enumerate() {
            for &b in &singletons[i + 1..] {
                if clauses_contradict(a, b) {
                    let who = node
                        .var
                        .as_ref()
                        .map(|v| format!("${v}"))
                        .unwrap_or_else(|| "this node".to_string());
                    out.push(
                        Diagnostic::new(
                            Code::ContradictoryPredicate,
                            format!(
                                "predicate on {who} can never hold: `{} \"{}\"` \
                                 contradicts `{} \"{}\"`",
                                a.0.symbol(),
                                a.1,
                                b.0.symbol(),
                                b.1
                            ),
                        )
                        .with_span(node.span)
                        .with_help("the rule matches nothing; drop or relax one comparison"),
                    );
                    break 'outer; // one report per node is enough
                }
            }
        }
    }
}

/// Query nodes the construct side references.
fn construct_references(rule: &Rule) -> HashSet<QNodeId> {
    let mut used = HashSet::new();
    for id in rule.construct.ids() {
        match &rule.construct.node(id).kind {
            CNodeKind::Attribute {
                value: CValue::Binding(src),
                ..
            } => {
                used.insert(*src);
            }
            CNodeKind::Copy { source, .. } => {
                used.insert(*source);
            }
            CNodeKind::All { source, order } => {
                used.insert(*source);
                if let Some(spec) = order {
                    used.insert(spec.key);
                }
            }
            CNodeKind::GroupBy { source, key, .. } => {
                used.insert(*source);
                used.insert(*key);
            }
            CNodeKind::Aggregate { source, .. } => {
                used.insert(*source);
            }
            CNodeKind::Element(_) | CNodeKind::Text(_) | CNodeKind::Attribute { .. } => {}
        }
    }
    used
}

/// GQL008: a variable bound on the extract side but referenced by neither
/// the construct side nor a join is dead weight.
fn unused_variables(rule: &Rule, out: &mut Vec<Diagnostic>) {
    let used = construct_references(rule);
    let joined: HashSet<QNodeId> = rule
        .extract
        .joins
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .collect();
    for id in rule.extract.ids() {
        let node = rule.extract.node(id);
        if let Some(v) = &node.var {
            if !used.contains(&id) && !joined.contains(&id) {
                out.push(
                    Diagnostic::new(
                        Code::UnusedVariable,
                        format!("variable ${v} is bound but never used"),
                    )
                    .with_span(node.span)
                    .with_help("drop the `as $var` binding or reference it on the construct side"),
                );
            }
        }
    }
}

/// Intermediate results larger than this multiple of the document flag a
/// cost hint.
const BLOWUP_FACTOR: u128 = 10;

/// GQL009: the estimate the engine plans with — the rule's per-root summary
/// bounds (`gql_infer`) folded along its join spine in declaration order
/// ([`JoinGraph::order_rows`]) — against the document's element count.
fn cost(rule: &Rule, bounds: &[u64], elements: u64, out: &mut Vec<Diagnostic>) {
    let order: Vec<usize> = (0..bounds.len()).collect();
    let (estimate, product) = match JoinGraph::from_rule(rule, bounds) {
        Some(spine) => (
            spine.order_rows(&order)[order.len() - 1],
            (1..order.len()).any(|step| !spine.joins_onto(&order[..step], step)),
        ),
        // A single root has no spine: its own bound is the estimate.
        None => (bounds.first().map_or(0, |&b| u128::from(b)), false),
    };
    let doc_size = elements.max(1);
    if product || estimate > u128::from(doc_size) * BLOWUP_FACTOR {
        let detail = if product {
            "the plan multiplies unjoined parts (cross product)"
        } else {
            "the pattern fans out faster than the document bounds it"
        };
        out.push(
            Diagnostic::new(
                Code::CostBlowup,
                format!(
                    "estimated ~{estimate} intermediate rows over a document of \
                     {doc_size} elements: {detail}"
                ),
            )
            .with_help("add a join or a more selective predicate to bound the match"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use gql_ssdm::Severity;

    fn report(src: &str) -> Report {
        Analyzer::new().analyze_xmlgl_src(src)
    }

    #[test]
    fn disconnected_extract_warns() {
        let r = report(
            "rule {\n  extract {\n    restaurant as $r\n    hotel as $h\n  }\n  construct { out { all $r  all $h } }\n}",
        );
        let d = r
            .iter()
            .find(|d| d.code == Code::DisconnectedQuery)
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.line, 4); // the hotel component
        assert!(d.message.contains("2 disconnected components"));
    }

    #[test]
    fn joins_connect_components() {
        let r = report(
            "rule { extract { restaurant { name as $a }  hotel { name as $b }  join $a == $b } \
             construct { out { all $a } } }",
        );
        assert!(
            !r.iter().any(|d| d.code == Code::DisconnectedQuery),
            "{}",
            r.render()
        );
    }

    #[test]
    fn contradiction_detected() {
        let r = report(
            "rule {\n  extract {\n    book { price as $p = \"10\" and > \"20\" }\n  }\n  construct { out { all $p } }\n}",
        );
        let d = r
            .iter()
            .find(|d| d.code == Code::ContradictoryPredicate)
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("can never hold"), "{}", d.message);
    }

    #[test]
    fn satisfiable_ranges_do_not_warn() {
        let r = report(
            "rule { extract { book { price as $p > \"10\" and < \"20\" } } \
             construct { out { all $p } } }",
        );
        assert!(
            !r.iter().any(|d| d.code == Code::ContradictoryPredicate),
            "{}",
            r.render()
        );
    }

    #[test]
    fn clause_logic() {
        use CmpOp::*;
        assert!(clauses_contradict((Eq, "a"), (Eq, "b")));
        assert!(!clauses_contradict((Eq, "a"), (Eq, "a")));
        assert!(clauses_contradict((Eq, "5"), (Gt, "9")));
        assert!(clauses_contradict((Lt, "3"), (Gt, "7")));
        assert!(!clauses_contradict((Lt, "7"), (Gt, "3")));
        assert!(clauses_contradict((Le, "3"), (Ge, "4")));
        assert!(!clauses_contradict((Le, "3"), (Ge, "3")));
        assert!(clauses_contradict((StartsWith, "ab"), (StartsWith, "cd")));
        assert!(!clauses_contradict((StartsWith, "ab"), (StartsWith, "abc")));
        assert!(clauses_contradict((Eq, "abc"), (Contains, "xyz")));
        assert!(!clauses_contradict((Ne, "a"), (Ne, "b")));
    }

    #[test]
    fn unused_variable_is_a_hint() {
        let r = report(
            "rule {\n  extract {\n    restaurant as $r {\n      name as $n\n    }\n  }\n  construct { out { all $r } }\n}",
        );
        let d = r.iter().find(|d| d.code == Code::UnusedVariable).unwrap();
        assert_eq!(d.severity, Severity::Hint);
        assert!(d.message.contains("$n"));
        assert_eq!(d.span.line, 4);
        assert_eq!(d.rule.as_deref(), Some("rule 1 (restaurant)"));
    }

    #[test]
    fn schema_mismatch_warns() {
        let dtd = gql_ssdm::dtd::Dtd::parse(
            "<!ELEMENT guide (restaurant*)>\n\
             <!ELEMENT restaurant (name, menu*)>\n\
             <!ELEMENT name (#PCDATA)>\n\
             <!ELEMENT menu (#PCDATA)>\n\
             <!ATTLIST restaurant stars CDATA #IMPLIED>",
        )
        .unwrap();
        let schema = gql_xmlgl::schema::GlSchema::from_dtd(&dtd);
        let analyzer = Analyzer::new().with_gl_schema(schema);
        // 'review' is not a declared child of restaurant.
        let r = analyzer.analyze_xmlgl_src(
            "rule {\n  extract {\n    restaurant as $r {\n      review as $v\n    }\n  }\n  construct { out { all $r  all $v } }\n}",
        );
        let d = r
            .iter()
            .find(|d| d.code == Code::XmlSchemaMismatch)
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("'review'"), "{}", d.message);
        assert_eq!(d.span.line, 4);
        // Deep edges check reachability, and declared patterns stay clean.
        let r = analyzer.analyze_xmlgl_src(
            "rule { extract { guide { deep name as $n } } construct { out { all $n } } }",
        );
        assert!(
            !r.iter().any(|d| d.code == Code::XmlSchemaMismatch),
            "{}",
            r.render()
        );
    }

    fn with_summary_of(xml: &str) -> Analyzer {
        let doc = gql_ssdm::Document::parse_str(xml).unwrap();
        Analyzer::new().with_summary(gql_ssdm::Summary::build(&doc))
    }

    fn cost_hint(r: &Report) -> Option<&Diagnostic> {
        r.iter().find(|d| d.code == Code::CostBlowup)
    }

    #[test]
    fn cost_pass_flags_products() {
        let analyzer = with_summary_of("<g><a>1</a><a>2</a><a>3</a><b>1</b><b>2</b><b>3</b></g>");
        let r = analyzer.analyze_xmlgl_src(
            "rule { extract { a as $x  b as $y } construct { out { all $x  all $y } } }",
        );
        let d = cost_hint(&r).unwrap();
        assert_eq!(d.severity, Severity::Hint);
        assert!(d.message.contains("cross product"), "{}", d.message);
        // A selective single-scan query stays quiet.
        let r =
            analyzer.analyze_xmlgl_src("rule { extract { a as $x } construct { out { all $x } } }");
        assert!(cost_hint(&r).is_none());
    }

    /// 24 `a`s and 24 `b`s under one `g`: 49 elements, so a hint needs a
    /// cross product or more than 490 estimated rows; 24 × 24 is 576.
    fn wide() -> Analyzer {
        let leaves: String = (0..24).map(|i| format!("<a>{i}</a><b>{i}</b>")).collect();
        with_summary_of(&format!("<g>{leaves}</g>"))
    }

    #[test]
    fn a_join_connected_spine_keeps_the_larger_side_and_stays_quiet() {
        let analyzer = wide();
        let p = gql_xmlgl::dsl::parse_unchecked(
            "rule { extract { a { text as $x }  b { text as $y }  join $x == $y } \
             construct { out { all $x } } }",
        )
        .unwrap();
        let bounds = &analyzer.infer_xmlgl(&p).unwrap().root_bounds[0];
        assert_eq!(bounds, &[24, 24]);
        let r = analyzer.analyze_xmlgl(&p);
        assert!(cost_hint(&r).is_none(), "{}", r.render());
    }

    #[test]
    fn a_single_root_that_outgrows_the_document_is_a_fan_out() {
        // One root, no spine: W(g) = W(a) · W(a) = 576 > 10 · 49.
        let analyzer = wide();
        let r = analyzer.analyze_xmlgl_src(
            "rule { extract { g { a as $x  a as $y } } construct { out { all $x  all $y } } }",
        );
        let d = cost_hint(&r).unwrap();
        assert_eq!(
            d.message,
            "estimated ~576 intermediate rows over a document of 49 elements: \
             the pattern fans out faster than the document bounds it"
        );
        // The same pattern one child narrower stays under the threshold.
        let r = analyzer
            .analyze_xmlgl_src("rule { extract { g { a as $x } } construct { out { all $x } } }");
        assert!(cost_hint(&r).is_none(), "{}", r.render());
    }

    #[test]
    fn the_hint_quotes_the_planners_last_spine_estimate() {
        let analyzer = wide();
        // a ⋈ b keeps 24 rows; the unjoined `g { a }` root multiplies.
        let p = gql_xmlgl::dsl::parse_unchecked(
            "rule { extract { a { text as $x }  b { text as $y }  g { a as $z }  join $x == $y } \
             construct { out { all $x  all $z } } }",
        )
        .unwrap();
        let rule = &p.rules[0];
        let bounds = &analyzer.infer_xmlgl(&p).unwrap().root_bounds[0];
        let rows = JoinGraph::from_rule(rule, bounds)
            .unwrap()
            .order_rows(&[0, 1, 2]);
        assert_eq!(rows, [24, 24, 576]);
        let r = analyzer.analyze_xmlgl(&p);
        let d = cost_hint(&r).unwrap();
        assert!(
            d.message
                .starts_with(&format!("estimated ~{} intermediate rows", rows[2])),
            "{}",
            d.message
        );
        assert!(d.message.contains("cross product"), "{}", d.message);
    }

    #[test]
    fn without_a_summary_the_cost_pass_is_skipped() {
        let src = "rule { extract { a as $x  b as $y } construct { out { all $x  all $y } } }";
        assert!(cost_hint(&wide().analyze_xmlgl_src(src)).is_some());
        assert!(cost_hint(&report(src)).is_none());
    }
}
