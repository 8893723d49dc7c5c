//! Well-formedness and safety checking of XML-GL diagrams, reported as
//! structured diagnostics.
//!
//! A drawing can be syntactically assembled and still be meaningless; these
//! are the rules the interactive editor would enforce while drawing, applied
//! to the AST instead:
//!
//! 1. text and attribute circles are leaves;
//! 2. extract roots are element boxes;
//! 3. variable names bind at most one node per rule;
//! 4. negated subtrees bind no variables (nothing inside "does not exist"
//!    can flow to the construct side);
//! 5. join endpoints are distinct nodes outside negated scope;
//! 6. construct roots are element nodes, attribute nodes hang off elements,
//!    and collector/aggregate nodes are leaves;
//! 7. **safety / range restriction**: every query node the construct side
//!    references is positively bound — a reference into a negated subtree
//!    can never produce a binding.
//!
//! The primary interface is [`diagnostics`], which reports *every* problem
//! as a [`Diagnostic`] with a stable code, severity, source span and the
//! offending rule's label. [`check_program`]/[`check_rule`] are the
//! original fail-fast API, kept as a shim over the first Error-level
//! diagnostic.

use std::collections::HashSet;

use gql_ssdm::diag::{Code, Diagnostic};

use crate::ast::{CNodeKind, CValue, ExtractGraph, Program, QNodeId, QNodeKind, Rule};
use crate::{Result, XmlGlError};

/// Human label for a rule: 1-based index plus the first extract root's
/// element name, e.g. `rule 2 (book)`.
pub fn rule_label(rule: &Rule, index: usize) -> String {
    match rule
        .extract
        .roots
        .first()
        .map(|&r| &rule.extract.node(r).kind)
    {
        Some(QNodeKind::Element(t)) => format!("rule {} ({t})", index + 1),
        _ => format!("rule {}", index + 1),
    }
}

/// All well-formedness/safety diagnostics for a program, each tagged with
/// the offending rule's label and source span.
pub fn diagnostics(p: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if p.rules.is_empty() {
        out.push(Diagnostic::new(
            Code::XmlGlIllFormed,
            "a program needs at least one rule",
        ));
        return out;
    }
    for (i, rule) in p.rules.iter().enumerate() {
        let label = rule_label(rule, i);
        for mut d in rule_diagnostics(rule) {
            if d.span.is_none() {
                d.span = rule.span;
            }
            out.push(d.with_rule(label.clone()));
        }
    }
    out
}

/// All diagnostics for a single rule (no rule label attached).
pub fn rule_diagnostics(rule: &Rule) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    extract_diagnostics(&rule.extract, &mut out);
    construct_diagnostics(rule, &mut out);
    out
}

/// Check every rule of a program; fails with the first Error-level
/// diagnostic, its message prefixed by the rule's label.
pub fn check_program(p: &Program) -> Result<()> {
    match diagnostics(p).into_iter().find(Diagnostic::is_error) {
        Some(d) => Err(XmlGlError::IllFormed {
            msg: match &d.rule {
                Some(label) => format!("{label}: {}", d.message),
                None => d.message,
            },
        }),
        None => Ok(()),
    }
}

/// Check one rule; fails with the first Error-level diagnostic.
pub fn check_rule(rule: &Rule) -> Result<()> {
    match rule_diagnostics(rule)
        .into_iter()
        .find(Diagnostic::is_error)
    {
        Some(d) => Err(XmlGlError::IllFormed { msg: d.message }),
        None => Ok(()),
    }
}

/// Query nodes reachable through a negated (crossed-out) edge: nothing in
/// here ever produces a binding.
pub fn negated_scope(g: &ExtractGraph) -> HashSet<QNodeId> {
    let mut scope: HashSet<QNodeId> = HashSet::new();
    for id in g.ids() {
        for e in &g.node(id).children {
            if e.negated && e.target.index() < g.nodes.len() {
                let mut stack = vec![e.target];
                while let Some(t) = stack.pop() {
                    if scope.insert(t) {
                        stack.extend(
                            g.node(t)
                                .children
                                .iter()
                                .map(|c| c.target)
                                .filter(|c| c.index() < g.nodes.len()),
                        );
                    }
                }
            }
        }
    }
    scope
}

fn extract_diagnostics(g: &ExtractGraph, out: &mut Vec<Diagnostic>) {
    if g.roots.is_empty() {
        out.push(Diagnostic::new(
            Code::XmlGlIllFormed,
            "extract graph has no root",
        ));
    }
    // Roots are elements.
    for &r in &g.roots {
        if !matches!(g.node(r).kind, QNodeKind::Element(_)) {
            out.push(
                Diagnostic::new(Code::XmlGlIllFormed, "extract roots must be element boxes")
                    .with_span(g.node(r).span),
            );
        }
    }
    // Leaf discipline, variable discipline, dangling edges.
    let mut seen_vars: HashSet<&str> = HashSet::new();
    for id in g.ids() {
        let n = g.node(id);
        match n.kind {
            QNodeKind::Text | QNodeKind::Attribute(_) => {
                if !n.children.is_empty() {
                    out.push(
                        Diagnostic::new(
                            Code::XmlGlIllFormed,
                            "text/attribute circles cannot have children",
                        )
                        .with_span(n.span),
                    );
                }
            }
            QNodeKind::Element(_) => {}
        }
        if let Some(v) = &n.var {
            if v.is_empty() {
                out.push(
                    Diagnostic::new(Code::XmlGlIllFormed, "empty variable name").with_span(n.span),
                );
            } else if !seen_vars.insert(v.as_str()) {
                out.push(
                    Diagnostic::new(
                        Code::DuplicateVariable,
                        format!("variable ${v} is bound twice"),
                    )
                    .with_span(n.span)
                    .with_help(format!(
                        "rename one occurrence, or use `join ${v} == $other` \
                         to express that two nodes bind equal data"
                    )),
                );
            }
        }
        for e in &n.children {
            if e.target.index() >= g.nodes.len() {
                out.push(
                    Diagnostic::new(Code::XmlGlIllFormed, "dangling containment edge")
                        .with_span(n.span),
                );
            }
        }
    }
    // Each node has at most one containment parent (tree/forest shape; the
    // shared-node join idiom is represented by `joins`, not by DAG edges).
    let mut parented: HashSet<QNodeId> = HashSet::new();
    for id in g.ids() {
        for e in &g.node(id).children {
            if e.target.index() < g.nodes.len() && !parented.insert(e.target) {
                out.push(
                    Diagnostic::new(
                        Code::XmlGlIllFormed,
                        format!(
                            "node {:?} has two containment parents; use a join instead",
                            e.target
                        ),
                    )
                    .with_span(g.node(e.target).span),
                );
            }
        }
    }
    for &r in &g.roots {
        if parented.contains(&r) {
            out.push(
                Diagnostic::new(Code::XmlGlIllFormed, "a root cannot also be a child")
                    .with_span(g.node(r).span),
            );
        }
    }
    // Negated subtrees bind no variables.
    // In declaration order: the set's own order differs from run to run,
    // and these messages are a served reply.
    let scope = negated_scope(g);
    for t in g.ids().filter(|t| scope.contains(t)) {
        if g.node(t).var.is_some() {
            out.push(
                Diagnostic::new(
                    Code::NegationScope,
                    "variables inside a negated (crossed-out) subtree can never bind",
                )
                .with_span(g.node(t).span)
                .with_help(
                    "negation asserts absence; move the binding outside the \
                     crossed-out edge or drop the variable",
                ),
            );
        }
    }
    // Joins connect distinct existing nodes that can actually bind: an
    // endpoint inside a negated subtree is never bound, which would make
    // the join silently unsatisfiable.
    for &(a, b) in &g.joins {
        if a == b {
            out.push(
                Diagnostic::new(
                    Code::XmlGlIllFormed,
                    "a join must connect two distinct nodes",
                )
                .with_span(if a.index() < g.nodes.len() {
                    g.node(a).span
                } else {
                    Default::default()
                }),
            );
            continue;
        }
        if a.index() >= g.nodes.len() || b.index() >= g.nodes.len() {
            out.push(Diagnostic::new(
                Code::XmlGlIllFormed,
                "join references a missing node",
            ));
            continue;
        }
        if scope.contains(&a) || scope.contains(&b) {
            out.push(
                Diagnostic::new(
                    Code::NegationScope,
                    "a join endpoint inside a negated subtree can never bind",
                )
                .with_span(g.node(a).span),
            );
        }
    }
}

fn construct_diagnostics(rule: &Rule, out: &mut Vec<Diagnostic>) {
    let g = &rule.construct;
    let q = &rule.extract;
    if g.roots.is_empty() {
        out.push(Diagnostic::new(
            Code::XmlGlIllFormed,
            "construct graph has no root",
        ));
    }
    for &r in &g.roots {
        if !matches!(g.node(r).kind, CNodeKind::Element(_)) {
            out.push(
                Diagnostic::new(
                    Code::XmlGlIllFormed,
                    "construct roots must be element nodes",
                )
                .with_span(g.node(r).span),
            );
        }
    }
    // Safety / range restriction: construct references must point at query
    // nodes that exist AND are positively bound (outside negated scope).
    let neg = negated_scope(q);
    let valid_q = |id: QNodeId| id.index() < q.nodes.len();
    let check_ref = |what: &str, src: QNodeId, span: gql_ssdm::Span, out: &mut Vec<Diagnostic>| {
        if !valid_q(src) {
            out.push(
                Diagnostic::new(
                    Code::XmlGlIllFormed,
                    format!("{what} references a missing query node"),
                )
                .with_span(span),
            );
        } else if neg.contains(&src) {
            let name = q
                .node(src)
                .var
                .as_ref()
                .map(|v| format!("${v}"))
                .unwrap_or_else(|| format!("query node {}", src.0));
            out.push(
                Diagnostic::new(
                    Code::UnsafeConstruct,
                    format!(
                        "unsafe construct part: {what} references {name} inside a \
                         negated subtree, which can never bind"
                    ),
                )
                .with_span(span)
                .with_help(
                    "every construct-side reference must be positively bound \
                     on the extract side (range restriction)",
                ),
            );
        }
    };
    for id in g.ids() {
        let n = g.node(id);
        match &n.kind {
            CNodeKind::Element(name) => {
                if name.is_empty() {
                    out.push(
                        Diagnostic::new(
                            Code::XmlGlIllFormed,
                            "constructed elements need a tag name",
                        )
                        .with_span(n.span),
                    );
                }
            }
            CNodeKind::Text(_) => {
                if !n.children.is_empty() {
                    out.push(
                        Diagnostic::new(
                            Code::XmlGlIllFormed,
                            "text nodes are leaves on the construct side",
                        )
                        .with_span(n.span),
                    );
                }
            }
            CNodeKind::Attribute { value, .. } => {
                if !n.children.is_empty() {
                    out.push(
                        Diagnostic::new(
                            Code::XmlGlIllFormed,
                            "attribute nodes are leaves on the construct side",
                        )
                        .with_span(n.span),
                    );
                }
                if let CValue::Binding(src) = value {
                    check_ref("attribute value", *src, n.span, out);
                }
            }
            CNodeKind::Copy { source, .. } => {
                if !n.children.is_empty() {
                    out.push(
                        Diagnostic::new(
                            Code::XmlGlIllFormed,
                            "copy/all nodes are leaves on the construct side",
                        )
                        .with_span(n.span),
                    );
                }
                check_ref("copy", *source, n.span, out);
            }
            CNodeKind::All { source, order } => {
                if !n.children.is_empty() {
                    out.push(
                        Diagnostic::new(
                            Code::XmlGlIllFormed,
                            "copy/all nodes are leaves on the construct side",
                        )
                        .with_span(n.span),
                    );
                }
                check_ref("binding", *source, n.span, out);
                if let Some(spec) = order {
                    check_ref("order-by key", spec.key, n.span, out);
                }
            }
            CNodeKind::GroupBy {
                source,
                key,
                wrapper,
            } => {
                if !n.children.is_empty() {
                    out.push(
                        Diagnostic::new(
                            Code::XmlGlIllFormed,
                            "group-by nodes are leaves on the construct side",
                        )
                        .with_span(n.span),
                    );
                }
                if wrapper.is_empty() {
                    out.push(
                        Diagnostic::new(
                            Code::XmlGlIllFormed,
                            "group-by needs a wrapper element name",
                        )
                        .with_span(n.span),
                    );
                }
                if !valid_q(*source) || !valid_q(*key) {
                    out.push(
                        Diagnostic::new(
                            Code::XmlGlIllFormed,
                            "group-by references a missing query node",
                        )
                        .with_span(n.span),
                    );
                } else {
                    check_ref("group-by source", *source, n.span, out);
                    check_ref("group-by key", *key, n.span, out);
                }
            }
            CNodeKind::Aggregate { source, .. } => {
                if !n.children.is_empty() {
                    out.push(
                        Diagnostic::new(
                            Code::XmlGlIllFormed,
                            "aggregate nodes are leaves on the construct side",
                        )
                        .with_span(n.span),
                    );
                }
                if !valid_q(*source) {
                    out.push(
                        Diagnostic::new(
                            Code::XmlGlIllFormed,
                            "aggregate references a missing query node",
                        )
                        .with_span(n.span),
                    );
                } else {
                    check_ref("aggregate", *source, n.span, out);
                }
            }
        }
        // Attributes must hang off element nodes.
        for &c in &n.children {
            if matches!(g.node(c).kind, CNodeKind::Attribute { .. })
                && !matches!(n.kind, CNodeKind::Element(_))
            {
                out.push(
                    Diagnostic::new(
                        Code::XmlGlIllFormed,
                        "attributes can only be attached to constructed elements",
                    )
                    .with_span(g.node(c).span),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use gql_ssdm::Severity;

    fn minimal_rule() -> Rule {
        let mut extract = ExtractGraph::default();
        let b = extract.add(QNode::element(NameTest::Name("book".into())));
        extract.roots.push(b);
        let mut construct = ConstructGraph::default();
        let out = construct.add(CNode::new(CNodeKind::Element("out".into())));
        construct.roots.push(out);
        Rule {
            extract,
            construct,
            span: Span::none(),
        }
    }

    #[test]
    fn minimal_rule_is_wellformed() {
        assert!(check_rule(&minimal_rule()).is_ok());
        assert!(rule_diagnostics(&minimal_rule()).is_empty());
    }

    #[test]
    fn empty_program_rejected() {
        assert!(check_program(&Program::default()).is_err());
    }

    #[test]
    fn program_error_names_the_rule_and_root_label() {
        let mut bad = minimal_rule();
        bad.extract.roots.clear();
        let p = Program {
            rules: vec![minimal_rule(), bad],
        };
        let err = check_program(&p).unwrap_err();
        assert!(err.to_string().contains("rule 2"), "{err}");
        // A rule that still has a root is labelled with its element name.
        let mut dup = minimal_rule();
        let root = dup.extract.roots[0];
        dup.extract.node_mut(root).var = Some("x".into());
        let mut t = QNode::text();
        t.var = Some("x".into());
        let t = dup.extract.add(t);
        dup.extract.node_mut(root).children.push(QEdge::child(t));
        let p = Program {
            rules: vec![minimal_rule(), dup],
        };
        let err = check_program(&p).unwrap_err().to_string();
        assert!(err.contains("rule 2 (book)"), "{err}");
    }

    #[test]
    fn diagnostics_carry_codes_and_spans() {
        let src = "rule {\n  extract {\n    book as $b {\n      not menu as $m\n    }\n  }\n  construct { out { all $b } }\n}";
        let p = crate::dsl::parse_unchecked(src).unwrap();
        let ds = diagnostics(&p);
        assert_eq!(ds.len(), 1, "{ds:?}");
        let d = &ds[0];
        assert_eq!(d.code, Code::NegationScope);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.rule.as_deref(), Some("rule 1 (book)"));
        assert_eq!((d.span.line, d.span.col), (4, 11)); // the `menu` box
    }

    #[test]
    fn unsafe_construct_reference_is_gql004() {
        // Builder-style assembly: construct references a node under a
        // negated edge without binding a variable inside it.
        let mut rule = minimal_rule();
        let root = rule.extract.roots[0];
        let neg = rule
            .extract
            .add(QNode::element(NameTest::Name("menu".into())));
        rule.extract
            .node_mut(root)
            .children
            .push(QEdge::negated(neg));
        let out = rule.construct.roots[0];
        let bad = rule.construct.add(CNode::new(CNodeKind::Copy {
            source: neg,
            deep: true,
        }));
        rule.construct.node_mut(out).children.push(bad);
        let ds = rule_diagnostics(&rule);
        assert!(ds.iter().any(|d| d.code == Code::UnsafeConstruct), "{ds:?}");
        assert!(check_rule(&rule).is_err());
    }

    #[test]
    fn text_with_children_rejected() {
        let mut rule = minimal_rule();
        let t = rule.extract.add(QNode::text());
        let c = rule.extract.add(QNode::element(NameTest::Wildcard));
        rule.extract.node_mut(t).children.push(QEdge::child(c));
        let root = rule.extract.roots[0];
        rule.extract.node_mut(root).children.push(QEdge::child(t));
        assert!(check_rule(&rule)
            .unwrap_err()
            .to_string()
            .contains("circles"));
    }

    #[test]
    fn text_root_rejected() {
        let mut rule = minimal_rule();
        let t = rule.extract.add(QNode::text());
        rule.extract.roots = vec![t];
        assert!(check_rule(&rule)
            .unwrap_err()
            .to_string()
            .contains("element boxes"));
    }

    #[test]
    fn duplicate_variable_rejected() {
        let mut rule = minimal_rule();
        let root = rule.extract.roots[0];
        rule.extract.node_mut(root).var = Some("x".into());
        let mut t = QNode::text();
        t.var = Some("x".into());
        let t = rule.extract.add(t);
        rule.extract.node_mut(root).children.push(QEdge::child(t));
        assert!(check_rule(&rule)
            .unwrap_err()
            .to_string()
            .contains("bound twice"));
        assert_eq!(rule_diagnostics(&rule)[0].code, Code::DuplicateVariable);
    }

    #[test]
    fn two_parents_rejected() {
        let mut rule = minimal_rule();
        let root = rule.extract.roots[0];
        let a = rule.extract.add(QNode::element(NameTest::Name("a".into())));
        let shared = rule.extract.add(QNode::text());
        rule.extract.node_mut(root).children.push(QEdge::child(a));
        rule.extract
            .node_mut(root)
            .children
            .push(QEdge::child(shared));
        rule.extract.node_mut(a).children.push(QEdge::child(shared));
        assert!(check_rule(&rule)
            .unwrap_err()
            .to_string()
            .contains("join instead"));
    }

    #[test]
    fn variable_in_negation_rejected() {
        let mut rule = minimal_rule();
        let root = rule.extract.roots[0];
        let mut neg = QNode::element(NameTest::Name("menu".into()));
        neg.var = Some("m".into());
        let neg = rule.extract.add(neg);
        rule.extract
            .node_mut(root)
            .children
            .push(QEdge::negated(neg));
        assert!(check_rule(&rule)
            .unwrap_err()
            .to_string()
            .contains("negated"));
        assert_eq!(rule_diagnostics(&rule)[0].code, Code::NegationScope);
    }

    #[test]
    fn join_into_negated_subtree_rejected() {
        let mut rule = minimal_rule();
        let root = rule.extract.roots[0];
        rule.extract.node_mut(root).var = Some("b".into());
        let neg = rule
            .extract
            .add(QNode::element(NameTest::Name("menu".into())));
        rule.extract
            .node_mut(root)
            .children
            .push(QEdge::negated(neg));
        rule.extract.joins.push((root, neg));
        assert!(check_rule(&rule)
            .unwrap_err()
            .to_string()
            .contains("negated subtree"));
    }

    #[test]
    fn self_join_rejected() {
        let mut rule = minimal_rule();
        let root = rule.extract.roots[0];
        rule.extract.joins.push((root, root));
        assert!(check_rule(&rule)
            .unwrap_err()
            .to_string()
            .contains("distinct"));
    }

    #[test]
    fn construct_root_must_be_element() {
        let mut rule = minimal_rule();
        let root = rule.extract.roots[0];
        let mut construct = ConstructGraph::default();
        let c = construct.add(CNode::new(CNodeKind::All {
            source: root,
            order: None,
        }));
        construct.roots.push(c);
        rule.construct = construct;
        assert!(check_rule(&rule)
            .unwrap_err()
            .to_string()
            .contains("construct roots"));
    }

    #[test]
    fn attribute_under_non_element_rejected() {
        let mut rule = minimal_rule();
        let out = rule.construct.roots[0];
        let txt = rule.construct.add(CNode::new(CNodeKind::Text("x".into())));
        let attr = rule.construct.add(CNode::new(CNodeKind::Attribute {
            name: "a".into(),
            value: CValue::Literal("1".into()),
        }));
        rule.construct.node_mut(out).children.push(txt);
        rule.construct.node_mut(txt).children.push(attr);
        let err = check_rule(&rule).unwrap_err().to_string();
        assert!(err.contains("leaves") || err.contains("attached"), "{err}");
    }

    #[test]
    fn missing_query_node_reference_rejected() {
        let mut rule = minimal_rule();
        let out = rule.construct.roots[0];
        let bad = rule.construct.add(CNode::new(CNodeKind::All {
            source: QNodeId(99),
            order: None,
        }));
        rule.construct.node_mut(out).children.push(bad);
        assert!(check_rule(&rule)
            .unwrap_err()
            .to_string()
            .contains("missing query node"));
    }
}
