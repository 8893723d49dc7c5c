//! Translation between XML-GL and WG-Log.
//!
//! The two languages look at the same data through different models: XML-GL
//! matches the document tree directly, WG-Log matches the complex-object
//! graph produced by [`gql_wglog::instance::Instance::from_document`]. The
//! translators below are faithful *with respect to that loader*: a
//! translated query, run by the other engine over the loaded instance,
//! selects the same things. Their gaps are the measured expressiveness
//! differences of experiment T2:
//!
//! | XML-GL feature | WG-Log fate |
//! |---|---|
//! | atomic child + text predicate | object attribute constraint |
//! | *bare* child box (no content drawn) | object edge — **caveat**: if the data instance folds that element into an attribute (text-only or *empty* in the document), the translated query matches nothing; draw a text circle to get a constraint instead |
//!
//! Loader-fold caveats (the translators are pattern-directed; the loader is
//! data-directed, and the two can disagree):
//!
//! * `atomic_child` assumes the matched element is attribute-free and
//!   element-free *in the data*; an element like `<category lang='en'>…`
//!   stays an object in the instance, so the folded constraint misses it;
//! * element/text predicates become constraints on the loader's `text`
//!   attribute, which holds the element's *own* text — XML-GL predicates
//!   read the full recursive `text_content`, so mixed content can differ;
//! * the inverse direction renders non-`text` constraints as atomic child
//!   patterns; XML-attribute-backed data needs the pattern drawn with an
//!   attribute circle instead.
//!
//! Where exactness matters, check the translated query against a
//! [`gql_wglog::schema::WgSchema`] extracted from the instance.
//! | value join (shared text node) | **untranslatable** (WG-Log joins by object identity) |
//! | deep (asterisk) edge | **untranslatable** (labels vary per step) |
//! | ordered matching | **untranslatable** |
//! | aggregation / restructuring construction | **untranslatable** (beyond member-collection) |
//!
//! | WG-Log feature | XML-GL fate |
//! |---|---|
//! | recursion (fixpoint through derived edges) | **untranslatable** |
//! | regular path edges | **untranslatable** |
//! | edge label ≠ target type | **untranslatable** (containment labels are tags) |
//! | attribute copies onto invented objects | **untranslatable** |

use gql_wglog::rule as wg;
use gql_xmlgl::ast as xg;
use gql_xmlgl::builder as xb;

use crate::{CoreError, Result};

fn unsupported(feature: &str, detail: impl Into<String>) -> CoreError {
    CoreError::Untranslatable {
        feature: feature.to_string(),
        detail: detail.into(),
    }
}

/// Is this pattern node drawn as an "atomic" element — a named box whose
/// pattern content is purely textual (text circles and/or a predicate)?
/// The instance loader folds such elements into parent attributes, so they
/// translate to constraints. A *bare* box (no content at all) is treated as
/// an object edge instead: that is how one draws "has a menu", and atomic
/// data would carry a text circle in the pattern.
fn atomic_child(g: &xg::ExtractGraph, id: xg::QNodeId) -> Option<(&str, xg::Predicate)> {
    let n = g.node(id);
    let xg::QNodeKind::Element(xg::NameTest::Name(tag)) = &n.kind else {
        return None;
    };
    if n.children.is_empty() && n.predicate.is_trivial() {
        return None;
    }
    let mut pred = n.predicate.clone();
    for edge in &n.children {
        if edge.deep || edge.negated {
            return None;
        }
        match &g.node(edge.target).kind {
            xg::QNodeKind::Text => {
                let tn = g.node(edge.target);
                for clause in &tn.predicate.clauses {
                    pred.clauses.push(clause.clone());
                }
            }
            _ => return None,
        }
    }
    Some((tag, pred))
}

/// Single comparison extraction: WG-Log constraints are single comparisons,
/// so CNF predicates with disjunctions do not translate.
fn pred_to_constraints(attr: &str, pred: &xg::Predicate) -> Result<Vec<wg::Constraint>> {
    let mut out = Vec::new();
    for clause in &pred.clauses {
        if clause.len() != 1 {
            return Err(unsupported(
                "disjunctive-predicate",
                "WG-Log constraints are conjunctive single comparisons",
            ));
        }
        let (op, value) = &clause[0];
        out.push(wg::Constraint {
            attr: attr.to_string(),
            op: *op,
            value: value.clone(),
        });
    }
    if out.is_empty() {
        // Bare attribute circle: existence check. `contains ""` holds for
        // any present value.
        out.push(wg::Constraint {
            attr: attr.to_string(),
            op: wg::CmpOp::Contains,
            value: String::new(),
        });
    }
    Ok(out)
}

/// Translate an XML-GL rule into a WG-Log program over the loaded instance.
pub fn xmlgl_to_wglog(rule: &xg::Rule) -> Result<wg::Program> {
    let g = &rule.extract;
    if !g.joins.is_empty() {
        return Err(unsupported(
            "value-join",
            "XML-GL joins compare content; WG-Log joins are object identity",
        ));
    }
    let mut out = wg::Rule::default();
    // Query nodes the construct side actually uses: bindings on these may
    // not be folded away.
    let mut used: Vec<bool> = vec![false; g.nodes.len()];
    for n in &rule.construct.nodes {
        match &n.kind {
            xg::CNodeKind::Copy { source, .. }
            | xg::CNodeKind::All { source, .. }
            | xg::CNodeKind::Aggregate { source, .. } => used[source.index()] = true,
            xg::CNodeKind::GroupBy { source, key, .. } => {
                used[source.index()] = true;
                used[key.index()] = true;
            }
            xg::CNodeKind::Attribute {
                value: xg::CValue::Binding(source),
                ..
            } => used[source.index()] = true,
            _ => {}
        }
    }
    // Query-node mapping: xmlgl node id → wglog var name.
    let mut var_of: Vec<Option<String>> = vec![None; g.nodes.len()];
    let mut counter = 0usize;

    // Collapsed atomic children become constraints on their parent — record
    // which nodes vanish. Generated names must not collide with user vars.
    let user_vars: std::collections::HashSet<String> =
        g.nodes.iter().filter_map(|n| n.var.clone()).collect();
    let mut fresh = move |hint: Option<&String>| {
        if let Some(h) = hint {
            return h.clone();
        }
        loop {
            counter += 1;
            let candidate = format!("v{counter}");
            if !user_vars.contains(&candidate) {
                return candidate;
            }
        }
    };

    for &root in &g.roots {
        translate_qnode(g, root, &mut out, &mut var_of, &used, &mut fresh)?;
    }

    // Construct side.
    let mut goal = None;
    for &croot in &rule.construct.roots {
        let root_node = rule.construct.node(croot);
        let xg::CNodeKind::Element(tag) = &root_node.kind else {
            return Err(unsupported(
                "xml-construction",
                "construct root must be an element",
            ));
        };
        let mut list_var = format!("c{}", croot.0);
        while out.by_var(&list_var).is_some() {
            list_var.push('_');
        }
        out.nodes.push(wg::RNode {
            var: list_var.clone(),
            test: wg::TypeTest::Type(tag.clone()),
            color: wg::Color::Construct,
            constraints: Vec::new(),
            set_attrs: Vec::new(),
            per: Vec::new(),
            span: root_node.span,
        });
        goal.get_or_insert(tag.clone());
        for &child in &root_node.children {
            match &rule.construct.node(child).kind {
                xg::CNodeKind::All {
                    source,
                    order: None,
                } => {
                    let src_var = var_of[source.index()].clone().ok_or_else(|| {
                        unsupported(
                            "atomic-binding",
                            "collected node was folded into an attribute constraint",
                        )
                    })?;
                    let from = out.by_var(&list_var).expect("just added");
                    let to = out.by_var(&src_var).expect("translated query node");
                    out.edges.push(wg::REdge {
                        from,
                        to,
                        label: wg::LabelTest::Label("member".into()),
                        color: wg::Color::Construct,
                        negated: false,
                    });
                }
                xg::CNodeKind::Attribute {
                    name,
                    value: xg::CValue::Literal(v),
                } => {
                    let id = out.by_var(&list_var).expect("just added");
                    out.nodes[id.index()]
                        .set_attrs
                        .push((name.clone(), wg::AttrValue::Literal(v.clone())));
                }
                other => {
                    return Err(unsupported(
                        "xml-construction",
                        format!("construct feature {other:?} has no WG-Log counterpart"),
                    ))
                }
            }
        }
    }
    out.check()
        .map_err(|e| CoreError::Engine { msg: e.to_string() })?;
    let program = wg::Program {
        rules: vec![out],
        goal,
    };
    // The translation renders negated subtrees as negated query edges and
    // construction as derived `member` edges. When a negated edge's label
    // test can observe a derived label (a wildcard `not *` box, or a box
    // whose tag collides with `member`), the program negates through its
    // own derivation — WG-Log's stratified semantics reject it, so report
    // the pattern as a translation gap rather than hand over a program the
    // engine cannot run.
    if let Err(e) = gql_wglog::eval::stratify(&program) {
        return Err(unsupported("unstratifiable-negation", e.to_string()));
    }
    Ok(program)
}

fn translate_qnode(
    g: &xg::ExtractGraph,
    id: xg::QNodeId,
    out: &mut wg::Rule,
    var_of: &mut Vec<Option<String>>,
    used: &[bool],
    fresh: &mut impl FnMut(Option<&String>) -> String,
) -> Result<()> {
    let node = g.node(id);
    let test = match &node.kind {
        xg::QNodeKind::Element(xg::NameTest::Name(n)) => wg::TypeTest::Type(n.clone()),
        xg::QNodeKind::Element(xg::NameTest::Wildcard) => wg::TypeTest::Any,
        _ => {
            return Err(unsupported(
                "non-element-root",
                "text/attribute circles translate as parent constraints",
            ))
        }
    };
    if g.ordered[id.index()] {
        return Err(unsupported(
            "ordered-matching",
            "WG-Log graphs are unordered",
        ));
    }
    let var = fresh(node.var.as_ref());
    var_of[id.index()] = Some(var.clone());
    let mut constraints = Vec::new();
    if !node.predicate.is_trivial() {
        // Element predicate reads the text content; the loader stores own
        // text under the `text` attribute.
        constraints.extend(pred_to_constraints("text", &node.predicate)?);
    }
    let mut deferred_edges: Vec<(xg::QNodeId, String)> = Vec::new();
    for edge in &node.children {
        let child = g.node(edge.target);
        if edge.deep {
            return Err(unsupported(
                "deep-edge",
                "asterisk edges have no label sequence",
            ));
        }
        match &child.kind {
            xg::QNodeKind::Attribute(attr) => {
                if edge.negated {
                    return Err(unsupported("negated-attribute", "no attribute negation"));
                }
                if used[edge.target.index()] {
                    return Err(unsupported(
                        "atomic-binding",
                        "attribute values cannot be bound in WG-Log",
                    ));
                }
                constraints.extend(pred_to_constraints(attr, &child.predicate)?);
            }
            xg::QNodeKind::Text => {
                if edge.negated {
                    return Err(unsupported("negated-text", "no text negation"));
                }
                if used[edge.target.index()] {
                    return Err(unsupported(
                        "atomic-binding",
                        "text values cannot be bound in WG-Log",
                    ));
                }
                constraints.extend(pred_to_constraints("text", &child.predicate)?);
            }
            xg::QNodeKind::Element(_) => {
                if let Some((tag, pred)) = atomic_child(g, edge.target) {
                    if edge.negated {
                        return Err(unsupported(
                            "complex-negation",
                            "negated atomic children fold into attributes",
                        ));
                    }
                    if used[edge.target.index()]
                        || child.children.iter().any(|e| used[e.target.index()])
                    {
                        return Err(unsupported(
                            "atomic-binding",
                            format!("atomic <{tag}> folds into an attribute; its binding is lost"),
                        ));
                    }
                    constraints.extend(pred_to_constraints(tag, &pred)?);
                } else {
                    let tag = match &child.kind {
                        xg::QNodeKind::Element(xg::NameTest::Name(n)) => n.clone(),
                        _ => "*".to_string(),
                    };
                    deferred_edges.push((edge.target, tag));
                    if edge.negated {
                        // Negated structured subtree: only a bare box is
                        // expressible (existential negated edge).
                        if !child.children.is_empty() || !child.predicate.is_trivial() {
                            return Err(unsupported(
                                "complex-negation",
                                "negation beyond a bare box",
                            ));
                        }
                    }
                }
            }
        }
    }
    out.nodes.push(wg::RNode {
        var: var.clone(),
        test,
        color: wg::Color::Query,
        constraints,
        set_attrs: Vec::new(),
        per: Vec::new(),
        span: g.node(id).span,
    });
    for (target, tag) in deferred_edges {
        translate_qnode(g, target, out, var_of, used, fresh)?;
        let from = out.by_var(&var).expect("just added");
        let to_var = var_of[target.index()].clone().expect("child translated");
        let to = out.by_var(&to_var).expect("child translated");
        let negated = g
            .node(id)
            .children
            .iter()
            .find(|e| e.target == target)
            .map(|e| e.negated)
            .unwrap_or(false);
        out.edges.push(wg::REdge {
            from,
            to,
            label: if tag == "*" {
                wg::LabelTest::Any
            } else {
                wg::LabelTest::Label(tag)
            },
            color: wg::Color::Query,
            negated,
        });
    }
    Ok(())
}

/// Translate a WG-Log program into an XML-GL rule over the raw document.
pub fn wglog_to_xmlgl(program: &wg::Program) -> Result<xg::Program> {
    if program.rules.len() != 1 {
        return Err(unsupported(
            "multi-rule",
            "XML-GL has no rule chaining / recursion",
        ));
    }
    let rule = &program.rules[0];
    // Recursion check: anything the rule constructs (object types or edge
    // labels) observed by its query part? XML-GL evaluates in one pass, so
    // any feedback loop changes semantics. Wildcard query nodes observe
    // every type, so inventing anything at all makes them recursive.
    let construct_types: Vec<&str> = rule
        .construct_nodes()
        .filter_map(|id| match &rule.node(id).test {
            wg::TypeTest::Type(t) => Some(t.as_str()),
            wg::TypeTest::Any => None,
        })
        .collect();
    let construct_labels: Vec<&str> = rule
        .edges
        .iter()
        .filter(|e| e.color == wg::Color::Construct)
        .filter_map(|e| match &e.label {
            wg::LabelTest::Label(l) => Some(l.as_str()),
            _ => None,
        })
        .collect();
    for q in rule.query_nodes() {
        match &rule.node(q).test {
            wg::TypeTest::Type(t) => {
                if construct_types.contains(&t.as_str()) {
                    return Err(unsupported("recursion", "rule consumes what it derives"));
                }
            }
            wg::TypeTest::Any => {
                if !construct_types.is_empty() {
                    return Err(unsupported(
                        "recursion",
                        "a wildcard query node observes every invented object",
                    ));
                }
            }
        }
    }
    for e in &rule.edges {
        if e.color != wg::Color::Query {
            continue;
        }
        let observes = |l: &str| construct_labels.contains(&l);
        let recursive = match &e.label {
            wg::LabelTest::Label(l) => observes(l),
            wg::LabelTest::Any => !construct_labels.is_empty(),
            wg::LabelTest::Regex(re) => re.labels.iter().any(|l| observes(l)),
        };
        if recursive {
            return Err(unsupported(
                "recursion",
                "a query edge observes an edge label the rule derives",
            ));
        }
    }

    // The query part must be a forest whose edge labels equal the child
    // node's type (the loader invariant), without regular paths.
    let qnodes: Vec<wg::RNodeId> = rule.query_nodes().collect();
    let mut incoming: Vec<usize> = vec![0; rule.nodes.len()];
    for e in &rule.edges {
        if e.color != wg::Color::Query {
            continue;
        }
        match &e.label {
            wg::LabelTest::Regex(_) => {
                return Err(unsupported(
                    "regular-path",
                    "XML-GL has no path expressions",
                ))
            }
            wg::LabelTest::Any => {
                return Err(unsupported("any-label", "containment labels are tag names"))
            }
            wg::LabelTest::Label(l) => {
                let target = rule.node(e.to);
                match &target.test {
                    wg::TypeTest::Type(t) if t == l => {}
                    _ => {
                        return Err(unsupported(
                            "labelled-edge",
                            format!("edge label '{l}' differs from target type"),
                        ))
                    }
                }
            }
        }
        incoming[e.to.index()] += 1;
        if !e.negated && incoming[e.to.index()] > 1 {
            return Err(unsupported(
                "dag-pattern",
                "a node with two containment parents is a join in XML-GL",
            ));
        }
    }

    // Build Q trees for the roots (query nodes without positive incoming
    // edges).
    let mut builder = xb::RuleBuilder::new();
    for &q in &qnodes {
        if incoming[q.index()] == 0 {
            builder = builder.extract(build_q(rule, q)?);
        }
    }

    // Construct: each construct node becomes an element with `all` children
    // per member edge; literal set_attrs become attributes.
    let mut any_construct = false;
    for c in rule.construct_nodes() {
        let node = rule.node(c);
        let wg::TypeTest::Type(tag) = &node.test else {
            return Err(unsupported(
                "untyped-construct",
                "construct nodes need types",
            ));
        };
        if !node.per.is_empty() {
            return Err(unsupported(
                "per-invention",
                "XML-GL construction has no per-binding invention",
            ));
        }
        let mut tree = xb::C::elem(tag.clone());
        for (attr, value) in &node.set_attrs {
            match value {
                wg::AttrValue::Literal(v) => {
                    tree = tree.child(xb::C::attr(attr.clone(), v.clone()));
                }
                wg::AttrValue::CopyFrom { .. } => {
                    return Err(unsupported(
                        "attr-copy",
                        "attribute copies have no XML-GL counterpart",
                    ))
                }
            }
        }
        for e in &rule.edges {
            if e.color == wg::Color::Construct && e.from == c {
                let target = rule.node(e.to);
                if target.color != wg::Color::Query {
                    return Err(unsupported(
                        "construct-chain",
                        "edges between invented objects",
                    ));
                }
                tree = tree.child(xb::C::all(target.var.clone()));
            }
        }
        builder = builder.construct(tree);
        any_construct = true;
    }
    if !any_construct {
        return Err(unsupported(
            "edge-only-construct",
            "XML-GL rules construct elements",
        ));
    }
    let rule = builder
        .build()
        .map_err(|e| CoreError::Engine { msg: e.to_string() })?;
    Ok(xg::Program::single(rule))
}

fn build_q(rule: &wg::Rule, id: wg::RNodeId) -> Result<xb::Q> {
    let node = rule.node(id);
    let mut q = match &node.test {
        wg::TypeTest::Type(t) => xb::Q::elem(t.clone()),
        wg::TypeTest::Any => xb::Q::any(),
    };
    q = q.var(node.var.clone());
    for c in &node.constraints {
        // Loader inverse: `text` constraints talk about the element's own
        // text; everything else about an attribute-or-atomic-child, which
        // we render as an atomic child pattern (the loader folds both the
        // same way).
        if c.attr == "text" {
            q = q.child(xb::Q::text().pred(c.op, c.value.clone()));
        } else {
            q = q.child(
                xb::Q::elem(c.attr.clone()).child(xb::Q::text().pred(c.op, c.value.clone())),
            );
        }
    }
    for e in &rule.edges {
        if e.color != wg::Color::Query || e.from != id {
            continue;
        }
        let sub = build_q(rule, e.to)?;
        q = if e.negated {
            q.without(sub)
        } else {
            q.child(sub)
        };
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_ssdm::Document;
    use gql_wglog::instance::Instance;
    use gql_wglog::rule::RuleBuilder as WgBuilder;
    use gql_xmlgl::builder::{RuleBuilder, C, Q};

    fn guide_doc() -> Document {
        Document::parse_str(
            "<guide>\
               <restaurant><name>Roma</name><category>italian</category>\
                 <menu><price>20</price><dish>risotto</dish></menu></restaurant>\
               <restaurant><name>Milano</name><category>french</category></restaurant>\
               <restaurant><name>Next</name><category>italian</category>\
                 <menu><price>50</price><dish>caviar</dish></menu></restaurant>\
             </guide>",
        )
        .unwrap()
    }

    #[test]
    fn xmlgl_to_wglog_f1_equivalent() {
        // XML-GL: restaurants with a menu → result with all of them.
        let rule = RuleBuilder::new()
            .extract(
                Q::elem("restaurant")
                    .var("r")
                    .child(Q::elem("menu").var("m")),
            )
            .construct(C::elem("rest-list").child(C::all("r")))
            .build()
            .unwrap();
        let doc = guide_doc();

        // XML-GL engine directly on the document.
        let direct = gql_xmlgl::eval::run_rule(&rule, &doc).unwrap();
        let direct_count = direct
            .child_elements(direct.root_element().unwrap())
            .count();

        // Translated program on the loaded instance.
        let program = xmlgl_to_wglog(&rule).unwrap();
        assert_eq!(program.goal.as_deref(), Some("rest-list"));
        let db = Instance::from_document(&doc);
        let out = gql_wglog::eval::run(&program, &db).unwrap();
        let lists: Vec<_> = out.objects_of_type("rest-list").collect();
        assert_eq!(lists.len(), 1);
        assert_eq!(out.out_edges(lists[0]).count(), direct_count);
        assert_eq!(direct_count, 2);
    }

    #[test]
    fn xmlgl_atomic_children_become_constraints() {
        let rule = RuleBuilder::new()
            .extract(Q::elem("restaurant").var("r").child(
                Q::elem("category").child(Q::text().pred(gql_xmlgl::ast::CmpOp::Eq, "italian")),
            ))
            .construct(C::elem("out").child(C::all("r")))
            .build()
            .unwrap();
        let program = xmlgl_to_wglog(&rule).unwrap();
        let wrule = &program.rules[0];
        let r = wrule.by_var("r").unwrap();
        assert_eq!(wrule.node(r).constraints.len(), 1);
        assert_eq!(wrule.node(r).constraints[0].attr, "category");
        // Runs and selects the italian restaurants.
        let db = Instance::from_document(&guide_doc());
        let out = gql_wglog::eval::run(&program, &db).unwrap();
        let l = out.objects_of_type("out").next().unwrap();
        assert_eq!(out.out_edges(l).count(), 2);
    }

    #[test]
    fn xmlgl_untranslatables() {
        let join = RuleBuilder::new()
            .extract(Q::elem("a").child(Q::text().var("x")))
            .extract(Q::elem("b").child(Q::text().var("y")))
            .join("x", "y")
            .construct(C::elem("out"))
            .build()
            .unwrap();
        assert_feature(&join, "value-join");

        let deep = RuleBuilder::new()
            .extract(Q::elem("a").var("a").deep_child(Q::elem("b").var("b")))
            .construct(C::elem("out").child(C::all("b")))
            .build()
            .unwrap();
        assert_feature(&deep, "deep-edge");

        let ordered = RuleBuilder::new()
            .extract(
                Q::elem("a")
                    .var("a")
                    .ordered()
                    .child(Q::elem("b").var("x"))
                    .child(Q::elem("c").var("y")),
            )
            .construct(C::elem("out").child(C::all("a")))
            .build()
            .unwrap();
        assert_feature(&ordered, "ordered-matching");

        let agg = RuleBuilder::new()
            .extract(Q::elem("a").var("a"))
            .construct(C::elem("out").child(C::agg(gql_xmlgl::ast::AggFunc::Count, "a")))
            .build()
            .unwrap();
        assert_feature(&agg, "xml-construction");
    }

    fn assert_feature(rule: &xg::Rule, feature: &str) {
        match xmlgl_to_wglog(rule) {
            Err(CoreError::Untranslatable { feature: f, .. }) => assert_eq!(f, feature),
            other => panic!("expected untranslatable {feature}, got {other:?}"),
        }
    }

    #[test]
    fn wglog_to_xmlgl_roundtrip_semantics() {
        // WG-Log F1 (labels equal target types, as the loader produces).
        let rule = WgBuilder::new()
            .query_node("r", "restaurant")
            .query_node("m", "menu")
            .construct_node("l", "rest-list")
            .query_edge("r", "menu", "m")
            .unwrap()
            .construct_edge("l", "member", "r")
            .unwrap()
            .build()
            .unwrap();
        let program = wg::Program {
            rules: vec![rule],
            goal: Some("rest-list".into()),
        };
        let xp = wglog_to_xmlgl(&program).unwrap();
        let doc = guide_doc();
        let out = gql_xmlgl::eval::run(&xp, &doc).unwrap();
        let root = out.root_element().unwrap();
        assert_eq!(out.name(root), Some("rest-list"));
        assert_eq!(out.child_elements(root).count(), 2);
    }

    #[test]
    fn wglog_untranslatables() {
        // Recursion.
        let base = WgBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_edge("a", "doc", "b")
            .unwrap()
            .construct_edge("a", "reach", "b")
            .unwrap()
            .build()
            .unwrap();
        let step = WgBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_edge("a", "reach", "b")
            .unwrap()
            .construct_edge("a", "reach", "b")
            .unwrap()
            .build()
            .unwrap();
        let p = wg::Program {
            rules: vec![base, step],
            goal: None,
        };
        match wglog_to_xmlgl(&p) {
            Err(CoreError::Untranslatable { feature, .. }) => assert_eq!(feature, "multi-rule"),
            other => panic!("unexpected {other:?}"),
        }

        // Regular paths.
        let path = WgBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .path_edge(
                "a",
                wg::PathRe {
                    labels: vec!["link".into()],
                    rep: wg::PathRep::Plus,
                },
                "b",
            )
            .unwrap()
            .construct_node("l", "out")
            .construct_edge("l", "member", "a")
            .unwrap()
            .build()
            .unwrap();
        let p = wg::Program {
            rules: vec![path],
            goal: None,
        };
        match wglog_to_xmlgl(&p) {
            Err(CoreError::Untranslatable { feature, .. }) => {
                assert_eq!(feature, "regular-path")
            }
            other => panic!("unexpected {other:?}"),
        }

        // Label ≠ type.
        let label = WgBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_edge("a", "cites", "b")
            .unwrap()
            .construct_node("l", "out")
            .construct_edge("l", "member", "a")
            .unwrap()
            .build()
            .unwrap();
        let p = wg::Program {
            rules: vec![label],
            goal: None,
        };
        match wglog_to_xmlgl(&p) {
            Err(CoreError::Untranslatable { feature, .. }) => {
                assert_eq!(feature, "labelled-edge")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_rule_self_recursion_is_caught() {
        // One rule that both derives and observes the `reach` label.
        let rule = WgBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_edge("a", "reach", "b")
            .unwrap()
            .construct_edge("b", "reach", "a")
            .unwrap()
            .build()
            .unwrap();
        let p = wg::Program {
            rules: vec![rule],
            goal: None,
        };
        match wglog_to_xmlgl(&p) {
            Err(CoreError::Untranslatable { feature, .. }) => assert_eq!(feature, "recursion"),
            other => panic!("unexpected {other:?}"),
        }
        // A wildcard query node with any invention is recursive too.
        let rule = WgBuilder::new()
            .query_node("x", "*")
            .construct_node("l", "list")
            .construct_edge("l", "member", "x")
            .unwrap()
            .build()
            .unwrap();
        let p = wg::Program {
            rules: vec![rule],
            goal: None,
        };
        match wglog_to_xmlgl(&p) {
            Err(CoreError::Untranslatable { feature, .. }) => assert_eq!(feature, "recursion"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wglog_constraints_become_child_patterns() {
        let rule = WgBuilder::new()
            .query_node("r", "restaurant")
            .constraint("category", wg::CmpOp::Eq, "italian")
            .construct_node("l", "hits")
            .construct_edge("l", "member", "r")
            .unwrap()
            .build()
            .unwrap();
        let p = wg::Program {
            rules: vec![rule],
            goal: Some("hits".into()),
        };
        let xp = wglog_to_xmlgl(&p).unwrap();
        let out = gql_xmlgl::eval::run(&xp, &guide_doc()).unwrap();
        let root = out.root_element().unwrap();
        assert_eq!(out.child_elements(root).count(), 2); // two italian
    }
}
