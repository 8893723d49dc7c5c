//! Printing the plans that run as [`PlanNode`] trees — the EXPLAIN text.
//!
//! The printed tree names the access path per leaf (posting probe vs arena
//! scan), the join spine in the *chosen* evaluation order with estimated
//! intermediates, and the construct/fixpoint shape on top. Each lowering
//! reads the plan its engine runs: the XML-GL `HashJoin` spine is the
//! rule's [`JoinPlan`], a WG-Log rule's spine its [`SearchPlan`], and an
//! XPath plan the parsed [`Expr`].

use gql_infer::Inference;
use gql_wglog::eval::plan::{Access, ProgramPlan, SearchPlan};
use gql_xmlgl::ast::{NameTest, QNodeId, QNodeKind};
use gql_xmlgl::eval::JoinPlan;
use gql_xpath::ast::{Expr, LocationPath, NodeTest};

use crate::explain::PlanNode;
use crate::join_order::JoinGraph;

/// A `Construct` of `shape` over `inputs`.
fn construct(shape: impl Into<String>, inputs: Vec<PlanNode>) -> PlanNode {
    PlanNode::new("Construct", shape, None, inputs)
}

/// A `Filter` by `pred` over `input`.
fn filter(input: PlanNode, pred: String) -> PlanNode {
    PlanNode::new("Filter", pred, None, vec![input])
}

/// A `PathStep` along `axis` to `test`, over `inputs` (none for the step
/// that establishes the context).
fn path_step(axis: &str, test: &str, est: u64, inputs: Vec<PlanNode>) -> PlanNode {
    PlanNode::new("PathStep", format!("{axis}::{test}"), Some(est), inputs)
}

/// Lower an XML-GL program. `orders` gives the chosen per-rule root order
/// (`None`, or no entry, is declaration order); bounds and cardinalities
/// come from `inference`. The spines are those of the rules' [`JoinPlan`]s
/// built from `orders` (see [`lower_join_plans`]).
pub fn lower_xmlgl(
    program: &gql_xmlgl::ast::Program,
    inference: &Inference,
    orders: &[Option<Vec<usize>>],
) -> PlanNode {
    let plans: Vec<JoinPlan> = (program.rules.iter().enumerate())
        .map(|(ri, rule)| JoinPlan::new(rule, orders.get(ri).and_then(Option::as_deref)))
        .collect();
    lower_join_plans(program, inference, &plans)
}

/// Lower an XML-GL program whose rules combine their roots along `plans`
/// (one per rule, in rule order): each rule's `HashJoin` spine renders its
/// plan's steps.
pub fn lower_join_plans(
    program: &gql_xmlgl::ast::Program,
    inference: &Inference,
    plans: &[JoinPlan],
) -> PlanNode {
    debug_assert_eq!(plans.len(), program.rules.len(), "one join plan per rule");
    let mut rules: Vec<PlanNode> = (program.rules.iter().zip(plans).enumerate())
        .map(|(ri, (rule, plan))| lower_xmlgl_rule(rule, ri, inference, plan))
        .collect();
    match rules.len() {
        1 => rules.pop().expect("one rule"),
        _ => construct("result", rules),
    }
}

fn lower_xmlgl_rule(
    rule: &gql_xmlgl::ast::Rule,
    ri: usize,
    inference: &Inference,
    plan: &JoinPlan,
) -> PlanNode {
    let g = &rule.extract;
    let bounds = inference.root_bounds.get(ri);
    let order: Vec<usize> = plan.order().collect();
    let rows = bounds
        .and_then(|b| JoinGraph::from_rule(rule, b))
        .map(|jg| jg.order_rows(&order));
    let spine = (plan.steps().iter().enumerate()).fold(None, |spine, (k, step)| {
        let est = bounds.and_then(|b| b.get(step.root)).copied();
        let next = lower_qnode(g, g.roots[step.root], est.unwrap_or(u64::MAX));
        Some(match spine {
            None => next,
            Some(left) => {
                // Each join as the rule states it; a step with none is
                // the cross product.
                let on = match step.on.is_empty() {
                    true => "cross".into(),
                    false => (step.on.iter())
                        .map(|j| {
                            let (a, b) = g.joins[j.index];
                            format!("{} == {}", var_name(g, a), var_name(g, b))
                        })
                        .collect::<Vec<_>>()
                        .join(" and "),
                };
                let est = (rows.as_ref())
                    .and_then(|r| r.get(k))
                    .map_or(u64::MAX, |&r| u64::try_from(r).unwrap_or(u64::MAX));
                PlanNode::new("HashJoin", on, Some(est), vec![left, next])
            }
        })
    });

    let shape: Vec<String> = (rule.construct.roots.iter())
        .map(|&r| match &rule.construct.node(r).kind {
            gql_xmlgl::ast::CNodeKind::Element(t) => t.clone(),
            other => format!("{other:?}"),
        })
        .collect();
    let shape = match shape.is_empty() {
        true => "rule".into(),
        false => shape.join(" "),
    };
    construct(shape, spine.into_iter().collect())
}

fn var_name(g: &gql_xmlgl::ast::ExtractGraph, q: QNodeId) -> String {
    match &g.node(q).var {
        Some(v) => format!("${v}"),
        None => format!("q{}", q.0),
    }
}

/// One extract root: access-path leaf, then a `PathStep` per child edge
/// (compact subtree description) and a `Filter` when predicated.
fn lower_qnode(g: &gql_xmlgl::ast::ExtractGraph, q: QNodeId, est: u64) -> PlanNode {
    let n = g.node(q);
    // Named elements probe the tag postings; wildcards walk the arena.
    let (op, test) = match &n.kind {
        QNodeKind::Element(NameTest::Name(t)) => ("IndexLookup", t.clone()),
        QNodeKind::Element(NameTest::Wildcard) => ("Scan", "*".into()),
        QNodeKind::Text => ("Scan", "text()".into()),
        QNodeKind::Attribute(a) => ("IndexLookup", format!("@{a}")),
    };
    let mut plan = PlanNode::new(op, test, Some(est), Vec::new());
    for edge in &n.children {
        let axis = match (edge.deep, edge.negated) {
            (false, false) => "child",
            (true, false) => "descendant",
            (false, true) => "no-child",
            (true, true) => "no-descendant",
        };
        plan = path_step(axis, &subtree_test(g, edge.target), est, vec![plan]);
    }
    if !n.predicate.is_trivial() {
        plan = filter(plan, format!("{} {}", var_name(g, q), n.predicate));
    }
    plan
}

/// Compact description of a pattern subtree for a `PathStep` test:
/// `title/text()`, `vendor{country,name}` …
fn subtree_test(g: &gql_xmlgl::ast::ExtractGraph, q: QNodeId) -> String {
    let n = g.node(q);
    let own = match &n.kind {
        QNodeKind::Element(t) => t.to_string(),
        QNodeKind::Text => "text()".into(),
        QNodeKind::Attribute(a) => format!("@{a}"),
    };
    match n.children.len() {
        0 => own,
        1 => format!("{own}/{}", subtree_test(g, n.children[0].target)),
        _ => {
            let kids: Vec<String> = (n.children.iter())
                .map(|e| subtree_test(g, e.target))
                .collect();
            format!("{own}{{{}}}", kids.join(","))
        }
    }
}

/// Lower a WG-Log program as it runs: [`lower_wglog_plan`] over its
/// [`ProgramPlan`]. A program that cannot be planned (the engine refuses
/// it before it runs) lowers to a `Construct` with nothing under it.
pub fn lower_wglog(program: &gql_wglog::rule::Program, inference: &Inference) -> PlanNode {
    match ProgramPlan::new(program) {
        Ok(plan) => lower_wglog_plan(program, inference, &plan),
        Err(_) => construct("unplanned", Vec::new()),
    }
}

/// Lower a WG-Log program that runs `plan`: one `Fixpoint` per stratum, in
/// the order the strata run, over each rule's [`SearchPlan`], with the goal
/// extraction as the outer `Construct`.
pub fn lower_wglog_plan(
    program: &gql_wglog::rule::Program,
    inference: &Inference,
    plan: &ProgramPlan,
) -> PlanNode {
    let fixpoints = (plan.strata().iter())
        .map(|stratum| {
            let body = (stratum.iter())
                .map(|&ri| lower_wglog_rule(&program.rules[ri], ri, inference, plan.search(ri)))
                .collect();
            PlanNode::new("Fixpoint", "", None, body)
        })
        .collect();
    let goal = match &program.goal {
        Some(g) => format!("goal {g}"),
        None => "goal".into(),
    };
    construct(goal, fixpoints)
}

/// One rule's search, bottom up: the first binding is a `Scan` of its
/// type, a binding along an edge a `PathStep` over the bindings so far,
/// and a later one from the type index their product (`HashJoin` on
/// `cross`). Constraints and closed edges filter the binding that checks
/// them, and the negated edges filter the whole.
fn lower_wglog_rule(
    rule: &gql_wglog::rule::Rule,
    ri: usize,
    inference: &Inference,
    plan: &SearchPlan,
) -> PlanNode {
    use gql_wglog::rule::RNodeId;
    let var = |q: RNodeId| format!("${}", rule.node(q).var);
    let edge = |i: usize| {
        let e = &rule.edges[i];
        format!("{} -{}-> {}", var(e.from), e.label, var(e.to))
    };
    let spine = (plan.steps().iter()).fold(None, |spine, step| {
        let n = rule.node(step.node);
        let constrained = |input: PlanNode| match n.constraints.is_empty() {
            true => input,
            false => {
                let clauses: Vec<String> = (n.constraints.iter())
                    .map(|c| format!("{} {} \"{}\"", c.attr, c.op.symbol(), c.value))
                    .collect();
                let pred = format!("{} {}", var(step.node), clauses.join(" and "));
                filter(input, pred)
            }
        };
        let test = n.test.to_string();
        let along = |left: PlanNode, axis: String| path_step(&axis, &test, u64::MAX, vec![left]);
        let est = inference
            .cards
            .bound_for(ri, &var(step.node))
            .unwrap_or(u64::MAX);
        let scan = PlanNode::new("Scan", test.clone(), Some(est), Vec::new());
        let bound = match (spine, step.access) {
            (None, _) => constrained(scan),
            (Some(left), Access::Scan) => PlanNode::new(
                "HashJoin",
                "cross",
                Some(u64::MAX),
                vec![left, constrained(scan)],
            ),
            (Some(left), Access::Forward(i)) => {
                let e = &rule.edges[i];
                constrained(along(left, format!("{} -{}->", var(e.from), e.label)))
            }
            (Some(left), Access::Backward(i)) => {
                let e = &rule.edges[i];
                constrained(along(left, format!("{} <-{}-", var(e.to), e.label)))
            }
        };
        Some((step.checks.iter()).fold(bound, |input, &i| filter(input, edge(i))))
    });
    let body = (plan.negated().iter()).fold(spine, |spine, n| {
        spine.map(|input| filter(input, format!("no {}", edge(n.edge))))
    });
    construct(
        rule.head_label().unwrap_or_else(|| "rule".into()),
        body.into_iter().collect(),
    )
}

/// Lower an XPath expression: a `PathStep` chain per location path (with
/// `Filter` for predicates), `Construct` around unions and value
/// expressions.
pub fn lower_xpath(expr: &Expr, inference: &Inference) -> PlanNode {
    match expr {
        Expr::Path(p) => construct("node-set", vec![lower_path(p, inference)]),
        Expr::Union(a, b) => construct(
            "union",
            vec![lower_xpath(a, inference), lower_xpath(b, inference)],
        ),
        Expr::FilterPath(inner, steps) => {
            let inner = lower_xpath(inner, inference);
            let plan = (steps.iter()).fold(inner, |plan, s| {
                path_step(s.axis.name(), &test_name(&s.test), u64::MAX, vec![plan])
            });
            construct("node-set", vec![plan])
        }
        other => construct(format!("value ({})", kind_name(other)), Vec::new()),
    }
}

fn kind_name(e: &Expr) -> &'static str {
    match e {
        Expr::Path(_) => "path",
        Expr::Literal(_) => "literal",
        Expr::Number(_) => "number",
        Expr::Binary(..) => "binary",
        Expr::Neg(_) => "neg",
        Expr::Union(..) => "union",
        Expr::Call(..) => "call",
        Expr::FilterPath(..) => "filter-path",
    }
}

fn lower_path(p: &LocationPath, inference: &Inference) -> PlanNode {
    let mut plan = None;
    for (i, step) in p.steps.iter().enumerate() {
        let (axis, test) = (step.axis.name(), test_name(&step.test));
        let label = format!("step {} ({axis}::{test})", i + 1);
        let est = inference.cards.bound_for(0, &label).unwrap_or(u64::MAX);
        let sp = path_step(axis, &test, est, plan.into_iter().collect());
        plan = Some((step.predicates.iter()).fold(sp, |sp, pred| filter(sp, pred.to_string())));
    }
    plan.unwrap_or_else(|| PlanNode::new("Scan", "document", Some(1), Vec::new()))
}

fn test_name(t: &NodeTest) -> String {
    match t {
        NodeTest::Name(n) => n.clone(),
        NodeTest::Any => "*".into(),
        NodeTest::Text => "text()".into(),
        NodeTest::Comment => "comment()".into(),
        NodeTest::Node => "node()".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_infer::{infer_xmlgl, infer_xpath};
    use gql_ssdm::{Document, Summary};

    const GROCER: &str = "<shop><product><vendor>acme</vendor></product>\
                          <vendor><country>holland</country><name>acme</name></vendor>\
                          <vendor><country>france</country><name>beta</name></vendor></shop>";

    #[test]
    fn xmlgl_lowering_names_access_paths_and_join_order() {
        let doc = Document::parse_str(GROCER).unwrap();
        let s = Summary::build(&doc);
        let p = gql_xmlgl::dsl::parse(
            r#"rule {
                 extract {
                   product as $p { vendor { text as $v1 } }
                   vendor as $w { country { text = "holland" } name { text as $v2 } }
                   join $v1 == $v2
                 }
                 construct { out { all $p } }
               }"#,
        )
        .unwrap();
        let inf = infer_xmlgl(&p, &s);
        let plan = lower_xmlgl(&p, &inf, &[Some(vec![1, 0])]);
        let text = plan.render();
        assert!(text.contains("Construct out"), "{text}");
        assert!(text.contains("HashJoin on $v1 == $v2"), "{text}");
        assert!(text.contains("IndexLookup product"), "{text}");
        assert!(text.contains("IndexLookup vendor"), "{text}");
        // The chosen order puts vendor (root 1) on the left of the spine.
        let compact = plan.render_compact();
        let vendor_pos = compact.find("IndexLookup(vendor)").unwrap();
        let product_pos = compact.find("IndexLookup(product)").unwrap();
        assert!(vendor_pos < product_pos, "{compact}");
    }

    /// An order that is no permutation of the roots is declaration order,
    /// printed and run alike. (The lowering once checked its length alone:
    /// `[0, 0]` printed `HashJoin(…, Scan ∅)` and dropped root 1, while the
    /// matcher ran declaration order.)
    #[test]
    fn an_order_that_is_no_permutation_prints_and_runs_declaration_order() {
        use gql_guard::RunCtx;
        use gql_ssdm::DocIndex;
        use gql_xmlgl::eval::{match_rule, match_rule_in};

        let doc = Document::parse_str(GROCER).unwrap();
        let p = gql_xmlgl::dsl::parse(
            r#"rule {
                 extract {
                   product as $p { vendor { text as $v1 } }
                   vendor as $w { name { text as $v2 } }
                   join $v1 == $v2
                 }
                 construct { out { all $p } }
               }"#,
        )
        .unwrap();
        let inf = infer_xmlgl(&p, &Summary::build(&doc));
        let printed = lower_xmlgl(&p, &inf, &[Some(vec![0, 0])]).render();
        assert_eq!(printed, lower_xmlgl(&p, &inf, &[None]).render());
        assert!(printed.contains("HashJoin on $v1 == $v2"), "{printed}");
        assert!(!printed.contains('∅'), "{printed}");

        let rule = &p.rules[0];
        let plan = JoinPlan::new(rule, Some(&[0, 0]));
        assert_eq!(plan, JoinPlan::new(rule, None));
        let trace = gql_trace::Trace::profiling();
        let idx = DocIndex::build(&doc);
        let rows = {
            let _s = trace.span("match");
            match_rule_in(rule, &doc, &idx, &plan, RunCtx::traced(&trace))
        };
        assert_eq!(rows, match_rule(rule, &doc));
        let profile = trace.finish().unwrap();
        let matched = profile.find("match").unwrap();
        assert_eq!(matched.note("combine_plan"), None);
        let combine = matched.find("combine[1]").expect("declared-order span");
        assert_eq!(combine.note("kind"), Some("hash_join"));
    }

    #[test]
    fn a_forty_root_cross_product_lowers_with_saturating_estimates() {
        // Outside input, one frame: more roots than a `u32` of placed-root
        // bits. Four candidates per root, so the spine's estimates climb
        // 16, 64, … and pin at `u64::MAX` once 4^k no longer fits.
        let doc = Document::parse_str("<r><a/><a/><a/><a/></r>").unwrap();
        let s = Summary::build(&doc);
        let roots: String = (0..40).map(|i| format!("a as $x{i} ")).collect();
        let p = gql_xmlgl::dsl::parse(&format!(
            "rule {{ extract {{ {roots} }} construct {{ out {{ all $x0 }} }} }}"
        ))
        .unwrap();
        let inf = infer_xmlgl(&p, &s);
        assert_eq!(inf.root_bounds[0], vec![4; 40]);
        let plan = lower_xmlgl(&p, &inf, &[None]);
        assert_eq!(plan.op, "Construct", "{}", plan.render());
        // Walk the left-deep spine from the last join down to the first.
        let mut ests = Vec::new();
        let mut node = &plan.inputs[0];
        while node.op == "HashJoin" {
            assert_eq!(node.arg, "cross");
            ests.push(node.est.expect("a join estimates its rows"));
            node = &node.inputs[0];
        }
        ests.reverse();
        assert_eq!(ests.len(), 39);
        assert_eq!(&ests[..3], &[16, 64, 256]);
        assert!(ests.windows(2).all(|w| w[0] <= w[1]), "{ests:?}");
        assert_eq!(ests[29], 1 << 62);
        assert!(ests[30..].iter().all(|&e| e == u64::MAX), "{ests:?}");
    }

    #[test]
    fn wglog_lowering_wraps_rules_in_a_fixpoint() {
        let p = gql_wglog::dsl::parse(
            "rule { query { $r: restaurant $m: menu $r -menu-> $m } \
             construct { $l: rest-list $l -member-> $r } } goal rest-list",
        )
        .unwrap();
        let plan = lower_wglog(&p, &Inference::default());
        let text = plan.render();
        assert!(text.contains("Construct goal rest-list"), "{text}");
        assert!(text.contains("Fixpoint"), "{text}");
        assert!(text.contains("PathStep $r -menu->::menu"), "{text}");
        assert!(text.contains("Scan restaurant"), "{text}");
    }

    /// The lowering prints the search that runs. It once printed every
    /// query node in declaration order, joined to the ones before it: an
    /// existential node became a scanned cross product the search never
    /// makes, and a node declared before its only neighbour a cross product
    /// the search walks around.
    #[test]
    fn wglog_lowering_prints_the_plan_and_its_strata() {
        let lower =
            |src: &str| lower_wglog(&gql_wglog::dsl::parse(src).unwrap(), &Inference::default());
        let no_menu = lower(
            "rule { query { $r: restaurant  $m: menu  not $r -menu-> $m } \
             construct { $l: answer  $l -member-> $r } } goal answer",
        );
        assert_eq!(
            no_menu.render_compact(),
            "Construct(goal answer, Fixpoint(Construct(answer, \
             Filter(no $r -menu-> $m, Scan(restaurant)))))"
        );
        let hub = lower(
            "rule { query { $s: site  $p: page  $h: hub  $s -hub-> $h  $h -page-> $p } \
             construct { $r: found  $r -member-> $p } } goal found",
        );
        assert_eq!(
            hub.render_compact(),
            "Construct(goal found, Fixpoint(Construct(found, \
             PathStep($h -page->::page, PathStep($s -hub->::hub, Scan(site))))))"
        );
        // A regular path counts as a link when the order is chosen, but is
        // never walked backwards: `$p` binds second, from the type index,
        // and each page is checked against the path.
        let path = lower(
            "rule { query { $s: site  $p: page  $h: hub  $s -hub-> $h  $h -page-> $p \
             $p -(link)+-> $s } construct { $r: found  $r -member-> $p } } goal found",
        );
        assert_eq!(
            path.render_compact(),
            "Construct(goal found, Fixpoint(Construct(found, \
             Filter($h -page-> $p, PathStep($s -hub->::hub, \
             Filter($p -(link)+-> $s, HashJoin(cross, Scan(site), Scan(page))))))))"
        );
        // Two strata, each its own fixpoint, in the order they run.
        let layered = lower(
            "rule { query { $a: doc  $b: doc  $a -reach-> $b } construct { $a -far-> $b } } \
             rule { query { $a: doc  $b: doc  $a -link-> $b } construct { $a -reach-> $b } }",
        );
        assert_eq!(layered.op, "Construct", "{}", layered.render());
        let heads: Vec<String> = (layered.inputs.iter())
            .map(|f| {
                assert_eq!(f.op, "Fixpoint", "{}", f.render());
                let shapes: Vec<&str> = (f.inputs.iter()).map(|c| c.arg.as_str()).collect();
                shapes.join(",")
            })
            .collect();
        assert_eq!(heads, ["reach", "far"]);
    }

    #[test]
    fn xpath_lowering_chains_steps_with_estimates() {
        let doc = Document::parse_str(GROCER).unwrap();
        let s = Summary::build(&doc);
        let expr = gql_xpath::parse("/shop/vendor[country]/name").unwrap();
        let inf = infer_xpath(&expr, &s);
        let plan = lower_xpath(&expr, &inf);
        let text = plan.render();
        assert!(text.contains("Construct node-set"), "{text}");
        assert!(text.contains("PathStep child::vendor"), "{text}");
        assert!(text.contains("Filter"), "{text}");
        // Step estimates come from the inference: two vendors.
        assert!(text.contains("PathStep child::name"), "{text}");
    }
}
