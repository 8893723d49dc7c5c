//! Abstract interpretation of WG-Log programs against a summary.
//!
//! The instance loader maps elements to objects typed by their tag,
//! containment to edges labelled with the child's tag, and ID/IDREF
//! resolution to edges labelled by the referencing attribute (falling back
//! to `ref`). The *base availability* therefore over-approximates as:
//! types ⊆ document tags, labels ⊆ tags ∪ attribute names ∪ {`ref`}.
//!
//! Liveness is a fixpoint over that availability: a rule is *live* when
//! every positive (non-negated, query-coloured) observation is satisfiable
//! — each typed node's type is available, each labelled edge's label is
//! available (a `(…)*` path is satisfiable with zero steps) — and a live
//! rule contributes its construct types and labels back. Rules still dead
//! at the fixpoint can never fire regardless of evaluation order, which is
//! exactly [`Code::DeadRule`] (GQL015); a goal type outside the final
//! availability makes the whole program provably empty
//! ([`Code::EmptyUnderSummary`], GQL014).
//!
//! Attribute constraints are not folded: WG-Log attributes are multivalued
//! (`category = "a"` and `category = "b"` can hold simultaneously), so no
//! constant conflict is decidable from counts alone.

use std::collections::HashSet;

use gql_ssdm::diag::{Code, Diagnostic};
use gql_ssdm::summary::Summary;
use gql_wglog::eval::SearchPlan;
use gql_wglog::rule::{rule_label, AttrValue, Color, LabelTest, PathRep, Program, Rule, TypeTest};

use crate::Inference;

/// Abstractly interpret a WG-Log program against a document summary.
pub fn infer_wglog(program: &Program, summary: &Summary) -> Inference {
    let mut inf = Inference::default();

    let base_types: HashSet<&str> = summary.tag_names().collect();
    let mut types: HashSet<&str> = base_types.clone();
    let mut labels: HashSet<&str> = summary.tag_names().chain(summary.attr_names()).collect();
    if summary.ref_edge_count() > 0 {
        labels.insert("ref");
    }

    let mut live = vec![false; program.rules.len()];
    loop {
        let mut changed = false;
        for (i, rule) in program.rules.iter().enumerate() {
            if live[i] || !rule_satisfiable(rule, &types, &labels) {
                continue;
            }
            live[i] = true;
            changed = true;
            for id in rule.construct_nodes() {
                if let TypeTest::Type(t) = &rule.node(id).test {
                    types.insert(t);
                }
            }
            for e in rule.edges.iter().filter(|e| e.color == Color::Construct) {
                if let LabelTest::Label(l) = &e.label {
                    labels.insert(l);
                }
            }
        }
        if !changed {
            break;
        }
    }

    inf.empty_rules = live.iter().map(|&l| !l).collect();
    for (i, rule) in program.rules.iter().enumerate() {
        if !live[i] {
            inf.report.push(
                Diagnostic::new(
                    Code::DeadRule,
                    format!(
                        "{} is dead: its positive observations can never be satisfied \
                         by this document or any live rule's output",
                        rule_label(rule, i)
                    ),
                )
                .with_span(rule.span)
                .with_rule(rule_label(rule, i))
                .with_help(
                    "no reachable instance contains the types/labels this rule's query \
                     part requires; the rule will never fire and can be removed",
                ),
            );
        }
    }

    // Types invented by live rules have unknown cardinality.
    let constructed: HashSet<&str> = program
        .rules
        .iter()
        .enumerate()
        .filter(|(i, _)| live[*i])
        .flat_map(|(_, r)| {
            r.construct_nodes()
                .filter_map(|id| match &r.node(id).test {
                    TypeTest::Type(t) => Some(t.as_str()),
                    TypeTest::Any => None,
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let var_bound = |rule: &Rule, var: &str| -> Option<u64> {
        let id = rule.by_var(var)?;
        match &rule.node(id).test {
            TypeTest::Type(t) if !constructed.contains(t.as_str()) => Some(summary.tag_total(t)),
            TypeTest::Any if constructed.is_empty() => Some(summary.element_count()),
            _ => None,
        }
    };

    for (i, rule) in program.rules.iter().enumerate() {
        if !live[i] {
            continue;
        }
        for id in rule.query_nodes() {
            let n = rule.node(id);
            if let Some(b) = var_bound(rule, &n.var) {
                inf.cards.push(i, format!("${}", n.var), b);
            }
        }
    }

    if let Some(goal) = &program.goal {
        if !types.contains(goal.as_str()) {
            inf.result_empty = true;
            inf.report.push(
                Diagnostic::new(
                    Code::EmptyUnderSummary,
                    format!(
                        "goal type '{goal}' is neither loaded from this document nor \
                         constructed by any live rule: the result is provably empty"
                    ),
                )
                .with_help(
                    "the inferred summary has no element of this tag and no live rule \
                     invents objects of this type",
                ),
            );
        } else if let Some(bound) =
            goal_bound(program, &live, goal, summary, &base_types, |r, v| {
                var_bound(r, v)
            })
        {
            // Program-level fact, recorded on rule 0 by convention.
            inf.cards.push(0, "result", bound);
        }
    }
    inf
}

/// Upper bound on objects of the goal type: the loaded ones plus, per live
/// rule, one invention per distinct binding of each goal-typed construct
/// node's parameter variables. `None` when any contributing bound is
/// unknowable (e.g. a parameter ranges over an invented type).
fn goal_bound(
    program: &Program,
    live: &[bool],
    goal: &str,
    summary: &Summary,
    base_types: &HashSet<&str>,
    var_bound: impl Fn(&Rule, &str) -> Option<u64>,
) -> Option<u64> {
    let mut total = if base_types.contains(goal) {
        summary.tag_total(goal)
    } else {
        0
    };
    for (i, rule) in program.rules.iter().enumerate() {
        if !live[i] {
            continue;
        }
        for id in rule.construct_nodes() {
            let n = rule.node(id);
            if !matches!(&n.test, TypeTest::Type(t) if t == goal) {
                continue;
            }
            // Parameter variables: explicit `per` plus implicit copy
            // sources, deduplicated.
            let mut params: Vec<&str> = n.per.iter().map(String::as_str).collect();
            for (_, v) in &n.set_attrs {
                if let AttrValue::CopyFrom { var, .. } = v {
                    params.push(var);
                }
            }
            params.sort_unstable();
            params.dedup();
            let mut invented = 1u64;
            for var in params {
                invented = invented.saturating_mul(var_bound(rule, var)?);
            }
            total = total.saturating_add(invented);
        }
    }
    Some(total)
}

/// Whether every positive observation of the rule's query part is
/// satisfiable under the available types and labels.
fn rule_satisfiable(rule: &Rule, types: &HashSet<&str>, labels: &HashSet<&str>) -> bool {
    // Only the nodes the evaluator's search binds are read off its own
    // plan. An existential node (every incident edge a negated edge *into*
    // it) never binds: each such edge asserts "the source has no matching
    // neighbour", which only gets easier to satisfy when the target's type
    // is absent, so its type must not gate liveness. A rule whose query
    // nodes all are existential has no embedding and never fires.
    let plan = SearchPlan::new(rule);
    if plan.matches_nothing() {
        return false;
    }
    for step in plan.steps() {
        let ok = match &rule.node(step.node).test {
            TypeTest::Type(t) => types.contains(t.as_str()),
            TypeTest::Any => !types.is_empty(),
        };
        if !ok {
            return false;
        }
    }
    for e in &rule.edges {
        if e.color != Color::Query || e.negated {
            continue;
        }
        let ok = match &e.label {
            LabelTest::Label(l) => labels.contains(l.as_str()),
            LabelTest::Any => !labels.is_empty(),
            LabelTest::Regex(re) => {
                re.rep == PathRep::Star || re.labels.iter().any(|l| labels.contains(l.as_str()))
            }
        };
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_ssdm::Document;
    use gql_wglog::{dsl, rule::RuleBuilder};

    const GUIDE: &str = "<guide>\
        <restaurant id='r1'><name>Roma</name><menu><price>20</price></menu>\
        <near ref='h1'/></restaurant>\
        <restaurant id='r2'><name>Milano</name></restaurant>\
        <hotel id='h1'><name>Grand</name></hotel></guide>";

    fn summarise(xml: &str) -> Summary {
        Summary::build(&Document::parse_str(xml).unwrap())
    }

    #[test]
    fn live_program_has_no_diagnostics() {
        let s = summarise(GUIDE);
        let p = dsl::parse(
            "rule { query { $r: restaurant; $m: menu; $r -menu-> $m } \
                    construct { $l: rest-list; $l -member-> $r } } \
             goal rest-list",
        )
        .unwrap();
        let inf = infer_wglog(&p, &s);
        assert!(inf.report.is_empty(), "{}", inf.report.render());
        assert_eq!(inf.cards.bound_for(0, "$r"), Some(2));
        assert_eq!(inf.cards.bound_for(0, "$m"), Some(1));
    }

    #[test]
    fn missing_type_makes_rule_dead_and_goal_empty() {
        let s = summarise(GUIDE);
        let p = dsl::parse(
            "rule { query { $c: casino } construct { $l: casino-list; $l -member-> $c } } \
             goal casino-list",
        )
        .unwrap();
        let inf = infer_wglog(&p, &s);
        let codes: Vec<_> = inf.report.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::DeadRule));
        assert!(codes.contains(&Code::EmptyUnderSummary));
        assert!(inf.is_statically_empty());
    }

    #[test]
    fn missing_edge_label_makes_rule_dead() {
        let s = summarise(GUIDE);
        let p = dsl::parse(
            "rule { query { $r: restaurant; $h: hotel; $r -shuttle-> $h } \
                    construct { $l: out; $l -member-> $r } } \
             goal out",
        )
        .unwrap();
        let inf = infer_wglog(&p, &s);
        assert!(inf
            .report
            .iter()
            .any(|d| d.code == Code::DeadRule && d.rule.as_deref() == Some("rule 1 (out)")));
    }

    #[test]
    fn ref_edges_count_as_labels() {
        let s = summarise(GUIDE);
        let p = dsl::parse(
            "rule { query { $r: restaurant; $h: hotel; $r -ref-> $h } \
                    construct { $l: out; $l -member-> $r } } \
             goal out",
        )
        .unwrap();
        let inf = infer_wglog(&p, &s);
        assert!(
            !inf.report.iter().any(|d| d.code == Code::DeadRule),
            "{}",
            inf.report.render()
        );
    }

    #[test]
    fn fixpoint_feeds_constructed_types_forward() {
        let s = summarise(GUIDE);
        let p = dsl::parse(
            "rule { query { $r: restaurant } construct { $l: rest-list; $l -member-> $r } } \
             rule { query { $l: rest-list } construct { $t: top; $t -has-> $l } } \
             goal top",
        )
        .unwrap();
        let inf = infer_wglog(&p, &s);
        assert!(
            !inf.report.iter().any(|d| d.code == Code::DeadRule),
            "{}",
            inf.report.render()
        );
        // rest-list is invented, so $l in rule 2 gets no bound.
        assert_eq!(inf.cards.bound_for(1, "$l"), None);
    }

    #[test]
    fn negated_edges_do_not_kill_rules() {
        let s = summarise(GUIDE);
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .query_node("h", "hotel")
            .negated_edge("r", "shuttle", "h")
            .unwrap()
            .construct_node("l", "out")
            .construct_edge("l", "member", "r")
            .unwrap()
            .build()
            .unwrap();
        let p = Program {
            rules: vec![rule],
            goal: Some("out".into()),
        };
        let inf = infer_wglog(&p, &s);
        assert!(
            !inf.report.iter().any(|d| d.code == Code::DeadRule),
            "{}",
            inf.report.render()
        );
    }

    #[test]
    fn star_paths_are_satisfiable_without_labels() {
        let s = summarise(GUIDE);
        let rule = RuleBuilder::new()
            .query_node("a", "restaurant")
            .query_node("b", "hotel")
            .path_edge(
                "a",
                gql_wglog::rule::PathRe {
                    labels: vec!["shuttle".into()],
                    rep: PathRep::Star,
                },
                "b",
            )
            .unwrap()
            .construct_node("l", "out")
            .construct_edge("l", "member", "a")
            .unwrap()
            .build()
            .unwrap();
        let p = Program {
            rules: vec![rule],
            goal: Some("out".into()),
        };
        let inf = infer_wglog(&p, &s);
        assert!(!inf.report.iter().any(|d| d.code == Code::DeadRule));
    }

    #[test]
    fn goal_bound_covers_inventions() {
        let s = summarise(GUIDE);
        // One rest-list per restaurant binding (`per $r`).
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .construct_node("l", "rest-list")
            .per("r")
            .construct_edge("l", "member", "r")
            .unwrap()
            .build()
            .unwrap();
        let p = Program {
            rules: vec![rule],
            goal: Some("rest-list".into()),
        };
        let inf = infer_wglog(&p, &s);
        assert_eq!(inf.cards.result_bound(0), Some(2));
    }
}
