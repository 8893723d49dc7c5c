//! Stratification: ordering rules so that negation is never evaluated
//! against facts still being derived.
//!
//! Rule B *feeds* rule A when something B constructs (an edge label or an
//! invented object type) is observable by A's query part. The dependency is
//! *negative* when A observes it through a negated edge. Strata are the
//! strongly connected components of the feeds-graph in topological order; a
//! negative dependency inside one component makes the program
//! unstratifiable.

use std::collections::{HashSet, VecDeque};

use gql_ssdm::diag::{Code, Diagnostic};
use gql_vgraph::{algo, Graph, NodeIx};

use crate::rule::{rule_label, Color, LabelTest, Program, Rule, TypeTest};
use crate::{Result, WgLogError};

/// What a rule produces: (edge labels, object types).
fn produces(rule: &Rule) -> (HashSet<String>, HashSet<String>) {
    let mut labels = HashSet::new();
    let mut types = HashSet::new();
    for e in &rule.edges {
        if e.color == Color::Construct {
            if let LabelTest::Label(l) = &e.label {
                labels.insert(l.clone());
            }
        }
    }
    for id in rule.construct_nodes() {
        if let TypeTest::Type(t) = &rule.node(id).test {
            types.insert(t.clone());
        }
    }
    (labels, types)
}

/// Positive observations (labels, types) and negative observations (labels,
/// types) of a rule's query part.
pub(crate) type Observations = (
    (HashSet<String>, HashSet<String>),
    (HashSet<String>, HashSet<String>),
);

/// What a rule's query part observes. A wildcard observes everything
/// (encoded as `"*"`). The fixpoint's relevance filter reads it too.
pub(crate) fn observes(rule: &Rule) -> Observations {
    let mut pos_labels = HashSet::new();
    let mut neg_labels = HashSet::new();
    for e in &rule.edges {
        if e.color != Color::Query {
            continue;
        }
        let bucket = if e.negated {
            &mut neg_labels
        } else {
            &mut pos_labels
        };
        match &e.label {
            LabelTest::Label(l) => {
                bucket.insert(l.clone());
            }
            LabelTest::Any => {
                bucket.insert("*".to_string());
            }
            LabelTest::Regex(re) => {
                bucket.extend(re.labels.iter().cloned());
            }
        }
    }
    let mut pos_types = HashSet::new();
    for id in rule.query_nodes() {
        match &rule.node(id).test {
            TypeTest::Type(t) => {
                pos_types.insert(t.clone());
            }
            TypeTest::Any => {
                pos_types.insert("*".to_string());
            }
        }
    }
    // Types are only observed positively (nodes cannot be negated, only
    // edges), so the negative type set is empty.
    ((pos_labels, pos_types), (neg_labels, HashSet::new()))
}

fn meets(produced: &HashSet<String>, observed: &HashSet<String>) -> bool {
    observed.contains("*") && !produced.is_empty() || produced.iter().any(|p| observed.contains(p))
}

/// Build the feeds-graph: edge B → A when B's output is observed by A;
/// weight true for negative observation.
fn feeds_graph(program: &Program) -> Graph<usize, bool> {
    let n = program.rules.len();
    let prod: Vec<(HashSet<String>, HashSet<String>)> =
        program.rules.iter().map(produces).collect();
    let obs: Vec<Observations> = program.rules.iter().map(observes).collect();
    let mut g: Graph<usize, bool> = Graph::new();
    for i in 0..n {
        g.add_node(i);
    }
    for (a, ((pos_l, pos_t), (neg_l, _))) in obs.iter().enumerate() {
        for (b, (labels, types)) in prod.iter().enumerate() {
            let negative = meets(labels, neg_l);
            let positive = meets(labels, pos_l) || meets(types, pos_t);
            if positive || negative {
                g.add_edge(NodeIx(b as u32), NodeIx(a as u32), negative);
            }
        }
    }
    g
}

/// SCCs of the feeds-graph in topological (evaluation) order, plus each
/// node's component index.
fn components(g: &Graph<usize, bool>, n: usize) -> (Vec<Vec<NodeIx>>, Vec<usize>) {
    let mut sccs = algo::tarjan_scc(g);
    sccs.reverse(); // Tarjan emits reverse-topological order.
    let mut comp_of = vec![0usize; n];
    for (ci, scc) in sccs.iter().enumerate() {
        for &node in scc {
            comp_of[node.index()] = ci;
        }
    }
    (sccs, comp_of)
}

/// Compute strata: each stratum is a set of rule indexes; strata are
/// returned in evaluation order.
pub fn stratify(program: &Program) -> Result<Vec<Vec<usize>>> {
    let g = feeds_graph(program);
    let (sccs, comp_of) = components(&g, program.rules.len());

    // Negative edge inside an SCC ⇒ not stratifiable.
    for e in g.edge_indices() {
        if *g.edge(e) {
            let (s, t) = g.endpoints(e);
            if comp_of[s.index()] == comp_of[t.index()] {
                return Err(WgLogError::NotStratifiable {
                    msg: format!(
                        "rule {} negates something rule {} derives within the same recursive component",
                        t.index() + 1,
                        s.index() + 1
                    ),
                });
            }
        }
    }

    Ok(sccs
        .into_iter()
        .map(|scc| scc.into_iter().map(|ix| ix.index()).collect())
        .collect())
}

/// The edge labels rule `a` observes under negation that rule `b` derives —
/// what the negation-through-recursion conflict is *about*.
fn negated_overlap(program: &Program, b: usize, a: usize) -> Vec<String> {
    let (labels, _) = produces(&program.rules[b]);
    let (_, (neg_l, _)) = observes(&program.rules[a]);
    if neg_l.contains("*") {
        let mut all: Vec<String> = labels.into_iter().collect();
        all.sort();
        return all;
    }
    let mut out: Vec<String> = labels.intersection(&neg_l).cloned().collect();
    out.sort();
    out
}

/// Shortest feeds-path from `from` to `to` staying inside one component
/// (predecessor BFS; the graphs are rule-sized, so O(V·E) is fine).
fn path_within(g: &Graph<usize, bool>, comp_of: &[usize], from: usize, to: usize) -> Vec<usize> {
    let comp = comp_of[from];
    let mut prev: Vec<Option<usize>> = vec![None; comp_of.len()];
    let mut queue = VecDeque::from([from]);
    let mut seen = HashSet::from([from]);
    while let Some(cur) = queue.pop_front() {
        if cur == to {
            break;
        }
        for e in g.edge_indices() {
            let (s, t) = g.endpoints(e);
            if s.index() == cur && comp_of[t.index()] == comp && seen.insert(t.index()) {
                prev[t.index()] = Some(cur);
                queue.push_back(t.index());
            }
        }
    }
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        match prev[cur] {
            Some(p) => {
                path.push(p);
                cur = p;
            }
            None => break, // no path (self-loop case: from == to handled above)
        }
    }
    path.reverse();
    path
}

/// Stratification diagnostics: one [`Code::NotStratifiable`] Error per
/// negative dependency inside a recursive component, naming the cycle
/// rule-by-rule. Empty when the program stratifies.
pub fn diagnose(program: &Program) -> Vec<Diagnostic> {
    let g = feeds_graph(program);
    let (_, comp_of) = components(&g, program.rules.len());
    let label = |i: usize| rule_label(&program.rules[i], i);
    let mut out = Vec::new();
    for e in g.edge_indices() {
        if !*g.edge(e) {
            continue;
        }
        let (s, t) = g.endpoints(e);
        let (b, a) = (s.index(), t.index()); // b derives, a negates
        if comp_of[b] != comp_of[a] {
            continue;
        }
        let what = negated_overlap(program, b, a);
        let what = if what.is_empty() {
            "its output".to_string()
        } else {
            what.iter()
                .map(|l| format!("'{l}'"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        // The cycle: a's output feeds … feeds b, whose output a negates.
        let cycle: Vec<String> = path_within(&g, &comp_of, a, b)
            .into_iter()
            .chain([a])
            .map(label)
            .collect();
        out.push(
            Diagnostic::new(
                Code::NotStratifiable,
                format!(
                    "negation through recursion: {} negates {what}, which {} derives \
                     in the same recursive component (cycle: {})",
                    label(a),
                    label(b),
                    cycle.join(" → "),
                ),
            )
            .with_span(program.rules[a].span)
            .with_rule(label(a))
            .with_help(
                "break the cycle so every negated label is fully derived in an \
                 earlier stratum than the rule that negates it",
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleBuilder;

    fn base_and_step() -> (Rule, Rule) {
        let base = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_edge("a", "link", "b")
            .unwrap()
            .construct_edge("a", "reach", "b")
            .unwrap()
            .build()
            .unwrap();
        let step = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_node("c", "doc")
            .query_edge("a", "reach", "b")
            .unwrap()
            .query_edge("b", "link", "c")
            .unwrap()
            .construct_edge("a", "reach", "c")
            .unwrap()
            .build()
            .unwrap();
        (base, step)
    }

    #[test]
    fn recursive_rules_share_a_stratum() {
        let (base, step) = base_and_step();
        let p = Program {
            rules: vec![base, step],
            goal: None,
        };
        let strata = stratify(&p).unwrap();
        // step depends on itself; base feeds step. base may sit alone
        // before step's stratum or share it — but step's self-loop forces
        // step into a stratum not before base's.
        let pos_of = |i: usize| strata.iter().position(|s| s.contains(&i)).unwrap();
        assert!(pos_of(0) <= pos_of(1));
    }

    #[test]
    fn negation_after_derivation_is_stratified() {
        let (base, step) = base_and_step();
        // unreachable(a,b) when no reach edge: must come after closure rules.
        let neg = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .negated_edge("a", "reach", "b")
            .unwrap()
            .construct_edge("a", "unreachable", "b")
            .unwrap()
            .build()
            .unwrap();
        let p = Program {
            rules: vec![neg.clone(), base, step],
            goal: None,
        };
        let strata = stratify(&p).unwrap();
        let pos_of = |i: usize| strata.iter().position(|s| s.contains(&i)).unwrap();
        // neg (index 0) must evaluate after both producers.
        assert!(pos_of(0) > pos_of(1));
        assert!(pos_of(0) > pos_of(2));
    }

    #[test]
    fn negation_through_recursion_rejected() {
        // p(a,b) :- link(a,b), not q(a,b);  q(a,b) :- p(a,b).
        let r1 = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_edge("a", "link", "b")
            .unwrap()
            .negated_edge("a", "q", "b")
            .unwrap()
            .construct_edge("a", "p", "b")
            .unwrap()
            .build()
            .unwrap();
        let r2 = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_edge("a", "p", "b")
            .unwrap()
            .construct_edge("a", "q", "b")
            .unwrap()
            .build()
            .unwrap();
        let p = Program {
            rules: vec![r1, r2],
            goal: None,
        };
        let err = stratify(&p).unwrap_err();
        assert!(matches!(err, WgLogError::NotStratifiable { .. }));

        let ds = diagnose(&p);
        assert!(!ds.is_empty());
        assert_eq!(ds[0].code, Code::NotStratifiable);
        // The cycle is spelled out rule-by-rule with head labels.
        assert!(ds[0].message.contains("rule 1 (p)"), "{}", ds[0].message);
        assert!(ds[0].message.contains("rule 2 (q)"), "{}", ds[0].message);
        assert!(ds[0].message.contains("'q'"), "{}", ds[0].message);
        assert!(ds[0].message.contains("cycle:"), "{}", ds[0].message);
    }

    #[test]
    fn stratifiable_programs_have_no_diagnose_output() {
        let (base, step) = base_and_step();
        let p = Program {
            rules: vec![base, step],
            goal: None,
        };
        assert!(diagnose(&p).is_empty());
    }

    #[test]
    fn independent_rules_each_get_a_stratum() {
        let r1 = RuleBuilder::new()
            .query_node("a", "x")
            .construct_node("l", "lx")
            .construct_edge("l", "m", "a")
            .unwrap()
            .build()
            .unwrap();
        let r2 = RuleBuilder::new()
            .query_node("a", "y")
            .construct_node("l", "ly")
            .construct_edge("l", "m", "a")
            .unwrap()
            .build()
            .unwrap();
        let p = Program {
            rules: vec![r1, r2],
            goal: None,
        };
        let strata = stratify(&p).unwrap();
        assert_eq!(strata.len(), 2);
        let all: Vec<usize> = strata.into_iter().flatten().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn wildcard_observation_depends_on_everything() {
        let producer = RuleBuilder::new()
            .query_node("a", "x")
            .construct_node("l", "derived")
            .construct_edge("l", "m", "a")
            .unwrap()
            .build()
            .unwrap();
        let wildcard = RuleBuilder::new()
            .query_node("a", "*")
            .construct_node("l", "list")
            .construct_edge("l", "member", "a")
            .unwrap()
            .build()
            .unwrap();
        let p = Program {
            rules: vec![wildcard, producer],
            goal: None,
        };
        let strata = stratify(&p).unwrap();
        let pos_of = |i: usize| strata.iter().position(|s| s.contains(&i)).unwrap();
        // The wildcard rule observes 'derived' and 'list' objects: it sits
        // in a (recursive) stratum not before the producer... unless they
        // end up cyclic: wildcard also produces 'list' which it observes,
        // so it is self-recursive; producer feeds it.
        assert!(pos_of(1) <= pos_of(0));
    }
}
