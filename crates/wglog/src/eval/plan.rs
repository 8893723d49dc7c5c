//! A program's evaluation, worked out once: its strata and each rule's
//! embedding search.
//!
//! A [`ProgramPlan`] is what [`run_in`](super::run_in) runs: the program
//! checked, its strata in evaluation order, and one [`SearchPlan`] per
//! rule. `gql-core` builds it once per plan-cache entry, and the lowering
//! in `gql-plan` prints it — one `Fixpoint` per stratum over each rule's
//! search — so EXPLAIN shows the evaluation that ran.
//!
//! The search binds a rule's query nodes one at a time, backtracking. A
//! [`SearchPlan`] fixes everything about it that the rule alone decides:
//!
//! * which query nodes bind. A query node that is only ever the *target*
//!   of negated edges is *existential*: it never binds, and each negated
//!   edge into it asserts "the source has no such neighbour" — the GraphLog
//!   reading of a crossed edge to an otherwise unconstrained node
//!   ("document with no index link"). Sources of negated edges and nodes
//!   with any positive edge bind, so "no edge between these two bound
//!   nodes" stays expressible; isolated nodes bind too (cartesian
//!   semantics). Several negated edges sharing one existential target are
//!   checked *independently* ("no a-neighbour" AND "no b-neighbour"), not
//!   jointly ("no single object that is both"): joint negation needs the
//!   target bound — give it a positive edge;
//! * the order they bind in: repeatedly the first unplaced node with a
//!   positive edge to a placed one, else the first unplaced node;
//! * where each finds its candidates ([`Access`]): along an edge from a
//!   node bound before it, or from the type index;
//! * the positive edges each binding closes, which every candidate must
//!   satisfy, and the negated edges, checked once every node is bound.
//!
//! Nothing in a plan depends on the instance searched.

use gql_ssdm::value::parse_number;

use crate::rule::{Color, LabelTest, Program, RNodeId, Rule};
use crate::Result;

use super::stratify;

/// The evaluation of one program. See the module documentation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramPlan {
    strata: Vec<Vec<usize>>,
    searches: Vec<SearchPlan>,
}

impl ProgramPlan {
    /// The plan for `program`, which must be well formed and stratifiable:
    /// the errors of [`Program::check`] and [`stratify`](stratify::stratify)
    /// otherwise.
    pub fn new(program: &Program) -> Result<ProgramPlan> {
        program.check()?;
        Ok(ProgramPlan {
            strata: stratify::stratify(program)?,
            searches: program.rules.iter().map(SearchPlan::new).collect(),
        })
    }

    /// The strata in evaluation order, each its rules by index.
    pub fn strata(&self) -> &[Vec<usize>] {
        &self.strata
    }

    /// Rule `rule`'s search.
    pub fn search(&self, rule: usize) -> &SearchPlan {
        &self.searches[rule]
    }

    /// Was this plan built for a program of `program`'s shape (as many
    /// rules, each with as many nodes)?
    pub fn fits(&self, program: &Program) -> bool {
        self.searches.len() == program.rules.len()
            && (self.searches.iter().zip(&program.rules)).all(|(s, r)| s.fits(r))
    }
}

/// Where a step finds its node's candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The type index: every object of the node's type (every object for
    /// `*`).
    Scan,
    /// Edge `rule.edges[i]` followed forwards from its source, bound by an
    /// earlier step.
    Forward(usize),
    /// Edge `rule.edges[i]` followed backwards from its target, bound by
    /// an earlier step. Never a regular path: reverse path enumeration is
    /// not indexed, so a node reached only so is scanned.
    Backward(usize),
}

/// One binding of the search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The query node bound.
    pub node: RNodeId,
    pub access: Access,
    /// The positive query edges this binding closes, by index in
    /// `rule.edges`: both ends are bound once it is. The access edge is
    /// not among them, since every candidate it yields satisfies it.
    pub checks: Vec<usize>,
}

/// A negated query edge, checked on every complete binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Negated {
    /// Its index in `rule.edges`.
    pub edge: usize,
    /// Does the edge's target bind? When it does not (it is existential),
    /// the edge holds when its source has no neighbour over it that passes
    /// the target's tests.
    pub target_binds: bool,
}

/// The embedding search of one rule. See the module documentation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchPlan {
    steps: Vec<Step>,
    negated: Vec<Negated>,
    /// The rule has query nodes and none of them binds.
    matches_nothing: bool,
    /// Per rule node, its constraints' constants as numbers.
    constants: Vec<Vec<Option<f64>>>,
    /// Per rule node, how many constraints the nodes before it have.
    first_constraints: Vec<usize>,
}

impl SearchPlan {
    /// The search for `rule`.
    pub fn new(rule: &Rule) -> SearchPlan {
        let width = rule.nodes.len();
        let is_query = |q: usize| rule.nodes[q].color == Color::Query;
        let query_edges =
            || (rule.edges.iter().enumerate()).filter(|(_, e)| e.color == Color::Query);
        let positive: Vec<usize> = (query_edges().filter(|(_, e)| !e.negated))
            .map(|(i, _)| i)
            .collect();
        let binds: Vec<bool> = (0..width)
            .map(|q| {
                let mut incident = (rule.edges.iter())
                    .filter(|e| e.from.index() == q || e.to.index() == q)
                    .peekable();
                let existential = incident.peek().is_some()
                    && incident.all(|e| e.negated && e.to.index() == q && e.from.index() != q);
                is_query(q) && !existential
            })
            .collect();

        let mut placed = vec![false; width];
        let mut steps: Vec<Step> = Vec::new();
        while let Some(first) = (0..width).find(|&q| binds[q] && !placed[q]) {
            let touches_placed = |q: usize| {
                positive.iter().any(|&i| {
                    let (from, to) = (rule.edges[i].from.index(), rule.edges[i].to.index());
                    (from == q && placed[to]) || (to == q && placed[from])
                })
            };
            let q = (first..width)
                .find(|&q| binds[q] && !placed[q] && touches_placed(q))
                .unwrap_or(first);
            let access = (positive.iter().copied())
                .find_map(|i| {
                    let e = &rule.edges[i];
                    if e.to.index() == q && placed[e.from.index()] {
                        Some(Access::Forward(i))
                    } else if e.from.index() == q
                        && placed[e.to.index()]
                        && !matches!(e.label, LabelTest::Regex(_))
                    {
                        Some(Access::Backward(i))
                    } else {
                        None
                    }
                })
                .unwrap_or(Access::Scan);
            placed[q] = true;
            let checks = (positive.iter().copied())
                .filter(|&i| {
                    let (from, to) = (rule.edges[i].from.index(), rule.edges[i].to.index());
                    let along = access == Access::Forward(i) || access == Access::Backward(i);
                    !along && (from == q || to == q) && placed[from] && placed[to]
                })
                .collect();
            steps.push(Step {
                node: RNodeId(q as u32),
                access,
                checks,
            });
        }

        SearchPlan {
            matches_nothing: steps.is_empty() && (0..width).any(is_query),
            steps,
            // A negated edge whose source does not bind holds vacuously.
            negated: (query_edges().filter(|(_, e)| e.negated && binds[e.from.index()]))
                .map(|(edge, e)| Negated {
                    edge,
                    target_binds: binds[e.to.index()],
                })
                .collect(),
            constants: (rule.nodes.iter())
                .map(|n| {
                    (n.constraints.iter())
                        .map(|c| parse_number(&c.value))
                        .collect()
                })
                .collect(),
            first_constraints: (rule.nodes.iter())
                .scan(0, |before, n| {
                    *before += n.constraints.len();
                    Some(*before - n.constraints.len())
                })
                .collect(),
        }
    }

    /// The bindings, in search order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The negated edges checked on every complete binding.
    pub fn negated(&self) -> &[Negated] {
        &self.negated
    }

    /// Does the rule have query nodes of which none binds? Such a premise
    /// has no embedding. (A rule with no query node at all has the empty
    /// premise, which holds once.)
    pub fn matches_nothing(&self) -> bool {
        self.matches_nothing
    }

    /// Query node `q`'s constraint constants, parsed as numbers.
    pub(crate) fn constants(&self, q: usize) -> &[Option<f64>] {
        &self.constants[q]
    }

    /// How many constraints the rule's nodes before `q` have: where `q`'s
    /// are in a list of every node's constraints.
    pub(crate) fn first_constraint(&self, q: usize) -> usize {
        self.first_constraints[q]
    }

    /// Was this plan built for a rule of `rule`'s size?
    pub(crate) fn fits(&self, rule: &Rule) -> bool {
        self.constants.len() == rule.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(src: &str) -> Rule {
        crate::dsl::parse(src).unwrap().rules.remove(0)
    }

    /// `$p` is declared second but reachable only through `$h`, so it binds
    /// last, along `$h -page->`; `$s` is reached backwards from `$h` in the
    /// second rule, and the regular path is never walked backwards.
    #[test]
    fn the_search_binds_along_edges_in_connectivity_order() {
        let r = rule(
            "rule { query { $s: site  $p: page  $h: hub  $s -hub-> $h  $h -page-> $p } \
             construct { $r: found  $r -member-> $p } }",
        );
        let plan = SearchPlan::new(&r);
        let var = |v| r.by_var(v).unwrap();
        let bound: Vec<(RNodeId, Access)> =
            plan.steps().iter().map(|s| (s.node, s.access)).collect();
        assert_eq!(
            bound,
            [
                (var("s"), Access::Scan),
                (var("h"), Access::Forward(0)),
                (var("p"), Access::Forward(1))
            ]
        );
        assert!(plan.steps().iter().all(|s| s.checks.is_empty()));
        assert!(plan.negated().is_empty() && !plan.matches_nothing());

        let r = rule(
            "rule { query { $h: hub  $s: site  $t: site  $s -hub-> $h  $t -(link)+-> $h \
             $s -near-> $t } construct { $s -sees-> $t } }",
        );
        let plan = SearchPlan::new(&r);
        let bound: Vec<(RNodeId, Access, &[usize])> = (plan.steps().iter())
            .map(|s| (s.node, s.access, &s.checks[..]))
            .collect();
        let var = |v| r.by_var(v).unwrap();
        assert_eq!(
            bound,
            [
                (var("h"), Access::Scan, &[][..]),
                (var("s"), Access::Backward(0), &[]),
                // `$t` touches `$h` only by a path, so it comes from
                // `$s -near->`, and the path is checked.
                (var("t"), Access::Forward(2), &[1]),
            ]
        );
    }

    #[test]
    fn an_existential_node_never_binds_and_its_negated_edge_is_checked_last() {
        let r = rule(
            "rule { query { $r: restaurant  $m: menu  not $r -menu-> $m } \
             construct { $l: answer  $l -member-> $r } }",
        );
        let plan = SearchPlan::new(&r);
        assert_eq!(plan.steps().len(), 1);
        assert_eq!(plan.steps()[0].node, r.by_var("r").unwrap());
        assert_eq!(
            plan.negated(),
            [Negated {
                edge: 0,
                target_binds: false
            }]
        );
        // A positive edge makes the target bind, and the negated edge is
        // checked between two bound nodes.
        let r = rule(
            "rule { query { $r: restaurant  $h: hotel  $r -near-> $h  not $r -rates-> $h } \
             construct { $r -likes-> $h } }",
        );
        let plan = SearchPlan::new(&r);
        assert_eq!(plan.steps().len(), 2);
        assert_eq!(
            plan.negated(),
            [Negated {
                edge: 1,
                target_binds: true
            }]
        );
    }

    #[test]
    fn a_self_loop_is_checked_by_the_step_that_binds_its_node() {
        let r = rule("rule { query { $a: doc  $a -self-> $a } construct { $a -seen-> $a } }");
        let plan = SearchPlan::new(&r);
        assert_eq!(plan.steps()[0].access, Access::Scan);
        assert_eq!(plan.steps()[0].checks, [0]);
    }

    #[test]
    fn a_premise_without_query_nodes_has_no_steps_and_holds() {
        let r = crate::rule::RuleBuilder::new()
            .construct_node("l", "marker")
            .build()
            .unwrap();
        let plan = SearchPlan::new(&r);
        assert!(plan.steps().is_empty() && !plan.matches_nothing());
        assert!(plan.fits(&r) && !SearchPlan::default().fits(&r));
    }
}
