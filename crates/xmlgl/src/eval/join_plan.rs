//! A rule's join spine, worked out once.
//!
//! The roots of a rule's extract forest are matched one by one and then
//! combined: the rows so far are hash-joined with the next root's rows on
//! every join edge between the two, or multiplied with them when there is
//! none. A [`JoinPlan`] fixes that spine — the combine order, the root each
//! query node belongs to, the joins each step keys on and the joins no step
//! can — from the rule and an optional order. The planner builds it, the
//! plan cache keeps it, the matcher runs it and the lowering prints it, so
//! EXPLAIN shows the spine that ran. The order changes work, never answers:
//! the matcher sorts its rows back into declaration order.

use crate::ast::{QNodeId, Rule};

/// The owner of a query node that no extract root reaches (a rule the
/// checker would refuse).
pub const NO_ROOT: usize = usize::MAX;

/// One join a step keys on: `prefix` is read off the rows combined so far,
/// `root` off the rows of the root merged in. `index` is the join's place
/// in the rule's `extract.joins`, whose orientation EXPLAIN prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Join {
    pub prefix: QNodeId,
    pub root: QNodeId,
    pub index: usize,
}

/// One step of the spine: root `root` merged into the rows so far,
/// hash-joined on `on`, or multiplied in when `on` is empty. The first
/// step's rows are the start.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Step {
    pub root: usize,
    pub on: Vec<Join>,
}

/// The join spine of one rule. See the module documentation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinPlan {
    steps: Vec<Step>,
    planned: bool,
    owner: Vec<usize>,
    residual: Vec<(QNodeId, QNodeId)>,
}

impl JoinPlan {
    /// The plan for `rule`, combining its roots in `order` when that is a
    /// permutation of the root indices (a planner's choice), and in
    /// declaration order otherwise.
    pub fn new(rule: &Rule, order: Option<&[usize]>) -> JoinPlan {
        let g = &rule.extract;
        // Owners by subtree walk; the first root to reach a node claims it,
        // so the walk ends on any graph.
        let mut owner = vec![NO_ROOT; g.nodes.len()];
        let mut stack = Vec::new();
        for (ri, &root) in g.roots.iter().enumerate() {
            stack.push(root);
            while let Some(q) = stack.pop() {
                if owner[q.index()] == NO_ROOT {
                    owner[q.index()] = ri;
                    stack.extend(g.node(q).children.iter().map(|e| e.target));
                }
            }
        }
        // The step each root is merged in at.
        let mut at = vec![NO_ROOT; g.roots.len()];
        let planned = order.is_some_and(|order| {
            order.len() == at.len()
                && (order.iter().enumerate()).all(|(k, &ri)| {
                    at.get_mut(ri)
                        .is_some_and(|at| std::mem::replace(at, k) == NO_ROOT)
                })
        });
        if !planned {
            at = (0..g.roots.len()).collect();
        }
        let mut steps = vec![Step::default(); at.len()];
        for (ri, &k) in at.iter().enumerate() {
            steps[k].root = ri;
        }
        let mut residual = Vec::new();
        for (index, &(a, b)) in g.joins.iter().enumerate() {
            let (oa, ob) = (owner[a.index()], owner[b.index()]);
            if oa == NO_ROOT || ob == NO_ROOT || oa == ob {
                residual.push((a, b));
                continue;
            }
            // Keyed on by the step that merges the later of the two roots.
            let (prefix, root) = if at[oa] < at[ob] { (a, b) } else { (b, a) };
            steps[at[oa].max(at[ob])].on.push(Join {
                prefix,
                root,
                index,
            });
        }
        JoinPlan {
            steps,
            planned,
            owner,
            residual,
        }
    }

    /// The steps, in combine order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The combine order: the root of each step.
    pub fn order(&self) -> impl Iterator<Item = usize> + '_ {
        self.steps.iter().map(|s| s.root)
    }

    /// Is the order a planner's choice rather than declaration order?
    pub fn is_planned(&self) -> bool {
        self.planned
    }

    /// The root owning each query node, by node index ([`NO_ROOT`]: none).
    pub fn owners(&self) -> &[usize] {
        &self.owner
    }

    /// The joins no step keys on (both ends under one root, or an end under
    /// none), checked on every combined row.
    pub fn residual(&self) -> &[(QNodeId, QNodeId)] {
        &self.residual
    }

    /// Was this plan built for a rule of `rule`'s shape (as many query
    /// nodes and roots)? A cached plan is checked so before it runs.
    pub fn fits(&self, rule: &Rule) -> bool {
        self.owner.len() == rule.extract.nodes.len() && self.steps.len() == rule.extract.roots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Roots `a`, `b`, `c`; `b` joins `a` and `c`, and `a` joins itself.
    fn rule() -> Rule {
        crate::dsl::parse(
            r#"rule {
                 extract {
                   a { text as $x  @k as $k }
                   b { text as $y }
                   c { text as $z }
                   join $x == $y  join $z == $y  join $x == $k
                 }
                 construct { out { all $y } }
               }"#,
        )
        .unwrap()
        .rules
        .remove(0)
    }

    #[test]
    fn each_join_is_keyed_on_by_the_step_that_closes_it() {
        let r = rule();
        let g = &r.extract;
        let var = |v| g.by_var(v).unwrap();
        let join = |prefix, root, index| Join {
            prefix: var(prefix),
            root: var(root),
            index,
        };
        let declared = JoinPlan::new(&r, None);
        assert!(!declared.is_planned());
        assert_eq!(declared.order().collect::<Vec<_>>(), [0, 1, 2]);
        let on: Vec<&[Join]> = declared.steps().iter().map(|s| &s.on[..]).collect();
        assert_eq!(on, [&[][..], &[join("x", "y", 0)], &[join("y", "z", 1)]]);
        assert_eq!(declared.residual(), [(var("x"), var("k"))]);
        assert_eq!(declared.owners()[var("z").index()], 2);

        // From `c`, the joins turn round and `b` keys on both.
        let planned = JoinPlan::new(&r, Some(&[2, 1, 0]));
        assert!(planned.is_planned());
        let on: Vec<&[Join]> = planned.steps().iter().map(|s| &s.on[..]).collect();
        assert_eq!(on, [&[][..], &[join("z", "y", 1)], &[join("y", "x", 0)]]);
        assert_eq!(planned.residual(), declared.residual());
        assert!(planned.fits(&r) && declared.fits(&r));
    }

    #[test]
    fn an_order_that_is_no_permutation_is_declaration_order() {
        let r = rule();
        let declared = JoinPlan::new(&r, None);
        for bad in [&[0, 0, 1][..], &[1, 0], &[0, 1, 2, 3], &[0, 1, 3], &[]] {
            assert_eq!(JoinPlan::new(&r, Some(bad)), declared, "{bad:?}");
        }
        assert!(!JoinPlan::default().fits(&r));
    }
}
