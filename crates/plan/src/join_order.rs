//! Cost-based join ordering for multi-root XML-GL rule bodies.
//!
//! The matcher combines a rule's extract roots along its [`JoinPlan`]:
//! each root's provenance tuples are merged with the accumulated
//! intermediate result (a hashed equi-join when a `join $a == $b`
//! constraint connects them, a cross product otherwise). The order of that
//! spine is the one planning decision that changes work without changing
//! answers, so it is the one this module optimises; the plan built from its
//! choice is what runs and what EXPLAIN prints.
//!
//! [`JoinGraph`] abstracts a rule body to per-root cardinality bounds (from
//! gql-infer's `W` recurrence) plus a root-level join-connectivity matrix.
//! [`JoinGraph::plan`] enumerates orders bottom-up with dynamic programming
//! over root subsets when the body has at most [`DP_LIMIT`] roots —
//! guaranteed to minimise the cost model — and falls back to the greedy
//! heuristic (smallest bound first, join-connected preferred) above that.
//!
//! The cost model charges each step its input sizes plus the estimated
//! intermediate it produces: a join-connected step keeps the larger side's
//! bound (an equi-join cannot fan out past the looser input under the
//! summary bounds), a cross product multiplies. Estimates only ever steer
//! the order; the matcher re-sorts provenance tuples to declaration order
//! afterwards, so any order is answer-identical.

use gql_xmlgl::ast::Rule;
use gql_xmlgl::eval::JoinPlan;

/// Bodies up to this many roots are planned exhaustively with subset DP.
pub const DP_LIMIT: usize = 8;

/// A rule body abstracted to join-order facts: one cardinality bound per
/// extract root and a symmetric root-connectivity matrix derived from the
/// rule's join constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinGraph {
    pub bounds: Vec<u64>,
    pub connected: Vec<Vec<bool>>,
}

impl JoinGraph {
    /// Build the join graph for a rule given per-root bounds (declaration
    /// order, as produced by `gql_infer::infer_xmlgl`). Returns `None` when
    /// there is nothing to reorder: fewer than two roots, or bounds that do
    /// not line up with the rule. Two roots are connected when a step of
    /// the rule's declared [`JoinPlan`] joins them.
    pub fn from_rule(rule: &Rule, bounds: &[u64]) -> Option<JoinGraph> {
        let nroots = rule.extract.roots.len();
        if nroots < 2 || bounds.len() != nroots {
            return None;
        }
        let plan = JoinPlan::new(rule, None);
        let mut connected = vec![vec![false; nroots]; nroots];
        for step in plan.steps() {
            for join in &step.on {
                let other = plan.owners()[join.prefix.index()];
                connected[other][step.root] = true;
                connected[step.root][other] = true;
            }
        }
        Some(JoinGraph {
            bounds: bounds.to_vec(),
            connected,
        })
    }

    fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Is root `next` join-connected to any root in `placed`? A step that
    /// is not multiplies: it is the spine's cross product.
    pub fn joins_onto(&self, placed: &[usize], next: usize) -> bool {
        placed.iter().any(|&o| self.connected[o][next])
    }

    /// Estimated rows after joining `next` onto an intermediate of `rows`
    /// rows covering the roots in `placed`.
    fn extend_rows(&self, placed: &[usize], rows: u128, next: usize) -> u128 {
        let b = self.bounds[next].max(1) as u128;
        if self.joins_onto(placed, next) {
            rows.max(b)
        } else {
            rows.saturating_mul(b)
        }
    }

    /// Estimated intermediate sizes after each prefix of `order` — what
    /// the lowering stamps onto the `HashJoin` spine as `est`, and what the
    /// analyzer's cost pass (GQL009) reads. Any body width: the placed set
    /// is the prefix itself, not a mask.
    pub fn order_rows(&self, order: &[usize]) -> Vec<u128> {
        assert_eq!(order.len(), self.len(), "order must cover every root");
        let mut rows = self.bounds[order[0]].max(1) as u128;
        let mut out = vec![rows];
        for step in 1..order.len() {
            rows = self.extend_rows(&order[..step], rows, order[step]);
            out.push(rows);
        }
        out
    }

    /// Cost of evaluating the roots in `order`: each step charges its two
    /// input sizes plus the intermediate it produces. Lower is better.
    pub fn order_cost(&self, order: &[usize]) -> u128 {
        let rows = self.order_rows(order);
        let mut cost = rows[0];
        for step in 1..order.len() {
            let b = self.bounds[order[step]].max(1) as u128;
            cost = cost
                .saturating_add(rows[step - 1])
                .saturating_add(b)
                .saturating_add(rows[step]);
        }
        cost
    }

    /// The chosen evaluation order: exhaustive subset DP up to
    /// [`DP_LIMIT`] roots, greedy beyond. Ties break towards declaration
    /// order, so equal-cost inputs reproduce the left-to-right default.
    pub fn plan(&self) -> Vec<usize> {
        if self.len() <= DP_LIMIT {
            self.plan_dp()
        } else {
            self.plan_greedy()
        }
    }

    /// Bottom-up dynamic programming over root subsets: for every subset
    /// keep the cheapest (cost, order) found, extending each by every
    /// absent root. Equal costs prefer the lexicographically smaller
    /// order — declaration order wins ties deterministically. The `u32`
    /// mask only indexes subsets, and only here: [`DP_LIMIT`] bounds it.
    fn plan_dp(&self) -> Vec<usize> {
        let n = self.len();
        let full = (1u32 << n) - 1;
        // Per mask: best (cost, rows, order).
        let mut dp: Vec<Option<(u128, u128, Vec<usize>)>> = vec![None; (full + 1) as usize];
        for r in 0..n {
            let rows = self.bounds[r].max(1) as u128;
            dp[1 << r] = Some((rows, rows, vec![r]));
        }
        for mask in 1..=full {
            let Some((cost, rows, order)) = dp[mask as usize].clone() else {
                continue;
            };
            for next in 0..n {
                if mask & (1 << next) != 0 {
                    continue;
                }
                let b = self.bounds[next].max(1) as u128;
                let out = self.extend_rows(&order, rows, next);
                let ncost = cost
                    .saturating_add(rows)
                    .saturating_add(b)
                    .saturating_add(out);
                let nmask = (mask | (1 << next)) as usize;
                let mut norder = order.clone();
                norder.push(next);
                let better = match &dp[nmask] {
                    None => true,
                    Some((c, _, o)) => ncost < *c || (ncost == *c && norder < *o),
                };
                if better {
                    dp[nmask] = Some((ncost, out, norder));
                }
            }
        }
        dp[full as usize]
            .take()
            .map(|(_, _, order)| order)
            .expect("full subset is always reachable")
    }

    /// Greedy fallback for wide bodies: start at the smallest bound, then
    /// repeatedly take the smallest-bound root join-connected to the prefix
    /// (global minimum when none is).
    pub fn plan_greedy(&self) -> Vec<usize> {
        let n = self.len();
        let mut order = Vec::with_capacity(n);
        let mut used = vec![false; n];
        while order.len() < n {
            let pick = (0..n)
                .filter(|&ri| !used[ri])
                .filter(|&ri| order.is_empty() || self.joins_onto(&order, ri))
                .min_by_key(|&ri| (self.bounds[ri], ri))
                .or_else(|| {
                    (0..n)
                        .filter(|&ri| !used[ri])
                        .min_by_key(|&ri| (self.bounds[ri], ri))
                })
                .expect("some root is always unused");
            used[pick] = true;
            order.push(pick);
        }
        order
    }
}

/// Plan the root order for one rule: the DP/greedy enumerator over its
/// join graph. `None` when the rule has nothing to reorder.
pub fn plan_rule_order(rule: &Rule, bounds: &[u64]) -> Option<Vec<usize>> {
    JoinGraph::from_rule(rule, bounds).map(|g| g.plan())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_xmlgl::dsl;

    fn graph(bounds: &[u64], joins: &[(usize, usize)]) -> JoinGraph {
        let n = bounds.len();
        let mut connected = vec![vec![false; n]; n];
        for &(a, b) in joins {
            connected[a][b] = true;
            connected[b][a] = true;
        }
        JoinGraph {
            bounds: bounds.to_vec(),
            connected,
        }
    }

    #[test]
    fn dp_defers_the_expensive_root() {
        // Roots 0 and 2 joined, 1 isolated. The equi-join with the 50-row
        // root caps at 50 rows wherever it happens, so the optimum crosses
        // the two small roots first (2·4 = 8 rows) and joins 0 last.
        let g = graph(&[50, 4, 2], &[(0, 2)]);
        let order = g.plan();
        assert_eq!(order, vec![2, 1, 0]);
        // And DP's choice is at least as cheap as every alternative.
        let best = g.order_cost(&order);
        for perm in [
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ] {
            assert!(best <= g.order_cost(&perm), "{perm:?} beat the DP choice");
        }
    }

    #[test]
    fn equal_bounds_keep_declaration_order() {
        let g = graph(&[3, 3, 3], &[(0, 1), (1, 2)]);
        assert_eq!(g.plan(), vec![0, 1, 2]);
    }

    #[test]
    fn greedy_matches_dp_on_chains() {
        let g = graph(&[9, 1, 5], &[(0, 1), (1, 2)]);
        assert_eq!(g.plan_greedy(), g.plan_dp());
    }

    #[test]
    fn wide_bodies_fall_back_to_greedy() {
        let n = DP_LIMIT + 1;
        let bounds: Vec<u64> = (0..n as u64).map(|i| n as u64 - i).collect();
        let joins: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = graph(&bounds, &joins);
        assert_eq!(g.plan(), g.plan_greedy());
        assert_eq!(g.plan().len(), n);
    }

    #[test]
    fn bodies_wider_than_a_machine_word_estimate_against_the_right_prefix() {
        // 40 roots of bound 4, only 0 and 35 joined: every step multiplies
        // except the 36th, which keeps the larger side. (A `u32` mask of
        // placed roots overflowed its shift from root 32 on.)
        let n = 40;
        let g = graph(&vec![4; n], &[(0, 35)]);
        let order: Vec<usize> = (0..n).collect();
        let rows = g.order_rows(&order);
        assert!(rows.windows(2).all(|w| w[0] <= w[1]), "{rows:?}");
        assert_eq!(rows[34], 1 << 70);
        assert_eq!(rows[35], rows[34]);
        assert_eq!(rows[39], 1 << 78);
        assert!(g.order_cost(&order) > rows[39]);
        // Estimates saturate instead of wrapping.
        let g = graph(&[u64::MAX; 3], &[]);
        assert_eq!(g.order_rows(&[0, 1, 2])[2], u128::MAX);
        assert_eq!(g.order_cost(&[0, 1, 2]), u128::MAX);
    }

    #[test]
    fn from_rule_reads_joins_and_respects_bounds() {
        let p = dsl::parse(
            r#"rule {
                 extract {
                   book { title { text as $a } }
                   article as $m
                   book { title { text as $b } }
                   join $a == $b
                 }
                 construct { out { all $m } }
               }"#,
        )
        .unwrap();
        let g = JoinGraph::from_rule(&p.rules[0], &[5, 1, 2]).unwrap();
        assert!(g.connected[0][2] && g.connected[2][0]);
        assert!(!g.connected[0][1]);
        // The greedy baseline picks 1 first (smallest bound) and pays a
        // cross product; DP sees that joining 2⋈0 first is cheaper.
        assert_eq!(g.plan_greedy(), vec![1, 2, 0]);
        let order = g.plan();
        assert!(g.order_cost(&order) <= g.order_cost(&[1, 2, 0]));
        // Mismatched bounds or single roots plan nothing.
        assert!(JoinGraph::from_rule(&p.rules[0], &[1]).is_none());
        let single =
            dsl::parse("rule { extract { book as $b } construct { out { all $b } } }").unwrap();
        assert!(JoinGraph::from_rule(&single.rules[0], &[3]).is_none());
    }

    #[test]
    fn cost_is_sensitive_to_cross_product_placement() {
        let g = graph(&[10, 10, 2], &[(0, 1)]);
        // Doing the cross product early is strictly worse.
        assert!(g.order_cost(&[2, 0, 1]) > g.order_cost(&[0, 1, 2]));
    }
}
