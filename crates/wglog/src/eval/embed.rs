//! Subgraph embedding: matching the query (thin/red) part of a rule graph
//! against an instance.
//!
//! Embeddings are graph homomorphisms (two variables may bind the same
//! object, matching G-Log semantics). The search is backtracking with two
//! standard improvements: candidate enumeration through the adjacency of an
//! already-bound neighbour whenever one exists, and constraint checking at
//! bind time rather than at the end. Regular path edges are verified with a
//! label-filtered BFS.

use std::collections::{HashSet, VecDeque};

use crate::instance::{Instance, ObjId};
use crate::rule::{Color, LabelTest, PathRe, PathRep, REdge, RNodeId, Rule, TypeTest};

/// A query embedding: per rule node, the bound object (construct nodes stay
/// unbound).
pub type Embedding = Vec<Option<ObjId>>;

/// Does a path matching `re` lead from `from` to `to`?
pub fn path_exists(db: &Instance, from: ObjId, to: ObjId, re: &PathRe) -> bool {
    match re.rep {
        PathRep::One => db
            .out_edges(from)
            .any(|e| re.labels.contains(&e.label) && e.to == to),
        PathRep::Plus | PathRep::Star => {
            if re.rep == PathRep::Star && from == to {
                return true;
            }
            // BFS over edges whose label is in the alternative set.
            let mut seen: HashSet<ObjId> = HashSet::new();
            let mut queue = VecDeque::new();
            queue.push_back(from);
            while let Some(cur) = queue.pop_front() {
                for e in db.out_edges(cur) {
                    if !re.labels.contains(&e.label) {
                        continue;
                    }
                    if e.to == to {
                        return true;
                    }
                    if seen.insert(e.to) {
                        queue.push_back(e.to);
                    }
                }
            }
            false
        }
    }
}

/// All objects reachable from `from` via a path matching `re` (used by the
/// planner in `gql-core`; exposed for reuse).
pub fn path_targets(db: &Instance, from: ObjId, re: &PathRe) -> Vec<ObjId> {
    match re.rep {
        PathRep::One => db
            .out_edges(from)
            .filter(|e| re.labels.contains(&e.label))
            .map(|e| e.to)
            .collect(),
        PathRep::Plus | PathRep::Star => {
            let mut seen: HashSet<ObjId> = HashSet::new();
            let mut order = Vec::new();
            let mut queue = VecDeque::new();
            if re.rep == PathRep::Star {
                seen.insert(from);
                order.push(from);
            }
            queue.push_back(from);
            while let Some(cur) = queue.pop_front() {
                for e in db.out_edges(cur) {
                    if re.labels.contains(&e.label) && seen.insert(e.to) {
                        order.push(e.to);
                        queue.push_back(e.to);
                    }
                }
            }
            order
        }
    }
}

fn edge_satisfied(db: &Instance, e: &REdge, from: ObjId, to: ObjId) -> bool {
    let ok = match &e.label {
        LabelTest::Label(l) => db.has_edge(from, l, to),
        LabelTest::Any => db.out_edges(from).any(|edge| edge.to == to),
        LabelTest::Regex(re) => path_exists(db, from, to, re),
    };
    ok != e.negated
}

/// Enumerate all embeddings of the rule's query part into the instance.
pub fn embeddings(rule: &Rule, db: &Instance) -> Vec<Embedding> {
    // Query nodes in a connectivity-friendly order: repeatedly pick an
    // unplaced node adjacent (via a positive, non-negated query edge) to a
    // placed one; fall back to declaration order.
    let qnodes: Vec<RNodeId> = rule.query_nodes().collect();
    if qnodes.is_empty() {
        // A pure construct rule has the empty premise: it holds once.
        return vec![vec![None; rule.nodes.len()]];
    }
    let positive: Vec<&REdge> = rule
        .edges
        .iter()
        .filter(|e| e.color == Color::Query && !e.negated)
        .collect();
    let negated: Vec<&REdge> = rule
        .edges
        .iter()
        .filter(|e| e.color == Color::Query && e.negated)
        .collect();

    // A query node that is only ever the *target* of negated edges is
    // *existential*: it never binds, and each negated edge into it asserts
    // "the source has no such neighbour" — the GraphLog reading of a
    // crossed edge to an otherwise unconstrained node ("document with no
    // index link"). Sources of negated edges and nodes with any positive
    // edge bind normally, so "no edge between these two bound nodes" stays
    // expressible. Isolated nodes bind too (cartesian semantics).
    //
    // Convention note: several negated edges sharing one existential target
    // are checked *independently* ("no a-neighbour" AND "no b-neighbour"),
    // not jointly ("no single object that is both"). Joint negation needs
    // the target bound — give it a positive edge.
    let existential: HashSet<RNodeId> = qnodes
        .iter()
        .copied()
        .filter(|&q| {
            let incident: Vec<&REdge> = rule
                .edges
                .iter()
                .filter(|e| e.from == q || e.to == q)
                .collect();
            !incident.is_empty()
                && incident
                    .iter()
                    .all(|e| e.negated && e.to == q && e.from != q)
        })
        .collect();
    let qnodes: Vec<RNodeId> = qnodes
        .into_iter()
        .filter(|q| !existential.contains(q))
        .collect();
    if qnodes.is_empty() {
        return Vec::new();
    }

    let mut order: Vec<RNodeId> = Vec::with_capacity(qnodes.len());
    let mut placed: HashSet<RNodeId> = HashSet::new();
    while order.len() < qnodes.len() {
        let next = qnodes
            .iter()
            .find(|&&q| {
                !placed.contains(&q)
                    && positive.iter().any(|e| {
                        (e.from == q && placed.contains(&e.to))
                            || (e.to == q && placed.contains(&e.from))
                    })
            })
            .or_else(|| qnodes.iter().find(|&&q| !placed.contains(&q)))
            .copied()
            .expect("some node remains");
        placed.insert(next);
        order.push(next);
    }

    let mut out: Vec<Embedding> = Vec::new();
    let mut current: Embedding = vec![None; rule.nodes.len()];
    search(
        rule,
        db,
        &order,
        0,
        &positive,
        &negated,
        &mut current,
        &mut out,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn search(
    rule: &Rule,
    db: &Instance,
    order: &[RNodeId],
    depth: usize,
    positive: &[&REdge],
    negated: &[&REdge],
    current: &mut Embedding,
    out: &mut Vec<Embedding>,
) {
    if depth == order.len() {
        // All nodes bound: verify negated edges last (they can only be
        // checked once both endpoints are fixed).
        let ok = negated.iter().all(|e| {
            match (current[e.from.index()], current[e.to.index()]) {
                (Some(f), Some(t)) => edge_satisfied(db, e, f, t),
                // A negated edge to an unbound (existential) target means
                // "no such neighbour at all": check existentially. Sources
                // of negated edges always bind (see the existential filter),
                // so (None, Some(_)) cannot occur.
                (Some(f), None) => !exists_any_target(db, e, f, rule),
                (None, _) => true,
            }
        });
        if ok {
            out.push(current.clone());
        }
        return;
    }
    let q = order[depth];
    let node = rule.node(q);

    // Candidates: through a bound neighbour when possible, else type index.
    let mut from_neighbour: Option<Vec<ObjId>> = None;
    for e in positive {
        if e.to == q {
            if let Some(src) = current[e.from.index()] {
                let mut cands: Vec<ObjId> = match &e.label {
                    LabelTest::Label(l) => db.successors_via(src, l).collect(),
                    LabelTest::Any => db.out_edges(src).map(|edge| edge.to).collect(),
                    LabelTest::Regex(re) => path_targets(db, src, re),
                };
                // Parallel edges reach the same object more than once; an
                // embedding binds objects, so duplicates would double-count.
                cands.sort();
                cands.dedup();
                from_neighbour = Some(cands);
                break;
            }
        }
        if e.from == q {
            if let Some(dst) = current[e.to.index()] {
                let mut cands: Vec<ObjId> = match &e.label {
                    LabelTest::Label(l) => db.predecessors_via(dst, l).collect(),
                    LabelTest::Any => db.in_edges(dst).map(|edge| edge.from).collect(),
                    // Reverse regex enumeration is not indexed; fall back to
                    // the type scan below.
                    LabelTest::Regex(_) => continue,
                };
                cands.sort();
                cands.dedup();
                from_neighbour = Some(cands);
                break;
            }
        }
    }
    // Try one candidate for `q`: test it, bind it, check the positive edges
    // whose endpoints are now both bound, and descend.
    let try_candidate = |cand: ObjId| {
        let obj = db.object(cand);
        if !node.test.matches(&obj.ty) || !node.constraints.iter().all(|c| c.holds(obj)) {
            return;
        }
        current[q.index()] = Some(cand);
        let consistent =
            positive
                .iter()
                .all(|e| match (current[e.from.index()], current[e.to.index()]) {
                    (Some(f), Some(t)) if e.from == q || e.to == q => edge_satisfied(db, e, f, t),
                    _ => true,
                });
        if consistent {
            search(rule, db, order, depth + 1, positive, negated, current, out);
        }
        current[q.index()] = None;
    };
    // The type index and the object table are iterated in place: the
    // instance is immutable while a search is open.
    match from_neighbour {
        Some(cands) => cands.into_iter().for_each(try_candidate),
        None => match &node.test {
            TypeTest::Type(t) => db.objects_of_type(t).for_each(try_candidate),
            TypeTest::Any => db.objects().map(|(id, _)| id).for_each(try_candidate),
        },
    }
}

/// For a negated edge with an unbound target: does `from` have any matching
/// neighbour that satisfies the target node's tests?
fn exists_any_target(db: &Instance, e: &REdge, from: ObjId, rule: &Rule) -> bool {
    let target_node = rule.node(e.to);
    let targets: Vec<ObjId> = match &e.label {
        LabelTest::Label(l) => db.successors_via(from, l).collect(),
        LabelTest::Any => db.out_edges(from).map(|edge| edge.to).collect(),
        LabelTest::Regex(re) => path_targets(db, from, re),
    };
    targets.into_iter().any(|t| {
        let obj = db.object(t);
        target_node.test.matches(&obj.ty) && target_node.constraints.iter().all(|c| c.holds(obj))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Object;
    use crate::rule::{CmpOp, PathRep, RuleBuilder};

    /// restaurants r0 (2 menus), r1 (no menu), r2 (1 menu); hotels h0.
    fn city_db() -> Instance {
        let mut db = Instance::new();
        let r0 = db.add_object(Object::new("restaurant"));
        let r1 = db.add_object(Object::new("restaurant"));
        let r2 = db.add_object(Object::new("restaurant"));
        db.add_attr(r0, "category", "italian");
        db.add_attr(r1, "category", "french");
        db.add_attr(r2, "category", "italian");
        let m0 = db.add_object(Object::new("menu"));
        let m1 = db.add_object(Object::new("menu"));
        let m2 = db.add_object(Object::new("menu"));
        db.add_attr(m0, "price", "20");
        db.add_attr(m1, "price", "45");
        db.add_attr(m2, "price", "32");
        db.add_edge(r0, "offers", m0);
        db.add_edge(r0, "offers", m1);
        db.add_edge(r2, "offers", m2);
        let h0 = db.add_object(Object::new("hotel"));
        db.add_edge(r0, "near", h0);
        db
    }

    #[test]
    fn single_node_embeddings() {
        let db = city_db();
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .build()
            .unwrap();
        assert_eq!(embeddings(&rule, &db).len(), 3);
        let rule = RuleBuilder::new().query_node("x", "*").build().unwrap();
        assert_eq!(embeddings(&rule, &db).len(), 7);
    }

    #[test]
    fn edge_patterns() {
        let db = city_db();
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .query_node("m", "menu")
            .query_edge("r", "offers", "m")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(embeddings(&rule, &db).len(), 3); // r0×2 + r2×1
    }

    #[test]
    fn constraints_filter() {
        let db = city_db();
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .constraint("category", CmpOp::Eq, "italian")
            .query_node("m", "menu")
            .constraint("price", CmpOp::Lt, "40")
            .query_edge("r", "offers", "m")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(embeddings(&rule, &db).len(), 2); // (r0,m0), (r2,m2)
    }

    #[test]
    fn negated_edge_with_existential_target() {
        let db = city_db();
        // Restaurants with no 'near' hotel at all: the hotel node is only
        // the target of a negated edge, so it is existential.
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .query_node("h", "hotel")
            .negated_edge("r", "near", "h")
            .unwrap()
            .build()
            .unwrap();
        // r1 and r2 have no near edge; r0 is near h0.
        assert_eq!(embeddings(&rule, &db).len(), 2);
    }

    #[test]
    fn negated_edge_between_bound_nodes() {
        let mut db = city_db();
        // Give the hotel a positive role so it binds: a second hotel and a
        // 'near' edge from r2.
        let h1 = db.add_object(Object::new("hotel"));
        db.add_edge(ObjId(2), "near", h1);
        // Pairs (restaurant, hotel) connected by *some* edge but not a
        // 'rates' edge: h binds via the positive wildcard edge.
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .query_node("h", "hotel")
            .query_edge("r", "*", "h")
            .unwrap()
            .negated_edge("r", "rates", "h")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(embeddings(&rule, &db).len(), 2); // (r0,h0) and (r2,h1)
    }

    #[test]
    fn negated_edge_with_unbound_endpoint() {
        let db = city_db();
        // Restaurants that offer no menu at all — r1 only. The menu node
        // participates in nothing else, so it stays unbound.
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .query_node("m", "menu")
            .negated_edge("r", "offers", "m")
            .unwrap()
            .build()
            .unwrap();
        // Drop the free menu node from the match space by filtering
        // embeddings where it bound: with homomorphism semantics the plain
        // build would bind m to every menu. The convention: a node used
        // *only* by negated edges is existential. Verify that behaviour.
        rule.check().unwrap();
        let embs = embeddings(&rule, &db);
        let r_ids: std::collections::HashSet<_> = embs.iter().map(|e| e[0].unwrap()).collect();
        assert!(r_ids.contains(&ObjId(1)));
        assert!(!r_ids.contains(&ObjId(0)));
        assert!(!r_ids.contains(&ObjId(2)));
    }

    #[test]
    fn homomorphism_not_injective() {
        let db = city_db();
        let rule = RuleBuilder::new()
            .query_node("a", "restaurant")
            .query_node("b", "restaurant")
            .build()
            .unwrap();
        // 3×3 pairs including (x, x).
        assert_eq!(embeddings(&rule, &db).len(), 9);
    }

    fn chain_db(n: usize) -> Instance {
        let mut db = Instance::new();
        let nodes: Vec<ObjId> = (0..n)
            .map(|i| {
                let o = db.add_object(Object::new("doc"));
                db.add_attr(o, "n", i.to_string());
                o
            })
            .collect();
        for w in nodes.windows(2) {
            db.add_edge(w[0], "link", w[1]);
        }
        db
    }

    #[test]
    fn regular_path_plus() {
        let db = chain_db(5);
        let rule = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .path_edge(
                "a",
                PathRe {
                    labels: vec!["link".into()],
                    rep: PathRep::Plus,
                },
                "b",
            )
            .unwrap()
            .build()
            .unwrap();
        // Transitive closure of a 5-chain: C(5,2) = 10 ordered reachable pairs.
        assert_eq!(embeddings(&rule, &db).len(), 10);
    }

    #[test]
    fn regular_path_star_includes_self() {
        let db = chain_db(3);
        let rule = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .path_edge(
                "a",
                PathRe {
                    labels: vec!["link".into()],
                    rep: PathRep::Star,
                },
                "b",
            )
            .unwrap()
            .build()
            .unwrap();
        // 3 self pairs + 3 proper pairs.
        assert_eq!(embeddings(&rule, &db).len(), 6);
    }

    #[test]
    fn path_exists_on_cycles_terminates() {
        let mut db = chain_db(3);
        let objs: Vec<ObjId> = db.objects().map(|(i, _)| i).collect();
        db.add_edge(objs[2], "link", objs[0]); // cycle
        let re = PathRe {
            labels: vec!["link".into()],
            rep: PathRep::Plus,
        };
        assert!(path_exists(&db, objs[0], objs[0], &re)); // via the cycle
        let re_other = PathRe {
            labels: vec!["other".into()],
            rep: PathRep::Plus,
        };
        assert!(!path_exists(&db, objs[0], objs[1], &re_other));
    }

    #[test]
    fn label_alternatives() {
        let mut db = Instance::new();
        let a = db.add_object(Object::new("d"));
        let b = db.add_object(Object::new("d"));
        let c = db.add_object(Object::new("d"));
        db.add_edge(a, "x", b);
        db.add_edge(b, "y", c);
        let re = PathRe {
            labels: vec!["x".into(), "y".into()],
            rep: PathRep::Plus,
        };
        assert!(path_exists(&db, a, c, &re));
        let re_x = PathRe {
            labels: vec!["x".into()],
            rep: PathRep::Plus,
        };
        assert!(!path_exists(&db, a, c, &re_x));
    }

    #[test]
    fn parallel_edges_do_not_duplicate_embeddings() {
        let mut db = Instance::new();
        let a = db.add_object(Object::new("a"));
        let b = db.add_object(Object::new("b"));
        db.add_edge(a, "x", b);
        db.add_edge(a, "y", b);
        let rule = RuleBuilder::new()
            .query_node("s", "a")
            .query_node("t", "b")
            .query_edge("s", "*", "t")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(embeddings(&rule, &db).len(), 1);
    }

    #[test]
    fn construct_only_rule_holds_once() {
        let rule = RuleBuilder::new()
            .construct_node("l", "marker")
            .build()
            .unwrap();
        let db = city_db();
        assert_eq!(embeddings(&rule, &db).len(), 1);
        // And through the fixpoint: exactly one marker object appears.
        let mut work = db.clone();
        crate::eval::fixpoint(&[&rule], &mut work, crate::eval::FixpointMode::Naive).unwrap();
        assert_eq!(work.objects_of_type("marker").count(), 1);
    }

    #[test]
    fn wildcard_edge_label() {
        let db = city_db();
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .query_node("h", "hotel")
            .query_edge("r", "*", "h")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(embeddings(&rule, &db).len(), 1); // r0 -near-> h0
    }
}
