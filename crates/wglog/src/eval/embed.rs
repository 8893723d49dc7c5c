//! Subgraph embedding: matching the query (thin/red) part of a rule graph
//! against an instance.
//!
//! Embeddings are graph homomorphisms (two variables may bind the same
//! object, matching G-Log semantics). The search is backtracking with two
//! standard improvements: candidate enumeration through the adjacency of an
//! already-bound neighbour whenever one exists, and constraint checking at
//! bind time rather than at the end. Regular path edges are verified with a
//! BFS over the labelled adjacency of each label in the path.
//!
//! What the search does is a [`SearchPlan`], worked out from the rule
//! alone: which query nodes bind, in which order, where each finds its
//! candidates, and which edges each binding must check. The search runs it.
//!
//! The search works in integers. Each query edge's label, and each label of
//! a regular path, is resolved to a [`LabelKey`] once per search, each query
//! node's type and each constrained attribute's name to a [`NameKey`], and
//! each constraint's constant was parsed once by the plan, so the inner
//! loop hashes no string, compares no name and parses no constant. It
//! allocates per rule, not per candidate or per embedding: candidates go to
//! one buffer per search depth, reused by every node bound at that depth,
//! and each embedding is one row appended to an [`EmbeddingTable`].

use std::collections::{HashSet, VecDeque};

use crate::instance::{Instance, LabelKey, NameKey, ObjId};
use crate::rule::{LabelTest, PathRep, RNodeId, Rule, TypeTest};

use super::plan::{Access, SearchPlan};

/// The embeddings of a rule's query part, in the order the search finds
/// them: one row-major table of `width` cells per row, one cell per rule
/// node — the bound object, `None` for construct and existential nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmbeddingTable {
    width: usize,
    rows: usize,
    cells: Vec<Option<ObjId>>,
}

impl EmbeddingTable {
    /// Number of embeddings.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Cells per row: the rule's node count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Embedding number `i`, indexed by [`RNodeId`].
    pub fn row(&self, i: usize) -> &[Option<ObjId>] {
        &self.cells[i * self.width..][..self.width]
    }

    /// Every embedding, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Option<ObjId>]> + '_ {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Empty the table for rows `width` cells wide, keeping its buffer.
    fn reset(&mut self, width: usize) {
        self.width = width;
        self.rows = 0;
        self.cells.clear();
    }

    fn push(&mut self, row: &[Option<ObjId>]) {
        self.cells.extend_from_slice(row);
        self.rows += 1;
    }
}

/// Does a path of `rep` steps over the labels `keys` lead from `from` to
/// `to`? `keys` are a [`PathRe`](crate::rule::PathRe)'s labels resolved
/// against `db`.
pub fn path_exists(db: &Instance, from: ObjId, to: ObjId, rep: PathRep, keys: &[LabelKey]) -> bool {
    match rep {
        PathRep::One => keys.iter().any(|&key| db.has_edge_key(from, key, to)),
        PathRep::Plus | PathRep::Star => {
            if rep == PathRep::Star && from == to {
                return true;
            }
            // BFS over the edges of each label in the alternative set.
            let mut seen: HashSet<ObjId> = HashSet::new();
            let mut queue = VecDeque::new();
            queue.push_back(from);
            while let Some(cur) = queue.pop_front() {
                for &key in keys {
                    for next in db.successors_key(cur, key) {
                        if next == to {
                            return true;
                        }
                        if seen.insert(next) {
                            queue.push_back(next);
                        }
                    }
                }
            }
            false
        }
    }
}

/// The objects a path of `rep` steps over the labels `keys` leads to from
/// `from`. A `+` or `*` path lists each once; a single step lists an object
/// once per edge to it. The order is the walk's, label by label: a caller
/// that binds candidates sorts them.
pub fn path_targets(db: &Instance, from: ObjId, rep: PathRep, keys: &[LabelKey]) -> Vec<ObjId> {
    match rep {
        PathRep::One => (keys.iter())
            .flat_map(|&key| db.successors_key(from, key))
            .collect(),
        PathRep::Plus | PathRep::Star => {
            let mut seen: HashSet<ObjId> = HashSet::new();
            let mut order = Vec::new();
            let mut queue = VecDeque::new();
            if rep == PathRep::Star {
                seen.insert(from);
                order.push(from);
            }
            queue.push_back(from);
            while let Some(cur) = queue.pop_front() {
                for &key in keys {
                    for next in db.successors_key(cur, key) {
                        if seen.insert(next) {
                            order.push(next);
                            queue.push_back(next);
                        }
                    }
                }
            }
            order
        }
    }
}

/// A query edge's label test, resolved against the instance searched: a
/// path's labels to one key each, once per search.
enum Test {
    Label(LabelKey),
    Any,
    Path(PathRep, Vec<LabelKey>),
    /// A query node's type, or a constrained attribute, by key.
    Name(NameKey),
}

impl Test {
    fn resolve(db: &Instance, label: &LabelTest) -> Self {
        match label {
            LabelTest::Label(l) => Test::Label(db.label_key(l)),
            LabelTest::Any => Test::Any,
            LabelTest::Regex(re) => {
                Test::Path(re.rep, re.labels.iter().map(|l| db.label_key(l)).collect())
            }
        }
    }
}

/// Enumerate all embeddings of the rule's query part into the instance.
pub fn embeddings(rule: &Rule, db: &Instance) -> EmbeddingTable {
    let mut table = EmbeddingTable::default();
    embeddings_into(rule, &SearchPlan::new(rule), db, &mut table);
    table
}

/// Run `plan`, the search of `rule`, into a table the caller reuses: its
/// rows are replaced.
pub(crate) fn embeddings_into(
    rule: &Rule,
    plan: &SearchPlan,
    db: &Instance,
    out: &mut EmbeddingTable,
) {
    debug_assert!(
        plan.fits(rule),
        "a search plan runs the rule it was built for"
    );
    let width = rule.nodes.len();
    out.reset(width);
    if plan.matches_nothing() {
        return;
    }
    let mut search = Search {
        rule,
        plan,
        db,
        tests: (rule.edges.iter())
            .map(|e| Test::resolve(db, &e.label))
            .chain((rule.nodes.iter()).map(|n| match &n.test {
                TypeTest::Type(t) => Test::Name(db.name_key(t)),
                TypeTest::Any => Test::Any,
            }))
            .chain(
                (rule.nodes.iter())
                    .flat_map(|n| &n.constraints)
                    .map(|c| Test::Name(db.name_key(&c.attr))),
            )
            .collect(),
        cands: vec![Vec::new(); plan.steps().len()],
        current: vec![None; width],
    };
    search.search(0, out);
}

/// One embedding search: the rule's plan, its edge tests as resolved
/// against the instance, and the partial embedding being extended.
struct Search<'a> {
    rule: &'a Rule,
    plan: &'a SearchPlan,
    db: &'a Instance,
    /// Per rule edge, its label test; then per rule node, its type's key
    /// (`Any` for `*`); then every constraint's attribute key, node by node.
    /// One table, so that resolving a rule against the instance is one
    /// allocation.
    tests: Vec<Test>,
    current: Vec<Option<ObjId>>,
    /// Per depth, the buffer its candidates are collected in.
    cands: Vec<Vec<ObjId>>,
}

impl Search<'_> {
    /// Does `obj` pass query node `q`'s type test and constraints?
    fn fits(&self, q: usize, obj: ObjId) -> bool {
        let (rule, obj) = (self.rule, self.db.object(obj));
        let (edges, nodes) = (rule.edges.len(), rule.nodes.len());
        if let Test::Name(ty) = self.tests[edges + q] {
            if ty != obj.ty_key() {
                return false;
            }
        }
        let first = edges + nodes + self.plan.first_constraint(q);
        (rule.nodes[q].constraints.iter())
            .zip(&self.tests[first..])
            .zip(self.plan.constants(q))
            .all(|((c, key), &n)| match *key {
                Test::Name(key) => c.holds_values(obj.values(key), n),
                _ => unreachable!("a constraint resolves to a name"),
            })
    }

    /// Does edge `i` (its negation aside) lead from `from` to `to`?
    fn holds(&self, i: usize, from: ObjId, to: ObjId) -> bool {
        match &self.tests[i] {
            &Test::Label(key) => self.db.has_edge_key(from, key, to),
            Test::Any => self.db.out_edges(from).any(|edge| edge.to == to),
            Test::Path(rep, keys) => path_exists(self.db, from, to, *rep, keys),
            Test::Name(_) => unreachable!("an edge resolves to a label test"),
        }
    }

    /// The object bound to rule node `q`, which the plan binds before it is
    /// read.
    fn bound(&self, q: RNodeId) -> ObjId {
        self.current[q.index()].expect("the plan binds a node before reading it")
    }

    fn search(&mut self, depth: usize, out: &mut EmbeddingTable) {
        let (rule, plan, db) = (self.rule, self.plan, self.db);
        let Some(step) = plan.steps().get(depth) else {
            // All nodes bound: the negated edges, which can only be checked
            // once both endpoints are fixed.
            let ok = plan.negated().iter().all(|n| {
                let e = &rule.edges[n.edge];
                let from = self.bound(e.from);
                match n.target_binds {
                    true => !self.holds(n.edge, from, self.bound(e.to)),
                    false => !self.exists_any_target(n.edge, from),
                }
            });
            if ok {
                out.push(&self.current);
            }
            return;
        };
        let q = step.node.index();
        // The type index and the object table are iterated in place: the
        // instance is immutable while a search is open.
        if step.access == Access::Scan {
            match &rule.nodes[q].test {
                TypeTest::Type(t) => {
                    for cand in db.objects_of_type(t) {
                        self.try_candidate(depth, cand, out);
                    }
                }
                TypeTest::Any => {
                    for (cand, _) in db.objects() {
                        self.try_candidate(depth, cand, out);
                    }
                }
            }
            return;
        }
        let mut cands = std::mem::take(&mut self.cands[depth]);
        cands.clear();
        match step.access {
            Access::Forward(i) => {
                let src = self.bound(rule.edges[i].from);
                match &self.tests[i] {
                    &Test::Label(key) => cands.extend(db.successors_key(src, key)),
                    Test::Any => cands.extend(db.out_edges(src).map(|edge| edge.to)),
                    Test::Path(rep, keys) => cands.extend(path_targets(db, src, *rep, keys)),
                    Test::Name(_) => unreachable!("an edge resolves to a label test"),
                }
            }
            Access::Backward(i) => {
                let dst = self.bound(rule.edges[i].to);
                match &self.tests[i] {
                    &Test::Label(key) => cands.extend(db.predecessors_key(dst, key)),
                    Test::Any => cands.extend(db.in_edges(dst).map(|edge| edge.from)),
                    Test::Path(..) => unreachable!("a plan never walks a path backwards"),
                    Test::Name(_) => unreachable!("an edge resolves to a label test"),
                }
            }
            Access::Scan => unreachable!("scanned above"),
        }
        // Parallel edges reach the same object more than once; an
        // embedding binds objects, so duplicates would double-count.
        cands.sort();
        cands.dedup();
        for &cand in &cands {
            self.try_candidate(depth, cand, out);
        }
        self.cands[depth] = cands;
    }

    /// Try one candidate for step `depth`'s node: test it, bind it, check
    /// the edges the binding closes, and descend.
    fn try_candidate(&mut self, depth: usize, cand: ObjId, out: &mut EmbeddingTable) {
        let (rule, step) = (self.rule, &self.plan.steps()[depth]);
        let q = step.node.index();
        if !self.fits(q, cand) {
            return;
        }
        self.current[q] = Some(cand);
        let consistent = (step.checks.iter()).all(|&i| {
            let e = &rule.edges[i];
            self.holds(i, self.bound(e.from), self.bound(e.to))
        });
        if consistent {
            self.search(depth + 1, out);
        }
        self.current[q] = None;
    }

    /// For negated edge `i` with an unbound target: does `from` have any
    /// matching neighbour that passes the target node's tests?
    fn exists_any_target(&self, i: usize, from: ObjId) -> bool {
        let fits = |t| self.fits(self.rule.edges[i].to.index(), t);
        match &self.tests[i] {
            &Test::Label(key) => self.db.successors_key(from, key).any(fits),
            Test::Any => self.db.out_edges(from).any(|edge| fits(edge.to)),
            Test::Path(rep, keys) => path_targets(self.db, from, *rep, keys)
                .into_iter()
                .any(fits),
            Test::Name(_) => unreachable!("an edge resolves to a label test"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Object;
    use crate::rule::{CmpOp, PathRe, RuleBuilder};

    /// `path_exists` over `re`'s labels as the search resolves them.
    fn leads(db: &Instance, from: ObjId, to: ObjId, re: &PathRe) -> bool {
        let keys: Vec<LabelKey> = re.labels.iter().map(|l| db.label_key(l)).collect();
        path_exists(db, from, to, re.rep, &keys)
    }

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
    fn numeric_constraint_compares_numbers() {
        // `price < 15` reads both sides as numbers, parsed once for the
        // constant: "9" passes and "120" does not, the reverse of a string
        // comparison.
        let mut db = city_db();
        let cheap = db.add_object(Object::new("menu"));
        db.add_attr(cheap, "price", "9");
        let dear = db.add_object(Object::new("menu"));
        db.add_attr(dear, "price", "120");
        let rule = RuleBuilder::new()
            .query_node("m", "menu")
            .constraint("price", CmpOp::Lt, "15")
            .build()
            .unwrap();
        let embs = embeddings(&rule, &db);
        assert_eq!((embs.len(), embs.width()), (1, 1));
        assert_eq!(embs.row(0), [Some(cheap)]);
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
        let r_ids: std::collections::HashSet<_> = embs.rows().map(|e| e[0].unwrap()).collect();
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
        assert!(leads(&db, objs[0], objs[0], &re)); // via the cycle
        let re_other = PathRe {
            labels: vec!["other".into()],
            rep: PathRep::Plus,
        };
        assert!(!leads(&db, objs[0], objs[1], &re_other));
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
        assert!(leads(&db, a, c, &re));
        let re_x = PathRe {
            labels: vec!["x".into()],
            rep: PathRep::Plus,
        };
        assert!(!leads(&db, a, c, &re_x));
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
