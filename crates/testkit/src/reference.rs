//! Reference embedding enumerators for XML-GL extract graphs and WG-Log
//! query graphs.
//!
//! The XML-GL matcher it checks (`gql_xmlgl::eval::matcher`) builds rows of node
//! ids in one arena, folds products in place, hashes join keys and re-reads
//! values on demand. This is the walk that one replaced, kept as the oracle
//! because it shares none of that: every step returns a fresh `Vec` of rows,
//! a value is an owned `String` read when it is bound, predicates go through
//! [`Value`]'s loose comparisons, sibling order through
//! [`Document::sibling_index`], and roots are joined by a nested loop over
//! content keys: a value's text, a node's [`Tree`], built here by recursion
//! and compared by derived equality — not `gql_ssdm::index`'s walk. No
//! index, no guard, no trace, no plan — and no thought for speed.
//!
//! The WG-Log search it checks ([`gql_wglog::eval::embeddings`]) binds
//! query nodes one at a time through labelled adjacency, resolved label
//! keys and pre-parsed constants. [`wglog_embeddings`] instead tries every
//! assignment of the binding query nodes, and checks every edge by scanning
//! the instance's edge list and every regular path by its own BFS over that
//! list.
//!
//! [`xpath`] is the textbook XPath 1.0 evaluator `gql_xpath` is checked
//! against, and [`loader`] the textbook document → instance loader
//! `gql_wglog::Instance::from_document` is.

pub mod loader;
pub mod xpath;

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet, VecDeque};

use gql_ssdm::document::NodeKind;
use gql_ssdm::value::{CmpOp, Value};
use gql_ssdm::{Document, NodeId};
use gql_wglog::instance::{Instance, ObjId};
use gql_wglog::rule::{Color, LabelTest, PathRep, REdge, RNodeId, Rule as WgLogRule, TypeTest};
use gql_xmlgl::ast::{ExtractGraph, Predicate, QEdge, QNodeId, QNodeKind, Rule};
use gql_xmlgl::eval::{cell_text, Bindings};

/// What a query node is bound to: a document node (boxes) or a string
/// (circles), which carries the element it was read from — two occurrences
/// of one value are two matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    Node(NodeId),
    Value { text: String, origin: NodeId },
}

/// One embedding: what each query node is bound to, `None` under a negated
/// edge.
pub type Embedding = Vec<Option<Bound>>;

/// Every embedding of `rule`'s extract graph into `doc`: per root in
/// document order, roots combined first-declared outermost, rows that fail
/// a join dropped.
pub fn embeddings(rule: &Rule, doc: &Document) -> Vec<Embedding> {
    let g = &rule.extract;
    let mut rows: Option<Vec<Embedding>> = None;
    for &root in &g.roots {
        let here: Vec<Embedding> = doc
            .descendants(doc.root())
            .flat_map(|n| match_node(g, doc, root, n))
            .collect();
        rows = Some(match rows {
            None => here,
            Some(rows) => rows
                .iter()
                .flat_map(|l| here.iter().map(move |r| merged(l, r)))
                // Joins are checked as soon as both their ends are there.
                .filter(|row| joins_hold(g, doc, row, false))
                .collect(),
        });
    }
    let mut rows = rows.unwrap_or_default();
    rows.retain(|row| joins_hold(g, doc, row, true));
    rows
}

/// Does every join hold whose ends `row` both binds — and, when `all` is
/// asked, does it bind both ends of every join?
fn joins_hold(g: &ExtractGraph, doc: &Document, row: &Embedding, all: bool) -> bool {
    g.joins
        .iter()
        .all(|&(a, b)| match (&row[a.index()], &row[b.index()]) {
            (Some(a), Some(b)) => content_key(doc, a) == content_key(doc, b),
            _ => !all,
        })
}

/// The key joins compare: a value's text, a node's tree. A value never
/// equals a node.
#[derive(Debug, PartialEq, Eq)]
enum Key {
    Value(String),
    Node(Option<Tree>),
}

fn content_key(doc: &Document, bound: &Bound) -> Key {
    match bound {
        Bound::Value { text, .. } => Key::Value(text.clone()),
        Bound::Node(n) => Key::Node(tree(doc, *n)),
    }
}

/// A subtree as deep equality sees it, owned: attributes sorted, comments
/// and processing instructions dropped, each text node its own child.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tree {
    Element {
        name: String,
        attrs: Vec<(String, String)>,
        children: Vec<Tree>,
    },
    Text(String),
}

/// The [`Tree`] of `node`; `None` for a comment or a processing
/// instruction.
pub fn tree(doc: &Document, node: NodeId) -> Option<Tree> {
    match doc.kind(node) {
        NodeKind::Comment | NodeKind::Pi => None,
        NodeKind::Text => Some(Tree::Text(doc.text(node).unwrap_or("").to_string())),
        NodeKind::Element | NodeKind::Document => {
            let mut attrs: Vec<(String, String)> = (doc.attrs(node))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            attrs.sort();
            Some(Tree::Element {
                name: doc.name(node).unwrap_or("").to_string(),
                attrs,
                children: (doc.children(node).iter())
                    .filter_map(|&c| tree(doc, c))
                    .collect(),
            })
        }
    }
}

/// Two embeddings binding disjoint query nodes, as one.
fn merged(a: &Embedding, b: &Embedding) -> Embedding {
    a.iter()
        .zip(b)
        .map(|(a, b)| a.clone().or(b.clone()))
        .collect()
}

fn unit(g: &ExtractGraph, q: QNodeId, bound: Bound) -> Embedding {
    let mut row = vec![None; g.nodes.len()];
    row[q.index()] = Some(bound);
    row
}

/// One comparison of a string value with a constant, by the comparisons of
/// [`Value`].
fn compares(op: CmpOp, data: &str, constant: &str) -> bool {
    let (d, c) = (Value::from_literal(data), Value::from_literal(constant));
    match op {
        CmpOp::Eq => d.loose_eq(&c),
        CmpOp::Ne => !d.loose_eq(&c),
        CmpOp::Lt => d.loose_cmp(&c) == Some(Ordering::Less),
        CmpOp::Le => matches!(d.loose_cmp(&c), Some(Ordering::Less | Ordering::Equal)),
        CmpOp::Gt => d.loose_cmp(&c) == Some(Ordering::Greater),
        CmpOp::Ge => matches!(d.loose_cmp(&c), Some(Ordering::Greater | Ordering::Equal)),
        CmpOp::Contains => data.contains(constant),
        CmpOp::StartsWith => data.starts_with(constant),
    }
}

/// A predicate over a string value.
fn holds(predicate: &Predicate, data: &str) -> bool {
    predicate.clauses.iter().all(|clause| {
        clause
            .iter()
            .any(|(op, constant)| compares(*op, data, constant))
    })
}

/// All embeddings of the subtree at `q` with `q` matched at `data`.
fn match_node(g: &ExtractGraph, doc: &Document, q: QNodeId, data: NodeId) -> Vec<Embedding> {
    let node = g.node(q);
    let QNodeKind::Element(test) = &node.kind else {
        return Vec::new();
    };
    let fits = doc.kind(data) == NodeKind::Element
        && doc.name(data).is_some_and(|name| test.matches(name))
        && holds(&node.predicate, &doc.text_content(data));
    if !fits {
        return Vec::new();
    }
    let mut partials = vec![unit(g, q, Bound::Node(data))];
    for edge in &node.children {
        let alternatives = match_edge(g, doc, edge, data);
        if edge.negated {
            if !alternatives.is_empty() {
                return Vec::new();
            }
            continue;
        }
        partials = partials
            .iter()
            .flat_map(|p| alternatives.iter().map(move |a| merged(p, a)))
            .collect();
    }
    if g.ordered[q.index()] {
        // Direct element children must be bound in sibling order.
        partials.retain(|row| {
            let positions: Vec<usize> = node
                .children
                .iter()
                .filter(|e| !e.negated && !e.deep)
                .filter_map(|e| match &row[e.target.index()] {
                    Some(Bound::Node(n)) => Some(doc.sibling_index(*n)),
                    _ => None,
                })
                .collect();
            positions.windows(2).all(|w| w[0] <= w[1])
        });
    }
    partials
}

/// Alternatives for one containment edge below a matched element.
fn match_edge(g: &ExtractGraph, doc: &Document, edge: &QEdge, parent: NodeId) -> Vec<Embedding> {
    let target = g.node(edge.target);
    let places: Vec<NodeId> = match (&target.kind, edge.deep) {
        (QNodeKind::Element(_), false) => doc.children(parent).to_vec(),
        (QNodeKind::Element(_), true) => doc.descendants(parent).collect(),
        // A circle on a plain edge reads the parent itself; on an asterisk
        // edge the parent or anything below it.
        (_, false) => vec![parent],
        (_, true) => doc.descendants_or_self(parent).collect(),
    };
    let elements = places
        .into_iter()
        .filter(|&n| doc.kind(n) == NodeKind::Element);
    match &target.kind {
        QNodeKind::Element(_) => elements
            .flat_map(|n| match_node(g, doc, edge.target, n))
            .collect(),
        QNodeKind::Attribute(name) => elements
            .filter_map(|el| Some((el, doc.attr(el, name)?.to_string())))
            .filter(|(_, text)| holds(&target.predicate, text))
            .map(|(origin, text)| unit(g, edge.target, Bound::Value { text, origin }))
            .collect(),
        // A text circle wants a text child of the element's own, and binds
        // its whole text content.
        QNodeKind::Text => elements
            .filter(|&el| {
                doc.children(el)
                    .iter()
                    .any(|&c| doc.kind(c) == NodeKind::Text)
            })
            .map(|el| (el, doc.text_content(el)))
            .filter(|(_, text)| holds(&target.predicate, text))
            .map(|(origin, text)| unit(g, edge.target, Bound::Value { text, origin }))
            .collect(),
    }
}

/// Hold a binding table to the reference: the same rows in the same order,
/// a box's cell the matched node, a circle's cell the element its value was
/// read from and the text read through it now the text bound then.
pub fn check_table(rule: &Rule, doc: &Document, table: &Bindings) -> Result<(), String> {
    let g = &rule.extract;
    let reference = embeddings(rule, doc);
    if table.len() != reference.len() {
        return Err(format!(
            "{} rows against the reference's {}",
            table.len(),
            reference.len()
        ));
    }
    for (i, (row, expected)) in table.iter().zip(&reference).enumerate() {
        for q in g.ids() {
            let agree = match (row.get(q), &expected[q.index()]) {
                (None, None) => true,
                (Some(cell), Some(Bound::Node(n))) => cell == *n,
                (Some(cell), Some(Bound::Value { text, origin })) => {
                    cell == *origin && cell_text(doc, g, q, cell) == *text
                }
                _ => false,
            };
            if !agree {
                return Err(format!(
                    "row {i}, q{}: {:?} against the reference's {:?}",
                    q.index(),
                    row.get(q),
                    expected[q.index()]
                ));
            }
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// WG-Log
// ----------------------------------------------------------------------

/// The most assignments [`wglog_embeddings`] tries for one rule.
pub const WGLOG_ASSIGNMENT_CAP: usize = 32768;

/// One WG-Log embedding: per rule node, the bound object; `None` for
/// construct and existential nodes.
pub type WgLogRow = Vec<Option<ObjId>>;

/// Every embedding of `rule`'s query part into `db`, in no particular
/// order; `None` when the binding query nodes have more than
/// [`WGLOG_ASSIGNMENT_CAP`] assignments between them.
///
/// The convention is the one `gql_wglog::eval::plan` documents. A query
/// node binds unless it is *existential*: it has edges, and every one of
/// them is a negated edge into it from another node. A negated edge into
/// an existential node holds when its source has no neighbour over it that
/// passes the node's tests, each such edge on its own; any other negated
/// edge holds when its edge or path does not. A rule with no query node
/// holds once.
pub fn wglog_embeddings(rule: &WgLogRule, db: &Instance) -> Option<Vec<WgLogRow>> {
    let width = rule.nodes.len();
    let query: Vec<RNodeId> = rule.query_nodes().collect();
    if query.is_empty() {
        return Some(vec![vec![None; width]]);
    }
    let existential = |q: RNodeId| {
        let incident: Vec<&REdge> = (rule.edges.iter())
            .filter(|e| e.from == q || e.to == q)
            .collect();
        !incident.is_empty() && (incident.iter()).all(|e| e.negated && e.to == q && e.from != q)
    };
    let binding: Vec<RNodeId> = query.into_iter().filter(|&q| !existential(q)).collect();
    if binding.is_empty() {
        // Only an ill-formed rule gets here: an existential node's sources
        // are query nodes, and they bind.
        return Some(Vec::new());
    }
    let domains: Vec<Vec<ObjId>> = (binding.iter())
        .map(|&q| {
            (db.objects())
                .map(|(id, _)| id)
                .filter(|&id| passes(rule, q, db, id))
                .collect()
        })
        .collect();
    let total = (domains.iter()).try_fold(1usize, |n, d| {
        n.checked_mul(d.len())
            .filter(|&n| n <= WGLOG_ASSIGNMENT_CAP)
    })?;
    let edges: Vec<&REdge> = (rule.edges.iter())
        .filter(|e| e.color == Color::Query)
        .collect();
    // What each query edge reaches from each source, found once.
    let mut reach: HashMap<(usize, ObjId), HashSet<ObjId>> = HashMap::new();
    let mut reaches = |i: usize, from: ObjId, to: ObjId| {
        (reach.entry((i, from)))
            .or_insert_with(|| reached(db, &edges[i].label, from))
            .contains(&to)
    };
    let mut rows = Vec::new();
    let mut picks = vec![0usize; binding.len()];
    let mut row: WgLogRow = vec![None; width];
    for _ in 0..total {
        for (i, &q) in binding.iter().enumerate() {
            row[q.index()] = Some(domains[i][picks[i]]);
        }
        let holds = (0..edges.len()).all(|i| {
            let e = edges[i];
            match (row[e.from.index()], row[e.to.index()]) {
                (Some(f), Some(t)) => reaches(i, f, t) != e.negated,
                (Some(f), None) if e.negated => {
                    !(db.objects()).any(|(o, _)| passes(rule, e.to, db, o) && reaches(i, f, o))
                }
                _ => true,
            }
        });
        if holds {
            rows.push(row.clone());
        }
        // The next assignment, the last binding node turning fastest.
        for i in (0..picks.len()).rev() {
            picks[i] += 1;
            if picks[i] < domains[i].len() {
                break;
            }
            picks[i] = 0;
        }
    }
    Some(rows)
}

/// Does `obj` pass query node `q`'s type test and constraints?
fn passes(rule: &WgLogRule, q: RNodeId, db: &Instance, obj: ObjId) -> bool {
    let (node, obj) = (rule.node(q), db.object(obj));
    let typed = match &node.test {
        TypeTest::Type(t) => *t == obj.ty(),
        TypeTest::Any => true,
    };
    typed
        && node.constraints.iter().all(|c| {
            (obj.attrs()).any(|(name, value)| *name == c.attr && compares(c.op, value, &c.value))
        })
}

/// Every object one edge over `label` leads to from `from` — for a regular
/// path, every object a path does: a scan of the edge list per object
/// reached, breadth first.
fn reached(db: &Instance, label: &LabelTest, from: ObjId) -> HashSet<ObjId> {
    let step = |x: ObjId, over: &dyn Fn(&str) -> bool| -> Vec<ObjId> {
        (db.edges())
            .filter(|e| e.from == x && over(e.label))
            .map(|e| e.to)
            .collect()
    };
    let re = match label {
        LabelTest::Label(l) => return step(from, &|x| x == l).into_iter().collect(),
        LabelTest::Any => return step(from, &|_| true).into_iter().collect(),
        LabelTest::Regex(re) => re,
    };
    let over = |x: &str| re.labels.iter().any(|l| l == x);
    if re.rep == PathRep::One {
        return step(from, &over).into_iter().collect();
    }
    let mut found = HashSet::new();
    if re.rep == PathRep::Star {
        found.insert(from);
    }
    let mut expanded = HashSet::from([from]);
    let mut queue = VecDeque::from([from]);
    while let Some(x) = queue.pop_front() {
        for to in step(x, &over) {
            found.insert(to);
            if expanded.insert(to) {
                queue.push_back(to);
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_wglog::instance::Object;
    use gql_wglog::rule::{Program, RuleBuilder};

    /// The engine's regular-path walks follow each label's adjacency by
    /// id; the reference scans the edge list by name. On cyclic web graphs
    /// with edges and an object added on top of the loaded base, both reach
    /// the same objects from every object, for generated `(a|b)`, `(a|b)+`
    /// and `(a|b)*` paths over labels the graph has and one it lacks.
    #[test]
    fn the_engines_path_walks_reach_what_the_reference_reaches() {
        use gql_ssdm::generator::{webgraph, WebConfig};
        use gql_ssdm::rng::Rng;
        use gql_wglog::eval::{path_exists, path_targets};
        use gql_wglog::rule::PathRe;
        const LABELS: [&str; 6] = ["doc", "link", "index", "ref", "hop", "none"];
        let mut reached_any = 0;
        for seed in 0..48 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut db = Instance::from_document(&webgraph(WebConfig {
                docs: rng.gen_range(2..10),
                links_per_doc: rng.gen_range(1..4),
                index_percent: 50,
                seed,
            }));
            let extra = db.add_object(Object::new("doc"));
            let n = db.object_count();
            for _ in 0..rng.gen_range(0..10) {
                let from = ObjId(rng.gen_range(0..n) as u32);
                let to = if rng.gen_bool(0.3) {
                    extra
                } else {
                    ObjId(rng.gen_range(0..n) as u32)
                };
                db.add_edge(from, LABELS[rng.gen_range(1..5)], to);
            }
            for _ in 0..6 {
                let re = PathRe {
                    labels: (0..rng.gen_range(1..4))
                        .map(|_| LABELS[rng.gen_range(0..LABELS.len())].to_string())
                        .collect(),
                    rep: [PathRep::One, PathRep::Plus, PathRep::Star][rng.gen_range(0..3)],
                };
                let keys: Vec<_> = re.labels.iter().map(|l| db.label_key(l)).collect();
                let test = LabelTest::Regex(re.clone());
                for from in (0..n).map(|i| ObjId(i as u32)) {
                    let expect = reached(&db, &test, from);
                    reached_any += usize::from(!expect.is_empty());
                    let targets = path_targets(&db, from, re.rep, &keys);
                    let got: HashSet<ObjId> = targets.iter().copied().collect();
                    assert_eq!(got, expect, "seed {seed}, {re} from {from:?}");
                    for to in (0..n).map(|i| ObjId(i as u32)) {
                        assert_eq!(
                            path_exists(&db, from, to, re.rep, &keys),
                            expect.contains(&to),
                            "seed {seed}, {re} from {from:?} to {to:?}"
                        );
                    }
                }
            }
        }
        assert!(reached_any > 1000, "{reached_any} walks reached anything");
    }

    /// 33 objects: two free nodes have 1,089 assignments, three have
    /// 35,937 — past the cap, so the reference declines and the oracle
    /// counts the rule as skipped, not compared.
    #[test]
    fn the_wglog_reference_declines_past_its_cap_and_the_oracle_counts_it() {
        let mut db = Instance::new();
        for _ in 0..33 {
            db.add_object(Object::new("d"));
        }
        let free = |n: usize| {
            let names = ["a", "b", "c"];
            (names[..n].iter())
                .fold(RuleBuilder::new(), |b, v| b.query_node(v, "d"))
                .build()
                .unwrap()
        };
        assert_eq!(wglog_embeddings(&free(2), &db).map(|r| r.len()), Some(1089));
        assert_eq!(wglog_embeddings(&free(3), &db), None);
        let (compared, skipped) = crate::oracle::reference_tally();
        let program = Program {
            rules: vec![free(2), free(3)],
            goal: None,
        };
        crate::oracle::check_wglog_embeddings(&db, &program).unwrap();
        assert_eq!(
            crate::oracle::reference_tally(),
            (compared + 1, skipped + 1)
        );
    }
}
