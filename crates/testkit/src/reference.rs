//! A reference embedding enumerator for XML-GL extract graphs.
//!
//! The matcher it checks (`gql_xmlgl::eval::matcher`) builds rows of node
//! ids in one arena, folds products in place, hashes join keys and re-reads
//! values on demand. This is the walk that one replaced, kept as the oracle
//! because it shares none of that: every step returns a fresh `Vec` of rows,
//! a value is an owned `String` read when it is bound, predicates go through
//! [`Value`]'s loose comparisons, sibling order through
//! [`Document::sibling_index`], and roots are joined by a nested loop over
//! content keys: a value's text, a node's [`Tree`], built here by recursion
//! and compared by derived equality — not `gql_ssdm::index`'s walk. No
//! index, no guard, no trace, no plan — and no thought for speed.

use std::cmp::Ordering;

use gql_ssdm::document::NodeKind;
use gql_ssdm::value::{CmpOp, Value};
use gql_ssdm::{Document, NodeId};
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

/// A predicate over a string value, by the comparisons of [`Value`].
fn holds(predicate: &Predicate, data: &str) -> bool {
    let test = |op: CmpOp, constant: &str| {
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
    };
    predicate
        .clauses
        .iter()
        .all(|clause| clause.iter().any(|(op, constant)| test(*op, constant)))
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
