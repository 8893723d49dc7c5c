//! # Tree patterns, matched set-at-a-time
//!
//! The downward core that XML-GL's extract trees and XPath's location paths
//! share: a tree of nodes — elements, attributes, an element's text —
//! joined by child and descendant edges, each node tested by a boolean
//! condition over its edges and over value tests whose meaning stays with
//! the caller (XML-GL's predicates, XPath's §3.4 comparisons). It is
//! matched over the [`DocIndex`] postings, each read a bounded number of
//! times, however deep a tag nests in itself:
//!
//! * top down ([`Columns::narrow`]), a node on the caller's path of edges
//!   starts from the postings that path reaches: under an element of the
//!   column before it ([`DocIndex::under`]), or a child of one;
//! * bottom up ([`Columns::reduce`]), a node's *column* is the elements, in
//!   document order, at which its subtree matches: where it starts, kept
//!   where its condition holds. A descendant edge asks a [`Within`] cursor
//!   over the target's column; a child edge to an element, whether a child
//!   is in the target's column (a [`NodeSets`] bit); and a child edge to an
//!   attribute or text reads it off the element.

use std::cell::Cell;

use gql_guard::Guard;
use gql_trace::Trace;

use crate::document::NodeKind;
use crate::index::Within;
use crate::{DocIndex, Document, NodeId, NodeSets, Symbol};

/// What a pattern node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An element of this name, or (`None`) any element. At a root: any
    /// node of the column it starts from.
    Element(Option<Symbol>),
    /// The element's attribute of this name.
    Attr(Symbol),
    /// The element's text: it has a text child, and its value is the
    /// element's string-value.
    Text,
    /// An element or attribute of a name the document never interned.
    Absent,
}

/// How an edge reaches its target from an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// A child element; for an attribute or text target, the element's own.
    Child,
    /// A proper descendant element.
    Descendant,
    /// The element or a descendant: an attribute or text target anywhere in
    /// its subtree, or a descendant-or-self element.
    DescendantOrSelf,
}

/// A node's condition on an element (on an attribute node's attribute: its
/// value tests only). A value test is the caller's `T`; an edge or a value
/// test may be negated (`true`).
#[derive(Debug, Clone)]
pub enum Cond<T> {
    True,
    /// The target node matches there, along the axis.
    Edge(Axis, usize, bool),
    Value(T, bool),
    All(Vec<Cond<T>>),
    Any(Vec<Cond<T>>),
}

impl<T> Cond<T> {
    /// `self` and `other`, flattened into one conjunction.
    pub fn and(self, other: Cond<T>) -> Cond<T> {
        match (self, other) {
            (Cond::True, c) | (c, Cond::True) => c,
            (Cond::All(mut cs), c) => {
                cs.push(c);
                Cond::All(cs)
            }
            (a, b) => Cond::All(vec![a, b]),
        }
    }

    /// Call `f` on every edge of the condition.
    fn edges(&self, f: &mut impl FnMut(Axis, usize)) {
        match self {
            Cond::Edge(axis, t, _) => f(*axis, *t),
            Cond::All(cs) | Cond::Any(cs) => cs.iter().for_each(|c| c.edges(f)),
            Cond::True | Cond::Value(..) => {}
        }
    }
}

/// The negation, pushed down to the edges and value tests.
impl<T> std::ops::Not for Cond<T> {
    type Output = Cond<T>;

    fn not(self) -> Cond<T> {
        let all = |cs: Vec<Cond<T>>| cs.into_iter().map(|c| !c).collect();
        match self {
            Cond::True => Cond::Any(Vec::new()),
            Cond::Edge(axis, t, negated) => Cond::Edge(axis, t, !negated),
            Cond::Value(test, negated) => Cond::Value(test, !negated),
            Cond::All(cs) => Cond::Any(all(cs)),
            Cond::Any(cs) if cs.is_empty() => Cond::True,
            Cond::Any(cs) => Cond::All(all(cs)),
        }
    }
}

/// How an edge's source finds the node it leads to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Found {
    /// By the node's column: a root's, a descendant edge's target's, or a
    /// node the caller narrows to.
    Column,
    /// By the set holding its column: a child element with a condition,
    /// and the name its parent must have (`None`: any).
    Set(usize, Option<Symbol>),
    /// Read off the source element: its attribute, its text, or a child of
    /// its name.
    Read,
}

/// One node of a pattern, numbered by its place in the slice the caller
/// keeps them in; an edge names its target by number. `D` is what the
/// caller keeps per node.
#[derive(Debug, Clone)]
pub struct Node<'a, T, D = ()> {
    pub kind: Kind,
    /// Where its column starts: elements in document order (for an
    /// attribute or text node, the elements that may carry it), or any
    /// nodes at a root.
    pub postings: &'a [NodeId],
    pub cond: Cond<T>,
    /// Must its conjuncts' child elements be found in sibling order?
    pub ordered: bool,
    /// A sigil and a name for its `candidates[q…]` counter.
    pub label: (&'a str, &'a str),
    pub data: D,
    /// Its column once narrowed or reduced: a range of the arena, or its
    /// postings.
    col: Cell<Option<(usize, usize)>>,
    found: Cell<Found>,
    /// The postings its pass read, and the elements an edge read it at.
    read: Cell<u64>,
}

impl<'a, T, D> Node<'a, T, D> {
    /// A node whose condition is `True`, unordered.
    pub fn new(kind: Kind, postings: &'a [NodeId], label: (&'a str, &'a str), data: D) -> Self {
        Node {
            kind,
            postings,
            cond: Cond::True,
            ordered: false,
            label,
            data,
            col: Cell::new(None),
            found: Cell::new(Found::Column),
            read: Cell::new(0),
        }
    }

    /// Is its column where it starts, as it is?
    fn trivial(&self) -> bool {
        matches!(self.cond, Cond::True) && !self.ordered
    }
}

/// The caller's value tests: does test `T` of node `q` hold at element `n`
/// (at its attribute of index `i`, for an attribute node)? `None` stops the
/// reduction, which then answers `None` too.
pub type Values<'v, T> = &'v dyn Fn(usize, &T, NodeId, Option<usize>) -> Option<bool>;

/// A pattern's columns: an arena of the ones narrowed or filtered, and a
/// set per child element also holding its column.
pub struct Columns<'p, 'a, T, D> {
    doc: &'a Document,
    idx: &'a DocIndex,
    nodes: &'p [Node<'a, T, D>],
    arena: Vec<NodeId>,
    /// The most the arena may hold: every node's postings narrowed, and
    /// filtered once more where the node has a condition. Reserved when the
    /// first column is copied.
    most: usize,
    sets: NodeSets,
}

impl<'p, 'a, T, D> Columns<'p, 'a, T, D> {
    /// The columns of `nodes`, fresh from [`Node::new`], none reduced yet.
    pub fn new(doc: &'a Document, idx: &'a DocIndex, nodes: &'p [Node<'a, T, D>]) -> Self {
        let (mut sets, mut most) = (0, 0);
        for node in nodes {
            node.cond.edges(&mut |axis, t| {
                let found = match (axis, nodes[t].kind, node.kind) {
                    (Axis::Child, Kind::Element(_), Kind::Element(parent))
                        if !nodes[t].trivial() =>
                    {
                        Found::Set(sets, parent)
                    }
                    (Axis::Child, ..) => Found::Read,
                    _ => Found::Column,
                };
                sets += usize::from(matches!(found, Found::Set(..)));
                nodes[t].found.set(found);
            });
            most += node.postings.len() * (1 + usize::from(!node.trivial()));
        }
        Columns {
            doc,
            idx,
            nodes,
            arena: Vec::new(),
            most,
            sets: NodeSets::new(doc, sets),
        }
    }

    /// `q`'s column: where it starts until it is reduced, or if it is
    /// trivial.
    pub fn col(&self, q: usize) -> &[NodeId] {
        column(self.nodes, &self.arena, q)
    }

    /// Does the child element `n` match node `q`, the target of a child
    /// edge?
    pub fn has(&self, q: usize, n: NodeId) -> bool {
        has(self.doc, self.nodes, &self.sets, q, n)
    }

    /// The postings `q`'s pass read, and the elements an edge read `q` at.
    pub fn read(&self, q: usize) -> u64 {
        self.nodes[q].read.get()
    }

    /// Count each node's reads as `candidates[q{i}:{sigil}{name}]`, by its
    /// label; nodes that read nothing are left out.
    pub fn report(&self, trace: &Trace) {
        for (q, node) in self.nodes.iter().enumerate() {
            if self.read(q) > 0 {
                let (sigil, name) = node.label;
                trace.count(format_args!("candidates[q{q}:{sigil}{name}]"), self.read(q));
            }
        }
    }

    /// Copy `q`'s column to the end of the arena; where it starts there.
    fn copy(&mut self, q: usize) -> usize {
        if self.arena.capacity() == 0 {
            self.arena.reserve_exact(self.most);
        }
        let from = self.arena.len();
        match self.nodes[q].col.get() {
            Some((a, b)) => self.arena.extend_from_within(a..b),
            None => self.arena.extend_from_slice(self.nodes[q].postings),
        }
        from
    }

    /// Pass 1, top down: start `t`, not yet reduced, from the nodes an
    /// `axis` edge reaches from `q`'s column: those under one of its nodes,
    /// or along a child edge a child of one (for an attribute or text node:
    /// one itself). A column that lies whole under one node is left as it
    /// is. `None` once the guard, probed every 4096 postings, trips.
    pub fn narrow(&mut self, q: usize, axis: Axis, t: usize, guard: &Guard) -> Option<()> {
        let (nodes, doc, idx) = (self.nodes, self.doc, self.idx);
        let postings = nodes[t].postings;
        let under = axis != Axis::Child;
        if let ([s], Some(&a), Some(&b)) = (self.col(q), postings.first(), postings.last()) {
            let inside = |n| idx.is_descendant_or_self(*s, n);
            if under && inside(a) && inside(b) && (axis == Axis::DescendantOrSelf || a != *s) {
                return Some(());
            }
        }
        let element = matches!(nodes[t].kind, Kind::Element(_));
        let from = self.copy(t);
        let (done, col) = self.arena.split_at_mut(from);
        let sources = column(nodes, done, q);
        let mut below = idx.under(sources, axis == Axis::DescendantOrSelf);
        let pre = |n: NodeId| idx.pre(n).unwrap_or(u32::MAX);
        let len = retain(col, guard, |n| {
            let owner = if element { doc.parent(n) } else { Some(n) };
            Some(match (under, owner) {
                (true, _) => below.holds(n),
                (false, Some(o)) => sources.binary_search_by_key(&pre(o), |&s| pre(s)).is_ok(),
                (false, None) => false,
            })
        })?;
        self.arena.truncate(from + len);
        nodes[t].col.set(Some((from, from + len)));
        Some(())
    }

    /// Pass 2, bottom up: `q`'s column, after those of the nodes its edges
    /// lead to (but those read off the element). It keeps, in document
    /// order, the elements of the column it starts from where its condition
    /// holds — for a child element, whose parent has the name of the node
    /// its edge comes from — and for an ordered node, where its conjuncts'
    /// child elements can be bound in sibling order. So every column is
    /// exact. It charges the node its postings. `None` once the guard,
    /// probed per node and every 4096 postings, trips, or a value test says
    /// stop.
    pub fn reduce(&mut self, q: usize, guard: &Guard, values: Values<T>) -> Option<()> {
        let (nodes, doc, idx) = (self.nodes, self.doc, self.idx);
        let node = &nodes[q];
        let mut below = Some(());
        node.cond.edges(&mut |_, t| {
            if below.is_some() && nodes[t].found.get() != Found::Read {
                below = self.reduce(t, guard, values);
            }
        });
        below?;
        node.read.set(node.read.get() + node.postings.len() as u64);
        if !guard.ok() {
            return None;
        }
        if !node.trivial() {
            let from = self.copy(q);
            let (done, col) = self.arena.split_at_mut(from);
            let (done, sets): (&[NodeId], _) = (done, &self.sets);
            let at = At {
                doc,
                nodes,
                sets,
                values,
            };
            let mut cursors = Vec::new();
            node.cond.edges(&mut |axis, t| {
                if axis != Axis::Child {
                    let col = column(nodes, done, t);
                    cursors.push((t, idx.within(col, axis == Axis::DescendantOrSelf)));
                }
            });
            let source = match node.found.get() {
                Found::Set(_, Some(name)) => Some(name),
                _ => None,
            };
            let len = retain(col, guard, |n| {
                let parent = || doc.parent(n).and_then(|p| doc.name_sym(p));
                if source.is_some_and(|name| parent() != Some(name)) {
                    return Some(false);
                }
                let holds = match node.kind {
                    Kind::Element(_) => at.holds(q, &node.cond, n, None, &mut cursors)?,
                    _ => at.reads(q, n)?,
                };
                Some(holds && (!node.ordered || at.in_sibling_order(q, n)))
            })?;
            self.arena.truncate(from + len);
            node.col.set(Some((from, from + len)));
        }
        if let Found::Set(set, _) = node.found.get() {
            self.sets.insert_all(set, column(nodes, &self.arena, q));
        }
        Some(())
    }
}

/// `q`'s column, read against `arena`.
fn column<'c, T, D>(nodes: &'c [Node<T, D>], arena: &'c [NodeId], q: usize) -> &'c [NodeId] {
    match nodes[q].col.get() {
        Some((from, to)) => &arena[from..to],
        None => nodes[q].postings,
    }
}

/// Is `n`, a child, in the column of node `q`, the target of a child
/// edge: in its set, or for an element without a condition, of its name?
fn has<T, D>(doc: &Document, nodes: &[Node<T, D>], sets: &NodeSets, q: usize, n: NodeId) -> bool {
    match (nodes[q].found.get(), nodes[q].kind) {
        (Found::Set(set, _), _) => sets.contains(set, n),
        (_, Kind::Element(name)) => {
            doc.kind(n) == NodeKind::Element && name.is_none_or(|s| doc.name_sym(n) == Some(s))
        }
        _ => false,
    }
}

/// Keep the nodes of `col` that `f` accepts, in order, at its front, and
/// say how many; `None` once `f` does, or the guard, probed every 4096
/// nodes, trips.
fn retain(
    col: &mut [NodeId],
    guard: &Guard,
    mut f: impl FnMut(NodeId) -> Option<bool>,
) -> Option<usize> {
    let mut kept = 0;
    for i in 0..col.len() {
        if i % 4096 == 4095 && !guard.ok() {
            return None;
        }
        if f(col[i])? {
            (col[kept], kept) = (col[i], kept + 1);
        }
    }
    Some(kept)
}

/// What a condition reads while a column is filtered.
struct At<'s, 'a, T, D> {
    doc: &'a Document,
    nodes: &'s [Node<'a, T, D>],
    sets: &'s NodeSets,
    values: Values<'s, T>,
}

impl<T, D> At<'_, '_, T, D> {
    /// Does `cond`, node `q`'s, hold at element `n` (at its attribute
    /// `attr`)? Each descendant edge asks its cursor, in document order.
    fn holds(
        &self,
        q: usize,
        cond: &Cond<T>,
        n: NodeId,
        attr: Option<usize>,
        cursors: &mut [(usize, Within)],
    ) -> Option<bool> {
        Some(match cond {
            Cond::True => true,
            Cond::Value(test, negated) => (self.values)(q, test, n, attr)? != *negated,
            Cond::All(cs) => {
                for c in cs {
                    if !self.holds(q, c, n, attr, cursors)? {
                        return Some(false);
                    }
                }
                true
            }
            Cond::Any(cs) => {
                for c in cs {
                    if self.holds(q, c, n, attr, cursors)? {
                        return Some(true);
                    }
                }
                false
            }
            Cond::Edge(axis, t, negated) => {
                let found = match (axis, self.nodes[*t].kind) {
                    (Axis::Child, Kind::Element(_)) => self.doc.children(n).iter().any(|&c| {
                        let read = &self.nodes[*t].read;
                        read.set(read.get() + u64::from(self.nodes[*t].trivial()));
                        has(self.doc, self.nodes, self.sets, *t, c)
                    }),
                    (Axis::Child, _) => self.reads(*t, n)?,
                    _ => {
                        let cursor = cursors.iter_mut().find(|(u, _)| u == t);
                        cursor.expect("a cursor per descendant edge").1.holds(n)
                    }
                };
                found != *negated
            }
        })
    }

    /// Is node `t`, an attribute or text read off an element, bound at
    /// element `n`: does `n` have the attribute, or a text child, where
    /// `t`'s condition holds? Each element it is read at counts as a read
    /// of `t`.
    fn reads(&self, t: usize, n: NodeId) -> Option<bool> {
        let (doc, node) = (self.doc, &self.nodes[t]);
        node.read.set(node.read.get() + 1);
        match node.kind {
            Kind::Attr(name) => match doc.attr_syms(n).position(|s| s == name) {
                Some(i) => self.holds(t, &node.cond, n, Some(i), &mut []),
                None => Some(false),
            },
            Kind::Text => {
                let text = doc
                    .children(n)
                    .iter()
                    .any(|&c| doc.kind(c) == NodeKind::Text);
                Some(text && self.holds(t, &node.cond, n, None, &mut [])?)
            }
            _ => Some(false),
        }
    }

    /// Can a child of `n` be picked for each child-element conjunct of
    /// `q`'s condition in turn, each at or after the one picked before it?
    /// Each takes its first child at or after the previous pick, which
    /// succeeds whenever any choice does.
    fn in_sibling_order(&self, q: usize, n: NodeId) -> bool {
        let conjuncts = match &self.nodes[q].cond {
            Cond::All(cs) => cs,
            c => std::slice::from_ref(c),
        };
        let (children, mut at) = (self.doc.children(n), 0);
        conjuncts.iter().all(|c| match c {
            Cond::Edge(Axis::Child, t, false)
                if matches!(self.nodes[*t].kind, Kind::Element(_)) =>
            {
                let found = children[at..]
                    .iter()
                    .position(|&c| has(self.doc, self.nodes, self.sets, *t, c));
                found.map(|i| at += i).is_some()
            }
            _ => true,
        })
    }
}
