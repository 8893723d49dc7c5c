//! The binding table: every embedding of one rule's extract graph, as one
//! flat row-major buffer of node ids.
//!
//! A row has one `u32` cell per query node. An element box's cell is the
//! matched node; a text or attribute circle's cell is the *element the value
//! is read from*. Within one column that element determines the text, so a
//! cell is the value's identity (two occurrences of one string stay two
//! matches, as aggregates need) and its text is re-read from the source
//! document when somebody asks ([`cell_text`]): borrowed from the document's
//! pool, owned only where an element's content spans several text nodes.
//! Query nodes under a negated edge stay unbound.
//!
//! Joins and `group by` compare cells by content (`Keys`): a circle by its
//! text, a box by deep equality of its subtree — `gql_ssdm::index`'s
//! [`subtree_hash`] to bucket, [`subtree_eq`] to verify.

use std::borrow::Cow;
use std::collections::HashMap;

use gql_ssdm::index::{hash_parts, subtree_eq, subtree_hash};
use gql_ssdm::{Document, NodeId, Symbol};

use crate::ast::{ExtractGraph, QNode, QNodeId, QNodeKind};

/// The cell of a query node the row does not bind. No document holds this
/// many nodes (pool offsets are checked `u32`s).
pub(crate) const UNBOUND: u32 = u32::MAX;

/// All embeddings of a rule's extract graph, in match order.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    /// Cells per row: the extract graph's node count.
    pub(crate) width: usize,
    pub(crate) cells: Vec<u32>,
}

/// Two tables are equal when they hold the same rows in the same order;
/// that no rows were found says nothing of the rule they were found for.
impl PartialEq for Bindings {
    fn eq(&self, other: &Bindings) -> bool {
        self.cells == other.cells && (self.cells.is_empty() || self.width == other.width)
    }
}

impl Bindings {
    pub(crate) fn new(width: usize) -> Bindings {
        Bindings {
            width,
            cells: Vec::new(),
        }
    }

    /// Number of embeddings.
    pub fn len(&self) -> usize {
        self.cells.len().checked_div(self.width).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The embeddings in match order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Row<'_>> + Clone {
        self.cells.chunks_exact(self.width.max(1)).map(Row)
    }

    /// Embedding number `row`.
    pub fn row(&self, row: usize) -> Row<'_> {
        Row(&self.cells[row * self.width..][..self.width])
    }

    /// A table holding row `row` alone.
    pub fn only(&self, row: usize) -> Bindings {
        Bindings {
            width: self.width,
            cells: self.row(row).0.to_vec(),
        }
    }
}

/// One embedding: a partial map from query nodes to document nodes.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a>(pub(crate) &'a [u32]);

impl Row<'_> {
    /// What the row binds `q` to: the matched element for a box, the element
    /// the value is read from for a circle ([`cell_text`] reads it).
    pub fn get(self, q: QNodeId) -> Option<NodeId> {
        match self.0.get(q.index()) {
            Some(&cell) if cell != UNBOUND => Some(NodeId::from_index(cell as usize)),
            _ => None,
        }
    }
}

/// Drop the `width`-cell rows of `cells[from..]` that `keep` refuses,
/// closing the gaps.
pub(crate) fn retain_rows(
    cells: &mut Vec<u32>,
    from: usize,
    width: usize,
    mut keep: impl FnMut(Row<'_>) -> bool,
) {
    let mut end = from;
    for at in (from..cells.len()).step_by(width.max(1)) {
        if keep(Row(&cells[at..at + width])) {
            cells.copy_within(at..at + width, end);
            end += width;
        }
    }
    cells.truncate(end);
}

/// The string value a cell of column `q` stands for: the element's string
/// value for a box or a text circle, the attribute's value for an attribute
/// circle. Read from `doc`, the document that was matched.
pub fn cell_text<'d>(
    doc: &'d Document,
    g: &ExtractGraph,
    q: QNodeId,
    cell: NodeId,
) -> Cow<'d, str> {
    match &g.node(q).kind {
        QNodeKind::Attribute(name) => Cow::Borrowed(doc.attr(cell, name).unwrap_or("")),
        QNodeKind::Element(_) | QNodeKind::Text => doc.string_value(cell),
    }
}

/// The distinct cells of column `q`, in order of first occurrence.
pub fn distinct_cells(bindings: &Bindings, q: QNodeId) -> Vec<NodeId> {
    distinct_of(bindings.iter(), q)
}

/// [`distinct_cells`] over any run of rows. Matches arrive in document
/// order, so a cell above every one seen is new without a lookup; the set is
/// built only for a run that steps back.
pub(crate) fn distinct_of<'a>(rows: impl Iterator<Item = Row<'a>>, q: QNodeId) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    let mut seen: Option<std::collections::HashSet<NodeId>> = None;
    for cell in rows.filter_map(|row| row.get(q)) {
        let new = match (&mut seen, out.last()) {
            (None, None) => true,
            (None, Some(&last)) if cell >= last => cell > last,
            (None, Some(_)) => seen.insert(out.iter().copied().collect()).insert(cell),
            (Some(seen), _) => seen.insert(cell),
        };
        if new {
            out.push(cell);
        }
    }
    out
}

/// A column and what a row binds it to.
pub(crate) type Cell = (QNodeId, Option<NodeId>);

/// Content of cells, as joins and `group by` compare it: the text for a
/// circle, the subtree for a box, and a value never equal to a subtree. A
/// box's subtree is hashed at most once per node.
pub(crate) struct Keys<'a> {
    doc: &'a Document,
    g: &'a ExtractGraph,
    /// Each attribute circle's name as the document interned it: keys are
    /// read row by row, the name is looked up here once.
    attrs: Vec<Option<Symbol>>,
    hashes: HashMap<NodeId, u64>,
}

impl<'a> Keys<'a> {
    pub(crate) fn new(doc: &'a Document, g: &'a ExtractGraph) -> Self {
        let attr = |n: &QNode| match &n.kind {
            QNodeKind::Attribute(name) => doc.lookup_sym(name),
            _ => None,
        };
        Keys {
            doc,
            g,
            attrs: g.nodes.iter().map(attr).collect(),
            hashes: HashMap::new(),
        }
    }

    fn is_value(&self, q: QNodeId) -> bool {
        !matches!(self.g.node(q).kind, QNodeKind::Element(_))
    }

    /// [`cell_text`] of a circle's cell.
    fn text(&self, q: QNodeId, cell: NodeId) -> Cow<'a, str> {
        match (&self.g.node(q).kind, self.attrs[q.index()]) {
            (QNodeKind::Attribute(_), sym) => {
                Cow::Borrowed(sym.and_then(|s| self.doc.attr_sym(cell, s)).unwrap_or(""))
            }
            _ => self.doc.string_value(cell),
        }
    }

    fn subtree_hash(&mut self, n: NodeId) -> u64 {
        let doc = self.doc;
        *self.hashes.entry(n).or_insert_with(|| subtree_hash(doc, n))
    }

    /// 64-bit hash of the content key: `v:` + text for a circle, the
    /// subtree hash for a box. Equal content always hashes equal.
    pub(crate) fn hash(&mut self, q: QNodeId, cell: NodeId) -> u64 {
        if self.is_value(q) {
            hash_parts(&["v:", &self.text(q, cell)])
        } else {
            self.subtree_hash(cell)
        }
    }

    /// Content equality of two cells, each with its column; an unbound one
    /// equals nothing.
    pub(crate) fn eq(&mut self, (qa, a): Cell, (qb, b): Cell) -> bool {
        let (Some(a), Some(b)) = (a, b) else {
            return false;
        };
        match (self.is_value(qa), self.is_value(qb)) {
            (true, true) => self.text(qa, a) == self.text(qb, b),
            // The hashes settle most unequal pairs without a second walk.
            (false, false) => {
                a == b || self.subtree_hash(a) == self.subtree_hash(b) && subtree_eq(self.doc, a, b)
            }
            _ => false,
        }
    }
}
