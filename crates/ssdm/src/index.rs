//! # Document indexes for evaluation fast paths
//!
//! A [`DocIndex`] is built in one pass over a [`Document`] and gives every
//! engine in the workspace the classic semi-structured access paths from the
//! Lore / structural-join literature:
//!
//! * **tag → postings**: for every element name (as an interned [`Symbol`]),
//!   the elements carrying it, in document order — replacing the linear
//!   whole-document walk of [`Document::elements_named`];
//! * **interval numbering**: each reachable node gets a preorder number and
//!   the exclusive end of its subtree's preorder interval, so "is `d` a
//!   descendant of `a`" is two comparisons and "all `x` elements inside this
//!   subtree" is a binary-searched slice of the postings list;
//! * **attribute-name and has-text postings**: elements carrying a given
//!   attribute, and elements with a direct text child;
//! * **resolved references**: the document's ID/IDREF edges and its id
//!   lookup ([`RefTable`]), collected in the same preorder pass by attribute
//!   symbol — the one resolution the summary, WG-Log's loader and XPath's
//!   `id()` read.
//!
//! The index is immutable and describes the document at build time; mutating
//! the document invalidates it (callers rebuild, as [`gql-core`'s `Engine`]
//! does per resident document).
//!
//! Beside it lives **deep equality**, what XML-GL joins and `group by`
//! compare box content by: one iterative preorder walk over a subtree with
//! two consumers, [`subtree_hash`] (a streaming hash, no `String`) and
//! [`subtree_eq`] (two walks in lockstep). It reads the document, not the
//! index: a consumer hashes the cells it actually compares, not every node.

use crate::arena::Symbol;
use crate::document::{Document, NodeKind};
use crate::idref::{RefEdge, RefPass, RefTable};
use crate::NodeId;

/// Base of the polynomial rolling hash (the 64-bit FNV prime — odd, with
/// good avalanche behaviour over `u64` wraparound).
const HASH_BASE: u64 = 0x0000_0100_0000_01B3;

/// Incremental polynomial hash: appending a symbol multiplies the
/// accumulated hash by `BASE` and adds the symbol.
struct Roll {
    hash: u64,
}

impl Roll {
    fn new() -> Self {
        Roll { hash: 0 }
    }

    fn push(&mut self, symbol: u64) {
        self.hash = self.hash.wrapping_mul(HASH_BASE).wrapping_add(symbol);
    }

    fn push_str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.push(u64::from(b));
        }
    }

    /// `s` preceded by its length, so that two fields never run together.
    fn push_field(&mut self, s: &str) {
        self.push(s.len() as u64);
        self.push_str(s);
    }
}

/// Hash of a string under the polynomial scheme of this module.
pub fn hash_str(s: &str) -> u64 {
    hash_parts(&[s])
}

/// Hash of the concatenation of `parts`, without allocating the
/// concatenation.
pub fn hash_parts(parts: &[&str]) -> u64 {
    let mut r = Roll::new();
    for p in parts {
        r.push_str(p);
    }
    r.hash
}

/// Does deep equality skip `n`? Comments and processing instructions.
fn is_markup(doc: &Document, n: NodeId) -> bool {
    matches!(doc.kind(n), NodeKind::Comment | NodeKind::Pi)
}

/// How many children of `n` deep equality reads.
fn content_len(doc: &Document, n: NodeId) -> usize {
    doc.children(n)
        .iter()
        .filter(|&&c| !is_markup(doc, c))
        .count()
}

/// The nodes of a subtree that deep equality reads, in preorder: all but
/// comments and processing instructions. A loop over sibling runs, of which
/// only those with nodes left wait on a stack, so no depth exhausts the call
/// stack and a chain of only children allocates nothing.
struct Walk<'d> {
    doc: &'d Document,
    next: Option<NodeId>,
    run: std::slice::Iter<'d, NodeId>,
    later: Vec<std::slice::Iter<'d, NodeId>>,
}

impl<'d> Walk<'d> {
    fn new(doc: &'d Document, node: NodeId) -> Self {
        Walk {
            doc,
            next: (!is_markup(doc, node)).then_some(node),
            run: [].iter(),
            later: Vec::new(),
        }
    }
}

impl Iterator for Walk<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let (doc, n) = (self.doc, self.next.take()?);
        let rest = std::mem::replace(&mut self.run, doc.children(n).iter());
        if !rest.as_slice().is_empty() {
            self.later.push(rest);
        }
        self.next = loop {
            if let Some(&c) = self.run.find(|&&c| !is_markup(doc, c)) {
                break Some(c);
            }
            match self.later.pop() {
                Some(run) => self.run = run,
                None => break None,
            }
        };
        Some(n)
    }
}

/// Structural hash of `node`'s subtree: [`subtree_eq`] subtrees hash equal.
/// Per node of the walk: its kind, its name or text (length first), how
/// many children deep equality reads, and its attributes as a sum of mixed
/// per-attribute hashes, so their order is immaterial. Kinds and child
/// counts make the sequence a prefix code of the tree: unequal subtrees
/// share a hash only by a 64-bit collision, which consumers verify away
/// with [`subtree_eq`].
pub fn subtree_hash(doc: &Document, node: NodeId) -> u64 {
    let mut r = Roll::new();
    for n in Walk::new(doc, node) {
        if doc.kind(n) == NodeKind::Text {
            r.push(1);
            r.push_field(doc.text(n).unwrap_or(""));
            continue;
        }
        r.push(2);
        r.push_field(doc.name(n).unwrap_or(""));
        r.push(content_len(doc, n) as u64);
        r.push(doc.attrs(n).fold(0u64, |sum, (name, value)| {
            let mut a = Roll::new();
            a.push_field(name);
            a.push_field(value);
            // A sum of unmixed polynomials would equate `a='1' b='2'` with
            // `a='2' b='1'`.
            let h = (a.hash ^ (a.hash >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            sum.wrapping_add(h ^ (h >> 29))
        }));
    }
    r.hash
}

/// Deep equality of two subtrees of `doc`: the same tags, the same attribute
/// sets, the same children in the same order, each text node compared whole
/// (its boundaries count), comments and processing instructions skipped.
/// The two preorder walks run in lockstep and stop at the first difference;
/// child counts along the way make equal walks equal trees.
pub fn subtree_eq(doc: &Document, a: NodeId, b: NodeId) -> bool {
    // Attribute names are unique per element: equal-sized sets are equal
    // when every attribute of one is found, with its value, on the other.
    let alike = |x: NodeId, y: NodeId| {
        doc.kind(x) == doc.kind(y)
            && doc.name_sym(x) == doc.name_sym(y)
            && doc.text(x) == doc.text(y)
            && content_len(doc, x) == content_len(doc, y)
            && doc.attr_count(x) == doc.attr_count(y)
            && (doc.attr_syms(x)).all(|s| doc.attr_sym(x, s) == doc.attr_sym(y, s))
    };
    let (mut wa, mut wb) = (Walk::new(doc, a), Walk::new(doc, b));
    loop {
        match (wa.next(), wb.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if alike(x, y) => {}
            _ => return false,
        }
    }
}

/// Cheap content fingerprint of a document for index-staleness checks: node
/// count, root element name, root attributes, the tag sequence of the
/// root's element children, and a fixed number of evenly-spaced sampled
/// nodes from the arena (kind + name/text prefix), folded through the
/// index's polynomial hash. O(1) in document size (the root's child list
/// is bounded by fanout, not total nodes, and the sample count is
/// constant), so callers can afford it on every cache probe — unlike a
/// [`subtree_hash`] of the root, which walks the entire tree. The
/// arena samples make collisions require agreement at sixteen deep probe
/// points on top of the entire root level. It is still a hint, not an
/// identity: a plan cache may key plans by it, since a plan is correct for
/// any document, but whatever must match the document exactly is keyed by
/// [`Document::identity`].
///
/// The document memoises it: the first call computes it, later calls read
/// it, and any mutation clears it.
pub fn shallow_fingerprint(doc: &Document) -> u64 {
    *doc.fingerprint_memo()
        .get_or_init(|| fresh_shallow_fingerprint(doc))
}

/// [`shallow_fingerprint`] computed from the content, past the memo.
pub(crate) fn fresh_shallow_fingerprint(doc: &Document) -> u64 {
    // The document node itself carries no name or attributes; fingerprint
    // the root *element* (first element child) when there is one.
    let root = doc
        .children(doc.root())
        .iter()
        .copied()
        .find(|&c| doc.kind(c) == NodeKind::Element)
        .unwrap_or(doc.root());
    let mut r = Roll::new();
    r.push_str(&doc.node_count().to_string());
    r.push_str("|");
    r.push_str(doc.name(root).unwrap_or(""));
    r.push_str("|");
    let mut attrs: Vec<(&str, &str)> = doc.attrs(root).collect();
    attrs.sort();
    for (k, v) in attrs {
        r.push_str(k);
        r.push_str("=");
        r.push_str(v);
        r.push_str(",");
    }
    r.push_str("|");
    for &c in doc.children(root) {
        match doc.kind(c) {
            NodeKind::Element => {
                r.push_str(doc.name(c).unwrap_or(""));
                r.push_str(";");
            }
            NodeKind::Text => {
                r.push_str("t:");
                r.push_str(doc.text(c).unwrap_or(""));
                r.push_str(";");
            }
            NodeKind::Comment | NodeKind::Pi | NodeKind::Document => {}
        }
    }
    // Deep probes: sample up to 16 evenly-spaced arena slots so documents
    // that agree at the root level but differ below it still diverge.
    const SAMPLES: usize = 16;
    let n = doc.node_count();
    let stride = n.div_ceil(SAMPLES).max(1);
    for i in (0..n).step_by(stride) {
        let node = crate::NodeId::from_index(i);
        r.push_str("|");
        match doc.kind(node) {
            NodeKind::Element => {
                r.push_str("e:");
                r.push_str(doc.name(node).unwrap_or(""));
            }
            NodeKind::Text => {
                r.push_str("t:");
                // Prefix only: sampled text nodes must not make the probe
                // linear in content size.
                let text = doc.text(node).unwrap_or("");
                let end = text
                    .char_indices()
                    .nth(32)
                    .map_or(text.len(), |(idx, _)| idx);
                r.push_str(&text[..end]);
            }
            NodeKind::Comment => r.push_str("c"),
            NodeKind::Pi => r.push_str("p"),
            NodeKind::Document => r.push_str("d"),
        }
    }
    r.hash
}

/// Size counters describing a built [`DocIndex`], for profiling surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Elements reachable from the root.
    pub elements: usize,
    /// Distinct element tags.
    pub distinct_tags: usize,
    /// Distinct attribute names with postings.
    pub distinct_attrs: usize,
    /// Elements with at least one direct text child.
    pub text_elements: usize,
}

/// Document-ordered lists of elements, one per interned symbol, back to
/// back in one buffer: a symbol's list is found by its interner id, with no
/// hash and no allocation of its own.
#[derive(Debug, Clone, Default)]
struct Postings {
    nodes: Vec<NodeId>,
    /// Per symbol id: where its list starts in `nodes`, and how long it is.
    lists: Vec<(u32, u32)>,
}

impl Postings {
    /// Room for `counts[s]` elements under the symbol with id `s`.
    fn with_room(counts: &[u32]) -> Postings {
        let mut total = 0u32;
        let lists = (counts.iter())
            .map(|&count| {
                let start = total;
                total += count;
                (start, 0)
            })
            .collect();
        Postings {
            nodes: vec![NodeId::from_index(0); total as usize],
            lists,
        }
    }

    /// Append `node` to `sym`'s list, within the room made for it.
    fn push(&mut self, sym: Symbol, node: NodeId) {
        let (start, len) = &mut self.lists[sym.index()];
        self.nodes[(*start + *len) as usize] = node;
        *len += 1;
    }

    fn get(&self, sym: Symbol) -> &[NodeId] {
        (self.lists.get(sym.index())).map_or(EMPTY, |&(start, len)| {
            &self.nodes[start as usize..][..len as usize]
        })
    }

    /// The symbols with a non-empty list, each with its list.
    fn iter(&self) -> impl Iterator<Item = (Symbol, &[NodeId])> + '_ {
        (0..self.lists.len() as u32)
            .map(|s| (Symbol(s), self.get(Symbol(s))))
            .filter(|(_, list)| !list.is_empty())
    }
}

/// One-pass document index: postings and interval numbering. See the module
/// docs for the access paths it provides.
#[derive(Debug, Clone)]
pub struct DocIndex {
    /// Preorder number per node id; `u32::MAX` for nodes not reachable from
    /// the document root (detached subtrees).
    pre: Vec<u32>,
    /// Exclusive end of the subtree's preorder interval: `n`'s subtree is
    /// exactly the nodes with `pre in [pre[n], end[n])`.
    end: Vec<u32>,
    /// Every node reachable from the root, in preorder (document order).
    preorder: Vec<NodeId>,
    /// Elements by tag symbol, in document order.
    by_tag: Postings,
    /// All elements, in document order.
    elements: Vec<NodeId>,
    /// Elements carrying an attribute with the given name, in document order.
    by_attr: Postings,
    /// Elements with at least one direct text child, in document order.
    with_text: Vec<NodeId>,
    /// The document's ID/IDREF references, resolved.
    refs: RefTable,
    /// `Document::node_count()` at build time, for staleness fingerprinting.
    built_for: usize,
    /// Checksum over the index contents, set once at the end of [`build`].
    /// [`is_intact`](DocIndex::is_intact) recomputes and compares it, so a
    /// posting list mutated after build (bit rot, or the fault-injection
    /// seam's simulated corruption) is detectable before the index is trusted
    /// for query answering.
    checksum: u64,
}

const EMPTY: &[NodeId] = &[];

impl DocIndex {
    /// Build the index in one counting pre-pass (exact container sizing),
    /// one preorder pass (postings, preorder numbers) and one
    /// reverse-preorder pass (subtree ends).
    pub fn build(doc: &Document) -> DocIndex {
        let n = doc.node_count();
        // Counting pre-pass: one flat arena sweep sizes every posting
        // container exactly, so the preorder pass below never reallocates —
        // repeated `Vec` doublings (each a memcpy of a large postings list)
        // dominated the build on large documents. Detached nodes are
        // counted too: a slightly generous room is harmless. Per-symbol
        // counts are dense arrays indexed by the interner id, not maps, and
        // so are the postings they size.
        let mut element_total = 0usize;
        let mut text_total = 0usize;
        let mut tag_counts: Vec<u32> = Vec::new();
        let mut attr_counts: Vec<u32> = Vec::new();
        let has_text =
            |node: NodeId| (doc.children(node).iter()).any(|&c| doc.kind(c) == NodeKind::Text);
        for i in 0..n {
            let node = NodeId::from_index(i);
            if doc.kind(node) != NodeKind::Element {
                continue;
            }
            element_total += 1;
            if let Some(sym) = doc.name_sym(node) {
                let s = sym.index();
                if s >= tag_counts.len() {
                    tag_counts.resize(s + 1, 0);
                }
                tag_counts[s] += 1;
            }
            for sym in doc.attr_syms(node) {
                let s = sym.index();
                if s >= attr_counts.len() {
                    attr_counts.resize(s + 1, 0);
                }
                attr_counts[s] += 1;
            }
            text_total += usize::from(has_text(node));
        }
        let mut idx = DocIndex {
            pre: vec![u32::MAX; n],
            end: vec![u32::MAX; n],
            preorder: Vec::new(),
            by_tag: Postings::with_room(&tag_counts),
            elements: Vec::with_capacity(element_total),
            by_attr: Postings::with_room(&attr_counts),
            with_text: Vec::with_capacity(text_total),
            refs: RefTable::default(),
            built_for: n,
            checksum: 0,
        };

        // Preorder pass: numbering, postings and reference carriers, in
        // document order.
        let mut refs = RefPass::new(doc, |sym| {
            let count = sym.and_then(|s| attr_counts.get(s.index()));
            count.map_or(0, |&n| n as usize)
        });
        let pre_list = &mut idx.preorder;
        pre_list.reserve_exact(n);
        let mut stack = vec![doc.root()];
        while let Some(node) = stack.pop() {
            idx.pre[node.index()] = pre_list.len() as u32;
            pre_list.push(node);
            if doc.kind(node) == NodeKind::Element {
                idx.elements.push(node);
                if let Some(sym) = doc.name_sym(node) {
                    idx.by_tag.push(sym, node);
                }
                for sym in doc.attr_syms(node) {
                    // An element appears once even with duplicate names.
                    if idx.by_attr.get(sym).last() != Some(&node) {
                        idx.by_attr.push(sym, node);
                    }
                }
                if has_text(node) {
                    idx.with_text.push(node);
                }
                refs.visit(doc, node);
            }
            for &c in doc.children(node).iter().rev() {
                stack.push(c);
            }
        }
        idx.refs = refs.finish(doc);

        // Reverse preorder visits children before parents: a subtree ends
        // where its last child's does.
        for &node in idx.preorder.iter().rev() {
            let i = node.index();
            idx.end[i] = match doc.children(node).last() {
                Some(last) => idx.end[last.index()],
                None => idx.pre[i] + 1,
            };
        }

        idx.checksum = idx.compute_checksum();
        idx
    }

    /// FNV-style checksum over the numbering arrays and posting lists.
    /// Per-list hashes are order-dependent (a reordered posting is corrupt);
    /// the lists' hashes are summed, in no particular order.
    fn compute_checksum(&self) -> u64 {
        const SEED: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(PRIME)
        }
        fn list_hash(list: &[NodeId]) -> u64 {
            let mut h = mix(SEED, list.len() as u64);
            for &n in list {
                h = mix(h, n.index() as u64 + 1);
            }
            h
        }
        let mut h = mix(SEED, self.built_for as u64);
        for &p in &self.pre {
            h = mix(h, p as u64);
        }
        for &e in &self.end {
            h = mix(h, e as u64);
        }
        h = mix(h, list_hash(&self.elements));
        h = mix(h, list_hash(&self.with_text));
        let mut acc: u64 = 0;
        for (_, list) in self.by_tag.iter() {
            acc = acc.wrapping_add(list_hash(list));
        }
        for (_, list) in self.by_attr.iter() {
            acc = acc.wrapping_add(list_hash(list).rotate_left(17));
        }
        self.refs.checksum(|v| h = mix(h, v));
        mix(h, acc)
    }

    /// Does the index still match the checksum taken at build time? `false`
    /// means a posting list or numbering array was mutated after build and
    /// the index must not be trusted — callers degrade to scan evaluation.
    pub fn is_intact(&self) -> bool {
        self.checksum == self.compute_checksum()
    }

    /// Deliberately corrupt one posting list *without* refreshing the
    /// checksum, so [`is_intact`](DocIndex::is_intact) reports `false`. This
    /// backs the `corrupt_postings` fault-injection seam in integration
    /// tests; it has no production callers.
    pub fn corrupt_for_test(&mut self) {
        if let Some((_, len)) = self.by_tag.lists.iter_mut().max_by_key(|l| l.1) {
            if *len > 0 {
                *len -= 1;
                return;
            }
        }
        if !self.elements.is_empty() {
            self.elements.pop();
            return;
        }
        self.built_for = self.built_for.wrapping_add(1);
    }

    /// Node count of the document this index was built for; a cheap
    /// staleness fingerprint (appending nodes changes it).
    pub fn built_for(&self) -> usize {
        self.built_for
    }

    /// Preorder number of a node, or `None` if it was detached at build time.
    pub fn pre(&self, node: NodeId) -> Option<u32> {
        match self.pre.get(node.index()) {
            Some(&p) if p != u32::MAX => Some(p),
            _ => None,
        }
    }

    /// Every node reachable from the root, in document order.
    pub fn preorder(&self) -> &[NodeId] {
        &self.preorder
    }

    /// Where `node`'s subtree lies in [`preorder`](DocIndex::preorder), or
    /// `None` if it was detached at build time.
    pub fn span(&self, node: NodeId) -> Option<std::ops::Range<usize>> {
        let pre = self.pre(node)? as usize;
        Some(pre..self.end[node.index()] as usize)
    }

    /// All elements named `name`, in document order.
    pub fn elements_named<'a>(&'a self, doc: &Document, name: &str) -> &'a [NodeId] {
        doc.lookup_sym(name)
            .map_or(EMPTY, |sym| self.elements_named_sym(sym))
    }

    /// All elements whose tag is `sym`, in document order.
    pub fn elements_named_sym(&self, sym: Symbol) -> &[NodeId] {
        self.by_tag.get(sym)
    }

    /// All elements, in document order.
    pub fn elements(&self) -> &[NodeId] {
        &self.elements
    }

    /// Elements carrying an attribute whose name is `sym`, in document order.
    pub fn elements_with_attr_sym(&self, sym: Symbol) -> &[NodeId] {
        self.by_attr.get(sym)
    }

    /// Elements with at least one direct text child, in document order.
    pub fn elements_with_text(&self) -> &[NodeId] {
        &self.with_text
    }

    /// The document's resolved ID/IDREF references.
    pub fn refs(&self) -> &RefTable {
        &self.refs
    }

    /// The element whose `id` is `id` (the first in document order).
    pub fn node_by_id(&self, doc: &Document, id: &str) -> Option<NodeId> {
        self.refs.node_by_id(doc, id)
    }

    /// The resolved reference edges (see [`RefTable::edges`]).
    pub fn ref_edges(&self) -> &[RefEdge] {
        self.refs.edges()
    }

    /// Distinct tags with their element counts (the free projection backing
    /// [`crate::Summary::from_index`]'s per-tag totals).
    pub fn tag_counts(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.by_tag.iter().map(|(sym, list)| (sym, list.len()))
    }

    /// Total number of elements reachable from the root.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Is `node` inside `anc`'s subtree (including `anc` itself)? Two
    /// comparisons on the interval numbering; `false` if either node was
    /// detached at build time.
    pub fn is_descendant_or_self(&self, anc: NodeId, node: NodeId) -> bool {
        match (self.pre(anc), self.pre(node)) {
            (Some(a), Some(d)) => d >= a && d < self.end[anc.index()],
            _ => false,
        }
    }

    /// Slice of a document-ordered list (postings, or a subset of them)
    /// restricted to `anc`'s subtree interval, via two binary searches.
    pub fn range_in<'a>(
        &self,
        list: &'a [NodeId],
        anc: NodeId,
        include_self: bool,
    ) -> &'a [NodeId] {
        let Some(a) = self.pre(anc) else { return EMPTY };
        let e = self.end[anc.index()];
        let lo_bound = if include_self { a } else { a + 1 };
        let lo = list.partition_point(|&n| self.pre[n.index()] < lo_bound);
        let hi = list.partition_point(|&n| self.pre[n.index()] < e);
        &list[lo..hi]
    }

    /// A structural semi-join over a document-ordered `list`: for elements
    /// asked about in document order, does `list` hold a proper descendant
    /// of the element (or the element itself, when `include_self`)? See
    /// [`Within`].
    pub fn within<'a>(&'a self, list: &'a [NodeId], include_self: bool) -> Within<'a> {
        Within {
            idx: self,
            list,
            strict: u32::from(!include_self),
        }
    }

    /// The same semi-join the other way round: for nodes asked about in
    /// document order, does the document-ordered `ancestors` hold a proper
    /// ancestor of the node (or the node itself, when `include_self`)? See
    /// [`Under`].
    pub fn under<'a>(&'a self, ancestors: &'a [NodeId], include_self: bool) -> Under<'a> {
        Under {
            idx: self,
            ancestors,
            strict: u32::from(!include_self),
            end: 0,
        }
    }

    /// Size counters for profiling surfaces (index-build spans).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            elements: self.elements.len(),
            distinct_tags: self.by_tag.iter().count(),
            distinct_attrs: self.by_attr.iter().count(),
            text_elements: self.with_text.len(),
        }
    }
}

/// Sets of one document's nodes, one bit per node id, several in one
/// buffer: what a structural join over child links reads. Whether a node
/// has a child in a set, and which of its children are in it, is a walk of
/// its child list — no search, and no cost that grows with the set.
#[derive(Debug, Clone, Default)]
pub struct NodeSets {
    words: usize,
    bits: Vec<u64>,
}

impl NodeSets {
    /// `count` empty sets over `doc`'s node ids.
    pub fn new(doc: &Document, count: usize) -> NodeSets {
        let words = doc.node_count().div_ceil(64);
        NodeSets {
            words,
            bits: vec![0; words * count],
        }
    }

    /// Add `nodes` to set `set`.
    pub fn insert_all(&mut self, set: usize, nodes: &[NodeId]) {
        let bits = &mut self.bits[set * self.words..][..self.words];
        for n in nodes {
            bits[n.index() / 64] |= 1 << (n.index() % 64);
        }
    }

    /// Is `n` in set `set`?
    pub fn contains(&self, set: usize, n: NodeId) -> bool {
        self.bits[set * self.words + n.index() / 64] & (1 << (n.index() % 64)) != 0
    }
}

/// The cursor [`DocIndex::within`] returns. Each question moves it forward
/// over `list` to the first node at or after the element's preorder
/// number, and the answer is whether that node lies inside the element's
/// interval: questions in document order read `list` once between them.
pub struct Within<'a> {
    idx: &'a DocIndex,
    list: &'a [NodeId],
    /// 1 for proper descendants only, 0 to count the element itself.
    strict: u32,
}

impl Within<'_> {
    /// Does the list hold a node in `anc`'s subtree? `anc` must not precede
    /// the element of the previous question in document order.
    pub fn holds(&mut self, anc: NodeId) -> bool {
        let idx = self.idx;
        let Some(lo) = idx.pre(anc) else { return false };
        let lo = lo + self.strict;
        let pre = |n: &NodeId| idx.pre[n.index()];
        if self.list.first().is_some_and(|n| pre(n) < lo) {
            let skip = self.list.partition_point(|n| pre(n) < lo);
            self.list = &self.list[skip..];
        }
        self.list
            .first()
            .is_some_and(|n| pre(n) < idx.end[anc.index()])
    }
}

/// The cursor [`DocIndex::under`] returns. Each question moves it forward
/// over the ancestors that start before the node, keeping the furthest
/// subtree end among them; intervals nest, so the node lies under one of
/// them exactly when it lies before that end.
pub struct Under<'a> {
    idx: &'a DocIndex,
    ancestors: &'a [NodeId],
    /// 1 for proper ancestors only, 0 to count the node itself.
    strict: u32,
    end: u32,
}

impl Under<'_> {
    /// Is `node` under one of the ancestors? `node` must not precede the
    /// node of the previous question in document order.
    pub fn holds(&mut self, node: NodeId) -> bool {
        let idx = self.idx;
        let Some(at) = idx.pre(node) else {
            return false;
        };
        while let Some((&a, rest)) = self.ancestors.split_first() {
            match idx.pre(a) {
                Some(p) if p + self.strict > at => break,
                Some(_) => self.end = self.end.max(idx.end[a.index()]),
                None => {}
            }
            self.ancestors = rest;
        }
        at < self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrity_checksum_detects_corruption() {
        let doc = Document::parse_str("<r><a>x</a><a>y</a><b/></r>").unwrap();
        let idx = DocIndex::build(&doc);
        assert!(idx.is_intact());
        // Clones share the checksum and stay intact.
        let mut bad = idx.clone();
        assert!(bad.is_intact());
        bad.corrupt_for_test();
        assert!(!bad.is_intact(), "corrupted posting must fail verification");
        // The original is untouched.
        assert!(idx.is_intact());
    }

    #[test]
    fn corrupt_for_test_works_on_trivial_documents() {
        // No elements at all: the fallback path must still flip the check.
        let doc = Document::parse_str("<e/>").unwrap();
        let mut idx = DocIndex::build(&doc);
        for _ in 0..3 {
            // Repeated corruption keeps the index non-intact, never panics.
            idx.corrupt_for_test();
            assert!(!idx.is_intact());
        }
    }

    fn fixture() -> Document {
        Document::parse_str(
            "<bib><book year='1999' isbn='1'><title>Data<!--c--> on the Web</title>\
             <author><last>Abiteboul</last></author></book>\
             <book year='2000'><title>XML-GL</title><author><last>Comai</last></author>\
             <price>39</price></book>\
             <paper><title>XML-GL</title><?pi d?></paper></bib>",
        )
        .unwrap()
    }

    #[test]
    fn postings_match_linear_scan() {
        let doc = fixture();
        let idx = DocIndex::build(&doc);
        for tag in ["bib", "book", "title", "author", "last", "price", "paper"] {
            let scanned: Vec<NodeId> = doc.elements_named(tag).collect();
            assert_eq!(idx.elements_named(&doc, tag), &scanned[..], "tag {tag}");
        }
        assert!(idx.elements_named(&doc, "absent").is_empty());
        let all: Vec<NodeId> = doc
            .descendants(doc.root())
            .filter(|&n| doc.kind(n) == NodeKind::Element)
            .collect();
        assert_eq!(idx.elements(), &all[..]);
        assert_eq!(idx.element_count(), all.len());
    }

    #[test]
    fn intervals_agree_with_ancestor_walks() {
        let doc = fixture();
        let idx = DocIndex::build(&doc);
        let nodes: Vec<NodeId> = doc.descendants_or_self(doc.root()).collect();
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(
                    idx.is_descendant_or_self(a, b),
                    doc.is_ancestor_or_self(a, b),
                    "{a:?} {b:?}"
                );
            }
        }
    }

    #[test]
    fn range_lookups_match_subtree_filters() {
        let doc = fixture();
        let idx = DocIndex::build(&doc);
        let books: Vec<NodeId> = doc.elements_named("book").collect();
        let titles = idx.elements_named(&doc, "title");
        for &book in &books {
            let expect: Vec<NodeId> = doc
                .descendants(book)
                .filter(|&n| doc.name(n) == Some("title"))
                .collect();
            assert_eq!(idx.range_in(titles, book, false), &expect[..]);
            let elems: Vec<NodeId> = doc
                .descendants(book)
                .filter(|&n| doc.kind(n) == NodeKind::Element)
                .collect();
            assert_eq!(idx.range_in(idx.elements(), book, false), &elems[..]);
            // The subtree's span of the preorder is the node and its
            // descendants.
            let span = &idx.preorder()[idx.span(book).unwrap()];
            assert!(span[1..].iter().copied().eq(doc.descendants(book)));
            assert_eq!(span[0], book);
        }
        // include_self picks up the anchor when it qualifies.
        let all = idx.elements_named(&doc, "book");
        assert_eq!(idx.range_in(all, books[0], true), &books[..1]);
        assert!(idx.range_in(all, books[0], false).is_empty());
        assert!(idx
            .preorder()
            .iter()
            .copied()
            .eq(doc.descendants_or_self(doc.root())));
    }

    /// The structural semi-joins against interval tests, both ways round, on
    /// the fixture and on a tag nested in itself.
    #[test]
    fn kernels_match_parent_and_ancestor_walks() {
        let nested = format!("<r>{}{}</r>", "<a><b/>".repeat(40), "</a>".repeat(40));
        for doc in [fixture(), Document::parse_str(&nested).unwrap()] {
            let idx = DocIndex::build(&doc);
            let elements = idx.elements();
            let list: Vec<NodeId> = elements.iter().copied().step_by(3).collect();
            for include_self in [false, true] {
                let (mut within, mut under) = (
                    idx.within(&list, include_self),
                    idx.under(&list, include_self),
                );
                for &n in elements {
                    let below = |a: NodeId, d: NodeId| {
                        idx.is_descendant_or_self(a, d) && (include_self || a != d)
                    };
                    let expect = list.iter().any(|&d| below(n, d));
                    assert_eq!(within.holds(n), expect, "{n:?} {include_self}");
                    let expect = list.iter().any(|&a| below(a, n));
                    assert_eq!(under.holds(n), expect, "{n:?} {include_self}");
                }
            }
        }
    }

    #[test]
    fn attr_and_text_postings() {
        let doc = fixture();
        let idx = DocIndex::build(&doc);
        let year = doc.lookup_sym("year").unwrap();
        let with_year: Vec<NodeId> = doc
            .descendants(doc.root())
            .filter(|&n| doc.attr(n, "year").is_some())
            .collect();
        assert_eq!(idx.elements_with_attr_sym(year), &with_year[..]);
        let texty: Vec<NodeId> = doc
            .descendants(doc.root())
            .filter(|&n| {
                doc.kind(n) == NodeKind::Element
                    && doc
                        .children(n)
                        .iter()
                        .any(|&c| doc.kind(c) == NodeKind::Text)
            })
            .collect();
        assert_eq!(idx.elements_with_text(), &texty[..]);
    }

    /// The root elements of `xml`'s children, each compared with the next.
    fn pairs(xml: &str) -> (Document, Vec<NodeId>) {
        let doc = Document::parse_str(xml).unwrap();
        let kids = doc.child_elements(doc.root_element().unwrap()).collect();
        (doc, kids)
    }

    #[test]
    fn deep_equality_ignores_attribute_order_comments_and_pis() {
        let (doc, kids) = pairs(
            "<r><x a='1' b='2'>t<y/></x><x b='2' a='1'>t<!--c--><?pi d?><y/></x>\
             <x a='1' b='2'><!--c-->t<y><?pi?></y></x></r>",
        );
        for &other in &kids[1..] {
            assert!(subtree_eq(&doc, kids[0], other), "{other:?}");
            assert_eq!(subtree_hash(&doc, kids[0]), subtree_hash(&doc, other));
        }
    }

    #[test]
    fn deep_equality_counts_child_order_text_boundaries_and_values() {
        let unequal = [
            "<r><x><y/><z/></x><x><z/><y/></x></r>",
            "<r><x a='1' b='2'/><x a='2' b='1'/></r>",
            "<r><x a='1'/><x a='1' b='1'/></r>",
            "<r><x>ab</x><x>a<!--c-->b</x></r>",
            "<r><x>a</x><x>a<y/></x></r>",
            "<r><x><y>t</y></x><x><y/>t</x></r>",
            // The collisions of the `canonical` string this replaced.
            "<r><x a='1,b=2'/><x a='1' b='2'/></r>",
            "<r><x>S,e:y[]()</x><x>S<y/></x></r>",
            "<r><x>a,t:b</x><x>a<!--c-->b</x></r>",
        ];
        for xml in unequal {
            let (doc, kids) = pairs(xml);
            assert!(!subtree_eq(&doc, kids[0], kids[1]), "{xml}");
            assert_ne!(
                subtree_hash(&doc, kids[0]),
                subtree_hash(&doc, kids[1]),
                "{xml}"
            );
        }
        // Text-node boundaries count even where the bytes agree.
        let mut doc = Document::new();
        let r = doc.add_element(doc.root(), "r");
        let (one, two) = (doc.add_element(r, "x"), doc.add_element(r, "x"));
        doc.add_text(one, "ab");
        doc.add_text(two, "a");
        doc.add_text(two, "b");
        assert!(!subtree_eq(&doc, one, two));
        assert!(subtree_eq(&doc, one, one));
    }

    #[test]
    fn equal_subtrees_hash_equal_across_a_document() {
        let doc = fixture();
        let nodes: Vec<NodeId> = doc.descendants_or_self(doc.root()).collect();
        let mut equal_pairs = 0;
        for &a in &nodes {
            for &b in &nodes {
                if subtree_eq(&doc, a, b) {
                    equal_pairs += usize::from(a != b);
                    assert_eq!(subtree_hash(&doc, a), subtree_hash(&doc, b), "{a:?} {b:?}");
                }
            }
        }
        // Ordered pairs: the two `<title>XML-GL</title>`, their texts, and
        // the comment and the PI (both read as nothing).
        assert_eq!(equal_pairs, 6);
    }

    #[test]
    fn stats_count_postings() {
        let doc = fixture();
        let idx = DocIndex::build(&doc);
        let s = idx.stats();
        assert_eq!(s.elements, idx.element_count());
        assert_eq!(s.distinct_tags, 7); // bib book title author last price paper
        assert_eq!(s.distinct_attrs, 2); // year isbn
        assert_eq!(s.text_elements, idx.elements_with_text().len());
    }

    #[test]
    fn shallow_fingerprint_distinguishes_root_level_changes() {
        let a = Document::parse_str("<r a='1'><x/><y/>t</r>").unwrap();
        let same = Document::parse_str("<r a='1'><x/><y/>t</r>").unwrap();
        assert_eq!(shallow_fingerprint(&a), shallow_fingerprint(&same));
        for other in [
            "<r a='2'><x/><y/>t</r>",    // attr value
            "<r b='1'><x/><y/>t</r>",    // attr name
            "<q a='1'><x/><y/>t</q>",    // root tag
            "<r a='1'><y/><x/>t</r>",    // child order
            "<r a='1'><x/><y/>u</r>",    // direct text
            "<r a='1'><x/><y/><z/></r>", // child list
        ] {
            let b = Document::parse_str(other).unwrap();
            assert_ne!(
                shallow_fingerprint(&a),
                shallow_fingerprint(&b),
                "fingerprint failed to distinguish {other}"
            );
        }
        // Node-count changes below the root are caught via the count term
        // even when the root's immediate children look identical.
        let deep_a = Document::parse_str("<r><x><d/></x></r>").unwrap();
        let deep_b = Document::parse_str("<r><x><d/><d/></x></r>").unwrap();
        assert_ne!(shallow_fingerprint(&deep_a), shallow_fingerprint(&deep_b));
    }

    #[test]
    fn tag_counts_project_postings() {
        let doc = fixture();
        let idx = DocIndex::build(&doc);
        let counts: std::collections::HashMap<&str, usize> = idx
            .tag_counts()
            .map(|(sym, n)| (doc.resolve_sym(sym), n))
            .collect();
        assert_eq!(counts["book"], 2);
        assert_eq!(counts["title"], 3);
        assert_eq!(counts["bib"], 1);
    }
}
