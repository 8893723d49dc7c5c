//! The arena-based document store.
//!
//! A [`Document`] owns every node of one semi-structured document in a flat
//! arena, addressed by [`NodeId`]. Node records are plain old data: parent
//! links plus *runs* into three pools the document owns — one for every
//! child list, one for every attribute list, one for every text byte —
//! so a node costs no heap allocation of its own. Names are interned
//! [`Symbol`]s. A synthetic *document node* (kind [`NodeKind::Document`]) is
//! always present as the arena root so that parsing and construction never
//! special-case the top level.
//!
//! Three memos are kept of the content: document order (pre-order
//! position, the order XPath and XML-GL ordered matching are defined over)
//! and the shallow content fingerprint ([`crate::shallow_fingerprint`]),
//! computed on first use, and the serialized image ([`Image`]), built only
//! when asked for ([`Document::build_image`]: a service's datasets, at
//! preload). Every mutation clears all three, and the document's exact
//! identity ([`Document::identity`]) with them.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::OnceLock;

use crate::arena::{Interner, NodeId, Symbol};
use crate::error::{Error, Result};
use crate::xml::Image;

/// Classification of nodes stored in a [`Document`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The synthetic arena root; exactly one per document.
    Document,
    /// An element with a tag name, attributes and ordered children.
    Element,
    /// A text node; leaf.
    Text,
    /// A comment; leaf. Preserved by the parser so serialisation round-trips.
    Comment,
    /// A processing instruction with target (stored as the node name) and data.
    Pi,
}

/// `len` used slots of `cap` reserved ones, starting at `start` of a pool.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    start: u32,
    len: u32,
    cap: u32,
}

impl Run {
    /// The run of `len` full slots that ends a pool now `pool_len` long.
    fn filled(pool_len: usize, len: u32, pool: &str) -> Run {
        Run {
            start: pool_offset(pool_len, pool) - len,
            len,
            cap: len,
        }
    }

    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A byte range of the text pool.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeData {
    kind: NodeKind,
    /// Element tag name or PI target.
    name: Option<Symbol>,
    /// Text / comment content or PI data; empty for the other kinds.
    text: Span,
    parent: Option<NodeId>,
    /// Run of the child pool.
    children: Run,
    /// Run of the attribute pool, in the order the attributes were set.
    attrs: Run,
}

#[derive(Debug, Clone, Copy)]
struct AttrData {
    name: Symbol,
    value: Span,
}

/// A node `import_subtree` has copied, and its children, which it has not.
#[derive(Debug)]
struct ImportFrame {
    copy: NodeId,
    /// Positions in the source's child pool still to copy.
    rest: Range<usize>,
    /// Where in this document's child pool the next copy is linked.
    slot: usize,
}

/// Pool offsets are `u32`, like [`NodeId`]: the checked conversion every
/// pool length goes through after it grows, so that a document past the
/// limit fails here instead of indexing with a wrapped offset.
fn pool_offset(len: usize, pool: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!(
            "document {pool} pool holds {len} entries, over the u32 limit of {}",
            u32::MAX
        )
    })
}

/// Append `item` to `run` of `pool`. A full run grows in place while it is
/// the pool's last one; otherwise it moves to the tail with doubled room and
/// its old slots stay behind unused, which keeps every run contiguous.
fn run_push<T: Copy>(pool: &mut Vec<T>, run: &mut Run, item: T, what: &str) {
    let (start, len, cap) = (run.start as usize, run.len as usize, run.cap as usize);
    if len < cap {
        pool[start + len] = item;
        run.len += 1;
        return;
    }
    // An empty run has no place yet: it starts at the tail.
    let start = if cap == 0 { pool.len() } else { start };
    let (start, cap) = if start + cap == pool.len() {
        pool.push(item);
        (start, cap + 1)
    } else {
        let tail = pool.len();
        pool.extend_from_within(start..start + len);
        // `item` lands in its slot and pads the spare ones.
        pool.resize(tail + 2 * len, item);
        (tail, 2 * len)
    };
    // Checked here, so the narrowing below cannot truncate.
    pool_offset(pool.len(), what);
    *run = Run {
        start: start as u32,
        len: run.len + 1,
        cap: cap as u32,
    };
}

/// Remove the slot at `pos` of `run`, keeping the order of the others.
fn run_remove<T: Copy>(pool: &mut [T], run: &mut Run, pos: usize) {
    let r = run.range();
    pool.copy_within(r.start + pos + 1..r.end, r.start + pos);
    run.len -= 1;
}

/// An in-memory semi-structured document.
///
/// All navigation accessors take `&self`; all structural mutation takes
/// `&mut self`. Node ids stay valid for the lifetime of the document —
/// detached nodes are kept in the arena (there is no garbage collection;
/// documents are built once and queried many times, matching the workload of
/// the paper's engines). The same holds inside the pools: replacing an
/// attribute value, removing an attribute, detaching a node or outgrowing a
/// run leaves the old bytes and slots behind until the document is dropped.
/// Cloning copies the pools as they are, so ids and order carry over.
///
/// Pool offsets are `u32` like [`NodeId`]: a document with more than
/// `u32::MAX` nodes, child slots, attributes or text bytes panics with a
/// message naming the pool.
#[derive(Debug)]
pub struct Document {
    nodes: Vec<NodeData>,
    /// Every child list, as the `children` runs of `nodes`.
    children: Vec<NodeId>,
    /// Every attribute list, as the `attrs` runs of `nodes`.
    attrs: Vec<AttrData>,
    /// Every text, comment, PI-data and attribute-value byte.
    text: String,
    interner: Interner,
    /// What `import_subtree` last translated each symbol *index* of a
    /// source document to. Only a hint: an entry is used after comparing the
    /// two names, so a different source merely misses and overwrites it.
    import_syms: Vec<Option<Symbol>>,
    /// `import_subtree`'s stack, kept between calls for its allocation: an
    /// answer is a thousand imports. Empty whenever no import is running.
    import_open: Vec<ImportFrame>,
    root: NodeId,
    /// Lazily computed pre-order positions, cleared on mutation.
    /// `OnceLock` (not `RefCell`) so a `&Document` can be shared across
    /// threads: `gql-serve`'s workers all read one per dataset.
    order: OnceLock<Vec<u32>>,
    /// [`crate::shallow_fingerprint`], computed on first use and cleared
    /// with `order`: a resident dataset is fingerprinted once, not on every
    /// cache probe.
    fingerprint: OnceLock<u64>,
    /// The serialized image, once [`Document::build_image`] has made it;
    /// cleared with `order`. A deep copy into written bytes reads it.
    image: OnceLock<Image>,
    /// [`Document::identity`], drawn on first read and cleared with
    /// `order`.
    identity: OnceLock<u64>,
}

/// The source of every [`Document::identity`] in the process.
static IDENTITIES: AtomicU64 = AtomicU64::new(0);

impl Clone for Document {
    fn clone(&self) -> Self {
        Document {
            nodes: self.nodes.clone(),
            children: self.children.clone(),
            attrs: self.attrs.clone(),
            text: self.text.clone(),
            interner: self.interner.clone(),
            import_syms: Vec::new(),
            import_open: Vec::new(),
            root: self.root,
            // The clone recomputes document order on first use; its content
            // is this document's, so the fingerprint carries over. The
            // image is as large as the text: a clone is made to be changed,
            // and builds its own if it is to be served. A clone is another
            // document, with an identity of its own.
            order: OnceLock::new(),
            fingerprint: self.fingerprint.clone(),
            image: OnceLock::new(),
            identity: OnceLock::new(),
        }
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Create an empty document containing only the synthetic document node.
    pub fn new() -> Self {
        let mut doc = Document {
            nodes: Vec::new(),
            children: Vec::new(),
            attrs: Vec::new(),
            text: String::new(),
            interner: Interner::new(),
            import_syms: Vec::new(),
            import_open: Vec::new(),
            root: NodeId(0),
            order: OnceLock::new(),
            fingerprint: OnceLock::new(),
            image: OnceLock::new(),
            identity: OnceLock::new(),
        };
        doc.push(NodeKind::Document, None, "", None);
        doc
    }

    /// Parse an XML string into a fresh document. See [`crate::xml`] for the
    /// supported subset.
    pub fn parse_str(input: &str) -> Result<Self> {
        crate::xml::parse(input)
    }

    /// Serialize the document back to XML (compact form).
    pub fn to_xml_string(&self) -> String {
        crate::xml::write(self, false)
    }

    /// Serialize the document to indented XML.
    pub fn to_xml_pretty(&self) -> String {
        crate::xml::write(self, true)
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    fn push(
        &mut self,
        kind: NodeKind,
        name: Option<Symbol>,
        text: &str,
        parent: Option<NodeId>,
    ) -> NodeId {
        let id = NodeId(pool_offset(self.nodes.len(), "node"));
        let text = self.push_text(text);
        self.nodes.push(NodeData {
            kind,
            name,
            text,
            parent,
            children: Run::default(),
            attrs: Run::default(),
        });
        self.changed();
        id
    }

    fn push_text(&mut self, s: &str) -> Span {
        self.text.push_str(s);
        let end = pool_offset(self.text.len(), "text");
        // `s` is part of the pool, so its length fits as well.
        let len = s.len() as u32;
        Span {
            start: end - len,
            len,
        }
    }

    /// Create a detached element node.
    pub fn create_element(&mut self, name: &str) -> NodeId {
        let sym = self.interner.intern(name);
        self.push(NodeKind::Element, Some(sym), "", None)
    }

    /// Create a detached text node.
    pub fn create_text(&mut self, text: &str) -> NodeId {
        self.push(NodeKind::Text, None, text, None)
    }

    /// Create a detached comment node.
    pub fn create_comment(&mut self, text: &str) -> NodeId {
        self.push(NodeKind::Comment, None, text, None)
    }

    /// Create a detached processing-instruction node.
    pub fn create_pi(&mut self, target: &str, data: &str) -> NodeId {
        let sym = self.interner.intern(target);
        self.push(NodeKind::Pi, Some(sym), data, None)
    }

    /// Append a detached node as the last child of `parent`.
    ///
    /// Fails if `child` already has a parent (detach it first), if `parent`
    /// is a leaf kind, or if the edge would create a cycle.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        self.check(parent)?;
        self.check(child)?;
        if child == self.root {
            return Err(Error::structure("the document node cannot be a child"));
        }
        match self.nodes[parent.index()].kind {
            NodeKind::Document | NodeKind::Element => {}
            k => {
                return Err(Error::structure(format!(
                    "{k:?} nodes cannot have children"
                )))
            }
        }
        if self.nodes[child.index()].parent.is_some() {
            return Err(Error::structure(format!("{child} already has a parent")));
        }
        // Cycle check: parent must not be inside child's subtree, which for
        // a childless child is the child alone.
        let cycle = if self.nodes[child.index()].children.len == 0 {
            parent == child
        } else {
            self.is_ancestor_or_self(child, parent)
        };
        if cycle {
            return Err(Error::structure("append would create a cycle"));
        }
        self.nodes[child.index()].parent = Some(parent);
        run_push(
            &mut self.children,
            &mut self.nodes[parent.index()].children,
            child,
            "child",
        );
        self.changed();
        Ok(())
    }

    /// Detach `node` from its parent (no-op if already detached). The node
    /// and its subtree remain usable and can be re-appended elsewhere.
    pub fn detach(&mut self, node: NodeId) -> Result<()> {
        self.check(node)?;
        if node == self.root {
            return Err(Error::structure("cannot detach the document node"));
        }
        if let Some(p) = self.nodes[node.index()].parent.take() {
            if let Some(pos) = self.children(p).iter().position(|&c| c == node) {
                run_remove(&mut self.children, &mut self.nodes[p.index()].children, pos);
            }
            self.changed();
        }
        Ok(())
    }

    /// Set (or replace) an attribute on an element.
    pub fn set_attr(&mut self, node: NodeId, name: &str, value: &str) -> Result<()> {
        self.check(node)?;
        if self.nodes[node.index()].kind != NodeKind::Element {
            return Err(Error::structure("attributes are only valid on elements"));
        }
        let name = self.interner.intern(name);
        let value = self.push_text(value);
        let run = &mut self.nodes[node.index()].attrs;
        if let Some(slot) = self.attrs[run.range()].iter_mut().find(|a| a.name == name) {
            slot.value = value;
        } else {
            run_push(&mut self.attrs, run, AttrData { name, value }, "attribute");
        }
        self.changed();
        Ok(())
    }

    /// Remove an attribute; returns whether it was present.
    pub fn remove_attr(&mut self, node: NodeId, name: &str) -> Result<bool> {
        self.check(node)?;
        let Some(sym) = self.interner.get(name) else {
            return Ok(false);
        };
        let run = &mut self.nodes[node.index()].attrs;
        let pos = self.attrs[run.range()].iter().position(|a| a.name == sym);
        if let Some(pos) = pos {
            run_remove(&mut self.attrs, run, pos);
            self.changed();
        }
        Ok(pos.is_some())
    }

    /// Convenience: create an element, append it under `parent`, return it.
    pub fn add_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        let el = self.create_element(name);
        self.append_child(parent, el)
            .expect("fresh element is appendable");
        el
    }

    /// Convenience: create a text node under `parent`.
    pub fn add_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        let t = self.create_text(text);
        self.append_child(parent, t)
            .expect("fresh text node is appendable");
        t
    }

    /// Convenience: element with a single text child — the dominant shape in
    /// semi-structured datasets (`<name>DeRuiter</name>`).
    pub fn add_text_element(&mut self, parent: NodeId, name: &str, text: &str) -> NodeId {
        let el = self.add_element(parent, name);
        self.add_text(el, text);
        el
    }

    /// Deep-copy the subtree rooted at `node` from `src` into `self`,
    /// returning the new (detached) root. Used by construction engines when
    /// materialising query results.
    ///
    /// Nodes are copied in pre-order by a loop over the source child lists
    /// still being copied, so no nesting depth can exhaust the call stack.
    pub fn import_subtree(&mut self, src: &Document, node: NodeId) -> NodeId {
        let root = self.import_node(src, node, None);
        // The node whose children are being copied; those that still have
        // children to copy after it wait in `outer`.
        let mut open = self.import_frame(src, node, root);
        let mut outer = std::mem::take(&mut self.import_open);
        loop {
            let Some(i) = open.rest.next() else {
                match outer.pop() {
                    Some(parent) => open = parent,
                    None => break,
                }
                continue;
            };
            let child = src.children[i];
            let copy = self.import_node(src, child, Some(open.copy));
            self.children[open.slot] = copy;
            open.slot += 1;
            if src.nodes[child.index()].children.len > 0 {
                let inner = self.import_frame(src, child, copy);
                let done = open.rest.is_empty();
                let parent = std::mem::replace(&mut open, inner);
                if !done {
                    outer.push(parent);
                }
            }
        }
        self.import_open = outer;
        self.changed();
        root
    }

    /// Where the children of `node` are, and where their copies go: the run
    /// `import_node` reserved at the pool's tail when it made `copy`.
    fn import_frame(&self, src: &Document, node: NodeId, copy: NodeId) -> ImportFrame {
        let kids = src.nodes[node.index()].children;
        ImportFrame {
            copy,
            rest: kids.range(),
            slot: self.children.len() - kids.len as usize,
        }
    }

    /// Copy `node` alone, with room for its children. Every node linked
    /// here was created here, so none of `append_child`'s checks can fail,
    /// and each run is reserved at its final length.
    fn import_node(&mut self, src: &Document, node: NodeId, parent: Option<NodeId>) -> NodeId {
        let data = src.nodes[node.index()];
        let (kind, name) = match data.kind {
            // A whole document has no tag of its own: graft its children
            // under a fresh `document` element so the import is always a
            // single well-formed subtree.
            NodeKind::Document => (NodeKind::Element, Some(self.interner.intern("document"))),
            kind => (kind, data.name.map(|s| self.import_sym(src, s))),
        };
        let new = self.push(kind, name, &src.text[data.text.range()], parent);
        for a in &src.attrs[data.attrs.range()] {
            let name = self.import_sym(src, a.name);
            let value = self.push_text(&src.text[a.value.range()]);
            self.attrs.push(AttrData { name, value });
        }
        // Placeholders: `import_subtree` overwrites each slot before anyone
        // reads it.
        let first = self.children.len();
        self.children
            .resize(first + data.children.len as usize, new);
        let copy = &mut self.nodes[new.index()];
        copy.attrs = Run::filled(self.attrs.len(), data.attrs.len, "attribute");
        copy.children = Run::filled(self.children.len(), data.children.len, "child");
        new
    }

    /// This document's symbol for `src`'s `sym`, through `import_syms`.
    fn import_sym(&mut self, src: &Document, sym: Symbol) -> Symbol {
        let name = src.interner.resolve(sym);
        if self.import_syms.len() <= sym.index() {
            self.import_syms.resize(src.interner.len(), None);
        }
        match self.import_syms[sym.index()] {
            Some(known) if self.interner.resolve(known) == name => known,
            _ => {
                let new = self.interner.intern(name);
                self.import_syms[sym.index()] = Some(new);
                new
            }
        }
    }

    /// About the length of the compact serialisation, for
    /// [`crate::xml::write`] to size its buffer by: every pooled byte plus
    /// the markup of a record (≈ 9 bytes in the generated datasets; counting
    /// it exactly costs more than the reallocation a miss does).
    pub(crate) fn xml_size_hint(&self) -> usize {
        self.text.len() + 12 * self.nodes.len()
    }

    // ------------------------------------------------------------------
    // Navigation
    // ------------------------------------------------------------------

    fn check(&self, node: NodeId) -> Result<()> {
        if node.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(Error::invalid_node(format!("{node} out of range")))
        }
    }

    /// The synthetic document node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The first element child of the document node, if any.
    pub fn root_element(&self) -> Option<NodeId> {
        self.child_elements(self.root).next()
    }

    /// Kind of a node.
    #[inline]
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.index()].kind
    }

    /// Tag name (elements) or target (PIs).
    pub fn name(&self, node: NodeId) -> Option<&str> {
        self.nodes[node.index()]
            .name
            .map(|s| self.interner.resolve(s))
    }

    /// Interned tag name; faster to compare than strings.
    #[inline]
    pub fn name_sym(&self, node: NodeId) -> Option<Symbol> {
        self.nodes[node.index()].name
    }

    /// Text content of a text/comment/PI node (not recursive).
    pub fn text(&self, node: NodeId) -> Option<&str> {
        let data = &self.nodes[node.index()];
        match data.kind {
            NodeKind::Text | NodeKind::Comment | NodeKind::Pi => {
                Some(&self.text[data.text.range()])
            }
            NodeKind::Document | NodeKind::Element => None,
        }
    }

    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// Ordered children (all kinds).
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[self.nodes[node.index()].children.range()]
    }

    /// Ordered element children.
    pub fn child_elements(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(node)
            .iter()
            .copied()
            .filter(|&c| self.kind(c) == NodeKind::Element)
    }

    /// Attributes of an element in set order.
    pub fn attrs(&self, node: NodeId) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.attr_run(node)
            .iter()
            .map(move |a| (self.interner.resolve(a.name), &self.text[a.value.range()]))
    }

    fn attr_run(&self, node: NodeId) -> &[AttrData] {
        &self.attrs[self.nodes[node.index()].attrs.range()]
    }

    /// Attribute names of an element as interned symbols, in set order —
    /// the resolution-free sibling of [`attrs`](Document::attrs) for index
    /// builds, which would otherwise hash every name string back through
    /// the interner.
    pub fn attr_syms(&self, node: NodeId) -> impl Iterator<Item = Symbol> + '_ {
        self.attr_run(node).iter().map(|a| a.name)
    }

    /// Value of one attribute.
    pub fn attr(&self, node: NodeId, name: &str) -> Option<&str> {
        let attrs = self.attr_run(node);
        // Most nodes have none: answer before hashing the name.
        if attrs.is_empty() {
            return None;
        }
        let sym = self.interner.get(name)?;
        attrs
            .iter()
            .find(|a| a.name == sym)
            .map(|a| &self.text[a.value.range()])
    }

    /// Value of the attribute named by an interned symbol: [`attr`] for a
    /// caller that resolved the name once and asks per candidate.
    ///
    /// [`attr`]: Document::attr
    #[inline]
    pub fn attr_sym(&self, node: NodeId, sym: Symbol) -> Option<&str> {
        self.attr_run(node)
            .iter()
            .find(|a| a.name == sym)
            .map(|a| &self.text[a.value.range()])
    }

    /// Number of attributes on a node.
    pub fn attr_count(&self, node: NodeId) -> usize {
        self.attr_run(node).len()
    }

    /// Pre-order iterator over the subtree rooted at `node`, including
    /// `node` itself.
    pub fn descendants_or_self(&self, node: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![node],
        }
    }

    /// Pre-order iterator over proper descendants of `node`.
    pub fn descendants(&self, node: NodeId) -> Descendants<'_> {
        let mut stack: Vec<NodeId> = self.children(node).to_vec();
        stack.reverse();
        Descendants { doc: self, stack }
    }

    /// All elements in the document with the given tag, in document order.
    pub fn elements_named<'a>(&'a self, name: &str) -> impl Iterator<Item = NodeId> + 'a {
        let sym = self.interner.get(name);
        self.descendants(self.root).filter(move |&n| {
            self.kind(n) == NodeKind::Element && sym.is_some() && self.name_sym(n) == sym
        })
    }

    /// Concatenated text of all descendant text nodes — XPath's `string()`.
    ///
    /// A loop over the sibling lists still to visit, so no nesting depth can
    /// exhaust the call stack; a list is set aside only while it has nodes
    /// left, so `<name>Roma</name>` allocates nothing but the result.
    pub fn text_content(&self, node: NodeId) -> String {
        let mut out = String::new();
        let mut later: Vec<std::slice::Iter<'_, NodeId>> = Vec::new();
        let mut siblings = std::slice::from_ref(&node).iter();
        loop {
            let Some(&n) = siblings.next() else {
                match later.pop() {
                    Some(rest) => siblings = rest,
                    None => return out,
                }
                continue;
            };
            match self.kind(n) {
                NodeKind::Text => out.push_str(self.text(n).unwrap_or("")),
                NodeKind::Comment | NodeKind::Pi => {}
                NodeKind::Element | NodeKind::Document => {
                    let rest = std::mem::replace(&mut siblings, self.children(n).iter());
                    if !rest.as_slice().is_empty() {
                        later.push(rest);
                    }
                }
            }
        }
    }

    /// [`text_content`](Document::text_content) without the copy wherever
    /// the value is stored in one piece: text, comment and PI nodes, and
    /// elements whose only child is a text node (or that have no children).
    /// Owned only for content that really spans several nodes.
    pub fn string_value(&self, node: NodeId) -> Cow<'_, str> {
        match self.kind(node) {
            NodeKind::Text | NodeKind::Comment | NodeKind::Pi => {
                Cow::Borrowed(self.text(node).unwrap_or(""))
            }
            NodeKind::Element | NodeKind::Document => match *self.children(node) {
                [] => Cow::Borrowed(""),
                [only] if self.kind(only) == NodeKind::Text => {
                    Cow::Borrowed(self.text(only).unwrap_or(""))
                }
                _ => Cow::Owned(self.text_content(node)),
            },
        }
    }

    /// Total number of arena slots (includes detached nodes and the document
    /// node). Useful as a size metric for benches.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes reachable from the document node.
    pub fn live_node_count(&self) -> usize {
        self.descendants_or_self(self.root).count()
    }

    /// Depth of a node (document node has depth 0).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut d = 0;
        let mut cur = self.parent(node);
        while let Some(p) = cur {
            d += 1;
            cur = self.parent(p);
        }
        d
    }

    /// Zero-based position among same-parent siblings; 0 for detached nodes.
    pub fn sibling_index(&self, node: NodeId) -> usize {
        match self.parent(node) {
            Some(p) => self
                .children(p)
                .iter()
                .position(|&c| c == node)
                .unwrap_or(0),
            None => 0,
        }
    }

    /// The following sibling, if any.
    pub fn next_sibling(&self, node: NodeId) -> Option<NodeId> {
        let p = self.parent(node)?;
        let siblings = self.children(p);
        let i = siblings.iter().position(|&c| c == node)?;
        siblings.get(i + 1).copied()
    }

    /// The preceding sibling, if any.
    pub fn prev_sibling(&self, node: NodeId) -> Option<NodeId> {
        let p = self.parent(node)?;
        let siblings = self.children(p);
        let i = siblings.iter().position(|&c| c == node)?;
        i.checked_sub(1).map(|j| siblings[j])
    }

    /// Whether `anc` is `node` or one of its ancestors.
    pub fn is_ancestor_or_self(&self, anc: NodeId, node: NodeId) -> bool {
        let mut cur = Some(node);
        while let Some(n) = cur {
            if n == anc {
                return true;
            }
            cur = self.parent(n);
        }
        false
    }

    // ------------------------------------------------------------------
    // Document order
    // ------------------------------------------------------------------

    /// Forget everything computed from the content. Every `&mut self`
    /// method that changes a node, a child list, an attribute or a text
    /// calls this; interning a name changes none of them.
    fn changed(&mut self) {
        self.order = OnceLock::new();
        self.fingerprint = OnceLock::new();
        self.image = OnceLock::new();
        self.identity = OnceLock::new();
    }

    /// The document's identity as it is now: a number no other document,
    /// and no other state of this one, has had in this process. It is
    /// drawn from one process-wide counter on the first read after the
    /// document is made, cloned or changed, so a mutation pays no atomic
    /// and two reads with no change between them agree. What is built from
    /// a document and kept beside it (an engine's resident index, summary
    /// and instance) is keyed by it.
    pub fn identity(&self) -> u64 {
        *(self.identity).get_or_init(|| IDENTITIES.fetch_add(1, AtomicOrdering::Relaxed))
    }

    /// The serialized image of the document as it is now, written on the
    /// first call after a change. An image makes every later
    /// [`XmlSink::subtree`](crate::sink::XmlSink) from this document one
    /// copy, at the price of the serialisation's bytes plus 12 per node.
    pub fn build_image(&self) -> &Image {
        self.image.get_or_init(|| Image::build(self))
    }

    /// The serialized image, if one was built since the last change.
    pub fn image(&self) -> Option<&Image> {
        self.image.get()
    }

    /// The memo behind [`crate::shallow_fingerprint`].
    pub(crate) fn fingerprint_memo(&self) -> &OnceLock<u64> {
        &self.fingerprint
    }

    fn ensure_order(&self) -> &Vec<u32> {
        self.order.get_or_init(|| {
            let mut order = vec![u32::MAX; self.nodes.len()];
            let mut counter = 0u32;
            let mut stack = vec![self.root];
            while let Some(n) = stack.pop() {
                order[n.index()] = counter;
                counter += 1;
                for &c in self.children(n).iter().rev() {
                    stack.push(c);
                }
            }
            order
        })
    }

    /// Pre-order position of a node; detached nodes sort after all attached
    /// ones (position `u32::MAX`).
    pub fn order_key(&self, node: NodeId) -> u32 {
        self.ensure_order()[node.index()]
    }

    /// Compare two nodes by document order.
    pub fn doc_order_cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        self.order_key(a).cmp(&self.order_key(b))
    }

    /// Sort a node list into document order and drop duplicates — the
    /// normalisation every engine applies to result node-sets.
    pub fn sort_dedup_doc_order(&self, nodes: &mut Vec<NodeId>) {
        let order = self.ensure_order();
        // Detached nodes all share the sentinel key; tie-break on the id so
        // equal nodes become adjacent and dedup removes them.
        nodes.sort_by_key(|n| (order[n.index()], n.index()));
        nodes.dedup();
    }

    // ------------------------------------------------------------------
    // Interner access
    // ------------------------------------------------------------------

    /// Intern a name in this document's symbol table.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Look up a name without interning.
    pub fn lookup_sym(&self, s: &str) -> Option<Symbol> {
        self.interner.get(s)
    }

    /// Resolve a symbol to its string.
    pub fn resolve_sym(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }
}

/// Pre-order traversal iterator returned by [`Document::descendants`].
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.stack.pop()?;
        let children = self.doc.children(n);
        self.stack.extend(children.iter().rev().copied());
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let root = d.add_element(d.root(), "bib");
        let book = d.add_element(root, "book");
        d.set_attr(book, "isbn", "42").unwrap();
        let title = d.add_text_element(book, "title", "Data on the Web");
        (d, root, book, title)
    }

    #[test]
    fn pool_offsets_are_checked_against_the_u32_limit() {
        assert_eq!(pool_offset(u32::MAX as usize, "text"), u32::MAX);
        let over = std::panic::catch_unwind(|| pool_offset(u32::MAX as usize + 1, "text"));
        let msg = *over.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.contains("text pool") && msg.contains("4294967295"),
            "{msg}"
        );
    }

    #[test]
    fn node_records_are_plain_old_data() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<NodeData>();
        assert_copy::<AttrData>();
        assert!(std::mem::size_of::<NodeData>() <= 52);
        assert_eq!(std::mem::size_of::<AttrData>(), 12);
    }

    #[test]
    fn interleaved_appends_keep_every_child_list_one_ordered_slice() {
        let mut d = Document::new();
        let a = d.add_element(d.root(), "a");
        let b = d.add_element(d.root(), "b");
        let (mut of_a, mut of_b) = (Vec::new(), Vec::new());
        for i in 0..40 {
            // `a`'s run is full and not last every time `b` grew after it.
            of_a.push(d.add_element(a, "x"));
            if i % 3 == 0 {
                of_b.push(d.add_text(b, "t"));
            }
            assert_eq!(d.children(a), of_a);
            assert_eq!(d.children(b), of_b);
        }
        // Moved runs leave their old slots behind; the pool stays within
        // twice the live lists plus what the moves abandoned.
        assert!(d.children.len() >= of_a.len() + of_b.len() + 2);
        assert!(d.children.len() <= 4 * (of_a.len() + of_b.len()));
        d.detach(of_a[1]).unwrap();
        of_a.remove(1);
        assert_eq!(d.children(a), of_a);
    }

    #[test]
    fn replaced_values_stay_in_the_pool_and_clones_carry_it_as_it_is() {
        let (mut d, _, book, title) = sample();
        let before = d.text.len();
        d.set_attr(book, "isbn", "4711").unwrap();
        assert_eq!(d.text.len(), before + 4);
        assert_eq!(d.attr(book, "isbn"), Some("4711"));
        let copy = d.clone();
        assert_eq!(copy.text, d.text);
        assert_eq!(copy.children, d.children);
        assert_eq!(copy.attr(book, "isbn"), Some("4711"));
        assert_eq!(copy.text_content(title), "Data on the Web");
        assert_eq!(copy.to_xml_string(), d.to_xml_string());
    }

    #[test]
    fn build_and_navigate() {
        let (d, root, book, title) = sample();
        assert_eq!(d.root_element(), Some(root));
        assert_eq!(d.name(root), Some("bib"));
        assert_eq!(d.parent(book), Some(root));
        assert_eq!(d.children(root), &[book]);
        assert_eq!(d.attr(book, "isbn"), Some("42"));
        assert_eq!(d.attr(book, "missing"), None);
        assert_eq!(d.text_content(title), "Data on the Web");
        assert_eq!(d.depth(title), 3);
    }

    #[test]
    fn text_content_concatenates_across_children() {
        let mut d = Document::new();
        let r = d.add_element(d.root(), "p");
        d.add_text(r, "Hello, ");
        let b = d.add_element(r, "b");
        d.add_text(b, "world");
        d.add_text(r, "!");
        assert_eq!(d.text_content(r), "Hello, world!");
    }

    #[test]
    fn comments_and_pis_are_excluded_from_text_content() {
        let mut d = Document::new();
        let r = d.add_element(d.root(), "p");
        d.add_text(r, "a");
        let c = d.create_comment("nope");
        d.append_child(r, c).unwrap();
        let pi = d.create_pi("t", "nope");
        d.append_child(r, pi).unwrap();
        d.add_text(r, "b");
        assert_eq!(d.text_content(r), "ab");
    }

    #[test]
    fn append_rejects_cycle() {
        let (mut d, root, book, _) = sample();
        d.detach(root).unwrap();
        let err = d.append_child(book, root).unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn append_rejects_double_parenting() {
        let (mut d, _root, book, _) = sample();
        let other = d.create_element("other");
        d.append_child(other, book).unwrap_err();
    }

    #[test]
    fn append_rejects_children_on_leaves() {
        let mut d = Document::new();
        let t = d.create_text("x");
        let e = d.create_element("e");
        assert!(d.append_child(t, e).is_err());
    }

    #[test]
    fn detach_and_reattach() {
        let (mut d, root, book, _) = sample();
        d.detach(book).unwrap();
        assert_eq!(d.children(root), &[] as &[NodeId]);
        assert_eq!(d.parent(book), None);
        let other = d.add_element(root, "other");
        d.append_child(other, book).unwrap();
        assert_eq!(d.parent(book), Some(other));
    }

    #[test]
    fn detach_document_node_fails() {
        let mut d = Document::new();
        assert!(d.detach(d.root()).is_err());
    }

    #[test]
    fn set_attr_replaces() {
        let (mut d, _, book, _) = sample();
        d.set_attr(book, "isbn", "43").unwrap();
        assert_eq!(d.attr(book, "isbn"), Some("43"));
        assert_eq!(d.attr_count(book), 1);
    }

    #[test]
    fn remove_attr() {
        let (mut d, _, book, _) = sample();
        assert!(d.remove_attr(book, "isbn").unwrap());
        assert!(!d.remove_attr(book, "isbn").unwrap());
        assert_eq!(d.attr(book, "isbn"), None);
    }

    #[test]
    fn attrs_on_text_rejected() {
        let mut d = Document::new();
        let t = d.create_text("x");
        assert!(d.set_attr(t, "a", "b").is_err());
    }

    #[test]
    fn descendants_preorder() {
        let (d, root, book, title) = sample();
        let order: Vec<NodeId> = d.descendants_or_self(root).collect();
        assert_eq!(order[0], root);
        assert_eq!(order[1], book);
        assert_eq!(order[2], title);
        assert_eq!(order.len(), 4); // + text node
        let proper: Vec<NodeId> = d.descendants(root).collect();
        assert_eq!(proper.len(), 3);
        assert!(!proper.contains(&root));
    }

    #[test]
    fn doc_order_after_mutation() {
        let (mut d, root, book, _) = sample();
        assert_eq!(d.doc_order_cmp(root, book), Ordering::Less);
        let b2 = d.add_element(root, "book2");
        // order cache must have been invalidated and recomputed
        assert_eq!(d.doc_order_cmp(book, b2), Ordering::Less);
        d.detach(book).unwrap();
        // detached nodes sort last
        assert_eq!(d.doc_order_cmp(b2, book), Ordering::Less);
    }

    #[test]
    fn sort_dedup() {
        let (d, root, book, title) = sample();
        let mut v = vec![title, root, book, root];
        d.sort_dedup_doc_order(&mut v);
        assert_eq!(v, vec![root, book, title]);
    }

    #[test]
    fn elements_named_scans_whole_document() {
        let mut d = Document::new();
        let r = d.add_element(d.root(), "r");
        let a1 = d.add_element(r, "a");
        let b = d.add_element(r, "b");
        let a2 = d.add_element(b, "a");
        let found: Vec<NodeId> = d.elements_named("a").collect();
        assert_eq!(found, vec![a1, a2]);
        assert!(d.elements_named("zzz").next().is_none());
    }

    #[test]
    fn siblings() {
        let mut d = Document::new();
        let r = d.add_element(d.root(), "r");
        let a = d.add_element(r, "a");
        let b = d.add_element(r, "b");
        let c = d.add_element(r, "c");
        assert_eq!(d.next_sibling(a), Some(b));
        assert_eq!(d.prev_sibling(c), Some(b));
        assert_eq!(d.prev_sibling(a), None);
        assert_eq!(d.next_sibling(c), None);
        assert_eq!(d.sibling_index(b), 1);
    }

    #[test]
    fn import_whole_document_wraps_in_a_document_element() {
        let src = Document::parse_str("<r><a/>text</r>").unwrap();
        let mut dst = Document::new();
        let copied = dst.import_subtree(&src, src.root());
        assert_eq!(dst.name(copied), Some("document"));
        assert_eq!(dst.text_content(copied), "text");
    }

    #[test]
    fn sort_dedup_handles_detached_duplicates() {
        let mut d = Document::new();
        let r = d.add_element(d.root(), "r");
        let x = d.add_element(r, "x");
        let y = d.add_element(r, "y");
        d.detach(x).unwrap();
        d.detach(y).unwrap();
        let mut v = vec![x, y, x, y, r];
        d.sort_dedup_doc_order(&mut v);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], r);
    }

    #[test]
    fn import_subtree_deep_copies() {
        let (src, _, book, _) = sample();
        let mut dst = Document::new();
        let copied = dst.import_subtree(&src, book);
        dst.append_child(dst.root(), copied).unwrap();
        assert_eq!(dst.name(copied), Some("book"));
        assert_eq!(dst.attr(copied, "isbn"), Some("42"));
        assert_eq!(dst.text_content(copied), "Data on the Web");
        // Fully independent: mutating dst does not affect src.
        assert_eq!(src.text_content(book), "Data on the Web");
    }

    #[test]
    fn is_ancestor_or_self() {
        let (d, root, book, title) = sample();
        assert!(d.is_ancestor_or_self(root, title));
        assert!(d.is_ancestor_or_self(book, book));
        assert!(!d.is_ancestor_or_self(title, book));
    }

    #[test]
    fn live_vs_total_node_count() {
        let (mut d, _, book, _) = sample();
        let total = d.node_count();
        d.detach(book).unwrap();
        assert_eq!(d.node_count(), total);
        assert!(d.live_node_count() < total);
    }

    /// The memoised fingerprint and image are never stale: after every step
    /// of random mutation sequences the fingerprint equals the one computed
    /// afresh, and an image, if there is one, holds every node's span as a
    /// fresh image would. Each step reads the memos first and builds the
    /// image again half the time, so a mutator that forgot to clear either
    /// is caught by the next comparison, and a clone is never read with the
    /// image of what it was cloned from; attribute steps favour the root
    /// element, the only one whose attributes the fingerprint reads.
    #[test]
    fn the_memoised_fingerprint_and_image_follow_every_mutation() {
        use crate::index::{fresh_shallow_fingerprint, shallow_fingerprint};
        use crate::rng::Rng;
        let src = Document::parse_str("<lib a='1'><book><title>T</title></book>x</lib>").unwrap();
        let src_nodes: Vec<NodeId> = src.descendants_or_self(src.root()).collect();
        const NAMES: [&str; 3] = ["a", "b", "c"];
        for seed in 0..200 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut d = Document::parse_str("<r a='0'><x/>t</r>").unwrap();
            for step in 0..40 {
                assert_eq!(
                    shallow_fingerprint(&d),
                    fresh_shallow_fingerprint(&d),
                    "seed {seed}, before step {step}"
                );
                if let Some(image) = d.image() {
                    let fresh = Image::build(&d);
                    for i in 0..d.node_count() {
                        let node = NodeId::from_index(i);
                        assert_eq!(
                            image.subtree(node),
                            fresh.subtree(node),
                            "seed {seed}, before step {step}, node {i}"
                        );
                    }
                }
                if rng.gen_bool(0.5) {
                    d.build_image();
                }
                let any = |rng: &mut Rng, d: &Document| {
                    NodeId::from_index(rng.gen_range(0..d.node_count()))
                };
                let target = |rng: &mut Rng, d: &Document| match d.root_element() {
                    Some(root) if rng.gen_bool(0.5) => root,
                    _ => any(rng, d),
                };
                let name = NAMES[rng.gen_range(0..NAMES.len())];
                // A step the document refuses (a cycle, a second parent, an
                // attribute on a text node) must leave the memo right too.
                match rng.gen_range(0..9) {
                    0 => _ = d.create_element(name),
                    1 => _ = d.create_text(name),
                    2 => _ = d.create_comment(name),
                    3 => _ = d.create_pi(name, "data"),
                    4 => {
                        let (parent, child) = (target(&mut rng, &d), any(&mut rng, &d));
                        _ = d.append_child(parent, child);
                    }
                    5 => {
                        let node = any(&mut rng, &d);
                        _ = d.detach(node);
                    }
                    6 => {
                        let node = target(&mut rng, &d);
                        let value = rng.gen_range(0..4).to_string();
                        _ = d.set_attr(node, name, &value);
                    }
                    7 => {
                        let node = target(&mut rng, &d);
                        _ = d.remove_attr(node, name);
                    }
                    _ if rng.gen_bool(0.5) => {
                        let node = src_nodes[rng.gen_range(0..src_nodes.len())];
                        _ = d.import_subtree(&src, node);
                    }
                    _ => {
                        d = d.clone();
                        assert!(d.image().is_none(), "a clone carries no image");
                    }
                }
            }
            assert_eq!(shallow_fingerprint(&d), fresh_shallow_fingerprint(&d));
        }
    }
}
