//! # Structural summaries (DataGuides) inferred from documents
//!
//! Most documents arrive without a DTD, so the static checks of the paper's
//! editors have nothing to check against. A [`Summary`] recovers the missing
//! schema by observation: it is a *strong DataGuide* in the Lore sense — a
//! deterministic automaton over root-to-element tag paths, where every state
//! (a [`PathId`]) records how many document elements sit on that path,
//! whether they carry direct text, which attributes they carry (and how
//! often), plus the ID/IDREF reference edges that make the tree a graph.
//!
//! The summary is a sound abstraction: every element of the document lies on
//! exactly one summary path, and every per-path `count` is exact at build
//! time. Consumers (the `gql-infer` crate) interpret queries against the
//! automaton to decide satisfiability and derive cardinality upper bounds;
//! the soundness argument lives in DESIGN.md.
//!
//! Totals per tag are derived from the existing [`DocIndex`] postings when
//! one is available ([`Summary::from_index`]) — the per-path refinement then
//! only redistributes counts the postings already pin down.

use std::collections::{BTreeMap, HashMap};

use crate::arena::Symbol;
use crate::document::{Document, NodeKind};
use crate::idref::RefTable;
use crate::index::DocIndex;
use crate::NodeId;

/// Index of a state in the summary's path automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

impl PathId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One automaton state: all document elements reachable by the same
/// root-to-element tag path.
#[derive(Debug, Clone)]
pub struct PathNode {
    /// Element tag of this step ("" for the virtual document root).
    pub tag: String,
    /// Parent state; `None` only for the virtual root.
    pub parent: Option<PathId>,
    /// Distance from the virtual root (root element paths have depth 1).
    pub depth: u32,
    /// Number of document elements on this path.
    pub count: u64,
    /// How many of them have at least one direct text child.
    pub text_count: u64,
    /// Attribute name → number of elements on this path carrying it.
    /// Ordered so rendering and iteration are deterministic.
    pub attrs: BTreeMap<String, u64>,
    /// Child states, in first-discovery (document) order.
    pub children: Vec<PathId>,
}

/// Counters describing a built [`Summary`], for profiling surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryStats {
    /// Automaton states, excluding the virtual root.
    pub paths: usize,
    /// Deepest path (root elements are depth 1).
    pub max_depth: u32,
    /// Elements covered (equals the document's reachable element count).
    pub elements: u64,
    /// Resolved ID/IDREF reference edges.
    pub ref_edges: usize,
    /// References whose target id did not exist.
    pub dangling_refs: usize,
}

/// The inferred structural summary of one document. Immutable, and valid
/// only for the document shape it was built from (callers rebuild on
/// mutation, as the resident cache in `gql-core` does).
#[derive(Debug, Clone)]
pub struct Summary {
    paths: Vec<PathNode>,
    /// All states with a given tag, in state order.
    by_tag: HashMap<String, Vec<PathId>>,
    /// Elements per tag across all paths (the postings projection).
    tag_totals: HashMap<String, u64>,
    /// Elements carrying each attribute name, across all paths.
    attr_totals: HashMap<String, u64>,
    /// Total reachable elements.
    elements: u64,
    /// Resolved ID/IDREF edges and the names that produced them.
    ref_edges: usize,
    dangling_refs: usize,
    ref_attr_names: Vec<String>,
    /// `Document::node_count()` at build time, for staleness checks.
    built_for: usize,
}

/// The virtual root state: the document node above the root element(s).
pub const ROOT_PATH: PathId = PathId(0);

impl Summary {
    /// Infer the summary with a single preorder walk plus a reference scan.
    pub fn build(doc: &Document) -> Summary {
        let elements = (doc.descendants(doc.root())).filter(|&n| doc.kind(n) == NodeKind::Element);
        Self::infer(doc, elements, &RefTable::resolve(doc), None)
    }

    /// Infer the summary over an existing [`DocIndex`]: its element list is
    /// the walk, its postings give the per-tag totals, and its resolved
    /// references the reference counts. The index must have been built for
    /// the same document shape. Allocates per path, attribute name and tag,
    /// never per element.
    pub fn from_index(doc: &Document, idx: &DocIndex) -> Summary {
        let elements = idx.elements().iter().copied();
        Self::infer(doc, elements, idx.refs(), Some(idx))
    }

    /// The walk: `elements` in document order, each one's state the
    /// transition from its parent's, keyed by tag symbol; attributes are
    /// tallied by symbol and named once per (state, attribute) at the end.
    fn infer(
        doc: &Document,
        elements: impl Iterator<Item = NodeId>,
        refs: &RefTable,
        idx: Option<&DocIndex>,
    ) -> Summary {
        let mut s = Summary {
            paths: vec![PathNode {
                tag: String::new(),
                parent: None,
                depth: 0,
                count: 1,
                text_count: 0,
                attrs: BTreeMap::new(),
                children: Vec::new(),
            }],
            by_tag: HashMap::new(),
            tag_totals: HashMap::new(),
            attr_totals: HashMap::new(),
            elements: 0,
            ref_edges: refs.edges().len(),
            dangling_refs: refs.dangling(),
            ref_attr_names: Vec::new(),
            built_for: doc.node_count(),
        };
        let has_text =
            |node: NodeId| (doc.children(node).iter()).any(|&c| doc.kind(c) == NodeKind::Text);
        // Top-level text (stray whitespace between root elements) still
        // counts as text presence at the virtual root.
        if has_text(doc.root()) {
            s.paths[0].text_count = 1;
        }
        // Each element's state, by node id: a parent's is set before its
        // children are met. The document node's is the virtual root.
        let mut state: Vec<u32> = vec![ROOT_PATH.0; doc.node_count()];
        // Transition table built on the fly: (state, child tag) → state.
        let mut trans: HashMap<(PathId, Option<Symbol>), PathId> = HashMap::new();
        let mut tally: HashMap<(PathId, Symbol), u64> = HashMap::new();
        let mut attr_totals: Vec<u64> = Vec::new();
        for node in elements {
            let at = doc
                .parent(node)
                .map_or(ROOT_PATH, |p| PathId(state[p.index()]));
            let paths = &mut s.paths;
            let pid = *trans.entry((at, doc.name_sym(node))).or_insert_with(|| {
                let pid = PathId(paths.len() as u32);
                let tag = doc.name(node).unwrap_or("");
                paths.push(PathNode {
                    tag: tag.to_string(),
                    parent: Some(at),
                    depth: paths[at.index()].depth + 1,
                    count: 0,
                    text_count: 0,
                    attrs: BTreeMap::new(),
                    children: Vec::new(),
                });
                paths[at.index()].children.push(pid);
                s.by_tag.entry(tag.to_string()).or_default().push(pid);
                pid
            });
            state[node.index()] = pid.0;
            let p = &mut s.paths[pid.index()];
            p.count += 1;
            p.text_count += u64::from(has_text(node));
            s.elements += 1;
            for sym in doc.attr_syms(node) {
                *tally.entry((pid, sym)).or_insert(0) += 1;
                if sym.index() >= attr_totals.len() {
                    attr_totals.resize(sym.index() + 1, 0);
                }
                attr_totals[sym.index()] += 1;
            }
        }
        for ((pid, sym), n) in tally {
            let name = doc.resolve_sym(sym).to_string();
            s.paths[pid.index()].attrs.insert(name, n);
        }
        for (i, &n) in attr_totals.iter().enumerate().filter(|&(_, &n)| n > 0) {
            let name = doc.resolve_sym(Symbol(i as u32));
            s.attr_totals.insert(name.to_string(), n);
        }

        // Per-tag totals: project them off the postings when an index is at
        // hand (they are already counted there), else fold the path counts.
        match idx {
            Some(idx) => {
                for (sym, n) in idx.tag_counts() {
                    s.tag_totals
                        .insert(doc.resolve_sym(sym).to_string(), n as u64);
                }
            }
            None => {
                for p in &s.paths[1..] {
                    *s.tag_totals.entry(p.tag.clone()).or_insert(0) += p.count;
                }
            }
        }

        // The reference-attribute names present, under the conventional
        // default configuration the references were resolved by.
        let cfg = crate::idref::RefConfig::default();
        for name in cfg.ref_attrs.iter().chain(cfg.refs_attrs.iter()) {
            if s.attr_totals.contains_key(name.as_str()) {
                s.ref_attr_names.push(name.clone());
            }
        }
        s
    }

    /// The virtual root state (count 1, empty tag).
    pub fn root(&self) -> PathId {
        ROOT_PATH
    }

    pub fn node(&self, p: PathId) -> &PathNode {
        &self.paths[p.index()]
    }

    /// All states, virtual root first.
    pub fn path_count(&self) -> usize {
        self.paths.len() - 1
    }

    /// All element states (excludes the virtual root), in discovery order.
    pub fn element_paths(&self) -> impl Iterator<Item = PathId> + '_ {
        (1..self.paths.len() as u32).map(PathId)
    }

    /// States whose element tag is `tag`.
    pub fn paths_with_tag(&self, tag: &str) -> &[PathId] {
        self.by_tag.get(tag).map_or(&[], Vec::as_slice)
    }

    /// Total elements named `tag` anywhere in the document.
    pub fn tag_total(&self, tag: &str) -> u64 {
        self.tag_totals.get(tag).copied().unwrap_or(0)
    }

    /// Total elements carrying an attribute named `name`.
    pub fn attr_total(&self, name: &str) -> u64 {
        self.attr_totals.get(name).copied().unwrap_or(0)
    }

    /// Total reachable elements.
    pub fn element_count(&self) -> u64 {
        self.elements
    }

    /// Every element tag occurring in the document.
    pub fn tag_names(&self) -> impl Iterator<Item = &str> {
        self.tag_totals.keys().map(String::as_str)
    }

    /// Every attribute name occurring in the document.
    pub fn attr_names(&self) -> impl Iterator<Item = &str> {
        self.attr_totals.keys().map(String::as_str)
    }

    /// Child state of `p` for tag `tag`, if the path exists.
    pub fn child_named(&self, p: PathId, tag: &str) -> Option<PathId> {
        self.paths[p.index()]
            .children
            .iter()
            .copied()
            .find(|&c| self.paths[c.index()].tag == tag)
    }

    /// All proper descendant states of `p`, in preorder.
    pub fn descendants(&self, p: PathId) -> Vec<PathId> {
        let mut out = Vec::new();
        let mut stack: Vec<PathId> = self.paths[p.index()].children.to_vec();
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend(self.paths[c.index()].children.iter().copied());
        }
        out.sort_unstable();
        out
    }

    /// Resolved ID/IDREF edges in the summarised document.
    pub fn ref_edge_count(&self) -> usize {
        self.ref_edges
    }

    /// References whose target identifier did not exist.
    pub fn dangling_ref_count(&self) -> usize {
        self.dangling_refs
    }

    /// Reference-attribute names that are present in the document.
    pub fn ref_attr_names(&self) -> &[String] {
        &self.ref_attr_names
    }

    /// Node count of the document this summary was inferred from.
    pub fn built_for(&self) -> usize {
        self.built_for
    }

    /// The `/tag/tag/...` string of a state (virtual root renders as `/`).
    pub fn path_string(&self, p: PathId) -> String {
        if p == ROOT_PATH {
            return "/".to_string();
        }
        let mut parts = Vec::new();
        let mut cur = Some(p);
        while let Some(c) = cur {
            if c == ROOT_PATH {
                break;
            }
            parts.push(self.paths[c.index()].tag.as_str());
            cur = self.paths[c.index()].parent;
        }
        parts.reverse();
        format!("/{}", parts.join("/"))
    }

    /// Size counters for profiling surfaces.
    pub fn stats(&self) -> SummaryStats {
        SummaryStats {
            paths: self.path_count(),
            max_depth: self.paths.iter().map(|p| p.depth).max().unwrap_or(0),
            elements: self.elements,
            ref_edges: self.ref_edges,
            dangling_refs: self.dangling_refs,
        }
    }

    /// Human-readable DataGuide: one line per path with its count, text
    /// presence and attributes — what `gql-analyze --explain`-style tooling
    /// prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut stack: Vec<PathId> = self.paths[0].children.iter().rev().copied().collect();
        while let Some(p) = stack.pop() {
            let n = &self.paths[p.index()];
            out.push_str(&format!("{} ×{}", self.path_string(p), n.count));
            if n.text_count > 0 {
                out.push_str(&format!(" text×{}", n.text_count));
            }
            for (a, c) in &n.attrs {
                out.push_str(&format!(" @{a}×{c}"));
            }
            out.push('\n');
            stack.extend(n.children.iter().rev().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Document {
        Document::parse_str(
            "<bib><book year='1994'><title>TCP/IP</title><author><last>S</last></author></book>\
             <book year='2000'><title>Web</title><author><last>A</last></author>\
             <author><last>B</last></author></book>\
             <article><title>GL</title></article></bib>",
        )
        .unwrap()
    }

    #[test]
    fn paths_partition_the_elements() {
        let doc = fixture();
        let s = Summary::build(&doc);
        let total: u64 = s.element_paths().map(|p| s.node(p).count).sum();
        assert_eq!(total, s.element_count());
        let idx = DocIndex::build(&doc);
        assert_eq!(total as usize, idx.element_count());
    }

    #[test]
    fn counts_and_structure_match_the_document() {
        let doc = fixture();
        let s = Summary::build(&doc);
        assert_eq!(s.tag_total("book"), 2);
        assert_eq!(s.tag_total("title"), 3);
        assert_eq!(s.tag_total("nope"), 0);
        assert_eq!(s.attr_total("year"), 2);
        // Distinct paths: /bib, /bib/book, /bib/book/title,
        // /bib/book/author, /bib/book/author/last, /bib/article,
        // /bib/article/title.
        assert_eq!(s.path_count(), 7);
        // `title` sits on two distinct paths with 2 + 1 occurrences.
        let titles = s.paths_with_tag("title");
        assert_eq!(titles.len(), 2);
        let counts: Vec<u64> = titles.iter().map(|&p| s.node(p).count).collect();
        assert_eq!(counts.iter().sum::<u64>(), 3);
        // The author path carries 3 elements (1 + 2) with no text.
        let authors = s.paths_with_tag("author");
        assert_eq!(authors.len(), 1);
        assert_eq!(s.node(authors[0]).count, 3);
        assert_eq!(s.node(authors[0]).text_count, 0);
        // Every title has direct text.
        for &t in titles {
            assert_eq!(s.node(t).count, s.node(t).text_count);
        }
    }

    #[test]
    fn path_strings_and_navigation() {
        let doc = fixture();
        let s = Summary::build(&doc);
        let bib = s.child_named(s.root(), "bib").unwrap();
        let book = s.child_named(bib, "book").unwrap();
        assert_eq!(s.path_string(book), "/bib/book");
        assert_eq!(s.path_string(s.root()), "/");
        assert_eq!(s.node(book).depth, 2);
        assert!(s.child_named(book, "article").is_none());
        // Descendants of /bib/book: title, author, author/last.
        assert_eq!(s.descendants(book).len(), 3);
        let attr = s.node(book).attrs.get("year").copied();
        assert_eq!(attr, Some(2));
    }

    #[test]
    fn from_index_agrees_with_build() {
        let doc = fixture();
        let idx = DocIndex::build(&doc);
        let a = Summary::build(&doc);
        let b = Summary::from_index(&doc, &idx);
        assert_eq!(a.path_count(), b.path_count());
        for tag in ["bib", "book", "title", "author", "last", "article"] {
            assert_eq!(a.tag_total(tag), b.tag_total(tag), "tag {tag}");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn reference_edges_are_counted() {
        let doc = Document::parse_str(
            "<g><p id='a'><link ref='b'/></p><p id='b'/><q ref='missing'/></g>",
        )
        .unwrap();
        let s = Summary::build(&doc);
        assert_eq!(s.ref_edge_count(), 1);
        assert_eq!(s.dangling_ref_count(), 1);
        assert_eq!(s.ref_attr_names(), &["ref".to_string()]);
    }

    #[test]
    fn render_lists_every_path() {
        let doc = fixture();
        let s = Summary::build(&doc);
        let text = s.render();
        assert_eq!(text.lines().count(), s.path_count());
        assert!(text.contains("/bib/book ×2 @year×2"));
        assert!(text.contains("/bib/book/title ×2 text×2"));
        assert!(text.contains("/bib/article/title ×1 text×1"));
    }

    #[test]
    fn empty_document_summarises_cleanly() {
        let doc = Document::new();
        let s = Summary::build(&doc);
        assert_eq!(s.path_count(), 0);
        assert_eq!(s.element_count(), 0);
        assert_eq!(s.stats().max_depth, 0);
        assert_eq!(s.render(), "");
    }
}
