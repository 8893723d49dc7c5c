//! ID/IDREF reference resolution — the edges that turn the document tree
//! into a graph.
//!
//! The paper's languages treat semi-structured data as a *graph*: trees plus
//! reference edges established by ID/IDREF attribute pairs. This module
//! scans a document for such pairs and materialises a [`RefGraph`] — the
//! structure WG-Log's instance loader and XML-GL's join evaluation consume.
//!
//! Which attributes act as IDs and which as references is configurable
//! ([`RefConfig`]); the default recognises the conventional attribute names
//! (`id`; `idref`, `idrefs`, `ref`) and any DTD declarations when provided.
//!
//! Under the default configuration the references are resolved once per
//! document, into a [`RefTable`]: [`DocIndex::build`](crate::DocIndex::build)
//! collects the id and reference carriers in its preorder pass by attribute
//! symbol and keeps the table, which the summary, WG-Log's loader and
//! XPath's `id()` read. [`RefGraph`] is the owned, configurable form.

use std::collections::HashMap;

use crate::arena::Symbol;
use crate::document::{Document, NodeKind};
use crate::dtd::{AttType, Dtd};
use crate::index::hash_str;
use crate::value::{is_xml_space, xml_words};
use crate::NodeId;

/// Configuration for reference-edge extraction.
#[derive(Debug, Clone)]
pub struct RefConfig {
    /// Attribute names treated as node identifiers.
    pub id_attrs: Vec<String>,
    /// Attribute names treated as single references.
    pub ref_attrs: Vec<String>,
    /// Attribute names treated as whitespace-separated reference lists.
    pub refs_attrs: Vec<String>,
}

impl Default for RefConfig {
    fn default() -> Self {
        RefConfig {
            id_attrs: vec!["id".into()],
            ref_attrs: vec!["idref".into(), "ref".into()],
            refs_attrs: vec!["idrefs".into(), "refs".into()],
        }
    }
}

impl RefConfig {
    /// Derive a configuration from DTD attribute declarations: every
    /// ID-typed attribute becomes an id attribute, and so on. Falls back to
    /// nothing — combine with [`RefConfig::default`] via [`RefConfig::merge`]
    /// if conventional names should also apply.
    pub fn from_dtd(dtd: &Dtd) -> Self {
        let mut cfg = RefConfig {
            id_attrs: vec![],
            ref_attrs: vec![],
            refs_attrs: vec![],
        };
        for elem in dtd.element_names() {
            for decl in dtd.attrs_of(elem) {
                let bucket = match decl.ty {
                    AttType::Id => &mut cfg.id_attrs,
                    AttType::Idref => &mut cfg.ref_attrs,
                    AttType::Idrefs => &mut cfg.refs_attrs,
                    _ => continue,
                };
                if !bucket.contains(&decl.name) {
                    bucket.push(decl.name.clone());
                }
            }
        }
        cfg
    }

    /// Union two configurations.
    pub fn merge(mut self, other: &RefConfig) -> Self {
        for (mine, theirs) in [
            (&mut self.id_attrs, &other.id_attrs),
            (&mut self.ref_attrs, &other.ref_attrs),
            (&mut self.refs_attrs, &other.refs_attrs),
        ] {
            for a in theirs {
                if !mine.contains(a) {
                    mine.push(a.clone());
                }
            }
        }
        self
    }
}

/// One resolved reference edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefEdge {
    /// The element carrying the reference attribute.
    pub from: NodeId,
    /// The element whose id attribute matched.
    pub to: NodeId,
}

/// The reference graph extracted from a document.
#[derive(Debug, Clone, Default)]
pub struct RefGraph {
    /// Identifier value → node carrying it.
    ids: HashMap<String, NodeId>,
    /// All resolved edges.
    edges: Vec<RefEdge>,
    /// Outgoing adjacency.
    out: HashMap<NodeId, Vec<NodeId>>,
    /// Incoming adjacency.
    incoming: HashMap<NodeId, Vec<NodeId>>,
    /// References whose target id did not exist.
    dangling: Vec<(NodeId, String)>,
}

impl RefGraph {
    /// Extract the reference graph using the default configuration.
    pub fn extract(doc: &Document) -> Self {
        Self::extract_with(doc, &RefConfig::default())
    }

    /// Extract with an explicit configuration.
    pub fn extract_with(doc: &Document, cfg: &RefConfig) -> Self {
        let mut g = RefGraph::default();
        // Pass 1: ids.
        for n in doc.descendants(doc.root()) {
            if doc.kind(n) != NodeKind::Element {
                continue;
            }
            for id_attr in &cfg.id_attrs {
                if let Some(v) = doc.attr(n, id_attr) {
                    // First declaration wins, matching XML ID semantics where
                    // duplicates are validity errors surfaced by the DTD layer.
                    g.ids.entry(v.to_string()).or_insert(n);
                }
            }
        }
        // Pass 2: references.
        for n in doc.descendants(doc.root()) {
            if doc.kind(n) != NodeKind::Element {
                continue;
            }
            for ref_attr in &cfg.ref_attrs {
                if let Some(v) = doc.attr(n, ref_attr) {
                    g.add_ref(n, v.trim_matches(is_xml_space));
                }
            }
            for refs_attr in &cfg.refs_attrs {
                if let Some(v) = doc.attr(n, refs_attr) {
                    for tok in xml_words(v) {
                        g.add_ref(n, tok);
                    }
                }
            }
        }
        g
    }

    fn add_ref(&mut self, from: NodeId, target: &str) {
        match self.ids.get(target) {
            Some(&to) => {
                // Repeated tokens (`refs="p1 p1"`) denote one edge. A node's
                // references are all resolved together, so its own targets
                // are the only ones to look through.
                if self.targets(from).contains(&to) {
                    return;
                }
                self.edges.push(RefEdge { from, to });
                self.out.entry(from).or_default().push(to);
                self.incoming.entry(to).or_default().push(from);
            }
            None => self.dangling.push((from, target.to_string())),
        }
    }

    /// Node carrying a given identifier value.
    pub fn node_by_id(&self, id: &str) -> Option<NodeId> {
        self.ids.get(id).copied()
    }

    /// All resolved edges.
    pub fn edges(&self) -> &[RefEdge] {
        &self.edges
    }

    /// Targets referenced from `node`.
    pub fn targets(&self, node: NodeId) -> &[NodeId] {
        self.out.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Nodes referencing `node`.
    pub fn referrers(&self, node: NodeId) -> &[NodeId] {
        self.incoming.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Unresolved references (source node, missing id).
    pub fn dangling(&self) -> &[(NodeId, String)] {
        &self.dangling
    }

    /// Number of distinct identified nodes.
    pub fn id_count(&self) -> usize {
        self.ids.len()
    }
}

/// The default configuration's names as one document's symbols, so that a
/// resolution pass compares integers, never strings. A name the document
/// never interned is `None` and matches nothing.
#[derive(Debug, Clone, Copy)]
struct RefSyms {
    id: Option<Symbol>,
    /// `idref`, `ref`, `idrefs`, `refs`: [`RefConfig::default`]'s order, the
    /// two single references first.
    refs: [Option<Symbol>; 4],
}

impl RefSyms {
    fn of(doc: &Document) -> RefSyms {
        RefSyms {
            id: doc.lookup_sym("id"),
            refs: ["idref", "ref", "idrefs", "refs"].map(|name| doc.lookup_sym(name)),
        }
    }
}

/// A document's ID/IDREF references resolved once under the default
/// configuration: what [`RefGraph::extract`] finds, as flat tables. Edges
/// come in [`RefGraph::edges`]' order: sources in document order, each
/// source's in configuration order, a repeated target once. Built by
/// [`DocIndex::build`](crate::DocIndex::build) (or [`RefTable::resolve`]),
/// for the document as it was then.
#[derive(Debug, Clone, Default)]
pub struct RefTable {
    /// Every element carrying an `id`, in document order.
    carriers: Vec<NodeId>,
    /// (hash of the `id` value, slot in `carriers`), ordered by hash and,
    /// among equal hashes, in document order.
    ids: Vec<(u64, u32)>,
    id_sym: Option<Symbol>,
    edges: Vec<RefEdge>,
    /// Reference tokens that named no id.
    dangling: usize,
}

impl RefTable {
    /// Resolve `doc`'s references in a walk of its own.
    pub fn resolve(doc: &Document) -> RefTable {
        let mut pass = RefPass::new(doc, |_| 0);
        for n in doc.descendants(doc.root()) {
            if doc.kind(n) == NodeKind::Element {
                pass.visit(doc, n);
            }
        }
        pass.finish(doc)
    }

    /// The element whose `id` is `id`, the first in document order when
    /// several are: [`RefGraph::node_by_id`]'s answer. A binary search over
    /// the hashes, each candidate checked against `doc`.
    pub fn node_by_id(&self, doc: &Document, id: &str) -> Option<NodeId> {
        let (h, sym) = (hash_str(id), self.id_sym?);
        let from = self.ids.partition_point(|&(k, _)| k < h);
        (self.ids[from..].iter())
            .take_while(|&&(k, _)| k == h)
            .map(|&(_, slot)| self.carriers[slot as usize])
            .find(|&n| doc.attr_sym(n, sym) == Some(id))
    }

    /// All resolved edges, in [`RefGraph::edges`]' order.
    pub fn edges(&self) -> &[RefEdge] {
        &self.edges
    }

    /// How many reference tokens named no id.
    pub fn dangling(&self) -> usize {
        self.dangling
    }

    /// Fold the table into `mix`, for an index checksum.
    pub(crate) fn checksum(&self, mut mix: impl FnMut(u64)) {
        mix(self.ids.len() as u64);
        for &(h, slot) in &self.ids {
            mix(h ^ u64::from(slot));
        }
        for n in &self.carriers {
            mix(n.index() as u64);
        }
        mix(self.edges.len() as u64);
        for e in &self.edges {
            mix(((e.from.index() as u64) << 32) | e.to.index() as u64);
        }
        mix(self.dangling as u64);
    }
}

/// One resolution: fed every element in document order, it keeps those
/// carrying an id or a reference, and resolves the references at the end
/// (a reference may name an id further on).
pub(crate) struct RefPass {
    syms: RefSyms,
    carriers: Vec<NodeId>,
    ids: Vec<(u64, u32)>,
    sources: Vec<NodeId>,
}

impl RefPass {
    /// A pass whose tables are sized by `count`: how many elements carry
    /// an attribute of a given symbol (a hint; 0 when unknown).
    pub(crate) fn new(doc: &Document, count: impl Fn(Option<Symbol>) -> usize) -> RefPass {
        let syms = RefSyms::of(doc);
        let ids = count(syms.id);
        RefPass {
            syms,
            carriers: Vec::with_capacity(ids),
            ids: Vec::with_capacity(ids),
            sources: Vec::with_capacity(syms.refs.into_iter().map(count).sum()),
        }
    }

    /// Note one element, met in document order: one look at each of its
    /// attribute symbols.
    pub(crate) fn visit(&mut self, doc: &Document, node: NodeId) {
        let RefSyms { id, refs } = self.syms;
        let (mut has_id, mut refers) = (false, false);
        for sym in doc.attr_syms(node) {
            if !has_id && Some(sym) == id {
                has_id = true;
                let value = doc.attr_sym(node, sym).unwrap_or("");
                let slot = self.carriers.len() as u32;
                self.carriers.push(node);
                self.ids.push((hash_str(value), slot));
            }
            refers |= refs.contains(&Some(sym));
        }
        if refers {
            self.sources.push(node);
        }
    }

    pub(crate) fn finish(self, doc: &Document) -> RefTable {
        let RefPass {
            syms,
            carriers,
            mut ids,
            sources,
        } = self;
        // Equal hashes stay in document order, so the first id wins.
        ids.sort_unstable();
        let mut table = RefTable {
            carriers,
            ids,
            id_sym: syms.id,
            edges: Vec::with_capacity(sources.len()),
            dangling: 0,
        };
        // The last source each target was reached from, plus one: a
        // repeated target is one probe, not a search of the edges.
        let mut reached = vec![
            0u32;
            if sources.is_empty() {
                0
            } else {
                doc.node_count()
            }
        ];
        for (k, &from) in sources.iter().enumerate() {
            let stamp = k as u32 + 1;
            for (i, sym) in syms.refs.iter().enumerate() {
                let Some(value) = sym.and_then(|sym| doc.attr_sym(from, sym)) else {
                    continue;
                };
                let mut resolve = |token: &str| match table.node_by_id(doc, token) {
                    Some(to) if reached[to.index()] != stamp => {
                        reached[to.index()] = stamp;
                        table.edges.push(RefEdge { from, to });
                    }
                    Some(_) => {}
                    None => table.dangling += 1,
                };
                // A single reference is its whole value, trimmed of XML
                // whitespace; a list is split on it.
                if i < 2 {
                    resolve(value.trim_matches(is_xml_space));
                } else {
                    xml_words(value).for_each(resolve);
                }
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse_str(
            "<db>\
               <product id='p1' vendor='x'/>\
               <product id='p2'/>\
               <vendor id='v1' refs='p1 p2'/>\
               <order ref='p1'/>\
               <order ref='ghost'/>\
             </db>",
        )
        .unwrap()
    }

    #[test]
    fn extracts_ids_and_edges() {
        let d = doc();
        let g = RefGraph::extract(&d);
        assert_eq!(g.id_count(), 3);
        let p1 = g.node_by_id("p1").unwrap();
        let v1 = g.node_by_id("v1").unwrap();
        assert_eq!(d.name(p1), Some("product"));
        assert_eq!(g.targets(v1).len(), 2);
        assert_eq!(g.referrers(p1).len(), 2); // vendor + first order
    }

    #[test]
    fn dangling_references_reported() {
        let d = doc();
        let g = RefGraph::extract(&d);
        assert_eq!(g.dangling().len(), 1);
        assert_eq!(g.dangling()[0].1, "ghost");
    }

    #[test]
    fn custom_config() {
        let d = Document::parse_str("<db><a key='k1'/><b points-to='k1'/></db>").unwrap();
        let cfg = RefConfig {
            id_attrs: vec!["key".into()],
            ref_attrs: vec!["points-to".into()],
            refs_attrs: vec![],
        };
        let g = RefGraph::extract_with(&d, &cfg);
        assert_eq!(g.edges().len(), 1);
        assert_eq!(d.name(g.edges()[0].to), Some("a"));
    }

    #[test]
    fn config_from_dtd() {
        let dtd = Dtd::parse(
            "<!ELEMENT a EMPTY><!ATTLIST a key ID #REQUIRED>\
             <!ELEMENT b EMPTY><!ATTLIST b tgt IDREF #IMPLIED many IDREFS #IMPLIED>",
        )
        .unwrap();
        let cfg = RefConfig::from_dtd(&dtd);
        assert_eq!(cfg.id_attrs, vec!["key"]);
        assert_eq!(cfg.ref_attrs, vec!["tgt"]);
        assert_eq!(cfg.refs_attrs, vec!["many"]);
        let merged = cfg.merge(&RefConfig::default());
        assert!(merged.id_attrs.contains(&"id".to_string()));
    }

    #[test]
    fn empty_document_yields_empty_graph() {
        let d = Document::parse_str("<empty/>").unwrap();
        let g = RefGraph::extract(&d);
        assert_eq!(g.id_count(), 0);
        assert!(g.edges().is_empty());
        assert!(g.dangling().is_empty());
    }

    #[test]
    fn repeated_reference_tokens_are_one_edge() {
        let d = Document::parse_str("<db><p id='p1'/><v refs='p1 p1' ref='p1'/></db>").unwrap();
        let g = RefGraph::extract(&d);
        assert_eq!(g.edges().len(), 1);
        let v = g.edges()[0].from;
        assert_eq!(g.targets(v).len(), 1);
    }

    /// The resolved table finds what the owned graph does, in its order:
    /// edges, dangling tokens and every id lookup, over random documents
    /// with repeated ids, cycles, repeated, padded and dangling tokens.
    #[test]
    fn the_table_resolves_what_the_graph_does() {
        use crate::rng::Rng;
        const NAMES: [&str; 5] = ["id", "ref", "idref", "refs", "idrefs"];
        for seed in 0..300 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut doc = Document::new();
            let top = doc.add_element(doc.root(), "db");
            let mut elements = vec![top];
            for _ in 0..rng.gen_range(0..25) {
                let parent = elements[rng.gen_range(0..elements.len())];
                elements.push(doc.add_element(parent, "e"));
            }
            for &el in &elements {
                for name in NAMES {
                    if rng.gen_bool(0.3) {
                        let tokens: Vec<String> = (0..rng.gen_range(0..4))
                            .map(|_| format!("i{}", rng.gen_range(0..6)))
                            .collect();
                        let value = format!(" {} ", tokens.join("  "));
                        let value = match name {
                            "id" => value.trim_matches(is_xml_space),
                            _ => &value,
                        };
                        doc.set_attr(el, name, value).unwrap();
                    }
                }
            }
            let (graph, idx) = (RefGraph::extract(&doc), crate::DocIndex::build(&doc));
            let table = idx.refs();
            assert_eq!(table.edges(), graph.edges(), "seed {seed}");
            assert_eq!(table.dangling(), graph.dangling().len(), "seed {seed}");
            for i in 0..6 {
                let id = format!("i{i}");
                assert_eq!(table.node_by_id(&doc, &id), graph.node_by_id(&id), "{id}");
            }
            assert!(idx.is_intact());
            let standalone = RefTable::resolve(&doc);
            assert_eq!(standalone.edges(), table.edges());
        }
    }

    #[test]
    fn duplicate_ids_first_wins() {
        let d =
            Document::parse_str("<db><a id='x' n='1'/><b id='x' n='2'/><c ref='x'/></db>").unwrap();
        let g = RefGraph::extract(&d);
        let target = g.node_by_id("x").unwrap();
        assert_eq!(d.name(target), Some("a"));
        assert_eq!(g.edges().len(), 1);
    }
}
