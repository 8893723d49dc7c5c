//! Naive reference models that the model-based property tests run beside
//! the real thing: [`DocModel`] for the pooled document store, and
//! [`TraceModel`] for the flat trace record.
//!
//! [`DocModel`] mirrors [`gql_ssdm::Document`]: one heap-allocated record
//! per node, children as `Vec<usize>`, attributes as
//! `Vec<(String, String)>`, and a character-by-character XML writer. It
//! shares no code and no layout with the pooled store, so a program of
//! mutations run on both and compared after every step checks the store
//! against the semantics, not against itself.

use gql_ssdm::document::NodeKind;
use gql_ssdm::{Document, NodeId};
use gql_trace::{ExecutionProfile, ProfileNode};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelNode {
    pub kind: NodeKind,
    /// Element tag or PI target.
    pub name: Option<String>,
    /// Text / comment content or PI data.
    pub text: Option<String>,
    pub parent: Option<usize>,
    pub children: Vec<usize>,
    pub attrs: Vec<(String, String)>,
}

/// Node `i` of the model stands for `NodeId::from_index(i)` of the document
/// it mirrors. Mutators return `None` where the document returns `Err`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocModel {
    pub nodes: Vec<ModelNode>,
}

impl Default for DocModel {
    fn default() -> Self {
        let mut model = DocModel { nodes: Vec::new() };
        model.create(NodeKind::Document, None, None);
        model
    }
}

impl DocModel {
    /// The model of an existing document, detached nodes included.
    pub fn of(doc: &Document) -> DocModel {
        let nodes = (0..doc.node_count())
            .map(NodeId::from_index)
            .map(|n| ModelNode {
                kind: doc.kind(n),
                name: doc.name(n).map(str::to_string),
                text: doc.text(n).map(str::to_string),
                parent: doc.parent(n).map(NodeId::index),
                children: doc.children(n).iter().map(|c| c.index()).collect(),
                attrs: doc
                    .attrs(n)
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            })
            .collect();
        DocModel { nodes }
    }

    /// A detached node; `name` and `text` as the kind calls for.
    pub fn create(&mut self, kind: NodeKind, name: Option<&str>, text: Option<&str>) -> usize {
        self.nodes.push(ModelNode {
            kind,
            name: name.map(str::to_string),
            text: text.map(str::to_string),
            parent: None,
            children: Vec::new(),
            attrs: Vec::new(),
        });
        self.nodes.len() - 1
    }

    pub fn append_child(&mut self, parent: usize, child: usize) -> Option<()> {
        let in_range = parent < self.nodes.len() && child < self.nodes.len();
        if !in_range || child == 0 || self.nodes[child].parent.is_some() {
            return None;
        }
        if !matches!(
            self.nodes[parent].kind,
            NodeKind::Document | NodeKind::Element
        ) {
            return None;
        }
        let mut up = Some(parent);
        while let Some(n) = up {
            if n == child {
                return None;
            }
            up = self.nodes[n].parent;
        }
        self.nodes[child].parent = Some(parent);
        self.nodes[parent].children.push(child);
        Some(())
    }

    pub fn detach(&mut self, node: usize) -> Option<()> {
        if node == 0 || node >= self.nodes.len() {
            return None;
        }
        if let Some(p) = self.nodes[node].parent.take() {
            self.nodes[p].children.retain(|&c| c != node);
        }
        Some(())
    }

    pub fn set_attr(&mut self, node: usize, name: &str, value: &str) -> Option<()> {
        let n = self.nodes.get_mut(node)?;
        if n.kind != NodeKind::Element {
            return None;
        }
        match n.attrs.iter_mut().find(|(k, _)| k == name) {
            Some(slot) => slot.1 = value.to_string(),
            None => n.attrs.push((name.to_string(), value.to_string())),
        }
        Some(())
    }

    /// Whether the attribute was there.
    pub fn remove_attr(&mut self, node: usize, name: &str) -> Option<bool> {
        let n = self.nodes.get_mut(node)?;
        let before = n.attrs.len();
        n.attrs.retain(|(k, _)| k != name);
        Some(n.attrs.len() != before)
    }

    /// Deep copy in pre-order; a document node arrives as a `document`
    /// element holding its children.
    pub fn import_subtree(&mut self, src: &DocModel, node: usize) -> usize {
        let from = &src.nodes[node];
        let new = match from.kind {
            NodeKind::Document => self.create(NodeKind::Element, Some("document"), None),
            kind => self.create(kind, from.name.as_deref(), from.text.as_deref()),
        };
        self.nodes[new].attrs = from.attrs.clone();
        for &c in &from.children {
            let copy = self.import_subtree(src, c);
            self.nodes[copy].parent = Some(new);
            self.nodes[new].children.push(copy);
        }
        new
    }

    /// Pre-order position of every node; `u32::MAX` for detached ones.
    pub fn order_keys(&self) -> Vec<u32> {
        fn visit(model: &DocModel, node: usize, next: &mut u32, keys: &mut [u32]) {
            keys[node] = *next;
            *next += 1;
            for &c in &model.nodes[node].children {
                visit(model, c, next, keys);
            }
        }
        let mut keys = vec![u32::MAX; self.nodes.len()];
        visit(self, 0, &mut 0, &mut keys);
        keys
    }

    /// Compact XML, one character at a time.
    pub fn to_xml(&self) -> String {
        fn escaped(s: &str, quote: bool, out: &mut String) {
            for c in s.chars() {
                match c {
                    '<' => out.push_str("&lt;"),
                    '&' => out.push_str("&amp;"),
                    '>' if !quote => out.push_str("&gt;"),
                    '"' if quote => out.push_str("&quot;"),
                    c => out.push(c),
                }
            }
        }
        fn write(model: &DocModel, node: usize, out: &mut String) {
            let n = &model.nodes[node];
            let (name, text) = (
                n.name.as_deref().unwrap_or(""),
                n.text.as_deref().unwrap_or(""),
            );
            match n.kind {
                NodeKind::Text => escaped(text, false, out),
                NodeKind::Comment => *out += &format!("<!--{text}-->"),
                NodeKind::Pi if text.is_empty() => *out += &format!("<?{name}?>"),
                NodeKind::Pi => *out += &format!("<?{name} {text}?>"),
                NodeKind::Document | NodeKind::Element => {
                    if n.kind == NodeKind::Element {
                        *out += &format!("<{name}");
                        for (k, v) in &n.attrs {
                            *out += &format!(" {k}=\"");
                            escaped(v, true, out);
                            out.push('"');
                        }
                        out.push_str(if n.children.is_empty() { "/>" } else { ">" });
                    }
                    for &c in &n.children {
                        write(model, c, out);
                    }
                    if n.kind == NodeKind::Element && !n.children.is_empty() {
                        *out += &format!("</{name}>");
                    }
                }
            }
        }
        let mut out = String::new();
        write(self, 0, &mut out);
        out
    }

    /// Panic unless `doc` is this model, node for node, and prints as it
    /// does.
    pub fn assert_matches(&self, doc: &Document) {
        assert_eq!(DocModel::of(doc), *self);
        let keys: Vec<u32> = (0..doc.node_count())
            .map(|i| doc.order_key(NodeId::from_index(i)))
            .collect();
        assert_eq!(keys, self.order_keys());
        assert_eq!(doc.to_xml_string(), self.to_xml());
    }
}

/// One span of a [`TraceModel`] while its tree is under construction.
#[derive(Debug, Default)]
struct ModelSpan {
    name: String,
    closed: bool,
    counters: Vec<(String, u64)>,
    notes: Vec<(String, String)>,
    children: Vec<usize>,
}

/// The tree-building trace sink `gql-trace` had before its flat record,
/// kept as the record's reference semantics: a `String` per name, a node
/// per span linked into its parent as it opens, counters summed and notes
/// overwritten as they arrive. It keeps no time; `closed` says which spans
/// a real trace must have given a duration.
#[derive(Debug, Default)]
pub struct TraceModel {
    spans: Vec<ModelSpan>,
    stack: Vec<usize>,
    roots: Vec<usize>,
    /// Counters/notes reported outside any span, surfaced as a synthetic
    /// `(toplevel)` root if non-empty.
    loose: ModelSpan,
}

impl TraceModel {
    /// A span opens; the token goes back to [`TraceModel::span_end`].
    pub fn span_start(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(ModelSpan {
            name: name.to_string(),
            ..ModelSpan::default()
        });
        match self.stack.last() {
            Some(&parent) => self.spans[parent].children.push(id),
            None => self.roots.push(id),
        }
        self.stack.push(id);
        id
    }

    /// Pop until the matching span is closed, so a leaked guard cannot
    /// corrupt deeper nesting; a span no longer open unwinds everything.
    pub fn span_end(&mut self, token: usize) {
        while let Some(top) = self.stack.pop() {
            if top == token {
                self.spans[top].closed = true;
                return;
            }
        }
    }

    fn innermost(&mut self) -> &mut ModelSpan {
        match self.stack.last() {
            Some(&top) => &mut self.spans[top],
            None => &mut self.loose,
        }
    }

    pub fn count(&mut self, name: &str, delta: u64) {
        let counters = &mut self.innermost().counters;
        match counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => counters.push((name.to_string(), delta)),
        }
    }

    pub fn note(&mut self, name: &str, value: &str) {
        let notes = &mut self.innermost().notes;
        match notes.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value.to_string(),
            None => notes.push((name.to_string(), value.to_string())),
        }
    }

    fn build_node(&self, id: usize) -> ProfileNode {
        let span = &self.spans[id];
        ProfileNode {
            name: span.name.clone(),
            // The model's only notion of time: one tick once closed.
            nanos: u128::from(span.closed),
            counters: span.counters.clone(),
            notes: span.notes.clone(),
            children: span.children.iter().map(|&c| self.build_node(c)).collect(),
        }
    }

    /// The finished tree; `nanos` is 1 for a span closed while open and 0
    /// for one left open or closed too late.
    pub fn profile(&self) -> ExecutionProfile {
        let mut roots: Vec<ProfileNode> = self.roots.iter().map(|&r| self.build_node(r)).collect();
        if !self.loose.counters.is_empty() || !self.loose.notes.is_empty() {
            roots.push(ProfileNode {
                name: "(toplevel)".to_string(),
                nanos: 0,
                counters: self.loose.counters.clone(),
                notes: self.loose.notes.clone(),
                children: Vec::new(),
            });
        }
        ExecutionProfile { roots }
    }
}
