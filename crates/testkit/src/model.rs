//! A naive reference model of [`gql_ssdm::Document`]: one heap-allocated
//! record per node, children as `Vec<usize>`, attributes as
//! `Vec<(String, String)>`, and a character-by-character XML writer. It
//! shares no code and no layout with the pooled store, so a program of
//! mutations run on both and compared after every step checks the store
//! against the semantics, not against itself.

use gql_ssdm::document::NodeKind;
use gql_ssdm::{Document, NodeId};

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
