//! A textbook document → WG-Log instance loader, the oracle
//! `gql_wglog::Instance::from_document` is held to.
//!
//! The loader it checks resolves ID/IDREF references once, in the
//! document index's preorder pass, fills pooled tables sized by a counting
//! pass, interns every name and chains every adjacency list through its
//! edge table. This one does none of that. It follows the mapping as the
//! instance module states it, by recursion over the tree, into owned
//! `String`s:
//!
//! - the root element, and every element below it with an attribute or an
//!   element child, is an object typed by its tag, numbered in document
//!   order;
//! - an object's attributes are its element's attributes in order, then
//!   its own text (its text children joined and trimmed) as `text` unless
//!   that is blank, then each text-only child element as an attribute
//!   named by its tag with its trimmed text;
//! - each object below the root gets an edge from its parent's object,
//!   labelled by its tag, once its own subtree is loaded;
//! - then the references, as `idref`, `ref`, `idrefs` and `refs` name them
//!   (the first two one trimmed id each, the last two a whitespace-separated
//!   list): per referring element in document order, each target once, to
//!   the first element in document order whose `id` is the token, labelled
//!   by the first of those attributes in the element's own order with a
//!   token naming the target, else `ref`. A token naming no element is
//!   dropped, and an edge equal to one already there is not added again.
//!
//! From `gql_wglog` it takes only the instance's read API, to compare.

use std::collections::HashMap;

use gql_ssdm::document::NodeKind;
use gql_ssdm::value::{is_xml_space, xml_words};
use gql_ssdm::{Document, NodeId};
use gql_wglog::Instance;

/// One loaded object: its type and its attributes, in order.
pub type Object = (String, Vec<(String, String)>);

/// One loaded edge: source object, label, target object.
pub type Edge = (usize, String, usize);

/// What a document loads to: its objects and its edges, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Loaded {
    pub objects: Vec<Object>,
    pub edges: Vec<Edge>,
}

/// The reference attributes, in the order a referring element's are
/// resolved; the first two hold one id each.
const REFERENCES: [&str; 4] = ["idref", "ref", "idrefs", "refs"];

fn is_atomic(doc: &Document, node: NodeId) -> bool {
    doc.attrs(node).next().is_none()
        && (doc.children(node).iter()).all(|&c| doc.kind(c) != NodeKind::Element)
}

/// An element's text children, joined.
fn own_text(doc: &Document, node: NodeId) -> String {
    let mut text = String::new();
    for &c in doc.children(node) {
        if doc.kind(c) == NodeKind::Text {
            text.push_str(doc.text(c).unwrap_or(""));
        }
    }
    text
}

fn tag(doc: &Document, node: NodeId) -> String {
    doc.name(node).unwrap_or("object").to_string()
}

/// Load `doc` by the mapping in the module docs.
pub fn load(doc: &Document) -> Loaded {
    let mut loaded = Loaded::default();
    let mut object_of: HashMap<NodeId, usize> = HashMap::new();
    if let Some(root) = doc.root_element() {
        load_element(doc, root, None, &mut loaded, &mut object_of);
    }
    // The first element in document order carrying each id.
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut order = Vec::new();
    preorder(doc, doc.root(), &mut order);
    for &n in &order {
        if let Some(id) = doc.attr(n, "id") {
            ids.entry(id.to_string()).or_insert(n);
        }
    }
    for &n in &order {
        let Some(&from) = object_of.get(&n) else {
            continue;
        };
        let mut targets: Vec<NodeId> = Vec::new();
        for (i, name) in REFERENCES.iter().enumerate() {
            let Some(value) = doc.attr(n, name) else {
                continue;
            };
            let tokens: Vec<&str> = match i < 2 {
                true => vec![value.trim_matches(is_xml_space)],
                false => xml_words(value).collect(),
            };
            for token in tokens {
                if let Some(&t) = ids.get(token) {
                    if !targets.contains(&t) {
                        targets.push(t);
                    }
                }
            }
        }
        for t in targets {
            let Some(&to) = object_of.get(&t) else {
                continue;
            };
            let label = doc
                .attrs(n)
                .filter(|(name, _)| REFERENCES.contains(name))
                .find(|(_, value)| xml_words(value).any(|tok| ids.get(tok) == Some(&t)))
                .map_or("ref", |(name, _)| name)
                .to_string();
            let edge = (from, label, to);
            if !loaded.edges.contains(&edge) {
                loaded.edges.push(edge);
            }
        }
    }
    loaded
}

fn preorder(doc: &Document, node: NodeId, out: &mut Vec<NodeId>) {
    if doc.kind(node) == NodeKind::Element {
        out.push(node);
    }
    for &c in doc.children(node) {
        preorder(doc, c, out);
    }
}

/// Load the object of `node` and the objects below it, then its edge from
/// `parent`'s object.
fn load_element(
    doc: &Document,
    node: NodeId,
    parent: Option<usize>,
    loaded: &mut Loaded,
    object_of: &mut HashMap<NodeId, usize>,
) {
    let me = loaded.objects.len();
    object_of.insert(node, me);
    let mut attrs: Vec<(String, String)> = (doc.attrs(node))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let text = own_text(doc, node);
    if !text.trim().is_empty() {
        attrs.push(("text".to_string(), text.trim().to_string()));
    }
    let elements: Vec<NodeId> = (doc.children(node).iter())
        .copied()
        .filter(|&c| doc.kind(c) == NodeKind::Element)
        .collect();
    for &c in &elements {
        if is_atomic(doc, c) {
            attrs.push((tag(doc, c), own_text(doc, c).trim().to_string()));
        }
    }
    loaded.objects.push((tag(doc, node), attrs));
    for &c in &elements {
        if !is_atomic(doc, c) {
            load_element(doc, c, Some(me), loaded, object_of);
        }
    }
    if let Some(parent) = parent {
        loaded.edges.push((parent, tag(doc, node), me));
    }
}

/// What `db` holds, read through its public API in the same shape.
pub fn read(db: &Instance) -> Loaded {
    Loaded {
        objects: (db.objects())
            .map(|(_, o)| {
                let attrs = o.attrs().map(|(k, v)| (k.to_string(), v.to_string()));
                (o.ty().to_string(), attrs.collect())
            })
            .collect(),
        edges: (db.edges())
            .map(|e| (e.from.index(), e.label.to_string(), e.to.index()))
            .collect(),
    }
}

/// `Instance::from_document(doc)` against [`load`]: object for object and
/// edge for edge, in order. The error names the first difference.
pub fn check(doc: &Document) -> Result<(), String> {
    let (want, got) = (load(doc), read(&Instance::from_document(doc)));
    if let Some(i) = (0..want.objects.len().max(got.objects.len()))
        .find(|&i| want.objects.get(i) != got.objects.get(i))
    {
        return Err(format!(
            "object {i}: reference {:?}, loader {:?}",
            want.objects.get(i),
            got.objects.get(i)
        ));
    }
    if let Some(i) =
        (0..want.edges.len().max(got.edges.len())).find(|&i| want.edges.get(i) != got.edges.get(i))
    {
        return Err(format!(
            "edge {i}: reference {:?}, loader {:?}",
            want.edges.get(i),
            got.edges.get(i)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference-graph shapes, each against the loader: a cycle of
    /// references, a repeated token, a dangling one and a self reference,
    /// two attributes naming one target, and atomic children folded into
    /// attributes.
    #[test]
    fn the_loader_agrees_on_reference_graph_shapes() {
        let doc = Document::parse_str(
            "<db><p id='p1' ref='p2'><name> A </name></p><p id='p2' refs='p1 p1 ghost'/>\
             <p id='p3' ref='p3'>  own <b>x</b> text </p>\
             <v refs='p2 p3' ref='p3' idrefs='p1'><n/></v><p id='p1' k='dup'/></db>",
        )
        .unwrap();
        check(&doc).unwrap();
        let loaded = load(&doc);
        let v = loaded.objects.iter().position(|(t, _)| t == "v").unwrap();
        let from_v: Vec<(&str, usize)> = (loaded.edges.iter())
            .filter(|e| e.0 == v)
            .map(|e| (e.1.as_str(), e.2))
            .collect();
        // `ref='p3'` resolves first, but `refs` names p3 earlier in the
        // element's own attribute order.
        assert_eq!(from_v, [("refs", 3), ("idrefs", 1), ("refs", 2)]);
        let p1 = [("id", "p1"), ("ref", "p2"), ("name", "A")];
        let p1: Vec<(String, String)> = (p1.iter())
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(loaded.objects[1].1, p1);
    }
}
