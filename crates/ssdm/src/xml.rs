//! XML subset parser and serializer.
//!
//! Supports the slice of XML the semi-structured data model needs: elements,
//! attributes (single- or double-quoted), text, comments, processing
//! instructions, CDATA sections, the five predefined entities plus numeric
//! character references, and an (ignored) XML declaration / DOCTYPE.
//! Not supported: namespaces-as-semantics (prefixed names are kept verbatim
//! as plain names), external entities, and parameter entities.
//!
//! [`parse`] reads no bytes itself: it builds a [`Document`] from the tokens
//! of the crate's one XML reader, the same tokens [`crate::stream`] turns
//! into events, so the two accept the same texts and word their refusals
//! alike by construction. Two policies are this consumer's own: character
//! data that is all whitespace is dropped — the engines operate on
//! data-oriented documents where such nodes are formatting noise — while a
//! CDATA section is kept verbatim, whitespace or not.

use crate::document::{Document, NodeKind};
use crate::error::Result;
use crate::sink::{Sink, XmlSink};
use crate::token::{Token, Tokenizer};
use crate::NodeId;

/// Deepest element nesting the reader accepts; a text that nests further is
/// refused with a positioned error naming this bound, by [`parse`] and
/// [`crate::stream::EventReader`] alike. Neither the reader nor anything on
/// the way to an answer's bytes recurses ([`write()`], the sinks,
/// [`Document::text_content`], [`Document::import_subtree`]), compares
/// subtrees ([`crate::index::subtree_eq`]) or loads the WG-Log instance;
/// `tests/end_to_end.rs` runs a document at the bound through every layer,
/// and one built forty times deeper through those, on a 2 MiB stack (what
/// `gql-serve`'s connection and worker threads get). libxml2's default is
/// 256.
pub const MAX_DEPTH: usize = 1024;

/// Deepest nesting a query text may have, in XPath and in the XML-GL DSL
/// alike; a text that nests further is refused with a parse error naming
/// this bound. Every stage a query goes through recurses per level —
/// the parser, the analyzer, the planner, EXPLAIN, the evaluators and
/// `Drop` — so, unlike a document's, a query's depth is bounded well below
/// what a 2 MiB stack holds (`gql-serve`'s connection threads get 2 MiB):
/// `tests/end_to_end.rs` runs each surface's deepest accepted query through
/// every one of them on such a stack, in a debug build. How an XPath text
/// and an XML-GL text count their levels is stated by their parsers.
pub const MAX_QUERY_DEPTH: usize = 64;

/// Most child boxes one XML-GL extract box may have, and most root boxes
/// one extract part may have; a text with a wider box is refused with a
/// parse error naming this bound. The planner chains a `PathStep` per child
/// edge of a root box and a `HashJoin` per root, and EXPLAIN, `Drop` and
/// the row writer recurse once per link, so a box as wide as a frame holds
/// (50,000 children in 100 KB) overflowed a 2 MiB stack; and each child box
/// multiplies the rows a binding table may need, so a thousand children
/// over two candidates each asked for more rows than a `u64` counts.
/// `tests/end_to_end.rs` runs a rule at the bound through every stage on a
/// 2 MiB stack.
pub const MAX_QUERY_WIDTH: usize = 64;

/// Most rules one WG-Log program may have; a longer text is refused with a
/// parse error naming this bound. Stratification relates every rule to
/// every other, so checking and running a program grows with the square of
/// its rules: a chain of 1,024 runs in about 0.14 s in a release build, one
/// of 4,096 in 2.4 s, and the 15,000 a request frame holds would take half
/// a minute (`crates/serve/tests/protocol.rs` sends them).
pub const MAX_QUERY_RULES: usize = 1024;

/// Parse an XML string into a [`Document`].
pub fn parse(input: &str) -> Result<Document> {
    let mut tokens = Tokenizer::new(input);
    let mut doc = Document::new();
    // The open elements, innermost last, over the document node.
    let mut open = vec![doc.root()];
    while let Some(token) = tokens.next()? {
        let node = match token {
            Token::Start(name) => {
                let el = doc.create_element(name);
                while let Some((attr, value)) = tokens.next_attr()? {
                    doc.set_attr(el, attr, &value)
                        .expect("element accepts attrs");
                }
                open.push(el);
                continue;
            }
            // An element joins its parent once it is complete.
            Token::End(_) => open.pop().expect("an End closes an open element"),
            Token::Text(text) if text.chars().all(char::is_whitespace) => continue,
            Token::Text(text) => doc.create_text(&text),
            Token::CData(text) => doc.create_text(text),
            Token::Comment(text) => doc.create_comment(text),
            Token::Pi { target, data } => doc.create_pi(target, data),
        };
        let parent = *open.last().expect("the document node stays open");
        doc.append_child(parent, node).expect("fresh node");
    }
    Ok(doc)
}

// ----------------------------------------------------------------------
// Serialisation
// ----------------------------------------------------------------------

/// Escape text-node content.
pub fn escape_text(s: &str, out: &mut String) {
    escape(s, out, |b| match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        _ => None,
    });
}

/// Escape attribute-value content (double-quote convention).
pub fn escape_attr(s: &str, out: &mut String) {
    escape(s, out, |b| match b {
        b'<' => Some("&lt;"),
        b'&' => Some("&amp;"),
        b'"' => Some("&quot;"),
        _ => None,
    });
}

/// Copy `s` to `out` in runs, with each byte `entity` names replaced. The
/// escapable bytes are ASCII, so every cut falls on a character boundary.
fn escape(s: &str, out: &mut String, entity: impl Fn(u8) -> Option<&'static str>) {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(e) = entity(b) {
            out.push_str(&s[copied..i]);
            out.push_str(e);
            copied = i + 1;
        }
    }
    out.push_str(&s[copied..]);
}

/// Serialize a document. With `pretty`, element-only content is indented
/// two spaces per level; mixed content is left untouched so text round-trips.
pub fn write(doc: &Document, pretty: bool) -> String {
    let mut out = String::with_capacity(doc.xml_size_hint());
    let mut outer = Vec::new();
    for &c in doc.children(doc.root()) {
        write_subtree(doc, c, pretty, &mut out, &mut outer, &mut ());
        if pretty {
            out.push('\n');
        }
    }
    out
}

fn has_text_child(doc: &Document, node: NodeId) -> bool {
    doc.children(node)
        .iter()
        .any(|&c| doc.kind(c) == NodeKind::Text)
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// An open element set aside while [`write_subtree`] is inside one of its
/// children.
#[derive(Debug)]
pub(crate) struct Outer {
    node: NodeId,
    /// How many of its children are still to write.
    left: usize,
    /// Whether each child goes on an indented line of its own.
    indent: bool,
}

/// What [`write_subtree`] says about each node it writes: the length of
/// `out` and the count of nodes written so far, where the node's bytes
/// begin (`open`) and where they end (`close`). `()` hears nothing;
/// [`Image::build`] records spans.
pub(crate) trait Record {
    fn open(&mut self, node: NodeId, at: usize, nodes: u64);
    fn close(&mut self, node: NodeId, at: usize, nodes: u64);
}

impl Record for () {
    fn open(&mut self, _: NodeId, _: usize, _: u64) {}
    fn close(&mut self, _: NodeId, _: usize, _: u64) {}
}

/// Write `node` up to its first child and return its children, or all of it
/// and `None` when it is a leaf or `<name>Roma</name>`, the dominant shape.
/// A document node is written the way [`Document::import_subtree`] copies
/// it, as a `document` element.
fn write_start<'a>(
    doc: &'a Document,
    node: NodeId,
    out: &mut String,
    nodes: &mut u64,
    rec: &mut impl Record,
) -> Option<&'a [NodeId]> {
    rec.open(node, out.len(), *nodes);
    *nodes += 1;
    match doc.kind(node) {
        NodeKind::Text => escape_text(doc.text(node).unwrap_or(""), out),
        NodeKind::Comment => {
            out.push_str("<!--");
            out.push_str(doc.text(node).unwrap_or(""));
            out.push_str("-->");
        }
        NodeKind::Pi => {
            out.push_str("<?");
            out.push_str(doc.name(node).unwrap_or(""));
            let data = doc.text(node).unwrap_or("");
            if !data.is_empty() {
                out.push(' ');
                out.push_str(data);
            }
            out.push_str("?>");
        }
        NodeKind::Element | NodeKind::Document => {
            let name = doc.name(node).unwrap_or("document");
            out.push('<');
            out.push_str(name);
            for (a, v) in doc.attrs(node) {
                out.push(' ');
                out.push_str(a);
                out.push_str("=\"");
                escape_attr(v, out);
                out.push('"');
            }
            let children = doc.children(node);
            if children.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                let [only] = children else {
                    return Some(children);
                };
                let (NodeKind::Text, Some(text)) = (doc.kind(*only), doc.text(*only)) else {
                    return Some(children);
                };
                rec.open(*only, out.len(), *nodes);
                *nodes += 1;
                escape_text(text, out);
                rec.close(*only, out.len(), *nodes);
                write_end(name, out);
            }
        }
    }
    rec.close(node, out.len(), *nodes);
    None
}

fn write_end(name: &str, out: &mut String) {
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

/// The one serialiser: append the subtree at `root` to `out` and return how
/// many nodes that was. [`write()`], [`Image::build`] and
/// [`XmlSink::subtree`](crate::sink::XmlSink) are its callers, and lend it
/// `outer`, empty, for its stack: a loop over the open elements, so no
/// nesting depth can exhaust the call stack, and no allocation per call.
/// `rec` hears where each node's bytes begin and end.
pub(crate) fn write_subtree(
    doc: &Document,
    root: NodeId,
    pretty: bool,
    out: &mut String,
    outer: &mut Vec<Outer>,
    rec: &mut impl Record,
) -> u64 {
    let mut nodes = 0;
    let Some(children) = write_start(doc, root, out, &mut nodes, rec) else {
        return nodes;
    };
    // The innermost open element, its children still to write, and whether
    // they are indented; every other open element is in `outer`.
    let mut open = root;
    let mut rest = children.iter();
    let mut indented = pretty && !has_text_child(doc, root);
    loop {
        let Some(&child) = rest.next() else {
            if indented {
                out.push('\n');
                indent(out, outer.len());
            }
            write_end(doc.name(open).unwrap_or("document"), out);
            rec.close(open, out.len(), nodes);
            let Some(parent) = outer.pop() else {
                return nodes;
            };
            open = parent.node;
            let children = doc.children(open);
            rest = children[children.len() - parent.left..].iter();
            indented = parent.indent;
            continue;
        };
        if indented {
            out.push('\n');
            indent(out, outer.len() + 1);
        }
        if let Some(children) = write_start(doc, child, out, &mut nodes, rec) {
            outer.push(Outer {
                node: open,
                left: rest.len(),
                indent: indented,
            });
            open = child;
            rest = children.iter();
            indented = pretty && !has_text_child(doc, child);
        }
    }
}

// ----------------------------------------------------------------------
// The serialized image
// ----------------------------------------------------------------------

/// Where one node's (or item's) compact serialisation stands in an
/// [`Image`], and how many nodes it holds; 12 bytes. `nodes` is 0 for one
/// the image does not hold (a detached node): every node that is written
/// counts itself.
#[derive(Debug, Clone, Copy, Default)]
struct NodeSpan {
    start: u32,
    end: u32,
    nodes: u32,
}

/// A document's compact serialisation, written once, with each node's byte
/// span and subtree node count in it: a deep copy of a node into written
/// bytes is then one copy of its span. The text is what `write_subtree`
/// writes for the document node (a `document` element around the document's
/// [`Document::to_xml_string`]), so every span is that node's own
/// serialisation. Costs the text's bytes plus 12 per node of the arena.
///
/// [`Document::build_image`] makes it and keeps it as a memo beside
/// document order and the fingerprint; every mutation drops it, and a clone
/// does not carry it. [`Image::of_items`] makes the same shape for content
/// that is not a document's nodes, written by an [`XmlSink`]: WG-Log's
/// answer image, one item per base object.
#[derive(Debug)]
pub struct Image {
    xml: Box<str>,
    spans: Box<[NodeSpan]>,
}

/// Records each node's span in an image being written: `open` leaves the
/// node count before the node in `nodes`, `close` turns it into the node's
/// own count.
struct Spans<'a>(&'a mut [NodeSpan]);

impl Record for Spans<'_> {
    fn open(&mut self, node: NodeId, at: usize, nodes: u64) {
        self.0[node.index()] = NodeSpan {
            start: at as u32,
            end: 0,
            nodes: nodes as u32,
        };
    }

    fn close(&mut self, node: NodeId, at: usize, nodes: u64) {
        let span = &mut self.0[node.index()];
        span.end = at as u32;
        span.nodes = (nodes as u32).wrapping_sub(span.nodes);
    }
}

impl Image {
    /// Write `doc` whole, recording every node's span on the way. Spans are
    /// `u32` like the document's own pools; a document whose serialisation
    /// outgrows them gets an image that holds no node, so every copy from
    /// it is walked.
    pub(crate) fn build(doc: &Document) -> Image {
        let mut xml = String::with_capacity(doc.xml_size_hint());
        let mut spans = vec![NodeSpan::default(); doc.node_count()];
        write_subtree(
            doc,
            doc.root(),
            false,
            &mut xml,
            &mut Vec::new(),
            &mut Spans(&mut spans),
        );
        if u32::try_from(xml.len()).is_err() {
            return Image {
                xml: Box::default(),
                spans: Box::default(),
            };
        }
        Image {
            xml: xml.into_boxed_str(),
            spans: spans.into_boxed_slice(),
        }
    }

    /// An image of `count` items other than a document's nodes, written
    /// one after another by `write(i, sink)` through one [`XmlSink`]: item
    /// `i`'s span is what its events wrote, its count the nodes they
    /// counted. Each item closes every element it opens. An item that puts
    /// no node in is not held, and an image whose text outgrows `u32` holds
    /// none.
    pub fn of_items(count: usize, mut write: impl FnMut(usize, &mut XmlSink<'_>)) -> Image {
        let mut xml = String::new();
        let mut sink = XmlSink::new(&mut xml);
        let spans: Option<Vec<NodeSpan>> = (0..count)
            .map(|i| {
                let (start, before) = (sink.written(), sink.nodes());
                write(i, &mut sink);
                Some(NodeSpan {
                    start: u32::try_from(start).ok()?,
                    end: u32::try_from(sink.written()).ok()?,
                    nodes: u32::try_from(sink.nodes() - before).ok()?,
                })
            })
            .collect();
        match spans {
            Some(spans) => Image {
                xml: xml.into_boxed_str(),
                spans: spans.into_boxed_slice(),
            },
            None => Image {
                xml: Box::default(),
                spans: Box::default(),
            },
        }
    }

    /// The compact serialisation of `node` and how many nodes it holds,
    /// what `write_subtree` would write and return for it; `None` for a
    /// node the image does not hold.
    pub fn subtree(&self, node: NodeId) -> Option<(&str, u64)> {
        self.item(node.index())
    }

    /// Item `i`'s bytes and node count: node `i`'s for a document's image,
    /// what `write(i, ..)` wrote for one made by [`Image::of_items`]. `None`
    /// for an item the image does not hold.
    pub fn item(&self, i: usize) -> Option<(&str, u64)> {
        let span = self.spans.get(i).filter(|s| s.nodes != 0)?;
        let xml = &self.xml[span.start as usize..span.end as usize];
        Some((xml, u64::from(span.nodes)))
    }

    /// The bytes the image holds on the heap: its text, and 12 per node.
    pub fn resident_bytes(&self) -> usize {
        self.xml.len() + std::mem::size_of_val(&*self.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let doc = parse("<a><b x='1'>hi</b></a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.name(a), Some("a"));
        let b = doc.child_elements(a).next().unwrap();
        assert_eq!(doc.attr(b, "x"), Some("1"));
        assert_eq!(doc.text_content(b), "hi");
    }

    #[test]
    fn parse_self_closing_and_empty() {
        let doc = parse("<a><b/><c></c></a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.child_elements(a).count(), 2);
    }

    #[test]
    fn entities_decode() {
        let doc = parse("<a>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.text_content(a), "<&>\"'AB");
    }

    #[test]
    fn entities_in_attrs() {
        let doc = parse("<a t=\"&quot;x&quot; &amp; y\"/>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.attr(a, "t"), Some("\"x\" & y"));
    }

    #[test]
    fn unknown_entity_is_error() {
        assert!(parse("<a>&nbsp;</a>").is_err());
    }

    #[test]
    fn cdata_is_literal_text() {
        let doc = parse("<a><![CDATA[<not-a-tag> & stuff]]></a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.text_content(a), "<not-a-tag> & stuff");
    }

    #[test]
    fn comments_and_pis_survive() {
        let doc = parse("<a><!-- note --><?target data?></a>").unwrap();
        let a = doc.root_element().unwrap();
        let kinds: Vec<NodeKind> = doc.children(a).iter().map(|&c| doc.kind(c)).collect();
        assert_eq!(kinds, vec![NodeKind::Comment, NodeKind::Pi]);
    }

    #[test]
    fn doctype_with_quoted_bracket_is_skipped_whole() {
        let doc = parse("<!DOCTYPE a [<!ENTITY e \"]\">]><a/>").unwrap();
        assert_eq!(doc.name(doc.root_element().unwrap()), Some("a"));
    }

    #[test]
    fn xml_stylesheet_pi_is_preserved() {
        let doc = parse("<?xml-stylesheet href=\"s.xsl\"?><a/>").unwrap();
        let xml = doc.to_xml_string();
        assert!(xml.contains("<?xml-stylesheet"), "{xml}");
        // And the real declaration still skips.
        let doc = parse("<?xml version=\"1.0\"?><a/>").unwrap();
        assert!(
            !doc.to_xml_string().contains("<?xml"),
            "declaration must not persist"
        );
    }

    #[test]
    fn prolog_and_doctype_are_skipped() {
        let doc = parse("<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>").unwrap();
        assert_eq!(doc.name(doc.root_element().unwrap()), Some("a"));
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).len(), 1);
    }

    #[test]
    fn mismatched_tags_error_mentions_both() {
        let err = parse("<a><b></c></a>").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("</c>") && msg.contains("</b>"), "{msg}");
    }

    #[test]
    fn error_positions_are_tracked() {
        let err = parse("<a>\n<b attr></b></a>").unwrap_err();
        match err {
            crate::Error::Xml { pos, .. } => assert_eq!(pos.line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn duplicate_attr_rejected() {
        assert!(parse("<a x='1' x='2'/>").is_err());
    }

    #[test]
    fn two_roots_rejected() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse("").is_err());
        assert!(parse("   ").is_err());
    }

    #[test]
    fn text_at_top_level_rejected() {
        assert!(parse("hello<a/>").is_err());
    }

    #[test]
    fn write_escapes() {
        let mut d = Document::new();
        let a = d.add_element(d.root(), "a");
        d.set_attr(a, "t", "a\"<&").unwrap();
        d.add_text(a, "1 < 2 & 3 > 2");
        let xml = write(&d, false);
        assert_eq!(xml, "<a t=\"a&quot;&lt;&amp;\">1 &lt; 2 &amp; 3 &gt; 2</a>");
    }

    #[test]
    fn roundtrip_compact() {
        let src = "<bib><book isbn=\"1\"><title>A &amp; B</title><author><last>X</last></author></book><book isbn=\"2\"/></bib>";
        let doc = parse(src).unwrap();
        assert_eq!(doc.to_xml_string(), src);
    }

    #[test]
    fn pretty_printing_indents_element_content_only() {
        let doc = parse("<a><b>text stays inline</b><c><d/></c></a>").unwrap();
        let pretty = write(&doc, true);
        assert!(pretty.contains("<b>text stays inline</b>"));
        assert!(pretty.contains("\n    <d/>"));
        // Pretty output must re-parse to an equivalent document.
        let re = parse(&pretty).unwrap();
        assert_eq!(re.to_xml_string(), doc.to_xml_string());
    }

    #[test]
    fn unterminated_constructs_fail() {
        for src in ["<a>", "<a", "<!-- x", "<a><![CDATA[x", "<?pi", "<a t=\"v>"] {
            assert!(parse(src).is_err(), "{src:?} should fail");
        }
    }
}
