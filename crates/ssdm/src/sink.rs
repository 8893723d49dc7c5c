//! Answer sinks: where an engine's result goes while it is produced.
//!
//! Each engine has one producer of construction events — XML-GL's construct
//! graph, WG-Log's walk from the goal objects, the XPath node-set copy — and
//! the events have two consumers. [`DocSink`] builds the answer as a
//! [`Document`], for every caller that wants to look at it; [`XmlSink`]
//! appends the answer's serialisation to a `String`, for the service, which
//! wanted nothing but the bytes. Both are driven through a type parameter,
//! not a trait object: a served analytic cycle is half a million events.
//!
//! The two give one answer: the bytes an `XmlSink` wrote are
//! [`Document::to_xml_string`] of what a `DocSink` built from the same
//! events, and both count the same [`Sink::nodes`]. Where the store decides
//! something at the byte level, the writer decides it alike — an element
//! nothing was put in closes as `<a/>`, one given an empty text as
//! `<a></a>`, and a repeated attribute keeps its first place and takes its
//! last value, as [`Document::set_attr`] has it.
//!
//! Most of an answer is deep copies of source nodes. The writer copies one
//! from the source's serialized image ([`Document::build_image`], which a
//! service builds for each dataset it holds) as one run of bytes, and walks
//! the source store with the serialiser only when there is no image.
//! Content a producer keeps written ahead of time reaches the sinks through
//! [`Sink::prewritten`]: the writer appends the bytes, the builder runs the
//! events they stand for. WG-Log's objects are the case: a base object's
//! attribute children come from its instance's answer image.

use std::ops::Range;

use crate::document::{Document, NodeKind};
use crate::xml::{escape_attr, escape_text, write_subtree, Outer};
use crate::NodeId;

/// A consumer of construction events. Events nest like the answer does:
/// `start`, the element's `attr`s, its content, `end`.
pub trait Sink {
    /// Open an element, as the next child of the innermost open one or at
    /// the top level.
    fn start(&mut self, name: &str);

    /// Set an attribute of the element just started, before anything is put
    /// inside it. A repeated name replaces the value where the name first
    /// stood.
    fn attr(&mut self, name: &str, value: &str);

    /// A text node, empty or not.
    fn text(&mut self, text: &str);

    /// Close the innermost open element.
    fn end(&mut self);

    /// A deep copy of `node` of `src`, as [`Document::import_subtree`] makes
    /// it (a document node arrives as a `document` element). Part of the
    /// trait because each sink has something much cheaper than events for
    /// it: the builder copies pool runs and translates interned names
    /// through a memo, the writer copies the node's bytes out of the
    /// source's image, or serialises straight from the source store.
    /// This body is what both must agree with — except that the four events
    /// cannot say a comment or a processing instruction, which it skips and
    /// the two sinks keep.
    fn subtree(&mut self, src: &Document, node: NodeId) {
        // The children still to visit of each open element, innermost last.
        let mut open: Vec<std::slice::Iter<'_, NodeId>> = Vec::new();
        let mut node = node;
        loop {
            match src.kind(node) {
                NodeKind::Text => self.text(src.text(node).unwrap_or("")),
                NodeKind::Comment | NodeKind::Pi => {}
                NodeKind::Element | NodeKind::Document => {
                    self.start(src.name(node).unwrap_or("document"));
                    for (name, value) in src.attrs(node) {
                        self.attr(name, value);
                    }
                    open.push(src.children(node).iter());
                }
            }
            node = loop {
                let Some(rest) = open.last_mut() else {
                    return;
                };
                match rest.next() {
                    Some(&child) => break child,
                    None => {
                        open.pop();
                        self.end();
                    }
                }
            };
        }
    }

    /// Content whose serialisation was written ahead of time: `xml` and
    /// `nodes` are what an [`XmlSink`] writes and counts for `events`, which
    /// put at least one node in and close every element they open. The
    /// writer appends `xml`; every other sink runs `events`. A producer
    /// calls this where the same content recurs across answers and it kept
    /// the bytes, as WG-Log keeps each base object's attribute children.
    fn prewritten(&mut self, xml: &str, nodes: u64, events: impl FnOnce(&mut Self))
    where
        Self: Sized,
    {
        let _ = (xml, nodes);
        events(self);
    }

    /// How many nodes the events so far amount to: one per `start` and
    /// `text`, and every node of a `subtree` or of `prewritten` content.
    /// What the engines report as `nodes_built` and charge against a node
    /// budget, whichever sink runs.
    fn nodes(&self) -> u64;
}

/// Builds the answer under a document's root, appending after whatever is
/// there.
#[derive(Debug)]
pub struct DocSink<'a> {
    doc: &'a mut Document,
    /// The innermost open element; the document node when none is.
    open: NodeId,
    /// `doc`'s node count when the sink was made.
    before: usize,
}

impl<'a> DocSink<'a> {
    pub fn new(doc: &'a mut Document) -> Self {
        DocSink {
            open: doc.root(),
            before: doc.node_count(),
            doc,
        }
    }

    fn append(&mut self, node: NodeId) {
        self.doc
            .append_child(self.open, node)
            .expect("a fresh node under an open element");
    }
}

impl Sink for DocSink<'_> {
    fn start(&mut self, name: &str) {
        let el = self.doc.create_element(name);
        self.append(el);
        self.open = el;
    }

    fn attr(&mut self, name: &str, value: &str) {
        self.doc
            .set_attr(self.open, name, value)
            .expect("`attr` follows a `start`");
    }

    fn text(&mut self, text: &str) {
        let t = self.doc.create_text(text);
        self.append(t);
    }

    fn end(&mut self) {
        self.open = self.doc.parent(self.open).expect("`end` closes a `start`");
    }

    fn subtree(&mut self, src: &Document, node: NodeId) {
        let copy = self.doc.import_subtree(src, node);
        self.append(copy);
    }

    fn nodes(&self) -> u64 {
        (self.doc.node_count() - self.before) as u64
    }
}

/// Appends the answer's compact serialisation to a `String`: what
/// [`Document::to_xml_string`] prints for the document a [`DocSink`] builds.
#[derive(Debug)]
pub struct XmlSink<'a> {
    out: &'a mut String,
    /// Where in `out` the name of each open element stands, innermost last:
    /// an end tag copies it from there.
    open: Vec<Range<usize>>,
    /// The innermost start tag has no `>` yet: attributes may follow, and if
    /// nothing else does it closes as `/>`.
    pending: bool,
    /// Name and escaped value of each attribute of the pending tag, in `out`.
    attrs: Vec<(Range<usize>, Range<usize>)>,
    /// The serialiser's stack, kept between `subtree`s for its allocation.
    outer: Vec<Outer>,
    nodes: u64,
}

impl<'a> XmlSink<'a> {
    pub fn new(out: &'a mut String) -> Self {
        XmlSink {
            out,
            open: Vec::new(),
            pending: false,
            attrs: Vec::new(),
            outer: Vec::new(),
            nodes: 0,
        }
    }

    /// The length of the output so far.
    pub(crate) fn written(&self) -> usize {
        self.out.len()
    }

    /// Content follows: the pending start tag, if any, gets its `>`.
    fn content(&mut self) {
        if self.pending {
            self.out.push('>');
            self.pending = false;
        }
    }
}

impl Sink for XmlSink<'_> {
    fn start(&mut self, name: &str) {
        self.content();
        self.out.push('<');
        let at = self.out.len();
        self.out.push_str(name);
        self.open.push(at..self.out.len());
        self.pending = true;
        self.attrs.clear();
        self.nodes += 1;
    }

    fn attr(&mut self, name: &str, value: &str) {
        debug_assert!(self.pending, "`attr` follows a `start`");
        let known = self
            .attrs
            .iter()
            .position(|(n, _)| self.out[n.clone()] == *name);
        let Some(known) = known else {
            self.out.push(' ');
            let at = self.out.len();
            self.out.push_str(name);
            self.out.push_str("=\"");
            let value_at = self.out.len();
            escape_attr(value, self.out);
            self.attrs
                .push((at..at + name.len(), value_at..self.out.len()));
            self.out.push('"');
            return;
        };
        // The new value goes where the old one stood; what was written
        // after it moves by the difference in length.
        let mut escaped = String::new();
        escape_attr(value, &mut escaped);
        let old = self.attrs[known].1.clone();
        self.out.replace_range(old.clone(), &escaped);
        let end = old.start + escaped.len();
        self.attrs[known].1 = old.start..end;
        for (n, v) in &mut self.attrs[known + 1..] {
            for r in [n, v] {
                *r = r.start + end - old.end..r.end + end - old.end;
            }
        }
    }

    fn text(&mut self, text: &str) {
        self.content();
        escape_text(text, self.out);
        self.nodes += 1;
    }

    fn end(&mut self) {
        let name = self.open.pop().expect("`end` closes a `start`");
        if self.pending {
            self.out.push_str("/>");
            self.pending = false;
        } else {
            self.out.push_str("</");
            self.out.extend_from_within(name);
            self.out.push('>');
        }
    }

    fn subtree(&mut self, src: &Document, node: NodeId) {
        self.content();
        if let Some((xml, nodes)) = src.image().and_then(|image| image.subtree(node)) {
            self.out.push_str(xml);
            self.nodes += nodes;
            return;
        }
        self.nodes += write_subtree(src, node, false, self.out, &mut self.outer, &mut ());
    }

    fn prewritten(&mut self, xml: &str, nodes: u64, _: impl FnOnce(&mut Self)) {
        debug_assert!(nodes > 0, "prewritten content holds a node");
        self.content();
        self.out.push_str(xml);
        self.nodes += nodes;
    }

    fn nodes(&self) -> u64 {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    enum Ev<'a> {
        Start(&'a str),
        Attr(&'a str, &'a str),
        Text(&'a str),
        End,
        Subtree(&'a Document, NodeId),
    }
    use Ev::*;

    fn play(events: &[Ev<'_>], sink: &mut impl Sink) {
        for ev in events {
            match *ev {
                Start(name) => sink.start(name),
                Attr(name, value) => sink.attr(name, value),
                Text(text) => sink.text(text),
                End => sink.end(),
                Subtree(src, node) => sink.subtree(src, node),
            }
        }
    }

    /// The events through both sinks: the bytes written are the built
    /// document's, the node counts equal. Returns both.
    fn both(events: &[Ev<'_>]) -> (String, u64) {
        let mut doc = Document::new();
        let mut builder = DocSink::new(&mut doc);
        play(events, &mut builder);
        let built = builder.nodes();
        let mut xml = String::new();
        let mut writer = XmlSink::new(&mut xml);
        play(events, &mut writer);
        assert_eq!(writer.nodes(), built);
        assert_eq!(xml, doc.to_xml_string());
        assert_eq!(built as usize, doc.node_count() - 1);
        (xml, built)
    }

    #[test]
    fn an_element_nothing_was_put_in_closes_itself_and_an_empty_text_is_content() {
        assert_eq!(both(&[Start("a"), End]).0, "<a/>");
        assert_eq!(both(&[Start("a"), Text(""), End]), ("<a></a>".into(), 2));
        assert_eq!(both(&[Start("a"), Attr("k", "v"), End]).0, "<a k=\"v\"/>");
        assert_eq!(
            both(&[Start("a"), Start("b"), End, Start("c"), Text("t"), End, End]).0,
            "<a><b/><c>t</c></a>"
        );
    }

    #[test]
    fn adjacent_texts_are_two_nodes_and_one_run_of_bytes() {
        assert_eq!(
            both(&[Start("a"), Text("x<"), Text(">y"), End]),
            ("<a>x&lt;&gt;y</a>".into(), 3)
        );
        // Several top-level items, a text among them.
        assert_eq!(
            both(&[Start("a"), End, Text("&"), Start("b"), End]).0,
            "<a/>&amp;<b/>"
        );
    }

    #[test]
    fn attribute_values_and_texts_are_escaped_each_their_way() {
        let (xml, _) = both(&[
            Start("a"),
            Attr("t", "a\"<&>'"),
            Text("1 < 2 & 3 > 2 \"'"),
            End,
        ]);
        assert_eq!(
            xml,
            "<a t=\"a&quot;&lt;&amp;>'\">1 &lt; 2 &amp; 3 &gt; 2 \"'</a>"
        );
    }

    #[test]
    fn a_repeated_attribute_keeps_its_first_place_and_takes_its_last_value() {
        let (xml, nodes) = both(&[
            Start("a"),
            Attr("k", "one"),
            Attr("id", "<7>"),
            Attr("é", "x"),
            Attr("k", "a much longer \"value\""),
            Attr("id", ""),
            Attr("k", "3"),
            Attr("new", "n"),
            Text("t"),
            End,
        ]);
        assert_eq!(xml, "<a k=\"3\" id=\"\" é=\"x\" new=\"n\">t</a>");
        assert_eq!(nodes, 2);
        // Names are compared whole, and per element.
        let (xml, _) = both(&[
            Start("a"),
            Attr("kk", "1"),
            Attr("k", "2"),
            Start("b"),
            Attr("k", "3"),
            End,
            End,
        ]);
        assert_eq!(xml, "<a kk=\"1\" k=\"2\"><b k=\"3\"/></a>");
    }

    #[test]
    fn a_copied_subtree_keeps_its_comments_and_processing_instructions() {
        let src = Document::parse_str(
            "<r><a x=\"1&amp;\">t<!-- note --><?pi data?><?bare?><b/>&lt;</a><c/></r>",
        )
        .unwrap();
        let r = src.root_element().unwrap();
        let a = src.children(r)[0];
        let (xml, nodes) = both(&[Start("answer"), Subtree(&src, a), Subtree(&src, a), End]);
        let copy = "<a x=\"1&amp;\">t<!-- note --><?pi data?><?bare?><b/>&lt;</a>";
        assert_eq!(xml, format!("<answer>{copy}{copy}</answer>"));
        assert_eq!(nodes, 1 + 2 * 7);
        // A leaf of any kind is a subtree too, at the top level as well.
        let kids = src.children(a);
        let (xml, nodes) = both(&[
            Subtree(&src, kids[0]),
            Subtree(&src, kids[1]),
            Subtree(&src, kids[2]),
            Subtree(&src, kids[4]),
        ]);
        assert_eq!((xml.as_str(), nodes), ("t<!-- note --><?pi data?><b/>", 4));
        // After a start tag's attributes, and from a second source.
        let other = Document::parse_str("<c><a>other</a></c>").unwrap();
        let (xml, _) = both(&[
            Start("w"),
            Attr("k", "v"),
            Subtree(&src, kids[4]),
            Subtree(&other, other.root_element().unwrap()),
            End,
        ]);
        assert_eq!(xml, "<w k=\"v\"><b/><c><a>other</a></c></w>");
    }

    #[test]
    fn a_whole_document_arrives_as_a_document_element() {
        let src = Document::parse_str("<r><a/>text</r>").unwrap();
        let (xml, nodes) = both(&[Start("answer"), Subtree(&src, src.root()), End]);
        assert_eq!(xml, "<answer><document><r><a/>text</r></document></answer>");
        assert_eq!(nodes, 5);
        let empty = Document::new();
        assert_eq!(both(&[Subtree(&empty, empty.root())]).0, "<document/>");
    }

    /// A random document built through the API, so that it has what no
    /// parse makes: adjacent texts, empty ones (`<a></a>` beside `<a/>`),
    /// texts and several comments and PIs at the top level, and a few
    /// detached nodes. Texts and attribute values draw on `<&>"'`.
    fn random_document(rng: &mut crate::rng::Rng) -> Document {
        const TEXTS: [&str; 6] = ["", "a", "<&>\"'", "x y", "&amp;", "]]>"];
        const NAMES: [&str; 4] = ["a", "b", "c", "é"];
        let mut doc = Document::new();
        let mut open = vec![doc.root()];
        for _ in 0..rng.gen_range(1..60) {
            let parent = open[rng.gen_range(0..open.len())];
            let name = NAMES[rng.gen_range(0..NAMES.len())];
            let text = TEXTS[rng.gen_range(0..TEXTS.len())];
            let node = match rng.gen_range(0..10) {
                0..=3 => {
                    let el = doc.create_element(name);
                    for _ in 0..rng.gen_range(0..3) {
                        let value = TEXTS[rng.gen_range(0..TEXTS.len())];
                        doc.set_attr(el, NAMES[rng.gen_range(0..NAMES.len())], value)
                            .unwrap();
                    }
                    open.push(el);
                    el
                }
                4..=6 => doc.create_text(text),
                7 => doc.create_comment(text),
                8 => doc.create_pi(name, if rng.gen_bool(0.5) { "" } else { "d=1" }),
                _ => {
                    // Detached: no span in the image, walked when copied.
                    doc.create_element(name);
                    continue;
                }
            };
            doc.append_child(parent, node).unwrap();
        }
        doc
    }

    /// What `XmlSink` writes for a copy of `node`, and the nodes it counts.
    fn written(src: &Document, node: NodeId) -> (String, u64) {
        let mut xml = String::new();
        let mut sink = XmlSink::new(&mut xml);
        sink.subtree(src, node);
        let nodes = sink.nodes();
        (xml, nodes)
    }

    #[test]
    fn a_copy_from_the_image_is_the_walked_copy_for_every_node() {
        for seed in 0..300 {
            let mut rng = crate::rng::Rng::seed_from_u64(seed);
            let doc = random_document(&mut rng);
            // A clone carries no image: every copy from it is walked.
            let walked = doc.clone();
            let image = doc.build_image();
            assert!(walked.image().is_none());
            let attached: Vec<NodeId> = doc.descendants_or_self(doc.root()).collect();
            for i in 0..doc.node_count() {
                let node = NodeId::from_index(i);
                assert_eq!(
                    image.subtree(node).is_some(),
                    attached.contains(&node),
                    "seed {seed}, node {i}: held by the image iff attached"
                );
                let copy = written(&doc, node);
                assert_eq!(copy, written(&walked, node), "seed {seed}, node {i}");
                if let Some((xml, nodes)) = image.subtree(node) {
                    assert_eq!((xml.to_string(), nodes), copy, "seed {seed}, node {i}");
                }
            }
            let whole = image.subtree(doc.root()).unwrap().0.len();
            assert_eq!(image.resident_bytes(), whole + 12 * doc.node_count());
        }
    }

    /// A sink with nothing cheaper than events: `subtree` is the trait's own.
    struct Events<'a>(XmlSink<'a>);

    impl Sink for Events<'_> {
        fn start(&mut self, name: &str) {
            self.0.start(name)
        }
        fn attr(&mut self, name: &str, value: &str) {
            self.0.attr(name, value)
        }
        fn text(&mut self, text: &str) {
            self.0.text(text)
        }
        fn end(&mut self) {
            self.0.end()
        }
        fn nodes(&self) -> u64 {
            self.0.nodes()
        }
    }

    #[test]
    fn both_sinks_copy_a_subtree_as_the_four_events_would_say_it() {
        let src = crate::generator::cityguide(crate::generator::CityConfig {
            restaurants: 12,
            hotels: 3,
            seed: 5,
        });
        for node in [src.root(), src.root_element().unwrap()] {
            let mut said = String::new();
            let mut events = Events(XmlSink::new(&mut said));
            events.start("answer");
            events.subtree(&src, node);
            events.end();
            let nodes = events.nodes();
            assert_eq!(
                both(&[Start("answer"), Subtree(&src, node), End]),
                (said, nodes)
            );
        }
    }
}
