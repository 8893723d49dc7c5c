//! Property-based tests over the core data structures and engine
//! invariants.
//!
//! The workspace builds offline with no external crates, so instead of
//! proptest this uses the hand-rolled harness from [`gql_testkit`]: every
//! property runs over a few hundred cases generated from the deterministic
//! [`gql::ssdm::rng`] PRNG, and a failure message always carries the
//! offending seed plus an exact one-line replay command
//! (`GQL_REPLAY_SEED=<n> cargo test <property>` re-runs just that case).
//!
//! The generators (documents, DSL programs, fuzz alphabets) live in
//! [`gql_testkit::generators`] and are shared with the `gql-fuzz`
//! differential fuzzer, so anything a property observes here the fuzzer
//! can minimize and replay too.

use gql::ssdm::document::NodeKind;
use gql::ssdm::generator::{webgraph, WebConfig};
use gql::ssdm::rng::Rng;
use gql::ssdm::{Document, NodeId};
use gql_testkit::generators::{document, fuzz_alphabet, gen_xmlgl, string_over, text_value};
use gql_testkit::model::DocModel;
use gql_testkit::{check, pick, TAGS};

use gql::core::engine::Engine;
use gql::core::{Budget, CoreError, Guard, RunCtx};
use gql_testkit::fault::query_kinds;
use gql_testkit::fuzz::{case_inputs, Generator};

// ----------------------------------------------------------------------
// XML round-trip
// ----------------------------------------------------------------------

/// serialize → parse → serialize is a fixed point (whitespace-only text
/// nodes excepted, which the default parse drops — the generator can
/// produce them, so compare after one normalisation pass).
#[test]
fn xml_roundtrip() {
    check("xml_roundtrip", 128, |rng| {
        let doc = document(rng);
        let once = doc.to_xml_string();
        let reparsed = Document::parse_str(&once).expect("own output parses");
        let twice = reparsed.to_xml_string();
        let thrice = Document::parse_str(&twice).expect("own output parses");
        assert_eq!(twice, thrice.to_xml_string());
    });
}

/// Pretty-printing never changes the parsed structure for element-only
/// content, and always re-parses.
#[test]
fn pretty_print_reparses() {
    check("pretty_print_reparses", 128, |rng| {
        let doc = document(rng);
        let pretty = doc.to_xml_pretty();
        let _ = Document::parse_str(&pretty).expect("pretty output parses");
    });
}

/// Document order is a total order consistent with the parent relation:
/// parents precede children, and siblings order by index.
#[test]
fn document_order_is_consistent() {
    check("document_order_is_consistent", 128, |rng| {
        let doc = document(rng);
        for n in doc.descendants(doc.root()) {
            if let Some(p) = doc.parent(n) {
                assert!(doc.order_key(p) < doc.order_key(n));
            }
            let children: Vec<NodeId> = doc.children(n).to_vec();
            for w in children.windows(2) {
                assert!(doc.order_key(w[0]) < doc.order_key(w[1]));
            }
        }
    });
}

/// `descendants_or_self` visits exactly `live_node_count` nodes, each once.
#[test]
fn traversal_visits_each_node_once() {
    check("traversal_visits_each_node_once", 128, |rng| {
        let doc = document(rng);
        let visited: Vec<NodeId> = doc.descendants_or_self(doc.root()).collect();
        let unique: std::collections::HashSet<_> = visited.iter().copied().collect();
        assert_eq!(visited.len(), unique.len());
        assert_eq!(visited.len(), doc.live_node_count());
    });
}

// ----------------------------------------------------------------------
// The document store against its reference model
// ----------------------------------------------------------------------

/// A tree-shaped document and a small reference-graph (`webgraph`) one.
fn tree_and_web(rng: &mut Rng) -> [Document; 2] {
    let web = webgraph(WebConfig {
        docs: rng.gen_range(1..12),
        links_per_doc: rng.gen_range(0..4),
        index_percent: 50,
        seed: rng.next_u64(),
    });
    [document(rng), web]
}

/// Names, texts and attribute values of the store programs: short, and
/// with every character the writer escapes and some that take more than one
/// byte.
fn store_string(rng: &mut Rng) -> String {
    const ALPHABET: &[char] = &['a', 'b', ' ', '<', '>', '&', '"', '\'', 'é', '→', '𝄞'];
    string_over(rng, ALPHABET, 6)
}

/// A random program of constructions, legal and illegal links, detaches,
/// attribute edits, imports and clones leaves the pooled store and the
/// naive model in the same state after every step: the same `Ok`/`Err`,
/// children, parents, attribute order, texts, document order and XML.
#[test]
fn document_store_agrees_with_its_reference_model() {
    check(
        "document_store_agrees_with_its_reference_model",
        192,
        |rng| {
            // Two sources with different symbol tables, imported from in turn.
            let sources = tree_and_web(rng);
            let source_models = sources.each_ref().map(DocModel::of);
            for (model, src) in source_models.iter().zip(&sources) {
                model.assert_matches(src);
            }
            let (mut doc, mut model) = (Document::new(), DocModel::default());
            for _ in 0..rng.gen_range(1..80) {
                // Any node, now and then one past the arena.
                let node = |rng: &mut Rng| {
                    let past = usize::from(rng.gen_bool(0.02));
                    rng.gen_range(0..doc.node_count() + past)
                };
                let (a, b) = (node(rng), node(rng));
                let (ida, idb) = (NodeId::from_index(a), NodeId::from_index(b));
                let (s, t) = (store_string(rng), store_string(rng));
                let name = pick(rng, TAGS);
                match rng.gen_range(0..14) {
                    0..=2 => {
                        let new = doc.create_element(name);
                        assert_eq!(
                            new.index(),
                            model.create(NodeKind::Element, Some(name), None)
                        );
                    }
                    3 => {
                        let new = doc.create_text(&s);
                        assert_eq!(new.index(), model.create(NodeKind::Text, None, Some(&s)));
                    }
                    4 => {
                        let (new, kind) = if rng.gen_bool(0.5) {
                            (doc.create_comment(&s), NodeKind::Comment)
                        } else {
                            (doc.create_pi(name, &s), NodeKind::Pi)
                        };
                        let named = (kind == NodeKind::Pi).then_some(name);
                        assert_eq!(new.index(), model.create(kind, named, Some(&s)));
                    }
                    // Whatever the two nodes are: leaf parents, parented or
                    // ancestor children and the document node all come up.
                    5..=7 => assert_eq!(
                        doc.append_child(ida, idb).ok(),
                        model.append_child(a, b),
                        "append_child({a}, {b})"
                    ),
                    8 => assert_eq!(doc.detach(ida).ok(), model.detach(a), "detach({a})"),
                    9 | 10 => {
                        // A small name pool, so that values get replaced.
                        let attr = pick(rng, &["k", "id", "é"]);
                        assert_eq!(
                            doc.set_attr(ida, attr, &t).ok(),
                            model.set_attr(a, attr, &t)
                        );
                    }
                    11 => {
                        let attr = pick(rng, &["k", "id", "é", "never-set"]);
                        assert_eq!(doc.remove_attr(ida, attr).ok(), model.remove_attr(a, attr));
                    }
                    12 => {
                        let which = rng.gen_range(0..sources.len());
                        let (src, src_model) = (&sources[which], &source_models[which]);
                        let from = rng.gen_range(0..src.node_count());
                        let new = doc.import_subtree(src, NodeId::from_index(from));
                        assert_eq!(new.index(), model.import_subtree(src_model, from));
                    }
                    _ => {
                        // Carry on with the clone: ids and order are the same.
                        doc = doc.clone();
                        model = model.clone();
                    }
                }
                model.assert_matches(&doc);
            }
        },
    );
}

// ----------------------------------------------------------------------
// The trace record against its reference model
// ----------------------------------------------------------------------

/// Random probe sequences — nesting, counters repeated on one span, names
/// re-noted, guards dropped out of order and too late, spans never closed,
/// facts outside any span, literal and computed labels — leave the flat
/// record and the tree-building model with the same tree, node for node,
/// run after run over one reused log; and what the service reads off the
/// log by reference is what the tree says.
#[test]
fn trace_record_agrees_with_its_reference_model() {
    use gql::trace::{ProfileNode, TraceLog};
    use gql_testkit::model::TraceModel;

    const NAMES: &[&str] = &["run", "plan", "eval", "index", "a b", "é→", ""];

    /// Durations to the model's clock: one tick for a span closed while
    /// open (two clock readings are never equal), none otherwise.
    fn ticks(node: &mut ProfileNode) {
        node.nanos = node.nanos.min(1);
        node.children.iter_mut().for_each(ticks);
    }

    fn spans<'a>(node: &'a ProfileNode, out: &mut Vec<&'a ProfileNode>) {
        out.push(node);
        node.children.iter().for_each(|c| spans(c, out));
    }

    check("trace_record_agrees_with_its_reference_model", 256, |rng| {
        let mut log = TraceLog::new();
        for _run in 0..3 {
            let mut model = TraceModel::default();
            let mut facts = 0;
            log.record(|trace| {
                // Guards in opening order, each beside its model token.
                let mut guards = Vec::new();
                for _ in 0..rng.gen_range(0..48) {
                    let name = pick(rng, NAMES);
                    match rng.gen_range(0..10) {
                        0..=2 if rng.gen_bool(0.5) => {
                            guards.push((Some(trace.span(name)), model.span_start(name)));
                        }
                        0..=2 => {
                            let i = rng.gen_range(0..3);
                            let label = format!("{name}[{i}:{name}]");
                            guards.push((
                                Some(trace.span(format_args!("{name}[{i}:{name}]"))),
                                model.span_start(&label),
                            ));
                        }
                        // Usually the innermost guard still held; otherwise any
                        // one: out of order, or after an outer span's close has
                        // already unwound it.
                        3..=5 => {
                            let held = guards.iter().rposition(|(g, _)| g.is_some());
                            let at = match held {
                                Some(at) if rng.gen_bool(0.75) => at,
                                Some(_) => rng.gen_range(0..guards.len()),
                                None => continue,
                            };
                            if let (Some(guard), token) = (guards[at].0.take(), guards[at].1) {
                                drop(guard);
                                model.span_end(token);
                            }
                        }
                        6..=7 => {
                            let delta = rng.gen_range(0..1000) as u64;
                            trace.count(name, delta);
                            model.count(name, delta);
                            facts += 1;
                        }
                        _ => {
                            let value = pick(rng, NAMES);
                            trace.note(name, format_args!("{value}/{value}"));
                            model.note(name, &format!("{value}/{value}"));
                            facts += 1;
                        }
                    }
                }
                // Guards still held are spans left open.
                guards
                    .into_iter()
                    .filter_map(|(guard, _)| guard)
                    .for_each(std::mem::forget);
            });

            let mut profile = log.profile();
            profile.roots.iter_mut().for_each(ticks);
            assert_eq!(profile, model.profile());

            let mut all = Vec::new();
            for root in profile.roots.iter().filter(|r| r.name != "(toplevel)") {
                spans(root, &mut all);
            }
            assert_eq!(log.probes(), 2 * all.len() + facts);
            for name in NAMES {
                let first = all.iter().find(|n| n.name == *name);
                let found = log.find(name);
                assert_eq!(found.is_some(), first.is_some(), "{name:?}");
                let (Some(span), Some(node)) = (found, first) else {
                    continue;
                };
                let children: Vec<&str> = log.children(span).map(|(n, _)| n).collect();
                let expected: Vec<&str> = node.children.iter().map(|c| &*c.name).collect();
                assert_eq!(children, expected, "{name:?}");
                for key in NAMES {
                    assert_eq!(log.note(span, key), node.note(key), "{name:?}.{key:?}");
                }
            }
        }
    });
}

/// Every byte the writer escapes, at the start, in the middle and at the end
/// of a text and of an attribute value, alone, doubled and against
/// multi-byte characters: written as the character-by-character writer
/// writes it, and read back as it was.
#[test]
fn writer_escapes_every_position() {
    for special in ['<', '>', '&', '"', '\''] {
        for pad in ["", "a", "é", "→𝄞", "&", "<"] {
            for value in [
                format!("{special}{pad}"),
                format!("{pad}{special}"),
                format!("{pad}{special}{pad}"),
                format!("{special}{pad}{special}"),
                format!("{special}{special}{pad}"),
            ] {
                let mut doc = Document::new();
                let el = doc.add_element(doc.root(), "e");
                doc.set_attr(el, "k", &value).unwrap();
                doc.add_text(el, &value);
                let xml = doc.to_xml_string();
                assert_eq!(xml, DocModel::of(&doc).to_xml(), "{value:?}");
                let back = Document::parse_str(&xml).unwrap();
                let el = back.root_element().unwrap();
                assert_eq!(back.attr(el, "k"), Some(value.as_str()), "{xml}");
                assert_eq!(back.text_content(el), value, "{xml}");
            }
        }
    }
}

// ----------------------------------------------------------------------
// XPath vs the simple path helper, and engine coherences
// ----------------------------------------------------------------------

/// `//tag` agrees between the XPath engine and the path helper.
#[test]
fn xpath_agrees_with_path_select() {
    check("xpath_agrees_with_path_select", 96, |rng| {
        let doc = document(rng);
        let t = pick(rng, TAGS);
        let via_xpath = gql::xpath::select(&doc, &format!("//{t}")).expect("xpath runs");
        let via_path = gql::ssdm::path::select(&doc, doc.root(), &format!("//{t}"));
        assert_eq!(via_xpath, via_path);
    });
}

/// An XML-GL single-box rule finds exactly the `//tag` node set.
#[test]
fn xmlgl_root_matches_equal_xpath() {
    check("xmlgl_root_matches_equal_xpath", 96, |rng| {
        let doc = document(rng);
        let t = pick(rng, TAGS);
        let rule = gql::xmlgl::builder::RuleBuilder::new()
            .extract(gql::xmlgl::builder::Q::elem(t).var("x"))
            .construct(gql::xmlgl::builder::C::elem("out").child(gql::xmlgl::builder::C::all("x")))
            .build()
            .expect("rule builds");
        let matches = gql::xmlgl::eval::match_rule(&rule, &doc).len();
        let xpath = gql::xpath::select(&doc, &format!("//{t}"))
            .expect("xpath runs")
            .len();
        assert_eq!(matches, xpath);
    });
}

/// Negation is the complement: boxes with child X plus boxes without child
/// X partition the boxes.
#[test]
fn negation_partitions() {
    check("negation_partitions", 96, |rng| {
        use gql::xmlgl::builder::{RuleBuilder, C, Q};
        let doc = document(rng);
        let (pt, ct) = (pick(rng, TAGS), pick(rng, TAGS));
        let total = RuleBuilder::new()
            .extract(Q::elem(pt).var("p"))
            .construct(C::elem("out"))
            .build()
            .expect("builds");
        let with = RuleBuilder::new()
            .extract(Q::elem(pt).var("p").child(Q::elem(ct)))
            .construct(C::elem("out"))
            .build()
            .expect("builds");
        let without = RuleBuilder::new()
            .extract(Q::elem(pt).var("p").without(Q::elem(ct)))
            .construct(C::elem("out"))
            .build()
            .expect("builds");
        let n_total = gql::xmlgl::eval::match_rule(&total, &doc).len();
        // `with` multiplies per matching child; count distinct parents
        // instead.
        let with_rule = &with;
        let parents: std::collections::HashSet<gql::ssdm::NodeId> =
            gql::xmlgl::eval::match_rule(with_rule, &doc)
                .iter()
                .filter_map(|b| b.get(with_rule.extract.by_var("p").expect("var p")))
                .collect();
        let n_without = gql::xmlgl::eval::match_rule(&without, &doc).len();
        assert_eq!(parents.len() + n_without, n_total);
    });
}

// ----------------------------------------------------------------------
// Streaming vs DOM agreement
// ----------------------------------------------------------------------

/// Rebuild a document from parse events the way `xml::parse` builds one
/// from the same text: every event kept, all-whitespace character data
/// dropped.
fn document_from_events(events: &[gql::ssdm::stream::Event]) -> Document {
    use gql::ssdm::stream::Event;
    let mut doc = Document::new();
    let mut open = vec![doc.root()];
    for event in events {
        let parent = *open.last().expect("events are balanced");
        match event {
            Event::Start { name, attrs } => {
                let el = doc.add_element(parent, name);
                for (attr, value) in attrs {
                    doc.set_attr(el, attr, value).expect("attrs on elements");
                }
                open.push(el);
            }
            Event::End { .. } => {
                open.pop();
            }
            Event::Text(t) if t.chars().all(char::is_whitespace) => {}
            Event::Text(t) => {
                doc.add_text(parent, t);
            }
            Event::Comment(t) => {
                let c = doc.create_comment(t);
                doc.append_child(parent, c).expect("fresh comment");
            }
            Event::Pi { target, data } => {
                let pi = doc.create_pi(target, data);
                doc.append_child(parent, pi).expect("fresh PI");
            }
        }
    }
    doc
}

/// `s` as character data or, inside `quote`, as an attribute value: what
/// must be escaped is, through a named entity or a decimal or hex character
/// reference, and now and then so is a character that need not be.
fn decorated_chars(rng: &mut Rng, s: &str, quote: Option<char>, out: &mut String) {
    for c in s.chars() {
        let named = match c {
            '<' => Some("&lt;"),
            '>' => Some("&gt;"),
            '&' => Some("&amp;"),
            '"' => Some("&quot;"),
            '\'' => Some("&apos;"),
            _ => None,
        };
        let must = matches!(c, '<' | '&') || Some(c) == quote;
        match (named, rng.gen_range(0..if must { 3 } else { 12 })) {
            (Some(entity), 0) => out.push_str(entity),
            (_, 0 | 1) => out.push_str(&format!("&#{};", c as u32)),
            (_, 2) => out.push_str(&format!("&#x{:X};", c as u32)),
            _ => out.push(c),
        }
    }
}

/// Another text of the subtree at `node`: both quote styles, blanks inside
/// tags, `<a></a>` for `<a/>`, CDATA sections, and references as
/// [`decorated_chars`] writes them.
fn decorated_node(rng: &mut Rng, doc: &Document, node: NodeId, out: &mut String) {
    match doc.kind(node) {
        NodeKind::Document => unreachable!("only subtrees are rendered"),
        NodeKind::Comment => out.push_str(&format!("<!--{}-->", doc.text(node).unwrap())),
        NodeKind::Pi => {
            let (target, data) = (doc.name(node).unwrap(), doc.text(node).unwrap());
            out.push_str(&format!("<?{target} {data}?>"));
        }
        NodeKind::Text => {
            let text = doc.text(node).unwrap();
            if !text.contains("]]>") && rng.gen_bool(0.3) {
                out.push_str(&format!("<![CDATA[{text}]]>"));
            } else {
                decorated_chars(rng, text, None, out);
            }
        }
        NodeKind::Element => {
            let name = doc.name(node).unwrap();
            out.push('<');
            out.push_str(name);
            for (attr, value) in doc.attrs(node) {
                let quote = if rng.gen_bool(0.5) { '"' } else { '\'' };
                let eq = ["=", " = ", "\n="][rng.gen_range(0..3)];
                out.push_str(&format!(" {attr}{eq}{quote}"));
                decorated_chars(rng, value, Some(quote), out);
                out.push(quote);
            }
            out.push_str(["", " ", "\n\t"][rng.gen_range(0..3)]);
            if doc.children(node).is_empty() && rng.gen_bool(0.5) {
                out.push_str("/>");
                return;
            }
            out.push('>');
            for &c in doc.children(node) {
                decorated_node(rng, doc, c, out);
            }
            out.push_str(&format!("</{name}{}>", ["", " "][rng.gen_range(0..2)]));
        }
    }
}

/// A decorated text of `doc` (which has one root element and nothing else at
/// the top) and what it must parse to: declaration, prolog comment, a
/// DOCTYPE whose internal subset quotes a `]`, a PI, then the root as
/// [`decorated_node`] writes it, then a trailer. The declaration and the
/// DOCTYPE leave no trace; the comments and PIs stay, around `doc`'s own
/// compact serialisation.
fn decorated(rng: &mut Rng, doc: &Document) -> (String, String) {
    let mut src = String::from(
        "<?xml version=\"1.0\"?>\n<!-- prolog -->\n\
         <!DOCTYPE r [<!ENTITY close \"]>\"> <!ENTITY open '['>]>\n<?style a='b'?>\n",
    );
    decorated_node(rng, doc, doc.root_element().expect("a root"), &mut src);
    src.push_str("\n<!-- trailer --><?done?>\n");
    let expected = format!(
        "<!-- prolog --><?style a='b'?>{}<!-- trailer --><?done?>",
        doc.to_xml_string()
    );
    (src, expected)
}

/// The streaming reader and the DOM parser read one tree out of a text: a
/// document rebuilt from the events serialises byte for byte like
/// `xml::parse` of the same text — over tree-shaped and reference-graph
/// documents, in the writer's own rendering and in a decorated one that
/// exercises the rest of the grammar, which must also decode to the tree it
/// was rendered from.
#[test]
fn stream_reader_agrees_with_dom() {
    use gql::ssdm::stream::{Event, EventReader};
    check("stream_reader_agrees_with_dom", 96, |rng| {
        for doc in tree_and_web(rng) {
            // Through the parser once, so that empty, adjacent and
            // all-whitespace text nodes are gone from the tree rendered.
            let doc = Document::parse_str(&doc.to_xml_string()).expect("own output parses");
            let plain = doc.to_xml_string();
            let (fancy, fancy_tree) = decorated(rng, &doc);
            for (src, tree) in [(&plain, &plain), (&fancy, &fancy_tree)] {
                let dom = Document::parse_str(src).expect("parses").to_xml_string();
                assert_eq!(&dom, tree, "{src}");
                let events: Vec<Event> = EventReader::new(src)
                    .collect::<gql::ssdm::Result<_>>()
                    .expect("streams");
                assert_eq!(document_from_events(&events).to_xml_string(), dom, "{src}");
            }
        }
    });
}

/// StreamPath and the DOM path helper agree on //tag.
#[test]
fn stream_path_agrees_with_dom() {
    check("stream_path_agrees_with_dom", 96, |rng| {
        let doc = document(rng);
        let t = pick(rng, TAGS);
        let xml = doc.to_xml_string();
        let deep = format!("//{t}");
        let streamed = gql::ssdm::stream::StreamPath::parse(&deep)
            .expect("parses")
            .run(&xml)
            .expect("runs");
        let dom = gql::ssdm::path::select(&doc, doc.root(), &deep);
        assert_eq!(streamed.count, dom.len());
        // Text captures agree too (same order: document order).
        let dom_texts: Vec<String> = dom.iter().map(|&n| doc.text_content(n)).collect();
        assert_eq!(streamed.texts, dom_texts);
    });
}

/// Arbitrary garbage never panics the streaming reader — it either yields
/// events or a clean error, and the DOM parser gives the same verdict.
#[test]
fn stream_reader_never_panics() {
    // With characters of two, three and four bytes: every cut the reader
    // makes must fall on a character boundary.
    let alphabet = fuzz_alphabet("<>&;/='\"é→𝄞");
    check("stream_reader_never_panics", 96, |rng| {
        let input = string_over(rng, &alphabet, 200);
        let events =
            gql::ssdm::stream::EventReader::new(&input).collect::<gql::ssdm::Result<Vec<_>>>();
        assert_eq!(
            Document::parse_str(&input).is_ok(),
            events.is_ok(),
            "{input:?}"
        );
    });
}

// ----------------------------------------------------------------------
// WG-Log instance loader invariants
// ----------------------------------------------------------------------

/// The WG-Log loader against `gql_testkit::reference::loader`, a textbook
/// loader that shares no code with it: object for object and edge for
/// edge, in order, over documents that are graphs — ID/IDREF cycles,
/// repeated, dangling and self references, one target named by two
/// attributes — with text-only children folded into attributes; and over
/// the same documents written and parsed back.
#[test]
fn the_loader_agrees_with_the_reference_loader_on_reference_graphs() {
    let references = std::cell::Cell::new(0);
    check(
        "the_loader_agrees_with_the_reference_loader_on_reference_graphs",
        256,
        |rng| {
            let doc = gql_testkit::generators::reference_graph(rng);
            let xml = doc.to_xml_string();
            let reparsed = Document::parse_str(&xml).unwrap();
            for doc in [&doc, &reparsed] {
                if let Err(e) = gql_testkit::reference::loader::check(doc) {
                    panic!("{e}\n{xml}");
                }
            }
            let loaded = gql_testkit::reference::loader::load(&doc);
            let tags = (loaded.edges.iter()).filter(|(_, label, _)| TAGS.contains(&label.as_str()));
            references.set(references.get() + loaded.edges.len() - tags.count());
        },
    );
    assert!(
        references.get() > 500,
        "{} reference edges",
        references.get()
    );
}

/// Loading never loses information mass: every element becomes either an
/// object or an attribute of its parent object.
#[test]
fn loader_accounts_for_every_element() {
    check("loader_accounts_for_every_element", 64, |rng| {
        let doc = document(rng);
        let db = gql::wglog::instance::Instance::from_document(&doc);
        let elements = doc
            .descendants(doc.root())
            .filter(|&n| doc.kind(n) == NodeKind::Element)
            .count();
        let objects = db.object_count();
        let folded: usize = db
            .objects()
            .map(|(_, o)| {
                o.attrs()
                    .filter(|(k, _)| {
                        // attributes that came from atomic child elements:
                        // approximated as "not the text pseudo-attribute".
                        *k != "text"
                    })
                    .count()
            })
            .sum();
        // objects + folded-elements ≥ elements (XML attributes also land in
        // attrs, hence ≥ rather than =).
        assert!(
            objects + folded >= elements,
            "objects={objects} folded={folded} elements={elements}"
        );
        // And every object's type is a tag that exists in the document.
        for (_, o) in db.objects() {
            assert!(doc.elements_named(o.ty()).next().is_some());
        }
    });
}

/// Schema extraction always validates its own instance.
#[test]
fn extracted_schema_validates_instance() {
    check("extracted_schema_validates_instance", 64, |rng| {
        let doc = document(rng);
        let db = gql::wglog::instance::Instance::from_document(&doc);
        let schema = gql::wglog::schema::WgSchema::extract(&db);
        assert!(schema.validate(&db).is_empty());
    });
}

// ----------------------------------------------------------------------
// Layout invariants
// ----------------------------------------------------------------------

/// Layouts never overlap two real nodes of the same layer and always stay
/// inside the reported bounds.
#[test]
fn layout_no_same_layer_overlap() {
    check("layout_no_same_layer_overlap", 64, |rng| {
        use gql::layout::{layout, Diagram, EdgeSpec, LayoutOptions, NodeSpec, Shape};
        let mut d = Diagram::new();
        let nodes: Vec<_> = (0..12)
            .map(|i| d.add_node(NodeSpec::new(format!("n{i}"), Shape::Box)))
            .collect();
        for _ in 0..rng.gen_range(0..24) {
            let a = rng.gen_range(0..12);
            let b = rng.gen_range(0..12);
            d.add_edge(nodes[a], nodes[b], EdgeSpec::plain());
        }
        let l = layout(&d, &LayoutOptions::default());
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                if l.layers[i] == l.layers[j] {
                    assert!(
                        !l.nodes[i].intersects(&l.nodes[j]),
                        "layer {} overlap: {:?} vs {:?}",
                        l.layers[i],
                        l.nodes[i],
                        l.nodes[j]
                    );
                }
            }
        }
        for r in &l.nodes {
            assert!(l.bounds.x <= r.x && l.bounds.right() >= r.right());
            assert!(l.bounds.y <= r.y && l.bounds.bottom() >= r.bottom());
        }
    });
}

// ----------------------------------------------------------------------
// DSL robustness
// ----------------------------------------------------------------------

/// Arbitrary input never panics either DSL parser.
#[test]
fn dsl_parsers_never_panic() {
    let alphabet = fuzz_alphabet("\n{}$@#");
    check("dsl_parsers_never_panic", 192, |rng| {
        let input = string_over(rng, &alphabet, 160);
        let _ = gql::xmlgl::dsl::parse(&input);
        let _ = gql::wglog::dsl::parse(&input);
        let _ = gql::xpath::parse(&input);
    });
}

/// Nor do the DTD and XML parsers.
#[test]
fn markup_parsers_never_panic() {
    let alphabet = fuzz_alphabet("\n<>!?&;'\"[]()|,*+#");
    check("markup_parsers_never_panic", 192, |rng| {
        let input = string_over(rng, &alphabet, 200);
        let _ = gql::ssdm::dtd::Dtd::parse(&input);
        let _ = gql::ssdm::Document::parse_str(&input);
        let _ = gql::ssdm::stream::StreamPath::parse(&input);
    });
}

// ----------------------------------------------------------------------
// Value semantics
// ----------------------------------------------------------------------

/// loose_eq is symmetric; loose_cmp is antisymmetric where defined.
#[test]
fn value_comparisons_behave() {
    check("value_comparisons_behave", 256, |rng| {
        use gql::ssdm::Value;
        let a = text_value(rng);
        let b = text_value(rng);
        let va = Value::from_literal(&a);
        let vb = Value::from_literal(&b);
        assert_eq!(va.loose_eq(&vb), vb.loose_eq(&va));
        match (va.loose_cmp(&vb), vb.loose_cmp(&va)) {
            (Some(x), Some(y)) => assert_eq!(x, y.reverse()),
            (None, None) => {}
            (x, y) => panic!("asymmetric definedness {x:?} {y:?}"),
        }
    });
}

/// Number parsing and formatting round-trip for in-range integers.
#[test]
fn number_roundtrip() {
    check("number_roundtrip", 256, |rng| {
        let n = rng.gen_range(0..2_000_000) as i64 - 1_000_000;
        let s = gql::ssdm::value::format_number(n as f64);
        assert_eq!(gql::ssdm::value::parse_number(&s), Some(n as f64));
    });
}

// ----------------------------------------------------------------------
// Static analysis
// ----------------------------------------------------------------------

/// Random (usually broken) DSL input: character soup plus token soup, so
/// the fuzz reaches past the lexer into the parser and the passes.
fn dsl_soup(rng: &mut Rng) -> String {
    const TOKENS: &[&str] = &[
        "rule",
        "extract",
        "construct",
        "query",
        "goal",
        "join",
        "not",
        "deep",
        "all",
        "copy",
        "shallow-copy",
        "text",
        "per",
        "set",
        "where",
        "and",
        "or",
        "as",
        "{",
        "}",
        "(",
        ")",
        "==",
        "=",
        ">=",
        "->",
        "-member->",
        "$a",
        "$b",
        "$",
        "@attr",
        "\"10\"",
        "\"x",
        "item",
        ":",
        "starts-with",
        "group-by",
        "count",
        "\n",
    ];
    if rng.gen_bool(0.5) {
        let alphabet = fuzz_alphabet("{}$:->=\"@*#");
        string_over(rng, &alphabet, 160)
    } else {
        let n = rng.gen_range(0..40);
        (0..n)
            .map(|_| pick(rng, TOKENS))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The analyzer never panics, whatever the input: every outcome is a
/// report (possibly of syntax errors), never an abort.
#[test]
fn analyzer_never_panics_on_arbitrary_input() {
    use gql::analyze::Analyzer;
    check("analyzer_never_panics_on_arbitrary_input", 384, |rng| {
        let src = dsl_soup(rng);
        let _ = Analyzer::new().analyze_xmlgl_src(&src);
        let _ = Analyzer::new().analyze_wglog_src(&src);
    });
}

/// Programs the analyzer passes without an Error-level diagnostic always
/// evaluate: no binding errors, no panics, on any document. The generator
/// is the fuzzer's own (joins, predicates, deep edges and all).
#[test]
fn zero_error_programs_evaluate() {
    use gql::analyze::Analyzer;
    check("zero_error_programs_evaluate", 192, |rng| {
        let src = gen_xmlgl(rng);
        let program = gql::xmlgl::dsl::parse_unchecked(&src)
            .unwrap_or_else(|e| panic!("generator produced invalid syntax: {e}\n{src}"));
        let report = Analyzer::new().analyze_xmlgl(&program);
        if report.has_errors() {
            return; // rejected statically; nothing to promise
        }
        let doc = document(rng);
        gql::xmlgl::run(&program, &doc)
            .unwrap_or_else(|e| panic!("accepted program failed to evaluate: {e}\n{src}"));
    });
}

// ----------------------------------------------------------------------
// Indexed evaluation fast path
// ----------------------------------------------------------------------

/// The matcher (postings candidates, interval range lookups, hashed joins)
/// agrees exactly with the reference enumerator, which shares no code with
/// it — same bindings, same order — and a whole program's `run` is
/// `construct_rule` over those tables, rule by rule.
#[test]
fn indexed_evaluation_matches_the_reference() {
    use gql::analyze::Analyzer;
    use gql::xmlgl::eval::{construct_rule, match_rule_in, JoinPlan};
    use gql_testkit::reference::check_table;
    check("indexed_evaluation_matches_the_reference", 96, |rng| {
        let src = gen_xmlgl(rng);
        let program = gql::xmlgl::dsl::parse_unchecked(&src)
            .unwrap_or_else(|e| panic!("generator produced invalid syntax: {e}\n{src}"));
        if Analyzer::new().analyze_xmlgl(&program).has_errors() {
            return; // statically rejected
        }
        let doc = document(rng);
        let idx = gql::ssdm::DocIndex::build(&doc);
        let mut constructed = Document::new();
        for rule in &program.rules {
            let table = match_rule_in(rule, &doc, &idx, &JoinPlan::new(rule, None), RunCtx::none());
            check_table(rule, &doc, &table)
                .unwrap_or_else(|e| panic!("bindings diverged: {e}\n{src}"));
            construct_rule(rule, &doc, &table, &mut constructed).expect("construct");
        }
        let run = gql::xmlgl::run(&program, &doc).expect("indexed run");
        assert_eq!(
            run.to_xml_string(),
            constructed.to_xml_string(),
            "result documents diverged for\n{src}"
        );
    });
}

/// The shapes where a column holding more elements than match would give a
/// wrong table — because a negation complements it, or a parent reads it by
/// child link — each against the reference, which shares no code with the
/// matcher.
#[test]
fn exact_columns_match_the_reference() {
    use gql::xmlgl::eval::{match_rule_in, JoinPlan};
    use gql_testkit::reference::check_table;
    let cases = [
        // One `b`'s `c` and `d` out of sibling order: only that `a` has no
        // `b [ c d ]`, and only it matches.
        (
            "a as $x { not b [ c d ] }",
            "<r><a><b><d/><c/></b></a><a><b><c/><d/></b></a><a><b><c/></b><b><d/></b></a></r>",
        ),
        (
            "r { a [ b c ] }",
            "<r><a><c/><b/><c/></a><a><c/><b/></a></r>",
        ),
        // A tag nested in itself under child edges.
        ("a as $x { a as $y { b } }", "<a><a><a><b/></a></a></a>"),
        ("a as $x { not a { b } }", "<a><a><a><b/></a></a></a>"),
        // A deep text circle with a predicate, under negation and not.
        (
            "a as $x { not deep text = \"t\" }",
            "<r><a>t</a><a><b>t</b></a><a><b>u</b></a><a>u<b/></a></r>",
        ),
        (
            "a as $x { deep text as $t > \"2\" }",
            "<r><a>1<b>3</b><b>x</b></a><a><a>5</a></a></r>",
        ),
        // A wildcard box with an attribute circle.
        (
            "* as $x { @k = \"v\" }",
            "<r k='v'><a k='w'/><b k='v'><c/></b><c k='v'/></r>",
        ),
        (
            "* as $x { not @k * as $y { @k as $v } }",
            "<r><a k='1'/><b><c k='2'/></b></r>",
        ),
    ];
    for (extract, xml) in cases {
        let src = format!("rule {{ extract {{ {extract} }} construct {{ out {{ }} }} }}");
        let program = gql::xmlgl::dsl::parse_unchecked(&src).unwrap();
        let (rule, doc) = (&program.rules[0], Document::parse_str(xml).unwrap());
        let idx = gql::ssdm::DocIndex::build(&doc);
        let table = match_rule_in(rule, &doc, &idx, &JoinPlan::new(rule, None), RunCtx::none());
        assert!(
            !table.is_empty() || extract.contains("not b"),
            "{extract}: no rows"
        );
        check_table(rule, &doc, &table).unwrap_or_else(|e| panic!("{extract} over {xml}: {e}"));
    }
}

/// Two-root joined rules take the hash join; its table is the reference's
/// nested-loop join, on join columns that bind nodes and on columns that
/// bind text values.
#[test]
fn indexed_joins_match_the_reference() {
    use gql::xmlgl::builder::{RuleBuilder, C, Q};
    use gql::xmlgl::eval::{match_rule_in, JoinPlan};
    use gql_testkit::reference::check_table;
    check("indexed_joins_match_the_reference", 96, |rng| {
        let doc = document(rng);
        let (t1, t2) = (pick(rng, TAGS), pick(rng, TAGS));
        let rule = if rng.gen_bool(0.5) {
            // Node-valued join columns.
            RuleBuilder::new()
                .extract(Q::elem(t1).var("a"))
                .extract(Q::elem(t2).var("b"))
                .join("a", "b")
                .construct(C::elem("out").child(C::all("a")))
                .build()
                .expect("builds")
        } else {
            // Text-valued join columns.
            RuleBuilder::new()
                .extract(Q::elem(t1).child(Q::text().var("a")))
                .extract(Q::elem(t2).child(Q::text().var("b")))
                .join("a", "b")
                .construct(C::elem("out"))
                .build()
                .expect("builds")
        };
        let idx = gql::ssdm::DocIndex::build(&doc);
        let table = match_rule_in(
            &rule,
            &doc,
            &idx,
            &JoinPlan::new(&rule, None),
            RunCtx::none(),
        );
        check_table(&rule, &doc, &table).unwrap_or_else(|e| panic!("{e}"));
    });
}

/// An `x` box's content before it is written down: attributes in set order
/// and children, a text or an empty `<y/>` each.
struct Shape {
    attrs: Vec<(&'static str, String)>,
    kids: Vec<Option<String>>,
}

/// How a twin of a [`Shape`] is written.
#[derive(Clone, Copy)]
enum Twin {
    Copy,
    /// Attributes reversed, a comment before every child, a PI after the
    /// last: deep-equal to the copy.
    Noisy,
    /// Two attributes, or a text and what follows it, spliced into one
    /// value around the separator the parent commit's canonical strings put
    /// between them: unequal to the copy, equal as such a string.
    Spliced,
}

fn write_shape(doc: &mut Document, parent: NodeId, shape: &Shape, twin: Twin) {
    let x = doc.add_element(parent, "x");
    let mut attrs: Vec<(&str, String)> = shape.attrs.clone();
    let mut kids = shape.kids.clone();
    match twin {
        Twin::Copy => {}
        Twin::Noisy => attrs.reverse(),
        Twin::Spliced => {
            let text_at = kids.windows(2).position(|w| w[0].is_some());
            if let [(a, v), (b, w)] = &attrs[..] {
                attrs = vec![(*a, format!("{v},{b}={w}"))];
            } else if let Some(i) = text_at {
                let next = match kids.remove(i + 1) {
                    Some(text) => format!("t:{text}"),
                    None => "e:y[]()".to_string(),
                };
                kids[i] = Some(format!("{},{next}", kids[i].as_deref().unwrap_or("")));
            }
        }
    }
    for (name, value) in &attrs {
        doc.set_attr(x, name, value).unwrap();
    }
    for kid in &kids {
        if let Twin::Noisy = twin {
            let c = doc.create_comment("c");
            doc.append_child(x, c).unwrap();
        }
        match kid {
            Some(text) => drop(doc.add_text(x, text)),
            None => drop(doc.add_element(x, "y")),
        }
    }
    if let Twin::Noisy = twin {
        let pi = doc.create_pi("pi", "d");
        doc.append_child(x, pi).unwrap();
    }
}

/// `<r><p>x…</p><q>x…</q></r>`: `p`'s boxes have texts and attribute values
/// over the punctuation a string encoding of subtrees is made of, and `q`
/// holds a twin of each, in the same order.
fn lookalikes(rng: &mut Rng) -> Document {
    let punct: Vec<char> = ",=()[]:ab".chars().collect();
    let mut doc = Document::new();
    let r = doc.add_element(doc.root(), "r");
    let (p, q) = (doc.add_element(r, "p"), doc.add_element(r, "q"));
    for _ in 0..rng.gen_range(1..5) {
        let mut attrs = Vec::new();
        for name in ["a", "b"] {
            if rng.gen_bool(0.6) {
                attrs.push((name, string_over(rng, &punct, 4)));
            }
        }
        let kids = (0..rng.gen_range(0..4))
            .map(|_| rng.gen_bool(0.7).then(|| string_over(rng, &punct, 4)))
            .collect();
        let shape = Shape { attrs, kids };
        let twin = [Twin::Copy, Twin::Noisy, Twin::Spliced][rng.gen_range(0..3)];
        write_shape(&mut doc, p, &shape, Twin::Copy);
        write_shape(&mut doc, q, &shape, twin);
    }
    doc
}

/// Deep equality (`gql_ssdm::index::subtree_eq`) is equality of the
/// reference's canonical trees (`gql_testkit::reference::tree`, built
/// apart), and canonically equal subtrees hash equal under `subtree_hash`.
#[test]
fn canonical_equality_implies_hash_equality() {
    use gql::ssdm::index::{subtree_eq, subtree_hash};
    use gql_testkit::reference::tree;
    check("canonical_equality_implies_hash_equality", 96, |rng| {
        for doc in [document(rng), lookalikes(rng)] {
            let nodes: Vec<NodeId> = doc.descendants_or_self(doc.root()).collect();
            let trees: Vec<_> = nodes.iter().map(|&n| tree(&doc, n)).collect();
            let hashes: Vec<u64> = nodes.iter().map(|&n| subtree_hash(&doc, n)).collect();
            for i in 0..nodes.len() {
                for j in 0..nodes.len() {
                    let (a, b) = (nodes[i], nodes[j]);
                    assert_eq!(subtree_eq(&doc, a, b), trees[i] == trees[j], "{a:?} {b:?}");
                    if trees[i] == trees[j] {
                        assert_eq!(hashes[i], hashes[j], "{a:?} vs {b:?}");
                    }
                }
            }
        }
    });
}

/// Box joins and box `group by` over [`lookalikes`], held to the reference:
/// the join's table row for row, the grouping as the reference's trees
/// partition the bound boxes.
#[test]
fn box_joins_and_groups_agree_with_the_reference_on_lookalikes() {
    use gql::xmlgl::eval::{match_rule_in, JoinPlan};
    use gql_testkit::reference::{check_table, tree};
    let join = gql::xmlgl::dsl::parse(
        "rule { extract { p { x as $a }  q { x as $b }  join $a == $b } \
                construct { hit { copy $a } } }",
    )
    .unwrap();
    let group = gql::xmlgl::dsl::parse(
        "rule { extract { x as $a } construct { out { all $a group by $a as g } } }",
    )
    .unwrap();
    check(
        "box_joins_and_groups_agree_with_the_reference_on_lookalikes",
        96,
        |rng| {
            let doc = lookalikes(rng);
            let idx = gql::ssdm::DocIndex::build(&doc);
            let rule = &join.rules[0];
            let table = match_rule_in(rule, &doc, &idx, &JoinPlan::new(rule, None), RunCtx::none());
            check_table(rule, &doc, &table)
                .unwrap_or_else(|e| panic!("{e}\n{}", doc.to_xml_string()));

            // The reference's grouping: every `x` in document order, grouped by
            // tree in order of first occurrence, each group under a `g` keyed by
            // its first member's string value.
            let mut groups: Vec<Vec<NodeId>> = Vec::new();
            for x in doc.elements_named("x") {
                match groups
                    .iter_mut()
                    .find(|g| tree(&doc, g[0]) == tree(&doc, x))
                {
                    Some(g) => g.push(x),
                    None => groups.push(vec![x]),
                }
            }
            let mut expected = Document::new();
            let out = expected.add_element(expected.root(), "out");
            for members in &groups {
                let g = expected.add_element(out, "g");
                expected
                    .set_attr(g, "key", &doc.text_content(members[0]))
                    .unwrap();
                for &m in members {
                    let copy = expected.import_subtree(&doc, m);
                    expected.append_child(g, copy).unwrap();
                }
            }
            let expected = expected.to_xml_string();
            let indexed = gql::xmlgl::run(&group, &doc).unwrap();
            assert_eq!(
                indexed.to_xml_string(),
                expected,
                "indexed\n{}",
                doc.to_xml_string()
            );
        },
    );
}

/// Same promise for WG-Log: analyzer-clean programs run to fixpoint. Uses
/// the fuzzer's WG-Log generator (regular paths, wildcards, `set` and all).
#[test]
fn zero_error_wglog_programs_evaluate() {
    use gql::analyze::Analyzer;
    use gql_testkit::generators::gen_wglog;
    check("zero_error_wglog_programs_evaluate", 192, |rng| {
        let src = gen_wglog(rng);
        let program = gql::wglog::dsl::parse_unchecked(&src)
            .unwrap_or_else(|e| panic!("generator produced invalid syntax: {e}\n{src}"));
        let report = Analyzer::new().analyze_wglog(&program);
        if report.has_errors() {
            return;
        }
        let db = gql::wglog::Instance::from_document(&document(rng));
        gql::wglog::eval::run(&program, &db)
            .unwrap_or_else(|e| panic!("accepted program failed to evaluate: {e}\n{src}"));
    });
}

/// Object types and edge labels of `generator::webgraph` documents under
/// the instance mapping (`link`/`index` children are objects whose `ref`
/// edge closes the cycles).
const WEB_TYPES: &[&str] = &["doc", "link", "index", "web"];
const WEB_LABELS: &[&str] = &["link", "index", "ref", "doc"];

/// Recursion through derived edges between base objects, over cycles: the
/// case where every round reads base and delta together.
const WEB_CLOSURE: &str = "\
    rule { query { $a: doc  $l: link  $b: doc  $a -link-> $l  $l -ref-> $b } \
           construct { $a -reach-> $b } } \
    rule { query { $a: doc  $b: doc  $c: doc  $a -reach-> $b  $b -reach-> $c } \
           construct { $a -reach-> $c } } \
    rule { query { $a: doc  $a -reach-> $a } \
           construct { $c: cyclic per $a set title = $a.title  $c -of-> $a } } \
    goal cyclic";

/// One generated `(instance, program)` case: half of them a tree, half a
/// cyclic ID/IDREF web graph with a program over its vocabulary (every
/// other one the recursive closure).
fn layering_case(rng: &mut Rng) -> (gql::wglog::Instance, String) {
    use gql::ssdm::generator::{webgraph, WebConfig};
    use gql_testkit::generators::{gen_wglog, gen_wglog_over};
    let shape = rng.gen_range(0..4);
    if shape < 2 {
        let db = gql::wglog::Instance::from_document(&document(rng));
        return (db, gen_wglog(rng));
    }
    let doc = webgraph(WebConfig {
        docs: rng.gen_range(2..14),
        links_per_doc: rng.gen_range(1..4),
        index_percent: 40,
        seed: rng.next_u64(),
    });
    let src = if shape == 2 {
        WEB_CLOSURE.to_string()
    } else {
        gen_wglog_over(rng, WEB_TYPES, WEB_LABELS)
    };
    (gql::wglog::Instance::from_document(&doc), src)
}

/// The layered instance is unobservable: a run over the loaded, shared
/// instance equals a run over a flat private rebuild — stats, content,
/// order and bytes, in both fixpoint modes — and once the results are
/// gone the loaded instance is untouched and solely held again.
#[test]
fn wglog_runs_over_a_shared_instance_match_a_private_rebuild() {
    check(
        "wglog_runs_over_a_shared_instance_match_a_private_rebuild",
        192,
        |rng| {
            let (db, src) = layering_case(rng);
            let program = gql::wglog::dsl::parse_unchecked(&src)
                .unwrap_or_else(|e| panic!("generator produced invalid syntax: {e}\n{src}"));
            let size = (db.object_count(), db.edge_count());
            gql_testkit::oracle::check_wglog_layering(&db, &program)
                .unwrap_or_else(|e| panic!("{e}\n{src}"));
            assert_eq!((db.object_count(), db.edge_count()), size);
            assert_eq!(db.delta_counts(), (0, 0));
            assert_eq!(db.base_holders(), 1);
        },
    );
}

/// Set-at-a-time XPath evaluation is unobservable: `//Name[p]` steps taken
/// off the postings (prebuilt index) or a name-filtered walk (lazy), and
/// absolute paths inside predicates evaluated once, return what the
/// textbook evaluator (`gql_testkit::reference::xpath`) returns step by step
/// and candidate by candidate — over trees and over cyclic ID/IDREF web
/// graphs, for generated paths whose predicates mix positional and
/// position-free forms. On a web graph, `id()` follows `ref` attributes to
/// the elements whose `id` they name.
#[test]
fn xpath_set_at_a_time_equals_the_reference_evaluator() {
    use gql::ssdm::generator::{webgraph, WebConfig};
    use gql_testkit::generators::{gen_xpath, gen_xpath_over, XPathVocab};
    let web = XPathVocab {
        tags: &["doc", "link", "index", "title", "web"],
        attrs: &["id", "ref"],
        values: &["d0", "d1", "d2", "d3"],
    };
    let followed_refs = std::cell::Cell::new(0);
    check(
        "xpath_set_at_a_time_equals_the_reference_evaluator",
        384,
        |rng| {
            let (doc, src) = if rng.gen_bool(0.5) {
                (document(rng), gen_xpath(rng))
            } else {
                let doc = webgraph(WebConfig {
                    docs: rng.gen_range(2..14),
                    links_per_doc: rng.gen_range(1..4),
                    index_percent: 40,
                    seed: rng.next_u64(),
                });
                let mut src = gen_xpath_over(rng, &web);
                // A quarter of the plain paths follow every reference they
                // reach.
                if src.starts_with('/') && !src.contains(" | ") && rng.gen_bool(0.25) {
                    src = format!("id({src}/@ref)");
                }
                if src.contains("id(") {
                    followed_refs.set(followed_refs.get() + 1);
                }
                (doc, src)
            };
            let expr = gql::xpath::parse(&src)
                .unwrap_or_else(|e| panic!("generator produced invalid syntax: {e}\n{src}"));
            // Debug text, so that NaN equals NaN; errors compare as errors.
            let show =
                |r: gql::xpath::Result<gql::xpath::XValue>| format!("{:?}", r.map_err(|_| ()));
            let reference = show(gql_testkit::reference::xpath::evaluate(&doc, &expr));
            let idx = gql::ssdm::DocIndex::build(&doc);
            assert_eq!(
                show(gql::xpath::evaluate(&doc, &expr)),
                reference,
                "lazy: {src}"
            );
            assert_eq!(
                show(gql::xpath::evaluate_with_index(&doc, &expr, &idx)),
                reference,
                "indexed: {src}"
            );
        },
    );
    let replaying = std::env::var("GQL_REPLAY_SEED").is_ok();
    assert!(
        replaying || followed_refs.get() > 0,
        "no web case called id()"
    );
}

/// Eight threads released together, each running a different program over
/// the one shared instance, produce the bytes a serial run produces.
#[test]
fn wglog_concurrent_runs_over_one_instance_match_serial() {
    use gql::ssdm::generator::{webgraph, WebConfig};
    use gql::wglog::eval::{run_with, FixpointMode};
    use gql_testkit::generators::gen_wglog_over;
    const THREADS: usize = 8;
    let db = gql::wglog::Instance::from_document(&webgraph(WebConfig {
        docs: 40,
        ..WebConfig::default()
    }));
    let mut rng = gql_testkit::case_rng(12);
    let programs: Vec<gql::wglog::rule::Program> = (0..THREADS)
        .map(|i| {
            let src = if i == 0 {
                WEB_CLOSURE.to_string()
            } else {
                gen_wglog_over(&mut rng, WEB_TYPES, WEB_LABELS)
            };
            gql::wglog::dsl::parse_unchecked(&src).expect("generated program parses")
        })
        .collect();
    let answer = |program: &gql::wglog::rule::Program| {
        let goal = program.goal.as_deref().unwrap_or("answer");
        run_with(program, &db, FixpointMode::SemiNaive)
            .map(|(out, stats)| (out.to_document("answer", goal, 2).to_xml_string(), stats))
            .map_err(|e| e.to_string())
    };
    let serial: Vec<_> = programs.iter().map(answer).collect();
    assert!(serial[0]
        .as_ref()
        .is_ok_and(|(xml, _)| xml.contains("<cyclic>")));
    let barrier = std::sync::Barrier::new(THREADS);
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = programs
            .iter()
            .map(|program| {
                scope.spawn(|| {
                    barrier.wait();
                    answer(program)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("evaluation thread panicked"))
            .collect()
    });
    assert_eq!(concurrent, serial);
    assert_eq!(db.base_holders(), 1);
    assert_eq!(db.delta_counts(), (0, 0));
}

// ----------------------------------------------------------------------
// Resource governance (gql-guard)
// ----------------------------------------------------------------------

/// Budget-boundary property: a budget is a *cap*, never an influence. Any
/// query that completes under budget B must return byte-identical results
/// under budget 2B and under no budget at all — headroom may not change an
/// answer. Trips under B are fine (that is what budgets are for); the only
/// forbidden outcome is completing with different bytes.
#[test]
fn completing_under_a_budget_is_headroom_invariant() {
    check(
        "completing_under_a_budget_is_headroom_invariant",
        48,
        |rng| {
            let seed = rng.next_u64();
            for g in Generator::ALL {
                let (doc_xml, query) = case_inputs(g, seed);
                let Ok(doc) = Document::parse_str(&doc_xml) else {
                    continue;
                };
                let m = rng.gen_range(1..400) as u64;
                let r = rng.gen_range(1..12) as u64;
                let budget = Budget::unlimited().with_max_matches(m).with_max_rounds(r);
                let double = Budget::unlimited()
                    .with_max_matches(m * 2)
                    .with_max_rounds(r * 2);
                for kind in query_kinds(g, &query) {
                    let engine = Engine::new();
                    let bounded = |budget: &Budget| {
                        let guard = Guard::new(budget.clone());
                        engine.execute(&kind, &doc, RunCtx::guarded(&guard))
                    };
                    let under_b = match bounded(&budget) {
                        Ok(out) => out,
                        Err(_) => continue, // tripped or rejected: vacuous here
                    };
                    let under_2b = bounded(&double).unwrap_or_else(|e| {
                        panic!("completed under B but tripped under 2B: {e}\n{query}")
                    });
                    let unlimited = engine.run(&kind, &doc).unwrap_or_else(|e| {
                        panic!("completed under B but failed unbounded: {e}\n{query}")
                    });
                    assert_eq!(
                        under_b.output.to_xml_string(),
                        under_2b.output.to_xml_string(),
                        "doubling the budget changed the answer\n{query}"
                    );
                    assert_eq!(
                        under_b.output.to_xml_string(),
                        unlimited.output.to_xml_string(),
                        "removing the budget changed the answer\n{query}"
                    );
                }
            }
        },
    );
}

/// Join-order quality on the T5/Q6 family (value-joined product/vendor
/// extracts over greengrocer documents of varying size, vendor pool and
/// country selectivity): the cost-chosen order from `gql-plan` may never
/// lose to the declared order by more than a bounded factor of *join
/// work* — hash-join row/probe counts from the trace, not wall clock, so
/// the property is exact and machine-independent. Results themselves must
/// be byte-identical under any order.
#[test]
fn cost_planned_order_is_work_bounded_on_q6_family() {
    use gql::ssdm::generator::{greengrocer, GrocerConfig};
    use gql::ssdm::{DocIndex, Summary};
    use gql::trace::{ExecutionProfile, ProfileNode, Trace};
    use gql::xmlgl::eval::{match_rule_in, JoinPlan};

    /// Total hash-join work in a profile: rows flowing into combines plus
    /// probe count, summed over every span.
    fn join_work(profile: &ExecutionProfile) -> u64 {
        fn walk(node: &ProfileNode, total: &mut u64) {
            for (name, value) in &node.counters {
                if matches!(name.as_str(), "left_rows" | "right_rows" | "probes") {
                    *total += value;
                }
            }
            for child in &node.children {
                walk(child, total);
            }
        }
        let mut total = 0;
        for root in &profile.roots {
            walk(root, &mut total);
        }
        total
    }

    check(
        "cost_planned_order_is_work_bounded_on_q6_family",
        32,
        |rng| {
            let cfg = GrocerConfig {
                products: 10 + rng.gen_range(0..110),
                vendors: 1 + rng.gen_range(0..6),
                seed: rng.next_u64(),
            };
            let country = pick(rng, &["holland", "france", "italy", "japan", "germany"]);
            let src = format!(
                r#"rule {{ extract {{
                    product as $p {{ vendor {{ text as $v1 }} }}
                    vendor as $w {{ country {{ text = "{country}" }}
                                   name {{ text as $v2 }} }}
                    join $v1 == $v2 }}
                  construct {{ answer {{ all $p }} }} }}"#
            );
            let program = gql::xmlgl::dsl::parse(&src).expect("Q6-family program parses");
            let rule = &program.rules[0];
            let doc = greengrocer(cfg);
            let idx = DocIndex::build(&doc);
            let summary = Summary::from_index(&doc, &idx);
            let inference = gql::infer::infer_xmlgl(&program, &summary);
            let Some(cost_order) = gql::plan::plan_rule_order(rule, &inference.root_bounds[0])
            else {
                return; // not reorderable: declared order is the plan, vacuous
            };
            let run = |order: &[usize]| {
                let trace = Trace::profiling();
                let plan = JoinPlan::new(rule, Some(order));
                let bindings = match_rule_in(rule, &doc, &idx, &plan, RunCtx::traced(&trace));
                let profile = trace.finish().expect("profiling trace yields a profile");
                (bindings, profile)
            };
            let declared: Vec<usize> = (0..rule.extract.roots.len()).collect();
            let (declared_bindings, declared_profile) = run(&declared);
            let (cost_bindings, cost_profile) = run(&cost_order);
            assert_eq!(
                declared_bindings, cost_bindings,
                "join order {cost_order:?} changed the binding set"
            );
            let (declared_work, cost_work) =
                (join_work(&declared_profile), join_work(&cost_profile));
            assert!(
                cost_work <= 2 * declared_work + 64,
                "cost order {cost_order:?} did {cost_work} join work vs {declared_work} declared \
             (bound: 2x + 64) on {} products / {} vendors / {country}",
                cfg.products,
                cfg.vendors
            );
        },
    );
}

/// Budget-trip determinism: for a fixed seed and a time-free budget that
/// trips in a sequential phase (round caps — WG-Log's fixpoint and XPath's
/// step loop are sequential), the partial-progress report is a pure
/// function of the inputs: two runs produce identical `shape()` strings
/// (the deterministic rendering, which excludes elapsed time).
#[test]
fn budget_trip_reports_are_deterministic_for_a_fixed_seed() {
    check(
        "budget_trip_reports_are_deterministic_for_a_fixed_seed",
        48,
        |rng| {
            let seed = rng.next_u64();
            let budget = Budget::unlimited().with_max_rounds(1);
            for g in [Generator::WgLog, Generator::XPath] {
                let (doc_xml, query) = case_inputs(g, seed);
                let Ok(doc) = Document::parse_str(&doc_xml) else {
                    continue;
                };
                for kind in query_kinds(g, &query) {
                    let trip = |engine: &Engine| {
                        let guard = Guard::new(budget.clone());
                        match engine.execute(&kind, &doc, RunCtx::guarded(&guard)) {
                            Err(CoreError::Budget(e)) => Some(e.shape()),
                            _ => None,
                        }
                    };
                    let first = trip(&Engine::new());
                    let second = trip(&Engine::new());
                    assert_eq!(
                        first, second,
                        "trip report changed between identical runs\n{query}"
                    );
                }
            }
        },
    );
}

// ----------------------------------------------------------------------
// Answer sinks
// ----------------------------------------------------------------------

/// The served answer is the library's: for every generated program of every
/// surface, and every case of the regression corpus, a run written through
/// `execute_into(XmlSink)` gives the bytes of `execute(..).output`, the same
/// `result_count`, the same profile shape under an enabled trace
/// (`nodes_built`, `results` and every other counter), and under round and
/// node budgets the same trip report.
#[test]
fn the_two_sinks_give_one_answer() {
    use gql_testkit::oracle::check_sinks_case;

    check("the_two_sinks_give_one_answer", 96, |rng| {
        let seed = rng.next_u64();
        for g in Generator::ALL {
            let (doc_xml, query) = case_inputs(g, seed);
            let Ok(doc) = Document::parse_str(&doc_xml) else {
                continue;
            };
            for kind in query_kinds(g, &query) {
                if let Err(msg) = check_sinks_case(&doc, &kind) {
                    panic!("{msg}\n{doc_xml}\n{query}");
                }
            }
        }
    });
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = gql_testkit::corpus::load_dir(&corpus).expect("corpus directory loads");
    assert!(!cases.is_empty(), "tests/corpus/ holds no .case files");
    // A case stored with a budget does not end without it.
    for (path, case) in cases.iter().filter(|(_, case)| case.budget.is_none()) {
        let doc = Document::parse_str(&case.doc).expect("corpus documents parse");
        let kind = case.query_kind().expect("corpus queries parse");
        if let Err(msg) = check_sinks_case(&doc, &kind) {
            panic!("{}: {msg}", path.display());
        }
    }
}

/// A preloaded engine never serves a stale structure: after random
/// `set_attr`, text-replacing and `append_child` steps on the document an
/// engine has preloaded, the engine's run of every surface equals a cold
/// engine's. Before each step the engine preloads the document as it is
/// half the time, so a step often changes a document just made resident.
/// The steps change values deep in the tree, which leave the node count,
/// the root level and often the content fingerprint as they were.
#[test]
fn warm_runs_after_in_place_mutations_equal_cold_runs() {
    use gql::core::QueryKind;
    use gql::ssdm::generator::{cityguide, CityConfig};
    const VALUES: [&str; 3] = ["ZZZ", "italian", "Milano"];
    let queries = [
        QueryKind::XPath("//restaurant".to_string()),
        QueryKind::XPath("//restaurant[name='ZZZ' or @name='ZZZ']".to_string()),
        QueryKind::XmlGl(
            gql::xmlgl::dsl::parse(
                "rule { extract { restaurant as $r } construct { answer { all $r } } }",
            )
            .unwrap(),
        ),
        QueryKind::XmlGl(
            gql::xmlgl::dsl::parse(
                r#"rule { extract { restaurant as $r { name { text as $n = "ZZZ" } } }
                          construct { answer { all $r } } }"#,
            )
            .unwrap(),
        ),
        QueryKind::WgLog(
            gql::wglog::dsl::parse(
                "rule { query { $r: restaurant } construct { $l: answer $l -member-> $r } } \
                 goal answer",
            )
            .unwrap(),
        ),
        QueryKind::WgLog(
            gql::wglog::dsl::parse(
                r#"rule { query { $r: restaurant where name = "ZZZ" }
                          construct { $l: answer $l -member-> $r } } goal answer"#,
            )
            .unwrap(),
        ),
    ];
    check(
        "warm_runs_after_in_place_mutations_equal_cold_runs",
        48,
        |rng| {
            let mut city = cityguide(CityConfig {
                restaurants: rng.gen_range(2..10),
                hotels: rng.gen_range(0..3),
                seed: rng.next_u64(),
            });
            let mut warm = Engine::new();
            for step in 0..rng.gen_range(1..6) {
                if rng.gen_bool(0.5) {
                    warm.preload(&city);
                }
                let nodes: Vec<NodeId> = city.descendants_or_self(city.root()).collect();
                let elements: Vec<NodeId> = (nodes.iter().copied())
                    .filter(|&n| city.kind(n) == NodeKind::Element)
                    .collect();
                let value = VALUES[rng.gen_range(0..VALUES.len())];
                let el = elements[rng.gen_range(0..elements.len())];
                match rng.gen_range(0..3) {
                    0 => {
                        let name = ["name", "category", "id"][rng.gen_range(0..3)];
                        city.set_attr(el, name, value).unwrap();
                    }
                    // The document has no text setter: a text child is
                    // replaced by a new one.
                    1 => {
                        let texts: Vec<NodeId> = (nodes.iter().copied())
                            .filter(|&n| city.kind(n) == NodeKind::Text)
                            .collect();
                        let text = texts[rng.gen_range(0..texts.len())];
                        let parent = city.parent(text).expect("a text in the tree");
                        city.detach(text).unwrap();
                        city.add_text(parent, value);
                    }
                    // A new restaurant, or an existing element moved; a move
                    // the document refuses (into its own subtree) changes
                    // nothing.
                    _ => {
                        let child = if rng.gen_bool(0.5) {
                            let r = city.create_element("restaurant");
                            city.add_text_element(r, "name", value);
                            r
                        } else {
                            let moved = elements[rng.gen_range(1..elements.len())];
                            city.detach(moved).unwrap();
                            moved
                        };
                        if city.append_child(el, child).is_err() {
                            let parent = city.root_element().expect("a guide");
                            _ = city.append_child(parent, child);
                        }
                    }
                }
                for q in &queries {
                    let cold = Engine::new().run(q, &city).unwrap().output.to_xml_string();
                    let got = warm.run(q, &city).unwrap().output.to_xml_string();
                    assert_eq!(got, cold, "step {step}, {q:?}");
                }
            }
        },
    );
}
