//! Streaming XML processing — parse events without building a document.
//!
//! The survey chapter highlights research on evaluating XPath over SAX
//! streams ("no in-memory representation … highly relevant for very large
//! databases"). This module provides that substrate:
//!
//! * [`EventReader`] — a pull parser yielding owned [`Event`]s in constant
//!   memory w.r.t. document size (the open-element stack is the only
//!   growth). It reads no bytes itself: it and [`crate::xml::parse`] consume
//!   the tokens of the crate's one XML reader, so "the same XML subset" —
//!   the texts accepted, the message and position of every refusal, the
//!   [`crate::xml::MAX_DEPTH`] nesting bound — holds by construction. Unlike
//!   the DOM parser it drops nothing: whitespace-only character data is a
//!   [`Event::Text`] like any other;
//! * [`StreamPath`] — a streaming evaluator for the navigational core
//!   (`/a/b//c`-style paths of child and descendant steps over element
//!   names and `*`), implemented as the classic stack-of-state-sets
//!   construction, straight over the borrowed tokens.
//!
//! The DOM engine (`gql-xpath`) and [`StreamPath`] agree on this fragment;
//! the property tests pin that equivalence.

use crate::error::{Error, Result};
use crate::token::{Token, Tokenizer};

/// One parse event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Start tag with decoded attributes.
    Start {
        name: String,
        attrs: Vec<(String, String)>,
    },
    /// End tag (also emitted for self-closing elements).
    End {
        name: String,
    },
    /// Text content (entity-decoded; whitespace-only runs included). A CDATA
    /// section is a `Text` of its own.
    Text(String),
    Comment(String),
    Pi {
        target: String,
        data: String,
    },
}

/// Pull parser over an XML string.
pub struct EventReader<'a> {
    tokens: Tokenizer<'a>,
    /// Set by the first error: the stream ends there.
    failed: bool,
}

impl<'a> EventReader<'a> {
    pub fn new(input: &'a str) -> Self {
        EventReader {
            tokens: Tokenizer::new(input),
            failed: false,
        }
    }

    /// Next event, or `None` at clean end of input.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<Event>> {
        if self.failed {
            return None;
        }
        let event = self.advance().transpose();
        self.failed = matches!(event, Some(Err(_)));
        event
    }

    fn advance(&mut self) -> Result<Option<Event>> {
        let Some(token) = self.tokens.next()? else {
            return Ok(None);
        };
        Ok(Some(match token {
            Token::Start(name) => {
                let mut attrs = Vec::new();
                while let Some((attr, value)) = self.tokens.next_attr()? {
                    attrs.push((attr.to_string(), value.into_owned()));
                }
                Event::Start {
                    name: name.to_string(),
                    attrs,
                }
            }
            Token::End(name) => Event::End {
                name: name.to_string(),
            },
            Token::Text(text) => Event::Text(text.into_owned()),
            Token::CData(text) => Event::Text(text.to_string()),
            Token::Comment(text) => Event::Comment(text.to_string()),
            Token::Pi { target, data } => Event::Pi {
                target: target.to_string(),
                data: data.to_string(),
            },
        }))
    }

    /// Current open-element depth.
    pub fn depth(&self) -> usize {
        self.tokens.depth()
    }
}

impl Iterator for EventReader<'_> {
    type Item = Result<Event>;

    fn next(&mut self) -> Option<Self::Item> {
        EventReader::next(self)
    }
}

// ----------------------------------------------------------------------
// Streaming path evaluation
// ----------------------------------------------------------------------

/// One step of a streaming path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStep {
    /// `true` = descendant-or-further (the step crossed a `//`).
    pub deep: bool,
    /// Element name, or `None` for `*`.
    pub name: Option<String>,
}

/// A compiled streaming path: the navigational fragment `/a/b//c` (child
/// and descendant steps, names and `*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamPath {
    /// `true` when the path starts with `//` (first step at any depth).
    root_deep: bool,
    steps: Vec<StreamStep>,
}

impl StreamPath {
    /// Parse a path: `/a/b`, `//a//b`, `/a/*//c`.
    pub fn parse(path: &str) -> Result<StreamPath> {
        let mut rest = path;
        let root_deep = if let Some(r) = rest.strip_prefix("//") {
            rest = r;
            true
        } else if let Some(r) = rest.strip_prefix('/') {
            rest = r;
            false
        } else {
            // Relative paths bind at the root element, same as absolute.
            false
        };
        if rest.is_empty() {
            return Err(Error::structure("empty streaming path"));
        }
        if rest.ends_with('/') {
            return Err(Error::structure("trailing '/' in streaming path"));
        }
        let mut steps = Vec::new();
        let mut deep = root_deep;
        let mut first = true;
        for part in rest.split('/') {
            if part.is_empty() {
                // A `//` separator: the *next* step is deep.
                deep = true;
                continue;
            }
            steps.push(StreamStep {
                deep: if first { root_deep } else { deep },
                name: if part == "*" {
                    None
                } else {
                    Some(part.to_string())
                },
            });
            deep = false;
            first = false;
        }
        if steps.is_empty() {
            return Err(Error::structure("empty streaming path"));
        }
        Ok(StreamPath { root_deep, steps })
    }

    /// Run over a document text, returning the number of matching elements
    /// and the concatenated text content of each match.
    ///
    /// Memory: O(depth × path length) — the defining property of streaming
    /// evaluation, irrespective of document length.
    pub fn run(&self, input: &str) -> Result<StreamOutcome> {
        // Active state-sets per open element. A state `i` means "the first
        // i steps are matched by ancestors". State = steps.len() is a match.
        let nsteps = self.steps.len();
        let mut stack: Vec<Vec<usize>> = Vec::new();
        // Open captures: (depth of the matched element, index into captures),
        // the depth being `stack`'s length with the element on it.
        let mut capturing: Vec<(usize, usize)> = Vec::new();
        let mut captures: Vec<String> = Vec::new();
        let mut count = 0usize;
        let mut tokens = Tokenizer::new(input);
        while let Some(token) = tokens.next()? {
            match token {
                Token::Start(name) => {
                    // States active for children of the parent.
                    let parent_states: Vec<usize> = match stack.last() {
                        Some(s) => s.clone(),
                        None => vec![0],
                    };
                    let mut here = Vec::new();
                    for &st in &parent_states {
                        if st < nsteps {
                            let step = &self.steps[st];
                            let name_ok = step.name.as_deref().is_none_or(|n| n == name);
                            if name_ok {
                                push_unique(&mut here, st + 1);
                            }
                            // Deep steps stay available below.
                            if step.deep {
                                push_unique(&mut here, st);
                            }
                        }
                    }
                    if here.contains(&nsteps) {
                        count += 1;
                        capturing.push((stack.len() + 1, captures.len()));
                        captures.push(String::new());
                        // A full match cannot extend further; drop the
                        // terminal state from propagation.
                        here.retain(|&s| s != nsteps);
                    }
                    stack.push(here);
                }
                Token::End(_) => {
                    if capturing.last().map(|&(d, _)| d) == Some(stack.len()) {
                        capturing.pop();
                    }
                    stack.pop();
                }
                Token::Text(t) => capture_text(&capturing, &mut captures, &t),
                Token::CData(t) => capture_text(&capturing, &mut captures, t),
                Token::Comment(_) | Token::Pi { .. } => {}
            }
        }
        Ok(StreamOutcome {
            count,
            texts: captures,
        })
    }
}

/// Text belongs to every open capture (nested matches each collect it,
/// matching `text_content`).
fn capture_text(capturing: &[(usize, usize)], captures: &mut [String], text: &str) {
    for &(_, idx) in capturing {
        captures[idx].push_str(text);
    }
}

fn push_unique(v: &mut Vec<usize>, x: usize) {
    if !v.contains(&x) {
        v.push(x);
    }
}

/// Result of a streaming run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Number of elements matched.
    pub count: usize,
    /// Text content of each match, in document order of the start tags.
    pub texts: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(src: &str) -> Vec<Event> {
        EventReader::new(src).collect::<Result<Vec<_>>>().unwrap()
    }

    #[test]
    fn event_sequence() {
        let evs = events("<a x='1'>hi<b/></a>");
        assert_eq!(
            evs,
            vec![
                Event::Start {
                    name: "a".into(),
                    attrs: vec![("x".into(), "1".into())]
                },
                Event::Text("hi".into()),
                Event::Start {
                    name: "b".into(),
                    attrs: vec![]
                },
                Event::End { name: "b".into() },
                Event::End { name: "a".into() },
            ]
        );
    }

    #[test]
    fn entities_comments_pis_cdata() {
        let evs = events("<a>&lt;&#65;<!--c--><?p d?><![CDATA[<x>]]></a>");
        assert_eq!(evs[1], Event::Text("<A".into()));
        assert_eq!(evs[2], Event::Comment("c".into()));
        assert_eq!(
            evs[3],
            Event::Pi {
                target: "p".into(),
                data: "d".into()
            }
        );
        assert_eq!(evs[4], Event::Text("<x>".into()));
    }

    #[test]
    fn errors_surface() {
        for bad in [
            "<a><b></a>",
            "<a>",
            "</a>",
            "<a></a><b/>",
            "<a>x</a>y",
            // Comments and PIs may trail the root, further elements may not.
            "<a/><!--c--><b/>",
            "<a/><?pi d?><b/>",
        ] {
            let result: Result<Vec<Event>> = EventReader::new(bad).collect();
            assert!(result.is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn agrees_with_dom_parser_on_generated_docs() {
        let doc = crate::generator::bibliography(crate::generator::BibConfig {
            books: 10,
            people: 5,
            seed: 1,
        });
        let xml = doc.to_xml_string();
        // Start events = number of elements.
        let starts = events(&xml)
            .iter()
            .filter(|e| matches!(e, Event::Start { .. }))
            .count();
        let elements = doc
            .descendants(doc.root())
            .filter(|&n| doc.kind(n) == crate::document::NodeKind::Element)
            .count();
        assert_eq!(starts, elements);
    }

    #[test]
    fn stream_path_basics() {
        let xml = "<bib><book><title>A</title></book><book><title>B</title></book>\
                   <article><title>C</title></article></bib>";
        assert_eq!(
            StreamPath::parse("/bib/book/title")
                .unwrap()
                .run(xml)
                .unwrap()
                .count,
            2
        );
        assert_eq!(
            StreamPath::parse("//title")
                .unwrap()
                .run(xml)
                .unwrap()
                .count,
            3
        );
        assert_eq!(
            StreamPath::parse("/bib/*/title")
                .unwrap()
                .run(xml)
                .unwrap()
                .count,
            3
        );
        let out = StreamPath::parse("/bib/book/title")
            .unwrap()
            .run(xml)
            .unwrap();
        assert_eq!(out.texts, vec!["A", "B"]);
    }

    #[test]
    fn deep_steps_match_at_any_depth() {
        let xml = "<r><a><x><a><b>deep</b></a></x></a><b>shallow-b</b></r>";
        assert_eq!(
            StreamPath::parse("//a//b").unwrap().run(xml).unwrap().count,
            1
        );
        assert_eq!(StreamPath::parse("//b").unwrap().run(xml).unwrap().count, 2);
        assert_eq!(
            StreamPath::parse("/r/a//b")
                .unwrap()
                .run(xml)
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn nested_matches_both_count_and_capture() {
        let xml = "<r><a>out<a>in</a></a></r>";
        let out = StreamPath::parse("//a").unwrap().run(xml).unwrap();
        assert_eq!(out.count, 2);
        assert_eq!(out.texts, vec!["outin", "in"]);
    }

    #[test]
    fn agrees_with_dom_xpath_on_the_shared_fragment() {
        let doc = crate::generator::cityguide(crate::generator::CityConfig {
            restaurants: 15,
            hotels: 5,
            seed: 9,
        });
        let xml = doc.to_xml_string();
        for path in [
            "/cityguide/restaurant/name",
            "//name",
            "//menu/dish",
            "/cityguide/*/city",
            "//restaurant/menu",
            "//nonexistent",
        ] {
            let streamed = StreamPath::parse(path).unwrap().run(&xml).unwrap().count;
            let dom = crate::path::select(&doc, doc.root(), path).len();
            assert_eq!(streamed, dom, "{path}");
        }
    }

    #[test]
    fn text_after_nested_match_closes_goes_to_the_outer_capture() {
        let xml = "<r><a>x<a>mid</a>y</a></r>";
        let out = StreamPath::parse("//a").unwrap().run(xml).unwrap();
        assert_eq!(out.count, 2);
        assert_eq!(out.texts, vec!["xmidy", "mid"]);
    }

    #[test]
    fn parse_errors() {
        assert!(StreamPath::parse("").is_err());
        assert!(StreamPath::parse("/").is_err());
        assert!(StreamPath::parse("//").is_err());
        assert!(StreamPath::parse("/a/").is_err());
        assert!(StreamPath::parse("//title//").is_err());
    }

    #[test]
    fn trailing_comments_and_pis_are_fine() {
        let evs = events("<a/><!--ok--><?pi d?>");
        assert_eq!(evs.len(), 4);
    }

    #[test]
    fn depth_tracking() {
        let mut r = EventReader::new("<a><b><c/></b></a>");
        let mut max = 0;
        while let Some(ev) = r.next() {
            ev.unwrap();
            max = max.max(r.depth());
        }
        assert_eq!(max, 3);
    }
}
