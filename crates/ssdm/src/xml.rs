//! XML subset parser and serializer.
//!
//! Supports the slice of XML the semi-structured data model needs: elements,
//! attributes (single- or double-quoted), text, comments, processing
//! instructions, CDATA sections, the five predefined entities plus numeric
//! character references, and an (ignored) XML declaration / DOCTYPE line.
//! Not supported: namespaces-as-semantics (prefixed names are kept verbatim
//! as plain names), external entities, and parameter entities.
//!
//! Whitespace-only text nodes between elements are dropped — the engines
//! operate on data-oriented documents where such nodes are formatting noise.

use crate::document::{Document, NodeKind};
use crate::error::{Error, Pos, Result};
use crate::NodeId;

/// Parse an XML string into a [`Document`].
pub fn parse(input: &str) -> Result<Document> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut doc = Document::new();
    let root = doc.root();
    p.skip_prolog(&mut doc, root)?;
    let mut saw_element = false;
    loop {
        p.skip_ws();
        if p.eof() {
            break;
        }
        if p.peek() != Some(b'<') {
            return Err(p.err("text content is not allowed at the top level"));
        }
        match p.peek2() {
            Some(b'!') => {
                if p.looking_at(b"<!--") {
                    let c = p.parse_comment(&mut doc)?;
                    doc.append_child(root, c).expect("top-level comment");
                } else {
                    return Err(p.err("unexpected markup at top level"));
                }
            }
            Some(b'?') => {
                let pi = p.parse_pi(&mut doc)?;
                doc.append_child(root, pi).expect("top-level PI");
            }
            _ => {
                if saw_element {
                    return Err(p.err("more than one top-level element"));
                }
                let el = p.parse_element(&mut doc)?;
                doc.append_child(root, el).expect("top-level element");
                saw_element = true;
            }
        }
    }
    if !saw_element {
        return Err(p.err("document has no root element"));
    }
    Ok(doc)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> Error {
        Error::xml(Pos::new(self.line, self.col), msg)
    }

    fn eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn looking_at(&self, s: &[u8]) -> bool {
        self.bytes[self.pos..].starts_with(s)
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        match self.peek() {
            Some(x) if x == b => {
                self.bump();
                Ok(())
            }
            Some(x) => Err(self.err(format!("expected '{}', found '{}'", b as char, x as char))),
            None => Err(self.err(format!("expected '{}', found end of input", b as char))),
        }
    }

    fn expect_str(&mut self, s: &[u8]) -> Result<()> {
        if self.looking_at(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", String::from_utf8_lossy(s))))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Skip XML declaration and a DOCTYPE line (internal subsets are skipped
    /// by bracket counting; their content is not interpreted here — use the
    /// [`crate::dtd`] module to parse DTDs on their own).
    fn skip_prolog(&mut self, doc: &mut Document, root: NodeId) -> Result<()> {
        self.skip_ws();
        // Only the exact declaration target `xml` is a declaration;
        // `<?xml-stylesheet …?>` is an ordinary PI and must be kept.
        if self.looking_at(b"<?xml")
            && matches!(
                self.bytes.get(self.pos + 5),
                Some(b' ' | b'\t' | b'\r' | b'\n' | b'?')
            )
        {
            while !self.looking_at(b"?>") {
                if self.bump().is_none() {
                    return Err(self.err("unterminated XML declaration"));
                }
            }
            self.expect_str(b"?>")?;
        }
        loop {
            self.skip_ws();
            if self.looking_at(b"<!--") {
                let c = self.parse_comment(doc)?;
                doc.append_child(root, c).expect("prolog comment");
                continue;
            }
            if self.looking_at(b"<!DOCTYPE") {
                let mut depth = 0usize;
                let mut quote: Option<u8> = None;
                loop {
                    match self.bump() {
                        Some(q @ (b'"' | b'\'')) => match quote {
                            Some(open) if open == q => quote = None,
                            Some(_) => {}
                            None => quote = Some(q),
                        },
                        Some(_) if quote.is_some() => {}
                        Some(b'[') => depth += 1,
                        Some(b']') => depth = depth.saturating_sub(1),
                        Some(b'>') if depth == 0 => break,
                        Some(_) => {}
                        None => return Err(self.err("unterminated DOCTYPE")),
                    }
                }
                continue;
            }
            break;
        }
        Ok(())
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn parse_name(&mut self) -> Result<String> {
        match self.peek() {
            Some(b) if Self::is_name_start(b) => {}
            _ => return Err(self.err("expected a name")),
        }
        let start = self.pos;
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.bump();
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in name"))?
            .to_string())
    }

    fn parse_entity(&mut self, out: &mut String) -> Result<()> {
        // self.peek() == '&'
        self.bump();
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b != b';') {
            self.bump();
        }
        if self.peek() != Some(b';') {
            return Err(self.err("unterminated entity reference"));
        }
        let name = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in entity"))?
            .to_string();
        self.bump(); // ';'
        match name.as_str() {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                if let Some(rest) = name.strip_prefix("#x").or_else(|| name.strip_prefix("#X")) {
                    let cp = u32::from_str_radix(rest, 16)
                        .map_err(|_| self.err(format!("bad character reference &{name};")))?;
                    out.push(
                        char::from_u32(cp)
                            .ok_or_else(|| self.err(format!("invalid code point {cp:#x}")))?,
                    );
                } else if let Some(rest) = name.strip_prefix('#') {
                    let cp = rest
                        .parse::<u32>()
                        .map_err(|_| self.err(format!("bad character reference &{name};")))?;
                    out.push(
                        char::from_u32(cp)
                            .ok_or_else(|| self.err(format!("invalid code point {cp}")))?,
                    );
                } else {
                    return Err(self.err(format!("unknown entity &{name};")));
                }
            }
        }
        Ok(())
    }

    fn parse_attr_value(&mut self) -> Result<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.bump();
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(q) if q == quote => {
                    self.bump();
                    return Ok(out);
                }
                Some(b'&') => self.parse_entity(&mut out)?,
                Some(b'<') => return Err(self.err("'<' is not allowed in attribute values")),
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != quote && b != b'&' && b != b'<') {
                        self.bump();
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in attribute"))?,
                    );
                }
                None => return Err(self.err("unterminated attribute value")),
            }
        }
    }

    fn parse_comment(&mut self, doc: &mut Document) -> Result<NodeId> {
        self.expect_str(b"<!--")?;
        let start = self.pos;
        while !self.looking_at(b"-->") {
            if self.bump().is_none() {
                return Err(self.err("unterminated comment"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in comment"))?
            .to_string();
        self.expect_str(b"-->")?;
        Ok(doc.create_comment(&text))
    }

    fn parse_pi(&mut self, doc: &mut Document) -> Result<NodeId> {
        self.expect_str(b"<?")?;
        let target = self.parse_name()?;
        self.skip_ws();
        let start = self.pos;
        while !self.looking_at(b"?>") {
            if self.bump().is_none() {
                return Err(self.err("unterminated processing instruction"));
            }
        }
        let data = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in PI"))?
            .to_string();
        self.expect_str(b"?>")?;
        Ok(doc.create_pi(&target, &data))
    }

    fn parse_cdata(&mut self, doc: &mut Document) -> Result<NodeId> {
        self.expect_str(b"<![CDATA[")?;
        let start = self.pos;
        while !self.looking_at(b"]]>") {
            if self.bump().is_none() {
                return Err(self.err("unterminated CDATA section"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in CDATA"))?
            .to_string();
        self.expect_str(b"]]>")?;
        Ok(doc.create_text(&text))
    }

    fn parse_element(&mut self, doc: &mut Document) -> Result<NodeId> {
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let el = doc.create_element(&name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(b'/') => {
                    self.bump();
                    self.expect(b'>')?;
                    return Ok(el);
                }
                Some(b) if Self::is_name_start(b) => {
                    let attr = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    if doc.attr(el, &attr).is_some() {
                        return Err(self.err(format!("duplicate attribute '{attr}'")));
                    }
                    doc.set_attr(el, &attr, &value)
                        .expect("element accepts attrs");
                }
                Some(x) => return Err(self.err(format!("unexpected '{}' in tag", x as char))),
                None => return Err(self.err("unterminated start tag")),
            }
        }
        // Content.
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(format!("missing closing tag </{name}>"))),
                Some(b'<') => {
                    self.flush_text(doc, el, &mut text);
                    if self.looking_at(b"</") {
                        self.expect_str(b"</")?;
                        let close = self.parse_name()?;
                        if close != name {
                            return Err(self.err(format!(
                                "mismatched closing tag </{close}>, expected </{name}>"
                            )));
                        }
                        self.skip_ws();
                        self.expect(b'>')?;
                        return Ok(el);
                    } else if self.looking_at(b"<!--") {
                        let c = self.parse_comment(doc)?;
                        doc.append_child(el, c).expect("fresh comment");
                    } else if self.looking_at(b"<![CDATA[") {
                        let t = self.parse_cdata(doc)?;
                        doc.append_child(el, t).expect("fresh cdata text");
                    } else if self.looking_at(b"<?") {
                        let pi = self.parse_pi(doc)?;
                        doc.append_child(el, pi).expect("fresh PI");
                    } else {
                        let child = self.parse_element(doc)?;
                        doc.append_child(el, child).expect("fresh element");
                    }
                }
                Some(b'&') => self.parse_entity(&mut text)?,
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'<' && b != b'&') {
                        self.bump();
                    }
                    text.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in text"))?,
                    );
                }
            }
        }
    }

    fn flush_text(&self, doc: &mut Document, parent: NodeId, text: &mut String) {
        if text.is_empty() {
            return;
        }
        if !text.chars().all(char::is_whitespace) {
            let t = doc.create_text(text);
            doc.append_child(parent, t).expect("fresh text");
        }
        text.clear();
    }
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
    for &c in doc.children(doc.root()) {
        write_node(doc, c, pretty, 0, &mut out);
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

fn write_node(doc: &Document, node: NodeId, pretty: bool, level: usize, out: &mut String) {
    match doc.kind(node) {
        NodeKind::Document => {
            for &c in doc.children(node) {
                write_node(doc, c, pretty, level, out);
            }
        }
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
        NodeKind::Element => {
            let name = doc.name(node).unwrap_or("");
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
                return;
            }
            out.push('>');
            let indent_children = pretty && !has_text_child(doc, node);
            for &c in children {
                if indent_children {
                    out.push('\n');
                    indent(out, level + 1);
                }
                write_node(doc, c, pretty, level + 1, out);
            }
            if indent_children {
                out.push('\n');
                indent(out, level);
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
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
