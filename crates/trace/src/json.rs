//! The workspace's one JSON writer: objects, arrays, keys, strings and
//! numbers appended to a `String`, and the one string escaper under them.
//!
//! It lives here because `gql-trace` depends on nothing and every crate
//! that emits JSON can see it (`gql-ssdm` re-exports the module). Output is
//! compact, no whitespace, members in call order. The writer checks nothing:
//! a caller that forgets an `end_*` or writes two values under one key gets
//! the malformed text it asked for, which the emitters' tests would show.
//!
//! ```
//! let mut out = String::new();
//! let mut w = gql_trace::json::Writer::new(&mut out);
//! w.begin_object().key("name").string("a\"b").key("rows").begin_array();
//! w.number(1).number(2.5).end_array().key("next").null().end_object();
//! assert_eq!(out, r#"{"name":"a\"b","rows":[1,2.5],"next":null}"#);
//! ```

use std::fmt::{Display, Write as _};

/// Appends one JSON text to a borrowed `String`.
pub struct Writer<'a> {
    out: &'a mut String,
    /// Where this writer's text starts in `out`.
    start: usize,
}

impl<'a> Writer<'a> {
    /// A writer appending after whatever `out` already holds.
    pub fn new(out: &'a mut String) -> Writer<'a> {
        let start = out.len();
        Writer { out, start }
    }

    /// The comma between siblings. Every scalar ends in `"`, a digit or a
    /// letter and every container in `}` or `]`, so a last byte of `{`, `[`
    /// or `:` is always structural and means nothing precedes this item.
    fn sep(&mut self) {
        match self.out.as_bytes()[self.start..].last() {
            None | Some(b'{' | b'[' | b':') => {}
            Some(_) => self.out.push(','),
        }
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.sep();
        self.out.push('{');
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.sep();
        self.out.push('[');
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self
    }

    /// A member name; the member's value is the next thing written.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.sep();
        escape_into(name, self.out);
        self.out.push(':');
        self
    }

    pub fn string(&mut self, s: &str) -> &mut Self {
        self.sep();
        escape_into(s, self.out);
        self
    }

    /// A number, as its `Display` text: integers of every width, and `f64`
    /// in the shortest form that parses back to the same value. JSON has no
    /// NaN or infinity; a caller that may hold one writes [`Writer::null`].
    pub fn number(&mut self, n: impl Display) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{n}");
        self
    }

    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.out.push_str("null");
        self
    }
}

/// Append `s` as a JSON string literal, quotes included: `"` and `\`
/// escaped, newline / carriage return / tab by their short forms, every
/// other control character as `\u00XX`. Runs that need no escape are copied
/// as slices (replies are mostly one long `xml` string).
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[copied..i]);
        copied = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commas_fall_between_siblings_only() {
        let mut out = String::from("prefix ");
        let mut w = Writer::new(&mut out);
        w.begin_array();
        w.begin_object().end_object();
        w.begin_object().key("a").begin_array().end_array();
        // A string may end in a structural byte; its closing quote follows.
        w.key("b").string("[").key("c").string(":").end_object();
        w.bool(true).null().number(u128::MAX).end_array();
        assert_eq!(
            out,
            "prefix [{},{\"a\":[],\"b\":\"[\",\"c\":\":\"},true,null,\
             340282366920938463463374607431768211455]"
        );
    }

    #[test]
    fn escapes_are_the_short_forms_then_u00xx() {
        let mut out = String::new();
        Writer::new(&mut out).string("\u{0}\u{8}\t\n\u{c}\r\u{1f} \"\\/\u{7f}é😀");
        assert_eq!(
            out,
            r#""\u0000\u0008\t\n\u000c\r\u001f \"\\/"#.to_string() + "\u{7f}é😀\""
        );
    }
}
