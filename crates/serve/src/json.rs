//! A minimal JSON value: parse and render, nothing else.
//!
//! The workspace is dependency-free by design, so the wire protocol gets a
//! small hand-rolled JSON layer instead of serde: the parser is here, and
//! rendering is a walk of the value into the workspace's one writer,
//! `gql_trace::json`. Objects keep insertion order (a `Vec` of pairs) so
//! every rendering is deterministic — the protocol tests pin responses
//! byte-for-byte. Numbers are `f64`, which is exact for every counter this
//! service ever sends (u64 counters stay well under 2^53 in practice;
//! latencies and rates are floats anyway).

use gql_trace::json::Writer;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Insertion-ordered object; duplicate keys are kept as parsed (lookup
    /// returns the first).
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn num(n: impl Into<f64>) -> Value {
        Value::Num(n.into())
    }

    /// Counter-friendly constructor (u64 → f64; exact below 2^53).
    pub fn count(n: u64) -> Value {
        Value::Num(n as f64)
    }

    /// Field lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to compact JSON (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`Value::render`], appended to `out`.
    pub fn render_into(&self, out: &mut String) {
        self.write(&mut Writer::new(out));
    }

    fn write(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            // JSON has no NaN/Inf.
            Value::Num(n) if !n.is_finite() => w.null(),
            Value::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => w.number(*n as i64),
            Value::Num(n) => w.number(n),
            Value::Str(s) => w.string(s),
            Value::Arr(items) => {
                w.begin_array();
                for item in items {
                    item.write(w);
                }
                w.end_array()
            }
            Value::Obj(pairs) => {
                w.begin_object();
                for (k, v) in pairs {
                    v.write(w.key(k));
                }
                w.end_object()
            }
        };
    }

    /// Parse a complete JSON document; trailing garbage is an error.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Nesting bound: malformed deeply-nested input must not overflow the
/// stack (the protocol accepts frames from untrusted clients).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    pairs.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(pairs));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte `{}` at {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    /// The four hex digits of a `\u` escape; `pos` moves from the `u` to the
    /// last digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let unit = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(unit)
    }

    /// One `\u` escape, `pos` on its `u` on entry and on its last digit on
    /// return. An encoder that escapes to ASCII (Python's default) sends a
    /// non-BMP scalar as a surrogate pair, which is one scalar here; a
    /// surrogate without its other half is an error, not U+FFFD — the query
    /// would run with a literal the client did not send.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut scalar = self.hex4()?;
        if (0xD800..0xDC00).contains(&scalar) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            self.pos += 2;
            if let low @ 0xDC00..=0xDFFF = self.hex4()? {
                scalar = 0x10000 + ((scalar - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        char::from_u32(scalar).ok_or_else(|| format!("lone surrogate at byte {}", self.pos))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_values() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "-12",
            "3.5",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"x\"}}",
        ] {
            let v = Value::parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(v.render(), src, "canonical form roundtrips");
            assert_eq!(Value::parse(&v.render()), Ok(v), "reparse agrees");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::str("line\nquote\"slash\\tab\tctrl\u{1}");
        let rendered = v.render();
        assert_eq!(Value::parse(&rendered), Ok(v));
        assert!(rendered.contains("\\n") && rendered.contains("\\u0001"));
        assert_eq!(Value::parse("\"\\u00e9\\/\"").unwrap(), Value::str("é/"));
    }

    /// A non-BMP scalar arrives from an ASCII-escaping encoder as a surrogate
    /// pair and is one `char`; half a pair is refused, never replaced.
    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_refused() {
        assert_eq!(
            Value::parse(r#""a\ud83d\ude00b\uD834\uDD1E""#),
            Ok(Value::str("a😀b𝄞"))
        );
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            let err = Value::parse(lone).expect_err(lone);
            assert!(err.contains("lone surrogate"), "{lone}: {err}");
        }
        // `from_str_radix` alone would take a sign for a digit.
        assert!(Value::parse(r#""\u+041""#).is_err());
    }

    /// What the writer emits, the parser reads back: generated values over an
    /// alphabet of every control byte, `"`, `\`, `/`, DEL, two- to four-byte
    /// scalars, as strings and as keys, nested up to the parser's bound.
    #[test]
    fn rendered_values_parse_back_to_themselves() {
        use gql_ssdm::rng::Rng;
        let alphabet: Vec<char> = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/ a\u{7f}é€😀𝄞\u{10ffff}".chars())
            .collect();
        fn text(rng: &mut Rng, alphabet: &[char]) -> String {
            (0..rng.gen_range(0..12))
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect()
        }
        fn value(rng: &mut Rng, alphabet: &[char], depth: usize) -> Value {
            match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
                0 => Value::Null,
                1 => Value::Bool(rng.gen_bool(0.5)),
                2 => Value::Num(rng.gen_range(0..2_000_001) as f64 / 2.0 - 500_000.0),
                3 | 4 => Value::Str(text(rng, alphabet)),
                5 => Value::Arr(
                    (0..rng.gen_range(0..4))
                        .map(|_| value(rng, alphabet, depth - 1))
                        .collect(),
                ),
                _ => Value::Obj(
                    (0..rng.gen_range(0..4))
                        .map(|_| (text(rng, alphabet), value(rng, alphabet, depth - 1)))
                        .collect(),
                ),
            }
        }
        // The whole alphabet at once, as a string and as a key, then draws
        // from it (fewer under miri, which interprets ~1000× slower).
        let all: String = alphabet.iter().collect();
        let mut rng = Rng::seed_from_u64(21);
        let whole = Value::Obj(vec![(all.clone(), Value::Str(all))]);
        let cases = if cfg!(miri) { 20 } else { 2_000 };
        let draws = (0..cases).map(|_| value(&mut rng, &alphabet, 4));
        for v in std::iter::once(whole).chain(draws) {
            let rendered = v.render();
            assert_eq!(Value::parse(&rendered).as_ref(), Ok(&v), "{rendered}");
        }

        // To the bound and no further: `MAX_DEPTH` containers around a
        // scalar, alternating array and object.
        let mut nested = Value::str("\u{0}😀");
        for level in 0..MAX_DEPTH {
            nested = match level % 2 {
                0 => Value::Arr(vec![nested]),
                _ => Value::Obj(vec![("k\n".into(), nested)]),
            };
        }
        assert_eq!(Value::parse(&nested.render()).as_ref(), Ok(&nested));
        let over = Value::Arr(vec![nested]).render();
        assert_eq!(Value::parse(&over), Err("nesting too deep".into()));
    }

    /// `render` byte for byte as it was before it went through
    /// `gql_trace::json::Writer`: every control byte's escape form, integral
    /// floats as integers below 9e15 and as `f64` prints them above, the
    /// non-finite as `null`, empty containers, escaped keys.
    #[test]
    fn render_is_byte_identical_to_the_pinned_sample() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let v = Value::Obj(vec![
            (
                "text".into(),
                Value::str(format!("{controls} \"quoted\" back\\slash / é \u{7f} 😀")),
            ),
            ("key \"q\"\n".into(), Value::Null),
            (
                "numbers".into(),
                Value::Arr(
                    [
                        0.0,
                        -0.0,
                        -12.0,
                        3.5,
                        0.1,
                        8.9e15,
                        9e15,
                        1e21,
                        f64::NAN,
                        f64::NEG_INFINITY,
                    ]
                    .map(Value::Num)
                    .to_vec(),
                ),
            ),
            (
                "flags".into(),
                Value::Arr(vec![Value::Bool(true), Value::Bool(false)]),
            ),
            (
                "empty".into(),
                Value::Arr(vec![Value::Obj(vec![]), Value::Arr(vec![])]),
            ),
        ]);
        assert_eq!(
            v.render(),
            "{\"text\":\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\
             \\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\
             \\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f \\\"quoted\\\" \
             back\\\\slash / é \u{7f} 😀\",\"key \\\"q\\\"\\n\":null,\"numbers\":[0,0,-12,3.5,0.1,\
             8900000000000000,9000000000000000,1000000000000000000000,null,null],\
             \"flags\":[true,false],\"empty\":[{},[]]}"
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "nan",
            "01x",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject: {bad}");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn accessors() {
        let v = Value::parse("{\"n\":3,\"s\":\"x\",\"b\":true,\"a\":[1]}").unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
    }
}
