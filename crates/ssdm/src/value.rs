//! Typed atomic values and comparison semantics.
//!
//! Semi-structured data carries all leaf content as text; predicates in the
//! query languages compare that text either as strings or as numbers. This
//! module centralises the coercion rules (modeled on XPath 1.0) so that all
//! three engines — XML-GL, WG-Log and the XPath baseline — agree on what
//! `price > 20` means.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::fmt;

/// An atomic value: string, IEEE double, or boolean.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Num(f64),
    Bool(bool),
}

impl Value {
    /// Parse a literal the way query predicates interpret constants: a valid
    /// number becomes [`Value::Num`]; everything else stays a string.
    pub fn from_literal(s: &str) -> Value {
        match parse_number(s) {
            Some(n) => Value::Num(n),
            None => Value::Str(s.to_string()),
        }
    }

    /// XPath `number()` coercion. Strings that are not numbers become NaN.
    pub fn to_number(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Str(s) => parse_number(s).unwrap_or(f64::NAN),
        }
    }

    /// XPath `string()` coercion.
    pub fn to_text(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Num(n) => format_number(*n),
            Value::Bool(b) => b.to_string(),
        }
    }

    /// XPath `boolean()` coercion: non-empty strings and non-zero, non-NaN
    /// numbers are true.
    pub fn to_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// Equality under coercion: if either side is numeric both are compared
    /// as numbers, if either is boolean both as booleans, else as strings.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Bool(_), _) | (_, Value::Bool(_)) => self.to_bool() == other.to_bool(),
            (Value::Num(_), _) | (_, Value::Num(_)) => self.to_number() == other.to_number(),
            (Value::Str(a), Value::Str(b)) => a == b,
        }
    }

    /// Ordering under coercion. Numeric comparison when both sides coerce to
    /// numbers; lexicographic otherwise. `None` for NaN-vs-number cases
    /// where no order is defined.
    pub fn loose_cmp(&self, other: &Value) -> Option<Ordering> {
        let (a, b) = (self.to_number(), other.to_number());
        if !a.is_nan() && !b.is_nan() {
            return a.partial_cmp(&b);
        }
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// Comparison operators shared by every query formalism in the workspace
/// (XML-GL predicates, WG-Log constraints, the algebra's filters). The
/// ordering operators coerce through [`Value::loose_cmp`]; `Eq`/`Ne` use
/// [`Value::loose_eq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Contains,
    StartsWith,
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Contains => "contains",
            CmpOp::StartsWith => "starts-with",
        }
    }

    pub fn from_symbol(s: &str) -> Option<Self> {
        Some(match s {
            "=" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            "contains" => CmpOp::Contains,
            "starts-with" => CmpOp::StartsWith,
            _ => return None,
        })
    }

    /// Evaluate against a data value and a constant, each read the way
    /// [`Value::from_literal`] reads it.
    pub fn eval(self, data: &str, constant: &str) -> bool {
        match self {
            CmpOp::Contains => data.contains(constant),
            CmpOp::StartsWith => data.starts_with(constant),
            _ => self.eval_parsed(
                (data, parse_number(data)),
                (constant, parse_number(constant)),
            ),
        }
    }

    /// [`eval`](CmpOp::eval) for a caller that holds either side's
    /// [`parse_number`] already — a constant tested against many values, a
    /// value against several constants. `=` is [`Value::loose_eq`] and the
    /// ordering operators [`Value::loose_cmp`] of the two literals, decided
    /// without building either [`Value`].
    pub fn eval_parsed(
        self,
        (data, d): (&str, Option<f64>),
        (constant, c): (&str, Option<f64>),
    ) -> bool {
        let (eq, ord) = match (d, c) {
            (Some(d), Some(c)) => (d == c, d.partial_cmp(&c)),
            (None, None) => (data == constant, Some(data.cmp(constant))),
            // A number against a string that is none: the string reads as
            // NaN, which equals nothing and has no order.
            _ => (false, None),
        };
        match self {
            CmpOp::Eq => eq,
            CmpOp::Ne => !eq,
            CmpOp::Lt => ord == Some(Ordering::Less),
            CmpOp::Le => matches!(ord, Some(Ordering::Less | Ordering::Equal)),
            CmpOp::Gt => ord == Some(Ordering::Greater),
            CmpOp::Ge => matches!(ord, Some(Ordering::Greater | Ordering::Equal)),
            CmpOp::Contains => data.contains(constant),
            CmpOp::StartsWith => data.starts_with(constant),
        }
    }

    /// [`eval_parsed`](CmpOp::eval_parsed) that parses the value only if
    /// the verdict reads its number, and then once into `d` for every
    /// comparison of the same value. `contains` and `starts-with` never read
    /// it, nor do `=` and `!=` against a constant that is no number: a value
    /// equal to such a constant is no number either.
    pub fn eval_lazy(
        self,
        (data, d): (&str, &OnceCell<Option<f64>>),
        (constant, c): (&str, Option<f64>),
    ) -> bool {
        let reads = match self {
            CmpOp::Contains | CmpOp::StartsWith => false,
            CmpOp::Eq | CmpOp::Ne => c.is_some(),
            _ => true,
        };
        let d = if reads {
            *d.get_or_init(|| parse_number(data))
        } else {
            None
        };
        self.eval_parsed((data, d), (constant, c))
    }
}

/// XML's four whitespace characters (XML 1.0 `S`, XPath 1.0 §3.7): the
/// only ones a number read from a string, `normalize-space()` and the
/// `id()` token split strip or split on. U+00A0 and the other Unicode
/// spaces are content.
pub fn is_xml_space(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\r' | '\n')
}

/// The words of `s`, split on [XML whitespace](is_xml_space): an IDREFS
/// value's tokens, `id()`'s and `normalize-space()`'s words.
pub fn xml_words(s: &str) -> impl Iterator<Item = &str> {
    s.split(is_xml_space).filter(|w| !w.is_empty())
}

/// Parse an XPath-style number: optional sign, digits, optional fraction.
/// Surrounding [XML whitespace](is_xml_space) is ignored; anything else
/// fails.
pub fn parse_number(s: &str) -> Option<f64> {
    let t = s.trim_matches(is_xml_space);
    if t.is_empty() {
        return None;
    }
    let rest = t.strip_prefix('-').unwrap_or(t);
    let mut parts = rest.splitn(2, '.');
    let int = parts.next().unwrap_or("");
    let frac = parts.next();
    let digits_ok = |p: &str| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit());
    let ok = match frac {
        None => digits_ok(int),
        Some(fr) => {
            // ".5" and "5." are both accepted, "." alone is not.
            (int.is_empty() || digits_ok(int))
                && (fr.is_empty() || digits_ok(fr))
                && !(int.is_empty() && fr.is_empty())
        }
    };
    if ok {
        t.parse::<f64>().ok()
    } else {
        None
    }
}

/// Format a number the XPath way: integers print without a fractional part.
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".to_string()
        } else {
            "-Infinity".to_string()
        }
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_classification() {
        assert_eq!(Value::from_literal("42"), Value::Num(42.0));
        assert_eq!(Value::from_literal("-3.5"), Value::Num(-3.5));
        assert_eq!(Value::from_literal(".5"), Value::Num(0.5));
        assert_eq!(Value::from_literal("0.59"), Value::Num(0.59));
        assert_eq!(Value::from_literal("abc"), Value::Str("abc".into()));
        assert_eq!(Value::from_literal("1e3"), Value::Str("1e3".into())); // no exponents in XPath 1.0
        assert_eq!(Value::from_literal(""), Value::Str(String::new()));
        assert_eq!(Value::from_literal("4 2"), Value::Str("4 2".into()));
    }

    #[test]
    fn number_coercion() {
        assert_eq!(Value::Str(" 7 ".into()).to_number(), 7.0);
        assert!(Value::Str("x".into()).to_number().is_nan());
        assert_eq!(Value::Bool(true).to_number(), 1.0);
        assert_eq!(Value::Bool(false).to_number(), 0.0);
    }

    #[test]
    fn bool_coercion() {
        assert!(Value::Str("x".into()).to_bool());
        assert!(!Value::Str("".into()).to_bool());
        assert!(Value::Num(0.1).to_bool());
        assert!(!Value::Num(0.0).to_bool());
        assert!(!Value::Num(f64::NAN).to_bool());
    }

    #[test]
    fn string_coercion_formats_integers_plainly() {
        assert_eq!(Value::Num(3.0).to_text(), "3");
        assert_eq!(Value::Num(3.25).to_text(), "3.25");
        assert_eq!(Value::Num(-0.0).to_text(), "0");
        assert_eq!(Value::Num(f64::NAN).to_text(), "NaN");
        assert_eq!(Value::Num(f64::INFINITY).to_text(), "Infinity");
        assert_eq!(Value::Num(f64::NEG_INFINITY).to_text(), "-Infinity");
    }

    #[test]
    fn loose_eq_coerces_numbers() {
        assert!(Value::Str("10".into()).loose_eq(&Value::Num(10.0)));
        assert!(!Value::Str("10".into()).loose_eq(&Value::Str("10.0".into())));
        assert!(Value::Num(10.0).loose_eq(&Value::Str("10.0".into())));
        assert!(Value::Bool(true).loose_eq(&Value::Str("yes".into())));
        assert!(Value::Bool(false).loose_eq(&Value::Str("".into())));
    }

    #[test]
    fn loose_cmp_numeric_first() {
        assert_eq!(
            Value::Str("9".into()).loose_cmp(&Value::Str("10".into())),
            Some(Ordering::Less)
        );
        // Pure string comparison when not numeric.
        assert_eq!(
            Value::Str("apple".into()).loose_cmp(&Value::Str("banana".into())),
            Some(Ordering::Less)
        );
        // NaN against a number: undefined.
        assert_eq!(Value::Str("x".into()).loose_cmp(&Value::Num(1.0)), None);
    }

    /// `CmpOp::eval` decides from the two strings what the two `Value`s
    /// they would be parsed into decide.
    #[test]
    fn eval_agrees_with_loose_comparison_of_the_parsed_literals() {
        let samples = [
            "", " ", "0", "-0", "7", " 7 ", "07", "7.0", "7.", ".5", "0.5", "-3.5", "-3", "10",
            "9", "2000", "1e3", "NaN", "inf", "x", "X", "abc", "abd", "4 2", "north", "-", ".",
            "1999", "2000.0",
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Contains,
            CmpOp::StartsWith,
        ];
        for data in samples {
            // One parse of the value serves all its lazy comparisons.
            let number = OnceCell::new();
            for constant in samples {
                let (d, c) = (Value::from_literal(data), Value::from_literal(constant));
                let (eq, ord) = (d.loose_eq(&c), d.loose_cmp(&c));
                for op in ops {
                    let expected = match op {
                        CmpOp::Eq => eq,
                        CmpOp::Ne => !eq,
                        CmpOp::Lt => ord == Some(Ordering::Less),
                        CmpOp::Le => matches!(ord, Some(Ordering::Less | Ordering::Equal)),
                        CmpOp::Gt => ord == Some(Ordering::Greater),
                        CmpOp::Ge => matches!(ord, Some(Ordering::Greater | Ordering::Equal)),
                        CmpOp::Contains => data.contains(constant),
                        CmpOp::StartsWith => data.starts_with(constant),
                    };
                    assert_eq!(
                        op.eval(data, constant),
                        expected,
                        "{data:?} {} {constant:?}",
                        op.symbol()
                    );
                    let lazy = op.eval_lazy((data, &number), (constant, parse_number(constant)));
                    assert_eq!(lazy, expected, "{data:?} {} {constant:?}", op.symbol());
                }
            }
        }
    }

    #[test]
    fn parse_number_edges() {
        assert_eq!(parse_number(" \t\r\n5\n"), Some(5.0));
        assert_eq!(
            parse_number("\u{a0}5"),
            None,
            "U+00A0 is not XML whitespace"
        );
        assert_eq!(parse_number("5\u{2003}"), None);
        assert_eq!(parse_number("5."), Some(5.0));
        assert_eq!(parse_number("-5."), Some(-5.0));
        assert_eq!(parse_number("."), None);
        assert_eq!(parse_number("-"), None);
        assert_eq!(parse_number("--5"), None);
        assert_eq!(parse_number("5.5.5"), None);
    }
}
