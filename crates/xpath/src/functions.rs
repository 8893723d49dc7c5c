//! The XPath 1.0 core function library.

use gql_ssdm::value::xml_words as words;
use gql_ssdm::Document;

use crate::eval::{string_value, Item, View, XValue};
use crate::{Result, XPathError};

/// What the step-fusion analysis needs to know of a function: whether a
/// predicate made of a call to it is a position test, and whether a
/// predicate mentioning it depends on the candidate list it runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FnClass {
    /// Returns a number read off the context position or size.
    Positional,
    /// Returns a number.
    Numeric,
    /// Returns a node-set, string or boolean.
    Other,
}

/// Every function [`call`] implements, with its class.
pub(crate) const FUNCTIONS: &[(&str, FnClass)] = &[
    ("position", FnClass::Positional),
    ("last", FnClass::Positional),
    ("count", FnClass::Numeric),
    ("sum", FnClass::Numeric),
    ("number", FnClass::Numeric),
    ("string-length", FnClass::Numeric),
    ("floor", FnClass::Numeric),
    ("ceiling", FnClass::Numeric),
    ("round", FnClass::Numeric),
    ("true", FnClass::Other),
    ("false", FnClass::Other),
    ("not", FnClass::Other),
    ("boolean", FnClass::Other),
    ("id", FnClass::Other),
    ("name", FnClass::Other),
    ("local-name", FnClass::Other),
    ("string", FnClass::Other),
    ("concat", FnClass::Other),
    ("contains", FnClass::Other),
    ("starts-with", FnClass::Other),
    ("normalize-space", FnClass::Other),
    ("substring-before", FnClass::Other),
    ("substring-after", FnClass::Other),
    ("substring", FnClass::Other),
    ("translate", FnClass::Other),
];

/// The class of a known function; `None` for a name [`call`] rejects.
pub(crate) fn class_of(name: &str) -> Option<FnClass> {
    FUNCTIONS
        .iter()
        .find(|(known, _)| *known == name)
        .map(|&(_, class)| class)
}

fn arity_err(name: &str, expected: &str, got: usize) -> XPathError {
    XPathError::Eval {
        msg: format!("{name}() expects {expected} argument(s), got {got}"),
    }
}

/// A one-argument function that only reads its argument.
pub(crate) type Reduction = fn(View<'_>, &Document) -> Result<XValue>;

/// The functions that reduce one argument to a number or a boolean without
/// keeping any of it. The evaluator hands them a borrowed [`View`], so a
/// node-set shared between a predicate's candidates is read, never copied;
/// with any other argument count these names fall through to [`call`]'s
/// arity error.
pub(crate) fn reduction(name: &str) -> Option<Reduction> {
    fn node_set<'a>(arg: View<'a>) -> Result<&'a [Item]> {
        match arg {
            View::Nodes(ns) => Ok(ns),
            other => Err(XPathError::Eval {
                msg: format!("expected a node-set, got {other:?}"),
            }),
        }
    }
    Some(match name {
        "count" => |arg, _| Ok(XValue::Num(node_set(arg)?.len() as f64)),
        "sum" => |arg, doc| {
            let total = node_set(arg)?
                .iter()
                .map(|&n| gql_ssdm::value::parse_number(&string_value(doc, n)).unwrap_or(f64::NAN))
                .sum();
            Ok(XValue::Num(total))
        },
        "not" => |arg, _| Ok(XValue::Bool(!arg.boolean())),
        "boolean" => |arg, _| Ok(XValue::Bool(arg.boolean())),
        _ => return None,
    })
}

/// Dispatch a function call. `item`/`position`/`size` carry the evaluation
/// context for the context-dependent functions; `caches` holds the
/// per-evaluation lazily built structures (the `id()` reference graph).
#[allow(clippy::too_many_arguments)]
pub(crate) fn call(
    name: &str,
    args: Vec<XValue>,
    doc: &Document,
    item: Item,
    position: usize,
    size: usize,
    caches: &crate::eval::EvalCaches<'_>,
) -> Result<XValue> {
    let argc = args.len();
    let mut args = args.into_iter();
    let mut next = || args.next().expect("arity checked before access");
    match (name, argc) {
        // Context.
        ("position", 0) => Ok(XValue::Num(position as f64)),
        ("last", 0) => Ok(XValue::Num(size as f64)),
        // Booleans.
        ("true", 0) => Ok(XValue::Bool(true)),
        ("false", 0) => Ok(XValue::Bool(false)),
        // Node-sets.
        ("id", 1) => {
            // XPath id(): elements whose `id` attribute matches any token of
            // the argument (string value, or each node's value for sets).
            let arg = next();
            let mut tokens: Vec<String> = Vec::new();
            match &arg {
                XValue::Nodes(ns) => {
                    for &n in ns {
                        tokens.extend(words(&string_value(doc, n)).map(str::to_string));
                    }
                }
                other => tokens.extend(words(&other.string(doc)).map(str::to_string)),
            }
            let idx = caches.idx;
            let mut hits: Vec<Item> = tokens
                .iter()
                .filter_map(|t| idx.node_by_id(doc, t))
                .map(Item::Node)
                .collect();
            // Document order, no duplicates.
            hits.sort_by_key(|i| match i {
                Item::Node(n) => doc.order_key(*n),
                Item::Attr { owner, .. } => doc.order_key(*owner),
            });
            hits.dedup();
            Ok(XValue::Nodes(hits))
        }
        ("name", 0) | ("local-name", 0) => Ok(XValue::Str(item_name(doc, item))),
        ("name", 1) | ("local-name", 1) => {
            let ns = next().into_nodes()?;
            Ok(XValue::Str(
                ns.first().map_or(String::new(), |&n| item_name(doc, n)),
            ))
        }
        // Strings.
        ("string", 0) => Ok(XValue::Str(string_value(doc, item).into_owned())),
        ("string", 1) => Ok(XValue::Str(next().string(doc))),
        ("concat", n) if n >= 2 => {
            let mut out = String::new();
            for a in args {
                out.push_str(&a.string(doc));
            }
            Ok(XValue::Str(out))
        }
        ("contains", 2) => {
            let hay = next().string(doc);
            let needle = next().string(doc);
            Ok(XValue::Bool(hay.contains(&needle)))
        }
        ("starts-with", 2) => {
            let hay = next().string(doc);
            let prefix = next().string(doc);
            Ok(XValue::Bool(hay.starts_with(&prefix)))
        }
        ("string-length", 0) => Ok(XValue::Num(string_value(doc, item).chars().count() as f64)),
        ("string-length", 1) => Ok(XValue::Num(next().string(doc).chars().count() as f64)),
        ("normalize-space", 0 | 1) => {
            let s = if argc == 1 {
                next().string(doc)
            } else {
                string_value(doc, item).into_owned()
            };
            Ok(XValue::Str(words(&s).collect::<Vec<_>>().join(" ")))
        }
        ("substring-before", 2) => {
            let hay = next().string(doc);
            let sep = next().string(doc);
            Ok(XValue::Str(
                hay.split_once(&sep)
                    .map_or(String::new(), |(a, _)| a.to_string()),
            ))
        }
        ("substring-after", 2) => {
            let hay = next().string(doc);
            let sep = next().string(doc);
            Ok(XValue::Str(
                hay.split_once(&sep)
                    .map_or(String::new(), |(_, b)| b.to_string()),
            ))
        }
        ("substring", 2 | 3) => {
            let s = next().string(doc);
            let start = next().number(doc);
            let len = (argc == 3).then(|| next().number(doc));
            Ok(XValue::Str(xpath_substring(&s, start, len)))
        }
        ("translate", 3) => {
            let s = next().string(doc);
            let from: Vec<char> = next().string(doc).chars().collect();
            let to: Vec<char> = next().string(doc).chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    None => Some(c),
                    Some(i) => to.get(i).copied(),
                })
                .collect();
            Ok(XValue::Str(out))
        }
        // Numbers.
        ("number", 0) => Ok(XValue::Num(
            gql_ssdm::value::parse_number(&string_value(doc, item)).unwrap_or(f64::NAN),
        )),
        ("number", 1) => Ok(XValue::Num(next().number(doc))),
        ("floor", 1) => Ok(XValue::Num(next().number(doc).floor())),
        ("ceiling", 1) => Ok(XValue::Num(next().number(doc).ceil())),
        ("round", 1) => Ok(XValue::Num(round(next().number(doc)))),
        // Arity errors for known names; unknown otherwise.
        (_, got) if class_of(name).is_some() => Err(arity_err(name, "a different number of", got)),
        _ => Err(XPathError::Eval {
            msg: format!("unknown function '{name}'"),
        }),
    }
}

fn item_name(doc: &Document, item: Item) -> String {
    match item {
        Item::Node(n) => doc.name(n).unwrap_or("").to_string(),
        Item::Attr { owner, index } => doc
            .attrs(owner)
            .nth(index)
            .map(|(n, _)| n.to_string())
            .unwrap_or_default(),
    }
}

/// XPath `round` (§4.4): the closest integer, the one towards +∞ of two
/// equally close; NaN, ±∞ and ±0 unchanged, and −0 for `-0.5 <= x < 0`.
/// `x - floor(x)` is exact for every finite double, so a value just below
/// a half never rounds up, and one too large to have a fraction is its own
/// integer.
fn round(x: f64) -> f64 {
    if !x.is_finite() || x == x.trunc() {
        return x;
    }
    if (-0.5..0.0).contains(&x) {
        return -0.0;
    }
    let below = x.floor();
    if x - below >= 0.5 {
        below + 1.0
    } else {
        below
    }
}

/// XPath `substring` (§4.2): the characters at 1-based positions `p` with
/// `round(start) <= p`, and `p < round(start) + round(len)` when a length
/// is given. Every comparison with NaN is false, so a NaN bound (among
/// them `-∞ + ∞`) selects nothing.
fn xpath_substring(s: &str, start: f64, len: Option<f64>) -> String {
    let begin = round(start);
    let end = len.map(|len| begin + round(len));
    s.chars()
        .enumerate()
        .filter(|(i, _)| {
            let pos = (*i + 1) as f64;
            pos >= begin && end.is_none_or(|end| pos < end)
        })
        .map(|(_, c)| c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse;

    fn eval_str(xpath: &str) -> XValue {
        let d = Document::parse_str("<r a='v'>hello world</r>").unwrap();
        evaluate(&d, &parse(xpath).unwrap()).unwrap()
    }

    #[test]
    fn string_functions() {
        assert_eq!(eval_str("concat('a','b','c')"), XValue::Str("abc".into()));
        assert_eq!(eval_str("contains('banana','ana')"), XValue::Bool(true));
        assert_eq!(eval_str("starts-with('banana','ban')"), XValue::Bool(true));
        assert_eq!(eval_str("string-length('héllo')"), XValue::Num(5.0));
        assert_eq!(
            eval_str("normalize-space('  a   b ')"),
            XValue::Str("a b".into())
        );
        assert_eq!(
            eval_str("substring-before('12:34',':')"),
            XValue::Str("12".into())
        );
        assert_eq!(
            eval_str("substring-after('12:34',':')"),
            XValue::Str("34".into())
        );
        assert_eq!(
            eval_str("translate('bar','abc','ABC')"),
            XValue::Str("BAr".into())
        );
        assert_eq!(
            eval_str("translate('--x--','-','')"),
            XValue::Str("x".into())
        );
    }

    /// Every example of the recommendation's §4.2 (string functions) and
    /// every rule of §4.4's `round`, with probes at the edges of the
    /// rounding: just below a half, past 2^52, and the negative zeros.
    #[test]
    fn string_and_number_functions_follow_sections_4_2_and_4_4() {
        for (src, expect) in [
            ("starts-with('abc', 'ab')", XValue::Bool(true)),
            ("contains('abc', 'bc')", XValue::Bool(true)),
            (
                "substring-before('1999/04/01', '/')",
                XValue::Str("1999".into()),
            ),
            (
                "substring-after('1999/04/01', '/')",
                XValue::Str("04/01".into()),
            ),
            (
                "substring-after('1999/04/01', '19')",
                XValue::Str("99/04/01".into()),
            ),
            ("substring('12345', 2, 3)", XValue::Str("234".into())),
            ("substring('12345', 2)", XValue::Str("2345".into())),
            ("substring('12345', 1.5, 2.6)", XValue::Str("234".into())),
            ("substring('12345', 0, 3)", XValue::Str("12".into())),
            ("substring('12345', 0 div 0, 3)", XValue::Str("".into())),
            ("substring('12345', 1, 0 div 0)", XValue::Str("".into())),
            (
                "substring('12345', -42, 1 div 0)",
                XValue::Str("12345".into()),
            ),
            (
                "substring('12345', -1 div 0, 1 div 0)",
                XValue::Str("".into()),
            ),
            ("substring('12345', -1 div 0)", XValue::Str("12345".into())),
            ("translate('bar','abc','ABC')", XValue::Str("BAr".into())),
            (
                "translate('--aaa--','abc-','ABC')",
                XValue::Str("AAA".into()),
            ),
            ("round(2.5)", XValue::Num(3.0)),
            ("round(-2.5)", XValue::Num(-2.0)),
            ("round(-1.5)", XValue::Num(-1.0)),
            ("round(0.49999999999999994)", XValue::Num(0.0)),
            (
                "round(4503599627370497)",
                XValue::Num(4_503_599_627_370_497.0),
            ),
            ("round(1 div 0)", XValue::Num(f64::INFINITY)),
            ("round(-1 div 0)", XValue::Num(f64::NEG_INFINITY)),
            // A negative zero is told from a positive one by its reciprocal.
            ("1 div round(-0.5)", XValue::Num(f64::NEG_INFINITY)),
            ("1 div round(-0.2)", XValue::Num(f64::NEG_INFINITY)),
            ("1 div round(-0)", XValue::Num(f64::NEG_INFINITY)),
            ("1 div round(0)", XValue::Num(f64::INFINITY)),
        ] {
            assert_eq!(eval_str(src), expect, "{src}");
        }
        assert!(matches!(eval_str("round(0 div 0)"), XValue::Num(n) if n.is_nan()));
    }

    #[test]
    fn number_functions() {
        assert_eq!(eval_str("floor(2.7)"), XValue::Num(2.0));
        assert_eq!(eval_str("ceiling(2.1)"), XValue::Num(3.0));
        assert_eq!(eval_str("round(2.5)"), XValue::Num(3.0));
        assert_eq!(eval_str("round(-2.5)"), XValue::Num(-2.0)); // half toward +inf
        assert_eq!(eval_str("number('12')"), XValue::Num(12.0));
    }

    #[test]
    fn boolean_functions() {
        assert_eq!(eval_str("not(false())"), XValue::Bool(true));
        assert_eq!(eval_str("boolean('x')"), XValue::Bool(true));
        assert_eq!(eval_str("boolean('')"), XValue::Bool(false));
    }

    #[test]
    fn name_functions() {
        let d = Document::parse_str("<r><child attr='1'/></r>").unwrap();
        let v = evaluate(&d, &parse("name(//child)").unwrap()).unwrap();
        assert_eq!(v, XValue::Str("child".into()));
        let v = evaluate(&d, &parse("name(//child/@attr)").unwrap()).unwrap();
        assert_eq!(v, XValue::Str("attr".into()));
        let v = evaluate(&d, &parse("name(//nothing)").unwrap()).unwrap();
        assert_eq!(v, XValue::Str("".into()));
    }

    #[test]
    fn id_function() {
        let d = Document::parse_str(
            "<db><n id='a'><v>1</v></n><n id='b'><v>2</v></n><ptr refs='b a'/></db>",
        )
        .unwrap();
        let v = evaluate(&d, &parse("count(id('a b'))").unwrap()).unwrap();
        assert_eq!(v, XValue::Num(2.0));
        // Document order regardless of token order.
        let v = evaluate(&d, &parse("string(id('b a')/v)").unwrap()).unwrap();
        assert_eq!(v, XValue::Str("1".into()));
        // Node-set argument: tokens from each node's string value.
        let v = evaluate(&d, &parse("count(id(//ptr/@refs))").unwrap()).unwrap();
        assert_eq!(v, XValue::Num(2.0));
        // Unknown ids vanish.
        let v = evaluate(&d, &parse("count(id('zz'))").unwrap()).unwrap();
        assert_eq!(v, XValue::Num(0.0));
    }

    #[test]
    fn errors() {
        assert!(matches!(
            eval_err("frobnicate()"),
            XPathError::Eval { msg } if msg.contains("unknown function")
        ));
        assert!(matches!(
            eval_err("count()"),
            XPathError::Eval { msg } if msg.contains("argument")
        ));
        assert!(matches!(
            eval_err("count('notanodeset')"),
            XPathError::Eval { msg } if msg.contains("node-set")
        ));
    }

    fn eval_err(xpath: &str) -> XPathError {
        let d = Document::parse_str("<r/>").unwrap();
        evaluate(&d, &parse(xpath).unwrap()).unwrap_err()
    }

    /// Every function of the table dispatches, and its class is what it
    /// returns: the lowering onto a tree pattern trusts the table to say
    /// which calls make a predicate a position test. A function added to
    /// `call` but not to the table has no class, which the analysis reads as
    /// "keeps the step off the pattern", so a new function can be
    /// misclassified only by being listed here under the wrong class — which
    /// this test then catches.
    #[test]
    fn every_function_is_classified_by_what_it_returns() {
        let d = Document::parse_str("<r id='a'><x>1.5</x><x>2</x></r>").unwrap();
        let idx = gql_ssdm::DocIndex::build(&d);
        let caches = crate::eval::EvalCaches::new(&idx, gql_guard::RunCtx::none());
        let root = Item::Node(d.root_element().unwrap());
        let kids: Vec<Item> = d
            .children(d.root_element().unwrap())
            .iter()
            .map(|&n| Item::Node(n))
            .collect();
        let (nodes, text, number) = (
            XValue::Nodes(kids),
            XValue::Str("a b".into()),
            XValue::Num(2.0),
        );
        let arg_lists: [Vec<XValue>; 6] = [
            vec![],
            vec![nodes.clone()],
            vec![text.clone()],
            vec![text.clone(), text.clone()],
            vec![text.clone(), number.clone()],
            vec![text.clone(), text.clone(), text.clone()],
        ];
        for &(name, class) in FUNCTIONS {
            assert_eq!(class_of(name), Some(class));
            let results: Vec<XValue> = arg_lists
                .iter()
                .filter_map(|args| match (reduction(name), args.as_slice()) {
                    (Some(reduce), [arg]) => reduce(arg.view(), &d).ok(),
                    _ => call(name, args.clone(), &d, root, 2, 3, &caches).ok(),
                })
                .collect();
            assert!(!results.is_empty(), "{name}() accepted no argument list");
            for value in results {
                let numeric = matches!(value, XValue::Num(_));
                assert_eq!(
                    numeric,
                    class != FnClass::Other,
                    "{name}() returned {value:?}"
                );
            }
        }
        // Only the positional ones read the context position or size.
        for &(name, class) in FUNCTIONS {
            let at = |position, size| call(name, vec![], &d, root, position, size, &caches);
            if let (Ok(here), Ok(there)) = (at(1, 2), at(2, 3)) {
                assert_eq!(here != there, class == FnClass::Positional, "{name}()");
            }
        }
        assert_eq!(class_of("frobnicate"), None);
        // The table has no duplicates (a second entry would be dead).
        for (i, (name, _)) in FUNCTIONS.iter().enumerate() {
            assert!(
                FUNCTIONS[..i].iter().all(|(other, _)| other != name),
                "{name}"
            );
        }
    }
}
