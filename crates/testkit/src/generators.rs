//! Deterministic random documents and queries over the shared vocabulary.
//!
//! Every generator is a pure function of the [`Rng`] it is handed, so a
//! `(generator, seed)` pair replays a case exactly. Query generators
//! always produce *syntactically valid* sources (the analyzers may still
//! reject a program semantically — negated bindings referenced on the
//! construct side, say — and the oracles gate on that verdict).

use gql_ssdm::generator::{random_tree_with, TreeConfig};
use gql_ssdm::rng::Rng;
use gql_ssdm::{Document, NodeId};

use crate::vocab::{pick, ATTRS, TAGS, VALUES};

// ----------------------------------------------------------------------
// Text and strings
// ----------------------------------------------------------------------

/// Printable text including tricky-to-escape characters, never
/// whitespace-only (whitespace-only text nodes are dropped on reparse,
/// which would make re-serialization oracles vacuously noisy).
pub fn text_value(rng: &mut Rng) -> String {
    let len = rng.gen_range(0..=12);
    let s: String = (0..len)
        .map(|_| char::from(rng.gen_range(0x20..0x7f) as u8))
        .collect();
    if s.trim().is_empty() && !s.is_empty() {
        // Re-anchor whitespace-only runs on a visible character.
        format!("w{s}")
    } else {
        s
    }
}

/// A string over an explicit alphabet, for fuzzing parsers.
pub fn string_over(rng: &mut Rng, alphabet: &[char], max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

/// All printable ASCII plus the given extra characters.
pub fn fuzz_alphabet(extra: &str) -> Vec<char> {
    let mut v: Vec<char> = (0x20u8..0x7f).map(char::from).collect();
    v.extend(extra.chars());
    v
}

/// A value from `pool`, padded in one case in eight with U+00A0 or U+2003
/// before it, after it or both: characters Unicode calls whitespace and XML
/// does not, so `normalize-space`, number conversion and `id()`'s token
/// split must leave them in place (XPath 1.0 §4.2, §4.4).
fn value(rng: &mut Rng, pool: &[&str]) -> String {
    let v = pick(rng, pool);
    if !rng.gen_bool(0.125) {
        return v.to_string();
    }
    let pad = ['\u{a0}', '\u{2003}'][rng.gen_range(0..2)];
    match rng.gen_range(0..3) {
        0 => format!("{pad}{v}"),
        1 => format!("{v}{pad}"),
        _ => format!("{pad}{v}{pad}"),
    }
}

// ----------------------------------------------------------------------
// Documents
// ----------------------------------------------------------------------

fn add_attrs(doc: &mut Document, rng: &mut Rng, el: NodeId) {
    let mut seen = std::collections::HashSet::new();
    for _ in 0..rng.gen_range(0..3) {
        let k = pick(rng, ATTRS).to_string();
        if seen.insert(k.clone()) {
            let v = if rng.gen_bool(0.6) {
                value(rng, VALUES)
            } else {
                text_value(rng)
            };
            doc.set_attr(el, &k, &v).expect("attrs on elements");
        }
    }
}

/// Grow a random subtree under `parent`: depth-bounded elements with a few
/// attributes, text leaves, small fanout.
fn grow(doc: &mut Document, rng: &mut Rng, parent: NodeId, depth: usize) {
    if depth == 0 || rng.gen_bool(0.25) {
        if rng.gen_bool(0.5) {
            let text = if rng.gen_bool(0.5) {
                value(rng, VALUES)
            } else {
                text_value(rng)
            };
            doc.add_text(parent, &text);
        } else {
            let el = doc.add_element(parent, pick(rng, TAGS));
            add_attrs(doc, rng, el);
        }
        return;
    }
    let el = doc.add_element(parent, pick(rng, TAGS));
    add_attrs(doc, rng, el);
    for _ in 0..rng.gen_range(0..5) {
        grow(doc, rng, el, depth - 1);
    }
}

/// A random document over the shared vocabulary: the hand-grown shape the
/// historical property tests used, with attribute/value pools aligned to
/// the query generators.
pub fn document(rng: &mut Rng) -> Document {
    let mut doc = Document::new();
    let root = doc.add_element(doc.root(), pick(rng, TAGS));
    for _ in 0..rng.gen_range(0..6) {
        grow(&mut doc, rng, root, 3);
    }
    doc
}

/// A random document as XML text. Mixes the hand-grown generator with
/// [`random_tree_with`] under randomized knobs (skewed tags, extra
/// attributes, mixed content) so postings and hash-collision paths see
/// non-uniform shapes too.
pub fn document_xml(rng: &mut Rng) -> String {
    if rng.gen_bool(0.3) {
        let cfg = TreeConfig {
            nodes: rng.gen_range(3..80),
            seed: rng.next_u64(),
            text_prob: rng.gen_range(0..=5) as f64 / 10.0,
            attr_prob: rng.gen_range(0..=5) as f64 / 10.0,
            tag_skew: if rng.gen_bool(0.5) { 1.5 } else { 0.0 },
            max_extra_attrs: rng.gen_range(0..3),
            mixed_text_prob: if rng.gen_bool(0.4) { 0.3 } else { 0.0 },
            ..TreeConfig::default()
        };
        random_tree_with(&cfg).to_xml_string()
    } else {
        document(rng).to_xml_string()
    }
}

/// A random document that is a graph, not a tree: elements carry `id`s
/// (some repeated) and `ref` / `idref` / `refs` / `idrefs` attributes
/// naming them, so references form cycles, repeat a token (`refs="p1
/// p1"`), dangle, point at their own element, and name one target from two
/// attributes; tokens are padded with spaces and tabs. Text-only children
/// (folded into attributes by the WG-Log loader), mixed content, blank
/// text and empty elements come along. What `reference::loader` is checked
/// on.
pub fn reference_graph(rng: &mut Rng) -> Document {
    const REFS: [&str; 4] = ["ref", "idref", "refs", "idrefs"];
    let mut doc = Document::new();
    let top = doc.add_element(doc.root(), pick(rng, TAGS));
    let mut elements = vec![top];
    for _ in 0..rng.gen_range(0..30) {
        let parent = elements[rng.gen_range(0..elements.len())];
        let el = doc.add_element(parent, pick(rng, TAGS));
        match rng.gen_range(0..5) {
            0 => {
                doc.add_text(el, pick(rng, VALUES));
            }
            1 => {
                doc.add_text(el, if rng.gen_bool(0.5) { "  " } else { " x y " });
            }
            2 => add_attrs(&mut doc, rng, el),
            _ => {}
        }
        if rng.gen_bool(0.2) {
            doc.add_text(parent, &text_value(rng));
        }
        elements.push(el);
    }
    let ids = rng.gen_range(1..=elements.len().min(8));
    for &el in &elements {
        if rng.gen_bool(0.5) {
            let id = format!("p{}", rng.gen_range(0..ids));
            doc.set_attr(el, "id", &id).expect("an element");
        }
    }
    let token = |rng: &mut Rng| match rng.gen_range(0..10) {
        // Dangling.
        0 => "ghost".to_string(),
        _ => format!("p{}", rng.gen_range(0..ids)),
    };
    for &el in &elements {
        for name in REFS {
            if !rng.gen_bool(0.25) {
                continue;
            }
            let count = if name.ends_with('s') {
                rng.gen_range(0..4)
            } else {
                1
            };
            let tokens: Vec<String> = (0..count).map(|_| token(rng)).collect();
            let sep = if rng.gen_bool(0.2) { " \t " } else { " " };
            let pad = if rng.gen_bool(0.2) { " " } else { "" };
            let value = format!("{pad}{}{pad}", tokens.join(sep));
            doc.set_attr(el, name, &value).expect("an element");
        }
    }
    doc
}

// ----------------------------------------------------------------------
// XML-GL query generator
// ----------------------------------------------------------------------

/// One query leaf or subtree of an XML-GL extract pattern. Collects the
/// variables it binds. Inside a crossed-out edge (`negated`) it binds none:
/// the analyzer refuses a variable there, and the subtree is meant to reach
/// the matcher, which decides it by complementing a column.
fn xmlgl_subtree(
    rng: &mut Rng,
    vars: &mut Vec<String>,
    depth: usize,
    negated: bool,
    out: &mut String,
) {
    let tag = if rng.gen_bool(0.1) {
        "*"
    } else {
        pick(rng, TAGS)
    };
    out.push_str(tag);
    if !negated && rng.gen_bool(0.6) {
        let v = format!("v{}", vars.len());
        out.push_str(&format!(" as ${v}"));
        vars.push(v);
    }
    if depth > 0 && rng.gen_bool(0.6) {
        // Now and then an ordered body: element children bound in sibling
        // order. Often below a crossed-out edge, where the order stroke
        // decides which elements the negation rejects.
        let (open, close) = if rng.gen_bool(if negated { 0.5 } else { 0.15 }) {
            (" [ ", "] ")
        } else {
            (" { ", "} ")
        };
        out.push_str(open);
        for _ in 0..rng.gen_range(1..3usize) {
            match rng.gen_range(0..10) {
                // Attribute circle, possibly bound and/or constrained.
                0 | 1 => {
                    out.push('@');
                    out.push_str(pick(rng, ATTRS));
                    if !negated && rng.gen_bool(0.5) {
                        let v = format!("v{}", vars.len());
                        out.push_str(&format!(" as ${v}"));
                        vars.push(v);
                    }
                    if rng.gen_bool(0.4) {
                        let op = ["=", ">=", "<=", "!="][rng.gen_range(0..4)];
                        out.push_str(&format!(" {op} \"{}\"", pick(rng, VALUES)));
                    }
                    out.push(' ');
                }
                // Content circle.
                2 => {
                    out.push_str("text");
                    if !negated && rng.gen_bool(0.5) {
                        let v = format!("v{}", vars.len());
                        out.push_str(&format!(" as ${v}"));
                        vars.push(v);
                    } else if rng.gen_bool(0.3) {
                        out.push_str(&format!(" = \"{}\"", pick(rng, VALUES)));
                    }
                    out.push(' ');
                }
                // Element edge: plain, negated, deep, or both.
                _ => {
                    let not = rng.gen_bool(0.15);
                    if not {
                        out.push_str("not ");
                    }
                    if rng.gen_bool(0.2) {
                        out.push_str("deep ");
                    }
                    xmlgl_subtree(rng, vars, depth - 1, negated || not, out);
                }
            }
        }
        out.push_str(close);
    } else {
        out.push(' ');
    }
}

/// A random XML-GL extract/construct program as DSL text: one or two
/// extract trees, an optional deep-equal join, and a construct tree over a
/// subset of the bound variables. Always syntactically valid; deliberately
/// allowed to be *unsafe* (negated bindings referenced on the construct
/// side) — oracles filter on the analyzer's verdict.
pub fn gen_xmlgl(rng: &mut Rng) -> String {
    let mut vars = Vec::new();
    let mut extract = String::new();
    xmlgl_subtree(rng, &mut vars, 2, false, &mut extract);
    let first_tree_vars = vars.len();
    if rng.gen_bool(0.3) {
        xmlgl_subtree(rng, &mut vars, 1, false, &mut extract);
        // A join needs one var from each tree.
        if first_tree_vars > 0 && vars.len() > first_tree_vars && rng.gen_bool(0.8) {
            let a = &vars[rng.gen_range(0..first_tree_vars)];
            let b = &vars[first_tree_vars + rng.gen_range(0..vars.len() - first_tree_vars)];
            extract.push_str(&format!("join ${a} == ${b} "));
        }
    }
    let mut construct = String::from("out { ");
    if vars.is_empty() {
        construct.push_str("answer ");
    } else {
        let n = rng.gen_range(1..=vars.len());
        for v in vars.iter().take(n) {
            if rng.gen_bool(0.2) {
                construct.push_str(&format!("copy ${v} "));
            } else {
                construct.push_str(&format!("all ${v} "));
            }
        }
    }
    if rng.gen_bool(0.2) {
        construct.push_str(&format!(
            "@{} = \"{}\" ",
            pick(rng, ATTRS),
            pick(rng, VALUES)
        ));
    }
    construct.push('}');
    format!("rule {{ extract {{ {extract}}} construct {{ {construct} }} }}")
}

// ----------------------------------------------------------------------
// WG-Log query generator
// ----------------------------------------------------------------------

/// A random WG-Log program as DSL text: typed query nodes (tags double as
/// object types), plain/negated/regular-path edges labelled by child tags,
/// and a collector construct with the `result` goal. Non-vacuous against
/// the instance mapping (child tags become edge labels, attributes come
/// from the shared pools).
pub fn gen_wglog(rng: &mut Rng) -> String {
    gen_wglog_over(rng, TAGS, TAGS)
}

/// [`gen_wglog`] over a caller's vocabulary: object `types` and edge
/// `labels`, for documents (such as `gql_ssdm::generator::webgraph`'s)
/// whose tags are not the shared pool's.
pub fn gen_wglog_over(rng: &mut Rng, types: &[&str], labels: &[&str]) -> String {
    let n = rng.gen_range(1..4usize);
    let mut query = String::new();
    for i in 0..n {
        query.push_str(&format!("$q{i}: {}", pick(rng, types)));
        if rng.gen_bool(0.15) {
            let attr = if rng.gen_bool(0.5) {
                "text"
            } else {
                pick(rng, ATTRS)
            };
            let op = ["=", ">=", "<="][rng.gen_range(0..3)];
            query.push_str(&format!(" where {attr} {op} \"{}\"", pick(rng, VALUES)));
        }
        query.push_str("  ");
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if rng.gen_bool(0.2) {
            query.push_str("not ");
        }
        let edge = match rng.gen_range(0..10) {
            // Regular path over two labels (the GraphLog dashed edge).
            0 => format!("-({}|{})+->", pick(rng, labels), pick(rng, labels)),
            1 => format!("-({})+->", pick(rng, labels)),
            // Any-label edge.
            2 => "-*->".to_string(),
            _ => format!("-{}->", pick(rng, labels)),
        };
        query.push_str(&format!("$q{a} {edge} $q{b}  "));
    }
    let target = rng.gen_range(0..n);
    // `set` is a suffix of the node declaration, so it must precede edges.
    let mut construct = "$c: result".to_string();
    if rng.gen_bool(0.25) {
        construct.push_str(&format!(" set tag = \"{}\"", pick(rng, VALUES)));
    }
    construct.push_str(&format!("  $c -member-> $q{target}"));
    format!("rule {{ query {{ {query}}} construct {{ {construct} }} }} goal result")
}

// ----------------------------------------------------------------------
// XPath query generator
// ----------------------------------------------------------------------

/// The names and values generated XPath expressions mention.
#[derive(Debug, Clone, Copy)]
pub struct XPathVocab<'a> {
    pub tags: &'a [&'a str],
    pub attrs: &'a [&'a str],
    pub values: &'a [&'a str],
}

/// One predicate body. Arms 8 onwards aim at which steps are lowered onto
/// a tree pattern: positional predicates that must keep a step off it
/// (`last()`, a `position()` comparison, a bare numeric call), position-free
/// ones that must not (`not(@a='v')`), and an absolute inner path
/// (evaluated once and shared between candidates). Arms 13 to 22 aim at
/// the conditions a predicate lowers to: `and`, `or` and `not()` over
/// paths, two-step and attribute paths, relational comparisons on child
/// text and attributes with the path on either side, a relational
/// comparison with an absolute path, `.`, `*` and `@*` operands, and a
/// predicate nested inside the predicate's path. Arm 23
/// compares a node-set with a boolean under every operator (§3.4 compares
/// the node-set's boolean then), and arm 24 follows an attribute's value
/// through `id()`, which on a web graph's `ref` reaches real elements.
/// Arms 25 and 26 read values as `normalize-space` and `number()` do, which
/// over [`value`]'s padding must keep a no-break or em space.
fn xpath_predicate(rng: &mut Rng, v: &XPathVocab<'_>) -> String {
    let relational = |rng: &mut Rng| ["<", "<=", ">", ">="][rng.gen_range(0..4)];
    match rng.gen_range(0..28) {
        0 => format!("@{}", pick(rng, v.attrs)),
        1 => format!("@{}='{}'", pick(rng, v.attrs), value(rng, v.values)),
        2 => pick(rng, v.tags).to_string(),
        3 => format!("{}", rng.gen_range(1..4)),
        4 => format!("count({})>{}", pick(rng, v.tags), rng.gen_range(0..2)),
        5 => format!("not({})", pick(rng, v.tags)),
        6 => format!("text()='{}'", value(rng, v.values)),
        7 => format!(
            "@{} {} {}",
            pick(rng, v.attrs),
            ["<", "<=", ">", ">=", "!="][rng.gen_range(0..5)],
            rng.gen_range(0..30)
        ),
        8 => "last()".to_string(),
        9 => format!("position() < {}", rng.gen_range(1..4)),
        10 => {
            if rng.gen_bool(0.5) {
                format!("count({})", pick(rng, v.tags))
            } else {
                format!("string-length(@{})", pick(rng, v.attrs))
            }
        }
        11 => format!(
            "{} = //{}/{}",
            pick(rng, v.tags),
            pick(rng, v.tags),
            pick(rng, v.tags)
        ),
        12 => format!("not(@{} = '{}')", pick(rng, v.attrs), value(rng, v.values)),
        13 => format!("{} or @{}", pick(rng, v.tags), pick(rng, v.attrs)),
        14 => format!("not({} and {})", pick(rng, v.tags), pick(rng, v.tags)),
        15 => {
            let (t, v2) = (pick(rng, v.tags), value(rng, v.values));
            if rng.gen_bool(0.5) {
                format!("{t}/{} = '{v2}'", pick(rng, v.tags))
            } else {
                format!("{t}/@{} = '{v2}'", pick(rng, v.attrs))
            }
        }
        16 => format!(
            "{} {} {}",
            pick(rng, v.tags),
            relational(rng),
            rng.gen_range(0..30)
        ),
        17 => format!(
            "{} {} {}/@{}",
            rng.gen_range(0..30),
            relational(rng),
            pick(rng, v.tags),
            pick(rng, v.attrs)
        ),
        18 => format!(
            "{} {} //{}/@{}",
            pick(rng, v.tags),
            relational(rng),
            pick(rng, v.tags),
            pick(rng, v.attrs)
        ),
        19 => format!(". = '{}'", value(rng, v.values)),
        20 => format!(
            "* {} '{}'",
            ["=", "!="][rng.gen_range(0..2)],
            value(rng, v.values)
        ),
        21 => format!("@* = '{}'", value(rng, v.values)),
        22 => {
            let (t, a) = (pick(rng, v.tags), pick(rng, v.attrs));
            if rng.gen_bool(0.5) {
                format!("{t}[@{a}]")
            } else {
                format!("{t}[@{a} = '{}']", value(rng, v.values))
            }
        }
        23 => {
            let (t, b) = (
                pick(rng, v.tags),
                ["true()", "false()"][rng.gen_range(0..2)],
            );
            let op = ["=", "!=", "<", "<=", ">", ">="][rng.gen_range(0..6)];
            match rng.gen_range(0..3) {
                0 => format!("{t} {op} {b}"),
                1 => format!("{b} {op} {t}"),
                _ => format!("not({t}) {op} {}", pick(rng, v.tags)),
            }
        }
        24 => {
            let a = pick(rng, v.attrs);
            if rng.gen_bool(0.5) {
                format!("id(@{a})")
            } else {
                format!("id(@{a})/{}", pick(rng, v.tags))
            }
        }
        25 => {
            let of = match rng.gen_range(0..3) {
                0 => format!("@{}", pick(rng, v.attrs)),
                1 => ".".to_string(),
                _ => String::new(),
            };
            let op = ["=", "!="][rng.gen_range(0..2)];
            // Against a literal, or against the operand itself: they differ
            // exactly where the value has XML whitespace to strip.
            let rhs = match rng.gen_bool(0.5) {
                true => format!("'{}'", value(rng, v.values)),
                false if of.is_empty() => "string()".to_string(),
                false => of.clone(),
            };
            format!("normalize-space({of}) {op} {rhs}")
        }
        26 => {
            let of = match rng.gen_range(0..2) {
                0 => format!("@{}", pick(rng, v.attrs)),
                _ => ".".to_string(),
            };
            // A number equals itself unless it is NaN.
            match rng.gen_bool(0.5) {
                true => format!("number({of}) {} {}", relational(rng), rng.gen_range(0..30)),
                false => format!("number({of}) = number({of})"),
            }
        }
        // Two predicates on one step, one positional and one not, in either
        // order (the body is wrapped in `[...]` by the caller).
        _ => {
            let positional = match rng.gen_range(0..3) {
                0 => format!("{}", rng.gen_range(1..3)),
                1 => "last()".to_string(),
                _ => format!("position() < {}", rng.gen_range(2..4)),
            };
            let free = if rng.gen_bool(0.5) {
                format!("@{}", pick(rng, v.attrs))
            } else {
                pick(rng, v.tags).to_string()
            };
            if rng.gen_bool(0.5) {
                format!("{positional}][{free}")
            } else {
                format!("{free}][{positional}")
            }
        }
    }
}

fn xpath_step(rng: &mut Rng, v: &XPathVocab<'_>) -> String {
    let mut step = match rng.gen_range(0..12) {
        0 => "*".to_string(),
        1 => "text()".to_string(),
        2 => format!("descendant::{}", pick(rng, v.tags)),
        3 => "parent::*".to_string(),
        4 => format!("following-sibling::{}", pick(rng, v.tags)),
        5 => format!("ancestor-or-self::{}", pick(rng, v.tags)),
        _ => pick(rng, v.tags).to_string(),
    };
    if !step.ends_with("()") {
        for _ in 0..rng.gen_range(0..2) {
            step.push_str(&format!("[{}]", xpath_predicate(rng, v)));
        }
    }
    step
}

fn xpath_path(rng: &mut Rng, v: &XPathVocab<'_>) -> String {
    let mut p = if rng.gen_bool(0.8) { "//" } else { "/" }.to_string();
    p.push_str(&xpath_step(rng, v));
    for _ in 0..rng.gen_range(0..3usize) {
        p.push_str(if rng.gen_bool(0.4) { "//" } else { "/" });
        p.push_str(&xpath_step(rng, v));
    }
    if rng.gen_bool(0.15) {
        p.push_str(&after_attribute(rng, v));
    }
    p
}

/// An attribute step and a step after it on an axis that can reach the
/// attribute itself or its element: `self`, `parent`, `ancestor-or-self`,
/// `ancestor` and the sibling axes. A name or `*` test on them selects
/// elements only, the axes' principal node type (XPath 1.0 §2.3), and an
/// attribute has no siblings (§5.3).
fn after_attribute(rng: &mut Rng, v: &XPathVocab<'_>) -> String {
    const AXES: [&str; 6] = [
        "self",
        "parent",
        "ancestor-or-self",
        "ancestor",
        "following-sibling",
        "preceding-sibling",
    ];
    let attr = match rng.gen_bool(0.3) {
        true => "*",
        false => pick(rng, v.attrs),
    };
    let test = match rng.gen_range(0..4) {
        0 => "*",
        1 => "node()",
        2 => pick(rng, v.tags),
        _ => pick(rng, v.attrs),
    };
    format!("/@{attr}/{}::{test}", AXES[rng.gen_range(0..AXES.len())])
}

/// A random XPath expression within the supported 1.0 subset: abbreviated
/// and explicit axes, attribute/positional/boolean predicates, unions,
/// and the occasional scalar wrapper.
pub fn gen_xpath(rng: &mut Rng) -> String {
    gen_xpath_over(
        rng,
        &XPathVocab {
            tags: TAGS,
            attrs: ATTRS,
            values: VALUES,
        },
    )
}

/// [`gen_xpath`] over a caller's vocabulary, for documents (such as
/// `gql_ssdm::generator::webgraph`'s) whose names are not the shared pool's.
pub fn gen_xpath_over(rng: &mut Rng, v: &XPathVocab<'_>) -> String {
    let p = xpath_path(rng, v);
    match rng.gen_range(0..10) {
        0 => format!("count({p})"),
        1 => format!("{p} | {}", xpath_path(rng, v)),
        2 => format!(
            "count({p}) {} {}",
            ["=", ">", "<="][rng.gen_range(0..3)],
            rng.gen_range(0..4)
        ),
        _ => p,
    }
}

// ----------------------------------------------------------------------
// Cross-engine intents
// ----------------------------------------------------------------------

/// A query intent expressible in both XML-GL and XPath with provably equal
/// result counts — the cross-engine oracle of the testkit. (WG-Log is
/// excluded from count equality because the instance mapping folds atomic
/// elements into attributes, changing what is countable.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Intent {
    /// All elements named `.0` — `//t`.
    All(String),
    /// Elements `.0` with a child `.1` — `//p[c]`, distinct parents.
    WithChild(String, String),
    /// Elements `.0` without any child `.1` — `count(//p) - count(//p[c])`.
    WithoutChild(String, String),
    /// Child chains `.0/.1/.2` — `//a/b/c` (one embedding per leaf).
    Chain(String, String, String),
    /// Descendants `.1` under some `.0` — `//a//d`, distinct descendants.
    Deep(String, String),
}

impl Intent {
    pub fn gen(rng: &mut Rng) -> Intent {
        let t = |rng: &mut Rng| pick(rng, TAGS).to_string();
        match rng.gen_range(0..5) {
            0 => Intent::All(t(rng)),
            1 => Intent::WithChild(t(rng), t(rng)),
            2 => Intent::WithoutChild(t(rng), t(rng)),
            3 => Intent::Chain(t(rng), t(rng), t(rng)),
            _ => Intent::Deep(t(rng), t(rng)),
        }
    }

    /// Parse the textual descriptor produced by `Display` (corpus format).
    pub fn parse(s: &str) -> Option<Intent> {
        let mut w = s.split_whitespace();
        let kind = w.next()?;
        let rest: Vec<&str> = w.collect();
        let own = |i: usize| rest.get(i).map(|s| s.to_string());
        match (kind, rest.len()) {
            ("all", 1) => Some(Intent::All(own(0)?)),
            ("with-child", 2) => Some(Intent::WithChild(own(0)?, own(1)?)),
            ("without-child", 2) => Some(Intent::WithoutChild(own(0)?, own(1)?)),
            ("chain", 3) => Some(Intent::Chain(own(0)?, own(1)?, own(2)?)),
            ("deep", 2) => Some(Intent::Deep(own(0)?, own(1)?)),
            _ => None,
        }
    }

    /// The XML-GL side of the intent. The variable the count is taken over
    /// is always `$x`; [`Intent::distinct`] says whether to deduplicate.
    pub fn xmlgl(&self) -> String {
        let body = match self {
            Intent::All(t) => format!("{t} as $x"),
            Intent::WithChild(p, c) => format!("{p} as $x {{ {c} }}"),
            Intent::WithoutChild(p, c) => format!("{p} as $x {{ not {c} }}"),
            Intent::Chain(a, b, c) => format!("{a} as $x {{ {b} {{ {c} }} }}"),
            Intent::Deep(a, d) => format!("{a} {{ deep {d} as $x }}"),
        };
        format!("rule {{ extract {{ {body} }} construct {{ out {{ all $x }} }} }}")
    }

    /// The XPath side. `WithoutChild` is counted as a difference of two
    /// selects, handled in the oracle.
    pub fn xpath(&self) -> String {
        match self {
            Intent::All(t) => format!("//{t}"),
            Intent::WithChild(p, c) => format!("//{p}[{c}]"),
            Intent::WithoutChild(p, c) => format!("//{p}[not({c})]"),
            Intent::Chain(a, b, c) => format!("//{a}/{b}/{c}"),
            Intent::Deep(a, d) => format!("//{a}//{d}"),
        }
    }

    /// Must the XML-GL binding count be deduplicated on `$x`? (A parent
    /// with two matching children yields two embeddings but one `//p[c]`
    /// node; a descendant under two nested `a`s yields two embeddings but
    /// one `//a//d` node.)
    pub fn distinct(&self) -> bool {
        matches!(self, Intent::WithChild(..) | Intent::Deep(..))
    }

    /// Positive intents are monotone under subtree pruning; `WithoutChild`
    /// is not (removing a child can make its parent start matching).
    pub fn positive(&self) -> bool {
        !matches!(self, Intent::WithoutChild(..))
    }
}

impl std::fmt::Display for Intent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Intent::All(t) => write!(f, "all {t}"),
            Intent::WithChild(p, c) => write!(f, "with-child {p} {c}"),
            Intent::WithoutChild(p, c) => write!(f, "without-child {p} {c}"),
            Intent::Chain(a, b, c) => write!(f, "chain {a} {b} {c}"),
            Intent::Deep(a, d) => write!(f, "deep {a} {d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::case_rng;

    #[test]
    fn xmlgl_generator_is_always_syntactically_valid() {
        for seed in 0..400 {
            let mut rng = case_rng(seed);
            let src = gen_xmlgl(&mut rng);
            gql_xmlgl::dsl::parse_unchecked(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn wglog_generator_is_always_syntactically_valid() {
        for seed in 0..400 {
            let mut rng = case_rng(seed);
            let src = gen_wglog(&mut rng);
            gql_wglog::dsl::parse_unchecked(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn xpath_generator_is_always_syntactically_valid() {
        for seed in 0..400 {
            let mut rng = case_rng(seed);
            let src = gen_xpath(&mut rng);
            gql_xpath::parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn intent_descriptor_roundtrips() {
        for seed in 0..100 {
            let mut rng = case_rng(seed);
            let i = Intent::gen(&mut rng);
            assert_eq!(Intent::parse(&i.to_string()), Some(i.clone()), "{i}");
            // Both renderings parse in their engines.
            gql_xmlgl::dsl::parse(&i.xmlgl()).unwrap_or_else(|e| panic!("{i}: {e}"));
            gql_xpath::parse(&i.xpath()).unwrap_or_else(|e| panic!("{i}: {e}"));
        }
    }

    #[test]
    fn documents_parse_and_are_reserialization_stable() {
        for seed in 0..200 {
            let mut rng = case_rng(seed);
            let xml = document_xml(&mut rng);
            let doc = gql_ssdm::Document::parse_str(&xml)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{xml}"));
            let once = doc.to_xml_string();
            let again = gql_ssdm::Document::parse_str(&once).expect("reparses");
            assert_eq!(once, again.to_xml_string(), "seed {seed}");
        }
    }
}
