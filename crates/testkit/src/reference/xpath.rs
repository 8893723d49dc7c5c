//! A textbook XPath 1.0 evaluator, the oracle `gql_xpath`'s evaluator is
//! held to.
//!
//! The evaluator it checks reads postings from a `DocIndex` (a resident one,
//! or one it builds lazily), fuses each `//Name` pair into one lookup,
//! hoists absolute paths out of predicates, walks a predicate read as a
//! truth value only as far as its first witness, and skips a sort where one
//! context already yields document order. This one does none of that. It
//! follows the recommendation's text:
//!
//! - every axis of §2.2 is a relation computed per context node from the
//!   document's parent and child links and a document order this module
//!   numbers itself (§5: an element, then its attributes, then its
//!   children);
//! - node tests read the axis's principal node type (§2.3);
//! - every predicate is evaluated for every candidate, with its proximity
//!   position and the candidate list's size (§2.4);
//! - comparisons are §3.4's rules written out case by case;
//! - the §4 core library (the functions `gql_xpath` implements) is written
//!   here, number conversion and rounding included.
//!
//! From `gql_xpath` it takes only the parsed expression, the value and item
//! types it returns, and the error type. No index, no guard, no trace, and
//! no thought for speed.

use std::collections::HashMap;

use gql_ssdm::document::NodeKind;
use gql_ssdm::{Document, NodeId};
use gql_xpath::ast::{Axis, BinOp, Expr, NodeTest, Step};
use gql_xpath::{Item, XPathError, XValue};

type Result<T> = std::result::Result<T, XPathError>;

/// Evaluate `expr` with the document node as the context node, at position
/// 1 of a context of size 1.
pub fn evaluate(doc: &Document, expr: &Expr) -> Result<XValue> {
    let context = Context {
        item: Item::Node(doc.root()),
        position: 1,
        size: 1,
    };
    Evaluator::new(doc).expr(expr, context)
}

/// The context of §1: a node, a position and a size (no variables, no
/// namespaces).
#[derive(Clone, Copy)]
struct Context {
    item: Item,
    position: usize,
    size: usize,
}

struct Evaluator<'d> {
    doc: &'d Document,
    /// Every item reachable from the document node, attributes included, in
    /// document order.
    order: Vec<Item>,
    /// Each item's place in `order`.
    rank: HashMap<Item, usize>,
}

fn eval_error(msg: String) -> XPathError {
    XPathError::Eval { msg }
}

/// §2.4: the reverse axes. Every other axis is a forward axis.
fn is_reverse(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::Ancestor | Axis::AncestorOrSelf | Axis::Preceding | Axis::PrecedingSibling
    )
}

/// XML's whitespace characters (§3.7's `ExprWhitespace`), the only ones
/// `number()`, `normalize-space()` and `id()` strip or split on.
fn is_space(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\r' | '\n')
}

impl<'d> Evaluator<'d> {
    fn new(doc: &'d Document) -> Self {
        let mut order = Vec::new();
        let mut stack = vec![doc.root()];
        while let Some(n) = stack.pop() {
            order.push(Item::Node(n));
            order.extend((0..doc.attrs(n).count()).map(|index| Item::Attr { owner: n, index }));
            stack.extend(doc.children(n).iter().rev());
        }
        let rank = (order.iter().enumerate()).map(|(i, &x)| (x, i)).collect();
        Evaluator { doc, order, rank }
    }

    fn rank(&self, x: Item) -> usize {
        self.rank[&x]
    }

    /// `items` sorted into document order, each once.
    fn in_document_order(&self, mut items: Vec<Item>) -> Vec<Item> {
        items.sort_by_key(|&x| self.rank(x));
        items.dedup();
        items
    }

    // ------------------------------------------------------------------
    // The data model (§5)
    // ------------------------------------------------------------------

    /// The parent of a node; an attribute's parent is its element, though
    /// the attribute is not the element's child.
    fn parent(&self, x: Item) -> Option<Item> {
        match x {
            Item::Node(n) => self.doc.parent(n).map(Item::Node),
            Item::Attr { owner, .. } => Some(Item::Node(owner)),
        }
    }

    fn children(&self, x: Item) -> Vec<Item> {
        match x {
            Item::Node(n) => self
                .doc
                .children(n)
                .iter()
                .map(|&c| Item::Node(c))
                .collect(),
            Item::Attr { .. } => Vec::new(),
        }
    }

    /// Whether `a` is a proper ancestor of `y`: reached from `y` by the
    /// parent relation once or more.
    fn is_ancestor(&self, a: Item, y: Item) -> bool {
        let mut cur = self.parent(y);
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    fn is_attribute(x: Item) -> bool {
        matches!(x, Item::Attr { .. })
    }

    fn kind(&self, x: Item) -> Option<NodeKind> {
        match x {
            Item::Node(n) => Some(self.doc.kind(n)),
            Item::Attr { .. } => None,
        }
    }

    /// The string-value of §5: an attribute's value; the text of a text,
    /// comment or processing-instruction node; for the document node and an
    /// element, the text nodes below it concatenated in document order.
    fn string_value(&self, x: Item) -> String {
        match x {
            Item::Attr { owner, index } => {
                (self.doc.attrs(owner).nth(index)).map_or(String::new(), |(_, v)| v.to_string())
            }
            Item::Node(n) => match self.doc.kind(n) {
                NodeKind::Text | NodeKind::Comment | NodeKind::Pi => {
                    self.doc.text(n).unwrap_or("").to_string()
                }
                NodeKind::Document | NodeKind::Element => {
                    let below = self.descendants(x);
                    (below.into_iter())
                        .filter(|&d| self.kind(d) == Some(NodeKind::Text))
                        .map(|d| self.string_value(d))
                        .collect()
                }
            },
        }
    }

    /// The expanded name of §5: an element's tag, an attribute's name, a
    /// processing instruction's target; empty for every other node.
    fn name(&self, x: Item) -> String {
        match x {
            Item::Node(n) => self.doc.name(n).unwrap_or("").to_string(),
            Item::Attr { owner, index } => {
                (self.doc.attrs(owner).nth(index)).map_or(String::new(), |(k, _)| k.to_string())
            }
        }
    }

    /// Proper descendants, by the child relation, in document order.
    fn descendants(&self, x: Item) -> Vec<Item> {
        let mut out = Vec::new();
        let mut stack: Vec<Item> = self.children(x).into_iter().rev().collect();
        while let Some(y) = stack.pop() {
            out.push(y);
            stack.extend(self.children(y).into_iter().rev());
        }
        out
    }

    fn ancestors(&self, x: Item) -> Vec<Item> {
        let mut out = Vec::new();
        let mut cur = self.parent(x);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent(p);
        }
        out
    }

    /// The siblings of `x` before it and after it; an attribute and the
    /// document node have none.
    fn siblings(&self, x: Item) -> (Vec<Item>, Vec<Item>) {
        let Some(parent) = self.parent(x).filter(|_| !Self::is_attribute(x)) else {
            return (Vec::new(), Vec::new());
        };
        let all = self.children(parent);
        let at = all
            .iter()
            .position(|&s| s == x)
            .expect("a child of its parent");
        (all[..at].to_vec(), all[at + 1..].to_vec())
    }

    // ------------------------------------------------------------------
    // Location steps (§2)
    // ------------------------------------------------------------------

    /// The items `axis` relates `x` to (§2.2), in proximity order (§2.4):
    /// document order on a forward axis, its reverse on a reverse one.
    fn axis(&self, axis: Axis, x: Item) -> Vec<Item> {
        let mut related = match axis {
            Axis::SelfAxis => vec![x],
            Axis::Child => self.children(x),
            Axis::Attribute => match x {
                Item::Node(owner) => (0..self.doc.attrs(owner).count())
                    .map(|index| Item::Attr { owner, index })
                    .collect(),
                Item::Attr { .. } => Vec::new(),
            },
            Axis::Parent => self.parent(x).into_iter().collect(),
            Axis::Ancestor => self.ancestors(x),
            Axis::AncestorOrSelf => [vec![x], self.ancestors(x)].concat(),
            Axis::Descendant => self.descendants(x),
            Axis::DescendantOrSelf => [vec![x], self.descendants(x)].concat(),
            Axis::PrecedingSibling => self.siblings(x).0,
            Axis::FollowingSibling => self.siblings(x).1,
            // After `x` in document order, not its descendant, and not an
            // attribute.
            Axis::Following => (self.order.iter().copied())
                .filter(|&y| {
                    self.rank(y) > self.rank(x) && !Self::is_attribute(y) && !self.is_ancestor(x, y)
                })
                .collect(),
            // Before `x` in document order, not its ancestor, and not an
            // attribute.
            Axis::Preceding => (self.order.iter().copied())
                .filter(|&y| {
                    self.rank(y) < self.rank(x) && !Self::is_attribute(y) && !self.is_ancestor(y, x)
                })
                .collect(),
        };
        related.sort_by_key(|&y| self.rank(y));
        if is_reverse(axis) {
            related.reverse();
        }
        related
    }

    /// §2.3: a name test or `*` passes nodes of the axis's principal node
    /// type only (attributes on the attribute axis, elements on every
    /// other), `node()` passes any node.
    fn passes(&self, axis: Axis, test: &NodeTest, y: Item) -> bool {
        let principal = |y: Item| match axis {
            Axis::Attribute => Self::is_attribute(y),
            _ => self.kind(y) == Some(NodeKind::Element),
        };
        match test {
            NodeTest::Node => true,
            NodeTest::Text => self.kind(y) == Some(NodeKind::Text),
            NodeTest::Comment => self.kind(y) == Some(NodeKind::Comment),
            NodeTest::Any => principal(y),
            NodeTest::Name(name) => principal(y) && self.name(y) == *name,
        }
    }

    /// Apply `steps` to the node-set `start`: per context node, the axis in
    /// proximity order, the node test, then each predicate over the list
    /// the previous one left; the union of what every context node yields,
    /// in document order.
    fn steps(&self, steps: &[Step], start: Vec<Item>) -> Result<Vec<Item>> {
        let mut current = start;
        for step in steps {
            let mut next = Vec::new();
            for &x in &current {
                let mut candidates: Vec<Item> = (self.axis(step.axis, x).into_iter())
                    .filter(|&y| self.passes(step.axis, &step.test, y))
                    .collect();
                for pred in &step.predicates {
                    candidates = self.filter(candidates, pred)?;
                }
                next.extend(candidates);
            }
            current = self.in_document_order(next);
        }
        Ok(current)
    }

    /// §2.4: keep the candidates `pred` holds for, each evaluated with its
    /// position in `candidates` and their count; a number is true at its
    /// own position, any other value is converted by `boolean()`.
    fn filter(&self, candidates: Vec<Item>, pred: &Expr) -> Result<Vec<Item>> {
        let size = candidates.len();
        let mut kept = Vec::new();
        for (i, &item) in candidates.iter().enumerate() {
            let position = i + 1;
            let context = Context {
                item,
                position,
                size,
            };
            let keep = match self.expr(pred, context)? {
                XValue::Num(n) => n == position as f64,
                other => boolean(&other),
            };
            if keep {
                kept.push(item);
            }
        }
        Ok(kept)
    }

    // ------------------------------------------------------------------
    // Expressions (§3)
    // ------------------------------------------------------------------

    fn expr(&self, expr: &Expr, c: Context) -> Result<XValue> {
        Ok(match expr {
            Expr::Literal(s) => XValue::Str(s.clone()),
            Expr::Number(n) => XValue::Num(*n),
            Expr::Neg(e) => XValue::Num(-self.number(&self.expr(e, c)?)),
            Expr::Path(p) => {
                let start = if p.absolute {
                    Item::Node(self.doc.root())
                } else {
                    c.item
                };
                XValue::Nodes(self.steps(&p.steps, vec![start])?)
            }
            Expr::FilterPath(primary, steps) => {
                let start = node_set(self.expr(primary, c)?)?;
                XValue::Nodes(self.steps(steps, start)?)
            }
            Expr::Union(a, b) => {
                let mut both = node_set(self.expr(a, c)?)?;
                both.extend(node_set(self.expr(b, c)?)?);
                XValue::Nodes(self.in_document_order(both))
            }
            Expr::Binary(BinOp::Or, a, b) => {
                XValue::Bool(boolean(&self.expr(a, c)?) || boolean(&self.expr(b, c)?))
            }
            Expr::Binary(BinOp::And, a, b) => {
                XValue::Bool(boolean(&self.expr(a, c)?) && boolean(&self.expr(b, c)?))
            }
            Expr::Binary(op, a, b) => {
                let (x, y) = (self.expr(a, c)?, self.expr(b, c)?);
                match op {
                    BinOp::Add => XValue::Num(self.number(&x) + self.number(&y)),
                    BinOp::Sub => XValue::Num(self.number(&x) - self.number(&y)),
                    BinOp::Mul => XValue::Num(self.number(&x) * self.number(&y)),
                    BinOp::Div => XValue::Num(self.number(&x) / self.number(&y)),
                    // §3.5: the remainder of a truncating division.
                    BinOp::Mod => XValue::Num(self.number(&x) % self.number(&y)),
                    _ => XValue::Bool(self.compare(*op, &x, &y)),
                }
            }
            Expr::Call(name, args) => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.expr(a, c)?);
                }
                self.call(name, values, c)?
            }
        })
    }

    /// §3.4, case by case.
    fn compare(&self, op: BinOp, a: &XValue, b: &XValue) -> bool {
        use XValue::{Bool, Nodes, Num, Str};
        let text = |x: Item| Str(self.string_value(x));
        let num = |x: Item| Num(number_of(&self.string_value(x)));
        match (a, b) {
            // Some pair of nodes whose string-values compare true.
            (Nodes(xs), Nodes(ys)) => xs
                .iter()
                .any(|&x| ys.iter().any(|&y| self.atomic(op, &text(x), &text(y)))),
            // A node-set against a boolean compares as a boolean, under
            // every operator.
            (Nodes(xs), Bool(_)) => self.atomic(op, &Bool(!xs.is_empty()), b),
            (Bool(_), Nodes(ys)) => self.atomic(op, a, &Bool(!ys.is_empty())),
            // Some node whose string-value, as a number, compares true.
            (Nodes(xs), Num(_)) => xs.iter().any(|&x| self.atomic(op, &num(x), b)),
            (Num(_), Nodes(ys)) => ys.iter().any(|&y| self.atomic(op, a, &num(y))),
            // Some node whose string-value compares true with the string.
            (Nodes(xs), Str(_)) => xs.iter().any(|&x| self.atomic(op, &text(x), b)),
            (Str(_), Nodes(ys)) => ys.iter().any(|&y| self.atomic(op, a, &text(y))),
            _ => self.atomic(op, a, b),
        }
    }

    /// §3.4 for two values neither of which is a node-set: `=` and `!=`
    /// compare as booleans if either is one, else as numbers if either is
    /// one, else as strings; the relational operators compare numbers.
    fn atomic(&self, op: BinOp, a: &XValue, b: &XValue) -> bool {
        use XValue::{Bool, Num};
        let equal = match (a, b) {
            (Bool(_), _) | (_, Bool(_)) => boolean(a) == boolean(b),
            (Num(_), _) | (_, Num(_)) => self.number(a) == self.number(b),
            _ => self.string(a) == self.string(b),
        };
        let (x, y) = (self.number(a), self.number(b));
        match op {
            BinOp::Eq => equal,
            BinOp::Ne => !equal,
            BinOp::Lt => x < y,
            BinOp::Le => x <= y,
            BinOp::Gt => x > y,
            BinOp::Ge => x >= y,
            _ => unreachable!("{op:?} is not a comparison"),
        }
    }

    // ------------------------------------------------------------------
    // Conversions (§4.2–§4.4)
    // ------------------------------------------------------------------

    /// `string()`: a node-set's first node in document order, numbers as
    /// §4.2 spells them.
    fn string(&self, v: &XValue) -> String {
        match v {
            XValue::Nodes(xs) => (xs.iter().min_by_key(|&&x| self.rank(x)))
                .map_or(String::new(), |&x| self.string_value(x)),
            XValue::Str(s) => s.clone(),
            XValue::Bool(b) => b.to_string(),
            XValue::Num(n) => number_to_string(*n),
        }
    }

    /// `number()`.
    fn number(&self, v: &XValue) -> f64 {
        match v {
            XValue::Num(n) => *n,
            XValue::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            XValue::Str(s) => number_of(s),
            XValue::Nodes(_) => number_of(&self.string(v)),
        }
    }

    // ------------------------------------------------------------------
    // The core function library (§4)
    // ------------------------------------------------------------------

    fn call(&self, name: &str, args: Vec<XValue>, c: Context) -> Result<XValue> {
        let arity = |accepted: &[usize]| -> Result<()> {
            if accepted.contains(&args.len()) {
                Ok(())
            } else {
                Err(eval_error(format!(
                    "{name}() takes {accepted:?} argument(s), got {}",
                    args.len()
                )))
            }
        };
        // The argument, or the context node as a one-node set.
        let this = XValue::Nodes(vec![c.item]);
        let arg = |i: usize| args.get(i).unwrap_or(&this);
        let string = |i: usize| self.string(arg(i));
        Ok(match name {
            // §4.1 Node-set functions.
            "last" => {
                arity(&[0])?;
                XValue::Num(c.size as f64)
            }
            "position" => {
                arity(&[0])?;
                XValue::Num(c.position as f64)
            }
            "count" => {
                arity(&[1])?;
                XValue::Num(node_set(args[0].clone())?.len() as f64)
            }
            "id" => {
                arity(&[1])?;
                let tokens: Vec<String> = match &args[0] {
                    XValue::Nodes(xs) => (xs.iter())
                        .flat_map(|&x| words(&self.string_value(x)))
                        .collect(),
                    other => words(&self.string(other)),
                };
                let found = (tokens.iter())
                    .filter_map(|t| self.element_with_id(t))
                    .collect();
                XValue::Nodes(self.in_document_order(found))
            }
            "local-name" | "name" => {
                arity(&[0, 1])?;
                let xs = node_set(arg(0).clone())?;
                let first = xs.into_iter().min_by_key(|&x| self.rank(x));
                XValue::Str(first.map_or(String::new(), |x| self.name(x)))
            }
            // §4.2 String functions.
            "string" => {
                arity(&[0, 1])?;
                XValue::Str(string(0))
            }
            "concat" => {
                if args.len() < 2 {
                    return Err(eval_error(format!(
                        "concat() takes two or more arguments, got {}",
                        args.len()
                    )));
                }
                XValue::Str(args.iter().map(|a| self.string(a)).collect())
            }
            "starts-with" => {
                arity(&[2])?;
                XValue::Bool(string(0).starts_with(&string(1)))
            }
            "contains" => {
                arity(&[2])?;
                XValue::Bool(string(0).contains(&string(1)))
            }
            "substring-before" | "substring-after" => {
                arity(&[2])?;
                let (s, sep) = (string(0), string(1));
                let part = match s.find(&sep) {
                    None => "",
                    Some(at) if name == "substring-before" => &s[..at],
                    Some(at) => &s[at + sep.len()..],
                };
                XValue::Str(part.to_string())
            }
            "substring" => {
                arity(&[2, 3])?;
                let s = string(0);
                let first = round(self.number(&args[1]));
                // The characters at positions p with first <= p, and, given
                // a length, p < first + round(length).
                let end = args.get(2).map(|len| first + round(self.number(len)));
                let kept = (s.chars().enumerate())
                    .filter(|&(i, _)| {
                        let p = (i + 1) as f64;
                        p >= first && end.is_none_or(|end| p < end)
                    })
                    .map(|(_, ch)| ch);
                XValue::Str(kept.collect())
            }
            "string-length" => {
                arity(&[0, 1])?;
                XValue::Num(string(0).chars().count() as f64)
            }
            "normalize-space" => {
                arity(&[0, 1])?;
                XValue::Str(words(&string(0)).join(" "))
            }
            "translate" => {
                arity(&[3])?;
                let (from, to): (Vec<char>, Vec<char>) =
                    (string(1).chars().collect(), string(2).chars().collect());
                let mapped = (string(0).chars())
                    .filter_map(|ch| match from.iter().position(|&f| f == ch) {
                        Some(i) => to.get(i).copied(),
                        None => Some(ch),
                    })
                    .collect();
                XValue::Str(mapped)
            }
            // §4.3 Boolean functions.
            "boolean" => {
                arity(&[1])?;
                XValue::Bool(boolean(&args[0]))
            }
            "not" => {
                arity(&[1])?;
                XValue::Bool(!boolean(&args[0]))
            }
            "true" | "false" => {
                arity(&[0])?;
                XValue::Bool(name == "true")
            }
            // §4.4 Number functions.
            "number" => {
                arity(&[0, 1])?;
                XValue::Num(self.number(arg(0)))
            }
            "sum" => {
                arity(&[1])?;
                let xs = node_set(args[0].clone())?;
                XValue::Num(xs.iter().map(|&x| number_of(&self.string_value(x))).sum())
            }
            "floor" => {
                arity(&[1])?;
                XValue::Num(self.number(&args[0]).floor())
            }
            "ceiling" => {
                arity(&[1])?;
                XValue::Num(self.number(&args[0]).ceil())
            }
            "round" => {
                arity(&[1])?;
                XValue::Num(round(self.number(&args[0])))
            }
            _ => return Err(eval_error(format!("unknown function '{name}'"))),
        })
    }

    /// The first element in document order whose `id` attribute is `token`
    /// (the store's ID attribute; a duplicate declaration is ignored).
    fn element_with_id(&self, token: &str) -> Option<Item> {
        (self.order.iter().copied()).find(|&x| {
            self.kind(x) == Some(NodeKind::Element)
                && x.as_node()
                    .is_some_and(|n| element_id(self.doc, n) == Some(token))
        })
    }
}

fn element_id(doc: &Document, n: NodeId) -> Option<&str> {
    doc.attrs(n).find(|&(k, _)| k == "id").map(|(_, v)| v)
}

fn node_set(v: XValue) -> Result<Vec<Item>> {
    match v {
        XValue::Nodes(xs) => Ok(xs),
        other => Err(eval_error(format!("expected a node-set, got {other:?}"))),
    }
}

/// `boolean()` (§4.3).
fn boolean(v: &XValue) -> bool {
    match v {
        XValue::Nodes(xs) => !xs.is_empty(),
        XValue::Num(n) => !(*n == 0.0 || n.is_nan()),
        XValue::Str(s) => !s.is_empty(),
        XValue::Bool(b) => *b,
    }
}

/// `number()` of a string (§4.4): optional whitespace, an optional minus
/// sign, `Digits ('.' Digits?)?` or `'.' Digits`, optional whitespace;
/// anything else is NaN.
fn number_of(s: &str) -> f64 {
    let t = s.trim_matches(is_space);
    let body = t.strip_prefix('-').unwrap_or(t);
    let (int, frac) = match body.split_once('.') {
        Some((int, frac)) => (int, Some(frac)),
        None => (body, None),
    };
    let digits = |d: &str| d.chars().all(|ch| ch.is_ascii_digit());
    let well_formed = digits(int)
        && frac.is_none_or(digits)
        && (!int.is_empty() || frac.is_some_and(|f| !f.is_empty()));
    if !well_formed {
        return f64::NAN;
    }
    t.parse().unwrap_or(f64::NAN)
}

/// `string()` of a number (§4.2): NaN, Infinity and -Infinity by name, both
/// zeros as `0`, an integer without a decimal point, and anything else in
/// decimal notation with no exponent.
fn number_to_string(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
    } else if n == 0.0 {
        "0".to_string()
    } else {
        // Rust's `Display` for `f64` writes the shortest digits that read
        // back as `n`, never with an exponent.
        format!("{n}")
    }
}

/// `round()` (§4.4): the integer closest to `x`, the one towards positive
/// infinity when two are; NaN, the infinities and both zeros unchanged;
/// negative zero for `-0.5 <= x < 0`.
fn round(x: f64) -> f64 {
    // `f64::round` takes a tie away from zero; move a negative tie back.
    let nearest = x.round();
    let nearest = if nearest - x == -0.5 {
        nearest + 1.0
    } else {
        nearest
    };
    if nearest == 0.0 && x.is_sign_negative() {
        -0.0
    } else {
        nearest
    }
}

/// The whitespace-separated words of `s`.
fn words(s: &str) -> Vec<String> {
    (s.split(is_space))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(doc: &Document, src: &str) -> XValue {
        evaluate(doc, &gql_xpath::parse(src).unwrap()).unwrap()
    }

    fn num(doc: &Document, src: &str) -> f64 {
        match eval(doc, src) {
            XValue::Num(n) => n,
            other => panic!("{src}: {other:?}"),
        }
    }

    #[test]
    fn axes_follow_the_recommendation() {
        let d = Document::parse_str(
            "<r><a k='1' j='2'><b>x</b><c/></a><a><b>y</b><!--n--><b>z</b></a></r>",
        )
        .unwrap();
        for (src, expect) in [
            ("count(//b)", 3.0),
            ("count(/r/a[2]/b[last()]/preceding-sibling::*)", 1.0),
            ("count(//c/preceding::node())", 2.0),
            ("count(//c/following::*)", 3.0),
            ("count(//a[1]/@k/following::*)", 5.0),
            ("count(//a[1]/@j/preceding::node())", 0.0),
            ("count(//b[.='z']/ancestor::*)", 2.0),
            ("count(//b[.='z']/ancestor::*[1][not(@k)])", 1.0),
            ("count(//@*/..)", 1.0),
            ("count(//@k/self::*)", 0.0),
            ("count(//@k/self::node())", 1.0),
            ("count(//@k/ancestor-or-self::*)", 2.0),
            ("count(//@k/following-sibling::node())", 0.0),
            ("count(//a/comment())", 1.0),
            ("count(//b[2])", 1.0),
            ("count((//b)/..)", 2.0),
        ] {
            assert_eq!(num(&d, src), expect, "{src}");
        }
        assert_eq!(eval(&d, "string(/r)"), XValue::Str("xyz".into()));
    }

    #[test]
    fn comparisons_follow_section_3_4() {
        let d = Document::parse_str("<r><a>5</a><a>7</a><b/></r>").unwrap();
        for (src, expect) in [
            ("//a = 7", true),
            ("//a != 7", true),
            ("//a < //a", true),
            ("//a > 6", true),
            ("//nothing = false()", true),
            ("//nothing < true()", true),
            ("//a >= true()", true),
            ("true() > //nothing", true),
            ("//nothing != //a", false),
            ("'7' = 7.0", true),
            ("'a' = true()", true),
            ("0 div 0 = 0 div 0", false),
            ("0 div 0 != 0 div 0", true),
        ] {
            assert_eq!(eval(&d, src), XValue::Bool(expect), "{src}");
        }
    }

    #[test]
    fn rounding_and_substrings_follow_section_4() {
        let d = Document::parse_str("<r/>").unwrap();
        for (src, expect) in [
            ("round(2.5)", 3.0),
            ("round(-2.5)", -2.0),
            ("round(0.49999999999999994)", 0.0),
            ("round(4503599627370497)", 4_503_599_627_370_497.0),
            ("1 div round(-0.5)", f64::NEG_INFINITY),
            ("1 div round(-0)", f64::NEG_INFINITY),
            ("number(' 12.5 ')", 12.5),
            ("number('.5')", 0.5),
        ] {
            assert_eq!(num(&d, src), expect, "{src}");
        }
        assert!(num(&d, "number('1e3')").is_nan());
        for (src, expect) in [
            ("substring('12345', 1.5, 2.6)", "234"),
            ("substring('12345', 0, 3)", "12"),
            ("substring('12345', 0 div 0, 3)", ""),
            ("substring('12345', 1, 0 div 0)", ""),
            ("substring('12345', -42, 1 div 0)", "12345"),
            ("substring('12345', -1 div 0, 1 div 0)", ""),
            ("substring('12345', -1 div 0)", "12345"),
            ("string(1 div 0)", "Infinity"),
            ("string(-0)", "0"),
            ("string(0.5)", "0.5"),
        ] {
            assert_eq!(eval(&d, src), XValue::Str(expect.into()), "{src}");
        }
    }

    #[test]
    fn id_returns_the_first_element_declaring_each_token() {
        let d = Document::parse_str("<r><n id='a'/><n id='b'/><n id='a'/><p refs=' b  a '/></r>")
            .unwrap();
        let XValue::Nodes(hits) = eval(&d, "id(//p/@refs)") else {
            panic!("a node-set");
        };
        let ids: Vec<usize> = hits.iter().map(|h| h.as_node().unwrap().index()).collect();
        let XValue::Nodes(first_two) = eval(&d, "/r/n[position() < 3]") else {
            panic!("a node-set");
        };
        let want: Vec<usize> = first_two
            .iter()
            .map(|h| h.as_node().unwrap().index())
            .collect();
        assert_eq!(ids, want);
    }

    /// Principal node types (§2.3) and XML's whitespace (§3.7) on one
    /// document: the reference's answer, and the evaluator's, is pinned for
    /// each probe. The document's U+00A0 is content, not whitespace.
    #[test]
    fn the_evaluator_agrees_on_principal_types_and_xml_whitespace() {
        let d = Document::parse_str("<r><a k='1'><b>x&#160;y</b></a><c>&#160;5</c></r>").unwrap();
        let both = |src: &str| {
            let expr = gql_xpath::parse(src).unwrap();
            let fast = gql_xpath::evaluate(&d, &expr).unwrap();
            (evaluate(&d, &expr).unwrap(), fast)
        };
        for (src, want) in [
            ("count(//@k/self::*)", XValue::Num(0.0)),
            ("count(//@*/self::k)", XValue::Num(0.0)),
            ("count(//@k/self::node())", XValue::Num(1.0)),
            ("count(//@k/ancestor-or-self::*)", XValue::Num(2.0)),
            ("count(//@k/ancestor-or-self::node())", XValue::Num(4.0)),
            ("count(//@*[self::k])", XValue::Num(0.0)),
            ("normalize-space(//b)", XValue::Str("x\u{a0}y".into())),
            ("//c > 4", XValue::Bool(false)),
            ("count(id('x\u{a0}y'))", XValue::Num(0.0)),
        ] {
            let (reference, fast) = both(src);
            assert_eq!(reference, want, "{src}: the reference");
            assert_eq!(fast, want, "{src}: the evaluator");
        }
        let (reference, fast) = both("number(//c)");
        assert!(
            matches!((reference, fast), (XValue::Num(a), XValue::Num(b)) if a.is_nan() && b.is_nan()),
            "number(//c)"
        );
    }

    #[test]
    fn errors_are_errors() {
        let d = Document::parse_str("<r/>").unwrap();
        for src in [
            "frob()",
            "count(1)",
            "count()",
            "concat('a')",
            "(1)/r",
            "1 | //r",
        ] {
            let expr = gql_xpath::parse(src).unwrap();
            assert!(evaluate(&d, &expr).is_err(), "{src}");
        }
    }
}
