//! Evaluation of XPath expressions over a [`Document`].

use std::borrow::Cow;
use std::cmp::Ordering;
use std::rc::Rc;

use gql_guard::{Guard, RunCtx};
use gql_ssdm::document::NodeKind;
use gql_ssdm::value::parse_number;
use gql_ssdm::{DocIndex, Document, NodeId, Symbol};
use gql_trace::Trace;

use crate::ast::{Axis, BinOp, Expr, LocationPath, NodeTest, Step};
use crate::functions::{self, FnClass};
use crate::{Result, XPathError};

/// A context item: an ordinary node or an attribute pseudo-node (the store
/// keeps attributes in side tables, not as arena nodes, so the attribute
/// axis materialises them as `(owner, index)` pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Item {
    Node(NodeId),
    Attr { owner: NodeId, index: usize },
}

impl Item {
    /// The underlying element node, for items that are nodes.
    pub fn as_node(self) -> Option<NodeId> {
        match self {
            Item::Node(n) => Some(n),
            Item::Attr { .. } => None,
        }
    }
}

/// An XPath 1.0 value.
#[derive(Debug, Clone, PartialEq)]
pub enum XValue {
    /// Node-set in document order without duplicates.
    Nodes(Vec<Item>),
    Num(f64),
    Str(String),
    Bool(bool),
}

impl XValue {
    pub fn boolean(&self) -> bool {
        self.view().boolean()
    }

    pub fn number(&self, doc: &Document) -> f64 {
        self.view().number(doc)
    }

    pub fn string(&self, doc: &Document) -> String {
        match self {
            XValue::Nodes(ns) => ns
                .first()
                .map_or(String::new(), |&i| string_value(doc, i).into_owned()),
            XValue::Num(n) => gql_ssdm::value::format_number(*n),
            XValue::Str(s) => s.clone(),
            XValue::Bool(b) => b.to_string(),
        }
    }

    /// The node-set, or an evaluation error for non-node values.
    pub fn into_nodes(self) -> Result<Vec<Item>> {
        match self {
            XValue::Nodes(ns) => Ok(ns),
            other => Err(XPathError::Eval {
                msg: format!("expected a node-set, got {other:?}"),
            }),
        }
    }

    pub(crate) fn view(&self) -> View<'_> {
        match self {
            XValue::Nodes(ns) => View::Nodes(ns),
            XValue::Num(n) => View::Num(*n),
            XValue::Str(s) => View::Str(s),
            XValue::Bool(b) => View::Bool(*b),
        }
    }
}

/// XPath string-value of an item: [`Document::string_value`] for a node,
/// the stored value for an attribute.
pub fn string_value(doc: &Document, item: Item) -> Cow<'_, str> {
    match item {
        Item::Node(n) => doc.string_value(n),
        Item::Attr { owner, index } => {
            Cow::Borrowed(doc.attrs(owner).nth(index).map_or("", |(_, v)| v))
        }
    }
}

/// Document-order key: attributes sort right after their owning element and
/// before its children (approximated by a fractional second component).
fn order_key(doc: &Document, item: Item) -> (u32, u32) {
    match item {
        Item::Node(n) => (doc.order_key(n), 0),
        Item::Attr { owner, index } => (doc.order_key(owner), index as u32 + 1),
    }
}

fn sort_dedup(doc: &Document, items: &mut Vec<Item>) {
    items.sort_by_key(|&i| order_key(doc, i));
    items.dedup();
}

/// Where the per-evaluation [`DocIndex`] comes from: a caller-provided
/// prebuilt index (the `Engine`'s resident cache), or one built lazily the
/// first time an indexed fast path asks for it — which is also when its box
/// is allocated: most evaluations are handed an index and never fill the slot.
enum IndexSlot<'d> {
    Borrowed(&'d DocIndex),
    Lazy(std::cell::OnceCell<Box<DocIndex>>),
}

/// Per-evaluation caches (built lazily, shared across the expression tree).
pub(crate) struct EvalCaches<'d> {
    /// Postings/interval index used for descendant name-test steps.
    idx: IndexSlot<'d>,
    /// Where the evaluation reports and what bounds it ([`evaluate_in`]).
    ctx: RunCtx<'d>,
    /// Re-entrancy latch: predicates evaluate sub-paths through the same
    /// caches, and per-step spans for those would interleave confusingly
    /// with the outer path's spans. Only the outermost `apply_steps` call
    /// traces; predicate work shows up inside the enclosing step's span.
    in_steps: std::cell::Cell<bool>,
    /// Node-sets of the absolute paths met inside predicates, keyed by the
    /// address of the `LocationPath` (an identity for as long as the
    /// expression is borrowed, i.e. for this evaluation; never
    /// dereferenced). See [`hoisted_path`].
    hoisted: std::cell::RefCell<Vec<(usize, Rc<Hoisted<'d>>)>>,
    /// The relative paths met inside predicates, keyed like `hoisted`: each
    /// one's node tests resolved against the document if it is walked,
    /// `None` if it is not. See [`walk_plan`].
    walks: std::cell::RefCell<Vec<(usize, WalkPlan)>>,
}

/// A relative path's node tests resolved against the document, if it is
/// walked (see [`walk_plan`]).
type WalkPlan = Option<Rc<[Test]>>;

/// The node-set of a hoisted absolute path, and what a walked comparison
/// reads of it: its string-values for `=` and `!=`, their numbers for the
/// relational operators, each derived the first time a candidate asks and
/// then read by every later one.
struct Hoisted<'d> {
    set: Vec<Item>,
    strings: std::cell::OnceCell<Box<[Cow<'d, str>]>>,
    numbers: std::cell::OnceCell<Box<[f64]>>,
}

impl<'d> Hoisted<'d> {
    fn strings(&self, doc: &'d Document) -> &[Cow<'d, str>] {
        self.strings
            .get_or_init(|| self.set.iter().map(|&i| string_value(doc, i)).collect())
    }

    fn numbers(&self, doc: &Document) -> &[f64] {
        self.numbers.get_or_init(|| {
            self.set
                .iter()
                .map(|&i| num(&string_value(doc, i)))
                .collect()
        })
    }
}

impl Default for EvalCaches<'_> {
    fn default() -> Self {
        EvalCaches {
            idx: IndexSlot::Lazy(std::cell::OnceCell::new()),
            ctx: RunCtx::none(),
            in_steps: std::cell::Cell::new(false),
            hoisted: std::cell::RefCell::new(Vec::new()),
            walks: std::cell::RefCell::new(Vec::new()),
        }
    }
}

impl<'d> EvalCaches<'d> {
    /// The document index: the borrowed one, or built at most once. It
    /// also holds the resolved ID/IDREF table `id()` reads.
    pub(crate) fn index(&self, doc: &Document) -> &DocIndex {
        match &self.idx {
            IndexSlot::Borrowed(i) => i,
            IndexSlot::Lazy(cell) => cell.get_or_init(|| Box::new(DocIndex::build(doc))),
        }
    }

    /// The index a fused `//Name` step reads its postings from, or `None`
    /// to walk. A borrowed index, or a lazy one an earlier step built, is
    /// always used. Building the lazy one costs more than walking one
    /// subtree once, filtered by name, so one context never builds it.
    /// Several subtrees may nest and be walked many times over: a
    /// predicate-free step builds it then, while a step with predicates,
    /// whose cost is the predicates, must not make a cold run pay for one.
    fn index_for_fused(
        &self,
        doc: &Document,
        contexts: usize,
        has_predicates: bool,
    ) -> Option<&DocIndex> {
        match &self.idx {
            IndexSlot::Borrowed(i) => Some(i),
            IndexSlot::Lazy(_) if contexts > 1 && !has_predicates => Some(self.index(doc)),
            IndexSlot::Lazy(cell) => cell.get().map(Box::as_ref),
        }
    }
}

/// Evaluation context.
#[derive(Clone, Copy)]
struct Ctx<'d> {
    doc: &'d Document,
    item: Item,
    position: usize,
    size: usize,
    caches: &'d EvalCaches<'d>,
    /// Set below a predicate, where an expression is evaluated once per
    /// candidate: an absolute path is therefore worth memoising, and a
    /// relative one read as a truth value is walked.
    in_predicate: bool,
}

/// Evaluate an expression with the document node as the context item.
pub fn evaluate(doc: &Document, expr: &Expr) -> Result<XValue> {
    evaluate_in(doc, expr, None, RunCtx::none())
}

/// Evaluate against a prebuilt [`DocIndex`] for `doc`: descendant name-test
/// steps use its postings instead of building a fresh index. The result is
/// identical to [`evaluate`]'s.
pub fn evaluate_with_index(doc: &Document, expr: &Expr, idx: &DocIndex) -> Result<XValue> {
    evaluate_in(doc, expr, Some(idx), RunCtx::none())
}

/// The full form of [`evaluate`] (`idx: None`: an index is built lazily if a
/// step wants one) and [`evaluate_with_index`].
///
/// `ctx.trace` receives one `step[i:axis::test]` span per top-level location
/// step (context sizes in and out, items drawn from postings vs axis scans)
/// and a `fusion_hits` counter for each fused `//Name` pair, whose span also
/// counts its `predicates` when it carries any. Sub-paths inside predicates
/// are folded into their enclosing step's span, which counts the absolute
/// ones evaluated there as `hoisted_paths`.
///
/// Under `ctx.guard` each location step charges one round plus its context
/// size, and every context item expansion inside a step charges its
/// candidate count (a fused `//Name` step charges the postings it read), so
/// a pathological path trips the budget with a partial-progress report
/// instead of running unbounded.
pub fn evaluate_in(
    doc: &Document,
    expr: &Expr,
    idx: Option<&DocIndex>,
    ctx: RunCtx<'_>,
) -> Result<XValue> {
    let mut caches = EvalCaches {
        ctx,
        ..EvalCaches::default()
    };
    if let Some(idx) = idx {
        caches.idx = IndexSlot::Borrowed(idx);
    }
    let ctx = Ctx {
        doc,
        item: Item::Node(doc.root()),
        position: 1,
        size: 1,
        caches: &caches,
        in_predicate: false,
    };
    eval_expr(expr, ctx)
}

/// Parse and evaluate, returning element/text nodes (attribute hits are
/// dropped). The common entry point for tests and benches.
pub fn select(doc: &Document, xpath: &str) -> Result<Vec<NodeId>> {
    let expr = crate::parser::parse(xpath)?;
    let value = evaluate(doc, &expr)?;
    Ok(value
        .into_nodes()?
        .into_iter()
        .filter_map(Item::as_node)
        .collect())
}

fn eval_expr(expr: &Expr, ctx: Ctx<'_>) -> Result<XValue> {
    match expr {
        Expr::Literal(s) => Ok(XValue::Str(s.clone())),
        Expr::Number(n) => Ok(XValue::Num(*n)),
        Expr::Neg(e) => Ok(XValue::Num(-eval_operand(e, ctx)?.view().number(ctx.doc))),
        Expr::Path(p) if hoistable(p, ctx) => {
            hoisted_path(p, ctx).map(|h| XValue::Nodes(h.set.clone()))
        }
        Expr::Path(p) => eval_path(p, ctx).map(XValue::Nodes),
        Expr::FilterPath(primary, steps) => {
            let start = eval_expr(primary, ctx)?.into_nodes()?;
            apply_steps(steps, &start, ctx.doc, ctx.caches).map(XValue::Nodes)
        }
        Expr::Union(a, b) => {
            let mut left = eval_expr(a, ctx)?.into_nodes()?;
            let right = eval_expr(b, ctx)?.into_nodes()?;
            left.extend(right);
            sort_dedup(ctx.doc, &mut left);
            Ok(XValue::Nodes(left))
        }
        Expr::Binary(op, a, b) => eval_binary(*op, a, b, ctx),
        Expr::Call(name, args) => {
            if let (Some(reduce), [arg]) = (functions::reduction(name), args.as_slice()) {
                return reduce(eval_operand(arg, ctx)?.view(), ctx.doc);
            }
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval_expr(a, ctx)?);
            }
            functions::call(
                name,
                values,
                ctx.doc,
                ctx.item,
                ctx.position,
                ctx.size,
                ctx.caches,
            )
        }
    }
}

fn eval_binary(op: BinOp, a: &Expr, b: &Expr, ctx: Ctx<'_>) -> Result<XValue> {
    match op {
        // Short-circuit.
        BinOp::Or => Ok(XValue::Bool(truth(a, ctx)? || truth(b, ctx)?)),
        BinOp::And => Ok(XValue::Bool(truth(a, ctx)? && truth(b, ctx)?)),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let x = eval_operand(a, ctx)?.view().number(ctx.doc);
            let y = eval_operand(b, ctx)?.view().number(ctx.doc);
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Mod => x % y,
                _ => unreachable!("arithmetic op"),
            };
            Ok(XValue::Num(r))
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let va = eval_operand(a, ctx)?;
            let vb = eval_operand(b, ctx)?;
            Ok(XValue::Bool(compare(op, va.view(), vb.view(), ctx.doc)))
        }
    }
}

/// The value of an operand that is only read (by a comparison, arithmetic,
/// `and`/`or`, a predicate's verdict, or one of the
/// [reductions](functions::reduction) `count`/`sum`/`not`/`boolean`),
/// borrowed where the expression or the hoisting memo already holds it: a
/// predicate is evaluated once per candidate, and neither a literal nor a
/// shared node-set is copied for that. A hoisted path used any other way
/// (`string(//b)`, `//a | //b`, `(//b)[1]`) is still copied per use, by
/// [`eval_expr`]: those consumers take owned values.
enum Operand<'e, 'd> {
    Literal(&'e str),
    Shared(Rc<Hoisted<'d>>),
    Value(XValue),
}

impl Operand<'_, '_> {
    fn view(&self) -> View<'_> {
        match self {
            Operand::Literal(s) => View::Str(s),
            Operand::Shared(h) => View::Nodes(&h.set),
            Operand::Value(v) => v.view(),
        }
    }
}

fn eval_operand<'e, 'd>(expr: &'e Expr, ctx: Ctx<'d>) -> Result<Operand<'e, 'd>> {
    Ok(match expr {
        Expr::Literal(s) => Operand::Literal(s),
        Expr::Path(p) if hoistable(p, ctx) => Operand::Shared(hoisted_path(p, ctx)?),
        _ => Operand::Value(eval_expr(expr, ctx)?),
    })
}

/// A borrowed [`XValue`]: what the comparison rules read.
#[derive(Debug, Clone, Copy)]
pub(crate) enum View<'a> {
    Nodes(&'a [Item]),
    Num(f64),
    Str(&'a str),
    Bool(bool),
}

impl View<'_> {
    pub(crate) fn boolean(self) -> bool {
        match self {
            View::Nodes(ns) => !ns.is_empty(),
            View::Num(n) => n != 0.0 && !n.is_nan(),
            View::Str(s) => !s.is_empty(),
            View::Bool(b) => b,
        }
    }

    fn number(self, doc: &Document) -> f64 {
        match self {
            // The number of a node-set is that of its first node's
            // string-value, of the empty string when there is none.
            View::Nodes(ns) => num(&ns
                .first()
                .map_or(Cow::Borrowed(""), |&i| string_value(doc, i))),
            View::Num(n) => n,
            View::Str(s) => num(s),
            View::Bool(b) => f64::from(u8::from(b)),
        }
    }
}

/// XPath 1.0 comparison semantics, including existential node-set rules.
fn compare(op: BinOp, a: View<'_>, b: View<'_>, doc: &Document) -> bool {
    use View::*;
    match (a, b) {
        (Nodes(na), Nodes(nb)) => compare_node_sets(op, na, nb, doc),
        // XPath 1.0 §3.4: when one operand is a boolean, compare
        // boolean(node-set) with it — not the per-node existential rule —
        // under every operator (a relational one compares their numbers).
        (Nodes(ns), Bool(_)) => compare_atomic(op, Bool(!ns.is_empty()), b, doc),
        (Bool(_), Nodes(ns)) => compare_atomic(op, a, Bool(!ns.is_empty()), doc),
        (Nodes(ns), other) => ns
            .iter()
            .any(|&x| compare_atomic(op, Str(&string_value(doc, x)), other, doc)),
        (other, Nodes(ns)) => ns
            .iter()
            .any(|&x| compare_atomic(op, other, Str(&string_value(doc, x)), doc)),
        _ => compare_atomic(op, a, b, doc),
    }
}

/// Exists x∈A, y∈B with string(x) op string(y) (as numbers for the
/// relational operators). Every string-value is derived once: the shorter
/// side's up front, the longer side's as it streams past.
fn compare_node_sets(op: BinOp, na: &[Item], nb: &[Item], doc: &Document) -> bool {
    let a_is_short = na.len() <= nb.len();
    let (short, long) = if a_is_short { (na, nb) } else { (nb, na) };
    match op {
        BinOp::Eq | BinOp::Ne => {
            let held: Vec<Cow<'_, str>> = short.iter().map(|&x| string_value(doc, x)).collect();
            long.iter().any(|&y| {
                let sy = string_value(doc, y);
                held.iter().any(|sx| (*sx == sy) == (op == BinOp::Eq))
            })
        }
        _ => {
            let held: Vec<f64> = short.iter().map(|&x| num(&string_value(doc, x))).collect();
            long.iter().any(|&y| {
                let ny = num(&string_value(doc, y));
                held.iter().any(|&nx| {
                    if a_is_short {
                        cmp_numbers(op, nx, ny)
                    } else {
                        cmp_numbers(op, ny, nx)
                    }
                })
            })
        }
    }
}

/// Comparison of two non-node-set values (a node-set operand arrives as
/// the string-value of one of its nodes). A boolean on either side makes an
/// equality boolean and a number makes it numeric, so no operand is ever
/// rendered to a string.
fn compare_atomic(op: BinOp, a: View<'_>, b: View<'_>, doc: &Document) -> bool {
    use View::*;
    debug_assert!(!matches!((a, b), (Nodes(_), _) | (_, Nodes(_))));
    match op {
        BinOp::Eq | BinOp::Ne => {
            let eq = match (a, b) {
                (Bool(_), _) | (_, Bool(_)) => a.boolean() == b.boolean(),
                (Str(x), Str(y)) => x == y,
                _ => a.number(doc) == b.number(doc),
            };
            eq == (op == BinOp::Eq)
        }
        _ => cmp_numbers(op, a.number(doc), b.number(doc)),
    }
}

fn num(s: &str) -> f64 {
    parse_number(s).unwrap_or(f64::NAN)
}

fn cmp_numbers(op: BinOp, x: f64, y: f64) -> bool {
    match x.partial_cmp(&y) {
        None => false, // NaN involved
        Some(ord) => match op {
            BinOp::Lt => ord == Ordering::Less,
            BinOp::Le => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            BinOp::Ge => ord != Ordering::Less,
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::Ne => ord != Ordering::Equal,
            _ => unreachable!("comparison op"),
        },
    }
}

fn eval_path(p: &LocationPath, ctx: Ctx<'_>) -> Result<Vec<Item>> {
    let start = if p.absolute {
        Item::Node(ctx.doc.root())
    } else {
        ctx.item
    };
    apply_steps(&p.steps, &[start], ctx.doc, ctx.caches)
}

/// Whether `p` is evaluated through [`hoisted_path`]: an absolute path
/// below a predicate (anywhere else it is evaluated once anyway).
fn hoistable(p: &LocationPath, ctx: Ctx<'_>) -> bool {
    p.absolute && ctx.in_predicate
}

/// The node-set of an absolute path inside a predicate, evaluated the first
/// time a candidate asks for it and shared by every later one. Sound
/// because XPath 1.0 without variables gives an absolute path nothing to
/// depend on but the document: it starts at the root whatever the context
/// item is, and the predicates inside it see the contexts of its own steps,
/// not the candidate's position or size.
fn hoisted_path<'d>(p: &LocationPath, ctx: Ctx<'d>) -> Result<Rc<Hoisted<'d>>> {
    let caches = ctx.caches;
    let key = std::ptr::from_ref(p) as usize;
    if let Some((_, h)) = caches.hoisted.borrow().iter().find(|(k, _)| *k == key) {
        return Ok(Rc::clone(h));
    }
    let h = Rc::new(Hoisted {
        set: eval_path(p, ctx)?,
        strings: std::cell::OnceCell::new(),
        numbers: std::cell::OnceCell::new(),
    });
    caches.ctx.trace.count("hoisted_paths", 1);
    caches.hoisted.borrow_mut().push((key, Rc::clone(&h)));
    Ok(h)
}

/// The boolean value of `expr`, for a consumer that reads nothing else: a
/// predicate's verdict, `and`, `or`, `not()` and `boolean()`. Below a
/// predicate, a relative path that [`walk_plan`] admits, and a comparison of
/// one with a literal, a number or a hoisted path, are decided by [`walk`]
/// without building the path's node-set; every other shape is evaluated by
/// [`eval_operand`].
fn truth(expr: &Expr, ctx: Ctx<'_>) -> Result<bool> {
    match expr {
        Expr::Call(name, args) if args.len() == 1 && (name == "not" || name == "boolean") => {
            return Ok(truth(&args[0], ctx)? == (name == "boolean"));
        }
        Expr::Path(p) if ctx.in_predicate => {
            if let Some(tests) = walk_plan(p, ctx) {
                return walk_path(p, &tests, ctx, &mut |_| true);
            }
        }
        Expr::Binary(
            op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
            a,
            b,
        ) if ctx.in_predicate => {
            if let Some(verdict) = compare_walked(*op, a, b, ctx)? {
                return Ok(verdict);
            }
        }
        _ => {}
    }
    Ok(eval_operand(expr, ctx)?.view().boolean())
}

/// `a op b` decided by walking one side, if one side is a path
/// [`walk_plan`] admits and the other a literal, a number or a hoisted
/// path; `None` for any other shape. It holds [`compare`]'s existential rule:
/// a node reached by the walk is accepted if its string-value compares
/// true with the other side (with some node of it, for a path), and the
/// walk stops at the first node accepted.
fn compare_walked(op: BinOp, a: &Expr, b: &Expr, ctx: Ctx<'_>) -> Result<Option<bool>> {
    fn walked<'e>(
        e: &'e Expr,
        other: &Expr,
        ctx: Ctx<'_>,
    ) -> Option<(&'e LocationPath, Rc<[Test]>)> {
        let other_side = match other {
            Expr::Literal(_) | Expr::Number(_) => true,
            Expr::Path(q) => hoistable(q, ctx),
            _ => false,
        };
        match e {
            Expr::Path(p) if other_side => walk_plan(p, ctx).map(|tests| (p, tests)),
            _ => None,
        }
    }
    // Oriented so that the walked path stands on the left.
    let (path, tests, other, op) = if let Some((p, tests)) = walked(a, b, ctx) {
        (p, tests, b, op)
    } else if let Some((p, tests)) = walked(b, a, ctx) {
        (p, tests, a, mirrored(op))
    } else {
        return Ok(None);
    };
    let doc = ctx.doc;
    let equality = matches!(op, BinOp::Eq | BinOp::Ne);
    let found = match other {
        Expr::Path(p) => {
            let hoisted = hoisted_path(p, ctx)?;
            if equality {
                let held = hoisted.strings(doc);
                walk_path(path, &tests, ctx, &mut |x| {
                    let sx = string_value(doc, x);
                    held.iter().any(|sy| (*sy == sx) == (op == BinOp::Eq))
                })?
            } else {
                let held = hoisted.numbers(doc);
                walk_path(path, &tests, ctx, &mut |x| {
                    let nx = num(&string_value(doc, x));
                    held.iter().any(|&ny| cmp_numbers(op, nx, ny))
                })?
            }
        }
        atomic => {
            // A literal under a relational operator is read as its number,
            // parsed once here instead of once per node.
            let probe = match atomic {
                Expr::Literal(s) if !equality => View::Num(num(s)),
                Expr::Literal(s) => View::Str(s),
                Expr::Number(n) => View::Num(*n),
                _ => unreachable!("`walked` admits literals, numbers and paths"),
            };
            walk_path(path, &tests, ctx, &mut |x| {
                compare_atomic(op, View::Str(&string_value(doc, x)), probe, doc)
            })?
        }
    };
    Ok(Some(found))
}

/// The operator that compares `b` with `a` as `op` compares `a` with `b`.
fn mirrored(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// The node tests of `p`'s steps resolved against the document, if `p` is
/// walked: it is relative, every step is on the child, attribute or self
/// axis, and every nested predicate is [`position_free`]. From one context
/// those axes yield no node twice, so whether a node exists does not depend
/// on the order it is found in, and a position-free predicate's verdict
/// does not depend on the candidate list its candidate stands in. Decided
/// and resolved once per path and evaluation, memoised like
/// [`hoisted_path`]'s node-sets.
fn walk_plan(p: &LocationPath, ctx: Ctx<'_>) -> WalkPlan {
    let walks = &ctx.caches.walks;
    let key = std::ptr::from_ref(p) as usize;
    if let Some((_, plan)) = walks.borrow().iter().find(|(k, _)| *k == key) {
        return plan.clone();
    }
    let walked = !p.absolute
        && (p.steps.iter()).all(|s| local_axis(s.axis) && s.predicates.iter().all(position_free));
    let plan: WalkPlan = walked.then(|| {
        (p.steps.iter())
            .map(|s| Test::resolve(ctx.doc, &s.test))
            .collect()
    });
    walks.borrow_mut().push((key, plan.clone()));
    plan
}

/// Whether `p`, walked from the context item, reaches a node `accept`
/// takes. Charges one round per step up front, as [`apply_steps`] charges
/// one per step whatever the steps find.
fn walk_path(
    p: &LocationPath,
    tests: &[Test],
    ctx: Ctx<'_>,
    accept: &mut impl FnMut(Item) -> bool,
) -> Result<bool> {
    (ctx.caches.ctx.guard)
        .try_rounds(p.steps.len() as u64)
        .map_err(XPathError::Budget)?;
    walk(&p.steps, tests, ctx.item, ctx, accept)
}

/// Depth first along `steps` from `item`: each candidate of the first step
/// that passes its node test and its predicates is walked along the rest,
/// and the walk stops at the first node `accept` takes. Each expansion
/// probes the guard once and charges the candidates it visited in one
/// charge, as [`apply_step`] does per context item; stopping early, it
/// charges fewer.
fn walk(
    steps: &[Step],
    tests: &[Test],
    item: Item,
    ctx: Ctx<'_>,
    accept: &mut impl FnMut(Item) -> bool,
) -> Result<bool> {
    let (Some((step, steps)), Some((&test, tests))) = (steps.split_first(), tests.split_first())
    else {
        return Ok(accept(item));
    };
    let guard = ctx.caches.ctx.guard;
    check(guard)?;
    let mut visited = 0;
    let mut found = false;
    'candidates: for candidate in candidates(ctx.doc, item, step.axis, test) {
        visited += 1;
        // Position-free: the position and size are never read.
        let pctx = Ctx {
            item: candidate,
            ..ctx
        };
        for pred in &step.predicates {
            if !truth(pred, pctx)? {
                continue 'candidates;
            }
        }
        if walk(steps, tests, candidate, ctx, accept)? {
            found = true;
            break;
        }
    }
    guard.try_matches(visited).map_err(XPathError::Budget)?;
    Ok(found)
}

/// The guard's trip as an evaluation error.
fn check(guard: &Guard) -> Result<()> {
    if guard.ok() {
        return Ok(());
    }
    Err(XPathError::Budget(
        guard.error().expect("tripped guard has an error"),
    ))
}

/// Apply a step sequence, fusing each `descendant-or-self::node()` then
/// `child::Name` pair (the expansion of `//Name`) whose predicates are
/// position-free into one postings lookup filtered through them, instead of
/// enumerating every node of every subtree.
fn apply_steps<'d>(
    steps: &[Step],
    start: &[Item],
    doc: &'d Document,
    caches: &'d EvalCaches<'d>,
) -> Result<Vec<Item>> {
    // Only the outermost path of a traced evaluation gets per-step spans;
    // sub-paths inside predicates re-enter here with the latch set.
    let trace = caches.ctx.trace;
    if !trace.is_enabled() || caches.in_steps.get() {
        return apply_steps_inner(steps, start, doc, caches, None);
    }
    caches.in_steps.set(true);
    let result = apply_steps_inner(steps, start, doc, caches, Some(trace));
    caches.in_steps.set(false);
    result
}

/// Display form of a node test for step span labels.
fn test_label(test: &NodeTest) -> &str {
    match test {
        NodeTest::Name(n) => n,
        NodeTest::Any => "*",
        NodeTest::Text => "text()",
        NodeTest::Comment => "comment()",
        NodeTest::Node => "node()",
    }
}

fn apply_steps_inner<'d>(
    steps: &[Step],
    start: &[Item],
    doc: &'d Document,
    caches: &'d EvalCaches<'d>,
    trace: Option<&Trace>,
) -> Result<Vec<Item>> {
    if steps.is_empty() {
        return Ok(start.to_vec());
    }
    let guard = caches.ctx.guard;
    // The node-set between steps; the first step reads `start` in place.
    let mut current: Vec<Item> = Vec::new();
    let mut i = 0;
    while i < steps.len() {
        let input: &[Item] = if i == 0 { start } else { &current };
        // Budget probe: one round per location step plus the context size
        // it is about to expand.
        guard.try_rounds(1).map_err(XPathError::Budget)?;
        guard
            .try_matches(input.len() as u64)
            .map_err(XPathError::Budget)?;
        if let Some((name, predicates)) = fused_descendant_name(steps, i) {
            let span = trace.map(|t| {
                let s = t.span(format_args!("step[{i}:://{name}]"));
                t.count("context_in", input.len() as u64);
                t.count("fusion_hits", 1);
                if !predicates.is_empty() {
                    t.count("predicates", predicates.len() as u64);
                }
                s
            });
            let idx = caches.index_for_fused(doc, input.len(), !predicates.is_empty());
            let mut found = descendant_named(doc, idx, input, name);
            // Budget probe: the fused lookup skips apply_step, so charge
            // its fan-out here or `//Name` explosions would go unmetered.
            guard
                .try_matches(found.len() as u64)
                .map_err(XPathError::Budget)?;
            for pred in predicates {
                retain_by_predicate(&mut found, 0, pred, doc, caches)?;
            }
            if let Some(t) = trace {
                t.count("context_out", found.len() as u64);
            }
            drop(span);
            current = found;
            i += 2;
            continue;
        }
        let step = &steps[i];
        let span = trace.map(|t| {
            let s = t.span(format_args!(
                "step[{i}:{}::{}]",
                step.axis.name(),
                test_label(&step.test)
            ));
            t.count("context_in", input.len() as u64);
            s
        });
        let mut stats = StepStats::default();
        let stats_ref = if trace.is_some() {
            Some(&mut stats)
        } else {
            None
        };
        let next = apply_step(step, input, doc, caches, stats_ref)?;
        if let Some(t) = trace {
            t.count("context_out", next.len() as u64);
            t.count("indexed_items", stats.indexed_items);
            t.count("scanned_items", stats.scanned_items);
            if !step.predicates.is_empty() {
                t.count("predicates", step.predicates.len() as u64);
            }
        }
        drop(span);
        current = next;
        i += 1;
    }
    Ok(current)
}

/// If `steps[i], steps[i+1]` are a `descendant-or-self::node() /
/// child::Name` pair that may be evaluated set-at-a-time, the name to fuse
/// on and the child step's predicates. The first step must be
/// predicate-free and every predicate of the second [`position_free`]: a
/// positional predicate is relative to the per-parent candidate list, which
/// fusion regroups.
fn fused_descendant_name(steps: &[Step], i: usize) -> Option<(&str, &[Expr])> {
    let a = steps.get(i)?;
    let b = steps.get(i + 1)?;
    let NodeTest::Name(name) = &b.test else {
        return None;
    };
    let fusable = a.axis == Axis::DescendantOrSelf
        && a.test == NodeTest::Node
        && a.predicates.is_empty()
        && b.axis == Axis::Child
        && b.predicates.iter().all(position_free);
    fusable.then_some((name.as_str(), b.predicates.as_slice()))
}

/// Whether a predicate's verdict on a candidate is the same in whatever
/// candidate list the candidate is presented: the predicate is not of
/// static type number (which would make it a test on the position) and
/// mentions `position()`/`last()` nowhere — conservatively including
/// nested predicates, whose positions are their own. A function this crate
/// does not know is counted against the predicate on both grounds.
fn position_free(pred: &Expr) -> bool {
    !numeric(pred) && !mentions_position(pred)
}

/// Whether `expr` is of static type number, which makes it a test on the
/// position when it stands as a predicate. A function this crate does not
/// know counts as numeric.
fn numeric(expr: &Expr) -> bool {
    match expr {
        Expr::Number(_) | Expr::Neg(_) => true,
        Expr::Binary(op, ..) => matches!(
            op,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        ),
        Expr::Call(name, _) => functions::class_of(name) != Some(FnClass::Other),
        Expr::Literal(_) | Expr::Path(_) | Expr::Union(..) | Expr::FilterPath(..) => false,
    }
}

fn mentions_position(expr: &Expr) -> bool {
    let in_steps = |steps: &[Step]| {
        steps
            .iter()
            .any(|s| s.predicates.iter().any(mentions_position))
    };
    match expr {
        Expr::Literal(_) | Expr::Number(_) => false,
        Expr::Neg(e) => mentions_position(e),
        Expr::Binary(_, a, b) | Expr::Union(a, b) => mentions_position(a) || mentions_position(b),
        Expr::Call(name, args) => {
            matches!(functions::class_of(name), None | Some(FnClass::Positional))
                || args.iter().any(mentions_position)
        }
        Expr::Path(p) => in_steps(&p.steps),
        Expr::FilterPath(primary, steps) => mentions_position(primary) || in_steps(steps),
    }
}

/// All proper-descendant elements named `name` under each input node
/// (children of any node in `descendant-or-self::node()` = proper
/// descendants): the tag postings sliced to each subtree interval when
/// there is an index, a name-filtered walk of each subtree when there is
/// not. Attribute items have no descendants and contribute nothing.
fn descendant_named(
    doc: &Document,
    idx: Option<&DocIndex>,
    input: &[Item],
    name: &str,
) -> Vec<Item> {
    let mut out: Vec<Item> = Vec::new();
    let Some(sym) = doc.lookup_sym(name) else {
        return out; // name never interned: no such elements
    };
    for &item in input {
        let Item::Node(node) = item else { continue };
        // A node detached at index build time has no interval (cannot
        // happen for root-reachable evaluation); it is walked too.
        match idx.filter(|idx| idx.pre(node).is_some()) {
            Some(idx) => out.extend(
                idx.named_in(sym, node, false)
                    .iter()
                    .map(|&n| Item::Node(n)),
            ),
            None => out.extend(
                doc.descendants(node)
                    .filter(|&d| doc.kind(d) == NodeKind::Element && doc.name_sym(d) == Some(sym))
                    .map(Item::Node),
            ),
        }
    }
    // One subtree's postings or walk are in document order already;
    // several subtrees may nest.
    if input.len() > 1 {
        sort_dedup(doc, &mut out);
    }
    out
}

/// Postings-backed candidate enumeration for descendant name-test steps:
/// appends to `out` the same items in the same (document) order as the
/// scan, so positional predicates see identical semantics. `false` means
/// "no fast path, use the scan" (and nothing was appended).
fn indexed_candidates(
    doc: &Document,
    caches: &EvalCaches<'_>,
    item: Item,
    axis: Axis,
    test: Test,
    out: &mut Vec<Item>,
) -> bool {
    let include_self = match axis {
        Axis::Descendant => false,
        Axis::DescendantOrSelf => true,
        _ => return false,
    };
    let (Test::Name(sym), Item::Node(node)) = (test, item) else {
        return false;
    };
    let idx = caches.index(doc);
    if idx.pre(node).is_none() {
        return false; // detached at build time: fall back to the scan
    }
    // A name never interned names no elements.
    if let Some(sym) = sym {
        out.extend(
            idx.named_in(sym, node, include_self)
                .iter()
                .map(|&n| Item::Node(n)),
        );
    }
    true
}

/// Per-step profiling counters: how many candidate items came off postings
/// lists vs axis enumeration. Threaded as `Option` so the untraced path
/// costs one branch per context item.
#[derive(Debug, Default, Clone, Copy)]
struct StepStats {
    indexed_items: u64,
    scanned_items: u64,
}

/// Apply one step to a node-set: per context node, enumerate the axis in
/// axis order, filter by node test, run predicates positionally, then merge
/// and normalise to document order. Each context node's candidates are
/// appended to the output and filtered there.
fn apply_step<'d>(
    step: &Step,
    input: &[Item],
    doc: &'d Document,
    caches: &'d EvalCaches<'d>,
    mut stats: Option<&mut StepStats>,
) -> Result<Vec<Item>> {
    let guard = caches.ctx.guard;
    let test = Test::resolve(doc, &step.test);
    let mut out: Vec<Item> = Vec::new();
    for &ctx_item in input {
        // Budget probe: per context item (covers deadline/cancellation even
        // inside one huge step).
        check(guard)?;
        let from = out.len();
        if indexed_candidates(doc, caches, ctx_item, step.axis, test, &mut out) {
            if let Some(s) = stats.as_deref_mut() {
                s.indexed_items += (out.len() - from) as u64;
            }
        } else {
            if local_axis(step.axis) {
                out.extend(candidates(doc, ctx_item, step.axis, test));
            } else {
                axis_items(doc, ctx_item, step.axis, &mut out);
                let principal = Principal::of(step.axis);
                retain_tail(&mut out, from, |_, x| Ok(test.matches(doc, x, principal)))?;
            }
            if let Some(s) = stats.as_deref_mut() {
                s.scanned_items += (out.len() - from) as u64;
            }
        }
        // Budget probe: this context item's candidate fan-out.
        guard
            .try_matches((out.len() - from) as u64)
            .map_err(XPathError::Budget)?;
        for pred in &step.predicates {
            retain_by_predicate(&mut out, from, pred, doc, caches)?;
        }
    }
    // One context item on a forward axis yields document order without
    // duplicates as it is.
    if input.len() > 1 || step.axis.is_reverse() {
        sort_dedup(doc, &mut out);
    }
    Ok(out)
}

/// Keep the items of `items[from..]` for which `keep(index in that tail,
/// item)` holds, in place and in order.
fn retain_tail(
    items: &mut Vec<Item>,
    from: usize,
    mut keep: impl FnMut(usize, Item) -> Result<bool>,
) -> Result<()> {
    let mut kept = from;
    for at in from..items.len() {
        let item = items[at];
        if keep(at - from, item)? {
            items[kept] = item;
            kept += 1;
        }
    }
    items.truncate(kept);
    Ok(())
}

/// Filter the candidate list `items[from..]` through one predicate, each
/// candidate evaluated with its position in that list and the list's size.
/// A predicate not of static type number is read as a truth value.
fn retain_by_predicate<'d>(
    items: &mut Vec<Item>,
    from: usize,
    pred: &Expr,
    doc: &'d Document,
    caches: &'d EvalCaches<'d>,
) -> Result<()> {
    let size = items.len() - from;
    let numeric = numeric(pred);
    retain_tail(items, from, |i, item| {
        let pctx = Ctx {
            doc,
            item,
            position: i + 1,
            size,
            caches,
            in_predicate: true,
        };
        if !numeric {
            return truth(pred, pctx);
        }
        Ok(match eval_operand(pred, pctx)?.view() {
            // Numeric predicate = positional test.
            View::Num(n) => (i + 1) as f64 == n,
            other => other.boolean(),
        })
    })
}

/// Whether an axis is enumerated by [`candidates`], already filtered by
/// its node test; [`axis_items`] enumerates the others.
fn local_axis(axis: Axis) -> bool {
    matches!(axis, Axis::Child | Axis::Attribute | Axis::SelfAxis)
}

/// The candidates of `item` on the child, attribute or self axis that pass
/// `test`, in axis order: what [`apply_step`] appends for such a step and
/// what [`walk`] visits.
fn candidates(doc: &Document, item: Item, axis: Axis, test: Test) -> Candidates<'_> {
    match (axis, item) {
        (Axis::SelfAxis, _) => {
            Candidates::One(Some(item).filter(|&i| test.matches(doc, i, Principal::Element)))
        }
        (Axis::Child, Item::Node(node)) => Candidates::Children {
            doc,
            test,
            rest: doc.children(node).iter(),
        },
        (Axis::Attribute, Item::Node(owner)) => match test {
            // An element's attribute names are distinct: a name test finds
            // at most one.
            Test::Name(Some(sym)) => Candidates::One(
                (doc.attr_syms(owner).position(|a| a == sym))
                    .map(|index| Item::Attr { owner, index }),
            ),
            Test::Node | Test::Any => Candidates::Attrs {
                owner,
                rest: 0..doc.attr_count(owner),
            },
            Test::Name(None) | Test::Text | Test::Comment => Candidates::One(None),
        },
        // An attribute has no children and no attributes.
        _ => {
            debug_assert!(local_axis(axis), "{axis:?} is enumerated by `axis_items`");
            Candidates::One(None)
        }
    }
}

/// See [`candidates`].
enum Candidates<'d> {
    Children {
        doc: &'d Document,
        test: Test,
        rest: std::slice::Iter<'d, NodeId>,
    },
    Attrs {
        owner: NodeId,
        rest: std::ops::Range<usize>,
    },
    One(Option<Item>),
}

impl Iterator for Candidates<'_> {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        match self {
            Candidates::Children { doc, test, rest } => {
                (rest.map(|&c| Item::Node(c))).find(|&c| test.matches(doc, c, Principal::Element))
            }
            Candidates::Attrs { owner, rest } => (rest.next()).map(|index| Item::Attr {
                owner: *owner,
                index,
            }),
            Candidates::One(item) => item.take(),
        }
    }
}

/// Append an axis other than the [local](local_axis) ones to `out` in axis
/// order (reverse axes run backwards so that positional predicates see
/// XPath semantics).
fn axis_items(doc: &Document, item: Item, axis: Axis, out: &mut Vec<Item>) {
    let node = match item {
        Item::Node(n) => n,
        Item::Attr { owner, .. } => {
            // Attribute items navigate relative to their owning element.
            match axis {
                // The parent of an attribute is its element, exactly.
                Axis::Parent => out.push(Item::Node(owner)),
                Axis::Ancestor | Axis::AncestorOrSelf => {
                    if axis == Axis::AncestorOrSelf {
                        out.push(item);
                    }
                    ancestors_or_self(doc, Some(owner), out);
                }
                // XPath 1.0: the following axis of an attribute holds every
                // node after it in document order except descendants of the
                // attribute (it has none) — i.e. the owner's descendants
                // plus the owner's following axis.
                Axis::Following => {
                    out.extend(doc.descendants(owner).map(Item::Node));
                    axis_items(doc, Item::Node(owner), Axis::Following, out);
                }
                // And preceding(attr) = preceding(owner): everything before
                // the owner, minus ancestors.
                Axis::Preceding => axis_items(doc, Item::Node(owner), Axis::Preceding, out),
                _ => {}
            }
            return;
        }
    };
    match axis {
        Axis::Child | Axis::Attribute | Axis::SelfAxis => {
            unreachable!("{axis:?} is enumerated by `candidates`")
        }
        Axis::Descendant => out.extend(doc.descendants(node).map(Item::Node)),
        Axis::DescendantOrSelf => out.extend(doc.descendants_or_self(node).map(Item::Node)),
        Axis::Parent => out.extend(doc.parent(node).map(Item::Node)),
        Axis::Ancestor => ancestors_or_self(doc, doc.parent(node), out),
        Axis::AncestorOrSelf => ancestors_or_self(doc, Some(node), out),
        Axis::FollowingSibling => {
            let mut cur = doc.next_sibling(node);
            while let Some(s) = cur {
                out.push(Item::Node(s));
                cur = doc.next_sibling(s);
            }
        }
        Axis::PrecedingSibling => {
            let mut cur = doc.prev_sibling(node);
            while let Some(s) = cur {
                out.push(Item::Node(s));
                cur = doc.prev_sibling(s);
            }
        }
        Axis::Following => {
            // Nodes after `node` in document order, excluding descendants:
            // the subtrees of every following sibling of every
            // ancestor-or-self — O(|result|), no whole-document scan.
            let from = out.len();
            let mut cur = node;
            loop {
                let mut sib = doc.next_sibling(cur);
                while let Some(s) = sib {
                    out.extend(doc.descendants_or_self(s).map(Item::Node));
                    sib = doc.next_sibling(s);
                }
                match doc.parent(cur) {
                    Some(p) => cur = p,
                    None => break,
                }
            }
            out[from..].sort_by_key(|&i| order_key(doc, i));
        }
        Axis::Preceding => {
            // Symmetric: subtrees of preceding siblings along the ancestor
            // chain, reverse document order.
            let from = out.len();
            let mut cur = node;
            loop {
                let mut sib = doc.prev_sibling(cur);
                while let Some(s) = sib {
                    out.extend(doc.descendants_or_self(s).map(Item::Node));
                    sib = doc.prev_sibling(s);
                }
                match doc.parent(cur) {
                    Some(p) => cur = p,
                    None => break,
                }
            }
            out[from..].sort_by_key(|&i| std::cmp::Reverse(order_key(doc, i)));
        }
    }
}

/// Append `first` and its ancestors, nearest first.
fn ancestors_or_self(doc: &Document, first: Option<NodeId>, out: &mut Vec<Item>) {
    let mut cur = first;
    while let Some(n) = cur {
        out.push(Item::Node(n));
        cur = doc.parent(n);
    }
}

/// The node type an axis's `*` and name tests select (§2.3): attribute on
/// the attribute axis, element on every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Principal {
    Element,
    Attribute,
}

impl Principal {
    fn of(axis: Axis) -> Principal {
        match axis {
            Axis::Attribute => Principal::Attribute,
            _ => Principal::Element,
        }
    }
}

/// A node test resolved against the document once per step: a name test
/// compares symbols, and a name the document never interned matches
/// nothing.
#[derive(Debug, Clone, Copy)]
enum Test {
    Node,
    Text,
    Comment,
    /// `*`: any node of the axis's principal node type.
    Any,
    Name(Option<Symbol>),
}

impl Test {
    fn resolve(doc: &Document, test: &NodeTest) -> Test {
        match test {
            NodeTest::Node => Test::Node,
            NodeTest::Text => Test::Text,
            NodeTest::Comment => Test::Comment,
            NodeTest::Any => Test::Any,
            NodeTest::Name(n) => Test::Name(doc.lookup_sym(n)),
        }
    }

    /// Does `item`, found along an axis of `principal` node type, pass?
    /// `*` and a name test select that type only (§2.3): an attribute item
    /// that the self or ancestor-or-self axis yields passes `node()` and
    /// nothing else.
    fn matches(self, doc: &Document, item: Item, principal: Principal) -> bool {
        match item {
            Item::Attr { owner, index } => match self {
                Test::Node => true,
                Test::Any => principal == Principal::Attribute,
                Test::Name(sym) => {
                    principal == Principal::Attribute
                        && sym.is_some()
                        && doc.attr_syms(owner).nth(index) == sym
                }
                Test::Text | Test::Comment => false,
            },
            Item::Node(node) => {
                let kind = doc.kind(node);
                match self {
                    Test::Node => true,
                    Test::Text => kind == NodeKind::Text,
                    Test::Comment => kind == NodeKind::Comment,
                    Test::Any => kind == NodeKind::Element,
                    Test::Name(sym) => {
                        sym.is_some() && kind == NodeKind::Element && doc.name_sym(node) == sym
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_guard::Guard;

    fn doc() -> Document {
        Document::parse_str(
            "<bib>\
               <book year='1994' isbn='a'>\
                 <title>TCP/IP Illustrated</title>\
                 <author><last>Stevens</last></author>\
                 <price>65.95</price>\
               </book>\
               <book year='2000' isbn='b'>\
                 <title>Data on the Web</title>\
                 <author><last>Abiteboul</last></author>\
                 <author><last>Buneman</last></author>\
                 <author><last>Suciu</last></author>\
                 <price>39.95</price>\
               </book>\
               <article year='2000'><title>XML-GL</title></article>\
             </bib>",
        )
        .unwrap()
    }

    fn texts(d: &Document, xpath: &str) -> Vec<String> {
        select(d, xpath)
            .unwrap()
            .iter()
            .map(|&n| d.text_content(n))
            .collect()
    }

    #[test]
    fn child_paths() {
        let d = doc();
        assert_eq!(select(&d, "/bib/book").unwrap().len(), 2);
        assert_eq!(
            texts(&d, "/bib/book/title"),
            vec!["TCP/IP Illustrated", "Data on the Web"]
        );
    }

    #[test]
    fn descendant_paths() {
        let d = doc();
        assert_eq!(select(&d, "//last").unwrap().len(), 4);
        assert_eq!(select(&d, "//title").unwrap().len(), 3);
        assert_eq!(select(&d, "/bib//author//last").unwrap().len(), 4);
    }

    #[test]
    fn attribute_predicates() {
        let d = doc();
        assert_eq!(
            texts(&d, "//book[@year='2000']/title"),
            vec!["Data on the Web"]
        );
        assert_eq!(select(&d, "//book[@year > 1995]").unwrap().len(), 1);
        assert_eq!(select(&d, "//*[@year='2000']").unwrap().len(), 2);
        assert_eq!(select(&d, "//book[@missing]").unwrap().len(), 0);
    }

    #[test]
    fn attribute_values_compare_as_strings_and_numbers() {
        let d = doc();
        // string= on the attribute axis value
        assert_eq!(select(&d, "//book[@isbn='a']").unwrap().len(), 1);
        // numeric comparison coerces
        assert_eq!(select(&d, "//book[@year >= 1994]").unwrap().len(), 2);
    }

    #[test]
    fn positional_predicates() {
        let d = doc();
        assert_eq!(texts(&d, "/bib/book[1]/title"), vec!["TCP/IP Illustrated"]);
        assert_eq!(texts(&d, "/bib/book[2]/author[3]/last"), vec!["Suciu"]);
        assert_eq!(
            texts(&d, "/bib/book[position()=2]/title"),
            vec!["Data on the Web"]
        );
        assert_eq!(
            texts(&d, "/bib/book[last()]/title"),
            vec!["Data on the Web"]
        );
    }

    #[test]
    fn reverse_axis_positions() {
        let d = doc();
        // The first ancestor of a <last> is <author>, the second <book>.
        assert_eq!(select(&d, "//last/ancestor::*[2]").unwrap().len(), 2); // two books
        let names: Vec<_> = select(&d, "(//last)/ancestor::*[1]")
            .unwrap()
            .iter()
            .map(|&n| d.name(n).unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["author", "author", "author", "author"]);
    }

    #[test]
    fn sibling_axes() {
        let d = doc();
        assert_eq!(
            texts(&d, "//title/following-sibling::price"),
            vec!["65.95", "39.95"]
        );
        assert_eq!(
            select(&d, "//price/preceding-sibling::author")
                .unwrap()
                .len(),
            4
        );
        assert_eq!(
            texts(&d, "//article/preceding-sibling::book[1]/title"),
            vec!["Data on the Web"]
        );
    }

    #[test]
    fn following_and_preceding() {
        let d = doc();
        // article follows everything in both books.
        assert_eq!(
            select(&d, "/bib/book[1]/following::article").unwrap().len(),
            1
        );
        assert_eq!(select(&d, "//article/preceding::book").unwrap().len(), 2);
        // descendants are not in following
        assert_eq!(
            select(&d, "/bib/book[1]/following::title").unwrap().len(),
            2
        );
    }

    #[test]
    fn dot_and_dotdot() {
        let d = doc();
        assert_eq!(texts(&d, "//last[. = 'Suciu']"), vec!["Suciu"]);
        assert_eq!(select(&d, "//last/../..").unwrap().len(), 2); // books
    }

    #[test]
    fn text_nodes() {
        let d = doc();
        let t = select(&d, "//title/text()").unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(d.kind(t[0]), NodeKind::Text);
    }

    #[test]
    fn functions_in_predicates() {
        let d = doc();
        assert_eq!(
            texts(&d, "//book[contains(title, 'Web')]/title"),
            vec!["Data on the Web"]
        );
        assert_eq!(
            texts(&d, "//book[starts-with(title, 'TCP')]/price"),
            vec!["65.95"]
        );
        assert_eq!(
            texts(&d, "//book[count(author) > 1]/title"),
            vec!["Data on the Web"]
        );
        assert_eq!(
            texts(&d, "//book[not(@year='1994')]/title"),
            vec!["Data on the Web"]
        );
    }

    #[test]
    fn top_level_values() {
        let d = doc();
        let expr = crate::parse("count(//book)").unwrap();
        assert_eq!(evaluate(&d, &expr).unwrap(), XValue::Num(2.0));
        let expr = crate::parse("sum(//price)").unwrap();
        match evaluate(&d, &expr).unwrap() {
            XValue::Num(n) => assert!((n - 105.90).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        let expr = crate::parse("string(//book[1]/title)").unwrap();
        assert_eq!(
            evaluate(&d, &expr).unwrap(),
            XValue::Str("TCP/IP Illustrated".into())
        );
    }

    #[test]
    fn existential_nodeset_comparison() {
        let d = doc();
        // Some author is Suciu — node-set = string is existential.
        let expr = crate::parse("//last = 'Suciu'").unwrap();
        assert_eq!(evaluate(&d, &expr).unwrap(), XValue::Bool(true));
        // And simultaneously some author is not Suciu.
        let expr = crate::parse("//last != 'Suciu'").unwrap();
        assert_eq!(evaluate(&d, &expr).unwrap(), XValue::Bool(true));
        // Node-set vs node-set.
        let expr = crate::parse("//book[1]/price < //book[2]/@year").unwrap();
        assert_eq!(evaluate(&d, &expr).unwrap(), XValue::Bool(true));
    }

    #[test]
    fn arithmetic() {
        let d = doc();
        let expr = crate::parse("//book[1]/price * 2 + 1").unwrap();
        match evaluate(&d, &expr).unwrap() {
            XValue::Num(n) => assert!((n - 132.9).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        let expr = crate::parse("7 mod 3").unwrap();
        assert_eq!(evaluate(&d, &expr).unwrap(), XValue::Num(1.0));
        let expr = crate::parse("1 div 0").unwrap();
        match evaluate(&d, &expr).unwrap() {
            XValue::Num(n) => assert!(n.is_infinite()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn union_is_document_ordered() {
        let d = doc();
        let hits = select(&d, "//price | //title").unwrap();
        let names: Vec<_> = hits
            .iter()
            .map(|&n| d.name(n).unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["title", "price", "title", "price", "title"]);
    }

    #[test]
    fn result_sets_have_no_duplicates() {
        let d = doc();
        // Both steps can reach the same titles.
        let hits = select(&d, "//book/title | /bib/book/title").unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn boolean_operators_short_circuit() {
        let d = doc();
        let expr = crate::parse("true() or boolean(1 div 0)").unwrap();
        assert_eq!(evaluate(&d, &expr).unwrap(), XValue::Bool(true));
        let expr = crate::parse("//book[@year='1994' and count(author)=1]").unwrap();
        assert_eq!(evaluate(&d, &expr).unwrap().into_nodes().unwrap().len(), 1);
    }

    #[test]
    fn bare_root_selects_document_node() {
        let d = doc();
        let expr = crate::parse("/").unwrap();
        let ns = evaluate(&d, &expr).unwrap().into_nodes().unwrap();
        assert_eq!(ns, vec![Item::Node(d.root())]);
    }

    #[test]
    fn attribute_selection_returns_values_via_string() {
        let d = doc();
        let expr = crate::parse("string(//book[2]/@isbn)").unwrap();
        assert_eq!(evaluate(&d, &expr).unwrap(), XValue::Str("b".into()));
        // Attribute node-sets have proper sizes.
        let expr = crate::parse("count(//book/@year)").unwrap();
        assert_eq!(evaluate(&d, &expr).unwrap(), XValue::Num(2.0));
    }

    #[test]
    fn attribute_axes_follow_the_spec() {
        let d = doc();
        // parent:: of an attribute is exactly the owning element.
        let expr = crate::parse("count(//book[1]/@year/..)").unwrap();
        assert_eq!(evaluate(&d, &expr).unwrap(), XValue::Num(1.0));
        // following:: from an attribute sees the owner's subtree and beyond.
        let hits = select(&d, "//book[1]/@year/following::article").unwrap();
        assert_eq!(hits.len(), 1);
        let titles = select(&d, "//book[1]/@year/following::title").unwrap();
        assert_eq!(titles.len(), 3); // own book's title + book2's + article's
                                     // preceding:: from book2's attribute sees book1's content.
        let prices = select(&d, "//book[2]/@year/preceding::price").unwrap();
        assert_eq!(prices.len(), 1);
    }

    #[test]
    fn nodeset_boolean_comparison_follows_the_spec() {
        let d = doc();
        let t = |src: &str| evaluate(&d, &crate::parse(src).unwrap()).unwrap();
        // Empty node-set = false() is TRUE under §3.4.
        assert_eq!(t("//nonexistent = false()"), XValue::Bool(true));
        assert_eq!(t("//nonexistent != true()"), XValue::Bool(true));
        assert_eq!(t("//book = true()"), XValue::Bool(true));
        assert_eq!(t("//book != true()"), XValue::Bool(false));
        // The rule holds for all six operators: a relational comparison
        // compares number(boolean(node-set)) with number(boolean).
        let d = Document::parse_str("<r><a><b>5</b></a><a/></r>").unwrap();
        let t = |src: &str| evaluate(&d, &crate::parse(src).unwrap()).unwrap();
        assert_eq!(t("//nonexistent < true()"), XValue::Bool(true));
        assert_eq!(t("//nonexistent <= false()"), XValue::Bool(true));
        assert_eq!(t("true() > //nonexistent"), XValue::Bool(true));
        assert_eq!(t("count(//a[b < true()])"), XValue::Num(1.0));
    }

    #[test]
    fn deep_documents_evaluate() {
        let d = gql_ssdm::generator::deep_chain(300, 1);
        assert_eq!(select(&d, "//target").unwrap().len(), 1);
        assert_eq!(select(&d, "//level[@n='299']/target").unwrap().len(), 1);
    }

    #[test]
    fn prebuilt_index_gives_identical_results() {
        let d = doc();
        let idx = DocIndex::build(&d);
        // Exercises the fused `//name` pair, descendant steps with
        // predicates (positions must match scan semantics), explicit
        // descendant axes, attribute tests and unknown names.
        for xpath in [
            "//last",
            "//title",
            "/bib//author//last",
            "//book[2]/title",
            "//book[@year='2000']/title",
            "/bib/book[1]/following::article",
            "descendant::title[2]",
            "/bib/descendant-or-self::book",
            "//book/descendant::last[1]",
            "//nonexistent",
            "//price | //title",
            "//book[count(author) > 1]//last",
        ] {
            let expr = crate::parse(xpath).unwrap();
            let plain = evaluate(&d, &expr).unwrap();
            let indexed = evaluate_with_index(&d, &expr, &idx).unwrap();
            assert_eq!(plain, indexed, "{xpath}");
        }
        let expr = crate::parse("count(//author)").unwrap();
        assert_eq!(
            evaluate_with_index(&d, &expr, &idx).unwrap(),
            XValue::Num(4.0)
        );
    }

    #[test]
    fn fusion_requires_predicate_free_steps() {
        let d = doc();
        // `//book[1]` means "every book that is the first child-book of its
        // parent", NOT "the first book in the document" — the child step's
        // predicate must block fusion for this to hold.
        assert_eq!(select(&d, "//book[1]").unwrap().len(), 1);
        assert_eq!(texts(&d, "//book[1]/title"), vec!["TCP/IP Illustrated"]);
        assert_eq!(select(&d, "//author[1]").unwrap().len(), 2);
    }

    /// Lazy and indexed evaluation of one expression.
    fn both_ways(d: &Document, xpath: &str) -> [XValue; 2] {
        let expr = crate::parse(xpath).unwrap();
        let idx = DocIndex::build(d);
        [
            evaluate(d, &expr).unwrap(),
            evaluate_with_index(d, &expr, &idx).unwrap(),
        ]
    }

    #[test]
    fn positional_predicates_block_fusion() {
        let d = Document::parse_str(
            "<r><a k='1'><b/><c/><c/></a><x><a><b/><b/><c/></a><a k='2'/></x>\
             <a><a k='3'><c/></a><b/></a><book/><y><book/><author/><author/></y></r>",
        )
        .unwrap();
        for (xpath, expect) in [
            ("//book[1]", 2),
            ("//author[1]", 1),
            ("//a//c[1]", 3),
            ("//a[last()]", 3),
            ("//a[count(b)]", 1),
            ("//a[position()<3][@k]", 3),
            ("//a[@k][position()<2]", 3),
            ("//a[c[last()]]", 3),
        ] {
            let [lazy, indexed] = both_ways(&d, xpath);
            assert_eq!(lazy, indexed, "{xpath}");
            assert_eq!(lazy.into_nodes().unwrap().len(), expect, "{xpath}");
        }
    }

    #[test]
    fn position_freedom_is_decided_statically() {
        let free = |pred: &str| {
            let Expr::Path(p) = crate::parse(&format!("//x[{pred}]")).unwrap() else {
                panic!("a path");
            };
            position_free(&p.steps[1].predicates[0])
        };
        for pred in [
            "@k",
            "@k='v'",
            "b",
            "not(b)",
            "b = //c/d",
            "price < 15 or price > 50",
            "count(b) > 1",
            "contains(name(), 'a')",
            "string-length(@k) = 2",
            "b | c",
            "(b | c)/d",
        ] {
            assert!(free(pred), "{pred} is position-free");
        }
        for pred in [
            // Static type number: a test on the position.
            "1",
            "-1",
            "1 + 1",
            "count(b)",
            "string-length(@k)",
            "number(@k)",
            "sum(b)",
            "floor(1.5)",
            "ceiling(1.5)",
            "round(1.5)",
            "last()",
            "position()",
            // Mentions of the position, however deep.
            "position() < 3",
            "not(position() = last())",
            "b[1]/c or last() = 2",
            "b[position() = 1]",
            "(b | c)/d[last()]",
            "count(b[last()]) > 0",
            // Functions this crate does not know.
            "frobnicate()",
            "not(frobnicate())",
        ] {
            assert!(!free(pred), "{pred} is not position-free");
        }
        // A numeric nested predicate needs no mention of `position()` to be
        // positional, but it is its own step's business: `b[1]` is the same
        // set whichever list the outer candidate stands in.
        assert!(free("b[1]"));
    }

    #[test]
    fn fused_predicate_step_charges_matches_not_the_document() {
        // 50,000 elements, ten of them `t`, five of those with k='v'.
        let mut d = Document::new();
        let root = d.add_element(d.root(), "r");
        let mut placed = 0;
        for i in 0..5_000 {
            let group = d.add_element(root, "g");
            for _ in 0..8 {
                d.add_element(group, "e");
            }
            if i % 500 == 0 {
                let t = d.add_element(group, "t");
                let v = if placed % 2 == 0 { "v" } else { "w" };
                d.set_attr(t, "k", v).unwrap();
                placed += 1;
            } else {
                d.add_element(group, "e");
            }
        }
        assert_eq!(placed, 10);
        assert!(d.node_count() > 50_000);
        let expr = crate::parse("//t[@k='v']").unwrap();
        let idx = DocIndex::build(&d);
        for idx in [Some(&idx), None] {
            let guard = Guard::new(gql_guard::Budget::unlimited());
            let hits = evaluate_in(&d, &expr, idx, RunCtx::guarded(&guard))
                .unwrap()
                .into_nodes()
                .unwrap();
            assert_eq!(hits.len(), 5);
            let report = guard.report().unwrap();
            // 1 context + 10 candidates + per candidate one context and at
            // most one attribute.
            assert!(report.matches <= 31, "matches charged: {}", report.matches);
            assert_eq!(report.rounds, 11);
        }
    }

    #[test]
    fn walked_predicates_charge_the_rounds_of_a_built_node_set() {
        // Twenty `c` candidates: every second one has `k`, every third none
        // of the `a/b` pairs, and `x`, `y` values that make `x < 3 or y > 5`
        // short-circuit on some and read both sides on others.
        let mut d = Document::new();
        let root = d.add_element(d.root(), "r");
        for i in 0..20 {
            let c = d.add_element(root, "c");
            if i % 2 == 0 {
                d.set_attr(c, "k", "1").unwrap();
            }
            if i % 3 != 0 {
                for j in 0..3 {
                    let a = d.add_element(c, "a");
                    let v = if (i + j) % 5 == 0 { "v" } else { "w" };
                    d.add_text_element(a, "b", v);
                }
            }
            d.add_text_element(c, "x", &(i % 7).to_string());
            d.add_text_element(c, "y", &(i % 9).to_string());
        }
        let idx = DocIndex::build(&d);
        // Per predicate: the hits, and the rounds and matches the evaluator
        // charged while it built a node-set per candidate.
        for (xpath, hits, rounds, matches) in [
            ("//c[a/b='v']", 7, 41, 158),
            ("//c[not(a)]", 7, 21, 80),
            ("//c[x < 3 or y > 5]", 11, 32, 83),
            ("//c[@k]", 10, 21, 51),
        ] {
            let expr = crate::parse(xpath).unwrap();
            for idx in [Some(&idx), None] {
                let guard = Guard::new(gql_guard::Budget::unlimited());
                let found = evaluate_in(&d, &expr, idx, RunCtx::guarded(&guard))
                    .unwrap()
                    .into_nodes()
                    .unwrap();
                assert_eq!(found.len(), hits, "{xpath}");
                let report = guard.report().unwrap();
                assert_eq!(report.rounds, rounds, "{xpath}");
                assert!(report.matches <= matches, "{xpath}: {}", report.matches);
            }
        }
        // A candidate with 10,000 children that meet the node test and fail
        // the comparison: the walk visits them all, and a matches budget
        // trips inside it.
        let mut d = Document::new();
        let root = d.add_element(d.root(), "r");
        let c = d.add_element(root, "c");
        for _ in 0..10_000 {
            d.add_text_element(c, "x", "9");
        }
        let expr = crate::parse("//c[x < 3]").unwrap();
        let idx = DocIndex::build(&d);
        for idx in [Some(&idx), None] {
            let guard = Guard::new(gql_guard::Budget::unlimited().with_max_matches(5_000));
            match evaluate_in(&d, &expr, idx, RunCtx::guarded(&guard)) {
                Err(XPathError::Budget(e)) => assert_eq!(e.kind, gql_guard::LimitKind::Matches),
                other => panic!("expected a matches trip, got {other:?}"),
            }
        }
    }

    #[test]
    fn absolute_path_in_a_predicate_is_evaluated_once() {
        let mut d = Document::new();
        let root = d.add_element(d.root(), "r");
        for i in 0..1_000 {
            let p = d.add_element(root, "p");
            d.add_text_element(p, "c", &format!("{}", i % 50));
        }
        let dd = d.add_element(root, "d");
        for v in ["7", "11", "999"] {
            d.add_text_element(dd, "e", v);
        }
        let expr = crate::parse("//p[c = //d/e]").unwrap();
        let idx = DocIndex::build(&d);
        let guard = Guard::new(gql_guard::Budget::unlimited());
        let trace = Trace::profiling();
        let hits = evaluate_in(&d, &expr, Some(&idx), RunCtx::new(&trace, &guard))
            .unwrap()
            .into_nodes()
            .unwrap();
        assert_eq!(hits.len(), 40);
        // One round for the fused `//p`, one per candidate for `c`, and the
        // inner path's two steps (`//d`, `e`) once, not a thousand times.
        assert_eq!(guard.report().unwrap().rounds, 1 + 1_000 + 2);
        let profile = trace.finish().unwrap();
        let step = profile.find("step[0:://p]").unwrap();
        assert_eq!(step.counter("hoisted_paths"), Some(1));
        assert_eq!(step.counter("predicates"), Some(1));
        assert_eq!(step.counter("context_out"), Some(40));
        // A shared set read as a verdict, by `and`/`or`, or by a function.
        for (xpath, expect) in [
            ("//p[//d]", 1_000),
            ("//p[//nothing]", 0),
            ("//p[c = '7' and //d/e]", 20),
            ("//p[//nothing or c = '7']", 20),
            ("//p[count(//d/e) = 3]", 1_000),
        ] {
            let [lazy, indexed] = both_ways(&d, xpath);
            assert_eq!(lazy, indexed, "{xpath}");
            assert_eq!(lazy.into_nodes().unwrap().len(), expect, "{xpath}");
        }
    }

    #[test]
    fn string_values_borrow_where_the_document_holds_them_whole() {
        let d =
            Document::parse_str("<r k='v'><a>one</a><b>x<i>y</i>z</b><c/><!--n--></r>").unwrap();
        let root = d.root_element().unwrap();
        let kids = d.children(root).to_vec();
        let value = |item| string_value(&d, item);
        assert!(matches!(
            value(Item::Attr {
                owner: root,
                index: 0
            }),
            Cow::Borrowed("v")
        ));
        assert!(matches!(value(Item::Node(kids[0])), Cow::Borrowed("one")));
        assert!(matches!(
            value(Item::Node(d.children(kids[0])[0])),
            Cow::Borrowed("one")
        ));
        assert!(matches!(value(Item::Node(kids[2])), Cow::Borrowed("")));
        assert!(matches!(value(Item::Node(kids[3])), Cow::Borrowed("n")));
        assert_eq!(value(Item::Node(kids[1])), "xyz");
        assert_eq!(value(Item::Node(root)), d.text_content(root));
        // A comment child is not the element's text.
        let d = Document::parse_str("<r><!--n--></r>").unwrap();
        assert_eq!(string_value(&d, Item::Node(d.root_element().unwrap())), "");
    }

    #[test]
    fn node_set_comparisons_agree_across_set_sizes() {
        // `a` holds 1..=n, `b` holds n..=2n-1: they share exactly `n`; either
        // operand may be the shorter side.
        for (n, extra_b) in [(3, 0), (12, 0), (12, 5), (3, 20)] {
            let mut d = Document::new();
            let root = d.add_element(d.root(), "r");
            for i in 1..=n {
                d.add_text_element(root, "a", &i.to_string());
            }
            for i in n..2 * n + extra_b {
                d.add_text_element(root, "b", &i.to_string());
            }
            d.add_text_element(root, "c", "none");
            let t = |src: &str| evaluate(&d, &crate::parse(src).unwrap()).unwrap();
            for (src, expect) in [
                ("//a = //b", true),
                ("//b = //a", true),
                ("//a[. < 2] = //b", false),
                ("//b = //a[. < 2]", false),
                ("//a != //b", true),
                ("//a = //c", false),
                ("//c != //c", false),
                ("//a < //b", true),
                ("//b < //a", false),
                ("//b <= //a", true),
                ("//a > //b", false),
                ("//b > //a", true),
                ("//a >= //b", true),
                ("//a < //c", false),
                ("//nothing = //a", false),
                ("//nothing != //a", false),
            ] {
                assert_eq!(t(src), XValue::Bool(expect), "{src} with n={n}+{extra_b}");
            }
        }
    }
}
