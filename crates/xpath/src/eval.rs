//! Evaluation of XPath expressions over a [`Document`].
//!
//! A location path's downward, position-free steps are lowered onto the
//! tree-pattern kernel ([`gql_ssdm::pattern`]) and matched set-at-a-time,
//! as XML-GL's extract trees are; every other step — a positional
//! predicate, a reverse or sibling axis, a `text()` test — is applied item
//! by item.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell, RefCell};
use std::cmp::Ordering;
use std::rc::Rc;

use gql_guard::{Guard, RunCtx};
use gql_ssdm::document::NodeKind;
use gql_ssdm::pattern::{self, Columns, Cond, Kind};
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

/// Per-evaluation state, shared across the expression tree.
pub(crate) struct EvalCaches<'d> {
    /// The document's index: the postings patterns are matched over, and
    /// the resolved ID/IDREF table `id()` reads.
    pub(crate) idx: &'d DocIndex,
    /// Where the evaluation reports and what bounds it ([`evaluate_in`]).
    ctx: RunCtx<'d>,
    /// Re-entrancy latch: only the outermost path of a traced evaluation
    /// opens spans; the paths inside its predicates show up inside them.
    in_steps: Cell<bool>,
    /// Node-sets of the absolute paths met inside predicates, keyed by the
    /// address of the `LocationPath` (an identity for as long as the
    /// expression is borrowed, i.e. for this evaluation; never
    /// dereferenced). See [`hoisted_path`].
    hoisted: RefCell<Vec<(usize, Rc<[Item]>)>>,
}

impl<'d> EvalCaches<'d> {
    pub(crate) fn new(idx: &'d DocIndex, ctx: RunCtx<'d>) -> Self {
        EvalCaches {
            idx,
            ctx,
            in_steps: Cell::new(false),
            hoisted: RefCell::new(Vec::new()),
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
    /// relative one is evaluated from the candidate, not as a pattern.
    in_predicate: bool,
}

/// Evaluate an expression with the document node as the context item,
/// over an index built for it.
pub fn evaluate(doc: &Document, expr: &Expr) -> Result<XValue> {
    evaluate_in(doc, expr, &DocIndex::build(doc), RunCtx::none())
}

/// Evaluate against a prebuilt [`DocIndex`] for `doc`. The result is
/// identical to [`evaluate`]'s.
pub fn evaluate_with_index(doc: &Document, expr: &Expr, idx: &DocIndex) -> Result<XValue> {
    evaluate_in(doc, expr, idx, RunCtx::none())
}

/// The full form of [`evaluate`] and [`evaluate_with_index`].
///
/// `ctx.trace` receives, per top-level run of location steps, one span:
/// `pattern[i..j]` for steps `i..j` matched as one tree pattern, with the
/// kernel's `candidates[q…]` counters (per pattern node, the postings it
/// read), or `step[i:axis::test]` for a step applied item by item; each
/// counts `context_in` and `context_out`. Sub-paths inside predicates are
/// folded into their enclosing span, which counts the absolute ones
/// evaluated there as `hoisted_paths`.
///
/// Under `ctx.guard` a pattern charges one round and what it read, a step
/// one round plus its context size and, per context item, its candidates;
/// so a pathological path trips the budget with a partial-progress report
/// instead of running unbounded.
pub fn evaluate_in(doc: &Document, expr: &Expr, idx: &DocIndex, ctx: RunCtx<'_>) -> Result<XValue> {
    let caches = EvalCaches::new(idx, ctx);
    eval_expr(expr, Ctx::at_root(doc, &caches, false))
}

impl<'d> Ctx<'d> {
    /// The document node as the context item.
    fn at_root(doc: &'d Document, caches: &'d EvalCaches<'d>, in_predicate: bool) -> Self {
        Ctx {
            doc,
            item: Item::Node(doc.root()),
            position: 1,
            size: 1,
            caches,
            in_predicate,
        }
    }
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
            hoisted_path(p, ctx).map(|h| XValue::Nodes(h.to_vec()))
        }
        Expr::Path(p) => eval_path(p, ctx).map(XValue::Nodes),
        Expr::FilterPath(primary, steps) => {
            let start = eval_expr(primary, ctx)?.into_nodes()?;
            let kernel = !ctx.in_predicate;
            apply_steps(steps, &start, ctx.doc, ctx.caches, kernel).map(XValue::Nodes)
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
enum Operand<'e> {
    Literal(&'e str),
    Shared(Rc<[Item]>),
    Value(XValue),
}

impl Operand<'_> {
    fn view(&self) -> View<'_> {
        match self {
            Operand::Literal(s) => View::Str(s),
            Operand::Shared(h) => View::Nodes(h),
            Operand::Value(v) => v.view(),
        }
    }
}

fn eval_operand<'e>(expr: &'e Expr, ctx: Ctx<'_>) -> Result<Operand<'e>> {
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

/// XPath 1.0 comparison semantics, including existential node-set rules:
/// some pair of a node's string-value and the other side compares true.
/// Of two node-sets, the right one's string-values are derived once.
fn compare(op: BinOp, a: View<'_>, b: View<'_>, doc: &Document) -> bool {
    use View::*;
    match (a, b) {
        (Nodes(na), Nodes(nb)) => {
            let held: Vec<Cow<'_, str>> = nb.iter().map(|&y| string_value(doc, y)).collect();
            na.iter().any(|&x| {
                let x = string_value(doc, x);
                (held.iter()).any(|y| compare_atomic(op, Str(&x), Str(y), doc))
            })
        }
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
    let kernel = p.absolute || !ctx.in_predicate;
    apply_steps(&p.steps, &[start], ctx.doc, ctx.caches, kernel)
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
fn hoisted_path(p: &LocationPath, ctx: Ctx<'_>) -> Result<Rc<[Item]>> {
    let caches = ctx.caches;
    let key = std::ptr::from_ref(p) as usize;
    if let Some((_, h)) = caches.hoisted.borrow().iter().find(|(k, _)| *k == key) {
        return Ok(Rc::clone(h));
    }
    let h: Rc<[Item]> = eval_path(p, ctx)?.into();
    caches.ctx.trace.count("hoisted_paths", 1);
    caches.hoisted.borrow_mut().push((key, Rc::clone(&h)));
    Ok(h)
}

/// The boolean value of `expr`: a predicate's verdict, or an `and` / `or`
/// operand.
fn truth(expr: &Expr, ctx: Ctx<'_>) -> Result<bool> {
    Ok(eval_operand(expr, ctx)?.view().boolean())
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

/// Apply a step sequence to a node-set: each run of steps the kernel takes
/// ([`links`]) is matched as one tree pattern ([`match_pattern`]), and
/// every other step is applied item by item ([`apply_step`]). Below a
/// predicate a relative path is evaluated once per candidate, so `kernel`
/// is false there: a pattern reads whole postings lists, a step only the
/// candidate's neighbourhood.
fn apply_steps<'d>(
    steps: &[Step],
    start: &[Item],
    doc: &'d Document,
    caches: &'d EvalCaches<'d>,
    kernel: bool,
) -> Result<Vec<Item>> {
    let trace = Some(caches.ctx.trace).filter(|t| t.is_enabled() && !caches.in_steps.get());
    caches
        .in_steps
        .set(caches.in_steps.get() || trace.is_some());
    let guard = caches.ctx.guard;
    let run = || {
        if steps.is_empty() {
            return Ok(start.to_vec());
        }
        // The node-set between steps; the first step reads `start` in place.
        let (mut current, mut i) = (Vec::new(), 0);
        while i < steps.len() {
            let input: &[Item] = if i == 0 { start } else { &current };
            // Budget probe: one round per pattern or step.
            guard.try_rounds(1).map_err(XPathError::Budget)?;
            let nodes = kernel && input.iter().all(|x| matches!(x, Item::Node(_)));
            let n = match links(&steps[i..]) {
                (n, true) if nodes => n,
                _ => 0,
            };
            let step = &steps[i];
            let span = trace.map(|t| {
                let s = match n {
                    0 => t.span(format_args!(
                        "step[{i}:{}::{}]",
                        step.axis.name(),
                        test_label(&step.test)
                    )),
                    _ => t.span(format_args!("pattern[{i}..{}]", i + n)),
                };
                t.count("context_in", input.len() as u64);
                s
            });
            let next = match n {
                0 => {
                    // Budget probe: the context size the step expands.
                    guard
                        .try_matches(input.len() as u64)
                        .map_err(XPathError::Budget)?;
                    if let (Some(t), false) = (trace, step.predicates.is_empty()) {
                        t.count("predicates", step.predicates.len() as u64);
                    }
                    apply_step(step, input, doc, caches)?
                }
                _ => match_pattern(&steps[i..i + n], input, doc, caches, trace)?,
            };
            if let Some(t) = trace {
                t.count("context_out", next.len() as u64);
            }
            drop(span);
            (current, i) = (next, i + n.max(1));
        }
        Ok(current)
    };
    let result = run();
    if trace.is_some() {
        caches.in_steps.set(false);
    }
    result
}

/// Display form of a node test for span and counter labels.
fn test_label(test: &NodeTest) -> &str {
    match test {
        NodeTest::Name(n) => n,
        NodeTest::Any => "*",
        NodeTest::Text => "text()",
        NodeTest::Comment => "comment()",
        NodeTest::Node => "node()",
    }
}

/// One step of a path as the kernel takes it: an edge to a new pattern
/// node, with the step's test and predicates, or (a `self::node()` step)
/// more predicates on the node the path is at.
enum Link<'e> {
    Edge(pattern::Axis, &'e Step),
    Here(&'e [Expr]),
}

/// The link `steps` start with, and how many steps it spans: a `child` or
/// `descendant(-or-self)` step with a name or `*` test, an `attribute` step
/// with a name test, or a `self::node()` step, whose predicates are all
/// [`position_free`]; or `descendant-or-self::node()` without predicates
/// (`//`) and such a `child` or `attribute` step after it, which is one
/// descendant edge. `None` for any other step.
fn link(steps: &[Step]) -> Option<(Link<'_>, usize)> {
    use pattern::Axis::{Child, Descendant, DescendantOrSelf};
    let step = steps.first()?;
    if !step.predicates.iter().all(position_free) {
        return None;
    }
    let named = matches!(step.test, NodeTest::Name(_) | NodeTest::Any);
    let axis = match step.axis {
        Axis::SelfAxis if step.test == NodeTest::Node => {
            return Some((Link::Here(&step.predicates), 1));
        }
        Axis::Attribute if matches!(step.test, NodeTest::Name(_)) => Child,
        Axis::Child if named => Child,
        Axis::Descendant if named => Descendant,
        Axis::DescendantOrSelf if named => DescendantOrSelf,
        Axis::DescendantOrSelf if step.test == NodeTest::Node && step.predicates.is_empty() => {
            let (Link::Edge(Child, next), 1) = link(&steps[1..])? else {
                return None;
            };
            let deep = match next.axis {
                Axis::Attribute => DescendantOrSelf,
                _ => Descendant,
            };
            return Some((Link::Edge(deep, next), 2));
        }
        _ => return None,
    };
    Some((Link::Edge(axis, step), 1))
}

/// The links `steps` make, one after another, each with the steps it
/// spans, up to a step that is none. An attribute has neither children nor
/// attributes: after an attribute step only `self::node()` steps are taken.
fn each_link(steps: &[Step]) -> impl Iterator<Item = (Link<'_>, usize)> {
    let (mut rest, mut attr) = (steps, false);
    std::iter::from_fn(move || {
        let (link, n) = link(rest).filter(|(link, _)| !attr || matches!(link, Link::Here(_)))?;
        attr |= matches!(link, Link::Edge(_, step) if step.axis == Axis::Attribute);
        rest = &rest[n..];
        Some((link, n))
    })
}

/// How many of `steps` the kernel takes from their start, and whether one
/// of its links is an edge.
fn links(steps: &[Step]) -> (usize, bool) {
    each_link(steps).fold((0, false), |(at, edge), (link, n)| {
        (at + n, edge || matches!(link, Link::Edge(..)))
    })
}

/// A pattern node for an edge link's step.
fn node_of<'a, T>(doc: &Document, idx: &'a DocIndex, step: &'a Step) -> pattern::Node<'a, T> {
    let sym = match &step.test {
        NodeTest::Name(name) => doc.lookup_sym(name),
        _ => None,
    };
    let attr = step.axis == Axis::Attribute;
    let (kind, postings) = match (&step.test, sym) {
        (NodeTest::Name(_), None) => (Kind::Absent, &[][..]),
        (_, Some(s)) if attr => (Kind::Attr(s), idx.elements_with_attr_sym(s)),
        (_, Some(s)) => (Kind::Element(Some(s)), idx.elements_named_sym(s)),
        _ => (Kind::Element(None), idx.elements()),
    };
    let label = (if attr { "@" } else { "" }, test_label(&step.test));
    pattern::Node::new(kind, postings, label, ())
}

/// Match `steps`, all of them links, from the nodes of `input` as one tree
/// pattern: the context is its root, each edge link a node on the chain to
/// the selected one (numbered from 1, in path order), each predicate a
/// condition on its node. One link without predicates (`//name`) keeps its
/// two nodes on the stack.
fn match_pattern<'d>(
    steps: &[Step],
    input: &[Item],
    doc: &'d Document,
    caches: &'d EvalCaches<'d>,
    trace: Option<&Trace>,
) -> Result<Vec<Item>> {
    let (one, many): ([NodeId; 1], Vec<NodeId>);
    let context: &[NodeId] = match input {
        [Item::Node(n)] => {
            one = [*n];
            &one
        }
        _ => {
            many = input.iter().filter_map(|x| x.as_node()).collect();
            &many
        }
    };
    let root = pattern::Node::new(Kind::Element(None), context, (".", ""), ());
    let ctx = Ctx::at_root(doc, caches, true);
    let chain = || {
        each_link(steps).filter_map(|link| match link {
            (Link::Edge(_, step), _) => Some(node_of(doc, caches.idx, step)),
            (Link::Here(_), _) => None,
        })
    };
    let edges = each_link(steps).filter(|(link, _)| matches!(link, Link::Edge(..)));
    if edges.count() == 1 && steps.iter().all(|s| s.predicates.is_empty()) {
        let node = chain().next().expect("a pattern has an edge");
        return matched(&[root, node], steps, ctx, trace);
    }
    let mut p = Lowering {
        ctx,
        // A node per step, and as many again for predicates, before it grows.
        nodes: Vec::with_capacity(2 * steps.len() + 4),
    };
    p.nodes.push(root);
    p.nodes.extend(chain());
    let mut at = 0;
    for (link, _) in each_link(steps) {
        let predicates = match link {
            Link::Here(predicates) => predicates,
            Link::Edge(_, step) => {
                at += 1;
                &step.predicates
            }
        };
        p.predicates(at, predicates, false);
    }
    matched(&p.nodes, steps, ctx, trace)
}

/// Match the pattern `nodes` lowered from `steps`, its chain numbered from
/// the context on. Link by link, a chain node starts from what the link
/// reaches from the one before and is reduced there, so a predicate is
/// only asked at the nodes the path reaches. The pattern is charged the
/// postings it read; the answer is the selected node's column.
fn matched(
    nodes: &[pattern::Node<'_, ValueTest<'_>>],
    steps: &[Step],
    ctx: Ctx<'_>,
    trace: Option<&Trace>,
) -> Result<Vec<Item>> {
    let (doc, guard) = (ctx.doc, ctx.caches.ctx.guard);
    let error = RefCell::new(None);
    let values = |_, test: &ValueTest<'_>, n, attr: Option<usize>| {
        let item = attr.map_or(Item::Node(n), |index| Item::Attr { owner: n, index });
        let holds = test.holds(ctx, item);
        holds.map_err(|e| *error.borrow_mut() = Some(e)).ok()
    };
    let mut columns = Columns::new(doc, ctx.caches.idx, nodes);
    let (mut at, mut last) = (0, None);
    let mut reduced = columns.reduce(0, guard, &values);
    for (link, _) in each_link(steps) {
        if let (Link::Edge(axis, step), Some(())) = (link, reduced) {
            (at, last) = (at + 1, Some(step));
            reduced = (columns.narrow(at - 1, axis, at, guard))
                .and_then(|()| columns.reduce(at, guard, &values));
        }
    }
    if reduced.is_none() {
        return Err(error.take().unwrap_or_else(|| check(guard).unwrap_err()));
    }
    if let Some(t) = trace {
        columns.report(t);
    }
    let read = (0..nodes.len()).map(|q| columns.read(q)).sum();
    guard.try_matches(read).map_err(XPathError::Budget)?;
    let attr = match last.map(|step| (&step.test, step.axis)) {
        Some((NodeTest::Name(name), Axis::Attribute)) => doc.lookup_sym(name),
        _ => None,
    };
    Ok(columns
        .col(at)
        .iter()
        .map(|&n| match attr {
            Some(sym) => {
                let index = doc.attr_syms(n).position(|s| s == sym);
                let index = index.expect("a column holds the attribute's elements");
                Item::Attr { owner: n, index }
            }
            None => Item::Node(n),
        })
        .collect())
}

/// A run of location steps lowered onto a tree pattern: its nodes, the
/// context first, and the evaluation context its value tests read.
struct Lowering<'e, 'p, 'd> {
    ctx: Ctx<'d>,
    nodes: Vec<pattern::Node<'p, ValueTest<'e>>>,
}

/// What a pattern's value test means, at a node or an attribute.
enum ValueTest<'e> {
    /// Its string-value compares with a literal, a number or some node of a
    /// hoisted set, evaluated when first asked.
    Compare(BinOp, &'e Expr, OnceCell<Operand<'e>>),
    /// A position-free predicate the pattern does not take apart, decided
    /// at the node by the item-by-item evaluator.
    Opaque(&'e Expr),
}

impl ValueTest<'_> {
    /// Does the test hold at `item`?
    fn holds(&self, ctx: Ctx<'_>, item: Item) -> Result<bool> {
        match self {
            ValueTest::Compare(op, other, operand) => {
                let other = match operand.get() {
                    Some(operand) => operand,
                    None => {
                        let value = eval_operand(other, ctx)?;
                        operand.get_or_init(|| value)
                    }
                };
                let x = string_value(ctx.doc, item);
                Ok(compare(*op, View::Str(&x), other.view(), ctx.doc))
            }
            ValueTest::Opaque(e) => truth(e, Ctx { item, ..ctx }),
        }
    }
}

type PCond<'e> = Cond<ValueTest<'e>>;

impl<'e: 'p, 'p, 'd: 'p> Lowering<'e, 'p, 'd> {
    /// Conjoin `predicates` to node `at`'s condition. A predicate that the
    /// pattern does not take apart is an opaque test on a node of the chain
    /// (`!deep`), which the path reaches before it is asked; below an edge
    /// (`deep`), where a node is asked wherever its postings lie, it is
    /// not, and `None` says so.
    fn predicates(&mut self, at: usize, predicates: &'e [Expr], deep: bool) -> Option<()> {
        for e in predicates {
            let mark = self.nodes.len();
            let cond = match self.cond(at, e) {
                Some(cond) => cond,
                None if deep => return None,
                None => {
                    self.nodes.truncate(mark);
                    Cond::Value(ValueTest::Opaque(e), false)
                }
            };
            let old = std::mem::replace(&mut self.nodes[at].cond, Cond::True);
            self.nodes[at].cond = old.and(cond);
        }
        Some(())
    }

    /// Predicate `e`, position-free, as a condition at node `at`: `and`,
    /// `or`, `not()` and `boolean()` over relative paths the kernel takes
    /// and over their comparisons with a literal, a number or an absolute
    /// path; `None` for anything else.
    fn cond(&mut self, at: usize, e: &'e Expr) -> Option<PCond<'e>> {
        Some(match e {
            Expr::Binary(BinOp::And, a, b) => self.cond(at, a)?.and(self.cond(at, b)?),
            Expr::Binary(BinOp::Or, a, b) => Cond::Any(vec![self.cond(at, a)?, self.cond(at, b)?]),
            Expr::Call(name, args) if name == "not" && args.len() == 1 => {
                !self.cond(at, &args[0])?
            }
            Expr::Call(name, args) if name == "boolean" && args.len() == 1 => {
                self.cond(at, &args[0])?
            }
            Expr::Path(p) if self.takes(at, p) => self.path(at, &p.steps, Cond::True)?,
            Expr::Binary(
                op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                a,
                b,
            ) => {
                // Oriented so that the path stands on the left.
                let (path, other, op) = match (&**a, &**b) {
                    (Expr::Path(p), _) if self.takes(at, p) => (p, &**b, *op),
                    (_, Expr::Path(p)) if self.takes(at, p) => (p, &**a, mirrored(*op)),
                    _ => return None,
                };
                match other {
                    Expr::Literal(_) | Expr::Number(_) => {}
                    Expr::Path(q) if q.absolute => {}
                    _ => return None,
                }
                let test = ValueTest::Compare(op, other, OnceCell::new());
                self.path(at, &path.steps, Cond::Value(test, false))?
            }
            _ => return None,
        })
    }

    /// Does the kernel take relative path `p` from node `at`: every step a
    /// link, and none an edge from an attribute?
    fn takes(&self, at: usize, p: &LocationPath) -> bool {
        let (n, edge) = links(&p.steps);
        let element = matches!(self.nodes[at].kind, Kind::Element(_));
        !p.absolute && n == p.steps.len() && (element || !edge)
    }

    /// The condition at `at` that `steps`, links all, reach a node from it
    /// where `tail` holds: the predicates of leading `self::node()` steps,
    /// and an edge to a new node for the first edge link, whose condition
    /// is its step's predicates and the rest of the path from there.
    fn path(&mut self, at: usize, steps: &'e [Step], tail: PCond<'e>) -> Option<PCond<'e>> {
        let Some((link, n)) = link(steps) else {
            return Some(tail);
        };
        Some(match link {
            Link::Here(predicates) => {
                let mut cond = Cond::True;
                for e in predicates {
                    cond = cond.and(self.cond(at, e)?);
                }
                cond.and(self.path(at, &steps[n..], tail)?)
            }
            Link::Edge(axis, step) => {
                let u = self.nodes.len();
                self.nodes
                    .push(node_of(self.ctx.doc, self.ctx.caches.idx, step));
                self.predicates(u, &step.predicates, true)?;
                let rest = self.path(u, &steps[n..], tail)?;
                let own = std::mem::replace(&mut self.nodes[u].cond, Cond::True);
                self.nodes[u].cond = own.and(rest);
                Cond::Edge(axis, u, false)
            }
        })
    }
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

/// Apply one step to a node-set: per context node, enumerate the axis in
/// axis order, filter by node test, run predicates positionally, then merge
/// and normalise to document order. Each context node's candidates are
/// appended to the output and filtered there.
fn apply_step<'d>(
    step: &Step,
    input: &[Item],
    doc: &'d Document,
    caches: &'d EvalCaches<'d>,
) -> Result<Vec<Item>> {
    let guard = caches.ctx.guard;
    let test = Test::resolve(doc, &step.test);
    let mut out: Vec<Item> = Vec::new();
    for &ctx_item in input {
        // Budget probe: per context item (covers deadline/cancellation even
        // inside one huge step).
        check(guard)?;
        let from = out.len();
        axis_items(doc, caches.idx, ctx_item, step.axis, &mut out);
        let attrs = step.axis == Axis::Attribute;
        retain_tail(&mut out, from, |_, x| Ok(test.matches(doc, x, attrs)))?;
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

/// Append an axis to `out` in axis order (reverse axes run backwards so
/// that positional predicates see XPath semantics), reading the subtrees
/// and what follows or precedes off the index's preorder. An attribute
/// navigates from its element: its parent is the element, its following
/// axis the element's descendants and following, its preceding axis the
/// element's; it has no children, attributes, descendants or siblings.
fn axis_items(doc: &Document, idx: &DocIndex, item: Item, axis: Axis, out: &mut Vec<Item>) {
    let (node, attr) = match item {
        Item::Node(n) => (n, false),
        Item::Attr { owner, .. } => (owner, true),
    };
    let Some(span) = idx.span(node) else {
        return; // detached at build time: not reachable from the root
    };
    let preorder = idx.preorder();
    fn nodes(within: &[NodeId]) -> impl Iterator<Item = Item> + '_ {
        within.iter().map(|&n| Item::Node(n))
    }
    let ancestors = std::iter::successors(doc.parent(node), |&n| doc.parent(n)).map(Item::Node);
    let siblings = |next: fn(&Document, NodeId) -> Option<NodeId>| {
        std::iter::successors(next(doc, node), move |&n| next(doc, n)).map(Item::Node)
    };
    match (axis, attr) {
        (Axis::SelfAxis, _) => out.push(item),
        (Axis::Parent, true) => out.push(Item::Node(node)),
        (Axis::Ancestor | Axis::AncestorOrSelf, true) => {
            out.extend((axis == Axis::AncestorOrSelf).then_some(item));
            out.push(Item::Node(node));
            out.extend(ancestors);
        }
        (Axis::Following, true) => out.extend(nodes(&preorder[span.start + 1..])),
        (Axis::Preceding, _) => out.extend(
            (preorder[..span.start].iter().rev())
                .filter(|&&n| !idx.is_descendant_or_self(n, node))
                .map(|&n| Item::Node(n)),
        ),
        (_, true) => {}
        (Axis::Child, _) => out.extend(nodes(doc.children(node))),
        (Axis::Attribute, _) => {
            out.extend((0..doc.attr_count(node)).map(|index| Item::Attr { owner: node, index }))
        }
        (Axis::Descendant, _) => out.extend(nodes(&preorder[span.start + 1..span.end])),
        (Axis::DescendantOrSelf, _) => out.extend(nodes(&preorder[span])),
        (Axis::Parent, _) => out.extend(doc.parent(node).map(Item::Node)),
        (Axis::Ancestor, _) => out.extend(ancestors),
        (Axis::AncestorOrSelf, _) => {
            out.push(item);
            out.extend(ancestors);
        }
        (Axis::FollowingSibling, _) => out.extend(siblings(Document::next_sibling)),
        (Axis::PrecedingSibling, _) => out.extend(siblings(Document::prev_sibling)),
        (Axis::Following, _) => out.extend(nodes(&preorder[span.end..])),
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

    /// Does `item`, found along the attribute axis (`attrs`) or another,
    /// pass? `*` and a name test select the axis's principal node type only
    /// (§2.3): attribute on the attribute axis, element on every other, so
    /// an attribute item that the self or ancestor-or-self axis yields
    /// passes `node()` and nothing else.
    fn matches(self, doc: &Document, item: Item, attrs: bool) -> bool {
        let (kind, name) = match item {
            Item::Attr { owner, index } => (None, doc.attr_syms(owner).nth(index)),
            Item::Node(n) => (Some(doc.kind(n)), doc.name_sym(n)),
        };
        let principal = match kind {
            None => attrs,
            Some(kind) => !attrs && kind == NodeKind::Element,
        };
        match self {
            Test::Node => true,
            Test::Text => kind == Some(NodeKind::Text),
            Test::Comment => kind == Some(NodeKind::Comment),
            Test::Any => principal,
            Test::Name(sym) => principal && sym.is_some() && name == sym,
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
        // Exercises `//name` patterns, descendant steps with positional
        // predicates (applied item by item), explicit descendant axes,
        // attribute tests and unknown names.
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
    fn a_positional_predicate_counts_per_parent() {
        let d = doc();
        // `//book[1]` means "every book that is the first child-book of its
        // parent", NOT "the first book in the document" — the child step's
        // predicate must keep it off the pattern for this to hold.
        assert_eq!(select(&d, "//book[1]").unwrap().len(), 1);
        assert_eq!(texts(&d, "//book[1]/title"), vec!["TCP/IP Illustrated"]);
        assert_eq!(select(&d, "//author[1]").unwrap().len(), 2);
    }

    /// Evaluation over a fresh and over a prebuilt index.
    fn both_ways(d: &Document, xpath: &str) -> [XValue; 2] {
        let expr = crate::parse(xpath).unwrap();
        let idx = DocIndex::build(d);
        [
            evaluate(d, &expr).unwrap(),
            evaluate_with_index(d, &expr, &idx).unwrap(),
        ]
    }

    #[test]
    fn positional_predicates_stay_off_the_pattern() {
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
    fn a_pattern_charges_the_postings_it_reads_not_the_document() {
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
        let guard = Guard::new(gql_guard::Budget::unlimited());
        let hits = evaluate_in(&d, &expr, &idx, RunCtx::guarded(&guard))
            .unwrap()
            .into_nodes()
            .unwrap();
        assert_eq!(hits.len(), 5);
        let report = guard.report().unwrap();
        // One pattern: the context, the ten `t` postings, and one attribute
        // read per `t`.
        assert_eq!(report.matches, 21);
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn a_pattern_charges_its_predicates_postings_once_per_query() {
        // Twenty `c` candidates: every second one has `k`, every third none
        // of the `a/b` pairs, and `x`, `y` values that make `x < 3 or y > 5`
        // hold on some and fail on others.
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
        // Per predicate: the hits, and what its pattern read — the postings
        // of the context, of `c` and of each child element with a condition
        // of its own (`a`, `b`, `x`, `y`), and per element asked, the
        // children or the attribute a node without one is read off. One
        // round each, however many candidates the predicate is decided at.
        for (xpath, hits, matches) in [
            ("//c[a/b='v']", 7, 1 + 20 + 39 + 39),
            ("//c[not(a)]", 7, 1 + 20 + 27),
            ("//c[x < 3 or y > 5]", 11, 1 + 20 + 20 + 20),
            ("//c[@k]", 10, 1 + 20 + 20),
        ] {
            let expr = crate::parse(xpath).unwrap();
            let guard = Guard::new(gql_guard::Budget::unlimited());
            let found = evaluate_in(&d, &expr, &idx, RunCtx::guarded(&guard))
                .unwrap()
                .into_nodes()
                .unwrap();
            assert_eq!(found.len(), hits, "{xpath}");
            let report = guard.report().unwrap();
            assert_eq!(report.rounds, 1, "{xpath}");
            assert_eq!(report.matches, matches, "{xpath}");
        }
        // A candidate with 10,000 children that meet the node test and fail
        // the comparison: the pattern reads them all, and a matches budget
        // trips.
        let mut d = Document::new();
        let root = d.add_element(d.root(), "r");
        let c = d.add_element(root, "c");
        for _ in 0..10_000 {
            d.add_text_element(c, "x", "9");
        }
        let expr = crate::parse("//c[x < 3]").unwrap();
        let idx = DocIndex::build(&d);
        let guard = Guard::new(gql_guard::Budget::unlimited().with_max_matches(5_000));
        match evaluate_in(&d, &expr, &idx, RunCtx::guarded(&guard)) {
            Err(XPathError::Budget(e)) => assert_eq!(e.kind, gql_guard::LimitKind::Matches),
            other => panic!("expected a matches trip, got {other:?}"),
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
        let hits = evaluate_in(&d, &expr, &idx, RunCtx::new(&trace, &guard))
            .unwrap()
            .into_nodes()
            .unwrap();
        assert_eq!(hits.len(), 40);
        // One round for the pattern `//p[c = …]`, and one for the inner
        // path's, matched once, not a thousand times.
        assert_eq!(guard.report().unwrap().rounds, 2);
        let profile = trace.finish().unwrap();
        let pattern = profile.find("pattern[0..2]").unwrap();
        assert_eq!(pattern.counter("hoisted_paths"), Some(1));
        assert_eq!(pattern.counter("candidates[q1:p]"), Some(1_000));
        assert_eq!(pattern.counter("context_out"), Some(40));
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
