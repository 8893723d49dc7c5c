//! Embedding enumeration: matching the extract graph against a document.
//!
//! Each extract tree is matched set-at-a-time over the [`DocIndex`]
//! postings, in two passes: bottom up, every box gets its *column*, the
//! elements (in document order) at which its subtree matches (`reduce`);
//! then, from the root's column, each candidate's rows are counted and
//! charged before they are made, and written one by one (`Fill`). A value
//! is the cell of the element it is read from ([`super::bindings`]); the
//! roots' tables are then combined, joins comparing content through
//! `bindings::Keys`.

use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Range;

use gql_guard::{Guard, RunCtx};
use gql_ssdm::pattern::{self, Axis, Cond, Kind};
use gql_ssdm::{DocIndex, Document, NodeId};
use gql_trace::joined;

use crate::ast::{ExtractGraph, NameTest, QEdge, QNodeId, QNodeKind, Rule};

use super::bindings::{retain_rows, Bindings, Keys, UNBOUND};
use super::join_plan::{Join, JoinPlan, NO_ROOT};

/// Selects nothing: matching has one schedule, a single-threaded candidate
/// loop. The type survives only because `gql-benchmark/src/replay.rs`, frozen
/// outside a `benchmark` PR, passes `MatchMode::Auto` to [`match_rule_with`];
/// the next `benchmark` PR deletes it together with that argument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MatchMode {
    #[default]
    Auto,
}

/// Everything both passes need, borrowed once per rule.
struct Ctx<'a> {
    g: &'a ExtractGraph,
    doc: &'a Document,
    /// Cells per row of every table.
    width: usize,
    idx: &'a DocIndex,
    /// The extract trees as one tree pattern, node for node.
    nodes: Vec<pattern::Node<'a, (), Node<'a>>>,
    /// Every predicate constant of the rule, parsed once.
    constants: Vec<Option<f64>>,
    /// Where the run reports and what bounds it. Matching is infallible
    /// (a table out), so a tripped guard makes the passes bail early with
    /// *truncated* results; the `Result`-returning caller must
    /// `guard.checkpoint()` afterwards and discard them.
    run: RunCtx<'a>,
}

/// The rule's columns, reduced by the kernel.
type Columns<'p, 'a> = pattern::Columns<'p, 'a, (), Node<'a>>;

/// What the row writer knows of one query node.
struct Node<'a> {
    /// Its predicate's constants: a range of [`Ctx::constants`].
    constants: Range<usize>,
    /// For the target of a kept edge: its source, the edge, and for a
    /// child edge of an ordered box the target of the one ahead of it in
    /// sibling order.
    step: Option<(QNodeId, &'a QEdge, Option<QNodeId>)>,
    /// The target of the kept edge after it in its tree's preorder (for a
    /// root, the first).
    next: Option<QNodeId>,
    /// The element the row being written binds it to.
    bound: Cell<u32>,
}

impl<'a> Ctx<'a> {
    fn new(rule: &'a Rule, doc: &'a Document, idx: &'a DocIndex, run: RunCtx<'a>) -> Self {
        let g = &rule.extract;
        let is_box = |q: QNodeId| matches!(g.node(q).kind, QNodeKind::Element(_));
        let mut constants = Vec::new();
        let nodes = (g.nodes.iter().enumerate())
            .map(|(i, n)| {
                let sym = |name: &str| doc.lookup_sym(name);
                let (kind, postings) = match &n.kind {
                    QNodeKind::Element(NameTest::Wildcard) => (Kind::Element(None), idx.elements()),
                    QNodeKind::Element(NameTest::Name(name)) => match sym(name) {
                        Some(s) => (Kind::Element(Some(s)), idx.elements_named_sym(s)),
                        None => (Kind::Absent, &[][..]),
                    },
                    QNodeKind::Attribute(name) => match sym(name) {
                        Some(s) => (Kind::Attr(s), idx.elements_with_attr_sym(s)),
                        None => (Kind::Absent, &[][..]),
                    },
                    QNodeKind::Text => (Kind::Text, idx.elements_with_text()),
                };
                // Child boxes, then deep edges, then circles, then the
                // node's own predicate: the cheap tests first.
                let rank = |e: &&QEdge| match (e.deep, is_box(e.target)) {
                    (false, true) => 0,
                    (true, _) => 1,
                    (false, false) => 2,
                };
                let mut cond = Cond::True;
                for r in 0..3 {
                    for e in n.children.iter().filter(|e| rank(e) == r) {
                        let axis = match (e.deep, is_box(e.target)) {
                            (false, _) => Axis::Child,
                            (true, true) => Axis::Descendant,
                            (true, false) => Axis::DescendantOrSelf,
                        };
                        cond = cond.and(Cond::Edge(axis, e.target.index(), e.negated));
                    }
                }
                if !n.predicate.is_trivial() {
                    cond = cond.and(Cond::Value((), false));
                }
                let from = constants.len();
                constants.extend(n.predicate.parsed_constants());
                let data = Node {
                    constants: from..constants.len(),
                    step: None,
                    next: None,
                    bound: Cell::new(UNBOUND),
                };
                let label = qnode_label(g, QNodeId(i as u32));
                let mut node = pattern::Node::new(kind, postings, label, data);
                (node.cond, node.ordered) = (cond, g.ordered[i]);
                node
            })
            .collect();
        let mut cx = Ctx {
            g,
            doc,
            width: g.nodes.len(),
            idx,
            nodes,
            constants,
            run,
        };
        for &root in &g.roots {
            cx.link(root, &mut { root });
        }
        cx
    }

    /// Chain the kept edges below `q` in preorder after `last`, each with
    /// its step.
    fn link(&mut self, q: QNodeId, last: &mut QNodeId) {
        let mut ahead = None;
        for edge in self.kept(q) {
            let (t, in_order) = (edge.target, self.in_order(q, edge));
            self.nodes[t.index()].data.step = Some((q, edge, ahead.filter(|_| in_order)));
            ahead = if in_order { Some(t) } else { ahead };
            self.nodes[last.index()].data.next = Some(t);
            *last = t;
            self.link(t, last);
        }
    }

    /// Does `q`'s predicate hold of the string value `data()` reads?
    fn holds<'d>(&self, q: QNodeId, data: impl FnOnce() -> Cow<'d, str>) -> bool {
        let predicate = &self.g.node(q).predicate;
        let constants = &self.constants[self.nodes[q.index()].data.constants.clone()];
        predicate.is_trivial() || predicate.eval_with(constants, &data())
    }

    /// The kernel's value test `q`: `q`'s predicate, of element `n`'s
    /// string value, or of the attribute a circle binds there.
    fn value(&self, q: usize, n: NodeId) -> Option<bool> {
        let q = QNodeId(q as u32);
        Some(match self.nodes[q.index()].kind {
            Kind::Attr(sym) => self.holds(q, || self.doc.attr_sym(n, sym).unwrap_or("").into()),
            _ => self.holds(q, || self.doc.string_value(n)),
        })
    }

    fn is_box(&self, q: QNodeId) -> bool {
        matches!(self.g.node(q).kind, QNodeKind::Element(_))
    }

    /// `q`'s edges that are not negated.
    fn kept(&self, q: QNodeId) -> impl Iterator<Item = &'a QEdge> {
        let g = self.g;
        g.node(q).children.iter().filter(|e| !e.negated)
    }

    /// Is `edge` of `q` bound in sibling order: a child edge to a box of
    /// an ordered box?
    fn in_order(&self, q: QNodeId, edge: &QEdge) -> bool {
        self.g.ordered[q.index()] && !edge.deep && self.is_box(edge.target)
    }
}

/// Human-readable label for a query node (a sigil and a name, printed back
/// to back), used in candidate counter and root span names.
fn qnode_label(g: &ExtractGraph, q: QNodeId) -> (&'static str, &str) {
    match &g.node(q).kind {
        QNodeKind::Element(NameTest::Name(name)) => ("", name),
        QNodeKind::Element(NameTest::Wildcard) => ("", "*"),
        QNodeKind::Attribute(name) => ("@", name),
        QNodeKind::Text => ("", "text()"),
    }
}

/// Enumerate all embeddings of a rule's extract graph into `doc`, building
/// a fresh [`DocIndex`] for the document. Callers evaluating several rules
/// against one document should build the index once and use
/// [`match_rule_in`].
pub fn match_rule(rule: &Rule, doc: &Document) -> Bindings {
    let idx = DocIndex::build(doc);
    match_rule_in(rule, doc, &idx, &JoinPlan::new(rule, None), RunCtx::none())
}

/// Enumerate all embeddings using a prebuilt index. `_mode` selects nothing
/// (see [`MatchMode`]).
pub fn match_rule_with(rule: &Rule, doc: &Document, idx: &DocIndex, _mode: MatchMode) -> Bindings {
    match_rule_in(rule, doc, idx, &JoinPlan::new(rule, None), RunCtx::none())
}

/// The full form every other `match_rule*` is one line over.
///
/// Roots are matched one by one and their binding sets then combined
/// along `plan`'s steps: a hash join on the 64-bit content hash
/// (`Keys::hash`) over a step's joins, a cartesian product for a step with
/// none. The plan's residual joins are then checked row by row.
///
/// * `plan`: the rule's [`JoinPlan`], in declaration order or in one a
///   planner chose (`gql-plan`'s `plan_rule_order`) so a selective root
///   shrinks the intermediate result first. The *result is identical*
///   whatever the order: rows are sorted back into declaration order.
/// * `ctx.trace` receives per-root candidate counts, per-combine join
///   statistics, residual-filter counts and per-query-node postings read;
///   the counters are never allocated for a disabled trace.
/// * `ctx.guard` is probed per root candidate, per reduction pass (and
///   every 4096 postings in one), and per join/product batch; each
///   expansion that yields rows is charged before it is made. A tripped
///   guard truncates the returned binding set; the caller must call
///   `guard.checkpoint()` afterwards and discard the output on error.
pub fn match_rule_in(
    rule: &Rule,
    doc: &Document,
    idx: &DocIndex,
    plan: &JoinPlan,
    ctx: RunCtx<'_>,
) -> Bindings {
    debug_assert!(
        plan.fits(rule),
        "a join plan runs the rule it was built for"
    );
    let cx = Ctx::new(rule, doc, idx, ctx);
    let out = run_match(&cx, plan);
    ctx.trace.count("bindings", out.len() as u64);
    out
}

fn run_match(cx: &Ctx, plan: &JoinPlan) -> Bindings {
    let (g, trace) = (cx.g, cx.run.trace);
    if g.roots.is_empty() {
        return Bindings::new(cx.width);
    }
    if trace.is_enabled() {
        trace.note("path", "indexed");
    }

    // Per-root binding sets: each root's tree reduced, then its rows filled.
    // check.rs guarantees element roots.
    let mut columns = Columns::new(cx.doc, cx.idx, &cx.nodes);
    let values = |q, _: &(), n, _| cx.value(q, n);
    let mut fill = Fill { cx, dp: Vec::new() };
    let mut per_root: Vec<Bindings> = g
        .roots
        .iter()
        .enumerate()
        .map(|(ri, &root)| {
            let (sigil, name) = qnode_label(g, root);
            let _s = trace.span(format_args!("root[{ri}:{sigil}{name}]"));
            let boxed = cx.is_box(root);
            let postings = cx.nodes[root.index()].postings.len() * usize::from(boxed);
            trace.count("root_candidates", postings as u64);
            let reduced = boxed
                && columns
                    .reduce(root.index(), cx.run.guard, &values)
                    .is_some();
            let out = match reduced {
                true => fill.root(&columns, root),
                false => Bindings::new(cx.width),
            };
            trace.count("bindings", out.len() as u64);
            out
        })
        .collect();
    if trace.is_enabled() {
        columns.report(trace);
    }

    // Combine the roots. One root has nothing to combine with: its
    // bindings are the result as they are.
    let (mut combined, ran) = if per_root.len() == 1 {
        (per_root.swap_remove(0), 1)
    } else {
        combine(cx, &per_root, plan)
    };

    // The residual joins are verified by filtering. A combine that ran out
    // of rows left its later steps' joins unchecked too: they count with
    // the residual ones, over no rows.
    let residual = plan.residual();
    let unchecked: usize = plan.steps()[ran..].iter().map(|s| s.on.len()).sum();
    if residual.len() + unchecked > 0 {
        let span = trace.span("residual_filter");
        let before = combined.len();
        let mut keys = Keys::new(cx.doc, g);
        retain_rows(&mut combined.cells, 0, cx.width, |row| {
            (residual.iter()).all(|&(x, y)| keys.eq((x, row.get(x)), (y, row.get(y))))
        });
        if trace.is_enabled() {
            trace.count("joins", (residual.len() + unchecked) as u64);
            trace.count("rows_in", before as u64);
            trace.count("rows_out", combined.len() as u64);
        }
        drop(span);
    }
    combined
}

/// The per-root binding tables, and which root each query node belongs to
/// (the plan's owners): where the join columns of an intermediate combine
/// row are read from. Such a row is a provenance tuple — one per-root row
/// number per root, [`UNBOUND`] for a root not merged in yet — and the rows
/// of one stage lie end to end in one buffer; none copies a binding.
struct Roots<'a> {
    per_root: &'a [Bindings],
    owner: &'a [usize],
}

impl Roots<'_> {
    /// The join column `c` of row `t`, read straight off the owning root's
    /// table.
    fn col(&self, t: &[u32], c: QNodeId) -> Option<NodeId> {
        let o = self.owner[c.index()];
        self.per_root[o].row(t[o] as usize).get(c)
    }
}

/// Combine the per-root binding sets along `plan`'s steps, hash-joining a
/// step with joins and taking the cartesian product for one without.
/// Intermediate rows are provenance tuples (see [`Roots`]), sorted into
/// declaration-order lexicographic sequence before bindings are
/// materialised — the sequence a left-to-right declaration-order merge
/// emits (products and hash joins both emit left-to-right,
/// right-index-ascending), so construct output cannot depend on the plan.
///
/// Also returns how many steps ran: the combine stops at a step that finds
/// the guard tripped, and after one that leaves no row.
fn combine(cx: &Ctx, per_root: &[Bindings], plan: &JoinPlan) -> (Bindings, usize) {
    let RunCtx { trace, guard } = cx.run;
    let nroots = per_root.len();
    let roots = Roots {
        per_root,
        owner: plan.owners(),
    };
    let owner = roots.owner;
    if plan.is_planned() {
        trace.note("combine_plan", joined(plan.order(), ","));
    }
    let steps = plan.steps();
    let first = steps[0].root;
    let blank = vec![UNBOUND; nroots];
    let mut rows: Vec<u32> = Vec::with_capacity(per_root[first].len() * nroots);
    for i in 0..per_root[first].len() as u32 {
        push_extended(&mut rows, &blank, first, i);
    }
    // The next stage's rows; the two buffers swap roles stage by stage.
    let mut next: Vec<u32> = Vec::new();
    let mut keys = Keys::new(cx.doc, cx.g);
    let mut ran = 1;
    for (k, step) in steps.iter().enumerate().skip(1) {
        ran = k + 1;
        let (ri, right) = (step.root, &per_root[step.root]);
        let span = match plan.is_planned() {
            true => trace.span(format_args!("combine[{k}:root {ri}]")),
            false => trace.span(format_args!("combine[{ri}]")),
        };
        if trace.is_enabled() {
            trace.count("left_rows", (rows.len() / nroots) as u64);
            trace.count("right_rows", right.len() as u64);
        }
        if !guard.ok() {
            return (Bindings::new(cx.width), ran);
        }
        if step.on.is_empty() {
            trace.note("kind", "product");
            for t in rows.chunks_exact(nroots) {
                // Budget probe: one per output batch (this row's fan-out).
                if !guard.charge_matches(right.len() as u64) {
                    break;
                }
                for i in 0..right.len() as u32 {
                    push_extended(&mut next, t, ri, i);
                }
            }
        } else {
            trace.note("kind", "hash_join");
            let probe = Probe {
                rows: &rows,
                ri,
                joins: &step.on,
            };
            let stats = hash_join(&roots, probe, &mut keys, Keys::hash, guard, &mut next);
            if trace.is_enabled() {
                trace.count("probes", stats.probes);
                trace.count("hash_matches", stats.hash_matches);
                trace.count("collision_rejects", stats.collision_rejects);
            }
        }
        std::mem::swap(&mut rows, &mut next);
        next.clear();
        trace.count("out_rows", (rows.len() / nroots) as u64);
        drop(span);
        if rows.is_empty() {
            break;
        }
    }

    // Restore declaration order: lexicographic in the provenance tuple.
    let row = |r: u32| &rows[r as usize * nroots..][..nroots];
    let mut sorted: Vec<u32> = (0..(rows.len() / nroots) as u32).collect();
    sorted.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    let mut out = Bindings::new(cx.width);
    out.cells.reserve(sorted.len() * cx.width);
    for &r in &sorted {
        let t = row(r);
        out.cells.extend((0..cx.width).map(|c| match owner[c] {
            NO_ROOT => UNBOUND,
            o => per_root[o].cells[t[o] as usize * cx.width + c],
        }));
    }
    (out, ran)
}

/// Append row `t` with root `ri` merged in at its row `i`.
fn push_extended(rows: &mut Vec<u32>, t: &[u32], ri: usize, i: u32) {
    rows.extend_from_slice(t);
    let at = rows.len() - t.len() + ri;
    rows[at] = i;
}

/// What one hash join did, reported into the trace when profiling: probe
/// rows offered, hash-equal candidate pairs, and pairs rejected by
/// verification (true hash collisions: ≈ 0 under the production hasher).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JoinStats {
    pub probes: u64,
    pub hash_matches: u64,
    pub collision_rejects: u64,
}

/// The probe side of one hash join: the rows so far, the root joining them
/// and the joins between the two (a step of the plan).
#[derive(Clone, Copy)]
struct Probe<'a> {
    rows: &'a [u32],
    ri: usize,
    joins: &'a [Join],
}

/// Join `probe.rows` with root `probe.ri`'s table on the content hashes of
/// the join columns, appending the joined rows to `out`. The build side is
/// one sorted run of `(key, row)` — a bucket is a slice of it, in row
/// order — and hash-equal candidates are verified with [`Keys::eq`], so a
/// hash collision can never produce a false join: correctness does not
/// depend on the hash. The hasher is injectable so tests can force
/// collisions.
fn hash_join<'k>(
    roots: &Roots,
    probe: Probe,
    keys: &mut Keys<'k>,
    hash: impl Fn(&mut Keys<'k>, QNodeId, NodeId) -> u64,
    guard: &Guard,
    out: &mut Vec<u32>,
) -> JoinStats {
    let Probe { rows, ri, joins } = probe;
    let mut stats = JoinStats::default();
    let (right, nroots) = (&roots.per_root[ri], roots.per_root.len());
    // One key over all join columns; a row with a column unbound has none.
    let mut table: Vec<(u64, u32)> = Vec::with_capacity(right.len());
    for (i, r) in right.iter().enumerate() {
        let key = joins.iter().try_fold(0u64, |h, j| {
            Some(fold_key(h, hash(keys, j.root, r.get(j.root)?)))
        });
        if let Some(k) = key {
            table.push((k, i as u32));
        }
    }
    table.sort_unstable();
    for t in rows.chunks_exact(nroots) {
        let key = joins.iter().try_fold(0u64, |h, j| {
            Some(fold_key(h, hash(keys, j.prefix, roots.col(t, j.prefix)?)))
        });
        let Some(k) = key else {
            continue;
        };
        stats.probes += 1;
        let bucket = &table[table.partition_point(|e| e.0 < k)..];
        let bucket = &bucket[..bucket.partition_point(|e| e.0 == k)];
        if bucket.is_empty() {
            continue;
        }
        // Budget probe: one per hash-probe batch (this key's bucket).
        if !guard.charge_matches(bucket.len() as u64) {
            break;
        }
        for &(_, i) in bucket {
            stats.hash_matches += 1;
            let right = right.row(i as usize);
            let verified = (joins.iter()).all(|j| {
                keys.eq(
                    (j.prefix, roots.col(t, j.prefix)),
                    (j.root, right.get(j.root)),
                )
            });
            if verified {
                push_extended(out, t, ri, i);
            } else {
                stats.collision_rejects += 1;
            }
        }
    }
    stats
}

/// Fold one join column's hash into a row's key. A bijection of `hash` for
/// a given `h`, so over one column two rows share a key exactly when they
/// share the hash.
fn fold_key(h: u64, hash: u64) -> u64 {
    (h.rotate_left(29) ^ hash).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The alternatives of `edge`, a kept edge to a box or a deep one, at `e`:
/// the target's column sliced to `e`'s interval, or `e`'s children in the
/// target's set.
fn below<'s>(
    cx: &'s Ctx,
    m: &'s Columns,
    edge: &'s QEdge,
    e: NodeId,
) -> impl Iterator<Item = NodeId> + 's {
    let t = edge.target.index();
    let below = match edge.deep {
        true => cx.idx.range_in(m.col(t), e, !cx.is_box(edge.target)),
        false => cx.doc.children(e),
    };
    below
        .iter()
        .copied()
        .filter(move |&c| edge.deep || m.has(t, c))
}

/// Pass 2, over one rule's roots.
struct Fill<'c, 'a> {
    cx: &'c Ctx<'a>,
    /// An ordered body's in-order alternatives: preorder number, and the
    /// rows of the bindings so far that end with it.
    dp: Vec<(u32, u64)>,
}

impl Fill<'_, '_> {
    /// One root's table: its column's candidates, in document order, counted
    /// and charged until a charge is refused (the candidate then yields no
    /// rows, nor any after it); then the table, allocated once and written.
    fn root(&mut self, m: &Columns, root: QNodeId) -> Bindings {
        let (cx, mut rows, mut taken) = (self.cx, 0u64, 0);
        let (guard, col) = (cx.run.guard, m.col(root.index()));
        for &r in col {
            match guard.ok().then(|| self.count(m, root, r)) {
                Some(Some(n)) if guard.charge_matches(n) => {
                    (rows, taken) = (rows.saturating_add(n), taken + 1)
                }
                _ => break,
            }
        }
        let mut out = Bindings::new(cx.width);
        // Reserved up front up to 64 MiB of cells; a larger table (only an
        // unbounded run's: a budget trips first) grows as it is written.
        let cells = usize::try_from(rows)
            .ok()
            .and_then(|r| r.checked_mul(cx.width));
        out.cells.reserve_exact(cells.map_or(0, |c| c.min(1 << 24)));
        cx.nodes.iter().for_each(|n| n.data.bound.set(UNBOUND));
        for &r in &col[..taken] {
            cx.nodes[root.index()].data.bound.set(r.index() as u32);
            write(cx, &mut out.cells, m, cx.nodes[root.index()].data.next);
        }
        out
    }

    /// The rows of `q`'s subtree at `e`, an element of its column, charging
    /// what a row-at-a-time walk would: per kept edge, what its
    /// alternatives charge, then partials × alternatives. `None` once the
    /// guard refuses.
    fn count(&mut self, m: &Columns, q: QNodeId, e: NodeId) -> Option<u64> {
        let (cx, sorted, mut prev) = (self.cx, self.dp.len(), None);
        let (mut partials, mut others) = (1u64, 1u64);
        for edge in cx.kept(q) {
            let (t, start, mut rows) = (edge.target, self.dp.len(), 1);
            let in_order = cx.in_order(q, edge);
            if edge.deep || cx.is_box(t) {
                rows = 0;
                for c in below(cx, m, edge, e) {
                    let n = self.count(m, t, c)?;
                    rows += n;
                    if in_order {
                        self.dp.push((cx.idx.pre(c).unwrap_or(u32::MAX), n));
                    }
                }
            }
            if !in_order {
                others = others.saturating_mul(rows);
            } else if let Some(p) = prev.replace(start..self.dp.len()) {
                // Bindings in sibling order ending at each alternative: its
                // rows times those ending at or before it one edge earlier.
                let (mut j, mut before) = (p.start, 0u64);
                for i in start..self.dp.len() {
                    while j < p.end && self.dp[j].0 <= self.dp[i].0 {
                        (before, j) = (before + self.dp[j].1, j + 1);
                    }
                    self.dp[i].1 = self.dp[i].1.saturating_mul(before);
                }
            }
            partials = partials.saturating_mul(rows);
            if !cx.run.guard.charge_matches(partials) {
                return None;
            }
        }
        let rows = match prev {
            Some(p) => others.saturating_mul(self.dp[p].iter().map(|d| d.1).sum()),
            None => partials,
        };
        self.dp.truncate(sorted);
        Some(rows)
    }
}

/// Write every row that binds the kept edges from `at` on, in preorder,
/// under the elements already bound: each alternative of the edge, then
/// the rows of the edges after it. An in-order edge takes no alternative
/// before the one the in-order edge ahead of it bound, so every row written
/// is kept.
fn write(cx: &Ctx, cells: &mut Vec<u32>, m: &Columns, at: Option<QNodeId>) {
    let bound = |q: QNodeId| &cx.nodes[q.index()].data.bound;
    let Some((t, node)) = at.map(|t| (t, &cx.nodes[t.index()].data)) else {
        return cells.extend(cx.nodes.iter().map(|n| n.data.bound.get()));
    };
    let (q, edge, ahead) = node.step.expect("every edge in the chain has its step");
    let e = NodeId::from_index(bound(q).get() as usize);
    if !edge.deep && !cx.is_box(t) {
        bound(t).set(e.index() as u32);
        return write(cx, cells, m, node.next);
    }
    let least = ahead.map(|a| cx.idx.pre(NodeId::from_index(bound(a).get() as usize)));
    for c in below(cx, m, edge, e) {
        if least.is_none_or(|l| cx.idx.pre(c) >= l) {
            bound(t).set(c.index() as u32);
            write(cx, cells, m, node.next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::cell_text;
    use super::*;
    use crate::ast::{CmpOp, QNode};
    use crate::builder::{RuleBuilder, C, Q};

    fn doc() -> Document {
        Document::parse_str(
            "<bib>\
               <book year='1994'><title>TCP/IP</title><price>65.95</price>\
                 <author><last>Stevens</last></author></book>\
               <book year='2000'><title>Data on the Web</title><price>39.95</price>\
                 <author><last>Abiteboul</last></author>\
                 <author><last>Buneman</last></author></book>\
               <article year='2000'><title>XML-GL</title></article>\
             </bib>",
        )
        .unwrap()
    }

    fn rule(q: Q) -> Rule {
        RuleBuilder::new()
            .extract(q)
            .construct(C::elem("out"))
            .build()
            .unwrap()
    }

    /// The text column `var` stands for, row by row.
    fn texts(d: &Document, r: &Rule, ms: &Bindings, var: &str) -> Vec<String> {
        let q = r.extract.by_var(var).unwrap();
        ms.iter()
            .map(|m| cell_text(d, &r.extract, q, m.get(q).unwrap()).into_owned())
            .collect()
    }

    #[test]
    fn root_matches_anywhere() {
        let d = doc();
        assert_eq!(match_rule(&rule(Q::elem("book")), &d).len(), 2);
        assert_eq!(match_rule(&rule(Q::elem("title")), &d).len(), 3);
        assert_eq!(match_rule(&rule(Q::elem("nothing")), &d).len(), 0);
        assert_eq!(match_rule(&rule(Q::any()), &d).len(), 15);
    }

    #[test]
    fn attribute_predicates_filter() {
        let d = doc();
        let r = rule(Q::elem("book").child(Q::attr("year").pred(CmpOp::Ge, "2000")));
        assert_eq!(match_rule(&r, &d).len(), 1);
        let r = rule(Q::elem("book").child(Q::attr("year")));
        assert_eq!(match_rule(&r, &d).len(), 2);
        let r = rule(Q::elem("book").child(Q::attr("isbn")));
        assert_eq!(match_rule(&r, &d).len(), 0);
    }

    #[test]
    fn text_circles_bind_content() {
        let d = doc();
        let r = rule(Q::elem("title").child(Q::text().var("t")));
        let ms = match_rule(&r, &d);
        assert_eq!(ms.len(), 3);
        assert!(texts(&d, &r, &ms, "t").contains(&"TCP/IP".to_string()));
    }

    #[test]
    fn multiple_children_multiply_embeddings() {
        let d = doc();
        // book with an author: second book has two embeddings.
        let r = rule(Q::elem("book").child(Q::elem("author").var("a")));
        assert_eq!(match_rule(&r, &d).len(), 3);
    }

    #[test]
    fn deep_edges_match_descendants() {
        let d = doc();
        let r = rule(Q::elem("bib").deep_child(Q::elem("last").var("l")));
        assert_eq!(match_rule(&r, &d).len(), 3);
        // Direct edge does not reach them.
        let r = rule(Q::elem("bib").child(Q::elem("last")));
        assert_eq!(match_rule(&r, &d).len(), 0);
    }

    #[test]
    fn negation() {
        let d = doc();
        // Books without an <article> sibling constraint is meaningless;
        // negate a child instead: books with no author → none; articles with
        // no author → one.
        let r = rule(Q::elem("book").without(Q::elem("author")));
        assert_eq!(match_rule(&r, &d).len(), 0);
        let r = rule(Q::elem("article").without(Q::elem("author")));
        assert_eq!(match_rule(&r, &d).len(), 1);
    }

    #[test]
    fn conjunctive_branches() {
        let d = doc();
        let r = rule(
            Q::elem("book")
                .child(Q::attr("year").pred(CmpOp::Eq, "2000"))
                .child(Q::elem("title").child(Q::text().pred(CmpOp::Contains, "Web"))),
        );
        assert_eq!(match_rule(&r, &d).len(), 1);
        // Same branches, impossible combination.
        let r = rule(
            Q::elem("book")
                .child(Q::attr("year").pred(CmpOp::Eq, "1994"))
                .child(Q::elem("title").child(Q::text().pred(CmpOp::Contains, "Web"))),
        );
        assert_eq!(match_rule(&r, &d).len(), 0);
    }

    #[test]
    fn element_predicate_sees_text_content() {
        let d = doc();
        let r = rule(Q::elem("last").pred(CmpOp::Eq, "Stevens"));
        assert_eq!(match_rule(&r, &d).len(), 1);
    }

    #[test]
    fn cross_tree_join() {
        let d = Document::parse_str(
            "<shop><products>\
               <product><name>apple</name><vendor>Vand</vendor></product>\
               <product><name>pear</name><vendor>Ghost</vendor></product>\
             </products>\
             <vendors><vendor><name>Vand</name><country>nl</country></vendor></vendors></shop>",
        )
        .unwrap();
        let r = RuleBuilder::new()
            .extract(
                Q::elem("product")
                    .var("p")
                    .child(Q::elem("vendor").child(Q::text().var("v1"))),
            )
            .extract(
                Q::elem("vendors")
                    .child(Q::elem("vendor").child(Q::elem("name").child(Q::text().var("v2")))),
            )
            .join("v1", "v2")
            .construct(C::elem("out").child(C::all("p")))
            .build()
            .unwrap();
        let ms = match_rule(&r, &d);
        assert_eq!(ms.len(), 1);
        assert!(texts(&d, &r, &ms, "p")[0].contains("apple"));
    }

    #[test]
    fn cartesian_product_without_join() {
        let d = doc();
        let r = RuleBuilder::new()
            .extract(Q::elem("book").var("b"))
            .extract(Q::elem("article").var("a"))
            .construct(C::elem("out"))
            .build()
            .unwrap();
        assert_eq!(match_rule(&r, &d).len(), 2); // 2 books × 1 article
    }

    #[test]
    fn ordered_matching() {
        let d = Document::parse_str("<r><a/><b/></r><!-- -->").unwrap();
        let ok = rule(
            Q::elem("r")
                .ordered()
                .child(Q::elem("a"))
                .child(Q::elem("b")),
        );
        assert_eq!(match_rule(&ok, &d).len(), 1);
        let bad = rule(
            Q::elem("r")
                .ordered()
                .child(Q::elem("b"))
                .child(Q::elem("a")),
        );
        assert_eq!(match_rule(&bad, &d).len(), 0);
        // Unordered succeeds both ways.
        let free = rule(Q::elem("r").child(Q::elem("b")).child(Q::elem("a")));
        assert_eq!(match_rule(&free, &d).len(), 1);
    }

    #[test]
    fn wildcard_with_structure() {
        let d = doc();
        // Any element that has a title child with text containing 'XML'.
        let r = rule(
            Q::any()
                .var("x")
                .child(Q::elem("title").child(Q::text().pred(CmpOp::Contains, "XML"))),
        );
        let ms = match_rule(&r, &d);
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn deep_attribute_edge() {
        let d = doc();
        // bib ~deep~> @year picks up year attributes at any depth.
        let r = rule(Q::elem("bib").deep_child(Q::attr("year").var("y")));
        assert_eq!(match_rule(&r, &d).len(), 3);
    }

    /// Tables are equal when their rows are: whatever rule an empty one was
    /// matched for, and never across widths otherwise.
    #[test]
    fn tables_compare_row_by_row() {
        let table = |width, cells: &[u32]| Bindings {
            width,
            cells: cells.to_vec(),
        };
        assert_eq!(table(2, &[]), table(5, &[]));
        assert_eq!(table(2, &[1, UNBOUND, 3, 4]), table(2, &[1, UNBOUND, 3, 4]));
        assert_ne!(table(2, &[1, UNBOUND, 3, 4]), table(2, &[1, 2, 3, 4]));
        assert_ne!(table(2, &[1, 2, 3, 4]), table(2, &[3, 4, 1, 2]));
        assert_ne!(table(2, &[1, 2, 3, 4]), table(4, &[1, 2, 3, 4]));
        assert_ne!(table(2, &[1, 2, 3, 4]), table(2, &[1, 2]));
        assert_eq!(table(3, &[1, 2, 3, 4, 5, 6]).only(1), table(3, &[4, 5, 6]));
    }

    /// Two one-column roots — q0 bound by root 0, q1 by root 1, both of
    /// `kind` — joined on q0 == q1 with root `first`'s rows as the probe
    /// side (`first == 0` is the declaration order, `first == 1` a permuted
    /// plan), under `hash`.
    fn join_from(
        d: &Document,
        kind: QNode,
        columns: [&[NodeId]; 2],
        first: usize,
        hash: impl Fn(&mut Keys<'_>, QNodeId, NodeId) -> u64,
    ) -> (Vec<u32>, JoinStats) {
        let g = ExtractGraph {
            nodes: vec![kind.clone(), kind],
            ..ExtractGraph::default()
        };
        let per_root: Vec<Bindings> = (0..2)
            .map(|q| {
                let mut table = Bindings::new(2);
                for n in columns[q] {
                    let mut row = [UNBOUND; 2];
                    row[q] = n.index() as u32;
                    table.cells.extend(row);
                }
                table
            })
            .collect();
        let roots = Roots {
            per_root: &per_root,
            owner: &[0, 1],
        };
        let mut rows = Vec::new();
        for i in 0..per_root[first].len() as u32 {
            push_extended(&mut rows, &[UNBOUND; 2], first, i);
        }
        let ri = 1 - first;
        let probe = Probe {
            rows: &rows,
            ri,
            joins: &[Join {
                prefix: QNodeId(first as u32),
                root: QNodeId(ri as u32),
                index: 0,
            }],
        };
        let (mut out, mut keys) = (Vec::new(), Keys::new(d, &g));
        let stats = hash_join(
            &roots,
            probe,
            &mut keys,
            hash,
            &Guard::unlimited(),
            &mut out,
        );
        (out, stats)
    }

    #[test]
    fn hash_collision_falls_back_to_deep_equality() {
        let d = Document::parse_str("<r><a>x</a><a>y</a><b>x</b><b>z</b></r>").unwrap();
        let kids: Vec<NodeId> = d.child_elements(d.root_element().unwrap()).collect();
        let columns: [&[NodeId]; 2] = [&kids[..2], &kids[2..]];
        // The real hashes of the three values differ, so a constant hasher
        // genuinely forces every row into one colliding bucket.
        let g = ExtractGraph {
            nodes: vec![QNode::text()],
            ..ExtractGraph::default()
        };
        let mut keys = Keys::new(&d, &g);
        let real: Vec<u64> = [0, 1, 3]
            .iter()
            .map(|&k| keys.hash(QNodeId(0), kids[k]))
            .collect();
        assert!(real[0] != real[1] && real[0] != real[2]);
        assert_eq!(real[0], keys.hash(QNodeId(0), kids[2]));
        for first in [0, 1] {
            let (collided, stats) = join_from(&d, QNode::text(), columns, first, |_, _, _| 0);
            // Verification must reject the colliding non-matches and keep
            // exactly the x–x pair.
            assert_eq!(collided, [0, 0], "probe side {first}");
            // The stats expose the collisions: 2 probes, every pair
            // hash-equal under the constant hasher (2×2 = 4), 3 rejected by
            // verification.
            assert_eq!(
                stats,
                JoinStats {
                    probes: 2,
                    hash_matches: 4,
                    collision_rejects: 3,
                }
            );
            // And the production hasher agrees, with zero collisions.
            let (hashed, clean) =
                join_from(&d, QNode::text(), columns, first, |k, q, n| k.hash(q, n));
            assert_eq!(hashed, [0, 0], "probe side {first}");
            assert_eq!(clean.collision_rejects, 0);
            assert_eq!(clean.hash_matches, 1);
        }
    }

    #[test]
    fn collision_verification_also_covers_nodes() {
        let d = Document::parse_str("<r><a>t</a><a>t</a><b>t</b></r>").unwrap();
        let kids: Vec<NodeId> = d.child_elements(d.root_element().unwrap()).collect();
        let columns: [&[NodeId]; 2] = [&kids[..1], &kids[1..]];
        // Under a constant hasher <a>t</a> collides with <b>t</b>; only the
        // deep-equal pair survives.
        for first in [0, 1] {
            let boxes = QNode::element(NameTest::Wildcard);
            let (collided, stats) = join_from(&d, boxes, columns, first, |_, _, _| 0);
            assert_eq!(stats.collision_rejects, 1, "probe side {first}");
            assert_eq!(collided, [0, 0], "probe side {first}");
        }
    }

    /// [`match_rule_in`] under a combine order, nothing traced or bounded.
    fn planned(rule: &Rule, d: &Document, idx: &DocIndex, order: &[usize]) -> Bindings {
        let plan = JoinPlan::new(rule, Some(order));
        match_rule_in(rule, d, idx, &plan, RunCtx::none())
    }

    #[test]
    fn planned_combine_reproduces_declaration_order() {
        // Matching titles across books and articles, plus an unjoined
        // author root: exercises both the hash-join and the product stage
        // of the combine.
        let d = Document::parse_str(
            "<bib><book><title>A</title></book><book><title>B</title></book>\
             <article><title>A</title></article><article><title>B</title></article>\
             <author>x</author><author>y</author></bib>",
        )
        .unwrap();
        let idx = DocIndex::build(&d);
        let p = crate::dsl::parse(
            r#"rule {
                 extract {
                   book { title { text as $t1 } }
                   article { title { text as $t2 } }
                   author as $a
                   join $t1 == $t2
                 }
                 construct { out { all $a } }
               }"#,
        )
        .unwrap();
        let rule = &p.rules[0];
        let base = match_rule_in(rule, &d, &idx, &JoinPlan::new(rule, None), RunCtx::none());
        // Declaration order is the nested-loop order, first root outermost:
        // 2 joined title pairs × 2 authors.
        let seq: Vec<String> = texts(&d, rule, &base, "t1")
            .into_iter()
            .zip(texts(&d, rule, &base, "a"))
            .map(|(t1, a)| t1 + &a)
            .collect();
        assert_eq!(seq, ["Ax", "Ay", "Bx", "By"]);
        for order in [
            vec![1, 0, 2],
            vec![2, 1, 0],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![0, 2, 1],
            vec![0, 1, 2],
        ] {
            assert_eq!(
                planned(rule, &d, &idx, &order),
                base,
                "indexed, order {order:?}"
            );
        }
        // Invalid plans (wrong length, repeated index) fall back cleanly.
        for bad in [
            vec![0usize, 0, 1],
            vec![1, 0],
            vec![0, 1, 2, 3],
            vec![0, 1, 3],
        ] {
            assert_eq!(planned(rule, &d, &idx, &bad), base, "fallback for {bad:?}");
        }
    }

    #[test]
    fn planned_combine_respects_multi_span_joins() {
        // A join that spans roots 0 and 2 stays residual in declaration
        // order until root 2 arrives; a plan starting at 2 enforces it in
        // the first combine. Both must agree.
        let d = Document::parse_str("<r><a>k1</a><a>k2</a><b>z</b><c>k1</c><c>k3</c></r>").unwrap();
        let idx = DocIndex::build(&d);
        let p = crate::dsl::parse(
            r#"rule {
                 extract {
                   a { text as $x }
                   b as $m
                   c { text as $y }
                   join $x == $y
                 }
                 construct { out { all $m } }
               }"#,
        )
        .unwrap();
        let rule = &p.rules[0];
        let base = match_rule_in(rule, &d, &idx, &JoinPlan::new(rule, None), RunCtx::none());
        assert_eq!(base.len(), 1, "only k1 joins, times one <b>");
        for order in [vec![2, 0, 1], vec![2, 1, 0], vec![1, 2, 0]] {
            assert_eq!(planned(rule, &d, &idx, &order), base, "order {order:?}");
        }
    }
}
