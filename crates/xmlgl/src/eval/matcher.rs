//! Embedding enumeration: matching the extract graph against a document.
//!
//! One walk over a [`DocIndex`]: root and deep-edge candidates come from the
//! postings lists (sliced to subtree intervals for asterisk edges), and
//! joins compare content through `bindings::Keys`.
//!
//! Rows are built in one arena used as a stack (see `match_node`): no
//! per-candidate `Vec`, and no `String` — a value is the cell of the element
//! it is read from ([`super::bindings`]).

use std::borrow::Cow;
use std::cell::Cell;

use gql_guard::{Guard, RunCtx};
use gql_ssdm::document::NodeKind;
use gql_ssdm::{DocIndex, Document, NodeId, Symbol};
use gql_trace::joined;

use crate::ast::{ExtractGraph, NameTest, QEdge, QNodeId, QNodeKind, Rule};

use super::bindings::{push_unit, retain_rows, Bindings, Keys, UNBOUND};
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

/// A rule's element/attribute name tests resolved against the document's
/// interner, once per rule. A name absent from the interner can never match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NameRes {
    Any,
    Sym(Symbol),
    Absent,
}

impl NameRes {
    /// Is `n` an element carrying the name?
    fn admits(self, doc: &Document, n: NodeId) -> bool {
        doc.kind(n) == NodeKind::Element
            && match self {
                NameRes::Any => true,
                NameRes::Sym(sym) => doc.name_sym(n) == Some(sym),
                NameRes::Absent => false,
            }
    }
}

fn resolve_names(g: &ExtractGraph, doc: &Document) -> Vec<NameRes> {
    g.nodes
        .iter()
        .map(|n| match &n.kind {
            QNodeKind::Element(NameTest::Name(name)) | QNodeKind::Attribute(name) => {
                doc.lookup_sym(name).map_or(NameRes::Absent, NameRes::Sym)
            }
            QNodeKind::Element(NameTest::Wildcard) | QNodeKind::Text => NameRes::Any,
        })
        .collect()
}

/// Everything the recursive matching needs, borrowed once.
struct Ctx<'a> {
    g: &'a ExtractGraph,
    doc: &'a Document,
    /// Cells per row of every table and of the arena.
    width: usize,
    idx: &'a DocIndex,
    names: Vec<NameRes>,
    /// Each query node's predicate constants, parsed once per rule.
    constants: Vec<Vec<Option<f64>>>,
    /// Per-query-node candidate counters, allocated only when tracing. Each
    /// `match_edge` call adds once in bulk, so the untraced cost is one
    /// `Option` branch per edge, never per candidate.
    cand: Option<Vec<Cell<u64>>>,
    /// Where the run reports and what bounds it. Matching is infallible
    /// (a table out), so a tripped guard makes the candidate loops bail
    /// early with *truncated* results; the `Result`-returning caller
    /// must `guard.checkpoint()` afterwards to convert the trip into an error
    /// and discard them.
    run: RunCtx<'a>,
}

impl Ctx<'_> {
    #[inline]
    fn add_candidates(&self, q: QNodeId, n: u64) {
        if let Some(cand) = &self.cand {
            let c = &cand[q.index()];
            c.set(c.get() + n);
        }
    }

    /// Does `q`'s predicate hold of the string value `data()` reads?
    fn holds<'d>(&self, q: QNodeId, data: impl FnOnce() -> Cow<'d, str>) -> bool {
        let predicate = &self.g.node(q).predicate;
        predicate.is_trivial() || predicate.eval_with(&self.constants[q.index()], &data())
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
/// [`match_rule_with`].
pub fn match_rule(rule: &Rule, doc: &Document) -> Bindings {
    let idx = DocIndex::build(doc);
    match_rule_with(rule, doc, &idx, MatchMode::Auto)
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
/// * `idx`: `doc`'s index, where candidates are read from.
/// * `plan`: the rule's [`JoinPlan`] — in declaration order
///   (`JoinPlan::new(rule, None)`) or in an order a planner chose
///   (`gql-plan`'s `plan_rule_order` from summary cardinality bounds), so a
///   selective root can shrink the intermediate result before a bulky one
///   multiplies it. The *result is identical* whatever the order — rows
///   carry their per-root provenance and are sorted back into declaration
///   order before bindings are materialised — only the intermediate sizes
///   change.
/// * `ctx.trace` receives per-root candidate-set sizes,
///   per-combine join statistics (probes, matches, hash-collision rejects),
///   residual-filter counts and per-query-node candidate totals; the
///   counters are never allocated for a disabled trace.
/// * `ctx.guard` is probed per root candidate, per alternative expansion in
///   `match_node` and per join/product batch. A tripped guard truncates the
///   returned binding set; the caller must call `guard.checkpoint()`
///   afterwards and discard the output on error.
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
    let trace = ctx.trace;
    let cx = Ctx {
        g: &rule.extract,
        doc,
        width: rule.extract.nodes.len(),
        idx,
        names: resolve_names(&rule.extract, doc),
        constants: (rule.extract.nodes.iter())
            .map(|n| n.predicate.parsed_constants())
            .collect(),
        cand: trace
            .is_enabled()
            .then(|| vec![Cell::new(0); rule.extract.nodes.len()]),
        run: ctx,
    };
    let out = run_match(&cx, plan);
    if let Some(cand) = &cx.cand {
        for (i, c) in cand.iter().enumerate() {
            let n = c.get();
            if n > 0 {
                let (sigil, name) = qnode_label(cx.g, QNodeId(i as u32));
                trace.count(format_args!("candidates[q{i}:{sigil}{name}]"), n);
            }
        }
        trace.count("bindings", out.len() as u64);
    }
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

    // Per-root binding sets.
    let mut per_root: Vec<Bindings> = g
        .roots
        .iter()
        .enumerate()
        .map(|(ri, &root)| {
            let (sigil, name) = qnode_label(g, root);
            let _s = trace.span(format_args!("root[{ri}:{sigil}{name}]"));
            let out = match_root(cx, root);
            trace.count("bindings", out.len() as u64);
            out
        })
        .collect();

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

/// All embeddings of the pattern tree rooted at `root` anywhere in the
/// document, in candidate (document) order.
fn match_root(cx: &Ctx, root: QNodeId) -> Bindings {
    let RunCtx { trace, guard } = cx.run;
    // check.rs guarantees element roots; an absent name cannot match.
    let boxed = matches!(cx.g.node(root).kind, QNodeKind::Element(_));
    let candidates: &[NodeId] = match cx.names[root.index()] {
        _ if !boxed => &[],
        NameRes::Sym(sym) => cx.idx.elements_named_sym(sym),
        NameRes::Any => cx.idx.elements(),
        NameRes::Absent => &[],
    };

    cx.add_candidates(root, candidates.len() as u64);
    trace.count("root_candidates", candidates.len() as u64);

    // The table under construction is the arena: a candidate's rows are
    // built on top of the rows that are done.
    let mut out = Bindings::new(cx.width);
    for &c in candidates {
        // Budget probe: one per root candidate (covers deadline and
        // cancellation), plus the bindings it produced.
        if !guard.ok() {
            break;
        }
        let done = out.cells.len();
        let rows = match_node(cx, &mut out.cells, root, c);
        if !guard.charge_matches(rows as u64) {
            // Refused rows are no part of even a truncated result.
            out.cells.truncate(done);
            break;
        }
    }
    out
}

/// All embeddings of the subtree at `q` assuming it is matched at `data`:
/// appended to `arena` as rows, and counted.
///
/// The arena is a stack. On entry everything in it belongs to callers; this
/// call pushes its partial rows on top (first the one row binding `q`), has
/// each edge push its alternatives above those, folds partials ×
/// alternatives back down onto the partials' place and truncates. So on
/// return the arena holds exactly what it held plus this call's rows, in
/// the order the nested loops of a `Vec`-returning recursion would emit
/// them, and a failed match leaves it as it found it.
fn match_node(cx: &Ctx, arena: &mut Vec<u32>, q: QNodeId, data: NodeId) -> usize {
    let (g, doc, width) = (cx.g, cx.doc, cx.width);
    let node = g.node(q);
    // Kind/name/predicate check. Text/attribute circles are matched by
    // `match_edge` against the parent; reaching here with one would be a
    // checker bug.
    let matches = matches!(node.kind, QNodeKind::Element(_))
        && cx.names[q.index()].admits(doc, data)
        && cx.holds(q, || doc.string_value(data));
    if !matches {
        return 0;
    }

    let base = arena.len();
    push_unit(arena, width, q, data);
    let mut partials = 1;

    for edge in &node.children {
        let above = arena.len();
        let alternatives = match_edge(cx, arena, edge, data);
        if edge.negated {
            arena.truncate(above);
            if alternatives != 0 {
                arena.truncate(base);
                return 0;
            }
            continue;
        }
        // Budget probe: charge the expansion *before* making it, so an
        // exploding partials × alternatives product trips instead of
        // allocating.
        if alternatives == 0
            || !cx
                .run
                .guard
                .charge_matches((partials * alternatives) as u64)
        {
            arena.truncate(base);
            return 0;
        }
        fold_product(arena, base, partials, alternatives, width);
        partials *= alternatives;
    }

    if g.ordered[q.index()] {
        // Direct element children must be bound in sibling order. They are
        // children of one parent, so document order is sibling order.
        let in_order = |e: &&QEdge| {
            !e.negated && !e.deep && matches!(g.node(e.target).kind, QNodeKind::Element(_))
        };
        retain_rows(arena, base, width, |row| {
            let mut last = 0;
            node.children
                .iter()
                .filter(in_order)
                .filter_map(|e| row.get(e.target))
                .all(|n| {
                    let at = cx.idx.pre(n).unwrap_or(u32::MAX);
                    at >= std::mem::replace(&mut last, at)
                })
        });
        partials = (arena.len() - base) / width;
    }

    partials
}

/// The top of the arena holds `partials` rows from `base` and `alternatives`
/// rows above them, binding disjoint query nodes. Replace both by their
/// product from `base`, partial-major.
fn fold_product(
    arena: &mut Vec<u32>,
    base: usize,
    partials: usize,
    alternatives: usize,
    width: usize,
) {
    fn overlay(row: &mut [u32], with: &[u32]) {
        for (cell, &bound) in row.iter_mut().zip(with) {
            if bound != UNBOUND {
                *cell = bound;
            }
        }
    }
    let above = base + partials * width;
    if alternatives == 1 {
        // Most edges: the partials stay where they are and take the one
        // alternative's cells.
        let (rows, alternative) = arena[base..].split_at_mut(partials * width);
        for row in rows.chunks_exact_mut(width) {
            overlay(row, alternative);
        }
        arena.truncate(above);
    } else {
        // Build the product above the alternatives, then move it down.
        let top = arena.len();
        arena.reserve(partials * alternatives * width);
        for p in (base..above).step_by(width) {
            for a in (above..top).step_by(width) {
                arena.extend_from_within(p..p + width);
                let (below, row) = arena.split_at_mut(top);
                let at = row.len() - width;
                overlay(&mut row[at..], &below[a..a + width]);
            }
        }
        arena.copy_within(top.., base);
        arena.truncate(base + partials * alternatives * width);
    }
}

/// Alternatives for one containment edge below a matched element, appended
/// to `arena` and counted. A box is matched at each candidate; a circle
/// binds the element its value is read from — the one carrying the
/// attribute, or the one with a text child of its own (whose value is then
/// its whole text content).
fn match_edge(cx: &Ctx, arena: &mut Vec<u32>, edge: &QEdge, parent: NodeId) -> usize {
    let (doc, width) = (cx.doc, cx.width);
    let target = cx.g.node(edge.target);
    let name = cx.names[edge.target.index()];
    let boxed = matches!(target.kind, QNodeKind::Element(_));
    let below = arena.len();
    let mut considered = 0u64;
    let mut consider = |el: NodeId| {
        considered += 1;
        let bound = match (&target.kind, name) {
            // A box appends its rows, however many, itself.
            (QNodeKind::Element(_), _) => {
                match_node(cx, arena, edge.target, el);
                false
            }
            (QNodeKind::Text, _) => {
                let texts = |&c: &NodeId| doc.kind(c) == NodeKind::Text;
                doc.children(el).iter().any(texts) && cx.holds(edge.target, || doc.string_value(el))
            }
            (QNodeKind::Attribute(_), NameRes::Sym(sym)) => doc
                .attr_sym(el, sym)
                .is_some_and(|v| cx.holds(edge.target, || v.into())),
            (QNodeKind::Attribute(_), _) => false,
        };
        if bound {
            push_unit(arena, width, edge.target, el);
        }
    };
    // A box lies below its parent; a circle may be read off the parent.
    let idx = cx.idx;
    match edge.deep {
        false if boxed => doc.child_elements(parent).for_each(consider),
        false => consider(parent),
        // Postings restricted to the subtree interval: for a circle, only
        // elements that carry the attribute (or text).
        true => match (&target.kind, name) {
            (QNodeKind::Element(_), NameRes::Sym(sym)) => idx.named_in(sym, parent, false),
            (QNodeKind::Element(_), NameRes::Any) => idx.elements_in(parent, false),
            (QNodeKind::Text, _) => idx.with_text_in(parent, true),
            (QNodeKind::Attribute(_), NameRes::Sym(sym)) => idx.with_attr_in(sym, parent, true),
            _ => &[],
        }
        .iter()
        .for_each(|&d| consider(d)),
    }
    cx.add_candidates(edge.target, considered);
    (arena.len() - below) / width
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
        let base = match_rule_with(rule, &d, &idx, MatchMode::Auto);
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
        let base = match_rule_with(rule, &d, &idx, MatchMode::Auto);
        assert_eq!(base.len(), 1, "only k1 joins, times one <b>");
        for order in [vec![2, 0, 1], vec![2, 1, 0], vec![1, 2, 0]] {
            assert_eq!(planned(rule, &d, &idx, &order), base, "order {order:?}");
        }
    }
}
