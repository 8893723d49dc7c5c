//! Embedding enumeration: matching the extract graph against a document.
//!
//! Two code paths produce identical results:
//!
//! * the **indexed** path ([`match_rule`] / [`match_rule_with`]) resolves
//!   `NameTest`s to interned [`Symbol`]s once per rule, draws root and
//!   deep-edge candidates from a [`DocIndex`]'s postings lists (sliced to
//!   subtree intervals for asterisk edges), joins root binding sets on
//!   memoized 64-bit structural hashes (verifying hash-equal rows against
//!   canonical forms, so a collision can never produce a false join);
//! * the **scan** path ([`match_rule_scan`]) is the straightforward
//!   walk-the-whole-document implementation with string join keys, kept as
//!   the differential-testing oracle and benchmark baseline.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};

use gql_guard::{Guard, RunCtx};
use gql_ssdm::document::NodeKind;
use gql_ssdm::index::canonical;
use gql_ssdm::{DocIndex, Document, NodeId, Symbol};
use gql_trace::joined;

use crate::ast::{ExtractGraph, NameTest, QEdge, QNodeId, QNodeKind, Rule};

use super::{content_hash, content_key};

/// What a query node is bound to: a document node (elements) or a string
/// (text content, attribute values). Strings carry the element they were
/// read from, so two occurrences of the same value stay distinct matches —
/// aggregates count and sum per occurrence, not per distinct string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    Node(NodeId),
    Value {
        text: String,
        /// The element the text content / attribute was read from.
        origin: NodeId,
    },
}

impl Bound {
    pub fn value(text: impl Into<String>, origin: NodeId) -> Bound {
        Bound::Value {
            text: text.into(),
            origin,
        }
    }
}

/// One embedding: a partial map from query nodes to bound values. Nodes
/// under negated edges stay unbound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Binding {
    slots: Vec<Option<Bound>>,
}

impl Binding {
    fn with_capacity(n: usize) -> Self {
        Binding {
            slots: vec![None; n],
        }
    }

    pub fn get(&self, q: QNodeId) -> Option<&Bound> {
        self.slots.get(q.index()).and_then(Option::as_ref)
    }

    fn set(&mut self, q: QNodeId, b: Bound) {
        if self.slots.len() <= q.index() {
            self.slots.resize(q.index() + 1, None);
        }
        self.slots[q.index()] = Some(b);
    }

    /// Merge two disjoint bindings (panics on conflicting slots in debug).
    fn merge(&self, other: &Binding) -> Binding {
        let mut out = self.clone();
        out.absorb(other);
        out
    }

    /// [`Binding::merge`] in place.
    fn absorb(&mut self, other: &Binding) {
        for (i, slot) in other.slots.iter().enumerate() {
            if let Some(b) = slot {
                debug_assert!(
                    self.slots.get(i).is_none_or(Option::is_none),
                    "bindings overlap at q{i}"
                );
                self.set(QNodeId(i as u32), b.clone());
            }
        }
    }
}

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

fn resolve_names(g: &ExtractGraph, doc: &Document) -> Vec<NameRes> {
    g.nodes
        .iter()
        .map(|n| match &n.kind {
            QNodeKind::Element(NameTest::Name(name)) => {
                doc.lookup_sym(name).map_or(NameRes::Absent, NameRes::Sym)
            }
            QNodeKind::Attribute(name) => {
                doc.lookup_sym(name).map_or(NameRes::Absent, NameRes::Sym)
            }
            QNodeKind::Element(NameTest::Wildcard) | QNodeKind::Text => NameRes::Any,
        })
        .collect()
}

/// Everything the recursive matching needs, borrowed once. With `idx: None`
/// the scan fallbacks are used and `names` is ignored.
struct Ctx<'a> {
    g: &'a ExtractGraph,
    doc: &'a Document,
    nslots: usize,
    idx: Option<&'a DocIndex>,
    names: Vec<NameRes>,
    /// Per-query-node candidate counters, allocated only when tracing. Each
    /// `match_edge` call adds once in bulk, so the untraced cost is one
    /// `Option` branch per edge, never per candidate.
    cand: Option<Vec<Cell<u64>>>,
    /// Where the run reports and what bounds it. Matching is infallible
    /// (`Vec<Binding>` out), so a tripped guard makes the candidate loops
    /// bail early with *truncated* results; the `Result`-returning caller
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
pub fn match_rule(rule: &Rule, doc: &Document) -> Vec<Binding> {
    let idx = DocIndex::build(doc);
    match_rule_with(rule, doc, &idx, MatchMode::Auto)
}

/// Enumerate all embeddings using a prebuilt index. `_mode` selects nothing
/// (see [`MatchMode`]).
pub fn match_rule_with(
    rule: &Rule,
    doc: &Document,
    idx: &DocIndex,
    _mode: MatchMode,
) -> Vec<Binding> {
    match_rule_in(rule, doc, Some(idx), None, RunCtx::none())
}

/// Reference implementation: whole-document scans for candidates and string
/// content keys for joins. Kept as the oracle for the indexed path (property
/// tests assert `match_rule_scan ≡ match_rule`) and as the benchmark
/// baseline.
pub fn match_rule_scan(rule: &Rule, doc: &Document) -> Vec<Binding> {
    match_rule_in(rule, doc, None, None, RunCtx::none())
}

/// The full form every other `match_rule*` is one line over.
///
/// Roots are matched one by one and their binding sets then combined:
/// a hash join on the 64-bit structural content hash whenever a join
/// constraint connects the next root to the roots already combined, a
/// cartesian product otherwise.
///
/// * `idx`: `None` selects the scan path — the degradation target when an
///   index build fails.
/// * `order`: a root *combine order* chosen by a planner (`gql-plan`'s
///   `plan_rule_order` from summary cardinality bounds), a permutation of
///   the root indices. Combining starts from `order[0]`, so a selective
///   root can shrink the intermediate result before a bulky one multiplies
///   it. The *result is identical* whatever the order — rows carry their
///   per-root provenance and are sorted back into declaration order before
///   bindings are materialised — only the intermediate sizes change. `None`,
///   or an `order` that is not a permutation, combines in declaration
///   order.
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
    idx: Option<&DocIndex>,
    order: Option<&[usize]>,
    ctx: RunCtx<'_>,
) -> Vec<Binding> {
    let trace = ctx.trace;
    let cx = Ctx {
        g: &rule.extract,
        doc,
        nslots: rule.extract.nodes.len(),
        idx,
        names: if idx.is_some() {
            resolve_names(&rule.extract, doc)
        } else {
            Vec::new()
        },
        cand: trace
            .is_enabled()
            .then(|| vec![Cell::new(0); rule.extract.nodes.len()]),
        run: ctx,
    };
    let plan = order.filter(|o| is_permutation(o, rule.extract.roots.len()));
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

/// Is `order` a permutation of `0..nroots`?
fn is_permutation(order: &[usize], nroots: usize) -> bool {
    let mut seen = vec![false; nroots];
    order.len() == nroots
        && order
            .iter()
            .all(|&ri| ri < nroots && !std::mem::replace(&mut seen[ri], true))
}

fn norm_pair(a: QNodeId, b: QNodeId) -> (QNodeId, QNodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn run_match(cx: &Ctx, plan: Option<&[usize]>) -> Vec<Binding> {
    let (g, trace) = (cx.g, cx.run.trace);
    if g.roots.is_empty() {
        return Vec::new();
    }
    if trace.is_enabled() {
        trace.note("path", if cx.idx.is_some() { "indexed" } else { "scan" });
    }

    // Per-root binding sets.
    let mut per_root: Vec<Vec<Binding>> = g
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

    // Combine roots, remembering which joins the hash-join pass already
    // enforced (the residual filter can skip them). One root has nothing to
    // combine with: its bindings are the result as they are.
    let mut enforced: HashSet<(QNodeId, QNodeId)> = HashSet::new();
    let mut combined: Vec<Binding> = if per_root.len() == 1 {
        per_root.swap_remove(0)
    } else {
        combine(cx, &per_root, plan, &mut enforced)
    };

    // Residual joins within a single root (or spanning more than two) are
    // verified by filtering; hash-enforced pairs are already satisfied.
    let residual: Vec<(QNodeId, QNodeId)> = g
        .joins
        .iter()
        .copied()
        .filter(|&(a, b)| !enforced.contains(&norm_pair(a, b)))
        .collect();
    if !residual.is_empty() {
        let span = trace.span("residual_filter");
        let before = combined.len();
        match cx.idx {
            Some(idx) => {
                let mut cache = KeyCache::new(cx.doc);
                combined.retain(|b| {
                    residual.iter().all(|&(x, y)| match (b.get(x), b.get(y)) {
                        (Some(bx), Some(by)) => {
                            content_hash(cx.doc, idx, bx) == content_hash(cx.doc, idx, by)
                                && cache.content_eq(bx, by)
                        }
                        _ => false,
                    })
                });
            }
            None => {
                combined.retain(|b| {
                    residual.iter().all(|&(x, y)| match (b.get(x), b.get(y)) {
                        (Some(bx), Some(by)) => content_key(cx.doc, bx) == content_key(cx.doc, by),
                        _ => false,
                    })
                });
            }
        }
        if trace.is_enabled() {
            trace.count("joins", residual.len() as u64);
            trace.count("rows_in", before as u64);
            trace.count("rows_out", combined.len() as u64);
        }
        drop(span);
    }
    combined
}

/// An intermediate row of the combine: one per-root binding index per root,
/// `u32::MAX` for a root not merged in yet. Rows never clone binding slots.
type Row = Vec<u32>;

/// The per-root binding sets, and which root each query node belongs to:
/// where a [`Row`]'s join columns are read from.
struct Roots<'a> {
    per_root: &'a [Vec<Binding>],
    owner: Vec<usize>,
}

impl<'a> Roots<'a> {
    fn new(g: &ExtractGraph, per_root: &'a [Vec<Binding>]) -> Self {
        let mut owner: Vec<usize> = vec![usize::MAX; g.nodes.len()];
        for (ri, &root) in g.roots.iter().enumerate() {
            let mut stack = vec![root];
            while let Some(q) = stack.pop() {
                owner[q.index()] = ri;
                stack.extend(g.node(q).children.iter().map(|e| e.target));
            }
        }
        Roots { per_root, owner }
    }

    /// The join column `c` of row `t`, read straight off the owning root's
    /// binding.
    fn col(&self, t: &[u32], c: QNodeId) -> Option<&'a Bound> {
        let o = self.owner[c.index()];
        self.per_root[o][t[o] as usize].get(c)
    }
}

/// Combine the per-root binding sets: merge the roots in `plan` order
/// (declaration order without one), hash-joining whenever a join constraint
/// connects the next root to those already merged and taking the cartesian
/// product otherwise. Intermediate rows are provenance tuples ([`Row`]),
/// sorted into declaration-order lexicographic sequence before bindings are
/// materialised — the sequence a left-to-right declaration-order merge
/// emits (products and hash joins both emit left-to-right,
/// right-index-ascending), so construct output cannot depend on the plan.
fn combine(
    cx: &Ctx,
    per_root: &[Vec<Binding>],
    plan: Option<&[usize]>,
    enforced: &mut HashSet<(QNodeId, QNodeId)>,
) -> Vec<Binding> {
    let (g, RunCtx { trace, guard }) = (cx.g, cx.run);
    let nroots = per_root.len();
    let roots = Roots::new(g, per_root);
    let owner = &roots.owner;
    let declared: Vec<usize>;
    let order = match plan {
        Some(order) => {
            trace.note("combine_plan", joined(order, ","));
            order
        }
        None => {
            declared = (0..nroots).collect();
            &declared
        }
    };
    let first = order[0];
    let mut processed = vec![false; nroots];
    processed[first] = true;
    let mut rows: Vec<Row> = (0..per_root[first].len() as u32)
        .map(|i| {
            let mut t = vec![u32::MAX; nroots];
            t[first] = i;
            t
        })
        .collect();
    for (k, &ri) in order.iter().enumerate().skip(1) {
        let right = &per_root[ri];
        // Joins whose endpoints span the processed prefix and this root,
        // as (prefix column, this root's column).
        let cross_joins: Vec<(QNodeId, QNodeId)> = g
            .joins
            .iter()
            .filter_map(|&(a, b)| {
                let (oa, ob) = (owner[a.index()], owner[b.index()]);
                if oa == usize::MAX || ob == usize::MAX {
                    None
                } else if processed[oa] && ob == ri {
                    Some((a, b))
                } else if processed[ob] && oa == ri {
                    Some((b, a))
                } else {
                    None
                }
            })
            .collect();
        let span = match plan {
            Some(_) => trace.span(format_args!("combine[{k}:root {ri}]")),
            None => trace.span(format_args!("combine[{ri}]")),
        };
        if trace.is_enabled() {
            trace.count("left_rows", rows.len() as u64);
            trace.count("right_rows", right.len() as u64);
        }
        if !guard.ok() {
            return Vec::new();
        }
        rows = if cross_joins.is_empty() {
            trace.note("kind", "product");
            let mut out = Vec::new();
            for t in &rows {
                // Budget probe: one per output batch (this row's fan-out).
                if !guard.charge_matches(right.len() as u64) {
                    break;
                }
                out.extend((0..right.len() as u32).map(|i| extended(t, ri, i)));
            }
            out
        } else {
            trace.note("kind", "hash_join");
            enforced.extend(cross_joins.iter().map(|&(a, b)| norm_pair(a, b)));
            match cx.idx {
                Some(idx) => {
                    let mut stats = JoinStats::default();
                    let out = hash_join_hashed(
                        cx.doc,
                        &roots,
                        &rows,
                        ri,
                        &cross_joins,
                        |b| content_hash(cx.doc, idx, b),
                        &mut stats,
                        guard,
                    );
                    if trace.is_enabled() {
                        trace.count("probes", stats.probes);
                        trace.count("hash_matches", stats.hash_matches);
                        trace.count("collision_rejects", stats.collision_rejects);
                    }
                    out
                }
                None => hash_join_strings(cx.doc, &roots, &rows, ri, &cross_joins, guard),
            }
        };
        processed[ri] = true;
        trace.count("out_rows", rows.len() as u64);
        drop(span);
        if rows.is_empty() {
            break;
        }
    }

    // Restore declaration order: lexicographic in the provenance tuple.
    rows.sort_unstable();
    rows.into_iter()
        .map(|t| {
            let mut parts = t
                .iter()
                .enumerate()
                .filter(|&(_, &i)| i != u32::MAX)
                .map(|(ro, &i)| &per_root[ro][i as usize]);
            let mut b = parts.next().cloned().unwrap_or_default();
            parts.for_each(|rb| b.absorb(rb));
            b
        })
        .collect()
}

/// Row `t` with root `ri` merged in at its binding `i`.
fn extended(t: &[u32], ri: usize, i: u32) -> Row {
    let mut nt = t.to_vec();
    nt[ri] = i;
    nt
}

/// Join `rows` with root `ri`'s bindings on string content keys — the scan
/// path's join, and the reference [`hash_join_hashed`] is tested against.
/// `joins` pairs a column of the rows with a column of root `ri`.
fn hash_join_strings(
    doc: &Document,
    roots: &Roots,
    rows: &[Row],
    ri: usize,
    joins: &[(QNodeId, QNodeId)],
    guard: &Guard,
) -> Vec<Row> {
    // Key = tuple of content keys over the join columns.
    fn key_of<'b>(doc: &Document, cols: impl Iterator<Item = Option<&'b Bound>>) -> Option<String> {
        let parts: Option<Vec<String>> = cols.map(|b| b.map(|b| content_key(doc, b))).collect();
        parts.map(|p| p.join("\u{1}"))
    }
    let right = &roots.per_root[ri];
    let mut table: HashMap<String, Vec<u32>> = HashMap::new();
    for (i, r) in right.iter().enumerate() {
        if let Some(k) = key_of(doc, joins.iter().map(|&(_, rc)| r.get(rc))) {
            table.entry(k).or_default().push(i as u32);
        }
    }
    let mut out = Vec::new();
    for t in rows {
        let Some(k) = key_of(doc, joins.iter().map(|&(lc, _)| roots.col(t, lc))) else {
            continue;
        };
        let Some(matches) = table.get(&k) else {
            continue;
        };
        // Budget probe: one per probe batch.
        if !guard.charge_matches(matches.len() as u64) {
            break;
        }
        out.extend(matches.iter().map(|&i| extended(t, ri, i)));
    }
    out
}

/// What one hash join did, reported into the trace when profiling: probe
/// rows offered, hash-equal candidate pairs, and pairs rejected by canonical
/// verification (true hash collisions — expected ≈ 0 with the production
/// hasher, non-zero only under adversarial or test hashers).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JoinStats {
    pub probes: u64,
    pub hash_matches: u64,
    pub collision_rejects: u64,
}

/// Join `rows` with root `ri`'s bindings on `u64` content hashes. Hash-equal
/// candidate rows are verified with [`KeyCache::content_eq`] (memoized
/// canonical forms), so a hash collision can never produce a false join —
/// correctness does not depend on the hash. The hasher is injectable so
/// tests can force collisions.
#[allow(clippy::too_many_arguments)]
fn hash_join_hashed<F: Fn(&Bound) -> u64>(
    doc: &Document,
    roots: &Roots,
    rows: &[Row],
    ri: usize,
    joins: &[(QNodeId, QNodeId)],
    hash: F,
    stats: &mut JoinStats,
    guard: &Guard,
) -> Vec<Row> {
    let right = &roots.per_root[ri];
    let mut table: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
    for (i, r) in right.iter().enumerate() {
        let key: Option<Vec<u64>> = joins.iter().map(|&(_, rc)| r.get(rc).map(&hash)).collect();
        if let Some(k) = key {
            table.entry(k).or_default().push(i as u32);
        }
    }
    let mut cache = KeyCache::new(doc);
    let mut out = Vec::new();
    for t in rows {
        let key: Option<Vec<u64>> = joins
            .iter()
            .map(|&(lc, _)| roots.col(t, lc).map(&hash))
            .collect();
        let Some(k) = key else {
            continue;
        };
        stats.probes += 1;
        let Some(matches) = table.get(&k) else {
            continue;
        };
        // Budget probe: one per hash-probe batch (this key's bucket).
        if !guard.charge_matches(matches.len() as u64) {
            break;
        }
        for &i in matches {
            stats.hash_matches += 1;
            let r = &right[i as usize];
            let verified = joins
                .iter()
                .all(|&(lc, rc)| match (roots.col(t, lc), r.get(rc)) {
                    (Some(a), Some(b)) => cache.content_eq(a, b),
                    _ => false,
                });
            if verified {
                out.push(extended(t, ri, i));
            } else {
                stats.collision_rejects += 1;
            }
        }
    }
    out
}

/// Memoizes canonical forms of nodes compared during one join/filter pass,
/// so collision verification renders each distinct node at most once.
pub(crate) struct KeyCache<'d> {
    doc: &'d Document,
    nodes: HashMap<NodeId, Box<str>>,
}

impl<'d> KeyCache<'d> {
    pub(crate) fn new(doc: &'d Document) -> Self {
        KeyCache {
            doc,
            nodes: HashMap::new(),
        }
    }

    /// Content equality of two bounds — the `content_key` equality relation
    /// without rebuilding strings for nodes already rendered.
    pub(crate) fn content_eq(&mut self, a: &Bound, b: &Bound) -> bool {
        match (a, b) {
            (Bound::Value { text: ta, .. }, Bound::Value { text: tb, .. }) => ta == tb,
            (Bound::Node(na), Bound::Node(nb)) => {
                if na == nb {
                    return true;
                }
                self.ensure(*na);
                self.ensure(*nb);
                self.nodes[na] == self.nodes[nb]
            }
            // A value key ("v:…") never equals a node's canonical form.
            _ => false,
        }
    }

    fn ensure(&mut self, n: NodeId) {
        let doc = self.doc;
        self.nodes
            .entry(n)
            .or_insert_with(|| canonical(doc, n).into_boxed_str());
    }
}

/// All embeddings of the pattern tree rooted at `root` anywhere in the
/// document, in candidate (document) order.
fn match_root(cx: &Ctx, root: QNodeId) -> Vec<Binding> {
    let RunCtx { trace, guard } = cx.run;
    let scanned: Vec<NodeId>;
    let candidates: &[NodeId] = match cx.idx {
        Some(idx) => match (&cx.g.node(root).kind, cx.names[root.index()]) {
            (QNodeKind::Element(_), NameRes::Sym(sym)) => idx.elements_named_sym(sym),
            (QNodeKind::Element(_), NameRes::Any) => idx.elements(),
            // Absent names cannot match; check.rs guarantees element roots.
            _ => &[],
        },
        None => {
            scanned = match &cx.g.node(root).kind {
                QNodeKind::Element(NameTest::Name(name)) => cx.doc.elements_named(name).collect(),
                QNodeKind::Element(NameTest::Wildcard) => cx
                    .doc
                    .descendants(cx.doc.root())
                    .filter(|&d| cx.doc.kind(d) == NodeKind::Element)
                    .collect(),
                _ => Vec::new(),
            };
            &scanned
        }
    };

    cx.add_candidates(root, candidates.len() as u64);
    trace.count("root_candidates", candidates.len() as u64);

    let mut out = Vec::new();
    for &c in candidates {
        // Budget probe: one per root candidate (covers deadline and
        // cancellation), plus the bindings it produced.
        if !guard.ok() {
            break;
        }
        let bs = match_node(cx, root, c);
        if !guard.charge_matches(bs.len() as u64) {
            break;
        }
        out.extend(bs);
    }
    out
}

/// All embeddings of the subtree at `q` assuming it is matched at `data`.
fn match_node(cx: &Ctx, q: QNodeId, data: NodeId) -> Vec<Binding> {
    let (g, doc) = (cx.g, cx.doc);
    let node = g.node(q);
    // Kind/name/predicate check.
    match &node.kind {
        QNodeKind::Element(test) => {
            if doc.kind(data) != NodeKind::Element {
                return Vec::new();
            }
            let name_ok = if cx.idx.is_some() {
                match cx.names[q.index()] {
                    NameRes::Any => true,
                    NameRes::Sym(sym) => doc.name_sym(data) == Some(sym),
                    NameRes::Absent => false,
                }
            } else {
                doc.name(data).is_none_or(|name| test.matches(name))
            };
            if !name_ok {
                return Vec::new();
            }
            if !node.predicate.is_trivial() && !node.predicate.eval(&doc.text_content(data)) {
                return Vec::new();
            }
        }
        // Text/attribute circles are matched by `match_edge` against the
        // parent; reaching here would be a checker bug.
        _ => return Vec::new(),
    }

    let mut partials = vec![{
        let mut b = Binding::with_capacity(cx.nslots);
        b.set(q, Bound::Node(data));
        b
    }];

    let ordered = g.ordered[q.index()];
    for edge in &node.children {
        let alternatives = match_edge(cx, edge, data);
        if edge.negated {
            if !alternatives.is_empty() {
                return Vec::new();
            }
            continue;
        }
        if alternatives.is_empty() {
            return Vec::new();
        }
        // Budget probe: charge the expansion *before* allocating it, so an
        // exploding partials × alternatives product trips instead of
        // allocating.
        if !cx
            .run
            .guard
            .charge_matches((partials.len() * alternatives.len()) as u64)
        {
            return Vec::new();
        }
        let mut next = Vec::with_capacity(partials.len() * alternatives.len());
        for p in &partials {
            for a in &alternatives {
                next.push(p.merge(a));
            }
        }
        partials = next;
    }

    if ordered {
        // Direct element children must be bound in sibling order.
        let element_edges: Vec<&QEdge> = node
            .children
            .iter()
            .filter(|e| {
                !e.negated && !e.deep && matches!(g.node(e.target).kind, QNodeKind::Element(_))
            })
            .collect();
        partials.retain(|b| {
            let mut last = -1i64;
            for e in &element_edges {
                if let Some(Bound::Node(n)) = b.get(e.target) {
                    let idx = doc.sibling_index(*n) as i64;
                    if idx < last {
                        return false;
                    }
                    last = idx;
                }
            }
            true
        });
    }

    partials
}

/// Alternatives for one containment edge below a matched element.
fn match_edge(cx: &Ctx, edge: &QEdge, parent: NodeId) -> Vec<Binding> {
    let (g, doc) = (cx.g, cx.doc);
    let target = g.node(edge.target);
    match &target.kind {
        QNodeKind::Attribute(name) => {
            let mut out = Vec::new();
            let mut considered = 0u64;
            let mut consider = |el: NodeId| {
                considered += 1;
                if let Some(v) = doc.attr(el, name) {
                    if target.predicate.eval(v) {
                        let mut b = Binding::with_capacity(cx.nslots);
                        b.set(edge.target, Bound::value(v, el));
                        out.push(b);
                    }
                }
            };
            if edge.deep {
                match cx.idx {
                    Some(idx) => {
                        // Only elements that carry the attribute, restricted
                        // to the subtree interval.
                        if let NameRes::Sym(sym) = cx.names[edge.target.index()] {
                            for &d in idx.with_attr_in(sym, parent, true) {
                                consider(d);
                            }
                        }
                    }
                    None => {
                        for d in doc.descendants_or_self(parent) {
                            if doc.kind(d) == NodeKind::Element {
                                consider(d);
                            }
                        }
                    }
                }
            } else {
                consider(parent);
            }
            cx.add_candidates(edge.target, considered);
            out
        }
        QNodeKind::Text => {
            let mut out = Vec::new();
            let mut considered = 0u64;
            let mut consider = |el: NodeId| {
                considered += 1;
                let has_text = doc
                    .children(el)
                    .iter()
                    .any(|&c| doc.kind(c) == NodeKind::Text);
                if has_text {
                    let v = doc.text_content(el);
                    if target.predicate.eval(&v) {
                        let mut b = Binding::with_capacity(cx.nslots);
                        b.set(edge.target, Bound::value(v, el));
                        out.push(b);
                    }
                }
            };
            if edge.deep {
                match cx.idx {
                    Some(idx) => {
                        for &d in idx.with_text_in(parent, true) {
                            consider(d);
                        }
                    }
                    None => {
                        for d in doc.descendants_or_self(parent) {
                            if doc.kind(d) == NodeKind::Element {
                                consider(d);
                            }
                        }
                    }
                }
            } else {
                consider(parent);
            }
            cx.add_candidates(edge.target, considered);
            out
        }
        QNodeKind::Element(_) => {
            let mut out = Vec::new();
            let mut considered = 0u64;
            if edge.deep {
                match cx.idx {
                    Some(idx) => match cx.names[edge.target.index()] {
                        NameRes::Sym(sym) => {
                            let cands = idx.named_in(sym, parent, false);
                            considered = cands.len() as u64;
                            for &d in cands {
                                out.extend(match_node(cx, edge.target, d));
                            }
                        }
                        NameRes::Any => {
                            let cands = idx.elements_in(parent, false);
                            considered = cands.len() as u64;
                            for &d in cands {
                                out.extend(match_node(cx, edge.target, d));
                            }
                        }
                        NameRes::Absent => {}
                    },
                    None => {
                        for d in doc.descendants(parent) {
                            if doc.kind(d) == NodeKind::Element {
                                considered += 1;
                                out.extend(match_node(cx, edge.target, d));
                            }
                        }
                    }
                }
            } else {
                for c in doc.child_elements(parent) {
                    considered += 1;
                    out.extend(match_node(cx, edge.target, c));
                }
            }
            cx.add_candidates(edge.target, considered);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
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
        let q = r.extract.by_var("t").unwrap();
        let texts: Vec<String> = ms
            .iter()
            .map(|m| super::super::bound_text(&d, m.get(q).unwrap()))
            .collect();
        assert!(texts.contains(&"TCP/IP".to_string()));
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
        let p = r.extract.by_var("p").unwrap();
        match ms[0].get(p).unwrap() {
            Bound::Node(n) => {
                assert!(d.text_content(*n).contains("apple"));
            }
            other => panic!("unexpected {other:?}"),
        }
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

    /// Every rule shape exercised above, for the equivalence test below.
    fn rule_zoo() -> Vec<Rule> {
        vec![
            rule(Q::elem("book")),
            rule(Q::any()),
            rule(Q::elem("book").child(Q::attr("year").pred(CmpOp::Ge, "2000"))),
            rule(Q::elem("bib").deep_child(Q::elem("last").var("l"))),
            rule(Q::elem("bib").deep_child(Q::attr("year").var("y"))),
            rule(Q::elem("title").child(Q::text().var("t"))),
            rule(Q::elem("book").without(Q::elem("author"))),
            rule(
                Q::elem("r")
                    .ordered()
                    .child(Q::elem("a"))
                    .child(Q::elem("b")),
            ),
            RuleBuilder::new()
                .extract(Q::elem("book").var("b").child(Q::elem("title").var("t1")))
                .extract(Q::elem("article").child(Q::elem("title").var("t2")))
                .join("t1", "t2")
                .construct(C::elem("out"))
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn indexed_path_equals_scan_path() {
        let d = doc();
        let idx = DocIndex::build(&d);
        for r in rule_zoo() {
            assert_eq!(
                match_rule_with(&r, &d, &idx, MatchMode::Auto),
                match_rule_scan(&r, &d),
            );
        }
    }

    /// Two one-column roots — q0 bound by root 0, q1 by root 1 — joined on
    /// q0 == q1 with root `first`'s rows as the probe side (`first == 0` is
    /// the declaration order, `first == 1` a permuted plan), by the hashed
    /// join under `hash` and by the string-keyed reference.
    fn join_from(
        d: &Document,
        per_root: &[Vec<Binding>],
        first: usize,
        hash: impl Fn(&Bound) -> u64,
    ) -> (Vec<Row>, JoinStats, Vec<Row>) {
        let roots = Roots {
            per_root,
            owner: vec![0, 1],
        };
        let rows: Vec<Row> = (0..per_root[first].len() as u32)
            .map(|i| extended(&[u32::MAX; 2], first, i))
            .collect();
        let ri = 1 - first;
        let joins = [(QNodeId(first as u32), QNodeId(ri as u32))];
        let guard = Guard::unlimited();
        let mut stats = JoinStats::default();
        let hashed = hash_join_hashed(d, &roots, &rows, ri, &joins, hash, &mut stats, &guard);
        let reference = hash_join_strings(d, &roots, &rows, ri, &joins, &guard);
        (hashed, stats, reference)
    }

    #[test]
    fn hash_collision_falls_back_to_canonical_verification() {
        let d = doc();
        let idx = DocIndex::build(&d);
        let origin = d.root_element().unwrap();
        let mk = |q: u32, text: &str| {
            let mut b = Binding::with_capacity(2);
            b.set(QNodeId(q), Bound::value(text, origin));
            b
        };
        let per_root = [vec![mk(0, "x"), mk(0, "y")], vec![mk(1, "x"), mk(1, "z")]];
        // The real hashes of the three values differ, so a constant hasher
        // genuinely forces every row into one colliding bucket.
        let real: Vec<u64> = ["x", "y", "z"]
            .iter()
            .map(|t| content_hash(&d, &idx, &Bound::value(*t, origin)))
            .collect();
        assert!(real[0] != real[1] && real[0] != real[2]);
        for first in [0, 1] {
            let (collided, stats, reference) = join_from(&d, &per_root, first, |_| 0);
            // Canonical verification must reject the colliding non-matches
            // and keep exactly what the string join produces: the x–x pair.
            assert_eq!(collided, reference, "probe side {first}");
            assert_eq!(collided, [vec![0, 0]], "probe side {first}");
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
            let (hashed, clean, _) = join_from(&d, &per_root, first, |b| content_hash(&d, &idx, b));
            assert_eq!(hashed, reference, "probe side {first}");
            assert_eq!(clean.collision_rejects, 0);
            assert_eq!(clean.hash_matches, 1);
        }
    }

    #[test]
    fn collision_verification_also_covers_nodes() {
        let d = Document::parse_str("<r><a>t</a><a>t</a><b>t</b></r>").unwrap();
        let kids: Vec<NodeId> = d.child_elements(d.root_element().unwrap()).collect();
        let mk = |q: u32, n: NodeId| {
            let mut b = Binding::with_capacity(2);
            b.set(QNodeId(q), Bound::Node(n));
            b
        };
        let per_root = [vec![mk(0, kids[0])], vec![mk(1, kids[1]), mk(1, kids[2])]];
        // Under a constant hasher <a>t</a> collides with <b>t</b>; only the
        // canonically-equal pair survives.
        for first in [0, 1] {
            let (collided, stats, reference) = join_from(&d, &per_root, first, |_| 0);
            assert_eq!(stats.collision_rejects, 1, "probe side {first}");
            assert_eq!(collided, reference, "probe side {first}");
            assert_eq!(collided, [vec![0, 0]], "probe side {first}");
        }
    }

    /// [`match_rule_in`] under a combine order, nothing traced or bounded.
    fn planned(rule: &Rule, d: &Document, idx: Option<&DocIndex>, order: &[usize]) -> Vec<Binding> {
        match_rule_in(rule, d, idx, Some(order), RunCtx::none())
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
        let (t1, a) = (
            rule.extract.by_var("t1").unwrap(),
            rule.extract.by_var("a").unwrap(),
        );
        let seq: Vec<String> = base
            .iter()
            .map(|b| {
                let text = |q| super::super::bound_text(&d, b.get(q).unwrap());
                text(t1) + &text(a)
            })
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
                planned(rule, &d, Some(&idx), &order),
                base,
                "indexed, order {order:?}"
            );
            assert_eq!(
                planned(rule, &d, None, &order),
                base,
                "scan, order {order:?}"
            );
        }
        // Invalid plans (wrong length, repeated index) fall back cleanly.
        for bad in [
            vec![0usize, 0, 1],
            vec![1, 0],
            vec![0, 1, 2, 3],
            vec![0, 1, 3],
        ] {
            assert_eq!(
                planned(rule, &d, Some(&idx), &bad),
                base,
                "fallback for {bad:?}"
            );
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
            assert_eq!(
                planned(rule, &d, Some(&idx), &order),
                base,
                "order {order:?}"
            );
        }
    }
}
