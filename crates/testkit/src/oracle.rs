//! Differential and metamorphic oracles.
//!
//! Each checker takes a document and a query source and returns
//! `Err(message)` only on a *real disagreement between two paths that must
//! agree* (or a broken metamorphic law). Inputs the engines legitimately
//! reject — syntax errors, analyzer-rejected programs — are vacuous
//! (`Ok`), which is exactly what the shrinker needs: a shrunk candidate
//! that merely breaks the parse does not count as "still failing".
//!
//! The oracle matrix (who is checked against whom) is documented in
//! DESIGN.md's testkit section.

use std::cell::Cell;

use gql_analyze::Analyzer;
use gql_core::engine::{Engine, Prepared, QueryKind, RunOutcome};
use gql_guard::{Budget, Guard, RunCtx};
use gql_ssdm::document::NodeKind;
use gql_ssdm::sink::XmlSink;
use gql_ssdm::{DocIndex, Document, Summary};
use gql_trace::Trace;
use gql_wglog::eval::FixpointMode;
use gql_wglog::Instance;
use gql_xmlgl::eval::{construct_rule, distinct_cells, match_rule, match_rule_in, JoinPlan};
use gql_xpath::{Item, XValue};

use crate::generators::Intent;

// ----------------------------------------------------------------------
// Shared helpers
// ----------------------------------------------------------------------

/// Parse and normalise a document to its serialize/parse fixed point, so
/// re-serialization oracles compare like with like (a first parse drops
/// whitespace-only text nodes).
pub fn normalize(xml: &str) -> Option<Document> {
    let once = Document::parse_str(xml).ok()?;
    Document::parse_str(&once.to_xml_string()).ok()
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 27)
}

/// An order-independent fingerprint of a WG-Log instance: per-object
/// signatures (type + sorted attributes, refined twice over labelled in-
/// and out-edges) plus edge signatures. Two isomorphic instances always
/// fingerprint equally, whatever order their objects were invented in —
/// which is what lets us compare naive against semi-naive fixpoints.
pub fn instance_fingerprint(db: &Instance) -> (Vec<u64>, Vec<(u64, u64, u64)>) {
    let n = db.object_count();
    let mut sig = vec![0u64; n];
    for (id, o) in db.objects() {
        let mut attrs: Vec<u64> = o.attrs().map(|(k, v)| mix(fnv(k), fnv(v))).collect();
        attrs.sort_unstable();
        let mut h = fnv(o.ty());
        for a in attrs {
            h = mix(h, a);
        }
        sig[id.index()] = h;
    }
    for _round in 0..2 {
        let mut outs: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut ins: Vec<Vec<u64>> = vec![Vec::new(); n];
        for e in db.edges() {
            let l = fnv(e.label);
            outs[e.from.index()].push(mix(l, sig[e.to.index()]));
            ins[e.to.index()].push(mix(l.rotate_left(17), sig[e.from.index()]));
        }
        let mut next = vec![0u64; n];
        for i in 0..n {
            outs[i].sort_unstable();
            ins[i].sort_unstable();
            let mut h = sig[i];
            for &o in &outs[i] {
                h = mix(h, o);
            }
            h = mix(h, 0xA5A5);
            for &x in &ins[i] {
                h = mix(h, x);
            }
            next[i] = h;
        }
        sig = next;
    }
    let mut objs = sig.clone();
    objs.sort_unstable();
    let mut edges: Vec<(u64, u64, u64)> = db
        .edges()
        .map(|e| (fnv(e.label), sig[e.from.index()], sig[e.to.index()]))
        .collect();
    edges.sort_unstable();
    (objs, edges)
}

// ----------------------------------------------------------------------
// Rejection: the words of a refusal are a reply
// ----------------------------------------------------------------------

/// A program the engine refuses is refused in the same words every time —
/// the text goes out as a served reply. A few fresh engines word it; a
/// checker that walks a hash set shows here, because two sets built alike
/// still iterate differently.
fn check_rejection_text(doc: &Document, query: &QueryKind) -> Result<(), String> {
    let mut texts = (0..4)
        .filter_map(|_| Engine::new().run(query, doc).err())
        .map(|e| e.to_string());
    let Some(first) = texts.next() else {
        return Ok(());
    };
    match texts.find(|text| *text != first) {
        Some(other) => Err(format!(
            "rejection-stability: one program, two refusals\nfirst: {first}\nlater: {other}"
        )),
        None => Ok(()),
    }
}

// ----------------------------------------------------------------------
// Tracing: observational transparency and determinism
// ----------------------------------------------------------------------

/// Tracing must be observationally free: a profiled run returns the exact
/// bytes of a plain run, attaches a non-empty profile, and reports the same
/// span/counter shape every time for the same inputs (durations vary; the
/// shape may not).
pub fn check_trace_case(doc: &Document, query: &QueryKind) -> Result<(), String> {
    let engine = Engine::new();
    let plain = engine.run(query, doc);
    let profiled = engine.run_profiled(query, doc);
    let (plain, profiled) = match (plain, profiled) {
        (Ok(p), Ok(t)) => (p, t),
        (Err(_), Err(_)) => return Ok(()), // both reject alike
        (p, t) => {
            return Err(format!(
                "trace-transparency: one path errored, the other did not \
                 (plain ok: {}, profiled ok: {})",
                p.is_ok(),
                t.is_ok()
            ))
        }
    };
    if plain.output.to_xml_string() != profiled.output.to_xml_string()
        || plain.result_count != profiled.result_count
    {
        return Err("trace-transparency: profiled run diverged from plain run".into());
    }
    let profile = profiled
        .profile
        .ok_or("trace-presence: run_profiled attached no profile")?;
    if profile.roots.is_empty() {
        return Err("trace-presence: profile has no spans".into());
    }
    let again = engine
        .run_profiled(query, doc)
        .map_err(|e| format!("trace-determinism: repeat profiled run failed: {e}"))?
        .profile
        .ok_or("trace-determinism: repeat run attached no profile")?;
    if again.shape() != profile.shape() {
        return Err(format!(
            "trace-determinism: profile shape changed between identical runs\nfirst:\n{}second:\n{}",
            profile.shape(),
            again.shape()
        ));
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Answers: the two sinks are one answer
// ----------------------------------------------------------------------

/// Whatever an engine run reports besides its answer: the counts, the
/// profile's shape (every span, counter and note — `nodes_built`, `results`,
/// `goal_objects`, `bindings_in` among them) or the error's words — for a
/// budget trip, its progress report.
fn run_report<O>(
    outcome: &gql_core::Result<gql_core::engine::RunOutcome<O>>,
    trace: Trace,
) -> Result<(usize, String), String> {
    match outcome {
        Ok(o) => Ok((
            o.result_count,
            trace.finish().map_or(String::new(), |p| p.shape()),
        )),
        // Without the elapsed time a trip's own words carry.
        Err(gql_core::CoreError::Budget(e)) => Err(e.shape()),
        Err(e) => Err(e.to_string()),
    }
}

/// A run whose answer is written ([`XmlSink`], what `gql-serve` replies
/// with) must be the run whose answer is built (`Engine::execute`, what
/// every other oracle reads): the bytes are the built document's
/// serialisation, and everything else either run reports is equal — with no
/// budget, and under budgets that trip some runs mid-evaluation and others
/// on the nodes of a half-emitted answer. The answer is built and written
/// from two copies of `doc`: one run cold, with no serialized image, whose
/// subtrees and WG-Log objects are walked; and one preloaded, as a
/// catalog's datasets are, whose subtrees are copied from the document's
/// image and whose base objects' attributes from the instance's answer
/// image. (`doc` itself may have been preloaded.)
pub fn check_sinks_case(doc: &Document, query: &QueryKind) -> Result<(), String> {
    let budgets = [
        Budget::unlimited(),
        Budget::unlimited().with_max_rounds(1),
        Budget::unlimited().with_max_nodes(3),
    ];
    let (walked, imaged) = (doc.clone(), doc.clone());
    // One preloaded engine builds, one writes: each sees the same runs, so
    // their plan caches answer every probe alike.
    let preloaded = || {
        let mut engine = Engine::new();
        engine.preload(&imaged);
        engine
    };
    let (imaged_builder, imaged_writer) = (preloaded(), preloaded());
    for budget in budgets {
        let (cold_builder, cold_writer) = (Engine::new(), Engine::new());
        for (src, builder, writer, from) in [
            (&walked, &cold_builder, &cold_writer, "walked"),
            (&imaged, &imaged_builder, &imaged_writer, "from the image"),
        ] {
            let built_guard = Guard::new(budget.clone());
            let trace = Trace::profiling();
            let outcome = builder.execute(query, src, RunCtx::new(&trace, &built_guard));
            let built = run_report(&outcome, trace);
            let built_xml = outcome.ok().map(|o| o.output.to_xml_string());
            let written_guard = Guard::new(budget.clone());
            let trace = Trace::profiling();
            let mut written_xml = String::new();
            let outcome = writer.execute_into(
                &Prepared::borrowed(query),
                src,
                RunCtx::new(&trace, &written_guard),
                &mut XmlSink::new(&mut written_xml),
            );
            let written = run_report(&outcome, trace);
            if built != written {
                return Err(format!(
                    "written-vs-built ({from}): the runs report differently\n\
                     built: {built:?}\nwritten: {written:?}"
                ));
            }
            if built_xml.as_ref().is_some_and(|xml| *xml != written_xml) {
                return Err(format!(
                    "written-vs-built ({from}): the answer's bytes diverged from its document\n\
                     built: {}\nwritten: {written_xml}",
                    built_xml.unwrap_or_default()
                ));
            }
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Planning: the plan cache must be answer-invisible
// ----------------------------------------------------------------------

/// Cached-plan re-execution must be byte-identical to fresh planning, in
/// every cache state the engine can reach:
///
/// * *warm vs cold* — a second run on the same engine (cache hit) returns
///   the exact bytes of the first (cache miss), and of a fresh engine;
/// * *post-mutation invalidation* — after the document changes, the cache
///   keys apart (content fingerprint) and the answer tracks the new
///   document, not the stale plan;
/// * *mutate-then-run* — an engine that preloaded a document answers it,
///   once changed in place below its root level, like a fresh engine, not
///   from the structures it preloaded;
/// * *corrupt entry → replan* — a corrupted cache entry is detected,
///   replanned, and still answers byte-identically.
///
/// Error cases must error identically warm and cold — a cached plan may
/// not *un*-reject a query.
pub fn check_plan_cache_case(doc: &Document, query: &QueryKind) -> Result<(), String> {
    use gql_guard::fault::{self, FaultPlan};
    let engine = Engine::new();
    let (cold, warm) = (engine.run(query, doc), engine.run(query, doc));
    let cold = match (cold, warm) {
        (Ok(c), Ok(w)) => {
            let (c_xml, w_xml) = (c.output.to_xml_string(), w.output.to_xml_string());
            if c_xml != w_xml {
                return Err(format!(
                    "plan-cache-warm: cached plan changed the answer\ncold: {c_xml}\nwarm: {w_xml}"
                ));
            }
            if engine.plan_cache_stats().hits == 0 {
                return Err("plan-cache-warm: second identical run did not hit the cache".into());
            }
            c
        }
        (Err(c), Err(w)) => {
            if format!("{c}") != format!("{w}") {
                return Err(format!(
                    "plan-cache-warm: cached plan changed the error\ncold: {c}\nwarm: {w}"
                ));
            }
            return Ok(()); // rejected queries have no answer to compare further
        }
        (c, w) => {
            return Err(format!(
                "plan-cache-warm: one run errored, the other did not \
                 (cold ok: {}, warm ok: {})",
                c.is_ok(),
                w.is_ok()
            ))
        }
    };
    // Post-mutation invalidation: the same engine on a changed document
    // must answer like a fresh engine on that document.
    let mut mutated = doc.clone();
    let root = mutated.root();
    mutated.add_element(root, "plan-cache-probe");
    same_run(
        "plan-cache-invalidation",
        engine.run(query, &mutated),
        Engine::new().run(query, &mutated),
    )?;
    // Mutate-then-run: an attribute set in place on the last element, which
    // leaves the node count and the root level as they were, after a run
    // that planted the plan.
    let mut resident = doc.clone();
    let mut preloaded = Engine::new();
    preloaded.preload(&resident);
    let _ = preloaded.run(query, &resident);
    let last = (resident.descendants_or_self(resident.root()))
        .filter(|&n| resident.kind(n) == NodeKind::Element)
        .last();
    if let Some(last) = last {
        (resident.set_attr(last, "plan-cache-probe", "1")).expect("an element takes attributes");
        same_run(
            "plan-cache-mutate-then-run",
            preloaded.run(query, &resident),
            Engine::new().run(query, &resident),
        )?;
    }
    // Corrupt entry → replan: the warm engine's entry for the original
    // document is corrupted in place; the run must detect it, replan, and
    // still return the cold run's bytes.
    let replans_before = engine.plan_cache_stats().replans;
    let faulted = fault::with_plan(FaultPlan::corrupt_plan_cache(), || engine.run(query, doc));
    match faulted {
        Ok(f) => {
            let (c_xml, f_xml) = (cold.output.to_xml_string(), f.output.to_xml_string());
            if c_xml != f_xml {
                return Err(format!(
                    "plan-cache-replan: replanned run changed the answer\n\
                     baseline: {c_xml}\nreplanned: {f_xml}"
                ));
            }
        }
        Err(e) => {
            return Err(format!(
                "plan-cache-replan: corrupt cache entry turned a clean run into an error: {e}"
            ))
        }
    }
    if engine.plan_cache_stats().replans <= replans_before {
        return Err("plan-cache-replan: corrupt entry was not detected as a replan".into());
    }
    Ok(())
}

/// An engine's run on a changed document against a fresh engine's: the same
/// answer bytes, or the same error.
fn same_run(
    check: &str,
    run: gql_core::Result<RunOutcome>,
    fresh: gql_core::Result<RunOutcome>,
) -> Result<(), String> {
    match (run, fresh) {
        (Ok(r), Ok(f)) => {
            let (r_xml, f_xml) = (r.output.to_xml_string(), f.output.to_xml_string());
            if r_xml != f_xml {
                return Err(format!(
                    "{check}: engine diverged from a fresh engine after a document mutation\n\
                     engine: {r_xml}\nfresh: {f_xml}"
                ));
            }
        }
        (Err(r), Err(f)) => {
            if format!("{r}") != format!("{f}") {
                return Err(format!(
                    "{check}: errors diverged after mutation\nengine: {r}\nfresh: {f}"
                ));
            }
        }
        (r, f) => {
            return Err(format!(
                "{check}: one run errored, the other did not (engine ok: {}, fresh ok: {})",
                r.is_ok(),
                f.is_ok()
            ))
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Static inference: summary-derived claims must be sound
// ----------------------------------------------------------------------

/// Check one "statically empty ⇒ evaluates empty" / "count ≤ bound" pair.
fn infer_claim(
    what: &str,
    statically_empty: bool,
    bound: Option<u64>,
    actual: usize,
) -> Result<(), String> {
    if statically_empty && actual != 0 {
        return Err(format!(
            "infer-soundness: {what} is statically empty under the summary \
             but evaluates to {actual} result(s)"
        ));
    }
    if let Some(b) = bound {
        if actual as u64 > b {
            return Err(format!(
                "infer-soundness: {what} evaluates to {actual} result(s), \
                 above the inferred upper bound {b}"
            ));
        }
    }
    Ok(())
}

/// The two summary construction paths — a direct document walk and the
/// DocIndex-postings shortcut the engine cache uses — must agree.
fn check_summary_paths(doc: &Document, idx: &DocIndex) -> Result<(), String> {
    let walked = Summary::build(doc);
    let derived = Summary::from_index(doc, idx);
    if walked.stats() != derived.stats() {
        return Err(format!(
            "summary-vs-index: walked {:?} != index-derived {:?}",
            walked.stats(),
            derived.stats()
        ));
    }
    Ok(())
}

// ----------------------------------------------------------------------
// XML-GL: every dual matcher/construct/engine path
// ----------------------------------------------------------------------

/// The full XML-GL oracle battery for one `(document, program)` case.
pub fn check_xmlgl_case(doc: &Document, src: &str) -> Result<(), String> {
    let Ok(program) = gql_xmlgl::dsl::parse_unchecked(src) else {
        return Ok(()); // legitimately rejected input is vacuous
    };
    // Metamorphic: print → parse is the identity (up to printing).
    let printed = gql_xmlgl::dsl::print(&program);
    let reparsed = gql_xmlgl::dsl::parse_unchecked(&printed)
        .map_err(|e| format!("print-parse: printed program fails to reparse: {e}\n{printed}"))?;
    let reprinted = gql_xmlgl::dsl::print(&reparsed);
    if reprinted != printed {
        return Err(format!(
            "print-parse: not a fixed point\nfirst:  {printed}\nsecond: {reprinted}"
        ));
    }
    if Analyzer::new().analyze_xmlgl(&program).has_errors() {
        // Statically rejected; every path refuses alike.
        return check_rejection_text(doc, &QueryKind::XmlGl(program));
    }
    let idx = DocIndex::build(doc);
    check_summary_paths(doc, &idx)?;
    let inf = gql_infer::infer_xmlgl(&program, &Summary::build(doc));
    let mut constructed = Document::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        let table = match_rule_in(rule, doc, &idx, &JoinPlan::new(rule, None), RunCtx::none());
        // The matcher against a walk that shares nothing with it.
        crate::reference::check_table(rule, doc, &table)
            .map_err(|e| format!("table-vs-reference: rule {ri}: {e}"))?;
        // Static inference soundness: a rule the summary proves empty has
        // no bindings, and the rule's binding count never exceeds its
        // inferred upper bound.
        infer_claim(
            &format!("xmlgl rule {ri}"),
            inf.empty_rules.get(ri).copied().unwrap_or(false),
            inf.cards.result_bound(ri),
            table.len(),
        )?;
        construct_rule(rule, doc, &table, &mut constructed)
            .map_err(|e| format!("construct: rule-by-rule construct failed: {e}"))?;
    }
    let lazy = gql_xmlgl::eval::run(&program, doc)
        .map_err(|e| format!("run: lazy run failed after clean matching: {e}"))?;
    // The same run again, written where `run` built, from two copies of
    // `doc`: one without a serialized image, whose subtrees are walked, and
    // one with it. A copy has `doc`'s node ids, so `idx` indexes it too.
    let plans: Vec<JoinPlan> = (program.rules.iter())
        .map(|rule| JoinPlan::new(rule, None))
        .collect();
    let (walked, imaged) = (doc.clone(), doc.clone());
    imaged.build_image();
    for (src, from) in [(&walked, "walked"), (&imaged, "from the image")] {
        let mut written = String::new();
        gql_xmlgl::eval::run_in(
            &program,
            src,
            &idx,
            &plans,
            RunCtx::none(),
            &mut XmlSink::new(&mut written),
        )
        .map_err(|e| format!("run: written run ({from}) failed after clean matching: {e}"))?;
        if written != lazy.to_xml_string() {
            return Err(format!(
                "written-vs-built ({from}): the answer's bytes diverged from its document"
            ));
        }
    }
    if constructed.to_xml_string() != lazy.to_xml_string() {
        return Err("construct-vs-run: rule-by-rule construct diverged from run()".into());
    }
    // Metamorphic: re-serialization invariance.
    let re = Document::parse_str(&doc.to_xml_string())
        .map_err(|e| format!("reserialize: document no longer parses: {e}"))?;
    let re_out = gql_xmlgl::eval::run(&program, &re)
        .map_err(|e| format!("reserialize: run on reparsed document failed: {e}"))?;
    if re_out.to_xml_string() != lazy.to_xml_string() {
        return Err("reserialize: results changed after serialize→parse of the document".into());
    }
    // Engine layer: prebuilt (preloaded) index vs cold lazy path.
    let q = QueryKind::XmlGl(program.clone());
    let cold = Engine::new().run(&q, doc);
    let mut warm_engine = Engine::new();
    warm_engine.preload(doc);
    let warm = warm_engine.run(&q, doc);
    match (cold, warm) {
        (Ok(c), Ok(w)) => {
            if c.output.to_xml_string() != w.output.to_xml_string()
                || c.result_count != w.result_count
            {
                return Err("engine-warm-vs-cold: preloaded and cold runs diverged".into());
            }
        }
        (Err(_), Err(_)) => {}
        (c, w) => {
            return Err(format!(
                "engine-warm-vs-cold: one path errored, the other did not \
                 (cold ok: {}, warm ok: {})",
                c.is_ok(),
                w.is_ok()
            ))
        }
    }
    check_trace_case(doc, &q)?;
    check_sinks_case(doc, &q)?;
    check_plan_cache_case(doc, &q)?;
    // Translation: where the partial XML-GL→WG-Log translator applies, the
    // translated program must at least evaluate cleanly over the same data.
    if program.rules.len() == 1 {
        if let Ok(wg) = gql_core::translate::xmlgl_to_wglog(&program.rules[0]) {
            let db = Instance::from_document(doc);
            gql_wglog::eval::run(&wg, &db)
                .map_err(|e| format!("translate: translated WG-Log program failed: {e}"))?;
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// WG-Log: fixpoint modes and loader invariance
// ----------------------------------------------------------------------

/// A flat private copy of an instance: the same ids in the same insertion
/// order, everything owned, nothing shared.
fn rebuild_flat(db: &Instance) -> Instance {
    let mut flat = Instance::new();
    for (_, o) in db.objects() {
        flat.add_object(o.to_object());
    }
    for e in db.edges() {
        flat.add_edge(e.from, e.label, e.to);
    }
    flat
}

/// The layering oracle: evaluating over a loaded instance (its graph a
/// frozen base that every result shares) and over a flat private rebuild
/// of it must be indistinguishable in both fixpoint modes — equal stats,
/// the same objects and edges in the same order, byte-identical goal
/// documents — and must leave the loaded instance exactly as it was.
pub fn check_wglog_layering(
    db: &Instance,
    program: &gql_wglog::rule::Program,
) -> Result<(), String> {
    let observe = |db: &Instance| {
        (
            db.object_count(),
            db.edge_count(),
            db.delta_counts(),
            db.base_holders(),
        )
    };
    let flat = rebuild_flat(db);
    let before = observe(db);
    let goal = program.goal.as_deref().unwrap_or("answer");
    for mode in [FixpointMode::Naive, FixpointMode::SemiNaive] {
        let shared = gql_wglog::eval::run_with(program, db, mode);
        let private = gql_wglog::eval::run_with(program, &flat, mode);
        let ((shared, shared_stats), (private, private_stats)) = match (shared, private) {
            (Ok(s), Ok(p)) => (s, p),
            (Err(_), Err(_)) => continue, // both reject alike
            (s, p) => {
                return Err(format!(
                    "layering ({mode:?}): one instance errored, the other did not \
                     (shared ok: {}, flat ok: {})",
                    s.is_ok(),
                    p.is_ok()
                ))
            }
        };
        if shared_stats != private_stats {
            return Err(format!(
                "layering ({mode:?}): stats diverged\nshared: {shared_stats:?}\nflat:   {private_stats:?}"
            ));
        }
        if shared.base_holders() != before.3 + 1 {
            return Err(format!(
                "layering ({mode:?}): the result does not share the loaded base"
            ));
        }
        if !shared.objects().eq(private.objects()) || !shared.edges().eq(private.edges()) {
            return Err(format!(
                "layering ({mode:?}): result instances differ in content or order"
            ));
        }
        let render = |db: &Instance| db.to_document("answer", goal, 2).to_xml_string();
        if render(&shared) != render(&private) {
            return Err(format!("layering ({mode:?}): goal documents differ"));
        }
    }
    if observe(db) != before {
        return Err("layering: evaluation changed the shared instance".into());
    }
    Ok(())
}

thread_local! {
    /// Rules this thread held to the embedding reference, and rules it
    /// skipped because their assignments passed the reference's cap.
    static REFERENCE_TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// How many rules this thread's `embed-vs-reference` arm has compared, and
/// how many it has skipped at
/// [`WGLOG_ASSIGNMENT_CAP`](crate::reference::WGLOG_ASSIGNMENT_CAP).
pub fn reference_tally() -> (u64, u64) {
    REFERENCE_TALLY.with(Cell::get)
}

/// The embedding oracle: each rule's embeddings into `db` as the search
/// finds them and as the exhaustive reference does, equal as multisets.
pub fn check_wglog_embeddings(
    db: &Instance,
    program: &gql_wglog::rule::Program,
) -> Result<(), String> {
    for (ri, rule) in program.rules.iter().enumerate() {
        let Some(mut expected) = crate::reference::wglog_embeddings(rule, db) else {
            REFERENCE_TALLY.with(|t| t.set((t.get().0, t.get().1 + 1)));
            continue;
        };
        REFERENCE_TALLY.with(|t| t.set((t.get().0 + 1, t.get().1)));
        let table = gql_wglog::eval::embeddings(rule, db);
        let mut got: Vec<Vec<_>> = table.rows().map(<[_]>::to_vec).collect();
        got.sort();
        expected.sort();
        if got != expected {
            let i = (0..).find(|&i| got.get(i) != expected.get(i)).unwrap_or(0);
            return Err(format!(
                "embed-vs-reference: rule {}: {} embeddings against the reference's {}; \
                 sorted row {i}: {:?} against {:?}",
                ri + 1,
                got.len(),
                expected.len(),
                got.get(i),
                expected.get(i)
            ));
        }
    }
    Ok(())
}

/// The WG-Log oracle battery for one `(document, program)` case.
pub fn check_wglog_case(doc: &Document, src: &str) -> Result<(), String> {
    let Ok(program) = gql_wglog::dsl::parse_unchecked(src) else {
        return Ok(());
    };
    let printed = gql_wglog::dsl::print(&program);
    let reparsed = gql_wglog::dsl::parse_unchecked(&printed)
        .map_err(|e| format!("print-parse: printed program fails to reparse: {e}\n{printed}"))?;
    let reprinted = gql_wglog::dsl::print(&reparsed);
    if reprinted != printed {
        return Err(format!(
            "print-parse: not a fixed point\nfirst:  {printed}\nsecond: {reprinted}"
        ));
    }
    if Analyzer::new().analyze_wglog(&program).has_errors() {
        return check_rejection_text(doc, &QueryKind::WgLog(program));
    }
    let db = Instance::from_document(doc);
    let naive = gql_wglog::eval::run_with(&program, &db, FixpointMode::Naive);
    let semi = gql_wglog::eval::run_with(&program, &db, FixpointMode::SemiNaive);
    let (naive_db, semi_db) = match (naive, semi) {
        (Ok((n, _)), Ok((s, _))) => (n, s),
        (Err(_), Err(_)) => return Ok(()), // both reject alike
        (n, s) => {
            return Err(format!(
                "naive-vs-seminaive: one mode errored, the other did not \
                 (naive ok: {}, semi ok: {})",
                n.is_ok(),
                s.is_ok()
            ))
        }
    };
    if instance_fingerprint(&naive_db) != instance_fingerprint(&semi_db) {
        return Err(format!(
            "naive-vs-seminaive: result instances are not isomorphic \
             ({} objects / {} edges vs {} / {})",
            naive_db.object_count(),
            naive_db.edge_count(),
            semi_db.object_count(),
            semi_db.edge_count()
        ));
    }
    // Over the result: base objects and edges, and the derived ones above.
    check_wglog_embeddings(&semi_db, &program)?;
    check_wglog_layering(&db, &program)?;
    check_summary_paths(doc, &DocIndex::build(doc))?;
    // Static inference soundness against the computed fixpoint: an empty
    // goal claim means no goal-typed object exists, and the goal bound
    // dominates the concrete goal population.
    if let Some(goal) = &program.goal {
        let inf = gql_infer::infer_wglog(&program, &Summary::build(doc));
        let goal_count = semi_db.objects().filter(|(_, o)| o.ty() == goal).count();
        infer_claim(
            &format!("wglog goal '{goal}'"),
            inf.is_statically_empty(),
            inf.cards.result_bound(0),
            goal_count,
        )?;
    }
    // Metamorphic: the loader is invariant under document re-serialization.
    let re = Document::parse_str(&doc.to_xml_string())
        .map_err(|e| format!("reserialize: document no longer parses: {e}"))?;
    let re_db = Instance::from_document(&re);
    let re_run = gql_wglog::eval::run_with(&program, &re_db, FixpointMode::SemiNaive)
        .map_err(|e| format!("reserialize: run on reparsed document failed: {e}"))?
        .0;
    if instance_fingerprint(&re_run) != instance_fingerprint(&semi_db) {
        return Err("reserialize: results changed after serialize→parse of the document".into());
    }
    check_trace_case(doc, &QueryKind::WgLog(program.clone()))?;
    check_sinks_case(doc, &QueryKind::WgLog(program.clone()))?;
    check_plan_cache_case(doc, &QueryKind::WgLog(program.clone()))?;
    Ok(())
}

// ----------------------------------------------------------------------
// XPath: lazy and indexed evaluation vs the reference evaluator
// ----------------------------------------------------------------------

fn xvalue_eq(a: &XValue, b: &XValue) -> bool {
    match (a, b) {
        (XValue::Num(x), XValue::Num(y)) => (x.is_nan() && y.is_nan()) || x == y,
        _ => a == b,
    }
}

/// A structural, node-identity-free projection of an XPath result, for
/// comparing runs over *different* parses of the same document.
fn observe(doc: &Document, v: &XValue) -> String {
    match v {
        XValue::Nodes(items) => {
            let parts: Vec<String> = items
                .iter()
                .map(|it| match *it {
                    Item::Node(n) => format!(
                        "{}({})",
                        doc.name(n).unwrap_or("#text"),
                        doc.text_content(n)
                    ),
                    Item::Attr { owner, index } => doc
                        .attrs(owner)
                        .nth(index)
                        .map(|(k, val)| format!("@{k}={val}"))
                        .unwrap_or_default(),
                })
                .collect();
            format!("nodes[{}]", parts.join(","))
        }
        XValue::Num(n) => format!("num {n}"),
        XValue::Str(s) => format!("str {s}"),
        XValue::Bool(b) => format!("bool {b}"),
    }
}

/// The XPath oracle battery for one `(document, expression)` case.
pub fn check_xpath_case(doc: &Document, src: &str) -> Result<(), String> {
    let Ok(expr) = gql_xpath::parse(src) else {
        return Ok(());
    };
    // Metamorphic: Display → parse is the identity on the AST.
    let printed = expr.to_string();
    let reparsed = gql_xpath::parse(&printed)
        .map_err(|e| format!("print-parse: printed expression fails to reparse: {e}\n{printed}"))?;
    if reparsed != expr {
        return Err(format!(
            "print-parse: AST changed through printing\n{printed}"
        ));
    }
    let idx = DocIndex::build(doc);
    check_summary_paths(doc, &idx)?;
    // The set-at-a-time entry points (lazily built and prebuilt index)
    // against the textbook evaluator, which shares none of their code.
    let reference = crate::reference::xpath::evaluate(doc, &expr);
    for (path, got) in [
        ("lazy", gql_xpath::evaluate(doc, &expr)),
        ("indexed", gql_xpath::evaluate_with_index(doc, &expr, &idx)),
    ] {
        match (&reference, got) {
            (Ok(r), Ok(g)) => {
                if !xvalue_eq(r, &g) {
                    return Err(format!(
                        "{path}-vs-reference: values diverged\nreference: {}\n{path}: {}",
                        observe(doc, r),
                        observe(doc, &g)
                    ));
                }
            }
            (Err(_), Err(_)) => {}
            (r, g) => {
                return Err(format!(
                    "{path}-vs-reference: one path errored, the other did not \
                     (reference ok: {}, {path} ok: {})",
                    r.is_ok(),
                    g.is_ok()
                ))
            }
        }
    }
    let Ok(value) = reference else {
        return Ok(()); // every path rejects alike
    };
    // Static inference soundness: a statically-empty path selects nothing
    // and a node-set never outgrows its inferred bound. (Scalar results
    // satisfy the bound-of-1 claim by construction.)
    let inf = gql_infer::infer_xpath(&expr, &Summary::build(doc));
    let result_size = match &value {
        XValue::Nodes(items) => items.len(),
        _ => 1,
    };
    infer_claim(
        &format!("xpath '{src}'"),
        inf.is_statically_empty(),
        inf.cards.result_bound(0),
        result_size,
    )?;
    // Metamorphic: re-serialization invariance on the observable result.
    let re = Document::parse_str(&doc.to_xml_string())
        .map_err(|e| format!("reserialize: document no longer parses: {e}"))?;
    let re_val = gql_xpath::evaluate(&re, &expr)
        .map_err(|e| format!("reserialize: evaluation on reparsed document failed: {e}"))?;
    if observe(&re, &re_val) != observe(doc, &value) {
        return Err(format!(
            "reserialize: results changed after serialize→parse\nbefore: {}\nafter:  {}",
            observe(doc, &value),
            observe(&re, &re_val)
        ));
    }
    check_trace_case(doc, &QueryKind::XPath(src.to_string()))?;
    check_sinks_case(doc, &QueryKind::XPath(src.to_string()))?;
    check_plan_cache_case(doc, &QueryKind::XPath(src.to_string()))?;
    Ok(())
}

// ----------------------------------------------------------------------
// Cross-engine intents: XML-GL vs XPath, plus prune monotonicity
// ----------------------------------------------------------------------

/// Count the intent on the XML-GL side (holding its binding table to the
/// reference on the way — the intent doubles as another matcher case).
pub fn intent_xmlgl_count(doc: &Document, intent: &Intent) -> Result<usize, String> {
    let src = intent.xmlgl();
    let program = gql_xmlgl::dsl::parse(&src)
        .map_err(|e| format!("intent-xmlgl: intent rendering failed to parse: {e}\n{src}"))?;
    let rule = &program.rules[0];
    let table = match_rule(rule, doc);
    crate::reference::check_table(rule, doc, &table)
        .map_err(|e| format!("table-vs-reference: intent '{intent}': {e}"))?;
    if intent.distinct() {
        let q = rule
            .extract
            .by_var("x")
            .ok_or_else(|| format!("intent-xmlgl: $x not bound in {src}"))?;
        Ok(distinct_cells(&table, q).len())
    } else {
        Ok(table.len())
    }
}

/// Count the intent on the XPath side (checking indexed and lazy against
/// the reference evaluator).
pub fn intent_xpath_count(doc: &Document, intent: &Intent) -> Result<usize, String> {
    let idx = DocIndex::build(doc);
    let count = |path: &str| -> Result<usize, String> {
        let expr = gql_xpath::parse(path).map_err(|e| format!("intent-xpath: {e} in {path}"))?;
        let reference = crate::reference::xpath::evaluate(doc, &expr)
            .map_err(|e| format!("intent-xpath: reference evaluation failed: {e}"))?;
        let lazy = gql_xpath::evaluate(doc, &expr)
            .map_err(|e| format!("intent-xpath: lazy evaluation failed: {e}"))?;
        let fast = gql_xpath::evaluate_with_index(doc, &expr, &idx)
            .map_err(|e| format!("intent-xpath: indexed evaluation failed: {e}"))?;
        for (name, got) in [("lazy", &lazy), ("indexed", &fast)] {
            if !xvalue_eq(&reference, got) {
                return Err(format!("{name}-vs-reference: intent path {path} diverged"));
            }
        }
        Ok(lazy
            .into_nodes()
            .map_err(|e| format!("intent-xpath: {e}"))?
            .len())
    };
    count(&intent.xpath())
}

/// The cross-engine oracle for one `(document, intent)` case: equal counts
/// between XML-GL and XPath, and (for positive intents) monotonicity under
/// subtree pruning.
pub fn check_intent_case(doc: &Document, intent: &Intent) -> Result<(), String> {
    let a = intent_xmlgl_count(doc, intent)?;
    let b = intent_xpath_count(doc, intent)?;
    if a != b {
        return Err(format!(
            "xmlgl-vs-xpath: intent '{intent}' counts diverged (xmlgl {a}, xpath {b})"
        ));
    }
    if !intent.positive() {
        return Ok(());
    }
    // Prune up to 6 element subtrees (deterministically, in document
    // order); a positive pattern can never gain matches from removal.
    let xml = doc.to_xml_string();
    let total = doc
        .descendants(doc.root())
        .filter(|&n| doc.kind(n) == gql_ssdm::NodeKind::Element)
        .count();
    for k in 0..total.min(6) {
        let Ok(mut pruned) = Document::parse_str(&xml) else {
            break;
        };
        let Some(victim) = pruned
            .descendants(pruned.root())
            .filter(|&n| pruned.kind(n) == gql_ssdm::NodeKind::Element)
            .nth(k)
        else {
            continue;
        };
        if pruned.detach(victim).is_err() {
            continue;
        }
        let Some(clean) = normalize(&pruned.to_xml_string()) else {
            continue; // pruning the root leaves nothing to query
        };
        let a2 = intent_xmlgl_count(&clean, intent)?;
        let b2 = intent_xpath_count(&clean, intent)?;
        if a2 > a || b2 > b {
            return Err(format!(
                "prune-monotonicity: intent '{intent}' gained matches after pruning subtree {k} \
                 (xmlgl {a}→{a2}, xpath {b}→{b2})"
            ));
        }
    }
    Ok(())
}
