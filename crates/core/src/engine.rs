//! One entry point over the three engines.
//!
//! The benchmark harness compares equivalent queries written in XML-GL,
//! WG-Log and XPath against the same document. [`Engine`] normalises the
//! three run paths — including WG-Log's document→instance load, which is
//! counted separately so the comparison can show it both ways (amortised
//! loads for a resident database, full loads for one-shot queries).

use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gql_guard::{fault, RunCtx};
use gql_infer::Inference;
use gql_plan::{CacheStats, CachedPlan, PlanCache, PlanKey, QueryKey, StatsCell};
use gql_ssdm::sink::{DocSink, Sink};
use gql_ssdm::{shallow_fingerprint, DocIndex, Document, Summary};
use gql_trace::{joined, ExecutionProfile, Trace};
use gql_wglog::eval::ProgramPlan;
use gql_wglog::instance::Instance;
use gql_xmlgl::eval::JoinPlan;

use crate::{CoreError, Result};

/// A query in any of the three formalisms.
#[derive(Debug, Clone)]
pub enum QueryKind {
    XmlGl(gql_xmlgl::ast::Program),
    WgLog(gql_wglog::rule::Program),
    XPath(String),
}

/// A query with every fact its text alone fixes, derived once: its
/// canonical plan-cache key, the static-analysis gate's verdict and, for
/// XPath, the parsed expression (or the parser's message). A caller that
/// asks the same text many times (`gql-serve` keeps these by text)
/// prepares it once; [`Engine::run`] and [`Engine::execute`] prepare the
/// query they are given on every call.
#[derive(Debug)]
pub struct Prepared<'q> {
    query: Cow<'q, QueryKind>,
    key: QueryKey,
    verdict: Result<()>,
    /// `Some` for XPath only.
    xpath: Option<std::result::Result<gql_xpath::Expr, String>>,
}

impl Prepared<'static> {
    pub fn new(query: QueryKind) -> Prepared<'static> {
        Prepared::from_cow(Cow::Owned(query))
    }
}

impl<'q> Prepared<'q> {
    /// Prepare a query the caller keeps.
    pub fn borrowed(query: &'q QueryKind) -> Prepared<'q> {
        Prepared::from_cow(Cow::Borrowed(query))
    }

    fn from_cow(query: Cow<'q, QueryKind>) -> Prepared<'q> {
        Prepared {
            key: QueryKey::new(&canonical_query(&query)),
            verdict: reject_errors(&query),
            xpath: match &*query {
                QueryKind::XPath(expr) => Some(gql_xpath::parse(expr).map_err(|e| e.to_string())),
                _ => None,
            },
            query,
        }
    }

    pub fn query(&self) -> &QueryKind {
        &self.query
    }

    /// The XPath expression, when the query is XPath text that parses.
    fn parsed_xpath(&self) -> Option<&gql_xpath::Expr> {
        self.xpath.as_ref().and_then(|parsed| parsed.as_ref().ok())
    }

    /// The plan-cache key's query part: the printed DSL for the graphical
    /// languages (structurally identical programs share an entry regardless
    /// of source formatting), the raw expression for XPath, behind a
    /// language prefix that keeps the three namespaces disjoint.
    pub fn canonical(&self) -> &str {
        self.key.text()
    }

    /// The gate's verdict: `Ok`, or [`CoreError::Rejected`] with every
    /// Error-level diagnostic.
    pub fn verdict(&self) -> Result<()> {
        self.verdict.clone()
    }
}

/// See [`Prepared::canonical`].
fn canonical_query(query: &QueryKind) -> String {
    let (prefix, text) = match query {
        QueryKind::XmlGl(program) => ("xmlgl:", gql_xmlgl::dsl::print(program).into()),
        QueryKind::WgLog(program) => ("wglog:", gql_wglog::dsl::print(program).into()),
        QueryKind::XPath(expr) => ("xpath:", Cow::Borrowed(expr.as_str())),
    };
    [prefix, &text].concat()
}

/// Static-analysis gate: Error-level diagnostics (well-formedness, safety,
/// stratifiability) refuse the program before any evaluation.
fn reject_errors(query: &QueryKind) -> Result<()> {
    let errors: Vec<gql_ssdm::Diagnostic> = match query {
        QueryKind::XmlGl(program) => gql_xmlgl::check::diagnostics(program)
            .into_iter()
            .filter(gql_ssdm::Diagnostic::is_error)
            .collect(),
        QueryKind::WgLog(program) => {
            let mut ds: Vec<_> = program
                .diagnostics()
                .into_iter()
                .filter(gql_ssdm::Diagnostic::is_error)
                .collect();
            // Stratification only means anything for well-formed rules.
            if ds.is_empty() {
                ds.extend(gql_wglog::eval::stratify::diagnose(program));
            }
            ds
        }
        QueryKind::XPath(_) => Vec::new(),
    };
    if errors.is_empty() {
        Ok(())
    } else {
        Err(CoreError::Rejected {
            diagnostics: errors,
        })
    }
}

/// Result of one engine run.
#[derive(Debug)]
pub struct RunOutcome<O = Document> {
    /// The result document produced by the engine; `()` from
    /// [`Engine::execute_into`], whose answer went to the caller's sink.
    pub output: O,
    /// A size proxy comparable across engines: result elements for XML-GL /
    /// XPath, goal objects for WG-Log.
    pub result_count: usize,
    /// Pure evaluation time.
    pub eval_time: Duration,
    /// Time spent preparing the data representation (WG-Log's instance
    /// load; zero for the tree-native engines).
    pub load_time: Duration,
    /// The execution profile, when the run was profiled
    /// ([`Engine::run_profiled`]); `None` for plain [`Engine::run`]s.
    pub profile: Option<ExecutionProfile>,
    /// Static inference of the query against the document's structural
    /// summary: GQL014–GQL016 warnings (statically-empty queries, dead
    /// rules, dead XPath steps) and cardinality upper bounds. Warnings
    /// never refuse a run — the result is still computed and the bounds
    /// also drive the XML-GL join planner. Shared with the plan cache.
    pub inference: Arc<Inference>,
    /// The logical plan the run executed (multi-line EXPLAIN rendering of
    /// the `gql_plan` lowering), for provenance surfaces; shared with the
    /// plan cache.
    pub plan: Arc<str>,
}

/// Everything preloaded for one resident document — the [`DocIndex`], the
/// structural summary and the WG-Log instance — keyed by the document's
/// [`identity`](Document::identity). A run against any other document, or
/// against this one after any change, reads another identity and builds
/// what it needs; a run against the unchanged document reads a stored
/// `u64`.
#[derive(Debug)]
struct Resident {
    identity: u64,
    index: DocIndex,
    /// The structural summary (DataGuide with per-path counts) inferred
    /// from the same document, cached for the static-analysis phase.
    summary: Summary,
    /// The WG-Log instance graph of the same document. Every run clones
    /// it, which shares its frozen base and copies nothing.
    instance: Instance,
}

/// The unified runner.
#[derive(Debug)]
pub struct Engine {
    /// The preloaded document's index (XML-GL and XPath), summary and
    /// WG-Log instance, reused across runs when the queried document
    /// matches.
    resident: Option<Resident>,
    /// Cached planning outcomes keyed by (canonical query, document
    /// fingerprint): on a hit the analyze/plan phases are served from the
    /// cache and the run goes parse → execution.
    plan_cache: Mutex<PlanCache>,
    /// Snapshot-consistent view of the plan cache's counters, cloned from
    /// the cache at construction so [`Engine::plan_cache_stats`] never
    /// contends with planners holding the cache mutex.
    plan_stats: Arc<StatsCell>,
}

impl Default for Engine {
    fn default() -> Self {
        let plan_cache = PlanCache::default();
        let plan_stats = plan_cache.stats_cell();
        Engine {
            resident: None,
            plan_cache: Mutex::new(plan_cache),
            plan_stats,
        }
    }
}

impl Engine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-load a WG-Log instance and build the shared [`DocIndex`] so
    /// subsequent runs against the same document skip both the load phase
    /// and the per-query index build (the "resident database"
    /// configuration). The index is built once and read by the rest: the
    /// summary walks its element list, and the summary and the instance
    /// take their reference edges from its resolved ID/IDREF table. Also
    /// builds the document's serialized image
    /// ([`Document::build_image`]), from which a written answer
    /// (`execute_into` with an `XmlSink`) copies its source subtrees, and
    /// the instance's answer image ([`Instance::build_answer_image`]), from
    /// which it copies each base object's attribute children.
    pub fn preload(&mut self, doc: &Document) {
        let index = DocIndex::build(doc);
        let summary = Summary::from_index(doc, &index);
        doc.build_image();
        let instance = Instance::from_index(doc, &index);
        instance.build_answer_image();
        self.resident = Some(Resident {
            identity: doc.identity(),
            index,
            summary,
            instance,
        });
    }

    /// The resident cache entry, if it was built for exactly this document
    /// as it is now.
    fn resident_for(&self, doc: &Document) -> Option<&Resident> {
        (self.resident.as_ref()).filter(|r| r.identity == doc.identity())
    }

    /// Name a [`resident_for`](Engine::resident_for) probe's outcome for
    /// the index and load spans, distinguishing "nothing preloaded" from
    /// "preloaded for a different document".
    fn cache_state(&self, hit: bool) -> &'static str {
        match &self.resident {
            None => "cold",
            Some(_) if hit => "hit",
            Some(_) => "miss",
        }
    }

    /// The plan cache, immune to lock poisoning: a panicking run must not
    /// take the cache down with it, and every hit is re-validated against
    /// the query's rules before its join plans run.
    fn lock_plan_cache(&self) -> MutexGuard<'_, PlanCache> {
        self.plan_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Cumulative plan-cache counters (hits, misses, evictions, replans,
    /// lookups) since engine construction. Reads a snapshot-consistent
    /// seqlock cell rather than the cache mutex, so concurrent callers on
    /// a shared engine never block planners or observe torn totals
    /// (`CacheStats::is_consistent` holds for every returned value).
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_stats.snapshot()
    }

    /// Number of plans currently resident in the cache.
    pub fn plan_cache_len(&self) -> usize {
        self.lock_plan_cache().len()
    }

    /// Drop every cached plan (the counters are preserved).
    pub fn clear_plan_cache(&self) {
        self.lock_plan_cache().clear()
    }

    /// Build the cacheable planning outcome for a query: each XML-GL
    /// rule's join plan in its cost-based order, or a WG-Log program's
    /// strata and searches (XPath executes its declared shape), plus those
    /// plans printed as EXPLAIN text, indented and compact.
    fn build_plan(prepared: &Prepared<'_>, inference: Inference, summary_paths: u64) -> CachedPlan {
        let mut wglog = None;
        let (joins, lowered) = match prepared.query() {
            QueryKind::XmlGl(program) => {
                let joins: Vec<JoinPlan> = (program.rules.iter().enumerate())
                    .map(|(i, rule)| {
                        let order = (inference.root_bounds.get(i))
                            .and_then(|bounds| gql_plan::plan_rule_order(rule, bounds));
                        JoinPlan::new(rule, order.as_deref())
                    })
                    .collect();
                let lowered = gql_plan::lower_join_plans(program, &inference, &joins);
                (joins, lowered)
            }
            QueryKind::WgLog(program) => {
                let plan = ProgramPlan::new(program)
                    .expect("the gate refuses a program that is ill formed or unstratifiable");
                let lowered = gql_plan::lower_wglog_plan(program, &inference, &plan);
                wglog = Some(plan);
                (Vec::new(), lowered)
            }
            // A parse failure is reported by the parse span with the
            // parser's message; the plan just records the failure.
            QueryKind::XPath(_) => match prepared.parsed_xpath() {
                Some(parsed) => (Vec::new(), gql_plan::lower_xpath(parsed, &inference)),
                None => (
                    Vec::new(),
                    gql_plan::PlanNode::new("Construct", "unparsed", None, Vec::new()),
                ),
            },
        };
        CachedPlan {
            inference: Arc::new(inference),
            joins,
            wglog,
            plan_text: lowered.render().into(),
            plan_compact: lowered.render_compact(),
            summary_paths,
        }
    }

    /// Resolve the [`DocIndex`] for a run of either index surface: the
    /// `resident` index on a cache hit, otherwise a fresh build parked in
    /// `storage` (an XPath run comes here cold only under a fault plan).
    /// The run is refused with [`CoreError::IndexUnavailable`] when the
    /// fault-injection seam fails the build outright, or corrupts the fresh
    /// build's postings and the integrity check rejects them; neither
    /// surface answers some other way. It does not rebuild: the plan stays
    /// installed for the whole run, so a rebuild fails alike. The integrity
    /// verification is O(index size), so it is only armed while a fault
    /// plan is active.
    fn resolve_index<'a>(
        resident: Option<&'a Resident>,
        doc: &Document,
        storage: &'a mut Option<DocIndex>,
    ) -> Result<&'a DocIndex> {
        if fault::active() && fault::fail_index_build() {
            return Err(CoreError::IndexUnavailable {
                reason: "the index build failed",
            });
        }
        let idx: &'a DocIndex = match resident {
            Some(resident) => &resident.index,
            None => {
                let mut fresh = DocIndex::build(doc);
                if fault::active() && fault::corrupt_postings() {
                    fresh.corrupt_for_test();
                }
                storage.insert(fresh)
            }
        };
        if fault::active() && !idx.is_intact() {
            return Err(CoreError::IndexUnavailable {
                reason: "the index failed its integrity check",
            });
        }
        Ok(idx)
    }

    /// Run a query against a document.
    pub fn run(&self, query: &QueryKind, doc: &Document) -> Result<RunOutcome> {
        self.execute(query, doc, RunCtx::none())
    }

    /// Run a query with profiling: identical output to [`Engine::run`]
    /// (instrumentation only aggregates counters — it never changes a code
    /// path), with `RunOutcome::profile` carrying the span tree.
    pub fn run_profiled(&self, query: &QueryKind, doc: &Document) -> Result<RunOutcome> {
        let trace = Trace::profiling();
        let mut outcome = self.execute(query, doc, RunCtx::traced(&trace))?;
        outcome.profile = trace.finish();
        Ok(outcome)
    }

    /// [`Engine::execute_into`] over a [`DocSink`]: the answer as a
    /// document.
    pub fn execute(
        &self,
        query: &QueryKind,
        doc: &Document,
        ctx: RunCtx<'_>,
    ) -> Result<RunOutcome> {
        let mut output = Document::new();
        let prepared = Prepared::borrowed(query);
        let outcome = self.execute_into(&prepared, doc, ctx, &mut DocSink::new(&mut output))?;
        Ok(RunOutcome {
            output,
            result_count: outcome.result_count,
            eval_time: outcome.eval_time,
            load_time: outcome.load_time,
            profile: outcome.profile,
            inference: outcome.inference,
            plan: outcome.plan,
        })
    }

    /// The full form of [`Engine::run`]: a [`Prepared`] query run reporting
    /// into `ctx.trace`, bounded by `ctx.guard`, its answer emitted into
    /// `sink` — a [`DocSink`] to look at it, an
    /// [`XmlSink`](gql_ssdm::sink::XmlSink) for its bytes alone. Everything
    /// else the run has to say is returned.
    ///
    /// The span taxonomy (documented in DESIGN.md): a `run` root with
    /// `engine` and `cache` notes, `analyze` / `plan` / `load` / `index` /
    /// `eval` / `construct` phase children, and engine-specific spans below
    /// `eval`. The `plan` span notes `plan_cache` (`hit` / `miss` /
    /// `replan`), the compact logical plan, and the XML-GL join orders the
    /// planner chose.
    ///
    /// Under a guard built from a [`Budget`](gql_guard::Budget) (pass
    /// [`Guard::with_cancel`](gql_guard::Guard::with_cancel) to attach a
    /// cooperative [`CancelToken`](gql_guard::CancelToken)) the output is
    /// identical to [`Engine::run`] while every limit holds; the first limit
    /// that trips aborts the run with [`CoreError::Budget`] carrying a
    /// partial-progress report (phase reached, rounds/matches/nodes so far)
    /// — never a truncated answer: on any `Err`, what the sink received is
    /// part of an answer at most, and the caller drops it.
    pub fn execute_into(
        &self,
        prepared: &Prepared<'_>,
        doc: &Document,
        ctx: RunCtx<'_>,
        sink: &mut impl Sink,
    ) -> Result<RunOutcome<()>> {
        let query = prepared.query();
        let RunCtx { trace, guard } = ctx;
        let _run = trace.span("run");
        if trace.is_enabled() {
            trace.note(
                "engine",
                match query {
                    QueryKind::XmlGl(_) => "xmlgl",
                    QueryKind::WgLog(_) => "wglog",
                    QueryKind::XPath(_) => "xpath",
                },
            );
            trace.count("doc_nodes", doc.node_count() as u64);
        }
        // One resident probe per run, shared by every phase below. The plan
        // key takes the content fingerprint: a plan is correct for any
        // document. The document computed both once, when first asked.
        let resident = self.resident_for(doc);
        // Probe the plan cache. The corruption fault seam scrambles the
        // entry *before* the probe, so a poisoned hit exercises the real
        // validate → replan path.
        let key = PlanKey::new(prepared.key.clone(), shallow_fingerprint(doc));
        let mut cached = {
            let mut cache = self.lock_plan_cache();
            if fault::active() && fault::corrupt_plan_cache() {
                cache.corrupt_entry(&key);
            }
            cache.get(&key)
        };
        let mut cache_state = if cached.is_some() { "hit" } else { "miss" };
        let (rules, wglog) = match query {
            QueryKind::XmlGl(program) => (&program.rules[..], None),
            QueryKind::WgLog(program) => (&[][..], Some(program)),
            QueryKind::XPath(_) => (&[][..], None),
        };
        if cached
            .as_ref()
            .is_some_and(|plan| !plan.is_valid_for(rules, wglog))
        {
            // A hit that fails validation (a corrupted entry) is dropped
            // and replanned from scratch.
            cache_state = "replan";
            let mut cache = self.lock_plan_cache();
            cache.note_replan();
            cache.remove(&key);
            cached = None;
        }
        let analyzed: Option<(Inference, u64)> = {
            let _s = ctx.phase("analyze");
            // The rejection gate's verdict is read warm or cold: it is pure
            // on the query, prepared with it, and an invalid program must
            // behave identically either way (it is also why a rejected
            // program is never cached — the cold path errors out before
            // planning).
            prepared.verdict()?;
            let out = match &cached {
                // Warm path: analysis is served from the cache; the span
                // still reports the counters the cold run recorded so
                // profiled shapes match.
                Some(plan) => {
                    if trace.is_enabled() {
                        trace.count("summary_paths", plan.summary_paths);
                        trace.count("infer_diags", plan.inference.report.len() as u64);
                        if plan.inference.is_statically_empty() {
                            trace.note("statically_empty", "true");
                        }
                    }
                    None
                }
                None => {
                    // Static inference against the structural summary:
                    // resident when preloaded for this document, otherwise
                    // inferred here (one preorder pass). Its diagnostics
                    // are Warnings — surfaced on the outcome, never a
                    // refusal — and its cardinality bounds feed the
                    // cost-based join planner below.
                    let mut summary_storage = None;
                    let summary: &Summary = match resident {
                        Some(resident) => &resident.summary,
                        None => summary_storage.insert(Summary::build(doc)),
                    };
                    let inference = match query {
                        QueryKind::XmlGl(program) => gql_infer::infer_xmlgl(program, summary),
                        QueryKind::WgLog(program) => gql_infer::infer_wglog(program, summary),
                        // A parse failure is reported by the parse span
                        // below with the parser's message; inference just
                        // stays empty.
                        QueryKind::XPath(_) => (prepared.parsed_xpath())
                            .map(|parsed| gql_infer::infer_xpath(parsed, summary))
                            .unwrap_or_default(),
                    };
                    let summary_paths = summary.stats().paths as u64;
                    if trace.is_enabled() {
                        trace.count("summary_paths", summary_paths);
                        trace.count("infer_diags", inference.report.len() as u64);
                        if inference.is_statically_empty() {
                            trace.note("statically_empty", "true");
                        }
                    }
                    Some((inference, summary_paths))
                }
            };
            guard.checkpoint().map_err(CoreError::Budget)?;
            out
        };
        let planned: Arc<CachedPlan> = {
            let _s = ctx.phase("plan");
            let plan = match (cached, analyzed) {
                (Some(plan), None) => plan,
                (None, Some((inference, summary_paths))) => {
                    let plan = Arc::new(Self::build_plan(prepared, inference, summary_paths));
                    self.lock_plan_cache().insert(key, Arc::clone(&plan));
                    plan
                }
                _ => unreachable!("cache probe and analysis must agree"),
            };
            if trace.is_enabled() {
                trace.note("plan_cache", cache_state);
                trace.note("plan", plan.plan_compact.as_str());
                for (i, join) in plan.joins.iter().enumerate() {
                    if join.is_planned() {
                        trace.note(format_args!("join_order[{i}]"), joined(join.order(), ","));
                    }
                }
            }
            guard.checkpoint().map_err(CoreError::Budget)?;
            plan
        };
        let inference = Arc::clone(&planned.inference);
        let plan_text = Arc::clone(&planned.plan_text);
        match query {
            QueryKind::XmlGl(program) => {
                let start = Instant::now();
                // Resolve the index up front (the cold path built it inside
                // `eval::run` before tracing existed — building it here is
                // semantically identical and gives the build its own span).
                let mut built = None;
                let span = ctx.phase("index");
                trace.note("cache", self.cache_state(resident.is_some()));
                let idx = Self::resolve_index(resident, doc, &mut built)?;
                if trace.is_enabled() {
                    record_index_stats(trace, idx);
                }
                drop(span);
                guard.checkpoint().map_err(CoreError::Budget)?;
                // Cost-based join plans: per rule, the root combine order
                // chosen by `gql_plan` from the inferred cardinality bounds
                // (and reused across runs through the plan cache). Plans
                // never change results (see `match_rule_in`), only
                // intermediate join sizes.
                let result_count = {
                    let _s = ctx.phase("eval");
                    let planned_rules = planned.joins.iter().filter(|j| j.is_planned()).count();
                    if trace.is_enabled() && planned_rules > 0 {
                        trace.count("planned_rules", planned_rules as u64);
                    }
                    gql_xmlgl::eval::run_in(program, doc, idx, &planned.joins, ctx, sink)
                        .map_err(engine_err_xmlgl)?
                };
                let eval_time = start.elapsed();
                trace.count("results", result_count as u64);
                Ok(RunOutcome {
                    output: (),
                    result_count,
                    eval_time,
                    load_time: Duration::ZERO,
                    profile: None,
                    inference,
                    plan: plan_text,
                })
            }
            QueryKind::WgLog(program) => {
                // Borrow the resident instance when it was preloaded for this
                // document; only cold runs and misses pay a load.
                let loaded;
                let span = ctx.phase("load");
                trace.note("cache", self.cache_state(resident.is_some()));
                let (instance, load_time): (&Instance, Duration) = match resident {
                    Some(resident) => (&resident.instance, Duration::ZERO),
                    None => {
                        let start = Instant::now();
                        loaded = Instance::from_document(doc);
                        (&loaded, start.elapsed())
                    }
                };
                if trace.is_enabled() {
                    trace.count("objects", instance.object_count() as u64);
                    trace.count("edges", instance.edge_count() as u64);
                }
                drop(span);
                guard.checkpoint().map_err(CoreError::Budget)?;
                let start = Instant::now();
                let result = {
                    let _s = ctx.phase("eval");
                    let plan = (planned.wglog.as_ref())
                        .expect("a valid entry for a WG-Log query holds its plan");
                    let mode = gql_wglog::eval::FixpointMode::SemiNaive;
                    gql_wglog::eval::run_in(program, instance, plan, mode, ctx)
                        .map(|(db, _)| db)
                        .map_err(engine_err_wglog)?
                };
                let eval_time = start.elapsed();
                let span = ctx.phase("construct");
                let goal = program.goal.as_deref().unwrap_or("answer");
                let goal_objects = result.objects_of_type(goal).count();
                let before = sink.nodes();
                result.emit("answer", goal, 2, sink);
                if trace.is_enabled() {
                    trace.count("goal_objects", goal_objects as u64);
                    trace.count("nodes_built", sink.nodes() - before + DOCUMENT_NODE);
                }
                drop(span);
                guard.checkpoint().map_err(CoreError::Budget)?;
                trace.count("results", goal_objects as u64);
                Ok(RunOutcome {
                    output: (),
                    result_count: goal_objects,
                    eval_time,
                    load_time,
                    profile: None,
                    inference,
                    plan: plan_text,
                })
            }
            QueryKind::XPath(_) => {
                // The text was parsed when the query was prepared; text that
                // does not parse fails here with the parser's message.
                let parsed = {
                    let _s = ctx.phase("parse");
                    match &prepared.xpath {
                        Some(Ok(parsed)) => parsed,
                        Some(Err(msg)) => return Err(CoreError::Engine { msg: msg.clone() }),
                        None => unreachable!("an XPath query is prepared with its parse"),
                    }
                };
                let start = Instant::now();
                let span = ctx.phase("index");
                trace.note("cache", self.cache_state(resident.is_some()));
                let mut built = None;
                let idx = Self::resolve_index(resident, doc, &mut built)?;
                if trace.is_enabled() {
                    record_index_stats(trace, idx);
                }
                drop(span);
                guard.checkpoint().map_err(CoreError::Budget)?;
                let value = {
                    let _s = ctx.phase("eval");
                    gql_xpath::evaluate_in(doc, parsed, idx, ctx).map_err(engine_err_xpath)?
                };
                let eval_time = start.elapsed();
                let span = ctx.phase("construct");
                let before = sink.nodes();
                sink.start("answer");
                let count = match value {
                    gql_xpath::XValue::Nodes(items) => {
                        let mut nodes = 0;
                        for n in items.into_iter().filter_map(gql_xpath::Item::as_node) {
                            sink.subtree(doc, n);
                            nodes += 1;
                        }
                        nodes
                    }
                    // Scalar results (count(), sum(), booleans) become the
                    // answer's text, and count 1 result value.
                    other => {
                        sink.text(&other.string(doc));
                        1
                    }
                };
                sink.end();
                if trace.is_enabled() {
                    trace.count("nodes_built", sink.nodes() - before + DOCUMENT_NODE);
                }
                drop(span);
                guard.checkpoint().map_err(CoreError::Budget)?;
                trace.count("results", count as u64);
                Ok(RunOutcome {
                    output: (),
                    result_count: count,
                    eval_time,
                    load_time: Duration::ZERO,
                    profile: None,
                    inference,
                    plan: plan_text,
                })
            }
        }
    }
}

/// `nodes_built` of the WG-Log and XPath runs has always counted the answer
/// document's own node with the nodes put under it.
const DOCUMENT_NODE: u64 = 1;

/// Map an XML-GL error to the core taxonomy, preserving budget trips.
fn engine_err_xmlgl(e: gql_xmlgl::XmlGlError) -> CoreError {
    match e {
        gql_xmlgl::XmlGlError::Budget(g) => CoreError::Budget(g),
        e => CoreError::Engine { msg: e.to_string() },
    }
}

/// Map a WG-Log error to the core taxonomy, preserving budget trips.
fn engine_err_wglog(e: gql_wglog::WgLogError) -> CoreError {
    match e {
        gql_wglog::WgLogError::Budget(g) => CoreError::Budget(g),
        e => CoreError::Engine { msg: e.to_string() },
    }
}

/// Map an XPath error to the core taxonomy, preserving budget trips.
fn engine_err_xpath(e: gql_xpath::XPathError) -> CoreError {
    match e {
        gql_xpath::XPathError::Budget(g) => CoreError::Budget(g),
        e => CoreError::Engine { msg: e.to_string() },
    }
}

/// Record a [`DocIndex`]'s size counters onto the current span.
fn record_index_stats(trace: &Trace, idx: &DocIndex) {
    let s = idx.stats();
    trace.count("elements", s.elements as u64);
    trace.count("distinct_tags", s.distinct_tags as u64);
    trace.count("distinct_attrs", s.distinct_attrs as u64);
    trace.count("text_elements", s.text_elements as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_guard::{Budget, Guard};
    use gql_ssdm::sink::XmlSink;
    use gql_xmlgl::builder::{RuleBuilder, C, Q};

    /// A run under `budget`, nothing traced.
    fn bounded(
        engine: &Engine,
        query: &QueryKind,
        doc: &Document,
        budget: &Budget,
    ) -> Result<RunOutcome> {
        engine.execute(query, doc, RunCtx::guarded(&Guard::new(budget.clone())))
    }

    fn doc() -> Document {
        Document::parse_str(
            "<guide>\
               <restaurant><name>A</name><menu><price>20</price></menu></restaurant>\
               <restaurant><name>B</name></restaurant>\
               <restaurant><name>C</name><menu><price>40</price></menu></restaurant>\
             </guide>",
        )
        .unwrap()
    }

    /// The "restaurants offering menus" query in all three formalisms.
    fn equivalent_queries() -> Vec<QueryKind> {
        let xmlgl = RuleBuilder::new()
            .extract(
                Q::elem("restaurant")
                    .var("r")
                    .child(Q::elem("menu").var("m")),
            )
            .construct(C::elem("answer").child(C::all("r")))
            .build_program()
            .unwrap();
        let wglog = gql_wglog::dsl::parse(
            "rule { query { $r: restaurant  $m: menu  $r -menu-> $m } \
                    construct { $l: rest-list  $l -member-> $r } } goal rest-list",
        )
        .unwrap();
        vec![
            QueryKind::XmlGl(xmlgl),
            QueryKind::WgLog(wglog),
            QueryKind::XPath("//restaurant[menu]".to_string()),
        ]
    }

    #[test]
    fn all_engines_agree_on_the_selection() {
        let d = doc();
        let engine = Engine::new();
        let expected = [1usize, 1, 2]; // XML-GL: 1 answer element; WG-Log: 1 list; XPath: 2 hits
        for (q, expect) in equivalent_queries().iter().zip(expected) {
            let outcome = engine.run(q, &d).unwrap();
            assert_eq!(outcome.result_count, expect, "{q:?}");
        }
        // The actual selected restaurants: extract from the outputs.
        let outcome = engine.run(&equivalent_queries()[0], &d).unwrap();
        let root = outcome.output.root_element().unwrap();
        assert_eq!(outcome.output.child_elements(root).count(), 2);
    }

    #[test]
    fn resident_instance_skips_load() {
        let d = doc();
        let mut engine = Engine::new();
        let q = equivalent_queries().remove(1);
        let cold = engine.run(&q, &d).unwrap();
        assert!(cold.load_time > Duration::ZERO);
        engine.preload(&d);
        let warm = engine.run(&q, &d).unwrap();
        assert_eq!(warm.load_time, Duration::ZERO);
        assert_eq!(warm.result_count, cold.result_count);
    }

    #[test]
    fn resident_index_matches_cold_runs_and_detects_staleness() {
        let d = doc();
        let mut engine = Engine::new();
        let queries = equivalent_queries();
        let cold: Vec<String> = queries
            .iter()
            .map(|q| engine.run(q, &d).unwrap().output.to_xml_string())
            .collect();
        engine.preload(&d);
        assert!(engine.resident_for(&d).is_some());
        for (q, expect) in queries.iter().zip(&cold) {
            let warm = engine.run(q, &d).unwrap();
            assert_eq!(&warm.output.to_xml_string(), expect, "{q:?}");
        }
        // A different document (same lifetime, different address/shape) must
        // not be served from the resident index or the resident instance.
        let other = Document::parse_str(
            "<guide><restaurant><name>Z</name><menu><price>5</price></menu></restaurant></guide>",
        )
        .unwrap();
        assert!(engine.resident_for(&other).is_none());
        let outcome = engine
            .run(&QueryKind::XPath("//restaurant[menu]".to_string()), &other)
            .unwrap();
        assert_eq!(outcome.result_count, 1);
        let outcome = engine.run_profiled(&queries[1], &other).unwrap();
        let xml = outcome.output.to_xml_string();
        assert!(xml.contains("<name>Z</name>"), "{xml}");
        assert!(!xml.contains("<name>A</name>"), "answered from `d`: {xml}");
        assert!(outcome.load_time > Duration::ZERO);
        let profile = outcome.profile.unwrap();
        let load = profile.find("run").unwrap().find("load").unwrap();
        assert_eq!(load.note("cache"), Some("miss"));
    }

    #[test]
    fn xpath_result_document() {
        let d = doc();
        let engine = Engine::new();
        let outcome = engine
            .run(&QueryKind::XPath("//menu/price".to_string()), &d)
            .unwrap();
        assert_eq!(outcome.result_count, 2);
        let xml = outcome.output.to_xml_string();
        assert!(xml.contains("<price>20</price>"));
        assert!(xml.contains("<price>40</price>"));
    }

    #[test]
    fn scalar_xpath_results_are_answerable() {
        let d = doc();
        let engine = Engine::new();
        let outcome = engine
            .run(&QueryKind::XPath("count(//menu)".to_string()), &d)
            .unwrap();
        assert_eq!(outcome.result_count, 1);
        assert_eq!(outcome.output.to_xml_string(), "<answer>2</answer>");
    }

    #[test]
    fn unsafe_programs_are_rejected_before_evaluation() {
        use gql_ssdm::{Code, Severity};
        // A variable bound inside a negated subtree can never bind: the
        // program is unsafe and must be refused with a structured Error.
        let program = gql_xmlgl::dsl::parse_unchecked(
            "rule {\n  extract {\n    restaurant as $r {\n      not menu as $m\n    }\n  }\n  construct { answer { all $m } }\n}",
        )
        .unwrap();
        let err = Engine::new()
            .run(&QueryKind::XmlGl(program), &doc())
            .unwrap_err();
        let CoreError::Rejected { diagnostics } = err else {
            panic!("expected Rejected, got {err:?}");
        };
        assert!(diagnostics.iter().all(|d| d.severity == Severity::Error));
        assert!(diagnostics.iter().any(|d| d.code == Code::NegationScope));
        assert!(diagnostics.iter().any(|d| d.code == Code::UnsafeConstruct));
        assert!(diagnostics[0].rule.as_deref() == Some("rule 1 (restaurant)"));
        assert!(!diagnostics[0].span.is_none());

        // And the WG-Log path refuses non-stratifiable programs.
        let program = gql_wglog::dsl::parse(
            "rule { query { $a: doc  $b: doc  $a -link-> $b  not $a -q-> $b } construct { $a -p-> $b } }\n\
             rule { query { $a: doc  $b: doc  $a -p-> $b } construct { $a -q-> $b } }",
        )
        .unwrap();
        let err = Engine::new()
            .run(&QueryKind::WgLog(program), &doc())
            .unwrap_err();
        let CoreError::Rejected { diagnostics } = err else {
            panic!("expected Rejected, got {err:?}");
        };
        assert!(diagnostics.iter().any(|d| d.code == Code::NotStratifiable));
    }

    #[test]
    fn engine_errors_are_reported() {
        let d = doc();
        let engine = Engine::new();
        let err = engine
            .run(&QueryKind::XPath("///".to_string()), &d)
            .unwrap_err();
        assert!(matches!(err, CoreError::Engine { .. }));
    }

    #[test]
    fn warm_xpath_runs_keep_the_parse_span_and_the_parse_error() {
        let d = doc();
        let engine = Engine::new();
        let q = QueryKind::XPath("//restaurant[menu]".to_string());
        let cold = engine.run_profiled(&q, &d).unwrap();
        let warm = engine.run_profiled(&q, &d).unwrap();
        assert_eq!(warm.output.to_xml_string(), cold.output.to_xml_string());
        let (cold, warm) = (cold.profile.unwrap(), warm.profile.unwrap());
        assert_eq!(cold.find("plan").unwrap().note("plan_cache"), Some("miss"));
        assert_eq!(warm.find("plan").unwrap().note("plan_cache"), Some("hit"));
        // The hit parses nothing, but the span is part of the shape.
        assert!(warm.find("run").unwrap().find("parse").is_some());
        // Text that does not parse is planned and cached as `unparsed`, and
        // fails from the parse span with the parser's own message each time.
        let bad = QueryKind::XPath("///".to_string());
        let expected = gql_xpath::parse("///").unwrap_err().to_string();
        for _ in 0..2 {
            let err = engine.run(&bad, &d).unwrap_err();
            assert!(
                matches!(&err, CoreError::Engine { msg } if *msg == expected),
                "{err:?}"
            );
        }
        assert_eq!(engine.plan_cache_stats().hits, 2);
    }

    /// A document of the same node count and root level as the resident
    /// one, at any address, is another document: it is never served the
    /// resident index. The resident document itself stays resident when it
    /// moves, since its identity moves with it.
    #[test]
    fn a_document_of_equal_shape_is_not_served_stale_and_a_moved_one_stays_resident() {
        let a = Document::parse_str(
            "<guide><restaurant><name>A</name><menu><price>20</price></menu></restaurant></guide>",
        )
        .unwrap();
        // Same node count and depth profile, different content.
        let b = Document::parse_str(
            "<guide><restaurant><name>B</name><cafe><price>20</price></cafe></restaurant></guide>",
        )
        .unwrap();
        assert_eq!(a.node_count(), b.node_count());
        let mut engine = Engine::new();
        engine.preload(&a);
        let probe = engine.resident_for(&b);
        assert!(probe.is_none(), "an index built for `a` served for `b`");
        assert_eq!(engine.cache_state(probe.is_some()), "miss");
        // The query path evaluates `b` cold: `a`'s index has a `menu`
        // posting that `b` does not have.
        let outcome = engine
            .run(&QueryKind::XPath("//restaurant[cafe]".to_string()), &b)
            .unwrap();
        assert_eq!(outcome.result_count, 1);
        let moved = Box::new(a);
        assert!(engine.resident_for(&moved).is_some());
        assert_eq!(engine.cache_state(true), "hit");
    }

    #[test]
    fn profiled_runs_match_plain_runs_and_emit_nonempty_profiles() {
        let d = doc();
        let engine = Engine::new();
        for q in equivalent_queries() {
            let plain = engine.run(&q, &d).unwrap();
            let profiled = engine.run_profiled(&q, &d).unwrap();
            assert_eq!(
                plain.output.to_xml_string(),
                profiled.output.to_xml_string(),
                "tracing changed the result for {q:?}"
            );
            assert!(plain.profile.is_none());
            let profile = profiled
                .profile
                .expect("run_profiled must attach a profile");
            let run = profile.find("run").expect("root `run` span");
            assert!(run.find("analyze").is_some(), "{q:?}");
            assert!(run.find("eval").is_some(), "{q:?}");
            assert_eq!(run.counter("results"), Some(profiled.result_count as u64));
        }
    }

    #[test]
    fn profile_reports_index_cache_state() {
        let d = doc();
        let mut engine = Engine::new();
        let q = QueryKind::XPath("//restaurant[menu]".to_string());
        let cold = engine.run_profiled(&q, &d).unwrap().profile.unwrap();
        let idx = cold.find("run").unwrap().find("index").unwrap();
        assert_eq!(idx.note("cache"), Some("cold"));
        engine.preload(&d);
        let warm = engine.run_profiled(&q, &d).unwrap().profile.unwrap();
        let idx = warm.find("run").unwrap().find("index").unwrap();
        assert_eq!(idx.note("cache"), Some("hit"));
        assert_eq!(idx.counter("distinct_tags"), Some(5)); // guide restaurant name menu price
        let other = Document::parse_str("<guide><restaurant><menu/></restaurant></guide>").unwrap();
        let missed = engine.run_profiled(&q, &other).unwrap().profile.unwrap();
        let idx = missed.find("run").unwrap().find("index").unwrap();
        assert_eq!(idx.note("cache"), Some("miss"));
    }

    #[test]
    fn a_run_under_an_unlimited_budget_matches_run() {
        let d = doc();
        let engine = Engine::new();
        for q in equivalent_queries() {
            let plain = engine.run(&q, &d).unwrap();
            let bounded = bounded(&engine, &q, &d, &Budget::unlimited()).unwrap();
            assert_eq!(
                plain.output.to_xml_string(),
                bounded.output.to_xml_string(),
                "an unlimited budget changed the result for {q:?}"
            );
        }
    }

    #[test]
    fn a_bounded_run_trips_cleanly_with_partial_report() {
        let d = doc();
        let engine = Engine::new();
        // max_matches(0): the first charged candidate set trips in every
        // engine; the report must name the phase and carry counters.
        let budget = Budget::unlimited().with_max_matches(0);
        for q in equivalent_queries() {
            let err = bounded(&engine, &q, &d, &budget).unwrap_err();
            let CoreError::Budget(g) = err else {
                panic!("expected Budget error for {q:?}, got {err:?}");
            };
            assert_eq!(g.kind.name(), "matches", "{q:?}");
            assert_eq!(g.report.phase, "eval", "{q:?}");
        }
    }

    #[test]
    fn cancel_token_aborts_a_run() {
        let d = doc();
        let engine = Engine::new();
        let token = gql_guard::CancelToken::new();
        token.cancel(); // cancelled before the run even starts
        let guard = Guard::with_cancel(Budget::unlimited(), token);
        let q = QueryKind::XPath("//restaurant[menu]".to_string());
        let err = engine.execute(&q, &d, RunCtx::guarded(&guard)).unwrap_err();
        let CoreError::Budget(g) = err else {
            panic!("expected Budget error, got {err:?}");
        };
        assert_eq!(g.kind.name(), "cancelled");
    }

    /// The two faults that leave a run without an index: a failed build,
    /// and corrupt postings the integrity check rejects.
    fn index_faults() -> [fault::FaultPlan; 2] {
        [
            fault::FaultPlan::fail_index_build(),
            fault::FaultPlan::corrupt_postings(),
        ]
    }

    /// A profiled run of `q` under `plan`, on a fresh engine.
    fn faulted(
        plan: fault::FaultPlan,
        q: &QueryKind,
        d: &Document,
    ) -> (Result<RunOutcome>, Option<ExecutionProfile>) {
        fault::with_plan(plan, || {
            let trace = Trace::profiling();
            let out = Engine::new().execute(q, d, RunCtx::traced(&trace));
            (out, trace.finish())
        })
    }

    #[test]
    fn index_faults_refuse_xmlgl_by_name() {
        let d = doc();
        let mut queries = equivalent_queries();
        for q in [queries.remove(2), queries.remove(0)] {
            for (plan, reason) in index_faults().into_iter().zip([
                "the index build failed",
                "the index failed its integrity check",
            ]) {
                let (out, _) = faulted(plan.clone(), &q, &d);
                assert_eq!(
                    out.unwrap_err(),
                    CoreError::IndexUnavailable { reason },
                    "{plan:?} {q:?}"
                );
            }
        }
    }

    #[test]
    fn index_faults_leave_wglog_unaffected() {
        let d = doc();
        let q = equivalent_queries().remove(1);
        let baseline = Engine::new().run(&q, &d).unwrap().output.to_xml_string();
        for plan in index_faults() {
            let (out, _) = faulted(plan.clone(), &q, &d);
            assert_eq!(out.unwrap().output.to_xml_string(), baseline, "{plan:?}");
        }
    }

    #[test]
    fn inference_surfaces_summary_warnings_without_refusing() {
        use gql_ssdm::Code;
        let d = doc();
        let engine = Engine::new();
        // A tag that exists in no document path: every language gets its
        // inference warning, and every run still completes.
        let xmlgl = gql_xmlgl::dsl::parse(
            "rule { extract { cinema as $c } construct { answer { all $c } } }",
        )
        .unwrap();
        let out = engine.run(&QueryKind::XmlGl(xmlgl), &d).unwrap();
        assert!(out.inference.empty_rules[0]);
        assert!(out
            .inference
            .report
            .iter()
            .any(|x| x.code == Code::EmptyUnderSummary));
        assert_eq!(out.inference.root_bounds, vec![vec![0]]);

        let wglog = gql_wglog::dsl::parse(
            "rule { query { $c: cinema } construct { $l: cine-list  $l -member-> $c } } \
             goal cine-list",
        )
        .unwrap();
        let out = engine.run(&QueryKind::WgLog(wglog), &d).unwrap();
        assert!(out.inference.is_statically_empty());
        assert!(out
            .inference
            .report
            .iter()
            .any(|x| x.code == Code::DeadRule));
        assert_eq!(out.result_count, 0);

        let out = engine
            .run(&QueryKind::XPath("//cinema/name".into()), &d)
            .unwrap();
        assert!(out.inference.is_statically_empty());
        assert!(out
            .inference
            .report
            .iter()
            .any(|x| x.code == Code::PathNeverMatches));
        assert_eq!(out.result_count, 0);

        // A live query carries bounds and no warnings.
        let out = engine
            .run(&QueryKind::XPath("//restaurant/menu".into()), &d)
            .unwrap();
        assert!(out.inference.report.is_empty());
        assert_eq!(out.inference.cards.result_bound(0), Some(2));
        assert_eq!(out.result_count, 2);
    }

    #[test]
    fn summary_join_plans_are_applied_and_change_nothing() {
        let d = doc();
        // Three roots: the menu root (bound 2) is cheapest, so the planner
        // reorders away from declaration order; results must be identical.
        let program = gql_xmlgl::dsl::parse(
            r#"rule {
                 extract {
                   restaurant { name { text as $a } }
                   menu as $m
                   name { text as $b }
                   join $a == $b
                 }
                 construct { answer { all $m } }
               }"#,
        )
        .unwrap();
        let baseline = gql_xmlgl::eval::run(&program, &d).unwrap().to_xml_string();
        let engine = Engine::new();
        let q = QueryKind::XmlGl(program);
        let out = engine.run_profiled(&q, &d).unwrap();
        assert_eq!(out.output.to_xml_string(), baseline);
        let profile = out.profile.unwrap();
        let run = profile.find("run").unwrap();
        assert_eq!(run.find("eval").unwrap().counter("planned_rules"), Some(1));
        let matched = run
            .find("eval")
            .and_then(|e| e.find("rule[0]"))
            .and_then(|r| r.find("match"))
            .unwrap();
        assert!(
            matched.note("combine_plan").is_some(),
            "planned combine must record its order"
        );
    }

    /// One helper: the `plan_cache` note of a profiled run.
    fn plan_cache_note(profile: &ExecutionProfile) -> Option<String> {
        profile
            .find("run")
            .and_then(|r| r.find("plan"))
            .and_then(|p| p.note("plan_cache"))
            .map(str::to_string)
    }

    #[test]
    fn plan_cache_serves_warm_runs_identically() {
        let d = doc();
        let engine = Engine::new();
        for q in equivalent_queries() {
            let cold = engine.run_profiled(&q, &d).unwrap();
            let warm = engine.run_profiled(&q, &d).unwrap();
            assert_eq!(
                cold.output.to_xml_string(),
                warm.output.to_xml_string(),
                "a warm plan changed the answer for {q:?}"
            );
            assert_eq!(
                plan_cache_note(cold.profile.as_ref().unwrap()).as_deref(),
                Some("miss"),
                "{q:?}"
            );
            assert_eq!(
                plan_cache_note(warm.profile.as_ref().unwrap()).as_deref(),
                Some("hit"),
                "{q:?}"
            );
            // The cached inference is the one the cold run computed.
            assert_eq!(
                format!("{:?}", cold.inference.report),
                format!("{:?}", warm.inference.report)
            );
            assert_eq!(cold.inference.root_bounds, warm.inference.root_bounds);
        }
        let stats = engine.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.replans), (3, 3, 0));
        assert_eq!(engine.plan_cache_len(), 3);
        engine.clear_plan_cache();
        assert_eq!(engine.plan_cache_len(), 0);
        assert_eq!(engine.plan_cache_stats().hits, 3, "counters survive clear");
    }

    #[test]
    fn plan_cache_keys_on_document_fingerprint_and_shares_across_budgets() {
        let mut d = doc();
        let engine = Engine::new();
        let q = QueryKind::XPath("//restaurant[menu]".to_string());
        engine.run(&q, &d).unwrap();
        engine.run(&q, &d).unwrap();
        assert_eq!(engine.plan_cache_stats().hits, 1);
        // Mutating the document changes its shallow fingerprint, so the
        // stale plan is not served.
        let root = d.root_element().unwrap();
        d.add_element(root, "restaurant");
        engine.run(&q, &d).unwrap();
        let s = engine.plan_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        // Planning reads no budget: a capped and a timed run are served
        // the entry the unlimited run planned, and no second one is made.
        let capped = Budget::unlimited().with_max_matches(1_000_000);
        let timed = Budget::unlimited().with_timeout_ms(60_000);
        bounded(&engine, &q, &d, &capped).unwrap();
        bounded(&engine, &q, &d, &timed).unwrap();
        let s = engine.plan_cache_stats();
        assert_eq!((s.hits, s.misses), (3, 2));
        assert_eq!(engine.plan_cache_len(), 2, "one entry per fingerprint");
    }

    #[test]
    fn corrupt_plan_cache_entries_are_replanned_with_identical_answers() {
        let d = doc();
        let engine = Engine::new();
        for q in equivalent_queries() {
            // Warm the cache, then run with the corruption fault armed: the
            // poisoned entry must fail validation and be replanned, with a
            // byte-identical answer.
            let baseline = engine.run(&q, &d).unwrap().output.to_xml_string();
            let (xml, profile) = fault::with_plan(fault::FaultPlan::corrupt_plan_cache(), || {
                let trace = Trace::profiling();
                let out = engine.execute(&q, &d, RunCtx::traced(&trace)).unwrap();
                (out.output.to_xml_string(), trace.finish().unwrap())
            });
            assert_eq!(baseline, xml, "replan changed the answer for {q:?}");
            assert_eq!(
                plan_cache_note(&profile).as_deref(),
                Some("replan"),
                "{q:?}"
            );
        }
        assert_eq!(engine.plan_cache_stats().replans, 3);
        // With the fault gone the replanned entries serve hits again.
        let q = equivalent_queries().remove(0);
        let profile = engine.run_profiled(&q, &d).unwrap().profile.unwrap();
        assert_eq!(plan_cache_note(&profile).as_deref(), Some("hit"));
    }

    #[test]
    fn plan_span_records_the_lowered_plan_and_join_order() {
        let d = doc();
        let engine = Engine::new();
        // The 3-root join query: the optimizer must pick a non-declared
        // order and record it.
        let program = gql_xmlgl::dsl::parse(
            r#"rule {
                 extract {
                   restaurant { name { text as $a } }
                   menu as $m
                   name { text as $b }
                   join $a == $b
                 }
                 construct { answer { all $m } }
               }"#,
        )
        .unwrap();
        let profile = engine
            .run_profiled(&QueryKind::XmlGl(program), &d)
            .unwrap()
            .profile
            .unwrap();
        let plan = profile.find("run").unwrap().find("plan").unwrap();
        let compact = plan.note("plan").expect("plan note");
        assert!(compact.contains("HashJoin"), "{compact}");
        assert!(compact.contains("Construct"), "{compact}");
        let order = plan.note("join_order[0]").expect("join order note");
        assert_ne!(order, "0,1,2", "optimizer must reorder this query");
    }

    #[test]
    fn a_prepared_query_runs_as_its_query_does_and_keys_by_its_print() {
        let d = doc();
        let engine = Engine::new();
        for q in equivalent_queries() {
            let prepared = Prepared::new(q.clone());
            let direct = engine.run(&q, &d).unwrap();
            for _ in 0..2 {
                let mut xml = String::new();
                let out = engine
                    .execute_into(&prepared, &d, RunCtx::none(), &mut XmlSink::new(&mut xml))
                    .unwrap();
                assert_eq!(xml, direct.output.to_xml_string(), "{q:?}");
                assert_eq!(out.plan, direct.plan, "{q:?}");
            }
        }
        let s = engine.plan_cache_stats();
        assert_eq!((s.hits, s.misses), (6, 3));
        // Two texts that print alike have one key; the key is not the text.
        let parse = |src| Prepared::new(QueryKind::XmlGl(gql_xmlgl::dsl::parse(src).unwrap()));
        let a = parse("rule { extract { menu as $m } construct { answer { all $m } } }");
        let b = parse("rule {\n  extract { menu as $m }\n  construct { answer { all $m } }\n}");
        assert_eq!(a.canonical(), b.canonical());
        assert!(a.canonical().starts_with("xmlgl:rule"), "{}", a.canonical());
        assert!(a.verdict().is_ok());
    }

    #[test]
    fn wglog_profile_reports_load_and_fixpoint_shape() {
        let d = doc();
        let engine = Engine::new();
        let q = equivalent_queries().remove(1);
        let profile = engine.run_profiled(&q, &d).unwrap().profile.unwrap();
        let run = profile.find("run").unwrap();
        assert_eq!(run.note("engine"), Some("wglog"));
        let load = run.find("load").unwrap();
        assert_eq!(load.note("cache"), Some("cold"));
        assert!(load.counter("objects").unwrap() > 0);
        let eval = run.find("eval").unwrap();
        assert!(eval.find("stratify").is_some());
        let stratum = eval.find("stratum[0]").expect("one stratum");
        assert!(stratum.find("round[0]").is_some(), "fixpoint rounds traced");
        assert!(run.find("construct").is_some());
    }

    /// An `XmlSink` that counts the events and the prewritten runs it gets.
    struct Counting<'a> {
        sink: XmlSink<'a>,
        /// `start`s, `text`s and `prewritten`s.
        counts: [usize; 3],
    }

    impl Sink for Counting<'_> {
        fn start(&mut self, name: &str) {
            self.counts[0] += 1;
            self.sink.start(name);
        }
        fn attr(&mut self, name: &str, value: &str) {
            self.sink.attr(name, value);
        }
        fn text(&mut self, text: &str) {
            self.counts[1] += 1;
            self.sink.text(text);
        }
        fn end(&mut self) {
            self.sink.end();
        }
        fn subtree(&mut self, src: &Document, node: gql_ssdm::NodeId) {
            self.sink.subtree(src, node);
        }
        fn prewritten(&mut self, xml: &str, nodes: u64, _: impl FnOnce(&mut Self)) {
            self.counts[2] += 1;
            self.sink
                .prewritten(xml, nodes, |_| unreachable!("the writer copies"));
        }
        fn nodes(&self) -> u64 {
            self.sink.nodes()
        }
    }

    /// WG-Log Q1 over a preloaded scale-100 city guide writes each base
    /// object's attribute children as one prewritten run, with no `start`
    /// or `text` of its own; a cold run says them attribute by attribute.
    #[test]
    fn a_preloaded_wglog_answer_copies_each_base_objects_attributes_in_one_run() {
        let city = gql_ssdm::generator::cityguide(gql_ssdm::generator::CityConfig {
            restaurants: 100,
            hotels: 25,
            seed: 1,
        });
        // Q1 as `gql-benchmark` sends it.
        let q1 = QueryKind::WgLog(
            gql_wglog::dsl::parse(
                "rule { query { $r: restaurant } construct { $l: answer $l -member-> $r } } \
                 goal answer",
            )
            .unwrap(),
        );
        let counted = |engine: &Engine| {
            let mut xml = String::new();
            let mut sink = Counting {
                sink: XmlSink::new(&mut xml),
                counts: [0; 3],
            };
            let prepared = Prepared::borrowed(&q1);
            engine
                .execute_into(&prepared, &city, RunCtx::none(), &mut sink)
                .unwrap();
            (sink.counts, sink.nodes(), xml)
        };
        let mut preloaded = Engine::new();
        preloaded.preload(&city);
        let (cold, cold_nodes, cold_xml) = counted(&Engine::new());
        let (warm, warm_nodes, warm_xml) = counted(&preloaded);
        assert_eq!((warm_nodes, &warm_xml), (cold_nodes, &cold_xml));

        // The answer: the wrapper, one invented `answer` object, each
        // restaurant (a base object) and the base objects its edges reach.
        let db = Instance::from_document(&city);
        let emitted: Vec<_> = (db.objects_of_type("restaurant"))
            .flat_map(|r| std::iter::once(r).chain(db.out_edges(r).map(|e| e.to)))
            .map(|id| db.object(id).attr_count())
            .collect();
        let attrs: usize = emitted.iter().sum();
        let with_attrs = emitted.iter().filter(|&&n| n > 0).count();
        assert!(
            with_attrs > 300,
            "{with_attrs} base objects with attributes"
        );
        let objects = 2 + emitted.len();
        assert_eq!(cold, [objects + attrs, attrs, 0]);
        assert_eq!(warm, [objects, 0, with_attrs]);
    }
}
