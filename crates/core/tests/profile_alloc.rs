//! Counting bars: allocations repeat exactly, so they are held to ceilings
//! that only ever go down.
//!
//! The always-on request profile costs no heap allocation: a warm
//! `Engine::execute` of each surface's Q1 against the resident point-sized
//! city guide, traced into a log that has already served one request,
//! allocates no more than the same run with tracing off — the record
//! itself adds nothing, and every computed label is formatted into it in
//! place. The untraced run is held to a ceiling of its own, and so is the
//! run that writes its answer instead of building it, which allocates fewer
//! times still: a reply buffer's doublings for a document's pools, and no
//! parse, print or gate, since the service prepares a query once.
//!
//! The XML-GL matcher allocates per rule, not per candidate: its binding
//! table is one buffer, so matching a document four times the size costs a
//! few more doublings and nothing else. So does WG-Log's embedding search:
//! its embeddings are rows of one flat table and its candidates go to one
//! reused buffer per search depth.
//!
//! Allocations are counted per thread, so the tests of this binary (and the
//! harness printing their verdicts) do not disturb one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gql_core::{Engine, Prepared, QueryKind};
use gql_guard::RunCtx;
use gql_ssdm::generator::{
    bibliography, cityguide, greengrocer, BibConfig, CityConfig, GrocerConfig,
};
use gql_ssdm::sink::XmlSink;
use gql_ssdm::{DocIndex, Summary};
use gql_trace::{Trace, TraceLog};
use gql_xmlgl::eval::JoinPlan;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it allocates
    // nothing, which is what lets the allocator itself do so.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_warm_profiled_run_allocates_no_more_than_an_unprofiled_one() {
    let city = cityguide(CityConfig {
        restaurants: 8,
        hotels: 2,
        seed: 11,
    });
    let mut engine = Engine::new();
    engine.preload(&city);
    // Q1, "all restaurants", as each surface states it; what the engine
    // itself allocates only when a trace is listening, per run: the XML-GL
    // matcher's per-query-node candidate tally (one `Vec` per rule); and the
    // most the untraced run may allocate, built and written.
    let q1 = [
        (
            QueryKind::XmlGl(
                gql_xmlgl::dsl::parse(
                    "rule { extract { restaurant as $r } construct { answer { all $r } } }",
                )
                .unwrap(),
            ),
            1,
            (90, 29),
        ),
        (
            QueryKind::WgLog(
                gql_wglog::dsl::parse(
                    "rule { query { $r: restaurant } construct { $l: answer $l -member-> $r } } \
                     goal answer",
                )
                .unwrap(),
            ),
            0,
            (160, 84),
        ),
        (QueryKind::XPath("//restaurant".to_string()), 0, (64, 15)),
    ];
    for (query, engine_side, (built_ceiling, written_ceiling)) in &q1 {
        let run = |trace: &Trace| {
            let outcome = engine
                .execute(query, &city, RunCtx::traced(trace))
                .expect("Q1 runs");
            drop(outcome);
        };
        let mut log = TraceLog::new();
        // One warm-up request: plants the plan, sizes the log.
        log.record(run);
        let untraced = allocations(|| run(&Trace::disabled()));
        let profiled = allocations(|| log.record(run));
        assert!(log.probes() >= 30, "{} probes", log.probes());
        assert!(
            profiled <= untraced + engine_side,
            "{query:?}: {profiled} allocations profiled, {untraced} unprofiled"
        );
        assert!(
            untraced <= *built_ceiling,
            "{query:?}: {untraced} allocations, ceiling {built_ceiling}"
        );
        // What the service runs: the same request, prepared once, its
        // answer as bytes.
        let prepared = Prepared::borrowed(query);
        let written = allocations(|| {
            let mut xml = String::new();
            engine
                .execute_into(
                    &prepared,
                    &city,
                    RunCtx::none(),
                    &mut XmlSink::new(&mut xml),
                )
                .expect("Q1 runs");
            drop(xml);
        });
        assert!(
            written <= *written_ceiling && written < untraced,
            "{query:?}: {written} allocations written, ceiling {written_ceiling}; {untraced} built"
        );
    }
}

/// Q1–Q9 as `gql-benchmark` sends them, matched once against the scale-1000
/// datasets and once against the scale-4000 ones.
#[test]
fn the_matcher_allocates_per_rule_not_per_candidate() {
    macro_rules! q {
        ($n:literal) => {
            include_str!(concat!("../../../gql-benchmark/queries/q0", $n, ".xmlgl"))
        };
    }
    let queries = [
        q!(1),
        q!(2),
        q!(3),
        q!(4),
        q!(5),
        q!(6),
        q!(7),
        q!(8),
        q!(9),
    ];
    let counts = |scale: usize| -> Vec<usize> {
        let city = cityguide(CityConfig {
            restaurants: scale,
            hotels: scale / 4,
            seed: 11,
        });
        let grocer = greengrocer(GrocerConfig {
            products: scale,
            vendors: 10,
            seed: 13,
        });
        let (city_idx, grocer_idx) = (DocIndex::build(&city), DocIndex::build(&grocer));
        (queries.iter().enumerate())
            .map(|(i, src)| {
                let program = gql_xmlgl::dsl::parse(src).expect("a benchmark query parses");
                // Q6 is the value join over the greengrocer.
                let (doc, idx) = match i {
                    5 => (&grocer, &grocer_idx),
                    _ => (&city, &city_idx),
                };
                let mut rows = 0;
                let count = allocations(|| {
                    let (rule, ctx) = (&program.rules[0], RunCtx::none());
                    let plan = JoinPlan::new(rule, None);
                    rows = gql_xmlgl::eval::match_rule_in(rule, doc, idx, &plan, ctx).len();
                });
                assert!(
                    rows >= scale / 8,
                    "Q{}: {rows} rows at scale {scale}",
                    i + 1
                );
                count
            })
            .collect()
    };
    let (small, large) = (counts(1000), counts(4000));
    // 2,011–21,138 per query, 103,318 in all, while a row was a `Vec` of
    // owned values and every candidate returned a `Vec` of rows.
    assert!(small.iter().all(|&n| n <= 64), "at scale 1000: {small:?}");
    assert!(
        small.iter().sum::<usize>() < 600,
        "at scale 1000: {small:?}"
    );
    // Four times the candidates are two more doublings of each buffer that
    // grows with them — a table, two stages of join rows, a hash table's
    // build side — and not one allocation besides.
    for (q, (small, large)) in small.iter().zip(&large).enumerate() {
        assert!(
            *large <= small + 8,
            "Q{}: {small} allocations at scale 1000, {large} at 4000",
            q + 1
        );
    }
}

/// Q1, Q2, Q3, Q5 and Q10 as `gql-benchmark` sends them in WG-Log: each
/// rule's embedding search over its own fixpoint's result, at scale 1000
/// and at scale 4000.
#[test]
fn the_embedding_search_allocates_per_rule_not_per_candidate() {
    macro_rules! q {
        ($n:literal) => {
            (
                $n,
                include_str!(concat!("../../../gql-benchmark/queries/", $n, ".wglog")),
            )
        };
    }
    let queries = [q!("q01"), q!("q02"), q!("q03"), q!("q05"), q!("q10")];
    // Per rule: its name, embeddings and allocations.
    let counts = |scale: usize| -> Vec<(String, usize, usize)> {
        let city = cityguide(CityConfig {
            restaurants: scale,
            hotels: scale / 4,
            seed: 11,
        });
        let db = gql_wglog::Instance::from_document(&city);
        let mut out = Vec::new();
        for (name, src) in &queries {
            let program = gql_wglog::dsl::parse(src).expect("a benchmark query parses");
            let (result, _) =
                gql_wglog::eval::run_with(&program, &db, gql_wglog::eval::FixpointMode::SemiNaive)
                    .expect("a benchmark query runs");
            for (i, rule) in program.rules.iter().enumerate() {
                let mut rows = 0;
                let count = allocations(|| rows = gql_wglog::eval::embeddings(rule, &result).len());
                out.push((format!("{name} rule {}", i + 1), rows, count));
            }
        }
        out
    };
    let (small, large) = (counts(1000), counts(4000));
    // Up to 23,502 for one query while every embedding, every candidate
    // list and every negated check was a `Vec`.
    for (rule, rows, count) in &small {
        assert!(*rows >= 96, "{rule}: {rows} embeddings at scale 1000");
        assert!(*count <= 32, "{rule}: {count} allocations at scale 1000");
    }
    // Four times the embeddings are two more doublings of the table and of
    // the candidate buffers, and not one allocation besides.
    for ((rule, _, small), (_, _, large)) in small.iter().zip(&large) {
        assert!(
            *large <= small + 8,
            "{rule}: {small} allocations at scale 1000, {large} at 4000"
        );
    }
}

/// Q1, Q2, Q3, Q5 and Q10 as `gql-benchmark` sends them in WG-Log, each
/// run to its fixpoint over the loaded scale-1000 guide and over the
/// scale-4000 one. A derived edge is integer probes and pushes into the
/// instance's tables, so four times the derived edges are a few more
/// doublings of those tables and nothing else.
#[test]
fn the_fixpoint_allocates_per_rule_not_per_derived_edge() {
    macro_rules! q {
        ($n:literal) => {
            (
                $n,
                include_str!(concat!("../../../gql-benchmark/queries/", $n, ".wglog")),
            )
        };
    }
    let queries = [q!("q01"), q!("q02"), q!("q03"), q!("q05"), q!("q10")];
    // Per query: its name, the edges its fixpoint derived, and its
    // allocations.
    let counts = |scale: usize| -> Vec<(&str, usize, usize)> {
        let city = cityguide(CityConfig {
            restaurants: scale,
            hotels: scale / 4,
            seed: 11,
        });
        let db = gql_wglog::Instance::from_document(&city);
        (queries.iter())
            .map(|&(name, src)| {
                let program = gql_wglog::dsl::parse(src).expect("a benchmark query parses");
                let mut edges = 0;
                let count = allocations(|| {
                    let (result, stats) = gql_wglog::eval::run_with(
                        &program,
                        &db,
                        gql_wglog::eval::FixpointMode::SemiNaive,
                    )
                    .expect("a benchmark query runs");
                    edges = stats.edges_created;
                    drop(result);
                });
                (name, edges, count)
            })
            .collect()
    };
    let (small, large) = (counts(1000), counts(4000));
    // 104–234 at scale 1000, and 10–18 more at 4000. While each derived
    // edge was a `String` and up to four `Vec`s, the differences ran to
    // the thousands.
    for (&(name, edges, small), &(_, large_edges, large)) in small.iter().zip(&large) {
        assert!(edges >= 96, "{name}: {edges} edges derived at scale 1000");
        assert!(
            large_edges >= 3 * edges,
            "{name}: {large_edges} edges at scale 4000"
        );
        assert!(
            large <= small + 20,
            "{name}: {small} allocations at scale 1000, {large} at 4000"
        );
    }
}

/// Q2–Q6 in XPath as `gql-benchmark` sends them, written into an
/// `XmlSink` by a preloaded engine at scale 1000 and at scale 4000. Each
/// path is one tree pattern, its predicates conditions on its nodes, so a
/// predicate builds no node-set per candidate: four times the candidates
/// are a few more doublings of the reply, and nothing else.
#[test]
fn a_predicate_allocates_per_query_not_per_candidate() {
    macro_rules! q {
        ($n:literal) => {
            (
                $n,
                include_str!(concat!("../../../gql-benchmark/queries/", $n, ".xpath")),
            )
        };
    }
    let queries = [q!("q02"), q!("q03"), q!("q04"), q!("q05"), q!("q06")];
    let counts = |scale: usize| -> Vec<(&str, usize)> {
        let city = cityguide(CityConfig {
            restaurants: scale,
            hotels: scale / 4,
            seed: 11,
        });
        let grocer = greengrocer(GrocerConfig {
            products: scale,
            vendors: 10,
            seed: 13,
        });
        let (mut city_engine, mut grocer_engine) = (Engine::new(), Engine::new());
        city_engine.preload(&city);
        grocer_engine.preload(&grocer);
        (queries.iter())
            .map(|&(name, src)| {
                // Q6 is the value join over the greengrocer.
                let (engine, doc) = match name {
                    "q06" => (&grocer_engine, &grocer),
                    _ => (&city_engine, &city),
                };
                let query = QueryKind::XPath(src.trim().to_string());
                let prepared = Prepared::borrowed(&query);
                let run = || {
                    let mut xml = String::new();
                    engine
                        .execute_into(&prepared, doc, RunCtx::none(), &mut XmlSink::new(&mut xml))
                        .expect("a benchmark query runs");
                    xml.len()
                };
                // One warm-up run: plants the plan.
                let written = run();
                assert!(written > 1000, "{name}: {written} bytes at scale {scale}");
                let count = allocations(|| {
                    run();
                });
                (name, count)
            })
            .collect()
    };
    let (small, large) = (counts(1000), counts(4000));
    // 1,012–2,924 at scale 1000, and three or four times that at 4000,
    // while each candidate's predicate built the node-sets it compared.
    for (&(name, small), &(_, large)) in small.iter().zip(&large) {
        assert!(small <= 32, "{name}: {small} allocations at scale 1000");
        assert!(
            large <= small + 8,
            "{name}: {small} allocations at scale 1000, {large} at 4000"
        );
    }
}

/// `Engine::preload` of the 400-book bibliography that `gql-benchmark`'s
/// `reload_mixed` reloads does each piece of load work once: the index
/// resolves the ID/IDREF references, the summary walks its element list
/// keyed by symbol, and the WG-Log base is filled into pooled tables sized
/// up front. The summary's allocations are per path, tag and attribute
/// name, so four times the books cost it none more.
#[test]
fn a_preload_allocates_per_table_not_per_element() {
    let bib = |books: usize| {
        bibliography(BibConfig {
            books,
            people: books / 2,
            seed: 7,
        })
    };
    let doc = bib(400);
    let mut engine = Engine::new();
    let preload = allocations(|| engine.preload(&doc));
    // 21,356 while the summary and the loader each resolved the references
    // themselves, the summary keyed its walk by `String`s and the loader
    // kept an owned `Object` per element; 290 while the index kept a hashed
    // `Vec` of postings per tag and attribute name. 270 in each of 18 runs,
    // so the ceiling is the count itself.
    assert!(preload <= 270, "{preload} allocations to preload 400 books");
    let summary = |books: usize| {
        let doc = bib(books);
        let idx = DocIndex::build(&doc);
        allocations(|| drop(Summary::from_index(&doc, &idx)))
    };
    let (small, large) = (summary(400), summary(1600));
    assert_eq!(
        small, large,
        "Summary::from_index: {small} allocations at 400 books, {large} at 1,600"
    );
}
