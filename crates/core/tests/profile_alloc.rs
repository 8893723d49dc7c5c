//! The always-on request profile costs no heap allocation: a warm
//! `Engine::execute` of each surface's Q1 against the resident point-sized
//! city guide, traced into a log that has already served one request,
//! allocates no more than the same run with tracing off — the record
//! itself adds nothing, and every computed label is formatted into it in
//! place. The untraced run is held to a ceiling of its own, which only ever
//! goes down, and the run that writes its answer instead of building it
//! allocates fewer times still: a reply buffer's doublings for a document's
//! pools. One test, so that nothing else allocates in this binary while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gql_core::{Engine, QueryKind};
use gql_guard::RunCtx;
use gql_ssdm::generator::{cityguide, CityConfig};
use gql_ssdm::sink::XmlSink;
use gql_trace::{Trace, TraceLog};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
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
    // most the untraced run may allocate.
    let q1 = [
        (
            QueryKind::XmlGl(
                gql_xmlgl::dsl::parse(
                    "rule { extract { restaurant as $r } construct { answer { all $r } } }",
                )
                .unwrap(),
            ),
            1,
            112,
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
            207,
        ),
        (QueryKind::XPath("//restaurant".to_string()), 0, 67),
    ];
    for (query, engine_side, ceiling) in &q1 {
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
            untraced <= *ceiling,
            "{query:?}: {untraced} allocations, ceiling {ceiling}"
        );
        // What the service runs: the same request, its answer as bytes.
        let written = allocations(|| {
            let mut xml = String::new();
            engine
                .execute_into(query, &city, RunCtx::none(), &mut XmlSink::new(&mut xml))
                .expect("Q1 runs");
            drop(xml);
        });
        assert!(
            written < untraced,
            "{query:?}: {written} allocations written, {untraced} built"
        );
    }
}
