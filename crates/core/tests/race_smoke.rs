//! Concurrency smoke tests: what `gql-serve`'s workers share — one
//! `Document` + `DocIndex` per dataset, one `Engine`, a run's cancel token
//! tripped from another thread — hammered from many threads at once. (A
//! `Trace` and a `Guard` are not shared: they belong to the thread running
//! an evaluation, and the compiler holds them there.) These are the tier-1
//! stand-ins for a sanitizer pass — CI additionally runs the guard and
//! trace suites under miri (nightly) for data-race/UB detection; this file
//! covers the matcher and the engine over generated documents, which are
//! too heavy to interpret there.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use gql_core::{Engine, QueryKind};
use gql_guard::{Budget, CancelToken, Guard, RunCtx};
use gql_ssdm::{generator, DocIndex};
use gql_xmlgl::ast::Rule;
use gql_xmlgl::eval::{match_rule_in, JoinPlan};

fn join_rule() -> Rule {
    gql_xmlgl::dsl::parse(
        "rule { extract { restaurant as $r { name { text as $n } } } \
         construct { out { all $r } } }",
    )
    .unwrap()
    .rules
    .remove(0)
}

/// Eight threads each run the (single-threaded) matcher over one shared
/// document and index, as service workers do over the catalog's
/// `Arc<Dataset>`, and each run equals one serial run.
#[test]
fn shared_document_and_index_match_like_a_serial_run_under_thread_storm() {
    let doc = generator::cityguide(Default::default());
    let idx = DocIndex::build(&doc);
    let rule = join_rule();
    let baseline = match_rule_in(
        &rule,
        &doc,
        &idx,
        &JoinPlan::new(&rule, None),
        RunCtx::none(),
    );
    assert!(!baseline.is_empty(), "storm baseline must not be vacuous");
    thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..16 {
                    let got = match_rule_in(
                        &rule,
                        &doc,
                        &idx,
                        &JoinPlan::new(&rule, None),
                        RunCtx::none(),
                    );
                    assert!(got == baseline, "bindings diverged from the serial run");
                }
            });
        }
    });
}

/// Regression for the shared-use `plan_cache_stats()` fix: a shared engine
/// hammered by querying threads while other threads continuously snapshot
/// the counters. Every snapshot must satisfy the seqlock invariant
/// (`lookups == hits + misses`) and be monotonic — a torn read (hits from
/// after a probe, misses from before) would violate both.
#[test]
fn shared_engine_stats_snapshots_are_consistent_under_storm() {
    let doc = generator::cityguide(Default::default());
    let engine = Arc::new(Engine::new());
    let queries = [
        "/city/restaurant/name",
        "//restaurant",
        "/city/hotel/name",
        "//name",
    ];
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        // Readers: snapshot continuously while the storm runs.
        for _ in 0..2 {
            s.spawn(|| {
                let mut last_lookups = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let stats = engine.plan_cache_stats();
                    assert!(
                        stats.is_consistent(),
                        "torn stats snapshot: hits={} misses={} lookups={}",
                        stats.hits,
                        stats.misses,
                        stats.lookups
                    );
                    assert!(stats.lookups >= last_lookups, "lookups went backwards");
                    last_lookups = stats.lookups;
                }
            });
        }
        // Writers: concurrent queries through one shared engine, mixing
        // warm hits and (via distinct queries) cold misses.
        let storm: Vec<_> = (0..4)
            .map(|t| {
                let engine = Arc::clone(&engine);
                let doc = &doc;
                s.spawn(move || {
                    for i in 0..24 {
                        let q = QueryKind::XPath(queries[(t + i) % queries.len()].to_string());
                        engine.run(&q, doc).expect("storm query must succeed");
                    }
                })
            })
            .collect();
        for h in storm {
            h.join().expect("storm thread panicked");
        }
        done.store(true, Ordering::Relaxed);
    });
    let stats = engine.plan_cache_stats();
    assert!(stats.is_consistent());
    assert_eq!(
        stats.lookups,
        4 * 24,
        "every run probes the cache exactly once"
    );
    // Probe and insert are separate critical sections, so two threads can
    // race the same cold key and both miss — but never fewer misses than
    // distinct queries, and the storm is warm-heavy so hits dominate.
    assert!(
        stats.misses >= queries.len() as u64,
        "each distinct query plans cold at least once"
    );
    assert!(stats.hits > stats.misses, "warm storm must be hit-heavy");
}

#[test]
fn cancellation_mid_match_is_clean() {
    let doc = generator::cityguide(Default::default());
    let idx = DocIndex::build(&doc);
    let rule = join_rule();
    let baseline = match_rule_in(
        &rule,
        &doc,
        &idx,
        &JoinPlan::new(&rule, None),
        RunCtx::none(),
    );
    // Cancel at increasing delays: from "before the run starts" to "long
    // after it finished". Every variant must return without panicking or
    // deadlocking, and can only ever see a truncated result.
    for delay in [0u64, 50, 500, 5_000] {
        let cancel = CancelToken::new();
        let guard = Guard::with_cancel(Budget::unlimited(), cancel.clone());
        let got = thread::scope(|s| {
            let canceller = cancel.clone();
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(delay));
                canceller.cancel();
            });
            let ctx = RunCtx::guarded(&guard);
            match_rule_in(&rule, &doc, &idx, &JoinPlan::new(&rule, None), ctx)
        });
        assert!(
            got.len() <= baseline.len(),
            "cancelled run invented bindings ({} > {})",
            got.len(),
            baseline.len()
        );
    }
}
