//! A hoisted absolute path read by `count`, `sum`, `not`, `boolean`,
//! arithmetic or a predicate's verdict is shared by every candidate: the
//! set is evaluated, charged and allocated once, not once per candidate.
//! One test, so that nothing else allocates in this binary while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gql_guard::{Budget, Guard, RunCtx};
use gql_ssdm::{DocIndex, Document};
use gql_xpath::{evaluate_in, parse};

struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N: usize = 1_000;

#[test]
fn a_hoisted_set_is_charged_and_allocated_once_for_a_thousand_candidates() {
    let mut doc = Document::new();
    let root = doc.add_element(doc.root(), "r");
    for _ in 0..N {
        doc.add_element(root, "p");
    }
    for _ in 0..N {
        doc.add_text_element(root, "b", "1");
    }
    let idx = DocIndex::build(&doc);
    // The query, its hits, and how many `//b` it spells out: the memo is
    // per occurrence in the expression.
    for (xpath, hits, inner) in [
        ("//p[//b]", N, 1),
        ("//p[count(//b) > 1]", N, 1),
        ("//p[sum(//b) = 1000]", N, 1),
        ("//p[not(//b)]", 0, 1),
        ("//p[boolean(//b) and //b + 1 = 2]", N, 2),
    ] {
        let expr = parse(xpath).unwrap();
        let guard = Guard::new(Budget::unlimited());
        let before = ALLOCATED.load(Ordering::Relaxed);
        let found = evaluate_in(&doc, &expr, &idx, RunCtx::guarded(&guard))
            .unwrap()
            .into_nodes()
            .unwrap();
        let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
        assert_eq!(found.len(), hits, "{xpath}");
        // One round for the pattern `//p[…]` and one for each `//b`; the
        // candidates and each inner set are charged once.
        let report = guard.report().unwrap();
        assert_eq!(report.rounds, 1 + inner, "{xpath}");
        let charged = (1 + inner) * (N as u64 + 1);
        assert!(report.matches <= charged, "{xpath}: {}", report.matches);
        // A copy per candidate would be N × N items, 16 MB.
        assert!(
            allocated < 256 << 10,
            "{xpath}: {allocated} bytes allocated"
        );
    }
}
