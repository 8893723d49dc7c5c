//! Building, writing and dropping an answer costs no heap allocation per
//! node: the Q1 answer of the scale-1000 city guide (every `restaurant`
//! subtree copied under one `answer` element) under a counting allocator,
//! through the builder sink and then through the writer sink, which
//! allocates nothing but its buffer, and then from the guide's serialized
//! image, where each copy is one append and the buffer is again all that
//! allocates.
//! Nor does reading a document: parsing the guide's own serialisation costs
//! the pools' doublings, the interned names and a copy per text that had a
//! reference to decode. Nor does indexing it: a `DocIndex` is its numbering
//! arrays and one exactly sized posting list per tag and attribute name. One
//! test, so that nothing else allocates in this binary while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gql_ssdm::generator::{cityguide, CityConfig};
use gql_ssdm::sink::{DocSink, Sink, XmlSink};
use gql_ssdm::{Document, NodeId};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The Q1 answer as the XPath arm of `Engine::execute_into` emits it.
fn emit_answer(guide: &Document, restaurants: &[NodeId], sink: &mut impl Sink) {
    sink.start("answer");
    for &r in restaurants {
        sink.subtree(guide, r);
    }
    sink.end();
}

#[test]
fn an_answer_is_built_written_and_dropped_without_an_allocation_per_node() {
    let guide = cityguide(CityConfig {
        restaurants: 1_000,
        hotels: 250,
        seed: 11,
    });
    let restaurants: Vec<_> = guide.elements_named("restaurant").collect();
    assert_eq!(restaurants.len(), 1_000);

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut answer = Document::new();
    emit_answer(&guide, &restaurants, &mut DocSink::new(&mut answer));
    let built = ALLOCS.load(Ordering::Relaxed) - before;
    let nodes = answer.node_count();
    assert!(nodes > 20_000, "{nodes} nodes");
    // The pools' doublings and the interned names: the logarithm of the
    // node count, not the node count (≈ 40,000 with a `Vec` and a `Box` per
    // node) and not the number of subtrees either.
    assert!(built <= 200, "{built} allocations for {nodes} nodes");

    let before = ALLOCS.load(Ordering::Relaxed);
    let xml = answer.to_xml_string();
    let written = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(xml.len() > 200_000);
    // Sized once; a few escapes may push it past the estimate.
    assert!(
        written <= 2,
        "{written} allocations for {} bytes",
        xml.len()
    );

    // Written without being built: the unsized buffer's doublings and the
    // two stacks of open elements, the sink's and the serialiser's.
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut emitted = String::new();
    let mut sink = XmlSink::new(&mut emitted);
    emit_answer(&guide, &restaurants, &mut sink);
    assert_eq!(sink.nodes() as usize, nodes - 1);
    let emitting = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(emitted == xml);
    assert!(
        emitting <= 24,
        "{emitting} allocations to emit {} bytes",
        emitted.len()
    );

    // From the guide's image each copy is one run of bytes: the buffer's
    // doublings are all there is, and the bytes are the walked ones.
    guide.build_image();
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut copied = String::new();
    let mut sink = XmlSink::new(&mut copied);
    for &r in &restaurants {
        sink.subtree(&guide, r);
    }
    let copied_nodes = sink.nodes();
    let copying = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(copied == emitted["<answer>".len()..emitted.len() - "</answer>".len()]);
    assert_eq!(copied_nodes as usize, nodes - 2);
    let doublings = (usize::BITS - copied.len().leading_zeros()) as usize;
    assert!(
        copying <= doublings,
        "{copying} allocations to copy {} bytes from the image",
        copied.len()
    );

    // The DOM parser consumes the reader's borrowed tokens: no `String` per
    // name, attribute or value (48,509 allocations with one each), and never
    // the streaming reader's owned events (66,513 to produce them alone).
    let text = guide.to_xml_string();
    let before = ALLOCS.load(Ordering::Relaxed);
    let reread = gql_ssdm::xml::parse(&text).unwrap();
    let parsed = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(reread.node_count(), guide.node_count());
    assert!(
        parsed <= 1_000,
        "{parsed} allocations to parse {} nodes from {} bytes",
        reread.node_count(),
        text.len()
    );

    // 5,141 allocations while the index also held a rolling hash per node
    // and a key per distinct text value.
    let before = ALLOCS.load(Ordering::Relaxed);
    let idx = gql_ssdm::DocIndex::build(&guide);
    let indexed = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(idx.elements_named(&guide, "restaurant"), &restaurants[..]);
    assert!(
        indexed <= 64,
        "{indexed} allocations to index {} elements",
        idx.element_count()
    );
    drop(idx);

    let before = FREES.load(Ordering::Relaxed);
    drop(answer);
    let freed = FREES.load(Ordering::Relaxed) - before;
    // The pools, the symbol memo and the interned names.
    assert!(freed <= 128, "{freed} deallocations for {nodes} nodes");
}
