//! A counting bar for the served path: a warm `ServeHandle::submit`, and a
//! warm `Client::roundtrip` over loopback TCP, of each of the 22 point items
//! `gql-benchmark` sends (Q1–Q10 in every surface that states them, at
//! scale 8) allocates no more than its ceiling.
//!
//! Warm means the request's text was sent before: the service prepared it
//! then (parse, print, gate), the dataset's engine planned it, and the
//! running thread's trace log is sized. What is left per request is
//! admission, the run and the reply; on the wire, also the client's and the
//! server's frames and JSON. Ceilings only ever go down.
//!
//! A request runs on the calling thread (on the wire, the connection's
//! thread), and the allocator counts every thread, the client's and the
//! server's alike. This binary therefore holds a single test, which sends
//! one request at a time; the slow-query log is off, so no request's
//! timing decides what it allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gql_serve::json::Value;
use gql_serve::proto::{decode_response, encode_request};
use gql_serve::{
    Catalog, Client, Envelope, Request, Server, Service, TelemetryConfig, TenantRegistry,
};
use gql_ssdm::generator::{cityguide, greengrocer, CityConfig, GrocerConfig};

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

macro_rules! item {
    ($kind:literal, $dataset:literal, $file:literal, $ceiling:literal, $wire:literal) => {
        (
            $kind,
            $dataset,
            include_str!(concat!("../../../gql-benchmark/queries/", $file)),
            $file,
            $ceiling,
            $wire,
        )
    };
}

/// Per item: kind, dataset, query text, file name, and the allocation
/// ceilings of a submit and of a wire roundtrip. Before the service kept
/// prepared queries and shared cached plans, the same submits made 22–399
/// allocations (2,489 in all); then 1,207, and 989 once the engine cached
/// each WG-Log program's plan. The submits then made 869; running on the
/// caller's thread, with no reply channel, they made 802. The roundtrips
/// made 2,560–2,566 while a pool worker ran every wire query and the
/// connection's thread polled for its reply; run on the connection's
/// thread they made 2,505–2,506, 2–4 fewer each. A reply that shares the
/// cached plan text instead of copying it takes one allocation off each:
/// 780 submits, 2,483 roundtrips. A source subtree copied into the reply
/// from the dataset's serialized image is one append, so the reply's
/// buffer grows in fewer steps: 738 submits, 2,441 roundtrips. So does a
/// WG-Log answer whose base objects' attribute children are copied from
/// the dataset's answer image: 733 submits, 2,436 roundtrips. A WG-Log
/// fixpoint whose derived edges share their label's name and join chained
/// adjacency lists, instead of a `String` and up to four `Vec`s each,
/// allocates less again: 673 submits, 2,376 roundtrips. An XPath predicate
/// read as a truth value is decided by a walk that builds no node-set per
/// candidate: 640 submits, 2,343 roundtrips. An XML-GL rule matched in two
/// passes, its table allocated once, allocates less again: 621 submits,
/// 2,324 roundtrips. A reply sent as a header and the answer's raw bytes,
/// not a JSON copy of the answer, and a frame rendered in place behind its
/// length prefix, take 10–19 allocations off each roundtrip: 2,009. A
/// count can differ by one from run to run, so the five WG-Log ceilings
/// are the highest count seen plus one. The guard a request runs under,
/// held inline instead of boxed, takes one allocation off each: 596
/// submits, 1,979 roundtrips, and every ceiling went down by one. An
/// XML-GL program checked once per text, by the engine's gate when the
/// text is prepared, and not again by every run, takes 3–8 off each
/// XML-GL item: 557 submits, 1,940 roundtrips.
const ITEMS: [(&str, &str, &str, &str, usize, usize); 22] = [
    item!("xmlgl", "city", "q01.xmlgl", 15, 77),
    item!("wglog", "city", "q01.wglog", 57, 120),
    item!("xpath", "city", "q01.xpath", 10, 70),
    item!("xmlgl", "city", "q02.xmlgl", 15, 78),
    item!("wglog", "city", "q02.wglog", 45, 108),
    item!("xpath", "city", "q02.xpath", 11, 74),
    item!("xmlgl", "city", "q03.xmlgl", 14, 79),
    item!("wglog", "city", "q03.wglog", 24, 89),
    item!("xpath", "city", "q03.xpath", 11, 74),
    item!("xmlgl", "city", "q04.xmlgl", 13, 76),
    item!("xpath", "city", "q04.xpath", 11, 73),
    item!("xmlgl", "city", "q05.xmlgl", 17, 80),
    item!("wglog", "city", "q05.wglog", 58, 121),
    item!("xpath", "city", "q05.xpath", 13, 75),
    item!("xmlgl", "grocer", "q06.xmlgl", 30, 95),
    item!("xpath", "grocer", "q06.xpath", 20, 83),
    item!("xmlgl", "city", "q07.xmlgl", 20, 83),
    item!("xpath", "city", "q07.xpath", 12, 71),
    item!("xmlgl", "city", "q08.xmlgl", 24, 88),
    item!("xpath", "city", "q08.xpath", 10, 68),
    item!("xmlgl", "city", "q09.xmlgl", 44, 107),
    item!("wglog", "city", "q10.wglog", 84, 152),
];

#[test]
fn a_warm_served_request_allocates_under_its_ceiling() {
    let city = cityguide(CityConfig {
        restaurants: 8,
        hotels: 2,
        seed: 11,
    });
    let grocer = greengrocer(GrocerConfig {
        products: 8,
        vendors: 1,
        seed: 13,
    });
    let mut catalog = Catalog::new();
    catalog.register_xml("city", &city.to_xml_string()).unwrap();
    catalog
        .register_xml("grocer", &grocer.to_xml_string())
        .unwrap();
    let mut tenants = TenantRegistry::new();
    tenants.register("bench", Envelope::slots(8));
    let service = Service::builder()
        .workers(1)
        .catalog(catalog)
        .tenants(tenants)
        .telemetry(TelemetryConfig::default().with_slow_threshold_us(u64::MAX))
        .build();
    let h = service.handle();
    let requests: Vec<Request> = ITEMS
        .iter()
        .map(|(kind, dataset, text, _, _, _)| Request::new("bench", dataset, kind, text.trim()))
        .collect();
    for _ in 0..2 {
        for req in &requests {
            assert!(h.submit(req).is_ok(), "{req:?}");
        }
    }
    let mut over = Vec::new();
    for (req, (_, _, _, file, ceiling, _)) in requests.iter().zip(ITEMS) {
        let before = ALLOCS.load(Ordering::Relaxed);
        let reply = h.submit(req);
        let count = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(reply.is_ok(), "{file}: {reply:?}");
        drop(reply);
        if count > ceiling {
            over.push(format!("{file}: {count} allocations, ceiling {ceiling}"));
        }
    }

    let server = Server::bind("127.0.0.1:0", h.clone()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let frames: Vec<Value> = requests.iter().map(encode_request).collect();
    for _ in 0..2 {
        for frame in &frames {
            let reply = client.roundtrip(frame).expect("roundtrip");
            assert!(
                decode_response(&reply).is_ok_and(|r| r.is_ok()),
                "{reply:?}"
            );
        }
    }
    for (frame, (_, _, _, file, _, ceiling)) in frames.iter().zip(ITEMS) {
        let before = ALLOCS.load(Ordering::Relaxed);
        let reply = client.roundtrip(frame).expect("roundtrip");
        let count = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "{file}"
        );
        drop(reply);
        if count > ceiling {
            over.push(format!(
                "{file} (wire): {count} allocations, ceiling {ceiling}"
            ));
        }
    }
    drop(client);
    server.shutdown();
    service.shutdown();
    assert!(over.is_empty(), "{over:#?}");
}
