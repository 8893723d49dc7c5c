//! Tier-1 acceptance for the query service: the regression corpus
//! replayed through `gql-serve` at concurrency 8 (shared catalog, mixed
//! tenants) must be **byte-identical** to a fresh single-threaded
//! `Engine::run` on every case, with deterministic warm trace shapes and
//! cancellation that never poisons the shared caches. See
//! `gql_testkit::serve_oracle` for the oracle itself. Answers larger than
//! one frame go over a socket and come back byte-identical too, and every
//! frame and reply is one `write`.

use std::io::Write;
use std::path::Path;

use gql::ssdm::generator::{cityguide, CityConfig};
use gql::ssdm::Document;
use gql_serve::json::Value;
use gql_serve::proto::{
    encode_request, encode_response, read_frame, read_reply, write_frame, write_reply,
    write_request, Reply, MAX_FRAME,
};
use gql_serve::{ErrorCode, QueryOk, Request, Response};
use gql_testkit::serve_oracle::{check_corpus_dir, check_over_the_wire};

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_through_service_at_concurrency_8_is_byte_identical() {
    let report = check_corpus_dir(&corpus_dir(), 8)
        .unwrap_or_else(|msg| panic!("serve oracle failed:\n{msg}"));
    // The corpus holds more than its two pathological (budget-bearing)
    // cases; if this count collapses the oracle went vacuous.
    assert!(
        report.cases >= 10,
        "only {} cases replayed through the service",
        report.cases
    );
    assert!(report.requests > report.cases * 4);
}

/// A `Write` that counts the calls that reach it.
#[derive(Default)]
struct CountingWriter {
    bytes: Vec<u8>,
    writes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every frame either side sends, and every reply the server sends with
/// all its answer chunks, reaches the socket in one `write`: a frame sent
/// as its length and then its body wakes the reader twice. The writers
/// driven here are the ones `Server`'s connections (`write_reply`) and both
/// `Client` and `ResilientClient` (`write_request`) send through.
#[test]
fn every_frame_and_every_reply_is_one_write() {
    let writes = |send: &dyn Fn(&mut CountingWriter) -> std::io::Result<()>| {
        let mut w = CountingWriter::default();
        send(&mut w).expect("a write to memory");
        (w.writes, w.bytes)
    };

    let (n, bytes) = writes(&|w| write_frame(w, br#"{"op":"ping"}"#));
    assert_eq!(n, 1, "write_frame");
    assert_eq!(bytes.len(), 4 + 13);

    // A query reply whose answer spans three chunks, and an error reply.
    let xml = format!("<r>{}</r>", "x".repeat(2 * MAX_FRAME + 100));
    let ok = Response::Ok(Box::new(QueryOk {
        xml,
        result_count: 1,
        eval_us: 0,
        plan: "Scan".into(),
        plan_cache: "miss".into(),
        index_cache: "miss".into(),
        epoch: 1,
        profile: None,
        shape: None,
    }));
    let err = Response::err(ErrorCode::BadRequest, "not an op");
    for resp in [&ok, &err] {
        let (n, bytes) = writes(&|w| write_reply(w, &mut Vec::new(), &Reply::Query(resp)));
        assert_eq!(n, 1, "write_reply of {resp:.60?}");
        let back = read_reply(&mut &bytes[..]).expect("a whole reply");
        assert_eq!(back, Some(encode_response(resp)));
    }

    // `Client::roundtrip` sends the caller's value, `ResilientClient` an
    // encoded `Request`.
    let ping = Value::parse(r#"{"op":"ping"}"#).unwrap();
    let query = encode_request(&Request::new("t", "d", "xpath", "//a").with_request_id("r-1"));
    for request in [&ping, &query] {
        let (n, bytes) = writes(&|w| write_request(w, request));
        assert_eq!(n, 1, "write_request of {}", request.render());
        let frame = read_frame(&mut &bytes[..]).unwrap().unwrap();
        assert_eq!(frame, request.render().as_bytes());
    }
}

/// An answer over `MAX_FRAME` crosses the wire in chunks and comes back
/// byte-identical to the direct run, through both clients: Q10 (WG-Log) on
/// the scale-1000 city guide, and a 3 MiB XPath answer.
#[test]
fn answers_over_a_frame_cross_the_wire_byte_identical() {
    let city = cityguide(CityConfig {
        restaurants: 1000,
        hotels: 250,
        seed: 11,
    });
    let q10 = include_str!("../gql-benchmark/queries/q10.wglog");
    let bytes = check_over_the_wire(city, "wglog", q10)
        .unwrap_or_else(|msg| panic!("Q10 at scale 1000:\n{msg}"));
    assert!(bytes > MAX_FRAME, "Q10's answer is {bytes} bytes");

    let text = "y".repeat(120);
    let xml = format!("<r>{}</r>", format!("<a>{text}</a>").repeat(25_000));
    let doc = Document::parse_str(&xml).expect("the document parses");
    let bytes = check_over_the_wire(doc, "xpath", "//a")
        .unwrap_or_else(|msg| panic!("a 3 MiB answer:\n{msg}"));
    assert!(bytes >= 3 << 20, "the answer is {bytes} bytes");
}
