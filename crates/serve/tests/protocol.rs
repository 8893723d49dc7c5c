//! Protocol error-path battery over a real TCP server.
//!
//! Every way a client can misbehave must land as a structured error (or a
//! clean close), never a panic or a hang:
//!
//! * malformed frames and bad requests — pinned as corpus-style `.case`
//!   files under `tests/proto_cases/`, replayed one per fresh connection,
//!   each followed by a ping proving the connection survived;
//! * oversized length prefixes — refused before the body is read, with a
//!   final `bad-request` frame, then the connection closes;
//! * mid-frame disconnects — a client dying mid-send closes its own
//!   connection without wedging the server;
//! * interleaved garbage — the server keeps serving fresh connections
//!   after all of the above;
//! * slow-loris writers — a stalled half-open connection is reaped by
//!   the server's read timeout instead of pinning a thread forever;
//! * hang-ups mid-run — a client that sends a query or a batch and hangs
//!   up has every unfinished run of it cancelled, whether the run had
//!   started or still waited at the gate for a run slot.
//!
//! The good paths are driven end to end here too — a three-language batch,
//! a hot reload and a query on the new epoch, the quota refusal — and every
//! query reply of the suite goes through [`decoded`], which holds it to the
//! client's own codec. The reply schema is stated once, in `proto.rs`.

// Miri has no socket support; the admission suite and the crate unit tests
// carry the gql-serve miri coverage.
#![cfg(not(miri))]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gql_guard::fault::{self, FaultPlan};
use gql_metrics::EventKind;
use gql_serve::json::Value;
use gql_serve::proto::{
    decode_response, encode_request, encode_response, read_frame, read_reply, write_frame,
    MAX_FRAME,
};
use gql_serve::{
    Catalog, Client, Envelope, ErrorCode, Request, Response, Server, ServerConfig, Service,
    ServiceMetrics, Tenant, TenantRegistry,
};

/// The dataset `d` every test service holds.
const D_XML: &str = "<r><a/><a/><b><a/></b></r>";

fn test_service() -> Service {
    let mut catalog = Catalog::new();
    catalog.register_xml("d", D_XML).expect("dataset parses");
    let mut tenants = TenantRegistry::new();
    tenants.register("t", Envelope::slots(8));
    // A zero requests-per-second quota: deterministically `rate_limited`.
    tenants.register("limited", Envelope::slots(8).with_requests_per_sec(0));
    Service::builder()
        .workers(2)
        .catalog(catalog)
        .tenants(tenants)
        .build()
}

fn test_server() -> (Service, Server) {
    let service = test_service();
    let server = Server::bind("127.0.0.1:0", service.handle()).expect("bind");
    (service, server)
}

fn ping_works(server: &Server) {
    let mut client = Client::connect(server.addr()).expect("fresh connection");
    let pong = client
        .roundtrip(&Value::parse(r#"{"op":"ping"}"#).unwrap())
        .expect("ping roundtrip");
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
}

/// Decode a query reply the way a client does and hold it to the client's
/// codec: re-encoding what `decode_response` understood must give the reply
/// back, so a renamed, dropped or added field fails here (and a field the
/// decoder defaulted, such as a `result_count` it no longer finds, shows as a
/// changed value). A `retry_after_ms` is in 1..=1000 and accompanies
/// `rate_limited` only.
fn decoded(reply: &Value) -> Response {
    let resp = decode_response(reply).unwrap_or_else(|e| panic!("{e}: {}", reply.render()));
    assert_eq!(
        &encode_response(&resp),
        reply,
        "reply is not what the client codec reads"
    );
    if let Response::Err(err) = &resp {
        assert_eq!(
            err.retry_after_ms.is_some(),
            err.code == ErrorCode::RateLimited,
            "{}",
            reply.render()
        );
        assert!(err.retry_after_ms.is_none_or(|ms| (1..=1000).contains(&ms)));
        assert!(!err.message.is_empty(), "{}", reply.render());
    }
    resp
}

/// One pinned case: the raw frame payload and the expected outcome.
struct ProtoCase {
    name: String,
    payload: Vec<u8>,
    /// `None` expects a successful (`ok`-ish) response; `Some(code)` expects
    /// a structured error with that code.
    expect: Option<ErrorCode>,
    /// `expect-xml-contains:` — text the answer of a successful query holds.
    xml_contains: Option<String>,
}

fn load_proto_cases() -> Vec<ProtoCase> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/proto_cases");
    let mut cases = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("proto_cases dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable case");
        let mut payload = None;
        let mut expect = None;
        let mut saw_expect = false;
        let mut xml_contains = None;
        for line in text.lines() {
            if let Some(p) = line.strip_prefix("payload: ") {
                payload = Some(p.as_bytes().to_vec());
            } else if let Some(code) = line.strip_prefix("expect-code: ") {
                expect = Some(
                    ErrorCode::from_name(code.trim())
                        .unwrap_or_else(|| panic!("{path:?}: unknown code {code}")),
                );
                saw_expect = true;
            } else if line.strip_prefix("expect: ").map(str::trim) == Some("ok") {
                saw_expect = true;
            } else if let Some(text) = line.strip_prefix("expect-xml-contains: ") {
                xml_contains = Some(text.to_string());
            }
        }
        assert!(saw_expect, "{path:?}: no expectation line");
        cases.push(ProtoCase {
            name: path.file_stem().unwrap().to_string_lossy().into_owned(),
            payload: payload.unwrap_or_else(|| panic!("{path:?}: no payload line")),
            expect,
            xml_contains,
        });
    }
    assert!(cases.len() >= 10, "pinned protocol corpus went missing");
    cases
}

#[test]
fn pinned_cases_get_structured_responses_and_leave_the_connection_alive() {
    let (service, server) = test_server();
    for case in load_proto_cases() {
        let mut client = Client::connect(server.addr()).expect("connect");
        write_frame(client.stream(), &case.payload).expect("send");
        let v = read_reply(client.stream())
            .unwrap_or_else(|e| panic!("{}: read failed: {e}", case.name))
            .unwrap_or_else(|| panic!("{}: server closed without replying", case.name));
        let got_code = v
            .get("code")
            .and_then(Value::as_str)
            .and_then(ErrorCode::from_name);
        match case.expect {
            None => assert_eq!(
                v.get("ok").and_then(Value::as_bool),
                Some(true),
                "{}: expected success, got {}",
                case.name,
                v.render()
            ),
            Some(code) => assert_eq!(
                got_code,
                Some(code),
                "{}: expected {}, got {}",
                case.name,
                code.name(),
                v.render()
            ),
        }
        // Every error, and every answer to a query, is a reply of the query
        // codec (ping, metrics and reload acknowledgements are not).
        if got_code.is_some() || v.get("xml").is_some() {
            let resp = decoded(&v);
            if let (Some(text), Response::Ok(ok)) = (&case.xml_contains, &resp) {
                assert!(ok.xml.contains(text), "{}: {}", case.name, ok.xml);
            }
        }
        // Framing stayed intact, so the same connection must still serve.
        let pong = client
            .roundtrip(&Value::parse(r#"{"op":"ping"}"#).unwrap())
            .unwrap_or_else(|e| panic!("{}: connection died after response: {e}", case.name));
        assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    }
    ping_works(&server);
    server.shutdown();
    service.shutdown();
}

#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    let (service, server) = test_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Promise a body 16 GiB long; a correct server answers from the prefix
    // alone and never tries to read (or allocate) the body.
    let huge: u64 = 16 << 30;
    stream
        .write_all(&((huge.min(u32::MAX as u64)) as u32).to_be_bytes())
        .expect("send prefix");
    stream.flush().unwrap();
    let frame = read_frame(&mut stream)
        .expect("error frame readable")
        .expect("server said why before closing");
    let v = Value::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(
        v.get("code").and_then(Value::as_str),
        Some(ErrorCode::BadRequest.name()),
        "got {}",
        v.render()
    );
    // After an unframeable prefix the connection closes...
    assert_eq!(read_frame(&mut stream).expect("clean close"), None);
    // ...but the server keeps accepting.
    ping_works(&server);
    // Boundary: exactly MAX_FRAME must still be framed (the body here is
    // garbage JSON, which is a *decoded* bad-request, not a framing error).
    let mut client = Client::connect(server.addr()).expect("connect");
    let body = vec![b' '; MAX_FRAME];
    write_frame(client.stream(), &body).expect("send max frame");
    let reply = read_frame(client.stream()).expect("read").expect("reply");
    let v = Value::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(
        v.get("code").and_then(Value::as_str),
        Some(ErrorCode::BadRequest.name())
    );
    server.shutdown();
    service.shutdown();
}

#[test]
fn mid_frame_disconnects_never_wedge_the_server() {
    let (service, server) = test_server();
    // Die at every interesting point of a frame: after a partial prefix,
    // after the full prefix, and mid-body.
    let full = br#"{"op":"query","tenant":"t","dataset":"d","kind":"xpath","query":"//a"}"#;
    let prefix = (full.len() as u32).to_be_bytes();
    let partial_sends: Vec<Vec<u8>> = vec![prefix[..2].to_vec(), prefix.to_vec(), {
        let mut v = prefix.to_vec();
        v.extend_from_slice(&full[..10]);
        v
    }];
    for (i, bytes) in partial_sends.iter().enumerate() {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(bytes).expect("partial send");
        stream.flush().unwrap();
        drop(stream); // hang up mid-frame
                      // The server must shrug this off and serve the next client.
        let start = std::time::Instant::now();
        ping_works(&server);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "server wedged after partial send #{i}"
        );
    }
    // A half-closed socket (shutdown write, keep reading) mid-frame is the
    // classic "client died but TCP lingers" shape.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&prefix).expect("prefix");
    stream.write_all(&full[..5]).expect("partial body");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink); // whatever the server sends, then EOF
    ping_works(&server);
    server.shutdown();
    service.shutdown();
}

#[test]
fn pipelined_frames_on_one_connection_all_get_answers() {
    let (service, server) = test_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Write three frames back-to-back before reading anything: a good
    // query, garbage, and a ping. Three responses must come back in order.
    let mut burst = Vec::new();
    write_frame(
        &mut burst,
        br#"{"op":"query","tenant":"t","dataset":"d","kind":"xpath","query":"//a"}"#,
    )
    .unwrap();
    write_frame(&mut burst, b"garbage").unwrap();
    write_frame(&mut burst, br#"{"op":"ping"}"#).unwrap();
    stream.write_all(&burst).expect("burst");
    stream.flush().unwrap();
    let mut replies = Vec::new();
    for _ in 0..3 {
        replies.push(read_reply(&mut stream).expect("read").expect("reply"));
    }
    assert_eq!(replies[0].get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        replies[1].get("code").and_then(Value::as_str),
        Some(ErrorCode::BadRequest.name())
    );
    assert_eq!(replies[2].get("pong").and_then(Value::as_bool), Some(true));
    server.shutdown();
    service.shutdown();
}

#[test]
fn pipelined_query_then_metrics_sees_the_query() {
    let (service, server) = test_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // A query and a metrics scrape written back-to-back before reading:
    // frames answer in order, so by the time the metrics frame is served
    // the query's full lifecycle has landed in the telemetry plane.
    let mut burst = Vec::new();
    write_frame(
        &mut burst,
        br#"{"op":"query","tenant":"t","dataset":"d","kind":"xpath","query":"//a"}"#,
    )
    .unwrap();
    write_frame(&mut burst, br#"{"op":"metrics"}"#).unwrap();
    write_frame(&mut burst, br#"{"op":"metrics","view":"report"}"#).unwrap();
    stream.write_all(&burst).expect("burst");
    stream.flush().unwrap();
    let mut replies = Vec::new();
    for _ in 0..3 {
        replies.push(read_reply(&mut stream).expect("read").expect("reply"));
    }
    assert_eq!(replies[0].get("ok").and_then(Value::as_bool), Some(true));
    let counters = replies[1].get("metrics").expect("counters view");
    assert_eq!(
        counters.get("completed").and_then(Value::as_u64),
        Some(1),
        "pipelined metrics must reflect the already-answered query: {}",
        replies[1].render()
    );
    let report = replies[2].get("report").expect("report view");
    assert_eq!(
        report
            .get("latency_all")
            .and_then(|l| l.get("count"))
            .and_then(Value::as_u64),
        Some(1),
        "the latency histogram recorded the reply: {}",
        replies[2].render()
    );
    let events = report
        .get("events")
        .and_then(|e| e.get("appended"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    // One admitted request is a full admit/dequeue/start/reply lifecycle.
    assert!(events >= 4, "expected ≥4 events, got {events}");
    server.shutdown();
    service.shutdown();
}

#[test]
fn slow_loris_connection_is_reaped_cleanly_without_pinning_the_server() {
    let service = test_service();
    let server = Server::bind_with(
        "127.0.0.1:0",
        service.handle(),
        ServerConfig {
            read_timeout: Some(Duration::from_millis(100)),
            write_timeout: Some(Duration::from_millis(100)),
        },
    )
    .expect("bind");

    // The loris: open a frame claiming 128 bytes, trickle 3, then stall.
    let mut loris = TcpStream::connect(server.addr()).expect("connect");
    loris.write_all(&128u32.to_be_bytes()).expect("prefix");
    loris.write_all(b"{\"o").expect("trickle");
    loris.flush().unwrap();

    // The server must cut the stalled half-open connection loose: the
    // loris observes EOF/reset well before its own generous timeout.
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let start = std::time::Instant::now();
    let mut sink = [0u8; 16];
    match loris.read(&mut sink) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("reaped connection produced {n} bytes"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "slow-loris was not reaped by the read timeout"
    );
    // Writing into the reaped connection eventually errors (RST) — and
    // regardless, the server keeps serving honest clients promptly.
    ping_works(&server);
    // An idle-but-honest client that completes frames fast is untouched.
    let mut client = Client::connect(server.addr()).expect("connect");
    let pong = client
        .roundtrip(&Value::parse(r#"{"op":"ping"}"#).unwrap())
        .expect("honest roundtrip");
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    server.shutdown();
    service.shutdown();
}

#[test]
fn reload_over_the_wire_advances_the_epoch_queries_report() {
    let (service, server) = test_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let query =
        Value::parse(r#"{"op":"query","tenant":"t","dataset":"d","kind":"xpath","query":"//a"}"#)
            .unwrap();

    let before = client.roundtrip(&query).expect("query");
    assert_eq!(before.get("epoch").and_then(Value::as_u64), Some(1));

    let reload = client
        .roundtrip(&Value::parse(r#"{"op":"reload","dataset":"d","xml":"<r><a/></r>"}"#).unwrap())
        .expect("reload");
    let detail = reload.get("reload").expect("reload detail");
    assert_eq!(detail.get("dataset").and_then(Value::as_str), Some("d"));
    assert_eq!(detail.get("epoch").and_then(Value::as_u64), Some(2));
    // Nothing was in flight on epoch 1, so nothing is left draining.
    assert_eq!(detail.get("draining").and_then(Value::as_u64), Some(0));

    let after = client.roundtrip(&query).expect("query after reload");
    assert_eq!(after.get("epoch").and_then(Value::as_u64), Some(2));
    assert_eq!(
        after.get("result_count").and_then(Value::as_u64),
        Some(1),
        "the reply must serve the reloaded epoch's content: {}",
        after.render()
    );
    server.shutdown();
    service.shutdown();
}

/// A `reload` whose XML nests past `xml::MAX_DEPTH` is refused by the reader
/// where the recursive parser it replaced overflowed the connection thread's
/// stack and took the process down. The payload is 10,000 levels, generated
/// here; nothing is swapped, and the same connection goes on to answer a
/// ping, a query, and the reload of a document exactly at the bound — which
/// this thread then indexes, summarises and loads on its 2 MiB stack.
#[test]
fn over_deep_reload_is_refused_and_the_connection_keeps_serving() {
    let (service, server) = test_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let bound = gql_ssdm::xml::MAX_DEPTH;
    let reload = |levels: usize| {
        let xml = format!(
            "{}<a/>{}",
            "<n>".repeat(levels - 1),
            "</n>".repeat(levels - 1)
        );
        Value::Obj(vec![
            ("op".into(), Value::str("reload")),
            ("dataset".into(), Value::str("d")),
            ("xml".into(), Value::str(xml)),
        ])
    };
    let query =
        Value::parse(r#"{"op":"query","tenant":"t","dataset":"d","kind":"xpath","query":"//a"}"#)
            .unwrap();

    let refused = client
        .roundtrip(&reload(10_000))
        .expect("a reply, not a dead server");
    assert_eq!(
        refused.get("code").and_then(Value::as_str),
        Some("bad-request"),
        "{}",
        refused.render()
    );
    let message = refused.get("message").and_then(Value::as_str).unwrap();
    assert!(
        message.contains(&format!("nested deeper than {bound} levels")),
        "{message}"
    );

    let pong = client
        .roundtrip(&Value::parse(r#"{"op":"ping"}"#).unwrap())
        .expect("ping on the same connection");
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    let unchanged = client.roundtrip(&query).expect("query");
    assert_eq!(unchanged.get("epoch").and_then(Value::as_u64), Some(1));
    assert_eq!(
        unchanged.get("result_count").and_then(Value::as_u64),
        Some(3)
    );

    let swapped = client
        .roundtrip(&reload(bound))
        .expect("reload at the bound");
    let epoch = swapped.get("reload").and_then(|r| r.get("epoch"));
    assert_eq!(
        epoch.and_then(Value::as_u64),
        Some(2),
        "{}",
        swapped.render()
    );
    let deep = client.roundtrip(&query).expect("query at the bound");
    assert_eq!(deep.get("epoch").and_then(Value::as_u64), Some(2));
    assert_eq!(deep.get("result_count").and_then(Value::as_u64), Some(1));
    server.shutdown();
    service.shutdown();
}

/// A query text nested 100,000 deep, in XPath and in XML-GL, is refused by
/// name where it once overflowed the connection thread's stack and took the
/// process down; the same connection then answers a query.
#[test]
fn over_deep_query_texts_are_refused_and_the_server_keeps_answering() {
    let (service, server) = test_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let deep = 100_000;
    let query = |kind: &str, text: &str| encode_request(&Request::new("t", "d", kind, text));
    let xpath = format!("{}1{}", "(".repeat(deep), ")".repeat(deep));
    let xmlgl = format!(
        "rule {{ extract {{ {} a as $a {} }} construct {{ out {{ all $a }} }} }}",
        "a { ".repeat(deep - 1),
        "} ".repeat(deep - 1)
    );
    let bound = gql_ssdm::xml::MAX_QUERY_DEPTH;
    for (kind, text) in [("xpath", &xpath), ("xmlgl", &xmlgl)] {
        let reply = client
            .roundtrip(&query(kind, text))
            .expect("a reply, not a dead server");
        let Response::Err(err) = decoded(&reply) else {
            panic!("{kind}: {}", reply.render());
        };
        assert_eq!(err.code, ErrorCode::BadRequest, "{kind}: {}", err.message);
        assert!(
            err.message.contains(&format!(
                "nested deeper than {bound} levels (xml::MAX_QUERY_DEPTH)"
            )),
            "{kind}: {}",
            err.message
        );
    }
    let answered = client
        .roundtrip(&query("xpath", "count(//book)"))
        .expect("the same connection still answers");
    assert!(decoded(&answered).is_ok(), "{}", answered.render());
    ping_works(&server);
    server.shutdown();
    service.shutdown();
}

/// An XML-GL root box a frame wide (50,000 child boxes, 100 KB) overflowed
/// a connection thread's stack in planning, and a thousand child boxes over
/// two candidates each overflowed a row count. Both are refused by name
/// before they run, and the same connection then answers a query.
#[test]
fn over_wide_query_texts_are_refused_and_the_server_keeps_answering() {
    let (service, server) = test_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let wide = |n: usize| {
        format!(
            "rule {{ extract {{ r {{ {}a as $a }} }} construct {{ out {{ all $a }} }} }}",
            "a ".repeat(n - 1)
        )
    };
    let bound = gql_ssdm::xml::MAX_QUERY_WIDTH;
    for n in [50_000, 1_000] {
        let reply = client
            .roundtrip(&encode_request(&Request::new("t", "d", "xmlgl", &wide(n))))
            .expect("a reply, not a dead server");
        let Response::Err(err) = decoded(&reply) else {
            panic!("{n} children: {}", reply.render());
        };
        assert_eq!(err.code, ErrorCode::BadRequest, "{n}: {}", err.message);
        assert!(
            err.message.contains(&format!(
                "box with more than {bound} child boxes (xml::MAX_QUERY_WIDTH)"
            )),
            "{n}: {}",
            err.message
        );
    }
    let answered = client
        .roundtrip(&encode_request(&Request::new(
            "t",
            "d",
            "xpath",
            "count(//book)",
        )))
        .expect("the same connection still answers");
    assert!(decoded(&answered).is_ok(), "{}", answered.render());
    ping_works(&server);
    server.shutdown();
    service.shutdown();
}

/// A WG-Log program of as many chained rules as fit in one request frame
/// (about 15,000): rule `i` reads the objects of type `c{i}` (the first, the
/// root `r`) and builds one of `c{i+1}`. Stratification relates every rule to every other, so the
/// server refuses it by name, and then answers the next request; a chain at
/// the bound is answered.
#[test]
fn a_frame_of_chained_wglog_rules_is_refused_and_the_server_keeps_answering() {
    let (service, server) = test_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let bound = gql_ssdm::xml::MAX_QUERY_RULES;
    let rule = |i: usize| {
        let from = if i == 0 {
            "r".to_string()
        } else {
            format!("c{i}")
        };
        let to = i + 1;
        format!("rule {{ query {{ $x: {from} }} construct {{ $y: c{to} $y -m-> $x }} }} ")
    };
    let chain = |rules: usize| {
        let text: String = (0..rules).map(rule).collect();
        let text = text + &format!("goal c{rules}");
        encode_request(&Request::new("t", "d", "wglog", &text))
    };
    // The text goes into the frame unescaped, beside a few dozen bytes.
    let (mut rules, mut len) = (0, 0);
    while len + rule(rules).len() + 256 < MAX_FRAME {
        (len, rules) = (len + rule(rules).len(), rules + 1);
    }
    assert!(chain(rules).render().len() <= MAX_FRAME);
    assert!(rules > 10 * bound, "{rules} rules");
    let reply = client
        .roundtrip(&chain(rules))
        .expect("a reply, not a dead server");
    let Response::Err(err) = decoded(&reply) else {
        panic!("{rules} rules: {}", reply.render());
    };
    assert_eq!(err.code, ErrorCode::BadRequest, "{}", err.message);
    let named = format!("program with more than {bound} rules (xml::MAX_QUERY_RULES)");
    assert!(err.message.contains(&named), "{}", err.message);
    let answered = client
        .roundtrip(&chain(bound))
        .expect("the same connection still answers");
    match decoded(&answered) {
        Response::Ok(ok) => assert_eq!(ok.result_count, 1, "one c{bound} built"),
        Response::Err(err) => panic!("{bound} rules: {}", err.message),
    }
    ping_works(&server);
    server.shutdown();
    service.shutdown();
}

#[test]
fn rate_limited_reply_carries_a_bounded_retry_hint() {
    let (service, server) = test_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let v = client
        .roundtrip(
            &Value::parse(
                r#"{"op":"query","tenant":"limited","dataset":"d","kind":"xpath","query":"//a"}"#,
            )
            .unwrap(),
        )
        .expect("roundtrip");
    let Response::Err(err) = decoded(&v) else {
        panic!("a zero quota admitted a request: {}", v.render());
    };
    assert_eq!(err.code, ErrorCode::RateLimited, "got {}", v.render());
    // `decoded` held the hint to 1..=1000: inside the next window roll.
    assert!(err.retry_after_ms.is_some());
    server.shutdown();
    service.shutdown();
}

#[test]
fn batch_over_the_wire_reports_per_item_outcomes() {
    let (service, server) = test_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    // All three languages, and one item that cannot run.
    let req = Value::parse(
        r#"{"op":"batch","tenant":"t","items":[
            {"dataset":"d","kind":"xpath","query":"//a"},
            {"dataset":"ghost","kind":"xpath","query":"//a"},
            {"dataset":"d","kind":"xmlgl","query":"rule { extract { b as $b { a as $a } } construct { out { all $a } } }"},
            {"dataset":"d","kind":"wglog","query":"rule { query { $r: r  $b: b  $r -b-> $b } construct { $l: found  $l -member-> $b } } goal found"}
        ]}"#,
    )
    .unwrap();
    let v = client.roundtrip(&req).expect("batch roundtrip");
    let items = v.get("batch").and_then(Value::as_arr).expect("batch array");
    assert_eq!(items.len(), 4);
    for (i, item) in items.iter().enumerate() {
        match decoded(item) {
            Response::Err(err) => {
                assert_eq!(i, 1, "one bad item must not poison its siblings: {err:?}");
                assert_eq!(err.code, ErrorCode::UnknownDataset);
            }
            Response::Ok(ok) => {
                assert_ne!(i, 1, "the ghost dataset answered");
                assert!(ok.result_count >= 1, "item {i} has no results: {ok:?}");
                assert!(!ok.plan.is_empty(), "item {i} lost its plan");
                assert_eq!(ok.epoch, 1);
            }
        }
    }
    // In-process view agrees with the wire view.
    let direct = service
        .handle()
        .submit(&Request::new("t", "d", "xpath", "//a"));
    assert!(direct.is_ok());
    server.shutdown();
    service.shutdown();
}

/// A reply's plan is the plan a direct engine run reports, byte for byte.
/// A WG-Log edge step has no bound, and its `(est ∞)` must come through
/// the JSON codec as it went in.
#[test]
fn a_wire_reply_carries_the_direct_runs_plan_byte_for_byte() {
    let (service, server) = test_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let query = wglog_query("found");
    let reply = client.roundtrip(&query_frame(&query)).expect("roundtrip");
    let Response::Ok(ok) = decoded(&reply) else {
        panic!("{}", reply.render());
    };
    let doc = gql_ssdm::Document::parse_str(D_XML).unwrap();
    let program = gql_wglog::dsl::parse(&query).unwrap();
    let direct = gql_core::Engine::new()
        .run(&gql_core::QueryKind::WgLog(program), &doc)
        .unwrap();
    assert!(direct.plan.contains("(est ∞)"), "{}", direct.plan);
    assert_eq!(ok.plan, direct.plan);
    server.shutdown();
    service.shutdown();
}

/// A WG-Log program over `d`; `goal` names the label it builds, so that two
/// goals are two distinct texts.
fn wglog_query(goal: &str) -> String {
    format!(
        "rule {{ query {{ $r: r  $b: b  $r -b-> $b }} construct {{ $l: {goal}  $l -member-> $b }} }} goal {goal}"
    )
}

/// Every WG-Log fixpoint round stalls 400 ms: long enough that a run whose
/// client hangs up is still running when the server sees the hang-up.
fn stalled() -> FaultPlan {
    FaultPlan {
        stall_round: Some(1),
        stall_ms: 400,
        ..FaultPlan::default()
    }
}

/// A server over `d` with `workers` run slots, and its one tenant.
fn watched_server(workers: usize) -> (Service, Server, Arc<Tenant>) {
    let mut catalog = Catalog::new();
    catalog
        .register_xml("d", "<r><a/><a/><b><a/></b></r>")
        .expect("dataset parses");
    let mut tenants = TenantRegistry::new();
    tenants.register("t", Envelope::slots(8));
    let tenant = Arc::clone(tenants.get("t").expect("registered"));
    let service = Service::builder()
        .workers(workers)
        .catalog(catalog)
        .tenants(tenants)
        .build();
    let server = Server::bind("127.0.0.1:0", service.handle()).expect("bind");
    (service, server, tenant)
}

/// Write one request frame and hang up without reading the reply.
fn send_and_hang_up(server: &Server, request: &Value) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, request.render().as_bytes()).expect("send");
    drop(stream);
}

/// Wait until `done` holds; fail after ten seconds.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A query frame of tenant `t` over `d`.
fn query_frame(query: &str) -> Value {
    encode_request(&Request::new("t", "d", "wglog", query))
}

/// After a hang-up: `cancelled` rose by exactly `cancelled` and `completed`
/// by exactly `completed`, and nothing is left held.
fn assert_settled(
    service: &Service,
    tenant: &Tenant,
    before: ServiceMetrics,
    cancelled: u64,
    completed: u64,
) {
    let h = service.handle();
    wait_for("the runs to settle", || {
        let m = h.metrics();
        m.cancelled + m.completed >= before.cancelled + before.completed + cancelled + completed
            && tenant.in_flight() == 0
    });
    let m = h.metrics();
    assert_eq!(m.cancelled - before.cancelled, cancelled, "{m:?}");
    assert_eq!(m.completed - before.completed, completed, "{m:?}");
    assert_eq!(tenant.in_flight(), 0);
    assert_eq!(h.catalog().draining(), 0);
}

#[test]
fn a_client_that_hangs_up_has_its_run_cancelled_on_either_thread() {
    fault::with_plan(stalled(), || {
        // Idle service: the connection thread runs the query itself.
        let (service, server, tenant) = watched_server(2);
        let before = service.handle().metrics();
        send_and_hang_up(&server, &query_frame(&wglog_query("found")));
        assert_settled(&service, &tenant, before, 1, 0);
        server.shutdown();
        service.shutdown();

        // One run slot, held by a stalled run whose client waits: the
        // second query is queued, and its client hangs up.
        let (service, server, tenant) = watched_server(1);
        let h = service.handle();
        let before = h.metrics();
        let holder = std::thread::spawn({
            let addr = server.addr();
            let frame = query_frame(&wglog_query("found"));
            move || Client::connect(addr).unwrap().roundtrip(&frame).unwrap()
        });
        wait_for("the first run to start", || {
            (h.metrics_report().events.iter()).any(|e| e.kind == EventKind::Start)
        });
        send_and_hang_up(&server, &query_frame(&wglog_query("seen")));
        let held = holder.join().expect("the waiting client");
        assert!(decoded(&held).is_ok(), "{}", held.render());
        assert_settled(&service, &tenant, before, 1, 1);
        // The hung-up query waited for the slot: it never started before
        // the first run replied.
        let events = h.metrics_report().events;
        let first_reply = events.iter().position(|e| e.kind == EventKind::Reply);
        let starts: Vec<usize> = (events.iter().enumerate())
            .filter(|(_, e)| e.kind == EventKind::Start)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(starts.len(), 2, "{events:?}");
        assert!(first_reply.is_some_and(|r| r < starts[1]), "{events:?}");
        server.shutdown();
        service.shutdown();
    });
}

#[test]
fn a_client_that_hangs_up_mid_batch_has_every_unfinished_run_cancelled() {
    fault::with_plan(stalled(), || {
        let (service, server, tenant) = watched_server(2);
        let before = service.handle().metrics();
        let item = |goal: &str| {
            Value::Obj(vec![
                ("dataset".into(), Value::str("d")),
                ("kind".into(), Value::str("wglog")),
                ("query".into(), Value::str(wglog_query(goal))),
            ])
        };
        // Two leaders and a repeat of the first, which runs after them.
        let batch = Value::Obj(vec![
            ("op".into(), Value::str("batch")),
            ("tenant".into(), Value::str("t")),
            (
                "items".into(),
                Value::Arr(vec![item("found"), item("seen"), item("found")]),
            ),
        ]);
        send_and_hang_up(&server, &batch);
        assert_settled(&service, &tenant, before, 3, 0);
        server.shutdown();
        service.shutdown();
    });
}
