//! The wire protocol: length-prefixed frames over any byte stream.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes: JSON, or a chunk of an answer's XML. Frames above [`MAX_FRAME`] are refused with a
//! structured `bad-request` error before the body is read — an attacker
//! cannot make the server allocate from the length prefix alone.
//!
//! Request objects carry an `op`:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"query","tenant":"public","dataset":"bib","kind":"xpath","query":"//title","profile":false}
//! {"op":"batch","tenant":"public","items":[{"dataset":"bib","kind":"xpath","query":"//title"},…]}
//! {"op":"metrics"}
//! {"op":"metrics","view":"report"}
//! {"op":"metrics","view":"prometheus"}
//! {"op":"metrics","view":"text"}
//! {"op":"reload","dataset":"bib","xml":"<bib>…</bib>"}
//! ```
//!
//! The `metrics` op takes an optional `view`: `counters` (the default,
//! back-compatible cumulative counters), `report` (the full telemetry
//! report: latency histograms, rate windows, request events, slow-query
//! log), `prometheus` (the text exposition as one string field) or
//! `text` (the human stat printout `gql-serve stat` shows). An unknown
//! view is a `bad-request`.
//!
//! The `reload` op hot-swaps an existing dataset to freshly parsed XML
//! at the next catalog epoch (see `Catalog::reload`); its success reply
//! is `{"ok":true,"reload":{"dataset":…,"epoch":N,"draining":M}}`.
//!
//! Query ops may carry a `request_id` — an idempotency key: a retried
//! request with the same id is answered from the original execution
//! instead of running again.
//!
//! A reply is a header frame of JSON, followed by the raw bytes of the
//! answers it carries:
//!
//! * an `ok` query reply's header is `{"ok":true,"xml_bytes":N,…}` (the
//!   fields of [`QueryOk`] but its answer, and the dataset `epoch` the query
//!   executed against), and the answer's `N` bytes of XML follow in frames
//!   of at most [`MAX_FRAME`] bytes each — no chunk frame for an empty
//!   answer, so an answer has no size cap;
//! * an `ok` batch reply's header is `{"ok":true,"batch":[…]}`, one item per
//!   request in that same query form, and the answers of its `ok` items
//!   follow in item order;
//! * an error is one frame,
//!   `{"ok":false,"code":"…","message":"…"[,"report":"…"][,"retry_after_ms":N]}`;
//! * every other op's reply is one frame of JSON.
//!
//! Budget and cancellation errors carry the partial-progress trip report
//! in `report` — the service returns how far the run got, it never
//! silently drops the work. `rate_limited` rejections carry
//! `retry_after_ms`, the time to the quota window's rollover.
//!
//! Each side sends a frame, and the server a whole reply with its chunks, in
//! one `write` ([`write_frame`], [`write_reply`]), so the reader wakes once
//! per frame rather than once for the length and again for the body.
//! [`read_reply`] reads a reply back and puts each answer into its header
//! as an `xml` string: the [`Value`] it returns is the single-frame JSON
//! form [`encode_response`] builds, which [`decode_response`] reads.

use std::io::{Read, Write};

use crate::json::Value;
use crate::service::{ErrorCode, QueryErr, QueryOk, Request, Response};

/// Maximum accepted frame payload, in bytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Read one frame. `Ok(None)` is a clean EOF at a frame boundary; an EOF
/// mid-frame (a client that died mid-send) is an `UnexpectedEof` error the
/// connection loop turns into a close — never a hang.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = frame_len(len)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// A length prefix, refused past [`MAX_FRAME`] before any body is read.
fn frame_len(prefix: [u8; 4]) -> std::io::Result<usize> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(invalid(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    Ok(len)
}

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Write one frame in one `write`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    push_frame(&mut frame, payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Append one frame to `out`.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Write one request in one `write`: what [`Client`] and
/// [`ResilientClient`] send.
///
/// [`Client`]: crate::Client
/// [`ResilientClient`]: crate::ResilientClient
pub fn write_request(w: &mut impl Write, request: &Value) -> std::io::Result<()> {
    w.write_all(&json_frame(request))?;
    w.flush()
}

/// `v` as one frame, rendered after a placeholder prefix that is then
/// overwritten with its length, so the text is never copied. A request or
/// a reply header is a few hundred bytes: the first allocation holds it.
fn json_frame(v: &Value) -> Vec<u8> {
    let mut text = String::with_capacity(512);
    text.push_str("\0\0\0\0");
    v.render_into(&mut text);
    let mut frame = text.into_bytes();
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    frame
}

/// A reply as the server writes it.
#[derive(Debug)]
pub enum Reply<'a> {
    /// A query's outcome: a header frame and its answer's chunks, or an
    /// error frame.
    Query(&'a Response),
    /// A batch's outcomes, one per request, in one header frame; the
    /// answers of its `ok` items follow in item order.
    Batch(&'a [Response]),
    /// Any other op's reply: one frame.
    Json(Value),
}

impl Reply<'_> {
    /// Append this reply's frames to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Query(resp) => {
                out.reserve(answer(resp).map_or(0, framed_len));
                out.extend_from_slice(&json_frame(&header(resp)));
                push_answer(out, resp);
            }
            Reply::Batch(resps) => {
                out.reserve(resps.iter().filter_map(answer).map(framed_len).sum());
                let header = Value::Obj(vec![
                    ("ok".into(), Value::Bool(true)),
                    (
                        "batch".into(),
                        Value::Arr(resps.iter().map(header).collect()),
                    ),
                ]);
                out.extend_from_slice(&json_frame(&header));
                for resp in resps.iter() {
                    push_answer(out, resp);
                }
            }
            Reply::Json(v) => out.extend_from_slice(&json_frame(v)),
        }
    }
}

/// A response's header: an `ok` reply with its answer's byte count in
/// place of the answer, or the whole error.
fn header(resp: &Response) -> Value {
    match resp {
        Response::Ok(ok) => encode_ok(ok, ("xml_bytes", Value::count(ok.xml.len() as u64))),
        Response::Err(err) => encode_err(err),
    }
}

/// The answer an `ok` response sends after its header.
fn answer(resp: &Response) -> Option<&str> {
    match resp {
        Response::Ok(ok) => Some(&ok.xml),
        Response::Err(_) => None,
    }
}

/// The bytes `xml` takes on the wire, chunk prefixes included.
fn framed_len(xml: &str) -> usize {
    xml.len() + 4 * xml.len().div_ceil(MAX_FRAME)
}

/// Append an `ok` response's answer as chunk frames of at most
/// [`MAX_FRAME`] bytes.
fn push_answer(out: &mut Vec<u8>, resp: &Response) {
    for chunk in answer(resp)
        .unwrap_or_default()
        .as_bytes()
        .chunks(MAX_FRAME)
    {
        push_frame(out, chunk);
    }
}

/// Write one reply in one `write`, through `out` (cleared first, and left
/// holding the bytes so a connection reuses its allocation).
pub fn write_reply(
    w: &mut impl Write,
    out: &mut Vec<u8>,
    reply: &Reply<'_>,
) -> std::io::Result<()> {
    out.clear();
    reply.encode(out);
    w.write_all(out)?;
    w.flush()
}

/// Read one reply: its header frame, then the chunks of every answer the
/// header announces, each put back into the header as an `xml` string in
/// place of its `xml_bytes`. `Ok(None)` is a clean EOF before the header;
/// a reply cut anywhere after it is an error, never a shorter answer.
pub fn read_reply(r: &mut impl Read) -> std::io::Result<Option<Value>> {
    let Some(frame) = read_frame(r)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&frame).map_err(|e| invalid(format!("non-utf8 reply: {e}")))?;
    let mut v = Value::parse(text).map_err(|e| invalid(format!("{e}: {text}")))?;
    if let Value::Obj(pairs) = &mut v {
        match pairs.iter_mut().find(|(k, _)| k == "batch") {
            Some((_, Value::Arr(items))) => {
                for item in items {
                    if let Value::Obj(pairs) = item {
                        read_answer(r, pairs)?;
                    }
                }
            }
            _ => read_answer(r, pairs)?,
        }
    }
    Ok(Some(v))
}

/// If `pairs` announces an answer, read its chunks and put it in place.
fn read_answer(r: &mut impl Read, pairs: &mut [(String, Value)]) -> std::io::Result<()> {
    let Some(pair) = pairs.iter_mut().find(|(k, _)| k == "xml_bytes") else {
        return Ok(());
    };
    let want = (pair.1.as_u64())
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| invalid("`xml_bytes` is not a byte count"))?;
    let mut xml = Vec::new();
    while xml.len() < want {
        let mut prefix = [0u8; 4];
        r.read_exact(&mut prefix)?;
        let len = frame_len(prefix)?;
        if len == 0 || len > want - xml.len() {
            return Err(invalid(format!(
                "a chunk of {len} bytes with {} of the answer's {want} to come",
                want - xml.len()
            )));
        }
        let at = xml.len();
        xml.resize(at + len, 0);
        r.read_exact(&mut xml[at..])?;
    }
    let xml = String::from_utf8(xml).map_err(|e| invalid(format!("non-utf8 answer: {e}")))?;
    *pair = ("xml".into(), Value::Str(xml));
    Ok(())
}

/// Which rendering of the telemetry plane a `metrics` op asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsView {
    /// Cumulative counters only (the pre-telemetry response shape).
    #[default]
    Counters,
    /// The full report: histograms, windows, events, slow log.
    Report,
    /// Prometheus text exposition.
    Prometheus,
    /// The human stat printout (what `gql-serve stat` prints).
    Text,
}

impl MetricsView {
    pub fn from_name(name: &str) -> Option<MetricsView> {
        match name {
            "counters" => Some(MetricsView::Counters),
            "report" => Some(MetricsView::Report),
            "prometheus" => Some(MetricsView::Prometheus),
            "text" => Some(MetricsView::Text),
            _ => None,
        }
    }
}

/// One parsed client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Ping,
    Query(Request),
    Batch(Vec<Request>),
    Metrics(MetricsView),
    /// Hot-swap an existing dataset to this XML source (admin surface).
    Reload {
        dataset: String,
        xml: String,
    },
}

/// Decode a request frame. Errors are `bad-request` messages.
pub fn decode_op(payload: &[u8]) -> Result<Op, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
    let v = Value::parse(text).map_err(|e| format!("frame is not JSON: {e}"))?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing `op` field")?;
    match op {
        "ping" => Ok(Op::Ping),
        "metrics" => match v.get("view") {
            None => Ok(Op::Metrics(MetricsView::default())),
            Some(view) => view
                .as_str()
                .and_then(MetricsView::from_name)
                .map(Op::Metrics)
                .ok_or_else(|| {
                    format!(
                        "unknown metrics view: {} (expected counters|report|prometheus|text)",
                        view.render()
                    )
                }),
        },
        "query" => decode_request(&v, None).map(Op::Query),
        "reload" => {
            let field = |name: &str| -> Result<String, String> {
                v.get(name)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("missing `{name}` field"))
            };
            Ok(Op::Reload {
                dataset: field("dataset")?,
                xml: field("xml")?,
            })
        }
        "batch" => {
            let tenant = v.get("tenant").and_then(Value::as_str);
            let items = v
                .get("items")
                .and_then(Value::as_arr)
                .ok_or("batch without `items` array")?;
            items
                .iter()
                .map(|item| decode_request(item, tenant))
                .collect::<Result<Vec<_>, _>>()
                .map(Op::Batch)
        }
        other => Err(format!("unknown op: {other}")),
    }
}

fn decode_request(v: &Value, default_tenant: Option<&str>) -> Result<Request, String> {
    let field = |name: &str| -> Result<String, String> {
        v.get(name)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("missing `{name}` field"))
    };
    let tenant = match v.get("tenant").and_then(Value::as_str).or(default_tenant) {
        Some(t) => t.to_string(),
        None => return Err("missing `tenant` field".into()),
    };
    Ok(Request {
        tenant,
        dataset: field("dataset")?,
        kind: field("kind")?,
        query: field("query")?.into(),
        profile: v.get("profile").and_then(Value::as_bool).unwrap_or(false),
        request_id: v
            .get("request_id")
            .and_then(Value::as_str)
            .map(str::to_string),
    })
}

/// Encode a request as a `{"op":"query",…}` frame value (the client
/// half of [`decode_op`]).
pub fn encode_request(req: &Request) -> Value {
    let mut pairs = vec![
        ("op".into(), Value::str("query")),
        ("tenant".into(), Value::str(req.tenant.clone())),
        ("dataset".into(), Value::str(req.dataset.clone())),
        ("kind".into(), Value::str(req.kind.clone())),
        ("query".into(), Value::str(&*req.query)),
    ];
    if req.profile {
        pairs.push(("profile".into(), Value::Bool(true)));
    }
    if let Some(id) = &req.request_id {
        pairs.push(("request_id".into(), Value::str(id.clone())));
    }
    Value::Obj(pairs)
}

/// Encode one service response as one JSON value, its answer in `xml`:
/// what [`read_reply`] gives back for it. The server sends an `ok` reply as
/// a [`Reply`] instead, which does not copy the answer.
pub fn encode_response(resp: &Response) -> Value {
    match resp {
        Response::Ok(ok) => encode_ok(ok, ("xml", Value::str(ok.xml.clone()))),
        Response::Err(err) => encode_err(err),
    }
}

/// An `ok` reply's fields, the answer given as `answer`: the answer itself,
/// or in a header its byte count.
fn encode_ok(ok: &QueryOk, answer: (&str, Value)) -> Value {
    let mut pairs = vec![
        ("ok".into(), Value::Bool(true)),
        (answer.0.into(), answer.1),
        ("result_count".into(), Value::count(ok.result_count)),
        ("eval_us".into(), Value::count(ok.eval_us)),
        ("plan".into(), Value::str(&*ok.plan)),
        ("plan_cache".into(), Value::str(ok.plan_cache.clone())),
        ("index_cache".into(), Value::str(ok.index_cache.clone())),
        ("epoch".into(), Value::count(ok.epoch)),
    ];
    if let Some(p) = &ok.profile {
        // The profile is itself JSON; embed it structurally, not as a
        // string (fall back to the raw string if it ever fails to parse).
        match Value::parse(p) {
            Ok(v) => pairs.push(("profile".into(), v)),
            Err(_) => pairs.push(("profile".into(), Value::str(p.clone()))),
        }
    }
    if let Some(s) = &ok.shape {
        pairs.push(("shape".into(), Value::str(s.clone())));
    }
    Value::Obj(pairs)
}

fn encode_err(err: &QueryErr) -> Value {
    let mut pairs = vec![
        ("ok".into(), Value::Bool(false)),
        ("code".into(), Value::str(err.code.name())),
        ("message".into(), Value::str(err.message.clone())),
    ];
    if let Some(r) = &err.report {
        pairs.push(("report".into(), Value::str(r.clone())));
    }
    if let Some(ms) = err.retry_after_ms {
        pairs.push(("retry_after_ms".into(), Value::count(ms)));
    }
    Value::Obj(pairs)
}

/// Decode a response frame back into a [`Response`] (the client half; the
/// tests and the benchmark use it to talk to a real socket).
pub fn decode_response(v: &Value) -> Result<Response, String> {
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(Response::Ok(Box::new(QueryOk {
            xml: v
                .get("xml")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            result_count: v.get("result_count").and_then(Value::as_u64).unwrap_or(0),
            eval_us: v.get("eval_us").and_then(Value::as_u64).unwrap_or(0),
            plan: v
                .get("plan")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .into(),
            plan_cache: v
                .get("plan_cache")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            index_cache: v
                .get("index_cache")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            epoch: v.get("epoch").and_then(Value::as_u64).unwrap_or(0),
            profile: v.get("profile").map(Value::render),
            shape: v.get("shape").and_then(Value::as_str).map(str::to_string),
        }))),
        Some(false) => Ok(Response::Err(QueryErr {
            code: v
                .get("code")
                .and_then(Value::as_str)
                .and_then(ErrorCode::from_name)
                .ok_or("error response without a known `code`")?,
            message: v
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            report: v.get("report").and_then(Value::as_str).map(str::to_string),
            retry_after_ms: v.get("retry_after_ms").and_then(Value::as_u64),
        })),
        None => Err("response without boolean `ok`".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(&b"{\"op\":\"ping\"}"[..])
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        // A length prefix over the cap errors before any body allocation.
        let huge = ((MAX_FRAME + 1) as u32).to_be_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // EOF mid-frame is an error, not a hang.
        let truncated = [0u8, 0, 0, 10, b'x', b'y'];
        assert!(read_frame(&mut &truncated[..]).is_err());
    }

    fn ok_with(xml: String) -> Response {
        Response::Ok(Box::new(QueryOk {
            xml,
            result_count: 3,
            eval_us: 17,
            plan: "Scan".into(),
            plan_cache: "hit".into(),
            index_cache: "miss".into(),
            epoch: 4,
            profile: None,
            shape: None,
        }))
    }

    /// An answer of about `n` bytes of XML. Its text is all `é`s, two bytes
    /// each, from an odd offset: every chunk boundary splits a character.
    fn answer_of(n: usize) -> String {
        format!("<r>{}</r>", "é".repeat((n - 7) / 2))
    }

    /// Every reply reads back as the single-value form `encode_response`
    /// builds: an answer of any size, split into chunks of at most
    /// `MAX_FRAME` bytes, an empty answer with no chunk at all, an error,
    /// and a batch whose answers follow its header in item order.
    #[test]
    fn replies_read_back_as_their_single_value_form() {
        let big = ok_with(answer_of(2 * MAX_FRAME + 5));
        let empty = ok_with(String::new());
        let err = Response::err(ErrorCode::UnknownDataset, "no dataset `ghost`");
        let mut out = Vec::new();
        for resp in [&big, &empty, &err] {
            Reply::Query(resp).encode(&mut out);
        }
        let batch = [ok_with("<a/>".into()), err.clone(), big.clone()];
        Reply::Batch(&batch).encode(&mut out);
        Reply::Json(Value::Obj(vec![("pong".into(), Value::Bool(true))])).encode(&mut out);
        // Three frames for the big answer, none for the empty one.
        let frames = {
            let mut r = &out[..];
            std::iter::from_fn(|| read_frame(&mut r).unwrap()).count()
        };
        assert_eq!(frames, (1 + 3) + 1 + 1 + (1 + 1 + 3) + 1);
        let mut r = &out[..];
        for resp in [&big, &empty, &err] {
            assert_eq!(read_reply(&mut r).unwrap(), Some(encode_response(resp)));
        }
        let items = batch.iter().map(encode_response).collect();
        let want = Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("batch".into(), Value::Arr(items)),
        ]);
        assert_eq!(read_reply(&mut r).unwrap(), Some(want));
        let pong = read_reply(&mut r).unwrap().unwrap();
        assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
        assert_eq!(read_reply(&mut r).unwrap(), None, "clean EOF");
    }

    /// A reply cut anywhere after its header is an error, never a shorter
    /// answer; so is a chunk longer than what the header announced.
    #[test]
    fn a_cut_reply_is_an_error_not_a_short_answer() {
        let mut out = Vec::new();
        Reply::Query(&ok_with(answer_of(MAX_FRAME + 10))).encode(&mut out);
        let header = 4 + u32::from_be_bytes(out[..4].try_into().unwrap()) as usize;
        for cut in [header, header + 2, header + 4, out.len() / 2, out.len() - 1] {
            assert!(read_reply(&mut &out[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = Vec::new();
        push_frame(&mut long, br#"{"ok":true,"xml_bytes":3}"#);
        push_frame(&mut long, b"<r/>");
        let e = read_reply(&mut &long[..]).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
    }

    #[test]
    fn ops_decode() {
        assert_eq!(decode_op(b"{\"op\":\"ping\"}"), Ok(Op::Ping));
        assert_eq!(
            decode_op(b"{\"op\":\"metrics\"}"),
            Ok(Op::Metrics(MetricsView::Counters))
        );
        assert_eq!(
            decode_op(br#"{"op":"metrics","view":"report"}"#),
            Ok(Op::Metrics(MetricsView::Report))
        );
        assert_eq!(
            decode_op(br#"{"op":"metrics","view":"prometheus"}"#),
            Ok(Op::Metrics(MetricsView::Prometheus))
        );
        assert_eq!(
            decode_op(br#"{"op":"metrics","view":"text"}"#),
            Ok(Op::Metrics(MetricsView::Text))
        );
        assert!(
            decode_op(br#"{"op":"metrics","view":"warp"}"#).is_err(),
            "unknown views are structured errors"
        );
        let q =
            decode_op(br#"{"op":"query","tenant":"t","dataset":"d","kind":"xpath","query":"//a"}"#)
                .unwrap();
        assert_eq!(q, Op::Query(Request::new("t", "d", "xpath", "//a")));
        let q = decode_op(
            br#"{"op":"query","tenant":"t","dataset":"d","kind":"xpath","query":"//a","request_id":"r-7"}"#,
        )
        .unwrap();
        assert_eq!(
            q,
            Op::Query(Request::new("t", "d", "xpath", "//a").with_request_id("r-7"))
        );
        assert_eq!(
            decode_op(br#"{"op":"reload","dataset":"d","xml":"<r/>"}"#),
            Ok(Op::Reload {
                dataset: "d".into(),
                xml: "<r/>".into()
            })
        );
        assert!(
            decode_op(br#"{"op":"reload","dataset":"d"}"#).is_err(),
            "reload without xml is a structured error"
        );
        // Batch items inherit the batch-level tenant unless they override.
        let b = decode_op(
            br#"{"op":"batch","tenant":"t","items":[{"dataset":"d","kind":"xpath","query":"//a"},{"tenant":"u","dataset":"d","kind":"xpath","query":"//b"}]}"#,
        )
        .unwrap();
        let Op::Batch(items) = b else {
            panic!("not a batch")
        };
        assert_eq!(items[0].tenant, "t");
        assert_eq!(items[1].tenant, "u");
    }

    #[test]
    fn malformed_ops_are_structured_errors() {
        for bad in [
            &b"not json"[..],
            b"{}",
            b"{\"op\":\"warp\"}",
            b"{\"op\":\"query\",\"tenant\":\"t\"}",
            b"{\"op\":\"batch\"}",
            b"\xff\xfe",
        ] {
            assert!(decode_op(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let ok = Response::Ok(Box::new(QueryOk {
            xml: "<out/>".into(),
            result_count: 3,
            eval_us: 17,
            plan: "Scan".into(),
            plan_cache: "hit".into(),
            index_cache: "hit".into(),
            epoch: 4,
            profile: None,
            shape: Some("run".into()),
        }));
        assert_eq!(decode_response(&encode_response(&ok)), Ok(ok));
        let err = Response::Err(QueryErr {
            code: ErrorCode::Budget,
            message: "budget exceeded (matches): …".into(),
            report: Some("phase=eval rounds=0 matches=10 nodes=0".into()),
            retry_after_ms: None,
        });
        assert_eq!(decode_response(&encode_response(&err)), Ok(err));
        let limited = Response::Err(QueryErr {
            code: ErrorCode::RateLimited,
            message: "tenant `t` rate quota exhausted; retry in 250ms".into(),
            report: None,
            retry_after_ms: Some(250),
        });
        let encoded = encode_response(&limited);
        assert_eq!(
            encoded.get("code").and_then(Value::as_str),
            Some("rate_limited")
        );
        assert_eq!(
            encoded.get("retry_after_ms").and_then(Value::as_u64),
            Some(250)
        );
        assert_eq!(decode_response(&encoded), Ok(limited));
        // Requests roundtrip through their encoder too.
        let req = Request::new("t", "d", "xpath", "//a").with_request_id("id-1");
        assert_eq!(
            decode_op(encode_request(&req).render().as_bytes()),
            Ok(Op::Query(req))
        );
    }
}
