//! The wire protocol: length-prefixed JSON frames over any byte stream.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. Frames above [`MAX_FRAME`] are refused with a
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
//! Every response is one frame: `{"ok":true,…}` (query successes carry
//! the dataset `epoch` they executed against) or
//! `{"ok":false,"code":"…","message":"…"[,"report":"…"][,"retry_after_ms":N]}`.
//! Budget and cancellation errors carry the partial-progress trip report
//! in `report` — the service returns how far the run got, it never
//! silently drops the work. `rate_limited` rejections carry
//! `retry_after_ms`, the time to the quota window's rollover.

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
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
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

/// Encode one service response.
pub fn encode_response(resp: &Response) -> Value {
    match resp {
        Response::Ok(ok) => encode_ok(ok),
        Response::Err(err) => encode_err(err),
    }
}

fn encode_ok(ok: &QueryOk) -> Value {
    let mut pairs = vec![
        ("ok".into(), Value::Bool(true)),
        ("xml".into(), Value::str(ok.xml.clone())),
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
