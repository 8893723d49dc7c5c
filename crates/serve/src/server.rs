//! The TCP front end: an accept loop, one thread per connection, and
//! disconnect-triggered cancellation.
//!
//! While a query is in flight the connection thread polls both the
//! response channel and the socket; a client that hangs up (EOF on peek)
//! trips the request's `CancelToken`, the engine aborts at its next
//! checkpoint, and the worker's slot frees — a dead client cannot pin a
//! tenant's envelope. Malformed frames get a structured `bad-request`
//! response; oversized or mid-frame-truncated input closes the connection
//! after (when possible) a final error frame. The server never panics or
//! hangs on client behaviour — the protocol tests storm it with garbage.
//!
//! Connections also carry **idle timeouts** ([`ServerConfig`]): a client
//! that opens a socket and stalls mid-frame (a slow-loris writer) or stops
//! draining its replies is reaped when the read or write deadline fires —
//! the thread exits cleanly and every slot it held is released through the
//! normal cancellation path. Chaos-enabled servers (`ServerConfig::chaos`)
//! additionally honour the process-wide [`gql_guard::fault`] plan's
//! `torn_replies` / `drop_replies` token budgets, cutting connections
//! mid-frame so the resilient client's retry path can be stormed.

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gql_guard::{fault, CancelToken};

use crate::json::Value;
use crate::proto::{decode_op, encode_response, read_frame, write_frame, MetricsView, Op};
use crate::service::{ErrorCode, Response, ServeHandle};

/// Socket-level policy for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Reap a connection whose next request frame has not fully arrived
    /// within this window. `None` waits forever (pre-hardening behaviour).
    pub read_timeout: Option<Duration>,
    /// Reap a connection that stops draining replies for this long.
    pub write_timeout: Option<Duration>,
    /// Honour the installed [`gql_guard::fault`] plan's reply seams
    /// (`torn_replies`, `drop_replies`). Off by default so bystander
    /// servers in the same process never steal another test's tokens.
    pub chaos: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            chaos: false,
        }
    }
}

/// A running TCP server. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop; connection threads exit when their client
/// disconnects, stalls past the configured timeouts, or on their next
/// request after shutdown.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve `handle`
    /// with the default [`ServerConfig`].
    pub fn bind(addr: &str, handle: ServeHandle) -> std::io::Result<Server> {
        Server::bind_with(addr, handle, ServerConfig::default())
    }

    /// Bind with an explicit socket policy.
    pub fn bind_with(
        addr: &str,
        handle: ServeHandle,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("gql-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    let handle = handle.clone();
                    let _ = std::thread::Builder::new()
                        .name("gql-serve-conn".into())
                        .spawn(move || serve_connection(stream, handle, config));
                }
            })?;
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolved port for `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept loop.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accepting();
        }
    }
}

/// How often the in-flight poll loop checks the socket for a disconnect.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

fn serve_connection(mut stream: TcpStream, handle: ServeHandle, config: ServerConfig) {
    // A stalled peer trips these deadlines and the thread reaps the
    // connection; failures to arm them are treated as a dead socket.
    // Replies also leave as two writes (length prefix, then body), so
    // disable Nagle or delayed ACK stalls every reply ~40ms.
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(config.read_timeout).is_err()
        || stream.set_write_timeout(config.write_timeout).is_err()
    {
        return;
    }
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean EOF, mid-frame EOF, oversized length, socket error:
            // either way this connection is done. For oversized frames try
            // to say so first. Timeouts (a slow-loris writer holding the
            // frame open, or pure idleness) reap the connection silently —
            // there is no request to answer.
            Ok(None) => return,
            Err(e) => {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    respond_err(&mut stream, ErrorCode::BadRequest, &e.to_string());
                }
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        let op = match decode_op(&frame) {
            Ok(op) => op,
            Err(msg) => {
                // Malformed JSON / fields: structured error, connection
                // stays usable (framing itself was intact).
                respond_err(&mut stream, ErrorCode::BadRequest, &msg);
                continue;
            }
        };
        let reply = match op {
            Op::Ping => Value::Obj(vec![
                ("ok".into(), Value::Bool(true)),
                ("pong".into(), Value::Bool(true)),
            ]),
            Op::Metrics(MetricsView::Counters) => Value::Obj(vec![
                ("ok".into(), Value::Bool(true)),
                ("metrics".into(), handle.metrics().to_value()),
            ]),
            Op::Metrics(MetricsView::Report) => Value::Obj(vec![
                ("ok".into(), Value::Bool(true)),
                ("report".into(), handle.metrics_report().to_value()),
            ]),
            Op::Metrics(MetricsView::Prometheus) => Value::Obj(vec![
                ("ok".into(), Value::Bool(true)),
                (
                    "prometheus".into(),
                    Value::str(handle.metrics_report().to_prometheus_text()),
                ),
            ]),
            Op::Metrics(MetricsView::Text) => Value::Obj(vec![
                ("ok".into(), Value::Bool(true)),
                ("stat".into(), Value::str(handle.metrics_report().to_text())),
            ]),
            Op::Reload { dataset: name, xml } => match handle.reload_xml(&name, &xml) {
                Ok(dataset) => Value::Obj(vec![
                    ("ok".into(), Value::Bool(true)),
                    (
                        "reload".into(),
                        Value::Obj(vec![
                            ("dataset".into(), Value::str(dataset.name())),
                            ("epoch".into(), Value::count(dataset.epoch())),
                            (
                                "draining".into(),
                                Value::count(handle.catalog().draining() as u64),
                            ),
                        ]),
                    ),
                ]),
                Err(resp) => encode_response(&resp),
            },
            Op::Query(req) => {
                let resp = run_watching_disconnect(&handle, &req, &stream);
                encode_response(&resp)
            }
            Op::Batch(reqs) => {
                // Batched submission shares the catalog snapshot and plan
                // warmup inside the service; disconnect-watching covers the
                // whole batch via one shared token.
                let responses = handle.submit_batch(&reqs);
                Value::Obj(vec![
                    ("ok".into(), Value::Bool(true)),
                    (
                        "batch".into(),
                        Value::Arr(responses.iter().map(encode_response).collect()),
                    ),
                ])
            }
        };
        if send_reply(&mut stream, reply.render().as_bytes(), config.chaos).is_err() {
            return;
        }
    }
}

/// Write one reply frame, honouring the chaos seams when enabled: a
/// `drop_replies` token vanishes the reply entirely (the client sees a
/// mid-stream disconnect), a `torn_replies` token writes the length prefix
/// plus half the body before cutting the socket (mid-frame EOF). Both
/// close the connection so the fault is unambiguous on the wire.
fn send_reply(stream: &mut TcpStream, payload: &[u8], chaos: bool) -> std::io::Result<()> {
    if chaos {
        if fault::take_drop_reply() {
            let _ = stream.shutdown(Shutdown::Both);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "fault: dropped reply",
            ));
        }
        if fault::take_torn_reply() {
            let _ = stream.write_all(&(payload.len() as u32).to_be_bytes());
            let _ = stream.write_all(&payload[..payload.len() / 2]);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "fault: torn reply",
            ));
        }
    }
    write_frame(stream, payload)
}

/// Run one query, cancelling it if the client hangs up mid-flight.
fn run_watching_disconnect(
    handle: &ServeHandle,
    req: &crate::service::Request,
    stream: &TcpStream,
) -> Response {
    let cancel = CancelToken::new();
    let mut pending = match handle.submit_cancellable(req, cancel.clone()) {
        Ok(p) => p,
        Err(immediate) => return immediate,
    };
    loop {
        match pending.wait_timeout(POLL_INTERVAL) {
            Ok(resp) => return resp,
            Err(still_pending) => pending = still_pending,
        }
        if client_gone(stream) {
            // Trip the token; keep waiting for the worker's trip report —
            // the write below will likely fail, but the slot must be
            // released through the normal path either way.
            cancel.cancel();
        }
    }
}

/// Peek the socket without blocking: `Ok(0)` is EOF (client hung up).
/// Pipelined request bytes also show up here, which is fine — peeking
/// consumes nothing.
fn client_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = matches!(stream.peek(&mut probe), Ok(0));
    let _ = stream.set_nonblocking(false);
    gone
}

fn respond_err(stream: &mut TcpStream, code: ErrorCode, message: &str) {
    let frame = encode_response(&Response::err(code, message)).render();
    let _ = write_frame(stream, frame.as_bytes());
    let _ = stream.flush();
}

/// A minimal blocking client for tests, the CLI and the benchmark.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// Send one JSON request and read one JSON response.
    pub fn roundtrip(&mut self, request: &Value) -> std::io::Result<Value> {
        write_frame(&mut self.stream, request.render().as_bytes())?;
        let frame = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")
        })?;
        let text = String::from_utf8(frame)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Value::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The raw stream (for tests that need to misbehave on purpose).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
