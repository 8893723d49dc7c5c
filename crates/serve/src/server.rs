//! The TCP front end: an accept loop, one thread per connection, and one
//! disconnect watcher per server.
//!
//! A connection thread runs its own queries: it submits through
//! [`ServeHandle::submit_with`], so a query runs on that thread once it
//! holds a run slot, and a batch runs its items there one after another.
//! It reads requests through one buffer and writes each reply, with all
//! of its answers' chunks, in one `write` from a buffer it keeps for the
//! next reply ([`crate::proto`]).
//! The listener, one thread per connection and the watcher are the only
//! threads a server has. While a query or a batch is in flight, the
//! connection's cancel token is where the server's watcher thread can find
//! it. Every
//! `POLL_INTERVAL` the watcher peeks each connection that has a run in
//! flight; a client that hung up (EOF on peek) has its token tripped, the
//! engine aborts at its next checkpoint, and the run's slot frees — a dead
//! client cannot pin a tenant's envelope. Malformed frames get a structured
//! `bad-request` response; oversized or mid-frame-truncated input closes the
//! connection after (when possible) a final error frame. The server never
//! panics or hangs on client behaviour — the protocol tests storm it with
//! garbage.
//!
//! Connections also carry **idle timeouts** ([`ServerConfig`]): a client
//! that opens a socket and stalls mid-frame (a slow-loris writer) or stops
//! draining its replies is reaped when the read or write deadline fires —
//! the thread exits cleanly and every slot it held is released through the
//! normal cancellation path. A server over a chaos-enabled service
//! (`ServiceBuilder::chaos`) additionally honours the process-wide
//! [`gql_guard::fault`] plan's `torn_replies` / `drop_replies` token
//! budgets, cutting connections mid-frame so the resilient client's retry
//! path can be stormed.

use std::io::{BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use gql_guard::{fault, CancelToken};

use crate::json::Value;
use crate::proto::{
    decode_op, read_frame, read_reply, write_reply, write_request, MetricsView, Op, Reply,
};
use crate::service::{ErrorCode, Response, ServeHandle};

/// Socket-level policy for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Reap a connection whose next request frame has not fully arrived
    /// within this window. `None` waits forever (pre-hardening behaviour).
    pub read_timeout: Option<Duration>,
    /// Reap a connection that stops draining replies for this long.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A running TCP server. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop; connection threads exit when their client
/// disconnects, stalls past the configured timeouts, or on their next
/// request after shutdown, and the watcher thread exits after the last of
/// them.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    watch: Arc<Watch>,
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
        let watch = Arc::new(Watch::default());
        // Detached like the connection threads: it outlives the server
        // until their last one exits.
        let watcher = Arc::clone(&watch);
        std::thread::Builder::new()
            .name("gql-serve-watch".into())
            .spawn(move || watcher.run())?;
        let accept_stop = Arc::clone(&stop);
        let accept_watch = Arc::clone(&watch);
        let accept_thread = std::thread::Builder::new()
            .name("gql-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn = accept_watch.register(stream);
                    let handle = handle.clone();
                    let _ = std::thread::Builder::new()
                        .name("gql-serve-conn".into())
                        .spawn(move || serve_connection(&conn, handle, config));
                }
            });
        let accept_thread = match accept_thread {
            Ok(thread) => thread,
            Err(e) => {
                watch.close();
                return Err(e);
            }
        };
        Ok(Server {
            addr,
            stop,
            watch,
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
        self.watch.close();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accepting();
        }
    }
}

/// How often the watcher checks the connections with a run in flight for
/// a disconnect.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// The connections of one server, as its watcher thread sees them.
#[derive(Default)]
struct Watch {
    state: Mutex<WatchState>,
    /// Wakes an idle watcher when a connection registers or the server
    /// closes.
    wake: Condvar,
}

#[derive(Default)]
struct WatchState {
    /// Weak, so that a connection's socket closes when its thread exits.
    conns: Vec<Weak<Conn>>,
    /// The server is gone: no connection registers any more.
    closed: bool,
}

impl Watch {
    fn state(&self) -> MutexGuard<'_, WatchState> {
        // Every update is one push or one flag: a panic leaves it whole.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register an accepted connection; its thread holds the result.
    fn register(&self, stream: TcpStream) -> Arc<Conn> {
        let conn = Arc::new(Conn {
            stream,
            run: Mutex::new(None),
        });
        self.state().conns.push(Arc::downgrade(&conn));
        self.wake.notify_one();
        conn
    }

    fn close(&self) {
        self.state().closed = true;
        self.wake.notify_one();
    }

    /// The watcher thread: every `POLL_INTERVAL`, check each connection
    /// with a run in flight. With no connection it sleeps until one
    /// registers, and it returns once the server is closed and its last
    /// connection is gone.
    fn run(&self) {
        let mut state = self.state();
        loop {
            state.conns.retain(|conn| match conn.upgrade() {
                Some(conn) => {
                    conn.check();
                    true
                }
                None => false,
            });
            if !state.conns.is_empty() {
                drop(state);
                std::thread::sleep(POLL_INTERVAL);
                state = self.state();
            } else if state.closed {
                return;
            } else {
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// One connection: its socket, shared by the connection's thread and the
/// watcher, and the cancel token of its run in flight.
struct Conn {
    stream: TcpStream,
    /// Set while a query or batch of this connection is in flight. The
    /// watcher peeks the socket only while it is set, and holds this lock
    /// across the non-blocking toggle and the peek; the connection thread
    /// sets it after reading a request and clears it before writing the
    /// reply. The socket is the one the connection thread reads and
    /// writes, so this is what keeps its every read and write blocking.
    run: Mutex<Option<CancelToken>>,
}

impl Conn {
    fn run(&self) -> MutexGuard<'_, Option<CancelToken>> {
        // Every update is one store: a panic leaves it whole.
        self.run.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Call `f` with a cancel token the watcher trips if the client hangs
    /// up before `f` returns — unless `pipelined`, when the token is never
    /// tripped: the request behind this one is not yet read.
    fn watched<T>(&self, pipelined: bool, f: impl FnOnce(CancelToken) -> T) -> T {
        let cancel = CancelToken::new();
        if pipelined {
            return f(cancel);
        }
        *self.run() = Some(cancel.clone());
        let out = f(cancel);
        *self.run() = None;
        out
    }

    /// Trip the run in flight, if there is one and its client hung up.
    fn check(&self) {
        let run = self.run();
        if let Some(cancel) = run.as_ref() {
            if !cancel.is_cancelled() && client_gone(&self.stream) {
                cancel.cancel();
            }
        }
    }
}

fn serve_connection(conn: &Conn, handle: ServeHandle, config: ServerConfig) {
    let stream = &conn.stream;
    // A stalled peer trips these deadlines and the thread reaps the
    // connection; failures to arm them are treated as a dead socket.
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(config.read_timeout).is_err()
        || stream.set_write_timeout(config.write_timeout).is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    // The reply bytes, reused from one reply to the next.
    let mut out = Vec::new();
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean EOF, mid-frame EOF, oversized length, socket error:
            // either way this connection is done. For oversized frames try
            // to say so first. Timeouts (a slow-loris writer holding the
            // frame open, or pure idleness) reap the connection silently —
            // there is no request to answer.
            Ok(None) => return,
            Err(e) => {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    respond_err(stream, &mut out, ErrorCode::BadRequest, &e.to_string());
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
                respond_err(stream, &mut out, ErrorCode::BadRequest, &msg);
                continue;
            }
        };
        // A request already read behind this one keeps the socket readable,
        // so the watcher could not see a hang-up anyway: it is not asked to.
        let pipelined = !reader.buffer().is_empty();
        let ok = |pairs: Vec<(String, Value)>| {
            let mut all = vec![("ok".into(), Value::Bool(true))];
            all.extend(pairs);
            Reply::Json(Value::Obj(all))
        };
        let (response, responses);
        let reply = match op {
            Op::Ping => ok(vec![("pong".into(), Value::Bool(true))]),
            Op::Metrics(MetricsView::Counters) => {
                ok(vec![("metrics".into(), handle.metrics().to_value())])
            }
            Op::Metrics(MetricsView::Report) => {
                ok(vec![("report".into(), handle.metrics_report().to_value())])
            }
            Op::Metrics(MetricsView::Prometheus) => ok(vec![(
                "prometheus".into(),
                Value::str(handle.metrics_report().to_prometheus_text()),
            )]),
            Op::Metrics(MetricsView::Text) => ok(vec![(
                "stat".into(),
                Value::str(handle.metrics_report().to_text()),
            )]),
            Op::Reload { dataset: name, xml } => match handle.reload_xml(&name, &xml) {
                Ok(dataset) => ok(vec![(
                    "reload".into(),
                    Value::Obj(vec![
                        ("dataset".into(), Value::str(dataset.name())),
                        ("epoch".into(), Value::count(dataset.epoch())),
                        (
                            "draining".into(),
                            Value::count(handle.catalog().draining() as u64),
                        ),
                    ]),
                )]),
                Err(resp) => {
                    response = resp;
                    Reply::Query(&response)
                }
            },
            Op::Query(req) => {
                response = conn.watched(pipelined, |cancel| handle.submit_with(&req, cancel));
                Reply::Query(&response)
            }
            Op::Batch(reqs) => {
                // Batched submission shares the catalog snapshot and plan
                // warmup inside the service; every run of the batch is
                // under the connection's one watched token.
                responses =
                    conn.watched(pipelined, |cancel| handle.submit_batch_with(&reqs, &cancel));
                Reply::Batch(&responses)
            }
        };
        if send_reply(stream, &mut out, &reply, handle.chaos()).is_err() {
            return;
        }
    }
}

/// Write one reply, honouring the chaos seams when the service opted in: a
/// `drop_replies` token vanishes the reply entirely (the client sees a
/// mid-stream disconnect), a `torn_replies` token writes the first half of
/// the reply's bytes before cutting the socket (mid-frame EOF; inside the
/// first chunk of an answer over
/// [`MAX_FRAME`](crate::proto::MAX_FRAME)). Both close the connection
/// so the fault is unambiguous on the wire.
fn send_reply(
    mut stream: &TcpStream,
    out: &mut Vec<u8>,
    reply: &Reply<'_>,
    chaos: bool,
) -> std::io::Result<()> {
    if chaos {
        if fault::take_drop_reply() {
            let _ = stream.shutdown(Shutdown::Both);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "fault: dropped reply",
            ));
        }
        if fault::take_torn_reply() {
            out.clear();
            reply.encode(out);
            let _ = stream.write_all(&out[..out.len() / 2]);
            let _ = stream.shutdown(Shutdown::Both);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "fault: torn reply",
            ));
        }
    }
    write_reply(&mut stream, out, reply)
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

fn respond_err(mut stream: &TcpStream, out: &mut Vec<u8>, code: ErrorCode, message: &str) {
    let _ = write_reply(
        &mut stream,
        out,
        &Reply::Query(&Response::err(code, message)),
    );
}

/// A minimal blocking client for tests, the CLI and the benchmark.
pub struct Client {
    /// The connection, read through one buffer and written directly.
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Send one JSON request and read one reply, its answers in `xml`.
    pub fn roundtrip(&mut self, request: &Value) -> std::io::Result<Value> {
        write_request(self.reader.get_mut(), request)?;
        read_reply(&mut self.reader)?
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// The raw stream (for tests that need to misbehave on purpose). A
    /// read through it bypasses the client's buffer, which holds nothing
    /// between roundtrips.
    pub fn stream(&mut self) -> &mut TcpStream {
        self.reader.get_mut()
    }
}
