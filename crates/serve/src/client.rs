//! A resilient blocking client: per-request deadlines, capped exponential
//! backoff with deterministic seeded jitter, and idempotent retries.
//!
//! The retry discipline is deliberately narrow. Only *transport* faults
//! (connection reset, torn frame, timeout) and the two explicitly
//! retryable protocol errors — `overloaded` and `rate_limited` — are
//! retried; engine-side errors (`budget`, `rejected`, `bad-request`, …)
//! are final, because retrying them re-spends the tenant's budget on a
//! request that will fail identically. Each logical request is minted one
//! idempotency key reused across all its retries, so the server's
//! worker-boundary dedup guarantees the query executes at most once even
//! when a reply was torn off the wire after the work completed.
//!
//! Jitter is driven by a splitmix64 stream seeded from the policy, never
//! the wall clock: two clients with the same seed storm a server with the
//! same schedule, which is what makes the chaos oracle reproducible.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::proto::{decode_response, encode_request, read_reply, write_request};
use crate::service::{ErrorCode, Request, Response};

/// Retry/deadline policy for a [`ResilientClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per logical request, including the first.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep (pre-jitter).
    pub max_backoff: Duration,
    /// Wall-clock budget for one logical request across all attempts.
    pub deadline: Duration,
    /// Seeds both the jitter stream and minted idempotency keys.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            deadline: Duration::from_secs(10),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    pub fn max_attempts(mut self, n: u32) -> RetryPolicy {
        self.max_attempts = n.max(1);
        self
    }

    pub fn base_backoff(mut self, d: Duration) -> RetryPolicy {
        self.base_backoff = d;
        self
    }

    pub fn max_backoff(mut self, d: Duration) -> RetryPolicy {
        self.max_backoff = d;
        self
    }

    pub fn deadline(mut self, d: Duration) -> RetryPolicy {
        self.deadline = d;
        self
    }

    pub fn seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }
}

/// Why a logical request ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// The per-request deadline expired before a final response arrived.
    DeadlineExceeded { attempts: u32, last: String },
    /// Every attempt hit a retryable fault and the attempt budget ran out.
    RetriesExhausted { attempts: u32, last: String },
    /// The server sent a well-framed reply the client cannot interpret.
    /// Never retried: the transport is fine, the conversation is not.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::DeadlineExceeded { attempts, last } => {
                write!(f, "deadline exceeded after {attempts} attempt(s): {last}")
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempt(s): {last}")
            }
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One step of a splitmix64 stream (public-domain constants).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Backoff before retry number `retry` (0-based): the capped exponential
/// `base · 2^retry`, then "equal jitter" — half deterministic, half drawn
/// from the seeded stream — so synchronized clients decorrelate without
/// ever sleeping less than half the nominal delay.
fn backoff_delay(policy: &RetryPolicy, retry: u32, rng: &mut u64) -> Duration {
    let nominal = policy
        .base_backoff
        .saturating_mul(1u32 << retry.min(16))
        .min(policy.max_backoff);
    let micros = nominal.as_micros().min(u128::from(u64::MAX)) as u64;
    let half = micros / 2;
    let jitter = if half == 0 {
        0
    } else {
        splitmix64(rng) % (half + 1)
    };
    Duration::from_micros(half + jitter)
}

/// A transport-level attempt failure (always retryable).
struct Torn(String);

/// A blocking client that retries transport faults and backpressure
/// rejections under a per-request deadline. Not `Clone`: each client owns
/// one connection and one jitter stream.
pub struct ResilientClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    /// The connection, read through one buffer and written directly.
    stream: Option<BufReader<TcpStream>>,
    rng: u64,
    next_id: u64,
    retries: u64,
    reconnects: u64,
}

impl ResilientClient {
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> ResilientClient {
        ResilientClient {
            addr,
            policy,
            stream: None,
            rng: policy.seed,
            next_id: 0,
            retries: 0,
            reconnects: 0,
        }
    }

    /// Total retry attempts made over this client's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Total reconnects made over this client's lifetime.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Run one logical query to completion: retry transport faults,
    /// `overloaded` and `rate_limited` (honouring `retry_after_ms`);
    /// everything else — success or engine-side error — is final. A
    /// request without an idempotency key is minted one and keeps it
    /// across every retry.
    pub fn query(&mut self, req: &Request) -> Result<Response, ClientError> {
        let req = if req.request_id.is_some() {
            req.clone()
        } else {
            self.next_id += 1;
            req.clone()
                .with_request_id(format!("{:x}-{}", self.policy.seed, self.next_id))
        };
        let start = Instant::now();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let (last, retry_after) = match self.attempt(&req, start) {
                Ok(Response::Err(e))
                    if matches!(e.code, ErrorCode::Overloaded | ErrorCode::RateLimited) =>
                {
                    (
                        format!("{}: {}", e.code.name(), e.message),
                        e.retry_after_ms,
                    )
                }
                Ok(resp) => return Ok(resp),
                Err(Ok(Torn(msg))) => {
                    // The connection is suspect; next attempt redials.
                    self.stream = None;
                    (msg, None)
                }
                Err(Err(fatal)) => return Err(fatal),
            };
            if attempts >= self.policy.max_attempts {
                return Err(ClientError::RetriesExhausted { attempts, last });
            }
            let mut delay = backoff_delay(&self.policy, attempts - 1, &mut self.rng);
            if let Some(ms) = retry_after {
                delay = delay.max(Duration::from_millis(ms));
            }
            if start.elapsed() + delay >= self.policy.deadline {
                return Err(ClientError::DeadlineExceeded { attempts, last });
            }
            self.retries += 1;
            std::thread::sleep(delay);
        }
    }

    /// One wire attempt. `Err(Ok(Torn))` is a retryable transport fault;
    /// `Err(Err(_))` is fatal (deadline already spent, or the reply was
    /// undecodable).
    fn attempt(
        &mut self,
        req: &Request,
        start: Instant,
    ) -> Result<Response, Result<Torn, ClientError>> {
        let remaining = self
            .policy
            .deadline
            .checked_sub(start.elapsed())
            .ok_or_else(|| {
                Err(ClientError::DeadlineExceeded {
                    attempts: 0,
                    last: "deadline spent before attempt".into(),
                })
            })?;
        if self.stream.is_none() {
            match TcpStream::connect(self.addr) {
                Ok(s) => {
                    // Nagle + delayed ACK would hold a request back behind
                    // the reply to the one before.
                    let _ = s.set_nodelay(true);
                    if self.reconnects > 0 || self.retries > 0 {
                        self.reconnects += 1;
                    }
                    self.stream = Some(BufReader::new(s));
                }
                Err(e) => return Err(Ok(Torn(format!("connect {}: {e}", self.addr)))),
            }
        }
        let stream = self.stream.as_mut().expect("stream just ensured");
        // Cap the blocking read by what is left of the deadline so a
        // server that never replies cannot pin this client past it.
        let read_cap = remaining.max(Duration::from_millis(1));
        if stream.get_ref().set_read_timeout(Some(read_cap)).is_err()
            || stream.get_ref().set_write_timeout(Some(read_cap)).is_err()
        {
            return Err(Ok(Torn("socket timeout setup failed".into())));
        }
        if let Err(e) = write_request(stream.get_mut(), &encode_request(req)) {
            return Err(Ok(Torn(format!("write: {e}"))));
        }
        // A reply cut short — in its header or inside an answer's chunks —
        // is a transport fault like any other, and is retried; a well-framed
        // reply that does not decode is not.
        let value = match read_reply(stream) {
            Ok(Some(value)) => value,
            Ok(None) => return Err(Ok(Torn("server closed mid-conversation".into()))),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return Err(Err(ClientError::Protocol(e.to_string())))
            }
            Err(e) => return Err(Ok(Torn(format!("read: {e}")))),
        };
        decode_response(&value).map_err(|e| Err(ClientError::Protocol(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy::default()
            .base_backoff(Duration::from_millis(10))
            .max_backoff(Duration::from_millis(80))
    }

    #[test]
    fn backoff_is_capped_exponential_with_equal_jitter() {
        let p = policy();
        let mut rng = p.seed;
        for retry in 0..10 {
            let nominal = Duration::from_millis(10)
                .saturating_mul(1 << retry.min(16))
                .min(Duration::from_millis(80));
            let d = backoff_delay(&p, retry, &mut rng);
            assert!(d >= nominal / 2, "retry {retry}: {d:?} under half-floor");
            assert!(d <= nominal, "retry {retry}: {d:?} over nominal cap");
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_varies_across_seeds() {
        let p = policy().seed(7);
        let (mut a, mut b) = (p.seed, p.seed);
        let first: Vec<_> = (0..6).map(|r| backoff_delay(&p, r, &mut a)).collect();
        let second: Vec<_> = (0..6).map(|r| backoff_delay(&p, r, &mut b)).collect();
        assert_eq!(first, second, "same seed, same schedule");
        let q = policy().seed(8);
        let mut c = q.seed;
        let other: Vec<_> = (0..6).map(|r| backoff_delay(&q, r, &mut c)).collect();
        assert_ne!(first, other, "different seed decorrelates");
    }

    #[test]
    fn huge_retry_counts_do_not_overflow_the_shift() {
        let p = policy();
        let mut rng = 1;
        let d = backoff_delay(&p, u32::MAX, &mut rng);
        assert!(d <= p.max_backoff);
    }

    #[test]
    fn minted_request_ids_are_stable_per_logical_request() {
        // The id comes from (seed, counter), not the clock: two clients
        // with one seed mint the same sequence.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut c1 = ResilientClient::new(addr, RetryPolicy::default().seed(9));
        let mut c2 = ResilientClient::new(addr, RetryPolicy::default().seed(9));
        c1.next_id += 1;
        c2.next_id += 1;
        let id1 = format!("{:x}-{}", c1.policy.seed, c1.next_id);
        let id2 = format!("{:x}-{}", c2.policy.seed, c2.next_id);
        assert_eq!(id1, id2);
        assert_eq!(id1, "9-1");
    }
}
