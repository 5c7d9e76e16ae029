//! Blocking client for the query service.
//!
//! A thin synchronous wrapper: connect, handshake, then issue requests
//! and wait for their matching responses. Request ids are assigned
//! monotonically and every read loops until the daemon's answer carries
//! the awaited id, so the client stays correct even if the daemon ever
//! interleaves responses (the worker answers out of submission order
//! only across sessions, never within one, but the id match makes no
//! assumption either way).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mrbc_util::backoff::Backoff;
use mrbc_util::framing::{self, EnvelopeDecoder};
use mrbc_util::wire::WireError;

use crate::proto::{
    decode_response, encode_request, MutateOp, Request, Response, ServeStats, TraceCtx,
};

/// Default per-read timeout: long enough for a cold full-BC computation,
/// short enough that a dead daemon is noticed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Socket deadlines and retry pacing for a client connection.
///
/// Every blocking socket operation the client performs is bounded: the
/// TCP connect, each read, and each write all carry a deadline, so a
/// dead, frozen (SIGSTOPped), or partitioned daemon surfaces as a
/// [`ClientError::Io`] timeout instead of a hang. The retry fields are
/// consumed by [`RetryClient`] and feed [`mrbc_util::backoff::Backoff`]
/// directly; its jitter stream has a fixed seed, so pacing repeats.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for each socket read while awaiting a response.
    pub read_timeout: Duration,
    /// Deadline for each socket write while sending a request.
    pub write_timeout: Duration,
    /// Transient-failure retries before giving up ([`RetryClient`] only).
    pub max_retries: u32,
    /// First backoff delay, milliseconds.
    pub backoff_base_ms: u64,
    /// Backoff cap, milliseconds.
    pub backoff_max_ms: u64,
}

/// Backoff jitter width in 1/256ths (see [`Backoff`]).
const BACKOFF_JITTER_256THS: u64 = 64;
/// Seed of the deterministic jitter stream: "mrbc".
const BACKOFF_SEED: u64 = 0x6d72_6263;

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: READ_TIMEOUT,
            write_timeout: Duration::from_secs(5),
            max_retries: 5,
            backoff_base_ms: 20,
            backoff_max_ms: 1000,
        }
    }
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(io::Error),
    /// The stream decoded but the bytes were not valid protocol.
    Wire(WireError),
    /// The daemon answered with something the call cannot use (wrong
    /// variant, structured `Error` response, premature close).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Graph identity reported by the daemon's `Welcome`.
#[derive(Clone, Copy, Debug)]
pub struct Welcome {
    /// Graph epoch at handshake time.
    pub epoch: u64,
    /// Vertex count of the resident graph.
    pub vertices: u64,
    /// Edge count of the resident graph.
    pub edges: u64,
    /// The daemon's monotonic trace clock (µs) when it answered — the
    /// `t1` of an NTP-style clock-offset probe.
    pub now_us: u64,
    /// The daemon's OS pid (its trace process track).
    pub pid: u64,
    /// The daemon's WAL generation (0 = not running durably).
    pub generation: u64,
}

/// A connected, handshaken query-service client.
pub struct ServeClient {
    stream: TcpStream,
    dec: EnvelopeDecoder,
    next_id: u64,
    welcome: Welcome,
}

impl ServeClient {
    /// Connects to `addr` and performs the `Hello` → `Welcome` handshake
    /// with the default deadlines.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit socket deadlines. Connect, every read, and
    /// every write are all bounded by `cfg`; no call can hang forever.
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: &ClientConfig) -> Result<Self, ClientError> {
        let mut last_err: Option<io::Error> = None;
        let mut stream: Option<TcpStream> = None;
        for sockaddr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sockaddr, cfg.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = match stream {
            Some(s) => s,
            None => {
                return Err(ClientError::Io(last_err.unwrap_or_else(|| {
                    io::Error::new(io::ErrorKind::AddrNotAvailable, "no address resolved")
                })))
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        stream.set_write_timeout(Some(cfg.write_timeout))?;
        let mut client = ServeClient {
            stream,
            dec: EnvelopeDecoder::new(),
            next_id: 1,
            welcome: Welcome {
                epoch: 0,
                vertices: 0,
                edges: 0,
                now_us: 0,
                pid: 0,
                generation: 0,
            },
        };
        match client.call(&Request::Hello { generation: 0 })? {
            Response::Welcome {
                epoch,
                vertices,
                edges,
                now_us,
                pid,
                generation,
            } => {
                client.welcome = Welcome {
                    epoch,
                    vertices,
                    edges,
                    now_us,
                    pid,
                    generation,
                };
                Ok(client)
            }
            other => Err(ClientError::Protocol(format!(
                "expected Welcome, got {other:?}"
            ))),
        }
    }

    /// The daemon's `Welcome` (graph identity at handshake time).
    pub fn welcome(&self) -> Welcome {
        self.welcome
    }

    /// Sends `req` untraced and blocks until its matching response
    /// arrives.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.call_traced(TraceCtx::NONE, req)
    }

    /// Sends `req` carrying `ctx` (the originating query's trace
    /// context) and blocks until its matching response arrives.
    pub fn call_traced(&mut self, ctx: TraceCtx, req: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = framing::seal(&encode_request(id, ctx, req));
        self.stream.write_all(&bytes)?;
        let mut buf = [0u8; 4096];
        loop {
            while let Some(body) = self.dec.next_body()? {
                let (rid, resp) = decode_response(&body)?;
                if rid == id || rid == 0 {
                    // id 0 is the daemon's "before I could parse your id"
                    // error channel; surface it to the caller too.
                    return Ok(resp);
                }
                // A response to an earlier (abandoned) id: skip it.
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(ClientError::Protocol(
                    "connection closed mid-request".to_string(),
                ));
            }
            self.dec.feed(&buf[..n]);
        }
    }

    fn expect_err(got: Response) -> ClientError {
        match got {
            Response::Error { message } => ClientError::Protocol(message),
            // Permanent by design: the server's WAL can no longer honour
            // the durability contract, so a resend would not help.
            Response::WalFault { message } => {
                ClientError::Protocol(format!("wal fault: {message}"))
            }
            other => ClientError::Protocol(format!("unexpected response: {other:?}")),
        }
    }

    /// `bc(v)` at the pinned epoch (0 = current): `(epoch, score)`.
    /// `Busy` / `Stale` surface as the raw [`Response`] via [`Self::call`];
    /// the typed wrappers treat them as protocol errors for brevity.
    pub fn bc_score(&mut self, epoch: u64, v: u32) -> Result<(u64, f64), ClientError> {
        match self.call(&Request::BcScore { epoch, v })? {
            Response::BcValue { epoch, score } => Ok((epoch, score)),
            other => Err(Self::expect_err(other)),
        }
    }

    /// `top_k(k)` at the pinned epoch: `(epoch, ranked entries)`.
    pub fn top_k(&mut self, epoch: u64, k: u32) -> Result<(u64, Vec<(u32, f64)>), ClientError> {
        match self.call(&Request::TopK { epoch, k })? {
            Response::TopKList { epoch, entries } => Ok((epoch, entries)),
            other => Err(Self::expect_err(other)),
        }
    }

    /// `(dist(s, t), σ(s, t))` at the pinned epoch:
    /// `(epoch, dist, sigma)`; `dist == u32::MAX` means unreachable.
    pub fn path_info(
        &mut self,
        epoch: u64,
        s: u32,
        t: u32,
    ) -> Result<(u64, u32, f64), ClientError> {
        match self.call(&Request::PathInfo { epoch, s, t })? {
            Response::PathInfo { epoch, dist, sigma } => Ok((epoch, dist, sigma)),
            other => Err(Self::expect_err(other)),
        }
    }

    /// Subset-source BC at the pinned epoch: `(epoch, full score vector)`.
    pub fn subset_bc(
        &mut self,
        epoch: u64,
        sources: &[u32],
    ) -> Result<(u64, Vec<f64>), ClientError> {
        let req = Request::SubsetBc {
            epoch,
            sources: sources.to_vec(),
        };
        match self.call(&req)? {
            Response::SubsetBc { epoch, scores } => Ok((epoch, scores)),
            other => Err(Self::expect_err(other)),
        }
    }

    /// Applies an edge mutation: `(epoch_after, applied)`.
    pub fn mutate(&mut self, op: MutateOp, u: u32, v: u32) -> Result<(u64, bool), ClientError> {
        match self.call(&Request::Mutate { op, u, v })? {
            Response::Mutated { epoch, applied } => Ok((epoch, applied)),
            other => Err(Self::expect_err(other)),
        }
    }

    /// Serving counters snapshot.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(Self::expect_err(other)),
        }
    }

    /// Asks the daemon to shut down; resolves on its `Bye`.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(Self::expect_err(other)),
        }
    }
}

/// True for failures that a fresh connection + resend can plausibly cure:
/// socket deadlines, resets, refusals (worker restarting), and clean
/// closes mid-request. Wire corruption and structured protocol errors are
/// permanent — retrying them would loop forever.
fn is_transient(err: &ClientError) -> bool {
    match err {
        ClientError::Io(e) => matches!(
            e.kind(),
            io::ErrorKind::TimedOut
                | io::ErrorKind::WouldBlock
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::ConnectionRefused
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof
                | io::ErrorKind::NotConnected
        ),
        ClientError::Protocol(m) => m.contains("connection closed"),
        ClientError::Wire(_) => false,
    }
}

/// A reconnecting client that retries transient failures with
/// deterministic jittered backoff.
///
/// Wraps [`ServeClient`] and absorbs the two failure shapes a supervised
/// pool emits during failover: [`Response::Retry`] (the pool lost the
/// worker mid-request and wants the query resent after a hint delay) and
/// transient socket errors (reset / refused / deadline while a worker or
/// the front-end restarts). Both paths sleep the *maximum* of the
/// server's hint and the local [`Backoff`] schedule, reconnect if the
/// stream died, and resend. Every request the daemon answers is either
/// idempotent (reads) or convergent (`Mutate` add/remove are no-ops when
/// the edge is already in the requested state), so resending after an
/// ambiguous failure is safe.
///
/// Several addresses may be supplied; reconnects rotate through them, so
/// a client pointed at sibling front-ends (or directly at pool workers
/// for read-only traffic) hedges across them on failure.
pub struct RetryClient {
    addrs: Vec<String>,
    cfg: ClientConfig,
    backoff: Backoff,
    inner: Option<ServeClient>,
    next_addr: usize,
    retries: u64,
}

impl RetryClient {
    /// Creates a retrying client for `addrs` (tried round-robin). Does
    /// not connect until the first call.
    pub fn new(addrs: Vec<String>, cfg: ClientConfig) -> Self {
        let backoff = Backoff::new(
            cfg.backoff_base_ms,
            cfg.backoff_max_ms,
            BACKOFF_JITTER_256THS,
            BACKOFF_SEED,
        );
        RetryClient {
            addrs,
            cfg,
            backoff,
            inner: None,
            next_addr: 0,
            retries: 0,
        }
    }

    /// Total transient-failure retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The `Welcome` of the current connection, if one is established.
    pub fn welcome(&self) -> Option<Welcome> {
        self.inner.as_ref().map(ServeClient::welcome)
    }

    fn ensure_connected(&mut self) -> Result<&mut ServeClient, ClientError> {
        if self.inner.is_none() {
            let addr = &self.addrs[self.next_addr % self.addrs.len()];
            self.next_addr = self.next_addr.wrapping_add(1);
            self.inner = Some(ServeClient::connect_with(addr.as_str(), &self.cfg)?);
        }
        // lint: allow(unwrap): populated by the branch directly above
        Ok(self.inner.as_mut().expect("just connected"))
    }

    /// Sends `req`, absorbing `Retry` responses and transient socket
    /// failures up to `max_retries` times. Returns the first substantive
    /// response (which may still be `Busy`/`Stale`/`Partial` — those are
    /// decisions for the caller, not transport failures).
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.call_traced(TraceCtx::NONE, req)
    }

    /// [`Self::call`] with a trace context; every resend of the same
    /// logical request carries the same context, so retries stay inside
    /// the originating query's trace.
    pub fn call_traced(&mut self, ctx: TraceCtx, req: &Request) -> Result<Response, ClientError> {
        let mut attempts_left = self.cfg.max_retries;
        loop {
            let outcome = match self.ensure_connected() {
                Ok(client) => client.call_traced(ctx, req),
                Err(e) => Err(e),
            };
            let (retriable, hint_ms) = match &outcome {
                Ok(Response::Retry { after_ms }) => (true, u64::from(*after_ms)),
                Ok(_) => return outcome,
                Err(e) if is_transient(e) => {
                    // The stream state is unknown after a socket-level
                    // failure; reconnect before the next attempt.
                    self.inner = None;
                    (true, 0)
                }
                Err(_) => return outcome,
            };
            debug_assert!(retriable);
            if attempts_left == 0 {
                return outcome;
            }
            attempts_left -= 1;
            self.retries += 1;
            // Pace by whichever is longer: the server's hint or the local
            // backoff schedule (deterministic: the jitter seed is fixed).
            let delay = hint_ms.max(self.backoff.next_delay());
            std::thread::sleep(Duration::from_millis(delay));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_obs as obs;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A daemon that is alive at the TCP level but never schedules the
    /// session (the observable behaviour of a SIGSTOPped server: the
    /// kernel still completes the handshake from the backlog, then
    /// nothing is ever read or written). The client must surface a
    /// timeout error within its deadline — not hang.
    #[test]
    fn frozen_server_times_out_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Hold the listener open without accepting so the connection
        // sits established-but-unserviced for the whole test.
        let cfg = ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_millis(500),
            ..ClientConfig::default()
        };
        let start_us = obs::now_us();
        let err = match ServeClient::connect_with(addr, &cfg) {
            Err(e) => e,
            Ok(_) => panic!("handshake cannot succeed against a frozen server"),
        };
        assert!(
            obs::now_us().saturating_sub(start_us) < 5_000_000,
            "timed out far beyond the configured deadline"
        );
        match err {
            ClientError::Io(e) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ),
                "expected a timeout error, got {e:?}"
            ),
            other => panic!("expected an io timeout, got {other}"),
        }
        drop(listener);
    }

    /// Connects must respect the connect deadline against a black-hole
    /// address (no RST, no SYN-ACK).
    #[test]
    fn connect_timeout_is_bounded() {
        let cfg = ClientConfig {
            connect_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        };
        // RFC 5737 TEST-NET-1: guaranteed unrouted, connect can only
        // time out (or be refused instantly on some stacks; both are
        // bounded errors, never hangs).
        let start_us = obs::now_us();
        let res = ServeClient::connect_with("192.0.2.1:9", &cfg);
        assert!(res.is_err(), "TEST-NET-1 must not accept connections");
        assert!(
            obs::now_us().saturating_sub(start_us) < 5_000_000,
            "connect ran far beyond its deadline"
        );
    }

    /// `Retry { after_ms }` responses are absorbed: the client resends
    /// and ultimately returns the substantive answer.
    #[test]
    fn retry_client_absorbs_retry_responses() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = format!("127.0.0.1:{}", listener.local_addr().expect("addr").port());
        let (tx, rx) = mpsc::channel::<u64>();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut dec = EnvelopeDecoder::new();
            let mut buf = [0u8; 4096];
            let mut retries_sent = 0u64;
            loop {
                let n = sock.read(&mut buf).unwrap_or(0);
                if n == 0 {
                    break;
                }
                dec.feed(&buf[..n]);
                while let Some(body) = dec.next_body().expect("envelope") {
                    let (id, _ctx, req) = crate::proto::decode_request(&body).expect("request");
                    let resp = match req {
                        Request::Hello { .. } => Response::Welcome {
                            epoch: 1,
                            vertices: 3,
                            edges: 2,
                            now_us: 10,
                            pid: 77,
                            generation: 0,
                        },
                        Request::Stats if retries_sent < 2 => {
                            retries_sent += 1;
                            Response::Retry { after_ms: 1 }
                        }
                        Request::Stats => Response::Stats(ServeStats {
                            epoch: 1,
                            ..ServeStats::default()
                        }),
                        _ => Response::Error {
                            message: "unexpected".into(),
                        },
                    };
                    let bytes = framing::seal(&crate::proto::encode_response(id, &resp));
                    sock.write_all(&bytes).expect("write");
                    if retries_sent == 2 && matches!(req, Request::Stats) {
                        let _ = tx.send(retries_sent);
                    }
                }
            }
        });
        let cfg = ClientConfig {
            backoff_base_ms: 1,
            backoff_max_ms: 2,
            ..ClientConfig::default()
        };
        let mut client = RetryClient::new(vec![addr], cfg);
        let resp = client.call(&Request::Stats).expect("stats after retries");
        assert!(matches!(resp, Response::Stats(_)), "got {resp:?}");
        assert_eq!(client.retries(), 2);
        assert_eq!(rx.recv().expect("server saw the final request"), 2);
        drop(client); // close the stream so the server thread exits
        server.join().expect("server thread");
    }

    /// A dead address is eventually given up on with the original error,
    /// after the configured number of paced attempts.
    #[test]
    fn retry_client_gives_up_after_max_retries() {
        // Bind-then-drop to find a port that is very likely refused.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").port()
        };
        let cfg = ClientConfig {
            max_retries: 2,
            backoff_base_ms: 1,
            backoff_max_ms: 2,
            connect_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        };
        let mut client = RetryClient::new(vec![format!("127.0.0.1:{port}")], cfg);
        let err = match client.call(&Request::Stats) {
            Err(e) => e,
            Ok(r) => panic!("nothing is listening, got {r:?}"),
        };
        assert!(is_transient(&err), "refused/reset is transient: {err}");
        assert_eq!(client.retries(), 2, "both retries were spent");
    }
}
