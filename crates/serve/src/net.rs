//! The TCP network front-end: a `std::net` thread-per-core server for
//! the binary protocol of [`crate::proto`], plus a minimal HTTP/1.1 GET
//! shim so `curl` can hit `/topk` and `/metrics` without a client binary.
//!
//! # Thread model
//!
//! ```text
//!            ┌───────────────┐   bounded sync_channel    ┌──────────┐
//! accept ──▶ │ conn thread 0 │ ──────────┐               │ worker 0 │
//! thread     ├───────────────┤           ▼               ├──────────┤
//!    │       │ conn thread 1 │ ──▶ [job queue] ────────▶ │ worker 1 │
//!    ▼       ├───────────────┤           ▲               ├──────────┤
//!  spawns    │      …        │ ──────────┘               │    …     │
//!            └───────────────┘  ◀── per-conn reply chan ──┘
//! ```
//!
//! * One **accept thread** owns the listener, enforces the connection
//!   cap (`max_connections`; beyond it a connection is answered with a
//!   best-effort [`Status::Overloaded`] frame and closed), and joins
//!   every connection thread on shutdown.
//! * One **I/O thread per connection** parses frames incrementally and
//!   writes responses. Connection threads never score: a parsed `TopK`
//!   is pushed onto the bounded job queue with `try_send`, so a full
//!   queue answers [`Status::Overloaded`] *immediately* — backpressure
//!   is a typed response in microseconds, not a stalled socket.
//! * A fixed pool of **worker threads** (default: one per core) drains
//!   the queue. Each request is computed under a single
//!   [`bns_sync::RwLock`] read guard, and the response generation is
//!   read under that same guard — a response can never mix two artifact
//!   generations, which is what makes [`NetServer::swap_artifact`] safe
//!   under live load (the swap takes the write guard).
//!
//! # Deadlines
//!
//! Sockets run with a short `SO_RCVTIMEO` poll tick, so a blocking read
//! doubles as a cancellation point. Three deadlines guard each
//! connection: `read_timeout` bounds how long one frame may dribble in
//! (slow-loris), `idle_timeout` bounds a connection that sends nothing
//! (half-open peers), and `write_timeout` (as `SO_SNDTIMEO`) bounds a
//! peer that stops reading its responses. `compute_deadline` bounds the
//! wait for a worker; expiry answers [`Status::Timeout`] and the late
//! reply is discarded by sequence number. A stalled client can therefore
//! wedge neither its own thread forever nor anyone else's.
//!
//! # Time discipline
//!
//! This module is the serving stack's only wall-clock edge: `now()` is
//! the single justified read site (see the `wall-clock` lint rule, which
//! covers this file). Durations measured here are handed to the
//! clock-free [`WireMetrics`] registry as finished nanosecond counts.

use crate::metrics::{Endpoint, WireMetrics};
use crate::proto::{self, FrameHeader, ModeRequest, RequestFrame, ResponseFrame, Status};
use crate::query::{IndexMode, QueryEngine, QueryScratch};
use crate::{ModelArtifact, Result, ServeError};
use bns_sync::{Mutex, PoisonFlag, RwLock};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Granularity of every blocking wait in the server (socket reads, job
/// waits, reply waits). Bounds how stale a deadline or stop-flag check
/// can be, so shutdown and timeout latency are within one tick of exact.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Cap on a buffered HTTP request head; longer heads close the
/// connection (the shim serves `curl`, not arbitrary browsers).
const HTTP_HEAD_MAX: usize = 8 * 1024;

/// Default socket timeout for [`WireClient`] reads and writes.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Tuning knobs for [`NetServer`]. `Default` is sized for tests and
/// small deployments; production front-ends mostly raise
/// `max_connections` and `queue_depth`.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Worker (scoring) threads; `0` means one per available core.
    pub workers: usize,
    /// Accepted-connection cap; connections beyond it are answered with
    /// a best-effort [`Status::Overloaded`] frame and closed.
    pub max_connections: usize,
    /// Bound of the in-flight job queue. A full queue answers
    /// [`Status::Overloaded`] without blocking the connection thread.
    pub queue_depth: usize,
    /// How long one request frame may take to arrive in full once its
    /// first byte is seen (slow-loris bound).
    pub read_timeout: Duration,
    /// `SO_SNDTIMEO`: how long a response write may block on a peer
    /// that stopped reading.
    pub write_timeout: Duration,
    /// How long a connection may sit with no bytes in flight before it
    /// is reaped (half-open peer bound).
    pub idle_timeout: Duration,
    /// How long a connection thread waits for a worker's answer before
    /// responding [`Status::Timeout`].
    pub compute_deadline: Duration,
    /// Artificial per-request delay inside the worker, for fault
    /// injection and backpressure tests. Always zero in production.
    pub compute_delay: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            max_connections: 64,
            queue_depth: 64,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            compute_deadline: Duration::from_secs(5),
            compute_delay: Duration::ZERO,
        }
    }
}

/// The single wall-clock read site of the serving stack. Everything
/// downstream works with the returned [`Instant`] or finished
/// nanosecond counts, so the hot structs stay clock-free and testable.
fn now() -> Instant {
    // lint:allow(wall-clock): the network edge is the one place serving
    // is allowed to observe time; durations measured here feed the
    // clock-free metrics registry as finished nanosecond counts.
    Instant::now()
}

/// Nanoseconds since `start`, saturating.
fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One scoring request in flight from a connection thread to a worker.
struct Job {
    user: u32,
    k: u16,
    exclude_seen: bool,
    mode: ModeRequest,
    /// The issuing connection's dispatch sequence number; replies whose
    /// seq is stale (their request already timed out) are discarded.
    seq: u64,
    reply: SyncSender<Reply>,
}

/// A worker's answer, routed back over the issuing connection's
/// single-slot reply channel.
struct Reply {
    seq: u64,
    status: Status,
    generation: u64,
    items: Vec<u32>,
}

/// State shared by the accept thread, every connection thread, and the
/// worker pool.
struct Shared {
    cfg: NetConfig,
    engine: RwLock<QueryEngine>,
    metrics: WireMetrics,
    stop: PoisonFlag,
    jobs: Mutex<Receiver<Job>>,
}

/// A running TCP front-end over one [`QueryEngine`].
///
/// Binding spawns the accept thread and worker pool; dropping the
/// server (or calling [`NetServer::shutdown`]) stops them and joins
/// every thread, so a `NetServer` cannot leak threads or sockets past
/// its own lifetime.
///
/// ```no_run
/// use bns_serve::{NetConfig, NetServer, QueryEngine};
/// # fn engine() -> QueryEngine { unimplemented!() }
/// let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::default()).unwrap();
/// println!("serving on {}", server.local_addr());
/// ```
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving `engine` with the given configuration.
    pub fn bind<A: ToSocketAddrs>(addr: A, engine: QueryEngine, cfg: NetConfig) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (jobs_tx, jobs_rx) = mpsc::sync_channel(cfg.queue_depth.max(1));
        let n_workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            cfg,
            engine: RwLock::new(engine),
            metrics: WireMetrics::new(),
            stop: PoisonFlag::new(),
            jobs: Mutex::new(jobs_rx),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bns-net-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .map_err(ServeError::Io)
            })
            .collect::<Result<Vec<_>>>()?;
        let accept = {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("bns-net-accept".into())
                .spawn(move || accept_loop(&s, &listener, &jobs_tx))
                .map_err(ServeError::Io)?
        };
        Ok(Self {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry (the same data `GET /metrics`
    /// renders).
    pub fn metrics(&self) -> &WireMetrics {
        &self.shared.metrics
    }

    /// Hot-swaps the served artifact under live load and returns the
    /// previous one. Takes the engine's write guard, so in-flight
    /// requests finish against the generation they started under and
    /// every later request sees the new one — no response ever mixes
    /// generations (the response's `generation` field proves which one
    /// answered).
    pub fn swap_artifact(&self, artifact: ModelArtifact) -> ModelArtifact {
        let old = self.shared.engine.write().swap_artifact(artifact);
        self.shared.metrics.artifact_swaps.incr();
        old
    }

    /// Stops accepting, unblocks every thread at its next poll tick, and
    /// joins them all. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() && self.workers.is_empty() {
            return;
        }
        self.shared.stop.set();
        // The accept thread blocks in accept(); a throwaway local
        // connection wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept loop: cap enforcement, connection-thread spawning, and (on
/// shutdown) joining every connection thread it ever spawned.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, jobs_tx: &SyncSender<Job>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.stop.is_set() {
                    break;
                }
                conns.retain(|h| !h.is_finished());
                let live = shared
                    .metrics
                    .connections_accepted
                    .get()
                    .saturating_sub(shared.metrics.connections_closed.get());
                if live >= shared.cfg.max_connections as u64 {
                    shared.metrics.connections_rejected.incr();
                    reject_overloaded(stream, &shared.cfg);
                    continue;
                }
                shared.metrics.connections_accepted.incr();
                let s = Arc::clone(shared);
                let tx = jobs_tx.clone();
                let spawned = std::thread::Builder::new()
                    .name("bns-net-conn".into())
                    .spawn(move || {
                        handle_connection(&s, stream, &tx);
                        s.metrics.connections_closed.incr();
                    });
                match spawned {
                    Ok(h) => conns.push(h),
                    Err(_) => shared.metrics.connections_closed.incr(),
                }
            }
            Err(_) => {
                if shared.stop.is_set() {
                    break;
                }
                // Transient accept failure (EMFILE, ECONNABORTED, …):
                // back off one tick rather than spinning.
                std::thread::sleep(POLL_TICK);
            }
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Best-effort `Overloaded` answer for a connection rejected at accept.
fn reject_overloaded(mut stream: TcpStream, cfg: &NetConfig) {
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream.write_all(&ResponseFrame::error(Status::Overloaded).encode());
}

/// Worker loop: drain the shared job queue, score under a read guard,
/// route the reply back. Exits when the stop flag is set (checked every
/// poll tick) or every sender is gone.
fn worker_loop(shared: &Arc<Shared>) {
    let mut scratch = QueryScratch::new();
    let mut out: Vec<u32> = Vec::new();
    loop {
        // Holding the receiver lock across the timed wait is the shared-
        // receiver idiom: one worker waits while the rest block on the
        // lock, and a delivered job releases it within a tick.
        let job = shared.jobs.lock().recv_timeout(POLL_TICK);
        match job {
            Ok(job) => {
                if shared.cfg.compute_delay > Duration::ZERO {
                    std::thread::sleep(shared.cfg.compute_delay);
                }
                let reply = compute(shared, &job, &mut scratch, &mut out);
                // try_send: the single reply slot may be abandoned (the
                // request already timed out) — never block a worker on
                // a connection's fate.
                let _ = job.reply.try_send(reply);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.is_set() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Scores one job. The engine read guard spans mode resolution, the
/// query, and the generation read, so status, items, and generation are
/// all consistent with exactly one artifact.
fn compute(shared: &Shared, job: &Job, scratch: &mut QueryScratch, out: &mut Vec<u32>) -> Reply {
    let engine = shared.engine.read();
    let error = |status: Status| Reply {
        seq: job.seq,
        status,
        generation: 0,
        items: Vec::new(),
    };
    let mode = match job.mode {
        ModeRequest::Default => None,
        ModeRequest::Exact => Some(IndexMode::Exact),
        ModeRequest::Ivf => match engine.default_ivf_mode() {
            Ok(m) => Some(m),
            Err(_) => return error(Status::NoIndex),
        },
    };
    out.clear();
    match engine.top_k_with_mode_into(
        job.user,
        usize::from(job.k),
        job.exclude_seen,
        mode,
        scratch,
        out,
    ) {
        Ok(()) => Reply {
            seq: job.seq,
            status: Status::Ok,
            generation: engine.generation(),
            items: out.clone(),
        },
        Err(ServeError::UnknownUser { .. }) => error(Status::UnknownUser),
        Err(ServeError::NoIndex) => error(Status::NoIndex),
        Err(_) => error(Status::BadRequest),
    }
}

/// Everything a connection thread needs to dispatch compute.
struct ConnCtx<'a> {
    shared: &'a Shared,
    jobs_tx: &'a SyncSender<Job>,
    reply_tx: SyncSender<Reply>,
    reply_rx: Receiver<Reply>,
    seq: u64,
}

impl ConnCtx<'_> {
    /// Queues one top-k job and waits for its answer, converting a full
    /// queue to [`Status::Overloaded`] immediately and an expired
    /// `compute_deadline` to [`Status::Timeout`]. Stale replies from a
    /// previously timed-out dispatch are discarded by sequence number.
    fn dispatch(
        &mut self,
        user: u32,
        k: u16,
        exclude_seen: bool,
        mode: ModeRequest,
    ) -> ResponseFrame {
        self.seq += 1;
        let job = Job {
            user,
            k,
            exclude_seen,
            mode,
            seq: self.seq,
            reply: self.reply_tx.clone(),
        };
        match self.jobs_tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.shared.metrics.overloaded.incr();
                return ResponseFrame::error(Status::Overloaded);
            }
            Err(TrySendError::Disconnected(_)) => {
                // Server shutting down; the connection will close at its
                // next stop-flag check.
                return ResponseFrame::error(Status::Overloaded);
            }
        }
        let deadline = now() + self.shared.cfg.compute_deadline;
        loop {
            match self.reply_rx.recv_timeout(POLL_TICK) {
                Ok(r) if r.seq == self.seq => {
                    return ResponseFrame {
                        status: r.status,
                        generation: r.generation,
                        items: r.items,
                    };
                }
                Ok(_) => {} // stale reply from a timed-out predecessor
                Err(RecvTimeoutError::Timeout) => {
                    if self.shared.stop.is_set() || now() > deadline {
                        self.shared.metrics.deadline_hits.incr();
                        return ResponseFrame::error(Status::Timeout);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return ResponseFrame::error(Status::Timeout);
                }
            }
        }
    }
}

/// Per-connection I/O loop: incremental frame parsing with deadline
/// enforcement, protocol sniffing (a leading `G` switches to the HTTP
/// shim), and response writing. Returns (closing the connection) on
/// EOF, any protocol error, any expired deadline, or server stop.
fn handle_connection(shared: &Shared, mut stream: TcpStream, jobs_tx: &SyncSender<Job>) {
    if stream.set_read_timeout(Some(POLL_TICK)).is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Reply>(1);
    let mut ctx = ConnCtx {
        shared,
        jobs_tx,
        reply_tx,
        reply_rx,
        seq: 0,
    };
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    let mut chunk = [0u8; 4096];
    let mut idle_deadline = now() + shared.cfg.idle_timeout;
    let mut frame_deadline: Option<Instant> = None;
    let mut http = false;
    loop {
        if shared.stop.is_set() {
            return;
        }
        let t = now();
        let expired = match frame_deadline {
            Some(d) => t > d,
            None => t > idle_deadline,
        };
        if expired {
            shared.metrics.deadline_hits.incr();
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // clean EOF
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
        if frame_deadline.is_none() && !buf.is_empty() {
            frame_deadline = Some(now() + shared.cfg.read_timeout);
        }
        if !http && buf.first() == Some(&b'G') {
            http = true;
        }
        if http {
            match serve_http(&mut ctx, &mut stream, &buf) {
                HttpStep::NeedMore => {
                    if buf.len() > HTTP_HEAD_MAX {
                        shared.metrics.proto_errors.incr();
                        return;
                    }
                    continue;
                }
                // One request per shim connection (`connection: close`).
                HttpStep::Done => return,
            }
        }
        // Drain every complete binary frame currently buffered.
        loop {
            let (len, check) = match proto::parse_header(&buf) {
                Ok(FrameHeader::NeedHeader) => break,
                Ok(FrameHeader::Payload { len, check }) => (len, check),
                Err(_) => {
                    // Oversized length prefix: drop before buffering a
                    // byte of the claimed payload.
                    shared.metrics.proto_errors.incr();
                    return;
                }
            };
            if buf.len() < proto::HEADER_LEN + len {
                break;
            }
            let started = now();
            let payload = &buf[proto::HEADER_LEN..proto::HEADER_LEN + len];
            let req = proto::verify_payload(check, payload)
                .and_then(|()| RequestFrame::decode_payload(payload));
            buf.drain(..proto::HEADER_LEN + len);
            match req {
                Ok(req) => {
                    if !serve_binary(&mut ctx, &mut stream, req, started) {
                        return;
                    }
                }
                Err(_) => {
                    shared.metrics.proto_errors.incr();
                    return;
                }
            }
            idle_deadline = now() + shared.cfg.idle_timeout;
            frame_deadline = if buf.is_empty() {
                None
            } else {
                Some(now() + shared.cfg.read_timeout)
            };
        }
    }
}

/// Serves one decoded binary request; returns whether the connection
/// stays open. Latency is measured from "frame fully parsed" to
/// "response fully written" and recorded per endpoint.
fn serve_binary(
    ctx: &mut ConnCtx<'_>,
    stream: &mut TcpStream,
    req: RequestFrame,
    started: Instant,
) -> bool {
    let (endpoint, resp) = match req {
        RequestFrame::Ping => (Endpoint::BinPing, ResponseFrame::error(Status::Pong)),
        RequestFrame::TopK {
            user,
            k,
            exclude_seen,
            mode,
        } => (Endpoint::BinTopK, ctx.dispatch(user, k, exclude_seen, mode)),
    };
    let write_ok = stream.write_all(&resp.encode()).is_ok();
    let served = matches!(resp.status, Status::Ok | Status::Pong);
    ctx.shared
        .metrics
        .record_request(endpoint, write_ok && served, ns_since(started));
    write_ok
}

/// Outcome of one [`serve_http`] attempt over the buffered bytes.
enum HttpStep {
    /// The request head is still incomplete; keep reading.
    NeedMore,
    /// A response was written (or the head was unsalvageable); close.
    Done,
}

/// The HTTP/1.1 GET shim: `/metrics` renders the registry,
/// `/topk?user=U&k=K[&exclude_seen=1][&mode=exact|ivf]` answers JSON
/// with the same engine path as the binary protocol. Anything else is a
/// small typed error response. One request per connection.
fn serve_http(ctx: &mut ConnCtx<'_>, stream: &mut TcpStream, buf: &[u8]) -> HttpStep {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return HttpStep::NeedMore;
    };
    let started = now();
    let head = std::str::from_utf8(&buf[..head_end]).unwrap_or("");
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split(' ');
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        ctx.shared.metrics.proto_errors.incr();
        let _ = write_http(stream, 405, "text/plain", "only GET is served\n");
        return HttpStep::Done;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => {
            let mut body = ctx.shared.metrics.render_text();
            ctx.shared.engine.read().render_metrics(&mut body);
            let ok = write_http(stream, 200, "text/plain", &body).is_ok();
            ctx.shared
                .metrics
                .record_request(Endpoint::HttpMetrics, ok, ns_since(started));
        }
        "/topk" => match parse_topk_query(query) {
            Ok((user, k, exclude_seen, mode)) => {
                let resp = ctx.dispatch(user, k, exclude_seen, mode);
                let (code, body) = match resp.status {
                    Status::Ok => {
                        let items: Vec<String> =
                            resp.items.iter().map(ToString::to_string).collect();
                        (
                            200,
                            format!(
                                "{{\"generation\":{},\"items\":[{}]}}\n",
                                resp.generation,
                                items.join(",")
                            ),
                        )
                    }
                    Status::UnknownUser => (404, "{\"error\":\"unknown user\"}\n".into()),
                    Status::Overloaded => (503, "{\"error\":\"overloaded\"}\n".into()),
                    Status::NoIndex => (400, "{\"error\":\"artifact has no index\"}\n".into()),
                    Status::Timeout => (504, "{\"error\":\"compute deadline expired\"}\n".into()),
                    Status::Pong | Status::BadRequest => {
                        (400, "{\"error\":\"bad request\"}\n".into())
                    }
                };
                let ok = write_http(stream, code, "application/json", &body).is_ok();
                ctx.shared.metrics.record_request(
                    Endpoint::HttpTopK,
                    ok && resp.status == Status::Ok,
                    ns_since(started),
                );
            }
            Err(msg) => {
                ctx.shared.metrics.proto_errors.incr();
                let body = format!("{{\"error\":\"{msg}\"}}\n");
                let _ = write_http(stream, 400, "application/json", &body);
                ctx.shared
                    .metrics
                    .record_request(Endpoint::HttpTopK, false, ns_since(started));
            }
        },
        _ => {
            let _ = write_http(stream, 404, "text/plain", "routes: /topk, /metrics\n");
        }
    }
    HttpStep::Done
}

/// Parses `/topk` query parameters. `user` and `k` are required;
/// `exclude_seen` accepts `1`/`true`; `mode` accepts `exact`/`ivf`
/// (anything else, including omission, means the server default). An
/// unknown or repeated parameter is an error, never a silent pick.
fn parse_topk_query(
    query: &str,
) -> std::result::Result<(u32, u16, bool, ModeRequest), &'static str> {
    let mut user: Option<u32> = None;
    let mut k: Option<u16> = None;
    let mut exclude_seen: Option<bool> = None;
    let mut mode: Option<ModeRequest> = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "user" if user.is_none() => {
                user = Some(value.parse().map_err(|_| "user must be a u32")?)
            }
            "k" if k.is_none() => k = Some(value.parse().map_err(|_| "k must be a u16")?),
            "exclude_seen" if exclude_seen.is_none() => {
                exclude_seen = Some(value == "1" || value == "true")
            }
            "mode" if mode.is_none() => {
                mode = Some(match value {
                    "exact" => ModeRequest::Exact,
                    "ivf" => ModeRequest::Ivf,
                    "default" | "" => ModeRequest::Default,
                    _ => return Err("mode must be exact, ivf, or default"),
                })
            }
            "user" | "k" | "exclude_seen" | "mode" => return Err("repeated parameter"),
            _ => return Err("unknown parameter"),
        }
    }
    let user = user.ok_or("missing required parameter: user")?;
    let k = k.ok_or("missing required parameter: k")?;
    if k == 0 {
        return Err("k must be >= 1");
    }
    Ok((
        user,
        k,
        exclude_seen.unwrap_or(false),
        mode.unwrap_or(ModeRequest::Default),
    ))
}

/// Writes one minimal HTTP/1.1 response with `connection: close`.
fn write_http(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// A blocking client for the binary protocol — the loopback load
/// generator of `serve_bench` and the test suites, and a reference
/// implementation for real clients.
///
/// One request in flight at a time; responses are read strictly
/// (header parse, checksum verify, typed decode), so a corrupted server
/// is an error, never a panic.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl WireClient {
    /// Connects with the default 10 s socket timeouts.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Replaces both socket timeouts.
    pub fn set_timeout(&mut self, timeout: Duration) -> Result<()> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.set_write_timeout(Some(timeout))?;
        Ok(())
    }

    /// Sends one [`RequestFrame::Ping`]; a healthy server answers
    /// [`Status::Pong`].
    pub fn ping(&mut self) -> Result<ResponseFrame> {
        self.call(&RequestFrame::Ping)
    }

    /// Sends one top-k query and waits for its response.
    pub fn top_k(
        &mut self,
        user: u32,
        k: u16,
        exclude_seen: bool,
        mode: ModeRequest,
    ) -> Result<ResponseFrame> {
        self.call(&RequestFrame::TopK {
            user,
            k,
            exclude_seen,
            mode,
        })
    }

    /// Sends any request frame and reads exactly one response frame.
    pub fn call(&mut self, req: &RequestFrame) -> Result<ResponseFrame> {
        self.stream.write_all(&req.encode())?;
        let mut header = [0u8; proto::HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let (len, check) = match proto::parse_header(&header)? {
            FrameHeader::Payload { len, check } => (len, check),
            FrameHeader::NeedHeader => unreachable!("read_exact returned a full header"),
        };
        self.buf.clear();
        self.buf.resize(len, 0);
        self.stream.read_exact(&mut self.buf)?;
        proto::verify_payload(check, &self.buf)?;
        Ok(ResponseFrame::decode_payload(&self.buf)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::Interactions;
    use bns_model::MatrixFactorization;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(seed: u64) -> QueryEngine {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = MatrixFactorization::new(6, 12, 8, 0.1, &mut rng).unwrap();
        let seen =
            Interactions::from_pairs(6, 12, &[(0, 0), (0, 3), (1, 2), (2, 8), (5, 11)]).unwrap();
        QueryEngine::new(ModelArtifact::freeze(&model, &seen).unwrap())
    }

    fn quick_cfg() -> NetConfig {
        NetConfig {
            workers: 2,
            ..NetConfig::default()
        }
    }

    fn http_get(addr: SocketAddr, target: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(s, "GET {target} HTTP/1.1\r\nhost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn ping_and_topk_round_trip_over_loopback() {
        let server = NetServer::bind("127.0.0.1:0", engine(1), quick_cfg()).unwrap();
        let mut client = WireClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.ping().unwrap().status, Status::Pong);
        let resp = client.top_k(0, 5, false, ModeRequest::Default).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.items.len(), 5);
        // The wire answer matches a direct engine query bit for bit.
        let mut scratch = QueryScratch::new();
        let mut direct = Vec::new();
        let e = engine(1);
        e.top_k_into(0, 5, false, &mut scratch, &mut direct)
            .unwrap();
        assert_eq!(resp.items, direct);
    }

    #[test]
    fn unknown_user_and_no_index_are_typed_statuses() {
        let server = NetServer::bind("127.0.0.1:0", engine(2), quick_cfg()).unwrap();
        let mut client = WireClient::connect(server.local_addr()).unwrap();
        let resp = client.top_k(999, 5, false, ModeRequest::Default).unwrap();
        assert_eq!(resp.status, Status::UnknownUser);
        assert_eq!(resp.generation, 0);
        assert!(resp.items.is_empty());
        // The fixture artifact is too small to carry an IVF index.
        let resp = client.top_k(0, 5, false, ModeRequest::Ivf).unwrap();
        assert_eq!(resp.status, Status::NoIndex);
    }

    #[test]
    fn many_frames_per_connection_and_exclude_seen() {
        let server = NetServer::bind("127.0.0.1:0", engine(3), quick_cfg()).unwrap();
        let mut client = WireClient::connect(server.local_addr()).unwrap();
        for user in 0..6u32 {
            let resp = client.top_k(user, 12, true, ModeRequest::Exact).unwrap();
            assert_eq!(resp.status, Status::Ok, "user {user}");
        }
        // User 0 has seen items 0 and 3; with the full catalog requested
        // they must be masked out.
        let resp = client.top_k(0, 12, true, ModeRequest::Default).unwrap();
        assert!(!resp.items.contains(&0) && !resp.items.contains(&3));
    }

    #[test]
    fn http_shim_serves_topk_and_metrics() {
        let server = NetServer::bind("127.0.0.1:0", engine(4), quick_cfg()).unwrap();
        let addr = server.local_addr();
        let body = http_get(addr, "/topk?user=1&k=3");
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        assert!(body.contains("\"items\":["), "{body}");
        let body = http_get(addr, "/topk?user=77&k=3");
        assert!(body.starts_with("HTTP/1.1 404"), "{body}");
        let body = http_get(addr, "/topk?user=zero&k=3");
        assert!(body.starts_with("HTTP/1.1 400"), "{body}");
        let body = http_get(addr, "/metrics");
        assert!(
            body.contains("bns_requests_ok{endpoint=\"http_topk\"} 1"),
            "{body}"
        );
        assert!(body.contains("bns_connections_accepted"), "{body}");
    }

    #[test]
    fn metrics_expose_the_exact_query_counters() {
        let mut rng = StdRng::seed_from_u64(8);
        let model = MatrixFactorization::new(6, 12, 8, 0.1, &mut rng).unwrap();
        let seen = Interactions::from_pairs(6, 12, &[(0, 0), (0, 3), (1, 2)]).unwrap();
        let artifact =
            ModelArtifact::freeze_with(&model, &seen, Some(crate::IvfConfig::default())).unwrap();
        let server =
            NetServer::bind("127.0.0.1:0", QueryEngine::new(artifact), quick_cfg()).unwrap();
        let addr = server.local_addr();
        let body = http_get(addr, "/metrics");
        for name in ["exact", "ivf"] {
            assert!(
                body.contains(&format!("\nbns_{name}_queries 0\n")),
                "{body}"
            );
            assert!(
                body.contains(&format!("\nbns_{name}_opened_rows 0\n")),
                "{body}"
            );
            assert!(
                body.contains(&format!("\nbns_{name}_rescored_rows 0\n")),
                "{body}"
            );
        }
        assert!(body.contains("\nbns_ivf_scanned_rows 0\n"), "{body}");
        let mut client = WireClient::connect(addr).unwrap();
        for user in 0..3u32 {
            let resp = client.top_k(user, 4, true, ModeRequest::Exact).unwrap();
            assert_eq!(resp.status, Status::Ok);
        }
        for user in 0..2u32 {
            let resp = client.top_k(user, 4, true, ModeRequest::Ivf).unwrap();
            assert_eq!(resp.status, Status::Ok);
        }
        let body = http_get(addr, "/metrics");
        assert!(body.contains("\nbns_exact_queries 3\n"), "{body}");
        assert!(body.contains("\nbns_ivf_queries 2\n"), "{body}");
        let counter = |name: &str| -> u64 {
            body.lines()
                .find_map(|l| l.strip_prefix(&format!("bns_{name} ")))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no {name} counter in {body}"))
        };
        let rescored = |mode: &str| counter(&format!("{mode}_rescored_rows"));
        let opened = |mode: &str| counter(&format!("{mode}_opened_rows"));
        // Each query re-scores at least the k = 4 rows that fill it, and
        // an IVF query scans at least the rows it re-scores.
        assert!(rescored("exact") >= 12, "{body}");
        assert!(rescored("ivf") >= 8, "{body}");
        let scanned = counter("ivf_scanned_rows");
        assert!(scanned >= rescored("ivf"), "{body}");
        // The 4-bit stage leaves open every row that is re-scored, and at
        // most the rows scanned: 12 per exact query, the probed clusters'
        // rows for IVF.
        assert!(
            (rescored("exact")..=36).contains(&opened("exact")),
            "{body}"
        );
        assert!(
            (rescored("ivf")..=scanned).contains(&opened("ivf")),
            "{body}"
        );
    }

    #[test]
    fn shutdown_joins_everything_and_is_idempotent() {
        let mut server = NetServer::bind("127.0.0.1:0", engine(5), quick_cfg()).unwrap();
        let addr = server.local_addr();
        let mut client = WireClient::connect(addr).unwrap();
        assert_eq!(client.ping().unwrap().status, Status::Pong);
        server.shutdown();
        server.shutdown();
        // The listener is gone: a fresh request cannot be served.
        let mut probe = WireClient::connect(addr)
            .and_then(|mut c| {
                c.set_timeout(Duration::from_millis(200))?;
                c.ping()
            })
            .is_err();
        // A connect may still succeed transiently on some kernels
        // (backlog); the ping itself must fail.
        if !probe {
            probe = WireClient::connect(addr).is_err();
        }
        assert!(probe, "server still answering after shutdown");
    }

    #[test]
    fn swap_artifact_bumps_generation_on_the_wire() {
        let server = NetServer::bind("127.0.0.1:0", engine(6), quick_cfg()).unwrap();
        let mut client = WireClient::connect(server.local_addr()).unwrap();
        let before = client.top_k(0, 4, false, ModeRequest::Default).unwrap();
        let replacement = engine(7);
        server.swap_artifact(replacement.artifact().clone());
        let after = client.top_k(0, 4, false, ModeRequest::Default).unwrap();
        assert_eq!(after.generation, before.generation + 1);
        assert_eq!(server.metrics().artifact_swaps.get(), 1);
    }
}
