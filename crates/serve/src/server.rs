//! The server proper: acceptor, connection handlers, request routing,
//! and the graceful-drain state machine.
//!
//! Thread layout (DESIGN.md §13):
//!
//! ```text
//! acceptor ──spawns──▶ connection handlers (one thread per connection)
//!                         │  POST /v1/score, one doc, a permit free:
//!                         │    score inline → write → journal record
//!                         │  otherwise → try_push ──▶ BoundedQueue
//!                         │              (full → 429 Retry-After)
//!                         ▼                                  │ pop_batch
//!                      reply rendezvous ◀── engine workers ◀─┘
//!                                           (a permit per batch,
//!                                            map_indexed, `threads` wide)
//! ```
//!
//! A single-doc request that finds one of the `workers` scoring permits
//! free is scored on its connection thread, against one registry
//! snapshot, by the pass the workers run; the permit is released before
//! the socket write, and the journal record is handed over only after
//! the write returned. Two thread wake-ups (the worker's and the
//! handler's) and the queue's lock leave that request's path. Every
//! other request takes the queue.
//!
//! Drain protocol on [`ServerHandle::join`] (the SIGTERM path reaches it
//! through [`ServerHandle::run_until`]):
//! 1. the draining flag flips — `/healthz` turns 503, new `/v1/score`
//!    requests are refused with 503;
//! 2. the acceptor stops accepting and exits;
//! 3. connection handlers finish their in-flight request and close
//!    (idle keep-alive connections close on their next poll tick);
//! 4. the permits close to inline scoring, then the queue closes; from
//!    here a single-doc request is refused with 503 like any push onto
//!    the closed queue; workers drain what was already accepted and exit
//!    — accepted work is never dropped;
//! 5. the journal closes, its thread drains and exits, and
//!    [`ServerHandle::join`] collects every thread and reports totals.

use crate::admission::{AdmissionControl, Admit};
use crate::chaos;
use crate::http::{self, Received, RecvError, Request, Response};
use crate::journal::{self, Handoff, JournalRecord, JournalStats};
use crate::metrics::{Gauges, Metrics};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::{ModelRegistry, SwapError};
use crate::worker::{self, Permit, Permits, Reply, ScoreJob};
use crate::{ServeConfig, ServeError};
use incite_core::load_latest_classifier_with_hash;
use incite_ml::TextClassifier;
use incite_pii::{redact, PiiExtractor};
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum documents in one `/v1/score` or `/v1/redact` request.
const MAX_DOCS_PER_REQUEST: usize = 1024;

/// Connection read timeout and drain/metrics poll tick.
///
/// The acceptor itself does NOT poll: it blocks in `accept` and is woken
/// for drains by a loopback connection from `ServerHandle::initiate_drain`.
/// (A 25 ms accept-poll sleep here used to put a full tick on the p99 of
/// every fresh connection; perfbench's `serve_single` latencies time it.)
const POLL: Duration = Duration::from_millis(25);

/// How long `join` waits for open connections to finish after a drain
/// begins before giving up on them (they hold no queued work by then).
const CONNECTION_DRAIN_WINDOW: Duration = Duration::from_secs(15);

/// Consecutive queue-full rejections before the server enters degraded
/// mode (batch requests shed, single-doc scoring and health kept alive).
/// One successful enqueue or inline score resets the strike counter and
/// exits the mode; an inline score never adds a strike.
const DEGRADE_AFTER: u32 = 8;

/// Shared server state; one `Arc` across all threads.
pub struct ServerState {
    pub(crate) registry: ModelRegistry,
    pub(crate) admission: AdmissionControl,
    pub(crate) journal_stats: Arc<JournalStats>,
    pub(crate) extractor: PiiExtractor,
    pub(crate) queue: BoundedQueue<ScoreJob>,
    /// `workers` scoring permits, shared by the workers and the inline
    /// single-doc path.
    pub(crate) permits: Permits,
    /// The one sender to the journal thread; `None` with journaling off.
    pub(crate) journal: Option<Handoff>,
    pub(crate) metrics: Metrics,
    pub(crate) config: ServeConfig,
    draining: AtomicBool,
    open_connections: AtomicUsize,
    /// Next journal sequence number to assign.
    seq: AtomicU64,
    /// Consecutive queue-full rejections (degraded-mode trigger).
    full_strikes: AtomicU32,
}

impl ServerState {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Degraded mode: the queue has been saturated for [`DEGRADE_AFTER`]
    /// consecutive enqueue attempts with no inline score between them.
    pub(crate) fn degraded(&self) -> bool {
        self.full_strikes.load(Ordering::Acquire) >= DEGRADE_AFTER
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Closes scoring to new work: first the permits, so no inline score
    /// starts once the queue is closed, then the queue.
    fn close_scoring(&self) {
        self.permits.close();
        self.queue.close();
    }
}

/// What the drain left behind; returned by [`ServerHandle::join`].
#[derive(Debug, Default, Clone, serde::Serialize)]
pub struct DrainReport {
    /// Requests answered over the server's lifetime.
    pub requests_total: u64,
    /// Documents scored, inline and by the engine workers.
    pub documents_scored: u64,
    /// Requests refused with 429 (queue full).
    pub rejected_overload: u64,
    /// Connections still open when the drain window closed.
    pub stuck_connections: usize,
    /// Server threads that terminated by panic (always 0 in practice;
    /// the scoring path is panic-free by construction).
    pub panicked_threads: usize,
}

/// The entry point: binds, spawns, serves.
pub struct Server;

impl Server {
    /// Binds `config.addr`, spawns the engine workers and the acceptor,
    /// and returns a handle. Fails without side effects: nothing is
    /// spawned unless the bind and the PII extractor both succeed.
    ///
    /// The classifier becomes model generation 1 with no provenance
    /// (empty hash and run dir); use [`Server::start_from_run_dir`] when
    /// the model comes from a checkpointed run directory so responses and
    /// journal records carry a verifiable model hash.
    pub fn start(
        classifier: TextClassifier,
        config: ServeConfig,
    ) -> Result<ServerHandle, ServeError> {
        Server::start_with_registry(
            ModelRegistry::new(classifier, String::new(), String::new()),
            config,
        )
    }

    /// [`Server::start`], but the boot model is loaded (and its manifest
    /// hash verified) from a checkpointed run directory — the registry
    /// path `incite serve --run-dir` uses. Hot swaps via
    /// `POST /v1/admin/swap` load later generations the same way.
    pub fn start_from_run_dir(
        run_dir: &Path,
        config: ServeConfig,
    ) -> Result<ServerHandle, ServeError> {
        let (classifier, model_hash) = load_latest_classifier_with_hash(run_dir)
            .map_err(|e| ServeError::Model(e.to_string()))?;
        Server::start_with_registry(
            ModelRegistry::new(classifier, model_hash, run_dir.display().to_string()),
            config,
        )
    }

    fn start_with_registry(
        registry: ModelRegistry,
        config: ServeConfig,
    ) -> Result<ServerHandle, ServeError> {
        config.validate()?;
        let extractor = PiiExtractor::try_new().map_err(|e| ServeError::Pii(e.to_string()))?;
        let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Bind {
            addr: config.addr.clone(),
            source,
        })?;
        let addr = listener.local_addr().map_err(|source| ServeError::Bind {
            addr: config.addr.clone(),
            source,
        })?;
        let journal_stats = Arc::new(JournalStats::default());
        // Open the journal before spawning anything: an unwritable path
        // is a boot failure, not a silent runtime drop.
        let (journal, journal_thread) = match &config.journal {
            None => (None, None),
            Some(path) => {
                let (tx, handle) =
                    journal::spawn(path, Arc::clone(&journal_stats), &config.failpoints)
                        .map_err(|e| ServeError::Config(format!("cannot open journal: {e}")))?;
                (
                    Some(Handoff::new(tx, Arc::clone(&journal_stats))),
                    Some(handle),
                )
            }
        };
        let admission = AdmissionControl::new(config.tenants.clone(), Instant::now());
        let state = Arc::new(ServerState {
            registry,
            admission,
            journal_stats,
            extractor,
            queue: BoundedQueue::new(config.queue_depth),
            permits: Permits::new(config.workers),
            journal,
            metrics: Metrics::new(),
            config,
            draining: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            full_strikes: AtomicU32::new(0),
        });

        let workers: Vec<JoinHandle<()>> = (0..state.config.workers)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("incite-serve-worker-{i}"))
                    .spawn(move || worker::run(&state))
            })
            .collect::<Result<_, _>>()
            .map_err(|source| ServeError::Bind {
                addr: addr.to_string(),
                source,
            })?;

        // Pre-warm both serving paths before accepting traffic, so the
        // first real request never pays one-time costs (allocator pools,
        // lazy regex DFA caches, featurizer scratch). The scores are
        // discarded; scoring is pure, so warmup cannot perturb results.
        let warmup: Vec<&str> =
            vec!["warmup: report him and make him pay"; state.config.threads.max(1)];
        let boot_model = state.registry.current();
        let _ = incite_core::ScoringEngine::score_texts(
            &boot_model.classifier,
            &warmup,
            state.config.threads,
        );
        drop(boot_model);
        let _ = redact(&state.extractor, "warmup: call 212-555-0101, mail a@b.com");

        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("incite-serve-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &state))
                .map_err(|source| ServeError::Bind {
                    addr: addr.to_string(),
                    source,
                })?
        };

        Ok(ServerHandle {
            addr,
            state,
            acceptor,
            workers,
            journal_thread,
        })
    }
}

/// A running server: the owner can inspect, drain, and join it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    journal_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flips the draining flag: `/healthz` goes 503, new scoring work is
    /// refused, the acceptor winds down. Idempotent; does not block.
    fn initiate_drain(&self) {
        self.state.draining.store(true, Ordering::Release);
        // The acceptor blocks in `accept` (no poll tick); a loopback
        // connection wakes it so it can observe the flag and exit. The
        // flag is already set, so the woken acceptor drops the stream
        // without serving it. Failure is fine: it means the listener is
        // already gone.
        let _ = TcpStream::connect(self.addr);
    }

    /// Drains and joins everything; see the module docs for the order.
    pub fn join(self) -> DrainReport {
        self.initiate_drain();
        let mut report = DrainReport::default();
        if self.acceptor.join().is_err() {
            report.panicked_threads += 1;
        }
        // In-flight connections finish their current request and close;
        // give them a bounded window before abandoning the stragglers.
        let window = Instant::now() + CONNECTION_DRAIN_WINDOW;
        while self.state.open_connections.load(Ordering::Acquire) > 0 && Instant::now() < window {
            std::thread::sleep(POLL);
        }
        report.stuck_connections = self.state.open_connections.load(Ordering::Acquire);
        // Only now close scoring: every job a handler managed to push
        // gets scored before the workers exit.
        self.state.close_scoring();
        for worker in self.workers {
            if worker.join().is_err() {
                report.panicked_threads += 1;
            }
        }
        // Workers are gone; closing the handoff drops the journal's one
        // sender, so the journal thread drains its buffered records FIFO
        // and exits. Only then is the journal complete on disk. A stuck
        // connection holds no sender, so it cannot keep this join waiting.
        if let Some(journal) = &self.state.journal {
            journal.close();
        }
        if let Some(journal) = self.journal_thread {
            if journal.join().is_err() {
                report.panicked_threads += 1;
            }
        }
        report.requests_total = self.state.metrics.requests_total.load(Ordering::Relaxed);
        report.documents_scored = self.state.metrics.documents_scored.load(Ordering::Relaxed);
        report.rejected_overload = self.state.metrics.rejected_overload.load(Ordering::Relaxed);
        report
    }

    /// Serves until `stop` flips (the signal flag), then drains and
    /// joins. This is the `incite serve` main loop.
    pub fn run_until(self, stop: &AtomicBool) -> DrainReport {
        while !stop.load(Ordering::Acquire) && !self.state.draining() {
            std::thread::sleep(POLL);
        }
        self.join()
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // A drain may have begun while blocked in accept (the
                // wake-up stream from `initiate_drain` lands here); drop
                // the connection unserved and exit.
                if state.draining() {
                    return;
                }
                // Track before spawning so a drain that starts between
                // accept and spawn still waits for this connection.
                state.open_connections.fetch_add(1, Ordering::AcqRel);
                let conn_state = Arc::clone(state);
                let spawned = std::thread::Builder::new()
                    .name("incite-serve-conn".to_string())
                    .spawn(move || {
                        handle_connection(&conn_state, stream);
                        conn_state.open_connections.fetch_sub(1, Ordering::AcqRel);
                    });
                if spawned.is_err() {
                    // Spawn failure (fd/thread exhaustion): shed the
                    // connection; the guard must still be released.
                    state.open_connections.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Err(_) if state.draining() => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Transient accept errors (ECONNABORTED, EMFILE...): back off
            // briefly instead of spinning or dying.
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        let received =
            http::read_request(&mut reader, &|| state.draining(), state.config.io_window);
        let started = Instant::now();
        let (response, record, fatal) = match received {
            Ok(Received::Request(req)) => {
                let (response, record) = route(state, &req);
                let close = response.close || req.wants_close();
                (response, record, close)
            }
            Ok(Received::Closed) => return,
            Err(RecvError::Malformed(what)) => (
                Response::json(400, error_body(&format!("malformed request: {what}"))).closing(),
                None,
                true,
            ),
            Err(RecvError::TooLarge(what)) => (
                Response::json(413, error_body(&format!("{what} too large"))).closing(),
                None,
                true,
            ),
            Err(RecvError::Io(_)) => return,
        };
        state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        state
            .metrics
            .latency
            .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
        let open = write_response(state, reader.get_mut(), &response);
        // An inline score's record goes to the journal thread only now
        // that the write returned, whether or not it succeeded: sent
        // earlier, the journal thread's wake-up can land between scoring
        // and the reply.
        if let (Some(record), Some(journal)) = (record, &state.journal) {
            journal.send(record);
        }
        if !open || fatal {
            return;
        }
    }
}

/// Writes `response`; `false` when the connection must close. Chaos
/// sites on the write path: a reset drops the connection with no
/// response bytes; a short write emits a truncated prefix. Both hit
/// exactly one response and the server keeps serving.
fn write_response(state: &ServerState, stream: &mut TcpStream, response: &Response) -> bool {
    if state.config.failpoints.check(chaos::SOCKET_RESET).is_err() {
        return false;
    }
    if state.config.failpoints.check(chaos::SHORT_WRITE).is_err() {
        let mut buf = Vec::new();
        if response.write_to(&mut buf).is_ok() {
            let _ = stream.write_all(&buf[..buf.len() / 2]);
        }
        return false;
    }
    response.write_to(stream).is_ok()
}

/// The documents of a `/v1/score` or `/v1/redact` body: either
/// `{"text": "..."}` or `{"texts": ["...", ...]}`.
#[derive(serde::Deserialize)]
struct DocsRequest {
    text: Option<String>,
    texts: Option<Vec<String>>,
}

#[derive(serde::Serialize)]
struct ScoreResponse {
    /// Scores in input order.
    scores: Vec<f32>,
    /// The same scores as raw `f32` bit patterns: the byte-identity
    /// contract with the offline engine, checkable over the wire.
    bits: Vec<u32>,
    count: usize,
    /// Model generation every score in this response came from.
    generation: u64,
    /// That generation's verified model content hash (empty for
    /// in-memory boot models).
    model_hash: String,
}

/// `POST /v1/admin/swap` body.
#[derive(serde::Deserialize)]
struct SwapRequest {
    run_dir: Option<String>,
}

#[derive(serde::Serialize)]
struct RedactResponse {
    redacted: Vec<String>,
    pii_matches: usize,
}

fn error_body(message: &str) -> String {
    serde_json::to_string(&serde::Value::Object(
        [("error".to_string(), serde::Value::Str(message.to_string()))]
            .into_iter()
            .collect(),
    ))
    .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string())
}

fn json_or_500<E: std::fmt::Display>(body: Result<String, E>) -> Response {
    match body {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::json(500, error_body(&format!("response serialization: {e}"))),
    }
}

/// Answers one request. The journal record of a request scored inline
/// rides along, for the caller to hand over after the write.
fn route(state: &Arc<ServerState>, req: &Request) -> (Response, Option<JournalRecord>) {
    let response = match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/healthz") => {
            if state.draining() {
                Response::text(503, "draining\n").closing()
            } else {
                Response::text(200, "ok\n")
            }
        }
        ("GET", "/metrics") => {
            let gauges = Gauges {
                queue_depth: state.queue.len(),
                draining: state.draining(),
                degraded: state.degraded(),
                model_generation: state.registry.generation(),
                swaps_total: state.registry.swaps_total.load(Ordering::Relaxed),
                swap_failures: state.registry.swap_failures.load(Ordering::Relaxed),
                journal_records: state.journal_stats.records.load(Ordering::Relaxed),
                journal_errors: state.journal_stats.errors.load(Ordering::Relaxed),
                tenants: state.admission.snapshot(),
            };
            Response::text(200, &state.metrics.render(&gauges))
        }
        ("POST", "/v1/score") => match admit_score(state, req) {
            Ok((texts, tenant)) => return score(state, texts, tenant),
            Err(refusal) => refusal,
        },
        ("POST", "/v1/redact") => redact_endpoint(state, req),
        ("POST", "/v1/admin/swap") => swap_endpoint(state, req),
        ("GET" | "POST", _) => Response::json(404, error_body("no such endpoint")),
        _ => Response::json(405, error_body("method not allowed")),
    };
    (response, None)
}

/// Parses the shared body shape and applies the per-request size cap.
fn parse_docs(req: &Request) -> Result<Vec<String>, Response> {
    let body = std::str::from_utf8(&req.body)
        .map_err(|_| Response::json(400, error_body("body is not UTF-8")))?;
    // Report the failure *position*, never the parser message — syntax
    // errors quote a snippet of the (caller-supplied, possibly victim)
    // body text, and error bodies are a diagnostic sink (INC011).
    let parsed: DocsRequest = serde_json::from_str(body).map_err(|e| {
        let detail = match e {
            serde_json::Error::Syntax(_, at) => {
                format!("body does not parse: syntax error at byte {at}")
            }
            _ => "body does not parse: value has the wrong shape".to_string(),
        };
        Response::json(400, error_body(&detail))
    })?;
    let texts = match (parsed.text, parsed.texts) {
        (Some(text), None) => vec![text],
        (None, Some(texts)) => texts,
        _ => {
            return Err(Response::json(
                400,
                error_body("body must have exactly one of \"text\" or \"texts\""),
            ))
        }
    };
    if texts.is_empty() {
        return Err(Response::json(400, error_body("\"texts\" is empty")));
    }
    if texts.len() > MAX_DOCS_PER_REQUEST {
        return Err(Response::json(
            413,
            error_body(&format!(
                "at most {MAX_DOCS_PER_REQUEST} documents per request"
            )),
        ));
    }
    Ok(texts)
}

/// The documents and tenant of a `/v1/score` request that may be scored.
fn admit_score(state: &ServerState, req: &Request) -> Result<(Vec<String>, String), Response> {
    if state.draining() {
        return Err(Response::json(503, error_body("draining")).closing());
    }
    // Admission first: an unauthenticated or over-quota tenant must not
    // cost a parse of a multi-megabyte body.
    let tenant = match state
        .admission
        .admit(req.header("x-api-key"), Instant::now())
    {
        Admit::Granted { tenant } => tenant,
        Admit::RetryAfter { seconds, .. } => {
            return Err(
                Response::json(429, error_body("tenant quota exhausted, retry later"))
                    .with_header("retry-after", seconds.to_string()),
            );
        }
        Admit::UnknownKey => {
            return Err(Response::json(
                401,
                error_body("unknown or missing x-api-key"),
            ));
        }
    };
    Ok((parse_docs(req)?, tenant))
}

/// Scores inline when the request is one document and a permit is free;
/// otherwise through the queue.
fn score(
    state: &ServerState,
    texts: Vec<String>,
    tenant: String,
) -> (Response, Option<JournalRecord>) {
    if texts.len() == 1 {
        if let Some(permit) = state.permits.try_acquire() {
            return score_inline(state, texts, tenant, permit);
        }
    }
    (score_queued(state, texts, tenant), None)
}

/// Scores a single-doc request on the connection thread under `permit`.
/// A free permit shows spare scoring capacity, so, like a successful
/// enqueue, it clears the strike counter and ends degraded mode.
fn score_inline(
    state: &ServerState,
    texts: Vec<String>,
    tenant: String,
    permit: Permit<'_>,
) -> (Response, Option<JournalRecord>) {
    state.full_strikes.store(0, Ordering::Release);
    state.metrics.score_requests.fetch_add(1, Ordering::Relaxed);
    let seq = state.next_seq();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let reply = worker::score_pass(state, &refs, permit);
    let record = match (&reply, &state.journal) {
        (Reply::Scores { scores, model }, Some(_)) => {
            Some(worker::journal_record(seq, tenant, texts, scores, model))
        }
        _ => None,
    };
    let response = answer(reply);
    let record = record.filter(|_| response.status == 200);
    (response, record)
}

/// Enqueues a request for the workers and waits for their reply.
fn score_queued(state: &ServerState, texts: Vec<String>, tenant: String) -> Response {
    // Degraded mode sheds batch work before it reaches the queue; the
    // cheap single-doc path (and /healthz) stay alive so probes and
    // latency-critical callers keep getting answers.
    if texts.len() > 1 && state.degraded() {
        state.metrics.shed_degraded.fetch_add(1, Ordering::Relaxed);
        state.admission.record_shed(&tenant);
        return Response::json(
            503,
            error_body("degraded: batch requests shed, retry later"),
        )
        .with_header("retry-after", "1".to_string());
    }
    let deadline = state.config.deadline;
    let (reply_tx, reply_rx) = sync_channel(1);
    let job = ScoreJob {
        texts,
        enqueued: Instant::now(),
        deadline,
        seq: state.next_seq(),
        tenant,
        reply: reply_tx,
    };
    match state.queue.try_push(job) {
        Ok(()) => {
            state.full_strikes.store(0, Ordering::Release);
        }
        Err(PushError::Full(_)) => {
            state.full_strikes.fetch_add(1, Ordering::AcqRel);
            state
                .metrics
                .rejected_overload
                .fetch_add(1, Ordering::Relaxed);
            return Response::json(429, error_body("queue full, retry later"))
                .with_header("retry-after", "1".to_string());
        }
        Err(PushError::Closed(_)) => {
            return Response::json(503, error_body("draining")).closing();
        }
    }
    state.metrics.score_requests.fetch_add(1, Ordering::Relaxed);
    // The worker enforces the deadline; the extra grace covers a batch
    // already being scored when the deadline hits.
    match reply_rx.recv_timeout(deadline + Duration::from_secs(5)) {
        Ok(reply) => answer(reply),
        Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
            state
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            Response::json(504, error_body("deadline exceeded"))
        }
    }
}

/// The response to a scoring pass's outcome.
fn answer(reply: Reply) -> Response {
    match reply {
        Reply::Scores { scores, model } => {
            let bits = scores.iter().map(|s| s.to_bits()).collect();
            let count = scores.len();
            json_or_500(serde_json::to_string(&ScoreResponse {
                scores,
                bits,
                count,
                generation: model.generation,
                model_hash: model.model_hash.clone(),
            }))
        }
        Reply::Expired => Response::json(504, error_body("deadline exceeded in queue")),
        Reply::Failed(msg) => Response::json(500, error_body(&msg)),
    }
}

/// `POST /v1/admin/swap {"run_dir": "..."}`: load, verify, and atomically
/// activate a new model generation. Runs synchronously on the connection
/// thread — the registry does all I/O outside its lock, so in-flight
/// scoring is never stalled. Every response body is static text plus the
/// new generation number: the requested path is request data and must not
/// echo into responses (INC011).
fn swap_endpoint(state: &Arc<ServerState>, req: &Request) -> Response {
    if state.draining() {
        return Response::json(503, error_body("draining")).closing();
    }
    let parsed: Result<SwapRequest, _> = match std::str::from_utf8(&req.body) {
        Ok(body) => serde_json::from_str(body),
        Err(_) => return Response::json(400, error_body("body is not UTF-8")),
    };
    let run_dir = match parsed {
        Ok(SwapRequest { run_dir: Some(dir) }) if !dir.is_empty() => dir,
        _ => {
            return Response::json(400, error_body("body must be {\"run_dir\": \"...\"}"));
        }
    };
    match state
        .registry
        .swap_from_run_dir(Path::new(&run_dir), &state.config.failpoints)
    {
        Ok(generation) => Response::json(200, format!("{{\"generation\":{generation}}}")),
        Err(e @ SwapError::InProgress) => Response::json(409, error_body(e.describe())),
        Err(e @ SwapError::Load(_)) => Response::json(422, error_body(e.describe())),
        Err(e @ SwapError::Injected) => Response::json(503, error_body(e.describe())),
    }
}

fn redact_endpoint(state: &Arc<ServerState>, req: &Request) -> Response {
    let texts = match parse_docs(req) {
        Ok(texts) => texts,
        Err(response) => return response,
    };
    state
        .metrics
        .redact_requests
        .fetch_add(1, Ordering::Relaxed);
    // Redaction is a pure per-text pass over precompiled extractors —
    // cheap enough to serve inline on the connection thread, keeping the
    // queue for model inference.
    let mut redacted = Vec::with_capacity(texts.len());
    let mut pii_matches = 0;
    for text in &texts {
        let (clean, matches) = redact(&state.extractor, text);
        redacted.push(clean);
        pii_matches += matches.len();
    }
    json_or_500(serde_json::to_string(&RedactResponse {
        redacted,
        pii_matches,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::PopBatch;
    use incite_ml::{FeaturizerConfig, TrainConfig};

    /// A server state with no worker threads attached — routing decisions
    /// that never reach the engine (health, metrics, parse errors, and
    /// the 429 backpressure path with a zero-capacity queue) are testable
    /// without sockets.
    fn state(queue_depth: usize) -> Arc<ServerState> {
        state_with_config(ServeConfig {
            queue_depth,
            ..ServeConfig::default()
        })
    }

    fn state_with_config(config: ServeConfig) -> Arc<ServerState> {
        let classifier = TextClassifier::train(
            vec![("report him now", true), ("nice weather", false)],
            FeaturizerConfig::default(),
            TrainConfig::default(),
        );
        let extractor = PiiExtractor::try_new().expect("extractor");
        Arc::new(ServerState {
            registry: ModelRegistry::new(classifier, String::new(), String::new()),
            admission: AdmissionControl::new(config.tenants.clone(), Instant::now()),
            journal_stats: Arc::new(JournalStats::default()),
            extractor,
            queue: BoundedQueue::new(config.queue_depth),
            permits: Permits::new(config.workers),
            journal: None,
            metrics: Metrics::new(),
            config,
            draining: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            full_strikes: AtomicU32::new(0),
        })
    }

    /// The response [`route`] gives; these states journal nothing.
    fn call(state: &Arc<ServerState>, req: &Request) -> Response {
        route(state, req).0
    }

    /// Every scoring permit, as busy workers would hold them.
    fn hold_every_permit(state: &ServerState) -> Vec<Permit<'_>> {
        (0..state.config.workers)
            .map(|_| state.permits.acquire())
            .collect()
    }

    /// Routes `req` while this thread stands in for the workers: a job
    /// that reaches the queue is answered `Expired` (504) unscored.
    /// Returns the response and whether the request was queued.
    fn call_as_worker(state: &Arc<ServerState>, req: &Request) -> (Response, bool) {
        std::thread::scope(|scope| {
            let handler = scope.spawn(|| call(state, req));
            let mut queued = false;
            while !handler.is_finished() {
                if let PopBatch::Items(jobs) = state.queue.pop_batch(8, Duration::from_millis(1)) {
                    for job in jobs {
                        queued = true;
                        let _ = job.reply.try_send(Reply::Expired);
                    }
                }
            }
            (handler.join().expect("handler thread"), queued)
        })
    }

    /// The `bits` field of a score response.
    fn bits_field(resp: &Response) -> String {
        let body = String::from_utf8(resp.body.clone()).expect("utf8");
        let start = body.find("\"bits\":[").expect("bits field") + 8;
        let len = body[start..].find(']').expect("bits end");
        body[start..start + len].to_string()
    }

    fn request(method: &str, target: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn healthz_flips_to_503_while_draining() {
        let state = state(4);
        let ok = call(&state, &request("GET", "/healthz", ""));
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body, b"ok\n");
        state.draining.store(true, Ordering::Release);
        let draining = call(&state, &request("GET", "/healthz", ""));
        assert_eq!(draining.status, 503);
        assert_eq!(draining.body, b"draining\n");
        assert!(draining.close, "draining health responses close the socket");
    }

    #[test]
    fn score_while_draining_is_refused_not_queued() {
        let state = state(4);
        state.draining.store(true, Ordering::Release);
        let resp = call(&state, &request("POST", "/v1/score", "{\"text\": \"x\"}"));
        assert_eq!(resp.status, 503);
        assert_eq!(state.queue.len(), 0);
    }

    #[test]
    fn full_queue_returns_429_with_retry_after() {
        // Zero capacity: every enqueue is a backpressure rejection, and no
        // worker is needed to prove it. With every permit held, the
        // single-doc request cannot be scored inline and reaches the queue.
        let state = state(0);
        let _held = hold_every_permit(&state);
        let resp = call(&state, &request("POST", "/v1/score", "{\"text\": \"x\"}"));
        assert_eq!(resp.status, 429);
        assert!(
            resp.extra_headers
                .iter()
                .any(|(k, v)| *k == "retry-after" && v == "1"),
            "429 must carry retry-after: {:?}",
            resp.extra_headers
        );
        assert_eq!(state.metrics.rejected_overload.load(Ordering::Relaxed), 1);
        let metrics = call(&state, &request("GET", "/metrics", ""));
        let text = String::from_utf8(metrics.body).expect("utf8");
        assert!(
            text.contains("incite_serve_rejected_overload_total 1"),
            "{text}"
        );
    }

    #[test]
    fn bad_bodies_are_400_or_413_and_unknown_routes_404() {
        let state = state(4);
        for (body, expect) in [
            ("not json", 400),
            ("{}", 400),
            ("{\"text\": \"a\", \"texts\": [\"b\"]}", 400),
            ("{\"texts\": []}", 400),
        ] {
            let resp = call(&state, &request("POST", "/v1/score", body));
            assert_eq!(resp.status, expect, "body {body:?}");
        }
        let many: Vec<String> = (0..=MAX_DOCS_PER_REQUEST)
            .map(|i| format!("\"d{i}\""))
            .collect();
        let body = format!("{{\"texts\": [{}]}}", many.join(","));
        let resp = call(&state, &request("POST", "/v1/score", &body));
        assert_eq!(resp.status, 413);

        assert_eq!(call(&state, &request("GET", "/nope", "")).status, 404);
        assert_eq!(call(&state, &request("DELETE", "/healthz", "")).status, 405);
    }

    #[test]
    fn swap_endpoint_validates_and_maps_errors_to_static_bodies() {
        let state = state(4);
        // Body validation failures never reach the registry.
        for body in ["not json", "{}", "{\"run_dir\": \"\"}", "{\"run_dir\": 7}"] {
            let resp = call(&state, &request("POST", "/v1/admin/swap", body));
            assert_eq!(resp.status, 400, "body {body:?}");
        }
        // A missing run dir is a typed 422 whose body echoes nothing of
        // the requested path.
        let resp = call(
            &state,
            &request(
                "POST",
                "/v1/admin/swap",
                "{\"run_dir\": \"/no/such/secret-dir\"}",
            ),
        );
        assert_eq!(resp.status, 422);
        let body = String::from_utf8(resp.body).expect("utf8");
        assert!(!body.contains("secret-dir"), "path echoed: {body}");
        assert_eq!(state.registry.generation(), 1, "failed swap keeps gen 1");
        // Swapping while draining is refused outright.
        state.draining.store(true, Ordering::Release);
        let resp = call(
            &state,
            &request("POST", "/v1/admin/swap", "{\"run_dir\": \"/x\"}"),
        );
        assert_eq!(resp.status, 503);
    }

    #[test]
    fn tenant_quota_gates_score_with_401_and_429() {
        use crate::admission::TenantQuota;

        let state = state_with_config(ServeConfig {
            queue_depth: 4,
            tenants: vec![TenantQuota {
                name: "alpha".to_string(),
                key: "alpha-key".to_string(),
                capacity: 1,
                refill_per_sec: 1,
            }],
            ..ServeConfig::default()
        });
        fn keyed(key: Option<&str>) -> Request {
            let mut req = request("POST", "/v1/score", "{\"text\": \"x\"}");
            if let Some(key) = key {
                req.headers.push(("x-api-key".to_string(), key.to_string()));
            }
            req
        }
        // No key / wrong key → 401 before anything is queued.
        assert_eq!(call(&state, &keyed(None)).status, 401);
        assert_eq!(call(&state, &keyed(Some("wrong"))).status, 401);
        assert_eq!(state.queue.len(), 0);
        // Drain the capacity-1 bucket, then the routed request is a 429
        // with a numeric retry-after — before parse, before the queue.
        assert!(matches!(
            state.admission.admit(Some("alpha-key"), Instant::now()),
            Admit::Granted { .. }
        ));
        let rejected = call(&state, &keyed(Some("alpha-key")));
        assert_eq!(rejected.status, 429);
        assert!(
            rejected
                .extra_headers
                .iter()
                .any(|(k, v)| *k == "retry-after" && v.parse::<u64>().is_ok()),
            "429 must carry a numeric retry-after: {:?}",
            rejected.extra_headers
        );
        assert_eq!(state.queue.len(), 0, "rejected request never queued");
        let snapshot = state.admission.snapshot();
        assert_eq!(snapshot[0].name, "alpha");
        assert_eq!(snapshot[0].admitted, 1);
        assert_eq!(snapshot[0].rejected, 1);
    }

    #[test]
    fn degraded_mode_sheds_batches_keeps_single_doc() {
        // Zero capacity: every push is Full, so strikes accumulate. Every
        // permit is held, so single-doc requests reach the queue too.
        let state = state(0);
        let held = hold_every_permit(&state);
        for _ in 0..DEGRADE_AFTER {
            let resp = call(&state, &request("POST", "/v1/score", "{\"text\": \"x\"}"));
            assert_eq!(resp.status, 429);
        }
        assert!(state.degraded());
        // Batch requests are shed with 503 *before* the queue...
        let resp = call(
            &state,
            &request("POST", "/v1/score", "{\"texts\": [\"a\", \"b\"]}"),
        );
        assert_eq!(resp.status, 503);
        assert_eq!(state.metrics.shed_degraded.load(Ordering::Relaxed), 1);
        // ...single-doc scoring still reaches the queue (and 429s on the
        // zero-capacity queue rather than being shed)...
        let resp = call(&state, &request("POST", "/v1/score", "{\"text\": \"x\"}"));
        assert_eq!(resp.status, 429);
        // ...and /healthz stays green.
        assert_eq!(call(&state, &request("GET", "/healthz", "")).status, 200);
        let metrics = call(&state, &request("GET", "/metrics", ""));
        let text = String::from_utf8(metrics.body).expect("utf8");
        assert!(text.contains("incite_serve_degraded 1"), "{text}");
        assert!(
            text.contains("incite_serve_shed_degraded_total 1"),
            "{text}"
        );
        // Once load falls, a single doc finds a permit free and is scored
        // inline, which clears the strikes and ends degraded mode: the
        // next batch reaches the queue again (429 at zero depth, no shed).
        drop(held);
        let resp = call(&state, &request("POST", "/v1/score", "{\"text\": \"x\"}"));
        assert_eq!(resp.status, 200);
        assert_eq!(state.full_strikes.load(Ordering::Acquire), 0);
        assert!(!state.degraded());
        let resp = call(
            &state,
            &request("POST", "/v1/score", "{\"texts\": [\"a\", \"b\"]}"),
        );
        assert_eq!(resp.status, 429);
        assert_eq!(state.metrics.shed_degraded.load(Ordering::Relaxed), 1);
        let metrics = call(&state, &request("GET", "/metrics", ""));
        let text = String::from_utf8(metrics.body).expect("utf8");
        assert!(text.contains("incite_serve_degraded 0"), "{text}");
    }

    #[test]
    fn metrics_expose_generation_and_admission_series() {
        let state = state(4);
        let metrics = call(&state, &request("GET", "/metrics", ""));
        let text = String::from_utf8(metrics.body).expect("utf8");
        for series in [
            "incite_serve_model_generation 1",
            "incite_serve_swaps_total 0",
            "incite_serve_swap_failures_total 0",
            "incite_serve_journal_records_total 0",
            "incite_serve_tenant_admitted_total{tenant=\"default\"}",
        ] {
            assert!(text.contains(series), "missing {series:?} in:\n{text}");
        }
    }

    #[test]
    fn redact_runs_inline_without_workers() {
        let state = state(4);
        let resp = call(
            &state,
            &request(
                "POST",
                "/v1/redact",
                "{\"texts\": [\"call 212-555-0101 now\", \"no pii here\"]}",
            ),
        );
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).expect("utf8");
        assert!(body.contains("[PHONE]"), "{body}");
        assert!(!body.contains("555-0101"), "{body}");
        assert_eq!(state.metrics.redact_requests.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn no_inline_score_starts_once_scoring_is_closed() {
        let state = state(4);
        state.close_scoring();
        let resp = call(&state, &request("POST", "/v1/score", "{\"text\": \"x\"}"));
        assert_eq!(resp.status, 503);
        assert!(resp.close);
        assert_eq!(state.metrics.batches.load(Ordering::Relaxed), 0);
        assert_eq!(state.metrics.score_requests.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn an_inline_score_returns_its_record_for_after_the_write() {
        let mut state = state(4);
        let (tx, rx) = std::sync::mpsc::channel();
        let stats = Arc::clone(&state.journal_stats);
        Arc::get_mut(&mut state).expect("sole owner").journal = Some(Handoff::new(tx, stats));
        let (resp, record) = route(
            &state,
            &request("POST", "/v1/score", "{\"text\": \"report him\"}"),
        );
        assert_eq!(resp.status, 200);
        assert!(
            rx.try_recv().is_err(),
            "nothing is journaled before the write"
        );
        let record = record.expect("an inline 200 carries its record");
        assert_eq!((record.seq, record.generation), (1, 1));
        assert_eq!(record.texts, vec!["report him".to_string()]);
        assert_eq!(record.bits.len(), 1);
        assert_eq!(bits_field(&resp), record.bits[0].to_string());
        // Failures and other endpoints carry no record.
        let (resp, none) = route(&state, &request("POST", "/v1/score", "not json"));
        assert_eq!((resp.status, none), (400, None));
    }

    /// A seeded reference model of the scoring permits against routing.
    /// Busy workers take and release permits between requests. A single-doc
    /// request must go inline exactly when a permit is free, and otherwise
    /// enqueue or get a 429; a 2-doc request never goes inline, and is
    /// shed in degraded mode. An inline score, like an enqueue, clears the
    /// strikes, and it hands its permit back.
    #[test]
    fn single_doc_routing_follows_a_reference_model_of_the_permits() {
        for seed in 0..12u64 {
            let workers = 1 + (seed % 3) as usize;
            let queue_depth = (seed / 3 % 2) as usize;
            let state = state_with_config(ServeConfig {
                workers,
                queue_depth,
                ..ServeConfig::default()
            });
            let model = state.registry.current();
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut held: Vec<Permit<'_>> = Vec::new();
            let (mut strikes, mut inline, mut accepted, mut rejected) = (0u32, 0u64, 0u64, 0u64);
            for step in 0..60 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let roll = (rng >> 33) % 8;
                let what = format!("seed {seed} step {step}");
                match roll {
                    0 | 1 if held.len() < workers => held.push(state.permits.acquire()),
                    2 | 3 if !held.is_empty() => {
                        held.swap_remove((rng >> 40) as usize % held.len());
                    }
                    0..=3 => {}
                    _ => {
                        let single = roll < 6;
                        let body = if single {
                            "{\"text\": \"report him\"}"
                        } else {
                            "{\"texts\": [\"report him\", \"nice\"]}"
                        };
                        let free = held.len() < workers;
                        let degraded = strikes >= DEGRADE_AFTER;
                        let (resp, queued) =
                            call_as_worker(&state, &request("POST", "/v1/score", body));
                        if single && free {
                            assert_eq!((resp.status, queued), (200, false), "{what}");
                            let want = model.classifier.score("report him").to_bits();
                            assert_eq!(bits_field(&resp), want.to_string(), "{what}");
                            let back = state.permits.try_acquire();
                            assert!(back.is_some(), "{what}: the permit came back");
                            (inline, accepted, strikes) = (inline + 1, accepted + 1, 0);
                        } else if !single && degraded {
                            assert_eq!((resp.status, queued), (503, false), "{what}");
                        } else if queue_depth > 0 {
                            assert_eq!((resp.status, queued), (504, true), "{what}");
                            (accepted, strikes) = (accepted + 1, 0);
                        } else {
                            assert_eq!((resp.status, queued), (429, false), "{what}");
                            (rejected, strikes) = (rejected + 1, strikes + 1);
                        }
                    }
                }
                assert!(held.len() <= workers, "{what}");
                assert_eq!(
                    state.full_strikes.load(Ordering::Acquire),
                    strikes,
                    "{what}"
                );
                assert_eq!(
                    state.metrics.batches.load(Ordering::Relaxed),
                    inline,
                    "{what}: only inline passes score here"
                );
                let metrics = &state.metrics;
                assert_eq!(
                    metrics.score_requests.load(Ordering::Relaxed),
                    accepted,
                    "{what}"
                );
                assert_eq!(
                    metrics.rejected_overload.load(Ordering::Relaxed),
                    rejected,
                    "{what}"
                );
            }
            drop(held);
            let all = hold_every_permit(&state);
            assert!(state.permits.try_acquire().is_none(), "seed {seed}");
            drop(all);
        }
    }
}
