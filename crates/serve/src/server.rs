//! The server proper: acceptor, connection handlers, request routing,
//! and the graceful-drain state machine.
//!
//! Thread layout (DESIGN.md §13):
//!
//! ```text
//! acceptor ──spawns──▶ connection handlers (one thread per connection)
//!                         │  POST /v1/score → try_push ──▶ BoundedQueue
//!                         │                    (full → 429 Retry-After)
//!                         ▼                                  │ pop_batch
//!                      reply rendezvous ◀── engine workers ◀─┘
//!                                           (map_indexed, `threads` wide)
//! ```
//!
//! Drain protocol on [`ServerHandle::join`] (the SIGTERM path reaches it
//! through [`ServerHandle::run_until`]):
//! 1. the draining flag flips — `/healthz` turns 503, new `/v1/score`
//!    requests are refused with 503;
//! 2. the acceptor stops accepting and exits;
//! 3. connection handlers finish their in-flight request and close
//!    (idle keep-alive connections close on their next poll tick);
//! 4. the queue closes; workers drain what was already accepted and
//!    exit — accepted work is never dropped;
//! 5. [`ServerHandle::join`] collects every thread and reports totals.

use crate::admission::{AdmissionControl, Admit};
use crate::chaos::{self, ChaosRegistry};
use crate::http::{self, Received, RecvError, Request, Response};
use crate::journal::{self, JournalStats};
use crate::metrics::{Gauges, Metrics};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::{ModelRegistry, SwapError};
use crate::worker::{Reply, ScoreJob};
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
/// One successful enqueue resets the strike counter and exits the mode.
const DEGRADE_AFTER: u32 = 8;

/// Shared server state; one `Arc` across all threads.
pub struct ServerState {
    pub(crate) registry: ModelRegistry,
    pub(crate) admission: AdmissionControl,
    pub(crate) chaos: ChaosRegistry,
    pub(crate) journal_stats: Arc<JournalStats>,
    pub(crate) extractor: PiiExtractor,
    pub(crate) queue: BoundedQueue<ScoreJob>,
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
    /// consecutive enqueue attempts.
    pub(crate) fn degraded(&self) -> bool {
        self.full_strikes.load(Ordering::Acquire) >= DEGRADE_AFTER
    }
}

/// What the drain left behind; returned by [`ServerHandle::join`].
#[derive(Debug, Default, Clone, serde::Serialize)]
pub struct DrainReport {
    /// Requests answered over the server's lifetime.
    pub requests_total: u64,
    /// Documents scored by the engine workers.
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
        let chaos = ChaosRegistry::from_registry(config.failpoints.clone());
        // Open the journal before spawning anything: an unwritable path
        // is a boot failure, not a silent runtime drop. The chaos registry
        // is built first so the journal-open failpoint covers this open.
        let journal_writer = match &config.journal {
            None => None,
            Some(path) => Some(
                journal::spawn(path, Arc::clone(&journal_stats), &chaos)
                    .map_err(|e| ServeError::Config(format!("cannot open journal: {e}")))?,
            ),
        };
        let admission = AdmissionControl::new(config.tenants.clone(), Instant::now());
        let state = Arc::new(ServerState {
            registry,
            admission,
            chaos,
            journal_stats,
            extractor,
            queue: BoundedQueue::new(config.queue_depth),
            metrics: Metrics::new(),
            config,
            draining: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            full_strikes: AtomicU32::new(0),
        });

        // Each worker carries its own journal-sender clone; the spawner's
        // originals drop at the end of this scope, so the journal thread's
        // channel disconnects exactly when the last worker exits.
        let (journal_tx, journal_thread) = match journal_writer {
            Some((tx, handle)) => (Some(tx), Some(handle)),
            None => (None, None),
        };
        let workers: Vec<JoinHandle<()>> = (0..state.config.workers)
            .map(|i| {
                let state = Arc::clone(&state);
                let journal_tx = journal_tx.clone();
                std::thread::Builder::new()
                    .name(format!("incite-serve-worker-{i}"))
                    .spawn(move || crate::worker::run(&state, journal_tx))
            })
            .collect::<Result<_, _>>()
            .map_err(|source| ServeError::Bind {
                addr: addr.to_string(),
                source,
            })?;
        drop(journal_tx);

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
        // Only now close the queue: every job a handler managed to push
        // gets scored before the workers exit.
        self.state.queue.close();
        for worker in self.workers {
            if worker.join().is_err() {
                report.panicked_threads += 1;
            }
        }
        // Workers are gone, so every journal sender has dropped: the
        // journal thread drains its buffered records FIFO and exits. Only
        // then is the journal complete on disk.
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
        let (response, fatal) = match received {
            Ok(Received::Request(req)) => {
                let response = route(state, &req);
                let close = response.close || req.wants_close();
                (response, close)
            }
            Ok(Received::Closed) => return,
            Err(RecvError::Malformed(what)) => (
                Response::json(400, error_body(&format!("malformed request: {what}"))).closing(),
                true,
            ),
            Err(RecvError::TooLarge(what)) => (
                Response::json(413, error_body(&format!("{what} too large"))).closing(),
                true,
            ),
            Err(RecvError::Io(_)) => return,
        };
        state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        state
            .metrics
            .latency
            .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
        // Chaos sites on the write path: a reset drops the connection
        // with no response bytes; a short write emits a truncated prefix.
        // Both hit exactly one response and the server keeps serving.
        if state.chaos.trip(chaos::SOCKET_RESET) {
            return;
        }
        if state.chaos.trip(chaos::SHORT_WRITE) {
            let mut buf = Vec::new();
            if response.write_to(&mut buf).is_ok() {
                let _ = reader.get_mut().write_all(&buf[..buf.len() / 2]);
            }
            return;
        }
        if response.write_to(reader.get_mut()).is_err() {
            return;
        }
        if fatal {
            return;
        }
    }
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

fn route(state: &Arc<ServerState>, req: &Request) -> Response {
    match (req.method.as_str(), req.target.as_str()) {
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
        ("POST", "/v1/score") => score(state, req),
        ("POST", "/v1/redact") => redact_endpoint(state, req),
        ("POST", "/v1/admin/swap") => swap_endpoint(state, req),
        ("GET" | "POST", _) => Response::json(404, error_body("no such endpoint")),
        _ => Response::json(405, error_body("method not allowed")),
    }
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

fn score(state: &Arc<ServerState>, req: &Request) -> Response {
    if state.draining() {
        return Response::json(503, error_body("draining")).closing();
    }
    // Admission first: an unauthenticated or over-quota tenant must not
    // cost a parse of a multi-megabyte body.
    let tenant = match state
        .admission
        .admit(req.header("x-api-key"), Instant::now())
    {
        Admit::Granted { tenant } => tenant,
        Admit::RetryAfter { seconds, .. } => {
            return Response::json(429, error_body("tenant quota exhausted, retry later"))
                .with_header("retry-after", seconds.to_string());
        }
        Admit::UnknownKey => {
            return Response::json(401, error_body("unknown or missing x-api-key"));
        }
    };
    let texts = match parse_docs(req) {
        Ok(texts) => texts,
        Err(response) => return response,
    };
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
        seq: state.seq.fetch_add(1, Ordering::Relaxed) + 1,
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
        Ok(Reply::Scores { scores, model }) => {
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
        Ok(Reply::Expired) => Response::json(504, error_body("deadline exceeded in queue")),
        Ok(Reply::Failed(msg)) => Response::json(500, error_body(&msg)),
        Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
            state
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            Response::json(504, error_body("deadline exceeded"))
        }
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
        .swap_from_run_dir(Path::new(&run_dir), &state.chaos)
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
            chaos: ChaosRegistry::from_registry(config.failpoints.clone()),
            journal_stats: Arc::new(JournalStats::default()),
            extractor,
            queue: BoundedQueue::new(config.queue_depth),
            metrics: Metrics::new(),
            config,
            draining: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            full_strikes: AtomicU32::new(0),
        })
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
        let ok = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body, b"ok\n");
        state.draining.store(true, Ordering::Release);
        let draining = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(draining.status, 503);
        assert_eq!(draining.body, b"draining\n");
        assert!(draining.close, "draining health responses close the socket");
    }

    #[test]
    fn score_while_draining_is_refused_not_queued() {
        let state = state(4);
        state.draining.store(true, Ordering::Release);
        let resp = route(&state, &request("POST", "/v1/score", "{\"text\": \"x\"}"));
        assert_eq!(resp.status, 503);
        assert_eq!(state.queue.len(), 0);
    }

    #[test]
    fn full_queue_returns_429_with_retry_after() {
        // Zero capacity: every enqueue is a backpressure rejection, and no
        // worker is needed to prove it.
        let state = state(0);
        let resp = route(&state, &request("POST", "/v1/score", "{\"text\": \"x\"}"));
        assert_eq!(resp.status, 429);
        assert!(
            resp.extra_headers
                .iter()
                .any(|(k, v)| *k == "retry-after" && v == "1"),
            "429 must carry retry-after: {:?}",
            resp.extra_headers
        );
        assert_eq!(state.metrics.rejected_overload.load(Ordering::Relaxed), 1);
        let metrics = route(&state, &request("GET", "/metrics", ""));
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
            let resp = route(&state, &request("POST", "/v1/score", body));
            assert_eq!(resp.status, expect, "body {body:?}");
        }
        let many: Vec<String> = (0..=MAX_DOCS_PER_REQUEST)
            .map(|i| format!("\"d{i}\""))
            .collect();
        let body = format!("{{\"texts\": [{}]}}", many.join(","));
        let resp = route(&state, &request("POST", "/v1/score", &body));
        assert_eq!(resp.status, 413);

        assert_eq!(route(&state, &request("GET", "/nope", "")).status, 404);
        assert_eq!(
            route(&state, &request("DELETE", "/healthz", "")).status,
            405
        );
    }

    #[test]
    fn swap_endpoint_validates_and_maps_errors_to_static_bodies() {
        let state = state(4);
        // Body validation failures never reach the registry.
        for body in ["not json", "{}", "{\"run_dir\": \"\"}", "{\"run_dir\": 7}"] {
            let resp = route(&state, &request("POST", "/v1/admin/swap", body));
            assert_eq!(resp.status, 400, "body {body:?}");
        }
        // A missing run dir is a typed 422 whose body echoes nothing of
        // the requested path.
        let resp = route(
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
        let resp = route(
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
        assert_eq!(route(&state, &keyed(None)).status, 401);
        assert_eq!(route(&state, &keyed(Some("wrong"))).status, 401);
        assert_eq!(state.queue.len(), 0);
        // Drain the capacity-1 bucket, then the routed request is a 429
        // with a numeric retry-after — before parse, before the queue.
        assert!(matches!(
            state.admission.admit(Some("alpha-key"), Instant::now()),
            Admit::Granted { .. }
        ));
        let rejected = route(&state, &keyed(Some("alpha-key")));
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
        // Zero capacity: every push is Full, so strikes accumulate.
        let state = state(0);
        for _ in 0..DEGRADE_AFTER {
            let resp = route(&state, &request("POST", "/v1/score", "{\"text\": \"x\"}"));
            assert_eq!(resp.status, 429);
        }
        assert!(state.degraded());
        // Batch requests are shed with 503 *before* the queue...
        let resp = route(
            &state,
            &request("POST", "/v1/score", "{\"texts\": [\"a\", \"b\"]}"),
        );
        assert_eq!(resp.status, 503);
        assert_eq!(state.metrics.shed_degraded.load(Ordering::Relaxed), 1);
        // ...single-doc scoring still reaches the queue (and 429s on the
        // zero-capacity queue rather than being shed)...
        let resp = route(&state, &request("POST", "/v1/score", "{\"text\": \"x\"}"));
        assert_eq!(resp.status, 429);
        // ...and /healthz stays green.
        assert_eq!(route(&state, &request("GET", "/healthz", "")).status, 200);
        let metrics = route(&state, &request("GET", "/metrics", ""));
        let text = String::from_utf8(metrics.body).expect("utf8");
        assert!(text.contains("incite_serve_degraded 1"), "{text}");
        assert!(
            text.contains("incite_serve_shed_degraded_total 1"),
            "{text}"
        );
    }

    #[test]
    fn metrics_expose_generation_and_admission_series() {
        let state = state(4);
        let metrics = route(&state, &request("GET", "/metrics", ""));
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
        let resp = route(
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
}
