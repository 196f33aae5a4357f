//! # incite-serve
//!
//! The online inference service for CTH/dox scoring: a dependency-free
//! (std-only) threaded HTTP/1.1 server that loads a classifier from a
//! checkpointed run directory and scores documents as platforms receive
//! them — the deployment shape the paper's pipeline feeds in production
//! (DESIGN.md §13).
//!
//! Endpoints:
//!
//! * `POST /v1/score` — score one document (`{"text": "..."}`) or a batch
//!   (`{"texts": [...]}`). The response carries both decimal scores and
//!   the raw `f32` bit patterns, so byte-identity with the offline
//!   [`incite_core::ScoringEngine`] is checkable over the wire.
//! * `POST /v1/redact` — PII redaction via `incite-pii`, same body shape.
//! * `GET /healthz` — `200 ok` while serving, `503 draining` during
//!   shutdown.
//! * `GET /metrics` — text-format counters and latency quantiles.
//!
//! Architecture: an acceptor thread hands each connection to a handler
//! thread. Scoring is capped by `workers` permits, a counting semaphore:
//! a single-doc request that finds a permit free is scored on its
//! handler thread, which releases the permit before it writes the
//! response and hands the journal record over after the write. Every
//! other request is pushed as a `ScoreJob` into a **bounded** queue
//! ([`queue::BoundedQueue`]); engine workers drain it in micro-batches,
//! each holding a permit while it scores on [`incite_core::parallel`]'s
//! panic-free executor. A full queue is explicit backpressure — the
//! client gets `429` with `Retry-After` instead of an unbounded buffer.
//! One sender in the server state feeds the journal thread. SIGTERM /
//! ctrl-c ([`signal`]) flips `/healthz` to draining, stops the acceptor,
//! lets in-flight requests finish, closes the permits to inline scoring
//! and then the queue, drains the queue, and joins the workers and the
//! journal thread.
//!
//! Determinism contract: scoring a text is a pure function of the loaded
//! model, and the executor writes slot `i` from input `i` alone, so served
//! scores are byte-identical to offline [`incite_core::ScoringEngine`]
//! output at any `--threads` value and under any request interleaving.

// INC001 (DESIGN.md §10): library code returns typed errors, never panics.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]

pub mod admission;
pub mod chaos;
pub mod client;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod queue;
pub mod registry;
pub mod server;
pub mod signal;
mod worker;

pub use server::{DrainReport, Server, ServerHandle};

use admission::{validate_quotas, TenantQuota};
use incite_core::FailpointRegistry;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Errors from booting or running the server.
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound.
    Bind {
        addr: String,
        source: std::io::Error,
    },
    /// The PII extractor (for `/v1/redact`) failed to compile.
    Pii(String),
    /// A configuration value is unusable.
    Config(String),
    /// The boot model could not be loaded from its run directory.
    Model(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::Pii(detail) => write!(f, "PII extractor failed to build: {detail}"),
            ServeError::Config(detail) => write!(f, "invalid serve configuration: {detail}"),
            ServeError::Model(detail) => write!(f, "cannot load serving model: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Server configuration; every field has a CLI flag or a safe default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Intra-batch scoring parallelism (threads per `map_indexed` pass).
    pub threads: usize,
    /// Bounded queue capacity; a full queue rejects with 429. Single-doc
    /// requests that find a scoring permit free skip the queue.
    pub queue_depth: usize,
    /// Maximum queued requests drained into one micro-batch (each brings
    /// all of its documents).
    pub max_batch: usize,
    /// Engine worker loops draining the queue, and the number of scoring
    /// permits: inline single-doc scores and worker batches together
    /// never run more than `workers` scoring passes at once.
    pub workers: usize,
    /// Per-request deadline: jobs older than this when a worker picks
    /// them up are expired with 504 instead of scored.
    pub deadline: Duration,
    /// Tenant quotas for fair-share admission control. Empty (the
    /// default) means open mode: everything is admitted as `default`.
    pub tenants: Vec<TenantQuota>,
    /// Request journal path; `None` (the default) disables journaling.
    pub journal: Option<PathBuf>,
    /// Per-connection I/O deadline: a request whose head or body is still
    /// dribbling in past this window is cut off with 504 (anti-slow-loris).
    pub io_window: Duration,
    /// Chaos failpoints to arm at the serve sites; inert without the
    /// `failpoints` cargo feature.
    pub failpoints: FailpointRegistry,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            queue_depth: 256,
            max_batch: 64,
            workers: 1,
            deadline: Duration::from_secs(10),
            tenants: Vec::new(),
            journal: None,
            io_window: Duration::from_secs(10),
            failpoints: FailpointRegistry::new(),
        }
    }
}

impl ServeConfig {
    /// Validates field ranges that would otherwise dead-lock the engine
    /// (`max_batch == 0`, `workers == 0`). A `queue_depth` of 0 is legal:
    /// it makes every enqueue a backpressure rejection, which the tests
    /// use to pin the 429 path.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::Config("max_batch must be at least 1".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::Config("workers must be at least 1".into()));
        }
        if self.deadline.is_zero() {
            return Err(ServeError::Config("deadline must be non-zero".into()));
        }
        if self.io_window.is_zero() {
            return Err(ServeError::Config("io_window must be non-zero".into()));
        }
        validate_quotas(&self.tenants).map_err(|detail| ServeError::Config(detail.to_string()))?;
        Ok(())
    }
}
