//! The inference engine: the scoring permits, the one scoring pass both
//! paths share, and the worker loop that drains the bounded queue in
//! micro-batches.
//!
//! **Permits.** [`Permits`] is a counting semaphore of `workers` permits.
//! A worker holds one while it scores a batch; a connection thread holds
//! one while it scores a single-doc request inline. So inline and batched
//! scoring passes together never exceed `workers`, and a single-doc
//! request that finds no permit free takes the queue. A permit released
//! while a worker waits goes straight to that worker, so a stream of
//! inline scores cannot starve the queue.
//!
//! Batching happens naturally under load: while a worker scores, new
//! jobs pile up in the queue, and the next `pop_batch` takes them all
//! (up to `max_batch`) in one featurize+spmv pass. Each job's texts keep
//! their queue position inside the flattened batch, and the executor
//! writes slot `i` from text `i` alone, so per-text scores are
//! bit-identical to `classifier.score(text)` no matter how requests are
//! batched, whether they are scored inline, or how many threads score
//! them.
//!
//! **Generation discipline:** each scoring pass snapshots the model
//! registry exactly once and scores every text in it against that
//! snapshot. A hot swap that lands mid-pass affects only *later* passes,
//! so a response can never mix generations, and the generation tag it
//! carries is exact. The snapshot (with its verified model hash) also
//! stamps the journal record, which is what lets `incite replay`
//! re-score against the right weights.

use crate::chaos;
use crate::journal::JournalRecord;
use crate::queue::PopBatch;
use crate::registry::ModelGeneration;
use crate::server::ServerState;
use incite_core::ScoringEngine;
use std::sync::atomic::Ordering;
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One `/v1/score` request in the queue.
pub(crate) struct ScoreJob {
    /// The documents of this request (1 for single-doc, n for batch).
    pub texts: Vec<String>,
    /// When the job entered the queue; deadlines count from here.
    pub enqueued: Instant,
    /// The per-request deadline.
    pub deadline: Duration,
    /// Server-assigned sequence number (journal identity).
    pub seq: u64,
    /// Tenant the request was admitted under.
    pub tenant: String,
    /// Rendezvous back to the connection handler (capacity 1).
    pub reply: SyncSender<Reply>,
}

/// What the engine sends back for a job.
#[derive(Clone)]
pub(crate) enum Reply {
    /// One score per input text, in order, plus the generation snapshot
    /// every text was scored against.
    Scores {
        scores: Vec<f32>,
        model: Arc<ModelGeneration>,
    },
    /// The job sat in the queue past its deadline; it was not scored.
    Expired,
    /// The scoring pass failed (a worker panic surfaced as an error).
    Failed(String),
}

/// How long an idle worker waits before re-checking the queue.
const POLL: Duration = Duration::from_millis(50);

struct PermitState {
    free: usize,
    /// Workers blocked in [`Permits::acquire`]; a release wakes one only
    /// when one waits, so the common release makes no syscall.
    waiting: usize,
    /// Released permits handed to waiting workers, not yet taken.
    handed: usize,
    /// Set by [`Permits::close`]: no inline score starts after it.
    closed: bool,
}

/// The scoring permits: a counting semaphore sized by `workers`.
pub(crate) struct Permits {
    state: Mutex<PermitState>,
    freed: Condvar,
}

/// A held permit; dropping it releases it.
pub(crate) struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        let wake = state.waiting > state.handed;
        if wake {
            state.handed += 1;
        } else {
            state.free += 1;
        }
        drop(state);
        if wake {
            self.0.freed.notify_one();
        }
    }
}

impl Permits {
    pub(crate) fn new(count: usize) -> Self {
        Permits {
            state: Mutex::new(PermitState {
                free: count,
                waiting: 0,
                handed: 0,
                closed: false,
            }),
            freed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PermitState> {
        // The guarded counts change only in panic-free sections.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// A permit for an inline score, if one is free and [`Self::close`]
    /// has not run. Never blocks.
    pub(crate) fn try_acquire(&self) -> Option<Permit<'_>> {
        let mut state = self.lock();
        if state.closed || state.free == 0 {
            return None;
        }
        state.free -= 1;
        Some(Permit(self))
    }

    /// A permit for a worker's batch, waiting for one to be handed over
    /// if none is free. Works after [`Self::close`] too: workers drain the
    /// closed queue.
    pub(crate) fn acquire(&self) -> Permit<'_> {
        let mut state = self.lock();
        if state.free > 0 {
            state.free -= 1;
            return Permit(self);
        }
        state.waiting += 1;
        while state.handed == 0 {
            state = match self.freed.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        state.handed -= 1;
        state.waiting -= 1;
        Permit(self)
    }

    /// Refuses every later [`Self::try_acquire`]; the drain calls it just
    /// before it closes the queue.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
    }
}

/// One scoring pass over `texts`, run while `permit` is held and released
/// as soon as the scores exist: both the worker's batches and the inline
/// single-doc path come here. The texts score against one registry
/// snapshot, which [`Reply::Scores`] carries with the scores.
pub(crate) fn score_pass(state: &ServerState, texts: &[&str], permit: Permit<'_>) -> Reply {
    if state.chaos.trip(chaos::WORKER_FAULT) {
        // The injected equivalent of an engine panic: the pass fails
        // typed (500), nothing is scored or journaled, and the caller
        // survives to serve the next request.
        state.metrics.worker_errors.fetch_add(1, Ordering::Relaxed);
        return Reply::Failed("injected worker fault".to_string());
    }
    // One registry snapshot for the whole pass: every text below scores
    // against these weights, whatever a concurrent swap does.
    let model = state.registry.current();
    state.metrics.observe_batch(texts.len());
    let scored = ScoringEngine::score_texts(&model.classifier, texts, state.config.threads);
    drop(permit);
    match scored {
        Ok(scores) => Reply::Scores { scores, model },
        Err(e) => {
            state.metrics.worker_errors.fetch_add(1, Ordering::Relaxed);
            // The error-kind descriptor is static by construction; the
            // full Display (which embeds the panic payload) must not
            // reach a response body (INC013).
            Reply::Failed(e.kind().to_string())
        }
    }
}

/// The journal record of one scored request.
pub(crate) fn journal_record(
    seq: u64,
    tenant: String,
    texts: Vec<String>,
    scores: &[f32],
    model: &ModelGeneration,
) -> JournalRecord {
    JournalRecord {
        seq,
        generation: model.generation,
        model_hash: model.model_hash.clone(),
        run_dir: model.run_dir.clone(),
        tenant,
        texts,
        bits: scores.iter().map(|s| s.to_bits()).collect(),
    }
}

/// The worker loop: runs until the queue is closed and drained.
pub(crate) fn run(state: &ServerState) {
    loop {
        match state.queue.pop_batch(state.config.max_batch, POLL) {
            PopBatch::Idle => continue,
            PopBatch::Drained => break,
            PopBatch::Items(jobs) => score_batch(state, jobs),
        }
    }
}

fn score_batch(state: &ServerState, jobs: Vec<ScoreJob>) {
    // Deadline triage before paying for featurization: a job that sat in
    // the queue past its deadline gets 504, not a late score.
    let mut live = Vec::with_capacity(jobs.len());
    for job in jobs {
        if job.enqueued.elapsed() > job.deadline {
            state
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.try_send(Reply::Expired);
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }

    let texts: Vec<&str> = live
        .iter()
        .flat_map(|job| job.texts.iter().map(String::as_str))
        .collect();
    match score_pass(state, &texts, state.permits.acquire()) {
        Reply::Scores { scores, model } => {
            let mut cursor = 0;
            for job in live {
                let end = cursor + job.texts.len();
                let job_scores = &scores[cursor..end];
                // A handler that gave up waiting has dropped its receiver;
                // ignore the send failure and move on.
                let _ = job.reply.try_send(Reply::Scores {
                    scores: job_scores.to_vec(),
                    model: Arc::clone(&model),
                });
                if let Some(journal) = &state.journal {
                    journal.send(journal_record(
                        job.seq, job.tenant, job.texts, job_scores, &model,
                    ));
                }
                cursor = end;
            }
        }
        failed => {
            for job in live {
                let _ = job.reply.try_send(failed.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn a_permit_released_while_a_worker_waits_goes_to_that_worker() {
        let permits = Permits::new(1);
        let inline = permits.try_acquire().expect("the one permit");
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let permits = &permits;
            let worker = scope.spawn(move || {
                let permit = permits.acquire();
                let _ = done_rx.recv();
                drop(permit);
            });
            while permits.lock().waiting == 0 {
                std::thread::yield_now();
            }
            drop(inline);
            // Handed over, not freed: an inline request must take the queue.
            assert!(permits.try_acquire().is_none());
            drop(done_tx);
            worker.join().expect("worker thread");
        });
        assert!(permits.try_acquire().is_some(), "the worker released it");
    }

    #[test]
    fn try_acquire_grants_exactly_the_free_permits_until_close() {
        let permits = Permits::new(2);
        let a = permits.try_acquire().expect("first permit");
        let b = permits.try_acquire().expect("second permit");
        assert!(permits.try_acquire().is_none(), "both permits are held");
        drop(a);
        let c = permits.try_acquire().expect("a released permit is free");
        drop((b, c));
        permits.close();
        assert!(
            permits.try_acquire().is_none(),
            "no inline score after close"
        );
        // Workers still drain the closed queue.
        drop(permits.acquire());
    }

    /// Seeded interleavings of inline passes (`try_acquire`, skipped when
    /// no permit is free) and worker passes (`acquire`, which waits):
    /// passes in flight never exceed the permit count, and every permit
    /// comes back.
    #[test]
    fn passes_in_flight_never_exceed_the_permits() {
        for (seed, workers) in [(1u64, 1usize), (2, 2), (3, 3)] {
            let permits = Permits::new(workers);
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let pass = || {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                in_flight.fetch_sub(1, Ordering::SeqCst);
            };
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let (permits, pass) = (&permits, &pass);
                    scope.spawn(move || {
                        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ t;
                        for _ in 0..2_000 {
                            rng = rng
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            if (rng >> 33) % 3 == 0 {
                                let _permit = permits.acquire();
                                pass();
                            } else if let Some(_permit) = permits.try_acquire() {
                                pass();
                            }
                        }
                    });
                }
            });
            assert!(
                peak.load(Ordering::SeqCst) <= workers,
                "seed {seed}: {} passes in flight with {workers} permits",
                peak.load(Ordering::SeqCst)
            );
            let all: Vec<Permit<'_>> = (0..workers).map(|_| permits.acquire()).collect();
            assert!(permits.try_acquire().is_none(), "seed {seed}");
            drop(all);
        }
    }
}
