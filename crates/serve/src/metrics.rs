//! Live service metrics: atomic counters plus a log₂-bucket latency
//! histogram, rendered in the Prometheus text exposition format on
//! `GET /metrics`.
//!
//! Everything is lock-free (`AtomicU64` with relaxed ordering): recording
//! a request costs a handful of atomic increments, and a scrape reads a
//! consistent-enough snapshot without stalling the request path. The
//! histogram trades precision for footprint — bucket *i* counts latencies
//! in `[2^i, 2^(i+1))` microseconds, so quantiles are upper bounds within
//! a factor of two — which is plenty to spot a queue backing up.
//! perfbench's serve workloads measure exact client-side percentiles
//! separately.

use crate::admission::TenantCounters;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: `2^39` µs ≈ 6.4 days caps the top bucket.
const BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram over microseconds.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    pub fn record(&self, us: u64) {
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing quantile `q` (0..=1), in µs.
    /// Returns 0 with no observations.
    fn quantile_upper_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << idx.min(63);
            }
        }
        1u64 << (BUCKETS - 1)
    }

    fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }
}

/// Point-in-time server state rendered alongside the counters. The
/// server assembles one per scrape; nothing here is shared or atomic.
#[derive(Debug, Default)]
pub struct Gauges {
    pub queue_depth: usize,
    pub draining: bool,
    /// Degraded mode: batch requests are being shed to protect liveness.
    pub degraded: bool,
    /// Active model generation (1 = boot model).
    pub model_generation: u64,
    /// Successful hot swaps over the server lifetime.
    pub swaps_total: u64,
    /// Refused or aborted swaps (load failure, injected fault).
    pub swap_failures: u64,
    /// Records durably appended to the request journal.
    pub journal_records: u64,
    /// Journal append failures (records dropped, scoring unaffected).
    pub journal_errors: u64,
    /// Per-tenant admission counters, declaration order.
    pub tenants: Vec<TenantCounters>,
}

/// All service counters; shared behind one `Arc` by every thread.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests answered, any endpoint and status.
    pub requests_total: AtomicU64,
    /// `POST /v1/score` requests accepted for scoring.
    pub score_requests: AtomicU64,
    /// `POST /v1/redact` requests served.
    pub redact_requests: AtomicU64,
    /// Requests rejected with 429 because the queue was full.
    pub rejected_overload: AtomicU64,
    /// Jobs expired past their deadline (504).
    pub deadline_expired: AtomicU64,
    /// Batches that failed in the scoring engine (500).
    pub worker_errors: AtomicU64,
    /// Batch requests shed in degraded mode (503 before the queue).
    pub shed_degraded: AtomicU64,
    /// Documents scored, inline and by the engine workers.
    pub documents_scored: AtomicU64,
    /// Scoring passes executed: worker micro-batches, and inline scores
    /// as batches of one.
    pub batches: AtomicU64,
    /// Largest micro-batch seen (documents).
    pub max_batch_docs: AtomicU64,
    /// End-to-end request latency (parse start → response written).
    pub(crate) latency: LatencyHistogram,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    pub fn observe_batch(&self, docs: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.documents_scored
            .fetch_add(docs as u64, Ordering::Relaxed);
        self.max_batch_docs
            .fetch_max(docs as u64, Ordering::Relaxed);
    }

    /// Renders the text exposition; `gauges` carries the point-in-time
    /// state owned by the server (queue, drain/degrade flags, model
    /// registry, journal, per-tenant admission).
    pub fn render(&self, gauges: &Gauges) -> String {
        let mut s = String::with_capacity(2048);
        let counter = |s: &mut String, name: &str, v: u64| {
            let _ = writeln!(s, "incite_serve_{name} {v}");
        };
        counter(
            &mut s,
            "requests_total",
            self.requests_total.load(Ordering::Relaxed),
        );
        counter(
            &mut s,
            "score_requests_total",
            self.score_requests.load(Ordering::Relaxed),
        );
        counter(
            &mut s,
            "redact_requests_total",
            self.redact_requests.load(Ordering::Relaxed),
        );
        counter(
            &mut s,
            "rejected_overload_total",
            self.rejected_overload.load(Ordering::Relaxed),
        );
        counter(
            &mut s,
            "deadline_expired_total",
            self.deadline_expired.load(Ordering::Relaxed),
        );
        counter(
            &mut s,
            "worker_errors_total",
            self.worker_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut s,
            "shed_degraded_total",
            self.shed_degraded.load(Ordering::Relaxed),
        );
        counter(
            &mut s,
            "documents_scored_total",
            self.documents_scored.load(Ordering::Relaxed),
        );
        counter(
            &mut s,
            "batches_total",
            self.batches.load(Ordering::Relaxed),
        );
        counter(
            &mut s,
            "batch_docs_max",
            self.max_batch_docs.load(Ordering::Relaxed),
        );
        counter(&mut s, "queue_depth", gauges.queue_depth as u64);
        counter(&mut s, "draining", u64::from(gauges.draining));
        counter(&mut s, "degraded", u64::from(gauges.degraded));
        counter(&mut s, "model_generation", gauges.model_generation);
        counter(&mut s, "swaps_total", gauges.swaps_total);
        counter(&mut s, "swap_failures_total", gauges.swap_failures);
        counter(&mut s, "journal_records_total", gauges.journal_records);
        counter(&mut s, "journal_errors_total", gauges.journal_errors);
        for t in &gauges.tenants {
            let _ = writeln!(
                s,
                "incite_serve_tenant_admitted_total{{tenant=\"{}\"}} {}",
                t.name, t.admitted
            );
            let _ = writeln!(
                s,
                "incite_serve_tenant_rejected_total{{tenant=\"{}\"}} {}",
                t.name, t.rejected
            );
            let _ = writeln!(
                s,
                "incite_serve_tenant_shed_total{{tenant=\"{}\"}} {}",
                t.name, t.shed
            );
        }
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let _ = writeln!(
                s,
                "incite_serve_latency_seconds{{quantile=\"{label}\"}} {:.6}",
                self.latency.quantile_upper_us(q) as f64 / 1e6
            );
        }
        let _ = writeln!(
            s,
            "incite_serve_latency_seconds_sum {:.6}",
            self.latency.sum_us() as f64 / 1e6
        );
        counter(&mut s, "latency_seconds_count", self.latency.count());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_log2_upper_bounds() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_upper_us(0.5), 0, "empty histogram");
        // 90 fast requests (~100us) and 10 slow ones (~50ms).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(50_000);
        }
        let p50 = h.quantile_upper_us(0.5);
        assert!((100..=256).contains(&p50), "p50 bound {p50}");
        let p99 = h.quantile_upper_us(0.99);
        assert!((50_000..=131_072).contains(&p99), "p99 bound {p99}");
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum_us(), 90 * 100 + 10 * 50_000);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_upper_us(0.01) >= 1);
        assert!(h.quantile_upper_us(1.0) >= 1u64 << 39);
    }

    #[test]
    fn render_contains_every_series() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.rejected_overload.fetch_add(1, Ordering::Relaxed);
        m.shed_degraded.fetch_add(2, Ordering::Relaxed);
        m.observe_batch(5);
        m.latency.record(250);
        let gauges = Gauges {
            queue_depth: 2,
            draining: true,
            degraded: true,
            model_generation: 4,
            swaps_total: 3,
            swap_failures: 1,
            journal_records: 7,
            journal_errors: 0,
            tenants: vec![TenantCounters {
                name: "alpha".to_string(),
                admitted: 9,
                rejected: 2,
                shed: 1,
            }],
        };
        let text = m.render(&gauges);
        for series in [
            "incite_serve_requests_total 3",
            "incite_serve_rejected_overload_total 1",
            "incite_serve_shed_degraded_total 2",
            "incite_serve_documents_scored_total 5",
            "incite_serve_batches_total 1",
            "incite_serve_batch_docs_max 5",
            "incite_serve_queue_depth 2",
            "incite_serve_draining 1",
            "incite_serve_degraded 1",
            "incite_serve_model_generation 4",
            "incite_serve_swaps_total 3",
            "incite_serve_swap_failures_total 1",
            "incite_serve_journal_records_total 7",
            "incite_serve_journal_errors_total 0",
            "incite_serve_tenant_admitted_total{tenant=\"alpha\"} 9",
            "incite_serve_tenant_rejected_total{tenant=\"alpha\"} 2",
            "incite_serve_tenant_shed_total{tenant=\"alpha\"} 1",
            "incite_serve_latency_seconds{quantile=\"0.99\"}",
            "incite_serve_latency_seconds_count 1",
        ] {
            assert!(text.contains(series), "missing {series:?} in:\n{text}");
        }
    }
}
