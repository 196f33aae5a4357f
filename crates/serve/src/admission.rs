//! Fair-share admission control: per-tenant token buckets in front of the
//! bounded queue.
//!
//! Every scoring request is attributed to a tenant via its `x-api-key`
//! header and charged one token from that tenant's bucket. Buckets refill
//! continuously at a configured per-second rate up to a burst capacity,
//! using integer milli-tokens so refill arithmetic is exact and the
//! rejection decision is deterministic for a given elapsed time. A drained
//! bucket yields a typed rejection carrying a `Retry-After` hint computed
//! from the actual token deficit — clients learn exactly when the next
//! token lands instead of guessing.
//!
//! With no tenants configured the controller runs in **open mode**: every
//! request is admitted and counted under the implicit `default` tenant, so
//! single-operator deployments (and every pre-v2 test and benchmark) see
//! no behavior change.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const MILLI: u64 = 1_000;
/// `Retry-After` hints are clamped to this many seconds.
const MAX_RETRY_AFTER_SECS: u64 = 3_600;

/// One tenant's quota, as configured (CLI `--tenants` file or
/// `ServeConfig::tenants`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TenantQuota {
    /// Tenant name as it appears in metrics; must be unique.
    pub name: String,
    /// The `x-api-key` value that selects this tenant; must be unique.
    pub key: String,
    /// Burst capacity in tokens (one token per request); must be >= 1.
    pub capacity: u32,
    /// Steady-state refill rate, tokens per second; must be >= 1.
    pub refill_per_sec: u32,
}

/// The admission decision for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admit {
    /// Charged one token; `tenant` is the attributed name for metrics and
    /// the journal.
    Granted { tenant: String },
    /// The tenant's bucket is empty; reject with `Retry-After: seconds`.
    RetryAfter { tenant: String, seconds: u64 },
    /// Tenants are configured but the presented key matches none (401).
    UnknownKey,
}

#[derive(Debug)]
struct Bucket {
    /// Current fill in milli-tokens.
    tokens_milli: u64,
    /// Last refill instant.
    last: Instant,
}

#[derive(Debug)]
struct Tenant {
    quota: TenantQuota,
    bucket: Mutex<Bucket>,
    admitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
}

/// Per-tenant counters as rendered into `/metrics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantCounters {
    pub name: String,
    pub admitted: u64,
    pub rejected: u64,
    pub shed: u64,
}

/// The admission controller; one per server, shared via `ServerState`.
#[derive(Debug)]
pub struct AdmissionControl {
    /// Tenants in declaration order (stable metrics ordering).
    tenants: Vec<Tenant>,
    /// `x-api-key` value -> index into `tenants`.
    by_key: BTreeMap<String, usize>,
    /// Open-mode counters for the implicit `default` tenant.
    open_admitted: AtomicU64,
    open_shed: AtomicU64,
}

impl AdmissionControl {
    /// Builds the controller. An empty quota list means open mode.
    /// Buckets start full, booted `now`.
    pub fn new(quotas: Vec<TenantQuota>, now: Instant) -> Self {
        let mut by_key = BTreeMap::new();
        let mut tenants = Vec::with_capacity(quotas.len());
        for quota in quotas {
            by_key.insert(quota.key.clone(), tenants.len());
            let full = u64::from(quota.capacity) * MILLI;
            tenants.push(Tenant {
                quota,
                bucket: Mutex::new(Bucket {
                    tokens_milli: full,
                    last: now,
                }),
                admitted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                shed: AtomicU64::new(0),
            });
        }
        AdmissionControl {
            tenants,
            by_key,
            open_admitted: AtomicU64::new(0),
            open_shed: AtomicU64::new(0),
        }
    }

    /// Decides admission for a request presenting `api_key`, charging one
    /// token on grant. Deterministic given `now`: the same key, bucket
    /// state, and instant always produce the same decision and hint.
    pub fn admit(&self, api_key: Option<&str>, now: Instant) -> Admit {
        if self.tenants.is_empty() {
            self.open_admitted.fetch_add(1, Ordering::Relaxed);
            return Admit::Granted {
                tenant: "default".to_string(),
            };
        }
        let Some(&idx) = api_key.and_then(|k| self.by_key.get(k)) else {
            return Admit::UnknownKey;
        };
        let tenant = &self.tenants[idx];
        let capacity_milli = u64::from(tenant.quota.capacity) * MILLI;
        let refill_milli_per_sec = u64::from(tenant.quota.refill_per_sec) * MILLI;
        let mut bucket = match tenant.bucket.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Refill for the elapsed interval, saturating at capacity. Pure
        // integer arithmetic under the lock; no I/O, no waiting (INC009).
        let elapsed_ms = now
            .duration_since(bucket.last)
            .as_millis()
            .min(u128::from(u64::MAX)) as u64;
        let refill = (elapsed_ms / MILLI) * refill_milli_per_sec
            + (elapsed_ms % MILLI) * refill_milli_per_sec / MILLI;
        bucket.tokens_milli = bucket
            .tokens_milli
            .saturating_add(refill)
            .min(capacity_milli);
        bucket.last = now;
        if bucket.tokens_milli >= MILLI {
            bucket.tokens_milli -= MILLI;
            drop(bucket);
            tenant.admitted.fetch_add(1, Ordering::Relaxed);
            return Admit::Granted {
                tenant: tenant.quota.name.clone(),
            };
        }
        // Hint: whole seconds until the deficit refills, at least 1.
        let deficit_milli = MILLI - bucket.tokens_milli;
        drop(bucket);
        let seconds = deficit_milli
            .div_ceil(refill_milli_per_sec.max(1))
            .clamp(1, MAX_RETRY_AFTER_SECS);
        tenant.rejected.fetch_add(1, Ordering::Relaxed);
        Admit::RetryAfter {
            tenant: tenant.quota.name.clone(),
            seconds,
        }
    }

    /// Records a degraded-mode shed against `tenant` (charged tokens are
    /// not refunded; shedding is a server-side failure, not a quota event).
    pub fn record_shed(&self, tenant: &str) {
        if let Some(t) = self.tenants.iter().find(|t| t.quota.name == tenant) {
            t.shed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.open_shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot for `/metrics`, in declaration order; open mode
    /// reports the implicit `default` tenant.
    pub fn snapshot(&self) -> Vec<TenantCounters> {
        if self.tenants.is_empty() {
            return vec![TenantCounters {
                name: "default".to_string(),
                admitted: self.open_admitted.load(Ordering::Relaxed),
                rejected: 0,
                shed: self.open_shed.load(Ordering::Relaxed),
            }];
        }
        let mut out = Vec::with_capacity(self.tenants.len());
        for t in &self.tenants {
            out.push(TenantCounters {
                name: t.quota.name.clone(),
                admitted: t.admitted.load(Ordering::Relaxed),
                rejected: t.rejected.load(Ordering::Relaxed),
                shed: t.shed.load(Ordering::Relaxed),
            });
        }
        out
    }
}

/// Validates a tenant quota list: unique names, unique keys, non-zero
/// capacity and refill, non-empty name/key, and no `default` collision.
pub fn validate_quotas(quotas: &[TenantQuota]) -> Result<(), &'static str> {
    let mut names = BTreeMap::new();
    let mut keys = BTreeMap::new();
    for (i, q) in quotas.iter().enumerate() {
        if q.name.is_empty() {
            return Err("tenant name must be non-empty");
        }
        if q.name == "default" {
            return Err("tenant name `default` is reserved for open mode");
        }
        if q.key.is_empty() {
            return Err("tenant key must be non-empty");
        }
        if q.capacity == 0 {
            return Err("tenant capacity must be >= 1");
        }
        if q.refill_per_sec == 0 {
            return Err("tenant refill_per_sec must be >= 1");
        }
        if names.insert(q.name.clone(), i).is_some() {
            return Err("tenant names must be unique");
        }
        if keys.insert(q.key.clone(), i).is_some() {
            return Err("tenant keys must be unique");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn quotas() -> Vec<TenantQuota> {
        vec![
            TenantQuota {
                name: "alpha".to_string(),
                key: "alpha-key".to_string(),
                capacity: 2,
                refill_per_sec: 1,
            },
            TenantQuota {
                name: "beta".to_string(),
                key: "beta-key".to_string(),
                capacity: 5,
                refill_per_sec: 2,
            },
        ]
    }

    #[test]
    fn open_mode_admits_everything_under_default() {
        let ac = AdmissionControl::new(Vec::new(), Instant::now());
        let now = Instant::now();
        for _ in 0..100 {
            assert_eq!(
                ac.admit(None, now),
                Admit::Granted {
                    tenant: "default".to_string()
                }
            );
        }
        let snap = ac.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "default");
        assert_eq!(snap[0].admitted, 100);
    }

    #[test]
    fn bucket_drains_then_rejects_with_exact_hint() {
        let boot = Instant::now();
        let ac = AdmissionControl::new(quotas(), boot);
        // Capacity 2: two grants, then a rejection at the same instant.
        for _ in 0..2 {
            assert!(matches!(
                ac.admit(Some("alpha-key"), boot),
                Admit::Granted { .. }
            ));
        }
        match ac.admit(Some("alpha-key"), boot) {
            Admit::RetryAfter { tenant, seconds } => {
                assert_eq!(tenant, "alpha");
                // Fully drained at refill 1/s: the next token is 1s out.
                assert_eq!(seconds, 1);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Beta's bucket is independent.
        assert!(matches!(
            ac.admit(Some("beta-key"), boot),
            Admit::Granted { .. }
        ));
        let snap = ac.snapshot();
        assert_eq!(snap[0].admitted, 2);
        assert_eq!(snap[0].rejected, 1);
        assert_eq!(snap[1].admitted, 1);
    }

    #[test]
    fn refill_restores_tokens_deterministically() {
        let boot = Instant::now();
        let ac = AdmissionControl::new(quotas(), boot);
        for _ in 0..2 {
            assert!(matches!(
                ac.admit(Some("alpha-key"), boot),
                Admit::Granted { .. }
            ));
        }
        assert!(matches!(
            ac.admit(Some("alpha-key"), boot),
            Admit::RetryAfter { .. }
        ));
        // 1500ms later at 1 token/s: 1.5 tokens refilled -> one grant,
        // then a 500ms deficit rounds up to a 1s hint.
        let later = boot + Duration::from_millis(1_500);
        assert!(matches!(
            ac.admit(Some("alpha-key"), later),
            Admit::Granted { .. }
        ));
        match ac.admit(Some("alpha-key"), later) {
            Admit::RetryAfter { seconds, .. } => assert_eq!(seconds, 1),
            other => panic!("expected rejection, got {other:?}"),
        }
        // Refill saturates at capacity: after a long idle spell the burst
        // is capacity, not elapsed * rate.
        let much_later = boot + Duration::from_secs(3_600);
        let mut grants = 0;
        while matches!(
            ac.admit(Some("alpha-key"), much_later),
            Admit::Granted { .. }
        ) {
            grants += 1;
            assert!(grants <= 2, "burst exceeded capacity");
        }
        assert_eq!(grants, 2);
    }

    #[test]
    fn unknown_or_missing_key_is_rejected_when_enforcing() {
        let boot = Instant::now();
        let ac = AdmissionControl::new(quotas(), boot);
        assert_eq!(ac.admit(None, boot), Admit::UnknownKey);
        assert_eq!(ac.admit(Some("wrong"), boot), Admit::UnknownKey);
    }

    #[test]
    fn shed_counts_against_the_named_tenant() {
        let ac = AdmissionControl::new(quotas(), Instant::now());
        ac.record_shed("beta");
        ac.record_shed("beta");
        let snap = ac.snapshot();
        assert_eq!(snap[1].shed, 2);
        assert_eq!(snap[0].shed, 0);
    }

    #[test]
    fn quota_validation_catches_every_misconfiguration() {
        assert!(validate_quotas(&quotas()).is_ok());
        assert!(validate_quotas(&[]).is_ok());
        let mut dup_name = quotas();
        dup_name[1].name = "alpha".to_string();
        assert!(validate_quotas(&dup_name).is_err());
        let mut dup_key = quotas();
        dup_key[1].key = "alpha-key".to_string();
        assert!(validate_quotas(&dup_key).is_err());
        let mut zero_cap = quotas();
        zero_cap[0].capacity = 0;
        assert!(validate_quotas(&zero_cap).is_err());
        let mut zero_refill = quotas();
        zero_refill[0].refill_per_sec = 0;
        assert!(validate_quotas(&zero_refill).is_err());
        let mut reserved = quotas();
        reserved[0].name = "default".to_string();
        assert!(validate_quotas(&reserved).is_err());
        let mut empty_key = quotas();
        empty_key[0].key = String::new();
        assert!(validate_quotas(&empty_key).is_err());
    }
}
