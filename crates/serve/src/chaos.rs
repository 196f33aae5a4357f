//! Serve-side chaos sites: deterministic fault injection on the request
//! path, reusing [`incite_core::FailpointRegistry`].
//!
//! The pipeline's failpoint sweep proves crash recovery; this module
//! proves *graceful degradation*: with a site armed the server must
//! return a typed error (or drop the one affected connection) and keep
//! serving byte-identical scores afterwards — never hang, never corrupt.
//!
//! Sites are **one-shot**: `ChaosRegistry::trip` consumes the armed
//! site, so a single server lifetime can demonstrate both the fault and
//! the recovery. Without the `failpoints` cargo feature the registry is a
//! unit struct and `trip` is a constant `false` the optimizer deletes.

#[cfg(feature = "failpoints")]
use incite_core::FailpointRegistry;
#[cfg(feature = "failpoints")]
use std::sync::Mutex;

/// Connection is dropped after routing, before any response byte.
pub const SOCKET_RESET: &str = "serve-socket-reset";
/// Only a truncated prefix of the response reaches the wire.
pub const SHORT_WRITE: &str = "serve-short-write";
/// A scoring pass (a worker's batch or an inline single-doc score) fails
/// as if the engine had panicked.
pub const WORKER_FAULT: &str = "serve-worker-fault";
/// A model swap aborts after loading, before the generation flips.
pub const MID_SWAP: &str = "serve-mid-swap";
/// Opening the request journal fails at boot, as if the path were
/// unwritable — the server must refuse to start, not drop records later.
pub const JOURNAL_OPEN: &str = "serve-journal-open";

/// One-shot wrapper over the core registry for the serve request path.
#[derive(Debug, Default)]
pub struct ChaosRegistry {
    #[cfg(feature = "failpoints")]
    inner: Mutex<FailpointRegistry>,
}

impl ChaosRegistry {
    /// Wraps the registry carried in by `ServeConfig`.
    #[cfg(feature = "failpoints")]
    pub(crate) fn from_registry(registry: FailpointRegistry) -> Self {
        ChaosRegistry {
            inner: Mutex::new(registry),
        }
    }

    #[cfg(not(feature = "failpoints"))]
    pub(crate) fn from_registry(_registry: incite_core::FailpointRegistry) -> Self {
        ChaosRegistry {}
    }

    /// `true` exactly once per arming of `site`; the site disarms on the
    /// trip so the server recovers for the rest of its lifetime. The lock
    /// guards a pure in-memory set check — no blocking work runs under it.
    pub(crate) fn trip(&self, site: &str) -> bool {
        #[cfg(feature = "failpoints")]
        {
            let mut inner = match self.inner.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            if inner.check(site).is_err() {
                inner.disarm(site);
                return true;
            }
            false
        }
        #[cfg(not(feature = "failpoints"))]
        {
            let _ = site;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untripped_registry_never_fires() {
        let chaos = ChaosRegistry::default();
        for site in [
            SOCKET_RESET,
            SHORT_WRITE,
            WORKER_FAULT,
            MID_SWAP,
            JOURNAL_OPEN,
        ] {
            assert!(!chaos.trip(site));
        }
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn armed_site_trips_exactly_once() {
        let mut registry = incite_core::FailpointRegistry::new();
        registry.arm(WORKER_FAULT);
        let chaos = ChaosRegistry::from_registry(registry);
        assert!(chaos.trip(WORKER_FAULT), "first check fires");
        assert!(!chaos.trip(WORKER_FAULT), "the trip disarms the site");
        assert!(!chaos.trip(SOCKET_RESET), "other sites stay quiet");
    }
}
