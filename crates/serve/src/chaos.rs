//! Serve-side chaos sites: the names of the request path's failpoints in
//! [`incite_core::FailpointRegistry`].
//!
//! The pipeline's failpoint sweep proves crash recovery; these sites prove
//! *graceful degradation*: with a site armed the server must return a
//! typed error (or drop the one affected connection, or refuse to boot)
//! and keep serving byte-identical scores afterwards — never hang, never
//! corrupt. The server checks them on the registry its `ServeConfig`
//! carries; each arming fires once, so a single server lifetime shows both
//! the fault and the recovery. Without the `failpoints` cargo feature
//! every check is a constant `Ok(())` the optimizer deletes.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untripped_registry_never_fires() {
        // Five distinct names, so arming one site never fires another,
        // and an unarmed registry passes each of them.
        let sites = [
            SOCKET_RESET,
            SHORT_WRITE,
            WORKER_FAULT,
            MID_SWAP,
            JOURNAL_OPEN,
        ];
        let distinct: std::collections::BTreeSet<&str> = sites.into_iter().collect();
        assert_eq!(distinct.len(), sites.len());
        let registry = incite_core::FailpointRegistry::new();
        for site in sites {
            assert_eq!(registry.check(site), Ok(()));
        }
    }
}
