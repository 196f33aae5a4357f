//! Deterministic fault injection for crash-recovery and chaos testing.
//!
//! The checkpoint subsystem's central claim — kill the pipeline at *any*
//! step boundary and resume to a byte-identical outcome — is only credible
//! if every boundary is actually exercised. A [`FailpointRegistry`] is
//! threaded through `PipelineConfig`, `WatchConfig` and `ServeConfig`; the
//! code calls [`FailpointRegistry::check`] at each named site, and an armed
//! site fails with a typed [`InjectedFault`] exactly where a crash would.
//!
//! A registry also logs every distinct site it is asked about, in the order
//! of first visit. The kill sweeps read that log from an uninterrupted
//! reference run ([`FailpointRegistry::visited`]), then arm and crash at
//! each site it names: a site added to the control flow is swept with no
//! list to edit.
//!
//! Everything here is std-only and fully deterministic: sites are static
//! names, arming is explicit, and there is no probability or clock
//! involved. Each arming fires once: the check that fires consumes it, so a
//! server can show the fault and then its recovery, and a pipeline or watch
//! run, which the first fault ends, sees no difference.
//!
//! **Release builds carry no cost.** Without the `failpoints` cargo
//! feature the registry is a zero-sized struct and [`check`] is an empty
//! inlined `Ok(())` the optimizer deletes; the sweeps run under
//! `--features failpoints`.
//!
//! [`check`]: FailpointRegistry::check

/// A failure injected at a named failpoint site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that was armed, e.g. `after-round-0`.
    pub site: String,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at failpoint `{}`", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// Deterministic registry of armed failpoint sites and of the sites
/// checked so far.
///
/// `Clone` copies both, so arming a clone never arms the original.
/// Without the `failpoints` feature this struct is zero-sized and all
/// methods are no-ops.
#[derive(Debug, Default)]
pub struct FailpointRegistry {
    /// Behind one lock, so `check` takes `&self` on a shared registry.
    #[cfg(feature = "failpoints")]
    sites: std::sync::Mutex<Sites>,
}

#[cfg(feature = "failpoints")]
#[derive(Debug, Clone, Default)]
struct Sites {
    armed: std::collections::BTreeSet<String>,
    /// Each distinct site checked, in the order of its first check.
    visited: Vec<String>,
}

impl Clone for FailpointRegistry {
    fn clone(&self) -> Self {
        FailpointRegistry {
            #[cfg(feature = "failpoints")]
            sites: std::sync::Mutex::new(self.sites().clone()),
        }
    }
}

impl FailpointRegistry {
    /// An empty registry: no site fails.
    pub fn new() -> Self {
        FailpointRegistry::default()
    }

    /// Arms `site`: the next [`check`](Self::check) against it fails.
    /// Arming an armed site changes nothing. No-op without the
    /// `failpoints` feature.
    pub fn arm(&mut self, site: &str) {
        #[cfg(feature = "failpoints")]
        self.sites().armed.insert(site.to_string());
        #[cfg(not(feature = "failpoints"))]
        let _ = site;
    }

    /// Logs `site` and fails with [`InjectedFault`] when it is armed,
    /// disarming it; the release-mode hot path compiles to nothing. The
    /// lock covers two in-memory set updates and nothing else.
    #[inline]
    pub fn check(&self, site: &str) -> Result<(), InjectedFault> {
        #[cfg(feature = "failpoints")]
        {
            let mut sites = self.sites();
            if !sites.visited.iter().any(|seen| seen == site) {
                sites.visited.push(site.to_string());
            }
            if sites.armed.remove(site) {
                return Err(InjectedFault {
                    site: site.to_string(),
                });
            }
        }
        let _ = site;
        Ok(())
    }

    /// Every distinct site checked so far, in the order of first check.
    /// Always empty without the `failpoints` feature.
    pub fn visited(&self) -> Vec<String> {
        #[cfg(feature = "failpoints")]
        {
            self.sites().visited.clone()
        }
        #[cfg(not(feature = "failpoints"))]
        {
            Vec::new()
        }
    }

    /// The armed set and the log. Each update under the lock is one
    /// insert, push or remove, so a poisoned lock still holds both whole.
    #[cfg(feature = "failpoints")]
    fn sites(&self) -> std::sync::MutexGuard<'_, Sites> {
        self.sites
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_registry_never_fails() {
        let fp = FailpointRegistry::new();
        assert_eq!(fp.check("after-bootstrap"), Ok(()));
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn registry_compiles_out_without_the_feature() {
        // The release-mode contract: zero size, arm is a no-op so check
        // can never fail, and nothing is logged.
        assert_eq!(std::mem::size_of::<FailpointRegistry>(), 0);
        let mut fp = FailpointRegistry::new();
        fp.arm("after-eval");
        assert_eq!(fp.check("after-eval"), Ok(()));
        assert!(fp.visited().is_empty());
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn an_armed_site_fires_once_per_arming() {
        let mut fp = FailpointRegistry::new();
        fp.arm("after-eval");
        fp.arm("after-eval");
        let err = fp.check("after-eval").unwrap_err();
        assert_eq!(err.site, "after-eval");
        assert!(err.to_string().contains("after-eval"));
        assert_eq!(fp.check("after-eval"), Ok(()), "the fault consumed it");
        assert_eq!(fp.check("after-score"), Ok(()));
        fp.arm("after-eval");
        assert!(fp.check("after-eval").is_err(), "re-armed");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn visited_lists_each_site_once_in_first_visit_order() {
        let mut fp = FailpointRegistry::new();
        fp.arm("after-eval");
        for site in ["after-bootstrap", "mid-round", "after-eval", "mid-round"] {
            let _ = fp.check(site);
        }
        let _ = fp.check("after-bootstrap");
        assert_eq!(fp.visited(), ["after-bootstrap", "mid-round", "after-eval"]);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn a_clone_is_armed_and_logged_apart_from_its_original() {
        let original = FailpointRegistry::new();
        let _ = original.check("after-bootstrap");
        let mut clone = original.clone();
        clone.arm("after-eval");
        assert_eq!(
            original.check("after-eval"),
            Ok(()),
            "the original is unarmed"
        );
        assert!(clone.check("after-eval").is_err());
        let _ = clone.check("after-score");
        assert_eq!(original.visited(), ["after-bootstrap", "after-eval"]);
        assert_eq!(
            clone.visited(),
            ["after-bootstrap", "after-eval", "after-score"]
        );
    }
}
