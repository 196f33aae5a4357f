//! Deterministic fault injection for crash-recovery testing.
//!
//! The checkpoint subsystem's central claim — kill the pipeline at *any*
//! step boundary and resume to a byte-identical outcome — is only credible
//! if every boundary is actually exercised. A [`FailpointRegistry`] is
//! threaded through [`PipelineConfig`]; the pipeline
//! calls [`FailpointRegistry::check`] at each named site, and an armed site
//! aborts the run with a typed [`InjectedFault`] exactly where a crash
//! would. The kill-point sweep in `tests/crash_recovery.rs` iterates
//! [`pipeline_sites`], crashes at each one, resumes, and asserts outcome
//! equality against an uninterrupted run.
//!
//! Everything here is std-only and fully deterministic: sites are static
//! names, arming is explicit, and there is no probability or clock
//! involved — the same armed registry fails at the same site every time.
//!
//! **Release builds carry no cost.** Without the `failpoints` cargo
//! feature the registry is a zero-sized struct and [`check`] is an empty
//! inlined `Ok(())` the optimizer deletes; the fault-injection sweep runs
//! under `cargo test -p incite-core --features failpoints`.
//!
//! [`check`]: FailpointRegistry::check

use crate::pipeline::PipelineConfig;
use crate::task::Task;
use incite_taxonomy::Platform;

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

/// Deterministic registry of armed failpoint sites.
///
/// Cloning is cheap and preserves the armed set, so a config can be built
/// once and re-armed per sweep iteration. Without the `failpoints`
/// feature this struct is zero-sized and all methods are no-ops.
#[derive(Debug, Clone, Default)]
pub struct FailpointRegistry {
    #[cfg(feature = "failpoints")]
    armed: std::collections::BTreeSet<String>,
}

impl FailpointRegistry {
    /// An empty registry: no site fails.
    pub fn new() -> Self {
        FailpointRegistry::default()
    }

    /// Arms `site`: the next [`check`](Self::check) against it fails.
    /// No-op without the `failpoints` feature.
    pub fn arm(&mut self, site: &str) {
        #[cfg(feature = "failpoints")]
        self.armed.insert(site.to_string());
        #[cfg(not(feature = "failpoints"))]
        let _ = site;
    }

    /// Disarms `site`. No-op without the `failpoints` feature.
    pub fn disarm(&mut self, site: &str) {
        #[cfg(feature = "failpoints")]
        self.armed.remove(site);
        #[cfg(not(feature = "failpoints"))]
        let _ = site;
    }

    /// Fails with [`InjectedFault`] when `site` is armed; the release-mode
    /// hot path compiles to nothing.
    #[inline]
    pub fn check(&self, site: &str) -> Result<(), InjectedFault> {
        #[cfg(feature = "failpoints")]
        if self.armed.contains(site) {
            return Err(InjectedFault {
                site: site.to_string(),
            });
        }
        let _ = site;
        Ok(())
    }
}

/// Every failpoint site `run_pipeline` hits for this config and task, in
/// execution order. The kill-point sweep iterates exactly this list.
///
/// Boundary sites (`after-*`) fire immediately after the step's checkpoint
/// is written — resume skips the completed step. Mid-step sites
/// (`mid-annotation-batch`, `mid-threshold-sweep`) fire inside a step,
/// before its checkpoint — resume replays the whole step from the previous
/// boundary, proving partial work is discarded cleanly.
pub fn pipeline_sites(config: &PipelineConfig, task: Task) -> Vec<String> {
    let mut sites = vec!["after-bootstrap".to_string(), "after-featurize".to_string()];
    if config.al_rounds > 0 {
        sites.push("mid-annotation-batch".to_string());
    }
    for round in 0..config.al_rounds {
        sites.push(format!("after-round-{round}"));
    }
    sites.push("after-eval".to_string());
    sites.push("after-score".to_string());
    let platforms: Vec<Platform> = Platform::ALL
        .into_iter()
        .filter(|p| task.applies_to(*p))
        .collect();
    for (i, platform) in platforms.into_iter().enumerate() {
        // The mid-sweep site fires inside the *second* platform's step —
        // after the first platform's boundary checkpoint, before the
        // second's work — proving a partially completed sweep resumes.
        if i == 1 {
            sites.push("mid-threshold-sweep".to_string());
        }
        sites.push(format!("after-threshold-{}", platform.slug()));
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_registry_never_fails() {
        let fp = FailpointRegistry::new();
        assert_eq!(fp.check("after-bootstrap"), Ok(()));
    }

    #[test]
    fn site_list_covers_rounds_and_platforms() {
        let config = PipelineConfig::quick(1);
        let sites = pipeline_sites(&config, Task::Dox);
        assert!(sites.contains(&"after-bootstrap".to_string()));
        assert!(sites.contains(&"after-featurize".to_string()));
        assert!(sites.contains(&"mid-annotation-batch".to_string()));
        assert!(sites.contains(&"after-round-0".to_string()));
        assert!(sites.contains(&"mid-threshold-sweep".to_string()));
        // Dox skips blogs; every other platform gets a threshold site.
        assert!(!sites.contains(&"after-threshold-blogs".to_string()));
        assert!(sites.contains(&"after-threshold-pastes".to_string()));
        // Execution order: bootstrap first, last threshold site last.
        assert_eq!(sites.first().map(String::as_str), Some("after-bootstrap"));
        assert!(sites
            .last()
            .is_some_and(|s| s.starts_with("after-threshold-")));
    }

    #[test]
    fn zero_round_config_has_no_round_sites() {
        let config = PipelineConfig {
            al_rounds: 0,
            ..PipelineConfig::quick(1)
        };
        let sites = pipeline_sites(&config, Task::Cth);
        assert!(!sites.iter().any(|s| s.starts_with("after-round")));
        assert!(!sites.contains(&"mid-annotation-batch".to_string()));
    }

    #[test]
    fn disarm_of_never_armed_site_is_a_noop() {
        // Valid with or without the feature: disarming a site that was
        // never armed changes nothing and panics nowhere.
        let mut fp = FailpointRegistry::new();
        fp.disarm("never-armed");
        assert_eq!(fp.check("never-armed"), Ok(()));
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn registry_compiles_out_without_the_feature() {
        // The release-mode contract: zero size, and arm is a no-op so
        // check can never fail.
        assert_eq!(std::mem::size_of::<FailpointRegistry>(), 0);
        let mut fp = FailpointRegistry::new();
        fp.arm("after-eval");
        assert_eq!(fp.check("after-eval"), Ok(()));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn double_arm_is_idempotent() {
        // Arming the same site twice is one armed site: a single disarm
        // fully clears it (set semantics, not a counter).
        let mut fp = FailpointRegistry::new();
        fp.arm("after-eval");
        fp.arm("after-eval");
        assert!(fp.check("after-eval").is_err());
        fp.disarm("after-eval");
        assert_eq!(fp.check("after-eval"), Ok(()));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn check_ordering_is_deterministic() {
        // With several sites armed, the first failure is decided by the
        // caller's check order alone — run the same site sequence twice
        // and the same site fails first both times.
        let mut fp = FailpointRegistry::new();
        fp.arm("after-score");
        fp.arm("after-eval");
        let sequence = ["after-bootstrap", "after-eval", "after-score"];
        let first_failure = |fp: &FailpointRegistry| -> Option<String> {
            sequence
                .iter()
                .find_map(|site| fp.check(site).err().map(|f| f.site))
        };
        let a = first_failure(&fp);
        let b = first_failure(&fp);
        assert_eq!(a.as_deref(), Some("after-eval"));
        assert_eq!(a, b);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn armed_site_fails_until_disarmed() {
        let mut fp = FailpointRegistry::new();
        fp.arm("after-eval");
        let err = fp.check("after-eval").unwrap_err();
        assert_eq!(err.site, "after-eval");
        assert!(err.to_string().contains("after-eval"));
        assert_eq!(fp.check("after-score"), Ok(()));
        fp.disarm("after-eval");
        assert_eq!(fp.check("after-eval"), Ok(()));
    }
}
