//! The versioned model registry: atomic hot-swap of the serving
//! classifier with score provenance.
//!
//! The active model lives behind one `Mutex<Arc<ModelGeneration>>`. The
//! lock is held only to clone or replace the `Arc` — never across a load,
//! a warmup, or any I/O — so scoring workers snapshot the current
//! generation in O(1) and a swap can never stall the request path. Each
//! micro-batch is scored entirely against one snapshot, which is what
//! makes the "no mixed generations within a response" guarantee hold: a
//! response's texts all see the same weights, and the response reports
//! exactly which generation (and model content hash) produced its bits.
//!
//! A swap loads and verifies the new run directory *outside* the lock
//! (reusing the checkpoint manifest + section hash verification), warms
//! the new classifier, and only then flips the `Arc`. A failed load — or
//! an injected `serve-mid-swap` fault between load and flip — leaves the
//! old generation serving untouched.

use crate::chaos;
use incite_core::{load_latest_classifier_with_hash, CheckpointError, FailpointRegistry};
use incite_ml::TextClassifier;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One immutable generation of the serving model.
pub struct ModelGeneration {
    /// The weights every batch of this generation scores against.
    pub classifier: TextClassifier,
    /// Monotonic generation number; the boot model is generation 1.
    pub generation: u64,
    /// The model section's verified FNV-64 content hash (empty when the
    /// server was booted from an in-memory classifier, e.g. in tests).
    pub model_hash: String,
    /// The run directory the generation was loaded from (empty for
    /// in-memory boots).
    pub run_dir: String,
}

/// Why a swap was refused. Every variant renders as a static description:
/// the requested run-dir string arrives in a client request body, so it
/// must never echo into a response or a log line (INC011).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapError {
    /// Another swap is still in flight (409).
    InProgress,
    /// The run directory failed to load or verify; the static kind names
    /// which checkpoint refusal fired (422).
    Load(&'static str),
    /// The `serve-mid-swap` chaos site fired between load and flip (503).
    Injected,
}

impl SwapError {
    /// The static wire description.
    pub fn describe(&self) -> &'static str {
        match self {
            SwapError::InProgress => "a model swap is already in progress",
            SwapError::Load(kind) => kind,
            SwapError::Injected => "swap aborted by injected fault; previous generation retained",
        }
    }
}

fn load_kind(e: &CheckpointError) -> &'static str {
    match e {
        CheckpointError::Io { .. } => "run directory is unreadable",
        CheckpointError::Corrupt { .. } => "run directory holds a corrupt checkpoint",
        CheckpointError::HashMismatch { .. } => "run directory fails hash verification",
        CheckpointError::Incompatible { .. } => "path is not a servable run directory",
    }
}

/// The registry itself; one per server, shared via `ServerState`.
pub struct ModelRegistry {
    active: Mutex<Arc<ModelGeneration>>,
    /// CAS guard: at most one swap loads at a time.
    swap_in_flight: AtomicBool,
    pub(crate) swaps_total: AtomicU64,
    pub(crate) swap_failures: AtomicU64,
}

impl ModelRegistry {
    /// A registry serving `classifier` as generation 1.
    pub fn new(classifier: TextClassifier, model_hash: String, run_dir: String) -> Self {
        ModelRegistry {
            active: Mutex::new(Arc::new(ModelGeneration {
                classifier,
                generation: 1,
                model_hash,
                run_dir,
            })),
            swap_in_flight: AtomicBool::new(false),
            swaps_total: AtomicU64::new(0),
            swap_failures: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Arc<ModelGeneration>> {
        // The guarded value is a plain Arc; poison cannot leave it torn.
        match self.active.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Snapshot of the active generation (an `Arc` clone; O(1), and the
    /// lock is released before the caller does anything with it).
    pub fn current(&self) -> Arc<ModelGeneration> {
        Arc::clone(&self.lock())
    }

    /// The active generation number (the `/metrics` gauge).
    pub fn generation(&self) -> u64 {
        self.current().generation
    }

    /// Loads `run_dir`, verifies it through the checkpoint manifest, and
    /// atomically flips the active generation. Returns the new generation
    /// number. Serialized by a CAS flag: a concurrent swap is a typed
    /// [`SwapError::InProgress`], and any failure leaves the previous
    /// generation serving.
    pub fn swap_from_run_dir(
        &self,
        run_dir: &Path,
        failpoints: &FailpointRegistry,
    ) -> Result<u64, SwapError> {
        if self
            .swap_in_flight
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(SwapError::InProgress);
        }
        let result = self.load_and_flip(run_dir, failpoints);
        match result {
            Ok(_) => {
                self.swaps_total.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.swap_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.swap_in_flight.store(false, Ordering::Release);
        result
    }

    fn load_and_flip(
        &self,
        run_dir: &Path,
        failpoints: &FailpointRegistry,
    ) -> Result<u64, SwapError> {
        // Load + verify outside the lock: the old generation keeps
        // serving at full speed while the new one reads from disk.
        let (classifier, model_hash) = load_latest_classifier_with_hash(run_dir)
            .map_err(|e| SwapError::Load(load_kind(&e)))?;
        // Warm the new weights before they go live, so the first request
        // of the new generation pays no one-time cost. Scoring is pure;
        // the result is discarded.
        let _ = classifier.score("warmup: report him and make him pay");
        if failpoints.check(chaos::MID_SWAP).is_err() {
            return Err(SwapError::Injected);
        }
        let run_dir = run_dir.display().to_string();
        let mut active = self.lock();
        let generation = active.generation + 1;
        *active = Arc::new(ModelGeneration {
            classifier,
            generation,
            model_hash,
            run_dir,
        });
        Ok(generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incite_ml::{FeaturizerConfig, TrainConfig};

    fn classifier(positive: &str) -> TextClassifier {
        TextClassifier::train(
            vec![(positive, true), ("nice weather", false)],
            FeaturizerConfig::default(),
            TrainConfig::default(),
        )
    }

    #[test]
    fn boot_generation_is_one_and_snapshots_are_stable() {
        let registry = ModelRegistry::new(classifier("report him"), String::new(), String::new());
        assert_eq!(registry.generation(), 1);
        let snapshot = registry.current();
        assert_eq!(snapshot.generation, 1);
        assert!(snapshot.model_hash.is_empty());
    }

    #[test]
    fn swap_from_bad_dir_is_typed_and_keeps_the_old_generation() {
        let registry = ModelRegistry::new(classifier("report him"), String::new(), String::new());
        let err = registry
            .swap_from_run_dir(Path::new("/nonexistent-run-dir"), &FailpointRegistry::new())
            .expect_err("swap from a missing dir must fail");
        assert_eq!(err, SwapError::Load("path is not a servable run directory"));
        assert_eq!(registry.generation(), 1);
        assert_eq!(registry.swap_failures.load(Ordering::Relaxed), 1);
        assert_eq!(registry.swaps_total.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn swap_errors_render_static_descriptions() {
        for e in [
            SwapError::InProgress,
            SwapError::Load("run directory is unreadable"),
            SwapError::Injected,
        ] {
            assert!(!e.describe().is_empty());
        }
    }
}
