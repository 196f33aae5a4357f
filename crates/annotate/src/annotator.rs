//! Noisy annotator models.
//!
//! An annotator sees a document and produces a binary judgment. The model
//! flips the planted truth with task-dependent error probabilities. Presets
//! are calibrated so that two independent crowd annotators reproduce the
//! paper's §5.3 disagreement rates: 3.94 % on the dox task and 18.66 % on
//! the (semantically harder) CTH task — two annotators with per-judgment
//! accuracy `a` disagree at ≈ `2a(1-a)`, giving a ≈ 0.98 and a ≈ 0.90.

use rand::rngs::StdRng;
use rand::Rng;

/// A simulated annotator.
#[derive(Debug, Clone)]
pub struct Annotator {
    /// Display identifier.
    pub id: String,
    /// Probability of labeling a true positive as positive.
    pub sensitivity: f64,
    /// Probability of labeling a true negative as negative.
    pub specificity: f64,
}

impl Annotator {
    /// Crowd annotator for the doxing task (κ ≈ 0.52, disagreement ≈ 3.9 %).
    pub fn crowd_dox(id: impl Into<String>) -> Self {
        Annotator {
            id: id.into(),
            sensitivity: 0.93,
            specificity: 0.985,
        }
    }

    /// Crowd annotator for the call-to-harassment task (κ ≈ 0.35,
    /// disagreement ≈ 18.7 % — the harder task).
    pub fn crowd_cth(id: impl Into<String>) -> Self {
        Annotator {
            id: id.into(),
            sensitivity: 0.80,
            specificity: 0.91,
        }
    }

    /// Domain-expert annotator (κ ≈ 0.85–0.89).
    pub fn expert(id: impl Into<String>) -> Self {
        Annotator {
            id: id.into(),
            sensitivity: 0.97,
            specificity: 0.99,
        }
    }

    /// A perfect oracle (useful in tests).
    pub fn oracle(id: impl Into<String>) -> Self {
        Annotator {
            id: id.into(),
            sensitivity: 1.0,
            specificity: 1.0,
        }
    }

    /// Produces a judgment for a document with planted truth `truth`.
    pub fn annotate(&self, truth: bool, rng: &mut StdRng) -> bool {
        if truth {
            rng.gen_bool(self.sensitivity)
        } else {
            !rng.gen_bool(self.specificity)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(55)
    }

    #[test]
    fn oracle_is_always_right() {
        let a = Annotator::oracle("o");
        let mut r = rng();
        for _ in 0..100 {
            assert!(a.annotate(true, &mut r));
            assert!(!a.annotate(false, &mut r));
        }
    }

    #[test]
    fn error_rates_match_parameters() {
        let a = Annotator {
            id: "t".into(),
            sensitivity: 0.8,
            specificity: 0.9,
        };
        let mut r = rng();
        let n = 50_000;
        let tp = (0..n).filter(|_| a.annotate(true, &mut r)).count();
        let tn = (0..n).filter(|_| !a.annotate(false, &mut r)).count();
        assert!((tp as f64 / n as f64 - 0.8).abs() < 0.01);
        assert!((tn as f64 / n as f64 - 0.9).abs() < 0.01);
    }

    #[test]
    fn crowd_dox_pair_disagreement_near_paper() {
        // Two independent crowd annotators; base rate like the dox training
        // set (~5 % positive).
        let a = Annotator::crowd_dox("a");
        let b = Annotator::crowd_dox("b");
        let mut r = rng();
        let n = 50_000;
        let mut disagreements = 0;
        for i in 0..n {
            let truth = i % 20 == 0;
            if a.annotate(truth, &mut r) != b.annotate(truth, &mut r) {
                disagreements += 1;
            }
        }
        let rate = disagreements as f64 / n as f64;
        assert!((rate - 0.0394).abs() < 0.015, "dox disagreement = {rate}");
    }

    #[test]
    fn crowd_cth_pair_disagreement_near_paper() {
        let a = Annotator::crowd_cth("a");
        let b = Annotator::crowd_cth("b");
        let mut r = rng();
        let n = 50_000;
        let mut disagreements = 0;
        for i in 0..n {
            let truth = i % 15 == 0; // ~6.7 % positive, like the CTH task
            if a.annotate(truth, &mut r) != b.annotate(truth, &mut r) {
                disagreements += 1;
            }
        }
        let rate = disagreements as f64 / n as f64;
        assert!((rate - 0.1866).abs() < 0.03, "cth disagreement = {rate}");
    }

    #[test]
    fn experts_beat_crowd() {
        let e = Annotator::expert("e");
        for c in [Annotator::crowd_cth("c"), Annotator::crowd_dox("c")] {
            assert!(e.sensitivity > c.sensitivity);
            assert!(e.specificity > c.specificity);
        }
    }
}
