//! # incite-stats
//!
//! Statistics substrate for the `incite` reproduction. Every significance
//! test, agreement score and classifier metric reported by the paper is
//! implemented here from first principles:
//!
//! * [`descriptive`] — means, variances, medians, quantiles (thread-position
//!   statistics of §6.3/§7.4).
//! * [`special`] — Student-t, chi-square and normal tail probabilities, built
//!   on log-gamma and the regularized incomplete gamma and beta functions:
//!   the numerical bedrock for every p-value.
//! * [`ttest`] — Welch's two-sample t-test on (log) thread sizes
//!   (§6.3 "pairwise t-test on the log of the size of the threads").
//! * [`chisq`] — one-way chi-square tests (§6.2 reporting-subcategory and
//!   gender comparisons).
//! * [`correction`] — Benjamini–Hochberg FDR control (§6.3 "corrected for
//!   multiple comparisons using Benjamini Hochberg with a default error rate
//!   of 0.1").
//! * [`kappa`] — Cohen's kappa (§5.3 annotator agreement).
//! * [`mannwhitney`] — the rank-sum robustness check for the thread-size
//!   comparisons.
//! * [`classify`] — confusion matrices, precision/recall/F1 with weighted
//!   and macro averages (Table 3) and AUC (§5.4 "optimize our
//!   classifiers' parameters for better AUC-ROC scores").
//! * [`ecdf`] — empirical CDFs (Figures 5 and 6).

// INC001 (DESIGN.md §10): library code returns typed errors, never panics.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]
// INC003 (DESIGN.md §10): compare computed floats by epsilon or `to_bits()`.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod chisq;
pub mod classify;
pub mod correction;
pub mod descriptive;
pub mod ecdf;
pub mod kappa;
pub mod mannwhitney;
pub mod special;
pub mod ttest;

pub use chisq::{chi_square_gof, ChiSquareResult};
pub use classify::{auc_roc, BinaryConfusion, MultiMetrics, PrfScores};
pub use correction::benjamini_hochberg;
pub use descriptive::{mean, median, quantile, std_dev, variance};
pub use ecdf::Ecdf;
pub use kappa::{cohen_kappa, cohen_kappa_from_labels};
pub use mannwhitney::{mann_whitney_u, MannWhitneyResult};
pub use ttest::{welch_t_test, TTestResult};
