//! Board-thread analyses (§6.3 for CTH, §7.4 for doxes; Figures 5 and 6).

use incite_corpus::{Corpus, Document};
use incite_stats::correction::benjamini_hochberg;
use incite_stats::descriptive::{log_transform, summarize, Summary};
use incite_stats::ecdf::Ecdf;
use incite_stats::mannwhitney::mann_whitney_u;
use incite_stats::ttest::{welch_t_test, TTestResult};
use incite_taxonomy::{AttackType, Platform};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Position statistics for planted documents inside board threads.
#[derive(Debug, Clone)]
pub struct PositionStats {
    /// Number of documents analyzed.
    pub n: usize,
    /// Fraction appearing as the thread's first post.
    pub first_fraction: f64,
    /// Fraction appearing as the thread's last post.
    pub last_fraction: f64,
    /// Median / mean / std of the (1-based) thread position.
    pub position: Summary,
}

/// Computes §6.3/§7.4 position statistics over board documents.
pub fn position_stats(docs: &[&Document]) -> PositionStats {
    let threaded: Vec<_> = docs.iter().filter_map(|d| d.thread).collect();
    let n = threaded.len();
    let first = threaded.iter().filter(|t| t.is_first()).count();
    let last = threaded.iter().filter(|t| t.is_last()).count();
    let positions: Vec<f64> = threaded.iter().map(|t| (t.position + 1) as f64).collect();
    PositionStats {
        n,
        first_fraction: if n == 0 { 0.0 } else { first as f64 / n as f64 },
        last_fraction: if n == 0 { 0.0 } else { last as f64 / n as f64 },
        position: summarize(&positions),
    }
}

/// Samples the paper's random-post baseline: `n` board posts verified not
/// to be calls to harassment or doxes (§6.3 uses 5,000).
pub fn baseline_sample(corpus: &Corpus, n: usize, seed: u64) -> Vec<&Document> {
    let mut pool: Vec<&Document> = corpus
        .by_platform(Platform::Boards)
        .filter(|d| !d.truth.is_cth && !d.truth.is_dox)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    pool.shuffle(&mut rng);
    pool.truncate(n);
    pool
}

/// Response sizes (posts after the document in its thread), the §6.3
/// definition of a call's "responses".
pub fn response_sizes(docs: &[&Document]) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.thread)
        .map(|t| t.responses() as f64 + 1.0)
        .collect()
}

/// One attack type's response-size comparison against the baseline.
#[derive(Debug, Clone)]
pub struct ResponseComparison {
    pub attack_type: AttackType,
    pub n: usize,
    pub test: Option<TTestResult>,
    /// Nonparametric robustness check: two-sided Mann–Whitney p-value on
    /// the raw (untransformed) response sizes.
    pub rank_p: Option<f64>,
    /// Significant after BH correction (the paper uses error rate 0.1).
    pub significant: bool,
}

/// Runs the §6.3 per-attack-type response-size tests: Welch t-tests on
/// log-transformed sizes vs the baseline, restricted to single-category
/// documents ("to ensure independence of samples"), skipping categories
/// with fewer than `min_n` observations (the paper excluded lockout and
/// surveillance with 2 each), BH-corrected at `fdr`.
pub fn response_size_tests(
    cth_docs: &[&Document],
    baseline: &[&Document],
    min_n: usize,
    fdr: f64,
) -> Vec<ResponseComparison> {
    let base_log = log_transform(&response_sizes(baseline));
    let mut comparisons: Vec<ResponseComparison> = AttackType::ALL
        .iter()
        .map(|&attack| {
            let single_label: Vec<&Document> = cth_docs
                .iter()
                .copied()
                .filter(|d| {
                    d.truth.labels.parent_count() == 1
                        && d.truth.labels.contains_parent(attack)
                        && d.thread.is_some()
                })
                .collect();
            let n = single_label.len();
            let (test, rank_p) = if n >= min_n {
                let raw = response_sizes(&single_label);
                let sizes = log_transform(&raw);
                let t = welch_t_test(&sizes, &base_log);
                let u = mann_whitney_u(&raw, &response_sizes(baseline)).map(|r| r.p_value);
                (t, u)
            } else {
                (None, None)
            };
            ResponseComparison {
                attack_type: attack,
                n,
                test,
                rank_p,
                significant: false,
            }
        })
        .collect();
    let tested: Vec<usize> = comparisons
        .iter()
        .enumerate()
        .filter(|(_, c)| c.test.is_some())
        .map(|(i, _)| i)
        .collect();
    let pvals: Vec<f64> = tested
        .iter()
        .map(|&i| comparisons[i].test.unwrap().p_value)
        .collect();
    for (&i, rej) in tested.iter().zip(benjamini_hochberg(&pvals, fdr)) {
        comparisons[i].significant = rej;
    }
    comparisons
}

/// Figure 5 data: thread-size ECDFs for CTH documents and the baseline,
/// evaluated on a log grid.
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// (thread size, cumulative fraction) for the CTH series.
    pub cth_curve: Vec<(f64, f64)>,
    /// Same for the baseline series.
    pub baseline_curve: Vec<(f64, f64)>,
}

/// Computes Figure 5.
pub fn figure5(cth_docs: &[&Document], baseline: &[&Document], points: usize) -> Figure5 {
    let thread_sizes = |docs: &[&Document]| -> Vec<f64> {
        docs.iter()
            .filter_map(|d| d.thread)
            .map(|t| t.thread_len as f64)
            .collect()
    };
    let cth_sizes = thread_sizes(cth_docs);
    let base_sizes = thread_sizes(baseline);
    let max = cth_sizes
        .iter()
        .chain(&base_sizes)
        .fold(1.0f64, |a, &b| a.max(b));
    let grid = Ecdf::log_grid(max, points);
    Figure5 {
        cth_curve: Ecdf::new(&cth_sizes).curve(&grid),
        baseline_curve: Ecdf::new(&base_sizes).curve(&grid),
    }
}

/// Figure 6 data: thread-size quartiles per attack type plus the baseline.
#[derive(Debug, Clone)]
pub struct Figure6Row {
    /// `None` marks the baseline row.
    pub attack_type: Option<AttackType>,
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Computes Figure 6 (box-plot quantiles of thread sizes per attack type).
pub fn figure6(cth_docs: &[&Document], baseline: &[&Document]) -> Vec<Figure6Row> {
    let quartiles = |docs: &[&Document]| -> (usize, f64, f64, f64) {
        let sizes: Vec<f64> = docs
            .iter()
            .filter_map(|d| d.thread)
            .map(|t| t.thread_len as f64)
            .collect();
        let e = Ecdf::new(&sizes);
        (
            sizes.len(),
            e.quantile(0.25),
            e.quantile(0.5),
            e.quantile(0.75),
        )
    };
    let mut rows = Vec::new();
    for attack in AttackType::ALL {
        let docs: Vec<&Document> = cth_docs
            .iter()
            .copied()
            .filter(|d| d.truth.labels.contains_parent(attack) && d.thread.is_some())
            .collect();
        if docs.is_empty() {
            continue;
        }
        let (n, q1, median, q3) = quartiles(&docs);
        rows.push(Figure6Row {
            attack_type: Some(attack),
            n,
            q1,
            median,
            q3,
        });
    }
    let (n, q1, median, q3) = quartiles(baseline);
    rows.push(Figure6Row {
        attack_type: None,
        n,
        q1,
        median,
        q3,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use incite_corpus::{generate, CorpusConfig};

    fn corpus() -> Corpus {
        generate(&CorpusConfig::small(44))
    }

    fn board_cth(corpus: &Corpus) -> Vec<&Document> {
        corpus
            .by_platform(Platform::Boards)
            .filter(|d| d.truth.is_cth)
            .collect()
    }

    #[test]
    fn cth_rarely_first_or_last() {
        let corpus = corpus();
        let docs = board_cth(&corpus);
        let stats = position_stats(&docs);
        assert!(stats.n > 100);
        // Paper: 3.7 % first, 2.7 % last.
        assert!(
            stats.first_fraction < 0.10,
            "first {}",
            stats.first_fraction
        );
        assert!(stats.last_fraction < 0.10, "last {}", stats.last_fraction);
        // Positions are spread through threads, not clustered at the start.
        assert!(stats.position.mean > 2.0);
    }

    #[test]
    fn dox_first_fraction_exceeds_cth() {
        // Paper: doxes open threads more often (9.7 % vs 3.7 %).
        let corpus = corpus();
        let cth = position_stats(&board_cth(&corpus));
        let doxes: Vec<&Document> = corpus
            .by_platform(Platform::Boards)
            .filter(|d| d.truth.is_dox && !d.truth.is_cth)
            .collect();
        let dox = position_stats(&doxes);
        assert!(
            dox.first_fraction > cth.first_fraction,
            "dox {} vs cth {}",
            dox.first_fraction,
            cth.first_fraction
        );
    }

    #[test]
    fn baseline_is_clean_and_sized() {
        let corpus = corpus();
        let base = baseline_sample(&corpus, 1_000, 5);
        assert_eq!(base.len(), 1_000);
        assert!(base.iter().all(|d| !d.truth.is_cth && !d.truth.is_dox));
        // Seeded: same sample both times.
        let again = baseline_sample(&corpus, 1_000, 5);
        assert_eq!(
            base.iter().map(|d| d.id).collect::<Vec<_>>(),
            again.iter().map(|d| d.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn toxic_content_gets_larger_responses() {
        let corpus = corpus();
        let docs = board_cth(&corpus);
        let base = baseline_sample(&corpus, 2_000, 5);
        let comps = response_size_tests(&docs, &base, 5, 0.1);
        let toxic = comps
            .iter()
            .find(|c| c.attack_type == AttackType::ToxicContent)
            .unwrap();
        // The generator plants toxic-content calls in longer threads; the
        // t statistic should be positive (larger responses) as in §6.3.
        if let Some(t) = toxic.test {
            assert!(t.t > 0.0, "toxic t = {}", t.t);
        } else {
            panic!("toxic content had too few samples: {}", toxic.n);
        }
    }

    #[test]
    fn small_categories_are_excluded() {
        let corpus = corpus();
        let docs = board_cth(&corpus);
        let base = baseline_sample(&corpus, 500, 5);
        let comps = response_size_tests(&docs, &base, 10_000, 0.1);
        assert!(comps.iter().all(|c| c.test.is_none()));
        assert!(comps.iter().all(|c| !c.significant));
    }

    #[test]
    fn figure5_curves_are_monotone_cdf() {
        let corpus = corpus();
        let docs = board_cth(&corpus);
        let base = baseline_sample(&corpus, 2_000, 5);
        let fig = figure5(&docs, &base, 30);
        assert_eq!(fig.cth_curve.len(), 30);
        for curve in [&fig.cth_curve, &fig.baseline_curve] {
            for w in curve.windows(2) {
                assert!(w[0].1 <= w[1].1 + 1e-12);
                assert!(w[0].0 <= w[1].0);
            }
            assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn figure6_has_baseline_row() {
        let corpus = corpus();
        let docs = board_cth(&corpus);
        let base = baseline_sample(&corpus, 2_000, 5);
        let rows = figure6(&docs, &base);
        assert!(rows.iter().any(|r| r.attack_type.is_none()));
        for r in &rows {
            assert!(r.q1 <= r.median && r.median <= r.q3, "{r:?}");
        }
    }

    #[test]
    fn empty_inputs_are_safe() {
        let stats = position_stats(&[]);
        assert_eq!(stats.n, 0);
        assert_eq!(stats.first_fraction, 0.0);
        let fig = figure5(&[], &[], 10);
        assert!(fig.cth_curve.iter().all(|(_, y)| y.is_nan()));
    }
}
