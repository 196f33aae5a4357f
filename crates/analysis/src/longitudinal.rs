//! Longitudinal analysis — the §9.2 research extension.
//!
//! "Longitudinal analysis of calls to harassment could provide insights
//! into new attack types, and whether these online fringe communities are
//! influenced by offline trends and events." This module provides the
//! machinery: positive *rate* per year (normalized by platform volume) for
//! any document subset, and a growth test comparing the first and second
//! halves of the observation window.

use incite_corpus::Document;
use incite_stats::chisq::{chi_square_2x2, ChiSquareResult};
use std::collections::BTreeMap;

const SECONDS_PER_YEAR: u64 = 31_557_600;

/// The UTC-ish year of a unix timestamp (sufficient for yearly bucketing).
fn year_of(timestamp: u64) -> u32 {
    1970 + (timestamp / SECONDS_PER_YEAR) as u32
}

/// Positive incidence per year: `(year, positives, total, rate)`.
pub fn yearly_rates(
    all: &[&Document],
    is_positive: impl Fn(&Document) -> bool,
) -> Vec<(u32, usize, usize, f64)> {
    let mut map: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
    for d in all {
        let entry = map.entry(year_of(d.timestamp)).or_default();
        entry.1 += 1;
        if is_positive(d) {
            entry.0 += 1;
        }
    }
    map.into_iter()
        .map(|(year, (pos, total))| (year, pos, total, pos as f64 / total.max(1) as f64))
        .collect()
}

/// Growth comparison: positive rate in the earlier half of the observed
/// years vs the later half, with a 2×2 chi-square test.
#[derive(Debug, Clone)]
pub struct GrowthTest {
    pub early_positives: usize,
    pub early_total: usize,
    pub late_positives: usize,
    pub late_total: usize,
    pub test: Option<ChiSquareResult>,
}

impl GrowthTest {
    /// Late-to-early rate ratio (> 1 means growth).
    pub fn rate_ratio(&self) -> f64 {
        let early = self.early_positives as f64 / self.early_total.max(1) as f64;
        let late = self.late_positives as f64 / self.late_total.max(1) as f64;
        if early == 0.0 {
            f64::INFINITY
        } else {
            late / early
        }
    }
}

/// Runs the growth test, splitting the window at the median observed year.
pub fn growth_test(all: &[&Document], is_positive: impl Fn(&Document) -> bool) -> GrowthTest {
    let mut years: Vec<u32> = all.iter().map(|d| year_of(d.timestamp)).collect();
    years.sort_unstable();
    let split = years.get(years.len() / 2).copied().unwrap_or(2010);
    let mut g = GrowthTest {
        early_positives: 0,
        early_total: 0,
        late_positives: 0,
        late_total: 0,
        test: None,
    };
    for d in all {
        let pos = is_positive(d);
        if year_of(d.timestamp) < split {
            g.early_total += 1;
            g.early_positives += pos as usize;
        } else {
            g.late_total += 1;
            g.late_positives += pos as usize;
        }
    }
    g.test = chi_square_2x2(
        g.early_positives as f64,
        (g.early_total - g.early_positives) as f64,
        g.late_positives as f64,
        (g.late_total - g.late_positives) as f64,
    );
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use incite_corpus::{generate, Corpus, CorpusConfig};
    use incite_taxonomy::Platform;

    fn corpus() -> Corpus {
        generate(&CorpusConfig::small(0x1046))
    }

    #[test]
    fn year_of_reference_points() {
        assert_eq!(year_of(0), 1970);
        assert_eq!(year_of(1_600_000_000), 2020);
        assert_eq!(year_of(992_476_800), 2001);
    }

    #[test]
    fn yearly_counts_cover_the_observation_window() {
        let corpus = corpus();
        let boards: Vec<&Document> = corpus.by_platform(Platform::Boards).collect();
        let rates = yearly_rates(&boards, |_| true);
        assert!(rates.len() > 10, "expected a multi-year window");
        assert!(rates.first().unwrap().0 >= 2001);
        assert!(rates.last().unwrap().0 <= 2020);
        let total: usize = rates.iter().map(|(_, _, n, _)| n).sum();
        assert_eq!(total, boards.len());
    }

    #[test]
    fn cth_rate_grows_over_time() {
        let corpus = corpus();
        let boards: Vec<&Document> = corpus.by_platform(Platform::Boards).collect();
        let g = growth_test(&boards, |d| d.truth.is_cth);
        assert!(
            g.rate_ratio() > 1.3,
            "expected growth, ratio {} ({}+/{} early vs {}+/{} late)",
            g.rate_ratio(),
            g.early_positives,
            g.early_total,
            g.late_positives,
            g.late_total
        );
        let test = g.test.expect("test computable");
        assert!(
            test.p_value < 0.05,
            "growth not significant: p={}",
            test.p_value
        );
    }

    #[test]
    fn yearly_rates_are_bounded() {
        let corpus = corpus();
        let gab: Vec<&Document> = corpus.by_platform(Platform::Gab).collect();
        for (_, pos, total, rate) in yearly_rates(&gab, |d| d.truth.is_dox) {
            assert!(pos <= total);
            assert!((0.0..=1.0).contains(&rate));
        }
    }

    #[test]
    fn empty_input_is_safe() {
        assert!(yearly_rates(&[], |_| true).is_empty());
        let g = growth_test(&[], |_| true);
        assert!(g.test.is_none());
        assert_eq!(g.early_total + g.late_total, 0);
    }
}
