//! Harm-risk assignment and overlap (§7.2, Table 7, Figure 2).

use incite_corpus::Document;
use incite_pii::PiiExtractor;
use incite_taxonomy::harm::{HarmRisk, RiskSet};
use incite_taxonomy::Platform;

/// Figure 2 data: dox counts per risk combination.
#[derive(Debug, Clone)]
pub struct Figure2 {
    /// Count per combination, indexed by [`RiskSet::bits`] (0–15; index 0
    /// is the "no risk indicator" bucket the paper mentions for Discord).
    pub combination_counts: [usize; 16],
    /// Total doxes carrying each individual risk (Figure 2's right column).
    pub risk_totals: [usize; 4],
    /// Total doxes analyzed.
    pub total: usize,
}

impl Figure2 {
    /// Count for a specific combination.
    pub fn combination(&self, set: RiskSet) -> usize {
        self.combination_counts[set.bits() as usize]
    }

    /// Total for one risk category.
    pub fn risk_total(&self, risk: HarmRisk) -> usize {
        self.risk_totals[HarmRisk::ALL.iter().position(|r| *r == risk).unwrap()]
    }

    /// Doxes with all four risks (the paper reports 970, 11.5 %).
    pub fn all_four(&self) -> usize {
        self.combination_counts[15]
    }
}

/// Assigns risks to every dox (real extraction + the planted reputation
/// annotation) and tabulates Figure 2. Returns the figure plus each
/// document's risk set (aligned with the input).
pub fn figure2(extractor: &PiiExtractor, docs: &[&Document]) -> (Figure2, Vec<RiskSet>) {
    let per_doc: Vec<RiskSet> = docs
        .iter()
        .map(|d| {
            let pii = extractor.pii_set(&d.text);
            RiskSet::from_pii(pii, d.truth.reputation_flag)
        })
        .collect();
    let mut combination_counts = [0usize; 16];
    let mut risk_totals = [0usize; 4];
    for set in &per_doc {
        combination_counts[set.bits() as usize] += 1;
        for (i, risk) in HarmRisk::ALL.iter().enumerate() {
            if set.contains(*risk) {
                risk_totals[i] += 1;
            }
        }
    }
    (
        Figure2 {
            combination_counts,
            risk_totals,
            total: per_doc.len(),
        },
        per_doc,
    )
}

/// §7.2 side observations worth reproducing.
#[derive(Debug, Clone, Copy)]
pub struct RiskObservations {
    /// Fraction of Discord doxes with no risk indicator (paper: > 50 %).
    pub discord_no_indicator: f64,
    /// Fraction of all-four-risk doxes that come from pastes (paper: 73 %).
    pub all_four_from_pastes: f64,
}

/// Computes the side observations.
pub fn observations(docs: &[&Document], per_doc: &[RiskSet]) -> RiskObservations {
    let discord: Vec<usize> = docs
        .iter()
        .enumerate()
        .filter(|(_, d)| d.platform == Platform::Discord)
        .map(|(i, _)| i)
        .collect();
    let discord_none = discord.iter().filter(|&&i| per_doc[i].is_empty()).count();
    let discord_no_indicator = if discord.is_empty() {
        0.0
    } else {
        discord_none as f64 / discord.len() as f64
    };

    let all_four: Vec<usize> = per_doc
        .iter()
        .enumerate()
        .filter(|(_, s)| s.len() == 4)
        .map(|(i, _)| i)
        .collect();
    let from_pastes = all_four
        .iter()
        .filter(|&&i| docs[i].platform == Platform::Pastes)
        .count();
    let all_four_from_pastes = if all_four.is_empty() {
        0.0
    } else {
        from_pastes as f64 / all_four.len() as f64
    };

    RiskObservations {
        discord_no_indicator,
        all_four_from_pastes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incite_corpus::{generate, Corpus, CorpusConfig};

    fn corpus() -> Corpus {
        generate(&CorpusConfig::small(77))
    }

    fn dox_docs(corpus: &Corpus) -> Vec<&Document> {
        corpus
            .documents
            .iter()
            .filter(|d| d.truth.is_dox && d.platform != Platform::Blogs)
            .collect()
    }

    #[test]
    fn combination_counts_sum_to_total() {
        let corpus = corpus();
        let docs = dox_docs(&corpus);
        let ex = PiiExtractor::new();
        let (fig, per_doc) = figure2(&ex, &docs);
        assert_eq!(fig.total, docs.len());
        assert_eq!(per_doc.len(), docs.len());
        let sum: usize = fig.combination_counts.iter().sum();
        assert_eq!(sum, fig.total);
    }

    #[test]
    fn risk_totals_are_consistent_with_combinations() {
        let corpus = corpus();
        let docs = dox_docs(&corpus);
        let ex = PiiExtractor::new();
        let (fig, _) = figure2(&ex, &docs);
        for risk in HarmRisk::ALL {
            let from_combos: usize = (0u8..16)
                .filter(|&bits| RiskSet::from_bits(bits).contains(risk))
                .map(|bits| fig.combination_counts[bits as usize])
                .sum();
            assert_eq!(from_combos, fig.risk_total(risk), "{risk}");
        }
    }

    #[test]
    fn online_risk_is_common_and_multi_risk_exists() {
        let corpus = corpus();
        let docs = dox_docs(&corpus);
        let ex = PiiExtractor::new();
        let (fig, _) = figure2(&ex, &docs);
        // Online is the largest single total in the paper (3,959 / 8,425).
        assert!(fig.risk_total(HarmRisk::Online) as f64 > 0.3 * fig.total as f64);
        // Some doxes hit all four categories.
        assert!(fig.all_four() > 0);
    }

    #[test]
    fn pastes_dominate_all_four_risk_doxes() {
        let corpus = corpus();
        let docs = dox_docs(&corpus);
        let ex = PiiExtractor::new();
        let (_, per_doc) = figure2(&ex, &docs);
        let obs = observations(&docs, &per_doc);
        // Paper: 73 % of all-four doxes are from pastes.
        assert!(
            obs.all_four_from_pastes > 0.35,
            "pastes share {}",
            obs.all_four_from_pastes
        );
    }

    #[test]
    fn empty_input_is_safe() {
        let ex = PiiExtractor::new();
        let (fig, per_doc) = figure2(&ex, &[]);
        assert_eq!(fig.total, 0);
        let obs = observations(&[], &per_doc);
        assert_eq!(obs.discord_no_indicator, 0.0);
    }
}
