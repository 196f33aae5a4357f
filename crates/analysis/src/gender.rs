//! Gender analysis (Table 10 and the §6.2 gender statistics), using the
//! real pronoun-inference method over the document text.

use incite_corpus::Document;
use incite_pii::infer_gender;
use incite_stats::chisq::{chi_square_2x2, ChiSquareResult};
use incite_taxonomy::{Gender, Subcategory};

/// One gender column of Table 10.
#[derive(Debug, Clone)]
pub struct GenderColumn {
    pub gender: Gender,
    pub size: usize,
    /// Counts per subcategory, indexed by [`Subcategory::index`].
    pub subcategory_counts: Vec<usize>,
}

impl GenderColumn {
    /// Count for one subcategory.
    pub fn subcategory(&self, sub: Subcategory) -> usize {
        self.subcategory_counts[sub.index()]
    }

    /// Percentage of the column.
    pub fn percent(&self, count: usize) -> f64 {
        if self.size == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.size as f64
        }
    }
}

/// Infers gender for each document via pronouns (§5.6) and tabulates
/// Table 10.
pub fn tabulate_by_gender(docs: &[&Document]) -> Vec<GenderColumn> {
    Gender::ALL
        .iter()
        .map(|&g| {
            let in_col: Vec<&&Document> =
                docs.iter().filter(|d| infer_gender(&d.text) == g).collect();
            let mut counts = vec![0usize; Subcategory::COUNT];
            for d in &in_col {
                for sub in d.truth.labels.iter() {
                    counts[sub.index()] += 1;
                }
            }
            GenderColumn {
                gender: g,
                size: in_col.len(),
                subcategory_counts: counts,
            }
        })
        .collect()
}

/// The §6.2 headline gender test: private reputational harm is more common
/// against female-labeled targets (7.5 % vs 2.98 %). Returns the 2×2
/// chi-square over (gender × has-private-reputational-harm).
pub fn private_reputation_gender_test(columns: &[GenderColumn]) -> Option<ChiSquareResult> {
    let get = |g: Gender| columns.iter().find(|c| c.gender == g);
    let female = get(Gender::Female)?;
    let male = get(Gender::Male)?;
    let f_with = female.subcategory(Subcategory::ReputationalHarmPrivate);
    let m_with = male.subcategory(Subcategory::ReputationalHarmPrivate);
    chi_square_2x2(
        f_with as f64,
        (female.size - f_with) as f64,
        m_with as f64,
        (male.size - m_with) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use incite_corpus::{generate, Corpus, CorpusConfig};

    fn corpus() -> Corpus {
        generate(&CorpusConfig::small(33))
    }

    fn cth_docs(corpus: &Corpus) -> Vec<&Document> {
        corpus.documents.iter().filter(|d| d.truth.is_cth).collect()
    }

    #[test]
    fn columns_partition_documents() {
        let corpus = corpus();
        let docs = cth_docs(&corpus);
        let cols = tabulate_by_gender(&docs);
        assert_eq!(cols.len(), 3);
        let total: usize = cols.iter().map(|c| c.size).sum();
        assert_eq!(total, docs.len());
    }

    #[test]
    fn inference_accuracy_meets_paper_bar() {
        let corpus = corpus();
        let known: Vec<&Document> = cth_docs(&corpus)
            .into_iter()
            .filter(|d| d.truth.gender != Gender::Unknown)
            .collect();
        assert!(known.len() > 100, "need a meaningful sample");
        let correct = known
            .iter()
            .filter(|d| infer_gender(&d.text) == d.truth.gender)
            .count();
        let acc = correct as f64 / known.len() as f64;
        // Paper: 94.3 %. The planted texts always use target pronouns, so
        // we should be at least in that band.
        assert!(acc > 0.85, "gender inference accuracy {acc}");
    }

    #[test]
    fn male_and_female_columns_are_nonempty() {
        let corpus = corpus();
        let docs = cth_docs(&corpus);
        let cols = tabulate_by_gender(&docs);
        for g in [Gender::Male, Gender::Female] {
            let c = cols.iter().find(|c| c.gender == g).unwrap();
            assert!(c.size > 0, "{g} column empty");
        }
    }

    #[test]
    fn private_reputation_skews_female() {
        // Table 10: 7.5 % female vs 2.98 % male.
        let corpus = corpus();
        let docs = cth_docs(&corpus);
        let cols = tabulate_by_gender(&docs);
        let female = cols.iter().find(|c| c.gender == Gender::Female).unwrap();
        let male = cols.iter().find(|c| c.gender == Gender::Male).unwrap();
        let f_pct = female.percent(female.subcategory(Subcategory::ReputationalHarmPrivate));
        let m_pct = male.percent(male.subcategory(Subcategory::ReputationalHarmPrivate));
        assert!(f_pct > m_pct, "female {f_pct}% vs male {m_pct}%");
        let test = private_reputation_gender_test(&cols).unwrap();
        assert!(test.statistic > 0.0);
    }

    #[test]
    fn empty_input_is_safe() {
        let cols = tabulate_by_gender(&[]);
        assert!(cols.iter().all(|c| c.size == 0));
    }
}
