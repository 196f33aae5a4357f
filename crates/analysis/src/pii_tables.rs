//! PII prevalence (Table 6) and co-occurrence (§7.1), computed with the
//! real extractors over the annotated dox sets.

use incite_corpus::Document;
use incite_pii::PiiExtractor;
use incite_taxonomy::pii_kind::PiiSet;
use incite_taxonomy::{DataSet, PiiKind};

/// One data-set column of Table 6.
#[derive(Debug, Clone)]
pub struct PiiColumn {
    pub data_set: DataSet,
    pub size: usize,
    /// Count of doxes containing each kind, indexed like [`PiiKind::ALL`].
    pub counts: [usize; 9],
}

impl PiiColumn {
    /// Count for one kind.
    pub fn count(&self, kind: PiiKind) -> usize {
        self.counts[PiiKind::ALL.iter().position(|k| *k == kind).unwrap()]
    }

    /// Percentage of the column.
    pub fn percent(&self, kind: PiiKind) -> f64 {
        if self.size == 0 {
            0.0
        } else {
            100.0 * self.count(kind) as f64 / self.size as f64
        }
    }
}

/// Extracts PII for every document and tabulates Table 6 columns for the
/// four dox data sets. Also returns each document's extracted [`PiiSet`]
/// (aligned with the input) for downstream analyses.
pub fn tabulate_pii(extractor: &PiiExtractor, docs: &[&Document]) -> (Vec<PiiColumn>, Vec<PiiSet>) {
    let per_doc: Vec<PiiSet> = docs.iter().map(|d| extractor.pii_set(&d.text)).collect();
    let columns = [
        DataSet::Boards,
        DataSet::Chat,
        DataSet::Gab,
        DataSet::Pastes,
    ]
    .iter()
    .map(|&ds| {
        let mut counts = [0usize; 9];
        let mut size = 0;
        for (d, pii) in docs.iter().zip(&per_doc) {
            if d.platform.data_set() != ds {
                continue;
            }
            size += 1;
            for (i, kind) in PiiKind::ALL.iter().enumerate() {
                if pii.contains(*kind) {
                    counts[i] += 1;
                }
            }
        }
        PiiColumn {
            data_set: ds,
            size,
            counts,
        }
    })
    .collect();
    (columns, per_doc)
}

/// §7.1 co-occurrence: `matrix[i][j]` = P(kind j present | kind i present).
pub fn co_occurrence_matrix(per_doc: &[PiiSet]) -> [[f64; 9]; 9] {
    let mut with_i = [0usize; 9];
    let mut with_both = [[0usize; 9]; 9];
    for pii in per_doc {
        for (i, ki) in PiiKind::ALL.iter().enumerate() {
            if !pii.contains(*ki) {
                continue;
            }
            with_i[i] += 1;
            for (j, kj) in PiiKind::ALL.iter().enumerate() {
                if pii.contains(*kj) {
                    with_both[i][j] += 1;
                }
            }
        }
    }
    let mut matrix = [[0.0; 9]; 9];
    for i in 0..9 {
        for j in 0..9 {
            matrix[i][j] = if with_i[i] == 0 {
                0.0
            } else {
                with_both[i][j] as f64 / with_i[i] as f64
            };
        }
    }
    matrix
}

fn idx(kind: PiiKind) -> usize {
    PiiKind::ALL.iter().position(|k| *k == kind).unwrap()
}

/// Convenience accessor for the co-occurrence matrix.
pub fn co_rate(matrix: &[[f64; 9]; 9], given: PiiKind, other: PiiKind) -> f64 {
    matrix[idx(given)][idx(other)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use incite_corpus::{generate, Corpus, CorpusConfig};

    fn corpus() -> Corpus {
        generate(&CorpusConfig::small(55))
    }

    fn dox_docs(corpus: &Corpus) -> Vec<&Document> {
        corpus
            .documents
            .iter()
            .filter(|d| d.truth.is_dox && d.platform != incite_taxonomy::Platform::Blogs)
            .collect()
    }

    #[test]
    fn table6_shape_holds() {
        let corpus = corpus();
        let docs = dox_docs(&corpus);
        let ex = PiiExtractor::new();
        let (cols, per_doc) = tabulate_pii(&ex, &docs);
        assert_eq!(per_doc.len(), docs.len());
        let get = |ds: DataSet| cols.iter().find(|c| c.data_set == ds).unwrap();
        // Pastes doxes carry the richest PII (Table 6 headline).
        let pastes = get(DataSet::Pastes);
        let boards = get(DataSet::Boards);
        assert!(pastes.size > 0 && boards.size > 0);
        assert!(
            pastes.percent(PiiKind::Address) > boards.percent(PiiKind::Address),
            "pastes {} vs boards {}",
            pastes.percent(PiiKind::Address),
            boards.percent(PiiKind::Address)
        );
        // Gab never has cards (Table 6: 0).
        assert_eq!(get(DataSet::Gab).count(PiiKind::CreditCard), 0);
        // Phones are prevalent everywhere (> 15 %).
        for c in &cols {
            if c.size > 20 {
                assert!(c.percent(PiiKind::Phone) > 15.0, "{:?}", c.data_set);
            }
        }
    }

    #[test]
    fn contact_pii_co_occurs_heavily() {
        // §7.1: addresses, phones, emails co-occur with everything > 35 %.
        let corpus = corpus();
        let docs = dox_docs(&corpus);
        let ex = PiiExtractor::new();
        let (_, per_doc) = tabulate_pii(&ex, &docs);
        let m = co_occurrence_matrix(&per_doc);
        // Given a Facebook profile, an email is likely (Table 6 paste rates
        // + the generator's enrichment).
        let fb_email = co_rate(&m, PiiKind::Facebook, PiiKind::Email);
        assert!(fb_email > 0.25, "fb→email {fb_email}");
        // And it exceeds the base email rate boost expected from chance on
        // the lowest-rate data set (boards ≈ 15 %).
        assert!(fb_email > 0.15);
        // Diagonal is 1 wherever the kind occurs.
        for (i, kind) in PiiKind::ALL.iter().enumerate() {
            let diag = m[i][i];
            assert!(
                diag == 0.0 || (diag - 1.0).abs() < 1e-12,
                "diagonal for {kind} = {diag}"
            );
        }
    }

    #[test]
    fn empty_input_is_safe() {
        let ex = PiiExtractor::new();
        let (cols, per_doc) = tabulate_pii(&ex, &[]);
        assert!(per_doc.is_empty());
        assert!(cols.iter().all(|c| c.size == 0));
        let m = co_occurrence_matrix(&per_doc);
        assert!(m.iter().flatten().all(|&v| v == 0.0));
    }
}
