//! Cross-substrate check: the §5.6 extractors must recover the PII kinds the
//! corpus generator plants, meeting the paper's ≥95 % accuracy bar.

use incite_corpus::{generate, CorpusConfig};
use incite_pii::eval::evaluate_extractors;
use incite_pii::PiiExtractor;
use incite_taxonomy::pii_kind::PiiSet;

#[test]
fn extractors_meet_paper_accuracy_on_planted_doxes() {
    let corpus = generate(&CorpusConfig::tiny(77));
    let extractor = PiiExtractor::new();
    let sample: Vec<(&str, PiiSet)> = corpus
        .documents
        .iter()
        .filter(|d| d.truth.is_dox)
        .map(|d| (d.text.as_str(), d.truth.pii))
        .collect();
    assert!(
        sample.len() >= 30,
        "need a meaningful sample, got {}",
        sample.len()
    );
    let accs = evaluate_extractors(&extractor, &sample);
    for acc in &accs {
        assert!(
            acc.accuracy() >= 0.95,
            "{:?} accuracy {} below the paper's bar ({} / {})",
            acc.kind,
            acc.accuracy(),
            acc.correct,
            acc.total
        );
    }
}
