//! Victim-support scenario: an anti-harassment group receives a batch of
//! detected doxes and produces a per-target risk report — which harms the
//! exposed PII enables (§7.2), whether the target has been doxed before
//! (§7.3), and what to prioritize.
//!
//! Exercises: PII extraction, harm-risk assignment, gender inference, and
//! repeated-dox linking on real text.
//!
//! ```text
//! cargo run --release --example dox_response
//! ```

use incite_analysis::repeats::repeated_doxes;
use incite_corpus::{generate, CorpusConfig};
use incite_pii::{infer_gender, PiiExtractor};
use incite_taxonomy::harm::{HarmRisk, RiskSet};

fn main() {
    let corpus = generate(&CorpusConfig::small(31337));
    let extractor = PiiExtractor::new();

    // The "incoming batch": detected doxes from the pastes platform.
    let batch: Vec<&incite_corpus::Document> = corpus
        .by_platform(incite_taxonomy::Platform::Pastes)
        .filter(|d| d.truth.is_dox)
        .take(8)
        .collect();
    println!("Incoming batch: {} detected doxes\n", batch.len());

    for (i, doc) in batch.iter().enumerate() {
        let matches = extractor.extract(&doc.text);
        let pii = extractor.pii_set(&doc.text);
        let risks = RiskSet::from_pii(pii, doc.truth.reputation_flag);
        let gender = infer_gender(&doc.text);
        println!("case #{:02}  (doc {})", i + 1, doc.id.0);
        println!(
            "  exposed PII   : {} spans / {} kinds",
            matches.len(),
            pii.len()
        );
        for kind in pii.iter() {
            println!("    - {kind}");
        }
        let risk_list: Vec<String> = risks.iter().map(|r| r.to_string()).collect();
        println!(
            "  harm risks    : {}",
            if risk_list.is_empty() {
                "none detected".to_string()
            } else {
                risk_list.join(", ")
            }
        );
        println!("  target gender : {gender} (pronoun inference)");
        let advice = if risks.contains(HarmRisk::Physical) {
            "physical-safety escalation: address exposed"
        } else if risks.contains(HarmRisk::EconomicIdentity) {
            "financial-identity escalation: freeze/monitor identifiers"
        } else if risks.contains(HarmRisk::Online) {
            "account hardening: lock down exposed profiles"
        } else {
            "monitor only"
        };
        println!("  triage        : {advice}\n");
    }

    // Repeated-target check across the whole detected set.
    let all_doxes: Vec<&incite_corpus::Document> =
        corpus.documents.iter().filter(|d| d.truth.is_dox).collect();
    let stats = repeated_doxes(&extractor, &all_doxes);
    println!("Repeated-target scan over {} doxes:", stats.total);
    println!(
        "  {} doxes ({:.1}%) repeat a known target across {} handle groups",
        stats.repeated,
        100.0 * stats.repeated_fraction(),
        stats.repeated_targets
    );
    println!(
        "  {:.0}% of repeats stay on one platform family (paper: 98%)",
        100.0 * stats.same_data_set_fraction()
    );
}
