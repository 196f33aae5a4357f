//! End-to-end integration: corpus generation → both filtering pipelines →
//! empirical characterization, asserting the paper's headline *shapes*.

use incite_analysis::{attack_types, harm_risk, overlap, pii_tables, repeats, threads};
use incite_core::{run_pipeline, PipelineConfig, Task};
use incite_corpus::{generate, Corpus, CorpusConfig, Document};
use incite_pii::PiiExtractor;
use incite_taxonomy::{AttackType, HarmRisk, Platform};

fn corpus() -> Corpus {
    generate(&CorpusConfig::small(0xE2E))
}

#[test]
fn full_study_reproduces_headline_shapes() {
    let corpus = corpus();

    // --- pipelines -------------------------------------------------------
    let pconfig = PipelineConfig::quick(11);
    let cth_out = run_pipeline(&corpus, Task::Cth, &pconfig).expect("pipeline scoring");
    let dox_out = run_pipeline(&corpus, Task::Dox, &pconfig).expect("pipeline scoring");

    // The dox task is the easier one (paper Table 3: F1 0.76 vs 0.63).
    let cth_auc = cth_out.eval.auc.unwrap_or(0.5);
    let dox_auc = dox_out.eval.auc.unwrap_or(0.5);
    assert!(dox_auc > 0.8, "dox AUC {dox_auc}");
    assert!(cth_auc > 0.7, "cth AUC {cth_auc}");

    // Funnels reduce the corpus by orders of magnitude.
    assert!(cth_out.counts.reduction_factor() > 10.0);
    assert!(dox_out.counts.reduction_factor() > 10.0);

    // --- characterization over the annotated sets -------------------------
    let cth_docs: Vec<&Document> =
        incite_analysis::resolve(&corpus, &cth_out.annotated_positive_ids())
            .into_iter()
            .filter(|d| d.truth.is_cth) // expert noise may admit a few FPs
            .collect();
    assert!(
        cth_docs.len() > 100,
        "too few annotated CTH: {}",
        cth_docs.len()
    );

    // Abstract headline: > 50 % of incitements include reporting calls.
    let reporting = cth_docs
        .iter()
        .filter(|d| d.truth.labels.contains_parent(AttackType::Reporting))
        .count();
    let frac = reporting as f64 / cth_docs.len() as f64;
    assert!(frac > 0.40, "reporting fraction {frac}");

    // Table 5: reporting is the top parent in every column.
    let columns = attack_types::tabulate(&cth_docs);
    for col in &columns {
        if col.size < 30 {
            continue;
        }
        let reporting = col.parent(AttackType::Reporting, &cth_docs);
        for parent in AttackType::ALL {
            assert!(
                col.parent(parent, &cth_docs) <= reporting,
                "{parent} tops reporting on {:?}",
                col.data_set
            );
        }
    }

    // --- dox side ----------------------------------------------------------
    let dox_docs: Vec<&Document> =
        incite_analysis::resolve(&corpus, &dox_out.annotated_positive_ids())
            .into_iter()
            .filter(|d| d.truth.is_dox)
            .collect();
    assert!(dox_docs.len() > 200);

    let extractor = PiiExtractor::new();
    let (pii_cols, _) = pii_tables::tabulate_pii(&extractor, &dox_docs);
    // Pastes column exists and carries rich PII.
    let pastes = pii_cols
        .iter()
        .find(|c| c.data_set == incite_taxonomy::DataSet::Pastes)
        .unwrap();
    assert!(pastes.size > 50);

    // Figure 2: online risk is the most common harm category.
    let (fig2, _) = harm_risk::figure2(&extractor, &dox_docs);
    let online = fig2.risk_total(HarmRisk::Online);
    assert!(online >= fig2.risk_total(HarmRisk::Physical));
    assert!(fig2.all_four() > 0, "no all-four-risk doxes found");

    // §7.3: repeats exist and stay on-platform.
    let stats = repeats::repeated_doxes(&extractor, &dox_docs);
    assert!(stats.repeated_fraction() > 0.02);

    // §6.3: thread overlap between the *above-threshold* sets is far above
    // trivial and in the paper's band.
    let ov = overlap::thread_overlap(
        &corpus,
        &cth_out.above_threshold_ids(),
        &dox_out.above_threshold_ids(),
    );
    if ov.cth_total > 50 {
        let f = ov.cth_with_dox_fraction();
        assert!((0.02..0.35).contains(&f), "overlap fraction {f}");
    }
}

#[test]
fn thread_analysis_matches_paper_shape() {
    let corpus = corpus();
    let board_cth: Vec<&Document> = corpus
        .by_platform(Platform::Boards)
        .filter(|d| d.truth.is_cth)
        .collect();

    let pos = threads::position_stats(&board_cth);
    // Calls rarely open or close threads (paper: 3.7 % / 2.7 %).
    assert!(pos.first_fraction < 0.10);
    assert!(pos.last_fraction < 0.10);

    // Figure 5: the CTH thread-size CDF is dominated by (lies below) the
    // baseline CDF at small sizes? In the paper both are similar with CTH
    // threads slightly larger; assert both curves are complete CDFs.
    let baseline = threads::baseline_sample(&corpus, 2_000, 12);
    let fig5 = threads::figure5(&board_cth, &baseline, 40);
    assert!((fig5.cth_curve.last().unwrap().1 - 1.0).abs() < 1e-9);
    assert!((fig5.baseline_curve.last().unwrap().1 - 1.0).abs() < 1e-9);
}

#[test]
fn pastes_never_enter_the_cth_pipeline() {
    let corpus = corpus();
    let out =
        run_pipeline(&corpus, Task::Cth, &PipelineConfig::quick(5)).expect("pipeline scoring");
    assert!(out
        .thresholds
        .iter()
        .all(|t| t.platform != Platform::Pastes));
    let paste_ids: std::collections::HashSet<_> =
        corpus.by_platform(Platform::Pastes).map(|d| d.id).collect();
    assert!(out
        .above_threshold_ids()
        .iter()
        .all(|id| !paste_ids.contains(id)));
}
