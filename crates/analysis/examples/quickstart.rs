//! Quickstart: generate a synthetic multi-platform corpus, run both
//! filtering pipelines (calls to harassment + doxes), and print the
//! Figure 1-style funnel.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use incite_analysis::render;
use incite_core::{run_pipeline, PipelineConfig, Task};
use incite_corpus::{generate, CorpusConfig};

fn main() {
    // A small, seeded corpus: ~1/10,000 of the paper's volume with
    // positives at 10 % of the paper's annotated counts.
    let config = CorpusConfig::small(2024);
    println!("Generating synthetic corpus (seed {}) ...", config.seed);
    let corpus = generate(&config);
    println!("  {} documents across 6 platforms\n", corpus.len());

    // Table 1: raw data sets.
    let mut rows = vec![vec![
        "Data set".to_string(),
        "Posts".to_string(),
        "True CTH".to_string(),
        "True doxes".to_string(),
    ]];
    for row in corpus.summary() {
        let cth = corpus
            .by_data_set(row.data_set)
            .filter(|d| d.truth.is_cth)
            .count();
        let dox = corpus
            .by_data_set(row.data_set)
            .filter(|d| d.truth.is_dox)
            .count();
        rows.push(vec![
            row.data_set.to_string(),
            row.posts.to_string(),
            cth.to_string(),
            dox.to_string(),
        ]);
    }
    println!("{}", render::table(&rows));

    // Run both pipelines.
    for task in Task::ALL {
        println!("=== {task} pipeline ===");
        let outcome =
            run_pipeline(&corpus, task, &PipelineConfig::quick(7)).expect("pipeline scoring");
        let c = &outcome.counts;
        println!("  raw documents scanned : {}", c.raw_documents);
        println!("  bootstrap candidates  : {}", c.bootstrap_candidates);
        println!("  seed annotations      : {}", c.seed_annotations);
        println!("  crowd annotations     : {}", c.crowd_annotations);
        println!("  above thresholds      : {}", c.above_threshold);
        println!("  expert annotated      : {}", c.final_annotated);
        println!("  confirmed positives   : {}", c.true_positives);
        println!(
            "  final-stage precision : {:.1}%",
            100.0 * c.final_precision()
        );
        if let Some(auc) = outcome.eval.auc {
            println!("  held-out AUC-ROC      : {auc:.3}");
        }
        println!("  per-platform thresholds (Table 4 shape):");
        for t in &outcome.thresholds {
            println!(
                "    {:<9} t={:<5} above={:<6} annotated={:<6} true={}{}",
                t.platform.to_string(),
                t.threshold,
                t.above_threshold,
                t.annotated,
                t.true_positives,
                if t.exhaustive { " (exhaustive)" } else { "" }
            );
        }
        println!();
    }
    println!("Done. See the `repro` binary for full table/figure regeneration.");
}
