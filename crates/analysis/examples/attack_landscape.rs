//! Research scenario: characterize the attack landscape over an annotated
//! set of calls to harassment — the paper's §6 analysis as a library user
//! would run it. Renders Table 5 (parent attack types per data set), the
//! gender breakdown (Table 10 highlights), co-occurrence (§6.2), and the
//! thread-behaviour headlines (§6.3).
//!
//! ```text
//! cargo run --release --example attack_landscape
//! ```

use incite_analysis::{attack_types, gender, overlap, render, threads};
use incite_corpus::{generate, CorpusConfig};
use incite_taxonomy::{AttackType, DataSet, Gender, Platform, Subcategory};

fn main() {
    let corpus = generate(&CorpusConfig::small(808));
    let cth: Vec<&incite_corpus::Document> =
        corpus.documents.iter().filter(|d| d.truth.is_cth).collect();
    println!("Annotated calls to harassment: {}\n", cth.len());

    // Table 5: parent attack types per data set.
    let columns = attack_types::tabulate(&cth);
    let mut rows = vec![vec![
        "Attack Type".to_string(),
        "Boards".to_string(),
        "Chat".to_string(),
        "Gab".to_string(),
    ]];
    for parent in AttackType::ALL {
        let mut row = vec![parent.to_string()];
        for col in &columns {
            let n = col.parent(parent, &cth);
            row.push(render::count_pct(n, col.size));
        }
        rows.push(row);
    }
    println!("Table 5 — parent attack types per data set:");
    println!("{}", render::table(&rows));

    // §6.2 co-occurrence.
    let co = attack_types::co_occurrence(&cth);
    println!(
        "Multi-type calls: {} of {} ({:.1}%); two={}, three={}, four+={}",
        co.multi_label,
        co.total,
        100.0 * co.multi_label as f64 / co.total.max(1) as f64,
        co.exactly_two,
        co.exactly_three,
        co.four_or_more
    );
    println!(
        "surveillance∩content-leakage = {:.0}%   impersonation∩public-opinion = {:.0}%\n",
        100.0 * co.surveillance_with_leakage,
        100.0 * co.impersonation_with_pom
    );

    // Gender highlights (Table 10).
    let gcols = gender::tabulate_by_gender(&cth);
    println!("Inferred target gender (pronoun method, §5.6):");
    for col in &gcols {
        println!("  {:<8} {}", col.gender.to_string(), col.size);
    }
    let female = gcols.iter().find(|c| c.gender == Gender::Female).unwrap();
    let male = gcols.iter().find(|c| c.gender == Gender::Male).unwrap();
    println!(
        "  private reputational harm: female {:.1}% vs male {:.1}% (paper: 7.5% vs 3.0%)\n",
        female.percent(female.subcategory(Subcategory::ReputationalHarmPrivate)),
        male.percent(male.subcategory(Subcategory::ReputationalHarmPrivate)),
    );

    // Thread behaviour (§6.3) on boards ground truth.
    let board_cth: Vec<&incite_corpus::Document> = corpus
        .by_platform(Platform::Boards)
        .filter(|d| d.truth.is_cth)
        .collect();
    let pos = threads::position_stats(&board_cth);
    println!("Where calls appear inside board threads (n = {}):", pos.n);
    println!(
        "  first post {:.1}%  |  last post {:.1}%  |  median position {:.0}, mean {:.0}, σ {:.0}",
        100.0 * pos.first_fraction,
        100.0 * pos.last_fraction,
        pos.position.median,
        pos.position.mean,
        pos.position.std_dev
    );

    let baseline = threads::baseline_sample(&corpus, 2_000, 99);
    let tests = threads::response_size_tests(&board_cth, &baseline, 5, 0.1);
    println!(
        "\nResponse-size tests vs a {}-post random baseline (BH-corrected):",
        baseline.len()
    );
    for t in tests {
        match t.test {
            Some(r) => println!(
                "  {:<24} n={:<5} t={:>6.2}  p={:.4}{}",
                t.attack_type.to_string(),
                t.n,
                r.t,
                r.p_value,
                if t.significant { "  *significant*" } else { "" }
            ),
            None => println!(
                "  {:<24} n={:<5} (excluded: too few samples)",
                t.attack_type.to_string(),
                t.n
            ),
        }
    }

    // CTH ∩ dox overlap on ground truth.
    let cth_ids: Vec<_> = board_cth.iter().map(|d| d.id).collect();
    let dox_ids: Vec<_> = corpus
        .by_platform(Platform::Boards)
        .filter(|d| d.truth.is_dox)
        .map(|d| d.id)
        .collect();
    let ov = overlap::thread_overlap(&corpus, &cth_ids, &dox_ids);
    println!(
        "\nThread overlap: {:.1}% of calls share a thread with a dox (paper: 8.5%);",
        100.0 * ov.cth_with_dox_fraction()
    );
    println!(
        "{:.1}% of dox threads contain a call (paper: 17.9%); {} posts flagged as both.",
        100.0 * ov.dox_with_cth_fraction(),
        ov.both_documents
    );
    let _ = DataSet::ALL; // silence unused import on some feature sets
}
