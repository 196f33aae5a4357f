//! One regeneration function per paper table/figure (DESIGN.md §4).
//!
//! Every experiment prints a *measured* block computed from the synthetic
//! corpus / pipeline run, next to the *paper* reference values from
//! [`incite_taxonomy::calibration`], so EXPERIMENTS.md can be regenerated
//! mechanically.

use crate::context::ReproContext;
use incite_analysis::{
    attack_types, blogs, gender, harm_risk, overlap, pii_tables, render, repeats, threads,
};
use incite_core::query::figure4_query;
use incite_corpus::Document;
use incite_pii::eval::{evaluate_extractors, evaluate_gender};
use incite_pii::PiiExtractor;
use incite_taxonomy::harm::RiskSet;
use incite_taxonomy::{
    calibration, AttackType, DataSet, Gender, HarmRisk, PiiKind, Platform, Subcategory,
};
use std::fmt::Write as _;

/// `(id, description)` for every experiment, in paper order.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "Raw data set sizes and date ranges"),
    ("figure1", "Pipeline stage counts (both pipelines)"),
    ("figure4", "Bootstrap keyword query yield"),
    ("table2", "Training-set sizes per task and platform"),
    ("table3", "Classifier performance (held-out)"),
    ("table4", "Threshold selection per platform"),
    ("table5", "Parent attack types per data set"),
    ("table6", "PII in doxes per data set"),
    ("table7", "Harm-risk taxonomy mapping"),
    ("figure2", "Harm-risk combination overlap"),
    ("table8", "Blog analysis overview"),
    ("table9", "Blog attack registers"),
    ("table10", "Attack taxonomy by inferred gender"),
    ("table11", "Full attack taxonomy per data set"),
    ("figure5", "Thread-size CDF: CTH vs baseline"),
    ("figure6", "Thread sizes per attack type"),
    ("sec5_3", "Crowd annotation agreement"),
    ("sec5_6", "PII extractor and gender-inference accuracy"),
    ("sec6_2", "Attack-type statistics and co-occurrence"),
    ("sec6_3", "CTH thread analysis and CTH/dox overlap"),
    ("sec7_1", "PII co-occurrence"),
    ("sec7_3", "Repeated doxes"),
    ("sec7_4", "Dox thread analysis"),
    (
        "ablations",
        "Quality ablations for DESIGN.md \u{a7}5 design choices",
    ),
    (
        "checkpoint_overhead",
        "Plain vs checkpointed resumable pipeline (BENCH line)",
    ),
    (
        "swap_availability",
        "Hot model swap under serve load (BENCH line)",
    ),
    (
        "lint_throughput",
        "incite-lint engine self-scan (BENCH line)",
    ),
    (
        "extension_attack_types",
        "\u{a7}9.2 extension: per-attack-type classifiers",
    ),
    (
        "extension_longitudinal",
        "\u{a7}9.2 extension: longitudinal growth analysis",
    ),
];

/// Runs one experiment by id. Returns `None` for unknown ids.
pub fn run_experiment(id: &str, ctx: &mut ReproContext) -> Option<String> {
    let out = match id {
        "table1" => table1(ctx),
        "figure1" => figure1(ctx),
        "figure4" => figure4(ctx),
        "table2" => table2(ctx),
        "table3" => table3(ctx),
        "table4" => table4(ctx),
        "table5" => table5(ctx),
        "table6" => table6(ctx),
        "table7" => table7(),
        "figure2" => figure2(ctx),
        "table8" => table8(ctx),
        "table9" => table9(ctx),
        "table10" => table10(ctx),
        "table11" => table11(ctx),
        "figure5" => figure5(ctx),
        "figure6" => figure6(ctx),
        "sec5_3" => sec5_3(ctx),
        "sec5_6" => sec5_6(ctx),
        "sec6_2" => sec6_2(ctx),
        "sec6_3" => sec6_3(ctx),
        "sec7_1" => sec7_1(ctx),
        "sec7_3" => sec7_3(ctx),
        "sec7_4" => sec7_4(ctx),
        "ablations" => crate::ablations::run(ctx),
        "checkpoint_overhead" => crate::checkpoint_overhead::run(ctx),
        "swap_availability" => crate::swap_availability::run(ctx),
        "lint_throughput" => crate::lint_throughput::run(ctx),
        "extension_attack_types" => extension_attack_types(ctx),
        "extension_longitudinal" => extension_longitudinal(ctx),
        _ => return None,
    };
    Some(out)
}

fn header(title: &str) -> String {
    format!("\n================ {title} ================\n")
}

// --------------------------------------------------------------------------
// Table 1
// --------------------------------------------------------------------------

fn table1(ctx: &mut ReproContext) -> String {
    let mut s = header("Table 1 — raw data sets");
    let mut rows = vec![vec![
        "Data set".into(),
        "Posts (measured)".into(),
        "Posts (paper)".into(),
        "Min year".into(),
        "Max year".into(),
    ]];
    for summary in ctx.corpus.summary() {
        let paper = calibration::TABLE1
            .iter()
            .find(|r| r.data_set == summary.data_set)
            .unwrap();
        rows.push(vec![
            summary.data_set.to_string(),
            summary.posts.to_string(),
            paper.posts.to_string(),
            year(summary.min_timestamp),
            year(summary.max_timestamp),
        ]);
    }
    s.push_str(&render::table(&rows));
    let _ = writeln!(
        s,
        "(measured counts are paper volume × scale; blogs use their own scale — DESIGN.md §2)"
    );
    s
}

fn year(ts: u64) -> String {
    // Good enough for a report: 1970 + ts/365.25d.
    let y = 1970 + (ts as f64 / 31_557_600.0) as u64;
    y.to_string()
}

// --------------------------------------------------------------------------
// Figure 1 / Figure 4
// --------------------------------------------------------------------------

fn figure1(ctx: &mut ReproContext) -> String {
    let mut s = header("Figure 1 — pipeline stage counts");
    let cth = ctx.cth().counts.clone();
    let dox = ctx.dox().counts.clone();
    let rows = vec![
        vec![
            "Stage".into(),
            "CTH pipeline".into(),
            "Dox pipeline".into(),
            "Paper (CTH/Dox)".into(),
        ],
        vec![
            "raw documents".into(),
            cth.raw_documents.to_string(),
            dox.raw_documents.to_string(),
            "~560M / ~560M".into(),
        ],
        vec![
            "seed annotations".into(),
            cth.seed_annotations.to_string(),
            dox.seed_annotations.to_string(),
            "1,371 / 11,614".into(),
        ],
        vec![
            "crowd annotations".into(),
            cth.crowd_annotations.to_string(),
            dox.crowd_annotations.to_string(),
            "26.35K / 79.37K".into(),
        ],
        vec![
            "above threshold".into(),
            cth.above_threshold.to_string(),
            dox.above_threshold.to_string(),
            "38.09K / 70.82K".into(),
        ],
        vec![
            "final annotated".into(),
            cth.final_annotated.to_string(),
            dox.final_annotated.to_string(),
            "10.42K / 9.84K".into(),
        ],
        vec![
            "true positives".into(),
            cth.true_positives.to_string(),
            dox.true_positives.to_string(),
            "6.25K / 8.43K".into(),
        ],
    ];
    s.push_str(&render::table(&rows));
    let _ = writeln!(
        s,
        "final precision: CTH {:.1}% (paper 60.0%), dox {:.1}% (paper 85.6%)",
        100.0 * cth.final_precision(),
        100.0 * dox.final_precision()
    );
    s
}

fn figure4(ctx: &mut ReproContext) -> String {
    let mut s = header("Figure 4 — bootstrap keyword query");
    let query = figure4_query();
    let boards: Vec<&Document> = ctx.corpus.by_platform(Platform::Boards).collect();
    let hits: Vec<&&Document> = boards.iter().filter(|d| query.matches(&d.text)).collect();
    let true_hits = hits.iter().filter(|d| d.truth.is_cth).count();
    let cth_total = boards.iter().filter(|d| d.truth.is_cth).count();
    let _ = writeln!(s, "boards documents scanned : {}", boards.len());
    let _ = writeln!(s, "query matches            : {}", hits.len());
    let _ = writeln!(
        s,
        "query precision          : {:.1}% ({} true CTH among matches)",
        100.0 * true_hits as f64 / hits.len().max(1) as f64,
        true_hits
    );
    let _ = writeln!(
        s,
        "query recall on planted  : {:.1}% ({} of {})",
        100.0 * true_hits as f64 / cth_total.max(1) as f64,
        true_hits,
        cth_total
    );
    let _ = writeln!(
        s,
        "(the paper used the seed query for initial annotation only; Figure 4)"
    );
    s
}

// --------------------------------------------------------------------------
// Tables 2–4
// --------------------------------------------------------------------------

fn table2(ctx: &mut ReproContext) -> String {
    let mut s = header("Table 2 — training-set sizes");
    let cth = ctx.cth().training_by_platform.clone();
    let dox = ctx.dox().training_by_platform.clone();
    let mut rows = vec![vec![
        "Platform".into(),
        "Dox +".into(),
        "Dox -".into(),
        "CTH +".into(),
        "CTH -".into(),
    ]];
    for platform in Platform::ALL {
        let d = dox.get(&platform).copied().unwrap_or((0, 0));
        let c = cth.get(&platform).copied().unwrap_or((0, 0));
        if d == (0, 0) && c == (0, 0) {
            continue;
        }
        rows.push(vec![
            platform.to_string(),
            d.0.to_string(),
            d.1.to_string(),
            c.0.to_string(),
            c.1.to_string(),
        ]);
    }
    s.push_str(&render::table(&rows));
    let _ = writeln!(
        s,
        "paper totals: dox 3,870+ / 75,504-; CTH 1,724+ / 24,629- (Table 2)"
    );
    s
}

fn table3(ctx: &mut ReproContext) -> String {
    let mut s = header("Table 3 — classifier performance (held-out)");
    let mut rows = vec![vec![
        "Classifier".into(),
        "Label".into(),
        "F1".into(),
        "Precision".into(),
        "Recall".into(),
        "Paper F1".into(),
    ]];
    {
        let dox = ctx.dox().eval.clone();
        let m = dox.metrics;
        rows.push(vec![
            "Doxing".into(),
            "Dox".into(),
            f2(m.positive.f1),
            f2(m.positive.precision),
            f2(m.positive.recall),
            "0.76".into(),
        ]);
        rows.push(vec![
            "".into(),
            "No Dox".into(),
            f2(m.negative.f1),
            f2(m.negative.precision),
            f2(m.negative.recall),
            "0.99".into(),
        ]);
        rows.push(vec![
            "".into(),
            "Macro Avg.".into(),
            f2(m.macro_avg.f1),
            f2(m.macro_avg.precision),
            f2(m.macro_avg.recall),
            "0.88".into(),
        ]);
    }
    {
        let cth = ctx.cth().eval.clone();
        let m = cth.metrics;
        rows.push(vec![
            "CTH".into(),
            "CTH".into(),
            f2(m.positive.f1),
            f2(m.positive.precision),
            f2(m.positive.recall),
            "0.63".into(),
        ]);
        rows.push(vec![
            "".into(),
            "No CTH".into(),
            f2(m.negative.f1),
            f2(m.negative.precision),
            f2(m.negative.recall),
            "0.97".into(),
        ]);
        rows.push(vec![
            "".into(),
            "Macro Avg.".into(),
            f2(m.macro_avg.f1),
            f2(m.macro_avg.precision),
            f2(m.macro_avg.recall),
            "0.80".into(),
        ]);
    }
    s.push_str(&render::table(&rows));
    let dox_auc = ctx.dox().eval.auc;
    let cth_auc = ctx.cth().eval.auc;
    let _ = writeln!(
        s,
        "AUC-ROC: dox {} / CTH {}  (paper optimizes AUC but prints F1; dox > CTH expected)",
        dox_auc.map(|a| format!("{a:.3}")).unwrap_or("n/a".into()),
        cth_auc.map(|a| format!("{a:.3}")).unwrap_or("n/a".into()),
    );
    s
}

fn f2(x: f64) -> String {
    format!("{x:.2}")
}

fn table4(ctx: &mut ReproContext) -> String {
    let mut s = header("Table 4 — thresholds per platform");
    for (task_name, thresholds, paper) in [
        (
            "Doxing",
            ctx.dox().thresholds.clone(),
            &calibration::TABLE4_DOX[..],
        ),
        (
            "Call to harassment",
            ctx.cth().thresholds.clone(),
            &calibration::TABLE4_CTH[..],
        ),
    ] {
        let _ = writeln!(s, "\n{task_name}:");
        let mut rows = vec![vec![
            "Platform".into(),
            "t".into(),
            "Above".into(),
            "Annotated".into(),
            "True+".into(),
            "Paper (t / above / true+)".into(),
        ]];
        for row in &thresholds {
            let p = paper.iter().find(|p| p.platform == row.platform.slug());
            rows.push(vec![
                row.platform.to_string(),
                format!("{}", row.threshold),
                row.above_threshold.to_string(),
                format!("{}{}", row.annotated, if row.exhaustive { "*" } else { "" }),
                row.true_positives.to_string(),
                p.map(|p| {
                    format!(
                        "{} / {} / {}",
                        p.threshold, p.above_threshold, p.true_positive
                    )
                })
                .unwrap_or_default(),
            ]);
        }
        s.push_str(&render::table(&rows));
    }
    s.push_str("* exhaustive annotation (every document above the threshold)\n");
    s
}

// --------------------------------------------------------------------------
// Tables 5 / 10 / 11 — attack taxonomy
// --------------------------------------------------------------------------

fn table5(ctx: &mut ReproContext) -> String {
    let mut s = header("Table 5 — parent attack types per data set");
    let docs = ctx.annotated_cth();
    let columns = attack_types::tabulate(&docs);
    let mut rows = vec![vec![
        "Attack Type".into(),
        "Boards".into(),
        "Chat".into(),
        "Gab".into(),
        "Paper (Boards/Chat/Gab %)".into(),
    ]];
    for parent in AttackType::ALL {
        let mut row = vec![parent.to_string()];
        for col in &columns {
            row.push(render::count_pct(col.parent(parent, &docs), col.size));
        }
        let paper: Vec<String> = [DataSet::Boards, DataSet::Chat, DataSet::Gab]
            .iter()
            .map(|ds| {
                let total = calibration::CTH_SIZE
                    .iter()
                    .find(|(d, _)| d == ds)
                    .unwrap()
                    .1;
                let count = calibration::table11_parent_total(*ds, parent);
                format!("{:.1}", 100.0 * count as f64 / total as f64)
            })
            .collect();
        row.push(paper.join("/"));
        rows.push(row);
    }
    s.push_str(&render::table(&rows));
    s
}

fn table10(ctx: &mut ReproContext) -> String {
    let mut s = header("Table 10 — taxonomy by inferred gender");
    let docs = ctx.annotated_cth();
    let columns = gender::tabulate_by_gender(&docs);
    let sizes: Vec<String> = columns.iter().map(|c| c.size.to_string()).collect();
    let _ = writeln!(
        s,
        "column sizes (Unknown/Female/Male): measured {} — paper 2,711 / 1,160 / 2,383",
        sizes.join(" / ")
    );
    let mut rows = vec![vec![
        "Subcategory".into(),
        "Unknown".into(),
        "Female".into(),
        "Male".into(),
        "Paper (U/F/M)".into(),
    ]];
    for sub in Subcategory::ALL {
        let mut row = vec![sub.to_string()];
        for col in &columns {
            row.push(render::count_pct(col.subcategory(sub), col.size));
        }
        let paper_row = calibration::TABLE10
            .iter()
            .find(|r| r.subcategory == sub)
            .unwrap();
        row.push(format!(
            "{}/{}/{}",
            paper_row.unknown, paper_row.female, paper_row.male
        ));
        rows.push(row);
    }
    s.push_str(&render::table(&rows));
    s
}

fn table11(ctx: &mut ReproContext) -> String {
    let mut s = header("Table 11 — full taxonomy per data set");
    let docs = ctx.annotated_cth();
    let columns = attack_types::tabulate(&docs);
    let mut rows = vec![vec![
        "Subcategory".into(),
        "Boards".into(),
        "Chat".into(),
        "Gab".into(),
        "Paper (B/C/G)".into(),
    ]];
    for sub in Subcategory::ALL {
        let mut row = vec![sub.to_string()];
        for col in &columns {
            row.push(render::count_pct(col.subcategory(sub), col.size));
        }
        let p = calibration::TABLE11
            .iter()
            .find(|r| r.subcategory == sub)
            .unwrap();
        row.push(format!("{}/{}/{}", p.boards, p.chat, p.gab));
        rows.push(row);
    }
    s.push_str(&render::table(&rows));
    s
}

// --------------------------------------------------------------------------
// Table 6 / 7 / Figure 2 — dox PII and harm
// --------------------------------------------------------------------------

fn table6(ctx: &mut ReproContext) -> String {
    let mut s = header("Table 6 — PII in doxes per data set");
    let docs = ctx.annotated_doxes();
    let extractor = PiiExtractor::new();
    let (columns, _) = pii_tables::tabulate_pii(&extractor, &docs);
    let mut rows = vec![vec![
        "PII".into(),
        "Boards".into(),
        "Chat".into(),
        "Gab".into(),
        "Pastes".into(),
        "Paper % (B/C/G/P)".into(),
    ]];
    for kind in PiiKind::ALL {
        let mut row = vec![kind.to_string()];
        for col in &columns {
            row.push(render::count_pct(col.count(kind), col.size));
        }
        let p = calibration::TABLE6.iter().find(|r| r.kind == kind).unwrap();
        let pct = |count: u32, ds: DataSet| {
            let size = calibration::DOX_SIZE
                .iter()
                .find(|(d, _)| *d == ds)
                .unwrap()
                .1;
            format!("{:.1}", 100.0 * count as f64 / size as f64)
        };
        row.push(format!(
            "{}/{}/{}/{}",
            pct(p.boards, DataSet::Boards),
            pct(p.chat, DataSet::Chat),
            pct(p.gab, DataSet::Gab),
            pct(p.pastes, DataSet::Pastes)
        ));
        rows.push(row);
    }
    s.push_str(&render::table(&rows));
    s
}

fn table7() -> String {
    let mut s = header("Table 7 — harm-risk taxonomy");
    let mut rows = vec![vec!["Harm Risk".into(), "Triggering PII".into()]];
    for risk in HarmRisk::ALL {
        let kinds: Vec<String> = risk.trigger_kinds().iter().map(|k| k.to_string()).collect();
        rows.push(vec![
            risk.to_string(),
            if kinds.is_empty() {
                "family / employer information (manual annotation)".into()
            } else {
                kinds.join(", ")
            },
        ]);
    }
    s.push_str(&render::table(&rows));
    s.push_str("(static mapping; assignment measured in Figure 2)\n");
    s
}

fn figure2(ctx: &mut ReproContext) -> String {
    let mut s = header("Figure 2 — harm-risk overlap");
    let docs = ctx.annotated_doxes();
    let extractor = PiiExtractor::new();
    let (fig, per_doc) = harm_risk::figure2(&extractor, &docs);
    let _ = writeln!(s, "doxes analyzed: {}", fig.total);
    let mut rows: Vec<(String, usize)> = Vec::new();
    for bits in 0u8..16 {
        let set = RiskSet::from_bits(bits);
        let label = if set.is_empty() {
            "none".to_string()
        } else {
            set.iter()
                .map(|r| r.slug().chars().next().unwrap().to_string())
                .collect::<Vec<_>>()
                .join("+")
        };
        let count = fig.combination(set);
        if count > 0 {
            rows.push((label, count));
        }
    }
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    s.push_str(&render::bar_chart(&rows, 40));
    let _ = writeln!(s, "\nper-risk totals (paper: Physical 3,518 / Economic 2,443 / Online 3,959 / Reputation 3,601 of 8,425):");
    for risk in HarmRisk::ALL {
        let _ = writeln!(
            s,
            "  {:<20} {}",
            risk.to_string(),
            render::count_pct(fig.risk_total(risk), fig.total)
        );
    }
    let _ = writeln!(
        s,
        "all four risks: {} (paper: 970 = 11.5%)",
        render::count_pct(fig.all_four(), fig.total)
    );
    let obs = harm_risk::observations(&docs, &per_doc);
    let _ = writeln!(
        s,
        "Discord doxes with no indicator: {:.0}% (paper: >50%)  |  all-four from pastes: {:.0}% (paper: 73%)",
        100.0 * obs.discord_no_indicator,
        100.0 * obs.all_four_from_pastes
    );
    s
}

// --------------------------------------------------------------------------
// Tables 8 / 9 — blogs
// --------------------------------------------------------------------------

fn table8(ctx: &mut ReproContext) -> String {
    let mut s = header("Table 8 — blog analysis");
    let rows8 = blogs::table8(&ctx.corpus);
    let mut rows = vec![vec![
        "Blog".into(),
        "Posts".into(),
        "Relevant".into(),
        "Actual doxes".into(),
        "Query recall".into(),
        "Paper (posts/relevant/doxes)".into(),
    ]];
    for r in &rows8 {
        let paper = calibration::blogs::TABLE8
            .iter()
            .find(|p| {
                p.name
                    .to_lowercase()
                    .replace(' ', "_")
                    .contains(&r.blog[..4.min(r.blog.len())])
                    || r.blog.contains(&p.name.to_lowercase().replace(' ', "_"))
            })
            .map(|p| format!("{}/{}/{}", p.total_posts, p.relevant, p.actual_doxes))
            .unwrap_or_default();
        rows.push(vec![
            r.blog.clone(),
            r.total_posts.to_string(),
            r.relevant.to_string(),
            r.actual_doxes.to_string(),
            format!("{:.0}%", 100.0 * r.query_recall()),
            paper,
        ]);
    }
    s.push_str(&render::table(&rows));
    let _ = writeln!(
        s,
        "(paper: the keyword query missed 10 of 33 Torch doxes — recall 70%)"
    );
    s
}

fn table9(ctx: &mut ReproContext) -> String {
    let mut s = header("Table 9 — blog attack registers");
    let stats = blogs::register_stats(&ctx.corpus);
    let _ = writeln!(
        s,
        "Daily Stormer doxes with a call to overload: {} of {} ({:.0}%; paper: 60%)",
        stats.stormer_with_overload,
        stats.stormer_doxes,
        100.0 * stats.stormer_with_overload as f64 / stats.stormer_doxes.max(1) as f64
    );
    let _ = writeln!(
        s,
        "mean PII kinds per dox: antifascist blogs {:.1} vs Daily Stormer {:.1} (paper: Stormer doxes carry less PII)",
        stats.antifascist_mean_pii, stats.stormer_mean_pii
    );
    s.push_str("qualitative register (paper Table 9): antifascist = narration + extensive PII +\n");
    s.push_str("community alert; Stormer = narration + single contact + raid/spam call.\n");
    s
}

// --------------------------------------------------------------------------
// Figures 5 / 6 + thread sections
// --------------------------------------------------------------------------

fn board_cth(ctx: &ReproContext) -> Vec<&Document> {
    ctx.corpus
        .by_platform(Platform::Boards)
        .filter(|d| d.truth.is_cth)
        .collect()
}

fn board_dox(ctx: &ReproContext) -> Vec<&Document> {
    ctx.corpus
        .by_platform(Platform::Boards)
        .filter(|d| d.truth.is_dox)
        .collect()
}

fn figure5(ctx: &mut ReproContext) -> String {
    let mut s = header("Figure 5 — thread-size CDF (CTH vs baseline)");
    let cth = board_cth(ctx);
    let baseline = threads::baseline_sample(&ctx.corpus, 5_000, 1234);
    let fig = threads::figure5(&cth, &baseline, 48);
    s.push_str(&render::cdf_sketch(
        &[("CTH", &fig.cth_curve), ("Baseline", &fig.baseline_curve)],
        48,
    ));
    for q in [0.25, 0.5, 0.75, 0.9] {
        let at = |curve: &[(f64, f64)]| {
            curve
                .iter()
                .find(|(_, y)| *y >= q)
                .map(|(x, _)| format!("{x:.0}"))
                .unwrap_or("-".into())
        };
        let _ = writeln!(
            s,
            "  q{}: CTH thread ≤ {} posts | baseline ≤ {} posts",
            (q * 100.0) as u32,
            at(&fig.cth_curve),
            at(&fig.baseline_curve)
        );
    }
    s.push_str("(paper: the two CDFs nearly coincide over 1..10^3; x is log-scaled)\n");
    s
}

fn figure6(ctx: &mut ReproContext) -> String {
    let mut s = header("Figure 6 — thread sizes per attack type");
    let cth = board_cth(ctx);
    let baseline = threads::baseline_sample(&ctx.corpus, 5_000, 1234);
    let rows6 = threads::figure6(&cth, &baseline);
    let mut rows = vec![vec![
        "Attack type".into(),
        "n".into(),
        "Q1".into(),
        "Median".into(),
        "Q3".into(),
    ]];
    for r in rows6 {
        rows.push(vec![
            r.attack_type
                .map(|a| a.to_string())
                .unwrap_or("Baseline".into()),
            r.n.to_string(),
            format!("{:.0}", r.q1),
            format!("{:.0}", r.median),
            format!("{:.0}", r.q3),
        ]);
    }
    s.push_str(&render::table(&rows));
    s.push_str("(paper Figure 6: box plots; toxic-content threads skew largest)\n");
    s
}

// --------------------------------------------------------------------------
// Section statistics
// --------------------------------------------------------------------------

fn sec5_3(ctx: &mut ReproContext) -> String {
    let mut s = header("§5.3 — crowd annotation agreement");
    for (name, rounds, paper_dis, paper_kappa) in [
        (
            "CTH",
            ctx.cth().rounds.clone(),
            calibration::annotation::CTH_DISAGREEMENT,
            calibration::annotation::CTH_CROWD_KAPPA,
        ),
        (
            "Dox",
            ctx.dox().rounds.clone(),
            calibration::annotation::DOX_DISAGREEMENT,
            calibration::annotation::DOX_CROWD_KAPPA,
        ),
    ] {
        for (i, round) in rounds.iter().enumerate() {
            let _ = writeln!(
                s,
                "{name} round {}: {} sampled, disagreement {:.1}% (paper {:.1}%), kappa {} (paper {:.3})",
                i + 1,
                round.sampled,
                100.0 * round.disagreement_rate,
                100.0 * paper_dis,
                round.kappa.map(|k| format!("{k:.3}")).unwrap_or("n/a".into()),
                paper_kappa,
            );
        }
    }
    s.push_str("(crowd disagreement reflects task difficulty: CTH >> dox, as in the paper)\n");
    s
}

fn sec5_6(ctx: &mut ReproContext) -> String {
    let mut s = header("§5.6 — extractor and gender accuracy");
    let extractor = PiiExtractor::new();
    // Paper evaluates on 98 true-positive pastes doxes.
    let sample: Vec<(&str, incite_taxonomy::pii_kind::PiiSet)> = ctx
        .corpus
        .by_platform(Platform::Pastes)
        .filter(|d| d.truth.is_dox)
        .take(98)
        .map(|d| (d.text.as_str(), d.truth.pii))
        .collect();
    let accs = evaluate_extractors(&extractor, &sample);
    let mut perfect = 0;
    for acc in &accs {
        if acc.accuracy() >= 1.0 {
            perfect += 1;
        }
        let _ = writeln!(
            s,
            "  {:<12} accuracy {:.1}% ({} / {})",
            acc.kind.to_string(),
            100.0 * acc.accuracy(),
            acc.correct,
            acc.total
        );
    }
    let _ = writeln!(
        s,
        "extractors at 100%: {perfect} of 9 (paper: 7 of 12 expressions; all ≥ 95%)"
    );
    // Gender: paper evaluates on 123 pronoun-bearing doxes.
    let gsample: Vec<(&str, Gender)> = ctx
        .corpus
        .by_platform(Platform::Pastes)
        .filter(|d| d.truth.is_dox && d.truth.gender != Gender::Unknown)
        .take(123)
        .map(|d| (d.text.as_str(), d.truth.gender))
        .collect();
    let (correct, total) = evaluate_gender(&gsample);
    let _ = writeln!(
        s,
        "pronoun gender inference: {:.1}% ({} / {}) — paper: 94.3%",
        100.0 * correct as f64 / total.max(1) as f64,
        correct,
        total
    );
    s
}

fn sec6_2(ctx: &mut ReproContext) -> String {
    let mut s = header("§6.2 — attack-type statistics");
    let docs = ctx.annotated_cth();
    let co = attack_types::co_occurrence(&docs);
    let _ = writeln!(
        s,
        "multi-type calls: {} of {} ({:.1}%; paper 13.3%) — two {} / three {} / four+ {}",
        co.multi_label,
        co.total,
        100.0 * co.multi_label as f64 / co.total.max(1) as f64,
        co.exactly_two,
        co.exactly_three,
        co.four_or_more
    );
    let _ = writeln!(
        s,
        "surveillance ∩ content leakage: {:.0}% (paper 64%)  |  impersonation ∩ POM: {:.0}% (paper 30%)",
        100.0 * co.surveillance_with_leakage,
        100.0 * co.impersonation_with_pom
    );
    let columns = attack_types::tabulate(&docs);
    let comps = attack_types::reporting_comparisons(&columns, 0.1);
    s.push_str("\nreporting subcategories across data sets (one-way chi-square, BH-corrected):\n");
    for c in comps {
        let _ = writeln!(
            s,
            "  {:<32} {}",
            c.subcategory.to_string(),
            match c.test {
                Some(t) => format!(
                    "chi2 = {:>8.2}, p = {:.4}{}",
                    t.statistic,
                    t.p_value,
                    if c.significant { "  *significant*" } else { "" }
                ),
                None => "n/a".into(),
            }
        );
    }
    s.push_str("(paper: nearly all reporting differences significant at p < 0.01)\n");

    // Gender difference test.
    let gcols = gender::tabulate_by_gender(&docs);
    if let Some(test) = gender::private_reputation_gender_test(&gcols) {
        let female = gcols.iter().find(|c| c.gender == Gender::Female).unwrap();
        let male = gcols.iter().find(|c| c.gender == Gender::Male).unwrap();
        let _ = writeln!(
            s,
            "\nprivate reputational harm: female {:.1}% vs male {:.1}% (paper 7.5% vs 3.0%), chi2 = {:.2}, p = {:.4}",
            female.percent(female.subcategory(Subcategory::ReputationalHarmPrivate)),
            male.percent(male.subcategory(Subcategory::ReputationalHarmPrivate)),
            test.statistic,
            test.p_value
        );
    }
    s
}

fn sec6_3(ctx: &mut ReproContext) -> String {
    let mut s = header("§6.3 — CTH thread analysis");
    let cth = board_cth(ctx);
    let pos = threads::position_stats(&cth);
    let _ = writeln!(
        s,
        "first post: {:.1}% (paper 3.7%) | last post: {:.1}% (paper 2.7%)",
        100.0 * pos.first_fraction,
        100.0 * pos.last_fraction
    );
    let _ = writeln!(
        s,
        "position median {:.0} / mean {:.0} / σ {:.0} (paper 70 / 145 / 263)",
        pos.position.median, pos.position.mean, pos.position.std_dev
    );

    let baseline = threads::baseline_sample(&ctx.corpus, 5_000, 55);
    let tests = threads::response_size_tests(&cth, &baseline, 5, 0.1);
    s.push_str("\nresponse-size tests (log sizes, Welch vs baseline, BH 0.1):\n");
    for t in tests {
        match t.test {
            Some(r) => {
                let _ = writeln!(
                    s,
                    "  {:<24} n={:<5} t={:>6.2}  p={:.4}  rank-p={}{}",
                    t.attack_type.to_string(),
                    t.n,
                    r.t,
                    r.p_value,
                    t.rank_p.map(|p| format!("{p:.4}")).unwrap_or("n/a".into()),
                    if t.significant { "  *significant*" } else { "" }
                );
            }
            None => {
                let _ = writeln!(
                    s,
                    "  {:<24} n={:<5} excluded",
                    t.attack_type.to_string(),
                    t.n
                );
            }
        }
    }
    s.push_str("(paper: only toxic content significant, t = 2.85, p < 0.01)\n");

    // Overlap on the above-threshold sets, exactly as the paper computes it.
    let cth_ids = ctx.cth().above_threshold_ids();
    let dox_ids = ctx.dox().above_threshold_ids();
    let ov = overlap::thread_overlap(&ctx.corpus, &cth_ids, &dox_ids);
    let _ = writeln!(
        s,
        "\nCTH sharing a thread with a dox: {:.2}% (paper 8.53%)",
        100.0 * ov.cth_with_dox_fraction()
    );
    let _ = writeln!(
        s,
        "dox threads containing a CTH:   {:.2}% (paper 17.85%)",
        100.0 * ov.dox_with_cth_fraction()
    );
    let _ = writeln!(
        s,
        "documents in both sets: {} (paper: 95) | thread base rates CTH {:.2}% / dox {:.2}% (paper 0.20% / 0.10% at full scale)",
        ov.both_documents,
        100.0 * ov.cth_thread_base_rate,
        100.0 * ov.dox_thread_base_rate
    );
    s
}

fn sec7_1(ctx: &mut ReproContext) -> String {
    let mut s = header("§7.1 — PII co-occurrence");
    let docs = ctx.annotated_doxes();
    let extractor = PiiExtractor::new();
    let (_, per_doc) = pii_tables::tabulate_pii(&extractor, &docs);
    let matrix = pii_tables::co_occurrence_matrix(&per_doc);
    s.push_str(
        "P(column | row) for contact PII (paper: addresses/phones/emails co-occur > 35%):\n",
    );
    let kinds = [
        PiiKind::Address,
        PiiKind::Phone,
        PiiKind::Email,
        PiiKind::Facebook,
    ];
    let mut rows = vec![{
        let mut h = vec!["given \\ with".to_string()];
        h.extend(kinds.iter().map(|k| k.to_string()));
        h
    }];
    for given in kinds {
        let mut row = vec![given.to_string()];
        for other in kinds {
            row.push(format!(
                "{:.0}%",
                100.0 * pii_tables::co_rate(&matrix, given, other)
            ));
        }
        rows.push(row);
    }
    s.push_str(&render::table(&rows));
    let _ = writeln!(
        s,
        "facebook → email: {:.0}% (paper 39%) | facebook → phone: {:.0}% (paper 25%)",
        100.0 * pii_tables::co_rate(&matrix, PiiKind::Facebook, PiiKind::Email),
        100.0 * pii_tables::co_rate(&matrix, PiiKind::Facebook, PiiKind::Phone)
    );
    s
}

fn sec7_3(ctx: &mut ReproContext) -> String {
    let mut s = header("§7.3 — repeated doxes");
    let docs = ctx.annotated_doxes();
    let extractor = PiiExtractor::new();
    let stats = repeats::repeated_doxes(&extractor, &docs);
    let _ = writeln!(
        s,
        "repeated doxes: {} of {} ({:.1}%) — paper: 11.12% inside the annotated set, 20.1% on the full above-threshold set",
        stats.repeated,
        stats.total,
        100.0 * stats.repeated_fraction()
    );
    let _ = writeln!(
        s,
        "same-data-set repeats: {:.0}% (paper 98%) | cross-posted: {} (paper 250)",
        100.0 * stats.same_data_set_fraction(),
        stats.cross_posted
    );
    s.push_str("repeats per data set (paper: pastes 13,076 / boards 1,402 / chats 62 / Gab 47):\n");
    for (ds, n) in &stats.per_data_set {
        let _ = writeln!(s, "  {:<8} {}", ds.to_string(), n);
    }
    s
}

fn sec7_4(ctx: &mut ReproContext) -> String {
    let mut s = header("§7.4 — dox thread analysis");
    let dox = board_dox(ctx);
    let pos = threads::position_stats(&dox);
    let _ = writeln!(
        s,
        "first post: {:.1}% (paper 9.7%) | last post: {:.1}% (paper 2.7%)",
        100.0 * pos.first_fraction,
        100.0 * pos.last_fraction
    );
    let _ = writeln!(
        s,
        "position median {:.0} / mean {:.0} / σ {:.0} (paper prints 142 / 59 / 236)",
        pos.position.median, pos.position.mean, pos.position.std_dev
    );
    let baseline = threads::baseline_sample(&ctx.corpus, 5_000, 56);
    let base_sizes: Vec<f64> = threads::response_sizes(&baseline);
    let dox_sizes: Vec<f64> = threads::response_sizes(&dox);
    let test = incite_stats::welch_t_test(
        &incite_stats::descriptive::log_transform(&dox_sizes),
        &incite_stats::descriptive::log_transform(&base_sizes),
    );
    match test {
        Some(t) => {
            let _ = writeln!(
                s,
                "response volume vs baseline: t = {:.2}, p = {:.4} (paper: no significant difference)",
                t.t, t.p_value
            );
        }
        None => s.push_str("response volume vs baseline: insufficient data\n"),
    }
    s
}

// --------------------------------------------------------------------------
// §9.2 extensions
// --------------------------------------------------------------------------

/// Per-attack-type classification (§9.2: "extend our classifiers to detect
/// each type of attack separately").
fn extension_attack_types(ctx: &mut ReproContext) -> String {
    use incite_core::attack_classifier::{default_featurizer, AttackTypeClassifier};
    let mut s = header("Extension — per-attack-type classifiers (§9.2)");
    let labeled: Vec<(String, incite_taxonomy::LabelSet)> = ctx
        .annotated_cth()
        .iter()
        .map(|d| (d.text.clone(), d.truth.labels))
        .collect();
    let mid = labeled.len() / 2;
    let clf = AttackTypeClassifier::train(
        &labeled[..mid],
        default_featurizer(),
        incite_ml::TrainConfig::default(),
    );
    let reports = clf.evaluate(&labeled[mid..]);
    let mut rows = vec![vec![
        "Attack type".into(),
        "threshold".into(),
        "F1".into(),
        "Precision".into(),
        "Recall".into(),
        "AUC".into(),
    ]];
    for (attack, report) in &reports {
        let m = report.metrics.positive;
        rows.push(vec![
            attack.to_string(),
            format!("{:.2}", clf.threshold(*attack).unwrap_or(0.5)),
            f2(m.f1),
            f2(m.precision),
            f2(m.recall),
            report
                .auc
                .map(|a| format!("{a:.3}"))
                .unwrap_or("n/a".into()),
        ]);
    }
    s.push_str(&render::table(&rows));
    if !clf.skipped.is_empty() {
        let skipped: Vec<String> = clf.skipped.iter().map(|a| a.to_string()).collect();
        let _ = writeln!(
            s,
            "skipped for lack of training data (paper: lockout/surveillance have < 10 examples): {}",
            skipped.join(", ")
        );
    }
    s
}

/// Longitudinal growth analysis (§9.2: "longitudinal analysis of calls to
/// harassment could provide insights into … trends of growth").
fn extension_longitudinal(ctx: &mut ReproContext) -> String {
    use incite_analysis::longitudinal;
    let mut s = header("Extension — longitudinal growth (§9.2)");
    let boards: Vec<&Document> = ctx.corpus.by_platform(Platform::Boards).collect();
    let rates = longitudinal::yearly_rates(&boards, |d| d.truth.is_cth);
    s.push_str("CTH rate per year on the boards (positives skew recent by construction):\n");
    let recent: Vec<_> = rates.iter().rev().take(8).rev().collect();
    let chart: Vec<(String, usize)> = recent
        .iter()
        .map(|(year, pos, _, _)| (year.to_string(), *pos))
        .collect();
    s.push_str(&render::bar_chart(&chart, 40));
    let g = longitudinal::growth_test(&boards, |d| d.truth.is_cth);
    let _ = writeln!(
        s,
        "growth: late/early CTH-rate ratio {:.2} ({}+/{} early vs {}+/{} late){}",
        g.rate_ratio(),
        g.early_positives,
        g.early_total,
        g.late_positives,
        g.late_total,
        match g.test {
            Some(t) => format!(", chi2 = {:.1}, p = {:.2e}", t.statistic, t.p_value),
            None => String::new(),
        }
    );
    s.push_str("(the paper proposes this analysis as future work; the generator plants a\n");
    s.push_str(" linear-in-time growth signal for the machinery to recover)\n");
    s
}
