//! The qualitative blog study (§8; Tables 8 and 9).
//!
//! The classifiers do not run on blogs (long-form posts blow the max-length
//! budget, §8.1), so the paper falls back to keyword queries ("phone",
//! "email", "dox", "dob:") plus manual annotation. We reproduce exactly
//! that: the keyword query runs over blog text; "annotation" reads the
//! planted truth (the expert stand-in); the per-blog Table 8 and the
//! qualitative Table 9 features are computed from the results.

use incite_core::Query;
use incite_corpus::{Corpus, Document};
use incite_taxonomy::{AttackType, Platform};

/// The §8.1 keyword query.
fn blog_keyword_query() -> Query {
    Query::any_of(["phone", "email", "dox", "dob:"])
}

/// One Table 8 row.
#[derive(Debug, Clone)]
pub struct BlogRow {
    /// Channel slug ("daily_stormer", "noblogs", "the_torch").
    pub blog: String,
    pub total_posts: usize,
    /// Posts matching the keyword query.
    pub relevant: usize,
    /// Actual doxes among the relevant posts (expert-annotated).
    pub actual_doxes: usize,
    /// Planted doxes the keyword query missed (the paper measured 10/33 on
    /// The Torch).
    pub missed_doxes: usize,
}

impl BlogRow {
    /// Keyword-query recall on planted doxes.
    pub fn query_recall(&self) -> f64 {
        let total = self.actual_doxes + self.missed_doxes;
        if total == 0 {
            1.0
        } else {
            self.actual_doxes as f64 / total as f64
        }
    }
}

/// Computes Table 8 over the blogs platform.
pub fn table8(corpus: &Corpus) -> Vec<BlogRow> {
    let query = blog_keyword_query();
    let mut blogs: Vec<String> = corpus
        .by_platform(Platform::Blogs)
        .map(|d| d.channel.clone())
        .collect();
    blogs.sort();
    blogs.dedup();
    blogs
        .into_iter()
        .map(|blog| {
            let posts: Vec<&Document> = corpus
                .by_platform(Platform::Blogs)
                .filter(|d| d.channel == blog)
                .collect();
            let relevant: Vec<&&Document> =
                posts.iter().filter(|d| query.matches(&d.text)).collect();
            let actual_doxes = relevant.iter().filter(|d| d.truth.is_dox).count();
            let missed_doxes = posts
                .iter()
                .filter(|d| d.truth.is_dox && !query.matches(&d.text))
                .count();
            BlogRow {
                blog,
                total_posts: posts.len(),
                relevant: relevant.len(),
                actual_doxes,
                missed_doxes,
            }
        })
        .collect()
}

/// Table 9's quantifiable features: how the two blog registers differ.
#[derive(Debug, Clone, Copy)]
pub struct BlogRegisterStats {
    /// Daily Stormer doxes that co-occur with a call to overload
    /// (paper: 60 %).
    pub stormer_doxes: usize,
    pub stormer_with_overload: usize,
    /// Average PII kinds per dox in the far-left blogs vs Stormer —
    /// "these entries often contained less PII relative to the far-left
    /// blogs" (§8.3).
    pub antifascist_mean_pii: f64,
    pub stormer_mean_pii: f64,
}

/// Computes the Table 9 register comparison.
pub fn register_stats(corpus: &Corpus) -> BlogRegisterStats {
    let extractor = incite_pii::PiiExtractor::new();
    let mut stormer_doxes = 0;
    let mut stormer_with_overload = 0;
    let mut stormer_pii = Vec::new();
    let mut anti_pii = Vec::new();
    for d in corpus
        .by_platform(Platform::Blogs)
        .filter(|d| d.truth.is_dox)
    {
        let kinds = extractor.pii_set(&d.text).len() as f64;
        if d.channel == "daily_stormer" {
            stormer_doxes += 1;
            if d.truth.labels.contains_parent(AttackType::Overloading) {
                stormer_with_overload += 1;
            }
            stormer_pii.push(kinds);
        } else {
            anti_pii.push(kinds);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    BlogRegisterStats {
        stormer_doxes,
        stormer_with_overload,
        antifascist_mean_pii: mean(&anti_pii),
        stormer_mean_pii: mean(&stormer_pii),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incite_corpus::{generate, CorpusConfig};

    fn corpus() -> Corpus {
        // Positive scale 1.0 so all three blogs carry their Table 8 doxes;
        // blog_scale 0.1 keeps the Table 8 post:dox ratios meaningful.
        generate(&CorpusConfig {
            positive_scale: 1.0,
            blog_scale: 0.1,
            ..CorpusConfig::small(14)
        })
    }

    #[test]
    fn table8_covers_three_blogs() {
        let corpus = corpus();
        let rows = table8(&corpus);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.total_posts > 0, "{}", r.blog);
            assert!(r.actual_doxes > 0, "{} has no doxes", r.blog);
            assert!(r.relevant >= r.actual_doxes || r.missed_doxes > 0);
        }
    }

    #[test]
    fn torch_is_small_but_dox_dense() {
        // Table 8: The Torch has 93 posts but a 60 % dox yield among
        // relevant posts — far denser than Daily Stormer's 2.9 %.
        let corpus = corpus();
        let rows = table8(&corpus);
        let get = |slug: &str| rows.iter().find(|r| r.blog == slug).unwrap();
        let torch = get("the_torch");
        let stormer = get("daily_stormer");
        assert!(torch.total_posts < stormer.total_posts);
        let dox_yield = |r: &BlogRow| r.actual_doxes as f64 / r.relevant.max(1) as f64;
        assert!(dox_yield(torch) > dox_yield(stormer));
    }

    #[test]
    fn keyword_query_recall_is_high_but_imperfect_shape() {
        // The paper's query missed 10/33 Torch doxes; ours should find most
        // doxes (they mention PII terms) without requiring perfection.
        let corpus = corpus();
        for r in table8(&corpus) {
            assert!(
                r.query_recall() > 0.5,
                "{} recall {}",
                r.blog,
                r.query_recall()
            );
        }
    }

    #[test]
    fn stormer_overload_rate_matches_section_8_3() {
        let corpus = corpus();
        let stats = register_stats(&corpus);
        assert!(stats.stormer_doxes > 10);
        let rate = stats.stormer_with_overload as f64 / stats.stormer_doxes as f64;
        assert!((rate - 0.60).abs() < 0.2, "overload rate {rate}");
    }

    #[test]
    fn stormer_doxes_carry_less_pii() {
        let corpus = corpus();
        let stats = register_stats(&corpus);
        assert!(
            stats.stormer_mean_pii < stats.antifascist_mean_pii,
            "stormer {} vs antifascist {}",
            stats.stormer_mean_pii,
            stats.antifascist_mean_pii
        );
    }
}
