//! Corpus orchestration: builds the full five-platform synthetic corpus.

use crate::config::CorpusConfig;
use crate::cth_gen::cth_text;
use crate::document::{DocId, Document, GroundTruth, ThreadRef};
use crate::dox_gen::{blog_dox_text, dox_text, partial_dox_text, BlogStyle};
use crate::labels;
use crate::pii_gen::{identity, Identity};
use crate::platforms::{self, Blog};
use crate::textgen;
use incite_taxonomy::pii_kind::PiiSet;
use incite_taxonomy::{DataSet, Gender, LabelSet, PiiKind, Platform, Subcategory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub documents: Vec<Document>,
    pub config: CorpusConfig,
}

/// Table 1-style summary row for a generated corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryRow {
    pub data_set: DataSet,
    pub posts: u64,
    pub min_timestamp: u64,
    pub max_timestamp: u64,
}

impl Corpus {
    /// Total number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Documents from one platform.
    pub fn by_platform(&self, platform: Platform) -> impl Iterator<Item = &Document> {
        self.documents
            .iter()
            .filter(move |d| d.platform == platform)
    }

    /// Documents from one data set.
    pub fn by_data_set(&self, ds: DataSet) -> impl Iterator<Item = &Document> {
        self.documents
            .iter()
            .filter(move |d| d.platform.data_set() == ds)
    }

    /// Board threads: thread id → posts ordered by position. Documents
    /// without a thread reference (none on boards today, but imported
    /// corpora make no such promise) are skipped rather than unwrapped.
    pub fn threads(&self) -> HashMap<u64, Vec<&Document>> {
        let mut map: HashMap<u64, Vec<(u32, &Document)>> = HashMap::new();
        for doc in self.by_platform(Platform::Boards) {
            if let Some(t) = doc.thread {
                map.entry(t.thread_id).or_default().push((t.position, doc));
            }
        }
        map.into_iter()
            .map(|(id, mut posts)| {
                posts.sort_by_key(|(position, _)| *position);
                (id, posts.into_iter().map(|(_, d)| d).collect())
            })
            .collect()
    }

    /// Table 1-style summary (posts + date range per data set).
    pub fn summary(&self) -> Vec<SummaryRow> {
        DataSet::ALL
            .iter()
            .map(|&ds| {
                let mut posts = 0u64;
                let mut min_ts = u64::MAX;
                let mut max_ts = 0u64;
                for d in self.by_data_set(ds) {
                    posts += 1;
                    min_ts = min_ts.min(d.timestamp);
                    max_ts = max_ts.max(d.timestamp);
                }
                SummaryRow {
                    data_set: ds,
                    posts,
                    min_timestamp: min_ts,
                    max_timestamp: max_ts,
                }
            })
            .collect()
    }
}

/// A pooled dox target: the identity plus the OSN kind its most recent dox
/// exposed (so a repeat can expose the *same* handle, which is what makes
/// the §7.3 linking work).
#[derive(Clone)]
struct PoolEntry {
    identity: Identity,
    last_osn: Option<PiiKind>,
}

/// Internal builder state.
struct Builder {
    docs: Vec<Document>,
    next_id: u64,
    next_thread: u64,
    /// Per-platform identity pools for repeated doxes.
    pools: HashMap<Platform, Vec<PoolEntry>>,
}

impl Builder {
    fn new() -> Self {
        Builder {
            docs: Vec::new(),
            next_id: 0,
            next_thread: 0,
            pools: HashMap::new(),
        }
    }

    fn id(&mut self) -> DocId {
        let id = DocId(self.next_id);
        self.next_id += 1;
        id
    }

    fn push(
        &mut self,
        platform: Platform,
        text: String,
        channel: String,
        thread: Option<ThreadRef>,
        truth: GroundTruth,
        rng: &mut StdRng,
    ) {
        let id = self.id();
        // Positives skew recent (§9.2 longitudinal extension).
        let timestamp = if truth.is_cth || truth.is_dox {
            platforms::timestamp_recent(platform, rng)
        } else {
            platforms::timestamp(platform, rng)
        };
        self.docs.push(Document {
            id,
            platform,
            text,
            author: platforms::author(platform, rng),
            timestamp,
            thread,
            channel,
            truth,
        });
    }

    /// Picks (or mints) an identity for a dox and finalizes its PII
    /// profile, honoring the repeated-dox rate, the 98 % same-platform bias
    /// (§7.3), and OSN-handle continuity for repeats.
    fn dox_identity_and_profile(
        &mut self,
        platform: Platform,
        ds: DataSet,
        config: &CorpusConfig,
        rng: &mut StdRng,
    ) -> (Identity, PiiSet) {
        let mut profile = labels::sample_pii_profile(ds, rng);
        let reuse = rng.gen_bool(config.repeated_dox_rate);
        if reuse {
            // 98 % from the same platform's pool; otherwise any platform.
            let source_platform = if rng.gen_bool(0.98) {
                platform
            } else {
                // Canonical platform order: HashMap iteration order is
                // per-process random and would break cross-process
                // reproducibility of the corpus.
                let others: Vec<Platform> = Platform::ALL
                    .iter()
                    .copied()
                    .filter(|p| *p != platform && self.pools.get(p).is_some_and(|v| !v.is_empty()))
                    .collect();
                if others.is_empty() {
                    platform
                } else {
                    others[rng.gen_range(0..others.len())]
                }
            };
            if let Some(pool) = self.pools.get_mut(&source_platform) {
                if !pool.is_empty() {
                    let idx = rng.gen_range(0..pool.len());
                    let entry = &mut pool[idx];
                    // Re-expose the target's known handle so the repeat is
                    // linkable by OSN PII.
                    if let Some(kind) = entry.last_osn {
                        profile.insert(kind);
                    } else {
                        entry.last_osn = profile.iter().find(|k| k.is_osn_profile());
                    }
                    return (entry.identity.clone(), profile);
                }
            }
        }
        let id = identity(rng);
        let last_osn = profile.iter().find(|k| k.is_osn_profile());
        self.pools.entry(platform).or_default().push(PoolEntry {
            identity: id.clone(),
            last_osn,
        });
        (id, profile)
    }
}

fn cth_truth(ds: DataSet, rng: &mut StdRng) -> (LabelSet, Gender) {
    let labels = labels::sample_label_set(ds, rng);
    let primary = labels.iter().next().unwrap_or(Subcategory::GenericCall);
    let gender = labels::sample_gender(primary, rng);
    (labels, gender)
}

/// Samples a thread position following the paper's first/last/interior
/// fractions.
fn plant_position(len: u32, first_frac: f64, last_frac: f64, rng: &mut StdRng) -> u32 {
    if len <= 1 {
        return 0;
    }
    let r: f64 = rng.gen();
    if r < first_frac {
        0
    } else if r < first_frac + last_frac {
        len - 1
    } else {
        rng.gen_range(1..len.saturating_sub(1).max(2))
    }
}

/// Generates the full corpus.
pub fn generate(config: &CorpusConfig) -> Corpus {
    let mut b = Builder::new();
    let mut rng = StdRng::seed_from_u64(config.seed);

    generate_boards(&mut b, config, &mut rng);
    for platform in [Platform::Discord, Platform::Telegram, Platform::Gab] {
        generate_flat(&mut b, platform, config, &mut rng);
    }
    generate_pastes(&mut b, config, &mut rng);
    generate_blogs(&mut b, config, &mut rng);

    Corpus {
        documents: b.docs,
        config: config.clone(),
    }
}

/// Boards: threaded structure with planted CTH/dox positions and the
/// CTH ∩ dox thread overlap of §6.3.
fn generate_boards(b: &mut Builder, config: &CorpusConfig, rng: &mut StdRng) {
    let platform = Platform::Boards;
    let ds = DataSet::Boards;
    let benign_target = config.benign_count(platform);
    let n_cth = config.cth_count(platform);
    let n_dox = config.dox_count(platform);
    // §6.3: 95 posts flagged by both pipelines; scaled.
    let n_both = ((95.0 * config.positive_scale).round() as usize).min(n_cth);

    // Build thread skeletons until we cover the benign volume.
    let mut threads: Vec<u32> = Vec::new();
    let mut total: usize = 0;
    while total < benign_target {
        let len = platforms::thread_len(config.mean_thread_len, rng);
        threads.push(len);
        total += len as usize;
    }

    // Cumulative post counts for size-biased thread sampling: a random
    // *post* lives in a long thread proportionally more often, and planted
    // documents must follow the same post-level distribution as the random
    // baseline or every response-size comparison would be biased short.
    let cum: Vec<usize> = threads
        .iter()
        .scan(0usize, |acc, &len| {
            *acc += len as usize;
            Some(*acc)
        })
        .collect();
    let total_posts = *cum.last().unwrap_or(&0);
    let size_biased = |rng: &mut StdRng| -> usize {
        let target = rng.gen_range(0..total_posts.max(1));
        cum.partition_point(|&c| c <= target)
    };

    // Each planted positive occupies a (thread, position) slot.
    #[derive(Clone)]
    enum Plant {
        Cth {
            labels: LabelSet,
            gender: Gender,
            with_pii: bool,
        },
        Dox,
    }
    let mut slots: HashMap<(usize, u32), Plant> = HashMap::new();
    let mut dox_threads: Vec<usize> = Vec::new();

    // Split threads into two halves: doxes plant in one half and CTH in the
    // other, so thread-sharing between the two document kinds is *only* the
    // calibrated 8.53 % overlap (at reduced corpus scale chance collisions
    // would otherwise swamp it). The split is stratified by thread length —
    // sorted threads are assigned pairwise, one of each pair per half at
    // random — because a uniform split would let a single giant thread give
    // one half most of the posts and bias every size comparison.
    let dox_eligible: Vec<bool> = {
        let mut order: Vec<usize> = (0..threads.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(threads[i]));
        let mut eligible = vec![false; threads.len()];
        for pair in order.chunks(2) {
            let first_is_dox = rng.gen_bool(0.5);
            eligible[pair[0]] = first_is_dox;
            if let Some(&second) = pair.get(1) {
                eligible[second] = !first_is_dox;
            }
        }
        eligible
    };
    let pick_in = |rng: &mut StdRng, want_dox_half: bool| -> usize {
        for _ in 0..200 {
            let t = size_biased(rng);
            if dox_eligible[t] == want_dox_half {
                return t;
            }
        }
        size_biased(rng)
    };

    // Doxes first, so CTH overlap can target their threads.
    for _ in 0..n_dox {
        let mut guard = 0;
        loop {
            let t = pick_in(rng, true);
            let pos = plant_position(threads[t], 0.097, 0.027, rng);
            if !slots.contains_key(&(t, pos)) || guard > 20 {
                slots.insert((t, pos), Plant::Dox);
                dox_threads.push(t);
                break;
            }
            guard += 1;
        }
    }

    // Calls to harassment; toxic-content calls land in longer threads
    // (§6.3 finds their responses significantly larger). CTH that *are*
    // doxes (the "both pipelines" posts) are placed in dox-half threads and
    // count toward the overlap quota, so the total thread-sharing rate
    // stays at the calibrated value.
    let residual_overlap = ((config.cth_dox_thread_overlap * n_cth as f64 - n_both as f64)
        / (n_cth.saturating_sub(n_both).max(1)) as f64)
        .clamp(0.0, 1.0);
    for i in 0..n_cth {
        let (labels, gender) = cth_truth(ds, rng);
        let with_pii = i < n_both;
        let overlap = !dox_threads.is_empty() && (with_pii || rng.gen_bool(residual_overlap));
        let mut guard = 0;
        loop {
            let t = if overlap {
                dox_threads[rng.gen_range(0..dox_threads.len())]
            } else if labels.contains_parent(incite_taxonomy::AttackType::ToxicContent) {
                // §6.3: toxic-content calls draw significantly larger
                // responses — take the longest of three size-biased
                // candidates from the CTH half.
                let mut best = pick_in(rng, false);
                for _ in 0..2 {
                    let c = pick_in(rng, false);
                    if threads[c] > threads[best] {
                        best = c;
                    }
                }
                best
            } else {
                pick_in(rng, false)
            };
            let pos = plant_position(threads[t], 0.037, 0.027, rng);
            if !slots.contains_key(&(t, pos)) || guard > 20 {
                slots.insert(
                    (t, pos),
                    Plant::Cth {
                        labels,
                        gender,
                        with_pii,
                    },
                );
                break;
            }
            guard += 1;
        }
    }

    // Emit every post of every thread.
    for (t_idx, &len) in threads.iter().enumerate() {
        let thread_id = b.next_thread;
        b.next_thread += 1;
        let board = platforms::BOARD_NAMES[rng.gen_range(0..platforms::BOARD_NAMES.len())];
        for pos in 0..len {
            let thread = Some(ThreadRef {
                thread_id,
                position: pos,
                thread_len: len,
            });
            match slots.get(&(t_idx, pos)).cloned() {
                Some(Plant::Dox) => {
                    let (id, pii) = b.dox_identity_and_profile(platform, ds, config, rng);
                    let gender = sample_dox_gender(rng);
                    let rep = labels::sample_reputation_flag(ds, pii, rng);
                    let text = if rng.gen_bool(0.4) {
                        partial_dox_text(&id, pii, rng)
                    } else {
                        dox_text(&id, pii, gender, rep, rng)
                    };
                    let truth = GroundTruth {
                        is_dox: true,
                        pii,
                        gender,
                        reputation_flag: rep,
                        target_handle: Some(id.handle()),
                        ..Default::default()
                    };
                    b.push(platform, text, board.to_string(), thread, truth, rng);
                }
                Some(Plant::Cth {
                    labels,
                    gender,
                    with_pii,
                }) => {
                    let (text, pii, handle) = if with_pii {
                        let id = identity(rng);
                        let kinds = [PiiKind::Phone, PiiKind::Address, PiiKind::Twitter];
                        let n = rng.gen_range(1..=kinds.len());
                        let chosen = &kinds[..n];
                        let text = cth_text(labels, gender, Some((&id, chosen)), rng);
                        let pii: PiiSet = chosen.iter().copied().collect();
                        (text, pii, Some(id.handle()))
                    } else {
                        (cth_text(labels, gender, None, rng), PiiSet::EMPTY, None)
                    };
                    let truth = GroundTruth {
                        is_cth: true,
                        is_dox: with_pii,
                        labels,
                        gender,
                        pii,
                        target_handle: handle,
                        ..Default::default()
                    };
                    b.push(platform, text, board.to_string(), thread, truth, rng);
                }
                None => {
                    let hard = rng.gen_bool(config.hard_negative_rate);
                    let text = if hard {
                        textgen::hard_negative(platform, rng)
                    } else {
                        textgen::benign(platform, rng)
                    };
                    let truth = GroundTruth {
                        hard_negative: hard,
                        ..Default::default()
                    };
                    b.push(platform, text, board.to_string(), thread, truth, rng);
                }
            }
        }
    }
}

fn sample_dox_gender(rng: &mut StdRng) -> Gender {
    // Dox target gender follows the overall CTH split (the paper does not
    // publish a dox-specific gender table).
    let r: f64 = rng.gen();
    if r < 2_711.0 / 6_254.0 {
        Gender::Unknown
    } else if r < (2_711.0 + 1_160.0) / 6_254.0 {
        Gender::Female
    } else {
        Gender::Male
    }
}

/// Chat (Discord / Telegram) and Gab: flat document streams with planted
/// positives at random indices.
fn generate_flat(b: &mut Builder, platform: Platform, config: &CorpusConfig, rng: &mut StdRng) {
    let ds = platform.data_set();
    let benign = config.benign_count(platform);
    let n_cth = config.cth_count(platform);
    let n_dox = config.dox_count(platform);
    let total = benign + n_cth + n_dox;

    // Random positions for positives.
    let mut kinds: Vec<u8> = vec![0; total];
    let mut planted = 0usize;
    while planted < n_cth {
        let i = rng.gen_range(0..total);
        if kinds[i] == 0 {
            kinds[i] = 1;
            planted += 1;
        }
    }
    planted = 0;
    while planted < n_dox {
        let i = rng.gen_range(0..total);
        if kinds[i] == 0 {
            kinds[i] = 2;
            planted += 1;
        }
    }

    for kind in kinds {
        let channel = match platform {
            Platform::Gab => "gab".to_string(),
            _ => platforms::CHAT_CHANNELS[rng.gen_range(0..platforms::CHAT_CHANNELS.len())]
                .to_string(),
        };
        match kind {
            1 => {
                let (labels, gender) = cth_truth(ds, rng);
                let text = cth_text(labels, gender, None, rng);
                let truth = GroundTruth {
                    is_cth: true,
                    labels,
                    gender,
                    ..Default::default()
                };
                b.push(platform, text, channel, None, truth, rng);
            }
            2 => {
                // §7.2: over half of Discord doxes expose only PII outside
                // the extraction pipeline (birthday, age, nicknames).
                if platform == Platform::Discord && rng.gen_bool(0.55) {
                    let id = identity(rng);
                    let gender = sample_dox_gender(rng);
                    let text = crate::soft_dox::soft_dox_text(&id, rng);
                    let truth = GroundTruth {
                        is_dox: true,
                        pii: PiiSet::EMPTY,
                        gender,
                        target_handle: Some(id.handle()),
                        ..Default::default()
                    };
                    b.push(platform, text, channel, None, truth, rng);
                    continue;
                }
                let (id, pii) = b.dox_identity_and_profile(platform, ds, config, rng);
                let gender = sample_dox_gender(rng);
                let rep = labels::sample_reputation_flag(ds, pii, rng);
                let text = if rng.gen_bool(0.5) {
                    partial_dox_text(&id, pii, rng)
                } else {
                    dox_text(&id, pii, gender, rep, rng)
                };
                let truth = GroundTruth {
                    is_dox: true,
                    pii,
                    gender,
                    reputation_flag: rep,
                    target_handle: Some(id.handle()),
                    ..Default::default()
                };
                b.push(platform, text, channel, None, truth, rng);
            }
            _ => {
                let hard = rng.gen_bool(config.hard_negative_rate);
                let text = if hard {
                    textgen::hard_negative(platform, rng)
                } else {
                    textgen::benign(platform, rng)
                };
                let truth = GroundTruth {
                    hard_negative: hard,
                    ..Default::default()
                };
                b.push(platform, text, channel, None, truth, rng);
            }
        }
    }
}

/// Pastes: flat long-form documents; doxes are always full drops; heavier
/// repeat pool (most repeated doxes live here, §7.3).
fn generate_pastes(b: &mut Builder, config: &CorpusConfig, rng: &mut StdRng) {
    let platform = Platform::Pastes;
    let ds = DataSet::Pastes;
    let benign = config.benign_count(platform);
    let n_dox = config.dox_count(platform);
    let total = benign + n_dox;
    let mut dox_at: Vec<bool> = vec![false; total];
    let mut planted = 0;
    while planted < n_dox {
        let i = rng.gen_range(0..total);
        if !dox_at[i] {
            dox_at[i] = true;
            planted += 1;
        }
    }
    for is_dox in dox_at {
        let site =
            platforms::PASTE_SITES[rng.gen_range(0..platforms::PASTE_SITES.len())].to_string();
        if is_dox {
            let (id, pii) = b.dox_identity_and_profile(platform, ds, config, rng);
            let gender = sample_dox_gender(rng);
            let rep = labels::sample_reputation_flag(ds, pii, rng);
            let text = dox_text(&id, pii, gender, rep, rng);
            let truth = GroundTruth {
                is_dox: true,
                pii,
                gender,
                reputation_flag: rep,
                target_handle: Some(id.handle()),
                ..Default::default()
            };
            b.push(platform, text, site, None, truth, rng);
        } else {
            let hard = rng.gen_bool(config.hard_negative_rate * 3.0); // SQL dumps are common
            let text = if hard {
                textgen::hard_negative(platform, rng)
            } else {
                textgen::benign(platform, rng)
            };
            let truth = GroundTruth {
                hard_negative: hard,
                ..Default::default()
            };
            b.push(platform, text, site, None, truth, rng);
        }
    }
}

/// Blogs: three profiles with distinct dox registers (§8) and
/// keyword-bearing "relevant" posts that are not doxes (Table 8).
fn generate_blogs(b: &mut Builder, config: &CorpusConfig, rng: &mut StdRng) {
    let platform = Platform::Blogs;
    let total_posts = config.benign_count(platform);
    let total_doxes = config.dox_count(platform);

    for blog in Blog::ALL {
        // The Torch is tiny in absolute terms (93 posts, Table 8); generate
        // it in full regardless of scale so its dox density survives.
        let posts = match blog {
            Blog::Torch => 93,
            _ => ((total_posts as f64 * blog.post_share()).round() as usize).max(5),
        };
        // Floor of 5 doxes per blog: the §8 analysis is qualitative and
        // needs a handful of documents per register even at tiny scales.
        let doxes = ((total_doxes as f64 * blog.dox_share()).round() as usize)
            .max(5)
            .min(posts);
        // Relevant-but-not-dox rate from Table 8 (relevant − doxes) / posts.
        let relevant_rate = match blog {
            Blog::DailyStormer => (3_072.0 - 90.0) / 36_851.0,
            Blog::NoBlogs => (668.0 - 66.0) / 78_108.0,
            Blog::Torch => (38.0 - 23.0) / 93.0,
        };
        let n_benign = posts.saturating_sub(doxes);
        for _ in 0..n_benign {
            let relevant = rng.gen_bool(relevant_rate);
            let mut text = textgen::benign(platform, rng);
            if relevant {
                // Mentions a PII keyword without being a dox.
                let kw = ["phone", "email", "dox", "dob:"][rng.gen_range(0..4)];
                text.push_str(&format!(
                    "\n\nSide note: my {kw} inbox is overflowing, replies are slow."
                ));
            }
            b.push(
                platform,
                text,
                blog.slug().to_string(),
                None,
                GroundTruth::default(),
                rng,
            );
        }
        for _ in 0..doxes {
            // Blog doxes draw the richest PII profile (pastes-like).
            let (id, pii) = b.dox_identity_and_profile(platform, DataSet::Pastes, config, rng);
            let gender = sample_dox_gender(rng);
            let (style, overload) = match blog {
                Blog::DailyStormer => {
                    // §8.3: 60 % of Stormer doxes include a call to overload.
                    (BlogStyle::DailyStormer, rng.gen_bool(0.60))
                }
                _ => (BlogStyle::Antifascist, false),
            };
            let (text, pii) = blog_dox_text(&id, pii, style, overload, rng);
            let rep = labels::sample_reputation_flag(DataSet::Blogs, pii, rng);
            let truth = GroundTruth {
                is_dox: true,
                // A Stormer dox with an overload call is also a CTH.
                is_cth: overload,
                labels: if overload {
                    LabelSet::from_iter([Subcategory::Raiding, Subcategory::Doxing])
                } else {
                    LabelSet::EMPTY
                },
                pii,
                gender,
                reputation_flag: rep,
                target_handle: Some(id.handle()),
                ..Default::default()
            };
            b.push(platform, text, blog.slug().to_string(), None, truth, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Corpus {
        generate(&CorpusConfig::tiny(42))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&CorpusConfig::tiny(1));
        let c = generate(&CorpusConfig::tiny(1));
        assert_eq!(a.len(), c.len());
        assert_eq!(a.documents[10].text, c.documents[10].text);
        let d = generate(&CorpusConfig::tiny(2));
        assert_ne!(a.documents[10].text, d.documents[10].text);
    }

    #[test]
    fn all_platforms_present() {
        let c = tiny();
        for p in Platform::ALL {
            assert!(c.by_platform(p).count() > 0, "{p} missing");
        }
    }

    #[test]
    fn positives_planted_at_configured_counts() {
        let config = CorpusConfig::small(7);
        let c = generate(&config);
        let cth = c.documents.iter().filter(|d| d.truth.is_cth).count();
        let expected_cth: usize = Platform::ALL.iter().map(|p| config.cth_count(*p)).sum();
        // Blog Stormer doxes with overload calls add a few CTH beyond the quota.
        assert!(cth >= expected_cth, "cth {cth} < {expected_cth}");
        assert!(cth <= expected_cth + config.dox_count(Platform::Blogs));

        let dox = c.documents.iter().filter(|d| d.truth.is_dox).count();
        let expected_dox: usize = Platform::ALL.iter().map(|p| config.dox_count(*p)).sum();
        // Board CTH∩dox posts count toward doxes too.
        assert!(dox >= expected_dox, "dox {dox} < {expected_dox}");
    }

    #[test]
    fn timestamps_fall_inside_platform_eras() {
        for d in &tiny().documents {
            let (lo, hi) = crate::platforms::time_range(d.platform);
            assert!((lo..hi).contains(&d.timestamp), "{:?} out of era", d.id);
        }
    }

    #[test]
    fn board_docs_have_threads_others_do_not() {
        let c = tiny();
        for d in &c.documents {
            if d.platform == Platform::Boards {
                assert!(d.thread.is_some());
            } else {
                assert!(d.thread.is_none());
            }
        }
    }

    #[test]
    fn threads_are_complete_and_ordered() {
        let c = tiny();
        for (_, posts) in c.threads() {
            // Every returned post carries a thread ref (filter_map drops
            // none), the first announces the full length, and positions
            // run 0..len in order — all without unwrapping.
            let refs: Vec<ThreadRef> = posts.iter().filter_map(|p| p.thread).collect();
            assert_eq!(refs.len(), posts.len(), "thread-less post in a thread");
            let len = refs.first().map(|t| t.thread_len).unwrap_or(0);
            assert_eq!(posts.len() as u32, len);
            for (i, t) in refs.iter().enumerate() {
                assert_eq!(t.position, i as u32);
            }
        }
    }

    #[test]
    fn doxes_carry_pii_and_handles() {
        let c = tiny();
        for d in c.documents.iter().filter(|d| d.truth.is_dox) {
            assert!(d.truth.target_handle.is_some());
            // Discord "soft" doxes expose only non-extractable PII (§7.2);
            // every other dox carries at least one extractable kind.
            if d.platform != Platform::Discord {
                assert!(!d.truth.pii.is_empty(), "dox without PII: {}", d.text);
            }
        }
    }

    #[test]
    fn discord_has_soft_doxes() {
        let c = generate(&CorpusConfig::small(19));
        let discord_doxes: Vec<_> = c
            .by_platform(Platform::Discord)
            .filter(|d| d.truth.is_dox)
            .collect();
        let soft = discord_doxes
            .iter()
            .filter(|d| d.truth.pii.is_empty())
            .count();
        // §7.2: over half of Discord doxes carry no extractable indicator.
        let frac = soft as f64 / discord_doxes.len().max(1) as f64;
        assert!(frac > 0.3, "soft-dox fraction {frac}");
        assert!(frac < 0.8, "soft-dox fraction {frac}");
    }

    #[test]
    fn cth_carry_labels() {
        let c = tiny();
        for d in c.documents.iter().filter(|d| d.truth.is_cth) {
            assert!(!d.truth.labels.is_empty(), "CTH without labels");
        }
    }

    #[test]
    fn summary_matches_table1_shape() {
        let c = generate(&CorpusConfig::small(3));
        let rows = c.summary();
        assert_eq!(rows.len(), 5);
        let get = |ds: DataSet| rows.iter().find(|r| r.data_set == ds).unwrap().posts;
        assert!(get(DataSet::Boards) > get(DataSet::Chat));
        assert!(get(DataSet::Chat) > get(DataSet::Gab));
        assert!(get(DataSet::Gab) > get(DataSet::Pastes));
        assert!(get(DataSet::Pastes) > get(DataSet::Blogs));
    }

    #[test]
    fn some_repeated_doxes_share_handles() {
        let config = CorpusConfig::small(11);
        let c = generate(&config);
        let mut handle_counts: HashMap<&str, usize> = HashMap::new();
        for d in c.documents.iter().filter(|d| d.truth.is_dox) {
            if let Some(h) = &d.truth.target_handle {
                *handle_counts.entry(h.as_str()).or_default() += 1;
            }
        }
        let repeated: usize = handle_counts.values().filter(|&&n| n > 1).copied().sum();
        assert!(repeated > 0, "no repeated doxes planted");
    }

    #[test]
    fn pastes_have_no_cth() {
        let c = tiny();
        assert_eq!(
            c.by_platform(Platform::Pastes)
                .filter(|d| d.truth.is_cth)
                .count(),
            0
        );
    }

    #[test]
    fn hard_negatives_exist_and_are_benign() {
        let c = generate(&CorpusConfig::small(5));
        let hard: Vec<_> = c
            .documents
            .iter()
            .filter(|d| d.truth.hard_negative)
            .collect();
        assert!(!hard.is_empty());
        for d in hard {
            assert!(!d.truth.is_cth && !d.truth.is_dox);
        }
    }

    #[test]
    fn doc_ids_are_unique() {
        let c = tiny();
        let mut ids: Vec<u64> = c.documents.iter().map(|d| d.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), c.len());
    }

    #[test]
    fn blogs_include_both_registers() {
        let config = CorpusConfig {
            positive_scale: 1.0,
            ..CorpusConfig::tiny(9)
        };
        let c = generate(&config);
        let stormer_doxes = c
            .by_platform(Platform::Blogs)
            .filter(|d| d.channel == "daily_stormer" && d.truth.is_dox)
            .count();
        let torch_doxes = c
            .by_platform(Platform::Blogs)
            .filter(|d| d.channel == "the_torch" && d.truth.is_dox)
            .count();
        assert!(stormer_doxes > 0);
        assert!(torch_doxes > 0);
    }
}
