//! Per-platform structural models: thread sizes, channels, timestamps.

use incite_taxonomy::Platform;
use rand::rngs::StdRng;
use rand::Rng;

/// Board names in the style of the 43 imageboard domains (synthetic).
pub const BOARD_NAMES: &[&str] = &["b", "pol", "x", "vg", "int", "r9k", "news", "biz"];

/// Synthetic chat channel names (the paper's chat data covers 2,916
/// Telegram channels plus curated Discord servers).
pub const CHAT_CHANNELS: &[&str] = &[
    "general",
    "frog-pond",
    "the-bunker",
    "meme-forge",
    "night-watch",
    "raid-planning",
    "offtopic",
    "announcements",
    "vetting",
    "archive",
];

/// Synthetic paste-site domains (the paper covers 41).
pub const PASTE_SITES: &[&str] = &[
    "pastehole.example",
    "textdrop.example",
    "snipbin.example",
    "dumpyard.example",
];

/// The three blog profiles of §8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blog {
    DailyStormer,
    NoBlogs,
    Torch,
}

impl Blog {
    pub const ALL: [Blog; 3] = [Blog::DailyStormer, Blog::NoBlogs, Blog::Torch];

    /// Channel slug used on documents.
    pub fn slug(self) -> &'static str {
        match self {
            Blog::DailyStormer => "daily_stormer",
            Blog::NoBlogs => "noblogs",
            Blog::Torch => "the_torch",
        }
    }

    /// Share of total blog posts (Table 8: 36,851 / 78,108 / 93).
    pub fn post_share(self) -> f64 {
        match self {
            Blog::DailyStormer => 36_851.0 / 115_052.0,
            Blog::NoBlogs => 78_108.0 / 115_052.0,
            Blog::Torch => 93.0 / 115_052.0,
        }
    }

    /// Share of blog doxes (Table 8 actual doxes: 90 / 66 / 23).
    pub fn dox_share(self) -> f64 {
        match self {
            Blog::DailyStormer => 90.0 / 179.0,
            Blog::NoBlogs => 66.0 / 179.0,
            Blog::Torch => 23.0 / 179.0,
        }
    }
}

/// Samples a board-thread length from a log-normal distribution with the
/// given mean; clamped to `[1, 5000]`. Figure 5's x-axis runs 10⁰–10³⁺.
pub fn thread_len(mean: f64, rng: &mut StdRng) -> u32 {
    // Log-normal via Box–Muller; sigma chosen so the tail reaches >10^3.
    let sigma: f64 = 1.1;
    let mu = mean.max(2.0).ln() - sigma * sigma / 2.0;
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let len = (mu + sigma * z).exp();
    len.round().clamp(1.0, 5000.0) as u32
}

/// Platform posting-era bounds (unix seconds), matching Table 1 date ranges.
pub(crate) fn time_range(platform: Platform) -> (u64, u64) {
    match platform {
        Platform::Boards => (992_476_800, 1_596_240_000), // 2001-06-14 .. 2020-08-01
        Platform::Blogs => (924_825_600, 1_597_363_200),  // 1999-04-23 .. 2020-08-14
        Platform::Discord | Platform::Telegram => (1_442_793_600, 1_596_240_000), // 2015-09-21 ..
        Platform::Gab => (1_470_787_200, 1_596_240_000),  // 2016-08-10 ..
        Platform::Pastes => (1_206_144_000, 1_596_240_000), // 2008-03-22 ..
    }
}

/// Samples a timestamp inside the platform's era.
pub fn timestamp(platform: Platform, rng: &mut StdRng) -> u64 {
    let (lo, hi) = time_range(platform);
    rng.gen_range(lo..hi)
}

/// Samples a recency-skewed timestamp: coordinated-harassment volume grew
/// over the observation window ("attack strategies … have evolved over
/// time", §1; §9.2 proposes longitudinal analysis), so planted positives
/// cluster toward the era's end. Uses the max of two uniforms (linear
/// density in time).
pub fn timestamp_recent(platform: Platform, rng: &mut StdRng) -> u64 {
    let (lo, hi) = time_range(platform);
    let a = rng.gen_range(lo..hi);
    let b = rng.gen_range(lo..hi);
    a.max(b)
}

/// A pseudonymous author handle; boards are anonymous.
pub fn author(platform: Platform, rng: &mut StdRng) -> String {
    if platform == Platform::Boards {
        return "anonymous".to_string();
    }
    const ADJ: &[&str] = &[
        "grim", "silent", "angry", "based", "lost", "iron", "pale", "wired",
    ];
    const NOUN: &[&str] = &[
        "wolf", "frog", "anon", "ghost", "raven", "serf", "baron", "node",
    ];
    format!(
        "{}{}{}",
        ADJ[rng.gen_range(0..ADJ.len())],
        NOUN[rng.gen_range(0..NOUN.len())],
        rng.gen_range(0..1000)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn thread_lengths_are_bounded_and_heavy_tailed() {
        let mut r = rng();
        let lens: Vec<u32> = (0..20_000).map(|_| thread_len(60.0, &mut r)).collect();
        assert!(lens.iter().all(|&l| (1..=5000).contains(&l)));
        // Heavy tail: some threads exceed 10^3 (Figure 5's axis).
        assert!(lens.iter().any(|&l| l > 1000));
        // But the bulk is modest.
        let small = lens.iter().filter(|&&l| l <= 100).count();
        assert!(small as f64 / lens.len() as f64 > 0.5);
    }

    #[test]
    fn thread_len_mean_is_roughly_requested() {
        let mut r = rng();
        let n = 50_000;
        let total: u64 = (0..n).map(|_| thread_len(60.0, &mut r) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 60.0).abs() < 12.0, "mean = {mean}");
    }

    #[test]
    fn timestamps_respect_platform_eras() {
        let mut r = rng();
        for p in Platform::ALL {
            let (lo, hi) = time_range(p);
            for _ in 0..100 {
                let t = timestamp(p, &mut r);
                assert!((lo..hi).contains(&t), "{p}");
            }
        }
        // Gab's era starts later than boards'.
        assert!(time_range(Platform::Gab).0 > time_range(Platform::Boards).0);
    }

    #[test]
    fn boards_are_anonymous() {
        let mut r = rng();
        assert_eq!(author(Platform::Boards, &mut r), "anonymous");
        assert_ne!(author(Platform::Gab, &mut r), "anonymous");
    }

    #[test]
    fn blog_shares_sum_to_one() {
        let posts: f64 = Blog::ALL.iter().map(|b| b.post_share()).sum();
        let doxes: f64 = Blog::ALL.iter().map(|b| b.dox_share()).sum();
        assert!((posts - 1.0).abs() < 1e-9);
        assert!((doxes - 1.0).abs() < 1e-9);
    }
}
