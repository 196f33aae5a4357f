//! Platform and data-set identifiers.
//!
//! The paper distinguishes the *platform* a document was crawled from (six
//! concrete sources once chat is split into Discord and Telegram) from the
//! *data set* it is analyzed under (five families; Table 1). Threshold
//! selection (§5.5, Table 4) operates per platform — the chat data set is
//! split "into individual platforms with separate thresholds in order to
//! improve performance" — while the attack-type tables (Tables 5 and 11)
//! aggregate Discord and Telegram back into a single "Chat" column.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A concrete crawl source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Platform {
    /// Imageboards (4chan, 8kun, …): threaded, pseudo-anonymous, ephemeral.
    Boards,
    /// Discord: invite-free public servers curated as hate/harassment-adjacent.
    Discord,
    /// Telegram: public channels used by extremist and harassment communities.
    Telegram,
    /// Gab: a micro-blogging social network.
    Gab,
    /// Paste sites: long-form anonymous text hosting (41 domains).
    Pastes,
    /// Ideologically motivated blogs (Daily Stormer, The Torch, NoBlogs).
    Blogs,
}

impl Platform {
    /// All platforms, in the canonical (Table 1) order.
    pub const ALL: [Platform; 6] = [
        Platform::Boards,
        Platform::Discord,
        Platform::Telegram,
        Platform::Gab,
        Platform::Pastes,
        Platform::Blogs,
    ];

    /// The data-set family this platform belongs to.
    pub fn data_set(self) -> DataSet {
        match self {
            Platform::Boards => DataSet::Boards,
            Platform::Discord | Platform::Telegram => DataSet::Chat,
            Platform::Gab => DataSet::Gab,
            Platform::Pastes => DataSet::Pastes,
            Platform::Blogs => DataSet::Blogs,
        }
    }

    /// Whether the call-to-harassment task applies. Pastes are excluded
    /// (Table 2): "pastes do not enable this interactivity". Blogs are
    /// handled qualitatively (§8) rather than by the classifier.
    pub fn cth_task_applies(self) -> bool {
        !matches!(self, Platform::Pastes | Platform::Blogs)
    }

    /// Stable lowercase identifier used in file names and reports.
    pub fn slug(self) -> &'static str {
        match self {
            Platform::Boards => "boards",
            Platform::Discord => "discord",
            Platform::Telegram => "telegram",
            Platform::Gab => "gab",
            Platform::Pastes => "pastes",
            Platform::Blogs => "blogs",
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Platform::Boards => "Boards",
            Platform::Discord => "Discord",
            Platform::Telegram => "Telegram",
            Platform::Gab => "Gab",
            Platform::Pastes => "Pastes",
            Platform::Blogs => "Blogs",
        };
        f.write_str(name)
    }
}

/// A data-set family (paper Table 1 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DataSet {
    Boards,
    Blogs,
    Chat,
    Gab,
    Pastes,
}

impl DataSet {
    /// All data sets, in Table 1 order.
    pub const ALL: [DataSet; 5] = [
        DataSet::Boards,
        DataSet::Blogs,
        DataSet::Chat,
        DataSet::Gab,
        DataSet::Pastes,
    ];

    /// Platforms folded into this data set.
    pub fn platforms(self) -> &'static [Platform] {
        match self {
            DataSet::Boards => &[Platform::Boards],
            DataSet::Blogs => &[Platform::Blogs],
            DataSet::Chat => &[Platform::Discord, Platform::Telegram],
            DataSet::Gab => &[Platform::Gab],
            DataSet::Pastes => &[Platform::Pastes],
        }
    }

    /// Stable lowercase identifier.
    pub fn slug(self) -> &'static str {
        match self {
            DataSet::Boards => "boards",
            DataSet::Blogs => "blogs",
            DataSet::Chat => "chat",
            DataSet::Gab => "gab",
            DataSet::Pastes => "pastes",
        }
    }
}

impl fmt::Display for DataSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DataSet::Boards => "Boards",
            DataSet::Blogs => "Blogs",
            DataSet::Chat => "Chat",
            DataSet::Gab => "Gab",
            DataSet::Pastes => "Pastes",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 fixes six crawl platforms folded into five data sets. The
    /// matches have no wildcard arm, so a new variant stops this test
    /// building until the counts are revisited.
    #[test]
    fn six_platforms_in_five_data_sets() {
        let platform_row = |platform| match platform {
            Platform::Boards => 0,
            Platform::Discord => 1,
            Platform::Telegram => 2,
            Platform::Gab => 3,
            Platform::Pastes => 4,
            Platform::Blogs => 5,
        };
        for (i, platform) in Platform::ALL.into_iter().enumerate() {
            assert_eq!(platform_row(platform), i, "{platform} is out of order");
        }
        assert_eq!(Platform::ALL.len(), 6);

        let data_set_row = |data_set| match data_set {
            DataSet::Boards => 0,
            DataSet::Blogs => 1,
            DataSet::Chat => 2,
            DataSet::Gab => 3,
            DataSet::Pastes => 4,
        };
        for (i, data_set) in DataSet::ALL.into_iter().enumerate() {
            assert_eq!(data_set_row(data_set), i, "{data_set} is out of order");
        }
        assert_eq!(DataSet::ALL.len(), 5);
    }

    #[test]
    fn every_platform_maps_into_its_data_set() {
        for p in Platform::ALL {
            assert!(
                p.data_set().platforms().contains(&p),
                "{p} missing from its data set"
            );
        }
    }

    #[test]
    fn chat_folds_discord_and_telegram() {
        assert_eq!(
            DataSet::Chat.platforms(),
            &[Platform::Discord, Platform::Telegram]
        );
        assert_eq!(Platform::Discord.data_set(), DataSet::Chat);
        assert_eq!(Platform::Telegram.data_set(), DataSet::Chat);
    }

    #[test]
    fn cth_task_excludes_pastes_and_blogs() {
        assert!(!Platform::Pastes.cth_task_applies());
        assert!(!Platform::Blogs.cth_task_applies());
        assert!(Platform::Boards.cth_task_applies());
        assert!(Platform::Discord.cth_task_applies());
        assert!(Platform::Telegram.cth_task_applies());
        assert!(Platform::Gab.cth_task_applies());
    }

    #[test]
    fn slugs_are_unique() {
        let mut slugs: Vec<_> = Platform::ALL.iter().map(|p| p.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), Platform::ALL.len());
    }

    #[test]
    fn data_sets_partition_platforms() {
        let mut seen = Vec::new();
        for ds in DataSet::ALL {
            seen.extend_from_slice(ds.platforms());
        }
        seen.sort_unstable();
        let mut all = Platform::ALL.to_vec();
        all.sort_unstable();
        assert_eq!(seen, all);
    }
}
