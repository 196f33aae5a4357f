//! The document model shared by every pipeline stage.

use incite_taxonomy::pii_kind::PiiSet;
use incite_taxonomy::{Gender, LabelSet, Platform};
use serde::{Deserialize, Serialize};

/// A stable document identifier, unique within a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DocId(pub u64);

/// Thread placement for platforms with ordered threads (boards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadRef {
    /// Thread identifier, unique within the platform.
    pub thread_id: u64,
    /// Zero-based position of this post within the thread.
    pub position: u32,
    /// Total posts in the thread.
    pub thread_len: u32,
}

impl ThreadRef {
    /// Whether this is the thread's original post.
    pub fn is_first(&self) -> bool {
        self.position == 0
    }

    /// Whether this is the thread's final post.
    pub fn is_last(&self) -> bool {
        self.position + 1 == self.thread_len
    }

    /// Number of posts after this one — the paper's definition of the
    /// "responses" to a call to harassment (§6.3).
    pub fn responses(&self) -> u32 {
        self.thread_len - 1 - self.position
    }
}

/// Planted ground truth carried by every synthetic document.
///
/// The filtering pipeline never reads this — it exists so that annotation
/// can be simulated as a noise process over truth and so experiments can
/// measure recovery quality.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// The document is a call to harassment.
    pub is_cth: bool,
    /// The document is a dox.
    pub is_dox: bool,
    /// Attack-type labels (CTH only).
    pub labels: LabelSet,
    /// Pronoun-inferable target gender.
    pub gender: Gender,
    /// PII families planted in the text.
    pub pii: PiiSet,
    /// Family/employer information present (the manually annotated
    /// "reputation risk" indicator of §7.2).
    pub reputation_flag: bool,
    /// The target's OSN handle, when one is planted — repeated doxes about
    /// the same target share this (§7.3).
    pub target_handle: Option<String>,
    /// A deliberately tricky benign document (e.g. civic mobilization
    /// language, the paper's false-positive example in §5.4).
    pub hard_negative: bool,
}

/// One synthetic platform document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Document {
    pub id: DocId,
    pub platform: Platform,
    /// The post body (text only, mirroring the paper's data handling).
    pub text: String,
    /// Pseudonymous author handle ("anonymous" on boards).
    pub author: String,
    /// Unix timestamp (seconds).
    pub timestamp: u64,
    /// Thread placement; `None` off-boards.
    pub thread: Option<ThreadRef>,
    /// Channel / board / blog / paste-site name.
    pub channel: String,
    /// Planted truth.
    pub truth: GroundTruth,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ref_positions() {
        let first = ThreadRef {
            thread_id: 1,
            position: 0,
            thread_len: 10,
        };
        assert!(first.is_first());
        assert!(!first.is_last());
        assert_eq!(first.responses(), 9);

        let last = ThreadRef {
            thread_id: 1,
            position: 9,
            thread_len: 10,
        };
        assert!(last.is_last());
        assert_eq!(last.responses(), 0);

        let single = ThreadRef {
            thread_id: 2,
            position: 0,
            thread_len: 1,
        };
        assert!(single.is_first() && single.is_last());
    }

    #[test]
    fn ground_truth_default_is_benign() {
        let t = GroundTruth::default();
        assert!(!t.is_cth && !t.is_dox);
        assert!(t.labels.is_empty());
        assert_eq!(t.gender, Gender::Unknown);
        assert!(t.pii.is_empty());
        assert!(t.target_handle.is_none());
    }

    #[test]
    fn document_serde_roundtrip() {
        let doc = Document {
            id: DocId(7),
            platform: Platform::Boards,
            text: "hello thread".to_string(),
            author: "anonymous".to_string(),
            timestamp: 1_500_000_000,
            thread: Some(ThreadRef {
                thread_id: 3,
                position: 2,
                thread_len: 5,
            }),
            channel: "b".to_string(),
            truth: GroundTruth::default(),
        };
        let json = serde_json::to_string(&doc).unwrap();
        let back: Document = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, doc.id);
        assert_eq!(back.thread, doc.thread);
        assert_eq!(back.text, doc.text);
    }
}
