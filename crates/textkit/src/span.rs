//! Long-document span sampling (§5.2).
//!
//! DistilBERT caps input at a fixed max sequence length, so the paper
//! reduces longer documents by sampling spans: "we employed a method of
//! random spanning without overlap … This method of dealing with text longer
//! than the max-length ensured that we had spans of text from all areas of
//! the input document." They also experimented with head+tail spans,
//! overlapping spans, and random-length spans, and found **random
//! non-overlapping spans** best. All four strategies are implemented here so
//! the ablation bench can reproduce that comparison.
//!
//! Spans are character-budgeted (the paper speaks of a "max-sequence length
//! of 512 characters") and snapped outward to UTF-8 boundaries.

use crate::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// A strategy for reducing a long document to spans within a length budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpanStrategy {
    /// Random spans with no overlap, covering diverse document areas — the
    /// paper's best performer and the pipeline default.
    RandomNonOverlapping,
    /// One span from the head and one from the tail of the document.
    HeadTail,
    /// Fixed-stride overlapping spans; `stride` is the fraction of the span
    /// length to advance (e.g. 0.5 = 50 % overlap).
    Overlapping { stride_permille: u16 },
    /// Random spans of random length in `[min_len, max_len]`.
    RandomLength { min_len: usize },
}

impl SpanStrategy {
    /// All strategies at representative parameters, for the ablation bench.
    pub fn ablation_set() -> Vec<SpanStrategy> {
        vec![
            SpanStrategy::RandomNonOverlapping,
            SpanStrategy::HeadTail,
            SpanStrategy::Overlapping {
                stride_permille: 500,
            },
            SpanStrategy::RandomLength { min_len: 32 },
        ]
    }

    /// Short identifier for reports.
    pub fn slug(self) -> &'static str {
        match self {
            SpanStrategy::RandomNonOverlapping => "random_no_overlap",
            SpanStrategy::HeadTail => "head_tail",
            SpanStrategy::Overlapping { .. } => "overlapping",
            SpanStrategy::RandomLength { .. } => "random_length",
        }
    }
}

/// Snaps a byte index down to the nearest char boundary.
fn floor_char_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Snaps a byte index up to the nearest char boundary.
fn ceil_char_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while i < s.len() && !s.is_char_boundary(i) {
        i += 1;
    }
    i
}

fn slice_span(text: &str, start: usize, end: usize) -> &str {
    let s = ceil_char_boundary(text, start.min(end));
    let e = floor_char_boundary(text, end.max(s));
    &text[s..e.max(s)]
}

/// Whether [`sample_spans`] returns `text` whole: the budgets are
/// non-zero and `text` fits in `max_len` bytes. Such a document draws
/// nothing from the RNG, whatever the strategy.
pub fn fits_whole(text: &str, max_len: usize, max_spans: usize) -> bool {
    max_len > 0 && max_spans > 0 && text.len() <= max_len
}

/// Samples spans of at most `max_len` bytes from `text`.
///
/// * Documents within budget are returned whole, regardless of strategy
///   (see [`fits_whole`]).
/// * `max_spans` caps the number of sampled spans (the memory/throughput
///   trade-off the paper discusses).
/// * Sampling is deterministic given the RNG state.
pub fn sample_spans<'a>(
    text: &'a str,
    max_len: usize,
    max_spans: usize,
    strategy: SpanStrategy,
    rng: &mut SplitMix64,
) -> Vec<&'a str> {
    if fits_whole(text, max_len, max_spans) {
        return vec![text];
    }
    if max_len == 0 || max_spans == 0 {
        return Vec::new();
    }
    match strategy {
        SpanStrategy::RandomNonOverlapping => {
            // Partition the document into consecutive max_len windows, then
            // sample up to max_spans of them without replacement.
            let n_windows = text.len().div_ceil(max_len);
            let mut indices: Vec<usize> = (0..n_windows).collect();
            rng.shuffle(&mut indices);
            let mut chosen: Vec<usize> = indices.into_iter().take(max_spans).collect();
            chosen.sort_unstable();
            chosen
                .into_iter()
                .map(|w| slice_span(text, w * max_len, (w + 1) * max_len))
                .filter(|s| !s.is_empty())
                .collect()
        }
        SpanStrategy::HeadTail => {
            let head = slice_span(text, 0, max_len);
            let tail = slice_span(text, text.len().saturating_sub(max_len), text.len());
            if max_spans == 1 {
                vec![head]
            } else {
                vec![head, tail]
            }
        }
        SpanStrategy::Overlapping { stride_permille } => {
            let stride = ((max_len as u64 * stride_permille as u64) / 1000).max(1) as usize;
            let mut spans = Vec::new();
            let mut start = 0;
            while start < text.len() && spans.len() < max_spans {
                let span = slice_span(text, start, start + max_len);
                if span.is_empty() {
                    break;
                }
                spans.push(span);
                start += stride;
            }
            spans
        }
        SpanStrategy::RandomLength { min_len } => {
            let min_len = min_len.clamp(1, max_len);
            let mut spans = Vec::new();
            for _ in 0..max_spans {
                let len = rng.range(min_len, max_len + 1);
                let start = rng.range(0, text.len().saturating_sub(len).max(1));
                let span = slice_span(text, start, start + len);
                if !span.is_empty() {
                    spans.push(span);
                }
            }
            spans
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(42)
    }

    #[test]
    fn short_documents_pass_through() {
        let mut r = rng();
        for strat in SpanStrategy::ablation_set() {
            let spans = sample_spans("short text", 512, 4, strat, &mut r);
            assert_eq!(spans, vec!["short text"], "{strat:?}");
        }
    }

    #[test]
    fn random_non_overlapping_spans_do_not_overlap() {
        let text: String = (0..2000)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let mut r = rng();
        let spans = sample_spans(&text, 100, 5, SpanStrategy::RandomNonOverlapping, &mut r);
        assert!(spans.len() <= 5);
        // Spans are slices of the input: recover offsets and check disjoint.
        let mut ranges: Vec<(usize, usize)> = spans
            .iter()
            .map(|s| {
                let off = s.as_ptr() as usize - text.as_ptr() as usize;
                (off, off + s.len())
            })
            .collect();
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "spans overlap: {ranges:?}");
        }
    }

    #[test]
    fn random_spans_cover_diverse_areas() {
        // With enough spans requested, both halves of the document should be
        // represented (the paper's motivation for the strategy).
        let text = "a".repeat(10_000);
        let mut r = rng();
        let spans = sample_spans(&text, 500, 8, SpanStrategy::RandomNonOverlapping, &mut r);
        let offsets: Vec<usize> = spans
            .iter()
            .map(|s| s.as_ptr() as usize - text.as_ptr() as usize)
            .collect();
        assert!(offsets.iter().any(|&o| o < 5_000));
        assert!(offsets.iter().any(|&o| o >= 5_000));
    }

    #[test]
    fn head_tail_takes_both_ends() {
        let text: String = (0..1000)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let mut r = rng();
        let spans = sample_spans(&text, 100, 2, SpanStrategy::HeadTail, &mut r);
        assert_eq!(spans.len(), 2);
        assert!(text.starts_with(spans[0]));
        assert!(text.ends_with(spans[1]));
    }

    #[test]
    fn overlapping_spans_respect_stride() {
        let text = "x".repeat(1000);
        let mut r = rng();
        let spans = sample_spans(
            &text,
            100,
            100,
            SpanStrategy::Overlapping {
                stride_permille: 500,
            },
            &mut r,
        );
        // stride 50 bytes over 1000 bytes → 19 full-ish spans + remainder.
        assert!(spans.len() >= 18, "{}", spans.len());
        assert!(spans.iter().all(|s| s.len() <= 100));
    }

    #[test]
    fn random_length_spans_within_bounds() {
        let text = "y".repeat(5000);
        let mut r = rng();
        let spans = sample_spans(
            &text,
            200,
            10,
            SpanStrategy::RandomLength { min_len: 50 },
            &mut r,
        );
        assert_eq!(spans.len(), 10);
        for s in spans {
            assert!(s.len() >= 40 && s.len() <= 200, "span len {}", s.len());
        }
    }

    #[test]
    fn utf8_boundaries_are_respected() {
        let text = "héllo wörld ".repeat(200); // multibyte chars throughout
        let mut r = rng();
        for strat in SpanStrategy::ablation_set() {
            // Would panic on a bad boundary; also validate spans are valid UTF-8 slices.
            let spans = sample_spans(&text, 37, 6, strat, &mut r);
            for s in spans {
                assert!(s.len() <= 40); // 37 rounded down may shrink, never grow past budget+char
            }
        }
    }

    #[test]
    fn zero_budgets_yield_nothing() {
        let mut r = rng();
        assert!(sample_spans("abc", 0, 4, SpanStrategy::RandomNonOverlapping, &mut r).is_empty());
        assert!(sample_spans("abc", 4, 0, SpanStrategy::RandomNonOverlapping, &mut r).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let text = "z".repeat(3000);
        let mut r1 = SplitMix64::new(7);
        let mut r2 = SplitMix64::new(7);
        let s1 = sample_spans(&text, 100, 5, SpanStrategy::RandomNonOverlapping, &mut r1);
        let s2 = sample_spans(&text, 100, 5, SpanStrategy::RandomNonOverlapping, &mut r2);
        let o1: Vec<usize> = s1
            .iter()
            .map(|s| s.as_ptr() as usize - text.as_ptr() as usize)
            .collect();
        let o2: Vec<usize> = s2
            .iter()
            .map(|s| s.as_ptr() as usize - text.as_ptr() as usize)
            .collect();
        assert_eq!(o1, o2);
    }
}
