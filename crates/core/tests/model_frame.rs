//! The model frame's decoder against damaged and forged input.
//!
//! `decode_model` turns untrusted bytes into a classifier: a model file
//! handed to `incite score --model`, or the model section of a run
//! directory that a hot-swap request names. Every input must give either
//! a typed [`CodecError`] or a classifier that scores without panicking,
//! and no single allocation may exceed a small multiple of the input's
//! length. A global allocator that notes each request's size checks the
//! last; it is this test binary's own, so it touches no other test.

use incite_core::checkpoint::codec::{CodecError, Reader};
use incite_core::checkpoint::{decode_model, encode_model};
use incite_ml::{FeatureMode, FeaturizerConfig, TextClassifier, TrainConfig, SPAN_CAP};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Offsets of the frame's fixed fields, after its 8-byte tag.
const MODE_AT: usize = 8;
const BITS_AT: usize = 9;
const MAX_LEN_AT: usize = 13;
const MAX_SPANS_AT: usize = 21;
const STRATEGY_AT: usize = 29;
const VOCAB_SIZE_AT: usize = 38;
const PIECES_AT: usize = 54;

const TRAINING: [&str; 8] = [
    "we need to report him to the platform",
    "lets mass flag her account right now, spread the word",
    "post his address and phone number: 555-0147 — dox incoming",
    "RAID the stream tonight!!! bring everyone",
    "reporting reported reporter raids raiding flagged",
    "報告 このアカウント héllo wörld über straße",
    "lovely weather for a picnic in the park",
    "the new patch notes look good to me",
];

fn classifier(mode: FeatureMode) -> TextClassifier {
    let labeled = TRAINING.iter().enumerate().map(|(i, t)| (*t, i < 5));
    let config = FeaturizerConfig {
        mode,
        hash_bits: 10,
        vocab_size: 256,
        ..Default::default()
    };
    TextClassifier::train(labeled, config, TrainConfig::default())
}

/// Scores a short, an empty and a multi-span text. Must not panic.
fn score_all(what: &str, clf: &TextClassifier) {
    let long = "post his address and report him everywhere ".repeat(60);
    for text in ["raid her stream tonight", "", long.as_str()] {
        let scored = catch_unwind(AssertUnwindSafe(|| clf.score(text)));
        assert!(scored.is_ok(), "{what}: scoring panicked");
    }
}

/// Offsets of the frame's counts: the piece count and each piece's
/// length (all `u32`), then the weight count (a `u64`).
fn count_fields(frame: &[u8]) -> (Vec<usize>, usize) {
    let mut r = Reader::new(frame, b"IMODEL02").expect("tag");
    r.take(PIECES_AT - 8).expect("fixed fields");
    let mut counts = vec![r.pos()];
    for _ in 0..r.len_u32(4).expect("piece count") {
        counts.push(r.pos());
        r.blob().expect("piece");
    }
    r.u32().expect("bias");
    (counts, r.pos())
}

/// Seeded positions in `0..len` (a 64-bit LCG, as the stream codec's
/// mutation test draws its own).
fn offsets(seed: u64, len: usize, n: usize) -> Vec<usize> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % len
        })
        .collect()
}

thread_local! {
    /// The largest allocation this thread asked for since tracking
    /// started; `None` while it is off.
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The system allocator, noting each request's size in [`PEAK`].
struct PeakAlloc;

fn note(size: usize) {
    let _ = PEAK.try_with(|peak| {
        if let Some(largest) = peak.get() {
            peak.set(Some(largest.max(size)));
        }
    });
}

// SAFETY: every call forwards unchanged to `System`; `note` only reads
// and writes a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Decodes one `input`. It must not panic, and no single allocation may
/// exceed twice the input plus 16 KiB: a count is bounded by the bytes
/// after it before anything is reserved for it.
fn decode_bounded(what: &str, input: &[u8]) -> Result<TextClassifier, CodecError> {
    PEAK.with(|peak| peak.set(Some(0)));
    let result = catch_unwind(AssertUnwindSafe(|| decode_model(input)));
    let largest = PEAK.with(|peak| peak.replace(None)).unwrap_or(0);
    let Ok(result) = result else {
        panic!("{what}: the decoder panicked");
    };
    assert!(
        largest <= 2 * input.len() + (16 << 10),
        "{what}: a {largest}-byte allocation for a {}-byte input",
        input.len()
    );
    result
}

/// `frame` with `value` written over its bytes at `at`.
fn patched(frame: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    bytes[at..at + value.len()].copy_from_slice(value);
    bytes
}

/// `frame` with the `RandomLength { min_len: 1 }` strategy, which samples
/// `max_spans` spans of an over-long document, and `max_spans` set.
fn random_length(frame: &[u8], max_spans: u64) -> Vec<u8> {
    let strategy = patched(frame, STRATEGY_AT, &[3]);
    let strategy = patched(&strategy, STRATEGY_AT + 1, &1u64.to_le_bytes());
    patched(&strategy, MAX_SPANS_AT, &max_spans.to_le_bytes())
}

#[test]
fn seeded_mutations_of_a_subword_frame_are_typed_or_score() {
    let clf = classifier(FeatureMode::Subword);
    let frame = encode_model(&clf);
    let back = decode_bounded("the frame", &frame).expect("the frame decodes");
    assert_eq!(
        back.score("raid her").to_bits(),
        clf.score("raid her").to_bits()
    );
    let len = frame.len();

    let (mut typed, mut scored) = (0, 0);
    for at in offsets(0x5eed_0201, len, 600) {
        let what = format!("flip at byte {at}");
        let mut bytes = frame.clone();
        bytes[at] ^= 1 << (at % 8);
        match decode_bounded(&what, &bytes) {
            Ok(clf) => {
                score_all(&what, &clf);
                scored += 1;
            }
            Err(e) => {
                assert!(e.offset < len, "{what}: {e}");
                typed += 1;
            }
        }
    }
    // Most flips land in weights, which decode to another classifier;
    // the header and the pieces give typed errors.
    assert!(typed > 0 && scored > 0, "{typed} typed, {scored} scored");

    for cut in 0..len {
        let what = format!("cut at byte {cut}");
        let result = decode_bounded(&what, &frame[..cut]);
        assert!(
            matches!(&result, Err(e) if e.offset <= cut),
            "{what}: {:?}",
            result.map(|_| "a classifier")
        );
    }

    let (counts, weights_at) = count_fields(&frame);
    assert!(counts.len() > 20, "{} pieces", counts.len() - 1);
    for at in counts.into_iter().chain([BITS_AT]) {
        let what = format!("u32 at byte {at} set to u32::MAX");
        let result = decode_bounded(&what, &patched(&frame, at, &u32::MAX.to_le_bytes()));
        assert!(
            matches!(&result, Err(e) if e.offset == at),
            "{what}: {:?}",
            result.map(|_| "a classifier")
        );
    }
    let what = "weight count set to u64::MAX";
    let result = decode_bounded(what, &patched(&frame, weights_at, &u64::MAX.to_le_bytes()));
    assert!(
        matches!(&result, Err(e) if e.offset == weights_at),
        "{what}: {:?}",
        result.map(|_| "a classifier")
    );
    // These usize fields bound no allocation and no loop: at their maximum
    // the frame still decodes, and the classifier still scores. (`max_spans`
    // bounds a loop per document, so it is capped; see the planted frames.)
    for at in [MAX_LEN_AT, VOCAB_SIZE_AT] {
        let what = format!("u64 at byte {at} set to u64::MAX");
        let bytes = patched(&frame, at, &u64::MAX.to_le_bytes());
        let clf = decode_bounded(&what, &bytes).expect("a usize field decodes");
        score_all(&what, &clf);
    }
}

#[test]
fn planted_frames_are_refused_at_their_field() {
    let subword = encode_model(&classifier(FeatureMode::Subword));
    let word = encode_model(&classifier(FeatureMode::Word));
    let (_, weights_at) = count_fields(&subword);
    let weights = u64::from_le_bytes(subword[weights_at..weights_at + 8].try_into().expect("u64"));
    assert_eq!(weights, 1 << 10);
    let mut one_more = patched(&subword, weights_at, &(weights + 1).to_le_bytes());
    one_more.extend_from_slice(&0f32.to_bits().to_le_bytes());
    let mut one_less = patched(&subword, weights_at, &(weights - 1).to_le_bytes());
    one_less.truncate(one_less.len() - 4);

    let at_cap = random_length(&word, SPAN_CAP as u64);
    let clf = decode_bounded("max_spans at the cap", &at_cap).expect("the cap decodes");
    score_all("max_spans at the cap", &clf);

    let planted: Vec<(&str, Vec<u8>, usize, &str)> = vec![
        (
            "max_spans u64::MAX under RandomLength",
            random_length(&subword, u64::MAX),
            MAX_SPANS_AT,
            "max_spans exceeds the span cap of 64",
        ),
        (
            "max_spans cap + 1 under RandomLength",
            random_length(&subword, SPAN_CAP as u64 + 1),
            MAX_SPANS_AT,
            "max_spans exceeds the span cap of 64",
        ),
        (
            "hash_bits 0",
            patched(&subword, BITS_AT, &0u32.to_le_bytes()),
            BITS_AT,
            "hash_bits is outside 1..=30",
        ),
        (
            "hash_bits 200",
            patched(&subword, BITS_AT, &200u32.to_le_bytes()),
            BITS_AT,
            "hash_bits is outside 1..=30",
        ),
        (
            "2^hash_bits + 1 weights",
            one_more,
            weights_at,
            "weight count is not 2^hash_bits",
        ),
        (
            "2^hash_bits - 1 weights",
            one_less,
            weights_at,
            "weight count is not 2^hash_bits",
        ),
        (
            "mode tag 3",
            patched(&subword, MODE_AT, &[3]),
            MODE_AT,
            "unknown feature mode",
        ),
        (
            "mode tag 255",
            patched(&subword, MODE_AT, &[255]),
            MODE_AT,
            "unknown feature mode",
        ),
        (
            "span strategy tag 4",
            patched(&subword, STRATEGY_AT, &[4]),
            STRATEGY_AT,
            "unknown span strategy",
        ),
        (
            "a parameter on a strategy without one",
            patched(&subword, STRATEGY_AT + 1, &[1]),
            STRATEGY_AT,
            "unknown span strategy",
        ),
        (
            "pieces in Word mode",
            patched(&subword, MODE_AT, &[0]),
            PIECES_AT,
            "pieces do not fit the feature mode",
        ),
        (
            "pieces in Char mode",
            patched(&subword, MODE_AT, &[2]),
            PIECES_AT,
            "pieces do not fit the feature mode",
        ),
        (
            "Subword mode without pieces",
            patched(&word, MODE_AT, &[1]),
            PIECES_AT,
            "pieces do not fit the feature mode",
        ),
        (
            "a frame of the retired binary format",
            patched(&subword, 0, b"IMODELB1"),
            0,
            "foreign or outdated frame tag",
        ),
    ];
    for (what, bytes, offset, detail) in planted {
        let result = decode_bounded(what, &bytes).map(|_| "a classifier");
        assert_eq!(result, Err(CodecError { offset, detail }), "{what}");
    }
}
