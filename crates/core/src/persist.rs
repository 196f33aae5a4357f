//! Model persistence.
//!
//! §3 of the paper: "we will open-source the classifiers discussed in this
//! analysis to help online platforms better detect calls to harassment and
//! doxing. We will not provide PII or actual training data." A trained
//! classifier has one persisted form, the model frame of
//! [`crate::checkpoint::encode_model`]: weights, WordPiece pieces and
//! featurizer configuration, **no training text**. A run directory keeps it
//! as a `.model.ckpt` section, and `incite train --out` writes the same
//! frame behind the same hash footer. These tests hold the frame and that
//! file to the round trip and the refusals every model reader relies on.

#[cfg(test)]
mod tests {
    use crate::checkpoint::atomic_io::{read_hashed, write_hashed};
    use crate::checkpoint::codec::CodecError;
    use crate::checkpoint::{decode_model, encode_model};
    use incite_ml::{FeatureMode, FeaturizerConfig, TextClassifier, TrainConfig};

    const MODES: [FeatureMode; 3] = [FeatureMode::Word, FeatureMode::Subword, FeatureMode::Char];

    /// The fixed fit's labelled texts; none may reach a frame.
    const TRAINING: [(&str, bool); 6] = [
        ("we need to mass report him", true),
        ("lets raid her stream", true),
        ("dox him, post the address", true),
        ("nice weather for hiking", false),
        ("the new patch is great", false),
        ("help me fix my printer", false),
    ];

    const FRAME_TAG: &str = "foreign or outdated frame tag";

    fn trained(mode: FeatureMode) -> TextClassifier {
        TextClassifier::train(
            TRAINING,
            FeaturizerConfig {
                mode,
                hash_bits: 12,
                vocab_size: 256,
                ..Default::default()
            },
            TrainConfig {
                epochs: 6,
                ..Default::default()
            },
        )
    }

    /// Compares the score bits on short, empty and multi-span texts.
    fn assert_same_scores(clf: &TextClassifier, loaded: &TextClassifier, mode: FeatureMode) {
        let long = "we need to report him right now ".repeat(40);
        for text in [
            "we need to report him",
            "report the pothole to the city",
            "raid her stream tonight",
            "",
            long.as_str(),
        ] {
            assert_eq!(
                clf.score(text).to_bits(),
                loaded.score(text).to_bits(),
                "{mode:?}: {text}"
            );
        }
    }

    /// The model file of `incite train --out` and `incite score --model`.
    #[test]
    fn roundtrip_preserves_scores_exactly() {
        let dir = std::env::temp_dir().join(format!("incite-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        for mode in MODES {
            let clf = trained(mode);
            let path = dir.join(format!("{mode:?}.model.ckpt"));
            write_hashed(&path, &encode_model(&clf)).expect("write");
            let (frame, _) = read_hashed(&path).expect("read");
            let loaded = decode_model(&frame).expect("decode");
            assert_same_scores(&clf, &loaded, mode);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_contains_no_training_text() {
        for mode in MODES {
            let frame = encode_model(&trained(mode));
            for (text, _) in TRAINING {
                assert!(
                    !frame.windows(text.len()).any(|w| w == text.as_bytes()),
                    "{mode:?}: {text}"
                );
            }
        }
    }

    /// The frame tag is the format's version: the retired binary
    /// format's tag and those of other layouts are refused before any
    /// field is read.
    #[test]
    fn wrong_version_is_rejected() {
        let mut frame = encode_model(&trained(FeatureMode::Word));
        for tag in [b"IMODELB1", b"IMODEL01", b"IMODEL03"] {
            frame[..8].copy_from_slice(tag);
            assert_eq!(
                decode_model(&frame).map(|_| ()),
                Err(CodecError {
                    offset: 0,
                    detail: FRAME_TAG
                }),
                "{}",
                String::from_utf8_lossy(tag)
            );
        }
    }

    /// Foreign bytes, the retired JSON artifact among them, are refused
    /// at the frame tag.
    #[test]
    fn garbage_is_rejected() {
        let json = br#"{"classifier":{},"producer":"incite-ml","version":1}"#;
        for garbage in [&b"not json"[..], b"{}", b"", json] {
            assert_eq!(
                decode_model(garbage).map(|_| ()),
                Err(CodecError {
                    offset: 0,
                    detail: FRAME_TAG
                }),
                "{}",
                String::from_utf8_lossy(garbage)
            );
        }
    }

    /// The frame of a run directory's model section, in memory. A loaded
    /// classifier encodes back to the same bytes.
    #[test]
    fn binary_roundtrip_preserves_scores_exactly() {
        for mode in MODES {
            let clf = trained(mode);
            let frame = encode_model(&clf);
            let loaded = decode_model(&frame).expect("decode");
            assert_same_scores(&clf, &loaded, mode);
            assert!(encode_model(&loaded) == frame, "{mode:?}: frame changed");
        }
    }

    #[test]
    fn binary_garbage_and_truncation_are_rejected() {
        assert!(decode_model(b"not a frame").is_err());
        let frame = encode_model(&trained(FeatureMode::Word));
        let cut = frame.len() / 2;
        assert!(decode_model(&frame[..cut]).is_err());
        let mut trailing = frame.clone();
        trailing.push(0);
        assert_eq!(
            decode_model(&trailing).map(|_| ()),
            Err(CodecError {
                offset: frame.len(),
                detail: "trailing bytes after the last field"
            })
        );
    }

    #[test]
    fn every_binary_truncation_point_is_a_typed_error() {
        // A run directory's model section may have been cut off at any
        // byte (crash, partial copy, bad disk). Every prefix must be a
        // typed error at an offset inside it: never a panic, never a
        // classifier from less than the full frame.
        let frame = encode_model(&trained(FeatureMode::Subword));
        // The stride crosses every part of the frame; the hand-picked
        // cuts hit the tag's and the last field's boundaries.
        let step = (frame.len() / 97).max(1);
        let mut cuts: Vec<usize> = (0..frame.len()).step_by(step).collect();
        cuts.extend([0, 1, 7, 8, 9, frame.len() - 1]);
        for cut in cuts {
            match decode_model(&frame[..cut]) {
                Err(e) => assert!(!e.detail.is_empty() && e.offset <= cut, "cut {cut}: {e}"),
                Ok(_) => panic!("truncated frame ({cut} of {} bytes) loaded", frame.len()),
            }
        }
        // The full frame still loads: the sweep did not depend on a
        // damaged source buffer.
        assert!(decode_model(&frame).is_ok());
    }
}
