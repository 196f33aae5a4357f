//! Model persistence.
//!
//! §3 of the paper: "we will open-source the classifiers discussed in this
//! analysis to help online platforms better detect calls to harassment and
//! doxing. We will not provide PII or actual training data." This module is
//! that promise for the reproduction: a trained [`TextClassifier`]
//! serializes to a single JSON artifact — hashed-feature weights, WordPiece
//! vocabulary and featurizer configuration; **no training text** — and loads
//! back bit-identically.

use crate::model::TextClassifier;
use serde::{Deserialize as _, Serialize as _};
use std::io::{Read, Write};

/// Errors from saving/loading models.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The artifact was not a valid model (wrong schema or corrupt).
    Format(String),
    /// The artifact declares an unsupported schema version.
    Version { found: u32, supported: u32 },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "model i/o error: {e}"),
            PersistError::Format(m) => write!(f, "invalid model artifact: {m}"),
            PersistError::Version { found, supported } => {
                write!(
                    f,
                    "unsupported model version {found} (supported: {supported})"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Current artifact schema version.
const MODEL_VERSION: u32 = 1;

#[derive(serde::Serialize, serde::Deserialize)]
struct Artifact {
    /// Schema version for forward compatibility.
    version: u32,
    /// Human-readable provenance note.
    producer: String,
    /// The classifier itself.
    classifier: TextClassifier,
}

/// [`Artifact`] by reference: serializes to the identical JSON object
/// (same keys, `BTreeMap` order) without cloning the weight vector and
/// vocabulary. `save_model` is on the per-step checkpoint path, where the
/// clone was measurable.
struct ArtifactRef<'a> {
    version: u32,
    producer: String,
    classifier: &'a TextClassifier,
}

impl serde::Serialize for ArtifactRef<'_> {
    fn to_value(&self) -> serde::Value {
        let mut obj = serde::Map::new();
        obj.insert("version".to_string(), self.version.to_value());
        obj.insert("producer".to_string(), self.producer.to_value());
        obj.insert("classifier".to_string(), self.classifier.to_value());
        serde::Value::Object(obj)
    }
}

/// Saves a classifier as a JSON artifact.
pub fn save_model<W: Write>(writer: W, classifier: &TextClassifier) -> Result<(), PersistError> {
    let artifact = ArtifactRef {
        version: MODEL_VERSION,
        producer: format!("incite-ml {}", env!("CARGO_PKG_VERSION")),
        classifier,
    };
    serde_json::to_writer(writer, &artifact).map_err(|e| PersistError::Format(e.to_string()))
}

/// Loads a classifier from a JSON artifact.
pub fn load_model<R: Read>(reader: R) -> Result<TextClassifier, PersistError> {
    let artifact: Artifact =
        serde_json::from_reader(reader).map_err(|e| PersistError::Format(e.to_string()))?;
    if artifact.version != MODEL_VERSION {
        return Err(PersistError::Version {
            found: artifact.version,
            supported: MODEL_VERSION,
        });
    }
    Ok(artifact.classifier)
}

/// Magic + version header of the binary artifact frame.
const BIN_MAGIC: &[u8; 8] = b"IMODELB1";

/// Saves a classifier as a compact binary artifact — the same value tree
/// as [`save_model`], encoded without number formatting. This is the
/// hot-path format for per-step pipeline checkpoints, where serializing a
/// `2^18`-weight model as JSON costs milliseconds per boundary; the JSON
/// artifact remains the published, human-inspectable interchange format.
pub fn save_model_bin<W: Write>(
    mut writer: W,
    classifier: &TextClassifier,
) -> Result<(), PersistError> {
    let artifact = ArtifactRef {
        version: MODEL_VERSION,
        producer: format!("incite-ml {}", env!("CARGO_PKG_VERSION")),
        classifier,
    };
    let mut buf = Vec::with_capacity(1 << 16);
    buf.extend_from_slice(BIN_MAGIC);
    value_bin::encode(&artifact.to_value(), &mut buf);
    writer.write_all(&buf)?;
    Ok(())
}

/// Loads a classifier from a [`save_model_bin`] artifact.
pub fn load_model_bin<R: Read>(mut reader: R) -> Result<TextClassifier, PersistError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    if buf.len() < 8 || &buf[..8] != BIN_MAGIC {
        return Err(PersistError::Format(
            "not a binary model artifact (missing frame tag)".to_string(),
        ));
    }
    let value = value_bin::decode(&buf[8..]).map_err(PersistError::Format)?;
    let artifact = Artifact::from_value(&value).map_err(|e| PersistError::Format(e.to_string()))?;
    if artifact.version != MODEL_VERSION {
        return Err(PersistError::Version {
            found: artifact.version,
            supported: MODEL_VERSION,
        });
    }
    Ok(artifact.classifier)
}

/// A compact, exact binary encoding of the serde [`serde::Value`] tree.
/// Works for any `Serialize`/`Deserialize` type with no per-type codec to
/// maintain; numbers are little-endian bit patterns (floats round-trip
/// bit-exactly, with no formatting or parsing on the hot path). An
/// all-float array — the model's weight vector — packs as a raw `f64`
/// run behind its own tag.
mod value_bin {
    use serde::{Map, Value};

    const T_NULL: u8 = 0;
    const T_FALSE: u8 = 1;
    const T_TRUE: u8 = 2;
    const T_INT: u8 = 3;
    const T_UINT: u8 = 4;
    const T_FLOAT: u8 = 5;
    const T_STR: u8 = 6;
    const T_ARRAY: u8 = 7;
    const T_OBJECT: u8 = 8;
    const T_FLOAT_ARRAY: u8 = 9;

    pub fn encode(v: &Value, out: &mut Vec<u8>) {
        match v {
            Value::Null => out.push(T_NULL),
            Value::Bool(false) => out.push(T_FALSE),
            Value::Bool(true) => out.push(T_TRUE),
            Value::Int(i) => {
                out.push(T_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::UInt(u) => {
                out.push(T_UINT);
                out.extend_from_slice(&u.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(T_FLOAT);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(T_STR);
                out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Array(items) => {
                if !items.is_empty() && items.iter().all(|i| matches!(i, Value::Float(_))) {
                    out.push(T_FLOAT_ARRAY);
                    out.extend_from_slice(&(items.len() as u64).to_le_bytes());
                    for item in items {
                        if let Value::Float(f) = item {
                            out.extend_from_slice(&f.to_bits().to_le_bytes());
                        }
                    }
                } else {
                    out.push(T_ARRAY);
                    out.extend_from_slice(&(items.len() as u64).to_le_bytes());
                    for item in items {
                        encode(item, out);
                    }
                }
            }
            Value::Object(map) => {
                out.push(T_OBJECT);
                out.extend_from_slice(&(map.len() as u64).to_le_bytes());
                for (k, item) in map {
                    out.extend_from_slice(&(k.len() as u64).to_le_bytes());
                    out.extend_from_slice(k.as_bytes());
                    encode(item, out);
                }
            }
        }
    }

    pub fn decode(bytes: &[u8]) -> Result<Value, String> {
        let mut pos = 0;
        let v = decode_at(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err("binary artifact has trailing bytes".to_string());
        }
        Ok(v)
    }

    fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], String> {
        let end = pos
            .checked_add(n)
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| "binary artifact is truncated".to_string())?;
        let slice = &bytes[*pos..end];
        *pos = end;
        Ok(slice)
    }

    fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(take(bytes, pos, 8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn take_len(bytes: &[u8], pos: &mut usize) -> Result<usize, String> {
        let n = take_u64(bytes, pos)?;
        // A length can never exceed the remaining input; reject early so a
        // corrupt length cannot trigger a huge allocation.
        if n > (bytes.len() - *pos) as u64 {
            return Err("binary artifact declares an impossible length".to_string());
        }
        Ok(n as usize)
    }

    fn take_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        let len = take_len(bytes, pos)?;
        String::from_utf8(take(bytes, pos, len)?.to_vec())
            .map_err(|_| "binary artifact string is not UTF-8".to_string())
    }

    fn decode_at(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        match take(bytes, pos, 1)?[0] {
            T_NULL => Ok(Value::Null),
            T_FALSE => Ok(Value::Bool(false)),
            T_TRUE => Ok(Value::Bool(true)),
            T_INT => {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(take(bytes, pos, 8)?);
                Ok(Value::Int(i64::from_le_bytes(buf)))
            }
            T_UINT => Ok(Value::UInt(take_u64(bytes, pos)?)),
            T_FLOAT => Ok(Value::Float(f64::from_bits(take_u64(bytes, pos)?))),
            T_STR => Ok(Value::Str(take_string(bytes, pos)?)),
            T_ARRAY => {
                let count = take_len(bytes, pos)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(decode_at(bytes, pos)?);
                }
                Ok(Value::Array(items))
            }
            T_FLOAT_ARRAY => {
                let count = take_len(bytes, pos)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(Value::Float(f64::from_bits(take_u64(bytes, pos)?)));
                }
                Ok(Value::Array(items))
            }
            T_OBJECT => {
                let count = take_len(bytes, pos)?;
                let mut map = Map::new();
                for _ in 0..count {
                    let key = take_string(bytes, pos)?;
                    let value = decode_at(bytes, pos)?;
                    map.insert(key, value);
                }
                Ok(Value::Object(map))
            }
            tag => Err(format!("binary artifact has unknown tag {tag}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{FeatureMode, FeaturizerConfig};
    use crate::logreg::TrainConfig;

    fn trained(mode: FeatureMode) -> TextClassifier {
        let data = vec![
            ("we need to mass report him", true),
            ("lets raid her stream", true),
            ("dox him, post the address", true),
            ("nice weather for hiking", false),
            ("the new patch is great", false),
            ("help me fix my printer", false),
        ];
        TextClassifier::train(
            data,
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

    #[test]
    fn roundtrip_preserves_scores_exactly() {
        for mode in [FeatureMode::Word, FeatureMode::Subword, FeatureMode::Char] {
            let clf = trained(mode);
            let mut buf = Vec::new();
            save_model(&mut buf, &clf).unwrap();
            let loaded = load_model(buf.as_slice()).unwrap();
            for text in [
                "we need to report him",
                "report the pothole to the city",
                "raid her stream tonight",
                "",
            ] {
                assert_eq!(clf.score(text), loaded.score(text), "{mode:?}: {text}");
            }
        }
    }

    #[test]
    fn artifact_contains_no_training_text() {
        let clf = trained(FeatureMode::Word);
        let mut buf = Vec::new();
        save_model(&mut buf, &clf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        // The paper's commitment: models without training data.
        assert!(!json.contains("mass report him"));
        assert!(!json.contains("nice weather"));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let clf = trained(FeatureMode::Word);
        let mut buf = Vec::new();
        save_model(&mut buf, &clf).unwrap();
        let json = String::from_utf8(buf)
            .unwrap()
            .replacen("\"version\":1", "\"version\":99", 1);
        match load_model(json.as_bytes()) {
            Err(PersistError::Version { found: 99, .. }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(matches!(
            load_model(&b"not json"[..]),
            Err(PersistError::Format(_))
        ));
        assert!(matches!(
            load_model(&b"{}"[..]),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn binary_roundtrip_preserves_scores_exactly() {
        for mode in [FeatureMode::Word, FeatureMode::Subword, FeatureMode::Char] {
            let clf = trained(mode);
            let mut buf = Vec::new();
            save_model_bin(&mut buf, &clf).unwrap();
            let loaded = load_model_bin(buf.as_slice()).unwrap();
            for text in [
                "we need to report him",
                "report the pothole to the city",
                "raid her stream tonight",
                "",
            ] {
                assert_eq!(clf.score(text), loaded.score(text), "{mode:?}: {text}");
            }
        }
    }

    #[test]
    fn binary_and_json_artifacts_agree() {
        let clf = trained(FeatureMode::Subword);
        let mut bin = Vec::new();
        save_model_bin(&mut bin, &clf).unwrap();
        let from_bin = load_model_bin(bin.as_slice()).unwrap();
        let mut json = Vec::new();
        save_model(&mut json, &clf).unwrap();
        let from_json = load_model(json.as_slice()).unwrap();
        for text in ["raid her stream tonight", "picnic weather", ""] {
            assert_eq!(from_bin.score(text), from_json.score(text), "{text}");
        }
    }

    #[test]
    fn binary_garbage_and_truncation_are_rejected() {
        assert!(matches!(
            load_model_bin(&b"not a frame"[..]),
            Err(PersistError::Format(_))
        ));
        let clf = trained(FeatureMode::Word);
        let mut buf = Vec::new();
        save_model_bin(&mut buf, &clf).unwrap();
        let cut = buf.len() / 2;
        assert!(matches!(
            load_model_bin(&buf[..cut]),
            Err(PersistError::Format(_))
        ));
        let mut trailing = buf.clone();
        trailing.push(0);
        assert!(matches!(
            load_model_bin(trailing.as_slice()),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn every_binary_truncation_point_is_a_typed_error() {
        // The serve boot path loads the binary artifact from a run
        // directory that may have been cut off at any byte (crash, partial
        // copy, bad disk). Every prefix must be a typed `PersistError` —
        // never a panic, never an `Ok` on less than the full frame.
        let clf = trained(FeatureMode::Subword);
        let mut buf = Vec::new();
        save_model_bin(&mut buf, &clf).unwrap();
        // Stride keeps the sweep fast while still crossing every section
        // of the frame; the hand-picked cuts hit the boundary cases.
        let step = (buf.len() / 97).max(1);
        let mut cuts: Vec<usize> = (0..buf.len()).step_by(step).collect();
        cuts.extend([0, 1, 7, 8, 9, buf.len() - 1]);
        for cut in cuts {
            match load_model_bin(&buf[..cut]) {
                Err(PersistError::Format(msg)) => {
                    assert!(!msg.is_empty(), "empty diagnostic at cut {cut}");
                }
                Err(other) => panic!("unexpected error kind at cut {cut}: {other:?}"),
                Ok(_) => panic!("truncated artifact ({cut} of {} bytes) loaded", buf.len()),
            }
        }
        // The full frame still loads — the sweep did not depend on a
        // corrupted source buffer.
        assert!(load_model_bin(buf.as_slice()).is_ok());
    }
}
