//! Run-directory checkpointing for crash-recoverable pipeline runs.
//!
//! At paper scale the pipeline is a multi-round loop over 560 M documents
//! with paid crowd annotation in the middle — exactly the job where a
//! crash after round *k* must not discard rounds `0..k`. The pipeline
//! keeps one run state (`pipeline::RunState`) and mutates it in place; this
//! module records a view of that state at every step boundary into a
//! **run directory**, so
//! [`run_pipeline_resumable`](crate::run_pipeline_resumable) can be killed
//! at any boundary and resumed to a `PipelineOutcome` byte-identical to an
//! uninterrupted run (DESIGN.md §12). Recording borrows the state and
//! copies only its small core, into the manifest record; loading rebuilds
//! the state from the latest record and its section files.
//!
//! Layout of a run directory after one active-learning round:
//!
//! ```text
//! run_dir/
//!   MANIFEST.ckpt                      # log: header, then one record per step
//!   step-00-bootstrap.ledger.ckpt      # annotation ledger section
//!   step-01-featurize.model.ckpt       # classifier section (model frame)
//!   step-02-round-0.ledger.ckpt
//!   step-02-round-0.model.ckpt         # eval keeps these weights: reused
//!   step-04-score.scores.ckpt          # full-corpus score section
//! ```
//!
//! The state is persisted in **sections**: a small [`SnapshotCore`] (RNG
//! words, counters, rounds, thresholds, eval, engine stats) embedded
//! directly in the manifest's step record, plus content-addressed section
//! files for the bulky parts — the annotation ledger, the full-corpus
//! scores, and the model weights. A step whose section is unchanged
//! records the *previous* step's file in its step record instead of
//! rewriting the payload; since the ledger is append-only and the scores
//! are write-once (the run state's section contract), most boundaries
//! write no section file and cost one append to the manifest.
//!
//! The manifest is an [`atomic_io::AppendLog`]. Record 0 is the
//! [`Manifest`] header — schema version, task, config fingerprint, and
//! the steps it was written with: none for a fresh run, every step for a
//! manifest written before the log format, which is byte-for-byte such a
//! one-record log. Each later record is one [`StepRecord`], and a
//! complete appended record is that step's commit point. Appending keeps
//! the per-step tax flat: renaming a rewritten manifest over the old one
//! blocks for tens of milliseconds on ext4 whatever its size (DESIGN.md
//! §12), while an append, or a rename onto a name that does not exist
//! yet, costs a fraction of a millisecond. Section files therefore keep
//! [`atomic_io`]'s write-rename with an FNV-1a content-hash footer: their
//! names are fresh per step, so no rename replaces an existing file.
//!
//! Damage rules, shared with the stream delta log (DESIGN.md §18): a torn
//! final record — what a kill mid-append leaves — is a step that never
//! committed, so the run resumes from the step before and the next commit
//! cuts the torn bytes off before appending. A flipped byte in any
//! complete record, or a manifest without a complete header, is a typed
//! refusal. The step records list each step's files and their hashes;
//! opening a run directory re-verifies **every** recorded file, so a
//! single flipped byte anywhere refuses resume with a typed
//! [`CheckpointError::HashMismatch`] — no panic, no silent reuse. A
//! mismatched task or config fingerprint refuses with
//! [`CheckpointError::Incompatible`] rather than resuming into a different
//! experiment's state.
//!
//! What is persisted vs recomputed: the RNG stream position, training
//! ledger, round stats, thresholds, stage counts, eval report, engine
//! *counters*, and the classifier (as a model frame: featurizer
//! configuration, WordPiece pieces, weights and bias) are persisted. The
//! hasher, the vocabulary's indexes and the piece-gram table are rebuilt
//! from the frame; the CSR feature arena and the training-feature cache
//! are derivable from corpus + featurizer and are rebuilt on resume (with
//! the persisted counters restored so instrumentation stays identical).

pub mod atomic_io;
pub mod codec;

use crate::accounting::StageCounts;
use crate::active_learning::RoundStats;
use crate::engine::EngineStats;
use crate::pipeline::RunState;
use crate::threshold::PlatformThreshold;
use atomic_io::AppendLog;
use codec::CodecError;
use incite_ml::model::EvalReport;
use incite_ml::TextClassifier;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Manifest schema version. Version 2 is the first whose model sections
/// are model frames; a version-1 run directory is refused whole.
const MANIFEST_VERSION: u32 = 2;

/// Manifest file name inside a run directory.
pub const MANIFEST_FILE: &str = "MANIFEST.ckpt";

/// Errors from the checkpoint subsystem.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// A file is structurally unusable (missing footer, bad JSON, …).
    Corrupt { path: PathBuf, detail: String },
    /// Content hash disagrees with the recorded/framed hash.
    HashMismatch {
        path: PathBuf,
        expected: String,
        actual: String,
    },
    /// The run or state directory belongs to a different
    /// task/config/schema.
    Incompatible { detail: String },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint i/o error at {}: {source}", path.display())
            }
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint file {}: {detail}", path.display())
            }
            CheckpointError::HashMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "checkpoint hash mismatch in {}: recorded {expected}, found {actual} \
                 (refusing to resume from corrupt state)",
                path.display()
            ),
            CheckpointError::Incompatible { detail } => {
                write!(f, "incompatible checkpoint: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One persisted file of a step.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FileRecord {
    /// File name relative to the run directory.
    pub name: String,
    /// FNV-1a 64 hash (hex) of the payload.
    pub hash: String,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// One completed pipeline step: one appended manifest record.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StepRecord {
    /// Step name, e.g. `bootstrap`, `round-0`, `threshold-pastes`.
    pub name: String,
    /// The run state's core at this boundary, embedded in the manifest so
    /// that recording a step with no changed sections is a single append.
    pub core: SnapshotCore,
    /// Section files the step references (ledger / scores / model),
    /// possibly written by an earlier step.
    pub files: Vec<FileRecord>,
}

/// The ordered record of completed steps. On disk it is the manifest
/// log's header record plus one [`StepRecord`] per later record;
/// [`read_manifest`] folds them back into one value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Manifest {
    pub version: u32,
    /// Task slug the run belongs to.
    pub task: String,
    /// Fingerprint of the deterministic pipeline parameters.
    pub config_fingerprint: String,
    pub steps: Vec<StepRecord>,
}

/// The manifest's view of the run state at a step boundary: everything
/// except the ledger, scores and classifier, which live in their own
/// content-addressed section files. Small enough (RNG words, counters,
/// rounds, thresholds, eval) that it is embedded directly in the
/// manifest's [`StepRecord`] — committing a clean step is then exactly one
/// append. Its JSON shape is the manifest record's, so its field names
/// and order are part of the on-disk format.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SnapshotCore {
    /// xoshiro256++ state words at the boundary (exact stream position).
    pub rng: Vec<u64>,
    pub counts: StageCounts,
    pub rounds: Vec<RoundStats>,
    pub thresholds: Vec<PlatformThreshold>,
    pub eval: Option<EvalReport>,
    pub engine: Option<EngineStats>,
}

impl SnapshotCore {
    /// The manifest's view of `state`.
    fn of(state: &RunState) -> Self {
        SnapshotCore {
            rng: state.rng.state().to_vec(),
            counts: state.counts.clone(),
            rounds: state.rounds.clone(),
            thresholds: state.thresholds.clone(),
            eval: state.eval.clone(),
            engine: state.engine,
        }
    }

    /// The RNG state words, validated to the expected width.
    fn rng_state(&self) -> Result<[u64; 4], CheckpointError> {
        match self.rng.as_slice() {
            &[a, b, c, d] => Ok([a, b, c, d]),
            other => Err(CheckpointError::Incompatible {
                detail: format!("snapshot rng has {} words, expected 4", other.len()),
            }),
        }
    }
}

/// A deduplicated run-state section (ledger / scores / model): the file
/// record last written, plus the section length it was written at. The
/// length shortcut is sound because of the run state's append-only /
/// write-once section contract; after a reopen the length is unknown
/// (`None`) and the first `record_step` falls back to a hash comparison.
#[derive(Debug)]
struct SectionCache {
    len: Option<usize>,
    record: FileRecord,
}

/// Writes and verifies the checkpoint record of one pipeline run.
#[derive(Debug)]
pub(crate) struct Checkpointer {
    root: PathBuf,
    manifest: Manifest,
    /// The manifest log, opened by this process's first commit so that
    /// `Checkpointer::open` only reads.
    log: Option<AppendLog>,
    /// Start of a torn final record `open` found; the first commit cuts
    /// the log back to it before appending.
    torn: Option<u64>,
    ledger: Option<SectionCache>,
    scores: Option<SectionCache>,
    model: Option<SectionCache>,
    /// The last step's section payloads, by file name, as `open` read and
    /// verified them; `Checkpointer::load_latest` takes them instead of
    /// reading and hashing the files again.
    latest: BTreeMap<String, Vec<u8>>,
}

impl Checkpointer {
    /// Opens `root` for a resumable run of `task`/`config_fingerprint`.
    ///
    /// If a manifest exists it is verified — every complete record's
    /// footer hash, schema version, task and fingerprint match, and the
    /// recorded hash of **every** step file — before any state is trusted;
    /// a torn final record is a step that never committed. A missing
    /// manifest starts a fresh run (the directory is created on first
    /// write). Nothing is written here.
    pub(crate) fn open(
        root: &Path,
        task: &str,
        config_fingerprint: &str,
    ) -> Result<Self, CheckpointError> {
        if !root.join(MANIFEST_FILE).exists() {
            let manifest = Manifest {
                version: MANIFEST_VERSION,
                task: task.to_string(),
                config_fingerprint: config_fingerprint.to_string(),
                steps: Vec::new(),
            };
            return Ok(Checkpointer {
                root: root.to_path_buf(),
                manifest,
                log: None,
                torn: None,
                ledger: None,
                scores: None,
                model: None,
                latest: BTreeMap::new(),
            });
        }

        let (manifest, torn) = read_manifest(root)?;
        if manifest.task != task {
            return Err(CheckpointError::Incompatible {
                detail: format!(
                    "run directory belongs to task `{}`, requested `{task}`",
                    manifest.task
                ),
            });
        }
        if manifest.config_fingerprint != config_fingerprint {
            return Err(CheckpointError::Incompatible {
                detail: format!(
                    "config fingerprint {} does not match the checkpointed run's {} \
                     (use --force to discard the old run)",
                    config_fingerprint, manifest.config_fingerprint
                ),
            });
        }
        // Verify every recorded file before trusting any of it. Section
        // deduplication makes later steps reference earlier steps' files,
        // so each distinct (name, hash) pair is read once, and the last
        // step's payloads are kept for `load_latest`.
        let last_files: BTreeSet<&str> = manifest
            .steps
            .last()
            .map(|step| step.files.iter().map(|f| f.name.as_str()).collect())
            .unwrap_or_default();
        let mut verified = BTreeSet::new();
        let mut latest = BTreeMap::new();
        for step in &manifest.steps {
            for file in &step.files {
                if !verified.insert((file.name.as_str(), file.hash.as_str())) {
                    continue;
                }
                let payload = read_recorded(root, file)?;
                if last_files.contains(file.name.as_str()) {
                    latest.insert(file.name.clone(), payload);
                }
            }
        }
        // Seed the section caches from the last step so a resumed run
        // keeps deduplicating (length unknown across processes — the
        // first record_step re-hashes to compare).
        let mut ledger = None;
        let mut scores = None;
        let mut model = None;
        if let Some(step) = manifest.steps.last() {
            for file in &step.files {
                let cache = SectionCache {
                    len: None,
                    record: file.clone(),
                };
                if file.name.ends_with(".ledger.ckpt") {
                    ledger = Some(cache);
                } else if file.name.ends_with(".scores.ckpt") {
                    scores = Some(cache);
                } else if file.name.ends_with(".model.ckpt") {
                    model = Some(cache);
                }
            }
        }
        Ok(Checkpointer {
            root: root.to_path_buf(),
            manifest,
            log: None,
            torn,
            ledger,
            scores,
            model,
            latest,
        })
    }

    /// Number of steps already checkpointed.
    pub(crate) fn completed_steps(&self) -> usize {
        self.manifest.steps.len()
    }

    /// Persists one completed step from the borrowed run state: any
    /// section whose content changed (ledger, scores, classifier weights),
    /// each atomically, then one manifest record with the embedded
    /// [`SnapshotCore`] — in that order,
    /// so a crash between writes leaves a consistent prefix (an orphaned
    /// section file is harmless; the appended record is the commit
    /// point). Unchanged sections are recorded by reference to the
    /// previous step's file.
    ///
    /// `model_dirty` is the caller's promise about the weights since the
    /// last recorded step: `false` lets an already-recorded model be
    /// reused without even serializing it (the weights section has no
    /// cheap length proxy). Passing `true` is always safe — the payload
    /// is then serialized and deduplicated by content hash.
    pub(crate) fn record_step(
        &mut self,
        step: &str,
        state: &RunState,
        model_dirty: bool,
    ) -> Result<(), CheckpointError> {
        let idx = self.manifest.steps.len();
        let mut files = Vec::new();

        let ledger_name = format!("step-{idx:02}-{step}.ledger.ckpt");
        files.push(Self::dedup_section(
            &self.root,
            &mut self.ledger,
            ledger_name,
            Some(state.ledger.len()),
            || Ok(section_codec::encode_ledger(&state.ledger)),
        )?);

        if let Some(scores) = &state.scores {
            let scores_name = format!("step-{idx:02}-{step}.scores.ckpt");
            files.push(Self::dedup_section(
                &self.root,
                &mut self.scores,
                scores_name,
                Some(scores.len()),
                || Ok(section_codec::encode_scores(scores)),
            )?);
        }

        if let Some(classifier) = &state.classifier {
            match (&self.model, model_dirty) {
                // Clean weights with a recorded section: reuse as-is.
                (Some(cached), false) => files.push(cached.record.clone()),
                _ => {
                    let model_name = format!("step-{idx:02}-{step}.model.ckpt");
                    // Weights mutate in place at a fixed size, so no
                    // length shortcut: encode, dedupe by content hash.
                    files.push(Self::dedup_section(
                        &self.root,
                        &mut self.model,
                        model_name,
                        None,
                        || Ok(encode_model(classifier)),
                    )?);
                }
            }
        }

        let record = StepRecord {
            name: step.to_string(),
            core: SnapshotCore::of(state),
            files,
        };
        self.commit(&record)?;
        self.manifest.steps.push(record);
        Ok(())
    }

    /// Appends `step` to the manifest log: the step's commit point. The
    /// first commit of a process opens the log, writing record 0 — the
    /// header — when the run has no manifest yet, and cutting off a torn
    /// final record that `open` found.
    fn commit(&mut self, step: &StepRecord) -> Result<(), CheckpointError> {
        let path = self.root.join(MANIFEST_FILE);
        let log = match self.log.take() {
            Some(log) => log,
            None => {
                if !path.exists() {
                    atomic_io::write_hashed(&path, &to_json(&path, &self.manifest, "manifest")?)?;
                }
                let mut log = AppendLog::open(&path)?;
                if let Some(at) = self.torn {
                    log.cut_to(at)?;
                    self.torn = None;
                }
                log
            }
        };
        let payload = to_json(&path, step, "manifest step record")?;
        self.log.insert(log).append(&payload)
    }

    /// Records a section file, skipping the write when the content is
    /// unchanged from the cached last write: first by the section-length
    /// shortcut (valid under the append-only / write-once contract), then
    /// by comparing the serialized payload's hash.
    fn dedup_section(
        root: &Path,
        cache: &mut Option<SectionCache>,
        name: String,
        len: Option<usize>,
        payload: impl FnOnce() -> Result<Vec<u8>, CheckpointError>,
    ) -> Result<FileRecord, CheckpointError> {
        if let (Some(cached), Some(len)) = (cache.as_ref(), len) {
            if cached.len == Some(len) {
                return Ok(cached.record.clone());
            }
        }
        let bytes = payload()?;
        let hash = atomic_io::fnv64_hex(&bytes);
        if let Some(cached) = cache.as_mut() {
            if cached.record.hash == hash && cached.record.bytes == bytes.len() as u64 {
                cached.len = len;
                return Ok(cached.record.clone());
            }
        }
        atomic_io::write_framed(&root.join(&name), &bytes, &hash)?;
        let record = FileRecord {
            name,
            hash,
            bytes: bytes.len() as u64,
        };
        *cache = Some(SectionCache {
            len,
            record: record.clone(),
        });
        Ok(record)
    }

    /// Rebuilds the run state recorded at the most recent step, with its
    /// classifier when one was persisted. `None` when no step has
    /// completed yet. Decodes the section payloads `open` verified, and
    /// reads only files it did not keep.
    pub(crate) fn load_latest(&mut self) -> Result<Option<RunState>, CheckpointError> {
        let Some(step) = self.manifest.steps.last() else {
            return Ok(None);
        };
        let core = &step.core;
        let mut state = RunState::new(StdRng::from_state(core.rng_state()?));
        state.counts = core.counts.clone();
        state.rounds = core.rounds.clone();
        state.thresholds = core.thresholds.clone();
        state.eval = core.eval.clone();
        state.engine = core.engine;
        for file in &step.files {
            let path = self.root.join(&file.name);
            let payload = match self.latest.remove(&file.name) {
                Some(payload) => payload,
                None => atomic_io::read_hashed(&path)?.0,
            };
            let corrupt = |e: CodecError| e.corrupt(&path);
            if file.name.ends_with(".ledger.ckpt") {
                state.ledger = section_codec::decode_ledger(&payload).map_err(corrupt)?;
            } else if file.name.ends_with(".scores.ckpt") {
                state.scores = Some(section_codec::decode_scores(&payload).map_err(corrupt)?);
            } else if file.name.ends_with(".model.ckpt") {
                state.classifier = Some(decode_model(&payload).map_err(corrupt)?);
            }
        }
        Ok(Some(state))
    }
}

/// Length-prefixed binary frames for the bulky run-state sections: the
/// ledger, the scores and the classifier. JSON serialization of a
/// 10^5-entry score table or annotation ledger costs milliseconds per
/// step (number formatting through a `Value` tree); these frames encode
/// the same data byte-exactly through [`codec`] and decode with errors
/// that name an offset. The manifest and its [`SnapshotCore`] stay JSON:
/// they are small and worth keeping human-inspectable. Integrity is
/// supplied by the [`atomic_io`] hash footer around the frame.
mod section_codec {
    use super::codec::{CodecError, Reader, Writer};
    use incite_corpus::DocId;
    use incite_ml::{FeatureMode, FeaturizerConfig, PartsError, TextClassifier};
    use incite_textkit::SpanStrategy;

    /// Frame version tags, so a future layout change is a typed refusal
    /// instead of a garbled decode.
    const LEDGER_MAGIC: &[u8; 8] = b"ILEDGER1";
    const SCORES_MAGIC: &[u8; 8] = b"ISCORES1";
    const MODEL_MAGIC: &[u8; 8] = b"IMODEL02";

    /// Bytes of a ledger entry with an empty text: id, text length, label.
    const LEDGER_ENTRY_MIN: usize = 13;

    pub(super) fn encode_ledger(training: &[(DocId, String, bool)]) -> Vec<u8> {
        let bytes: usize = training
            .iter()
            .map(|(_, t, _)| t.len() + LEDGER_ENTRY_MIN)
            .sum();
        let mut w = Writer::new(LEDGER_MAGIC, 16 + bytes);
        w.len_u64(training.len());
        for (id, text, label) in training {
            w.u64(id.0);
            w.blob(text.as_bytes());
            w.u8(u8::from(*label));
        }
        w.finish()
    }

    pub(super) fn decode_ledger(bytes: &[u8]) -> Result<Vec<(DocId, String, bool)>, CodecError> {
        let mut r = Reader::new(bytes, LEDGER_MAGIC)?;
        let count = r.len_u64(LEDGER_ENTRY_MIN)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let id = DocId(r.u64()?);
            let offset = r.pos();
            let text = std::str::from_utf8(r.blob()?).map_err(|_| CodecError {
                offset,
                detail: "ledger text is not UTF-8",
            })?;
            let offset = r.pos();
            let label = match r.u8()? {
                0 => false,
                1 => true,
                _ => {
                    return Err(CodecError {
                        offset,
                        detail: "ledger label byte is not 0 or 1",
                    })
                }
            };
            out.push((id, text.to_string(), label));
        }
        r.finish()?;
        Ok(out)
    }

    /// Each score travels as its raw `f32` bits: bit-exact by
    /// construction.
    pub(super) fn encode_scores(scores: &[(DocId, f32)]) -> Vec<u8> {
        let mut w = Writer::new(SCORES_MAGIC, 16 + scores.len() * 12);
        w.len_u64(scores.len());
        for (id, score) in scores {
            w.u64(id.0);
            w.u32(score.to_bits());
        }
        w.finish()
    }

    pub(super) fn decode_scores(bytes: &[u8]) -> Result<Vec<(DocId, f32)>, CodecError> {
        let mut r = Reader::new(bytes, SCORES_MAGIC)?;
        let count = r.len_u64(12)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push((DocId(r.u64()?), f32::from_bits(r.u32()?)));
        }
        r.finish()?;
        Ok(out)
    }

    /// The model frame: what [`TextClassifier::from_parts`] takes and
    /// nothing derived from it, so no training text (§3).
    ///
    /// ```text
    /// "IMODEL02"
    /// u8   mode              0 Word, 1 Subword, 2 Char
    /// u32  hash_bits
    /// u64  max_len, max_spans
    /// u8   strategy          0 random non-overlapping, 1 head+tail,
    ///                        2 overlapping, 3 random length
    /// u64  strategy param    stride_permille (2), min_len (3), else 0
    /// u64  vocab_size, seed
    /// u32  piece count       then each piece as a u32-length blob;
    ///                        0 pieces unless the mode is Subword
    /// u32  bias              f32 bits
    /// u64  weight count      then each weight as its f32 bits
    /// ```
    pub fn encode_model(classifier: &TextClassifier) -> Vec<u8> {
        let featurizer = classifier.featurizer();
        let c = featurizer.config();
        let weights = classifier.model().weights();
        let pieces: Vec<&str> = featurizer
            .vocab()
            .map(|vocab| vocab.iter().collect())
            .unwrap_or_default();
        let piece_bytes: usize = pieces.iter().map(|p| 4 + p.len()).sum();
        let mut w = Writer::new(MODEL_MAGIC, 80 + piece_bytes + 4 * weights.len());
        w.u8(match c.mode {
            FeatureMode::Word => 0,
            FeatureMode::Subword => 1,
            FeatureMode::Char => 2,
        });
        w.u32(c.hash_bits);
        w.u64(c.max_len as u64);
        w.u64(c.max_spans as u64);
        let (strategy, param) = match c.strategy {
            SpanStrategy::RandomNonOverlapping => (0, 0),
            SpanStrategy::HeadTail => (1, 0),
            SpanStrategy::Overlapping { stride_permille } => (2, u64::from(stride_permille)),
            SpanStrategy::RandomLength { min_len } => (3, min_len as u64),
        };
        w.u8(strategy);
        w.u64(param);
        w.u64(c.vocab_size as u64);
        w.u64(c.seed);
        w.len_u32(pieces.len());
        for piece in pieces {
            w.blob(piece.as_bytes());
        }
        w.u32(classifier.model().bias().to_bits());
        w.len_u64(weights.len());
        for weight in weights {
            w.u32(weight.to_bits());
        }
        w.finish()
    }

    /// Decodes a model frame. A field no encoder writes is refused at
    /// its offset, and so are parts `TextClassifier::from_parts` refuses:
    /// the offset is then that of `hash_bits`, `max_spans`, the weight
    /// count or the piece count.
    pub fn decode_model(bytes: &[u8]) -> Result<TextClassifier, CodecError> {
        let mut r = Reader::new(bytes, MODEL_MAGIC)?;
        let refuse = |offset, detail| CodecError { offset, detail };
        let at = r.pos();
        let mode = match r.u8()? {
            0 => FeatureMode::Word,
            1 => FeatureMode::Subword,
            2 => FeatureMode::Char,
            _ => return Err(refuse(at, "unknown feature mode")),
        };
        let bits_at = r.pos();
        let hash_bits = r.u32()?;
        let max_len = usize_field(&mut r)?;
        let spans_at = r.pos();
        let max_spans = usize_field(&mut r)?;
        let at = r.pos();
        let strategy = match (r.u8()?, r.u64()?) {
            (0, 0) => SpanStrategy::RandomNonOverlapping,
            (1, 0) => SpanStrategy::HeadTail,
            (2, param) => SpanStrategy::Overlapping {
                stride_permille: u16::try_from(param)
                    .map_err(|_| refuse(at, "span stride exceeds u16"))?,
            },
            (3, param) => SpanStrategy::RandomLength {
                min_len: usize::try_from(param)
                    .map_err(|_| refuse(at, "span length exceeds usize"))?,
            },
            _ => return Err(refuse(at, "unknown span strategy")),
        };
        let vocab_size = usize_field(&mut r)?;
        let seed = r.u64()?;
        let pieces_at = r.pos();
        // Grown as pieces are read, not reserved from the count: a
        // `String` takes six times the four bytes a piece needs at least.
        let mut pieces = Vec::new();
        for _ in 0..r.len_u32(4)? {
            let at = r.pos();
            let piece =
                std::str::from_utf8(r.blob()?).map_err(|_| refuse(at, "piece is not UTF-8"))?;
            pieces.push(piece.to_string());
        }
        let bias = f32::from_bits(r.u32()?);
        let weights_at = r.pos();
        let count = r.len_u64(4)?;
        let mut weights = Vec::with_capacity(count);
        for _ in 0..count {
            weights.push(f32::from_bits(r.u32()?));
        }
        r.finish()?;
        let config = FeaturizerConfig {
            max_len,
            max_spans,
            strategy,
            mode,
            hash_bits,
            vocab_size,
            seed,
        };
        TextClassifier::from_parts(config, pieces, weights, bias).map_err(|e| {
            let offset = match e {
                PartsError::HashBits => bits_at,
                PartsError::MaxSpans => spans_at,
                PartsError::WeightCount => weights_at,
                PartsError::Pieces => pieces_at,
            };
            refuse(offset, e.describe())
        })
    }

    /// A `usize` configuration field, written as a `u64`.
    fn usize_field(r: &mut Reader<'_>) -> Result<usize, CodecError> {
        let at = r.pos();
        usize::try_from(r.u64()?).map_err(|_| CodecError {
            offset: at,
            detail: "field exceeds usize",
        })
    }
}

pub use section_codec::{decode_model, encode_model};

/// Serializes a manifest record, naming it on failure.
fn to_json<T: serde::Serialize>(
    path: &Path,
    value: &T,
    what: &str,
) -> Result<Vec<u8>, CheckpointError> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("{what} serialization failed: {e}"),
        })
}

/// Parses a verified JSON payload, naming the section on failure.
fn parse_json<T: serde::Deserialize>(
    path: &Path,
    payload: &[u8],
    what: &str,
) -> Result<T, CheckpointError> {
    let text = std::str::from_utf8(payload).map_err(|_| CheckpointError::Corrupt {
        path: path.to_path_buf(),
        detail: format!("{what} is not UTF-8"),
    })?;
    serde_json::from_str(text).map_err(|e| CheckpointError::Corrupt {
        path: path.to_path_buf(),
        detail: format!("{what} does not parse: {e}"),
    })
}

/// Reads the manifest log of the run directory `root`: the [`Manifest`]
/// with every committed step, plus the byte offset where a torn final
/// record starts (`None` when the whole log verifies). A torn record is a
/// step a kill interrupted mid-append; it never committed. A flipped byte
/// in any complete record, a log without a complete header record, or a
/// record that does not parse is a typed refusal, and so is a header
/// written under another schema version.
pub fn read_manifest(root: &Path) -> Result<(Manifest, Option<u64>), CheckpointError> {
    let path = root.join(MANIFEST_FILE);
    let (records, torn) = atomic_io::read_log_strict(&path)?;
    let mut records = records.iter();
    let header = records.next().ok_or_else(|| CheckpointError::Corrupt {
        path: path.clone(),
        detail: "manifest has no complete header record".to_string(),
    })?;
    let mut manifest: Manifest = parse_json(&path, header, "manifest")?;
    if manifest.version != MANIFEST_VERSION {
        return Err(CheckpointError::Incompatible {
            detail: format!(
                "manifest version {} (supported: {MANIFEST_VERSION})",
                manifest.version
            ),
        });
    }
    for record in records {
        manifest
            .steps
            .push(parse_json(&path, record, "manifest step record")?);
    }
    Ok((manifest, torn))
}

/// Loads the classifier recorded at the most recent step of a run
/// directory, without binding to a task or config fingerprint — the
/// online serving boot path (`incite serve --run-dir DIR`).
///
/// The manifest records, schema version, and the model section's recorded
/// hash and size are all verified before the artifact is decoded, so a
/// damaged or truncated run directory is a typed refusal — never a
/// partially-initialized server. Unlike `Checkpointer::open` it does
/// not re-verify every section file: serving only needs the weights, and
/// the ledger/scores sections may be arbitrarily large.
pub fn load_latest_classifier(root: &Path) -> Result<TextClassifier, CheckpointError> {
    load_latest_classifier_with_hash(root).map(|(classifier, _)| classifier)
}

/// [`load_latest_classifier`] that also returns the model section's
/// verified content hash (the manifest-recorded FNV-64 hex). The hash is
/// the model's provenance identity: the serve-side model registry stamps
/// it on every scored response and the request journal records it, so a
/// replay can prove it re-scored with the *same* weights.
pub fn load_latest_classifier_with_hash(
    root: &Path,
) -> Result<(TextClassifier, String), CheckpointError> {
    let manifest_path = root.join(MANIFEST_FILE);
    if !manifest_path.exists() {
        return Err(CheckpointError::Incompatible {
            detail: format!(
                "{} has no {MANIFEST_FILE} — not a run directory (create one with \
                 `incite run --resume DIR`)",
                root.display()
            ),
        });
    }
    let (manifest, _) = read_manifest(root)?;
    let record = manifest
        .steps
        .iter()
        .rev()
        .flat_map(|step| step.files.iter())
        .find(|file| file.name.ends_with(".model.ckpt"))
        .ok_or_else(|| CheckpointError::Incompatible {
            detail: format!(
                "run in {} has no model checkpoint yet (no training step completed)",
                root.display()
            ),
        })?;
    let payload = read_recorded(root, record)?;
    let classifier = decode_model(&payload).map_err(|e| e.corrupt(&root.join(&record.name)))?;
    Ok((classifier, record.hash.clone()))
}

/// Reads the section file `file` records under `root`: its footer must
/// verify, and its hash and size must be the recorded ones. The footer
/// check hashes the payload; nothing hashes it again.
fn read_recorded(root: &Path, file: &FileRecord) -> Result<Vec<u8>, CheckpointError> {
    let path = root.join(&file.name);
    let (payload, actual) = atomic_io::read_hashed(&path)?;
    if actual != file.hash || payload.len() as u64 != file.bytes {
        return Err(CheckpointError::HashMismatch {
            path,
            expected: file.hash.clone(),
            actual,
        });
    }
    Ok(payload)
}

/// Removes all checkpoint files (`*.ckpt`) from `root`, enabling a fresh
/// run in the same directory (the CLI's `--force`). Files without the
/// checkpoint extension are left untouched; a missing directory is fine.
pub fn clear_run_dir(root: &Path) -> Result<(), CheckpointError> {
    let entries = match std::fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => {
            return Err(CheckpointError::Io {
                path: root.to_path_buf(),
                source: e,
            })
        }
    };
    for entry in entries {
        let entry = entry.map_err(|e| CheckpointError::Io {
            path: root.to_path_buf(),
            source: e,
        })?;
        let path = entry.path();
        let is_ckpt = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".ckpt") || n.ends_with(".ckpt.tmp"));
        if is_ckpt {
            std::fs::remove_file(&path).map_err(|e| CheckpointError::Io {
                path: path.clone(),
                source: e,
            })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use incite_corpus::DocId;
    use incite_ml::{FeatureMode, FeaturizerConfig, TrainConfig};

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("incite-ckpt-{tag}-{}", std::process::id()))
    }

    /// Successive `state(n)` calls honour the section contract: the
    /// ledger grows by appending and the scores never change.
    fn state(n: u64) -> RunState {
        let mut state = RunState::new(StdRng::from_state([n, n + 1, n + 2, n + 3]));
        state.ledger = (0..n)
            .map(|i| (DocId(i), format!("text {i}"), i % 2 == 0))
            .collect();
        state.counts.raw_documents = n;
        state.scores = Some(vec![(DocId(0), 0.75)]);
        state
    }

    /// `RunState` holds a classifier and `f32` scores, so it has no
    /// `PartialEq`: compare its core, its ledger and its score bits.
    fn assert_same(a: &RunState, b: &RunState) {
        let bits = |s: &RunState| {
            s.scores.as_ref().map(|v| {
                v.iter()
                    .map(|(id, x)| (*id, x.to_bits()))
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(SnapshotCore::of(a), SnapshotCore::of(b));
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.classifier.is_some(), b.classifier.is_some());
    }

    #[test]
    fn fresh_open_then_record_then_resume() {
        let root = temp_root("fresh");
        clear_run_dir(&root).expect("clear");
        let mut ck = Checkpointer::open(&root, "dox", "fp1").expect("open");
        assert_eq!(ck.completed_steps(), 0);
        assert!(ck.load_latest().expect("latest").is_none());

        ck.record_step("bootstrap", &state(1), true)
            .expect("record 1");
        ck.record_step("featurize", &state(2), true)
            .expect("record 2");

        let mut ck2 = Checkpointer::open(&root, "dox", "fp1").expect("reopen");
        assert_eq!(ck2.completed_steps(), 2);
        let (manifest, torn) = read_manifest(&root).expect("manifest");
        let names: Vec<&str> = manifest.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            (names.as_slice(), torn),
            (&["bootstrap", "featurize"][..], None)
        );
        let loaded = ck2.load_latest().expect("latest").expect("some");
        assert_same(&loaded, &state(2));
        assert_eq!(loaded.rng.state(), [2, 3, 4, 5]);
        assert!(loaded.classifier.is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn wrong_task_or_fingerprint_is_refused() {
        let root = temp_root("mismatch");
        clear_run_dir(&root).expect("clear");
        let mut ck = Checkpointer::open(&root, "dox", "fp1").expect("open");
        ck.record_step("bootstrap", &state(1), true)
            .expect("record");
        assert!(matches!(
            Checkpointer::open(&root, "cth", "fp1"),
            Err(CheckpointError::Incompatible { .. })
        ));
        assert!(matches!(
            Checkpointer::open(&root, "dox", "fp2"),
            Err(CheckpointError::Incompatible { .. })
        ));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn corrupt_step_file_refuses_resume() {
        let root = temp_root("corrupt-step");
        clear_run_dir(&root).expect("clear");
        let mut ck = Checkpointer::open(&root, "dox", "fp1").expect("open");
        ck.record_step("bootstrap", &state(1), true)
            .expect("record");
        // Flip one payload byte of the ledger section file.
        let path = root.join("step-00-bootstrap.ledger.ckpt");
        let mut raw = std::fs::read(&path).expect("read");
        raw[10] ^= 0x01;
        std::fs::write(&path, &raw).expect("write corrupt");
        match Checkpointer::open(&root, "dox", "fp1") {
            Err(CheckpointError::HashMismatch { .. }) => {}
            other => panic!("expected HashMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn clear_enables_fresh_run_and_spares_other_files() {
        let root = temp_root("clear");
        clear_run_dir(&root).expect("clear empty");
        let mut ck = Checkpointer::open(&root, "dox", "fp1").expect("open");
        ck.record_step("bootstrap", &state(1), true)
            .expect("record");
        std::fs::write(root.join("notes.txt"), "keep me").expect("note");
        clear_run_dir(&root).expect("clear");
        assert!(!root.join(MANIFEST_FILE).exists());
        assert!(!root.join("step-00-bootstrap.ledger.ckpt").exists());
        assert!(root.join("notes.txt").exists());
        let fresh = Checkpointer::open(&root, "cth", "other").expect("reopen");
        assert_eq!(fresh.completed_steps(), 0);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Unchanged sections are recorded by reference, not rewritten: two
    /// steps with the same ledger and scores share one file of each, and
    /// appending to the ledger produces a new file.
    #[test]
    fn unchanged_sections_reuse_the_previous_file() {
        let root = temp_root("dedup");
        clear_run_dir(&root).expect("clear");
        let mut ck = Checkpointer::open(&root, "dox", "fp1").expect("open");
        let mut run = state(3);
        ck.record_step("round-0", &run, true).expect("record 1");
        run.counts.raw_documents = 99;
        ck.record_step("eval", &run, true).expect("record 2");

        let count = |suffix: &str| {
            std::fs::read_dir(&root)
                .expect("read dir")
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
                .count()
        };
        assert_eq!(count(".state.ckpt"), 0, "core is embedded in the manifest");
        assert_eq!(count(".ledger.ckpt"), 1, "unchanged ledger deduped");
        assert_eq!(count(".scores.ckpt"), 1, "unchanged scores deduped");

        // The deduplicated directory still verifies and loads exactly.
        let mut ck2 = Checkpointer::open(&root, "dox", "fp1").expect("reopen");
        assert_eq!(ck2.completed_steps(), 2);
        let loaded = ck2.load_latest().expect("latest").expect("some");
        assert_same(&loaded, &run);

        // Appending to the ledger forces a new section file — including
        // right after a reopen, where only the hash comparison can tell.
        let mut ck3 = Checkpointer::open(&root, "dox", "fp1").expect("reopen for append");
        run.ledger.push((DocId(77), "appended".to_string(), true));
        ck3.record_step("round-1", &run, true).expect("record 3");
        assert_eq!(count(".ledger.ckpt"), 2, "appended ledger rewritten");
        assert_eq!(count(".scores.ckpt"), 1, "scores still deduped");
        let loaded = ck3.load_latest().expect("latest").expect("some");
        assert_same(&loaded, &run);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn section_frames_roundtrip_and_refuse_damage() {
        let training = vec![
            (DocId(0), String::new(), false),
            (
                DocId(u64::MAX),
                "unicode café 😀 and\nnewlines\t".to_string(),
                true,
            ),
            (DocId(42), "plain ascii".to_string(), false),
        ];
        let bytes = section_codec::encode_ledger(&training);
        assert_eq!(
            section_codec::decode_ledger(&bytes).expect("ledger"),
            training
        );

        // NaN is not equal to itself, so compare the bits.
        let scores = vec![(DocId(7), 0.25f32), (DocId(8), f32::NAN)];
        let bits = |s: &[(DocId, f32)]| -> Vec<(DocId, u32)> {
            s.iter().map(|(id, x)| (*id, x.to_bits())).collect()
        };
        let bytes = section_codec::encode_scores(&scores);
        assert_eq!(
            bits(&section_codec::decode_scores(&bytes).expect("scores")),
            bits(&scores)
        );

        // Damage surfaces as a typed message, never a panic: wrong magic,
        // truncation, trailing bytes, and a bad label byte.
        assert!(section_codec::decode_ledger(b"GARBAGE!rest").is_err());
        let mut enc = section_codec::encode_ledger(&training);
        enc.truncate(enc.len() - 1);
        assert!(section_codec::decode_ledger(&enc).is_err());
        let mut enc = section_codec::encode_scores(&scores);
        enc.push(0);
        assert!(section_codec::decode_scores(&enc).is_err());
        let mut enc = section_codec::encode_ledger(&training);
        let last = enc.len() - 1;
        enc[last] = 9; // label byte of the final record
        assert!(section_codec::decode_ledger(&enc).is_err());
    }

    /// Texts of the fixed Subword fit whose frame bytes are pinned.
    const TRAINING: [&str; 8] = [
        "we need to report him to the platform",
        "lets mass flag her account right now, spread the word",
        "post his address and phone number: 555-0147 — dox incoming",
        "RAID the stream tonight!!! bring everyone",
        "報告 このアカウント héllo wörld über straße",
        "reporting reported reporter raids raiding flagged",
        "lovely weather for a picnic in the park",
        "the new patch notes look good to me",
    ];

    fn trained(mode: FeatureMode) -> TextClassifier {
        let labeled = TRAINING.iter().enumerate().map(|(i, t)| (*t, i < 6));
        let config = FeaturizerConfig {
            mode,
            hash_bits: 12,
            vocab_size: 256,
            ..Default::default()
        };
        TextClassifier::train(labeled, config, TrainConfig::default())
    }

    /// FNV-1a of the model frame of the fixed Subword fit, taken when the
    /// model became a codec frame. The piece-gram table and the
    /// vocabulary's indexes are derived on load and must never reach it.
    const SUBWORD_MODEL_FNV: u64 = 0xab25_83df_00ee_0aed;

    #[test]
    fn subword_model_bytes_are_unchanged() {
        let clf = trained(FeatureMode::Subword);
        let frame = encode_model(&clf);
        assert_eq!(
            incite_textkit::fnv1a(&frame, 0),
            SUBWORD_MODEL_FNV,
            "model frame bytes changed ({} bytes, fnv {:#018x})",
            frame.len(),
            incite_textkit::fnv1a(&frame, 0)
        );
        assert_eq!(encode_model(&decode_model(&frame).expect("decode")), frame);
    }

    #[test]
    fn snapshot_roundtrips_exactly_through_json() {
        let mut snap = SnapshotCore::of(&state(7));
        snap.rounds.push(RoundStats {
            sampled: 40,
            disagreement_rate: 0.186_6,
            kappa: Some(0.350_123_456_789),
            positives_added: 9,
        });
        snap.engine = Some(EngineStats {
            documents: 6_000,
            nnz: 120_000,
            featurize_passes: 1,
            score_passes: 2,
        });
        // u64 state words above 2^53 must survive (no float coercion).
        snap.rng = vec![u64::MAX, 1 << 60, 3, 4];
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: SnapshotCore = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }
}
