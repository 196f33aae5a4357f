//! Run-directory checkpointing for crash-recoverable pipeline runs.
//!
//! At paper scale the pipeline is a multi-round loop over 560 M documents
//! with paid crowd annotation in the middle — exactly the job where a
//! crash after round *k* must not discard rounds `0..k`. This module
//! persists the full pipeline state at every step boundary into a **run
//! directory**, so [`run_pipeline_resumable`](crate::run_pipeline_resumable)
//! can be killed at any boundary and resumed to a `PipelineOutcome`
//! byte-identical to an uninterrupted run (DESIGN.md §12).
//!
//! Layout of a run directory:
//!
//! ```text
//! run_dir/
//!   MANIFEST.ckpt                      # log: header, then one record per step
//!   step-00-bootstrap.ledger.ckpt      # annotation ledger section
//!   step-01-featurize.model.ckpt       # incite-ml persist artifact, framed
//!   step-02-round-0.ledger.ckpt
//!   step-02-round-0.model.ckpt
//!   step-03-eval.model.ckpt
//!   step-04-score.scores.ckpt          # full-corpus score section
//! ```
//!
//! The snapshot is persisted in **sections**: a small core (RNG words,
//! counters, rounds, thresholds, eval, engine stats) embedded directly
//! in the manifest's step record, plus content-addressed section files
//! for the bulky parts — the annotation ledger, the full-corpus scores,
//! and the model weights. A step whose section is unchanged records the
//! *previous* step's file in its step record instead of rewriting the
//! payload; since the ledger is append-only and the scores are
//! write-once (see [`PipelineSnapshot`]), most boundaries write no
//! section file and cost one append to the manifest.
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
//! *counters*, and the classifier weights (via `incite_ml::persist`) are
//! persisted; the CSR feature arena and the training-feature cache are
//! derivable from corpus + featurizer and are rebuilt on resume (with the
//! persisted counters restored so instrumentation stays identical).

pub mod atomic_io;

use crate::accounting::StageCounts;
use crate::active_learning::RoundStats;
use crate::engine::EngineStats;
use crate::threshold::PlatformThreshold;
use atomic_io::AppendLog;
use incite_corpus::DocId;
use incite_ml::model::EvalReport;
use incite_ml::{load_model_bin, save_model_bin, TextClassifier};
use std::fmt;
use std::path::{Path, PathBuf};

/// Manifest schema version.
const MANIFEST_VERSION: u32 = 1;

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
    /// The run directory belongs to a different task/config/schema.
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
                write!(f, "incompatible run directory: {detail}")
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
    /// The core snapshot at this boundary, embedded in the manifest so
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

/// Full pipeline state at a step boundary. Everything needed to continue
/// the run bit-for-bit; see the module docs for what is recomputed
/// instead.
///
/// Section contract, relied on for checkpoint deduplication: across the
/// successive snapshots of one run, `training` is **append-only** (seed
/// set, then each round's crowd labels) and `scores` is **write-once**
/// (set at the score step, never modified after). An unchanged length
/// therefore means unchanged content, and [`Checkpointer::record_step`]
/// reuses the previous step's section file instead of rewriting it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelineSnapshot {
    /// xoshiro256++ state words at the boundary (exact stream position).
    pub rng: Vec<u64>,
    /// Figure 1 stage counters accumulated so far.
    pub counts: StageCounts,
    /// The annotation ledger: every labeled `(id, text, label)` so far —
    /// seed set plus each round's crowd labels. Append-only.
    pub training: Vec<(DocId, String, bool)>,
    /// Completed active-learning rounds.
    pub rounds: Vec<RoundStats>,
    /// Completed per-platform threshold rows.
    pub thresholds: Vec<PlatformThreshold>,
    /// Full-corpus scores as `f32` raw bits (bit-exact by construction).
    /// Write-once.
    pub scores: Option<Vec<(DocId, u32)>>,
    /// Held-out evaluation, once computed.
    pub eval: Option<EvalReport>,
    /// Engine pass counters at the boundary.
    pub engine: Option<EngineStats>,
}

/// The per-step core of a [`PipelineSnapshot`]: everything except the
/// deduplicated ledger/scores/model sections, which live in their own
/// content-addressed files. Small enough (RNG words, counters, rounds,
/// thresholds, eval) that it is embedded directly in the manifest's
/// [`StepRecord`] — committing a clean step is then exactly one append.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SnapshotCore {
    pub rng: Vec<u64>,
    pub counts: StageCounts,
    pub rounds: Vec<RoundStats>,
    pub thresholds: Vec<PlatformThreshold>,
    pub eval: Option<EvalReport>,
    pub engine: Option<EngineStats>,
}

impl PipelineSnapshot {
    /// An empty snapshot positioned at `rng`.
    pub fn empty(rng_state: [u64; 4]) -> Self {
        PipelineSnapshot {
            rng: rng_state.to_vec(),
            counts: StageCounts::default(),
            training: Vec::new(),
            rounds: Vec::new(),
            thresholds: Vec::new(),
            scores: None,
            eval: None,
            engine: None,
        }
    }

    /// The RNG state words, validated to the expected width.
    pub fn rng_state(&self) -> Result<[u64; 4], CheckpointError> {
        match self.rng.as_slice() {
            &[a, b, c, d] => Ok([a, b, c, d]),
            other => Err(CheckpointError::Incompatible {
                detail: format!("snapshot rng has {} words, expected 4", other.len()),
            }),
        }
    }
}

/// What `Checkpointer::open` found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// No manifest: the run starts from scratch.
    Fresh,
    /// A verified manifest with `completed` steps to skip.
    FromStep { completed: usize },
}

/// A deduplicated snapshot section (ledger / scores / model): the file
/// record last written, plus the section length it was written at. The
/// length shortcut is sound because of the append-only / write-once
/// contract on [`PipelineSnapshot`]; after a reopen the length is unknown
/// (`None`) and the first `record_step` falls back to a hash comparison.
#[derive(Debug)]
struct SectionCache {
    len: Option<usize>,
    record: FileRecord,
}

/// Writes and verifies the checkpoint record of one pipeline run.
#[derive(Debug)]
pub struct Checkpointer {
    root: PathBuf,
    manifest: Manifest,
    /// The manifest log, opened by this process's first commit so that
    /// [`Checkpointer::open`] only reads.
    log: Option<AppendLog>,
    /// Start of a torn final record `open` found; the first commit cuts
    /// the log back to it before appending.
    torn: Option<u64>,
    ledger: Option<SectionCache>,
    scores: Option<SectionCache>,
    model: Option<SectionCache>,
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
    pub fn open(
        root: &Path,
        task: &str,
        config_fingerprint: &str,
    ) -> Result<(Self, Resume), CheckpointError> {
        if !root.join(MANIFEST_FILE).exists() {
            let manifest = Manifest {
                version: MANIFEST_VERSION,
                task: task.to_string(),
                config_fingerprint: config_fingerprint.to_string(),
                steps: Vec::new(),
            };
            return Ok((
                Checkpointer {
                    root: root.to_path_buf(),
                    manifest,
                    log: None,
                    torn: None,
                    ledger: None,
                    scores: None,
                    model: None,
                },
                Resume::Fresh,
            ));
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
        // so each distinct (name, hash) pair is read once.
        let mut verified = std::collections::BTreeSet::new();
        for step in &manifest.steps {
            for file in &step.files {
                if !verified.insert((file.name.clone(), file.hash.clone())) {
                    continue;
                }
                let path = root.join(&file.name);
                let payload = atomic_io::read_hashed(&path)?;
                let actual = atomic_io::fnv64_hex(&payload);
                if actual != file.hash || payload.len() as u64 != file.bytes {
                    return Err(CheckpointError::HashMismatch {
                        path,
                        expected: file.hash.clone(),
                        actual,
                    });
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
        let completed = manifest.steps.len();
        Ok((
            Checkpointer {
                root: root.to_path_buf(),
                manifest,
                log: None,
                torn,
                ledger,
                scores,
                model,
            },
            Resume::FromStep { completed },
        ))
    }

    /// Number of steps already checkpointed.
    pub fn completed_steps(&self) -> usize {
        self.manifest.steps.len()
    }

    /// Names of the completed steps, in execution order.
    pub fn step_names(&self) -> impl Iterator<Item = &str> {
        self.manifest.steps.iter().map(|s| s.name.as_str())
    }

    /// The run directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Persists one completed step: any section whose content changed
    /// (ledger, scores, classifier weights), each atomically, then one
    /// manifest record with the embedded core snapshot — in that order,
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
    pub fn record_step(
        &mut self,
        step: &str,
        snapshot: &PipelineSnapshot,
        classifier: Option<&TextClassifier>,
        model_dirty: bool,
    ) -> Result<(), CheckpointError> {
        let idx = self.manifest.steps.len();
        let mut files = Vec::new();

        let core = SnapshotCore {
            rng: snapshot.rng.clone(),
            counts: snapshot.counts.clone(),
            rounds: snapshot.rounds.clone(),
            thresholds: snapshot.thresholds.clone(),
            eval: snapshot.eval.clone(),
            engine: snapshot.engine,
        };

        let ledger_name = format!("step-{idx:02}-{step}.ledger.ckpt");
        files.push(Self::dedup_section(
            &self.root,
            &mut self.ledger,
            ledger_name,
            Some(snapshot.training.len()),
            || Ok(section_codec::encode_ledger(&snapshot.training)),
        )?);

        if let Some(scores) = &snapshot.scores {
            let scores_name = format!("step-{idx:02}-{step}.scores.ckpt");
            files.push(Self::dedup_section(
                &self.root,
                &mut self.scores,
                scores_name,
                Some(scores.len()),
                || Ok(section_codec::encode_scores(scores)),
            )?);
        }

        if let Some(classifier) = classifier {
            match (&self.model, model_dirty) {
                // Clean weights with a recorded section: reuse as-is.
                (Some(cached), false) => files.push(cached.record.clone()),
                _ => {
                    let model_name = format!("step-{idx:02}-{step}.model.ckpt");
                    let model_path = self.root.join(&model_name);
                    // Weights mutate in place at a fixed size, so no
                    // length shortcut: serialize, dedupe by content hash.
                    files.push(Self::dedup_section(
                        &self.root,
                        &mut self.model,
                        model_name,
                        None,
                        || {
                            let mut buf = Vec::new();
                            save_model_bin(&mut buf, classifier).map_err(|e| {
                                CheckpointError::Corrupt {
                                    path: model_path.clone(),
                                    detail: format!("model serialization failed: {e}"),
                                }
                            })?;
                            Ok(buf)
                        },
                    )?);
                }
            }
        }

        let record = StepRecord {
            name: step.to_string(),
            core,
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

    /// Loads the most recent snapshot and, when present, the classifier
    /// persisted with it. `None` when no step has completed yet.
    #[allow(clippy::type_complexity)]
    pub fn load_latest(
        &self,
    ) -> Result<Option<(PipelineSnapshot, Option<TextClassifier>)>, CheckpointError> {
        let Some(step) = self.manifest.steps.last() else {
            return Ok(None);
        };
        let core = step.core.clone();
        let mut training: Option<Vec<(DocId, String, bool)>> = None;
        let mut scores: Option<Vec<(DocId, u32)>> = None;
        let mut classifier = None;
        for file in &step.files {
            let path = self.root.join(&file.name);
            let payload = atomic_io::read_hashed(&path)?;
            if file.name.ends_with(".ledger.ckpt") {
                training = Some(section_codec::decode_ledger(&payload).map_err(|detail| {
                    CheckpointError::Corrupt {
                        path: path.clone(),
                        detail,
                    }
                })?);
            } else if file.name.ends_with(".scores.ckpt") {
                scores = Some(section_codec::decode_scores(&payload).map_err(|detail| {
                    CheckpointError::Corrupt {
                        path: path.clone(),
                        detail,
                    }
                })?);
            } else if file.name.ends_with(".model.ckpt") {
                classifier = Some(load_model_bin(payload.as_slice()).map_err(|e| {
                    CheckpointError::Corrupt {
                        path: path.clone(),
                        detail: format!("model artifact does not load: {e}"),
                    }
                })?);
            }
        }
        Ok(Some((
            PipelineSnapshot {
                rng: core.rng,
                counts: core.counts,
                training: training.unwrap_or_default(),
                rounds: core.rounds,
                thresholds: core.thresholds,
                scores,
                eval: core.eval,
                engine: core.engine,
            },
            classifier,
        )))
    }
}

/// Length-prefixed binary frames for the bulky snapshot sections. JSON
/// serialization of a 10^5-entry score table or annotation ledger costs
/// milliseconds per step (number formatting through a `Value` tree);
/// these frames encode the same data byte-exactly with `extend_from_slice`
/// and decode with typed errors. The manifest and core snapshot stay
/// JSON — they are small and worth keeping human-inspectable. Integrity
/// is supplied by the [`atomic_io`] hash footer around the frame.
mod section_codec {
    use incite_corpus::DocId;

    /// Frame version tags, so a future layout change is a typed refusal
    /// instead of a garbled decode.
    const LEDGER_MAGIC: &[u8; 8] = b"ILEDGER1";
    const SCORES_MAGIC: &[u8; 8] = b"ISCORES1";

    pub(super) fn encode_ledger(training: &[(DocId, String, bool)]) -> Vec<u8> {
        let bytes: usize = training.iter().map(|(_, t, _)| t.len() + 13).sum();
        let mut out = Vec::with_capacity(16 + bytes);
        out.extend_from_slice(LEDGER_MAGIC);
        out.extend_from_slice(&(training.len() as u64).to_le_bytes());
        for (id, text, label) in training {
            out.extend_from_slice(&id.0.to_le_bytes());
            out.extend_from_slice(&(text.len() as u32).to_le_bytes());
            out.extend_from_slice(text.as_bytes());
            out.push(u8::from(*label));
        }
        out
    }

    pub(super) fn decode_ledger(bytes: &[u8]) -> Result<Vec<(DocId, String, bool)>, String> {
        let mut r = Reader::new(bytes, LEDGER_MAGIC, "ledger")?;
        let count = r.u64()?;
        let mut out = Vec::with_capacity(count.min(1 << 24) as usize);
        for _ in 0..count {
            let id = DocId(r.u64()?);
            let len = r.u32()? as usize;
            let text = String::from_utf8(r.take(len)?.to_vec())
                .map_err(|_| "ledger text is not UTF-8".to_string())?;
            let label = match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(format!("ledger label byte {other} is not 0/1")),
            };
            out.push((id, text, label));
        }
        r.finish()?;
        Ok(out)
    }

    pub(super) fn encode_scores(scores: &[(DocId, u32)]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + scores.len() * 12);
        out.extend_from_slice(SCORES_MAGIC);
        out.extend_from_slice(&(scores.len() as u64).to_le_bytes());
        for (id, bits) in scores {
            out.extend_from_slice(&id.0.to_le_bytes());
            out.extend_from_slice(&bits.to_le_bytes());
        }
        out
    }

    pub(super) fn decode_scores(bytes: &[u8]) -> Result<Vec<(DocId, u32)>, String> {
        let mut r = Reader::new(bytes, SCORES_MAGIC, "scores")?;
        let count = r.u64()?;
        let mut out = Vec::with_capacity(count.min(1 << 24) as usize);
        for _ in 0..count {
            out.push((DocId(r.u64()?), r.u32()?));
        }
        r.finish()?;
        Ok(out)
    }

    /// Bounds-checked little-endian cursor with section-aware errors.
    struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
        what: &'static str,
    }

    impl<'a> Reader<'a> {
        fn new(bytes: &'a [u8], magic: &[u8; 8], what: &'static str) -> Result<Self, String> {
            if bytes.len() < 8 || &bytes[..8] != magic {
                return Err(format!(
                    "{what} section has a foreign or outdated frame tag"
                ));
            }
            Ok(Reader {
                bytes,
                pos: 8,
                what,
            })
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
            let end = self
                .pos
                .checked_add(n)
                .filter(|&end| end <= self.bytes.len())
                .ok_or_else(|| format!("{} section is truncated", self.what))?;
            let slice = &self.bytes[self.pos..end];
            self.pos = end;
            Ok(slice)
        }

        fn u8(&mut self) -> Result<u8, String> {
            Ok(self.take(1)?[0])
        }

        fn u32(&mut self) -> Result<u32, String> {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(self.take(4)?);
            Ok(u32::from_le_bytes(buf))
        }

        fn u64(&mut self) -> Result<u64, String> {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(self.take(8)?);
            Ok(u64::from_le_bytes(buf))
        }

        fn finish(self) -> Result<(), String> {
            if self.pos == self.bytes.len() {
                Ok(())
            } else {
                Err(format!("{} section has trailing bytes", self.what))
            }
        }
    }
}

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
/// partially-initialized server. Unlike [`Checkpointer::open`] it does
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
    let path = root.join(&record.name);
    let payload = atomic_io::read_hashed(&path)?;
    let actual = atomic_io::fnv64_hex(&payload);
    if actual != record.hash || payload.len() as u64 != record.bytes {
        return Err(CheckpointError::HashMismatch {
            path,
            expected: record.hash.clone(),
            actual,
        });
    }
    let classifier = load_model_bin(payload.as_slice()).map_err(|e| CheckpointError::Corrupt {
        path,
        detail: format!("model artifact does not load: {e}"),
    })?;
    Ok((classifier, record.hash.clone()))
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

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("incite-ckpt-{tag}-{}", std::process::id()))
    }

    /// Successive `snapshot(n)` calls honour the section contract: the
    /// ledger grows by appending and the scores never change.
    fn snapshot(n: u64) -> PipelineSnapshot {
        let mut snap = PipelineSnapshot::empty([n, n + 1, n + 2, n + 3]);
        snap.training = (0..n)
            .map(|i| (DocId(i), format!("text {i}"), i % 2 == 0))
            .collect();
        snap.counts.raw_documents = n;
        snap.scores = Some(vec![(DocId(0), 0.75f32.to_bits())]);
        snap
    }

    #[test]
    fn fresh_open_then_record_then_resume() {
        let root = temp_root("fresh");
        clear_run_dir(&root).expect("clear");
        let (mut ck, resume) = Checkpointer::open(&root, "dox", "fp1").expect("open");
        assert_eq!(resume, Resume::Fresh);
        assert!(ck.load_latest().expect("latest").is_none());

        ck.record_step("bootstrap", &snapshot(1), None, true)
            .expect("record 1");
        ck.record_step("featurize", &snapshot(2), None, true)
            .expect("record 2");

        let (ck2, resume) = Checkpointer::open(&root, "dox", "fp1").expect("reopen");
        assert_eq!(resume, Resume::FromStep { completed: 2 });
        assert_eq!(
            ck2.step_names().collect::<Vec<_>>(),
            ["bootstrap", "featurize"]
        );
        let (snap, clf) = ck2.load_latest().expect("latest").expect("some");
        assert_eq!(snap, snapshot(2));
        assert_eq!(snap.rng_state().expect("rng"), [2, 3, 4, 5]);
        assert!(clf.is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn wrong_task_or_fingerprint_is_refused() {
        let root = temp_root("mismatch");
        clear_run_dir(&root).expect("clear");
        let (mut ck, _) = Checkpointer::open(&root, "dox", "fp1").expect("open");
        ck.record_step("bootstrap", &snapshot(1), None, true)
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
        let (mut ck, _) = Checkpointer::open(&root, "dox", "fp1").expect("open");
        ck.record_step("bootstrap", &snapshot(1), None, true)
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
        let (mut ck, _) = Checkpointer::open(&root, "dox", "fp1").expect("open");
        ck.record_step("bootstrap", &snapshot(1), None, true)
            .expect("record");
        std::fs::write(root.join("notes.txt"), "keep me").expect("note");
        clear_run_dir(&root).expect("clear");
        assert!(!root.join(MANIFEST_FILE).exists());
        assert!(!root.join("step-00-bootstrap.ledger.ckpt").exists());
        assert!(root.join("notes.txt").exists());
        let (_, resume) = Checkpointer::open(&root, "cth", "other").expect("reopen");
        assert_eq!(resume, Resume::Fresh);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Unchanged sections are recorded by reference, not rewritten: two
    /// steps with the same ledger and scores share one file of each, and
    /// appending to the ledger produces a new file.
    #[test]
    fn unchanged_sections_reuse_the_previous_file() {
        let root = temp_root("dedup");
        clear_run_dir(&root).expect("clear");
        let (mut ck, _) = Checkpointer::open(&root, "dox", "fp1").expect("open");
        let mut snap = snapshot(3);
        ck.record_step("round-0", &snap, None, true)
            .expect("record 1");
        snap.counts.raw_documents = 99;
        ck.record_step("eval", &snap, None, true).expect("record 2");

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
        let (ck2, resume) = Checkpointer::open(&root, "dox", "fp1").expect("reopen");
        assert_eq!(resume, Resume::FromStep { completed: 2 });
        let (loaded, _) = ck2.load_latest().expect("latest").expect("some");
        assert_eq!(loaded, snap);

        // Appending to the ledger forces a new section file — including
        // right after a reopen, where only the hash comparison can tell.
        let (mut ck3, _) = Checkpointer::open(&root, "dox", "fp1").expect("reopen for append");
        snap.training
            .push((DocId(77), "appended".to_string(), true));
        ck3.record_step("round-1", &snap, None, true)
            .expect("record 3");
        assert_eq!(count(".ledger.ckpt"), 2, "appended ledger rewritten");
        assert_eq!(count(".scores.ckpt"), 1, "scores still deduped");
        let (loaded, _) = ck3.load_latest().expect("latest").expect("some");
        assert_eq!(loaded, snap);
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

        let scores = vec![
            (DocId(7), 0.25f32.to_bits()),
            (DocId(8), f32::NAN.to_bits()),
        ];
        let bytes = section_codec::encode_scores(&scores);
        assert_eq!(
            section_codec::decode_scores(&bytes).expect("scores"),
            scores
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

    #[test]
    fn snapshot_roundtrips_exactly_through_json() {
        let mut snap = snapshot(7);
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
        let back: PipelineSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }
}
