//! End-to-end pipeline orchestration (Figure 1).
//!
//! The scoring hot path is *featurize-once*: every applicable document is
//! tokenized exactly one time into the [`ScoringEngine`]'s CSR arena, and
//! each of the `al_rounds + 1` full-corpus passes is a parallel spmv
//! against the current weight vector (see [`crate::engine`]). Training-set
//! features are likewise cached across every retrain.
//!
//! The pipeline is structured as a linear sequence of *steps* — bootstrap,
//! featurize, one step per active-learning round, eval, score, one step per
//! platform threshold — that mutate one run state (`RunState`: RNG,
//! counters, ledger, rounds, thresholds, scores, eval, engine counters,
//! classifier) in place. [`run_pipeline`] executes them in memory and
//! copies nothing at a step boundary; [`run_pipeline_resumable`]
//! additionally records a view of the state at every boundary into a run
//! directory, so a run killed at any boundary resumes to a
//! **byte-identical** [`PipelineOutcome`] (DESIGN.md §12). Both entry
//! points share one driver, so the checkpointed path cannot drift from the
//! plain one.

use crate::accounting::StageCounts;
use crate::active_learning::{active_learning_round, RoundStats};
use crate::bootstrap::bootstrap;
use crate::checkpoint::atomic_io::fnv64_hex;
use crate::checkpoint::{CheckpointError, Checkpointer};
use crate::engine::{EngineStats, ScoringEngine};
use crate::failpoint::{FailpointRegistry, InjectedFault};
use crate::parallel::ScoreError;
use crate::task::Task;
use crate::threshold::{select_threshold, PlatformThreshold, ThresholdConfig};
use incite_annotate::Annotator;
use incite_corpus::{Corpus, DocId, Document};
use incite_ml::model::EvalReport;
use incite_ml::{FeatureCache, FeatureMode, FeaturizerConfig, TextClassifier, TrainConfig};
use incite_taxonomy::Platform;
use incite_textkit::fnv1a;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

pub use crate::engine::score_corpus;

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Master seed.
    pub seed: u64,
    /// Active-learning rounds (the paper ran two per task).
    pub al_rounds: usize,
    /// Crowd samples per score decile per round.
    pub per_decile: usize,
    /// Expert budget for seed annotation.
    pub max_seeds: usize,
    /// Expert budget for the final per-platform annotation pass (the paper
    /// annotated up to ~3.3 K documents per platform).
    pub annotation_budget: usize,
    /// Threshold-search parameters.
    pub threshold: ThresholdConfig,
    /// Feature hashing bits.
    pub hash_bits: u32,
    /// Feature mode (subword by default).
    pub feature_mode: FeatureMode,
    /// SGD parameters.
    pub train: TrainConfig,
    /// Scoring threads.
    pub threads: usize,
    /// Fraction of labeled data held out for the Table 3 evaluation.
    pub eval_fraction: f64,
    /// Deterministic fault injection for crash-recovery testing. Empty by
    /// default; zero-sized and free unless the `failpoints` cargo feature
    /// is enabled.
    pub failpoints: FailpointRegistry,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            seed: 0xf117e5,
            al_rounds: 2,
            per_decile: 40,
            max_seeds: 1_200,
            annotation_budget: 3_300,
            threshold: ThresholdConfig::default(),
            hash_bits: 18,
            feature_mode: FeatureMode::Subword,
            train: TrainConfig::default(),
            threads: 4,
            eval_fraction: 0.2,
            failpoints: FailpointRegistry::new(),
        }
    }
}

impl PipelineConfig {
    /// A fast configuration for tests and examples.
    pub fn quick(seed: u64) -> Self {
        PipelineConfig {
            seed,
            al_rounds: 1,
            per_decile: 10,
            max_seeds: 300,
            annotation_budget: 500,
            hash_bits: 15,
            feature_mode: FeatureMode::Word,
            threads: 2,
            ..Default::default()
        }
    }

    /// Rejects configurations that would silently produce degenerate runs
    /// (empty seed sets, no-op annotation rounds, NaN precision probes).
    /// Called at the top of every pipeline entry point.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_seeds == 0 {
            return Err(ConfigError::EmptySeedQuery);
        }
        if self.al_rounds > 0 && self.per_decile == 0 {
            return Err(ConfigError::ZeroPerDecile);
        }
        if self.al_rounds > 0 && self.annotation_budget == 0 {
            return Err(ConfigError::ZeroAnnotationBudget);
        }
        if self.threshold.probe_sample == 0 {
            return Err(ConfigError::ZeroProbeSample);
        }
        if !(0.0..1.0).contains(&self.eval_fraction) {
            return Err(ConfigError::BadEvalFraction(self.eval_fraction));
        }
        Ok(())
    }

    /// Stable fingerprint of every parameter that shapes the deterministic
    /// outcome. `threads` is excluded (scoring is byte-identical across
    /// thread counts) and so is the failpoint registry (an armed run and
    /// its unarmed resume share one run directory). A resumed run whose
    /// fingerprint differs from the checkpointed one is refused as
    /// [`CheckpointError::Incompatible`].
    pub fn fingerprint(&self) -> String {
        let mut repr = String::new();
        let _ = write!(
            repr,
            "v1;seed={};al_rounds={};per_decile={};max_seeds={};annotation_budget={};",
            self.seed, self.al_rounds, self.per_decile, self.max_seeds, self.annotation_budget
        );
        let _ = write!(
            repr,
            "threshold={:?};hash_bits={};feature_mode={:?};train={:?};eval_fraction={}",
            self.threshold, self.hash_bits, self.feature_mode, self.train, self.eval_fraction
        );
        fnv64_hex(repr.as_bytes())
    }
}

/// A degenerate [`PipelineConfig`] rejected by
/// [`PipelineConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `max_seeds == 0`: the bootstrap query would label nothing and every
    /// downstream classifier would train on an empty set.
    EmptySeedQuery,
    /// `per_decile == 0` with `al_rounds > 0`: each round would sample
    /// zero documents and the decile stratification degenerates.
    ZeroPerDecile,
    /// `annotation_budget == 0` with `al_rounds > 0`: the final expert
    /// pass could annotate nothing the rounds worked to surface.
    ZeroAnnotationBudget,
    /// `threshold.probe_sample == 0`: every precision probe would divide
    /// zero positives by an empty pool.
    ZeroProbeSample,
    /// `eval_fraction` outside `[0, 1)`: the held-out split would swallow
    /// the whole training set (or a negative share of it).
    BadEvalFraction(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptySeedQuery => {
                write!(f, "invalid config: max_seeds is 0 (empty seed query)")
            }
            ConfigError::ZeroPerDecile => write!(
                f,
                "invalid config: per_decile is 0 with al_rounds > 0 (rounds would sample nothing)"
            ),
            ConfigError::ZeroAnnotationBudget => write!(
                f,
                "invalid config: annotation_budget is 0 with al_rounds > 0"
            ),
            ConfigError::ZeroProbeSample => {
                write!(f, "invalid config: threshold.probe_sample is 0")
            }
            ConfigError::BadEvalFraction(x) => {
                write!(f, "invalid config: eval_fraction {x} outside [0, 1)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Any failure of a pipeline run.
#[derive(Debug)]
pub enum PipelineError {
    /// The configuration is degenerate (see [`ConfigError`]).
    Config(ConfigError),
    /// A scoring worker panicked.
    Score(ScoreError),
    /// The checkpoint subsystem refused a read or write.
    Checkpoint(CheckpointError),
    /// A deterministic failpoint fired (test builds only).
    Fault(InjectedFault),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Config(e) => e.fmt(f),
            PipelineError::Score(e) => e.fmt(f),
            PipelineError::Checkpoint(e) => e.fmt(f),
            PipelineError::Fault(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Config(e) => Some(e),
            PipelineError::Score(e) => Some(e),
            PipelineError::Checkpoint(e) => Some(e),
            PipelineError::Fault(e) => Some(e),
        }
    }
}

impl From<ConfigError> for PipelineError {
    fn from(e: ConfigError) -> Self {
        PipelineError::Config(e)
    }
}

impl From<ScoreError> for PipelineError {
    fn from(e: ScoreError) -> Self {
        PipelineError::Score(e)
    }
}

impl From<CheckpointError> for PipelineError {
    fn from(e: CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

impl From<InjectedFault> for PipelineError {
    fn from(e: InjectedFault) -> Self {
        PipelineError::Fault(e)
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    pub task: Task,
    /// Figure 1 stage counts.
    pub counts: StageCounts,
    /// Per-round active-learning statistics (§5.3 diagnostics).
    pub rounds: Vec<RoundStats>,
    /// Per-platform Table 4 rows.
    pub thresholds: Vec<PlatformThreshold>,
    /// Held-out evaluation (Table 3 metric block).
    pub eval: EvalReport,
    /// Final training-set composition per platform: (positives, negatives)
    /// — the Table 2 reproduction.
    pub training_by_platform: BTreeMap<Platform, (usize, usize)>,
    /// Full classifier scores for every applicable document (consumed by
    /// the thread-overlap analysis, §6.3).
    pub scores: Vec<(DocId, f32)>,
    /// Scoring-engine instrumentation: the featurize-once invariant
    /// (`engine.featurize_passes == 1`) and the number of spmv passes
    /// served from the arena (`al_rounds + 1`).
    pub engine: EngineStats,
}

impl PipelineOutcome {
    /// All above-threshold document ids.
    pub fn above_threshold_ids(&self) -> Vec<DocId> {
        let mut ids: Vec<DocId> = self
            .thresholds
            .iter()
            .flat_map(|t| t.above_ids.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// All expert-confirmed true-positive ids (the "annotated" data set).
    pub fn annotated_positive_ids(&self) -> Vec<DocId> {
        let mut ids: Vec<DocId> = self
            .thresholds
            .iter()
            .flat_map(|t| t.positive_ids.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Canonical FNV-1a digest of the full outcome, including every score's
    /// raw `f32` bits. Two outcomes compare equal iff their digests match;
    /// the checkpoint tests and the `outcome digest` line `incite run`
    /// prints use this as the byte-identity witness.
    pub fn digest(&self) -> u64 {
        let mut repr = String::new();
        let _ = write!(repr, "task={};counts={:?};", self.task.slug(), self.counts);
        for r in &self.rounds {
            let _ = write!(repr, "round={:?};", r);
        }
        for t in &self.thresholds {
            let _ = write!(
                repr,
                "thr={} {} {} {} {} {} {:?} {:?};",
                t.platform.slug(),
                t.threshold,
                t.above_threshold,
                t.annotated,
                t.true_positives,
                t.exhaustive,
                t.above_ids,
                t.positive_ids
            );
        }
        let _ = write!(repr, "eval={:?};", self.eval);
        let mut by_platform: Vec<_> = self.training_by_platform.iter().collect();
        by_platform.sort_by_key(|(p, _)| **p);
        for (p, (pos, neg)) in by_platform {
            let _ = write!(repr, "train={} {pos} {neg};", p.slug());
        }
        for (id, score) in &self.scores {
            let _ = write!(repr, "s{}={:08x};", id.0, score.to_bits());
        }
        let _ = write!(repr, "engine={:?}", self.engine);
        fnv1a(repr.as_bytes(), 0)
    }
}

/// Runs one task's full pipeline over a corpus, in memory.
pub fn run_pipeline(
    corpus: &Corpus,
    task: Task,
    config: &PipelineConfig,
) -> Result<PipelineOutcome, PipelineError> {
    config.validate()?;
    drive(corpus, task, config, None, None)
}

/// Runs the pipeline with a checkpoint written at every step boundary into
/// `run_dir`, resuming from the last completed step when the directory
/// already holds a verified run.
///
/// The contract: kill the process at any boundary, call this again with
/// the same corpus, task, config, and directory, and the returned
/// [`PipelineOutcome`] is byte-identical to an uninterrupted run
/// (`PartialEq`-equal, equal [`PipelineOutcome::digest`]). A directory
/// checkpointed by a different task or config is refused with
/// [`CheckpointError::Incompatible`]; any corrupted checkpoint file is
/// refused with [`CheckpointError::HashMismatch`]. Use
/// [`crate::checkpoint::clear_run_dir`] to discard an old run first.
pub fn run_pipeline_resumable(
    corpus: &Corpus,
    task: Task,
    config: &PipelineConfig,
    run_dir: &Path,
) -> Result<PipelineOutcome, PipelineError> {
    config.validate()?;
    let mut ckpt = Checkpointer::open(run_dir, task.slug(), &config.fingerprint())?;
    let restored = ckpt.load_latest()?;
    drive(corpus, task, config, Some(&mut ckpt), restored)
}

/// The state of one pipeline run, which `drive` mutates in place from
/// step to step. A checkpointed run records a view of it at every step
/// boundary and resumes from the last one (see [`crate::checkpoint`]).
/// The CSR arena and the training-feature cache are derivable from the
/// corpus and the featurizer, so they are not part of it.
///
/// Section contract, relied on for checkpoint deduplication: from one
/// boundary to the next, `ledger` is **append-only** (seed set, then each
/// round's crowd labels) and `scores` is **write-once** (set at the score
/// step, never modified after). An unchanged length therefore means
/// unchanged content, and `Checkpointer::record_step` reuses the previous
/// step's section file instead of rewriting it.
#[derive(Debug)]
pub(crate) struct RunState {
    /// The run's random stream, at its exact position.
    pub rng: StdRng,
    /// Figure 1 stage counters accumulated so far.
    pub counts: StageCounts,
    /// The annotation ledger: every labeled `(id, text, label)` so far.
    pub ledger: Vec<(DocId, String, bool)>,
    /// Completed active-learning rounds.
    pub rounds: Vec<RoundStats>,
    /// Completed per-platform threshold rows.
    pub thresholds: Vec<PlatformThreshold>,
    /// Every applicable document's score, once the score step ran.
    pub scores: Option<Vec<(DocId, f32)>>,
    /// Held-out evaluation, once computed.
    pub eval: Option<EvalReport>,
    /// Scoring-engine pass counters as of the last engine pass. The
    /// outcome and the checkpoint read them here, and an engine rebuilt
    /// on resume restores them from here.
    pub engine: Option<EngineStats>,
    /// The classifier, once trained.
    pub classifier: Option<TextClassifier>,
}

impl RunState {
    /// A run that has done nothing yet, its stream at `rng`.
    pub fn new(rng: StdRng) -> Self {
        RunState {
            rng,
            counts: StageCounts::default(),
            ledger: Vec::new(),
            rounds: Vec::new(),
            thresholds: Vec::new(),
            scores: None,
            eval: None,
            engine: None,
            classifier: None,
        }
    }
}

fn missing_state(what: &str) -> PipelineError {
    PipelineError::Checkpoint(CheckpointError::Incompatible {
        detail: format!("checkpoint resume reached a step requiring {what}, but none was restored"),
    })
}

/// Rebuilds the featurize-once arena on demand. The CSR buffers are
/// derivable state and are never persisted; on resume the arena is rebuilt
/// (an rng-free pure function of corpus + featurizer) and the run state's
/// pass counters `saved` are restored — a `documents`/`nnz` mismatch means
/// the corpus or featurizer differs from the checkpointed run and is
/// refused.
fn ensure_engine<'a>(
    engine: &'a mut Option<ScoringEngine>,
    classifier: &TextClassifier,
    docs: &[&Document],
    threads: usize,
    saved: Option<EngineStats>,
) -> Result<&'a mut ScoringEngine, PipelineError> {
    if engine.is_none() {
        let mut built = ScoringEngine::build(classifier.featurizer(), docs, threads)?;
        if let Some(saved) = saved {
            built.restore_stats(saved).map_err(|actual| {
                PipelineError::Checkpoint(CheckpointError::Incompatible {
                    detail: format!(
                        "checkpointed arena shape (documents={}, nnz={}) does not match the \
                         rebuilt arena (documents={}, nnz={}): corpus or featurizer drifted \
                         since the checkpoint was written",
                        saved.documents, saved.nnz, actual.documents, actual.nnz
                    ),
                })
            })?;
        }
        *engine = Some(built);
    }
    engine
        .as_mut()
        .ok_or_else(|| missing_state("a scoring engine"))
}

/// The single pipeline driver behind both entry points. Steps already
/// recorded in `ckpt` are skipped; the run state starts from `restored`
/// (the last recorded boundary) and continues at the identical RNG stream
/// position, so resumed and uninterrupted runs are byte-identical.
fn drive(
    corpus: &Corpus,
    task: Task,
    config: &PipelineConfig,
    mut ckpt: Option<&mut Checkpointer>,
    restored: Option<RunState>,
) -> Result<PipelineOutcome, PipelineError> {
    let fp = &config.failpoints;
    let completed = ckpt.as_deref().map_or(0, Checkpointer::completed_steps);
    // Ends a step: records the state when the run is checkpointed, then
    // consults the step's `after-` failpoint. In memory it copies nothing.
    let mut commit =
        |step: &str, state: &RunState, model_dirty: bool| -> Result<(), PipelineError> {
            if let Some(ck) = ckpt.as_deref_mut() {
                ck.record_step(step, state, model_dirty)?;
            }
            fp.check(&format!("after-{step}"))?;
            Ok(())
        };

    let expert = Annotator::expert("expert");
    let crowd_a = match task {
        Task::Cth => Annotator::crowd_cth("crowd-a"),
        Task::Dox => Annotator::crowd_dox("crowd-a"),
    };
    let crowd_b = match task {
        Task::Cth => Annotator::crowd_cth("crowd-b"),
        Task::Dox => Annotator::crowd_dox("crowd-b"),
    };
    let crowd_c = crowd_a.clone();

    // Applicable documents (recomputed every run: derivable, rng-free).
    let applicable: Vec<&Document> = corpus
        .documents
        .iter()
        .filter(|d| task.applies_to(d.platform))
        .collect();

    let mut state = restored.unwrap_or_else(|| {
        RunState::new(StdRng::seed_from_u64(
            config.seed ^ task.slug().len() as u64,
        ))
    });
    let featurizer_config = FeaturizerConfig {
        max_len: task.text_length(),
        mode: config.feature_mode,
        hash_bits: config.hash_bits,
        seed: config.seed,
        ..Default::default()
    };
    // The training-feature cache is a pure memo: rebuilt empty on resume,
    // repopulated deterministically by the dataset calls below.
    let mut cache = FeatureCache::new();
    let mut engine: Option<ScoringEngine> = None;
    let mut step_idx = 0usize;

    // Step: bootstrap seeds.
    if step_idx >= completed {
        state.counts.raw_documents = applicable.len() as u64;
        let boot = bootstrap(corpus, task, config.max_seeds, &expert, &mut state.rng);
        state.counts.bootstrap_candidates = boot.candidates as u64;
        state.counts.seed_annotations = boot.seeds.len() as u64;
        state.ledger = boot
            .seeds
            .into_iter()
            .map(|s| (s.id, s.text, s.label))
            .collect();
        commit("bootstrap", &state, false)?;
    }
    step_idx += 1;

    // Step: initial classifier + the featurize-once arena. Training is
    // rng-free; on resume the classifier comes back from the model file
    // instead and the arena is rebuilt lazily when a scoring step needs it.
    if step_idx >= completed {
        let clf = TextClassifier::train_with_cache(
            state.ledger.iter().map(|(id, t, l)| (id.0, t.as_str(), *l)),
            featurizer_config,
            config.train,
            &mut cache,
        );
        let e = ensure_engine(&mut engine, &clf, &applicable, config.threads, state.engine)?;
        state.engine = Some(e.stats());
        state.classifier = Some(clf);
        // Freshly trained weights — the model section must be rewritten.
        commit("featurize", &state, true)?;
    }
    step_idx += 1;

    // Steps: active-learning rounds.
    for round in 0..config.al_rounds {
        if step_idx >= completed {
            let clf = state
                .classifier
                .as_mut()
                .ok_or_else(|| missing_state("a classifier"))?;
            let e = ensure_engine(&mut engine, clf, &applicable, config.threads, state.engine)?;
            let round_scores = e.score_all(clf.model(), config.threads)?;
            state.engine = Some(e.stats());
            let stats = active_learning_round(
                &applicable,
                task,
                clf,
                &mut cache,
                &mut state.ledger,
                &round_scores,
                config.per_decile,
                (&crowd_a, &crowd_b, &crowd_c),
                config.train,
                fp,
                &mut state.rng,
            )?;
            state.counts.crowd_annotations += stats.sampled as u64;
            state.rounds.push(stats);
            // Each round retrains on the grown ledger — weights changed.
            commit(&format!("round-{round}"), &state, true)?;
        }
        step_idx += 1;
    }
    state.counts.training_annotations = state.ledger.len() as u64;

    // Step: held-out evaluation (Table 3), its features all from the
    // cache. The weights the run keeps are the last training step's: that
    // step (the final round, or featurize when there are none) trained on
    // the whole ledger with these features and `config.train`, and
    // training draws only from `config.train.seed`, so retraining here
    // would reproduce them bit for bit.
    if step_idx >= completed {
        let clf = state
            .classifier
            .as_ref()
            .ok_or_else(|| missing_state("a classifier"))?;
        // Shuffling references draws the same rng stream as shuffling the
        // ledger itself: the permutation depends on the length alone.
        let mut shuffled: Vec<&(DocId, String, bool)> = state.ledger.iter().collect();
        shuffled.shuffle(&mut state.rng);
        let eval_n = ((shuffled.len() as f64) * config.eval_fraction).round() as usize;
        let (eval_split, train_split) = shuffled.split_at(eval_n.min(shuffled.len()));
        let eval_train_data = cache.dataset(
            clf.featurizer(),
            train_split.iter().map(|(id, t, l)| (id.0, t.as_str(), *l)),
        );
        let eval_data = cache.dataset(
            clf.featurizer(),
            eval_split.iter().map(|(id, t, l)| (id.0, t.as_str(), *l)),
        );
        let mut eval_model = clf.clone();
        eval_model.retrain_features(&eval_train_data, config.train);
        state.eval = Some(eval_model.evaluate_features(&eval_data, 0.5));
        commit("eval", &state, false)?;
    }
    step_idx += 1;

    // Step: full prediction — one more spmv pass over the arena.
    if step_idx >= completed {
        let clf = state
            .classifier
            .as_ref()
            .ok_or_else(|| missing_state("a classifier"))?;
        let e = ensure_engine(&mut engine, clf, &applicable, config.threads, state.engine)?;
        let scores = e.score_all(clf.model(), config.threads)?;
        state.engine = Some(e.stats());
        state.counts.predicted_documents = scores.len() as u64;
        state.scores = Some(scores);
        // Scoring only reads the weights — reuse the recorded model file.
        commit("score", &state, false)?;
    }
    step_idx += 1;

    // Steps: per-platform thresholds + final expert pass.
    let platforms: Vec<Platform> = Platform::ALL
        .into_iter()
        .filter(|p| task.applies_to(*p))
        .collect();
    for (i, platform) in platforms.iter().copied().enumerate() {
        if step_idx >= completed {
            if i == 1 {
                fp.check("mid-threshold-sweep")?;
            }
            let scores = state
                .scores
                .as_ref()
                .ok_or_else(|| missing_state("corpus scores"))?;
            let row = select_threshold(
                corpus,
                task,
                platform,
                scores,
                &expert,
                config.threshold,
                config.annotation_budget,
                &mut state.rng,
            );
            state.counts.above_threshold += row.above_threshold as u64;
            state.counts.final_annotated += row.annotated as u64;
            state.counts.true_positives += row.true_positives as u64;
            state.thresholds.push(row);
            commit(&format!("threshold-{}", platform.slug()), &state, false)?;
        }
        step_idx += 1;
    }

    // Table 2 accounting: training labels per platform. One corpus pass
    // finds the platform of each ledger id; a later document with the same
    // id wins, as in a map of the whole corpus.
    let mut platform_of: BTreeMap<DocId, Option<Platform>> =
        state.ledger.iter().map(|(id, _, _)| (*id, None)).collect();
    for d in &corpus.documents {
        if let Some(slot) = platform_of.get_mut(&d.id) {
            *slot = Some(d.platform);
        }
    }
    let mut training_by_platform: BTreeMap<Platform, (usize, usize)> = BTreeMap::new();
    for (id, _, label) in &state.ledger {
        if let Some(Some(p)) = platform_of.get(id) {
            let entry = training_by_platform.entry(*p).or_default();
            if *label {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
        }
    }

    let engine_stats = state
        .engine
        .ok_or_else(|| missing_state("engine statistics"))?;
    Ok(PipelineOutcome {
        task,
        counts: state.counts,
        rounds: state.rounds,
        thresholds: state.thresholds,
        eval: state
            .eval
            .ok_or_else(|| missing_state("an evaluation report"))?,
        training_by_platform,
        scores: state.scores.ok_or_else(|| missing_state("corpus scores"))?,
        engine: engine_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use incite_corpus::{generate, CorpusConfig};

    fn corpus() -> Corpus {
        generate(&CorpusConfig::tiny(404))
    }

    fn run(corpus: &Corpus, task: Task, config: &PipelineConfig) -> PipelineOutcome {
        run_pipeline(corpus, task, config).expect("pipeline scoring")
    }

    #[test]
    fn dox_pipeline_end_to_end() {
        let corpus = corpus();
        let out = run(&corpus, Task::Dox, &PipelineConfig::quick(1));
        assert!(out.counts.raw_documents > 0);
        assert!(out.counts.seed_annotations > 0);
        assert!(out.counts.true_positives > 0, "pipeline found no doxes");
        // Pipeline precision at the final stage should be usable.
        assert!(
            out.counts.final_precision() > 0.3,
            "precision {}",
            out.counts.final_precision()
        );
        // Funnel must reduce the corpus substantially.
        assert!(out.counts.reduction_factor() > 2.0);
    }

    #[test]
    fn cth_pipeline_end_to_end() {
        let corpus = corpus();
        let out = run(&corpus, Task::Cth, &PipelineConfig::quick(2));
        assert!(out.counts.true_positives > 0, "pipeline found no CTH");
        // Pastes/blogs excluded.
        assert!(out
            .thresholds
            .iter()
            .all(|t| t.platform != Platform::Pastes));
        assert!(out.thresholds.iter().all(|t| t.platform != Platform::Blogs));
        // CTH is the harder task: held-out AUC still informative.
        if let Some(auc) = out.eval.auc {
            assert!(auc > 0.6, "auc {auc}");
        }
    }

    #[test]
    fn pipeline_recovers_most_planted_positives() {
        let corpus = corpus();
        let out = run(&corpus, Task::Dox, &PipelineConfig::quick(3));
        let positive_ids = out.annotated_positive_ids();
        let truth_ids: std::collections::HashSet<DocId> = corpus
            .documents
            .iter()
            .filter(|d| d.truth.is_dox && d.platform != Platform::Blogs)
            .map(|d| d.id)
            .collect();
        let recovered = positive_ids
            .iter()
            .filter(|id| truth_ids.contains(id))
            .count();
        let recall = recovered as f64 / truth_ids.len().max(1) as f64;
        assert!(recall > 0.4, "end-to-end recall {recall}");
    }

    #[test]
    fn outcome_id_sets_are_consistent() {
        let corpus = corpus();
        let out = run(&corpus, Task::Dox, &PipelineConfig::quick(4));
        let above: std::collections::HashSet<DocId> =
            out.above_threshold_ids().into_iter().collect();
        for id in out.annotated_positive_ids() {
            assert!(above.contains(&id), "positive not above threshold");
        }
    }

    #[test]
    fn corpus_is_featurized_exactly_once() {
        let corpus = corpus();
        let config = PipelineConfig::quick(6);
        let out = run(&corpus, Task::Dox, &config);
        assert_eq!(out.engine.featurize_passes, 1);
        assert_eq!(out.engine.score_passes, config.al_rounds + 1);
        assert_eq!(out.engine.documents as u64, out.counts.raw_documents);
    }

    #[test]
    fn scoring_is_parallel_consistent() {
        let corpus = corpus();
        let docs: Vec<&Document> = corpus.documents.iter().take(600).collect();
        let labeled: Vec<(&str, bool)> = docs
            .iter()
            .map(|d| (d.text.as_str(), d.truth.is_dox))
            .collect();
        let clf = TextClassifier::train(
            labeled,
            FeaturizerConfig {
                mode: FeatureMode::Word,
                hash_bits: 14,
                ..Default::default()
            },
            TrainConfig::default(),
        );
        let serial = score_corpus(&clf, &docs, 1).expect("serial");
        let parallel = score_corpus(&clf, &docs, 4).expect("parallel");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let ok = PipelineConfig::quick(1);
        assert_eq!(ok.validate(), Ok(()));

        let mut bad = PipelineConfig::quick(1);
        bad.max_seeds = 0;
        assert_eq!(bad.validate(), Err(ConfigError::EmptySeedQuery));

        let mut bad = PipelineConfig::quick(1);
        bad.per_decile = 0;
        assert_eq!(bad.validate(), Err(ConfigError::ZeroPerDecile));
        // ... unless no rounds run at all.
        bad.al_rounds = 0;
        assert_eq!(bad.validate(), Ok(()));

        let mut bad = PipelineConfig::quick(1);
        bad.annotation_budget = 0;
        assert_eq!(bad.validate(), Err(ConfigError::ZeroAnnotationBudget));

        let mut bad = PipelineConfig::quick(1);
        bad.threshold.probe_sample = 0;
        assert_eq!(bad.validate(), Err(ConfigError::ZeroProbeSample));

        let mut bad = PipelineConfig::quick(1);
        bad.eval_fraction = 1.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::BadEvalFraction(_))
        ));
    }

    #[test]
    fn run_pipeline_refuses_degenerate_config() {
        let corpus = corpus();
        let mut config = PipelineConfig::quick(1);
        config.per_decile = 0;
        match run_pipeline(&corpus, Task::Dox, &config) {
            Err(PipelineError::Config(ConfigError::ZeroPerDecile)) => {}
            other => panic!("expected config rejection, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_tracks_outcome_shaping_fields_only() {
        let a = PipelineConfig::quick(1);
        let mut b = PipelineConfig::quick(1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Threads never change the outcome; the fingerprint ignores them.
        b.threads = 16;
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.seed = 2;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = PipelineConfig::quick(1);
        c.hash_bits = 16;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn identical_seeds_give_identical_outcomes_and_digests() {
        let corpus = corpus();
        let a = run(&corpus, Task::Dox, &PipelineConfig::quick(5));
        let b = run(&corpus, Task::Dox, &PipelineConfig::quick(5));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = run(&corpus, Task::Dox, &PipelineConfig::quick(7));
        assert_ne!(a.digest(), c.digest());
    }

    /// With no active-learning round, the weights the eval step keeps are
    /// the featurize step's. The digests were taken while the eval step
    /// still retrained them on the same ledger.
    #[test]
    fn eval_keeps_the_weights_of_the_last_training_step() {
        let corpus = corpus();
        let config = PipelineConfig {
            al_rounds: 0,
            ..PipelineConfig::quick(9)
        };
        for (task, pinned) in [
            (Task::Dox, 0x102d_4a6c_98da_41ec),
            (Task::Cth, 0x30e9_f4e7_09aa_c792),
        ] {
            let digest = run(&corpus, task, &config).digest();
            assert_eq!(digest, pinned, "{} digest {digest:#018x}", task.slug());
        }
    }

    #[test]
    fn resumable_run_in_fresh_dir_matches_plain_run() {
        let corpus = corpus();
        let config = PipelineConfig::quick(8);
        let plain = run(&corpus, Task::Dox, &config);
        let dir =
            std::env::temp_dir().join(format!("incite-pipeline-resumable-{}", std::process::id()));
        crate::checkpoint::clear_run_dir(&dir).expect("clear");
        let resumable =
            run_pipeline_resumable(&corpus, Task::Dox, &config, &dir).expect("resumable");
        assert_eq!(plain, resumable);
        assert_eq!(plain.digest(), resumable.digest());
        // A second invocation resumes from the final checkpoint and must
        // reproduce the outcome without recomputing the run.
        let replayed = run_pipeline_resumable(&corpus, Task::Dox, &config, &dir).expect("replayed");
        assert_eq!(plain, replayed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
