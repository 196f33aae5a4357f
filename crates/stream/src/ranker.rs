//! The streaming threat ranker: two-axis scoring on the toxicity ×
//! topic-overlap plane.
//!
//! Events are consumed in fixed-size epochs. Each epoch:
//!
//! 1. featurizes every newly-posted document once and scores its
//!    toxicity with the kernels `ScoringEngine::score_texts` (serve's
//!    micro-batch path) is built from;
//! 2. folds each document's row of that matrix into a
//!    [`TopicFingerprint`] (parallel, slot-indexed, deterministic);
//! 3. applies events **sequentially in stream order** — follower graph
//!    updates, per-actor history profiles, and audience-exposure
//!    snapshots for amplifications of targeted documents;
//! 4. computes exposure overlaps in parallel (`map_indexed`, one slot
//!    per exposure);
//! 5. folds admissions into per-target ranked lists under a per-target
//!    adaptive threshold ladder built on [`ThresholdConfig`]'s candidate
//!    grid.
//!
//! Every parallel step writes slot `i` from input `i` alone; every
//! cross-event fold is sequential; all maps are `BTreeMap`/`BTreeSet`.
//! Rankings are therefore byte-identical at any thread count.
//!
//! The ranker never reads ground truth: targets come from the post
//! events' platform metadata (the @-mention), toxicity from the
//! checkpointed classifier, overlap from observed posting history.

use crate::event::{EventKind, EventStream};
use crate::StreamError;
use incite_core::engine::{featurize_texts, score_matrix};
use incite_core::parallel::map_indexed;
use incite_core::threshold::ThresholdConfig;
use incite_ml::{TextClassifier, TopicFingerprint};
use incite_textkit::fnv1a;
use std::collections::{BTreeMap, BTreeSet};

/// Ranker knobs. The defaults are what `incite watch` ships.
#[derive(Debug, Clone)]
pub struct RankerConfig {
    /// Events consumed per epoch (also the checkpoint cadence).
    pub epoch_len: usize,
    /// Ranked entries kept per target.
    pub top_k: usize,
    /// Recent documents remembered per actor as overlap evidence.
    pub history_cap: usize,
    /// Exposures per target between threshold-ladder adjustments.
    pub adaptive_window: u32,
    /// The candidate grid and precision targets for the adaptive ladder
    /// (reuses the §5.5 threshold-selection parameters).
    pub thresholds: ThresholdConfig,
    /// Worker threads for the parallel steps (1 = serial).
    pub threads: usize,
}

impl Default for RankerConfig {
    fn default() -> Self {
        RankerConfig {
            epoch_len: 256,
            top_k: 10,
            history_cap: 8,
            adaptive_window: 32,
            thresholds: ThresholdConfig::default(),
            threads: 1,
        }
    }
}

impl RankerConfig {
    /// Fingerprint binding checkpointed state to the exact ranking
    /// semantics (thread count excluded: it must not change results).
    pub fn fingerprint(&self) -> String {
        let t = &self.thresholds;
        let text = format!(
            "epoch={};top_k={};history={};window={};target={};slack={};cands={:?}",
            self.epoch_len,
            self.top_k,
            self.history_cap,
            self.adaptive_window,
            t.target_precision,
            t.precision_slack,
            t.candidates
        );
        format!("{:016x}", fnv1a(text.as_bytes(), 0x7a11_5eed))
    }
}

/// One ranked piece of evidence: an audience member newly exposed to a
/// targeted document, with both axis scores. Scores are stored as raw
/// f32 bits so serialized state is byte-exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreatEntry {
    /// The amplify event that caused the exposure.
    pub event: u64,
    /// The amplified document.
    pub doc: u64,
    /// The newly-exposed audience member.
    pub audience: u32,
    /// Classifier toxicity of the document (f32 bits).
    pub toxicity_bits: u32,
    /// Topic overlap between the document and the member's history (f32 bits).
    pub overlap_bits: u32,
    /// toxicity × overlap (f32 bits) — the ranking key.
    pub threat_bits: u32,
    /// The member's recent documents contributing to the overlap.
    pub contributors: Vec<u64>,
}

impl ThreatEntry {
    pub fn toxicity(&self) -> f32 {
        f32::from_bits(self.toxicity_bits)
    }
    pub fn overlap(&self) -> f32 {
        f32::from_bits(self.overlap_bits)
    }
    pub fn threat(&self) -> f32 {
        f32::from_bits(self.threat_bits)
    }
}

/// Per-actor streaming state.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActorState {
    /// Cumulative topic profile of everything the actor posted.
    pub(crate) fingerprint: TopicFingerprint,
    /// Most recent posted doc ids (bounded by `history_cap`).
    pub(crate) history: Vec<u64>,
    /// Total posts observed.
    pub(crate) posts: u64,
}

/// Per-document streaming state.
#[derive(Debug, Clone)]
pub(crate) struct DocState {
    pub(crate) author: u32,
    pub(crate) target: Option<u32>,
    pub(crate) toxicity_bits: u32,
    pub(crate) fingerprint: TopicFingerprint,
    /// Actors already exposed (the author, plus every amplified audience).
    pub(crate) exposed: BTreeSet<u32>,
}

/// Per-target ranking state with its adaptive threshold ladder.
#[derive(Debug, Clone, Default)]
pub(crate) struct TargetState {
    /// Index into `ThresholdConfig::candidates`.
    pub(crate) ladder_idx: usize,
    /// Exposures observed in the current adaptive window.
    pub(crate) seen: u32,
    /// Exposures admitted in the current adaptive window.
    pub(crate) admitted: u32,
    /// Ranked evidence, best first, at most `top_k`.
    pub(crate) entries: Vec<ThreatEntry>,
}

/// An exposure snapshot taken during sequential event application; the
/// overlap is computed afterwards in parallel.
struct Exposure {
    event: u64,
    doc: u64,
    target: u32,
    audience: u32,
    toxicity_bits: u32,
    doc_fingerprint: TopicFingerprint,
    member_fingerprint: TopicFingerprint,
    contributors: Vec<u64>,
}

/// The streaming ranker. See the module docs for the epoch pipeline.
#[derive(Debug, Clone)]
pub struct ThreatRanker {
    pub(crate) config: RankerConfig,
    pub(crate) actors: Vec<ActorState>,
    /// followee → followers.
    pub(crate) follows: BTreeMap<u32, BTreeSet<u32>>,
    pub(crate) docs: BTreeMap<u64, DocState>,
    pub(crate) targets: BTreeMap<u32, TargetState>,
    /// Next unprocessed stream position.
    pub(crate) next_event: usize,
    pub(crate) epochs_done: u64,
}

impl ThreatRanker {
    /// A fresh ranker for a stream with `n_actors` actors.
    pub fn new(config: RankerConfig, n_actors: usize) -> Self {
        ThreatRanker {
            config,
            actors: vec![ActorState::default(); n_actors],
            follows: BTreeMap::new(),
            docs: BTreeMap::new(),
            targets: BTreeMap::new(),
            next_event: 0,
            epochs_done: 0,
        }
    }

    pub fn config(&self) -> &RankerConfig {
        &self.config
    }

    /// Stream position of the next unprocessed event.
    pub fn next_event(&self) -> usize {
        self.next_event
    }

    pub fn epochs_done(&self) -> u64 {
        self.epochs_done
    }

    /// Consumes the next epoch of events. Returns the number of events
    /// processed; zero means the stream is exhausted.
    pub fn process_epoch(
        &mut self,
        stream: &EventStream,
        doc_texts: &BTreeMap<u64, &str>,
        classifier: &TextClassifier,
    ) -> Result<usize, StreamError> {
        let start = self.next_event;
        let end = (start + self.config.epoch_len).min(stream.events.len());
        if start >= end {
            return Ok(0);
        }
        let epoch = &stream.events[start..end];
        let threads = self.config.threads;

        // 1+2. Score and fingerprint every document first posted in this
        // epoch, in first-appearance order.
        let mut fresh: Vec<u64> = Vec::new();
        let mut fresh_set: BTreeSet<u64> = BTreeSet::new();
        for event in epoch {
            if let EventKind::Post { doc, .. } = event.kind {
                if !self.docs.contains_key(&doc.0) && fresh_set.insert(doc.0) {
                    fresh.push(doc.0);
                }
            }
        }
        let mut texts: Vec<&str> = Vec::with_capacity(fresh.len());
        for doc in &fresh {
            let text = doc_texts
                .get(doc)
                .ok_or(StreamError::UnknownDoc { doc: *doc })?;
            texts.push(text);
        }
        // Featurize once; score and fingerprint the same rows.
        let matrix = featurize_texts(classifier.featurizer(), &texts, threads)?;
        let toxicity = score_matrix(&matrix, classifier.model(), threads)?;
        let fingerprints = map_indexed(matrix.len(), threads, |i| {
            let (indices, values) = matrix.row(i);
            TopicFingerprint::from_row(indices, values)
        })?;
        let mut scored: BTreeMap<u64, (u32, TopicFingerprint)> = BTreeMap::new();
        for (i, doc) in fresh.iter().enumerate() {
            scored.insert(*doc, (toxicity[i].to_bits(), fingerprints[i].clone()));
        }

        // 3. Apply events sequentially, snapshotting exposures.
        let mut exposures: Vec<Exposure> = Vec::new();
        for event in epoch {
            match event.kind {
                EventKind::Follow { follower, followee } => {
                    self.follows
                        .entry(followee.0)
                        .or_default()
                        .insert(follower.0);
                }
                EventKind::Post {
                    doc,
                    author,
                    target,
                } => {
                    if self.docs.contains_key(&doc.0) {
                        continue; // replayed post: idempotent
                    }
                    let (toxicity_bits, fingerprint) = scored
                        .get(&doc.0)
                        .cloned()
                        .ok_or(StreamError::UnknownDoc { doc: doc.0 })?;
                    let actor = self
                        .actors
                        .get_mut(author.0 as usize)
                        .ok_or(StreamError::UnknownActor { actor: author.0 })?;
                    actor.fingerprint.merge(&fingerprint);
                    if actor.history.len() >= self.config.history_cap {
                        actor.history.remove(0);
                    }
                    actor.history.push(doc.0);
                    actor.posts += 1;
                    let mut exposed = BTreeSet::new();
                    exposed.insert(author.0);
                    self.docs.insert(
                        doc.0,
                        DocState {
                            author: author.0,
                            target: target.map(|t| t.0),
                            toxicity_bits,
                            fingerprint,
                            exposed,
                        },
                    );
                }
                EventKind::Amplify { doc, amplifier } => {
                    let state =
                        self.docs
                            .get_mut(&doc.0)
                            .ok_or(StreamError::AmplifyBeforePost {
                                event: event.id.0,
                                doc: doc.0,
                            })?;
                    state.exposed.insert(amplifier.0);
                    let audience: Vec<u32> = self
                        .follows
                        .get(&amplifier.0)
                        .map(|followers| {
                            followers
                                .iter()
                                .copied()
                                .filter(|f| !state.exposed.contains(f))
                                .collect()
                        })
                        .unwrap_or_default();
                    for member in audience {
                        state.exposed.insert(member);
                        let Some(target) = state.target else { continue };
                        if member == target {
                            continue; // the target seeing it is not audience risk
                        }
                        let actor = self
                            .actors
                            .get(member as usize)
                            .ok_or(StreamError::UnknownActor { actor: member })?;
                        if actor.fingerprint.is_empty() {
                            continue; // no history: overlap is zero by definition
                        }
                        exposures.push(Exposure {
                            event: event.id.0,
                            doc: doc.0,
                            target,
                            audience: member,
                            toxicity_bits: state.toxicity_bits,
                            doc_fingerprint: state.fingerprint.clone(),
                            member_fingerprint: actor.fingerprint.clone(),
                            contributors: actor.history.clone(),
                        });
                    }
                }
            }
        }

        // 4. Overlaps in parallel: slot i from exposure i alone.
        let overlaps = map_indexed(exposures.len(), threads, |i| {
            exposures[i]
                .member_fingerprint
                .overlap(&exposures[i].doc_fingerprint)
        })?;

        // 5. Sequential fold into per-target rankings.
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        for (exposure, overlap) in exposures.iter().zip(overlaps.iter()) {
            let target = self.targets.entry(exposure.target).or_default();
            let candidates = &self.config.thresholds.candidates;
            let threshold = candidates[target.ladder_idx.min(candidates.len() - 1)];
            target.seen += 1;
            let toxicity = f32::from_bits(exposure.toxicity_bits);
            if f64::from(toxicity) > threshold && *overlap > 0.0 {
                target.admitted += 1;
                let threat = toxicity * *overlap;
                target.entries.push(ThreatEntry {
                    event: exposure.event,
                    doc: exposure.doc,
                    audience: exposure.audience,
                    toxicity_bits: exposure.toxicity_bits,
                    overlap_bits: overlap.to_bits(),
                    threat_bits: threat.to_bits(),
                    contributors: exposure.contributors.clone(),
                });
                touched.insert(exposure.target);
            }
            if target.seen >= self.config.adaptive_window {
                let rate = f64::from(target.admitted) / f64::from(target.seen);
                let t = &self.config.thresholds;
                if rate > t.target_precision {
                    // Too permissive for review bandwidth: climb the ladder.
                    target.ladder_idx = (target.ladder_idx + 1).min(candidates.len() - 1);
                } else if rate < t.target_precision - t.precision_slack {
                    // Starving: probe lower, the §5.5 recall-protection move.
                    target.ladder_idx = target.ladder_idx.saturating_sub(1);
                }
                target.seen = 0;
                target.admitted = 0;
            }
        }
        for id in touched {
            if let Some(target) = self.targets.get_mut(&id) {
                target.entries.sort_by(|a, b| {
                    b.threat()
                        .total_cmp(&a.threat())
                        .then(a.event.cmp(&b.event))
                        .then(a.audience.cmp(&b.audience))
                });
                target.entries.truncate(self.config.top_k);
            }
        }

        self.next_event = end;
        self.epochs_done += 1;
        Ok(end - start)
    }

    /// Renders the ranked threat lists. Targets are ordered by their top
    /// entry's threat (descending, ties by actor id); every target line
    /// starts with `target ` (the smoke test greps for it).
    pub fn render_rankings(&self, actors: &[String]) -> String {
        let handle = |id: u32| -> &str {
            actors
                .get(id as usize)
                .map(|h| h.as_str())
                .unwrap_or("<unknown>")
        };
        let mut ordered: Vec<(&u32, &TargetState)> = self
            .targets
            .iter()
            .filter(|(_, state)| !state.entries.is_empty())
            .collect();
        ordered.sort_by(|(a_id, a), (b_id, b)| {
            let a_top = a.entries.first().map(|e| e.threat()).unwrap_or(0.0);
            let b_top = b.entries.first().map(|e| e.threat()).unwrap_or(0.0);
            b_top.total_cmp(&a_top).then(a_id.cmp(b_id))
        });
        let candidates = &self.config.thresholds.candidates;
        let mut out = String::new();
        out.push_str(&format!(
            "threat rankings: {} targets, {} events processed, {} epochs\n",
            ordered.len(),
            self.next_event,
            self.epochs_done
        ));
        for (id, state) in ordered {
            let threshold = candidates[state.ladder_idx.min(candidates.len() - 1)];
            out.push_str(&format!(
                "target {} entries={} threshold={}\n",
                handle(*id),
                state.entries.len(),
                threshold
            ));
            for entry in &state.entries {
                out.push_str(&format!(
                    "  threat={:.4} tox={:.4} overlap={:.4} event={} doc={} audience={} contributors={}\n",
                    entry.threat(),
                    entry.toxicity(),
                    entry.overlap(),
                    entry.event,
                    entry.doc,
                    handle(entry.audience),
                    entry
                        .contributors
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{simulate, SimConfig};
    use incite_corpus::{generate, CorpusConfig};
    use incite_ml::{FeaturizerConfig, TrainConfig};

    fn setup() -> (EventStream, BTreeMap<u64, String>, TextClassifier) {
        let corpus = generate(&CorpusConfig::tiny(404));
        let stream = simulate(&corpus, &SimConfig::default());
        let texts: BTreeMap<u64, String> = corpus
            .documents
            .iter()
            .map(|d| (d.id.0, d.text.clone()))
            .collect();
        let labeled: Vec<(String, bool)> = corpus
            .documents
            .iter()
            .take(800)
            .map(|d| (d.text.clone(), d.truth.is_cth))
            .collect();
        let refs: Vec<(&str, bool)> = labeled.iter().map(|(t, y)| (t.as_str(), *y)).collect();
        let classifier = TextClassifier::train(
            refs.iter().copied(),
            FeaturizerConfig::default(),
            TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        (stream, texts, classifier)
    }

    fn run_to_end(
        stream: &EventStream,
        texts: &BTreeMap<u64, String>,
        classifier: &TextClassifier,
        threads: usize,
    ) -> ThreatRanker {
        let doc_texts: BTreeMap<u64, &str> =
            texts.iter().map(|(id, t)| (*id, t.as_str())).collect();
        let mut ranker = ThreatRanker::new(
            RankerConfig {
                threads,
                epoch_len: 128,
                ..RankerConfig::default()
            },
            stream.actors.len(),
        );
        loop {
            let n = ranker
                .process_epoch(stream, &doc_texts, classifier)
                .expect("epoch");
            if n == 0 {
                break;
            }
        }
        ranker
    }

    #[test]
    fn rankings_are_thread_invariant() {
        let (stream, texts, classifier) = setup();
        let serial = run_to_end(&stream, &texts, &classifier, 1);
        let parallel = run_to_end(&stream, &texts, &classifier, 4);
        assert_eq!(
            serial.render_rankings(&stream.actors),
            parallel.render_rankings(&stream.actors)
        );
    }

    #[test]
    fn rankings_surface_targets_with_evidence() {
        let (stream, texts, classifier) = setup();
        let ranker = run_to_end(&stream, &texts, &classifier, 2);
        let rendered = ranker.render_rankings(&stream.actors);
        assert!(
            rendered.contains("target "),
            "no targets ranked:\n{rendered}"
        );
        let mut saw_entries = false;
        for state in ranker.targets.values() {
            for entry in &state.entries {
                saw_entries = true;
                assert!(entry.threat() > 0.0);
                assert!(entry.overlap() > 0.0);
                assert!((0.0..=1.0).contains(&entry.overlap()));
                assert!(!entry.contributors.is_empty());
                // Ranking key is the product of the two axes.
                let product = entry.toxicity() * entry.overlap();
                assert_eq!(product.to_bits(), entry.threat_bits);
            }
        }
        assert!(saw_entries, "no threat entries admitted");
    }

    #[test]
    fn amplify_before_post_is_typed() {
        let (stream, texts, classifier) = setup();
        let doc_texts: BTreeMap<u64, &str> =
            texts.iter().map(|(id, t)| (*id, t.as_str())).collect();
        // Find the first amplify and start the stream there: its post
        // event is missing, which must be a typed refusal.
        let first_amp = stream
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::Amplify { .. }))
            .expect("stream has amplifies");
        let truncated = EventStream {
            actors: stream.actors.clone(),
            events: stream.events[first_amp..]
                .iter()
                .enumerate()
                .map(|(i, e)| crate::event::StreamEvent {
                    id: crate::event::EventId(i as u64),
                    timestamp: e.timestamp,
                    kind: e.kind,
                })
                .collect(),
        };
        let mut ranker = ThreatRanker::new(RankerConfig::default(), truncated.actors.len());
        let mut result = Ok(1);
        while let Ok(n) = result {
            if n == 0 {
                break;
            }
            result = ranker.process_epoch(&truncated, &doc_texts, &classifier);
        }
        assert!(matches!(result, Err(StreamError::AmplifyBeforePost { .. })));
    }
}
