//! The rule catalog and the finding type.
//!
//! Every rule here is proved by a pass over the workspace item graph
//! (INC008–INC014, INC016). The token-level invariants INC001–INC004,
//! INC006 and INC007 are clippy lints, scoped by crate attributes and the
//! workspace `clippy.toml`; INC005's taxonomy counts are unit tests in
//! the crates that declare them, and INC015 is rustc's `Fn + Sync` bound
//! on `parallel::map_indexed` (DESIGN.md §10). Every finding is an error.

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID, e.g. `INC011`.
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// Dataflow steps for taint findings (INC011–INC013): source → hops
    /// → sink, one human-readable step per entry. Empty for every other
    /// rule.
    pub trace: Vec<String>,
}

impl Finding {
    /// Rustc-style rendering: `error[INC011]: message\n  --> file:line`.
    pub fn render(&self) -> String {
        format!(
            "error[{}]: {}\n  --> {}:{}",
            self.rule, self.message, self.file, self.line
        )
    }
}

/// Static description of a rule. One table backs `--list-rules` (id +
/// summary), `--explain INCxxx` (contract + example + fix) and the SARIF
/// driver catalog, so the three can never drift apart.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    /// The invariant the rule enforces, stated as a contract.
    pub contract: &'static str,
    /// A minimal violating snippet (or scenario) that fires the rule.
    pub example: &'static str,
    /// How to bring violating code back into contract.
    pub fix: &'static str,
}

impl RuleInfo {
    /// Catalog lookup by rule id (`"INC011"` → its entry).
    pub fn find(id: &str) -> Option<&'static RuleInfo> {
        CATALOG.iter().find(|r| r.id == id)
    }
}

/// The shipped catalog.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "INC008",
        summary: "workspace locks are acquired in one consistent order — the \
                  item graph must not show the same two locks taken in both \
                  orders anywhere (potential deadlock)",
        contract: "For any two workspace locks A and B, all code paths agree \
                   on which is taken first; the item graph proves no A→B and \
                   B→A pair exists.",
        example: "Thread 1 locks `queue` then `metrics`; thread 2 locks \
                  `metrics` then `queue`.",
        fix: "Pick one order (document it on the struct holding the locks) \
              and reorder the minority call sites; or merge the two locks.",
    },
    RuleInfo {
        id: "INC009",
        summary: "no blocking operation (file I/O via checkpoint::atomic_io, \
                  thread::sleep, Condvar::wait, channel recv, TcpStream reads, \
                  join) while a Mutex/RwLock guard is live",
        contract: "Critical sections are compute-only: a held guard never \
                   spans file I/O, sleeps, channel waits or joins, so lock \
                   hold times stay bounded.",
        example: "let g = state.lock().unwrap(); write_hashed(path, &g.data)?;",
        fix: "Clone or take what the blocking call needs, drop the guard \
              (end the scope or `drop(g)`), then block.",
    },
    RuleInfo {
        id: "INC010",
        summary: "serve request handlers only grow buffers (push/extend/\
                  push_str) inside loops under a visible bound — with_capacity \
                  pre-allocation or a max_batch/queue_depth/constant check",
        contract: "No request can make the server allocate unboundedly: every \
                   buffer grown in a handler loop is pre-sized or guarded by \
                   a visible max_batch/queue_depth/constant bound.",
        example: "for doc in body_docs { batch.push(doc); } // no bound check",
        fix: "Pre-allocate with `Vec::with_capacity(max_batch)` or guard the \
              loop with the configured bound and reject oversized requests.",
    },
    RuleInfo {
        id: "INC011",
        summary: "tainted document text never reaches a diagnostic sink \
                  (println!/eprintln!/panic!, serve error bodies, CLI error \
                  funnel) without passing a registered sanitizer",
        contract: "Corpus text, request bodies and values derived from them \
                   are taint-tracked across calls, returns, bindings and \
                   format! captures; only `pii::redact`, \
                   `corpus::redact_excerpt`, feature hashing and the \
                   panic-message funnel launder taint. No tainted value may \
                   flow into stderr/stdout diagnostics, serve error \
                   responses or the CLI error funnel.",
        example: "eprintln!(\"bad doc: {text}\");  // text came from \
                  read_jsonl",
        fix: "Report structure, not content: byte offsets, lengths, hashes, \
              or a `redact_excerpt`-shaped excerpt. If content is truly \
              required, pass it through `pii::redact` first.",
    },
    RuleInfo {
        id: "INC012",
        summary: "no nondeterminism source (wall clock, RandomState hash \
                  iteration, thread ids, pointer-to-int casts) is reachable \
                  from the scoring entry points",
        contract: "Every function reachable in the call graph from \
                   ScoringEngine's methods or the pipeline entry points is \
                   pure: no Instant/SystemTime reads, no thread_rng, no \
                   thread-id observation, no HashMap/HashSet (RandomState \
                   iteration order), no pointer-to-integer casts. Scoring is \
                   a function of (model, text) and nothing else.",
        example: "let mut by_label: HashMap<Label, f32> = HashMap::new(); \
                  // inside a fn called from score_texts",
        fix: "Use BTreeMap/BTreeSet (deterministic order) or a seeded \
              hasher; take timestamps outside the scoring path and pass \
              them in as values.",
    },
    RuleInfo {
        id: "INC013",
        summary: "error enum variants carrying String/str are never \
                  constructed from unredacted document text",
        contract: "Typed errors travel far (logs, quarantine reports, serve \
                   bodies), so any `Enum::Variant(..)` or \
                   `Enum::Variant { .. }` whose payload can carry text must \
                   be built from static strings or sanitizer output, never \
                   from tainted values.",
        example: "JsonlError::Malformed { excerpt: raw_line.to_string() }",
        fix: "Store structure (offsets, counts) in the variant, or sanitize \
              at construction: `excerpt: redact_excerpt(raw, 40)`.",
    },
    RuleInfo {
        id: "INC014",
        summary: "every atomic_io write/append site in core, serve and \
                  stream is reachable from a failpoint check/trip site, so \
                  the kill sweep covers it",
        contract: "Crash-recovery is proven by the failpoint sweeps, and a \
                   sweep can only kill what a failpoint brackets: every \
                   `write_atomic`/`write_hashed`/`write_framed`/\
                   `set_aside`/`discard_aside`/`AppendLog::open` call \
                   site outside tests must be \
                   reachable, through the call graph, from a function that \
                   consults a failpoint registry (`.check(..)`/`.trip(..)`). \
                   An unreachable write is persistence the sweep silently \
                   stopped covering.",
        example: "pub fn save(&self) { atomic_io::write_hashed(&self.path, \
                  payload)?; } // no sweep reaches save()",
        fix: "Route the write under an existing swept entry point, or add a \
              registered failpoint site on the path to it (see \
              `core::failpoints` / `serve::chaos`) and cover it in the \
              sweep tests.",
    },
    RuleInfo {
        id: "INC016",
        summary: "wire-decoded lengths/offsets in corpus::jsonl and \
                  stream::event are bounded before +/*/narrowing-as \
                  arithmetic",
        contract: "Values decoded from wire bytes (`from_le_bytes`, \
                   `.parse(..)`, `serde_json::from_str(..)`) are attacker- \
                   controlled: until a bound guard (`<`/`<=`/`.min(..)`/\
                   `.get(..)`) or a `checked_*`/`saturating_*` operation \
                   intervenes, they must not feed bare `+`/`*` arithmetic \
                   or a narrowing `as` cast, where overflow or truncation \
                   silently corrupts offsets. Collection `.len()` values \
                   are already bounded and stay clean.",
        example: "let len = u32::from_le_bytes(hdr);\nlet end = offset + \
                  len; // unbounded wire value",
        fix: "Guard first (`if len <= MAX_FRAME { .. }`), or use \
              `checked_add`/`checked_mul` and handle `None` as a typed \
              decode error.",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_rustc_style() {
        let f = Finding {
            rule: "INC014",
            file: "crates/core/src/pipeline.rs".into(),
            line: 7,
            message: "unswept checkpoint write".into(),
            trace: Vec::new(),
        };
        assert_eq!(
            f.render(),
            "error[INC014]: unswept checkpoint write\n  --> crates/core/src/pipeline.rs:7"
        );
    }
}
