//! Pass 3: interprocedural taint & purity dataflow (INC011–INC013).
//!
//! | rule | invariant |
//! |------|-----------|
//! | INC011 | tainted document text never reaches a diagnostic sink |
//! | INC012 | no nondeterminism source reachable from scoring entries |
//! | INC013 | error variants carrying String are never built from taint |
//!
//! The pass consumes the [`crate::graph::Workspace`] built in pass 1 and
//! mirrors its transitive-acquires machinery: a per-function summary
//! (`returns tainted?`, `which params are tainted?`) is iterated to a
//! fixpoint over the resolved call edges, then a final replay over each
//! body reports flows into sinks.
//!
//! The taint lattice is deliberately two-point (clean | tainted-with-a-
//! reason); precision comes from *where* taint is introduced and killed:
//!
//! * **Sources** — functions that read corpus jsonl or request bodies
//!   (`SOURCE_FNS`), `.text`/`.texts`/`.body` field reads
//!   (`SOURCE_FIELDS`), and text-typed parameters of the crates that
//!   exist to process document text (`PRESUME_PARAM_CRATES`).
//! * **Sanitizers** — `pii::redact`, `corpus::redact_excerpt`, the
//!   feature-hashing family and the panic-message funnel
//!   (`SANITIZER_NAMES`): their results are clean by contract, and
//!   their argument spans are scrubbed before any other indicator runs.
//! * **Sinks** — stderr/stdout macros, serve error bodies and HTTP
//!   response constructors, the CLI error funnel (`SINK_MACROS`,
//!   `SINK_FNS`), and (INC013) constructions of error-enum variants
//!   whose payload can carry text.
//!
//! Known approximation classes are catalogued in DESIGN.md §15; the
//! guiding rule is to over-taint values (false positives are paid down
//! or suppressed with a visible pragma) but never to widen the sink set
//! speculatively.

use crate::graph::{matching_paren, Event, FnNode, Workspace};
use crate::items::{contains_word, is_ident_byte, line_at, FnItem};
use crate::lexer::matching_brace;
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Crates in taint scope: the data plane. `bench` drives experiments on
/// synthetic corpora; `lint` analyses source text, not victim text.
const SCOPE: &[&str] = &[
    "cli",
    "core",
    "corpus",
    "ml",
    "pii",
    "regexlite",
    "serve",
    "stats",
    "textkit",
];

/// Crates whose text-typed parameters are presumed tainted even without
/// a tainted call site: they exist to process document text. The other
/// scope crates (core, serve, cli, …) get parameter taint
/// interprocedurally from actual call sites.
const PRESUME_PARAM_CRATES: &[&str] = &["corpus", "ml", "pii", "textkit"];

/// Type words that mark a parameter or return type as able to carry
/// text. `u8` covers `&[u8]` byte buffers (raw corpus lines).
const TEXT_TYPE_WORDS: &[&str] = &[
    "String", "str", "u8", "Document", "Corpus", "Request", "Received",
];

/// Functions whose return value IS document text, by (crate, name).
const SOURCE_FNS: &[(&str, &str)] = &[
    ("corpus", "read_jsonl"),
    ("corpus", "read_jsonl_quarantine"),
    ("corpus", "parse_line"),
    ("corpus", "generate"),
    ("serve", "read_request"),
    ("serve", "parse_docs"),
    ("cli", "load_corpus_lines"),
];

/// Field reads that yield document text wherever they appear.
const SOURCE_FIELDS: &[&str] = &["text", "texts", "body"];

/// Sanitizers, matched lexically by callee name so that nested calls
/// inside argument spans scrub too. Their output is clean by contract;
/// each has a test pinning that contract in its home crate.
const SANITIZER_NAMES: &[&str] = &[
    "redact",
    "redact_excerpt",
    "fnv1a",
    "fnv64_hex",
    "hash_features",
    "slot",
    "panic_message",
];

/// Methods that return metadata, not content: calling one on a tainted
/// receiver yields a clean value. `kind` is the workspace convention for
/// static error-kind descriptors (e.g. `ScoreError::kind`).
const CLEAN_METHODS: &[&str] = &["len", "is_empty", "capacity", "count", "kind"];

/// Macro sinks: diagnostics that leave the process. `write!`/`writeln!`
/// are deliberately absent — writer-directed output is the program's
/// contract surface (CLI stdout, Display impls); INC013 polices what
/// error types may carry instead.
const SINK_MACROS: &[&str] = &[
    "println",
    "eprintln",
    "print",
    "eprint",
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "unreachable",
    "todo",
];

/// Function sinks by (crate, name, description): strings passed here
/// become visible outside the data plane.
const SINK_FNS: &[(&str, &str, &str)] = &[
    ("serve", "error_body", "serve error body"),
    ("serve", "json", "serve HTTP response"),
    ("serve", "text", "serve HTTP response"),
    ("cli", "err", "CLI error funnel"),
];

/// Nondeterminism needles for INC012, with what each one observes.
const NONDET_NEEDLES: &[(&str, &str)] = &[
    ("Instant::now", "reads the monotonic clock"),
    ("SystemTime::now", "reads the wall clock"),
    ("thread_rng", "draws from the ambient RNG"),
    ("thread::current", "observes the thread id"),
    ("RandomState", "uses a randomly seeded hasher"),
    ("HashMap", "iterates in RandomState (per-process) order"),
    ("HashSet", "iterates in RandomState (per-process) order"),
    (".as_ptr() as ", "observes an address as an integer"),
];

/// Scoring entry points for INC012: every method of `ScoringEngine`,
/// plus the pipeline drivers.
const SCORING_ENTRY_FNS: &[&str] = &["run_pipeline", "run_pipeline_resumable"];
const SCORING_ENTRY_TY: &str = "ScoringEngine";

/// One parameter of a workspace function, as parsed from its signature.
struct Param {
    name: String,
    text: bool,
}

/// Per-function dataflow summary, iterated to a fixpoint.
struct FnInfo {
    /// File is in a scope crate and the fn is non-test with a body.
    analyzed: bool,
    params: Vec<Param>,
    /// Taint reason per parameter (presumed or propagated).
    param_taint: Vec<Option<String>>,
    /// The return type can carry text at all.
    ret_text: bool,
    /// Taint reason for the return value, if any.
    ret_taint: Option<String>,
}

/// Runs INC011–INC013 over the workspace graph. Returns the findings
/// plus the fuel burned (events × fixpoint iterations).
pub fn check(ws: &Workspace<'_>) -> (Vec<Finding>, u64) {
    let mut fuel: u64 = 0;
    let scoped: Vec<bool> = ws
        .files
        .iter()
        .map(|f| SCOPE.contains(&f.crate_name.as_str()))
        .collect();

    let enum_table = build_enum_table(ws);
    let mut infos = seed_infos(ws, &scoped);

    // B2-style fixpoint: propagate return taint and call-site argument
    // taint until no summary changes. Each iteration replays every body;
    // the chain depth of real flows is small, so the cap is generous.
    for _ in 0..12 {
        let mut changed = false;
        for fi in 0..ws.fns.len() {
            if !infos[fi].analyzed {
                continue;
            }
            fuel += ws.fns[fi].events.len() as u64 + 16;
            let mut sink = NoReport;
            changed |= analyze_body(ws, fi, &mut infos, &enum_table, &mut sink);
        }
        if !changed {
            break;
        }
    }

    // Final replay: same walk, now reporting flows into sinks.
    let mut findings = Vec::new();
    for fi in 0..ws.fns.len() {
        if !infos[fi].analyzed {
            continue;
        }
        fuel += ws.fns[fi].events.len() as u64 + 16;
        let mut sink = Report {
            ws,
            fi,
            findings: &mut findings,
        };
        analyze_body(ws, fi, &mut infos, &enum_table, &mut sink);
    }

    inc012_nondeterminism(ws, &scoped, &mut findings, &mut fuel);

    // A flow can be observed through several paths; report each site
    // once per rule and message, then respect per-line suppressions.
    let mut seen = BTreeSet::new();
    findings.retain(|f| seen.insert((f.rule, f.file.clone(), f.line, f.message.clone())));
    let by_path: BTreeMap<&str, usize> = ws
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    findings.retain(|f| {
        !by_path
            .get(f.file.as_str())
            .is_some_and(|&i| ws.files[i].masked.is_suppressed(f.rule, f.line))
    });
    (findings, fuel)
}

/// (enum name, variant name) → payload can carry text. Enum names are
/// unique enough across the workspace that the crate is not part of the
/// key; a collision would only widen the checked set.
fn build_enum_table(ws: &Workspace<'_>) -> BTreeMap<(String, String), bool> {
    let mut table = BTreeMap::new();
    for file in &ws.files {
        for e in &file.items.enums {
            for v in &e.variants {
                table.insert((e.name.clone(), v.name.clone()), v.carries_text);
            }
        }
    }
    table
}

/// Builds the initial per-function summaries: signature parse, source
/// seeding, parameter presumption.
fn seed_infos(ws: &Workspace<'_>, scoped: &[bool]) -> Vec<FnInfo> {
    let mut infos = Vec::with_capacity(ws.fns.len());
    for node in &ws.fns {
        let file = &ws.files[node.file];
        let item = fn_item(file, node);
        let (params, ret_text) = match item {
            Some(it) => parse_sig(&it.sig),
            None => (Vec::new(), false),
        };
        let analyzed = scoped[node.file] && !node.in_test && node.body.is_some();
        let crate_name = file.crate_name.as_str();
        let presume = PRESUME_PARAM_CRATES.contains(&crate_name);
        let param_taint: Vec<Option<String>> = params
            .iter()
            .map(|p| {
                (analyzed && presume && p.text).then(|| {
                    format!(
                        "parameter `{}` of `{}::{}` (presumed document text)",
                        p.name, crate_name, node.name
                    )
                })
            })
            .collect();
        let ret_taint = (analyzed
            && SOURCE_FNS
                .iter()
                .any(|(c, n)| *c == crate_name && *n == node.name))
        .then(|| format!("source `{}::{}`", crate_name, node.name));
        infos.push(FnInfo {
            analyzed,
            params,
            param_taint,
            ret_text: ret_text || ret_taint.is_some(),
            ret_taint,
        });
    }
    infos
}

/// Finds the `FnItem` for a graph node (same file, same line).
fn fn_item<'a>(file: &'a crate::graph::FileGraph<'_>, node: &FnNode) -> Option<&'a FnItem> {
    file.items
        .fns
        .iter()
        .find(|it| it.line == node.line && it.name == node.name)
}

/// Parses `(params) -> ret` out of a signature: parameter names with a
/// text-typed flag, plus whether the return type can carry text.
fn parse_sig(sig: &str) -> (Vec<Param>, bool) {
    let bytes = sig.as_bytes();
    let open = match sig.find('(') {
        Some(o) => o,
        None => return (Vec::new(), false),
    };
    let close = matching_paren(bytes, open, bytes.len());
    let inner = &sig[open + 1..close.min(sig.len())];
    let mut params = Vec::new();
    for piece in crate::items::split_top_level(inner, ',') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let (pat, ty) = match split_param(piece) {
            Some(p) => p,
            None => continue, // receiver (`&self`, `&mut self`, `self`)
        };
        let name = pat
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .rfind(|w| !w.is_empty() && *w != "mut" && *w != "ref")
            .unwrap_or_default()
            .to_string();
        if name.is_empty() || name == "_" {
            continue;
        }
        let text = TEXT_TYPE_WORDS.iter().any(|w| contains_word(ty, w));
        params.push(Param { name, text });
    }
    let after = &sig[close.min(sig.len())..];
    let ret = match after.find("->") {
        Some(a) => {
            let rest = &after[a + 2..];
            rest.split("where").next().unwrap_or(rest)
        }
        None => "",
    };
    let ret_text = TEXT_TYPE_WORDS.iter().any(|w| contains_word(ret, w));
    (params, ret_text)
}

/// Splits one parameter at its top-level `:`; `None` for receivers.
fn split_param(piece: &str) -> Option<(&str, &str)> {
    let mut depth = 0i32;
    for (i, c) in piece.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ':' if depth == 0 => {
                // `::` is a path, not the pattern/type separator.
                if piece[i + 1..].starts_with(':') {
                    continue;
                }
                return Some((&piece[..i], &piece[i + 1..]));
            }
            _ => {}
        }
    }
    None
}

/// What the final replay does when a tainted value hits a sink. The
/// propagation iterations use [`NoReport`] so summaries converge before
/// anything is reported.
trait SinkObserver {
    fn flow(&mut self, rule: &'static str, off: usize, message: String, trace: Vec<String>);
}

struct NoReport;
impl SinkObserver for NoReport {
    fn flow(&mut self, _: &'static str, _: usize, _: String, _: Vec<String>) {}
}

struct Report<'a, 'b> {
    ws: &'a Workspace<'b>,
    fi: usize,
    findings: &'a mut Vec<Finding>,
}
impl SinkObserver for Report<'_, '_> {
    fn flow(&mut self, rule: &'static str, off: usize, message: String, trace: Vec<String>) {
        let node = &self.ws.fns[self.fi];
        let file = &self.ws.files[node.file];
        self.findings.push(Finding {
            rule,
            file: file.path.clone(),
            line: line_at(&file.lines, off),
            message,
            trace,
        });
    }
}

/// Replays one body: tracks tainted locals, propagates argument taint to
/// callee summaries, recomputes the return summary, and (via `sink`)
/// reports tainted flows into sinks. Returns whether any summary changed.
fn analyze_body(
    ws: &Workspace<'_>,
    fi: usize,
    infos: &mut [FnInfo],
    enum_table: &BTreeMap<(String, String), bool>,
    sink: &mut dyn SinkObserver,
) -> bool {
    let node = &ws.fns[fi];
    let file = &ws.files[node.file];
    let bytes = file.masked.masked.as_bytes();
    let body_end = node.body.map(|b| b.end).unwrap_or(0);
    let crate_name = file.crate_name.as_str();

    // Resolved callees by event index (built in pass 1).
    let targets: BTreeMap<usize, usize> = ws.call_targets[fi].iter().copied().collect();
    // Resolved calls by byte offset, for span evaluation.
    let calls_by_off: Vec<(usize, usize)> = ws.call_targets[fi]
        .iter()
        .filter_map(|&(ei, callee)| match &node.events[ei] {
            Event::Call(c) => Some((c.off, callee)),
            _ => None,
        })
        .collect();

    let mut tainted: BTreeMap<String, String> = BTreeMap::new();
    for (pi, reason) in infos[fi].param_taint.iter().enumerate() {
        if let (Some(r), Some(p)) = (reason, infos[fi].params.get(pi)) {
            tainted.insert(p.name.clone(), r.clone());
        }
    }

    let mut changed = false;
    let mut any_taint: Option<String> = infos[fi]
        .param_taint
        .iter()
        .flatten()
        .next()
        .cloned()
        .or_else(|| infos[fi].ret_taint.clone());

    // Walk state: the active `let` binding (bound at the terminating `;`
    // or at the `{` of a block/match initializer), the taint context of
    // the expression statement in flight (feeds the match-scrutinee
    // heuristic), and a stack of scrutinee contexts per brace depth.
    let mut active_let: Option<(String, usize)> = None;
    let mut pending_ctx: Option<String> = None;
    let mut ctx_stack: Vec<Option<String>> = Vec::new();

    macro_rules! eval {
        ($lo:expr, $hi:expr, $tainted:expr) => {
            eval_span(
                bytes,
                $lo,
                ($hi).min(body_end),
                $tainted,
                &file.masked.captures,
                &calls_by_off,
                infos,
            )
        };
    }

    for (ei, ev) in node.events.iter().enumerate() {
        match ev {
            Event::Open { off } => {
                if let Some((var, loff)) = active_let.take() {
                    if let Some(reason) = eval!(loff, *off, &tainted) {
                        any_taint.get_or_insert_with(|| reason.clone());
                        tainted.insert(var, reason);
                    }
                }
                ctx_stack.push(pending_ctx.take());
            }
            Event::Close => {
                ctx_stack.pop();
            }
            Event::Semi { off } => {
                if let Some((var, loff)) = active_let.take() {
                    if let Some(reason) = eval!(loff, *off, &tainted) {
                        any_taint.get_or_insert_with(|| reason.clone());
                        tainted.insert(var, reason);
                    }
                }
                pending_ctx = None;
            }
            Event::Let { var, off } => {
                active_let = var.as_ref().map(|v| (v.clone(), *off));
            }
            Event::Macro(m) => {
                let close = matching_paren(bytes, m.off, body_end);
                let name = m.name.as_str();
                if name == "write" || name == "writeln" {
                    continue;
                }
                if let Some(reason) = eval!(m.off, close + 1, &tainted) {
                    any_taint.get_or_insert_with(|| reason.clone());
                    if SINK_MACROS.contains(&name) {
                        sink.flow(
                            "INC011",
                            m.off,
                            format!("tainted document text reaches `{name}!`"),
                            vec![
                                reason,
                                format!("sink: `{name}!` in `{}::{}`", crate_name, node.name),
                            ],
                        );
                    } else {
                        pending_ctx = Some(reason);
                    }
                }
            }
            Event::Ctor(c) => {
                let Some((enm, variant)) = variant_of(&c.segs) else {
                    continue;
                };
                if enum_table.get(&(enm.clone(), variant.clone())) != Some(&true) {
                    continue;
                }
                let close = matching_brace(bytes, c.off).unwrap_or(body_end);
                if let Some(reason) = eval!(c.off + 1, close, &tainted) {
                    any_taint.get_or_insert_with(|| reason.clone());
                    sink.flow(
                        "INC013",
                        c.off,
                        format!("error variant `{enm}::{variant}` built from unredacted text"),
                        vec![
                            reason,
                            format!(
                                "sink: `{enm}::{variant}` constructed in `{}::{}`",
                                crate_name, node.name
                            ),
                        ],
                    );
                }
            }
            Event::Call(call) => {
                let close = matching_paren(bytes, call.off, body_end);

                // Match-arm binder heuristic: `Err(e) =>` inside a match
                // whose scrutinee was tainted binds a tainted error (a
                // parse error on tainted input embeds the input). Only
                // `Err` binders — `Ok`/`Some` payloads are usually the
                // *successful* (often numeric) result.
                if call.segs.len() == 1
                    && call.segs[0] == "Err"
                    && call.args.len() == 1
                    && is_plain_ident(&call.args[0])
                {
                    if let Some(ctx) = ctx_stack.iter().rev().flatten().next() {
                        tainted.insert(
                            call.args[0].clone(),
                            format!(
                                "`{}` bound from tainted match scrutinee ({ctx})",
                                call.args[0]
                            ),
                        );
                        continue;
                    }
                }

                // Tuple-variant construction of a text-carrying error.
                if !call.dotted && !call.opaque_recv {
                    if let Some((enm, variant)) = variant_of(&call.segs) {
                        if enum_table.get(&(enm.clone(), variant.clone())) == Some(&true) {
                            if let Some(reason) = eval!(call.off + 1, close, &tainted) {
                                any_taint.get_or_insert_with(|| reason.clone());
                                sink.flow(
                                    "INC013",
                                    call.off,
                                    format!(
                                        "error variant `{enm}::{variant}` built from \
                                         unredacted text"
                                    ),
                                    vec![
                                        reason,
                                        format!(
                                            "sink: `{enm}::{variant}` constructed in `{}::{}`",
                                            crate_name, node.name
                                        ),
                                    ],
                                );
                            }
                            continue;
                        }
                    }
                }

                let last = call.segs.last().map(String::as_str).unwrap_or_default();
                let sanitizer = SANITIZER_NAMES.contains(&last);

                // Receiver taint: `texts.join(…)` is tainted even though
                // the paren span is clean; metadata methods are exempt.
                let recv_taint = (call.dotted
                    && !sanitizer
                    && !CLEAN_METHODS.contains(&last)
                    && tainted.contains_key(call.segs[0].as_str()))
                .then(|| tainted[call.segs[0].as_str()].clone());
                let span_taint = if sanitizer {
                    None
                } else {
                    eval!(call.off, close + 1, &tainted)
                };
                let taint_here = recv_taint.or(span_taint);
                if let Some(reason) = &taint_here {
                    any_taint.get_or_insert_with(|| reason.clone());
                    if active_let.is_none() {
                        pending_ctx = Some(reason.clone());
                    }
                }

                if let Some(&callee) = targets.get(&ei) {
                    // Sink functions: tainted argument span = a leak.
                    let callee_node = &ws.fns[callee];
                    let callee_crate = ws.files[callee_node.file].crate_name.as_str();
                    if let Some((_, _, desc)) = SINK_FNS
                        .iter()
                        .find(|(c, n, _)| *c == callee_crate && *n == callee_node.name)
                    {
                        if let Some(reason) = eval!(call.off, close + 1, &tainted) {
                            sink.flow(
                                "INC011",
                                call.off,
                                format!(
                                    "tainted document text reaches `{}` ({desc})",
                                    callee_node.name
                                ),
                                vec![
                                    reason,
                                    format!(
                                        "sink: `{}::{}` called from `{}::{}`",
                                        callee_crate, callee_node.name, crate_name, node.name
                                    ),
                                ],
                            );
                        }
                    }
                    // Argument taint propagates into the callee summary.
                    for (ai, arg) in call.args.iter().enumerate() {
                        if infos[callee].param_taint.get(ai).is_none() {
                            break;
                        }
                        if infos[callee].param_taint[ai].is_some() {
                            continue;
                        }
                        if let Some(r) = arg_taint(arg, &tainted) {
                            let pname = infos[callee].params[ai].name.clone();
                            infos[callee].param_taint[ai] = Some(format!(
                                "parameter `{pname}` of `{}::{}` tainted at call from \
                                 `{}::{}` ({r})",
                                ws.files[ws.fns[callee].file].crate_name,
                                ws.fns[callee].name,
                                crate_name,
                                node.name
                            ));
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    // Return summary: the body produced a tainted value and the return
    // type can carry it. (Which value is *returned* is not tracked; see
    // DESIGN.md §15 on over-taint.)
    if infos[fi].ret_taint.is_none() && infos[fi].ret_text {
        if let Some(reason) = &any_taint {
            infos[fi].ret_taint = Some(format!(
                "return value of `{}::{}` ({reason})",
                crate_name, node.name
            ));
            changed = true;
        }
    }
    changed
}

/// `Enum::Variant` path → (enum, variant) when the tail two segments
/// both start uppercase (filters `Type::new`, free fns, consts are
/// ALL_CAPS so their *second* letter check keeps them out).
fn variant_of(segs: &[String]) -> Option<(String, String)> {
    if segs.len() < 2 {
        return None;
    }
    let enm = &segs[segs.len() - 2];
    let variant = &segs[segs.len() - 1];
    let camel = |s: &str| {
        let mut ch = s.chars();
        ch.next().is_some_and(char::is_uppercase) && s.chars().any(char::is_lowercase)
    };
    (camel(enm) && camel(variant)).then(|| (enm.clone(), variant.clone()))
}

fn is_plain_ident(s: &str) -> bool {
    s != "_"
        && !s.is_empty()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
}

/// One top-level argument's taint, judged lexically (the capped arg text
/// from the call event): sanitizer calls scrub their span, then tainted
/// variable words and source fields count.
fn arg_taint(arg: &str, tainted: &BTreeMap<String, String>) -> Option<String> {
    let scrubbed = scrub_sanitizers(arg);
    for (var, reason) in tainted {
        if contains_word(&scrubbed, var) {
            return Some(reason.clone());
        }
    }
    for f in SOURCE_FIELDS {
        if scrubbed.contains(&format!(".{f}")) {
            return Some(format!("`.{f}` field read (document text)"));
        }
    }
    None
}

/// Blanks `sanitizer(...)` spans in a string (lexical, for arg texts).
fn scrub_sanitizers(text: &str) -> String {
    let mut out: Vec<u8> = text.as_bytes().to_vec();
    for name in SANITIZER_NAMES {
        let mut from = 0;
        while let Some(rel) = text[from..].find(name) {
            let at = from + rel;
            from = at + 1;
            let end = at + name.len();
            let left_ok = at == 0 || !is_ident_byte(text.as_bytes()[at - 1]);
            if !left_ok || text.as_bytes().get(end) != Some(&b'(') {
                continue;
            }
            let close = matching_paren(text.as_bytes(), end, text.len());
            let cap = out.len() - 1;
            for b in &mut out[at..=close.min(cap)] {
                *b = b' ';
            }
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

/// Evaluates the taint of a masked-text span. Indicators, in order:
/// sanitizer spans are scrubbed first, then (1) a resolved call to a
/// taint-returning workspace fn, (2) a `format!` capture of a tainted
/// variable (string literals are masked, so captures are recorded by
/// the lexer), (3) a word occurrence of a tainted variable not
/// immediately followed by a metadata method, (4) a `.text`/`.texts`/
/// `.body` source-field read.
fn eval_span(
    bytes: &[u8],
    lo: usize,
    hi: usize,
    tainted: &BTreeMap<String, String>,
    captures: &[(usize, String)],
    calls_by_off: &[(usize, usize)],
    infos: &[FnInfo],
) -> Option<String> {
    if lo >= hi {
        return None;
    }
    // Sanitizer scrub: collect blanked sub-ranges.
    let mut scrubbed: Vec<(usize, usize)> = Vec::new();
    let text = std::str::from_utf8(&bytes[lo..hi]).unwrap_or_default();
    for name in SANITIZER_NAMES {
        let mut from = 0;
        while let Some(rel) = text[from..].find(name) {
            let at = from + rel;
            from = at + 1;
            let end = at + name.len();
            let left_ok = at == 0 || !is_ident_byte(text.as_bytes()[at - 1]);
            if !left_ok || text.as_bytes().get(end) != Some(&b'(') {
                continue;
            }
            let close = matching_paren(bytes, lo + end, hi);
            scrubbed.push((lo + at, close + 1));
        }
    }
    let clean_at = |off: usize| scrubbed.iter().any(|&(s, e)| off >= s && off < e);

    // (1) resolved taint-returning calls inside the span.
    for &(off, callee) in calls_by_off {
        if off >= lo && off < hi && !clean_at(off) {
            if let Some(r) = &infos[callee].ret_taint {
                return Some(r.clone());
            }
        }
    }
    // (2) captures of tainted variables.
    for (off, name) in captures {
        if *off >= lo && *off < hi && !clean_at(*off) {
            if let Some(r) = tainted.get(name) {
                return Some(format!("`{{{name}}}` interpolated ({r})"));
            }
        }
    }
    // (3) tainted variable words.
    for (var, reason) in tainted {
        let vb = var.as_bytes();
        let mut from = 0;
        while let Some(rel) = text[from..].find(var.as_str()) {
            let at = from + rel;
            from = at + 1;
            let tb = text.as_bytes();
            let left_ok = at == 0 || !is_ident_byte(tb[at - 1]);
            let end = at + vb.len();
            let right_ok = end >= tb.len() || !is_ident_byte(tb[end]);
            if !left_ok || !right_ok || clean_at(lo + at) {
                continue;
            }
            if followed_by_clean_method(tb, end) {
                continue;
            }
            return Some(reason.clone());
        }
    }
    // (4) source-field reads.
    for f in SOURCE_FIELDS {
        let pat = format!(".{f}");
        let mut from = 0;
        while let Some(rel) = text[from..].find(&pat) {
            let at = from + rel;
            from = at + 1;
            let tb = text.as_bytes();
            let end = at + pat.len();
            let right_ok = end >= tb.len() || !is_ident_byte(tb[end]);
            // A following `(` makes it a method call, not a field read.
            if !right_ok || tb.get(end) == Some(&b'(') || clean_at(lo + at) {
                continue;
            }
            if followed_by_clean_method(tb, end) {
                continue;
            }
            return Some(format!("`.{f}` field read (document text)"));
        }
    }
    None
}

/// `…end` is immediately `.len()`-style metadata access.
fn followed_by_clean_method(tb: &[u8], mut at: usize) -> bool {
    while at < tb.len() && tb[at].is_ascii_whitespace() {
        at += 1;
    }
    if tb.get(at) != Some(&b'.') {
        return false;
    }
    at += 1;
    let start = at;
    while at < tb.len() && is_ident_byte(tb[at]) {
        at += 1;
    }
    let name = std::str::from_utf8(&tb[start..at]).unwrap_or_default();
    CLEAN_METHODS.contains(&name) && tb.get(at) == Some(&b'(')
}

/// INC012: BFS over resolved call edges from the scoring entry points;
/// any reachable body touching a nondeterminism needle is a finding,
/// with the call path from the entry as the trace.
fn inc012_nondeterminism(
    ws: &Workspace<'_>,
    scoped: &[bool],
    findings: &mut Vec<Finding>,
    fuel: &mut u64,
) {
    let mut entries: Vec<usize> = Vec::new();
    for (fi, node) in ws.fns.iter().enumerate() {
        if !scoped[node.file] || node.in_test || node.body.is_none() {
            continue;
        }
        let is_entry = node.self_ty.as_deref() == Some(SCORING_ENTRY_TY)
            || SCORING_ENTRY_FNS.contains(&node.name.as_str());
        if is_entry {
            entries.push(fi);
        }
    }

    let mut prev: Vec<Option<usize>> = vec![None; ws.fns.len()];
    let mut origin: Vec<Option<usize>> = vec![None; ws.fns.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut visited = vec![false; ws.fns.len()];
    for &e in &entries {
        visited[e] = true;
        origin[e] = Some(e);
        queue.push_back(e);
    }
    while let Some(fi) = queue.pop_front() {
        *fuel += 1;
        for &callee in &ws.fns[fi].edges {
            if !visited[callee] && scoped[ws.fns[callee].file] && !ws.fns[callee].in_test {
                visited[callee] = true;
                prev[callee] = Some(fi);
                origin[callee] = origin[fi];
                queue.push_back(callee);
            }
        }
    }

    for fi in 0..ws.fns.len() {
        if !visited[fi] {
            continue;
        }
        let node = &ws.fns[fi];
        let Some(body) = node.body else { continue };
        let file = &ws.files[node.file];
        let text = &file.masked.masked[body.start..body.end.min(file.masked.masked.len())];
        *fuel += text.len() as u64;
        for (needle, desc) in NONDET_NEEDLES {
            let mut from = 0;
            while let Some(rel) = text[from..].find(needle) {
                let at = from + rel;
                from = at + 1;
                // Word-bound the leading ident chars of the needle.
                let tb = text.as_bytes();
                let first = needle.as_bytes()[0];
                if is_ident_byte(first) && at > 0 && is_ident_byte(tb[at - 1]) {
                    continue;
                }
                let end = at + needle.len();
                let last = *needle.as_bytes().last().unwrap_or(&b' ');
                if is_ident_byte(last) && end < tb.len() && is_ident_byte(tb[end]) {
                    continue;
                }
                let entry = origin[fi].unwrap_or(fi);
                let entry_name = qualified(ws, entry);
                let mut trace = vec![format!("scoring entry `{entry_name}`")];
                let mut chain = Vec::new();
                let mut cur = fi;
                while let Some(p) = prev[cur] {
                    chain.push(cur);
                    cur = p;
                }
                for &hop in chain.iter().rev() {
                    trace.push(format!("calls `{}`", qualified(ws, hop)));
                }
                trace.push(format!("`{}` {desc}", needle.trim()));
                findings.push(Finding {
                    rule: "INC012",
                    file: file.path.clone(),
                    line: line_at(&file.lines, body.start + at),
                    message: format!(
                        "`{}` in `{}` — {desc}; reachable from scoring entry `{entry_name}`",
                        needle.trim(),
                        qualified(ws, fi),
                    ),
                    trace,
                });
            }
        }
    }
}

fn qualified(ws: &Workspace<'_>, fi: usize) -> String {
    let node = &ws.fns[fi];
    let krate = &ws.files[node.file].crate_name;
    match &node.self_ty {
        Some(ty) => format!("{krate}::{ty}::{}", node.name),
        None => format!("{krate}::{}", node.name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(s: &str) -> (Vec<(String, bool)>, bool) {
        let (params, ret) = parse_sig(s);
        (params.into_iter().map(|p| (p.name, p.text)).collect(), ret)
    }

    #[test]
    fn parse_sig_names_params_and_flags_text_types() {
        let (params, ret) = sig("fn ingest(raw: &str, lineno: usize) -> Result<(), ParseError>");
        assert_eq!(
            params,
            vec![("raw".to_string(), true), ("lineno".to_string(), false)]
        );
        assert!(!ret, "Result<(), ParseError> carries no text");

        let (params, ret) = sig("fn read(buf: &[u8]) -> String");
        assert_eq!(params, vec![("buf".to_string(), true)]);
        assert!(ret, "String return carries text");
    }

    #[test]
    fn parse_sig_skips_receivers_and_underscore() {
        let (params, _) = sig("fn score(&mut self, _: usize, mut doc: String)");
        assert_eq!(params, vec![("doc".to_string(), true)]);
    }

    #[test]
    fn parse_sig_survives_generic_and_path_types() {
        let (params, ret) =
            sig("fn lookup(table: &BTreeMap<String, usize>, key: std::path::PathBuf) -> usize");
        assert_eq!(
            params,
            vec![("table".to_string(), true), ("key".to_string(), false)]
        );
        assert!(!ret);
        // No parameter list at all: a malformed signature parses empty.
        assert_eq!(sig("fn broken"), (vec![], false));
    }

    #[test]
    fn variant_of_wants_two_camel_case_segments() {
        let segs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            variant_of(&segs(&["ParseError", "BadRecord"])),
            Some(("ParseError".to_string(), "BadRecord".to_string()))
        );
        // Deeper paths use the last two segments.
        assert_eq!(
            variant_of(&segs(&["corpus", "ParseError", "BadRecord"])),
            Some(("ParseError".to_string(), "BadRecord".to_string()))
        );
        // ALL_CAPS consts and lowercase paths are not variants.
        assert_eq!(variant_of(&segs(&["SCOPE", "LEN"])), None);
        assert_eq!(variant_of(&segs(&["std", "mem"])), None);
        assert_eq!(variant_of(&segs(&["BadRecord"])), None);
    }

    #[test]
    fn plain_idents_are_lowercase_names_only() {
        assert!(is_plain_ident("payload"));
        assert!(is_plain_ident("_hidden"));
        assert!(!is_plain_ident("_"), "a bare wildcard binds nothing");
        assert!(!is_plain_ident("Err"));
        assert!(!is_plain_ident(""));
        assert!(!is_plain_ident("a.b"));
    }

    #[test]
    fn scrub_blanks_sanitizer_spans_only() {
        let s = scrub_sanitizers("error_body(redact(doc), doc)");
        assert!(!s.contains("redact(doc)"), "sanitizer span must blank: {s}");
        assert!(s.ends_with(", doc)"), "the raw second arg survives: {s}");
        // Name must be word-bounded and called: neither of these scrubs.
        assert_eq!(scrub_sanitizers("unredact(doc)"), "unredact(doc)");
        assert_eq!(scrub_sanitizers("redact + 1"), "redact + 1");
        // Nested parens inside the sanitizer call stay inside the blank.
        let s = scrub_sanitizers("fnv1a(text.as_bytes(), 0) ^ seed");
        assert_eq!(s, "                          ^ seed");
    }

    #[test]
    fn arg_taint_sees_variables_and_fields_through_the_scrub() {
        let mut tainted = BTreeMap::new();
        tainted.insert("doc".to_string(), "why".to_string());
        assert_eq!(arg_taint("&doc", &tainted), Some("why".to_string()));
        assert_eq!(arg_taint("redact(&doc)", &tainted), None);
        assert_eq!(arg_taint("document", &tainted), None, "word-bounded");
        assert!(arg_taint("req.body", &BTreeMap::new()).is_some_and(|r| r.contains(".body")));
    }

    #[test]
    fn clean_method_lookahead_requires_a_listed_call() {
        assert!(followed_by_clean_method(b"doc.len()", 3));
        assert!(followed_by_clean_method(b"doc .is_empty()", 3));
        assert!(!followed_by_clean_method(b"doc.to_string()", 3));
        assert!(!followed_by_clean_method(b"doc.len", 3), "field, not call");
        assert!(!followed_by_clean_method(b"doc", 3), "end of span");
    }
}
