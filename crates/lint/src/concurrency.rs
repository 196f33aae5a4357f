//! Pass 2: the graph-aware concurrency rules.
//!
//! | rule | invariant |
//! |------|-----------|
//! | INC008 | workspace locks are acquired in one consistent order |
//! | INC009 | no blocking operation while a lock guard is live |
//! | INC010 | serve request handlers only grow buffers under a bound |
//!
//! All three consume the [`crate::graph::Workspace`] built in pass 1.
//! INC008 looks for a pair of concrete lock keys acquired in both orders
//! anywhere in the workspace (the classic deadlock shape); unknown lock
//! identities are excluded — an unresolvable receiver must not fabricate
//! an ordering conflict. INC009 reports every blocking operation (I/O,
//! sleep, channel/condvar waits, joins — directly or through a callee)
//! replayed under a live guard; a `Condvar` wait is exempt for the guard
//! it atomically releases, and unknown guards *do* count because the
//! blocking itself is certain. INC010 walks the serve crate's handler
//! entry points (`route`, `read_request`) through resolved call edges and
//! flags `.push(`/`.extend(`/`.push_str(`/`.push_back(` inside loops with
//! no visible bound: no `with_capacity` pre-allocation of the receiver,
//! and no capacity word (`max_batch`, `queue_depth`, `capacity`) or
//! ALL-CAPS constant inside the loop.

use crate::graph::Workspace;
use crate::items::{contains_word, is_ident_byte, line_at};
use crate::lexer::matching_brace;
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Handler entry points for INC010, by function name within the serve
/// crate.
const HANDLER_ENTRIES: &[&str] = &["route", "read_request"];

/// Buffer-growth calls that INC010 looks for inside loops.
const GROWTH_NEEDLES: &[&str] = &[".push(", ".extend(", ".push_str(", ".push_back("];

/// Words that signal an explicit capacity bound inside a loop.
const BOUND_WORDS: &[&str] = &["max_batch", "queue_depth", "capacity"];

/// Runs INC008–INC010 over the workspace graph.
pub fn check(ws: &Workspace<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    inc008_lock_order(ws, &mut findings);
    inc009_blocking_under_lock(ws, &mut findings);
    inc010_unbounded_growth(ws, &mut findings);

    // A site can be observed through several paths (e.g. one blocking
    // callee under two aliased guards); report each site once per rule
    // and message.
    let mut seen = BTreeSet::new();
    findings.retain(|f| seen.insert((f.rule, f.file.clone(), f.line, f.message.clone())));

    // Respect per-line suppressions, matching the pattern rules.
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
    findings
}

/// INC008: the same two concrete locks acquired in both orders.
fn inc008_lock_order(ws: &Workspace<'_>, findings: &mut Vec<Finding>) {
    // Unordered pair → the sites for each direction.
    let mut by_pair: BTreeMap<(String, String), [Vec<usize>; 2]> = BTreeMap::new();
    for (i, p) in ws.pairs.iter().enumerate() {
        let (key, dir) = if p.first <= p.second {
            ((p.first.clone(), p.second.clone()), 0)
        } else {
            ((p.second.clone(), p.first.clone()), 1)
        };
        by_pair.entry(key).or_default()[dir].push(i);
    }
    for ((a, b), dirs) in &by_pair {
        let [fwd, rev] = dirs;
        if fwd.is_empty() || rev.is_empty() {
            continue;
        }
        for (&site, opposite) in fwd
            .iter()
            .map(|s| (s, &rev[0]))
            .chain(rev.iter().map(|s| (s, &fwd[0])))
        {
            let p = &ws.pairs[site];
            let o = &ws.pairs[*opposite];
            let via = p
                .via
                .as_ref()
                .map(|f| format!(" (via `{f}`)"))
                .unwrap_or_default();
            findings.push(Finding {
                rule: "INC008",
                file: p.file.clone(),
                line: p.line,
                message: format!(
                    "lock `{}` acquired while `{}` is held{via}, but the opposite \
                     order is taken at {}:{} — inconsistent ordering between \
                     `{a}` and `{b}` can deadlock",
                    p.second, p.first, o.file, o.line
                ),
                trace: Vec::new(),
            });
        }
    }
}

/// INC009: a blocking operation replayed while a guard was live.
fn inc009_blocking_under_lock(ws: &Workspace<'_>, findings: &mut Vec<Finding>) {
    for site in &ws.blocked {
        findings.push(Finding {
            rule: "INC009",
            file: site.file.clone(),
            line: site.line,
            message: format!(
                "blocking {} while guard of `{}` is live — release the lock \
                 before blocking (drop the guard or narrow its scope)",
                site.what, site.guard
            ),
            trace: Vec::new(),
        });
    }
}

/// INC010: unbounded buffer growth in a loop on the serve handler path.
fn inc010_unbounded_growth(ws: &Workspace<'_>, findings: &mut Vec<Finding>) {
    // Reachable set: BFS from the handler entries through resolved call
    // edges, staying inside the serve crate.
    let mut reach: BTreeSet<usize> = BTreeSet::new();
    let mut queue: VecDeque<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.in_test
                && ws.files[f.file].crate_name == "serve"
                && HANDLER_ENTRIES.contains(&f.name.as_str())
        })
        .map(|(i, _)| i)
        .collect();
    reach.extend(queue.iter().copied());
    while let Some(idx) = queue.pop_front() {
        for &callee in &ws.fns[idx].edges {
            if ws.files[ws.fns[callee].file].crate_name == "serve" && reach.insert(callee) {
                queue.push_back(callee);
            }
        }
    }

    for &idx in &reach {
        let node = &ws.fns[idx];
        let Some(body) = node.body else { continue };
        let file = &ws.files[node.file];
        let text = &file.masked.masked;
        let bytes = text.as_bytes();

        for loop_span in loop_spans(bytes, body.start, body.end) {
            let loop_text = &text[loop_span.0..loop_span.1];
            if BOUND_WORDS.iter().any(|w| contains_word(loop_text, w))
                || has_all_caps_ident(loop_text)
            {
                continue;
            }
            for needle in GROWTH_NEEDLES {
                let mut from = 0;
                while let Some(rel) = loop_text[from..].find(needle) {
                    let at = loop_span.0 + from + rel;
                    from += rel + 1;
                    let recv = receiver_ident(bytes, at);
                    if !recv.is_empty()
                        && preallocated_with_capacity(&text[body.start..loop_span.0], &recv)
                    {
                        continue;
                    }
                    let call = &needle[1..needle.len() - 1];
                    findings.push(Finding {
                        rule: "INC010",
                        file: file.path.clone(),
                        line: line_at(&file.lines, at),
                        message: format!(
                            "`{call}()` grows a buffer in a loop on the request-handler \
                             path (`{}`) with no visible bound — pre-allocate with \
                             `with_capacity` or check against a `max_batch`/\
                             `queue_depth` limit",
                            node.name
                        ),
                        trace: Vec::new(),
                    });
                }
            }
        }
    }
}

/// Spans of `for`/`while`/`loop` bodies (keyword to matching close brace)
/// inside `[from, to)`. Nested loops yield nested spans, so a needle in
/// an inner loop is also seen by the outer — dedup handles the repeats.
fn loop_spans(bytes: &[u8], from: usize, to: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = from;
    while i < to {
        if !is_ident_byte(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < to && is_ident_byte(bytes[i]) {
            i += 1;
        }
        if start > from && is_ident_byte(bytes[start - 1]) {
            continue;
        }
        let word = &bytes[start..i];
        if !(word == b"for" || word == b"while" || word == b"loop") {
            continue;
        }
        // The loop header cannot contain a bare `{`, so the first open
        // brace after the keyword starts the body.
        let mut j = i;
        while j < to && bytes[j] != b'{' {
            j += 1;
        }
        if j >= to {
            break;
        }
        match matching_brace(bytes, j) {
            Some(close) => spans.push((start, (close + 1).min(to))),
            None => break,
        }
    }
    spans
}

/// The identifier immediately left of a `.push(`-style needle at `at`.
fn receiver_ident(bytes: &[u8], at: usize) -> String {
    let mut start = at;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    String::from_utf8_lossy(&bytes[start..at]).into_owned()
}

/// Whether `before` (the body text preceding the loop) declares `recv`
/// in a `let` statement that pre-allocates with `with_capacity`.
fn preallocated_with_capacity(before: &str, recv: &str) -> bool {
    before.split(';').any(|stmt| {
        contains_word(stmt, "let") && contains_word(stmt, recv) && stmt.contains("with_capacity")
    })
}

/// A word-bounded ALL-CAPS identifier (≥2 chars, at least one letter):
/// the shape of a `const` bound like `MAX_HEAD_BYTES`.
fn has_all_caps_ident(text: &str) -> bool {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident_byte(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let word = &bytes[start..i];
        if word.len() >= 2
            && word.iter().any(|b| b.is_ascii_uppercase())
            && word
                .iter()
                .all(|&b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;
    use crate::lexer::MaskedFile;

    fn run(sources: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, MaskedFile)> = sources
            .iter()
            .map(|(p, s)| (p.to_string(), MaskedFile::new(s)))
            .collect();
        let refs: Vec<(String, &MaskedFile)> = owned.iter().map(|(p, m)| (p.clone(), m)).collect();
        let ws = graph::build(&refs);
        check(&ws)
    }

    #[test]
    fn inc008_fires_on_inconsistent_order_only() {
        let src = "\
use std::sync::Mutex;
pub struct P { a: Mutex<u32>, b: Mutex<u32> }
impl P {
    pub fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); let _ = (ga, gb); }
    pub fn ba(&self) { let gb = self.b.lock(); let ga = self.a.lock(); let _ = (ga, gb); }
}
";
        let f = run(&[("crates/core/src/locks.rs", src)]);
        let inc008: Vec<_> = f.iter().filter(|f| f.rule == "INC008").collect();
        assert_eq!(inc008.len(), 2, "{f:?}");
        assert!(inc008[0].message.contains("deadlock"));

        // Consistent order in two places: no finding.
        let consistent = "\
use std::sync::Mutex;
pub struct P { a: Mutex<u32>, b: Mutex<u32> }
impl P {
    pub fn x(&self) { let ga = self.a.lock(); let gb = self.b.lock(); let _ = (ga, gb); }
    pub fn y(&self) { let ga = self.a.lock(); let gb = self.b.lock(); let _ = (ga, gb); }
}
";
        assert!(run(&[("crates/core/src/locks.rs", consistent)]).is_empty());
    }

    #[test]
    fn inc009_fires_direct_and_transitive() {
        let src = "\
use std::sync::Mutex;
pub struct S { m: Mutex<u32> }
impl S {
    pub fn direct(&self) {
        let g = self.m.lock();
        std::thread::sleep(d);
        drop(g);
    }
    pub fn transitive(&self) {
        let g = self.m.lock();
        self.slow();
        drop(g);
    }
    fn slow(&self) { std::thread::sleep(d); }
}
";
        let f = run(&[("crates/core/src/s.rs", src)]);
        let inc009: Vec<_> = f.iter().filter(|f| f.rule == "INC009").collect();
        assert_eq!(inc009.len(), 2, "{f:?}");
        assert!(inc009.iter().any(|f| f.message.contains("`slow`")));
    }

    #[test]
    fn inc009_suppression_silences_the_site() {
        let src = "\
use std::sync::Mutex;
pub struct S { m: Mutex<u32> }
impl S {
    pub fn direct(&self) {
        let g = self.m.lock();
        std::thread::sleep(d); // incite-lint: allow(INC009)
        drop(g);
    }
}
";
        assert!(run(&[("crates/core/src/s.rs", src)]).is_empty());
    }

    #[test]
    fn inc010_fires_only_on_unbounded_handler_loops() {
        let src = "\
pub fn route(texts: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for t in texts {
        out.push(t.clone());
    }
    out
}
pub fn bounded(texts: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(texts.len());
    for t in texts {
        out.push(t.clone());
    }
    out
}
pub fn capped(texts: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for t in texts {
        if out.len() >= MAX_DOCS { break; }
        out.push(t.clone());
    }
    out
}
";
        let f = run(&[("crates/serve/src/handler.rs", src)]);
        let inc010: Vec<_> = f.iter().filter(|f| f.rule == "INC010").collect();
        assert_eq!(inc010.len(), 1, "{f:?}");
        assert_eq!(inc010[0].line, 4);
        assert!(inc010[0].message.contains("`route`"));
    }

    #[test]
    fn inc010_follows_call_edges_but_not_other_crates() {
        let serve = "\
pub fn route(texts: &[String]) -> Vec<String> {
    ingest(texts)
}
fn ingest(texts: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for t in texts {
        out.push(t.clone());
    }
    out
}
";
        // The same shape outside a handler path is not flagged.
        let core = "\
pub fn accumulate(texts: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for t in texts {
        out.push(t.clone());
    }
    out
}
";
        let f = run(&[
            ("crates/core/src/acc.rs", core),
            ("crates/serve/src/handler.rs", serve),
        ]);
        let inc010: Vec<_> = f.iter().filter(|f| f.rule == "INC010").collect();
        assert_eq!(inc010.len(), 1, "{f:?}");
        assert_eq!(inc010[0].file, "crates/serve/src/handler.rs");
        assert!(inc010[0].message.contains("`ingest`"));
    }
}
