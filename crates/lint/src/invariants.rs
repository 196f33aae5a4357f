//! Pass 4: invariant enforcement (INC014, INC016).
//!
//! Two rules that turn the repo's load-bearing dynamic contracts —
//! crash-recovery coverage and bounded wire arithmetic — into static
//! checks over the item graph from pass 1:
//!
//! * **INC014 checkpoint-unswept** — every `atomic_io` write/append
//!   acquisition outside tests (in `core`, `serve`, `stream`) must be
//!   reachable, through resolved call edges, from a function that
//!   consults a failpoint registry (`.check(…)` / `.trip(…)`). A write
//!   no sweep can reach is crash-recovery coverage that silently shrank.
//! * **INC016 unchecked-wire-arithmetic** — interval-lite dataflow over
//!   the two wire decoders (`corpus/src/jsonl.rs`, `stream/src/event.rs`):
//!   a value originating from a wire decode (`from_le_bytes`, `.parse(`,
//!   `serde_json::from_str(…)`, …) must not flow into bare `+`/`*`
//!   arithmetic or a narrowing `as` cast until it is bounded by a
//!   comparison / `.min(…)` / `.get(…)`, or the arithmetic goes through
//!   `checked_*`/`saturating_*`/`wrapping_*`. Lengths of in-memory
//!   collections (`.len()`) are already bounded and never become tainted.
//!
//! Both honor `lint:allow` pragmas and test regions, and burn fuel
//! proportional to events + bytes scanned so the engine's deterministic
//! fuel budget keeps holding.

use crate::graph::{CallEvent, Event, Workspace};
use crate::items::{self, contains_word};
use crate::rules::Finding;
use std::collections::BTreeSet;

/// Runs INC014 and INC016 over the workspace graph. Returns the findings
/// (unsorted — the engine sorts globally) and the fuel consumed.
pub fn check(ws: &Workspace) -> (Vec<Finding>, u64) {
    let mut findings = Vec::new();
    let mut fuel = 0u64;
    inc014(ws, &mut findings, &mut fuel);
    inc016(ws, &mut findings, &mut fuel);
    (findings, fuel)
}

fn qualified(ws: &Workspace, fn_idx: usize) -> String {
    let node = &ws.fns[fn_idx];
    match &node.self_ty {
        Some(ty) => format!("{ty}::{}", node.name),
        None => node.name.clone(),
    }
}

// ------------------------------------------------------------------
// INC014 — checkpoint-unswept
// ------------------------------------------------------------------

/// Crates whose persisted artifacts the failpoint sweeps must cover.
const INC014_CRATES: &[&str] = &["core", "serve", "stream"];

/// Last-segment names that acquire the atomic-write funnel.
const FUNNEL_WRITES: &[&str] = &[
    "write_atomic",
    "write_hashed",
    "write_framed",
    "set_aside",
    "discard_aside",
];

fn funnel_callee(call: &CallEvent) -> Option<String> {
    let last = call.segs.last()?;
    if FUNNEL_WRITES.contains(&last.as_str()) {
        return Some(call.segs.join("::"));
    }
    let n = call.segs.len();
    if n >= 2 && call.segs[n - 2] == "AppendLog" && last == "open" {
        return Some("AppendLog::open".to_string());
    }
    None
}

/// Whether this function body consults a failpoint registry directly.
fn is_checker(node: &crate::graph::FnNode) -> bool {
    node.events.iter().any(|ev| match ev {
        Event::Call(call) => {
            call.dotted
                && matches!(
                    call.segs.last().map(String::as_str),
                    Some("check") | Some("trip")
                )
        }
        _ => false,
    })
}

fn inc014(ws: &Workspace, findings: &mut Vec<Finding>, fuel: &mut u64) {
    // Forward reachability from every checker over resolved call edges:
    // anything a failpoint-consulting function can reach is swept.
    let mut swept = vec![false; ws.fns.len()];
    let mut queue: Vec<usize> = Vec::new();
    for (i, node) in ws.fns.iter().enumerate() {
        *fuel += node.events.len() as u64;
        if is_checker(node) {
            swept[i] = true;
            queue.push(i);
        }
    }
    while let Some(i) = queue.pop() {
        *fuel += 1;
        for &callee in &ws.fns[i].edges {
            if !swept[callee] {
                swept[callee] = true;
                queue.push(callee);
            }
        }
    }

    for (i, node) in ws.fns.iter().enumerate() {
        let file = &ws.files[node.file];
        if node.in_test
            || !INC014_CRATES.contains(&file.crate_name.as_str())
            || file.path.ends_with("atomic_io.rs")
        {
            continue;
        }
        for ev in &node.events {
            let Event::Call(call) = ev else { continue };
            let Some(callee) = funnel_callee(call) else {
                continue;
            };
            if swept[i] {
                continue;
            }
            let line = items::line_at(&file.lines, call.off);
            if file.masked.in_test_region(line) || file.masked.is_suppressed("INC014", line) {
                continue;
            }
            findings.push(Finding {
                rule: "INC014",
                file: file.path.clone(),
                line,
                message: format!(
                    "unswept checkpoint write: `{callee}` in `{}` is not reachable from any \
                     failpoint `check`/`trip` site, so the kill sweep cannot cover it",
                    qualified(ws, i)
                ),
                trace: Vec::new(),
            });
        }
    }
}

// ------------------------------------------------------------------
// INC016 — unchecked-wire-arithmetic
// ------------------------------------------------------------------

/// The wire decoders under interval discipline.
const INC016_FILES: &[&str] = &["corpus/src/jsonl.rs", "stream/src/event.rs"];

/// Needles whose results are attacker-controlled wire values.
const WIRE_SOURCES: &[&str] = &[
    "from_le_bytes",
    "from_be_bytes",
    "from_ne_bytes",
    ".parse(",
    "parse::<",
    "serde_json::from_str(",
];

/// Cast targets narrow enough that an unbounded wire value truncates.
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// The ident token ending immediately before byte `pos` (skipping back
/// over whitespace), or `None` if the preceding token is not an ident.
fn ident_before(text: &str, pos: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut j = pos;
    while j > 0 && bytes[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && items::is_ident_byte(bytes[j - 1]) {
        j -= 1;
    }
    (j < end).then(|| &text[j..end])
}

/// The ident token starting at or after byte `pos` (skipping whitespace).
fn ident_after(text: &str, pos: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut j = pos;
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    let start = j;
    while j < bytes.len() && items::is_ident_byte(bytes[j]) {
        j += 1;
    }
    (j > start).then(|| &text[start..j])
}

/// Splits a body into statement-ish segments at `;`, `{` and `}` so a
/// multi-line binding is analyzed as one unit. Returns `(offset, text)`
/// pairs with offsets absolute in the masked file.
fn segments(bytes: &[u8], start: usize, end: usize) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut seg_start = start;
    let mut i = start;
    while i < end {
        if matches!(bytes[i], b';' | b'{' | b'}') {
            if i > seg_start {
                if let Ok(text) = std::str::from_utf8(&bytes[seg_start..i]) {
                    out.push((seg_start, text.to_string()));
                }
            }
            seg_start = i + 1;
        }
        i += 1;
    }
    if end > seg_start {
        if let Ok(text) = std::str::from_utf8(&bytes[seg_start..end]) {
            out.push((seg_start, text.to_string()));
        }
    }
    out
}

/// The ident bound by a `let` segment, if any: first ident after `let`
/// that is not `mut`, with the rest of the segment as the initializer.
fn let_binding(seg: &str) -> Option<(String, &str)> {
    let at = seg.find("let ")?;
    let left_ok = at == 0 || !items::is_ident_byte(seg.as_bytes()[at - 1]);
    if !left_ok {
        return None;
    }
    let mut rest = seg[at + 4..].trim_start();
    if let Some(after) = rest.strip_prefix("mut ") {
        rest = after.trim_start();
    }
    let name_len = rest
        .bytes()
        .take_while(|&b| items::is_ident_byte(b))
        .count();
    if name_len == 0 {
        return None;
    }
    let name = rest[..name_len].to_string();
    let init = rest[name_len..].split_once('=').map(|(_, rhs)| rhs)?;
    Some((name, init))
}

/// Whether an initializer expression carries wire taint: it mentions a
/// source needle or a tainted ident, and is not a `.len()` measurement
/// (collection lengths are bounded by the buffer already in memory).
fn init_is_tainted(init: &str, tainted: &BTreeSet<String>) -> bool {
    if init.contains(".len()") {
        return false;
    }
    WIRE_SOURCES.iter().any(|s| init.contains(s)) || tainted.iter().any(|t| contains_word(init, t))
}

/// Reports unchecked `+`/`*` arithmetic and narrowing casts on tainted
/// idents inside one segment. Returns the flagged `(offset, detail)`s.
fn segment_flags(seg_off: usize, seg: &str, tainted: &BTreeSet<String>) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    if seg.contains("checked_") || seg.contains("saturating_") || seg.contains("wrapping_") {
        return out;
    }
    let bytes = seg.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'+' | b'*' => {
                // Binary arithmetic only: both neighbors must be value
                // tokens (`a + b`), which filters derefs (`*x`), unary
                // plus in formats, and `+=`' handled below.
                let next_eq = bytes.get(i + 1) == Some(&b'=');
                let left = ident_before(seg, i);
                if next_eq {
                    // `x += wire` or `wire += n`: flag when either side
                    // carries taint.
                    let rhs = &seg[i + 2..];
                    let lhs_tainted = left.is_some_and(|l| tainted.contains(l));
                    let rhs_tainted = tainted.iter().any(|t| contains_word(rhs, t));
                    if lhs_tainted || rhs_tainted {
                        out.push((
                            seg_off + i,
                            format!("compound `{}=` on a wire-derived value", b as char),
                        ));
                    }
                    continue;
                }
                let right = ident_after(seg, i + 1);
                let (Some(left), Some(right)) = (left, right) else {
                    continue;
                };
                if tainted.contains(left) || tainted.contains(right) {
                    out.push((
                        seg_off + i,
                        format!("`{left} {} {right}` on a wire-derived value", b as char),
                    ));
                }
            }
            _ => {}
        }
    }
    // Narrowing casts: `<tainted> as u32` and friends.
    let mut from = 0;
    while let Some(rel) = seg[from..].find(" as ") {
        let at = from + rel;
        from = at + 4;
        let Some(src) = ident_before(seg, at) else {
            continue;
        };
        let Some(dst) = ident_after(seg, at + 4) else {
            continue;
        };
        if tainted.contains(src) && NARROW_CASTS.contains(&dst) {
            out.push((
                seg_off + at,
                format!("narrowing cast `{src} as {dst}` on a wire-derived value"),
            ));
        }
    }
    out
}

fn inc016(ws: &Workspace, findings: &mut Vec<Finding>, fuel: &mut u64) {
    for node in &ws.fns {
        if node.in_test {
            continue;
        }
        let file = &ws.files[node.file];
        if !INC016_FILES.iter().any(|f| file.path.ends_with(f)) {
            continue;
        }
        let Some(body) = node.body else { continue };
        let bytes = file.masked.masked.as_bytes();
        *fuel += (body.end.saturating_sub(body.start)) as u64;

        let mut tainted: BTreeSet<String> = BTreeSet::new();
        for (seg_off, seg) in segments(bytes, body.start, body.end) {
            // Bound guards first: a comparison, `.min(…)` or `.get(…)`
            // mentioning a tainted ident discharges its taint for the
            // rest of the function.
            let guarded = [" < ", " <= ", " > ", " >= ", ".min(", ".get("]
                .iter()
                .any(|g| seg.contains(g));
            if guarded {
                tainted.retain(|t| !contains_word(&seg, t));
            }

            for (off, detail) in segment_flags(seg_off, &seg, &tainted) {
                let line = items::line_at(&file.lines, off);
                if file.masked.in_test_region(line) || file.masked.is_suppressed("INC016", line) {
                    continue;
                }
                findings.push(Finding {
                    rule: "INC016",
                    file: file.path.clone(),
                    line,
                    message: format!(
                        "unchecked wire arithmetic: {detail}; bound it first or use a \
                         `checked_*` operation"
                    ),
                    trace: Vec::new(),
                });
            }

            // Taint propagation after flagging, so `let y = wire + 1;`
            // both fires and taints `y`.
            if let Some((name, init)) = let_binding(&seg) {
                if init_is_tainted(init, &tainted) {
                    tainted.insert(name);
                }
            } else if let Some(eq) = seg.find(" = ") {
                // Plain reassignment: `x = tainted_expr` propagates.
                if let Some(lhs) = ident_before(&seg, eq) {
                    let rhs = &seg[eq + 3..];
                    if init_is_tainted(rhs, &tainted) {
                        tainted.insert(lhs.to_string());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;
    use crate::lexer::MaskedFile;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let masked: Vec<(String, MaskedFile)> = files
            .iter()
            .map(|(path, src)| (path.to_string(), MaskedFile::new(src)))
            .collect();
        let refs: Vec<(String, &MaskedFile)> = masked.iter().map(|(p, m)| (p.clone(), m)).collect();
        let ws = graph::build(&refs);
        check(&ws).0
    }

    #[test]
    fn inc014_fires_on_unreachable_write_and_spares_swept_one() {
        let src = "\
pub struct S { fp: Reg }
impl S {
    pub fn sweep(&self) {
        self.fp.check(\"site\");
        self.save();
    }
    fn save(&self) {
        atomic_io::write_hashed(&self.p(), b\"x\");
    }
    pub fn orphan(&self) {
        atomic_io::write_hashed(&self.p(), b\"y\");
    }
    fn p(&self) -> PathBuf { PathBuf::new() }
}
";
        let findings = run_on(&[("crates/core/src/demo.rs", src)]);
        let inc014: Vec<_> = findings.iter().filter(|f| f.rule == "INC014").collect();
        assert_eq!(inc014.len(), 1, "{findings:?}");
        assert_eq!(inc014[0].line, 11);
        assert!(inc014[0].message.contains("S::orphan"));
    }

    #[test]
    fn inc014_ignores_out_of_scope_crates_and_tests() {
        let src = "\
pub fn orphan() {
    atomic_io::write_hashed(&p(), b\"y\");
}
";
        assert!(run_on(&[("crates/ml/src/demo.rs", src)])
            .iter()
            .all(|f| f.rule != "INC014"));
        let test_src = "\
#[cfg(test)]
mod tests {
    fn orphan() {
        atomic_io::write_hashed(&p(), b\"y\");
    }
}
";
        assert!(run_on(&[("crates/core/src/demo.rs", test_src)])
            .iter()
            .all(|f| f.rule != "INC014"));
    }

    #[test]
    fn inc014_flags_an_unswept_set_aside_and_discard() {
        let src = "\
pub fn rewrite(path: &Path, fp: &Reg) {
    fp.check(\"site\");
    atomic_io::set_aside(path);
}
pub fn orphan(path: &Path) {
    atomic_io::set_aside(path);
    atomic_io::discard_aside(path);
}
";
        let findings = run_on(&[("crates/stream/src/demo.rs", src)]);
        let lines: Vec<usize> = findings
            .iter()
            .filter(|f| f.rule == "INC014")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, [6, 7], "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("discard_aside")));
    }

    #[test]
    fn inc014_counts_append_log_acquisition() {
        let src = "\
pub fn open_log(path: &Path) -> Result<AppendLog, E> {
    let log = atomic_io::AppendLog::open(path)?;
    Ok(log)
}
";
        let findings = run_on(&[("crates/serve/src/demo.rs", src)]);
        assert!(
            findings.iter().any(|f| f.rule == "INC014"
                && f.line == 2
                && f.message.contains("AppendLog::open")),
            "{findings:?}"
        );
    }

    #[test]
    fn inc016_flags_arithmetic_and_narrowing_until_bounded() {
        let src = "\
pub fn decode(bytes: &[u8]) -> u32 {
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let end = len + 4;
    let short = len as u16;
    if len < 1024 {
        let fine = len + 1;
        return fine;
    }
    end + u32::from(short)
}
";
        let findings = run_on(&[("crates/corpus/src/jsonl.rs", src)]);
        let inc016: Vec<_> = findings.iter().filter(|f| f.rule == "INC016").collect();
        let lines: Vec<usize> = inc016.iter().map(|f| f.line).collect();
        // `len + 4` and `len as u16` fire; after the `<` bound, `len + 1`
        // is clean. `end` is tainted transitively, so `end + …` fires.
        assert_eq!(lines, vec![3, 4, 9], "{findings:?}");
    }

    #[test]
    fn inc016_accepts_checked_math_and_len_measurements() {
        let src = "\
pub fn decode(bytes: &[u8], table: &[u8]) -> Option<u32> {
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let end = len.checked_add(4)?;
    let n = table.len() as u32;
    let total = n + 7;
    Some(end.min(total))
}
";
        assert!(run_on(&[("crates/corpus/src/jsonl.rs", src)])
            .iter()
            .all(|f| f.rule != "INC016"));
    }

    #[test]
    fn inc016_only_watches_the_wire_decoders() {
        let src = "\
pub fn decode(bytes: &[u8]) -> u32 {
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    len + 4
}
";
        assert!(run_on(&[("crates/corpus/src/scan.rs", src)])
            .iter()
            .all(|f| f.rule != "INC016"));
    }
}
