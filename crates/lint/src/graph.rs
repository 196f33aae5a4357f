//! Pass 1b: the workspace graph. Takes the per-file item tables from
//! [`crate::items`] and produces an approximate call graph annotated
//! with lock sites — which functions acquire which lock entities, which
//! block, and where a blocking operation or second acquisition happens
//! while a guard is still live.
//!
//! The model is lexical, not type-checked. Lock entities get stable
//! string keys (`serve/BoundedQueue.state`, `core/map_indexed.failure`,
//! `pii/REGISTRY`); method calls resolve through `self`, through
//! `Type::name` paths, or — when a method name is defined by exactly one
//! workspace function and is not a common std name — by name. Guard
//! liveness follows Rust's drop rules approximately: a `let`-bound guard
//! lives to the end of its enclosing block or an explicit `drop()`, a
//! temporary to the end of its statement. The known false-negative
//! classes are listed in DESIGN.md §14.

use crate::items::{
    self, contains_word, is_ident_byte, line_starts, lock_kind_in, skip_ws, FileItems, LockKind,
    Span,
};
use crate::lexer::MaskedFile;
use std::collections::{BTreeMap, BTreeSet};

/// What an acquisition refers to, relative to the acquiring function.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Acq {
    /// A concrete workspace lock entity.
    Key(String),
    /// The function's n-th lock-typed parameter; substituted per call.
    Param(usize),
    /// A lock whose identity could not be resolved.
    Unknown,
}

/// One source file with its parsed items and line table.
pub struct FileGraph<'a> {
    pub path: String,
    pub crate_name: String,
    pub masked: &'a MaskedFile,
    pub items: FileItems,
    /// Byte offsets of line starts in the masked text.
    pub lines: Vec<usize>,
}

/// A function node: identity plus the lexical event stream of its body.
pub struct FnNode {
    pub file: usize,
    pub name: String,
    pub self_ty: Option<String>,
    pub line: usize,
    pub in_test: bool,
    pub body: Option<Span>,
    /// Signature mentions a guard type, so calling it acquires its lock.
    pub returns_guard: bool,
    /// Defined in the `checkpoint::atomic_io` funnel (all of it does
    /// file I/O) — the seed of the blocking fixpoint.
    pub blocking_direct: bool,
    /// Names of `&Mutex<_>` / `&RwLock<_>`-typed parameters, in order.
    pub lock_params: Vec<String>,
    /// Locals declared with a lock type in this body.
    pub local_locks: BTreeSet<String>,
    pub(crate) events: Vec<Event>,
    /// Resolved workspace callees (deduplicated, sorted).
    pub edges: Vec<usize>,
}

#[derive(Debug)]
pub(crate) enum Event {
    Open {
        off: usize,
    },
    Close,
    Semi {
        off: usize,
    },
    Let {
        var: Option<String>,
        off: usize,
    },
    Call(CallEvent),
    /// A macro invocation with parenthesized arguments (`format!(…)`,
    /// `println!(…)`); contents are still scanned for nested calls.
    Macro(MacroEvent),
    /// A qualified brace construction (`Enum::Variant { … }`); the brace
    /// itself still produces its own `Open`/`Close` events.
    Ctor(CtorEvent),
}

#[derive(Debug)]
pub(crate) struct CallEvent {
    pub(crate) off: usize,
    /// Path / receiver segments, e.g. `self.available.wait_timeout` →
    /// `["self", "available", "wait_timeout"]`.
    pub(crate) segs: Vec<String>,
    /// The final separator was `.` (method call) rather than `::`.
    pub(crate) dotted: bool,
    /// Receiver began mid-expression (`foo().bar(…)`): unresolvable.
    pub(crate) opaque_recv: bool,
    /// Trimmed top-level argument texts (capped).
    pub(crate) args: Vec<String>,
}

#[derive(Debug)]
pub(crate) struct MacroEvent {
    /// Offset of the opening `(`.
    pub(crate) off: usize,
    /// Macro name (last path segment): `format`, `println`, `writeln`…
    pub(crate) name: String,
}

#[derive(Debug)]
pub(crate) struct CtorEvent {
    /// Offset of the opening `{`.
    pub(crate) off: usize,
    /// Path segments, e.g. `["JsonlError", "Malformed"]`.
    pub(crate) segs: Vec<String>,
}

/// A two-lock observation: `second` acquired while `first` was live.
#[derive(Debug)]
pub struct PairSite {
    pub first: String,
    pub second: String,
    pub file: String,
    pub line: usize,
    /// Set when the second acquisition happens inside a callee.
    pub via: Option<String>,
}

/// A blocking operation observed while a guard was live.
#[derive(Debug)]
pub struct BlockSite {
    pub guard: String,
    pub what: String,
    pub file: String,
    pub line: usize,
}

/// The assembled workspace graph plus rule-ready observations.
pub struct Workspace<'a> {
    pub files: Vec<FileGraph<'a>>,
    pub fns: Vec<FnNode>,
    /// Transitive acquisitions per function (param-relative).
    pub acquires_t: Vec<BTreeSet<Acq>>,
    /// Whether each function may block, transitively.
    pub blocking_t: Vec<bool>,
    pub pairs: Vec<PairSite>,
    pub blocked: Vec<BlockSite>,
    /// Per function: `(event index, callee fn index)` for every call
    /// event that resolved to a workspace function — the taint pass
    /// walks these without re-running resolution.
    pub(crate) call_targets: Vec<Vec<(usize, usize)>>,
    /// Work units consumed building the graph (bytes + events).
    pub fuel: u64,
}

/// Method names too common to resolve by name alone: a std method on an
/// unrelated receiver must not alias a workspace function.
const COMMON_METHODS: &[&str] = &[
    "as_ref",
    "as_str",
    "clear",
    "clone",
    "collect",
    "contains",
    "drain",
    "extend",
    "fetch_add",
    "fetch_max",
    "flush",
    "get",
    "get_or_insert_with",
    "insert",
    "into",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "notify_all",
    "notify_one",
    "pop",
    "pop_front",
    "push",
    "push_back",
    "push_str",
    "read",
    "recv",
    "remove",
    "send",
    "spawn",
    "store",
    "take",
    "to_string",
    "wait",
    "write",
];

/// Body keywords that never start an expression chain.
const BODY_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "dyn", "else", "enum", "extern",
    "fn", "for", "if", "impl", "in", "loop", "match", "move", "mut", "pub", "ref", "return",
    "static", "struct", "trait", "type", "unsafe", "use", "where", "while",
];

/// `crates/<name>/src/...` → `<name>`; other layouts keep their first
/// path segment so keys stay stable.
fn crate_of(path: &str) -> String {
    let norm = path.replace('\\', "/");
    let mut parts = norm.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        (Some(first), _) => first.to_string(),
        _ => norm,
    }
}

/// Builds the workspace graph over `(path, masked)` pairs (sorted by
/// the caller for determinism).
pub fn build<'a>(sources: &[(String, &'a MaskedFile)]) -> Workspace<'a> {
    let mut fuel = 0u64;
    let mut files = Vec::with_capacity(sources.len());
    for (path, masked) in sources {
        fuel += masked.masked.len() as u64;
        files.push(FileGraph {
            path: path.clone(),
            crate_name: crate_of(path),
            items: items::parse(masked),
            lines: line_starts(masked.masked.as_bytes()),
            masked,
        });
    }

    // Function nodes with their event streams.
    let mut fns = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for item in &file.items.fns {
            let mut node = FnNode {
                file: fi,
                name: item.name.clone(),
                self_ty: item.self_ty.clone(),
                line: item.line,
                in_test: item.in_test,
                body: item.body,
                returns_guard: ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"]
                    .iter()
                    .any(|g| contains_word(&item.sig, g)),
                blocking_direct: file.path.ends_with("checkpoint/atomic_io.rs"),
                lock_params: lock_params_of(&item.sig),
                local_locks: BTreeSet::new(),
                events: Vec::new(),
                edges: Vec::new(),
            };
            if let Some(body) = item.body {
                let bytes = file.masked.masked.as_bytes();
                let (events, locals) = extract_events(bytes, body);
                fuel += (body.end - body.start) as u64 + events.len() as u64;
                node.events = events;
                node.local_locks = locals;
            }
            fns.push(node);
        }
    }

    let tables = Tables::build(&files, &fns);

    // B1: classify every call event once, and collect call edges.
    let mut classified: Vec<Vec<(usize, Classified)>> = Vec::with_capacity(fns.len());
    for (idx, node) in fns.iter().enumerate() {
        let mut list = Vec::new();
        for (ei, ev) in node.events.iter().enumerate() {
            if let Event::Call(call) = ev {
                list.push((ei, classify(call, idx, &fns, &files, &tables)));
            }
        }
        classified.push(list);
    }
    let mut call_targets: Vec<Vec<(usize, usize)>> = Vec::with_capacity(fns.len());
    for (idx, list) in classified.iter().enumerate() {
        let mut edges: Vec<usize> = list
            .iter()
            .filter_map(|(_, c)| match c {
                Classified::CallEdge { callee, .. } => Some(*callee),
                _ => None,
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        fns[idx].edges = edges;
        call_targets.push(
            list.iter()
                .filter_map(|(ei, c)| match c {
                    Classified::CallEdge { callee, .. } => Some((*ei, *callee)),
                    _ => None,
                })
                .collect(),
        );
    }

    // B2: transitive acquisitions to fixpoint, with param substitution.
    let mut acquires_t: Vec<BTreeSet<Acq>> = vec![BTreeSet::new(); fns.len()];
    for (idx, list) in classified.iter().enumerate() {
        for (_, c) in list {
            if let Classified::Acquire { acq, .. } = c {
                acquires_t[idx].insert(acq.clone());
            }
        }
    }
    loop {
        fuel += fns.len() as u64;
        let mut changed = false;
        for (idx, list) in classified.iter().enumerate() {
            let mut add = Vec::new();
            for (_, c) in list {
                let Classified::CallEdge { callee, args } = c else {
                    continue;
                };
                for acq in &acquires_t[*callee] {
                    let resolved = match acq {
                        Acq::Key(k) => Acq::Key(k.clone()),
                        Acq::Param(i) => match args.get(*i) {
                            Some(arg) => arg_to_acq(arg, idx, &fns, &files, &tables),
                            None => continue,
                        },
                        Acq::Unknown => continue,
                    };
                    if !acquires_t[idx].contains(&resolved) {
                        add.push(resolved);
                    }
                }
            }
            for a in add {
                changed |= acquires_t[idx].insert(a);
            }
        }
        if !changed {
            break;
        }
    }

    // B3: transitive blocking to fixpoint.
    let mut blocking_t: Vec<bool> = fns.iter().map(|f| f.blocking_direct).collect();
    for (idx, list) in classified.iter().enumerate() {
        if list
            .iter()
            .any(|(_, c)| matches!(c, Classified::Blocking { .. } | Classified::CondvarWait))
        {
            blocking_t[idx] = true;
        }
    }
    loop {
        fuel += fns.len() as u64;
        let mut changed = false;
        for (idx, list) in classified.iter().enumerate() {
            if blocking_t[idx] {
                continue;
            }
            let blocks = list.iter().any(
                |(_, c)| matches!(c, Classified::CallEdge { callee, .. } if blocking_t[*callee]),
            );
            if blocks {
                blocking_t[idx] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // B4: replay each body with guard liveness, emitting observations.
    let mut pairs = Vec::new();
    let mut blocked = Vec::new();
    for (idx, node) in fns.iter().enumerate() {
        if node.in_test {
            continue;
        }
        fuel += node.events.len() as u64;
        replay(
            idx,
            node,
            &classified[idx],
            &fns,
            &files,
            &tables,
            &acquires_t,
            &blocking_t,
            &mut pairs,
            &mut blocked,
        );
    }

    Workspace {
        files,
        fns,
        acquires_t,
        blocking_t,
        pairs,
        blocked,
        call_targets,
        fuel,
    }
}

/// Global symbol tables for resolution.
struct Tables {
    /// `(crate, owner, field)` → kind, for struct-field locks.
    fields: BTreeMap<(String, String, String), LockKind>,
    /// `(crate, name)` → kind, for `static` locks.
    statics: BTreeMap<(String, String), LockKind>,
    /// Method/function name → non-test node indices.
    by_name: BTreeMap<String, Vec<usize>>,
    /// `(self_ty, name)` → non-test node indices.
    by_qual: BTreeMap<(String, String), Vec<usize>>,
}

impl Tables {
    fn build(files: &[FileGraph<'_>], fns: &[FnNode]) -> Tables {
        let mut t = Tables {
            fields: BTreeMap::new(),
            statics: BTreeMap::new(),
            by_name: BTreeMap::new(),
            by_qual: BTreeMap::new(),
        };
        for file in files {
            for lock in &file.items.locks {
                match &lock.owner {
                    Some(owner) => {
                        t.fields.insert(
                            (file.crate_name.clone(), owner.clone(), lock.name.clone()),
                            lock.kind,
                        );
                    }
                    None => {
                        t.statics
                            .insert((file.crate_name.clone(), lock.name.clone()), lock.kind);
                    }
                }
            }
        }
        for (idx, f) in fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            t.by_name.entry(f.name.clone()).or_default().push(idx);
            if let Some(ty) = &f.self_ty {
                t.by_qual
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .push(idx);
            }
        }
        t
    }
}

/// Lock-typed parameter names from a normalized signature.
fn lock_params_of(sig: &str) -> Vec<String> {
    let Some(open) = sig.find('(') else {
        return Vec::new();
    };
    // Matching close of the parameter list (the return type may itself
    // contain parens, e.g. `-> Result<(), E>`).
    let mut depth = 0i32;
    let mut close = open;
    for (i, b) in sig.bytes().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    close = i;
                    break;
                }
            }
            _ => {}
        }
    }
    if close <= open {
        return Vec::new();
    }
    let mut out = Vec::new();
    for param in items::split_top_level(&sig[open + 1..close], ',') {
        let Some((name, ty)) = param.split_once(':') else {
            continue;
        };
        let name = name.trim().trim_start_matches("mut ").trim();
        if !name.is_empty()
            && name.bytes().all(is_ident_byte)
            && matches!(lock_kind_in(ty), Some(LockKind::Mutex | LockKind::RwLock))
        {
            out.push(name.to_string());
        }
    }
    out
}

/// What a call event means for the concurrency model.
#[derive(Debug)]
enum Classified {
    /// Acquires a lock (directly or via a guard-returning helper).
    Acquire { acq: Acq, via: Option<String> },
    /// A `Condvar` wait: blocking, but exempt for the guard it consumes.
    CondvarWait,
    /// A std blocking operation (I/O, sleep, channel recv, join).
    Blocking { what: String },
    /// A resolved workspace call.
    CallEdge { callee: usize, args: Vec<String> },
    /// `drop(x)` — ends the named guard.
    DropVar { var: String },
    /// Unresolvable or irrelevant.
    Noise,
}

fn classify(
    call: &CallEvent,
    fn_idx: usize,
    fns: &[FnNode],
    files: &[FileGraph<'_>],
    tables: &Tables,
) -> Classified {
    let name = call.segs.last().map(String::as_str).unwrap_or_default();

    if call.segs.len() == 1 && name == "drop" && call.args.len() == 1 {
        let var = call.args[0].trim();
        if var.bytes().all(is_ident_byte) && !var.is_empty() {
            return Classified::DropVar {
                var: var.to_string(),
            };
        }
    }

    if call.dotted && matches!(name, "wait" | "wait_timeout" | "wait_while") {
        return Classified::CondvarWait;
    }

    if let Some(what) = std_blocking(call, name) {
        return Classified::Blocking { what };
    }

    // Direct acquisitions: `.lock()` / `.read()` / `.write()` with no
    // arguments on a resolvable lock entity.
    if call.dotted && call.args.is_empty() && matches!(name, "lock" | "read" | "write") {
        let recv = &call.segs[..call.segs.len() - 1];
        // `self.lock()` where the impl defines `lock` is a helper call,
        // handled by the resolution path below.
        let is_self_helper = recv == ["self"]
            && fns[fn_idx]
                .self_ty
                .as_ref()
                .is_some_and(|ty| tables.by_qual.contains_key(&(ty.clone(), name.to_string())));
        if !is_self_helper && !call.opaque_recv {
            match resolve_entity(recv, fn_idx, fns, files, tables) {
                Some((acq, kind)) => {
                    let ok = match name {
                        "lock" => kind != Some(LockKind::RwLock) && kind != Some(LockKind::Condvar),
                        _ => kind == Some(LockKind::RwLock) || kind.is_none(),
                    };
                    if ok {
                        return Classified::Acquire { acq, via: None };
                    }
                }
                None if name == "lock" => {
                    // `.lock()` is distinctive enough to track as an
                    // unknown lock even when the receiver is opaque.
                    return Classified::Acquire {
                        acq: Acq::Unknown,
                        via: None,
                    };
                }
                None => {}
            }
            if name == "lock" {
                return Classified::Acquire {
                    acq: Acq::Unknown,
                    via: None,
                };
            }
            return Classified::Noise;
        }
    }

    match resolve_callee(call, fn_idx, fns, files, tables) {
        Some(callee) => Classified::CallEdge {
            callee,
            args: call.args.clone(),
        },
        None => Classified::Noise,
    }
}

/// Std blocking-operation patterns (beyond the atomic_io funnel seed).
fn std_blocking(call: &CallEvent, name: &str) -> Option<String> {
    let segs = &call.segs;
    let penult = segs
        .len()
        .checked_sub(2)
        .map(|i| segs[i].as_str())
        .unwrap_or_default();
    let desc = || {
        if call.dotted {
            format!(".{name}()")
        } else {
            format!("{}()", segs.join("::"))
        }
    };
    if name == "sleep" && penult == "thread" {
        return Some("thread::sleep()".to_string());
    }
    if penult == "TcpStream" && matches!(name, "connect" | "connect_timeout") {
        return Some(format!("TcpStream::{name}()"));
    }
    if penult == "File" && matches!(name, "open" | "create") {
        return Some(format!("File::{name}()"));
    }
    if penult == "fs"
        && matches!(
            name,
            "read" | "read_to_string" | "write" | "create_dir_all" | "remove_file" | "rename"
        )
    {
        return Some(format!("fs::{name}()"));
    }
    if matches!(
        name,
        "read_to_string" | "read_to_end" | "read_line" | "read_exact" | "recv" | "recv_timeout"
    ) {
        return Some(desc());
    }
    if call.dotted && name == "join" && call.args.is_empty() {
        return Some(".join()".to_string());
    }
    if call.dotted && name == "read" && call.args.first().is_some_and(|a| a.starts_with("&mut")) {
        return Some(".read(&mut …)".to_string());
    }
    None
}

/// Resolves a receiver/path chain to a lock entity in the context of
/// `fn_idx`. Returns the acquisition plus the entity kind when known.
fn resolve_entity(
    recv: &[String],
    fn_idx: usize,
    fns: &[FnNode],
    files: &[FileGraph<'_>],
    tables: &Tables,
) -> Option<(Acq, Option<LockKind>)> {
    let node = &fns[fn_idx];
    let crate_name = &files[node.file].crate_name;
    let last = recv.last()?;

    // `self.field` (possibly `self.inner.field` — only the last segment
    // is matched against the impl type's fields).
    if recv.first().map(String::as_str) == Some("self") && recv.len() >= 2 {
        if let Some(ty) = &node.self_ty {
            if let Some(kind) = tables
                .fields
                .get(&(crate_name.clone(), ty.clone(), last.clone()))
            {
                return Some((Acq::Key(format!("{crate_name}/{ty}.{last}")), Some(*kind)));
            }
        }
        return None;
    }

    if recv.len() == 1 {
        if node.local_locks.contains(last) {
            return Some((Acq::Key(format!("{crate_name}/{}.{last}", node.name)), None));
        }
        if let Some(i) = node.lock_params.iter().position(|p| p == last) {
            return Some((Acq::Param(i), None));
        }
        if let Some(kind) = tables.statics.get(&(crate_name.clone(), last.clone())) {
            return Some((Acq::Key(format!("{crate_name}/{last}")), Some(*kind)));
        }
    }
    None
}

/// Maps a call argument back to an acquisition in the caller's context:
/// `&failure` → the caller's `failure` entity, a lock param name → the
/// caller's own param index.
fn arg_to_acq(
    arg: &str,
    fn_idx: usize,
    fns: &[FnNode],
    files: &[FileGraph<'_>],
    tables: &Tables,
) -> Acq {
    let trimmed = arg
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ");
    let trimmed = trimmed.trim();
    if trimmed.is_empty() || !trimmed.bytes().all(|b| is_ident_byte(b) || b == b'.') {
        return Acq::Unknown;
    }
    let segs: Vec<String> = trimmed.split('.').map(str::to_string).collect();
    match resolve_entity(&segs, fn_idx, fns, files, tables) {
        Some((acq, _)) => acq,
        None => Acq::Unknown,
    }
}

/// Resolves a call to a workspace function node.
fn resolve_callee(
    call: &CallEvent,
    fn_idx: usize,
    fns: &[FnNode],
    files: &[FileGraph<'_>],
    tables: &Tables,
) -> Option<usize> {
    let node = &fns[fn_idx];
    let name = call.segs.last()?;

    let unique_by_name = |name: &str| -> Option<usize> {
        if COMMON_METHODS.contains(&name) {
            return None;
        }
        match tables.by_name.get(name).map(Vec::as_slice) {
            Some([only]) => Some(*only),
            _ => None,
        }
    };

    if call.dotted {
        let recv = &call.segs[..call.segs.len() - 1];
        if !call.opaque_recv && recv == ["self"] {
            if let Some(ty) = &node.self_ty {
                if let Some(candidates) = tables.by_qual.get(&(ty.clone(), name.clone())) {
                    // Prefer a method in the same crate (same-name impls
                    // across crates are distinct types in practice).
                    return candidates
                        .iter()
                        .find(|&&c| files[fns[c].file].crate_name == files[node.file].crate_name)
                        .or_else(|| candidates.first())
                        .copied();
                }
            }
        }
        return unique_by_name(name);
    }

    if call.segs.len() >= 2 {
        // `Type::name` through any impl'd type.
        let qual = &call.segs[call.segs.len() - 2];
        if let Some(candidates) = tables.by_qual.get(&(qual.clone(), name.clone())) {
            return candidates.first().copied();
        }
        // `module::name` — fall back to a unique workspace name.
        return unique_by_name(name);
    }

    // Bare call: same-file free function first, then same-crate unique.
    let same_file: Vec<usize> = tables
        .by_name
        .get(name)
        .map(|v| {
            v.iter()
                .copied()
                .filter(|&c| fns[c].file == node.file && fns[c].self_ty.is_none())
                .collect()
        })
        .unwrap_or_default();
    if let [only] = same_file.as_slice() {
        return Some(*only);
    }
    let same_crate: Vec<usize> = tables
        .by_name
        .get(name)
        .map(|v| {
            v.iter()
                .copied()
                .filter(|&c| {
                    files[fns[c].file].crate_name == files[node.file].crate_name
                        && fns[c].self_ty.is_none()
                })
                .collect()
        })
        .unwrap_or_default();
    match same_crate.as_slice() {
        [only] => Some(*only),
        _ => None,
    }
}

/// A live guard during replay.
struct Guard {
    var: Option<String>,
    key: Acq,
    depth: usize,
}

#[allow(clippy::too_many_arguments)]
fn replay(
    fn_idx: usize,
    node: &FnNode,
    classified: &[(usize, Classified)],
    fns: &[FnNode],
    files: &[FileGraph<'_>],
    tables: &Tables,
    acquires_t: &[BTreeSet<Acq>],
    blocking_t: &[bool],
    pairs: &mut Vec<PairSite>,
    blocked: &mut Vec<BlockSite>,
) {
    let file = &files[node.file];
    let by_event: BTreeMap<usize, &Classified> =
        classified.iter().map(|(ei, c)| (*ei, c)).collect();

    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut active_let: Option<(Option<String>, usize)> = None;

    let line_of = |off: usize| items::line_at(&file.lines, off);
    let guard_desc = |g: &Guard| match &g.key {
        Acq::Key(k) => k.clone(),
        Acq::Param(i) => format!("<param {i}>"),
        Acq::Unknown => match &g.var {
            Some(v) => format!("`{v}`"),
            None => "<anonymous>".to_string(),
        },
    };

    for (ei, ev) in node.events.iter().enumerate() {
        match ev {
            Event::Open { .. } => {
                depth += 1;
                active_let = None;
            }
            Event::Close => {
                guards.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
            }
            Event::Semi { .. } => {
                guards.retain(|g| !(g.var.is_none() && g.depth == depth));
                if active_let.as_ref().is_some_and(|(_, d)| *d == depth) {
                    active_let = None;
                }
            }
            Event::Let { var, .. } => {
                active_let = Some((var.clone(), depth));
            }
            Event::Call(call) => {
                let Some(c) = by_event.get(&ei) else { continue };
                match c {
                    Classified::DropVar { var } => {
                        guards.retain(|g| g.var.as_deref() != Some(var.as_str()));
                    }
                    Classified::Acquire { acq, via } => {
                        record_acquire(
                            acq.clone(),
                            via.clone(),
                            call.off,
                            &mut guards,
                            &mut active_let,
                            depth,
                            pairs,
                            &file.path,
                            line_of(call.off),
                        );
                    }
                    Classified::CondvarWait => {
                        // Exempt every guard named in the wait's arguments
                        // (the condvar atomically releases that guard).
                        let held: Vec<String> = guards
                            .iter()
                            .filter(|g| {
                                !g.var
                                    .as_deref()
                                    .is_some_and(|v| call.args.iter().any(|a| contains_word(a, v)))
                            })
                            .map(guard_desc)
                            .collect();
                        for guard in held {
                            blocked.push(BlockSite {
                                guard,
                                what: format!(
                                    ".{}()",
                                    call.segs.last().map(String::as_str).unwrap_or("wait")
                                ),
                                file: file.path.clone(),
                                line: line_of(call.off),
                            });
                        }
                    }
                    Classified::Blocking { what } => {
                        for g in &guards {
                            blocked.push(BlockSite {
                                guard: guard_desc(g),
                                what: what.clone(),
                                file: file.path.clone(),
                                line: line_of(call.off),
                            });
                        }
                    }
                    Classified::CallEdge { callee, args } => {
                        let callee_name = fns[*callee].name.clone();
                        // Blocking callee while any guard is live.
                        if blocking_t[*callee] && !guards.is_empty() {
                            for g in &guards {
                                blocked.push(BlockSite {
                                    guard: guard_desc(g),
                                    what: format!("call to `{callee_name}` (which blocks)"),
                                    file: file.path.clone(),
                                    line: line_of(call.off),
                                });
                            }
                        }
                        // Locks the callee may take, mapped through args.
                        let callee_acqs: Vec<Acq> = acquires_t[*callee]
                            .iter()
                            .map(|a| match a {
                                Acq::Key(k) => Acq::Key(k.clone()),
                                Acq::Param(i) => match args.get(*i) {
                                    Some(arg) => arg_to_acq(arg, fn_idx, fns, files, tables),
                                    None => Acq::Unknown,
                                },
                                Acq::Unknown => Acq::Unknown,
                            })
                            .collect();
                        for acq in &callee_acqs {
                            if let Acq::Key(second) = acq {
                                for g in &guards {
                                    if let Acq::Key(first) = &g.key {
                                        if first != second {
                                            pairs.push(PairSite {
                                                first: first.clone(),
                                                second: second.clone(),
                                                file: file.path.clone(),
                                                line: line_of(call.off),
                                                via: Some(callee_name.clone()),
                                            });
                                        }
                                    }
                                }
                            }
                        }
                        // A guard-returning helper is an acquisition at
                        // the call site.
                        if fns[*callee].returns_guard {
                            let acq = match callee_acqs.as_slice() {
                                [one] => one.clone(),
                                _ => Acq::Unknown,
                            };
                            record_acquire(
                                acq,
                                Some(callee_name),
                                call.off,
                                &mut guards,
                                &mut active_let,
                                depth,
                                pairs,
                                &file.path,
                                line_of(call.off),
                            );
                        }
                    }
                    Classified::Noise => {}
                }
            }
            // Taint-pass events: no guard-liveness meaning.
            Event::Macro(_) | Event::Ctor(_) => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn record_acquire(
    acq: Acq,
    via: Option<String>,
    _off: usize,
    guards: &mut Vec<Guard>,
    active_let: &mut Option<(Option<String>, usize)>,
    depth: usize,
    pairs: &mut Vec<PairSite>,
    path: &str,
    line: usize,
) {
    if let Acq::Key(second) = &acq {
        for g in guards.iter() {
            if let Acq::Key(first) = &g.key {
                if first != second {
                    pairs.push(PairSite {
                        first: first.clone(),
                        second: second.clone(),
                        file: path.to_string(),
                        line,
                        via: via.clone(),
                    });
                }
            }
        }
    }
    let var = active_let.as_ref().and_then(|(v, _)| v.clone());
    guards.push(Guard {
        var,
        key: acq,
        depth,
    });
}

/// Extracts the lexical event stream of one function body, plus the
/// names of locals declared with a lock type.
fn extract_events(bytes: &[u8], body: Span) -> (Vec<Event>, BTreeSet<String>) {
    let mut events = Vec::new();
    let mut locals = BTreeSet::new();
    let mut i = body.start;
    let end = body.end;

    while i < end {
        let b = bytes[i];
        match b {
            b'{' => {
                events.push(Event::Open { off: i });
                i += 1;
            }
            b'}' => {
                events.push(Event::Close);
                i += 1;
            }
            b';' => {
                events.push(Event::Semi { off: i });
                i += 1;
            }
            b'.' if i + 1 < end && is_ident_start(bytes[i + 1]) => {
                // Orphan dot: method call on a mid-expression receiver.
                let (segs, dotted, after) = read_chain(bytes, i + 1, end);
                let mut segs = segs;
                let _ = dotted;
                segs.insert(0, "<expr>".to_string());
                i = finish_chain(bytes, after, end, segs, true, true, &mut events);
            }
            _ if is_ident_start(b) => {
                let word_end = ident_end(bytes, i, end);
                let word = std::str::from_utf8(&bytes[i..word_end]).unwrap_or_default();
                if word == "let" {
                    let (var, has_lock_ty, after) = read_let_pattern(bytes, word_end, end);
                    if has_lock_ty {
                        if let Some(v) = &var {
                            locals.insert(v.clone());
                        }
                    }
                    events.push(Event::Let { var, off: i });
                    i = after;
                } else if BODY_KEYWORDS.contains(&word) {
                    i = word_end;
                } else {
                    let (mut segs, dotted, after) = read_chain(bytes, i, end);
                    if segs.is_empty() {
                        segs.push(word.to_string());
                    }
                    i = finish_chain(bytes, after, end, segs, dotted, false, &mut events);
                }
            }
            _ if b.is_ascii_digit() => {
                // Number literal: skip digits/underscores/float dots so
                // `1.max(x)` parses as an orphan-dot method, not `1.` junk.
                let mut j = i;
                while j < end && (is_ident_byte(bytes[j])) {
                    j += 1;
                }
                i = j;
            }
            _ => i += 1,
        }
    }
    (events, locals)
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn ident_end(bytes: &[u8], from: usize, end: usize) -> usize {
    let mut j = from;
    while j < end && is_ident_byte(bytes[j]) {
        j += 1;
    }
    j
}

/// Reads `ident(::ident|.ident)*` starting at an ident; returns the
/// segments, whether the final separator was a dot, and the resume
/// offset (after the last ident).
fn read_chain(bytes: &[u8], from: usize, end: usize) -> (Vec<String>, bool, usize) {
    let mut segs = Vec::new();
    let mut dotted = false;
    let mut i = from;
    loop {
        let word_end = ident_end(bytes, i, end);
        if word_end == i {
            break;
        }
        segs.push(String::from_utf8_lossy(&bytes[i..word_end]).into_owned());
        let after = skip_ws(bytes, word_end, end);
        if after + 1 < end && bytes[after] == b':' && bytes[after + 1] == b':' {
            let next = skip_ws(bytes, after + 2, end);
            if next < end && is_ident_start(bytes[next]) {
                dotted = false;
                i = next;
                continue;
            }
            return (segs, dotted, word_end);
        }
        if after < end && bytes[after] == b'.' {
            let next = skip_ws(bytes, after + 1, end);
            if next < end && is_ident_start(bytes[next]) {
                dotted = true;
                i = next;
                continue;
            }
            return (segs, dotted, word_end);
        }
        return (segs, dotted, word_end);
    }
    (segs, dotted, i)
}

/// After a chain: a `(` makes it a call (args captured, scanning resumes
/// *inside* the args so nested calls are seen); a `!` makes it a macro
/// event (contents still scanned); a `{` after a qualified
/// uppercase-ending path makes it a constructor event (the brace still
/// emits `Open`). Returns the resume offset.
fn finish_chain(
    bytes: &[u8],
    after: usize,
    end: usize,
    segs: Vec<String>,
    dotted: bool,
    opaque_recv: bool,
    events: &mut Vec<Event>,
) -> usize {
    let j = skip_ws(bytes, after, end);
    if j < end && bytes[j] == b'!' {
        // Macro invocation: record it when parenthesized (`format!(…)`),
        // then keep scanning its arguments either way. `!=` is the
        // operator, not a macro bang.
        let k = skip_ws(bytes, j + 1, end);
        if k < end && bytes[k] == b'(' && bytes.get(j + 1) != Some(&b'=') {
            if let Some(name) = segs.last() {
                events.push(Event::Macro(MacroEvent {
                    off: k,
                    name: name.clone(),
                }));
            }
        }
        return j + 1;
    }
    if j < end
        && bytes[j] == b'{'
        && segs.len() >= 2
        && !dotted
        && !opaque_recv
        && segs
            .last()
            .is_some_and(|s| s.chars().next().is_some_and(char::is_uppercase))
    {
        // `Enum::Variant { … }` (or a qualified struct literal): the
        // taint pass checks whether the fields feed an error variant.
        // Resume *at* the brace so it still opens a scope event.
        events.push(Event::Ctor(CtorEvent { off: j, segs }));
        return j;
    }
    if j < end && bytes[j] == b'(' {
        let close = matching_paren(bytes, j, end);
        let args_text = std::str::from_utf8(&bytes[j + 1..close]).unwrap_or_default();
        let args: Vec<String> = if args_text.trim().is_empty() {
            Vec::new()
        } else {
            items::split_top_level(args_text, ',')
                .into_iter()
                .map(|a| {
                    let collapsed: String = a.split_whitespace().collect::<Vec<_>>().join(" ");
                    collapsed.chars().take(96).collect()
                })
                .collect()
        };
        events.push(Event::Call(CallEvent {
            off: j,
            segs,
            dotted,
            opaque_recv,
            args,
        }));
        return j + 1;
    }
    after
}

/// Offset of the `)` matching the `(` at `open` (or `end`).
pub(crate) fn matching_paren(bytes: &[u8], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < end {
        match bytes[j] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    end.saturating_sub(1)
}

/// Parses a `let` pattern up to its `=` (or `;`): the bound variable is
/// the first lower-case/underscore ident that is not `mut`/`ref`, and
/// the pattern text is checked for a lock type annotation.
fn read_let_pattern(bytes: &[u8], from: usize, end: usize) -> (Option<String>, bool, usize) {
    let mut j = from;
    let mut stop = end;
    let mut angle = 0i32;
    while j < end {
        match bytes[j] {
            b'=' if angle == 0 => {
                // `=` of the binding; `==`/`=>` cannot appear in patterns.
                stop = j;
                break;
            }
            b';' if angle == 0 => {
                stop = j;
                break;
            }
            b'<' => angle += 1,
            b'>' => angle -= 1,
            _ => {}
        }
        j += 1;
    }
    let pattern = std::str::from_utf8(&bytes[from..stop]).unwrap_or_default();
    let mut var = None;
    for token in pattern.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        if token.is_empty() || token == "mut" || token == "ref" || token == "_" {
            continue;
        }
        let first = token.chars().next().unwrap_or('A');
        if first.is_lowercase() || first == '_' {
            var = Some(token.to_string());
            break;
        }
    }
    let has_lock_ty = lock_kind_in(pattern).is_some();
    (var, has_lock_ty, stop)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_of(sources: &[(&str, &str)]) -> (Vec<(String, MaskedFile)>, ()) {
        (
            sources
                .iter()
                .map(|(p, s)| (p.to_string(), MaskedFile::new(s)))
                .collect(),
            (),
        )
    }

    fn build_ws(owned: &[(String, MaskedFile)]) -> Workspace<'_> {
        let refs: Vec<(String, &MaskedFile)> = owned.iter().map(|(p, m)| (p.clone(), m)).collect();
        build(&refs)
    }

    #[test]
    fn guard_helpers_resolve_to_their_lock() {
        let src = "\
use std::sync::{Condvar, Mutex, MutexGuard};
pub struct Q { state: Mutex<u32>, available: Condvar }
impl Q {
    fn lock(&self) -> MutexGuard<'_, u32> {
        match self.state.lock() { Ok(g) => g, Err(p) => p.into_inner() }
    }
    pub fn close(&self) {
        self.lock();
        self.available.notify_all();
    }
}
";
        let (owned, ()) = ws_of(&[("crates/serve/src/q.rs", src)]);
        let ws = build_ws(&owned);
        let lock_idx = ws.fns.iter().position(|f| f.name == "lock").unwrap();
        assert!(ws.fns[lock_idx].returns_guard);
        assert!(ws.acquires_t[lock_idx].contains(&Acq::Key("serve/Q.state".into())));
        let close_idx = ws.fns.iter().position(|f| f.name == "close").unwrap();
        assert!(
            ws.acquires_t[close_idx].contains(&Acq::Key("serve/Q.state".into())),
            "helper acquisition propagates: {:?}",
            ws.acquires_t[close_idx]
        );
        assert!(ws.pairs.is_empty());
        assert!(ws.blocked.is_empty());
    }

    #[test]
    fn param_locks_substitute_at_call_sites() {
        let src = "\
use std::sync::{Mutex, MutexGuard};
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() { Ok(g) => g, Err(p) => p.into_inner() }
}
fn run() {
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let mut guard = lock_unpoisoned(&failure);
    *guard = None;
}
";
        let (owned, ()) = ws_of(&[("crates/core/src/p.rs", src)]);
        let ws = build_ws(&owned);
        let helper = ws
            .fns
            .iter()
            .position(|f| f.name == "lock_unpoisoned")
            .unwrap();
        assert_eq!(
            ws.acquires_t[helper].iter().collect::<Vec<_>>(),
            vec![&Acq::Param(0)]
        );
        let run = ws.fns.iter().position(|f| f.name == "run").unwrap();
        assert!(
            ws.acquires_t[run].contains(&Acq::Key("core/run.failure".into())),
            "{:?}",
            ws.acquires_t[run]
        );
    }

    #[test]
    fn blocking_under_guard_is_observed_and_drop_ends_it() {
        let src = "\
use std::sync::Mutex;
pub struct S { m: Mutex<u32> }
impl S {
    pub fn bad(&self) {
        let g = self.m.lock();
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(g);
    }
    pub fn fine(&self) {
        let g = self.m.lock();
        drop(g);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
";
        let (owned, ()) = ws_of(&[("crates/core/src/s.rs", src)]);
        let ws = build_ws(&owned);
        assert_eq!(ws.blocked.len(), 1, "{:?}", ws.blocked);
        assert_eq!(ws.blocked[0].guard, "core/S.m");
        assert!(ws.blocked[0].what.contains("sleep"));
    }

    #[test]
    fn condvar_wait_releases_its_guard() {
        let src = "\
use std::sync::{Condvar, Mutex};
pub struct Q { state: Mutex<u32>, available: Condvar }
impl Q {
    pub fn wait_for_work(&self) {
        let mut state = self.state.lock().ok().take();
        state = match self.available.wait_timeout(state, d) { Ok(g) => g, Err(p) => p };
        let _ = state;
    }
}
";
        let (owned, ()) = ws_of(&[("crates/serve/src/q.rs", src)]);
        let ws = build_ws(&owned);
        assert!(ws.blocked.is_empty(), "{:?}", ws.blocked);
    }

    #[test]
    fn inconsistent_order_yields_both_pairs() {
        let src = "\
use std::sync::Mutex;
pub struct P { a: Mutex<u32>, b: Mutex<u32> }
impl P {
    pub fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        let _ = (ga, gb);
    }
    pub fn ba(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
        let _ = (ga, gb);
    }
}
";
        let (owned, ()) = ws_of(&[("crates/core/src/locks.rs", src)]);
        let ws = build_ws(&owned);
        let dirs: BTreeSet<(String, String)> = ws
            .pairs
            .iter()
            .map(|p| (p.first.clone(), p.second.clone()))
            .collect();
        assert!(
            dirs.contains(&("core/P.a".into(), "core/P.b".into())),
            "{dirs:?}"
        );
        assert!(
            dirs.contains(&("core/P.b".into(), "core/P.a".into())),
            "{dirs:?}"
        );
    }

    #[test]
    fn statement_scoped_temporaries_do_not_outlive_their_statement() {
        let src = "\
use std::sync::Mutex;
pub struct S { m: Mutex<u32> }
impl S {
    pub fn tick(&self) {
        self.m.lock();
        std::thread::sleep(d);
    }
}
";
        let (owned, ()) = ws_of(&[("crates/core/src/s.rs", src)]);
        let ws = build_ws(&owned);
        assert!(ws.blocked.is_empty(), "{:?}", ws.blocked);
    }

    #[test]
    fn test_functions_are_ignored() {
        let src = "\
use std::sync::Mutex;
pub struct S { m: Mutex<u32> }
#[cfg(test)]
mod tests {
    fn t(s: &super::S) {
        let g = s.m.lock();
        std::thread::sleep(d);
        drop(g);
    }
}
";
        let (owned, ()) = ws_of(&[("crates/core/src/s.rs", src)]);
        let ws = build_ws(&owned);
        assert!(ws.blocked.is_empty(), "{:?}", ws.blocked);
    }
}
