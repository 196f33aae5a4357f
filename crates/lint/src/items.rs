//! Pass 1 of the workspace analyzer: a lightweight recursive parser
//! over the masked token stream that extracts `fn` / `impl` / `mod` /
//! `use` items, lock declarations (struct fields, statics, and — via
//! [`crate::graph`] — locals typed `Mutex` / `RwLock` / `Condvar`),
//! and per-function body spans.
//!
//! The parser runs on [`crate::lexer::MaskedFile`] output, so string
//! and comment contents can never spoof items, and byte offsets map to
//! real source lines. It is deliberately approximate: function bodies
//! are opaque leaves here (nested `fn` items and closures belong to the
//! enclosing function), `macro_rules!` bodies are skipped entirely, and
//! trait method signatures without bodies are recorded with
//! `body: None`. The approximation classes are documented in
//! DESIGN.md §14.

use crate::lexer::{matching_brace, MaskedFile};

/// A half-open byte span `[start, end)` into the masked text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

/// Which synchronization primitive a declaration names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockKind {
    Mutex,
    RwLock,
    Condvar,
}

/// A lock-typed declaration: a struct field (`owner = Some(type)`) or a
/// `static` (`owner = None`).
#[derive(Debug)]
pub struct LockDecl {
    pub kind: LockKind,
    pub owner: Option<String>,
    pub name: String,
    pub line: usize,
}

/// One `fn` item (free function, inherent/trait method).
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// `impl`/`trait` self type, e.g. `BoundedQueue` for its methods.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Signature text after the name: generics, params, return, where.
    pub sig: String,
    /// Body span including the outer braces; `None` for `fn ...;`.
    pub body: Option<Span>,
    /// Whether the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl FnItem {
    /// `Type::name` for methods, plain `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A `use` declaration (path text with whitespace collapsed).
#[derive(Debug)]
pub struct UseItem {
    pub path: String,
    pub line: usize,
}

/// One variant of an `enum` item.
#[derive(Debug)]
pub struct VariantItem {
    pub name: String,
    /// Whether the payload (tuple or named fields) can carry text:
    /// `String`, `str`, `Vec<String>`, …
    pub carries_text: bool,
}

/// An `enum` item with its variants — the taint pass uses these to spot
/// error variants constructed from unredacted document text (INC013).
#[derive(Debug)]
pub struct EnumItem {
    pub name: String,
    pub line: usize,
    pub variants: Vec<VariantItem>,
}

/// Everything pass 1 extracts from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    pub locks: Vec<LockDecl>,
    pub uses: Vec<UseItem>,
    pub enums: Vec<EnumItem>,
}

/// Parses the item structure of a masked file.
pub fn parse(file: &MaskedFile) -> FileItems {
    let mut out = FileItems::default();
    let bytes = file.masked.as_bytes();
    let lines = line_starts(bytes);
    let mut p = Parser {
        bytes,
        lines: &lines,
        file,
        out: &mut out,
    };
    p.scan(0, bytes.len(), None);
    out
}

/// Byte offsets where each line starts; index = line - 1.
pub(crate) fn line_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// 1-based line containing byte offset `at`, via the line-start table.
pub(crate) fn line_at(lines: &[usize], at: usize) -> usize {
    match lines.binary_search(&at) {
        Ok(i) => i + 1,
        Err(i) => i, // i >= 1 because lines[0] == 0
    }
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// First offset at or after `i` (and before `end`) that is not ASCII
/// whitespace.
pub(crate) fn skip_ws(bytes: &[u8], mut i: usize, end: usize) -> usize {
    while i < end && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

struct Parser<'a> {
    bytes: &'a [u8],
    lines: &'a [usize],
    file: &'a MaskedFile,
    out: &'a mut FileItems,
}

impl Parser<'_> {
    /// Scans `[from, to)` for items; `self_ty` is the enclosing
    /// `impl`/`trait` type, if any.
    fn scan(&mut self, from: usize, to: usize, self_ty: Option<&str>) {
        let mut i = from;
        while i < to {
            let b = self.bytes[i];
            if !is_ident_byte(b) {
                i += 1;
                continue;
            }
            let start = i;
            while i < to && is_ident_byte(self.bytes[i]) {
                i += 1;
            }
            // Word-bounded: a `#` before would mean a raw identifier, but
            // the lexer masks those away entirely.
            if start > 0 && is_ident_byte(self.bytes[start - 1]) {
                continue;
            }
            let word = &self.bytes[start..i];
            match word {
                b"fn" => i = self.parse_fn(start, i, to, self_ty),
                b"mod" => i = self.parse_mod(i, to),
                b"impl" | b"trait" => i = self.parse_impl_like(word == b"impl", i, to),
                b"struct" => i = self.parse_struct(i, to),
                b"enum" => i = self.parse_enum(i, to),
                b"static" => i = self.parse_static(i, to),
                b"use" => i = self.parse_use(start, i, to),
                b"macro_rules" => i = self.skip_braced_body(i, to),
                _ => {}
            }
        }
    }

    fn read_ident(&self, i: usize, to: usize) -> Option<(String, usize)> {
        let i = skip_ws(self.bytes, i, to);
        if i >= to || !is_ident_byte(self.bytes[i]) || self.bytes[i].is_ascii_digit() {
            return None;
        }
        let mut j = i;
        while j < to && is_ident_byte(self.bytes[j]) {
            j += 1;
        }
        Some((String::from_utf8_lossy(&self.bytes[i..j]).into_owned(), j))
    }

    /// Advances past a balanced `<...>` group if one starts at `i`.
    fn skip_generics(&self, i: usize, to: usize) -> usize {
        let i = skip_ws(self.bytes, i, to);
        if i >= to || self.bytes[i] != b'<' {
            return i;
        }
        let mut depth = 0i32;
        let mut j = i;
        while j < to {
            match self.bytes[j] {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                // `->` inside generic defaults (fn pointers) — the `>` of
                // the arrow must not close the group.
                b'-' if self.bytes.get(j + 1) == Some(&b'>') => j += 1,
                _ => {}
            }
            j += 1;
        }
        to
    }

    /// Skips forward past the matching close of the next `{`; if a `;`
    /// appears first the item is body-less. Returns the resume offset.
    fn skip_braced_body(&self, mut i: usize, to: usize) -> usize {
        while i < to {
            match self.bytes[i] {
                b'{' => {
                    return match matching_brace(self.bytes, i) {
                        Some(close) => (close + 1).min(to),
                        None => to,
                    }
                }
                b';' => return i + 1,
                _ => i += 1,
            }
        }
        to
    }

    /// `kw_start` is the offset of `fn`, `i` just past it. Returns the
    /// resume offset (past the body or the `;`).
    fn parse_fn(&mut self, kw_start: usize, i: usize, to: usize, self_ty: Option<&str>) -> usize {
        let Some((name, after_name)) = self.read_ident(i, to) else {
            // `fn(` type position, or malformed — not an item.
            return i;
        };
        let after_generics = self.skip_generics(after_name, to);
        let params_open = skip_ws(self.bytes, after_generics, to);
        if params_open >= to || self.bytes[params_open] != b'(' {
            return after_name;
        }
        // Balanced parens for the parameter list.
        let mut depth = 0i32;
        let mut j = params_open;
        while j < to {
            match self.bytes[j] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= to {
            return to;
        }
        // Return type / where clause run to the body `{` or a `;`.
        let mut k = j + 1;
        while k < to && self.bytes[k] != b'{' && self.bytes[k] != b';' {
            k += 1;
        }
        let (body, resume) = if k < to && self.bytes[k] == b'{' {
            match matching_brace(self.bytes, k) {
                Some(close) => (
                    Some(Span {
                        start: k,
                        end: (close + 1).min(to),
                    }),
                    (close + 1).min(to),
                ),
                None => (None, to),
            }
        } else {
            (None, (k + 1).min(to))
        };
        let line = line_at(self.lines, kw_start);
        self.out.fns.push(FnItem {
            name,
            self_ty: self_ty.map(str::to_string),
            line,
            sig: String::from_utf8_lossy(&self.bytes[after_name..k])
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" "),
            body,
            in_test: self.file.in_test_region(line),
        });
        resume
    }

    fn parse_mod(&mut self, i: usize, to: usize) -> usize {
        let Some((_, after_name)) = self.read_ident(i, to) else {
            return i;
        };
        let j = skip_ws(self.bytes, after_name, to);
        if j < to && self.bytes[j] == b'{' {
            let close = matching_brace(self.bytes, j).unwrap_or(to);
            // Inline modules reset the impl context.
            self.scan(j + 1, close.min(to), None);
            (close + 1).min(to)
        } else {
            // `mod name;` — nothing to do.
            (j + 1).min(to)
        }
    }

    fn parse_impl_like(&mut self, is_impl: bool, i: usize, to: usize) -> usize {
        let after_generics = self.skip_generics(i, to);
        // Header text up to the body `{` (no braces can appear in it).
        let mut j = after_generics;
        while j < to && self.bytes[j] != b'{' && self.bytes[j] != b';' {
            j += 1;
        }
        if j >= to || self.bytes[j] == b';' {
            return (j + 1).min(to);
        }
        let header = String::from_utf8_lossy(&self.bytes[after_generics..j]).into_owned();
        let ty = if is_impl {
            impl_self_type(&header)
        } else {
            // Trait name is the first ident of the header.
            header
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .find(|s| !s.is_empty())
                .map(str::to_string)
        };
        let close = matching_brace(self.bytes, j).unwrap_or(to);
        self.scan(j + 1, close.min(to), ty.as_deref());
        (close + 1).min(to)
    }

    fn parse_struct(&mut self, i: usize, to: usize) -> usize {
        let Some((name, after_name)) = self.read_ident(i, to) else {
            return i;
        };
        let after_generics = self.skip_generics(after_name, to);
        let j = skip_ws(self.bytes, after_generics, to);
        if j >= to {
            return to;
        }
        match self.bytes[j] {
            b'{' => {
                let close = matching_brace(self.bytes, j).unwrap_or(to);
                let body = String::from_utf8_lossy(&self.bytes[j + 1..close.min(to)]).into_owned();
                self.collect_field_locks(&name, &body, j + 1);
                (close + 1).min(to)
            }
            // Tuple / unit structs: no named lock fields to record.
            _ => self.skip_braced_body(j, to),
        }
    }

    fn parse_enum(&mut self, i: usize, to: usize) -> usize {
        let Some((name, after_name)) = self.read_ident(i, to) else {
            return i;
        };
        let after_generics = self.skip_generics(after_name, to);
        let j = skip_ws(self.bytes, after_generics, to);
        if j >= to || self.bytes[j] != b'{' {
            return self.skip_braced_body(j, to);
        }
        let close = matching_brace(self.bytes, j).unwrap_or(to);
        let body = String::from_utf8_lossy(&self.bytes[j + 1..close.min(to)]).into_owned();
        let mut variants = Vec::new();
        for variant in split_top_level(&body, ',') {
            let variant = variant.trim();
            let Some(vname) = variant
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .find(|s| !s.is_empty() && s.chars().next().is_some_and(char::is_uppercase))
            else {
                continue;
            };
            // The payload is whatever follows the name: `(types)` for
            // tuple variants, `{ fields }` for struct variants.
            let payload = &variant[variant.find(vname).unwrap_or(0) + vname.len()..];
            let carries_text = contains_word(payload, "String") || contains_word(payload, "str");
            variants.push(VariantItem {
                name: vname.to_string(),
                carries_text,
            });
        }
        self.out.enums.push(EnumItem {
            name,
            line: line_at(self.lines, i),
            variants,
        });
        (close + 1).min(to)
    }

    /// Records `field: Mutex<..>` style declarations from a struct body.
    fn collect_field_locks(&mut self, owner: &str, body: &str, body_off: usize) {
        let mut offset = 0usize;
        for field in split_top_level(body, ',') {
            let leading_ws = field.len() - field.trim_start().len();
            let field_off = body_off + offset + leading_ws;
            offset += field.len() + 1;
            let Some((name, ty)) = field.split_once(':') else {
                continue;
            };
            let name = name
                .split_whitespace()
                .last()
                .unwrap_or_default()
                .to_string();
            if name.is_empty() || !name.bytes().all(is_ident_byte) {
                continue;
            }
            if let Some(kind) = lock_kind_in(ty) {
                self.out.locks.push(LockDecl {
                    kind,
                    owner: Some(owner.to_string()),
                    name,
                    line: line_at(self.lines, field_off),
                });
            }
        }
    }

    fn parse_static(&mut self, i: usize, to: usize) -> usize {
        // `static [mut] NAME: TYPE = init;` — the init may contain braces.
        let (name, after) = match self.read_ident(i, to) {
            Some((w, j)) if w == "mut" => match self.read_ident(j, to) {
                Some(pair) => pair,
                None => return i,
            },
            Some(pair) => pair,
            None => return i,
        };
        let mut j = skip_ws(self.bytes, after, to);
        if j >= to || self.bytes[j] != b':' {
            return after;
        }
        j += 1;
        let ty_start = j;
        let mut brace = 0i32;
        while j < to {
            match self.bytes[j] {
                b'{' => brace += 1,
                b'}' => brace -= 1,
                b'=' | b';' if brace == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let ty = String::from_utf8_lossy(&self.bytes[ty_start..j]).into_owned();
        if let Some(kind) = lock_kind_in(&ty) {
            self.out.locks.push(LockDecl {
                kind,
                owner: None,
                name,
                line: line_at(self.lines, i),
            });
        }
        // Skip the initializer to its terminating `;`.
        while j < to {
            match self.bytes[j] {
                b'{' => brace += 1,
                b'}' => brace -= 1,
                b';' if brace == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        to
    }

    fn parse_use(&mut self, kw_start: usize, i: usize, to: usize) -> usize {
        let mut j = i;
        while j < to && self.bytes[j] != b';' {
            j += 1;
        }
        let path: String = String::from_utf8_lossy(&self.bytes[i..j])
            .split_whitespace()
            .collect();
        if !path.is_empty() {
            self.out.uses.push(UseItem {
                path,
                line: line_at(self.lines, kw_start),
            });
        }
        (j + 1).min(to)
    }
}

/// Extracts the self type from an `impl` header: `Display for Report`
/// → `Report`, `BoundedQueue<T>` → `BoundedQueue`.
fn impl_self_type(header: &str) -> Option<String> {
    let header = header.split(" where ").next().unwrap_or(header);
    let target = match header.find(" for ") {
        Some(at) => &header[at + 5..],
        None => header,
    };
    let target = target.trim_start_matches(['&', ' ']).trim();
    let end = target
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(target.len());
    let name = &target[..end];
    if name.is_empty() {
        None
    } else {
        Some(name.to_string())
    }
}

/// Word-bounded search for a lock type name inside a type expression.
pub(crate) fn lock_kind_in(ty: &str) -> Option<LockKind> {
    for (word, kind) in [
        ("Mutex", LockKind::Mutex),
        ("RwLock", LockKind::RwLock),
        ("Condvar", LockKind::Condvar),
    ] {
        if contains_word(ty, word) {
            return Some(kind);
        }
    }
    None
}

/// Whether `text` contains `word` with ident-boundaries on both sides.
pub(crate) fn contains_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(rel) = text[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// Splits `text` on `sep` at zero bracket depth (`()`, `[]`, `<>`, `{}`).
/// The `>` of a `->` arrow is not a bracket close.
pub(crate) fn split_top_level(text: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut prev = '\0';
    for (i, c) in text.char_indices() {
        match c {
            '(' | '[' | '<' | '{' => depth += 1,
            '>' if prev == '-' => {}
            ')' | ']' | '>' | '}' => depth -= 1,
            c if c == sep && depth <= 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        prev = c;
    }
    parts.push(&text[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::MaskedFile;

    fn parse_src(src: &str) -> FileItems {
        parse(&MaskedFile::new(src))
    }

    #[test]
    fn free_and_impl_fns_are_found_with_bodies() {
        let src = "fn alpha(x: usize) -> usize { x + 1 }\n\
                   struct Q { state: Mutex<u32>, cv: Condvar }\n\
                   impl Q {\n    fn lock(&self) -> MutexGuard<'_, u32> { todo() }\n}\n";
        let items = parse_src(src);
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].name, "alpha");
        assert_eq!(items.fns[0].line, 1);
        assert!(items.fns[0].body.is_some());
        assert_eq!(items.fns[1].qualified(), "Q::lock");
        assert!(items.fns[1].sig.contains("MutexGuard"));
        let kinds: Vec<_> = items
            .locks
            .iter()
            .map(|l| (l.kind, l.name.as_str()))
            .collect();
        assert_eq!(
            kinds,
            vec![(LockKind::Mutex, "state"), (LockKind::Condvar, "cv")]
        );
        assert_eq!(items.locks[0].owner.as_deref(), Some("Q"));
    }

    #[test]
    fn nested_mods_and_traits_are_walked() {
        let src = "mod inner {\n    pub fn deep() {}\n}\n\
                   trait Scorer {\n    fn score(&self) -> f32;\n    fn kind(&self) -> u8 { 0 }\n}\n";
        let items = parse_src(src);
        let names: Vec<_> = items.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["deep", "Scorer::score", "Scorer::kind"]);
        assert!(items.fns[1].body.is_none(), "default-less trait fn");
        assert!(items.fns[2].body.is_some());
    }

    #[test]
    fn fn_bodies_are_leaves_and_macros_are_skipped() {
        let src = "fn outer() {\n    fn nested() {}\n    let f: fn(usize) = g;\n}\n\
                   macro_rules! m { () => { fn ghost() {} }; }\n\
                   fn after() {}\n";
        let items = parse_src(src);
        let names: Vec<_> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "after"]);
    }

    #[test]
    fn impl_for_and_generics_resolve_self_type() {
        let src = "impl<T: Send> Display for Wrapper<T> {\n    fn fmt(&self) {}\n}\n\
                   impl<'a> Cursor<'a> {\n    fn next(&mut self) {}\n}\n";
        let items = parse_src(src);
        assert_eq!(items.fns[0].qualified(), "Wrapper::fmt");
        assert_eq!(items.fns[1].qualified(), "Cursor::next");
    }

    #[test]
    fn statics_and_uses_are_recorded() {
        let src = "use std::sync::{Mutex, Condvar};\n\
                   static REGISTRY: Mutex<Vec<u8>> = Mutex::new(Vec::new());\n\
                   static PLAIN: u32 = 7;\n";
        let items = parse_src(src);
        assert_eq!(items.uses.len(), 1);
        assert!(items.uses[0].path.contains("std::sync"));
        assert_eq!(items.locks.len(), 1);
        assert_eq!(items.locks[0].name, "REGISTRY");
        assert_eq!(items.locks[0].owner, None);
    }

    #[test]
    fn cfg_test_fns_are_flagged() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let items = parse_src(src);
        assert!(!items.fns[0].in_test);
        assert!(items.fns[1].in_test);
    }

    #[test]
    fn enums_record_variants_and_text_payloads() {
        let src = "enum ScanError {\n    Io(std::io::Error),\n    Corrupt { path: String, detail: String },\n    Eof,\n    Lines(Vec<String>),\n}\nenum Plain { A, B }\n";
        let items = parse_src(src);
        assert_eq!(items.enums.len(), 2);
        let e = &items.enums[0];
        assert_eq!(e.name, "ScanError");
        assert_eq!(e.line, 1);
        let v: Vec<(&str, bool)> = e
            .variants
            .iter()
            .map(|v| (v.name.as_str(), v.carries_text))
            .collect();
        assert_eq!(
            v,
            vec![
                ("Io", false),
                ("Corrupt", true),
                ("Eof", false),
                ("Lines", true)
            ]
        );
        assert!(items.enums[1].variants.iter().all(|v| !v.carries_text));
    }

    #[test]
    fn strings_cannot_spoof_items() {
        let src = "const S: &str = \"fn ghost() {}\";\nfn real() {}\n";
        let items = parse_src(src);
        let names: Vec<_> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn unterminated_body_does_not_panic() {
        let items = parse_src("fn broken() { let x = 1;\n");
        assert_eq!(items.fns.len(), 1);
        assert!(items.fns[0].body.is_none());
    }
}
