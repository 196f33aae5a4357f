//! The finding type.
//!
//! Every rule is proved by a pass over the workspace item graph
//! (INC008–INC014, INC016). The token-level invariants INC001–INC004,
//! INC006 and INC007 are clippy lints, scoped by crate attributes and the
//! workspace `clippy.toml`; INC005's taxonomy counts are unit tests in
//! the crates that declare them, and INC015 is rustc's `Fn + Sync` bound
//! on `parallel::map_indexed` (DESIGN.md §10). Each rule's contract,
//! example and fix live in DESIGN.md §14 (INC008–INC010), §15
//! (INC011–INC013) and §19 (INC014, INC016). Every finding is an error.

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
    /// Rustc-style rendering: `error[INC011]: message\n  --> file:line`,
    /// then one `  = note: step` line per trace entry.
    pub fn render(&self) -> String {
        let mut out = format!(
            "error[{}]: {}\n  --> {}:{}",
            self.rule, self.message, self.file, self.line
        );
        for step in &self.trace {
            out.push_str("\n  = note: ");
            out.push_str(step);
        }
        out
    }
}

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
