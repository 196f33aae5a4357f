//! Golden test for `--format json`: the machine-readable report is
//! consumed by CI (artifact upload, jq filters) and external tooling,
//! so its schema — key names, key order, the trace array — must not
//! drift silently. A deliberate schema change updates this file in the
//! same commit.

use incite_lint::engine;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

/// Every finding object carries exactly these keys, in this order.
const FINDING_KEYS: &[&str] = &[
    "\"rule\": \"",
    "\"severity\": \"",
    "\"file\": \"",
    "\"line\": ",
    "\"message\": \"",
    "\"trace\": [",
];

/// The report footer carries exactly these keys, in this order.
const FOOTER_KEYS: &[&str] = &["\"files_scanned\": ", "\"total\": ", "\"fuel\": "];

#[test]
fn finding_objects_keep_their_key_order() {
    let report = engine::run(&fixture_root()).unwrap();
    let json = engine::report_json(&report);
    assert!(json.starts_with("{\n  \"findings\": [\n"), "header moved");

    let mut finding_lines = 0;
    for line in json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"rule\""))
    {
        finding_lines += 1;
        let mut at = 0;
        for key in FINDING_KEYS {
            match line[at..].find(key) {
                Some(pos) => at += pos + key.len(),
                None => panic!("`{key}` missing or out of order in: {line}"),
            }
        }
    }
    assert_eq!(
        finding_lines,
        report.findings.len(),
        "one object line per finding"
    );

    let mut at = 0;
    for key in FOOTER_KEYS {
        match json[at..].find(key) {
            Some(pos) => at += pos + key.len(),
            None => panic!("footer key `{key}` missing or out of order"),
        }
    }
}

/// Two full finding lines pinned byte-for-byte: one INC011 flow with an
/// interprocedural taint trace, one INC012 flow with a call-path trace.
#[test]
fn golden_taint_finding_lines_are_stable() {
    let report = engine::run(&fixture_root()).unwrap();
    let json = engine::report_json(&report);

    let golden_inc011 = "    {\"rule\": \"INC011\", \"severity\": \"error\", \
         \"file\": \"crates/serve/src/leak.rs\", \"line\": 36, \
         \"message\": \"tainted document text reaches `eprintln!`\", \
         \"trace\": [\"`{doc}` interpolated (parameter `doc` of `serve::report` \
         tainted at call from `serve::handle` (source `serve::read_request`))\", \
         \"sink: `eprintln!` in `serve::report`\"]},";
    let golden_inc012 = "    {\"rule\": \"INC012\", \"severity\": \"error\", \
         \"file\": \"crates/core/src/nondet.rs\", \"line\": 28, \
         \"message\": \"`thread::current` in `core::salt` — observes the thread id; \
         reachable from scoring entry `core::ScoringEngine::score_all`\", \
         \"trace\": [\"scoring entry `core::ScoringEngine::score_all`\", \
         \"calls `core::tally`\", \"calls `core::salt`\", \
         \"`thread::current` observes the thread id\"]},";

    for golden in [golden_inc011, golden_inc012] {
        // The continuation-heavy literal collapses runs of spaces that the
        // real output does not have; normalize both sides the same way.
        let want = golden.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(
            json.lines()
                .any(|l| l.split_whitespace().collect::<Vec<_>>().join(" ") == want),
            "golden line drifted; wanted:\n{want}\ngot:\n{json}"
        );
    }
}
