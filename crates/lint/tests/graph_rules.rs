//! End-to-end check of the graph rules (INC008–INC010), the taint
//! rules (INC011–INC013) and the invariant rules (INC014, INC016)
//! against the seeded fixture tree in `tests/fixtures/ws`: each rule
//! must fire exactly where a violation was planted and nowhere else.
//!
//! The complementary property — zero findings on the *real* workspace —
//! is covered by `engine::tests::repo_has_no_findings`.

use incite_lint::engine;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

#[test]
fn seeded_violations_fire_exactly_where_planted() {
    let report = engine::run(&fixture_root()).unwrap();

    let graph: Vec<(&str, &str, usize)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.rule, f.line))
        .collect();
    assert_eq!(
        graph,
        vec![
            // `transfer` takes a then b; `audit` takes b then a.
            ("crates/core/src/locks.rs", "INC008", 30),
            ("crates/core/src/locks.rs", "INC008", 38),
            // `throttle` sleeps under the guard; `settle` blocks through
            // a callee.
            ("crates/core/src/locks.rs", "INC009", 45),
            ("crates/core/src/locks.rs", "INC009", 52),
            // `tally` iterates a HashMap one hop from `score_all`;
            // `salt` reads the thread id two hops out. The BTreeMap
            // variant and the unreachable `offline_histogram` stay
            // clean.
            ("crates/core/src/nondet.rs", "INC012", 18),
            ("crates/core/src/nondet.rs", "INC012", 28),
            // `orphan_save` and the free `open_log` acquire the write
            // funnel with no failpoint on any path; `sweep_and_save` →
            // `save_ledger` is swept and stays clean.
            ("crates/core/src/unswept.rs", "INC014", 29),
            ("crates/core/src/unswept.rs", "INC014", 35),
            // `ingest` stuffs raw text into `ParseError::BadRecord`;
            // `describe` does the braced form. The structure-only
            // `Truncated` and the `redact_excerpt`-wrapped construction
            // stay clean.
            ("crates/corpus/src/errors.rs", "INC013", 27),
            ("crates/corpus/src/errors.rs", "INC013", 34),
            // `frame_end` runs bare `+`, a narrowing `as u16` and a
            // transitively tainted sum on a wire-decoded length; the
            // guarded and checked variants stay clean.
            ("crates/corpus/src/jsonl.rs", "INC016", 9),
            ("crates/corpus/src/jsonl.rs", "INC016", 10),
            ("crates/corpus/src/jsonl.rs", "INC016", 11),
            // `route` grows `out` in a loop with no visible bound; the
            // `max_batch` and `with_capacity` variants stay clean.
            ("crates/serve/src/handler.rs", "INC010", 7),
            // `report` leaks text it received only through its
            // parameter (two-hop flow); `reject` hands text to the
            // `error_body` sink. The `redact`-sanitized flow in
            // `log_safely` stays clean.
            ("crates/serve/src/leak.rs", "INC011", 36),
            ("crates/serve/src/leak.rs", "INC011", 42),
        ],
        "graph findings moved: {:#?}",
        report.findings
    );
}

#[test]
fn inc008_messages_point_at_the_opposite_order() {
    let report = engine::run(&fixture_root()).unwrap();
    let inc008: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "INC008")
        .collect();
    assert_eq!(inc008.len(), 2);
    // Each site names both locks and the conflicting location.
    assert!(inc008[0].message.contains("core/Pair.a"));
    assert!(inc008[0].message.contains("core/Pair.b"));
    assert!(inc008[0].message.contains("crates/core/src/locks.rs:38"));
    assert!(inc008[1].message.contains("crates/core/src/locks.rs:30"));
}

/// The INC011 finding in `report` is genuinely interprocedural: the
/// source is read in `handle`, the leak sits in a function that only
/// ever saw the text through its parameter, and the trace narrates
/// that chain end to end.
#[test]
fn inc011_trace_narrates_the_interprocedural_hop() {
    let report = engine::run(&fixture_root()).unwrap();
    let leak = report
        .findings
        .iter()
        .find(|f| f.rule == "INC011" && f.file == "crates/serve/src/leak.rs" && f.line == 36)
        .expect("the two-hop eprintln leak must fire");
    let trace = leak.trace.join(" | ");
    assert!(
        trace.contains("parameter `doc` of `serve::report`"),
        "trace must name the tainted parameter: {trace}"
    );
    assert!(
        trace.contains("call from `serve::handle`"),
        "trace must name the call site that carried the taint: {trace}"
    );
    assert!(
        trace.contains("source `serve::read_request`"),
        "trace must bottom out at the source: {trace}"
    );

    // The INC012 trace walks the call path from the scoring entry.
    let nondet = report
        .findings
        .iter()
        .find(|f| f.rule == "INC012" && f.line == 28)
        .expect("the two-hop thread-id observation must fire");
    assert_eq!(
        nondet.trace[0],
        "scoring entry `core::ScoringEngine::score_all`"
    );
    assert!(nondet
        .trace
        .iter()
        .any(|s| s.contains("calls `core::tally`")));
}
