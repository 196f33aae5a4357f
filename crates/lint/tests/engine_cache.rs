//! The engine's parallel fan-out over the fixture tree: the report —
//! findings, file count and fuel — must be identical at every thread
//! count.

use incite_lint::engine;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

#[test]
fn parallel_report_is_byte_identical_to_sequential() {
    let root = fixture_root();
    let sequential = engine::run_with(&root, 1).expect("sequential run");
    assert!(
        !sequential.findings.is_empty(),
        "the fixture tree must produce findings for the comparison to mean anything"
    );
    for threads in [2, 4, 8] {
        let parallel = engine::run_with(&root, threads).expect("parallel run");
        assert_eq!(parallel, sequential, "report drifted at {threads} threads");
    }
}
