//! Golden-file pin of the text report over the fixture tree: every
//! finding's line, message and dataflow trace, and the summary line,
//! exactly as `check` prints them. Regenerate with
//! `BLESS=1 cargo test -p incite-lint --test report_golden`.

// `BLESS=1` rewrites the golden file with a plain write; the INC006
// write ban is for library code.
#![allow(clippy::disallowed_methods)]

use incite_lint::engine;
use std::path::{Path, PathBuf};

fn manifest_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn text_report_matches_the_committed_golden_file() {
    let report = engine::run(&manifest_path("tests/fixtures/ws")).expect("fixture tree scans");
    let rendered = report.render();
    let golden_path = manifest_path("tests/golden/fixture.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("tests/golden/fixture.txt is committed (regenerate with BLESS=1)");
    assert_eq!(
        rendered, golden,
        "the text report drifted from the committed golden file; \
         regenerate with BLESS=1 if the change is intentional"
    );
}
