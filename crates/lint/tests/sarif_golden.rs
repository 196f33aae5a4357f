//! Golden-file pin of the SARIF 2.1.0 rendering over the fixture tree.
//!
//! The committed bytes are the contract with code-scanning ingesters:
//! any drift — field order, escaping, region placement — fails here
//! before it breaks a consumer. Regenerate with
//! `BLESS=1 cargo test -p incite-lint --test sarif_golden`.

// `BLESS=1` rewrites the golden file with a plain write; the INC006
// write ban is for library code.
#![allow(clippy::disallowed_methods)]

use incite_lint::engine;
use incite_lint::sarif;
use std::path::{Path, PathBuf};

fn manifest_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn sarif_output_matches_the_committed_golden_file() {
    let report = engine::run(&manifest_path("tests/fixtures/ws")).expect("fixture tree scans");
    let rendered = sarif::report_sarif(&report);
    let golden_path = manifest_path("tests/golden/fixture.sarif");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden_path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&golden_path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("tests/golden/fixture.sarif is committed (regenerate with BLESS=1)");
    assert_eq!(
        rendered, golden,
        "SARIF rendering drifted from the committed golden file; \
         regenerate with BLESS=1 if the change is intentional"
    );
}
