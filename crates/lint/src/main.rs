//! CLI: `cargo run -p incite-lint -- check [--format json|text|sarif]
//! [--threads N] [--root PATH]`.
//!
//! Exit codes: 0 clean, 1 any finding, 2 usage or I/O error.

use incite_lint::engine;
use incite_lint::rules::{RuleInfo, CATALOG};
use incite_lint::sarif;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
incite-lint: workspace static analysis

USAGE:
    incite-lint check [OPTIONS]
    incite-lint rules       (alias: --list-rules)
    incite-lint explain <RULE>   (alias: --explain; e.g. explain INC011)

OPTIONS:
    --format <FMT>       Report format: `text` (rustc-style, default),
                         `json` (machine-readable) or `sarif` (SARIF 2.1.0),
                         both on stdout
    --json               Shorthand for --format json
    --threads <N>        Worker threads for the per-file stage (default: the
                         machine's parallelism, capped at 8). Findings are
                         byte-identical at any thread count.
    --root <PATH>        Workspace root (default: current directory)
";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Args {
    format: Format,
    threads: Option<usize>,
    root: PathBuf,
}

fn parse_args(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let _bin = argv.next();
    let command = argv.next().ok_or_else(|| USAGE.to_string())?;
    let mut args = Args {
        format: Format::Text,
        threads: None,
        root: PathBuf::from("."),
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--json" => args.format = Format::Json,
            "--format" => {
                let v = argv
                    .next()
                    .ok_or("--format requires `json`, `text` or `sarif`")?;
                match v.as_str() {
                    "json" => args.format = Format::Json,
                    "text" => args.format = Format::Text,
                    "sarif" => args.format = Format::Sarif,
                    other => {
                        return Err(format!(
                        "unknown format `{other}` (expected `json`, `text` or `sarif`)\n\n{USAGE}"
                    ))
                    }
                }
            }
            "--threads" => {
                let v = argv.next().ok_or("--threads requires a count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads expects a positive integer, got `{v}`"))?;
                if n == 0 {
                    return Err("--threads expects a positive integer".to_string());
                }
                args.threads = Some(n);
            }
            "--root" => {
                let v = argv.next().ok_or("--root requires a path")?;
                args.root = PathBuf::from(v);
            }
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    Ok((command, args))
}

fn main() -> ExitCode {
    // `explain` takes a positional rule id, which the flag parser would
    // reject; route it before the flag loop runs.
    let mut peek = std::env::args().skip(1);
    if let Some(first) = peek.next() {
        if first == "explain" || first == "--explain" {
            return explain(peek.next());
        }
    }
    let (command, args) = match parse_args(std::env::args()) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "check" => check(args),
        "rules" | "--list-rules" | "list-rules" => {
            for rule in CATALOG {
                println!("{}: {}", rule.id, rule.summary);
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `explain INCxxx`: the full catalog entry for one rule — contract, an
/// example that fires, and the expected fix — from the same table that
/// `rules` lists.
fn explain(id: Option<String>) -> ExitCode {
    let Some(id) = id else {
        eprintln!("explain requires a rule id (e.g. `incite-lint explain INC011`)\n\n{USAGE}");
        return ExitCode::from(2);
    };
    match RuleInfo::find(&id.to_ascii_uppercase()) {
        Some(rule) => {
            println!("{} — {}", rule.id, rule.summary);
            println!("\ncontract:\n  {}", rule.contract);
            println!("\nexample (fires):\n  {}", rule.example);
            println!("\nfix:\n  {}", rule.fix);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown rule `{id}` (run `incite-lint rules` for the catalog)");
            ExitCode::from(2)
        }
    }
}

fn check(args: Args) -> ExitCode {
    let threads = args.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1)
    });
    let report = match engine::run_with(&args.root, threads) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: scanning {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    match args.format {
        Format::Json => print!("{}", engine::report_json(&report)),
        Format::Sarif => print!("{}", sarif::report_sarif(&report)),
        Format::Text => {
            for f in &report.findings {
                eprintln!("{}\n", f.render());
            }
            eprintln!(
                "incite-lint: {} file(s), {} finding(s)",
                report.files_scanned,
                report.findings.len()
            );
        }
    }

    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
