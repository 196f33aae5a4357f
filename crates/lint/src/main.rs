//! CLI: `cargo run -p incite-lint -- check [--threads N] [--root PATH]`.
//!
//! Exit codes: 0 clean, 1 any finding, 2 usage or I/O error.

use incite_lint::engine;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
incite-lint: workspace static analysis

USAGE:
    incite-lint check [OPTIONS]

OPTIONS:
    --threads <N>        Worker threads for the per-file stage (default: the
                         machine's parallelism, capped at 8). Findings are
                         byte-identical at any thread count.
    --root <PATH>        Workspace root (default: current directory)

The report goes to stderr: one rustc-style error per finding, with its
dataflow trace as `= note:` lines, then a summary line.
";

struct Args {
    threads: Option<usize>,
    root: PathBuf,
}

fn parse_args(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let _bin = argv.next();
    let command = argv.next().ok_or_else(|| USAGE.to_string())?;
    let mut args = Args {
        threads: None,
        root: PathBuf::from("."),
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
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
    let (command, args) = match parse_args(std::env::args()) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "check" => check(args),
        other => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
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
    eprint!("{}", report.render());
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
