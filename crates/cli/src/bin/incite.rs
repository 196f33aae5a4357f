//! `incite` — detection, extraction and redaction from the command line.

// INC001 (DESIGN.md §10): the binary reports failures, never panics.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", incite_cli::USAGE);
        std::process::exit(2);
    };
    if command == "help" || command == "--help" || command == "-h" {
        println!("{}", incite_cli::USAGE);
        return;
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if let Err(e) = incite_cli::run(command, &args[1..], &mut out) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
