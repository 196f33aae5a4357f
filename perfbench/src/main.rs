//! End-to-end and per-layer benchmark of the incite system.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale paper|tiny] [--plant-wrong-answer]
//! ```
//!
//! Workloads: `paper_pipeline`, `serve_single`, `serve_bulk`,
//! `watch_checkpointed` (see README.md). Every input derives from
//! `--seed`. The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! `--scale tiny` shrinks every input for the self-test, and
//! `--plant-wrong-answer` corrupts one expected output so the self-test
//! can see it counted as a failed op.

mod pipeline;
mod serve;
mod sys;
mod trace;
mod watch;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("resume_ms", "ms"),
];

/// Per-layer metrics every traced run reports, with units. A layer the
/// workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_ms", "ms"),
    ("corpus.write_jsonl_ms", "ms"),
    ("corpus.read_jsonl_ms", "ms"),
    ("textkit.normalize_ms", "ms"),
    ("textkit.tokenize_ms", "ms"),
    ("ml.featurize_ms", "ms"),
    ("ml.csr_build_ms", "ms"),
    ("core.engine_build_ms", "ms"),
    ("core.score_all_ms", "ms"),
    ("core.engine_build_scaling", "ratio"),
    ("core.score_all_scaling", "ratio"),
    ("ml.train_ms", "ms"),
    ("core.bootstrap_ms", "ms"),
    ("core.threshold_ms", "ms"),
    ("core.run_dir_bytes", "bytes"),
    ("pipeline.unattributed_ms", "ms"),
    ("serve.boot_ms", "ms"),
    ("serve.healthz_rtt_us", "us"),
    ("serve.server_mean_us", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.queue_handoff_us", "us"),
    ("serve.score_texts_us", "us"),
    ("serve.journal_append_us", "us"),
    ("serve.docs_per_batch", "docs/batch"),
    ("serve.refused", "count"),
    ("stream.simulate_ms", "ms"),
    ("stream.decode_ms", "ms"),
    ("stream.process_epoch_ms", "ms"),
    ("stream.process_epoch_p90_ms", "ms"),
    ("stream.process_epoch_total_ms", "ms"),
    ("stream.save_state_ms", "ms"),
    ("stream.save_state_p90_ms", "ms"),
    ("stream.save_state_total_ms", "ms"),
    ("stream.state_bytes", "bytes"),
    ("stream.load_state_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// Setups per run: one before the ops and the rest after them, so that
/// `setup_s`, their median, samples the host at more than one moment.
pub const SETUP_REPS: usize = 3;

/// Everything a workload needs to know about this run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub tiny: bool,
    pub plant: bool,
    /// Worker threads and client connections (`available_parallelism`).
    pub threads: usize,
    pub work: sys::WorkDir,
    /// Where a traced run writes its spans.
    pub trace_out: PathBuf,
}

/// One run's result: checked ops, named metrics, and diagnostic lines.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one checked op; `ok` is whether its output was right.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: every end-to-end metric (all required), or every
    /// per-layer metric (0 for a layer the workload never calls).
    fn render(&self, trace: bool) -> Result<String, String> {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::new();
        for (name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is not finite ({v})")),
                None if !trace => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            parts.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                sys::json_string(name),
                sys::json_string(unit)
            ));
        }
        let correct = self.attempted > 0 && self.failed == 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    plant: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 0x1c17e5,
        seconds: 10.0,
        trace: false,
        tiny: false,
        plant: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--plant-wrong-answer" {
            args.plant = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| format!("--seed takes a number, got {value}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds takes a positive number, got {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--scale" => {
                args.tiny = match value.as_str() {
                    "paper" => false,
                    "tiny" => true,
                    _ => return Err(format!("--scale takes paper or tiny, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<String, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = sys::WorkDir::create(PathBuf::from(".perfbench").join(format!(
        "work-{}-{}",
        args.workload,
        std::process::id()
    )))
    .map_err(|e| format!("cannot create the work directory: {e}"))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        tiny: args.tiny,
        plant: args.plant,
        threads,
        work,
        trace_out: PathBuf::from(".perfbench").join(format!("trace-{}.jsonl", args.workload)),
    };
    let host_before = sys::host_cpu();
    let report = match (args.workload.as_str(), args.trace) {
        ("paper_pipeline", false) => pipeline::run(&ctx),
        ("paper_pipeline", true) => pipeline::traced(&ctx),
        ("serve_single", false) => serve::run(&ctx, serve::Mode::Single),
        ("serve_single", true) => serve::traced(&ctx, serve::Mode::Single),
        ("serve_bulk", false) => serve::run(&ctx, serve::Mode::Bulk),
        ("serve_bulk", true) => serve::traced(&ctx, serve::Mode::Bulk),
        ("watch_checkpointed", false) => watch::run(&ctx),
        ("watch_checkpointed", true) => watch::traced(&ctx),
        (other, _) => return Err(format!("unknown workload {other:?}")),
    }?;
    println!(
        "host: {threads} thread(s), steal {:.2}% of host CPU time over the run; {} op(s) attempted, {} failed",
        sys::host_cpu().steal_pct_since(&host_before),
        report.attempted,
        report.failed
    );
    report.render(args.trace)
}

fn main() {
    let result = parse_args().and_then(|args| {
        if args.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        run(&args)
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
