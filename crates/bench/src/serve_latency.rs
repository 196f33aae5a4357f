//! The `serve_latency` experiment: loopback load test of the
//! `incite-serve` online inference service.
//!
//! Boots a real [`incite_serve::Server`] on `127.0.0.1:0`, drives it with
//! concurrent keep-alive clients over the actual HTTP surface, and
//! measures *exact* client-side latency percentiles (the server's own
//! `/metrics` histogram is log₂-bucketed) at several `--threads` values.
//! Every response's raw `f32` bit patterns are checked against the
//! offline `classifier.score` output, so the run doubles as an end-to-end
//! proof of the serving determinism contract. CI greps the `BENCH {...}`
//! line for `"latency_ok":true` and `"byte_identical":true`.

use crate::context::ReproContext;
use incite_serve::client::HttpClient;
use incite_serve::{ServeConfig, Server};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Concurrent load-generator clients per sweep point.
const CLIENTS: usize = 4;

/// Requests each client sends (single-document scores, keep-alive).
const REQUESTS_PER_CLIENT: usize = 50;

/// One sweep point of the thread sweep.
#[derive(serde::Serialize)]
struct SweepRow {
    threads: usize,
    requests: usize,
    errors: usize,
    throughput_rps: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
}

/// The machine-readable payload printed as the `BENCH {...}` line.
#[derive(serde::Serialize)]
struct BenchReport {
    experiment: &'static str,
    clients: usize,
    requests_per_client: usize,
    sweep: Vec<SweepRow>,
    byte_identical: bool,
    latency_ok: bool,
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Extracts the `"bits"` array from a `/v1/score` response body.
fn parse_bits(body: &str) -> Option<Vec<u32>> {
    let value = serde_json::from_str(body).ok()?;
    let serde::Value::Object(map) = value else {
        return None;
    };
    let serde::Value::Array(items) = map.get("bits")? else {
        return None;
    };
    items
        .iter()
        .map(|v| match v {
            serde::Value::UInt(u) => u32::try_from(*u).ok(),
            serde::Value::Int(i) => u32::try_from(*i).ok(),
            _ => None,
        })
        .collect()
}

/// Builds the one-document request body by hand; the text is generator
/// output (ASCII), so escaping quotes and backslashes suffices.
fn score_body(text: &str) -> String {
    let escaped: String = text
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect();
    format!("{{\"text\": \"{escaped}\"}}")
}

struct ClientOutcome {
    latencies_us: Vec<u64>,
    mismatches: usize,
    errors: usize,
}

// The address travels as a string so the load generator never names a
// `std::net` type — the network edge stays in incite-serve (INC007).
fn drive_client(
    addr: &str,
    texts: &[String],
    expected_bits: &[u32],
    offset: usize,
) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        latencies_us: Vec::with_capacity(REQUESTS_PER_CLIENT),
        mismatches: 0,
        errors: 0,
    };
    let Ok(mut client) = HttpClient::connect(addr) else {
        outcome.errors = REQUESTS_PER_CLIENT;
        return outcome;
    };
    for i in 0..REQUESTS_PER_CLIENT {
        let idx = (offset + i) % texts.len();
        let body = score_body(&texts[idx]);
        let started = Instant::now();
        match client.post_json("/v1/score", &body) {
            Ok(resp) if resp.status == 200 => {
                outcome
                    .latencies_us
                    .push(started.elapsed().as_micros() as u64);
                match parse_bits(&resp.body).as_deref() {
                    Some([bits]) if *bits == expected_bits[idx] => {}
                    _ => outcome.mismatches += 1,
                }
            }
            _ => outcome.errors += 1,
        }
    }
    outcome
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

pub fn run(ctx: &mut ReproContext) -> String {
    let mut s = String::from(
        "\n================ serve_latency — online inference service ================\n",
    );
    // Train the same shape of classifier the pipeline produces.
    let labeled: Vec<(&str, bool)> = ctx
        .corpus
        .documents
        .iter()
        .take(1_000)
        .map(|d| (d.text.as_str(), d.truth.is_cth))
        .collect();
    let classifier = incite_ml::TextClassifier::train(
        labeled,
        incite_ml::FeaturizerConfig::default(),
        incite_ml::TrainConfig::default(),
    );

    // The request mix: a slice of corpus documents, scored offline once to
    // fix the expected bit patterns.
    let texts: Vec<String> = ctx
        .corpus
        .documents
        .iter()
        .take(64)
        .map(|d| d.text.clone())
        .collect();
    let expected_bits: Vec<u32> = texts
        .iter()
        .map(|t| classifier.score(t).to_bits())
        .collect();

    let mut sweep_points: Vec<usize> = vec![1, 4, num_threads()];
    sweep_points.sort_unstable();
    sweep_points.dedup();

    let mut sweep = Vec::new();
    let mut total_mismatches = 0usize;
    let mut total_errors = 0usize;
    for threads in sweep_points {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let handle = match Server::start(classifier.clone(), config) {
            Ok(h) => h,
            Err(e) => {
                let _ = writeln!(s, "threads={threads}: server failed to start: {e}");
                total_errors += CLIENTS * REQUESTS_PER_CLIENT;
                continue;
            }
        };
        let addr = handle.local_addr().to_string();

        let wall = Instant::now();
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let texts = &texts;
                    let expected_bits = &expected_bits;
                    let addr = addr.as_str();
                    scope.spawn(move || {
                        drive_client(addr, texts, expected_bits, c * REQUESTS_PER_CLIENT)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or(ClientOutcome {
                        latencies_us: Vec::new(),
                        mismatches: 0,
                        errors: REQUESTS_PER_CLIENT,
                    })
                })
                .collect()
        });
        let elapsed = wall.elapsed();
        let report = handle.join();

        let mut latencies: Vec<u64> = outcomes
            .iter()
            .flat_map(|o| o.latencies_us.iter().copied())
            .collect();
        latencies.sort_unstable();
        let errors: usize = outcomes.iter().map(|o| o.errors).sum();
        let mismatches: usize = outcomes.iter().map(|o| o.mismatches).sum();
        total_errors += errors;
        total_mismatches += mismatches;

        let row = SweepRow {
            threads,
            requests: latencies.len(),
            errors,
            throughput_rps: latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            p50_us: percentile(&latencies, 0.5),
            p90_us: percentile(&latencies, 0.9),
            p99_us: percentile(&latencies, 0.99),
        };
        let _ = writeln!(
            s,
            "threads={:<2} {:>4} ok / {} err | {:>8.1} req/s | p50 {:>6} µs | p90 {:>6} µs | p99 {:>6} µs | drained {} docs",
            row.threads,
            row.requests,
            row.errors,
            row.throughput_rps,
            row.p50_us,
            row.p90_us,
            row.p99_us,
            report.documents_scored
        );
        sweep.push(row);
    }

    let byte_identical = total_mismatches == 0 && total_errors == 0;
    // Sanity gate, not a performance target: every sweep point answered
    // every request and produced a nonzero p99.
    let latency_ok = !sweep.is_empty()
        && sweep
            .iter()
            .all(|r| r.errors == 0 && r.requests == CLIENTS * REQUESTS_PER_CLIENT && r.p99_us > 0);
    let _ = writeln!(
        s,
        "byte-identical to offline scoring: {byte_identical} ({total_mismatches} mismatches, {total_errors} errors)"
    );

    let bench = BenchReport {
        experiment: "serve_latency",
        clients: CLIENTS,
        requests_per_client: REQUESTS_PER_CLIENT,
        sweep,
        byte_identical,
        latency_ok,
    };
    crate::push_bench_line(&mut s, &bench);
    s
}
