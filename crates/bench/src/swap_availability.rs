//! The `swap_availability` experiment: availability of `incite-serve`
//! across an atomic model hot-swap.
//!
//! Boots a real server from a checkpointed run directory, drives it with
//! concurrent keep-alive clients, then swaps the active model to a second
//! checkpointed run (different pipeline seed, so observably different
//! weights) *while the load is running*. The gates encode the resilience
//! contract (DESIGN.md §17):
//!
//! * `dropped_ok` — zero requests failed or were dropped across the swap;
//! * `mixed_ok` — every response's bit patterns match the offline scores
//!   of exactly the model generation the response declares (no response
//!   ever mixes weights from two generations);
//! * `swap_ok` — the swap itself completed and advanced the generation;
//! * `p99_ratio_ok` — swap-phase p99 stays within 2× the steady-state
//!   p99 (with a small absolute floor so microsecond-scale jitter on a
//!   loopback cannot flake the gate).
//!
//! `scripts/bench_ratchet` requires all four gates to be true in the
//! `BENCH {...}` line.

use crate::context::ReproContext;
use incite_core::{load_latest_classifier_with_hash, run_pipeline_resumable, PipelineConfig, Task};
use incite_serve::client::HttpClient;
use incite_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Concurrent load-generator clients.
const CLIENTS: usize = 4;

/// Requests per client in each phase (steady, then swap).
const REQUESTS_PER_PHASE: usize = 60;

/// Distinct request texts cycled by the clients.
const TEXT_POOL: usize = 24;

#[derive(serde::Serialize)]
struct PhaseRow {
    requests: usize,
    dropped: usize,
    p50_us: u64,
    p99_us: u64,
}

/// The machine-readable payload printed as the `BENCH {...}` line.
#[derive(serde::Serialize)]
struct BenchReport {
    experiment: &'static str,
    clients: usize,
    requests_per_phase: usize,
    steady: PhaseRow,
    swap: PhaseRow,
    dropped_requests: usize,
    mixed_generation_responses: usize,
    generation_after_swap: u64,
    p99_ratio: f64,
    dropped_ok: bool,
    mixed_ok: bool,
    swap_ok: bool,
    p99_ratio_ok: bool,
}

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

/// Extracts `bits[0]` and the declared `model_hash` from a `/v1/score`
/// response body.
fn parse_scored(body: &str) -> Option<(u32, String)> {
    let value = serde_json::from_str(body).ok()?;
    let serde::Value::Object(map) = value else {
        return None;
    };
    let serde::Value::Array(items) = map.get("bits")? else {
        return None;
    };
    let bits = match items.first()? {
        serde::Value::UInt(u) => u32::try_from(*u).ok()?,
        serde::Value::Int(i) => u32::try_from(*i).ok()?,
        _ => return None,
    };
    let serde::Value::Str(hash) = map.get("model_hash")? else {
        return None;
    };
    Some((bits, hash.clone()))
}

struct ClientOutcome {
    latencies_us: Vec<u64>,
    dropped: usize,
    mixed: usize,
}

/// One client phase: `n` keep-alive single-document requests, each
/// response checked against the expected bits of the generation it
/// declares. A response naming an unknown hash, or carrying bits that do
/// not match its declared generation's offline score, counts as mixed.
fn drive_phase(
    client: &mut HttpClient,
    texts: &[String],
    expected: &BTreeMap<String, Vec<u32>>,
    n: usize,
    offset: usize,
) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        latencies_us: Vec::with_capacity(n),
        dropped: 0,
        mixed: 0,
    };
    for i in 0..n {
        let idx = (offset + i) % texts.len();
        let body = score_body(&texts[idx]);
        let started = Instant::now();
        match client.post_json("/v1/score", &body) {
            Ok(resp) if resp.status == 200 => {
                outcome
                    .latencies_us
                    .push(started.elapsed().as_micros() as u64);
                match parse_scored(&resp.body) {
                    Some((bits, hash)) => match expected.get(&hash) {
                        Some(model_bits) if model_bits[idx] == bits => {}
                        _ => outcome.mixed += 1,
                    },
                    None => outcome.mixed += 1,
                }
            }
            _ => outcome.dropped += 1,
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

fn phase_row(outcomes: &[ClientOutcome]) -> PhaseRow {
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    PhaseRow {
        requests: latencies.len(),
        dropped: outcomes.iter().map(|o| o.dropped).sum(),
        p50_us: percentile(&latencies, 0.5),
        p99_us: percentile(&latencies, 0.99),
    }
}

pub fn run(ctx: &mut ReproContext) -> String {
    let mut s = String::from(
        "\n================ swap_availability — hot-swap under load ================\n",
    );

    // Two checkpointed runs over the same corpus with different pipeline
    // seeds: different training subsets, hence observably different
    // weights and distinct verified model hashes.
    let root = std::env::temp_dir().join(format!("incite-bench-swap-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir_a = root.join("run-a");
    let dir_b = root.join("run-b");
    for (dir, seed) in [(&dir_a, 3u64), (&dir_b, 5u64)] {
        if std::fs::create_dir_all(dir).is_err() {
            s.push_str("swap_availability: cannot create bench run dirs; skipping\n");
            return s;
        }
        let config = PipelineConfig::quick(seed);
        if run_pipeline_resumable(&ctx.corpus, Task::Cth, &config, dir).is_err() {
            s.push_str("swap_availability: pipeline run failed; no BENCH line\n");
            return s;
        }
    }

    // The expected bits per model, keyed by verified hash — the oracle
    // the clients hold responses against.
    let texts: Vec<String> = ctx
        .corpus
        .documents
        .iter()
        .skip(600)
        .take(TEXT_POOL)
        .map(|d| d.text.clone())
        .collect();
    let mut expected: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    for dir in [&dir_a, &dir_b] {
        match load_latest_classifier_with_hash(dir) {
            Ok((classifier, hash)) => {
                let bits = texts
                    .iter()
                    .map(|t| classifier.score(t).to_bits())
                    .collect();
                expected.insert(hash, bits);
            }
            Err(e) => {
                let _ = writeln!(s, "swap_availability: cannot load run dir: {e}");
                return s;
            }
        }
    }
    if expected.len() != 2 {
        s.push_str("swap_availability: the two runs produced identical models; no BENCH line\n");
        return s;
    }

    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        workers: 2,
        deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let handle = match Server::start_from_run_dir(&dir_a, config) {
        Ok(h) => h,
        Err(e) => {
            let _ = writeln!(s, "swap_availability: server failed to start: {e}");
            return s;
        }
    };
    let addr = handle.local_addr().to_string();

    // Phase 1 (steady) establishes the baseline p99; the barrier then
    // releases phase 2 (swap) on every client at once, and the main
    // thread fires the swap into the middle of that load.
    let barrier = Barrier::new(CLIENTS + 1);
    let mut generation_after_swap = 0u64;
    let (steady_outcomes, swap_outcomes): (Vec<ClientOutcome>, Vec<ClientOutcome>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let texts = &texts;
                    let expected = &expected;
                    let barrier = &barrier;
                    let addr = addr.as_str();
                    scope.spawn(move || {
                        let Ok(mut client) = HttpClient::connect(addr) else {
                            let dead = || ClientOutcome {
                                latencies_us: Vec::new(),
                                dropped: REQUESTS_PER_PHASE,
                                mixed: 0,
                            };
                            barrier.wait();
                            return (dead(), dead());
                        };
                        let steady = drive_phase(
                            &mut client,
                            texts,
                            expected,
                            REQUESTS_PER_PHASE,
                            c * REQUESTS_PER_PHASE,
                        );
                        barrier.wait();
                        let swap = drive_phase(
                            &mut client,
                            texts,
                            expected,
                            REQUESTS_PER_PHASE,
                            c * REQUESTS_PER_PHASE + 7,
                        );
                        (steady, swap)
                    })
                })
                .collect();

            // Fire the swap a moment into the second phase so in-flight
            // requests straddle the flip.
            barrier.wait();
            std::thread::sleep(Duration::from_millis(5));
            if let Ok(mut admin) = HttpClient::connect(addr.as_str()) {
                let body = format!("{{\"run_dir\": \"{}\"}}", dir_b.display());
                if let Ok(resp) = admin.post_json("/v1/admin/swap", &body) {
                    if resp.status == 200 {
                        generation_after_swap = 2;
                    }
                }
            }

            let mut steady_all = Vec::with_capacity(CLIENTS);
            let mut swap_all = Vec::with_capacity(CLIENTS);
            for h in handles {
                let (steady, swap) = h.join().unwrap_or_else(|_| {
                    let dead = || ClientOutcome {
                        latencies_us: Vec::new(),
                        dropped: REQUESTS_PER_PHASE,
                        mixed: 0,
                    };
                    (dead(), dead())
                });
                steady_all.push(steady);
                swap_all.push(swap);
            }
            (steady_all, swap_all)
        });
    let report = handle.join();
    std::fs::remove_dir_all(&root).ok();

    let steady = phase_row(&steady_outcomes);
    let swap = phase_row(&swap_outcomes);
    let dropped_requests = steady.dropped + swap.dropped;
    let mixed_generation_responses: usize = steady_outcomes
        .iter()
        .chain(&swap_outcomes)
        .map(|o| o.mixed)
        .sum();

    let p99_ratio = swap.p99_us as f64 / (steady.p99_us.max(1)) as f64;
    let dropped_ok = dropped_requests == 0 && report.panicked_threads == 0;
    let mixed_ok = mixed_generation_responses == 0;
    let swap_ok = generation_after_swap == 2;
    // The absolute floor: on a loopback with ~100 µs scores, a single
    // scheduler hiccup doubles p99 without meaning anything. Any swap-
    // phase p99 under 5 ms is availability by construction.
    let p99_ratio_ok = p99_ratio <= 2.0 || swap.p99_us < 5_000;

    let _ = writeln!(
        s,
        "steady : {:>4} ok / {} dropped | p50 {:>6} µs | p99 {:>6} µs",
        steady.requests, steady.dropped, steady.p50_us, steady.p99_us
    );
    let _ = writeln!(
        s,
        "swap   : {:>4} ok / {} dropped | p50 {:>6} µs | p99 {:>6} µs | p99 ratio {:.2}",
        swap.requests, swap.dropped, swap.p50_us, swap.p99_us, p99_ratio
    );
    let _ = writeln!(
        s,
        "generation after swap: {generation_after_swap} | mixed-generation responses: \
         {mixed_generation_responses} | server drained {} doc(s)",
        report.documents_scored
    );

    let bench = BenchReport {
        experiment: "swap_availability",
        clients: CLIENTS,
        requests_per_phase: REQUESTS_PER_PHASE,
        steady,
        swap,
        dropped_requests,
        mixed_generation_responses,
        generation_after_swap,
        p99_ratio,
        dropped_ok,
        mixed_ok,
        swap_ok,
        p99_ratio_ok,
    };
    crate::push_bench_line(&mut s, &bench);
    s
}
