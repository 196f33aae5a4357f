//! `serve_single` and `serve_bulk`: the online inference service under a
//! closed-loop load of keep-alive clients, one per worker thread.
//!
//! Setup builds a checkpointed CTH run directory from a Small corpus and
//! boots `Server::start_from_run_dir` with the request journal on. The
//! request set comes from a Tiny corpus with its own derived seed. One op
//! is one `POST /v1/score`; its response must carry status 200, the offline
//! `classifier.score(text).to_bits()` for every text, generation 1 and the
//! run dir's model hash.

use crate::sys::{self, derive_seed, json_string, median, ms, quantile, us};
use crate::trace::Tracer;
use crate::{Ctx, Report, SETUP_REPS};
use incite_core::checkpoint::atomic_io::AppendLog;
use incite_core::checkpoint::{clear_run_dir, load_latest_classifier_with_hash};
use incite_core::parallel::map_indexed;
use incite_core::{run_pipeline_resumable, PipelineConfig, ScoringEngine, Task};
use incite_corpus::{generate, CorpusConfig};
use incite_ml::{FeatureMatrix, TextClassifier};
use incite_serve::client::HttpClient;
use incite_serve::http::{read_request, Received};
use incite_serve::journal::JournalRecord;
use incite_serve::queue::{BoundedQueue, PopBatch};
use incite_serve::{ServeConfig, Server, ServerHandle};
use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `{"text": …}` per request.
    Single,
    /// `{"texts": [256 docs]}` per request.
    Bulk,
}

/// Server restarts before the load and again after it (so they sample
/// the host at two moments); `resume_ms` is the fastest.
const RESTARTS_PER_SIDE: usize = 11;

/// Documents per bulk request: enough for the worker's micro-batch to take
/// the parallel `map_indexed` path.
const BULK_DOCS: usize = 256;

/// The request set and each request's expected score bits.
struct Requests {
    bodies: Vec<String>,
    texts: Vec<Vec<String>>,
    expected: Vec<Vec<u32>>,
}

impl Requests {
    fn build(ctx: &Ctx, mode: Mode, classifier: &TextClassifier, tracer: &mut Tracer) -> Self {
        let corpus = tracer.time("corpus.generate", 0, || {
            generate(&CorpusConfig::tiny(derive_seed(ctx.seed, "serve-requests")))
        });
        let texts: Vec<String> = corpus.documents.into_iter().map(|d| d.text).collect();
        let groups: Vec<Vec<String>> = match mode {
            Mode::Single => texts.into_iter().map(|t| vec![t]).collect(),
            Mode::Bulk => (0..texts.len().div_ceil(BULK_DOCS))
                .map(|r| {
                    (0..BULK_DOCS)
                        .map(|k| texts[(r * BULK_DOCS + k) % texts.len()].clone())
                        .collect()
                })
                .collect(),
        };
        let bodies = groups
            .iter()
            .map(|g| match mode {
                Mode::Single => format!("{{\"text\": {}}}", json_string(&g[0])),
                Mode::Bulk => {
                    let items: Vec<String> = g.iter().map(|t| json_string(t)).collect();
                    format!("{{\"texts\": [{}]}}", items.join(", "))
                }
            })
            .collect();
        let mut expected: Vec<Vec<u32>> = groups
            .iter()
            .map(|g| g.iter().map(|t| classifier.score(t).to_bits()).collect())
            .collect();
        if ctx.plant {
            expected[0][0] ^= 1;
        }
        Requests {
            bodies,
            texts: groups,
            expected,
        }
    }
}

/// A booted server plus everything needed to load and check it.
struct Service {
    handle: ServerHandle,
    addr: String,
    run_dir: PathBuf,
    config: ServeConfig,
    model_hash: String,
    classifier: TextClassifier,
    requests: Requests,
    boot_ms: f64,
}

fn pipeline_config(ctx: &Ctx) -> PipelineConfig {
    let quick = PipelineConfig::quick(ctx.seed);
    let base = if ctx.tiny {
        quick
    } else {
        PipelineConfig {
            al_rounds: 2,
            per_decile: 30,
            max_seeds: 800,
            annotation_budget: 2_000,
            ..quick
        }
    };
    PipelineConfig {
        threads: ctx.threads,
        ..base
    }
}

fn setup(ctx: &Ctx, mode: Mode, tracer: &mut Tracer) -> Result<Service, String> {
    let run_dir = ctx.work.path().join("run");
    clear_run_dir(&run_dir).map_err(|e| format!("clear run dir: {e}"))?;
    let corpus = tracer.time("corpus.generate", 0, || {
        generate(&if ctx.tiny {
            CorpusConfig::tiny(ctx.seed)
        } else {
            CorpusConfig::small(ctx.seed)
        })
    });
    let docs = corpus.documents.len() as u64;
    tracer
        .time("core.pipeline_cth", docs, || {
            run_pipeline_resumable(&corpus, Task::Cth, &pipeline_config(ctx), &run_dir)
        })
        .map_err(|e| format!("cth pipeline: {e}"))?;
    drop(corpus);
    let (classifier, model_hash) =
        load_latest_classifier_with_hash(&run_dir).map_err(|e| format!("load model: {e}"))?;
    let requests = Requests::build(ctx, mode, &classifier, tracer);
    let journal = ctx.work.path().join("journal.log");
    std::fs::remove_file(&journal).ok();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: ctx.threads,
        deadline: Duration::from_secs(60),
        journal: Some(journal),
        ..ServeConfig::default()
    };
    let start = Instant::now();
    let handle = tracer
        .time("serve.boot", 1, || {
            Server::start_from_run_dir(&run_dir, config.clone())
        })
        .map_err(|e| format!("boot: {e}"))?;
    let boot_ms = ms(start.elapsed());
    Ok(Service {
        addr: handle.local_addr().to_string(),
        handle,
        run_dir,
        config,
        model_hash,
        classifier,
        requests,
        boot_ms,
    })
}

/// Whether a `/v1/score` body carries exactly `expected` as its bits,
/// generation 1, and `model_hash`.
fn response_ok(body: &str, expected: &[u32], model_hash: &str) -> bool {
    let after = |key: &str| body.find(key).map(|i| &body[i + key.len()..]);
    let bits_ok = after("\"bits\":[")
        .and_then(|rest| rest.split_once(']'))
        .is_some_and(|(list, _)| {
            let mut got = list.split(',').map(|b| b.trim().parse::<u32>().ok());
            expected.iter().all(|e| got.next() == Some(Some(*e))) && got.next().is_none()
        });
    let generation_ok =
        after("\"generation\":").is_some_and(|r| r.starts_with("1,") || r.starts_with("1}"));
    let hash_ok = after("\"model_hash\":\"")
        .and_then(|r| r.split_once('"'))
        .is_some_and(|(hash, _)| hash == model_hash);
    bits_ok && generation_ok && hash_ok
}

/// Requests one client can record per load phase. The buffers are
/// allocated and touched before the peak-RSS watermark resets, so the
/// benchmark's own bookkeeping never moves `peak_rss_mb`.
const SAMPLE_CAP: usize = 1 << 21;

/// One client's record of a load phase: each request's completion time
/// (µs since the phase began) and latency (ns).
struct ClientLog {
    end_us: Vec<u32>,
    latency_ns: Vec<u32>,
    attempted: u64,
    failed: u64,
}

impl ClientLog {
    fn new() -> Self {
        let touched = || {
            let mut buf = vec![1u32; SAMPLE_CAP];
            buf.clear();
            buf
        };
        ClientLog {
            end_us: touched(),
            latency_ns: touched(),
            attempted: 0,
            failed: 0,
        }
    }

    fn reset(&mut self) {
        self.end_us.clear();
        self.latency_ns.clear();
        self.attempted = 0;
        self.failed = 0;
    }
}

/// A closed-loop client: sends request `first`, then every `stride`-th
/// one after it, each only after the previous reply, until `until`.
fn client(
    service: &Service,
    log: &mut ClientLog,
    first: usize,
    stride: usize,
    origin: Instant,
    until: Instant,
) {
    let reqs = &service.requests;
    log.reset();
    let mut conn = HttpClient::connect(service.addr.as_str()).ok();
    let mut k = first;
    while Instant::now() < until && log.end_us.len() < SAMPLE_CAP {
        let Some(c) = conn.as_mut() else {
            log.attempted += 1;
            log.failed += 1;
            break;
        };
        let idx = k % reqs.bodies.len();
        k += stride;
        let start = Instant::now();
        let resp = c.post_json("/v1/score", &reqs.bodies[idx]);
        let end = Instant::now();
        log.attempted += 1;
        match resp {
            Ok(r)
                if r.status == 200
                    && response_ok(&r.body, &reqs.expected[idx], &service.model_hash) => {}
            Ok(_) => log.failed += 1,
            Err(_) => {
                log.failed += 1;
                conn = HttpClient::connect(service.addr.as_str()).ok();
            }
        }
        log.end_us.push((end - origin).as_micros() as u32);
        log.latency_ns
            .push(u32::try_from((end - start).as_nanos()).unwrap_or(u32::MAX));
    }
}

/// Throughput and peak-RSS windows: one second, or the whole phase if shorter.
fn window(duration: Duration) -> Duration {
    duration.min(Duration::from_secs(1))
}

/// Closed-loop load with one client per log for `duration`. Returns the
/// phase's start and the peak RSS (MB) of each of its windows.
fn load(service: &Service, logs: &mut [ClientLog], duration: Duration) -> (Instant, Vec<f64>) {
    let origin = Instant::now();
    let until = origin + duration;
    let conns = logs.len();
    let peaks = std::thread::scope(|s| {
        for (i, log) in logs.iter_mut().enumerate() {
            s.spawn(move || client(service, log, i, conns, origin, until));
        }
        let step = window(duration);
        let mut peaks = Vec::new();
        let mut next = origin + step;
        while next <= until {
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            peaks.push(sys::peak_rss_mb());
            sys::reset_peak_rss();
            next += step;
        }
        peaks
    });
    (origin, peaks)
}

/// Per-window figures of one load phase. Latency percentiles are taken
/// within each window; the reported ones are their medians over windows,
/// so a host-noise burst in a minority of windows does not move them.
struct Phase {
    /// Documents per second in each window.
    throughput: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    /// Fewest samples above its own p90 in any window.
    min_beyond_p90: usize,
    requests: usize,
    mean_ms: f64,
}

fn phase(
    report: &mut Report,
    logs: &[ClientLog],
    duration: Duration,
    docs_per_request: usize,
) -> Phase {
    let step = window(duration).as_micros() as u64;
    let n_windows = (duration.as_micros() as u64 / step).max(1) as usize;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n_windows];
    let (mut requests, mut total_ms) = (0, 0.0);
    for log in logs {
        report.attempted += log.attempted;
        report.failed += log.failed;
        for (end, ns) in log.end_us.iter().zip(&log.latency_ns) {
            let latency_ms = *ns as f64 / 1e6;
            requests += 1;
            total_ms += latency_ms;
            if let Some(w) = windows.get_mut((*end as u64 / step) as usize) {
                w.push(latency_ms);
            }
        }
    }
    let secs = step as f64 / 1e6;
    let p90_ms: Vec<f64> = windows.iter().map(|w| quantile(w, 0.9)).collect();
    Phase {
        throughput: windows
            .iter()
            .map(|w| (w.len() * docs_per_request) as f64 / secs)
            .collect(),
        p50_ms: windows.iter().map(|w| median(w)).collect(),
        min_beyond_p90: windows
            .iter()
            .zip(&p90_ms)
            .map(|(w, p90)| w.iter().filter(|l| *l > p90).count())
            .min()
            .unwrap_or(0),
        p90_ms,
        requests,
        mean_ms: total_ms / requests.max(1) as f64,
    }
}

impl Service {
    /// Drains and joins the server; the journal is complete afterwards.
    fn stop(self) {
        self.handle.join();
    }

    /// Drains the server, boots it again from the run dir, and returns the
    /// new service with the time from boot to the first checked reply.
    fn restart(self, report: &mut Report) -> Result<(Service, f64), String> {
        let Service {
            handle,
            run_dir,
            config,
            model_hash,
            classifier,
            requests,
            ..
        } = self;
        handle.join();
        let start = Instant::now();
        let handle = Server::start_from_run_dir(&run_dir, config.clone())
            .map_err(|e| format!("reboot: {e}"))?;
        let boot_ms = ms(start.elapsed());
        let addr = handle.local_addr().to_string();
        let ok = HttpClient::connect(addr.as_str())
            .and_then(|mut c| c.post_json("/v1/score", &requests.bodies[0]))
            .is_ok_and(|r| {
                r.status == 200 && response_ok(&r.body, &requests.expected[0], &model_hash)
            });
        let first_reply_ms = ms(start.elapsed());
        report.check(ok);
        let service = Service {
            handle,
            addr,
            run_dir,
            config,
            model_hash,
            classifier,
            requests,
            boot_ms,
        };
        Ok((service, first_reply_ms))
    }
}

/// Restarts the server `n` times, adding each boot-to-first-reply time
/// to `times`.
fn restarts(
    mut service: Service,
    n: usize,
    report: &mut Report,
    times: &mut Vec<f64>,
) -> Result<Service, String> {
    for _ in 0..n {
        let (next, first_reply_ms) = service.restart(report)?;
        service = next;
        times.push(first_reply_ms);
    }
    Ok(service)
}

fn warm_up(ctx: &Ctx) -> Duration {
    if ctx.tiny {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(1)
    }
}

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Report, String> {
    let mut report = Report::default();
    let (service, first_setup) = sys::timed_secs(|| setup(ctx, mode, &mut Tracer::off()))?;
    let mut setups = vec![first_setup];
    let per_side = if ctx.tiny { 2 } else { RESTARTS_PER_SIDE };
    let mut restart_ms = Vec::new();
    let service = restarts(service, per_side, &mut report, &mut restart_ms)?;
    let docs = service.requests.texts[0].len();
    let mut logs: Vec<ClientLog> = (0..ctx.threads).map(|_| ClientLog::new()).collect();
    sys::reset_peak_rss();
    load(&service, &mut logs, warm_up(ctx));
    phase(&mut report, &logs, warm_up(ctx), docs);

    let cpu_before = sys::process_cpu_ms();
    let (_, peaks) = load(&service, &mut logs, ctx.seconds);
    let cpu_ms = sys::process_cpu_ms() - cpu_before;
    let measured = phase(&mut report, &logs, ctx.seconds, docs);
    let counters = HttpClient::connect(service.addr.as_str())
        .and_then(|mut c| c.get("/metrics"))
        .map(|r| scrape(&r.body))
        .unwrap_or_default();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    println!(
        "journal backlog at the end of the load: {} record(s); window peak RSS (MB): {:?}",
        counter("score_requests_total") - counter("journal_records_total"),
        peaks.iter().map(|p| p.round() as u64).collect::<Vec<_>>()
    );

    restarts(service, per_side, &mut report, &mut restart_ms)?.stop();
    for _ in 1..SETUP_REPS {
        let (extra, secs) = sys::timed_secs(|| setup(ctx, mode, &mut Tracer::off()))?;
        extra.stop();
        setups.push(secs);
    }
    println!(
        "ops: {} measured request(s); at least {} above p90 in every one-second window (need >= 10); \
         window docs/s {:?}",
        measured.requests,
        measured.min_beyond_p90,
        measured
            .throughput
            .iter()
            .map(|w| w.round() as u64)
            .collect::<Vec<_>>()
    );
    report.metric("setup_s", median(&setups));
    report.metric("p50_ms", median(&measured.p50_ms));
    report.metric("p90_ms", median(&measured.p90_ms));
    report.metric("throughput_per_s", median(&measured.throughput));
    report.metric("cpu_ms_per_op", cpu_ms / measured.requests.max(1) as f64);
    report.metric("peak_rss_mb", median(&peaks));
    report.metric("resume_ms", sys::fastest(&restart_ms));
    Ok(report)
}

/// Parses the `incite_serve_*` counters of a `/metrics` body.
fn scrape(body: &str) -> BTreeMap<String, f64> {
    body.lines()
        .filter_map(|l| l.strip_prefix("incite_serve_"))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Median round trip of `GET /healthz` on one keep-alive connection.
fn healthz_rtt_us(service: &Service, reps: usize) -> Result<f64, String> {
    let mut conn = HttpClient::connect(service.addr.as_str()).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let resp = conn.get("/healthz").map_err(|e| e.to_string())?;
        times.push(us(start.elapsed()));
        if resp.status != 200 {
            return Err(format!("/healthz answered {}", resp.status));
        }
    }
    Ok(median(&times))
}

/// Median time of `http::read_request` over the workload's exact request
/// bytes, streamed by a writer thread over a loopback socket. The parser
/// takes a `BufReader<TcpStream>`, so this probe is the one place the
/// benchmark opens a socket without `HttpClient`.
fn http_parse_us(service: &Service, reps: usize) -> Result<f64, String> {
    use std::net::{TcpListener, TcpStream};
    let reqs = &service.requests;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let wire: Vec<Vec<u8>> = (0..reps)
        .map(|k| {
            let body = &reqs.bodies[k % reqs.bodies.len()];
            format!(
                "POST /v1/score HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    std::thread::scope(|s| {
        let writer = s.spawn(|| -> std::io::Result<()> {
            let mut conn = TcpStream::connect(addr)?;
            for bytes in &wire {
                conn.write_all(bytes)?;
            }
            conn.flush()
        });
        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let mut times = Vec::new();
        for k in 0..reps {
            let start = Instant::now();
            let got = read_request(&mut reader, &|| false, Duration::from_secs(30));
            times.push(us(start.elapsed()));
            match got {
                Ok(Received::Request(r))
                    if r.body.len() == reqs.bodies[k % reqs.bodies.len()].len() => {}
                _ => return Err(format!("request {k} did not parse back")),
            }
        }
        writer
            .join()
            .map_err(|_| "writer thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        Ok(median(&times))
    })
}

/// Median round trip of a job through `BoundedQueue::try_push` to a worker
/// thread's `pop_batch` and back over a `sync_channel`, as the service's
/// handler-to-worker handoff does.
fn queue_handoff_us(reps: usize) -> Result<f64, String> {
    let queue: BoundedQueue<(usize, SyncSender<usize>)> = BoundedQueue::new(256);
    std::thread::scope(|s| {
        s.spawn(|| loop {
            match queue.pop_batch(64, Duration::from_millis(50)) {
                PopBatch::Items(jobs) => {
                    for (i, reply) in jobs {
                        let _ = reply.send(i);
                    }
                }
                PopBatch::Idle => {}
                PopBatch::Drained => break,
            }
        });
        let mut times = Vec::new();
        for i in 0..reps {
            let (tx, rx) = sync_channel(1);
            let start = Instant::now();
            if queue.try_push((i, tx)).is_err() {
                queue.close();
                return Err("queue refused a job".to_string());
            }
            let back = rx.recv();
            times.push(us(start.elapsed()));
            if back != Ok(i) {
                queue.close();
                return Err("queue handoff lost a job".to_string());
            }
        }
        queue.close();
        Ok(median(&times))
    })
}

pub fn traced(ctx: &Ctx, mode: Mode) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let service = setup(ctx, mode, &mut tracer)?;
    let docs = service.requests.texts[0].len();
    let mut logs: Vec<ClientLog> = (0..ctx.threads).map(|_| ClientLog::new()).collect();
    load(&service, &mut logs, warm_up(ctx));
    phase(&mut report, &logs, warm_up(ctx), docs);

    // Untraced, then traced halves of the load: the gap between their
    // medians is the tracing overhead.
    let half = ctx.seconds / 2;
    load(&service, &mut logs, half);
    let untraced = phase(&mut report, &logs, half, docs);
    tracer.set_op(1);
    let (origin, _) = load(&service, &mut logs, half);
    let mut op = 0;
    for log in &logs {
        for (end_us, latency_ns) in log.end_us.iter().zip(&log.latency_ns) {
            op += 1;
            let end = origin + Duration::from_micros(u64::from(*end_us));
            let start = end - Duration::from_nanos(u64::from(*latency_ns));
            tracer.record("serve.request", start, end, op, docs as u64);
        }
    }
    let traced = phase(&mut report, &logs, half, docs);
    let traced_p50_us = 1e3 * median(&traced.p50_ms);
    let untraced_p50_us = 1e3 * median(&untraced.p50_ms);
    let mean_us = 1e3 * traced.mean_ms;

    // Server-side counters, scraped before any probe adds requests.
    let counters = HttpClient::connect(service.addr.as_str())
        .and_then(|mut c| c.get("/metrics"))
        .map(|r| scrape(&r.body))
        .map_err(|e| format!("/metrics: {e}"))?;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let requests = counter("score_requests_total");
    let server_mean_us =
        1e6 * counter("latency_seconds_sum") / counter("latency_seconds_count").max(1.0);
    let docs_per_batch = counter("documents_scored_total") / counter("batches_total").max(1.0);
    let refused = counter("rejected_overload_total")
        + counter("deadline_expired_total")
        + counter("worker_errors_total")
        + counter("journal_errors_total");

    let reps = match (ctx.tiny, mode) {
        (true, _) => 20,
        (false, Mode::Single) => 2_000,
        (false, Mode::Bulk) => 200,
    };
    tracer.set_op(2);
    let healthz = tracer.time("serve.healthz_probe", reps as u64, || {
        healthz_rtt_us(&service, reps)
    })?;
    let parse = tracer.time("serve.http_parse_probe", reps as u64, || {
        http_parse_us(&service, reps)
    })?;
    let handoff = tracer.time("serve.queue_handoff_probe", reps as u64, || {
        queue_handoff_us(reps)
    })?;

    // Per-request layer times on the workload's own request texts.
    let reqs = &service.requests;
    let threads = ctx.threads;
    let featurizer = service.classifier.featurizer();
    let (mut normalize, mut tokenize, mut featurize, mut csr, mut score) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for k in 0..reps {
        let idx = k % reqs.texts.len();
        let texts: Vec<&str> = reqs.texts[idx].iter().map(String::as_str).collect();
        let n = texts.len();
        let start = Instant::now();
        let normalized = tracer.time("textkit.normalize", n as u64, || {
            map_indexed(n, threads, |i| incite_textkit::normalize(texts[i]))
        });
        normalize.push(ms(start.elapsed()));
        let normalized = normalized.map_err(|e| e.to_string())?;
        let start = Instant::now();
        tracer
            .time("textkit.tokenize", n as u64, || {
                map_indexed(n, threads, |i| {
                    incite_textkit::tokenize(&normalized[i]).len()
                })
            })
            .map_err(|e| e.to_string())?;
        tokenize.push(ms(start.elapsed()));
        let start = Instant::now();
        let rows = tracer
            .time("ml.featurize", n as u64, || {
                map_indexed(n, threads, |i| featurizer.features(texts[i]))
            })
            .map_err(|e| e.to_string())?;
        featurize.push(ms(start.elapsed()));
        let start = Instant::now();
        tracer.time("ml.csr_build", n as u64, || {
            FeatureMatrix::from_rows(featurizer.dimensions(), rows.iter())
        });
        csr.push(ms(start.elapsed()));
        let start = Instant::now();
        let scores = tracer
            .time("serve.score_texts", n as u64, || {
                ScoringEngine::score_texts(&service.classifier, &texts, threads)
            })
            .map_err(|e| e.to_string())?;
        score.push(us(start.elapsed()));
        let bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
        report.check(bits == reqs.expected[idx]);
    }

    // Journal appends of records the size this workload journals.
    let mut log = AppendLog::open(&ctx.work.path().join("append-probe.log"))
        .map_err(|e| format!("open probe journal: {e}"))?;
    let mut appends = Vec::new();
    for k in 0..reps {
        let idx = k % reqs.texts.len();
        let record = JournalRecord {
            seq: k as u64,
            generation: 1,
            model_hash: service.model_hash.clone(),
            run_dir: service.run_dir.display().to_string(),
            tenant: "default".to_string(),
            texts: reqs.texts[idx].clone(),
            bits: reqs.expected[idx].clone(),
        };
        let line = serde_json::to_string(&record).map_err(|e| e.to_string())?;
        let start = Instant::now();
        tracer
            .time("serve.journal_append", 1, || log.append(line.as_bytes()))
            .map_err(|e| format!("journal append: {e}"))?;
        appends.push(us(start.elapsed()));
    }
    let boot_ms = service.boot_ms;
    service.stop();

    let score_us = median(&score);
    let covered_us = parse + handoff + score_us;
    print!("{}", tracer.table());
    println!(
        "bases: {requests} score request(s) served; {} client request(s) in the traced half; \
         {reps} probe call(s) per layer; refused {refused} of {requests} request(s); \
         {docs_per_batch:.1} docs per micro-batch",
        traced.requests
    );
    println!(
        "reconciliation: client mean {mean_us:.1} us, server mean {server_mean_us:.1} us; \
         http_parse {parse:.1} + queue_handoff {handoff:.1} + score_texts {score_us:.1} = {covered_us:.1} us \
         ({:.1}% of the client mean); remainder {:.1} us (socket I/O, response encode, scheduling); \
         journal_append {:.1} us runs off the response path",
        100.0 * covered_us / mean_us,
        mean_us - covered_us,
        median(&appends)
    );
    println!(
        "trace overhead: traced p50 {traced_p50_us:.2} us vs untraced p50 {untraced_p50_us:.2} us"
    );

    let layers = tracer.layers();
    let layer_ms = |name: &str| layers.get(name).map_or(0.0, |s| s.total_ms);
    report.metric("corpus.generate_ms", layer_ms("corpus.generate"));
    report.metric("textkit.normalize_ms", median(&normalize));
    report.metric("textkit.tokenize_ms", median(&tokenize));
    report.metric("ml.featurize_ms", median(&featurize));
    report.metric("ml.csr_build_ms", median(&csr));
    report.metric("serve.boot_ms", boot_ms);
    report.metric("serve.healthz_rtt_us", healthz);
    report.metric("serve.server_mean_us", server_mean_us);
    report.metric("serve.http_parse_us", parse);
    report.metric("serve.queue_handoff_us", handoff);
    report.metric("serve.score_texts_us", score_us);
    report.metric("serve.journal_append_us", median(&appends));
    report.metric("serve.docs_per_batch", docs_per_batch);
    report.metric("serve.refused", refused);
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_p50_us - untraced_p50_us) / untraced_p50_us,
    );
    report.metric("trace.coverage_pct", 100.0 * covered_us / mean_us);
    tracer
        .write_jsonl(&ctx.trace_out)
        .map_err(|e| format!("write trace: {e}"))?;
    println!("spans written to {}", ctx.trace_out.display());
    Ok(report)
}
