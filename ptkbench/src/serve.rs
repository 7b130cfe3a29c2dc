//! The three `serve_*` workloads: `ptk serve` as a child process, two
//! closed-loop clients over real loopback sockets, every response checked
//! against one-shot `ptk sql` after the timed window.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ptk_core::UncertainTable;
use ptk_datagen::{IipConfig, IipDataset, SyntheticConfig, SyntheticDataset};

use crate::check::{expected_all, Expected};
use crate::client::{self, fnv1a, Cache};
use crate::daemon::Daemon;
use crate::replay::{layer, Counts, Replayer};
use crate::report::{Outcome, PerOp};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::stream::{self, Entry, Kind, RequestStream, TableSpec, Workload};
use crate::Env;

/// Closed-loop clients: the daemon's callers each wait for their reply,
/// and the machine has two cores.
const CLIENTS: usize = 2;
/// The daemon's pool width (`ptk serve --threads`), also used by the
/// one-shot reference and the replay.
pub const THREADS: usize = 2;
/// Daemon starts per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Untimed load before the window, so the first timed requests do not
/// pay for cold caches in the kernel and the allocator.
const WARMUP: Duration = Duration::from_secs(1);
/// Interval of the `GET /metrics` scrape on `serve_repeat`.
const SCRAPE_EVERY: Duration = Duration::from_secs(1);

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Global request number (shared by its spans).
    id: u64,
    entry: u32,
    /// HTTP status; 0 when the connection or the response was broken.
    status: u16,
    cache: Cache,
    hash: u64,
    start: Instant,
    sent: Instant,
    done: Instant,
}

/// What one timed window produced.
struct Window {
    samples: Vec<Sample>,
    /// First body per entry, among responses with the entry's status.
    bodies: HashMap<u32, Vec<u8>>,
    elapsed: Duration,
    scrapes: u64,
    scrape_failures: u64,
    log: SpanLog,
}

fn design_status(kind: Kind) -> u16 {
    if kind.is_error() {
        400
    } else {
        200
    }
}

/// Generates the workload's table and renders it as CSV text, the form
/// `ptk generate` prints and `ptk serve` loads.
fn table_csv(spec: TableSpec) -> String {
    let table = match spec {
        TableSpec::Iip => {
            IipDataset::generate(&IipConfig {
                tuples: 20_000,
                rules: 2_000,
                seed: stream::TABLE_SEED,
            })
            .table
        }
        TableSpec::Synthetic => {
            SyntheticDataset::generate(&SyntheticConfig::with_seed(stream::TABLE_SEED)).table
        }
    };
    ptk_cli::load::save_table(&table)
}

/// Runs one serve workload.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: &Env,
) -> Result<Outcome, String> {
    let spec = stream::table_spec(workload).expect("serve workloads load a table");
    let csv_text = table_csv(spec);
    let csv = env.work.join("table.csv");
    std::fs::write(&csv, &csv_text).map_err(|e| format!("{}: {e}", csv.display()))?;
    let stream = stream::requests(workload, seed);
    let extra: &[&str] = match workload {
        Workload::ServeRepeat => &[],
        _ => &["--cache", "0"],
    };
    let scrape = workload == Workload::ServeRepeat;
    let ready = env.work.join("ready");

    let mut setups = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            Daemon::shutdown(previous)?;
        }
        let (d, took) = Daemon::spawn(&env.ptk, &csv, &ready, extra)?;
        setups.push(took.as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one start");
    let addr = daemon.addr();

    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    drive(addr, &stream, &next, WARMUP, None, false);
    let (untraced, traced) = if trace {
        let half = Duration::from_secs_f64(seconds / 2.0);
        let untraced = drive(addr, &stream, &next, half, None, scrape);
        let traced = drive(addr, &stream, &next, half, Some(epoch), scrape);
        (untraced, Some(traced))
    } else {
        (
            drive(
                addr,
                &stream,
                &next,
                Duration::from_secs_f64(seconds),
                None,
                scrape,
            ),
            None,
        )
    };
    let server_counters = scrape_counters(addr)?;
    let rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown()?;

    // Check every response outside the timed window.
    let mut windows = vec![&untraced];
    windows.extend(traced.as_ref());
    let mut wanted: Vec<usize> = windows
        .iter()
        .flat_map(|w| w.samples.iter().map(|s| s.entry as usize))
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    let expected = expected_all(&stream.entries, &wanted, &csv, THREADS);
    let mut verdicts = Verdicts::default();
    let correct: Vec<usize> = windows
        .iter()
        .map(|w| verdicts.add(w, &stream.entries, &expected))
        .collect();
    let rates: Vec<f64> = windows
        .iter()
        .zip(&correct)
        .map(|(w, &n)| n as f64 / w.elapsed.as_secs_f64())
        .collect();

    let mut outcome = Outcome::new(
        verdicts.attempted,
        verdicts.failed,
        verdicts.mismatched == 0,
    );
    outcome.line(format!(
        "{}: {} requests ({} distinct), {} failed ({} wrong bytes), failed_frac {}",
        workload.name(),
        verdicts.attempted,
        wanted.len(),
        verdicts.failed,
        verdicts.mismatched,
        verdicts.failed as f64 / verdicts.attempted.max(1) as f64
    ));
    if scrape {
        outcome.line(format!(
            "metrics scrapes: {} ({} failed)",
            windows.iter().map(|w| w.scrapes).sum::<u64>(),
            windows.iter().map(|w| w.scrape_failures).sum::<u64>()
        ));
    }

    let untraced_qps = rates[0];
    outcome.line(format!(
        "throughput_qps: {untraced_qps} correct responses per second ({} in {:.3} s)",
        correct[0],
        untraced.elapsed.as_secs_f64()
    ));
    match traced {
        None => {
            let per_op = per_op(&untraced, &stream.entries, &expected);
            outcome.end_to_end(&per_op, median(&mut setups).unwrap_or(0.0), rss_mb);
            per_op.describe(&mut outcome);
        }
        Some(traced) => {
            let traced_qps = rates[1];
            let table = ptk_cli::load::load_table(&csv_text)?;
            let replay = per_layer(
                &mut outcome,
                workload,
                &stream,
                &traced,
                &expected,
                &table,
                seconds,
                &server_counters,
            );
            outcome.metric("trace.overhead_frac", traced_qps / untraced_qps - 1.0);
            outcome.line(format!(
                "trace overhead: traced {traced_qps:.1} qps / untraced {untraced_qps:.1} qps ({} vs {} responses)",
                correct[1],
                correct[0]
            ));
            let mut log = traced.log;
            log.append(replay);
            let trace_path = env
                .out
                .join(format!("trace-{}-{seed}.json", workload.name()));
            outcome.trace_file(&trace_path, &log.to_chrome_json())?;
        }
    }
    Ok(outcome)
}

/// Runs the closed loop for `duration`: `CLIENTS` threads each send the
/// next request of the stream as soon as their previous one completes.
fn drive(
    addr: SocketAddr,
    stream: &RequestStream,
    next: &AtomicUsize,
    duration: Duration,
    traced: Option<Instant>,
    scrape: bool,
) -> Window {
    let start = Instant::now();
    let deadline = start + duration;
    let epoch = traced.unwrap_or(start);
    let (clients, scrapes) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|lane| {
                scope.spawn(move || {
                    client_loop(
                        addr,
                        stream,
                        next,
                        deadline,
                        traced.is_some(),
                        epoch,
                        lane as u32,
                    )
                })
            })
            .collect();
        let scraper = scrape.then(|| scope.spawn(move || scrape_loop(addr, deadline)));
        let clients: Vec<_> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let scrapes = scraper.map_or((0, 0), |h| h.join().expect("scraper thread panicked"));
        (clients, scrapes)
    });
    let mut window = Window {
        samples: Vec::new(),
        bodies: HashMap::new(),
        elapsed: Duration::ZERO,
        scrapes: scrapes.0,
        scrape_failures: scrapes.1,
        log: SpanLog::new(epoch),
    };
    for (samples, bodies, log) in clients {
        window.samples.extend(samples);
        for (k, v) in bodies {
            window.bodies.entry(k).or_insert(v);
        }
        window.log.append(log);
    }
    let last = window.samples.iter().map(|s| s.done).max().unwrap_or(start);
    window.elapsed = last
        .saturating_duration_since(start)
        .max(Duration::from_micros(1));
    window.samples.sort_by_key(|s| s.id);
    window
}

type ClientOutput = (Vec<Sample>, HashMap<u32, Vec<u8>>, SpanLog);

fn client_loop(
    addr: SocketAddr,
    stream: &RequestStream,
    next: &AtomicUsize,
    deadline: Instant,
    traced: bool,
    epoch: Instant,
    lane: u32,
) -> ClientOutput {
    let mut samples = Vec::new();
    let mut bodies: HashMap<u32, Vec<u8>> = HashMap::new();
    let mut log = SpanLog::new(epoch);
    while Instant::now() < deadline {
        let id = next.fetch_add(1, Ordering::Relaxed);
        let entry_index = stream.order[id % stream.order.len()];
        let entry = &stream.entries[entry_index as usize];
        let start = Instant::now();
        let sample = match client::exchange(addr, &entry.request, entry.kind == Kind::HttpError) {
            Ok((response, timing)) => {
                let hash = fnv1a(&response.body);
                if response.status == design_status(entry.kind) {
                    bodies.entry(entry_index).or_insert(response.body);
                }
                Sample {
                    id: id as u64,
                    entry: entry_index,
                    status: response.status,
                    cache: response.cache,
                    hash,
                    start: timing.start,
                    sent: timing.sent,
                    done: timing.done,
                }
            }
            Err(_) => {
                let done = Instant::now();
                Sample {
                    id: id as u64,
                    entry: entry_index,
                    status: 0,
                    cache: Cache::None,
                    hash: 0,
                    start,
                    sent: done,
                    done,
                }
            }
        };
        if traced {
            let root = log.push("request", sample.start, sample.done, None, sample.id, lane);
            log.push(
                "serve.connect",
                sample.start,
                sample.sent,
                Some(root),
                sample.id,
                lane,
            );
            log.push(
                "serve.response",
                sample.sent,
                sample.done,
                Some(root),
                sample.id,
                lane,
            );
        }
        samples.push(sample);
    }
    (samples, bodies, log)
}

/// Scrapes `GET /metrics` every second until `deadline`; returns
/// (scrapes, failures).
fn scrape_loop(addr: SocketAddr, deadline: Instant) -> (u64, u64) {
    let (mut scrapes, mut failures) = (0, 0);
    let mut due = Instant::now();
    while due < deadline {
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        scrapes += 1;
        if client::get(addr, "/metrics").is_err() {
            failures += 1;
        }
        due += SCRAPE_EVERY;
    }
    (scrapes, failures)
}

/// The daemon's counters from one `/metrics` scrape (absent counters are
/// zero).
fn scrape_counters(addr: SocketAddr) -> Result<BTreeMap<String, u64>, String> {
    let page = client::get(addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
    Ok(page
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .collect())
}

/// Pass/fail of every sample against its expected answer.
#[derive(Default)]
struct Verdicts {
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

impl Verdicts {
    /// Judges a window's samples; returns how many were correct.
    fn add(&mut self, window: &Window, entries: &[Entry], expected: &[Option<Expected>]) -> usize {
        self.attempted += window.samples.len() as u64 + window.scrapes;
        self.failed += window.scrape_failures;
        let mut correct = 0;
        for s in &window.samples {
            match judge(s, entries, expected, window) {
                Judgement::Correct => correct += 1,
                Judgement::Failed => self.failed += 1,
                Judgement::WrongBytes => {
                    self.failed += 1;
                    self.mismatched += 1;
                }
            }
        }
        correct
    }
}

enum Judgement {
    Correct,
    /// Refused, timed out, broken or answered with another status.
    Failed,
    /// The right status with the wrong bytes.
    WrongBytes,
}

fn judge(
    s: &Sample,
    entries: &[Entry],
    expected: &[Option<Expected>],
    window: &Window,
) -> Judgement {
    let entry = &entries[s.entry as usize];
    if s.status != design_status(entry.kind) {
        return Judgement::Failed;
    }
    let Some(want) = &expected[s.entry as usize] else {
        return Judgement::WrongBytes;
    };
    let first_matches = window.bodies.get(&s.entry).is_some_and(|b| *b == want.body);
    if want.status == s.status && s.hash == fnv1a(&want.body) && first_matches {
        Judgement::Correct
    } else {
        Judgement::WrongBytes
    }
}

fn op_name(kind: Kind, cache: Cache) -> &'static str {
    if cache == Cache::Hit {
        return "cache_hit";
    }
    match kind {
        Kind::Ptk => "ptk",
        Kind::Semantics => "semantics",
        Kind::Sampling => "sampling",
        Kind::Batch => "batch",
        Kind::SqlError | Kind::HttpError => "error",
    }
}

fn per_op(window: &Window, entries: &[Entry], expected: &[Option<Expected>]) -> PerOp {
    let samples: Vec<(u64, &'static str, f64)> = window
        .samples
        .iter()
        .filter(|s| matches!(judge(s, entries, expected, window), Judgement::Correct))
        .map(|s| {
            // A cache hit and a miss of one statement cost different work.
            let key = u64::from(s.entry) << 1 | u64::from(s.cache == Cache::Hit);
            let ms = s.done.duration_since(s.start).as_secs_f64() * 1e3;
            (key, op_name(entries[s.entry as usize].kind, s.cache), ms)
        })
        .collect();
    PerOp::new(&samples)
}

/// The per-layer metrics of a traced serve run; returns the replay's
/// spans (on the traced window's clock).
#[allow(clippy::too_many_arguments)]
fn per_layer(
    outcome: &mut Outcome,
    workload: Workload,
    stream: &RequestStream,
    traced: &Window,
    expected: &[Option<Expected>],
    table: &UncertainTable,
    seconds: f64,
    counters: &BTreeMap<String, u64>,
) -> SpanLog {
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let (hits, misses) = (
        counter("ptk_serve_cache_hits"),
        counter("ptk_serve_cache_misses"),
    );
    let rejected = counter("ptk_serve_rejected_queue_full") + counter("ptk_serve_rejected_timeout");
    outcome.metric("serve.cache_hits", hits as f64);
    outcome.metric("serve.cache_misses", misses as f64);
    outcome.metric(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    outcome.metric("serve.rejected", rejected as f64);

    // Connect time of every traced request.
    let mut connect: Vec<f64> = traced
        .samples
        .iter()
        .map(|s| s.sent.duration_since(s.start).as_secs_f64() * 1e6)
        .collect();
    let connect_n = connect.len();
    outcome.layer("serve.connect_us", median(&mut connect), connect_n);

    // Replay the correct traced requests in order, within a time budget.
    let replayer = Replayer::new(table, THREADS);
    let mut log = SpanLog::new(traced.log.epoch());
    let budget = Duration::from_secs_f64((seconds / 4.0).clamp(1.0, 10.0));
    let started = Instant::now();
    let mut replayed: Vec<(&Sample, Counts)> = Vec::new();
    for s in &traced.samples {
        if started.elapsed() > budget {
            break;
        }
        if !matches!(
            judge(s, &stream.entries, expected, traced),
            Judgement::Correct
        ) {
            continue;
        }
        let entry = &stream.entries[s.entry as usize];
        let body = traced.bodies.get(&s.entry).map_or(&[][..], Vec::as_slice);
        let counts = replayer.replay(entry, s.cache, s.status, body, &mut log, s.id);
        replayed.push((s, counts));
    }

    // Per request, the summed self time of each layer.
    let self_times = log.self_times();
    let mut per_request: HashMap<u64, BTreeMap<&'static str, u64>> = HashMap::new();
    for (span, t) in log.spans().iter().zip(&self_times) {
        *per_request
            .entry(span.request)
            .or_default()
            .entry(span.name)
            .or_default() += t;
    }
    for name in [
        layer::PARSE,
        layer::BIND,
        layer::RANK,
        layer::PLAN,
        layer::EXEC,
        layer::SAMPLING,
        layer::BATCH,
        layer::HTTP_CODEC,
    ] {
        let mut values: Vec<f64> = per_request
            .values()
            .filter_map(|m| m.get(name))
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        let n = values.len();
        outcome.layer(&format!("{name}_us"), median(&mut values), n);
    }
    // Per replayed request, in µs: (wall, connect, wall − library layers).
    let split: Vec<(f64, f64, f64)> = replayed
        .iter()
        .map(|(s, _)| {
            let wall = s.done.duration_since(s.start).as_nanos() as f64 / 1e3;
            let connect = s.sent.duration_since(s.start).as_nanos() as f64 / 1e3;
            let library: u64 = per_request
                .get(&s.id)
                .map_or(0, |m| layer::LIBRARY.iter().filter_map(|n| m.get(n)).sum());
            (wall, connect, wall - library as f64 / 1e3)
        })
        .collect();
    let mut other: Vec<f64> = split.iter().map(|&(_, c, outside)| outside - c).collect();
    let other_n = other.len();
    outcome.layer("serve.other_us", median(&mut other), other_n);

    let mut view: Vec<f64> = replayed
        .iter()
        .filter_map(|(_, c)| c.view_tuples)
        .map(|v| v as f64)
        .collect();
    let view_n = view.len();
    outcome.layer("core.view_tuples", median(&mut view), view_n);
    let engine: Vec<(ptk_engine::ExecStats, usize)> = replayed
        .iter()
        .filter_map(|(_, c)| Some((c.engine?, c.view_tuples?)))
        .collect();
    let engine_n = engine.len();
    let stat = |f: &dyn Fn(&(ptk_engine::ExecStats, usize)) -> f64| {
        let mut v: Vec<f64> = engine.iter().map(f).collect();
        median(&mut v)
    };
    outcome.layer("engine.scanned", stat(&|(e, _)| e.scanned as f64), engine_n);
    outcome.layer(
        "engine.scan_ratio",
        stat(&|(e, n)| e.scanned as f64 / (*n).max(1) as f64),
        engine_n,
    );
    outcome.layer(
        "engine.dp_cells",
        stat(&|(e, _)| e.dp_cells as f64),
        engine_n,
    );
    outcome.layer("engine.pruned", stat(&|(e, _)| e.pruned() as f64), engine_n);
    let mut units: Vec<f64> = replayed
        .iter()
        .filter_map(|(_, c)| c.sampling_units)
        .map(|u| u as f64)
        .collect();
    let units_n = units.len();
    outcome.layer("sampling.units", median(&mut units), units_n);
    outcome.line(format!(
        "replayed {} of {} traced requests through the library layers",
        replayed.len(),
        traced.samples.len()
    ));

    let layer_of = |name: &str| outcome.value(name).unwrap_or(0.0);
    match workload {
        Workload::ServePoint => {
            let (rank, exec) = (layer_of("core.rank_us"), layer_of("engine.exec_us"));
            outcome.line(format!(
                "first number (serve_point): core.rank_us : engine.exec_us = {rank:.1} us : {exec:.1} us, \
                 rank share {:.1}% (medians over {} and {} replayed requests)",
                100.0 * rank / (rank + exec),
                outcome.count("core.rank_us"),
                outcome.count("engine.exec_us")
            ));
        }
        Workload::ServeRepeat => {
            // Medians do not add, so the share is taken per request (its
            // median) and over the summed wall time.
            let mut shares: Vec<f64> = split.iter().map(|&(w, _, out)| out / w).collect();
            let typical = median(&mut shares).unwrap_or(0.0);
            let (wall, outside) = split
                .iter()
                .fold((0.0, 0.0), |(w, o), s| (w + s.0, o + s.2));
            outcome.line(format!(
                "first number (serve_repeat): serve.connect_us + serve.other_us (everything but the \
                 library layers) is {:.1}% of the median request and {:.1}% of the summed wall time \
                 ({:.1} of {:.1} ms over {other_n} replayed requests)",
                100.0 * typical,
                100.0 * outside / wall,
                outside / 1e3,
                wall / 1e3
            ));
            outcome.line(format!(
                "first number (serve_repeat): serve.cache_hit_ratio = {:.4} ({hits} hits / {} lookups, \
                 Zipf s={} over {} statements, cache 256)",
                hits as f64 / (hits + misses).max(1) as f64,
                hits + misses,
                stream::REPEAT_ZIPF,
                stream::REPEAT_POOL
            ));
        }
        _ => {}
    }
    log
}
