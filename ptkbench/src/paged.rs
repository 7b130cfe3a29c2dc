//! `scan_paged`: PT-k scans in-process over a block-native PTKRUN02 run
//! through a buffer pool smaller than the blocks a scan touches, checked
//! against the in-memory `SortedVecSource` path.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ptk_access::{
    counters, write_run_blocked, PagedRun, PoolConfig, RankedSource, SnapshotSource,
    SortedVecSource, DEFAULT_FRAME_BYTES,
};
use ptk_datagen::{deep_scan_rows, DeepScanConfig};
use ptk_engine::{EngineOptions, ExecStats, PtkExecutor, PtkPlan, PtkResult};
use ptk_obs::{Metrics, SharedRecorder};

use crate::client::fnv1a;
use crate::daemon::peak_rss_mb;
use crate::report::{Outcome, PerOp};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::stream::scans;
use crate::Env;

/// Block size of the packed run: about 590 blocks of 4 KiB.
const BLOCK_BYTES: u32 = 4 << 10;
/// Pool frames: fewer than the blocks one scan touches, so it evicts.
const POOL_FRAMES: usize = 8;
/// Rows of the low-probability, rule-free tail.
const TAIL: usize = 100_000;
/// Seed of the run-file fixture (the one the `fig5_block_scan` bench
/// uses); the run seed draws the scans. Deep-scan cost swings with the
/// few strong head tuples, so a per-run file would swamp run-to-run
/// comparisons.
const FIXTURE_SEED: u64 = 17;
/// Timed samples of `PagedRun::open_recorded` per run; `setup_s` is
/// their median.
const SETUPS: usize = 15;
/// Opens per sample: one open reads a 24-byte header and a 21 KB
/// directory from the page cache in tens of microseconds, so a sample
/// times many and reports their mean.
const OPENS_PER_SETUP: usize = 128;
const WARMUP: Duration = Duration::from_secs(1);
/// Scans per second of window that the records are sized for, about ten
/// times what the code this benchmark was written against completes.
const MAX_SCANS_PER_SECOND: f64 = 2_000.0;

/// What a scan returns that must match the in-memory path: answer ids,
/// `to_bits` probabilities and scan depth.
fn digest(result: &PtkResult, depth: usize) -> u64 {
    let mut bytes = Vec::with_capacity(result.answers.len() * 16 + 8);
    for a in &result.answers {
        bytes.extend_from_slice(&(a.id.index() as u64).to_le_bytes());
        bytes.extend_from_slice(&a.probability.to_bits().to_le_bytes());
    }
    bytes.extend_from_slice(&(depth as u64).to_le_bytes());
    fnv1a(&bytes)
}

/// The access counters recorded per traced scan.
const ACCESS: [&str; 6] = [
    counters::BLOCK_READ,
    counters::BLOCK_SKIP,
    counters::BLOCK_DECODE_BYTES,
    counters::POOL_EVICT,
    counters::POOL_HIT,
    counters::POOL_MISS,
];

fn access_counters(metrics: &Metrics) -> [u64; 6] {
    let snapshot = metrics.snapshot();
    ACCESS.map(|name| snapshot.counter(name))
}

/// One scan as measured.
#[derive(Default)]
struct Scan {
    id: u64,
    entry: u32,
    digest: u64,
    /// The cursor reported an IO or checksum error.
    io_error: bool,
    nanos: u64,
    /// Tuples the cursor handed out (the scan depth).
    depth: usize,
    /// Traced runs only; boxed to keep the records that `drive` writes
    /// before its window small.
    detail: Option<Box<Detail>>,
}

/// What a traced scan records besides its timing.
struct Detail {
    stats: ExecStats,
    /// [`ACCESS`] counters of this scan alone.
    access: [u64; 6],
}

struct Window {
    scans: Vec<Scan>,
    elapsed: Duration,
    log: SpanLog,
}

/// The rows of the run-file fixture.
fn fixture_rows() -> Vec<(f64, f64, Option<u32>)> {
    deep_scan_rows(&DeepScanConfig {
        head: 48,
        decoys: 4,
        tail: TAIL,
        head_rules: 4,
        seed: FIXTURE_SEED,
    })
}

/// Packs the fixture as PTKRUN02 at `path` (`ptkbench --write-fixture
/// <path>`).
pub fn write_fixture(path: &Path) -> Result<(), String> {
    write_run_blocked(path, &fixture_rows(), BLOCK_BYTES)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs `scan_paged`.
pub fn run(seed: u64, seconds: f64, trace: bool, env: &Env) -> Result<Outcome, String> {
    // A child process writes the fixture, so the rows and the write
    // buffers never count in this process's peak RSS.
    let path = env.work.join("deep.run");
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let status = Command::new(exe)
        .arg("--write-fixture")
        .arg(&path)
        .status()
        .map_err(|e| format!("writing the fixture: {e}"))?;
    if !status.success() {
        return Err(format!("writing the fixture: {status}"));
    }
    let (pool, order) = scans(seed);
    let options = EngineOptions::default();
    let plans: Vec<PtkPlan> = pool
        .iter()
        .map(|&(k, p)| PtkPlan::try_new(k, p, &options))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let metrics = Arc::new(Metrics::new());
        let started = Instant::now();
        for _ in 0..OPENS_PER_SETUP {
            open(&path, &metrics)?;
        }
        setups.push(started.elapsed().as_secs_f64() / OPENS_PER_SETUP as f64);
    }
    let metrics = Arc::new(Metrics::new());
    let run = open(&path, &metrics)?;

    let mut next = 0usize;
    let epoch = Instant::now();
    drive(&run, &pool, &order, &options, &mut next, WARMUP, None);
    let (untraced, traced) = if trace {
        let half = Duration::from_secs_f64(seconds / 2.0);
        let untraced = drive(&run, &pool, &order, &options, &mut next, half, None);
        let traced = drive(
            &run,
            &pool,
            &order,
            &options,
            &mut next,
            half,
            Some((epoch, &*metrics)),
        );
        (untraced, Some(traced))
    } else {
        let window = drive(
            &run,
            &pool,
            &order,
            &options,
            &mut next,
            Duration::from_secs_f64(seconds),
            None,
        );
        (window, None)
    };
    let rss_mb = peak_rss_mb(Path::new("/proc/self/status"))?;

    // The in-memory oracle, outside the timed window and after the RSS
    // read.
    let memory = SortedVecSource::from_unsorted(fixture_rows()).map_err(|e| e.to_string())?;
    let oracle: HashMap<u32, u64> = untraced
        .scans
        .iter()
        .chain(traced.iter().flat_map(|w| &w.scans))
        .map(|s| s.entry)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|e| {
            let mut cursor = memory.fork();
            let result = PtkExecutor::new(&plans[e as usize]).execute(&mut *cursor);
            (e, digest(&result, cursor.retrieved()))
        })
        .collect();
    let judge = |s: &Scan| !s.io_error && oracle.get(&s.entry) == Some(&s.digest);
    let all = || {
        untraced
            .scans
            .iter()
            .chain(traced.iter().flat_map(|w| &w.scans))
    };
    let attempted = all().count() as u64;
    let wrong = all().filter(|s| !s.io_error && !judge(s)).count() as u64;
    let failed = all().filter(|s| !judge(s)).count() as u64;
    let mut outcome = Outcome::new(attempted, failed, wrong == 0);
    outcome.line(format!(
        "scan_paged: {attempted} scans ({} distinct (k, p)), {failed} failed ({wrong} wrong answers), \
         failed_frac {}; {} tuples in {} blocks of {BLOCK_BYTES} B, {POOL_FRAMES}-frame pool",
        oracle.len(),
        failed as f64 / attempted.max(1) as f64,
        run.tuples(),
        run.directory().len()
    ));
    let correct_qps =
        |w: &Window| w.scans.iter().filter(|s| judge(s)).count() as f64 / w.elapsed.as_secs_f64();

    match traced {
        None => {
            let samples: Vec<(u64, &'static str, f64)> = untraced
                .scans
                .iter()
                .filter(|s| judge(s))
                .map(|s| (u64::from(s.entry), "ptk", s.nanos as f64 / 1e6))
                .collect();
            let per_op = PerOp::new(&samples);
            outcome.line(format!(
                "throughput_qps: {} correct scans per second ({} in {:.3} s)",
                correct_qps(&untraced),
                samples.len(),
                untraced.elapsed.as_secs_f64()
            ));
            outcome.end_to_end(&per_op, median(&mut setups).unwrap_or(0.0), rss_mb);
            per_op.describe(&mut outcome);
        }
        Some(traced) => {
            let replay = per_layer(&mut outcome, &traced, &run, &path, &memory, &plans, seconds)?;
            let overhead = correct_qps(&traced) / correct_qps(&untraced) - 1.0;
            outcome.metric("trace.overhead_frac", overhead);
            outcome.line(format!(
                "trace overhead: traced {:.1} scans/s / untraced {:.1} scans/s ({} vs {} scans)",
                correct_qps(&traced),
                correct_qps(&untraced),
                traced.scans.len(),
                untraced.scans.len()
            ));
            let mut log = traced.log;
            log.append(replay);
            let trace_path = env.out.join(format!("trace-scan_paged-{seed}.json"));
            outcome.trace_file(&trace_path, &log.to_chrome_json())?;
        }
    }
    Ok(outcome)
}

fn open(path: &Path, metrics: &Arc<Metrics>) -> Result<PagedRun, String> {
    let pool = PoolConfig {
        frames: POOL_FRAMES,
        frame_bytes: DEFAULT_FRAME_BYTES,
    };
    PagedRun::open_recorded(path, pool, Arc::clone(metrics) as SharedRecorder)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Scans back to back for `duration` on this thread. With `traced`, each
/// scan records spans and its own access-counter delta.
fn drive(
    run: &PagedRun,
    pool: &[(usize, f64)],
    order: &[u32],
    options: &EngineOptions,
    next: &mut usize,
    duration: Duration,
    traced: Option<(Instant, &Metrics)>,
) -> Window {
    // Every record of the window is written once before the first scan,
    // so the peak RSS does not grow with the number of scans a run
    // completes: a faster scan would otherwise read as more memory.
    let mut out = Vec::new();
    out.resize_with(
        (duration.as_secs_f64() * MAX_SCANS_PER_SECOND) as usize,
        Scan::default,
    );
    out.clear();
    let start = Instant::now();
    let deadline = start + duration;
    let mut log = SpanLog::new(traced.map_or(start, |t| t.0));
    while Instant::now() < deadline {
        let id = *next as u64;
        let entry = order[*next % order.len()];
        *next += 1;
        let (k, p) = pool[entry as usize];
        let before = traced.map(|(_, m)| access_counters(m));
        let t0 = Instant::now();
        let root = traced.map(|_| log.open("scan", None, id, 0));
        let plan = log_time(&mut log, root, id, "engine.plan", || {
            PtkPlan::try_new(k, p, options).expect("scan plans are validated before the window")
        });
        let mut cursor = run.cursor();
        let result = log_time(&mut log, root, id, "access.scan", || {
            PtkExecutor::new(&plan).execute(&mut cursor)
        });
        let io_error = cursor.take_error().is_some();
        let depth = cursor.retrieved();
        if let Some(root) = root {
            log.close(root);
        }
        let finished = Instant::now();
        let detail = traced.zip(before).map(|((_, m), before)| {
            let after = access_counters(m);
            Box::new(Detail {
                stats: result.stats,
                access: std::array::from_fn(|i| after[i] - before[i]),
            })
        });
        out.push(Scan {
            id,
            entry,
            digest: digest(&result, depth),
            io_error,
            nanos: finished.duration_since(t0).as_nanos() as u64,
            depth,
            detail,
        });
    }
    let elapsed = start.elapsed();
    Window {
        scans: out,
        elapsed,
        log,
    }
}

/// Times `f` as a child of `root` when tracing, else just runs it.
fn log_time<T>(
    log: &mut SpanLog,
    root: Option<usize>,
    id: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match root {
        Some(root) => log.time(name, Some(root), id, 0, f),
        None => f(),
    }
}

/// Per-layer metrics of a traced `scan_paged` run; returns the replay's
/// spans.
fn per_layer(
    outcome: &mut Outcome,
    traced: &Window,
    run: &PagedRun,
    path: &Path,
    memory: &SortedVecSource,
    plans: &[PtkPlan],
    seconds: f64,
) -> Result<SpanLog, String> {
    let spans = traced.log.spans();
    for (span, metric) in [
        ("engine.plan", "engine.plan_us"),
        ("access.scan", "access.scan_us"),
    ] {
        let mut v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect();
        let n = v.len();
        outcome.layer(metric, median(&mut v), n);
    }
    let n = traced.scans.len();
    let details = || traced.scans.iter().filter_map(|s| s.detail.as_deref());
    let stat = |f: &dyn Fn(&Detail) -> f64| {
        let mut v: Vec<f64> = details().map(f).collect();
        median(&mut v)
    };
    let tuples = run.tuples() as f64;
    outcome.layer("core.view_tuples", Some(tuples), n);
    outcome.layer("engine.scanned", stat(&|d| d.stats.scanned as f64), n);
    outcome.layer(
        "engine.scan_ratio",
        stat(&|d| d.stats.scanned as f64 / tuples),
        n,
    );
    outcome.layer("engine.dp_cells", stat(&|d| d.stats.dp_cells as f64), n);
    outcome.layer("engine.pruned", stat(&|d| d.stats.pruned() as f64), n);
    for (i, metric) in [
        "access.block.read",
        "access.block.skip",
        "access.block.decode_bytes",
        "access.block.evict",
    ]
    .into_iter()
    .enumerate()
    {
        outcome.layer(metric, stat(&|d| d.access[i] as f64), n);
    }
    let hits: u64 = details().map(|d| d.access[4]).sum();
    let misses: u64 = details().map(|d| d.access[5]).sum();
    outcome.layer(
        "access.pool_hit_ratio",
        Some(hits as f64 / (hits + misses).max(1) as f64),
        n,
    );
    outcome.line(format!(
        "access.pool_hit_ratio: {hits} hits / {} lookups over {n} scans",
        hits + misses
    ));

    // Replay within a budget: the same depth drained without the engine
    // (through a second run handle with its own pool, so the measured
    // pool's residency is untouched), and the engine over the in-memory
    // source.
    let drain_metrics = Arc::new(Metrics::new());
    let drain_run = open(path, &drain_metrics)?;
    let mut log = SpanLog::new(traced.log.epoch());
    let budget = Duration::from_secs_f64((seconds / 4.0).clamp(1.0, 10.0));
    let started = Instant::now();
    let mut replayed = 0;
    for s in &traced.scans {
        if started.elapsed() > budget {
            break;
        }
        let root = log.open("replay", None, s.id, crate::replay::LANE);
        let depth = s.depth;
        log.time(
            "access.retrieve",
            Some(root),
            s.id,
            crate::replay::LANE,
            || {
                let mut cursor = drain_run.cursor();
                for _ in 0..depth {
                    std::hint::black_box(cursor.next_ranked());
                }
            },
        );
        log.time("engine.exec", Some(root), s.id, crate::replay::LANE, || {
            let mut cursor = memory.fork();
            std::hint::black_box(PtkExecutor::new(&plans[s.entry as usize]).execute(&mut *cursor));
        });
        log.close(root);
        replayed += 1;
    }
    for (span, metric) in [
        ("access.retrieve", "access.retrieve_us"),
        ("engine.exec", "engine.exec_us"),
    ] {
        let mut v: Vec<f64> = log
            .spans()
            .iter()
            .filter(|s| s.name == span)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect();
        let n = v.len();
        outcome.layer(metric, median(&mut v), n);
    }
    outcome.line(format!(
        "replayed {replayed} of {n} traced scans (drain without the engine; in-memory engine)"
    ));
    Ok(log)
}
