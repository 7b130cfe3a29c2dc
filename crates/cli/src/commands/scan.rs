//! Packed run files: `pack` (CSV -> block-native binary run), `scan`
//! (progressive retrieval over a run file through the pinned buffer pool,
//! without materializing a view) and the run-file half of `inspect`
//! (header + block directory).

use std::io::Write;
use std::sync::Arc;

use ptk_access::{
    block_count, write_run_blocked, PagedRun, PoolConfig, RankedSource, DEFAULT_BLOCK_BYTES,
    DEFAULT_FRAME_BYTES, DEFAULT_POOL_FRAMES,
};
use ptk_core::{Predicate, RankedView, TopKQuery};
use ptk_engine::{PtkExecutor, PtkPlan, RankSemantics, SemanticsAnswer};
use ptk_obs::{Metrics, Noop, QueryFlight, SharedRecorder, SharedSink, Tracer};

use super::render::{stats_mode, write_audit, write_stats};
use super::sql::flight_fingerprint;
use super::trace::trace_opts;
use super::{
    build_ranking, engine_options_from_flags, load_from_flags, semantics_from_flags, CmdError,
    Flags,
};

/// Run-file rows in CSV order: score from the ranked column, rule keys
/// from the view's dense handles. Shared by `pack` and `generate --out`.
pub(super) fn rows_of_view(view: &RankedView) -> Result<Vec<(f64, f64, Option<u32>)>, String> {
    let mut rows: Vec<(f64, f64, Option<u32>)> = vec![(0.0, 0.0, None); view.len()];
    for pos in 0..view.len() {
        let t = view.tuple(pos);
        rows[t.id.index()] = (
            t.key.ok_or("the ranked column must be numeric to pack")?,
            t.prob,
            t.rule.map(|h| h.index() as u32),
        );
    }
    Ok(rows)
}

/// Writes `rows` at `out_path` as a block-native run of `block_size`-byte
/// blocks and describes the file written.
pub(super) fn write_packed(
    out_path: &str,
    rows: &[(f64, f64, Option<u32>)],
    block_size: u32,
) -> Result<String, String> {
    write_run_blocked(std::path::Path::new(out_path), rows, block_size)
        .map_err(|e| e.to_string())?;
    let blocks = block_count(rows.len(), block_size);
    Ok(format!("{blocks} blocks of {block_size} B"))
}

pub(super) fn cmd_pack(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    flags.only("pack", &["out", "rank-by", "asc", "block-size"])?;
    let table = load_from_flags(flags)?;
    let out_path: String = flags.require("out")?;
    let ranking = build_ranking(flags, &table)?;
    let query = TopKQuery::new(1, Predicate::True, ranking).map_err(|e| e.to_string())?;
    let view = RankedView::build(&table, &query).map_err(|e| e.to_string())?;
    let rows = rows_of_view(&view)?;
    let block_size = flags.get("block-size")?.unwrap_or(DEFAULT_BLOCK_BYTES);
    let shape = write_packed(&out_path, &rows, block_size)?;
    writeln!(
        out,
        "packed {} tuples ({} rules) into {out_path} ({shape})",
        view.len(),
        view.rules().len()
    )?;
    Ok(())
}

/// The buffer-pool shape `scan` hands to [`PagedRun`]: `--pool-frames`
/// bounds resident frames (default [`DEFAULT_POOL_FRAMES`]); the frame
/// size stays at [`DEFAULT_FRAME_BYTES`], so a run packed with larger
/// blocks gets the reader's pointed repack-or-raise error at open.
fn pool_from_scan_flags(flags: &Flags) -> Result<PoolConfig, String> {
    let frames = match flags.get::<usize>("pool-frames")? {
        Some(0) => return Err("--pool-frames must be at least 1".into()),
        Some(n) => n,
        None => DEFAULT_POOL_FRAMES,
    };
    Ok(PoolConfig {
        frames,
        frame_bytes: DEFAULT_FRAME_BYTES,
    })
}

/// Flags of the CSV-reading commands that have no meaning on a run file.
const TABLE_ONLY_FLAGS: [&str; 5] = ["where", "rank-by", "asc", "method", "explain"];

/// `ptk scan`: progressive retrieval over a run file feeding the engine
/// (PT-k with pruning, every other semantics through the
/// generating-function scan). Run files carry no attribute columns, so
/// rows render by CSV row id and score.
pub(super) fn cmd_scan(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let path = flags.positional.get(1).ok_or("missing run file argument")?;
    if let Some(flag) = TABLE_ONLY_FLAGS
        .iter()
        .find(|f| flags.named.contains_key(**f) || flags.switch(f))
    {
        return Err(format!(
            "scan takes no --{flag}: run files are already ranked and carry no attribute \
             columns; apply it before `ptk pack`"
        )
        .into());
    }
    flags.only(
        "scan",
        &[
            "k",
            "p",
            "semantics",
            "no-prune",
            "pool-frames",
            "stats",
            "audit",
            "trace",
            "trace-format",
            "slow-ms",
        ],
    )?;
    let k: usize = flags.require("k")?;
    let semantics = semantics_from_flags(flags)?;
    let p = if semantics == RankSemantics::Ptk {
        Some(flags.require::<f64>("p")?)
    } else if flags.named.contains_key("p") {
        return Err(format!(
            "--semantics {} takes no --p; probability thresholds parameterize PT-k only",
            semantics.keyword()
        )
        .into());
    } else {
        None
    };
    // Validate up front: k == 0 or a threshold outside (0, 1] (NaN
    // included) is a plan error, not a panic in the executor.
    let plan = PtkPlan::try_semantics(semantics, k, p, &engine_options_from_flags(flags))
        .map_err(|e| e.to_string())?;
    let label = match p {
        Some(p) => format!("scan k={k} p={p}"),
        None => format!("scan --semantics {} k={k}", semantics.keyword()),
    };
    let stats = stats_mode(flags)?;
    let trace = trace_opts(flags)?;
    let audit = flags.switch("audit");
    let recording = stats.is_some() || audit;
    let metrics = Arc::new(Metrics::new());
    let recorder: SharedRecorder = if recording {
        Arc::clone(&metrics) as SharedRecorder
    } else {
        Arc::new(Noop)
    };
    let mut flight = audit.then(|| QueryFlight {
        plan: plan.describe(),
        semantics: semantics.keyword().to_owned(),
        ks: vec![k as u64],
        thresholds: p.into_iter().collect(),
        fingerprint: Some(flight_fingerprint(&label, &[plan.fingerprint()])),
        label: label.clone(),
        ..QueryFlight::default()
    });
    // Tracing instruments the run file itself (source-open span and
    // per-block read marks) as well as the executor.
    let sink = trace.active().then(|| trace.sink());
    let tracer = sink
        .as_ref()
        .map(|s| Arc::new(Tracer::new(Arc::clone(s) as SharedSink, 0, 0)));
    let file_path = std::path::Path::new(path);
    let pool = pool_from_scan_flags(flags)?;
    let file_recorder = Arc::clone(&recorder);
    let run = match &tracer {
        Some(t) => PagedRun::open_traced(file_path, pool, file_recorder, Arc::clone(t)),
        None => PagedRun::open_recorded(file_path, pool, file_recorder),
    }
    .map_err(|e| e.to_string())?;
    let mut cursor = run.cursor();
    let mut executor = PtkExecutor::with_recorder(&plan, recorder.as_ref());
    if let Some(t) = &tracer {
        executor = executor.with_tracer(t);
    }
    let answer = executor
        .execute_semantics(&mut cursor)
        .map_err(|e| e.to_string())?;
    // The engine sees a cursor IO/corruption error as end-of-stream; a
    // silent short answer must not pass for a clean early stop.
    if let Some(e) = cursor.take_error() {
        return Err(e.to_string().into());
    }
    let streamed = format!(
        "streamed {} of {} records",
        cursor.retrieved(),
        run.tuples()
    );
    match &answer {
        SemanticsAnswer::Ptk(result) => {
            let stop = result.stats.stop.map(|s| format!("{s:?}"));
            if let Some(f) = flight.as_mut() {
                f.stop = stop.clone().unwrap_or_default();
            }
            writeln!(
                out,
                "{} tuples pass Pr^{k} >= {} ({streamed}{})",
                result.answers.len(),
                p.unwrap_or_default(),
                stop.map_or(String::new(), |s| format!(", stopped early: {s}"))
            )?;
            for a in &result.answers {
                writeln!(
                    out,
                    "  row {:>6}  score {:>12.4}  Pr^k = {:.4}",
                    a.id.index(),
                    a.score,
                    a.probability
                )?;
            }
        }
        SemanticsAnswer::UTopK {
            rows, probability, ..
        } => {
            writeln!(
                out,
                "most probable top-{k} vector (probability {probability:.6}, {streamed}):"
            )?;
            for row in rows {
                writeln!(
                    out,
                    "  row {:>6}  score {:>12.4}  membership={:.3}",
                    row.id.index(),
                    row.score,
                    row.membership
                )?;
            }
        }
        SemanticsAnswer::UKRanks(rows) => {
            writeln!(out, "most probable tuple at each rank ({streamed}):")?;
            for (j, row) in rows.iter().enumerate() {
                writeln!(
                    out,
                    "  rank {:>3}: row {:>6}  score {:>12.4}  probability {:.4}",
                    j + 1,
                    row.id.index(),
                    row.score,
                    row.value
                )?;
            }
        }
        SemanticsAnswer::GlobalTopk(rows) => {
            writeln!(out, "top-{k} by top-k probability ({streamed}):")?;
            for row in rows {
                writeln!(
                    out,
                    "  Pr^k = {:.4}  row {:>6}  score {:>12.4}",
                    row.value,
                    row.id.index(),
                    row.score
                )?;
            }
        }
        SemanticsAnswer::ExpectedRank(rows) => {
            writeln!(out, "top-{k} by expected rank ({streamed}):")?;
            for row in rows {
                writeln!(
                    out,
                    "  expected rank {:>8.2}  row {:>6}  score {:>12.4}",
                    row.value,
                    row.id.index(),
                    row.score
                )?;
            }
        }
    }
    if let (Some(sink), Some(tracer)) = (&sink, &tracer) {
        let events = sink.events();
        trace.write_file(&events)?;
        trace.log_slow(
            &label,
            tracer.elapsed_nanos(),
            &events,
            &mut std::io::stderr(),
        );
    }
    write_stats(out, stats, &metrics)?;
    if let Some(mut f) = flight {
        f.absorb_counters(&metrics.snapshot());
        write_audit(out, f)?;
    }
    Ok(())
}

/// The run-file half of `ptk inspect`: the header and block directory
/// (per block: rank range, score range, max membership probability and
/// rule flags — exactly what the executor's block-level Theorem 3 bound
/// consults). A retired v1 file gets the reader's repack error.
pub(super) fn cmd_inspect_run(path: &str, out: &mut dyn Write) -> Result<(), CmdError> {
    let run = PagedRun::open(
        std::path::Path::new(path),
        PoolConfig {
            frames: 1,
            frame_bytes: DEFAULT_FRAME_BYTES,
        },
    )
    .map_err(|e| e.to_string())?;
    let capacity = (run.block_size() / 24).max(1) as u64;
    writeln!(out, "run file (v2, block-native)")?;
    writeln!(out, "tuples:     {}", run.tuples())?;
    writeln!(out, "rules:      {}", run.rules())?;
    writeln!(
        out,
        "block size: {} B ({capacity} records/block)",
        run.block_size()
    )?;
    writeln!(out, "blocks:     {}", run.directory().len())?;
    for (b, meta) in run.directory().iter().enumerate() {
        let first = b as u64 * capacity;
        let last = first + u64::from(meta.records).saturating_sub(1);
        let mut flags = Vec::new();
        if meta.rule_free {
            flags.push("rule-free");
        }
        if meta.rule_closed {
            flags.push("rule-closed");
        }
        let flags = if flags.is_empty() {
            "-".to_owned()
        } else {
            flags.join(",")
        };
        writeln!(
            out,
            "  block {b:>4}: ranks {first:>8}..{last:<8} scores {:>12.4}..{:<12.4} \
             max-p {:.4}  {flags}",
            meta.score_first, meta.score_last, meta.max_prob
        )?;
    }
    Ok(())
}
