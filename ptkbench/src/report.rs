//! The run's result: human-readable lines, then one JSON object as the
//! last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::stats::{best_by_key, percentile, supports, tail_per_mille};

/// End-to-end metrics, reported by every untraced run: (name, unit).
/// The latencies are percentiles over the window's correct operations
/// of the best latency each one's statement reached in the window (see
/// [`crate::stats::best_by_key`]); the plain percentiles and the
/// throughput are printed above the JSON line.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_best_p50_ms", "ms"),
    ("latency_best_p99_ms", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run: (name, unit). A
/// layer the workload never reaches reports 0 (its sample count, printed
/// above the JSON line, is 0 too).
pub const PER_LAYER: [(&str, &str); 28] = [
    ("serve.connect_us", "us"),
    ("serve.other_us", "us"),
    ("serve.http_codec_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.rejected", "count"),
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("core.rank_us", "us"),
    ("core.view_tuples", "count"),
    ("engine.plan_us", "us"),
    ("engine.exec_us", "us"),
    ("engine.scanned", "count"),
    ("engine.scan_ratio", "ratio"),
    ("engine.dp_cells", "count"),
    ("engine.pruned", "count"),
    ("sampling.exec_us", "us"),
    ("sampling.units", "count"),
    ("par.batch_us", "us"),
    ("access.scan_us", "us"),
    ("access.retrieve_us", "us"),
    ("access.block.read", "count"),
    ("access.block.skip", "count"),
    ("access.block.decode_bytes", "bytes"),
    ("access.block.evict", "count"),
    ("access.pool_hit_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Latencies (ms) of correct operations: as measured, as the best of
/// each operation's statement, and per operation type.
pub struct PerOp {
    all: Vec<f64>,
    best: Vec<f64>,
    /// Distinct statement keys behind `best`.
    statements: usize,
    by_op: BTreeMap<&'static str, Vec<f64>>,
}

impl PerOp {
    /// `samples` are (statement key, operation type, latency in ms); a
    /// statement key names what is repeated, such as a statement and
    /// whether the cache answered it.
    pub fn new(samples: &[(u64, &'static str, f64)]) -> PerOp {
        let keyed: Vec<(u64, f64)> = samples.iter().map(|&(key, _, ms)| (key, ms)).collect();
        let statements = keyed
            .iter()
            .map(|s| s.0)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let mut best = best_by_key(&keyed);
        best.sort_by(f64::total_cmp);
        let mut all: Vec<f64> = samples.iter().map(|s| s.2).collect();
        all.sort_by(f64::total_cmp);
        let mut by_op: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &(_, op, ms) in samples {
            by_op.entry(op).or_default().push(ms);
        }
        for v in by_op.values_mut() {
            v.sort_by(f64::total_cmp);
        }
        PerOp {
            all,
            best,
            statements,
            by_op,
        }
    }

    /// Adds the per-operation-type lines: each p50 with its sample count,
    /// and the tail percentile the count supports.
    pub fn describe(&self, outcome: &mut Outcome) {
        let n = self.all.len();
        match tail_per_mille(n) {
            Some(q) => outcome.line(format!(
                "latency as measured: latency_p50_ms {} ms, tail p{} {} ms (n={n}, {} beyond)",
                percentile(&self.all, 500).unwrap_or(0.0),
                q as f64 / 10.0,
                percentile(&self.all, q).unwrap_or(0.0),
                n - (n * q as usize).div_ceil(1000)
            )),
            None => outcome.line(format!(
                "latency: too few samples for any percentile (n={n})"
            )),
        }
        outcome.line(format!(
            "latency as the best of each statement: p50 {} ms, p99 {} ms (n={n}, {} statements)",
            percentile(&self.best, 500).unwrap_or(0.0),
            percentile(&self.best, 990).unwrap_or(0.0),
            self.statements
        ));
        if !supports(n, 990) {
            outcome.line(format!(
                "warning: latency_best_p99_ms rests on {n} samples, fewer than 1000"
            ));
        }
        for (op, v) in &self.by_op {
            outcome.line(format!(
                "latency_p50_ms.{op}: {} ms (n={})",
                percentile(v, 500).unwrap_or(0.0),
                v.len()
            ));
        }
    }
}

/// Everything a run reports.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
    counts: BTreeMap<String, usize>,
    lines: Vec<String>,
}

impl Outcome {
    /// A result over `attempted` operations, `failed` of which failed;
    /// `correct` is false when any output was wrong.
    pub fn new(attempted: u64, failed: u64, correct: bool) -> Outcome {
        Outcome {
            correct,
            attempted,
            failed,
            values: BTreeMap::new(),
            counts: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Sets a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Sets a per-layer median and the number of samples behind it.
    pub fn layer(&mut self, name: &str, value: Option<f64>, samples: usize) {
        self.values.insert(name.to_owned(), value.unwrap_or(0.0));
        self.counts.insert(name.to_owned(), samples);
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// A metric set earlier.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The sample count behind a per-layer metric.
    pub fn count(&self, name: &str) -> usize {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Sets the end-to-end metrics.
    pub fn end_to_end(&mut self, latency: &PerOp, setup_s: f64, rss_mb: f64) {
        self.metric(
            "latency_best_p50_ms",
            percentile(&latency.best, 500).unwrap_or(0.0),
        );
        self.metric(
            "latency_best_p99_ms",
            percentile(&latency.best, 990).unwrap_or(0.0),
        );
        self.metric("setup_s", setup_s);
        self.metric("rss_peak_mb", rss_mb);
    }

    /// Writes the Chrome trace and checks it with
    /// `ptk_obs::validate_chrome_trace`; an invalid trace makes the run
    /// incorrect.
    pub fn trace_file(&mut self, path: &Path, json: &str) -> Result<(), String> {
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        match ptk_obs::validate_chrome_trace(json) {
            Ok(check) => self.line(format!(
                "trace: {} ({} events, {} spans) passes validate_chrome_trace",
                path.display(),
                check.events,
                check.begins
            )),
            Err(e) => {
                self.correct = false;
                self.line(format!(
                    "trace: {} fails validate_chrome_trace: {e}",
                    path.display()
                ));
            }
        }
        Ok(())
    }

    /// Prints the lines, then the JSON result as the last line: the
    /// end-to-end metrics, or with `trace` the per-layer ones.
    pub fn print(&self, trace: bool) {
        for line in &self.lines {
            println!("{line}");
        }
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        if trace {
            for (name, _) in names {
                println!(
                    "{name} = {} (n={})",
                    self.value(name).unwrap_or(0.0),
                    self.count(name)
                );
            }
        }
        println!("{}", self.to_json(names));
    }

    fn to_json(&self, names: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome::new(10, 1, true);
        o.metric("latency_best_p50_ms", 12.5);
        let json = o.to_json(&END_TO_END);
        assert!(json
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {"));
        assert!(json.contains("\"latency_best_p50_ms\": {\"value\": 12.5, \"unit\": \"ms\"}"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        assert_eq!(
            spec.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
