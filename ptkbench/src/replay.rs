//! The traced replay of served requests: each request runs again,
//! in-process and one at a time, through the public functions of every
//! layer the daemon calls for it, each call inside a span.
//!
//! The daemon's handler does, per `POST /sql`: a fingerprint (parse,
//! bind and plan of every statement, for the cache key), then on a miss
//! the full `run_sql` path (parse, bind, rank, plan, execute, render).
//! The replay mirrors that sequence; render, HTTP, admission and flight
//! recording are what remains of the served wall time (`serve.other`).

use std::io::Write as _;

use ptk_core::{RankedView, UncertainTable};
use ptk_engine::{EngineOptions, ExecStats, PtkExecutor, PtkPlan, RankSemantics};
use ptk_obs::Metrics;
use ptk_par::ThreadPool;
use ptk_sampling::{sample_ptk_recorded, SamplingOptions};

use crate::client::Cache;
use crate::spans::SpanLog;
use crate::stream::{Entry, Kind};

/// Span names of the replayed library layers.
pub mod layer {
    /// `ptk_sql::parse_statement`.
    pub const PARSE: &str = "sql.parse";
    /// `ParsedQuery::bind`.
    pub const BIND: &str = "sql.bind";
    /// `RankedView::build`.
    pub const RANK: &str = "core.rank";
    /// `PtkPlan::try_new` / `try_semantics`.
    pub const PLAN: &str = "engine.plan";
    /// `PtkExecutor::execute_snapshot` / `execute_semantics_snapshot`.
    pub const EXEC: &str = "engine.exec";
    /// `ptk_sampling::sample_ptk_recorded`.
    pub const SAMPLING: &str = "sampling.exec";
    /// `PtkExecutor::execute_batch_recorded` on the pool.
    pub const BATCH: &str = "par.batch";
    /// `http::read_request` + `http::write_response` in memory.
    pub const HTTP_CODEC: &str = "serve.http_codec";
    /// The library layers whose time is subtracted from the served wall
    /// time to leave `serve.other`.
    pub const LIBRARY: [&str; 7] = [PARSE, BIND, RANK, PLAN, EXEC, SAMPLING, BATCH];
}

/// Trace lane of the replay (client lanes are 0 and 1).
pub const LANE: u32 = 9;

/// Counts one replayed request produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Length of the ranked view, when the request built one.
    pub view_tuples: Option<usize>,
    /// Engine statistics of a single exact statement.
    pub engine: Option<ExecStats>,
    /// Sampling units drawn.
    pub sampling_units: Option<u64>,
}

/// Replays requests against the table the daemon loaded, with the
/// daemon's pool width and default engine options.
pub struct Replayer<'a> {
    table: &'a UncertainTable,
    pool: ThreadPool,
    engine: EngineOptions,
}

fn semantics_of(kind: ptk_sql::QueryKind) -> RankSemantics {
    match kind {
        ptk_sql::QueryKind::Ptk => RankSemantics::Ptk,
        ptk_sql::QueryKind::UTopK => RankSemantics::UTopK,
        ptk_sql::QueryKind::UKRanks => RankSemantics::UKRanks,
        ptk_sql::QueryKind::GlobalTopk => RankSemantics::GlobalTopk,
        ptk_sql::QueryKind::ExpectedRank => RankSemantics::ExpectedRank,
    }
}

impl<'a> Replayer<'a> {
    /// A replayer over `table` with a pool of `threads` workers.
    pub fn new(table: &'a UncertainTable, threads: usize) -> Replayer<'a> {
        Replayer {
            table,
            pool: ThreadPool::new(threads),
            engine: EngineOptions::default(),
        }
    }

    /// Replays one served request whose response carried `cache` and
    /// `status`/`body`, recording spans under a `replay` root.
    pub fn replay(
        &self,
        entry: &Entry,
        cache: Cache,
        status: u16,
        body: &[u8],
        log: &mut SpanLog,
        request: u64,
    ) -> Counts {
        let lane = LANE;
        let root = log.open("replay", None, request, lane);
        let mut counts = Counts::default();
        if entry.kind != Kind::HttpError {
            let s = Scope {
                log: &mut *log,
                root,
                request,
                lane,
            };
            self.fingerprint(&entry.statement, s);
            if cache != Cache::Hit {
                let s = Scope {
                    log: &mut *log,
                    root,
                    request,
                    lane,
                };
                counts = self.execute(&entry.statement, s);
            }
        }
        log.time(layer::HTTP_CODEC, Some(root), request, lane, || {
            codec(entry, cache, status, body)
        });
        log.close(root);
        counts
    }

    /// The handler's cache-key fingerprint: parse, bind and plan each
    /// exact statement; stop at the first failure.
    fn fingerprint(&self, text: &str, mut s: Scope<'_>) {
        for text in text.split(';').map(str::trim).filter(|t| !t.is_empty()) {
            let Ok(parsed) = s.time(layer::PARSE, || ptk_sql::parse_statement(text)) else {
                return;
            };
            if parsed.analyze {
                return;
            }
            if parsed.query.method != ptk_sql::Method::Exact {
                continue;
            }
            let Ok(bound) = s.time(layer::BIND, || parsed.query.bind(self.table)) else {
                return;
            };
            let plan = s.time(layer::PLAN, || match semantics_of(parsed.kind) {
                RankSemantics::Ptk => {
                    PtkPlan::try_new(bound.k(), bound.threshold().value(), &self.engine)
                }
                semantics => PtkPlan::try_semantics(semantics, bound.k(), None, &self.engine),
            });
            if plan.is_err() {
                return;
            }
        }
    }

    /// The `run_sql` path of a cache miss.
    fn execute(&self, text: &str, mut s: Scope<'_>) -> Counts {
        let mut counts = Counts::default();
        let statements: Vec<&str> = text
            .split(';')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .collect();
        if statements.len() > 1 {
            self.batch(&statements, s);
            return counts;
        }
        let Some(&text) = statements.first() else {
            return counts;
        };
        let Ok(statement) = s.time(layer::PARSE, || ptk_sql::parse_statement(text)) else {
            return counts;
        };
        let Ok(bound) = s.time(layer::BIND, || statement.query.bind(self.table)) else {
            return counts;
        };
        let Ok(view) = s.time(layer::RANK, || RankedView::build(self.table, bound.query())) else {
            return counts;
        };
        counts.view_tuples = Some(view.len());
        let (k, p) = (bound.k(), bound.threshold().value());
        let metrics = Metrics::new();
        let semantics = semantics_of(statement.kind);
        if semantics != RankSemantics::Ptk {
            let Ok(plan) = s.time(layer::PLAN, || {
                PtkPlan::try_semantics(semantics, k, None, &self.engine)
            }) else {
                return counts;
            };
            let answer = s.time(layer::EXEC, || {
                PtkExecutor::with_recorder(&plan, &metrics)
                    .execute_semantics_snapshot(&view, &self.pool)
            });
            std::hint::black_box(answer.ok());
            counts.engine = Some(ExecStats::from_snapshot(&metrics.snapshot()));
            return counts;
        }
        match statement.query.method {
            ptk_sql::Method::Exact => {
                let Ok(plan) = s.time(layer::PLAN, || PtkPlan::try_new(k, p, &self.engine)) else {
                    return counts;
                };
                let result = s.time(layer::EXEC, || {
                    PtkExecutor::with_recorder(&plan, &metrics).execute_snapshot(&view, &self.pool)
                });
                counts.engine = Some(result.stats);
            }
            ptk_sql::Method::Sampling => {
                let options = SamplingOptions::default();
                let (answers, estimate) = s.time(layer::SAMPLING, || {
                    sample_ptk_recorded(&view, k, p, &options, &metrics)
                });
                std::hint::black_box(answers);
                counts.sampling_units = Some(estimate.units);
            }
            ptk_sql::Method::Naive => {}
        }
        counts
    }

    /// The `;`-batch path: parse all, bind and plan each, rank once, run
    /// the batch executor on the pool.
    fn batch(&self, statements: &[&str], mut s: Scope<'_>) {
        let mut parsed = Vec::with_capacity(statements.len());
        for text in statements {
            let Ok(statement) = s.time(layer::PARSE, || ptk_sql::parse_statement(text)) else {
                return;
            };
            parsed.push(statement.query);
        }
        let mut plans = Vec::with_capacity(parsed.len());
        let mut view = None;
        for q in &parsed {
            let Ok(bound) = s.time(layer::BIND, || q.bind(self.table)) else {
                return;
            };
            let Ok(plan) = s.time(layer::PLAN, || {
                PtkPlan::try_new(bound.k(), bound.threshold().value(), &self.engine)
            }) else {
                return;
            };
            plans.push(plan);
            if view.is_none() {
                let Ok(built) =
                    s.time(layer::RANK, || RankedView::build(self.table, bound.query()))
                else {
                    return;
                };
                view = Some(built);
            }
        }
        let Some(view) = view else { return };
        let batch = PtkPlan::batch(&plans);
        let results = s.time(layer::BATCH, || {
            PtkExecutor::execute_batch_recorded(&batch, &view, &self.pool)
        });
        std::hint::black_box(results);
    }
}

/// Where a replay records its spans.
struct Scope<'l> {
    log: &'l mut SpanLog,
    root: usize,
    request: u64,
    lane: u32,
}

impl Scope<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.log
            .time(name, Some(self.root), self.request, self.lane, f)
    }
}

/// The daemon's HTTP work for one request, over in-memory copies of its
/// traffic: read the request bytes, write the response it got.
fn codec(entry: &Entry, cache: Cache, status: u16, body: &[u8]) {
    let max_bytes = ptk_serve::ServerConfig::default().max_request_bytes;
    let request = ptk_serve::http::read_request(&mut &entry.request[..], max_bytes);
    std::hint::black_box(request.is_ok());
    let body = String::from_utf8_lossy(body);
    let cache = match cache {
        Cache::Hit => Some("hit"),
        Cache::Miss => Some("miss"),
        Cache::Uncacheable => Some("uncacheable"),
        Cache::None => None,
    };
    let headers: Vec<(&str, &str)> = cache.map(|c| ("X-Ptk-Cache", c)).into_iter().collect();
    let content_type = if status == 200 {
        "text/plain"
    } else {
        "application/json"
    };
    let mut wire = Vec::with_capacity(body.len() + 128);
    let written = ptk_serve::http::write_response(&mut wire, status, content_type, &headers, &body);
    let _ = wire.flush();
    std::hint::black_box((written.is_ok(), wire.len()));
}
