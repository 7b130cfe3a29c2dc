//! In-memory spans recorded by the benchmark around its calls into each
//! layer, their self times, and their export as Chrome trace-event JSON.
//!
//! Spans are kept in memory while the benchmark runs and written out only
//! at the end, so recording costs two clock reads and a vector push.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start: u64,
    /// End, in nanoseconds since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// Trace lane (one per client thread, plus one for the replay).
    pub lane: u32,
}

/// An append-only span log with one clock epoch.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose times count from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
        lane: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: self.offset(start),
            end: self.offset(end),
            parent,
            request,
            lane,
        });
        self.spans.len() - 1
    }

    /// Opens a span that ends at [`SpanLog::close`], so children can name
    /// it as their parent.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        lane: u32,
    ) -> usize {
        let now = Instant::now();
        self.push(name, now, now, parent, request, lane)
    }

    /// Ends the span `index` opened.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.offset(Instant::now());
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        lane: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.push(name, start, Instant::now(), parent, request, lane);
        value
    }

    /// Moves every span of `other` (same epoch) into this log, fixing up
    /// parent indices.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time(s.start, s.end, kids))
            .collect()
    }

    /// Chrome trace-event JSON: one `B`/`E` pair per span, emitted
    /// depth-first per lane so begin and end events nest.
    pub fn to_chrome_json(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let by_start = |a: &usize, b: &usize| {
            let (sa, sb) = (&self.spans[*a], &self.spans[*b]);
            (sa.lane, sa.start, *a).cmp(&(sb.lane, sb.start, *b))
        };
        roots.sort_by(by_start);
        for kids in &mut children {
            kids.sort_by(by_start);
        }
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut stack: Vec<(usize, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
        while let Some((i, closing)) = stack.pop() {
            let s = &self.spans[i];
            if !first {
                out.push(',');
            }
            first = false;
            let (ph, ts) = if closing {
                ("E", s.end)
            } else {
                ("B", s.start)
            };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"ptkbench\",\"ph\":\"{ph}\",\"ts\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"request\":{},\"span\":{i},\"parent\":{parent}}}}}",
                s.name,
                ts as f64 / 1_000.0,
                s.lane,
                s.request
            );
            if !closing {
                stack.push((i, true));
                stack.extend(children[i].iter().rev().map(|&c| (c, false)));
            }
        }
        out.push_str("]}");
        out
    }
}

/// `end - start` minus the length of the union of `children` clipped to
/// `[start, end)`.
pub fn self_time(start: u64, end: u64, mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in children {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40, so
        // they cover 10..60 = 50, not 30 + 30 = 60.
        assert_eq!(self_time(0, 100, vec![(30, 60), (10, 40)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time(0, 100, vec![(10, 60), (20, 30)]), 50);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time(10, 20, vec![(0, 15), (18, 40)]), 3);
        // Disjoint children sum.
        assert_eq!(self_time(0, 100, vec![(0, 10), (90, 100)]), 80);
        assert_eq!(self_time(0, 100, vec![]), 100);
    }

    #[test]
    fn log_self_times_and_chrome_export_validate() {
        let epoch = Instant::now();
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        let mut log = SpanLog::new(epoch);
        let root = log.push("request", at(0), at(1_000), None, 7, 0);
        log.push("serve.connect", at(0), at(300), Some(root), 7, 0);
        log.push("serve.response", at(200), at(900), Some(root), 7, 0);
        let other = log.push("request", at(2_000), at(2_500), None, 8, 1);
        assert_eq!(log.self_times(), vec![100, 300, 700, 500]);
        assert_eq!(log.spans()[other].lane, 1);

        let json = log.to_chrome_json();
        let check = ptk_obs::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.begins, 4);
        assert_eq!(check.ends, 4);
    }
}
