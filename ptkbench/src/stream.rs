//! Seeded workload inputs: the statement pools each serve workload draws
//! from, the request streams over them, and the scan parameters of
//! `scan_paged`. The pools are fixed fixtures; the order they are sent in
//! is a pure function of the run seed.

use ptk_core::rng::{derive_seed, RngExt, SeedableRng, StdRng};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small-`k` PT-k on an IIP-like table, result cache off. Run by hand
    /// only: `BENCHMARK.json` leaves it out because its p99 measures host
    /// CPU steal (README.md).
    ServePoint,
    /// Deep PT-k, unpruned semantics, sampling and batches, cache off.
    /// Run by hand only: `BENCHMARK.json` keeps two workloads so that
    /// each run can be longer (README.md).
    ServeDeep,
    /// A Zipf-skewed repeat mix of point and deep statements (sampling
    /// and batches among them) with malformed requests, default cache.
    ServeRepeat,
    /// In-process PT-k scans over a PTKRUN02 file through a small pool.
    ScanPaged,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::ServePoint,
        Workload::ServeDeep,
        Workload::ServeRepeat,
        Workload::ScanPaged,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePoint => "serve_point",
            Workload::ServeDeep => "serve_deep",
            Workload::ServeRepeat => "serve_repeat",
            Workload::ScanPaged => "scan_paged",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a request exercises, which decides its expected status and the
/// latency bucket it reports under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One exact `SELECT TOP … WITH PROBABILITY` statement.
    Ptk,
    /// One `RANK BY` statement of another semantics (exact).
    Semantics,
    /// One PT-k statement `USING SAMPLING`.
    Sampling,
    /// A `;`-separated batch of exact PT-k statements.
    Batch,
    /// A statement the handler must reject with a `query` 400.
    SqlError,
    /// Bytes that are not a valid HTTP request: a `bad_request` 400.
    HttpError,
}

impl Kind {
    /// Whether the daemon must answer 400 rather than 200.
    pub fn is_error(self) -> bool {
        matches!(self, Kind::SqlError | Kind::HttpError)
    }
}

/// One distinct request of a workload's pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// What the request exercises.
    pub kind: Kind,
    /// The SQL statement text (empty for [`Kind::HttpError`]).
    pub statement: String,
    /// The request bytes sent on the wire.
    pub request: Vec<u8>,
}

impl Entry {
    fn sql(kind: Kind, statement: String) -> Entry {
        let request = format!(
            "POST /sql HTTP/1.1\r\nHost: ptkbench\r\nContent-Length: {}\r\n\r\n{statement}",
            statement.len()
        )
        .into_bytes();
        Entry {
            kind,
            statement,
            request,
        }
    }

    fn raw(request: &[u8]) -> Entry {
        Entry {
            kind: Kind::HttpError,
            statement: String::new(),
            request: request.to_vec(),
        }
    }
}

/// A workload's distinct requests plus the order they are sent in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestStream {
    /// The distinct requests.
    pub entries: Vec<Entry>,
    /// Indices into `entries`, in sending order (clients wrap around).
    pub order: Vec<u32>,
}

impl RequestStream {
    /// The whole stream as bytes, for determinism checks.
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for e in &self.entries {
            out.extend_from_slice(&e.request);
            out.push(0);
        }
        for i in &self.order {
            out.extend_from_slice(&i.to_le_bytes());
        }
        out
    }
}

/// Length of every precomputed sending order; longer than any run sends.
const ORDER_LEN: usize = 1 << 18;
/// Distinct statements of `serve_point`.
pub const POINT_POOL: usize = 192;
/// Distinct statements of `serve_deep`, by kind.
const DEEP_PTK: usize = 32;
const DEEP_SEMANTICS: usize = 19;
const DEEP_UTOPK: usize = 3;
const DEEP_SAMPLING: usize = 3;
const DEEP_BATCH: usize = 7;
/// Distinct valid statements of `serve_repeat`: about three point-shaped
/// for every deep-shaped one.
pub const REPEAT_POOL: usize = 512;
/// Zipf exponent of the `serve_repeat` draw.
pub const REPEAT_ZIPF: f64 = 1.1;
/// Share of `serve_repeat` requests that are malformed.
pub const REPEAT_MALFORMED: f64 = 0.05;

/// Seed of the tables, the `ptk generate` default. The tables are fixed
/// fixtures: the cost of a deep PT-k statement is heavy-tailed across
/// generated tables (on one of ten, `TOP 300` scanned 3,840 tuples in
/// 1.4 s where `TOP 280` scanned 1,216 in 70 ms), which would swamp every
/// run-to-run comparison.
pub const TABLE_SEED: u64 = 0;

/// Seed of the statement and scan pools, fixed for the same reason: the
/// run seed draws only the order they are sent in. With pools drawn per
/// run seed, the deep statements that happened to sit in `serve_repeat`'s
/// cache-missing tail moved its throughput by a quarter and its daemon's
/// peak RSS by a sixth from one seed to another.
pub const POOL_SEED: u64 = 0;

/// The table a serve workload loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableSpec {
    /// `ptk generate iip --tuples 20000 --rules 2000 --seed 0`.
    Iip,
    /// `ptk generate synthetic --tuples 20000 --rules 2000 --seed 0` (the
    /// §6.2 default).
    Synthetic,
}

/// The table of a serve workload (`None` for `scan_paged`).
pub fn table_spec(workload: Workload) -> Option<TableSpec> {
    match workload {
        Workload::ServePoint => Some(TableSpec::Iip),
        Workload::ServeDeep | Workload::ServeRepeat => Some(TableSpec::Synthetic),
        Workload::ScanPaged => None,
    }
}

/// The request stream of a serve workload.
///
/// # Panics
/// Panics for `scan_paged`, which sends no requests.
pub fn requests(workload: Workload, seed: u64) -> RequestStream {
    let mut pool = StdRng::seed_from_u64(derive_seed(POOL_SEED, 2));
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 3));
    match workload {
        Workload::ServePoint => {
            let entries: Vec<Entry> = (0..POINT_POOL)
                .map(|i| Entry::sql(Kind::Ptk, point_iip(&mut pool, i, POINT_POOL)))
                .collect();
            let order = permutations(&mut rng, entries.len());
            RequestStream { entries, order }
        }
        Workload::ServeDeep => {
            let entries = deep_entries(&mut pool, 1);
            let order = permutations(&mut rng, entries.len());
            RequestStream { entries, order }
        }
        Workload::ServeRepeat => {
            let scale = REPEAT_POOL / 4 / deep_pool_len();
            let points = REPEAT_POOL - deep_pool_len() * scale;
            // Point shapes (`k` ≤ 50) come before the deep PT-k (`k` ≥
            // 100), so every kind's entries are in ascending `k`.
            let mut entries: Vec<Entry> = (0..points)
                .map(|i| Entry::sql(Kind::Ptk, point_synthetic(&mut pool, i, points)))
                .collect();
            entries.extend(deep_entries(&mut pool, scale));
            // Zipf rank r is entry r: popularity spreads evenly over every
            // kind and `k` range.
            let mut entries = spread_by_kind(entries);
            let first_malformed = entries.len();
            entries.extend(malformed_entries());
            let zipf = Zipf::new(REPEAT_POOL, REPEAT_ZIPF);
            let order = (0..ORDER_LEN)
                .map(|_| {
                    if rng.random::<f64>() < REPEAT_MALFORMED {
                        (first_malformed + rng.random_range(0..entries.len() - first_malformed))
                            as u32
                    } else {
                        zipf.sample(rng.random::<f64>()) as u32
                    }
                })
                .collect();
            RequestStream { entries, order }
        }
        Workload::ScanPaged => panic!("scan_paged sends no requests"),
    }
}

/// `(k, threshold)` pairs of `scan_paged`: `k` from 100 to 140 (at least
/// twice the deep-scan head, so every scan digs into the tail; a scan at
/// `k` = 200 costs ten times one at 100, and a run needs 1,000 scans for
/// its p99) and thresholds from 0.2 to 0.6, stratified to cover the
/// range.
pub const SCAN_POOL: usize = 32;

/// The `scan_paged` pool and its sending order.
pub fn scans(seed: u64) -> (Vec<(usize, f64)>, Vec<u32>) {
    let mut fixture = StdRng::seed_from_u64(derive_seed(POOL_SEED, 2));
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 3));
    let pool: Vec<(usize, f64)> = (0..SCAN_POOL)
        .map(|i| {
            (
                stratum(&mut fixture, i, SCAN_POOL, 100, 140),
                threshold(&mut fixture, i, SCAN_POOL),
            )
        })
        .collect();
    let order = permutations(&mut rng, pool.len());
    (pool, order)
}

fn deep_pool_len() -> usize {
    DEEP_PTK + DEEP_SEMANTICS + DEEP_UTOPK + DEEP_SAMPLING + DEEP_BATCH
}

/// The deep-shaped statements, `scale` times the base counts: half PT-k
/// at `k` 100–300, 30% unpruned GLOBAL_TOPK / U_KRANKS / EXPECTED_RANK at
/// `k` 40–120, U_TOPK at `k` ≤ 8, 5% sampling at `k` 10–40 and 10%
/// four-statement batches. The semantics and sampling ranges keep a
/// `serve_deep` run above the 1,000 samples its p99 needs. `k` is drawn
/// by stratum, so each kind's entries come out in ascending `k` (U_TOPK
/// before the other semantics).
fn deep_entries(rng: &mut StdRng, scale: usize) -> Vec<Entry> {
    let mut out = Vec::with_capacity(scale * deep_pool_len());
    let n = DEEP_PTK * scale;
    for i in 0..n {
        let k = stratum(rng, i, n, 100, 300);
        let p = threshold(rng, i, n);
        let filter = synthetic_filter(rng, i);
        out.push(Entry::sql(
            Kind::Ptk,
            format!("SELECT TOP {k} FROM s{filter} ORDER BY score DESC WITH PROBABILITY >= {p}"),
        ));
    }
    let n = DEEP_UTOPK * scale;
    for i in 0..n {
        let k = stratum(rng, i, n, 3, 8);
        out.push(Entry::sql(
            Kind::Semantics,
            format!("SELECT TOP {k} FROM s ORDER BY score DESC RANK BY U_TOPK"),
        ));
    }
    let n = DEEP_SEMANTICS * scale;
    for i in 0..n {
        let k = stratum(rng, i, n, 40, 120);
        let semantics = ["GLOBAL_TOPK", "U_KRANKS", "EXPECTED_RANK"][i % 3];
        let filter = synthetic_filter(rng, i);
        out.push(Entry::sql(
            Kind::Semantics,
            format!("SELECT TOP {k} FROM s{filter} ORDER BY score DESC RANK BY {semantics}"),
        ));
    }
    let n = DEEP_SAMPLING * scale;
    for i in 0..n {
        let k = stratum(rng, i, n, 10, 40);
        let p = threshold(rng, i, n);
        out.push(Entry::sql(
            Kind::Sampling,
            format!(
                "SELECT TOP {k} FROM s ORDER BY score DESC WITH PROBABILITY >= {p} USING SAMPLING"
            ),
        ));
    }
    let n = DEEP_BATCH * scale;
    for i in 0..n {
        let filter = synthetic_filter(rng, i);
        let statements: Vec<String> = (0..4)
            .map(|j| {
                let k = stratum(rng, i * 4 + j, n * 4, 100, 300);
                let p = threshold(rng, i * 4 + j, n * 4);
                format!("SELECT TOP {k} FROM s{filter} ORDER BY score DESC WITH PROBABILITY >= {p}")
            })
            .collect();
        out.push(Entry::sql(Kind::Batch, statements.join("; ")));
    }
    out
}

/// A point-shaped PT-k statement over the IIP table: `k` 5–50, threshold
/// 0.2–0.6, a `WHERE` on every third, a second `ORDER BY` column on every
/// fourth.
fn point_iip(rng: &mut StdRng, i: usize, n: usize) -> String {
    let k = stratum(rng, i, n, 5, 50);
    let p = threshold(rng, i, n);
    let filter = match i % 9 {
        0 => format!(" WHERE day >= {}", rng.random_range(0..240i64)),
        3 => format!(" WHERE drifted_days >= {}", rng.random_range(5..60i64)),
        6 => " WHERE source != 'SAT-H'".to_owned(),
        _ => String::new(),
    };
    let order = if i % 4 == 1 {
        "latitude"
    } else {
        "drifted_days"
    };
    format!("SELECT TOP {k} FROM sightings{filter} ORDER BY {order} DESC WITH PROBABILITY >= {p}")
}

/// A point-shaped PT-k statement over the synthetic table.
fn point_synthetic(rng: &mut StdRng, i: usize, n: usize) -> String {
    let k = stratum(rng, i, n, 5, 50);
    let p = threshold(rng, i, n);
    let filter = synthetic_filter(rng, i);
    format!("SELECT TOP {k} FROM s{filter} ORDER BY score DESC WITH PROBABILITY >= {p}")
}

/// A `WHERE` clause on every third statement of the synthetic table
/// (scores run 1..=20000).
fn synthetic_filter(rng: &mut StdRng, i: usize) -> String {
    match i % 6 {
        0 => format!(" WHERE score >= {}", rng.random_range(1_000..8_000i64)),
        3 => format!(" WHERE score <= {}", rng.random_range(12_000..19_500i64)),
        _ => String::new(),
    }
}

/// Requests the daemon must reject with an exact 400 body: statement
/// errors (answered by the handler) and malformed HTTP (answered by the
/// codec).
fn malformed_entries() -> Vec<Entry> {
    let mut out: Vec<Entry> = [
        "SELECT TOP 0 FROM s ORDER BY score DESC WITH PROBABILITY >= 0.5",
        "SELECT TOP 10 FROM s ORDER BY score DESC WITH PROBABILITY >= 1.5",
        "SELECT TOP 10 FROM s ORDER BY score DESC WITH PROBABILITY >= 0",
        "SELECT TOP 10 FROM s ORDER BY no_such_column DESC WITH PROBABILITY >= 0.5",
        "SELECT TOP 10 FROM s ORDER BY score DESC RANK BY NONSENSE",
        "SELECT TOP 10 FROM s ORDER BY score DESC RANK BY U_TOPK WITH PROBABILITY >= 0.5",
        "SELECT TOP 10 FROM s WHERE ORDER BY score DESC",
        "completely not sql",
    ]
    .into_iter()
    .map(|s| Entry::sql(Kind::SqlError, s.to_owned()))
    .collect();
    out.push(Entry::raw(b"GARBAGE\r\n\r\n"));
    out.push(Entry::raw(b"POST /sql SPDY/3\r\nContent-Length: 0\r\n\r\n"));
    out.push(Entry::raw(
        b"POST /sql HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
    ));
    out.push(Entry::raw(
        b"POST /sql HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
    ));
    out
}

/// A value in `[lo, hi]` from stratum `i` of `n`, so `n` draws spread
/// evenly over the range whatever the seed.
fn stratum(rng: &mut StdRng, i: usize, n: usize, lo: usize, hi: usize) -> usize {
    let width = (hi - lo + 1) as f64 / n as f64;
    let x = lo as f64 + (i as f64 + rng.random::<f64>()) * width;
    (x as usize).clamp(lo, hi)
}

/// A threshold in `[0.2, 0.6)` with two decimals, stratified on a
/// shuffled index so it does not track `k`.
fn threshold(rng: &mut StdRng, i: usize, n: usize) -> f64 {
    let j = (i * 7 + 3) % n;
    let cents = 20 + ((j as f64 + rng.random::<f64>()) * 40.0 / n as f64) as u32;
    f64::from(cents.min(59)) / 100.0
}

/// Orders `entries` so that every prefix holds each kind in proportion
/// and, within a kind, spans its `k` range: each kind's entries, given in
/// ascending `k`, are taken in van der Corput order (0, ½, ¼, ¾, …) and
/// the kinds are merged by their position in that sequence.
fn spread_by_kind(entries: Vec<Entry>) -> Vec<Entry> {
    let mut groups: Vec<Vec<Entry>> = Vec::new();
    for e in entries {
        match groups.iter_mut().find(|g| g[0].kind == e.kind) {
            Some(g) => g.push(e),
            None => groups.push(vec![e]),
        }
    }
    let mut keyed: Vec<(f64, Entry)> = Vec::new();
    for group in groups {
        let c = group.len();
        let mut positions: Vec<usize> = (0..c).collect();
        positions.sort_by(|&a, &b| radical_inverse(a).total_cmp(&radical_inverse(b)));
        for (m, pos) in positions.into_iter().enumerate() {
            keyed.push(((m as f64 + 0.5) / c as f64, group[pos].clone()));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, e)| e).collect()
}

/// The base-2 radical inverse of `i` (its bits mirrored after the binary
/// point): 0, 0.5, 0.25, 0.75, 0.125, …
fn radical_inverse(i: usize) -> f64 {
    (i as u64).reverse_bits() as f64 / 2f64.powi(64)
}

/// A uniformly random permutation of `0..n`.
fn permutation(rng: &mut StdRng, n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
    v
}

/// Back-to-back permutations of `0..n`: every window of `n` requests
/// covers the pool once, so the mix a run sees barely depends on the seed.
fn permutations(rng: &mut StdRng, n: usize) -> Vec<u32> {
    let mut order = Vec::with_capacity(ORDER_LEN + n);
    while order.len() < ORDER_LEN {
        order.extend(permutation(rng, n));
    }
    order.truncate(ORDER_LEN);
    order
}

/// A bounded Zipf draw over ranks `0..n` with `P(r) ∝ (r + 1)^-s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "a Zipf draw needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank for a uniform `u` in `[0, 1)`; always below `n`, even
    /// when rounding leaves the last cumulative weight under `u`.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        for w in [
            Workload::ServePoint,
            Workload::ServeDeep,
            Workload::ServeRepeat,
        ] {
            let a = requests(w, 11).to_bytes();
            assert_eq!(a, requests(w, 11).to_bytes(), "{}", w.name());
            assert_ne!(a, requests(w, 12).to_bytes(), "{}", w.name());
            // The pool is a fixture; the seed draws the order.
            assert_eq!(requests(w, 11).entries, requests(w, 12).entries);
        }
        assert_eq!(scans(11), scans(11));
        assert_ne!(scans(11), scans(12));
        assert_eq!(scans(11).0, scans(12).0);
    }

    #[test]
    fn zipf_draw_is_bounded() {
        for n in [1, 2, 7, REPEAT_POOL] {
            let zipf = Zipf::new(n, REPEAT_ZIPF);
            for u in [0.0, 0.5, 0.999_999_999_999, 1.0 - f64::EPSILON, 1.0, 2.0] {
                assert!(zipf.sample(u) < n, "n={n} u={u}");
            }
            let mut rng = StdRng::seed_from_u64(n as u64);
            for _ in 0..10_000 {
                assert!(zipf.sample(rng.random::<f64>()) < n);
            }
        }
        // Rank 0 is the most popular: P(0) = 1 / (1 + 1/2 + 1/3 + 1/4).
        let zipf = Zipf::new(4, 1.0);
        assert_eq!(zipf.sample(0.0), 0);
        assert_eq!(zipf.sample(0.47), 0);
        assert_eq!(zipf.sample(0.49), 1);
    }

    /// The `k` of an entry's first statement.
    fn first_k(e: &Entry) -> usize {
        let first = e.statement.split(';').next().unwrap_or("");
        ptk_sql::parse_statement(first).map_or(0, |s| s.query.k)
    }

    #[test]
    fn each_kind_comes_in_ascending_k() {
        // spread_by_kind relies on it.
        let mut rng = StdRng::seed_from_u64(5);
        let entries = deep_entries(&mut rng, 2);
        for kind in [Kind::Ptk, Kind::Semantics, Kind::Sampling, Kind::Batch] {
            let ks: Vec<usize> = entries
                .iter()
                .filter(|e| e.kind == kind)
                .map(first_k)
                .collect();
            assert!(ks.windows(2).all(|w| w[0] <= w[1]), "{kind:?}: {ks:?}");
        }
    }

    #[test]
    fn pools_have_the_documented_mix() {
        let count =
            |s: &RequestStream, kind: Kind| s.entries.iter().filter(|e| e.kind == kind).count();
        let deep = requests(Workload::ServeDeep, 3);
        assert_eq!(deep.entries.len(), 64);
        assert_eq!(count(&deep, Kind::Ptk), 32);
        assert_eq!(count(&deep, Kind::Sampling), 3);
        assert_eq!(count(&deep, Kind::Batch), 7);
        let repeat = requests(Workload::ServeRepeat, 3);
        assert_eq!(
            repeat.entries.iter().filter(|e| !e.kind.is_error()).count(),
            REPEAT_POOL
        );
        // The 64 most popular statements hold every kind of the mix.
        let hot: Vec<Kind> = repeat.entries[..64].iter().map(|e| e.kind).collect();
        for kind in [Kind::Ptk, Kind::Semantics, Kind::Sampling, Kind::Batch] {
            assert!(hot.contains(&kind), "{kind:?} missing from the hot set");
        }
        // ... and spans the PT-k range, point shapes and deep ones.
        let hot_ptk_k: Vec<usize> = repeat.entries[..64]
            .iter()
            .filter(|e| e.kind == Kind::Ptk)
            .map(first_k)
            .collect();
        assert!(hot_ptk_k.iter().any(|&k| k <= 50) && hot_ptk_k.iter().any(|&k| k >= 100));
        assert_eq!(count(&repeat, Kind::Sampling), 6);
        let malformed = repeat
            .order
            .iter()
            .filter(|&&i| repeat.entries[i as usize].kind.is_error())
            .count() as f64
            / repeat.order.len() as f64;
        assert!((malformed - REPEAT_MALFORMED).abs() < 0.005, "{malformed}");
        let point = requests(Workload::ServePoint, 3);
        assert!(point.entries.iter().all(|e| e.kind == Kind::Ptk));
        for e in point
            .entries
            .iter()
            .chain(&deep.entries)
            .chain(&repeat.entries)
        {
            if e.kind.is_error() {
                continue;
            }
            for s in e.statement.split("; ") {
                let parsed = ptk_sql::parse_statement(s).expect("valid statement");
                assert!(parsed.query.k >= 3 && parsed.query.k <= 300, "{s}");
            }
        }
    }
}
