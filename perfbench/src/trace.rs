//! The traced run's span recorder and the folds that turn spans into
//! per-layer metrics.
//!
//! Every query of the traced stream gets an id. Its `execute_sql` call
//! is the parent span; the layer calls replayed on that query's inputs
//! are child spans with the same query id. Replays run after the parent
//! call returns, so a parent's self time is its duration minus the
//! durations of its children, not minus an overlap of intervals, and
//! per-query folds average over the queries that were replayed.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the parent span of each query.
pub const QUERY: &str = "query";

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub query: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Monotonic nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes the call processed (0 where a rate makes no sense).
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span whose interval was taken with [`Recorder::now_ns`].
    pub fn push(
        &mut self,
        query: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        bytes: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            query,
            parent,
            name,
            start_ns,
            end_ns,
            bytes,
        });
        id
    }

    /// Time `f` as one span; `bytes` reads the processed byte count off
    /// its result.
    pub fn time<T>(
        &mut self,
        query: usize,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        self.push(query, parent, name, start, end, bytes(&out));
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tquery\tparent\tname\tstart_ns\tend_ns\tbytes")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.query, parent, s.name, s.start_ns, s.end_ns, s.bytes
            )?;
        }
        Ok(())
    }
}

/// Count, total duration and total bytes of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fold {
    pub count: u64,
    pub total_ns: u64,
    pub bytes: u64,
}

impl Fold {
    /// Mean duration in microseconds (0 when no span was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.count as f64
        }
    }

    /// Bytes per second over the spans' summed durations.
    pub fn bytes_per_s(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.bytes as f64 / (self.total_ns as f64 / 1e9)
        }
    }
}

/// Fold spans by name.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Fold> {
    let mut out: BTreeMap<&'static str, Fold> = BTreeMap::new();
    for s in spans {
        let f = out.entry(s.name).or_default();
        f.count += 1;
        f.total_ns += s.duration_ns();
        f.bytes += s.bytes;
    }
    out
}

/// Summed durations of the direct children named `child` of every
/// [`QUERY`] span that has at least one, by parent span id.
fn child_ns(spans: &[Span], child: &str) -> BTreeMap<usize, u64> {
    let mut out: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == child) {
        if let Some(p) = s.parent {
            *out.entry(p).or_default() += s.duration_ns();
        }
    }
    out
}

/// Mean, over the [`QUERY`] spans with children named `child`, of the
/// query's duration minus those children's durations, in milliseconds:
/// with `child` = the scan replays, the time the query spent outside
/// its scan leaves (planning plus local operators).
pub fn query_self_ms(spans: &[Span], child: &str) -> f64 {
    let children = child_ns(spans, child);
    let own: f64 = spans
        .iter()
        .filter_map(|q| Some(q.duration_ns() as f64 - *children.get(&q.id)? as f64))
        .sum();
    mean_ms(own, children.len())
}

/// Mean summed duration of the children named `child` per [`QUERY`]
/// span that has any, in milliseconds.
pub fn per_query_ms(spans: &[Span], child: &str) -> f64 {
    let children = child_ns(spans, child);
    mean_ms(children.values().sum::<u64>() as f64, children.len())
}

fn mean_ms(total_ns: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_ns / 1e6 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three queries: q0 runs 10 ms and has two scan children (3 + 2 ms)
    /// and a parse child; q1 runs 4 ms with one 1 ms scan child; q2 was
    /// not replayed.
    fn tree() -> Vec<Span> {
        let mut r = Recorder::new();
        let q0 = r.push(0, None, QUERY, 0, 10_000_000, 0);
        r.push(0, Some(q0), "core.scan", 10_000_000, 13_000_000, 3_000_000);
        r.push(0, Some(q0), "core.scan", 13_000_000, 15_000_000, 1_000_000);
        r.push(0, Some(q0), "sql.parse", 15_000_000, 15_010_000, 0);
        let q1 = r.push(1, None, QUERY, 20_000_000, 24_000_000, 0);
        r.push(1, Some(q1), "core.scan", 24_000_000, 25_000_000, 500_000);
        r.push(2, None, QUERY, 30_000_000, 90_000_000, 0);
        r.spans().to_vec()
    }

    #[test]
    fn ops_time_is_query_minus_its_scan_children() {
        let spans = tree();
        // q0: 10 - (3 + 2) = 5 ms; q1: 4 - 1 = 3 ms; mean 4 ms.
        assert!((query_self_ms(&spans, "core.scan") - 4.0).abs() < 1e-9);
        // Scan time per query: (3 + 2 + 1) / 2 queries.
        assert!((per_query_ms(&spans, "core.scan") - 3.0).abs() < 1e-9);
        // Queries without such children are left out of both means.
        assert_eq!(query_self_ms(&spans, "absent"), 0.0);
        assert_eq!(per_query_ms(&spans, "absent"), 0.0);
    }

    #[test]
    fn folds_count_time_and_bytes_per_name() {
        let folds = fold(&tree());
        let scan = folds["core.scan"];
        assert_eq!(scan.count, 3);
        assert_eq!(scan.total_ns, 6_000_000);
        assert_eq!(scan.bytes, 4_500_000);
        // 4.5 MB in 6 ms.
        assert!((scan.bytes_per_s() - 750e6).abs() < 1e-3);
        assert!((folds["sql.parse"].mean_us() - 10.0).abs() < 1e-9);
        assert_eq!(folds[QUERY].count, 3);
        assert_eq!(Fold::default().mean_us(), 0.0);
        assert_eq!(Fold::default().bytes_per_s(), 0.0);
    }

    #[test]
    fn recorder_times_calls_and_writes_every_span() {
        let mut r = Recorder::new();
        let v = r.time(3, None, QUERY, || vec![1u8; 64], |v| v.len() as u64);
        assert_eq!(v.len(), 64);
        let s = &r.spans()[0];
        assert_eq!((s.query, s.parent, s.name, s.bytes), (3, None, QUERY, 64));
        assert!(s.end_ns >= s.start_ns);
        let mut out = Vec::new();
        r.write_tsv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }
}
