//! Wall-clock benchmark of the PushdownDB reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch-baseline --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Runs one seeded workload as one closed-loop client, checks every
//! result against a reference, and prints one JSON object as its last
//! line of output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. Exits 1
//! when a result is wrong or a count that must repeat exactly did not,
//! 2 on a usage or set-up error. `README.md` describes the workloads
//! and every metric.

mod procfs;
mod replay;
mod run;
mod shape;
mod stats;
mod trace;
mod workloads;

use pushdown_common::mix::fnv1a;
use pushdown_common::perf::PerfParams;
use replay::Replay;
use run::{run_stream, Outcome, Suite};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{build, prepare, Env, Workload};

/// Everything the benchmark writes lives under this directory of the
/// checkout it runs in.
const STATE_DIR: &str = ".perfbench_state";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::TpchBaseline,
        seed: workloads::DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value).ok_or_else(|| bad("workload"))?
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The JSON result line, plus whether every check passed.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Finite by construction; `{:?}` keeps every digit.
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = Path::new(STATE_DIR).join(format!("run-{}", std::process::id()));
    let result = bench(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

fn bench(args: &Args, run_dir: &Path) -> BoxResult<Report> {
    let w = args.workload;
    let stream = workloads::stream(w, args.seed, args.seconds);
    let stream = (&stream[..], workloads::pass_len(w, args.seconds));
    eprintln!(
        "perfbench: workload {} seed {} queries {} clients 1 scan_threads {} trace {}",
        w.name(),
        args.seed,
        stream.0.len(),
        workloads::scan_threads(),
        args.trace as u8
    );
    let mut errors = Vec::new();
    let (outcome, mut metrics) = if args.trace {
        traced(args, stream, run_dir, &mut errors)?
    } else {
        untraced(args, stream, run_dir)?
    };
    errors.extend(outcome.errors.iter().cloned());
    errors.extend(check_repeat(args, &outcome)?);
    for e in &errors {
        eprintln!("perfbench: error: {e}");
    }
    let passes: Vec<String> = outcome
        .passes
        .iter()
        .map(|p| format!("{:.2}", p.wall_s))
        .collect();
    eprintln!("perfbench: pass wall s {}", passes.join(" "));
    for (name, mut lat) in by_query(&outcome) {
        lat.sort_by(f64::total_cmp);
        let p50 = stats::percentile(&lat, 50.0).unwrap_or(0.0);
        eprintln!("perfbench: {name:<18} n {:>3}  p50 {p50:9.1} ms", lat.len());
    }
    let n = outcome.attempted;
    eprintln!("perfbench: {n} queries in {:.2} s", outcome.wall_s);
    for (name, v, _) in metrics.iter_mut().filter(|m| !m.1.is_finite()) {
        errors.push(format!("`{name}` is not a finite number"));
        *v = 0.0;
    }
    Ok(Report {
        correct: errors.is_empty(),
        attempted: n,
        failed: outcome.failed,
        metrics,
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;
/// A timed stream and its pass length.
type Stream<'a> = (&'a [pushdown_tpch::PlannerQuery], usize);

/// Latencies of the untraced stream grouped by suite query.
fn by_query(o: &Outcome) -> std::collections::BTreeMap<&'static str, Vec<f64>> {
    let mut out = std::collections::BTreeMap::<&'static str, Vec<f64>>::new();
    for &(name, ms) in &o.latencies_ms {
        out.entry(name).or_default().push(ms);
    }
    out
}

/// Print the data and cache sizes of a set-up.
fn describe(env: &Env, w: Workload) {
    let store = &env.ctx.store;
    let li = &env.tables.lineitem;
    eprintln!(
        "perfbench: dataset {} bytes; lineitem {} bytes in {} objects",
        env.dataset_bytes,
        li.total_bytes(store),
        li.partitions(store).len()
    );
    if w.cached() {
        let (mem, disk) = workloads::tier_budgets(env.dataset_bytes);
        eprintln!("perfbench: cache tiers mem {mem} bytes, disk {disk} bytes");
    }
}

/// Set up `SETUP_REPEATS` times, then run the timed stream untraced.
fn untraced(args: &Args, stream: Stream, run_dir: &Path) -> BoxResult<(Outcome, Metrics)> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut env: Option<Env> = None;
    let mut suite = None;
    for i in 0..SETUP_REPEATS {
        drop(env.take());
        let t = Instant::now();
        let mut e = build(w, args.seed)?;
        let mut took = t.elapsed();
        if suite.is_none() {
            describe(&e, w);
            // The reference results are untimed.
            suite = Some(Suite::new(&e)?);
        }
        let t = Instant::now();
        prepare(&mut e, w, args.seed, &run_dir.join(format!("cache-{i}")))?;
        took += t.elapsed();
        setup_s.push(took.as_secs_f64());
        env = Some(e);
    }
    let (env, suite) = (env.expect("set up"), suite.expect("set up"));
    let o = run_stream(&env, w, args.seed, stream, &suite, None)?;
    // The reference VM's hypervisor steals CPU time in bursts of tens of
    // seconds; a median over passes keeps one disturbed stretch of a run
    // from setting its throughput.
    let per_pass = |f: &dyn Fn(&run::Pass) -> f64| stats::median(o.passes.iter().map(f));
    let mut lat: Vec<f64> = o.latencies_ms.iter().map(|l| l.1).collect();
    lat.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: {} latencies; p90 has {} samples beyond it{}",
        lat.len(),
        stats::samples_beyond(lat.len(), 90.0),
        if stats::supports(lat.len(), 90.0) {
            ""
        } else {
            " (fewer than ten)"
        }
    );
    let p = |q| stats::percentile(&lat, q).unwrap_or(f64::NAN);
    let n = o.attempted as f64;
    let metrics = vec![
        (
            "qps",
            per_pass(&|p| p.latencies_ms.len() as f64 / p.wall_s),
            "1/s",
        ),
        (
            "mb_s",
            per_pass(&|p| p.named_bytes as f64 / 1e6 / p.wall_s),
            "MB/s",
        ),
        ("latency_p50_ms", p(50.0), "ms"),
        ("latency_p90_ms", p(90.0), "ms"),
        ("cpu_ms_per_query", o.cpu_s * 1e3 / n, "ms"),
        ("peak_rss_mb", o.peak_rss_bytes as f64 / 1e6, "MB"),
        ("setup_s", stats::median(setup_s), "s"),
        ("dollars_per_query", o.per_query(o.dollars), "USD"),
        ("virtual_s_per_query", o.per_query(o.virtual_s), "s"),
    ];
    Ok((o, metrics))
}

/// Run the stream untraced, then again on a fresh set-up with every
/// layer call replayed and timed; fold the spans into per-layer metrics.
fn traced(
    args: &Args,
    stream: Stream,
    run_dir: &Path,
    errors: &mut Vec<String>,
) -> BoxResult<(Outcome, Metrics)> {
    let w = args.workload;
    let mut env = build(w, args.seed)?;
    let suite = Suite::new(&env)?;
    prepare(&mut env, w, args.seed, &run_dir.join("cache-untraced"))?;
    let plain = run_stream(&env, w, args.seed, stream, &suite, None)?;
    drop(env);

    let mut env = build(w, args.seed)?;
    prepare(&mut env, w, args.seed, &run_dir.join("cache-traced"))?;
    let mut replay = Replay::new(&env, w)?;
    let traced = run_stream(&env, w, args.seed, stream, &suite, Some(&mut replay))?;
    let cache = match env.ctx.cache() {
        Some(c) => c,
        None => replay::scratch_cache(env.dataset_bytes, &run_dir.join("cache-replay"))?,
    };
    replay.cache(&cache)?;
    drop(cache);
    drop(env);
    for ((name, a), (_, b)) in plain.exact().into_iter().zip(traced.exact()) {
        if a != b {
            errors.push(format!(
                "`{name}` differs between the untraced and the traced run of one seed ({a:#x} vs {b:#x})"
            ));
        }
    }
    errors.extend(traced.errors.iter().map(|e| format!("traced run: {e}")));

    let spans = replay.rec.spans();
    std::fs::create_dir_all(STATE_DIR)?;
    let path = Path::new(STATE_DIR).join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    replay.rec.write_tsv(&mut out)?;
    out.flush()?;

    let f = trace::fold(spans);
    let get = |name: &str| f.get(name).copied().unwrap_or_default();
    let mb_s = |name: &str| get(name).bytes_per_s() / 1e6;
    let rate = |name: &str| get(name).bytes_per_s();
    let pp = PerfParams::default();
    let n = plain.attempted as f64;
    let c = &plain.cache;
    let untraced_qps = n / plain.query_wall_s;
    let traced_qps = n / traced.query_wall_s;
    let metrics = vec![
        ("sql.parse_us", get("sql.parse").mean_us(), "us"),
        ("s3.get_mb_s", mb_s("s3.get"), "MB/s"),
        (
            "s3.requests_per_query",
            plain.billed.requests as f64 / n,
            "count",
        ),
        (
            "s3.plain_mb_per_query",
            plain.billed.plain_bytes as f64 / 1e6 / n,
            "MB",
        ),
        ("format.csv_decode_mb_s", mb_s("format.csv_decode"), "MB/s"),
        ("format.csv_encode_mb_s", mb_s("format.csv_encode"), "MB/s"),
        (
            "format.columnar_decode_mb_s",
            mb_s("format.columnar_decode"),
            "MB/s",
        ),
        (
            "format.response_decode_mb_s",
            mb_s("format.response_decode"),
            "MB/s",
        ),
        ("select.scan_mb_s", mb_s("select.scan"), "MB/s"),
        ("select.bloom_scan_mb_s", mb_s("select.bloom_scan"), "MB/s"),
        (
            "select.scanned_mb_per_query",
            plain.billed.select_scanned_bytes as f64 / 1e6 / n,
            "MB",
        ),
        (
            "select.returned_mb_per_query",
            plain.billed.select_returned_bytes as f64 / 1e6 / n,
            "MB",
        ),
        ("bloom.build_us", get("bloom.build").mean_us(), "us"),
        (
            "core.scan_ms_per_query",
            trace::per_query_ms(spans, "core.scan"),
            "ms",
        ),
        (
            "core.ops_ms_per_query",
            trace::query_self_ms(spans, "core.scan"),
            "ms",
        ),
        ("cache.mem_get_us", get("cache.get.mem").mean_us(), "us"),
        ("cache.disk_get_us", get("cache.get.disk").mean_us(), "us"),
        ("cache.insert_us", get("cache.insert").mean_us(), "us"),
        ("cache.mem_hit_ratio", c.mem_hit_ratio(), "ratio"),
        ("cache.disk_hit_ratio", c.disk_hit_ratio(), "ratio"),
        (
            "cache.evictions_per_query",
            (c.evictions + c.disk_evictions) as f64 / n,
            "count",
        ),
        ("cache.fsyncs_per_query", c.fsyncs as f64 / n, "count"),
        ("cache.write_amp", c.write_amp(), "ratio"),
        (
            "calib.parse_plain",
            rate("format.csv_decode") / pp.parse_plain_bw,
            "ratio",
        ),
        (
            "calib.parse_select",
            rate("format.response_decode") / pp.parse_select_bw,
            "ratio",
        ),
        (
            "calib.parse_cl",
            rate("format.columnar_decode") / pp.parse_cl_bw,
            "ratio",
        ),
        (
            "calib.s3_scan",
            rate("select.scan") / pp.s3_scan_bw,
            "ratio",
        ),
        (
            "calib.cache_read",
            rate("cache.get.mem") / pp.cache_read_bw,
            "ratio",
        ),
        (
            "calib.disk_read",
            rate("cache.get.disk") / pp.disk_read_bw,
            "ratio",
        ),
        (
            "trace.qps_overhead_frac",
            1.0 - traced_qps / untraced_qps,
            "ratio",
        ),
    ];
    Ok((plain, metrics))
}

/// Compare the run's exact values with the record an earlier run of the
/// same code, workload, seed and stream length left in the checkout, or
/// leave that record. A difference is drift, reported as an error.
fn check_repeat(args: &Args, o: &Outcome) -> BoxResult<Vec<String>> {
    let dir = Path::new(STATE_DIR).join("exact");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-n{}-code{:016x}.txt",
        args.workload.name(),
        args.seed,
        o.attempted,
        source_fingerprint()
    ));
    let mut now = String::new();
    for (name, v) in o.exact() {
        let _ = writeln!(now, "{name} {v:#x}");
    }
    let Ok(before) = std::fs::read_to_string(&path) else {
        std::fs::write(&path, &now)?;
        return Ok(Vec::new());
    };
    Ok(before
        .lines()
        .zip(now.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("drift against an earlier run of this seed: `{a}` now `{b}`"))
        .collect())
}

/// FNV-1a over the paths and contents of the program's sources, so
/// records from other code versions are never compared.
fn source_fingerprint() -> u64 {
    let mut files = Vec::new();
    for root in [
        "crates",
        "src",
        "perfbench/src",
        "Cargo.lock",
        "perfbench/Cargo.lock",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    fnv1a(files.iter().flat_map(|p| {
        let mut bytes = p.to_string_lossy().into_owned().into_bytes();
        bytes.extend(std::fs::read(p).unwrap_or_default());
        bytes
    }))
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = args(&[
            "--workload",
            "tpch-pushdown",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::TpchPushdown);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--verbose", "1"]).is_err());
    }

    #[test]
    fn report_prints_every_digit_and_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("qps", 1.2034567891, "1/s"), ("setup_s", 0.5, "s")],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"qps\": {\"value\": 1.2034567891, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
