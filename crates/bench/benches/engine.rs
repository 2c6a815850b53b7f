//! Criterion micro-benchmarks of the engine substrate: wall-clock
//! throughput of the real components (parsing, codecs, Bloom filters,
//! the Select engine, local operators). These complement the figure
//! harnesses (which use the analytic clock) by benchmarking the actual
//! Rust implementation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use pushdown_common::{DataType, Row, Schema, Value};
use pushdown_core::ops;
use pushdown_core::scan::{plain_scan_streamed, ScanRequest};
use pushdown_format::columnar::{encode_columnar, ColumnarReader, WriterOptions};
use pushdown_format::compress;
use pushdown_format::csv::{decode_csv, encode_csv};
use pushdown_s3::S3Store;
use pushdown_select::{InputFormat, S3SelectEngine};
use pushdown_sql::bind::Binder;
use pushdown_sql::eval::eval_predicate;
use pushdown_sql::{parse_expr, parse_select};
use std::hint::black_box;

fn sample_schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("name", DataType::Str),
        ("bal", DataType::Float),
        ("d", DataType::Date),
    ])
}

fn sample_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Str(format!("Customer#{:09}", i % 1000)),
                Value::Float((i as f64 * 37.5) % 10000.0 - 999.0),
                Value::Date(8000 + (i % 2000) as i32),
            ])
        })
        .collect()
}

fn bench_csv(c: &mut Criterion) {
    let schema = sample_schema();
    let rows = sample_rows(10_000);
    let bytes = encode_csv(&schema, &rows);
    let mut g = c.benchmark_group("csv");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_10k_rows", |b| {
        b.iter(|| black_box(encode_csv(&schema, &rows)))
    });
    g.bench_function("decode_10k_rows", |b| {
        b.iter(|| black_box(decode_csv(&bytes, &schema).unwrap()))
    });
    g.finish();
}

fn bench_columnar(c: &mut Criterion) {
    let schema = sample_schema();
    let rows = sample_rows(10_000);
    let opts = WriterOptions {
        rows_per_group: 4096,
        compress: true,
    };
    let bytes = encode_columnar(&schema, &rows, opts);
    let mut g = c.benchmark_group("columnar");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_10k_rows", |b| {
        b.iter(|| black_box(encode_columnar(&schema, &rows, opts)))
    });
    g.bench_function("decode_10k_rows", |b| {
        b.iter_batched(
            || bytes::Bytes::from(bytes.clone()),
            |data| {
                let r = ColumnarReader::open(data).unwrap();
                black_box(r.read_all().unwrap())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("decode_one_column", |b| {
        b.iter_batched(
            || bytes::Bytes::from(bytes.clone()),
            |data| {
                let r = ColumnarReader::open(data).unwrap();
                black_box(r.read_column(0, 2).unwrap())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_compression(c: &mut Criterion) {
    let schema = sample_schema();
    let data = encode_csv(&schema, &sample_rows(10_000));
    let compressed = compress::compress(&data);
    let mut g = c.benchmark_group("compress");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("compress_csv", |b| {
        b.iter(|| black_box(compress::compress(&data)))
    });
    g.bench_function("decompress_csv", |b| {
        b.iter(|| black_box(compress::decompress(&compressed, data.len()).unwrap()))
    });
    g.finish();
}

fn bench_sql(c: &mut Criterion) {
    let mut g = c.benchmark_group("sql");
    let bloom_sql = {
        let mut f = pushdown_bloom::BloomFilter::with_rate(5_000, 0.01, 1);
        for k in 0..5_000 {
            f.insert(k);
        }
        format!("SELECT * FROM S3Object WHERE {}", f.sql_predicate("k"))
    };
    g.bench_function("parse_simple_select", |b| {
        b.iter(|| {
            black_box(
                parse_select(
                    "SELECT a, b, SUM(c) FROM S3Object WHERE a <= -950 AND b <> 'x' LIMIT 5",
                )
                .unwrap(),
            )
        })
    });
    g.throughput(Throughput::Bytes(bloom_sql.len() as u64));
    g.bench_function("parse_bloom_predicate_48kb", |b| {
        b.iter(|| black_box(parse_select(&bloom_sql).unwrap()))
    });
    let schema = sample_schema();
    let pred = Binder::new(&schema)
        .bind_expr(&parse_expr("bal <= -950 AND d < DATE '1995-01-01'").unwrap())
        .unwrap();
    let rows = sample_rows(10_000);
    g.bench_function("eval_predicate_10k_rows", |b| {
        b.iter(|| {
            let mut n = 0u32;
            for r in &rows {
                if eval_predicate(&pred, r).unwrap() {
                    n += 1;
                }
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_bloom(c: &mut Criterion) {
    let mut g = c.benchmark_group("bloom");
    g.bench_function("build_10k_keys_fpr_0.01", |b| {
        b.iter(|| {
            let mut f = pushdown_bloom::BloomFilter::with_rate(10_000, 0.01, 7);
            for k in 0..10_000 {
                f.insert(k);
            }
            black_box(f)
        })
    });
    let mut f = pushdown_bloom::BloomFilter::with_rate(10_000, 0.01, 7);
    for k in 0..10_000 {
        f.insert(k);
    }
    g.bench_function("probe_10k_keys", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for k in 5_000..15_000 {
                if f.contains(k) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("render_sql_predicate", |b| {
        b.iter(|| black_box(f.sql_predicate("o_custkey").to_string()))
    });
    g.finish();
}

fn bench_select_engine(c: &mut Criterion) {
    let schema = sample_schema();
    let rows = sample_rows(20_000);
    let store = S3Store::new();
    store.put_object("b", "t.csv", encode_csv(&schema, &rows));
    store.put_object(
        "b",
        "t.clt",
        encode_columnar(&schema, &rows, WriterOptions::default()),
    );
    let engine = S3SelectEngine::new(store);
    let bytes = engine.store().total_size("b", "t.csv");
    let mut g = c.benchmark_group("select_engine");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("filter_scan_csv_20k", |b| {
        b.iter(|| {
            black_box(
                engine
                    .select(
                        "b",
                        "t.csv",
                        "SELECT k, bal FROM S3Object WHERE bal <= -900",
                        &schema,
                        InputFormat::Csv,
                    )
                    .unwrap(),
            )
        })
    });
    g.bench_function("aggregate_scan_csv_20k", |b| {
        b.iter(|| {
            black_box(
                engine
                    .select(
                        "b",
                        "t.csv",
                        "SELECT SUM(bal), COUNT(*), MIN(k), MAX(k) FROM S3Object",
                        &schema,
                        InputFormat::Csv,
                    )
                    .unwrap(),
            )
        })
    });
    g.bench_function("filter_scan_columnar_20k", |b| {
        b.iter(|| {
            black_box(
                engine
                    .select(
                        "b",
                        "t.clt",
                        "SELECT k, bal FROM S3Object WHERE bal <= -900",
                        &schema,
                        InputFormat::Columnar,
                    )
                    .unwrap(),
            )
        })
    });
    g.finish();
}

/// The Select engine over 10 K rows with the Bloom-join probe predicate
/// (paper Listing 1) at two bit-array sizes. Each row slices the
/// bit-string literal once per hash function, so per-row time must not
/// grow with the array: both sizes should report about the same time.
fn bench_select_bloom_probe(c: &mut Criterion) {
    let schema = sample_schema();
    let rows = sample_rows(10_000);
    let store = S3Store::new();
    store.put_object("b", "t.csv", encode_csv(&schema, &rows));
    let engine = S3SelectEngine::new(store);
    let bytes = engine.store().total_size("b", "t.csv");
    let mut g = c.benchmark_group("select");
    g.throughput(Throughput::Bytes(bytes));
    for (name, bits) in [
        ("bloom_probe_8k_bits", 8 * 1024),
        ("bloom_probe_64k_bits", 64 * 1024),
    ] {
        let mut f = pushdown_bloom::BloomFilter::with_geometry(bits, 3, 7);
        for k in (0..10_000).step_by(3) {
            f.insert(k);
        }
        let sql = format!("SELECT k FROM S3Object WHERE {}", f.sql_predicate("k"));
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    engine
                        .select("b", "t.csv", &sql, &schema, InputFormat::Csv)
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

/// The Baseline row scan over a lineitem-shaped 60 K-row CSV table
/// (sf 0.01 TPC-H lineitem, six 10 K-row objects) on 2 scan threads. The
/// workers decode, filter and project, so the selective request (one
/// year of ship dates, three columns) ships a sliver of the rows that
/// the unfiltered, full-width `SELECT *` request ships.
fn bench_local_scan(c: &mut Criterion) {
    let tpch = pushdown_tpch::TpchGen::new(0.01);
    let (_, orders) = tpch.orders();
    let (schema, rows) = tpch.lineitems(&orders);
    let store = S3Store::new();
    let table =
        pushdown_core::upload_csv_table(&store, "b", "lineitem", &schema, &rows, 10_000).unwrap();
    let mut ctx = pushdown_core::QueryContext::new(store);
    ctx.scan_threads = 2;
    let pred = Binder::new(&schema)
        .bind_expr(&parse_expr("l_shipdate < DATE '1993-01-01'").unwrap())
        .unwrap();
    let cols: Vec<usize> = ["l_orderkey", "l_extendedprice", "l_shipdate"]
        .iter()
        .map(|c| schema.resolve(c).unwrap())
        .collect();
    let mut g = c.benchmark_group("scan");
    g.throughput(Throughput::Bytes(table.total_bytes(&ctx.store)));
    for (name, request) in [
        (
            "local_selective_60k",
            ScanRequest {
                predicate: Some(&pred),
                columns: Some(&cols),
            },
        ),
        ("local_wildcard_60k", ScanRequest::all()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut kept = 0;
                plain_scan_streamed(&ctx, &table, request, |batch| {
                    kept += batch.len();
                    Ok(())
                })
                .unwrap();
                black_box(kept)
            })
        });
    }
    g.finish();
}

fn bench_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("ops");
    let left = sample_rows(5_000);
    let right = sample_rows(20_000);
    g.bench_function("hash_join_5k_x_20k", |b| {
        b.iter_batched(
            || (left.clone(), right.clone()),
            |(l, r)| {
                let mut stats = Default::default();
                black_box(ops::hash_join(l, 0, r, 0, &mut stats))
            },
            BatchSize::SmallInput,
        )
    });
    let rows = sample_rows(20_000);
    g.bench_function("hash_group_by_20k", |b| {
        b.iter(|| {
            let mut stats = Default::default();
            black_box(
                ops::hash_group_by(
                    &rows,
                    &[1],
                    &[
                        (pushdown_sql::agg::AggFunc::Sum, Some(2)),
                        (pushdown_sql::agg::AggFunc::Count, None),
                    ],
                    &mut stats,
                )
                .unwrap(),
            )
        })
    });
    g.bench_function("top_k_100_of_20k", |b| {
        b.iter(|| {
            let mut stats = Default::default();
            black_box(ops::top_k(&rows, 2, 100, true, &mut stats))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_csv,
    bench_columnar,
    bench_compression,
    bench_sql,
    bench_bloom,
    bench_select_engine,
    bench_select_bloom_probe,
    bench_local_scan,
    bench_ops
);
criterion_main!(benches);
