//! Differential test of the S3 Select engine's scan path.
//!
//! The engine decodes only the columns a statement references and
//! encodes its CSV response as it scans. This test pins that the shortcut
//! is invisible: for the storage-side statements the planner suite pushes
//! (one or more per suite query) plus a Bloom-join probe, run on every
//! object of a small TPC-H dataset, the response bytes and `SelectStats`
//! equal a local reference that fully decodes the object, evaluates the
//! bound statement row by row and encodes with a headerless `CsvWriter`.
//! The response rows must also equal the ColumnarLite path's.

use pushdowndb::bloom::BloomFilter;
use pushdowndb::common::{Row, Schema, Value};
use pushdowndb::format::columnar::{encode_columnar, WriterOptions};
use pushdowndb::format::csv::{decode_csv, CsvReader, CsvRecord, CsvWriter};
use pushdowndb::s3::S3Store;
use pushdowndb::select::{InputFormat, S3SelectEngine, SelectStats};
use pushdowndb::sql::bind::{Binder, BoundItem};
use pushdowndb::sql::eval::{eval, eval_predicate};
use pushdowndb::sql::parse_select;
use pushdowndb::tpch::{load_tpch, TpchGen, TpchTables};

/// What the engine must answer for `sql` over one CSV object, computed
/// from a full decode of the object.
fn reference(raw: &[u8], schema: &Schema, sql: &str) -> (Vec<u8>, SelectStats) {
    let stmt = parse_select(sql).unwrap();
    let bound = Binder::new(schema).bind_select(&stmt).unwrap();
    let records: Vec<CsvRecord> = CsvReader::with_header(raw, schema.clone())
        .collect::<pushdowndb::common::Result<_>>()
        .unwrap();
    let mut out = CsvWriter::headerless();
    let mut returned = 0u64;
    let mut scanned = raw.len() as u64;
    let mut accs: Vec<_> = bound
        .items
        .iter()
        .filter_map(|item| match item {
            BoundItem::Agg { func, .. } => Some(func.accumulator()),
            BoundItem::Expr { .. } => None,
        })
        .collect();
    for rec in &records {
        let row = &rec.row;
        if let Some(w) = &bound.where_clause {
            if !eval_predicate(w, row).unwrap() {
                continue;
            }
        }
        if bound.is_aggregate {
            for (acc, item) in accs.iter_mut().zip(&bound.items) {
                let BoundItem::Agg { arg, .. } = item else {
                    unreachable!()
                };
                let v = match arg {
                    Some(e) => eval(e, row).unwrap(),
                    None => Value::Bool(true),
                };
                acc.update(&v).unwrap();
            }
            continue;
        }
        let projected: Vec<Value> = bound
            .items
            .iter()
            .map(|item| match item {
                BoundItem::Expr { expr, .. } => eval(expr, row).unwrap(),
                BoundItem::Agg { .. } => unreachable!(),
            })
            .collect();
        out.write_row(&Row::new(projected));
        returned += 1;
        if bound.limit.is_some_and(|l| returned >= l) {
            scanned = (rec.last_byte + 2).min(raw.len() as u64);
            break;
        }
    }
    if bound.is_aggregate {
        out.write_row(&Row::new(accs.iter().map(|a| a.finish()).collect()));
        returned = 1;
    }
    let data = out.finish();
    let stats = SelectStats {
        bytes_scanned: scanned,
        bytes_returned: data.len() as u64,
        records_returned: returned,
        expr_terms: stmt.term_count(),
        attempts: 1,
    };
    (data, stats)
}

/// The storage-side statements of the planner suite, by suite query:
/// `(suite query, table, Select statement)`.
fn pushed_statements(t: &TpchTables, bloom_probe: &str) -> Vec<(&'static str, String, String)> {
    let stmt = |name: &'static str, table: &pushdowndb::core::Table, sql: &str| {
        (name, table.name.clone(), sql.to_string())
    };
    vec![
        stmt(
            "filter-selective",
            &t.lineitem,
            "SELECT l_orderkey, l_extendedprice FROM S3Object \
             WHERE l_shipdate < DATE '1993-01-01'",
        ),
        stmt(
            "filter-wide",
            &t.orders,
            "SELECT * FROM S3Object WHERE o_totalprice > 1000",
        ),
        stmt(
            "aggregate",
            &t.lineitem,
            "SELECT SUM(l_extendedprice), COUNT(*) FROM S3Object \
             WHERE l_shipdate <= DATE '1998-09-02'",
        ),
        stmt(
            "groupby-uniform",
            &t.orders,
            "SELECT SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN o_totalprice ELSE 0 END), \
             SUM(CASE WHEN o_orderpriority = '5-LOW' THEN 1 ELSE 0 END) FROM S3Object",
        ),
        stmt(
            "groupby-filtered",
            &t.lineitem,
            "SELECT l_returnflag, l_quantity FROM S3Object \
             WHERE l_shipdate < DATE '1996-01-01'",
        ),
        stmt(
            "topk-100",
            &t.lineitem,
            "SELECT l_extendedprice FROM S3Object LIMIT 100",
        ),
        stmt(
            "topk-100",
            &t.lineitem,
            "SELECT * FROM S3Object WHERE l_extendedprice >= 50000",
        ),
        stmt(
            "topk-10",
            &t.orders,
            "SELECT * FROM S3Object WHERE o_totalprice <= 50000 LIMIT 10",
        ),
        stmt(
            "join-q3ish",
            &t.customer,
            "SELECT c_custkey FROM S3Object WHERE c_mktsegment = 'BUILDING'",
        ),
        stmt(
            "join-q3ish",
            &t.orders,
            "SELECT o_custkey, o_orderdate, o_shippriority, o_totalprice FROM S3Object \
             WHERE o_orderdate < DATE '1995-03-15'",
        ),
        stmt("join-q12ish", &t.orders, "SELECT o_orderkey FROM S3Object"),
        stmt(
            "join-q12ish",
            &t.lineitem,
            &format!(
                "SELECT l_orderkey, l_shipmode FROM S3Object \
                 WHERE l_shipdate < DATE '1994-06-01' AND {bloom_probe}"
            ),
        ),
        // The probe alone decides which columns to decode here.
        stmt(
            "join-q12ish",
            &t.lineitem,
            &format!("SELECT COUNT(*) FROM S3Object WHERE {bloom_probe}"),
        ),
    ]
}

#[test]
fn select_scan_equals_full_decode_reference_on_every_object() {
    let store = S3Store::new();
    let t = load_tpch(&store, "tpch", TpchGen::new(0.002), 1_000).unwrap();
    // A ColumnarLite copy of every object, under its own prefix.
    for table in t.all() {
        for key in table.partitions(&store) {
            let raw = store.raw_object("tpch", &key).unwrap();
            let rows = decode_csv(&raw, &table.schema).unwrap();
            let opts = WriterOptions {
                rows_per_group: 256,
                compress: true,
            };
            store.put_object(
                "tpch",
                &format!("clt/{key}"),
                encode_columnar(&table.schema, &rows, opts),
            );
        }
    }
    // The Bloom join's probe predicate (paper Listing 1) over the keys of
    // early orders.
    let mut bloom = BloomFilter::with_rate(1_000, 0.01, 7);
    let orderdate = t.orders.schema.resolve("o_orderdate").unwrap();
    let cutoff = Value::Date(pushdowndb::common::date::ymd(1994, 1, 1));
    for key in t.orders.partitions(&store) {
        let raw = store.raw_object("tpch", &key).unwrap();
        for row in decode_csv(&raw, &t.orders.schema).unwrap() {
            if row[orderdate].sql_cmp(&cutoff) == Some(std::cmp::Ordering::Less) {
                bloom.insert(row[0].as_i64().unwrap());
            }
        }
    }
    let probe = bloom.sql_predicate("l_orderkey").to_string();
    assert!(
        probe.len() > 8_000,
        "probe is a long bit-string literal: {}",
        probe.len()
    );

    let engine = S3SelectEngine::new(store.clone());
    let mut limit_cut_short = false;
    for (name, table, sql) in pushed_statements(&t, &probe) {
        let table = t.all().into_iter().find(|x| x.name == table).unwrap();
        let schema = &table.schema;
        let keys = table.partitions(&store);
        assert!(!keys.is_empty());
        for key in keys {
            let what = format!("{name} on {key}: {}", &sql[..sql.len().min(90)]);
            let raw = store.raw_object("tpch", &key).unwrap();
            let resp = engine
                .select("tpch", &key, &sql, schema, InputFormat::Csv)
                .unwrap();
            let (data, stats) = reference(&raw, schema, &sql);
            assert_eq!(&resp.data[..], &data[..], "{what}: response bytes");
            assert_eq!(resp.stats, stats, "{what}: stats");
            if stats.bytes_scanned < raw.len() as u64 {
                limit_cut_short = true;
            }
            let columnar = engine
                .select(
                    "tpch",
                    &format!("clt/{key}"),
                    &sql,
                    schema,
                    InputFormat::Columnar,
                )
                .unwrap();
            assert_eq!(
                resp.rows().unwrap(),
                columnar.rows().unwrap(),
                "{what}: ColumnarLite rows"
            );
        }
    }
    assert!(limit_cut_short, "a LIMIT statement stopped the scan early");
}

/// LIMIT stops the scan right after the last returned record: exactly
/// the header plus the first `n` records, terminators included.
#[test]
fn limit_bills_exactly_the_bytes_through_the_last_record() {
    let store = S3Store::new();
    let t = load_tpch(&store, "tpch", TpchGen::new(0.002), 1_000).unwrap();
    let key = &t.orders.partitions(&store)[0];
    let raw = store.raw_object("tpch", key).unwrap();
    let through_line = |n: usize| -> u64 {
        raw.iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(n)
            .map(|(i, _)| i as u64 + 1)
            .unwrap()
    };
    let engine = S3SelectEngine::new(store.clone());
    for n in [1u64, 7, 100] {
        let resp = engine
            .select(
                "tpch",
                key,
                &format!("SELECT o_orderkey FROM S3Object LIMIT {n}"),
                &t.orders.schema,
                InputFormat::Csv,
            )
            .unwrap();
        assert_eq!(resp.stats.records_returned, n);
        // Line 0 is the header; records 1..=n follow it.
        assert_eq!(
            resp.stats.bytes_scanned,
            through_line(n as usize),
            "LIMIT {n}"
        );
    }
}
