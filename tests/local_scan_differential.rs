//! Differential test of the local (Baseline) scan path.
//!
//! Row scans evaluate their request's predicate and projection inside
//! the partition workers, so only kept rows cross the channel. This test
//! pins that the shortcut is invisible. For every Baseline single-table
//! query of the planner suite, `algos::join::baseline`, and the IR
//! `LocalScan` and `CachedScan` leaves, over CSV TPC-H at sf 0.002, the
//! rows, per-phase `PhaseStats`, the query's ledger and the EXPLAIN
//! operator tree equal an oracle built from public pieces: a fully
//! materialized `plain_scan`, then `ops::filter_rows` / `project_rows`
//! and the family's accumulator. Every `batch_rows` × `scan_threads`
//! setting must agree.

use pushdowndb::cache::SegmentCache;
use pushdowndb::common::perf::PhaseStats;
use pushdowndb::common::pricing::Usage;
use pushdowndb::common::{Pricing, Row, Schema, Value};
use pushdowndb::core::algos::join::{self, JoinQuery};
use pushdowndb::core::scan::plain_scan;
use pushdowndb::core::{
    execute_sql_verbose, ops, plan, OpReport, PlanNode, PlanOp, QueryContext, QueryMetrics,
    Strategy, Table,
};
use pushdowndb::sql::ast::QuerySpec;
use pushdowndb::sql::eval::eval;
use pushdowndb::sql::{parse_expr, parse_query, Binder, Expr, SelectItem};
use pushdowndb::tpch::{planner_suite, tpch_context};

const SETTINGS: [(usize, usize); 9] = [
    (1, 1),
    (1, 2),
    (1, 4),
    (7, 1),
    (7, 2),
    (7, 4),
    (1024, 1),
    (1024, 2),
    (1024, 4),
];

/// What a query must produce: its rows, its phases, its ledger and its
/// operator tree (the programmatic join has none).
struct Expected {
    rows: Vec<Row>,
    metrics: QueryMetrics,
    billed: Usage,
    report: Option<OpReport>,
}

fn phases(m: &QueryMetrics) -> Vec<Vec<(String, PhaseStats)>> {
    m.groups
        .iter()
        .map(|g| {
            g.phases
                .iter()
                .map(|p| (p.label.clone(), p.stats))
                .collect()
        })
        .collect()
}

fn assert_matches(
    what: &str,
    rows: &[Row],
    metrics: &QueryMetrics,
    billed: Usage,
    report: Option<&OpReport>,
    want: &Expected,
) {
    assert_eq!(rows, want.rows, "{what}: rows");
    assert_eq!(phases(metrics), phases(&want.metrics), "{what}: phases");
    assert_eq!(billed, want.billed, "{what}: ledger");
    assert_eq!(
        format!("{report:?}"),
        format!("{:?}", want.report.as_ref()),
        "{what}: EXPLAIN tree"
    );
}

fn leaf(label: String, actual: PhaseStats) -> OpReport {
    OpReport {
        label,
        predicted: None,
        actual,
        children: Vec::new(),
    }
}

/// Full scan of `table` in a fresh query scope: its rows, stats and bill.
fn oracle_scan(ctx: &QueryContext, table: &Table) -> (Vec<Row>, PhaseStats, Usage) {
    let scope = ctx.scoped();
    let scan = plain_scan(&scope, table).unwrap();
    (scan.rows, scan.stats, scope.billed())
}

fn bind(schema: &Schema, e: &Expr) -> pushdowndb::sql::BoundExpr {
    Binder::new(schema).bind_expr(e).unwrap()
}

/// The oracle for one Baseline single-table suite query, by family.
fn oracle_single(ctx: &QueryContext, table: &Table, spec: &QuerySpec) -> Expected {
    let schema = &table.schema;
    let (mut rows, mut stats, billed) = oracle_scan(ctx, table);
    let (family, label);
    if !spec.order_by.is_empty() {
        // Server-side top-K: no predicate, no projection.
        let order = &spec.order_by[0];
        let col = schema.resolve(&order.column).unwrap();
        let k = spec.select.limit.unwrap() as usize;
        rows = ops::top_k(&rows, col, k, order.asc, &mut stats);
        (family, label) = ("TopK", "server-side top-k");
    } else {
        if let Some(w) = &spec.select.where_clause {
            rows = ops::filter_rows(rows, &bind(schema, w), &mut stats).unwrap();
        }
        if !spec.group_by.is_empty() {
            let group: Vec<usize> = spec
                .group_by
                .iter()
                .map(|g| schema.resolve(g).unwrap())
                .collect();
            let aggs: Vec<_> = spec
                .select
                .items
                .iter()
                .filter_map(|item| match item {
                    // COUNT(*) counts the (non-null) first group column.
                    SelectItem::Agg { func, arg, .. } => Some((
                        *func,
                        Some(match arg {
                            Some(Expr::Column(c)) => schema.resolve(c).unwrap(),
                            _ => group[0],
                        }),
                    )),
                    _ => None,
                })
                .collect();
            rows = ops::hash_group_by(&rows, &group, &aggs, &mut stats).unwrap();
            (family, label) = ("GroupBy", "server-side group-by");
        } else if spec.select.is_aggregate() {
            let mut accs: Vec<_> = spec
                .select
                .items
                .iter()
                .map(|item| match item {
                    SelectItem::Agg { func, arg, .. } => {
                        (func.accumulator(), arg.as_ref().map(|a| bind(schema, a)))
                    }
                    _ => unreachable!("suite aggregates have aggregate items only"),
                })
                .collect();
            stats.server_cpu_units += rows.len() as u64 * accs.len() as u64;
            for r in &rows {
                for (acc, arg) in accs.iter_mut() {
                    let v = match arg {
                        Some(e) => eval(e, r).unwrap(),
                        None => Value::Bool(true),
                    };
                    acc.update(&v).unwrap();
                }
            }
            rows = vec![Row::new(accs.iter().map(|(a, _)| a.finish()).collect())];
            (family, label) = ("Aggregate", "server-side aggregation");
        } else {
            if !matches!(spec.select.items.as_slice(), [SelectItem::Wildcard]) {
                let idx: Vec<usize> = spec
                    .select
                    .items
                    .iter()
                    .map(|item| match item {
                        SelectItem::Expr {
                            expr: Expr::Column(c),
                            ..
                        } => schema.resolve(c).unwrap(),
                        other => panic!("suite filters project plain columns, got {other}"),
                    })
                    .collect();
                rows = ops::project_rows(rows, &idx, &mut stats);
            }
            (family, label) = ("Filter", "server-side filter");
        }
    }
    let mut metrics = QueryMetrics::new();
    metrics.push_serial(label, stats);
    Expected {
        rows,
        metrics,
        billed,
        report: Some(leaf(
            format!("{family}[server-side, {}]", table.name),
            stats,
        )),
    }
}

#[test]
fn baseline_single_table_suite_matches_the_oracle() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let mut checked = 0;
    for q in planner_suite() {
        let spec = parse_query(q.sql).unwrap();
        if !spec.joins.is_empty() {
            continue;
        }
        let table = (q.table)(&t);
        let want = oracle_single(&ctx, table, &spec);
        for (batch_rows, threads) in SETTINGS {
            let mut c = ctx.clone().with_batch_rows(batch_rows);
            c.scan_threads = threads;
            let (out, explain) = execute_sql_verbose(&c, table, q.sql, Strategy::Baseline).unwrap();
            let what = format!("{} @ batch {batch_rows} threads {threads}", q.name);
            let report = explain.operators;
            assert_matches(
                &what,
                &out.rows,
                &out.metrics,
                out.billed,
                report.as_ref(),
                &want,
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 7, "every single-table suite query ran");
}

/// The suite's Q3-shaped join as a programmatic `JoinQuery`, with a
/// predicate on each side.
fn q3_join(t: &pushdowndb::tpch::TpchTables, sum: bool) -> JoinQuery {
    JoinQuery {
        left: t.customer.clone(),
        right: t.orders.clone(),
        left_key: "c_custkey".into(),
        right_key: "o_custkey".into(),
        left_pred: Some(parse_expr("c_mktsegment = 'BUILDING'").unwrap()),
        right_pred: Some(parse_expr("o_orderdate < DATE '1995-03-15'").unwrap()),
        left_proj: vec!["c_name".into()],
        right_proj: vec!["o_orderdate".into(), "o_totalprice".into()],
        sum_column: sum.then(|| "o_totalprice".to_string()),
    }
}

fn oracle_join(ctx: &QueryContext, q: &JoinQuery) -> Expected {
    let scope = ctx.scoped();
    let left = plain_scan(&scope, &q.left).unwrap();
    let right = plain_scan(&scope, &q.right).unwrap();
    let mut local = PhaseStats::default();
    let filter =
        |rows: Vec<Row>, schema: &Schema, pred: &Option<Expr>, local: &mut PhaseStats| match pred {
            Some(p) => ops::filter_rows(rows, &bind(schema, p), local).unwrap(),
            None => rows,
        };
    let lrows = filter(left.rows, &left.schema, &q.left_pred, &mut local);
    let rrows = filter(right.rows, &right.schema, &q.right_pred, &mut local);
    let lk = left.schema.resolve(&q.left_key).unwrap();
    let rk = right.schema.resolve(&q.right_key).unwrap();
    let joined = ops::hash_join(lrows, lk, rrows, rk, &mut local);
    let rows = match &q.sum_column {
        Some(c) => {
            let si = left.schema.join(&right.schema).resolve(c).unwrap();
            local.server_cpu_units += joined.len() as u64;
            let mut acc = pushdowndb::sql::AggFunc::Sum.accumulator();
            for r in &joined {
                acc.update(&r[si]).unwrap();
            }
            vec![Row::new(vec![acc.finish()])]
        }
        None => {
            let mut idx: Vec<usize> = q
                .left_proj
                .iter()
                .map(|c| left.schema.resolve(c).unwrap())
                .collect();
            idx.extend(
                q.right_proj
                    .iter()
                    .map(|c| left.schema.len() + right.schema.resolve(c).unwrap()),
            );
            ops::project_rows(joined, &idx, &mut local)
        }
    };
    let mut metrics = QueryMetrics::new();
    metrics.push_parallel(vec![
        (format!("load {}", q.left.name), left.stats),
        (format!("load {}", q.right.name), right.stats),
    ]);
    metrics.push_serial("local join", local);
    Expected {
        rows,
        metrics,
        billed: scope.billed(),
        report: None,
    }
}

#[test]
fn baseline_join_matches_the_oracle() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    for sum in [false, true] {
        let q = q3_join(&t, sum);
        let want = oracle_join(&ctx, &q);
        for (batch_rows, threads) in SETTINGS {
            let mut c = ctx.clone().with_batch_rows(batch_rows);
            c.scan_threads = threads;
            let out = join::baseline(&c, &q).unwrap();
            let what = format!("join sum={sum} @ batch {batch_rows} threads {threads}");
            assert_matches(&what, &out.rows, &out.metrics, out.billed, None, &want);
        }
    }
}

/// The oracle for a `LocalScan`/`CachedScan` leaf: full-width rows that
/// pass the predicate, the filter charged to the leaf.
fn oracle_leaf(ctx: &QueryContext, table: &Table, pred: &Option<Expr>, label: String) -> Expected {
    let (mut rows, mut stats, billed) = oracle_scan(ctx, table);
    if let Some(p) = pred {
        rows = ops::filter_rows(rows, &bind(&table.schema, p), &mut stats).unwrap();
    }
    let mut metrics = QueryMetrics::new();
    let phase = if label.starts_with("CachedScan") {
        format!("cached load {}", table.name)
    } else {
        format!("load {}", table.name)
    };
    metrics.push_serial(phase, stats);
    Expected {
        rows,
        metrics,
        billed,
        report: Some(leaf(label, stats)),
    }
}

fn run_leaf(ctx: &QueryContext, node: &PlanNode, want: &Expected, what: &str) {
    let scope = ctx.scoped();
    let got = plan::execute(&scope, node).unwrap();
    assert_eq!(got.schema, node.schema, "{what}: schema");
    assert_matches(
        what,
        &got.rows,
        &got.metrics,
        scope.billed(),
        Some(&got.report),
        want,
    );
}

/// Leaves over `lineitem` (a predicate on a date and a string),
/// `orders` (a predicate nearly every row passes) and `customer` (no
/// predicate).
fn leaves(t: &pushdowndb::tpch::TpchTables) -> Vec<(Table, Option<Expr>)> {
    vec![
        (
            t.lineitem.clone(),
            Some(parse_expr("l_shipdate < DATE '1994-06-01' AND l_shipmode <> 'AIR'").unwrap()),
        ),
        (
            t.orders.clone(),
            Some(parse_expr("o_totalprice > 1000").unwrap()),
        ),
        (t.customer.clone(), None),
    ]
}

#[test]
fn local_scan_leaves_match_the_oracle() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    for (table, predicate) in leaves(&t) {
        let node = PlanNode::new(
            PlanOp::LocalScan {
                table: table.clone(),
                predicate: predicate.clone(),
            },
            Vec::new(),
            table.schema.clone(),
        );
        let want = oracle_leaf(&ctx, &table, &predicate, node.label());
        for (batch_rows, threads) in SETTINGS {
            let mut c = ctx.clone().with_batch_rows(batch_rows);
            c.scan_threads = threads;
            let what = format!(
                "LocalScan {} @ batch {batch_rows} threads {threads}",
                table.name
            );
            run_leaf(&c, &node, &want, &what);
        }
    }
}

#[test]
fn cached_scan_leaves_match_the_oracle() {
    let (ctx, t) = tpch_context(0.002, 1_000).unwrap();
    let fresh_cache = || {
        ctx.store
            .set_cache(Some(SegmentCache::new(1 << 30, Pricing::us_east())));
    };
    let cached = ctx.clone().with_cache_reads(true);
    for (table, predicate) in leaves(&t) {
        let node = PlanNode::new(
            PlanOp::CachedScan {
                table: table.clone(),
                predicate: predicate.clone(),
            },
            Vec::new(),
            table.schema.clone(),
        );
        let parts = table.partitions(&ctx.store).len();
        for (batch_rows, threads) in SETTINGS {
            let mut c = cached.clone().with_batch_rows(batch_rows);
            c.scan_threads = threads;
            // Cold: every partition fills. Warm: every partition hits.
            // The oracle reads through the cache in the same state.
            for (state, hits) in [("cold", 0), ("warm", parts)] {
                if state == "cold" {
                    fresh_cache();
                }
                let label = format!("{} ({hits}/{parts} partitions hit)", node.label());
                let want = oracle_leaf(&cached, &table, &predicate, label);
                if state == "cold" {
                    fresh_cache();
                }
                let what = format!(
                    "CachedScan {} {state} @ batch {batch_rows} threads {threads}",
                    table.name
                );
                run_leaf(&c, &node, &want, &what);
            }
        }
    }
}

/// A malformed Int, Float, Date or Bool in a column a Baseline filter,
/// aggregate or group-by never references still fails the query with
/// `Corrupt`, naming the bad record's start offset: the workers skip
/// materializing such columns but never skip validating them.
#[test]
fn unreferenced_malformed_fields_fail_baseline_queries() {
    use pushdowndb::common::{DataType, Error};
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("s", DataType::Str),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("d", DataType::Date),
        ("b", DataType::Bool),
    ]);
    let rows: Vec<Row> = (0..300)
        .map(|k| {
            Row::new(vec![
                Value::Int(k),
                Value::Str(format!("g{}", k % 3)),
                Value::Int(k * 7),
                Value::Float(k as f64 / 4.0),
                Value::Date(9_000 + k as i32),
                Value::Bool(k % 2 == 0),
            ])
        })
        .collect();
    let queries = [
        "SELECT k FROM t WHERE k < 10",
        "SELECT SUM(k), COUNT(*) FROM t WHERE k >= 0",
        "SELECT s, COUNT(*) FROM t GROUP BY s",
        "SELECT s, SUM(k) FROM t WHERE k > 250 GROUP BY s",
    ];
    // (column, malformed text) per typed column. Record 123 sits in the
    // second partition; two of the four predicates reject it.
    for (col, bad) in [(2, "12x"), (3, "1.5.2"), (4, "1994-13-45"), (5, "maybe")] {
        let store = pushdowndb::s3::S3Store::new();
        let table =
            pushdowndb::core::upload_csv_table(&store, "b", "t", &schema, &rows, 100).unwrap();
        let key = &table.partitions(&store)[1];
        let data = store.get_object("b", key).unwrap();
        let text = std::str::from_utf8(&data).unwrap();
        let start = text.find("\n123,").unwrap() + 1;
        let end = start + text[start..].find('\n').unwrap();
        let mut fields: Vec<String> = text[start..end].split(',').map(String::from).collect();
        fields[col] = bad.to_string();
        store.put_object(
            "b",
            key,
            format!("{}{}{}", &text[..start], fields.join(","), &text[end..]),
        );
        for (batch_rows, threads) in [(1, 1), (7, 2), (1024, 4)] {
            let mut ctx = QueryContext::new(store.clone()).with_batch_rows(batch_rows);
            ctx.scan_threads = threads;
            for sql in queries {
                let err = pushdowndb::core::execute_sql(&ctx, &table, sql, Strategy::Baseline)
                    .unwrap_err();
                let what = format!("{sql} with `{bad}` in column {col}: {err}");
                assert!(
                    matches!(&err, Error::Corrupt(m) if m.contains(&format!("record starts at byte {start}"))),
                    "{what}"
                );
            }
        }
    }
}
