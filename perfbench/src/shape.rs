//! What a query reads, worked out from its SQL: the tables it names and,
//! for each, the columns and WHERE conjuncts that belong to it. The
//! traced run replays layer calls on these inputs.

use pushdown_common::{Error, Result};
use pushdown_core::{Catalog, Table};
use pushdown_sql::ast::QuerySpec;
use pushdown_sql::{BinOp, Expr, SelectItem, SelectStmt};

/// One table a query reads.
#[derive(Debug, Clone)]
pub struct TableRead {
    pub table: Table,
    /// The query's own projection and WHERE restricted to this table, as
    /// a storage-side statement.
    pub stmt: SelectStmt,
    /// What a pushdown plan's scan leaf ships for this table: the scalar
    /// aggregate itself for a single-table aggregate query, `stmt`
    /// otherwise.
    pub pushed: SelectStmt,
}

/// A query's reads: `reads[0]` is the FROM table; with a JOIN it is the
/// build side and `reads[1]` the probe side, joined on `join`.
#[derive(Debug, Clone)]
pub struct Shape {
    pub reads: Vec<TableRead>,
    /// `(build key, probe key)` of the first JOIN, if any.
    pub join: Option<(String, String)>,
}

/// The shape of `spec`, whose FROM table is `primary` and whose JOIN
/// tables resolve through `catalog`.
pub fn shape(spec: &QuerySpec, primary: &Table, catalog: &Catalog) -> Result<Shape> {
    let mut tables = vec![primary.clone()];
    for j in &spec.joins {
        let t = catalog
            .resolve(&j.table)
            .ok_or_else(|| Error::Other(format!("unknown join table `{}`", j.table)))?;
        tables.push(t);
    }
    let mut columns = Vec::new();
    let mut wildcard = false;
    for item in &spec.select.items {
        match item {
            SelectItem::Wildcard => wildcard = true,
            SelectItem::Expr { expr, .. } => expr.referenced_columns(&mut columns),
            SelectItem::Agg { arg, .. } => {
                if let Some(e) = arg {
                    e.referenced_columns(&mut columns);
                }
            }
        }
    }
    if let Some(w) = &spec.select.where_clause {
        w.referenced_columns(&mut columns);
    }
    columns.extend(spec.group_by.iter().cloned());
    columns.extend(spec.order_by.iter().map(|o| o.column.clone()));
    for j in &spec.joins {
        columns.push(j.left_col.clone());
        columns.push(j.right_col.clone());
    }
    let mut conjuncts = Vec::new();
    if let Some(w) = &spec.select.where_clause {
        split_and(w, &mut conjuncts);
    }
    let scalar_aggregate = spec.joins.is_empty()
        && spec.group_by.is_empty()
        && spec
            .select
            .items
            .iter()
            .all(|i| matches!(i, SelectItem::Agg { .. }));
    let reads = tables
        .into_iter()
        .map(|table| {
            let owns = |c: &String| table.schema.index_of(c).is_some();
            let mut projection: Vec<String> = if wildcard {
                table.schema.names().iter().map(|s| s.to_string()).collect()
            } else {
                table
                    .schema
                    .names()
                    .iter()
                    .map(|s| s.to_string())
                    .filter(|n| columns.iter().any(|c| c.eq_ignore_ascii_case(n)))
                    .collect()
            };
            if projection.is_empty() {
                // COUNT(*) alone still needs one column to scan.
                projection.push(table.schema.field(0).name.clone());
            }
            let own: Vec<Expr> = conjuncts
                .iter()
                .filter(|e| {
                    let mut refs = Vec::new();
                    e.referenced_columns(&mut refs);
                    !refs.is_empty() && refs.iter().all(owns)
                })
                .cloned()
                .collect();
            let names: Vec<&str> = projection.iter().map(String::as_str).collect();
            let mut stmt = SelectStmt::project(&names);
            stmt.where_clause = Expr::conjunction(own);
            let pushed = if scalar_aggregate {
                SelectStmt {
                    items: spec.select.items.clone(),
                    ..stmt.clone()
                }
            } else {
                stmt.clone()
            };
            TableRead {
                table,
                stmt,
                pushed,
            }
        })
        .collect();
    let join = spec.joins.first().map(|j| {
        // The ON clause may name the keys in either order.
        if primary.schema.index_of(&j.left_col).is_some() {
            (j.left_col.clone(), j.right_col.clone())
        } else {
            (j.right_col.clone(), j.left_col.clone())
        }
    });
    Ok(Shape { reads, join })
}

fn split_and(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            split_and(left, out);
            split_and(right, out);
        }
        other => out.push(other.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushdown_sql::parse_query;
    use pushdown_tpch::tpch_context;

    #[test]
    fn joined_query_splits_columns_and_conjuncts_by_table() {
        let (ctx, t) = tpch_context(0.001, 1_000).unwrap();
        let q = pushdown_tpch::planner_suite()
            .into_iter()
            .find(|q| q.name == "join-q3ish")
            .unwrap();
        let s = shape(&parse_query(q.sql).unwrap(), &t.customer, &ctx.catalog).unwrap();
        assert_eq!(s.reads.len(), 2);
        assert_eq!(
            s.reads[0].stmt.to_string(),
            "SELECT c_custkey, c_mktsegment FROM S3Object WHERE c_mktsegment = 'BUILDING'"
        );
        let probe = s.reads[1].stmt.to_string();
        assert!(probe.starts_with("SELECT o_custkey, o_totalprice, o_orderdate, o_shippriority"));
        assert!(probe.contains("WHERE o_orderdate < "), "{probe}");
        assert_eq!(s.join, Some(("c_custkey".into(), "o_custkey".into())));
    }

    #[test]
    fn count_star_projects_one_column_and_wildcard_all() {
        let (ctx, t) = tpch_context(0.001, 1_000).unwrap();
        let spec = parse_query("SELECT COUNT(*) FROM orders").unwrap();
        let s = shape(&spec, &t.orders, &ctx.catalog).unwrap();
        assert_eq!(
            s.reads[0].stmt.to_string(),
            "SELECT o_orderkey FROM S3Object"
        );
        assert_eq!(
            s.reads[0].pushed.to_string(),
            "SELECT COUNT(*) FROM S3Object"
        );
        let spec = parse_query("SELECT * FROM orders WHERE o_totalprice > 1000").unwrap();
        let s = shape(&spec, &t.orders, &ctx.catalog).unwrap();
        assert_eq!(s.reads[0].stmt.items.len(), t.orders.schema.len());
        assert_eq!(s.reads[0].pushed, s.reads[0].stmt);
        assert!(s.join.is_none());
    }
}
