//! Per-layer replays of the traced run.
//!
//! After each query of the traced stream returns, the calls each layer
//! makes for it are replayed on the query's inputs and timed as child
//! spans of the query: SQL parse, object GET, CSV and ColumnarLite
//! decode, the storage-side Select scan (plain and with a Bloom
//! predicate), response decode and encode, Bloom build, and the
//! `core::scan` entry point of the workload's strategy. Cache calls are
//! replayed on the recorded segment keys once the stream has ended.
//!
//! Replays must not change what the next query sees, so they run
//! against a separate store holding copies of the workload's objects
//! (its own ledger, no fault plan, and its own cache where the scan
//! replay needs one). Every format is replayed on every workload: the
//! store keeps each object in both encodings.

use crate::shape::{Shape, TableRead};
use crate::trace::Recorder;
use crate::workloads::{tier_budgets, Env, Workload, ROWS_PER_GROUP};
use bytes::Bytes;
use pushdown_cache::{CacheTier, SegmentCache, SegmentKey};
use pushdown_common::{Error, Result, Value};
use pushdown_core::scan::{cached_scan_columnar_streamed, plain_scan, select_scan};
use pushdown_core::{QueryContext, Table};
use pushdown_format::columnar::{encode_columnar, ColumnarReader, WriterOptions};
use pushdown_format::csv::{decode_csv, encode_csv};
use pushdown_s3::S3Store;
use pushdown_select::InputFormat;
use pushdown_sql::parse_query;
use pushdown_sql::{Expr, SelectStmt};
use std::collections::BTreeMap;
use std::path::Path;

/// False-positive rate the planner requests for its Bloom joins.
const BLOOM_FPR: f64 = 0.01;

/// One recorded cache access: the query, its parent span, the segment.
struct Access {
    query: usize,
    parent: usize,
    skey: SegmentKey,
}

pub struct Replay {
    workload: Workload,
    /// Copies of the workload's objects under their original keys.
    store: S3Store,
    /// Scan-layer replays run here, on `store`.
    ctx: QueryContext,
    /// Both encodings of every object, by object key.
    csv: BTreeMap<String, Bytes>,
    columnar: BTreeMap<String, Bytes>,
    accesses: Vec<Access>,
    pub rec: Recorder,
}

impl Replay {
    /// Copy `env`'s objects into a replay store, in both encodings.
    pub fn new(env: &Env, workload: Workload) -> Result<Replay> {
        let store = S3Store::new();
        let options = WriterOptions {
            rows_per_group: ROWS_PER_GROUP,
            compress: true,
        };
        let mut csv = BTreeMap::new();
        let mut columnar = BTreeMap::new();
        for t in env.tables.all() {
            store.create_bucket(&t.bucket);
            for key in t.partitions(&env.ctx.store) {
                let bytes = env.ctx.store.raw_object(&t.bucket, &key)?;
                store.put_object(&t.bucket, &key, bytes.clone());
                let (c, l) = if workload.columnar() {
                    let rows = ColumnarReader::open(bytes.clone())?.read_all()?;
                    (Bytes::from(encode_csv(&t.schema, &rows)), bytes)
                } else {
                    let rows = decode_csv(&bytes, &t.schema)?;
                    (
                        bytes,
                        Bytes::from(encode_columnar(&t.schema, &rows, options)),
                    )
                };
                csv.insert(key.clone(), c);
                columnar.insert(key, l);
            }
        }
        let mut ctx = QueryContext::new(store.clone());
        ctx.scan_threads = env.ctx.scan_threads;
        env.tables.register(&ctx.catalog);
        if workload.cached() {
            let (mem, disk) = tier_budgets(env.dataset_bytes);
            ctx = ctx.with_cache_tiers(mem, disk);
        }
        Ok(Replay {
            workload,
            store,
            ctx,
            csv,
            columnar,
            accesses: Vec::new(),
            rec: Recorder::new(),
        })
    }

    /// Replay the layer calls of query `q` (parent span `parent`).
    ///
    /// With a JOIN, the build side (`reads[0]`) is replayed first; its
    /// Select response supplies the build keys of the Bloom filter, and
    /// the probe side's first object is scanned once more with the
    /// filter's predicate. Under the pushdown workload the `core::scan`
    /// replay ships what the plan's leaf ships: the Bloom predicate on
    /// the probe side, the aggregate of a scalar-aggregate query.
    ///
    /// With `timed` false only the query's cache segment accesses are
    /// recorded, for the cache replay.
    pub fn query(
        &mut self,
        q: usize,
        parent: usize,
        sql: &str,
        shape: &Shape,
        timed: bool,
    ) -> Result<()> {
        if !timed {
            for read in &shape.reads {
                let t = &read.table;
                for key in t.partitions(&self.store) {
                    let object = self.store.raw_object(&t.bucket, &key)?;
                    self.record_accesses(q, parent, t, &key, &object);
                }
            }
            return Ok(());
        }
        let p = Some(parent);
        self.rec
            .time(q, p, "sql.parse", || parse_query(sql), |_| sql.len() as u64)?;
        let mut build_keys = Vec::new();
        for (i, read) in shape.reads.iter().enumerate() {
            let t = &read.table;
            let bloom_stmt = match (&shape.join, i) {
                (Some((_, probe_key)), 1) => self.bloom(q, p, &build_keys, probe_key, read),
                _ => None,
            };
            let scan_stmt = match (&bloom_stmt, self.workload) {
                (Some(s), Workload::TpchPushdown) => s,
                _ => &read.pushed,
            };
            let scanned = t.total_bytes(&self.store);
            let (workload, ctx) = (self.workload, &self.ctx);
            self.rec.time(
                q,
                p,
                "core.scan",
                || scan(workload, ctx, t, scan_stmt),
                |_| scanned,
            )?;
            let sql_text = read.stmt.to_string();
            let bloom_text = bloom_stmt.as_ref().map(|s| s.to_string());
            let build_key = match &shape.join {
                Some((build, _)) if i == 0 => Some(build.as_str()),
                _ => None,
            };
            for (part, key) in t.partitions(&self.store).into_iter().enumerate() {
                let object = self.rec.time(
                    q,
                    p,
                    "s3.get",
                    || self.store.get_object(&t.bucket, &key),
                    |r| r.as_ref().map_or(0, |b| b.len() as u64),
                )?;
                let csv = &self.csv[&key];
                self.rec.time(
                    q,
                    p,
                    "format.csv_decode",
                    || decode_csv(csv, &t.schema),
                    |_| csv.len() as u64,
                )?;
                let columnar = self.columnar[&key].clone();
                let len = columnar.len() as u64;
                self.rec.time(
                    q,
                    p,
                    "format.columnar_decode",
                    || columnar_decode(columnar),
                    |_| len,
                )?;
                let engine = &self.ctx.engine;
                let select = |name, text: &str, rec: &mut Recorder| {
                    rec.time(
                        q,
                        p,
                        name,
                        || engine.select(&t.bucket, &key, text, &t.schema, t.format),
                        |r| r.as_ref().map_or(0, |r| r.stats.bytes_scanned),
                    )
                };
                let resp = select("select.scan", &sql_text, &mut self.rec)?;
                // A Bloom-predicate Select runs ~20x slower than a plain
                // one, so one object per join query samples its rate.
                if let (Some(text), 0) = (&bloom_text, part) {
                    select("select.bloom_scan", text, &mut self.rec)?;
                }
                let rows = self.rec.time(
                    q,
                    p,
                    "format.response_decode",
                    || resp.rows(),
                    |_| resp.data.len() as u64,
                )?;
                self.rec.time(
                    q,
                    p,
                    "format.csv_encode",
                    || encode_csv(&resp.output_schema, &rows),
                    |v| v.len() as u64,
                );
                if let Some(k) = build_key {
                    let col = resp.output_schema.resolve(k)?;
                    for r in &rows {
                        if !matches!(r[col], Value::Null) {
                            build_keys.push(r[col].as_i64()?);
                        }
                    }
                }
                self.record_accesses(q, parent, t, &key, &object);
            }
        }
        Ok(())
    }

    /// Record the cache segments a read of `object` touches.
    fn record_accesses(&mut self, q: usize, parent: usize, t: &Table, key: &str, object: &Bytes) {
        for range in layout(t, self.ctx.cache_chunk_bytes, object) {
            self.accesses.push(Access {
                query: q,
                parent,
                skey: SegmentKey::chunk(&t.bucket, key, range),
            });
        }
    }

    /// Build the Bloom filter over `keys` (timed) and return the probe's
    /// statement with the filter's predicate added, or `None` when no
    /// filter fits the SQL size limit.
    fn bloom(
        &mut self,
        q: usize,
        p: Option<usize>,
        keys: &[i64],
        probe_key: &str,
        probe: &TableRead,
    ) -> Option<SelectStmt> {
        let bloom = self.ctx.bloom;
        let built = self.rec.time(
            q,
            p,
            "bloom.build",
            || bloom.build(keys, BLOOM_FPR, probe_key),
            |_| 0,
        );
        let (filter, _) = built?;
        let pred = filter.sql_predicate(probe_key);
        let mut stmt = probe.stmt.clone();
        stmt.where_clause = Some(match stmt.where_clause.take() {
            Some(w) => Expr::and(w, pred),
            None => pred,
        });
        Some(stmt)
    }

    /// Replay every recorded segment access, in stream order, against
    /// `cache`: a lookup, and on a miss a fill of the segment's bytes.
    pub fn cache(&mut self, cache: &SegmentCache) -> Result<()> {
        for a in std::mem::take(&mut self.accesses) {
            let start = self.rec.now_ns();
            let hit = cache.get_tiered(&a.skey);
            let end = self.rec.now_ns();
            let p = Some(a.parent);
            match hit {
                Some((b, CacheTier::Mem)) => {
                    self.rec
                        .push(a.query, p, "cache.get.mem", start, end, b.len() as u64);
                }
                Some((b, CacheTier::Disk)) => {
                    self.rec
                        .push(a.query, p, "cache.get.disk", start, end, b.len() as u64);
                }
                None => {
                    self.rec.push(a.query, p, "cache.get.miss", start, end, 0);
                    let object = self.store.raw_object(&a.skey.bucket, &a.skey.key)?;
                    let (first, last) = a.skey.range;
                    let data = object.slice(first as usize..last as usize);
                    let len = data.len() as u64;
                    let epoch = cache.begin_fill(&a.skey);
                    self.rec.time(
                        a.query,
                        p,
                        "cache.insert",
                        || cache.insert(a.skey, data, epoch),
                        |_| len,
                    );
                }
            }
        }
        Ok(())
    }
}

/// A persistent tiered cache in `dir`, budgeted like the cached
/// workload's, for replaying cache calls on workloads that run without
/// one.
pub fn scratch_cache(dataset_bytes: u64, dir: &Path) -> Result<SegmentCache> {
    let (mem, disk) = tier_budgets(dataset_bytes);
    QueryContext::new(S3Store::new())
        .with_cache_tiers(mem, disk)
        .with_cache_dir(dir)?
        .cache()
        .ok_or_else(|| Error::Other("cache not installed".into()))
}

/// The `core::scan` entry point the workload's strategy reads through.
fn scan(workload: Workload, ctx: &QueryContext, table: &Table, stmt: &SelectStmt) -> Result<usize> {
    match workload {
        Workload::TpchBaseline => plain_scan(ctx, table).map(|r| r.rows.len()),
        Workload::TpchPushdown => select_scan(ctx, table, stmt).map(|r| r.rows.len()),
        Workload::ZipfCachedColumnar => {
            let mut rows = 0;
            cached_scan_columnar_streamed(ctx, table, |b| {
                rows += b.len();
                Ok(())
            })?;
            Ok(rows)
        }
    }
}

/// `ColumnarReader::open` plus every row group decoded to a batch.
fn columnar_decode(data: Bytes) -> Result<usize> {
    let reader = ColumnarReader::open(data)?;
    let mut rows = 0;
    for g in 0..reader.num_row_groups() {
        rows += reader.read_group_batch(g)?.len();
    }
    Ok(rows)
}

/// The cache segment ranges of one object, as the store's read-through
/// path cuts them: row-group extents for ColumnarLite, fixed blocks of
/// `chunk_bytes` for CSV.
fn layout(table: &Table, chunk_bytes: u64, data: &Bytes) -> Vec<(u64, u64)> {
    let len = data.len() as u64;
    match table.format {
        InputFormat::Columnar => ColumnarReader::open(data.clone())
            .map(|r| r.row_group_extents())
            .unwrap_or_else(|_| vec![(0, len)]),
        InputFormat::Csv | InputFormat::CsvNoHeader => (0..len)
            .step_by(chunk_bytes.max(1) as usize)
            .map(|first| (first, (first + chunk_bytes).min(len)))
            .collect(),
    }
}
