//! The benchmark's workloads: seeded data, query streams and the engine
//! configuration each one runs under. See `README.md` for why each
//! workload exists and which layer it isolates.

use pushdown_bench::workload::{generate, generate_zipf};
use pushdown_common::mix::splitmix64;
use pushdown_common::{Result, Row, Schema};
use pushdown_core::planner::Strategy;
use pushdown_core::{upload_columnar_table, QueryContext, Table};
use pushdown_format::columnar::WriterOptions;
use pushdown_s3::S3Store;
use pushdown_tpch::{load_tpch, planner_suite, PlannerQuery, TpchGen, TpchTables};
use std::path::{Path, PathBuf};

/// TPC-H scale factor of every workload (9.0 MB of CSV).
pub const SCALE_FACTOR: f64 = 0.01;
/// Rows per stored object.
pub const ROWS_PER_OBJECT: usize = 10_000;
/// Rows per compressed ColumnarLite row group.
pub const ROWS_PER_GROUP: usize = 4_096;
/// Partition-scan worker threads; the reference box has 2 cores.
pub const MAX_SCAN_THREADS: usize = 2;
/// Zipf skew of the cached workload's stream.
pub const ZIPF_THETA: f64 = 1.0;
/// Mem- and disk-tier budgets of the cached workload, as shares of the
/// dataset's stored bytes.
pub const MEM_TIER_SHARE: f64 = 0.10;
pub const DISK_TIER_SHARE: f64 = 0.50;
/// Seed used when `--seed` is not given, and while tuning.
pub const DEFAULT_SEED: u64 = 42;
/// Queries per phase of the cached workload's warm-up stream.
const WARMUP_PER_PHASE: usize = 3;
const WARMUP_SALT: u64 = 0x57A2_7E0F_F1CE_0001;

/// Scan threads for this box: `MAX_SCAN_THREADS`, capped at the cores
/// the process may use.
pub fn scan_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_SCAN_THREADS)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpchBaseline,
    TpchPushdown,
    ZipfCachedColumnar,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TpchBaseline,
        Workload::TpchPushdown,
        Workload::ZipfCachedColumnar,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchBaseline => "tpch-baseline",
            Workload::TpchPushdown => "tpch-pushdown",
            Workload::ZipfCachedColumnar => "zipf-cached-columnar",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn strategy(self) -> Strategy {
        match self {
            Workload::TpchBaseline => Strategy::Baseline,
            Workload::TpchPushdown => Strategy::Pushdown,
            Workload::ZipfCachedColumnar => Strategy::Adaptive,
        }
    }

    /// Whether the data is stored as ColumnarLite (else CSV).
    pub fn columnar(self) -> bool {
        self == Workload::ZipfCachedColumnar
    }

    /// Whether a persistent tiered cache is installed.
    pub fn cached(self) -> bool {
        self == Workload::ZipfCachedColumnar
    }

    /// Queries per second the stream is sized for: a run of `seconds`
    /// executes about `seconds × nominal_qps` queries on a 2-core box.
    /// The count is fixed per (workload, seconds), so every count the
    /// run reports repeats exactly for one seed.
    fn nominal_qps(self) -> f64 {
        match self {
            Workload::TpchBaseline => 4.0,
            Workload::TpchPushdown => 2.0,
            Workload::ZipfCachedColumnar => 10.0,
        }
    }
}

/// The timed stream of `workload` for `seed`, sized for `seconds`.
///
/// * TPC-H workloads: whole passes of the planner-suite rotation
///   (`workload::generate` over one suite length), each pass rotated by
///   its own seed, so every pass runs each suite query exactly once and
///   the mix is the same for every seed.
/// * The cached workload: one `workload::generate_zipf` phase per suite
///   query, phase `j` seeded so that suite query `r0 + j` is its rank-1
///   query. Every query is the hot one in exactly one phase, so the
///   expected mix is also the same for every seed while the hot set
///   moves, and the cache must follow it.
pub fn stream(workload: Workload, seed: u64, seconds: u64) -> Vec<PlannerQuery> {
    let suite = planner_suite().len();
    let passes = pass_count(workload, seconds);
    match workload {
        Workload::ZipfCachedColumnar => zipf_phases(seed, passes),
        _ => (0..passes as u64)
            .flat_map(|pass| generate(splitmix64(seed ^ pass), suite))
            .map(|q| q.query)
            .collect(),
    }
}

/// Queries per pass of [`stream`]: one suite rotation for the TPC-H
/// workloads, one Zipf phase for the cached workload.
pub fn pass_len(workload: Workload, seconds: u64) -> usize {
    match workload {
        Workload::ZipfCachedColumnar => pass_count(workload, seconds),
        _ => planner_suite().len(),
    }
}

/// Passes of a TPC-H stream, and queries per phase of a Zipf stream
/// (which always has one phase per suite query).
fn pass_count(workload: Workload, seconds: u64) -> usize {
    let want = (seconds as f64 * workload.nominal_qps()).ceil() as usize;
    want.div_ceil(planner_suite().len()).max(1)
}

/// The cached workload's warm-up stream: the same phase structure as
/// [`stream`] under a different seed, short.
pub fn warmup_stream(seed: u64) -> Vec<PlannerQuery> {
    zipf_phases(seed ^ WARMUP_SALT, WARMUP_PER_PHASE)
}

fn zipf_phases(seed: u64, per_phase: usize) -> Vec<PlannerQuery> {
    let suite = planner_suite().len() as u64;
    let first = splitmix64(seed) % suite;
    (0..suite)
        .flat_map(|phase| {
            let s = phase_seed(seed, phase, (first + phase) % suite);
            generate_zipf(s, per_phase, ZIPF_THETA)
        })
        .map(|q| q.query)
        .collect()
}

/// The first seed from a per-phase start whose Zipf rotation is `rank1`
/// (`generate_zipf` makes suite query `splitmix64(seed) % len` rank 1).
fn phase_seed(seed: u64, phase: u64, rank1: u64) -> u64 {
    let suite = planner_suite().len() as u64;
    let mut s = splitmix64(seed ^ (phase + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    while splitmix64(s) % suite != rank1 {
        s = s.wrapping_add(1);
    }
    s
}

/// One set-up of a workload: loaded data, the context queries run in,
/// and the cache directory it owns.
pub struct Env {
    pub ctx: QueryContext,
    pub tables: TpchTables,
    /// Stored bytes of all eight tables.
    pub dataset_bytes: u64,
    /// Removes the cache directory; declared last so it drops after the
    /// context that writes into it.
    _cache_dir: Option<DirGuard>,
}

struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generate and store the data of `workload` for `seed` and build the
/// context (no cache yet).
pub fn build(workload: Workload, seed: u64) -> Result<Env> {
    let store = S3Store::new();
    let gen = TpchGen::with_seed(SCALE_FACTOR, seed);
    let tables = if workload.columnar() {
        load_columnar(&store, gen)?
    } else {
        load_tpch(&store, "tpch", gen, ROWS_PER_OBJECT)?
    };
    let dataset_bytes = tables.all().iter().map(|t| t.total_bytes(&store)).sum();
    let mut ctx = QueryContext::new(store);
    ctx.scan_threads = scan_threads();
    tables.register(&ctx.catalog);
    Ok(Env {
        ctx,
        tables,
        dataset_bytes,
        _cache_dir: None,
    })
}

/// Install the cached workload's persistent tiered cache in a fresh
/// directory `cache_dir` and run its warm-up stream. A no-op for the
/// other workloads.
pub fn prepare(env: &mut Env, workload: Workload, seed: u64, cache_dir: &Path) -> Result<()> {
    if !workload.cached() {
        return Ok(());
    }
    let _ = std::fs::remove_dir_all(cache_dir);
    env._cache_dir = Some(DirGuard(cache_dir.to_path_buf()));
    let (mem, disk) = tier_budgets(env.dataset_bytes);
    env.ctx = env
        .ctx
        .clone()
        .with_cache_tiers(mem, disk)
        .with_cache_dir(cache_dir)?;
    for q in warmup_stream(seed) {
        pushdown_core::execute_sql(&env.ctx, (q.table)(&env.tables), q.sql, workload.strategy())?;
    }
    Ok(())
}

/// (mem, disk) tier budgets in bytes for a dataset of `dataset_bytes`.
pub fn tier_budgets(dataset_bytes: u64) -> (u64, u64) {
    (
        (dataset_bytes as f64 * MEM_TIER_SHARE) as u64,
        (dataset_bytes as f64 * DISK_TIER_SHARE) as u64,
    )
}

/// The TPC-H rows of `gen` stored as ColumnarLite objects.
fn load_columnar(store: &S3Store, gen: TpchGen) -> Result<TpchTables> {
    let options = WriterOptions {
        rows_per_group: ROWS_PER_GROUP,
        compress: true,
    };
    let up = |name: &str, (schema, rows): (Schema, Vec<Row>)| -> Result<Table> {
        upload_columnar_table(
            store,
            "tpch",
            name,
            &schema,
            &rows,
            ROWS_PER_OBJECT,
            options,
        )
    };
    let (order_schema, orders) = gen.orders();
    let lineitem = up("lineitem", gen.lineitems(&orders))?;
    Ok(TpchTables {
        customer: up("customer", gen.customers())?,
        orders: up("orders", (order_schema, orders))?,
        lineitem,
        part: up("part", gen.parts())?,
        supplier: up("supplier", gen.suppliers())?,
        partsupp: up("partsupp", gen.partsupps())?,
        nation: up("nation", gen.nations())?,
        region: up("region", gen.regions())?,
        scale_factor: gen.scale_factor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[PlannerQuery]) -> Vec<&'static str> {
        v.iter().map(|q| q.name).collect()
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = stream(w, 7, 10);
            assert_eq!(names(&a), names(&stream(w, 7, 10)), "{}", w.name());
            assert_ne!(names(&a), names(&stream(w, 8, 10)), "{}", w.name());
            assert!(!a.is_empty());
        }
        assert_eq!(names(&warmup_stream(7)), names(&warmup_stream(7)));
        assert_ne!(
            names(&warmup_stream(7)),
            names(&stream(Workload::ZipfCachedColumnar, 7, 1))
        );
    }

    #[test]
    fn tpch_streams_run_every_suite_query_once_per_pass() {
        let suite = planner_suite().len();
        assert_eq!(pass_len(Workload::TpchPushdown, 20), suite);
        for seed in [0, 42, 8_675_309] {
            let s = stream(Workload::TpchPushdown, seed, 20);
            assert_eq!(s.len() % suite, 0);
            for pass in s.chunks(suite) {
                let mut n = names(pass);
                n.sort_unstable();
                n.dedup();
                assert_eq!(n.len(), suite, "seed {seed}");
            }
        }
    }

    #[test]
    fn every_suite_query_is_rank_one_in_exactly_one_zipf_phase() {
        let suite = planner_suite();
        let per_phase = 40;
        let s = zipf_phases(42, per_phase);
        assert_eq!(pass_len(Workload::ZipfCachedColumnar, 36), per_phase);
        assert_eq!(s.len(), suite.len() * per_phase);
        let mut hot: Vec<&str> = s
            .chunks(per_phase)
            .map(|phase| {
                let mut counts = std::collections::BTreeMap::new();
                for q in phase {
                    *counts.entry(q.name).or_insert(0) += 1;
                }
                counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
            })
            .collect();
        hot.sort_unstable();
        hot.dedup();
        assert_eq!(hot.len(), suite.len());
    }
}
