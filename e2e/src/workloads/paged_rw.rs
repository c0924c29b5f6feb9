//! `paged_rw`: storage, with writes beside reads.
//!
//! TPC-H ingested into a `StorageDb` (WAL policy `Commit`: one fsync per
//! batch) with B-trees on the join keys. A round:
//!
//! 1. 16 durable `apply(MutationBatch)` calls of 16 operations each, on
//!    `customer` (every fourth) and `orders`;
//! 2. `simulate_crash()` — cached pages and the unflushed WAL tail are
//!    dropped, so only flushed bytes survive;
//! 3. `recover()` + `load_database` through a buffer pool smaller than a
//!    quarter of the files;
//! 4. Q5, Q3 and two key-lookup joins on the reloaded database, planned
//!    with the index catalog and the set-up statistics.
//!
//! After every restart the reloaded `customer`/`orders` must have the row
//! count and checksum of the benchmark's own model of the committed
//! batches (durability from only what was flushed), and every answer must
//! equal the left-deep simulator's on the same reloaded data.
//!
//! The batch mix is 6 appends, 4 updates, 6 deletes: live rows stay
//! constant, so round time does not drift with the length of the run.
//! (The issue's 70/20/10 mix triples `orders` within 200 rounds at this
//! scale.) The auto-checkpoint threshold is set so that about one
//! checkpoint per round happens inside an `apply`, as a foreground stall.

use super::{client_budget, commdb_reference, execute_opaque, execute_stepwise};
use crate::check::Reference;
use crate::gen::{
    data_seed, lookup_statements, row_hash, stream, tpch_statements, GeneratedBatch, Mutated, Rng,
    TableModel, TpchQuery,
};
use crate::measure::{dir_bytes, ByteCounter, Stopwatch};
use crate::runner::{Built, Mode, RoundRecord, RunConfig, StmtResult, StorageRound, Workload};
use crate::trace::Tracer;
use htqo_core::QhdOptions;
use htqo_engine::error::EvalError;
use htqo_engine::schema::Database;
use htqo_engine::{JoinIndex, Value};
use htqo_optimizer::{DbmsSim, HybridOptimizer};
use htqo_stats::DbStats;
use htqo_storage::{BufferPool, PagedIndex, StorageDb, WalPolicy};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// ≈87 k rows, ≈7.5 MiB on disk.
const SCALE: f64 = 0.01;
const SMOKE_SCALE: f64 = 0.002;
pub const ENGINE_THREADS: usize = 2;

/// The flush policy, stated and fixed: fsync at every commit.
const WAL_POLICY: WalPolicy = WalPolicy::Commit;
/// WAL bytes that trigger a checkpoint inside `apply`; a round logs
/// ≈1.3 MiB of page images.
const CHECKPOINT_BYTES: u64 = 1 << 20;
/// Page cache for the reload, split across the eight tables' pools: less
/// than a quarter of the files.
const CACHE_BYTES: u64 = 3 << 19;

const BATCHES: usize = 16;
const APPENDS: usize = 6;
const UPDATES: usize = 4;
const DELETES: usize = 6;
/// Direct B-tree seeks per step-wise round (`storage.btree.pins_per_seek`).
const SEEK_PROBES: u64 = 32;

const INDEXES: [(&str, &[&str]); 8] = [
    ("region", &["r_regionkey"]),
    ("nation", &["n_nationkey", "n_regionkey"]),
    ("supplier", &["s_suppkey", "s_nationkey"]),
    ("customer", &["c_custkey", "c_nationkey"]),
    ("part", &["p_partkey"]),
    ("partsupp", &["ps_partkey", "ps_suppkey"]),
    ("orders", &["o_orderkey", "o_custkey"]),
    ("lineitem", &["l_orderkey", "l_suppkey", "l_partkey"]),
];

struct PagedRw {
    scale: f64,
    dir: PathBuf,
    spill: PathBuf,
    storage: StorageDb,
    stats: DbStats,
    commdb: DbmsSim,
    stmts: Vec<String>,
    models: [TableModel; 2],
    /// Row counts of the tables no batch touches.
    fixed_rows: BTreeMap<String, usize>,
    rng: Rng,
    orders_at_ingest: u64,
    probe_keys: Rng,
    /// The database the last restart loaded; verification reads it.
    loaded: Option<Database>,
}

impl Drop for PagedRw {
    fn drop(&mut self) {
        // Each set-up repeat owns its own store; errors here only leave
        // files for the run-level clean-up.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn build(cfg: &RunConfig, rep: usize) -> Built {
    let scale = if cfg.smoke { SMOKE_SCALE } else { SCALE };
    let dir = cfg.scratch.join(format!("store-{rep}"));

    let t = Instant::now();
    let db = htqo_tpch::generate(&htqo_tpch::DbgenOptions {
        scale,
        seed: data_seed(cfg.seed),
    });
    let ta = Instant::now();
    let stats = htqo_stats::analyze(&db);
    let analyze_ns = ta.elapsed().as_nanos() as u64;
    let ti = Instant::now();
    let storage =
        StorageDb::open_with(&dir, WAL_POLICY, CHECKPOINT_BYTES).expect("open storage directory");
    for (table, cols) in INDEXES {
        storage
            .ingest(table, db.table(table).expect("generated table"), cols)
            .unwrap_or_else(|e| panic!("ingest {table}: {e}"));
    }
    let ingest_ns = ti.elapsed().as_nanos() as u64;
    let setup_ns = t.elapsed().as_nanos() as u64;

    let rows_of = |t: &str| db.table(t).expect("generated table").len();
    let customers = rows_of("customer");
    let model = |table: Mutated| {
        let rows = db.table(table.name()).expect("generated table").iter_rows();
        TableModel::new(table, rows.map(|r| r.to_vec()), customers)
    };
    let mut stmts = tpch_statements(cfg.seed, &[TpchQuery::Q5, TpchQuery::Q3], 1);
    stmts.extend(lookup_statements(
        cfg.seed,
        rows_of("orders"),
        rows_of("part"),
    ));
    let fixed_rows = db
        .tables()
        .filter(|(name, _)| !matches!(*name, "customer" | "orders"))
        .map(|(name, rel)| (name.to_string(), rel.len()))
        .collect();
    Built {
        workload: Box::new(PagedRw {
            scale,
            spill: cfg.scratch.join("spill"),
            commdb: DbmsSim::commdb(Some(stats.clone())),
            stats,
            stmts,
            models: [model(Mutated::Customer), model(Mutated::Orders)],
            fixed_rows,
            rng: Rng::new(cfg.seed, stream::MUTATIONS),
            orders_at_ingest: rows_of("orders") as u64,
            probe_keys: Rng::new(cfg.seed, stream::SEEK_PROBES),
            loaded: None,
            storage,
            dir: dir.clone(),
        }),
        setup_ns,
        analyze_ns,
        ingest_ns,
        ingest_bytes: dir_bytes(&dir),
    }
}

/// `table.column` and its persisted index.
type IndexHandles = Vec<(String, Arc<PagedIndex>)>;

/// `load_database`, opened up so the step-wise round can keep the
/// `PagedIndex` handles (the only public way to a pool's counters).
fn load_with_handles(storage: &StorageDb) -> Result<(Database, IndexHandles), EvalError> {
    let names = storage.tables()?;
    let per_table = (CACHE_BYTES / names.len().max(1) as u64).max(htqo_storage::PAGE_SIZE as u64);
    let mut db = Database::new();
    let mut handles = Vec::new();
    for name in &names {
        let (rel, indexes) = storage.load_table(name, per_table, None)?;
        db.insert_table(name, rel);
        for (col, idx) in indexes {
            db.register_index(name, &col, idx.clone());
            handles.push((format!("{name}.{col}"), idx));
        }
    }
    Ok((db, handles))
}

/// One pool per table, however many indexes share it.
fn distinct_pools(handles: &IndexHandles) -> Vec<&Arc<BufferPool>> {
    let mut pools: Vec<&Arc<BufferPool>> = Vec::new();
    for (_, idx) in handles {
        if !pools.iter().any(|p| Arc::ptr_eq(p, idx.pool())) {
            pools.push(idx.pool());
        }
    }
    pools
}

impl PagedRw {
    fn next_batches(&mut self) -> Vec<GeneratedBatch> {
        (0..BATCHES)
            .map(|i| {
                let model = &mut self.models[usize::from(i % 4 != 0)];
                model.next_batch(&mut self.rng, UPDATES, DELETES, APPENDS)
            })
            .collect()
    }

    fn wal_len(&self) -> u64 {
        std::fs::metadata(self.dir.join("db.wal")).map_or(0, |m| m.len())
    }

    /// The reloaded mutated tables against the model, the untouched ones
    /// against their ingested row counts.
    fn check_durability(&self, db: &Database) -> Result<(), String> {
        for model in &self.models {
            let name = model.table.name();
            let rel = db
                .table(name)
                .ok_or(format!("{name} missing after restart"))?;
            if rel.len() != model.live_rows() {
                return Err(format!(
                    "{name}: {} rows after restart, model has {}",
                    rel.len(),
                    model.live_rows()
                ));
            }
            let sum = rel
                .iter_rows()
                .fold(0u64, |a, r| a.wrapping_add(row_hash(&r)));
            if sum != model.checksum() {
                return Err(format!("{name}: checksum differs from the model's"));
            }
        }
        for (name, rows) in &self.fixed_rows {
            let got = db.table(name).map(|r| r.len());
            if got != Some(*rows) {
                return Err(format!(
                    "{name}: {got:?} rows after restart, ingested {rows}"
                ));
            }
        }
        Ok(())
    }
}

/// Runs one storage call, timed, as a root span in step-wise rounds.
fn storage_call<T>(
    mode: Mode,
    tracer: &mut Tracer,
    name: &'static str,
    call: impl FnOnce() -> T,
) -> (T, u64) {
    let span = (mode == Mode::Stepwise).then(|| tracer.begin(name, None, 0));
    let t = Instant::now();
    let out = call();
    let ns = t.elapsed().as_nanos() as u64;
    if let Some(s) = span {
        tracer.end(s);
    }
    (out, ns)
}

/// `(hits, misses, evictions)` summed over `pools`.
fn pool_totals(pools: &[&Arc<BufferPool>]) -> (u64, u64, u64) {
    pools.iter().map(|p| p.stats()).fold((0, 0, 0), |t, s| {
        (t.0 + s.hits, t.1 + s.misses, t.2 + s.evictions)
    })
}

impl PagedRw {
    /// Step 1: the round's durable commits. Returns the CPU they took.
    fn commit_batches(&mut self, mode: Mode, tracer: &mut Tracer, st: &mut StorageRound) -> f64 {
        let batches = self.next_batches();
        let mut wal_before = self.wal_len();
        let mut grown: Vec<u64> = Vec::new();
        let sw = Stopwatch::start();
        for g in &batches {
            let (applied, lat) = storage_call(mode, tracer, "storage.apply", || {
                self.storage.apply(&g.batch)
            });
            st.commits
                .push(applied.map(|_| lat).map_err(|e| e.to_string()));
            st.ops += g.ops as u64;
            st.user_bytes += g.user_bytes;
            let wal_after = self.wal_len();
            if wal_after > wal_before {
                grown.push(wal_after - wal_before);
                st.wal_bytes += wal_after - wal_before;
            } else {
                // The log shrank: this apply ended in a checkpoint. Its
                // own log bytes are gone with the truncation; charge the
                // round's mean batch instead.
                st.checkpoints += 1;
                st.stall_max_ns = st.stall_max_ns.max(lat);
                st.wal_bytes += grown.iter().sum::<u64>() / grown.len().max(1) as u64;
            }
            wal_before = wal_after;
        }
        sw.stop().1
    }

    /// Step 3: recovery and reload. Returns the database with its index
    /// handles (step-wise rounds only) and the CPU taken.
    fn restart(
        &mut self,
        mode: Mode,
        tracer: &mut Tracer,
        st: &mut StorageRound,
    ) -> (Result<(Database, IndexHandles), EvalError>, f64) {
        let sw = Stopwatch::start();
        let (report, recover_ns) =
            storage_call(mode, tracer, "storage.recover", || self.storage.recover());
        let (loaded, load_ns) = storage_call(mode, tracer, "storage.load", || match mode {
            Mode::Opaque => self
                .storage
                .load_database(CACHE_BYTES, None)
                .map(|db| (db, Vec::new())),
            Mode::Stepwise => load_with_handles(&self.storage),
        });
        let cpu = sw.stop().1;
        st.recover_ns = recover_ns;
        st.load_ns = load_ns;
        let restarted = report.and_then(|report| {
            st.pages_redone = report.pages_redone;
            st.batches_replayed = report.batches_replayed;
            loaded
        });
        (restarted, cpu)
    }
}

impl Workload for PagedRw {
    fn round(&mut self, mode: Mode, tracer: &mut Tracer) -> RoundRecord {
        let mut rec = RoundRecord::default();
        let mut st = StorageRound::default();

        let apply_cpu = self.commit_batches(mode, tracer, &mut st);
        // Step 2, the crash: only flushed bytes survive.
        self.storage.simulate_crash();
        let (restarted, restart_cpu) = self.restart(mode, tracer, &mut st);
        let (db, handles) = match restarted {
            Ok(loaded) => loaded,
            Err(why) => {
                // No database to query: the restart and every statement
                // of the round fail.
                rec.stmts = (0..self.stmts.len())
                    .map(|i| StmtResult::failed(i, 0, false, format!("restart failed: {why}")))
                    .collect();
                self.loaded = None;
                rec.storage = Some(st);
                return rec;
            }
        };
        st.pages_loaded = db
            .tables()
            .filter_map(|(name, _)| self.storage.table_meta(name).ok())
            .map(|m| m.heap_pages())
            .sum();

        // Step 4: queries on the reloaded database. The plan cache died
        // with the process, so each statement is planned again.
        let opt = HybridOptimizer::with_stats(QhdOptions::default(), self.stats.clone())
            .with_index_catalog(db.indexed_columns());
        let sw = Stopwatch::start();
        for (i, sql) in self.stmts.iter().enumerate() {
            let budget = client_budget(&self.spill);
            rec.stmts.push(match mode {
                Mode::Opaque => execute_opaque(&opt, &db, i, sql, budget),
                Mode::Stepwise => {
                    execute_stepwise(tracer, &opt, true, &db, i, sql, budget, &mut rec.step)
                }
            });
        }
        let (query_wall_ns, query_cpu) = sw.stop();

        // Pool counters of the reachable pools, then the B-tree probe on
        // top of them (so the probe's pins do not dilute the hit ratio).
        let pools = distinct_pools(&handles);
        (st.pool_hits, st.pool_misses, st.pool_evictions) = pool_totals(&pools);
        if let Some((_, idx)) = handles.iter().find(|(n, _)| n == "lineitem.l_orderkey") {
            for _ in 0..SEEK_PROBES {
                let key = Value::Int(self.probe_keys.below(self.orders_at_ingest) as i64);
                std::hint::black_box(idx.seek(&htqo_engine::index::key_bytes(&key)).is_ok());
            }
            let (hits, misses, _) = pool_totals(&pools);
            st.seek_pins = hits + misses - st.pool_hits - st.pool_misses;
            st.seeks = SEEK_PROBES;
        }

        let storage_ns = st.commits.iter().flatten().sum::<u64>() + st.recover_ns + st.load_ns;
        rec.wall_ns = storage_ns + rec.stmts.iter().map(|s| s.lat_ns).sum::<u64>();
        // Step-wise, the query window also holds the probes.
        rec.traced_wall_ns = storage_ns + query_wall_ns;
        rec.cpu_ms = apply_cpu + restart_cpu + query_cpu;
        rec.storage = Some(st);
        self.loaded = Some(db);
        rec
    }

    fn verify(&mut self, rec: &RoundRecord) -> Vec<String> {
        let mut failures: Vec<String> = rec
            .storage
            .iter()
            .flat_map(|st| &st.commits)
            .filter_map(|c| c.as_ref().err())
            .map(|e| format!("commit: {e}"))
            .collect();
        let Some(db) = &self.loaded else {
            failures.push("restart failed".to_string());
            failures.extend(rec.stmts.iter().filter_map(|s| s.answer.clone().err()));
            return failures;
        };
        if let Err(e) = self.check_durability(db) {
            failures.push(format!("durability: {e}"));
        }
        for s in &rec.stmts {
            let verdict = match &s.answer {
                Ok(answer) => {
                    let reference = commdb_reference(&self.commdb, db, &self.stmts[s.stmt]);
                    Reference::new(&reference).matches(answer)
                }
                Err(e) => Err(e.clone()),
            };
            if let Err(e) = verdict {
                failures.push(format!("statement {}: {e}", s.stmt));
            }
        }
        failures
    }

    fn finish(&mut self, extras: &mut BTreeMap<&'static str, f64>) {
        let Some(db) = &self.loaded else { return };
        if self.storage.checkpoint().is_err() {
            return;
        }
        let mut csv = ByteCounter::default();
        for (_, rel) in db.tables() {
            let _ = htqo_engine::write_csv(rel, &mut csv);
        }
        extras.insert(
            "space_amp",
            dir_bytes(&self.dir) as f64 / csv.0.max(1) as f64,
        );
    }

    fn scale(&self) -> String {
        format!(
            "TPC-H SF {} paged, cache {} KiB, checkpoint at {} KiB, {BATCHES} batches x {} ops \
             + {} statements/round",
            self.scale,
            CACHE_BYTES >> 10,
            CHECKPOINT_BYTES >> 10,
            APPENDS + UPDATES + DELETES,
            self.stmts.len()
        )
    }
}
