//! `tpch_mem`: the execution layers.
//!
//! TPC-H in memory, ANALYZEd once; a round is two parameterizations each
//! of Q5, Q8, Q3 and Q10 through `HybridOptimizer::execute_sql`, one
//! client, plan cache on. This is the paper's Fig. 8: scan, per-vertex
//! joins, the semijoin pass and aggregation do nearly all of the work, so
//! `eval`/`engine` changes show here and planner changes do not.

use super::{commdb_reference, statement_round, verify_statements};
use crate::check::Reference;
use crate::gen::{data_seed, tpch_statements, TpchQuery};
use crate::runner::{Built, Mode, RoundRecord, RunConfig, Workload};
use crate::trace::Tracer;
use htqo_core::QhdOptions;
use htqo_engine::schema::Database;
use htqo_optimizer::{DbmsSim, HybridOptimizer};
use std::path::PathBuf;
use std::time::Instant;

/// ≈173 k rows; a round of eight statements takes ≈35 ms, so a 15 s run
/// measures ≈400 rounds.
const SCALE: f64 = 0.02;
const SMOKE_SCALE: f64 = 0.002;
/// One, not the issue's two: at this scale two threads make the round
/// slower (1st percentile 46–53 ms against 34–36 ms) and, needing both
/// cores undisturbed at once, twice as noisy between runs. `paged_rw`
/// keeps the parallel schedule in the benchmark.
pub const ENGINE_THREADS: usize = 1;

const QUERIES: [TpchQuery; 4] = [TpchQuery::Q5, TpchQuery::Q8, TpchQuery::Q3, TpchQuery::Q10];
const VARIANTS: usize = 2;

struct TpchMem {
    scale: f64,
    db: Database,
    opt: HybridOptimizer,
    stmts: Vec<String>,
    refs: Vec<Reference>,
    spill: PathBuf,
}

pub fn build(cfg: &RunConfig, _rep: usize) -> Built {
    let scale = if cfg.smoke { SMOKE_SCALE } else { SCALE };
    let t = Instant::now();
    let db = htqo_tpch::generate(&htqo_tpch::DbgenOptions {
        scale,
        seed: data_seed(cfg.seed),
    });
    let ta = Instant::now();
    let stats = htqo_stats::analyze(&db);
    let analyze_ns = ta.elapsed().as_nanos() as u64;
    let opt = HybridOptimizer::with_stats(QhdOptions::default(), stats.clone());
    let setup_ns = t.elapsed().as_nanos() as u64;

    let stmts = tpch_statements(cfg.seed, &QUERIES, VARIANTS);
    let commdb = DbmsSim::commdb(Some(stats));
    let refs = stmts
        .iter()
        .map(|sql| Reference::new(&commdb_reference(&commdb, &db, sql)))
        .collect();
    Built {
        workload: Box::new(TpchMem {
            scale,
            db,
            opt,
            stmts,
            refs,
            spill: cfg.scratch.join("spill"),
        }),
        setup_ns,
        analyze_ns,
        ingest_ns: 0,
        ingest_bytes: 0,
    }
}

impl Workload for TpchMem {
    fn round(&mut self, mode: Mode, tracer: &mut Tracer) -> RoundRecord {
        statement_round(
            mode,
            tracer,
            &self.opt,
            true,
            &self.db,
            &self.stmts,
            &self.spill,
        )
    }

    fn verify(&mut self, rec: &RoundRecord) -> Vec<String> {
        verify_statements(&self.refs, rec)
    }

    fn scale(&self) -> String {
        format!(
            "TPC-H SF {} ({} rows), {} statements/round",
            self.scale,
            self.db.total_tuples(),
            self.stmts.len()
        )
    }
}
