//! `plan_cold`: the planner, with a cold cache.
//!
//! Fourteen generated SQL texts — a line and a cycle of 6 to 12 atoms,
//! the paper's Fig. 7/9 families and HyperBench's simplest classes — over
//! relations of 40 rows, so joins shrink and execution is negligible. The
//! optimizer is built with statistics and `with_cache_capacity(0)`: every
//! statement pays parse → flatten → isolate → cost-k-decomp under the
//! statistics cost model → `Optimize`. It is the paper's §6.1
//! decomposition-time table made a workload. `cq`/`core`/`stats` changes
//! show here; the plan cache and the executor are bypassed.

use super::{naive_reference, statement_round, verify_statements};
use crate::check::Reference;
use crate::gen::{data_seed, plan_cold_statements};
use crate::runner::{Built, Mode, RoundRecord, RunConfig, Workload};
use crate::trace::Tracer;
use htqo_core::QhdOptions;
use htqo_engine::schema::Database;
use htqo_optimizer::HybridOptimizer;
use htqo_workloads::{workload_db, WorkloadSpec};
use std::path::PathBuf;
use std::time::Instant;

const RELATIONS: usize = 12;
const ROWS: usize = 40;
const DOMAIN: u64 = 80;
const SIZES: [usize; 7] = [6, 7, 8, 9, 10, 11, 12];
const SMOKE_SIZES: [usize; 2] = [6, 8];
/// One client and a sequential search: the search counters repeat exactly
/// only without the parallel sub-component solver.
pub const ENGINE_THREADS: usize = 1;

struct PlanCold {
    db: Database,
    opt: HybridOptimizer,
    stmts: Vec<String>,
    refs: Vec<Reference>,
    spill: PathBuf,
}

pub fn build(cfg: &RunConfig, _rep: usize) -> Built {
    let t = Instant::now();
    let db = workload_db(&WorkloadSpec::new(
        RELATIONS,
        ROWS,
        DOMAIN,
        data_seed(cfg.seed),
    ));
    let ta = Instant::now();
    let stats = htqo_stats::analyze(&db);
    let analyze_ns = ta.elapsed().as_nanos() as u64;
    let opt = HybridOptimizer::with_stats(QhdOptions::default(), stats).with_cache_capacity(0);
    let setup_ns = t.elapsed().as_nanos() as u64;

    let sizes: &[usize] = if cfg.smoke { &SMOKE_SIZES } else { &SIZES };
    let stmts = plan_cold_statements(cfg.seed, sizes, RELATIONS);
    let refs = stmts
        .iter()
        .map(|sql| Reference::new(&naive_reference(&db, sql)))
        .collect();
    Built {
        workload: Box::new(PlanCold {
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

impl Workload for PlanCold {
    fn round(&mut self, mode: Mode, tracer: &mut Tracer) -> RoundRecord {
        statement_round(
            mode,
            tracer,
            &self.opt,
            false,
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
            "{RELATIONS} relations x {ROWS} rows over {DOMAIN} values, {} statements/round",
            self.stmts.len()
        )
    }
}
