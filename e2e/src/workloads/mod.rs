//! The four workloads. Each stresses different layers; for every later
//! optimisation one of them exercises its mechanism and another bypasses
//! it (see README.md for the layer → metric table).

pub mod paged_rw;
pub mod plan_cold;
pub mod service_hot;
pub mod tpch_mem;

use crate::check::Reference;
use crate::measure::Stopwatch;
use crate::replay::{replay_statement, StepCounters};
use crate::runner::{Builder, Mode, RoundRecord, StmtResult};
use crate::trace::Tracer;
use htqo_cq::{isolate, parse_select, IsolatorOptions};
use htqo_engine::error::Budget;
use htqo_engine::schema::Database;
use htqo_engine::VRelation;
use htqo_eval::evaluate_naive;
use htqo_optimizer::{DbmsSim, HybridOptimizer};
use std::path::Path;
use std::time::Instant;

/// How to build a workload and the concurrency it is measured at. Client
/// and thread counts are for a two-core host and never exceed it
/// (`set_threads` clamps to the hardware anyway).
pub struct Spec {
    pub build: Builder,
    /// Process-wide engine threads (`htqo_engine::exec::set_threads`).
    pub engine_threads: usize,
    /// Concurrent client sessions.
    pub sessions: usize,
}

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let spec = |build, engine_threads, sessions| Spec {
        build,
        engine_threads,
        sessions,
    };
    match name {
        "tpch_mem" => Some(spec(tpch_mem::build, tpch_mem::ENGINE_THREADS, 1)),
        "plan_cold" => Some(spec(plan_cold::build, plan_cold::ENGINE_THREADS, 1)),
        "service_hot" => Some(spec(
            service_hot::build,
            service_hot::ENGINE_THREADS,
            service_hot::SESSIONS,
        )),
        "paged_rw" => Some(spec(paged_rw::build, paged_rw::ENGINE_THREADS, 1)),
        _ => None,
    }
}

/// The budget every client call runs under: unlimited, spilling (which no
/// workload provokes) into the run's own directory.
pub fn client_budget(spill_dir: &Path) -> Budget {
    Budget::unlimited().with_spill_dir(spill_dir.to_path_buf())
}

/// One client statement through `HybridOptimizer::execute_sql`.
pub fn execute_opaque(
    opt: &HybridOptimizer,
    db: &Database,
    stmt: usize,
    sql: &str,
    budget: Budget,
) -> StmtResult {
    let t = Instant::now();
    let outcome = opt.execute_sql(db, sql, budget);
    let lat_ns = t.elapsed().as_nanos() as u64;
    match outcome {
        Ok(o) => StmtResult::of_outcome(stmt, lat_ns, false, o),
        Err(e) => StmtResult::failed(stmt, lat_ns, false, e.to_string()),
    }
}

/// The same statement replayed step by step with spans; its plan's
/// counters are added to `step`.
#[allow(clippy::too_many_arguments)]
pub fn execute_stepwise(
    tracer: &mut Tracer,
    opt: &HybridOptimizer,
    plan_cache_on: bool,
    db: &Database,
    stmt: usize,
    sql: &str,
    budget: Budget,
    step: &mut StepCounters,
) -> StmtResult {
    let (answer, counters, lat_ns) =
        replay_statement(tracer, db, opt, plan_cache_on, stmt as u32, sql, budget);
    step.add(&counters);
    StmtResult {
        stmt,
        answer,
        lat_ns,
        prepared: false,
        direct_ns: None,
        info: None,
    }
}

/// One round of a single-client statement list, opaque or step-wise.
pub fn statement_round(
    mode: Mode,
    tracer: &mut Tracer,
    opt: &HybridOptimizer,
    plan_cache_on: bool,
    db: &Database,
    stmts: &[String],
    spill_dir: &Path,
) -> RoundRecord {
    let mut rec = RoundRecord::default();
    let sw = Stopwatch::start();
    for (i, sql) in stmts.iter().enumerate() {
        let budget = client_budget(spill_dir);
        rec.stmts.push(match mode {
            Mode::Opaque => execute_opaque(opt, db, i, sql, budget),
            Mode::Stepwise => execute_stepwise(
                tracer,
                opt,
                plan_cache_on,
                db,
                i,
                sql,
                budget,
                &mut rec.step,
            ),
        });
    }
    let (wall_ns, cpu_ms) = sw.stop();
    rec.cpu_ms = cpu_ms;
    match mode {
        Mode::Opaque => rec.wall_ns = wall_ns,
        Mode::Stepwise => {
            rec.traced_wall_ns = wall_ns;
            rec.wall_ns = rec.stmts.iter().map(|s| s.lat_ns).sum();
        }
    }
    rec
}

/// Checks each statement's answer against its reference.
pub fn verify_statements(refs: &[Reference], rec: &RoundRecord) -> Vec<String> {
    rec.stmts
        .iter()
        .filter_map(|s| {
            let verdict = match &s.answer {
                Ok(answer) => refs[s.stmt].matches(answer),
                Err(e) => Err(e.clone()),
            };
            verdict.err().map(|e| format!("statement {}: {e}", s.stmt))
        })
        .collect()
}

/// Reference answer by the quantitative left-deep simulator: another
/// planner and another executor (full hash joins, no semijoin pass) over
/// the same engine.
pub fn commdb_reference(commdb: &DbmsSim, db: &Database, sql: &str) -> VRelation {
    commdb
        .execute_sql(db, sql, Budget::unlimited())
        .unwrap_or_else(|e| panic!("reference for `{sql}` failed: {e}"))
        .result
        .unwrap_or_else(|e| panic!("reference for `{sql}` failed: {e}"))
}

/// Reference answer by the naive evaluator: every atom joined in
/// syntactic order, no planner involved.
pub fn naive_reference(db: &Database, sql: &str) -> VRelation {
    let stmt = parse_select(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    let q =
        isolate(&stmt, db, IsolatorOptions::default()).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    let mut budget = Budget::unlimited();
    evaluate_naive(db, &q, &mut budget)
        .and_then(|answer| htqo_engine::aggregate::finalize(&answer, &q, &mut budget))
        .unwrap_or_else(|e| panic!("reference for `{sql}` failed: {e}"))
}
