//! Step-wise replay of one statement through the public functions the
//! opaque `execute_sql` calls, one span per layer boundary:
//!
//! ```text
//! stmt.root
//! ├ cq.parse            parse_select
//! ├ optimizer.flatten   flatten_subqueries
//! ├ cq.isolate          isolate
//! ├ optimizer.plan      plan_cq_cached            (plan cache on)
//! │  └ hypergraph.canon   probe: canonical_form
//! ├ optimizer.plan      cost model + glue         (plan cache off)
//! │  ├ core.search        q_hypertree_decomp_raw → cost_k_decomp_instrumented
//! │  └ core.optimize      RawQhd::finish → optimize
//! ├ eval.qhd            evaluate_qhd_query_traced (evaluation + aggregation)
//! │  ├ engine.scan        probe: scan_query_atom_c over every atom
//! │  └ engine.aggregate   probe: finalize_c over the re-materialized answer
//! └ optimizer.estimate  estimate_answer_rows
//! ```
//!
//! The chain calls exactly what `execute_cq` calls, so its total is
//! comparable with the opaque call's (`trace.coverage`). The issue's
//! sketch timed `evaluate_qhd_with` + `aggregate::finalize` in the chain
//! instead; that path converts the whole answer to rows and aggregates
//! row-wise, which the opaque call never does, and ran 40 % slower than
//! it. Probes run after the root span has closed, so they cost traced
//! wall time (`trace.overhead_pct`) but never chain time.
//!
//! The split inside the evaluator (per-vertex join vs semijoin pass)
//! needs spans inside the program and is left to the QueryTrace issue.

use crate::trace::{SpanId, Tracer};
use htqo_core::{q_hypertree_decomp_raw, QhdPlan};
use htqo_cq::{isolate, parse_select, ConjunctiveQuery};
use htqo_engine::error::Budget;
use htqo_engine::scan::scan_query_atom_c;
use htqo_engine::schema::Database;
use htqo_engine::{finalize_c, CRel, VRelation};
use htqo_eval::{evaluate_qhd_query_traced, evaluate_qhd_with, ExecOptions, FactorizedTrace};
use htqo_hypergraph::canonical_form;
use htqo_optimizer::{estimate_answer_rows, flatten_subqueries, HybridOptimizer};
use htqo_stats::StatsDecompCost;

/// Counters read off the replayed plan, summed per round by the caller.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepCounters {
    pub stmts: u64,
    pub separators_tried: u64,
    pub subproblems: u64,
    pub memo_hits: u64,
    pub bound_cuts: u64,
    pub removed_atoms: u64,
    pub width_max: u64,
    pub join_work: u64,
}

impl StepCounters {
    pub fn add(&mut self, other: &StepCounters) {
        self.stmts += other.stmts;
        self.separators_tried += other.separators_tried;
        self.subproblems += other.subproblems;
        self.memo_hits += other.memo_hits;
        self.bound_cuts += other.bound_cuts;
        self.removed_atoms += other.removed_atoms;
        self.width_max = self.width_max.max(other.width_max);
        self.join_work += other.join_work;
    }

    fn of_plan(plan: &QhdPlan) -> Self {
        let s = &plan.search_stats;
        StepCounters {
            stmts: 1,
            separators_tried: s.separators_tried as u64,
            subproblems: s.subproblems as u64,
            memo_hits: s.memo_hits as u64,
            bound_cuts: s.bound_cuts as u64,
            removed_atoms: plan.optimize_stats.removed_atoms as u64,
            width_max: plan.tree.width() as u64,
            join_work: plan.tree.join_work() as u64,
        }
    }
}

/// What the probes re-execute once the chain's clock has stopped.
struct Probes {
    db: Database,
    q: ConjunctiveQuery,
    plan: QhdPlan,
    /// The cache-probe span to split the canonical key out of, if any.
    cached_plan: Option<SpanId>,
    eval: SpanId,
}

impl Probes {
    fn run(self, tr: &mut Tracer, stmt_id: u32) {
        let Probes {
            db,
            q,
            plan,
            cached_plan,
            eval,
        } = self;
        if let Some(planning) = cached_plan {
            // The cache probe keys the query by its canonical form; redo
            // that alone to split the hypergraph layer out of the probe.
            let p = tr.begin_probe("hypergraph.canon", planning, stmt_id);
            let ch = q.hypergraph();
            let out_vars = ch.out_var_set(&q);
            std::hint::black_box(canonical_form(&ch.hypergraph, &out_vars));
            tr.end(p);
        }
        let mut budget = Budget::unlimited();
        let p = tr.begin_probe("engine.scan", eval, stmt_id);
        for a in q.atom_ids() {
            std::hint::black_box(scan_query_atom_c(&db, &q, a, &mut budget).is_ok());
        }
        tr.end(p);
        // The answer relation the final aggregation consumed is not
        // visible from outside; materialize it again (untimed), then time
        // the aggregation alone.
        let Ok(answer) = evaluate_qhd_with(&db, &q, &plan, &mut budget, &ExecOptions::default())
        else {
            return;
        };
        let answer = CRel::from_vrel(&answer);
        let p = tr.begin_probe("engine.aggregate", eval, stmt_id);
        std::hint::black_box(finalize_c(&answer, &q, &mut budget).is_ok());
        tr.end(p);
    }
}

/// Replays `sql` on `db` with `opt`'s options and statistics. `budget` is
/// the budget `execute_sql` would have been given. Returns the answer (or
/// the first error, rendered), the plan's counters, and the duration of
/// the root span (the chain without its probes).
pub fn replay_statement(
    tr: &mut Tracer,
    db: &Database,
    opt: &HybridOptimizer,
    plan_cache_on: bool,
    stmt_id: u32,
    sql: &str,
    mut budget: Budget,
) -> (Result<VRelation, String>, StepCounters, u64) {
    let root = tr.begin("stmt.root", None, stmt_id);
    let mut counters = StepCounters::default();
    let mut probes = None;
    let answer = (|| {
        let s = tr.begin("cq.parse", Some(root), stmt_id);
        let stmt = parse_select(sql);
        tr.end(s);
        let stmt = stmt.map_err(|e| e.to_string())?;

        let s = tr.begin("optimizer.flatten", Some(root), stmt_id);
        let flat = flatten_subqueries(db, &stmt, &mut budget);
        tr.end(s);
        let (db, stmt) = flat.map_err(|e| e.to_string())?;

        let s = tr.begin("cq.isolate", Some(root), stmt_id);
        let q = isolate(&stmt, &db, opt.isolator);
        tr.end(s);
        let q = q.map_err(|e| e.to_string())?;

        let planning = tr.begin("optimizer.plan", Some(root), stmt_id);
        let plan = if plan_cache_on {
            let plan = opt.plan_cq_cached(&q);
            tr.end(planning);
            plan.map_err(|e| e.to_string())?
        } else {
            // `plan_cq` with the cache off, opened up: the same cost
            // model `HybridOptimizer::with_cost` builds (no index catalog
            // on the in-memory databases this path runs on).
            let stats = opt.stats.as_ref().ok_or("replay needs statistics")?;
            let cost = StatsDecompCost::new(stats, &q)
                .with_assume_optimize(opt.options.run_optimize)
                .with_indexes(&[]);
            let s = tr.begin("core.search", Some(planning), stmt_id);
            let raw = q_hypertree_decomp_raw(&q, &opt.options, &cost);
            tr.end(s);
            let raw = match raw {
                Ok(raw) => raw,
                Err(e) => {
                    tr.end(planning);
                    return Err(e.to_string());
                }
            };
            let s = tr.begin("core.optimize", Some(planning), stmt_id);
            let plan = raw.finish(&opt.options);
            tr.end(s);
            tr.end(planning);
            plan
        };
        counters = StepCounters::of_plan(&plan);

        // The evaluation front `execute_cq` calls: q-HD evaluation and
        // the final aggregation in one (factorized when eligible).
        let eval = tr.begin("eval.qhd", Some(root), stmt_id);
        let out = evaluate_qhd_query_traced(
            &db,
            &q,
            &plan,
            &mut budget,
            &ExecOptions::default(),
            &mut FactorizedTrace::default(),
        );
        tr.end(eval);
        // `execute_cq` closes every outcome with a cardinality estimate.
        let s = tr.begin("optimizer.estimate", Some(root), stmt_id);
        std::hint::black_box(estimate_answer_rows(&q, opt.stats.as_ref()));
        tr.end(s);
        probes = Some(Probes {
            db,
            q,
            plan,
            cached_plan: plan_cache_on.then_some(planning),
            eval,
        });
        out.map_err(|e| e.to_string())
    })();
    let total = tr.end(root);
    if let Some(p) = probes {
        p.run(tr, stmt_id);
    }
    (answer, counters, total)
}
