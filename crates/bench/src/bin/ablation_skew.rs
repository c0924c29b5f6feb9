//! Ablation: data skew and the robustness story.
//!
//! The paper's cost model (like every 2007 optimizer's) assumes uniform
//! value distributions. This harness generates chain workloads under
//! increasing Zipf skew and reports, per skew level:
//!
//! - the **q-error** of the quantitative estimate for CommDB's chosen plan
//!   (estimated vs actually materialized tuples — uniform-assumption
//!   estimates degrade sharply under skew);
//! - CommDB's and q-HD's execution time and work.
//!
//! The structural guarantee does not depend on the estimates: q-HD's
//! evaluation stays polynomial in input + output regardless of skew,
//! which is the "robustness" argument of the paper's conclusion.
//!
//! ```text
//! cargo run -p htqo-bench --release --bin ablation_skew
//! ```

use htqo_bench::harness::run_budget;
use htqo_core::QhdOptions;
use htqo_optimizer::{order_cost, DbmsSim, HybridOptimizer, RetryPolicy};
use htqo_stats::analyze;
use htqo_workloads::{chain_query, workload_db, WorkloadSpec};

fn main() {
    htqo_bench::harness::reject_unknown_args(&[]);
    println!("# Ablation: Zipf skew vs estimation quality and runtimes");
    println!("(chain-6, cardinality 300, selectivity 50)");
    println!("\n| zipf s | CommDB est tuples | CommDB actual | q-error | CommDB time | q-HD time | q-HD tuples |");
    println!("|---|---|---|---|---|---|---|");

    for skew in [0.0f64, 0.5, 1.0, 1.5] {
        let mut spec = WorkloadSpec::new(6, 300, 50, 0x5E11);
        if skew > 0.0 {
            spec = spec.with_zipf(skew);
        }
        let db = workload_db(&spec);
        let stats = analyze(&db);
        let q = chain_query(6);

        let commdb = DbmsSim::commdb(Some(stats.clone()));
        let order = commdb.plan(&db, &q);
        let est = order_cost(&q, &stats, &order);
        let base = commdb.execute_cq(&db, &q, run_budget());
        let hybrid = HybridOptimizer::with_stats(QhdOptions::default(), stats)
            .with_retry(RetryPolicy::none());
        let ours = hybrid.execute_cq(&db, &q, run_budget());

        let actual = base.tuples as f64;
        let qerr = if est > 0.0 && actual > 0.0 {
            (actual / est).max(est / actual)
        } else {
            f64::NAN
        };
        println!(
            "| {skew} | {est:.0} | {} | {qerr:.1}× | {} | {} | {} |",
            base.tuples,
            cell(&base),
            cell(&ours),
            ours.tuples,
        );
    }
    println!("\nExpected shape: q-error grows with skew (the uniform-");
    println!("assumption estimator under-predicts heavy-hitter joins);");
    println!("both executors slow down as skew inflates true join sizes,");
    println!("but q-HD's bound never depended on the estimate being right.");
}

fn cell(out: &htqo_optimizer::QueryOutcome) -> String {
    if out.is_dnf() {
        "DNF".into()
    } else {
        format!("{:.3}s", out.total_time().as_secs_f64())
    }
}
