//! Regenerates **Figure 10** of the paper: the impact of Procedure
//! Optimize (Figure 4) on chain queries, over the same dataset as Figure 9
//! (selectivity 60, cardinality 450).
//!
//! Reports, per atom count, the q-HD evaluation with and without the
//! Optimize pruning, plus how many λ atoms were removed and the resulting
//! per-plan join work.
//!
//! ```text
//! cargo run -p htqo-bench --release --bin fig10 [-- --mem-limit N[K|M|G]]
//! ```

use htqo_bench::harness::{
    env_f64, mem_limit_from_args, print_table, reject_unknown_args, run_measured, Series,
};
use htqo_core::QhdOptions;
use htqo_optimizer::{HybridOptimizer, RetryPolicy};
use htqo_stats::analyze;
use htqo_workloads::{chain_query, workload_db, WorkloadSpec};

fn main() {
    reject_unknown_args(&["--mem-limit"]);
    let mem_limit = mem_limit_from_args();
    let max_atoms = env_f64("HTQO_MAX_ATOMS", 10.0) as usize;
    println!(
        "# Figure 10 — impact of Procedure Optimize (chain, sel 60, card 450, {})",
        match mem_limit {
            Some(n) => format!("{n}-byte memory limit"),
            None => "unlimited memory".to_string(),
        }
    );
    println!("{}", htqo_bench::harness::measured_on());

    let mut with_opt = Series::new("q-HD with Optimize");
    let mut without_opt = Series::new("q-HD without Optimize");
    println!("\nPer-plan pruning detail:");
    println!("| atoms | λ atoms removed | joins with Optimize | joins without |");
    println!("|---|---|---|---|");
    for n in 3..=max_atoms {
        let spec = WorkloadSpec::new(n, 450, 60, 0xF1_610 + n as u64);
        let db = workload_db(&spec);
        let q = chain_query(n);
        let stats = analyze(&db);

        let opt_on = HybridOptimizer::with_stats(
            QhdOptions {
                max_width: 4,
                run_optimize: true,
            },
            stats.clone(),
        )
        .with_retry(RetryPolicy::none());
        let opt_off = HybridOptimizer::with_stats(
            QhdOptions {
                max_width: 4,
                run_optimize: false,
            },
            stats,
        )
        .with_retry(RetryPolicy::none());

        // Plan-shape detail.
        let plan_on = opt_on.plan_cq(&q).expect("chain decomposes");
        let plan_off = opt_off.plan_cq(&q).expect("chain decomposes");
        println!(
            "| {n} | {} | {} | {} |",
            plan_on.optimize_stats.removed_atoms,
            plan_on.tree.join_work(),
            plan_off.tree.join_work()
        );

        with_opt.push(n as f64, run_measured(|b| opt_on.execute_cq(&db, &q, b)));
        without_opt.push(n as f64, run_measured(|b| opt_off.execute_cq(&db, &q, b)));
    }
    print_table("Figure 10", "atoms", &[with_opt, without_opt]);
}
