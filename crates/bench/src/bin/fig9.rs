//! Regenerates **Figure 9** of the paper: PostgreSQL's own optimizer vs
//! PostgreSQL with the integrated q-HD module (the tight coupling of
//! Section 5.1), on acyclic and chain queries — selectivity 60,
//! cardinality 450, 2–10 body atoms.
//!
//! The integrated mode benefits from *both* structure and statistics: the
//! hybrid optimizer runs cost-k-decomp with the statistics-driven vertex
//! cost model. A second table reports the decomposition (planning) time of
//! the integrated mode separately, to back the paper's point that the
//! structural phase is a negligible fraction of evaluation.
//!
//! ```text
//! cargo run -p htqo-bench --release --bin fig9 [-- --mem-limit BYTES]
//! ```

use htqo_bench::harness::{
    env_f64, mem_limit_from_args, print_table, reject_unknown_args, run_budget, Measurement, Series,
};
use htqo_core::QhdOptions;
use htqo_optimizer::{DbmsSim, HybridOptimizer, RetryPolicy};
use htqo_stats::analyze;
use htqo_workloads::{acyclic_query, chain_query, workload_db, WorkloadSpec};

fn main() {
    reject_unknown_args(&["--mem-limit"]);
    let mem_limit = mem_limit_from_args();
    let max_atoms = env_f64("HTQO_MAX_ATOMS", 10.0) as usize;
    println!("# Figure 9 — PostgreSQL vs PostgreSQL+q-HD (sel 60, card 450)");
    if let Some(limit) = mem_limit {
        println!("\nMemory limit: {limit} bytes per run (`--mem-limit`).");
    }

    let mut series: Vec<Series> = Vec::new();
    // (label, atoms, decomposition time) for the q-HD planning table.
    let mut decomp_times: Vec<(String, usize, f64)> = Vec::new();
    for (label, cyclic) in [("acyclic", false), ("chain", true)] {
        let mut pg = Series::new(&format!("PostgreSQL {label}"));
        let mut pg_qhd = Series::new(&format!("PostgreSQL+q-HD {label}"));
        let start = if cyclic { 3 } else { 2 };
        for n in start..=max_atoms {
            let spec = WorkloadSpec::new(n, 450, 60, 0xF1_69 + n as u64);
            let db = workload_db(&spec);
            let q = if cyclic {
                chain_query(n)
            } else {
                acyclic_query(n)
            };
            let stats = analyze(&db);

            let postgres = DbmsSim::postgres(Some(stats.clone()));
            let outcome = postgres.execute_cq(&db, &q, run_budget());
            pg.push(n as f64, Measurement::of(&outcome));

            // Integrated mode: hybrid (structure + statistics).
            let hybrid = HybridOptimizer::with_stats(QhdOptions::default(), stats)
                .with_retry(RetryPolicy::none());
            let outcome = hybrid.execute_cq(&db, &q, run_budget());
            decomp_times.push((label.to_string(), n, outcome.planning.as_secs_f64()));
            pg_qhd.push(n as f64, Measurement::of(&outcome));
        }
        series.push(pg);
        series.push(pg_qhd);
    }
    print_table("Figure 9", "atoms", &series);

    println!("\n### q-HD decomposition time (planning share of PostgreSQL+q-HD)\n");
    println!("| query | atoms | decomposition |");
    println!("|---|---|---|");
    for (label, n, secs) in &decomp_times {
        println!("| {label} | {n} | {:.2}ms |", secs * 1e3);
    }
}
