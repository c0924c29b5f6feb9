//! Ablation: the width bound `k` of Algorithm q-HypertreeDecomp.
//!
//! The paper states "typically k = 4 is enough for database queries".
//! This harness sweeps `k` over representative queries and reports, per
//! `(query, k)`: Failure (no width-≤k q-HD), planning time, the chosen
//! plan's estimated cost, and end-to-end execution time — showing that
//! (a) small k already succeeds on realistic queries, (b) raising k past
//! the minimum neither helps nor hurts much (the cost model may pick a
//! wider plan, never one that does more work), and (c) the search cost
//! stays negligible.
//!
//! ```text
//! cargo run -p htqo-bench --release --bin ablation_k
//! ```

use htqo_bench::harness::memory_budget;
use htqo_core::QhdOptions;
use htqo_cq::{isolate, parse_select, ConjunctiveQuery, IsolatorOptions};
use htqo_engine::schema::Database;
use htqo_optimizer::{HybridOptimizer, RetryPolicy};
use htqo_stats::analyze;
use htqo_tpch::{generate, q5, q8, DbgenOptions};
use htqo_workloads::{chain_query, clique_db, clique_query, workload_db, WorkloadSpec};
use std::time::Instant;

fn main() {
    htqo_bench::harness::reject_unknown_args(&[]);
    // Parse `HTQO_MEM_LIMIT` / `HTQO_SPILL_DIR` before any work; every
    // execution's budget carries them.
    let _ = htqo_bench::harness::mem_limit_from_args();
    println!("# Ablation: width bound k of Algorithm q-HypertreeDecomp");
    println!("{}", htqo_bench::harness::measured_on());
    println!("\n| query | k | outcome | plan time | plan width | exec time | tuples |");
    println!("|---|---|---|---|---|---|---|");

    let mut cases: Vec<(String, Database, ConjunctiveQuery)> = Vec::new();

    let chain_dbase = workload_db(&WorkloadSpec::new(8, 450, 60, 0xAB1));
    cases.push(("chain-8".into(), chain_dbase, chain_query(8)));

    let clique_dbase = clique_db(5, 100, 20, 0xAB2);
    cases.push(("clique-5".into(), clique_dbase, clique_query(5)));

    let tpch = generate(&DbgenOptions {
        scale: 0.01,
        seed: 42,
    });
    for (name, sql) in [
        ("tpch-q5", q5("ASIA", 1994)),
        ("tpch-q8", q8("AMERICA", "ECONOMY ANODIZED STEEL")),
    ] {
        let stmt = parse_select(&sql).expect("parses");
        let q = isolate(&stmt, &tpch, IsolatorOptions::default()).expect("isolates");
        cases.push((name.into(), tpch.clone(), q));
    }

    for (name, db, q) in &cases {
        let stats = analyze(db);
        for k in 1..=6usize {
            let opt = HybridOptimizer::with_stats(
                QhdOptions {
                    max_width: k,
                    run_optimize: true,
                },
                stats.clone(),
            )
            .with_retry(RetryPolicy::none());
            let t0 = Instant::now();
            match opt.plan_cq(q) {
                Err(_) => {
                    println!(
                        "| {name} | {k} | Failure | {:.2?} | — | — | — |",
                        t0.elapsed()
                    );
                }
                Ok(plan) => {
                    let plan_time = t0.elapsed();
                    let out = opt.execute_cq(db, q, memory_budget());
                    println!(
                        "| {name} | {k} | ok | {plan_time:.2?} | {} | {:.2?} | {} |",
                        plan.tree.width(),
                        out.execution,
                        out.tuples
                    );
                }
            }
        }
    }

    println!("\nExpected shape: Failure below the query's q-hypertree width;");
    println!("at or above it not always the same plan — the chosen width may");
    println!("rise with k (clique-5 and both TPC-H queries take wider plans");
    println!("as k allows them; chain-8 stays at 2) while the tuples the plan");
    println!("materializes stay equal or fall; planning time well under a");
    println!("second throughout — k = 4 covers every realistic query here,");
    println!("matching the paper's remark.");
}
