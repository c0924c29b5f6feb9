//! Regenerates the Section 6.1 claim: *"gathering statistics is expensive
//! (for 1GB, 800 seconds are needed) while building a structure-based
//! query plan takes an average time of 1.5 seconds — not affected by the
//! database size."*
//!
//! For each TPC-H scale factor: time a full `ANALYZE`, then time the
//! q-hypertree decomposition of Q5 (structural mode). The decomposition
//! column should stay flat while ANALYZE grows with the data.
//!
//! ```text
//! cargo run -p htqo-bench --release --bin stats_vs_decomp
//! ```

use htqo_bench::harness::env_f64_list;
use htqo_core::QhdOptions;
use htqo_cq::{isolate, parse_select, IsolatorOptions};
use htqo_optimizer::HybridOptimizer;
use htqo_stats::analyze;
use htqo_tpch::{generate, nominal_megabytes, q5, DbgenOptions};
use std::time::Instant;

fn main() {
    htqo_bench::harness::reject_unknown_args(&[]);
    let scales = env_f64_list("HTQO_SCALES", &[0.005, 0.01, 0.02, 0.05, 0.1]);
    println!("# Statistics gathering vs structural planning (Section 6.1)");
    println!("\n| nominal MB | ANALYZE time | q-HD decomposition time (Q5) |");
    println!("|---|---|---|");
    for &scale in &scales {
        let db = generate(&DbgenOptions {
            scale,
            seed: 19920701,
        });
        let t0 = Instant::now();
        let stats = analyze(&db);
        let analyze_secs = t0.elapsed().as_secs_f64();
        assert!(stats.gather_seconds > 0.0 || analyze_secs >= 0.0);

        let sql = q5("ASIA", 1994);
        let stmt = parse_select(&sql).expect("Q5 parses");
        let q = isolate(&stmt, &db, IsolatorOptions::default()).expect("Q5 isolates");
        let optimizer = HybridOptimizer::structural(QhdOptions::default());
        let t1 = Instant::now();
        let plan = optimizer.plan_cq(&q).expect("Q5 decomposes");
        let decomp_secs = t1.elapsed().as_secs_f64();
        assert_eq!(plan.tree.width(), 2);

        println!(
            "| {:.0} | {:.3}s | {:.4}s |",
            nominal_megabytes(scale),
            analyze_secs,
            decomp_secs
        );
    }
    println!("\nExpected shape: ANALYZE grows ~linearly with size; the");
    println!("decomposition time is constant (it never touches the data).");
}
