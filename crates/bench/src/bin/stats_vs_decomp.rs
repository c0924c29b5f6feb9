//! Regenerates the Section 6.1 claim: *"gathering statistics is expensive
//! (for 1GB, 800 seconds are needed) while building a structure-based
//! query plan takes an average time of 1.5 seconds — not affected by the
//! database size."*
//!
//! For each TPC-H scale factor: time a full `ANALYZE`, then time the
//! q-hypertree decomposition of Q5 (structural mode), each the best of
//! three. The decomposition column should stay flat while ANALYZE grows
//! with the data. `results/stats_vs_decomp.md` is this program's output.
//!
//! ```text
//! cargo run -p htqo-bench --release --bin stats_vs_decomp > results/stats_vs_decomp.md
//! ```

use htqo_bench::harness::{best_of, env_f64_list, measured_on};
use htqo_core::QhdOptions;
use htqo_cq::{isolate, parse_select, IsolatorOptions};
use htqo_optimizer::HybridOptimizer;
use htqo_stats::analyze;
use htqo_tpch::{generate, nominal_megabytes, q5, DbgenOptions};

/// Runs per cell; the best is reported.
const REPS: usize = 3;

fn main() {
    htqo_bench::harness::reject_unknown_args(&[]);
    let scales = env_f64_list("HTQO_SCALES", &[0.005, 0.01, 0.02, 0.05, 0.1]);
    println!("# Statistics gathering vs structural planning (Section 6.1)");
    println!(
        "\n{} Times are best of {REPS} runs; ANALYZE is the full scan \
         (exact distinct counts, 100 exact equi-depth bounds per column) \
         of all eight TPC-H tables.",
        measured_on()
    );
    println!("\n| nominal MB | rows | ANALYZE | ANALYZE per MB | q-HD decomposition (Q5) |");
    println!("|---|---|---|---|---|");
    for &scale in &scales {
        let db = generate(&DbgenOptions {
            scale,
            seed: 19920701,
        });
        let (analyze_secs, stats) = best_of(REPS, || analyze(&db));
        let rows: u64 = stats.tables.values().map(|t| t.rows).sum();

        let sql = q5("ASIA", 1994);
        let stmt = parse_select(&sql).expect("Q5 parses");
        let q = isolate(&stmt, &db, IsolatorOptions::default()).expect("Q5 isolates");
        let optimizer = HybridOptimizer::structural(QhdOptions::default());
        let (decomp_secs, plan) = best_of(REPS, || optimizer.plan_cq(&q).expect("Q5 decomposes"));
        assert_eq!(plan.tree.width(), 2);

        let mb = nominal_megabytes(scale);
        println!(
            "| {mb:.0} | {rows} | {:.1} ms | {:.2} ms | {:.3} ms |",
            analyze_secs * 1e3,
            analyze_secs * 1e3 / mb,
            decomp_secs * 1e3,
        );
    }
    println!("\nExpected shape: ANALYZE grows ~linearly with size; the");
    println!("decomposition time is constant (it never touches the data).");
}
