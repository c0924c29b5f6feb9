//! Regenerates **Figure 8** of the paper: TPC-H queries Q5 and Q8,
//! execution time as the database grows — CommDB with statistics, CommDB
//! without statistics, and q-HD (stand-alone structural method; its total
//! time includes the decomposition, per Section 6.1).
//!
//! The paper's x axis is 200–1000 MB. Official TPC-H SF 1 ≈ 1000 MB; our
//! in-memory engine runs the same sweep scaled down 10× by default
//! (SF 0.02–0.10, i.e. nominal 20–100 MB) so the harness finishes in
//! minutes. Override with `HTQO_FIG8_SCALES=0.2,0.4,0.6,0.8,1.0` for the
//! paper's literal axis.
//!
//! ```text
//! cargo run -p htqo-bench --release --bin fig8 [-- --mem-limit N[K|M|G]]
//! ```

use htqo_bench::harness::{env_f64_list, print_table, run_measured, Series};
use htqo_core::QhdOptions;
use htqo_optimizer::{DbmsSim, HybridOptimizer, RetryPolicy};
use htqo_stats::analyze;
use htqo_tpch::{generate, nominal_megabytes, q5, q8, DbgenOptions};

fn main() {
    htqo_bench::harness::reject_unknown_args(&["--mem-limit"]);
    let mem_limit = htqo_bench::harness::mem_limit_from_args();
    let scales = env_f64_list("HTQO_FIG8_SCALES", &[0.02, 0.04, 0.06, 0.08, 0.10]);
    println!("# Figure 8 — TPC-H Q5 / Q8: CommDB vs q-HD vs database size");
    println!("{}", htqo_bench::harness::measured_on());
    println!("(x = nominal database size in MB, SF×1000; cells = total time)");
    println!(
        "(execution layer: {})",
        match mem_limit {
            Some(n) => format!("{n}-byte memory limit"),
            None => "unlimited memory".to_string(),
        }
    );

    for (panel, sql) in [
        ("(a) Query Q5", q5("ASIA", 1994)),
        ("(b) Query Q8", q8("AMERICA", "ECONOMY ANODIZED STEEL")),
    ] {
        let mut with_stats = Series::new("CommDB (stats)");
        let mut no_stats = Series::new("CommDB (no stats)");
        let mut qhd = Series::new("q-HD");
        let mut qhd_hybrid = Series::new("q-HD (hybrid)");
        for &scale in &scales {
            let mb = nominal_megabytes(scale);
            let db = generate(&DbgenOptions {
                scale,
                seed: 19920701,
            });
            let stats = analyze(&db);

            let commdb = DbmsSim::commdb(Some(stats.clone()));
            with_stats.push(
                mb,
                run_measured(|b| commdb.execute_sql(&db, &sql, b).expect("valid TPC-H SQL")),
            );

            let commdb_blind = DbmsSim::commdb(None);
            no_stats.push(
                mb,
                run_measured(|b| {
                    commdb_blind
                        .execute_sql(&db, &sql, b)
                        .expect("valid TPC-H SQL")
                }),
            );

            // Purely structural q-HD: the paper observed that for Q5/Q8
            // statistics did not change the chosen decomposition.
            let structural =
                HybridOptimizer::structural(QhdOptions::default()).with_retry(RetryPolicy::none());
            qhd.push(
                mb,
                run_measured(|b| {
                    structural
                        .execute_sql(&db, &sql, b)
                        .expect("valid TPC-H SQL")
                }),
            );

            // The tightly-coupled variant: decomposition chosen with the
            // statistics-driven cost model.
            let hybrid = HybridOptimizer::with_stats(QhdOptions::default(), stats)
                .with_retry(RetryPolicy::none());
            qhd_hybrid.push(
                mb,
                run_measured(|b| hybrid.execute_sql(&db, &sql, b).expect("valid TPC-H SQL")),
            );
        }
        print_table(
            &format!("Figure 8{panel}"),
            "MB",
            &[
                with_stats.clone(),
                no_stats.clone(),
                qhd.clone(),
                qhd_hybrid.clone(),
            ],
        );
    }
}
