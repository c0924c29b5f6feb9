//! Regenerates **Figure 7** of the paper: execution times w.r.t. the
//! number of body atoms, CommDB (quantitative DP optimizer, statistics
//! allowed) vs. q-HD (the structural method used stand-alone).
//!
//! Panels: (a) acyclic and (b) chain queries for selectivity ∈ {30,60,90}
//! at cardinality 500; (c) acyclic and (d) chain queries for cardinality ∈
//! {500,750,1000} at selectivity 30.
//!
//! ```text
//! cargo run -p htqo-bench --release --bin fig7 [-- --mem-limit N[K|M|G]]
//! ```
//! Knobs: `--mem-limit N[K|M|G]` (byte cap per query; default unlimited),
//! `HTQO_TIMEOUT_SECS` (default 10), `HTQO_MAX_TUPLES` (default 20M),
//! `HTQO_MAX_ATOMS` (default 10).

use htqo_bench::{run_measured, Series};
use htqo_core::QhdOptions;
use htqo_cq::ConjunctiveQuery;
use htqo_optimizer::{DbmsSim, HybridOptimizer, RetryPolicy};
use htqo_stats::analyze;
use htqo_workloads::{acyclic_query, chain_query, workload_db, WorkloadSpec};

fn main() {
    htqo_bench::harness::reject_unknown_args(&["--mem-limit"]);
    let mem_limit = htqo_bench::harness::mem_limit_from_args();
    let max_atoms = htqo_bench::harness::env_f64("HTQO_MAX_ATOMS", 10.0) as usize;
    println!("# Figure 7 — CommDB vs q-HD on synthetic queries");
    println!("(x = number of body atoms; cells = total time, DNF = budget hit)");
    println!(
        "(execution layer: {})",
        match mem_limit {
            Some(n) => format!("{n}-byte memory limit"),
            None => "unlimited memory".to_string(),
        }
    );

    // Panels (a) and (b): cardinality 500, selectivity ∈ {30, 60, 90}.
    for (panel, cyclic) in [("(a) Acyclic queries", false), ("(b) Chain queries", true)] {
        let mut series: Vec<Series> = Vec::new();
        for sel in [30u64, 60, 90] {
            let (commdb, qhd) = sweep(cyclic, 500, sel, max_atoms);
            series.push(named(commdb, &format!("CommDB sel={sel}")));
            series.push(named(qhd, &format!("q-HD sel={sel}")));
        }
        htqo_bench::harness::print_table(
            &format!("Figure 7{panel} — cardinality 500"),
            "atoms",
            &series,
        );
    }

    // Panels (c) and (d): selectivity 30, cardinality ∈ {500, 750, 1000}.
    for (panel, cyclic) in [("(c) Acyclic queries", false), ("(d) Chain queries", true)] {
        let mut series: Vec<Series> = Vec::new();
        for card in [500usize, 750, 1000] {
            let (commdb, qhd) = sweep(cyclic, card, 30, max_atoms);
            series.push(named(commdb, &format!("CommDB card={card}")));
            series.push(named(qhd, &format!("q-HD card={card}")));
        }
        htqo_bench::harness::print_table(
            &format!("Figure 7{panel} — selectivity 30"),
            "atoms",
            &series,
        );
    }
}

fn named(s: Series, name: &str) -> Series {
    Series {
        name: name.to_string(),
        points: s.points,
    }
}

/// Runs both methods for atom counts 2..=max (3..=max for chains).
fn sweep(cyclic: bool, cardinality: usize, selectivity: u64, max_atoms: usize) -> (Series, Series) {
    let mut commdb_series = Series::new("CommDB");
    let mut qhd_series = Series::new("q-HD");
    let start = if cyclic { 3 } else { 2 };
    for n in start..=max_atoms {
        let spec = WorkloadSpec::new(n, cardinality, selectivity, 0xF167 + n as u64);
        let db = workload_db(&spec);
        let q: ConjunctiveQuery = if cyclic {
            chain_query(n)
        } else {
            acyclic_query(n)
        };

        // CommDB: quantitative planner with statistics (the paper lets
        // CommDB use statistics in Figure 7).
        let stats = analyze(&db);
        let commdb = DbmsSim::commdb(Some(stats));
        let m = run_measured(|b| commdb.execute_cq(&db, &q, b));
        commdb_series.push(n as f64, m);

        // q-HD stand-alone (purely structural, as in the paper: total time
        // includes decomposition). No fallback ladder: a DNF data point
        // must stay a DNF data point in the figure.
        let hybrid =
            HybridOptimizer::structural(QhdOptions::default()).with_retry(RetryPolicy::none());
        let m = run_measured(|b| hybrid.execute_cq(&db, &q, b));
        qhd_series.push(n as f64, m);
    }
    (commdb_series, qhd_series)
}
