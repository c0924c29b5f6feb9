//! Structural-method comparison: tree decompositions [9,7,1] against
//! (q-)hypertree decompositions [5,6], measured on the workload families
//! of Section 6 plus stars and cliques.
//!
//! Shows the separations that motivated hypertree decompositions: wide
//! atoms are free for hypertree width but expensive for treewidth, and the
//! output-cover condition of q-HDs can exceed plain hypertree width.
//!
//! ```text
//! cargo run --release --example structure
//! ```

use htqo::prelude::*;
use htqo_core::treedecomp::{tree_decomposition, EliminationHeuristic};
use htqo_workloads::{acyclic_query, chain_query, clique_query, star_query};

fn main() {
    println!("| query | atoms | treewidth (min-fill) | hypertree width | q-hypertree width |");
    println!("|---|---|---|---|---|");

    let show = |name: &str, q: &ConjunctiveQuery| {
        let ch = q.hypergraph();
        let h = &ch.hypergraph;
        let td = tree_decomposition(h, EliminationHeuristic::MinFill);
        let hw = hypertree_width(h);
        // Smallest k for which the q-HD (root covers out(Q)) exists.
        let qhw = (hw..=h.num_edges().max(1))
            .find(|&k| {
                q_hypertree_decomp(
                    q,
                    &QhdOptions {
                        max_width: k,
                        run_optimize: true,
                    },
                    &StructuralCost,
                )
                .is_ok()
            })
            .expect("width = #edges always works");
        println!(
            "| {name} | {} | {} | {hw} | {qhw} |",
            q.atoms.len(),
            td.width(),
        );
    };

    show("line-6", &acyclic_query(6));
    show("chain-6", &chain_query(6));
    show("chain-10", &chain_query(10));
    show("star-5", &star_query(5));
    show("clique-5", &clique_query(5));
    show("clique-6", &clique_query(6));

    // TPC-H Q5 through the real SQL pipeline.
    let db = htqo_tpch::generate(&htqo_tpch::DbgenOptions {
        scale: 0.001,
        seed: 1,
    });
    let stmt = parse_select(&htqo_tpch::q5("ASIA", 1994)).unwrap();
    let q5 = isolate(&stmt, &db, IsolatorOptions::default()).unwrap();
    show("TPC-H Q5", &q5);
    let stmt = parse_select(&htqo_tpch::q8("AMERICA", "ECONOMY ANODIZED STEEL")).unwrap();
    let q8 = isolate(&stmt, &db, IsolatorOptions::default()).unwrap();
    show("TPC-H Q8", &q8);

    println!();
    println!("Reading the separations:");
    println!("- star-5: the 5-ary hub atom costs treewidth ≥ 4, while hypertree");
    println!("  width is 1 (one atom covers the whole bag).");
    println!("- TPC-H Q8: hypertree width 1, but the output variables force");
    println!("  q-hypertree width 2 — Condition 2 of Definition 2 at work.");
}
