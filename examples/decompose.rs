//! Structural analysis walkthrough: the paper's worked examples.
//!
//! Reproduces Example 2 / Figure 2 (the width-2 hypertree decomposition of
//! query Q0) and Example 4 / Figure 3 (query Q1, whose hypergraph is
//! acyclic but whose q-hypertree decomposition needs width 2 because the
//! output variables are far apart), printing queries and decompositions.
//!
//! ```text
//! cargo run --release --example decompose
//! ```

use htqo::prelude::*;

fn main() {
    // ---- Example 2 (paper): query Q0, hw = 2 ------------------------
    let q0 = CqBuilder::new()
        .atom_vars("a", &["S", "X", "XP", "C", "F"])
        .atom_vars("b", &["S", "Y", "YP", "CP", "FP"])
        .atom_vars("c", &["C", "CP", "Z"])
        .atom_vars("d", &["X", "Z"])
        .atom_vars("e", &["Y", "Z"])
        .atom_vars("f", &["F", "FP", "ZP"])
        .atom_vars("g", &["X", "ZP"])
        .atom_vars("h", &["Y", "ZP"])
        .atom_vars("j", &["J", "X", "Y", "XP", "YP"])
        .build(); // Boolean query: ans ← body

    let ch0 = q0.hypergraph();
    println!("== Example 2: query Q0 ==");
    println!("{q0}\n");
    println!(
        "acyclic: {}, hypertree width: {}",
        acyclic::is_acyclic(&ch0.hypergraph),
        hypertree_width(&ch0.hypergraph)
    );
    let plan0 =
        q_hypertree_decomp(&q0, &QhdOptions::default(), &StructuralCost).expect("Q0 decomposes");
    println!(
        "\nwidth-{} decomposition (cf. Figure 2):",
        plan0.tree.width()
    );
    print!("{}", plan0.tree.display(&ch0.hypergraph));

    // ---- Example 4 (paper): query Q1 ---------------------------------
    // SELECT A, S, max(X) FROM a,...,i WHERE ... GROUP BY A, S — an
    // acyclic chain whose ends (A and S/X) are both in out(Q).
    let q1 = CqBuilder::new()
        .atom_vars("a", &["A", "B"])
        .atom_vars("b", &["B", "C"])
        .atom_vars("d", &["C", "T"])
        .atom_vars("e", &["T", "R"])
        .atom_vars("f", &["R", "Y"])
        .atom_vars("c", &["Y", "X"])
        .atom_vars("g", &["X", "S"])
        .atom_vars("i", &["S", "Z"])
        .atom_vars("h", &["Z", "ZP"])
        .out_var("A")
        .out_var("S")
        .out_agg(
            htqo_cq::AggFunc::Max,
            Some(htqo_cq::ScalarExpr::Var("X".into())),
            "max_x",
        )
        .group("A")
        .group("S")
        .build();
    let ch1 = q1.hypergraph();
    println!("\n== Example 4: query Q1 ==");
    println!("{q1}\n");
    println!(
        "acyclic: {} (hw = {}), but out(Q) = {:?} spans the whole chain…",
        acyclic::is_acyclic(&ch1.hypergraph),
        hypertree_width(&ch1.hypergraph),
        q1.out_vars()
    );
    assert!(
        q_hypertree_decomp(
            &q1,
            &QhdOptions {
                max_width: 1,
                run_optimize: true,
            },
            &StructuralCost
        )
        .is_err(),
        "width 1 must fail: Condition 2 forces width 2"
    );
    let plan1 = q_hypertree_decomp(&q1, &QhdOptions::default(), &StructuralCost)
        .expect("Q1 decomposes at width 2");
    println!(
        "\n…so the q-hypertree decomposition needs width {} (cf. Figure 3):",
        plan1.tree.width()
    );
    print!("{}", plan1.tree.display(&ch1.hypergraph));
    println!(
        "\nOptimize removed {} λ atoms (HD₁ → HD₁′ in the paper)",
        plan1.optimize_stats.removed_atoms
    );
}
