//! Integration tests pinning the paper's worked examples:
//! Example 1 / Figure 1 (TPC-H Q5 and its hypergraph), Example 2 /
//! Figure 2 (query Q0, hypertree width 2), and Example 4 / Figure 3
//! (query Q1: acyclic, but q-hypertree width 2 because of the output
//! cover condition).

use htqo::prelude::*;
use htqo_cq::{AggFunc, ScalarExpr};

/// Example 2: the cyclic query Q0 with hw = 2.
fn q0() -> ConjunctiveQuery {
    CqBuilder::new()
        .atom_vars("a", &["S", "X", "XP", "C", "F"])
        .atom_vars("b", &["S", "Y", "YP", "CP", "FP"])
        .atom_vars("c", &["C", "CP", "Z"])
        .atom_vars("d", &["X", "Z"])
        .atom_vars("e", &["Y", "Z"])
        .atom_vars("f", &["F", "FP", "ZP"])
        .atom_vars("g", &["X", "ZP"])
        .atom_vars("h", &["Y", "ZP"])
        .atom_vars("j", &["J", "X", "Y", "XP", "YP"])
        .build()
}

/// Example 4: query Q1 — `SELECT A, S, max(X) … GROUP BY A, S` over an
/// acyclic chain of nine atoms.
fn q1() -> ConjunctiveQuery {
    CqBuilder::new()
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
        .out_agg(AggFunc::Max, Some(ScalarExpr::Var("X".into())), "max_x")
        .group("A")
        .group("S")
        .build()
}

#[test]
fn example2_q0_has_hypertree_width_2() {
    let ch = q0().hypergraph();
    assert!(!acyclic::is_acyclic(&ch.hypergraph));
    assert_eq!(hypertree_width(&ch.hypergraph), 2);
}

#[test]
fn example2_q0_decomposition_is_valid() {
    let q = q0();
    let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
    assert_eq!(plan.tree.width(), 2);
    let ch = &plan.cq_hypergraph;
    htqo_core::validate::check_qhd(&ch.hypergraph, &plan.tree, &plan.out_vars).expect("valid q-HD");
}

#[test]
fn example4_q1_acyclic_but_qhd_width_2() {
    let q = q1();
    let ch = q.hypergraph();
    // hw(H(Q1)) = 1 (the paper's observation)…
    assert!(acyclic::is_acyclic(&ch.hypergraph));
    assert_eq!(hypertree_width(&ch.hypergraph), 1);
    // …but Condition 2 of Definition 2 forces width 2 (Figure 3).
    let fail = q_hypertree_decomp(
        &q,
        &QhdOptions {
            max_width: 1,
            run_optimize: true,
        },
        &StructuralCost,
    );
    assert!(fail.is_err());
    let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
    assert_eq!(plan.tree.width(), 2);
    // out(Q1) = {A, S, X} (GROUP BY + aggregate input).
    let mut out = q.out_vars();
    out.sort();
    assert_eq!(out, vec!["A".to_string(), "S".to_string(), "X".to_string()]);
}

#[test]
fn example4_optimize_prunes_like_hd1_prime() {
    // The paper's HD₁ → HD₁′ step: Optimize must strictly reduce the join
    // work of the width-2 decomposition of Q1.
    let q = q1();
    let with = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
    let without = q_hypertree_decomp(
        &q,
        &QhdOptions {
            max_width: 4,
            run_optimize: false,
        },
        &StructuralCost,
    )
    .unwrap();
    assert!(with.tree.join_work() <= without.tree.join_work());
}

#[test]
fn example1_q5_structure() {
    // Build CQ(Q5) through the real SQL pipeline on the TPC-H catalog.
    let db = htqo_tpch::generate(&htqo_tpch::DbgenOptions {
        scale: 0.001,
        seed: 1,
    });
    let sql = htqo_tpch::q5("ASIA", 1994);
    let stmt = parse_select(&sql).unwrap();
    let q = isolate(&stmt, &db, IsolatorOptions::default()).unwrap();

    // Six atoms, cyclic hypergraph of width 2 — Figure 1.
    assert_eq!(q.atoms.len(), 6);
    let ch = q.hypergraph();
    assert!(!acyclic::is_acyclic(&ch.hypergraph));
    assert_eq!(hypertree_width(&ch.hypergraph), 2);

    // The nationkey equivalence class spans customer, supplier, nation —
    // the cycle-inducing variable of Example 1.
    let cust_nk = q.atoms[0].var_of_column("c_nationkey").unwrap();
    assert_eq!(q.atoms[3].var_of_column("s_nationkey"), Some(cust_nk));
    assert_eq!(q.atoms[4].var_of_column("n_nationkey"), Some(cust_nk));

    // o_orderdate never becomes a variable (constants only).
    assert!(q.atoms[1].var_of_column("o_orderdate").is_none());

    // And the q-HD exists at width 2 with the root covering out(Q5).
    let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
    assert_eq!(plan.tree.width(), 2);
    assert!(plan
        .out_vars
        .is_subset(&plan.tree.node(plan.tree.root()).chi));
}
