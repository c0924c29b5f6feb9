//! Query-oriented hypertree decompositions — the primary contribution of
//! *"Hypertree Decompositions for Query Optimization"* (Ghionna, Granata,
//! Greco, Scarcello — ICDE 2007).
//!
//! - [`hypertree`]: the `⟨T, χ, λ⟩` structure, extended with enforcement
//!   assignments and support-child ordering constraints;
//! - [`validate`]: independent checkers for Definition 1 (hypertree
//!   decompositions), generalized HDs, and Definition 2 (q-hypertree
//!   decompositions);
//! - [`search`]: det-k-decomp (normal-form width-≤k search, hypertree
//!   width) and cost-k-decomp (minimum-cost DP over components, the
//!   weighted decompositions of PODS'04 that the paper's optimizer uses);
//! - [`optimize`](mod@optimize): Procedure Optimize (Figure 4), pruning λ
//!   atoms bounded by children;
//! - [`qhd`]: Algorithm q-HypertreeDecomp, tying it together.
//!
//! # Example
//!
//! ```
//! use htqo_cq::CqBuilder;
//! use htqo_core::{q_hypertree_decomp, QhdOptions, StructuralCost};
//!
//! // A cyclic "chain" query with one output variable.
//! let q = CqBuilder::new()
//!     .atom_vars("p1", &["A", "B"])
//!     .atom_vars("p2", &["B", "C"])
//!     .atom_vars("p3", &["C", "D"])
//!     .atom_vars("p4", &["D", "A"])
//!     .out_var("A")
//!     .build();
//! let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
//! assert!(plan.tree.width() <= 2);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod hypertree;
mod mask;
pub mod optimize;
pub mod qhd;
pub mod reuse;
pub mod search;
pub mod treedecomp;
pub mod validate;

pub use cost::{DecompCost, StructuralCost};
pub use hypertree::{Hypertree, HypertreeBuilder, Node, NodeId};
pub use optimize::{optimize, OptimizeStats};
pub use qhd::{
    q_hypertree_decomp, q_hypertree_decomp_raw, QhdFailure, QhdOptions, QhdPlan, RawQhd,
};
pub use reuse::{recost_lambda, remap_tree, tree_cost, RecostOutcome};
pub use search::{
    cost_k_decomp, cost_k_decomp_instrumented, cost_k_decomp_with_cost, det_k_decomp,
    exists_decomposition, hypertree_width, SearchOptions, SearchStats,
};
pub use treedecomp::{to_hypertree, tree_decomposition, EliminationHeuristic, TreeDecomposition};
