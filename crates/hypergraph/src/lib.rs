//! Hypergraphs and structural machinery for query decomposition.
//!
//! This crate provides the structural substrate of the reproduction of
//! *"Hypertree Decompositions for Query Optimization"* (Ghionna, Granata,
//! Greco, Scarcello — ICDE 2007):
//!
//! - [`Hypergraph`]: the query hypergraph `H(Q)` (one vertex per variable,
//!   one hyperedge per atom);
//! - [`acyclic::gyo`]: α-acyclicity testing via GYO reduction, producing a
//!   [`JoinForest`] witness;
//! - [`components()`]: separator-relative `[W]`-components, the recursion
//!   skeleton of every hypertree-decomposition algorithm;
//! - [`PrimalGraph`]: the Gaifman graph, for diagnostics and heuristics.
//!
//! # Example
//!
//! ```
//! use htqo_hypergraph::{Hypergraph, acyclic};
//!
//! let mut b = Hypergraph::builder();
//! b.edge("r", &["X", "Y"]);
//! b.edge("s", &["Y", "Z"]);
//! b.edge("t", &["Z", "X"]);
//! let triangle = b.build();
//! assert!(!acyclic::is_acyclic(&triangle));
//! ```

#![warn(missing_docs)]

pub mod acyclic;
pub mod bitset;
pub mod canon;
pub mod components;
pub mod fxhash;
pub mod hypergraph;
pub mod ids;
pub mod jointree;
pub mod primal;

pub use bitset::BitSet;
pub use canon::{canonical_form, CanonicalForm};
pub use components::components;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hypergraph::{Hyperedge, Hypergraph, HypergraphBuilder};
pub use ids::{EdgeId, EdgeSet, Var, VarSet};
pub use jointree::JoinForest;
pub use primal::PrimalGraph;
