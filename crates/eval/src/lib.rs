//! Query evaluation algorithms for the ICDE 2007 reproduction.
//!
//! - [`naive`]: full left-deep join pipelines, no semijoin reduction (the
//!   execution model of the quantitative baselines and of the fallback
//!   ladder's last rung);
//! - [`qeval`]: the q-hypertree evaluator — per-vertex joins, one
//!   bottom-up pass with support-child ordering, final projection
//!   (Section 4);
//! - [`factorized`]: the q-hypertree evaluator's aggregate front —
//!   aggregates finalized from the factorized cover's answer counts,
//!   without materializing the join.
//!
//! All of them run on the engine's columnar kernels (`htqo_engine::cops`):
//! one executor under every plan.

#![warn(missing_docs)]

pub mod factorized;
pub mod naive;
pub mod qeval;

pub use factorized::{evaluate_qhd_query_traced, FactorizedTrace};
pub use naive::{evaluate_join_order, evaluate_naive};
pub use qeval::{
    evaluate_qhd, evaluate_qhd_query, evaluate_qhd_query_with, evaluate_qhd_with, ExecOptions,
};
