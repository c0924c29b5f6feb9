//! Query evaluation algorithms for the ICDE 2007 reproduction.
//!
//! - [`naive`]: full left-deep join pipelines, no semijoin reduction (the
//!   execution model of the quantitative baselines and of the fallback
//!   ladder's last rung);
//! - [`qeval`]: the q-hypertree evaluator — per-vertex joins, one
//!   bottom-up pass with support-child ordering, final projection
//!   (Section 4); for an aggregate query the same pass counts each row's
//!   join rows, so aggregates see SQL's bag.
//!
//! All of them run on the engine's columnar kernels (`htqo_engine::cops`):
//! one executor under every plan.

#![warn(missing_docs)]

pub mod naive;
pub mod qeval;

pub use naive::{evaluate_join_order, evaluate_naive, join_rows};
pub use qeval::{evaluate_qhd, evaluate_qhd_query};
#[doc(hidden)]
pub use qeval::{evaluate_qhd_query_traced, evaluate_qhd_with, ExecOptions, FactorizedTrace};
