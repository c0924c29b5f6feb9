//! Query evaluation algorithms for the ICDE 2007 reproduction.
//!
//! - [`naive`]: full left-deep join pipelines, no semijoin reduction (the
//!   execution model of the quantitative baselines and of the fallback
//!   ladder's last rung);
//! - [`yannakakis`]: the classic three-pass algorithm for acyclic queries
//!   (Section 3.2 of the paper);
//! - [`qeval`]: the q-hypertree evaluator — per-vertex joins, one
//!   bottom-up pass with support-child ordering, final projection
//!   (Section 4);
//! - [`factorized`]: cover-based factorized result fronts for both
//!   structural evaluators — aggregate pushdown and constant-delay answer
//!   enumeration without materializing the join.
//!
//! All of them run on the engine's columnar kernels (`htqo_engine::cops`):
//! one executor under every plan.

#![warn(missing_docs)]

pub mod factorized;
pub mod naive;
pub mod qeval;
pub mod yannakakis;

pub use factorized::{
    evaluate_qhd_query_traced, evaluate_yannakakis_query, evaluate_yannakakis_query_traced,
    evaluate_yannakakis_query_with, qhd_answer_rows, AnswerRows, FactorizedTrace,
};
pub use naive::{evaluate_join_order, evaluate_naive};
pub use qeval::{
    evaluate_qhd, evaluate_qhd_query, evaluate_qhd_query_with, evaluate_qhd_with, ExecOptions,
};
pub use yannakakis::{evaluate_yannakakis, evaluate_yannakakis_with};
