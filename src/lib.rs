//! # htqo — Hypertree Decompositions for Query Optimization
//!
//! A from-scratch Rust reproduction of *"Hypertree Decompositions for
//! Query Optimization"* (Ghionna, Granata, Greco, Scarcello — ICDE 2007):
//! **query-oriented hypertree decompositions** (q-HDs), the hybrid
//! structural + quantitative optimizer built on them, and every substrate
//! the paper's evaluation needs — an in-memory relational engine,
//! quantitative optimizer baselines, a TPC-H data generator, and the
//! synthetic workloads of Section 6.
//!
//! ## The pipeline (paper Sections 2–5)
//!
//! 1. **SQL → conjunctive query** ([`cq`]): the *Conjunctive Query
//!    Isolator* merges equality-linked attributes into variables and
//!    pushes constant predicates into per-atom filters.
//! 2. **CQ → hypergraph** ([`hypergraph`]): one vertex per variable, one
//!    hyperedge per atom.
//! 3. **Decomposition** ([`core`]): `cost-k-decomp` finds the
//!    minimum-cost normal-form hypertree decomposition of width ≤ k whose
//!    root covers `out(Q)` (Condition 2 of Definition 2); Procedure
//!    `Optimize` then prunes λ atoms bounded by children.
//! 4. **Evaluation** ([`eval`]): the q-hypertree evaluator — per-vertex
//!    joins, one bottom-up pass (support children first), final
//!    projection — then aggregates/ordering ([`engine`]).
//! 5. **Deployment** ([`optimizer`]): tight coupling (execute directly)
//!    or the stand-alone *Query Manipulator* that rewrites the plan as a
//!    stack of SQL views for any DBMS.
//!
//! ## Quick start
//!
//! ```
//! use htqo::prelude::*;
//!
//! // A tiny database: three binary relations forming a cyclic "chain".
//! let db = htqo_workloads::workload_db(&htqo_workloads::WorkloadSpec::new(3, 50, 10, 42));
//! let query = "SELECT p0.l FROM p0, p1, p2
//!              WHERE p0.r = p1.l AND p1.r = p2.l AND p2.r = p0.l";
//!
//! // The paper's hybrid optimizer with statistics:
//! let stats = htqo_stats::analyze(&db);
//! let optimizer = HybridOptimizer::with_stats(QhdOptions::default(), stats);
//! let outcome = optimizer.execute_sql(&db, query, Budget::unlimited()).unwrap();
//! let answer = outcome.result.unwrap();
//!
//! // Same answer as a classic quantitative optimizer:
//! let commdb = DbmsSim::commdb(None);
//! let baseline = commdb.execute_sql(&db, query, Budget::unlimited()).unwrap();
//! assert!(answer.set_eq(&baseline.result.unwrap()));
//! ```

#![warn(missing_docs)]

pub use htqo_core as core;
pub use htqo_cq as cq;
pub use htqo_engine as engine;
pub use htqo_eval as eval;
pub use htqo_hypergraph as hypergraph;
pub use htqo_optimizer as optimizer;
pub use htqo_service as service;
pub use htqo_stats as stats;
pub use htqo_tpch as tpch;
pub use htqo_workloads as workloads;

/// The most commonly used items, for `use htqo::prelude::*`.
pub mod prelude {
    pub use htqo_core::{
        hypertree_width, q_hypertree_decomp, QhdFailure, QhdOptions, QhdPlan, StructuralCost,
    };
    pub use htqo_cq::{isolate, parse_select, ConjunctiveQuery, CqBuilder, IsolatorOptions};
    pub use htqo_engine::{
        Budget, CancelToken, Database, EvalError, Relation, Schema, VRelation, Value,
    };
    pub use htqo_eval::{evaluate_naive, evaluate_qhd};
    pub use htqo_hypergraph::{acyclic, Hypergraph};
    pub use htqo_optimizer::{
        execute_views, rewrite_to_views, DbmsSim, HybridOptimizer, QueryOutcome, RetryPolicy, Rung,
    };
    pub use htqo_service::{QueryService, ServiceConfig, ServiceError, Session};
    pub use htqo_stats::{analyze, DbStats, StatsDecompCost};
}
