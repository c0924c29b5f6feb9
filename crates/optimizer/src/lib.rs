//! Query optimizers for the ICDE 2007 reproduction (Sections 5–6):
//!
//! - [`dp`]: System-R dynamic programming over left-deep join orders (the
//!   quantitative planner of the *CommDB* stand-in);
//! - [`geqo`]: a genetic join-order optimizer modelled on PostgreSQL's
//!   GEQO;
//! - [`dbms`]: the simulated DBMSs the paper compares against, with
//!   with/without-statistics modes and DNF (budget/timeout) reporting;
//! - [`hybrid`]: the paper's hybrid structural+quantitative optimizer
//!   (cost-k-decomp + q-hypertree evaluation);
//! - [`views`]: the *Query Manipulator* — rewriting a decomposition into
//!   SQL views for stand-alone deployment on any DBMS.

#![warn(missing_docs)]

pub mod bushy;
pub mod bushy_exec;
pub mod dbms;
pub mod dp;
pub mod explain;
pub mod geqo;
pub mod hybrid;
pub mod lru;
pub mod nested;
pub mod views;

pub use bushy::{dp_bushy, JoinTree};
pub use bushy_exec::evaluate_join_tree;
pub use dbms::{
    DbmsSim, FallbackAttempt, PlanCacheStatus, PlannerKind, QueryOutcome, Rung, SqlError,
};
pub use dp::{dp_join_order, greedy_join_order, order_cost};
pub use explain::{explain_join_order, explain_qhd};
pub use geqo::{geqo_join_order, GeqoConfig};
pub use hybrid::{CompiledQuery, HybridOptimizer, PlanCacheStats, RetryPolicy};
pub use lru::ShardedLru;
pub use nested::{flatten_subqueries, NestedError};
pub use views::{execute_views, rewrite_to_views, SqlViews, ViewDef};

/// Estimates the answer cardinality of `q` from gathered statistics:
/// the textbook join estimate over all atoms, tightened by the distinct
/// projection the query performs — aggregate queries return one row per
/// group (`∏ V(g)` over `GROUP BY` variables, 1 when grouping is empty),
/// plain queries one row per distinct binding of the visible output
/// variables, and Boolean queries at most one row.
///
/// Returns `None` when no statistics are available.
pub fn estimate_answer_rows(
    q: &htqo_cq::ConjunctiveQuery,
    stats: Option<&htqo_stats::DbStats>,
) -> Option<f64> {
    let stats = stats?;
    let profiles = htqo_stats::QueryProfiles::new(stats, q);
    let mut atoms = q.atom_ids().map(|a| profiles.atom(a));
    let mut joined = atoms.next()?.clone();
    for p in atoms {
        joined = htqo_stats::join_profiles(&joined, p);
    }
    let distinct_bound = |vars: &[String]| -> f64 {
        vars.iter()
            .map(|v| profiles.distinct_by_name(&joined, v))
            .product::<f64>()
            .min(joined.card)
            .max(1.0)
    };
    let est = if q.has_aggregates() {
        if q.group_by.is_empty() {
            1.0
        } else {
            distinct_bound(&q.group_by)
        }
    } else {
        // Answers are distinct over out(Q).
        let visible = q.out_vars();
        if visible.is_empty() {
            joined.card.min(1.0)
        } else {
            distinct_bound(&visible)
        }
    };
    Some(est)
}
