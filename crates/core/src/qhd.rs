//! **Algorithm q-HypertreeDecomp** (Figure 4 of the paper): computes a
//! *good* q-hypertree decomposition of a conjunctive query.
//!
//! 1. Compute a minimal (cost-based) normal-form hypertree decomposition of
//!    `H(Q)` of width ≤ k whose root χ covers `out(Q)` (Conditions 1–3 of
//!    Definition 2). If none exists, return Failure.
//! 2. Run [`optimize`] to prune λ atoms bounded by children (feature (b)
//!    of q-hypertree decompositions), recording the support-child ordering
//!    constraints for the evaluator.

use crate::cost::DecompCost;
use crate::hypertree::Hypertree;
use crate::optimize::{optimize, OptimizeStats};
use crate::search::{cost_k_decomp_instrumented, SearchOptions, SearchStats};
use crate::validate;
use htqo_cq::{ConjunctiveQuery, CqHypergraph};
use htqo_hypergraph::VarSet;
use std::fmt;

/// Failure: no width-≤k decomposition whose root covers `out(Q)` exists
/// (the "Failure" branch of the paper's algorithm, exactly characterized by
/// Theorem 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QhdFailure {
    /// The width bound that was attempted.
    pub max_width: usize,
}

impl fmt::Display for QhdFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no q-hypertree decomposition of width ≤ {} covers the output variables",
            self.max_width
        )
    }
}

impl std::error::Error for QhdFailure {}

/// A good q-hypertree decomposition of a query, ready for evaluation.
#[derive(Clone, Debug)]
pub struct QhdPlan {
    /// The decomposition tree (rooted at the output-covering vertex),
    /// after `Optimize`.
    pub tree: Hypertree,
    /// The query hypergraph and variable interning used to build it.
    pub cq_hypergraph: CqHypergraph,
    /// `out(Q)` as a variable set of the hypergraph.
    pub out_vars: VarSet,
    /// Estimated cost of the chosen decomposition (before `Optimize`).
    pub estimated_cost: f64,
    /// What `Optimize` pruned.
    pub optimize_stats: OptimizeStats,
    /// Instrumentation of the cost-k-decomp search.
    pub search_stats: SearchStats,
}

/// Options for [`q_hypertree_decomp`].
#[derive(Clone, Debug)]
pub struct QhdOptions {
    /// Width bound `k` (the paper: "typically k = 4 is enough"). `0` is
    /// [`QhdFailure`] for every query with an atom.
    pub max_width: usize,
    /// Whether to run Procedure Optimize (Figure 10 of the paper ablates
    /// this).
    pub run_optimize: bool,
}

impl Default for QhdOptions {
    fn default() -> Self {
        QhdOptions {
            max_width: 4,
            run_optimize: true,
        }
    }
}

/// A decomposition fresh out of the `cost-k-decomp` search, *before*
/// Procedure `Optimize` runs.
///
/// The pre-`Optimize` tree is the form worth caching across isomorphic
/// queries: it still satisfies `χ(p) ⊆ var(λ(p))` at every vertex, so its
/// λ (cover) choices can be re-costed against a different statistics
/// snapshot (see [`crate::reuse`]) before [`RawQhd::finish`] specializes
/// it for evaluation. `Optimize` prunes λ atoms bounded by children,
/// which destroys exactly the invariant re-costing needs.
#[derive(Clone, Debug)]
pub struct RawQhd {
    /// The decomposition tree before `Optimize`.
    pub tree: Hypertree,
    /// The query hypergraph and variable interning used to build it.
    pub cq_hypergraph: CqHypergraph,
    /// `out(Q)` as a variable set of the hypergraph.
    pub out_vars: VarSet,
    /// Estimated cost of the chosen decomposition.
    pub estimated_cost: f64,
    /// Instrumentation of the cost-k-decomp search.
    pub search_stats: SearchStats,
}

impl RawQhd {
    /// Runs Procedure `Optimize` (when enabled) and produces the
    /// evaluation-ready plan. The second stage of the paper's Algorithm
    /// q-HypertreeDecomp.
    pub fn finish(self, options: &QhdOptions) -> QhdPlan {
        let RawQhd {
            mut tree,
            cq_hypergraph,
            out_vars,
            estimated_cost,
            search_stats,
        } = self;
        let optimize_stats = if options.run_optimize {
            optimize(&cq_hypergraph.hypergraph, &mut tree)
        } else {
            OptimizeStats::default()
        };
        debug_assert!(validate::check_qhd(&cq_hypergraph.hypergraph, &tree, &out_vars).is_ok());
        QhdPlan {
            tree,
            cq_hypergraph,
            out_vars,
            estimated_cost,
            optimize_stats,
            search_stats,
        }
    }
}

/// The search stage of [`q_hypertree_decomp`]: a minimal cost-based
/// normal-form decomposition whose root covers `out(Q)`, before
/// `Optimize`. Exposed separately so the optimizer's plan cache can store
/// the reusable pre-`Optimize` form.
pub fn q_hypertree_decomp_raw(
    q: &ConjunctiveQuery,
    options: &QhdOptions,
    cost: &dyn DecompCost,
) -> Result<RawQhd, QhdFailure> {
    let ch = q.hypergraph();
    let out_vars = ch.out_var_set(q);
    let opts = SearchOptions::width_with_root_cover(options.max_width, out_vars.clone());
    let Some((estimated_cost, tree, search_stats)) =
        cost_k_decomp_instrumented(&ch.hypergraph, &opts, cost)
    else {
        return Err(QhdFailure {
            max_width: options.max_width,
        });
    };
    Ok(RawQhd {
        tree,
        cq_hypergraph: ch,
        out_vars,
        estimated_cost,
        search_stats,
    })
}

/// Computes a good q-hypertree decomposition of `q`, or Failure.
///
/// `cost` supplies the vertex cost model: [`crate::cost::StructuralCost`]
/// for the purely structural mode, or the statistics-driven model from
/// `htqo-stats` for the hybrid optimizer.
pub fn q_hypertree_decomp(
    q: &ConjunctiveQuery,
    options: &QhdOptions,
    cost: &dyn DecompCost,
) -> Result<QhdPlan, QhdFailure> {
    q_hypertree_decomp_raw(q, options, cost).map(|raw| raw.finish(options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StructuralCost;
    use htqo_cq::CqBuilder;

    /// The paper's Example 4 query Q1 (modulo the GROUP BY columns):
    /// an acyclic chain of joins with outputs at the two far ends.
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
            .atom_vars("h", &["Z", "ZZ"])
            .out_var("A")
            .out_var("S")
            .out_var("X")
            .build()
    }

    #[test]
    fn acyclic_query_with_far_outputs_needs_width_2() {
        // Example 4: hw(H(Q1)) = 1, but Condition 2 forces width 2.
        let q = q1();
        let ch = q.hypergraph();
        assert_eq!(crate::search::hypertree_width(&ch.hypergraph), 1);
        let fail = q_hypertree_decomp(
            &q,
            &QhdOptions {
                max_width: 1,
                run_optimize: true,
            },
            &StructuralCost,
        );
        assert!(fail.is_err());
        let plan = q_hypertree_decomp(
            &q,
            &QhdOptions {
                max_width: 2,
                run_optimize: true,
            },
            &StructuralCost,
        )
        .unwrap();
        assert_eq!(plan.tree.width(), 2);
        // The root covers all output variables.
        assert!(plan
            .out_vars
            .is_subset(&plan.tree.node(plan.tree.root()).chi));
    }

    #[test]
    fn optimize_can_be_disabled() {
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
        assert_eq!(without.optimize_stats.removed_atoms, 0);
        // Optimize never increases join work.
        assert!(with.tree.join_work() <= without.tree.join_work());
    }

    #[test]
    fn failure_is_reported_for_impossible_bounds() {
        // Triangle with all three variables in the output: every vertex χ
        // in a width-1 decomposition has ≤ 2 variables.
        let q = CqBuilder::new()
            .atom_vars("r", &["X", "Y"])
            .atom_vars("s", &["Y", "Z"])
            .atom_vars("t", &["Z", "X"])
            .out_var("X")
            .out_var("Y")
            .out_var("Z")
            .build();
        let err = q_hypertree_decomp(
            &q,
            &QhdOptions {
                max_width: 1,
                run_optimize: true,
            },
            &StructuralCost,
        )
        .unwrap_err();
        assert_eq!(err.max_width, 1);
        assert!(err.to_string().contains("width"));
        // Width 2 suffices: two atoms cover all three variables.
        assert!(q_hypertree_decomp(
            &q,
            &QhdOptions {
                max_width: 2,
                run_optimize: true,
            },
            &StructuralCost,
        )
        .is_ok());
    }

    #[test]
    fn boolean_query_has_no_root_constraint() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X", "Y"])
            .atom_vars("s", &["Y", "Z"])
            .build(); // no output variables

        // Width 0 is Failure, reported as asked — not a silent width 1.
        let zero = QhdOptions {
            max_width: 0,
            ..QhdOptions::default()
        };
        assert_eq!(
            q_hypertree_decomp(&q, &zero, &StructuralCost).unwrap_err(),
            QhdFailure { max_width: 0 }
        );
        let plan = q_hypertree_decomp(
            &q,
            &QhdOptions {
                max_width: 1,
                run_optimize: true,
            },
            &StructuralCost,
        )
        .unwrap();
        assert!(plan.out_vars.is_empty());
        assert_eq!(plan.tree.width(), 1);
    }
}
