//! Cost abstraction for weighted (cost-based) decomposition search.
//!
//! The paper's `cost-k-decomp` evaluates candidate decompositions with a
//! cost model over database statistics (following the PODS'04 weighted
//! hypertree decompositions). The decomposition crate stays independent of
//! the statistics subsystem through this trait; `htqo-stats` provides the
//! quantitative implementation, and [`StructuralCost`] is the purely
//! structural fallback the paper uses when no statistics are available.

use htqo_hypergraph::{EdgeSet, Hypergraph, VarSet};

/// Cost model for one decomposition vertex.
///
/// The total cost of a decomposition is the **sum of its vertex costs** —
/// a tree-aggregation-monotone function, which is what makes the dynamic
/// program over `(component, connector)` subproblems exact.
pub trait DecompCost {
    /// Estimated cost of materializing vertex `p`: joining the relations of
    /// `λ(p) ∪ assigned(p)` and projecting onto `χ(p)`.
    fn vertex_cost(
        &self,
        h: &Hypergraph,
        lambda: &EdgeSet,
        assigned: &EdgeSet,
        chi: &VarSet,
    ) -> f64;

    /// An *admissible* lower bound on [`DecompCost::vertex_cost`] over
    /// every possible vertex of `h`: no vertex the search can build may
    /// cost less. The branch-and-bound search charges this bound once per
    /// still-undecomposed component when deciding whether a partial
    /// solution can still beat the incumbent, so an over-estimate here
    /// would prune optimal solutions. The default (`0.0`) is always
    /// admissible and merely disables the component term of the bound.
    fn min_vertex_cost(&self, _h: &Hypergraph) -> f64 {
        0.0
    }
}

/// Purely structural cost — the "no statistics available" mode of the
/// paper's optimizer.
///
/// A vertex costs `100^|λ|` plus one unit per join among its *enforcing*
/// atoms (the assigned ones) plus a small half-unit per *bounding* atom
/// (λ atoms enforced elsewhere). Because a query hypergraph never has more
/// than a few dozen edges, a single vertex of width `w+1` always outweighs
/// every possible number of width-`w` vertices, so minimizing the *sum*
/// lexicographically minimizes the decomposition width first, then the
/// number of wide vertices, then the join work.
///
/// Bounding atoms are cheap on purpose: Procedure Optimize (Figure 4 of
/// the paper) prunes them whenever a child bounds the same variables, so
/// the decompositions the paper's pipeline actually evaluates carry them
/// for connectedness without paying their joins. This mirrors the minimal
/// normal-form trees of the paper's Figure 3 (`HD₁`), whose redundant
/// atoms Optimize then removes (`HD₁′`).
#[derive(Clone, Copy, Debug, Default)]
pub struct StructuralCost;

impl DecompCost for StructuralCost {
    /// Every vertex has `|λ| ≥ 1`, so it costs at least `100¹` (the other
    /// terms are non-negative).
    fn min_vertex_cost(&self, _h: &Hypergraph) -> f64 {
        100.0
    }

    fn vertex_cost(
        &self,
        h: &Hypergraph,
        lambda: &EdgeSet,
        assigned: &EdgeSet,
        _chi: &VarSet,
    ) -> f64 {
        let enforcing = assigned.len();
        let bounding = lambda.difference(assigned).len();
        // Joining enforcing atoms that share no variables forces a cross
        // product in the evaluator's step P′ — without sizes we can still
        // see (and heavily penalize) that structural hazard.
        let crosses = forced_cross_products(h, assigned);
        100f64.powi(lambda.len() as i32)
            + enforcing.saturating_sub(1) as f64
            + 0.5 * bounding as f64
            + 25.0 * crosses as f64
    }
}

/// Number of cross products a connectivity-greedy join order over `atoms`
/// cannot avoid (i.e. the number of variable-connected components minus
/// one).
fn forced_cross_products(h: &Hypergraph, atoms: &EdgeSet) -> usize {
    let mut remaining: Vec<_> = atoms.iter().collect();
    if remaining.len() <= 1 {
        return 0;
    }
    let mut components = 0usize;
    while let Some(first) = remaining.pop() {
        components += 1;
        let mut vars = h.edge_vars(first).clone();
        loop {
            let before = remaining.len();
            remaining.retain(|&e| {
                if h.edge_vars(e).intersects(&vars) {
                    vars.union_with(h.edge_vars(e));
                    false
                } else {
                    true
                }
            });
            if remaining.len() == before {
                break;
            }
        }
    }
    components - 1
}

impl<T: DecompCost + ?Sized> DecompCost for &T {
    fn vertex_cost(
        &self,
        h: &Hypergraph,
        lambda: &EdgeSet,
        assigned: &EdgeSet,
        chi: &VarSet,
    ) -> f64 {
        (**self).vertex_cost(h, lambda, assigned, chi)
    }

    fn min_vertex_cost(&self, h: &Hypergraph) -> f64 {
        (**self).min_vertex_cost(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_hypergraph::EdgeId;

    #[test]
    fn structural_cost_counts_joins() {
        let mut b = Hypergraph::builder();
        b.edge("a", &["X"]);
        b.edge("b", &["X", "Y"]);
        let h = b.build();
        let lambda: EdgeSet = [EdgeId(0), EdgeId(1)].into_iter().collect();
        let assigned: EdgeSet = [EdgeId(0)].into_iter().collect();
        let c = StructuralCost.vertex_cost(&h, &lambda, &assigned, &h.all_vars());
        // Width 2 → 100², one enforcing atom (no join), one bounding atom.
        assert_eq!(c, 10_000.5);
        let single: EdgeSet = [EdgeId(0)].into_iter().collect();
        assert_eq!(
            StructuralCost.vertex_cost(&h, &single, &single, &h.all_vars()),
            100.0
        );
        // One width-3 vertex outweighs many width-2 vertices.
        let wide: EdgeSet = [EdgeId(0), EdgeId(1)].into_iter().collect();
        let w2 = StructuralCost.vertex_cost(&h, &wide, &wide, &h.all_vars());
        assert!(30.0 * w2 < 100f64.powi(3));
    }
}
