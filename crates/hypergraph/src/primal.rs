//! The primal (Gaifman) graph of a hypergraph: variables are nodes, and two
//! variables are adjacent when some hyperedge contains both.
//!
//! Used for diagnostics and for the simple treewidth-flavoured heuristics in
//! the optimizer; the decomposition algorithms themselves work directly on
//! the hypergraph.

use crate::hypergraph::Hypergraph;
use crate::ids::{Var, VarSet};

/// Adjacency-set representation of the primal graph.
#[derive(Clone, Debug)]
pub struct PrimalGraph {
    adj: Vec<VarSet>,
}

impl PrimalGraph {
    /// Builds the primal graph of `h`.
    pub fn of(h: &Hypergraph) -> Self {
        let mut adj = vec![VarSet::new(); h.num_vars()];
        for e in h.edge_ids() {
            let vars = h.edge_vars(e);
            for v in vars.iter() {
                adj[v.index()].union_with(vars);
            }
        }
        for (i, a) in adj.iter_mut().enumerate() {
            a.remove(Var(i as u32));
        }
        PrimalGraph { adj }
    }

    /// Number of nodes.
    pub fn num_vars(&self) -> usize {
        self.adj.len()
    }

    /// Neighbours of `v`.
    pub fn neighbours(&self, v: Var) -> &VarSet {
        &self.adj[v.index()]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: Var) -> usize {
        self.adj[v.index()].len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(edges: &[(&str, &[&str])]) -> Hypergraph {
        let mut b = Hypergraph::builder();
        for (name, vars) in edges {
            b.edge(name, vars);
        }
        b.build()
    }

    #[test]
    fn triangle_primal() {
        let h = build(&[("r", &["X", "Y"]), ("s", &["Y", "Z"]), ("t", &["Z", "X"])]);
        let g = PrimalGraph::of(&h);
        assert_eq!(g.num_vars(), 3);
        assert_eq!(g.num_edges(), 3);
        for v in h.var_ids() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn wide_edge_forms_clique() {
        let h = build(&[("big", &["A", "B", "C", "D"])]);
        let g = PrimalGraph::of(&h);
        assert_eq!(g.num_edges(), 6); // K4
    }

    #[test]
    fn no_self_loops() {
        let h = build(&[("a", &["X", "Y"])]);
        let g = PrimalGraph::of(&h);
        let x = h.var_by_name("X").unwrap();
        assert!(!g.neighbours(x).contains(x));
    }
}
