//! Join forests and join trees (Section 2 of the paper).
//!
//! A join forest for `H(Q)` has the hyperedges of `H(Q)` as nodes; whenever
//! two hyperedges share variables they must live in the same tree, and every
//! shared variable must occur in every node on the (unique) path between
//! them. Equivalently: for each variable, the nodes containing it induce a
//! connected subtree.

use crate::hypergraph::Hypergraph;
use crate::ids::EdgeId;

/// A forest over the hyperedges of a hypergraph.
///
/// `parent[e] == None` marks `e` as the root of its tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinForest {
    parent: Vec<Option<EdgeId>>,
}

impl JoinForest {
    /// Creates a forest of isolated nodes, one per hyperedge of `h`.
    pub fn isolated(h: &Hypergraph) -> Self {
        JoinForest {
            parent: vec![None; h.num_edges()],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the forest has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Sets `child`'s parent to `parent`.
    ///
    /// # Panics
    /// Panics if this creates a cycle.
    pub fn attach(&mut self, child: EdgeId, parent: EdgeId) {
        assert_ne!(child, parent, "cannot attach a node to itself");
        // Walk up from `parent` to make sure `child` is not an ancestor.
        let mut cur = Some(parent);
        while let Some(p) = cur {
            assert_ne!(p, child, "attach would create a cycle");
            cur = self.parent[p.index()];
        }
        self.parent[child.index()] = Some(parent);
    }

    /// The parent of `e`, or `None` if `e` is a root.
    pub fn parent(&self, e: EdgeId) -> Option<EdgeId> {
        self.parent[e.index()]
    }

    /// All root nodes.
    pub fn roots(&self) -> Vec<EdgeId> {
        self.parent
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| EdgeId(i as u32))
            .collect()
    }

    /// True if the forest is a single tree (exactly one root, or empty).
    pub fn is_tree(&self) -> bool {
        self.roots().len() <= 1
    }

    /// Undirected adjacency list of the forest.
    pub fn adjacency(&self) -> Vec<Vec<EdgeId>> {
        let mut adj = vec![Vec::new(); self.parent.len()];
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                adj[i].push(*p);
                adj[p.index()].push(EdgeId(i as u32));
            }
        }
        adj
    }

    /// Checks the join-forest conditions against `h`.
    ///
    /// For each variable of `h`, the nodes whose hyperedge contains that
    /// variable must induce a connected subgraph of the forest. This single
    /// check subsumes both conditions of the paper's definition: if two
    /// edges sharing a variable were in different trees, the induced
    /// subgraph would be disconnected.
    pub fn is_valid_for(&self, h: &Hypergraph) -> bool {
        assert_eq!(self.len(), h.num_edges(), "forest/hypergraph size mismatch");
        let adj = self.adjacency();
        for v in h.var_ids() {
            let holders = h.edges_with_var(v);
            let Some(start) = holders.first() else {
                continue;
            };
            // BFS restricted to nodes whose edge contains `v`.
            let mut seen = vec![false; self.len()];
            let mut queue = vec![start];
            seen[start.index()] = true;
            let mut count = 1usize;
            while let Some(n) = queue.pop() {
                for &m in &adj[n.index()] {
                    if !seen[m.index()] && holders.contains(m) {
                        seen[m.index()] = true;
                        count += 1;
                        queue.push(m);
                    }
                }
            }
            if count != holders.len() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::Hypergraph;

    fn path3() -> Hypergraph {
        // r(X,Y) - s(Y,Z) - t(Z,W): an acyclic "line" query.
        let mut b = Hypergraph::builder();
        b.edge("r", &["X", "Y"]);
        b.edge("s", &["Y", "Z"]);
        b.edge("t", &["Z", "W"]);
        b.build()
    }

    #[test]
    fn valid_join_tree_for_path() {
        let h = path3();
        let mut f = JoinForest::isolated(&h);
        f.attach(EdgeId(0), EdgeId(1)); // r under s
        f.attach(EdgeId(2), EdgeId(1)); // t under s
        assert!(f.is_valid_for(&h));
        assert!(f.is_tree());
        assert_eq!(f.roots(), vec![EdgeId(1)]);
        assert_eq!(f.parent(EdgeId(0)), Some(EdgeId(1)));
        assert_eq!(f.parent(EdgeId(2)), Some(EdgeId(1)));
    }

    #[test]
    fn invalid_tree_breaks_connectedness() {
        let h = path3();
        let mut f = JoinForest::isolated(&h);
        // Chain r - t - s: variable Y occurs in r and s but not in t,
        // so the Y-holders {r, s} are not connected through the path.
        f.attach(EdgeId(0), EdgeId(2));
        f.attach(EdgeId(2), EdgeId(1));
        assert!(!f.is_valid_for(&h));
    }

    #[test]
    fn disconnected_forest_with_shared_var_is_invalid() {
        let h = path3();
        // All nodes isolated: Y occurs in r and s → invalid.
        let f = JoinForest::isolated(&h);
        assert!(!f.is_valid_for(&h));
    }

    #[test]
    fn forest_of_disjoint_edges_is_valid() {
        let mut b = Hypergraph::builder();
        b.edge("p", &["A", "B"]);
        b.edge("q", &["C", "D"]);
        let h = b.build();
        let f = JoinForest::isolated(&h);
        assert!(f.is_valid_for(&h));
        assert!(!f.is_tree());
        assert_eq!(f.roots().len(), 2);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn attach_detects_cycles() {
        let h = path3();
        let mut f = JoinForest::isolated(&h);
        f.attach(EdgeId(0), EdgeId(1));
        f.attach(EdgeId(1), EdgeId(0));
    }
}
