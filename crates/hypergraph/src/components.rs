//! Separator-relative connected components of hyperedges.
//!
//! Given a set `W` of *separator* variables, two hyperedges are
//! `[W]`-connected when they share a variable outside `W` (transitively).
//! Decomposition algorithms recurse on the `[χ(p)]`-components left below a
//! decomposition vertex `p`; edges entirely covered by `W` vanish.

use crate::hypergraph::Hypergraph;
use crate::ids::{EdgeId, EdgeSet, VarSet};

/// Splits `candidates` into its `[sep]`-components.
///
/// Edges all of whose variables lie in `sep` belong to no component (they
/// are already fully covered by the separator). Components are returned in
/// a deterministic order (by smallest contained edge id).
pub fn components(h: &Hypergraph, candidates: &EdgeSet, sep: &VarSet) -> Vec<EdgeSet> {
    let mut remaining: Vec<EdgeId> = candidates
        .iter()
        .filter(|&e| !h.edge_vars(e).is_subset(sep))
        .collect();
    let mut out = Vec::new();

    while let Some(&start) = remaining.first() {
        let mut comp = EdgeSet::new();
        let mut frontier_vars = h.edge_vars(start).difference(sep);
        comp.insert(start);
        remaining.retain(|&e| e != start);
        loop {
            let mut grew = false;
            remaining.retain(|&e| {
                if h.edge_vars(e).intersects(&frontier_vars) {
                    comp.insert(e);
                    frontier_vars.union_with(&h.edge_vars(e).difference(sep));
                    grew = true;
                    false
                } else {
                    true
                }
            });
            if !grew {
                break;
            }
        }
        out.push(comp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Var;

    fn build(edges: &[(&str, &[&str])]) -> Hypergraph {
        let mut b = Hypergraph::builder();
        for (name, vars) in edges {
            b.edge(name, vars);
        }
        b.build()
    }

    fn vs(h: &Hypergraph, names: &[&str]) -> VarSet {
        names.iter().map(|n| h.var_by_name(n).unwrap()).collect()
    }

    #[test]
    fn empty_separator_gives_connected_components() {
        let h = build(&[("a", &["X", "Y"]), ("b", &["Y", "Z"]), ("c", &["P", "Q"])]);
        let comps = components(&h, &h.all_edges(), &VarSet::new());
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 2);
        assert_eq!(comps[1].len(), 1);
    }

    #[test]
    fn separator_splits_line() {
        // a(X,Y) - b(Y,Z) - c(Z,W); separating on {Z} splits {a,b} | {c}.
        let h = build(&[("a", &["X", "Y"]), ("b", &["Y", "Z"]), ("c", &["Z", "W"])]);
        let sep = vs(&h, &["Z"]);
        let comps = components(&h, &h.all_edges(), &sep);
        assert_eq!(comps.len(), 2);
        let names: Vec<Vec<&str>> = comps
            .iter()
            .map(|c| c.iter().map(|e| h.edge_name(e)).collect())
            .collect();
        assert!(names.contains(&vec!["a", "b"]));
        assert!(names.contains(&vec!["c"]));
    }

    #[test]
    fn covered_edges_vanish() {
        let h = build(&[("a", &["X", "Y"]), ("b", &["Y", "Z"])]);
        let sep = vs(&h, &["X", "Y"]);
        let comps = components(&h, &h.all_edges(), &sep);
        // `a` is fully covered; only `b` remains.
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 1);
        assert!(comps[0].contains(h.edge_by_name("b").unwrap()));
    }

    #[test]
    fn full_separator_gives_no_components() {
        let h = build(&[("a", &["X", "Y"]), ("b", &["Y", "Z"])]);
        let comps = components(&h, &h.all_edges(), &h.all_vars());
        assert!(comps.is_empty());
    }

    #[test]
    fn candidates_restrict_the_universe() {
        let h = build(&[("a", &["X", "Y"]), ("b", &["Y", "Z"]), ("c", &["Z", "W"])]);
        let mut cand = EdgeSet::new();
        cand.insert(h.edge_by_name("a").unwrap());
        cand.insert(h.edge_by_name("c").unwrap());
        let comps = components(&h, &cand, &VarSet::new());
        // Without `b` in the universe, `a` and `c` are disconnected.
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn triangle_with_vertex_separator() {
        let h = build(&[("r", &["X", "Y"]), ("s", &["Y", "Z"]), ("t", &["Z", "X"])]);
        // Separating on {X} leaves r,s,t all connected through Y and Z.
        let comps = components(&h, &h.all_edges(), &vs(&h, &["X"]));
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
        // Separating on {X, Z} isolates r and s into one component (via Y).
        let comps = components(&h, &h.all_edges(), &vs(&h, &["X", "Z"]));
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 2);
        assert!(!comps[0].contains(h.edge_by_name("t").unwrap()));
        let _ = Var(0); // silence unused import lint in some cfgs
    }
}
