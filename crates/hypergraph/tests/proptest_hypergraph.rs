//! Property tests for the structural substrate.

use htqo_hypergraph::{acyclic, components, Hypergraph, VarSet};
use proptest::prelude::*;

/// Strategy: a random hypergraph with up to `max_edges` edges over up to
/// `max_vars` variables (every edge non-empty).
fn arb_hypergraph(max_vars: usize, max_edges: usize) -> impl Strategy<Value = Hypergraph> {
    prop::collection::vec(
        prop::collection::btree_set(0..max_vars, 1..=3.min(max_vars)),
        1..=max_edges,
    )
    .prop_map(|edge_sets| {
        let mut b = Hypergraph::builder();
        for (i, vars) in edge_sets.iter().enumerate() {
            let names: Vec<String> = vars.iter().map(|v| format!("V{v}")).collect();
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            b.edge(&format!("e{i}"), &refs);
        }
        b.build()
    })
}

/// Strategy: a guaranteed-acyclic hypergraph built as a random tree of
/// atoms, where each child shares exactly one variable with its parent.
fn arb_acyclic(max_edges: usize) -> impl Strategy<Value = Hypergraph> {
    prop::collection::vec(0usize..usize::MAX, 1..=max_edges).prop_map(|seeds| {
        let mut b = Hypergraph::builder();
        // Edge i spans {Si, Si+1-ish}: chain with random branching.
        // Edge 0: {X0, X1}. Edge i>0 attaches to parent p = seed % i and
        // shares variable Xp_out.
        let n = seeds.len();
        let mut own_var: Vec<String> = Vec::with_capacity(n);
        for (i, seed) in seeds.iter().enumerate() {
            let mine = format!("X{i}");
            if i == 0 {
                b.edge("e0", &[mine.as_str(), "X_root"]);
            } else {
                let parent = seed % i;
                let shared = own_var[parent].clone();
                b.edge(&format!("e{i}"), &[mine.as_str(), shared.as_str()]);
            }
            own_var.push(mine);
        }
        b.build()
    })
}

proptest! {
    /// GYO on a tree-shaped hypergraph always succeeds and its forest is
    /// a valid join forest.
    #[test]
    fn gyo_accepts_tree_shaped(h in arb_acyclic(10)) {
        let red = acyclic::gyo(&h).expect("tree-shaped hypergraphs are acyclic");
        prop_assert!(red.forest.is_valid_for(&h));
        prop_assert_eq!(red.elimination_order.len(), h.num_edges());
    }

    /// Whenever GYO succeeds on an arbitrary hypergraph, the produced
    /// forest passes independent join-forest validation.
    #[test]
    fn gyo_forest_is_always_valid(h in arb_hypergraph(8, 8)) {
        if let Some(red) = acyclic::gyo(&h) {
            prop_assert!(red.forest.is_valid_for(&h));
        }
    }

    /// [W]-components partition the non-covered candidate edges.
    #[test]
    fn components_partition(h in arb_hypergraph(8, 8), sep_bits in prop::collection::vec(any::<bool>(), 8)) {
        let sep: VarSet = h
            .var_ids()
            .filter(|v| sep_bits.get(v.index()).copied().unwrap_or(false))
            .collect();
        let comps = components(&h, &h.all_edges(), &sep);
        // Pairwise disjoint.
        for i in 0..comps.len() {
            for j in (i + 1)..comps.len() {
                prop_assert!(comps[i].is_disjoint(&comps[j]));
            }
        }
        // Union = all edges not fully covered by sep.
        let mut union = htqo_hypergraph::EdgeSet::new();
        for c in &comps {
            prop_assert!(!c.is_empty());
            union.union_with(c);
        }
        let expected: htqo_hypergraph::EdgeSet = h
            .edge_ids()
            .filter(|&e| !h.edge_vars(e).is_subset(&sep))
            .collect();
        prop_assert_eq!(union, expected);
    }

    /// Components really are maximally connected: any two edges in
    /// different components share no variable outside the separator.
    #[test]
    fn components_are_separated(h in arb_hypergraph(8, 8), sep_bits in prop::collection::vec(any::<bool>(), 8)) {
        let sep: VarSet = h
            .var_ids()
            .filter(|v| sep_bits.get(v.index()).copied().unwrap_or(false))
            .collect();
        let comps = components(&h, &h.all_edges(), &sep);
        for i in 0..comps.len() {
            for j in (i + 1)..comps.len() {
                for e1 in comps[i].iter() {
                    for e2 in comps[j].iter() {
                        let shared = h.edge_vars(e1).intersection(h.edge_vars(e2));
                        prop_assert!(shared.difference(&sep).is_empty());
                    }
                }
            }
        }
    }
}
