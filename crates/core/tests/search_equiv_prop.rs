//! Equivalence property tests for the branch-and-bound search engine.
//!
//! The engineered `cost-k-decomp` (mask-keyed memo, pruned separator
//! enumeration, admissible bound cuts) must return **exactly** the seed
//! exhaustive search's optimal cost — not approximately: every pruning
//! rule is argued exact, and these tests hold the implementation to that
//! argument on random hypergraphs, with and without a root-cover
//! constraint.
//!
//! The search body is generic over the set representation and runs on
//! `u64` masks up to 64 edges and 64 variables, on heap bit sets beyond.
//! The second half of this file holds the two instantiations to each
//! other — same cost bits, same tree node by node, same counters — on
//! random hypergraphs and at the 64/65 boundary.

use htqo_core::search::{baseline, det_k_decomp_instrumented, search_on_heap_sets};
use htqo_core::{
    cost_k_decomp_instrumented, validate, DecompCost, Hypertree, SearchOptions, SearchStats,
    StructuralCost,
};
use htqo_hypergraph::{EdgeSet, Hypergraph, VarSet};
use proptest::prelude::*;

fn arb_hypergraph(max_vars: usize, max_edges: usize) -> impl Strategy<Value = Hypergraph> {
    arb_edges(max_vars, max_edges, 1)
}

/// Random edges of `min_arity..=3` variables; the small variable universe
/// makes duplicate edges and disconnected graphs common, and
/// `min_arity = 0` adds variable-less edges.
fn arb_edges(
    max_vars: usize,
    max_edges: usize,
    min_arity: usize,
) -> impl Strategy<Value = Hypergraph> {
    prop::collection::vec(
        prop::collection::btree_set(0..max_vars, min_arity..=3.min(max_vars)),
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

/// A deliberately lumpy cost model with the *default* (zero)
/// `min_vertex_cost`: exercises the bound-cut code path where the
/// component term vanishes and only incumbent comparisons prune.
struct LumpyCost;

impl DecompCost for LumpyCost {
    fn vertex_cost(
        &self,
        _h: &Hypergraph,
        lambda: &EdgeSet,
        assigned: &EdgeSet,
        chi: &VarSet,
    ) -> f64 {
        // Non-monotone in |λ| on purpose; still strictly positive.
        7.0 * lambda.len() as f64 + 1.5 * chi.len() as f64 - (assigned.len() as f64).min(3.0) + 4.0
    }
}

fn check_equivalence(
    h: &Hypergraph,
    k: usize,
    root_cover: Option<VarSet>,
    cost: &dyn DecompCost,
) -> Result<(), TestCaseError> {
    let opts = match &root_cover {
        Some(out) => SearchOptions::width_with_root_cover(k, out.clone()),
        None => SearchOptions::width(k),
    };
    let seed = baseline::cost_k_decomp_instrumented(h, &opts, cost);
    let bnb = cost_k_decomp_instrumented(h, &opts, cost);

    match (&seed, &bnb) {
        (None, None) => {}
        (Some((c0, _, _)), Some((c1, t, _))) => {
            // Exact equality: both searches price identical trees by
            // summing vertex costs in the same deterministic order, so no
            // epsilon is needed.
            prop_assert_eq!(c0, c1, "seed vs B&B (k={})", k);
            prop_assert!(t.width() <= k);
            validate::check_edge_coverage(h, t).unwrap();
            validate::check_connectedness(h, t).unwrap();
            validate::check_assignment(h, t).unwrap();
            if let Some(out) = &root_cover {
                prop_assert!(out.is_subset(&t.node(t.root()).chi));
            }
        }
        _ => {
            return Err(TestCaseError::fail(format!(
                "feasibility disagreement at k={k}: seed={} B&B={}",
                seed.is_some(),
                bnb.is_some()
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// B&B matches the seed exhaustive search's optimal cost for k ∈ {2, 3, 4} under the structural cost model.
    #[test]
    fn bnb_matches_seed_structural(h in arb_hypergraph(6, 6)) {
        for k in 2..=4 {
            check_equivalence(&h, k, None, &StructuralCost)?;
        }
    }

    /// Same equivalence with a root-cover constraint (the q-HD Condition 2
    /// path), including infeasible instances where both searches must
    /// agree on Failure.
    #[test]
    fn bnb_matches_seed_with_root_cover(
        h in arb_hypergraph(6, 6),
        out_bits in prop::collection::vec(any::<bool>(), 6),
    ) {
        let out: VarSet = h
            .var_ids()
            .filter(|v| out_bits.get(v.index()).copied().unwrap_or(false))
            .collect();
        for k in 2..=4 {
            check_equivalence(&h, k, Some(out.clone()), &StructuralCost)?;
        }
    }

    /// A custom cost model that keeps the default zero `min_vertex_cost`:
    /// the admissible-bound component term is disabled and correctness
    /// must not depend on it.
    #[test]
    fn bnb_matches_seed_custom_cost(h in arb_hypergraph(6, 5)) {
        for k in 2..=3 {
            check_equivalence(&h, k, None, &LumpyCost)?;
        }
    }

    /// Pruning only removes work, never solutions: whenever the seed finds
    /// a decomposition, the B&B search examines at most as many separators.
    #[test]
    fn bnb_never_examines_more_separators(h in arb_hypergraph(6, 6)) {
        let opts = SearchOptions::width(3);
        let seed = baseline::cost_k_decomp_instrumented(&h, &opts, &StructuralCost);
        let bnb = cost_k_decomp_instrumented(&h, &opts, &StructuralCost);
        if let (Some((_, _, s0)), Some((_, _, s1))) = (seed, bnb) {
            prop_assert!(s1.separators_tried <= s0.separators_tried,
                "B&B tried {} separators, seed {}", s1.separators_tried, s0.separators_tried);
        }
    }
}

type Found = Option<(f64, Hypertree, SearchStats)>;

/// Same tree, node by node from the root: labels, assignment, child order.
fn same_tree(a: &Hypertree, b: &Hypertree) -> bool {
    let (pa, pb) = (a.preorder(), b.preorder());
    pa.len() == pb.len()
        && pa.iter().zip(&pb).all(|(&x, &y)| {
            let (x, y) = (a.node(x), b.node(y));
            x.lambda == y.lambda
                && x.chi == y.chi
                && x.assigned == y.assigned
                && x.children.len() == y.children.len()
        })
}

/// Two runs found the same thing: both Failure, or equal cost bits, equal
/// trees and equal counters.
fn same_outcome(what: &str, a: &Found, b: &Found) -> Result<(), TestCaseError> {
    match (a, b) {
        (None, None) => Ok(()),
        (Some((ca, ta, sa)), Some((cb, tb, sb))) => {
            prop_assert_eq!(ca.to_bits(), cb.to_bits(), "{}: cost", what);
            prop_assert!(
                same_tree(ta, tb),
                "{}: trees differ\n{:?}\n{:?}",
                what,
                ta,
                tb
            );
            prop_assert_eq!(sa, sb, "{}: counters", what);
            Ok(())
        }
        _ => Err(TestCaseError::fail(format!(
            "{what}: feasibility {} vs {}",
            a.is_some(),
            b.is_some()
        ))),
    }
}

/// word ≡ heap bit sets (tree, cost, counters) ≡ baseline (cost), in cost
/// mode; word ≡ heap in det-k mode.
fn check_instantiations(
    h: &Hypergraph,
    k: usize,
    root_cover: Option<VarSet>,
    cost: &dyn DecompCost,
    with_baseline: bool,
) -> Result<(), TestCaseError> {
    let opts = SearchOptions {
        max_width: k,
        root_cover,
    };
    let word = cost_k_decomp_instrumented(h, &opts, cost);
    let heap = search_on_heap_sets(h, &opts, cost, false);
    same_outcome("word vs heap", &word, &heap)?;
    if with_baseline {
        let seed = baseline::cost_k_decomp_instrumented(h, &opts, cost);
        prop_assert_eq!(
            seed.map(|(c, _, _)| c.to_bits()),
            word.as_ref().map(|(c, _, _)| c.to_bits()),
            "baseline vs word"
        );
    }
    if opts.root_cover.is_none() {
        let det_word = det_k_decomp_instrumented(h, k);
        let det_heap = search_on_heap_sets(h, &opts, &StructuralCost, true);
        same_outcome("det-k word vs heap", &det_word, &det_heap)?;
        prop_assert_eq!(det_word.is_some(), word.is_some(), "det-k vs cost-k");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The two instantiations are indistinguishable on hypergraphs with
    /// variable-less edges, duplicate edges, disconnected parts and a
    /// random root cover, k = 0..=3, under both cost models.
    #[test]
    fn instantiations_agree_on_random_hypergraphs(
        h in arb_edges(7, 7, 0),
        out_bits in prop::collection::vec(any::<bool>(), 7),
        cover in any::<bool>(),
    ) {
        let out: Option<VarSet> = cover.then(|| {
            h.var_ids().filter(|v| out_bits[v.index()]).collect()
        });
        for k in 0..=3 {
            check_instantiations(&h, k, out.clone(), &StructuralCost, true)?;
            check_instantiations(&h, k, out.clone(), &LumpyCost, true)?;
        }
    }
}

/// A line of `edges` binary edges (`edges + 1` variables) followed by
/// `copies` duplicates of its last edge.
fn line(edges: usize, copies: usize) -> Hypergraph {
    let mut b = Hypergraph::builder();
    for i in 0..edges {
        b.edge(
            &format!("p{i}"),
            &[&format!("X{i}"), &format!("X{}", i + 1)],
        );
    }
    for c in 0..copies {
        let last = edges - 1;
        b.edge(
            &format!("d{c}"),
            &[&format!("X{last}"), &format!("X{edges}")],
        );
    }
    b.build()
}

/// The representation switches between 64 and 65 edges and between 64 and
/// 65 variables; results must not. (64 edges, 64 variables) is the last
/// word-sized instance — its full edge set is `u64::MAX`; (64, 65) and
/// (65, 64) each cross exactly one of the limits; (63, 63) sits below both.
#[test]
fn instantiations_agree_across_the_word_boundary() {
    for (edges, copies) in [(63, 1), (64, 0), (63, 2), (62, 1)] {
        let h = line(edges, copies);
        let ends: VarSet = [h.var_by_name("X0"), h.var_by_name(&format!("X{edges}"))]
            .into_iter()
            .flatten()
            .collect();
        for cover in [None, Some(ends)] {
            check_instantiations(&h, 2, cover, &StructuralCost, false)
                .unwrap_or_else(|e| panic!("{} edges, {} vars: {e}", h.num_edges(), h.num_vars()));
        }
    }
}

/// A root cover naming a variable the hypergraph does not have (index
/// ≥ 64 here) is a Failure on either path, never a panic or a truncation.
#[test]
fn out_of_range_root_cover_is_failure() {
    let h = line(3, 0);
    let stray: VarSet = [htqo_hypergraph::Var(70)].into_iter().collect();
    let opts = SearchOptions::width_with_root_cover(2, stray);
    assert!(cost_k_decomp_instrumented(&h, &opts, &StructuralCost).is_none());
    assert!(search_on_heap_sets(&h, &opts, &StructuralCost, false).is_none());
}
