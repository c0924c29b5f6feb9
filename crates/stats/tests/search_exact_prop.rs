//! Search exactness under the real cost model.
//!
//! `crates/core/tests/search_equiv_prop.rs` holds the branch-and-bound
//! search to the frozen exhaustive search under `StructuralCost` and a
//! synthetic model. This suite repeats the property under
//! [`StatsDecompCost`] with random statistics — the model production
//! plans with, whose `min_vertex_cost` (`1 + smallest atom cardinality`)
//! is the tightest bound the search is ever given. The exhaustive search
//! ignores the bound, so agreement shows the bound is admissible. (It
//! lives here because `htqo-stats` depends on `htqo-core`.)

mod common;

use common::{cycle, random_case, Case};
use htqo_core::search::{baseline, search_on_heap_sets};
use htqo_core::{cost_k_decomp_instrumented, validate, DecompCost, SearchOptions};
use htqo_hypergraph::{EdgeSet, Hypergraph, VarSet};
use htqo_stats::StatsDecompCost;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exhaustive ≡ B&B optimum, with the q-HD root cover,
    /// with and without an index catalog, `assume_optimize` on and off; the
    /// B&B search on word masks (what these ≤ 10-atom queries get) and
    /// forced onto heap bit sets are the same search: cost bits, counters.
    #[test]
    fn bnb_matches_exhaustive_under_stats_cost(
        seed in any::<u64>(),
        atoms in 3usize..=10,
        assume_optimize in any::<bool>(),
        with_indexes in any::<bool>(),
    ) {
        let Case { query, stats, indexes } = random_case(seed, atoms, true);
        let ch = query.hypergraph();
        let h = &ch.hypergraph;
        let catalog: &[(String, String)] = if with_indexes { &indexes } else { &[] };
        for k in 2..=3 {
            let opts = SearchOptions::width_with_root_cover(k, ch.out_var_set(&query));
            // One model per search: no run is helped by another's memo.
            let model = || {
                StatsDecompCost::new(&stats, &query)
                    .with_assume_optimize(assume_optimize)
                    .with_indexes(catalog)
            };
            let exhaustive = baseline::cost_k_decomp_instrumented(h, &opts, &model());
            let bnb = cost_k_decomp_instrumented(h, &opts, &model());
            let heap = search_on_heap_sets(h, &opts, &model(), false);
            prop_assert_eq!(
                bnb.as_ref().map(|(c, _, s)| (c.to_bits(), *s)),
                heap.as_ref().map(|(c, _, s)| (c.to_bits(), *s)),
                "word masks vs heap bit sets, k={}\n{}", k, query
            );
            match (&exhaustive, &bnb) {
                (None, None) => {}
                (Some((c0, _, _)), Some((c1, t, _))) => {
                    prop_assert_eq!(c0.to_bits(), c1.to_bits(), "exhaustive vs B&B, k={}\n{}", k, query);
                    prop_assert!(t.width() <= k);
                    validate::check_edge_coverage(h, t).unwrap();
                    validate::check_connectedness(h, t).unwrap();
                    validate::check_assignment(h, t).unwrap();
                }
                _ => {
                    return Err(TestCaseError::fail(format!(
                        "feasibility disagreement at k={k}: exhaustive={} B&B={}\n{query}",
                        exhaustive.is_some(),
                        bnb.is_some()
                    )));
                }
            }
        }
    }
}

/// `StatsDecompCost` with the bound it had before it was tightened.
struct UnitBound<'a>(StatsDecompCost<'a>);

impl DecompCost for UnitBound<'_> {
    fn vertex_cost(
        &self,
        h: &Hypergraph,
        lambda: &EdgeSet,
        assigned: &EdgeSet,
        chi: &VarSet,
    ) -> f64 {
        self.0.vertex_cost(h, lambda, assigned, chi)
    }

    fn min_vertex_cost(&self, _h: &Hypergraph) -> f64 {
        1.0
    }
}

#[test]
fn tightened_bound_never_examines_more_on_the_12_cycle() {
    let (query, stats) = cycle(12);
    let ch = query.hypergraph();
    let h = &ch.hypergraph;
    let opts = SearchOptions::width_with_root_cover(4, ch.out_var_set(&query));

    let tight_model = StatsDecompCost::new(&stats, &query);
    assert!(tight_model.min_vertex_cost(h) >= 41.0);
    let (tight_cost, _, tight) = cost_k_decomp_instrumented(h, &opts, &tight_model).unwrap();
    let unit_model = UnitBound(StatsDecompCost::new(&stats, &query));
    let (unit_cost, _, unit) = cost_k_decomp_instrumented(h, &opts, &unit_model).unwrap();

    assert_eq!(tight_cost.to_bits(), unit_cost.to_bits());
    assert!(
        tight.separators_tried <= unit.separators_tried,
        "{tight:?} vs {unit:?}"
    );
    // What the tighter bound saves is child subproblems that are never
    // entered (solved or looked up).
    assert!(
        tight.subproblems + tight.memo_hits < unit.subproblems + unit.memo_hits,
        "{tight:?} vs {unit:?}"
    );
}
