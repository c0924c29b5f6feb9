//! Allocation regression guard for separator pricing.
//!
//! Before the cost model was compiled, every separator the search priced
//! rebuilt string-keyed profiles for each of its atoms (dozens of heap
//! allocations), and the search itself built two edge sets per separator.
//! Now a repeated pricing is a hash probe and the search carries a
//! separator's sets as machine words, so allocations track the *distinct*
//! work — subproblems solved, join-atom sets priced, separators that
//! survive every bound cut — not the separators examined.

mod common;
#[path = "../../engine/tests/support/counting_alloc.rs"]
mod counting_alloc;

use common::cycle;
use counting_alloc::{allocs_of, serial};
use htqo_core::{cost_k_decomp_instrumented, DecompCost, SearchOptions, StructuralCost};
use htqo_hypergraph::{EdgeId, EdgeSet, Hypergraph, VarSet};
use htqo_stats::StatsDecompCost;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn memo_hit_vertex_cost_allocates_nothing() {
    let _serial = serial();
    let (query, stats) = cycle(12);
    let h = query.hypergraph().hypergraph;
    let model = StatsDecompCost::new(&stats, &query);
    let lambda: EdgeSet = [EdgeId(0), EdgeId(3), EdgeId(4)].into_iter().collect();
    let assigned: EdgeSet = [EdgeId(3), EdgeId(4)].into_iter().collect();
    let chi = VarSet::new();

    let (miss_allocs, first) = allocs_of(|| model.vertex_cost(&h, &lambda, &assigned, &chi));
    assert!(miss_allocs > 0, "the first pricing derives the profiles");
    let (hit_allocs, again) = allocs_of(|| model.vertex_cost(&h, &lambda, &assigned, &chi));
    assert_eq!(first.to_bits(), again.to_bits());
    assert_eq!(hit_allocs, 0);
}

/// Measured on the 12-atom cycle at k = 4: 7,000 allocations
/// for 4,514 separators tried, of which 4,288 are bound-cut — 7.2 per
/// unit of distinct work (65 subproblems solved + 683 join-atom sets
/// priced + 226 separators that survived every cut and so split their
/// component and built a plan node). The search on heap bit sets with
/// interned memo keys allocated 18,511 times here (19 per unit); the
/// string-profile model before it 170,717 times, 38 per separator *tried*.
#[test]
fn search_allocations_track_distinct_work_not_separators() {
    let _serial = serial();
    let (query, stats) = cycle(12);
    let ch = query.hypergraph();
    let h = &ch.hypergraph;
    let opts = SearchOptions::width_with_root_cover(4, ch.out_var_set(&query));

    let model = StatsDecompCost::new(&stats, &query);
    let (allocs, (_, _, search)) =
        allocs_of(|| cost_k_decomp_instrumented(h, &opts, &model).expect("width 2 suffices"));
    let survivors = search.separators_tried - search.bound_cuts;
    let distinct_work = search.subproblems + model.priced_sets() + survivors;
    // The instance separates the two growth rates: most separators are
    // cut on their (memoized) vertex cost and must cost no allocation.
    assert!(
        search.separators_tried > 4 * distinct_work,
        "{search:?}, {} sets priced",
        model.priced_sets()
    );
    assert!(
        allocs <= 9 * distinct_work,
        "{allocs} allocations for {distinct_work} units of distinct work ({search:?})"
    );
}

/// [`StructuralCost`], counting the allocations its own pricing makes (a
/// difference set and a component walk per call — it keeps no memo).
struct MeteredStructural(AtomicUsize);

impl DecompCost for MeteredStructural {
    fn vertex_cost(
        &self,
        h: &Hypergraph,
        lambda: &EdgeSet,
        assigned: &EdgeSet,
        chi: &VarSet,
    ) -> f64 {
        let (allocs, cost) = allocs_of(|| StructuralCost.vertex_cost(h, lambda, assigned, chi));
        self.0.fetch_add(allocs, Ordering::Relaxed);
        cost
    }

    fn min_vertex_cost(&self, h: &Hypergraph) -> f64 {
        StructuralCost.min_vertex_cost(h)
    }
}

/// The search's own allocations, with no pricing memo to hide behind: on
/// the same instance under the structural model (4,506 separators tried,
/// 64 subproblems, 250 survivors) everything outside `vertex_cost`
/// allocates 2,297 times (7.3 per unit) — the candidate tables, lent sets and memo
/// entry of a subproblem, the component list, child list and plan node of
/// a survivor — and nothing per separator tried. With per-separator
/// scratch sets and interned keys it was 12,515 (40 per unit).
#[test]
fn search_allocates_per_subproblem_and_survivor_only() {
    let _serial = serial();
    let (query, _) = cycle(12);
    let ch = query.hypergraph();
    let h = &ch.hypergraph;
    let opts = SearchOptions::width_with_root_cover(4, ch.out_var_set(&query));

    let model = MeteredStructural(AtomicUsize::new(0));
    let (allocs, (_, _, search)) =
        allocs_of(|| cost_k_decomp_instrumented(h, &opts, &model).expect("width 2 suffices"));
    let own = allocs - model.0.load(Ordering::Relaxed);
    let distinct_work = search.subproblems + search.separators_tried - search.bound_cuts;
    assert!(search.separators_tried > 10 * distinct_work, "{search:?}");
    assert!(
        own <= 10 * distinct_work,
        "{own} allocations outside pricing for {distinct_work} units of distinct work ({search:?})"
    );
}
