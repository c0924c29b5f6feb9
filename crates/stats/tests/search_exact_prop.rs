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

use common::{cycle, line, random_case, Case};
use htqo_core::search::{baseline, search_on_heap_sets};
use htqo_core::{
    cost_k_decomp_instrumented, validate, DecompCost, Hypertree, SearchOptions, StructuralCost,
};
use htqo_cq::{CmpOp, CqBuilder, Literal};
use htqo_hypergraph::{EdgeSet, Hypergraph, VarSet};
use htqo_stats::{ColumnStats, DbStats, StatsDecompCost, TableStats};
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

    fn charges_bounding_edges(&self) -> bool {
        self.0.charges_bounding_edges()
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

/// A cost model with [`DecompCost::charges_bounding_edges`] left at its
/// default `false`: the search then enumerates every bounding edge.
struct Uncharged<C>(C);

impl<C: DecompCost> DecompCost for Uncharged<C> {
    fn vertex_cost(
        &self,
        h: &Hypergraph,
        lambda: &EdgeSet,
        assigned: &EdgeSet,
        chi: &VarSet,
    ) -> f64 {
        self.0.vertex_cost(h, lambda, assigned, chi)
    }

    fn min_vertex_cost(&self, h: &Hypergraph) -> f64 {
        self.0.min_vertex_cost(h)
    }
}

/// The vertices of `t` holding a bounding λ edge (one not assigned there)
/// whose variables in χ the other λ edges already bring.
fn redundant_bounding_edges(h: &Hypergraph, t: &Hypertree) -> usize {
    t.preorder()
        .iter()
        .map(|&p| t.node(p))
        .filter(|n| {
            n.lambda.difference(&n.assigned).iter().any(|e| {
                let mut rest = n.lambda.clone();
                rest.remove(e);
                (h.edge_vars(e).intersection(&n.chi)).is_subset(&h.vars_of_edges(&rest))
            })
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Skipping dominated bounding edges changes nothing but the work:
    /// under the Optimize-assuming statistics model and under
    /// `StructuralCost`, the search returns the cost bits and the tree it
    /// returns with the property forced `false`, no returned vertex holds
    /// a bounding λ edge that adds no χ variable, and the skip never
    /// examines more separators.
    #[test]
    fn dominated_bounding_edges_are_skipped_without_changing_the_tree(
        seed in any::<u64>(),
        atoms in 3usize..=10,
        k in 2usize..=4,
        cover in any::<bool>(),
        connected in any::<bool>(),
    ) {
        let Case { query, stats, .. } = random_case(seed, atoms, connected);
        let ch = query.hypergraph();
        let h = &ch.hypergraph;
        let opts = match cover {
            true => SearchOptions::width_with_root_cover(k, ch.out_var_set(&query)),
            false => SearchOptions::width(k),
        };
        let stats_model = StatsDecompCost::new(&stats, &query);
        prop_assert!(stats_model.charges_bounding_edges());
        let models: [(&str, &dyn DecompCost, Uncharged<&dyn DecompCost>); 2] = [
            ("statistics", &stats_model, Uncharged(&stats_model)),
            ("structural", &StructuralCost, Uncharged(&StructuralCost)),
        ];
        for (name, model, uncharged) in &models {
            let skipping = cost_k_decomp_instrumented(h, &opts, *model);
            let full = cost_k_decomp_instrumented(h, &opts, uncharged);
            match (&skipping, &full) {
                (None, None) => {}
                (Some((c0, t0, s0)), Some((c1, t1, s1))) => {
                    prop_assert_eq!(c0.to_bits(), c1.to_bits(), "{} cost\n{}", name, query);
                    prop_assert_eq!(format!("{t0:?}"), format!("{t1:?}"), "{} tree\n{}", name, query);
                    prop_assert_eq!(redundant_bounding_edges(h, t0), 0, "{}: {:?}", name, t0);
                    prop_assert!(
                        s0.separators_tried <= s1.separators_tried,
                        "{}: {:?} vs {:?}", name, s0, s1
                    );
                    prop_assert_eq!(s1.dominated_skips, 0);
                }
                _ => prop_assert!(false, "{}: feasibility differs\n{}", name, query),
            }
        }
    }
}

/// Separators the search examines on the fixtures at k = 4 with the root
/// covering `V0`, under the statistics model, with dominated bounding
/// edges skipped and (the property forced `false`) without: 2,798 against
/// 3,734 on the 12-line, 3,421 against 4,514 on the 12-cycle.
#[test]
fn separators_examined_on_the_12_line_and_cycle() {
    let fixtures = [
        ("line", line(12), 2_798, 3_734),
        ("cycle", cycle(12), 3_421, 4_514),
    ];
    for (name, (query, stats), skipping, full) in fixtures {
        let ch = query.hypergraph();
        let opts = SearchOptions::width_with_root_cover(4, ch.out_var_set(&query));
        let model = StatsDecompCost::new(&stats, &query);
        let (_, _, search) = cost_k_decomp_instrumented(&ch.hypergraph, &opts, &model).unwrap();
        assert_eq!(search.separators_tried, skipping, "{name}: {search:?}");
        assert!(search.dominated_skips > 0, "{name}: {search:?}");
        let uncharged = Uncharged(&model);
        let (_, _, search) = cost_k_decomp_instrumented(&ch.hypergraph, &opts, &uncharged).unwrap();
        assert_eq!(search.separators_tried, full, "{name}: {search:?}");
    }
}

/// Without Optimize assumed a λ atom joins the priced set, so a bounding
/// atom that adds no variable can *lower* a vertex's price: here the root
/// must cover `X`, so it enforces the filtered one-row `f(B, X)`, and a
/// child vertex enforcing `r(A, B)` or `s(B, C)` (5,000 rows each) prices
/// a handful of rows when it also holds `f` — a bounding atom whose only
/// variable in scope, `B`, the child's own atom brings. Such a model must
/// not declare that it charges bounding edges, and the search must still
/// find the exhaustive search's optimum, which holds that redundant atom.
#[test]
fn a_model_that_can_pay_for_a_redundant_atom_keeps_it() {
    let mut stats = DbStats::default();
    let mut table = |name: &str, rows: u64, columns: &[(&str, u64)]| {
        let mut t = TableStats {
            rows,
            ..Default::default()
        };
        for &(column, distinct) in columns {
            let c = ColumnStats {
                distinct,
                ..Default::default()
            };
            t.columns.insert(column.to_string(), c);
        }
        stats.tables.insert(name.to_string(), t);
    };
    table("r", 5_000, &[("a", 5_000), ("b", 5_000)]);
    table("s", 5_000, &[("b", 5_000), ("c", 5_000)]);
    table("f", 50, &[("b", 50), ("x", 50)]);
    let query = CqBuilder::new()
        .atom("r", "r", &[("a", "A"), ("b", "B")])
        .atom("s", "s", &[("b", "B"), ("c", "C")])
        .atom("f", "f", &[("b", "B"), ("x", "X")])
        .filter(2, "x", CmpOp::Eq, Literal::Int(3))
        .out_var("X")
        .build();
    let ch = query.hypergraph();
    let h = &ch.hypergraph;
    let opts = SearchOptions::width_with_root_cover(2, ch.out_var_set(&query));
    let model = || StatsDecompCost::new(&stats, &query).with_assume_optimize(false);
    assert!(!model().charges_bounding_edges());

    let (exhaustive, exhaustive_tree, _) =
        baseline::cost_k_decomp_instrumented(h, &opts, &model()).unwrap();
    assert!(
        redundant_bounding_edges(h, &exhaustive_tree) > 0,
        "the optimum needs a redundant bounding atom: {exhaustive_tree:?}"
    );
    let (cost, tree, search) = cost_k_decomp_instrumented(h, &opts, &model()).unwrap();
    assert_eq!(cost.to_bits(), exhaustive.to_bits(), "{tree:?}");
    assert_eq!(search.dominated_skips, 0);
}
