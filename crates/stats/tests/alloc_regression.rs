//! Allocation regression guard for separator pricing and for ANALYZE.
//!
//! Before the cost model was compiled, every separator the search priced
//! rebuilt string-keyed profiles for each of its atoms (dozens of heap
//! allocations), and the search itself built two edge sets per separator.
//! Now a repeated pricing is a hash probe and the search carries a
//! separator's sets as machine words, so allocations track the *distinct*
//! work — subproblems solved, join-atom sets priced, separators that
//! survive every bound cut — not the separators examined.
//!
//! ANALYZE used to box every cell of every column into a `Vec<Value>` and
//! merge-sort the boxes (24 B per cell, half as much again for the sort);
//! now it reads typed columns through one set of buffers, so
//! its allocations track the columns and its bytes one column, not the
//! cells.

mod common;
#[path = "../../engine/tests/support/counting_alloc.rs"]
mod counting_alloc;

use common::cycle;
use counting_alloc::{allocs_of, bytes_of, serial};
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

/// A table with a column of every kind: sparse integers (sorted), dense
/// dates (counted), floats with duplicates, strings all distinct.
fn four_column_db(rows: usize) -> htqo_engine::schema::Database {
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Database, Schema};
    use htqo_engine::value::Value;
    let mut rel = Relation::new(Schema::new(&[
        ("i", ColumnType::Int),
        ("d", ColumnType::Date),
        ("f", ColumnType::Float),
        ("s", ColumnType::Str),
    ]));
    for row in 0..rows as u64 {
        let x = row.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        rel.push_row(vec![
            Value::Int(x as i64),
            Value::Date((x >> 40) as i32 % 2500),
            Value::Float((x >> 50) as f64 / 4.0),
            Value::str(&format!("alloc-pin-{x:x}")),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.insert_table("t", rel);
    db
}

/// Measured: 23 allocations at 2,000 rows and 29 at 50,000 — per column
/// a name and the bounds, per call the buffers, and the list of distinct
/// strings doubling as it fills (the `log₂ rows` term; the keys are
/// reserved up front and never regrow). Bytes: 103 kB and 2.7 MB, ≈ 52 B
/// per row (8 of keys, 8 of counts, 16 of string runs and their growth),
/// where the boxed pass asked for 396 kB at 2,000 rows: a 24 B box per
/// cell of each of the four columns, and the merge sort's buffer on top.
/// The boxed pass made few allocations too — large ones; the byte bound is
/// the pin it fails.
#[test]
fn analyze_allocates_per_column_not_per_cell() {
    let _serial = serial();
    const COLUMNS: usize = 4;
    for rows in [2_000usize, 50_000] {
        let db = four_column_db(rows);
        let (allocs, stats) = allocs_of(|| htqo_stats::analyze(&db));
        assert_eq!(
            stats.table("t").unwrap().column("s").unwrap().distinct,
            rows as u64
        );
        assert!(
            allocs <= 4 * COLUMNS + rows.ilog2() as usize,
            "{allocs} allocations for {COLUMNS} columns of {rows} rows"
        );
        let (bytes, _) = bytes_of(|| htqo_stats::analyze(&db));
        assert!(
            bytes <= 64 * rows + 16 * 1024,
            "{bytes} bytes for {COLUMNS} columns of {rows} rows"
        );
    }
}
