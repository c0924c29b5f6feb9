//! System-R-style dynamic programming over join orders (the quantitative
//! optimizer standing in for the paper's *CommDB*).
//!
//! Enumerates left-deep join orders over atom subsets, costing each
//! extension with the statistics-based estimator (`htqo-stats`). Cross
//! products are allowed but their multiplicative cardinalities price them
//! out naturally. Above [`EXHAUSTIVE_LIMIT`] atoms the planner falls back
//! to the greedy heuristic, as real systems do.

use htqo_cq::{AtomId, ConjunctiveQuery};
use htqo_stats::{join_profiles, DbStats, Profile, QueryProfiles};

/// Largest atom count planned exhaustively (2^n subset DP).
pub const EXHAUSTIVE_LIMIT: usize = 14;

/// Plans a left-deep join order for `q` minimizing the estimated sum of
/// intermediate result sizes.
pub fn dp_join_order(q: &ConjunctiveQuery, stats: &DbStats) -> Vec<AtomId> {
    let n = q.atoms.len();
    if n == 0 {
        return Vec::new();
    }
    if n > EXHAUSTIVE_LIMIT {
        return greedy_join_order(q, stats);
    }
    let compiled = QueryProfiles::new(stats, q);
    let profiles: Vec<&Profile> = q.atom_ids().map(|a| compiled.atom(a)).collect();

    // best[mask] = (cost, last atom added, profile)
    let full: usize = (1 << n) - 1;
    let mut best: Vec<Option<(f64, usize, Profile)>> = vec![None; full + 1];
    for (i, &p) in profiles.iter().enumerate() {
        best[1 << i] = Some((p.card, i, p.clone()));
    }
    for mask in 1..=full {
        let Some((cost, _, profile)) = best[mask].clone() else {
            continue;
        };
        for (i, &p) in profiles.iter().enumerate() {
            if mask & (1 << i) != 0 {
                continue;
            }
            let next_mask = mask | (1 << i);
            let joined = join_profiles(&profile, p);
            let next_cost = cost + joined.card;
            let better = match &best[next_mask] {
                None => true,
                Some((c, _, _)) => next_cost < *c,
            };
            if better {
                best[next_mask] = Some((next_cost, i, joined));
            }
        }
    }

    // Reconstruct the order by peeling off last atoms.
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let (_, last, _) = best[mask].as_ref().expect("reachable state");
        order.push(AtomId(*last as u32));
        mask &= !(1 << *last);
    }
    order.reverse();
    order
}

/// Greedy heuristic: start from the smallest atom, repeatedly join the
/// atom minimizing the estimated intermediate size (used above the
/// exhaustive limit, like real planners switch to heuristics).
pub fn greedy_join_order(q: &ConjunctiveQuery, stats: &DbStats) -> Vec<AtomId> {
    let n = q.atoms.len();
    let compiled = QueryProfiles::new(stats, q);
    let profiles: Vec<&Profile> = q.atom_ids().map(|a| compiled.atom(a)).collect();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    // Smallest atom first.
    remaining.sort_by(|&a, &b| profiles[a].card.total_cmp(&profiles[b].card));
    let first = remaining.remove(0);
    order.push(AtomId(first as u32));
    let mut acc = profiles[first].clone();
    while !remaining.is_empty() {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &i)| (pos, join_profiles(&acc, profiles[i]).card))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        let i = remaining.remove(pos);
        acc = join_profiles(&acc, profiles[i]);
        order.push(AtomId(i as u32));
    }
    order
}

/// Estimated cost of a specific left-deep order: every base scan plus the
/// sum of intermediate result sizes (the same accounting the engine's
/// budget charges, and the same units as [`crate::bushy::dp_bushy`]).
/// Adding the scans shifts all orders by the same constant, so rankings —
/// and the DP/GEQO optima — are unaffected.
pub fn order_cost(q: &ConjunctiveQuery, stats: &DbStats, order: &[AtomId]) -> f64 {
    order_cost_compiled(&QueryProfiles::new(stats, q), order)
}

/// [`order_cost`] over an already compiled query, for callers that price
/// many orders of one query.
pub(crate) fn order_cost_compiled(profiles: &QueryProfiles<'_>, order: &[AtomId]) -> f64 {
    let mut iter = order.iter();
    let Some(&first) = iter.next() else {
        return 0.0;
    };
    let mut acc = profiles.atom(first).clone();
    let mut cost = acc.card;
    for &a in iter {
        let p = profiles.atom(a);
        cost += p.card; // the probe-side scan
        acc = join_profiles(&acc, p);
        cost += acc.card;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_cq::CqBuilder;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Database, Schema};
    use htqo_engine::value::Value;
    use htqo_stats::analyze;

    /// A star query with one huge fact table and small filters: the DP
    /// must start from the small side.
    fn setup() -> (Database, ConjunctiveQuery) {
        let mut db = Database::new();
        let schema = || Schema::new(&[("l", ColumnType::Int), ("r", ColumnType::Int)]);
        let mut fact = Relation::new(schema());
        for i in 0..2000 {
            fact.push_row(vec![Value::Int(i % 100), Value::Int(i % 61)])
                .unwrap();
        }
        let mut dim = Relation::new(schema());
        for i in 0..5 {
            dim.push_row(vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
        db.insert_table("fact", fact);
        db.insert_table("dim", dim.clone());
        db.insert_table("dim2", dim);
        let q = CqBuilder::new()
            .atom("fact", "fact", &[("l", "X"), ("r", "Y")])
            .atom("dim", "dim", &[("l", "X"), ("r", "Z")])
            .atom("dim2", "dim2", &[("l", "Y"), ("r", "W")])
            .out_var("Z")
            .build();
        (db, q)
    }

    #[test]
    fn dp_picks_cheapest_order() {
        let (db, q) = setup();
        let stats = analyze(&db);
        let order = dp_join_order(&q, &stats);
        assert_eq!(order.len(), 3);
        // DP cost must be minimal among all 6 permutations.
        let dp_cost = order_cost(&q, &stats, &order);
        let ids: Vec<AtomId> = q.atom_ids().collect();
        let mut perms = Vec::new();
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    if a != b && b != c && a != c {
                        perms.push(vec![ids[a], ids[b], ids[c]]);
                    }
                }
            }
        }
        for p in perms {
            assert!(dp_cost <= order_cost(&q, &stats, &p) + 1e-6);
        }
        // And it should not start with the fact table.
        assert_ne!(order[0], AtomId(0));
    }

    #[test]
    fn greedy_is_reasonable() {
        let (db, q) = setup();
        let stats = analyze(&db);
        let g = greedy_join_order(&q, &stats);
        assert_eq!(g.len(), 3);
        assert_ne!(g[0], AtomId(0)); // starts small
        let mut sorted = g.clone();
        sorted.sort();
        assert_eq!(sorted, q.atom_ids().collect::<Vec<_>>());
    }

    #[test]
    fn default_stats_give_arbitrary_but_valid_orders() {
        let (db, q) = setup();
        let stats = htqo_stats::DbStats::defaults_for(&db);
        let order = dp_join_order(&q, &stats);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, q.atom_ids().collect::<Vec<_>>());
    }

    #[test]
    fn empty_query_is_fine() {
        let q = CqBuilder::new().build();
        let stats = htqo_stats::DbStats::default();
        assert!(dp_join_order(&q, &stats).is_empty());
        assert_eq!(order_cost(&q, &stats, &[]), 0.0);
    }
}
