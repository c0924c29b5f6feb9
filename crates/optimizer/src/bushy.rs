//! Bushy-tree dynamic programming (DPsize) — the "not only left-deep"
//! upgrade real quantitative optimizers ship. The paper's introduction
//! notes that optimizers "restrict the search space of query plans to very
//! simple structures (e.g., left-deep trees)"; this module implements the
//! richer space so the baselines can be ablated against it.
//!
//! States are atom subsets; a subset's best plan is the cheapest
//! combination of two disjoint sub-plans (classic DPsize). Costs use the
//! same estimator as the left-deep DP, so the bushy optimum is never worse
//! than the left-deep optimum on estimates.

use htqo_cq::{AtomId, ConjunctiveQuery};
use htqo_stats::{join_profiles, DbStats, Profile, QueryProfiles};
use std::fmt;

/// A join tree over query atoms.
#[derive(Clone, Debug, PartialEq)]
pub enum JoinTree {
    /// A base atom scan.
    Leaf(AtomId),
    /// A join of two subtrees.
    Join(Box<JoinTree>, Box<JoinTree>),
}

impl JoinTree {
    /// Atoms of the tree, left to right.
    pub fn atoms(&self) -> Vec<AtomId> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut Vec<AtomId>) {
        match self {
            JoinTree::Leaf(a) => out.push(*a),
            JoinTree::Join(l, r) => {
                l.collect(out);
                r.collect(out);
            }
        }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        match self {
            JoinTree::Leaf(_) => 1,
            JoinTree::Join(l, r) => l.len() + r.len(),
        }
    }

    /// True if the tree has no joins (single leaf).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if the tree is left-deep (every right child is a leaf).
    pub fn is_left_deep(&self) -> bool {
        match self {
            JoinTree::Leaf(_) => true,
            JoinTree::Join(l, r) => matches!(**r, JoinTree::Leaf(_)) && l.is_left_deep(),
        }
    }

    /// Renders with the query's atom aliases.
    pub fn display(&self, q: &ConjunctiveQuery) -> String {
        match self {
            JoinTree::Leaf(a) => q.atom(*a).alias.clone(),
            JoinTree::Join(l, r) => {
                format!("({} ⋈ {})", l.display(q), r.display(q))
            }
        }
    }
}

impl fmt::Display for JoinTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinTree::Leaf(a) => write!(f, "{}", a.0),
            JoinTree::Join(l, r) => write!(f, "({l} ⋈ {r})"),
        }
    }
}

/// Plans a bushy join tree minimizing the estimated sum of intermediate
/// sizes. Returns `None` for queries above [`crate::dp::EXHAUSTIVE_LIMIT`]
/// atoms or with an empty body.
pub fn dp_bushy(q: &ConjunctiveQuery, stats: &DbStats) -> Option<(f64, JoinTree)> {
    let n = q.atoms.len();
    if n == 0 || n > crate::dp::EXHAUSTIVE_LIMIT {
        return None;
    }
    let compiled = QueryProfiles::new(stats, q);
    let full: usize = (1 << n) - 1;
    // best[mask] = (cost so far, result profile, tree)
    let mut best: Vec<Option<(f64, Profile, JoinTree)>> = vec![None; full + 1];
    for (i, a) in q.atom_ids().enumerate() {
        let p = compiled.atom(a);
        best[1 << i] = Some((p.card, p.clone(), JoinTree::Leaf(a)));
    }
    // Enumerate subsets in increasing size; for each, all proper splits.
    for mask in 1..=full {
        if best[mask].is_some() {
            continue; // singleton already seeded
        }
        let mut best_here: Option<(f64, Profile, JoinTree)> = None;
        // Enumerate sub-masks (standard trick); consider each unordered
        // partition once by requiring the lowest set bit in `left`.
        let low = mask & mask.wrapping_neg();
        let mut left = (mask - 1) & mask;
        while left > 0 {
            if left & low != 0 {
                let right = mask ^ left;
                if let (Some((cl, pl, tl)), Some((cr, pr, tr))) = (&best[left], &best[right]) {
                    let joined = join_profiles(pl, pr);
                    let cost = cl + cr + joined.card;
                    if best_here.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                        best_here = Some((
                            cost,
                            joined,
                            JoinTree::Join(Box::new(tl.clone()), Box::new(tr.clone())),
                        ));
                    }
                }
            }
            left = (left - 1) & mask;
        }
        best[mask] = best_here;
    }
    best[full].take().map(|(cost, _, tree)| (cost, tree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{dp_join_order, order_cost};
    use htqo_cq::CqBuilder;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Database, Schema};
    use htqo_engine::value::Value;
    use htqo_stats::analyze;

    /// Two independent selective pairs joined by one bridge: the classic
    /// case where bushy beats left-deep (join each pair first).
    fn setup() -> (Database, ConjunctiveQuery) {
        let mut db = Database::new();
        let schema = || Schema::new(&[("l", ColumnType::Int), ("r", ColumnType::Int)]);
        // Big "bridge" relation over (Y1, Y2).
        let mut bridge = Relation::new(schema());
        for i in 0..3000 {
            bridge
                .push_row(vec![Value::Int(i % 60), Value::Int(i % 59)])
                .unwrap();
        }
        // Selective filters on each side.
        let mut fa = Relation::new(schema());
        let mut fb = Relation::new(schema());
        for i in 0..8 {
            fa.push_row(vec![Value::Int(i), Value::Int(i)]).unwrap();
            fb.push_row(vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
        db.insert_table("bridge", bridge);
        db.insert_table("fa", fa);
        db.insert_table("fa2", fb.clone());
        db.insert_table("fb", fb);
        let q = CqBuilder::new()
            .atom("fa", "fa", &[("l", "Y1"), ("r", "A")])
            .atom("fa2", "fa2", &[("l", "A"), ("r", "A2")])
            .atom("bridge", "bridge", &[("l", "Y1"), ("r", "Y2")])
            .atom("fb", "fb", &[("l", "Y2"), ("r", "B")])
            .out_var("A")
            .build();
        (db, q)
    }

    #[test]
    fn bushy_never_worse_than_left_deep_on_estimates() {
        let (db, q) = setup();
        let stats = analyze(&db);
        let (bushy_cost, tree) = dp_bushy(&q, &stats).expect("small query");
        let ld = dp_join_order(&q, &stats);
        let ld_cost = order_cost(&q, &stats, &ld);
        assert!(
            bushy_cost <= ld_cost + 1e-6,
            "bushy {bushy_cost} vs left-deep {ld_cost}"
        );
        // The tree covers every atom exactly once.
        let mut atoms = tree.atoms();
        atoms.sort();
        assert_eq!(atoms, q.atom_ids().collect::<Vec<_>>());
    }

    #[test]
    fn bushy_space_contains_and_ranks_bushy_shapes() {
        // With cross products allowed, a Cout-optimal left-deep order often
        // ties the bushy optimum (the planner may join the two small
        // filters first as a cheap cross product). What the bushy DP adds
        // is the *shape*: verify it can represent and cost a genuinely
        // bushy tree, and that the display/iteration utilities agree.
        let (db, q) = setup();
        let stats = analyze(&db);
        let (cost, tree) = dp_bushy(&q, &stats).unwrap();
        assert!(cost > 0.0);
        let shown = tree.display(&q);
        assert!(shown.contains('⋈'));
        assert_eq!(tree.len(), q.atoms.len());
        // A hand-built bushy tree is recognised as not left-deep.
        let bushy = JoinTree::Join(
            Box::new(JoinTree::Join(
                Box::new(JoinTree::Leaf(AtomId(0))),
                Box::new(JoinTree::Leaf(AtomId(1))),
            )),
            Box::new(JoinTree::Join(
                Box::new(JoinTree::Leaf(AtomId(2))),
                Box::new(JoinTree::Leaf(AtomId(3))),
            )),
        );
        assert!(!bushy.is_left_deep());
        let ld = JoinTree::Join(
            Box::new(JoinTree::Join(
                Box::new(JoinTree::Leaf(AtomId(0))),
                Box::new(JoinTree::Leaf(AtomId(1))),
            )),
            Box::new(JoinTree::Leaf(AtomId(2))),
        );
        assert!(ld.is_left_deep());
    }

    #[test]
    fn bushy_execution_matches_naive() {
        let (db, q) = setup();
        let stats = analyze(&db);
        let (_, tree) = dp_bushy(&q, &stats).unwrap();
        let mut b1 = htqo_engine::Budget::unlimited();
        let ours = crate::bushy_exec::evaluate_join_tree(&db, &q, &tree, &mut b1).unwrap();
        let mut b2 = htqo_engine::Budget::unlimited();
        let naive = htqo_eval::evaluate_naive(&db, &q, &mut b2).unwrap();
        assert!(ours.set_eq(&naive));
    }

    #[test]
    fn degenerate_inputs() {
        let stats = htqo_stats::DbStats::default();
        let empty = CqBuilder::new().build();
        assert!(dp_bushy(&empty, &stats).is_none());
        let single = CqBuilder::new().atom_vars("r", &["X"]).out_var("X").build();
        let (cost, tree) = dp_bushy(&single, &stats).unwrap();
        assert_eq!(tree, JoinTree::Leaf(AtomId(0)));
        assert!(cost > 0.0);
    }
}
