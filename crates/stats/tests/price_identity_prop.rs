//! Price identity: the compiled dense cost model must price **bit for
//! bit** what the string-keyed estimator it replaced priced.
//!
//! `tree_cost`'s "statistics unchanged" shortcut compares cost sums with
//! `==` and ties decide plans, so "close" is not good enough. The module
//! [`reference`] is a transcription of the pre-compilation estimator
//! (`atom_profile` / `join_profiles` / `vertex_tuples` over
//! `BTreeMap<String, f64>`, re-derived on every call) and of the two
//! consumers built on it; it lives only here. Every comparison is on
//! `f64::to_bits`.

mod common;

use common::{random_case, Case, Rng};
use htqo_core::DecompCost;
use htqo_cq::AtomId;
use htqo_hypergraph::{EdgeId, EdgeSet, VarSet};
use htqo_optimizer::{dp_join_order, estimate_answer_rows, order_cost};
use htqo_stats::StatsDecompCost;
use proptest::prelude::*;

/// The estimator as it was before queries were compiled.
mod reference {
    use htqo_cq::{AtomId, CmpOp, ConjunctiveQuery, Literal};
    use htqo_engine::index::SEEK_MARGIN;
    use htqo_engine::value::Value;
    use htqo_stats::{ColumnStats, DbStats};
    use std::collections::BTreeMap;

    const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
    const DEFAULT_EQ_SELECTIVITY: f64 = 0.01;

    #[derive(Clone)]
    pub struct Profile {
        pub card: f64,
        pub distinct: BTreeMap<String, f64>,
    }

    impl Profile {
        pub fn distinct_of(&self, v: &str) -> f64 {
            self.distinct
                .get(v)
                .copied()
                .unwrap_or(DEFAULT_EQ_SELECTIVITY.recip())
                .min(self.card.max(1.0))
        }
    }

    pub fn atom_profile(stats: &DbStats, q: &ConjunctiveQuery, a: AtomId) -> Profile {
        let atom = q.atom(a);
        let table = stats.table(&atom.relation);
        let base_rows = table.map(|t| t.rows as f64).unwrap_or(1000.0).max(1.0);
        let mut selectivity = 1.0f64;
        for f in q.filters_of(a) {
            let col = table.and_then(|t| t.column(&f.column));
            selectivity *= match f.op {
                CmpOp::Eq => col
                    .map(|c| 1.0 / (c.distinct.max(1) as f64))
                    .unwrap_or(DEFAULT_EQ_SELECTIVITY),
                CmpOp::Ne => col
                    .map(|c| 1.0 - 1.0 / (c.distinct.max(1) as f64))
                    .unwrap_or(1.0 - DEFAULT_EQ_SELECTIVITY),
                CmpOp::Lt | CmpOp::Le => range_fraction(col, &f.value, true),
                CmpOp::Gt | CmpOp::Ge => range_fraction(col, &f.value, false),
            };
        }
        let card = (base_rows * selectivity).max(1.0);
        let mut distinct = BTreeMap::new();
        for (column, var) in &atom.args {
            let d = table
                .and_then(|t| t.column(column))
                .map(|c| c.distinct.max(1) as f64)
                .unwrap_or(100.0);
            let reduced = (d * selectivity).max(1.0).min(card);
            distinct
                .entry(var.clone())
                .and_modify(|cur: &mut f64| *cur = cur.min(reduced))
                .or_insert(reduced);
        }
        Profile { card, distinct }
    }

    fn range_fraction(col: Option<&ColumnStats>, bound: &Literal, below: bool) -> f64 {
        let Some(col) = col else {
            return DEFAULT_RANGE_SELECTIVITY;
        };
        let bound_v: Value = bound.into();
        if let Some(h) = &col.histogram {
            let frac = h.fraction_below(&bound_v);
            let f = if below { frac } else { 1.0 - frac };
            return f.clamp(0.0, 1.0).max(1e-6);
        }
        if let (Some(min), Some(max)) = (&col.min, &col.max) {
            if let (Some(lo), Some(hi), Some(b)) = (numeric(min), numeric(max), numeric(&bound_v)) {
                if hi > lo {
                    let frac = ((b - lo) / (hi - lo)).clamp(0.0, 1.0);
                    return if below { frac } else { 1.0 - frac }.max(1e-6);
                }
            }
        }
        DEFAULT_RANGE_SELECTIVITY
    }

    fn numeric(v: &Value) -> Option<f64> {
        match v {
            Value::Date(d) => Some(*d as f64),
            other => other.as_f64(),
        }
    }

    pub fn join_profiles(a: &Profile, b: &Profile) -> Profile {
        let shared: Vec<&str> = a
            .distinct
            .keys()
            .filter(|v| b.distinct.contains_key(*v))
            .map(|s| s.as_str())
            .collect();
        let mut card = a.card * b.card;
        for v in &shared {
            card /= a.distinct_of(v).max(b.distinct_of(v)).max(1.0);
        }
        card = card.max(1.0);
        let mut distinct = BTreeMap::new();
        for (v, d) in a.distinct.iter().chain(b.distinct.iter()) {
            distinct
                .entry(v.clone())
                .and_modify(|cur: &mut f64| *cur = cur.min(*d))
                .or_insert(*d);
        }
        for d in distinct.values_mut() {
            *d = d.min(card);
        }
        Profile { card, distinct }
    }

    /// The cost model: `indexed` is the lowercased catalog.
    pub struct Model<'a> {
        pub stats: &'a DbStats,
        pub query: &'a ConjunctiveQuery,
        pub assume_optimize: bool,
        pub indexed: Vec<(String, String)>,
    }

    impl Model<'_> {
        fn seekable(&self, a: AtomId, acc: &Profile) -> bool {
            let atom = self.query.atom(a);
            let rel = atom.relation.to_lowercase();
            atom.args.iter().any(|(col, var)| {
                acc.distinct.contains_key(var)
                    && self
                        .indexed
                        .iter()
                        .any(|(t, c)| *t == rel && *c == col.to_lowercase())
            })
        }

        pub fn vertex_tuples(&self, atoms: &[AtomId]) -> f64 {
            let mut profiles: Vec<(AtomId, Profile)> = atoms
                .iter()
                .map(|&a| (a, atom_profile(self.stats, self.query, a)))
                .collect();
            profiles.sort_by(|a, b| a.1.card.total_cmp(&b.1.card));
            let Some((_, first)) = profiles.first().cloned() else {
                return 0.0;
            };
            let mut acc = first;
            let mut cost = acc.card;
            for (a, p) in &profiles[1..] {
                if !self.indexed.is_empty() {
                    let seek = self.seekable(*a, &acc) && acc.card * SEEK_MARGIN as f64 <= p.card;
                    if !seek {
                        cost += p.card;
                    }
                }
                acc = join_profiles(&acc, p);
                cost += acc.card;
            }
            cost
        }

        /// `lambda` and `assigned` in ascending atom order, as `EdgeSet`
        /// iteration yields them.
        pub fn vertex_cost(&self, lambda: &[AtomId], assigned: &[AtomId]) -> f64 {
            let (join_atoms, bounding) = if self.assume_optimize {
                let bounding = lambda.iter().filter(|a| !assigned.contains(a)).count();
                (assigned.to_vec(), bounding)
            } else {
                let mut union: Vec<AtomId> = lambda.iter().chain(assigned).copied().collect();
                union.sort();
                union.dedup();
                (union, 0)
            };
            1.0 + self.vertex_tuples(&join_atoms) + 10.0 * bounding as f64
        }
    }

    pub fn estimate_answer_rows(q: &ConjunctiveQuery, stats: &DbStats) -> Option<f64> {
        let mut profiles = q.atom_ids().map(|a| atom_profile(stats, q, a));
        let mut joined = profiles.next()?;
        for p in profiles {
            joined = join_profiles(&joined, &p);
        }
        let distinct_bound = |vars: &[String]| -> f64 {
            vars.iter()
                .map(|v| joined.distinct_of(v))
                .product::<f64>()
                .min(joined.card)
                .max(1.0)
        };
        Some(if q.has_aggregates() {
            if q.group_by.is_empty() {
                1.0
            } else {
                distinct_bound(&q.group_by)
            }
        } else {
            let visible = q.out_vars();
            if visible.is_empty() {
                joined.card.min(1.0)
            } else {
                distinct_bound(&visible)
            }
        })
    }

    pub fn order_cost(q: &ConjunctiveQuery, stats: &DbStats, order: &[AtomId]) -> f64 {
        let mut iter = order.iter();
        let Some(&first) = iter.next() else {
            return 0.0;
        };
        let mut acc = atom_profile(stats, q, first);
        let mut cost = acc.card;
        for &a in iter {
            let p = atom_profile(stats, q, a);
            cost += p.card;
            acc = join_profiles(&acc, &p);
            cost += acc.card;
        }
        cost
    }

    pub fn dp_join_order(q: &ConjunctiveQuery, stats: &DbStats) -> Vec<AtomId> {
        let n = q.atoms.len();
        let profiles: Vec<Profile> = q.atom_ids().map(|a| atom_profile(stats, q, a)).collect();
        let full: usize = (1 << n) - 1;
        let mut best: Vec<Option<(f64, usize, Profile)>> = vec![None; full + 1];
        for (i, p) in profiles.iter().enumerate() {
            best[1 << i] = Some((p.card, i, p.clone()));
        }
        for mask in 1..=full {
            let Some((cost, _, profile)) = best[mask].clone() else {
                continue;
            };
            for (i, p) in profiles.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    continue;
                }
                let joined = join_profiles(&profile, p);
                let next_cost = cost + joined.card;
                let slot = &mut best[mask | (1 << i)];
                if slot.as_ref().is_none_or(|(c, _, _)| next_cost < *c) {
                    *slot = Some((next_cost, i, joined));
                }
            }
        }
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
}

fn random_atoms(rng: &mut Rng, n: usize, allow_empty: bool) -> Vec<AtomId> {
    loop {
        let picked: Vec<AtomId> = (0..n as u32)
            .filter(|_| rng.chance(35))
            .map(AtomId)
            .collect();
        if allow_empty || !picked.is_empty() {
            return picked;
        }
    }
}

fn edges(atoms: &[AtomId]) -> EdgeSet {
    atoms.iter().map(|a| EdgeId(a.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `vertex_cost` (miss and memo hit), with and without an index
    /// catalog, `assume_optimize` on and off.
    #[test]
    fn vertex_costs_are_bit_identical(seed in any::<u64>(), atoms in 3usize..=10) {
        let Case { query, stats, indexes } = random_case(seed, atoms, false);
        let h = query.hypergraph().hypergraph;
        let mut rng = Rng::new(seed ^ 0x5eed);
        for catalog in [&[][..], &indexes[..]] {
            for assume_optimize in [true, false] {
                let model = StatsDecompCost::new(&stats, &query)
                    .with_assume_optimize(assume_optimize)
                    .with_indexes(catalog);
                let old = reference::Model {
                    stats: &stats,
                    query: &query,
                    assume_optimize,
                    indexed: catalog
                        .iter()
                        .map(|(t, c)| (t.to_lowercase(), c.to_lowercase()))
                        .collect(),
                };
                for _ in 0..12 {
                    let lambda = random_atoms(&mut rng, atoms, false);
                    let assigned = random_atoms(&mut rng, atoms, true);
                    let want = old.vertex_cost(&lambda, &assigned).to_bits();
                    for pass in ["miss", "hit"] {
                        let got = model
                            .vertex_cost(&h, &edges(&lambda), &edges(&assigned), &VarSet::new())
                            .to_bits();
                        prop_assert_eq!(
                            got, want,
                            "{} λ={:?} assigned={:?} optimize={} indexes={:?}\n{}",
                            pass, lambda, assigned, assume_optimize, catalog, query
                        );
                    }
                }
            }
        }
    }

    /// The two consumers of the profiles outside the cost model: the
    /// answer estimate and the left-deep DP with its order cost.
    #[test]
    fn estimators_and_join_planners_are_bit_identical(seed in any::<u64>(), atoms in 3usize..=8) {
        let Case { query, stats, .. } = random_case(seed, atoms, false);

        let rows = estimate_answer_rows(&query, Some(&stats)).map(f64::to_bits);
        prop_assert_eq!(rows, reference::estimate_answer_rows(&query, &stats).map(f64::to_bits));

        let order = dp_join_order(&query, &stats);
        prop_assert_eq!(&order, &reference::dp_join_order(&query, &stats));
        prop_assert_eq!(
            order_cost(&query, &stats, &order).to_bits(),
            reference::order_cost(&query, &stats, &order).to_bits()
        );
    }
}
