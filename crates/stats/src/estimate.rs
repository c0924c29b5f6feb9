//! Cardinality estimation with the textbook formulas the paper's cost
//! model relies on ([Garcia-Molina/Ullman/Widom; Ioannidis]):
//!
//! - equality filter: `1 / V(R, a)`;
//! - range filter: histogram fraction, else linear interpolation on
//!   min/max, else the classic 1/3 default;
//! - natural join on variable `v`: `|R||S| / max(V(R,v), V(S,v))`,
//!   multiplying over shared variables.

use crate::stats::DbStats;
use htqo_cq::{AtomId, CmpOp, ConjunctiveQuery, Literal};
use htqo_engine::value::Value;
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Fallback selectivity for range predicates with no usable statistics.
pub const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Fallback selectivity for equality predicates with no statistics.
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.01;

/// Dense id of a query variable inside one [`QueryProfiles`]. Ids follow
/// variable-*name* order, so walking a profile by id visits its variables
/// in the order the estimator's floating-point formulas are defined over.
pub type VarId = u32;

/// Estimated profile of a (possibly intermediate) relation over query
/// variables: cardinality plus per-variable distinct counts.
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    /// Estimated row count.
    pub card: f64,
    /// Estimated distinct values per variable, sorted by variable id.
    distinct: Vec<(VarId, f64)>,
}

impl Profile {
    /// Variables of the profile, in id order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.distinct.iter().map(|&(v, _)| v)
    }

    /// True if the profile binds `v`.
    pub fn has_var(&self, v: VarId) -> bool {
        self.raw_distinct(v).is_some()
    }

    fn raw_distinct(&self, v: VarId) -> Option<f64> {
        self.distinct
            .binary_search_by_key(&v, |&(id, _)| id)
            .ok()
            .map(|i| self.distinct[i].1)
    }
}

/// A query compiled against the statistics: variable names interned to
/// dense ids once, each atom's post-filter [`Profile`] resolved on first
/// use and kept. Every estimator in the workspace prices through this —
/// a profile is derived from the statistics at most once per query.
pub struct QueryProfiles<'a> {
    stats: &'a DbStats,
    query: &'a ConjunctiveQuery,
    /// Variable names in sorted order; a variable's id is its index here.
    vars: Vec<&'a str>,
    atoms: Vec<OnceLock<Profile>>,
}

impl<'a> QueryProfiles<'a> {
    /// Interns `query`'s variables; atom profiles are built lazily.
    pub fn new(stats: &'a DbStats, query: &'a ConjunctiveQuery) -> Self {
        let mut vars: Vec<&str> = query
            .atoms
            .iter()
            .flat_map(|atom| atom.args.iter().map(|(_, var)| var.as_str()))
            .collect();
        // Join chains repeat a variable in adjacent atoms: dropping those
        // runs first roughly halves the (string-comparing) sort.
        vars.dedup();
        vars.sort_unstable();
        vars.dedup();
        QueryProfiles {
            stats,
            query,
            vars,
            atoms: query.atoms.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// The id of the variable named `name`, if some atom binds it.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars.binary_search(&name).ok().map(|i| i as VarId)
    }

    /// Distinct count of the variable named `name` in `p`, capped at the
    /// cardinality — the estimator's default when `p` does not bind it.
    pub fn distinct_by_name(&self, p: &Profile, name: &str) -> f64 {
        self.var_id(name)
            .and_then(|v| p.raw_distinct(v))
            .unwrap_or(DEFAULT_EQ_SELECTIVITY.recip())
            .min(p.card.max(1.0))
    }

    /// The estimated profile of atom `a` after its filters.
    pub fn atom(&self, a: AtomId) -> &Profile {
        self.atoms[a.index()].get_or_init(|| self.compile_atom(a))
    }

    fn compile_atom(&self, a: AtomId) -> Profile {
        let q = self.query;
        let atom = q.atom(a);
        let table = self.stats.table(&atom.relation);
        let base_rows = table.map(|t| t.rows as f64).unwrap_or(1000.0).max(1.0);

        // Filter selectivities multiply.
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

        let mut distinct: Vec<(VarId, f64)> = Vec::with_capacity(atom.args.len());
        for (column, var) in &atom.args {
            let d = table
                .and_then(|t| t.column(column))
                .map(|c| c.distinct.max(1) as f64)
                .unwrap_or_else(|| {
                    if column == htqo_cq::isolator::ROWID_COLUMN {
                        base_rows // the hidden rowid is a key
                    } else {
                        100.0
                    }
                });
            // Filters reduce distinct counts proportionally (standard
            // assumption), capped at the cardinality.
            let reduced = (d * selectivity).max(1.0).min(card);
            let id = self.var_id(var).expect("atom variables are interned");
            // A variable repeated inside the atom keeps its smallest count.
            match distinct.iter_mut().find(|(v, _)| *v == id) {
                Some((_, cur)) => *cur = cur.min(reduced),
                None => distinct.push((id, reduced)),
            }
        }
        distinct.sort_unstable_by_key(|&(v, _)| v);
        Profile { card, distinct }
    }
}

fn range_fraction(col: Option<&crate::stats::ColumnStats>, bound: &Literal, below: bool) -> f64 {
    let Some(col) = col else {
        return DEFAULT_RANGE_SELECTIVITY;
    };
    let bound_v: Value = bound.into();
    if let Some(h) = &col.histogram {
        let frac = h.fraction_below(&bound_v);
        let f = if below { frac } else { 1.0 - frac };
        return f.clamp(0.0, 1.0).max(1e-6);
    }
    // Linear interpolation between min and max for numeric/date columns.
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

/// Estimated profile of the natural join of two profiles (of the same
/// [`QueryProfiles`]): one merge over the two id-sorted variable lists.
/// Shared variables divide the cardinality in id — that is, name — order,
/// which fixes the floating-point result.
pub fn join_profiles(a: &Profile, b: &Profile) -> Profile {
    let (cap_a, cap_b) = (a.card.max(1.0), b.card.max(1.0));
    let mut card = a.card * b.card;
    let mut distinct = Vec::with_capacity(a.distinct.len() + b.distinct.len());
    let (mut i, mut j) = (0, 0);
    while i < a.distinct.len() && j < b.distinct.len() {
        let ((va, da), (vb, db)) = (a.distinct[i], b.distinct[j]);
        match va.cmp(&vb) {
            Ordering::Less => {
                distinct.push((va, da));
                i += 1;
            }
            Ordering::Greater => {
                distinct.push((vb, db));
                j += 1;
            }
            Ordering::Equal => {
                card /= da.min(cap_a).max(db.min(cap_b)).max(1.0);
                distinct.push((va, da.min(db)));
                i += 1;
                j += 1;
            }
        }
    }
    distinct.extend_from_slice(&a.distinct[i..]);
    distinct.extend_from_slice(&b.distinct[j..]);
    card = card.max(1.0);
    for (_, d) in &mut distinct {
        *d = d.min(card);
    }
    Profile { card, distinct }
}

/// Estimated cost (in materialized tuples, the same unit the engine's
/// budget charges) of joining `profiles` left-deep in the given order:
/// the sum of all intermediate and final result sizes.
pub fn left_deep_cost(profiles: &[&Profile]) -> f64 {
    let Some(&first) = profiles.first() else {
        return 0.0;
    };
    let mut acc = first.clone();
    let mut cost = acc.card;
    for &p in &profiles[1..] {
        acc = join_profiles(&acc, p);
        cost += acc.card;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use htqo_cq::CqBuilder;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Database, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::new(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
        ]));
        for i in 0..100 {
            r.push_row(vec![Value::Int(i % 20), Value::Int(i % 10)])
                .unwrap();
        }
        db.insert_table("r", r);
        let mut s = Relation::new(Schema::new(&[
            ("b", ColumnType::Int),
            ("c", ColumnType::Int),
        ]));
        for i in 0..50 {
            s.push_row(vec![Value::Int(i % 10), Value::Int(i)]).unwrap();
        }
        db.insert_table("s", s);
        db
    }

    fn q() -> htqo_cq::ConjunctiveQuery {
        CqBuilder::new()
            .atom("r", "r", &[("a", "A"), ("b", "B")])
            .atom("s", "s", &[("b", "B"), ("c", "C")])
            .out_var("A")
            .build()
    }

    #[test]
    fn atom_profile_uses_real_stats() {
        let (stats, query) = (analyze(&db()), q());
        let profiles = QueryProfiles::new(&stats, &query);
        let p = profiles.atom(AtomId(0));
        assert_eq!(p.card, 100.0);
        assert_eq!(profiles.distinct_by_name(p, "A"), 20.0);
        assert_eq!(profiles.distinct_by_name(p, "B"), 10.0);
        // Ids follow name order; a name no atom binds gets the default.
        assert_eq!(profiles.var_id("A"), Some(0));
        assert_eq!(profiles.var_id("C"), Some(2));
        assert_eq!(profiles.var_id("Z"), None);
        assert_eq!(profiles.distinct_by_name(p, "Z"), 100.0);
    }

    #[test]
    fn eq_filter_scales_cardinality() {
        let stats = analyze(&db());
        let qf = CqBuilder::new()
            .atom("r", "r", &[("a", "A")])
            .out_var("A")
            .filter(0, "a", CmpOp::Eq, Literal::Int(3))
            .build();
        let p = QueryProfiles::new(&stats, &qf).atom(AtomId(0)).clone();
        // 100 rows / 20 distinct = 5.
        assert!((p.card - 5.0).abs() < 1e-9);
    }

    #[test]
    fn range_filter_uses_histogram() {
        let stats = analyze(&db());
        let qf = CqBuilder::new()
            .atom("r", "r", &[("a", "A")])
            .out_var("A")
            .filter(0, "a", CmpOp::Lt, Literal::Int(10))
            .build();
        let p = QueryProfiles::new(&stats, &qf).atom(AtomId(0)).clone();
        // Half the domain: roughly 50 rows.
        assert!(p.card > 25.0 && p.card < 75.0, "card = {}", p.card);
    }

    #[test]
    fn join_estimate_classic_formula() {
        let (stats, query) = (analyze(&db()), q());
        let profiles = QueryProfiles::new(&stats, &query);
        let j = join_profiles(profiles.atom(AtomId(0)), profiles.atom(AtomId(1)));
        // 100 * 50 / max(10, 10) = 500.
        assert!((j.card - 500.0).abs() < 1e-9);
        assert!(j.has_var(profiles.var_id("C").unwrap()));
        assert_eq!(j.vars().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn repeated_variable_keeps_the_smaller_distinct_count() {
        let stats = analyze(&db());
        let qr = CqBuilder::new()
            .atom("r", "r", &[("a", "X"), ("b", "X")])
            .out_var("X")
            .build();
        let profiles = QueryProfiles::new(&stats, &qr);
        let p = profiles.atom(AtomId(0));
        assert_eq!(p.vars().count(), 1);
        assert_eq!(profiles.distinct_by_name(p, "X"), 10.0);
    }

    #[test]
    fn left_deep_cost_sums_intermediates() {
        let (stats, query) = (analyze(&db()), q());
        let profiles = QueryProfiles::new(&stats, &query);
        let (pr, ps) = (profiles.atom(AtomId(0)), profiles.atom(AtomId(1)));
        let c = left_deep_cost(&[pr, ps]);
        assert!((c - 600.0).abs() < 1e-9); // 100 + 500
        assert_eq!(left_deep_cost(&[]), 0.0);
        assert_eq!(left_deep_cost(&[pr]), 100.0);
    }

    #[test]
    fn missing_stats_fall_back_to_defaults() {
        let (stats, query) = (DbStats::default(), q());
        let p = QueryProfiles::new(&stats, &query).atom(AtomId(0)).clone();
        assert_eq!(p.card, 1000.0);
    }

    #[test]
    fn rowid_column_is_a_key() {
        let stats = analyze(&db());
        let qr = CqBuilder::new()
            .atom(
                "r",
                "r",
                &[("a", "A"), (htqo_cq::isolator::ROWID_COLUMN, "RID")],
            )
            .out_var("A")
            .build();
        let profiles = QueryProfiles::new(&stats, &qr);
        assert_eq!(
            profiles.distinct_by_name(profiles.atom(AtomId(0)), "RID"),
            100.0
        );
    }
}
