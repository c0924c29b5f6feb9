//! Property tests for the relational operators (`cops`): the hash join
//! against a nested-loop oracle, algebraic identities, and budget
//! accounting.

use htqo_engine::cops::{natural_join, project, semijoin};
use htqo_engine::crel::CRel;
use htqo_engine::error::Budget;
use htqo_engine::value::Value;
use htqo_engine::vrel::{nested_loop_join, VRelation};
use proptest::prelude::*;

/// A random small relation over a subset of the variables {x, y, z, w}.
fn arb_vrel() -> impl Strategy<Value = VRelation> {
    (
        1usize..=3,
        prop::collection::vec(prop::collection::vec(0i64..5, 3), 0..25),
    )
        .prop_map(|(ncols, rows)| {
            let names = ["x", "y", "z"];
            let cols: Vec<String> = names[..ncols].iter().map(|s| s.to_string()).collect();
            VRelation::from_rows(
                cols,
                rows.into_iter()
                    .map(|r| r[..ncols].iter().map(|&i| Value::Int(i)).collect())
                    .collect(),
            )
        })
}

/// Like [`arb_vrel`] but over {y, z, w} so joins share a varying subset.
fn arb_vrel_shifted() -> impl Strategy<Value = VRelation> {
    (
        1usize..=3,
        prop::collection::vec(prop::collection::vec(0i64..5, 3), 0..25),
    )
        .prop_map(|(ncols, rows)| {
            let names = ["y", "z", "w"];
            let cols: Vec<String> = names[..ncols].iter().map(|s| s.to_string()).collect();
            VRelation::from_rows(
                cols,
                rows.into_iter()
                    .map(|r| r[..ncols].iter().map(|&i| Value::Int(i)).collect())
                    .collect(),
            )
        })
}

/// The columnar form of a generated relation.
fn c(v: &VRelation) -> CRel {
    CRel::from_vrel(v)
}

proptest! {
    /// Hash join ≡ nested-loop join.
    #[test]
    fn hash_join_matches_nested_loop(a in arb_vrel(), b in arb_vrel_shifted()) {
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let hash = natural_join(&c(&a), &c(&b), &mut b1).unwrap().to_vrel();
        let nl = nested_loop_join(&a, &b, &mut b2).unwrap();
        // Bag equality: sort both row vectors.
        prop_assert_eq!(hash.cols(), nl.cols());
        prop_assert_eq!(hash.sorted_rows(), nl.sorted_rows());
        // Both charge one unit per produced row.
        prop_assert_eq!(b1.charged(), hash.len() as u64);
        prop_assert_eq!(b2.charged(), nl.len() as u64);
    }

    /// Join is commutative up to column order.
    #[test]
    fn join_commutative(a in arb_vrel(), b in arb_vrel_shifted()) {
        let mut budget = Budget::unlimited();
        let ab = natural_join(&c(&a), &c(&b), &mut budget).unwrap().to_vrel();
        let ba = natural_join(&c(&b), &c(&a), &mut budget).unwrap().to_vrel();
        prop_assert_eq!(ab.len(), ba.len());
        let mut ab_d = ab.clone();
        let mut ba_d = ba.clone();
        ab_d.dedup();
        ba_d.dedup();
        prop_assert!(ab_d.set_eq(&ba_d));
    }

    /// Semijoin is the projection of the join onto the left columns.
    #[test]
    fn semijoin_is_projected_join(a in arb_vrel(), b in arb_vrel_shifted()) {
        let mut budget = Budget::unlimited();
        let semi = semijoin(&c(&a), &c(&b), &mut budget).unwrap().to_vrel();
        let join = natural_join(&c(&a), &c(&b), &mut budget).unwrap();
        let projected = project(&join, a.cols(), true, &mut budget).unwrap().to_vrel();
        // semi has bag semantics on `a`; compare as sets.
        let mut semi_d = semi.clone();
        semi_d.dedup();
        prop_assert!(semi_d.set_eq(&projected));
    }

    /// Joining with the neutral relation is the identity.
    #[test]
    fn neutral_identity(a in arb_vrel()) {
        let mut budget = Budget::unlimited();
        let j = natural_join(&c(&a), &CRel::neutral(), &mut budget).unwrap().to_vrel();
        prop_assert_eq!(j.sorted_rows(), a.sorted_rows());
    }

    /// Projection onto all columns (distinct) never grows the relation and
    /// is idempotent.
    #[test]
    fn project_distinct_idempotent(a in arb_vrel()) {
        let mut budget = Budget::unlimited();
        let cols = a.cols().to_vec();
        let once = project(&c(&a), &cols, true, &mut budget).unwrap();
        let twice = project(&once, &cols, true, &mut budget).unwrap();
        prop_assert!(once.len() <= a.len());
        prop_assert_eq!(once.to_vrel().sorted_rows(), twice.to_vrel().sorted_rows());
    }
}

proptest! {
    /// CSV round-trips arbitrary relations (including NULLs, quotes,
    /// commas and newline-free strings).
    #[test]
    fn csv_round_trip(rows in prop::collection::vec((any::<Option<i64>>(), "[ -~]{0,12}"), 0..30)) {
        use htqo_engine::schema::{ColumnType, Schema};
        use htqo_engine::relation::Relation;
        let mut rel = Relation::new(Schema::new(&[("n", ColumnType::Int), ("s", ColumnType::Str)]));
        for (n, s) in &rows {
            rel.push_row(vec![
                n.map(Value::Int).unwrap_or(Value::Null),
                Value::str(s),
            ])
            .unwrap();
        }
        let mut buf = Vec::new();
        htqo_engine::write_csv(&rel, &mut buf).unwrap();
        let back = htqo_engine::read_csv(&buf[..]).unwrap();
        prop_assert_eq!(back.schema(), rel.schema());
        prop_assert_eq!(back.to_rows(), rel.to_rows());
    }
}
