//! Property tests for the columnar storage layer: row↔columnar
//! round-trips (NULLs, NaN floats, duplicate strings, mixed-type
//! columns) and the columnar kernels against the row kernels as the
//! oracle (the join against the nested-loop reference).

use htqo_engine::crel::CRel;
use htqo_engine::error::Budget;
use htqo_engine::ops::{nested_loop_join, semijoin};
use htqo_engine::relation::Relation;
use htqo_engine::schema::{ColumnType, Schema};
use htqo_engine::value::Value;
use htqo_engine::vrel::VRelation;
use htqo_engine::{cops, ops};
use proptest::prelude::*;

/// An arbitrary cell: NULLs, negative ints, floats including NaN, ±0.0
/// and infinities, strings from a tiny pool (dictionary codes repeat),
/// and dates.
fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        3 => any::<i64>().prop_map(Value::Int),
        2 => prop_oneof![
            any::<f64>().prop_map(Value::Float),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::INFINITY)),
        ],
        3 => prop_oneof![
            Just(Value::str("alpha")),
            Just(Value::str("beta")),
            Just(Value::str("")),
            "[a-c]{1,4}".prop_map(|s| Value::str(&s)),
        ],
        1 => (-40000i32..40000).prop_map(Value::Date),
    ]
}

/// An arbitrary intermediate relation over a prefix of `names`, with
/// heterogeneous columns (each cell drawn independently).
fn arb_mixed_vrel(names: &'static [&'static str]) -> impl Strategy<Value = VRelation> {
    let max = names.len();
    (1usize..=max).prop_flat_map(move |ncols| {
        prop::collection::vec(prop::collection::vec(arb_cell(), ncols), 0..25).prop_map(
            move |rows| {
                let cols: Vec<String> = names[..ncols].iter().map(|s| s.to_string()).collect();
                VRelation::from_rows(
                    cols,
                    rows.into_iter().map(|r| r.into_boxed_slice()).collect(),
                )
            },
        )
    })
}

proptest! {
    /// `CRel::from_vrel` ∘ `CRel::to_vrel` is the identity on arbitrary
    /// row data — NULLs, NaNs, duplicate strings, mixed-type columns.
    #[test]
    fn crel_roundtrip_is_identity(v in arb_mixed_vrel(&["x", "y", "z"])) {
        let c = CRel::from_vrel(&v);
        prop_assert_eq!(c.len(), v.len());
        prop_assert_eq!(c.to_vrel(), v);
    }

    /// Typed base-relation storage round-trips through the columns:
    /// nullable Int/Float/Str/Date columns with duplicate strings.
    #[test]
    fn relation_roundtrip_is_identity(
        rows in prop::collection::vec(
            (
                any::<Option<i64>>(),
                prop::option::of(prop_oneof![
                    any::<f64>(),
                    Just(f64::NAN),
                    Just(-0.0f64),
                ]),
                prop::option::of(prop_oneof![
                    Just("dup".to_string()),
                    "[a-d]{0,5}".prop_map(|s| s),
                ]),
                any::<Option<i32>>(),
            ),
            0..30,
        )
    ) {
        let mut rel = Relation::new(Schema::new(&[
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("s", ColumnType::Str),
            ("d", ColumnType::Date),
        ]));
        let rows: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|(i, f, s, d)| {
                vec![
                    i.map(Value::Int).unwrap_or(Value::Null),
                    f.map(Value::Float).unwrap_or(Value::Null),
                    s.map(|s| Value::str(&s)).unwrap_or(Value::Null),
                    d.map(Value::Date).unwrap_or(Value::Null),
                ]
            })
            .collect();
        rel.extend_rows(rows.clone()).unwrap();
        let back = rel.to_rows();
        prop_assert_eq!(back.len(), rows.len());
        for (got, want) in back.iter().zip(&rows) {
            prop_assert_eq!(got.as_ref(), want.as_slice());
        }
    }

    /// Columnar natural join ≡ the nested-loop reference join: same
    /// columns, same bag of rows, same budget charges.
    #[test]
    fn columnar_join_matches_nested_loop_reference(
        a in arb_mixed_vrel(&["x", "y", "z"]),
        b in arb_mixed_vrel(&["y", "z", "w"]),
    ) {
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let reference = nested_loop_join(&a, &b, &mut b1).unwrap();
        let col = cops::natural_join(&CRel::from_vrel(&a), &CRel::from_vrel(&b), &mut b2)
            .unwrap()
            .to_vrel();
        prop_assert_eq!(reference.cols(), col.cols());
        prop_assert_eq!(reference.sorted_rows(), col.sorted_rows());
        prop_assert_eq!(b1.charged(), b2.charged());
    }

    /// Columnar semijoin ≡ row semijoin.
    #[test]
    fn columnar_semijoin_matches_row_kernel(
        a in arb_mixed_vrel(&["x", "y"]),
        b in arb_mixed_vrel(&["y", "w"]),
    ) {
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let row = semijoin(&a, &b, &mut b1).unwrap();
        let col = cops::semijoin(&CRel::from_vrel(&a), &CRel::from_vrel(&b), &mut b2)
            .unwrap()
            .to_vrel();
        prop_assert_eq!(row.sorted_rows(), col.sorted_rows());
        prop_assert_eq!(b1.charged(), b2.charged());
    }

    /// Columnar distinct projection ≡ row projection (first-seen order is
    /// part of the contract, so compare rows exactly, not as sets).
    #[test]
    fn columnar_project_matches_row_kernel(a in arb_mixed_vrel(&["x", "y", "z"])) {
        let keep: Vec<String> = a.cols()[..1.min(a.cols().len())].to_vec();
        for distinct in [true, false] {
            let mut b1 = Budget::unlimited();
            let mut b2 = Budget::unlimited();
            let row = ops::project(&a, &keep, distinct, &mut b1).unwrap();
            let col = cops::project(&CRel::from_vrel(&a), &keep, distinct, &mut b2)
                .unwrap()
                .to_vrel();
            prop_assert_eq!(&row, &col);
            prop_assert_eq!(b1.charged(), b2.charged());
        }
    }
}
