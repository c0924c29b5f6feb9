//! The scan's typed predicate kernels against the per-row reference.
//!
//! `scan_atom_c` filters column-at-a-time ([`Column::select`]) and shares
//! the stored columns when every row survives. The reference here is the
//! loop the scan used to run: for each row, every filter through
//! `cmp_matches(op, cmp_value(..))` and every repeated variable through
//! `eq_at`. Rows, their order, and the tuple charge must agree exactly.

use htqo_cq::{Atom, AtomId, CmpOp, Filter, Literal};
use htqo_engine::column::Column;
use htqo_engine::crel::CRel;
use htqo_engine::dict;
use htqo_engine::error::{Budget, EvalError};
use htqo_engine::expr::cmp_matches;
use htqo_engine::relation::Relation;
use htqo_engine::scan::scan_atom_c;
use htqo_engine::schema::{ColumnType, Database, Schema};
use htqo_engine::value::{Row, Value};
use htqo_engine::vrel::VRelation;
use proptest::prelude::*;
use std::sync::Arc;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn arb_op() -> impl Strategy<Value = CmpOp> {
    (0usize..OPS.len()).prop_map(|i| OPS[i])
}

/// Floats from a small pool with the awkward members in it, so equality
/// filters hit and `total_cmp` is exercised on NaN and signed zeros.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => (-3i64..4).prop_map(|i| i as f64 / 2.0),
        1 => Just(f64::NAN),
        1 => Just(-0.0f64),
        1 => Just(0.0f64),
        1 => Just(f64::INFINITY),
    ]
}

/// Strings from a pool with duplicates; `""` sorts first.
fn arb_str() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("alpha".to_string()),
        Just("beta".to_string()),
        Just(String::new()),
        "[a-c]{1,2}".prop_map(|s| s),
    ]
}

/// One stored row of the schema in [`relation_of`] (`None` = NULL).
type RowSpec = (
    Option<i64>,
    Option<i64>,
    Option<f64>,
    Option<String>,
    Option<String>,
    Option<i32>,
);

fn arb_row() -> impl Strategy<Value = RowSpec> {
    (
        prop::option::of(-3i64..4),
        prop::option::of(-3i64..4),
        prop::option::of(arb_float()),
        prop::option::of(arb_str()),
        prop::option::of(arb_str()),
        prop::option::of(-3i32..4),
    )
}

fn relation_of(rows: &[RowSpec]) -> Relation {
    let mut rel = Relation::new(Schema::new(&[
        ("i", ColumnType::Int),
        ("j", ColumnType::Int),
        ("f", ColumnType::Float),
        ("s", ColumnType::Str),
        ("t", ColumnType::Str),
        ("d", ColumnType::Date),
        ("id", ColumnType::Int),
    ]));
    let cell = |v: Option<Value>| v.unwrap_or(Value::Null);
    rel.extend_rows(rows.iter().enumerate().map(|(r, (i, j, f, s, t, d))| {
        vec![
            cell(i.map(Value::Int)),
            cell(j.map(Value::Int)),
            cell(f.map(Value::Float)),
            cell(s.as_deref().map(Value::str)),
            cell(t.as_deref().map(Value::str)),
            cell(d.map(Value::Date)),
            Value::Int(r as i64),
        ]
    }))
    .unwrap();
    rel
}

/// A string no relation holds, so the dictionary has no code for it.
const NEVER_INTERNED: &str = "scan-kernels-never-interned";

/// A filter constant of any type — so every column also meets constants
/// it cannot be compared with — including a string no relation holds.
fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        3 => (-3i64..4).prop_map(Literal::Int),
        3 => arb_float().prop_map(Literal::Float),
        3 => arb_str().prop_map(Literal::Str),
        1 => Just(Literal::Str(NEVER_INTERNED.to_string())),
        2 => (-3i32..4).prop_map(Literal::Date),
    ]
}

/// The columns of [`relation_of`] filters are drawn on (all but its key,
/// `id`, the row's position).
const COLUMNS: [&str; 6] = ["i", "j", "f", "s", "t", "d"];

/// A filter on any column. Four times in five the constant is one the
/// column can be compared with (Int and Float columns take either numeric
/// type), so conjunctions keep rows; otherwise it is of any type.
fn arb_filter() -> impl Strategy<Value = Filter> {
    filter_on(0usize..COLUMNS.len(), 0u32..5)
}

/// A filter on a column drawn from `column`, whose constant is of any type
/// where `pick` draws 0 and one the column can be compared with otherwise.
fn filter_on(
    column: impl Strategy<Value = usize>,
    pick: impl Strategy<Value = u32>,
) -> impl Strategy<Value = Filter> {
    let string = prop_oneof![
        4 => arb_str(),
        1 => Just(NEVER_INTERNED.to_string()),
    ];
    let comparable = (-3i64..4, arb_float(), string, -3i32..4, any::<bool>());
    (column, arb_op(), comparable, arb_literal(), pick).prop_map(
        |(c, op, (int, float, string, date, as_float), any, pick)| {
            let value = match (pick, COLUMNS[c]) {
                (0, _) => any,
                (_, "i" | "j" | "f") if as_float => Literal::Float(float),
                (_, "i" | "j" | "f") => Literal::Int(int),
                (_, "d") => Literal::Date(date),
                _ => Literal::Str(string),
            };
            Filter {
                atom: AtomId(0),
                column: COLUMNS[c].to_string(),
                op,
                value,
            }
        },
    )
}

/// The rows the scan must return, by the per-row reference.
fn reference_scan(rel: &Relation, atom: &Atom, filters: &[Filter]) -> Vec<Row> {
    let schema = rel.schema();
    let col = |name: &str| rel.column(schema.index_of(name).unwrap());
    // Output variables in first-occurrence order; a repeated variable
    // constrains its columns to be equal.
    let mut out: Vec<(&str, &str)> = Vec::new();
    let mut equal: Vec<(&str, &str)> = Vec::new();
    for (column, var) in &atom.args {
        match out.iter().find(|(_, v)| v == var) {
            Some((first, _)) => equal.push((first, column)),
            None => out.push((column, var)),
        }
    }
    let constants: Vec<Value> = filters.iter().map(|f| Value::from(&f.value)).collect();
    let reader = dict::reader();
    let mut rows = Vec::new();
    for r in 0..rel.len() {
        let keep = filters
            .iter()
            .zip(&constants)
            .all(|(f, c)| cmp_matches(f.op, col(&f.column).cmp_value(r, c, &reader)))
            && equal
                .iter()
                .all(|(a, b)| col(a).eq_at(r, col(b), r, &reader));
        if keep {
            let row: Vec<Value> = out
                .iter()
                .map(|(column, _)| col(column).value_with(r, &reader))
                .collect();
            rows.push(row.into_boxed_slice());
        }
    }
    rows
}

/// 2–3 filters whose constants their columns can be compared with: on one
/// column drawn once, or on columns `c, c + 1, c + 2` (mod 6).
fn arb_conjunction() -> impl Strategy<Value = Vec<Filter>> {
    (0usize..COLUMNS.len(), any::<bool>(), any::<bool>()).prop_flat_map(|(c, same, three)| {
        let on = |k: usize| {
            filter_on(
                Just(if same { c } else { (c + k) % COLUMNS.len() }),
                1u32..5,
            )
        };
        (on(0), on(1), on(2)).prop_map(
            move |(a, b, d)| {
                if three {
                    vec![a, b, d]
                } else {
                    vec![a, b]
                }
            },
        )
    })
}

/// Scans `rows` through `atom` with `filters` and requires the reference's
/// rows, in order, and a tuple charge of one per row.
fn scan_matches_reference(
    rows: &[RowSpec],
    atom: &Atom,
    filters: &[Filter],
) -> Result<(), TestCaseError> {
    let rel = relation_of(rows);
    let want = reference_scan(&rel, atom, filters);
    let mut db = Database::new();
    db.insert_table("r", rel);
    let filter_refs: Vec<&Filter> = filters.iter().collect();
    let mut budget = Budget::unlimited();
    let got = scan_atom_c(&db, atom, &filter_refs, &mut budget).unwrap();
    prop_assert_eq!(got.len(), want.len());
    prop_assert_eq!(budget.charged(), want.len() as u64);
    // Cell-for-cell, NaN included (`Value` equality treats NaNs as equal).
    let got = got.to_vrel();
    prop_assert_eq!(got.rows(), want.as_slice());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Kernel scan ≡ per-row reference: same rows in the same order and
    /// the same tuple charge, over typed columns with NULLs, NaN/±0.0,
    /// duplicate and never-interned strings, every operator, Int-vs-Float
    /// and type-mismatched constants, 0–3 filters, repeated variables and
    /// the key column.
    #[test]
    fn scan_kernels_match_reference(
        rows in prop::collection::vec(arb_row(), 0..40),
        filters in prop::collection::vec(arb_filter(), 0..4),
        repeat in 0u32..6,
        key in any::<bool>(),
    ) {
        let (repeat_int, repeat_str) = (repeat == 0, repeat == 1);
        let mut args: Vec<(String, String)> = vec![
            ("i".into(), "I".into()),
            ("f".into(), "F".into()),
            ("s".into(), "S".into()),
        ];
        if key {
            args.push(("id".into(), "RID".into()));
        }
        args.push(("j".into(), if repeat_int { "I" } else { "J" }.into()));
        args.push(("t".into(), if repeat_str { "S" } else { "T" }.into()));
        args.push(("d".into(), "D".into()));
        let atom = Atom { relation: "r".into(), alias: "r".into(), args };
        scan_matches_reference(&rows, &atom, &filters)?;
    }

    /// Chained filters ≡ per-row reference: 2–3 filters with comparable
    /// constants, all on one column (ranges, `<>` inside them, equality on
    /// strings) or on different columns, over columns with NULLs. Every
    /// filter after the first compacts the selection the earlier ones left.
    #[test]
    fn chained_filters_match_reference(
        rows in prop::collection::vec(arb_row(), 0..80),
        filters in arb_conjunction(),
    ) {
        let args = COLUMNS.iter().map(|c| (c.to_string(), c.to_uppercase())).collect();
        let atom = Atom { relation: "r".into(), alias: "r".into(), args };
        scan_matches_reference(&rows, &atom, &filters)?;
    }

    /// The kernel on a heterogeneous (`Mixed`) column — which base
    /// relations never hold — falls back per cell, first from all rows and
    /// then refining a prior selection.
    #[test]
    fn mixed_column_kernel_matches_reference(
        cells in prop::collection::vec(
            prop_oneof![
                1 => Just(Value::Null),
                2 => (-3i64..4).prop_map(Value::Int),
                2 => arb_float().prop_map(Value::Float),
                2 => arb_str().prop_map(|s| Value::str(&s)),
                1 => (-3i32..4).prop_map(Value::Date),
            ],
            0..30,
        ),
        op in arb_op(),
        constant in arb_literal(),
    ) {
        let v = VRelation::from_rows(
            vec!["x".into()],
            cells.iter().map(|c| vec![c.clone()].into_boxed_slice()).collect(),
        );
        let crel = CRel::from_vrel(&v);
        let column: &Column = crel.column(0);
        let constant = Value::from(&constant);
        let reader = dict::reader();
        let want: Vec<u32> = (0..cells.len() as u32)
            .filter(|&i| cmp_matches(op, column.cmp_value(i as usize, &constant, &reader)))
            .collect();
        prop_assert_eq!(&column.select(op, &constant, None, &reader), &want);
        let odd: Vec<u32> = (0..cells.len() as u32).filter(|i| i % 2 == 1).collect();
        let want_odd: Vec<u32> = want.iter().copied().filter(|i| i % 2 == 1).collect();
        prop_assert_eq!(column.select(op, &constant, Some(odd), &reader), want_odd);
    }
}

/// `lineitem`-like table: 100 rows, `k` cycling through 0..10.
fn db() -> Database {
    let mut rel = Relation::new(Schema::new(&[
        ("k", ColumnType::Int),
        ("name", ColumnType::Str),
        ("price", ColumnType::Float),
    ]));
    rel.extend_rows((0..100i64).map(|i| {
        vec![
            Value::Int(i % 10),
            Value::str(&format!("n{}", i % 7)),
            Value::Float(i as f64),
        ]
    }))
    .unwrap();
    let mut db = Database::new();
    db.insert_table("t", rel);
    db
}

fn atom(args: &[(&str, &str)]) -> Atom {
    Atom {
        relation: "t".into(),
        alias: "t".into(),
        args: args
            .iter()
            .map(|(c, v)| (c.to_string(), v.to_string()))
            .collect(),
    }
}

fn filter(column: &str, op: CmpOp, value: Literal) -> Filter {
    Filter {
        atom: AtomId(0),
        column: column.into(),
        op,
        value,
    }
}

#[test]
fn unfiltered_scan_shares_storage_and_charges_no_bytes() {
    let db = db();
    let rel = db.table("t").unwrap();
    let mut budget = Budget::unlimited();
    let out = scan_atom_c(&db, &atom(&[("price", "P"), ("k", "K")]), &[], &mut budget).unwrap();
    assert_eq!(out.len(), 100);
    assert!(Arc::ptr_eq(&out.columns()[0], rel.shared_column(2)));
    assert!(Arc::ptr_eq(&out.columns()[1], rel.shared_column(0)));
    assert_eq!(budget.charged(), 100);
    assert_eq!(budget.mem_used(), 0, "nothing new is resident");

    // A filter that happens to keep every row shares too.
    let keep_all = filter("k", CmpOp::Ge, Literal::Int(0));
    let out = scan_atom_c(&db, &atom(&[("name", "N")]), &[&keep_all], &mut budget).unwrap();
    assert!(Arc::ptr_eq(&out.columns()[0], rel.shared_column(1)));
    assert_eq!(budget.mem_used(), 0);
}

#[test]
fn filtered_scan_charges_what_it_gathers() {
    let db = db();
    let mut budget = Budget::unlimited();
    let f = filter("k", CmpOp::Lt, Literal::Int(3));
    let out = scan_atom_c(
        &db,
        &atom(&[("price", "P"), ("name", "N")]),
        &[&f],
        &mut budget,
    )
    .unwrap();
    assert_eq!(out.len(), 30);
    assert_eq!(budget.charged(), 30);
    assert_eq!(budget.mem_used(), 30 * (8 + 4), "f64 prices + u32 codes");

    let mut tight = Budget::unlimited().with_mem_limit(30 * 12 - 1);
    let err = scan_atom_c(
        &db,
        &atom(&[("price", "P"), ("name", "N")]),
        &[&f],
        &mut tight,
    )
    .unwrap_err();
    assert!(matches!(err, EvalError::MemoryExceeded { .. }), "{err:?}");
}

#[test]
fn tuple_limit_below_the_survivor_count_is_exceeded() {
    let db = db();
    let f = filter("name", CmpOp::Eq, Literal::Str("n3".into()));
    let survivors = (0..100).filter(|i| i % 7 == 3).count() as u64;
    let scan = |limit: u64| {
        let mut budget = Budget::unlimited().with_max_tuples(limit);
        scan_atom_c(&db, &atom(&[("k", "K")]), &[&f], &mut budget)
    };
    assert_eq!(scan(survivors).unwrap().len() as u64, survivors);
    assert_eq!(
        scan(survivors - 1).unwrap_err(),
        EvalError::TupleBudgetExceeded {
            limit: survivors - 1
        }
    );
    // The unfiltered, storage-sharing scan charges its tuples as well.
    let mut budget = Budget::unlimited().with_max_tuples(99);
    assert_eq!(
        scan_atom_c(&db, &atom(&[("k", "K")]), &[], &mut budget).unwrap_err(),
        EvalError::TupleBudgetExceeded { limit: 99 }
    );
}
