//! Typed ANALYZE ≡ boxed ANALYZE, exactly.
//!
//! `htqo_stats::analyze_with_buckets` reads typed columns: integer keys,
//! a counting array or a typed sort, strings compared once per distinct
//! string. `common::reference_analyze` is the pass it replaced — every
//! cell boxed, the boxes sorted by `Value`'s `Ord`, the bounds taken by
//! `EquiDepthHistogram::from_sorted`. The two must agree on
//! `DbStats::tables` under `==` (row counts, distinct, nulls, min, max,
//! every histogram bound and its row count), with no tolerance: equal
//! statistics are what make equal plans.
//!
//! Mutation checks that must fail this suite: `((b * n) / buckets).min(n -
//! 1)` for `(b * n) / buckets - 1` in `stats::bound_positions` (every
//! bound one position late); `x.to_bits()` for `norm_f64(x).to_bits()` in
//! `analyze::float_key`; dropping the `runs.sort_unstable_by` of
//! `analyze::strings` (strings ordered by dictionary code).

mod common;

use common::{reference_analyze, Rng};
use htqo_engine::relation::Relation;
use htqo_engine::schema::{ColumnType, Database, Schema};
use htqo_engine::value::Value;
use htqo_stats::analyze_with_buckets;
use proptest::prelude::*;

/// Both sides of the counting threshold (`n ≥ 64`), the degenerate sizes,
/// and sizes where a 100-bucket histogram has buckets of many rows.
const ROWS: [usize; 9] = [0, 1, 2, 63, 64, 65, 200, 1000, 3000];

fn int_cell(rng: &mut Rng, flavour: usize, n: usize) -> i64 {
    let n = n.max(1);
    match flavour {
        // Dense: a span of about n (counted when n ≥ 64).
        0 => 1000 + rng.below(n) as i64,
        // Sparse: the whole domain.
        1 => rng.next() as i64,
        2 => 42,
        // Negative and dense.
        3 => -(rng.below(n) as i64) - 1,
        // The extremes together: the span does not fit an `i64`.
        4 => [i64::MIN, i64::MAX, 0, -1, 1][rng.below(5)],
        // Few values, many duplicates.
        5 => rng.below(4) as i64 - 2,
        // Spans 2n − 1 and 2n: the last dense one and the first that is not.
        6 => [0, 2 * n as i64 - 1, rng.below(2 * n) as i64][rng.below(3)],
        _ => [0, 2 * n as i64, rng.below(2 * n) as i64][rng.below(3)],
    }
}

fn date_cell(rng: &mut Rng, flavour: usize, n: usize) -> i32 {
    match flavour {
        1 => rng.next() as i32,
        4 => [i32::MIN, i32::MAX, 0, -1, 1][rng.below(5)],
        _ => int_cell(rng, flavour, n) as i32,
    }
}

const SPECIAL_FLOATS: [f64; 14] = [
    f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    1.5,
    -1.5,
    1.0,
    2.0,
];

fn float_cell(rng: &mut Rng, flavour: usize, n: usize) -> f64 {
    match flavour % 4 {
        // Specials, heavily duplicated; NaNs of either sign and any payload.
        0 => match rng.below(16) {
            14 => f64::from_bits(0xfff8_0000_0000_0001),
            15 => f64::from_bits(0x7ff0_0000_0000_0000 | (1 + rng.next() % 0xf_ffff)),
            i => SPECIAL_FLOATS[i],
        },
        // Any bit pattern at all.
        1 => f64::from_bits(rng.next()),
        // Money: few decimals, many duplicates.
        2 => rng.below(n.max(1)) as f64 / 100.0 - 3.0,
        // Zeros of both signs beside small numbers.
        _ => [0.0, -0.0, 1.0, -1.0][rng.below(4)],
    }
}

const WORDS: [&str; 10] = [
    "",
    "a",
    "ab",
    "abc",
    "abd",
    "żółw",
    "日本語",
    "éclair",
    "Z",
    "zebra",
];

fn str_cell(rng: &mut Rng, flavour: usize, n: usize, row: usize, seed: u64) -> String {
    match flavour % 5 {
        // Shared prefixes: the comparison has to reach the tail. The
        // numbers are not padded, so content order is not numeric order.
        0 => format!("shared-prefix-{}", rng.below(n.max(1))),
        // The empty string, non-ASCII text, one-letter neighbours.
        1 => WORDS[rng.below(WORDS.len())].to_string(),
        2 => "all-equal".to_string(),
        // All distinct, interned in an order that is not content order.
        3 => format!("{:x}-{seed:x}-{row}", rng.next()),
        // Three values.
        _ => ["N", "R", "A"][rng.below(3)].to_string(),
    }
}

/// How many flavours the cell generators tell apart.
const FLAVOURS: usize = 8;

/// One table with a column of every kind, each drawn from its flavour;
/// `null_share` is in percent.
fn table(seed: u64, rows: usize, null_share: usize, flavours: [usize; 4]) -> Relation {
    let mut rng = Rng::new(seed);
    let mut rel = Relation::new(Schema::new(&[
        ("i", ColumnType::Int),
        ("d", ColumnType::Date),
        ("f", ColumnType::Float),
        ("s", ColumnType::Str),
    ]));
    for row in 0..rows {
        let mut cells = vec![
            Value::Int(int_cell(&mut rng, flavours[0], rows)),
            Value::Date(date_cell(&mut rng, flavours[1], rows)),
            Value::Float(float_cell(&mut rng, flavours[2], rows)),
            Value::str(&str_cell(&mut rng, flavours[3], rows, row, seed)),
        ];
        for cell in &mut cells {
            if rng.chance(null_share) {
                *cell = Value::Null;
            }
        }
        rel.push_row(cells).expect("cells match the schema");
    }
    rel
}

fn assert_equal_to_reference(db: &Database, buckets: usize) -> Result<(), TestCaseError> {
    let typed = analyze_with_buckets(db, buckets);
    let boxed = reference_analyze(db, buckets);
    for (name, expected) in &boxed.tables {
        let got = typed.table(name);
        for (column, expected) in &expected.columns {
            prop_assert_eq!(
                got.and_then(|t| t.column(column)),
                Some(expected),
                "{}.{}, {} buckets",
                name,
                column,
                buckets
            );
        }
    }
    prop_assert!(typed.tables == boxed.tables);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn typed_analyze_equals_the_boxed_reference(
        seed in any::<u64>(),
        rows_pick in 0usize..ROWS.len(),
        buckets_pick in 0usize..5,
        nulls_pick in 0usize..4,
    ) {
        let rows = ROWS[rows_pick];
        let buckets = [0, 1, 7, 100, rows + 5][buckets_pick];
        // None, some, most, all.
        let null_share = [0, 20, 90, 100][nulls_pick];
        let mut rng = Rng::new(seed);
        let mut flavours = [0; 4];
        flavours.fill_with(|| rng.below(FLAVOURS));
        let mut db = Database::new();
        db.insert_table("t", table(seed, rows, null_share, flavours));
        // A second, tiny table: the buffers of one table are not the next one's.
        db.insert_table("u", table(seed ^ 1, 3, 30, flavours));
        assert_equal_to_reference(&db, buckets)?;
    }
}

#[test]
fn every_flavour_row_count_and_resolution_is_covered() {
    // The random picks above cover the grid only in expectation; walk it.
    for flavour in 0..FLAVOURS {
        for &rows in &ROWS {
            for null_share in [0, 35, 100] {
                let seed = (flavour * 1000 + rows + null_share) as u64;
                let mut db = Database::new();
                db.insert_table("t", table(seed, rows, null_share, [flavour; 4]));
                for buckets in [0, 1, 7, 100, rows + 5] {
                    assert_equal_to_reference(&db, buckets).unwrap();
                }
            }
        }
    }
}

#[test]
fn tpch_equals_the_reference() {
    for seed in [1, 7] {
        let db = htqo_tpch::generate(&htqo_tpch::DbgenOptions { scale: 0.01, seed });
        assert_equal_to_reference(&db, 100).unwrap();
    }
}

#[test]
fn synthetic_workloads_equal_the_reference() {
    use htqo_workloads::synth::{star_db, workload_db, WorkloadSpec};
    // The shapes of the `plan_cold` and `service_hot` benchmark workloads,
    // a Zipf one, and one large enough to count.
    let dbs = [
        workload_db(&WorkloadSpec::new(12, 40, 80, 3)),
        workload_db(&WorkloadSpec::new(10, 50, 20, 7)),
        workload_db(&WorkloadSpec::new(4, 2000, 300, 11).with_zipf(1.0)),
        star_db(6, 40, 80, 3),
        star_db(3, 500, 60, 5),
    ];
    for db in &dbs {
        for buckets in [7, 100] {
            assert_equal_to_reference(db, buckets).unwrap();
        }
    }
}
