//! Property suite for the columnar kernels' key plans (DESIGN.md §3.8).
//!
//! `cops::natural_join`, `cops::semijoin` and `cops::project(distinct)`
//! pick a table kind from what their inputs show: a direct table / packed
//! bitmap on a dense null-free integer key, range bitmaps in front of the
//! hashed table on a sparse one, the hashed table alone otherwise. Every
//! choice must be invisible: the same relations carried in `Mixed`
//! columns always take the hashed path, and the typed run must reproduce
//! their row *sequence*; the row kernels (`ops`) are the independent oracle for the
//! bag and for `Budget::charged()`.

use htqo_engine::column::Column;
use htqo_engine::crel::CRel;
use htqo_engine::error::{Budget, CancelToken, EvalError};
use htqo_engine::schema::ColumnType;
use htqo_engine::value::Value;
use htqo_engine::vrel::VRelation;
use htqo_engine::{cops, ops};
use proptest::prelude::*;
use std::sync::Arc;

/// Rows between two budget settlements of a join kernel (`keyplan::BLOCK`).
const BLOCK: u64 = 4096;

/// SplitMix64: a case is expanded from one generated seed, so a failure
/// report names everything needed to replay it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len() as u64) as usize]
    }
}

/// What a key column draws its cells from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Domain {
    /// A few consecutive integers around zero: direct table.
    IntDense,
    /// Integers over a span too wide for a direct table over a few dozen
    /// rows, narrow enough for a bitmap.
    IntSparse,
    /// Arbitrary 64-bit integers: a plan whose range fits nowhere.
    IntWide,
    /// `i64::MIN` and `i64::MAX` together: the range overflows.
    IntExtreme,
    Date,
    Str,
    /// No plan: floats.
    Float,
    /// No plan: integers, strings and floats in one column.
    Mixed,
}

const DOMAINS: [Domain; 8] = [
    Domain::IntDense,
    Domain::IntSparse,
    Domain::IntWide,
    Domain::IntExtreme,
    Domain::Date,
    Domain::Str,
    Domain::Float,
    Domain::Mixed,
];

/// The domains with about `span` values; the others have a handful.
const SPANNING: [Domain; 6] = [
    Domain::IntDense,
    Domain::IntSparse,
    Domain::IntWide,
    Domain::Date,
    Domain::Str,
    Domain::Float,
];

const FLOATS: [f64; 6] = [0.0, -0.0, 1.5, f64::NAN, -3.25, f64::INFINITY];

fn cell(d: Domain, span: u64, rng: &mut Rng) -> Value {
    let around_zero = |rng: &mut Rng, span: u64| rng.below(span) as i64 - (span / 2) as i64;
    match d {
        Domain::IntDense => Value::Int(around_zero(rng, span)),
        Domain::IntSparse => Value::Int(around_zero(rng, span * 40)),
        Domain::IntWide => Value::Int(rng.next() as i64 >> rng.below(40)),
        Domain::IntExtreme => Value::Int(rng.pick(&[i64::MIN, i64::MAX, 0, -1, 7])),
        Domain::Date => Value::Date(11_000 + rng.below(span) as i32),
        Domain::Str => Value::str(&format!("key-{}", rng.below(span))),
        Domain::Float if rng.below(4) == 0 => Value::Float(rng.pick(&FLOATS)),
        Domain::Float => Value::Float(rng.below(span) as f64 * 0.5),
        Domain::Mixed => match rng.below(3) {
            0 => Value::Int(rng.below(4) as i64),
            1 => Value::str(&format!("key-{}", rng.below(4))),
            _ => Value::Float(rng.pick(&FLOATS)),
        },
    }
}

/// Two relations sharing 1–3 key columns (`k0..`), each with a payload
/// column numbering its rows so that a row sequence identifies the pair
/// sequence that produced it.
#[derive(Debug)]
struct Case {
    seed: u64,
    a: VRelation,
    b: VRelation,
}

impl Case {
    fn from_seed(seed: u64) -> Case {
        let mut rng = Rng(seed);
        // One case in eight spans several probe blocks; half of those on
        // one dense integer key column, no NULL: the direct table.
        let large = rng.below(8) == 0;
        let direct = large && rng.below(2) == 0;
        let (na, nb) = if large {
            (3000 + rng.below(1500), 5200 + rng.below(1500))
        } else {
            (rng.below(60), rng.below(60))
        };
        let mut doms: Vec<Domain> = (0..1 + rng.below(3)).map(|_| rng.pick(&DOMAINS)).collect();
        if direct {
            doms = vec![Domain::IntDense];
        } else if large {
            // Keep a large join's output near its input.
            doms[0] = rng.pick(&SPANNING);
        }
        // Few values on small inputs (duplicates on both sides), about one
        // partner per row on large ones.
        let span = if large { na.max(nb) } else { 2 + rng.below(14) };
        // NULLs on neither side, `a`, `b` or both.
        let nulls = if direct { 0 } else { rng.below(6) };
        let (a_nulls, b_nulls) = (nulls == 3 || nulls == 5, nulls == 4 || nulls == 5);

        let key = |rng: &mut Rng, with_nulls: bool| -> Vec<Value> {
            doms.iter()
                .map(|&d| {
                    if with_nulls && rng.below(8) == 0 {
                        Value::Null
                    } else {
                        cell(d, span, rng)
                    }
                })
                .collect()
        };
        let a_keys: Vec<Vec<Value>> = (0..na).map(|_| key(&mut rng, a_nulls)).collect();
        // Half of `b`'s keys are copied from `a`, whole or one cell, so
        // that wide domains and multi-column keys have partners too.
        let b_keys: Vec<Vec<Value>> = (0..nb)
            .map(|_| {
                let mut k = key(&mut rng, b_nulls);
                if !a_keys.is_empty() && rng.below(2) == 0 {
                    let from = &a_keys[rng.below(na) as usize];
                    if rng.below(2) == 0 {
                        k.clone_from(from);
                    } else {
                        let c = rng.below(k.len() as u64) as usize;
                        k[c] = from[c].clone();
                    }
                }
                k
            })
            .collect();

        let names = |payload: &str, reversed: bool| -> Vec<String> {
            let mut keys: Vec<String> = (0..doms.len()).map(|i| format!("k{i}")).collect();
            if reversed {
                keys.reverse();
                keys.insert(0, payload.to_string());
            } else {
                keys.push(payload.to_string());
            }
            keys
        };
        let rows = |keys: Vec<Vec<Value>>, reversed: bool| {
            keys.into_iter()
                .enumerate()
                .map(|(i, mut k)| {
                    if reversed {
                        k.reverse();
                        k.insert(0, Value::Int(i as i64));
                    } else {
                        k.push(Value::Int(i as i64));
                    }
                    k.into_boxed_slice()
                })
                .collect()
        };
        Case {
            seed,
            a: VRelation::from_rows(names("av", false), rows(a_keys, false)),
            // Key columns in the opposite order, after the payload.
            b: VRelation::from_rows(names("bv", true), rows(b_keys, true)),
        }
    }

    fn key_cols(&self) -> Vec<String> {
        self.a.cols()[..self.a.cols().len() - 1].to_vec()
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    any::<u64>().prop_map(Case::from_seed)
}

/// `v` carried in `Mixed` columns only: no kernel finds a key plan, so
/// this is the hashed path whatever the values are.
fn generic(v: &VRelation) -> CRel {
    let columns = (0..v.cols().len())
        .map(|c| {
            let mut col = Column::mixed_with_capacity(v.len());
            for row in v.rows() {
                col.push_value(&row[c]);
            }
            Arc::new(col)
        })
        .collect();
    CRel::new(v.cols().to_vec(), columns, v.len())
}

/// Runs `typed` against `generic` (the hashed kernel: same charges, same
/// row sequence) and against the row kernel's result `row` (same charges,
/// same bag). Returns the generic kernel's rows.
fn check(
    seed: u64,
    typed: impl Fn(&mut Budget) -> Result<CRel, EvalError>,
    generic: impl Fn(&mut Budget) -> Result<CRel, EvalError>,
    (row, row_charged): (&VRelation, u64),
) -> Result<VRelation, TestCaseError> {
    check_seeded(typed, generic, (row, row_charged))
        .map_err(|e| TestCaseError::fail(format!("case seed {seed:#x}: {e}")))
}

fn check_seeded(
    typed: impl Fn(&mut Budget) -> Result<CRel, EvalError>,
    generic: impl Fn(&mut Budget) -> Result<CRel, EvalError>,
    (row, row_charged): (&VRelation, u64),
) -> Result<VRelation, TestCaseError> {
    let mut budget = Budget::unlimited();
    let reference = generic(&mut budget).unwrap().to_vrel();
    prop_assert_eq!(budget.charged(), row_charged);
    prop_assert_eq!(reference.cols(), row.cols());
    prop_assert_eq!(reference.sorted_rows(), row.sorted_rows());
    let mut budget = Budget::unlimited();
    let out = typed(&mut budget).unwrap().to_vrel();
    prop_assert_eq!(budget.charged(), row_charged);
    prop_assert_eq!(out.cols(), reference.cols());
    prop_assert!(out.rows() == reference.rows());
    Ok(reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `a ⋈ b` and `b ⋈ a` (the larger side first makes the kernel swap
    /// and reorder).
    #[test]
    fn join_is_the_generic_join(case in arb_case()) {
        for (x, y) in [(&case.a, &case.b), (&case.b, &case.a)] {
            let (tx, ty) = (CRel::from_vrel(x), CRel::from_vrel(y));
            let (gx, gy) = (generic(x), generic(y));
            let mut budget = Budget::unlimited();
            let row = ops::natural_join(x, y, &mut budget).unwrap();
            check(
                case.seed,
                |b| cops::natural_join(&tx, &ty, b),
                |b| cops::natural_join(&gx, &gy, b),
                (&row, budget.charged()),
            )?;
        }
    }

    /// `a ⋉ b` and `b ⋉ a`; the survivors come out in input order on
    /// every path.
    #[test]
    fn semijoin_is_the_generic_semijoin(case in arb_case()) {
        for (x, y) in [(&case.a, &case.b), (&case.b, &case.a)] {
            let (tx, ty) = (CRel::from_vrel(x), CRel::from_vrel(y));
            let (gx, gy) = (generic(x), generic(y));
            let mut budget = Budget::unlimited();
            let row = ops::semijoin(x, y, &mut budget).unwrap();
            check(
                case.seed,
                |b| cops::semijoin(&tx, &ty, b),
                |b| cops::semijoin(&gx, &gy, b),
                (&row, budget.charged()),
            )?;
        }
    }

    /// Distinct projection onto the key columns and onto the first of
    /// them: first occurrence kept, input order.
    #[test]
    fn distinct_project_is_the_generic_project(case in arb_case()) {
        let keys = case.key_cols();
        for x in [&case.a, &case.b] {
            let (tx, gx) = (CRel::from_vrel(x), generic(x));
            for vars in [&keys[..], &keys[..1]] {
                let mut budget = Budget::unlimited();
                let row = ops::project(x, vars, true, &mut budget).unwrap();
                let reference = check(
                    case.seed,
                    |b| cops::project(&tx, vars, true, b),
                    |b| cops::project(&gx, vars, true, b),
                    (&row, budget.charged()),
                )?;
                // The row kernel keeps first occurrences in input order too.
                prop_assert!(reference == row, "case seed {:#x}", case.seed);
            }
        }
    }
}

/// A two-column relation `(k, payload)` straight from typed columns.
fn keyed(key: Column, payload_name: &str) -> CRel {
    let n = key.len();
    CRel::new(
        vec!["k".into(), payload_name.into()],
        vec![
            Arc::new(key),
            Arc::new(Column::from_ints((0..n as i64).collect())),
        ],
        n,
    )
}

fn int_keys(keys: Vec<i64>) -> Column {
    Column::from_ints(keys)
}

fn float_keys(keys: Vec<i64>) -> Column {
    let mut c = Column::new(ColumnType::Float);
    for k in keys {
        assert!(c.push_float(k as f64));
    }
    c
}

/// Every row of a 3,000-row side matches every row of the other: the
/// tuple limit must trip within one block of where a pair-by-pair charge
/// trips it — on the direct table and on the hashed one.
#[test]
fn blow_up_trips_the_tuple_budget_within_one_block() {
    for keys in [int_keys, float_keys] {
        let a = keyed(keys(vec![5; 3000]), "av");
        let b = keyed(keys(vec![5; 3000]), "bv");
        let limit = 10_000;
        let mut budget = Budget::unlimited().with_max_tuples(limit);
        let err = cops::natural_join(&a, &b, &mut budget).unwrap_err();
        assert!(matches!(err, EvalError::TupleBudgetExceeded { limit: l } if l == limit));
        assert!(
            (limit + 1..=limit + BLOCK).contains(&budget.charged()),
            "{} tuples charged under a limit of {limit}",
            budget.charged()
        );
    }
}

/// A probe that matches nothing charges nothing, and used to poll
/// nothing. The first block of this 1 M-row probe has no partner, the
/// rest of it has: under a cancelled token the join must stop before it
/// emits a pair.
#[test]
fn cancelled_token_stops_a_matchless_probe_within_one_block() {
    let n = 1_000_000i64;
    for keys in [int_keys, float_keys] {
        let build = keyed(keys((0..200).collect()), "bv");
        // Keys 1000.. have no partner; from row BLOCK on, every key does.
        let probe = keyed(
            keys(
                (0..n)
                    .map(|i| if i < BLOCK as i64 { 1000 + i } else { i % 200 })
                    .collect(),
            ),
            "pv",
        );
        let token = CancelToken::new();
        token.cancel();
        let mut budget = Budget::unlimited().with_cancel_token(token);
        let err = cops::natural_join(&build, &probe, &mut budget).unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert_eq!(budget.charged(), 0, "pairs emitted after the first block");
    }
}
