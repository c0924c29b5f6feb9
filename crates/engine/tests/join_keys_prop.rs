//! Property suite for the columnar kernels' key plans (DESIGN.md §3.8).
//!
//! `cops::natural_join`, `cops::semijoin` and `cops::project(distinct)`
//! pick a table kind from what their inputs show: a direct table / packed
//! bitmap on a dense null-free integer key, range bitmaps in front of the
//! hashed table on a sparse one, the hashed table alone otherwise. Every
//! choice must be invisible: the same relations carried in `Mixed`
//! columns always take the hashed path, and the typed run must reproduce
//! their row *sequence*; nested-loop references that share no hash
//! kernel with `cops` (`vrel::nested_loop_join`, `support/reference.rs`)
//! are the independent oracle for the bag and for `Budget::charged()`.

#[path = "support/reference.rs"]
mod reference;

use htqo_cq::{Atom, AtomId, CmpOp, Filter, Literal};
use htqo_engine::column::Column;
use htqo_engine::cops;
use htqo_engine::crel::CRel;
use htqo_engine::error::{Budget, CancelToken, EvalError};
use htqo_engine::relation::Relation;
use htqo_engine::scan::{atom_names, select_atom};
use htqo_engine::schema::{ColumnType, Database, Schema};
use htqo_engine::value::Value;
use htqo_engine::vrel::{nested_loop_join, VRelation};
use proptest::prelude::*;
use reference::{first_occurrence_project, nested_loop_semijoin};
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
    let names = v.cols().iter().map(|c| c.as_str().into()).collect();
    CRel::new(names, columns, v.len())
}

/// Runs `typed` against `generic` (the hashed kernel: same charges, same
/// row sequence) and against the nested-loop reference's result `row`
/// (same charges, same bag). Returns the generic kernel's rows.
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
            let row = nested_loop_join(x, y, &mut budget).unwrap();
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
            let row = nested_loop_semijoin(x, y, &mut budget);
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
                let row = first_occurrence_project(x, vars, &mut budget);
                let reference = check(
                    case.seed,
                    |b| cops::project(&tx, vars, true, b),
                    |b| cops::project(&gx, vars, true, b),
                    (&row, budget.charged()),
                )?;
                // The reference keeps first occurrences in input order too.
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

/// Direct-table joins on one `Int` key, `(what, build keys, probe keys)`:
/// duplicate-free build keys within one block and across several take
/// the unique-key probe; one repeated key — on the first or last row of a
/// block, or of the side — sends the whole join down the chain walk.
/// Probe keys reach an eighth past both ends of the build range (misses).
fn direct_cases() -> Vec<(&'static str, Vec<i64>, Vec<i64>)> {
    let mut rng = Rng(0xD1EC_7AB1E);
    let b = BLOCK as usize;
    let mut perm = |n: usize| -> Vec<i64> {
        let mut v: Vec<i64> = (0..n as i64).collect();
        for i in (1..n).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
        v
    };
    let (small, large) = (perm(1_000), perm(3 * b + 100));
    let mut rng = Rng(0x9A1B);
    let mut probe = |n: usize, rows: usize| -> Vec<i64> {
        let span = (n + n / 4) as u64;
        (0..rows)
            .map(|_| rng.below(span) as i64 - (n / 8) as i64)
            .collect()
    };
    // Row `at` repeats the key of the row after it (before it, for the last).
    let repeat = |at: usize| {
        let mut keys = large.clone();
        let from = if at + 1 < keys.len() { at + 1 } else { at - 1 };
        keys[at] = keys[from];
        keys
    };
    let n = large.len();
    vec![
        (
            "unique keys in one block",
            small.clone(),
            probe(1_000, 3_000),
        ),
        (
            "unique keys over four blocks",
            large.clone(),
            probe(n, 4 * b + 7),
        ),
        (
            "a repeat on a block's first row",
            repeat(b),
            probe(n, 4 * b + 7),
        ),
        (
            "a repeat on a block's last row",
            repeat(2 * b - 1),
            probe(n, 4 * b + 7),
        ),
        ("a repeat on the first row", repeat(0), probe(n, 4 * b + 7)),
        (
            "a repeat on the last row",
            repeat(n - 1),
            probe(n, 4 * b + 7),
        ),
        (
            "every probe key misses",
            small,
            (0..3_000)
                .map(|i| if i % 2 == 0 { -1 - i } else { 1_000 + i })
                .collect(),
        ),
    ]
}

/// Each direct-table case, both ways round, against the generic hashed
/// join (row sequence and `charged()`) and the nested-loop reference (bag
/// and `charged()`); then under a tuple limit that trips mid-probe and
/// under a cancelled token, where both kernels must stop with the same
/// error after charging the same tuples.
#[test]
fn unique_and_repeated_direct_keys_are_the_generic_join() {
    for (what, build_keys, probe_keys) in direct_cases() {
        let build = keyed(int_keys(build_keys), "bv");
        let probe = keyed(int_keys(probe_keys), "pv");
        let (vb, vp) = (build.to_vrel(), probe.to_vrel());
        let (gb, gp) = (generic(&vb), generic(&vp));
        for (x, y, gx, gy, vx, vy) in [
            (&build, &probe, &gb, &gp, &vb, &vp),
            (&probe, &build, &gp, &gb, &vp, &vb),
        ] {
            let mut budget = Budget::unlimited();
            let row = nested_loop_join(vx, vy, &mut budget).unwrap();
            let total = budget.charged();
            check_seeded(
                |b| cops::natural_join(x, y, b),
                |b| cops::natural_join(gx, gy, b),
                (&row, total),
            )
            .unwrap_or_else(|e| panic!("{what}: {e}"));

            let limit = total / 2;
            let token = CancelToken::new();
            token.cancel();
            let limited = || Budget::unlimited().with_max_tuples(limit);
            let cancelled = || Budget::unlimited().with_cancel_token(token.clone());
            let mut runs: Vec<&dyn Fn() -> Budget> = vec![&cancelled];
            if limit > 0 {
                runs.push(&limited);
            }
            for fresh in runs {
                let (mut typed, mut hashed) = (fresh(), fresh());
                let typed_err = cops::natural_join(x, y, &mut typed).unwrap_err();
                let hashed_err = cops::natural_join(gx, gy, &mut hashed).unwrap_err();
                assert_eq!(typed_err, hashed_err, "{what}");
                assert_eq!(typed.charged(), hashed.charged(), "{what}: {typed_err}");
                if typed_err.is_cancelled() {
                    assert!(typed.charged() <= BLOCK, "{what}: {}", typed.charged());
                } else {
                    assert!(
                        (limit + 1..=limit + BLOCK).contains(&typed.charged()),
                        "{what}: {} tuples charged under a limit of {limit}",
                        typed.charged()
                    );
                }
            }
        }
    }
}

/// A relation `(k0.., payload)` from typed key columns.
fn keyed_by(keys: Vec<Column>, payload_name: &str) -> CRel {
    let n = keys[0].len();
    let mut names: Vec<htqo_engine::Name> =
        (0..keys.len()).map(|i| format!("k{i}").into()).collect();
    names.push(payload_name.into());
    let mut columns: Vec<Arc<Column>> = keys.into_iter().map(Arc::new).collect();
    columns.push(Arc::new(Column::from_ints((0..n as i64).collect())));
    CRel::new(names, columns, n)
}

fn str_keys(keys: &[Option<u64>]) -> Column {
    let mut c = Column::new(ColumnType::Str);
    for k in keys {
        match k {
            Some(k) => assert!(c.push_str(&format!("jk-long-{k}"))),
            None => c.push_null(),
        }
    }
    c
}

/// Long probes, `(what, build, probe)`: 4,097–20,000 probe rows, so
/// block boundaries fall mid-probe. A one-column direct key with unique
/// and with repeated build keys; a two-column key too sparse for a direct
/// table (range bitmaps in front of the hashed table) whose probe rows
/// match, hit both columns' bitmaps but no pair, or hit the first column
/// and miss on the second only; a two-column direct key whose probe rows
/// match or fall outside the second column's range only; a `Str` key
/// with NULL codes on the probe side.
fn long_probe_cases() -> Vec<(&'static str, CRel, CRel)> {
    let mut rng = Rng(0x10_4097);
    let mut ints =
        |n: usize, span: u64| -> Vec<i64> { (0..n).map(|_| rng.below(span) as i64).collect() };
    let unique: Vec<i64> = (0..2_000).map(|i| 3 * i).collect();
    let repeated: Vec<i64> = (0..2_000).map(|i| i / 4).collect();
    let mut rng = Rng(0x2C01);
    // Build pairs: 50 values in the first column, 100,000 in the second:
    // 5 M packed keys, 20 MB of direct table against ≈ 0.1 MB reserved.
    let pairs: Vec<(i64, i64)> = (0..2_000)
        .map(|_| (rng.below(50) as i64, rng.below(100_000) as i64))
        .collect();
    let mut probe_pairs = |n: usize| -> (Vec<i64>, Vec<i64>) {
        (0..n)
            .map(|_| {
                let (a, b) = pairs[rng.below(pairs.len() as u64) as usize];
                match rng.below(3) {
                    0 => (a, b),
                    // Both values occur in the build side, rarely together.
                    1 => (a, pairs[rng.below(pairs.len() as u64) as usize].1),
                    // The second value is past every build row's.
                    _ => (a, 100_000 + rng.below(1_000) as i64),
                }
            })
            .unzip()
    };
    let (p0, p1) = probe_pairs(9_001);
    let (b0, b1): (Vec<i64>, Vec<i64>) = pairs.iter().copied().unzip();
    // 20 × 200 packed keys: a direct table. A probe row past the second
    // column's range, or below it, misses on that column alone.
    let mut rng = Rng(0xD2);
    let small: Vec<(i64, i64)> = (0..2_000)
        .map(|_| (rng.below(20) as i64, rng.below(200) as i64))
        .collect();
    let (s0, s1): (Vec<i64>, Vec<i64>) = small.iter().copied().unzip();
    let (q0, q1): (Vec<i64>, Vec<i64>) = (0..6_000)
        .map(|i| {
            let (a, b) = small[rng.below(small.len() as u64) as usize];
            match i % 3 {
                0 => (a, b),
                1 => (a, 200 + rng.below(50) as i64),
                _ => (a, -1 - rng.below(50) as i64),
            }
        })
        .unzip();
    let mut rng = Rng(0x57);
    let probe_strs: Vec<Option<u64>> = (0..4_097)
        .map(|_| (rng.below(10) != 0).then(|| rng.below(1_500)))
        .collect();
    let build_strs: Vec<Option<u64>> = (0..1_000).map(Some).collect();
    vec![
        (
            "unique direct keys, 20,000 probe rows",
            keyed(int_keys(unique.clone()), "bv"),
            keyed(int_keys(ints(20_000, 6_500)), "pv"),
        ),
        (
            "unique direct keys, 4,097 probe rows",
            keyed(int_keys(unique), "bv"),
            keyed(int_keys(ints(4_097, 6_500)), "pv"),
        ),
        (
            "repeated direct keys, 8,193 probe rows",
            keyed(int_keys(repeated), "bv"),
            keyed(int_keys(ints(8_193, 600)), "pv"),
        ),
        (
            "two columns, misses on the second only",
            keyed_by(vec![int_keys(b0), int_keys(b1)], "bv"),
            keyed_by(vec![int_keys(p0), int_keys(p1)], "pv"),
        ),
        (
            "two direct columns, misses on the second only",
            keyed_by(vec![int_keys(s0), int_keys(s1)], "bv"),
            keyed_by(vec![int_keys(q0), int_keys(q1)], "pv"),
        ),
        (
            "strings with NULL codes on the probe side",
            keyed(str_keys(&build_strs), "bv"),
            keyed(str_keys(&probe_strs), "pv"),
        ),
    ]
}

/// Each long probe joined both ways round and semijoined both ways
/// round: the typed run reproduces the `Mixed`-carried hashed run's row
/// sequence and `charged()`, in full and under a tuple limit that trips
/// mid-probe.
#[test]
fn long_probes_are_the_generic_join() {
    for (what, build, probe) in long_probe_cases() {
        let (gb, gp) = (generic(&build.to_vrel()), generic(&probe.to_vrel()));
        for (x, y, gx, gy) in [(&build, &probe, &gb, &gp), (&probe, &build, &gp, &gb)] {
            type Kernel = fn(&CRel, &CRel, &mut Budget) -> Result<CRel, EvalError>;
            let kernels: [(&str, Kernel); 2] =
                [("join", cops::natural_join), ("semijoin", cops::semijoin)];
            for (kernel, run) in kernels {
                let mut hashed = Budget::unlimited();
                let want = run(gx, gy, &mut hashed).unwrap().to_vrel();
                let mut typed = Budget::unlimited();
                let got = run(x, y, &mut typed).unwrap().to_vrel();
                assert!(!got.is_empty(), "{what}, {kernel}: nothing matched");
                assert_eq!(got.cols(), want.cols(), "{what}, {kernel}");
                assert!(got.rows() == want.rows(), "{what}, {kernel}: rows");
                assert_eq!(typed.charged(), hashed.charged(), "{what}, {kernel}");

                let limit = hashed.charged() / 2;
                let limited = || Budget::unlimited().with_max_tuples(limit);
                let (mut typed, mut hashed) = (limited(), limited());
                let typed_err = run(x, y, &mut typed).unwrap_err();
                let hashed_err = run(gx, gy, &mut hashed).unwrap_err();
                assert_eq!(typed_err, hashed_err, "{what}, {kernel}");
                assert_eq!(
                    typed.charged(),
                    hashed.charged(),
                    "{what}, {kernel}: limited"
                );
            }
        }
    }
}

/// `rel` as table `name` of `db`, its columns typed as `rel`'s are.
fn insert_table(db: &mut Database, name: &str, rel: &CRel, types: &[ColumnType]) {
    let cols: Vec<(&str, ColumnType)> = (rel.cols().iter().zip(types))
        .map(|(c, &t)| (&**c, t))
        .collect();
    let mut table = Relation::new(Schema::new(&cols));
    for row in rel.to_vrel().rows() {
        table.push_row(row.to_vec()).unwrap();
    }
    db.insert_table(name, table);
}

/// The vertex join and the semijoin transfer read a filtered input's
/// key through its selection vector. Both sides selected by a filter on
/// a column they do not bind (every third row dropped, then every
/// fifth); the vertex join's rows, order and charges are the
/// `Mixed`-carried hashed join's over the gathered selections, and
/// narrowing keeps the rows the hashed semijoin keeps, in order.
#[test]
fn filtered_selections_are_read_through_their_rows() {
    // NULL keys on the rows the probe's filter drops (`f = 5`) and on rows
    // it keeps (`f = 7`): a NULL that is kept leaves the key without a plan.
    let mut holed = Column::new(ColumnType::Int);
    for i in 0..6_000i64 {
        match i % 15 {
            5 | 7 => holed.push_null(),
            _ => holed.push_value(&Value::Int(i % 7_000)),
        }
    }
    let mut cases = long_probe_cases();
    cases.push((
        "NULL keys kept by the probe's filter",
        // Key 0, which a NULL's cell holds, on a row the build keeps.
        keyed(
            int_keys((0..2_000).map(|i| 3 * ((i + 1) % 2_000)).collect()),
            "bv",
        ),
        keyed(holed, "pv"),
    ));
    for (what, build, probe) in cases {
        let key_cols = build.cols().len() - 1;
        let mut db = Database::new();
        for (name, rel) in [("b", &build), ("p", &probe)] {
            let n = rel.len() as i64;
            let mut cols = rel.cols().to_vec();
            cols.push("f".into());
            let mut columns = rel.columns().to_vec();
            columns.push(Arc::new(Column::from_ints(
                (0..n).map(|i| i % 15).collect(),
            )));
            let with_f = CRel::new(cols, columns, rel.len());
            let mut types: Vec<ColumnType> = (0..key_cols)
                .map(|c| match rel.column(c).value(0) {
                    Value::Str(_) => ColumnType::Str,
                    _ => ColumnType::Int,
                })
                .collect();
            types.extend([ColumnType::Int, ColumnType::Int]);
            insert_table(&mut db, name, &with_f, &types);
        }
        let atom = |table: &str, rel: &CRel| Atom {
            relation: table.into(),
            alias: table.into(),
            args: (rel.cols().iter())
                .map(|c| (c.to_string(), c.to_uppercase()))
                .collect(),
        };
        let (b_atom, p_atom) = (atom("b", &build), atom("p", &probe));
        let filters: Vec<Filter> = [(0, CmpOp::Ne, 0), (1, CmpOp::Ne, 5)]
            .iter()
            .map(|&(a, op, v)| Filter {
                atom: AtomId(a),
                column: "f".into(),
                op,
                value: Literal::Int(v),
            })
            .collect();
        let select = |atom: &Atom, f: &Filter| {
            let mut budget = Budget::unlimited();
            select_atom(&db, atom, atom_names(atom), &[f], false, &mut budget).unwrap()
        };
        let (b_sel, p_sel) = (select(&b_atom, &filters[0]), select(&p_atom, &filters[1]));
        assert!(
            b_sel.len() < build.len() && p_sel.len() < probe.len(),
            "{what}"
        );
        let (b_rel, p_rel) = (b_sel.clone().gather().0, p_sel.clone().gather().0);
        let (gb, gp) = (generic(&b_rel.to_vrel()), generic(&p_rel.to_vrel()));

        let mut hashed = Budget::unlimited();
        let want = cops::natural_join(&gb, &gp, &mut hashed).unwrap().to_vrel();
        let chi: Vec<htqo_engine::Name> = want.cols().iter().map(|c| c.as_str().into()).collect();
        let mut typed = Budget::unlimited();
        let got = cops::join_vertex(vec![b_sel.clone(), p_sel.clone()], &chi, &mut typed)
            .unwrap()
            .to_vrel();
        assert!(!want.is_empty(), "{what}: nothing matched");
        assert_eq!(got.cols(), want.cols(), "{what}");
        assert!(got.rows() == want.rows(), "{what}: vertex join rows");
        assert_eq!(typed.charged(), hashed.charged(), "{what}");

        let want = cops::semijoin(&gp, &gb, &mut Budget::unlimited())
            .unwrap()
            .to_vrel();
        let mut inputs = [p_sel];
        cops::narrow(&mut inputs, &b_rel, |_| true, &mut Budget::unlimited());
        let [narrowed] = inputs;
        let got = narrowed.gather().0.to_vrel();
        assert!(got.rows() == want.rows(), "{what}: narrowed rows");
    }
}
