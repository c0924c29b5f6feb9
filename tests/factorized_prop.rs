//! Property tests for the counted q-HD pass: on random star aggregate
//! queries whose joins are not key-preserving — COUNT, integer and float
//! SUM, AVG, GROUP BY, ORDER BY and LIMIT — the aggregate the q-HD
//! evaluator computes from its counted relations must agree
//! **bit-identically and in order** with the same aggregate over the
//! materialized bag (the nested-loop join, every row kept), also under
//! random byte limits, and on a plan whose vertices are supplied by their
//! children. The bag is the join-order baseline's (`evaluate_join_order`
//! keeps every join row of an aggregate query), held columnar: a star
//! over a one-value key joins millions of rows. The byte-limit property
//! also holds that baseline to the same limits: under a limit it spills
//! to the bag's answer or fails with a typed error.

use htqo::prelude::*;
use htqo_cq::{AggFunc, CqBuilder, ScalarExpr, SortDir};
use htqo_engine::schema::{ColumnType, Schema};
use htqo_eval::{evaluate_join_order, evaluate_qhd_query};
use proptest::prelude::*;

/// A random star query: `hub(X)` with `sats` satellite atoms
/// `s_i(X, P_i, F_i)` over tables with repeated keys and rows (a join
/// row per combination, SQL's bag). Aggregates over the join: `COUNT(*)`,
/// optionally `SUM(P_0)`, `SUM(F_0)` and `AVG(F_0)` (`F` holds money
/// amounts; with `exotic`, one of them is `1e300`, which no weight above 1
/// can repeat exactly), optionally `GROUP BY X`, `ORDER BY` one of the
/// output labels (`order` picks it; 0 is none) and `LIMIT`.
#[derive(Debug, Clone)]
struct Shape {
    sats: usize,
    rows: usize,
    domain: i64,
    seed: u64,
    group: bool,
    sum: bool,
    float: bool,
    avg: bool,
    exotic: bool,
    order: usize,
    limit: Option<usize>,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        (
            1usize..4,
            0usize..50,
            1i64..8,
            any::<u64>(),
            any::<bool>(),
            any::<bool>(),
        ),
        (
            any::<bool>(),
            any::<bool>(),
            any::<u8>(),
            0usize..5,
            0usize..4,
        ),
    )
        .prop_map(
            |((sats, rows, domain, seed, group, sum), (float, avg, exotic, order, limit))| Shape {
                sats,
                rows,
                domain,
                seed,
                group,
                sum,
                float,
                avg,
                exotic: exotic % 4 == 0,
                order,
                limit: (limit > 0).then_some(limit),
            },
        )
}

fn build(shape: &Shape) -> (Database, ConjunctiveQuery) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(shape.seed);
    let mut db = Database::new();

    let mut hub = Relation::new(Schema::new(&[
        ("x", ColumnType::Int),
        ("id", ColumnType::Int),
    ]));
    for t in 0..shape.rows as i64 {
        hub.push_row(vec![
            Value::Int(rng.gen_range(0..shape.domain as u64) as i64),
            Value::Int(t),
        ])
        .unwrap();
    }
    db.insert_table("hub", hub);
    let mut b = CqBuilder::new().atom("hub", "hub", &[("x", "X")]);

    for i in 0..shape.sats {
        let mut s = Relation::new(Schema::new(&[
            ("x", ColumnType::Int),
            ("p", ColumnType::Int),
            ("f", ColumnType::Float),
            ("id", ColumnType::Int),
        ]));
        // A sparser satellite every third seed keeps empty/partial joins
        // exercised.
        let rows = if shape.seed.wrapping_add(i as u64).is_multiple_of(3) {
            shape.rows / 4
        } else {
            shape.rows
        };
        for t in 0..rows as i64 {
            let cents = rng.gen_range(0..1_000_000u64) as f64 * 0.01 - 5_000.0;
            let f = if shape.exotic && t == 0 { 1e300 } else { cents };
            s.push_row(vec![
                Value::Int(rng.gen_range(0..shape.domain as u64) as i64),
                Value::Int(rng.gen_range(0..100u64) as i64 - 50),
                Value::Float(f),
                Value::Int(t),
            ])
            .unwrap();
        }
        let name = format!("s{i}");
        db.insert_table(&name, s);
        let (p, f) = (format!("P{i}"), format!("F{i}"));
        b = b.atom(&name, &name, &[("x", "X"), ("p", &p), ("f", &f)]);
    }

    let mut labels = vec!["cnt"];
    if shape.group {
        b = b.out_var("X");
        labels.push("X");
    }
    b = b.out_agg(AggFunc::Count, None, "cnt");
    let var = |v: &str| Some(ScalarExpr::Var(v.into()));
    if shape.sum {
        b = b.out_agg(AggFunc::Sum, var("P0"), "s");
        labels.push("s");
    }
    if shape.float {
        b = b.out_agg(AggFunc::Sum, var("F0"), "fs");
        labels.push("fs");
    }
    if shape.avg {
        b = b.out_agg(AggFunc::Avg, var("F0"), "a");
        labels.push("a");
    }
    if shape.group {
        b = b.group("X");
    }
    if shape.order > 0 {
        let dir = [SortDir::Asc, SortDir::Desc][shape.order % 2];
        b = b.order(labels[shape.order % labels.len()], dir);
    }
    if let Some(n) = shape.limit {
        b = b.limit(n);
    }
    (db, b.build())
}

/// The rows in order, floats by their bits.
fn bits(v: &VRelation) -> Vec<String> {
    (v.rows().iter())
        .map(|row| {
            let cells = row.iter().map(|v| match v {
                Value::Float(x) => format!("F{:x}", x.to_bits()),
                v => format!("{v:?}"),
            });
            cells.collect::<Vec<_>>().join("|")
        })
        .collect()
}

/// Tuples the materialized bag may charge: a one-value key over 50-row
/// tables joins millions of rows, and a 7-atom cycle far more.
const BAG_TUPLES: u64 = 1_000_000;

/// The aggregate over the materialized bag: the reference the counted
/// pass is held to, or `None` past [`BAG_TUPLES`].
fn materialized(db: &Database, q: &ConjunctiveQuery) -> Option<VRelation> {
    let mut budget = Budget::unlimited().with_max_tuples(BAG_TUPLES);
    match evaluate_join_order(db, q, None, &mut budget) {
        Ok(bag) => Some(htqo_engine::aggregate::finalize_c(&bag, q, &mut budget).unwrap()),
        Err(EvalError::TupleBudgetExceeded { .. }) => None,
        Err(e) => panic!("{e}"),
    }
}

/// A 6-cycle `p_i(V_i, V_{i+1})` with the chord `c(V0, V2)`, answering
/// `COUNT(*)` and `SUM(V4)` grouped by `V1, V4` (so `out(Q) = {V1, V4}`),
/// over the shape's sizes and seed. In its q-HD a vertex's χ holds a
/// variable only its children supply, so `P″` joins them in (counts
/// multiply, then sum) rather than filtering.
fn unstitchable(shape: &Shape) -> (Database, ConjunctiveQuery) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(shape.seed);
    let mut db = Database::new();
    let mut b = CqBuilder::new();
    let edges = (0..6).map(|i| (format!("p{i}"), i, (i + 1) % 6));
    for (name, l, r) in edges.chain([("c".to_string(), 0, 2)]) {
        let mut rel = Relation::new(Schema::new(&[
            ("l", ColumnType::Int),
            ("r", ColumnType::Int),
        ]));
        for _ in 0..shape.rows {
            let mut v = || Value::Int(rng.gen_range(0..shape.domain as u64) as i64);
            rel.push_row(vec![v(), v()]).unwrap();
        }
        db.insert_table(&name, rel);
        let (l, r) = (format!("V{l}"), format!("V{r}"));
        b = b.atom(&name, &name, &[("l", &l), ("r", &r)]);
    }
    let q = (b.out_var("V1").out_var("V4"))
        .out_agg(AggFunc::Count, None, "n")
        .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("V4".into())), "s")
        .group("V1")
        .group("V4")
        .build();
    (db, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The counted q-HD aggregate is bit-identical to the aggregate over
    /// the materialized bag, rows in the same order — whatever floats the
    /// sums read (a weight a float sum cannot take exactly is answered
    /// over the repeated rows).
    #[test]
    fn qhd_factorized_aggregate_matches_materialized(shape in arb_shape()) {
        let (db, q) = build(&shape);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost)
            .expect("width 4 covers a ≤4-atom star");
        let mut b1 = Budget::unlimited();
        let counted = evaluate_qhd_query(&db, &q, &plan, &mut b1)
            .unwrap();
        let Some(mat) = materialized(&db, &q) else {
            return Ok(());
        };
        prop_assert_eq!(counted.cols(), mat.cols());
        prop_assert_eq!(bits(&counted), bits(&mat));
    }

    /// Over a plan whose vertices are supplied by their children, the
    /// counted pass joins them in and still answers the bag's aggregate.
    #[test]
    fn supplied_vertices_count_through_joins(shape in arb_shape()) {
        let (db, q) = unstitchable(&shape);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let out = evaluate_qhd_query(
            &db, &q, &plan, &mut Budget::unlimited(),
        ).unwrap();
        if let Some(mat) = materialized(&db, &q) {
            prop_assert_eq!(bits(&out), bits(&mat));
        }
    }

    /// Under a random byte limit the counted pass answers the bag's
    /// aggregate, rows in order, or fails with a typed error only where
    /// the join-order baseline — which under the same limit runs
    /// `cops::natural_join`'s Grace spill and the aggregation's spill —
    /// fails too: same answer or a typed memory/spill error.
    #[test]
    fn byte_limits_degrade_without_changing_answers(
        shape in arb_shape(),
        limit in 1_000u64..2_000_000,
    ) {
        let (db, q) = build(&shape);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let baseline = |budget: &mut Budget| {
            let answer = evaluate_join_order(&db, &q, None, budget)?;
            htqo_engine::aggregate::finalize_c(&answer, &q, budget)
        };
        let Some(oracle) = materialized(&db, &q) else {
            return Ok(());
        };
        match baseline(&mut Budget::unlimited().with_mem_limit(limit)) {
            Ok(b) => prop_assert_eq!(bits(&b), bits(&oracle), "limit={}", limit),
            Err(e) => prop_assert!(
                matches!(e, EvalError::MemoryExceeded { .. } | EvalError::SpillIo(_)),
                "unexpected error class from the baseline under limit {limit}: {e:?}"
            ),
        }

        let mut b1 = Budget::unlimited().with_mem_limit(limit);
        match evaluate_qhd_query(&db, &q, &plan, &mut b1) {
            Ok(got) => prop_assert_eq!(bits(&got), bits(&oracle), "limit={}", limit),
            Err(e) => prop_assert!(
                matches!(e, EvalError::MemoryExceeded { .. } | EvalError::SpillIo(_)),
                "unexpected error class from the q-HD under limit {limit}: {e:?}"
            ),
        }
    }
}
