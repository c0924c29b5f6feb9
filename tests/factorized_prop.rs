//! Property tests for the factorized result layer: on random
//! star-with-rowids aggregate queries, the cover-based pipelines —
//! pushed-down COUNT/SUM/GROUP-BY aggregation and the constant-delay
//! answer enumerator — must agree **bit-identically** with the
//! materialized oracle, also under random byte
//! limits (where the factorized path must degrade to materialization
//! rather than change the answer). The byte-limit property also holds the
//! join-order baseline (`evaluate_naive` + row `finalize`) to the same
//! limits: it is the unlimited oracle, and under a limit it spills to the
//! same answer or fails with a typed error.

use htqo::prelude::*;
use htqo_cq::{AggFunc, CqBuilder, ScalarExpr};
use htqo_engine::schema::{ColumnType, Schema};
use htqo_engine::value::Row;
use htqo_eval::{
    evaluate_qhd_query_traced, evaluate_qhd_query_with, evaluate_yannakakis_query_with,
    qhd_answer_rows, ExecOptions, FactorizedTrace,
};
use proptest::prelude::*;

/// A random star query: `hub(X, rid)` with `sats` satellite atoms
/// `s_i(X, P_i, rid_i)`, every atom guarded by a rowid-style key column
/// (SQL bag semantics). Aggregates over the join: `COUNT(*)` and
/// `SUM(P_0)`, optionally `GROUP BY X`.
#[derive(Debug, Clone)]
struct Shape {
    sats: usize,
    rows: usize,
    domain: i64,
    seed: u64,
    group: bool,
    sum: bool,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        1usize..4,
        0usize..50,
        1i64..8,
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(sats, rows, domain, seed, group, sum)| Shape {
            sats,
            rows,
            domain,
            seed,
            group,
            sum,
        })
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
    let mut b = CqBuilder::new().atom("hub", "hub", &[("x", "X"), ("id", "__rid_hub")]);

    for i in 0..shape.sats {
        let mut s = Relation::new(Schema::new(&[
            ("x", ColumnType::Int),
            ("p", ColumnType::Int),
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
            s.push_row(vec![
                Value::Int(rng.gen_range(0..shape.domain as u64) as i64),
                Value::Int(rng.gen_range(0..100u64) as i64 - 50),
                Value::Int(t),
            ])
            .unwrap();
        }
        let name = format!("s{i}");
        db.insert_table(&name, s);
        let p = format!("P{i}");
        let rid = format!("__rid_{name}");
        b = b.atom(&name, &name, &[("x", "X"), ("p", &p), ("id", &rid)]);
    }

    if shape.group {
        b = b.out_var("X");
    }
    b = b.out_agg(AggFunc::Count, None, "cnt");
    if shape.sum {
        b = b.out_agg(AggFunc::Sum, Some(ScalarExpr::Var("P0".into())), "s");
    }
    b = b.out_var("__rid_hub");
    for i in 0..shape.sats {
        b = b.out_var(&format!("__rid_s{i}"));
    }
    if shape.group {
        b = b.group("X");
    }
    (db, b.build())
}

fn sorted_rows(v: &VRelation) -> Vec<Row> {
    let mut rows = v.rows().to_vec();
    rows.sort();
    rows
}

fn opts(factorized: bool) -> ExecOptions {
    ExecOptions {
        factorized,
        ..ExecOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pushed-down COUNT/SUM/GROUP-BY over the q-HD cover is
    /// bit-identical to the materialized join + aggregate — and the
    /// factorized path must actually run (the star-with-rowids family is
    /// always eligible).
    #[test]
    fn qhd_factorized_aggregate_matches_materialized(shape in arb_shape()) {
        let (db, q) = build(&shape);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost)
            .expect("width 4 covers a ≤4-atom star");
        let mut trace = FactorizedTrace::default();
        let mut b1 = Budget::unlimited();
        let fact = evaluate_qhd_query_traced(
            &db, &q, &plan, &mut b1, &opts(true), &mut trace,
        ).unwrap();
        prop_assert!(trace.factorized, "fell back: {:?}", trace.fallback);
        let mut b2 = Budget::unlimited();
        let mat = evaluate_qhd_query_with(&db, &q, &plan, &mut b2, &opts(false)).unwrap();
        prop_assert_eq!(fact.cols(), mat.cols());
        prop_assert_eq!(sorted_rows(&fact), sorted_rows(&mat));
    }

    /// The same equality for the Yannakakis (join forest) pipelines.
    #[test]
    fn yannakakis_factorized_aggregate_matches_materialized(shape in arb_shape()) {
        let (db, q) = build(&shape);
        let mut b1 = Budget::unlimited();
        let fact = evaluate_yannakakis_query_with(&db, &q, &mut b1, &opts(true)).unwrap();
        let mut b2 = Budget::unlimited();
        let mat = evaluate_yannakakis_query_with(&db, &q, &mut b2, &opts(false)).unwrap();
        prop_assert_eq!(fact.cols(), mat.cols());
        prop_assert_eq!(sorted_rows(&fact), sorted_rows(&mat));
    }

    /// The constant-delay enumerator streams exactly the materialized
    /// answer multiset over `out(Q)`; with the factorized path off, the
    /// stream is the materialized answer itself, moved out row by row.
    #[test]
    fn enumerator_streams_the_materialized_answer(shape in arb_shape()) {
        let (db, q) = build(&shape);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let mut b2 = Budget::unlimited();
        let ans = evaluate_qhd(&db, &q, &plan, &mut b2).unwrap();
        for factorized in [true, false] {
            let mut b1 = Budget::unlimited();
            let it = qhd_answer_rows(&db, &q, &plan, &mut b1, &opts(factorized)).unwrap();
            prop_assert_eq!(it.is_factorized(), factorized);
            let cols = it.cols().to_vec();
            let mut rows: Vec<Row> = it.collect::<Result<_, _>>().unwrap();
            rows.sort();
            prop_assert_eq!(cols, ans.cols().to_vec());
            prop_assert_eq!(rows, sorted_rows(&ans), "factorized={}", factorized);
        }
    }

    /// Under a random byte limit the factorized front never *loses*
    /// answers: whenever the materialized pipeline completes, the
    /// factorized one completes with the identical result (degrading to
    /// materialization internally if the cover's reservations are
    /// denied); and when it completes on its own, its answer matches the
    /// unlimited oracle. The oracle is the join-order baseline, which
    /// under the same limit runs `ops::natural_join`'s Grace spill and the
    /// row `finalize`'s spilled aggregation: same answer or a typed
    /// memory/spill error.
    #[test]
    fn byte_limits_degrade_without_changing_answers(
        shape in arb_shape(),
        limit in 1_000u64..2_000_000,
    ) {
        let (db, q) = build(&shape);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let baseline = |budget: &mut Budget| {
            let answer = evaluate_naive(&db, &q, budget)?;
            htqo_engine::aggregate::finalize(&answer, &q, budget)
        };
        let oracle = baseline(&mut Budget::unlimited()).unwrap();
        match baseline(&mut Budget::unlimited().with_mem_limit(limit)) {
            Ok(b) => prop_assert_eq!(sorted_rows(&b), sorted_rows(&oracle), "limit={}", limit),
            Err(e) => prop_assert!(
                matches!(e, EvalError::MemoryExceeded { .. } | EvalError::SpillIo(_)),
                "unexpected error class from the baseline under limit {limit}: {e:?}"
            ),
        }

        let mut b1 = Budget::unlimited().with_mem_limit(limit);
        let fact = evaluate_qhd_query_with(&db, &q, &plan, &mut b1, &opts(true));
        let mut b2 = Budget::unlimited().with_mem_limit(limit);
        let mat = evaluate_qhd_query_with(&db, &q, &plan, &mut b2, &opts(false));
        match (fact, mat) {
            (Ok(f), _) => prop_assert_eq!(sorted_rows(&f), sorted_rows(&oracle), "limit={}", limit),
            (Err(e), Ok(_)) => prop_assert!(
                false,
                "factorized failed ({e}) where materialized succeeded (limit={})", limit
            ),
            (Err(_), Err(_)) => {}
        }
    }
}
