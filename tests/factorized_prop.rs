//! Property tests for the factorized result layer: on random
//! star-with-rowids aggregate queries — COUNT, integer and float SUM,
//! AVG, GROUP BY, ORDER BY and LIMIT — aggregation pushed down into the
//! cover must agree **bit-identically and in order** with the
//! materialized oracle, also under random byte limits (where the
//! factorized path must degrade to materialization rather than change the
//! answer), and over a plan no cover can link it must refuse for that
//! reason and still answer. The byte-limit
//! property also holds the join-order baseline (`evaluate_join_order` +
//! `finalize_c`) to the same limits: it is the unlimited oracle, and
//! under a limit it spills to the same answer or fails with a typed
//! error.

use htqo::prelude::*;
use htqo_cq::{AggFunc, CqBuilder, ScalarExpr, SortDir};
use htqo_engine::schema::{ColumnType, Schema};
use htqo_eval::{
    evaluate_qhd_query_traced, evaluate_qhd_query_with, evaluate_qhd_with, ExecOptions,
    FactorizedTrace,
};
use proptest::prelude::*;

/// A random star query: `hub(X, rid)` with `sats` satellite atoms
/// `s_i(X, P_i, F_i, rid_i)`, every atom guarded by a rowid-style key
/// column (SQL bag semantics). Aggregates over the join: `COUNT(*)`,
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
    let mut b = CqBuilder::new().atom("hub", "hub", &[("x", "X"), ("id", "__rid_hub")]);

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
        let rid = format!("__rid_{name}");
        b = b.atom(
            &name,
            &name,
            &[("x", "X"), ("p", &p), ("f", &f), ("id", &rid)],
        );
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
    b = b.out_var("__rid_hub");
    for i in 0..shape.sats {
        b = b.out_var(&format!("__rid_s{i}"));
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

/// The materialized q-HD answer, finalized: the reference the cover is
/// held to.
fn materialized(
    db: &Database,
    q: &ConjunctiveQuery,
    plan: &QhdPlan,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let answer = evaluate_qhd_with(db, q, plan, budget, &ExecOptions::default())?;
    htqo_engine::aggregate::finalize(&answer, q, budget)
}

/// A 6-cycle `p_i(V_i, V_{i+1})` with the chord `c(V0, V2)`, answering
/// `COUNT(*)` and `SUM(V4)` grouped by `V1, V4` (so `out(Q) = {V1, V4}`),
/// over the shape's sizes and seed. Its q-HD is not stitchable — a
/// vertex's χ holds a variable only its children supply — so no cover can
/// link its vertices, whatever the data.
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

/// True if some float the aggregates read cannot be repeated exactly, so
/// the cover may refuse its weights and the front materialize instead.
fn may_refuse(shape: &Shape) -> bool {
    shape.exotic && (shape.float || shape.avg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pushed-down aggregation over the q-HD cover is bit-identical to the
    /// materialized join + aggregate, rows in the same order — and the
    /// factorized path must actually run (the star-with-rowids family is
    /// always eligible), unless a float it reads cannot be weighted.
    #[test]
    fn qhd_factorized_aggregate_matches_materialized(shape in arb_shape()) {
        let (db, q) = build(&shape);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost)
            .expect("width 4 covers a ≤4-atom star");
        let mut trace = FactorizedTrace::default();
        let mut b1 = Budget::unlimited();
        let fact = evaluate_qhd_query_traced(
            &db, &q, &plan, &mut b1, &ExecOptions::default(), &mut trace,
        ).unwrap();
        prop_assert!(trace.factorized || may_refuse(&shape), "fell back: {:?}", trace.fallback);
        let mat = materialized(&db, &q, &plan, &mut Budget::unlimited()).unwrap();
        prop_assert_eq!(fact.cols(), mat.cols());
        prop_assert_eq!(bits(&fact), bits(&mat));
    }

    /// Over the unstitchable plan, an aggregate whose inputs the root
    /// carries passes the root-coverage check and is refused for
    /// stitchability, and the front answers it from the materialized join
    /// with the oracle's bits.
    #[test]
    fn unstitchable_aggregate_falls_back_for_stitchability(shape in arb_shape()) {
        let (db, q) = unstitchable(&shape);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let mut trace = FactorizedTrace::default();
        let out = evaluate_qhd_query_traced(
            &db, &q, &plan, &mut Budget::unlimited(), &ExecOptions::default(), &mut trace,
        ).unwrap();
        prop_assert!(!trace.factorized);
        let reason = trace.fallback.unwrap_or_default();
        prop_assert!(reason.contains("only its children supply it"), "fell back for: {}", reason);
        let mat = materialized(&db, &q, &plan, &mut Budget::unlimited()).unwrap();
        prop_assert_eq!(bits(&out), bits(&mat));
    }

    /// Under a random byte limit the factorized front never *loses*
    /// answers: whenever the materialized pipeline completes, the
    /// factorized one completes with the identical result (degrading to
    /// materialization internally if the cover's reservations are
    /// denied); and when it completes on its own, its answer matches the
    /// unlimited oracle, rows in order. The oracle is the join-order
    /// baseline, which under the same limit runs `cops::natural_join`'s
    /// Grace spill and the aggregation's spill: same answer or a typed
    /// memory/spill error.
    #[test]
    fn byte_limits_degrade_without_changing_answers(
        shape in arb_shape(),
        limit in 1_000u64..2_000_000,
    ) {
        let (db, q) = build(&shape);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        let baseline = |budget: &mut Budget| {
            let answer = htqo_eval::evaluate_join_order(&db, &q, None, budget)?;
            htqo_engine::aggregate::finalize_c(&answer, &q, budget)
        };
        let oracle = baseline(&mut Budget::unlimited()).unwrap();
        match baseline(&mut Budget::unlimited().with_mem_limit(limit)) {
            Ok(b) => prop_assert_eq!(bits(&b), bits(&oracle), "limit={}", limit),
            Err(e) => prop_assert!(
                matches!(e, EvalError::MemoryExceeded { .. } | EvalError::SpillIo(_)),
                "unexpected error class from the baseline under limit {limit}: {e:?}"
            ),
        }

        let mut b1 = Budget::unlimited().with_mem_limit(limit);
        let fact = evaluate_qhd_query_with(&db, &q, &plan, &mut b1, &ExecOptions::default());
        let mat = materialized(&db, &q, &plan, &mut Budget::unlimited().with_mem_limit(limit));
        match (fact, mat) {
            (Ok(f), _) => prop_assert_eq!(bits(&f), bits(&oracle), "limit={}", limit),
            (Err(e), Ok(_)) => prop_assert!(
                false,
                "factorized failed ({e}) where materialized succeeded (limit={})", limit
            ),
            (Err(_), Err(_)) => {}
        }
    }
}
