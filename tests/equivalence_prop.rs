//! Property tests: on random conjunctive queries over random databases,
//! every evaluation strategy must return the answer of a reference that
//! shares no hash kernel with the engine's, and every decomposition
//! produced by the pipeline must satisfy Definition 2.

mod support;

use htqo::prelude::*;
use htqo_cq::CqBuilder;
use htqo_engine::schema::{ColumnType, Schema};
use proptest::prelude::*;
use support::{is_reference, reference};

/// A random "query shape": `n` binary atoms, each picking two variables
/// out of a pool of `n + 1`, plus a random subset of output variables.
#[derive(Debug, Clone)]
struct Shape {
    /// `(left var index, right var index)` per atom.
    atoms: Vec<(usize, usize)>,
    out: Vec<usize>,
    rows: usize,
    domain: u64,
    seed: u64,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (2usize..6)
        .prop_flat_map(|n| {
            let vars = n + 1;
            (
                prop::collection::vec((0..vars, 0..vars), n),
                prop::collection::vec(0..vars, 1..3),
                10usize..60,
                2u64..8,
                any::<u64>(),
            )
        })
        .prop_map(|(atoms, out, rows, domain, seed)| Shape {
            atoms,
            out,
            rows,
            domain,
            seed,
        })
}

fn build(shape: &Shape) -> (Database, ConjunctiveQuery) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(shape.seed);
    let mut db = Database::new();
    let mut b = CqBuilder::new();
    for (i, (l, r)) in shape.atoms.iter().enumerate() {
        let mut rel = Relation::new(Schema::new(&[
            ("l", ColumnType::Int),
            ("r", ColumnType::Int),
        ]));
        for _ in 0..shape.rows {
            rel.push_row(vec![
                Value::Int(rng.gen_range(0..shape.domain) as i64),
                Value::Int(rng.gen_range(0..shape.domain) as i64),
            ])
            .unwrap();
        }
        db.insert_table(&format!("t{i}"), rel);
        let lv = format!("V{l}");
        let rv = format!("V{r}");
        b = b.atom(
            &format!("t{i}"),
            &format!("t{i}"),
            &[("l", &lv), ("r", &rv)],
        );
    }
    // Output variables must exist in the query; shape.out indexes the pool.
    let mut q = b;
    let used: Vec<String> = shape
        .atoms
        .iter()
        .flat_map(|(l, r)| [format!("V{l}"), format!("V{r}")])
        .collect();
    let mut added = Vec::new();
    for &o in &shape.out {
        let name = format!("V{o}");
        if used.contains(&name) && !added.contains(&name) {
            q = q.out_var(&name);
            added.push(name);
        }
    }
    if added.is_empty() {
        // Guarantee at least one output variable.
        let name = format!("V{}", shape.atoms[0].0);
        q = q.out_var(&name);
    }
    (db, q.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// q-HD evaluation ≡ the reference on random queries.
    #[test]
    fn qhd_equals_naive(shape in arb_shape()) {
        let (db, q) = build(&shape);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost)
            .expect("width 4 suffices for ≤5 binary atoms");
        let mut b1 = Budget::unlimited();
        let qhd = evaluate_qhd(&db, &q, &plan, &mut b1).unwrap();
        prop_assert!(
            is_reference(&qhd, &reference(&db, &q)),
            "plan:\n{}",
            plan.tree.display(&plan.cq_hypergraph.hypergraph)
        );
    }

    /// The body-order baseline ≡ the reference.
    #[test]
    fn body_order_equals_the_reference(shape in arb_shape()) {
        let (db, q) = build(&shape);
        let naive = evaluate_naive(&db, &q, &mut Budget::unlimited()).unwrap();
        prop_assert!(is_reference(&naive, &reference(&db, &q)), "body order");
    }

    /// The hybrid optimizer (with real statistics) also agrees.
    #[test]
    fn hybrid_equals_naive(shape in arb_shape()) {
        let (db, q) = build(&shape);
        let stats = analyze(&db);
        let opt = HybridOptimizer::with_stats(QhdOptions::default(), stats);
        let out = opt.execute_cq(&db, &q, Budget::unlimited());
        let ours = out.result.unwrap();
        let mut b3 = Budget::unlimited();
        let want = htqo_engine::finalize(&reference(&db, &q), &q, &mut b3).unwrap();
        prop_assert!(ours.set_eq(&want));
    }

    /// Every decomposition the pipeline produces satisfies Definition 2
    /// plus the enforcement-assignment invariant.
    #[test]
    fn produced_decompositions_are_valid(shape in arb_shape()) {
        let (_db, q) = build(&shape);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        htqo_core::validate::check_qhd(
            &plan.cq_hypergraph.hypergraph,
            &plan.tree,
            &plan.out_vars,
        )
        .expect("Definition 2");
        // Disabling Optimize must also yield a valid decomposition.
        let plan2 = q_hypertree_decomp(
            &q,
            &QhdOptions { max_width: 4, run_optimize: false },
            &StructuralCost,
        )
        .unwrap();
        htqo_core::validate::check_qhd(
            &plan2.cq_hypergraph.hypergraph,
            &plan2.tree,
            &plan2.out_vars,
        )
        .expect("Definition 2 (no Optimize)");
    }

    /// The SQL-view rewriting round-trips on random queries.
    #[test]
    fn views_round_trip(shape in arb_shape()) {
        let (db, q) = build(&shape);
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let plan = opt.plan_cq(&q).unwrap();
        let views = rewrite_to_views(&q, &plan, "pv");
        let mut b1 = Budget::unlimited();
        let via = execute_views(&db, &views, &mut b1).unwrap();
        let direct = opt.execute_cq(&db, &q, Budget::unlimited()).result.unwrap();
        prop_assert!(via.set_eq(&direct), "script:\n{}", views.script());
    }

    /// DP join orders are permutations and evaluate to the reference.
    #[test]
    fn dp_orders_are_valid(shape in arb_shape()) {
        let (db, q) = build(&shape);
        let stats = analyze(&db);
        let order = htqo_optimizer::dp_join_order(&q, &stats);
        let mut sorted = order.clone();
        sorted.sort();
        prop_assert_eq!(sorted, q.atom_ids().collect::<Vec<_>>());
        let mut b1 = Budget::unlimited();
        let a = htqo_eval::evaluate_join_order(&db, &q, Some(&order), &mut b1).unwrap();
        prop_assert!(is_reference(&a.to_vrel(), &reference(&db, &q)));
    }
}
