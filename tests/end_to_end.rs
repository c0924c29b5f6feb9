//! End-to-end agreement tests: every optimizer/evaluator in the project
//! must produce identical answers on the TPC-H benchmark queries and on
//! the synthetic workloads.

use htqo::prelude::*;
use htqo_tpch::{generate, q1, q10, q3, q5, q8, q9, DbgenOptions};
use htqo_workloads::{acyclic_query, chain_query, workload_db, WorkloadSpec};

fn tpch() -> (Database, DbStats) {
    let db = generate(&DbgenOptions {
        scale: 0.002,
        seed: 77,
    });
    let stats = analyze(&db);
    (db, stats)
}

fn run_all_and_compare(db: &Database, stats: &DbStats, sql: &str) -> VRelation {
    let mut results: Vec<(String, VRelation)> = Vec::new();

    for (name, sim) in [
        ("commdb+stats", DbmsSim::commdb(Some(stats.clone()))),
        ("commdb-nostats", DbmsSim::commdb(None)),
        ("postgres", DbmsSim::postgres(Some(stats.clone()))),
    ] {
        let out = sim.execute_sql(db, sql, Budget::unlimited()).unwrap();
        results.push((name.to_string(), out.result.unwrap()));
    }
    for (name, opt) in [
        (
            "qhd-structural",
            HybridOptimizer::structural(QhdOptions::default()),
        ),
        (
            "qhd-hybrid",
            HybridOptimizer::with_stats(QhdOptions::default(), stats.clone()),
        ),
        (
            "qhd-no-optimize",
            HybridOptimizer::with_stats(
                QhdOptions {
                    max_width: 4,
                    run_optimize: false,
                },
                stats.clone(),
            ),
        ),
    ] {
        let out = opt.execute_sql(db, sql, Budget::unlimited()).unwrap();
        results.push((name.to_string(), out.result.unwrap()));
    }

    // SQL-view rewriting round-trip (flattening any subqueries first,
    // like the optimizers do internally).
    let stmt = parse_select(sql).unwrap();
    let mut budget = Budget::unlimited();
    let (flat_db, flat_stmt) = htqo_optimizer::flatten_subqueries(db, &stmt, &mut budget).unwrap();
    let q = isolate(&flat_stmt, &flat_db, IsolatorOptions::default()).unwrap();
    let opt = HybridOptimizer::with_stats(QhdOptions::default(), stats.clone());
    let plan = opt.plan_cq(&q).unwrap();
    let views = rewrite_to_views(&q, &plan, "t_v");
    let via_views = execute_views(&flat_db, &views, &mut budget).unwrap();
    results.push(("sql-views".to_string(), via_views));

    let (base_name, baseline) = results[0].clone();
    for (name, rel) in &results[1..] {
        assert!(
            baseline.set_eq(rel),
            "{name} disagrees with {base_name} on:\n{sql}\nbaseline {} rows vs {} rows",
            baseline.len(),
            rel.len()
        );
    }
    baseline
}

#[test]
fn tpch_q1_single_table_agrees() {
    let (db, stats) = tpch();
    let ans = run_all_and_compare(&db, &stats, &q1(90));
    // Three return flags, eight output columns, counts sum to the
    // filtered lineitem cardinality.
    assert_eq!(ans.cols().len(), 8);
    assert!(ans.len() <= 3);
    let total: i64 = ans
        .rows()
        .iter()
        .map(|r| match &r[7] {
            htqo_engine::Value::Int(i) => *i,
            other => panic!("count type {other:?}"),
        })
        .sum();
    assert!(total > 0 && total <= db.table("lineitem").unwrap().len() as i64);
}

#[test]
fn tpch_q5_all_methods_agree() {
    let (db, stats) = tpch();
    let ans = run_all_and_compare(&db, &stats, &q5("ASIA", 1994));
    // Shape: revenue per nation, descending.
    assert_eq!(ans.cols(), &["n_name".to_string(), "revenue".to_string()]);
    for w in ans.rows().windows(2) {
        assert!(w[0][1] >= w[1][1], "ORDER BY revenue DESC violated");
    }
}

#[test]
fn tpch_q8_all_methods_agree() {
    let (db, stats) = tpch();
    let ans = run_all_and_compare(&db, &stats, &q8("AMERICA", "ECONOMY ANODIZED STEEL"));
    assert_eq!(ans.cols()[0], "nation");
}

#[test]
fn tpch_q3_all_methods_agree_and_match_yannakakis() {
    let (db, stats) = tpch();
    let sql = q3("BUILDING", "1995-03-15");
    let ans = run_all_and_compare(&db, &stats, &sql);

    // Q3 is acyclic: the classic Yannakakis algorithm must agree on the
    // CQ answer.
    let stmt = parse_select(&sql).unwrap();
    let q = isolate(&stmt, &db, IsolatorOptions::default()).unwrap();
    let mut b1 = Budget::unlimited();
    let ya = evaluate_yannakakis(&db, &q, &mut b1).unwrap();
    let mut b2 = Budget::unlimited();
    let fin = htqo_engine::finalize(&ya, &q, &mut b2).unwrap();
    assert!(fin.set_eq(&ans));
}

#[test]
fn tpch_q9_all_methods_agree() {
    let (db, stats) = tpch();
    let ans = run_all_and_compare(&db, &stats, &q9("Brand#11"));
    assert_eq!(ans.cols(), &["n_name".to_string(), "profit".to_string()]);
}

#[test]
fn tpch_q10_all_methods_agree() {
    let (db, stats) = tpch();
    run_all_and_compare(&db, &stats, &q10("1993-10-01"));
}

#[test]
fn having_and_in_subquery_work_end_to_end() {
    let (db, stats) = tpch();
    // HAVING over an aggregate alias, plus an IN subquery — both
    // extensions layered over the paper's pipeline.
    let sql = "
        SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem, supplier, nation
        WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey
          AND n_nationkey IN (SELECT c_nationkey FROM customer)
        GROUP BY n_name
        HAVING revenue > 0
        ORDER BY revenue DESC";
    let ans = run_all_and_compare(&db, &stats, sql);
    for row in ans.rows() {
        assert!(row[1] > htqo_engine::Value::Int(0));
    }
}

#[test]
fn synthetic_chains_all_methods_agree() {
    for n in [3usize, 5, 6] {
        let db = workload_db(&WorkloadSpec::new(n, 60, 8, n as u64 * 13));
        let stats = analyze(&db);
        let q = chain_query(n);

        let commdb = DbmsSim::commdb(Some(stats.clone()));
        let base = commdb
            .execute_cq(&db, &q, Budget::unlimited())
            .result
            .unwrap();

        let hybrid = HybridOptimizer::with_stats(QhdOptions::default(), stats.clone());
        let ours = hybrid
            .execute_cq(&db, &q, Budget::unlimited())
            .result
            .unwrap();
        assert!(base.set_eq(&ours), "chain n={n}");

        let structural = HybridOptimizer::structural(QhdOptions::default());
        let s = structural
            .execute_cq(&db, &q, Budget::unlimited())
            .result
            .unwrap();
        assert!(base.set_eq(&s), "structural chain n={n}");
    }
}

#[test]
fn synthetic_lines_match_yannakakis() {
    for n in [2usize, 4, 7] {
        let db = workload_db(&WorkloadSpec::new(n, 80, 10, n as u64 * 31));
        let q = acyclic_query(n);
        let mut b1 = Budget::unlimited();
        let ya = evaluate_yannakakis(&db, &q, &mut b1).unwrap();
        let hybrid = HybridOptimizer::structural(QhdOptions::default());
        let plan = hybrid.plan_cq(&q).unwrap();
        let mut b2 = Budget::unlimited();
        let qhd = evaluate_qhd(&db, &q, &plan, &mut b2).unwrap();
        assert!(ya.set_eq(&qhd), "line n={n}");
    }
}

#[test]
fn qhd_materializes_fewer_tuples_on_cyclic_queries() {
    // The headline claim, as a deterministic work comparison: on a cyclic
    // chain with low selectivity, the q-HD evaluation materializes far
    // fewer tuples than the quantitative baseline's full join.
    let n = 6;
    let db = workload_db(&WorkloadSpec::new(n, 400, 25, 99));
    let stats = analyze(&db);
    let q = chain_query(n);

    let commdb = DbmsSim::commdb(Some(stats.clone()));
    let base = commdb.execute_cq(&db, &q, Budget::unlimited());
    let hybrid = HybridOptimizer::with_stats(QhdOptions::default(), stats);
    let ours = hybrid.execute_cq(&db, &q, Budget::unlimited());

    assert!(base.result.is_ok() && ours.result.is_ok());
    assert!(
        ours.tuples * 4 < base.tuples,
        "q-HD should do much less work: {} vs {}",
        ours.tuples,
        base.tuples
    );
}

#[test]
fn count_star_matches_join_cardinality() {
    // COUNT(*) must equal the true number of join rows per group, under
    // every optimizer (the multiplicity-guard correctness check).
    let (db, stats) = tpch();
    let sql = "SELECT n_name, count(*) AS suppliers FROM supplier, nation
               WHERE s_nationkey = n_nationkey GROUP BY n_name ORDER BY suppliers DESC";
    let ans = run_all_and_compare(&db, &stats, sql);
    // The per-nation counts must sum to the supplier count (every
    // supplier has exactly one nation).
    let total: i64 = ans
        .rows()
        .iter()
        .map(|r| match &r[1] {
            htqo_engine::Value::Int(i) => *i,
            other => panic!("count type: {other:?}"),
        })
        .sum();
    assert_eq!(total as usize, db.table("supplier").unwrap().len());
}
