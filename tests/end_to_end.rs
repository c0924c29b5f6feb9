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
fn tpch_q3_all_methods_agree() {
    let (db, stats) = tpch();
    run_all_and_compare(&db, &stats, &q3("BUILDING", "1995-03-15"));
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

/// TPC-H Q3, Q5, Q8 and Q10 (with and without their `ORDER BY`) answer on
/// the q-HD rung in one counted pass, with no failed attempt and no cover
/// flag, and the rows are bit-identical to CommDB's (full join rows,
/// then the aggregate), in the same order.
#[test]
fn tpch_aggregates_answer_from_the_counted_pass() {
    let (db, stats) = tpch();
    let hybrid = HybridOptimizer::with_stats(QhdOptions::default(), stats.clone());
    let commdb = DbmsSim::commdb(Some(stats));
    for ordered in [
        q3("BUILDING", "1995-03-15"),
        q5("ASIA", 1994),
        q8("AMERICA", "ECONOMY ANODIZED STEEL"),
        q10("1993-10-01"),
    ] {
        let unordered = ordered.split("\nORDER BY").next().unwrap().to_string();
        assert_ne!(unordered, ordered);
        for sql in [ordered.clone(), unordered] {
            let out = hybrid.execute_sql(&db, &sql, Budget::unlimited()).unwrap();
            assert!(!out.factorized && out.factorized_fallback.is_none());
            assert!(out.attempts.is_empty(), "{:?}", out.attempts);
            assert_eq!(out.rung, Rung::QHd);
            let got = out.result.unwrap();
            let reference = commdb.execute_sql(&db, &sql, Budget::unlimited()).unwrap();
            assert_eq!(bits(&got), bits(&reference.result.unwrap()), "{sql}");
        }
    }
}

/// `db` with every table's rows in a random order of their own.
fn shuffled(db: &Database, seed: u64) -> Database {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out = Database::new();
    for (name, rel) in db.tables() {
        let mut rows: Vec<Vec<Value>> = rel.iter_rows().map(Vec::from).collect();
        rows.shuffle(&mut rng);
        let mut moved = Relation::new(rel.schema().clone());
        moved.extend_rows(rows).unwrap();
        out.insert_table(name, moved);
    }
    out
}

/// Every TPC-H query here gives the same answer, float bits included, when
/// each base table holds its rows in another order: every plan then meets
/// the rows in another order, and neither the joins nor float `SUM`/`AVG`
/// may notice.
#[test]
fn tpch_answers_do_not_depend_on_base_row_order() {
    let (db, stats) = tpch();
    let queries = [
        q1(90),
        q3("BUILDING", "1995-03-15"),
        q5("ASIA", 1994),
        q8("AMERICA", "ECONOMY ANODIZED STEEL"),
        q9("Brand#11"),
        q10("1993-10-01"),
    ];
    for seed in [1, 2] {
        let moved = shuffled(&db, seed);
        let moved_stats = analyze(&moved);
        for sql in &queries {
            let want = run_all_and_compare(&db, &stats, sql);
            let got = run_all_and_compare(&moved, &moved_stats, sql);
            assert!(
                got.set_eq(&want),
                "seed {seed}: rows moved, answer changed:\n{sql}"
            );
        }
    }
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

/// A label that repeats takes the smallest free suffix: a second `a`
/// next to a label `a_2` the query chose becomes `a_3`, on the plain and
/// on the grouped path.
#[test]
fn repeated_output_labels_take_a_free_suffix() {
    let (db, stats) = tpch();
    let opt = HybridOptimizer::with_stats(QhdOptions::default(), stats);
    for (sql, rows) in [
        (
            "SELECT n_name AS a, n_regionkey AS a_2, n_nationkey AS a FROM nation",
            25,
        ),
        (
            "SELECT n_name AS a, n_regionkey AS a_2, count(*) AS a FROM nation \
             GROUP BY n_name, n_regionkey",
            25,
        ),
    ] {
        let out = opt.execute_sql(&db, sql, Budget::unlimited()).unwrap();
        let ans = out.result.unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(ans.cols(), ["a", "a_2", "a_3"], "{sql}");
        assert_eq!(ans.len(), rows, "{sql}");
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

/// The q-HD answer on acyclic lines equals the body-order pipeline's,
/// which runs no decomposition and no semijoin pass.
#[test]
fn synthetic_lines_match_naive() {
    for n in [2usize, 4, 7] {
        let db = workload_db(&WorkloadSpec::new(n, 80, 10, n as u64 * 31));
        let q = acyclic_query(n);
        let mut b1 = Budget::unlimited();
        let naive = evaluate_naive(&db, &q, &mut b1).unwrap();
        let hybrid = HybridOptimizer::structural(QhdOptions::default());
        let plan = hybrid.plan_cq(&q).unwrap();
        let mut b2 = Budget::unlimited();
        let qhd = evaluate_qhd(&db, &q, &plan, &mut b2).unwrap();
        assert!(naive.set_eq(&qhd), "line n={n}");
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

fn cities() -> Database {
    use htqo_engine::ColumnType;
    let mut city = Relation::new(Schema::new(&[
        ("id", ColumnType::Int),
        ("name", ColumnType::Str),
    ]));
    // `SÃ£o` is what `'São'` read as when the lexer pushed bytes as chars.
    for (id, name) in [(0, "São"), (1, "Sao"), (2, "SÃ£o"), (3, "Säo")] {
        city.push_row(vec![Value::Int(id), Value::str(name)])
            .unwrap();
    }
    let mut db = Database::new();
    db.insert_table("city", city);
    db
}

#[test]
fn utf8_string_literals_match_the_stored_text() {
    let db = cities();
    let opt = HybridOptimizer::structural(QhdOptions::default());
    let sql = "SELECT city.id FROM city WHERE city.name = 'São'";
    let out = opt.execute_sql(&db, sql, Budget::unlimited()).unwrap();
    let ans = out.result.unwrap();
    assert_eq!(ans.sorted_rows(), [vec![Value::Int(0)].into_boxed_slice()]);
}

/// The deepest nesting the parser accepts, found through the public API.
fn nesting_limit() -> usize {
    let parens = |n: usize| {
        format!(
            "SELECT a FROM t WHERE a = {}1{}",
            "(".repeat(n),
            ")".repeat(n)
        )
    };
    (1..)
        .find(|&n| parse_select(&parens(n + 1)).is_err())
        .unwrap()
}

/// Statements exactly at the parser's nesting limit run through a
/// `Session` on a thread with a 2 MiB stack; one level more is a parse
/// error there.
#[test]
fn statements_at_the_nesting_limit_run_in_a_session_on_a_small_stack() {
    use htqo_optimizer::SqlError;
    let limit = nesting_limit();
    assert!(limit >= 32, "nesting limit {limit}");
    // `sum(…)` is one level; its argument takes the other `limit - 1`.
    let inside = limit - 1;
    let parens = format!(
        "SELECT sum({}city.id{}) AS s FROM city",
        "(".repeat(inside),
        ")".repeat(inside)
    );
    let minus = format!("SELECT sum({}city.id) AS s FROM city", "- ".repeat(inside));
    let (pairs, odd) = (inside / 2, inside % 2);
    let mixed = format!(
        "SELECT sum({}{}city.id{}) AS s FROM city",
        "-(".repeat(pairs),
        "(".repeat(odd),
        ")".repeat(pairs + odd)
    );
    let subqueries = format!(
        "{}SELECT city.id FROM city{}",
        "SELECT city.id FROM city WHERE city.id IN (".repeat(limit),
        ")".repeat(limit)
    );
    let too_deep = format!(
        "SELECT sum({}city.id{}) AS s FROM city",
        "(".repeat(limit),
        ")".repeat(limit)
    );
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let svc = QueryService::new(
                cities(),
                HybridOptimizer::structural(QhdOptions::default()),
                ServiceConfig::default(),
            );
            let session = svc.session();
            // 0 + 1 + 2 + 3, negated once per minus sign.
            let signed = |minuses: usize| if minuses.is_multiple_of(2) { 6 } else { -6 };
            for (sql, sum) in [
                (&parens, 6),
                (&minus, signed(inside)),
                (&mixed, signed(pairs)),
            ] {
                let out = session.execute_sql(sql).unwrap();
                let ans = out.result.unwrap();
                assert_eq!(ans.rows()[0][0], Value::Int(sum), "{sql}");
            }
            // Flattening stops subqueries long before the parser's limit.
            match session.execute_sql(&subqueries) {
                Err(ServiceError::Sql(SqlError::Nested(_))) => {}
                other => panic!("{limit} nested subqueries: {other:?}"),
            }
            match session.execute_sql(&too_deep) {
                Err(ServiceError::Sql(SqlError::Parse(e))) => assert!(e.message.contains("nested")),
                other => panic!("{} levels: {other:?}", limit + 1),
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
