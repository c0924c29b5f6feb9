//! SQL's bag semantics for aggregates, held against a nested-loop bag
//! reference that works from the parsed statement alone: every
//! combination of base rows the `FROM` list makes, filtered by the
//! `WHERE` conjuncts, grouped and aggregated row by row. It shares no
//! join, projection or aggregation code with the engine.
//!
//! The generated data has repeated base rows, join keys that repeat on
//! both sides (no join is key-preserving) and NULLs in the aggregated
//! columns; the statements join 3 to 6 tables in chains, cycles and stars
//! and aggregate with `SUM`, `COUNT(*)`, `COUNT(x)`, `AVG`, `MIN` and
//! `MAX` — mostly over one table, so that plans have several vertices
//! whose counted rows merge —, grouped or not, ordered or not, limited or
//! not. Every entry point must give the reference's rows, in its order:
//! the q-HD rung, a q-HD plan of width 2 (several vertices, where one
//! exists), CommDB, the stand-alone views (`execute_views`) and a
//! `Session` — in memory, under forced spill and under byte limits (where
//! a typed resource error is the only other outcome) —, and the hybrid
//! optimizer's left-deep fallback rung on cycles of no width-1
//! decomposition. Two metamorphic relations close it: adding `count(*)`
//! to a select list changes no other column, and duplicating every row
//! of one table doubles every `COUNT(*)` and `SUM`.
//!
//! Case count is `HTQO_CHAOS_CASES` (default 48).

use htqo::prelude::*;
use htqo_cq::sql::ast::{OrderKey, Predicate, SelectItem, SelectStmt, SqlExpr};
use htqo_cq::{AggFunc, CmpOp, SortDir};
use htqo_engine::error::SpillMode;
use htqo_engine::schema::ColumnType;
use std::cmp::Ordering;

fn cases() -> u64 {
    std::env::var("HTQO_CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// SplitMix64: a case is expanded from its number alone.
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

    fn chance(&mut self, per_thousand: u64) -> bool {
        self.below(1000) < per_thousand
    }
}

/// Tables `t0..t{n-1}(a, b, v, f)`: keys `a`, `b` from a domain of one to
/// three values, `v` an integer and `f` a float in quarters (sums are
/// exact in any order), each NULL now and then; some rows repeated, now
/// and then a table empty. The more tables, the fewer rows each, so that
/// the nested-loop reference stays small.
fn database(g: &mut Rng, n: usize) -> Database {
    let most_rows = [9, 7, 5, 4][n - 3];
    let mut db = Database::new();
    for t in 0..n {
        let mut rel = Relation::new(Schema::new(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
            ("v", ColumnType::Int),
            ("f", ColumnType::Float),
        ]));
        let domain = 1 + g.below(3) as i64;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let len = if g.chance(50) {
            0
        } else {
            2 + g.below(most_rows - 1)
        };
        for _ in 0..len {
            let v = if g.chance(150) {
                Value::Null
            } else {
                Value::Int(g.below(21) as i64 - 10)
            };
            let f = if g.chance(150) {
                Value::Null
            } else {
                Value::Float((g.below(41) as f64 - 20.0) * 0.25)
            };
            let a = Value::Int(g.below(domain as u64) as i64);
            let b = Value::Int(g.below(domain as u64) as i64);
            rows.push(vec![a, b, v, f]);
            if g.chance(250) {
                rows.push(rows.last().unwrap().clone());
            }
        }
        rel.extend_rows(rows).unwrap();
        db.insert_table(&format!("t{t}"), rel);
    }
    db
}

/// How many tables a case joins: 3 to 6.
fn atoms(g: &mut Rng) -> usize {
    3 + g.below(4) as usize
}

/// The join conditions of an `n`-atom shape over `t0..t{n-1}`: a chain
/// (`ti.b = t{i+1}.a`), the chain closed into a cycle, or a star whose
/// satellites join the hub `t0` each on a column picked at random.
fn shape(g: &mut Rng, n: usize) -> Vec<String> {
    let chain = (1..n).map(|i| format!("t{}.b = t{i}.a", i - 1));
    match g.below(3) {
        0 => chain.collect(),
        1 => chain.chain([format!("t{}.b = t0.a", n - 1)]).collect(),
        _ => (1..n)
            .map(|i| {
                let [hub, sat] = [0, 1].map(|_| ["a", "b"][g.below(2) as usize]);
                format!("t0.{hub} = t{i}.{sat}")
            })
            .collect(),
    }
}

/// A statement joining `t0..t{n-1}` in a chain, cycle or star, with an
/// optional filter, an optional grouping column, one to four aggregates
/// and optional `ORDER BY` and `LIMIT`. Mostly the aggregates and the
/// grouping column read one table, so that a plan can root at it with the
/// other atoms in vertices below, whose counted rows `P″` merges; now and
/// then they spread over every table.
fn statement(g: &mut Rng, n: usize) -> String {
    let mut preds = shape(g, n);
    if g.chance(300) {
        let t = g.below(n as u64);
        preds.push(format!("t{t}.v > {}", g.below(11) as i64 - 5));
    }
    let group = g.chance(600);
    let one = g.chance(800).then(|| g.below(n as u64));
    let mut items = Vec::new();
    let mut labels = Vec::new();
    if group {
        items.push(format!("t{}.a AS g", one.unwrap_or(0)));
        labels.push("g".to_string());
    }
    for k in 0..1 + g.below(4) {
        let t = one.unwrap_or_else(|| g.below(n as u64));
        let col = ["v", "f"][g.below(2) as usize];
        let agg = match g.below(6) {
            0 => "count(*)".to_string(),
            1 => format!("count(t{t}.{col})"),
            2 => format!("sum(t{t}.{col})"),
            3 => format!("avg(t{t}.{col})"),
            4 => format!("min(t{t}.{col})"),
            _ => format!("max(t{t}.{col})"),
        };
        items.push(format!("{agg} AS x{k}"));
        labels.push(format!("x{k}"));
    }
    let tables: Vec<String> = (0..n).map(|t| format!("t{t}")).collect();
    let mut sql = format!(
        "SELECT {} FROM {} WHERE {}",
        items.join(", "),
        tables.join(", "),
        preds.join(" AND ")
    );
    if group {
        sql.push_str(&format!(" GROUP BY t{}.a", one.unwrap_or(0)));
    }
    if g.chance(500) {
        let l = &labels[g.below(labels.len() as u64) as usize];
        let dir = ["", " DESC"][g.below(2) as usize];
        sql.push_str(&format!(" ORDER BY {l}{dir}"));
    }
    if g.chance(300) {
        sql.push_str(&format!(" LIMIT {}", g.below(4)));
    }
    sql
}

/// The bag reference: SQL's answer to `sql` over `db`, by nested loops.
fn reference(db: &Database, sql: &str) -> VRelation {
    let stmt = parse_select(sql).unwrap();
    let tables: Vec<(String, &Relation)> = (stmt.from.iter())
        .map(|t| (t.binding().to_string(), db.table(&t.table).unwrap()))
        .collect();
    let rows: Vec<Vec<Vec<Value>>> = (tables.iter())
        .map(|(_, rel)| rel.iter_rows().map(Vec::from).collect())
        .collect();
    let table_of = |e: &SqlExpr| match e {
        SqlExpr::Col(c) => (tables.iter())
            .position(|(b, _)| Some(b.as_str()) == c.qualifier.as_deref())
            .expect("qualified column"),
        _ => 0,
    };
    let cell = |combo: &[usize], e: &SqlExpr| -> Value {
        match e {
            SqlExpr::Col(c) => {
                let t = table_of(e);
                let col = tables[t].1.schema().index_of(&c.column).expect("column");
                rows[t][combo[t]][col].clone()
            }
            SqlExpr::Lit(l) => Value::from(l),
            SqlExpr::Binary(..) => unimplemented!("the statements aggregate columns"),
        }
    };
    let holds = |combo: &[usize], p: &Predicate| {
        let Predicate::Cmp { left, op, right } = p else {
            unimplemented!("no subqueries")
        };
        let ord = cell(combo, left).sql_cmp(&cell(combo, right));
        ord.is_some_and(|o| match op {
            CmpOp::Eq => o.is_eq(),
            CmpOp::Ne => o.is_ne(),
            CmpOp::Lt => o.is_lt(),
            CmpOp::Le => o.is_le(),
            CmpOp::Gt => o.is_gt(),
            CmpOp::Ge => o.is_ge(),
        })
    };
    // The last table each conjunct reads: it is tested as soon as the
    // combinations bind that table, so no loop holds the whole product.
    let last_table = |p: &Predicate| match p {
        Predicate::Cmp { left, right, .. } => table_of(left).max(table_of(right)),
        _ => unimplemented!("no subqueries"),
    };
    // Every combination of base rows that the conjuncts keep, as one row
    // index per table.
    let mut combos: Vec<Vec<usize>> = vec![Vec::new()];
    for (t, r) in rows.iter().enumerate() {
        combos = (combos.iter())
            .flat_map(|c| (0..r.len()).map(move |i| [c.clone(), vec![i]].concat()))
            .filter(|c| {
                (stmt.predicates.iter())
                    .filter(|p| last_table(p) == t)
                    .all(|p| holds(c, p))
            })
            .collect();
    }
    // Groups in first-seen order (the tail sorts them anyway).
    let key = |c: &[usize]| -> Vec<Value> {
        (stmt.group_by.iter())
            .map(|col| cell(c, &SqlExpr::Col(col.clone())))
            .collect()
    };
    let mut groups: Vec<(Vec<Value>, Vec<&Vec<usize>>)> = Vec::new();
    for c in &combos {
        let k = key(c);
        match groups.iter_mut().find(|(gk, _)| *gk == k) {
            Some((_, members)) => members.push(c),
            None => groups.push((k, vec![c])),
        }
    }
    if groups.is_empty() && stmt.group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    let mut labels = Vec::new();
    let mut out: Vec<Vec<Value>> = vec![Vec::new(); groups.len()];
    for item in &stmt.select {
        match item {
            SelectItem::Expr { expr, alias } => {
                labels.push(alias.clone().unwrap());
                for (row, (_, members)) in out.iter_mut().zip(&groups) {
                    row.push(cell(members[0], expr));
                }
            }
            SelectItem::Aggregate { func, expr, alias } => {
                labels.push(alias.clone().unwrap());
                for (row, (_, members)) in out.iter_mut().zip(&groups) {
                    let values: Vec<Value> = match expr {
                        None => vec![Value::Int(1); members.len()],
                        Some(e) => members.iter().map(|c| cell(c, e)).collect(),
                    };
                    row.push(aggregate(
                        *func,
                        values.into_iter().filter(|v| !v.is_null()),
                    ));
                }
            }
        }
    }
    tail(&stmt, labels, out)
}

/// One aggregate over the non-NULL values of a group.
fn aggregate(func: AggFunc, values: impl Iterator<Item = Value>) -> Value {
    let values: Vec<Value> = values.collect();
    let sum = || match values.first() {
        Some(Value::Int(_)) => Value::Int(values.iter().map(|v| v.as_f64().unwrap() as i64).sum()),
        _ => Value::Float(values.iter().map(|v| v.as_f64().unwrap()).sum()),
    };
    match func {
        AggFunc::Count => Value::Int(values.len() as i64),
        _ if values.is_empty() => Value::Null,
        AggFunc::Sum => sum(),
        AggFunc::Avg => {
            let total: f64 = values.iter().map(|v| v.as_f64().unwrap()).sum();
            Value::Float(total / values.len() as f64)
        }
        AggFunc::Min => values.iter().min().unwrap().clone(),
        AggFunc::Max => values.iter().max().unwrap().clone(),
    }
}

/// ORDER BY, ties broken on the whole row (then by identity), and LIMIT.
fn tail(stmt: &SelectStmt, labels: Vec<String>, mut rows: Vec<Vec<Value>>) -> VRelation {
    let keys: Vec<(usize, bool)> = (stmt.order_by.iter())
        .map(|(k, dir)| {
            let i = match k {
                OrderKey::Name(n) => labels.iter().position(|l| l == n).unwrap(),
                OrderKey::Position(p) => p - 1,
            };
            (i, *dir == SortDir::Desc)
        })
        .collect();
    rows.sort_by(|x, y| {
        let by_key = keys.iter().map(|&(i, desc)| {
            let o = x[i].cmp(&y[i]);
            if desc {
                o.reverse()
            } else {
                o
            }
        });
        let by_row = x.iter().zip(y).map(|(a, b)| a.cmp(b));
        let by_identity = x.iter().zip(y).map(|(a, b)| a.cmp_identity(b));
        (by_key.chain(by_row).chain(by_identity).find(|o| o.is_ne())).unwrap_or(Ordering::Equal)
    });
    rows.truncate(stmt.limit.unwrap_or(usize::MAX));
    VRelation::from_rows(
        labels,
        rows.into_iter().map(Vec::into_boxed_slice).collect(),
    )
}

/// The rows in order, floats by their bits.
fn bits(v: &VRelation) -> Vec<String> {
    let cell = |v: &Value| match v {
        Value::Float(x) => format!("F{:x}", x.to_bits()),
        v => format!("{v:?}"),
    };
    let rows = (v.rows().iter()).map(|row| row.iter().map(cell).collect::<Vec<_>>().join("|"));
    std::iter::once(format!("{:?}", v.cols()))
        .chain(rows)
        .collect()
}

/// Every entry point's answer to `sql`, named; `budget` makes each one's
/// budget (the views and the session run in memory only).
fn answers(
    db: &Database,
    sql: &str,
    budget: &dyn Fn() -> Budget,
    in_memory: bool,
) -> Vec<(&'static str, Result<VRelation, EvalError>)> {
    let stats = analyze(db);
    let hybrid = HybridOptimizer::with_stats(QhdOptions::default(), stats.clone());
    let q = isolate(&parse_select(sql).unwrap(), db, IsolatorOptions::default()).unwrap();
    let outcome = hybrid.execute_sql(db, sql, budget()).unwrap();
    // The answer is q-HD's, unless every rung before the one that answered
    // ran out of memory under a byte cap: then a lower rung's answer is
    // held to the reference all the same.
    let out_of_memory = !outcome.attempts.is_empty()
        && (outcome.attempts.iter()).all(|a| matches!(a.error, EvalError::MemoryExceeded { .. }));
    if outcome.result.is_ok() && !out_of_memory {
        assert_eq!(outcome.rung, Rung::QHd, "{sql}: {}", outcome.plan);
    }
    let mut out = vec![("q-HD", outcome.result)];
    // At width 2 a plan, where one exists, has several vertices: `P″`
    // joins and filters counted children.
    let narrow = QhdOptions {
        max_width: 2,
        ..QhdOptions::default()
    };
    let narrow = HybridOptimizer::with_stats(narrow, stats.clone())
        .plan_cq(&q)
        .ok();
    if let Some(plan) = &narrow {
        let answer = htqo_eval::evaluate_qhd_query(db, &q, plan, &mut budget());
        out.push(("q-HD at width 2", answer));
    }
    let commdb = DbmsSim::commdb(Some(stats.clone()));
    out.push((
        "CommDB",
        commdb.execute_sql(db, sql, budget()).unwrap().result,
    ));
    if in_memory {
        let plan = narrow.unwrap_or_else(|| hybrid.plan_cq(&q).unwrap());
        let views = rewrite_to_views(&q, &plan, "bag_v");
        out.push(("views", execute_views(db, &views, &mut budget())));
        let service = QueryService::new(db.clone(), hybrid, ServiceConfig::default());
        let session = service.session().execute_sql(sql).unwrap();
        out.push(("Session", session.result));
    }
    out
}

#[test]
fn every_entry_point_answers_the_bag_reference() {
    // Statements whose answer counts more than one join row somewhere.
    let mut repeated = 0;
    for case in 0..cases() {
        let mut g = Rng(case);
        let n = atoms(&mut g);
        let db = database(&mut g, n);
        for _ in 0..3 {
            let sql = statement(&mut g, n);
            let with_count = sql.replacen(" FROM ", ", count(*) AS rows FROM ", 1);
            let counts = reference(&db, &with_count);
            let last = counts.cols().len() - 1;
            repeated += (counts.rows().iter()).any(|r| r[last].as_f64() > Some(1.0)) as u64;
            let want = bits(&reference(&db, &sql));
            for (path, got) in answers(&db, &sql, &Budget::unlimited, true) {
                let got = got.unwrap_or_else(|e| panic!("case {case}, {path}: {e}\n{sql}"));
                assert_eq!(bits(&got), want, "case {case}, {path}\n{sql}");
            }
            let forced = || Budget::unlimited().with_spill_mode(SpillMode::Force);
            for (path, got) in answers(&db, &sql, &forced, false) {
                let got = got.unwrap_or_else(|e| panic!("case {case}, {path} spilled: {e}\n{sql}"));
                assert_eq!(
                    bits(&got),
                    want,
                    "case {case}, {path} (forced spill)\n{sql}"
                );
            }
            let limit = 2_000 + g.below(60_000);
            let capped = || Budget::unlimited().with_mem_limit(limit);
            for (path, got) in answers(&db, &sql, &capped, false) {
                match got {
                    Ok(got) => assert_eq!(bits(&got), want, "case {case}, {path} ({limit} B)"),
                    Err(e) => assert!(
                        e.is_resource_limit() || matches!(e, EvalError::SpillIo(_)),
                        "case {case}, {path} ({limit} B): {e}\n{sql}"
                    ),
                }
            }
        }
    }
    assert!(
        repeated >= cases(),
        "{repeated} of {} statements",
        3 * cases()
    );
}

/// `SUM` and `COUNT(*)` over a cycle, which has no decomposition of
/// width 1: at that bound the q-HD rung fails, and the left-deep order
/// the fallback rung plans answers SQL's bag.
#[test]
fn the_fallback_rung_answers_the_bag_reference() {
    let narrow = QhdOptions {
        max_width: 1,
        ..QhdOptions::default()
    };
    for case in 0..cases() {
        let mut g = Rng(case ^ 0xFA11_BAC0);
        let n = atoms(&mut g);
        let db = database(&mut g, n);
        let tables: Vec<String> = (0..n).map(|t| format!("t{t}")).collect();
        let cycle: Vec<String> = (0..n)
            .map(|i| format!("t{i}.b = t{}.a", (i + 1) % n))
            .collect();
        let sql = format!(
            "SELECT t0.a AS g, count(*) AS n, sum(t{t}.v) AS sv, sum(t{u}.f) AS sf \
             FROM {} WHERE {} GROUP BY t0.a ORDER BY g",
            tables.join(", "),
            cycle.join(" AND "),
            t = g.below(n as u64),
            u = g.below(n as u64),
        );
        let hybrid = HybridOptimizer::with_stats(narrow.clone(), analyze(&db));
        let out = hybrid.execute_sql(&db, &sql, Budget::unlimited()).unwrap();
        assert_eq!(out.rung, Rung::LeftDeep, "case {case}: {}\n{sql}", out.plan);
        assert_eq!(out.attempts.len(), 1, "case {case}: {}", out.plan);
        assert_eq!(
            bits(&out.result.unwrap()),
            bits(&reference(&db, &sql)),
            "case {case}\n{sql}"
        );
    }
}

/// The q-HD answer to `sql`.
fn qhd(db: &Database, sql: &str) -> VRelation {
    let hybrid = HybridOptimizer::with_stats(QhdOptions::default(), analyze(db));
    let out = hybrid.execute_sql(db, sql, Budget::unlimited()).unwrap();
    assert_eq!(out.rung, Rung::QHd, "{}", out.plan);
    out.result.unwrap()
}

/// Adding `count(*)` to a select list changes no other column.
#[test]
fn adding_count_star_changes_no_other_column() {
    for case in 0..cases() {
        let mut g = Rng(case ^ 0xC0FF_EE00);
        let n = atoms(&mut g);
        let db = database(&mut g, n);
        let sql = statement(&mut g, n);
        let with = sql.replacen(" FROM ", ", count(*) AS extra FROM ", 1);
        let (plain, counted) = (qhd(&db, &sql), qhd(&db, &with));
        let n = plain.cols().len();
        assert_eq!(plain.cols(), &counted.cols()[..n], "{with}");
        let strip = |rows: &[Box<[Value]>]| -> Vec<Vec<Value>> {
            rows.iter().map(|r| r[..n].to_vec()).collect()
        };
        assert_eq!(
            strip(plain.rows()),
            strip(counted.rows()),
            "case {case}\n{with}"
        );
        assert_eq!(
            bits(&counted),
            bits(&reference(&db, &with)),
            "case {case}\n{with}"
        );
    }
}

/// Duplicating every row of one table doubles every `COUNT(*)` and `SUM`.
#[test]
fn duplicating_a_table_doubles_counts_and_sums() {
    for case in 0..cases() {
        let mut g = Rng(case ^ 0xD0B1_E000);
        let db = database(&mut g, 3);
        let t = g.below(3);
        let sql = format!(
            "SELECT t0.a AS g, count(*) AS n, sum(t{t}.v) AS sv, sum(t{u}.f) AS sf \
             FROM t0, t1, t2 WHERE t0.b = t1.a AND t1.b = t2.a GROUP BY t0.a",
            u = g.below(3)
        );
        let mut doubled = db.clone();
        let name = format!("t{}", g.below(3));
        let rel = db.table(&name).unwrap();
        let mut twice = Relation::new(rel.schema().clone());
        let rows: Vec<Vec<Value>> = rel.iter_rows().map(Vec::from).collect();
        twice
            .extend_rows(rows.iter().chain(&rows).cloned())
            .unwrap();
        doubled.insert_table(&name, twice);
        let (once, two) = (qhd(&db, &sql), qhd(&doubled, &sql));
        assert_eq!(once.len(), two.len(), "case {case}, {name} doubled\n{sql}");
        let double = |v: &Value| match v {
            Value::Int(i) => Value::Int(2 * i),
            Value::Float(x) => Value::Float(2.0 * x),
            v => v.clone(),
        };
        for (a, b) in once.rows().iter().zip(two.rows()) {
            assert_eq!(a[0], b[0], "case {case}, {name} doubled\n{sql}");
            let want: Vec<Value> = a[1..].iter().map(double).collect();
            assert_eq!(&b[1..], &want[..], "case {case}, {name} doubled\n{sql}");
        }
    }
}

/// The query that set-semantics aggregation got wrong: `sum(s_acctbal)`
/// per nation over a join with customer that is not key-preserving. At
/// TPC-H SF 0.01, seed 19920701, ALGERIA's `bal` is 556,197.39 (SQL's
/// answer), with or without `count(*)` in the select list, from every
/// entry point.
#[test]
fn suppliers_times_customers_per_nation_is_sql_s_sum() {
    let db = htqo_tpch::generate(&htqo_tpch::DbgenOptions {
        scale: 0.01,
        seed: 19920701,
    });
    for count in ["", ", count(*) AS n"] {
        let sql = format!(
            "SELECT n_name, sum(s_acctbal) AS bal{count} FROM supplier, nation, customer \
             WHERE s_nationkey = n_nationkey AND c_nationkey = n_nationkey GROUP BY n_name"
        );
        let all = answers(&db, &sql, &Budget::unlimited, true);
        let first = bits(all[0].1.as_ref().unwrap());
        for (path, got) in &all {
            let got = got.as_ref().unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(bits(got), first, "{path}\n{sql}");
            let algeria = (got.rows().iter())
                .find(|r| r[0] == Value::str("ALGERIA"))
                .expect("an ALGERIA group");
            let Value::Float(bal) = algeria[1] else {
                panic!("{path}: bal is {:?}", algeria[1])
            };
            assert!((bal - 556_197.39).abs() < 0.005, "{path}: {bal}\n{sql}");
        }
    }
}
