//! Nested-query support (the paper's "dealing with any kind of nested
//! queries" future work, in its most useful uncorrelated form): flatten
//! `col IN (SELECT …)` predicates by materializing the subquery result as
//! a temporary single-column table and rewriting the membership test into
//! an equality join against it.
//!
//! Because the subquery result is deduplicated, the join adds exactly one
//! match per satisfying outer row — semantically identical to `IN`. The
//! rewritten statement is then a flat conjunctive query the structural
//! optimizer understands. Subqueries may nest; correlation and `NOT IN`
//! (whose NULL semantics need anti-joins) are rejected with typed errors.

use htqo_cq::sql::ast::{ColumnRef, Predicate, SelectStmt, SqlExpr, TableRef};
use htqo_cq::{isolate, CmpOp, IsolatorOptions};
use htqo_engine::error::{Budget, EvalError};
use htqo_engine::schema::Database;
use htqo_eval::evaluate_join_order;
use std::fmt;

/// Maximum subquery nesting depth.
pub const MAX_DEPTH: usize = 8;

/// Errors raised while flattening subqueries.
#[derive(Debug)]
pub enum NestedError {
    /// `NOT IN` is not supported (NULL semantics require anti-joins).
    NotInUnsupported,
    /// The subquery does not produce exactly one output column.
    NotSingleColumn(usize),
    /// Subqueries nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// The subquery failed SQL-to-CQ translation.
    Isolate(htqo_cq::IsolateError),
    /// The subquery failed to evaluate.
    Eval(EvalError),
}

impl fmt::Display for NestedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NestedError::NotInUnsupported => f.write_str("NOT IN subqueries are not supported"),
            NestedError::NotSingleColumn(n) => {
                write!(f, "IN subquery must return exactly one column, got {n}")
            }
            NestedError::TooDeep => write!(f, "subqueries nested deeper than {MAX_DEPTH}"),
            NestedError::Isolate(e) => write!(f, "subquery: {e}"),
            NestedError::Eval(e) => write!(f, "subquery evaluation: {e}"),
        }
    }
}

impl std::error::Error for NestedError {}

/// The column name temporary subquery tables expose.
pub const SUBQUERY_COLUMN: &str = "v";

/// Flattens every `IN (SELECT …)` predicate of `stmt`, returning the
/// rewritten statement and a database overlay containing the materialized
/// subquery tables (named `__subq_{depth}_{i}`).
///
/// Statements without subqueries are returned unchanged with a cheap
/// catalog clone.
pub fn flatten_subqueries(
    db: &Database,
    stmt: &SelectStmt,
    budget: &mut Budget,
) -> Result<(Database, SelectStmt), NestedError> {
    flatten_at(db, stmt, budget, 0)
}

fn flatten_at(
    db: &Database,
    stmt: &SelectStmt,
    budget: &mut Budget,
    depth: usize,
) -> Result<(Database, SelectStmt), NestedError> {
    if depth > MAX_DEPTH {
        return Err(NestedError::TooDeep);
    }
    let mut db = db.clone();
    let mut out = stmt.clone();
    let mut counter = 0usize;
    for pred in out.predicates.iter_mut() {
        let Predicate::InSubquery {
            col,
            subquery,
            negated,
        } = pred
        else {
            continue;
        };
        if *negated {
            return Err(NestedError::NotInUnsupported);
        }
        // Recursively flatten, isolate and evaluate the subquery.
        let (sub_db, sub_stmt) = flatten_at(&db, subquery, budget, depth + 1)?;
        let q = isolate(&sub_stmt, &sub_db, IsolatorOptions::default())
            .map_err(NestedError::Isolate)?;
        let visible = q
            .output
            .iter()
            .filter(|o| !htqo_cq::isolator::is_hidden_label(o.label()))
            .count();
        if visible != 1 {
            return Err(NestedError::NotSingleColumn(visible));
        }
        let answer = evaluate_join_order(&sub_db, &q, None, budget).map_err(NestedError::Eval)?;
        let result = htqo_engine::finalize_c(&answer, &q, budget).map_err(NestedError::Eval)?;

        // Materialize as a single-column table with a canonical name.
        let name = format!("__subq_{depth}_{counter}");
        counter += 1;
        let mut renamed = htqo_engine::VRelation::from_rows(
            vec![SUBQUERY_COLUMN.to_string()],
            result
                .rows()
                .iter()
                .map(|r| vec![r[0].clone()].into_boxed_slice())
                .collect(),
        );
        renamed.dedup();
        let rel = crate::views::vrel_to_relation(&renamed).map_err(NestedError::Eval)?;
        db.insert_table(&name, rel);

        // Rewrite `col IN (…)` into `col = __subq_k_i.v` plus the FROM
        // entry for the temporary table.
        out.from.push(TableRef {
            table: name.clone(),
            alias: None,
        });
        *pred = Predicate::Cmp {
            left: SqlExpr::Col(col.clone()),
            op: CmpOp::Eq,
            right: SqlExpr::Col(ColumnRef {
                qualifier: Some(name),
                column: SUBQUERY_COLUMN.to_string(),
            }),
        };
    }
    Ok((db, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbms::DbmsSim;
    use crate::hybrid::HybridOptimizer;
    use htqo_core::QhdOptions;
    use htqo_cq::parse_select;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Schema};
    use htqo_engine::value::Value;
    use htqo_eval::evaluate_naive;

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::new(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
        ]));
        let mut s = Relation::new(Schema::new(&[
            ("b", ColumnType::Int),
            ("c", ColumnType::Int),
        ]));
        for i in 0..30i64 {
            r.push_row(vec![Value::Int(i % 6), Value::Int(i % 5)])
                .unwrap();
            s.push_row(vec![Value::Int(i % 5), Value::Int(i % 4)])
                .unwrap();
        }
        db.insert_table("r", r);
        db.insert_table("s", s);
        db
    }

    #[test]
    fn in_subquery_equals_manual_join() {
        let db = db();
        let nested = "SELECT r.a FROM r WHERE r.b IN (SELECT s.b FROM s WHERE s.c = 1)";
        let manual = "SELECT r.a FROM r, s WHERE r.b = s.b AND s.c = 1";

        let stmt = parse_select(nested).unwrap();
        let mut budget = Budget::unlimited();
        let (db2, flat) = flatten_subqueries(&db, &stmt, &mut budget).unwrap();
        assert_eq!(flat.from.len(), 2);
        let q = isolate(&flat, &db2, IsolatorOptions::default()).unwrap();
        let mut b2 = Budget::unlimited();
        let ans = evaluate_naive(&db2, &q, &mut b2).unwrap();
        let mut b2b = Budget::unlimited();
        let got = htqo_engine::finalize(&ans, &q, &mut b2b).unwrap();

        let sim = DbmsSim::commdb(None);
        let want = sim
            .execute_sql(&db, manual, Budget::unlimited())
            .unwrap()
            .result
            .unwrap();
        assert!(got.set_eq(&want));
    }

    #[test]
    fn doubly_nested_subqueries() {
        let db = db();
        let sql = "SELECT r.a FROM r WHERE r.b IN (
                       SELECT s.b FROM s WHERE s.c IN (SELECT s2.c FROM s s2 WHERE s2.b = 2))";
        let stmt = parse_select(sql).unwrap();
        let mut budget = Budget::unlimited();
        let (db2, flat) = flatten_subqueries(&db, &stmt, &mut budget).unwrap();
        // Both levels flattened into plain comparisons.
        assert!(flat
            .predicates
            .iter()
            .all(|p| matches!(p, Predicate::Cmp { .. })));
        let q = isolate(&flat, &db2, IsolatorOptions::default()).unwrap();
        let mut b = Budget::unlimited();
        let ans = evaluate_naive(&db2, &q, &mut b).unwrap();
        assert!(!ans.is_empty());
    }

    #[test]
    fn not_in_is_rejected() {
        let db = db();
        let stmt = parse_select("SELECT r.a FROM r WHERE r.b NOT IN (SELECT s.b FROM s)").unwrap();
        let mut budget = Budget::unlimited();
        assert!(matches!(
            flatten_subqueries(&db, &stmt, &mut budget),
            Err(NestedError::NotInUnsupported)
        ));
    }

    #[test]
    fn multi_column_subquery_is_rejected() {
        let db = db();
        let stmt = parse_select("SELECT r.a FROM r WHERE r.b IN (SELECT s.b, s.c FROM s)").unwrap();
        let mut budget = Budget::unlimited();
        assert!(matches!(
            flatten_subqueries(&db, &stmt, &mut budget),
            Err(NestedError::NotSingleColumn(2))
        ));
    }

    #[test]
    fn hybrid_optimizer_handles_nested_sql() {
        let db = db();
        let sql = "SELECT r.a, count(*) AS n FROM r
                   WHERE r.b IN (SELECT s.b FROM s WHERE s.c >= 2)
                   GROUP BY r.a ORDER BY n DESC";
        let stats = htqo_stats::analyze(&db);
        let opt = HybridOptimizer::with_stats(QhdOptions::default(), stats);
        let out = opt.execute_sql(&db, sql, Budget::unlimited()).unwrap();
        let got = out.result.unwrap();
        // Cross-check against the quantitative baseline on the same SQL.
        let sim = DbmsSim::commdb(None);
        let want = sim
            .execute_sql(&db, sql, Budget::unlimited())
            .unwrap()
            .result
            .unwrap();
        assert!(got.set_eq(&want));
    }

    #[test]
    fn statements_without_subqueries_pass_through() {
        let db = db();
        let stmt = parse_select("SELECT r.a FROM r WHERE r.b = 3").unwrap();
        let mut budget = Budget::unlimited();
        let (_, flat) = flatten_subqueries(&db, &stmt, &mut budget).unwrap();
        assert_eq!(flat, stmt);
    }
}
