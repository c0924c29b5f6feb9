//! Abstract syntax tree for the SQL subset: single-block conjunctive
//! `SELECT` statements with aggregates, grouping and ordering — the class
//! of queries the paper's optimizer handles (§2, "SQL Queries").

use crate::conjunctive::{AggFunc, ArithOp, CmpOp, Literal, SortDir};

/// A column reference, optionally qualified by a table alias:
/// `c_custkey` or `customer.c_custkey`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnRef {
    /// Table name or alias, when qualified.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// A scalar SQL expression (columns, literals, arithmetic).
#[derive(Clone, Debug, PartialEq)]
pub enum SqlExpr {
    /// Column reference.
    Col(ColumnRef),
    /// Constant literal (date arithmetic already folded).
    Lit(Literal),
    /// Binary arithmetic.
    Binary(Box<SqlExpr>, ArithOp, Box<SqlExpr>),
}

impl SqlExpr {
    /// All column references in the expression, in occurrence order.
    pub fn columns(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        match self {
            SqlExpr::Col(c) => out.push(c),
            SqlExpr::Lit(_) => {}
            SqlExpr::Binary(l, _, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
        }
    }
}

/// One item of the SELECT list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// A scalar expression, optionally labelled with `AS`.
    Expr {
        /// The expression.
        expr: SqlExpr,
        /// Optional output label.
        alias: Option<String>,
    },
    /// An aggregate call, optionally labelled with `AS`.
    /// `expr == None` encodes `COUNT(*)`.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Aggregated expression (`None` for `COUNT(*)`).
        expr: Option<SqlExpr>,
        /// Optional output label.
        alias: Option<String>,
    },
}

/// A table in the FROM list, optionally aliased.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableRef {
    /// Relation name.
    pub table: String,
    /// Optional alias (`FROM orders o` / `FROM orders AS o`).
    pub alias: Option<String>,
}

impl TableRef {
    /// The name the rest of the query refers to this table by.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// One conjunct of the WHERE clause.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// A comparison `left op right`.
    Cmp {
        /// Left operand.
        left: SqlExpr,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        right: SqlExpr,
    },
    /// An (uncorrelated) membership test `col IN (SELECT …)` — the
    /// "nested queries" extension the paper leaves as future work. The
    /// optimizer flattens these into joins against materialized subquery
    /// results before structural analysis.
    InSubquery {
        /// The tested column.
        col: ColumnRef,
        /// The subquery (must produce a single output column).
        subquery: Box<SelectStmt>,
        /// `NOT IN` when true.
        negated: bool,
    },
}

/// ORDER BY key: a SELECT label/column name or a 1-based output position.
#[derive(Clone, Debug, PartialEq)]
pub enum OrderKey {
    /// Named output column (a SELECT alias or a column name).
    Name(String),
    /// 1-based position in the SELECT list.
    Position(usize),
}

/// A parsed single-block SELECT statement.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`. The isolator answers every statement as a set;
    /// the stand-alone view replay (`htqo_optimizer::execute_views`) keeps
    /// the rows of a statement without it.
    pub distinct: bool,
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// FROM tables.
    pub from: Vec<TableRef>,
    /// Conjunctive WHERE predicates.
    pub predicates: Vec<Predicate>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnRef>,
    /// HAVING conjuncts over SELECT labels: `(label, op, constant)`.
    /// (Restriction: the filtered expression must appear — aliased — in
    /// the SELECT list, e.g. `… sum(x) AS total … HAVING total > 10`.)
    pub having: Vec<(String, CmpOp, Literal)>,
    /// ORDER BY keys.
    pub order_by: Vec<(OrderKey, SortDir)>,
    /// LIMIT row count, if any.
    pub limit: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ref_display() {
        let c = ColumnRef {
            qualifier: Some("t".into()),
            column: "x".into(),
        };
        assert_eq!(c.to_string(), "t.x");
        let u = ColumnRef {
            qualifier: None,
            column: "x".into(),
        };
        assert_eq!(u.to_string(), "x");
    }

    #[test]
    fn expr_columns_in_order() {
        let e = SqlExpr::Binary(
            Box::new(SqlExpr::Col(ColumnRef {
                qualifier: None,
                column: "a".into(),
            })),
            ArithOp::Mul,
            Box::new(SqlExpr::Binary(
                Box::new(SqlExpr::Lit(Literal::Int(1))),
                ArithOp::Sub,
                Box::new(SqlExpr::Col(ColumnRef {
                    qualifier: None,
                    column: "b".into(),
                })),
            )),
        );
        let cols: Vec<String> = e.columns().iter().map(|c| c.column.clone()).collect();
        assert_eq!(cols, vec!["a", "b"]);
    }

    #[test]
    fn table_ref_binding() {
        let t = TableRef {
            table: "orders".into(),
            alias: Some("o".into()),
        };
        assert_eq!(t.binding(), "o");
        let u = TableRef {
            table: "orders".into(),
            alias: None,
        };
        assert_eq!(u.binding(), "orders");
    }
}
