//! Scalar expression evaluation and SQL comparison semantics.

use crate::crel::CRel;
use crate::dict::DictReader;
use crate::error::EvalError;
use crate::value::{Row, Value};
use htqo_cq::{ArithOp, CmpOp, ScalarExpr};
use std::ops::Range;

/// Evaluates a scalar expression against a row of an intermediate relation
/// (columns are variable names). NULL propagates through arithmetic.
pub fn eval_scalar<S: AsRef<str>>(
    e: &ScalarExpr,
    cols: &[S],
    row: &Row,
) -> Result<Value, EvalError> {
    match e {
        ScalarExpr::Var(v) => {
            let i = cols
                .iter()
                .position(|c| c.as_ref() == v)
                .ok_or_else(|| EvalError::UnknownVariable(v.clone()))?;
            Ok(row[i].clone())
        }
        ScalarExpr::Lit(l) => Ok(l.into()),
        ScalarExpr::Binary(l, op, r) => {
            let lv = eval_scalar(l, cols, row)?;
            let rv = eval_scalar(r, cols, row)?;
            arith(&lv, *op, &rv)
        }
    }
}

/// A row of a relation and the error evaluating an expression there gives.
pub(crate) type RowError = (usize, EvalError);

/// [`eval_scalar`] over the rows `rows` of `rel`, a column at a time:
/// each variable's column is read once, by position, and each operator
/// runs [`arith`] down its operands. `out` receives the values of the rows
/// before the first that fails; that row and its error are returned —
/// within a row the left operand fails before the right, as row by row —
/// so a caller feeding rows in order can raise the error exactly where
/// the per-row evaluation would. An absent variable fails at the first
/// row, so an empty range evaluates nothing. `spare` keeps the operands'
/// buffers from one call to the next.
pub(crate) fn eval_scalar_rows(
    e: &ScalarExpr,
    rel: &CRel,
    rows: Range<usize>,
    reader: &DictReader,
    out: &mut Vec<Value>,
    spare: &mut Vec<Vec<Value>>,
) -> Option<RowError> {
    out.clear();
    match e {
        ScalarExpr::Var(v) => match rel.col_index(v) {
            Some(c) => {
                let col = rel.column(c);
                out.extend(rows.map(|i| col.value_with(i, reader)));
                None
            }
            None if rows.is_empty() => None,
            None => Some((rows.start, EvalError::UnknownVariable(v.clone()))),
        },
        ScalarExpr::Lit(l) => {
            out.resize(rows.len(), Value::from(l));
            None
        }
        ScalarExpr::Binary(l, op, r) => {
            let mut lv = spare.pop().unwrap_or_default();
            let mut rv = spare.pop().unwrap_or_default();
            let l_err = eval_scalar_rows(l, rel, rows.clone(), reader, &mut lv, spare);
            let r_err = eval_scalar_rows(r, rel, rows.clone(), reader, &mut rv, spare);
            let mut err = match (l_err, r_err) {
                (Some(le), Some(re)) if re.0 < le.0 => Some(re),
                (Some(le), _) => Some(le),
                (None, re) => re,
            };
            let stop = err.as_ref().map_or(rows.end, |e| e.0);
            for (i, (a, b)) in (rows.start..stop).zip(lv.iter().zip(&rv)) {
                match arith(a, *op, b) {
                    Ok(v) => out.push(v),
                    Err(e) => {
                        err = Some((i, e));
                        break;
                    }
                }
            }
            spare.extend([lv, rv]);
            err
        }
    }
}

/// Applies a binary arithmetic operator with SQL-ish coercions:
/// `Int op Int → Int` (except division, which is always `Float`), any
/// float operand promotes to `Float`, NULL propagates.
pub fn arith(l: &Value, op: ArithOp, r: &Value) -> Result<Value, EvalError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r, op) {
        (Value::Int(a), Value::Int(b), ArithOp::Add) => Ok(Value::Int(a.wrapping_add(*b))),
        (Value::Int(a), Value::Int(b), ArithOp::Sub) => Ok(Value::Int(a.wrapping_sub(*b))),
        (Value::Int(a), Value::Int(b), ArithOp::Mul) => Ok(Value::Int(a.wrapping_mul(*b))),
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(EvalError::Internal(format!(
                        "arithmetic on non-numeric values ({} {op} {})",
                        l.type_name(),
                        r.type_name()
                    )))
                }
            };
            Ok(Value::Float(match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => a / b,
            }))
        }
    }
}

/// SQL comparison: NULL operands and incomparable types fail the predicate.
pub fn apply_cmp(op: CmpOp, left: &Value, right: &Value) -> bool {
    cmp_matches(op, left.sql_cmp(right))
}

/// True if an SQL comparison outcome satisfies `op` (`None` — NULL or
/// incomparable types — never does). Shared by the row predicate path
/// ([`apply_cmp`]) and the columnar scan's typed-cell comparisons.
pub fn cmp_matches(op: CmpOp, ord: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::*;
    match ord {
        None => false,
        Some(ord) => match op {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_cq::Literal;

    fn cols() -> Vec<String> {
        vec!["x".into(), "y".into()]
    }

    fn row(x: f64, y: f64) -> Row {
        vec![Value::Float(x), Value::Float(y)].into_boxed_slice()
    }

    #[test]
    fn revenue_expression() {
        // x * (1 - y), the TPC-H Q5 revenue expression.
        let e = ScalarExpr::Binary(
            Box::new(ScalarExpr::Var("x".into())),
            ArithOp::Mul,
            Box::new(ScalarExpr::Binary(
                Box::new(ScalarExpr::Lit(Literal::Int(1))),
                ArithOp::Sub,
                Box::new(ScalarExpr::Var("y".into())),
            )),
        );
        let v = eval_scalar(&e, &cols(), &row(100.0, 0.1)).unwrap();
        assert_eq!(v, Value::Float(90.0));
    }

    #[test]
    fn int_arithmetic_stays_int_except_div() {
        assert_eq!(
            arith(&Value::Int(7), ArithOp::Mul, &Value::Int(3)).unwrap(),
            Value::Int(21)
        );
        assert_eq!(
            arith(&Value::Int(7), ArithOp::Div, &Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn null_propagates() {
        assert_eq!(
            arith(&Value::Null, ArithOp::Add, &Value::Int(1)).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn non_numeric_arithmetic_errors() {
        assert!(arith(&Value::str("a"), ArithOp::Add, &Value::Int(1)).is_err());
    }

    #[test]
    fn unknown_variable_errors() {
        let e = ScalarExpr::Var("zz".into());
        assert!(matches!(
            eval_scalar(&e, &cols(), &row(0.0, 0.0)),
            Err(EvalError::UnknownVariable(_))
        ));
    }

    #[test]
    fn comparisons() {
        assert!(apply_cmp(CmpOp::Lt, &Value::Int(1), &Value::Int(2)));
        assert!(apply_cmp(CmpOp::Ge, &Value::Int(2), &Value::Int(2)));
        assert!(apply_cmp(CmpOp::Ne, &Value::str("a"), &Value::str("b")));
        // NULL never satisfies a predicate.
        assert!(!apply_cmp(CmpOp::Eq, &Value::Null, &Value::Null));
        // Incomparable types never satisfy a predicate.
        assert!(!apply_cmp(CmpOp::Eq, &Value::Int(1), &Value::str("1")));
        // Dates compare as dates.
        assert!(apply_cmp(CmpOp::Lt, &Value::Date(1), &Value::Date(2)));
    }
}
