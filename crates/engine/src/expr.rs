//! Scalar expressions: the typed block evaluator the aggregates read
//! their inputs through, and SQL's arithmetic and comparison semantics.
//!
//! An aggregate's expression is compiled once against the answer's
//! columns (`Expr::compile`) and evaluated a block of rows at a time
//! (`Expr::eval`) into a typed `Block`: a variable reads its column's
//! slice and null words in place, a literal is broadcast, and an operator
//! runs down typed operands. `Int ∘ Int` stays `Int` (wrapping) except
//! `/`; any `Float` operand, or `/`, gives `Float` — [`arith`]'s
//! promotion rule — and NULL propagates through the null words. Operands
//! of no single numeric type (`Str`, `Date` and `Mixed` columns, string
//! and date literals, and what such operands yield) go through [`arith`]
//! cell by cell, inside the same evaluation, so a non-numeric operand
//! fails with [`arith`]'s error at the row a row-by-row evaluation would
//! fail at. No cell becomes a [`Value`] on the numeric paths. Both paths
//! compute a float result with one function, which also fixes which NaN
//! an operation on NaNs gives ([`arith`]).

use crate::column::{Column, ColumnData};
use crate::crel::CRel;
use crate::dict::DictReader;
use crate::error::EvalError;
use crate::value::Value;
use htqo_cq::{ArithOp, CmpOp, Literal, ScalarExpr};
use std::ops::Range;

/// A number or NULL: what arithmetic yields, and what MIN/MAX keep of a
/// numeric input.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Num {
    Null,
    Int(i64),
    Float(f64),
}

impl Num {
    /// The cell as a [`Value`] (no heap: numbers only).
    #[inline]
    pub(crate) fn value(self) -> Value {
        match self {
            Num::Null => Value::Null,
            Num::Int(x) => Value::Int(x),
            Num::Float(x) => Value::Float(x),
        }
    }

    /// `v` as a number, if it is one (or NULL).
    #[inline]
    fn of(v: &Value) -> Option<Num> {
        match v {
            Value::Null => Some(Num::Null),
            Value::Int(x) => Some(Num::Int(*x)),
            Value::Float(x) => Some(Num::Float(*x)),
            _ => None,
        }
    }
}

/// A row of a relation and the error evaluating an expression there gives.
pub(crate) type RowError = (usize, EvalError);

/// True if bit `j` of `words` is set (rows past the last word are not).
#[inline]
fn bit(words: &[u64], j: usize) -> bool {
    words.get(j / 64).is_some_and(|w| (w >> (j % 64)) & 1 == 1)
}

/// An expression's values over one block of rows; cell `j` is the
/// block's `j`-th row.
pub(crate) enum Block<'v> {
    /// Values and null words (bit `j % 64` of word `j / 64` marks cell `j`
    /// NULL; cells past the last word are valid).
    Int(&'v [i64], &'v [u64]),
    /// As `Int`.
    Float(&'v [f64], &'v [u64]),
    /// Cells of a `Str`, `Date` or `Mixed` column: cell `j` is row
    /// `at + j·step` (`step` 0 for a literal held in a one-cell column).
    Cells {
        col: &'v Column,
        at: usize,
        step: usize,
    },
    /// What [`arith`] gave cell by cell.
    Num(&'v [Num]),
}

impl Block<'_> {
    /// The column row of cell `j` of a `Cells` block.
    #[inline]
    pub(crate) fn row(&self, j: usize) -> usize {
        match self {
            Block::Cells { at, step, .. } => at + j * step,
            _ => j,
        }
    }

    /// True if cell `j` is NULL.
    #[inline]
    pub(crate) fn is_null(&self, j: usize) -> bool {
        match self {
            Block::Int(_, nulls) | Block::Float(_, nulls) => bit(nulls, j),
            Block::Cells { col, .. } => col.is_null(self.row(j)),
            Block::Num(v) => matches!(v[j], Num::Null),
        }
    }

    /// Cell `j` as a number, or the name of its type when it is not one.
    #[inline]
    pub(crate) fn num(&self, j: usize) -> Result<Num, &'static str> {
        match self {
            Block::Int(v, nulls) => Ok(if bit(nulls, j) {
                Num::Null
            } else {
                Num::Int(v[j])
            }),
            Block::Float(v, nulls) => Ok(if bit(nulls, j) {
                Num::Null
            } else {
                Num::Float(v[j])
            }),
            Block::Num(v) => Ok(v[j]),
            Block::Cells { col, .. } => {
                let i = self.row(j);
                if col.is_null(i) {
                    return Ok(Num::Null);
                }
                match col.data() {
                    ColumnData::Int(a) => Ok(Num::Int(a[i])),
                    ColumnData::Float(a) => Ok(Num::Float(a[i])),
                    ColumnData::Date(_) => Err("date"),
                    ColumnData::Str(_) => Err("str"),
                    ColumnData::Mixed(a) => Num::of(&a[i]).ok_or(a[i].type_name()),
                }
            }
        }
    }

    /// Cell `j` as a [`Value`] — an operand of [`arith`] on the cell path.
    fn value(&self, j: usize, reader: &DictReader) -> Value {
        match self {
            Block::Cells { col, .. } => col.value_with(self.row(j), reader),
            _ => match self.num(j) {
                Ok(n) => n.value(),
                Err(_) => unreachable!("only cells blocks hold non-numbers"),
            },
        }
    }

    /// The values of a numeric block as floats, widening `Int`s into
    /// `buf`.
    fn floats<'b>(&'b self, buf: &'b mut Vec<f64>) -> &'b [f64] {
        match self {
            Block::Float(v, _) => v,
            Block::Int(v, _) => {
                buf.clear();
                buf.extend(v.iter().map(|&x| x as f64));
                buf
            }
            _ => unreachable!("floats of a numeric block only"),
        }
    }

    /// The null words of a numeric block.
    fn nulls(&self) -> &[u64] {
        match self {
            Block::Int(_, nulls) | Block::Float(_, nulls) => nulls,
            _ => unreachable!("null words of a numeric block only"),
        }
    }
}

/// An expression compiled against a relation's columns (see the module
/// docs). Each operator owns the buffers of its results, reused from
/// block to block.
pub(crate) enum Expr<'a> {
    /// A variable over an `Int` column: its values and null words.
    Int(&'a [i64], &'a [u64]),
    /// A variable over a `Float` column.
    Float(&'a [f64], &'a [u64]),
    /// A variable over a `Str`, `Date` or `Mixed` column.
    Cells(&'a Column),
    /// An integer literal, broadcast over a block.
    IntLit(Vec<i64>),
    /// A float literal, broadcast over a block.
    FloatLit(Vec<f64>),
    /// A string or date literal, held in a one-cell column.
    Const(Column),
    /// A variable the relation does not carry: fails at the first row.
    Absent(&'a str),
    Arith(Box<Arith<'a>>),
}

/// A binary operator and its result buffers.
pub(crate) struct Arith<'a> {
    op: ArithOp,
    l: Expr<'a>,
    r: Expr<'a>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    nums: Vec<Num>,
    nulls: Vec<u64>,
    /// `Int` operands widened to `Float`.
    wide: [Vec<f64>; 2],
}

/// `out = f(a[j], b[j])` for every `j`.
#[inline]
fn zip_into<T: Copy, U>(out: &mut Vec<U>, a: &[T], b: &[T], f: impl Fn(T, T) -> U) {
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y)));
}

impl<'a> Expr<'a> {
    /// `e` over `rel`'s columns, for blocks of at most `block` rows.
    pub(crate) fn compile(e: &'a ScalarExpr, rel: &'a CRel, block: usize) -> Expr<'a> {
        match e {
            ScalarExpr::Var(v) => match rel.col_index(v).map(|c| rel.column(c)) {
                Some(col) => match col.data() {
                    ColumnData::Int(a) => Expr::Int(a, col.nulls().words()),
                    ColumnData::Float(a) => Expr::Float(a, col.nulls().words()),
                    _ => Expr::Cells(col),
                },
                None => Expr::Absent(v),
            },
            ScalarExpr::Lit(Literal::Int(x)) => Expr::IntLit(vec![*x; block]),
            ScalarExpr::Lit(Literal::Float(x)) => Expr::FloatLit(vec![*x; block]),
            ScalarExpr::Lit(l) => {
                let mut col = Column::mixed_with_capacity(1);
                col.push_value(&Value::from(l));
                Expr::Const(col)
            }
            ScalarExpr::Binary(l, op, r) => Expr::Arith(Box::new(Arith {
                op: *op,
                l: Expr::compile(l, rel, block),
                r: Expr::compile(r, rel, block),
                ints: Vec::new(),
                floats: Vec::new(),
                nums: Vec::new(),
                nulls: Vec::new(),
                wide: [Vec::new(), Vec::new()],
            })),
        }
    }

    /// The column a `Cells` block of this expression reads, and whether
    /// every cell is its one cell (a literal); `None` when the expression
    /// yields numbers.
    pub(crate) fn cells(&self) -> Option<(&Column, bool)> {
        match self {
            Expr::Cells(col) => Some((col, false)),
            Expr::Const(col) => Some((col, true)),
            _ => None,
        }
    }

    /// The values of rows `rows` (`rows.start` a multiple of 64), and the
    /// first of them where evaluation fails, if one does — within a row
    /// the left operand fails before the right, as row by row. The block
    /// holds the values of the rows before that one.
    pub(crate) fn eval(
        &mut self,
        rows: Range<usize>,
        reader: &DictReader,
    ) -> (Block<'_>, Option<RowError>) {
        debug_assert_eq!(rows.start % 64, 0, "blocks start on a null word");
        let words = |w: &'a [u64]| {
            let end = rows.end.div_ceil(64).min(w.len());
            &w[(rows.start / 64).min(end)..end]
        };
        let block = match self {
            Expr::Int(v, nulls) => Block::Int(&v[rows.clone()], words(nulls)),
            Expr::Float(v, nulls) => Block::Float(&v[rows.clone()], words(nulls)),
            Expr::IntLit(v) => Block::Int(&v[..rows.len()], &[]),
            Expr::FloatLit(v) => Block::Float(&v[..rows.len()], &[]),
            Expr::Cells(col) => Block::Cells {
                col,
                at: rows.start,
                step: 1,
            },
            Expr::Const(col) => Block::Cells {
                col,
                at: 0,
                step: 0,
            },
            Expr::Absent(v) => {
                let err = EvalError::UnknownVariable(v.to_string());
                return (Block::Num(&[]), Some((rows.start, err)));
            }
            Expr::Arith(a) => return a.eval(rows, reader),
        };
        (block, None)
    }
}

impl Arith<'_> {
    fn eval(&mut self, rows: Range<usize>, reader: &DictReader) -> (Block<'_>, Option<RowError>) {
        let Arith {
            op,
            l,
            r,
            ints,
            floats,
            nums,
            nulls,
            wide: [wl, wr],
        } = self;
        let (lb, le) = l.eval(rows.clone(), reader);
        let (rb, re) = r.eval(rows.clone(), reader);
        let mut err = match (le, re) {
            (Some(le), Some(re)) if re.0 < le.0 => Some(re),
            (Some(le), _) => Some(le),
            (None, re) => re,
        };
        let numeric = |b: &Block| matches!(b, Block::Int(..) | Block::Float(..));
        let block = if numeric(&lb) && numeric(&rb) {
            // Typed blocks never carry an error: only variables the
            // relation lacks and the cell path fail, and both give `Num`.
            let (an, bn) = (lb.nulls(), rb.nulls());
            nulls.clear();
            nulls.extend(
                (0..an.len().max(bn.len()))
                    .map(|w| an.get(w).copied().unwrap_or(0) | bn.get(w).copied().unwrap_or(0)),
            );
            match (&lb, &rb, *op) {
                (Block::Int(a, _), Block::Int(b, _), ArithOp::Add) => {
                    zip_into(ints, a, b, i64::wrapping_add)
                }
                (Block::Int(a, _), Block::Int(b, _), ArithOp::Sub) => {
                    zip_into(ints, a, b, i64::wrapping_sub)
                }
                (Block::Int(a, _), Block::Int(b, _), ArithOp::Mul) => {
                    zip_into(ints, a, b, i64::wrapping_mul)
                }
                _ => {
                    let (a, b) = (lb.floats(wl), rb.floats(wr));
                    let f = |op| move |x, y| float_op(op, x, y);
                    match op {
                        ArithOp::Add => zip_into(floats, a, b, f(ArithOp::Add)),
                        ArithOp::Sub => zip_into(floats, a, b, f(ArithOp::Sub)),
                        ArithOp::Mul => zip_into(floats, a, b, f(ArithOp::Mul)),
                        ArithOp::Div => zip_into(floats, a, b, f(ArithOp::Div)),
                    }
                    return (Block::Float(floats, nulls), err);
                }
            }
            Block::Int(ints, nulls)
        } else {
            nums.clear();
            let stop = err.as_ref().map_or(rows.end, |e| e.0);
            for j in 0..stop - rows.start {
                match arith(&lb.value(j, reader), *op, &rb.value(j, reader)) {
                    Ok(v) => nums.push(Num::of(&v).expect("arithmetic yields numbers")),
                    Err(e) => {
                        err = Some((rows.start + j, e));
                        break;
                    }
                }
            }
            Block::Num(nums)
        };
        (block, err)
    }
}

/// Evaluates a scalar expression against one row (columns are variable
/// names): the row-at-a-time reference the typed evaluator is tested
/// against.
#[cfg(test)]
pub(crate) fn eval_scalar<S: AsRef<str>>(
    e: &ScalarExpr,
    cols: &[S],
    row: &crate::value::Row,
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
            Ok(Value::Float(float_op(op, a, b)))
        }
    }
}

/// `a op b` in `f64`, with a NaN operand's NaN propagated — the left
/// one's first — so that every evaluation path gives the same bits: IEEE
/// leaves the sign and payload of a NaN result to the hardware, and a
/// compiler may swap the operands of `+` and `×` (a scalar and a
/// vectorized loop did, and their `NaN · −NaN` differed in sign).
#[inline]
fn float_op(op: ArithOp, a: f64, b: f64) -> f64 {
    let r = match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => a / b,
    };
    if a.is_nan() {
        a
    } else if b.is_nan() {
        b
    } else {
        r
    }
}

/// SQL comparison: NULL operands and incomparable types fail the predicate.
pub fn apply_cmp(op: CmpOp, left: &Value, right: &Value) -> bool {
    cmp_matches(op, left.sql_cmp(right))
}

/// True if an SQL comparison outcome satisfies `op` (`None` — NULL or
/// incomparable types — never does). Shared by the row predicate path
/// ([`apply_cmp`]), the columnar scan's typed-cell comparisons and
/// HAVING.
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
    use crate::value::Row;

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
        // The typed evaluator: `Int` literal, `Float` columns, one block.
        let rel = CRel::from_vrel(&crate::vrel::VRelation::from_rows(
            cols(),
            vec![row(100.0, 0.1), row(8.0, 0.5)],
        ));
        let mut compiled = Expr::compile(&e, &rel, 2);
        let reader = crate::dict::reader();
        let (block, err) = compiled.eval(0..2, &reader);
        assert!(err.is_none());
        assert!(matches!(block, Block::Float(v, []) if v == [90.0, 4.0]));
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
