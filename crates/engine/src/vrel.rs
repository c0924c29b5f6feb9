//! Query results over *query variables*.
//!
//! Every evaluator in this project joins relations whose columns are named
//! by conjunctive-query variables; natural joins then simply match on
//! shared names. This mirrors the paper's formalization, where
//! decomposition vertices are labelled by variable sets `χ(p)`. The
//! evaluators run on columnar relations ([`crate::crel::CRel`]);
//! [`VRelation`] is the row form their answers are handed out in, and
//! [`nested_loop_join`] the kernel-level reference the columnar join is
//! tested against.

use crate::error::{Budget, EvalError};
use crate::value::{Row, Value};
use std::collections::HashSet;
use std::fmt;

/// A relation whose columns are query variables. Rows are deduplicated only
/// when an operator explicitly asks for it (set-semantics projections).
#[derive(Clone, Debug, PartialEq)]
pub struct VRelation {
    cols: Vec<String>,
    rows: Vec<Row>,
}

impl VRelation {
    /// Creates an empty relation over the given variables.
    ///
    /// # Panics
    /// Panics on duplicate variable names.
    pub fn empty(cols: Vec<String>) -> Self {
        for (i, c) in cols.iter().enumerate() {
            assert!(!cols[..i].contains(c), "duplicate variable `{c}`");
        }
        VRelation {
            cols,
            rows: Vec::new(),
        }
    }

    /// The *neutral* relation: zero columns, one (empty) row — the identity
    /// of natural join. Used for decomposition vertices with an empty λ
    /// label (feature (b) of q-hypertree decompositions).
    pub fn neutral() -> Self {
        VRelation {
            cols: Vec::new(),
            rows: vec![Vec::new().into_boxed_slice()],
        }
    }

    /// Creates a relation from rows (each row checked for arity).
    pub fn from_rows(cols: Vec<String>, rows: Vec<Row>) -> Self {
        let mut r = VRelation::empty(cols);
        for row in &rows {
            assert_eq!(row.len(), r.cols.len(), "row arity mismatch");
        }
        r.rows = rows;
        r
    }

    /// Variable names in column order.
    pub fn cols(&self) -> &[String] {
        &self.cols
    }

    /// Rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consumes the relation and hands its rows over without copying them.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of variable `v`.
    pub fn col_index(&self, v: &str) -> Option<usize> {
        self.cols.iter().position(|c| c == v)
    }

    /// Appends a row (arity must match).
    pub fn push(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.cols.len());
        self.rows.push(row);
    }

    /// Reserves room for `n` more rows.
    pub fn reserve(&mut self, n: usize) {
        self.rows.reserve(n);
    }

    /// Sorted copy of the rows (for order-insensitive comparisons in tests
    /// and for deterministic output).
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }

    /// True if `self` and `other` contain the same set of rows over the
    /// same columns, ignoring row order *and column order*.
    pub fn set_eq(&self, other: &VRelation) -> bool {
        if self.cols.len() != other.cols.len() {
            return false;
        }
        // Map other's column order onto ours.
        let mut perm = Vec::with_capacity(self.cols.len());
        for c in &self.cols {
            match other.col_index(c) {
                Some(i) => perm.push(i),
                None => return false,
            }
        }
        let mine: HashSet<Row> = self.rows.iter().cloned().collect();
        let theirs: HashSet<Row> = other
            .rows
            .iter()
            .map(|r| {
                perm.iter()
                    .map(|&i| r[i].clone())
                    .collect::<Vec<_>>()
                    .into_boxed_slice()
            })
            .collect();
        mine == theirs
    }

    /// Removes duplicate rows in place (order not preserved).
    pub fn dedup(&mut self) {
        let mut seen: HashSet<Row> = HashSet::with_capacity(self.rows.len());
        self.rows.retain(|r| seen.insert(r.clone()));
    }

    /// Value of variable `v` in row `i` (test helper).
    pub fn value(&self, i: usize, v: &str) -> Option<&Value> {
        let c = self.col_index(v)?;
        self.rows.get(i).map(|r| &r[c])
    }
}

/// Reference nested-loop natural join: quadratic, allocation-happy, and
/// obviously correct — `a`'s columns, then `b`'s others; one tuple
/// charged per output row. The oracle the columnar join is tested
/// against; never called by a planner.
pub fn nested_loop_join(
    a: &VRelation,
    b: &VRelation,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let shared: Vec<(usize, usize)> = (a.cols.iter().enumerate())
        .filter_map(|(i, c)| Some((i, b.col_index(c)?)))
        .collect();
    let b_rest: Vec<usize> = (0..b.cols.len())
        .filter(|j| shared.iter().all(|&(_, s)| s != *j))
        .collect();
    let mut out_cols = a.cols.clone();
    out_cols.extend(b_rest.iter().map(|&j| b.cols[j].clone()));
    let mut out = VRelation::empty(out_cols);
    for ra in &a.rows {
        for rb in &b.rows {
            if shared.iter().all(|&(i, j)| ra[i] == rb[j]) {
                budget.charge(1)?;
                let mut row: Vec<Value> = ra.to_vec();
                row.extend(b_rest.iter().map(|&j| rb[j].clone()));
                out.push(row.into_boxed_slice());
            }
        }
    }
    Ok(out)
}

impl fmt::Display for VRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] ({} rows)", self.cols.join(", "), self.rows.len())?;
        for row in self.rows.iter().take(20) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "  … {} more", self.rows.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(cols: &[&str], rows: &[&[i64]]) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.iter()
                .map(|r| {
                    r.iter()
                        .map(|&i| Value::Int(i))
                        .collect::<Vec<_>>()
                        .into_boxed_slice()
                })
                .collect(),
        )
    }

    #[test]
    fn neutral_relation() {
        let n = VRelation::neutral();
        assert_eq!(n.cols().len(), 0);
        assert_eq!(n.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_columns_panic() {
        VRelation::empty(vec!["x".into(), "x".into()]);
    }

    #[test]
    fn set_eq_ignores_row_and_column_order() {
        let a = rel(&["x", "y"], &[&[1, 2], &[3, 4]]);
        let b = rel(&["y", "x"], &[&[4, 3], &[2, 1]]);
        assert!(a.set_eq(&b));
        let c = rel(&["x", "y"], &[&[1, 2]]);
        assert!(!a.set_eq(&c));
        let d = rel(&["x", "z"], &[&[1, 2], &[3, 4]]);
        assert!(!a.set_eq(&d));
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut a = rel(&["x"], &[&[1], &[1], &[2]]);
        a.dedup();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn value_accessor() {
        let a = rel(&["x", "y"], &[&[7, 8]]);
        assert_eq!(a.value(0, "y"), Some(&Value::Int(8)));
        assert_eq!(a.value(0, "z"), None);
        assert_eq!(a.value(5, "x"), None);
    }

    #[test]
    fn display_truncates() {
        let rows: Vec<&[i64]> = vec![&[1]; 25];
        let a = rel(&["x"], &rows);
        let s = a.to_string();
        assert!(s.contains("25 rows"));
        assert!(s.contains("more"));
    }
}
