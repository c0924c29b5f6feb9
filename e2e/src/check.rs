//! The correctness gate: a measured answer must equal the reference
//! answer — computed in set-up by an independent path — on row count and
//! every non-float cell exactly, and on float cells to 1e-9 relative.
//!
//! The tolerance lives here and nowhere else: `VRelation::set_eq` stays
//! bit-exact, and the benchmark does not inherit tier-1's float-order
//! failure (`SUM` over floats depends on join order, and the reference
//! deliberately joins in a different order).

use htqo_engine::{VRelation, Value};
use std::cmp::Ordering;

const REL_TOL: f64 = 1e-9;

/// A reference answer, sorted once so each measured answer costs one sort
/// and one linear pass.
pub struct Reference {
    cols: Vec<String>,
    rows: Vec<Vec<Value>>,
}

/// Total order on cells that agrees with equality on non-floats and puts
/// nearly-equal floats next to each other.
fn cmp_cell(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        _ => a.cmp(b),
    }
}

/// Rows ordered by their exact cells first and their float cells last, so
/// a float that differs in its last bits cannot reorder two rows whose
/// keys differ.
fn sort_rows(rows: &mut [Vec<Value>]) {
    let is_float = |v: &Value| matches!(v, Value::Float(_));
    rows.sort_by(|a, b| {
        let exact = a
            .iter()
            .zip(b)
            .filter(|(x, _)| !is_float(x))
            .map(|(x, y)| cmp_cell(x, y))
            .find(|o| o.is_ne());
        exact
            .or_else(|| {
                a.iter()
                    .zip(b)
                    .filter(|(x, _)| is_float(x))
                    .map(|(x, y)| cmp_cell(x, y))
                    .find(|o| o.is_ne())
            })
            .unwrap_or(Ordering::Equal)
    });
}

fn cells_match(want: &Value, got: &Value) -> bool {
    match (want, got) {
        (Value::Float(a), Value::Float(b)) => {
            a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
        }
        _ => want == got,
    }
}

impl Reference {
    pub fn new(answer: &VRelation) -> Self {
        let mut rows: Vec<Vec<Value>> = answer.rows().iter().map(|r| r.to_vec()).collect();
        sort_rows(&mut rows);
        Reference {
            cols: answer.cols().to_vec(),
            rows,
        }
    }

    /// `Ok` when `got` is the reference answer up to row order, column
    /// order and float tolerance; otherwise the first difference.
    pub fn matches(&self, got: &VRelation) -> Result<(), String> {
        if got.cols().len() != self.cols.len() {
            return Err(format!(
                "{} columns, reference has {}",
                got.cols().len(),
                self.cols.len()
            ));
        }
        let perm: Vec<usize> = self
            .cols
            .iter()
            .map(|c| {
                got.col_index(c)
                    .ok_or_else(|| format!("column `{c}` missing from the answer"))
            })
            .collect::<Result<_, _>>()?;
        if got.len() != self.rows.len() {
            return Err(format!(
                "{} rows, reference has {}",
                got.len(),
                self.rows.len()
            ));
        }
        let mut rows: Vec<Vec<Value>> = got
            .rows()
            .iter()
            .map(|r| perm.iter().map(|&i| r[i].clone()).collect())
            .collect();
        sort_rows(&mut rows);
        for (i, (want, have)) in self.rows.iter().zip(&rows).enumerate() {
            if !want.iter().zip(have).all(|(w, h)| cells_match(w, h)) {
                return Err(format!("row {i}: got {have:?}, reference {want:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(cols: &[&str], rows: Vec<Vec<Value>>) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.into_iter().map(Vec::into_boxed_slice).collect(),
        )
    }

    #[test]
    fn float_sums_in_another_order_still_match() {
        let want = rel(
            &["n", "rev"],
            vec![
                vec![Value::str("VIETNAM"), Value::Float(168659.9356)],
                vec![Value::str("CHINA"), Value::Float(10.5)],
            ],
        );
        let got = rel(
            &["rev", "n"],
            vec![
                vec![Value::Float(10.5), Value::str("CHINA")],
                vec![Value::Float(168659.93559999997), Value::str("VIETNAM")],
            ],
        );
        assert_eq!(Reference::new(&want).matches(&got), Ok(()));
    }

    #[test]
    fn wrong_counts_keys_and_values_are_caught() {
        let want = rel(
            &["k", "v"],
            vec![
                vec![Value::Int(1), Value::Float(1.0)],
                vec![Value::Int(2), Value::Float(2.0)],
            ],
        );
        let reference = Reference::new(&want);
        let short = rel(&["k", "v"], vec![vec![Value::Int(1), Value::Float(1.0)]]);
        assert!(reference.matches(&short).unwrap_err().contains("rows"));
        let wrong_key = rel(
            &["k", "v"],
            vec![
                vec![Value::Int(1), Value::Float(1.0)],
                vec![Value::Int(3), Value::Float(2.0)],
            ],
        );
        assert!(reference.matches(&wrong_key).is_err());
        let wrong_value = rel(
            &["k", "v"],
            vec![
                vec![Value::Int(1), Value::Float(1.0)],
                vec![Value::Int(2), Value::Float(2.000001)],
            ],
        );
        assert!(reference.matches(&wrong_value).is_err());
        let wrong_col = rel(&["k", "w"], vec![]);
        assert!(reference
            .matches(&wrong_col)
            .unwrap_err()
            .contains("column"));
    }

    #[test]
    fn duplicate_rows_count() {
        let want = rel(&["k"], vec![vec![Value::Int(1)], vec![Value::Int(1)]]);
        let got = rel(&["k"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert!(Reference::new(&want).matches(&got).is_err());
        assert_eq!(Reference::new(&want).matches(&want), Ok(()));
    }
}
