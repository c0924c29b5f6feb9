//! Nested-loop references for the columnar semijoin and distinct
//! projection: quadratic, obviously correct, and sharing no hash kernel
//! with `cops` (the join's reference is `vrel::nested_loop_join`).

use htqo_engine::error::Budget;
use htqo_engine::value::Row;
use htqo_engine::vrel::VRelation;

/// `a ⋉ b`: the rows of `a`, in input order, with a partner in `b` on the
/// shared columns; one tuple charged per kept row.
pub fn nested_loop_semijoin(a: &VRelation, b: &VRelation, budget: &mut Budget) -> VRelation {
    let shared: Vec<(usize, usize)> = (0..a.cols().len())
        .filter_map(|i| Some((i, b.col_index(&a.cols()[i])?)))
        .collect();
    let mut out = VRelation::empty(a.cols().to_vec());
    for ra in a.rows() {
        if (b.rows().iter()).any(|rb| shared.iter().all(|&(i, j)| ra[i] == rb[j])) {
            budget.charge(1).unwrap();
            out.push(ra.clone());
        }
    }
    out
}

/// `a` projected onto `vars`, keeping the first occurrence of each row in
/// input order; one tuple charged per kept row.
pub fn first_occurrence_project(a: &VRelation, vars: &[String], budget: &mut Budget) -> VRelation {
    let idx: Vec<usize> = (vars.iter())
        .map(|v| a.col_index(v).expect("projected variable"))
        .collect();
    let mut out = VRelation::empty(vars.to_vec());
    for row in a.rows() {
        let row: Row = idx.iter().map(|&i| row[i].clone()).collect();
        if !out.rows().contains(&row) {
            budget.charge(1).unwrap();
            out.push(row);
        }
    }
    out
}
