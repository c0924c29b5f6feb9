//! The nested-loop reference the property suites hold every evaluator to:
//! it shares no hash kernel, key plan or budget rule with the engine.

use htqo::prelude::*;
use htqo_engine::scan::scan_query_atom_c;
use htqo_engine::vrel::nested_loop_join;
use htqo_engine::Row;

/// The oracle: every atom scanned, the scans folded in body order with
/// the nested-loop join, the result projected onto `out(Q)`, sorted and
/// deduplicated.
pub fn reference(db: &Database, q: &ConjunctiveQuery) -> VRelation {
    let mut budget = Budget::unlimited();
    let mut joined = VRelation::neutral();
    for a in q.atom_ids() {
        let scanned = scan_query_atom_c(db, q, a, &mut budget).unwrap().to_vrel();
        joined = nested_loop_join(&joined, &scanned, &mut budget).unwrap();
    }
    let out = q.out_vars();
    let idx: Vec<usize> = (out.iter())
        .map(|v| joined.col_index(v).expect("output variable"))
        .collect();
    let mut rows: Vec<Row> = (joined.rows().iter())
        .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
        .collect();
    rows.sort();
    rows.dedup();
    VRelation::from_rows(out, rows)
}

/// `answer` is the reference: the same columns, and the same rows, each
/// once.
pub fn is_reference(answer: &VRelation, reference: &VRelation) -> bool {
    answer.cols() == reference.cols() && answer.sorted_rows() == reference.rows()
}
