//! The nested-loop reference the property suites hold every evaluator to:
//! it shares no hash kernel, key plan or budget rule with the engine.

use htqo::prelude::*;
use htqo_cq::AtomId;
use htqo_engine::scan::scan_query_atom_c;
use htqo_engine::vrel::nested_loop_join;
use htqo_engine::Row;

/// The oracle: every atom scanned, the scans folded in body order with
/// the nested-loop join, the result projected onto `out(Q)`, sorted and
/// deduplicated. After each join it keeps only `out(Q)` and the variables
/// of the atoms still to come, its rows sorted and deduplicated: under
/// set semantics a variable nothing reads any more only repeats rows.
pub fn reference(db: &Database, q: &ConjunctiveQuery) -> VRelation {
    let mut budget = Budget::unlimited();
    let out = q.out_vars();
    let atoms: Vec<AtomId> = q.atom_ids().collect();
    let mut joined = VRelation::neutral();
    for (k, &a) in atoms.iter().enumerate() {
        let scanned = scan_query_atom_c(db, q, a, &mut budget).unwrap().to_vrel();
        joined = nested_loop_join(&joined, &scanned, &mut budget).unwrap();
        let later: Vec<&str> = (atoms[k + 1..].iter())
            .flat_map(|&b| q.atom(b).vars())
            .collect();
        let kept: Vec<String> = (joined.cols().iter())
            .filter(|c| out.contains(c) || later.contains(&c.as_str()))
            .cloned()
            .collect();
        joined = distinct(&joined, kept);
    }
    distinct(&joined, out)
}

/// The rows of `rel` over its columns `cols`, in that order, sorted and
/// each once.
fn distinct(rel: &VRelation, cols: Vec<String>) -> VRelation {
    let idx: Vec<usize> = (cols.iter())
        .map(|v| rel.col_index(v).expect("a column of the relation"))
        .collect();
    let mut rows: Vec<Row> = (rel.rows().iter())
        .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
        .collect();
    rows.sort();
    rows.dedup();
    VRelation::from_rows(cols, rows)
}

/// `answer` is the reference: the same columns, and the same rows, each
/// once.
pub fn is_reference(answer: &VRelation, reference: &VRelation) -> bool {
    answer.cols() == reference.cols() && answer.sorted_rows() == reference.rows()
}
