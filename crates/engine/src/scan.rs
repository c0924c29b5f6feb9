//! Atom scans: turn a stored relation into an intermediate relation over
//! the atom's query variables, applying the atom's constant filters
//! (selection push-down) and materializing the hidden `__rowid` column when
//! the isolator's multiplicity guard asked for it.
//!
//! The scan is columnar end to end ([`scan_atom_c`]) and costs what its
//! filters cost, not what its width costs: each filter runs as a typed
//! column-at-a-time kernel ([`Column::select`]) that produces or refines
//! one selection vector, the survivors are tuple-charged in bulk, and only
//! then is each output column gathered. A scan that keeps every row
//! gathers nothing — its output shares the stored columns. The
//! row-returning [`scan_atom`] is the same scan followed by a
//! [`crate::crel::CRel::to_vrel`] conversion (identical budget charges).

use crate::column::Column;
use crate::crel::CRel;
use crate::dict;
use crate::error::{Budget, EvalError};
use crate::relation::Relation;
use crate::schema::Database;
use crate::value::Value;
use crate::vrel::VRelation;
use htqo_cq::isolator::ROWID_COLUMN;
use htqo_cq::{Atom, CmpOp, ConjunctiveQuery, Filter};
use std::sync::Arc;

/// Where an output variable's value comes from.
pub(crate) enum Source {
    /// A column of the base relation.
    Col(usize),
    /// The hidden row identifier.
    RowId,
}

/// An atom resolved against its stored relation: what to filter on and
/// where each output variable comes from (shared with the seek join).
pub(crate) struct AtomLayout {
    /// Constant filters as `(column index, op, constant)`.
    pub(crate) filters: Vec<(usize, CmpOp, Value)>,
    /// Distinct output variables in first-occurrence order.
    pub(crate) out_vars: Vec<String>,
    /// Source of each output variable, parallel to `out_vars`.
    pub(crate) sources: Vec<Source>,
    /// Column pairs a repeated variable (e.g. `r(X, X)`) forces equal.
    pub(crate) equalities: Vec<(usize, usize)>,
}

impl AtomLayout {
    /// Resolves `atom` and `filters` (which must all belong to the atom)
    /// against `rel`'s schema.
    pub(crate) fn resolve(
        rel: &Relation,
        atom: &Atom,
        filters: &[&Filter],
    ) -> Result<AtomLayout, EvalError> {
        let index_of = |column: &String| {
            rel.schema()
                .index_of(column)
                .ok_or_else(|| EvalError::UnknownColumn {
                    relation: atom.relation.clone(),
                    column: column.clone(),
                })
        };
        let filters = filters
            .iter()
            .map(|f| Ok((index_of(&f.column)?, f.op, Value::from(&f.value))))
            .collect::<Result<_, EvalError>>()?;

        let mut out_vars: Vec<String> = Vec::new();
        let mut sources: Vec<Source> = Vec::new();
        let mut equalities: Vec<(usize, usize)> = Vec::new();
        for (column, var) in &atom.args {
            let src = if column == ROWID_COLUMN {
                Source::RowId
            } else {
                Source::Col(index_of(column)?)
            };
            if let Some(pos) = out_vars.iter().position(|v| v == var) {
                // Rowid repetition cannot add a constraint (it is unique).
                if let (Source::Col(a), Source::Col(b)) = (&sources[pos], &src) {
                    equalities.push((*a, *b));
                }
            } else {
                out_vars.push(var.clone());
                sources.push(src);
            }
        }
        Ok(AtomLayout {
            filters,
            out_vars,
            sources,
            equalities,
        })
    }
}

/// Scans `atom` from `db` into a columnar relation, applying `filters`
/// (which must all belong to the atom). Repeated variables within the
/// atom (e.g. `r(X, X)`) impose within-tuple equality.
///
/// Charges one tuple per surviving row, and bytes only for the columns it
/// materializes: a scan that keeps every row shares the stored columns
/// and charges none.
pub fn scan_atom_c(
    db: &Database,
    atom: &Atom,
    filters: &[&Filter],
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    crate::fail_point!("scan::atom");
    let rel = db
        .table(&atom.relation)
        .ok_or_else(|| EvalError::UnknownTable(atom.relation.clone()))?;
    let layout = AtomLayout::resolve(rel, atom, filters)?;

    // Selection: the first predicate writes the selection vector, later
    // ones refine it. `None` means every row (no predicate ran).
    let reader = dict::reader();
    let mut sel: Option<Vec<u32>> = None;
    for (i, op, v) in &layout.filters {
        sel = Some(rel.column(*i).select(*op, v, sel, &reader));
    }
    for (a, b) in &layout.equalities {
        sel = Some(rel.column(*a).select_eq(rel.column(*b), sel, &reader));
    }
    drop(reader);
    // Ascending and duplicate-free, so full length means the identity.
    let sel = sel.filter(|s| s.len() < rel.len());
    let n = sel.as_ref().map_or(rel.len(), Vec::len);
    budget.charge(n as u64)?;

    // Projection: share the stored column, or gather the survivors.
    let mut fresh_bytes = 0;
    let columns = layout
        .sources
        .iter()
        .map(|s| {
            let fresh = match (s, &sel) {
                (Source::Col(i), None) => return Arc::clone(rel.shared_column(*i)),
                (Source::Col(i), Some(sel)) => rel.column(*i).gather(sel),
                (Source::RowId, None) => Column::from_ints((0..n as i64).collect()),
                (Source::RowId, Some(sel)) => {
                    Column::from_ints(sel.iter().map(|&i| i as i64).collect())
                }
            };
            fresh_bytes += fresh.payload_bytes() as u64;
            Arc::new(fresh)
        })
        .collect();
    budget.charge_bytes(fresh_bytes)?;
    Ok(CRel::new(layout.out_vars, columns, n))
}

/// Scans `atom` into a row relation: the columnar scan plus a row
/// conversion (compatibility view; identical budget charges).
pub fn scan_atom(
    db: &Database,
    atom: &Atom,
    filters: &[&Filter],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    Ok(scan_atom_c(db, atom, filters, budget)?.to_vrel())
}

/// Convenience: scans atom `a` of `q` with its own filters (columnar).
pub fn scan_query_atom_c(
    db: &Database,
    q: &ConjunctiveQuery,
    a: htqo_cq::AtomId,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let filters: Vec<&Filter> = q.filters_of(a).collect();
    scan_atom_c(db, q.atom(a), &filters, budget)
}

/// Convenience: scans atom `a` of `q` with its own filters (rows).
pub fn scan_query_atom(
    db: &Database,
    q: &ConjunctiveQuery,
    a: htqo_cq::AtomId,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let filters: Vec<&Filter> = q.filters_of(a).collect();
    scan_atom(db, q.atom(a), &filters, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::{ColumnType, Schema};
    use htqo_cq::{AtomId, CmpOp, CqBuilder, Literal};

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::new(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
            ("name", ColumnType::Str),
        ]));
        r.extend_rows(vec![
            vec![Value::Int(1), Value::Int(1), Value::str("x")],
            vec![Value::Int(1), Value::Int(2), Value::str("y")],
            vec![Value::Int(3), Value::Int(3), Value::str("x")],
        ])
        .unwrap();
        db.insert_table("r", r);
        db
    }

    #[test]
    fn plain_scan_projects_used_columns() {
        let q = CqBuilder::new()
            .atom("r", "r", &[("a", "X"), ("b", "Y")])
            .out_var("X")
            .build();
        let mut budget = Budget::unlimited();
        let v = scan_query_atom(&db(), &q, AtomId(0), &mut budget).unwrap();
        assert_eq!(v.cols(), &["X".to_string(), "Y".to_string()]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn filters_are_applied() {
        let q = CqBuilder::new()
            .atom("r", "r", &[("a", "X")])
            .out_var("X")
            .filter(0, "name", CmpOp::Eq, Literal::Str("x".into()))
            .build();
        let mut budget = Budget::unlimited();
        let v = scan_query_atom(&db(), &q, AtomId(0), &mut budget).unwrap();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn repeated_variable_means_equality() {
        let q = CqBuilder::new()
            .atom("r", "r", &[("a", "X"), ("b", "X")])
            .out_var("X")
            .build();
        let mut budget = Budget::unlimited();
        let v = scan_query_atom(&db(), &q, AtomId(0), &mut budget).unwrap();
        // Only rows with a == b survive.
        assert_eq!(v.len(), 2);
        assert_eq!(v.cols(), &["X".to_string()]);
    }

    #[test]
    fn rowid_column_materializes_indices() {
        let q = CqBuilder::new()
            .atom("r", "r", &[("a", "X"), (ROWID_COLUMN, "RID")])
            .out_var("X")
            .build();
        let mut budget = Budget::unlimited();
        let v = scan_query_atom(&db(), &q, AtomId(0), &mut budget).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.value(2, "RID"), Some(&Value::Int(2)));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let q = CqBuilder::new()
            .atom("missing", "missing", &[("a", "X")])
            .out_var("X")
            .build();
        let mut budget = Budget::unlimited();
        assert!(matches!(
            scan_query_atom(&db(), &q, AtomId(0), &mut budget),
            Err(EvalError::UnknownTable(_))
        ));
        let q2 = CqBuilder::new()
            .atom("r", "r", &[("zz", "X")])
            .out_var("X")
            .build();
        assert!(matches!(
            scan_query_atom(&db(), &q2, AtomId(0), &mut budget),
            Err(EvalError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn scan_respects_budget() {
        let q = CqBuilder::new()
            .atom("r", "r", &[("a", "X")])
            .out_var("X")
            .build();
        let mut budget = Budget::unlimited().with_max_tuples(2);
        assert!(scan_query_atom(&db(), &q, AtomId(0), &mut budget).is_err());
    }

    #[test]
    fn date_filter_comparisons() {
        let mut db = Database::new();
        let mut t = Relation::new(Schema::new(&[("d", ColumnType::Date)]));
        t.extend_rows(vec![vec![Value::Date(10)], vec![Value::Date(20)]])
            .unwrap();
        db.insert_table("t", t);
        let q = CqBuilder::new()
            .atom("t", "t", &[("d", "D")])
            .out_var("D")
            .filter(0, "d", CmpOp::Ge, Literal::Date(15))
            .build();
        let mut budget = Budget::unlimited();
        let v = scan_query_atom(&db, &q, AtomId(0), &mut budget).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v.value(0, "D"), Some(&Value::Date(20)));
    }
}
