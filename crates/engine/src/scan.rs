//! Atom scans: turn a stored relation into an intermediate relation over
//! the atom's query variables, applying the atom's constant filters
//! (selection push-down) and materializing the hidden `__rowid` column when
//! the query names it.
//!
//! The scan is columnar end to end ([`scan_atom_c`]) and costs what its
//! filters cost, not what its width costs: each filter runs as a typed
//! column-at-a-time kernel ([`crate::column::Column::select`]) that
//! produces or refines one selection vector, the survivors are
//! tuple-charged in bulk, and only then is each output column gathered.
//! A scan that keeps every row
//! gathers nothing — its output shares the stored columns. Inside a
//! decomposition vertex nothing is gathered at all: [`select_atom`] hands
//! the stored columns and the selection vector to the vertex join
//! ([`crate::cops::join_vertex`]).

use crate::crel::{CRel, Name, Selection};
use crate::dict;
use crate::error::{Budget, EvalError};
use crate::relation::Relation;
use crate::schema::Database;
use crate::value::Value;
use htqo_cq::isolator::ROWID_COLUMN;
use htqo_cq::{Atom, CmpOp, ConjunctiveQuery, Filter};
use std::borrow::Cow;
use std::sync::Arc;

/// An atom resolved against its stored relation: what to filter on and
/// where each output variable comes from.
struct AtomLayout {
    /// Constant filters as `(column index, op, constant)`.
    filters: Vec<(usize, CmpOp, Value)>,
    /// Where each distinct output variable, in first-occurrence order,
    /// reads: a column of the base relation, or (`None`) the hidden row
    /// identifier.
    sources: Vec<Option<usize>>,
    /// Column pairs a repeated variable (e.g. `r(X, X)`) forces equal.
    equalities: Vec<(usize, usize)>,
}

impl AtomLayout {
    /// Resolves `atom`, whose distinct variables are `vars` (in
    /// first-occurrence order), and `filters` (which must all belong to
    /// the atom) against `rel`'s schema.
    fn resolve(
        rel: &Relation,
        atom: &Atom,
        vars: &[Name],
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

        let mut sources: Vec<Option<usize>> = Vec::with_capacity(vars.len());
        let mut equalities: Vec<(usize, usize)> = Vec::new();
        for (column, var) in &atom.args {
            let src = if column == ROWID_COLUMN {
                None
            } else {
                Some(index_of(column)?)
            };
            let seen = &vars[..sources.len()];
            if let Some(pos) = seen.iter().position(|v| **v == **var) {
                // Rowid repetition cannot add a constraint (it is unique).
                if let (Some(a), Some(b)) = (sources[pos], src) {
                    equalities.push((a, b));
                }
            } else {
                assert_eq!(vars.get(sources.len()).map(|v| &**v), Some(&**var));
                sources.push(src);
            }
        }
        assert_eq!(sources.len(), vars.len(), "the atom's variables");
        Ok(AtomLayout {
            filters,
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
/// and charges none. This is [`select_atom`] followed by its gather.
pub fn scan_atom_c(
    db: &Database,
    atom: &Atom,
    filters: &[&Filter],
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let vars = atom_names(atom);
    let (rel, fresh_bytes) = select_atom(db, atom, vars, filters, false, budget)?.gather();
    budget.charge_bytes(fresh_bytes)?;
    Ok(rel)
}

/// The atom's distinct variables in first-occurrence order, as fresh
/// names — for a caller with no plan to share them from.
pub fn atom_names(atom: &Atom) -> Vec<Name> {
    atom.vars().into_iter().map(Name::from).collect()
}

/// The scan before its gather: the stored columns `atom`'s variables read
/// and the rows that pass `filters` and the atom's repeated-variable
/// equalities (`__rowid` reads the row positions). `vars` names the
/// atom's distinct variables in first-occurrence order ([`atom_names`],
/// or the plan's shared names); they become the selection's. Charges one
/// tuple per surviving row and no bytes; whoever keeps the selection
/// vector pays for it.
///
/// With `seek` set, the selection also carries the registered index of
/// each variable read from an indexed column, and if there is one it
/// leaves its tuple charge to the vertex join, which pays it unless it
/// seeks the selection ([`crate::cops::join_vertex`]).
pub fn select_atom<'d>(
    db: &'d Database,
    atom: &Atom,
    vars: impl Into<Cow<'d, [Name]>>,
    filters: &[&Filter],
    seek: bool,
    budget: &mut Budget,
) -> Result<Selection<'d>, EvalError> {
    crate::fail_point!("scan::atom");
    let rel = db
        .table(&atom.relation)
        .ok_or_else(|| EvalError::UnknownTable(atom.relation.clone()))?;
    let vars = vars.into();
    let layout = AtomLayout::resolve(rel, atom, &vars, filters)?;

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

    let indexes: Vec<_> = (layout.sources.iter().enumerate())
        .filter_map(|(j, s)| {
            let column = &rel.schema().columns()[(*s).filter(|_| seek)?].name;
            Some((j, Arc::clone(db.index_on(&atom.relation, column)?)))
        })
        .collect();
    let unpaid = if indexes.is_empty() {
        budget.charge(n as u64)?;
        0
    } else {
        n as u64
    };

    // Reuses the layout's list: the two element types are the same size.
    let sources = (layout.sources.into_iter())
        .map(|s| Some(Cow::Borrowed(rel.shared_column(s?))))
        .collect();
    Ok(Selection {
        vars,
        sources,
        rows: sel,
        len: n,
        indexes,
        unpaid,
    })
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

/// Convenience: selects atom `a` of `q` with its own filters, ungathered
/// (see [`select_atom`] for `seek`).
pub fn select_query_atom<'d>(
    db: &'d Database,
    q: &ConjunctiveQuery,
    a: htqo_cq::AtomId,
    seek: bool,
    budget: &mut Budget,
) -> Result<Selection<'d>, EvalError> {
    let filters: Vec<&Filter> = q.filters_of(a).collect();
    let atom = q.atom(a);
    select_atom(db, atom, atom_names(atom), &filters, seek, budget)
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
        let v = scan_query_atom_c(&db(), &q, AtomId(0), &mut budget)
            .unwrap()
            .to_vrel();
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
        let v = scan_query_atom_c(&db(), &q, AtomId(0), &mut budget)
            .unwrap()
            .to_vrel();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn repeated_variable_means_equality() {
        let q = CqBuilder::new()
            .atom("r", "r", &[("a", "X"), ("b", "X")])
            .out_var("X")
            .build();
        let mut budget = Budget::unlimited();
        let v = scan_query_atom_c(&db(), &q, AtomId(0), &mut budget)
            .unwrap()
            .to_vrel();
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
        let v = scan_query_atom_c(&db(), &q, AtomId(0), &mut budget)
            .unwrap()
            .to_vrel();
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
            scan_query_atom_c(&db(), &q, AtomId(0), &mut budget),
            Err(EvalError::UnknownTable(_))
        ));
        let q2 = CqBuilder::new()
            .atom("r", "r", &[("zz", "X")])
            .out_var("X")
            .build();
        assert!(matches!(
            scan_query_atom_c(&db(), &q2, AtomId(0), &mut budget),
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
        assert!(scan_query_atom_c(&db(), &q, AtomId(0), &mut budget).is_err());
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
        let v = scan_query_atom_c(&db, &q, AtomId(0), &mut budget)
            .unwrap()
            .to_vrel();
        assert_eq!(v.len(), 1);
        assert_eq!(v.value(0, "D"), Some(&Value::Date(20)));
    }
}
