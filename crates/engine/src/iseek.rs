//! Index-nested-loop (seek) joins: the per-vertex alternative to
//! ChainTable hash builds when a secondary index covers the join key.
//!
//! Instead of scanning the atom's base table and building a hash table
//! over it, the kernels probe a registered [`JoinIndex`] once per
//! accumulator row and fetch only the matching base rows. On a selective
//! join (small accumulator against a large indexed table) this skips the
//! dominant build cost entirely — and it never materializes the scanned
//! atom, so the tuple budget records only the *output* rows, which is the
//! paper's work measure for an index-backed vertex join.
//!
//! Output contract: identical to `scan` + `natural_join` — the result's
//! columns are `acc.cols ++ (atom vars − acc.cols)` in first-occurrence
//! order, and the row bag is exactly the natural join's (the oracle
//! suites pin `sorted_rows` equality). The atom's residual predicates
//! (constant filters, within-tuple equalities, and every shared variable
//! including the seek key) are re-applied per fetched row, so the index
//! is trusted only as a *superset* filter.
//!
//! Budget charges follow [`cops::natural_join`]'s convention: one tuple
//! plus `PAIR_BYTES` per matched pair, and the gathered payload at the
//! end.

use crate::column::Column;
use crate::cops;
use crate::crel::CRel;
use crate::dict::{self, DictReader};
use crate::error::{Budget, EvalError};
use crate::expr::cmp_matches;
use crate::index::{encode_key, JoinIndex};
use crate::relation::Relation;
use crate::scan::{AtomLayout, Source};
use crate::schema::Database;
use crate::value::Value;
use htqo_cq::{Atom, AtomId, ConjunctiveQuery, Filter};
use std::sync::Arc;

/// A resolved seek join: the atom's scan metadata plus the chosen index
/// and the accumulator column it is probed with.
struct SeekPlan<'a> {
    rel: &'a Relation,
    layout: AtomLayout,
    /// `(acc column, source position)` for every variable shared with the
    /// accumulator — all re-checked per fetched row.
    shared: Vec<(usize, usize)>,
    /// Source positions of atom-only output variables, in first-occurrence
    /// order (the `b.cols − a.cols` tail of the output).
    rest: Vec<usize>,
    index: Arc<dyn JoinIndex>,
    /// Accumulator column holding the seek key.
    seek_acc_col: usize,
}

impl<'a> SeekPlan<'a> {
    /// Resolves atom `a` against an accumulator over `acc_cols`. Returns
    /// `None` when no registered index covers a shared variable's base
    /// column (the caller falls back to scan + hash join).
    fn resolve(
        db: &'a Database,
        q: &ConjunctiveQuery,
        a: AtomId,
        acc_cols: &[String],
    ) -> Result<Option<SeekPlan<'a>>, EvalError> {
        let atom: &Atom = q.atom(a);
        let filters: Vec<&Filter> = q.filters_of(a).collect();
        let rel = db
            .table(&atom.relation)
            .ok_or_else(|| EvalError::UnknownTable(atom.relation.clone()))?;
        let layout = AtomLayout::resolve(rel, atom, &filters)?;

        let mut shared: Vec<(usize, usize)> = Vec::new();
        let mut rest: Vec<usize> = Vec::new();
        for (pos, var) in layout.out_vars.iter().enumerate() {
            match acc_cols.iter().position(|c| c == var) {
                Some(acc_idx) => shared.push((acc_idx, pos)),
                None => rest.push(pos),
            }
        }

        // Pick the first shared variable whose base column carries an
        // index (first-occurrence order keeps the choice deterministic).
        let chosen = shared.iter().find_map(|&(acc_idx, pos)| {
            if let Source::Col(ci) = layout.sources[pos] {
                let name = &rel.schema().columns()[ci].name;
                db.index_on(&atom.relation, name)
                    .map(|idx| (acc_idx, Arc::clone(idx)))
            } else {
                None
            }
        });
        let Some((seek_acc_col, index)) = chosen else {
            return Ok(None);
        };

        Ok(Some(SeekPlan {
            rel,
            layout,
            shared,
            rest,
            index,
            seek_acc_col,
        }))
    }

    /// The atom's cell for output-variable source `pos` at `rowid`.
    fn cell(&self, pos: usize, rowid: usize, reader: &DictReader) -> Value {
        match self.layout.sources[pos] {
            Source::Col(i) => self.rel.column(i).value_with(rowid, reader),
            Source::RowId => Value::Int(rowid as i64),
        }
    }

    /// Constant filters and within-tuple equalities at `rowid`.
    fn base_matches(&self, rowid: usize, reader: &DictReader) -> bool {
        self.layout
            .filters
            .iter()
            .all(|(i, op, v)| cmp_matches(*op, self.rel.column(*i).cmp_value(rowid, v, reader)))
            && self.layout.equalities.iter().all(|(a, b)| {
                self.rel
                    .column(*a)
                    .eq_at(rowid, self.rel.column(*b), rowid, reader)
            })
    }
}

/// True if joining atom `a` into an accumulator over `cols` can use an
/// index seek (some shared variable's base column is indexed). Resolution
/// errors report `false` — the scan path will surface them.
pub fn seek_eligible(db: &Database, q: &ConjunctiveQuery, a: AtomId, cols: &[String]) -> bool {
    matches!(SeekPlan::resolve(db, q, a, cols), Ok(Some(_)))
}

/// Joins atom `a` into `acc` by index seeks. Returns `Ok(None)` when the
/// atom is not seek-eligible — the caller falls back to scan + hash join,
/// whose output this one is bag-identical to (same column order).
pub fn index_seek_join(
    db: &Database,
    q: &ConjunctiveQuery,
    a: AtomId,
    acc: &CRel,
    budget: &mut Budget,
) -> Result<Option<CRel>, EvalError> {
    let Some(plan) = SeekPlan::resolve(db, q, a, acc.cols())? else {
        return Ok(None);
    };
    crate::fail_point!("iseek::join");
    budget.join_stats().add_index_seek();
    let reader = dict::reader();
    let mut acc_sel: Vec<u32> = Vec::new();
    let mut base_sel: Vec<u32> = Vec::new();
    let seek_col = acc.column(plan.seek_acc_col);
    let mut key = Vec::with_capacity(9);
    for i in 0..acc.len() {
        key.clear();
        encode_key(&seek_col.value_with(i, &reader), &mut key);
        for rowid in plan.index.seek(&key)? {
            let r = rowid as usize;
            if !plan.base_matches(r, &reader) {
                continue;
            }
            if !plan
                .shared
                .iter()
                .all(|&(ai, sp)| plan.cell(sp, r, &reader) == acc.column(ai).value_with(i, &reader))
            {
                continue;
            }
            budget.charge(1)?;
            budget.charge_bytes(cops::PAIR_BYTES)?;
            acc_sel.push(i as u32);
            base_sel.push(rowid);
        }
    }
    let mut cols: Vec<String> = acc.cols().to_vec();
    let mut columns: Vec<Arc<Column>> = acc
        .columns()
        .iter()
        .map(|c| Arc::new(c.gather(&acc_sel)))
        .collect();
    for &p in &plan.rest {
        cols.push(plan.layout.out_vars[p].clone());
        columns.push(Arc::new(match plan.layout.sources[p] {
            Source::Col(ci) => plan.rel.column(ci).gather(&base_sel),
            Source::RowId => Column::from_ints(base_sel.iter().map(|&r| r as i64).collect()),
        }));
    }
    let out = CRel::new(cols, columns, acc_sel.len());
    budget.charge_bytes(cops::crel_payload_bytes(&out))?;
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::MemIndex;
    use crate::ops;
    use crate::scan;
    use crate::schema::{ColumnType, Schema};
    use crate::vrel::VRelation;
    use htqo_cq::{CmpOp, CqBuilder, Literal};

    /// A catalog with an indexed fact table and a small probe table.
    fn db() -> Database {
        let mut db = Database::new();
        let mut fact = Relation::new(Schema::new(&[
            ("k", ColumnType::Int),
            ("payload", ColumnType::Str),
        ]));
        for i in 0..200i64 {
            fact.push_row(vec![Value::Int(i % 50), Value::str(&format!("p{i}"))])
                .unwrap();
        }
        fact.push_row(vec![Value::Null, Value::str("null-key")])
            .unwrap();
        let mut probe = Relation::new(Schema::new(&[
            ("k", ColumnType::Int),
            ("tag", ColumnType::Str),
        ]));
        for (k, t) in [(3i64, "a"), (7, "b"), (3, "c")] {
            probe.push_row(vec![Value::Int(k), Value::str(t)]).unwrap();
        }
        probe.push_row(vec![Value::Null, Value::str("n")]).unwrap();
        db.insert_table("fact", fact);
        db.insert_table("probe", probe);
        let idx = MemIndex::build(db.table("fact").unwrap(), 0);
        db.register_index("fact", "k", Arc::new(idx));
        db
    }

    fn query() -> ConjunctiveQuery {
        CqBuilder::new()
            .atom("probe", "probe", &[("k", "K"), ("tag", "T")])
            .atom("fact", "fact", &[("k", "K"), ("payload", "P")])
            .out_var("K")
            .out_var("T")
            .out_var("P")
            .build()
    }

    /// Scans atom 0 as the accumulator and joins atom 1 into it both ways:
    /// by seek, and by scan + the row hash join (the contract's reference).
    fn seek_and_hash(db: &Database, q: &ConjunctiveQuery, b: &mut Budget) -> (CRel, VRelation) {
        let hash = {
            let acc = scan::scan_query_atom(db, q, AtomId(0), b).unwrap();
            let scanned = scan::scan_query_atom(db, q, AtomId(1), b).unwrap();
            ops::natural_join(&acc, &scanned, b).unwrap()
        };
        let acc = scan::scan_query_atom_c(db, q, AtomId(0), b).unwrap();
        let seek = index_seek_join(db, q, AtomId(1), &acc, b)
            .unwrap()
            .expect("eligible");
        assert_eq!(seek.cols(), hash.cols(), "column contract drifted");
        (seek, hash)
    }

    #[test]
    fn seek_join_matches_hash_join() {
        let mut b = Budget::unlimited();
        let (seek, hash) = seek_and_hash(&db(), &query(), &mut b);
        assert_eq!(seek.to_vrel().sorted_rows(), hash.sorted_rows());
        assert_eq!(b.join_stats().index_seeks(), 1);
    }

    #[test]
    fn seek_join_charges_only_output_tuples() {
        let db = db();
        let q = query();
        let mut b = Budget::unlimited();
        let acc = scan::scan_query_atom_c(&db, &q, AtomId(0), &mut b).unwrap();
        let before = b.charged();
        let seek = index_seek_join(&db, &q, AtomId(1), &acc, &mut b)
            .unwrap()
            .unwrap();
        assert_eq!(b.charged() - before, seek.len() as u64);
    }

    #[test]
    fn seek_join_applies_residual_filters() {
        let q = CqBuilder::new()
            .atom("probe", "probe", &[("k", "K"), ("tag", "T")])
            .atom("fact", "fact", &[("k", "K"), ("payload", "P")])
            .filter(1, "payload", CmpOp::Eq, Literal::Str("p3".into()))
            .out_var("K")
            .out_var("P")
            .build();
        let mut b = Budget::unlimited();
        let (seek, hash) = seek_and_hash(&db(), &q, &mut b);
        // Only fact row 3 (k=3) has payload "p3"; probe has two k=3 rows.
        assert_eq!(seek.len(), 2);
        assert_eq!(seek.to_vrel().sorted_rows(), hash.sorted_rows());
    }

    #[test]
    fn seek_join_matches_nulls_like_hash_join() {
        let mut b = Budget::unlimited();
        let (seek, hash) = seek_and_hash(&db(), &query(), &mut b);
        // The NULL probe row matches the NULL fact row (join-key
        // semantics), same as the hash join.
        assert!(hash
            .sorted_rows()
            .iter()
            .any(|r| r.iter().any(|v| v.is_null())));
        assert_eq!(seek.to_vrel().sorted_rows(), hash.sorted_rows());
    }

    #[test]
    fn unindexed_atom_is_not_eligible() {
        let db = db();
        let q = CqBuilder::new()
            .atom("fact", "fact", &[("k", "K"), ("payload", "P")])
            .atom("probe", "probe", &[("k", "K"), ("tag", "T")])
            .out_var("K")
            .build();
        let mut b = Budget::unlimited();
        let acc = scan::scan_query_atom_c(&db, &q, AtomId(0), &mut b).unwrap();
        // probe carries no index.
        assert!(index_seek_join(&db, &q, AtomId(1), &acc, &mut b)
            .unwrap()
            .is_none());
        assert!(!seek_eligible(&db, &q, AtomId(1), acc.cols()));
        assert!(seek_eligible(&db, &query(), AtomId(1), &["K".to_string()]));
    }
}
