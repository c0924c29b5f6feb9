//! Columnar intermediate relations over *query variables* — the
//! column-at-a-time counterpart of [`VRelation`].
//!
//! A [`CRel`] carries one typed [`Column`] per query variable. Scans build
//! it straight from columnar base relations, the kernels in
//! [`crate::cops`] join/semijoin/project it by hashing flat columns and
//! gathering row indices, and [`CRel::to_vrel`] converts back to the row
//! representation at the pipeline boundary (final answers, oracles,
//! `finalize`'s ORDER BY tail).
//!
//! Zero-column relations are meaningful here just as for [`VRelation`]:
//! [`CRel::neutral`] is one empty tuple (the join identity), so `len` is
//! tracked explicitly rather than derived from a first column.
//!
//! Columns are immutable and shared ([`Arc`]): cloning a relation,
//! permuting or dropping its columns, and scanning a base table without
//! filters all move pointers, never cells. Variable names are shared too
//! ([`Name`]): an evaluator takes them from its plan once, and every
//! operator after that clones handles, never strings.
//!
//! A [`Selection`] is a relation not yet gathered: the stored columns its
//! variables read plus the rows it keeps. Scans hand one to the vertex
//! join ([`crate::cops::join_vertex`]), which gathers each column once, at
//! the end, through the position lists it composes.

use crate::column::{Column, ColumnData};
use crate::dict;
use crate::error::{Budget, EvalError};
use crate::index::JoinIndex;
use crate::keyplan::Keys;
use crate::schema::ColumnType;
use crate::value::{Row, Value};
use crate::vrel::VRelation;
use std::borrow::Cow;
use std::sync::Arc;

/// The name of a query variable as a relation carries it: a shared
/// handle, so cloning a name — or a relation — copies no string.
pub type Name = Arc<str>;

/// The column under which a *counted* relation carries each row's
/// multiplicity: an `Int` column of `u64` counts (stored as their bits),
/// one per row, never NULL. A counted relation stands for the bag in
/// which row `i` occurs `count[i]` times. Gathers, spill files and the
/// chunk codec carry the column like any other; [`crate::cops`]'s join
/// multiplies it, its semijoin by a counted relation multiplies by the
/// summed partner counts, and its projection sums it. No query variable
/// can take the name: `#` starts no SQL identifier and no variable the
/// isolator names.
pub const COUNT: &str = "#count";

/// A columnar relation whose columns are named by query variables.
#[derive(Clone, Debug)]
pub struct CRel {
    cols: Vec<Name>,
    columns: Vec<Arc<Column>>,
    len: usize,
}

impl CRel {
    /// Assembles a relation from named columns (all of length `len`).
    ///
    /// # Panics
    /// Panics on duplicate variable names or column length mismatches.
    pub fn new(cols: Vec<Name>, columns: Vec<Arc<Column>>, len: usize) -> Self {
        assert_eq!(cols.len(), columns.len(), "name/column count mismatch");
        // A handful of names per relation: comparing them pairwise needs
        // no allocation, and every kernel output passes through here.
        for (i, c) in cols.iter().enumerate() {
            assert!(!cols[..i].contains(c), "duplicate variable `{c}`");
        }
        for col in &columns {
            assert_eq!(col.len(), len, "column length mismatch");
        }
        CRel { cols, columns, len }
    }

    /// An empty relation over the given variables (all columns `Mixed`
    /// until rows arrive via kernels, which always gather typed columns
    /// from typed inputs).
    pub fn empty(cols: Vec<Name>) -> Self {
        let columns = cols
            .iter()
            .map(|_| Arc::new(Column::mixed_with_capacity(0)))
            .collect();
        CRel::new(cols, columns, 0)
    }

    /// The *neutral* relation: zero columns, one (empty) row — the
    /// identity of natural join.
    pub fn neutral() -> Self {
        CRel {
            cols: Vec::new(),
            columns: Vec::new(),
            len: 1,
        }
    }

    /// Variable names in column order.
    pub fn cols(&self) -> &[Name] {
        &self.cols
    }

    /// The columns, parallel to [`CRel::cols`].
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Takes the relation apart into names, columns and row count (the
    /// inverse of [`CRel::new`]), so columns can be moved, not cloned.
    pub fn into_parts(self) -> (Vec<Name>, Vec<Arc<Column>>, usize) {
        (self.cols, self.columns, self.len)
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of variable `v`.
    pub fn col_index(&self, v: &str) -> Option<usize> {
        self.cols.iter().position(|c| **c == *v)
    }

    /// The per-row multiplicities of a counted relation (the [`COUNT`]
    /// column, as `u64` bits), or `None` if the relation is not counted.
    pub fn counts(&self) -> Option<&[i64]> {
        Some(count_cells(self.column(self.col_index(COUNT)?)))
    }

    /// This relation with a [`COUNT`] column of `counts` appended.
    pub fn with_counts(self, counts: Vec<i64>) -> CRel {
        let (mut cols, mut columns, len) = self.into_parts();
        cols.push(COUNT.into());
        columns.push(Arc::new(Column::from_ints(counts)));
        CRel::new(cols, columns, len)
    }

    /// Converts a row relation to columnar form. Each column is typed by
    /// inference (first non-NULL value's type; heterogeneous columns fall
    /// back to `Mixed`), so the conversion is total over arbitrary row
    /// data and [`CRel::to_vrel`] is its exact inverse.
    pub fn from_vrel(v: &VRelation) -> CRel {
        let arity = v.cols().len();
        let rows = v.rows();
        let mut columns = Vec::with_capacity(arity);
        for c in 0..arity {
            let mut ty: Option<ColumnType> = None;
            let mut mixed = false;
            for row in rows {
                let t = match &row[c] {
                    Value::Null => continue,
                    Value::Int(_) => ColumnType::Int,
                    Value::Float(_) => ColumnType::Float,
                    Value::Str(_) => ColumnType::Str,
                    Value::Date(_) => ColumnType::Date,
                };
                match ty {
                    None => ty = Some(t),
                    Some(prev) if prev != t => {
                        mixed = true;
                        break;
                    }
                    Some(_) => {}
                }
            }
            let mut col = if mixed {
                Column::mixed_with_capacity(rows.len())
            } else {
                // All-NULL columns type as Int arbitrarily; every cell
                // reads back as `Value::Null` either way.
                Column::with_capacity(ty.unwrap_or(ColumnType::Int), rows.len())
            };
            for row in rows {
                col.push_value(&row[c]);
            }
            columns.push(Arc::new(col));
        }
        CRel {
            cols: v.cols().iter().map(|c| Name::from(c.as_str())).collect(),
            columns,
            len: rows.len(),
        }
    }

    /// Materializes the rows (one dictionary read-lock for the whole
    /// pass).
    pub fn to_vrel(&self) -> VRelation {
        let all: Vec<usize> = (0..self.columns.len()).collect();
        let cols = self.cols.iter().map(|c| c.to_string()).collect();
        VRelation::from_rows(cols, self.rows_of(&all))
    }

    /// The rows of columns `idx`, in that order (a column may repeat),
    /// materialized under one dictionary read-lock.
    pub(crate) fn rows_of(&self, idx: &[usize]) -> Vec<Row> {
        let reader = dict::reader();
        (0..self.len)
            .map(|i| (idx.iter().map(|&c| self.columns[c].value_with(i, &reader))).collect())
            .collect()
    }
}

/// A relation as the columns it reads and the rows of them it keeps.
/// Variable `vars[j]` reads column `sources[j]`. `rows` lists the kept
/// rows, ascending; `None` keeps every row.
/// A selection borrows the columns of the relation it was selected from
/// (no reference count moves until a column is shared into an output),
/// and its names from the plan where there is one.
///
/// A selection the vertex join may seek ([`crate::scan::select_atom`]
/// with `seek` set) lists, in `indexes`, each variable whose column
/// carries a registered index, and leaves its scan charge `unpaid`: the
/// join pays it only if it reads the selection whole (DESIGN.md §3.13).
#[derive(Clone, Debug)]
pub struct Selection<'a> {
    pub(crate) vars: Cow<'a, [Name]>,
    pub(crate) sources: Vec<Cow<'a, Arc<Column>>>,
    pub(crate) rows: Option<Vec<u32>>,
    pub(crate) len: usize,
    /// `(variable, index over its column)`, ascending by variable.
    pub(crate) indexes: Vec<(usize, Arc<dyn JoinIndex>)>,
    /// Scan tuples not charged yet.
    pub(crate) unpaid: u64,
}

impl Selection<'_> {
    /// Number of kept rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no row is kept.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Charges the scan tuples the selection left unpaid.
    pub(crate) fn pay(&mut self, budget: &mut Budget) -> Result<(), EvalError> {
        if self.unpaid == 0 {
            return Ok(());
        }
        budget.charge(std::mem::take(&mut self.unpaid))
    }

    /// True if row `r` of the sources is among the kept rows.
    pub(crate) fn keeps(&self, r: u32) -> bool {
        match &self.rows {
            None => (r as usize) < self.len,
            Some(rows) => rows.binary_search(&r).is_ok(),
        }
    }

    /// Narrows the selection to its rows at positions `kept` (ascending,
    /// counted among the rows kept so far) and returns how many it drops.
    pub(crate) fn retain(&mut self, kept: Vec<u32>) -> usize {
        let removed = self.len - kept.len();
        if removed > 0 {
            self.rows = Some(match self.rows.take() {
                None => kept,
                Some(rows) => kept.iter().map(|&k| rows[k as usize]).collect(),
            });
            self.len -= removed;
        }
        removed
    }

    /// Variable `j` over the kept rows (see [`read_source`]).
    pub(crate) fn column(&self, j: usize) -> Cow<'_, Arc<Column>> {
        read_source(&self.sources[j], self.rows.as_deref())
    }

    /// The variables `vars` (which it must carry) as the key of a kernel,
    /// read through the kept rows: nothing is gathered.
    pub(crate) fn keys<'n>(&self, vars: impl IntoIterator<Item = &'n Name>) -> Keys<'_> {
        let rows = self.rows.as_deref();
        let source = |v| &**self.sources[self.vars.iter().position(|x| x == v).expect("carried")];
        Keys::new(vars.into_iter().map(|v| (source(v), rows)), self.len)
    }

    /// The kept rows as a relation — one gather per column, none where
    /// every row is kept — and the payload bytes it gathered.
    pub fn gather(self) -> (CRel, u64) {
        let mut fresh_bytes = 0;
        let columns = (0..self.vars.len())
            .map(|j| match self.column(j) {
                Cow::Borrowed(col) => Arc::clone(col),
                Cow::Owned(col) => {
                    fresh_bytes += col.payload_bytes() as u64;
                    col
                }
            })
            .collect();
        let rel = CRel::new(self.vars.into_owned(), columns, self.len);
        (rel, fresh_bytes)
    }
}

impl From<CRel> for Selection<'static> {
    /// Every row of `rel`.
    fn from(rel: CRel) -> Selection<'static> {
        let (vars, columns, len) = rel.into_parts();
        Selection {
            vars: vars.into(),
            sources: columns.into_iter().map(Cow::Owned).collect(),
            rows: None,
            len,
            indexes: Vec::new(),
            unpaid: 0,
        }
    }
}

/// The cells of a [`COUNT`] column.
pub(crate) fn count_cells(col: &Column) -> &[i64] {
    match col.data() {
        ColumnData::Int(v) => v,
        // `CRel::empty` types no column.
        _ if col.is_empty() => &[],
        _ => unreachable!("a count column holds integers"),
    }
}

/// Column `source` read at `rows`, or at every row when `rows` is
/// `None`: the column itself, borrowed, or a new one.
pub(crate) fn read_source<'s>(
    source: &'s Arc<Column>,
    rows: Option<&[u32]>,
) -> Cow<'s, Arc<Column>> {
    match rows {
        None => Cow::Borrowed(source),
        Some(rows) => Cow::Owned(Arc::new(source.gather(rows))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrel(cols: &[&str], rows: Vec<Vec<Value>>) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.into_iter().map(Vec::into_boxed_slice).collect(),
        )
    }

    #[test]
    fn roundtrip_typed_columns() {
        let v = vrel(
            &["x", "s"],
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Null, Value::str("a")],
                vec![Value::Int(3), Value::Null],
            ],
        );
        let c = CRel::from_vrel(&v);
        assert_eq!(c.len(), 3);
        assert_eq!(c.to_vrel(), v);
    }

    #[test]
    fn heterogeneous_column_falls_back_to_mixed() {
        let v = vrel(
            &["x"],
            vec![
                vec![Value::Int(1)],
                vec![Value::str("two")],
                vec![Value::Float(3.0)],
            ],
        );
        let c = CRel::from_vrel(&v);
        assert_eq!(c.to_vrel(), v);
    }

    #[test]
    fn neutral_is_one_empty_row() {
        let n = CRel::neutral();
        assert_eq!(n.len(), 1);
        assert_eq!(n.cols().len(), 0);
        let v = n.to_vrel();
        assert_eq!(v.len(), 1);
        assert!(v.set_eq(&VRelation::neutral()));
        assert_eq!(CRel::from_vrel(&VRelation::neutral()).len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_columns_panic() {
        CRel::empty(vec!["x".into(), "x".into()]);
    }
}
