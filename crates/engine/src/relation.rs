//! Base relations, stored **columnar**: a schema plus one typed
//! [`Column`] per attribute (strings dictionary-encoded through
//! [`crate::dict`]). Scans read the columns directly; the row accessors
//! ([`Relation::row`], [`Relation::iter_rows`], [`Relation::to_rows`])
//! materialize boxed rows on demand as the compatibility view for the
//! row-based oracles, CSV export and tests.
//!
//! Each column sits behind an [`Arc`], so a scan that keeps every row
//! hands the stored column to its output as a reference-count clone
//! ([`Relation::shared_column`]). Appending takes the columns mutably once
//! per batch (`Arc::make_mut`: free while the relation is the only owner,
//! copy-on-write after a scan result or a clone shares the column).

use crate::column::{Column, StrMemo};
use crate::dict::{self, DictReader};
use crate::schema::{ColumnType, Schema};
use crate::value::{Row, Value};
use std::fmt;
use std::sync::Arc;

/// Errors raised when mutating a relation.
#[derive(Clone, Debug, PartialEq)]
pub enum RelationError {
    /// Row arity does not match the schema.
    ArityMismatch {
        /// Expected arity.
        expected: usize,
        /// Row arity received.
        got: usize,
    },
    /// A cell's type does not match its column (NULL is always accepted).
    TypeMismatch {
        /// Offending column name.
        column: String,
        /// Expected column type.
        expected: ColumnType,
        /// Received value's type name.
        got: &'static str,
    },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::ArityMismatch { expected, got } => {
                write!(f, "row arity {got} does not match schema arity {expected}")
            }
            RelationError::TypeMismatch {
                column,
                expected,
                got,
            } => {
                write!(f, "column `{column}` expects {expected:?}, got {got}")
            }
        }
    }
}

impl std::error::Error for RelationError {}

/// A stored relation (bag of rows, insertion-ordered), laid out one typed
/// column per attribute.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    len: usize,
    /// Total bytes of string payload pushed, counted per occurrence (the
    /// row representation stored one `Arc<str>` per cell, so duplicated
    /// strings counted once per row); keeps [`Relation::approx_bytes`]
    /// numerically identical to the historical row-layout formula that
    /// calibrates the Figure 8 "database size (MB)" axis.
    str_bytes: usize,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Arc::new(Column::new(c.ty)))
            .collect();
        Relation {
            schema,
            columns,
            len: 0,
            str_bytes: 0,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column `i` of the stored data.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column `i` as a shareable handle (what an unfiltered scan returns).
    pub fn shared_column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// Row `i`, materialized (acquires the dictionary lock once; prefer
    /// [`Relation::iter_rows`] / [`Relation::to_rows`] for whole-relation
    /// passes).
    pub fn row(&self, i: usize) -> Row {
        self.row_with(i, &dict::reader())
    }

    /// Row `i`, materialized through an already-held dictionary reader.
    pub fn row_with(&self, i: usize, reader: &DictReader) -> Row {
        assert!(i < self.len, "row {i} out of bounds ({} rows)", self.len);
        let row: Vec<Value> = self
            .columns
            .iter()
            .map(|c| c.value_with(i, reader))
            .collect();
        row.into_boxed_slice()
    }

    /// Iterates materialized rows. The dictionary lock is taken per row,
    /// not across the whole iteration, so callers may freely intern (e.g.
    /// push into another relation) between items.
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// All rows, materialized in one pass under a single dictionary lock.
    pub fn to_rows(&self) -> Vec<Row> {
        let reader = dict::reader();
        (0..self.len).map(|i| self.row_with(i, &reader)).collect()
    }

    /// Appends a row after arity/type checking.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), RelationError> {
        self.extend_rows(std::iter::once(row))
    }

    /// Appends many boxed rows, taking the columns mutably once for the
    /// whole batch. Each row is validated first and the first bad row
    /// stops the append (earlier rows stay).
    pub fn extend_rows<I: IntoIterator<Item = Vec<Value>>>(
        &mut self,
        rows: I,
    ) -> Result<(), RelationError> {
        let mut cols: Vec<&mut Column> = self.columns.iter_mut().map(Arc::make_mut).collect();
        for row in rows {
            check_row(&self.schema, &row)?;
            for (col, value) in cols.iter_mut().zip(&row) {
                if let Value::Str(s) = value {
                    self.str_bytes += s.len();
                }
                col.push_value(value);
            }
            self.len += 1;
        }
        Ok(())
    }

    /// Bulk-load access: the columns taken mutably once, for a loader
    /// that appends rows cell by cell without boxing a [`Value`] per cell
    /// — the one bulk path from typed cells into columns (`tpch::dbgen`,
    /// the paged storage reload).
    pub fn loader(&mut self) -> RowLoader<'_> {
        RowLoader {
            schema: &self.schema,
            cols: self
                .columns
                .iter_mut()
                .map(|c| (Arc::make_mut(c), StrMemo::default()))
                .collect(),
            len: &mut self.len,
            str_bytes: &mut self.str_bytes,
            next: 0,
            row_str_bytes: 0,
        }
    }

    /// Reserves capacity for `n` more rows.
    pub fn reserve(&mut self, n: usize) {
        for col in &mut self.columns {
            Arc::make_mut(col).reserve(n);
        }
    }

    /// Approximate in-memory size in bytes (used to map "database size"
    /// to the paper's MB axis in Figure 8). Deliberately the **row**
    /// representation's formula — two words of `Box<[Value]>` header plus
    /// `arity` cells plus string payloads per row — so the axis
    /// calibration is unchanged by the columnar storage rewrite.
    pub fn approx_bytes(&self) -> usize {
        let cell = std::mem::size_of::<Value>();
        self.len * (std::mem::size_of::<Row>() + self.schema.arity() * cell) + self.str_bytes
    }
}

/// Appends rows to a [`Relation`] one typed cell at a time (see
/// [`Relation::loader`]). Cells go into the columns in schema order: each
/// push fills the next column of the row in progress, and
/// [`RowLoader::end_row`] completes it. A typed push returns `false`,
/// appending nothing, when that column holds another type. Cells of a row
/// that was never ended are dropped by [`RowLoader::abort_row`] or when the
/// loader goes away, so a failed load leaves the relation with whole rows
/// only. Each string column keeps a small memo of the strings it interned
/// last, so a repeated string skips the dictionary; codes are the ones
/// [`crate::dict::intern`] gives, in the same order.
pub struct RowLoader<'a> {
    schema: &'a Schema,
    cols: Vec<(&'a mut Column, StrMemo)>,
    len: &'a mut usize,
    str_bytes: &'a mut usize,
    /// The column the next cell goes into.
    next: usize,
    /// String bytes of the row in progress.
    row_str_bytes: usize,
}

impl RowLoader<'_> {
    /// The schema of the relation being loaded.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    #[inline]
    fn push(&mut self, push: impl FnOnce(&mut Column, &mut StrMemo) -> bool) -> bool {
        let (col, memo) = &mut self.cols[self.next];
        let pushed = push(col, memo);
        self.next += usize::from(pushed);
        pushed
    }

    /// Appends NULL to the next column.
    #[inline]
    pub fn push_null(&mut self) {
        self.cols[self.next].0.push_null();
        self.next += 1;
    }

    /// Appends an integer to the next column.
    #[inline]
    pub fn push_int(&mut self, x: i64) -> bool {
        self.push(|c, _| c.push_int(x))
    }

    /// Appends a float to the next column.
    #[inline]
    pub fn push_float(&mut self, x: f64) -> bool {
        self.push(|c, _| c.push_float(x))
    }

    /// Appends a date to the next column.
    #[inline]
    pub fn push_date(&mut self, x: i32) -> bool {
        self.push(|c, _| c.push_date(x))
    }

    /// Appends a string to the next column, interning the borrowed text.
    #[inline]
    pub fn push_str(&mut self, s: &str) -> bool {
        let pushed = self.push(|c, memo| c.push_str_with(s, memo));
        if pushed {
            self.row_str_bytes += s.len();
        }
        pushed
    }

    /// Completes the row in progress, which must have a cell in every
    /// column.
    #[inline]
    pub fn end_row(&mut self) {
        assert_eq!(self.next, self.cols.len(), "end_row: row is incomplete");
        self.next = 0;
        *self.len += 1;
        *self.str_bytes += std::mem::take(&mut self.row_str_bytes);
    }

    /// Drops the cells of the row in progress.
    pub fn abort_row(&mut self) {
        for (col, _) in &mut self.cols[..self.next] {
            col.truncate(*self.len);
        }
        self.next = 0;
        self.row_str_bytes = 0;
    }
}

impl Drop for RowLoader<'_> {
    fn drop(&mut self) {
        self.abort_row();
    }
}

/// Validates `row` against `schema`.
fn check_row(schema: &Schema, row: &[Value]) -> Result<(), RelationError> {
    if row.len() != schema.arity() {
        return Err(RelationError::ArityMismatch {
            expected: schema.arity(),
            got: row.len(),
        });
    }
    for (value, col) in row.iter().zip(schema.columns()) {
        let ok = matches!(
            (value, col.ty),
            (Value::Null, _)
                | (Value::Int(_), ColumnType::Int)
                | (Value::Float(_), ColumnType::Float)
                | (Value::Str(_), ColumnType::Str)
                | (Value::Date(_), ColumnType::Date)
        );
        if !ok {
            return Err(RelationError::TypeMismatch {
                column: col.name.clone(),
                expected: col.ty,
                got: value.type_name(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str)])
    }

    #[test]
    fn push_checks_arity() {
        let mut r = Relation::new(schema());
        let err = r.push_row(vec![Value::Int(1)]).unwrap_err();
        assert_eq!(
            err,
            RelationError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn push_checks_types() {
        let mut r = Relation::new(schema());
        let err = r
            .push_row(vec![Value::str("x"), Value::str("y")])
            .unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
    }

    #[test]
    fn null_is_accepted_anywhere() {
        let mut r = Relation::new(schema());
        r.push_row(vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(&*r.row(0), &[Value::Null, Value::Null]);
    }

    #[test]
    fn extend_rows_and_accessors() {
        let mut r = Relation::new(schema());
        r.extend_rows(vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
        ])
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(1)[0], Value::Int(2));
        assert!(r.approx_bytes() > 0);
    }

    #[test]
    fn rows_roundtrip_through_columns() {
        let mut r = Relation::new(Schema::new(&[
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("s", ColumnType::Str),
            ("d", ColumnType::Date),
        ]));
        let rows = vec![
            vec![
                Value::Int(-5),
                Value::Float(2.5),
                Value::str("dup"),
                Value::Date(100),
            ],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
            vec![
                Value::Int(7),
                Value::Float(-0.0),
                Value::str("dup"),
                Value::Date(-3),
            ],
        ];
        r.extend_rows(rows.clone()).unwrap();
        let back = r.to_rows();
        for (got, want) in back.iter().zip(&rows) {
            assert_eq!(got.as_ref(), want.as_slice());
        }
        assert_eq!(r.iter_rows().count(), 3);
    }

    #[test]
    fn loader_memo_gives_the_dictionary_codes() {
        use crate::column::ColumnData;
        // Few values (memo hits), more values than memo entries in runs
        // of two (a hit right after each replacement), then past the miss
        // limit.
        let cells: Vec<String> = (0..40)
            .map(|i| format!("memo-few-{}", i % 3))
            .chain((0..80).map(|i| format!("memo-cycle-{}", i / 2 % 9)))
            .chain((0..600).map(|i| format!("memo-many-{i}")))
            .collect();
        let mut typed = Relation::new(schema());
        let mut l = typed.loader();
        for (i, s) in cells.iter().enumerate() {
            assert!(l.push_int(i as i64) && l.push_str(s));
            l.end_row();
        }
        // A string refused by an `Int` column never reaches the dictionary.
        assert!(!l.push_str("memo-refused-never-interned"));
        drop(l);
        assert_eq!(dict::reader().code_of("memo-refused-never-interned"), None);
        let ColumnData::Str(codes) = typed.column(1).data() else {
            panic!("variant")
        };
        let want: Vec<u32> = cells.iter().map(|s| dict::intern(s)).collect();
        assert_eq!(codes, &want);
    }

    #[test]
    fn loader_matches_boxed_append_and_drops_unfinished_rows() {
        let rows = vec![
            vec![Value::Int(1), Value::str("loader-x")],
            vec![Value::Null, Value::Null],
            vec![Value::Int(3), Value::str("")],
        ];
        let mut boxed = Relation::new(schema());
        boxed.extend_rows(rows).unwrap();

        let mut typed = Relation::new(schema());
        let mut l = typed.loader();
        assert!(l.push_int(1) && l.push_str("loader-x"));
        l.end_row();
        l.push_null();
        l.push_null();
        l.end_row();
        // A cell of the wrong type is refused and the row can be dropped…
        assert!(l.push_int(2));
        assert!(!l.push_int(2), "name is a string column");
        l.abort_row();
        assert!(l.push_int(3) && l.push_str(""));
        l.end_row();
        // …as is a row still open when the loader goes away.
        l.push_null();
        drop(l);
        assert_eq!(typed.len(), 3);
        assert_eq!(typed.to_rows(), boxed.to_rows());
        assert_eq!(typed.approx_bytes(), boxed.approx_bytes());
        for c in 0..2 {
            assert_eq!(typed.column(c).len(), 3);
            assert_eq!(typed.column(c).nulls().any(), boxed.column(c).nulls().any());
        }
    }

    #[test]
    fn approx_bytes_uses_row_formula() {
        let mut r = Relation::new(schema());
        r.push_row(vec![Value::Int(1), Value::str("abcd")]).unwrap();
        r.push_row(vec![Value::Int(2), Value::str("abcd")]).unwrap();
        let cell = std::mem::size_of::<Value>();
        let expected = 2 * (std::mem::size_of::<Row>() + 2 * cell) + 8;
        assert_eq!(r.approx_bytes(), expected);
    }
}
