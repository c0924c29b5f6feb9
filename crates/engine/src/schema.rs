//! Table schemas and the database catalog.

use crate::index::JoinIndex;
use crate::relation::Relation;
use htqo_cq::isolator::SchemaProvider;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Column data types (checked on insert).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// String.
    Str,
    /// Date (days since epoch).
    Date,
}

/// A named, typed column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// An ordered list of columns with name lookup.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub fn new(cols: &[(&str, ColumnType)]) -> Self {
        let mut s = Schema {
            columns: Vec::with_capacity(cols.len()),
        };
        for (name, ty) in cols {
            s.push(name, *ty);
        }
        s
    }

    /// Appends a column.
    ///
    /// # Panics
    /// Panics if the name already exists.
    pub fn push(&mut self, name: &str, ty: ColumnType) {
        assert!(self.index_of(name).is_none(), "duplicate column `{name}`");
        self.columns.push(Column {
            name: name.to_string(),
            ty,
        });
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Position of `name`, if present (case-insensitive, like SQL).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|c| format!("{} {:?}", c.name, c.ty))
            .collect();
        write!(f, "({})", cols.join(", "))
    }
}

/// An in-memory database: named relations plus their schemas.
///
/// Uses a `BTreeMap` so iteration (and therefore every planner that walks
/// the catalog) is deterministic. Relations are reference-counted, so
/// cloning a `Database` is cheap — the SQL-view executor and the
/// subquery flattener work on throwaway overlays of the base catalog.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Arc<Relation>>,
    /// Secondary join indexes: table → lowercased column → index. Kept
    /// beside the tables (not inside `Relation`) so a catalog overlay can
    /// share base relations while dropping or adding indexes freely.
    indexes: BTreeMap<String, BTreeMap<String, Arc<dyn JoinIndex>>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a table. Replacing a table drops its indexes —
    /// they describe rowids of the old data.
    pub fn insert_table(&mut self, name: &str, rel: Relation) {
        self.indexes.remove(name);
        self.tables.insert(name.to_string(), Arc::new(rel));
    }

    /// Registers a secondary index over `table.column`.
    ///
    /// The index must map [`crate::index::encode_key`]-encoded cell values
    /// of that column to ascending rowids of the *current* stored
    /// relation, and return at least every row that holds the key. It is
    /// trusted as a superset filter only: the vertex join's seek keeps a
    /// fetched row only if the atom's selection (its filters and
    /// repeated-variable equalities) keeps it and it equals the
    /// accumulator row on every shared variable, the indexed one included.
    pub fn register_index(&mut self, table: &str, column: &str, index: Arc<dyn JoinIndex>) {
        self.indexes
            .entry(table.to_string())
            .or_default()
            .insert(column.to_ascii_lowercase(), index);
    }

    /// The index on `table.column`, if one is registered (column lookup is
    /// case-insensitive, like schema lookups).
    pub fn index_on(&self, table: &str, column: &str) -> Option<&Arc<dyn JoinIndex>> {
        self.indexes.get(table)?.get(&column.to_ascii_lowercase())
    }

    /// True if any secondary index is registered.
    pub fn has_indexes(&self) -> bool {
        !self.indexes.is_empty()
    }

    /// All `(table, column)` pairs carrying an index, in deterministic
    /// (name) order — the cost model's view of index availability.
    pub fn indexed_columns(&self) -> Vec<(String, String)> {
        self.indexes
            .iter()
            .flat_map(|(t, cols)| cols.keys().map(move |c| (t.clone(), c.clone())))
            .collect()
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Option<&Relation> {
        self.tables.get(name).map(|r| r.as_ref())
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.tables.iter().map(|(n, r)| (n.as_str(), r.as_ref()))
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the database has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total number of tuples across all tables.
    pub fn total_tuples(&self) -> usize {
        self.tables.values().map(|r| r.len()).sum()
    }
}

impl SchemaProvider for Database {
    fn columns(&self, table: &str) -> Option<Vec<String>> {
        self.tables.get(table).map(|r| r.schema().names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::value::Value;

    #[test]
    fn schema_lookup_is_case_insensitive() {
        let s = Schema::new(&[("A", ColumnType::Int), ("b", ColumnType::Str)]);
        assert_eq!(s.index_of("a"), Some(0));
        assert_eq!(s.index_of("B"), Some(1));
        assert_eq!(s.index_of("c"), None);
        assert_eq!(s.arity(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        Schema::new(&[("a", ColumnType::Int), ("a", ColumnType::Int)]);
    }

    #[test]
    fn database_catalog() {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::new(&[("x", ColumnType::Int)]));
        r.push_row(vec![Value::Int(1)]).unwrap();
        db.insert_table("r", r);
        assert_eq!(db.len(), 1);
        assert_eq!(db.total_tuples(), 1);
        assert!(db.table("r").is_some());
        assert!(db.table("s").is_none());
    }

    #[test]
    fn index_registry_roundtrip() {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::new(&[("k", ColumnType::Int)]));
        r.push_row(vec![Value::Int(7)]).unwrap();
        db.insert_table("r", r);
        assert!(!db.has_indexes());
        let idx = crate::index::MemIndex::build(db.table("r").unwrap(), 0);
        db.register_index("r", "K", Arc::new(idx));
        assert!(db.has_indexes());
        assert!(db.index_on("r", "k").is_some());
        assert!(db.index_on("r", "z").is_none());
        assert_eq!(db.indexed_columns(), vec![("r".into(), "k".into())]);
        // Replacing the table drops the now-stale index.
        db.insert_table("r", Relation::new(Schema::new(&[("k", ColumnType::Int)])));
        assert!(!db.has_indexes());
    }

    #[test]
    fn schema_provider_impl() {
        let mut db = Database::new();
        db.insert_table(
            "t",
            Relation::new(Schema::new(&[
                ("a", ColumnType::Int),
                ("b", ColumnType::Str),
            ])),
        );
        assert_eq!(
            htqo_cq::isolator::SchemaProvider::columns(&db, "t"),
            Some(vec!["a".to_string(), "b".to_string()])
        );
        assert_eq!(htqo_cq::isolator::SchemaProvider::columns(&db, "zz"), None);
    }
}
