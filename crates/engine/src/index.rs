//! Secondary join indexes: equality lookups from a join-key value to the
//! base-table rows that carry it.
//!
//! An index maps an *encoded* key to the ascending rowids whose indexed
//! cell equals it. Keys are encoded by [`encode_key`], which is injective
//! with respect to [`Value`] equality: two cells encode to the same bytes
//! iff the engine's join kernels would treat them as equal (NULLs match
//! each other, floats are normalized so `NaN == NaN` and `-0.0 == 0.0`,
//! and types never cross — `Int(1)` and `Float(1.0)` stay distinct). The
//! encoding is also order-preserving within a type, so sorted-key
//! structures (the paged B-tree in `htqo-storage`) can binary-search it.
//!
//! Implementations live on both sides of the storage boundary:
//! [`MemIndex`] here (hash-build-once, used by tests and as the oracle),
//! and the paged B-tree in `htqo-storage` that seeks through the buffer
//! pool. The vertex join ([`crate::cops::join_vertex`]) only sees the
//! [`JoinIndex`] trait, so both back ends produce bit-identical joins.

use crate::column::{Column, ColumnData};
use crate::dict::{self, DictReader};
use crate::error::EvalError;
use crate::relation::Relation;
use crate::value::{norm_f64, Value};
use std::collections::BTreeMap;
use std::fmt;

/// How many times smaller than an indexed input the accumulator of a
/// vertex join must be before the join seeks the index instead of
/// hash-joining the input ([`crate::cops::join_vertex`]), and the margin
/// `StatsDecompCost` prices seeks with. A seek pays one index probe per
/// distinct accumulator key; a hash join pays about one hashed row per
/// input row. The constant is the ratio of the two, measured by `cargo
/// bench -p htqo-bench --bench micro -- seek_join` (EXPERIMENTS.md): a
/// `PagedIndex` probe through a 24-page pool takes ≈ 5.1–6.4 µs (mean,
/// TPC-H SF 0.01 `l_partkey`), a lineitem row through the hash path of
/// `join_vertex` ≈ 3.0 ns — a ratio of 1,600–2,000, of which this is the
/// low end.
pub const SEEK_MARGIN: usize = 1600;

/// Type tag leading every encoded key (distinct types never compare equal).
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DATE: u8 = 4;

/// Appends the injective, order-preserving encoding of `v` to `out`.
///
/// `encode_key(a) == encode_key(b)` iff `a == b` under [`Value`]'s
/// equality (the join-key semantics), and byte order matches [`Value`]'s
/// total order within each type.
pub fn encode_key(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => encode_int(*i, out),
        Value::Float(x) => encode_float(*x, out),
        Value::Str(s) => encode_str(s, out),
        Value::Date(d) => encode_date(*d, out),
    }
}

/// [`encode_key`] of cell `i` of `col`, read from the typed slice (string
/// codes resolved through `reader`).
pub(crate) fn encode_cell(col: &Column, i: usize, reader: &DictReader, out: &mut Vec<u8>) {
    if col.is_null(i) {
        return out.push(TAG_NULL);
    }
    match col.data() {
        ColumnData::Int(a) => encode_int(a[i], out),
        ColumnData::Float(a) => encode_float(a[i], out),
        ColumnData::Date(a) => encode_date(a[i], out),
        ColumnData::Str(a) => encode_str(reader.str_of(a[i]), out),
        ColumnData::Mixed(a) => encode_key(&a[i], out),
    }
}

fn encode_int(i: i64, out: &mut Vec<u8>) {
    out.push(TAG_INT);
    // Flip the sign bit so the unsigned byte order matches i64 order.
    out.extend_from_slice(&((i as u64) ^ (1 << 63)).to_be_bytes());
}

fn encode_float(x: f64, out: &mut Vec<u8>) {
    out.push(TAG_FLOAT);
    // Normalize (all NaNs coincide, -0.0 == 0.0), then apply the
    // standard order-preserving IEEE-754 transform.
    let b = norm_f64(x).to_bits();
    let ordered = if b >> 63 == 1 { !b } else { b | (1 << 63) };
    out.extend_from_slice(&ordered.to_be_bytes());
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.push(TAG_STR);
    out.extend_from_slice(s.as_bytes());
}

fn encode_date(d: i32, out: &mut Vec<u8>) {
    out.push(TAG_DATE);
    out.extend_from_slice(&((d as u32) ^ (1 << 31)).to_be_bytes());
}

/// The encoding of `v` as an owned buffer (see [`encode_key`]).
pub fn key_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    encode_key(v, &mut out);
    out
}

/// An equality index over one column of a stored relation.
///
/// `seek` returns the rowids (ascending) whose indexed cell encodes to
/// `key`. A NULL key returns the NULL rows — join-key semantics, where
/// NULLs match each other.
pub trait JoinIndex: Send + Sync + fmt::Debug {
    /// Rowids carrying `key` (an [`encode_key`] buffer), ascending.
    fn seek(&self, key: &[u8]) -> Result<Vec<u32>, EvalError>;

    /// Number of distinct keys in the index (costing input).
    fn distinct_keys(&self) -> usize;

    /// Total number of indexed rows (costing input).
    fn entries(&self) -> usize;
}

/// An in-memory [`JoinIndex`]: sorted encoded keys with ascending rowid
/// posting lists, built in one pass over a stored relation. The oracle
/// implementation the paged B-tree is pinned against.
pub struct MemIndex {
    keys: Vec<Box<[u8]>>,
    posts: Vec<Vec<u32>>,
    entries: usize,
}

impl MemIndex {
    /// Builds the index over column `col` of `rel`.
    pub fn build(rel: &Relation, col: usize) -> MemIndex {
        let reader = dict::reader();
        let column = rel.column(col);
        let mut map: BTreeMap<Vec<u8>, Vec<u32>> = BTreeMap::new();
        for i in 0..rel.len() {
            let key = key_bytes(&column.value_with(i, &reader));
            map.entry(key).or_default().push(i as u32);
        }
        let entries = rel.len();
        let (keys, posts): (Vec<Box<[u8]>>, Vec<Vec<u32>>) = map
            .into_iter()
            .map(|(k, v)| (k.into_boxed_slice(), v))
            .unzip();
        MemIndex {
            keys,
            posts,
            entries,
        }
    }

    /// Sorted `(encoded key, ascending rowids)` pairs — the bulk-load
    /// input for the paged B-tree.
    pub fn pairs(&self) -> impl Iterator<Item = (&[u8], &[u32])> {
        self.keys
            .iter()
            .zip(&self.posts)
            .map(|(k, p)| (&**k, &p[..]))
    }
}

impl fmt::Debug for MemIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemIndex")
            .field("distinct_keys", &self.keys.len())
            .field("entries", &self.entries)
            .finish()
    }
}

impl JoinIndex for MemIndex {
    fn seek(&self, key: &[u8]) -> Result<Vec<u32>, EvalError> {
        match self.keys.binary_search_by(|k| (**k).cmp(key)) {
            Ok(i) => Ok(self.posts[i].clone()),
            Err(_) => Ok(Vec::new()),
        }
    }

    fn distinct_keys(&self) -> usize {
        self.keys.len()
    }

    fn entries(&self) -> usize {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};

    #[test]
    fn encoding_is_injective_for_value_equality() {
        let pairs = [
            (Value::Int(1), Value::Float(1.0), false),
            (Value::Float(0.0), Value::Float(-0.0), true),
            (Value::Float(f64::NAN), Value::Float(-f64::NAN), true),
            (Value::Null, Value::Null, true),
            (Value::Int(3), Value::Date(3), false),
            (Value::str("a"), Value::str("a"), true),
            (Value::str("a"), Value::str("b"), false),
        ];
        for (a, b, eq) in pairs {
            assert_eq!(key_bytes(&a) == key_bytes(&b), eq, "{a:?} vs {b:?}");
            assert_eq!(a == b, eq, "Value equality drifted for {a:?} vs {b:?}");
        }
    }

    #[test]
    fn cells_encode_like_their_values() {
        let encoded = |col: &Column, i| {
            let mut out = Vec::new();
            encode_cell(col, i, &dict::reader(), &mut out);
            out
        };
        for (v, ty) in [
            (Value::Int(-7), ColumnType::Int),
            (Value::Float(-0.0), ColumnType::Float),
            (Value::Float(f64::NAN), ColumnType::Float),
            (Value::str("k3"), ColumnType::Str),
            (Value::Date(9_001), ColumnType::Date),
        ] {
            let mut typed = Column::new(ty);
            let mut mixed = Column::mixed_with_capacity(2);
            for col in [&mut typed, &mut mixed] {
                col.push_value(&v);
                col.push_value(&Value::Null);
            }
            for col in [&typed, &mixed] {
                assert_eq!(encoded(col, 0), key_bytes(&v), "{v:?}");
                assert_eq!(encoded(col, 1), key_bytes(&Value::Null));
            }
        }
    }

    #[test]
    fn encoding_preserves_order_within_type() {
        let ints = [i64::MIN, -2, 0, 5, i64::MAX];
        for w in ints.windows(2) {
            assert!(key_bytes(&Value::Int(w[0])) < key_bytes(&Value::Int(w[1])));
        }
        let floats = [f64::NEG_INFINITY, -1.5, 0.0, 2.5, f64::INFINITY];
        for w in floats.windows(2) {
            assert!(key_bytes(&Value::Float(w[0])) < key_bytes(&Value::Float(w[1])));
        }
        let dates = [i32::MIN, -1, 0, 7, i32::MAX];
        for w in dates.windows(2) {
            assert!(key_bytes(&Value::Date(w[0])) < key_bytes(&Value::Date(w[1])));
        }
    }

    #[test]
    fn mem_index_seeks_ascending_rowids() {
        let mut rel = Relation::new(Schema::new(&[("k", ColumnType::Int)]));
        for k in [5i64, 3, 5, 1, 5] {
            rel.push_row(vec![Value::Int(k)]).unwrap();
        }
        let idx = MemIndex::build(&rel, 0);
        assert_eq!(idx.seek(&key_bytes(&Value::Int(5))).unwrap(), vec![0, 2, 4]);
        assert_eq!(idx.seek(&key_bytes(&Value::Int(1))).unwrap(), vec![3]);
        assert_eq!(
            idx.seek(&key_bytes(&Value::Int(9))).unwrap(),
            Vec::<u32>::new()
        );
        assert_eq!(idx.distinct_keys(), 3);
        assert_eq!(idx.entries(), 5);
    }

    #[test]
    fn mem_index_matches_nulls_to_nulls() {
        let mut rel = Relation::new(Schema::new(&[("k", ColumnType::Str)]));
        rel.push_row(vec![Value::str("x")]).unwrap();
        rel.push_row(vec![Value::Null]).unwrap();
        let idx = MemIndex::build(&rel, 0);
        assert_eq!(idx.seek(&key_bytes(&Value::Null)).unwrap(), vec![1]);
        assert_eq!(idx.seek(&key_bytes(&Value::str("x"))).unwrap(), vec![0]);
    }
}
