//! Typed columns: the unit of columnar storage.
//!
//! A [`Column`] is a flat vector of one of the engine's four concrete cell
//! types — `i64`, `f64`, `i32` date, or a `u32` code into the global
//! string [`dict`]ionary — plus a lazily-allocated null bitmap. Kernels
//! that hash, compare or gather cells touch one contiguous machine-word
//! array per column instead of chasing per-row `Box<[Value]>` heap
//! objects.
//!
//! A fifth variant, `Mixed`, stores boxed [`Value`]s verbatim. Base
//! relations never produce it (their schemas are typed), but intermediate
//! results converted from arbitrary row data (`CRel::from_vrel`, property
//! tests) may hold heterogeneous columns, and `Mixed` keeps every columnar
//! kernel total over them. Cross-variant equality and hashing follow
//! `Value` semantics exactly — `Null == Null`, `Int(1) != Float(1.0)`,
//! NaNs coincide — and equal cells hash equal **across variants**, because
//! each cell hashes as `mix(type tag, payload)` with string payloads
//! hashed by content (via the dictionary's memoized hashes), never by
//! code.

use crate::dict::{self, DictReader, NULL_CODE};
use crate::expr::cmp_matches;
use crate::schema::ColumnType;
use crate::value::{norm_f64, Value};
use htqo_cq::CmpOp;
use std::cmp::Ordering;

/// Seed multiplier of the FxHasher fold (same constant as
/// [`crate::hash::FxHasher`]).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Splitmix64-style finalizer keyed by a type tag; the per-cell hash.
/// `const` so [`NULL_HASH`] can be computed at compile time.
const fn mix(tag: u64, payload: u64) -> u64 {
    let mut z = payload ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of a NULL cell, identical in every column variant.
pub const NULL_HASH: u64 = mix(0, 0);

#[inline]
fn hash_int(x: i64) -> u64 {
    mix(1, x as u64)
}

#[inline]
fn hash_float(x: f64) -> u64 {
    mix(2, norm_f64(x).to_bits())
}

#[inline]
fn hash_str_content(content_hash: u64) -> u64 {
    mix(3, content_hash)
}

#[inline]
fn hash_date(d: i32) -> u64 {
    mix(4, d as i64 as u64)
}

/// Cell hash of a boxed [`Value`] (the `Mixed` path); agrees with the
/// typed-column hashes above so equal cells hash equal across variants.
#[inline]
pub fn hash_value_cell(v: &Value) -> u64 {
    match v {
        Value::Null => NULL_HASH,
        Value::Int(i) => hash_int(*i),
        Value::Float(x) => hash_float(*x),
        Value::Str(s) => hash_str_content(dict::str_hash(s)),
        Value::Date(d) => hash_date(*d),
    }
}

/// Folds a cell hash into a row's running key hash (the FxHasher step).
#[inline]
pub fn combine_hash(acc: u64, cell: u64) -> u64 {
    (acc.rotate_left(5) ^ cell).wrapping_mul(FX_SEED)
}

/// Avalanche finalizer applied after the last column's fold; spreads
/// entropy into the high bits so they can drive partitioning (same
/// finalizer as [`crate::hash::hash_key`]).
#[inline]
pub fn finish_hash(x: u64) -> u64 {
    let x = (x ^ (x >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 32)
}

/// A lazily-allocated null bitmap: no allocation until the first NULL, so
/// the common all-valid column costs one empty `Vec`.
///
/// Only `Int`/`Float`/`Date` columns use it — string columns mark NULL
/// slots with [`NULL_CODE`] and `Mixed` columns store `Value::Null`
/// directly.
#[derive(Clone, Debug, Default)]
pub struct NullMask {
    bits: Vec<u64>,
}

impl NullMask {
    /// Marks row `i` as NULL (allocating on first use).
    #[inline]
    pub fn set_null(&mut self, i: usize) {
        let word = i / 64;
        if self.bits.len() <= word {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1 << (i % 64);
    }

    /// Forgets every row from `n` on. Words left all-zero are dropped, so
    /// [`NullMask::any`] stays exact.
    pub fn truncate(&mut self, n: usize) {
        let (words, tail) = (n.div_ceil(64), n % 64);
        if self.bits.len() >= words {
            self.bits.truncate(words);
            if tail > 0 {
                self.bits[words - 1] &= (1u64 << tail) - 1;
            }
        }
        while self.bits.last() == Some(&0) {
            self.bits.pop();
        }
    }

    /// True if row `i` is NULL. Rows past the allocated words are valid.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        match self.bits.get(i / 64) {
            Some(w) => (w >> (i % 64)) & 1 == 1,
            None => false,
        }
    }

    /// True if any row is NULL (never a false positive: bits are only
    /// allocated by [`NullMask::set_null`]).
    #[inline]
    pub fn any(&self) -> bool {
        !self.bits.is_empty()
    }
}

/// The last few strings a bulk load interned into one `Str` column, so a
/// repeated string becomes its code without the dictionary's lock and
/// hash probe. A column with a handful of values (flags, statuses,
/// segments) hits it on nearly every row; one of names or comments
/// misses every time, so after [`StrMemo::MAX_MISSES`] misses the memo
/// is dropped and the column goes straight to the dictionary. Nothing is
/// allocated before the first string it remembers.
#[derive(Default)]
pub(crate) struct StrMemo {
    entries: Vec<(Box<str>, u32)>,
    /// The entry the next miss replaces once all are taken.
    next: usize,
    misses: u32,
}

impl StrMemo {
    const ENTRIES: usize = 8;
    const MAX_MISSES: u32 = 256;
    /// A memo that sends every string to the dictionary.
    fn off() -> StrMemo {
        StrMemo {
            entries: Vec::new(),
            next: 0,
            misses: Self::MAX_MISSES,
        }
    }

    /// The dictionary code of `s`.
    #[inline]
    fn code(&mut self, s: &str) -> u32 {
        if self.misses >= Self::MAX_MISSES {
            return dict::intern(s);
        }
        // `==` on strings compares lengths before bytes.
        if let Some(&(_, code)) = self.entries.iter().find(|(t, _)| **t == *s) {
            return code;
        }
        self.miss(s)
    }

    #[cold]
    fn miss(&mut self, s: &str) -> u32 {
        let code = dict::intern(s);
        self.misses += 1;
        if self.misses == Self::MAX_MISSES {
            self.entries = Vec::new();
        } else if self.entries.len() < Self::ENTRIES {
            if self.entries.is_empty() {
                self.entries.reserve_exact(Self::ENTRIES);
            }
            self.entries.push((s.into(), code));
        } else {
            self.entries[self.next] = (s.into(), code);
            self.next = (self.next + 1) % Self::ENTRIES;
        }
        code
    }
}

/// The typed payload of a column.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// 64-bit integers (NULL slots hold 0; see the mask).
    Int(Vec<i64>),
    /// 64-bit floats (NULL slots hold 0.0; see the mask).
    Float(Vec<f64>),
    /// Dates as days since 1970-01-01 (NULL slots hold 0; see the mask).
    Date(Vec<i32>),
    /// Codes into the global string dictionary; NULL slots hold
    /// [`NULL_CODE`].
    Str(Vec<u32>),
    /// Boxed values verbatim (heterogeneous intermediate columns).
    Mixed(Vec<Value>),
}

/// One column: typed payload plus null mask.
#[derive(Clone, Debug)]
pub struct Column {
    data: ColumnData,
    nulls: NullMask,
}

impl Column {
    /// An empty column of a schema type.
    pub fn new(ty: ColumnType) -> Column {
        Column::with_capacity(ty, 0)
    }

    /// An empty column of a schema type with reserved capacity.
    pub fn with_capacity(ty: ColumnType, cap: usize) -> Column {
        let data = match ty {
            ColumnType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            ColumnType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            ColumnType::Date => ColumnData::Date(Vec::with_capacity(cap)),
            ColumnType::Str => ColumnData::Str(Vec::with_capacity(cap)),
        };
        Column {
            data,
            nulls: NullMask::default(),
        }
    }

    /// An empty `Mixed` column (heterogeneous fallback).
    pub fn mixed_with_capacity(cap: usize) -> Column {
        Column {
            data: ColumnData::Mixed(Vec::with_capacity(cap)),
            nulls: NullMask::default(),
        }
    }

    /// An all-valid `Int` column over `data` — how scans and seek joins
    /// write `__rowid` without boxing a `Value` per row.
    pub fn from_ints(data: Vec<i64>) -> Column {
        Column {
            data: ColumnData::Int(data),
            nulls: NullMask::default(),
        }
    }

    /// An empty column shaped like `self` (same variant, no rows).
    pub fn empty_like(&self, cap: usize) -> Column {
        let data = match &self.data {
            ColumnData::Int(_) => ColumnData::Int(Vec::with_capacity(cap)),
            ColumnData::Float(_) => ColumnData::Float(Vec::with_capacity(cap)),
            ColumnData::Date(_) => ColumnData::Date(Vec::with_capacity(cap)),
            ColumnData::Str(_) => ColumnData::Str(Vec::with_capacity(cap)),
            ColumnData::Mixed(_) => ColumnData::Mixed(Vec::with_capacity(cap)),
        };
        Column {
            data,
            nulls: NullMask::default(),
        }
    }

    /// Reserves capacity for `n` more cells.
    pub fn reserve(&mut self, n: usize) {
        match &mut self.data {
            ColumnData::Int(a) => a.reserve(n),
            ColumnData::Float(a) => a.reserve(n),
            ColumnData::Date(a) => a.reserve(n),
            ColumnData::Str(a) => a.reserve(n),
            ColumnData::Mixed(a) => a.reserve(n),
        }
    }

    /// The typed payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null mask (meaningful for `Int`/`Float`/`Date` only).
    pub fn nulls(&self) -> &NullMask {
        &self.nulls
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(a) => a.len(),
            ColumnData::Float(a) => a.len(),
            ColumnData::Date(a) => a.len(),
            ColumnData::Str(a) => a.len(),
            ColumnData::Mixed(a) => a.len(),
        }
    }

    /// True if the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if cell `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Str(a) => a[i] == NULL_CODE,
            ColumnData::Mixed(a) => a[i].is_null(),
            _ => self.nulls.get(i),
        }
    }

    /// Appends a cell. The value's variant must match the column's (NULL
    /// is accepted everywhere); base relations validate before calling.
    pub fn push_value(&mut self, v: &Value) {
        let accepted = match v {
            Value::Null => {
                self.push_null();
                true
            }
            Value::Int(x) => self.push_int(*x),
            Value::Float(x) => self.push_float(*x),
            Value::Date(x) => self.push_date(*x),
            // Not `push_str`: an already-allocated `Arc<str>` is interned
            // without a copy.
            Value::Str(s) => match &mut self.data {
                ColumnData::Str(a) => {
                    a.push(dict::intern_arc(s));
                    true
                }
                ColumnData::Mixed(a) => {
                    a.push(v.clone());
                    true
                }
                _ => false,
            },
        };
        assert!(
            accepted,
            "column variant does not accept a {}",
            v.type_name()
        );
    }

    /// Appends a NULL cell (every variant accepts one).
    #[inline]
    pub fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::Int(a) => {
                a.push(0);
                self.nulls.set_null(a.len() - 1);
            }
            ColumnData::Float(a) => {
                a.push(0.0);
                self.nulls.set_null(a.len() - 1);
            }
            ColumnData::Date(a) => {
                a.push(0);
                self.nulls.set_null(a.len() - 1);
            }
            ColumnData::Str(a) => a.push(NULL_CODE),
            ColumnData::Mixed(a) => a.push(Value::Null),
        }
    }

    /// Appends an integer cell. The typed pushes are the bulk-load path
    /// (no boxed [`Value`] per cell); each returns `false`, appending
    /// nothing, when the column's variant does not hold that type — the
    /// loader's type check.
    #[inline]
    pub fn push_int(&mut self, x: i64) -> bool {
        match &mut self.data {
            ColumnData::Int(a) => a.push(x),
            ColumnData::Mixed(a) => a.push(Value::Int(x)),
            _ => return false,
        }
        true
    }

    /// Appends a float cell (see [`Column::push_int`]).
    #[inline]
    pub fn push_float(&mut self, x: f64) -> bool {
        match &mut self.data {
            ColumnData::Float(a) => a.push(x),
            ColumnData::Mixed(a) => a.push(Value::Float(x)),
            _ => return false,
        }
        true
    }

    /// Appends a date cell (see [`Column::push_int`]).
    #[inline]
    pub fn push_date(&mut self, x: i32) -> bool {
        match &mut self.data {
            ColumnData::Date(a) => a.push(x),
            ColumnData::Mixed(a) => a.push(Value::Date(x)),
            _ => return false,
        }
        true
    }

    /// Appends a string cell, interning the borrowed text (see
    /// [`Column::push_int`]).
    #[inline]
    pub fn push_str(&mut self, s: &str) -> bool {
        self.push_str_with(s, &mut StrMemo::off())
    }

    /// [`Column::push_str`] through `memo`, which is consulted — and the
    /// dictionary touched — only when the column holds strings.
    #[inline]
    pub(crate) fn push_str_with(&mut self, s: &str, memo: &mut StrMemo) -> bool {
        match &mut self.data {
            ColumnData::Str(a) => a.push(memo.code(s)),
            ColumnData::Mixed(a) => a.push(Value::str(s)),
            _ => return false,
        }
        true
    }

    /// Shortens the column to its first `n` cells (no-op when it holds
    /// fewer) — how a bulk load drops the cells of a row it could not
    /// finish.
    pub fn truncate(&mut self, n: usize) {
        match &mut self.data {
            ColumnData::Int(a) => a.truncate(n),
            ColumnData::Float(a) => a.truncate(n),
            ColumnData::Date(a) => a.truncate(n),
            ColumnData::Str(a) => a.truncate(n),
            ColumnData::Mixed(a) => a.truncate(n),
        }
        self.nulls.truncate(n);
    }

    /// Cell `i` as a boxed [`Value`], resolving string codes through
    /// `reader`.
    pub fn value_with(&self, i: usize, reader: &DictReader) -> Value {
        match &self.data {
            ColumnData::Int(a) => {
                if self.nulls.get(i) {
                    Value::Null
                } else {
                    Value::Int(a[i])
                }
            }
            ColumnData::Float(a) => {
                if self.nulls.get(i) {
                    Value::Null
                } else {
                    Value::Float(a[i])
                }
            }
            ColumnData::Date(a) => {
                if self.nulls.get(i) {
                    Value::Null
                } else {
                    Value::Date(a[i])
                }
            }
            ColumnData::Str(a) => {
                if a[i] == NULL_CODE {
                    Value::Null
                } else {
                    Value::Str(reader.arc_of(a[i]))
                }
            }
            ColumnData::Mixed(a) => a[i].clone(),
        }
    }

    /// Cell `i` as a boxed [`Value`] (acquires the dictionary lock; use
    /// [`Column::value_with`] in loops).
    pub fn value(&self, i: usize) -> Value {
        self.value_with(i, &dict::reader())
    }

    /// Hash of cell `i` (consistent with [`Column::eq_at`] across
    /// variants).
    #[inline]
    pub fn hash_at(&self, i: usize, reader: &DictReader) -> u64 {
        match &self.data {
            ColumnData::Int(a) => {
                if self.nulls.get(i) {
                    NULL_HASH
                } else {
                    hash_int(a[i])
                }
            }
            ColumnData::Float(a) => {
                if self.nulls.get(i) {
                    NULL_HASH
                } else {
                    hash_float(a[i])
                }
            }
            ColumnData::Date(a) => {
                if self.nulls.get(i) {
                    NULL_HASH
                } else {
                    hash_date(a[i])
                }
            }
            ColumnData::Str(a) => {
                if a[i] == NULL_CODE {
                    NULL_HASH
                } else {
                    hash_str_content(reader.hash_of(a[i]))
                }
            }
            ColumnData::Mixed(a) => hash_value_cell(&a[i]),
        }
    }

    /// Folds every cell's hash into `acc` (one slot per row) with the
    /// FxHasher step — the vectorized analogue of hashing one more key
    /// column into every row's [`crate::hash::hash_key`]. Callers run this
    /// once per key column, then [`finish_hash`] each slot.
    pub fn write_hashes(&self, acc: &mut [u64], reader: &DictReader) {
        assert_eq!(acc.len(), self.len(), "hash accumulator length");
        match &self.data {
            ColumnData::Int(a) => {
                if self.nulls.any() {
                    for (i, (h, &x)) in acc.iter_mut().zip(a).enumerate() {
                        let c = if self.nulls.get(i) {
                            NULL_HASH
                        } else {
                            hash_int(x)
                        };
                        *h = combine_hash(*h, c);
                    }
                } else {
                    for (h, &x) in acc.iter_mut().zip(a) {
                        *h = combine_hash(*h, hash_int(x));
                    }
                }
            }
            ColumnData::Float(a) => {
                if self.nulls.any() {
                    for (i, (h, &x)) in acc.iter_mut().zip(a).enumerate() {
                        let c = if self.nulls.get(i) {
                            NULL_HASH
                        } else {
                            hash_float(x)
                        };
                        *h = combine_hash(*h, c);
                    }
                } else {
                    for (h, &x) in acc.iter_mut().zip(a) {
                        *h = combine_hash(*h, hash_float(x));
                    }
                }
            }
            ColumnData::Date(a) => {
                if self.nulls.any() {
                    for (i, (h, &x)) in acc.iter_mut().zip(a).enumerate() {
                        let c = if self.nulls.get(i) {
                            NULL_HASH
                        } else {
                            hash_date(x)
                        };
                        *h = combine_hash(*h, c);
                    }
                } else {
                    for (h, &x) in acc.iter_mut().zip(a) {
                        *h = combine_hash(*h, hash_date(x));
                    }
                }
            }
            ColumnData::Str(a) => {
                for (h, &c) in acc.iter_mut().zip(a) {
                    let ch = if c == NULL_CODE {
                        NULL_HASH
                    } else {
                        hash_str_content(reader.hash_of(c))
                    };
                    *h = combine_hash(*h, ch);
                }
            }
            ColumnData::Mixed(a) => {
                for (h, v) in acc.iter_mut().zip(a) {
                    *h = combine_hash(*h, hash_value_cell(v));
                }
            }
        }
    }

    /// [`Column::write_hashes`] over the rows `rows` only: folds the hash
    /// of cell `rows[k]` into `acc[k]`.
    pub fn write_hashes_at(&self, rows: &[u32], acc: &mut [u64], reader: &DictReader) {
        for (h, &i) in acc.iter_mut().zip(rows) {
            *h = combine_hash(*h, self.hash_at(i as usize, reader));
        }
    }

    /// True if cell `i` equals cell `j` of `other`, with `Value`
    /// semantics: `Null == Null`, types strict (`Int(1) != Float(1.0)`),
    /// NaNs equal. Total across variant combinations.
    pub fn eq_at(&self, i: usize, other: &Column, j: usize, reader: &DictReader) -> bool {
        let a_null = self.is_null(i);
        let b_null = other.is_null(j);
        if a_null || b_null {
            return a_null && b_null;
        }
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i] == b[j],
            (ColumnData::Float(a), ColumnData::Float(b)) => {
                norm_f64(a[i]).total_cmp(&norm_f64(b[j])) == Ordering::Equal
            }
            (ColumnData::Date(a), ColumnData::Date(b)) => a[i] == b[j],
            // One global dictionary: equal content iff equal code.
            (ColumnData::Str(a), ColumnData::Str(b)) => a[i] == b[j],
            (ColumnData::Mixed(a), ColumnData::Mixed(b)) => a[i] == b[j],
            (ColumnData::Mixed(a), _) => other.eq_value(j, &a[i], reader),
            (_, ColumnData::Mixed(b)) => self.eq_value(i, &b[j], reader),
            _ => false,
        }
    }

    /// True if cell `i` equals the boxed value `v` (`Value` semantics).
    pub fn eq_value(&self, i: usize, v: &Value, reader: &DictReader) -> bool {
        if self.is_null(i) {
            return v.is_null();
        }
        match (&self.data, v) {
            (ColumnData::Int(a), Value::Int(x)) => a[i] == *x,
            (ColumnData::Float(a), Value::Float(x)) => {
                norm_f64(a[i]).total_cmp(&norm_f64(*x)) == Ordering::Equal
            }
            (ColumnData::Date(a), Value::Date(x)) => a[i] == *x,
            (ColumnData::Str(a), Value::Str(s)) => reader.str_of(a[i]) == &**s,
            (ColumnData::Mixed(a), v) => &a[i] == v,
            _ => false,
        }
    }

    /// SQL comparison of cell `i` against constant `v` (the scan filter
    /// path): numerics compare numerically, NULL or incompatible types
    /// yield `None` — exactly [`Value::sql_cmp`].
    pub fn cmp_value(&self, i: usize, v: &Value, reader: &DictReader) -> Option<Ordering> {
        if self.is_null(i) || v.is_null() {
            return None;
        }
        match (&self.data, v) {
            (ColumnData::Int(a), Value::Int(x)) => Some(a[i].cmp(x)),
            (ColumnData::Int(a), Value::Float(x)) => Some((a[i] as f64).total_cmp(x)),
            (ColumnData::Float(a), Value::Int(x)) => Some(a[i].total_cmp(&(*x as f64))),
            (ColumnData::Float(a), Value::Float(x)) => Some(a[i].total_cmp(x)),
            (ColumnData::Date(a), Value::Date(x)) => Some(a[i].cmp(x)),
            (ColumnData::Str(a), Value::Str(s)) => Some(reader.str_of(a[i]).cmp(&**s)),
            (ColumnData::Mixed(a), v) => a[i].sql_cmp(v),
            _ => None,
        }
    }

    /// The predicate kernel of the scan: the rows among `sel` (every row
    /// when `None`) whose cell satisfies `cell op v`, ascending. Row by
    /// row this is exactly `cmp_matches(op, self.cmp_value(i, v, reader))`
    /// — NULL and incomparable types never match — but the constant is
    /// resolved once per column and the loop runs over the typed slice:
    /// string `=`/`<>` compare dictionary codes, and the null mask is
    /// consulted only when the column holds a NULL.
    pub fn select(
        &self,
        op: CmpOp,
        v: &Value,
        sel: Option<Vec<u32>>,
        reader: &DictReader,
    ) -> Vec<u32> {
        match (&self.data, v) {
            (ColumnData::Int(a), Value::Int(c)) => {
                select_ord(a, &self.nulls, sel, op, |x: i64| x.cmp(c))
            }
            (ColumnData::Int(a), Value::Float(c)) => {
                select_ord(a, &self.nulls, sel, op, |x: i64| (x as f64).total_cmp(c))
            }
            (ColumnData::Float(a), Value::Int(c)) => {
                let c = *c as f64;
                select_ord(a, &self.nulls, sel, op, |x: f64| x.total_cmp(&c))
            }
            (ColumnData::Float(a), Value::Float(c)) => {
                select_ord(a, &self.nulls, sel, op, |x: f64| x.total_cmp(c))
            }
            (ColumnData::Date(a), Value::Date(c)) => {
                select_ord(a, &self.nulls, sel, op, |x: i32| x.cmp(c))
            }
            (ColumnData::Str(a), Value::Str(s)) => match (op, reader.code_of(s)) {
                // One global dictionary: equal content iff equal code, and
                // no cell can hold a string that was never interned.
                (CmpOp::Eq, Some(c)) => refine(a.len(), sel, |i| a[i] == c),
                (CmpOp::Eq, None) => Vec::new(),
                (CmpOp::Ne, Some(c)) => refine(a.len(), sel, |i| a[i] != c && a[i] != NULL_CODE),
                (CmpOp::Ne, None) => refine(a.len(), sel, |i| a[i] != NULL_CODE),
                _ => refine(a.len(), sel, |i| {
                    a[i] != NULL_CODE && cmp_matches(op, Some(reader.str_of(a[i]).cmp(s)))
                }),
            },
            (ColumnData::Mixed(a), v) => refine(a.len(), sel, |i| cmp_matches(op, a[i].sql_cmp(v))),
            _ => Vec::new(),
        }
    }

    /// The within-tuple equality kernel (`r(X, X)`): the rows among `sel`
    /// (every row when `None`) where this column's cell equals `other`'s,
    /// with [`Column::eq_at`] semantics.
    pub fn select_eq(
        &self,
        other: &Column,
        sel: Option<Vec<u32>>,
        reader: &DictReader,
    ) -> Vec<u32> {
        refine(self.len(), sel, |i| self.eq_at(i, other, i, reader))
    }

    /// Gathers `idx` into a new column of the same variant — the columnar
    /// join's output constructor (one `memcpy`-like pass per column
    /// instead of per-row cell clones).
    pub fn gather(&self, idx: &[u32]) -> Column {
        match &self.data {
            ColumnData::Int(a) => {
                let data: Vec<i64> = idx.iter().map(|&i| a[i as usize]).collect();
                let mut nulls = NullMask::default();
                if self.nulls.any() {
                    for (out, &i) in idx.iter().enumerate() {
                        if self.nulls.get(i as usize) {
                            nulls.set_null(out);
                        }
                    }
                }
                Column {
                    data: ColumnData::Int(data),
                    nulls,
                }
            }
            ColumnData::Float(a) => {
                let data: Vec<f64> = idx.iter().map(|&i| a[i as usize]).collect();
                let mut nulls = NullMask::default();
                if self.nulls.any() {
                    for (out, &i) in idx.iter().enumerate() {
                        if self.nulls.get(i as usize) {
                            nulls.set_null(out);
                        }
                    }
                }
                Column {
                    data: ColumnData::Float(data),
                    nulls,
                }
            }
            ColumnData::Date(a) => {
                let data: Vec<i32> = idx.iter().map(|&i| a[i as usize]).collect();
                let mut nulls = NullMask::default();
                if self.nulls.any() {
                    for (out, &i) in idx.iter().enumerate() {
                        if self.nulls.get(i as usize) {
                            nulls.set_null(out);
                        }
                    }
                }
                Column {
                    data: ColumnData::Date(data),
                    nulls,
                }
            }
            ColumnData::Str(a) => Column {
                data: ColumnData::Str(idx.iter().map(|&i| a[i as usize]).collect()),
                nulls: NullMask::default(),
            },
            ColumnData::Mixed(a) => Column {
                data: ColumnData::Mixed(idx.iter().map(|&i| a[i as usize].clone()).collect()),
                nulls: NullMask::default(),
            },
        }
    }

    /// Appends all cells of `other` (same variant; partition-merge path).
    pub fn extend_from(&mut self, other: &Column) {
        let off = self.len();
        match (&mut self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend_from_slice(b),
            (ColumnData::Date(a), ColumnData::Date(b)) => a.extend_from_slice(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.extend_from_slice(b),
            (ColumnData::Mixed(a), ColumnData::Mixed(b)) => a.extend(b.iter().cloned()),
            _ => panic!("column variant mismatch in extend_from"),
        }
        if other.nulls.any() {
            for j in 0..other.len() {
                if other.nulls.get(j) {
                    self.nulls.set_null(off + j);
                }
            }
        }
    }

    /// Heap bytes of the payload vector (used by size accounting).
    pub fn payload_bytes(&self) -> usize {
        match &self.data {
            ColumnData::Int(a) => a.len() * std::mem::size_of::<i64>(),
            ColumnData::Float(a) => a.len() * std::mem::size_of::<f64>(),
            ColumnData::Date(a) => a.len() * std::mem::size_of::<i32>(),
            ColumnData::Str(a) => a.len() * std::mem::size_of::<u32>(),
            ColumnData::Mixed(a) => a.len() * std::mem::size_of::<Value>(),
        }
    }
}

/// Keeps the candidate rows that satisfy `keep`: the first predicate of a
/// scan (`sel` is `None`) writes the selection vector for rows `0..n`
/// without a branch per row, later ones shrink it in place.
fn refine(n: usize, sel: Option<Vec<u32>>, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    match sel {
        None => {
            let mut out = vec![0u32; n];
            let mut k = 0;
            for i in 0..n {
                out[k] = i as u32;
                k += keep(i) as usize;
            }
            out.truncate(k);
            out
        }
        Some(mut sel) => {
            sel.retain(|&i| keep(i as usize));
            sel
        }
    }
}

/// [`refine`] over a typed slice; the null mask is read only when the
/// column holds a NULL.
fn select_typed<T: Copy>(
    a: &[T],
    nulls: &NullMask,
    sel: Option<Vec<u32>>,
    pred: impl Fn(T) -> bool,
) -> Vec<u32> {
    if nulls.any() {
        refine(a.len(), sel, |i| !nulls.get(i) && pred(a[i]))
    } else {
        refine(a.len(), sel, |i| pred(a[i]))
    }
}

/// [`select_typed`] with `op` resolved to one comparison outside the loop
/// (the same table as [`cmp_matches`]).
fn select_ord<T: Copy>(
    a: &[T],
    nulls: &NullMask,
    sel: Option<Vec<u32>>,
    op: CmpOp,
    cmp: impl Fn(T) -> Ordering,
) -> Vec<u32> {
    use Ordering::*;
    match op {
        CmpOp::Eq => select_typed(a, nulls, sel, |x| cmp(x) == Equal),
        CmpOp::Ne => select_typed(a, nulls, sel, |x| cmp(x) != Equal),
        CmpOp::Lt => select_typed(a, nulls, sel, |x| cmp(x) == Less),
        CmpOp::Le => select_typed(a, nulls, sel, |x| cmp(x) != Greater),
        CmpOp::Gt => select_typed(a, nulls, sel, |x| cmp(x) == Greater),
        CmpOp::Ge => select_typed(a, nulls, sel, |x| cmp(x) != Less),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col_of(ty: ColumnType, vals: &[Value]) -> Column {
        let mut c = Column::new(ty);
        for v in vals {
            c.push_value(v);
        }
        c
    }

    fn mixed_of(vals: &[Value]) -> Column {
        let mut c = Column::mixed_with_capacity(vals.len());
        for v in vals {
            c.push_value(v);
        }
        c
    }

    #[test]
    fn roundtrip_with_nulls() {
        let vals = [Value::Int(3), Value::Null, Value::Int(-7)];
        let c = col_of(ColumnType::Int, &vals);
        assert_eq!(c.len(), 3);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&c.value(i), v);
            assert_eq!(c.is_null(i), v.is_null());
        }
    }

    #[test]
    fn str_roundtrip_interns_content() {
        let vals = [Value::str("aa"), Value::Null, Value::str("aa")];
        let c = col_of(ColumnType::Str, &vals);
        assert_eq!(c.value(0), Value::str("aa"));
        assert_eq!(c.value(1), Value::Null);
        let ColumnData::Str(codes) = c.data() else {
            panic!("variant")
        };
        assert_eq!(codes[0], codes[2]);
        assert_eq!(codes[1], NULL_CODE);
    }

    #[test]
    fn cross_variant_eq_and_hash_agree() {
        let typed = col_of(
            ColumnType::Float,
            &[Value::Float(0.0), Value::Float(f64::NAN), Value::Null],
        );
        let mixed = mixed_of(&[Value::Float(-0.0), Value::Float(f64::NAN), Value::Null]);
        let r = dict::reader();
        for i in 0..3 {
            assert!(typed.eq_at(i, &mixed, i, &r), "cell {i}");
            assert_eq!(typed.hash_at(i, &r), mixed.hash_at(i, &r), "cell {i}");
        }
        // Type-strict: Int(1) != Float(1.0), and hashes are free to differ.
        let ints = col_of(ColumnType::Int, &[Value::Int(1)]);
        let floats = mixed_of(&[Value::Float(1.0)]);
        assert!(!ints.eq_at(0, &floats, 0, &r));
    }

    #[test]
    fn str_hash_is_content_based_across_variants() {
        let typed = col_of(ColumnType::Str, &[Value::str("hello-col")]);
        let mixed = mixed_of(&[Value::str("hello-col")]);
        let r = dict::reader();
        assert!(typed.eq_at(0, &mixed, 0, &r));
        assert_eq!(typed.hash_at(0, &r), mixed.hash_at(0, &r));
    }

    #[test]
    fn write_hashes_matches_hash_at_fold() {
        let c = col_of(
            ColumnType::Int,
            &[Value::Int(1), Value::Null, Value::Int(99)],
        );
        let r = dict::reader();
        let mut acc = vec![0u64; 3];
        c.write_hashes(&mut acc, &r);
        for (i, &h) in acc.iter().enumerate() {
            assert_eq!(h, combine_hash(0, c.hash_at(i, &r)));
        }
    }

    #[test]
    fn gather_and_extend() {
        let c = col_of(
            ColumnType::Int,
            &[Value::Int(10), Value::Null, Value::Int(30)],
        );
        let g = c.gather(&[2, 0, 1, 1]);
        assert_eq!(g.value(0), Value::Int(30));
        assert_eq!(g.value(1), Value::Int(10));
        assert_eq!(g.value(2), Value::Null);
        assert_eq!(g.value(3), Value::Null);
        let mut d = c.empty_like(0);
        d.extend_from(&c);
        d.extend_from(&g);
        assert_eq!(d.len(), 7);
        assert_eq!(d.value(3), Value::Int(30));
        assert_eq!(d.value(6), Value::Null);
    }

    #[test]
    fn truncate_forgets_cells_and_their_null_bits() {
        let mut c = Column::new(ColumnType::Int);
        for i in 0..130 {
            if i % 64 == 1 {
                c.push_null();
            } else {
                assert!(c.push_int(i));
            }
        }
        assert!(!c.push_str("no"), "typed push checks the variant");
        c.truncate(66);
        assert_eq!(c.len(), 66);
        assert!(c.is_null(1) && c.is_null(65) && !c.is_null(64));
        // Pushing past the cut must not resurrect the NULL at 129.
        for i in 66..130 {
            assert!(c.push_int(i));
        }
        assert!(!c.is_null(129));
        c.truncate(1);
        assert!(!c.nulls().any(), "no NULL left, no mask left");
        c.truncate(5);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cmp_value_is_sql_cmp() {
        let c = col_of(ColumnType::Int, &[Value::Int(2), Value::Null]);
        // Intern before taking the reader: building a string column under a
        // held `DictReader` would upgrade read → write on the same thread
        // and deadlock.
        let s = col_of(ColumnType::Str, &[Value::str("mm")]);
        let r = dict::reader();
        assert_eq!(c.cmp_value(0, &Value::Float(2.5), &r), Some(Ordering::Less));
        assert_eq!(c.cmp_value(0, &Value::str("x"), &r), None);
        assert_eq!(c.cmp_value(1, &Value::Int(0), &r), None);
        assert_eq!(s.cmp_value(0, &Value::str("zz"), &r), Some(Ordering::Less));
    }
}
