//! Runtime values. The engine is dynamically typed at the cell level: a
//! small enum with total ordering and hashing so any value can participate
//! in hash joins, grouping and sorting.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single cell value.
///
/// `Float` carries a total order (IEEE `total_cmp`) and normalizes NaN for
/// hashing, so `Value` can be used as a hash-join or group-by key without
/// caveats. `Null` compares equal to itself and sorts first; SQL
/// three-valued logic is not modelled (the paper's queries never need it),
/// but comparisons against `Null` simply fail predicates.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float (totally ordered; NaN normalized).
    Float(f64),
    /// Interned string (cheap to clone).
    Str(Arc<str>),
    /// Date as days since 1970-01-01.
    Date(i32),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// Type tag used in ordering across types and in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Date(_) => "date",
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Date(_) => 4,
        }
    }

    /// Numeric view (ints widen to float), if the value is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL-style comparison: `Int` and `Float` compare numerically;
    /// comparing `Null` or incompatible types yields `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Some(x.total_cmp(&y)),
                _ => None,
            },
        }
    }
}

/// Normalizes a float so that all NaNs coincide and `-0.0 == 0.0`, keeping
/// `Eq`, `Ord` and `Hash` mutually consistent (also used by the columnar
/// cell hashes in `column` and by ANALYZE's typed float sort).
pub fn norm_f64(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else if x == 0.0 {
        0.0
    } else {
        x
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => {
                norm_f64(*a).total_cmp(&norm_f64(*b)) == Ordering::Equal
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(x) => {
                // Normalize NaNs and -0.0 so equal-by-total_cmp hashes equal.
                norm_f64(*x).to_bits().hash(state);
            }
            Value::Str(s) => s.hash(state),
            Value::Date(d) => d.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: by type rank, then by value (used for deterministic
    /// sorting of heterogeneous data; SQL comparisons use
    /// [`Value::sql_cmp`]).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => norm_f64(*a).total_cmp(&norm_f64(*b)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            // Mixed numerics compare numerically for stable sorts.
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(&norm_f64(*b)),
            (Value::Float(a), Value::Int(b)) => norm_f64(*a).total_cmp(&(*b as f64)),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Value {
    /// Breaks the ties of [`Value::cmp`]: by type rank, then a float by
    /// its bits. Two values equal in both orders are identical — `Int(0)`
    /// and `Float(0.0)`, `-0.0` and `0.0`, NaNs of another sign or payload
    /// are equal in [`Value::cmp`] but not here.
    pub fn cmp_identity(&self, other: &Self) -> Ordering {
        let bits = |v: &Value| match v {
            Value::Float(x) => x.to_bits(),
            _ => 0,
        };
        (self.type_rank().cmp(&other.type_rank())).then_with(|| bits(self).cmp(&bits(other)))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => f.write_str(&htqo_cq::date::format_date(*d)),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<&htqo_cq::Literal> for Value {
    fn from(l: &htqo_cq::Literal) -> Self {
        match l {
            htqo_cq::Literal::Int(i) => Value::Int(*i),
            htqo_cq::Literal::Float(x) => Value::Float(*x),
            htqo_cq::Literal::Str(s) => Value::str(s),
            htqo_cq::Literal::Date(d) => Value::Date(*d),
        }
    }
}

/// A tuple of values. Boxed slice keeps rows at two words.
pub type Row = Box<[Value]>;

/// Approximate heap bytes of one materialized [`Row`] of `width` values:
/// the boxed slice itself plus a small allocator-header allowance. String
/// payloads are shared `Arc<str>` interned at ingest, so per-row charges
/// deliberately exclude them — ingest charges them once.
pub(crate) fn row_heap_bytes(width: usize) -> u64 {
    (width * std::mem::size_of::<Value>() + 16) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn equality_and_hashing_for_floats() {
        let mut m: HashMap<Value, i32> = HashMap::new();
        m.insert(Value::Float(0.0), 1);
        assert_eq!(m.get(&Value::Float(-0.0)), Some(&1));
        m.insert(Value::Float(f64::NAN), 2);
        assert_eq!(m.get(&Value::Float(f64::NAN)), Some(&2));
    }

    #[test]
    fn sql_cmp_mixed_numerics() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::Date(5).sql_cmp(&Value::Date(4)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn total_order_is_deterministic() {
        let mut vals = [
            Value::str("b"),
            Value::Int(3),
            Value::Null,
            Value::Float(1.5),
            Value::Date(10),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        // Mixed numerics compare numerically: 1.5 < 3.
        assert_eq!(vals[1], Value::Float(1.5));
        assert_eq!(vals[2], Value::Int(3));
    }

    #[test]
    fn literal_conversion() {
        let v: Value = (&htqo_cq::Literal::Str("x".into())).into();
        assert_eq!(v, Value::str("x"));
        let d: Value = (&htqo_cq::Literal::Date(100)).into();
        assert_eq!(d, Value::Date(100));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(0).to_string(), "1970-01-01");
    }
}
