//! Fast, allocation-free hashing for join keys.
//!
//! The join kernels key their tables by a 64-bit hash of the shared
//! columns, computed **in place** over the row — no per-row `Box<[Value]>`
//! key materialization (the seed implementation allocated one boxed key
//! per build *and* probe row). Collisions are resolved by verifying the
//! actual column values, so the hash only has to be fast, not perfect.
//!
//! [`FxHasher`] is the well-known multiply-xor hash used by rustc
//! (`rustc-hash`); the implementation lives in [`htqo_hypergraph::fxhash`]
//! (the bottom of the crate stack) so the decomposition search can intern
//! bitsets through the same hasher, and is re-exported here for the join
//! kernels.

use crate::value::Row;
use std::hash::{Hash, Hasher};

pub use htqo_hypergraph::fxhash::{fx_hash_one, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};

/// Hashes the key columns `idx` of `row` in place (no allocation).
///
/// Consistent with `Value`'s `Hash`/`Eq`: NaNs are normalized and `-0.0`
/// hashes like `0.0`, so any two rows with `Eq`-equal key columns hash
/// equal.
#[inline]
pub fn hash_key(row: &Row, idx: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &i in idx {
        row[i].hash(&mut h);
    }
    // Finalize: spread entropy into the high bits (used for partitioning).
    let x = h.finish();
    let x = (x ^ (x >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 32)
}

/// True if the key columns of `a` (at `a_idx`) equal those of `b` (at
/// `b_idx`), positionally.
#[inline]
pub fn keys_eq(a: &Row, a_idx: &[usize], b: &Row, b_idx: &[usize]) -> bool {
    debug_assert_eq!(a_idx.len(), b_idx.len());
    a_idx.iter().zip(b_idx).all(|(&i, &j)| a[i] == b[j])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::sync::Arc;

    fn row(vals: &[Value]) -> Row {
        vals.to_vec().into_boxed_slice()
    }

    #[test]
    fn equal_keys_hash_equal() {
        let a = row(&[Value::Int(1), Value::Float(0.0), Value::str("abc")]);
        let b = row(&[Value::str("abc"), Value::Float(-0.0), Value::Int(1)]);
        // a[(0,1,2)] vs b[(2,1,0)] are the same key.
        assert_eq!(hash_key(&a, &[0, 1, 2]), hash_key(&b, &[2, 1, 0]));
        assert!(keys_eq(&a, &[0, 1, 2], &b, &[2, 1, 0]));
        assert_eq!(
            hash_key(&row(&[Value::Float(f64::NAN)]), &[0]),
            hash_key(&row(&[Value::Float(f64::NAN)]), &[0]),
        );
    }

    #[test]
    fn different_keys_usually_differ() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000i64 {
            seen.insert(hash_key(&row(&[Value::Int(i)]), &[0]));
        }
        // A 64-bit hash over 10k distinct ints should be collision-free.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn str_hash_is_content_based() {
        let a = row(&[Value::Str(Arc::from("hello"))]);
        let b = row(&[Value::Str(Arc::from("hello"))]);
        assert_eq!(hash_key(&a, &[0]), hash_key(&b, &[0]));
    }

    #[test]
    fn empty_key_is_constant() {
        let a = row(&[Value::Int(1)]);
        let b = row(&[Value::Int(2)]);
        assert_eq!(hash_key(&a, &[]), hash_key(&b, &[]));
        assert!(keys_eq(&a, &[], &b, &[]));
    }
}
