//! Fast, allocation-free hashing for join keys.
//!
//! [`FxHasher`] is the well-known multiply-xor hash used by rustc
//! (`rustc-hash`); the implementation lives in [`htqo_hypergraph::fxhash`]
//! (the bottom of the crate stack) so the decomposition search can intern
//! bitsets through the same hasher, and is re-exported here for the
//! kernels. The columnar kernels hash key columns a column at a time
//! ([`crate::column::Column::write_hashes`]).

pub use htqo_hypergraph::fxhash::{fx_hash_one, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
