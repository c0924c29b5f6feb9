//! Process-wide defaults of the execution layer: the three
//! [`ExecOptions`] fields (memory limit, factorized results, index-seek
//! joins) and the plan-cache capacity, each resolved as explicit setter >
//! `HTQO_*` environment variable > compiled default.
//!
//! A query runs on the thread that asked for it; there is no intra-query
//! worker pool (DESIGN.md §3.6 records the measurement that retired it).
//! Concurrency is between queries: each session of `htqo-service` runs on
//! its caller's thread. The three thread-named functions below remain only
//! because the `e2e/` benchmark calls them and a library PR may not edit
//! it; a `[benchmark]` follow-up drops the calls and then the functions.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// The machine's available parallelism (cached; at least 1).
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Threads one query evaluation uses: always 1. Kept for `e2e/`, which
/// reports it; a `[benchmark]` follow-up drops that call and then this
/// function.
pub fn num_threads() -> usize {
    1
}

/// Does nothing: there is no intra-query thread count to set. Kept for
/// `e2e/`, which calls it once per run; a `[benchmark]` follow-up drops
/// that call and then this function.
pub fn set_threads(_n: usize) {}

/// Factorized-result default: `0` = unset (env var / on), `1` = off,
/// `2` = on.
static FACTORIZED: AtomicU8 = AtomicU8::new(0);

/// Whether eligible aggregate queries default to the factorized
/// (cover-based) evaluation path ([`crate::factorized`]) instead of
/// materializing the full join. Resolution order:
/// [`set_factorized_default`] > `HTQO_FACTORIZED` env var (`0`/`false`/
/// `off` turns it off) > on.
pub fn factorized_default() -> bool {
    match FACTORIZED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            static DEFAULT: OnceLock<bool> = OnceLock::new();
            *DEFAULT.get_or_init(|| {
                !matches!(
                    std::env::var("HTQO_FACTORIZED").as_deref(),
                    Ok("0") | Ok("false") | Ok("off")
                )
            })
        }
    }
}

/// Overrides the factorized-result default process-wide (the
/// `--factorized` / `--materialized` knob of the figure harnesses).
pub fn set_factorized_default(factorized: bool) {
    FACTORIZED.store(if factorized { 2 } else { 1 }, Ordering::Relaxed);
}

/// Process-wide memory-pool override: `0` = unset (env var), `u64::MAX`
/// = explicitly unlimited, anything else = the byte limit.
static MEM_LIMIT: AtomicU64 = AtomicU64::new(0);

/// Parses a byte count with an optional `K`/`M`/`G` suffix (case
/// insensitive, powers of 1024): `"512M"` → 536870912. Shared by the
/// `HTQO_MEM_LIMIT` env knob and the harnesses' `--mem-limit` flag.
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_shl(shift)
}

/// The process-wide memory limit in effect, if any. Resolution order:
/// [`set_mem_limit_default`] > `HTQO_MEM_LIMIT` env var (bytes, with
/// optional `K`/`M`/`G` suffix) > unlimited.
pub fn mem_limit_default() -> Option<u64> {
    match MEM_LIMIT.load(Ordering::Relaxed) {
        0 => {
            static DEFAULT: OnceLock<Option<u64>> = OnceLock::new();
            *DEFAULT.get_or_init(|| {
                std::env::var("HTQO_MEM_LIMIT")
                    .ok()
                    .and_then(|v| parse_bytes(&v))
                    .filter(|&n| n > 0)
            })
        }
        u64::MAX => None,
        n => Some(n),
    }
}

/// Overrides the memory limit process-wide (the `--mem-limit` knob of
/// the figure harnesses). `None` means explicitly unlimited.
pub fn set_mem_limit_default(limit: Option<u64>) {
    MEM_LIMIT.store(limit.unwrap_or(u64::MAX).max(1), Ordering::Relaxed);
}

/// Sentinel-packed plan-cache capacity: 0 = unset (fall through to the
/// env var / compiled default), otherwise `capacity + 1` so an explicit
/// capacity of 0 (caching disabled) is representable.
static PLAN_CACHE: AtomicU64 = AtomicU64::new(0);

/// Compiled-in default capacity of the optimizer's plan cache.
pub const PLAN_CACHE_DEFAULT: usize = 128;

/// The process-wide plan-cache capacity (entries). Resolution order:
/// [`set_plan_cache_default`] > `HTQO_PLAN_CACHE` env var >
/// [`PLAN_CACHE_DEFAULT`] (128). A capacity of 0 disables plan caching.
pub fn plan_cache_default() -> usize {
    match PLAN_CACHE.load(Ordering::Relaxed) {
        0 => {
            static DEFAULT: OnceLock<usize> = OnceLock::new();
            *DEFAULT.get_or_init(|| {
                std::env::var("HTQO_PLAN_CACHE")
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(PLAN_CACHE_DEFAULT)
            })
        }
        n => (n - 1) as usize,
    }
}

/// Overrides the plan-cache capacity process-wide. `0` disables caching.
/// Only optimizers constructed after the call observe the new value.
pub fn set_plan_cache_default(capacity: usize) {
    PLAN_CACHE.store(capacity as u64 + 1, Ordering::Relaxed);
}

/// Index-seek-join default: `0` = unset (env var / on), `1` = off,
/// `2` = on.
static INDEX_JOIN: AtomicU8 = AtomicU8::new(0);

/// Whether vertex joins may use index-nested-loop seeks
/// ([`crate::iseek`]) over registered secondary indexes instead of
/// ChainTable hash builds. Resolution order: [`set_index_join_default`] >
/// `HTQO_INDEX_JOIN` env var (`0`/`false`/`off` turns it off) > on.
/// Irrelevant (and free) when the catalog has no indexes.
pub fn index_join_default() -> bool {
    match INDEX_JOIN.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            static DEFAULT: OnceLock<bool> = OnceLock::new();
            *DEFAULT.get_or_init(|| {
                !matches!(
                    std::env::var("HTQO_INDEX_JOIN").as_deref(),
                    Ok("0") | Ok("false") | Ok("off")
                )
            })
        }
    }
}

/// Overrides the index-seek-join default process-wide.
pub fn set_index_join_default(on: bool) {
    INDEX_JOIN.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Execution options for the evaluators (`evaluate_qhd_with` and friends
/// in the downstream crates).
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Byte budget for this query's materialized state (hash tables,
    /// intermediate rows, aggregation state, dictionary growth). `None`
    /// = unlimited. When set, kernels that would exceed it spill to disk
    /// (see [`crate::spill`]) or fail with
    /// [`crate::EvalError::MemoryExceeded`]. The default is the
    /// process-wide [`mem_limit_default`] (`HTQO_MEM_LIMIT`).
    pub mem_limit: Option<u64>,
    /// Let eligible aggregate queries run on the factorized (cover-based)
    /// result representation ([`crate::factorized`]) instead of
    /// materializing the full join; ineligible queries fall back to full
    /// materialization either way. The default is the process-wide
    /// [`factorized_default`] (`HTQO_FACTORIZED`).
    pub factorized: bool,
    /// Let vertex joins pick index-nested-loop seeks over registered
    /// secondary indexes instead of hash builds where the accumulator is
    /// small relative to the indexed table. A no-op on catalogs without
    /// indexes. The default is the process-wide [`index_join_default`]
    /// (`HTQO_INDEX_JOIN`).
    pub index_join: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mem_limit: mem_limit_default(),
            factorized: factorized_default(),
            index_join: index_join_default(),
        }
    }
}
