//! Execution options of the evaluators ([`ExecOptions`]) and the one
//! process-wide default behind them: the memory limit, resolved as
//! [`set_mem_limit_default`] > `HTQO_MEM_LIMIT` > unlimited. Whether an
//! aggregate runs on a factorized cover and whether a vertex join seeks an
//! index are decided from the query and the data, not by an option.
//!
//! A query runs on the thread that asked for it; there is no intra-query
//! worker pool (DESIGN.md §3.6 records the measurement that retired it).
//! Concurrency is between queries: each session of `htqo-service` runs on
//! its caller's thread. The three thread-named functions below remain only
//! because the `e2e/` benchmark calls them and a library PR may not edit
//! it; a `[benchmark]` follow-up drops the calls and then the functions.

use std::sync::atomic::{AtomicU64, Ordering};
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
    n.checked_mul(1 << shift)
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
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mem_limit: mem_limit_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_counts_past_u64_are_refused_not_wrapped() {
        assert_eq!(parse_bytes("17179869183G"), Some(17179869183 << 30));
        assert_eq!(parse_bytes("17179869184G"), None);
        assert_eq!(parse_bytes("17179869185G"), None);
    }
}
