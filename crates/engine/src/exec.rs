//! Process-level helpers of the evaluators: the memory settings a binary
//! reads from its users ([`MemorySettings`], [`parse_bytes`]) and the
//! thread functions `e2e/` reads. The library reads no environment: a
//! query's memory limit and spill directory are set on its
//! [`crate::Budget`] ([`crate::Budget::with_mem_limit`],
//! [`crate::Budget::with_spill_dir`]); a binary reads `HTQO_MEM_LIMIT` and
//! `HTQO_SPILL_DIR` once, at start, and hands their raw values to
//! [`MemorySettings::parse`].
//!
//! A query runs on the thread that asked for it; there is no intra-query
//! worker pool (DESIGN.md §3.6 records the measurement that retired it).
//! Concurrency is between queries: each session of `htqo-service` runs on
//! its caller's thread. The three thread-named functions below remain only
//! because the `e2e/` benchmark calls them and a library PR may not edit
//! it; a `[benchmark]` follow-up drops the calls and then the functions.

use crate::Budget;
use std::ffi::OsStr;
use std::path::PathBuf;
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

/// Parses a byte count with an optional `K`/`M`/`G` suffix (case
/// insensitive, powers of 1024): `"512M"` → 536870912. Shared by the
/// binaries' `HTQO_MEM_LIMIT` and the harnesses' `--mem-limit` flag.
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

/// The memory settings of a binary's queries: a byte limit and the
/// directory spill partitions go under (`None`: unlimited, the system
/// temp dir).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemorySettings {
    /// The per-query byte limit.
    pub limit: Option<u64>,
    /// Where spill partitions are created.
    pub spill_dir: Option<PathBuf>,
}

impl MemorySettings {
    /// The settings from the raw values of `HTQO_MEM_LIMIT` (a
    /// [`parse_bytes`] count, 0 = unlimited) and `HTQO_SPILL_DIR` (empty =
    /// the system temp dir), `None` where unset. A limit that does not
    /// parse is an error naming the variable and the value.
    pub fn parse(limit: Option<&OsStr>, spill_dir: Option<&OsStr>) -> Result<Self, String> {
        let limit = match limit {
            None => None,
            Some(raw) => raw
                .to_str()
                .and_then(parse_bytes)
                .ok_or_else(|| {
                    let raw = raw.to_string_lossy();
                    format!("invalid value '{raw}' for HTQO_MEM_LIMIT")
                })
                .map(|n| (n > 0).then_some(n))?,
        };
        let spill_dir = spill_dir.filter(|d| !d.is_empty()).map(PathBuf::from);
        Ok(MemorySettings { limit, spill_dir })
    }

    /// A budget with no tuple or time limit carrying these settings.
    pub fn budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(n) = self.limit {
            budget = budget.with_mem_limit(n);
        }
        if let Some(dir) = &self.spill_dir {
            budget = budget.with_spill_dir(dir.clone());
        }
        budget
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

    #[test]
    fn memory_settings_parse_raw_values() {
        let parse = |l: Option<&str>, d: Option<&str>| {
            MemorySettings::parse(l.map(OsStr::new), d.map(OsStr::new))
        };
        assert_eq!(parse(None, None), Ok(MemorySettings::default()));
        assert_eq!(parse(Some("0"), Some("")), Ok(MemorySettings::default()));
        let s = parse(Some("2M"), Some("/spill")).unwrap();
        assert_eq!(s.limit, Some(2 << 20));
        assert_eq!(s.budget().mem_limit(), Some(2 << 20));
        assert_eq!(s.budget().spill_dir(), Some(std::path::Path::new("/spill")));
        let err = parse(Some("12Q"), None).unwrap_err();
        assert!(
            err.contains("HTQO_MEM_LIMIT") && err.contains("'12Q'"),
            "{err}"
        );
    }
}
