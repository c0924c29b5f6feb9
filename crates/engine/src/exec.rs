//! Minimal parallel runtime for the execution layer.
//!
//! The environment has no registry access, so instead of `rayon` this
//! module provides the two primitives the evaluators need — an indexed
//! [`parallel_map`] and a two-way [`join2`] — on top of
//! `std::thread::scope`. A global permit pool bounds the number of live
//! worker threads across *nested* parallel sections, so recursive
//! tree-parallel evaluation cannot oversubscribe the machine.
//!
//! # Panic containment
//!
//! A panic inside a mapped closure must not abort the process or leak
//! worker permits: both primitives run user closures under
//! `catch_unwind`, guarantee permit return via a drop guard, and surface
//! the first panic as [`EvalError::WorkerPanicked`]. Remaining items are
//! abandoned (the map is all-or-nothing), and since shared [`Budget`]
//! handles flush on drop, budget accounting stays exact across a
//! contained panic. The hybrid optimizer's fallback ladder relies on
//! this: a panicking plan degrades to the next rung instead of taking the
//! process down.
//!
//! [`Budget`]: crate::error::Budget
//!
//! Thread count resolution order: explicit `workers` argument >
//! [`set_threads`] > `HTQO_THREADS` env var > `available_parallelism()`.
//! Requests from [`set_threads`] and the env var are clamped to the
//! machine's [`hardware_threads`] — oversubscribing a small host only adds
//! scheduling overhead (a 4-thread pool on a 1-CPU box measurably slows
//! the bushy workload). Tests that deliberately oversubscribe to exercise
//! the parallel schedule use [`set_threads_exact`].

use crate::error::EvalError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// The thread count most recently *asked for* (before clamping); `0` =
/// no explicit request yet. Reported in `QueryOutcome` so a clamped
/// `--threads` is visible rather than silent.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// Worker permits beyond the calling thread. `-1` = uninitialized.
static PERMITS: AtomicIsize = AtomicIsize::new(-1);

/// The machine's available parallelism (cached; at least 1).
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// `(requested, effective)` default thread counts from the environment.
fn default_threads_pair() -> (usize, usize) {
    static DEFAULT: OnceLock<(usize, usize)> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let requested = std::env::var("HTQO_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(hardware_threads);
        (requested, requested.min(hardware_threads()))
    })
}

fn default_threads() -> usize {
    default_threads_pair().1
}

/// The execution-layer thread count currently in effect.
pub fn num_threads() -> usize {
    match CONFIGURED.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// The thread count currently *requested* (via [`set_threads`],
/// [`set_threads_exact`] or `HTQO_THREADS`), before the hardware clamp.
/// Equals [`num_threads`] unless the request was clamped.
pub fn requested_threads() -> usize {
    match REQUESTED.load(Ordering::Relaxed) {
        0 => default_threads_pair().0,
        n => n,
    }
}

/// Overrides the thread count process-wide (the `--threads` knob of the
/// figure harnesses). `1` disables parallel execution entirely. The
/// request is clamped to [`hardware_threads`]: extra workers on an
/// already-saturated host only add scheduling overhead. The pre-clamp
/// request stays visible through [`requested_threads`].
pub fn set_threads(n: usize) {
    REQUESTED.store(n.max(1), Ordering::Relaxed);
    set_effective_threads(n.max(1).min(hardware_threads()));
}

/// Like [`set_threads`], but without the hardware clamp — for tests that
/// need a parallel schedule to exist even on a single-core host (panic
/// containment, determinism-across-interleavings suites).
pub fn set_threads_exact(n: usize) {
    REQUESTED.store(n.max(1), Ordering::Relaxed);
    set_effective_threads(n.max(1));
}

fn set_effective_threads(n: usize) {
    CONFIGURED.store(n, Ordering::Relaxed);
    // Re-arm the permit pool for the new width.
    PERMITS.store(n as isize - 1, Ordering::Relaxed);
}

/// Worker permits currently available beyond the calling thread. Equals
/// `num_threads() - 1` whenever no parallel section is in flight — the
/// invariant the chaos suite asserts after every injected fault to prove
/// the pool never leaks.
pub fn permits_available() -> isize {
    match PERMITS.load(Ordering::Relaxed) {
        -1 => num_threads() as isize - 1, // pool not yet armed
        n => n,
    }
}

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

/// Execution-schedule knobs for the evaluators
/// (`evaluate_qhd_with` and friends in the downstream crates).
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Upper bound on worker threads for this evaluation. `1` forces a
    /// fully sequential schedule (the seed behavior); the default is the
    /// process-wide [`num_threads`].
    pub threads: usize,
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
            threads: num_threads(),
            mem_limit: mem_limit_default(),
            factorized: factorized_default(),
            index_join: index_join_default(),
        }
    }
}

/// Claims up to `want` worker permits from the global pool.
fn acquire_permits(want: usize) -> usize {
    if want == 0 {
        return 0;
    }
    let _ = PERMITS.compare_exchange(
        -1,
        num_threads() as isize - 1,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    let mut got = 0;
    while got < want {
        let cur = PERMITS.load(Ordering::Relaxed);
        if cur <= 0 {
            break;
        }
        let take = (cur as usize).min(want - got);
        if PERMITS
            .compare_exchange(
                cur,
                cur - take as isize,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            got += take;
        }
    }
    got
}

fn release_permits(n: usize) {
    if n > 0 {
        PERMITS.fetch_add(n as isize, Ordering::Relaxed);
    }
}

/// Returns permits on drop, so a panic unwinding through a parallel
/// section can never leak them.
struct PermitGuard(usize);

impl Drop for PermitGuard {
    fn drop(&mut self) {
        release_permits(self.0);
    }
}

/// Renders a `catch_unwind` payload for [`EvalError::WorkerPanicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every item, in parallel when worker permits are
/// available, and returns the results **in input order**. Falls back to a
/// plain sequential map when `workers <= 1`, for a single item, or when
/// the permit pool is exhausted (deep nesting).
///
/// A panic in `f` on any thread of the parallel schedule is contained:
/// remaining items are abandoned, permits are returned, and the call
/// yields `Err(EvalError::WorkerPanicked)` carrying the first panic's
/// payload. On the sequential fast path there is no worker thread to
/// contain, so a panic propagates to the caller as usual (the hybrid
/// optimizer adds its own `catch_unwind` around whole-plan execution).
///
/// `workers` is an upper bound on concurrency for this call;
/// [`num_threads`] is the usual argument.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Result<Vec<R>, EvalError>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 || workers <= 1 {
        return Ok(items.into_iter().map(f).collect());
    }
    let extra = acquire_permits(workers.min(n) - 1);
    if extra == 0 {
        return Ok(items.into_iter().map(f).collect());
    }
    let _guard = PermitGuard(extra);

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let panicked: Mutex<Option<String>> = Mutex::new(None);
    let worker = |out: &mut Vec<(usize, R)>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = slots[i].lock().unwrap().take().expect("claimed once");
        // The fail point runs inside the same catch_unwind as `f`, so an
        // injected `exec::worker` panic exercises the containment path.
        match catch_unwind(AssertUnwindSafe(|| {
            crate::fail_point_unit!("exec::worker");
            f(item)
        })) {
            Ok(r) => out.push((i, r)),
            Err(payload) => {
                let msg = panic_message(payload);
                let mut first = panicked.lock().unwrap_or_else(|p| p.into_inner());
                first.get_or_insert(msg);
                // Stop every worker from claiming further items.
                next.store(n, Ordering::Relaxed);
                break;
            }
        }
    };

    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..extra)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    worker(&mut out);
                    out
                })
            })
            .collect();
        // The calling thread works too.
        worker(&mut tagged);
        for h in handles {
            // Workers catch panics internally, so join always succeeds.
            tagged.extend(h.join().expect("worker loop contains panics"));
        }
    });

    if let Some(message) = panicked.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(EvalError::WorkerPanicked { message });
    }
    tagged.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(tagged.len(), n);
    Ok(tagged.into_iter().map(|(_, r)| r).collect())
}

/// Runs two closures, concurrently when a worker permit is available, and
/// returns both results. Panic containment mirrors [`parallel_map`]: on
/// the concurrent schedule a panic in either closure becomes
/// `Err(EvalError::WorkerPanicked)` (first panic wins) with the permit
/// returned; on the sequential fallback panics propagate.
pub fn join2<A, B, FA, FB>(workers: usize, fa: FA, fb: FB) -> Result<(A, B), EvalError>
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if workers <= 1 || acquire_permits(1) == 0 {
        return Ok((fa(), fb()));
    }
    let _guard = PermitGuard(1);
    let (ra, rb) = std::thread::scope(|s| {
        let hb = s.spawn(|| catch_unwind(AssertUnwindSafe(fb)));
        let ra = catch_unwind(AssertUnwindSafe(fa));
        (ra, hb.join().expect("worker catches panics"))
    });
    match (ra, rb) {
        (Ok(a), Ok(b)) => Ok((a, b)),
        (Err(p), _) | (_, Err(p)) => Err(EvalError::WorkerPanicked {
            message: panic_message(p),
        }),
    }
}

/// Splits `0..len` into at most `chunks` contiguous `(start, end)` ranges
/// of near-equal size (none empty).
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let rem = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < rem);
        out.push((start, start + size));
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let input: Vec<usize> = (0..1000).collect();
        let out = parallel_map(input.clone(), 8, |x| x * 2).unwrap();
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
        // Sequential fallback agrees.
        let out1 = parallel_map(input.clone(), 1, |x| x * 2).unwrap();
        assert_eq!(out, out1);
    }

    #[test]
    fn nested_parallel_maps_terminate() {
        let out = parallel_map((0..16).collect::<Vec<u64>>(), 4, |i| {
            parallel_map((0..16).collect::<Vec<u64>>(), 4, move |j| i * j)
                .unwrap()
                .into_iter()
                .sum::<u64>()
        })
        .unwrap();
        let expect: Vec<u64> = (0..16).map(|i| (0..16).map(|j| i * j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn join2_returns_both() {
        assert_eq!(join2(4, || 1, || "x").unwrap(), (1, "x"));
        assert_eq!(join2(1, || 2, || 3).unwrap(), (2, 3));
    }

    /// Serializes tests that swap the global panic hook.
    fn hook_lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn parallel_map_contains_worker_panics() {
        let _g = hook_lock();
        // Containment only exists on the parallel schedule; force a pool
        // wide enough to take it even on a single-core host.
        let threads_before = num_threads();
        set_threads_exact(4);
        let before = permits_available();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let out = parallel_map((0..64).collect::<Vec<u64>>(), 4, |i| {
            if i == 13 {
                panic!("boom at {i}");
            }
            i * 2
        });
        std::panic::set_hook(hook);
        match out {
            Err(EvalError::WorkerPanicked { message }) => assert!(message.contains("boom")),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(permits_available(), before, "permit pool leaked");
        set_threads(threads_before);
    }

    #[test]
    fn join2_contains_worker_panics() {
        let _g = hook_lock();
        let threads_before = num_threads();
        set_threads_exact(4);
        let before = permits_available();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = join2(4, || 1u64, || -> u64 { panic!("join2 side b") });
        std::panic::set_hook(hook);
        assert!(
            matches!(out, Err(EvalError::WorkerPanicked { ref message }) if message.contains("side b"))
        );
        assert_eq!(permits_available(), before, "permit pool leaked");
        set_threads(threads_before);
    }

    #[test]
    fn chunk_ranges_cover() {
        for len in [0usize, 1, 7, 64, 100] {
            for chunks in [1usize, 3, 8, 200] {
                let ranges = chunk_ranges(len, chunks);
                let total: usize = ranges.iter().map(|(a, b)| b - a).sum();
                assert_eq!(total, len);
                assert!(ranges.iter().all(|(a, b)| a < b));
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn threads_knob() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn set_threads_clamps_to_hardware_but_records_the_request() {
        let threads_before = num_threads();
        let requested_before = requested_threads();
        let huge = hardware_threads() * 64;
        set_threads(huge);
        assert_eq!(num_threads(), hardware_threads(), "request not clamped");
        assert_eq!(requested_threads(), huge, "pre-clamp request lost");
        // The exact variant bypasses the clamp (test-suite escape hatch).
        set_threads_exact(huge);
        assert_eq!(num_threads(), huge);
        set_threads_exact(threads_before);
        REQUESTED.store(requested_before, Ordering::Relaxed);
    }
}
