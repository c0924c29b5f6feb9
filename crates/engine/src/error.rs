//! Evaluation errors and resource guards.
//!
//! The paper reports baseline executions that "do not terminate after more
//! than 10 minutes"; our harness reproduces those DNF data points with a
//! [`Budget`] that bounds wall-clock time and the number of materialized
//! intermediate tuples (a deterministic proxy for work). The budget also
//! carries the cooperative-cancellation token ([`CancelToken`]): any
//! in-flight evaluation can be aborted from another thread, observed at
//! the same polling points as the deadline.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced during query evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// The evaluation materialized more intermediate tuples than allowed.
    TupleBudgetExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// The evaluation ran past its deadline.
    Timeout {
        /// The configured limit.
        limit: Duration,
    },
    /// The evaluation was cancelled from another thread via its budget's
    /// [`CancelToken`]. Not a resource limit: a cancelled run is neither a
    /// DNF data point nor retried by the fallback ladder.
    Cancelled,
    /// A plan panicked while it ran. The panic was contained by the
    /// fallback ladder's per-rung `catch_unwind`; budget handles flush on
    /// drop, so the shared budget stayed consistent and the caller can
    /// retry (e.g. on a different plan) or report cleanly.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A referenced table does not exist.
    UnknownTable(String),
    /// A referenced column does not exist in its relation.
    UnknownColumn {
        /// Relation name.
        relation: String,
        /// Column name.
        column: String,
    },
    /// A referenced variable is missing from an intermediate relation.
    UnknownVariable(String),
    /// A byte reservation was denied by the memory governor and the
    /// operator could not (or was not allowed to) spill. A resource
    /// limit like [`EvalError::TupleBudgetExceeded`]; the hybrid
    /// optimizer's ladder retries the same rung with spill forced on
    /// before degrading the plan.
    MemoryExceeded {
        /// Bytes the denied reservation asked for (0 when the limit was
        /// observed at a merge point rather than a reservation site).
        requested: u64,
        /// Bytes already reserved by this query when the denial happened.
        reserved: u64,
        /// The configured per-query byte pool ([`Budget::with_mem_limit`]).
        pool: u64,
    },
    /// An I/O failure on a spill temp file (write, read, checksum
    /// mismatch, or cleanup). Retryable — a re-run may succeed, and the
    /// in-memory rungs below do not touch the disk — but not a resource
    /// limit.
    SpillIo(String),
    /// A persisted page failed its checksum on read: a torn write, a
    /// bit flip, or an overwritten extent. Retryable like
    /// [`EvalError::SpillIo`] (the in-memory rungs do not touch the
    /// disk, and crash recovery may restore the page from the WAL), but
    /// never silently accepted.
    CorruptPage {
        /// The page file holding the corrupt page.
        file: String,
        /// The page id whose checksum failed.
        pid: u64,
    },
    /// A valid update lengthened a row beyond what its heap page can
    /// hold. Rows are not relocated, so the storage layer refuses the
    /// whole mutation batch before logging anything. Final: nothing is
    /// corrupt, and retrying the same batch fails the same way.
    RowDoesNotFit {
        /// The table being mutated.
        table: String,
        /// The row whose update does not fit.
        rowid: u64,
        /// Encoded size of the updated row (`u32`s keep this variant from
        /// widening `EvalError`, the error type of every hot-path `Result`).
        row_bytes: u32,
        /// Bytes its page has left for that row.
        free_bytes: u32,
    },
    /// Anything else (plan inconsistencies, type errors in expressions).
    Internal(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::TupleBudgetExceeded { limit } => {
                write!(f, "tuple budget exceeded ({limit} tuples)")
            }
            EvalError::Timeout { limit } => write!(f, "timed out after {limit:?}"),
            EvalError::Cancelled => write!(f, "evaluation cancelled"),
            EvalError::WorkerPanicked { message } => {
                write!(f, "plan execution panicked: {message}")
            }
            EvalError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            EvalError::UnknownColumn { relation, column } => {
                write!(f, "unknown column `{column}` in relation `{relation}`")
            }
            EvalError::UnknownVariable(v) => write!(f, "unknown variable `{v}`"),
            EvalError::MemoryExceeded {
                requested,
                reserved,
                pool,
            } => write!(
                f,
                "memory budget exceeded (requested {requested} B with {reserved} B \
                 reserved of a {pool} B pool)"
            ),
            EvalError::SpillIo(m) => write!(f, "spill i/o error: {m}"),
            EvalError::CorruptPage { file, pid } => {
                write!(f, "corrupt page {pid} in {file} (checksum mismatch)")
            }
            EvalError::RowDoesNotFit {
                table,
                rowid,
                row_bytes,
                free_bytes,
            } => write!(
                f,
                "table {table}: updated row {rowid} needs {row_bytes} B but its page has \
                 {free_bytes} B free (rows are not relocated)"
            ),
            EvalError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl EvalError {
    /// True for resource-limit errors (`DNF` data points in the harness).
    pub fn is_resource_limit(&self) -> bool {
        matches!(
            self,
            EvalError::TupleBudgetExceeded { .. }
                | EvalError::Timeout { .. }
                | EvalError::MemoryExceeded { .. }
        )
    }

    /// True if this error came from a [`CancelToken`].
    pub fn is_cancelled(&self) -> bool {
        matches!(self, EvalError::Cancelled)
    }

    /// True for errors that a *different plan* (or a bigger budget) could
    /// plausibly avoid: resource limits, contained panics, and
    /// internal plan inconsistencies. Semantic errors (unknown
    /// table/column/variable, a row that does not fit its page) and
    /// cancellation are final — no fallback
    /// rung can answer them. This classification drives the hybrid
    /// optimizer's graceful-degradation ladder.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            EvalError::TupleBudgetExceeded { .. }
                | EvalError::Timeout { .. }
                | EvalError::WorkerPanicked { .. }
                | EvalError::MemoryExceeded { .. }
                | EvalError::SpillIo(_)
                | EvalError::CorruptPage { .. }
                | EvalError::Internal(_)
        )
    }
}

/// A shared cancellation flag: clone it, hand one copy to
/// [`Budget::with_cancel_token`], keep the other, and call
/// [`CancelToken::cancel`] from any thread to abort the evaluation. The
/// evaluation observes the flag at the budget's existing polling points
/// (`charge` every [`TIME_CHECK_INTERVAL`] tuples, `check_time` between
/// operators, `check_exceeded` before an evaluator returns) and surfaces
/// [`EvalError::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// When the join/aggregation kernels are allowed to spill partitions to
/// disk instead of failing a denied byte reservation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpillMode {
    /// Never spill: a denied reservation is [`EvalError::MemoryExceeded`].
    Off,
    /// Spill when (and only when) a reservation is denied mid-build.
    #[default]
    Auto,
    /// Spill unconditionally at every spill-capable site — the hybrid
    /// ladder's "retry the same rung with spill forced on", and the mode
    /// the benches use to measure the external-memory path.
    Force,
}

/// Spill-volume counters shared (via `Arc`) by every handle cloned from
/// one root budget, including the renewed/escalated budgets of the
/// fallback ladder — so `QueryOutcome` can report the whole query's spill
/// traffic no matter which rung produced it.
#[derive(Debug, Default)]
pub struct SpillStats {
    bytes_written: AtomicU64,
    partitions: AtomicU64,
}

impl SpillStats {
    /// Records `bytes` written to a spill file.
    pub fn add_bytes(&self, bytes: u64) {
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `n` spill partitions created.
    pub fn add_partitions(&self, n: u64) {
        self.partitions.fetch_add(n, Ordering::Relaxed);
    }

    /// Total bytes written to spill files so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total spill partitions created so far (the partition fan-out,
    /// summed over every spilling operator and recursion level).
    pub fn partitions(&self) -> u64 {
        self.partitions.load(Ordering::Relaxed)
    }
}

/// Per-query join-strategy counters, shared (via `Arc`) like
/// [`SpillStats`]: every handle cloned, forked, renewed or escalated from
/// one root budget accumulates into the same counters, so `QueryOutcome`
/// can report how many vertex joins ran as hash builds vs index seeks no
/// matter which rung executed them.
#[derive(Debug, Default)]
pub struct JoinStats {
    hash_builds: AtomicU64,
    index_seeks: AtomicU64,
}

impl JoinStats {
    /// Records one hash-build join (a ChainTable build by a row or columnar kernel).
    pub fn add_hash_build(&self) {
        self.hash_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one index-nested-loop seek join.
    pub fn add_index_seek(&self) {
        self.index_seeks.fetch_add(1, Ordering::Relaxed);
    }

    /// Hash-build joins executed so far.
    pub fn hash_builds(&self) -> u64 {
        self.hash_builds.load(Ordering::Relaxed)
    }

    /// Index-seek joins executed so far.
    pub fn index_seeks(&self) -> u64 {
        self.index_seeks.load(Ordering::Relaxed)
    }
}

/// A work budget threaded through every operator.
///
/// `charge(n)` accounts for `n` freshly materialized tuples; the deadline
/// and cancellation token are polled at most every few thousand charges
/// to keep the common path cheap.
///
/// # Concurrency
///
/// One query evaluation runs on one thread and charges one handle. A
/// budget starts with a plain local counter; [`Budget::fork`] promotes the
/// counter to a shared atomic and returns a sibling handle charging the
/// *same* pool. That is how *session* threads share a ledger: the
/// service's memory pool, the storage buffer pools and the factorized
/// cover each hold a forked handle, every handle sees the global total,
/// and the limit trips if and only if the combined work exceeds it —
/// independent of interleaving (the sum of charges is order-free). A
/// shared handle batches its charges, so an evaluator calls
/// [`Budget::check_exceeded`] before declaring success.
#[derive(Clone, Debug)]
pub struct Budget {
    max_tuples: Option<u64>,
    deadline: Option<(Instant, Duration)>,
    cancel: Option<CancelToken>,
    counter: Counter,
    since_time_check: u64,
    /// Per-query byte pool (the memory governor); `None` = ungoverned.
    mem_limit: Option<u64>,
    /// Bytes counter, batched/forked exactly like the tuple counter.
    bytes: Counter,
    spill_mode: SpillMode,
    /// Override for the spill temp directory (default: `HTQO_SPILL_DIR`
    /// or the system temp dir, resolved by `crate::spill`).
    spill_dir: Option<Arc<PathBuf>>,
    spill_stats: Arc<SpillStats>,
    join_stats: Arc<JoinStats>,
}

/// Local or shared tuple counter. A shared handle batches its charges in
/// `pending` and flushes to the pool every [`FLUSH_INTERVAL`] tuples (and
/// on drop), so hot join loops do not pay one atomic RMW per output row.
/// Exhaustion is then observed at flush points and at
/// [`Budget::check_exceeded`]; a handle can overshoot the limit by at most
/// `FLUSH_INTERVAL` tuples before noticing, but *whether* the limit trips
/// depends only on the order-free combined total.
#[derive(Debug)]
enum Counter {
    Local(u64),
    Shared { pool: Arc<AtomicU64>, pending: u64 },
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        match self {
            Counter::Local(n) => Counter::Local(*n),
            // Pending charges belong to the handle that accrued them; a
            // clone starts with its own empty batch (copying `pending`
            // would double-count on flush).
            Counter::Shared { pool, .. } => Counter::Shared {
                pool: Arc::clone(pool),
                pending: 0,
            },
        }
    }
}

/// How often (in charged tuples) the deadline and cancellation token are
/// polled.
const TIME_CHECK_INTERVAL: u64 = 4096;

/// How many tuples a shared [`Counter`] handle batches locally before
/// flushing to the shared pool.
const FLUSH_INTERVAL: u64 = 1024;

/// How many charged bytes a shared handle batches before flushing. Same
/// role as [`FLUSH_INTERVAL`], scaled to bytes: a handle can overshoot
/// the byte pool by at most this much before noticing.
const BYTE_FLUSH_INTERVAL: u64 = 256 * 1024;

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// No limits.
    pub fn unlimited() -> Self {
        Budget {
            max_tuples: None,
            deadline: None,
            cancel: None,
            counter: Counter::Local(0),
            since_time_check: 0,
            mem_limit: None,
            bytes: Counter::Local(0),
            spill_mode: SpillMode::default(),
            spill_dir: None,
            spill_stats: Arc::new(SpillStats::default()),
            join_stats: Arc::new(JoinStats::default()),
        }
    }

    /// Limits the number of materialized tuples.
    pub fn with_max_tuples(mut self, n: u64) -> Self {
        self.max_tuples = Some(n);
        self
    }

    /// Limits wall-clock time, starting now.
    pub fn with_timeout(mut self, limit: Duration) -> Self {
        self.deadline = Some((Instant::now() + limit, limit));
        self
    }

    /// Attaches a cancellation token. Keep a clone of the token; calling
    /// [`CancelToken::cancel`] on it aborts the evaluation with
    /// [`EvalError::Cancelled`] at the next polling point.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps the bytes this query may hold reserved at once (the memory
    /// governor's per-query pool, usually sized from `HTQO_MEM_LIMIT` /
    /// `ExecOptions::mem_limit`).
    pub fn with_mem_limit(mut self, bytes: u64) -> Self {
        self.mem_limit = Some(bytes);
        self
    }

    /// Sets the byte limit only if none is configured yet — how
    /// evaluator entry points apply `ExecOptions::mem_limit` without
    /// overriding an explicitly budgeted caller.
    pub fn apply_mem_limit(&mut self, limit: Option<u64>) {
        if self.mem_limit.is_none() {
            self.mem_limit = limit;
        }
    }

    /// Sets the spill policy (see [`SpillMode`]).
    pub fn with_spill_mode(mut self, mode: SpillMode) -> Self {
        self.spill_mode = mode;
        self
    }

    /// Overrides the directory spill temp files are created under.
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(Arc::new(dir));
        self
    }

    /// The configured tuple limit, if any.
    pub fn max_tuples(&self) -> Option<u64> {
        self.max_tuples
    }

    /// The configured byte pool, if any.
    pub fn mem_limit(&self) -> Option<u64> {
        self.mem_limit
    }

    /// The spill policy.
    pub fn spill_mode(&self) -> SpillMode {
        self.spill_mode
    }

    /// The configured spill-directory override, if any.
    pub fn spill_dir(&self) -> Option<&Path> {
        self.spill_dir.as_deref().map(|p| p.as_path())
    }

    /// Spill-volume counters for this query (shared across forks,
    /// renewals and escalations of this budget).
    pub fn spill_stats(&self) -> Arc<SpillStats> {
        Arc::clone(&self.spill_stats)
    }

    /// Join-strategy counters for this query (shared across forks,
    /// renewals and escalations of this budget).
    pub fn join_stats(&self) -> Arc<JoinStats> {
        Arc::clone(&self.join_stats)
    }

    /// The configured wall-clock limit, if any (the original duration,
    /// not the remaining time).
    pub fn timeout(&self) -> Option<Duration> {
        self.deadline.map(|(_, limit)| limit)
    }

    /// A fresh budget with the same limits and cancellation token but a
    /// zeroed counter and a deadline restarted from now. This is what the
    /// hybrid optimizer's fallback ladder hands each retry rung: the rung
    /// gets a full budget of its own, while cancellation still spans the
    /// whole query.
    pub fn renewed(&self) -> Budget {
        let mut b = Budget::unlimited();
        b.max_tuples = self.max_tuples;
        if let Some((_, limit)) = self.deadline {
            b = b.with_timeout(limit);
        }
        b.cancel = self.cancel.clone();
        b.mem_limit = self.mem_limit;
        b.spill_mode = self.spill_mode;
        b.spill_dir = self.spill_dir.clone();
        // Spill volume and join counters accumulate across rungs of one
        // query.
        b.spill_stats = Arc::clone(&self.spill_stats);
        b.join_stats = Arc::clone(&self.join_stats);
        b
    }

    /// Like [`Budget::renewed`], but with both limits scaled by `factor`
    /// (the ladder's optional budget escalation). Unlimited dimensions
    /// stay unlimited; `factor` must be positive.
    pub fn escalated(&self, factor: f64) -> Budget {
        let mut b = self.renewed();
        if let Some(n) = b.max_tuples {
            b.max_tuples = Some((n as f64 * factor).min(u64::MAX as f64) as u64);
        }
        if let Some((_, limit)) = self.deadline {
            b = b.with_timeout(limit.mul_f64(factor));
        }
        if let Some(n) = b.mem_limit {
            b.mem_limit = Some((n as f64 * factor).min(u64::MAX as f64) as u64);
        }
        b
    }

    /// Total tuples charged so far (across all forked handles, plus this
    /// handle's unflushed batch).
    pub fn charged(&self) -> u64 {
        match &self.counter {
            Counter::Local(n) => *n,
            Counter::Shared { pool, pending } => pool.load(Ordering::Relaxed) + pending,
        }
    }

    /// Total bytes currently reserved (across all forked handles, plus
    /// this handle's unflushed batch) — the byte analog of
    /// [`Budget::charged`], minus whatever was released with
    /// [`Budget::uncharge_bytes`].
    pub fn mem_used(&self) -> u64 {
        match &self.bytes {
            Counter::Local(n) => *n,
            Counter::Shared { pool, pending } => pool.load(Ordering::Relaxed) + pending,
        }
    }

    /// Promotes the counter to a shared atomic (if not already) and
    /// returns a sibling handle charging the same pool. The handle is
    /// `Send`; give one to each thread (or long-lived owner) that charges
    /// the pool. The byte pool is promoted and shared the same way, so
    /// memory accounting stays exact across session threads.
    pub fn fork(&mut self) -> Budget {
        if let Counter::Local(n) = self.counter {
            self.counter = Counter::Shared {
                pool: Arc::new(AtomicU64::new(n)),
                pending: 0,
            };
        }
        if let Counter::Local(n) = self.bytes {
            self.bytes = Counter::Shared {
                pool: Arc::new(AtomicU64::new(n)),
                pending: 0,
            };
        }
        self.clone()
    }

    /// Accounts for `n` materialized tuples.
    pub fn charge(&mut self, n: u64) -> Result<(), EvalError> {
        let total = match &mut self.counter {
            Counter::Local(c) => {
                *c += n;
                Some(*c)
            }
            Counter::Shared { pool, pending } => {
                *pending += n;
                if *pending >= FLUSH_INTERVAL {
                    let flushed = std::mem::take(pending);
                    Some(pool.fetch_add(flushed, Ordering::Relaxed) + flushed)
                } else {
                    None // exhaustion observed at the next flush or merge
                }
            }
        };
        if let (Some(total), Some(limit)) = (total, self.max_tuples) {
            if total > limit {
                return Err(EvalError::TupleBudgetExceeded { limit });
            }
        }
        if self.deadline.is_some() || self.cancel.is_some() {
            self.since_time_check += n;
            if self.since_time_check >= TIME_CHECK_INTERVAL {
                self.since_time_check = 0;
                self.check_cancelled()?;
                if let Some((deadline, limit)) = self.deadline {
                    if Instant::now() > deadline {
                        return Err(EvalError::Timeout { limit });
                    }
                }
            }
        }
        Ok(())
    }

    /// Accounts for `n` freshly materialized bytes. Mirrors
    /// [`Budget::charge`]: local counters trip inline, shared handles
    /// batch up to [`BYTE_FLUSH_INTERVAL`] bytes and observe the pool at
    /// flush points — whether the limit trips depends only on the
    /// order-free combined total. With no limit this is a plain add.
    pub fn charge_bytes(&mut self, n: u64) -> Result<(), EvalError> {
        let total = match &mut self.bytes {
            Counter::Local(c) => {
                *c += n;
                Some(*c)
            }
            Counter::Shared { pool, pending } => {
                *pending += n;
                if *pending >= BYTE_FLUSH_INTERVAL {
                    let flushed = std::mem::take(pending);
                    Some(pool.fetch_add(flushed, Ordering::Relaxed) + flushed)
                } else {
                    None // exhaustion observed at the next flush or merge
                }
            }
        };
        if let (Some(total), Some(limit)) = (total, self.mem_limit) {
            if total > limit {
                return Err(EvalError::MemoryExceeded {
                    requested: n,
                    reserved: total,
                    pool: limit,
                });
            }
        }
        Ok(())
    }

    /// Tries to reserve `n` bytes from the pool: on success the bytes are
    /// charged and `true` is returned; on denial *nothing* is charged and
    /// the caller decides between spilling and failing. This is the
    /// spill-decision point of the join/aggregation kernels. Without a
    /// configured limit the reservation always succeeds.
    pub fn try_reserve_bytes(&mut self, n: u64) -> bool {
        let Some(limit) = self.mem_limit else {
            // Ungoverned: keep accounting (cheap add), never deny.
            let _ = self.charge_bytes(n);
            return true;
        };
        match &mut self.bytes {
            Counter::Local(c) => {
                if *c + n <= limit {
                    *c += n;
                    true
                } else {
                    false
                }
            }
            Counter::Shared { pool, pending } => {
                // Flush first so the CAS below sees this handle's own
                // pending charges; then atomically claim the bytes.
                if *pending > 0 {
                    pool.fetch_add(std::mem::take(pending), Ordering::Relaxed);
                }
                pool.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                    (cur + n <= limit).then_some(cur + n)
                })
                .is_ok()
            }
        }
    }

    /// Like [`Budget::try_reserve_bytes`], but a denial is a hard
    /// [`EvalError::MemoryExceeded`]. Used where no spill alternative
    /// exists (or recursion bottomed out).
    pub fn reserve_bytes(&mut self, n: u64) -> Result<(), EvalError> {
        if self.try_reserve_bytes(n) {
            Ok(())
        } else {
            Err(EvalError::MemoryExceeded {
                requested: n,
                reserved: self.mem_used(),
                pool: self.mem_limit.unwrap_or(0),
            })
        }
    }

    /// Returns `n` previously charged/reserved bytes to the pool (e.g.
    /// when a hash table or a spilled build side is dropped). Saturating:
    /// releasing more than is visibly reserved clamps at zero rather than
    /// underflowing siblings' unflushed batches.
    pub fn uncharge_bytes(&mut self, n: u64) {
        match &mut self.bytes {
            Counter::Local(c) => *c = c.saturating_sub(n),
            Counter::Shared { pool, pending } => {
                // Drain this handle's own pending batch first; only the
                // remainder touches the shared pool.
                let from_pending = (*pending).min(n);
                *pending -= from_pending;
                let rest = n - from_pending;
                if rest > 0 {
                    let _ = pool.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                        Some(cur.saturating_sub(rest))
                    });
                }
            }
        }
    }

    /// Deterministic exhaustion check, called by every evaluator before
    /// it declares success: errors iff the *combined* charges of all
    /// handles exceed the tuple limit, regardless of which handle crossed
    /// it first. Cancellation is polled here too, after the —
    /// deterministic — tuple check.
    pub fn check_exceeded(&self) -> Result<(), EvalError> {
        if let Some(limit) = self.max_tuples {
            if self.charged() > limit {
                return Err(EvalError::TupleBudgetExceeded { limit });
            }
        }
        if let Some(limit) = self.mem_limit {
            let used = self.mem_used();
            if used > limit {
                return Err(EvalError::MemoryExceeded {
                    requested: 0,
                    reserved: used,
                    pool: limit,
                });
            }
        }
        self.check_cancelled()
    }

    /// Flushes this handle's unflushed batches (tuples and bytes) to the
    /// shared pools (no-op for local counters). Called on drop, so totals
    /// are exact by the time any merge point runs `check_exceeded`.
    fn flush(&mut self) {
        if let Counter::Shared { pool, pending } = &mut self.counter {
            if *pending > 0 {
                pool.fetch_add(std::mem::take(pending), Ordering::Relaxed);
            }
        }
        if let Counter::Shared { pool, pending } = &mut self.bytes {
            if *pending > 0 {
                pool.fetch_add(std::mem::take(pending), Ordering::Relaxed);
            }
        }
    }

    /// Forces a deadline + cancellation check (called between operators).
    /// Also flushes this handle's pending batch first, so an error
    /// observed here leaves [`Budget::charged`] exact for the DNF report.
    pub fn check_time(&mut self) -> Result<(), EvalError> {
        self.flush();
        self.check_cancelled()?;
        if let Some((deadline, limit)) = self.deadline {
            if Instant::now() > deadline {
                return Err(EvalError::Timeout { limit });
            }
        }
        Ok(())
    }

    /// Errors iff the attached token (if any) has been cancelled.
    pub fn check_cancelled(&self) -> Result<(), EvalError> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(EvalError::Cancelled),
            _ => Ok(()),
        }
    }
}

impl Drop for Budget {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fails() {
        let mut b = Budget::unlimited();
        for _ in 0..100 {
            b.charge(1_000_000).unwrap();
        }
        assert_eq!(b.charged(), 100_000_000);
    }

    #[test]
    fn tuple_budget_trips() {
        let mut b = Budget::unlimited().with_max_tuples(10);
        b.charge(10).unwrap();
        let err = b.charge(1).unwrap_err();
        assert_eq!(err, EvalError::TupleBudgetExceeded { limit: 10 });
        assert!(err.is_resource_limit());
    }

    #[test]
    fn timeout_trips() {
        let mut b = Budget::unlimited().with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(5));
        // charge() may need several calls to hit the polling interval;
        // check_time is immediate.
        let err = b.check_time().unwrap_err();
        assert!(matches!(err, EvalError::Timeout { .. }));
    }

    #[test]
    fn display_messages() {
        assert!(EvalError::UnknownTable("t".into())
            .to_string()
            .contains("`t`"));
        assert!(!EvalError::UnknownVariable("v".into()).is_resource_limit());
        assert!(EvalError::Cancelled.to_string().contains("cancelled"));
        assert!(EvalError::WorkerPanicked {
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
    }

    #[test]
    fn error_classification() {
        assert!(!EvalError::Cancelled.is_resource_limit());
        assert!(EvalError::Cancelled.is_cancelled());
        assert!(!EvalError::Cancelled.is_retryable());
        let wp = EvalError::WorkerPanicked {
            message: "x".into(),
        };
        assert!(!wp.is_resource_limit());
        assert!(wp.is_retryable());
        assert!(EvalError::TupleBudgetExceeded { limit: 1 }.is_retryable());
        assert!(EvalError::Timeout {
            limit: Duration::from_secs(1)
        }
        .is_retryable());
        assert!(EvalError::Internal("plan".into()).is_retryable());
        assert!(!EvalError::UnknownTable("t".into()).is_retryable());
        assert!(!EvalError::UnknownVariable("v".into()).is_retryable());
    }

    #[test]
    fn cancellation_is_observed_at_all_polling_points() {
        let token = CancelToken::new();
        let mut b = Budget::unlimited().with_cancel_token(token.clone());
        b.charge(10).unwrap();
        assert!(b.check_time().is_ok());
        assert!(b.check_exceeded().is_ok());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(b.check_time().unwrap_err(), EvalError::Cancelled);
        assert_eq!(b.check_exceeded().unwrap_err(), EvalError::Cancelled);
        assert_eq!(b.check_cancelled().unwrap_err(), EvalError::Cancelled);
        // charge() observes it at the polling interval.
        let err = (0..TIME_CHECK_INTERVAL + 1)
            .find_map(|_| b.charge(1).err())
            .expect("cancellation observed within one polling interval");
        assert_eq!(err, EvalError::Cancelled);
    }

    #[test]
    fn cancellation_crosses_forked_handles() {
        let token = CancelToken::new();
        let mut b = Budget::unlimited().with_cancel_token(token.clone());
        let mut h = b.fork();
        token.cancel();
        assert_eq!(h.check_time().unwrap_err(), EvalError::Cancelled);
        assert_eq!(b.check_exceeded().unwrap_err(), EvalError::Cancelled);
    }

    #[test]
    fn renewed_keeps_limits_but_resets_charges() {
        let token = CancelToken::new();
        let mut b = Budget::unlimited()
            .with_max_tuples(100)
            .with_cancel_token(token.clone());
        b.charge(60).unwrap();
        let mut r = b.renewed();
        assert_eq!(r.charged(), 0);
        assert_eq!(r.max_tuples(), Some(100));
        r.charge(100).unwrap();
        assert!(r.charge(1).is_err());
        // The token spans renewals.
        token.cancel();
        assert!(b.renewed().check_cancelled().is_err());
    }

    #[test]
    fn escalated_scales_limits() {
        let b = Budget::unlimited()
            .with_max_tuples(100)
            .with_timeout(Duration::from_secs(2));
        let e = b.escalated(10.0);
        assert_eq!(e.max_tuples(), Some(1000));
        assert_eq!(e.timeout(), Some(Duration::from_secs(20)));
        // Unlimited stays unlimited.
        assert_eq!(Budget::unlimited().escalated(10.0).max_tuples(), None);
    }

    #[test]
    fn forked_handles_share_the_pool() {
        let mut b = Budget::unlimited().with_max_tuples(100);
        b.charge(30).unwrap();
        let mut h1 = b.fork();
        let mut h2 = b.fork();
        h1.charge(30).unwrap();
        h2.charge(30).unwrap();
        // Shared-handle charges are batched; they become visible to
        // siblings when the handle flushes (here: on drop).
        drop(h1);
        drop(h2);
        assert_eq!(b.charged(), 90);
        // The combined pool trips at the merge point no matter which
        // handle's charges crossed the limit.
        let mut h3 = b.fork();
        h3.charge(20).unwrap(); // batched, not yet observed
        drop(h3);
        let err = b.check_exceeded().unwrap_err();
        assert_eq!(err, EvalError::TupleBudgetExceeded { limit: 100 });
    }

    #[test]
    fn check_time_flushes_pending_charges() {
        // A timeout (or cancellation) observed between operators must
        // leave `charged()` exact for the DNF report: check_time flushes
        // the handle's pending batch before checking.
        let mut b = Budget::unlimited();
        let mut h = b.fork();
        h.charge(10).unwrap(); // < FLUSH_INTERVAL: still pending
        assert_eq!(b.charged(), 0);
        h.check_time().unwrap();
        assert_eq!(b.charged(), 10, "check_time must flush pending charges");
    }

    #[test]
    fn shared_handle_trips_inline_on_flush() {
        let mut b = Budget::unlimited().with_max_tuples(100);
        let mut h = b.fork();
        // A charge reaching FLUSH_INTERVAL flushes and observes the
        // limit immediately, bounding how far a worker can overshoot.
        let err = h.charge(FLUSH_INTERVAL).unwrap_err();
        assert_eq!(err, EvalError::TupleBudgetExceeded { limit: 100 });
    }

    #[test]
    fn forked_charges_from_threads_are_exact() {
        let mut b = Budget::unlimited();
        let handles: Vec<Budget> = (0..8).map(|_| b.fork()).collect();
        std::thread::scope(|s| {
            for mut h in handles {
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.charge(1).unwrap();
                    }
                });
            }
        });
        assert_eq!(b.charged(), 8000);
        assert!(b.check_exceeded().is_ok());
    }

    #[test]
    fn check_exceeded_without_limit_never_errs() {
        let mut b = Budget::unlimited();
        b.charge(u64::MAX / 2).unwrap();
        assert!(b.check_exceeded().is_ok());
    }

    #[test]
    fn memory_error_classification() {
        let me = EvalError::MemoryExceeded {
            requested: 100,
            reserved: 900,
            pool: 1000,
        };
        assert!(me.is_resource_limit());
        assert!(me.is_retryable());
        assert!(me.to_string().contains("100 B"));
        let io = EvalError::SpillIo("disk full".into());
        assert!(!io.is_resource_limit());
        assert!(io.is_retryable());
        assert!(io.to_string().contains("disk full"));
    }

    #[test]
    fn byte_budget_trips() {
        let mut b = Budget::unlimited().with_mem_limit(100);
        assert_eq!(b.mem_limit(), Some(100));
        b.charge_bytes(100).unwrap();
        let err = b.charge_bytes(1).unwrap_err();
        assert_eq!(
            err,
            EvalError::MemoryExceeded {
                requested: 1,
                reserved: 101,
                pool: 100,
            }
        );
    }

    #[test]
    fn reservation_denial_charges_nothing() {
        let mut b = Budget::unlimited().with_mem_limit(100);
        assert!(b.try_reserve_bytes(60));
        assert_eq!(b.mem_used(), 60);
        assert!(!b.try_reserve_bytes(60), "would exceed the pool");
        assert_eq!(b.mem_used(), 60, "denied reservation charged nothing");
        assert!(b.try_reserve_bytes(40), "exact fit still succeeds");
        let err = b.reserve_bytes(1).unwrap_err();
        assert_eq!(
            err,
            EvalError::MemoryExceeded {
                requested: 1,
                reserved: 100,
                pool: 100,
            }
        );
    }

    #[test]
    fn uncharge_returns_bytes_to_the_pool() {
        let mut b = Budget::unlimited().with_mem_limit(100);
        b.reserve_bytes(80).unwrap();
        assert!(!b.try_reserve_bytes(80));
        b.uncharge_bytes(80);
        assert_eq!(b.mem_used(), 0);
        assert!(b.try_reserve_bytes(80));
        // Saturating: over-release clamps at zero.
        b.uncharge_bytes(u64::MAX);
        assert_eq!(b.mem_used(), 0);
    }

    #[test]
    fn unlimited_byte_pool_never_denies() {
        let mut b = Budget::unlimited();
        assert!(b.try_reserve_bytes(u64::MAX / 2));
        b.charge_bytes(1000).unwrap();
        assert!(b.check_exceeded().is_ok());
        // Accounting still tracks usage for diagnostics.
        assert_eq!(b.mem_used(), u64::MAX / 2 + 1000);
    }

    #[test]
    fn forked_byte_handles_share_the_pool() {
        let mut b = Budget::unlimited().with_mem_limit(100_000);
        b.charge_bytes(30_000).unwrap();
        let mut h1 = b.fork();
        let mut h2 = b.fork();
        h1.charge_bytes(30_000).unwrap();
        h2.charge_bytes(30_000).unwrap();
        drop(h1);
        drop(h2);
        assert_eq!(b.mem_used(), 90_000);
        // A shared-handle reservation sees the combined total.
        let mut h3 = b.fork();
        assert!(!h3.try_reserve_bytes(20_000));
        assert!(h3.try_reserve_bytes(10_000));
        drop(h3);
        assert_eq!(b.mem_used(), 100_000);
    }

    #[test]
    fn shared_byte_handle_trips_inline_on_flush() {
        let mut b = Budget::unlimited().with_mem_limit(100);
        let mut h = b.fork();
        let err = h.charge_bytes(BYTE_FLUSH_INTERVAL).unwrap_err();
        assert!(matches!(err, EvalError::MemoryExceeded { .. }));
    }

    #[test]
    fn check_exceeded_observes_byte_pool() {
        let mut b = Budget::unlimited().with_mem_limit(100);
        let mut h = b.fork();
        h.charge_bytes(200).ok(); // batched: may not trip inline
        drop(h); // flush
        let err = b.check_exceeded().unwrap_err();
        assert!(matches!(
            err,
            EvalError::MemoryExceeded {
                requested: 0,
                reserved: 200,
                pool: 100,
            }
        ));
    }

    #[test]
    fn renewed_and_escalated_carry_memory_config() {
        let b = Budget::unlimited()
            .with_mem_limit(1000)
            .with_spill_mode(SpillMode::Force)
            .with_spill_dir(PathBuf::from("/tmp/htqo-test-spill"));
        let stats = b.spill_stats();
        stats.add_bytes(7);
        b.join_stats().add_index_seek();
        b.join_stats().add_hash_build();
        let r = b.renewed();
        assert_eq!(r.join_stats().index_seeks(), 1, "join stats span renewals");
        assert_eq!(r.join_stats().hash_builds(), 1);
        assert_eq!(r.mem_limit(), Some(1000));
        assert_eq!(r.spill_mode(), SpillMode::Force);
        assert_eq!(r.spill_dir(), Some(Path::new("/tmp/htqo-test-spill")));
        assert_eq!(r.spill_stats().bytes_written(), 7, "stats span renewals");
        let e = b.escalated(2.0);
        assert_eq!(e.mem_limit(), Some(2000));
        assert_eq!(Budget::unlimited().escalated(2.0).mem_limit(), None);
    }

    #[test]
    fn apply_mem_limit_only_fills_unset() {
        let mut b = Budget::unlimited();
        b.apply_mem_limit(Some(500));
        assert_eq!(b.mem_limit(), Some(500));
        b.apply_mem_limit(Some(900));
        assert_eq!(b.mem_limit(), Some(500), "explicit limit wins");
        b.apply_mem_limit(None);
        assert_eq!(b.mem_limit(), Some(500));
    }

    /// Byte analog of `forked_charges_from_threads_are_exact`: the pool
    /// total is exact and thread-count-invariant.
    #[test]
    fn forked_byte_charges_from_threads_are_exact() {
        let mut b = Budget::unlimited();
        let handles: Vec<Budget> = (0..8).map(|_| b.fork()).collect();
        std::thread::scope(|s| {
            for mut h in handles {
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.charge_bytes(3).unwrap();
                    }
                    h.uncharge_bytes(1000);
                });
            }
        });
        assert_eq!(b.mem_used(), 8 * (3000 - 1000));
        assert!(b.check_exceeded().is_ok());
    }

    /// Bytes stay exact when workers panic mid-charge: the handle's Drop
    /// flushes its pending batch during unwind.
    #[test]
    fn byte_pool_exact_after_worker_panic() {
        let mut b = Budget::unlimited();
        let handles: Vec<Budget> = (0..4).map(|_| b.fork()).collect();
        std::thread::scope(|s| {
            for (i, mut h) in handles.into_iter().enumerate() {
                s.spawn(move || {
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        h.charge_bytes(100).unwrap();
                        if i % 2 == 0 {
                            panic!("deliberate");
                        }
                        h.charge_bytes(100).unwrap();
                    }));
                });
            }
        });
        // 2 workers charged 100, 2 charged 200 — all flushed on drop.
        assert_eq!(b.mem_used(), 2 * 100 + 2 * 200);
    }
}
