//! The multi-session **query service**: a concurrent front door over the
//! hybrid optimizer and the engine. Concurrency is between queries: each
//! query runs on the thread of the session call that issued it.
//!
//! A [`QueryService`] owns one immutable [`Database`], one (shared,
//! `Send + Sync`) [`HybridOptimizer`] and the service-wide resource pools.
//! Each client opens a [`Session`], prepares statements, and executes
//! queries. A statement is **compiled once** — parsed, translated to a
//! conjunctive query and planned — and afterwards only executed: the
//! service-wide statement cache maps exact SQL text to the shared
//! [`CompiledQuery`], so a repeated text (prepared or ad hoc, from any
//! session) runs its plan and nothing else, while a new text of a known
//! shape still skips cost-k-decomp through the optimizer's
//! shape-canonical plan cache. Both are pure functions of the text here,
//! because the service's database and optimizer never change. Every
//! execution passes **admission control** before it touches the engine:
//!
//! 1. a bounded in-flight query count (typed [`ServiceError::Overloaded`]
//!    rejection instead of queueing),
//! 2. a byte reservation against the shared memory pool — each session
//!    holds a [`Budget::fork`] of the service ledger, so reservations and
//!    releases are exact across threads ([`ServiceError::MemoryDenied`]),
//! 3. a service-lifetime tuple quota drained by what completed queries
//!    actually materialized ([`ServiceError::TupleQuotaExhausted`]).
//!
//! Admitted queries run under their own [`Budget`] (per-query memory
//! slice, tuple cap, timeout) carrying a [`CancelToken`] registered with
//! the service: [`QueryService::shutdown`] cancels every in-flight query
//! cooperatively and turns new admissions into
//! [`ServiceError::ShuttingDown`]. Permits and reservations are released
//! by RAII, so they drain even when a query panics inside the engine
//! (the optimizer contains the panic) or fails mid-ladder.

#![warn(missing_docs)]

use htqo_cq::sql::ast::{Predicate, SelectStmt};
use htqo_cq::{isolate, parse_select};
use htqo_engine::error::{Budget, CancelToken};
use htqo_engine::schema::Database;
use htqo_optimizer::nested::flatten_subqueries;
use htqo_optimizer::{
    CompiledQuery, HybridOptimizer, PlanCacheStats, PlanCacheStatus, QueryOutcome, ShardedLru,
    SqlError,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Resource limits and concurrency policy of a [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Maximum queries executing at once across all sessions; the
    /// `max_in_flight + 1`-th admission is rejected with
    /// [`ServiceError::Overloaded`] rather than queued.
    pub max_in_flight: usize,
    /// Shared byte pool. Every admitted query reserves its memory slice
    /// here and returns it on completion; when the pool cannot cover
    /// another slice the admission is rejected with
    /// [`ServiceError::MemoryDenied`]. `None` = no byte admission.
    pub mem_pool: Option<u64>,
    /// Per-query memory slice (also the query budget's `mem_limit`).
    /// Defaults to `mem_pool / max_in_flight` when a pool is configured,
    /// otherwise unlimited.
    pub query_mem: Option<u64>,
    /// Service-lifetime tuple quota: once completed queries have
    /// materialized this many tuples combined, further admissions are
    /// rejected with [`ServiceError::TupleQuotaExhausted`]. `None` = no
    /// quota.
    pub tuple_pool: Option<u64>,
    /// Per-query tuple cap (the query budget's `max_tuples`).
    pub query_tuples: Option<u64>,
    /// Per-query wall-clock limit.
    pub query_timeout: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 16,
            mem_pool: None,
            query_mem: None,
            tuple_pool: None,
            query_tuples: None,
            query_timeout: None,
        }
    }
}

/// Handle to a prepared statement within one [`Session`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StatementId(u64);

impl fmt::Display for StatementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stmt#{}", self.0)
    }
}

/// Typed rejection/failure surface of the service. Admission rejections
/// ([`ServiceError::is_rejection`]) mean the query never ran and consumed
/// nothing; execution-level failures surface *inside* a successful
/// [`QueryOutcome`] (its `result` field), not here.
#[derive(Debug)]
pub enum ServiceError {
    /// The bounded in-flight count was full.
    Overloaded {
        /// The configured [`ServiceConfig::max_in_flight`].
        limit: usize,
    },
    /// The shared byte pool could not cover this query's memory slice.
    MemoryDenied {
        /// Bytes the admission tried to reserve.
        requested: u64,
        /// The configured pool size.
        pool: u64,
    },
    /// The service-lifetime tuple quota is exhausted.
    TupleQuotaExhausted {
        /// Tuples charged so far.
        used: u64,
        /// The configured [`ServiceConfig::tuple_pool`].
        quota: u64,
    },
    /// [`QueryService::shutdown`] was called; no new work is admitted.
    ShuttingDown,
    /// The [`StatementId`] is unknown to this session (never prepared, or
    /// already closed).
    UnknownStatement(StatementId),
    /// The statement failed before planning (parse / subquery flattening
    /// / SQL-to-CQ translation). Parse and translation errors surface
    /// when the text is first compiled — at [`Session::prepare`], or
    /// before admission in [`Session::execute_sql`] — and consume no
    /// permit and no pool slice.
    Sql(SqlError),
}

impl ServiceError {
    /// True for admission rejections: the query never ran, and retrying
    /// later (or against a drained service) may succeed.
    pub fn is_rejection(&self) -> bool {
        matches!(
            self,
            ServiceError::Overloaded { .. }
                | ServiceError::MemoryDenied { .. }
                | ServiceError::TupleQuotaExhausted { .. }
                | ServiceError::ShuttingDown
        )
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { limit } => {
                write!(f, "service overloaded: {limit} queries already in flight")
            }
            ServiceError::MemoryDenied { requested, pool } => write!(
                f,
                "admission denied: cannot reserve {requested} bytes from a {pool}-byte pool"
            ),
            ServiceError::TupleQuotaExhausted { used, quota } => {
                write!(f, "tuple quota exhausted: {used} of {quota} used")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::UnknownStatement(id) => write!(f, "unknown prepared statement {id}"),
            ServiceError::Sql(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Traffic of the service-wide statement cache (exact SQL text →
/// compiled statement) since the service started.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatementCacheStats {
    /// Text hits: the statement ran with no parse, translation or
    /// planning at all.
    pub hits: u64,
    /// Text misses: the statement was compiled (its planning may still
    /// have been a shape hit in the optimizer's plan cache — see
    /// [`ServiceMetrics::plan_cache`]).
    pub misses: u64,
    /// Compiled statements currently retained.
    pub entries: u64,
}

/// A point-in-time snapshot of service health and traffic.
#[derive(Clone, Debug, Default)]
pub struct ServiceMetrics {
    /// Queries currently executing.
    pub in_flight: usize,
    /// Admissions granted since the service started.
    pub admitted: u64,
    /// Rejections because the in-flight bound was full.
    pub rejected_overload: u64,
    /// Rejections because the byte pool could not cover a slice.
    pub rejected_memory: u64,
    /// Rejections because the tuple quota was exhausted.
    pub rejected_quota: u64,
    /// Admitted queries whose outcome carried a result.
    pub completed_ok: u64,
    /// Admitted queries whose outcome carried an error (including
    /// cancellation and contained panics).
    pub completed_err: u64,
    /// Bytes currently reserved in the shared pool: slices of in-flight
    /// queries, plus resident buffer-pool pages on a
    /// [`QueryService::open_paged`] service. On an in-memory service this
    /// returns to 0 when idle; on a paged one the floor is the resident
    /// page set.
    pub pool_bytes_reserved: u64,
    /// Tuples charged against the service-lifetime quota so far.
    pub pool_tuples_charged: u64,
    /// Plan-cache traffic of the shared optimizer: what the texts that
    /// missed the statement cache cost (shape hit or cold plan).
    pub plan_cache: PlanCacheStats,
    /// Statement-cache traffic: texts served without compiling.
    pub statement_cache: StatementCacheStats,
    /// What the crash-recovery pass found when this service opened its
    /// paged storage ([`QueryService::open_paged`]): `None` on an
    /// in-memory service, `Some` (possibly all-zero for a clean start)
    /// on a paged one.
    pub recovery: Option<htqo_storage::RecoveryReport>,
}

struct ServiceInner {
    db: Database,
    optimizer: HybridOptimizer,
    config: ServiceConfig,
    /// Bytes each admission reserves (and each query budget's
    /// `mem_limit`); 0 = unlimited per-query memory, no byte admission.
    slice: u64,
    /// Master handle of the shared ledger. Sessions fork it, so byte
    /// reservations/releases and tuple charges from any thread land on
    /// the same atomic pools — accounting stays exact service-wide.
    pool: Mutex<Budget>,
    in_flight: AtomicUsize,
    shutting_down: AtomicBool,
    next_query: AtomicU64,
    /// Cancel tokens of in-flight queries, keyed by admission id;
    /// [`QueryService::shutdown`] fires them all.
    live: Mutex<HashMap<u64, CancelToken>>,
    admitted: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_memory: AtomicU64,
    rejected_quota: AtomicU64,
    completed_ok: AtomicU64,
    completed_err: AtomicU64,
    /// Recovery report from `open_paged` (None for in-memory services).
    recovery: Option<htqo_storage::RecoveryReport>,
    /// Exact SQL text → compiled statement, shared by every session and
    /// sized like the optimizer's plan cache (0 disables both). `db` and
    /// `optimizer` are immutable here, so the mapping never goes stale;
    /// only a statement retired by a failed plan is compiled afresh.
    statements: ShardedLru<String, Arc<CompiledQuery>>,
    statement_hits: AtomicU64,
    statement_misses: AtomicU64,
}

/// A statement ready for admission.
#[derive(Clone)]
enum Statement {
    /// Compiled once; execution runs the plan and nothing else.
    Compiled(Arc<CompiledQuery>),
    /// Has an `IN (SELECT …)` predicate: the materialized subquery table
    /// is data charged to the query's budget, so the statement is
    /// flattened and compiled per execution, inside its admission.
    Nested(Arc<SelectStmt>),
}

impl ServiceInner {
    /// Resolves SQL text to a statement, through the statement cache.
    /// The second value is `Some` when the text was compiled here — how
    /// the optimizer's plan cache served that compilation — and `None`
    /// when nothing was planned (a text hit, or a nested statement, which
    /// plans at execution).
    fn resolve(&self, sql: &str) -> Result<(Statement, Option<PlanCacheStatus>), ServiceError> {
        if let Some(compiled) = self.statements.get(sql) {
            // A statement retired by a failed plan is compiled afresh
            // and replaced below.
            if !compiled.is_retired() {
                self.statement_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Statement::Compiled(compiled), None));
            }
        }
        let stmt = parse_select(sql).map_err(|e| ServiceError::Sql(SqlError::Parse(e)))?;
        let nested = |p: &Predicate| matches!(p, Predicate::InSubquery { .. });
        if stmt.predicates.iter().any(nested) {
            return Ok((Statement::Nested(Arc::new(stmt)), None));
        }
        let q = isolate(&stmt, &self.db, self.optimizer.isolator)
            .map_err(|e| ServiceError::Sql(SqlError::Isolate(e)))?;
        let compiled = self.optimizer.compile_cq(&q);
        if self.statements.enabled() {
            self.statement_misses.fetch_add(1, Ordering::Relaxed);
            self.statements
                .insert(sql.to_string(), Arc::clone(&compiled));
        }
        let status = compiled.plan_cache();
        Ok((Statement::Compiled(compiled), Some(status)))
    }
}

/// Recover the guard even if a panicking thread poisoned the mutex; the
/// protected state (a ledger handle, the token registry) stays coherent
/// because every mutation is a single call.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The multi-session query front door. Cheap to clone (shared handle);
/// `Send + Sync`, as are the [`Session`]s it opens.
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
}

#[allow(dead_code)]
fn assert_service_is_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<QueryService>();
    assert::<Session>();
}

impl QueryService {
    /// Builds a service over `db` with the given optimizer and limits.
    pub fn new(db: Database, optimizer: HybridOptimizer, config: ServiceConfig) -> Self {
        let master = Self::master_budget(&config);
        Self::assemble(db, optimizer, config, master, None)
    }

    /// Opens a service over a paged [`htqo_storage::StorageDb`]: a warm
    /// restart. Tables and their B-tree join indexes come back from disk
    /// without re-parsing any source files; resident buffer-pool pages
    /// are charged against the service's shared memory pool (when
    /// [`ServiceConfig::mem_pool`] is set), so a large page cache
    /// genuinely crowds out query admissions. `make_optimizer` builds the
    /// optimizer once the database is loaded (e.g. to `analyze` it); the
    /// service then hands it the index catalog so per-vertex costing can
    /// price index-seek joins.
    pub fn open_paged<F>(
        storage: &htqo_storage::StorageDb,
        cache_bytes: u64,
        config: ServiceConfig,
        make_optimizer: F,
    ) -> Result<Self, htqo_engine::error::EvalError>
    where
        F: FnOnce(&Database) -> HybridOptimizer,
    {
        let mut master = Self::master_budget(&config);
        let cache_ledger = master.fork();
        // Crash recovery runs before any page is read: replay the
        // committed WAL tail, tolerate a torn one, GC orphans.
        let recovery = storage.recover()?;
        let db = storage.load_database(cache_bytes, Some(cache_ledger))?;
        let optimizer = make_optimizer(&db).with_index_catalog(db.indexed_columns());
        Ok(Self::assemble(
            db,
            optimizer,
            config,
            master,
            Some(recovery),
        ))
    }

    /// The service-wide master budget: memory-limited to the configured
    /// pool, with counters promoted to shared atomics up front so every
    /// session fork joins the same pools.
    fn master_budget(config: &ServiceConfig) -> Budget {
        let mut master = Budget::unlimited();
        if let Some(pool) = config.mem_pool {
            master = master.with_mem_limit(pool);
        }
        let _ = master.fork();
        master
    }

    fn assemble(
        db: Database,
        optimizer: HybridOptimizer,
        config: ServiceConfig,
        master: Budget,
        recovery: Option<htqo_storage::RecoveryReport>,
    ) -> Self {
        let slice = config
            .query_mem
            .or_else(|| {
                config
                    .mem_pool
                    .map(|p| (p / config.max_in_flight.max(1) as u64).max(1))
            })
            .unwrap_or(0);
        QueryService {
            inner: Arc::new(ServiceInner {
                db,
                config,
                slice,
                pool: Mutex::new(master),
                in_flight: AtomicUsize::new(0),
                shutting_down: AtomicBool::new(false),
                next_query: AtomicU64::new(0),
                live: Mutex::new(HashMap::new()),
                admitted: AtomicU64::new(0),
                rejected_overload: AtomicU64::new(0),
                rejected_memory: AtomicU64::new(0),
                rejected_quota: AtomicU64::new(0),
                completed_ok: AtomicU64::new(0),
                completed_err: AtomicU64::new(0),
                recovery,
                statements: ShardedLru::new(optimizer.cache_capacity()),
                statement_hits: AtomicU64::new(0),
                statement_misses: AtomicU64::new(0),
                optimizer,
            }),
        }
    }

    /// Service with default limits.
    pub fn with_defaults(db: Database, optimizer: HybridOptimizer) -> Self {
        QueryService::new(db, optimizer, ServiceConfig::default())
    }

    /// Opens a session: its ledger handle is a [`Budget::fork`] of the
    /// service pools, so its admissions charge the shared counters.
    pub fn session(&self) -> Session {
        let ledger = lock(&self.inner.pool).fork();
        Session {
            service: Arc::clone(&self.inner),
            ledger: Mutex::new(ledger),
            statements: Mutex::new(HashMap::new()),
            next_stmt: AtomicU64::new(0),
        }
    }

    /// Cooperatively cancels every in-flight query and rejects all
    /// subsequent admissions (and preparations) with
    /// [`ServiceError::ShuttingDown`]. Idempotent; returns the number of
    /// queries that were signalled.
    pub fn shutdown(&self) -> usize {
        self.inner.shutting_down.store(true, Ordering::Release);
        let live = lock(&self.inner.live);
        for token in live.values() {
            token.cancel();
        }
        live.len()
    }

    /// True once [`QueryService::shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::Acquire)
    }

    /// The database this service answers queries over.
    pub fn database(&self) -> &Database {
        &self.inner.db
    }

    /// The shared optimizer (e.g. for [`HybridOptimizer::plan_cache_stats`]).
    pub fn optimizer(&self) -> &HybridOptimizer {
        &self.inner.optimizer
    }

    /// Current traffic and pool snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        let inner = &*self.inner;
        let (bytes, tuples) = {
            let pool = lock(&inner.pool);
            (pool.mem_used(), pool.charged())
        };
        ServiceMetrics {
            in_flight: inner.in_flight.load(Ordering::Acquire),
            admitted: inner.admitted.load(Ordering::Relaxed),
            rejected_overload: inner.rejected_overload.load(Ordering::Relaxed),
            rejected_memory: inner.rejected_memory.load(Ordering::Relaxed),
            rejected_quota: inner.rejected_quota.load(Ordering::Relaxed),
            completed_ok: inner.completed_ok.load(Ordering::Relaxed),
            completed_err: inner.completed_err.load(Ordering::Relaxed),
            pool_bytes_reserved: bytes,
            pool_tuples_charged: tuples,
            plan_cache: inner.optimizer.plan_cache_stats(),
            statement_cache: StatementCacheStats {
                hits: inner.statement_hits.load(Ordering::Relaxed),
                misses: inner.statement_misses.load(Ordering::Relaxed),
                entries: inner.statements.len() as u64,
            },
            recovery: inner.recovery.clone(),
        }
    }
}

/// One client's connection: prepared statements plus a forked ledger
/// handle onto the service pools. Sessions are `Send + Sync`; a session
/// shared across threads multiplexes them onto the service's bounded
/// execution capacity.
pub struct Session {
    service: Arc<ServiceInner>,
    ledger: Mutex<Budget>,
    /// Prepared statements with their SQL text, which a handle whose plan
    /// was retired is resolved from again.
    statements: Mutex<HashMap<StatementId, (Arc<str>, Statement)>>,
    next_stmt: AtomicU64,
}

/// RAII admission permit: dropping it (on any path, including unwind)
/// returns the byte slice to the pool, decrements the in-flight count and
/// deregisters the cancel token — permits always drain.
struct Permit<'a> {
    session: &'a Session,
    query_id: u64,
    slice: u64,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let svc = &*self.session.service;
        lock(&svc.live).remove(&self.query_id);
        if self.slice > 0 {
            lock(&self.session.ledger).uncharge_bytes(self.slice);
        }
        svc.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Session {
    /// Compiles `sql` — through the service-wide statement cache, so a
    /// text any session has already compiled plans nothing — and keeps
    /// the shared compiled statement for repeated execution. Syntax
    /// errors and unknown tables or columns surface here, consuming no
    /// permit and no pool slice.
    pub fn prepare(&self, sql: &str) -> Result<StatementId, ServiceError> {
        if self.service.shutting_down.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let (stmt, _) = self.service.resolve(sql)?;
        let id = StatementId(self.next_stmt.fetch_add(1, Ordering::Relaxed));
        lock(&self.statements).insert(id, (sql.into(), stmt));
        Ok(id)
    }

    /// Drops a prepared statement; returns whether it existed.
    pub fn close(&self, id: StatementId) -> bool {
        lock(&self.statements).remove(&id).is_some()
    }

    /// Number of statements currently prepared in this session.
    pub fn prepared_count(&self) -> usize {
        lock(&self.statements).len()
    }

    /// Executes a previously prepared statement.
    pub fn execute_prepared(&self, id: StatementId) -> Result<QueryOutcome, ServiceError> {
        self.execute_prepared_with_token(id, CancelToken::new())
    }

    /// Like [`Session::execute_prepared`], with a caller-held token: the
    /// caller can [`CancelToken::cancel`] from another thread and the
    /// engine aborts cooperatively at its next budget poll.
    pub fn execute_prepared_with_token(
        &self,
        id: StatementId,
        token: CancelToken,
    ) -> Result<QueryOutcome, ServiceError> {
        let (sql, mut stmt) = lock(&self.statements)
            .get(&id)
            .cloned()
            .ok_or(ServiceError::UnknownStatement(id))?;
        let t0 = Instant::now();
        let mut compiled_as = None;
        if matches!(&stmt, Statement::Compiled(c) if c.is_retired()) {
            // The plan this handle holds failed since it was prepared:
            // resolve the text again (another session may already have)
            // and keep the result, so the handle recompiles once instead
            // of on every execution.
            (stmt, compiled_as) = self.service.resolve(&sql)?;
            if let Some(prepared) = lock(&self.statements).get_mut(&id) {
                prepared.1 = stmt.clone();
            }
        }
        self.run_resolved(&stmt, t0.elapsed(), compiled_as, token)
    }

    /// Compiles (or finds compiled) and executes `sql` in one call.
    pub fn execute_sql(&self, sql: &str) -> Result<QueryOutcome, ServiceError> {
        self.execute_sql_with_token(sql, CancelToken::new())
    }

    /// Like [`Session::execute_sql`], with a caller-held cancel token.
    pub fn execute_sql_with_token(
        &self,
        sql: &str,
        token: CancelToken,
    ) -> Result<QueryOutcome, ServiceError> {
        // Resolve before admission: a statement that cannot be compiled
        // should not consume a permit or a pool slice.
        let t0 = Instant::now();
        let (stmt, compiled_as) = self.service.resolve(sql)?;
        self.run_resolved(&stmt, t0.elapsed(), compiled_as, token)
    }

    /// Admits and runs a statement that took `resolve` to resolve. The
    /// resolve is the call's planning; when it compiled the text
    /// (`compiled_as`), the outcome reports how that compilation was
    /// served.
    fn run_resolved(
        &self,
        stmt: &Statement,
        resolve: Duration,
        compiled_as: Option<PlanCacheStatus>,
        token: CancelToken,
    ) -> Result<QueryOutcome, ServiceError> {
        let permit = self.admit(token.clone())?;
        let out = self.run(stmt, &token);
        drop(permit);
        let mut outcome = out?;
        outcome.planning += resolve;
        if let Some(status) = compiled_as {
            outcome.plan_cache = status;
        }
        Ok(outcome)
    }

    /// Admission control: bounded in-flight count, then a byte-slice
    /// reservation against the shared pool, then the tuple quota. Each
    /// step rolls back the previous ones on rejection.
    fn admit(&self, token: CancelToken) -> Result<Permit<'_>, ServiceError> {
        let svc = &*self.service;
        if svc.shutting_down.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let limit = svc.config.max_in_flight;
        if svc
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < limit).then_some(n + 1)
            })
            .is_err()
        {
            svc.rejected_overload.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Overloaded { limit });
        }
        let slice = svc.slice;
        if slice > 0 && !lock(&self.ledger).try_reserve_bytes(slice) {
            svc.in_flight.fetch_sub(1, Ordering::AcqRel);
            svc.rejected_memory.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::MemoryDenied {
                requested: slice,
                pool: svc.config.mem_pool.unwrap_or(0),
            });
        }
        if let Some(quota) = svc.config.tuple_pool {
            let used = lock(&self.ledger).charged();
            if used >= quota {
                if slice > 0 {
                    lock(&self.ledger).uncharge_bytes(slice);
                }
                svc.in_flight.fetch_sub(1, Ordering::AcqRel);
                svc.rejected_quota.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::TupleQuotaExhausted { used, quota });
            }
        }
        let query_id = svc.next_query.fetch_add(1, Ordering::Relaxed);
        lock(&svc.live).insert(query_id, token);
        let permit = Permit {
            session: self,
            query_id,
            slice,
        };
        // Close the race with a concurrent shutdown(): if the flag was
        // set after the entry check but before the token registration,
        // the shutdown sweep may have missed this token — reject (the
        // permit's Drop rolls everything back).
        if svc.shutting_down.load(Ordering::Acquire) {
            drop(permit);
            return Err(ServiceError::ShuttingDown);
        }
        svc.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(permit)
    }

    /// The per-query budget: memory slice, tuple cap, timeout and the
    /// registered cancel token.
    fn query_budget(&self, token: &CancelToken) -> Budget {
        let svc = &*self.service;
        let mut b = Budget::unlimited().with_cancel_token(token.clone());
        if svc.slice > 0 {
            b = b.with_mem_limit(svc.slice);
        }
        if let Some(n) = svc.config.query_tuples {
            b = b.with_max_tuples(n);
        }
        if let Some(t) = svc.config.query_timeout {
            b = b.with_timeout(t);
        }
        b
    }

    /// Executes an (already admitted) statement under its query budget,
    /// then settles its tuple usage against the service quota.
    fn run(&self, stmt: &Statement, token: &CancelToken) -> Result<QueryOutcome, ServiceError> {
        let svc = &*self.service;
        let mut budget = self.query_budget(token);
        let outcome = match stmt {
            Statement::Compiled(compiled) => {
                svc.optimizer.execute_compiled(&svc.db, compiled, budget)
            }
            Statement::Nested(stmt) => {
                let (db, flat) = flatten_subqueries(&svc.db, stmt, &mut budget)
                    .map_err(|e| ServiceError::Sql(SqlError::Nested(e)))?;
                let q = isolate(&flat, &db, svc.optimizer.isolator)
                    .map_err(|e| ServiceError::Sql(SqlError::Isolate(e)))?;
                svc.optimizer.execute_cq(&db, &q, budget)
            }
        };
        if svc.config.tuple_pool.is_some() && outcome.tuples > 0 {
            // Drain the shared quota through a throwaway fork: its Drop
            // flushes the batched charge, so sessions see each other's
            // usage exactly at the next admission.
            let mut drain = lock(&self.ledger).fork();
            let _ = drain.charge(outcome.tuples);
        }
        match &outcome.result {
            Ok(_) => svc.completed_ok.fetch_add(1, Ordering::Relaxed),
            Err(_) => svc.completed_err.fetch_add(1, Ordering::Relaxed),
        };
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_core::QhdOptions;
    use htqo_engine::error::EvalError;
    use htqo_eval::evaluate_naive;
    use htqo_workloads::{workload_db, WorkloadSpec};

    fn service(config: ServiceConfig) -> QueryService {
        let db = workload_db(&WorkloadSpec::new(3, 60, 6, 7));
        let stats = htqo_stats::analyze(&db);
        let optimizer = HybridOptimizer::with_stats(QhdOptions::default(), stats);
        QueryService::new(db, optimizer, config)
    }

    const CHAIN: &str = "SELECT p0.l FROM p0, p1, p2 \
                         WHERE p0.r = p1.l AND p1.r = p2.l AND p2.r = p0.l";

    #[test]
    fn answers_match_the_naive_oracle() {
        let svc = service(ServiceConfig::default());
        let session = svc.session();
        let outcome = session.execute_sql(CHAIN).unwrap();
        let answer = outcome.result.unwrap();

        let stmt = parse_select(CHAIN).unwrap();
        let q = isolate(&stmt, svc.database(), htqo_cq::IsolatorOptions::default()).unwrap();
        let oracle = evaluate_naive(svc.database(), &q, &mut Budget::unlimited())
            .and_then(|ans| htqo_engine::aggregate::finalize(&ans, &q, &mut Budget::unlimited()))
            .unwrap();
        assert!(answer.set_eq(&oracle));
        let m = svc.metrics();
        assert_eq!(m.admitted, 1);
        assert_eq!(m.completed_ok, 1);
        assert_eq!(m.in_flight, 0);
    }

    /// A statement is compiled once, service-wide: `prepare` plans, every
    /// execution afterwards — prepared or ad hoc, from any session — runs
    /// the shared plan and reports a hit.
    #[test]
    fn prepared_statements_reuse_the_plan_cache() {
        let svc = service(ServiceConfig::default());
        let session = svc.session();
        let id = session.prepare(CHAIN).unwrap();
        let m = svc.metrics();
        assert_eq!(m.plan_cache.misses, 1, "prepare compiles");
        assert_eq!(m.admitted, 0, "prepare consumes no admission");
        assert_eq!(
            m.statement_cache,
            StatementCacheStats {
                hits: 0,
                misses: 1,
                entries: 1
            }
        );
        let first = session.execute_prepared(id).unwrap();
        assert_eq!(first.plan_cache, PlanCacheStatus::Hit);
        let second = session.execute_prepared(id).unwrap();
        assert_eq!(second.plan_cache, PlanCacheStatus::Hit);
        assert!(second.result.unwrap().set_eq(&first.result.unwrap()));

        // A *different* session of the same service shares the compiled
        // statement: preparing the same text plans nothing.
        let other = svc.session();
        let id2 = other.prepare(CHAIN).unwrap();
        assert_eq!(
            other.execute_prepared(id2).unwrap().plan_cache,
            PlanCacheStatus::Hit
        );
        assert_eq!(
            other.execute_sql(CHAIN).unwrap().plan_cache,
            PlanCacheStatus::Hit
        );
        let m = svc.metrics();
        assert_eq!(m.plan_cache.misses, 1, "planned exactly once");
        assert_eq!(m.plan_cache.hits + m.plan_cache.revalidated, 0);
        assert_eq!(
            m.statement_cache,
            StatementCacheStats {
                hits: 2,
                misses: 1,
                entries: 1
            }
        );

        assert!(session.close(id));
        assert!(matches!(
            session.execute_prepared(id),
            Err(ServiceError::UnknownStatement(_))
        ));
        assert_eq!(session.prepared_count(), 0);
    }

    /// An ad hoc statement reports how its text was resolved: compiled
    /// cold, compiled on the optimizer's shape level (a renamed
    /// isomorphic text), or not compiled at all.
    #[test]
    fn ad_hoc_statements_report_the_cache_level_that_served_them() {
        let svc = service(ServiceConfig::default());
        let session = svc.session();
        let cold = session.execute_sql(CHAIN).unwrap();
        assert_eq!(cold.plan_cache, PlanCacheStatus::Miss);
        let text_hit = session.execute_sql(CHAIN).unwrap();
        assert_eq!(text_hit.plan_cache, PlanCacheStatus::Hit);
        assert_eq!(text_hit.plan, cold.plan);
        assert_eq!(text_hit.tuples, cold.tuples);
        let renamed = "SELECT b.l FROM p1 b, p2 c, p0 a \
                       WHERE b.r = c.l AND c.r = a.l AND a.r = b.l";
        let shape_hit = session.execute_sql(renamed).unwrap();
        assert_eq!(shape_hit.plan_cache, PlanCacheStatus::Revalidated);
        let m = svc.metrics();
        assert_eq!(m.plan_cache.misses, 1);
        assert_eq!(m.plan_cache.revalidated, 1);
        assert_eq!(m.statement_cache.misses, 2);
        assert_eq!(m.statement_cache.hits, 1);
    }

    /// Unknown tables and columns surface when the text is compiled, as
    /// parse errors do: at `prepare`, and before admission.
    #[test]
    fn translation_errors_surface_at_prepare_without_admission() {
        let svc = service(ServiceConfig {
            mem_pool: Some(1 << 20),
            ..ServiceConfig::default()
        });
        let session = svc.session();
        for sql in [
            "SELECT nope.l FROM nope",
            "SELECT p0.missing FROM p0, p1 WHERE p0.r = p1.l",
        ] {
            assert!(matches!(
                session.prepare(sql),
                Err(ServiceError::Sql(SqlError::Isolate(_)))
            ));
            assert!(matches!(
                session.execute_sql(sql),
                Err(ServiceError::Sql(SqlError::Isolate(_)))
            ));
        }
        let m = svc.metrics();
        assert_eq!(m.admitted, 0);
        assert_eq!(m.pool_bytes_reserved, 0);
        assert_eq!(
            m.statement_cache.entries, 0,
            "nothing cached for a bad text"
        );
        assert_eq!(session.prepared_count(), 0);
    }

    /// A statement with an `IN (SELECT …)` predicate materializes data
    /// under its own budget: it is compiled per execution and never
    /// enters the statement cache, prepared or not.
    #[test]
    fn nested_statements_compile_per_execution() {
        let svc = service(ServiceConfig::default());
        let session = svc.session();
        let nested = "SELECT p0.l FROM p0, p1 WHERE p0.r = p1.l \
                      AND p1.r IN (SELECT p2.l FROM p2 WHERE p2.r = 1)";
        let flat = "SELECT p0.l FROM p0, p1, p2 WHERE p0.r = p1.l \
                    AND p1.r = p2.l AND p2.r = 1";
        let oracle = session.execute_sql(flat).unwrap().result.unwrap();
        let entries = svc.metrics().statement_cache.entries;
        let id = session.prepare(nested).unwrap();
        for out in [
            session.execute_prepared(id).unwrap(),
            session.execute_sql(nested).unwrap(),
            session.execute_prepared(id).unwrap(),
        ] {
            assert_ne!(out.plan_cache, PlanCacheStatus::Uncached);
            assert!(out.result.unwrap().set_eq(&oracle));
        }
        assert_eq!(svc.metrics().statement_cache.entries, entries);
    }

    /// With the optimizer's plan cache off there is no statement cache
    /// either: every ad hoc execution compiles, nothing is retained
    /// service-wide; a prepared statement still holds its own plan.
    #[test]
    fn capacity_zero_disables_the_statement_cache() {
        let db = workload_db(&WorkloadSpec::new(3, 60, 6, 7));
        let stats = htqo_stats::analyze(&db);
        let optimizer =
            HybridOptimizer::with_stats(QhdOptions::default(), stats).with_cache_capacity(0);
        let svc = QueryService::new(db, optimizer, ServiceConfig::default());
        let session = svc.session();
        for _ in 0..2 {
            let out = session.execute_sql(CHAIN).unwrap();
            assert_eq!(out.plan_cache, PlanCacheStatus::Uncached);
        }
        let id = session.prepare(CHAIN).unwrap();
        assert_eq!(
            session.execute_prepared(id).unwrap().plan_cache,
            PlanCacheStatus::Hit
        );
        assert_eq!(
            svc.metrics().statement_cache,
            StatementCacheStats::default()
        );
        assert_eq!(svc.optimizer().cached_plans(), 0);
    }

    /// Warm restart through the service: ingest the workload into a paged
    /// [`htqo_storage::StorageDb`], reopen it with [`QueryService::open_paged`],
    /// and check (a) answers match the in-memory service bit for bit,
    /// (b) the loaded indexes are in the catalog, and (c) resident
    /// buffer-pool pages are charged against the shared admission pool.
    #[test]
    fn open_paged_service_restores_tables_and_charges_the_pool() {
        let dir = std::env::temp_dir().join(format!("htqo-svc-paged-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mem_db = workload_db(&WorkloadSpec::new(3, 60, 6, 7));
        let storage = htqo_storage::StorageDb::open(&dir).unwrap();
        for (name, rel) in mem_db.tables() {
            storage.ingest(name, rel, &["l"]).unwrap();
        }

        let svc = QueryService::open_paged(
            &storage,
            4 * 1024 * 1024,
            ServiceConfig {
                mem_pool: Some(64 * 1024 * 1024),
                ..ServiceConfig::default()
            },
            |db| HybridOptimizer::with_stats(QhdOptions::default(), htqo_stats::analyze(db)),
        )
        .unwrap();
        assert!(svc.database().has_indexes(), "indexes survive the restart");
        assert!(
            svc.metrics().pool_bytes_reserved > 0,
            "resident pages charge the shared pool"
        );

        let paged = svc.session().execute_sql(CHAIN).unwrap().result.unwrap();
        let mem_svc = service(ServiceConfig::default());
        let oracle = mem_svc
            .session()
            .execute_sql(CHAIN)
            .unwrap()
            .result
            .unwrap();
        assert!(paged.set_eq(&oracle));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_capacity_rejects_with_overloaded() {
        let svc = service(ServiceConfig {
            max_in_flight: 0,
            ..ServiceConfig::default()
        });
        let session = svc.session();
        let err = session.execute_sql(CHAIN).unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { limit: 0 }));
        assert!(err.is_rejection());
        assert_eq!(svc.metrics().rejected_overload, 1);
    }

    #[test]
    fn memory_pool_admission_denies_and_returns_slices() {
        // Pool covers exactly one slice: a second concurrent admission
        // would be denied; sequential queries each get the slice back.
        let svc = service(ServiceConfig {
            max_in_flight: 4,
            mem_pool: Some(1 << 20),
            query_mem: Some(1 << 20),
            ..ServiceConfig::default()
        });
        let session = svc.session();
        for _ in 0..3 {
            let outcome = session.execute_sql(CHAIN).unwrap();
            assert!(outcome.result.is_ok());
        }
        let m = svc.metrics();
        assert_eq!(m.pool_bytes_reserved, 0, "slices returned when idle");
        assert_eq!(m.rejected_memory, 0);

        // A slice larger than the pool is denied outright.
        let tight = service(ServiceConfig {
            mem_pool: Some(1024),
            query_mem: Some(4096),
            ..ServiceConfig::default()
        });
        let s = tight.session();
        assert!(matches!(
            s.execute_sql(CHAIN),
            Err(ServiceError::MemoryDenied {
                requested: 4096,
                pool: 1024
            })
        ));
        assert_eq!(tight.metrics().rejected_memory, 1);
        assert_eq!(tight.metrics().in_flight, 0, "permit rolled back");
    }

    #[test]
    fn tuple_quota_drains_exactly_and_then_rejects() {
        let svc = service(ServiceConfig {
            tuple_pool: Some(1),
            ..ServiceConfig::default()
        });
        // Two sessions: the first query's usage must be visible to the
        // second session's admission (exact cross-fork accounting).
        let a = svc.session();
        let b = svc.session();
        let first = a.execute_sql(CHAIN).unwrap();
        assert!(first.tuples > 0);
        assert_eq!(svc.metrics().pool_tuples_charged, first.tuples);
        let err = b.execute_sql(CHAIN).unwrap_err();
        assert!(
            matches!(err, ServiceError::TupleQuotaExhausted { used, quota: 1 } if used == first.tuples)
        );
        assert_eq!(svc.metrics().rejected_quota, 1);
    }

    #[test]
    fn shutdown_rejects_new_work_and_cancels_tokens() {
        let svc = service(ServiceConfig::default());
        let session = svc.session();
        let id = session.prepare(CHAIN).unwrap();
        assert!(!svc.is_shutting_down());
        assert_eq!(svc.shutdown(), 0);
        assert!(svc.is_shutting_down());
        assert!(matches!(
            session.execute_prepared(id),
            Err(ServiceError::ShuttingDown)
        ));
        assert!(matches!(
            session.prepare(CHAIN),
            Err(ServiceError::ShuttingDown)
        ));
        assert!(matches!(
            session.execute_sql(CHAIN),
            Err(ServiceError::ShuttingDown)
        ));
        assert_eq!(svc.metrics().in_flight, 0);
    }

    /// A client that cancels its own query gets `Cancelled` and drains
    /// its permit — and throws away nothing that other sessions share:
    /// the plan and the compiled statement stay, the next execution of
    /// that text is a hit.
    #[test]
    fn cancelled_query_aborts_cooperatively_and_keeps_the_plan() {
        // Enough rows that the engine polls the token mid-join.
        let db = workload_db(&WorkloadSpec::new(3, 800, 4, 11));
        let stats = htqo_stats::analyze(&db);
        let optimizer = HybridOptimizer::with_stats(QhdOptions::default(), stats);
        let svc = QueryService::new(db, optimizer, ServiceConfig::default());
        let session = svc.session();
        assert!(session.execute_sql(CHAIN).unwrap().result.is_ok());
        let before = svc.metrics();
        assert_eq!(svc.optimizer().cached_plans(), 1);

        let token = CancelToken::new();
        token.cancel();
        let outcome = session
            .execute_sql_with_token(CHAIN, token)
            .expect("admission succeeds; cancellation surfaces in the outcome");
        assert!(matches!(outcome.result, Err(EvalError::Cancelled)));
        let m = svc.metrics();
        assert_eq!(m.completed_err, 1);
        assert_eq!(m.in_flight, 0, "permit drained after cancellation");
        assert_eq!(m.pool_bytes_reserved, 0);

        assert_eq!(svc.optimizer().cached_plans(), 1, "the plan stays");
        let next = session.execute_sql(CHAIN).unwrap();
        assert_eq!(next.plan_cache, PlanCacheStatus::Hit);
        assert!(next.result.is_ok());
        let m = svc.metrics();
        assert_eq!(m.plan_cache, before.plan_cache, "nothing replanned");
        assert_eq!(m.statement_cache.misses, before.statement_cache.misses);
        assert_eq!(m.statement_cache.entries, 1);
    }

    /// A plan that failed for a retryable reason is not served again: the
    /// optimizer evicts it, the statement cache compiles the text afresh,
    /// and a session still holding the prepared statement recompiles.
    #[test]
    fn retryably_failed_plan_is_recompiled_everywhere() {
        let db = workload_db(&WorkloadSpec::new(3, 800, 4, 11));
        let stats = htqo_stats::analyze(&db);
        let optimizer = HybridOptimizer::with_stats(QhdOptions::default(), stats)
            .with_retry(htqo_optimizer::RetryPolicy::none());
        let tight = QueryService::new(
            db,
            optimizer,
            ServiceConfig {
                query_tuples: Some(3),
                ..ServiceConfig::default()
            },
        );
        let session = tight.session();
        let id = session.prepare(CHAIN).unwrap();
        assert_eq!(tight.metrics().plan_cache.misses, 1);
        let out = session.execute_prepared(id).unwrap();
        assert!(out.is_dnf(), "{}", out.plan);
        assert_eq!(tight.optimizer().cached_plans(), 0, "failed plan evicted");
        // Neither the prepared handle nor the text serves it again.
        let again = session.execute_prepared(id).unwrap();
        assert_eq!(again.plan_cache, PlanCacheStatus::Miss);
        let ad_hoc = session.execute_sql(CHAIN).unwrap();
        assert_eq!(ad_hoc.plan_cache, PlanCacheStatus::Miss);
        assert_eq!(tight.metrics().statement_cache.hits, 0);
    }

    #[test]
    fn parse_errors_consume_no_admission() {
        let svc = service(ServiceConfig {
            tuple_pool: Some(1_000_000),
            mem_pool: Some(1 << 20),
            ..ServiceConfig::default()
        });
        let session = svc.session();
        assert!(matches!(
            session.execute_sql("SELEKT nope"),
            Err(ServiceError::Sql(SqlError::Parse(_)))
        ));
        let m = svc.metrics();
        assert_eq!(m.admitted, 0);
        assert_eq!(m.pool_bytes_reserved, 0);
        assert_eq!(m.pool_tuples_charged, 0);
    }
}
