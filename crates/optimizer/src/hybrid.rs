//! The paper's **hybrid optimizer**: structural decomposition guided by
//! quantitative statistics (Sections 4–5).
//!
//! Pipeline (Figure 5): *Sql Analyzer* → *Statistics Picker* →
//! `cost-k-decomp` → q-hypertree evaluation (tight coupling) or SQL-view
//! rewriting (stand-alone, see [`crate::views`]).
//!
//! On top of the paper's pipeline sits a graceful-degradation ladder (see
//! [`RetryPolicy`]): when q-HD planning or evaluation fails for a
//! *retryable* reason (budget exhaustion, a contained panic, an
//! internal error), execution falls back to a cost-based bushy join tree
//! and finally to the naive join order, each rung running under a renewed
//! (optionally escalated) budget. [`QueryOutcome::rung`] records which
//! strategy answered and [`QueryOutcome::attempts`] what failed before it.

use crate::bushy::dp_bushy;
use crate::bushy_exec::evaluate_join_tree;
use crate::dbms::{FallbackAttempt, PlanCacheStatus, QueryOutcome, Rung, SqlError};
use crate::lru::ShardedLru;
use htqo_core::cost::DecompCost;
use htqo_core::{
    q_hypertree_decomp, q_hypertree_decomp_raw, recost_lambda, remap_tree, tree_cost, validate,
    Hypertree, QhdFailure, QhdOptions, QhdPlan, RawQhd, StructuralCost,
};
use htqo_cq::{isolate, parse_select, ConjunctiveQuery, CqHypergraph, IsolatorOptions};
use htqo_engine::error::{Budget, EvalError, SpillMode};
use htqo_engine::schema::Database;
use htqo_engine::vrel::VRelation;
use htqo_eval::{evaluate_naive, evaluate_qhd_query_traced, ExecOptions, FactorizedTrace};
use htqo_hypergraph::{canonical_form, CanonicalForm, VarSet};
use htqo_stats::{DbStats, StatsDecompCost};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How [`HybridOptimizer::execute_cq`] degrades when a strategy fails.
///
/// The ladder descends q-HD → bushy tree → naive join. A rung is only
/// retried on *retryable* failures ([`EvalError::is_retryable`]):
/// cancellation and semantic errors (unknown tables/columns) abort the
/// ladder immediately, since no amount of re-planning fixes them.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Fall back to a cost-based bushy join tree when q-HD fails.
    pub fallback_bushy: bool,
    /// Fall back to the naive join order when the bushy rung also fails
    /// (or is inapplicable).
    pub fallback_naive: bool,
    /// Multiply the tuple/time limits by this factor on each fallback
    /// rung (compounding), e.g. `Some(2.0)` doubles then quadruples.
    /// `None` renews the original limits unchanged.
    pub escalate: Option<f64>,
    /// On [`EvalError::MemoryExceeded`], re-run the *same* rung once with
    /// spill-to-disk forced on before descending the ladder: a memory
    /// hit is better served by external memory with the same plan than
    /// by a structurally worse plan.
    pub spill_retry: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            fallback_bushy: true,
            fallback_naive: true,
            escalate: None,
            spill_retry: true,
        }
    }
}

impl RetryPolicy {
    /// No fallbacks: the first failure is the final answer. Used by the
    /// figure harnesses, where a DNF data point must stay a DNF data
    /// point rather than being rescued by another strategy.
    pub fn none() -> Self {
        RetryPolicy {
            fallback_bushy: false,
            fallback_naive: false,
            escalate: None,
            spill_retry: false,
        }
    }
}

/// Key identifying a cacheable planning problem. `Shape` keys carry the
/// complete canonical invariant, so two queries share a key **iff** their
/// marked hypergraphs are isomorphic — renamed relations, variables,
/// aliases and permuted atoms all collapse onto one entry. `Exact` keys
/// are the fallback when canonicalization exceeds its symmetry budget:
/// plain rendered-query memoization, always sound, never shape-shared.
#[derive(Clone, PartialEq, Eq, Hash)]
enum PlanKey {
    /// Canonical shape encoding plus the planning options baked into the
    /// cached tree (defensive: `options` is a public field).
    Shape {
        encoding: Vec<u32>,
        max_width: usize,
        run_optimize: bool,
    },
    /// Exact rendered query (already embeds the options — see
    /// [`HybridOptimizer::cache_key`]).
    Exact(String),
}

/// A cached decomposition.
enum CacheEntry {
    /// Shape-shared entry: the pre-`Optimize` tree transported into
    /// canonical index space, reusable by any isomorphic query.
    Shape {
        canon_tree: Hypertree,
        /// Preorder per-vertex cost sum at store time. A hit whose
        /// transported tree prices to exactly this value under current
        /// statistics skips λ re-costing entirely (stats unchanged ⇒
        /// bit-identical plan).
        stored_cost: f64,
        /// Statistics epoch at store time. A hit from a later epoch
        /// (ANALYZE ran) never takes that shortcut: it re-costs λ against
        /// the new statistics, then refreshes the entry in place.
        epoch: u64,
    },
    /// Exact-keyed entry (canonicalization over budget). A stale epoch
    /// is a miss: the plan was priced under old statistics and there is
    /// no canonical tree to revalidate, so it is replanned outright.
    Plain { plan: Arc<QhdPlan>, epoch: u64 },
}

/// Shape-canonical plan cache: the shared sharded LRU plus traffic
/// counters.
struct PlanCache {
    lru: ShardedLru<PlanKey, CacheEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    revalidated: AtomicU64,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            lru: ShardedLru::new(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            revalidated: AtomicU64::new(0),
        }
    }
}

/// Counters of plan-cache traffic since the optimizer was built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Exact hits: a query whose canonicalization ran over budget was
    /// served the finished plan cached under its rendering. (Compiled
    /// statements never reach the plan cache and are not counted here.)
    pub hits: u64,
    /// Misses: cost-k-decomp ran.
    pub misses: u64,
    /// Shape hits: an isomorphic query reused a cached decomposition
    /// after transport and λ re-costing (no cost-k-decomp).
    pub revalidated: u64,
}

/// Everything derived from keying one query: computed exactly once per
/// attempt (the single keying site — lookup, store, and failed-plan
/// eviction all reuse it).
struct Keyed {
    key: PlanKey,
    canon: Option<CanonicalForm>,
    ch: CqHypergraph,
    out_vars: VarSet,
}

/// A statement compiled once and executed many times: everything
/// [`HybridOptimizer::execute_cq`] derives from the query alone — the plan
/// (or why there is none), its description, the answer-size estimate —
/// so that [`HybridOptimizer::execute_compiled`] runs the fallback ladder
/// and nothing else. Immutable and shared (`Arc`) across sessions.
pub struct CompiledQuery {
    query: ConjunctiveQuery,
    /// The q-hypertree plan, or why there is none (the ladder then starts
    /// on its fallback rungs).
    plan: Result<Arc<QhdPlan>, QhdFailure>,
    /// Rung-0 plan description (`q-HD width=…`), empty without a plan.
    description: String,
    estimated_answer_rows: Option<f64>,
    /// Statistics epoch the plan was priced under; a later epoch makes
    /// the statement stale and [`HybridOptimizer::execute_compiled`]
    /// recompiles it first.
    epoch: u64,
    /// How the plan cache participated in compiling this statement.
    plan_cache: PlanCacheStatus,
    /// The plan-cache key, for evicting a plan whose execution failed.
    key: Option<PlanKey>,
    /// Set when the plan failed retryably at execution: like a stale
    /// epoch, every holder of this statement recompiles before running it
    /// again rather than serving the plan that just failed.
    retired: AtomicBool,
}

impl CompiledQuery {
    /// How the plan cache participated when this statement was compiled.
    pub fn plan_cache(&self) -> PlanCacheStatus {
        self.plan_cache
    }

    /// True once this statement's plan failed retryably at execution: a
    /// cache holding it should compile the text afresh.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Relaxed)
    }
}

/// The hybrid structural+quantitative optimizer.
///
/// `Send + Sync`: one optimizer serves many concurrent sessions (see the
/// service crate), with the plan cache internally lock-striped.
pub struct HybridOptimizer {
    /// Decomposition options (width bound, whether to run `Optimize`).
    pub options: QhdOptions,
    /// Statistics for the cost model; `None` = purely structural mode
    /// (the paper's q-HD "without any information on the data").
    pub stats: Option<DbStats>,
    /// SQL-to-CQ translation options.
    pub isolator: IsolatorOptions,
    /// Graceful-degradation policy for [`HybridOptimizer::execute_cq`].
    pub retry: RetryPolicy,
    /// Shape-canonical plan cache: decompositions depend only on the
    /// query's hypergraph shape and output marking, so every query
    /// isomorphic to a cached one (renamed relations/variables, permuted
    /// atoms) skips cost-k-decomp and only re-costs λ choices. Bounded
    /// with per-shard LRU eviction; plans whose execution failed are
    /// evicted.
    cache: PlanCache,
    /// Statistics epoch, bumped by [`HybridOptimizer::refresh_stats`]
    /// (the ANALYZE hook). Cache entries remember the epoch they were
    /// priced under; a hit from an older epoch deterministically
    /// revalidates instead of being served verbatim.
    stats_epoch: AtomicU64,
    /// Secondary indexes available to the evaluator, fed to the cost
    /// model (see [`HybridOptimizer::with_index_catalog`]). Empty keeps
    /// costing bit-identical to an index-free catalog.
    indexed: Vec<(String, String)>,
}

/// Compile-time proof that the optimizer can be shared across threads.
#[allow(dead_code)]
fn assert_optimizer_is_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<HybridOptimizer>();
}

impl HybridOptimizer {
    /// Structural-only optimizer (no statistics). Plan-cache capacity
    /// comes from the process-wide default (`HTQO_PLAN_CACHE`, 128 when
    /// unset).
    pub fn structural(options: QhdOptions) -> Self {
        HybridOptimizer {
            options,
            stats: None,
            isolator: IsolatorOptions::default(),
            retry: RetryPolicy::default(),
            cache: PlanCache::new(htqo_engine::exec::plan_cache_default()),
            stats_epoch: AtomicU64::new(0),
            indexed: Vec::new(),
        }
    }

    /// Hybrid optimizer with statistics.
    pub fn with_stats(options: QhdOptions, stats: DbStats) -> Self {
        HybridOptimizer {
            stats: Some(stats),
            ..HybridOptimizer::structural(options)
        }
    }

    /// Sets the retry/fallback policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Resizes the plan cache (builder style). Existing entries and
    /// traffic counters are dropped. A capacity of 0 disables caching.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = PlanCache::new(capacity);
        self
    }

    /// Declares the catalog's secondary indexes as `(table, column)`
    /// pairs (builder style; typically
    /// `db.indexed_columns()`). The cost model then prices seekable
    /// joins without their base-table scan, steering cost-k-decomp
    /// toward decompositions the index-seek kernel executes cheaply.
    /// An empty catalog — the default — leaves every cost bit-identical.
    pub fn with_index_catalog(mut self, indexed: Vec<(String, String)>) -> Self {
        self.indexed = indexed;
        self
    }

    /// Installs freshly gathered statistics (the ANALYZE hook) and bumps
    /// the statistics epoch. Cached plans priced under the old epoch are
    /// not served verbatim again: shape entries deterministically re-cost
    /// their λ choices against the new statistics on the next hit (and
    /// re-stamp themselves), exact-keyed entries replan.
    pub fn refresh_stats(&mut self, stats: Option<DbStats>) {
        self.stats = stats;
        self.stats_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// The current statistics epoch (bumped by
    /// [`HybridOptimizer::refresh_stats`]).
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch.load(Ordering::Relaxed)
    }

    /// The exact rendered cache key: query rule text (variables, atoms,
    /// filters) plus the planning options. Rendered only for queries
    /// without a canonical form.
    fn cache_key(&self, q: &ConjunctiveQuery) -> String {
        format!(
            "{q}|k={}|opt={}",
            self.options.max_width, self.options.run_optimize
        )
    }

    /// Keys a query for this attempt — the **single keying site**:
    /// lookup, store, and failed-plan eviction all reuse the returned
    /// value, so the keying logic cannot drift between them.
    fn key_query(&self, q: &ConjunctiveQuery) -> Keyed {
        let ch = q.hypergraph();
        let out_vars = ch.out_var_set(q);
        let canon = canonical_form(&ch.hypergraph, &out_vars);
        let key = match &canon {
            Some(c) => PlanKey::Shape {
                encoding: c.encoding.clone(),
                max_width: self.options.max_width,
                run_optimize: self.options.run_optimize,
            },
            None => PlanKey::Exact(self.cache_key(q)),
        };
        Keyed {
            key,
            canon,
            ch,
            out_vars,
        }
    }

    /// Runs `f` with this optimizer's vertex cost model for `q`.
    fn with_cost<R>(&self, q: &ConjunctiveQuery, f: impl FnOnce(&dyn DecompCost) -> R) -> R {
        match &self.stats {
            Some(stats) => {
                let cost = StatsDecompCost::new(stats, q)
                    .with_assume_optimize(self.options.run_optimize)
                    .with_indexes(&self.indexed);
                f(&cost)
            }
            None => f(&StructuralCost),
        }
    }

    /// Like [`HybridOptimizer::plan_cq`], but memoizes plans by canonical
    /// hypergraph shape (prepared-statement reuse): a repeat — verbatim or
    /// isomorphic-but-renamed — skips cost-k-decomp and only re-costs λ
    /// (cover) choices, and those only when the tree's price moved under
    /// this optimizer's statistics. The key includes `out(Q)` via the
    /// canonical marking.
    pub fn plan_cq_cached(&self, q: &ConjunctiveQuery) -> Result<QhdPlan, QhdFailure> {
        if !self.cache.lru.enabled() {
            return self.plan_cq(q);
        }
        let keyed = self.key_query(q);
        // The deep copy this signature asks for happens here, after the
        // shard lock is released.
        self.plan_cq_keyed(q, &keyed).0.map(Arc::unwrap_or_clone)
    }

    /// The keyed planning path. Returns the plan and how the cache
    /// participated.
    fn plan_cq_keyed(
        &self,
        q: &ConjunctiveQuery,
        keyed: &Keyed,
    ) -> (Result<Arc<QhdPlan>, QhdFailure>, PlanCacheStatus) {
        /// What the probe found under the shard lock.
        enum Probe {
            /// Exact-keyed hit: the finished plan, shared.
            Plan(Arc<QhdPlan>),
            /// Shape entry to revalidate outside the lock: canonical
            /// tree, stored cost, and whether its epoch is behind.
            Shape(Hypertree, f64, bool),
        }
        let epoch_now = self.stats_epoch.load(Ordering::Relaxed);
        // Entries stamped by an older statistics epoch are not served as
        // stored: stale shape entries force a λ re-cost (`stale` below),
        // stale exact entries replan as a miss.
        let probe = self
            .cache
            .lru
            .with(&keyed.key, |entry| match entry {
                CacheEntry::Plain { plan, epoch } => {
                    (*epoch == epoch_now).then(|| Probe::Plan(Arc::clone(plan)))
                }
                CacheEntry::Shape {
                    canon_tree,
                    stored_cost,
                    epoch,
                } => {
                    let stale = *epoch != epoch_now;
                    // NAN never equals the current price, so a stale hit
                    // cannot take revalidate's cost-unchanged shortcut.
                    Some(Probe::Shape(
                        canon_tree.clone(),
                        if stale { f64::NAN } else { *stored_cost },
                        stale,
                    ))
                }
            })
            .flatten();

        match probe {
            Some(Probe::Plan(plan)) => {
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                return (Ok(plan), PlanCacheStatus::Hit);
            }
            // Shape hit: transport + re-cost, no cost-k-decomp. Planning
            // work runs outside the shard lock.
            Some(Probe::Shape(canon_tree, stored_cost, stale)) => {
                if let Some((plan, final_tree, final_cost)) =
                    self.revalidate(q, keyed, &canon_tree, stored_cost)
                {
                    self.cache.revalidated.fetch_add(1, Ordering::Relaxed);
                    if stale {
                        // Re-stamp the entry under the new statistics so
                        // the *next* hit skips the λ re-cost again — with
                        // the choices this revalidation just settled.
                        self.cache.lru.with(&keyed.key, |entry| {
                            let CacheEntry::Shape {
                                canon_tree,
                                stored_cost,
                                epoch,
                            } = entry
                            else {
                                return;
                            };
                            if let Some(c) = keyed.canon.as_ref() {
                                *canon_tree =
                                    remap_tree(&final_tree, &c.var_to_canon, &c.edge_to_canon);
                            }
                            *stored_cost = final_cost;
                            *epoch = epoch_now;
                        });
                    }
                    return (Ok(Arc::new(plan)), PlanCacheStatus::Revalidated);
                }
                // Defensive: a transported tree that fails validation
                // (which soundness of the canonical key rules out) falls
                // through to a full replan that overwrites the entry.
            }
            None => {}
        }

        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        let raw = match self.with_cost(q, |cost| q_hypertree_decomp_raw(q, &self.options, cost)) {
            Ok(raw) => raw,
            Err(fail) => return (Err(fail), PlanCacheStatus::Miss),
        };
        // The shape entry keeps the pre-`Optimize` tree, so it is taken
        // before `finish` consumes the raw decomposition.
        let shape = keyed.canon.as_ref().map(|canon| {
            let canon_tree = remap_tree(&raw.tree, &canon.var_to_canon, &canon.edge_to_canon);
            let stored_cost = self.with_cost(q, |cost| {
                tree_cost(&raw.cq_hypergraph.hypergraph, &raw.tree, cost)
            });
            (canon_tree, stored_cost)
        });
        let plan = Arc::new(raw.finish(&self.options));
        let entry = match shape {
            Some((canon_tree, stored_cost)) => CacheEntry::Shape {
                canon_tree,
                stored_cost,
                epoch: epoch_now,
            },
            None => CacheEntry::Plain {
                plan: Arc::clone(&plan),
                epoch: epoch_now,
            },
        };
        self.cache.lru.insert(keyed.key.clone(), entry);
        (Ok(plan), PlanCacheStatus::Miss)
    }

    /// The shape-hit path: transports a cached canonical tree onto `q`,
    /// prices it under current statistics, re-costs λ choices only when
    /// the price moved, and finishes with `Optimize`. Returns the plan
    /// plus the final query-space tree and its cost under current stats
    /// (for re-stamping stale entries). Returns `None` if the transported
    /// tree is not a valid decomposition of `q` (cannot happen with a
    /// sound canonical key; checked anyway).
    fn revalidate(
        &self,
        q: &ConjunctiveQuery,
        keyed: &Keyed,
        canon_tree: &Hypertree,
        stored_cost: f64,
    ) -> Option<(QhdPlan, Hypertree, f64)> {
        let canon = keyed.canon.as_ref()?;
        let mut tree = remap_tree(canon_tree, &canon.canon_to_var(), &canon.canon_to_edge());
        if validate::check_qhd(&keyed.ch.hypergraph, &tree, &keyed.out_vars).is_err() {
            return None;
        }
        let estimated_cost = self.with_cost(q, |cost| {
            let current = tree_cost(&keyed.ch.hypergraph, &tree, cost);
            if current == stored_cost {
                // Statistics unchanged for every atom this tree touches:
                // the cached covers are already optimal-as-stored, and
                // skipping the re-cost keeps the plan bit-identical.
                current
            } else {
                recost_lambda(
                    &keyed.ch.hypergraph,
                    &mut tree,
                    self.options.max_width,
                    cost,
                )
                .total_cost
            }
        });
        let final_tree = tree.clone();
        let raw = RawQhd {
            tree,
            cq_hypergraph: keyed.ch.clone(),
            out_vars: keyed.out_vars.clone(),
            estimated_cost,
            search_stats: Default::default(),
        };
        Some((raw.finish(&self.options), final_tree, estimated_cost))
    }

    /// Number of cached plans across all shards.
    pub fn cached_plans(&self) -> usize {
        self.cache.lru.len()
    }

    /// The plan cache's capacity (0 = caching disabled). Caches layered
    /// over this optimizer size themselves by it.
    pub fn cache_capacity(&self) -> usize {
        self.cache.lru.capacity()
    }

    /// Plan-cache traffic counters since this optimizer was built.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.cache.hits.load(Ordering::Relaxed),
            misses: self.cache.misses.load(Ordering::Relaxed),
            revalidated: self.cache.revalidated.load(Ordering::Relaxed),
        }
    }

    /// Computes the q-hypertree decomposition plan for a conjunctive query.
    pub fn plan_cq(&self, q: &ConjunctiveQuery) -> Result<QhdPlan, QhdFailure> {
        self.with_cost(q, |cost| q_hypertree_decomp(q, &self.options, cost))
    }

    /// Budget for the rung at `index` (0 = first choice): same limits and
    /// cancellation token as the caller's budget with the clock and
    /// counter restarted, limits compounded by [`RetryPolicy::escalate`]
    /// on fallback rungs.
    fn rung_budget(&self, base: &Budget, index: usize) -> Budget {
        match self.retry.escalate {
            Some(f) if index > 0 => base.escalated(f.powi(index as i32)),
            _ => base.renewed(),
        }
    }

    /// Runs one ladder rung with panic containment, retrying the *same*
    /// rung once with spill forced on when it fails with
    /// [`EvalError::MemoryExceeded`] and [`RetryPolicy::spill_retry`] is
    /// on (and spill wasn't already forced). Failed attempts are recorded
    /// in `attempts`; returns the answer if either pass produced one.
    fn run_rung(
        &self,
        base: &Budget,
        index: usize,
        rung: Rung,
        attempts: &mut Vec<FallbackAttempt>,
        tuples: &mut u64,
        eval: &dyn Fn(&mut Budget) -> Result<VRelation, EvalError>,
    ) -> Option<VRelation> {
        let mut b = self.rung_budget(base, index);
        let (result, spent) = run_contained(&mut b, eval);
        *tuples += spent;
        let error = match result {
            Ok(rel) => return Some(rel),
            Err(error) => error,
        };
        let memory_hit = matches!(error, EvalError::MemoryExceeded { .. });
        let spill_was_forced = b.spill_mode() == SpillMode::Force;
        attempts.push(FallbackAttempt {
            rung,
            error,
            tuples: spent,
        });
        if self.retry.spill_retry && memory_hit && !spill_was_forced {
            let mut b = self
                .rung_budget(base, index)
                .with_spill_mode(SpillMode::Force);
            let (result, spent) = run_contained(&mut b, eval);
            *tuples += spent;
            match result {
                Ok(rel) => return Some(rel),
                Err(error) => attempts.push(FallbackAttempt {
                    rung,
                    error,
                    tuples: spent,
                }),
            }
        }
        None
    }

    /// Compiles a conjunctive query: the keyed planning path (plan cache
    /// included) plus everything else an execution derives from the
    /// query alone. The result is immutable and can be executed any
    /// number of times, from any thread, with
    /// [`HybridOptimizer::execute_compiled`].
    pub fn compile_cq(&self, q: &ConjunctiveQuery) -> Arc<CompiledQuery> {
        let epoch = self.stats_epoch.load(Ordering::Relaxed);
        // Key once: lookup now and failed-plan eviction later share it.
        let keyed = self.cache.lru.enabled().then(|| self.key_query(q));
        let (plan, plan_cache) = match &keyed {
            Some(keyed) => self.plan_cq_keyed(q, keyed),
            None => (self.plan_cq(q).map(Arc::new), PlanCacheStatus::Uncached),
        };
        let description = plan.as_ref().map_or_else(
            |_| String::new(),
            |plan| {
                format!(
                    "q-HD width={} vertices={} joins={} (optimize removed {})",
                    plan.tree.width(),
                    plan.tree.len(),
                    plan.tree.join_work(),
                    plan.optimize_stats.removed_atoms
                )
            },
        );
        Arc::new(CompiledQuery {
            query: q.clone(),
            plan,
            description,
            estimated_answer_rows: crate::estimate_answer_rows(q, self.stats.as_ref()),
            epoch,
            plan_cache,
            key: keyed.map(|k| k.key),
            retired: AtomicBool::new(false),
        })
    }

    /// Plans and executes a conjunctive query on `db`:
    /// [`HybridOptimizer::compile_cq`] then
    /// [`HybridOptimizer::execute_compiled`], with the compilation
    /// reported as the outcome's planning time and plan-cache status.
    pub fn execute_cq(&self, db: &Database, q: &ConjunctiveQuery, budget: Budget) -> QueryOutcome {
        let t0 = Instant::now();
        let compiled = self.compile_cq(q);
        let planning = t0.elapsed();
        let mut outcome = self.execute_compiled(db, &compiled, budget);
        outcome.planning += planning;
        outcome.plan_cache = compiled.plan_cache;
        outcome
    }

    /// Executes a compiled statement on `db`, descending the fallback
    /// ladder configured by [`HybridOptimizer::retry`]. Panics inside the
    /// engine are contained and surface as [`EvalError::WorkerPanicked`]
    /// (possibly rescued by a lower rung).
    ///
    /// No planning runs here unless the statement is stale — compiled
    /// under an older statistics epoch, or retired because its plan
    /// failed — in which case it is recompiled first (the caller's copy
    /// is left as it is; a holder that runs a statement repeatedly checks
    /// [`CompiledQuery::is_retired`] and compiles afresh, as the service's
    /// sessions do). [`QueryOutcome::plan_cache`] is
    /// [`PlanCacheStatus::Hit`] when nothing was planned, otherwise the
    /// recompilation's status; [`QueryOutcome::planning`] covers only
    /// that recompilation.
    pub fn execute_compiled(
        &self,
        db: &Database,
        compiled: &CompiledQuery,
        mut budget: Budget,
    ) -> QueryOutcome {
        let t0 = Instant::now();
        let stale = compiled.epoch != self.stats_epoch.load(Ordering::Relaxed);
        let recompiled = (stale || compiled.is_retired()).then(|| self.compile_cq(&compiled.query));
        let plan_cache = recompiled
            .as_ref()
            .map_or(PlanCacheStatus::Hit, |c| c.plan_cache);
        let compiled = recompiled.as_deref().unwrap_or(compiled);
        let q = &compiled.query;
        // Govern every rung — including the naive fallback, whose
        // evaluator takes no ExecOptions — by the process-wide default;
        // an explicitly budgeted caller wins (apply fills only if unset).
        budget.apply_mem_limit(htqo_engine::exec::mem_limit_default());
        let planning = t0.elapsed();
        let t1 = Instant::now();

        let mut attempts: Vec<FallbackAttempt> = Vec::new();
        let mut tuples: u64 = 0;
        let mut answer: Option<(VRelation, Rung, &str)> = None;
        // Shared with the rung-0 closure (which `run_rung` may invoke
        // twice under spill retry — the traced evaluator resets it on
        // entry, so it always reflects the pass that produced the answer).
        let trace: std::cell::RefCell<FactorizedTrace> = std::cell::RefCell::default();

        // Rung 0: q-hypertree evaluation, through the factorized front
        // (aggregate pushdown over the cover when eligible, materialized
        // join otherwise — see `htqo_eval::factorized`).
        match &compiled.plan {
            Ok(plan) => {
                let opts = ExecOptions::default();
                let eval = |bud: &mut Budget| {
                    evaluate_qhd_query_traced(db, q, plan, bud, &opts, &mut trace.borrow_mut())
                };
                match self.run_rung(&budget, 0, Rung::QHd, &mut attempts, &mut tuples, &eval) {
                    Some(rel) => answer = Some((rel, Rung::QHd, &compiled.description)),
                    // Don't serve a plan that just failed for a reason a
                    // fresh decomposition might cure to the next caller:
                    // evict it from the plan cache and retire this
                    // statement. A cancelled client or a semantic error
                    // says nothing about the plan, which stays.
                    None if attempts.last().is_some_and(|a| a.error.is_retryable()) => {
                        if let Some(key) = &compiled.key {
                            self.cache.lru.remove(key);
                        }
                        compiled.retired.store(true, Ordering::Relaxed);
                    }
                    None => {}
                }
            }
            Err(fail) => attempts.push(FallbackAttempt {
                rung: Rung::QHd,
                error: EvalError::Internal(fail.to_string()),
                tuples: 0,
            }),
        }

        let retryable =
            |attempts: &[FallbackAttempt]| attempts.last().is_some_and(|a| a.error.is_retryable());

        // Rung 1: cost-based bushy join tree.
        if answer.is_none() && self.retry.fallback_bushy && retryable(&attempts) {
            let stats = match &self.stats {
                Some(s) => s.clone(),
                None => DbStats::defaults_for(db),
            };
            // `dp_bushy` is None above the exhaustive-DP size limit; the
            // ladder then skips straight to the naive rung.
            if let Some((_, tree)) = dp_bushy(q, &stats) {
                let index = attempts.len();
                let eval = |bud: &mut Budget| {
                    evaluate_join_tree(db, q, &tree, bud)
                        .and_then(|ans| htqo_engine::aggregate::finalize(&ans, q, bud))
                };
                if let Some(rel) = self.run_rung(
                    &budget,
                    index,
                    Rung::Bushy,
                    &mut attempts,
                    &mut tuples,
                    &eval,
                ) {
                    answer = Some((rel, Rung::Bushy, "bushy join tree"));
                }
            }
        }

        // Rung 2: naive join order (always applicable).
        if answer.is_none() && self.retry.fallback_naive && retryable(&attempts) {
            let index = attempts.len();
            let eval = |bud: &mut Budget| {
                evaluate_naive(db, q, bud)
                    .and_then(|ans| htqo_engine::aggregate::finalize(&ans, q, bud))
            };
            if let Some(rel) = self.run_rung(
                &budget,
                index,
                Rung::Naive,
                &mut attempts,
                &mut tuples,
                &eval,
            ) {
                answer = Some((rel, Rung::Naive, "naive join order"));
            }
        }

        let execution = t1.elapsed();
        let failed: Vec<String> = attempts
            .iter()
            .map(|a| format!("{} failure: {}", a.rung, a.error))
            .collect();
        // The trace only describes the q-HD rung; a fallback rung's
        // answer always came from a materialized join.
        let trace = trace.into_inner();
        let (result, rung, plan, factorized, factorized_fallback) = match answer {
            Some((rel, rung, desc)) => {
                let (factorized, fallback) = if rung == Rung::QHd {
                    (trace.factorized, trace.fallback)
                } else {
                    (false, None)
                };
                let mut plan = desc.to_string();
                if factorized {
                    plan.push_str(" [factorized]");
                }
                if !failed.is_empty() {
                    plan = format!("{plan} [fallback after {}]", failed.join("; "));
                }
                (Ok(rel), rung, plan, factorized, fallback)
            }
            None => {
                let last = attempts.last().expect("the q-HD rung always runs");
                let plan = failed.join("; ");
                (Err(last.error.clone()), last.rung, plan, false, None)
            }
        };
        QueryOutcome {
            answer_rows: result.as_ref().ok().map(|rel| rel.len() as u64),
            result,
            planning,
            execution,
            tuples,
            plan,
            rung,
            attempts,
            // Rung budgets are renewed from `budget` and share its spill
            // and join statistics, so these are the whole query's.
            spill_bytes: budget.spill_stats().bytes_written(),
            spill_partitions: budget.spill_stats().partitions(),
            factorized,
            factorized_fallback,
            estimated_answer_rows: compiled.estimated_answer_rows,
            plan_cache,
            index_seek_joins: budget.join_stats().index_seeks(),
            hash_builds: budget.join_stats().hash_builds(),
        }
    }

    /// Parses, flattens subqueries, isolates, plans and executes a SQL
    /// query.
    pub fn execute_sql(
        &self,
        db: &Database,
        sql: &str,
        mut budget: Budget,
    ) -> Result<QueryOutcome, SqlError> {
        let stmt = parse_select(sql).map_err(SqlError::Parse)?;
        let (db, stmt) =
            crate::nested::flatten_subqueries(db, &stmt, &mut budget).map_err(SqlError::Nested)?;
        let q = isolate(&stmt, &db, self.isolator).map_err(SqlError::Isolate)?;
        Ok(self.execute_cq(&db, &q, budget))
    }
}

/// Runs one ladder rung with panic containment: a panic anywhere inside
/// the rung is converted to [`EvalError::WorkerPanicked`]. Returns the
/// result together with the tuples the rung charged (forked budget
/// handles flush on unwind, so the count is recoverable after a panic).
fn run_contained<F>(budget: &mut Budget, f: F) -> (Result<VRelation, EvalError>, u64)
where
    F: FnOnce(&mut Budget) -> Result<VRelation, EvalError>,
{
    let result = match catch_unwind(AssertUnwindSafe(|| f(budget))) {
        Ok(r) => r,
        Err(payload) => Err(EvalError::WorkerPanicked {
            message: panic_message(payload.as_ref()),
        }),
    };
    let spent = budget.charged();
    (result, spent)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbms::DbmsSim;
    use htqo_cq::CqBuilder;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Schema};
    use htqo_engine::value::Value;
    use htqo_stats::analyze;

    fn chain_db(n: usize, rows: i64, domain: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            let mut r = Relation::new(Schema::new(&[
                ("l", ColumnType::Int),
                ("r", ColumnType::Int),
            ]));
            for t in 0..rows {
                r.push_row(vec![
                    Value::Int((t * 3 + i as i64) % domain),
                    Value::Int((t * 5 + 2 * i as i64) % domain),
                ])
                .unwrap();
            }
            db.insert_table(&format!("p{i}"), r);
        }
        db
    }

    fn chain_query(n: usize) -> ConjunctiveQuery {
        let mut b = CqBuilder::new();
        for i in 0..n {
            let l = format!("X{i}");
            let r = format!("X{}", (i + 1) % n);
            b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &l), ("r", &r)]);
        }
        b.out_var("X0").build()
    }

    /// A cyclic triangle query that has no width-1 decomposition, over
    /// tables named r/s/t mapped onto the p0/p1/p2 chain relations.
    fn triangle_query() -> ConjunctiveQuery {
        CqBuilder::new()
            .atom("p0", "r", &[("l", "X"), ("r", "Y")])
            .atom("p1", "s", &[("l", "Y"), ("r", "Z")])
            .atom("p2", "t", &[("l", "Z"), ("r", "X")])
            .out_var("X")
            .out_var("Y")
            .out_var("Z")
            .build()
    }

    #[test]
    fn hybrid_agrees_with_quantitative_baseline() {
        let db = chain_db(5, 40, 6);
        let q = chain_query(5);
        let stats = analyze(&db);
        let hybrid = HybridOptimizer::with_stats(QhdOptions::default(), stats.clone());
        let commdb = DbmsSim::commdb(Some(stats));
        let a = hybrid.execute_cq(&db, &q, Budget::unlimited());
        let b = commdb.execute_cq(&db, &q, Budget::unlimited());
        assert_eq!(a.rung, Rung::QHd);
        assert!(a.attempts.is_empty());
        assert!(!a.degraded());
        assert_eq!(b.rung, Rung::LeftDeep);
        let ra = a.result.unwrap();
        let rb = b.result.unwrap();
        assert!(ra.set_eq(&rb));
    }

    #[test]
    fn structural_mode_needs_no_stats() {
        let db = chain_db(4, 30, 5);
        let q = chain_query(4);
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let out = opt.execute_cq(&db, &q, Budget::unlimited());
        assert!(out.result.is_ok());
        assert!(out.plan.contains("q-HD width=2"));
    }

    /// With fallbacks disabled, a planning failure surfaces exactly like
    /// it did before the ladder existed: an error outcome whose plan
    /// string names the failure.
    #[test]
    fn failure_surfaces_as_plan_error() {
        let db = chain_db(0, 0, 1);
        let opt = HybridOptimizer::structural(QhdOptions {
            max_width: 1,
            run_optimize: true,
        })
        .with_retry(RetryPolicy::none());
        let out = opt.execute_cq(&db, &triangle_query(), Budget::unlimited());
        assert!(out.result.is_err());
        assert!(out.plan.contains("failure"));
        assert_eq!(out.rung, Rung::QHd);
        assert_eq!(out.attempts.len(), 1);
    }

    /// With the default policy, the same planning failure is rescued by
    /// the bushy rung and the outcome records the degradation.
    #[test]
    fn ladder_rescues_planning_failure() {
        let db = chain_db(3, 30, 5);
        let q = triangle_query();
        let opt = HybridOptimizer::structural(QhdOptions {
            max_width: 1,
            run_optimize: true,
        });
        let out = opt.execute_cq(&db, &q, Budget::unlimited());
        assert_eq!(out.rung, Rung::Bushy, "{}", out.plan);
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(out.attempts[0].rung, Rung::QHd);
        assert!(out.degraded());
        assert!(out.plan.contains("fallback"));
        let mut b = Budget::unlimited();
        let oracle = htqo_eval::evaluate_naive(&db, &q, &mut b).unwrap();
        assert!(out.result.unwrap().set_eq(&oracle));
    }

    /// Semantic errors (unknown table) must NOT descend the ladder: the
    /// first rung's error is final.
    #[test]
    fn semantic_errors_stop_the_ladder() {
        let db = chain_db(1, 10, 3); // only p0 exists; q references p1
        let q = chain_query(2);
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let out = opt.execute_cq(&db, &q, Budget::unlimited());
        assert!(matches!(out.result, Err(EvalError::UnknownTable(_))));
        assert_eq!(out.attempts.len(), 1, "{}", out.plan);
    }

    /// Budget escalation: a tuple budget too small for any rung at 1x
    /// succeeds once the escalated fallback rungs get enough room.
    #[test]
    fn escalation_widens_fallback_budgets() {
        let db = chain_db(3, 30, 5);
        let q = triangle_query();
        let mut opt = HybridOptimizer::structural(QhdOptions::default());
        opt.retry.escalate = Some(100.0);
        // First find a budget that q-HD alone exhausts.
        let tight = 5;
        let strict =
            HybridOptimizer::structural(QhdOptions::default()).with_retry(RetryPolicy::none());
        let out = strict.execute_cq(&db, &q, Budget::unlimited().with_max_tuples(tight));
        assert!(out.is_dnf(), "{}", out.plan);
        // With escalation the ladder rescues it.
        let out = opt.execute_cq(&db, &q, Budget::unlimited().with_max_tuples(tight));
        assert!(out.result.is_ok(), "{:?}", out.result);
        assert!(out.degraded());
        let mut b = Budget::unlimited();
        let oracle = htqo_eval::evaluate_naive(&db, &q, &mut b).unwrap();
        assert!(out.result.unwrap().set_eq(&oracle));
    }

    /// A DNF stays a DNF when every rung exhausts its (un-escalated)
    /// budget, and the per-rung charges in `attempts` sum to `tuples`.
    #[test]
    fn exhausted_ladder_reports_dnf_and_exact_charges() {
        let db = chain_db(3, 200, 4);
        let q = triangle_query();
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let out = opt.execute_cq(&db, &q, Budget::unlimited().with_max_tuples(3));
        assert!(out.is_dnf(), "{}", out.plan);
        assert!(!out.attempts.is_empty());
        let sum: u64 = out.attempts.iter().map(|a| a.tuples).sum();
        assert_eq!(sum, out.tuples);
    }

    /// A memory hit retries the *same* rung with spill forced before the
    /// ladder descends: the outcome stays on q-HD, records the failed
    /// in-memory attempt, and reports the spill volume.
    #[test]
    fn memory_hit_retries_same_rung_with_spill() {
        use htqo_engine::error::SpillMode;
        let mut db = Database::new();
        // Keys mostly disjoint between r and s: a big build side with a
        // tiny join output, so the hash table (not the answer) is what
        // exceeds the limit.
        for (name, off) in [("r", 0i64), ("s", 1i64)] {
            let mut t = Relation::new(Schema::new(&[
                ("l", ColumnType::Int),
                ("r", ColumnType::Int),
            ]));
            for i in 0..20000i64 {
                let key = i + off * 19950;
                t.push_row(vec![Value::Int(key), Value::Int(key)]).unwrap();
            }
            db.insert_table(name, t);
        }
        let q = CqBuilder::new()
            .atom("r", "r", &[("l", "X"), ("r", "Y")])
            .atom("s", "s", &[("l", "Y"), ("r", "Z")])
            .out_var("X")
            .out_var("Z")
            .build();
        // 1.2 MB sits between the forced-spill peak (~0.7 MB) and the
        // in-memory peak (~2.1 MB), so the first pass must fail and the
        // spill retry must succeed. Spill mode Off on the base budget
        // keeps the first pass from spilling on its own.
        let budget = Budget::unlimited()
            .with_mem_limit(1_200_000)
            .with_spill_mode(SpillMode::Off);
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let out = opt.execute_cq(&db, &q, budget);
        assert!(out.result.is_ok(), "{}", out.plan);
        assert_eq!(out.rung, Rung::QHd, "{}", out.plan);
        assert_eq!(out.attempts.len(), 1);
        assert!(matches!(
            out.attempts[0].error,
            EvalError::MemoryExceeded { .. }
        ));
        assert!(out.spill_bytes > 0);
        assert!(out.spill_partitions > 0);
        let mut b = Budget::unlimited();
        let oracle = htqo_eval::evaluate_naive(&db, &q, &mut b).unwrap();
        assert!(out.result.unwrap().set_eq(&oracle));
    }

    #[test]
    fn plan_cache_reuses_decompositions() {
        let db = chain_db(4, 30, 5);
        let q = chain_query(4);
        let opt = HybridOptimizer::structural(QhdOptions::default());
        assert_eq!(opt.cached_plans(), 0);
        let a = opt.plan_cq_cached(&q).unwrap();
        assert_eq!(opt.cached_plans(), 1);
        let b = opt.plan_cq_cached(&q).unwrap();
        assert_eq!(opt.cached_plans(), 1);
        assert_eq!(a.tree.width(), b.tree.width());
        // A structurally different query gets its own entry.
        let q2 = chain_query(3);
        let _ = opt.plan_cq_cached(&q2).unwrap();
        assert_eq!(opt.cached_plans(), 2);
        // Cached plans still evaluate correctly.
        let mut budget = Budget::unlimited();
        let ans = htqo_eval::evaluate_qhd(&db, &q, &b, &mut budget).unwrap();
        let mut b2 = Budget::unlimited();
        let naive = htqo_eval::evaluate_naive(&db, &q, &mut b2).unwrap();
        assert!(ans.set_eq(&naive));
    }

    /// The cache is bounded: inserting past capacity evicts, and an
    /// execution that failed for a retryable reason evicts the plan it
    /// used (observable as a fresh miss).
    #[test]
    fn plan_cache_is_bounded_and_evicts_failures() {
        let opt = HybridOptimizer::structural(QhdOptions::default()).with_cache_capacity(2);
        for n in 3..=8 {
            opt.plan_cq_cached(&chain_query(n)).unwrap();
        }
        assert!(
            opt.cached_plans() <= 2,
            "capacity 2 exceeded: {}",
            opt.cached_plans()
        );
        // Run q3 under a tuple budget it must exhaust: the q-HD rung
        // fails retryably, the entry is removed, so the next planning of
        // q3 is a miss rather than a hit.
        let q3 = chain_query(3);
        let db = chain_db(3, 200, 4);
        let opt = HybridOptimizer::structural(QhdOptions::default())
            .with_cache_capacity(8)
            .with_retry(RetryPolicy::none());
        opt.plan_cq_cached(&q3).unwrap();
        assert_eq!(opt.plan_cache_stats().misses, 1);
        let out = opt.execute_cq(&db, &q3, Budget::unlimited().with_max_tuples(3));
        assert!(out.is_dnf(), "{}", out.plan);
        assert_eq!(opt.cached_plans(), 0);
        opt.plan_cq_cached(&q3).unwrap();
        assert_eq!(
            opt.plan_cache_stats().misses,
            2,
            "evicted plan must be re-planned, not served"
        );
    }

    /// A failure that says nothing about the plan — the client cancelled,
    /// or the query is semantically wrong for this database — leaves the
    /// shared plan where it is: the next execution reuses it.
    #[test]
    fn non_retryable_failures_keep_the_cached_plan() {
        use htqo_engine::error::CancelToken;
        let db = chain_db(3, 200, 4);
        let q3 = chain_query(3);
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let first = opt.execute_cq(&db, &q3, Budget::unlimited());
        assert!(first.result.is_ok());
        assert_eq!(opt.cached_plans(), 1);

        let token = CancelToken::new();
        token.cancel();
        let out = opt.execute_cq(&db, &q3, Budget::unlimited().with_cancel_token(token));
        assert!(matches!(out.result, Err(EvalError::Cancelled)));
        assert_eq!(out.attempts.len(), 1, "cancellation stops the ladder");
        assert_eq!(opt.cached_plans(), 1, "a cancelled client evicts nothing");

        let out = opt.execute_cq(&Database::new(), &q3, Budget::unlimited());
        assert!(matches!(out.result, Err(EvalError::UnknownTable(_))));
        assert_eq!(opt.cached_plans(), 1, "a semantic error evicts nothing");

        let next = opt.execute_cq(&db, &q3, Budget::unlimited());
        assert_eq!(next.plan_cache, PlanCacheStatus::Revalidated);
        assert_eq!(next.plan, first.plan);
        assert_eq!(opt.plan_cache_stats().misses, 1);
    }

    /// A compiled statement executes any number of times without
    /// planning; once its plan fails retryably it is retired, and the
    /// next execution of the same handle recompiles instead of serving
    /// the plan that just failed.
    #[test]
    fn compiled_statements_execute_without_planning_until_retired() {
        let db = chain_db(3, 200, 4);
        let q3 = chain_query(3);
        let opt =
            HybridOptimizer::structural(QhdOptions::default()).with_retry(RetryPolicy::none());
        let compiled = opt.compile_cq(&q3);
        assert_eq!(compiled.plan_cache(), PlanCacheStatus::Miss);
        assert!(compiled.plan.is_ok());
        let direct = opt.execute_cq(&db, &q3, Budget::unlimited());
        for _ in 0..2 {
            let out = opt.execute_compiled(&db, &compiled, Budget::unlimited());
            assert_eq!(out.plan_cache, PlanCacheStatus::Hit);
            assert_eq!(out.plan, direct.plan);
            assert_eq!(out.tuples, direct.tuples);
            assert!(out.result.unwrap().set_eq(direct.result.as_ref().unwrap()));
        }
        assert_eq!(opt.plan_cache_stats().misses, 1);

        let out = opt.execute_compiled(&db, &compiled, Budget::unlimited().with_max_tuples(3));
        assert!(out.is_dnf());
        assert!(compiled.is_retired());
        assert_eq!(opt.cached_plans(), 0);
        let out = opt.execute_compiled(&db, &compiled, Budget::unlimited());
        assert_eq!(
            out.plan_cache,
            PlanCacheStatus::Miss,
            "recompiled, not served"
        );
        assert!(out.result.is_ok());
    }

    /// ANALYZE between compiling and executing: the statement is stale,
    /// so the execution recompiles against the new statistics and never
    /// reports a hit.
    #[test]
    fn stale_compiled_statement_recompiles() {
        let db = chain_db(3, 20, 5);
        let q = chain_query(3);
        let mut opt = HybridOptimizer::with_stats(QhdOptions::default(), analyze(&db));
        let compiled = opt.compile_cq(&q);
        let hot = opt.execute_compiled(&db, &compiled, Budget::unlimited());
        assert_eq!(hot.plan_cache, PlanCacheStatus::Hit);
        opt.refresh_stats(Some(analyze(&db)));
        let stale = opt.execute_compiled(&db, &compiled, Budget::unlimited());
        assert_eq!(stale.plan_cache, PlanCacheStatus::Revalidated);
        assert!(stale.result.unwrap().set_eq(&hot.result.unwrap()));
    }

    /// Capacity 0 disables caching entirely.
    #[test]
    fn plan_cache_capacity_zero_disables() {
        let db = chain_db(3, 20, 5);
        let q = chain_query(3);
        let opt = HybridOptimizer::structural(QhdOptions::default()).with_cache_capacity(0);
        opt.plan_cq_cached(&q).unwrap();
        opt.plan_cq_cached(&q).unwrap();
        assert_eq!(opt.cached_plans(), 0);
        assert_eq!(opt.plan_cache_stats(), PlanCacheStats::default());
        let out = opt.execute_cq(&db, &q, Budget::unlimited());
        assert!(out.result.is_ok());
        assert_eq!(out.plan_cache, PlanCacheStatus::Uncached);
    }

    /// **Pinned**: a renamed-but-isomorphic query template is a cache
    /// hit — it shares the cached entry, skips cost-k-decomp, and (with
    /// unchanged statistics) is served a bit-identical decomposition
    /// tree.
    #[test]
    fn renamed_isomorphic_template_is_cache_hit() {
        let db = chain_db(4, 30, 5);
        let stats = analyze(&db);
        // Same shape over the same relations, different variable names
        // and aliases.
        let q1 = chain_query(4);
        let mut b = CqBuilder::new();
        for i in 0..4 {
            let l = format!("Name{}", (i * 11) % 26);
            let r = format!("Name{}", ((i + 1) % 4 * 11) % 26);
            b = b.atom(
                &format!("p{i}"),
                &format!("alias{i}"),
                &[("l", &l), ("r", &r)],
            );
        }
        let q2 = b.out_var("Name0").build();
        assert_ne!(format!("{q1}"), format!("{q2}"), "exact keys must differ");

        let opt = HybridOptimizer::with_stats(QhdOptions::default(), stats);
        let p1 = opt.plan_cq_cached(&q1).unwrap();
        assert_eq!(opt.plan_cache_stats().misses, 1);
        let p2 = opt.plan_cq_cached(&q2).unwrap();
        let stats_now = opt.plan_cache_stats();
        assert_eq!(stats_now.misses, 1, "no second cost-k-decomp");
        assert_eq!(stats_now.revalidated, 1, "shape hit with λ re-cost");
        assert_eq!(opt.cached_plans(), 1, "one shared entry");
        // Identical hypergraph indices + identical statistics ⇒ the
        // transported tree is bit-identical to the cold plan.
        assert_eq!(format!("{:?}", p1.tree), format!("{:?}", p2.tree));
        assert_eq!(p1.estimated_cost, p2.estimated_cost);
        // Executing the renamed template again records another shape hit
        // and answers correctly.
        let out = opt.execute_cq(&db, &q2, Budget::unlimited());
        assert_eq!(out.plan_cache, PlanCacheStatus::Revalidated, "{}", out.plan);
        assert_eq!(opt.plan_cache_stats().misses, 1);
        let mut bud = Budget::unlimited();
        let oracle = htqo_eval::evaluate_naive(&db, &q2, &mut bud).unwrap();
        assert!(out.result.unwrap().set_eq(&oracle));
    }

    /// The plan-cache status lands in the outcome for every path: miss,
    /// verbatim repeat (a shape hit that re-costs nothing and yields the
    /// first plan again), renamed shape hit.
    #[test]
    fn outcome_records_plan_cache_status() {
        let db = chain_db(3, 20, 5);
        let q = chain_query(3);
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let miss = opt.execute_cq(&db, &q, Budget::unlimited());
        assert_eq!(miss.plan_cache, PlanCacheStatus::Miss);
        let repeat = opt.execute_cq(&db, &q, Budget::unlimited());
        assert_eq!(repeat.plan_cache, PlanCacheStatus::Revalidated);
        assert_eq!(repeat.plan, miss.plan);
        assert_eq!(repeat.tuples, miss.tuples);
        // A renamed triangle of the same shape: shape hit on execute.
        let mut b = CqBuilder::new();
        for i in 0..3 {
            let l = format!("Z{i}");
            let r = format!("Z{}", (i + 1) % 3);
            b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &l), ("r", &r)]);
        }
        let q2 = b.out_var("Z0").build();
        let reval = opt.execute_cq(&db, &q2, Budget::unlimited());
        assert_eq!(reval.plan_cache, PlanCacheStatus::Revalidated);
        // Same answer as evaluating the renamed query from scratch (the
        // column is named Z0 rather than X0, so compare against q2's own
        // oracle).
        let mut bud = Budget::unlimited();
        let oracle = htqo_eval::evaluate_naive(&db, &q2, &mut bud).unwrap();
        assert!(reval.result.unwrap().set_eq(&oracle));
    }

    /// ANALYZE (refresh_stats) bumps the stats epoch: the next lookup of
    /// a cached plan re-costs λ against the new statistics, then re-stamps
    /// the entry so the run after that takes the cost-unchanged shortcut
    /// again. Deterministic — no clocks, no TTLs, just the epoch counter.
    #[test]
    fn stats_refresh_forces_deterministic_revalidation() {
        let db = chain_db(3, 20, 5);
        let q = chain_query(3);
        let mut opt = HybridOptimizer::with_stats(QhdOptions::default(), analyze(&db));
        assert_eq!(opt.stats_epoch(), 0);
        let miss = opt.execute_cq(&db, &q, Budget::unlimited());
        assert_eq!(miss.plan_cache, PlanCacheStatus::Miss);
        let repeat = opt.execute_cq(&db, &q, Budget::unlimited());
        assert_eq!(repeat.plan_cache, PlanCacheStatus::Revalidated);
        assert_eq!(repeat.plan, miss.plan);

        // ANALYZE: same data, refreshed statistics. The entry's epoch is
        // now behind, so its stored cost must not be trusted.
        opt.refresh_stats(Some(analyze(&db)));
        assert_eq!(opt.stats_epoch(), 1);
        let reval = opt.execute_cq(&db, &q, Budget::unlimited());
        assert_eq!(reval.plan_cache, PlanCacheStatus::Revalidated);
        let mut bud = Budget::unlimited();
        let oracle = htqo_eval::evaluate_naive(&db, &q, &mut bud).unwrap();
        assert!(reval.result.unwrap().set_eq(&oracle));

        // The revalidation re-stamped the entry under epoch 1: the next
        // identical query is served the same plan, still never replanned.
        let hot = opt.execute_cq(&db, &q, Budget::unlimited());
        assert_eq!(hot.plan_cache, PlanCacheStatus::Revalidated);
        assert_eq!(hot.plan, reval.plan);
        assert_eq!(opt.plan_cache_stats().misses, 1, "never replanned");
    }

    #[test]
    fn sql_entry_point() {
        let db = chain_db(2, 20, 4);
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let out = opt
            .execute_sql(
                &db,
                "SELECT p0.l FROM p0, p1 WHERE p0.r = p1.l",
                Budget::unlimited(),
            )
            .unwrap();
        assert!(out.result.is_ok());
    }

    /// A grouped count runs on the factorized cover, the outcome records
    /// it, and the answer matches the left-deep simulator's (which always
    /// materializes).
    #[test]
    fn factorized_aggregate_is_recorded_and_agrees() {
        let db = chain_db(3, 60, 5);
        let stats = analyze(&db);
        let sql = "SELECT p0.l, COUNT(*) AS n FROM p0, p1, p2 \
                   WHERE p0.r = p1.l AND p1.r = p2.l GROUP BY p0.l";
        let hybrid = HybridOptimizer::with_stats(QhdOptions::default(), stats.clone());
        let out = hybrid.execute_sql(&db, sql, Budget::unlimited()).unwrap();
        assert_eq!(out.rung, Rung::QHd, "{}", out.plan);
        assert!(out.factorized, "{:?}", out.factorized_fallback);
        assert!(out.plan.contains("[factorized]"), "{}", out.plan);
        assert!(out.factorized_fallback.is_none());
        let rel = out.result.unwrap();
        assert_eq!(out.answer_rows, Some(rel.len() as u64));
        assert!(out.estimated_answer_rows.is_some());
        let oracle = DbmsSim::commdb(Some(stats))
            .execute_sql(&db, sql, Budget::unlimited())
            .unwrap();
        assert!(!oracle.factorized);
        assert!(rel.set_eq(&oracle.result.unwrap()));
    }

    /// An order-sensitive aggregate is ineligible for the cover: the
    /// outcome still answers on q-HD but records the fallback reason.
    #[test]
    fn ineligible_aggregate_records_fallback_reason() {
        let db = chain_db(2, 40, 5);
        let sql = "SELECT p0.l, COUNT(*) AS n FROM p0, p1 \
                   WHERE p0.r = p1.l GROUP BY p0.l ORDER BY n";
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let out = opt.execute_sql(&db, sql, Budget::unlimited()).unwrap();
        assert_eq!(out.rung, Rung::QHd, "{}", out.plan);
        assert!(!out.factorized);
        assert!(out.factorized_fallback.is_some());
        assert!(out.result.is_ok());
        // Structural mode has no statistics, so no estimate.
        assert!(out.estimated_answer_rows.is_none());
    }
}
