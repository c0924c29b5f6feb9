//! DBMS simulators: quantitative optimizer + full-join executor pipelines
//! standing in for the paper's *CommDB* and *PostgreSQL* (Section 6,
//! "Compared Methods").
//!
//! Both simulators plan a left-deep join order (exhaustive DP for CommDB;
//! DP below the GEQO threshold and genetic search above it for
//! PostgreSQL), then execute full hash joins without semijoin reduction —
//! the execution model whose intermediate results blow up on the cyclic
//! and long queries the paper studies. They share the same storage engine
//! as the structural optimizer so that every compared method pays
//! identical per-tuple costs.

use crate::dp::{dp_join_order, order_cost};
use crate::geqo::{geqo_join_order, GeqoConfig};
use htqo_cq::{
    isolate, parse_select, AtomId, ConjunctiveQuery, IsolateError, IsolatorOptions, ParseError,
};
use htqo_engine::error::{Budget, EvalError};
use htqo_engine::schema::Database;
use htqo_engine::vrel::VRelation;
use htqo_eval::evaluate_join_order;
use htqo_stats::DbStats;
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Which join-order planner a simulator uses.
#[derive(Clone, Debug)]
pub enum PlannerKind {
    /// Exhaustive System-R DP (greedy above the exhaustive limit).
    ExhaustiveDp,
    /// PostgreSQL-style: DP below `threshold` atoms, genetic search above.
    Geqo {
        /// FROM-count at which the genetic optimizer takes over
        /// (PostgreSQL's `geqo_threshold`).
        threshold: usize,
        /// Genetic search configuration.
        config: GeqoConfig,
    },
}

/// A simulated DBMS: a planner plus a statistics mode.
pub struct DbmsSim {
    /// Display name (`CommDB`, `PostgreSQL`, ...).
    pub name: String,
    planner: PlannerKind,
    /// Statistics the planner sees; `None` = "statistics not allowed",
    /// in which case default guesses are used (the paper's "without
    /// statistics" mode).
    stats: Option<DbStats>,
}

/// Which execution strategy produced (or last attempted) a query's
/// answer. The hybrid optimizer runs q-HD and, when that fails
/// retryably, falls back to a left-deep join order; the DBMS simulators
/// always execute left-deep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// q-hypertree decomposition evaluation (the paper's method).
    QHd,
    /// Left-deep join pipeline: the DBMS simulators' plan, and the
    /// hybrid optimizer's fallback on the order [`dp_join_order`] plans.
    LeftDeep,
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung::QHd => write!(f, "q-HD"),
            Rung::LeftDeep => write!(f, "left-deep"),
        }
    }
}

/// Plan text of a left-deep join order: its atoms' aliases in join
/// order and its estimated cost ([`order_cost`]).
pub(crate) fn describe_join_order(
    q: &ConjunctiveQuery,
    stats: &DbStats,
    order: &[AtomId],
) -> String {
    let aliases: Vec<&str> = order.iter().map(|a| q.atom(*a).alias.as_str()).collect();
    format!(
        "left-deep [{}] est_cost={:.0}",
        aliases.join(" ⋈ "),
        order_cost(q, stats, order)
    )
}

/// Runs a left-deep join order to the final answer: the join rows in
/// `order`, then aggregation and ordering.
pub(crate) fn run_join_order(
    db: &Database,
    q: &ConjunctiveQuery,
    order: &[AtomId],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    evaluate_join_order(db, q, Some(order), budget)
        .and_then(|ans| htqo_engine::aggregate::finalize_c(&ans, q, budget))
}

/// `stats`, or the default guesses for `db`'s tables when there are none.
pub(crate) fn stats_or_defaults<'s>(stats: Option<&'s DbStats>, db: &Database) -> Cow<'s, DbStats> {
    stats.map_or_else(|| Cow::Owned(DbStats::defaults_for(db)), Cow::Borrowed)
}

/// One failed rung of the hybrid optimizer's fallback ladder.
#[derive(Clone, Debug)]
pub struct FallbackAttempt {
    /// The strategy that failed.
    pub rung: Rung,
    /// Why it failed.
    pub error: EvalError,
    /// Tuples it had materialized before failing (already included in
    /// [`QueryOutcome::tuples`]).
    pub tuples: u64,
}

/// How the plan cache participated in answering a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PlanCacheStatus {
    /// No plan cache in play: capacity 0, a query whose
    /// canonicalization ran over its symmetry budget (planned without
    /// the cache; the service's statement cache serves exact repeats of
    /// its text), or an executor (the DBMS simulators) that never caches
    /// plans.
    #[default]
    Uncached,
    /// No isomorphic entry existed; cost-k-decomp ran and its result was
    /// cached.
    Miss,
    /// No planning work at all: a compiled statement was executed (a
    /// prepared statement, or a text the service's statement cache
    /// held).
    Hit,
    /// Shape hit: a repeated or isomorphic-but-renamed query reused the
    /// cached decomposition after transport through canonical space and
    /// (when its price moved) a λ re-cost against current statistics —
    /// cost-k-decomp was skipped.
    Revalidated,
}

impl std::fmt::Display for PlanCacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanCacheStatus::Uncached => write!(f, "uncached"),
            PlanCacheStatus::Miss => write!(f, "plan_cache_miss"),
            PlanCacheStatus::Hit => write!(f, "plan_cache_hit"),
            PlanCacheStatus::Revalidated => write!(f, "plan_cache_revalidated"),
        }
    }
}

/// The result of running one query, with the measurements the paper's
/// figures report.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Final output relation (after aggregates/ordering), or the resource
    /// error for DNF data points.
    pub result: Result<VRelation, EvalError>,
    /// Time spent planning (optimizer only). For a compiled statement,
    /// the time spent resolving it — close to zero on a hit.
    pub planning: Duration,
    /// Time spent executing.
    pub execution: Duration,
    /// Intermediate tuples materialized (deterministic work measure),
    /// summed across every rung that ran.
    pub tuples: u64,
    /// Human-readable plan description.
    pub plan: String,
    /// The strategy that answered — or, when `result` is an error, the
    /// last one attempted.
    pub rung: Rung,
    /// Rungs that failed before `rung` ran (empty when the first strategy
    /// answered, always empty for the DBMS simulators).
    pub attempts: Vec<FallbackAttempt>,
    /// Bytes written to spill files across every rung that ran (0 when
    /// the whole query stayed in memory).
    pub spill_bytes: u64,
    /// Spill partitions created across every rung (the partition
    /// fan-out, summed over every spilling operator and recursion level).
    pub spill_partitions: u64,
    /// Always `false`: no rung answers from a factorized cover (the q-HD
    /// rung counts join rows in its one pass). Kept because `e2e/` reads it.
    pub factorized: bool,
    /// Always `None`, for the same reason as `factorized`.
    pub factorized_fallback: Option<String>,
    /// Planner-side cardinality estimate for the answer relation, when
    /// statistics were available to produce one.
    pub estimated_answer_rows: Option<f64>,
    /// Actual answer cardinality (rows of `result` when it is `Ok`).
    pub answer_rows: Option<u64>,
    /// Whether planning was served from the plan cache
    /// (`plan_cache_{hit,miss,revalidated}`).
    pub plan_cache: PlanCacheStatus,
    /// Index-nested-loop joins executed across every rung that ran.
    pub index_seek_joins: u64,
    /// Hash-join builds executed across every rung that ran.
    pub hash_builds: u64,
}

impl QueryOutcome {
    /// Total wall-clock time.
    pub fn total_time(&self) -> Duration {
        self.planning + self.execution
    }

    /// True if the run hit a time/tuple budget (a "did not terminate"
    /// data point in the paper's figures). With the fallback ladder
    /// enabled this means *every* applicable rung hit its budget.
    pub fn is_dnf(&self) -> bool {
        matches!(&self.result, Err(e) if e.is_resource_limit())
    }

    /// True if the answer came from a fallback rung rather than the
    /// first-choice strategy.
    pub fn degraded(&self) -> bool {
        self.result.is_ok() && !self.attempts.is_empty()
    }
}

/// Errors from the SQL entry point.
#[derive(Debug)]
pub enum SqlError {
    /// Parse failure.
    Parse(ParseError),
    /// SQL-to-CQ translation failure.
    Isolate(IsolateError),
    /// Subquery flattening failure.
    Nested(crate::nested::NestedError),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::Isolate(e) => write!(f, "{e}"),
            SqlError::Nested(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl DbmsSim {
    /// The *CommDB* stand-in: exhaustive DP planner.
    pub fn commdb(stats: Option<DbStats>) -> Self {
        DbmsSim {
            name: "CommDB".into(),
            planner: PlannerKind::ExhaustiveDp,
            stats,
        }
    }

    /// The *PostgreSQL* stand-in: DP below the GEQO threshold, genetic
    /// search above (PostgreSQL 8.3 defaults `geqo_threshold = 12`; we use
    /// 8 so the genetic path is actually exercised at the paper's query
    /// sizes).
    pub fn postgres(stats: Option<DbStats>) -> Self {
        DbmsSim {
            name: "PostgreSQL".into(),
            planner: PlannerKind::Geqo {
                threshold: 8,
                config: GeqoConfig::default(),
            },
            stats,
        }
    }

    /// Custom simulator.
    pub fn new(name: &str, planner: PlannerKind, stats: Option<DbStats>) -> Self {
        DbmsSim {
            name: name.to_string(),
            planner,
            stats,
        }
    }

    /// Plans a join order for `q` over `db`.
    ///
    /// Without statistics the cost model has nothing to distinguish plans
    /// with, so the simulator falls back to rule-based planning: join in
    /// syntactic FROM order (what real optimizers degrade to before
    /// `ANALYZE` has run — the paper's "not allowed to use statistics"
    /// mode).
    pub fn plan(&self, db: &Database, q: &ConjunctiveQuery) -> Vec<AtomId> {
        let _ = db;
        let Some(stats) = &self.stats else {
            return q.atom_ids().collect();
        };
        match &self.planner {
            PlannerKind::ExhaustiveDp => dp_join_order(q, stats),
            PlannerKind::Geqo { threshold, config } => {
                if q.atoms.len() < *threshold {
                    dp_join_order(q, stats)
                } else {
                    geqo_join_order(q, stats, config)
                }
            }
        }
    }

    /// Plans and executes a conjunctive query end-to-end (join pipeline,
    /// then aggregation/ordering).
    pub fn execute_cq(
        &self,
        db: &Database,
        q: &ConjunctiveQuery,
        mut budget: Budget,
    ) -> QueryOutcome {
        let t0 = Instant::now();
        let order = self.plan(db, q);
        let planning = t0.elapsed();

        let stats = stats_or_defaults(self.stats.as_ref(), db);
        let plan_desc = format!("{} {}", self.name, describe_join_order(q, &stats, &order));

        let t1 = Instant::now();
        let result = run_join_order(db, q, &order, &mut budget);
        let execution = t1.elapsed();
        let answer_rows = result.as_ref().ok().map(|r| r.len() as u64);
        QueryOutcome {
            result,
            planning,
            execution,
            tuples: budget.charged(),
            plan: plan_desc,
            rung: Rung::LeftDeep,
            attempts: Vec::new(),
            spill_bytes: budget.spill_stats().bytes_written(),
            spill_partitions: budget.spill_stats().partitions(),
            factorized: false,
            factorized_fallback: None,
            estimated_answer_rows: crate::estimate_answer_rows(q, self.stats.as_ref()),
            answer_rows,
            plan_cache: PlanCacheStatus::Uncached,
            index_seek_joins: budget.join_stats().index_seeks(),
            hash_builds: budget.join_stats().hash_builds(),
        }
    }

    /// Parses, flattens subqueries, isolates and executes a SQL query.
    pub fn execute_sql(
        &self,
        db: &Database,
        sql: &str,
        mut budget: Budget,
    ) -> Result<QueryOutcome, SqlError> {
        let stmt = parse_select(sql).map_err(SqlError::Parse)?;
        let (db, stmt) =
            crate::nested::flatten_subqueries(db, &stmt, &mut budget).map_err(SqlError::Nested)?;
        let q = isolate(&stmt, &db, IsolatorOptions::default()).map_err(SqlError::Isolate)?;
        Ok(self.execute_cq(&db, &q, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Schema};
    use htqo_engine::value::Value;
    use htqo_stats::analyze;

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::new(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
        ]));
        let mut s = Relation::new(Schema::new(&[
            ("b", ColumnType::Int),
            ("c", ColumnType::Int),
        ]));
        for i in 0..30 {
            r.push_row(vec![Value::Int(i % 5), Value::Int(i % 7)])
                .unwrap();
            s.push_row(vec![Value::Int(i % 7), Value::Int(i % 3)])
                .unwrap();
        }
        db.insert_table("r", r);
        db.insert_table("s", s);
        db
    }

    #[test]
    fn commdb_runs_sql_end_to_end() {
        let db = db();
        let stats = analyze(&db);
        let sim = DbmsSim::commdb(Some(stats));
        let out = sim
            .execute_sql(
                &db,
                "SELECT r.a, count(*) AS n FROM r, s WHERE r.b = s.b GROUP BY r.a ORDER BY n DESC",
                Budget::unlimited(),
            )
            .unwrap();
        assert!(!out.is_dnf());
        let rel = out.result.as_ref().unwrap();
        assert_eq!(rel.cols(), &["a".to_string(), "n".to_string()]);
        assert!(out.tuples > 0);
        assert!(out.plan.contains("CommDB"));
    }

    #[test]
    fn without_stats_still_runs() {
        let db = db();
        let sim = DbmsSim::commdb(None);
        let out = sim
            .execute_sql(
                &db,
                "SELECT r.a FROM r, s WHERE r.b = s.b",
                Budget::unlimited(),
            )
            .unwrap();
        assert!(out.result.is_ok());
    }

    #[test]
    fn dnf_is_reported_not_panicked() {
        let db = db();
        let sim = DbmsSim::commdb(None);
        let out = sim
            .execute_sql(
                &db,
                "SELECT r.a FROM r, s WHERE r.b = s.b",
                Budget::unlimited().with_max_tuples(3),
            )
            .unwrap();
        assert!(out.is_dnf());
    }

    #[test]
    fn bad_sql_is_a_sql_error() {
        let db = db();
        let sim = DbmsSim::postgres(None);
        assert!(matches!(
            sim.execute_sql(&db, "SELEC x FROM r", Budget::unlimited()),
            Err(SqlError::Parse(_))
        ));
        assert!(matches!(
            sim.execute_sql(&db, "SELECT x FROM missing", Budget::unlimited()),
            Err(SqlError::Isolate(_))
        ));
    }

    #[test]
    fn postgres_uses_geqo_above_threshold() {
        // Just exercise both code paths via plan() on synthetic queries.
        let db = db();
        let stats = analyze(&db);
        let sim = DbmsSim::postgres(Some(stats));
        let small = htqo_cq::CqBuilder::new()
            .atom("r", "r1", &[("a", "A"), ("b", "B")])
            .atom("s", "s1", &[("b", "B"), ("c", "C")])
            .out_var("A")
            .build();
        assert_eq!(sim.plan(&db, &small).len(), 2);
        // 9 atoms ≥ threshold 8 → genetic path.
        let mut b = htqo_cq::CqBuilder::new();
        for i in 0..9 {
            let alias = format!("r{i}");
            let l = format!("V{i}");
            let r = format!("V{}", i + 1);
            b = b.atom("r", &alias, &[("a", &l), ("b", &r)]);
        }
        let big = b.out_var("V0").build();
        let order = sim.plan(&db, &big);
        assert_eq!(order.len(), 9);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, big.atom_ids().collect::<Vec<_>>());
    }
}
