//! A prepared handle whose plan was retired recompiles **once**.
//!
//! Its own test binary: the fail-point registry is process-global, and an
//! armed site would reach every other test running in the same process.

use htqo_core::QhdOptions;
use htqo_engine::failpoint::{self, FailAction};
use htqo_optimizer::{HybridOptimizer, PlanCacheStatus, Rung};
use htqo_service::{QueryService, ServiceConfig};
use htqo_workloads::{workload_db, WorkloadSpec};

const CHAIN: &str = "SELECT p0.l FROM p0, p1, p2 \
                     WHERE p0.r = p1.l AND p1.r = p2.l AND p2.r = p0.l";

#[test]
fn a_retired_prepared_statement_recompiles_once() {
    let db = workload_db(&WorkloadSpec::new(3, 60, 6, 7));
    let stats = htqo_stats::analyze(&db);
    let optimizer = HybridOptimizer::with_stats(QhdOptions::default(), stats);
    let svc = QueryService::new(db, optimizer, ServiceConfig::default());
    let session = svc.session();
    let id = session.prepare(CHAIN).unwrap();
    let healthy = session.execute_prepared(id).unwrap();
    assert_eq!(healthy.plan_cache, PlanCacheStatus::Hit);
    let oracle = healthy.result.unwrap();

    // One execution under a fault: the q-HD rung fails, a lower rung
    // answers, and the compiled statement is retired.
    failpoint::configure("qeval::vertex", FailAction::Error, 0, None);
    let faulted = session.execute_prepared(id).unwrap();
    failpoint::clear();
    assert_ne!(faulted.rung, Rung::QHd, "{}", faulted.plan);
    assert!(faulted.result.unwrap().set_eq(&oracle));
    assert_eq!(svc.optimizer().cached_plans(), 0, "failed plan evicted");

    // The handle compiles the text afresh — once. Afterwards it runs the
    // new statement and plans nothing, and so does the text.
    let recompiled = session.execute_prepared(id).unwrap();
    assert_eq!(recompiled.plan_cache, PlanCacheStatus::Miss);
    let planned = svc.metrics().plan_cache;
    for again in [
        session.execute_prepared(id).unwrap(),
        session.execute_prepared(id).unwrap(),
        session.execute_sql(CHAIN).unwrap(),
    ] {
        assert_eq!(again.plan_cache, PlanCacheStatus::Hit);
        assert_eq!(again.rung, Rung::QHd);
        assert!(again.attempts.is_empty(), "{}", again.plan);
        assert!(again.result.unwrap().set_eq(&oracle));
    }
    assert_eq!(svc.metrics().plan_cache, planned, "nothing was planned");
}
