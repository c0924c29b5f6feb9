//! Concurrent service chaos: 16 sessions hammer one [`QueryService`]
//! while fail points inject panics and errors into the engine, clients
//! cancel queries mid-flight, and a deliberately small memory pool forces
//! admission denials under contention.
//!
//! Invariants:
//!
//! 1. every query ends **oracle-identical** or with a **clean typed
//!    error** (an [`EvalError`] inside the outcome, or a typed admission
//!    rejection) — never a wrong answer, never an escaped panic;
//! 2. permits drain: the service reports zero in-flight queries and zero
//!    reserved pool bytes once all sessions are done;
//! 3. budget accounting is exact: the service's tuple ledger equals the
//!    sum of what the returned outcomes report, despite forked budgets,
//!    contained panics and fallback rungs;
//! 4. no cache poisoning: after the faults are cleared, a fresh session
//!    answers every query template oracle-identically, and so do the
//!    statements a session prepared *before* the faults were injected —
//!    on the q-HD rung with no failed attempt: whatever plan or compiled
//!    statement failed under a fault is not served again.

#![cfg(feature = "failpoints")]

use htqo::prelude::*;
use htqo_engine::failpoint::{self, FailAction, PANIC_MARKER};
use htqo_service::{QueryService, ServiceConfig, ServiceError};
use htqo_workloads::{workload_db, WorkloadSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const SESSIONS: usize = 16;
const QUERIES_PER_SESSION: usize = 6;

/// The three templates every session cycles through: a cyclic chain, an
/// atom-permuted isomorphic variant of it (exercises shape-keyed plan
/// reuse under concurrency), and an acyclic path.
const QUERIES: [&str; 3] = [
    "SELECT p0.l FROM p0, p1, p2 WHERE p0.r = p1.l AND p1.r = p2.l AND p2.r = p0.l",
    "SELECT p1.l FROM p1, p2, p0 WHERE p1.r = p2.l AND p2.r = p0.l AND p0.r = p1.l",
    "SELECT p0.l, p2.r FROM p0, p1, p2 WHERE p0.r = p1.l AND p1.r = p2.l",
];

/// The fail-point registry and the panic hook are process-global:
/// scenarios must not interleave.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

/// Chained panic hook that silences injected chaos panics and keeps the
/// default behavior for everything else.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(PANIC_MARKER));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn make_service() -> QueryService {
    let db = workload_db(&WorkloadSpec::new(3, 60, 6, 9));
    let stats = htqo_stats::analyze(&db);
    let optimizer = HybridOptimizer::with_stats(QhdOptions::default(), stats);
    QueryService::new(
        db,
        optimizer,
        ServiceConfig {
            max_in_flight: 8,
            // Pool covers only 3 slices: under 16-way contention some
            // admissions are denied and must roll back cleanly.
            mem_pool: Some(3 << 20),
            query_mem: Some(1 << 20),
            // Active (huge) quota so the tuple ledger is exercised.
            tuple_pool: Some(u64::MAX / 2),
            query_tuples: None,
            query_timeout: None,
        },
    )
}

/// One full scenario: oracle runs, then 16 concurrent sessions under the
/// given injected fault, then drain/accounting/poisoning checks.
fn run_scenario(site: &str, action: FailAction) {
    let _g = lock();
    install_quiet_hook();
    failpoint::clear();

    let svc = make_service();
    // Fault-free oracles (also the first cache fills).
    let oracles: Vec<VRelation> = QUERIES
        .iter()
        .map(|sql| {
            svc.session()
                .execute_sql(sql)
                .expect("clean admission")
                .result
                .expect("fault-free run succeeds")
        })
        .collect();
    let oracle_tuples = svc.metrics().pool_tuples_charged;
    // Prepared while healthy: these handles share the compiled statements
    // the chaos sessions are about to run (and fail) under faults.
    let veteran = svc.session();
    let veteran_ids: Vec<_> = QUERIES
        .iter()
        .map(|sql| veteran.prepare(sql).expect("compiles"))
        .collect();

    failpoint::configure(site, action, 2, None);

    let oracles = Arc::new(oracles);
    let tuple_tally = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..SESSIONS)
        .map(|s| {
            let session = svc.session();
            let oracles = Arc::clone(&oracles);
            let tally = Arc::clone(&tuple_tally);
            std::thread::spawn(move || {
                let mut rejected = 0u64;
                for i in 0..QUERIES_PER_SESSION {
                    let variant = (s + i) % QUERIES.len();
                    let id = session.prepare(QUERIES[variant]).expect("parse succeeds");
                    let token = CancelToken::new();
                    if i == 4 {
                        // A client giving up before the engine even polls.
                        token.cancel();
                    }
                    // Bounded retry on admission rejection — the realistic
                    // client response to Overloaded/MemoryDenied.
                    let mut outcome = None;
                    for _ in 0..200 {
                        match session.execute_prepared_with_token(id, token.clone()) {
                            Ok(out) => {
                                outcome = Some(out);
                                break;
                            }
                            Err(e) => {
                                assert!(
                                    matches!(
                                        e,
                                        ServiceError::Overloaded { .. }
                                            | ServiceError::MemoryDenied { .. }
                                    ),
                                    "unexpected service error under chaos: {e}"
                                );
                                rejected += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    session.close(id);
                    let Some(out) = outcome else { continue };
                    tally.fetch_add(out.tuples, Ordering::Relaxed);
                    match out.result {
                        Ok(rel) => assert!(
                            rel.set_eq(&oracles[variant]),
                            "chaos corrupted the answer of template {variant}"
                        ),
                        Err(e) => assert!(
                            matches!(
                                e,
                                EvalError::Cancelled
                                    | EvalError::WorkerPanicked { .. }
                                    | EvalError::Internal(_)
                                    | EvalError::MemoryExceeded { .. }
                            ),
                            "unexpected error class under chaos: {e:?}"
                        ),
                    }
                }
                rejected
            })
        })
        .collect();

    let mut total_rejected = 0;
    for h in handles {
        total_rejected += h.join().expect("no panic escapes a session thread");
    }
    failpoint::clear();

    // Permits and reservations drained.
    let m = svc.metrics();
    assert_eq!(m.in_flight, 0, "in-flight count leaked");
    assert_eq!(m.pool_bytes_reserved, 0, "pool byte slices leaked");
    assert_eq!(
        m.rejected_overload + m.rejected_memory,
        total_rejected,
        "rejection metrics disagree with what sessions observed"
    );

    // Exact tuple accounting: the shared ledger equals the sum of what
    // the returned outcomes reported (oracle runs included).
    assert_eq!(
        m.pool_tuples_charged,
        oracle_tuples + tuple_tally.load(Ordering::Relaxed),
        "tuple ledger drifted under chaos"
    );

    // No cache poisoning: with faults cleared, a fresh session and the
    // statements prepared before the faults answer every template
    // oracle-identically, first try (whatever the caches retained,
    // retired or evicted under chaos must recompile soundly).
    let clean = svc.session();
    for (variant, sql) in QUERIES.iter().enumerate() {
        for (who, out) in [
            ("fresh session", clean.execute_sql(sql)),
            ("veteran", veteran.execute_prepared(veteran_ids[variant])),
            (
                "veteran again",
                veteran.execute_prepared(veteran_ids[variant]),
            ),
        ] {
            let out = out.expect("clean admission");
            assert_eq!(out.rung, Rung::QHd, "{who}: template {variant} degraded");
            assert!(
                out.attempts.is_empty(),
                "{who}: template {variant} keeps failing after faults cleared: {}",
                out.plan
            );
            assert!(
                out.result
                    .expect("clean run succeeds")
                    .set_eq(&oracles[variant]),
                "cache poisoned: {who} got template {variant} wrong after faults cleared"
            );
        }
    }
}

#[test]
fn sixteen_sessions_survive_evaluator_panics() {
    run_scenario("qeval::bottom_up", FailAction::Panic);
}

#[test]
fn sixteen_sessions_survive_vertex_errors() {
    run_scenario("qeval::vertex", FailAction::Error);
}

/// Shutdown under load: in-flight queries are cancelled cooperatively,
/// new admissions get the typed rejection, and everything drains.
#[test]
fn shutdown_under_concurrent_load_drains_cleanly() {
    let _g = lock();
    install_quiet_hook();
    failpoint::clear();
    let svc = make_service();

    let handles: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let session = svc.session();
            std::thread::spawn(move || {
                for i in 0..QUERIES_PER_SESSION {
                    match session.execute_sql(QUERIES[i % QUERIES.len()]) {
                        Ok(_) => {}
                        Err(e) => assert!(
                            matches!(
                                e,
                                ServiceError::ShuttingDown
                                    | ServiceError::Overloaded { .. }
                                    | ServiceError::MemoryDenied { .. }
                            ),
                            "unexpected error during shutdown: {e}"
                        ),
                    }
                }
            })
        })
        .collect();

    // Let some queries in, then pull the plug mid-flight.
    std::thread::yield_now();
    svc.shutdown();
    for h in handles {
        h.join().expect("no panic escapes a session thread");
    }
    let m = svc.metrics();
    assert_eq!(m.in_flight, 0);
    assert_eq!(m.pool_bytes_reserved, 0);
    assert!(matches!(
        svc.session().execute_sql(QUERIES[0]),
        Err(ServiceError::ShuttingDown)
    ));
}
