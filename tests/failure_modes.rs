//! Failure-injection tests: resource budgets, timeouts, malformed SQL,
//! missing tables/columns, and decomposition failures must surface as
//! typed errors — never as panics or wrong answers.

use htqo::prelude::*;
use htqo_workloads::{chain_query, workload_db, WorkloadSpec};
use std::time::Duration;

fn db() -> Database {
    workload_db(&WorkloadSpec::new(4, 200, 5, 123))
}

#[test]
fn tuple_budget_produces_dnf_outcome() {
    let db = db();
    let q = chain_query(4);
    let commdb = DbmsSim::commdb(None);
    let out = commdb.execute_cq(&db, &q, Budget::unlimited().with_max_tuples(50));
    assert!(out.is_dnf());
    assert!(matches!(
        out.result,
        Err(EvalError::TupleBudgetExceeded { limit: 50 })
    ));

    // The q-HD pipeline reports DNF through the same interface; with the
    // fallback ladder on, DNF means *every* rung exhausted its budget.
    let hybrid = HybridOptimizer::structural(QhdOptions::default());
    let out = hybrid.execute_cq(&db, &q, Budget::unlimited().with_max_tuples(10));
    assert!(out.is_dnf());
    assert!(!out.attempts.is_empty());
    assert!(out.attempts.iter().all(|a| a.error.is_resource_limit()));
}

#[test]
fn every_error_variant_classifies_for_dnf_and_retry() {
    // One case per `EvalError` variant: `is_resource_limit` decides DNF
    // reporting, `is_retryable` decides whether the fallback ladder may
    // descend to the next rung.
    let cases: Vec<(EvalError, bool, bool)> = vec![
        (EvalError::TupleBudgetExceeded { limit: 1 }, true, true),
        (
            EvalError::Timeout {
                limit: Duration::from_millis(1),
            },
            true,
            true,
        ),
        (EvalError::Cancelled, false, false),
        (
            EvalError::WorkerPanicked {
                message: "boom".into(),
            },
            false,
            true,
        ),
        (EvalError::UnknownTable("t".into()), false, false),
        (
            EvalError::UnknownColumn {
                relation: "t".into(),
                column: "c".into(),
            },
            false,
            false,
        ),
        (EvalError::UnknownVariable("X".into()), false, false),
        (EvalError::Internal("oops".into()), false, true),
        // Disk corruption (checksum mismatch on a page read): not a
        // resource limit, but retryable — another plan rung may avoid
        // the corrupt table, and the page may repair via WAL replay.
        (
            EvalError::CorruptPage {
                file: "t.pages".into(),
                pid: 7,
            },
            false,
            true,
        ),
    ];
    for (e, resource, retryable) in cases {
        assert_eq!(e.is_resource_limit(), resource, "{e:?}");
        assert_eq!(e.is_retryable(), retryable, "{e:?}");
    }
}

#[test]
fn cancelled_run_is_typed_and_never_retried() {
    let db = db();
    let q = chain_query(4);
    let token = CancelToken::new();
    token.cancel();
    let hybrid = HybridOptimizer::structural(QhdOptions::default());
    let out = hybrid.execute_cq(&db, &q, Budget::unlimited().with_cancel_token(token));
    assert!(matches!(out.result, Err(EvalError::Cancelled)));
    // Cancellation is not a DNF data point and must not descend the
    // ladder: the user asked the query to stop, not to try harder.
    assert!(!out.is_dnf());
    assert_eq!(out.attempts.len(), 1);
}

/// An index whose every seek panics: a fault inside the engine that needs
/// no fail point (this binary's tests run concurrently and the fail-point
/// registry is process-global).
#[derive(Debug)]
struct PanickingIndex;

const MARKER: &str = "failure-modes-deliberate-panic";

impl htqo_engine::index::JoinIndex for PanickingIndex {
    fn seek(&self, _key: &[u8]) -> Result<Vec<u32>, EvalError> {
        panic!("{MARKER}");
    }

    fn distinct_keys(&self) -> usize {
        97
    }

    fn entries(&self) -> usize {
        4000
    }
}

#[test]
fn worker_panic_surfaces_as_typed_error() {
    // A panic inside a plan is contained by its ladder rung as
    // `WorkerPanicked`, what the rung charged before it is kept, and a
    // lower rung still answers.
    use htqo_engine::schema::ColumnType;
    install_quiet_hook();
    let keyed = |rows: i64, modulus: i64| {
        let mut rel = Relation::new(Schema::new(&[
            ("k", ColumnType::Int),
            ("p", ColumnType::Int),
        ]));
        for i in 0..rows {
            rel.push_row(vec![Value::Int(i % modulus), Value::Int(i)])
                .unwrap();
        }
        rel
    };
    // A tiny probe against a large indexed fact table: the q-HD vertex
    // joins them by index seek, which is where the panic sits.
    let mut db = Database::new();
    db.insert_table("probe", keyed(5, 97));
    db.insert_table("fact", keyed(4000, 97));
    db.register_index("fact", "k", std::sync::Arc::new(PanickingIndex));
    let q = CqBuilder::new()
        .atom("probe", "probe", &[("k", "K"), ("p", "T")])
        .atom("fact", "fact", &[("k", "K"), ("p", "P")])
        .out_var("K")
        .out_var("T")
        .out_var("P")
        .build();

    let strict = HybridOptimizer::structural(QhdOptions::default()).with_retry(RetryPolicy::none());
    let failed = strict.execute_cq(&db, &q, Budget::unlimited());
    assert!(
        matches!(failed.result, Err(EvalError::WorkerPanicked { ref message })
            if message.contains(MARKER)),
        "expected a contained panic, got {:?}",
        failed.result
    );
    assert!(
        failed.tuples > 0,
        "the probe scan was charged before the panic"
    );
    assert_eq!(failed.tuples, failed.attempts[0].tuples);

    // The bushy rung hash-joins and never seeks.
    let rescued =
        HybridOptimizer::structural(QhdOptions::default()).execute_cq(&db, &q, Budget::unlimited());
    assert!(rescued.degraded(), "{}", rescued.plan);
    assert_ne!(rescued.rung, Rung::QHd);
    assert_eq!(rescued.attempts[0].tuples, failed.tuples);
    let oracle = evaluate_naive(&db, &q, &mut Budget::unlimited()).unwrap();
    assert!(rescued.result.unwrap().set_eq(&oracle));
}

/// Installs (once) a chained panic hook that silences this file's
/// deliberate test panics and delegates everything else.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let deliberate = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(MARKER));
            if !deliberate {
                prev(info);
            }
        }));
    });
}

#[test]
fn fallback_rung_selection_is_recorded() {
    // A width-1 bound makes q-HD planning fail on the cyclic triangle;
    // the default policy answers via the bushy rung and says so.
    let db = db();
    let q = CqBuilder::new()
        .atom("p0", "a0", &[("l", "X"), ("r", "Y")])
        .atom("p1", "a1", &[("l", "Y"), ("r", "Z")])
        .atom("p2", "a2", &[("l", "Z"), ("r", "X")])
        .out_var("X")
        .out_var("Y")
        .out_var("Z")
        .build();
    let narrow = QhdOptions {
        max_width: 1,
        run_optimize: true,
    };
    let out = HybridOptimizer::structural(narrow.clone()).execute_cq(&db, &q, Budget::unlimited());
    assert_eq!(out.rung, Rung::Bushy, "{}", out.plan);
    assert!(out.degraded());
    let mut b = Budget::unlimited();
    let oracle = evaluate_naive(&db, &q, &mut b).unwrap();
    assert!(out.result.unwrap().set_eq(&oracle));

    // With fallbacks disabled the same failure is final.
    let strict = HybridOptimizer::structural(narrow).with_retry(RetryPolicy::none());
    let out = strict.execute_cq(&db, &q, Budget::unlimited());
    assert!(out.result.is_err());
    assert_eq!(out.rung, Rung::QHd);
}

#[test]
fn timeout_produces_dnf_outcome() {
    let db = workload_db(&WorkloadSpec::new(6, 600, 4, 5));
    let q = chain_query(6);
    let commdb = DbmsSim::commdb(None);
    let out = commdb.execute_cq(
        &db,
        &q,
        Budget::unlimited().with_timeout(Duration::from_millis(1)),
    );
    // Either the timeout fires or (on a very fast machine) the query
    // finishes; both are legal, but a timeout must be typed correctly.
    if out.is_dnf() {
        assert!(matches!(out.result, Err(EvalError::Timeout { .. })));
    }
}

#[test]
fn malformed_sql_is_a_parse_error() {
    let db = db();
    let sim = DbmsSim::commdb(None);
    for bad in [
        "SELEC a FROM t",
        "SELECT FROM t",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t GROUP",
        "SELECT sum(*) FROM t",
        "SELECT a FROM t WHERE a ~ 3",
        "SELECT a FROM t; extra",
    ] {
        let err = sim.execute_sql(&db, bad, Budget::unlimited());
        assert!(
            matches!(err, Err(htqo_optimizer::SqlError::Parse(_))),
            "should not parse: {bad}"
        );
    }
}

#[test]
fn semantic_errors_are_isolate_errors() {
    let db = db();
    let sim = DbmsSim::commdb(None);
    for bad in [
        "SELECT x FROM missing_table",
        "SELECT missing_col FROM p0",
        "SELECT l FROM p0, p1",                      // ambiguous column
        "SELECT p0.l FROM p0, p0",                   // duplicate binding
        "SELECT p0.l FROM p0, p1 WHERE p0.l < p1.l", // non-equi join
    ] {
        let err = sim.execute_sql(&db, bad, Budget::unlimited());
        assert!(
            matches!(err, Err(htqo_optimizer::SqlError::Isolate(_))),
            "should not isolate: {bad}"
        );
    }
}

#[test]
fn decomposition_failure_is_typed() {
    // All three triangle variables in the output with k = 1.
    let q = CqBuilder::new()
        .atom_vars("p0", &["X", "Y"])
        .atom_vars("p1", &["Y", "Z"])
        .atom_vars("p2", &["Z", "X"])
        .out_var("X")
        .out_var("Y")
        .out_var("Z")
        .build();
    let err = q_hypertree_decomp(
        &q,
        &QhdOptions {
            max_width: 1,
            run_optimize: true,
        },
        &StructuralCost,
    )
    .unwrap_err();
    assert_eq!(err.max_width, 1);
}

#[test]
fn yannakakis_refuses_cyclic_input() {
    let db = db();
    let q = chain_query(4);
    let mut budget = Budget::unlimited();
    assert!(matches!(
        evaluate_yannakakis(&db, &q, &mut budget),
        Err(EvalError::Internal(_))
    ));
}

#[test]
fn missing_table_at_execution_is_typed() {
    // The query references a table the database does not have; planning
    // succeeds (it is purely structural) but execution reports the table.
    let db = db();
    let q = CqBuilder::new()
        .atom_vars("ghost", &["X", "Y"])
        .out_var("X")
        .build();
    let hybrid = HybridOptimizer::structural(QhdOptions::default());
    let out = hybrid.execute_cq(&db, &q, Budget::unlimited());
    assert!(matches!(out.result, Err(EvalError::UnknownTable(t)) if t == "ghost"));
}

#[test]
fn dnf_reporting_is_deterministic_for_tuple_budgets() {
    // Unlike wall-clock timeouts, tuple budgets are deterministic: the
    // same query + budget must fail identically across runs.
    let db = db();
    let q = chain_query(4);
    let commdb = DbmsSim::commdb(None);
    let a = commdb.execute_cq(&db, &q, Budget::unlimited().with_max_tuples(500));
    let b = commdb.execute_cq(&db, &q, Budget::unlimited().with_max_tuples(500));
    assert_eq!(a.is_dnf(), b.is_dnf());
    assert_eq!(a.tuples, b.tuples);
}
