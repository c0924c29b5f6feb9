//! Chaos property tests: randomized fault injection over the equivalence
//! workloads.
//!
//! Every case arms one fail point (an injected `EvalError`, a deliberate
//! panic, or a delay) somewhere in the engine's kernels and runs a query
//! with spilling forced or not — through the hybrid optimizer, and
//! through the join-order baseline (`evaluate_naive` + row `finalize`),
//! which is what reaches the `ops::*` sites. The invariants, checked
//! after every single fault:
//!
//! 1. the outcome is either bit-identical to the fault-free oracle or a
//!    clean typed [`EvalError`] — never a wrong answer;
//! 2. no panic escapes the optimizer (injected panics are contained and
//!    surface as [`EvalError::WorkerPanicked`]);
//! 3. when the run succeeds, its budget charges are exactly the
//!    fault-free charges (delays and skipped sites must not perturb
//!    accounting); when it fails, the outcome's total is exactly the sum
//!    of its attempts' charges, contained panics included.
//!
//! Case count per property is `HTQO_CHAOS_CASES` (default 120; CI uses a
//! small count, local runs can crank it up).

#![cfg(feature = "failpoints")]

use htqo::prelude::*;
use htqo_engine::error::SpillMode;
use htqo_engine::failpoint::{self, FailAction, PANIC_MARKER};
use htqo_engine::schema::{ColumnType, Schema};
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Duration;

/// Every named injection site compiled into the engine and evaluators —
/// the enumerable registry, so new sites (e.g. the spill paths) are
/// picked up automatically. Sites that a given schedule never reaches
/// (e.g. row kernels under the optimizer's q-HD rung, spill sites when
/// the case doesn't force spilling) simply stay dormant — the case then
/// asserts the fault-free equality invariant.
fn sites() -> &'static [&'static str] {
    failpoint::sites()
}

fn cases() -> u32 {
    std::env::var("HTQO_CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120)
}

/// The fail-point registry and the panic hook are process-global: chaos cases must not interleave (with each other or
/// across the test functions in this binary).
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

/// Installs (once) a chained panic hook that silences injected chaos
/// panics — recognizable by [`PANIC_MARKER`] in the payload — and
/// delegates everything else to the previous hook, so real bugs still
/// print a backtrace.
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

/// A random query shape (same family as `equivalence_prop`): binary atoms
/// over a small variable pool, random data, random output variables.
#[derive(Debug, Clone)]
struct Shape {
    atoms: Vec<(usize, usize)>,
    out: Vec<usize>,
    rows: usize,
    domain: u64,
    seed: u64,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (2usize..6)
        .prop_flat_map(|n| {
            let vars = n + 1;
            (
                prop::collection::vec((0..vars, 0..vars), n),
                prop::collection::vec(0..vars, 1..3),
                10usize..50,
                2u64..8,
                any::<u64>(),
            )
        })
        .prop_map(|(atoms, out, rows, domain, seed)| Shape {
            atoms,
            out,
            rows,
            domain,
            seed,
        })
}

/// One chaos case: a workload plus a fault (site × action × skip).
/// `force_spill` runs the case with `SpillMode::Force`, routing joins and aggregation
/// through the spill machinery so the `spill::*` sites actually fire.
#[derive(Debug, Clone)]
struct ChaosCase {
    shape: Shape,
    site: usize,
    action: usize, // 0 = error, 1 = panic, 2 = delay(1ms)
    skip: u64,
    force_spill: bool,
}

fn arb_case() -> impl Strategy<Value = ChaosCase> {
    (
        arb_shape(),
        0..sites().len(),
        0usize..3,
        0u64..3,
        any::<bool>(),
    )
        .prop_map(|(shape, site, action, skip, force_spill)| ChaosCase {
            shape,
            site,
            action,
            skip,
            force_spill,
        })
}

/// The case's budget: spill forced when the case says so (both the
/// fault-free oracle run and the faulted run use the same mode, so the
/// budget-parity invariant stays meaningful).
fn case_budget(case: &ChaosCase) -> Budget {
    if case.force_spill {
        Budget::unlimited().with_spill_mode(SpillMode::Force)
    } else {
        Budget::unlimited()
    }
}

/// True if any spill directory created by this process is still on disk.
fn spill_dirs_leaked() -> bool {
    let prefix = format!("htqo-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .map(|entries| {
            entries
                .flatten()
                .any(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        })
        .unwrap_or(false)
}

fn action_of(case: &ChaosCase) -> FailAction {
    match case.action {
        0 => FailAction::Error,
        1 => FailAction::Panic,
        _ => FailAction::Delay(Duration::from_millis(1)),
    }
}

fn build(shape: &Shape) -> (Database, ConjunctiveQuery) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(shape.seed);
    let mut db = Database::new();
    let mut b = CqBuilder::new();
    for (i, (l, r)) in shape.atoms.iter().enumerate() {
        let mut rel = Relation::new(Schema::new(&[
            ("l", ColumnType::Int),
            ("r", ColumnType::Int),
        ]));
        for _ in 0..shape.rows {
            rel.push_row(vec![
                Value::Int(rng.gen_range(0..shape.domain) as i64),
                Value::Int(rng.gen_range(0..shape.domain) as i64),
            ])
            .unwrap();
        }
        db.insert_table(&format!("t{i}"), rel);
        let lv = format!("V{l}");
        let rv = format!("V{r}");
        b = b.atom(
            &format!("t{i}"),
            &format!("t{i}"),
            &[("l", &lv), ("r", &rv)],
        );
    }
    let mut q = b;
    let used: Vec<String> = shape
        .atoms
        .iter()
        .flat_map(|(l, r)| [format!("V{l}"), format!("V{r}")])
        .collect();
    let mut added = Vec::new();
    for &o in &shape.out {
        let name = format!("V{o}");
        if used.contains(&name) && !added.contains(&name) {
            q = q.out_var(&name);
            added.push(name);
        }
    }
    if added.is_empty() {
        let name = format!("V{}", shape.atoms[0].0);
        q = q.out_var(&name);
    }
    (db, q.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Strict mode (no fallback ladder): a single injected fault yields
    /// either the oracle answer (site dormant / skipped / delay-only) or
    /// one clean typed error — with, on success, budget charges identical
    /// to the fault-free run.
    #[test]
    fn injected_faults_never_corrupt_results(case in arb_case()) {
        let _g = lock();
        install_quiet_hook();
        failpoint::clear();
        let (db, q) = build(&case.shape);
        let opt = HybridOptimizer::structural(QhdOptions::default())
            .with_retry(RetryPolicy::none());

        let clean = opt.execute_cq(&db, &q, case_budget(&case));
        let oracle = clean.result.as_ref().expect("fault-free run succeeds");

        failpoint::configure(sites()[case.site], action_of(&case), case.skip, None);
        let out = opt.execute_cq(&db, &q, case_budget(&case));
        failpoint::clear();

        prop_assert!(!spill_dirs_leaked(), "spill temp files leaked");
        let attempt_sum: u64 = out.attempts.iter().map(|a| a.tuples).sum();
        match out.result {
            Ok(rel) => {
                prop_assert!(rel.set_eq(oracle), "fault at {} corrupted the answer", sites()[case.site]);
                prop_assert_eq!(out.tuples, clean.tuples,
                    "budget charges drifted under fault at {}", sites()[case.site]);
            }
            Err(e) => {
                prop_assert!(
                    matches!(e, EvalError::Internal(_) | EvalError::WorkerPanicked { .. }),
                    "unexpected error class from injected fault: {e:?}"
                );
                prop_assert_eq!(out.tuples, attempt_sum, "charge accounting inconsistent");
            }
        }
    }

    /// Default mode: the graceful-degradation ladder turns one-shot
    /// faults into oracle-correct answers via a lower rung; persistent
    /// faults still end in a clean error.
    #[test]
    fn ladder_degrades_gracefully_under_faults(case in arb_case()) {
        let _g = lock();
        install_quiet_hook();
        failpoint::clear();
        let (db, q) = build(&case.shape);
        let opt = HybridOptimizer::structural(QhdOptions::default());

        let clean = opt.execute_cq(&db, &q, case_budget(&case));
        let oracle = clean.result.as_ref().expect("fault-free run succeeds");

        // One-shot fault: whichever rung absorbs it, the next one is clean.
        failpoint::configure(sites()[case.site], action_of(&case), case.skip, Some(1));
        let out = opt.execute_cq(&db, &q, case_budget(&case));
        failpoint::clear();

        prop_assert!(!spill_dirs_leaked(), "spill temp files leaked");
        match &out.result {
            Ok(rel) => {
                prop_assert!(rel.set_eq(oracle), "fault at {} corrupted the answer", sites()[case.site]);
                // A rescued run must say so.
                if !out.attempts.is_empty() {
                    prop_assert!(out.degraded());
                    prop_assert!(out.rung != Rung::QHd || out.attempts.is_empty());
                }
            }
            Err(e) => prop_assert!(
                matches!(e, &EvalError::Internal(_) | &EvalError::WorkerPanicked { .. }),
                "unexpected error class: {e:?}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The join-order baseline under the same faults: it is the engine of
    /// the ladder's naive rung and of every `DbmsSim`, and the only
    /// evaluator that reaches `ops::join`, `ops::project` and the row
    /// `aggregate::finalize`. A single fault yields the fault-free answer
    /// with the fault-free charges, one clean typed error, or — no ladder
    /// rung contains it on this path — the injected panic itself; never a
    /// wrong answer or a leaked spill directory.
    #[test]
    fn join_order_baseline_survives_faults(case in arb_case()) {
        let _g = lock();
        install_quiet_hook();
        failpoint::clear();
        let (db, q) = build(&case.shape);
        let baseline = |budget: &mut Budget| {
            let answer = evaluate_naive(&db, &q, budget)?;
            htqo_engine::aggregate::finalize(&answer, &q, budget)
        };
        let mut clean_budget = case_budget(&case);
        let oracle = baseline(&mut clean_budget).expect("fault-free run succeeds");

        failpoint::configure(sites()[case.site], action_of(&case), case.skip, None);
        let mut budget = case_budget(&case);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| baseline(&mut budget)));
        failpoint::clear();

        prop_assert!(!spill_dirs_leaked(), "spill temp files leaked");
        match out {
            Ok(Ok(rel)) => {
                prop_assert!(rel.set_eq(&oracle), "fault at {} corrupted the answer", sites()[case.site]);
                prop_assert_eq!(budget.charged(), clean_budget.charged(),
                    "budget charges drifted under fault at {}", sites()[case.site]);
            }
            Ok(Err(e)) => prop_assert!(
                matches!(e, EvalError::Internal(_) | EvalError::WorkerPanicked { .. }),
                "unexpected error class from injected fault: {e:?}"
            ),
            Err(payload) => prop_assert!(
                payload.downcast_ref::<String>().is_some_and(|m| m.contains(PANIC_MARKER)),
                "a panic that was not injected escaped the baseline"
            ),
        }
    }
}

/// The acceptance scenario spelled out: a panic injected into the q-HD
/// evaluator is contained by its rung as `WorkerPanicked`, what the rung
/// charged before it panicked is accounted exactly, and the default
/// ladder still produces the oracle-correct answer on a lower rung.
#[test]
fn worker_panic_is_contained_and_ladder_rescues() {
    let _g = lock();
    install_quiet_hook();
    failpoint::clear();
    let shape = Shape {
        atoms: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        out: vec![0, 2],
        rows: 40,
        domain: 5,
        seed: 7,
    };
    let (db, q) = build(&shape);
    let opt = HybridOptimizer::structural(QhdOptions::default());
    let clean = opt.execute_cq(&db, &q, Budget::unlimited());
    let oracle = clean.result.as_ref().expect("fault-free run succeeds");

    // Only the q-HD rung runs the bottom-up pass (after every vertex
    // join of P′ has been charged); the bushy/naive rungs never reach the
    // site and run clean.
    failpoint::configure("qeval::bottom_up", FailAction::Panic, 0, None);
    let strict = HybridOptimizer::structural(QhdOptions::default()).with_retry(RetryPolicy::none());
    let failed = strict.execute_cq(&db, &q, Budget::unlimited());
    assert!(
        matches!(failed.result, Err(EvalError::WorkerPanicked { ref message })
            if message.contains(PANIC_MARKER)),
        "expected a contained panic, got {:?}",
        failed.result
    );
    // P′ ran to completion before the panic; its charges survive it.
    assert!(failed.tuples > 0);
    assert_eq!(failed.tuples, failed.attempts[0].tuples);

    let rescued = opt.execute_cq(&db, &q, Budget::unlimited());
    failpoint::clear();
    assert!(rescued.degraded(), "{}", rescued.plan);
    // The same panic after the same work, then a whole clean rung.
    assert_eq!(rescued.attempts[0].tuples, failed.tuples);
    assert!(rescued.tuples > failed.tuples);
    assert_ne!(rescued.rung, Rung::QHd);
    assert!(matches!(
        rescued.attempts[0].error,
        EvalError::WorkerPanicked { .. }
    ));
    assert!(rescued.result.unwrap().set_eq(oracle));
}

/// Cooperative cancellation: a cancelled token aborts evaluation with
/// `EvalError::Cancelled`, and the ladder honors it — cancellation is
/// not retryable, so no fallback rung runs.
#[test]
fn cancellation_aborts_cleanly_and_is_not_retried() {
    let _g = lock();
    install_quiet_hook();
    failpoint::clear();
    let shape = Shape {
        atoms: vec![(0, 1), (1, 2), (2, 3)],
        out: vec![0],
        rows: 30,
        domain: 4,
        seed: 11,
    };
    let (db, q) = build(&shape);
    let opt = HybridOptimizer::structural(QhdOptions::default());

    // Pre-cancelled token: the run aborts at the first polling point.
    let token = CancelToken::new();
    token.cancel();
    let out = opt.execute_cq(&db, &q, Budget::unlimited().with_cancel_token(token));
    assert!(matches!(out.result, Err(EvalError::Cancelled)));
    assert_eq!(out.attempts.len(), 1, "ladder must not retry cancellation");

    // Concurrent cancellation: a delay widens the window, a second thread
    // cancels mid-run, and the next polling point observes it.
    failpoint::configure(
        "qeval::vertex",
        FailAction::Delay(Duration::from_millis(40)),
        0,
        None,
    );
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            token.cancel();
        })
    };
    let out = opt.execute_cq(&db, &q, Budget::unlimited().with_cancel_token(token));
    canceller.join().unwrap();
    failpoint::clear();
    assert!(
        matches!(out.result, Err(EvalError::Cancelled)),
        "expected mid-run cancellation, got {:?}",
        out.result
    );
    assert!(!EvalError::Cancelled.is_retryable());
    assert_eq!(out.attempts.len(), 1);
}
