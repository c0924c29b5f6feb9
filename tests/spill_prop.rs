//! Spill-equivalence property tests: memory-governed execution under a
//! randomized byte limit.
//!
//! Every case runs a random query (same family as `chaos_prop`) with a
//! random byte limit, from "far too small for anything" up to "comfortably unlimited" — through the hybrid
//! optimizer (columnar kernels) and through the join-order baseline (row
//! kernels). The invariants, checked after every single case:
//!
//! 1. the outcome is either set-equal to the unlimited in-memory oracle
//!    (the spill path is content-identical; only row order may differ) or
//!    a clean typed error — [`EvalError::MemoryExceeded`] or
//!    [`EvalError::SpillIo`] — never a wrong answer, an OS-level OOM, or
//!    an escaped panic;
//! 2. no spill temp files survive the run, whether it succeeded, spilled,
//!    or failed mid-spill.
//!
//! Case count per property is `HTQO_CHAOS_CASES` (default 120).

use htqo::prelude::*;
use htqo_engine::error::SpillMode;
use htqo_engine::schema::{ColumnType, Schema};
use proptest::prelude::*;
use std::sync::Mutex;

fn cases() -> u32 {
    std::env::var("HTQO_CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120)
}

/// The leak check looks at every spill directory of the process, so a
/// running case would read as another's leak: cases must not interleave.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

/// True if any spill directory created by *this process* is still on
/// disk. Spill directories are named `htqo-spill-<pid>-<seq>` and live in
/// the system temp dir unless `HTQO_SPILL_DIR` redirects them (these
/// tests don't set it).
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

/// A random query shape: binary atoms over a small variable pool, random
/// data, random output variables (same family as `chaos_prop`).
#[derive(Debug, Clone)]
struct Shape {
    atoms: Vec<(usize, usize)>,
    out: Vec<usize>,
    rows: usize,
    domain: u64,
    seed: u64,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (2usize..5)
        .prop_flat_map(|n| {
            let vars = n + 1;
            (
                prop::collection::vec((0..vars, 0..vars), n),
                prop::collection::vec(0..vars, 1..3),
                20usize..80,
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

/// One spill case: a workload, a byte limit (log-uniform from 2 KiB — far
/// below anything useful, forcing denials and recursive re-partitioning —
/// up to 4 MiB).
#[derive(Debug, Clone)]
struct SpillCase {
    shape: Shape,
    limit_log2: u32,
    limit_jitter: u64,
}

fn arb_case() -> impl Strategy<Value = SpillCase> {
    (arb_shape(), 11u32..22, 0u64..1024).prop_map(|(shape, limit_log2, limit_jitter)| SpillCase {
        shape,
        limit_log2,
        limit_jitter,
    })
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

    /// Strict mode (no fallback ladder, spill on denial): any byte limit
    /// yields either the oracle answer or a clean typed memory/spill
    /// error, with no leaked temp files.
    #[test]
    fn byte_limits_never_corrupt_results(case in arb_case()) {
        let _g = lock();
        let (db, q) = build(&case.shape);
        let opt = HybridOptimizer::structural(QhdOptions::default())
            .with_retry(RetryPolicy::none());

        let clean = opt.execute_cq(&db, &q, Budget::unlimited());
        let oracle = clean.result.as_ref().expect("unlimited run succeeds");

        let limit = (1u64 << case.limit_log2) + case.limit_jitter;
        let out = opt.execute_cq(&db, &q, Budget::unlimited().with_mem_limit(limit));

        prop_assert!(!spill_dirs_leaked(), "spill temp files leaked at limit {limit}");
        match out.result {
            Ok(rel) => prop_assert!(
                rel.set_eq(oracle),
                "limit {limit} corrupted the answer (spilled {} bytes / {} partitions)",
                out.spill_bytes, out.spill_partitions
            ),
            Err(e) => prop_assert!(
                matches!(e, EvalError::MemoryExceeded { .. } | EvalError::SpillIo(_)),
                "unexpected error class under limit {limit}: {e:?}"
            ),
        }
    }

    /// Default mode: the ladder (including the forced-spill retry of the
    /// same rung) may rescue a memory hit, but the answer is still the
    /// oracle's or a clean typed error, with nothing leaked.
    #[test]
    fn ladder_with_spill_retry_stays_correct(case in arb_case()) {
        let _g = lock();
        let (db, q) = build(&case.shape);
        let opt = HybridOptimizer::structural(QhdOptions::default());

        let clean = opt.execute_cq(&db, &q, Budget::unlimited());
        let oracle = clean.result.as_ref().expect("unlimited run succeeds");

        let limit = (1u64 << case.limit_log2) + case.limit_jitter;
        let out = opt.execute_cq(&db, &q, Budget::unlimited().with_mem_limit(limit));

        prop_assert!(!spill_dirs_leaked(), "spill temp files leaked at limit {limit}");
        match out.result {
            Ok(rel) => prop_assert!(rel.set_eq(oracle), "limit {limit} corrupted the answer"),
            Err(e) => prop_assert!(
                matches!(e, EvalError::MemoryExceeded { .. } | EvalError::SpillIo(_)),
                "unexpected error class under limit {limit}: {e:?}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The join-order baseline (`evaluate_naive` + row `finalize`, the
    /// engine of the naive rung and every `DbmsSim`) under the same
    /// limits: `ops::natural_join` spills Grace-style or is denied, and
    /// the answer is the unlimited one or a clean typed memory/spill
    /// error, with no leaked temp files.
    #[test]
    fn byte_limits_never_corrupt_the_join_order_baseline(case in arb_case()) {
        let _g = lock();
        let (db, q) = build(&case.shape);
        let baseline = |budget: &mut Budget| {
            let answer = evaluate_naive(&db, &q, budget)?;
            htqo_engine::aggregate::finalize(&answer, &q, budget)
        };
        let oracle = baseline(&mut Budget::unlimited()).expect("unlimited run succeeds");

        let limit = (1u64 << case.limit_log2) + case.limit_jitter;
        let mut budget = Budget::unlimited().with_mem_limit(limit);
        let out = baseline(&mut budget);

        prop_assert!(!spill_dirs_leaked(), "spill temp files leaked at limit {limit}");
        match out {
            Ok(rel) => prop_assert!(
                rel.set_eq(&oracle),
                "limit {limit} corrupted the answer (spilled {} bytes)",
                budget.spill_stats().bytes_written()
            ),
            Err(e) => prop_assert!(
                matches!(e, EvalError::MemoryExceeded { .. } | EvalError::SpillIo(_)),
                "unexpected error class under limit {limit}: {e:?}"
            ),
        }
    }
}

/// Pinned scenario: a limit small enough that level-0 spill partitions
/// still exceed memory forces *multi-level* recursive re-partitioning,
/// and the result is still exactly the oracle's — through the optimizer
/// (`cops::natural_join`) and through the join-order baseline
/// (`ops::natural_join`), which share the Grace machinery.
#[test]
fn multi_level_recursive_partitioning_matches_oracle() {
    let _g = lock();
    let mut db = Database::new();
    // Big build side, tiny join output (keys mostly disjoint): the
    // hash table, not the answer, is what exceeds the limit.
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
    let opt = HybridOptimizer::structural(QhdOptions::default()).with_retry(RetryPolicy::none());
    let clean = opt.execute_cq(&db, &q, Budget::unlimited());
    let oracle = clean.result.as_ref().expect("unlimited run succeeds");

    // ~60 KiB: the unfiltered scans share the stored columns and
    // charge no bytes, so the whole limit is join working set — below
    // a level-0 partition's, so at least one partition must
    // re-partition to level 1 before it fits.
    let out = opt.execute_cq(
        &db,
        &q,
        Budget::unlimited()
            .with_mem_limit(60_000)
            .with_spill_mode(SpillMode::Auto),
    );
    assert!(!spill_dirs_leaked(), "spill temp files leaked");
    let rel = out.result.expect("spilled run succeeds");
    assert!(rel.set_eq(oracle), "multi-level spill corrupted the answer");
    assert!(out.spill_bytes > 0);
    assert!(
        out.spill_partitions > 16,
        "expected recursion beyond level 0 (got {} partitions)",
        out.spill_partitions
    );

    let mut budget = Budget::unlimited()
        .with_mem_limit(60_000)
        .with_spill_mode(SpillMode::Auto);
    let rel = evaluate_naive(&db, &q, &mut budget).expect("spilled baseline succeeds");
    assert!(!spill_dirs_leaked(), "spill temp files leaked");
    assert!(
        rel.set_eq(oracle),
        "multi-level spill corrupted the baseline"
    );
    assert!(
        budget.spill_stats().partitions() > 16,
        "expected recursion beyond level 0 in the row kernel (got {} partitions)",
        budget.spill_stats().partitions()
    );
}
