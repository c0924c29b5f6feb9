//! Compiled statements are an optimization, never a semantic change.
//!
//! 1. **Route equivalence** — random templates (lines, cycles and stars
//!    of 2–6 atoms, with renamed and atom-permuted variants, constant
//!    filters, grouped aggregates with HAVING / ORDER BY + LIMIT, and an
//!    `IN (SELECT …)`) answer the same — same rows, same tuple charge,
//!    same rung, same plan description — whether they run ad hoc on a
//!    text miss, ad hoc on a text hit, prepared (twice), or through
//!    `HybridOptimizer::execute_sql` with no session at all, and that
//!    answer is the naive oracle's.
//! 2. **Bounds** — the statement cache never exceeds its capacity, an
//!    evicted text still answers, capacity 0 retains nothing.
//! 3. **Concurrency** — 8 threads over the same 6 texts answer
//!    oracle-identically.
//! 4. **Staleness** — at the optimizer level, `refresh_stats` between
//!    `compile_cq` and `execute_compiled` is never served as a hit.
//!
//! Mutation-checked: keying the statement cache on a text prefix fails
//! (2); skipping the epoch compare in `execute_compiled` fails (4).

use htqo_core::QhdOptions;
use htqo_cq::{isolate, parse_select, IsolatorOptions};
use htqo_engine::error::Budget;
use htqo_engine::schema::Database;
use htqo_engine::VRelation;
use htqo_eval::evaluate_naive;
use htqo_optimizer::{flatten_subqueries, HybridOptimizer, PlanCacheStatus, QueryOutcome};
use htqo_service::{QueryService, ServiceConfig};
use htqo_workloads::{workload_db, WorkloadSpec};
use proptest::prelude::*;

const RELATIONS: usize = 7;
const ROWS: usize = 24;
const DOMAIN: u64 = 6;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Line,
    Cycle,
    Star,
}

#[derive(Clone, Debug)]
enum Tail {
    /// `SELECT first.l, last.r`.
    Plain,
    /// Grouped on `first.l` with COUNT/SUM/MIN, optional `HAVING n > h`
    /// and `ORDER BY g [DESC] LIMIT k` (the group key is unique per row,
    /// so the limited answer is deterministic).
    Grouped {
        having: Option<i64>,
        top: Option<(bool, usize)>,
    },
    /// Plain plus `first.l IN (SELECT s.l FROM p<rel> s WHERE s.r <= c)`.
    InSubquery { rel: usize, bound: i64 },
}

#[derive(Clone, Debug)]
struct Template {
    kind: Kind,
    atoms: usize,
    /// Atom `i` reads relation `p{(first_rel + i) % RELATIONS}`.
    first_rel: usize,
    /// `alias<atom>.r <= bound`.
    filter: Option<(usize, i64)>,
    tail: Tail,
}

fn arb_tail() -> impl Strategy<Value = Tail> {
    prop_oneof![
        3 => Just(Tail::Plain),
        3 => (
            prop::option::of(0..4i64),
            prop::option::of((any::<bool>(), 1..5usize)),
        )
            .prop_map(|(having, top)| Tail::Grouped { having, top }),
        1 => (0..RELATIONS, 1..DOMAIN as i64)
            .prop_map(|(rel, bound)| Tail::InSubquery { rel, bound }),
    ]
}

fn arb_template() -> impl Strategy<Value = Template> {
    (
        prop_oneof![Just(Kind::Line), Just(Kind::Cycle), Just(Kind::Star)],
        2..=6usize,
        0..RELATIONS,
        prop::option::of((0..6usize, 1..DOMAIN as i64)),
        arb_tail(),
    )
        .prop_map(|(kind, atoms, first_rel, filter, tail)| Template {
            kind,
            atoms,
            first_rel,
            filter: filter.map(|(a, c)| (a % atoms, c)),
            tail,
        })
}

/// An argsort permutation of `0..n` drawn from `keys`.
fn perm(keys: &[u64], n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (keys[i % keys.len()], i));
    idx
}

impl Template {
    /// The SQL text: aliases `<prefix><atom>`, FROM entries and WHERE
    /// conjuncts each in the order `keys` sorts them into.
    fn render(&self, prefix: &str, keys: &[u64]) -> String {
        let n = self.atoms;
        let a = |i: usize| format!("{prefix}{i}");
        let from: Vec<String> = (0..n)
            .map(|i| format!("p{} {}", (self.first_rel + i) % RELATIONS, a(i)))
            .collect();
        let mut preds: Vec<String> = match self.kind {
            Kind::Line | Kind::Cycle => (0..n - 1)
                .map(|i| format!("{}.r = {}.l", a(i), a(i + 1)))
                .collect(),
            Kind::Star => (1..n).map(|i| format!("{}.l = {}.l", a(0), a(i))).collect(),
        };
        if matches!(self.kind, Kind::Cycle) {
            preds.push(format!("{}.r = {}.l", a(n - 1), a(0)));
        }
        if let Some((atom, bound)) = self.filter {
            preds.push(format!("{}.r <= {bound}", a(atom)));
        }
        if let Tail::InSubquery { rel, bound } = &self.tail {
            preds.push(format!(
                "{}.l IN (SELECT s.l FROM p{rel} s WHERE s.r <= {bound})",
                a(0)
            ));
        }
        let from: Vec<String> = perm(keys, n).into_iter().map(|i| from[i].clone()).collect();
        let preds: Vec<String> = perm(&keys[1..], preds.len())
            .into_iter()
            .map(|i| preds[i].clone())
            .collect();
        let (first, last) = (a(0), a(n - 1));
        let body = format!("FROM {} WHERE {}", from.join(", "), preds.join(" AND "));
        match &self.tail {
            Tail::Plain | Tail::InSubquery { .. } => {
                format!("SELECT {first}.l, {last}.r {body}")
            }
            Tail::Grouped { having, top } => {
                let mut sql = format!(
                    "SELECT {first}.l AS g, COUNT(*) AS n, SUM({last}.r) AS s, MIN({last}.r) AS lo \
                     {body} GROUP BY {first}.l"
                );
                if let Some(h) = having {
                    sql.push_str(&format!(" HAVING n > {h}"));
                }
                if let Some((desc, k)) = top {
                    let dir = if *desc { " DESC" } else { "" };
                    sql.push_str(&format!(" ORDER BY g{dir} LIMIT {k}"));
                }
                sql
            }
        }
    }

    fn ordered(&self) -> bool {
        matches!(self.tail, Tail::Grouped { top: Some(_), .. })
    }

    fn cacheable(&self) -> bool {
        !matches!(self.tail, Tail::InSubquery { .. })
    }
}

fn database() -> Database {
    workload_db(&WorkloadSpec::new(RELATIONS, ROWS, DOMAIN, 41))
}

fn optimizer(db: &Database) -> HybridOptimizer {
    HybridOptimizer::with_stats(QhdOptions::default(), htqo_stats::analyze(db))
}

fn service(capacity: Option<usize>) -> QueryService {
    let db = database();
    let mut opt = optimizer(&db);
    if let Some(capacity) = capacity {
        opt = opt.with_cache_capacity(capacity);
    }
    QueryService::new(db, opt, ServiceConfig::default())
}

/// The obviously correct answer: naive join of the isolated query.
fn oracle(db: &Database, sql: &str) -> VRelation {
    let mut budget = Budget::unlimited();
    let stmt = parse_select(sql).expect("template parses");
    let (db, stmt) = flatten_subqueries(db, &stmt, &mut budget).expect("template flattens");
    let q = isolate(&stmt, &db, IsolatorOptions::default()).expect("template isolates");
    let joined = evaluate_naive(&db, &q, &mut budget).expect("naive join");
    htqo_engine::aggregate::finalize(&joined, &q, &mut budget).expect("naive finalize")
}

fn same_answer(got: &VRelation, want: &VRelation, ordered: bool) -> bool {
    if ordered {
        got.cols() == want.cols() && got.rows() == want.rows()
    } else {
        got.set_eq(want)
    }
}

/// What must not depend on the route a statement took.
fn fingerprint(o: &QueryOutcome) -> (u64, String, String) {
    (o.tuples, format!("{:?}", o.rung), o.plan.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: every route answers the same, on every variant.
    #[test]
    fn every_route_answers_the_same(
        t in arb_template(),
        keys in prop::collection::vec(any::<u64>(), 8),
    ) {
        let svc = service(None);
        let session = svc.session();
        let identity = [0u64; 8];
        // The base text, a renamed variant, an atom- and
        // conjunct-permuted variant (both shape hits in the optimizer).
        let variants = [
            t.render("a", &identity),
            t.render("t", &identity),
            t.render("a", &keys),
        ];
        for (v, sql) in variants.iter().enumerate() {
            let want = oracle(svc.database(), sql);
            let miss = session.execute_sql(sql).expect("admitted");
            let hit = session.execute_sql(sql).expect("admitted");
            let id = session.prepare(sql).expect("compiles");
            let p1 = session.execute_prepared(id).expect("admitted");
            let p2 = session.execute_prepared(id).expect("admitted");
            let direct = svc
                .optimizer()
                .execute_sql(svc.database(), sql, Budget::unlimited())
                .expect("compiles");

            if t.cacheable() {
                // Whether a re-rendered variant is a new text depends on
                // the drawn permutation; the first text always is.
                if v == 0 {
                    prop_assert_eq!(miss.plan_cache, PlanCacheStatus::Miss, "{}", sql);
                }
                for o in [&hit, &p1, &p2] {
                    prop_assert_eq!(o.plan_cache, PlanCacheStatus::Hit, "{}", sql);
                }
            }
            let reference = fingerprint(&miss);
            for (route, o) in [("miss", &miss), ("hit", &hit), ("prepared", &p1),
                               ("prepared again", &p2), ("direct", &direct)] {
                prop_assert_eq!(fingerprint(o), reference.clone(), "{} via {}", sql, route);
                let got = o.result.as_ref().expect("fault-free run");
                prop_assert!(
                    same_answer(got, &want, t.ordered()),
                    "{} via {}: {} rows, oracle {}", sql, route, got.len(), want.len()
                );
            }
        }
        // One compilation per distinct text, however many routes ran it
        // (a nested text is never retained).
        let distinct = variants.iter().collect::<std::collections::BTreeSet<_>>().len();
        let m = svc.metrics().statement_cache;
        let expected = if t.cacheable() { distinct as u64 } else { 0 };
        prop_assert_eq!((m.entries, m.misses), (expected, expected), "{:?}", variants);
    }

    /// Property 4: ANALYZE between compile and execute is never a hit,
    /// and changes no answer.
    #[test]
    fn refreshed_statistics_are_never_served_as_a_hit(t in arb_template()) {
        if !t.cacheable() {
            // A nested statement is never compiled ahead of execution.
            return Ok(());
        }
        let db = database();
        let mut opt = optimizer(&db);
        let sql = t.render("a", &[0u64; 8]);
        let q = isolate(
            &parse_select(&sql).expect("template parses"),
            &db,
            IsolatorOptions::default(),
        )
        .expect("template isolates");
        let compiled = opt.compile_cq(&q);
        let hot = opt.execute_compiled(&db, &compiled, Budget::unlimited());
        prop_assert_eq!(hot.plan_cache, PlanCacheStatus::Hit);
        opt.refresh_stats(Some(htqo_stats::analyze(&db)));
        let stale = opt.execute_compiled(&db, &compiled, Budget::unlimited());
        prop_assert_ne!(stale.plan_cache, PlanCacheStatus::Hit, "{}", sql);
        prop_assert!(same_answer(
            stale.result.as_ref().expect("fault-free run"),
            hot.result.as_ref().expect("fault-free run"),
            t.ordered()
        ));
        // A statement compiled after the refresh is current again.
        let fresh = opt.compile_cq(&q);
        let out = opt.execute_compiled(&db, &fresh, Budget::unlimited());
        prop_assert_eq!(out.plan_cache, PlanCacheStatus::Hit);
    }
}

/// Texts that share everything but their last token (and are long, so
/// that no prefix short of the whole text tells them apart).
fn tail_text(i: usize) -> String {
    format!(
        "SELECT first_atom.l AS g, COUNT(*) AS n, MAX(last_atom.r) AS hi \
         FROM p0 first_atom, p1 second_atom, p2 third_atom, p3 last_atom \
         WHERE first_atom.r = second_atom.l AND second_atom.r = third_atom.l \
         AND third_atom.r = last_atom.l AND second_atom.l <= 4 \
         GROUP BY first_atom.l ORDER BY g LIMIT {}",
        i + 1
    )
}

/// Property 2a: `entries ≤ capacity` throughout 4 × capacity distinct
/// texts, and an evicted text still answers (as a text miss).
#[test]
fn statement_cache_is_bounded_and_evicted_texts_still_answer() {
    const CAPACITY: usize = 8;
    let svc = service(Some(CAPACITY));
    let session = svc.session();
    for i in 0..4 * CAPACITY {
        let sql = tail_text(i);
        let out = session.execute_sql(&sql).expect("admitted");
        let got = out.result.expect("fault-free run");
        assert!(
            same_answer(&got, &oracle(svc.database(), &sql), true),
            "{sql}"
        );
        let m = svc.metrics();
        assert!(m.statement_cache.entries as usize <= CAPACITY, "{m:?}");
    }
    let m = svc.metrics();
    assert_eq!(m.statement_cache.misses as usize, 4 * CAPACITY);
    assert_eq!(m.plan_cache.misses, 1, "one shape, planned once");
    // The first text was evicted long ago: it compiles again and answers.
    let sql = tail_text(0);
    let out = session.execute_sql(&sql).expect("admitted");
    assert_ne!(
        out.plan_cache,
        PlanCacheStatus::Miss,
        "the shape is still cached"
    );
    assert_eq!(out.result.expect("fault-free run").len(), 1, "LIMIT 1");
    assert_eq!(
        svc.metrics().statement_cache.misses as usize,
        4 * CAPACITY + 1
    );
}

/// Property 2b: capacity 0 retains nothing service-wide.
#[test]
fn capacity_zero_retains_nothing() {
    let svc = service(Some(0));
    let session = svc.session();
    for i in 0..6 {
        let sql = tail_text(i % 3);
        let out = session.execute_sql(&sql).expect("admitted");
        assert_eq!(out.plan_cache, PlanCacheStatus::Uncached);
        let got = out.result.expect("fault-free run");
        assert!(same_answer(&got, &oracle(svc.database(), &sql), true));
    }
    let m = svc.metrics();
    assert_eq!(m.statement_cache, Default::default());
    assert_eq!(m.plan_cache, Default::default());
    assert_eq!(svc.optimizer().cached_plans(), 0);
}

/// Property 3: 8 threads over the same 6 texts.
#[test]
fn eight_threads_share_six_texts() {
    let svc = service(None);
    let keys = [3u64, 1, 4, 1, 5, 9, 2, 6];
    let shape = |kind, atoms, tail| Template {
        kind,
        atoms,
        first_rel: 1,
        filter: Some((0, 4)),
        tail,
    };
    let grouped = Tail::Grouped {
        having: Some(1),
        top: Some((true, 3)),
    };
    let texts: Vec<(String, bool)> = [
        (shape(Kind::Line, 4, Tail::Plain), "a", [0u64; 8]),
        (shape(Kind::Line, 4, Tail::Plain), "x", keys),
        (shape(Kind::Cycle, 3, grouped.clone()), "a", [0u64; 8]),
        (shape(Kind::Cycle, 3, grouped), "y", keys),
        (shape(Kind::Star, 3, Tail::Plain), "a", [0u64; 8]),
        (
            shape(Kind::Line, 2, Tail::InSubquery { rel: 5, bound: 3 }),
            "a",
            [0u64; 8],
        ),
    ]
    .into_iter()
    .map(|(t, prefix, keys)| (t.render(prefix, &keys), t.ordered()))
    .collect();
    let oracles: Vec<VRelation> = texts
        .iter()
        .map(|(sql, _)| oracle(svc.database(), sql))
        .collect();

    let start = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for thread in 0..8usize {
            let (svc, texts, oracles, start) = (&svc, &texts, &oracles, &start);
            scope.spawn(move || {
                let session = svc.session();
                // All threads meet the cold caches together.
                start.wait();
                let prepared: Vec<_> = texts
                    .iter()
                    .map(|(sql, _)| session.prepare(sql).expect("compiles"))
                    .collect();
                for round in 0..12 {
                    for i in 0..texts.len() {
                        let i = (i + thread) % texts.len();
                        let out = if (round + thread) % 2 == 0 {
                            session.execute_prepared(prepared[i])
                        } else {
                            session.execute_sql(&texts[i].0)
                        }
                        .expect("16 permits cover 8 threads");
                        let got = out.result.expect("fault-free run");
                        assert!(
                            same_answer(&got, &oracles[i], texts[i].1),
                            "thread {thread} round {round}: {}",
                            texts[i].0
                        );
                    }
                }
            });
        }
    });
    let m = svc.metrics();
    assert_eq!(
        m.statement_cache.entries, 5,
        "the nested text is not cached"
    );
    assert_eq!(m.completed_err, 0);
    assert_eq!(m.in_flight, 0);
}
