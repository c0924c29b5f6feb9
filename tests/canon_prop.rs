//! Property tests for the canonical shape key behind the plan cache.
//!
//! Two families of properties:
//!
//! 1. **Invariance** — renaming variables, permuting atoms, and shuffling
//!    the variable order inside atoms never changes the canonical
//!    encoding, and at the optimizer level all such variants of a query
//!    land on (and are served from) a single plan-cache entry.
//! 2. **Soundness** — on small instances, the encoding is checked against
//!    a brute-force isomorphism oracle (all variable bijections): equal
//!    encodings **iff** the marked hypergraphs are isomorphic, so
//!    non-isomorphic queries can never collide onto one cached tree.
//!
//! A shape whose canonicalization runs over budget has no key: one test
//! pins that it is planned uncached and left to the statement cache.

use htqo::core::QhdOptions;
use htqo::engine::Budget;
use htqo::eval::evaluate_naive;
use htqo::hypergraph::{canonical_form, EdgeId, Hypergraph, Var, VarSet};
use htqo::optimizer::{HybridOptimizer, PlanCacheStats, PlanCacheStatus, Rung};
use htqo::service::{QueryService, ServiceConfig};
use htqo::workloads::{star_db, star_query};
use htqo_cq::{isolate, parse_select, ConjunctiveQuery, CqBuilder, IsolatorOptions};
use proptest::prelude::*;

fn cases() -> u32 {
    std::env::var("HTQO_CANON_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

/// A random marked hypergraph described by edges over a small variable
/// pool. Variables that appear in no edge simply don't exist in the
/// built hypergraph (in both the original and the renamed copy).
#[derive(Clone, Debug)]
struct Shape {
    edges: Vec<Vec<usize>>,
    marked: Vec<usize>,
}

fn arb_shape(max_vars: usize, max_edges: usize) -> impl Strategy<Value = Shape> {
    (2..=max_vars).prop_flat_map(move |vars| {
        (
            prop::collection::vec(prop::collection::vec(0..vars, 1..=3), 1..=max_edges),
            prop::collection::vec(0..vars, 0..3),
        )
            .prop_map(|(edges, mut marked)| {
                marked.sort_unstable();
                marked.dedup();
                Shape {
                    // Atom variable lists have no duplicates within one atom.
                    edges: edges
                        .into_iter()
                        .map(|mut e| {
                            e.sort_unstable();
                            e.dedup();
                            e
                        })
                        .collect(),
                    marked,
                }
            })
    })
}

/// An argsort-based permutation of `0..n` (proptest-friendly shuffle).
fn arb_perm(n: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(any::<u64>(), n).prop_map(|keys| {
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        idx.sort_by_key(|&i| (keys[i], i));
        let mut perm = vec![0usize; idx.len()];
        for (rank, &i) in idx.iter().enumerate() {
            perm[i] = rank;
        }
        perm
    })
}

/// Builds the hypergraph of `shape` with variables renamed through
/// `var_perm`, edges emitted in `edge_perm` order, and each edge's
/// variable list rotated by `rot` (exercises within-atom order).
fn build(
    shape: &Shape,
    var_perm: &[usize],
    edge_perm: &[usize],
    rot: usize,
) -> (Hypergraph, VarSet) {
    let mut b = Hypergraph::builder();
    for (pos, &e) in edge_perm.iter().enumerate() {
        let vars: Vec<String> = shape.edges[e]
            .iter()
            .cycle()
            .skip(rot % shape.edges[e].len().max(1))
            .take(shape.edges[e].len())
            .map(|&v| format!("V{}", var_perm[v]))
            .collect();
        let refs: Vec<&str> = vars.iter().map(|s| s.as_str()).collect();
        b.edge(&format!("e{pos}"), &refs);
    }
    let h = b.build();
    let mut marked = VarSet::new();
    for &m in &shape.marked {
        if let Some(v) = h.var_by_name(&format!("V{}", var_perm[m])) {
            marked.insert(v);
        }
    }
    (h, marked)
}

fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Extracts `(n, sorted edge multiset, marked set)` in index space for
/// the brute-force oracle.
fn digest(h: &Hypergraph, marked: &VarSet) -> (usize, Vec<Vec<usize>>, Vec<bool>) {
    let edges: Vec<Vec<usize>> = (0..h.num_edges())
        .map(|e| {
            let mut vs: Vec<usize> = h
                .edge_vars(EdgeId(e as u32))
                .iter()
                .map(Var::index)
                .collect();
            vs.sort_unstable();
            vs
        })
        .collect();
    let marks = (0..h.num_vars())
        .map(|v| marked.contains(Var(v as u32)))
        .collect();
    (h.num_vars(), edges, marks)
}

/// Brute-force isomorphism test: tries every variable bijection.
fn isomorphic_oracle(
    a: &(usize, Vec<Vec<usize>>, Vec<bool>),
    b: &(usize, Vec<Vec<usize>>, Vec<bool>),
) -> bool {
    if a.0 != b.0 || a.1.len() != b.1.len() {
        return false;
    }
    let mut sorted_b = b.1.clone();
    sorted_b.sort();
    let mut perm: Vec<usize> = (0..a.0).collect();
    // Heap's-algorithm-free enumeration: next_permutation over the sorted
    // sequence visits all n! orders.
    loop {
        let ok = perm.iter().enumerate().all(|(v, &img)| a.2[v] == b.2[img]) && {
            let mut mapped: Vec<Vec<usize>> =
                a.1.iter()
                    .map(|e| {
                        let mut m: Vec<usize> = e.iter().map(|&v| perm[v]).collect();
                        m.sort_unstable();
                        m
                    })
                    .collect();
            mapped.sort();
            mapped == sorted_b
        };
        if ok {
            return true;
        }
        if !next_permutation(&mut perm) {
            return false;
        }
    }
}

fn next_permutation(p: &mut [usize]) -> bool {
    if p.len() < 2 {
        return false;
    }
    let mut i = p.len() - 1;
    while i > 0 && p[i - 1] >= p[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = p.len() - 1;
    while p[j] <= p[i - 1] {
        j -= 1;
    }
    p.swap(i - 1, j);
    p[i..].reverse();
    true
}

/// The conjunctive-query rendering of a shape: atom `i` over relation
/// `prefix{i}` with columns `c0..`, one per variable.
fn shape_query(
    shape: &Shape,
    var_perm: &[usize],
    edge_perm: &[usize],
    prefix: &str,
) -> htqo_cq::ConjunctiveQuery {
    let mut b = CqBuilder::new();
    for (pos, &e) in edge_perm.iter().enumerate() {
        let cols: Vec<(String, String)> = shape.edges[e]
            .iter()
            .enumerate()
            .map(|(c, &v)| (format!("c{c}"), format!("V{}", var_perm[v])))
            .collect();
        let refs: Vec<(&str, &str)> = cols.iter().map(|(c, v)| (c.as_str(), v.as_str())).collect();
        b = b.atom(&format!("{prefix}{pos}"), &format!("{prefix}{e}"), &refs);
    }
    let used: Vec<usize> = shape.edges.iter().flatten().copied().collect();
    for &m in &shape.marked {
        if used.contains(&m) {
            b = b.out_var(&format!("V{}", var_perm[m]));
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Renaming variables, reordering edges, and rotating within-edge
    /// variable order never changes the canonical encoding.
    #[test]
    fn encoding_is_isomorphism_invariant(
        shape in arb_shape(8, 6),
        seed_v in any::<u64>(),
        rot in 0usize..4,
    ) {
        let var_perm = {
            let n = 8;
            let mut idx: Vec<usize> = (0..n).collect();
            // Cheap deterministic shuffle from the seed.
            for i in (1..n).rev() {
                let j = (seed_v.rotate_left(i as u32) as usize) % (i + 1);
                idx.swap(i, j);
            }
            idx
        };
        let edge_perm = {
            let m = shape.edges.len();
            let mut idx: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                let j = (seed_v.rotate_right(i as u32) as usize) % (i + 1);
                idx.swap(i, j);
            }
            idx
        };
        let (h1, m1) = build(&shape, &identity(8), &identity(shape.edges.len()), 0);
        let (h2, m2) = build(&shape, &var_perm, &edge_perm, rot);
        let c1 = canonical_form(&h1, &m1).expect("small shape within budget");
        let c2 = canonical_form(&h2, &m2).expect("small shape within budget");
        prop_assert_eq!(c1.encoding, c2.encoding);
    }

    /// On small instances, equal encodings ⇔ brute-force isomorphic:
    /// the shape key is sound (non-isomorphic marked hypergraphs never
    /// collide) *and* complete (isomorphic ones always do).
    #[test]
    fn encoding_matches_brute_force_oracle(
        a in arb_shape(5, 4),
        b in arb_shape(5, 4),
    ) {
        let (ha, ma) = build(&a, &identity(5), &identity(a.edges.len()), 0);
        let (hb, mb) = build(&b, &identity(5), &identity(b.edges.len()), 0);
        let ca = canonical_form(&ha, &ma).expect("within budget");
        let cb = canonical_form(&hb, &mb).expect("within budget");
        let oracle = isomorphic_oracle(&digest(&ha, &ma), &digest(&hb, &mb));
        prop_assert_eq!(
            ca.encoding == cb.encoding,
            oracle,
            "encoding collision disagrees with the isomorphism oracle"
        );
    }

    /// Optimizer-level invariance: a renamed, atom-permuted variant of a
    /// query is served from the *same* plan-cache entry — one miss total,
    /// every variant a shape hit.
    #[test]
    fn renamed_variants_share_one_cache_entry(
        shape in arb_shape(6, 5),
        var_perm in arb_perm(6),
        seed in any::<u64>(),
    ) {
        let edge_perm = {
            let m = shape.edges.len();
            let mut idx: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                let j = (seed.rotate_left(i as u32) as usize) % (i + 1);
                idx.swap(i, j);
            }
            idx
        };
        let q1 = shape_query(&shape, &identity(6), &identity(shape.edges.len()), "r");
        let q2 = shape_query(&shape, &var_perm, &edge_perm, "s");
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let r1 = opt.plan_cq_cached(&q1);
        let r2 = opt.plan_cq_cached(&q2);
        prop_assert_eq!(r1.is_ok(), r2.is_ok(), "isomorphic queries must agree on plannability");
        if r1.is_ok() {
            let stats = opt.plan_cache_stats();
            prop_assert_eq!(stats.misses, 1, "second variant must not re-plan");
            prop_assert_eq!(stats.revalidated, 1);
            prop_assert_eq!(opt.cached_plans(), 1, "variants collapsed onto one entry");
            let (p1, p2) = (r1.unwrap(), r2.unwrap());
            prop_assert_eq!(p1.tree.width(), p2.tree.width());
            prop_assert_eq!(p1.tree.len(), p2.tree.len());
        }
    }
}

fn over_budget(q: &ConjunctiveQuery) -> bool {
    let ch = q.hypergraph();
    canonical_form(&ch.hypergraph, &ch.out_var_set(q)).is_none()
}

/// A shape whose canonicalization runs over its symmetry budget has no
/// plan-cache key: it is planned without the cache on every execution,
/// and the exact repeats of its text are served by the service's
/// statement cache instead.
#[test]
fn an_over_budget_shape_is_planned_uncached() {
    let q = star_query(8);
    // Once canonicalization covers this shape, pick one it gives up on.
    assert!(over_budget(&q), "star_query(8) canonicalizes within budget");
    let db = star_db(8, 20, 20, 3);
    let want = evaluate_naive(&db, &q, &mut Budget::unlimited()).unwrap();
    assert!(!want.is_empty());
    let opt = HybridOptimizer::structural(QhdOptions::default());
    for _ in 0..2 {
        let out = opt.execute_cq(&db, &q, Budget::unlimited());
        assert_eq!(out.plan_cache, PlanCacheStatus::Uncached, "{}", out.plan);
        assert_eq!(out.rung, Rung::QHd, "{}", out.plan);
        assert!(out.result.unwrap().set_eq(&want));
    }
    assert_eq!(opt.cached_plans(), 0);
    assert_eq!(opt.plan_cache_stats(), PlanCacheStats::default());

    let joins: Vec<String> = (0..8).map(|i| format!("hub.c{i} = p{i}.l")).collect();
    let tables: Vec<String> = (0..8).map(|i| format!("p{i}")).collect();
    let sql = format!(
        "SELECT hub.c0 FROM hub, {} WHERE {}",
        tables.join(", "),
        joins.join(" AND ")
    );
    let isolated = isolate(
        &parse_select(&sql).unwrap(),
        &db,
        IsolatorOptions::default(),
    );
    assert!(over_budget(&isolated.unwrap()), "{sql}");
    let service = QueryService::new(db, opt, ServiceConfig::default());
    let session = service.session();
    let first = session.execute_sql(&sql).unwrap();
    assert_eq!(first.plan_cache, PlanCacheStatus::Uncached);
    let hits = service.metrics().statement_cache.hits;
    let second = session.execute_sql(&sql).unwrap();
    assert_eq!(second.plan_cache, PlanCacheStatus::Hit);
    assert_eq!(service.metrics().statement_cache.hits, hits + 1);
    assert_eq!(service.optimizer().cached_plans(), 0);
    assert!(second.result.unwrap().set_eq(&first.result.unwrap()));
}
