//! Criterion micro-benchmarks for the core kernels: GYO acyclicity,
//! det-k/cost-k decomposition (with the cost-k search's time per
//! separator tried under the statistics model), the seed-vs-branch-and-bound
//! cost-k memo (cloned-bitset std keys vs word-mask keys under the fx
//! hasher), the hybrid planner on TPC-H Q5, TPC-H generation, separator
//! pricing and one cold statement's search under the statistics cost
//! model, ANALYZE
//! (whole TPC-H, and one 100k-row
//! column of each kind), base-table scans (shared columns, typed
//! predicate kernels), the paged store's commit, reload and recovery
//! paths, a paged index probe against a hash-joined row (the two sides
//! of the vertex join's seek margin), the query service's per-statement fixed cost (prepared, ad hoc
//! on a known text, ad hoc on a never-seen text of a known shape), hash
//! join throughput, the columnar join per probe row under each key
//! plan (direct table, range bitmaps, hashed), the `P′` vertex join of two
//! TPC-H vertices, the revenue aggregate over a lineitem answer and the
//! grouping kernel on Q10-, Q5-like and weighted answers, the
//! columnar join in memory vs spilling under a byte cap of a quarter of
//! its working set,
//! the counted q-HD pass vs the materialized join under `COUNT(*) GROUP
//! BY` (`factorized_count`), and the q-hypertree
//! evaluator vs the naive pipeline on a chain query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use htqo_core::treedecomp::{tree_decomposition, EliminationHeuristic};
use htqo_core::{det_k_decomp, q_hypertree_decomp, QhdOptions, StructuralCost};
use htqo_cq::{isolate, parse_select, IsolatorOptions};
use htqo_engine::error::Budget;
use htqo_eval::{evaluate_naive, evaluate_qhd};
use htqo_hypergraph::acyclic::gyo;
use htqo_optimizer::HybridOptimizer;
use htqo_tpch::{generate, q5, DbgenOptions};
use htqo_workloads::{acyclic_query, chain_query, star_db, star_query, workload_db, WorkloadSpec};
use std::cell::LazyCell;

/// A benchmark's inputs, built on first use: a benchmark that the
/// command-line filter skips never builds them.
type Lazy<'a, T> = LazyCell<T, Box<dyn FnOnce() -> T + 'a>>;

fn lazy<'a, T>(build: impl FnOnce() -> T + 'a) -> Lazy<'a, T> {
    LazyCell::new(Box::new(build))
}

fn bench_gyo(c: &mut Criterion) {
    let mut group = c.benchmark_group("gyo");
    for n in [4usize, 8, 12] {
        let h = lazy(move || acyclic_query(n).hypergraph().hypergraph);
        group.bench_function(BenchmarkId::new("line", n), |b| {
            b.iter(|| gyo(&h).is_some())
        });
    }
    group.finish();
}

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomposition");
    for n in [4usize, 6, 8, 10] {
        let q = lazy(move || chain_query(n));
        group.bench_function(BenchmarkId::new("detk_chain", n), |b| {
            let h = q.hypergraph().hypergraph;
            b.iter(|| det_k_decomp(&h, 2).expect("chains have width 2"))
        });
        group.bench_function(BenchmarkId::new("qhd_chain", n), |b| {
            b.iter(|| {
                q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost)
                    .expect("chains decompose")
            })
        });
    }

    // The cost-k search as `plan_cold` runs it (statistics model, q-HD
    // root cover, k = 4, a fresh model per search), reported
    // per separator tried: the unit the enumeration's cost scales with.
    use htqo_core::{cost_k_decomp_instrumented, SearchOptions};
    use htqo_stats::StatsDecompCost;
    use std::time::{Duration, Instant};
    let chain_stats = lazy(|| htqo_stats::analyze(&workload_db(&WorkloadSpec::new(12, 40, 80, 7))));
    let star_stats = lazy(|| htqo_stats::analyze(&star_db(8, 40, 80, 7)));
    for (name, q, stats) in [
        ("line12", acyclic_query(12), &chain_stats),
        ("cycle12", chain_query(12), &chain_stats),
        ("star9", star_query(8), &star_stats),
    ] {
        let ch = q.hypergraph();
        let opts = SearchOptions::width_with_root_cover(4, ch.out_var_set(&q));
        let (mut best, mut separators) = (Duration::MAX, 0);
        group.bench_function(format!("cost_k_stats/{name}"), |b| {
            b.iter(|| {
                let t = Instant::now();
                let model = StatsDecompCost::new(stats, &q);
                let found = cost_k_decomp_instrumented(&ch.hypergraph, &opts, &model)
                    .expect("width 2 suffices");
                best = best.min(t.elapsed());
                separators = found.2.separators_tried;
                found
            })
        });
        if best != Duration::MAX {
            let ns = best.as_nanos() as f64 / separators as f64;
            println!(
                "decomposition/cost_k_stats/{name:<17} best {ns:>7.1} ns/separator tried \
                 ({separators} tried)"
            );
        }
    }
    group.finish();
}

fn bench_memo_lookup(c: &mut Criterion) {
    // The memo-key overhaul in isolation: probing a std-hasher map keyed
    // by cloned (EdgeSet, VarSet) pairs (the seed memo) vs keying a flat
    // FxHashMap by the two sets as machine words (the B&B memo on a
    // hypergraph of at most 64 edges and variables).
    use htqo_engine::hash::FxHashMap;
    use htqo_hypergraph::{EdgeSet, VarSet};
    use std::collections::HashMap;

    let word = |k: &(EdgeSet, VarSet)| {
        let fits = "a 12-atom chain fits one word";
        (
            k.0.bits().as_word().expect(fits),
            k.1.bits().as_word().expect(fits),
        )
    };
    let memos = lazy(|| {
        let h = chain_query(12).hypergraph().hypergraph;
        // Key population: every (suffix component, connector) pair of the
        // chain — the same shape the search memoizes.
        let keys: Vec<(EdgeSet, VarSet)> = (0..h.num_edges())
            .map(|i| {
                let comp: EdgeSet = h.edge_ids().skip(i).collect();
                let conn = h.vars_of_edges(&comp);
                (comp, conn)
            })
            .collect();
        let masks: Vec<(u64, u64)> = keys.iter().map(word).collect();
        let mut seed_memo: HashMap<(EdgeSet, VarSet), usize> = HashMap::new();
        let mut mask_memo: FxHashMap<(u64, u64), usize> = FxHashMap::default();
        for (i, k) in keys.iter().enumerate() {
            seed_memo.insert(k.clone(), i);
            mask_memo.insert(word(k), i);
        }
        (keys, masks, seed_memo, mask_memo)
    });

    let mut group = c.benchmark_group("memo_lookup");
    group.bench_function("seed_cloned_bitset_keys", |b| {
        let (keys, _, seed_memo, _) = &*memos;
        b.iter(|| {
            let mut hits = 0usize;
            for k in keys {
                // The seed probed by building an owned key.
                let key = (k.0.clone(), k.1.clone());
                if seed_memo.contains_key(&key) {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.bench_function("word_mask_keys", |b| {
        let (_, masks, _, mask_memo) = &*memos;
        b.iter(|| masks.iter().filter(|&k| mask_memo.contains_key(k)).count())
    });
    group.finish();
}

fn bench_costk_engines(c: &mut Criterion) {
    // Seed exhaustive search vs the branch-and-bound engine, end to end.
    use htqo_core::search::baseline;
    use htqo_core::{cost_k_decomp_instrumented, SearchOptions};
    let h = lazy(|| chain_query(10).hypergraph().hypergraph);
    let mut group = c.benchmark_group("costk_engine");
    group.bench_function("seed_cycle10_k3", |b| {
        b.iter(|| {
            baseline::cost_k_decomp_instrumented(&h, &SearchOptions::width(3), &StructuralCost)
                .expect("cycles decompose")
        })
    });
    group.bench_function("bnb_cycle10_k3", |b| {
        b.iter(|| {
            cost_k_decomp_instrumented(&h, &SearchOptions::width(3), &StructuralCost)
                .expect("cycles decompose")
        })
    });
    group.finish();
}

fn bench_tpch_planning(c: &mut Criterion) {
    let q = lazy(|| {
        let db = generate(&DbgenOptions {
            scale: 0.001,
            seed: 1,
        });
        let stmt = parse_select(&q5("ASIA", 1994)).unwrap();
        isolate(&stmt, &db, IsolatorOptions::default()).unwrap()
    });
    let optimizer = HybridOptimizer::structural(QhdOptions::default());
    c.bench_function("plan_tpch_q5", |b| {
        b.iter(|| optimizer.plan_cq(&q).expect("Q5 decomposes"))
    });
}

fn bench_dbgen(c: &mut Criterion) {
    // TPC-H generation at the `tpch_mem` benchmark's scale (173k rows):
    // the RNG draws, the name formatting and the typed column pushes.
    // Every string is interned after the first iteration, so what is
    // timed is the steady state the benchmark's repeated set-ups see.
    let mut group = c.benchmark_group("tpch");
    group.sample_size(20);
    group.bench_function("dbgen_sf002", |b| {
        b.iter(|| {
            generate(&DbgenOptions {
                scale: 0.02,
                seed: 1,
            })
        })
    });
    group.finish();
}

fn bench_planner(c: &mut Criterion) {
    // Pricing under the statistics cost model, on the e2e `plan_cold`
    // shapes (12 relations x 40 rows over 80 values).
    use htqo_core::DecompCost;
    use htqo_hypergraph::{EdgeId, EdgeSet, VarSet};
    use htqo_stats::StatsDecompCost;
    let stats = lazy(|| htqo_stats::analyze(&workload_db(&WorkloadSpec::new(12, 40, 80, 7))));
    let cycle = chain_query(12);
    let mut group = c.benchmark_group("planner");

    // One vertex: λ = {p0, p3, p4, p5}, enforcing p3 ⋈ p4 ⋈ p5.
    let h = cycle.hypergraph().hypergraph;
    let lambda: EdgeSet = [0, 3, 4, 5].into_iter().map(EdgeId).collect();
    let assigned: EdgeSet = [3, 4, 5].into_iter().map(EdgeId).collect();
    let chi = VarSet::new();
    group.bench_function("vertex_cost_miss", |b| {
        // A fresh model per pricing: what the first sight of a join-atom
        // set costs, model construction included.
        b.iter(|| StatsDecompCost::new(&stats, &cycle).vertex_cost(&h, &lambda, &assigned, &chi))
    });
    let model = lazy(|| StatsDecompCost::new(&stats, &cycle));
    group.bench_function("vertex_cost_hit", |b| {
        b.iter(|| model.vertex_cost(&h, &lambda, &assigned, &chi))
    });
    group.finish();
}

fn bench_plan_cold_search(c: &mut Criterion) {
    // The cost-k search of one cold statement, without the e2e harness:
    // the 12-line and the 12-cycle at k = 4 with the q-HD root cover
    // under the statistics model over 40-row relations (80 values), a
    // fresh model per search as the optimizer builds one per query.
    use htqo_core::{cost_k_decomp_instrumented, cost_k_decomp_with_cost, SearchOptions};
    use htqo_stats::StatsDecompCost;
    let stats = lazy(|| htqo_stats::analyze(&workload_db(&WorkloadSpec::new(12, 40, 80, 7))));
    let mut group = c.benchmark_group("planner/plan_cold_search");
    for (name, q) in [
        ("line12_k4", acyclic_query(12)),
        ("cycle12_k4", chain_query(12)),
    ] {
        let ch = q.hypergraph();
        let opts = SearchOptions::width_with_root_cover(4, ch.out_var_set(&q));
        let mut ran = false;
        group.bench_function(name, |b| {
            ran = true;
            b.iter(|| {
                let model = StatsDecompCost::new(&stats, &q);
                cost_k_decomp_with_cost(&ch.hypergraph, &opts, &model).expect("width 2 suffices")
            })
        });
        if ran {
            let model = StatsDecompCost::new(&stats, &q);
            let (_, _, s) = cost_k_decomp_instrumented(&ch.hypergraph, &opts, &model)
                .expect("width 2 suffices");
            println!(
                "planner/plan_cold_search/{name}: {} separators tried, \
                 {} dominated edges skipped, {} subproblems",
                s.separators_tried, s.dominated_skips, s.subproblems
            );
        }
    }
    group.finish();
}

fn bench_analyze(c: &mut Criterion) {
    // ANALYZE as every stats-driven harness and the `tpch_mem` benchmark
    // set-up pay it (TPC-H SF 0.02: 173k rows, 39 columns), then one
    // 100k-row column per kind, so a regression names the path it is on:
    // counted keys, sorted keys, float keys, few strings, many strings.
    use htqo_engine::relation::{Relation, RowLoader};
    use htqo_engine::schema::{ColumnType, Database, Schema};
    const ROWS: i64 = 100_000;
    let column = |ty: ColumnType, cell: &dyn Fn(&mut RowLoader<'_>, i64) -> bool| {
        let mut rel = Relation::new(Schema::new(&[("c", ty)]));
        let mut loader = rel.loader();
        for i in 0..ROWS {
            assert!(cell(&mut loader, i));
            loader.end_row();
        }
        drop(loader);
        let mut db = Database::new();
        db.insert_table("t", rel);
        db
    };
    // A multiplicative scramble: a permutation of 0..2^64, so the sparse
    // and all-distinct columns really are, in no particular order.
    let scramble = |i: i64| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let cases = [
        (
            "tpch_sf0.02",
            lazy(|| {
                generate(&DbgenOptions {
                    scale: 0.02,
                    seed: 1,
                })
            }),
        ),
        (
            "int_dense_100k",
            lazy(|| {
                column(ColumnType::Int, &|l, i| {
                    l.push_int((scramble(i) % ROWS as u64) as i64)
                })
            }),
        ),
        (
            "int_sparse_100k",
            lazy(|| column(ColumnType::Int, &|l, i| l.push_int(scramble(i) as i64))),
        ),
        (
            "float_100k",
            lazy(|| {
                column(ColumnType::Float, &|l, i| {
                    l.push_float((scramble(i) % 10_000_000) as f64 / 100.0)
                })
            }),
        ),
        (
            "str_3_values_100k",
            lazy(|| {
                column(ColumnType::Str, &|l, i| {
                    l.push_str(["N", "R", "A"][(scramble(i) % 3) as usize])
                })
            }),
        ),
        (
            "str_all_distinct_100k",
            lazy(|| {
                column(ColumnType::Str, &|l, i| {
                    l.push_str(&format!("Customer#{:016x}", scramble(i)))
                })
            }),
        ),
    ];
    let mut group = c.benchmark_group("stats/analyze");
    for (name, db) in &cases {
        group.bench_function(*name, |b| b.iter(|| htqo_stats::analyze(db)));
    }
    group.finish();
}

fn bench_scans(c: &mut Criterion) {
    // The scan layer on TPC-H SF 0.02 shapes (120k lineitems, 30k
    // orders): a scan that keeps every row shares the stored columns, a
    // filtered one pays its predicate kernels plus one gather per output
    // column.
    use htqo_cq::{CmpOp, CqBuilder, Literal};
    use htqo_engine::scan::scan_query_atom_c;
    let db = lazy(|| {
        generate(&DbgenOptions {
            scale: 0.02,
            seed: 1,
        })
    });
    let lineitem = [
        ("l_orderkey", "OK"),
        ("l_suppkey", "SK"),
        ("l_extendedprice", "EP"),
        ("l_discount", "DI"),
    ];
    let day = |y, m, d| htqo_cq::date::days_from_civil(y, m, d);
    let cases = [
        (
            "scan_unfiltered",
            CqBuilder::new().atom("lineitem", "l", &lineitem),
        ),
        (
            "scan_date_range",
            CqBuilder::new()
                .atom("orders", "o", &[("o_orderkey", "OK"), ("o_custkey", "CK")])
                .filter(0, "o_orderdate", CmpOp::Ge, Literal::Date(day(1994, 1, 1)))
                .filter(0, "o_orderdate", CmpOp::Lt, Literal::Date(day(1995, 1, 1))),
        ),
        (
            // Two filters on one column: the second compacts the first's
            // selection in place.
            "lineitem_shipdate_range",
            CqBuilder::new()
                .atom("lineitem", "l", &lineitem)
                .filter(0, "l_shipdate", CmpOp::Ge, Literal::Date(day(1995, 1, 1)))
                .filter(0, "l_shipdate", CmpOp::Lt, Literal::Date(day(1996, 1, 1))),
        ),
        (
            "scan_str_eq",
            CqBuilder::new().atom("lineitem", "l", &lineitem).filter(
                0,
                "l_returnflag",
                CmpOp::Eq,
                Literal::Str("R".into()),
            ),
        ),
    ];
    let mut group = c.benchmark_group("scan");
    for (name, builder) in cases {
        let q = builder.out_var("OK").build();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut budget = Budget::unlimited();
                scan_query_atom_c(&db, &q, htqo_cq::AtomId(0), &mut budget).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_vertex_join(c: &mut Criterion) {
    // `P′` of two TPC-H SF 0.02 vertices as the q-HD evaluator runs them,
    // atom selections included: Q8's lineitem vertex (n2 ⋈ supplier ⋈
    // lineitem ⋈ σ part — all 120k lineitems pass the second join, the
    // part filter keeps under 1 %) and Q3's only vertex (σ customer ⋈
    // σ orders ⋈ σ lineitem).
    use htqo_cq::{CmpOp, CqBuilder, Literal};
    use htqo_engine::scan::select_query_atom;
    let db = lazy(|| {
        generate(&DbgenOptions {
            scale: 0.02,
            seed: 1,
        })
    });
    let day = |y, m, d| Literal::Date(htqo_cq::date::days_from_civil(y, m, d));
    let q8 = CqBuilder::new()
        .atom("part", "part", &[("p_partkey", "P")])
        .atom(
            "supplier",
            "supplier",
            &[("s_suppkey", "S"), ("s_nationkey", "SN")],
        )
        .atom(
            "lineitem",
            "lineitem",
            &[
                ("l_partkey", "P"),
                ("l_suppkey", "S"),
                ("l_orderkey", "O"),
                ("l_extendedprice", "EP"),
                ("l_discount", "D"),
                ("l_linenumber", "LN"),
            ],
        )
        .atom("nation", "n2", &[("n_nationkey", "SN"), ("n_name", "NN")])
        .filter(
            0,
            "p_type",
            CmpOp::Eq,
            Literal::Str("ECONOMY ANODIZED STEEL".into()),
        );
    let q3 = CqBuilder::new()
        .atom("customer", "customer", &[("c_custkey", "C")])
        .atom(
            "orders",
            "orders",
            &[("o_orderkey", "O"), ("o_custkey", "C")],
        )
        .atom(
            "lineitem",
            "lineitem",
            &[
                ("l_orderkey", "O"),
                ("l_extendedprice", "EP"),
                ("l_discount", "D"),
                ("l_linenumber", "LN"),
            ],
        )
        .filter(
            0,
            "c_mktsegment",
            CmpOp::Eq,
            Literal::Str("BUILDING".into()),
        )
        .filter(1, "o_orderdate", CmpOp::Lt, day(1995, 3, 15))
        .filter(2, "l_shipdate", CmpOp::Gt, day(1995, 3, 15));
    let mut group = c.benchmark_group("vertex_join");
    for (name, builder) in [("q8_lineitem", q8), ("q3_filtered", q3)] {
        let q = builder.out_var("O").build();
        // χ: every variable of the vertex's atoms.
        let mut chi: Vec<htqo_engine::Name> = Vec::new();
        for v in q.atoms.iter().flat_map(|a| a.vars()) {
            if !chi.iter().any(|c| **c == *v) {
                chi.push(v.into());
            }
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut budget = Budget::unlimited();
                let selected = (0..q.atoms.len())
                    .map(|a| {
                        select_query_atom(&db, &q, htqo_cq::AtomId(a as u32), false, &mut budget)
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .unwrap();
                htqo_engine::cops::join_vertex(selected, &chi, &mut budget).unwrap()
            })
        });
    }
    group.finish();

    // The revenue aggregate of Q3/Q5/Q8/Q10, `sum(l_extendedprice * (1 -
    // l_discount))`, over every lineitem shipped after 1995-03-15
    // (≈ 65k answer rows, three groups).
    let q = CqBuilder::new()
        .atom(
            "lineitem",
            "lineitem",
            &[
                ("l_returnflag", "RF"),
                ("l_extendedprice", "EP"),
                ("l_discount", "D"),
                ("l_orderkey", "O"),
                ("l_linenumber", "LN"),
            ],
        )
        .filter(0, "l_shipdate", CmpOp::Gt, day(1995, 3, 15))
        .out_var("RF")
        .out_agg(htqo_cq::AggFunc::Sum, Some(revenue_expr()), "revenue")
        .group("RF")
        .build();
    let answer = lazy(|| {
        let mut budget = Budget::unlimited();
        htqo_engine::scan::scan_query_atom_c(&db, &q, htqo_cq::AtomId(0), &mut budget).unwrap()
    });
    let mut group = c.benchmark_group("aggregate");
    group.bench_function("revenue", |b| {
        b.iter(|| {
            let mut budget = Budget::unlimited();
            htqo_engine::finalize_c(&answer, &q, &mut budget).unwrap()
        })
    });
    group.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    // The grouping kernel alone, on answers built column by column: a
    // Q10-like answer (1,500 rows into 700 customer-name groups, ORDER BY
    // the revenue), a Q5-like one (100,000 rows into 5 nation groups), and
    // the Q5-like answer counted, each row standing for 1–3 rows (what the
    // counted q-HD pass hands the kernel).
    use htqo_cq::{AggFunc, CqBuilder, SortDir};
    use htqo_engine::column::Column;
    use htqo_engine::schema::ColumnType;
    use htqo_engine::{CRel, Name};
    use std::sync::Arc;
    let answer = |rows: usize, groups: usize, name: &dyn Fn(usize) -> String| {
        let (mut g, mut ep, mut d) = (
            Column::new(ColumnType::Str),
            Column::new(ColumnType::Float),
            Column::new(ColumnType::Float),
        );
        for i in 0..rows {
            assert!(g.push_str(&name(i * 7_919 % groups)));
            assert!(ep.push_float((i * 104_729 % 9_000_000) as f64 / 100.0 + 900.0));
            assert!(d.push_float((i % 11) as f64 / 100.0));
        }
        let rid = Column::from_ints((0..rows as i64).collect());
        let cols = ["G", "EP", "D", "K", "R"].map(Name::from).to_vec();
        let keys = Column::from_ints((0..rows as i64).map(|i| i % 997).collect());
        let columns = [g, ep, d, keys, rid].map(Arc::new).to_vec();
        CRel::new(cols, columns, rows)
    };
    let query = |ordered: bool| {
        let mut b = CqBuilder::new()
            .atom_vars("r", &["G", "EP", "D", "K", "R"])
            .out_var("G")
            .out_agg(AggFunc::Sum, Some(revenue_expr()), "revenue")
            .out_agg(AggFunc::Count, None, "n")
            .group("G");
        if ordered {
            b = b.order("revenue", SortDir::Desc);
        }
        b.build()
    };
    let (q_q10, q_q5) = (query(true), query(false));
    let finalize = |answer: &CRel, q: &htqo_cq::ConjunctiveQuery| {
        htqo_engine::finalize_c(answer, q, &mut Budget::unlimited()).unwrap()
    };
    let q10 = lazy(|| {
        let q10 = answer(1_500, 700, &|i| format!("Customer#{i:09}"));
        assert_eq!(finalize(&q10, &q_q10).len(), 700);
        q10
    });
    let q5 = lazy(|| {
        let nations = ["ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT"];
        let q5 = answer(100_000, 5, &|i| nations[i].to_string());
        assert_eq!(finalize(&q5, &q_q5).len(), 5);
        q5
    });
    let counted = lazy(|| {
        // Row `i` (key `k = i % 997`) counts `1 + k % 3`.
        let counts = (0..q5.len() as i64).map(|i| 1 + i % 997 % 3).collect();
        let counted = q5.clone().with_counts(counts);
        assert_eq!(finalize(&counted, &q_q5).len(), 5);
        counted
    });
    let mut group = c.benchmark_group("aggregate");
    group.bench_function("q10_like", |b| b.iter(|| finalize(&q10, &q_q10)));
    group.bench_function("q5_like", |b| b.iter(|| finalize(&q5, &q_q5)));
    group.bench_function("weighted", |b| b.iter(|| finalize(&counted, &q_q5)));
    group.finish();
}

/// `EP * (1 - D)`.
fn revenue_expr() -> htqo_cq::ScalarExpr {
    use htqo_cq::{ArithOp, Literal, ScalarExpr};
    let var = |v: &str| Box::new(ScalarExpr::Var(v.into()));
    let one = Box::new(ScalarExpr::Lit(Literal::Int(1)));
    let discounted = ScalarExpr::Binary(one, ArithOp::Sub, var("D"));
    ScalarExpr::Binary(var("EP"), ArithOp::Mul, Box::new(discounted))
}

fn bench_storage(c: &mut Criterion) {
    // The storage calls of an e2e `paged_rw` round, one at a time: a
    // durable 16-op commit on a table far larger than its pool, the page
    // → column reload, recovery over one to forty rounds of committed
    // log, and the checkpoint a long run of commits ends in.
    use htqo_engine::{ColumnType, Relation, Schema, Value};
    use htqo_storage::{MutationBatch, StorageDb, WalPolicy, PAGE_SIZE};
    let scratch = |name: &str| {
        let dir = std::env::temp_dir().join(format!("htqo-micro-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    };
    let row = |k: i64| vec![Value::Int(k), Value::str(&format!("{k:0>96}"))];
    let wide_table = |rows: i64| {
        let mut rel = Relation::new(Schema::new(&[
            ("k", ColumnType::Int),
            ("pad", ColumnType::Str),
        ]));
        let mut loader = rel.loader();
        for k in 0..rows {
            loader.push_int(k);
            loader.push_str(&format!("{k:0>96}"));
            loader.end_row();
        }
        drop(loader);
        rel
    };
    let small_pool = 24 * PAGE_SIZE as u64;
    // The `commit`-th 16-op batch on a `wide_table(base)`: 6 deletes (of
    // the rows the previous batch appended, so live rows stay constant),
    // 4 in-place updates spread over the table, 6 appends.
    let base = 15_000i64;
    let next_batch = |commit: i64, doomed: &mut Vec<u64>| {
        let mut batch = MutationBatch::new("t");
        for d in doomed.drain(..) {
            batch.delete(d);
        }
        for u in 0..4 {
            let k = 100 + (commit * 4 + u) * 997 % (base - 100);
            batch.update(k as u64, row(-k));
        }
        for a in 0..6 {
            batch.append(row(base + commit * 6 + a));
            doomed.push((base + commit * 6 + a) as u64);
        }
        batch
    };
    let mut group = c.benchmark_group("storage");
    group.sample_size(10);

    {
        // The log checkpoints itself every ~1 MiB — some 700 commits of
        // slot records — inside the timed commits.
        let dir = scratch("apply");
        let storage = lazy(|| {
            let storage = StorageDb::open_with(&dir, WalPolicy::Commit, 1 << 20).unwrap();
            let meta = storage.ingest("t", &wide_table(base), &[]).unwrap();
            assert!(meta.heap_pages() >= 200, "{} heap pages", meta.heap_pages());
            storage.load_table("t", small_pool, None).unwrap();
            storage
        });
        let mut doomed: Vec<u64> = (0..6).collect();
        let mut round = 0i64;
        group.bench_function("apply_16ops_commit", |b| {
            b.iter(|| {
                let batch = next_batch(round, &mut doomed);
                round += 1;
                storage.apply(&batch).unwrap()
            })
        });
        if let Some(storage) = LazyCell::get(&storage) {
            let log = storage.wal_stats();
            let commits = log.commits.max(1);
            println!(
                "storage/apply_16ops_commit: {} B logged per commit (slot records {}, \
                 catalog {}, marker {}), {} B of page images per commit (checkpoints), \
                 {} fsyncs over {} commits",
                (log.bytes() - log.image_bytes) / commits,
                log.slot_bytes / commits,
                log.catalog_bytes / commits,
                log.commit_bytes / commits,
                log.image_bytes / commits,
                log.fsyncs,
                log.commits
            );
        }
        drop(storage);
        std::fs::remove_dir_all(&dir).ok();
    }

    {
        let dir = scratch("load");
        let storage = lazy(|| {
            let db = generate(&DbgenOptions {
                scale: 0.01,
                seed: 1,
            });
            let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
            storage
                .ingest("lineitem", db.table("lineitem").unwrap(), &[])
                .unwrap();
            storage
        });
        group.bench_function("load_table_lineitem_sf001", |b| {
            b.iter(|| storage.load_table("lineitem", small_pool, None).unwrap())
        });
        drop(storage);
        std::fs::remove_dir_all(&dir).ok();
    }

    // Recovery over 1, 8 and 40 `paged_rw` rounds of log that no
    // checkpoint has emptied (16 commits of 16 ops a round, spread over
    // the table; 40 rounds is about the 1 MiB at which that workload's
    // `apply` checkpoints). Recovery reads the log and hands its slot
    // records to the pool — it changes no file, so the crashed store is
    // simply recovered again each iteration — and its cost is linear in
    // the log, which the checkpoint threshold bounds. The recovery's own
    // share of the timed closure (which also drops the pool) is printed.
    for (name, rounds) in [
        ("recover_1_round", 1i64),
        ("recover_8_rounds", 8),
        ("recover_40_rounds", 40),
    ] {
        let dir = scratch(name);
        let storage = lazy(|| {
            let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
            storage.ingest("t", &wide_table(base), &[]).unwrap();
            let mut doomed: Vec<u64> = (0..6).collect();
            for commit in 0..16 * rounds {
                storage.apply(&next_batch(commit, &mut doomed)).unwrap();
            }
            storage
        });
        let (mut pages, mut kept, mut runs) = (0, 0, 0u32);
        let mut recovering = std::time::Duration::ZERO;
        group.bench_function(name, |b| {
            b.iter(|| {
                storage.simulate_crash();
                let t = std::time::Instant::now();
                let report = storage.recover().unwrap();
                recovering += t.elapsed();
                runs += 1;
                assert_eq!(report.batches_replayed, 16 * rounds as u64);
                assert_eq!(report.pages_written, 0);
                (pages, kept) = (report.pages_redone, report.kept_bytes);
                report
            })
        });
        if runs > 0 {
            let log = std::fs::metadata(dir.join("db.wal")).unwrap().len();
            println!(
                "storage/{name}: {log} B of log, {pages} pages with redo, {kept} B of kept \
                 edits, {:.2} ms per recovery alone",
                recovering.as_secs_f64() * 1e3 / f64::from(runs)
            );
        }
        drop(storage);
        std::fs::remove_dir_all(&dir).ok();
    }

    {
        // 128 pages changed by committed batches the page file has not
        // seen: the checkpoint logs their images, syncs the log, writes
        // and fsyncs them, renames the catalog and truncates the log. The
        // timed closure also makes the 8 commits that dirty the pages; the
        // checkpoint's own share is printed.
        let dir = scratch("checkpoint");
        let store = lazy(|| {
            let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
            storage.ingest("t", &wide_table(15_000), &[]).unwrap();
            storage.load_table("t", small_pool, None).unwrap();
            // The first row of each of the first 128 heap pages.
            let firsts: Vec<u64> = (0..15_000)
                .filter(|&r| matches!(storage.locate("t", r), Ok(Some((_, 0)))))
                .take(128)
                .collect();
            (storage, firsts)
        });
        let mut round = 0i64;
        let mut checkpoints = std::time::Duration::ZERO;
        group.bench_function("checkpoint_128_dirty_pages", |b| {
            let (storage, firsts) = &*store;
            b.iter(|| {
                round += 1;
                for rowids in firsts.chunks(16) {
                    let mut batch = MutationBatch::new("t");
                    for &rowid in rowids {
                        batch.update(rowid, row(-round));
                    }
                    storage.apply(&batch).unwrap();
                }
                let before = storage.wal_stats().image_bytes;
                let t = std::time::Instant::now();
                storage.checkpoint().unwrap();
                checkpoints += t.elapsed();
                let images = (storage.wal_stats().image_bytes - before) / PAGE_SIZE as u64;
                assert_eq!(images, 128, "dirty pages at the checkpoint");
            })
        });
        if round > 0 {
            println!(
                "storage/checkpoint_128_dirty_pages: {:.2} ms per checkpoint alone",
                checkpoints.as_secs_f64() * 1e3 / round as f64
            );
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

fn bench_seek_join(c: &mut Criterion) {
    // The two sides of `SEEK_MARGIN`: one `PagedIndex::seek` through
    // lineitem's pool at the `paged_rw` size (24 pages per table), against
    // the hash path of `join_vertex` per lineitem row — a one-part
    // accumulator joined to all of lineitem (TPC-H SF 0.01) on
    // `l_partkey`, timed on prebuilt selections. The margin is the ratio.
    use htqo_cq::{CmpOp, CqBuilder, Literal};
    use htqo_engine::index::{key_bytes, SEEK_MARGIN};
    use htqo_engine::scan::select_query_atom;
    use htqo_engine::{Database, JoinIndex, Value};
    use htqo_storage::{StorageDb, WalPolicy, PAGE_SIZE};
    use std::sync::Arc;
    let dir = std::env::temp_dir().join(format!("htqo-micro-{}-seek", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let paged = lazy(|| {
        let tpch = generate(&DbgenOptions {
            scale: 0.01,
            seed: 1,
        });
        let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
        let lineitem = tpch.table("lineitem").unwrap();
        storage
            .ingest("lineitem", lineitem, &["l_partkey"])
            .unwrap();
        let (rel, indexes) = storage
            .load_table("lineitem", 24 * PAGE_SIZE as u64, None)
            .unwrap();
        let mut db = Database::new();
        db.insert_table("lineitem", rel);
        db.insert_table("part", tpch.table("part").unwrap().clone());
        let index = Arc::clone(&indexes[0].1);
        db.register_index("lineitem", "l_partkey", index.clone());
        let parts = tpch.table("part").unwrap().len() as i64;
        let q = CqBuilder::new()
            .atom("part", "part", &[("p_partkey", "P"), ("p_name", "N")])
            .atom(
                "lineitem",
                "lineitem",
                &[("l_partkey", "P"), ("l_quantity", "Q")],
            )
            .filter(0, "p_partkey", CmpOp::Eq, Literal::Int(parts / 2))
            .out_var("Q")
            .build();
        (db, index, parts, q, storage)
    });

    let mut group = c.benchmark_group("seek_join");
    let mut key = 0i64;
    let mut probes = (std::time::Duration::ZERO, 0u32);
    group.bench_function("paged_probe", |b| {
        let (_, index, parts, ..) = &*paged;
        b.iter(|| {
            key = (key + 7919) % parts + 1;
            let t = std::time::Instant::now();
            let hits = index.seek(&key_bytes(&Value::Int(key))).unwrap();
            probes.0 += t.elapsed();
            probes.1 += 1;
            hits
        })
    });
    let chi = ["P", "N", "Q"].map(htqo_engine::Name::from);
    let mut hashed = (std::time::Duration::ZERO, 0u32);
    for (name, seek) in [("hash_vertex", false), ("seek_vertex", true)] {
        group.bench_function(name, |b| {
            let (db, _, _, q, _) = &*paged;
            let selected: Vec<_> = {
                let mut budget = Budget::unlimited();
                (q.atom_ids())
                    .map(|a| select_query_atom(db, q, a, seek, &mut budget).unwrap())
                    .collect()
            };
            b.iter(|| {
                let mut budget = Budget::unlimited();
                let t = std::time::Instant::now();
                let out =
                    htqo_engine::cops::join_vertex(selected.clone(), &chi, &mut budget).unwrap();
                if !seek {
                    hashed.0 += t.elapsed();
                    hashed.1 += 1;
                }
                assert_eq!(budget.join_stats().index_seeks(), u64::from(seek));
                out
            })
        });
    }
    group.finish();
    if probes.1 > 0 && hashed.1 > 0 {
        let rows = paged.0.table("lineitem").unwrap().len() as f64;
        let probe_ns = probes.0.as_secs_f64() * 1e9 / f64::from(probes.1);
        let row_ns = hashed.0.as_secs_f64() * 1e9 / f64::from(hashed.1) / rows;
        println!(
            "seek_join: {probe_ns:.0} ns per paged probe, {row_ns:.2} ns per hash-joined row \
             ({rows} lineitem rows): ratio {:.0} (SEEK_MARGIN = {SEEK_MARGIN})",
            probe_ns / row_ns
        );
    }
    drop(paged);
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_service(c: &mut Criterion) {
    // One `service_hot` statement at a time: a 4-atom cycle over 50-row
    // relations evaluates in tens of microseconds, so what is timed is
    // the fixed cost around the evaluation.
    use htqo_service::{QueryService, ServiceConfig};
    let cycle = |alias: &str| {
        format!(
            "SELECT {alias}0.l FROM p0 {alias}0, p1 {alias}1, p2 {alias}2, p3 {alias}3 \
             WHERE {alias}0.r = {alias}1.l AND {alias}1.r = {alias}2.l \
             AND {alias}2.r = {alias}3.l AND {alias}3.r = {alias}0.l"
        )
    };
    let known = cycle("a");
    let served = lazy(|| {
        let db = workload_db(&WorkloadSpec::new(10, 50, 50, 7));
        let opt = HybridOptimizer::with_stats(QhdOptions::default(), htqo_stats::analyze(&db));
        let service = QueryService::new(db, opt, ServiceConfig::default());
        let session = service.session();
        let prepared = session.prepare(&known).unwrap();
        assert!(session.execute_prepared(prepared).unwrap().result.is_ok());
        (session, prepared, service)
    });

    let mut group = c.benchmark_group("service");
    group.bench_function("execute_prepared_hit", |b| {
        let (session, prepared, _) = &*served;
        b.iter(|| session.execute_prepared(*prepared).unwrap().tuples)
    });
    group.bench_function("execute_sql_text_hit", |b| {
        let session = &served.0;
        b.iter(|| session.execute_sql(&known).unwrap().tuples)
    });
    // A never-seen text every iteration (same shape, fresh aliases): the
    // optimizer's shape level serves the plan, and every call pays the
    // text miss, the insert and — once the cache is full — an eviction.
    let mut fresh = 0u64;
    group.bench_function("execute_sql_new_text_shape_hit", |b| {
        let session = &served.0;
        b.iter(|| {
            fresh += 1;
            session
                .execute_sql(&cycle(&format!("t{fresh}_")))
                .unwrap()
                .tuples
        })
    });
    group.finish();
}

fn bench_hash_join(c: &mut Criterion) {
    let sides = lazy(|| {
        let db = workload_db(&WorkloadSpec::new(2, 10_000, 100, 7));
        let q = acyclic_query(2);
        let mut budget = Budget::unlimited();
        let mut scan = |a| {
            htqo_engine::scan::scan_query_atom_c(&db, &q, htqo_cq::AtomId(a), &mut budget).unwrap()
        };
        (scan(0), scan(1))
    });
    c.bench_function("hash_join_10k_x_10k", |b| {
        let (left, right) = &*sides;
        b.iter(|| {
            let mut budget = Budget::unlimited();
            htqo_engine::cops::natural_join(left, right, &mut budget).unwrap()
        })
    });
}

fn bench_join_keys(c: &mut Criterion) {
    // The table-choice rule of the columnar join (DESIGN.md §3.8, "Key
    // plans") with a number beside it: 120,000 probe rows against the
    // build sides of a TPC-H SF 0.02 round, one per table kind, whole
    // `cops::natural_join` calls (plan, build, probe, gather), reported
    // per probe row.
    use htqo_engine::column::Column;
    use htqo_engine::cops;
    use htqo_engine::crel::CRel;
    use htqo_engine::schema::ColumnType;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const PROBE_ROWS: usize = 120_000;
    let state = std::cell::Cell::new(0x9E37_79B9_7F4A_7C15u64);
    let below = |n: u64| {
        let next = state
            .get()
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state.set(next);
        (next >> 33) % n
    };
    let ints = |v: Vec<i64>| Column::from_ints(v);
    let floats = |v: Vec<i64>| {
        let mut c = Column::new(ColumnType::Float);
        v.iter().for_each(|&x| assert!(c.push_float(x as f64)));
        c
    };
    let strs = |v: Vec<i64>| {
        let mut c = Column::new(ColumnType::Str);
        v.iter()
            .for_each(|&x| assert!(c.push_str(&format!("join-key-{x:05}"))));
        c
    };
    // `(key columns.., payload)` under the names `k0.., <payload>`.
    let rel = |keys: Vec<Column>, payload: &str| {
        let n = keys[0].len();
        let mut names: Vec<htqo_engine::Name> =
            (0..keys.len()).map(|i| format!("k{i}").into()).collect();
        names.push(payload.into());
        let mut columns: Vec<Arc<Column>> = keys.into_iter().map(Arc::new).collect();
        columns.push(Arc::new(Column::from_ints((0..n as i64).collect())));
        CRel::new(names, columns, n)
    };
    // `n` distinct values of `0..domain`.
    let sample = |n: usize, domain: u64| -> Vec<i64> {
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < n {
            seen.insert(below(domain) as i64);
        }
        seen.into_iter().collect()
    };
    let uniform =
        |domain: u64| -> Vec<i64> { (0..PROBE_ROWS).map(|_| below(domain) as i64).collect() };

    // Every case is drawn from one generator stream, so the inputs are the
    // same whichever cases the filter runs.
    let cases: Lazy<Vec<(CRel, CRel)>> = lazy(|| {
        let orderkeys = sample(7_346, 30_000);
        // Orders → lineitem: a primary key (every fourth integer, as TPC-H
        // spaces order keys) filtered to about one order in five, probed by
        // 120,000 foreign keys in order, four per order — whether a probe row
        // matches is a coin flip per order.
        let open_orders: Vec<i64> = (0..30_000)
            .map(|o| 4 * o)
            .filter(|_| below(5) == 0)
            .collect();
        let line_orders: Vec<i64> = (0..PROBE_ROWS as i64).map(|i| 4 * (i / 4)).collect();
        vec![
            (
                rel(vec![ints(open_orders)], "b"),
                rel(vec![ints(line_orders)], "p"),
            ),
            (
                rel(vec![ints((0..200).collect())], "b"),
                rel(vec![ints(uniform(200))], "p"),
            ),
            (
                rel(vec![ints(sample(673, 4_000))], "b"),
                rel(vec![ints(uniform(4_000))], "p"),
            ),
            (
                rel(
                    vec![
                        ints(orderkeys.iter().map(|k| k % 200).collect()),
                        ints(orderkeys),
                    ],
                    "b",
                ),
                rel(vec![ints(uniform(200)), ints(uniform(30_000))], "p"),
            ),
            (
                rel(vec![strs(sample(5_000, 20_000))], "b"),
                rel(vec![strs(uniform(20_000))], "p"),
            ),
            (
                rel(vec![floats(sample(5_000, 20_000))], "b"),
                rel(vec![floats(uniform(20_000))], "p"),
            ),
        ]
    });

    let names = [
        "direct_unique_fk",
        "int_200_all_hit",
        "int_673_of_4000",
        "int2_7346_sparse",
        "str_5000_of_20000",
        "float_5000_of_20000",
    ];
    let mut group = c.benchmark_group("join_keys");
    for (i, name) in names.into_iter().enumerate() {
        let mut best = Duration::MAX;
        group.bench_function(name, |b| {
            let (build, probe) = &cases[i];
            b.iter(|| {
                let t = Instant::now();
                let mut budget = Budget::unlimited();
                let out = cops::natural_join(build, probe, &mut budget).unwrap();
                best = best.min(t.elapsed());
                out
            })
        });
        if best != Duration::MAX {
            let ns = best.as_nanos() as f64 / PROBE_ROWS as f64;
            println!("join_keys/{name:<38} best {ns:>7.2} ns/probe row");
        }
    }
    group.finish();
}

fn bench_probe(c: &mut Criterion) {
    // One pass over a 120,000-row probe column (DESIGN.md §3.8, "Key
    // plans"): each kernel computes a row's packed key in its loop over
    // the typed column and tests or looks it up there. Selective joins,
    // so the output gather is small; reported per probe row.
    use htqo_engine::column::Column;
    use htqo_engine::cops;
    use htqo_engine::crel::CRel;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const PROBE_ROWS: usize = 120_000;
    let state = std::cell::Cell::new(0x2545_F491_4F6C_DD1Du64);
    let below = |n: u64| {
        let next = state
            .get()
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state.set(next);
        (next >> 33) % n
    };
    let rel = |keys: Vec<Vec<i64>>, payload: &str| {
        let n = keys[0].len();
        let mut names: Vec<htqo_engine::Name> =
            (0..keys.len()).map(|i| format!("k{i}").into()).collect();
        names.push(payload.into());
        let mut columns: Vec<Arc<Column>> = (keys.into_iter())
            .map(|k| Arc::new(Column::from_ints(k)))
            .collect();
        columns.push(Arc::new(Column::from_ints((0..n as i64).collect())));
        CRel::new(names, columns, n)
    };
    // The three key shapes come from one generator stream, so the inputs
    // are the same whichever cases the filter runs.
    let pairs = lazy(|| {
        // Order keys as TPC-H spaces them (every fourth integer), one order
        // in twenty kept; lineitem-like foreign keys, four rows per order.
        let orders: Vec<i64> = (0..30_000)
            .map(|o| 4 * o)
            .filter(|_| below(20) == 0)
            .collect();
        let lines: Vec<i64> = (0..PROBE_ROWS as i64).map(|i| 4 * (i / 4)).collect();
        let one = (
            rel(vec![orders.clone()], "b"),
            rel(vec![lines.clone()], "p"),
        );
        // Q5's (supplier, order) key, in that order: the build side's
        // suppliers are one in thirty-two (about 3 % of the range) and its
        // orders one in five, so the key's first column is the sparser; the
        // packed range is too wide for a direct table.
        let (mut q5_suppliers, mut q5_orders) = (Vec::new(), Vec::new());
        for o in (0..30_000).map(|o| 4 * o).filter(|_| below(5) == 0) {
            q5_suppliers.push(32 * below(32) as i64);
            q5_orders.push(o);
        }
        let line_suppliers: Vec<i64> = (0..PROBE_ROWS).map(|_| below(1024) as i64).collect();
        let q5 = (
            rel(vec![q5_suppliers, q5_orders], "b"),
            rel(vec![line_suppliers, lines], "p"),
        );
        // An (order, line number) key whose packed range fits a direct
        // table: one order in five, each with one of its four lines.
        let (mut pk_orders, mut pk_lines) = (Vec::new(), Vec::new());
        for o in (0..30_000).filter(|_| below(5) == 0) {
            pk_orders.push(o);
            pk_lines.push(below(4) as i64);
        }
        let two = (
            rel(vec![pk_orders, pk_lines], "b"),
            rel(
                vec![
                    (0..PROBE_ROWS as i64).map(|i| i / 4).collect(),
                    (0..PROBE_ROWS as i64).map(|i| i % 4).collect(),
                ],
                "p",
            ),
        );
        [one, two, q5]
    });
    type Kernel = fn(&CRel, &CRel, &mut Budget) -> Result<CRel, htqo_engine::EvalError>;
    let join: Kernel = |b, p, budget| cops::natural_join(b, p, budget);
    let semijoin: Kernel = |b, p, budget| cops::semijoin(p, b, budget);
    let cases: [(&str, usize, Kernel); 4] = [
        ("direct_1col", 0, join),
        ("direct_2col", 1, join),
        ("prefiltered_2col", 2, join),
        ("semijoin_bitmap", 0, semijoin),
    ];

    let mut group = c.benchmark_group("probe");
    for (name, pair, kernel) in cases {
        let mut best = Duration::MAX;
        group.bench_function(name, |b| {
            let (build, probe) = &pairs[pair];
            b.iter(|| {
                let t = Instant::now();
                let mut budget = Budget::unlimited();
                let out = kernel(build, probe, &mut budget).unwrap();
                best = best.min(t.elapsed());
                out
            })
        });
        if best != Duration::MAX {
            let ns = best.as_nanos() as f64 / PROBE_ROWS as f64;
            println!("probe/{name:<40} best {ns:>7.2} ns/probe row");
        }
    }
    group.finish();
}

fn bench_spill_join(c: &mut Criterion) {
    // What a byte cap costs the columnar join: in memory vs a cap of a
    // quarter of its working set (Grace-style partitioned spilling).
    // Mostly disjoint keys (~1 % of the build side joins), so the hash
    // table — the spillable state — dwarfs the output, whose charges are
    // owed in both modes, so the gap is spill I/O.
    use htqo_engine::column::Column;
    use htqo_engine::cops;
    use htqo_engine::crel::CRel;
    use htqo_engine::error::SpillMode;
    use std::sync::Arc;

    const ROWS: i64 = 40_000;
    let side = |key: &str, first: i64, payload: &str| {
        let keys = Arc::new(Column::from_ints((first..first + ROWS).collect()));
        let columns = vec![Arc::clone(&keys), keys];
        CRel::new(vec![key.into(), payload.into()], columns, ROWS as usize)
    };
    let sides = lazy(|| (side("Y", 0, "X"), side("Y", ROWS - ROWS / 100, "Z")));
    let run = |b: &mut Budget| cops::natural_join(&sides.0, &sides.1, b).map(|r| r.len());

    // Working set: the smallest cap the join completes under with spilling
    // off (the budget's residual after a run is only the output; the build
    // table's transient charges are returned on completion).
    let sizes = lazy(|| {
        let fits = |limit: u64| {
            run(&mut Budget::unlimited()
                .with_mem_limit(limit)
                .with_spill_mode(SpillMode::Off))
            .is_ok()
        };
        let mut hi = 1u64 << 16;
        while !fits(hi) {
            hi <<= 1;
        }
        let mut lo = 0u64;
        while hi - lo > 1024 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        // (working set, cap, output rows)
        (hi, (hi / 4).max(1), run(&mut Budget::unlimited()).unwrap())
    });

    let mut group = c.benchmark_group("spill_join");
    group.sample_size(10);
    group.bench_function("in_memory", |b| {
        b.iter(|| run(&mut Budget::unlimited()).unwrap())
    });
    let (mut spilled, mut partitions) = (0, 0);
    group.bench_function("quarter_cap", |b| {
        let (_, cap, rows) = *sizes;
        b.iter(|| {
            let mut budget = Budget::unlimited().with_mem_limit(cap);
            assert_eq!(
                run(&mut budget).unwrap(),
                rows,
                "spilling changed the answer"
            );
            spilled = budget.spill_stats().bytes_written();
            partitions = budget.spill_stats().partitions();
        })
    });
    if spilled > 0 {
        let (working_set, cap, rows) = *sizes;
        println!(
            "spill_join/quarter_cap: working set {working_set} B, cap {cap} B, \
             {spilled} B spilled over {partitions} partitions, {rows} output rows"
        );
    }
    group.finish();
}

fn bench_factorized_count(c: &mut Criterion) {
    // `COUNT(*) GROUP BY A` over hub(A,B,C) with a 3-atom chain hanging
    // off each hub variable: the materialized pipeline enumerates one row
    // per derivation of the join (fanout ~3 per chain step, so ~27³ per
    // hub row), the counted q-HD pass multiplies and sums per-row counts
    // along the decomposition the planner picks.
    use htqo_cq::{AggFunc, CqBuilder};
    use htqo_engine::{ColumnType, Database, Relation, Schema, Value};
    use htqo_eval::{evaluate_join_order, evaluate_qhd_query};

    const CHAIN_ROWS: usize = 20_000;
    const DOMAIN: u64 = CHAIN_ROWS as u64 / 3;
    const HUB_ROWS: usize = 20;
    let inputs = lazy(|| {
        let mut state = 0x9E37_79B9_97F4_A7C5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Value::Int(((state >> 33) % DOMAIN) as i64)
        };
        let mut db = Database::new();
        let mut hub = Relation::new(Schema::new(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
            ("c", ColumnType::Int),
        ]));
        for _ in 0..HUB_ROWS {
            hub.push_row(vec![next(), next(), next()]).unwrap();
        }
        db.insert_table("hub", hub);
        let mut b = CqBuilder::new()
            .atom("hub", "hub", &[("a", "A"), ("b", "B"), ("c", "C")])
            .out_var("A");
        for v in ["A", "B", "C"] {
            for k in 0..3usize {
                let name = format!("{}{k}", v.to_lowercase());
                let mut rel = Relation::new(Schema::new(&[
                    ("l", ColumnType::Int),
                    ("r", ColumnType::Int),
                ]));
                rel.reserve(CHAIN_ROWS);
                for _ in 0..CHAIN_ROWS {
                    rel.push_row(vec![next(), next()]).unwrap();
                }
                db.insert_table(&name, rel);
                let l = if k == 0 {
                    v.to_string()
                } else {
                    format!("{v}{k}")
                };
                let r = format!("{v}{}", k + 1);
                b = b.atom(&name, &name, &[("l", &l), ("r", &r)]);
            }
        }
        let q = b.out_agg(AggFunc::Count, None, "n").group("A").build();
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        (db, q, plan)
    });
    let counted = || {
        let (db, q, plan) = &*inputs;
        evaluate_qhd_query(db, q, plan, &mut Budget::unlimited()).unwrap()
    };
    let materialized = || {
        let (db, q, _) = &*inputs;
        let mut budget = Budget::unlimited();
        let answer = evaluate_join_order(db, q, None, &mut budget).unwrap();
        let out = htqo_engine::aggregate::finalize_c(&answer, q, &mut budget).unwrap();
        (out, answer.len())
    };
    let checked = lazy(|| {
        let (want, derivations) = materialized();
        assert_eq!(counted(), want, "the counted pass disagrees");
        println!(
            "factorized_count: {derivations} derivations collapse into {} groups ({} vertices)",
            want.len(),
            inputs.2.tree.len()
        );
    });

    let mut group = c.benchmark_group("factorized_count");
    group.sample_size(10);
    group.bench_function("materialized", |b| {
        LazyCell::force(&checked);
        b.iter(|| materialized().0)
    });
    group.bench_function("counted", |b| {
        LazyCell::force(&checked);
        b.iter(counted)
    });
    group.finish();
}

fn bench_evaluators(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluators");
    group.sample_size(10);
    let n = 5;
    let inputs = lazy(|| {
        let q = chain_query(n);
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
        (workload_db(&WorkloadSpec::new(n, 300, 40, 11)), q, plan)
    });
    group.bench_function("qhd_chain5", |b| {
        let (db, q, plan) = &*inputs;
        b.iter(|| {
            let mut budget = Budget::unlimited();
            evaluate_qhd(db, q, plan, &mut budget).unwrap()
        })
    });
    group.bench_function("naive_chain5", |b| {
        let (db, q, _) = &*inputs;
        b.iter(|| {
            let mut budget = Budget::unlimited();
            evaluate_naive(db, q, &mut budget).unwrap()
        })
    });
    group.finish();
}

fn bench_structural_survey(c: &mut Criterion) {
    // The tree-decomposition baseline on a 10-atom chain.
    let h = lazy(|| chain_query(10).hypergraph().hypergraph);
    let mut group = c.benchmark_group("structural_methods");
    group.bench_function("treedecomp_minfill_chain10", |b| {
        b.iter(|| tree_decomposition(&h, EliminationHeuristic::MinFill))
    });
    group.finish();
}

fn bench_planners(c: &mut Criterion) {
    // DP vs GEQO planning on a 9-atom line over real statistics.
    let q = acyclic_query(9);
    let stats = lazy(|| htqo_stats::analyze(&workload_db(&WorkloadSpec::new(9, 200, 20, 5))));
    let mut group = c.benchmark_group("planners");
    group.bench_function("dp_9_atoms", |b| {
        b.iter(|| htqo_optimizer::dp_join_order(&q, &stats))
    });
    group.bench_function("geqo_9_atoms", |b| {
        b.iter(|| {
            htqo_optimizer::geqo_join_order(&q, &stats, &htqo_optimizer::GeqoConfig::default())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gyo,
    bench_decomposition,
    bench_memo_lookup,
    bench_costk_engines,
    bench_tpch_planning,
    bench_dbgen,
    bench_planner,
    bench_plan_cold_search,
    bench_analyze,
    bench_scans,
    bench_vertex_join,
    bench_aggregate,
    bench_storage,
    bench_seek_join,
    bench_service,
    bench_hash_join,
    bench_join_keys,
    bench_probe,
    bench_spill_join,
    bench_factorized_count,
    bench_evaluators,
    bench_structural_survey,
    bench_planners
);
criterion_main!(benches);
