//! Criterion micro-benchmarks for the core kernels: GYO acyclicity,
//! det-k/cost-k decomposition (with the cost-k search's time per
//! separator tried under the statistics model), the seed-vs-branch-and-bound
//! cost-k memo (cloned-bitset std keys vs word-mask keys under the fx
//! hasher), the hybrid planner on TPC-H Q5, TPC-H generation, separator
//! pricing and cold planning under the statistics cost model, ANALYZE
//! (whole TPC-H, and one 100k-row
//! column of each kind), base-table scans (shared columns, typed
//! predicate kernels), the paged store's commit, reload and recovery
//! paths, the query service's per-statement fixed cost (prepared, ad hoc
//! on a known text, ad hoc on a never-seen text of a known shape), hash
//! join throughput, the row join kernel (sequential and
//! partitioned-parallel), the columnar join per probe row under each key
//! plan (direct table, range bitmaps, hashed), the columnar join in memory
//! vs spilling under a byte cap of a quarter of its working set,
//! factorized vs materialized `COUNT(*) GROUP BY`, the parallel
//! q-hypertree schedule, and the q-hypertree evaluator vs the naive
//! pipeline on a chain query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use htqo_core::treedecomp::{tree_decomposition, EliminationHeuristic};
use htqo_core::{det_k_decomp, q_hypertree_decomp, QhdOptions, StructuralCost};
use htqo_cq::{isolate, parse_select, IsolatorOptions};
use htqo_engine::error::Budget;
use htqo_engine::ops::natural_join;
use htqo_eval::{evaluate_naive, evaluate_qhd, ExecOptions};
use htqo_hypergraph::acyclic::gyo;
use htqo_hypergraph::{biconnected_components, hinge_decomposition};
use htqo_optimizer::HybridOptimizer;
use htqo_tpch::{generate, q5, DbgenOptions};
use htqo_workloads::{acyclic_query, chain_query, star_db, star_query, workload_db, WorkloadSpec};

fn bench_gyo(c: &mut Criterion) {
    let mut group = c.benchmark_group("gyo");
    for n in [4usize, 8, 12] {
        let h = acyclic_query(n).hypergraph().hypergraph;
        group.bench_with_input(BenchmarkId::new("line", n), &h, |b, h| {
            b.iter(|| gyo(h).is_some())
        });
    }
    group.finish();
}

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomposition");
    for n in [4usize, 6, 8, 10] {
        let q = chain_query(n);
        group.bench_with_input(BenchmarkId::new("detk_chain", n), &q, |b, q| {
            let h = q.hypergraph().hypergraph;
            b.iter(|| det_k_decomp(&h, 2).expect("chains have width 2"))
        });
        group.bench_with_input(BenchmarkId::new("qhd_chain", n), &q, |b, q| {
            b.iter(|| {
                q_hypertree_decomp(q, &QhdOptions::default(), &StructuralCost)
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
    let chain_stats = htqo_stats::analyze(&workload_db(&WorkloadSpec::new(12, 40, 80, 7)));
    let star_stats = htqo_stats::analyze(&star_db(8, 40, 80, 7));
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
    let word = |k: &(EdgeSet, VarSet)| {
        let fits = "a 12-atom chain fits one word";
        (
            k.0.bits().as_word().expect(fits),
            k.1.bits().as_word().expect(fits),
        )
    };
    let masks: Vec<(u64, u64)> = keys.iter().map(word).collect();

    let mut seed_memo: HashMap<(EdgeSet, VarSet), usize> = HashMap::new();
    let mut mask_memo: FxHashMap<(u64, u64), usize> = FxHashMap::default();
    for (i, k) in keys.iter().enumerate() {
        seed_memo.insert(k.clone(), i);
        mask_memo.insert(word(k), i);
    }

    let mut group = c.benchmark_group("memo_lookup");
    group.bench_function("seed_cloned_bitset_keys", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for k in &keys {
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
        b.iter(|| masks.iter().filter(|&k| mask_memo.contains_key(k)).count())
    });
    group.finish();
}

fn bench_costk_engines(c: &mut Criterion) {
    // Seed exhaustive search vs the branch-and-bound engine, end to end.
    use htqo_core::search::baseline;
    use htqo_core::{cost_k_decomp_instrumented, SearchOptions};
    let h = chain_query(10).hypergraph().hypergraph;
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
    let db = generate(&DbgenOptions {
        scale: 0.001,
        seed: 1,
    });
    let sql = q5("ASIA", 1994);
    let stmt = parse_select(&sql).unwrap();
    let q = isolate(&stmt, &db, IsolatorOptions::default()).unwrap();
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
    // Pricing and cold planning under the statistics cost model, on the
    // e2e `plan_cold` shapes (12 relations x 40 rows over 80 values).
    use htqo_core::{cost_k_decomp_with_cost, DecompCost, SearchOptions};
    use htqo_hypergraph::{EdgeId, EdgeSet, VarSet};
    use htqo_stats::StatsDecompCost;
    let db = workload_db(&WorkloadSpec::new(12, 40, 80, 7));
    let stats = htqo_stats::analyze(&db);
    let cycle = chain_query(12);
    let line = acyclic_query(12);
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
    let model = StatsDecompCost::new(&stats, &cycle);
    group.bench_function("vertex_cost_hit", |b| {
        b.iter(|| model.vertex_cost(&h, &lambda, &assigned, &chi))
    });

    for (name, q) in [
        ("plan_cycle12_k4_stats", &cycle),
        ("plan_line12_k4_stats", &line),
    ] {
        let ch = q.hypergraph();
        let opts = SearchOptions::width_with_root_cover(4, ch.out_var_set(q));
        group.bench_function(name, |b| {
            b.iter(|| {
                let model = StatsDecompCost::new(&stats, q);
                cost_k_decomp_with_cost(&ch.hypergraph, &opts, &model).expect("width 2 suffices")
            })
        });
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
            generate(&DbgenOptions {
                scale: 0.02,
                seed: 1,
            }),
        ),
        (
            "int_dense_100k",
            column(ColumnType::Int, &|l, i| {
                l.push_int((scramble(i) % ROWS as u64) as i64)
            }),
        ),
        (
            "int_sparse_100k",
            column(ColumnType::Int, &|l, i| l.push_int(scramble(i) as i64)),
        ),
        (
            "float_100k",
            column(ColumnType::Float, &|l, i| {
                l.push_float((scramble(i) % 10_000_000) as f64 / 100.0)
            }),
        ),
        (
            "str_3_values_100k",
            column(ColumnType::Str, &|l, i| {
                l.push_str(["N", "R", "A"][(scramble(i) % 3) as usize])
            }),
        ),
        (
            "str_all_distinct_100k",
            column(ColumnType::Str, &|l, i| {
                l.push_str(&format!("Customer#{:016x}", scramble(i)))
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
    let db = generate(&DbgenOptions {
        scale: 0.02,
        seed: 1,
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
        let storage = StorageDb::open_with(&dir, WalPolicy::Commit, 1 << 20).unwrap();
        let meta = storage.ingest("t", &wide_table(base), &[]).unwrap();
        assert!(meta.heap_pages() >= 200, "{} heap pages", meta.heap_pages());
        storage.load_table("t", small_pool, None).unwrap();
        let mut doomed: Vec<u64> = (0..6).collect();
        let mut round = 0i64;
        group.bench_function("apply_16ops_commit", |b| {
            b.iter(|| {
                let batch = next_batch(round, &mut doomed);
                round += 1;
                storage.apply(&batch).unwrap()
            })
        });
        let log = storage.wal_stats();
        let commits = log.commits.max(1);
        println!(
            "storage/apply_16ops_commit: {} B logged per commit (slot records {}, catalog {}, \
             marker {}), {} B of page images per commit (checkpoints), {} fsyncs over {} commits",
            (log.bytes() - log.image_bytes) / commits,
            log.slot_bytes / commits,
            log.catalog_bytes / commits,
            log.commit_bytes / commits,
            log.image_bytes / commits,
            log.fsyncs,
            log.commits
        );
        drop(storage);
        std::fs::remove_dir_all(&dir).ok();
    }

    {
        let dir = scratch("load");
        let db = generate(&DbgenOptions {
            scale: 0.01,
            seed: 1,
        });
        let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
        storage
            .ingest("lineitem", db.table("lineitem").unwrap(), &[])
            .unwrap();
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
        let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
        storage.ingest("t", &wide_table(base), &[]).unwrap();
        let mut doomed: Vec<u64> = (0..6).collect();
        for commit in 0..16 * rounds {
            storage.apply(&next_batch(commit, &mut doomed)).unwrap();
        }
        let log = std::fs::metadata(dir.join("db.wal")).unwrap().len();
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
        println!(
            "storage/{name}: {log} B of log, {pages} pages with redo, {kept} B of kept edits, \
             {:.2} ms per recovery alone",
            recovering.as_secs_f64() * 1e3 / f64::from(runs)
        );
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
        let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
        storage.ingest("t", &wide_table(15_000), &[]).unwrap();
        storage.load_table("t", small_pool, None).unwrap();
        // The first row of each of the first 128 heap pages.
        let firsts: Vec<u64> = (0..15_000)
            .filter(|&r| matches!(storage.locate("t", r), Ok(Some((_, 0)))))
            .take(128)
            .collect();
        let mut round = 0i64;
        let mut checkpoints = std::time::Duration::ZERO;
        group.bench_function("checkpoint_128_dirty_pages", |b| {
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
        println!(
            "storage/checkpoint_128_dirty_pages: {:.2} ms per checkpoint alone",
            checkpoints.as_secs_f64() * 1e3 / round as f64
        );
        drop(storage);
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

fn bench_service(c: &mut Criterion) {
    // One `service_hot` statement at a time: a 4-atom cycle over 50-row
    // relations evaluates in tens of microseconds, so what is timed is
    // the fixed cost around the evaluation.
    use htqo_service::{QueryService, ServiceConfig};
    let db = workload_db(&WorkloadSpec::new(10, 50, 50, 7));
    let opt = HybridOptimizer::with_stats(QhdOptions::default(), htqo_stats::analyze(&db));
    let service = QueryService::new(db, opt, ServiceConfig::default());
    let session = service.session();
    let cycle = |alias: &str| {
        format!(
            "SELECT {alias}0.l FROM p0 {alias}0, p1 {alias}1, p2 {alias}2, p3 {alias}3 \
             WHERE {alias}0.r = {alias}1.l AND {alias}1.r = {alias}2.l \
             AND {alias}2.r = {alias}3.l AND {alias}3.r = {alias}0.l"
        )
    };
    let known = cycle("a");
    let prepared = session.prepare(&known).unwrap();
    assert!(session.execute_prepared(prepared).unwrap().result.is_ok());

    let mut group = c.benchmark_group("service");
    group.bench_function("execute_prepared_hit", |b| {
        b.iter(|| session.execute_prepared(prepared).unwrap().tuples)
    });
    group.bench_function("execute_sql_text_hit", |b| {
        b.iter(|| session.execute_sql(&known).unwrap().tuples)
    });
    // A never-seen text every iteration (same shape, fresh aliases): the
    // optimizer's shape level serves the plan, and every call pays the
    // text miss, the insert and — once the cache is full — an eviction.
    let mut fresh = 0u64;
    group.bench_function("execute_sql_new_text_shape_hit", |b| {
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
    let db = workload_db(&WorkloadSpec::new(2, 10_000, 100, 7));
    let q = acyclic_query(2);
    let mut budget = Budget::unlimited();
    let left =
        htqo_engine::scan::scan_query_atom(&db, &q, htqo_cq::AtomId(0), &mut budget).unwrap();
    let right =
        htqo_engine::scan::scan_query_atom(&db, &q, htqo_cq::AtomId(1), &mut budget).unwrap();
    c.bench_function("hash_join_10k_x_10k", |b| {
        b.iter(|| {
            let mut budget = Budget::unlimited();
            natural_join(&left, &right, &mut budget).unwrap()
        })
    });
}

fn bench_join_kernels(c: &mut Criterion) {
    // The row hash-in-place kernel (the baselines' engine) on a skewed
    // 50k × 50k join.
    let db = workload_db(&WorkloadSpec::new(2, 50_000, 25_000, 7).with_zipf(0.5));
    let q = acyclic_query(2);
    let mut budget = Budget::unlimited();
    let left =
        htqo_engine::scan::scan_query_atom(&db, &q, htqo_cq::AtomId(0), &mut budget).unwrap();
    let right =
        htqo_engine::scan::scan_query_atom(&db, &q, htqo_cq::AtomId(1), &mut budget).unwrap();

    let mut group = c.benchmark_group("join_kernel");
    group.sample_size(10);
    group.bench_function("hash_50k_skew", |b| {
        b.iter(|| {
            let mut budget = Budget::unlimited();
            natural_join(&left, &right, &mut budget).unwrap()
        })
    });
    group.finish();
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
        let mut names: Vec<String> = (0..keys.len()).map(|i| format!("k{i}")).collect();
        names.push(payload.to_string());
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

    let orderkeys = sample(7_346, 30_000);
    let cases: Vec<(&str, CRel, CRel)> = vec![
        (
            "int_200_all_hit",
            rel(vec![ints((0..200).collect())], "b"),
            rel(vec![ints(uniform(200))], "p"),
        ),
        (
            "int_673_of_4000",
            rel(vec![ints(sample(673, 4_000))], "b"),
            rel(vec![ints(uniform(4_000))], "p"),
        ),
        (
            "int2_7346_sparse",
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
            "str_5000_of_20000",
            rel(vec![strs(sample(5_000, 20_000))], "b"),
            rel(vec![strs(uniform(20_000))], "p"),
        ),
        (
            "float_5000_of_20000",
            rel(vec![floats(sample(5_000, 20_000))], "b"),
            rel(vec![floats(uniform(20_000))], "p"),
        ),
    ];

    let mut group = c.benchmark_group("join_keys");
    for (name, build, probe) in &cases {
        let mut best = Duration::MAX;
        group.bench_function(*name, |b| {
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
    let left = side("Y", 0, "X");
    let right = side("Y", ROWS - ROWS / 100, "Z");
    let run = |b: &mut Budget| cops::natural_join(&left, &right, b).map(|r| r.len());

    // Working set: the smallest cap the join completes under with spilling
    // off (the budget's residual after a run is only the output; the build
    // table's transient charges are returned on completion).
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
    let (working_set, cap) = (hi, (hi / 4).max(1));
    let rows = run(&mut Budget::unlimited()).unwrap();

    let mut group = c.benchmark_group("spill_join");
    group.sample_size(10);
    group.bench_function("in_memory", |b| {
        b.iter(|| run(&mut Budget::unlimited()).unwrap())
    });
    let (mut spilled, mut partitions) = (0, 0);
    group.bench_function("quarter_cap", |b| {
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
        println!(
            "spill_join/quarter_cap: working set {working_set} B, cap {cap} B, \
             {spilled} B spilled over {partitions} partitions, {rows} output rows"
        );
    }
    group.finish();
}

fn bench_factorized_count(c: &mut Criterion) {
    // `COUNT(*) GROUP BY A` over hub(A,B,C) with a 3-atom chain hanging
    // off each hub variable, every atom exporting its hidden rowid (what
    // the SQL isolator does for bag semantics): the materialized pipeline
    // enumerates one row per derivation of the join (fanout ~3 per chain
    // step, so ~27³ per hub row), the factorized one multiplies per-vertex
    // counts along the cover. Evaluated on the Yannakakis join forest: the
    // q-HD planner roots its tree at an output-covering vertex, which with
    // rowid guards on every atom would put the whole join in the root's λ.
    use htqo_cq::isolator::{ROWID_COLUMN, ROWID_VAR_PREFIX};
    use htqo_cq::{AggFunc, CqBuilder};
    use htqo_engine::{ColumnType, Database, Relation, Schema, Value};
    use htqo_eval::{evaluate_yannakakis_query_traced, FactorizedTrace};

    const CHAIN_ROWS: usize = 20_000;
    const DOMAIN: u64 = CHAIN_ROWS as u64 / 3;
    const HUB_ROWS: usize = 20;
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
    let rid = |name: &str| format!("{ROWID_VAR_PREFIX}{name}");
    let mut b = CqBuilder::new()
        .atom(
            "hub",
            "hub",
            &[
                ("a", "A"),
                ("b", "B"),
                ("c", "C"),
                (ROWID_COLUMN, &rid("hub")),
            ],
        )
        .out_var("A")
        .out_var(&rid("hub"));
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
            b = b
                .atom(
                    &name,
                    &name,
                    &[("l", &l), ("r", &r), (ROWID_COLUMN, &rid(&name))],
                )
                .out_var(&rid(&name));
        }
    }
    let q = b.out_agg(AggFunc::Count, None, "n").group("A").build();

    let run = |factorized: bool| {
        let mut trace = FactorizedTrace::default();
        let mut budget = Budget::unlimited();
        let opts = ExecOptions {
            factorized,
            ..ExecOptions::default()
        };
        let out =
            evaluate_yannakakis_query_traced(&db, &q, &mut budget, &opts, &mut trace).unwrap();
        (out, trace)
    };
    let (materialized, mtrace) = run(false);
    let (factorized, ftrace) = run(true);
    assert!(ftrace.factorized, "fell back: {:?}", ftrace.fallback);
    assert!(
        factorized.set_eq(&materialized),
        "factorized count disagrees"
    );
    println!(
        "factorized_count: {} derivations collapse into {} groups",
        mtrace.answer_rows.unwrap_or(0),
        materialized.len()
    );

    let mut group = c.benchmark_group("factorized_count");
    group.sample_size(10);
    group.bench_function("materialized", |b| b.iter(|| run(false).0));
    group.bench_function("factorized", |b| b.iter(|| run(true).0));
    group.finish();
}

fn bench_evaluators(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluators");
    group.sample_size(10);
    let n = 5;
    let db = workload_db(&WorkloadSpec::new(n, 300, 40, 11));
    let q = chain_query(n);
    let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
    group.bench_function("qhd_chain5", |b| {
        b.iter(|| {
            let mut budget = Budget::unlimited();
            evaluate_qhd(&db, &q, &plan, &mut budget).unwrap()
        })
    });
    group.bench_function("naive_chain5", |b| {
        b.iter(|| {
            let mut budget = Budget::unlimited();
            evaluate_naive(&db, &q, &mut budget).unwrap()
        })
    });
    group.finish();
}

fn bench_structural_survey(c: &mut Criterion) {
    // The competing structural methods on a 10-atom chain.
    let h = chain_query(10).hypergraph().hypergraph;
    let mut group = c.benchmark_group("structural_methods");
    group.bench_function("biconnected_chain10", |b| {
        b.iter(|| biconnected_components(&h))
    });
    group.bench_function("hinge_chain10", |b| b.iter(|| hinge_decomposition(&h)));
    group.bench_function("treedecomp_minfill_chain10", |b| {
        b.iter(|| tree_decomposition(&h, EliminationHeuristic::MinFill))
    });
    group.finish();
}

fn bench_planners(c: &mut Criterion) {
    // DP vs GEQO planning on a 9-atom line over real statistics.
    let db = workload_db(&WorkloadSpec::new(9, 200, 20, 5));
    let q = acyclic_query(9);
    let stats = htqo_stats::analyze(&db);
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
    bench_analyze,
    bench_scans,
    bench_storage,
    bench_service,
    bench_hash_join,
    bench_join_kernels,
    bench_join_keys,
    bench_spill_join,
    bench_factorized_count,
    bench_evaluators,
    bench_structural_survey,
    bench_planners
);
criterion_main!(benches);
