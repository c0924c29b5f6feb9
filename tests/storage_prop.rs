//! Property tests for the paged storage layer.
//!
//! Two families:
//!
//! 1. **Buffer-pool invariants** against a reference model: every pin
//!    observes the latest written content (so eviction, write-back, and
//!    snapshot publication never alias or lose a page), pinned pages
//!    survive arbitrary pressure, the `Budget` byte charge equals
//!    `resident × PAGE_SIZE` after every operation and returns to zero
//!    on drop, a dirty page is written back at most once per dirty
//!    period, and every update is durable after the pool goes away.
//!
//! 2. **Index-seek ≡ hash-join oracle**: on random relations persisted
//!    through the paged catalog (B-tree indexes read back through the
//!    buffer pool at a *random, often tiny, page-cache limit*), the
//!    index-nested-loop join must produce bit-identical rows to the
//!    scan-and-hash oracle on both carriers, with identical tuple
//!    charges — and a full `evaluate_qhd` run with `index_join` on must
//!    match the classic path for every carrier × thread-count
//!    combination.

use htqo::prelude::*;
use htqo_cq::{AtomId, CqBuilder};
use htqo_engine::schema::{ColumnType, Schema};
use htqo_engine::{iseek, ops, scan, MemIndex};
use htqo_eval::{evaluate_qhd_with, ExecOptions};
use htqo_storage::{StorageDb, PAGE_DATA, PAGE_SIZE};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique scratch directory per proptest case (cases run concurrently
/// across test threads; the counter keeps them disjoint).
fn scratch(label: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "htqo-storage-prop-{}-{label}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

// ---------------------------------------------------------------------
// 1. Buffer-pool model
// ---------------------------------------------------------------------

const FILE_PAGES: u64 = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random pin/update traffic at a random (small) capacity, with a
    /// rolling window of held pins, checked against a byte-per-page
    /// model.
    #[test]
    fn buffer_pool_matches_reference_model(
        ops in prop::collection::vec((0u64..FILE_PAGES, any::<bool>()), 1..80),
        cap_pages in 1usize..6,
    ) {
        let dir = scratch("pool");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pages");
        let mut file = htqo_storage::PageFile::create(&path).unwrap();
        for pid in 0..FILE_PAGES {
            file.append(&vec![pid as u8; PAGE_SIZE]).unwrap();
        }
        file.sync().unwrap();

        let mut master = Budget::unlimited().with_mem_limit(1 << 30);
        let _ = master.fork(); // promote to shared counters
        let observer = master.fork();
        let pool = htqo_storage::BufferPool::new(
            file,
            (cap_pages * PAGE_SIZE) as u64,
            Some(master),
        );

        // Model: pid → the byte every cell of that page must hold.
        let mut model: Vec<u8> = (0..FILE_PAGES).map(|p| p as u8).collect();
        let mut held: std::collections::VecDeque<htqo_storage::PagePin> =
            std::collections::VecDeque::new();
        let mut updates = 0u64;
        for (pid, write) in ops {
            if write {
                let tag = model[pid as usize].wrapping_add(1);
                pool.update(pid, |d| d.fill(tag)).unwrap();
                model[pid as usize] = tag;
                updates += 1;
            }
            let pin = pool.pin(pid).unwrap();
            // Only the data region carries content — the trailer holds
            // the pager's checksum stamp.
            prop_assert!(
                pin[..PAGE_DATA].iter().all(|&b| b == model[pid as usize]),
                "page {pid} content drifted from the model"
            );
            held.push_back(pin);
            // Keep strictly fewer pins than frames so eviction always has
            // a victim (the all-pinned error path has its own unit test).
            while held.len() >= cap_pages {
                held.pop_front();
            }
            let st = pool.stats();
            prop_assert!(st.resident <= cap_pages);
            prop_assert_eq!(
                observer.mem_used(),
                st.resident as u64 * PAGE_SIZE as u64,
                "budget charge must equal resident frames × PAGE_SIZE"
            );
        }
        drop(held);

        // Dirty pages are written at most once per dirty period: every
        // write-back (evict or flush) is justified by an update.
        pool.flush().unwrap();
        let st = pool.stats();
        prop_assert!(
            st.flushes <= updates,
            "{} flushes for {} updates",
            st.flushes,
            updates
        );
        // Flushing again writes nothing.
        pool.flush().unwrap();
        prop_assert_eq!(pool.stats().flushes, st.flushes);

        drop(pool);
        prop_assert_eq!(observer.mem_used(), 0, "drop returns every byte");

        // Durability: every model byte survives in the file.
        let mut file = htqo_storage::PageFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        for pid in 0..FILE_PAGES {
            file.read(pid, &mut buf).unwrap();
            prop_assert!(buf[..PAGE_DATA].iter().all(|&b| b == model[pid as usize]));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping any single bit of any page's data region on disk turns
    /// the next read of that page into a typed `CorruptPage` error —
    /// never silently decoded rows.
    #[test]
    fn bit_flip_on_disk_is_caught_by_the_page_checksum(
        pid in 0u64..4,
        byte in 0usize..PAGE_DATA,
        bit in 0u8..8,
    ) {
        use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
        let dir = scratch("flip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pages");
        let mut file = htqo_storage::PageFile::create(&path).unwrap();
        for p in 0..4u64 {
            file.append(&vec![p as u8; PAGE_SIZE]).unwrap();
        }
        file.sync().unwrap();
        drop(file);

        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let off = pid * PAGE_SIZE as u64 + byte as u64;
        let mut b = [0u8; 1];
        f.seek(SeekFrom::Start(off)).unwrap();
        f.read_exact(&mut b).unwrap();
        b[0] ^= 1 << bit;
        f.seek(SeekFrom::Start(off)).unwrap();
        f.write_all(&b).unwrap();
        drop(f);

        let mut file = htqo_storage::PageFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        let err = file.read(pid, &mut buf).unwrap_err();
        prop_assert!(
            matches!(err, htqo_engine::EvalError::CorruptPage { pid: p, .. } if p == pid),
            "expected CorruptPage for page {pid}, got {err:?}"
        );
        // Untouched pages still read fine.
        let other = (pid + 1) % 4;
        prop_assert!(file.read(other, &mut buf).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Lengthening any row by any amount either applies and reads back,
    /// or — when the row's page has no room, since rows are not
    /// relocated — is refused whole as a typed, final `RowDoesNotFit`
    /// that leaves the table as it was. Never a "page corruption" error.
    #[test]
    fn lengthening_update_applies_or_is_refused_whole(
        rowid in 0u64..1200,
        extra in 0usize..900,
    ) {
        let dir = scratch("grow");
        let storage = StorageDb::open(&dir).unwrap();
        let mut rel = Relation::new(Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
        ]));
        for i in 0..1200i64 {
            rel.push_row(vec![Value::Int(i), Value::str(&format!("r{i}"))]).unwrap();
        }
        storage.ingest("t", &rel, &[]).unwrap();
        let mut want = rel.to_rows();
        let new_row = vec![
            Value::Int(rowid as i64),
            Value::str(&format!("r{rowid}{}", "z".repeat(extra))),
        ];
        match storage.update_row("t", rowid, new_row.clone()) {
            Ok(_) => want[rowid as usize] = new_row.into_boxed_slice(),
            Err(htqo_engine::EvalError::RowDoesNotFit { table, rowid: r, row_bytes, free_bytes }) => {
                prop_assert_eq!((table.as_str(), r), ("t", rowid));
                prop_assert!(row_bytes > free_bytes);
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
        let (got, _) = storage.load_table("t", 1 << 20, None).unwrap();
        prop_assert_eq!(got.to_rows(), want);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// 2. Index-seek ≡ hash-join oracle
// ---------------------------------------------------------------------

/// Random fact/probe pair: integer keys over a small domain, with
/// occasional NULL keys (the seek must match NULLs exactly like the hash
/// join's join-key semantics).
#[derive(Debug, Clone)]
struct JoinCase {
    fact_keys: Vec<Option<i64>>,
    probe_keys: Vec<Option<i64>>,
    /// Page-cache budget in pages — often 1, so B-tree descents and heap
    /// reads constantly evict each other.
    cache_pages: u64,
}

fn arb_key() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        9 => (0i64..12).prop_map(Some),
        1 => Just(None),
    ]
}

fn arb_join_case() -> impl Strategy<Value = JoinCase> {
    (
        prop::collection::vec(arb_key(), 1..120),
        prop::collection::vec(arb_key(), 1..40),
        1u64..16,
    )
        .prop_map(|(fact_keys, probe_keys, cache_pages)| JoinCase {
            fact_keys,
            probe_keys,
            cache_pages,
        })
}

fn rel_from_keys(keys: &[Option<i64>]) -> Relation {
    let mut rel = Relation::new(Schema::new(&[
        ("k", ColumnType::Int),
        ("p", ColumnType::Int),
    ]));
    for (i, k) in keys.iter().enumerate() {
        let kv = k.map(Value::Int).unwrap_or(Value::Null);
        rel.push_row(vec![kv, Value::Int(i as i64)]).unwrap();
    }
    rel
}

fn probe_query() -> ConjunctiveQuery {
    CqBuilder::new()
        .atom("probe", "probe", &[("k", "K"), ("p", "T")])
        .atom("fact", "fact", &[("k", "K"), ("p", "P")])
        .out_var("K")
        .out_var("T")
        .out_var("P")
        .build()
}

/// Guard against vacuous properties: on a decisively selective vertex
/// (tiny probe, large indexed fact) the evaluator must actually *take*
/// the seek path, and it must charge strictly fewer tuples than the
/// scan-and-hash path (it never materializes the scanned atom).
#[test]
fn evaluator_takes_the_seek_path_when_profitable() {
    let dir = scratch("nonvacuous");
    let storage = StorageDb::open(&dir).unwrap();
    let fact_keys: Vec<Option<i64>> = (0..4000).map(|i| Some(i % 97)).collect();
    let probe_keys: Vec<Option<i64>> = (0..5).map(|i| Some(i * 7)).collect();
    storage
        .ingest("fact", &rel_from_keys(&fact_keys), &["k"])
        .unwrap();
    storage
        .ingest("probe", &rel_from_keys(&probe_keys), &[])
        .unwrap();
    let db = storage.load_database(64 * PAGE_SIZE as u64, None).unwrap();
    let q = probe_query();
    let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
    let run = |index_join: bool| {
        let mut b = Budget::unlimited();
        let r = evaluate_qhd_with(
            &db,
            &q,
            &plan,
            &mut b,
            &ExecOptions {
                threads: 1,
                index_join,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        (r, b.charged(), b.join_stats().index_seeks())
    };
    let (classic, classic_charge, classic_seeks) = run(false);
    let (seek, seek_charge, seeks) = run(true);
    assert_eq!(classic_seeks, 0);
    assert!(seeks > 0, "the seek kernel never fired");
    assert!(seek.set_eq(&classic));
    assert!(
        seek_charge < classic_charge,
        "seek ({seek_charge}) must charge fewer tuples than scan+hash ({classic_charge})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The persisted B-tree seek join equals the hash oracle and the
    /// in-memory `MemIndex` seek join, on both carriers, with identical
    /// tuple charges, at a random page-cache limit.
    #[test]
    fn paged_seek_join_equals_hash_oracle(case in arb_join_case()) {
        let dir = scratch("seek");
        let fact = rel_from_keys(&case.fact_keys);
        let probe = rel_from_keys(&case.probe_keys);
        let storage = StorageDb::open(&dir).unwrap();
        storage.ingest("fact", &fact, &["k"]).unwrap();
        storage.ingest("probe", &probe, &[]).unwrap();
        let paged = storage
            .load_database(case.cache_pages * PAGE_SIZE as u64, None)
            .unwrap();
        prop_assert!(paged.has_indexes());

        let q = probe_query();
        let mut ob = Budget::unlimited();
        let acc = scan::scan_query_atom(&paged, &q, AtomId(0), &mut ob).unwrap();
        let oracle = {
            let scanned = scan::scan_query_atom(&paged, &q, AtomId(1), &mut ob).unwrap();
            ops::natural_join(&acc, &scanned, &mut ob).unwrap()
        };

        let mut br = Budget::unlimited();
        let seek = iseek::index_seek_join(&paged, &q, AtomId(1), &acc, &mut br)
            .unwrap()
            .expect("fact.k is indexed");
        prop_assert_eq!(seek.cols(), oracle.cols());
        prop_assert_eq!(seek.sorted_rows(), oracle.sorted_rows());

        let mut bc = Budget::unlimited();
        let acc_c = scan::scan_query_atom_c(&paged, &q, AtomId(0), &mut bc).unwrap();
        let before_c = bc.charged();
        let seek_c = iseek::index_seek_join_c(&paged, &q, AtomId(1), &acc_c, &mut bc)
            .unwrap()
            .expect("fact.k is indexed");
        prop_assert_eq!(seek_c.to_vrel().sorted_rows(), oracle.sorted_rows());
        prop_assert_eq!(
            bc.charged() - before_c,
            br.charged(),
            "carrier tuple-charge parity"
        );

        // The paged B-tree agrees with an in-memory hash index seek.
        let mut mem_db = Database::new();
        mem_db.insert_table("fact", fact);
        mem_db.insert_table("probe", probe);
        let idx = MemIndex::build(mem_db.table("fact").unwrap(), 0);
        mem_db.register_index("fact", "k", Arc::new(idx));
        let mut bm = Budget::unlimited();
        let mem_seek = iseek::index_seek_join(&mem_db, &q, AtomId(1), &acc, &mut bm)
            .unwrap()
            .unwrap();
        prop_assert_eq!(mem_seek.sorted_rows(), seek.sorted_rows());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end `evaluate_qhd` on a triangle whose decomposition packs
    /// two atoms into one vertex: with indexes loaded from disk,
    /// `index_join` on must match `index_join` off for every carrier ×
    /// thread-count combination (the answer and the tuple charges are
    /// schedule- and carrier-independent within each mode).
    #[test]
    fn qhd_with_index_join_matches_classic_path(
        case in arb_join_case(),
        threads_idx in 0usize..3,
    ) {
        let threads = [1usize, 2, 4][threads_idx];
        let dir = scratch("qhd");
        let storage = StorageDb::open(&dir).unwrap();
        for name in ["t0", "t1", "t2"] {
            // Reuse the fact keys for all three relations (rotated) so the
            // triangle has matches without a separate generator.
            let rel = rel_from_keys(&case.fact_keys);
            storage.ingest(name, &rel, &["k", "p"]).unwrap();
        }
        let db = storage
            .load_database(case.cache_pages * PAGE_SIZE as u64, None)
            .unwrap();
        let q = CqBuilder::new()
            .atom("t0", "t0", &[("k", "X"), ("p", "Y")])
            .atom("t1", "t1", &[("k", "Y"), ("p", "Z")])
            .atom("t2", "t2", &[("k", "Z"), ("p", "X")])
            .out_var("X")
            .out_var("Y")
            .build();
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();

        let run = |columnar: bool, index_join: bool, threads: usize| {
            let mut b = Budget::unlimited();
            let r = evaluate_qhd_with(&db, &q, &plan, &mut b, &ExecOptions {
                threads,
                columnar,
                index_join,
                ..ExecOptions::default()
            })
            .unwrap();
            (r, b.charged())
        };
        let (classic, classic_charge) = run(false, false, 1);
        let mut seek_charge = None;
        for columnar in [false, true] {
            for t in [1usize, threads] {
                let (seek, charged) = run(columnar, true, t);
                prop_assert!(
                    seek.set_eq(&classic),
                    "index_join answer drifted (columnar={columnar}, threads={t})"
                );
                match seek_charge {
                    None => seek_charge = Some(charged),
                    Some(c) => prop_assert_eq!(
                        charged, c,
                        "seek charges must be carrier- and schedule-independent"
                    ),
                }
                let (classic2, c2) = run(columnar, false, t);
                prop_assert!(classic2.set_eq(&classic));
                prop_assert_eq!(c2, classic_charge);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
