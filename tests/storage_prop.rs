//! Property tests for the paged storage layer.
//!
//! Three families:
//!
//! 1. **Buffer-pool invariants** against a reference model: every pin
//!    observes the latest written content (so eviction, write-back, and
//!    snapshot publication never alias or lose a page), pinned pages
//!    survive arbitrary pressure, the `Budget` byte charge equals
//!    `resident × PAGE_SIZE` after every operation and returns to zero
//!    on drop, a dirty page is written back at most once per dirty
//!    period, and every update is durable after the pool goes away.
//!
//! 2. **Index seek ≡ hash-join oracle**: on random relations persisted
//!    through the paged catalog (B-tree indexes read back through the
//!    buffer pool at a *random, often tiny, page-cache limit*), the vertex
//!    join (`cops::join_vertex`) over seekable selections must produce the
//!    rows of the scan-and-nested-loop oracle, seeking exactly when the
//!    probe side is `SEEK_MARGIN` times smaller and then charging only the
//!    probe's scan and one tuple per output row — and a full
//!    `evaluate_qhd` over the indexed catalog must match the classic path
//!    over the same tables without indexes.
//!    `tests/seek_prop.rs` covers filters, child narrowing, two-column
//!    keys, a key column bound twice and `Str`/`Date`/NULL keys.
//!
//! 3. **Slot directory and page → column loader**: after random
//!    append/update/delete batches (appends that fill pages, a crash and
//!    recovery mid-run) every rowid resolves to the page and slot a walk
//!    over the on-disk pages — plus, by hand, the log's slot records a
//!    restart leaves unwritten — gives it, and the reloaded relation equals
//!    the boxed-row reference (`decode_row` + `extend_rows`) cell for
//!    cell — bits, NULLs, dictionary codes — with the same typed error
//!    for every damaged cell, also for string columns of 1 to 700
//!    distinct values that the loader's per-column memo serves, and a
//!    string refused by a column of another type never interned.
//!
//! 4. **In-place page edits and the slot record**: `page::{put_cell,
//!    tombstone_cell, push_cell}` against editing a cell list and calling
//!    `page::rebuild` (same cells, refused exactly when the list no longer
//!    fits, bit-identical on a twin driven through the WAL's edit
//!    encoding), and `wal::scan` + `recover` + the first read fed
//!    truncated, bit-flipped and random slot records — a torn tail or a
//!    typed error, never a panic and never a half-applied batch.

use htqo::prelude::*;
use htqo_cq::{AtomId, CqBuilder};
use htqo_engine::index::SEEK_MARGIN;
use htqo_engine::schema::{ColumnType, Schema};
use htqo_engine::vrel::nested_loop_join;
use htqo_engine::{cops, scan, MemIndex, Row};
use htqo_eval::evaluate_qhd;
use htqo_storage::wal;
use htqo_storage::{codec, page, MutationBatch, StorageDb, WalPolicy, PAGE_DATA, PAGE_SIZE};
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
        let file = htqo_storage::PageFile::open(&path).unwrap();
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

        let file = htqo_storage::PageFile::open(&path).unwrap();
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
/// join's join-key semantics). The fact side runs from a few rows to
/// three times [`SEEK_MARGIN`] per probe row, so the seek fires on some
/// cases and not on others.
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
        prop::collection::vec(arb_key(), 1..3 * SEEK_MARGIN),
        prop::collection::vec(arb_key(), 1..4),
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

/// The vertex `probe ⋈ fact` of [`probe_query`] through `join_vertex`,
/// its atoms selected for seeking: the rows, the tuples charged and the
/// seeks taken.
fn seek_vertex(db: &Database) -> (VRelation, u64, u64) {
    let q = probe_query();
    let mut b = Budget::unlimited();
    let selected = (q.atom_ids())
        .map(|a| scan::select_query_atom(db, &q, a, true, &mut b).unwrap())
        .collect();
    let chi = ["K", "T", "P"].map(htqo_engine::Name::from);
    let joined = cops::join_vertex(selected, &chi, &mut b).unwrap();
    (joined.to_vrel(), b.charged(), b.join_stats().index_seeks())
}

/// Guard against vacuous properties: on a decisively selective vertex
/// (tiny probe, large indexed fact) the evaluator must actually *take*
/// the seek path, and it must charge strictly fewer tuples than the
/// scan-and-hash path (it never charges the fact table's scan).
#[test]
fn evaluator_takes_the_seek_path_when_profitable() {
    let dir = scratch("nonvacuous");
    let storage = StorageDb::open(&dir).unwrap();
    let fact_keys: Vec<Option<i64>> = (0..5 * SEEK_MARGIN as i64).map(|i| Some(i % 97)).collect();
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
    let run = |db: &Database| {
        let mut b = Budget::unlimited();
        let r = evaluate_qhd(db, &q, &plan, &mut b).unwrap();
        (r, b.charged(), b.join_stats().index_seeks())
    };
    let (classic, classic_charge, classic_seeks) = run(&without_indexes(&db));
    let (seek, seek_charge, seeks) = run(&db);
    assert_eq!(classic_seeks, 0);
    assert_eq!(seeks, 1, "the vertex join never sought the index");
    assert!(seek.set_eq(&classic));
    assert!(
        seek_charge + fact_keys.len() as u64 <= classic_charge,
        "seek ({seek_charge}) must not charge the fact scan (scan + hash: {classic_charge})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `db`'s tables without their indexes: every vertex join hash-joins.
fn without_indexes(db: &Database) -> Database {
    let mut plain = Database::new();
    for (name, rel) in db.tables() {
        plain.insert_table(name, rel.clone());
    }
    plain
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The vertex join over the persisted B-tree equals the scan +
    /// nested-loop oracle and the same join over an in-memory `MemIndex`,
    /// at a random page-cache limit. It seeks exactly when the probe is
    /// `SEEK_MARGIN` times smaller than the fact table, and then charges
    /// the probe's scan and one tuple per output row, nothing for the
    /// fact table.
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
        let oracle = {
            let acc = scan::scan_query_atom_c(&paged, &q, AtomId(0), &mut ob).unwrap();
            let scanned = scan::scan_query_atom_c(&paged, &q, AtomId(1), &mut ob).unwrap();
            nested_loop_join(&acc.to_vrel(), &scanned.to_vrel(), &mut ob).unwrap()
        };

        let (seek, charged, seeks) = seek_vertex(&paged);
        prop_assert_eq!(seek.cols(), oracle.cols());
        prop_assert_eq!(seek.sorted_rows(), oracle.sorted_rows());
        let (p, f) = (probe.len(), fact.len());
        prop_assert_eq!(seeks, u64::from(p * SEEK_MARGIN <= f));
        let scans = if seeks == 1 { p } else { p + f };
        prop_assert_eq!(charged, (scans + seek.len()) as u64, "scans + one tuple per output row");

        // The paged B-tree agrees with an in-memory index.
        let mut mem_db = Database::new();
        mem_db.insert_table("fact", fact);
        mem_db.insert_table("probe", probe);
        let idx = MemIndex::build(mem_db.table("fact").unwrap(), 0);
        mem_db.register_index("fact", "k", Arc::new(idx));
        let (mem_seek, mem_charged, mem_seeks) = seek_vertex(&mem_db);
        prop_assert_eq!(mem_seek.sorted_rows(), oracle.sorted_rows());
        prop_assert_eq!((mem_charged, mem_seeks), (charged, seeks));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end `evaluate_qhd` on a triangle whose decomposition packs
    /// two atoms into one vertex, the small one beside a large indexed
    /// one: with indexes loaded from disk, the answer must match the same
    /// tables without indexes (the answer; the tuple charges repeat exactly
    /// within each mode).
    #[test]
    fn qhd_with_index_join_matches_classic_path(case in arb_join_case()) {
        let dir = scratch("qhd");
        let storage = StorageDb::open(&dir).unwrap();
        for (name, keys) in [
            ("t0", &case.probe_keys),
            ("t1", &case.fact_keys),
            ("t2", &case.fact_keys),
        ] {
            storage.ingest(name, &rel_from_keys(keys), &["k", "p"]).unwrap();
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

        let plain = without_indexes(&db);
        let run = |indexed: bool| {
            let mut b = Budget::unlimited();
            let db = if indexed { &db } else { &plain };
            let r = evaluate_qhd(db, &q, &plan, &mut b).unwrap();
            (r, b.charged())
        };
        let (classic, classic_charge) = run(false);
        let mut naive_budget = Budget::unlimited();
        let naive = htqo_eval::evaluate_naive(&db, &q, &mut naive_budget).unwrap();
        prop_assert!(classic.set_eq(&naive), "classic path drifted from the join-order reference");
        let (seek, seek_charge) = run(true);
        prop_assert!(seek.set_eq(&classic), "the indexed answer drifted");
        let (seek2, c2) = run(true);
        prop_assert!(seek2.set_eq(&classic));
        prop_assert_eq!(c2, seek_charge, "seek charges must repeat exactly");
        let (classic2, c2) = run(false);
        prop_assert!(classic2.set_eq(&classic));
        prop_assert_eq!(c2, classic_charge);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// 3. Slot directory and page → column loader
// ---------------------------------------------------------------------

fn wide_schema() -> Schema {
    Schema::new(&[
        ("i", ColumnType::Int),
        ("f", ColumnType::Float),
        ("s", ColumnType::Str),
        ("d", ColumnType::Date),
    ])
}

/// A row of all four types: NULL anywhere, any float bit pattern (NaNs,
/// ±0.0), empty strings, and strings long enough that a handful of rows
/// fills a page.
fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    (
        any::<Option<i64>>(),
        any::<Option<f64>>(),
        prop_oneof![
            1 => Just(None),
            1 => Just(Some(0usize)),
            5 => (1usize..1400).prop_map(Some),
        ],
        any::<Option<i32>>(),
    )
        .prop_map(|(i, f, s, d)| {
            vec![
                i.map_or(Value::Null, Value::Int),
                f.map_or(Value::Null, Value::Float),
                s.map_or(Value::Null, |n| Value::str(&"s".repeat(n))),
                d.map_or(Value::Null, Value::Date),
            ]
        })
}

/// Bit-level equality of two relations' stored columns: payload words
/// (floats by bit pattern, strings by dictionary code), NULL positions,
/// and the size accounting.
fn assert_cells_identical(got: &Relation, want: &Relation, ctx: &str) {
    use htqo_engine::column::ColumnData;
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    assert_eq!(got.approx_bytes(), want.approx_bytes(), "{ctx}: bytes");
    for c in 0..want.schema().arity() {
        let (g, w) = (got.column(c), want.column(c));
        let same = match (g.data(), w.data()) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a == b,
            (ColumnData::Float(a), ColumnData::Float(b)) => a
                .iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits())),
            (ColumnData::Date(a), ColumnData::Date(b)) => a == b,
            (ColumnData::Str(a), ColumnData::Str(b)) => a == b,
            _ => false,
        };
        assert!(same, "{ctx}: column {c} payload differs");
        assert_eq!(g.nulls().any(), w.nulls().any(), "{ctx}: column {c} mask");
        for r in 0..want.len() {
            assert_eq!(g.is_null(r), w.is_null(r), "{ctx}: NULL at ({r}, {c})");
        }
    }
}

fn boxed_reference(rows: impl IntoIterator<Item = Vec<Value>>) -> Relation {
    let mut rel = Relation::new(wide_schema());
    rel.extend_rows(rows).unwrap();
    rel
}

/// Strings of 0–9 bytes that the memo's one-word key (length and first 7
/// bytes) must tell apart or match. Neighbours differ only in length (a
/// trailing NUL) or only past the seventh byte; multi-byte UTF-8 too.
const SHORT_STRINGS: [&str; 15] = [
    "a",
    "a\0",
    "",
    "\0",
    "ab",
    "ab\0",
    "abcdefg",
    "abcdefg\0",
    "abcdefh",
    "abcdefgh",
    "abcdefgi",
    "abcdefghi",
    "é",
    "e\u{301}",
    "aé",
];

/// Rows for the loader's per-column string memo: the string column draws
/// from `distinct` values — 1, 3, 8 (what the memo holds), 9 (one more)
/// or 700 (far past its miss limit) — in runs of `run` equal values
/// (`run` 1 cycles through all of them, `run` 0 shuffles them), with
/// NULLs between the strings. Every other time the values come from
/// [`SHORT_STRINGS`] (`distinct` capped at its length), from an even place
/// the seed picks, so that two or more of them hold a neighbouring pair.
fn arb_memo_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let distinct = prop_oneof![Just(1usize), Just(3), Just(8), Just(9), Just(700)];
    let args = (
        distinct,
        0usize..40,
        1usize..1500,
        any::<u64>(),
        any::<bool>(),
    );
    args.prop_map(|(distinct, run, n, seed, short)| {
        let distinct = if short {
            distinct.min(SHORT_STRINGS.len())
        } else {
            distinct
        };
        let mut x = seed;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = (x >> 33) as usize;
                let k = i.checked_div(run).unwrap_or(r) % distinct;
                let s = if r.is_multiple_of(5) {
                    Value::Null
                } else if short {
                    Value::str(SHORT_STRINGS[(k + 2 * (seed as usize % 7)) % SHORT_STRINGS.len()])
                } else {
                    Value::str(&format!("memo-{distinct}-{k}"))
                };
                vec![
                    Value::Int(i as i64),
                    Value::Float(r as f64),
                    s,
                    Value::Date(k as i32),
                ]
            })
            .collect()
    })
}

#[derive(Debug, Clone)]
enum SlotOp {
    Append(Vec<Value>),
    Update(usize, Vec<Value>),
    Delete(usize),
}

/// What follows a batch: nothing (the next batch stacks on the staged
/// state), a checkpoint, or a crash and recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
enum After {
    Nothing,
    Checkpoint,
    Crash,
}

fn arb_step() -> impl Strategy<Value = (Vec<SlotOp>, After)> {
    let op = prop_oneof![
        4 => arb_row().prop_map(SlotOp::Append),
        2 => (0usize..64, arb_row()).prop_map(|(t, r)| SlotOp::Update(t, r)),
        2 => (0usize..64).prop_map(SlotOp::Delete),
    ];
    let after = prop_oneof![
        2 => Just(After::Nothing),
        1 => Just(After::Checkpoint),
        1 => Just(After::Crash),
    ];
    (prop::collection::vec(op, 1..12), after)
}

/// `(pid, cell count)` of every heap page, read from the page file plus
/// the log's committed slot records for that page (the replay rule, done
/// by hand) — the reference the slot directory is held to. A checkpoint
/// leaves everything in the file, a crash and recovery everything since
/// the last checkpoint in the log.
fn walk_heap_on_disk(dir: &std::path::Path, meta: &htqo_storage::TableMeta) -> Vec<(u64, u16)> {
    let file = htqo_storage::PageFile::open(&dir.join(&meta.file)).unwrap();
    let scan = wal::scan(&dir.join("db.wal")).unwrap();
    let mut pages = Vec::new();
    for &(start, count) in &meta.heap {
        for pid in start..start + count {
            let mut buf = vec![0u8; PAGE_SIZE];
            if pid < file.pages() {
                file.read(pid, &mut buf).unwrap();
            }
            for rec in &scan.records[..scan.keep] {
                match rec {
                    wal::WalRecord::Slots {
                        file,
                        pid: p,
                        edits,
                    } if *file == meta.file && *p == pid => {
                        wal::apply_edits(&mut buf, edits).unwrap()
                    }
                    wal::WalRecord::Page { .. } => panic!("no checkpoint was killed here"),
                    _ => {}
                }
            }
            pages.push((pid, htqo_storage::page::cell_count(&buf).unwrap()));
        }
    }
    pages
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The slot directory `apply` maintains — across stacked batches,
    /// page-filling appends, tombstones, checkpoints, and a crash that
    /// throws it away — sends every rowid to the page and slot a walk
    /// over the on-disk pages does; and what `load_table` decodes
    /// through a pool of a few pages equals the boxed-row reference of
    /// the model cell for cell.
    #[test]
    fn slot_directory_and_loader_track_the_pages(
        base in prop::collection::vec(arb_row(), 0..40),
        steps in prop::collection::vec(arb_step(), 2..7),
        cache_pages in 1u64..6,
    ) {
        let dir = scratch("slots");
        let storage = StorageDb::open(&dir).unwrap();
        storage.ingest("t", &boxed_reference(base.clone()), &[]).unwrap();
        // Physical slots; `None` is a tombstone.
        let mut model: Vec<Option<Vec<Value>>> = base.into_iter().map(Some).collect();
        let cache = cache_pages * PAGE_SIZE as u64;
        storage.load_table("t", cache, None).unwrap();

        let last = steps.len() - 1;
        for (n, (ops, after)) in steps.into_iter().enumerate() {
            let mut batch = MutationBatch::new("t");
            let mut next = model.clone();
            let mut targets: Vec<usize> = (0..model.len()).filter(|&i| model[i].is_some()).collect();
            for op in ops {
                match op {
                    SlotOp::Append(row) => {
                        batch.append(row.clone());
                        next.push(Some(row));
                    }
                    SlotOp::Update(..) | SlotOp::Delete(_) if targets.is_empty() => {}
                    SlotOp::Update(t, row) => {
                        let rowid = targets[t % targets.len()];
                        batch.update(rowid as u64, row.clone());
                        next[rowid] = Some(row);
                    }
                    SlotOp::Delete(t) => {
                        let rowid = targets.remove(t % targets.len());
                        batch.delete(rowid as u64);
                        next[rowid] = None;
                    }
                }
            }
            match storage.apply(&batch) {
                Ok(meta) => {
                    model = next;
                    prop_assert_eq!(meta.rows, model.iter().flatten().count());
                }
                // An update outgrew its page: the batch is refused whole.
                Err(EvalError::RowDoesNotFit { .. }) => {}
                Err(e) => prop_assert!(false, "step {n}: {e}"),
            }
            let after = if n == last { After::Checkpoint } else { after };
            match after {
                After::Nothing => {}
                After::Checkpoint => storage.checkpoint().unwrap(),
                After::Crash => {
                    storage.simulate_crash();
                    storage.recover().unwrap();
                }
            }

            let ctx = format!("step {n} ({after:?})");
            let (rel, _) = storage.load_table("t", cache, None).unwrap();
            assert_cells_identical(&rel, &boxed_reference(model.iter().flatten().cloned()), &ctx);
            if after == After::Nothing {
                continue;
            }
            let meta = storage.table_meta("t").unwrap();
            let mut rowid = 0u64;
            for (pid, cells) in walk_heap_on_disk(&dir, &meta) {
                for slot in 0..cells {
                    prop_assert_eq!(
                        storage.locate("t", rowid).unwrap(),
                        Some((pid, slot)),
                        "{}: rowid {}", ctx, rowid
                    );
                    rowid += 1;
                }
            }
            prop_assert_eq!(rowid as usize, model.len(), "{}: slots", ctx);
            prop_assert_eq!(storage.locate("t", rowid).unwrap(), None, "{}: past the end", ctx);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `codec::load_row` against the boxed reference it replaced on the
    /// reload path (`decode_row`, then the catalog type check, then
    /// `extend_rows`): the same relation cell for cell — dictionary codes
    /// included, whether a string came from the column's memo or the
    /// dictionary — and for a damaged cell — cut short, padded, an
    /// unknown tag, a value under the wrong column, a flipped byte — the
    /// same error after the same rows. A string refused by a column of
    /// another type never reaches the dictionary.
    #[test]
    fn loader_equals_the_boxed_reference(
        rows in prop_oneof![prop::collection::vec(arb_row(), 1..24), arb_memo_rows()],
        damage in prop::collection::vec((0usize..24, 0u8..5, any::<usize>(), 1u8..=255), 0..3),
    ) {
        let mut cells: Vec<Vec<u8>> = rows.iter().map(|r| codec::encode_row(r)).collect();
        for (row, kind, at, byte) in damage {
            let row = row % cells.len();
            let cell = &mut cells[row];
            match kind {
                0 => cell.truncate(at % cell.len()),
                1 => cell.push(byte),
                2 => cell[0] = 5 + byte % 250,
                3 => {
                    let mut swapped = rows[row].clone();
                    swapped.rotate_left(1 + at % 3);
                    *cell = codec::encode_row(&swapped);
                }
                _ => {
                    let at = at % cell.len().max(1);
                    if let Some(b) = cell.get_mut(at) {
                        *b ^= byte;
                    }
                }
            }
        }

        let schema = wide_schema();
        let reference = |cell: &[u8]| -> Result<Vec<Value>, EvalError> {
            let row = codec::decode_row(cell, schema.arity())?;
            for (v, col) in row.iter().zip(schema.columns()) {
                if !codec::type_matches(v, col.ty) {
                    return Err(EvalError::SpillIo(format!(
                        "table t: column {} holds a value of the wrong type",
                        col.name
                    )));
                }
            }
            Ok(row)
        };
        // The loader goes first, so its memo misses meet strings the
        // dictionary has never seen.
        let mut got = Relation::new(wide_schema());
        let mut loader = got.loader();
        let got_err = cells
            .iter()
            .find_map(|cell| codec::load_row("t", cell, &mut loader).err());

        // Other tests intern concurrently, so a refusal counts when one of
        // a few attempts, each with a string never seen, leaves the
        // dictionary's size as it was — an interning refusal moves it
        // every time.
        static REFUSED: AtomicUsize = AtomicUsize::new(0);
        let untouched = (0..8).any(|_| {
            let s = format!("refused-{}", REFUSED.fetch_add(1, Ordering::Relaxed));
            let cell = codec::encode_row(&[Value::str(&s), Value::Null, Value::Null, Value::Null]);
            let before = htqo_engine::dict::resident_bytes();
            assert!(codec::load_row("t", &cell, &mut loader).is_err());
            let after = htqo_engine::dict::resident_bytes();
            assert_eq!(htqo_engine::dict::reader().code_of(&s), None, "{s} was interned");
            before == after
        });
        prop_assert!(untouched, "a refused string reached the dictionary");
        drop(loader);

        let mut want_err = None;
        let decoded: Vec<Vec<Value>> = cells
            .iter()
            .map_while(|cell| reference(cell).map_err(|e| want_err = Some(e)).ok())
            .collect();
        let want = boxed_reference(decoded);
        prop_assert_eq!(got_err, want_err);
        assert_cells_identical(&got, &want, "loader");
    }
}

// ---------------------------------------------------------------------
// 4. In-place page edits and the slot record
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CellOp {
    Put(usize, Vec<u8>),
    Tombstone(usize),
    Push(Vec<u8>),
}

/// Cells from empty to a fifth of a page: a dozen of them fill a page, so
/// op sequences run into holes, compaction and refusals.
fn arb_cell() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        1 => Just(0usize),
        3 => 1usize..40,
        3 => 40usize..1700,
    ]
    .prop_flat_map(|n| prop::collection::vec(any::<u8>(), n..=n))
}

fn arb_cell_op() -> impl Strategy<Value = CellOp> {
    prop_oneof![
        4 => (0usize..64, arb_cell()).prop_map(|(s, c)| CellOp::Put(s, c)),
        2 => (0usize..64).prop_map(CellOp::Tombstone),
        3 => arb_cell().prop_map(CellOp::Push),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// In-place edits against the reference they replaced on the commit
    /// path: edit the cell list, `rebuild`. Same cells after every op; an
    /// op is refused — page untouched — exactly when the edited list no
    /// longer fits; and a twin page taking the same ops through
    /// `wal::push_edit` / `wal::apply_edits` ends bit-identical.
    #[test]
    fn in_place_edits_equal_rebuild(
        start in prop::collection::vec(arb_cell(), 0..8),
        ops in prop::collection::vec(arb_cell_op(), 1..60),
    ) {
        let mut model: Vec<Vec<u8>> = Vec::new();
        for cell in start {
            if page::page_fits(&model, &cell) {
                model.push(cell);
            }
        }
        let mut page = page::rebuild(&model).unwrap();
        let mut twin = page.clone();
        let (mut compactions, mut refusals) = (0, 0);
        for op in ops {
            let mut next = model.clone();
            let mut edits = Vec::new();
            let slot_of = |s: usize| (s % model.len().max(1)) as u16;
            let (fits, done) = match &op {
                CellOp::Put(s, cell) if !model.is_empty() => {
                    next[slot_of(*s) as usize] = cell.clone();
                    wal::push_edit(&mut edits, wal::SlotOp::Put, slot_of(*s), cell);
                    (true, page::put_cell(&mut page, slot_of(*s), cell))
                }
                CellOp::Tombstone(s) if !model.is_empty() => {
                    next[slot_of(*s) as usize].clear();
                    wal::push_edit(&mut edits, wal::SlotOp::Tombstone, slot_of(*s), &[]);
                    (true, page::tombstone_cell(&mut page, slot_of(*s)))
                }
                // No slot to address: the edit must be refused.
                CellOp::Put(..) | CellOp::Tombstone(_) => {
                    wal::push_edit(&mut edits, wal::SlotOp::Tombstone, 0, &[]);
                    (false, page::tombstone_cell(&mut page, 0))
                }
                CellOp::Push(cell) => {
                    next.push(cell.clone());
                    wal::push_edit(&mut edits, wal::SlotOp::Push, model.len() as u16, cell);
                    (true, page::push_cell(&mut page, cell).map(|_| ()))
                }
            };
            let fits = fits && page::used_bytes(&next) <= PAGE_DATA;
            prop_assert_eq!(done.is_ok(), fits, "{:?}: {:?}", op, done);
            prop_assert_eq!(wal::apply_edits(&mut twin, &edits).is_ok(), fits);
            if fits {
                model = next;
                compactions += usize::from(page == page::rebuild(&model).unwrap());
            } else {
                refusals += 1;
            }
            // A refused op leaves the model, hence the page, as it was.
            prop_assert_eq!(&page::cells(&page).unwrap(), &model);
            prop_assert_eq!(page::page_used_bytes(&page).unwrap(), page::used_bytes(&model));
            prop_assert_eq!(&page, &twin, "replay of the same edits drifted");
        }
        // Not asserted per case (a short sequence may see neither), only
        // kept observable for whoever tunes the generators.
        let _ = (compactions, refusals);
    }
}

/// `len u32 | FxHash checksum u64 | payload` — the WAL's frame, built by
/// hand so the tests below can put any payload behind a valid checksum.
fn wal_frame(payload: &[u8]) -> Vec<u8> {
    use std::hash::{Hash, Hasher};
    let mut h = htqo_engine::hash::FxHasher::default();
    payload.hash(&mut h);
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&h.finish().to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The log of [`crashed_store_with_one_batch`] with its slot record
/// replaced: the header, a slot record for page `pid` of `t.pages`
/// carrying `edits`, the batch's own catalog record, and a commit marker.
fn forged_batch(log: &[u8], pid: u64, edits: &[u8]) -> Vec<u8> {
    let mut payload = vec![4u8];
    payload.extend_from_slice(&7u16.to_le_bytes());
    payload.extend_from_slice(b"t.pages");
    payload.extend_from_slice(&pid.to_le_bytes());
    payload.extend_from_slice(edits);
    let mut out = log[..wal::WAL_HEADER as usize].to_vec();
    out.extend_from_slice(&wal_frame(&payload));
    // The original frames: `len u32 | checksum u64 | tag ...`.
    let mut at = wal::WAL_HEADER as usize;
    while log[at + 12] != 2 {
        at += 12 + u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
    }
    let catalog_len = 12 + u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
    out.extend_from_slice(&log[at..at + catalog_len]);
    let mut commit = vec![3u8];
    commit.extend_from_slice(&1u64.to_le_bytes());
    out.extend_from_slice(&wal_frame(&commit));
    out
}

/// A crashed store whose log holds one committed batch of slot records
/// (an update, a delete, two appends): the directory, the rows before
/// and after that batch, and the log bytes.
fn crashed_store_with_one_batch(label: &str) -> (PathBuf, [Vec<Row>; 2], Vec<u8>) {
    let dir = scratch(label);
    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let mut rel = Relation::new(Schema::new(&[
        ("k", ColumnType::Int),
        ("name", ColumnType::Str),
    ]));
    for i in 0..40i64 {
        rel.push_row(vec![Value::Int(i), Value::str(&format!("row-{i}"))])
            .unwrap();
    }
    storage.ingest("t", &rel, &[]).unwrap();
    let before = rel.to_rows();
    let mut batch = MutationBatch::new("t");
    batch
        .update(
            3,
            vec![Value::Int(-3), Value::str("a longer name than before")],
        )
        .delete(7)
        .append(vec![Value::Int(40), Value::str("appended")])
        .append(vec![Value::Int(41), Value::Null]);
    storage.apply(&batch).unwrap();
    let after = storage.load_table("t", 1 << 20, None).unwrap().0.to_rows();
    storage.simulate_crash();
    let log = std::fs::read(dir.join("db.wal")).unwrap();
    (dir, [before, after], log)
}

/// Recovery over whatever `db.wal` now holds, then the first read of the
/// table: a typed error from either — recovery hands slot records to the
/// pool unread, so one that does not fit its page surfaces when the page
/// is first pinned — or a table that is whole. Returns the recovered rows.
fn recover_whole(dir: &std::path::Path) -> Result<Vec<Row>, EvalError> {
    let storage = StorageDb::open_with(dir, WalPolicy::Commit, u64::MAX).unwrap();
    let loaded = storage
        .recover()
        .and_then(|_| storage.load_table("t", 1 << 20, None));
    match loaded {
        Ok((rel, _)) => Ok(rel.to_rows()),
        Err(e) => {
            assert!(
                matches!(e, EvalError::SpillIo(_) | EvalError::CorruptPage { .. }),
                "untyped recovery error {e:?}"
            );
            Err(e)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A log of slot records cut anywhere or with any one bit flipped
    /// scans to a torn tail and recovers to the state before or after the
    /// batch — never a mix, never a panic.
    #[test]
    fn damaged_slot_records_recover_to_a_batch_boundary(
        at in any::<usize>(),
        bit in proptest::option::of(0u8..8),
    ) {
        let (dir, states, mut log) = crashed_store_with_one_batch("torn");
        let at = at % log.len();
        match bit {
            Some(bit) => log[at] ^= 1 << bit,
            None => log.truncate(at),
        }
        std::fs::write(dir.join("db.wal"), &log).unwrap();
        let scan = wal::scan(&dir.join("db.wal")).unwrap();
        prop_assert!(scan.valid_len <= log.len() as u64);
        let rows = recover_whole(&dir).expect("a damaged tail is tolerated");
        prop_assert!(states.contains(&rows), "partial batch after damage at {}", at);
        if scan.batches() == 1 {
            prop_assert_eq!(&rows, &states[1], "the batch scanned as committed");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Random bytes where the edits of a committed slot record should be:
    /// the scan drops a record that does not parse, and one that parses
    /// either replays onto the page or fails recovery with a typed error.
    #[test]
    fn random_slot_records_never_panic(edits in prop::collection::vec(any::<u8>(), 0..48)) {
        let (dir, _, log) = crashed_store_with_one_batch("random");
        std::fs::write(dir.join("db.wal"), forged_batch(&log, 0, &edits)).unwrap();
        let scan = wal::scan(&dir.join("db.wal")).unwrap();
        prop_assert!(scan.batches() <= 1);
        prop_assert_eq!(scan.batches() == 0, scan.torn_tail);
        let _ = recover_whole(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Invariant 4 of recovery: a slot record that parses but was not logged
/// against the page it names — a slot past the directory, a pushed slot
/// that is taken, a cell the page has no room for, a page past the end of
/// the file — is a typed error that says which, from `recover()` or from
/// the first read of that page, never a panic or a wrong row; and the data
/// file stays as it was.
#[test]
fn replay_of_a_misfit_slot_record_is_a_typed_error() {
    let mut out_of_range = Vec::new();
    wal::push_edit(&mut out_of_range, wal::SlotOp::Put, 4000, b"x");
    let mut taken = Vec::new();
    wal::push_edit(&mut taken, wal::SlotOp::Push, 2, b"x");
    let mut too_long = Vec::new();
    wal::push_edit(
        &mut too_long,
        wal::SlotOp::Put,
        0,
        &vec![0u8; page::MAX_CELL],
    );
    for (pid, edits, what) in [
        (0, out_of_range, "slot out of range"),
        (0, taken.clone(), "pushed slot out of range"),
        (0, too_long, "does not fit"),
        (9, taken, "which has 1 pages"),
    ] {
        let (dir, _, log) = crashed_store_with_one_batch("misfit");
        std::fs::write(dir.join("db.wal"), forged_batch(&log, pid, &edits)).unwrap();
        assert_eq!(wal::scan(&dir.join("db.wal")).unwrap().batches(), 1);
        let pages = std::fs::read(dir.join("t.pages")).unwrap();
        let err = recover_whole(&dir).expect_err(what);
        assert!(format!("{err}").contains(what), "{what}: {err}");
        assert_eq!(std::fs::read(dir.join("t.pages")).unwrap(), pages);
        std::fs::remove_dir_all(&dir).ok();
    }
}
