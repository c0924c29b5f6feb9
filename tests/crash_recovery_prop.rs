//! Crash-injection harness for the WAL-backed storage layer.
//!
//! The headline property: **kill-at-every-crash-point**. For every
//! registered WAL/pager fail-point site and every occurrence index of
//! that site across a run of logged mutation batches, the harness arms
//! the site (torn writes, torn log tails, failed fsyncs), lets the
//! failure fire, simulates a process kill at exactly that moment
//! ([`StorageDb::simulate_crash`] drops every cached page and the WAL's
//! in-memory tail without any write-back), reopens the directory cold,
//! and runs recovery. The recovered table must equal the reference
//! model at a *batch boundary*:
//!
//! - `storage::wal_append` (torn log write): the victim batch never
//!   committed — it must be **absent**;
//! - `storage::wal_fsync` (failed fsync): durability is indeterminate —
//!   the batch must be **committed-or-absent**, never partial (both the
//!   OS-survives sub-case and a simulated power cut that truncates the
//!   un-fsynced tail are checked);
//! - `storage::page_write` (torn data-page write during checkpoint —
//!   repaired from the image the flush logged first),
//!   `storage::write_back` (kill between the image sync and the first
//!   in-place write), `storage::catalog_rename` (catalog files are
//!   written by the checkpoint only — a commit and a restart leave them
//!   alone), `storage::checkpoint`: every batch committed before the
//!   failure — all must be fully **present**.
//!
//! A commit logs **slot records** — the cells it changes — and leaves the
//! page files alone, and so does a restart: recovery hands the log's
//! records back to the pools and keeps the log. The tables here span
//! several heap pages and are mutated and reloaded through a two-frame
//! pool: every batch evicts frames whose committed cells no file holds
//! yet, and the model is held to them slot by slot after each recovery.
//!
//! No case may ever observe a partial batch, a lost committed batch, or
//! a corrupt row. On top of the matrix: the write-back rule by fail-point
//! order (no page file byte changes before the image of that page is
//! durable — the checkpoint; eviction and recovery write nothing), a
//! restart chain (rounds of commits and kills with no checkpoint between
//! them: recovery leaves every file byte-identical, syncs nothing, and
//! the log spans the rounds until one checkpoint empties it), the orphan
//! tail (the remains of a killed batch are cut before the next commit is
//! appended, which therefore never adopts them), every fail point armed
//! *inside* recovery (only the in-place write of an imaged page can
//! fire; recover again and the state is the same), page images honoured
//! in an uncommitted log tail, a log of the version-0 format (page
//! images inside their batches) and a log written by the parent commit
//! (slot records it never redid) under all three policies, commits that
//! never saw a checkpoint (stale catalog file on disk; recovery stages
//! the logged entry, the checkpoint writes it once per table), torn-tail
//! tolerance, the catalog-rename temp-file cleanup regression, and a
//! warm-restart query oracle (a join over recovered tables must equal
//! the same join over the in-memory model).
//!
//! Case count per property is `HTQO_CRASH_CASES` (default 12; CI uses a
//! deterministic small count).

#![cfg(feature = "failpoints")]

use htqo_engine::failpoint::{self, FailAction};
use htqo_engine::schema::{ColumnType, Schema};
use htqo_engine::vrel::nested_loop_join;
use htqo_engine::{Budget, Relation, Row, VRelation, Value};
use htqo_storage::{MutationBatch, RecoveryReport, StorageDb, WalPolicy, PAGE_SIZE};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The fail-point registry is process-global: crash cases must not
/// interleave across test threads.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn cases() -> u32 {
    std::env::var("HTQO_CRASH_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

fn scratch(label: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "htqo-crash-{}-{label}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

// ---------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------

/// A table as a vector of physical slots — `None` is a tombstone. Rowids
/// are slot positions, exactly the storage layer's addressing.
#[derive(Clone, Debug, PartialEq)]
struct ModelTable {
    slots: Vec<Option<Vec<Value>>>,
}

impl ModelTable {
    fn new(rows: Vec<Vec<Value>>) -> Self {
        ModelTable {
            slots: rows.into_iter().map(Some).collect(),
        }
    }

    fn live_rowids(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// The live rows in rowid order — what `load_table` must produce.
    fn rows(&self) -> Vec<Row> {
        self.slots
            .iter()
            .filter_map(|s| s.clone().map(Vec::into_boxed_slice))
            .collect()
    }

    fn relation(&self) -> Relation {
        let mut rel = Relation::new(schema());
        for row in self.rows() {
            rel.push_row(row.into_vec()).unwrap();
        }
        rel
    }
}

fn schema() -> Schema {
    Schema::new(&[("k", ColumnType::Int), ("name", ColumnType::Str)])
}

/// A row for physical slot `rowid`. The name is the tag padded to a width
/// that depends on the slot alone — 8 to 608 bytes — so forty rows span
/// several heap pages, and every version of a slot has the same length
/// (an update never outgrows its page; growth is `storage_prop`'s).
fn row_at(rowid: usize, k: i64, tag: &str) -> Vec<Value> {
    let width = 8 + (rowid % 5) * 150;
    vec![Value::Int(k), Value::str(&format!("{tag:<width$}"))]
}

/// A row outside the slot model (targeted regressions count rows only).
fn row(k: i64, tag: &str) -> Vec<Value> {
    vec![Value::Int(k), Value::str(tag)]
}

/// One abstract mutation; rowids are resolved against the model when the
/// batch is built, so generated cases are always valid.
#[derive(Clone, Debug)]
enum AbstractOp {
    Append(i64),
    Update(usize, i64),
    Delete(usize),
}

fn arb_op() -> impl Strategy<Value = AbstractOp> {
    prop_oneof![
        4 => (0i64..100).prop_map(AbstractOp::Append),
        3 => ((0usize..64), 0i64..100).prop_map(|(t, k)| AbstractOp::Update(t, k)),
        2 => (0usize..64).prop_map(AbstractOp::Delete),
    ]
}

/// Resolves a batch against `model`, applying it to a clone. Returns the
/// concrete batch plus the model state it produces. Update/delete
/// targets are resolved against the *pre-batch* slots (batch rowids
/// address the table state before the batch, per `StorageDb::apply`),
/// skipping slots already deleted earlier in the same batch.
fn build_batch(
    table: &str,
    batch_no: usize,
    ops: &[AbstractOp],
    model: &ModelTable,
) -> (MutationBatch, ModelTable) {
    let mut batch = MutationBatch::new(table);
    let mut next = model.clone();
    // Pre-batch live slots still targetable (shrinks as the batch
    // deletes them).
    let mut targets = model.live_rowids();
    for (i, op) in ops.iter().enumerate() {
        let tag = format!("b{batch_no}.{i}");
        match op {
            AbstractOp::Append(k) => {
                let appended = row_at(next.slots.len(), *k, &tag);
                batch.append(appended.clone());
                next.slots.push(Some(appended));
            }
            AbstractOp::Update(t, _) | AbstractOp::Delete(t) => {
                if targets.is_empty() {
                    continue; // every pre-batch slot deleted: skip
                }
                let pick = t % targets.len();
                let rowid = targets[pick];
                match op {
                    AbstractOp::Update(_, k) => {
                        let updated = row_at(rowid as usize, *k, &tag);
                        batch.update(rowid, updated.clone());
                        next.slots[rowid as usize] = Some(updated);
                    }
                    AbstractOp::Delete(_) => {
                        batch.delete(rowid);
                        next.slots[rowid as usize] = None;
                        targets.remove(pick);
                    }
                    AbstractOp::Append(_) => unreachable!(),
                }
            }
        }
    }
    (batch, next)
}

/// One randomly generated crash workload: base rows plus a run of
/// mutation batches.
#[derive(Clone, Debug)]
struct Workload {
    base: Vec<i64>,
    batches: Vec<Vec<AbstractOp>>,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        prop::collection::vec(0i64..100, 1..40),
        prop::collection::vec(prop::collection::vec(arb_op(), 1..8), 3..4),
    )
        .prop_map(|(base, batches)| Workload { base, batches })
}

fn base_model(base: &[i64]) -> ModelTable {
    ModelTable::new(
        base.iter()
            .enumerate()
            .map(|(i, &k)| row_at(i, k, &format!("base{i}")))
            .collect(),
    )
}

/// A store holding `model` as table `t`, read once through a two-frame
/// pool: the pool every later batch on `t` goes through.
fn ingest_small_pool(dir: &std::path::Path, policy: WalPolicy, model: &ModelTable) -> StorageDb {
    let storage = StorageDb::open_with(dir, policy, u64::MAX).unwrap();
    storage.ingest("t", &model.relation(), &[]).unwrap();
    storage.load_table("t", 2 * PAGE_SIZE as u64, None).unwrap();
    storage
}

/// Applies every batch of `w` to `storage` and returns the model after
/// the last one.
fn apply_all(storage: &StorageDb, w: &Workload, mut model: ModelTable) -> ModelTable {
    for (i, ops) in w.batches.iter().enumerate() {
        let (batch, next) = build_batch("t", i, ops, &model);
        storage.apply(&batch).unwrap();
        model = next;
    }
    model
}

/// The bytes of every page file in `dir`, by name.
fn page_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "pages"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The bytes of every file in `dir` — page files, catalog files, the log
/// — by name.
fn dir_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    let file = |e: std::io::Result<std::fs::DirEntry>| {
        let path = e.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        (name, std::fs::read(&path).unwrap())
    };
    std::fs::read_dir(dir).unwrap().map(file).collect()
}

fn wal_len(dir: &std::path::Path) -> u64 {
    std::fs::metadata(dir.join("db.wal")).map_or(0, |m| m.len())
}

/// Opens a cold handle on `dir`, runs recovery, and returns the loaded
/// rows of table `t` (rowid order).
fn recover_and_load(dir: &std::path::Path, policy: WalPolicy) -> Vec<Row> {
    recover_report_and_load(dir, policy).1
}

/// [`recover_and_load`], with what the recovery pass reported.
fn recover_report_and_load(dir: &std::path::Path, policy: WalPolicy) -> (RecoveryReport, Vec<Row>) {
    let storage = StorageDb::open_with(dir, policy, u64::MAX).unwrap();
    let report = storage.recover().unwrap();
    let (rel, _) = storage.load_table("t", 1 << 22, None).unwrap();
    (report, rel.to_rows())
}

// ---------------------------------------------------------------------
// The kill-at-every-crash-point matrix
// ---------------------------------------------------------------------

/// What the recovered state must look like relative to the victim batch.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Outcome {
    /// The batch never committed: recovered state excludes it.
    Absent,
    /// The batch committed before the failure: recovered state includes
    /// it in full.
    Present,
    /// Durability indeterminate (failed fsync): either state is legal,
    /// a mix is not.
    Either,
}

/// Sites that fire *during `apply`*, with the batch-boundary outcome a
/// crash at that point must produce.
const APPLY_SITES: &[(&str, Outcome)] = &[
    ("storage::wal_append", Outcome::Absent),
    ("storage::wal_fsync", Outcome::Either),
];

fn assert_committed_prefix(
    recovered: &[Row],
    without: &ModelTable,
    with: &ModelTable,
    outcome: Outcome,
    ctx: &str,
) {
    let rows_without = without.rows();
    let rows_with = with.rows();
    match outcome {
        Outcome::Absent => assert_eq!(recovered, &rows_without[..], "{ctx}: batch must be absent"),
        Outcome::Present => assert_eq!(recovered, &rows_with[..], "{ctx}: batch must be present"),
        Outcome::Either => assert!(
            recovered == &rows_without[..] || recovered == &rows_with[..],
            "{ctx}: recovered state is neither the pre- nor the post-batch state \
             (partial batch visible)"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// For every apply-time crash site, every victim batch index, and
    /// both fsync policies: crash + recovery restores exactly the
    /// committed prefix of the batch run.
    #[test]
    fn kill_at_every_apply_crash_point_recovers_committed_prefix(w in arb_workload()) {
        let _g = lock();
        for &(site, outcome) in APPLY_SITES {
            for policy in [WalPolicy::Commit, WalPolicy::Batch] {
                // Under `batch` (group commit) the per-commit fsync only
                // fires on the group boundary; with fewer commits than
                // the group size the site stays dormant and the batch
                // simply commits — the "present" outcome covers it.
                let site_may_be_dormant =
                    policy == WalPolicy::Batch && site == "storage::wal_fsync";
                for victim in 0..w.batches.len() {
                    failpoint::clear();
                    let dir = scratch("matrix");
                    let mut model = base_model(&w.base);
                    let storage = ingest_small_pool(&dir, policy, &model);

                    // Apply the prefix clean, then arm the site for the
                    // victim batch (one shot).
                    let mut failed = false;
                    let mut before = model.clone();
                    for (i, ops) in w.batches.iter().enumerate() {
                        let (batch, next) = build_batch("t", i, ops, &model);
                        if i == victim {
                            failpoint::configure(site, FailAction::Error, 0, Some(1));
                        }
                        let res = storage.apply(&batch);
                        if i == victim {
                            failpoint::clear();
                            before = model.clone();
                            if res.is_err() {
                                failed = true;
                                model = next; // the "with" state for Either/Present
                                break;
                            }
                        }
                        prop_assert!(res.is_ok(), "clean apply failed: {res:?}");
                        model = next;
                    }
                    if !failed {
                        prop_assert!(
                            site_may_be_dormant,
                            "site {site} never fired for victim {victim}"
                        );
                        // Dormant site: everything committed; fall
                        // through and assert full presence.
                        before = model.clone();
                    }

                    // The kill: no write-back, no catalog fix-up.
                    storage.simulate_crash();
                    drop(storage);

                    let recovered = recover_and_load(&dir, policy);
                    let ctx = format!("{site} victim={victim} policy={policy:?}");
                    let effective = if failed { outcome } else { Outcome::Present };
                    assert_committed_prefix(&recovered, &before, &model, effective, &ctx);

                    // Failed-fsync power-cut sub-case: the un-fsynced
                    // tail vanishes — the batch must then be absent.
                    if failed && site == "storage::wal_fsync" && policy == WalPolicy::Commit {
                        // Recovery settled the victim's fate in this log
                        // (adopted with its marker, or cut): the power
                        // cut needs the *pre-crash* file, so the sub-case
                        // runs on a fresh directory instead.
                        let dir2 = scratch("powercut");
                        let mut model2 = base_model(&w.base);
                        let storage = ingest_small_pool(&dir2, policy, &model2);
                        let mut before2 = model2.clone();
                        let mut tail_start = 0u64;
                        for (i, ops) in w.batches.iter().enumerate() {
                            let (batch, next) = build_batch("t", i, ops, &model2);
                            if i == victim {
                                tail_start = wal_len(&dir2);
                                failpoint::configure(site, FailAction::Error, 0, Some(1));
                            }
                            let res = storage.apply(&batch);
                            if i == victim {
                                failpoint::clear();
                                before2 = model2.clone();
                                prop_assert!(res.is_err());
                                model2 = next;
                                break;
                            }
                            prop_assert!(res.is_ok());
                            model2 = next;
                        }
                        storage.simulate_crash();
                        drop(storage);
                        // The power cut: everything past the last
                        // durable (fsynced) offset is lost.
                        let f = std::fs::OpenOptions::new()
                            .write(true)
                            .open(dir2.join("db.wal"))
                            .unwrap();
                        f.set_len(tail_start).unwrap();
                        drop(f);
                        let recovered = recover_and_load(&dir2, policy);
                        assert_committed_prefix(
                            &recovered,
                            &before2,
                            &model2,
                            Outcome::Absent,
                            &format!("{ctx} power-cut"),
                        );
                        std::fs::remove_dir_all(&dir2).ok();
                    }
                    std::fs::remove_dir_all(&dir).ok();
                }
            }
        }
    }

    /// Crash points *inside checkpoint*: the flush's own log traffic
    /// (`storage::wal_append`, `storage::wal_fsync` — the images), the
    /// window between the image sync and the first in-place write
    /// (`storage::write_back`), a torn data-page write
    /// (`storage::page_write`, half the page lands) at every page index,
    /// the catalog rename that follows the flush
    /// (`storage::catalog_rename`), and the flush-to-truncate window
    /// (`storage::checkpoint`). All batches committed beforehand, so
    /// recovery must restore every one of them — a torn page from the
    /// image the flush logged for it, the rest from the file and the slot
    /// records, and over already-flushed pages alike (redo idempotence).
    #[test]
    fn kill_inside_checkpoint_loses_nothing(w in arb_workload()) {
        let _g = lock();
        for site in [
            "storage::wal_append",
            "storage::wal_fsync",
            "storage::write_back",
            "storage::page_write",
            "storage::catalog_rename",
            "storage::checkpoint",
        ] {
            for skip in 0..3u64 {
                failpoint::clear();
                let dir = scratch("ckpt");
                let policy = WalPolicy::Commit;
                let base = base_model(&w.base);
                let storage = ingest_small_pool(&dir, policy, &base);
                let model = apply_all(&storage, &w, base);
                let files_before = page_files(&dir);
                failpoint::configure(site, FailAction::Error, skip, Some(1));
                let res = storage.checkpoint();
                failpoint::clear();
                // With few dirty pages (or the one staged catalog) a
                // large skip leaves the site dormant and the checkpoint
                // succeeds — also a valid state to crash from.
                prop_assert!(res.is_err() || skip > 0, "{} never fired", site);
                if res.is_err() && site != "storage::page_write" && skip == 0 {
                    // The write-back rule: the log traffic and the sync
                    // come first, so a failure up to and including
                    // `storage::write_back` has touched no page file.
                    let touched = page_files(&dir) != files_before;
                    let after_writes = matches!(site, "storage::catalog_rename" | "storage::checkpoint");
                    prop_assert_eq!(touched, after_writes, "{}", site);
                }
                storage.simulate_crash();
                drop(storage);
                let (report, recovered) = recover_report_and_load(&dir, policy);
                prop_assert_eq!(
                    &recovered,
                    &model.rows(),
                    "{} skip={}: committed batches lost or torn",
                    site,
                    skip
                );
                if res.is_err() && site == "storage::page_write" {
                    prop_assert!(report.images_restored > 0, "torn page not restored from its image");
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    /// Recovery idempotence, with every fail point armed *inside* it. Over
    /// a log of slot records recovery reaches none of them — it appends
    /// nothing, syncs nothing, writes no page and renames no catalog — so
    /// the log here also holds images, left by a checkpoint killed at its
    /// first torn page write or just before its truncation: then the
    /// in-place write of an imaged page (`storage::write_back`,
    /// `storage::page_write`) is the one thing that can fail. Whatever
    /// happens to the first attempt, a second recovery lands in the
    /// committed state, and neither changes a byte of the log.
    #[test]
    fn crash_during_recovery_then_recover_again_is_idempotent(w in arb_workload()) {
        let _g = lock();
        for killed_at in ["storage::page_write", "storage::checkpoint"] {
            for (site, skip) in [
                ("storage::wal_append", 0),
                ("storage::wal_fsync", 0),
                ("storage::write_back", 0),
                ("storage::page_write", 0),
                ("storage::page_write", 1),
                ("storage::catalog_rename", 0),
                ("storage::checkpoint", 0),
            ] {
                failpoint::clear();
                let dir = scratch("idem");
                let policy = WalPolicy::Commit;
                let base = base_model(&w.base);
                let storage = ingest_small_pool(&dir, policy, &base);
                let model = apply_all(&storage, &w, base);
                failpoint::configure(killed_at, FailAction::Error, 0, Some(1));
                prop_assert!(storage.checkpoint().is_err(), "{} never fired", killed_at);
                failpoint::clear();
                storage.simulate_crash();
                drop(storage);
                let log = std::fs::read(dir.join("db.wal")).unwrap();

                // First recovery attempt, with the site armed.
                let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
                failpoint::configure(site, FailAction::Error, skip, Some(1));
                let res = storage.recover();
                failpoint::clear();
                if !matches!(site, "storage::write_back" | "storage::page_write") {
                    prop_assert!(res.is_ok(), "{} reached in recovery: {:?}", site, res);
                } else if skip == 0 {
                    // (A workload that dirtied a single page has no second
                    // page write to tear.)
                    prop_assert!(res.is_err(), "{} never fired in recovery", site);
                }
                if let Ok(report) = &res {
                    prop_assert!(report.pages_written > 0 && report.images_restored > 0);
                    prop_assert_eq!(storage.wal_stats().fsyncs, 0, "{}", site);
                }
                storage.simulate_crash();
                drop(storage);

                // Second recovery: the same records, the same images — over
                // the page the first attempt tore, too.
                let (report, recovered) = recover_report_and_load(&dir, policy);
                prop_assert_eq!(&recovered, &model.rows(), "double recovery drifted ({})", site);
                prop_assert!(report.images_restored > 0, "{}: torn page not restored", site);
                prop_assert_eq!(&std::fs::read(dir.join("db.wal")).unwrap(), &log, "{}", site);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    /// The restart chain: rounds of random batches, each ended by a kill
    /// and a cold recovery, with **no** checkpoint in between — every
    /// reload through a two-frame pool equals the slot-level model, every
    /// recovery leaves every file of the directory byte-identical and
    /// syncs nothing, and the log spans all rounds so far. Then one
    /// checkpoint brings the files up to date, leaves a header-only log,
    /// and the restart after it reports no work.
    #[test]
    fn a_restart_chain_reads_the_log_and_rewrites_nothing(
        base in prop::collection::vec(0i64..100, 1..40),
        rounds in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(arb_op(), 1..8), 1..3),
            2..8,
        ),
    ) {
        let _g = lock();
        failpoint::clear();
        let dir = scratch("chain");
        let policy = WalPolicy::Commit;
        let mut model = base_model(&base);
        drop(ingest_small_pool(&dir, policy, &model));
        let at_ingest = page_files(&dir);
        let (mut batches, mut batch_no) = (0u64, 0);
        for round in &rounds {
            let crashed = dir_files(&dir);
            let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
            let report = storage.recover().unwrap();
            prop_assert_eq!(&dir_files(&dir), &crashed, "recovery wrote a file");
            prop_assert_eq!(storage.wal_stats().fsyncs, 0);
            prop_assert_eq!((report.batches_replayed, report.pages_written), (batches, 0));
            prop_assert_eq!(report.kept_bytes > 0, batches > 0);
            let (rel, _) = storage.load_table("t", 2 * PAGE_SIZE as u64, None).unwrap();
            prop_assert_eq!(&rel.to_rows(), &model.rows(), "after {} batches", batches);
            for ops in round {
                let (batch, next) = build_batch("t", batch_no, ops, &model);
                batch_no += 1;
                if !batch.is_empty() {
                    storage.apply(&batch).unwrap();
                    batches += 1;
                }
                model = next;
            }
            prop_assert!(wal_len(&dir) >= crashed.get("db.wal").map_or(0, |log| log.len() as u64));
            storage.simulate_crash();
        }

        let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
        prop_assert_eq!(storage.recover().unwrap().batches_replayed, batches);
        prop_assert_eq!(&page_files(&dir), &at_ingest, "no round wrote a page");
        storage.checkpoint().unwrap();
        prop_assert_eq!(wal_len(&dir), htqo_storage::wal::WAL_HEADER);
        prop_assert_eq!(page_files(&dir) != at_ingest, batches > 0);
        storage.simulate_crash();
        drop(storage);
        let (report, rows) = recover_report_and_load(&dir, policy);
        prop_assert!(!report.did_work(), "{:?}", report);
        prop_assert_eq!(&rows, &model.rows());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The orphan tail: a batch killed mid-append leaves whole slot
    /// records and a torn frame behind the last commit marker (killed at
    /// its fsync it is in the log whole — committed or, after a power cut,
    /// absent). Recovery cuts what did not commit *before* the log takes
    /// another record, so the different batch committed next is the only
    /// thing its marker commits: after one more kill and recovery the
    /// killed batch's edits are absent and the later batch's present.
    #[test]
    fn an_orphan_tail_is_never_adopted_by_the_next_commit(w in arb_workload()) {
        let _g = lock();
        for (site, power_cut) in [
            ("storage::wal_append", false),
            ("storage::wal_fsync", false),
            ("storage::wal_fsync", true),
        ] {
            failpoint::clear();
            let dir = scratch("orphan-tail");
            let policy = WalPolicy::Commit;
            let base = base_model(&w.base);
            let storage = ingest_small_pool(&dir, policy, &base);
            let (first, before) = build_batch("t", 0, &w.batches[0], &base);
            storage.apply(&first).unwrap();
            let durable = wal_len(&dir);
            let (victim, with_victim) = build_batch("t", 1, &w.batches[1], &before);
            failpoint::configure(site, FailAction::Error, 0, Some(1));
            let res = storage.apply(&victim);
            failpoint::clear();
            prop_assert!(res.is_err() || victim.is_empty(), "{} never fired", site);
            storage.simulate_crash();
            drop(storage);
            if power_cut {
                let log = std::fs::OpenOptions::new().write(true).open(dir.join("db.wal"));
                log.unwrap().set_len(durable).unwrap();
            }

            let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
            let report = storage.recover().unwrap();
            let scan = htqo_storage::wal::scan(&dir.join("db.wal")).unwrap();
            prop_assert!(!scan.torn_tail && scan.dropped_records == 0, "{}: tail not cut", site);
            prop_assert_eq!(scan.keep_len, wal_len(&dir));
            let (rel, _) = storage.load_table("t", 2 * PAGE_SIZE as u64, None).unwrap();
            let survived = rel.to_rows() == with_victim.rows() && report.batches_replayed == 2;
            if site == "storage::wal_append" || power_cut {
                prop_assert!(!survived || with_victim == before, "{}: victim must be absent", site);
            }
            let model = if survived { with_victim } else { before };
            prop_assert_eq!(&rel.to_rows(), &model.rows(), "{}: partial batch", site);

            // A different batch, staged against the recovered state.
            let (later, after) = build_batch("t", 2, &w.batches[2], &model);
            storage.apply(&later).unwrap();
            storage.simulate_crash();
            drop(storage);
            let (report, rows) = recover_report_and_load(&dir, policy);
            prop_assert_eq!(&rows, &after.rows(), "{}: the orphan was adopted", site);
            prop_assert_eq!(report.dropped_records, 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Warm-restart query oracle: after mutations, a crash, and
    /// recovery, a join over the recovered tables is bit-identical to
    /// the same join over the in-memory model.
    #[test]
    fn recovered_join_matches_in_memory_oracle(w in arb_workload()) {
        let _g = lock();
        let dir = scratch("oracle");
        let policy = WalPolicy::Commit;
        let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
        let mut model = base_model(&w.base);
        storage.ingest("t", &model.relation(), &[]).unwrap();
        // A second, immutable table sharing the join key column.
        let mut other = Relation::new(Schema::new(&[
            ("k", ColumnType::Int),
            ("w", ColumnType::Int),
        ]));
        for k in 0..100i64 {
            other.push_row(vec![Value::Int(k), Value::Int(k * k)]).unwrap();
        }
        storage.ingest("u", &other, &["k"]).unwrap();
        for (i, ops) in w.batches.iter().enumerate() {
            let (batch, next) = build_batch("t", i, ops, &model);
            storage.apply(&batch).unwrap();
            model = next;
        }
        storage.simulate_crash();
        drop(storage);

        let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
        let db = storage.load_database(1 << 22, None).unwrap();
        let vrel = |rel: &Relation, cols: &[&str]| {
            VRelation::from_rows(cols.iter().map(|c| c.to_string()).collect(), rel.to_rows())
        };
        let mut b = Budget::unlimited();
        let joined = nested_loop_join(
            &vrel(db.table("t").unwrap(), &["k", "name"]),
            &vrel(db.table("u").unwrap(), &["k", "w"]),
            &mut b,
        )
        .unwrap();
        let oracle = nested_loop_join(
            &vrel(&model.relation(), &["k", "name"]),
            &vrel(&other, &["k", "w"]),
            &mut Budget::unlimited(),
        )
        .unwrap();
        prop_assert_eq!(joined.sorted_rows(), oracle.sorted_rows());
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Targeted regressions
// ---------------------------------------------------------------------

/// A torn WAL tail (garbage appended by a crash mid-write) is tolerated:
/// recovery reports it, keeps every committed batch, and cuts the log
/// back to health.
#[test]
fn torn_wal_tail_is_reported_and_survived() {
    let _g = lock();
    failpoint::clear();
    let dir = scratch("torntail");
    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let model = base_model(&[1, 2, 3]);
    storage.ingest("t", &model.relation(), &[]).unwrap();
    let meta = storage.append_rows("t", vec![row(9, "x")]).unwrap();
    assert_eq!(meta.rows, 4);
    storage.simulate_crash();
    drop(storage);

    // The crash tears the log mid-record.
    let committed = wal_len(&dir);
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("db.wal"))
        .unwrap();
    f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    drop(f);

    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let report = storage.recover().unwrap();
    assert!(report.torn_tail, "the torn tail must be reported");
    assert!(report.batches_replayed >= 1);
    assert_eq!(wal_len(&dir), committed, "and cut, the batch in front kept");
    let (rel, _) = storage.load_table("t", 1 << 22, None).unwrap();
    assert_eq!(rel.len(), 4, "committed batch survived the tear");
    // The log is healthy again: further mutations commit and recover.
    storage.append_rows("t", vec![row(10, "y")]).unwrap();
    storage.simulate_crash();
    drop(storage);
    let rows = recover_and_load(&dir, WalPolicy::Commit);
    assert_eq!(rows.len(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

/// The write-back rule at eviction: a commit hands its cells to the pool
/// and the log and to nothing else. Batches through a two-frame pool
/// over a table of several pages evict frames whose cells no file holds;
/// the page file stays byte-identical to its ingest, readers still see
/// every committed row, and the first bytes to change are the
/// checkpoint's — behind one logged image per changed page.
#[test]
fn eviction_writes_nothing_and_the_checkpoint_logs_images_first() {
    let _g = lock();
    failpoint::clear();
    let dir = scratch("evict");
    let mut model = base_model(&(0..80).collect::<Vec<i64>>());
    let storage = ingest_small_pool(&dir, WalPolicy::Commit, &model);
    let at_ingest = page_files(&dir);
    assert!(at_ingest[0].1.len() >= 3 * PAGE_SIZE, "several heap pages");
    for i in 0..6 {
        let ops: Vec<AbstractOp> = (0..8)
            .map(|j| match j % 3 {
                0 => AbstractOp::Append(j as i64),
                1 => AbstractOp::Update(7 * i + 5 * j, i as i64),
                _ => AbstractOp::Delete(11 * i + 3 * j),
            })
            .collect();
        let (batch, next) = build_batch("t", i, &ops, &model);
        storage.apply(&batch).unwrap();
        model = next;
        let (rel, _) = storage.load_table("t", 2 * PAGE_SIZE as u64, None).unwrap();
        assert_eq!(rel.to_rows(), model.rows(), "batch {i} through two frames");
    }
    assert_eq!(
        page_files(&dir),
        at_ingest,
        "a commit or an eviction wrote a page"
    );
    let logged = storage.wal_stats();
    assert_eq!((logged.commits, logged.image_bytes), (6, 0));
    assert!(logged.slot_bytes > 0 && logged.slot_bytes < 6 * PAGE_SIZE as u64);

    storage.checkpoint().unwrap();
    let after = page_files(&dir);
    let changed = (after[0]
        .1
        .chunks(PAGE_SIZE)
        .zip(at_ingest[0].1.chunks(PAGE_SIZE)))
    .filter(|(a, b)| a != b)
    .count()
        + (after[0].1.len() - at_ingest[0].1.len()) / PAGE_SIZE;
    let images = storage.wal_stats().image_bytes;
    assert!(changed >= 3, "{changed} pages changed");
    assert_eq!(
        images / PAGE_SIZE as u64,
        changed as u64,
        "one image per page"
    );
    storage.simulate_crash();
    drop(storage);
    let (report, rows) = recover_report_and_load(&dir, WalPolicy::Commit);
    assert_eq!(rows, model.rows());
    assert_eq!(
        report.pages_redone, 0,
        "the checkpoint left nothing to redo"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Page images count wherever they sit in the log. A checkpoint killed
/// after its image sync leaves them behind the last commit marker; the
/// store keeps committing, and then a batch is torn mid-append — so the
/// log ends images, a committed batch, an uncommitted tail. Recovery
/// starts those pages from their images, replays the committed batch on
/// top, and the torn batch is absent whole.
#[test]
fn images_in_an_uncommitted_tail_are_honoured() {
    let _g = lock();
    for torn_site in ["storage::wal_append", "storage::wal_fsync"] {
        failpoint::clear();
        let dir = scratch("tailimg");
        let policy = WalPolicy::Commit;
        let mut model = base_model(&(0..40).collect::<Vec<i64>>());
        let storage = ingest_small_pool(&dir, policy, &model);
        let batches = [
            vec![
                AbstractOp::Update(3, 1),
                AbstractOp::Delete(17),
                AbstractOp::Append(5),
            ],
            vec![
                AbstractOp::Update(3, 2),
                AbstractOp::Update(29, 2),
                AbstractOp::Append(6),
            ],
            vec![
                AbstractOp::Delete(4),
                AbstractOp::Update(30, 3),
                AbstractOp::Append(7),
            ],
        ];
        let apply = |i: usize, model: &ModelTable| {
            let (batch, next) = build_batch("t", i, &batches[i], model);
            (storage.apply(&batch), next)
        };
        let (res, next) = apply(0, &model);
        res.unwrap();
        model = next;
        failpoint::configure("storage::write_back", FailAction::Error, 0, Some(1));
        assert!(storage.checkpoint().is_err());
        failpoint::clear();
        let (res, next) = apply(1, &model);
        res.unwrap();
        model = next;
        failpoint::configure(torn_site, FailAction::Error, 0, Some(1));
        let (res, with_torn) = apply(2, &model);
        failpoint::clear();
        assert!(res.is_err(), "{torn_site} never fired");
        storage.simulate_crash();
        drop(storage);

        let (report, rows) = recover_report_and_load(&dir, policy);
        assert!(report.images_restored > 0, "{torn_site}: images ignored");
        assert!(report.slot_records_redone > 0);
        if torn_site == "storage::wal_append" {
            assert_eq!(report.batches_replayed, 2);
            assert_eq!(rows, model.rows(), "torn batch must be absent");
        } else {
            assert!(
                rows == model.rows() || rows == with_torn.rows(),
                "partial batch"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Slot records replay onto the page state the batches before them left,
/// so a batch whose commit could not be synced — in the log for all the
/// store knows, absent from the pool — must be the last thing the log
/// takes: the next batch is refused instead of being staged against a
/// pool that lacks it, and recovery then settles the batch either way.
#[test]
fn a_failed_commit_sync_stops_the_log_until_recovery() {
    let _g = lock();
    failpoint::clear();
    let dir = scratch("syncfail");
    let policy = WalPolicy::Commit;
    let model = base_model(&(0..40).collect::<Vec<i64>>());
    let storage = ingest_small_pool(&dir, policy, &model);
    let appends = [AbstractOp::Append(1), AbstractOp::Append(2)];
    let (batch, with_batch) = build_batch("t", 0, &appends, &model);
    failpoint::configure("storage::wal_fsync", FailAction::Error, 0, Some(1));
    assert!(storage.apply(&batch).is_err());
    failpoint::clear();
    let (rel, _) = storage.load_table("t", 1 << 22, None).unwrap();
    assert_eq!(rel.to_rows(), model.rows(), "readers never saw the batch");
    let (again, _) = build_batch("t", 1, &appends, &model);
    let refused = storage.apply(&again).unwrap_err();
    assert!(format!("{refused}").contains("poisoned"), "{refused}");
    storage.simulate_crash();
    drop(storage);

    // The OS kept the bytes here, so recovery finds the batch committed
    // — once, with nothing stacked on a state that lacked it.
    let (report, rows) = recover_report_and_load(&dir, policy);
    assert_eq!(report.batches_replayed, 1);
    assert_eq!(rows, with_batch.rows());
    let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
    let (batch, next) = build_batch("t", 2, &appends, &with_batch);
    storage.apply(&batch).unwrap();
    storage.simulate_crash();
    drop(storage);
    assert_eq!(recover_and_load(&dir, policy), next.rows());
    std::fs::remove_dir_all(&dir).ok();
}

/// A log written by the parent commit — format version 0: one full page
/// image per touched page inside each batch, no slot records (the store
/// under `tests/fixtures/wal_v0`: three rows ingested, two batches, kill)
/// — recovers to the same table under every policy. Cut inside its last
/// commit marker, the second batch's image is complete and valid on its
/// own checksum, yet belongs to a batch that never committed: it must
/// not be replayed.
#[test]
fn a_log_of_the_previous_format_recovers_under_every_policy() {
    let _g = lock();
    failpoint::clear();
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal_v0");
    let rows = |rows: &[(i64, &str)]| -> Vec<Row> {
        rows.iter()
            .map(|(k, n)| row(*k, n).into_boxed_slice())
            .collect()
    };
    let after_one = rows(&[(7, "u"), (2, "base1"), (3, "base2"), (9, "x")]);
    let after_two = rows(&[(7, "u"), (3, "base2"), (9, "x"), (10, "y")]);
    for policy in [WalPolicy::Commit, WalPolicy::Batch, WalPolicy::Off] {
        for (cut, want) in [(0, &after_two), (5, &after_one)] {
            let dir = scratch("v0");
            std::fs::create_dir_all(&dir).unwrap();
            for name in ["db.wal", "t.cat", "t.pages"] {
                std::fs::copy(fixture.join(name), dir.join(name)).unwrap();
            }
            let log = std::fs::read(dir.join("db.wal")).unwrap();
            assert_eq!(log[8], 0, "the fixture is a version-0 log");
            std::fs::write(dir.join("db.wal"), &log[..log.len() - cut]).unwrap();
            let (report, got) = recover_report_and_load(&dir, policy);
            assert_eq!(&got, want, "{policy:?} cut={cut}");
            let batches = if cut == 0 { 2 } else { 1 };
            assert_eq!(report.batches_replayed, batches);
            assert_eq!((report.pages_redone, report.images_restored), (1, 1));
            // One image of the page per committed batch, each put back.
            assert_eq!(report.pages_written, batches);
            assert_eq!((report.slot_records_redone, report.kept_bytes), (0, 0));
            // The store is a current one from here on: its next commit
            // lands behind the adopted batches in a log stamped with the
            // current version.
            let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
            storage.append_rows("t", vec![row(11, "z")]).unwrap();
            storage.simulate_crash();
            drop(storage);
            let scan = htqo_storage::wal::scan(&dir.join("db.wal")).unwrap();
            assert!(
                !scan.batch_images,
                "{policy:?} cut={cut}: still a version-0 log"
            );
            assert_eq!(scan.batches() as u64, batches + 1);
            assert_eq!(std::fs::read(dir.join("db.wal")).unwrap()[8], 2);
            assert_eq!(recover_and_load(&dir, policy).len(), want.len() + 1);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A store the **parent** commit wrote and was killed on before its own
/// recovery ever ran (`tests/fixtures/wal_v2_pending`: forty rows on two
/// heap pages; three batches of updates, deletes and appends that grow
/// the heap to a third page; kill): a current-format log of slot records
/// nobody has redone, a page file and a catalog file as at ingest. The
/// parent would have redone the pages into the file at open; this code
/// serves them from the log, under every policy, with the fixture's files
/// untouched — and the fresh page exists in the pool only.
#[test]
fn a_log_of_the_parent_commit_with_pending_slot_records_recovers() {
    let _g = lock();
    failpoint::clear();
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal_v2_pending");
    let mut model = base_model(&(0..40).collect::<Vec<i64>>());
    let put = |m: &mut ModelTable, rowid: usize, k: i64, tag: &str| {
        m.slots.resize(m.slots.len().max(rowid + 1), None);
        m.slots[rowid] = Some(row_at(rowid, k, tag));
    };
    put(&mut model, 3, 100, "b0.0");
    model.slots[17] = None;
    put(&mut model, 40, 5, "b0.2");
    put(&mut model, 3, 101, "b1.0");
    put(&mut model, 29, 102, "b1.1");
    for j in 0..16 {
        put(&mut model, 41 + j, j as i64, &format!("b1.{}", 2 + j));
    }
    model.slots[4] = None;
    put(&mut model, 30, 103, "b2.1");
    put(&mut model, 57, 7, "b2.2");
    for policy in [WalPolicy::Commit, WalPolicy::Batch, WalPolicy::Off] {
        let dir = scratch("parent-log");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["db.wal", "t.cat", "t.pages"] {
            std::fs::copy(fixture.join(name), dir.join(name)).unwrap();
        }
        let as_copied = dir_files(&dir);
        let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
        let report = storage.recover().unwrap();
        assert_eq!((report.batches_replayed, report.pages_redone), (3, 3));
        assert_eq!((report.pages_written, report.images_restored), (0, 0));
        assert_eq!(report.dropped_records, 0);
        let meta = storage.table_meta("t").unwrap();
        assert_eq!((meta.rows, meta.heap_pages()), (model.rows().len(), 3));
        let (rel, _) = storage.load_table("t", 2 * PAGE_SIZE as u64, None).unwrap();
        assert_eq!(rel.to_rows(), model.rows(), "{policy:?}");
        assert_eq!(dir_files(&dir), as_copied, "{policy:?}");
        assert_eq!(as_copied["t.pages"].len(), 2 * PAGE_SIZE);
        // The store goes on from there.
        storage.checkpoint().unwrap();
        assert_eq!(
            std::fs::read(dir.join("t.pages")).unwrap().len(),
            3 * PAGE_SIZE
        );
        storage.simulate_crash();
        drop(storage);
        assert_eq!(recover_and_load(&dir, policy), model.rows());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Regression: a failed catalog rename must clean up its temp file (it
/// used to leak `<name>.cat.tmp` on the error path). The rename belongs
/// to `checkpoint()`: the commit before it succeeds without touching the
/// catalog file.
#[test]
fn failed_catalog_rename_leaves_no_temp_file() {
    let _g = lock();
    failpoint::clear();
    let dir = scratch("catclean");
    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let model = base_model(&[1, 2, 3]);
    storage.ingest("t", &model.relation(), &[]).unwrap();
    let cat_before = std::fs::read(dir.join("t.cat")).unwrap();
    failpoint::configure("storage::catalog_rename", FailAction::Error, 0, Some(1));
    let committed = storage.append_rows("t", vec![row(7, "z")]);
    assert!(committed.is_ok(), "a commit renames nothing: {committed:?}");
    let res = storage.checkpoint();
    failpoint::clear();
    assert!(res.is_err(), "the injected rename failure must surface");
    assert!(
        !dir.join("t.cat.tmp").exists(),
        "failed rename leaked the catalog temp file"
    );
    assert_eq!(std::fs::read(dir.join("t.cat")).unwrap(), cat_before);
    // The failed checkpoint did not truncate the log: recovery makes the
    // batch visible, and the next checkpoint writes the catalog.
    storage.simulate_crash();
    drop(storage);
    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let (rel, _) = storage.load_table("t", 1 << 22, None).unwrap();
    assert_eq!(rel.len(), 4);
    assert_eq!(std::fs::read(dir.join("t.cat")).unwrap(), cat_before);
    storage.checkpoint().unwrap();
    assert_ne!(std::fs::read(dir.join("t.cat")).unwrap(), cat_before);
    assert!(!dir.join("t.cat.tmp").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Commits that never saw a checkpoint leave the catalog *file* at its
/// ingest-time content under every policy, and so does the restart after
/// a crash: recovery restores the committed prefix with each table's last
/// logged entry staged (`catalogs_redone` keeps counting records) and
/// renames nothing. The checkpoint then writes each table's catalog
/// exactly once.
#[test]
fn commits_without_checkpoint_recover_from_a_stale_catalog_file() {
    let _g = lock();
    for policy in [WalPolicy::Commit, WalPolicy::Batch, WalPolicy::Off] {
        failpoint::clear();
        let dir = scratch("stalecat");
        let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
        let base = base_model(&[1, 2, 3]);
        storage.ingest("t", &base.relation(), &[]).unwrap();
        storage.ingest("u", &base.relation(), &[]).unwrap();
        let stale = |t: &str| std::fs::read(dir.join(format!("{t}.cat"))).unwrap();
        let (t_cat, u_cat) = (stale("t"), stale("u"));
        let mut model = [base.clone(), base];
        let commits = 5;
        for i in 0..commits {
            for (table, m) in ["t", "u"].into_iter().zip(&mut model) {
                let k = i as i64;
                let ops = [
                    AbstractOp::Append(k),
                    AbstractOp::Append(-k),
                    AbstractOp::Delete(i),
                ];
                let (batch, next) = build_batch(table, i, &ops, m);
                storage.apply(&batch).unwrap();
                *m = next;
            }
        }
        assert_eq!((stale("t"), stale("u")), (t_cat.clone(), u_cat.clone()));
        storage.simulate_crash();
        drop(storage);

        // Two tables, ten catalog records, and not one rename: the armed
        // site would fail the recovery.
        let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
        failpoint::configure("storage::catalog_rename", FailAction::Error, 0, Some(1));
        let report = storage.recover();
        failpoint::clear();
        let report = report.unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert_eq!(report.batches_replayed, 2 * commits as u64);
        assert_eq!(report.catalogs_redone, 2 * commits as u64);
        assert_eq!((stale("t"), stale("u")), (t_cat.clone(), u_cat.clone()));
        for (table, m) in ["t", "u"].into_iter().zip(&model) {
            assert_eq!(storage.table_meta(table).unwrap().rows, m.rows().len());
            let (rel, _) = storage.load_table(table, 1 << 22, None).unwrap();
            assert_eq!(rel.to_rows(), m.rows(), "{policy:?} {table}");
        }

        // The checkpoint renames once per table: a third rename would
        // trip the armed site…
        failpoint::configure("storage::catalog_rename", FailAction::Error, 2, Some(1));
        let res = storage.checkpoint();
        failpoint::clear();
        res.unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert!(stale("t") != t_cat && stale("u") != u_cat, "{policy:?}");
        drop(storage);

        // …and both renames do go through that site.
        let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
        for (table, m) in ["t", "u"].into_iter().zip(&model) {
            let (batch, _) = build_batch(table, 9, &[AbstractOp::Append(9)], m);
            storage.apply(&batch).unwrap();
        }
        storage.simulate_crash();
        storage.recover().unwrap();
        failpoint::configure("storage::catalog_rename", FailAction::Error, 1, Some(1));
        let res = storage.checkpoint();
        failpoint::clear();
        assert!(
            res.is_err(),
            "{policy:?}: second rename never reached the site"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A crash between the generational switch and the old-file delete
/// leaves an orphan page file; recovery garbage-collects it.
#[test]
fn orphan_generation_files_are_garbage_collected() {
    let _g = lock();
    failpoint::clear();
    let dir = scratch("orphan");
    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let model = base_model(&[1, 2, 3]);
    storage.ingest("t", &model.relation(), &[]).unwrap();
    // Plant an orphan: a generation file no catalog references, plus a
    // stale catalog temp.
    std::fs::write(dir.join("t.9.pages"), vec![0u8; 16]).unwrap();
    std::fs::write(dir.join("t.cat.tmp"), b"stale").unwrap();
    storage.simulate_crash();
    drop(storage);
    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let report = storage.recover().unwrap();
    assert_eq!(report.orphans_removed, 2);
    assert!(!dir.join("t.9.pages").exists());
    assert!(!dir.join("t.cat.tmp").exists());
    let (rel, _) = storage.load_table("t", 1 << 22, None).unwrap();
    assert_eq!(rel.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: under group commit (`WalPolicy::Batch`) the on-disk
/// catalog must never run ahead of the durable WAL. A power cut that
/// loses the un-fsynced log group used to leave a renamed catalog whose
/// row count was ahead of the data pages — a torn, unreadable table.
/// The rename waits for the checkpoint (which syncs the log first), so
/// the same power cut recovers cleanly to the pre-batch state.
#[test]
fn batch_policy_catalog_never_outruns_durable_wal() {
    let _g = lock();
    failpoint::clear();
    let dir = scratch("batchcat");
    let storage = StorageDb::open_with(&dir, WalPolicy::Batch, u64::MAX).unwrap();
    let model = base_model(&[1, 2, 3]);
    storage.ingest("t", &model.relation(), &[]).unwrap();
    let cat_before = std::fs::read_to_string(dir.join("t.cat")).unwrap();

    // One committed batch: fewer commits than the group size, so the
    // WAL group is written to the OS but not fsynced. The catalog
    // switch must be staged in memory, not renamed on disk…
    let meta = storage.append_rows("t", vec![row(9, "x")]).unwrap();
    assert_eq!(meta.rows, 4, "staged catalog serves the new state");
    let (rel, _) = storage.load_table("t", 1 << 22, None).unwrap();
    assert_eq!(rel.len(), 4);
    assert_eq!(
        std::fs::read_to_string(dir.join("t.cat")).unwrap(),
        cat_before,
        "on-disk catalog renamed before its WAL group was durable"
    );

    // …so a power cut that wipes the un-fsynced WAL tail (everything
    // past the durable header) leaves a *consistent* pre-batch store.
    storage.simulate_crash();
    drop(storage);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("db.wal"))
        .unwrap();
    f.set_len(htqo_storage::wal::WAL_HEADER).unwrap();
    drop(f);
    let rows = recover_and_load(&dir, WalPolicy::Batch);
    assert_eq!(
        rows.len(),
        3,
        "power cut must roll back to the pre-batch state"
    );

    // And a plain process crash (OS keeps the written WAL) replays the
    // batch, catalog included.
    let storage = StorageDb::open_with(&dir, WalPolicy::Batch, u64::MAX).unwrap();
    storage.append_rows("t", vec![row(10, "y")]).unwrap();
    storage.simulate_crash();
    drop(storage);
    let rows = recover_and_load(&dir, WalPolicy::Batch);
    assert_eq!(rows.len(), 4, "process crash keeps the committed batch");
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: an unparseable catalog file must disable orphan GC.
/// Deleting "unreferenced" page files on the strength of a catalog that
/// failed to parse would turn a repairable corruption into permanent
/// data loss.
#[test]
fn unreadable_catalog_blocks_orphan_gc() {
    let _g = lock();
    failpoint::clear();
    let dir = scratch("badcat");
    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let model = base_model(&[1, 2, 3]);
    storage.ingest("t", &model.relation(), &[]).unwrap();
    storage.simulate_crash();
    drop(storage);

    // Corrupt the catalog (torn write / operator mishap) and plant a
    // genuine orphan plus a stale temp: with any catalog unreadable,
    // recovery must delete *nothing*.
    let good = std::fs::read_to_string(dir.join("t.cat")).unwrap();
    std::fs::write(dir.join("t.cat"), "garbage\n").unwrap();
    std::fs::write(dir.join("t.9.pages"), vec![0u8; 16]).unwrap();
    std::fs::write(dir.join("t.cat.tmp"), b"stale").unwrap();

    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let report = storage.recover().unwrap();
    assert_eq!(report.unreadable_catalogs, 1);
    assert_eq!(report.orphans_removed, 0, "GC must be skipped entirely");
    assert!(report.did_work(), "the skipped GC is surfaced to operators");
    assert!(dir.join("t.pages").exists(), "data file survived");
    assert!(dir.join("t.9.pages").exists());
    drop(storage);

    // Restoring the catalog makes the table readable again — nothing
    // was lost — and the next recovery GCs the leftovers.
    std::fs::write(dir.join("t.cat"), good).unwrap();
    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let report = storage.recover().unwrap();
    assert_eq!(report.unreadable_catalogs, 0);
    assert_eq!(report.orphans_removed, 2);
    let (rel, _) = storage.load_table("t", 1 << 22, None).unwrap();
    assert_eq!(rel.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// A pre-checksum (v1) catalog is rejected with an actionable
/// "re-ingest" error instead of surfacing as CorruptPage on every read
/// — and its data files are protected from orphan GC.
#[test]
fn legacy_v1_catalog_is_rejected_with_reingest_error() {
    let _g = lock();
    failpoint::clear();
    let dir = scratch("v1cat");
    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    std::fs::write(
        dir.join("old.cat"),
        "htqo-table v1\nrows 1\nheap_pages 1\ncol int k\n",
    )
    .unwrap();
    std::fs::write(dir.join("old.pages"), vec![0u8; 8192]).unwrap();
    let err = storage.table_meta("old").unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("re-ingest"), "unhelpful error: {msg}");
    let report = storage.recover().unwrap();
    assert_eq!(report.unreadable_catalogs, 1);
    assert!(
        dir.join("old.pages").exists(),
        "v1 data survives for re-ingest"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `WalPolicy::Off` still survives a *process* crash (the pending buffer
/// is written to the OS at commit); it only gives up power-loss
/// durability.
#[test]
fn wal_off_survives_process_crash() {
    let _g = lock();
    failpoint::clear();
    let dir = scratch("off");
    let storage = StorageDb::open_with(&dir, WalPolicy::Off, u64::MAX).unwrap();
    let model = base_model(&[5, 6]);
    storage.ingest("t", &model.relation(), &[]).unwrap();
    storage.append_rows("t", vec![row(7, "a")]).unwrap();
    storage.simulate_crash();
    drop(storage);
    let rows = recover_and_load(&dir, WalPolicy::Off);
    assert_eq!(rows.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// The paged service surfaces the recovery pass in its metrics.
#[test]
fn open_paged_service_reports_recovery() {
    let _g = lock();
    failpoint::clear();
    let dir = scratch("svc");
    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let model = base_model(&[1, 2, 3, 4]);
    storage.ingest("t", &model.relation(), &[]).unwrap();
    storage.append_rows("t", vec![row(8, "n")]).unwrap();
    storage.simulate_crash();
    drop(storage);

    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
    let svc = htqo_service::QueryService::open_paged(
        &storage,
        1 << 22,
        htqo_service::ServiceConfig::default(),
        |db| {
            htqo_optimizer::HybridOptimizer::with_stats(
                htqo_core::QhdOptions::default(),
                htqo_stats::analyze(db),
            )
        },
    )
    .unwrap();
    let recovery = svc
        .metrics()
        .recovery
        .expect("paged service reports recovery");
    assert!(
        recovery.batches_replayed >= 1,
        "the crash left work to redo"
    );
    // One page changed by one slot record, which the pool keeps: no
    // image of it was in the log, so nothing was written.
    assert_eq!(
        (
            recovery.pages_redone,
            recovery.slot_records_redone,
            recovery.images_restored,
            recovery.pages_written
        ),
        (1, 1, 0, 0)
    );
    assert!(recovery.kept_bytes > 0 && recovery.did_work());
    assert_eq!(svc.database().table("t").unwrap().len(), 5);
    std::fs::remove_dir_all(&dir).ok();
}
