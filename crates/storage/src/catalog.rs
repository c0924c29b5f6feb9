//! The persistent catalog: tables ingested once survive restarts — and
//! now survive crashes.
//!
//! A [`StorageDb`] is a directory holding, per table, a page file
//! (heap pages in catalog-listed extents, plus any B+tree index pages)
//! and a human-readable catalog file (`<name>.cat`) recording the
//! schema, heap extents, page-file name, and index roots, plus one
//! shared write-ahead log (`db.wal`). [`StorageDb::ingest`] writes a
//! **fresh generation** page file (`<name>.pages`, then `<name>.1.pages`,
//! `<name>.2.pages`, …) and atomically renames the catalog over the old
//! one — the switch point. The old generation is deleted afterwards;
//! a crash between switch and delete leaves an orphan that recovery
//! garbage-collects. Because the live file is never truncated in place,
//! a crash mid-re-ingest can no longer corrupt the previous version.
//!
//! Small mutations skip the whole-table rewrite: [`StorageDb::apply`]
//! takes a [`MutationBatch`] of appends, updates, and deletes, logs per
//! changed page one slot record — the cells the batch changes there —
//! plus the new catalog text to the WAL, commits, and only then hands the
//! same edits to the shared [`BufferPool`], which applies them to its
//! frames in place. The pool therefore only ever serves committed state,
//! and recovery ([`StorageDb::recover`]) restores exactly the committed
//! prefix by doing the second half of those commits again: the log's slot
//! records go to the pools, its last catalog text per table is staged,
//! and the log itself is kept (see [`crate::wal`] for the record kinds,
//! the replay rule and the cut).
//! A commit writes nothing but the log: the new catalog entry is kept in
//! memory, the changed cells in the pool, and the *files* — catalog and
//! pages alike — are written at ingest and checkpoint only, each page
//! behind a logged image of itself (`BufferPool::flush`). A restart
//! rewrites nothing: only a page whose image a killed checkpoint left in
//! the log is put back in place.
//! Deletes leave zero-length **tombstone** cells so physical rowids
//! (slot positions) stay stable; mutations drop a table's secondary
//! indexes, which are bulk-loaded structures rebuilt at the next ingest.
//!
//! On the next run, [`StorageDb::load_database`] first runs the recovery
//! pass (scan → validate → cut → redo into the pools, torn tail
//! tolerated), then rebuilds the
//! in-memory [`Database`] by decoding heap pages through per-table
//! buffer pools — skipping CSV parsing entirely — and re-attaches each
//! index as a [`crate::btree::PagedIndex`] reading through the same
//! pool, so index-seek joins stay cache-governed after the warm start.

use crate::btree::{self, IndexMeta, PagedIndex};
use crate::buffer::BufferPool;
use crate::codec;
use crate::page::{self, PageBuilder, MAX_CELL};
use crate::pager::PageFile;
use crate::wal::{self, SlotOp, Wal, WalPolicy, WalRecord, WalStats};
use htqo_engine::{Budget, ColumnType, Database, EvalError, MemIndex, Relation, Schema, Value};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default page-cache budget when `HTQO_PAGE_CACHE` is unset: 64 MiB.
pub const DEFAULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Default WAL size that triggers an automatic checkpoint when
/// `HTQO_WAL_CHECKPOINT` is unset: 4 MiB.
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 4 * 1024 * 1024;

/// The persisted indexes of one loaded table: `(column name, index)`
/// pairs, ready to register on a [`Database`].
pub type LoadedIndexes = Vec<(String, Arc<PagedIndex>)>;

/// Resolves the page-cache byte budget from `HTQO_PAGE_CACHE`
/// (suffixes as in [`htqo_engine::exec::parse_bytes`]; unset means
/// [`DEFAULT_CACHE_BYTES`], a value that does not parse is an error).
pub fn cache_bytes_from_env() -> Result<u64, EvalError> {
    let raw = wal::env_value("HTQO_PAGE_CACHE")?;
    bytes_knob("HTQO_PAGE_CACHE", raw.as_deref(), DEFAULT_CACHE_BYTES)
}

/// Resolves the auto-checkpoint threshold from `HTQO_WAL_CHECKPOINT`
/// (suffixes as in [`htqo_engine::exec::parse_bytes`]; unset means
/// [`DEFAULT_CHECKPOINT_BYTES`], a value that does not parse is an error —
/// the threshold bounds the log a restart has to read).
pub fn checkpoint_bytes_from_env() -> Result<u64, EvalError> {
    let raw = wal::env_value("HTQO_WAL_CHECKPOINT")?;
    bytes_knob(
        "HTQO_WAL_CHECKPOINT",
        raw.as_deref(),
        DEFAULT_CHECKPOINT_BYTES,
    )
}

fn bytes_knob(name: &str, raw: Option<&str>, default: u64) -> Result<u64, EvalError> {
    match raw {
        None => Ok(default),
        Some(v) => htqo_engine::exec::parse_bytes(v).ok_or_else(|| wal::bad_env(name, v)),
    }
}

/// Resolves the storage directory from `HTQO_STORAGE_DIR` (default
/// `.htqo_storage` under the working directory).
pub fn dir_from_env() -> PathBuf {
    std::env::var_os("HTQO_STORAGE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".htqo_storage"))
}

/// Catalog format header. v2 marks the checksum-trailer page layout
/// introduced with the WAL; v1 stores (no trailer) are rejected with a
/// re-ingest error rather than failing every page read as corrupt.
const CATALOG_HEADER: &str = "htqo-table v2";

fn bad_catalog(path: &Path, what: &str) -> EvalError {
    EvalError::SpillIo(format!("{}: bad catalog: {what}", path.display()))
}

fn io_err(path: &Path, op: &str, e: std::io::Error) -> EvalError {
    EvalError::SpillIo(format!("{}: {op}: {e}", path.display()))
}

fn ty_name(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Int => "int",
        ColumnType::Float => "float",
        ColumnType::Str => "str",
        ColumnType::Date => "date",
    }
}

fn ty_parse(s: &str) -> Option<ColumnType> {
    match s {
        "int" => Some(ColumnType::Int),
        "float" => Some(ColumnType::Float),
        "str" => Some(ColumnType::Str),
        "date" => Some(ColumnType::Date),
        _ => None,
    }
}

/// Catalog entry for one persisted table.
#[derive(Clone, Debug)]
pub struct TableMeta {
    /// Table name (catalog file stem).
    pub name: String,
    /// Live rows (tombstoned slots excluded).
    pub rows: usize,
    /// Page-file name within the storage directory — generation
    /// specific, so a re-ingest never truncates the live file.
    pub file: String,
    /// Heap extents `(first page, page count)` in rowid order; index
    /// pages live between and after them.
    pub heap: Vec<(u64, u64)>,
    /// Column names and types, in order.
    pub columns: Vec<(String, ColumnType)>,
    /// Built secondary indexes: column name and B+tree location.
    pub indexes: Vec<(String, IndexMeta)>,
}

impl TableMeta {
    /// Total heap pages across all extents.
    pub fn heap_pages(&self) -> u64 {
        self.heap.iter().map(|&(_, c)| c).sum()
    }
}

/// What one recovery pass found and did; surfaced through
/// `ServiceMetrics` so operators see crash recoveries happen.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL bytes scanned.
    pub wal_bytes: u64,
    /// Committed batches replayed — every batch since the last
    /// checkpoint, which a restart no longer is.
    pub batches_replayed: u64,
    /// Pages the log carries redo for (an image, slot records, or both).
    pub pages_redone: u64,
    /// Of those, pages whose replay started from an image in the log
    /// rather than from the data file.
    pub images_restored: u64,
    /// In-place page writes: one per image in the log, so zero unless a
    /// checkpoint was killed inside its write-back (or the log is of the
    /// image-per-commit format).
    pub pages_written: u64,
    /// Slot records of committed batches applied on top — handed to the
    /// pools as kept edits, not written anywhere.
    pub slot_records_redone: u64,
    /// Bytes of edits those records carry: what the pools keep in memory
    /// until the next checkpoint.
    pub kept_bytes: u64,
    /// Catalog records redone.
    pub catalogs_redone: u64,
    /// True when the scan stopped at a torn or corrupt record.
    pub torn_tail: bool,
    /// Uncommitted-tail records discarded.
    pub dropped_records: u64,
    /// Orphan generation files (and stale catalog temps) removed.
    pub orphans_removed: u64,
    /// Catalog files present but unparseable. While any exist, orphan
    /// GC is skipped entirely: a data file must never be deleted on the
    /// strength of a catalog that failed to parse, or a recoverable
    /// corruption would escalate into irreversible data loss.
    pub unreadable_catalogs: u64,
}

impl RecoveryReport {
    /// True when recovery replayed, wrote or discarded anything (a
    /// restart behind a checkpoint reports all-zero but for the bytes
    /// scanned).
    pub fn did_work(&self) -> bool {
        let clean = RecoveryReport {
            wal_bytes: self.wal_bytes,
            ..RecoveryReport::default()
        };
        *self != clean
    }
}

/// One table's batched mutations, applied atomically (all or nothing)
/// by [`StorageDb::apply`]. Rowids are *physical slot positions* in
/// heap-extent order, counting tombstones — exactly the enumeration
/// order of [`StorageDb::load_table`] before any deletes.
#[derive(Clone, Debug)]
pub struct MutationBatch {
    table: String,
    ops: Vec<MutOp>,
}

#[derive(Clone, Debug)]
enum MutOp {
    Append(Vec<Value>),
    Update(u64, Vec<Value>),
    Delete(u64),
}

impl MutationBatch {
    /// An empty batch against `table`.
    pub fn new(table: &str) -> Self {
        MutationBatch {
            table: table.to_string(),
            ops: Vec::new(),
        }
    }

    /// The target table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Number of operations queued.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Queues a row append.
    pub fn append(&mut self, row: Vec<Value>) -> &mut Self {
        self.ops.push(MutOp::Append(row));
        self
    }

    /// Queues a full-row update of the slot at `rowid`.
    pub fn update(&mut self, rowid: u64, row: Vec<Value>) -> &mut Self {
        self.ops.push(MutOp::Update(rowid, row));
        self
    }

    /// Queues a delete (tombstone) of the slot at `rowid`.
    pub fn delete(&mut self, rowid: u64) -> &mut Self {
        self.ops.push(MutOp::Delete(rowid));
        self
    }
}

/// Where each heap page's slots start in the rowid space: `(pid, first
/// rowid)` per heap page in extent order, plus the slot total. Tombstones
/// keep their slot, so only appends move it — the last page's count grows
/// or fresh pages follow.
#[derive(Debug, Default, PartialEq, Eq)]
struct SlotDirectory {
    pages: Vec<(u64, u64)>,
    slots: u64,
    /// [`page::used_bytes`] of the last heap page: whether an append still
    /// fits there is decided without pinning it.
    tail_used: usize,
}

impl SlotDirectory {
    fn push_page(&mut self, pid: u64, cells: u16, used: usize) {
        self.pages.push((pid, self.slots));
        self.slots += u64::from(cells);
        self.tail_used = used;
    }

    /// The directory in `kept`, built first if there is none yet by
    /// counting the cells of every heap page — one pin per page.
    fn of<'a>(
        pool: &BufferPool,
        heap: &[(u64, u64)],
        kept: &'a mut Option<Self>,
    ) -> Result<&'a mut Self, EvalError> {
        if kept.is_none() {
            let mut dir = SlotDirectory::default();
            for &(start, count) in heap {
                for pid in start..start + count {
                    let page = pool.pin(pid)?;
                    dir.push_page(pid, page::cell_count(&page)?, page::page_used_bytes(&page)?);
                }
            }
            *kept = Some(dir);
        }
        Ok(kept.as_mut().expect("slot directory just built"))
    }

    /// The page and slot holding `rowid`.
    fn locate(&self, rowid: u64) -> Option<(u64, u16)> {
        if rowid >= self.slots {
            return None;
        }
        let i = self.pages.partition_point(|&(_, first)| first <= rowid) - 1;
        let (pid, first) = self.pages[i];
        Some((pid, (rowid - first) as u16))
    }
}

/// What the handle family keeps per table between calls: created by the
/// first `load_table`/`apply` — or by `recover`, for a table the log
/// commits to — and dropped whole by `simulate_crash` and `ingest`.
struct OpenTable {
    pool: Arc<BufferPool>,
    /// True for a pool recovery opened and no caller has sized yet: the
    /// first `open_table` gives it its capacity and budget.
    parked: bool,
    /// The committed catalog entry.
    meta: TableMeta,
    /// True while `meta` is newer than `<name>.cat`: a commit staged it
    /// and the next checkpoint writes the file, after syncing the log —
    /// the file never runs ahead of the WAL records that redo its pages.
    staged: bool,
    /// Built by whichever of `load_table`/`apply` first walks the pages,
    /// kept current by `apply`.
    slots: Option<SlotDirectory>,
}

/// Shared mutable state behind every clone of one [`StorageDb`].
struct DbShared {
    wal: Mutex<Option<Arc<Wal>>>,
    /// Counts of the log handles this family has already given up (one
    /// per crash simulation).
    wal_retired: Mutex<WalStats>,
    recovery: Mutex<Option<RecoveryReport>>,
    /// Held for the length of a load or a commit, which serializes them.
    tables: Mutex<HashMap<String, OpenTable>>,
    budget: Mutex<Option<Budget>>,
    recovered: AtomicBool,
}

/// A directory of persisted tables with WAL-backed durability. Clones
/// share the buffer pools, the WAL, and the recovery state; keep at most
/// one (cloned) handle family per directory, and serialize mutations —
/// concurrent *reads* through the pools are fine.
#[derive(Clone)]
pub struct StorageDb {
    dir: PathBuf,
    policy: WalPolicy,
    checkpoint_bytes: u64,
    /// Capacity of a pool `apply` has to create (`HTQO_PAGE_CACHE`,
    /// resolved at open).
    cache_bytes: u64,
    shared: Arc<DbShared>,
}

impl std::fmt::Debug for StorageDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageDb")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .finish()
    }
}

impl StorageDb {
    /// Opens (creating if needed) the storage directory, with the WAL
    /// policy from `HTQO_WAL` and the checkpoint threshold from
    /// `HTQO_WAL_CHECKPOINT`. A variable set to a value that does not
    /// parse is an error naming it, never the default.
    pub fn open(dir: &Path) -> Result<Self, EvalError> {
        Self::open_with(dir, WalPolicy::from_env()?, checkpoint_bytes_from_env()?)
    }

    /// Opens with an explicit WAL policy and auto-checkpoint threshold
    /// (bytes of WAL that trigger a checkpoint after a mutation).
    pub fn open_with(
        dir: &Path,
        policy: WalPolicy,
        checkpoint_bytes: u64,
    ) -> Result<Self, EvalError> {
        let cache_bytes = cache_bytes_from_env()?;
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create dir", e))?;
        Ok(StorageDb {
            dir: dir.to_path_buf(),
            policy,
            checkpoint_bytes,
            cache_bytes,
            shared: Arc::new(DbShared {
                wal: Mutex::new(None),
                wal_retired: Mutex::new(WalStats::default()),
                recovery: Mutex::new(None),
                tables: Mutex::new(HashMap::new()),
                budget: Mutex::new(None),
                recovered: AtomicBool::new(false),
            }),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Attaches an engine [`Budget`]: WAL buffers (and pools created
    /// from now on without an explicit budget) charge against it.
    pub fn set_budget(&self, budget: Option<Budget>) {
        *lock(&self.shared.budget) = budget;
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("db.wal")
    }

    fn cat_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.cat"))
    }

    /// Page-file name for the generation after `current` (`None` for a
    /// first ingest): `t.pages`, then `t.1.pages`, `t.2.pages`, …
    fn next_gen_file(name: &str, current: Option<&str>) -> String {
        let Some(current) = current else {
            return format!("{name}.pages");
        };
        let gen = current
            .strip_prefix(name)
            .and_then(|r| r.strip_suffix(".pages"))
            .and_then(|mid| {
                if mid.is_empty() {
                    Some(0)
                } else {
                    mid.strip_prefix('.').and_then(|g| g.parse::<u64>().ok())
                }
            })
            .unwrap_or(0);
        format!("{name}.{}.pages", gen + 1)
    }

    /// Names of persisted tables (sorted).
    pub fn tables(&self) -> Result<Vec<String>, EvalError> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, "read dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, "read dir", e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("cat") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// True when `name` has a complete catalog entry with its page file
    /// present.
    pub fn has_table(&self, name: &str) -> bool {
        self.table_meta(name)
            .map(|m| self.dir.join(&m.file).exists())
            .unwrap_or(false)
    }

    // ---- recovery ------------------------------------------------------

    /// Runs recovery once per handle family (no-op if already run) —
    /// every public operation calls this first.
    fn ensure_recovered(&self) -> Result<(), EvalError> {
        if self.shared.recovered.load(Ordering::Acquire) {
            return Ok(());
        }
        self.recover().map(|_| ())
    }

    /// The recovery pass: scans the WAL (validating checksums, torn tail
    /// tolerated), cuts it behind its committed prefix, and does for every
    /// committed batch what its commit did after logging it — the slot
    /// records go to the owning table's pool as kept edits, the table's
    /// last logged catalog text becomes its staged entry — then keeps the
    /// log open for the next commit and garbage-collects orphan
    /// generation files. No data or catalog file is written and nothing
    /// is synced; only a page whose image is in the log (a checkpoint
    /// killed inside its write-back) is put back in place, from that
    /// image. The next checkpoint, not the restart, brings the files up
    /// to date and empties the log. Idempotent: it changes nothing a
    /// second pass would read differently, so a crash *during* recovery
    /// is just a crash. A slot record that does not fit its page surfaces
    /// as a typed error at the first read of that page. Returns what it
    /// did; on a handle that already recovered, returns the stored report
    /// without rescanning.
    pub fn recover(&self) -> Result<RecoveryReport, EvalError> {
        let mut slot = lock(&self.shared.recovery);
        if self.shared.recovered.load(Ordering::Acquire) {
            return Ok(slot.clone().unwrap_or_default());
        }
        let report = self.recover_inner()?;
        *slot = Some(report.clone());
        self.shared.recovered.store(true, Ordering::Release);
        Ok(report)
    }

    /// The report from this handle family's recovery pass, if it ran.
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        lock(&self.shared.recovery).clone()
    }

    fn recover_inner(&self) -> Result<RecoveryReport, EvalError> {
        // Open-table state died with the crash; a failed earlier attempt
        // may have left some behind.
        lock(&self.shared.tables).clear();
        let path = self.wal_path();
        let scan = wal::scan(&path)?;
        let mut report = RecoveryReport {
            wal_bytes: scan.bytes,
            torn_tail: scan.torn_tail,
            dropped_records: scan.dropped_records,
            ..RecoveryReport::default()
        };
        if scan.keep_len >= wal::WAL_HEADER {
            // The cut comes first: from here on the file ends with its
            // last committed record (or an image), whatever happens below.
            let budget = lock(&self.shared.budget).clone();
            let wal = Arc::new(Wal::resume(&path, self.policy, budget, &scan)?);
            let tables = self.replay(&scan.records[..scan.keep], &wal, &mut report)?;
            *lock(&self.shared.tables) = tables;
            *lock(&self.shared.wal) = Some(wal);
        }
        let (removed, unreadable) = self.gc_orphans()?;
        report.orphans_removed = removed;
        report.unreadable_catalogs = unreadable;
        Ok(report)
    }

    /// The "apply" half of every committed batch in `records` (a log's
    /// kept prefix, so every slot and catalog record in it is committed
    /// and every image stands): opens each table the log commits to with
    /// its last logged catalog entry staged, and hands its pool the log's
    /// images and slot records in log order.
    fn replay(
        &self,
        records: &[WalRecord],
        wal: &Arc<Wal>,
        report: &mut RecoveryReport,
    ) -> Result<HashMap<String, OpenTable>, EvalError> {
        // Catalog records are full replacements: each table's last one is
        // its committed entry.
        let mut texts: BTreeMap<&str, &str> = BTreeMap::new();
        for rec in records {
            if let WalRecord::Catalog { table, text } = rec {
                texts.insert(table, text);
                report.catalogs_redone += 1;
            }
        }
        /// What the log holds for one page, so far.
        #[derive(Default)]
        struct Redo {
            imaged: bool,
            slot_records: u64,
            kept_bytes: u64,
        }
        /// A page file the log commits to: its pool, and its pages by pid.
        struct Target {
            file: String,
            pool: Arc<BufferPool>,
            pages: HashMap<u64, Redo>,
        }
        let mut tables = HashMap::with_capacity(texts.len());
        let mut targets = Vec::with_capacity(texts.len());
        let log = self.wal_path();
        for (name, text) in texts {
            let meta = Self::parse_catalog(&log, name, text)?;
            let file = open_repair(&self.dir.join(&meta.file))?;
            // Sized by its first opener (`parked`); until then it caches
            // nothing, it only keeps edits.
            let pool = Arc::new(BufferPool::new(file, 0, None));
            pool.attach_wal(Arc::clone(wal));
            targets.push(Target {
                file: meta.file.clone(),
                pool: Arc::clone(&pool),
                pages: HashMap::new(),
            });
            let table = OpenTable {
                pool,
                parked: true,
                meta,
                staged: true,
                slots: None,
            };
            tables.insert(name.to_string(), table);
        }

        // Every commit logs its table's catalog entry next to its slot
        // records, so a page file the log names is one opened above (a
        // handful: found by name, not hashed).
        fn target_of<'a>(
            targets: &'a mut [Target],
            file: &str,
            pid: u64,
        ) -> Result<&'a mut Target, EvalError> {
            targets.iter_mut().find(|t| t.file == file).ok_or_else(|| {
                EvalError::SpillIo(format!(
                    "wal record for page {pid} of {file}, which no catalog record in the log names"
                ))
            })
        }
        for rec in records {
            match rec {
                WalRecord::Commit { .. } => report.batches_replayed += 1,
                WalRecord::Catalog { .. } => {}
                WalRecord::Page { file, pid, image } => {
                    let target = target_of(&mut targets, file, *pid)?;
                    target.pool.restore_image(*pid, image)?;
                    report.pages_written += 1;
                    // The slot records in front of an image are in it.
                    let imaged = Redo {
                        imaged: true,
                        ..Redo::default()
                    };
                    target.pages.insert(*pid, imaged);
                }
                WalRecord::Slots { file, pid, edits } => {
                    let Target { pool, pages, .. } = target_of(&mut targets, file, *pid)?;
                    // A batch numbers its fresh pages from the end of the
                    // file, in log order.
                    let next = pool.next_pid();
                    if *pid > next {
                        return Err(EvalError::SpillIo(format!(
                            "wal slot record for page {pid} of {file}, which has {next} pages"
                        )));
                    }
                    if *pid == next {
                        pool.create_page()?;
                    }
                    pool.apply_logged(*pid, edits)?;
                    let redo = pages.entry(*pid).or_default();
                    redo.slot_records += 1;
                    redo.kept_bytes += edits.len() as u64;
                }
            }
        }
        for redo in targets.iter().flat_map(|t| t.pages.values()) {
            report.pages_redone += 1;
            report.images_restored += u64::from(redo.imaged);
            report.slot_records_redone += redo.slot_records;
            report.kept_bytes += redo.kept_bytes;
        }
        Ok(tables)
    }

    /// Removes page files no catalog references (crash leftovers from a
    /// generational switch) and stale catalog temp files. Returns
    /// `(files removed, unreadable catalogs)`. If **any** `.cat` file
    /// exists but fails to parse, GC deletes nothing: the "orphan"
    /// might be that table's live data file, and deleting it would turn
    /// a repairable catalog problem into permanent data loss. The
    /// unreadable count is surfaced through [`RecoveryReport`] so the
    /// operator can repair or re-ingest the table.
    fn gc_orphans(&self) -> Result<(u64, u64), EvalError> {
        let mut referenced: HashSet<String> = HashSet::new();
        let mut unreadable = 0u64;
        for name in self.tables()? {
            match self.table_meta(&name) {
                Ok(meta) => {
                    referenced.insert(meta.file);
                }
                Err(_) => unreadable += 1,
            }
        }
        if unreadable > 0 {
            return Ok((0, unreadable));
        }
        let mut removed = 0u64;
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, "read dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, "read dir", e))?;
            let path = entry.path();
            let Some(fname) = path.file_name().and_then(|s| s.to_str()) else {
                continue;
            };
            let orphan_pages = fname.ends_with(".pages") && !referenced.contains(fname);
            let stale_tmp = fname.ends_with(".cat.tmp");
            if orphan_pages || stale_tmp {
                std::fs::remove_file(&path).map_err(|e| io_err(&path, "remove", e))?;
                removed += 1;
            }
        }
        Ok((removed, 0))
    }

    /// Drops every cached page and the in-memory WAL tail without any
    /// write-back — the crash-simulation primitive for the recovery
    /// harness. The on-disk state is exactly what a process kill at this
    /// point would leave; the next operation runs recovery.
    pub fn simulate_crash(&self) {
        let mut slot = lock(&self.shared.recovery);
        // Staged catalog entries go with the pools (the WAL replays
        // them if their commit survived).
        for (_, table) in lock(&self.shared.tables).drain() {
            table.pool.discard();
        }
        // Dropping the Wal discards its unflushed pending buffer — the
        // bytes a real crash would lose — without touching the file.
        if let Some(wal) = lock(&self.shared.wal).take() {
            lock(&self.shared.wal_retired).absorb(wal.stats());
        }
        *slot = None;
        self.shared.recovered.store(false, Ordering::Release);
    }

    // ---- shared infrastructure -----------------------------------------

    /// The WAL handle: the log recovery adopted, or — when it found none —
    /// a fresh one created at the first mutation (`apply` attaches it to
    /// the pool it is about to dirty).
    fn wal_handle(&self) -> Result<Arc<Wal>, EvalError> {
        let mut slot = lock(&self.shared.wal);
        if let Some(w) = slot.as_ref() {
            return Ok(Arc::clone(w));
        }
        let budget = lock(&self.shared.budget).clone();
        let w = Arc::new(Wal::open(&self.wal_path(), self.policy, budget)?);
        *slot = Some(Arc::clone(&w));
        Ok(w)
    }

    /// What this handle family has written to its log: bytes appended per
    /// record kind, commits and fsyncs, summed over every log handle it
    /// has held (each crash simulation gives one up, each recovery
    /// reopens the file).
    pub fn wal_stats(&self) -> WalStats {
        let mut stats = *lock(&self.shared.wal_retired);
        if let Some(wal) = lock(&self.shared.wal).as_ref() {
            stats.absorb(wal.stats());
        }
        stats
    }

    /// The open state of table `name`, created on first use: its catalog
    /// file is read once and its pool gets `cache_bytes` capacity and
    /// `budget` — as does a pool recovery opened, at its first use here.
    /// Later callers share the pool as it is.
    fn open_table<'a>(
        &self,
        tables: &'a mut HashMap<String, OpenTable>,
        name: &str,
        cache_bytes: u64,
        budget: Option<Budget>,
    ) -> Result<&'a mut OpenTable, EvalError> {
        Ok(match tables.entry(name.to_string()) {
            Entry::Occupied(e) => {
                let table = e.into_mut();
                if std::mem::take(&mut table.parked) {
                    table.pool.resize(cache_bytes, budget);
                }
                table
            }
            Entry::Vacant(e) => {
                let meta = self.read_catalog(name)?;
                let file = PageFile::open(&self.dir.join(&meta.file))?;
                e.insert(OpenTable {
                    pool: Arc::new(BufferPool::new(file, cache_bytes, budget)),
                    parked: false,
                    meta,
                    staged: false,
                    slots: None,
                })
            }
        })
    }

    /// Checkpoint: makes the WAL durable, writes back every page the
    /// data files are behind on (each behind a logged image of itself,
    /// then a data fsync), then truncates the log — after which the WAL
    /// records are redundant and the data files self-contained.
    pub fn checkpoint(&self) -> Result<(), EvalError> {
        self.ensure_recovered()?;
        let wal = lock(&self.shared.wal).clone();
        if let Some(w) = &wal {
            w.sync_all()?;
        }
        let mut tables = lock(&self.shared.tables);
        for t in tables.values() {
            t.pool.flush()?;
        }
        // The WAL is durable (sync_all above), so every staged catalog
        // entry can now be renamed into place — and must be, before the
        // truncation below discards the records that would redo it.
        self.flush_staged(&mut tables)?;
        drop(tables);
        // Crash window: data durable, log not yet truncated — recovery
        // finds every page it has records for imaged, and puts the same
        // bytes back.
        htqo_engine::fail_point!("storage::checkpoint");
        if let Some(w) = &wal {
            w.reset()?;
        }
        Ok(())
    }

    // ---- ingest --------------------------------------------------------

    /// Persists `rel` as `name`, replacing any previous version, and
    /// builds a B+tree index on each column named in `index_cols`
    /// (unknown columns are an error). The new version is written to a
    /// fresh generation file and switched in with an atomic catalog
    /// rename; a crash at any point leaves either the old version or the
    /// new one, never a mix. Returns the catalog entry.
    pub fn ingest(
        &self,
        name: &str,
        rel: &Relation,
        index_cols: &[&str],
    ) -> Result<TableMeta, EvalError> {
        self.ensure_recovered()?;
        // Resolve index columns before touching any file, so a bad
        // request cannot clobber an existing table.
        let mut index_pos = Vec::with_capacity(index_cols.len());
        for col in index_cols {
            let pos = rel
                .schema()
                .index_of(col)
                .ok_or_else(|| EvalError::UnknownColumn {
                    relation: name.to_string(),
                    column: col.to_string(),
                })?;
            index_pos.push((*col, pos));
        }
        // Checkpoint first: stale WAL records naming this table (or its
        // current generation file) must not outlive the switch, or a
        // later recovery would resurrect pre-ingest state over it.
        self.checkpoint()?;

        let old = self.table_meta(name).ok();
        let file_name = Self::next_gen_file(name, old.as_ref().map(|m| m.file.as_str()));
        let mut file = PageFile::create(&self.dir.join(&file_name))?;
        // Heap pages: one cell per row, in row order, so the implicit
        // rowid (enumeration order) matches the in-memory relation and
        // the index postings built from it.
        let mut builder = PageBuilder::new();
        for row in rel.iter_rows() {
            let cell = encode_cell(name, &row)?;
            if !builder.push(&cell) {
                file.append(&builder.finish())?;
                builder = PageBuilder::new();
                assert!(builder.push(&cell));
            }
        }
        if builder.cells() > 0 {
            file.append(&builder.finish())?;
        }
        let heap_pages = file.pages();

        let mut indexes = Vec::new();
        for (col, pos) in index_pos {
            let mem = MemIndex::build(rel, pos);
            let meta = btree::build_index(&mut file, mem.pairs())?;
            indexes.push((col.to_string(), meta));
        }
        file.sync()?;

        let meta = TableMeta {
            name: name.to_string(),
            rows: rel.len(),
            file: file_name,
            heap: if heap_pages > 0 {
                vec![(0, heap_pages)]
            } else {
                Vec::new()
            },
            columns: rel
                .schema()
                .columns()
                .iter()
                .map(|c| (c.name.clone(), c.ty))
                .collect(),
            indexes,
        };
        // The switch point: after this rename the new generation is
        // live; before it, the old one is untouched.
        self.write_catalogs([(name, Self::catalog_text(&meta).as_str())])?;
        // Drop the open state (its pool reads the old generation) and
        // delete the old file; a failure here just leaves an orphan for
        // the next recovery's GC.
        lock(&self.shared.tables).remove(name);
        if let Some(old) = &old {
            if old.file != meta.file {
                let _ = std::fs::remove_file(self.dir.join(&old.file));
            }
        }
        Ok(meta)
    }

    // ---- catalog io ----------------------------------------------------

    fn catalog_text(meta: &TableMeta) -> String {
        let mut text = String::new();
        text.push_str(CATALOG_HEADER);
        text.push('\n');
        text.push_str(&format!("rows {}\n", meta.rows));
        text.push_str(&format!("file {}\n", meta.file));
        for (start, count) in &meta.heap {
            text.push_str(&format!("heap {start} {count}\n"));
        }
        for (name, ty) in &meta.columns {
            text.push_str(&format!("col {} {name}\n", ty_name(*ty)));
        }
        for (col, idx) in &meta.indexes {
            text.push_str(&format!(
                "index {} {} {} {col}\n",
                idx.root, idx.distinct, idx.entries
            ));
        }
        text
    }

    /// Renames every staged catalog entry into place, between the
    /// checkpoint's log sync and truncation. Entries stay staged until
    /// all are durable: the next checkpoint retries a failure whole.
    fn flush_staged(&self, tables: &mut HashMap<String, OpenTable>) -> Result<(), EvalError> {
        let staged = tables.values().filter(|t| t.staged);
        let texts: Vec<_> = staged
            .map(|t| (t.meta.name.as_str(), Self::catalog_text(&t.meta)))
            .collect();
        self.write_catalogs(texts.iter().map(|(name, text)| (*name, text.as_str())))?;
        tables.values_mut().for_each(|t| t.staged = false);
        Ok(())
    }

    /// Durably replaces the catalog file of each `(table, text)`: temp
    /// file fsynced, renamed over the old one, and one directory fsync
    /// for them all (no fsync under `WalPolicy::Off`). Callers truncate
    /// the WAL — or delete an old generation — only after this returns.
    fn write_catalogs<'a>(
        &self,
        catalogs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<(), EvalError> {
        let mut renamed = false;
        for (name, text) in catalogs {
            let path = self.cat_path(name);
            let tmp = path.with_extension("cat.tmp");
            let res = (|| {
                use std::io::Write as _;
                let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, "create", e))?;
                f.write_all(text.as_bytes())
                    .map_err(|e| io_err(&tmp, "write", e))?;
                if self.policy != WalPolicy::Off {
                    // The rename below must never become durable ahead of
                    // its content (a power cut could otherwise persist an
                    // empty/torn catalog under a completed rename).
                    f.sync_all().map_err(|e| io_err(&tmp, "fsync", e))?;
                }
                drop(f);
                htqo_engine::fail_point!("storage::catalog_rename");
                std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, "rename", e))
            })();
            if res.is_err() {
                // A failed write or rename must not leave the temp file
                // behind.
                let _ = std::fs::remove_file(&tmp);
            }
            res?;
            renamed = true;
        }
        if renamed && self.policy != WalPolicy::Off {
            // Make the renames themselves durable: without it one could
            // silently revert after the redo record covering it is gone.
            let d = std::fs::File::open(&self.dir).map_err(|e| io_err(&self.dir, "open dir", e))?;
            d.sync_all()
                .map_err(|e| io_err(&self.dir, "fsync dir", e))?;
        }
        Ok(())
    }

    /// The committed catalog entry for `name`: an open table's in-memory
    /// entry (which a commit may have moved past the file), else the
    /// catalog file.
    pub fn table_meta(&self, name: &str) -> Result<TableMeta, EvalError> {
        match lock(&self.shared.tables).get(name) {
            Some(t) => Ok(t.meta.clone()),
            None => self.read_catalog(name),
        }
    }

    fn read_catalog(&self, name: &str) -> Result<TableMeta, EvalError> {
        let path = &self.cat_path(name);
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, "read", e))?;
        Self::parse_catalog(path, name, &text)
    }

    /// The entry of table `name` that catalog `text` spells out; `path`
    /// (the catalog file, or the log a record came from) names it in
    /// errors.
    fn parse_catalog(path: &Path, name: &str, text: &str) -> Result<TableMeta, EvalError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(CATALOG_HEADER) => {}
            // v1 stores predate the per-page checksum trailer: their
            // page files would fail every read as CorruptPage, so give
            // the operator an actionable error instead.
            Some("htqo-table v1") => {
                return Err(bad_catalog(
                    path,
                    "format v1 predates page checksums — incompatible store, re-ingest the table",
                ));
            }
            _ => return Err(bad_catalog(path, "missing header")),
        }
        let mut meta = TableMeta {
            name: name.to_string(),
            rows: 0,
            file: format!("{name}.pages"),
            heap: Vec::new(),
            columns: Vec::new(),
            indexes: Vec::new(),
        };
        for line in lines {
            let mut parts = line.split_whitespace();
            let key = parts.next();
            // The next field of the line, parsed (`what` names it in the error).
            fn field<T: std::str::FromStr>(
                parts: &mut std::str::SplitWhitespace<'_>,
                path: &Path,
                what: &str,
            ) -> Result<T, EvalError> {
                let parsed = parts.next().and_then(|s| s.parse().ok());
                parsed.ok_or_else(|| bad_catalog(path, what))
            }
            match key {
                Some("rows") => meta.rows = field(&mut parts, path, "rows")?,
                Some("file") => meta.file = field(&mut parts, path, "file")?,
                Some("heap") => {
                    let start = field(&mut parts, path, "heap start")?;
                    meta.heap
                        .push((start, field(&mut parts, path, "heap count")?));
                }
                Some("col") => {
                    let ty = parts.next().and_then(ty_parse);
                    let ty = ty.ok_or_else(|| bad_catalog(path, "col type"))?;
                    meta.columns
                        .push((field(&mut parts, path, "col name")?, ty));
                }
                Some("index") => {
                    let idx = IndexMeta {
                        root: field(&mut parts, path, "index root")?,
                        distinct: field(&mut parts, path, "index distinct")?,
                        entries: field(&mut parts, path, "index entries")?,
                    };
                    meta.indexes
                        .push((field(&mut parts, path, "index column")?, idx));
                }
                Some(other) => return Err(bad_catalog(path, &format!("unknown key {other}"))),
                None => {}
            }
        }
        // A load reserves `rows` up front: a damaged count must be an
        // error here, not an allocation failure there.
        let mut slots = 0u64;
        for &(start, count) in &meta.heap {
            if start.checked_add(count).is_none() {
                return Err(bad_catalog(
                    path,
                    &format!("heap {start} {count} overflows"),
                ));
            }
            slots = slots.saturating_add(count.saturating_mul(page::MAX_SLOTS as u64));
        }
        if meta.rows as u64 > slots {
            return Err(bad_catalog(
                path,
                &format!("rows {} exceed the {slots} slots of its heap", meta.rows),
            ));
        }
        Ok(meta)
    }

    // ---- mutations -----------------------------------------------------

    /// Appends `rows` to `table` (convenience for a one-op batch).
    pub fn append_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<TableMeta, EvalError> {
        let mut batch = MutationBatch::new(table);
        for row in rows {
            batch.append(row);
        }
        self.apply(&batch)
    }

    /// Replaces the row at `rowid` (convenience for a one-op batch).
    pub fn update_row(
        &self,
        table: &str,
        rowid: u64,
        row: Vec<Value>,
    ) -> Result<TableMeta, EvalError> {
        let mut batch = MutationBatch::new(table);
        batch.update(rowid, row);
        self.apply(&batch)
    }

    /// Tombstones the rows at `rowids` (convenience for a one-op batch).
    pub fn delete_rows(&self, table: &str, rowids: &[u64]) -> Result<TableMeta, EvalError> {
        let mut batch = MutationBatch::new(table);
        for &r in rowids {
            batch.delete(r);
        }
        self.apply(&batch)
    }

    /// Applies one [`MutationBatch`] atomically: validates everything,
    /// logs one slot record per changed page plus the new catalog text to
    /// the WAL, commits (fsync per policy), and only then hands the edits
    /// to the shared buffer pool and updates the in-memory catalog entry
    /// (the catalog *file* and the page files wait for the next
    /// checkpoint). A crash
    /// before the commit record is durable loses the whole batch; after,
    /// the whole batch survives recovery — never a partial application.
    ///
    /// Rowids in a batch address the table state *before* the batch:
    /// rows appended by the same batch cannot be updated or deleted by
    /// it. Mutations drop the table's secondary indexes (bulk-loaded
    /// B+trees are rebuilt at the next [`StorageDb::ingest`]). Returns
    /// the new catalog entry.
    pub fn apply(&self, batch: &MutationBatch) -> Result<TableMeta, EvalError> {
        self.ensure_recovered()?;
        if batch.is_empty() {
            return self.table_meta(&batch.table);
        }
        let budget = lock(&self.shared.budget).clone();
        let meta = {
            let mut tables = lock(&self.shared.tables);
            let table = self.open_table(&mut tables, &batch.table, self.cache_bytes, budget)?;
            self.commit_batch(table, batch)?
        };
        if self.wal_handle()?.size() > self.checkpoint_bytes {
            self.checkpoint()?;
        }
        Ok(meta)
    }

    /// [`StorageDb::apply`] on the open table.
    fn commit_batch(
        &self,
        st: &mut OpenTable,
        batch: &MutationBatch,
    ) -> Result<TableMeta, EvalError> {
        let pool = &st.pool;
        let mut meta = st.meta.clone();
        let arity = meta.columns.len();
        let validate = |row: &[Value]| -> Result<(), EvalError> {
            if row.len() != arity {
                return Err(EvalError::SpillIo(format!(
                    "table {}: row arity {} != schema arity {arity}",
                    batch.table,
                    row.len()
                )));
            }
            for (v, (col, ty)) in row.iter().zip(&meta.columns) {
                if !codec::type_matches(v, *ty) {
                    return Err(EvalError::SpillIo(format!(
                        "table {}: column {col} given a value of the wrong type",
                        batch.table
                    )));
                }
            }
            Ok(())
        };
        for op in &batch.ops {
            match op {
                MutOp::Append(row) | MutOp::Update(_, row) => validate(row)?,
                MutOp::Delete(_) => {}
            }
        }
        let slots = SlotDirectory::of(pool, &meta.heap, &mut st.slots)?;

        /// What the batch does to one existing heap page: the new cell of
        /// every slot it rewrites, the cells it appends, and the bytes the
        /// page will use. Only the pages the batch changes are pinned,
        /// and only while they are read.
        struct Staged {
            before: Arc<Vec<u8>>,
            used: usize,
            puts: BTreeMap<u16, Vec<u8>>,
            pushes: Vec<Vec<u8>>,
        }
        fn staged<'a>(
            pool: &BufferPool,
            changed: &'a mut BTreeMap<u64, Staged>,
            pid: u64,
        ) -> Result<&'a mut Staged, EvalError> {
            use std::collections::btree_map::Entry;
            Ok(match changed.entry(pid) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let before = pool.pin(pid)?.snapshot();
                    let used = page::page_used_bytes(&before)?;
                    e.insert(Staged {
                        before,
                        used,
                        puts: BTreeMap::new(),
                        pushes: Vec::new(),
                    })
                }
            })
        }
        let mut changed = BTreeMap::new();
        let mut appends: Vec<Vec<u8>> = Vec::new();
        let mut live_delta: i64 = 0;
        // Last lengthened row per page: pid → (rowid, slot).
        let mut grown: BTreeMap<u64, (u64, u16)> = BTreeMap::new();
        for op in &batch.ops {
            match op {
                MutOp::Append(row) => {
                    appends.push(encode_cell(&batch.table, row)?);
                    live_delta += 1;
                }
                MutOp::Update(rowid, _) | MutOp::Delete(rowid) => {
                    let (pid, slot) = slots.locate(*rowid).ok_or_else(|| {
                        EvalError::SpillIo(format!(
                            "table {}: rowid {rowid} out of range",
                            batch.table
                        ))
                    })?;
                    let page = staged(pool, &mut changed, pid)?;
                    let old_len = match page.puts.get(&slot) {
                        Some(cell) => cell.len(),
                        None => page::cell(&page.before, slot)?.len(),
                    };
                    if old_len == 0 {
                        return Err(EvalError::SpillIo(format!(
                            "table {}: rowid {rowid} is deleted",
                            batch.table
                        )));
                    }
                    let cell = match op {
                        MutOp::Update(_, row) => encode_cell(&batch.table, row)?,
                        _ => {
                            live_delta -= 1;
                            Vec::new()
                        }
                    };
                    if cell.len() > old_len {
                        grown.insert(pid, (*rowid, slot));
                    }
                    page.used = page.used - old_len + cell.len();
                    page.puts.insert(slot, cell);
                }
            }
        }

        // A lengthened row must still fit its page (rows are not
        // relocated). Checked once every op is staged, so a delete in the
        // same batch can make the room — and before appends top up the
        // last page, which only ever take what is left.
        for (pid, &(rowid, slot)) in &grown {
            let page = &changed[pid];
            if page.used > page::PAGE_DATA {
                let row_bytes = page.puts[&slot].len();
                return Err(EvalError::RowDoesNotFit {
                    table: batch.table.clone(),
                    rowid,
                    row_bytes: row_bytes as u32,
                    free_bytes: page::PAGE_DATA.saturating_sub(page.used - row_bytes) as u32,
                });
            }
        }

        // Place appends: top up the last heap page — left alone, unpinned,
        // when not even the first append fits — then fresh pages.
        let fits = |used: usize, cell: &[u8]| page::used_with(used, cell) <= page::PAGE_DATA;
        let mut append_iter = appends.into_iter().peekable();
        let mut topped_up = 0u64;
        if let (Some(&(last_pid, _)), Some(first)) = (slots.pages.last(), append_iter.peek()) {
            let used = changed.get(&last_pid).map_or(slots.tail_used, |p| p.used);
            if fits(used, first) {
                let page = staged(pool, &mut changed, last_pid)?;
                while let Some(cell) = append_iter.next_if(|cell| fits(page.used, cell)) {
                    page.used = page::used_with(page.used, &cell);
                    page.pushes.push(cell);
                    topped_up += 1;
                }
            }
        }
        let mut fresh: Vec<(usize, Vec<Vec<u8>>)> = Vec::new();
        for cell in append_iter {
            if !fresh.last().is_some_and(|(used, _)| fits(*used, &cell)) {
                fresh.push((page::used_bytes(&[]), Vec::new()));
            }
            let (used, cells) = fresh.last_mut().expect("a fresh page was just pushed");
            *used = page::used_with(*used, &cell);
            cells.push(cell);
        }

        // One slot record per changed page. Shrinking cells go first, then
        // growing ones, then appended ones: the page never holds more on
        // the way than it does at the end, so every edit fits in place —
        // here, and at replay, which applies them in this order.
        let mut records: Vec<(u64, Vec<u8>)> = Vec::with_capacity(changed.len() + fresh.len());
        for (&pid, page) in &changed {
            let mut edits = Vec::new();
            let old_len = |slot: &u16| page::cell(&page.before, *slot).map(|c| c.len());
            for grows in [false, true] {
                for (slot, cell) in &page.puts {
                    if (cell.len() > old_len(slot)?) == grows {
                        let op = if cell.is_empty() {
                            SlotOp::Tombstone
                        } else {
                            SlotOp::Put
                        };
                        wal::push_edit(&mut edits, op, *slot, cell);
                    }
                }
            }
            let cells = page::cell_count(&page.before)?;
            for (slot, cell) in (cells..).zip(&page.pushes) {
                wal::push_edit(&mut edits, SlotOp::Push, slot, cell);
            }
            records.push((pid, edits));
        }
        let last_staged = slots.pages.last().and_then(|(pid, _)| changed.get(pid));
        let tail_used = match fresh.last() {
            Some((used, _)) => *used,
            None => last_staged.map_or(slots.tail_used, |page| page.used),
        };
        // The snapshots go before the pool is edited, or every edit of a
        // resident frame would have to copy it first.
        drop(changed);
        let base = pool.next_pid();
        let fresh_count = fresh.len() as u64;
        for (pid, (_, cells)) in (base..).zip(&fresh) {
            let mut edits = Vec::new();
            for (slot, cell) in (0u16..).zip(cells) {
                wal::push_edit(&mut edits, SlotOp::Push, slot, cell);
            }
            records.push((pid, edits));
        }
        if fresh_count > 0 {
            // New pages extend the rowid space at the end, so the new
            // extent goes last (merged with a contiguous predecessor).
            match meta.heap.last_mut() {
                Some((s, c)) if *s + *c == base => *c += fresh_count,
                _ => meta.heap.push((base, fresh_count)),
            }
        }
        meta.rows = (meta.rows as i64 + live_delta) as usize;
        // Bulk-loaded B+trees cannot be maintained incrementally; the
        // next ingest rebuilds them. Stale index pages stay as dead
        // space until then.
        meta.indexes.clear();

        // Log → commit → apply: the pool only ever holds committed cells.
        let wal = self.wal_handle()?;
        pool.attach_wal(Arc::clone(&wal));
        for (pid, edits) in &records {
            wal.log_slots(&meta.file, *pid, edits)?;
        }
        wal.log_catalog(&meta.name, &Self::catalog_text(&meta))?;
        wal.commit()?;

        for (pid, edits) in &records {
            if *pid >= base {
                let got = pool.create_page()?;
                debug_assert_eq!(got, *pid);
            }
            pool.apply_logged(*pid, edits)?;
        }
        slots.slots += topped_up;
        for (pid, (used, cells)) in (base..).zip(&fresh) {
            slots.push_page(pid, cells.len() as u16, *used);
        }
        slots.tail_used = tail_used;
        st.meta = meta.clone();
        st.staged = true;
        Ok(meta)
    }

    /// The heap page and slot holding `rowid` of `table` (`None` past the
    /// last slot) — the address `apply` resolves an update or delete to.
    pub fn locate(&self, table: &str, rowid: u64) -> Result<Option<(u64, u16)>, EvalError> {
        self.ensure_recovered()?;
        let budget = lock(&self.shared.budget).clone();
        let mut tables = lock(&self.shared.tables);
        let t = self.open_table(&mut tables, table, self.cache_bytes, budget)?;
        Ok(SlotDirectory::of(&t.pool, &t.meta.heap, &mut t.slots)?.locate(rowid))
    }

    // ---- loading -------------------------------------------------------

    /// Loads one table: decodes its heap extents through the shared
    /// [`BufferPool`] (created with `cache_bytes` capacity and
    /// budget-charged when `budget` is given) straight into typed
    /// columns, skipping tombstoned slots, and attaches its indexes to
    /// the same pool.
    pub fn load_table(
        &self,
        name: &str,
        cache_bytes: u64,
        budget: Option<Budget>,
    ) -> Result<(Relation, LoadedIndexes), EvalError> {
        self.ensure_recovered()?;
        let mut tables = lock(&self.shared.tables);
        let table = self.open_table(&mut tables, name, cache_bytes, budget)?;
        let meta = &table.meta;

        let mut schema = Schema::default();
        for (col, ty) in &meta.columns {
            schema.push(col, *ty);
        }
        // The catalog's rows fit its extents; the extents must fit the file.
        let pages = table.pool.next_pid();
        if let Some(&(start, count)) = meta.heap.iter().find(|&&(s, c)| s + c > pages) {
            return Err(EvalError::SpillIo(format!(
                "table {name}: heap {start} {count} runs past the {pages} pages of {}",
                meta.file
            )));
        }
        let mut rel = Relation::new(schema);
        rel.reserve(meta.rows);
        let mut loader = rel.loader();
        let mut slots = SlotDirectory::default();
        for &(start, count) in &meta.heap {
            for pid in start..start + count {
                let page = table.pool.pin(pid)?;
                let n = page::cell_count(&page)?;
                let mut used = page::used_bytes(&[]);
                for i in 0..n {
                    let cell = page::cell(&page, i)?;
                    used = page::used_with(used, cell);
                    if !cell.is_empty() {
                        codec::load_row(name, cell, &mut loader)?;
                    }
                }
                slots.push_page(pid, n, used);
            }
        }
        drop(loader);
        if rel.len() != meta.rows {
            return Err(EvalError::SpillIo(format!(
                "table {name}: catalog says {} rows, pages hold {}",
                meta.rows,
                rel.len()
            )));
        }
        let indexes = meta
            .indexes
            .iter()
            .map(|(col, m)| {
                let idx = PagedIndex::new(Arc::clone(&table.pool), *m);
                (col.clone(), Arc::new(idx))
            })
            .collect();
        match &table.slots {
            Some(kept) => debug_assert_eq!(kept, &slots, "slot directory drifted from the pages"),
            None => table.slots = Some(slots),
        }
        Ok((rel, indexes))
    }

    /// Loads every persisted table into a [`Database`], splitting
    /// `cache_bytes` evenly across the per-table buffer pools and
    /// registering all indexes. This is the warm-restart path; it runs
    /// the recovery pass first.
    pub fn load_database(
        &self,
        cache_bytes: u64,
        budget: Option<Budget>,
    ) -> Result<Database, EvalError> {
        self.ensure_recovered()?;
        let names = self.tables()?;
        let per_table = if names.is_empty() {
            cache_bytes
        } else {
            (cache_bytes / names.len() as u64).max(crate::page::PAGE_SIZE as u64)
        };
        let mut db = Database::new();
        for name in &names {
            let (rel, indexes) = self.load_table(name, per_table, budget.clone())?;
            db.insert_table(name, rel);
            for (col, idx) in indexes {
                db.register_index(name, &col, idx);
            }
        }
        Ok(db)
    }
}

/// Encodes `row` as one heap cell of `table` (a row no page can hold errs).
fn encode_cell(table: &str, row: &[Value]) -> Result<Vec<u8>, EvalError> {
    let cell = codec::encode_row(row);
    if cell.len() > MAX_CELL {
        return Err(EvalError::SpillIo(format!(
            "table {table}: row of {} bytes exceeds page capacity",
            cell.len()
        )));
    }
    Ok(cell)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Opens a page file for recovery, first truncating any torn tail (a
/// checkpoint killed while it extended the file can leave a
/// non-page-aligned length; the images it logged first recreate whatever
/// the tear destroyed).
fn open_repair(path: &Path) -> Result<PageFile, EvalError> {
    let len = std::fs::metadata(path)
        .map_err(|e| io_err(path, "stat", e))?
        .len();
    let aligned = len - len % crate::page::PAGE_SIZE as u64;
    if aligned != len {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "open", e))?;
        f.set_len(aligned)
            .map_err(|e| io_err(path, "truncate", e))?;
    }
    PageFile::open(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_engine::{JoinIndex, Value};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("htqo-catalog-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// The pids the slot records of the log's last committed batch name.
    fn last_batch_slot_pids(dir: &Path) -> Vec<u64> {
        let scan = wal::scan(&dir.join("db.wal")).unwrap();
        let mut pids = Vec::new();
        for rec in &scan.records[..scan.committed - 1] {
            match rec {
                WalRecord::Slots { pid, .. } => pids.push(*pid),
                WalRecord::Commit { .. } => pids.clear(),
                _ => {}
            }
        }
        pids
    }

    fn sample() -> Relation {
        let mut rel = Relation::new(Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
            ("score", ColumnType::Float),
            ("day", ColumnType::Date),
        ]));
        for i in 0..500i64 {
            rel.push_row(vec![
                Value::Int(i % 50),
                Value::str(&format!("name-{i}")),
                Value::Float(i as f64 / 3.0),
                Value::Date(i as i32),
            ])
            .unwrap();
        }
        rel.push_row(vec![Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
        rel
    }

    #[test]
    fn ingest_then_warm_restart_roundtrips_rows_and_indexes() {
        let dir = tmpdir("roundtrip");
        let rel = sample();
        {
            let db = StorageDb::open(&dir).unwrap();
            db.ingest("t", &rel, &["id"]).unwrap();
        }
        // "Restart": a fresh handle with no shared state.
        let storage = StorageDb::open(&dir).unwrap();
        assert_eq!(storage.tables().unwrap(), vec!["t".to_string()]);
        let db = storage.load_database(1 << 20, None).unwrap();
        let loaded = db.table("t").unwrap();
        assert_eq!(loaded.len(), rel.len());
        assert_eq!(loaded.to_rows(), rel.to_rows());
        // A clean restart reports a no-op recovery.
        assert!(!storage.last_recovery().unwrap().did_work());
        // The persisted index agrees with a fresh in-memory one.
        let idx = db.index_on("t", "id").unwrap();
        let mem = MemIndex::build(&rel, 0);
        assert_eq!(idx.distinct_keys(), mem.distinct_keys());
        assert_eq!(idx.entries(), mem.entries());
        for key in [Value::Int(7), Value::Int(49), Value::Null, Value::Int(999)] {
            let k = htqo_engine::index::key_bytes(&key);
            assert_eq!(idx.seek(&k).unwrap(), mem.seek(&k).unwrap(), "{key:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reingest_replaces_and_bad_index_column_errors() {
        let dir = tmpdir("replace");
        let storage = StorageDb::open(&dir).unwrap();
        let rel = sample();
        storage.ingest("t", &rel, &["id"]).unwrap();
        // A bad index column fails before the page file is touched…
        assert!(storage.ingest("t", &rel, &["nope"]).is_err());
        let (still, _) = storage.load_table("t", 1 << 20, None).unwrap();
        assert_eq!(still.len(), rel.len());
        // …and a good re-ingest fully replaces the previous version —
        // in a fresh generation file, with the old one gone.
        let meta = storage.ingest("t", &rel, &[]).unwrap();
        assert!(meta.indexes.is_empty());
        assert_ne!(meta.file, "t.pages");
        assert!(!dir.join("t.pages").exists(), "old generation deleted");
        let (loaded, indexes) = storage.load_table("t", 1 << 20, None).unwrap();
        assert_eq!(loaded.len(), rel.len());
        assert!(indexes.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_charges_the_page_cache_against_the_budget() {
        let dir = tmpdir("budget");
        let storage = StorageDb::open(&dir).unwrap();
        storage.ingest("t", &sample(), &["id"]).unwrap();
        // A fresh handle so the ingest-time pool is not reused.
        let storage = StorageDb::open(&dir).unwrap();
        let mut master = Budget::unlimited().with_mem_limit(1 << 30);
        let observer = master.fork();
        let cache = 2 * crate::page::PAGE_SIZE as u64;
        let db = storage.load_database(cache, Some(master.fork())).unwrap();
        assert!(observer.mem_used() > 0, "resident pages are charged");
        assert!(observer.mem_used() <= cache, "never more than the cap");
        drop(db);
        // The shared pool keeps its frames until the handle drops too.
        drop(storage);
        assert_eq!(observer.mem_used(), 0, "dropping the db frees the cache");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutations_roundtrip_through_restart() {
        let dir = tmpdir("mutate");
        let storage = StorageDb::open(&dir).unwrap();
        let mut rel = Relation::new(Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
        ]));
        for i in 0..10i64 {
            rel.push_row(vec![Value::Int(i), Value::str(&format!("r{i}"))])
                .unwrap();
        }
        storage.ingest("t", &rel, &["id"]).unwrap();

        // Append, update, delete in one batch.
        let mut batch = MutationBatch::new("t");
        batch
            .append(vec![Value::Int(100), Value::str("new-a")])
            .append(vec![Value::Int(101), Value::str("new-b")])
            .update(3, vec![Value::Int(33), Value::str("updated")])
            .delete(5);
        let meta = storage.apply(&batch).unwrap();
        assert_eq!(meta.rows, 11); // 10 + 2 - 1
        assert!(meta.indexes.is_empty(), "mutations drop indexes");

        // Visible immediately through the shared pool…
        let (rel2, _) = storage.load_table("t", 1 << 20, None).unwrap();
        let rows = rel2.to_rows();
        assert_eq!(rows.len(), 11);
        assert!(rows.iter().any(|r| r[1] == Value::str("updated")));
        assert!(!rows.iter().any(|r| r[0] == Value::Int(5)));
        assert!(rows.iter().any(|r| r[0] == Value::Int(101)));

        // …and after a full restart (checkpoint not required: the WAL
        // replays into the pool).
        storage.simulate_crash();
        let storage2 = StorageDb::open(&dir).unwrap();
        let report = storage2.recover().unwrap();
        assert!(report.batches_replayed >= 1);
        let (rel3, _) = storage2.load_table("t", 1 << 20, None).unwrap();
        assert_eq!(rel3.to_rows(), rows);

        // Deleted and out-of-range rowids are typed errors.
        assert!(storage2.delete_rows("t", &[5]).is_err(), "double delete");
        assert!(storage2.delete_rows("t", &[999]).is_err(), "out of range");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_that_outgrows_its_page_is_refused_before_logging() {
        let dir = tmpdir("outgrow");
        let storage = StorageDb::open(&dir).unwrap();
        let mut rel = Relation::new(Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
        ]));
        // Enough rows that the first heap page is full.
        for i in 0..2000i64 {
            rel.push_row(vec![Value::Int(i), Value::str("x")]).unwrap();
        }
        storage.ingest("t", &rel, &[]).unwrap();
        let before = storage.load_table("t", 1 << 20, None).unwrap().0.to_rows();
        let wal_len = || std::fs::metadata(dir.join("db.wal")).map_or(0, |m| m.len());
        let wal_before = wal_len();

        // A valid update, but row 0's page has no room for 600 more bytes.
        let long = "y".repeat(600);
        let mut batch = MutationBatch::new("t");
        batch
            .append(vec![Value::Int(-1), Value::str("appended")])
            .update(0, vec![Value::Int(0), Value::str(&long)]);
        let err = storage.apply(&batch).unwrap_err();
        match &err {
            EvalError::RowDoesNotFit {
                table,
                rowid,
                row_bytes,
                free_bytes,
            } => {
                assert_eq!((table.as_str(), *rowid), ("t", 0));
                assert!(row_bytes > free_bytes && *row_bytes > 600, "{err}");
            }
            other => panic!("expected RowDoesNotFit, got {other:?}"),
        }
        assert!(!err.is_retryable() && !err.is_resource_limit());

        // Nothing was logged or applied: same WAL, same rows, also after a
        // restart; the table keeps accepting batches that fit.
        assert_eq!(wal_len(), wal_before);
        assert_eq!(
            storage.load_table("t", 1 << 20, None).unwrap().0.to_rows(),
            before
        );
        storage.simulate_crash();
        let storage2 = StorageDb::open(&dir).unwrap();
        storage2.recover().unwrap();
        assert_eq!(
            storage2.load_table("t", 1 << 20, None).unwrap().0.to_rows(),
            before
        );
        // 24 bytes more than the page's slack (< one 19-byte row); two
        // deletes in the same batch free 30 and make the room.
        let mut batch = MutationBatch::new("t");
        batch.update(0, vec![Value::Int(0), Value::str(&"y".repeat(25))]);
        assert!(matches!(
            storage2.apply(&batch),
            Err(EvalError::RowDoesNotFit { .. })
        ));
        batch.delete(1).delete(2);
        assert_eq!(storage2.apply(&batch).unwrap().rows, 1998);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_wal_and_preserves_state() {
        let dir = tmpdir("checkpoint");
        let storage = StorageDb::open(&dir).unwrap();
        let mut rel = Relation::new(Schema::new(&[("id", ColumnType::Int)]));
        for i in 0..4i64 {
            rel.push_row(vec![Value::Int(i)]).unwrap();
        }
        storage.ingest("t", &rel, &[]).unwrap();
        storage
            .append_rows("t", vec![vec![Value::Int(42)]])
            .unwrap();
        let wal_len_before = std::fs::metadata(dir.join("db.wal")).unwrap().len();
        assert!(wal_len_before > wal::WAL_HEADER);
        storage.checkpoint().unwrap();
        let wal_len_after = std::fs::metadata(dir.join("db.wal")).unwrap().len();
        assert_eq!(wal_len_after, wal::WAL_HEADER);
        // State intact after checkpoint + crash (nothing to replay).
        storage.simulate_crash();
        let storage2 = StorageDb::open(&dir).unwrap();
        let report = storage2.recover().unwrap();
        assert_eq!(report.batches_replayed, 0);
        let (rel2, _) = storage2.load_table("t", 1 << 20, None).unwrap();
        assert_eq!(rel2.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The commit contract under every policy: `Ok` from `apply` means
    /// the batch is in the log and served from memory, and the catalog
    /// file has not been touched — there is no step after the commit
    /// that could fail a batch which is already durable. `checkpoint()`
    /// is what writes the file.
    #[test]
    fn apply_leaves_the_catalog_file_to_the_checkpoint_under_every_policy() {
        for policy in [WalPolicy::Commit, WalPolicy::Batch, WalPolicy::Off] {
            let dir = tmpdir(&format!("staged-{policy:?}"));
            let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
            let mut rel = Relation::new(Schema::new(&[("id", ColumnType::Int)]));
            for i in 0..3i64 {
                rel.push_row(vec![Value::Int(i)]).unwrap();
            }
            storage.ingest("t", &rel, &[]).unwrap();
            let on_disk = std::fs::read(dir.join("t.cat")).unwrap();
            let meta = storage.append_rows("t", vec![vec![Value::Int(9)]]).unwrap();
            assert_eq!(meta.rows, 4);
            assert_eq!(
                std::fs::read(dir.join("t.cat")).unwrap(),
                on_disk,
                "{policy:?}: apply wrote the catalog file"
            );
            assert!(!dir.join("t.cat.tmp").exists());
            // Readers see the committed state, including a second batch
            // stacked on the first.
            let (rel2, _) = storage.load_table("t", 1 << 20, None).unwrap();
            assert_eq!(rel2.len(), 4);
            storage
                .append_rows("t", vec![vec![Value::Int(10)]])
                .unwrap();
            assert_eq!(storage.table_meta("t").unwrap().rows, 5);
            assert_eq!(std::fs::read(dir.join("t.cat")).unwrap(), on_disk);
            // Checkpoint syncs the log, so the staged entry lands on disk
            // (once: a second checkpoint has nothing staged).
            storage.checkpoint().unwrap();
            let flushed = std::fs::read_to_string(dir.join("t.cat")).unwrap();
            assert!(flushed.contains("rows 5"), "{policy:?}: {flushed}");
            std::fs::remove_file(dir.join("t.cat")).unwrap();
            storage.checkpoint().unwrap();
            assert!(!dir.join("t.cat").exists(), "nothing left staged");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Once the slot directory exists a commit pins exactly the pages it
    /// changes, once each, however many heap pages the table has.
    #[test]
    fn apply_pins_only_the_pages_it_changes() {
        let dir = tmpdir("pins");
        let storage = StorageDb::open_with(&dir, WalPolicy::Off, u64::MAX).unwrap();
        let mut rel = Relation::new(Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
        ]));
        for i in 0..20_000i64 {
            rel.push_row(vec![Value::Int(i), Value::str("x")]).unwrap();
        }
        let meta = storage.ingest("t", &rel, &[]).unwrap();
        let heap_pages = meta.heap_pages();
        assert!(heap_pages > 40, "{heap_pages} heap pages");
        // A pool far smaller than the table, as after a reload.
        storage
            .load_table("t", 8 * crate::page::PAGE_SIZE as u64, None)
            .unwrap();
        let pool = Arc::clone(&lock(&storage.shared.tables)["t"].pool);
        let pins = || {
            let s = pool.stats();
            s.hits + s.misses
        };
        let (first, _) = storage.locate("t", 0).unwrap().unwrap();
        let (mid, _) = storage.locate("t", 10_000).unwrap().unwrap();
        let (last, _) = storage.locate("t", 19_999).unwrap().unwrap();
        assert!(first < mid && mid < last);

        // Two ops on one page and one on another: two pages pinned to
        // stage them; the committed edits reach the pool without a pin.
        let before = pins();
        let mut batch = MutationBatch::new("t");
        batch
            .update(0, vec![Value::Int(-1), Value::str("y")])
            .delete(1)
            .delete(10_000);
        storage.apply(&batch).unwrap();
        assert_eq!(pins() - before, 2);

        // Appends alone touch the last page only.
        let before = pins();
        storage
            .append_rows("t", vec![vec![Value::Int(7), Value::str("z")]])
            .unwrap();
        assert_eq!(pins() - before, 1);
        assert_eq!(
            storage.locate("t", 20_000).unwrap().map(|(pid, _)| pid),
            Some(last)
        );
        assert_eq!(storage.locate("t", 20_001).unwrap(), None);

        // An append the last page has no room for leaves that page alone:
        // not pinned, and the batch's one slot record is the fresh page's.
        let before = pins();
        let wide = Value::str(&"w".repeat(MAX_CELL - 64));
        let meta = storage
            .append_rows("t", vec![vec![Value::Int(8), wide]])
            .unwrap();
        assert_eq!(pins() - before, 0);
        assert_eq!(meta.heap_pages(), heap_pages + 1);
        let (fresh, slot) = storage.locate("t", 20_001).unwrap().unwrap();
        assert!(fresh > last && slot == 0);
        assert_eq!(last_batch_slot_pids(&dir), [fresh]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file of the directory, by name.
    fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        let entries = std::fs::read_dir(dir).unwrap();
        let file = |e: std::io::Result<std::fs::DirEntry>| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        };
        entries.map(file).collect()
    }

    /// A restart reads the log and rewrites nothing: over a log of slot,
    /// catalog and commit records, recovery leaves every file of the
    /// directory — page files, catalog files, the log — byte for byte as
    /// the crash left it and syncs nothing, yet every reader sees the
    /// committed state; run again it does the same again; and the next
    /// checkpoint is what brings the files up to date.
    #[test]
    fn recovery_writes_nothing_it_does_not_have_to() {
        for policy in [WalPolicy::Commit, WalPolicy::Batch, WalPolicy::Off] {
            let dir = tmpdir(&format!("nowrite-{policy:?}"));
            let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
            let rel = sample();
            storage.ingest("t", &rel, &["id"]).unwrap();
            storage.ingest("u", &rel, &[]).unwrap();
            let heap_pages = storage.table_meta("t").unwrap().heap_pages();
            let row = |i: i64| {
                vec![
                    Value::Int(i),
                    Value::str(&format!("appended-{i}")),
                    Value::Float(0.5),
                    Value::Date(7),
                ]
            };
            // Updates, deletes, top-up appends and fresh pages, on both
            // tables, across several commits.
            for i in 0..6i64 {
                let mut batch = MutationBatch::new(if i % 3 == 0 { "u" } else { "t" });
                batch.update(i as u64, row(-i)).delete(100 + i as u64);
                for j in 0..60 {
                    batch.append(row(1000 * i + j));
                }
                storage.apply(&batch).unwrap();
            }
            let meta = storage.table_meta("t").unwrap();
            assert!(meta.heap_pages() > heap_pages, "fresh pages were created");
            let rows = |s: &StorageDb, t: &str| s.load_table(t, 1 << 20, None).unwrap().0.to_rows();
            let committed = [rows(&storage, "t"), rows(&storage, "u")];
            let last_slot = (0..).find(|&r| storage.locate("t", r).unwrap().is_none());
            storage.simulate_crash();

            let crashed = dir_files(&dir);
            let fsyncs = storage.wal_stats().fsyncs;
            let first = storage.recover().unwrap();
            assert_eq!(
                dir_files(&dir),
                crashed,
                "{policy:?}: recovery wrote a file"
            );
            assert_eq!(storage.wal_stats().fsyncs, fsyncs, "{policy:?}");
            assert_eq!((first.batches_replayed, first.catalogs_redone), (6, 6));
            assert_eq!((first.pages_written, first.images_restored), (0, 0));
            assert!(first.slot_records_redone >= 6 && first.pages_redone >= 4);
            assert!(first.kept_bytes > 0 && first.kept_bytes < first.wal_bytes);
            assert!(first.did_work());

            // Invariant 3: everything that reads the store sees the staged
            // entries and the kept edits.
            assert_eq!(storage.table_meta("t").unwrap().heap, meta.heap);
            assert_eq!(storage.table_meta("t").unwrap().rows, meta.rows);
            assert_eq!(
                (0..).find(|&r| storage.locate("t", r).unwrap().is_none()),
                last_slot
            );
            assert_eq!([rows(&storage, "t"), rows(&storage, "u")], committed);
            assert_eq!(dir_files(&dir), crashed, "{policy:?}: a read wrote a file");

            // Invariant 2: a second restart is the first one again.
            storage.simulate_crash();
            assert_eq!(storage.recover().unwrap(), first);
            assert_eq!(dir_files(&dir), crashed);

            // The checkpoint is the writer: pages and catalogs catch up,
            // the log empties, and the next restart has nothing to do.
            storage.checkpoint().unwrap();
            let flushed = dir_files(&dir);
            assert_ne!(flushed["t.pages"], crashed["t.pages"]);
            assert_ne!(flushed["u.cat"], crashed["u.cat"]);
            assert_eq!(flushed["db.wal"].len() as u64, wal::WAL_HEADER);
            storage.simulate_crash();
            assert!(!storage.recover().unwrap().did_work());
            assert_eq!([rows(&storage, "t"), rows(&storage, "u")], committed);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A pool recovery opened takes its capacity and budget from the
    /// first reader, as a pool opened by that reader would.
    #[test]
    fn a_pool_recovery_opened_is_sized_by_its_first_reader() {
        let dir = tmpdir("parked");
        let storage = StorageDb::open_with(&dir, WalPolicy::Commit, u64::MAX).unwrap();
        storage.ingest("t", &sample(), &[]).unwrap();
        storage.delete_rows("t", &[0, 1]).unwrap();
        storage.simulate_crash();
        storage.recover().unwrap();
        let pool = Arc::clone(&lock(&storage.shared.tables)["t"].pool);
        assert_eq!(pool.stats().capacity, 1, "caches nothing until opened");
        let mut master = Budget::unlimited().with_mem_limit(1 << 30);
        let observer = master.fork();
        let cache = 2 * crate::page::PAGE_SIZE as u64;
        let (rel, _) = storage.load_table("t", cache, Some(master.fork())).unwrap();
        assert_eq!(rel.len(), sample().len() - 2);
        assert_eq!(pool.stats().capacity, 2);
        assert_eq!(
            observer.mem_used(),
            cache,
            "frames charge the reader's budget"
        );
        // First open wins, as it does without a restart in between.
        storage.load_table("t", 8 * cache, None).unwrap();
        assert_eq!(pool.stats().capacity, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Invariant 5: restarts neither grow the log nor keep it from being
    /// emptied — `apply` checkpoints on the same threshold as in a process
    /// that never crashed, so the log (and the edits the pools keep) stay
    /// within the threshold plus one batch across any number of restarts.
    #[test]
    fn the_log_stays_within_the_threshold_across_restarts() {
        let dir = tmpdir("bounded");
        let threshold = 4096u64;
        let storage = StorageDb::open_with(&dir, WalPolicy::Commit, threshold).unwrap();
        storage.ingest("t", &sample(), &[]).unwrap();
        let wal_len = || std::fs::metadata(dir.join("db.wal")).map_or(0, |m| m.len());
        let (mut largest_batch, mut checkpoints, mut longest) = (0, 0, 0);
        let mut expected = sample().len();
        for round in 0..40i64 {
            let before = wal_len();
            let rows = (0..4).map(|j| {
                vec![
                    Value::Int(round),
                    Value::str(&format!("round-{round}-{j}")),
                    Value::Float(1.0),
                    Value::Date(1),
                ]
            });
            storage.append_rows("t", rows.collect()).unwrap();
            expected += 4;
            let after = wal_len();
            if after > before {
                largest_batch = largest_batch.max(after - before);
            } else {
                checkpoints += 1;
            }
            longest = longest.max(after);
            storage.simulate_crash();
            let report = storage.recover().unwrap();
            assert_eq!(wal_len(), after, "a restart changed the log");
            assert!(report.kept_bytes <= after);
            // A restart with no commit behind it: the same log again.
            storage.simulate_crash();
            assert_eq!(storage.recover().unwrap(), report);
            assert_eq!(wal_len(), after);
        }
        assert!(checkpoints >= 2, "the threshold was never reached");
        assert!(longest <= threshold + largest_batch, "{longest} bytes");
        assert_eq!(
            storage.load_table("t", 1 << 20, None).unwrap().0.len(),
            expected
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_knobs_parse_or_are_refused_by_name() {
        for name in ["HTQO_WAL_CHECKPOINT", "HTQO_PAGE_CACHE"] {
            assert_eq!(bytes_knob(name, None, 77).unwrap(), 77, "unset: default");
            assert_eq!(bytes_knob(name, Some("4096"), 77).unwrap(), 4096);
            assert_eq!(bytes_knob(name, Some("2M"), 77).unwrap(), 2 << 20);
            for bad in ["", "1 MiB", "4x", "-1"] {
                let err = format!("{}", bytes_knob(name, Some(bad), 77).unwrap_err());
                assert!(
                    err.contains(name) && err.contains(&format!("'{bad}'")),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn unreadable_catalog_disables_orphan_gc() {
        let dir = tmpdir("badcat");
        {
            let storage = StorageDb::open(&dir).unwrap();
            storage.ingest("t", &sample(), &[]).unwrap();
        }
        std::fs::write(dir.join("t.cat"), "not a catalog\n").unwrap();
        std::fs::write(dir.join("t.9.pages"), vec![0u8; 16]).unwrap();
        let storage = StorageDb::open(&dir).unwrap();
        let report = storage.recover().unwrap();
        assert_eq!(report.unreadable_catalogs, 1);
        assert_eq!(report.orphans_removed, 0);
        assert!(dir.join("t.pages").exists(), "data must never be GC'd");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A load reserves the catalog's row count before it reads a page, so
    /// a damaged `rows` or `heap` line must be a typed error, never an
    /// allocation of that size (which aborts the process) or an overflow.
    #[test]
    fn damaged_row_counts_and_extents_are_typed_errors() {
        let dir = tmpdir("damaged-rows");
        let mut rel = Relation::new(Schema::new(&[("id", ColumnType::Int)]));
        rel.push_row(vec![Value::Int(7)]).unwrap();
        let meta = StorageDb::open(&dir)
            .unwrap()
            .ingest("t", &rel, &[])
            .unwrap();
        assert_eq!(meta.heap, [(0, 1)]);
        let good = StorageDb::catalog_text(&meta);
        for (from, to, want) in [
            ("rows 1\n", "rows 5\n", "catalog says 5 rows, pages hold 1"),
            ("rows 1\n", "rows 1000000000000\n", "exceed the 2045 slots"),
            (
                "rows 1\n",
                format!("rows {}\n", usize::MAX).as_str(),
                "exceed the 2045 slots",
            ),
            (
                "heap 0 1\n",
                format!("heap {} 2\n", u64::MAX).as_str(),
                "overflows",
            ),
            ("heap 0 1\n", "heap 0 1000000000\n", "runs past the 1 pages"),
        ] {
            let text = good.replace(from, to);
            assert_ne!(text, good);
            std::fs::write(dir.join("t.cat"), &text).unwrap();
            let storage = StorageDb::open(&dir).unwrap();
            match storage.load_table("t", 1 << 20, None) {
                Err(EvalError::SpillIo(msg)) => assert!(msg.contains(want), "{to:?}: {msg}"),
                other => panic!(
                    "{to:?}: expected a typed error, got {:?}",
                    other.map(|r| r.0.len())
                ),
            }
        }
        std::fs::write(dir.join("t.cat"), &good).unwrap();
        let storage = StorageDb::open(&dir).unwrap();
        assert_eq!(storage.load_table("t", 1 << 20, None).unwrap().0.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_catalog_is_rejected_with_reingest_error() {
        let dir = tmpdir("v1");
        let storage = StorageDb::open(&dir).unwrap();
        std::fs::write(dir.join("old.cat"), "htqo-table v1\nrows 0\n").unwrap();
        let msg = format!("{}", storage.table_meta("old").unwrap_err());
        assert!(msg.contains("re-ingest"), "unhelpful v1 error: {msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_fill_the_last_heap_page_before_growing() {
        let dir = tmpdir("fill");
        let storage = StorageDb::open(&dir).unwrap();
        let mut rel = Relation::new(Schema::new(&[("id", ColumnType::Int)]));
        rel.push_row(vec![Value::Int(0)]).unwrap();
        let before = storage.ingest("t", &rel, &[]).unwrap();
        assert_eq!(before.heap_pages(), 1);
        // A handful of small rows fits the existing page.
        let after = storage
            .append_rows("t", (1..10i64).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        assert_eq!(after.heap_pages(), 1, "no new page for small appends");
        assert_eq!(after.rows, 10);
        assert_eq!(last_batch_slot_pids(&dir), [0]);
        // Fill the page to the last whole row (13 bytes each, slot
        // included, behind a 4-byte header). The next batch then grows the
        // heap at once and does not log the full page at all.
        let row = vec![Value::Int(i64::MAX)];
        let room = (page::PAGE_DATA - 4 - 10 * 13) / 13;
        storage.append_rows("t", vec![row.clone(); room]).unwrap();
        assert_eq!(last_batch_slot_pids(&dir), [0]);
        let grown = storage.append_rows("t", vec![row; 8]).unwrap();
        assert_eq!(grown.heap_pages(), 2);
        assert_eq!(last_batch_slot_pids(&dir), [1]);
        // Both pages come back whole after a crash.
        storage.simulate_crash();
        let (rel, _) = storage.load_table("t", 1 << 20, None).unwrap();
        assert_eq!(rel.len(), grown.rows);
        assert_eq!(storage.recover().unwrap().pages_redone, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
