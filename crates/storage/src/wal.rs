//! Write-ahead log: redo records, group commit, and checkpoint
//! truncation.
//!
//! The WAL makes small mutations durable without rewriting whole tables
//! or whole pages. Records reuse the spill frame format — `len: u32 LE |
//! checksum: u64 LE | payload`, FxHash over the payload — after a fixed
//! 16-byte file header (magic, a format version byte, 7 reserved bytes).
//! The **LSN** of a record is simply the file offset one past its last
//! byte.
//!
//! Four payload kinds (first payload byte is the tag):
//!
//! | tag | kind      | payload                                          |
//! |-----|-----------|--------------------------------------------------|
//! | 1   | PageImage | `nlen u16 | page-file name | pid u64 | page image` |
//! | 2   | Catalog   | `nlen u16 | table name | catalog text`           |
//! | 3   | Commit    | `batch id u64`                                   |
//! | 4   | Slots     | `nlen u16 | page-file name | pid u64 | edits`    |
//!
//! A **slot record** is what a commit logs per changed page: the cells it
//! changes, as a run of edits `op u8 | slot u16 [| len u16 | cell]`
//! (`put`, `push` carry a cell, `tombstone` does not; see [`SlotEdit`]).
//! Applied in order to the page bytes they were staged against
//! ([`apply_edits`]) they reproduce the committed page, deterministically.
//! A **batch** is the slot and catalog records between two Commit
//! markers; recovery drops a batch whose marker never made it (including
//! a torn final record, which a mid-write crash can leave behind).
//!
//! A **page image** is not part of any batch. It is logged by the one
//! place that overwrites pages of a data file — a checkpoint's
//! [`crate::buffer::BufferPool::flush`] — under the write-back rule: *a
//! page is written in place only after a record holding its full image is
//! durable in the log*. A torn in-place write is therefore always
//! repairable, and an image counts wherever it sits in the log, behind a
//! commit marker or not.
//!
//! **Replay rule.** Each page is its last valid image in the log, else
//! its copy in the data file (an empty page when the pid is past the end
//! of the file), plus in log order the slot records of committed batches
//! that follow that image. Images are only ever logged while no commit is
//! in flight (a checkpoint excludes commits), so "follows the image" and
//! "committed after the image" are the same records. Recovery does not
//! write that state anywhere: it puts an imaged page back in place (the
//! image is in the log, so the write-back rule allows it) and hands the
//! slot records to the buffer pools as kept edits, exactly what the
//! commits that logged them did. Done twice it does the same twice, which
//! is what makes a crash during recovery safe.
//!
//! **The log outlives a restart.** Recovery cuts the file behind the
//! records it replays ([`WalScan::keep_len`]: the first slot or catalog
//! record of a batch whose marker never made it, or the torn frame) and
//! reopens it there with `Wal::resume`; the next commit appends behind
//! the adopted records, and only a checkpoint ([`Wal::reset`]) empties
//! the file. The cut comes before any append — and is synced when it
//! removed anything — so a later marker can never commit the remains of a
//! crashed batch. For the same reason an append that fails inside a batch
//! (a denied [`Budget`] reservation) poisons the handle like a failed
//! write does: the records in front of it must not be adopted either, and
//! then no image can ever follow an uncommitted slot record in a log.
//!
//! Logs written before slot records existed (format version 0) hold page
//! images only, as members of their batches: [`scan`] reports that in
//! [`WalScan::batch_images`] and counts an image whose batch never
//! committed to the tail that is cut. Once cut, such a log reads the same
//! under either version, and `Wal::resume` stamps it with the current
//! one before anything is appended.
//!
//! **Commit protocol.** Appends buffer in memory (byte-charged against
//! the engine [`Budget`] like every other materialization site, and
//! written through once [`PENDING_MAX`] bytes are waiting, so a long run
//! of images never holds more than that).
//! [`Wal::commit`] appends a Commit record, writes the whole pending
//! buffer to the OS, then fsyncs per [`WalPolicy`]:
//!
//! - `commit` (default): fsync on every commit — power-loss durable;
//! - `batch`: fsync every `group_every` commits (group commit) — a
//!   power cut can lose the last unsynced group, never tear a batch;
//! - `off`: never fsync — process-crash safe only.
//!
//! Under every policy the pending buffer is written to the OS at commit,
//! so a *process* crash (not power loss) never loses a committed batch.

use htqo_engine::{Budget, EvalError};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// First 8 bytes of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"htqoWAL1";

/// Fixed header length: magic, format version, 7 reserved bytes.
pub const WAL_HEADER: u64 = 16;

/// Format version stamped after the magic: page images stand alone and
/// commits log slot records. Version 0 (the byte was reserved) is the
/// image-per-touched-page format.
const WAL_VERSION: u8 = 2;

/// Frame prefix: `len u32 | checksum u64`.
const FRAME: usize = 12;

/// Sanity cap on one record's payload; anything larger is treated as a
/// torn length field during scan.
const MAX_PAYLOAD: usize = 1 << 20;

/// Pending bytes beyond which an append writes the buffer through to the
/// OS first (no fsync): bounds the [`Budget`] reservation of a checkpoint
/// or recovery that logs hundreds of images in a row.
pub const PENDING_MAX: usize = 64 * 1024;

const TAG_PAGE: u8 = 1;
const TAG_CATALOG: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_SLOTS: u8 = 4;

const OP_PUT: u8 = 0;
const OP_TOMBSTONE: u8 = 1;
const OP_PUSH: u8 = 2;

/// Commits between fsyncs under [`WalPolicy::Batch`].
pub const GROUP_EVERY: u64 = 8;

fn checksum(payload: &[u8]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = htqo_engine::hash::FxHasher::default();
    payload.hash(&mut h);
    h.finish()
}

fn io_err(path: &Path, op: &str, e: std::io::Error) -> EvalError {
    EvalError::SpillIo(format!("{}: wal {op}: {e}", path.display()))
}

fn bad_edit(what: &str) -> EvalError {
    EvalError::SpillIo(format!("wal slot record: {what}"))
}

/// When the WAL fsyncs (see the module docs for the durability ladder).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WalPolicy {
    /// Never fsync: process-crash safe, not power-loss safe.
    Off,
    /// Fsync on every commit (the default).
    #[default]
    Commit,
    /// Group commit: fsync every [`GROUP_EVERY`] commits.
    Batch,
}

/// What one edit of a slot record does to its page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOp {
    /// Replace the cell of an existing slot.
    Put,
    /// Turn an existing slot into a tombstone.
    Tombstone,
    /// Append a cell as the next slot.
    Push,
}

/// One decoded edit of a slot record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotEdit<'a> {
    /// What to do.
    pub op: SlotOp,
    /// The slot it addresses; for [`SlotOp::Push`], the slot the cell
    /// becomes — replay checks it against the page's cell count, so a
    /// record applied to the wrong page state is an error, not a
    /// duplicated row.
    pub slot: u16,
    /// The new cell (empty for a tombstone).
    pub cell: &'a [u8],
}

/// Appends the encoding of one edit to `edits`.
pub fn push_edit(edits: &mut Vec<u8>, op: SlotOp, slot: u16, cell: &[u8]) {
    assert!(cell.len() <= crate::page::MAX_CELL, "cell exceeds a page");
    edits.push(match op {
        SlotOp::Put => OP_PUT,
        SlotOp::Tombstone => OP_TOMBSTONE,
        SlotOp::Push => OP_PUSH,
    });
    edits.extend_from_slice(&slot.to_le_bytes());
    if op != SlotOp::Tombstone {
        edits.extend_from_slice(&(cell.len() as u16).to_le_bytes());
        edits.extend_from_slice(cell);
    }
}

/// Decodes the edits of a slot record, in order; a run that does not
/// parse to its last byte yields an error and ends.
pub fn edits(mut bytes: &[u8]) -> impl Iterator<Item = Result<SlotEdit<'_>, EvalError>> {
    std::iter::from_fn(move || {
        if bytes.is_empty() {
            return None;
        }
        let edit = next_edit(&mut bytes);
        if edit.is_err() {
            bytes = &[];
        }
        Some(edit)
    })
}

/// Splits the first edit off a non-empty run.
fn next_edit<'a>(bytes: &mut &'a [u8]) -> Result<SlotEdit<'a>, EvalError> {
    let take = |bytes: &mut &'a [u8], n: usize| -> Result<&'a [u8], EvalError> {
        if bytes.len() < n {
            return Err(bad_edit("edit runs past the record"));
        }
        let (head, rest) = bytes.split_at(n);
        *bytes = rest;
        Ok(head)
    };
    let op = match take(bytes, 1)?[0] {
        OP_PUT => SlotOp::Put,
        OP_TOMBSTONE => SlotOp::Tombstone,
        OP_PUSH => SlotOp::Push,
        _ => return Err(bad_edit("unknown edit")),
    };
    let u16_of = |b: &[u8]| u16::from_le_bytes([b[0], b[1]]);
    let slot = u16_of(take(bytes, 2)?);
    let cell = match op {
        SlotOp::Tombstone => &[][..],
        SlotOp::Put | SlotOp::Push => {
            let len = u16_of(take(bytes, 2)?) as usize;
            take(bytes, len)?
        }
    };
    Ok(SlotEdit { op, slot, cell })
}

/// Applies the edits of a slot record to `page`, in order and in place
/// ([`crate::page::put_cell`] and friends). A slot out of range or a cell
/// the page cannot hold is a typed error — the record was not logged
/// against these page bytes.
pub fn apply_edits(page: &mut [u8], record: &[u8]) -> Result<(), EvalError> {
    for edit in edits(record) {
        let edit = edit?;
        match edit.op {
            SlotOp::Put => crate::page::put_cell(page, edit.slot, edit.cell)?,
            SlotOp::Tombstone => crate::page::tombstone_cell(page, edit.slot)?,
            SlotOp::Push => {
                if crate::page::cell_count(page)? != edit.slot {
                    return Err(bad_edit("pushed slot out of range"));
                }
                crate::page::push_cell(page, edit.cell)?;
            }
        }
    }
    Ok(())
}

/// One record recovered by [`scan`].
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Full image of page `pid` in the named page file.
    Page {
        /// Page-file name within the storage directory (generation
        /// specific, e.g. `t.3.pages`).
        file: String,
        /// Page id within that file.
        pid: u64,
        /// The [`crate::page::PAGE_SIZE`] image (trailer unstamped; the
        /// pager restamps on write).
        image: Vec<u8>,
    },
    /// The cells one commit changes on page `pid` of the named page file.
    Slots {
        /// Page-file name within the storage directory.
        file: String,
        /// Page id within that file.
        pid: u64,
        /// The encoded edits ([`edits`] decodes, [`apply_edits`] replays).
        edits: Vec<u8>,
    },
    /// Full replacement text for a table's catalog file.
    Catalog {
        /// Table name.
        table: String,
        /// New catalog text.
        text: String,
    },
    /// End of a batch: the slot and catalog records since the previous
    /// marker are committed.
    Commit {
        /// The batch's sequence number within its log.
        batch: u64,
    },
}

/// Result of scanning a WAL file: every valid record in order, how far
/// the committed prefix reaches, and what had to be dropped from the
/// tail.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// Every valid record, oldest first, commit markers included.
    pub records: Vec<WalRecord>,
    /// `records[..committed]` ends with the last commit marker: slot and
    /// catalog records at or past it belong to a batch that never
    /// committed and must not be replayed.
    pub committed: usize,
    /// True for a version-0 log: its page images are members of their
    /// batches, so one at or past `committed` must not be replayed either.
    pub batch_images: bool,
    /// True when the scan stopped at a torn or corrupt record before
    /// end-of-file.
    pub torn_tail: bool,
    /// Slot and catalog records after the last valid Commit (an
    /// uncommitted batch) plus the torn record, if any.
    pub dropped_records: u64,
    /// Bytes in the file when scanned.
    pub bytes: u64,
    /// Offset one past the last valid record.
    pub valid_len: u64,
    /// `records[..keep]` is what recovery replays and leaves in the file:
    /// everything in front of the first slot or catalog record (in a
    /// version-0 log, also image) that no commit marker follows. Images
    /// in front of that record stand; none can sit behind it (see the
    /// module docs).
    pub keep: usize,
    /// Offset one past `records[..keep]` — where recovery cuts the file
    /// and `Wal::resume` appends.
    pub keep_len: u64,
}

impl WalScan {
    /// Number of committed batches.
    pub fn batches(&self) -> usize {
        let committed = &self.records[..self.committed];
        let markers = committed
            .iter()
            .filter(|r| matches!(r, WalRecord::Commit { .. }));
        markers.count()
    }
}

/// Bytes appended per record kind (frames included), commits and fsyncs
/// — what a log did, counted by the log itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Bytes of slot records.
    pub slot_bytes: u64,
    /// Bytes of page-image records.
    pub image_bytes: u64,
    /// Bytes of catalog records.
    pub catalog_bytes: u64,
    /// Bytes of commit markers.
    pub commit_bytes: u64,
    /// Batches committed.
    pub commits: u64,
    /// `fsync` calls on the log file.
    pub fsyncs: u64,
}

impl WalStats {
    /// Total bytes appended, all kinds.
    pub fn bytes(&self) -> u64 {
        self.slot_bytes + self.image_bytes + self.catalog_bytes + self.commit_bytes
    }

    /// Adds `other`'s counts to `self` (one handle's log after another's).
    pub fn absorb(&mut self, other: WalStats) {
        self.slot_bytes += other.slot_bytes;
        self.image_bytes += other.image_bytes;
        self.catalog_bytes += other.catalog_bytes;
        self.commit_bytes += other.commit_bytes;
        self.commits += other.commits;
        self.fsyncs += other.fsyncs;
    }
}

struct WalInner {
    file: File,
    /// Offset after the last byte written to the OS (≥ [`WAL_HEADER`]).
    written: u64,
    /// Offset known durable (fsynced).
    durable: u64,
    /// Appended records not yet written to the OS.
    pending: Vec<u8>,
    commits_since_sync: u64,
    batch_seq: u64,
    budget: Option<Budget>,
    /// Set after a failed pending flush (the on-disk tail is torn and
    /// the offset unknown) or a failed fsync (what is durable is
    /// unknown): further appends must not pretend to work.
    poisoned: bool,
    stats: WalStats,
}

impl WalInner {
    fn uncharge_pending(&mut self) {
        if let Some(b) = self.budget.as_mut() {
            b.uncharge_bytes(self.pending.len() as u64);
        }
        self.pending.clear();
    }

    fn check_poison(&self, path: &Path) -> Result<(), EvalError> {
        if self.poisoned {
            return Err(EvalError::SpillIo(format!(
                "{}: wal poisoned by an earlier failed write or fsync",
                path.display()
            )));
        }
        Ok(())
    }

    /// Writes the pending buffer to the OS. Honors the
    /// `storage::wal_append` failpoint by leaving half the buffer behind
    /// — a torn WAL tail, exactly what a crash mid-`write(2)` produces.
    fn flush_pending(&mut self, path: &Path) -> Result<(), EvalError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.check_poison(path)?;
        self.file
            .seek(SeekFrom::Start(self.written))
            .map_err(|e| io_err(path, "seek", e))?;
        if htqo_engine::failpoint::armed() {
            if let Err(e) = htqo_engine::failpoint::eval("storage::wal_append") {
                let half = self.pending.len() / 2;
                let _ = self.file.write_all(&self.pending[..half]);
                self.uncharge_pending();
                self.poisoned = true;
                return Err(e);
            }
        }
        let n = self.pending.len() as u64;
        let res = self.file.write_all(&self.pending);
        self.uncharge_pending();
        res.map_err(|e| {
            self.poisoned = true;
            io_err(path, "write", e)
        })?;
        self.written += n;
        Ok(())
    }

    /// Fsync; on success everything written so far is durable. A failure
    /// poisons the log: the records are in the OS, which may or may not
    /// persist them, so whether the batch they end committed is decided
    /// by the next recovery — and nothing may be staged against a pool
    /// that lacks it and logged behind it in the meantime. (The crash
    /// harness asserts committed-or-absent, never partial.)
    fn fsync(&mut self, path: &Path) -> Result<(), EvalError> {
        let synced = match htqo_engine::failpoint::armed() {
            true => htqo_engine::failpoint::eval("storage::wal_fsync"),
            false => Ok(()),
        }
        .and_then(|()| self.file.sync_all().map_err(|e| io_err(path, "fsync", e)));
        self.poisoned |= synced.is_err();
        synced?;
        self.stats.fsyncs += 1;
        self.durable = self.written;
        self.commits_since_sync = 0;
        Ok(())
    }
}

/// An open write-ahead log (see the module docs for format and
/// protocol). All methods are internally synchronized.
pub struct Wal {
    path: PathBuf,
    policy: WalPolicy,
    group_every: u64,
    inner: Mutex<WalInner>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .finish()
    }
}

impl Wal {
    /// Creates `path` as an empty log, truncating any previous content:
    /// for a directory whose recovery found no log to adopt (none, or one
    /// whose header never made it to the file). A log that holds records
    /// is reopened with `Wal::resume`. WAL buffer bytes are charged
    /// against `budget` until flushed.
    pub fn open(path: &Path, policy: WalPolicy, budget: Option<Budget>) -> Result<Self, EvalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, "open", e))?;
        let mut header = [0u8; WAL_HEADER as usize];
        header[..8].copy_from_slice(WAL_MAGIC);
        header[8] = WAL_VERSION;
        file.write_all(&header)
            .map_err(|e| io_err(path, "write header", e))?;
        if policy != WalPolicy::Off {
            file.sync_all()
                .map_err(|e| io_err(path, "fsync header", e))?;
        }
        Ok(Self::at(path, policy, budget, file, WAL_HEADER, WAL_HEADER))
    }

    /// Reopens the scanned log at `path` to append behind the records
    /// recovery adopted: cuts the file at [`WalScan::keep_len`], syncs the
    /// cut (policy permitting) when it removed anything, and stamps a log
    /// of an older format with the current version. A log with nothing to
    /// cut is not written at all.
    pub(crate) fn resume(
        path: &Path,
        policy: WalPolicy,
        budget: Option<Budget>,
        scan: &WalScan,
    ) -> Result<Self, EvalError> {
        assert!(
            scan.keep_len >= WAL_HEADER,
            "resuming a log without a header"
        );
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "open", e))?;
        // Nothing is known durable: the first sync covers the whole file.
        let mut durable = 0;
        let mut fsyncs = 0;
        if scan.keep_len < scan.bytes {
            file.set_len(scan.keep_len)
                .map_err(|e| io_err(path, "truncate", e))?;
            if policy != WalPolicy::Off {
                file.sync_all().map_err(|e| io_err(path, "fsync", e))?;
                (durable, fsyncs) = (scan.keep_len, 1);
            }
        }
        if scan.batch_images {
            // Behind the (durable) cut every image left belongs to a
            // committed batch, so the log reads the same under the current
            // version — whose records are about to follow.
            file.seek(SeekFrom::Start(8))
                .and_then(|_| file.write_all(&[WAL_VERSION]))
                .map_err(|e| io_err(path, "write header", e))?;
            durable = 0;
        }
        let wal = Self::at(path, policy, budget, file, scan.keep_len, durable);
        {
            let mut inner = wal.lock();
            inner.batch_seq = scan.batches() as u64;
            inner.stats.fsyncs = fsyncs;
        }
        Ok(wal)
    }

    fn at(
        path: &Path,
        policy: WalPolicy,
        budget: Option<Budget>,
        file: File,
        written: u64,
        durable: u64,
    ) -> Self {
        Wal {
            path: path.to_path_buf(),
            policy,
            group_every: GROUP_EVERY,
            inner: Mutex::new(WalInner {
                file,
                written,
                durable,
                pending: Vec::new(),
                commits_since_sync: 0,
                batch_seq: 0,
                budget,
                poisoned: false,
                stats: WalStats::default(),
            }),
        }
    }

    /// The active sync policy.
    pub fn policy(&self) -> WalPolicy {
        self.policy
    }

    /// What this handle has appended and synced so far.
    pub fn stats(&self) -> WalStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Appends one framed record — `tag`, then `parts` back to back — to
    /// the pending buffer and returns its LSN. The buffer is written
    /// through first when it already holds [`PENDING_MAX`] bytes.
    fn append(&self, tag: u8, parts: &[&[u8]]) -> Result<u64, EvalError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.check_poison(&self.path)?;
        if inner.pending.len() >= PENDING_MAX {
            inner.flush_pending(&self.path)?;
        }
        let len = 1 + parts.iter().map(|p| p.len()).sum::<usize>();
        assert!(len <= MAX_PAYLOAD, "wal record exceeds the payload cap");
        if let Some(b) = inner.budget.as_mut() {
            // Hard reservation (like the buffer pool): a denied append
            // is a MemoryExceeded before the bytes are buffered, and a
            // granted one is immediately visible to sibling handles.
            if let Err(denied) = b.reserve_bytes((FRAME + len) as u64) {
                // Inside a batch the records in front of this one stay
                // behind, and the next commit marker would adopt them.
                inner.poisoned |= tag != TAG_PAGE;
                return Err(denied);
            }
        }
        let start = inner.pending.len();
        inner.pending.extend_from_slice(&(len as u32).to_le_bytes());
        inner.pending.extend_from_slice(&[0u8; 8]);
        inner.pending.push(tag);
        for part in parts {
            inner.pending.extend_from_slice(part);
        }
        let sum = checksum(&inner.pending[start + FRAME..]);
        inner.pending[start + 4..start + FRAME].copy_from_slice(&sum.to_le_bytes());
        let kind = match tag {
            TAG_PAGE => &mut inner.stats.image_bytes,
            TAG_SLOTS => &mut inner.stats.slot_bytes,
            TAG_CATALOG => &mut inner.stats.catalog_bytes,
            _ => &mut inner.stats.commit_bytes,
        };
        *kind += (FRAME + len) as u64;
        Ok(inner.written + inner.pending.len() as u64)
    }

    /// `nlen u16 | name` — the prefix of every record that names a file
    /// or table.
    fn name_prefix(name: &str) -> [u8; 2] {
        assert!(name.len() <= u16::MAX as usize);
        (name.len() as u16).to_le_bytes()
    }

    /// Logs a full image of page `pid` of the named page file — the
    /// record the write-back rule wants durable before the page is
    /// overwritten in place. Returns the record's LSN.
    pub fn log_page(&self, file: &str, pid: u64, image: &[u8]) -> Result<u64, EvalError> {
        assert_eq!(image.len(), crate::page::PAGE_SIZE);
        let parts: [&[u8]; 4] = [
            &Self::name_prefix(file),
            file.as_bytes(),
            &pid.to_le_bytes(),
            image,
        ];
        self.append(TAG_PAGE, &parts)
    }

    /// Logs the cells the current batch changes on page `pid` of the
    /// named page file: `edits` is a run of [`push_edit`] encodings.
    pub fn log_slots(&self, file: &str, pid: u64, edits: &[u8]) -> Result<u64, EvalError> {
        let parts: [&[u8]; 4] = [
            &Self::name_prefix(file),
            file.as_bytes(),
            &pid.to_le_bytes(),
            edits,
        ];
        self.append(TAG_SLOTS, &parts)
    }

    /// Logs a full replacement of `table`'s catalog text.
    pub fn log_catalog(&self, table: &str, text: &str) -> Result<u64, EvalError> {
        let parts: [&[u8]; 3] = [&Self::name_prefix(table), table.as_bytes(), text.as_bytes()];
        self.append(TAG_CATALOG, &parts)
    }

    /// Commits the current batch: appends a Commit record, writes the
    /// pending buffer to the OS, and fsyncs per policy. Returns the
    /// commit record's LSN.
    pub fn commit(&self) -> Result<u64, EvalError> {
        let batch_id = {
            let mut inner = self.lock();
            inner.batch_seq += 1;
            inner.batch_seq
        };
        let lsn = self.append(TAG_COMMIT, &[&batch_id.to_le_bytes()])?;
        let mut inner = self.lock();
        inner.flush_pending(&self.path)?;
        inner.stats.commits += 1;
        inner.commits_since_sync += 1;
        match self.policy {
            WalPolicy::Off => {}
            WalPolicy::Commit => inner.fsync(&self.path)?,
            WalPolicy::Batch => {
                if inner.commits_since_sync >= self.group_every {
                    inner.fsync(&self.path)?;
                }
            }
        }
        Ok(lsn)
    }

    /// Flushes and (policy permitting) fsyncs everything appended so
    /// far — the barrier in front of every in-place page write and of
    /// the checkpoint's catalog renames.
    pub fn sync_all(&self) -> Result<(), EvalError> {
        let mut inner = self.lock();
        inner.flush_pending(&self.path)?;
        if self.policy != WalPolicy::Off && inner.durable < inner.written {
            inner.fsync(&self.path)?;
        }
        Ok(())
    }

    /// Logical size in bytes (header + written + pending) — the
    /// checkpoint trigger compares this against its threshold.
    pub fn size(&self) -> u64 {
        let inner = self.lock();
        inner.written + inner.pending.len() as u64
    }

    /// Checkpoint truncation: every logged change is already durable in
    /// the data files, so the log restarts empty.
    pub fn reset(&self) -> Result<(), EvalError> {
        let mut inner = self.lock();
        inner.uncharge_pending();
        inner
            .file
            .set_len(WAL_HEADER)
            .map_err(|e| io_err(&self.path, "truncate", e))?;
        if self.policy != WalPolicy::Off {
            inner
                .file
                .sync_all()
                .map_err(|e| io_err(&self.path, "fsync", e))?;
            inner.stats.fsyncs += 1;
        }
        inner.written = WAL_HEADER;
        inner.durable = WAL_HEADER;
        inner.commits_since_sync = 0;
        inner.poisoned = false;
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.lock().uncharge_pending();
    }
}

/// `nlen u16 | name | rest` split into the name and what follows it.
fn split_name(payload: &[u8]) -> Option<(String, &[u8])> {
    let nlen = u16::from_le_bytes([*payload.first()?, *payload.get(1)?]) as usize;
    let rest = &payload[2..];
    if rest.len() < nlen {
        return None;
    }
    let name = String::from_utf8(rest[..nlen].to_vec()).ok()?;
    Some((name, &rest[nlen..]))
}

fn parse_record(payload: &[u8]) -> Option<WalRecord> {
    let (&tag, rest) = payload.split_first()?;
    match tag {
        TAG_PAGE | TAG_SLOTS => {
            let (file, rest) = split_name(rest)?;
            if rest.len() < 8 {
                return None;
            }
            let pid = u64::from_le_bytes(rest[..8].try_into().ok()?);
            let body = rest[8..].to_vec();
            if tag == TAG_PAGE {
                (body.len() == crate::page::PAGE_SIZE).then_some(WalRecord::Page {
                    file,
                    pid,
                    image: body,
                })
            } else {
                // Whether the edits fit a page is replay's question; that
                // they parse to the last byte is the record's.
                let parses = edits(&body).all(|e| e.is_ok());
                parses.then_some(WalRecord::Slots {
                    file,
                    pid,
                    edits: body,
                })
            }
        }
        TAG_CATALOG => {
            let (table, rest) = split_name(rest)?;
            let text = String::from_utf8(rest.to_vec()).ok()?;
            Some(WalRecord::Catalog { table, text })
        }
        TAG_COMMIT => Some(WalRecord::Commit {
            batch: u64::from_le_bytes(rest.try_into().ok()?),
        }),
        _ => None,
    }
}

/// Scans a WAL file, validating frame checksums, and returns its valid
/// records in order. Tolerates a torn tail: the scan stops at the first
/// truncated or corrupt record, and the slot and catalog records after
/// the last valid Commit are reported as dropped. A missing file is an
/// empty scan.
pub fn scan(path: &Path) -> Result<WalScan, EvalError> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(io_err(path, "read", e)),
    };
    let mut out = WalScan {
        bytes: data.len() as u64,
        ..WalScan::default()
    };
    if data.len() < WAL_HEADER as usize || &data[..8] != WAL_MAGIC {
        // A torn header means the log never finished initializing —
        // nothing can have committed through it.
        out.torn_tail = !data.is_empty();
        return Ok(out);
    }
    out.batch_images = data[8] < WAL_VERSION;
    let mut off = WAL_HEADER as usize;
    let mut uncommitted = 0u64;
    // The first record of the batch no marker has closed yet.
    let mut open_batch: Option<(usize, u64)> = None;
    while off < data.len() {
        if off + FRAME > data.len() {
            out.torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(data[off + 4..off + 12].try_into().unwrap());
        if len == 0 || len > MAX_PAYLOAD || off + FRAME + len > data.len() {
            out.torn_tail = true;
            break;
        }
        let payload = &data[off + FRAME..off + FRAME + len];
        let Some(rec) = (checksum(payload) == sum)
            .then(|| parse_record(payload))
            .flatten()
        else {
            out.torn_tail = true;
            break;
        };
        match rec {
            WalRecord::Commit { .. } => {
                out.committed = out.records.len() + 1;
                uncommitted = 0;
                open_batch = None;
            }
            WalRecord::Page { .. } if !out.batch_images => {}
            _ => {
                uncommitted += 1;
                open_batch.get_or_insert((out.records.len(), off as u64));
            }
        }
        out.records.push(rec);
        off += FRAME + len;
    }
    out.valid_len = off as u64;
    (out.keep, out.keep_len) = open_batch.unwrap_or((out.records.len(), out.valid_len));
    out.dropped_records = uncommitted + u64::from(out.torn_tail);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{self, PAGE_SIZE};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("htqo-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.wal")
    }

    /// `put slot 0`, `tombstone slot 1`, `push as slot 2`.
    fn sample_edits() -> Vec<u8> {
        let mut edits = Vec::new();
        push_edit(&mut edits, SlotOp::Put, 0, b"new");
        push_edit(&mut edits, SlotOp::Tombstone, 1, b"");
        push_edit(&mut edits, SlotOp::Push, 2, b"pushed");
        edits
    }

    #[test]
    fn commit_scan_roundtrip_in_log_order() {
        let path = tmp("rt");
        let wal = Wal::open(&path, WalPolicy::Commit, None).unwrap();
        let img = vec![3u8; PAGE_SIZE];
        wal.log_slots("t.0.pages", 4, &sample_edits()).unwrap();
        wal.log_catalog("t", "htqo-table v2\nrows 9\n").unwrap();
        wal.commit().unwrap();
        wal.log_page("t.0.pages", 5, &img).unwrap();
        wal.log_slots("t.0.pages", 5, &sample_edits()).unwrap();
        wal.commit().unwrap();

        let scan = scan(&path).unwrap();
        assert!(!scan.torn_tail && !scan.batch_images);
        assert_eq!(scan.dropped_records, 0);
        assert_eq!((scan.batches(), scan.committed), (2, 6));
        assert_eq!(scan.valid_len, scan.bytes);
        assert_eq!(
            (scan.keep, scan.keep_len),
            (6, scan.bytes),
            "nothing to cut"
        );
        let slots = |pid| WalRecord::Slots {
            file: "t.0.pages".into(),
            pid,
            edits: sample_edits(),
        };
        let expected = [
            slots(4),
            WalRecord::Catalog {
                table: "t".into(),
                text: "htqo-table v2\nrows 9\n".into(),
            },
            WalRecord::Commit { batch: 1 },
            WalRecord::Page {
                file: "t.0.pages".into(),
                pid: 5,
                image: img,
            },
            slots(5),
            WalRecord::Commit { batch: 2 },
        ];
        assert_eq!(scan.records, expected);

        let stats = wal.stats();
        assert_eq!((stats.commits, stats.fsyncs), (2, 2));
        assert_eq!(stats.bytes(), scan.bytes - WAL_HEADER);
        assert!(stats.image_bytes > PAGE_SIZE as u64 && stats.slot_bytes < 200);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edits_decode_and_replay_on_a_page() {
        let record = sample_edits();
        let decoded: Vec<_> = edits(&record).map(Result::unwrap).collect();
        let edit = |op, slot, cell| SlotEdit { op, slot, cell };
        assert_eq!(
            decoded,
            [
                edit(SlotOp::Put, 0, &b"new"[..]),
                edit(SlotOp::Tombstone, 1, &[][..]),
                edit(SlotOp::Push, 2, &b"pushed"[..]),
            ]
        );
        let mut page = page::rebuild(&[b"old".to_vec(), b"dead".to_vec()]).unwrap();
        apply_edits(&mut page, &sample_edits()).unwrap();
        let cells = page::cells(&page).unwrap();
        assert_eq!(cells, [b"new".to_vec(), Vec::new(), b"pushed".to_vec()]);
        // A second application finds the pushed slot taken: an error, not
        // a duplicated row.
        let err = apply_edits(&mut page, &sample_edits()).unwrap_err();
        assert!(format!("{err}").contains("out of range"), "{err}");
        assert_eq!(page::cells(&page).unwrap(), cells);
        // A run cut short or with an unknown op is an error after the
        // edits in front of it.
        let mut cut = sample_edits();
        cut.pop();
        assert!(edits(&cut).last().unwrap().is_err());
        assert_eq!(edits(&cut).count(), 3);
        assert!(edits(&[9, 0, 0]).next().unwrap().is_err());
    }

    #[test]
    fn uncommitted_tail_is_dropped_but_its_images_stand() {
        let path = tmp("tail");
        let wal = Wal::open(&path, WalPolicy::Commit, None).unwrap();
        wal.log_slots("p", 0, &sample_edits()).unwrap();
        wal.commit().unwrap();
        // Appended but never committed: the slot record must not be
        // replayed, the image may.
        wal.log_page("p", 1, &vec![2u8; PAGE_SIZE]).unwrap();
        let image_end = wal.size();
        wal.log_slots("p", 1, &sample_edits()).unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        let scan = scan(&path).unwrap();
        assert_eq!((scan.batches(), scan.committed), (1, 2));
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.dropped_records, 1);
        // The cut falls between them.
        assert_eq!((scan.keep, scan.keep_len), (3, image_end));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_log_of_the_old_format_keeps_its_images_in_their_batches() {
        let path = tmp("v0");
        let wal = Wal::open(&path, WalPolicy::Commit, None).unwrap();
        wal.log_page("p", 0, &vec![1u8; PAGE_SIZE]).unwrap();
        wal.commit().unwrap();
        wal.log_page("p", 1, &vec![2u8; PAGE_SIZE]).unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        // The version byte was reserved (zero) before slot records.
        let mut raw = std::fs::read(&path).unwrap();
        raw[8] = 0;
        std::fs::write(&path, &raw).unwrap();
        let scan = scan(&path).unwrap();
        assert!(scan.batch_images);
        assert_eq!((scan.batches(), scan.committed), (1, 2));
        assert_eq!(scan.dropped_records, 1, "the image of the open batch");
        assert_eq!(scan.keep, 2, "and it is cut with its batch");

        // Reopened, the log ends with its committed prefix and carries the
        // current version: the same records, read the same way.
        let wal = Wal::resume(&path, WalPolicy::Commit, None, &scan).unwrap();
        wal.log_slots("p", 0, &sample_edits()).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let after = super::scan(&path).unwrap();
        assert!(!after.batch_images && !after.torn_tail);
        assert_eq!((after.batches(), after.keep), (2, 4));
        assert_eq!(after.records[..2], scan.records[..2]);
        assert_eq!(after.records[3], WalRecord::Commit { batch: 2 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_and_checksums_catch_corruption() {
        let path = tmp("torn");
        let wal = Wal::open(&path, WalPolicy::Commit, None).unwrap();
        wal.log_page("p", 0, &vec![1u8; PAGE_SIZE]).unwrap();
        wal.commit().unwrap();
        let first = wal.size();
        wal.log_page("p", 1, &vec![2u8; PAGE_SIZE]).unwrap();
        wal.commit().unwrap();
        drop(wal);

        // Tear the file mid-way through the second batch.
        let full = std::fs::read(&path).unwrap();
        let torn_len = full.len() - PAGE_SIZE / 2;
        std::fs::write(&path, &full[..torn_len]).unwrap();
        let s = scan(&path).unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.batches(), 1, "first batch survives the tear");
        assert_eq!(s.valid_len, first, "appends resume behind it");

        // Restore, then flip a byte inside the second batch's image.
        std::fs::write(&path, &full).unwrap();
        let mut bad = full.clone();
        let n = bad.len();
        bad[n - 100] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        let s = scan(&path).unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.batches(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// Invariant 1 of recovery: the remains of a crashed batch — whole
    /// slot records and a torn frame — are gone from the file before the
    /// next batch is appended, so its marker commits its own records only.
    #[test]
    fn resume_cuts_the_uncommitted_tail_before_anything_is_appended() {
        let path = tmp("resume");
        let wal = Wal::open(&path, WalPolicy::Commit, None).unwrap();
        wal.log_slots("p", 0, &sample_edits()).unwrap();
        wal.commit().unwrap();
        let committed = wal.size();
        wal.log_slots("p", 7, &sample_edits()).unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        drop(f);
        let before = scan(&path).unwrap();
        assert!(before.torn_tail);
        assert_eq!((before.keep, before.keep_len), (2, committed));
        assert!(before.valid_len > committed);

        let wal = Wal::resume(&path, WalPolicy::Commit, None, &before).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        assert_eq!(wal.stats().fsyncs, 1, "the cut is synced");
        wal.log_slots("p", 1, &sample_edits()).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let after = scan(&path).unwrap();
        assert!(!after.torn_tail);
        assert_eq!((after.batches(), after.records.len()), (2, 4));
        assert!(matches!(after.records[2], WalRecord::Slots { pid: 1, .. }));
        assert_eq!(after.records[3], WalRecord::Commit { batch: 2 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_of_a_committed_log_writes_nothing() {
        for policy in [WalPolicy::Commit, WalPolicy::Batch, WalPolicy::Off] {
            let path = tmp("adopt");
            let wal = Wal::open(&path, policy, None).unwrap();
            wal.log_slots("p", 0, &sample_edits()).unwrap();
            wal.commit().unwrap();
            // Images stand outside batches: not a tail to cut.
            wal.log_page("p", 0, &vec![7u8; PAGE_SIZE]).unwrap();
            wal.sync_all().unwrap();
            drop(wal);
            let bytes = std::fs::read(&path).unwrap();
            let wal = Wal::resume(&path, policy, None, &scan(&path).unwrap()).unwrap();
            assert_eq!(wal.size(), bytes.len() as u64);
            assert_eq!(wal.stats(), WalStats::default());
            drop(wal);
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{policy:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    /// A reservation denied in the middle of a batch leaves records behind
    /// that no marker may adopt: the handle refuses everything after it.
    #[test]
    fn a_denied_append_inside_a_batch_poisons_the_log() {
        let mut master = htqo_engine::Budget::unlimited().with_mem_limit(PAGE_SIZE as u64);
        let path = tmp("denied");
        let wal = Wal::open(&path, WalPolicy::Commit, Some(master.fork())).unwrap();
        wal.log_slots("p", 0, &sample_edits()).unwrap();
        let big = vec![0u8; 2 * PAGE_SIZE];
        let denied = wal.log_slots("p", 1, &big).unwrap_err();
        assert!(denied.is_resource_limit(), "{denied}");
        let refused = wal.commit().unwrap_err();
        assert!(format!("{refused}").contains("poisoned"), "{refused}");
        drop(wal);
        assert_eq!(scan(&path).unwrap().batches(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_truncates_and_log_restarts_clean() {
        let path = tmp("reset");
        let wal = Wal::open(&path, WalPolicy::Commit, None).unwrap();
        wal.log_page("p", 0, &vec![1u8; PAGE_SIZE]).unwrap();
        wal.commit().unwrap();
        assert!(wal.size() > WAL_HEADER);
        wal.reset().unwrap();
        assert_eq!(wal.size(), WAL_HEADER);
        assert!(scan(&path).unwrap().records.is_empty());
        // The log keeps working after a checkpoint.
        wal.log_page("p", 1, &vec![2u8; PAGE_SIZE]).unwrap();
        wal.commit().unwrap();
        assert_eq!(scan(&path).unwrap().batches(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_charges_pending_and_returns_on_flush() {
        let mut master = htqo_engine::Budget::unlimited().with_mem_limit(1 << 30);
        let observer = master.fork();
        let path = tmp("budget");
        let wal = Wal::open(&path, WalPolicy::Commit, Some(master.fork())).unwrap();
        wal.log_page("p", 0, &vec![1u8; PAGE_SIZE]).unwrap();
        assert!(
            observer.mem_used() >= PAGE_SIZE as u64,
            "pending records are charged"
        );
        wal.commit().unwrap();
        assert_eq!(observer.mem_used(), 0, "flush returns every byte");
        drop(wal);
        std::fs::remove_file(&path).ok();
    }

    /// A run of images is written through as it goes: the reservation
    /// never exceeds [`PENDING_MAX`] plus one record, however long the run.
    #[test]
    fn a_long_run_of_images_holds_a_bounded_reservation() {
        let mut master = htqo_engine::Budget::unlimited().with_mem_limit(128 * 1024);
        let observer = master.fork();
        let path = tmp("bounded");
        let wal = Wal::open(&path, WalPolicy::Commit, Some(master.fork())).unwrap();
        let img = vec![5u8; PAGE_SIZE];
        for pid in 0..256 {
            wal.log_page("p", pid, &img).unwrap();
            assert!(observer.mem_used() <= (PENDING_MAX + 2 * PAGE_SIZE) as u64);
        }
        wal.sync_all().unwrap();
        assert_eq!(observer.mem_used(), 0);
        assert_eq!(scan(&path).unwrap().records.len(), 256);
        drop(wal);
        std::fs::remove_file(&path).ok();
    }
}
