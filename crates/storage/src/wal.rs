//! Write-ahead log: redo records, group commit, and checkpoint
//! truncation.
//!
//! The WAL makes small mutations durable without rewriting whole tables.
//! Records reuse the spill frame format — `len: u32 LE | checksum: u64 LE
//! | payload`, FxHash over the payload — after a fixed 16-byte file
//! header. The **LSN** of a record is simply the file offset one past its
//! last byte, so "WAL synced past LSN `x`" is a single offset comparison.
//!
//! Three payload kinds (first payload byte is the tag):
//!
//! | tag | kind      | payload                                          |
//! |-----|-----------|--------------------------------------------------|
//! | 1   | PageImage | `nlen u16 | page-file name | pid u64 | page image` |
//! | 2   | Catalog   | `nlen u16 | table name | catalog text`           |
//! | 3   | Commit    | `batch id u64`                                   |
//!
//! Page images are **full post-images** (physical redo), so replay is
//! idempotent: applying a batch twice writes the same bytes twice. That
//! is what makes crash-during-recovery safe — see the recovery
//! idempotence test in `tests/crash_recovery_prop.rs`.
//!
//! A batch is the records between two Commit markers. Recovery replays
//! committed batches in order and drops everything after the last valid
//! Commit (including a torn final record, which a mid-write crash can
//! leave behind).
//!
//! **Commit protocol.** Appends buffer in memory (byte-charged against
//! the engine [`Budget`] like every other materialization site).
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
//!
//! **WAL-before-data.** [`Wal::sync_to`] is the barrier the buffer pool
//! calls before writing a dirty page whose `page_lsn` is not yet
//! durable; a data page can therefore never reach disk ahead of the log
//! record that recreates it.

use htqo_engine::{Budget, EvalError};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// First 8 bytes of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"htqoWAL1";

/// Fixed header length: magic + 8 reserved bytes.
pub const WAL_HEADER: u64 = 16;

/// Frame prefix: `len u32 | checksum u64`.
const FRAME: usize = 12;

/// Sanity cap on one record's payload; anything larger is treated as a
/// torn length field during scan.
const MAX_PAYLOAD: usize = 1 << 20;

const TAG_PAGE: u8 = 1;
const TAG_CATALOG: u8 = 2;
const TAG_COMMIT: u8 = 3;

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

impl WalPolicy {
    /// Resolves the policy from `HTQO_WAL` (`off`/`commit`/`batch`,
    /// default `commit`; unknown values fall back to the default).
    pub fn from_env() -> Self {
        match std::env::var("HTQO_WAL").ok().as_deref() {
            Some("off") => WalPolicy::Off,
            Some("batch") => WalPolicy::Batch,
            _ => WalPolicy::Commit,
        }
    }
}

/// One redo record recovered by [`scan`].
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Full post-image of page `pid` in the named page file.
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
    /// Full replacement text for a table's catalog file.
    Catalog {
        /// Table name.
        table: String,
        /// New catalog text.
        text: String,
    },
}

/// Result of scanning a WAL file: the committed batches in order, plus
/// what had to be dropped from the tail.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// Committed batches, oldest first.
    pub batches: Vec<Vec<WalRecord>>,
    /// True when the scan stopped at a torn or corrupt record before
    /// end-of-file.
    pub torn_tail: bool,
    /// Records after the last valid Commit (an uncommitted batch and/or
    /// the torn record) that were discarded.
    pub dropped_records: u64,
    /// Bytes in the file when scanned.
    pub bytes: u64,
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
    /// Set after a failed pending flush: the on-disk tail is torn and
    /// the offset unknown, so further appends must not pretend to work.
    poisoned: bool,
}

impl WalInner {
    fn uncharge_pending(&mut self) {
        if let Some(b) = self.budget.as_mut() {
            b.uncharge_bytes(self.pending.len() as u64);
        }
        self.pending.clear();
    }

    /// Writes the pending buffer to the OS. Honors the
    /// `storage::wal_append` failpoint by leaving half the buffer behind
    /// — a torn WAL tail, exactly what a crash mid-`write(2)` produces.
    fn flush_pending(&mut self, path: &Path) -> Result<(), EvalError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.poisoned {
            return Err(EvalError::SpillIo(format!(
                "{}: wal poisoned by an earlier torn write",
                path.display()
            )));
        }
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

    /// Fsync; on success everything written so far is durable.
    fn fsync(&mut self, path: &Path) -> Result<(), EvalError> {
        if htqo_engine::failpoint::armed() {
            // A failed fsync leaves durability indeterminate: the bytes
            // are in the OS, which may or may not persist them. The
            // crash harness asserts committed-or-absent, never partial.
            htqo_engine::failpoint::eval("storage::wal_fsync")?;
        }
        self.file.sync_all().map_err(|e| io_err(path, "fsync", e))?;
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
    /// Opens `path` as a fresh log (truncating any previous content —
    /// callers run recovery *before* opening, so anything left in the
    /// file has already been replayed and checkpointed). WAL buffer
    /// bytes are charged against `budget` until flushed.
    pub fn open(path: &Path, policy: WalPolicy, budget: Option<Budget>) -> Result<Self, EvalError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, "open", e))?;
        let mut header = [0u8; WAL_HEADER as usize];
        header[..8].copy_from_slice(WAL_MAGIC);
        let mut inner = WalInner {
            file,
            written: WAL_HEADER,
            durable: 0,
            pending: Vec::new(),
            commits_since_sync: 0,
            batch_seq: 0,
            budget,
            poisoned: false,
        };
        inner
            .file
            .write_all(&header)
            .map_err(|e| io_err(path, "write header", e))?;
        if policy != WalPolicy::Off {
            inner
                .file
                .sync_all()
                .map_err(|e| io_err(path, "fsync header", e))?;
        }
        inner.durable = WAL_HEADER;
        Ok(Wal {
            path: path.to_path_buf(),
            policy,
            group_every: GROUP_EVERY,
            inner: Mutex::new(inner),
        })
    }

    /// The active sync policy.
    pub fn policy(&self) -> WalPolicy {
        self.policy
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Appends one framed record to the pending buffer; returns its LSN.
    fn append(&self, payload: &[u8]) -> Result<u64, EvalError> {
        let mut inner = self.lock();
        if inner.poisoned {
            return Err(EvalError::SpillIo(format!(
                "{}: wal poisoned by an earlier torn write",
                self.path.display()
            )));
        }
        if let Some(b) = inner.budget.as_mut() {
            // Hard reservation (like the buffer pool): a denied append
            // is a MemoryExceeded before the bytes are buffered, and a
            // granted one is immediately visible to sibling handles.
            b.reserve_bytes((FRAME + payload.len()) as u64)?;
        }
        inner
            .pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        inner
            .pending
            .extend_from_slice(&checksum(payload).to_le_bytes());
        inner.pending.extend_from_slice(payload);
        Ok(inner.written + inner.pending.len() as u64)
    }

    /// Logs a full post-image of page `pid` of the named page file.
    /// Returns the record's LSN for the page's `page_lsn` stamp.
    pub fn log_page(&self, file: &str, pid: u64, image: &[u8]) -> Result<u64, EvalError> {
        assert_eq!(image.len(), crate::page::PAGE_SIZE);
        let name = file.as_bytes();
        assert!(name.len() <= u16::MAX as usize);
        let mut payload = Vec::with_capacity(1 + 2 + name.len() + 8 + image.len());
        payload.push(TAG_PAGE);
        payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
        payload.extend_from_slice(name);
        payload.extend_from_slice(&pid.to_le_bytes());
        payload.extend_from_slice(image);
        self.append(&payload)
    }

    /// Logs a full replacement of `table`'s catalog text.
    pub fn log_catalog(&self, table: &str, text: &str) -> Result<u64, EvalError> {
        let name = table.as_bytes();
        assert!(name.len() <= u16::MAX as usize);
        let mut payload = Vec::with_capacity(1 + 2 + name.len() + text.len());
        payload.push(TAG_CATALOG);
        payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
        payload.extend_from_slice(name);
        payload.extend_from_slice(text.as_bytes());
        self.append(&payload)
    }

    /// Commits the current batch: appends a Commit record, writes the
    /// pending buffer to the OS, and fsyncs per policy. Returns the
    /// commit record's LSN.
    pub fn commit(&self) -> Result<u64, EvalError> {
        let lsn = {
            let batch_id = {
                let mut inner = self.lock();
                inner.batch_seq += 1;
                inner.batch_seq
            };
            let mut payload = Vec::with_capacity(9);
            payload.push(TAG_COMMIT);
            payload.extend_from_slice(&batch_id.to_le_bytes());
            self.append(&payload)?
        };
        let mut inner = self.lock();
        inner.flush_pending(&self.path)?;
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

    /// The WAL-before-data barrier: after this returns, every record up
    /// to `lsn` is as durable as the policy allows (under `off`, written
    /// to the OS but deliberately not fsynced).
    pub fn sync_to(&self, lsn: u64) -> Result<(), EvalError> {
        let mut inner = self.lock();
        if inner.written < lsn {
            inner.flush_pending(&self.path)?;
        }
        if self.policy != WalPolicy::Off && inner.durable < lsn {
            inner.fsync(&self.path)?;
        }
        Ok(())
    }

    /// Flushes and (policy permitting) fsyncs everything appended so
    /// far — the pre-checkpoint barrier.
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

fn parse_record(payload: &[u8]) -> Option<(Option<WalRecord>, u64)> {
    let (&tag, rest) = payload.split_first()?;
    match tag {
        TAG_PAGE => {
            if rest.len() < 2 {
                return None;
            }
            let nlen = u16::from_le_bytes([rest[0], rest[1]]) as usize;
            let rest = &rest[2..];
            if rest.len() != nlen + 8 + crate::page::PAGE_SIZE {
                return None;
            }
            let file = String::from_utf8(rest[..nlen].to_vec()).ok()?;
            let pid = u64::from_le_bytes(rest[nlen..nlen + 8].try_into().ok()?);
            let image = rest[nlen + 8..].to_vec();
            Some((Some(WalRecord::Page { file, pid, image }), 0))
        }
        TAG_CATALOG => {
            if rest.len() < 2 {
                return None;
            }
            let nlen = u16::from_le_bytes([rest[0], rest[1]]) as usize;
            let rest = &rest[2..];
            if rest.len() < nlen {
                return None;
            }
            let table = String::from_utf8(rest[..nlen].to_vec()).ok()?;
            let text = String::from_utf8(rest[nlen..].to_vec()).ok()?;
            Some((Some(WalRecord::Catalog { table, text }), 0))
        }
        TAG_COMMIT => {
            if rest.len() != 8 {
                return None;
            }
            Some((None, u64::from_le_bytes(rest.try_into().ok()?)))
        }
        _ => None,
    }
}

/// Scans a WAL file, validating frame checksums, and returns the
/// committed batches. Tolerates a torn tail: the scan stops at the first
/// truncated or corrupt record and everything after the last valid
/// Commit is reported as dropped. A missing file is an empty scan.
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
    let mut off = WAL_HEADER as usize;
    let mut current: Vec<WalRecord> = Vec::new();
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
        if checksum(payload) != sum {
            out.torn_tail = true;
            break;
        }
        match parse_record(payload) {
            Some((Some(rec), _)) => current.push(rec),
            Some((None, _batch_id)) => {
                out.batches.push(std::mem::take(&mut current));
            }
            None => {
                out.torn_tail = true;
                break;
            }
        }
        off += FRAME + len;
    }
    out.dropped_records = current.len() as u64 + u64::from(out.torn_tail);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("htqo-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.wal")
    }

    #[test]
    fn commit_scan_roundtrip_in_batch_order() {
        let path = tmp("rt");
        let wal = Wal::open(&path, WalPolicy::Commit, None).unwrap();
        let img = vec![3u8; PAGE_SIZE];
        wal.log_page("t.0.pages", 4, &img).unwrap();
        wal.log_catalog("t", "htqo-table v2\nrows 9\n").unwrap();
        wal.commit().unwrap();
        wal.log_page("t.0.pages", 5, &img).unwrap();
        wal.commit().unwrap();

        let scan = scan(&path).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.dropped_records, 0);
        assert_eq!(scan.batches.len(), 2);
        assert_eq!(
            scan.batches[0][0],
            WalRecord::Page {
                file: "t.0.pages".into(),
                pid: 4,
                image: img.clone()
            }
        );
        assert_eq!(
            scan.batches[0][1],
            WalRecord::Catalog {
                table: "t".into(),
                text: "htqo-table v2\nrows 9\n".into()
            }
        );
        assert_eq!(scan.batches[1].len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn uncommitted_tail_is_dropped() {
        let path = tmp("tail");
        let wal = Wal::open(&path, WalPolicy::Commit, None).unwrap();
        wal.log_page("p", 0, &vec![1u8; PAGE_SIZE]).unwrap();
        wal.commit().unwrap();
        // Appended but never committed: must not surface as a batch.
        wal.log_page("p", 1, &vec![2u8; PAGE_SIZE]).unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        let scan = scan(&path).unwrap();
        assert_eq!(scan.batches.len(), 1);
        assert_eq!(scan.dropped_records, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_and_checksums_catch_corruption() {
        let path = tmp("torn");
        let wal = Wal::open(&path, WalPolicy::Commit, None).unwrap();
        wal.log_page("p", 0, &vec![1u8; PAGE_SIZE]).unwrap();
        wal.commit().unwrap();
        wal.log_page("p", 1, &vec![2u8; PAGE_SIZE]).unwrap();
        wal.commit().unwrap();
        drop(wal);

        // Tear the file mid-way through the second batch.
        let full = std::fs::read(&path).unwrap();
        let torn_len = full.len() - PAGE_SIZE / 2;
        std::fs::write(&path, &full[..torn_len]).unwrap();
        let s = scan(&path).unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.batches.len(), 1, "first batch survives the tear");

        // Restore, then flip a byte inside the second batch's image.
        std::fs::write(&path, &full).unwrap();
        let mut bad = full.clone();
        let n = bad.len();
        bad[n - 10] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        let s = scan(&path).unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.batches.len(), 1);
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
        assert!(scan(&path).unwrap().batches.is_empty());
        // The log keeps working after a checkpoint.
        wal.log_page("p", 1, &vec![2u8; PAGE_SIZE]).unwrap();
        wal.commit().unwrap();
        assert_eq!(scan(&path).unwrap().batches.len(), 1);
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
}
