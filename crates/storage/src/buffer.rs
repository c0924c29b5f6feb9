//! The buffer pool: a fixed-capacity page cache with clock (second
//! chance) eviction, pin/unpin guards, and exact byte accounting against
//! the engine's [`Budget`].
//!
//! Invariants (property-tested in `tests/storage_prop.rs`):
//! - a pinned page is never evicted;
//! - a dirty page is written back exactly once per dirty period (on
//!   eviction or an explicit flush), clean evictions never write;
//! - the budget charge equals `resident frames × PAGE_SIZE` at all
//!   times, and drops to zero when the pool is dropped.
//!
//! Pages are handed out as [`PagePin`] guards holding an `Arc` snapshot
//! of the frame bytes, so readers never block the pool lock while they
//! decode. A concurrent edit publishes a new snapshot; outstanding pins
//! keep reading the one they started with.
//!
//! **Committed edits and the write-back rule.** Once a [`Wal`] is
//! attached the pool takes only logged edits
//! (`BufferPool::apply_logged`: the slot edits of a batch that has
//! committed). It applies them to the resident frame, if there is one,
//! and keeps the encoded edits per page — the log's tail, indexed by page
//! — so a page is always *data file + kept edits*. Evicting such a frame
//! therefore writes nothing (a later miss reads the file and re-applies
//! the edits), and the data file changes in exactly one place,
//! [`BufferPool::flush`], under the rule `write_back` implements: *a
//! page is written in place only after a record holding its full image
//! is durable in the log*. (Recovery's `BufferPool::restore_image` is the
//! same rule read backwards: it puts back an image the log already
//! holds.) The kept edits are as many bytes as the slot
//! records that carry them, so the checkpoint threshold that bounds the
//! log bounds them too; they are not charged against the [`Budget`].
//! They survive a restart the way they arose: recovery hands the log's
//! committed slot records to `apply_logged` again, before any page is
//! cached, and the pool's first opener sizes it (`BufferPool::resize`).
//!
//! Without a WAL the pool is a plain write-back cache:
//! [`BufferPool::update`] dirties a frame and eviction, flush or drop
//! writes it.

use crate::page::PAGE_SIZE;
use crate::pager::PageFile;
use crate::wal::{self, Wal};
use htqo_engine::{Budget, EvalError};
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// Pages one round of [`BufferPool::flush`] logs, syncs and writes
/// together: bounds the images held in memory while the log sync they
/// wait for is shared.
const WRITE_BACK_CHUNK: usize = 128;

/// Observability counters for one pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pins served from a resident frame.
    pub hits: u64,
    /// Pins that had to read from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Pages written back to the data file (eviction or flush).
    pub flushes: u64,
    /// Frames currently resident.
    pub resident: usize,
    /// Maximum resident frames.
    pub capacity: usize,
}

/// The write-back rule, in the one function that overwrites pages of
/// data files: the images of `pages` — `(index into files, pid, image)` —
/// go to `wal`, the log is synced once, and only then is each page
/// written in place (`written` hears of each as it lands). A crash in
/// between leaves either untouched pages or images recovery restores
/// them from. Without a log — a pool no commit has touched, or recovery
/// putting back an image the log already holds — the pages are simply
/// written.
fn write_back(
    wal: Option<&Wal>,
    files: &mut [PageFile],
    pages: &[(usize, u64, &[u8])],
    mut written: impl FnMut(u64),
) -> Result<(), EvalError> {
    if let Some(wal) = wal {
        for &(file, pid, image) in pages {
            let path = files[file].path();
            let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
                EvalError::Internal(format!("{}: unnamed page file", path.display()))
            })?;
            wal.log_page(name, pid, image)?;
        }
        wal.sync_all()?;
    }
    htqo_engine::fail_point!("storage::write_back");
    for &(file, pid, image) in pages {
        files[file].write_extend(pid, image)?;
        written(pid);
    }
    Ok(())
}

struct Frame {
    pid: u64,
    data: Arc<Vec<u8>>,
    pins: u32,
    /// Holds unlogged changes ([`BufferPool::update`]) the file lacks:
    /// must be written before the frame is given up. A frame that differs
    /// from the file only by kept edits is not dirty in this sense.
    dirty: bool,
    referenced: bool,
}

struct Inner {
    file: PageFile,
    cap: usize,
    frames: Vec<Frame>,
    map: HashMap<u64, usize>,
    hand: usize,
    budget: Option<Budget>,
    stats: PoolStats,
    wal: Option<Arc<Wal>>,
    /// Next page id handed out by [`BufferPool::create_page`]; runs
    /// ahead of `file.pages()` until the created pages are flushed.
    next_pid: u64,
    /// Per page, the encoded slot edits ([`wal::push_edit`]) of every
    /// batch committed since the page was last written in place, in
    /// commit order.
    kept: HashMap<u64, Vec<u8>>,
}

impl Inner {
    /// The committed bytes of a page that is not resident: the file's
    /// (an empty page for one created but not yet flushed) plus its kept
    /// edits.
    fn read_page(&mut self, pid: u64) -> Result<Vec<u8>, EvalError> {
        let mut buf = vec![0u8; PAGE_SIZE];
        if pid < self.file.pages() || pid >= self.next_pid {
            self.file.read(pid, &mut buf)?;
        }
        if let Some(edits) = self.kept.get(&pid) {
            wal::apply_edits(&mut buf, edits)?;
        }
        Ok(buf)
    }

    /// Writes the unlogged changes of frame `i` to the data file.
    fn write_dirty(&mut self, i: usize) -> Result<(), EvalError> {
        let (pid, data) = (self.frames[i].pid, Arc::clone(&self.frames[i].data));
        let file = std::slice::from_mut(&mut self.file);
        write_back(None, file, &[(0, pid, &data[..])], |_| {})?;
        self.frames[i].dirty = false;
        self.stats.flushes += 1;
        Ok(())
    }

    /// Clock sweep: frees one frame slot, writing it first if dirty.
    /// Fails only when every frame is pinned.
    fn evict_one(&mut self) -> Result<usize, EvalError> {
        for _ in 0..2 * self.frames.len() {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[i].pins > 0 {
                continue;
            }
            if self.frames[i].referenced {
                self.frames[i].referenced = false;
                continue;
            }
            if self.frames[i].dirty {
                self.write_dirty(i)?;
            }
            let pid = self.frames[i].pid;
            self.map.remove(&pid);
            self.stats.evictions += 1;
            self.uncharge_page();
            return Ok(i);
        }
        Err(EvalError::Internal(format!(
            "buffer pool exhausted: all {} frames pinned",
            self.frames.len()
        )))
    }

    fn charge_page(&mut self) -> Result<(), EvalError> {
        if let Some(b) = self.budget.as_mut() {
            // Hard reservation (not the batched `charge_bytes`): a denied
            // frame is a MemoryExceeded before the page is cached, and a
            // granted one is immediately visible to sibling handles.
            b.reserve_bytes(PAGE_SIZE as u64)?;
        }
        Ok(())
    }

    fn uncharge_page(&mut self) {
        if let Some(b) = self.budget.as_mut() {
            b.uncharge_bytes(PAGE_SIZE as u64);
        }
    }

    /// Frees (or allocates) a slot for a new frame.
    fn slot(&mut self) -> Result<usize, EvalError> {
        if self.frames.len() < self.cap {
            self.charge_page()?;
            self.frames.push(Frame {
                pid: u64::MAX,
                data: Arc::new(Vec::new()),
                pins: 0,
                dirty: false,
                referenced: false,
            });
            Ok(self.frames.len() - 1)
        } else {
            let i = self.evict_one()?;
            self.charge_page()?;
            Ok(i)
        }
    }

    /// Makes `pid` resident and returns its frame index.
    fn frame_of(&mut self, pid: u64) -> Result<usize, EvalError> {
        if let Some(&i) = self.map.get(&pid) {
            self.stats.hits += 1;
            self.frames[i].referenced = true;
            return Ok(i);
        }
        self.stats.misses += 1;
        let buf = self.read_page(pid)?;
        let i = self.slot()?;
        self.frames[i] = Frame {
            pid,
            data: Arc::new(buf),
            pins: 0,
            dirty: false,
            referenced: true,
        };
        self.map.insert(pid, i);
        Ok(i)
    }
}

/// Whole pages in `cap_bytes`, at least one.
fn frames_for(cap_bytes: u64) -> usize {
    (cap_bytes / PAGE_SIZE as u64).max(1) as usize
}

/// A shared page cache over one [`PageFile`].
pub struct BufferPool {
    inner: Mutex<Inner>,
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("BufferPool").field("stats", &stats).finish()
    }
}

impl BufferPool {
    /// Builds a pool over `file` with at most `cap_bytes` of resident
    /// pages (rounded down to whole pages, minimum one). When `budget`
    /// is given, every resident frame charges [`PAGE_SIZE`] bytes
    /// against it and uncharges on eviction or drop, so cached pages
    /// compete with query memory in one pool.
    pub fn new(file: PageFile, cap_bytes: u64, budget: Option<Budget>) -> Self {
        let cap = frames_for(cap_bytes);
        let next_pid = file.pages();
        BufferPool {
            inner: Mutex::new(Inner {
                file,
                cap,
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
                budget,
                stats: PoolStats {
                    capacity: cap,
                    ..PoolStats::default()
                },
                wal: None,
                next_pid,
                kept: HashMap::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Attaches the WAL whose records cover this pool's file; from now
    /// on the pool takes logged edits only and [`BufferPool::flush`] logs
    /// a page's image before overwriting it.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        self.lock().wal = Some(wal);
    }

    /// Gives a pool that has cached nothing yet its capacity and budget
    /// (as in [`BufferPool::new`]): recovery opens a table's pool to hand
    /// it the log's edits before any reader has said how much cache the
    /// table gets.
    pub(crate) fn resize(&self, cap_bytes: u64, budget: Option<Budget>) {
        let mut inner = self.lock();
        assert!(inner.frames.is_empty(), "resize of a pool in use");
        inner.cap = frames_for(cap_bytes);
        inner.stats.capacity = inner.cap;
        inner.budget = budget;
    }

    /// Pins page `pid` and returns a read guard; the page cannot be
    /// evicted until the guard drops.
    pub fn pin(&self, pid: u64) -> Result<PagePin<'_>, EvalError> {
        let mut inner = self.lock();
        let i = inner.frame_of(pid)?;
        inner.frames[i].pins += 1;
        let data = Arc::clone(&inner.frames[i].data);
        Ok(PagePin {
            pool: self,
            pid,
            data,
        })
    }

    fn unpin(&self, pid: u64) {
        let mut inner = self.lock();
        if let Some(&i) = inner.map.get(&pid) {
            debug_assert!(inner.frames[i].pins > 0, "unpin of unpinned page");
            inner.frames[i].pins = inner.frames[i].pins.saturating_sub(1);
        }
    }

    /// Mutates page `pid` in the cache, unlogged, and marks it dirty; the
    /// write reaches disk on eviction, [`BufferPool::flush`], or drop.
    /// The mutation must preserve the page size. Refused once a WAL is
    /// attached: such a write would reach the file with no image behind
    /// it.
    pub fn update(&self, pid: u64, f: impl FnOnce(&mut Vec<u8>)) -> Result<(), EvalError> {
        let mut inner = self.lock();
        if inner.wal.is_some() {
            return Err(EvalError::Internal(format!(
                "unlogged update of page {pid} in a pool with a WAL attached"
            )));
        }
        let i = inner.frame_of(pid)?;
        let data = Arc::make_mut(&mut inner.frames[i].data);
        f(data);
        assert_eq!(data.len(), PAGE_SIZE, "update changed the page size");
        inner.frames[i].dirty = true;
        Ok(())
    }

    /// Takes the slot edits a committed batch logged for page `pid`
    /// (`edits` as in [`Wal::log_slots`]): applied to the resident frame,
    /// if any, and kept until the next [`BufferPool::flush`] for whoever
    /// reads the page from the file in between. No IO.
    pub(crate) fn apply_logged(&self, pid: u64, edits: &[u8]) -> Result<(), EvalError> {
        let mut inner = self.lock();
        if let Some(&i) = inner.map.get(&pid) {
            let frame = &mut inner.frames[i];
            debug_assert!(!frame.dirty, "logged edit on top of an unlogged one");
            let data: &mut Vec<u8> = Arc::make_mut(&mut frame.data);
            wal::apply_edits(data, edits)?;
            frame.referenced = true;
        }
        inner.kept.entry(pid).or_default().extend_from_slice(edits);
        Ok(())
    }

    /// Recovery's in-place write: `image` is the last full image the log
    /// holds of page `pid`, so the page may be overwritten with it — the
    /// write-back rule's condition was met by whoever logged it, and the
    /// log is kept. Edits taken for the page so far sit in front of that
    /// image in the log and are dropped; the ones behind it follow through
    /// [`BufferPool::apply_logged`]. Nothing is synced: until a checkpoint
    /// empties the log, the next recovery does the same again.
    pub(crate) fn restore_image(&self, pid: u64, image: &[u8]) -> Result<(), EvalError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        assert!(
            !inner.map.contains_key(&pid),
            "image restored under a cached page"
        );
        inner.kept.remove(&pid);
        let file = std::slice::from_mut(&mut inner.file);
        write_back(None, file, &[(0, pid, image)], |_| {})?;
        inner.next_pid = inner.next_pid.max(pid + 1);
        Ok(())
    }

    /// Hands out the id of a fresh, empty page. It exists in the cache
    /// only — reads see an empty page plus whatever edits it took — and
    /// reaches the file (zero-extending any gap) at the next flush.
    pub fn create_page(&self) -> Result<u64, EvalError> {
        let mut inner = self.lock();
        let pid = inner.next_pid;
        inner.next_pid += 1;
        Ok(pid)
    }

    /// Writes back every page the file is behind on — kept edits or
    /// unlogged changes — each exactly once, `WRITE_BACK_CHUNK` pages
    /// per log sync under the `write_back` rule, then syncs the data
    /// file.
    pub fn flush(&self) -> Result<(), EvalError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let dirty = inner.frames.iter().filter(|f| f.dirty).map(|f| f.pid);
        let mut pids: Vec<u64> = inner.kept.keys().copied().chain(dirty).collect();
        pids.sort_unstable();
        pids.dedup();
        let wal = inner.wal.clone();
        for chunk in pids.chunks(WRITE_BACK_CHUNK) {
            let mut pages = Vec::with_capacity(chunk.len());
            for &pid in chunk {
                pages.push(match inner.map.get(&pid) {
                    Some(&i) => Arc::clone(&inner.frames[i].data),
                    None => Arc::new(inner.read_page(pid)?),
                });
            }
            let images: Vec<(usize, u64, &[u8])> = chunk
                .iter()
                .zip(&pages)
                .map(|(&pid, data)| (0, pid, &data[..]))
                .collect();
            // A page stops being "file + kept edits" the moment it is
            // written, whatever happens to the pages behind it.
            let Inner {
                file,
                kept,
                frames,
                map,
                stats,
                ..
            } = inner;
            write_back(wal.as_deref(), std::slice::from_mut(file), &images, |pid| {
                kept.remove(&pid);
                if let Some(&i) = map.get(&pid) {
                    frames[i].dirty = false;
                }
                stats.flushes += 1;
            })?;
        }
        inner.file.sync()
    }

    /// Drops every frame and every kept edit **without** write-back,
    /// losing all content the file does not hold — the crash-simulation
    /// primitive. The budget returns to its pre-pool level; the pool
    /// stays usable (rereads from disk).
    pub fn discard(&self) {
        let mut inner = self.lock();
        for _ in 0..inner.map.len() {
            inner.uncharge_page();
        }
        inner.map.clear();
        inner.frames.clear();
        inner.kept.clear();
        inner.hand = 0;
        inner.next_pid = inner.file.pages();
    }

    /// Current counters (with `resident` filled in).
    pub fn stats(&self) -> PoolStats {
        let inner = self.lock();
        PoolStats {
            resident: inner.map.len(),
            ..inner.stats
        }
    }

    /// Pages in the underlying file.
    pub fn file_pages(&self) -> u64 {
        self.lock().file.pages()
    }

    /// Page ids handed out so far (file pages plus created-but-unwritten
    /// cache pages) — the id the next [`BufferPool::create_page`] gets.
    pub fn next_pid(&self) -> u64 {
        self.lock().next_pid
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        let mut inner = self.lock();
        // Best-effort write-back of unlogged changes. Kept edits are
        // dropped with the pool: their batches are in the log, and the
        // next handle on the directory redoes them from there. Uncharge
        // every resident frame so the budget returns to its pre-pool
        // level exactly.
        for i in 0..inner.frames.len() {
            if inner.frames[i].dirty {
                let _ = inner.write_dirty(i);
            }
        }
        for _ in 0..inner.map.len() {
            inner.uncharge_page();
        }
        inner.map.clear();
        inner.frames.clear();
    }
}

/// Read guard returned by [`BufferPool::pin`]; dereferences to the page
/// bytes and unpins on drop.
pub struct PagePin<'a> {
    pool: &'a BufferPool,
    pid: u64,
    data: Arc<Vec<u8>>,
}

impl PagePin<'_> {
    /// The page bytes as pinned, to read after the pin is given up.
    pub(crate) fn snapshot(&self) -> Arc<Vec<u8>> {
        Arc::clone(&self.data)
    }
}

impl Deref for PagePin<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PagePin<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::PageFile;
    use std::path::PathBuf;

    fn pool_file(name: &str, pages: u64) -> PageFile {
        let dir = std::env::temp_dir().join(format!("htqo-buffer-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path: PathBuf = dir.join("t.pages");
        let mut f = PageFile::create(&path).unwrap();
        for p in 0..pages {
            f.append(&vec![p as u8; PAGE_SIZE]).unwrap();
        }
        f.sync().unwrap();
        f
    }

    #[test]
    fn hits_after_first_read_and_eviction_under_pressure() {
        let pool = BufferPool::new(pool_file("clock", 8), 3 * PAGE_SIZE as u64, None);
        for pid in 0..8 {
            let p = pool.pin(pid).unwrap();
            assert_eq!(p[0], pid as u8);
        }
        let s = pool.stats();
        assert_eq!(s.misses, 8);
        assert_eq!(s.resident, 3);
        assert_eq!(s.evictions, 5);
        // Clean pages never hit the disk on the way out.
        assert_eq!(s.flushes, 0);
        let _p = pool.pin(7).unwrap();
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn pinned_pages_survive_pressure_and_full_pool_errors() {
        let pool = BufferPool::new(pool_file("pins", 8), 2 * PAGE_SIZE as u64, None);
        let keep = pool.pin(0).unwrap();
        for pid in 1..8 {
            let p = pool.pin(pid).unwrap();
            assert_eq!(p[0], pid as u8);
        }
        // Page 0 was pinned throughout: still resident, still a hit.
        assert_eq!(keep[0], 0);
        let again = pool.pin(0).unwrap();
        assert_eq!(again[0], 0);
        assert!(pool.stats().hits >= 1);
        drop((keep, again));

        let a = pool.pin(1).unwrap();
        let b = pool.pin(2).unwrap();
        // Both frames pinned: a third distinct page cannot be cached.
        assert!(pool.pin(3).is_err());
        drop((a, b));
        assert!(pool.pin(3).is_ok());
    }

    #[test]
    fn budget_charges_match_residency_exactly() {
        let mut budget = Budget::unlimited().with_mem_limit(1 << 30);
        let _ = budget.fork();
        let observer = budget.fork();
        {
            let pool = BufferPool::new(pool_file("budget", 6), 2 * PAGE_SIZE as u64, Some(budget));
            for pid in 0..6 {
                let _ = pool.pin(pid).unwrap();
            }
            assert_eq!(
                observer.mem_used(),
                2 * PAGE_SIZE as u64,
                "resident frames × PAGE_SIZE"
            );
        }
        assert_eq!(observer.mem_used(), 0, "drop returns every byte");
    }

    #[test]
    fn dirty_pages_flush_once_and_persist() {
        let file = pool_file("dirty", 4);
        let path = file.path().to_path_buf();
        {
            let pool = BufferPool::new(file, 4 * PAGE_SIZE as u64, None);
            pool.update(2, |d| d[0] = 0xEE).unwrap();
            pool.flush().unwrap();
            assert_eq!(pool.stats().flushes, 1);
            // A second flush has nothing to write.
            pool.flush().unwrap();
            assert_eq!(pool.stats().flushes, 1);
        }
        let f = PageFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        f.read(2, &mut buf).unwrap();
        assert_eq!(buf[0], 0xEE);
    }

    #[test]
    fn created_pages_extend_the_file_on_flush() {
        let file = pool_file("create", 2);
        let path = file.path().to_path_buf();
        {
            let pool = BufferPool::new(file, 8 * PAGE_SIZE as u64, None);
            let a = pool.create_page().unwrap();
            let b = pool.create_page().unwrap();
            assert_eq!((a, b), (2, 3));
            pool.update(b, |d| d[7] = 0x77).unwrap();
            // The file has not grown yet; the pages live in the cache.
            assert_eq!(pool.file_pages(), 2);
            let pin = pool.pin(b).unwrap();
            assert_eq!(pin[7], 0x77);
            drop(pin);
            pool.flush().unwrap();
            assert_eq!(pool.file_pages(), 4);
        }
        let f = PageFile::open(&path).unwrap();
        assert_eq!(f.pages(), 4);
        let mut buf = vec![0u8; PAGE_SIZE];
        f.read(3, &mut buf).unwrap();
        assert_eq!(buf[7], 0x77);
    }

    /// A pool over `pages` empty slotted pages with a fresh WAL attached.
    fn logged_pool(name: &str, pages: u64, frames: u64, wal_budget: Option<Budget>) -> BufferPool {
        let mut file = pool_file(name, 0);
        let empty = crate::page::PageBuilder::new().finish();
        for _ in 0..pages {
            file.append(&empty).unwrap();
        }
        file.sync().unwrap();
        let wal_path = file.path().with_file_name("db.wal");
        let pool = BufferPool::new(file, frames * PAGE_SIZE as u64, None);
        let wal = Wal::open(&wal_path, crate::wal::WalPolicy::Commit, wal_budget).unwrap();
        pool.attach_wal(Arc::new(wal));
        pool
    }

    /// The edits of one committed batch: `cell` pushed as slot `slot`.
    fn push(slot: u16, cell: &[u8]) -> Vec<u8> {
        let mut edits = Vec::new();
        wal::push_edit(&mut edits, wal::SlotOp::Push, slot, cell);
        edits
    }

    #[test]
    fn logged_edits_survive_eviction_and_reach_the_file_only_at_flush() {
        let pool = logged_pool("kept", 6, 2, None);
        let path = pool.lock().file.path().to_path_buf();
        let on_disk = std::fs::read(&path).unwrap();
        // Two batches on every page, through two frames: every frame is
        // given up between its edits, and the second push only lands on
        // slot 1 if the first came back with the page.
        for round in 0..2u16 {
            for pid in 0..6u64 {
                let _ = pool.pin(pid).unwrap();
                pool.apply_logged(pid, &push(round, &[pid as u8, round as u8]))
                    .unwrap();
            }
        }
        // A page created in the cache takes edits before it has ever
        // been resident or in the file.
        let fresh = pool.create_page().unwrap();
        pool.apply_logged(fresh, &push(0, b"fresh")).unwrap();
        let stats = pool.stats();
        assert!(stats.evictions >= 10 && stats.flushes == 0, "{stats:?}");
        assert_eq!(std::fs::read(&path).unwrap(), on_disk, "eviction wrote");
        for pid in 0..6u64 {
            let cells = crate::page::cells(&pool.pin(pid).unwrap()).unwrap();
            assert_eq!(cells, [vec![pid as u8, 0], vec![pid as u8, 1]]);
        }
        assert!(pool.update(0, |d| d[0] = 1).is_err(), "unlogged write");

        // Flush: one image per page in the log, then the file catches up.
        pool.flush().unwrap();
        assert_eq!(pool.stats().flushes, 7);
        let wal_path = path.with_file_name("db.wal");
        let scan = wal::scan(&wal_path).unwrap();
        let imaged: Vec<u64> = scan
            .records
            .iter()
            .map(|r| match r {
                wal::WalRecord::Page { file, pid, .. } if file == "t.pages" => *pid,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(imaged, [0, 1, 2, 3, 4, 5, fresh]);
        drop(pool);
        let file = PageFile::open(&path).unwrap();
        assert_eq!(file.pages(), 7);
        let mut buf = vec![0u8; PAGE_SIZE];
        file.read(fresh, &mut buf).unwrap();
        assert_eq!(crate::page::cells(&buf).unwrap(), [b"fresh".to_vec()]);
        file.read(3, &mut buf).unwrap();
        assert_eq!(crate::page::cells(&buf).unwrap(), [vec![3, 0], vec![3, 1]]);
    }

    /// Recovery's order of business on one pool: edits, an image that
    /// holds them, edits behind it — before the pool is sized or caches a
    /// page. The image lands in the file (past its end, too), the edits in
    /// front of it are forgotten and the ones behind it are kept.
    #[test]
    fn a_restored_image_replaces_the_edits_in_front_of_it() {
        let pool = logged_pool("restore", 2, 1, None);
        let path = pool.lock().file.path().to_path_buf();
        pool.apply_logged(1, &push(0, b"in the image")).unwrap();
        let fresh = pool.create_page().unwrap();
        pool.apply_logged(fresh, &push(0, b"also")).unwrap();
        let image = |cell: &[u8]| crate::page::rebuild(&[cell.to_vec()]).unwrap();
        pool.restore_image(1, &image(b"in the image")).unwrap();
        pool.restore_image(fresh, &image(b"also")).unwrap();
        pool.apply_logged(1, &push(1, b"behind it")).unwrap();
        assert_eq!((pool.file_pages(), pool.next_pid()), (3, 3));

        pool.resize(2 * PAGE_SIZE as u64, None);
        assert_eq!(pool.stats().capacity, 2);
        let cells = crate::page::cells(&pool.pin(1).unwrap()).unwrap();
        assert_eq!(cells, [b"in the image".to_vec(), b"behind it".to_vec()]);
        let cells = crate::page::cells(&pool.pin(fresh).unwrap()).unwrap();
        assert_eq!(cells, [b"also".to_vec()]);
        drop(pool);
        let file = PageFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        file.read(1, &mut buf).unwrap();
        assert_eq!(
            crate::page::cells(&buf).unwrap(),
            [b"in the image".to_vec()]
        );
    }

    /// A checkpoint with many dirty pages logs their images through a
    /// bounded pending buffer: 256 pages (2 MiB of images) flush under a
    /// 1 MiB budget on the log, and under a tenth of that.
    #[test]
    fn a_256_page_flush_fits_a_small_wal_budget() {
        for limit in [1u64 << 20, 100 << 10] {
            let mut master = Budget::unlimited().with_mem_limit(limit);
            let observer = master.fork();
            let pool = logged_pool(&format!("chunks-{limit}"), 256, 8, Some(master.fork()));
            for pid in 0..256u64 {
                pool.apply_logged(pid, &push(0, &pid.to_le_bytes()))
                    .unwrap();
            }
            pool.flush().unwrap();
            assert_eq!(pool.stats().flushes, 256);
            assert_eq!(observer.mem_used(), 0);
            let stats = pool.lock().wal.as_ref().unwrap().stats();
            assert!(stats.image_bytes > 256 * PAGE_SIZE as u64);
            assert_eq!(stats.fsyncs, 2, "one log sync per write-back chunk");
        }
    }

    #[test]
    fn discard_loses_dirty_content_and_returns_budget() {
        let mut budget = Budget::unlimited().with_mem_limit(1 << 30);
        let observer = budget.fork();
        let file = pool_file("discard", 3);
        let pool = BufferPool::new(file, 4 * PAGE_SIZE as u64, Some(budget.fork()));
        pool.update(1, |d| d[0] = 0x99).unwrap();
        pool.discard();
        assert_eq!(observer.mem_used(), 0, "discard returns every byte");
        // The dirty update never reached disk: rereading sees old bytes.
        let p = pool.pin(1).unwrap();
        assert_eq!(p[0], 1);
    }
}
