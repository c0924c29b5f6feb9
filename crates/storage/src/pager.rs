//! Page-granular file IO.
//!
//! A [`PageFile`] is a flat sequence of [`PAGE_SIZE`] pages addressed by
//! page id; all reads and writes are whole pages, each one positioned
//! call (`pread`/`pwrite`, no file cursor to move). Every write stamps the
//! page's checksum trailer ([`crate::page::stamp`]) and every read
//! verifies it — a torn or bit-flipped page surfaces as the typed
//! [`EvalError::CorruptPage`], never as silently-decoded garbage. Other
//! IO failures surface as [`EvalError::SpillIo`] — the same retryable
//! class the spill layer uses, so the degradation ladder treats storage
//! faults uniformly.
//!
//! Under the `failpoints` feature, `storage::page_write` simulates a
//! torn write: the first half of the page reaches the file before the
//! injected error, exactly the partial state a power cut mid-`write(2)`
//! can leave behind.

use crate::page::{stamp, verify, PAGE_SIZE};
use htqo_engine::EvalError;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// An open heap/index file with page-granular access.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    path: PathBuf,
    pages: u64,
}

fn io_err(path: &Path, op: &str, e: std::io::Error) -> EvalError {
    EvalError::SpillIo(format!("{}: {op}: {e}", path.display()))
}

impl PageFile {
    /// Creates (truncating) a new page file.
    pub fn create(path: &Path) -> Result<Self, EvalError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, "create", e))?;
        Ok(PageFile {
            file,
            path: path.to_path_buf(),
            pages: 0,
        })
    }

    /// Opens an existing page file; its length must be a whole number of
    /// pages.
    pub fn open(path: &Path) -> Result<Self, EvalError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "open", e))?;
        let len = file.metadata().map_err(|e| io_err(path, "stat", e))?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(EvalError::SpillIo(format!(
                "{}: length {len} is not page-aligned",
                path.display()
            )));
        }
        Ok(PageFile {
            file,
            path: path.to_path_buf(),
            pages: len / PAGE_SIZE as u64,
        })
    }

    /// Number of pages in the file.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn check_range(&self, pid: u64) -> Result<(), EvalError> {
        if pid >= self.pages {
            return Err(EvalError::SpillIo(format!(
                "{}: page {pid} out of range (file has {})",
                self.path.display(),
                self.pages
            )));
        }
        Ok(())
    }

    /// Reads page `pid` into `buf` (must be [`PAGE_SIZE`] long) with one
    /// positioned read and verifies its checksum trailer.
    pub fn read(&self, pid: u64, buf: &mut [u8]) -> Result<(), EvalError> {
        htqo_engine::fail_point!("storage::page_read");
        assert_eq!(buf.len(), PAGE_SIZE);
        self.check_range(pid)?;
        self.file
            .read_exact_at(buf, pid * PAGE_SIZE as u64)
            .map_err(|e| io_err(&self.path, "read", e))?;
        if !verify(buf) {
            return Err(EvalError::CorruptPage {
                file: self.path.display().to_string(),
                pid,
            });
        }
        Ok(())
    }

    /// Stamps `page`'s checksum and writes it at `offset` with one
    /// positioned write, honoring the `storage::page_write` failpoint by
    /// leaving a half-written (torn) page behind.
    fn stamped_write_at(&self, offset: u64, page: &[u8]) -> Result<(), EvalError> {
        let mut stamped = page.to_vec();
        stamp(&mut stamped);
        if htqo_engine::failpoint::armed() {
            if let Err(e) = htqo_engine::failpoint::eval("storage::page_write") {
                // Simulate a torn write: half the page lands, then the
                // "crash". The half-page carries a stale/invalid
                // trailer, so recovery sees it as corrupt — exactly
                // like real hardware.
                let _ = self.file.write_all_at(&stamped[..PAGE_SIZE / 2], offset);
                return Err(e);
            }
        }
        self.file
            .write_all_at(&stamped, offset)
            .map_err(|e| io_err(&self.path, "write", e))
    }

    /// Overwrites page `pid` with `page` (must be [`PAGE_SIZE`] long).
    /// The checksum trailer is (re)stamped; callers need not fill it.
    pub fn write(&mut self, pid: u64, page: &[u8]) -> Result<(), EvalError> {
        assert_eq!(page.len(), PAGE_SIZE);
        self.check_range(pid)?;
        self.stamped_write_at(pid * PAGE_SIZE as u64, page)
    }

    /// Writes page `pid`, growing the file (zero-extended, with valid
    /// trailers on the gap pages) when `pid` is at or beyond the current
    /// end — the write-back path for pages created in the buffer pool.
    pub fn write_extend(&mut self, pid: u64, page: &[u8]) -> Result<(), EvalError> {
        assert_eq!(page.len(), PAGE_SIZE);
        while self.pages < pid {
            let gap = self.pages;
            self.stamped_write_at(gap * PAGE_SIZE as u64, &[0u8; PAGE_SIZE])?;
            self.pages += 1;
        }
        self.stamped_write_at(pid * PAGE_SIZE as u64, page)?;
        if pid == self.pages {
            self.pages += 1;
        }
        Ok(())
    }

    /// Appends `page` (must be [`PAGE_SIZE`] long); returns its page id.
    pub fn append(&mut self, page: &[u8]) -> Result<u64, EvalError> {
        assert_eq!(page.len(), PAGE_SIZE);
        let pid = self.pages;
        self.stamped_write_at(pid * PAGE_SIZE as u64, page)?;
        self.pages += 1;
        Ok(pid)
    }

    /// Durability point: fsync.
    pub fn sync(&mut self) -> Result<(), EvalError> {
        self.file
            .sync_all()
            .map_err(|e| io_err(&self.path, "sync", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_DATA;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("htqo-pager-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.pages")
    }

    #[test]
    fn append_read_write_roundtrip() {
        let path = tmp("rt");
        let mut f = PageFile::create(&path).unwrap();
        let a = vec![1u8; PAGE_SIZE];
        let b = vec![2u8; PAGE_SIZE];
        assert_eq!(f.append(&a).unwrap(), 0);
        assert_eq!(f.append(&b).unwrap(), 1);
        f.sync().unwrap();

        let mut f = PageFile::open(&path).unwrap();
        assert_eq!(f.pages(), 2);
        let mut buf = vec![0u8; PAGE_SIZE];
        f.read(1, &mut buf).unwrap();
        // The trailer is overwritten by the stamp; the data region must
        // round-trip bit-identically.
        assert_eq!(buf[..PAGE_DATA], b[..PAGE_DATA]);
        f.write(1, &a).unwrap();
        f.read(1, &mut buf).unwrap();
        assert_eq!(buf[..PAGE_DATA], a[..PAGE_DATA]);
        assert!(f.read(2, &mut buf).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unaligned_file_is_rejected() {
        let path = tmp("unaligned");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(PageFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_is_reported_as_corrupt_page() {
        let path = tmp("flip");
        let mut f = PageFile::create(&path).unwrap();
        f.append(&vec![9u8; PAGE_SIZE]).unwrap();
        f.sync().unwrap();
        drop(f);

        // Flip one data byte behind the pager's back.
        let mut raw = std::fs::read(&path).unwrap();
        raw[123] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();

        let f = PageFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        match f.read(0, &mut buf) {
            Err(EvalError::CorruptPage { pid, .. }) => assert_eq!(pid, 0),
            other => panic!("expected CorruptPage, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_extend_grows_with_valid_gap_pages() {
        let path = tmp("extend");
        let mut f = PageFile::create(&path).unwrap();
        f.write_extend(3, &vec![5u8; PAGE_SIZE]).unwrap();
        assert_eq!(f.pages(), 4);
        let mut buf = vec![0u8; PAGE_SIZE];
        // Gap pages are zeroed but checksummed — readable, not corrupt.
        f.read(1, &mut buf).unwrap();
        assert!(buf[..PAGE_DATA].iter().all(|&b| b == 0));
        f.read(3, &mut buf).unwrap();
        assert_eq!(buf[..PAGE_DATA], vec![5u8; PAGE_DATA][..]);
        std::fs::remove_file(&path).ok();
    }
}
