//! Grace-style spill-to-disk support for the join and aggregation
//! kernels (the memory governor's external-memory escape hatch).
//!
//! When a byte reservation is denied mid-build (see
//! [`Budget::try_reserve_bytes`](crate::error::Budget::try_reserve_bytes)),
//! an operator partitions its input by key hash into checksummed temp
//! files under a per-operator `SpillDir` and re-processes partition by
//! partition on its in-memory kernel — `cops`'s `join_pairs` and gather
//! for a join, `aggregate`'s columnar core for an aggregation — recursing
//! with a level-salted partition function when a partition is still too
//! big (skew). This module is the partitioning layer under both: the
//! join's build reservation (`join_build_reservation`),
//! `partition` / `repartition` / `load`, and the chunk format they
//! write:
//!
//! ```text
//! frame   := len:u32 LE | checksum:u64 LE | payload
//! payload := rows:u32 LE | columns:u32 LE | block*   (one block per column)
//! block   := tag:u8 | null-word:u64 LE * ⌈rows/64⌉ (iff tag & 0x80) | cells
//! cells   := i64 LE * rows                          -- tag 1, Int
//!          | f64-bits LE * rows                     -- tag 2, Float
//!          | dictionary code:u32 LE * rows          -- tag 3, Str
//!          | i32 LE * rows                          -- tag 4, Date
//!          | value * rows                           -- tag 5, Mixed
//! value   := 0x00                          -- NULL
//!          | 0x01 i64:LE                   -- Int
//!          | 0x02 f64-bits:LE              -- Float
//!          | 0x03 len:u32 LE utf8-bytes    -- Str
//!          | 0x04 i32:LE                   -- Date
//! ```
//!
//! One chunk holds up to `keyplan::BLOCK` rows of one partition, in input
//! order, as the typed arrays of the spilled relation's columns. String
//! cells stay dictionary codes (NULL is `u32::MAX`): the dictionary is
//! process-global and append-only, so a code outlives the file and reads
//! back without re-interning or taking the dictionary lock. Only `Mixed`
//! cells are tagged values. No hash is stored: a re-partition recomputes
//! the key hashes from the chunk, and they are content hashes, the same
//! at every pass.
//!
//! The checksum is the engine's FxHash over the payload bytes. Every
//! length read is bounded by the bytes left in the file, and every chunk
//! must have the spilled relation's shape — its column count and variant
//! tags, 1 to `BLOCK` rows, no byte left over — so a torn write, bit rot,
//! truncation or a forged chunk surfaces as a clean
//! [`EvalError::SpillIo`], never a panic, an allocation sized by a
//! corrupt field or a wrong answer. Temp files live under the budget's
//! spill directory (or the system temp dir) and are removed when the `SpillDir` guard
//! drops — including on panic or cancellation unwinds — with an explicit,
//! failpoint-instrumented `SpillDir::cleanup` for the normal path.
//!
//! Failpoint sites: `spill::write` (per chunk written), `spill::read`
//! (per chunk read), `spill::cleanup` (explicit cleanup only; the Drop
//! fallback never fires a failpoint, since panicking during an unwind
//! would abort).

use crate::chain::ChainTable;
use crate::column::{Column, ColumnData};
use crate::cops::key_hashes;
use crate::crel::{CRel, Name};
use crate::dict;
use crate::error::{Budget, EvalError, SpillMode, SpillStats};
use crate::hash::FxHasher;
use crate::keyplan::BLOCK;
use crate::value::Value;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Partition fan-out per spill level (8 = 3 bits). Small enough that a
/// recursion level costs few file handles, large enough that two levels
/// already split 64 ways.
pub const SPILL_FANOUT: usize = 8;

/// Maximum recursive re-partitioning depth. At the bottom the operator
/// reserves memory unconditionally and surfaces a clean
/// `MemoryExceeded` if the pool cannot cover even a maximally split
/// partition (e.g. one giant duplicate key).
pub const MAX_SPILL_LEVEL: u32 = 6;

/// Assigns `hash` to one of [`SPILL_FANOUT`] partitions at `level`.
///
/// Level-salted: every level remixes with a distinct odd multiplier so
/// rows that collided at level *k* redistribute at level *k + 1*.
#[inline]
pub fn spill_partition(hash: u64, level: u32) -> usize {
    let salt = (level as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let x = (hash ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let x = x ^ (x >> 32);
    (x as usize) & (SPILL_FANOUT - 1)
}

fn io_err(context: &str, e: std::io::Error) -> EvalError {
    EvalError::SpillIo(format!("{context}: {e}"))
}

fn corrupt(what: String) -> EvalError {
    EvalError::SpillIo(format!("corrupt spill chunk: {what}"))
}

fn checksum(payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    payload.hash(&mut h);
    h.finish()
}

/// Monotonic suffix making concurrent spill dirs of one process unique.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A per-operator spill directory with guaranteed reclamation: removal
/// happens in [`SpillDir::cleanup`] (normal path, failpoint-checked) or
/// in `Drop` (error/panic/cancellation unwinds, best effort, no
/// failpoints). Nothing outside this directory is ever touched.
pub(crate) struct SpillDir {
    path: PathBuf,
    file_seq: AtomicU64,
    cleaned: bool,
}

impl SpillDir {
    /// Creates a fresh unique directory under `base` (`Budget::spill_dir`)
    /// when `Some`, else under the system temp dir.
    pub(crate) fn create(base: Option<&Path>) -> Result<SpillDir, EvalError> {
        let base = base.map_or_else(std::env::temp_dir, Path::to_path_buf);
        let unique = format!(
            "htqo-spill-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = base.join(unique);
        fs::create_dir_all(&path).map_err(|e| io_err("creating spill dir", e))?;
        Ok(SpillDir {
            path,
            file_seq: AtomicU64::new(0),
            cleaned: false,
        })
    }

    /// A fresh file path inside the directory, tagged for debuggability
    /// (`tag` must be filename-safe).
    fn next_file(&self, tag: &str) -> PathBuf {
        let n = self.file_seq.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("{tag}-{n}.spill"))
    }

    /// Removes the directory and everything in it. The explicit-path
    /// twin of the `Drop` fallback, with a `spill::cleanup` failpoint so
    /// the chaos suite can inject cleanup failures; even when removal
    /// errors, the guard stops retrying (the OS temp reaper owns leaks
    /// past this point — we never leave *silently*).
    pub(crate) fn cleanup(&mut self) -> Result<(), EvalError> {
        crate::fail_point!("spill::cleanup");
        self.cleaned = true;
        fs::remove_dir_all(&self.path).map_err(|e| io_err("removing spill dir", e))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if !self.cleaned {
            // Best effort, no failpoints: this runs on panic unwinds.
            let _ = fs::remove_dir_all(&self.path);
        }
    }
}

/// A finished spill file: its path plus row/byte counts (the byte count
/// feeds the re-load reservation estimate and bounds every read).
#[derive(Debug)]
pub(crate) struct SpillFile {
    /// Path inside the owning [`SpillDir`].
    pub(crate) path: PathBuf,
    /// Rows written.
    pub(crate) rows: u64,
    /// Total bytes written (frame headers included).
    pub(crate) bytes: u64,
}

/// Variant tags of a column block (see the module docs).
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DATE: u8 = 4;
const TAG_MIXED: u8 = 5;
/// Tag flag: the block carries null-mask words.
const HAS_NULLS: u8 = 0x80;

fn tag_of(col: &Column) -> u8 {
    match col.data() {
        ColumnData::Int(_) => TAG_INT,
        ColumnData::Float(_) => TAG_FLOAT,
        ColumnData::Str(_) => TAG_STR,
        ColumnData::Date(_) => TAG_DATE,
        ColumnData::Mixed(_) => TAG_MIXED,
    }
}

/// Chunk writer (see the module docs).
struct SpillWriter {
    w: BufWriter<fs::File>,
    path: PathBuf,
    scratch: Vec<u8>,
    rows: u64,
    bytes: u64,
}

impl SpillWriter {
    /// Creates (truncates) `path` for writing.
    fn create(path: PathBuf) -> Result<SpillWriter, EvalError> {
        let f = fs::File::create(&path).map_err(|e| io_err("creating spill file", e))?;
        Ok(SpillWriter {
            w: BufWriter::new(f),
            path,
            scratch: Vec::new(),
            rows: 0,
            bytes: 0,
        })
    }

    /// Writes rows `idx` of `rel` (ascending, 1 to [`BLOCK`] of them) as
    /// one checksummed chunk.
    fn write_chunk(&mut self, rel: &CRel, idx: &[u32]) -> Result<(), EvalError> {
        crate::fail_point!("spill::write");
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&(idx.len() as u32).to_le_bytes());
        self.scratch
            .extend_from_slice(&(rel.columns().len() as u32).to_le_bytes());
        for col in rel.columns() {
            encode_column(&col.gather(idx), &mut self.scratch);
        }
        let len = u32::try_from(self.scratch.len())
            .map_err(|_| EvalError::SpillIo("spill chunk over 4 GiB".into()))?;
        let sum = checksum(&self.scratch);
        self.w
            .write_all(&len.to_le_bytes())
            .and_then(|()| self.w.write_all(&sum.to_le_bytes()))
            .and_then(|()| self.w.write_all(&self.scratch))
            .map_err(|e| io_err("writing spill chunk", e))?;
        self.rows += idx.len() as u64;
        self.bytes += 12 + self.scratch.len() as u64;
        Ok(())
    }

    /// Flushes and closes, returning the file's stats.
    fn finish(mut self) -> Result<SpillFile, EvalError> {
        self.w
            .flush()
            .map_err(|e| io_err("flushing spill file", e))?;
        Ok(SpillFile {
            path: std::mem::take(&mut self.path),
            rows: self.rows,
            bytes: self.bytes,
        })
    }
}

/// Chunk reader: checks each frame's length against the bytes left in
/// the file, its checksum, and its shape against the spilled relation.
pub(crate) struct SpillReader {
    r: BufReader<fs::File>,
    /// Bytes of the file not read yet.
    left: u64,
    /// Names of the spilled relation's columns, and their variant tags.
    names: Vec<Name>,
    tags: Vec<u8>,
    buf: Vec<u8>,
}

impl SpillReader {
    /// Opens `file`, written with rows of relations shaped like `like`.
    pub(crate) fn open(file: &SpillFile, like: &CRel) -> Result<SpillReader, EvalError> {
        let f = fs::File::open(&file.path).map_err(|e| io_err("opening spill file", e))?;
        Ok(SpillReader {
            r: BufReader::new(f),
            left: file.bytes,
            names: like.cols().to_vec(),
            tags: like.columns().iter().map(|c| tag_of(c)).collect(),
            buf: Vec::new(),
        })
    }

    /// The next chunk, named like the spilled relation; `None` once the
    /// file's bytes are read.
    pub(crate) fn read_chunk(&mut self) -> Result<Option<CRel>, EvalError> {
        crate::fail_point!("spill::read");
        if self.left == 0 {
            return Ok(None);
        }
        let mut head = [0u8; 12];
        if self.left < head.len() as u64 {
            return Err(corrupt(format!(
                "{} bytes left for a frame header",
                self.left
            )));
        }
        self.r
            .read_exact(&mut head)
            .map_err(|e| io_err("reading spill frame header", e))?;
        self.left -= head.len() as u64;
        let (len, sum) = head.split_at(4);
        let len = u64::from(u32::from_le_bytes(len.try_into().expect("4-byte length")));
        let expected = u64::from_le_bytes(sum.try_into().expect("8-byte checksum"));
        if len > self.left {
            return Err(corrupt(format!(
                "frame of {len} bytes with {} left in the file",
                self.left
            )));
        }
        self.left -= len;
        self.buf.resize(len as usize, 0);
        self.r
            .read_exact(&mut self.buf)
            .map_err(|e| io_err("reading spill payload", e))?;
        if checksum(&self.buf) != expected {
            return Err(EvalError::SpillIo(
                "spill frame checksum mismatch (corrupt or torn write)".into(),
            ));
        }
        let (rows, columns) = decode_chunk(&self.buf, &self.tags)?;
        let columns = columns.into_iter().map(Arc::new).collect();
        Ok(Some(CRel::new(self.names.clone(), columns, rows)))
    }
}

/// Appends one column block (see the module docs).
fn encode_column(col: &Column, out: &mut Vec<u8>) {
    let words = col.nulls().words();
    if words.is_empty() {
        out.push(tag_of(col));
    } else {
        out.push(tag_of(col) | HAS_NULLS);
        for w in 0..col.len().div_ceil(64) {
            out.extend_from_slice(&words.get(w).copied().unwrap_or(0).to_le_bytes());
        }
    }
    match col.data() {
        ColumnData::Int(a) => put(a, i64::to_le_bytes, out),
        ColumnData::Float(a) => put(a, f64::to_le_bytes, out),
        ColumnData::Str(a) => put(a, u32::to_le_bytes, out),
        ColumnData::Date(a) => put(a, i32::to_le_bytes, out),
        ColumnData::Mixed(a) => a.iter().for_each(|v| encode_value(v, out)),
    }
}

/// Appends fixed-width little-endian cells.
fn put<T: Copy, const N: usize>(cells: &[T], le: impl Fn(T) -> [u8; N], out: &mut Vec<u8>) {
    out.reserve(N * cells.len());
    cells.iter().for_each(|&x| out.extend_from_slice(&le(x)));
}

/// Fixed-width little-endian cells of `bytes` (a multiple of `N` long).
fn cells<const N: usize, T>(bytes: &[u8], cell: impl Fn([u8; N]) -> T) -> Vec<T> {
    let chunks = bytes.chunks_exact(N);
    chunks
        .map(|b| cell(b.try_into().expect("N bytes")))
        .collect()
}

/// The first `n` bytes of `buf`, which then starts after them.
fn take<'b>(buf: &mut &'b [u8], n: usize) -> Result<&'b [u8], EvalError> {
    let (head, rest) = (buf.split_at_checked(n))
        .ok_or_else(|| corrupt(format!("{n} bytes past the end of its payload")))?;
    *buf = rest;
    Ok(head)
}

/// The rows and columns of one chunk payload whose columns must carry
/// `tags`.
fn decode_chunk(mut buf: &[u8], tags: &[u8]) -> Result<(usize, Vec<Column>), EvalError> {
    let mut word = || take(&mut buf, 4).map(|b| cells(b, u32::from_le_bytes)[0] as usize);
    let (rows, cols) = (word()?, word()?);
    if rows == 0 || rows > BLOCK {
        return Err(corrupt(format!("{rows} rows")));
    }
    if cols != tags.len() {
        return Err(corrupt(format!("{cols} columns, expected {}", tags.len())));
    }
    let mut columns = Vec::with_capacity(cols);
    for &want in tags {
        let tag = take(&mut buf, 1)?[0];
        let masked = tag & HAS_NULLS != 0;
        if tag & !HAS_NULLS != want || (masked && matches!(want, TAG_STR | TAG_MIXED)) {
            return Err(corrupt(format!("column tagged {tag:#x}, expected {want}")));
        }
        let words = if masked { rows.div_ceil(64) } else { 0 };
        let nulls = cells(take(&mut buf, 8 * words)?, u64::from_le_bytes);
        let mut fixed = |n: usize| take(&mut buf, n * rows);
        let data = match want {
            TAG_INT => ColumnData::Int(cells(fixed(8)?, i64::from_le_bytes)),
            TAG_FLOAT => ColumnData::Float(cells(fixed(8)?, f64::from_le_bytes)),
            TAG_STR => ColumnData::Str(cells(fixed(4)?, u32::from_le_bytes)),
            TAG_DATE => ColumnData::Date(cells(fixed(4)?, i32::from_le_bytes)),
            _ => ColumnData::Mixed(
                (0..rows)
                    .map(|_| {
                        let (v, next) = decode_value(buf, 0)?;
                        buf = &buf[next..];
                        Ok(v)
                    })
                    .collect::<Result<_, EvalError>>()?,
            ),
        };
        columns.push(Column::from_raw(data, nulls));
    }
    if !buf.is_empty() {
        return Err(corrupt(format!(
            "{} bytes after its last column",
            buf.len()
        )));
    }
    Ok((rows, columns))
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            out.push(4);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn decode_value(buf: &[u8], at: usize) -> Result<(Value, usize), EvalError> {
    let truncated = || corrupt("truncated value".into());
    let tag = *buf.get(at).ok_or_else(truncated)?;
    let at = at + 1;
    let take = |n: usize| buf.get(at..at + n).ok_or_else(truncated);
    Ok(match tag {
        0 => (Value::Null, at),
        1 => (
            Value::Int(i64::from_le_bytes(take(8)?.try_into().unwrap())),
            at + 8,
        ),
        2 => (
            Value::Float(f64::from_bits(u64::from_le_bytes(
                take(8)?.try_into().unwrap(),
            ))),
            at + 8,
        ),
        3 => {
            let n = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
            let bytes = buf.get(at + 4..at + 4 + n).ok_or_else(truncated)?;
            let s = std::str::from_utf8(bytes).map_err(|_| corrupt("invalid utf-8".into()))?;
            (Value::str(s), at + 4 + n)
        }
        4 => (
            Value::Date(i32::from_le_bytes(take(4)?.try_into().unwrap())),
            at + 4,
        ),
        _ => return Err(corrupt(format!("unknown value tag {tag}"))),
    })
}

/// Writes every row of `rel` into [`SPILL_FANOUT`] partition files at
/// `level`, routed by the hash of its key columns `key`.
pub(crate) fn partition(
    dir: &SpillDir,
    tag: &str,
    rel: &CRel,
    key: &[usize],
    level: u32,
    stats: &SpillStats,
) -> Result<Vec<SpillFile>, EvalError> {
    split(
        dir,
        tag,
        std::iter::once(Ok(rel.clone())),
        key,
        level,
        stats,
    )
}

/// Re-partitions a spill file of rows shaped like `like` at a deeper
/// (re-salted) `level`; the consumed file is removed to keep peak disk
/// usage at roughly one copy per side per level.
pub(crate) fn repartition(
    dir: &SpillDir,
    tag: &str,
    file: &SpillFile,
    like: &CRel,
    key: &[usize],
    level: u32,
    stats: &SpillStats,
) -> Result<Vec<SpillFile>, EvalError> {
    let mut reader = SpillReader::open(file, like)?;
    let chunks = std::iter::from_fn(|| reader.read_chunk().transpose());
    let files = split(dir, tag, chunks, key, level, stats);
    let _ = fs::remove_file(&file.path);
    files
}

/// Writes the rows of `rels` into [`SPILL_FANOUT`] partition files:
/// row `i` goes to partition `spill_partition(h, level)`, where `h` is
/// its hash over the key columns `key` (`cops::key_hashes`, recomputed
/// for every chunk); rows keep their order within a partition.
fn split(
    dir: &SpillDir,
    tag: &str,
    rels: impl Iterator<Item = Result<CRel, EvalError>>,
    key: &[usize],
    level: u32,
    stats: &SpillStats,
) -> Result<Vec<SpillFile>, EvalError> {
    let mut writers: Vec<SpillWriter> = (0..SPILL_FANOUT)
        .map(|_| SpillWriter::create(dir.next_file(tag)))
        .collect::<Result<_, _>>()?;
    for rel in rels {
        let rel = rel?;
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); SPILL_FANOUT];
        for (i, &h) in key_hashes(&rel, key, &dict::reader()).iter().enumerate() {
            parts[spill_partition(h, level)].push(i as u32);
        }
        for (w, idx) in writers.iter_mut().zip(&parts) {
            for idx in idx.chunks(BLOCK) {
                w.write_chunk(&rel, idx)?;
            }
        }
    }
    let files: Vec<SpillFile> = writers
        .into_iter()
        .map(SpillWriter::finish)
        .collect::<Result<_, _>>()?;
    stats.add_partitions(SPILL_FANOUT as u64);
    stats.add_bytes(files.iter().map(|f| f.bytes).sum());
    Ok(files)
}

/// Every row of `file` as one relation shaped like `like`: its chunks,
/// concatenated.
pub(crate) fn load(file: &SpillFile, like: &CRel) -> Result<CRel, EvalError> {
    let mut rows = Concat::new(like, file.rows as usize);
    let mut reader = SpillReader::open(file, like)?;
    while let Some(chunk) = reader.read_chunk()? {
        rows.push(&chunk);
    }
    Ok(rows.take())
}

/// Relations appended in arrival order into columns shaped like a
/// template's (`Column::extend_from`).
pub(crate) struct Concat {
    names: Vec<Name>,
    columns: Vec<Column>,
    len: usize,
}

impl Concat {
    /// No rows yet, room for `cap`.
    pub(crate) fn new(like: &CRel, cap: usize) -> Concat {
        Concat {
            names: like.cols().to_vec(),
            columns: like.columns().iter().map(|c| c.empty_like(cap)).collect(),
            len: 0,
        }
    }

    /// Rows so far.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends the rows of `rel`, whose columns have the template's
    /// variants.
    pub(crate) fn push(&mut self, rel: &CRel) {
        for (col, part) in self.columns.iter_mut().zip(rel.columns()) {
            col.extend_from(part);
        }
        self.len += rel.len();
    }

    /// The rows so far as a relation, leaving none behind.
    pub(crate) fn take(&mut self) -> CRel {
        let columns = (self.columns.iter_mut())
            .map(|c| {
                let empty = c.empty_like(0);
                Arc::new(std::mem::replace(c, empty))
            })
            .collect();
        CRel::new(self.names.clone(), columns, std::mem::take(&mut self.len))
    }
}

/// Bytes the in-memory join path reserves up front and releases when the
/// kernel returns: the chained hash table over the build side plus one
/// hash word per row of either side (the kernels hash a side into such an
/// array; the amount is also what decides between the in-memory and the
/// spill path, so it is part of every byte-limited plan's behaviour).
pub(crate) fn join_build_bytes(build_n: usize, probe_n: usize) -> u64 {
    ChainTable::byte_estimate(build_n) + 8 * (build_n + probe_n) as u64
}

/// The memory governor's spill decision for a hash-join build: reserves
/// the in-memory build structures and returns `false` (stay in memory),
/// or returns `true` when the kernel must take the grace-spill path —
/// either because the reservation was denied under [`SpillMode::Auto`]
/// or because spill is forced. A denial with no spill alternative (no
/// shared key to partition on, spill off) is a clean
/// [`EvalError::MemoryExceeded`]; nothing is charged in that case.
pub(crate) fn join_build_reservation(
    budget: &mut Budget,
    shared_key: &[usize],
    build_n: usize,
    probe_n: usize,
) -> Result<bool, EvalError> {
    // A cross product (no shared key) or an empty side cannot be
    // partitioned by key; those always take the in-memory path.
    let spill_capable = !shared_key.is_empty() && build_n > 0 && probe_n > 0;
    let want = join_build_bytes(build_n, probe_n);
    if budget.spill_mode() == SpillMode::Force && spill_capable {
        return Ok(true);
    }
    if budget.try_reserve_bytes(want) {
        return Ok(false);
    }
    if budget.spill_mode() == SpillMode::Auto && spill_capable {
        return Ok(true);
    }
    Err(EvalError::MemoryExceeded {
        requested: want,
        reserved: budget.mem_used(),
        pool: budget.mem_limit().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyplan::blocks;
    use crate::schema::ColumnType;

    fn column(ty: Option<ColumnType>, vals: &[Value]) -> Arc<Column> {
        let mut c = match ty {
            Some(ty) => Column::new(ty),
            None => Column::mixed_with_capacity(0),
        };
        vals.iter().for_each(|v| c.push_value(v));
        Arc::new(c)
    }

    /// Every variant, NULLs in each (also past the first mask word), NaN
    /// and `-0.0`, and a `Mixed` column of every value kind.
    fn sample(n: usize) -> CRel {
        let vals = |f: &dyn Fn(usize) -> Value| {
            (0..n)
                .map(|i| if i % 7 == 3 { Value::Null } else { f(i) })
                .collect::<Vec<_>>()
        };
        let columns = vec![
            column(Some(ColumnType::Int), &vals(&|i| Value::Int(i as i64 - 50))),
            column(
                Some(ColumnType::Float),
                &vals(&|i| Value::Float([f64::NAN, -0.0, 1.5][i % 3])),
            ),
            column(
                Some(ColumnType::Str),
                &vals(&|i| Value::str(["a", "héllo", ""][i % 3])),
            ),
            column(
                Some(ColumnType::Date),
                &vals(&|i| Value::Date(8766 + i as i32)),
            ),
            column(
                None,
                &vals(&|i| match i % 4 {
                    0 => Value::Int(i as i64),
                    1 => Value::Float(0.25),
                    2 => Value::str("mixed"),
                    _ => Value::Date(3),
                }),
            ),
        ];
        let names = ["i", "f", "s", "d", "m"].map(Name::from).to_vec();
        CRel::new(names, columns, n)
    }

    /// The rows of `rel`, floats by their bits.
    fn rows_of(rel: &CRel) -> Vec<String> {
        let reader = dict::reader();
        (0..rel.len())
            .map(|i| {
                let row = rel
                    .columns()
                    .iter()
                    .map(|c| match c.value_with(i, &reader) {
                        Value::Float(x) => format!("F{:x}", x.to_bits()),
                        v => format!("{v:?}"),
                    });
                row.collect::<Vec<_>>().join("|")
            })
            .collect()
    }

    fn write(dir: &SpillDir, rel: &CRel) -> SpillFile {
        let mut w = SpillWriter::create(dir.next_file("t")).unwrap();
        for rows in blocks(0..rel.len()) {
            let idx: Vec<u32> = rows.map(|i| i as u32).collect();
            w.write_chunk(rel, &idx).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn chunks_round_trip_every_variant() {
        let mut dir = SpillDir::create(None).unwrap();
        for n in [1, 63, 64, 65, 200, BLOCK, 2 * BLOCK + 5] {
            let rel = sample(n);
            let f = write(&dir, &rel);
            assert_eq!(f.rows, n as u64);
            let back = load(&f, &rel).unwrap();
            assert_eq!(back.cols(), rel.cols());
            assert_eq!(rows_of(&back), rows_of(&rel), "{n} rows");
            for (a, b) in back.columns().iter().zip(rel.columns()) {
                assert_eq!(tag_of(a), tag_of(b));
                assert_eq!(a.nulls().words(), b.nulls().words(), "{n} rows");
            }
        }
        dir.cleanup().unwrap();
    }

    #[test]
    fn partitions_split_by_key_hash_and_keep_row_order() {
        let dir = SpillDir::create(None).unwrap();
        let rel = sample(3 * BLOCK);
        let stats = SpillStats::default();
        let parts = partition(&dir, "p", &rel, &[0, 2], 0, &stats).unwrap();
        let hashes = key_hashes(&rel, &[0, 2], &dict::reader());
        let all = rows_of(&rel);
        for (p, file) in parts.iter().enumerate() {
            let want: Vec<&String> = (0..rel.len())
                .filter(|&i| spill_partition(hashes[i], 0) == p)
                .map(|i| &all[i])
                .collect();
            let got = rows_of(&load(file, &rel).unwrap());
            assert_eq!(got.iter().collect::<Vec<_>>(), want, "partition {p}");
        }
        assert_eq!(stats.partitions(), SPILL_FANOUT as u64);
        // Typed cells and no stored hash: a pair of `Int`s is 16 B plus
        // its share of the chunk headers.
        let keys = Arc::new(Column::from_ints((0..40_000).collect()));
        let ints = CRel::new(
            vec!["k".into(), "v".into()],
            vec![Arc::clone(&keys), keys],
            40_000,
        );
        let stats = SpillStats::default();
        partition(&dir, "q", &ints, &[0], 0, &stats).unwrap();
        assert!(
            stats.bytes_written() <= 17 * 40_000,
            "{}",
            stats.bytes_written()
        );
    }

    /// Replaces the frame at `at` with one holding `payload` and its
    /// checksum.
    fn forge(path: &Path, at: usize, payload: &[u8]) {
        let mut bytes = fs::read(path).unwrap();
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        bytes.splice(at..at + 12 + len, frame);
        fs::write(path, bytes).unwrap();
    }

    fn read_all(f: &SpillFile, like: &CRel) -> Result<usize, EvalError> {
        let mut r = SpillReader::open(f, like)?;
        let mut n = 0;
        while let Some(chunk) = r.read_chunk()? {
            n += chunk.len();
        }
        Ok(n)
    }

    fn assert_spill_io(r: Result<usize, EvalError>, what: &str) {
        assert!(
            matches!(&r, Err(EvalError::SpillIo(m)) if m.contains(what)),
            "{what}: {r:?}"
        );
    }

    #[test]
    fn a_huge_length_prefix_is_refused_before_anything_is_allocated() {
        let dir = SpillDir::create(None).unwrap();
        let rel = sample(10);
        let f = write(&dir, &rel);
        let mut bytes = fs::read(&f.path).unwrap();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&f.path, bytes).unwrap();
        assert_spill_io(read_all(&f, &rel), "left in the file");
    }

    #[test]
    fn a_chunk_with_a_valid_checksum_but_the_wrong_shape_is_refused() {
        let dir = SpillDir::create(None).unwrap();
        let rel = sample(BLOCK + 10);
        let f = write(&dir, &rel);
        let good = fs::read(&f.path).unwrap();
        let second = 12 + u32::from_le_bytes(good[..4].try_into().unwrap()) as usize;
        let payload = good[second + 12..].to_vec();
        // The second chunk re-tagged, re-counted or padded.
        type Edit = fn(&mut Vec<u8>);
        let edits: [(Edit, &str); 4] = [
            (|p| p[8] = TAG_FLOAT, "column tagged 0x2, expected 1"),
            (
                |p| p[4..8].copy_from_slice(&4u32.to_le_bytes()),
                "4 columns",
            ),
            (|p| p[..4].copy_from_slice(&0u32.to_le_bytes()), "0 rows"),
            (|p| p.push(0), "1 bytes after"),
        ];
        for (edit, what) in edits {
            fs::write(&f.path, &good).unwrap();
            let mut p = payload.clone();
            edit(&mut p);
            forge(&f.path, second, &p);
            let forged = SpillFile {
                path: f.path.clone(),
                rows: f.rows,
                bytes: fs::metadata(&f.path).unwrap().len(),
            };
            assert_spill_io(read_all(&forged, &rel), what);
        }
        // A string column read back as a mixed one is refused too.
        fs::write(&f.path, &good).unwrap();
        let (names, mut columns, _) = sample(0).into_parts();
        columns[2] = Arc::new(Column::mixed_with_capacity(0));
        assert_spill_io(
            read_all(&f, &CRel::new(names, columns, 0)),
            "column tagged 0x3, expected 5",
        );
    }

    #[test]
    fn checksum_detects_corruption() {
        let dir = SpillDir::create(None).unwrap();
        let rel = sample(10);
        let f = write(&dir, &rel);
        let mut bytes = fs::read(&f.path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&f.path, bytes).unwrap();
        assert_spill_io(read_all(&f, &rel), "checksum");
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let dir = SpillDir::create(None).unwrap();
        let rel = sample(BLOCK + 10);
        let f = write(&dir, &rel);
        let bytes = fs::read(&f.path).unwrap();
        let first = 12 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        // Cut inside a payload, inside a header, and at a frame boundary.
        for cut in [bytes.len() - 3, first + 5, first] {
            fs::write(&f.path, &bytes[..cut]).unwrap();
            assert!(
                matches!(read_all(&f, &rel), Err(EvalError::SpillIo(_))),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn dir_guard_removes_on_drop_and_cleanup() {
        let dir = SpillDir::create(None).unwrap();
        let p = dir.path.clone();
        write(&dir, &sample(3));
        assert!(p.exists());
        drop(dir);
        assert!(!p.exists(), "Drop must reclaim the spill dir");

        let mut dir = SpillDir::create(None).unwrap();
        let p = dir.path.clone();
        dir.cleanup().unwrap();
        assert!(!p.exists());
        drop(dir); // idempotent after cleanup
    }

    #[test]
    fn dir_guard_survives_panic_unwind() {
        let dir = SpillDir::create(None).unwrap();
        let p = dir.path.clone();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _w = SpillWriter::create(dir.next_file("p")).unwrap();
            panic!("deliberate");
        }));
        assert!(res.is_err());
        assert!(!p.exists(), "unwind must reclaim the spill dir");
    }

    #[test]
    fn level_salting_redistributes_partitions() {
        // Rows colliding in one level-0 partition must spread at level 1.
        let hashes: Vec<u64> = (0..64u64)
            .map(|i| crate::column::finish_hash(crate::hash::fx_hash_one(&Value::Int(i as i64))))
            .filter(|&h| spill_partition(h, 0) == 0)
            .collect();
        assert!(hashes.len() > 1, "need some level-0 collisions");
        let spread: std::collections::HashSet<usize> =
            hashes.iter().map(|&h| spill_partition(h, 1)).collect();
        assert!(
            spread.len() > 1,
            "level salt failed to redistribute: {spread:?}"
        );
    }
}
