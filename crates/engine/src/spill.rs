//! Grace-style spill-to-disk support for the join and aggregation
//! kernels (the memory governor's external-memory escape hatch).
//!
//! When a byte reservation is denied mid-build (see
//! [`Budget::try_reserve_bytes`](crate::error::Budget::try_reserve_bytes)),
//! an operator partitions its input to checksummed temp files under a
//! per-operator [`SpillDir`] and re-processes partition by partition,
//! recursing with a level-salted partition function when a partition is
//! still too big (skew). The join's build reservation and its Grace
//! driver (`join_build_reservation`, `grace_join_spill`) live here, next
//! to the row frame format that `cops::natural_join` and the aggregation
//! spill write:
//!
//! ```text
//! frame   := len:u32 LE | checksum:u64 LE | payload
//! payload := value*            (one frame per row)
//! value   := 0x00                          -- NULL
//!          | 0x01 i64:LE                   -- Int
//!          | 0x02 f64-bits:LE              -- Float
//!          | 0x03 len:u32 LE utf8-bytes    -- Str (re-interned on read)
//!          | 0x04 i32:LE                   -- Date
//! ```
//!
//! The checksum is the engine's FxHash over the payload bytes; a
//! mismatch (torn write, bit rot, truncation) surfaces as a clean
//! [`EvalError::SpillIo`], never a panic or a wrong answer. Temp files
//! live in `HTQO_SPILL_DIR` (or the system temp dir) and are removed
//! when the [`SpillDir`] guard drops — including on panic or
//! cancellation unwinds — with an explicit, failpoint-instrumented
//! [`SpillDir::cleanup`] for the normal path.
//!
//! Failpoint sites: `spill::write` (per frame written), `spill::read`
//! (per frame read), `spill::cleanup` (explicit cleanup only; the Drop
//! fallback never fires a failpoint, since panicking during an unwind
//! would abort).

use crate::chain::ChainTable;
use crate::error::{Budget, EvalError, SpillMode, SpillStats};
use crate::hash::FxHasher;
use crate::value::{row_heap_bytes, Row, Value};
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
pub struct SpillDir {
    path: PathBuf,
    file_seq: AtomicU64,
    cleaned: bool,
}

impl SpillDir {
    /// Creates a fresh unique directory under `base` (when `Some`, e.g.
    /// from `Budget::spill_dir`), else under `HTQO_SPILL_DIR`, else the
    /// system temp dir.
    pub fn create(base: Option<&Path>) -> Result<SpillDir, EvalError> {
        let base = match base {
            Some(p) => p.to_path_buf(),
            None => match std::env::var_os("HTQO_SPILL_DIR") {
                Some(d) if !d.is_empty() => PathBuf::from(d),
                _ => std::env::temp_dir(),
            },
        };
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

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh file path inside the directory, tagged for debuggability
    /// (`tag` must be filename-safe).
    pub fn next_file(&self, tag: &str) -> PathBuf {
        let n = self.file_seq.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("{tag}-{n}.spill"))
    }

    /// Removes the directory and everything in it. The explicit-path
    /// twin of the `Drop` fallback, with a `spill::cleanup` failpoint so
    /// the chaos suite can inject cleanup failures; even when removal
    /// errors, the guard stops retrying (the OS temp reaper owns leaks
    /// past this point — we never leave *silently*).
    pub fn cleanup(&mut self) -> Result<(), EvalError> {
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
/// feeds the re-load reservation estimate).
#[derive(Debug)]
pub struct SpillFile {
    /// Path inside the owning [`SpillDir`].
    pub path: PathBuf,
    /// Frames (rows) written.
    pub rows: u64,
    /// Total bytes written (frame headers included).
    pub bytes: u64,
}

/// Buffered frame writer (see the module docs for the format).
pub struct SpillWriter {
    w: BufWriter<fs::File>,
    path: PathBuf,
    scratch: Vec<u8>,
    rows: u64,
    bytes: u64,
}

impl SpillWriter {
    /// Creates (truncates) `path` for writing.
    pub fn create(path: PathBuf) -> Result<SpillWriter, EvalError> {
        let f = fs::File::create(&path).map_err(|e| io_err("creating spill file", e))?;
        Ok(SpillWriter {
            w: BufWriter::new(f),
            path,
            scratch: Vec::new(),
            rows: 0,
            bytes: 0,
        })
    }

    /// Appends one row as a checksummed frame.
    pub fn write_row(&mut self, row: &[Value]) -> Result<(), EvalError> {
        crate::fail_point!("spill::write");
        self.scratch.clear();
        for v in row {
            encode_value(v, &mut self.scratch);
        }
        let len = u32::try_from(self.scratch.len())
            .map_err(|_| EvalError::SpillIo("spill row over 4 GiB".into()))?;
        let sum = checksum(&self.scratch);
        self.w
            .write_all(&len.to_le_bytes())
            .and_then(|()| self.w.write_all(&sum.to_le_bytes()))
            .and_then(|()| self.w.write_all(&self.scratch))
            .map_err(|e| io_err("writing spill frame", e))?;
        self.rows += 1;
        self.bytes += 12 + self.scratch.len() as u64;
        Ok(())
    }

    /// Flushes and closes, returning the file's stats.
    pub fn finish(mut self) -> Result<SpillFile, EvalError> {
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

/// Buffered frame reader with checksum verification.
pub struct SpillReader {
    r: BufReader<fs::File>,
    buf: Vec<u8>,
}

impl SpillReader {
    /// Opens a file written by [`SpillWriter`].
    pub fn open(path: &Path) -> Result<SpillReader, EvalError> {
        let f = fs::File::open(path).map_err(|e| io_err("opening spill file", e))?;
        Ok(SpillReader {
            r: BufReader::new(f),
            buf: Vec::new(),
        })
    }

    /// Reads the next row, `None` at a clean end of file. A truncated
    /// frame or checksum mismatch is [`EvalError::SpillIo`].
    pub fn read_row(&mut self) -> Result<Option<Row>, EvalError> {
        crate::fail_point!("spill::read");
        let mut len = [0u8; 4];
        match self.r.read_exact(&mut len) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(io_err("reading spill frame header", e)),
        }
        let len = u32::from_le_bytes(len) as usize;
        let mut sum = [0u8; 8];
        self.r
            .read_exact(&mut sum)
            .map_err(|e| io_err("reading spill checksum", e))?;
        let expected = u64::from_le_bytes(sum);
        self.buf.resize(len, 0);
        self.r
            .read_exact(&mut self.buf)
            .map_err(|e| io_err("reading spill payload", e))?;
        if checksum(&self.buf) != expected {
            return Err(EvalError::SpillIo(
                "spill frame checksum mismatch (corrupt or torn write)".into(),
            ));
        }
        let mut vals = Vec::new();
        let mut at = 0usize;
        while at < self.buf.len() {
            let (v, next) = decode_value(&self.buf, at)?;
            vals.push(v);
            at = next;
        }
        Ok(Some(vals.into_boxed_slice()))
    }
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
    let corrupt = || EvalError::SpillIo("truncated value in spill payload".into());
    let tag = *buf.get(at).ok_or_else(corrupt)?;
    let at = at + 1;
    let take = |n: usize| buf.get(at..at + n).ok_or_else(corrupt);
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
            let bytes = buf.get(at + 4..at + 4 + n).ok_or_else(corrupt)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| EvalError::SpillIo("invalid utf-8 in spill payload".into()))?;
            (Value::str(s), at + 4 + n)
        }
        4 => (
            Value::Date(i32::from_le_bytes(take(4)?.try_into().unwrap())),
            at + 4,
        ),
        _ => {
            return Err(EvalError::SpillIo(format!(
                "unknown value tag {tag} in spill payload"
            )))
        }
    })
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

/// Grace-style spill join, taken when the in-memory build reservation is
/// denied (or spill is forced). Both sides are hash-partitioned to
/// checksummed temp files by their shared-key hash, then each partition
/// pair is joined in memory — recursing with a re-salted partition
/// function when a partition's build side still does not fit. Rows reach
/// this function through closures so the columnar kernel can stream rows
/// straight out of its columns without materializing a row copy of the
/// whole relation.
///
/// Output order: partitions in index order, probe order preserved within
/// a partition — deterministic, but different from the in-memory kernels
/// (all consumers are set-semantic). `Err` paths reclaim the temp
/// directory via the [`SpillDir`] drop guard.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grace_join_spill(
    build_n: usize,
    build_row: impl FnMut(usize) -> Row,
    build_hash: impl Fn(usize) -> u64,
    probe_n: usize,
    probe_row: impl FnMut(usize) -> Row,
    probe_hash: impl Fn(usize) -> u64,
    build_key: &[usize],
    probe_key: &[usize],
    probe_rest: &[usize],
    build_width: usize,
    budget: &mut Budget,
) -> Result<Vec<Row>, EvalError> {
    let stats = budget.spill_stats();
    let mut dir = SpillDir::create(budget.spill_dir())?;
    let bparts = partition_side(&dir, "b", build_n, build_row, build_hash, 0, &stats)?;
    let pparts = partition_side(&dir, "p", probe_n, probe_row, probe_hash, 0, &stats)?;
    let width = build_width + probe_rest.len();
    let mut out: Vec<Row> = Vec::new();
    for p in 0..SPILL_FANOUT {
        join_spilled_partition(
            &dir, &bparts[p], &pparts[p], 0, build_key, probe_key, probe_rest, width, budget,
            &mut out,
        )?;
    }
    dir.cleanup()?;
    Ok(out)
}

/// Writes every row of one side into [`SPILL_FANOUT`] partition files at
/// `level`, each frame prefixed with the row's key hash (as an `Int`
/// value) so downstream passes never rehash.
pub(crate) fn partition_side(
    dir: &SpillDir,
    tag: &str,
    n: usize,
    mut row: impl FnMut(usize) -> Row,
    hash: impl Fn(usize) -> u64,
    level: u32,
    stats: &Arc<SpillStats>,
) -> Result<Vec<SpillFile>, EvalError> {
    let mut writers: Vec<SpillWriter> = (0..SPILL_FANOUT)
        .map(|_| SpillWriter::create(dir.next_file(tag)))
        .collect::<Result<_, _>>()?;
    let mut frame: Vec<Value> = Vec::new();
    for i in 0..n {
        let h = hash(i);
        frame.clear();
        frame.push(Value::Int(h as i64));
        frame.extend(row(i).into_vec());
        writers[spill_partition(h, level)].write_row(&frame)?;
    }
    let files: Vec<SpillFile> = writers
        .into_iter()
        .map(|w| w.finish())
        .collect::<Result<_, _>>()?;
    stats.add_partitions(SPILL_FANOUT as u64);
    stats.add_bytes(files.iter().map(|f| f.bytes).sum());
    Ok(files)
}

/// Re-partitions an existing spill file at a deeper (re-salted) level;
/// the consumed file is removed to keep peak disk usage at roughly one
/// copy per side per level.
pub(crate) fn repartition_file(
    dir: &SpillDir,
    tag: &str,
    file: &SpillFile,
    level: u32,
    stats: &Arc<SpillStats>,
) -> Result<Vec<SpillFile>, EvalError> {
    let mut writers: Vec<SpillWriter> = (0..SPILL_FANOUT)
        .map(|_| SpillWriter::create(dir.next_file(tag)))
        .collect::<Result<_, _>>()?;
    let mut reader = SpillReader::open(&file.path)?;
    while let Some(frame) = reader.read_row()? {
        let h = frame_hash(&frame)?;
        writers[spill_partition(h, level)].write_row(&frame)?;
    }
    drop(reader);
    let _ = std::fs::remove_file(&file.path);
    let files: Vec<SpillFile> = writers
        .into_iter()
        .map(|w| w.finish())
        .collect::<Result<_, _>>()?;
    stats.add_partitions(SPILL_FANOUT as u64);
    stats.add_bytes(files.iter().map(|f| f.bytes).sum());
    Ok(files)
}

/// Key hash stored as the first value of every partitioned frame.
fn frame_hash(frame: &Row) -> Result<u64, EvalError> {
    match frame.first() {
        Some(Value::Int(h)) => Ok(*h as u64),
        _ => Err(EvalError::SpillIo(
            "spill frame missing its hash prefix".into(),
        )),
    }
}

/// Splits a partitioned frame into `(key hash, original row)`.
pub(crate) fn split_frame(frame: Row) -> Result<(u64, Row), EvalError> {
    let mut v = frame.into_vec();
    if v.is_empty() {
        return Err(EvalError::SpillIo("empty spill frame".into()));
    }
    let h = match v.remove(0) {
        Value::Int(h) => h as u64,
        _ => {
            return Err(EvalError::SpillIo(
                "spill frame missing its hash prefix".into(),
            ))
        }
    };
    Ok((h, v.into_boxed_slice()))
}

/// Joins one spilled partition pair: loads the build side (reserving its
/// bytes), streams the probe side, recursing one level deeper when the
/// reservation is denied. At [`MAX_SPILL_LEVEL`] the reservation becomes
/// mandatory and a denial surfaces as a clean `MemoryExceeded` (one
/// pathological key can defeat any amount of partitioning).
#[allow(clippy::too_many_arguments)]
fn join_spilled_partition(
    dir: &SpillDir,
    build: &SpillFile,
    probe: &SpillFile,
    level: u32,
    build_key: &[usize],
    probe_key: &[usize],
    probe_rest: &[usize],
    width: usize,
    budget: &mut Budget,
    out: &mut Vec<Row>,
) -> Result<(), EvalError> {
    if build.rows == 0 || probe.rows == 0 {
        return Ok(());
    }
    // In-memory footprint of this partition's build side: its hash table
    // plus the decoded rows (the on-disk frame size is a fair proxy).
    let est = ChainTable::byte_estimate(build.rows as usize) + build.bytes;
    if !budget.try_reserve_bytes(est) {
        if level < MAX_SPILL_LEVEL {
            let stats = budget.spill_stats();
            let bsub = repartition_file(dir, "b", build, level + 1, &stats)?;
            let psub = repartition_file(dir, "p", probe, level + 1, &stats)?;
            for q in 0..SPILL_FANOUT {
                join_spilled_partition(
                    dir,
                    &bsub[q],
                    &psub[q],
                    level + 1,
                    build_key,
                    probe_key,
                    probe_rest,
                    width,
                    budget,
                    out,
                )?;
            }
            return Ok(());
        }
        budget.reserve_bytes(est)?;
    }
    let result = join_loaded_partition(
        build, probe, build_key, probe_key, probe_rest, width, budget, out,
    );
    budget.uncharge_bytes(est);
    result
}

/// True if the key columns of `a` (at `a_idx`) equal those of `b` (at
/// `b_idx`), positionally.
fn keys_eq(a: &Row, a_idx: &[usize], b: &Row, b_idx: &[usize]) -> bool {
    a_idx.iter().zip(b_idx).all(|(&i, &j)| a[i] == b[j])
}

/// The in-memory tail of [`join_spilled_partition`], separated so its
/// caller can release the build reservation on every exit path. Emits
/// `build_row ++ probe_rest(probe_row)` per match.
#[allow(clippy::too_many_arguments)]
fn join_loaded_partition(
    build: &SpillFile,
    probe: &SpillFile,
    build_key: &[usize],
    probe_key: &[usize],
    probe_rest: &[usize],
    width: usize,
    budget: &mut Budget,
    out: &mut Vec<Row>,
) -> Result<(), EvalError> {
    let mut brows: Vec<(u64, Row)> = Vec::with_capacity(build.rows as usize);
    let mut reader = SpillReader::open(&build.path)?;
    while let Some(frame) = reader.read_row()? {
        brows.push(split_frame(frame)?);
    }
    let table = ChainTable::build(brows.len(), |i| brows[i].0);
    let row_bytes = row_heap_bytes(width);
    let mut preader = SpillReader::open(&probe.path)?;
    while let Some(frame) = preader.read_row()? {
        let (h, prow) = split_frame(frame)?;
        table.for_each(h, |bi| {
            let brow = &brows[bi].1;
            if keys_eq(brow, build_key, &prow, probe_key) {
                budget.charge(1)?;
                budget.charge_bytes(row_bytes)?;
                let mut row: Vec<Value> = Vec::with_capacity(width);
                row.extend(brow.iter().cloned());
                row.extend(probe_rest.iter().map(|&j| prow[j].clone()));
                out.push(row.into_boxed_slice());
            }
            Ok(())
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: Vec<Value>) -> Row {
        vals.into_boxed_slice()
    }

    #[test]
    fn round_trips_all_value_types() {
        let mut dir = SpillDir::create(None).unwrap();
        let rows = vec![
            row(vec![
                Value::Null,
                Value::Int(-42),
                Value::Float(1.5),
                Value::str("héllo, world"),
                Value::Date(8766),
            ]),
            row(vec![Value::Float(f64::NAN), Value::str("")]),
            row(vec![]),
        ];
        let path = dir.next_file("t");
        let mut w = SpillWriter::create(path).unwrap();
        for r in &rows {
            w.write_row(r).unwrap();
        }
        let f = w.finish().unwrap();
        assert_eq!(f.rows, 3);
        let mut r = SpillReader::open(&f.path).unwrap();
        let mut back = Vec::new();
        while let Some(row) = r.read_row().unwrap() {
            back.push(row);
        }
        assert_eq!(back, rows);
        dir.cleanup().unwrap();
    }

    #[test]
    fn checksum_detects_corruption() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.next_file("c");
        let mut w = SpillWriter::create(path).unwrap();
        w.write_row(&row(vec![Value::Int(7), Value::str("abcdef")]))
            .unwrap();
        let f = w.finish().unwrap();
        // Flip a payload byte.
        let mut bytes = fs::read(&f.path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&f.path, bytes).unwrap();
        let mut r = SpillReader::open(&f.path).unwrap();
        let err = r.read_row().unwrap_err();
        assert!(matches!(err, EvalError::SpillIo(ref m) if m.contains("checksum")));
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.next_file("t");
        let mut w = SpillWriter::create(path).unwrap();
        w.write_row(&row(vec![Value::Int(1), Value::Int(2)]))
            .unwrap();
        let f = w.finish().unwrap();
        let bytes = fs::read(&f.path).unwrap();
        fs::write(&f.path, &bytes[..bytes.len() - 3]).unwrap();
        let mut r = SpillReader::open(&f.path).unwrap();
        assert!(matches!(r.read_row(), Err(EvalError::SpillIo(_))));
    }

    #[test]
    fn dir_guard_removes_on_drop_and_cleanup() {
        let dir = SpillDir::create(None).unwrap();
        let p = dir.path().to_path_buf();
        let mut w = SpillWriter::create(dir.next_file("x")).unwrap();
        w.write_row(&row(vec![Value::Int(1)])).unwrap();
        w.finish().unwrap();
        assert!(p.exists());
        drop(dir);
        assert!(!p.exists(), "Drop must reclaim the spill dir");

        let mut dir = SpillDir::create(None).unwrap();
        let p = dir.path().to_path_buf();
        dir.cleanup().unwrap();
        assert!(!p.exists());
        drop(dir); // idempotent after cleanup
    }

    #[test]
    fn dir_guard_survives_panic_unwind() {
        let dir = SpillDir::create(None).unwrap();
        let p = dir.path().to_path_buf();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _w = SpillWriter::create(dir.next_file("p")).unwrap();
            panic!("deliberate");
        }));
        assert!(res.is_err());
        assert!(!p.exists(), "unwind must reclaim the spill dir");
    }

    #[test]
    fn keys_compare_positionally() {
        let a = row(vec![Value::Int(1), Value::Float(0.0), Value::str("abc")]);
        let b = row(vec![Value::str("abc"), Value::Float(-0.0), Value::Int(1)]);
        // a[(0,1,2)] vs b[(2,1,0)] are the same key.
        assert!(keys_eq(&a, &[0, 1, 2], &b, &[2, 1, 0]));
        assert!(!keys_eq(&a, &[0], &b, &[0]));
        assert!(keys_eq(&a, &[], &b, &[]));
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
