//! Key plans: how a columnar kernel addresses the tuples of a join key.
//!
//! A [`KeyPlan`] is resolved once per kernel call from what the inputs
//! show. It exists when every key column, on both sides, is a null-free
//! `Int`, `Date` or dictionary-coded `Str` column of the same variant;
//! then each key column `i` of the *build* side spans `[minᵢ, maxᵢ]` and a
//! key tuple packs into one integer, `Σ (kᵢ − minᵢ)·strideᵢ` with
//! `strideᵢ = Π_{j<i} widthⱼ`. Packing is exact — equal packed keys ⇔
//! equal tuples — and a probe value outside `[minᵢ, maxᵢ]` cannot match
//! any build row, so it is a miss before any table is consulted.
//!
//! What a kernel does with the plan depends on whether the packed range
//! fits in the bytes it has already reserved: a table (or bitmap) indexed
//! by packed key when it does, one exact bitmap per key column in front
//! of the hashed table when it does not. No plan — `Float`, `Mixed`, a
//! NULL, differing variants, a range that overflows — means the hashed
//! path, unchanged.
//!
//! A kernel reads its key columns where its input keeps its rows
//! ([`Keys`]: a filtered input through its selection vector, nothing
//! gathered) and walks them once ([`KeyPlan::try_keys`]), handing each
//! row's packed key straight to its test, lookup or insert. Joins settle
//! the budget once per [`BLOCK`] of probe rows.

use crate::column::{combine_hash, compact, finish_hash, Column, ColumnData};
use crate::crel::CRel;
use crate::dict::{DictReader, NULL_CODE};
use std::ops::Range;

/// Rows a kernel handles between two budget settlements, and the most
/// pairs it emits before settling early.
pub(crate) const BLOCK: usize = 4096;

/// `rows` cut into consecutive blocks of at most [`BLOCK`] rows.
pub(crate) fn blocks(rows: Range<usize>) -> impl DoubleEndedIterator<Item = Range<usize>> {
    let end = rows.end;
    rows.step_by(BLOCK).map(move |lo| lo..end.min(lo + BLOCK))
}

/// The packed key (or column offset) of a row that matches no build row.
pub(crate) const MISS: u64 = u64::MAX;

/// The most key columns a plan covers; a wider key takes the hashed path.
const MAX_DIMS: usize = 8;

/// Positions a key of several columns packs per typed pass over each.
const CHUNK: usize = 256;

/// One key column of a kernel's input: the column, and the rows of it
/// the input keeps, ascending (`None`: every row).
pub(crate) type KeyCol<'a> = (&'a Column, Option<&'a [u32]>);

/// The key columns of one input of a kernel, paired by position with the
/// other input's. Position `j` of a column is its row `j`, or `rows[j]`
/// where it lists rows: a filtered input is read through its selection
/// vector, never gathered.
pub(crate) struct Keys<'a> {
    pub(crate) cols: Vec<KeyCol<'a>>,
    pub(crate) len: usize,
}

/// The row position `j` reads (see [`Keys`]).
#[inline]
pub(crate) fn row(rows: Option<&[u32]>, j: usize) -> usize {
    rows.map_or(j, |rows| rows[j] as usize)
}

/// `$body` with `$cell` the function from a position of the key column
/// `$col` read at `$rows` ([`Keys`]) to its cell as an `i64`, and `$cells`
/// the one from a range of positions to their cells, in order: one copy
/// of `$body` per cell type, for listed and for unlisted rows, so the
/// loops inside are typed (and over unlisted rows, over a slice).
macro_rules! with_cells {
    ($col:expr, $rows:expr, |$cell:ident, $cells:ident| $body:expr) => {
        match $col.data() {
            ColumnData::Int(a) => with_cells!(a, $rows, $cell, $cells, $body),
            ColumnData::Date(a) => with_cells!(a, $rows, $cell, $cells, $body),
            ColumnData::Str(a) => with_cells!(a, $rows, $cell, $cells, $body),
            ColumnData::Float(_) | ColumnData::Mixed(_) => {
                unreachable!("key plans are resolved over Int, Date and Str columns only")
            }
        }
    };
    ($a:ident, $rows:expr, $cell:ident, $cells:ident, $body:expr) => {
        match $rows {
            None => {
                let ($cell, $cells) = (
                    |j: usize| i64::from($a[j]),
                    |r: Range<usize>| $a[r].iter().map(|&x| i64::from(x)),
                );
                $body
            }
            Some(rows) => {
                let ($cell, $cells) = (
                    |j: usize| i64::from($a[rows[j] as usize]),
                    |r: Range<usize>| rows[r].iter().map(|&j| i64::from($a[j as usize])),
                );
                $body
            }
        }
    };
}

impl<'a> Keys<'a> {
    /// Key columns of `len` positions each.
    pub(crate) fn new(cols: impl IntoIterator<Item = KeyCol<'a>>, len: usize) -> Keys<'a> {
        let cols = cols.into_iter().collect();
        Keys { cols, len }
    }

    /// Columns `idx` of `rel`, every row.
    pub(crate) fn of(rel: &'a CRel, idx: &[usize]) -> Keys<'a> {
        Keys::new(idx.iter().map(|&c| (rel.column(c), None)), rel.len())
    }

    /// 64-bit key hash of every position: one [`Column::write_hashes`]
    /// pass per column, then the avalanche finalizer. An empty key hashes
    /// every row to the same constant (cross products).
    pub(crate) fn hashes(&self, reader: &DictReader) -> Vec<u64> {
        let mut acc = vec![0u64; self.len];
        for &(col, rows) in &self.cols {
            match rows {
                None => col.write_hashes(&mut acc, reader),
                Some(rows) => col.write_hashes_at(rows, &mut acc, reader),
            }
        }
        acc.iter_mut().for_each(|h| *h = finish_hash(*h));
        acc
    }

    /// The key hashes of positions `at`, one per position, into `out`.
    pub(crate) fn hashes_at(&self, at: &[u32], out: &mut Vec<u64>, reader: &DictReader) {
        out.clear();
        out.resize(at.len(), 0);
        for &(col, rows) in &self.cols {
            for (h, &j) in out.iter_mut().zip(at) {
                *h = combine_hash(*h, col.hash_at(row(rows, j as usize), reader));
            }
        }
        out.iter_mut().for_each(|h| *h = finish_hash(*h));
    }

    /// True if position `i` and position `j` of `other` hold equal keys
    /// (`Value` equality semantics, [`Column::eq_at`]).
    #[inline]
    pub(crate) fn eq_at(&self, i: usize, other: &Keys, j: usize, reader: &DictReader) -> bool {
        (self.cols.iter().zip(&other.cols))
            .all(|(&(a, ra), &(b, rb))| a.eq_at(row(ra, i), b, row(rb, j), reader))
    }
}

/// One key column: the build side's value range and its place in the
/// packed key.
#[derive(Clone, Copy, Default)]
struct KeyDim {
    min: i64,
    /// `max − min + 1`.
    width: u64,
    /// Product of the earlier columns' widths; 0 once that overflows (the
    /// plan then has no packed range and the stride is never used).
    stride: u64,
}

impl KeyDim {
    /// `x − min`, or [`MISS`] (all ones, set without a branch) where that
    /// falls outside `0..width`. The subtraction wraps in `u64`, which is
    /// exact here: a value below `min` wraps to at least
    /// `2⁶⁴ − (min − i64::MIN)`, and that is `≥ width` because
    /// `min + width − 1` is an `i64`.
    #[inline]
    fn offset(&self, x: i64) -> u64 {
        let d = (x as u64).wrapping_sub(self.min as u64);
        d | u64::from(d >= self.width).wrapping_neg()
    }
}

/// See the module docs.
pub(crate) struct KeyPlan {
    /// One per key column, in the first `n_dims` places: a plan is
    /// resolved per kernel call, and this keeps it off the heap.
    dims: [KeyDim; MAX_DIMS],
    n_dims: usize,
    /// Number of packed keys, `Π widthᵢ`; `None` when it overflows.
    range: Option<u64>,
}

/// A fixed-size set of packed keys or column offsets: the reducer side
/// of a semijoin, the values of one key column of a join's build side.
pub(crate) struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// Bytes a bitmap over `bits` bits allocates.
    pub(crate) fn byte_estimate(bits: u64) -> Option<u64> {
        bits.div_ceil(64).checked_mul(8)
    }

    /// The empty set over `0..bits`.
    pub(crate) fn new(bits: u64) -> Bitmap {
        Bitmap {
            words: vec![0; bits.div_ceil(64) as usize],
        }
    }

    /// True if `i` is in the set ([`MISS`] never is). No branch tests
    /// for a miss: it reads bit 0 and is masked off.
    #[inline]
    pub(crate) fn contains(&self, i: u64) -> bool {
        let hit = i != MISS;
        let i = i & u64::from(hit).wrapping_neg();
        hit & ((self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1)
    }

    /// Adds `i`.
    #[inline]
    pub(crate) fn insert(&mut self, i: u64) {
        self.words[(i / 64) as usize] |= 1u64 << (i % 64);
    }
}

/// True if `col` holds no NULL at `rows`.
fn null_free(col: &Column, rows: Option<&[u32]>) -> bool {
    let nulls = col.nulls();
    !nulls.any() || rows.is_some_and(|rows| rows.iter().all(|&r| !nulls.get(r as usize)))
}

impl KeyPlan {
    /// The plan for joining the `build` key with the `probe` key (columns
    /// paired by position), or `None` when the key is not plannable: no
    /// key column, no build row, a column that is not null-free
    /// `Int`/`Date`/`Str` on both sides, a build-side range of `2⁶⁴`
    /// values, or more than `MAX_DIMS` key columns. Only the rows each
    /// side keeps count.
    pub(crate) fn resolve(build: &Keys, probe: &Keys) -> Option<KeyPlan> {
        let n_dims = build.cols.len();
        if n_dims == 0 || n_dims > MAX_DIMS || build.len == 0 {
            return None;
        }
        let mut dims = [KeyDim::default(); MAX_DIMS];
        let mut range = Some(1u64);
        for (i, (&(b, br), &(p, pr))) in build.cols.iter().zip(&probe.cols).enumerate() {
            use ColumnData::{Date, Int, Str};
            let alike = matches!((b.data(), p.data()), (Int(_), Int(_)) | (Date(_), Date(_)));
            let strs = matches!((b.data(), p.data()), (Str(_), Str(_)));
            if !(strs || alike && null_free(b, br) && null_free(p, pr)) {
                return None;
            }
            let (min, max) = with_cells!(b, br, |_cell, cells| cells(0..build.len)
                .fold((i64::MAX, i64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x))));
            // String NULLs are the code `u32::MAX`: one on the build side
            // shows up as the maximum, one on the probe side lies outside
            // every null-free build range and is a miss, which is what
            // `NULL = NULL` gives against a null-free side.
            if strs && max == i64::from(NULL_CODE) {
                return None;
            }
            let width = (max as u64).wrapping_sub(min as u64).checked_add(1)?;
            dims[i] = KeyDim {
                min,
                width,
                stride: range.unwrap_or(0),
            };
            range = range.and_then(|r| r.checked_mul(width));
        }
        Some(KeyPlan {
            dims,
            n_dims,
            range,
        })
    }

    fn dims(&self) -> &[KeyDim] {
        &self.dims[..self.n_dims]
    }

    /// The number of packed keys, if a structure of `bytes(range)` bytes
    /// over them fits in the `reserved` bytes the kernel already holds —
    /// the fits-in-the-reservation rule.
    pub(crate) fn range_fitting(
        &self,
        reserved: u64,
        bytes: impl Fn(u64) -> Option<u64>,
    ) -> Option<usize> {
        let range = self.range?;
        (bytes(range)? <= reserved).then_some(range as usize)
    }

    /// Bytes of one exact bitmap per key column (`None` on overflow).
    pub(crate) fn range_bitmap_bytes(&self) -> Option<u64> {
        self.dims().iter().try_fold(0u64, |acc, d| {
            acc.checked_add(Bitmap::byte_estimate(d.width)?)
        })
    }

    /// Hands `f` the packed key of each position `j` of `at` in `keys`
    /// ([`MISS`] for a value outside the build side's range), ascending,
    /// until `f` fails. A one-column key is one loop over the typed cells;
    /// a wider key packs [`CHUNK`] positions at a time into keys on the
    /// stack, one typed loop per column.
    #[inline]
    pub(crate) fn try_keys<E>(
        &self,
        keys: &Keys,
        at: Range<usize>,
        mut f: impl FnMut(usize, u64) -> Result<(), E>,
    ) -> Result<(), E> {
        if let [(col, rows)] = keys.cols[..] {
            let dim = self.dims[0];
            return with_cells!(col, rows, |_cell, cells| {
                for (j, x) in at.clone().zip(cells(at)) {
                    f(j, dim.offset(x))?;
                }
                Ok(())
            });
        }
        let mut ks = [0u64; CHUNK];
        for lo in at.clone().step_by(CHUNK) {
            let chunk = lo..at.end.min(lo + CHUNK);
            let ks = &mut ks[..chunk.len()];
            let ((col, rows), first) = (keys.cols[0], self.dims[0]);
            with_cells!(col, rows, |_cell, cells| {
                for (k, x) in ks.iter_mut().zip(cells(chunk.clone())) {
                    *k = first.offset(x);
                }
            });
            for (dim, &(col, rows)) in self.dims().iter().zip(&keys.cols).skip(1) {
                with_cells!(col, rows, |_cell, cells| {
                    for (k, x) in ks.iter_mut().zip(cells(chunk.clone())) {
                        let d = dim.offset(x);
                        let packed = k.wrapping_add(d.wrapping_mul(dim.stride));
                        *k = packed | u64::from(*k == MISS || d == MISS).wrapping_neg();
                    }
                });
            }
            for (t, &k) in ks.iter().enumerate() {
                f(lo + t, k)?;
            }
        }
        Ok(())
    }

    /// One exact bitmap per key column over the build side `keys`: bit
    /// `v − minᵢ` of bitmap `i` is set iff some row holds `v` in column
    /// `i`.
    pub(crate) fn range_bitmaps(&self, keys: &Keys) -> Vec<Bitmap> {
        (self.dims().iter().zip(&keys.cols))
            .map(|(dim, &(col, rows))| {
                let mut map = Bitmap::new(dim.width);
                with_cells!(col, rows, |_cell, cells| cells(0..keys.len)
                    .for_each(|x| map.insert(dim.offset(x))));
                map
            })
            .collect()
    }

    /// Writes to the front of `sel` the positions of the block `at` of
    /// `probe` whose every key value occurs in the build side's column
    /// (`maps`, from [`KeyPlan::range_bitmaps`]), ascending — the only
    /// rows that can have a match — and returns how many. The first key
    /// column's loop over the block writes each position and keeps it by
    /// its bit; each later column compacts what the earlier ones kept
    /// ([`compact`]), reading only those rows.
    pub(crate) fn survivors(
        &self,
        maps: &[Bitmap],
        probe: &Keys,
        at: Range<usize>,
        sel: &mut [u32],
    ) -> usize {
        let mut n = 0;
        let columns = self.dims().iter().zip(&probe.cols).zip(maps);
        for (i, ((dim, &(col, rows)), map)) in columns.enumerate() {
            n = with_cells!(col, rows, |cell, cells| {
                let hit = |x: i64| map.contains(dim.offset(x));
                if i == 0 {
                    for (j, x) in at.clone().zip(cells(at.clone())) {
                        sel[n] = j as u32;
                        n += usize::from(hit(x));
                    }
                    n
                } else {
                    compact(&mut sel[..n], |j| hit(cell(j as usize)))
                }
            });
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::value::Value;
    use std::convert::Infallible;
    use std::sync::Arc;

    fn rel(cols: Vec<Column>) -> CRel {
        let n = cols[0].len();
        let names = (0..cols.len()).map(|i| format!("c{i}").into()).collect();
        CRel::new(names, cols.into_iter().map(Arc::new).collect(), n)
    }

    fn ints(v: &[i64]) -> Column {
        Column::from_ints(v.to_vec())
    }

    /// The packed keys of positions `at` of `keys`, in order.
    fn packed(plan: &KeyPlan, keys: &Keys, at: Range<usize>) -> Vec<u64> {
        let mut out = Vec::new();
        let Ok(()) = plan.try_keys(keys, at, |_, k| {
            out.push(k);
            Ok::<_, Infallible>(())
        });
        out
    }

    #[test]
    fn packing_is_exact_and_out_of_range_is_a_miss() {
        let build = rel(vec![ints(&[-3, 4, 0]), ints(&[10, 10, 12])]);
        let probe = rel(vec![
            ints(&[4, -3, 5, -4, 0, 5]),
            ints(&[10, 12, 10, 10, 13, 12]),
        ]);
        let (bk, pk) = (Keys::of(&build, &[0, 1]), Keys::of(&probe, &[0, 1]));
        let plan = KeyPlan::resolve(&bk, &pk).unwrap();
        assert_eq!(plan.range, Some(8 * 3));
        assert_eq!(packed(&plan, &bk, 0..3), [0, 7, 3 + 2 * 8]);
        // The last row misses on its first column and holds an in-range
        // second one: still a miss.
        assert_eq!(packed(&plan, &pk, 0..6), [7, 2 * 8, MISS, MISS, MISS, MISS]);
        // A later block of the same relation.
        assert_eq!(packed(&plan, &pk, 3..6), [MISS, MISS, MISS]);
        // Read through a selection vector: positions 0, 1 are rows 4, 0.
        let rows = [4, 0];
        let selected = Keys::new(
            [
                (probe.column(0), Some(&rows[..])),
                (probe.column(1), Some(&rows[..])),
            ],
            2,
        );
        assert_eq!(packed(&plan, &selected, 0..2), [MISS, 7]);
        // One column: the same offsets, listed rows or not.
        let one = KeyPlan::resolve(&Keys::of(&build, &[0]), &Keys::of(&probe, &[0])).unwrap();
        let col = Keys::new([(probe.column(0), Some(&rows[..]))], 2);
        assert_eq!(packed(&one, &col, 0..2), [3, 7]);
        assert_eq!(
            packed(&one, &Keys::of(&probe, &[0]), 0..6),
            [7, 0, MISS, MISS, 3, MISS]
        );
    }

    /// A two-column prefilter keeps the rows both columns' bitmaps hold:
    /// a row that hits the first column and misses the second is dropped
    /// by the second column's compaction, through a selection vector too.
    #[test]
    fn survivors_test_later_columns_on_the_earlier_survivors() {
        let build = rel(vec![ints(&[1, 5, 9]), ints(&[100, 300, 500])]);
        let probe = rel(vec![
            ints(&[1, 5, 2, 9, 5, 1]),
            ints(&[500, 200, 300, 100, 300, 101]),
        ]);
        let bk = Keys::of(&build, &[0, 1]);
        let plan = KeyPlan::resolve(&bk, &Keys::of(&probe, &[0, 1])).unwrap();
        let maps = plan.range_bitmaps(&bk);
        let mut sel = [0u32; 6];
        let n = plan.survivors(&maps, &Keys::of(&probe, &[0, 1]), 0..6, &mut sel);
        assert_eq!(sel[..n], [0, 3, 4]);
        let n = plan.survivors(&maps, &Keys::of(&probe, &[0, 1]), 2..6, &mut sel);
        assert_eq!(sel[..n], [3, 4]);
        let rows = [1, 4, 5];
        let listed = Keys::new(
            [
                (probe.column(0), Some(&rows[..])),
                (probe.column(1), Some(&rows[..])),
            ],
            3,
        );
        let n = plan.survivors(&maps, &listed, 0..3, &mut sel);
        assert_eq!(sel[..n], [1]);
    }

    #[test]
    fn the_whole_i64_range_has_no_plan_and_nearly_all_of_it_no_packed_range() {
        let all = rel(vec![ints(&[i64::MIN, i64::MAX])]);
        let all = Keys::of(&all, &[0]);
        assert!(KeyPlan::resolve(&all, &all).is_none());
        let most = rel(vec![ints(&[i64::MIN + 1, i64::MAX]), ints(&[0, 1])]);
        let most = Keys::of(&most, &[0, 1]);
        let plan = KeyPlan::resolve(&most, &most).unwrap();
        assert_eq!(plan.range, None);
        assert!(plan.range_bitmap_bytes().unwrap() > 1 << 60);
        // Offsets stay exact at the extremes: below the minimum is a miss.
        let out = [i64::MIN, i64::MAX, i64::MIN + 1].map(|x| plan.dims[0].offset(x));
        assert_eq!(out, [MISS, u64::MAX - 1, 0]);
    }

    #[test]
    fn nulls_floats_and_differing_variants_have_no_plan() {
        let resolve = |b: &CRel, p: &CRel| KeyPlan::resolve(&Keys::of(b, &[0]), &Keys::of(p, &[0]));
        let mut nullable = Column::new(ColumnType::Int);
        nullable.push_value(&Value::Int(1));
        nullable.push_null();
        let (clean, nullable) = (rel(vec![ints(&[1, 2])]), rel(vec![nullable]));
        assert!(resolve(&clean, &nullable).is_none());
        assert!(resolve(&nullable, &clean).is_none());
        // Only the rows a side keeps count: row 0 holds no NULL.
        let rows = [0];
        let kept = Keys::new([(nullable.column(0), Some(&rows[..]))], 1);
        assert!(KeyPlan::resolve(&kept, &Keys::of(&clean, &[0])).is_some());

        let mut floats = Column::new(ColumnType::Float);
        assert!(floats.push_float(1.0) && floats.push_float(2.0));
        let floats = rel(vec![floats]);
        assert!(resolve(&floats, &floats).is_none());
        assert!(resolve(&clean, &floats).is_none());

        let mut dates = Column::new(ColumnType::Date);
        assert!(dates.push_date(1) && dates.push_date(2));
        assert!(resolve(&clean, &rel(vec![dates])).is_none());

        // A string NULL on the build side is no plan; on the probe side
        // it is a miss.
        let strs = |vals: &[Value]| {
            let mut c = Column::new(ColumnType::Str);
            vals.iter().for_each(|v| c.push_value(v));
            rel(vec![c])
        };
        let (full, holed) = (
            strs(&[Value::str("kp-a"), Value::str("kp-b")]),
            strs(&[Value::str("kp-a"), Value::Null]),
        );
        assert!(resolve(&holed, &full).is_none());
        let plan = resolve(&full, &holed).unwrap();
        assert_eq!(packed(&plan, &Keys::of(&holed, &[0]), 0..2)[1], MISS);

        assert!(KeyPlan::resolve(&Keys::of(&clean, &[]), &Keys::of(&clean, &[])).is_none());
        let empty = rel(vec![ints(&[])]);
        assert!(resolve(&empty, &clean).is_none());
    }
}
